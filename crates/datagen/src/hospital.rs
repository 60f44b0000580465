//! Dataset-1 stand-in: emergency-room visits with systematic errors.
//!
//! The paper's Dataset 1 integrates visits from 74 hospitals; its dirt is
//! *systematic* — e.g. "some hospitals located on the boundary between two
//! zip codes have their zip attributes dirty; this is most likely due to a
//! data entry confusion", and the motivating example notes "when SRC = 'H2',
//! the CT attribute is incorrect most of the time, while the ZIP attribute is
//! correct".  The generator reproduces exactly that structure:
//!
//! * every hospital has a fixed address (street / city / zip / state) drawn
//!   from [`crate::domains`], so the clean data satisfies the CFDs,
//! * every hospital is assigned an **error profile** describing which address
//!   attribute its data-entry system tends to corrupt and how (abbreviating
//!   the city, swapping the zip with a neighbour's, typos in the street), and
//! * a configurable fraction of tuples (30 % in the paper) is corrupted
//!   according to its hospital's profile.
//!
//! Because the errors correlate with the `HospitalName` attribute, a
//! classifier over the original tuple can learn to predict which suggested
//! updates are correct — the property GDR's learning component exploits on
//! Dataset 1.  Group sizes also vary widely because hospitals have different
//! visit volumes (Zipf-like weights), matching the paper's observation about
//! Dataset 1's groups.

use gdr_cfd::{parser, RuleSet};
use gdr_relation::{Schema, Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::domains::{CLASSIFICATIONS, COMPLAINTS, HOSPITALS, LOCALITIES, SEXES};
use crate::errors::{corrupt, ErrorKind};
use crate::GeneratedDataset;

/// Attribute order of the generated table (the paper's Dataset 1 schema).
pub const HOSPITAL_ATTRS: &[&str] = &[
    "PatientID",
    "Age",
    "Sex",
    "Classification",
    "Complaint",
    "HospitalName",
    "StreetAddress",
    "City",
    "Zip",
    "State",
    "VisitDate",
];

/// Index of the `HospitalName` attribute.
pub const ATTR_HOSPITAL: usize = 5;
/// Index of the `StreetAddress` attribute.
pub const ATTR_STREET: usize = 6;
/// Index of the `City` attribute.
pub const ATTR_CITY: usize = 7;
/// Index of the `Zip` attribute.
pub const ATTR_ZIP: usize = 8;
/// Index of the `State` attribute.
pub const ATTR_STATE: usize = 9;

/// How one hospital's data-entry pipeline corrupts its records.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorProfile {
    /// The city is abbreviated or mistyped; zip stays correct.
    CityAbbreviated,
    /// The zip is swapped with a neighbouring locality's zip; city correct.
    ZipSwapped,
    /// The street name suffers typos.
    StreetTypos,
    /// State is mistyped occasionally and city abbreviated.
    StateAndCity,
    /// Clean source: contributes (almost) no errors.
    Clean,
}

/// Configuration of the hospital-dataset generator.
#[derive(Debug, Clone)]
pub struct HospitalConfig {
    /// Number of tuples to generate (the paper uses ~20 000).
    pub tuples: usize,
    /// Fraction of tuples that receive at least one error (paper: 0.3).
    pub dirty_fraction: f64,
    /// RNG seed for reproducibility.
    pub seed: u64,
    /// Synthetic two-zip cities appended to the static
    /// [`crate::domains::LOCALITIES`], each contributing two hospitals, two
    /// constant CFDs, and one variable CFD.  `0` (the default) reproduces the
    /// original fixed-domain generator byte for byte; scale runs use
    /// [`HospitalConfig::at_scale`] so 100k–1M-row tables keep realistic
    /// value cardinalities instead of collapsing into eight giant localities.
    pub extra_cities: usize,
}

impl Default for HospitalConfig {
    fn default() -> Self {
        HospitalConfig {
            tuples: 20_000,
            dirty_fraction: 0.3,
            seed: 20110829, // the paper's VLDB presentation date
            extra_cities: 0,
        }
    }
}

impl HospitalConfig {
    /// A configuration for scale experiments: `tuples` rows over a domain
    /// grown proportionally (one synthetic two-zip city per ~5 000 tuples,
    /// capped at 60), with the paper's 30 % error rate and the default seed.
    pub fn at_scale(tuples: usize) -> HospitalConfig {
        HospitalConfig {
            tuples,
            extra_cities: (tuples / 5_000).min(60),
            ..HospitalConfig::default()
        }
    }
}

/// The error profile assigned to each hospital (parallel to
/// [`crate::domains::HOSPITALS`]).  Assignments are fixed so experiments are
/// reproducible and the correlation structure is stable.
pub const HOSPITAL_PROFILES: &[ErrorProfile] = &[
    ErrorProfile::CityAbbreviated, // St. Anthony Memorial
    ErrorProfile::Clean,           // Michigan City General
    ErrorProfile::ZipSwapped,      // New Haven Medical Center
    ErrorProfile::CityAbbreviated, // Parkview Regional
    ErrorProfile::ZipSwapped,      // Lutheran Hospital (Fort Wayne boundary)
    ErrorProfile::StreetTypos,     // Dupont Hospital
    ErrorProfile::StateAndCity,    // Westville Clinic
    ErrorProfile::Clean,           // Elkhart General
    ErrorProfile::ZipSwapped,      // Memorial Hospital South Bend
    ErrorProfile::CityAbbreviated, // St. Joseph Regional
];

/// Relative visit volumes per hospital (Zipf-like), so update-group sizes
/// vary widely as in the paper's Dataset 1.
const HOSPITAL_WEIGHTS: &[f64] = &[30.0, 15.0, 10.0, 8.0, 6.0, 5.0, 4.0, 3.0, 2.0, 1.0];

/// One locality of the (possibly scaled) generation domain — the owned
/// counterpart of [`Locality`], so synthesised entries can live beside the
/// static ones.
#[derive(Debug, Clone)]
struct ScaledLocality {
    zip: String,
    city: String,
    state: String,
    streets: Vec<String>,
}

/// The generation domain: the static base localities and hospitals plus
/// `extra_cities` synthesised two-zip cities (each with two hospitals).
#[derive(Debug)]
struct ScaledDomain {
    localities: Vec<ScaledLocality>,
    /// `(name, locality index)` per hospital, parallel to `profiles` and
    /// `weights`.
    hospitals: Vec<(String, usize)>,
    profiles: Vec<ErrorProfile>,
    weights: Vec<f64>,
}

/// Error profiles cycled over the synthesised hospitals, biased toward the
/// corrupting kinds so scale datasets keep a realistic error mix.
const SCALE_PROFILES: &[ErrorProfile] = &[
    ErrorProfile::CityAbbreviated,
    ErrorProfile::ZipSwapped,
    ErrorProfile::StreetTypos,
    ErrorProfile::StateAndCity,
    ErrorProfile::Clean,
];

/// Builds the generation domain for a configuration.  `extra_cities == 0`
/// reproduces the static base domain exactly.
fn scaled_domain(extra_cities: usize) -> ScaledDomain {
    let mut localities: Vec<ScaledLocality> = LOCALITIES
        .iter()
        .map(|l| ScaledLocality {
            zip: l.zip.to_string(),
            city: l.city.to_string(),
            state: l.state.to_string(),
            streets: l.streets.iter().map(|s| s.to_string()).collect(),
        })
        .collect();
    let mut hospitals: Vec<(String, usize)> = HOSPITALS
        .iter()
        .map(|&(name, idx)| (name.to_string(), idx))
        .collect();
    let mut profiles: Vec<ErrorProfile> = HOSPITAL_PROFILES.to_vec();
    let mut weights: Vec<f64> = HOSPITAL_WEIGHTS.to_vec();
    for c in 0..extra_cities {
        // Each synthetic city spans two zips (so the variable CFD gets
        // non-trivial agreement groups) with disjoint street sets (so
        // (street, city) still determines the zip on clean data).
        let city = format!("Lakeview {c:03}");
        let base = localities.len();
        localities.push(ScaledLocality {
            zip: format!("{:05}", 90_000 + 2 * c),
            city: city.clone(),
            state: "IN".to_string(),
            streets: vec![
                "Oak St".to_string(),
                "Elm St".to_string(),
                "Maple Ave".to_string(),
            ],
        });
        localities.push(ScaledLocality {
            zip: format!("{:05}", 90_001 + 2 * c),
            city: city.clone(),
            state: "IN".to_string(),
            streets: vec![
                "Main St".to_string(),
                "High St".to_string(),
                "Second Ave".to_string(),
            ],
        });
        hospitals.push((format!("{city} Medical Center"), base));
        profiles.push(SCALE_PROFILES[c % SCALE_PROFILES.len()]);
        weights.push(2.0 / (1.0 + (c % 7) as f64));
        hospitals.push((format!("{city} Community Hospital"), base + 1));
        profiles.push(SCALE_PROFILES[(c + 2) % SCALE_PROFILES.len()]);
        weights.push(1.0 / (1.0 + (c % 5) as f64));
    }
    ScaledDomain {
        localities,
        hospitals,
        profiles,
        weights,
    }
}

/// Generates the hospital dataset: clean ground truth, dirty instance,
/// hand-written CFDs, and the corrupted-cell list.
pub fn generate_hospital_dataset(config: &HospitalConfig) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = Schema::new(HOSPITAL_ATTRS);
    let domain = scaled_domain(config.extra_cities);
    let mut clean = Table::with_capacity("hospital_clean", schema.clone(), config.tuples);

    // Cumulative hospital weights for sampling.
    let total_weight: f64 = domain.weights.iter().sum();
    let mut tuple_hospital: Vec<usize> = Vec::with_capacity(config.tuples);

    for i in 0..config.tuples {
        let hospital_idx = sample_weighted(&mut rng, &domain.weights, total_weight);
        let (hospital_name, locality_idx) = &domain.hospitals[hospital_idx];
        let locality = &domain.localities[*locality_idx];
        let street = locality.streets.choose(&mut rng).unwrap();
        tuple_hospital.push(hospital_idx);
        let row = vec![
            Value::from(format!("P{i:06}")),
            Value::from(rng.gen_range(1..95i64).to_string()),
            Value::from(*SEXES.choose(&mut rng).unwrap()),
            Value::from(*CLASSIFICATIONS.choose(&mut rng).unwrap()),
            Value::from(*COMPLAINTS.choose(&mut rng).unwrap()),
            Value::from(hospital_name.as_str()),
            Value::from(street.as_str()),
            Value::from(locality.city.as_str()),
            Value::from(locality.zip.as_str()),
            Value::from(locality.state.as_str()),
            Value::from(format!(
                "2010-{:02}-{:02}",
                rng.gen_range(1..13u32),
                rng.gen_range(1..29u32)
            )),
        ];
        clean.push_row(row).expect("row matches schema");
    }

    // Inject hospital-correlated errors into a sample of the tuples.
    let mut dirty = clean.snapshot("hospital_dirty");
    let mut corrupted_cells = Vec::new();
    let city_domain: Vec<&str> = domain.localities.iter().map(|l| l.city.as_str()).collect();
    let zip_domain: Vec<&str> = domain.localities.iter().map(|l| l.zip.as_str()).collect();

    for (tid, &hospital_idx) in tuple_hospital.iter().enumerate().take(dirty.len()) {
        if !rng.gen_bool(config.dirty_fraction) {
            continue;
        }
        let profile = domain.profiles[hospital_idx];
        let locality = &domain.localities[domain.hospitals[hospital_idx].1];

        let edits: Vec<(usize, ErrorKind, Vec<&str>)> = match profile {
            ErrorProfile::CityAbbreviated => {
                vec![(ATTR_CITY, ErrorKind::Abbreviation, vec![])]
            }
            ErrorProfile::ZipSwapped => {
                vec![(
                    ATTR_ZIP,
                    ErrorKind::DomainSwap,
                    neighbour_zips(&domain, locality, &zip_domain),
                )]
            }
            ErrorProfile::StreetTypos => {
                vec![(ATTR_STREET, ErrorKind::Typo, vec![])]
            }
            ErrorProfile::StateAndCity => {
                let mut edits = vec![(ATTR_CITY, ErrorKind::Abbreviation, vec![])];
                if rng.gen_bool(0.3) {
                    edits.push((ATTR_STATE, ErrorKind::Typo, vec![]));
                }
                edits
            }
            ErrorProfile::Clean => {
                // Even "clean" sources occasionally slip: a random domain swap
                // of the city in 10 % of their sampled tuples.
                if rng.gen_bool(0.1) {
                    vec![(ATTR_CITY, ErrorKind::DomainSwap, city_domain.clone())]
                } else {
                    vec![]
                }
            }
        };

        for (attr, kind, domain) in edits {
            let old = dirty.cell(tid, attr).clone();
            let new = corrupt(&old, kind, &domain, &mut rng);
            if new != old {
                dirty.set_cell(tid, attr, new).expect("valid cell");
                corrupted_cells.push((tid, attr));
            }
        }
    }

    let mut rules = RuleSet::new(
        parser::parse_rules(&schema, &rules_text_for(&domain.localities))
            .expect("generated rules parse"),
    );
    rules.weights_from_context(&dirty);

    GeneratedDataset {
        clean,
        dirty,
        rules,
        corrupted_cells,
    }
}

/// The CFDs of the hospital dataset, in the textual syntax of
/// [`gdr_cfd::parser`]: one constant CFD `Zip → City, State` per locality
/// (mirroring φ1–φ4 of Figure 1) and one variable CFD
/// `StreetAddress, City → Zip` per multi-zip city (mirroring φ5).
pub fn hospital_rules_text() -> String {
    rules_text_for(&scaled_domain(0).localities)
}

/// The rule text over an arbitrary (possibly scaled) locality list.
fn rules_text_for(localities: &[ScaledLocality]) -> String {
    let mut text = String::new();
    for locality in localities {
        text.push_str(&format!(
            "Zip -> City, State : {} || {}, {}\n",
            locality.zip, locality.city, locality.state
        ));
    }
    // Variable rules for cities spanning several zips.
    let mut cities: Vec<&str> = localities.iter().map(|l| l.city.as_str()).collect();
    cities.sort_unstable();
    cities.dedup();
    for city in cities {
        let zip_count = localities.iter().filter(|l| l.city == city).count();
        if zip_count >= 2 {
            text.push_str(&format!("StreetAddress, City -> Zip : _, {city} || _\n"));
        }
    }
    text
}

/// The zip codes of other localities in the same city (the realistic
/// "boundary confusion" swap); falls back to the whole zip domain when the
/// city has a single zip.
fn neighbour_zips<'a>(
    domain: &ScaledDomain,
    locality: &ScaledLocality,
    all_zips: &[&'a str],
) -> Vec<&'a str> {
    let same_city: Vec<&str> = domain
        .localities
        .iter()
        .filter(|l| l.city == locality.city && l.zip != locality.zip)
        .map(|l| l.zip.as_str())
        .collect();
    if same_city.is_empty() {
        all_zips.to_vec()
    } else {
        // Re-borrow from the caller-provided domain to unify lifetimes.
        all_zips
            .iter()
            .copied()
            .filter(|z| same_city.contains(z))
            .collect()
    }
}

fn sample_weighted(rng: &mut StdRng, weights: &[f64], total: f64) -> usize {
    let mut target = rng.gen_range(0.0..total);
    for (i, w) in weights.iter().enumerate() {
        if target < *w {
            return i;
        }
        target -= w;
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_cfd::ViolationEngine;

    fn small() -> GeneratedDataset {
        generate_hospital_dataset(&HospitalConfig {
            tuples: 800,
            dirty_fraction: 0.3,
            seed: 7,
            extra_cities: 0,
        })
    }

    #[test]
    fn clean_instance_satisfies_all_rules() {
        let data = small();
        let engine = ViolationEngine::build(&data.clean, &data.rules);
        assert_eq!(engine.total_violations(), 0);
        assert!(engine.dirty_tuples().is_empty());
    }

    #[test]
    fn dirty_instance_has_violations() {
        let data = small();
        let engine = ViolationEngine::build(&data.dirty, &data.rules);
        assert!(!engine.dirty_tuples().is_empty());
        assert!(engine.total_violations() > 0);
    }

    #[test]
    fn corruption_bookkeeping_is_exact() {
        let data = small();
        assert!(data.corruption_is_consistent());
        assert!(!data.corrupted_cells.is_empty());
    }

    #[test]
    fn dirty_fraction_is_respected_approximately() {
        let data = small();
        let fraction = data.dirty_tuple_fraction();
        assert!(fraction > 0.15 && fraction < 0.40, "fraction = {fraction}");
    }

    #[test]
    fn errors_correlate_with_hospitals() {
        // City errors should concentrate in hospitals with a city-corrupting
        // profile; zip errors in zip-swapping hospitals.
        let data = small();
        let mut city_errors_by_profile = [0usize; 2]; // [city-profile, other]
        for &(tid, attr) in &data.corrupted_cells {
            if attr != ATTR_CITY {
                continue;
            }
            let hospital = data.clean.cell(tid, ATTR_HOSPITAL).render().into_owned();
            let idx = HOSPITALS.iter().position(|&(n, _)| n == hospital).unwrap();
            let is_city_profile = matches!(
                HOSPITAL_PROFILES[idx],
                ErrorProfile::CityAbbreviated | ErrorProfile::StateAndCity
            );
            city_errors_by_profile[usize::from(!is_city_profile)] += 1;
        }
        assert!(
            city_errors_by_profile[0] > city_errors_by_profile[1] * 3,
            "city errors are not concentrated: {city_errors_by_profile:?}"
        );
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.corrupted_cells, b.corrupted_cells);
    }

    #[test]
    fn schema_matches_the_paper() {
        let data = small();
        let names: Vec<&str> = data
            .clean
            .schema()
            .attributes()
            .iter()
            .map(|a| a.name.as_str())
            .collect();
        assert_eq!(names, HOSPITAL_ATTRS);
        assert_eq!(data.clean.schema().attr_id("Zip").unwrap(), ATTR_ZIP);
    }

    #[test]
    fn rules_cover_every_zip_and_multizip_city() {
        let text = hospital_rules_text();
        for locality in LOCALITIES {
            assert!(text.contains(locality.zip));
        }
        assert!(text.contains("StreetAddress, City -> Zip : _, Fort Wayne || _"));
        let data = small();
        assert!(data.rules.len() >= LOCALITIES.len() * 2);
        // Context-based weights were computed: at least one non-zero weight.
        assert!(data.rules.weights().iter().any(|&w| w > 0.0));
    }

    #[test]
    fn group_sizes_vary_widely() {
        // The biggest hospital produces far more tuples than the smallest, so
        // the candidate-update groups will differ in size (the property that
        // separates Greedy from Random in Figure 3a).
        let data = small();
        let mut ids = data.clean.column_ids(ATTR_HOSPITAL).to_vec();
        ids.sort_unstable();
        let mut counts: Vec<usize> = ids.chunk_by(|a, b| a == b).map(<[_]>::len).collect();
        counts.sort_unstable();
        assert!(counts.last().unwrap() > &(counts.first().unwrap() * 5));
    }

    #[test]
    fn scaled_domain_grows_rules_and_stays_clean() {
        let config = HospitalConfig {
            tuples: 3_000,
            dirty_fraction: 0.3,
            seed: 7,
            extra_cities: 12,
        };
        let data = generate_hospital_dataset(&config);
        // Every synthetic city contributes two zips (each parsing into a
        // Zip→City and a Zip→State rule) and one variable CFD on top of the
        // base rule set.
        let base = generate_hospital_dataset(&HospitalConfig {
            extra_cities: 0,
            ..config.clone()
        });
        assert_eq!(data.rules.len(), base.rules.len() + 12 * 5);
        // The clean instance still satisfies the scaled rule set, and the
        // dirty instance still violates it.
        let engine = ViolationEngine::build(&data.clean, &data.rules);
        assert_eq!(engine.total_violations(), 0);
        let engine = ViolationEngine::build(&data.dirty, &data.rules);
        assert!(!engine.dirty_tuples().is_empty());
        assert!(data.corruption_is_consistent());
    }

    #[test]
    fn at_scale_reproduces_deterministically_and_spreads_localities() {
        let a = generate_hospital_dataset(&HospitalConfig::at_scale(20_000));
        let b = generate_hospital_dataset(&HospitalConfig::at_scale(20_000));
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.corrupted_cells, b.corrupted_cells);
        // The synthetic cities actually receive tuples.
        assert!(a.clean.dict_len(ATTR_CITY) > LOCALITIES.len());
    }

    #[test]
    fn extra_cities_zero_reproduces_the_base_generator() {
        // The owned-domain path with no synthetic cities must match the
        // original static-domain output byte for byte (same RNG draws, same
        // rule text), so existing seeds stay stable.
        assert_eq!(
            hospital_rules_text(),
            rules_text_for(&scaled_domain(0).localities)
        );
        let domain = scaled_domain(0);
        assert_eq!(domain.localities.len(), LOCALITIES.len());
        assert_eq!(domain.hospitals.len(), HOSPITALS.len());
        assert_eq!(domain.weights, HOSPITAL_WEIGHTS);
    }

    #[test]
    fn zip_swaps_stay_within_the_same_city() {
        let data = small();
        for &(tid, attr) in &data.corrupted_cells {
            if attr != ATTR_ZIP {
                continue;
            }
            let city = data.clean.cell(tid, ATTR_CITY).render().into_owned();
            let bad_zip = data.dirty.cell(tid, ATTR_ZIP).render().into_owned();
            // Multi-zip cities swap to a neighbour zip of the same city.
            if crate::domains::localities_for_city(&city).len() >= 2 {
                let locality = crate::domains::locality_for_zip(&bad_zip).unwrap();
                assert_eq!(locality.city, city);
            }
        }
    }
}
