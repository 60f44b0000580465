//! Dataset-2 stand-in: a census-like table with random errors.
//!
//! The paper's Dataset 2 is the UCI *adult* dataset (≈23 000 records over the
//! attributes education, hours-per-week, income, marital-status,
//! native-country, occupation, race, relationship, sex, workclass), assumed
//! clean and used as ground truth; errors are injected into 30 % of the
//! tuples by "changing characters or replacing the attribute value with
//! another value from the domain", and the data-quality rules are
//! *discovered* with a 5 % support threshold.
//!
//! This generator synthesises a table with the same schema and the properties
//! the evaluation relies on:
//!
//! * a handful of embedded dependencies (`occupation → workclass`,
//!   `relationship → marital_status`, `education, occupation → income`) so
//!   that CFD discovery finds meaningful rules,
//! * errors that are **random** (uniform over tuples, attributes, and error
//!   kinds) and therefore carry no learnable correlation with the tuple
//!   content — the reason the learning-based strategies gain less on
//!   Dataset 2 in Figures 4–5, and
//! * roughly uniform attribute-value frequencies, so suggested-update groups
//!   end up similar in size and Greedy ≈ Random, as observed in Figure 3(b).

use gdr_cfd::{discover_cfds, DiscoveryConfig, RuleSet};
use gdr_relation::{Schema, Table, Value};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

use crate::errors::{corrupt, ErrorKind};
use crate::GeneratedDataset;

/// Attribute order of the generated table (the paper's Dataset 2 schema).
pub const CENSUS_ATTRS: &[&str] = &[
    "education",
    "hours_per_week",
    "income",
    "marital_status",
    "native_country",
    "occupation",
    "race",
    "relationship",
    "sex",
    "workclass",
];

/// Index of the `occupation` attribute.
pub const ATTR_OCCUPATION: usize = 5;
/// Index of the `workclass` attribute.
pub const ATTR_WORKCLASS: usize = 9;
/// Index of the `relationship` attribute.
pub const ATTR_RELATIONSHIP: usize = 7;
/// Index of the `marital_status` attribute.
pub const ATTR_MARITAL: usize = 3;

const EDUCATIONS: &[&str] = &[
    "Bachelors",
    "HS-grad",
    "Masters",
    "Some-college",
    "Assoc-voc",
    "Doctorate",
    "11th",
];
const COUNTRIES: &[&str] = &[
    "United-States",
    "Mexico",
    "Philippines",
    "Germany",
    "Canada",
    "India",
];
const RACES: &[&str] = &[
    "White",
    "Black",
    "Asian-Pac-Islander",
    "Amer-Indian-Eskimo",
    "Other",
];
const SEX_VALUES: &[&str] = &["Male", "Female"];

/// `(occupation, workclass)` pairs — occupation functionally determines
/// workclass in the clean data.
const OCCUPATION_WORKCLASS: &[(&str, &str)] = &[
    ("Exec-managerial", "Private"),
    ("Prof-specialty", "Private"),
    ("Craft-repair", "Private"),
    ("Adm-clerical", "Local-gov"),
    ("Sales", "Self-emp-not-inc"),
    ("Protective-serv", "State-gov"),
    ("Farming-fishing", "Self-emp-inc"),
    ("Armed-Forces", "Federal-gov"),
];

/// `(relationship, marital_status)` pairs — relationship functionally
/// determines marital status in the clean data.
const RELATIONSHIP_MARITAL: &[(&str, &str)] = &[
    ("Husband", "Married-civ-spouse"),
    ("Wife", "Married-civ-spouse"),
    ("Own-child", "Never-married"),
    ("Unmarried", "Divorced"),
    ("Not-in-family", "Never-married"),
    ("Other-relative", "Widowed"),
];

/// Configuration of the census-dataset generator.
#[derive(Debug, Clone)]
pub struct CensusConfig {
    /// Number of tuples to generate (the paper uses ~23 000).
    pub tuples: usize,
    /// Fraction of tuples that receive at least one error (paper: 0.3).
    pub dirty_fraction: f64,
    /// Support threshold handed to CFD discovery (paper: 0.05).
    pub discovery_support: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for CensusConfig {
    fn default() -> Self {
        CensusConfig {
            tuples: 23_000,
            dirty_fraction: 0.3,
            discovery_support: 0.05,
            seed: 1994, // the year the adult dataset was extracted
        }
    }
}

/// Generates the census dataset: clean ground truth, randomly corrupted dirty
/// instance, and rules discovered from the clean instance with the configured
/// support threshold.
pub fn generate_census_dataset(config: &CensusConfig) -> GeneratedDataset {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let schema = Schema::new(CENSUS_ATTRS);
    let mut clean = Table::with_capacity("census_clean", schema.clone(), config.tuples);

    for _ in 0..config.tuples {
        let (occupation, workclass) = *OCCUPATION_WORKCLASS.choose(&mut rng).unwrap();
        let (relationship, marital) = *RELATIONSHIP_MARITAL.choose(&mut rng).unwrap();
        let education = *EDUCATIONS.choose(&mut rng).unwrap();
        // Income depends deterministically on (education, occupation) so that
        // a two-attribute dependency also exists in the data.
        let income = if matches!(education, "Masters" | "Doctorate" | "Bachelors")
            && matches!(occupation, "Exec-managerial" | "Prof-specialty")
        {
            ">50K"
        } else {
            "<=50K"
        };
        let row = vec![
            Value::from(education),
            Value::from(rng.gen_range(10..80i64).to_string()),
            Value::from(income),
            Value::from(marital),
            Value::from(*COUNTRIES.choose(&mut rng).unwrap()),
            Value::from(occupation),
            Value::from(*RACES.choose(&mut rng).unwrap()),
            Value::from(relationship),
            Value::from(*SEX_VALUES.choose(&mut rng).unwrap()),
            Value::from(workclass),
        ];
        clean.push_row(row).expect("row matches schema");
    }

    // Discover rules from the clean instance (the ground truth), as the paper
    // does for Dataset 2, with the configured support threshold.
    let discovery = DiscoveryConfig {
        min_support: config.discovery_support,
        min_confidence: 0.98,
        max_lhs_size: 1,
        discover_variable: true,
        min_avg_group_size: 5.0,
        max_rules: 120,
    };
    let discovered = discover_cfds(&clean, &discovery).expect("discovery on clean data");
    // Keep only rules over the attributes we deliberately made dependent;
    // spurious single-value rules on free attributes would mark correct data
    // as dirty.
    let relevant: Vec<_> = discovered
        .into_iter()
        .filter(|rule| {
            let attrs = rule.attrs();
            attrs.iter().all(|&a| {
                matches!(
                    a,
                    ATTR_OCCUPATION | ATTR_WORKCLASS | ATTR_RELATIONSHIP | ATTR_MARITAL | 0 | 2
                )
            })
        })
        .collect();
    let mut rules = RuleSet::new(relevant);

    // Random, uncorrelated corruption.
    let mut dirty = clean.snapshot("census_dirty");
    let mut corrupted_cells = Vec::new();
    let corruptible_attrs: &[usize] = &[
        0,
        2,
        ATTR_MARITAL,
        ATTR_OCCUPATION,
        ATTR_RELATIONSHIP,
        ATTR_WORKCLASS,
    ];
    for tid in 0..dirty.len() {
        if !rng.gen_bool(config.dirty_fraction) {
            continue;
        }
        let attr = *corruptible_attrs.choose(&mut rng).unwrap();
        let domain = attribute_domain(attr);
        let kind = if rng.gen_bool(0.5) {
            ErrorKind::DomainSwap
        } else {
            ErrorKind::Typo
        };
        let old = dirty.cell(tid, attr).clone();
        let new = corrupt(&old, kind, &domain, &mut rng);
        if new != old {
            dirty.set_cell(tid, attr, new).expect("valid cell");
            corrupted_cells.push((tid, attr));
        }
    }

    rules.weights_from_context(&dirty);

    GeneratedDataset {
        clean,
        dirty,
        rules,
        corrupted_cells,
    }
}

/// The clean domain of a corruptible attribute (used for domain-swap errors).
fn attribute_domain(attr: usize) -> Vec<&'static str> {
    match attr {
        0 => EDUCATIONS.to_vec(),
        2 => vec![">50K", "<=50K"],
        ATTR_MARITAL => RELATIONSHIP_MARITAL.iter().map(|&(_, m)| m).collect(),
        ATTR_OCCUPATION => OCCUPATION_WORKCLASS.iter().map(|&(o, _)| o).collect(),
        ATTR_RELATIONSHIP => RELATIONSHIP_MARITAL.iter().map(|&(r, _)| r).collect(),
        ATTR_WORKCLASS => OCCUPATION_WORKCLASS.iter().map(|&(_, w)| w).collect(),
        _ => Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_cfd::ViolationEngine;

    fn small() -> GeneratedDataset {
        generate_census_dataset(&CensusConfig {
            tuples: 1_500,
            dirty_fraction: 0.3,
            discovery_support: 0.05,
            seed: 11,
        })
    }

    #[test]
    fn clean_instance_satisfies_discovered_rules() {
        let data = small();
        assert!(!data.rules.is_empty(), "discovery found no rules");
        let engine = ViolationEngine::build(&data.clean, &data.rules);
        assert_eq!(engine.total_violations(), 0);
    }

    #[test]
    fn dirty_instance_has_violations() {
        let data = small();
        let engine = ViolationEngine::build(&data.dirty, &data.rules);
        assert!(!engine.dirty_tuples().is_empty());
    }

    #[test]
    fn corruption_bookkeeping_is_exact() {
        let data = small();
        assert!(crate::tests::corruption_is_consistent(&data));
        let fraction = data.dirty_tuple_fraction();
        assert!(fraction > 0.2 && fraction < 0.35, "fraction = {fraction}");
    }

    #[test]
    fn discovered_rules_include_the_embedded_dependencies() {
        let data = small();
        // At least one rule must relate occupation and workclass, and one
        // must relate relationship and marital status.
        let has_occupation_rule =
            data.rules.rules().iter().any(|r| {
                r.attrs().contains(&ATTR_OCCUPATION) && r.attrs().contains(&ATTR_WORKCLASS)
            });
        let has_relationship_rule =
            data.rules.rules().iter().any(|r| {
                r.attrs().contains(&ATTR_RELATIONSHIP) && r.attrs().contains(&ATTR_MARITAL)
            });
        assert!(has_occupation_rule);
        assert!(has_relationship_rule);
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small();
        let b = small();
        assert_eq!(a.dirty, b.dirty);
        assert_eq!(a.corrupted_cells, b.corrupted_cells);
        assert_eq!(a.rules.len(), b.rules.len());
    }

    #[test]
    fn errors_are_spread_over_attributes_and_tuples() {
        let data = small();
        let mut by_attr = std::collections::HashMap::new();
        for &(_, attr) in &data.corrupted_cells {
            *by_attr.entry(attr).or_insert(0usize) += 1;
        }
        // Random injection touches several attributes, none dominating
        // completely (contrast with the hospital generator).
        assert!(by_attr.len() >= 4);
        let max = by_attr.values().max().copied().unwrap_or(0);
        assert!(max * 2 < data.corrupted_cells.len());
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
        assert_eq!(names, CENSUS_ATTRS);
    }
}
