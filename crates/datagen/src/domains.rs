//! Static value domains used by the hospital generator.
//!
//! The places are real northern-Indiana localities (the same region as the
//! paper's Figure 1 example: Michigan City, New Haven, Fort Wayne,
//! Westville), each with a fixed set of street names.  The mapping
//! `ZIP → (City, State)` and, within a city, `Street → ZIP` are functional by
//! construction, so the hand-written CFDs of the hospital dataset hold on the
//! clean instance.

/// One `(zip, city, state)` locality plus the streets that map to the zip.
#[derive(Debug, Clone, Copy)]
pub struct Locality {
    /// The ZIP code (unique across localities).
    pub zip: &'static str,
    /// The city name.
    pub city: &'static str,
    /// The state abbreviation.
    pub state: &'static str,
    /// Street names located in this zip code.
    pub streets: &'static [&'static str],
}

/// The localities of the hospital dataset.  Several cities span multiple zip
/// codes (as Fort Wayne does in reality), which is what gives the variable
/// CFD `(STR, CT → ZIP)` non-trivial agreement groups.
pub const LOCALITIES: &[Locality] = &[
    Locality {
        zip: "46360",
        city: "Michigan City",
        state: "IN",
        streets: &["Franklin St", "Wabash St", "Ohio St", "Karwick Rd"],
    },
    Locality {
        zip: "46774",
        city: "New Haven",
        state: "IN",
        streets: &["Lincoln Hwy", "Broadway St", "Green Rd"],
    },
    Locality {
        zip: "46825",
        city: "Fort Wayne",
        state: "IN",
        streets: &["Coliseum Blvd", "Clinton St", "Dupont Rd"],
    },
    Locality {
        zip: "46805",
        city: "Fort Wayne",
        state: "IN",
        streets: &["Anthony Blvd", "State Blvd", "Crescent Ave"],
    },
    Locality {
        zip: "46835",
        city: "Fort Wayne",
        state: "IN",
        streets: &["Maplecrest Rd", "Sherden RD", "Trier Rd"],
    },
    Locality {
        zip: "46391",
        city: "Westville",
        state: "IN",
        streets: &["Colfax Ave", "Main St", "Valparaiso St"],
    },
    Locality {
        zip: "46516",
        city: "Elkhart",
        state: "IN",
        streets: &["Jackson Blvd", "Prairie St", "Benham Ave"],
    },
    Locality {
        zip: "46601",
        city: "South Bend",
        state: "IN",
        streets: &["Michigan St", "Lafayette Blvd", "Western Ave"],
    },
];

/// Hospital names; each hospital sits in one locality (by index into
/// [`LOCALITIES`]) and has an error profile assigned by the generator.
pub const HOSPITALS: &[(&str, usize)] = &[
    ("St. Anthony Memorial", 0),
    ("Michigan City General", 0),
    ("New Haven Medical Center", 1),
    ("Parkview Regional", 2),
    ("Lutheran Hospital", 3),
    ("Dupont Hospital", 4),
    ("Westville Clinic", 5),
    ("Elkhart General", 6),
    ("Memorial Hospital South Bend", 7),
    ("St. Joseph Regional", 7),
];

/// Chief-complaint values for the visit records (free text, not covered by
/// any rule; present to keep the schema realistic and the learner's feature
/// space non-trivial).
pub const COMPLAINTS: &[&str] = &[
    "Chest pain",
    "Abdominal pain",
    "Fever",
    "Shortness of breath",
    "Headache",
    "Laceration",
    "Fracture",
    "Dizziness",
    "Back pain",
    "Nausea",
];

/// Patient classification codes.
pub const CLASSIFICATIONS: &[&str] = &["Emergent", "Urgent", "Non-urgent", "Transfer"];

/// Patient sex values.
pub const SEXES: &[&str] = &["F", "M"];

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn zips_are_unique() {
        let zips: HashSet<_> = LOCALITIES.iter().map(|l| l.zip).collect();
        assert_eq!(zips.len(), LOCALITIES.len());
    }

    #[test]
    fn every_locality_has_streets() {
        assert!(LOCALITIES.iter().all(|l| !l.streets.is_empty()));
    }

    #[test]
    fn streets_are_unique_within_a_city() {
        // (street, city) must determine the zip for the variable CFD to hold
        // on clean data.
        for locality in LOCALITIES {
            for street in locality.streets {
                let holders: Vec<_> = LOCALITIES
                    .iter()
                    .filter(|l| l.city == locality.city && l.streets.contains(street))
                    .collect();
                assert_eq!(
                    holders.len(),
                    1,
                    "street {street} ambiguous in {}",
                    locality.city
                );
            }
        }
    }

    #[test]
    fn fort_wayne_spans_multiple_zips() {
        assert!(LOCALITIES.iter().filter(|l| l.city == "Fort Wayne").count() >= 2);
    }

    #[test]
    fn hospitals_reference_valid_localities() {
        assert!(HOSPITALS.iter().all(|&(_, idx)| idx < LOCALITIES.len()));
        let names: HashSet<_> = HOSPITALS.iter().map(|&(n, _)| n).collect();
        assert_eq!(names.len(), HOSPITALS.len());
    }

    #[test]
    fn zip_lookup_round_trips() {
        // The zip determines the city, as the rules `Zip -> City` assume.
        for locality in LOCALITIES {
            let found = LOCALITIES.iter().find(|l| l.zip == locality.zip).unwrap();
            assert_eq!(found.city, locality.city);
        }
    }
}
