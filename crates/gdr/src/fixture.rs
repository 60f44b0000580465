//! The running example of Figure 1 as an executable fixture.
//!
//! The paper's Figure 1 shows a `Customer(Name, SRC, STR, CT, STT, ZIP)`
//! instance with eight tuples and five CFDs (φ1–φ5).  The figure's cell
//! values are only partially legible in the text, so this fixture
//! reconstructs an instance that exhibits every behaviour the paper derives
//! from it:
//!
//! * φ1–φ4: `ZIP → CT, STT` bound to the four zip codes of the example,
//! * φ5: `STR, CT → ZIP` in the context `CT = Fort Wayne` (a variable CFD),
//! * a group of tuples whose `CT` should become `Michigan City` (the paper's
//!   first group, mostly correct),
//! * a group of tuples whose `ZIP` is suggested to become `46825` where the
//!   suggestion is right for one tuple and wrong for another (the paper's
//!   second group), and
//! * a recurrent-mistake pattern: tuples with `SRC = H2` tend to have a wrong
//!   `CT` but a correct `ZIP`.

use gdr_cfd::{parser, RuleSet};
use gdr_relation::{Schema, Table};

/// The schema of the Figure 1 `Customer` relation.
pub(crate) fn customer_schema() -> Schema {
    Schema::new(&["Name", "SRC", "STR", "CT", "STT", "ZIP"])
}

/// The rules φ1–φ5 of Figure 1(b) in the textual syntax of
/// [`gdr_cfd::parser`].
pub fn figure1_rules_text() -> &'static str {
    "\
# phi1..phi4: zip determines city and state
ZIP -> CT, STT : 46360 || Michigan City, IN
ZIP -> CT, STT : 46774 || New Haven, IN
ZIP -> CT, STT : 46825 || Fort Wayne, IN
ZIP -> CT, STT : 46391 || Westville, IN
# phi5: street determines zip within Fort Wayne
STR, CT -> ZIP : _, Fort Wayne || _
"
}

/// The dirty instance, its ground truth, and the rules of the running
/// example, ready to feed a [`crate::session::GdrSession`].
pub fn figure1_instance() -> (Table, Table, RuleSet) {
    let schema = customer_schema();
    let mut clean = Table::new("customer_clean", schema.clone());
    let mut dirty = Table::new("customer", schema.clone());

    // (Name, SRC, STR, CT, STT, ZIP) — clean value, then dirty value.
    let rows: &[([&str; 6], [&str; 6])] = &[
        // t1: clean tuple from a reliable source.
        (
            ["Ann", "H1", "Franklin St", "Michigan City", "IN", "46360"],
            ["Ann", "H1", "Franklin St", "Michigan City", "IN", "46360"],
        ),
        // t2, t3: SRC = H2 corrupts the city (the recurrent mistake); the
        // suggested update "CT := Michigan City" is correct for both.
        (
            ["Bob", "H2", "Wabash St", "Michigan City", "IN", "46360"],
            ["Bob", "H2", "Wabash St", "Westville", "IN", "46360"],
        ),
        (
            ["Carl", "H2", "Ohio St", "Michigan City", "IN", "46360"],
            ["Carl", "H2", "Ohio St", "Michigan Cty", "IN", "46360"],
        ),
        // t4: the city looks wrong for zip 46360, but the truth is that the
        // *zip* is wrong — "Michigan City" would be an incorrect repair, as
        // in the paper's narrative (the user rejects it for t4).
        (
            ["Dave", "H3", "Lincoln Hwy", "New Haven", "IN", "46774"],
            ["Dave", "H3", "Lincoln Hwy", "New Haven", "IN", "46360"],
        ),
        // t5: Fort Wayne tuple whose zip was mistyped; the suggestion
        // "ZIP := 46825" (from its φ5 agreement partner t6) is correct.
        (
            ["Eve", "H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
            ["Eve", "H1", "Coliseum Blvd", "Fort Wayne", "IN", "46820"],
        ),
        // t6: clean Fort Wayne tuple (t5's agreement partner on φ5).
        (
            ["Frank", "H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
            ["Frank", "H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
        ),
        // t7: SRC = H2 abbreviated the city.
        (
            ["Gina", "H2", "Clinton St", "Fort Wayne", "IN", "46825"],
            ["Gina", "H2", "Clinton St", "FT Wayne", "IN", "46825"],
        ),
        // t8: the *street* was copied from another record; the φ5 conflict
        // this creates makes GDR suggest "ZIP := 46825", which is wrong —
        // the true zip is 46805 and the street is what needs fixing.
        (
            ["Hank", "H3", "Anthony Blvd", "Fort Wayne", "IN", "46805"],
            ["Hank", "H3", "Coliseum Blvd", "Fort Wayne", "IN", "46805"],
        ),
    ];

    for (clean_row, dirty_row) in rows {
        clean.push_text_row(clean_row).expect("fixture row");
        dirty.push_text_row(dirty_row).expect("fixture row");
    }

    let mut rules = RuleSet::new(
        parser::parse_rules(&schema, figure1_rules_text()).expect("fixture rules parse"),
    );
    rules.weights_from_context(&dirty);
    (dirty, clean, rules)
}

#[cfg(test)]
mod tests {
    use super::*;
    use gdr_cfd::ViolationEngine;
    use gdr_relation::Value;
    use gdr_repair::RepairState;

    #[test]
    fn clean_instance_satisfies_every_rule() {
        let (_, clean, rules) = figure1_instance();
        let engine = ViolationEngine::build(&clean, &rules);
        assert_eq!(engine.total_violations(), 0);
    }

    #[test]
    fn dirty_instance_exhibits_the_papers_violations() {
        let (dirty, _, rules) = figure1_instance();
        let engine = ViolationEngine::build(&dirty, &rules);
        let dirty_tuples = engine.dirty_tuples();
        // t2, t3, t4 (zip-46360 city errors), t5 (zip conflict + wrong city
        // context), t7 (abbreviated city), t8 (unknown zip conflicts on φ5).
        assert!(dirty_tuples.contains(&1));
        assert!(dirty_tuples.contains(&2));
        assert!(dirty_tuples.contains(&3));
        assert!(dirty_tuples.contains(&4));
        assert!(dirty_tuples.contains(&6));
        // Clean tuples stay clean.
        assert!(!dirty_tuples.contains(&0));
    }

    #[test]
    fn the_two_groups_of_the_motivating_example_exist() {
        let (dirty, _, rules) = figure1_instance();
        let state = RepairState::new(dirty, &rules);
        let updates = state.possible_updates_sorted();
        let groups = crate::grouping::group_updates(&updates);
        // Group 1: CT := Michigan City for the 46360 tuples (t2, t3, t4).
        let city_group = groups
            .iter()
            .find(|g| g.attr == 3 && g.value == Value::from("Michigan City"))
            .expect("Michigan City group");
        assert!(city_group.len() >= 2);
        // Group 2: ZIP := 46825 suggested from the φ5 conflicts (t5, t8).
        let zip_group = groups
            .iter()
            .find(|g| g.attr == 5 && g.value == Value::from("46825"))
            .expect("46825 group");
        assert!(!zip_group.updates.is_empty());
    }

    #[test]
    fn ground_truth_differs_from_dirty_on_the_expected_cells() {
        let (dirty, clean, _) = figure1_instance();
        let diffs = dirty.diff_cells(&clean).unwrap();
        // Six corrupted cells: t2.CT, t3.CT, t4.ZIP, t5.ZIP, t7.CT, t8.STR.
        assert_eq!(diffs.len(), 6);
        assert!(diffs.contains(&(1, 3)));
        assert!(diffs.contains(&(3, 5)));
        assert!(diffs.contains(&(7, 2)));
    }
}
