//! Property test: the journal-driven suggestion refresh must produce the
//! *identical* `PossibleUpdates` map — same cells, same values, bit-identical
//! scores — as the full dirty-world walk it replaced, under random
//! interleavings of user feedback (confirm/reject/retain), forced values,
//! prevented and unchangeable marks (via reject/retain), and novel
//! user-supplied values that grow the dictionaries.
//!
//! At every checkpoint the state is forked: one copy refreshes through the
//! revisit queue (`refresh_updates`), the other through the full walk
//! (`refresh_updates_full`).  Any cell the write-damage fan-out failed to
//! queue would leave a divergent suggestion behind and fail the comparison.

use gdr_cfd::{parser, RuleSet};
use gdr_relation::codec::encode_to_vec;
use gdr_relation::{Schema, Table, Value};
use gdr_repair::{value_similarity, Feedback, RepairState, Update};
use proptest::prelude::*;

fn schema() -> Schema {
    Schema::new(&["SRC", "STR", "CT", "STT", "ZIP"])
}

fn ruleset(schema: &Schema) -> RuleSet {
    RuleSet::new(
        parser::parse_rules(
            schema,
            "\
ZIP -> CT, STT : 46360 || Michigan City, IN
ZIP -> CT, STT : 46391 || Westville, IN
ZIP -> CT, STT : 46825 || Fort Wayne, IN
STR, CT -> ZIP : _, Fort Wayne || _
",
        )
        .unwrap(),
    )
}

const ROWS: &[[&str; 5]] = &[
    ["H1", "Franklin St", "Michigan Cty", "IN", "46360"],
    ["H2", "Wabash St", "Michigan City", "IN", "46360"],
    ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
    ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
    ["H3", "Clinton St", "FT Wayne", "IN", "46825"],
    ["H1", "Colfax Ave", "Westville", "IN", "46391"],
    ["H2", "Main St", "Westvile", "IN", "46391"],
    ["H3", "Valparaiso St", "Westville", "IN", "46360"],
];

fn build_state() -> RepairState {
    let schema = schema();
    let mut table = Table::new("addr", schema.clone());
    for row in ROWS {
        table.push_text_row(row).unwrap();
    }
    RepairState::new(table, &ruleset(&schema))
}

/// Refreshes a fork of `state` through each path and asserts the resulting
/// pending maps are bit-identical; `state` continues as the journal-driven
/// copy.
fn assert_refresh_paths_agree(state: &mut RepairState, step: usize) {
    let mut oracle = state.clone();
    state.refresh_updates();
    oracle.refresh_updates_full();
    let incremental: Vec<Update> = state.possible_updates_sorted();
    let full: Vec<Update> = oracle.possible_updates_sorted();
    assert_eq!(
        incremental.len(),
        full.len(),
        "step {step}: pending counts diverged ({} vs {})",
        incremental.len(),
        full.len()
    );
    for (a, b) in incremental.iter().zip(&full) {
        assert_eq!(a.cell(), b.cell(), "step {step}: cells diverged");
        assert_eq!(
            a.value,
            b.value,
            "step {step}, cell {:?}: values diverged",
            a.cell()
        );
        assert_eq!(
            a.score.to_bits(),
            b.score.to_bits(),
            "step {step}, cell {:?}: score diverged ({} vs {})",
            a.cell(),
            a.score,
            b.score
        );
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Feedback on the k-th pending update: confirm (writes + freezes),
    /// reject (prevented mark + immediate regeneration), or retain
    /// (unchangeable mark).
    Feedback { pick: usize, verdict: usize },
    /// An out-of-band write through `force_value` (heuristic/cascade path),
    /// drawing the value from another row of the same column.
    ForceValue {
        tuple: usize,
        attr_pick: usize,
        from: usize,
    },
    /// The user types in a brand-new value for some cell (dictionary grows,
    /// constants re-resolve, novel ids enter the agreement indices).
    FreshValue { tuple: usize, attr_pick: usize },
    /// An explicit mid-sequence refresh checkpoint.
    Refresh,
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..64usize, 0..3usize).prop_map(|(pick, verdict)| Op::Feedback { pick, verdict }),
        (0..ROWS.len(), 0..3usize, 0..ROWS.len()).prop_map(|(tuple, attr_pick, from)| {
            Op::ForceValue {
                tuple,
                attr_pick,
                from,
            }
        }),
        (0..ROWS.len(), 0..2usize)
            .prop_map(|(tuple, attr_pick)| Op::FreshValue { tuple, attr_pick }),
        Just(Op::Refresh),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn journal_driven_refresh_equals_full_walk(
        ops in proptest::collection::vec(op_strategy(), 1..28),
    ) {
        let mut state = build_state();
        assert_refresh_paths_agree(&mut state, 0);
        let mut fresh_counter = 0usize;

        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Feedback { pick, verdict } => {
                    let pending = state.possible_updates_sorted();
                    if pending.is_empty() {
                        continue;
                    }
                    let update = pending[pick % pending.len()].clone();
                    let feedback = match verdict % 3 {
                        0 => Feedback::Confirm,
                        1 => Feedback::Reject,
                        _ => Feedback::Retain,
                    };
                    state
                        .apply_feedback(&update, feedback)
                        .unwrap();
                }
                Op::ForceValue { tuple, attr_pick, from } => {
                    // Borrow a value already present elsewhere in the column
                    // so group merges (not just splits) are exercised.
                    let attr = [1, 2, 4][attr_pick % 3];
                    let value = state.table().cell(*from, attr).clone();
                    if state.table().cell(*tuple, attr) == &value {
                        continue;
                    }
                    state
                        .force_value(*tuple, attr, value)
                        .unwrap();
                }
                Op::FreshValue { tuple, attr_pick } => {
                    let attr = if attr_pick % 2 == 0 { 2 } else { 4 };
                    fresh_counter += 1;
                    let value = Value::from(format!("Fresh-{fresh_counter}"));
                    state
                        .apply_feedback(&Update::new(*tuple, attr, value, 1.0), Feedback::Confirm)
                        .unwrap();
                }
                Op::Refresh => {}
            }
            assert_refresh_paths_agree(&mut state, step + 1);
        }
        prop_assert!(state.invariants_hold());
    }
}

/// More rows for the initial-walk case: near-miss zips and city spellings
/// in the same agreement groups, so one group holds several current values
/// and candidates tie on score.
const WALK_ROWS: &[[&str; 5]] = &[
    ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46835"],
    ["H2", "Clinton St", "Fort Wayne", "IN", "46815"],
    ["H3", "Coliseum Blvd", "Fort Wayne", "IN", "46826"],
    ["H1", "Wabash St", "Michigan City", "MI", "46360"],
    ["H2", "Franklin St", "Michigan Cty", "IN", "46361"],
    ["H3", "Lincolnway", "Westville", "IN", "46390"],
    ["H1", "Main St", "Westvill", "IN", "46391"],
    ["H2", "Clinton St", "Fort Wayme", "IN", "46825"],
    ["H3", "Clinton St", "Fort Wayne", "IN", "46825"],
];

/// Algorithm 1 from scratch for one cell: every candidate of the three
/// scenarios, found by scanning the table and scored directly, with no memo
/// and no index.  The best is the highest score, ties going to the smaller
/// value.
fn reference_update(state: &RepairState, tuple: usize, attr: usize) -> Option<(Value, f64)> {
    let table = state.table();
    let current = table.cell(tuple, attr);
    let mut candidates: Vec<Value> = Vec::new();
    for rule_id in state.engine().violated_rules(tuple) {
        let rule = state.ruleset().rule(rule_id);
        if rule.rhs() == attr {
            if rule.is_constant() {
                candidates.extend(rule.rhs_pattern().as_const().cloned());
            } else {
                for partner in state.engine().conflict_partners(rule_id, tuple) {
                    candidates.push(table.cell(partner, attr).clone());
                }
            }
        } else if rule.lhs().contains(&attr) {
            for (&lhs_attr, pattern) in rule.lhs().iter().zip(rule.lhs_pattern()) {
                if lhs_attr == attr {
                    candidates.extend(pattern.as_const().cloned());
                }
            }
            let others: Vec<usize> = rule.attrs().into_iter().filter(|&a| a != attr).collect();
            for row in 0..table.len() {
                let agrees = others
                    .iter()
                    .all(|&a| table.cell(row, a) == table.cell(tuple, a));
                if agrees && !table.cell(row, attr).is_null() {
                    candidates.push(table.cell(row, attr).clone());
                }
            }
        }
    }
    candidates
        .into_iter()
        .filter(|value| value != current && !state.is_prevented((tuple, attr), value))
        .map(|value| (value_similarity(current, &value), value))
        .max_by(|(a, x), (b, y)| a.total_cmp(b).then(y.cmp(x)))
        .map(|(score, value)| (value, score))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The initial walk of `RepairState::new` memoises candidate pools, their
    /// best candidates and similarity scores across cells; per-cell
    /// `generate_update` starts from an empty memo.  Rerunning it on every
    /// dirty cell must reproduce the walk's suggestion bit for bit, intern
    /// nothing new, and leave the pending map unchanged.  Both must also
    /// match Algorithm 1 computed from scratch.
    #[test]
    fn memoised_initial_walk_equals_per_cell_generation(
        picks in proptest::collection::vec(0..ROWS.len() + WALK_ROWS.len(), 2..40),
    ) {
        let schema = schema();
        let mut table = Table::new("addr", schema.clone());
        for &pick in &picks {
            let row = ROWS.get(pick).unwrap_or_else(|| &WALK_ROWS[pick - ROWS.len()]);
            table.push_text_row(row).unwrap();
        }
        let walked = RepairState::new(table, &ruleset(&schema));
        let mut per_cell = walked.clone();
        for tuple in walked.dirty_tuples() {
            for attr in 0..schema.arity() {
                let fresh = per_cell.generate_update(tuple, attr);
                let memoised = walked.pending_update((tuple, attr));
                prop_assert_eq!(fresh.is_some(), memoised.is_some(), "cell {:?}", (tuple, attr));
                let reference = reference_update(&walked, tuple, attr);
                prop_assert_eq!(
                    memoised.map(|u| (u.value.clone(), u.score.to_bits())),
                    reference.map(|(value, score)| (value, score.to_bits())),
                    "cell {:?} against the reference",
                    (tuple, attr)
                );
                if let (Some(a), Some(b)) = (fresh, memoised) {
                    prop_assert_eq!(&a.value, &b.value, "cell {:?}", (tuple, attr));
                    prop_assert_eq!(a.value_id, b.value_id, "cell {:?}", (tuple, attr));
                    prop_assert_eq!(
                        a.score.to_bits(),
                        b.score.to_bits(),
                        "cell {:?}: score {} vs {}",
                        (tuple, attr),
                        a.score,
                        b.score
                    );
                }
            }
        }
        prop_assert_eq!(encode_to_vec(walked.table()), encode_to_vec(per_cell.table()));
        prop_assert_eq!(walked.possible_updates_sorted(), per_cell.possible_updates_sorted());
    }
}
