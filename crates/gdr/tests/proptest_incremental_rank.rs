//! Property test: the incremental VOI ranking (persistent group index plus
//! benefit cache, synced from the change journal) must agree *exactly* —
//! same groups, same order, bit-identical scores — with a from-scratch
//! ranking recomputed after every step, across arbitrary interleavings of
//! user feedback, learner decisions, suggestion refreshes, what-if probes,
//! and user-supplied brand-new values.

use gdr_cfd::{parser, RuleSet};
use gdr_core::{group_benefit, group_updates, single_update_benefit, UpdateGroup, VoiRanker};
use gdr_relation::{Schema, Table, Value};
use gdr_repair::{Feedback, RepairState, Update};
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
    let mut rules = ruleset(&schema);
    rules.weights_from_context(&table);
    RepairState::new(table, &rules)
}

/// The from-scratch reference: regroup everything, score every group with
/// Eq. 6 (`p̃_j` = update score), sort best-first with the deterministic
/// `(attr, value)` tie-break.
fn scratch_ranking(state: &mut RepairState) -> Vec<(UpdateGroup, f64)> {
    let updates = state.possible_updates_sorted();
    let groups = group_updates(&updates);
    let mut scored: Vec<(UpdateGroup, f64)> = Vec::with_capacity(groups.len());
    for group in groups {
        let probabilities: Vec<f64> = group.updates.iter().map(|u| u.score).collect();
        let benefit = group_benefit(state, &group, &probabilities).unwrap();
        scored.push((group, benefit));
    }
    scored.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| (a.0.attr, &a.0.value).cmp(&(b.0.attr, &b.0.value)))
    });
    scored
}

fn assert_rankings_agree(state: &mut RepairState, ranker: &mut VoiRanker, step: usize) {
    ranker.sync(state);
    ranker
        .rescore_benefits(state, |_, u| u.score)
        .expect("incremental rescore");
    let incremental = ranker.ranking();
    let scratch = scratch_ranking(state);
    assert_eq!(
        incremental.len(),
        scratch.len(),
        "step {step}: group count diverged"
    );
    for (i, ((inc_group, inc_score), (ref_group, ref_score))) in
        incremental.iter().zip(&scratch).enumerate()
    {
        assert_eq!(
            inc_group, ref_group,
            "step {step}, rank {i}: group diverged"
        );
        assert_eq!(
            inc_score.to_bits(),
            ref_score.to_bits(),
            "step {step}, rank {i}: score diverged ({inc_score} vs {ref_score})"
        );
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Feedback on the k-th pending update, from the user or the learner.
    Feedback { pick: usize, verdict: usize },
    /// Regenerate/retire suggestions (step 9 of the GDR process).
    Refresh,
    /// The user types in a brand-new value for some cell.
    FreshValue { tuple: usize, attr_pick: usize },
    /// A side-effect-free what-if probe (must not perturb the caches).
    Probe { pick: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..64usize, 0..3usize).prop_map(|(pick, verdict)| Op::Feedback { pick, verdict }),
        Just(Op::Refresh),
        (0..ROWS.len(), 0..2usize)
            .prop_map(|(tuple, attr_pick)| Op::FreshValue { tuple, attr_pick }),
        (0..64usize).prop_map(|pick| Op::Probe { pick }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn incremental_ranking_equals_from_scratch(ops in proptest::collection::vec(op_strategy(), 1..24)) {
        let mut state = build_state();
        let mut ranker = VoiRanker::new();
        assert_rankings_agree(&mut state, &mut ranker, 0);
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
                    state.apply_feedback(&update, feedback).unwrap();
                }
                Op::Refresh => state.refresh_updates(),
                Op::FreshValue { tuple, attr_pick } => {
                    // Answers can introduce values never seen before: the
                    // dictionary grows, constants re-resolve, and the new
                    // value may seed future suggestions.
                    let attr = if attr_pick % 2 == 0 { 2 } else { 4 };
                    fresh_counter += 1;
                    let value = Value::from(format!("Fresh-{fresh_counter}"));
                    state
                        .apply_feedback(&Update::new(*tuple, attr, value, 1.0), Feedback::Confirm)
                        .unwrap();
                }
                Op::Probe { pick } => {
                    let pending = state.possible_updates_sorted();
                    if pending.is_empty() {
                        continue;
                    }
                    let update = pending[pick % pending.len()].clone();
                    let _ = single_update_benefit(&mut state, &update, 0.5).unwrap();
                }
            }
            assert_rankings_agree(&mut state, &mut ranker, step + 1);
        }
        prop_assert!(state.invariants_hold());
    }
}
