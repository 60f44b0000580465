//! Property test: a [`RepairState`] built with any worker count must be
//! **bit-identical** to the sequential oracle — same dictionary order (the
//! interner assigns the same `ValueId` to the same value), same violation
//! statistics and generation stamps, same agreement-group membership, same
//! `PossibleUpdates` (cells, values, and scores compared via `f64::to_bits`),
//! and the same construction delta.
//!
//! The equivalence must survive mutation: after applying an identical random
//! op sequence (feedback, forced values, novel user values) to every state
//! and running the retained full-walk refresh, all worker counts must still
//! agree cell for cell.
//!
//! After mutation the comparison goes through `possible_updates_sorted`:
//! the `PossibleUpdates` map is what every worker count must agree on.

use gdr_cfd::{parser, RuleSet};
use gdr_relation::{Schema, Table, ThreadPool, Value};
use gdr_repair::{ChangeSource, Feedback, RepairState, Update};
use proptest::prelude::*;

/// Worker counts pinned against the sequential oracle (1 must also take the
/// pool code path and still match `RepairState::new` exactly).
const WORKER_COUNTS: &[usize] = &[1, 2, 3, 4, 8];

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

/// Row pool the proptest draws tables from: conflicting spellings, wrong
/// zips, and clean rows, so generated tables mix scenario-1/2/3 candidates.
const ROW_POOL: &[[&str; 5]] = &[
    ["H1", "Franklin St", "Michigan Cty", "IN", "46360"],
    ["H2", "Wabash St", "Michigan City", "IN", "46360"],
    ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
    ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46999"],
    ["H3", "Clinton St", "FT Wayne", "IN", "46825"],
    ["H1", "Colfax Ave", "Westville", "IN", "46391"],
    ["H2", "Main St", "Westvile", "IN", "46391"],
    ["H3", "Valparaiso St", "Westville", "IN", "46360"],
    ["H1", "Lincolnway", "Michigan City", "IN", "46360"],
    ["H3", "Wabash St", "Michigan City", "MI", "46360"],
];

fn table_from(picks: &[usize]) -> Table {
    let mut table = Table::new("addr", schema());
    for &pick in picks {
        table
            .push_text_row(&ROW_POOL[pick % ROW_POOL.len()])
            .unwrap();
    }
    table
}

/// Asserts that `par` is bit-identical to the sequential oracle `seq` in
/// every observable the parallel paths could plausibly perturb.
fn assert_bit_identical(seq: &RepairState, par: &RepairState, label: &str) {
    // Interner order: the same ValueId must decode to the same value.
    let arity = seq.table().schema().arity();
    for attr in 0..arity {
        assert_eq!(
            seq.table().dict_values(attr),
            par.table().dict_values(attr),
            "{label}: dictionary order diverged on attr {attr}"
        );
    }

    // Violation state: dirty set, per-rule statistics, generation stamps,
    // and agreement-group membership for every (rule, dirty tuple) pair.
    assert_eq!(seq.dirty_tuples(), par.dirty_tuples(), "{label}: dirty set");
    for rule in 0..seq.ruleset().len() {
        assert_eq!(
            seq.rule_stats(rule),
            par.rule_stats(rule),
            "{label}: stats of rule {rule}"
        );
        assert_eq!(
            seq.stats_generation(rule),
            par.stats_generation(rule),
            "{label}: stats generation of rule {rule}"
        );
        for tuple in seq.dirty_tuples() {
            assert_eq!(
                seq.engine().agreement_group(rule, tuple),
                par.engine().agreement_group(rule, tuple),
                "{label}: group of tuple {tuple} under rule {rule}"
            );
        }
    }
    for tuple in 0..seq.table().len() {
        assert_eq!(
            seq.row_generation(tuple),
            par.row_generation(tuple),
            "{label}: row generation of tuple {tuple}"
        );
    }

    // Suggested updates: same cells, same values, bit-identical scores.
    let a: Vec<Update> = seq.possible_updates_sorted();
    let b: Vec<Update> = par.possible_updates_sorted();
    assert_eq!(a.len(), b.len(), "{label}: pending counts diverged");
    for (x, y) in a.iter().zip(&b) {
        assert_eq!(x.cell(), y.cell(), "{label}: cells diverged");
        assert_eq!(
            x.value,
            y.value,
            "{label}, cell {:?}: values diverged",
            x.cell()
        );
        assert_eq!(
            x.score.to_bits(),
            y.score.to_bits(),
            "{label}, cell {:?}: score diverged ({} vs {})",
            x.cell(),
            x.score,
            y.score
        );
    }
}

#[derive(Debug, Clone)]
enum Op {
    /// Feedback on the k-th pending update (confirm / reject / retain).
    Feedback { pick: usize, verdict: usize },
    /// Out-of-band write copying a value from another row of the column.
    ForceValue {
        tuple: usize,
        attr_pick: usize,
        from: usize,
    },
    /// A brand-new user value (dictionary grows on every state in lockstep).
    FreshValue { tuple: usize, attr_pick: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..64usize, 0..3usize).prop_map(|(pick, verdict)| Op::Feedback { pick, verdict }),
        (0..24usize, 0..3usize, 0..24usize).prop_map(|(tuple, attr_pick, from)| {
            Op::ForceValue {
                tuple,
                attr_pick,
                from,
            }
        }),
        (0..24usize, 0..2usize).prop_map(|(tuple, attr_pick)| Op::FreshValue { tuple, attr_pick }),
    ]
}

/// Applies one op to a state.  Ops are resolved against each state's *own*
/// pending list / table, which prior assertions have pinned identical, so
/// every state performs the same concrete mutation.
fn apply_op(state: &mut RepairState, op: &Op, fresh_counter: usize) {
    let rows = state.table().len();
    match op {
        Op::Feedback { pick, verdict } => {
            let pending = state.possible_updates_sorted();
            if pending.is_empty() {
                return;
            }
            let update = pending[pick % pending.len()].clone();
            let feedback = match verdict % 3 {
                0 => Feedback::Confirm,
                1 => Feedback::Reject,
                _ => Feedback::Retain,
            };
            state
                .apply_feedback(&update, feedback, ChangeSource::UserConfirmed)
                .unwrap();
        }
        Op::ForceValue {
            tuple,
            attr_pick,
            from,
        } => {
            let attr = [1, 2, 4][attr_pick % 3];
            let (tuple, from) = (tuple % rows, from % rows);
            let value = state.table().cell(from, attr).clone();
            if state.table().cell(tuple, attr) == &value {
                return;
            }
            state
                .force_value(tuple, attr, value, ChangeSource::Heuristic)
                .unwrap();
        }
        Op::FreshValue { tuple, attr_pick } => {
            let attr = if attr_pick % 2 == 0 { 2 } else { 4 };
            let value = Value::from(format!("Fresh-{fresh_counter}"));
            state.apply_user_value(tuple % rows, attr, value).unwrap();
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn parallel_states_are_bit_identical_to_sequential(
        picks in proptest::collection::vec(0..ROW_POOL.len(), 2..24),
        ops in proptest::collection::vec(op_strategy(), 0..10),
    ) {
        let rules = ruleset(&schema());
        let seq = RepairState::new(table_from(&picks), &rules);

        // The construction delta is deterministic (every suggestion is
        // recorded against an empty cell), so even it must match across
        // worker counts.
        let seq_delta = seq.suggestion_delta().clone();

        let mut states: Vec<(usize, RepairState)> = Vec::new();
        for &workers in WORKER_COUNTS {
            let par = RepairState::with_parallelism(
                table_from(&picks),
                &rules,
                ThreadPool::new(workers),
            );
            prop_assert_eq!(par.parallelism(), workers);
            assert_bit_identical(&seq, &par, &format!("build with {workers} workers"));
            assert_eq!(
                &seq_delta,
                par.suggestion_delta(),
                "construction delta diverged with {workers} workers"
            );
            states.push((workers, par));
        }

        // Mutate every state identically, then force the retained full-walk
        // refresh (the parallel four-phase path) and re-compare.
        let mut seq = seq;
        for (step, op) in ops.iter().enumerate() {
            apply_op(&mut seq, op, step);
            for (_, par) in &mut states {
                apply_op(par, op, step);
            }
        }
        seq.refresh_updates_full();
        prop_assert!(seq.invariants_hold());
        for (workers, par) in &mut states {
            par.refresh_updates_full();
            assert_bit_identical(
                &seq,
                par,
                &format!("full refresh with {workers} workers after {} ops", ops.len()),
            );
            prop_assert!(par.invariants_hold());
        }
    }
}
