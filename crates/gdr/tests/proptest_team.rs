//! Serial-equivalence property for multi-reviewer sessions: for arbitrary
//! small dirty instances, conflict policies, lease TTLs, and reviewer
//! interleavings (including abandoned and released leases), the final engine
//! state must be **bit-identical** to replaying the recorded
//! [`TeamSession::resolutions`] log as a plain serial one-reviewer session
//! against a twin engine built from the same spec.

use gdr_cfd::{parser, RuleSet};
use gdr_core::step::{GdrEngine, WorkPlan};
use gdr_core::team::{ConflictPolicy, Resolution, TeamConfig, TeamPlan, TeamSession};
use gdr_core::{GdrConfig, SessionBuilder, Strategy};
use gdr_relation::{Schema, Table, Value};
use gdr_repair::Feedback;
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

const CLEAN_ROWS: &[[&str; 5]] = &[
    ["H1", "Franklin St", "Michigan City", "IN", "46360"],
    ["H2", "Wabash St", "Michigan City", "IN", "46360"],
    ["H1", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
    ["H2", "Coliseum Blvd", "Fort Wayne", "IN", "46825"],
    ["H3", "Clinton St", "Fort Wayne", "IN", "46825"],
    ["H1", "Colfax Ave", "Westville", "IN", "46391"],
    ["H2", "Main St", "Westville", "IN", "46391"],
    ["H3", "Valparaiso St", "Westville", "IN", "46391"],
];

fn corruption(attr: usize, pick: usize) -> &'static str {
    let pool: &[&str] = match attr {
        2 => &[
            "FT Wayne",
            "Michigan Cty",
            "Westvile",
            "Fort Wayne",
            "Westville",
        ],
        4 => &["46999", "46391", "46360", "46820"],
        _ => &["X"],
    };
    pool[pick % pool.len()]
}

fn instance(corruptions: &[(usize, usize, usize)]) -> (Table, Table, RuleSet) {
    let schema = schema();
    let mut clean = Table::new("clean", schema.clone());
    for row in CLEAN_ROWS {
        clean.push_text_row(row).unwrap();
    }
    let mut dirty = clean.snapshot("dirty");
    for &(row, attr_pick, value_pick) in corruptions {
        let row = row % dirty.len();
        let attr = if attr_pick % 2 == 0 { 2 } else { 4 };
        dirty
            .set_cell(row, attr, Value::from(corruption(attr, value_pick)))
            .unwrap();
    }
    let mut rules = ruleset(&schema);
    rules.weights_from_context(&dirty);
    (dirty, clean, rules)
}

fn build_engine(dirty: &Table, clean: &Table, rules: &RuleSet, strategy: Strategy) -> GdrEngine {
    SessionBuilder::new(dirty.clone(), rules)
        .strategy(strategy)
        .config(GdrConfig::fast())
        .ground_truth(clean.clone())
        .build()
}

/// Everything observable about an engine, with floats taken to bits.
fn fingerprint(engine: &GdrEngine) -> (Vec<(usize, u64, u64)>, usize, usize, String) {
    let checkpoints = engine
        .report()
        .map(|report| {
            report
                .checkpoints
                .iter()
                .map(|c| {
                    (
                        c.verifications,
                        c.loss.to_bits(),
                        c.improvement_pct.to_bits(),
                    )
                })
                .collect()
        })
        .unwrap_or_default();
    (
        checkpoints,
        engine.verifications(),
        engine.learner_decisions(),
        format!("{}", engine.state().table()),
    )
}

/// Runs the proptest-generated interleaving: each step picks a reviewer,
/// pulls work for them, and (depending on `action`) answers honestly or
/// dishonestly, supplies or skips, releases the lease, or abandons it
/// outright so the TTL has to reclaim it.
fn drive_schedule(team: &mut TeamSession, reviewers: &[String], schedule: &[(usize, usize)]) {
    for &(reviewer_pick, action) in schedule {
        let reviewer = &reviewers[reviewer_pick % reviewers.len()];
        match team.next_work_for(reviewer).expect("next_work_for") {
            TeamPlan::Ask { id, .. } => match action % 8 {
                0..=2 => team
                    .answer_as(reviewer, id, Feedback::Confirm)
                    .expect("answer confirm"),
                3 | 4 => team
                    .answer_as(reviewer, id, Feedback::Reject)
                    .expect("answer reject"),
                5 => team
                    .answer_as(reviewer, id, Feedback::Retain)
                    .expect("answer retain"),
                6 => {
                    team.release(reviewer, id).expect("release");
                }
                // Abandon the lease: the reviewer walks away and the item
                // comes back only once the lease ages out.
                _ => {}
            },
            TeamPlan::Fix { id, cell, .. } => match action % 6 {
                0 | 1 => team
                    .supply_as(reviewer, id, Value::from(corruption(cell.1, action)))
                    .expect("supply"),
                2 | 3 => team.skip_as(reviewer, id).expect("skip"),
                4 => {
                    team.release(reviewer, id).expect("release fix");
                }
                _ => {}
            },
            TeamPlan::Wait => {}
            TeamPlan::Done(_) => return,
        }
    }
}

/// Round-robins every reviewer with agreeable answers until the session
/// concludes on its own.  With `reviewers.len() >= required_answers()` every
/// policy can resolve every item, and each `Wait` ticks the logical clock so
/// abandoned leases from the random phase age out.
fn drive_to_done(team: &mut TeamSession, reviewers: &[String]) -> gdr_core::step::DoneReason {
    let mut guard = 0usize;
    loop {
        for reviewer in reviewers {
            guard += 1;
            assert!(guard < 20_000, "team session did not converge");
            match team.next_work_for(reviewer).expect("next_work_for") {
                TeamPlan::Ask { id, .. } => team
                    .answer_as(reviewer, id, Feedback::Confirm)
                    .expect("closing answer"),
                TeamPlan::Fix { id, .. } => team.skip_as(reviewer, id).expect("closing skip"),
                TeamPlan::Wait => {}
                TeamPlan::Done(reason) => return reason,
            }
        }
    }
}

/// Replays the applied-resolution log as a serial one-reviewer session: the
/// engine's own serving order must ask for exactly the recorded resolutions,
/// in order, with nothing left over.
fn serial_replay(twin: &mut GdrEngine, resolutions: &[Resolution]) {
    for resolution in resolutions {
        match twin.next_work().expect("serial next_work") {
            WorkPlan::AskUser { id, update, .. } => {
                let Resolution::Answer { cell, feedback } = resolution else {
                    panic!("serial order served an ask, log has {resolution:?}");
                };
                assert_eq!(update.cell(), *cell, "serial ask order diverged");
                twin.answer(id, *feedback).expect("serial answer");
            }
            WorkPlan::NeedsValue { cell: served } => match resolution {
                Resolution::Supply { cell, value } => {
                    assert_eq!(served, *cell, "serial supply order diverged");
                    twin.supply_value(*cell, value.clone())
                        .expect("serial supply");
                }
                Resolution::Skip { cell } => {
                    assert_eq!(served, *cell, "serial skip order diverged");
                    twin.skip_value(*cell).expect("serial skip");
                }
                Resolution::Answer { .. } => {
                    panic!("serial order served a fix, log has {resolution:?}")
                }
            },
            WorkPlan::Done(reason) => {
                panic!("serial engine concluded ({reason:?}) with resolutions left over")
            }
        }
    }
}

fn policy_from(pick: usize) -> ConflictPolicy {
    match pick % 4 {
        0 => ConflictPolicy::FirstWins,
        1 => ConflictPolicy::Majority { k: 2 },
        2 => ConflictPolicy::Majority { k: 3 },
        _ => ConflictPolicy::EscalateToNeedsValue,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline guarantee: any interleaving of N reviewers — conflicting
    /// answers, released leases, abandoned leases reclaimed by TTL expiry —
    /// lands on a final state bit-identical to *some* serial one-reviewer
    /// order, namely the recorded resolution log replayed verbatim.
    #[test]
    fn interleaved_team_equals_serial_replay_bit_for_bit(
        corruptions in proptest::collection::vec((0usize..8, 0usize..2, 0usize..5), 0..6),
        strategy_pick in 0usize..7,
        policy_pick in 0usize..4,
        extra_reviewers in 0usize..3,
        ttl in 1u64..12,
        schedule in proptest::collection::vec((0usize..4, 0usize..8), 0..40),
        finish_pick in 0usize..2,
    ) {
        let early_finish = finish_pick == 1;
        let policy = policy_from(policy_pick);
        let (dirty, clean, rules) = instance(&corruptions);
        let strategy = Strategy::ALL[strategy_pick % Strategy::ALL.len()];
        let reviewers: Vec<String> = (0..policy.required_answers() + extra_reviewers)
            .map(|i| format!("r{i}"))
            .collect();

        let engine = build_engine(&dirty, &clean, &rules, strategy);
        let mut team = TeamSession::new(engine, TeamConfig { policy, lease_ttl: ttl });
        drive_schedule(&mut team, &reviewers, &schedule);
        if early_finish {
            // Cut the session off mid-flight: unresolved answers and live
            // leases are dropped, so the engine saw exactly the resolution
            // log and nothing else.
            team.finish().expect("team finish");
        } else {
            drive_to_done(&mut team, &reviewers);
        }

        let mut twin = build_engine(&dirty, &clean, &rules, strategy);
        serial_replay(&mut twin, team.resolutions());
        if early_finish {
            twin.finish().expect("serial finish");
        } else {
            let plan = twin.next_work().expect("serial concluding pull");
            prop_assert!(
                matches!(plan, WorkPlan::Done(_)),
                "serial replay did not conclude: {plan:?}"
            );
        }

        prop_assert_eq!(fingerprint(team.engine()), fingerprint(&twin));
    }

    /// Duplicate deliveries of an already-resolved answer are absorbed by the
    /// stale-work contract without perturbing the coordinator or the engine.
    #[test]
    fn duplicate_answers_are_absorbed(
        corruptions in proptest::collection::vec((0usize..8, 0usize..2, 0usize..5), 1..6),
        policy_pick in 0usize..4,
    ) {
        let policy = policy_from(policy_pick);
        let (dirty, clean, rules) = instance(&corruptions);
        let engine = build_engine(&dirty, &clean, &rules, Strategy::GdrNoLearning);
        let mut team = TeamSession::new(engine, TeamConfig { policy, lease_ttl: 32 });

        if let TeamPlan::Ask { id, .. } = team.next_work_for("r0").expect("lease") {
            team.answer_as("r0", id, Feedback::Confirm).expect("answer");
            let before = (fingerprint(team.engine()), team.to_snapshot_bytes());
            let dup = team.answer_as("r0", id, Feedback::Reject);
            prop_assert!(dup.is_err(), "duplicate answer must be rejected");
            prop_assert_eq!(before, (fingerprint(team.engine()), team.to_snapshot_bytes()));
        }
    }
}
