//! Snapshot codec round-trip property: at **every** event boundary of an
//! arbitrary multi-reviewer schedule — mid-lease, mid-conflict, after
//! releases and abandoned leases — serialising the session and decoding it
//! back must be lossless three ways over:
//!
//! 1. re-encoding the decoded session reproduces the original bytes
//!    bit-for-bit (the codec is canonical, not merely faithful);
//! 2. the decoded session's engine fingerprint and coordinator digest equal
//!    the original's;
//! 3. the decoded session, driven to completion, lands on the same final
//!    state as the original driven the same way — a snapshot is a full
//!    substitute for the live session, not just a lookalike.

use gdr_cfd::{parser, RuleSet};
use gdr_core::step::GdrEngine;
use gdr_core::team::{ConflictPolicy, TeamConfig, TeamPlan, TeamSession};
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

/// One schedule step: pull for a reviewer and act on what was served.
/// Mirrors `proptest_team`'s step mix (honest/dishonest answers, releases,
/// abandoned leases) so boundaries cover every coordinator sub-state.
fn drive_step(team: &mut TeamSession, reviewer: &str, action: usize) -> bool {
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
        TeamPlan::Done(_) => return false,
    }
    true
}

/// Round-robins agreeable answers until the session concludes.
fn drive_to_done(team: &mut TeamSession, reviewers: &[String]) {
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
                TeamPlan::Done(_) => return,
            }
        }
    }
}

/// Snapshot, decode, and check all three lossless-ness clauses at one
/// boundary.  Returns the decoded twin for continuation checks.
fn round_trip_at_boundary(team: &TeamSession, boundary: usize) -> TeamSession {
    let bytes = team.to_snapshot_bytes();
    let restored = TeamSession::from_snapshot_bytes(&bytes)
        .unwrap_or_else(|e| panic!("boundary {boundary}: snapshot did not decode: {e}"));
    assert_eq!(
        restored.to_snapshot_bytes(),
        bytes,
        "boundary {boundary}: re-encoded snapshot is not byte-identical"
    );
    assert_eq!(
        restored.to_snapshot_bytes(),
        team.to_snapshot_bytes(),
        "boundary {boundary}: coordinator state diverged"
    );
    assert_eq!(
        fingerprint(restored.engine()),
        fingerprint(team.engine()),
        "boundary {boundary}: engine fingerprint diverged"
    );
    restored
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole property: a session snapshot taken at ANY event boundary
    /// is a lossless, canonical, continuable copy of the live session.
    #[test]
    fn snapshot_round_trips_bit_identically_at_every_boundary(
        corruptions in proptest::collection::vec((0usize..8, 0usize..2, 0usize..5), 0..6),
        strategy_pick in 0usize..7,
        policy_pick in 0usize..4,
        ttl in 1u64..12,
        schedule in proptest::collection::vec((0usize..3, 0usize..8), 0..24),
    ) {
        let policy = match policy_pick % 4 {
            0 => ConflictPolicy::FirstWins,
            1 => ConflictPolicy::Majority { k: 2 },
            2 => ConflictPolicy::Majority { k: 3 },
            _ => ConflictPolicy::EscalateToNeedsValue,
        };
        let (dirty, clean, rules) = instance(&corruptions);
        let strategy = Strategy::ALL[strategy_pick % Strategy::ALL.len()];
        let reviewers: Vec<String> = (0..policy.required_answers().max(3))
            .map(|i| format!("r{i}"))
            .collect();

        let engine = build_engine(&dirty, &clean, &rules, strategy);
        let mut team = TeamSession::new(engine, TeamConfig { policy, lease_ttl: ttl });

        // Boundary 0: the freshly built session, before any verb.
        let mut restored = round_trip_at_boundary(&team, 0);
        for (boundary, &(reviewer_pick, action)) in schedule.iter().enumerate() {
            let reviewer = reviewers[reviewer_pick % reviewers.len()].clone();
            if !drive_step(&mut team, &reviewer, action) {
                break;
            }
            restored = round_trip_at_boundary(&team, boundary + 1);
        }

        // The last decoded twin is a full substitute for the live session:
        // both driven to completion the same way end bit-identical.
        drive_to_done(&mut team, &reviewers);
        drive_to_done(&mut restored, &reviewers);
        prop_assert_eq!(fingerprint(team.engine()), fingerprint(restored.engine()));
        prop_assert_eq!(team.to_snapshot_bytes(), restored.to_snapshot_bytes());
    }
}
