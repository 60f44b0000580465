//! Workload inputs, generated from the run's seed.
//!
//! The server only ever sees what a real client would send: the dirty table
//! as CSV and the rules in the `gdr_cfd::parser` line syntax.  The clean
//! table stays on the client side, where it plays the reviewer.

use gdr_cfd::parser::{parse_rules, rule_to_line};
use gdr_cfd::RuleSet;
use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_core::step::{SessionBuilder, WorkPlan};
use gdr_core::strategy::Strategy;
use gdr_core::team::ConflictPolicy;
use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};
use gdr_relation::csv::{parse_csv, to_csv};
use gdr_relation::Table;
use gdr_serve::wire::Request;

/// The reviewers of every team session (two, under `FirstWins`).
pub const REVIEWERS: [&str; 2] = ["ada", "grace"];

/// One session a workload opens.
#[derive(Debug, Clone)]
pub struct SessionInput {
    /// Session id on the wire.
    pub id: String,
    /// The dirty instance, as sent in `open`.
    pub table_csv: String,
    /// The rules, one `rule_to_line` line each.
    pub rules: String,
    /// Ground truth the simulated reviewer answers from (never sent).
    pub clean: Table,
    /// Rows of the table.
    pub rows: usize,
    /// Two reviewers (`lease`/`answer_as`, `GdrNoLearning`) instead of one
    /// (`next`/`answer`, `Gdr`).
    pub team: bool,
    /// Answers the reviewers give before the review phase stops.
    pub budget: usize,
}

impl SessionInput {
    /// A hospital table of `rows` rows (`HospitalConfig::at_scale`) from
    /// `seed`.
    pub fn hospital(id: String, rows: usize, seed: u64, team: bool, budget: usize) -> Self {
        let config = HospitalConfig {
            seed,
            ..HospitalConfig::at_scale(rows)
        };
        let data = generate_hospital_dataset(&config);
        let schema = data.dirty.schema();
        let rules = data
            .rules
            .rules()
            .iter()
            .map(|rule| rule_to_line(schema, rule) + "\n")
            .collect();
        SessionInput {
            id,
            table_csv: to_csv(&data.dirty),
            rules,
            clean: data.clean,
            rows,
            team,
            budget,
        }
    }

    /// How many answers a single simulated reviewer can give a fresh
    /// session before it concludes, counted up to `limit`.
    fn length(&self, limit: usize) -> usize {
        let dirty = parse_csv("dirty", &self.table_csv).expect("generated CSV parses");
        let rules = parse_rules(dirty.schema(), &self.rules).expect("generated rules parse");
        let rules = RuleSet::new(rules);
        let mut engine = SessionBuilder::new(dirty, &rules)
            .strategy(self.strategy())
            .build();
        let oracle = GroundTruthOracle::new(self.clean.clone());
        for answered in 0..limit {
            let step = match engine.next_work() {
                Ok(WorkPlan::AskUser { id, update, .. }) => {
                    let current = engine
                        .state()
                        .table()
                        .cell(update.tuple, update.attr)
                        .clone();
                    engine.answer(id, oracle.feedback(&update, &current))
                }
                Ok(WorkPlan::NeedsValue { cell }) => {
                    let current = engine.state().table().cell(cell.0, cell.1);
                    match oracle.correct_value(cell.0, cell.1) {
                        Some(value) if value != *current => engine.supply_value(cell, value),
                        _ => engine.skip_value(cell),
                    }
                }
                Ok(WorkPlan::Done(_)) | Err(_) => return answered,
            };
            if step.is_err() {
                return answered;
            }
        }
        limit
    }

    /// The session's repair strategy.
    pub fn strategy(&self) -> Strategy {
        if self.team {
            Strategy::GdrNoLearning
        } else {
            Strategy::Gdr
        }
    }

    /// The `open` request a client sends for this session.
    pub fn open_request(&self) -> Request {
        Request::Open {
            session: self.id.clone(),
            table_csv: self.table_csv.clone(),
            rules: self.rules.clone(),
            strategy: self.strategy(),
            seed: None,
            ground_truth_csv: None,
            policy: self.team.then_some(ConflictPolicy::FirstWins),
            lease_ttl: None,
        }
    }

    /// Reviewer names driving this session.
    pub fn reviewers(&self) -> &'static [&'static str] {
        if self.team {
            &REVIEWERS
        } else {
            &REVIEWERS[..1]
        }
    }
}

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// One `Gdr` reviewer on one durable session, closed loop.
    SoloReview,
    /// Many small two-reviewer sessions, pipelined over two connections.
    TeamFleet,
    /// A recorded durable root, recovered after SIGKILL again and again.
    ColdRestart,
}

impl Workload {
    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        match name {
            "solo_review" => Some(Workload::SoloReview),
            "team_fleet" => Some(Workload::TeamFleet),
            "cold_restart" => Some(Workload::ColdRestart),
            _ => None,
        }
    }

    /// Measurement cycles a run makes at least, whatever `--seconds` says.
    pub fn min_cycles(self, tiny: bool) -> usize {
        match (self, tiny) {
            (_, true) => 1,
            (Workload::SoloReview, false) => 4,
            (Workload::TeamFleet, false) => 2,
            (Workload::ColdRestart, false) => 6,
        }
    }

    /// The workload's name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::SoloReview => "solo_review",
            Workload::TeamFleet => "team_fleet",
            Workload::ColdRestart => "cold_restart",
        }
    }
}

/// Sizes of a workload (full or the smoke-test size).
#[derive(Debug, Clone)]
pub struct Plan {
    /// The sessions, in open order.
    pub sessions: Vec<SessionInput>,
    /// Connections the review load is spread over.
    pub connections: usize,
    /// Answers per team session after each cold restart (`cold_restart`
    /// only).
    pub post_budget: usize,
}

/// Derives a per-session dataset seed from the run seed.
fn session_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_mul(1_000_003).wrapping_add(index)
}

/// The first table among the session's candidate seeds on which a review
/// of `need` answers does not run out of questions, so every run reviews
/// its full budget and every restart finds a question outstanding.
fn long_enough(
    id: String,
    rows: usize,
    seed: u64,
    index: u64,
    team: bool,
    budget: usize,
    need: usize,
) -> SessionInput {
    (0..64)
        .map(|k| {
            let seed = session_seed(seed, index * 1000 + k);
            SessionInput::hospital(id.clone(), rows, seed, team, budget)
        })
        .find(|input| input.length(need) >= need)
        .unwrap_or_else(|| panic!("no candidate table for {id} lasts {need} answers"))
}

/// Builds the inputs of `workload` from `seed` for one of a run's
/// `variant`s (each measured cycle, or each recorded root, draws its own
/// tables, so a run averages over several datasets); `tiny` shrinks every
/// size for the smoke test.
pub fn plan(workload: Workload, seed: u64, variant: u64, tiny: bool) -> Plan {
    let seed = session_seed(seed, variant.wrapping_mul(1 << 32));
    let scale = |full: usize, small: usize| if tiny { small } else { full };
    let post_budget = scale(250, 5);
    // Solo sessions need one question beyond the budget; team sessions
    // answer with two reviewers, so leave them a margin.
    let solo = |index: u64, budget: usize, post: usize| {
        let id = format!("solo-{index}");
        long_enough(
            id,
            scale(2000, 300),
            seed,
            index,
            false,
            budget,
            budget + post + 1,
        )
    };
    let team = |index: u64, budget: usize, post: usize| {
        let id = format!("team-{index:02}");
        let need = (budget + post) * 5 / 4 + 2;
        long_enough(id, scale(1000, 200), seed, index, true, budget, need)
    };
    match workload {
        Workload::SoloReview => Plan {
            sessions: vec![solo(0, scale(1000, 30), 0)],
            connections: 1,
            post_budget: 0,
        },
        Workload::TeamFleet => Plan {
            sessions: (0..scale(32, 3) as u64)
                .map(|i| team(i, scale(250, 10), 0))
                .collect(),
            connections: 2,
            post_budget: 0,
        },
        Workload::ColdRestart => {
            // After a restart only the team sessions review further: their
            // waits depend least on the dataset.
            let mut sessions = vec![solo(0, scale(150, 20), 0)];
            sessions.extend((1..=scale(4, 2) as u64).map(|i| team(i, scale(40, 10), post_budget)));
            Plan {
                sessions,
                connections: 1,
                post_budget,
            }
        }
    }
}
