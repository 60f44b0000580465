//! The correctness gate: an in-process twin of every session.
//!
//! The twin builds the same engine from the same CSV and rule text the
//! server received and replays the lane's requests in the order the client
//! sent them, through `TeamSession` / `GdrEngine` directly — no store, no
//! journal, no wire.  Every reply the server gave must match the twin's:
//! the served work sequence, the acks, the `report` counters, and the
//! questions re-served after a restart.

use std::time::{Duration, Instant};

use gdr_cfd::{parser::parse_rules, RuleSet};
use gdr_core::error::GdrError;
use gdr_core::step::{GdrEngine, SessionBuilder, WorkId, WorkPlan};
use gdr_core::team::{TeamConfig, TeamPlan, TeamSession};
use gdr_relation::csv::parse_csv;
use gdr_serve::wire::{Request, Response};

use crate::drive::{key, Lane};
use crate::inputs::SessionInput;

/// One twin session, mirroring the store's pull bookkeeping.
#[derive(Clone)]
pub struct Twin {
    /// The coordinator and its engine.
    pub team: TeamSession,
    outstanding: bool,
    opened: Response,
}

/// Setup costs of one twin build, by step.
#[derive(Debug, Clone, Copy, Default)]
pub struct BuildTimes {
    /// `parse_csv` of the table.
    pub parse_csv: Duration,
    /// `parse_rules` of the rule text.
    pub parse_rules: Duration,
    /// `SessionBuilder::build` plus `TeamSession::new`.
    pub build: Duration,
}

impl Twin {
    /// Builds the twin from the inputs the server was sent.
    pub fn open(input: &SessionInput) -> Result<(Twin, BuildTimes), String> {
        let started = Instant::now();
        let dirty = parse_csv("dirty", &input.table_csv).map_err(|e| e.to_string())?;
        let parsed = started.elapsed();
        let started = Instant::now();
        let rules =
            RuleSet::new(parse_rules(dirty.schema(), &input.rules).map_err(|e| e.to_string())?);
        let ruled = started.elapsed();
        let started = Instant::now();
        let engine = SessionBuilder::new(dirty, &rules)
            .strategy(input.strategy())
            .build();
        let team = TeamSession::new(engine, TeamConfig::default());
        let built = started.elapsed();
        let opened = Response::Opened {
            session: input.id.clone(),
            dirty_tuples: team.engine().state().dirty_tuples().len(),
        };
        Ok((
            Twin {
                team,
                outstanding: false,
                opened,
            },
            BuildTimes {
                parse_csv: parsed,
                parse_rules: ruled,
                build: built,
            },
        ))
    }

    /// A team verb's engine pull, as the store makes it before the verb.
    fn sync_pull(&mut self) -> Result<(), GdrError> {
        if !self.outstanding && self.team.engine().done().is_none() {
            self.team.engine_mut().next_work()?;
            self.outstanding = self.team.engine().done().is_none();
        }
        Ok(())
    }

    /// Applies one request; the reply carries the fields `key` compares.
    pub fn apply(&mut self, request: &Request) -> Result<Response, GdrError> {
        let verifications = |twin: &Twin| twin.team.engine().verifications();
        Ok(match request {
            Request::Open { .. } => self.opened.clone(),
            Request::Next { .. } => {
                let plan = self.team.engine_mut().next_work()?;
                self.outstanding = !matches!(plan, WorkPlan::Done(_));
                plan_reply(self.team.engine(), plan)
            }
            Request::Answer { id, feedback, .. } => {
                self.team
                    .engine_mut()
                    .answer(WorkId::from_raw(*id), *feedback)?;
                self.outstanding = false;
                Response::Answered {
                    verifications: verifications(self),
                }
            }
            Request::Supply {
                tuple, attr, value, ..
            } => {
                self.team
                    .engine_mut()
                    .supply_value((*tuple, *attr), value.clone())?;
                self.outstanding = false;
                Response::Supplied {
                    verifications: verifications(self),
                }
            }
            Request::Skip { tuple, attr, .. } => {
                self.team.engine_mut().skip_value((*tuple, *attr))?;
                self.outstanding = false;
                Response::Skipped
            }
            Request::Report { .. } => {
                let engine = self.team.engine();
                Response::Report {
                    verifications: engine.verifications(),
                    learner_decisions: engine.learner_decisions(),
                    dirty_tuples: engine.state().dirty_tuples().len(),
                    eval: None,
                }
            }
            Request::Lease { reviewer, .. } => {
                self.sync_pull()?;
                let plan = self.team.next_work_for(reviewer)?;
                self.outstanding = !matches!(plan, TeamPlan::Done(_));
                team_reply(self.team.engine(), plan)
            }
            Request::AnswerAs {
                reviewer,
                id,
                feedback,
                ..
            } => {
                self.sync_pull()?;
                self.team
                    .answer_as(reviewer, WorkId::from_raw(*id), *feedback)?;
                self.outstanding = self.team.engine().done().is_none();
                Response::Answered {
                    verifications: verifications(self),
                }
            }
            Request::SupplyAs {
                reviewer,
                id,
                value,
                ..
            } => {
                self.sync_pull()?;
                self.team
                    .supply_as(reviewer, WorkId::from_raw(*id), value.clone())?;
                self.outstanding = self.team.engine().done().is_none();
                Response::Supplied {
                    verifications: verifications(self),
                }
            }
            Request::SkipAs { reviewer, id, .. } => {
                self.sync_pull()?;
                self.team.skip_as(reviewer, WorkId::from_raw(*id))?;
                self.outstanding = self.team.engine().done().is_none();
                Response::Skipped
            }
            other => {
                return Err(GdrError::Journal {
                    detail: format!("the twin does not model {other:?}"),
                })
            }
        })
    }
}

fn current(engine: &GdrEngine, tuple: usize, attr: usize) -> gdr_relation::Value {
    engine.state().table().cell(tuple, attr).clone()
}

/// A `next` reply for `plan` (the fields `key` compares).
pub fn plan_reply(engine: &GdrEngine, plan: WorkPlan) -> Response {
    match plan {
        WorkPlan::AskUser { id, update, .. } => Response::Ask {
            id: id.raw(),
            tuple: update.tuple,
            attr: update.attr,
            current: current(engine, update.tuple, update.attr),
            value: update.value,
            score: update.score,
            uncertainty: 0.0,
            group: None,
        },
        WorkPlan::NeedsValue { cell } => Response::NeedValue {
            tuple: cell.0,
            attr: cell.1,
            current: current(engine, cell.0, cell.1),
        },
        WorkPlan::Done(reason) => Response::Done { reason },
    }
}

/// A `lease` reply for `plan`.
pub fn team_reply(engine: &GdrEngine, plan: TeamPlan) -> Response {
    match plan {
        TeamPlan::Ask { id, update } => Response::Leased {
            id: id.raw(),
            tuple: update.tuple,
            attr: update.attr,
            current: current(engine, update.tuple, update.attr),
            value: update.value,
            score: update.score,
        },
        TeamPlan::Fix { id, cell, current } => Response::Fix {
            id: id.raw(),
            tuple: cell.0,
            attr: cell.1,
            current,
        },
        TeamPlan::Wait => Response::Wait,
        TeamPlan::Done(reason) => Response::Done { reason },
    }
}

/// Replays a lane's log through a fresh twin; the first reply that
/// differs from the server's fails the gate.
pub fn check(lane: &Lane) -> Result<(), String> {
    if let Some(reason) = &lane.broken {
        return Err(format!("{}: {reason}", lane.input.id));
    }
    let (mut twin, _) = Twin::open(&lane.input)?;
    for (index, exchange) in lane.log.iter().enumerate() {
        let expected = twin
            .apply(&exchange.request)
            .map_err(|err| format!("{}: twin rejected exchange {index}: {err}", lane.input.id))?;
        if key(&expected) != key(&exchange.response) {
            return Err(format!(
                "{}: exchange {index} ({:?}): server replied {}, twin {}",
                lane.input.id,
                exchange.request,
                key(&exchange.response),
                key(&expected)
            ));
        }
    }
    Ok(())
}
