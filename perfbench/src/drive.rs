//! Simulated reviewers driving sessions over loopback connections.
//!
//! Every session is a *lane* with at most one request in flight, so the
//! order in which its requests reach the server is fixed by the client and
//! an in-process twin can replay it exactly.  A solo lane loops
//! `answer` → `next`; a team lane gives its two reviewers turns, each
//! `answer_as` → `lease`, while both hold leases at once.

use std::collections::HashMap;
use std::io;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use gdr_core::oracle::{GroundTruthOracle, UserOracle};
use gdr_repair::Update;
use gdr_serve::wire::{Request, Response, WireError};

use crate::conn::Conn;
use crate::inputs::SessionInput;

/// Which part of a run an exchange belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// `open` and the first question of every reviewer.
    Setup,
    /// The reviewers answering under their budget.
    Review,
    /// `report` after a review.
    Report,
    /// Re-serving the outstanding questions after a restart.
    Reserve,
}

/// One request and its reply, as the client saw them.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// What was sent.
    pub request: Request,
    /// What came back.
    pub response: Response,
    /// Encode start → reply decoded.
    pub rtt: Duration,
    /// Client-side encode plus decode time.
    pub client_codec: Duration,
    /// Client time on the connection between its previous send or receive
    /// and this request (zero for a connection's first request).
    pub gap: Duration,
    /// The run phase.
    pub phase: Phase,
    /// Server restarts before this exchange.
    pub restarts: u32,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// An answer verb; its ack is followed by the reviewer's next pull.
    Ack,
    /// A pull (`next` / `lease`); its reply is the next question.
    Plan,
}

#[derive(Debug, Clone)]
struct Pending {
    request: Request,
    reviewer: usize,
    kind: Kind,
    sent: Instant,
    gap: Duration,
    encode: Duration,
}

/// One session being driven.
#[derive(Clone)]
pub struct Lane {
    /// The session's inputs.
    pub input: Arc<SessionInput>,
    oracle: GroundTruthOracle,
    /// Every exchange so far, in send order.
    pub log: Vec<Exchange>,
    /// The question each reviewer holds unanswered.
    pub holding: Vec<Option<Response>>,
    /// The last reply to each reviewer's pull (a question, `wait` or
    /// `done`).
    last_plan: Vec<Option<Response>>,
    retired: Vec<bool>,
    turn: usize,
    /// Answers given so far.
    pub answers: usize,
    /// Answers after which the review phase stops.
    pub budget: usize,
    pending: Option<Pending>,
    wait_started: Option<(Instant, usize)>,
    /// Answer sent → next question received, per answer of the review.
    pub waits: Vec<Duration>,
    /// The log indices of each wait's first and last exchange.
    pub wait_spans: Vec<(usize, usize)>,
    /// Requests sent (including `busy` re-sends).
    pub attempted: usize,
    /// Requests refused with `busy` or answered with an error.
    pub failed: usize,
    /// Why the lane stopped early, if it did.
    pub broken: Option<String>,
    phase: Phase,
    restarts: u32,
}

impl Lane {
    /// A lane for `input`, budgeted at the input's own budget.
    pub fn new(input: Arc<SessionInput>) -> Lane {
        let reviewers = input.reviewers().len();
        Lane {
            oracle: GroundTruthOracle::new(input.clean.clone()),
            budget: input.budget,
            input,
            log: Vec::new(),
            holding: vec![None; reviewers],
            last_plan: vec![None; reviewers],
            retired: vec![false; reviewers],
            turn: 0,
            answers: 0,
            pending: None,
            wait_started: None,
            waits: Vec::new(),
            wait_spans: Vec::new(),
            attempted: 0,
            failed: 0,
            broken: None,
            phase: Phase::Setup,
            restarts: 0,
        }
    }

    /// Notes a server restart: later exchanges belong to the new server.
    pub fn restarted(&mut self) {
        self.restarts += 1;
    }

    fn session(&self) -> String {
        self.input.id.clone()
    }

    fn pull(&self, reviewer: usize) -> Request {
        if self.input.team {
            Request::Lease {
                session: self.session(),
                reviewer: self.input.reviewers()[reviewer].to_string(),
            }
        } else {
            Request::Next {
                session: self.session(),
            }
        }
    }

    fn answer_for(&self, reviewer: usize, plan: &Response) -> Option<Request> {
        let session = self.session();
        let name = self.input.reviewers()[reviewer].to_string();
        let feedback = |tuple, attr, value: &gdr_relation::Value, score, current| {
            self.oracle
                .feedback(&Update::new(tuple, attr, value.clone(), score), current)
        };
        let correct = |tuple, attr, current: &gdr_relation::Value| {
            self.oracle
                .correct_value(tuple, attr)
                .filter(|value| value != current)
        };
        Some(match plan {
            Response::Ask {
                id,
                tuple,
                attr,
                current,
                value,
                score,
                ..
            } => Request::Answer {
                session,
                id: *id,
                feedback: feedback(*tuple, *attr, value, *score, current),
            },
            Response::NeedValue {
                tuple,
                attr,
                current,
            } => match correct(*tuple, *attr, current) {
                Some(value) => Request::Supply {
                    session,
                    tuple: *tuple,
                    attr: *attr,
                    value,
                },
                None => Request::Skip {
                    session,
                    tuple: *tuple,
                    attr: *attr,
                },
            },
            Response::Leased {
                id,
                tuple,
                attr,
                current,
                value,
                score,
            } => Request::AnswerAs {
                session,
                reviewer: name,
                id: *id,
                feedback: feedback(*tuple, *attr, value, *score, current),
            },
            Response::Fix {
                id,
                tuple,
                attr,
                current,
            } => match correct(*tuple, *attr, current) {
                Some(value) => Request::SupplyAs {
                    session,
                    reviewer: name,
                    id: *id,
                    value,
                },
                None => Request::SkipAs {
                    session,
                    reviewer: name,
                    id: *id,
                },
            },
            _ => return None,
        })
    }

    /// The next request of the review loop, or `None` once the budget is
    /// spent, every reviewer is done, or the lane broke.
    fn start_turn(&mut self) -> Option<(Request, usize, Kind)> {
        if self.broken.is_some() || self.answers >= self.budget {
            return None;
        }
        let n = self.holding.len();
        let reviewer = (0..n)
            .map(|k| (self.turn + k) % n)
            .find(|&r| !self.retired[r])?;
        self.turn = reviewer;
        match &self.holding[reviewer] {
            Some(plan) => {
                let request = self.answer_for(reviewer, plan)?;
                Some((request, reviewer, Kind::Ack))
            }
            None => Some((self.pull(reviewer), reviewer, Kind::Plan)),
        }
    }

    fn send(&mut self, conn: &mut Conn, next: (Request, usize, Kind)) -> io::Result<u64> {
        let (request, reviewer, kind) = next;
        let seq = conn.send(&request)?;
        let sent = conn.last_sent;
        if kind == Kind::Ack && self.wait_started.is_none() {
            self.wait_started = Some((sent, self.log.len()));
        }
        self.attempted += 1;
        self.pending = Some(Pending {
            request,
            reviewer,
            kind,
            sent,
            gap: conn.last_gap,
            encode: conn.last_encode,
        });
        Ok(seq)
    }

    /// Books a reply decoded at `received`; returns the reviewer's
    /// follow-up request, if any.
    fn on_response(
        &mut self,
        response: Response,
        decode: Duration,
        received: Instant,
    ) -> Option<(Request, usize, Kind)> {
        let pending = self
            .pending
            .take()
            .expect("a reply needs a request in flight");
        let (reviewer, kind) = (pending.reviewer, pending.kind);
        if let Some(busy) = self.record(pending, response.clone(), decode, received) {
            return Some(busy);
        }
        if self.broken.is_some() {
            return None;
        }
        match kind {
            Kind::Ack => {
                self.answers += 1;
                self.holding[reviewer] = None;
                Some((self.pull(reviewer), reviewer, Kind::Plan))
            }
            Kind::Plan => {
                self.hold(reviewer, response);
                if let Some((started, first)) = self.wait_started.take() {
                    self.waits.push(received - started);
                    self.wait_spans.push((first, self.log.len() - 1));
                }
                self.turn = reviewer + 1;
                self.start_turn()
            }
        }
    }

    /// Logs an exchange.  A `busy` refusal is not logged (the server ran
    /// nothing) and comes back to be re-sent verbatim; any other error
    /// reply breaks the lane.
    fn record(
        &mut self,
        pending: Pending,
        response: Response,
        decode: Duration,
        received: Instant,
    ) -> Option<(Request, usize, Kind)> {
        let rtt = received - pending.sent;
        if let Response::Error(err) = &response {
            self.failed += 1;
            if matches!(err, WireError::Busy { .. }) {
                return Some((pending.request, pending.reviewer, pending.kind));
            }
            self.broken
                .get_or_insert_with(|| format!("{:?} → {err:?}", pending.request));
        }
        self.log.push(Exchange {
            request: pending.request,
            response,
            rtt,
            client_codec: pending.encode + decode,
            gap: pending.gap,
            phase: self.phase,
            restarts: self.restarts,
        });
        None
    }

    fn hold(&mut self, reviewer: usize, plan: Response) {
        self.last_plan[reviewer] = Some(plan.clone());
        match plan {
            Response::Ask { .. }
            | Response::NeedValue { .. }
            | Response::Leased { .. }
            | Response::Fix { .. } => self.holding[reviewer] = Some(plan),
            Response::Wait => self.holding[reviewer] = None,
            Response::Done { .. } => {
                self.holding[reviewer] = None;
                self.retired[reviewer] = true;
            }
            other => self.broken = Some(format!("expected a question, got {other:?}")),
        }
    }

    /// One exclusive round trip, logged; `busy` refusals are re-sent.
    fn call(&mut self, conn: &mut Conn, request: Request, reviewer: usize) -> io::Result<Response> {
        let mut next = Some((request, reviewer, Kind::Plan));
        while let Some(request) = next {
            self.send(conn, request)?;
            let (_, response) = conn.recv()?;
            let pending = self.pending.take().expect("a request is in flight");
            next = self.record(pending, response, conn.last_decode, conn.received);
        }
        Ok(self.log.last().expect("just logged").response.clone())
    }
}

/// Connects `count` connections (pipelined unless a single lane owns it).
pub fn connect(addr: std::net::SocketAddr, count: usize, lanes: usize) -> io::Result<Vec<Conn>> {
    (0..count)
        .map(|_| Conn::connect(addr, lanes > count))
        .collect()
}

/// Opens every session and pulls each reviewer's first question, one
/// request at a time on the first connection.
pub fn setup(conn: &mut Conn, lanes: &mut [Lane]) -> io::Result<()> {
    for lane in lanes.iter_mut() {
        lane.phase = Phase::Setup;
        let open = lane.input.open_request();
        let response = lane.call(conn, open, 0)?;
        if !matches!(response, Response::Opened { .. }) && lane.broken.is_none() {
            lane.broken = Some(format!("open answered {response:?}"));
        }
    }
    for lane in lanes.iter_mut() {
        for reviewer in 0..lane.holding.len() {
            if lane.broken.is_some() {
                break;
            }
            let pull = lane.pull(reviewer);
            let plan = lane.call(conn, pull, reviewer)?;
            lane.hold(reviewer, plan);
        }
    }
    Ok(())
}

/// Drives every lane to its budget, lanes spread round-robin over the
/// connections, one client thread per connection.  Returns the wall time.
pub fn review(conns: &mut [Conn], lanes: &mut [Lane]) -> io::Result<Duration> {
    let mut groups: Vec<Vec<&mut Lane>> = (0..conns.len()).map(|_| Vec::new()).collect();
    for (index, lane) in lanes.iter_mut().enumerate() {
        lane.phase = Phase::Review;
        groups[index % conns.len()].push(lane);
    }
    let started = Instant::now();
    thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(groups)
            .map(|(conn, group)| scope.spawn(move || review_connection(conn, group)))
            .collect();
        handles
            .into_iter()
            .try_for_each(|handle| handle.join().expect("review thread panicked"))
    })?;
    Ok(started.elapsed())
}

fn review_connection(conn: &mut Conn, mut lanes: Vec<&mut Lane>) -> io::Result<()> {
    let mut routes: HashMap<u64, usize> = HashMap::new();
    for (index, lane) in lanes.iter_mut().enumerate() {
        if let Some(next) = lane.start_turn() {
            routes.insert(lane.send(conn, next)?, index);
        }
    }
    while !routes.is_empty() {
        let (seq, response) = conn.recv()?;
        let index = routes
            .remove(&seq)
            .ok_or_else(|| io::Error::other(format!("reply for unknown seq {seq}")))?;
        let lane = &mut lanes[index];
        if let Some(next) = lane.on_response(response, conn.last_decode, conn.received) {
            routes.insert(lane.send(conn, next)?, index);
        }
    }
    Ok(())
}

/// Reads every session's `report`, one request at a time.
pub fn report(conn: &mut Conn, lanes: &mut [Lane]) -> io::Result<()> {
    for lane in lanes.iter_mut() {
        lane.phase = Phase::Report;
        let request = Request::Report {
            session: lane.session(),
        };
        lane.call(conn, request, 0)?;
    }
    Ok(())
}

/// After a restart: every reviewer pulls again, one request at a time, and
/// must get exactly the question (or `done`) it held when the old server
/// died.  A reviewer told to `wait` held nothing and is skipped.
pub fn reserve(conn: &mut Conn, lanes: &mut [Lane]) -> io::Result<()> {
    for lane in lanes.iter_mut() {
        lane.phase = Phase::Reserve;
        for reviewer in 0..lane.holding.len() {
            let held = match &lane.last_plan[reviewer] {
                Some(Response::Wait) | None => continue,
                Some(plan) => plan.clone(),
            };
            if lane.broken.is_some() {
                break;
            }
            let pull = lane.pull(reviewer);
            let again = lane.call(conn, pull, reviewer)?;
            if key(&again) != key(&held) {
                lane.broken = Some(format!(
                    "after restart {} re-served {again:?}, held {held:?}",
                    lane.input.id
                ));
            }
        }
    }
    Ok(())
}

/// The parts of a reply the correctness gate compares (scores are floats
/// and travel as decimal text, so they are left out).
pub fn key(response: &Response) -> String {
    match response {
        Response::Ask {
            id,
            tuple,
            attr,
            current,
            value,
            ..
        } => format!("ask {id} {tuple} {attr} {current:?} {value:?}"),
        Response::Leased {
            id,
            tuple,
            attr,
            current,
            value,
            ..
        } => format!("leased {id} {tuple} {attr} {current:?} {value:?}"),
        Response::Report {
            verifications,
            learner_decisions,
            dirty_tuples,
            ..
        } => format!("report {verifications} {learner_decisions} {dirty_tuples}"),
        other => format!("{other:?}"),
    }
}
