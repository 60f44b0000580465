//! The client side of the wire protocol: typed calls plus remote drivers.
//!
//! [`Client`] speaks the codec over any `Read + Write` pair, one untagged
//! request and reply at a time, bound to one session id, with one method
//! per protocol verb.  [`MuxClient`] tags every request with a `seq`
//! correlation id and matches replies by tag instead of by position, so
//! **one connection carries many sessions concurrently**.  Both write and
//! read frames through one framing type.
//!
//! Every driver runs the paper's loop remotely — serve an item, take the
//! [`UserOracle`]'s confirm/reject/retain (or a supplied value), pull again
//! — through **one per-lane state machine**.  A lane is one of two kinds:
//!
//! * **solo**: `next` → `answer`/`supply`/`skip`, then `finish` once the
//!   lane's own interaction budget is spent;
//! * **reviewer**: `lease` → `answer_as`/`supply_as`/`skip_as` as one named
//!   reviewer, or `release` for a lease drawn after the team's shared
//!   budget is spent; `wait` parks the lane until another lane's reply
//!   may have freed work, then re-leases.
//!
//! The machine takes a lane, one reply and the budget the lane draws from,
//! and returns the lane's next request or retires the lane.  The retryable
//! protocol errors (`stale_work`/`work_mismatch`/`no_outstanding_work`, as
//! after a concurrent `restore` or a duplicated delivery) are not failures:
//! the engine re-serves the item on the next pull.
//!
//! * [`Client::drive`] runs one solo lane over the untagged framing.
//!   [`Client::drive_retrying`] also survives *transport* failures: each
//!   request is re-sent under a [`RetryPolicy`] (capped exponential
//!   backoff) through a caller-supplied reconnect callback.  Re-sending a
//!   verb whose fate is unknown is safe by the same error contract: if the
//!   lost reply had applied it, the duplicate comes back as
//!   `stale_work`/`no_outstanding_work` and the lane pulls again.
//! * [`MuxClient::drive_all`] pumps N solo lanes over one pipelined
//!   connection: one verb in flight per lane, replies consumed in whatever
//!   order the server's workers finish, `busy` refusals re-sent verbatim.
//! * [`ReviewTeam::drive`] pumps N reviewer lanes of **one** session the
//!   same way, then sends one closing `finish` if no lane saw `done`; the
//!   conflict policy chosen at `open` decides how overlapping answers
//!   resolve server-side.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::thread;
use std::time::Duration;

use gdr_core::oracle::UserOracle;
use gdr_core::step::DoneReason;
use gdr_core::strategy::Strategy;
use gdr_core::team::ConflictPolicy;
use gdr_repair::{Feedback, Update};

use crate::wire::{
    decode_response_frame, encode_request_frame, Request, Response, WireError, PROTOCOL_VERSION,
};

/// The server's `hello` reply: protocol version, capability flags, and the
/// limits a client self-configures from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerHello {
    /// Protocol version the server speaks.
    pub version: u32,
    /// Whether `seq`-tagged pipelined frames get out-of-order replies.
    pub pipelining: bool,
    /// Whether the `compact` verb is supported.
    pub compact: bool,
    /// Whether the multi-reviewer lease verbs are supported.
    pub leases: bool,
    /// Per-connection in-flight request cap (`0` = not reported): keep
    /// fewer requests than this in flight to avoid `busy` refusals.
    pub max_outstanding: usize,
    /// Default lease TTL in coordinator operations (`0` = not reported).
    pub lease_ttl: u64,
}

/// The `hello` handshake request, announcing this client's protocol
/// version.
const HELLO: Request = Request::Hello {
    version: PROTOCOL_VERSION,
};

impl ServerHello {
    /// Reads the server's reply to a `hello` request.
    fn from_reply(response: Response) -> Result<ServerHello, ClientError> {
        match response {
            Response::Hello {
                version,
                pipelining,
                compact,
                leases,
                max_outstanding,
                lease_ttl,
            } => Ok(ServerHello {
                version,
                pipelining,
                compact,
                leases,
                max_outstanding,
                lease_ttl,
            }),
            other => Err(unexpected("hello", "a hello reply", other)),
        }
    }
}

/// A client-side error: transport failure, an undecodable reply, or a
/// structured error reply from the server.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed (or reached EOF mid-conversation).
    Io(io::Error),
    /// The server's reply line did not decode.
    Protocol(String),
    /// The server answered with a structured error.
    Server(WireError),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "transport error: {err}"),
            ClientError::Protocol(detail) => write!(f, "protocol error: {detail}"),
            ClientError::Server(err) => write!(f, "server error: {err:?}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<io::Error> for ClientError {
    fn from(err: io::Error) -> ClientError {
        ClientError::Io(err)
    }
}

/// A reply of the wrong kind for `verb`: an error reply stays typed as
/// [`ClientError::Server`], anything else is a protocol error naming what
/// `verb` expected.
fn unexpected(verb: &str, expected: &str, reply: Response) -> ClientError {
    match reply {
        Response::Error(err) => ClientError::Server(err),
        other => ClientError::Protocol(format!("{verb} expected {expected}, got {other:?}")),
    }
}

/// Reads the reply to a `finish`.
fn done_reason(reply: Response) -> Result<DoneReason, ClientError> {
    match reply {
        Response::Done { reason } => Ok(reason),
        other => Err(unexpected("finish", "a done reply", other)),
    }
}

/// Per-session options for [`Client::open`].
#[derive(Debug, Clone)]
pub struct OpenOptions {
    /// Strategy token sent on the wire.
    pub strategy: Strategy,
    /// Optional seed override.
    pub seed: Option<u64>,
    /// Optional ground truth CSV (enables server-side evaluation).
    pub ground_truth_csv: Option<String>,
    /// Optional conflict policy for multi-reviewer sessions (`None` =
    /// server default, first-wins).
    pub policy: Option<ConflictPolicy>,
    /// Optional lease TTL override in coordinator operations (`None` =
    /// server default, reported by `hello`).
    pub lease_ttl: Option<u64>,
}

impl Default for OpenOptions {
    fn default() -> OpenOptions {
        OpenOptions {
            strategy: Strategy::Gdr,
            seed: None,
            ground_truth_csv: None,
            policy: None,
            lease_ttl: None,
        }
    }
}

/// How [`Client::drive_retrying`] and [`Client::call_with_retry`] handle
/// transport failures: up to `max_retries` reconnect-and-resend attempts
/// per request, sleeping an exponentially growing backoff (doubled each
/// attempt, capped at `max_backoff`) before each one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Maximum retry attempts per request (0 = fail on the first error).
    pub max_retries: u32,
    /// Backoff before the first retry.
    pub initial_backoff: Duration,
    /// Ceiling the doubling backoff saturates at.
    pub max_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_retries: 3,
            initial_backoff: Duration::from_millis(10),
            max_backoff: Duration::from_secs(1),
        }
    }
}

impl RetryPolicy {
    /// A policy that never retries — [`Client::drive_retrying`] with this
    /// behaves exactly like [`Client::drive`].
    pub(crate) fn none() -> RetryPolicy {
        RetryPolicy {
            max_retries: 0,
            initial_backoff: Duration::ZERO,
            max_backoff: Duration::ZERO,
        }
    }
}

/// A reconnect callback: given the 1-based attempt number, produce a fresh
/// transport pair, or `None` to give up early.
type Reconnect<'c, R, W> = &'c mut dyn FnMut(u32) -> Option<(R, W)>;

/// One connection's framing: one request frame per line out, one reply
/// frame per line in.
struct Framed<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: W,
}

impl Framed<TcpStream, TcpStream> {
    /// Splits a TCP stream (cloned for the read half) with Nagle's
    /// algorithm disabled: the protocol's small request and reply lines are
    /// the worst case for delayed-ACK interaction.
    fn tcp(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        Ok(Framed::new(stream.try_clone()?, stream))
    }
}

impl<R: Read, W: Write> Framed<R, W> {
    fn new(reader: R, writer: W) -> Self {
        Framed {
            reader: BufReader::new(reader),
            writer,
        }
    }

    /// Writes one request frame, `seq`-tagged or not.
    fn send(&mut self, request: &Request, seq: Option<u64>) -> Result<(), ClientError> {
        self.writer
            .write_all(encode_request_frame(request, seq).as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(())
    }

    /// Reads one reply frame and its `seq` tag, if it has one.
    fn recv(&mut self) -> Result<(Option<u64>, Response), ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        decode_response_frame(line.trim()).map_err(ClientError::Protocol)
    }
}

/// A blocking protocol client bound to one session id.
pub struct Client<R: Read, W: Write> {
    framed: Framed<R, W>,
    session: String,
}

impl Client<TcpStream, TcpStream> {
    /// Connects a client over TCP (the stream is cloned for the read half).
    /// Disables Nagle's algorithm: the protocol is strictly
    /// request/reply with small lines, the worst case for delayed-ACK
    /// interaction.
    pub fn connect(stream: TcpStream, session: impl Into<String>) -> io::Result<Self> {
        Ok(Client {
            framed: Framed::tcp(stream)?,
            session: session.into(),
        })
    }
}

impl<R: Read, W: Write> Client<R, W> {
    /// Wraps a transport pair.
    pub fn new(reader: R, writer: W, session: impl Into<String>) -> Self {
        Client {
            framed: Framed::new(reader, writer),
            session: session.into(),
        }
    }

    /// Swaps in a fresh transport pair — the reconnect primitive.  The
    /// old pair is dropped; any half-exchanged request on it is abandoned
    /// (safe: see the module docs on duplicate-delivery recovery).
    pub(crate) fn replace_transport(&mut self, reader: R, writer: W) {
        self.framed = Framed::new(reader, writer);
    }

    /// [`Client::call`] with transport-failure retries: on an IO error or
    /// an undecodable reply (a torn line means the framing is suspect), the
    /// connection is abandoned, `reconnect` is asked for a fresh pair after
    /// a capped exponential backoff, and the request is re-sent.  Server
    /// error *replies* are returned immediately — they are answers, not
    /// failures.
    pub fn call_with_retry(
        &mut self,
        request: &Request,
        policy: &RetryPolicy,
        reconnect: Reconnect<'_, R, W>,
    ) -> Result<Response, ClientError> {
        let mut backoff = policy.initial_backoff;
        let mut attempt = 0u32;
        loop {
            let err = match self.call(request) {
                Ok(response) => return Ok(response),
                Err(err @ (ClientError::Io(_) | ClientError::Protocol(_))) => err,
                Err(err) => return Err(err),
            };
            if attempt >= policy.max_retries {
                return Err(err);
            }
            attempt += 1;
            if !backoff.is_zero() {
                thread::sleep(backoff);
            }
            backoff = backoff.saturating_mul(2).min(policy.max_backoff);
            match reconnect(attempt) {
                Some((reader, writer)) => self.replace_transport(reader, writer),
                None => return Err(err),
            }
        }
    }

    /// Sends one request and reads one reply — the protocol is strictly
    /// request/reply, so this is the only I/O primitive.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        self.framed.send(request, None)?;
        Ok(self.framed.recv()?.1)
    }

    fn expect_ok(&mut self, request: &Request) -> Result<Response, ClientError> {
        match self.call(request)? {
            Response::Error(err) => Err(ClientError::Server(err)),
            response => Ok(response),
        }
    }

    /// Opens the session on the server.
    pub fn open(
        &mut self,
        table_csv: impl Into<String>,
        rules: impl Into<String>,
        options: OpenOptions,
    ) -> Result<Response, ClientError> {
        let request = Request::Open {
            session: self.session.clone(),
            table_csv: table_csv.into(),
            rules: rules.into(),
            strategy: options.strategy,
            seed: options.seed,
            ground_truth_csv: options.ground_truth_csv,
            policy: options.policy,
            lease_ttl: options.lease_ttl,
        };
        self.expect_ok(&request)
    }

    /// Pulls the next work item.
    // `next` is the protocol verb, not an iterator (it re-serves the same
    // item until it is answered).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<Response, ClientError> {
        self.expect_ok(&Request::Next {
            session: self.session.clone(),
        })
    }

    /// Answers the outstanding `ask` item.
    pub fn answer(&mut self, id: u64, feedback: Feedback) -> Result<Response, ClientError> {
        self.expect_ok(&Request::Answer {
            session: self.session.clone(),
            id,
            feedback,
        })
    }

    /// Declines the outstanding `need_value` cell.
    pub fn skip(&mut self, tuple: usize, attr: usize) -> Result<Response, ClientError> {
        self.expect_ok(&Request::Skip {
            session: self.session.clone(),
            tuple,
            attr,
        })
    }

    /// Requests the session summary.
    pub fn report(&mut self) -> Result<Response, ClientError> {
        self.expect_ok(&Request::Report {
            session: self.session.clone(),
        })
    }

    /// Asks the server to rebuild the session's engine by replaying its
    /// journal; returns the number of replayed events.
    pub fn restore(&mut self) -> Result<usize, ClientError> {
        let session = self.session.clone();
        match self.call(&Request::Restore { session })? {
            Response::Restored { replayed } => Ok(replayed),
            other => Err(unexpected("restore", "a restored reply", other)),
        }
    }

    /// Asks the server to compact the session's journal (snapshot + drop
    /// the replayed prefix); returns `(total events covered, tail length)`.
    pub fn compact(&mut self) -> Result<(usize, usize), ClientError> {
        let session = self.session.clone();
        match self.call(&Request::Compact { session })? {
            Response::Compacted { events, tail } => Ok((events, tail)),
            other => Err(unexpected("compact", "a compacted reply", other)),
        }
    }

    /// Performs the `hello` handshake: announces this client's protocol
    /// version and returns the server's version and capability flags.
    /// Servers predating the verb answer with `bad_request` — treat that
    /// as "legacy, no pipelining" rather than a failure.
    pub fn hello(&mut self) -> Result<ServerHello, ClientError> {
        ServerHello::from_reply(self.call(&HELLO)?)
    }

    /// The remote twin of `gdr_core::session::drive`: answers served work
    /// from `user` until the interaction budget (`None` = unlimited) is
    /// exhausted or the session is done, then finishes.  Retryable protocol
    /// errors (stale id, mismatch, nothing outstanding — e.g. after a
    /// concurrent `restore` or a duplicated delivery) are recovered by
    /// re-pulling `next`.
    pub fn drive(
        &mut self,
        user: &dyn UserOracle,
        budget: Option<usize>,
    ) -> Result<DoneReason, ClientError> {
        self.drive_retrying(user, budget, &RetryPolicy::none(), |_| None)
    }

    /// [`Client::drive`] hardened against transport failures: every request
    /// is sent via [`Client::call_with_retry`] under `policy`, using
    /// `reconnect` to obtain a fresh transport after each failure.  The
    /// driver's position in the session is carried by the server (a
    /// re-pull after reconnect re-serves the outstanding item), so the loop
    /// resumes exactly where the old connection died.
    pub fn drive_retrying(
        &mut self,
        user: &dyn UserOracle,
        mut budget: Option<usize>,
        policy: &RetryPolicy,
        mut reconnect: impl FnMut(u32) -> Option<(R, W)>,
    ) -> Result<DoneReason, ClientError> {
        let mut lane = Lane::new(&self.session, None, 0, budget == Some(0));
        loop {
            let reply = self.call_with_retry(&lane.pending, policy, &mut reconnect)?;
            if !lane.advance(reply, user, &mut budget)? {
                return Ok(lane.done.expect("a solo lane retires on a done reply"));
            }
        }
    }
}

/// A pipelined protocol client: every request carries a `seq` correlation
/// id and replies are matched by tag, not position, so one connection can
/// have many verbs — for many sessions — in flight at once.
///
/// Unlike [`Client`], a `MuxClient` is not bound to one session id; verbs
/// name their session explicitly.
pub struct MuxClient<R: Read, W: Write> {
    framed: Framed<R, W>,
    next_seq: u64,
}

impl MuxClient<TcpStream, TcpStream> {
    /// Connects over TCP (the stream is cloned for the read half), with
    /// Nagle's algorithm disabled like [`Client::connect`].
    pub fn connect(stream: TcpStream) -> io::Result<Self> {
        Ok(MuxClient {
            framed: Framed::tcp(stream)?,
            next_seq: 0,
        })
    }
}

impl<R: Read, W: Write> MuxClient<R, W> {
    /// Sends one `seq`-tagged request without waiting for its reply;
    /// returns the tag its reply will carry.
    pub fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.framed.send(request, Some(seq))?;
        Ok(seq)
    }

    /// Reads one reply frame; replies arrive in server completion order,
    /// not send order.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        let (seq, response) = self.framed.recv()?;
        let seq = seq
            .ok_or_else(|| ClientError::Protocol("mux reply is missing its seq tag".to_string()))?;
        Ok((seq, response))
    }

    /// One exclusive round trip (send, then receive that same reply).
    /// Only valid while nothing else is in flight on this client.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let seq = self.send(request)?;
        let (got, response) = self.recv()?;
        if got != seq {
            return Err(ClientError::Protocol(format!(
                "reply for seq {got} while only {seq} was in flight"
            )));
        }
        Ok(response)
    }

    /// Performs the `hello` handshake (see [`Client::hello`]).
    pub fn hello(&mut self) -> Result<ServerHello, ClientError> {
        ServerHello::from_reply(self.call(&HELLO)?)
    }

    /// Drives every (already opened) session in `sessions` to completion
    /// concurrently over this one connection, answering served work from
    /// `user` under a per-session interaction budget (`None` = unlimited),
    /// exactly like [`Client::drive`] does for one session.  One verb is
    /// kept in flight per session; replies are consumed in whatever order
    /// the server finishes them.  `busy` refusals are absorbed by
    /// re-sending, retryable protocol errors by re-pulling `next`.
    /// Returns the sessions' done reasons in input order.
    pub fn drive_all(
        &mut self,
        sessions: &[String],
        user: &dyn UserOracle,
        budget: Option<usize>,
    ) -> Result<Vec<DoneReason>, ClientError> {
        let mut budgets = vec![budget; sessions.len()];
        let mut lanes: Vec<Lane> = sessions
            .iter()
            .enumerate()
            .map(|(index, session)| Lane::new(session, None, index, budget == Some(0)))
            .collect();
        self.pump(&mut lanes, &mut budgets, user)?;
        Ok(lanes
            .iter()
            .map(|lane| lane.done.expect("a solo lane retires on a done reply"))
            .collect())
    }

    /// Drives `lanes` over this connection until every lane retires: one
    /// verb in flight per lane, each reply fed to its lane in server
    /// completion order.  A `busy` refusal re-sends the refused request
    /// verbatim, which is safe because the server ran nothing.  A lane
    /// told to `wait` (a journaled clock tick) parks.  Each reply that is
    /// neither `wait` nor `busy` wakes the longest-parked lane, and with
    /// nothing in flight all of them wake, so the team cannot deadlock.
    fn pump(
        &mut self,
        lanes: &mut [Lane],
        budgets: &mut [Option<usize>],
        user: &dyn UserOracle,
    ) -> Result<(), ClientError> {
        // seq of each live lane's in-flight request → lane index.
        let mut routes = HashMap::new();
        for (index, lane) in lanes.iter().enumerate() {
            routes.insert(self.send(&lane.pending)?, index);
        }
        let mut parked = VecDeque::new();
        while !routes.is_empty() {
            let (seq, reply) = self.recv()?;
            let index = routes
                .remove(&seq)
                .ok_or_else(|| ClientError::Protocol(format!("reply for unknown seq {seq}")))?;
            let lane = &mut lanes[index];
            let busy = matches!(reply, Response::Error(WireError::Busy { .. }));
            let wait = matches!(reply, Response::Wait);
            if busy || lane.advance(reply, user, &mut budgets[lane.budget])? {
                if wait {
                    parked.push_back(index);
                } else {
                    routes.insert(self.send(&lane.pending)?, index);
                }
            }
            let woken = if routes.is_empty() {
                parked.len()
            } else if wait || busy {
                0
            } else {
                parked.len().min(1)
            };
            for index in parked.drain(..woken) {
                routes.insert(self.send(&lanes[index].pending)?, index);
            }
        }
        Ok(())
    }
}

/// One solo session, or one reviewer of a team session, being driven.
struct Lane {
    session: String,
    /// The reviewer this lane answers as; `None` for a solo lane.
    reviewer: Option<String>,
    /// Items this lane answered.
    answers: usize,
    /// Which of its driver's budgets this lane draws on: each holds the
    /// answers left (`None` = unlimited).  Solo lanes have one each, a
    /// team's reviewers share one.
    budget: usize,
    /// The session's done reason, once a reply carried it.
    done: Option<DoneReason>,
    /// The request in flight, which a `busy` refusal re-sends.
    pending: Request,
}

impl Lane {
    /// A lane that leases as `reviewer`, or pulls `next` as a solo lane
    /// (`finish` if its budget is `spent` already).
    fn new(session: &str, reviewer: Option<String>, budget: usize, spent: bool) -> Lane {
        let pending = match &reviewer {
            None if spent => Request::Finish {
                session: session.to_string(),
            },
            _ => pull(session, &reviewer),
        };
        Lane {
            session: session.to_string(),
            reviewer,
            answers: 0,
            budget,
            done: None,
            pending,
        }
    }

    /// The lane state machine: feeds `reply` to the request in flight,
    /// drawing each answer from `budget`.  Returns `true` with the next
    /// request in `pending`, or `false` once the lane retired.
    fn advance(
        &mut self,
        reply: Response,
        user: &dyn UserOracle,
        budget: &mut Option<usize>,
    ) -> Result<bool, ClientError> {
        let spent = *budget == Some(0);
        let next = match (&self.pending, reply) {
            (Request::Next { .. } | Request::Lease { .. }, Response::Done { reason }) => {
                self.done = Some(reason);
                None
            }
            (Request::Finish { .. }, reply) => {
                self.done = Some(done_reason(reply)?);
                None
            }
            (Request::Lease { .. }, Response::Wait) if spent => None,
            // Every servable item is leased to other reviewers, or the
            // lease went stale: ask again (the pump parks a waiting lane
            // before it re-sends).
            (Request::Lease { .. }, Response::Wait) => Some(self.pending.clone()),
            (Request::Lease { .. }, Response::Error(err)) if is_retryable(&err) => {
                Some(self.pending.clone())
            }
            // The budget ran out while the lease was in flight: hand the
            // item back instead of answering over budget.
            (
                Request::Lease { session, reviewer },
                Response::Leased { id, .. } | Response::Fix { id, .. },
            ) if spent => Some(Request::Release {
                session: session.clone(),
                reviewer: reviewer.clone(),
                id,
            }),
            (Request::Next { .. } | Request::Lease { .. }, plan) => {
                let request = self.answer(plan, user)?;
                self.answers += 1;
                if let Some(left) = budget {
                    *left -= 1;
                }
                Some(request)
            }
            // An answer verb or `release` is in flight.
            (_, Response::Error(err)) if !is_retryable(&err) => {
                return Err(ClientError::Server(err))
            }
            // An ack, or a retryable error (the item will be re-served):
            // pull again while budget remains.
            _ if !spent => Some(pull(&self.session, &self.reviewer)),
            _ if self.reviewer.is_some() => None,
            _ => Some(Request::Finish {
                session: self.session.clone(),
            }),
        };
        let Some(request) = next else {
            return Ok(false);
        };
        self.pending = request;
        Ok(true)
    }

    /// The verb that answers a served item from `user`: feedback on a
    /// suggested update; for a cell that needs a value, `supply` of the
    /// user's value, or `skip` when the user knows no different one.
    fn answer(&self, plan: Response, user: &dyn UserOracle) -> Result<Request, ClientError> {
        let session = self.session.clone();
        Ok(match (self.reviewer.clone(), plan) {
            (
                None,
                Response::Ask {
                    id,
                    tuple,
                    attr,
                    current,
                    value,
                    score,
                    ..
                },
            ) => {
                let feedback = user.feedback(&Update::new(tuple, attr, value, score), &current);
                Request::Answer {
                    session,
                    id,
                    feedback,
                }
            }
            (
                Some(reviewer),
                Response::Leased {
                    id,
                    tuple,
                    attr,
                    current,
                    value,
                    score,
                },
            ) => {
                let feedback = user.feedback(&Update::new(tuple, attr, value, score), &current);
                Request::AnswerAs {
                    session,
                    reviewer,
                    id,
                    feedback,
                }
            }
            (
                None,
                Response::NeedValue {
                    tuple,
                    attr,
                    current,
                },
            ) => match user.correct_value(tuple, attr) {
                Some(value) if value != current => Request::Supply {
                    session,
                    tuple,
                    attr,
                    value,
                },
                _ => Request::Skip {
                    session,
                    tuple,
                    attr,
                },
            },
            (
                Some(reviewer),
                Response::Fix {
                    id,
                    tuple,
                    attr,
                    current,
                },
            ) => match user.correct_value(tuple, attr) {
                Some(value) if value != current => Request::SupplyAs {
                    session,
                    reviewer,
                    id,
                    value,
                },
                _ => Request::SkipAs {
                    session,
                    reviewer,
                    id,
                },
            },
            (None, other) => return Err(unexpected("next", "a work plan", other)),
            (Some(_), other) => return Err(unexpected("lease", "a team plan", other)),
        })
    }
}

/// A lane's pull: `lease` as `reviewer`, or `next` for a solo lane.
fn pull(session: &str, reviewer: &Option<String>) -> Request {
    let session = session.to_string();
    match reviewer.clone() {
        Some(reviewer) => Request::Lease { session, reviewer },
        None => Request::Next { session },
    }
}

/// Is this a retryable protocol error (the engine re-serves the plan)?
fn is_retryable(err: &WireError) -> bool {
    matches!(
        err,
        WireError::StaleWork { .. }
            | WireError::WorkMismatch { .. }
            | WireError::NoOutstandingWork { .. }
    )
}

/// What [`ReviewTeam::drive`] produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReviewOutcome {
    /// Why the session ended.
    pub reason: DoneReason,
    /// Per-reviewer answer counts, in constructor order.
    pub answers: Vec<(String, usize)>,
}

/// A team of named reviewers driving **one** multi-reviewer session over
/// one pipelined [`MuxClient`] connection.
///
/// Each reviewer is one reviewer lane (`lease` → decide → `answer_as`), all
/// N lanes interleaved on the one connection: one verb in flight per
/// reviewer, replies consumed in server completion order.  The session
/// must already be open (see [`OpenOptions::policy`] for choosing its
/// conflict policy).
pub struct ReviewTeam {
    session: String,
    reviewers: Vec<String>,
}

impl ReviewTeam {
    /// A team of `reviewers` (ids sent on the wire) for `session`.
    pub fn new<S: Into<String>>(
        session: impl Into<String>,
        reviewers: impl IntoIterator<Item = S>,
    ) -> ReviewTeam {
        ReviewTeam {
            session: session.into(),
            reviewers: reviewers.into_iter().map(Into::into).collect(),
        }
    }

    /// Drives every reviewer until the session is done or the shared
    /// answer budget (`None` = unlimited) is spent, answering leased work
    /// from `user`.  A reviewer that draws a lease after the budget is
    /// spent releases it; once every reviewer has retired without seeing
    /// `done`, one `finish` closes the session.  Returns the done reason
    /// and per-reviewer answer counts.
    pub fn drive<R: Read, W: Write>(
        &self,
        mux: &mut MuxClient<R, W>,
        user: &dyn UserOracle,
        budget: Option<usize>,
    ) -> Result<ReviewOutcome, ClientError> {
        let mut lanes: Vec<Lane> = self
            .reviewers
            .iter()
            .map(|name| Lane::new(&self.session, Some(name.clone()), 0, false))
            .collect();
        mux.pump(&mut lanes, &mut [budget], user)?;
        // A concluded engine serves the same reason to every pull, so any
        // lane's is the session's.
        let reason = match lanes.iter().find_map(|lane| lane.done) {
            Some(reason) => reason,
            // Budget stop: nobody saw `done`, so close the session.
            None => done_reason(mux.call(&Request::Finish {
                session: self.session.clone(),
            })?)?,
        };
        Ok(ReviewOutcome {
            reason,
            answers: self
                .reviewers
                .iter()
                .cloned()
                .zip(lanes.iter().map(|lane| lane.answers))
                .collect(),
        })
    }
}
