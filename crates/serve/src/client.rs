//! The client side of the wire protocol: typed calls plus a remote driver.
//!
//! [`Client`] speaks the same codec as the server over any `Read + Write`
//! pair and exposes one method per protocol verb.  [`Client::drive`] is the
//! remote twin of `gdr_core::session::drive`: it feeds a served session
//! from any [`UserOracle`] under an interaction budget, recovering from the
//! retryable protocol errors the way the error contract intends — on
//! `stale_work`/`work_mismatch`/`no_outstanding_work` it re-pulls `next`
//! and continues instead of giving up.
//!
//! [`Client::drive_retrying`] additionally survives *transport* failures:
//! a broken or garbled connection is retried under a [`RetryPolicy`]
//! (capped exponential backoff) through a caller-supplied reconnect
//! callback.  Re-sending a verb after a failure whose fate is unknown is
//! semantically safe by the same error contract — if the lost reply had
//! applied the verb, the duplicate comes back as
//! `stale_work`/`no_outstanding_work`, which the driver already swallows
//! and resolves by re-pulling `next`.
//!
//! [`MuxClient`] is the pipelined counterpart: it tags every request with
//! a `seq` correlation id and matches replies by tag instead of by
//! position, so **one connection carries many sessions concurrently**.
//! [`MuxClient::drive_all`] runs a per-session state machine (the same
//! plan → answer → plan loop as [`Client::drive`]) for N sessions at once,
//! keeping one verb in flight per session and absorbing `busy` refusals by
//! re-sending — the replies interleave in whatever order the server's
//! workers finish.
//!
//! [`ReviewTeam`] is the multi-reviewer driver: N named reviewers working
//! **one** session over one pipelined connection, each running its own
//! `lease` → `answer_as` loop concurrently.  `wait` replies re-lease,
//! `busy` refusals re-send, stale leases re-lease, and a reviewer that
//! draws work after the shared budget is spent releases its lease instead
//! of answering — the conflict policy chosen at `open` decides how
//! overlapping answers resolve server-side.

use std::collections::HashMap;
use std::fmt;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::thread;
use std::time::Duration;

use gdr_core::oracle::UserOracle;
use gdr_core::step::DoneReason;
use gdr_core::strategy::Strategy;
use gdr_core::team::ConflictPolicy;
use gdr_relation::Value;
use gdr_repair::{Feedback, Update};

use crate::wire::{
    decode_response_frame, encode_request_frame, Request, Response, WireError, WireLease,
    PROTOCOL_VERSION,
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
            Response::Error(err) => Err(ClientError::Server(err)),
            other => Err(ClientError::Protocol(format!(
                "hello expected a hello reply, got {other:?}"
            ))),
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
    pub fn none() -> RetryPolicy {
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

/// A blocking protocol client bound to one session id.
pub struct Client<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: W,
    session: String,
}

impl Client<TcpStream, TcpStream> {
    /// Connects a client over TCP (the stream is cloned for the read half).
    /// Disables Nagle's algorithm: the protocol is strictly
    /// request/reply with small lines, the worst case for delayed-ACK
    /// interaction.
    pub fn connect(stream: TcpStream, session: impl Into<String>) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(Client::new(reader, stream, session))
    }

    /// Connects over TCP with `timeout` applied to the connect itself and
    /// to every subsequent read and write — a verb that hangs past the
    /// deadline surfaces as a transport error the retry layer can handle,
    /// instead of blocking the driver forever.
    pub fn connect_timeout(
        addr: &SocketAddr,
        session: impl Into<String>,
        timeout: Duration,
    ) -> io::Result<Self> {
        let stream = TcpStream::connect_timeout(addr, timeout)?;
        stream.set_read_timeout(Some(timeout))?;
        stream.set_write_timeout(Some(timeout))?;
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(Client::new(reader, stream, session))
    }
}

impl<R: Read, W: Write> Client<R, W> {
    /// Wraps a transport pair.
    pub fn new(reader: R, writer: W, session: impl Into<String>) -> Self {
        Client {
            reader: BufReader::new(reader),
            writer,
            session: session.into(),
        }
    }

    /// The session id this client addresses.
    pub fn session(&self) -> &str {
        &self.session
    }

    /// Swaps in a fresh transport pair — the reconnect primitive.  The
    /// old pair is dropped; any half-exchanged request on it is abandoned
    /// (safe: see the module docs on duplicate-delivery recovery).
    pub fn replace_transport(&mut self, reader: R, writer: W) {
        self.reader = BufReader::new(reader);
        self.writer = writer;
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
        self.writer
            .write_all(encode_request_frame(request, None).as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        decode_response_frame(line.trim())
            .map(|(_, response)| response)
            .map_err(ClientError::Protocol)
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

    /// Supplies the correct value for the outstanding `need_value` cell.
    pub fn supply(
        &mut self,
        tuple: usize,
        attr: usize,
        value: Value,
    ) -> Result<Response, ClientError> {
        self.expect_ok(&Request::Supply {
            session: self.session.clone(),
            tuple,
            attr,
            value,
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

    /// Ends the session from the client side.
    pub fn finish(&mut self) -> Result<DoneReason, ClientError> {
        match self.expect_ok(&Request::Finish {
            session: self.session.clone(),
        })? {
            Response::Done { reason } => Ok(reason),
            other => Err(ClientError::Protocol(format!(
                "finish expected a done reply, got {other:?}"
            ))),
        }
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
        match self.expect_ok(&Request::Restore {
            session: self.session.clone(),
        })? {
            Response::Restored { replayed } => Ok(replayed),
            other => Err(ClientError::Protocol(format!(
                "restore expected a restored reply, got {other:?}"
            ))),
        }
    }

    /// Asks the server to compact the session's journal (snapshot + drop
    /// the replayed prefix); returns `(total events covered, tail length)`.
    pub fn compact(&mut self) -> Result<(usize, usize), ClientError> {
        match self.expect_ok(&Request::Compact {
            session: self.session.clone(),
        })? {
            Response::Compacted { events, tail } => Ok((events, tail)),
            other => Err(ClientError::Protocol(format!(
                "compact expected a compacted reply, got {other:?}"
            ))),
        }
    }

    /// Reads the session's live lease table (grant order).  Purely
    /// observational: ticks no coordinator clock and expires nothing.
    pub fn leases(&mut self) -> Result<Vec<WireLease>, ClientError> {
        match self.expect_ok(&Request::Leases {
            session: self.session.clone(),
        })? {
            Response::Leases { leases } => Ok(leases),
            other => Err(ClientError::Protocol(format!(
                "leases expected a leases reply, got {other:?}"
            ))),
        }
    }

    /// Performs the `hello` handshake: announces this client's protocol
    /// version and returns the server's version and capability flags.
    /// Servers predating the verb answer with `bad_request` — treat that
    /// as "legacy, no pipelining" rather than a failure.
    pub fn hello(&mut self) -> Result<ServerHello, ClientError> {
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        ServerHello::from_reply(self.call(&hello)?)
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
        self.drive_impl(user, budget, None)
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
        budget: Option<usize>,
        policy: &RetryPolicy,
        mut reconnect: impl FnMut(u32) -> Option<(R, W)>,
    ) -> Result<DoneReason, ClientError> {
        self.drive_impl(user, budget, Some((policy, &mut reconnect)))
    }

    /// One request with the drive loop's transport handling: retried when a
    /// retry context is present, and error replies lifted to `Err`.
    fn step(
        &mut self,
        request: &Request,
        retry: &mut Option<(&RetryPolicy, Reconnect<'_, R, W>)>,
    ) -> Result<Response, ClientError> {
        let response = match retry {
            Some((policy, reconnect)) => self.call_with_retry(request, policy, &mut **reconnect)?,
            None => self.call(request)?,
        };
        match response {
            Response::Error(err) => Err(ClientError::Server(err)),
            response => Ok(response),
        }
    }

    fn drive_impl(
        &mut self,
        user: &dyn UserOracle,
        budget: Option<usize>,
        mut retry: Option<(&RetryPolicy, Reconnect<'_, R, W>)>,
    ) -> Result<DoneReason, ClientError> {
        let mut interactions = 0usize;
        loop {
            if budget.is_some_and(|b| interactions >= b) {
                break;
            }
            let plan = self.step(
                &Request::Next {
                    session: self.session.clone(),
                },
                &mut retry,
            )?;
            let request = match plan {
                Response::Done { reason } => return Ok(reason),
                plan => answer_plan(&self.session, plan, user)?,
            };
            interactions += 1;
            if let Err(err) = self.step(&request, &mut retry) {
                recover_or_fail(err)?;
            }
        }
        match self.step(
            &Request::Finish {
                session: self.session.clone(),
            },
            &mut retry,
        )? {
            Response::Done { reason } => Ok(reason),
            other => Err(ClientError::Protocol(format!(
                "finish expected a done reply, got {other:?}"
            ))),
        }
    }
}

/// Swallows the retryable protocol errors (the engine re-serves the plan on
/// the next pull); anything else propagates.
fn recover_or_fail(err: ClientError) -> Result<(), ClientError> {
    match err {
        ClientError::Server(err) if is_retryable(&err) => Ok(()),
        other => Err(other),
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

/// The verb that answers a served work plan from `user`: `answer` for an
/// `ask`, and for a `need_value` either `supply` or, when the user knows no
/// different value, `skip`.  Any other reply is an error.
fn answer_plan(
    session: &str,
    plan: Response,
    user: &dyn UserOracle,
) -> Result<Request, ClientError> {
    let session = session.to_string();
    match plan {
        Response::Ask {
            id,
            tuple,
            attr,
            current,
            value,
            score,
            ..
        } => {
            let feedback = user.feedback(&Update::new(tuple, attr, value, score), &current);
            Ok(Request::Answer {
                session,
                id,
                feedback,
            })
        }
        Response::NeedValue {
            tuple,
            attr,
            current,
        } => Ok(match user.correct_value(tuple, attr) {
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
        }),
        Response::Error(err) => Err(ClientError::Server(err)),
        other => Err(ClientError::Protocol(format!(
            "next expected a work plan, got {other:?}"
        ))),
    }
}

/// Sends `request` and keeps it in `pending` as the lane's in-flight
/// request, for `busy` re-sends; returns its seq.
fn send_pending<R: Read, W: Write>(
    mux: &mut MuxClient<R, W>,
    pending: &mut Option<Request>,
    request: Request,
) -> Result<u64, ClientError> {
    let seq = mux.send(&request)?;
    *pending = Some(request);
    Ok(seq)
}

/// Absorbs a `busy` refusal by re-sending the refused request verbatim —
/// safe, because the server refused it without running it.  Returns the
/// re-sent seq, or `None` for any other reply.
fn resend_if_busy<R: Read, W: Write>(
    mux: &mut MuxClient<R, W>,
    response: &Response,
    pending: &Option<Request>,
) -> Result<Option<u64>, ClientError> {
    if !matches!(response, Response::Error(WireError::Busy { .. })) {
        return Ok(None);
    }
    let request = pending
        .as_ref()
        .ok_or_else(|| ClientError::Protocol("busy reply with no request in flight".to_string()))?;
    mux.send(request).map(Some)
}

/// Where one multiplexed session stands in its drive loop.
enum LaneState {
    /// `next` is in flight; expecting a work plan.
    AwaitPlan,
    /// `answer`/`supply`/`skip` is in flight; expecting its ack.
    AwaitAck,
    /// `finish` is in flight; expecting `done`.
    AwaitFinish,
    /// The session completed.
    Done(DoneReason),
}

/// One session being driven by [`MuxClient::drive_all`].
struct Lane {
    session: String,
    interactions: usize,
    state: LaneState,
    /// The request currently in flight, kept for `busy` re-sends.
    pending: Option<Request>,
}

/// A pipelined protocol client: every request carries a `seq` correlation
/// id and replies are matched by tag, not position, so one connection can
/// have many verbs — for many sessions — in flight at once.
///
/// Unlike [`Client`], a `MuxClient` is not bound to one session id; verbs
/// name their session explicitly.
pub struct MuxClient<R: Read, W: Write> {
    reader: BufReader<R>,
    writer: W,
    next_seq: u64,
}

impl MuxClient<TcpStream, TcpStream> {
    /// Connects over TCP (the stream is cloned for the read half), with
    /// Nagle's algorithm disabled like [`Client::connect`].
    pub fn connect(stream: TcpStream) -> io::Result<Self> {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        Ok(MuxClient::new(reader, stream))
    }
}

impl<R: Read, W: Write> MuxClient<R, W> {
    /// Wraps a transport pair.
    pub fn new(reader: R, writer: W) -> Self {
        MuxClient {
            reader: BufReader::new(reader),
            writer,
            next_seq: 0,
        }
    }

    /// Sends one `seq`-tagged request without waiting for its reply;
    /// returns the tag its reply will carry.
    pub fn send(&mut self, request: &Request) -> Result<u64, ClientError> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.writer
            .write_all(encode_request_frame(request, Some(seq)).as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        Ok(seq)
    }

    /// Reads one reply frame; replies arrive in server completion order,
    /// not send order.
    pub fn recv(&mut self) -> Result<(u64, Response), ClientError> {
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(ClientError::Io(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            )));
        }
        let (seq, response) = decode_response_frame(line.trim()).map_err(ClientError::Protocol)?;
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
        let hello = Request::Hello {
            version: PROTOCOL_VERSION,
        };
        ServerHello::from_reply(self.call(&hello)?)
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
        let mut lanes: Vec<Lane> = sessions
            .iter()
            .map(|session| Lane {
                session: session.clone(),
                interactions: 0,
                state: LaneState::AwaitPlan,
                pending: None,
            })
            .collect();
        // seq of the in-flight request → lane index.
        let mut routes: HashMap<u64, usize> = HashMap::new();
        for (index, lane) in lanes.iter_mut().enumerate() {
            let seq = start_turn(self, lane, budget)?;
            routes.insert(seq, index);
        }
        let mut live = lanes.len();
        while live > 0 {
            let (seq, response) = self.recv()?;
            let index = routes
                .remove(&seq)
                .ok_or_else(|| ClientError::Protocol(format!("reply for unknown seq {seq}")))?;
            let lane = &mut lanes[index];
            if let Some(seq) = resend_if_busy(self, &response, &lane.pending)? {
                routes.insert(seq, index);
                continue;
            }
            match advance_lane(self, lane, response, user, budget)? {
                Some(seq) => {
                    routes.insert(seq, index);
                }
                None => live -= 1,
            }
        }
        Ok(lanes
            .into_iter()
            .map(|lane| match lane.state {
                LaneState::Done(reason) => reason,
                _ => unreachable!("live count reached zero with an unfinished lane"),
            })
            .collect())
    }
}

/// Sends a lane's next pull — `next` while budget remains, else `finish` —
/// and returns the in-flight seq.
fn start_turn<R: Read, W: Write>(
    mux: &mut MuxClient<R, W>,
    lane: &mut Lane,
    budget: Option<usize>,
) -> Result<u64, ClientError> {
    let request = if budget.is_some_and(|b| lane.interactions >= b) {
        lane.state = LaneState::AwaitFinish;
        Request::Finish {
            session: lane.session.clone(),
        }
    } else {
        lane.state = LaneState::AwaitPlan;
        Request::Next {
            session: lane.session.clone(),
        }
    };
    send_pending(mux, &mut lane.pending, request)
}

/// Feeds one reply into a lane's state machine; returns the seq of the
/// lane's next in-flight request, or `None` once the lane is done.
fn advance_lane<R: Read, W: Write>(
    mux: &mut MuxClient<R, W>,
    lane: &mut Lane,
    response: Response,
    user: &dyn UserOracle,
    budget: Option<usize>,
) -> Result<Option<u64>, ClientError> {
    match lane.state {
        LaneState::AwaitPlan => match response {
            Response::Done { reason } => {
                lane.state = LaneState::Done(reason);
                lane.pending = None;
                Ok(None)
            }
            plan => {
                let request = answer_plan(&lane.session, plan, user)?;
                lane.interactions += 1;
                lane.state = LaneState::AwaitAck;
                send_pending(mux, &mut lane.pending, request).map(Some)
            }
        },
        LaneState::AwaitAck => match response {
            Response::Error(err) if !is_retryable(&err) => Err(ClientError::Server(err)),
            // An ack (or a retryable error — the plan will be re-served):
            // pull again.
            _ => start_turn(mux, lane, budget).map(Some),
        },
        LaneState::AwaitFinish => match response {
            Response::Done { reason } => {
                lane.state = LaneState::Done(reason);
                lane.pending = None;
                Ok(None)
            }
            Response::Error(err) => Err(ClientError::Server(err)),
            other => Err(ClientError::Protocol(format!(
                "finish expected a done reply, got {other:?}"
            ))),
        },
        LaneState::Done(_) => Err(ClientError::Protocol(
            "reply routed to a finished session".to_string(),
        )),
    }
}

/// Where one reviewer stands in its `lease` → `answer_as` loop.
enum ReviewerState {
    /// `lease` is in flight; expecting a team plan.
    AwaitLease,
    /// `answer_as`/`supply_as`/`skip_as`/`release` is in flight.
    AwaitAck,
    /// This reviewer stopped (session done, or budget spent).
    Retired,
}

/// One reviewer being driven by [`ReviewTeam::drive`].
struct ReviewerLane {
    name: String,
    answers: usize,
    state: ReviewerState,
    /// The request currently in flight, kept for `busy` re-sends.
    pending: Option<Request>,
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
/// Each reviewer runs the `lease` → decide → `answer_as` loop the wire
/// protocol describes, all N loops interleaved on the one connection: one
/// verb in flight per reviewer, replies consumed in server completion
/// order.  The session must already be open (see
/// [`OpenOptions::policy`] for choosing its conflict policy).
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

    /// The session id this team addresses.
    pub fn session(&self) -> &str {
        &self.session
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
        let mut lanes: Vec<ReviewerLane> = self
            .reviewers
            .iter()
            .map(|name| ReviewerLane {
                name: name.clone(),
                answers: 0,
                state: ReviewerState::AwaitLease,
                pending: None,
            })
            .collect();
        let mut routes: HashMap<u64, usize> = HashMap::new();
        let mut total = 0usize;
        let mut session_done: Option<DoneReason> = None;
        for (index, lane) in lanes.iter_mut().enumerate() {
            let seq = send_lease(mux, &self.session, lane)?;
            routes.insert(seq, index);
        }
        let mut live = lanes.len();
        while live > 0 {
            let (seq, response) = mux.recv()?;
            let index = routes
                .remove(&seq)
                .ok_or_else(|| ClientError::Protocol(format!("reply for unknown seq {seq}")))?;
            let lane = &mut lanes[index];
            if let Some(seq) = resend_if_busy(mux, &response, &lane.pending)? {
                routes.insert(seq, index);
                continue;
            }
            let spent = budget.is_some_and(|b| total >= b);
            let next_seq = match lane.state {
                ReviewerState::AwaitLease => match response {
                    Response::Leased { id, .. } | Response::Fix { id, .. } if spent => {
                        // Budget ran out while the lease was in flight:
                        // hand the item back for nobody instead of
                        // answering over budget.
                        let request = Request::Release {
                            session: self.session.clone(),
                            reviewer: lane.name.clone(),
                            id,
                        };
                        lane.state = ReviewerState::AwaitAck;
                        Some(send_pending(mux, &mut lane.pending, request)?)
                    }
                    Response::Leased {
                        id,
                        tuple,
                        attr,
                        current,
                        value,
                        score,
                    } => {
                        let update = Update::new(tuple, attr, value, score);
                        let feedback = user.feedback(&update, &current);
                        lane.answers += 1;
                        total += 1;
                        let request = Request::AnswerAs {
                            session: self.session.clone(),
                            reviewer: lane.name.clone(),
                            id,
                            feedback,
                        };
                        lane.state = ReviewerState::AwaitAck;
                        Some(send_pending(mux, &mut lane.pending, request)?)
                    }
                    Response::Fix {
                        id,
                        tuple,
                        attr,
                        current,
                    } => {
                        lane.answers += 1;
                        total += 1;
                        let request = match user.correct_value(tuple, attr) {
                            Some(value) if value != current => Request::SupplyAs {
                                session: self.session.clone(),
                                reviewer: lane.name.clone(),
                                id,
                                value,
                            },
                            _ => Request::SkipAs {
                                session: self.session.clone(),
                                reviewer: lane.name.clone(),
                                id,
                            },
                        };
                        lane.state = ReviewerState::AwaitAck;
                        Some(send_pending(mux, &mut lane.pending, request)?)
                    }
                    Response::Wait if spent => None,
                    // Every servable item is leased to other reviewers:
                    // receiving this reply drained the socket, so ask again.
                    Response::Wait => Some(send_lease(mux, &self.session, lane)?),
                    Response::Done { reason } => {
                        session_done.get_or_insert(reason);
                        None
                    }
                    Response::Error(err) if is_retryable(&err) => {
                        Some(send_lease(mux, &self.session, lane)?)
                    }
                    Response::Error(err) => return Err(ClientError::Server(err)),
                    other => {
                        return Err(ClientError::Protocol(format!(
                            "lease expected a team plan, got {other:?}"
                        )))
                    }
                },
                ReviewerState::AwaitAck => match response {
                    Response::Error(err) if !is_retryable(&err) => {
                        return Err(ClientError::Server(err))
                    }
                    // An ack (or a retryable error — the lease died and the
                    // work will be re-served): lease again while budget
                    // remains.
                    _ if spent => None,
                    _ => Some(send_lease(mux, &self.session, lane)?),
                },
                ReviewerState::Retired => {
                    return Err(ClientError::Protocol(
                        "reply routed to a retired reviewer".to_string(),
                    ))
                }
            };
            match next_seq {
                Some(seq) => {
                    routes.insert(seq, index);
                }
                None => {
                    lane.state = ReviewerState::Retired;
                    lane.pending = None;
                    live -= 1;
                }
            }
        }
        let reason = match session_done {
            Some(reason) => reason,
            // Budget stop: nobody saw `done`, so close the session.
            None => match mux.call(&Request::Finish {
                session: self.session.clone(),
            })? {
                Response::Done { reason } => reason,
                Response::Error(err) => return Err(ClientError::Server(err)),
                other => {
                    return Err(ClientError::Protocol(format!(
                        "finish expected a done reply, got {other:?}"
                    )))
                }
            },
        };
        Ok(ReviewOutcome {
            reason,
            answers: lanes
                .into_iter()
                .map(|lane| (lane.name, lane.answers))
                .collect(),
        })
    }
}

/// Sends one `lease` for a reviewer and returns the in-flight seq.
fn send_lease<R: Read, W: Write>(
    mux: &mut MuxClient<R, W>,
    session: &str,
    lane: &mut ReviewerLane,
) -> Result<u64, ClientError> {
    let request = Request::Lease {
        session: session.to_string(),
        reviewer: lane.name.clone(),
    };
    lane.state = ReviewerState::AwaitLease;
    send_pending(mux, &mut lane.pending, request)
}
