//! The session server: request dispatch ([`dispatch_with`]) plus the
//! threaded TCP transport around it.
//!
//! [`ServerConfig::serve`] runs the server.  The calling thread accepts.
//! Each connection gets a reader thread, which decodes requests, and a
//! writer thread, which writes replies; requests run on a pool of
//! [`ServerConfig::workers`] threads, so one slow engine verb never blocks
//! other connections — or other `seq`-tagged requests on the *same*
//! connection.  All I/O is blocking, so an idle server waits in
//! `accept`/`read` and burns no CPU.  A request line longer than
//! [`MAX_FRAME_BYTES`] is answered with `bad_request`, and the connection
//! goes on serving.
//!
//! Ordering: requests without `seq` are processed one at a time, in
//! arrival order, per connection (the legacy contract); requests with
//! `seq` run concurrently on the worker pool and their replies are written
//! as they complete, tagged with the echoed `seq`.
//!
//! Backpressure: a connection has at most [`ServerConfig::max_outstanding`]
//! admitted requests whose reply the writer has not yet taken; more are
//! refused with a `busy` reply, without running.  Workers hand replies to
//! the writer and never touch a socket.  The writer frees a reply's slot
//! when it takes the reply's batch, before writing it, so a client that
//! has read a reply can never be refused for that reply's slot.  A client
//! that stops reading therefore holds at most `max_outstanding` queued
//! replies plus the `max_outstanding` of the batch being written, and
//! parks no worker; once as many `busy`/`bad_request` replies wait too,
//! its reader stops reading.
//!
//! Compaction: a verb that leaves its session's compaction due is answered
//! first.  Its worker then runs the compaction — the validation replay and
//! the checkpoint's write and fsync, with the session unlocked — and only
//! after that takes new work, so the reviewer's next request goes to
//! another worker instead of waiting.  [`dispatch`] and [`dispatch_with`]
//! return with the compaction done.
//!
//! A protocol violation — malformed line, unknown session, stale work id —
//! produces a structured error *reply* on that connection and nothing
//! else: the connection stays open, the session stays servable, and every
//! other session is untouched.  A worker that panics mid-verb is contained
//! too: the offending request gets an `engine` error reply and the worker
//! survives.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, BufWriter, ErrorKind, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::{self, Thread, ThreadId};

use gdr_core::error::GdrError;
use gdr_core::step::WorkId;
use gdr_relation::csv::parse_csv;
use gdr_relation::{AttrId, TupleId, Value};

use gdr_core::team::{TeamConfig, TeamPlan};

use crate::store::{Compaction, DurabilityConfig, OpenSpec, Session, SessionStore, StoreError};
use crate::wire::{
    decode_request_frame, encode_response_frame, Request, Response, WireError, WireEval, WireGroup,
    WireLease, PROTOCOL_VERSION,
};

/// The limits a server advertises on its `hello` reply so clients can
/// self-configure (pipelining window, default lease TTL).
#[derive(Debug, Clone, Copy)]
pub struct ServerLimits {
    /// Per-connection in-flight request cap behind the `busy` reply.
    pub max_outstanding: usize,
    /// Default lease TTL (coordinator operations) sessions open with.
    pub lease_ttl: u64,
}

impl Default for ServerLimits {
    fn default() -> ServerLimits {
        ServerLimits {
            max_outstanding: ServerConfig::default().max_outstanding,
            lease_ttl: TeamConfig::default().lease_ttl,
        }
    }
}

/// Handles one decoded request against the store, producing the reply.
///
/// This is the entire server semantics; the transport below only frames
/// lines around it.  `hello` advertises [`ServerLimits::default`];
/// a server with tuned limits uses [`dispatch_with`].
pub fn dispatch(store: &SessionStore, request: Request) -> Response {
    dispatch_with(store, request, &ServerLimits::default())
}

/// [`dispatch`] with explicit `hello` limits (the threaded server passes
/// its configured `max_outstanding` here).  Returns with the compaction the
/// verb left due done, as [`SessionStore::with_session`] does.
pub fn dispatch_with(store: &SessionStore, request: Request, limits: &ServerLimits) -> Response {
    let (response, compaction) = dispatch_deferred(store, request, limits);
    if let Some(compaction) = compaction {
        let _ = compaction.run();
    }
    response
}

/// [`dispatch_with`], handing back the compaction the verb left due, unrun,
/// so the worker can queue the reply first.
fn dispatch_deferred(
    store: &SessionStore,
    request: Request,
    limits: &ServerLimits,
) -> (Response, Option<Compaction>) {
    let mut verbs = Verbs { store, due: None };
    let response = match handle(&mut verbs, request, limits) {
        Ok(response) => response,
        Err(error) => Response::Error(error),
    };
    (response, verbs.due)
}

/// The store as [`handle`] drives it: each session verb runs through
/// [`SessionStore::with_session_deferred`], and the compaction it leaves
/// due is kept for the caller.
struct Verbs<'a> {
    store: &'a SessionStore,
    due: Option<Compaction>,
}

impl Verbs<'_> {
    fn with_session<T>(
        &mut self,
        id: &str,
        f: impl FnOnce(&mut Session) -> Result<T, GdrError>,
    ) -> Result<T, StoreError> {
        let (value, due) = self.store.with_session_deferred(id, f)?;
        self.due = due;
        Ok(value)
    }
}

fn handle(
    verbs: &mut Verbs<'_>,
    request: Request,
    limits: &ServerLimits,
) -> Result<Response, WireError> {
    match request {
        Request::Hello { version: _ } => Ok(Response::Hello {
            version: PROTOCOL_VERSION,
            pipelining: true,
            compact: true,
            leases: true,
            max_outstanding: limits.max_outstanding,
            lease_ttl: limits.lease_ttl,
        }),
        Request::Open {
            session,
            table_csv,
            rules,
            strategy,
            seed,
            ground_truth_csv,
            policy,
            lease_ttl,
        } => {
            let mut spec = build_spec(
                &table_csv,
                &rules,
                strategy,
                seed,
                ground_truth_csv.as_deref(),
            )?;
            if let Some(policy) = policy {
                spec.team.policy = policy;
            }
            spec.team.lease_ttl = lease_ttl.unwrap_or(limits.lease_ttl);
            let handle = verbs.store.open(&session, spec).map_err(store_error)?;
            let dirty_tuples = {
                let guard = handle.lock().unwrap_or_else(PoisonError::into_inner);
                guard.engine().state().dirty_tuples().len()
            };
            Ok(Response::Opened {
                session,
                dirty_tuples,
            })
        }
        Request::Next { session } => {
            let plan = verbs
                .with_session(&session, |s| {
                    let plan = s.next()?;
                    Ok(plan_response(s, plan))
                })
                .map_err(store_error)?;
            Ok(plan)
        }
        Request::Answer {
            session,
            id,
            feedback,
        } => verbs
            .with_session(&session, |s| s.answer(WorkId::from_raw(id), feedback))
            .map(|verifications| Response::Answered { verifications })
            .map_err(store_error),
        Request::Supply {
            session,
            tuple,
            attr,
            value,
        } => verbs
            .with_session(&session, |s| s.supply((tuple, attr), value))
            .map(|verifications| Response::Supplied { verifications })
            .map_err(store_error),
        Request::Skip {
            session,
            tuple,
            attr,
        } => verbs
            .with_session(&session, |s| s.skip((tuple, attr)))
            .map(|()| Response::Skipped)
            .map_err(store_error),
        Request::Finish { session } => verbs
            .with_session(&session, |s| s.finish())
            .map(|reason| Response::Done { reason })
            .map_err(store_error),
        Request::Report { session } => verbs
            .with_session(&session, |s| {
                let engine = s.engine();
                let eval = engine.report().map(|report| WireEval {
                    initial_loss: report.initial_loss,
                    final_loss: report.final_loss,
                    improvement_pct: report.final_improvement_pct,
                    precision: report.accuracy.precision(),
                    recall: report.accuracy.recall(),
                });
                Ok(Response::Report {
                    verifications: engine.verifications(),
                    learner_decisions: engine.learner_decisions(),
                    dirty_tuples: engine.state().dirty_tuples().len(),
                    eval,
                })
            })
            .map_err(store_error),
        Request::Restore { session } => verbs
            .with_session(&session, |s| s.restore())
            .map(|replayed| Response::Restored { replayed })
            .map_err(store_error),
        Request::Compact { session } => verbs
            .with_session(&session, |s| {
                let stats = s.compact()?;
                Ok((stats, s.journal().transcript().len()))
            })
            .map(|(stats, tail)| Response::Compacted {
                events: stats.events,
                tail,
            })
            .map_err(store_error),
        Request::Lease { session, reviewer } => verbs
            .with_session(&session, |s| {
                let plan = s.lease(&reviewer)?;
                Ok(team_plan_response(s, plan))
            })
            .map_err(store_error),
        Request::AnswerAs {
            session,
            reviewer,
            id,
            feedback,
        } => verbs
            .with_session(&session, |s| {
                s.answer_as(&reviewer, WorkId::from_raw(id), feedback)
            })
            .map(|verifications| Response::Answered { verifications })
            .map_err(store_error),
        Request::SupplyAs {
            session,
            reviewer,
            id,
            value,
        } => verbs
            .with_session(&session, |s| {
                s.supply_as(&reviewer, WorkId::from_raw(id), value)
            })
            .map(|verifications| Response::Supplied { verifications })
            .map_err(store_error),
        Request::SkipAs {
            session,
            reviewer,
            id,
        } => verbs
            .with_session(&session, |s| s.skip_as(&reviewer, WorkId::from_raw(id)))
            .map(|()| Response::Skipped)
            .map_err(store_error),
        Request::Release {
            session,
            reviewer,
            id,
        } => verbs
            .with_session(&session, |s| {
                s.release_lease(&reviewer, WorkId::from_raw(id))
            })
            .map(|held| Response::Released { held })
            .map_err(store_error),
        Request::Leases { session } => verbs
            .with_session(&session, |s| {
                Ok(s.team()
                    .lease_table()
                    .into_iter()
                    .map(|info| WireLease {
                        id: info.id.raw(),
                        reviewer: info.reviewer,
                        tuple: info.cell.0,
                        attr: info.cell.1,
                        age: info.age,
                    })
                    .collect())
            })
            .map(|leases| Response::Leases { leases })
            .map_err(store_error),
    }
}

/// Maps a team plan onto its wire reply.  `leased` carries the cell's
/// current value (like `ask`) so a remote reviewer can decide without a
/// second round trip.
fn team_plan_response(session: &Session, plan: TeamPlan) -> Response {
    match plan {
        TeamPlan::Ask { id, update } => Response::Leased {
            id: id.raw(),
            tuple: update.tuple,
            attr: update.attr,
            current: current_value(session, update.cell()),
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

fn build_spec(
    table_csv: &str,
    rules_text: &str,
    strategy: gdr_core::strategy::Strategy,
    seed: Option<u64>,
    ground_truth_csv: Option<&str>,
) -> Result<OpenSpec, WireError> {
    let dirty = parse_csv("dirty", table_csv).map_err(|e| WireError::BadRequest {
        detail: format!("table_csv: {e}"),
    })?;
    let rules = gdr_cfd::parser::parse_rules(dirty.schema(), rules_text)
        .map(gdr_cfd::RuleSet::new)
        .map_err(|e| WireError::BadRequest {
            detail: format!("rules: {e}"),
        })?;
    let ground_truth = ground_truth_csv
        .map(|csv| {
            parse_csv("truth", csv).map_err(|e| WireError::BadRequest {
                detail: format!("ground_truth_csv: {e}"),
            })
        })
        .transpose()?;
    if let Some(truth) = &ground_truth {
        if !truth.schema().same_as(dirty.schema()) || truth.len() != dirty.len() {
            return Err(WireError::BadRequest {
                detail: "ground_truth_csv must have the same schema and row count as table_csv"
                    .to_string(),
            });
        }
    }
    let mut spec = OpenSpec::new(dirty, rules);
    spec.strategy = strategy;
    if let Some(seed) = seed {
        spec.config.seed = seed;
    }
    spec.ground_truth = ground_truth;
    Ok(spec)
}

/// Maps a work plan onto its wire reply, enriching it with the current cell
/// values a remote user needs to decide.
fn plan_response(session: &Session, plan: gdr_core::step::WorkPlan) -> Response {
    use gdr_core::step::WorkPlan;
    match plan {
        WorkPlan::AskUser {
            id,
            update,
            group_context,
            uncertainty,
        } => Response::Ask {
            id: id.raw(),
            tuple: update.tuple,
            attr: update.attr,
            current: current_value(session, update.cell()),
            value: update.value,
            score: update.score,
            uncertainty,
            group: group_context.map(|g| WireGroup {
                attr: g.attr,
                value: g.value,
                benefit: g.benefit,
                size: g.size,
                quota: g.quota,
                asked: g.asked,
            }),
        },
        WorkPlan::NeedsValue { cell } => Response::NeedValue {
            tuple: cell.0,
            attr: cell.1,
            current: current_value(session, cell),
        },
        WorkPlan::Done(reason) => Response::Done { reason },
    }
}

/// The value `cell` holds now, which replies show as `current`.
fn current_value(session: &Session, (tuple, attr): (TupleId, AttrId)) -> Value {
    session.engine().state().table().cell(tuple, attr).clone()
}

fn store_error(error: StoreError) -> WireError {
    match error {
        StoreError::UnknownSession(session) => WireError::UnknownSession { session },
        StoreError::DuplicateSession(session) => WireError::DuplicateSession { session },
        StoreError::Gdr(err) => err.into(),
    }
}

/// Longest request line the server reads, in bytes, not counting its
/// newline.  A 100k-row `open` is about 10 MB.  A longer line is answered
/// with `bad_request`; the rest of it is discarded up to the next newline
/// and the connection goes on serving.
pub const MAX_FRAME_BYTES: usize = 16 << 20;

/// A request line's echoed `seq` tag and its request, or why it is bad.
type Frame = (Option<u64>, Result<Request, String>);

/// Reads and decodes the next non-blank request line (`Ok(None)` at EOF),
/// buffering at most [`MAX_FRAME_BYTES`] + 1 bytes of it.
fn read_frame(reader: &mut impl BufRead) -> io::Result<Option<Frame>> {
    let mut line = Vec::new();
    loop {
        line.clear();
        let limit = MAX_FRAME_BYTES as u64 + 1;
        if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
            return Ok(None);
        }
        if line.len() > MAX_FRAME_BYTES && line.last() != Some(&b'\n') {
            reader.skip_until(b'\n')?;
            let detail = format!("request line longer than {MAX_FRAME_BYTES} bytes");
            return Ok(Some((None, Err(detail))));
        }
        if !is_blank(&line) {
            return Ok(Some(match std::str::from_utf8(&line) {
                Ok(text) => decode_request_frame(text.trim()),
                Err(_) => (None, Err("request line is not valid UTF-8".to_string())),
            }));
        }
    }
}

/// Whether [`read_frame`] skips `line` as blank.
fn is_blank(line: &[u8]) -> bool {
    std::str::from_utf8(line).is_ok_and(|text| text.trim().is_empty())
}

/// Whether `buffered` holds a complete non-blank line, which the next
/// [`read_frame`] returns without reading the socket.
fn holds_request_line(buffered: &[u8]) -> bool {
    let mut lines = buffered.split(|&byte| byte == b'\n');
    // The unterminated tail: empty when `buffered` ends with a newline.
    lines.next_back();
    lines.any(|line| !is_blank(line))
}

fn reply_line(response: &Response, seq: Option<u64>) -> String {
    let mut line = encode_response_frame(response, seq);
    line.push('\n');
    line
}

/// Tuning knobs for the threaded TCP server.
///
/// The builder starts from [`ServerConfig::default`]: every accepted
/// connection is served until EOF, requests without `seq` are answered
/// strictly in arrival order, and no durability is configured.
///
/// ```no_run
/// use std::net::TcpListener;
/// use gdr_serve::ServerConfig;
///
/// let config = ServerConfig::new().workers(2).max_outstanding(16);
/// let store = config.build_store()?;
/// let listener = TcpListener::bind("127.0.0.1:0")?;
/// config.serve(listener, store)?;
/// # Ok::<(), Box<dyn std::error::Error>>(())
/// ```
#[derive(Debug, Clone)]
pub struct ServerConfig {
    workers: usize,
    max_outstanding: usize,
    max_connections: Option<usize>,
    durability: Option<DurabilityConfig>,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            workers: 4,
            max_outstanding: 64,
            max_connections: None,
            durability: None,
        }
    }
}

impl ServerConfig {
    /// Starts from [`ServerConfig::default`].
    pub fn new() -> ServerConfig {
        ServerConfig::default()
    }

    /// Number of dispatch worker threads (clamped to at least 1).
    pub fn workers(mut self, workers: usize) -> ServerConfig {
        self.workers = workers.max(1);
        self
    }

    /// Per-connection cap on requests that are admitted but whose reply the
    /// connection's writer has not yet taken.  Requests beyond the cap are
    /// refused with a `busy` error reply without running.
    pub fn max_outstanding(mut self, cap: usize) -> ServerConfig {
        self.max_outstanding = cap.max(1);
        self
    }

    /// Stop accepting after this many connections and return once they are
    /// all served to EOF (`None` = accept forever).
    pub fn max_connections(mut self, max: Option<usize>) -> ServerConfig {
        self.max_connections = max;
        self
    }

    /// Serve sessions durably: journal to disk under this configuration.
    /// Consumed by [`ServerConfig::build_store`].
    pub fn durability(mut self, config: DurabilityConfig) -> ServerConfig {
        self.durability = Some(config);
        self
    }

    /// Builds the session store this configuration describes: durable when
    /// [`ServerConfig::durability`] was set, in-memory otherwise.
    pub fn build_store(&self) -> Result<Arc<SessionStore>, GdrError> {
        Ok(Arc::new(match self.durability.clone() {
            Some(config) => SessionStore::durable(config)?,
            None => SessionStore::new(),
        }))
    }

    /// Runs the server on `listener` until `max_connections` have been
    /// accepted and served to EOF (forever when `None`).  The calling
    /// thread accepts; each connection gets a reader and a writer thread,
    /// and requests run on the worker pool.
    ///
    /// If `accept` fails (other than by interruption), the server stops
    /// accepting, but returns the error only once every connection it
    /// already accepted has been served to EOF.
    pub fn serve(&self, listener: TcpListener, store: Arc<SessionStore>) -> io::Result<()> {
        let limits = ServerLimits {
            max_outstanding: self.max_outstanding,
            ..ServerLimits::default()
        };
        let pool = Arc::new(Pool::default());
        thread::scope(|workers| {
            let served = (0..self.workers)
                .try_for_each(|i| {
                    thread::Builder::new()
                        .name(format!("gdr-serve-worker-{i}"))
                        .spawn_scoped(workers, || worker_loop(&store, &pool, &limits))
                        .map(drop)
                })
                .and_then(|()| {
                    thread::scope(|conns| {
                        let mut accepted = 0;
                        while self.max_connections.is_none_or(|max| accepted < max) {
                            let stream = match listener.accept() {
                                Ok((stream, _peer)) => stream,
                                Err(err) if err.kind() == ErrorKind::Interrupted => continue,
                                Err(err) => return Err(err),
                            };
                            accepted += 1;
                            let conn = Arc::new(Conn {
                                state: Mutex::default(),
                                changed: Condvar::new(),
                                pool: Arc::clone(&pool),
                                max_outstanding: self.max_outstanding,
                            });
                            let spawned = thread::Builder::new()
                                .stack_size(CONN_STACK_BYTES)
                                .spawn_scoped(conns, move || {
                                    if let Err(err) = conn.serve(stream) {
                                        eprintln!("gdr-serve: connection failed: {err}");
                                    }
                                });
                            if let Err(err) = spawned {
                                eprintln!("gdr-serve: cannot start a connection thread: {err}");
                            }
                        }
                        Ok(())
                    })
                });
            // Every connection is done: release the workers to be joined.
            pool.close();
            served
        })
    }
}

/// Stack size of each connection's reader and writer thread: the reader
/// only decodes frames (with bounded nesting), verbs run on the pool.
const CONN_STACK_BYTES: usize = 256 << 10;

/// A request on its way to the worker pool, with the connection its reply
/// goes to.  An untagged one (`seq` is `None`) runs in order: finishing it
/// starts the connection's next untagged request.
struct Job {
    conn: Arc<Conn>,
    request: Request,
    seq: Option<u64>,
}

/// The worker pool's job queue.  Idle workers wait on a stack and a new
/// job wakes the one that went idle last, so a client that waits for each
/// reply keeps landing on one warm worker — rather than spreading its
/// session's allocations over every worker's malloc arena.
///
/// A worker that compacted a session after its reply (see [`worker_loop`])
/// readies *pinned* ([`Pool::ready_pinned`]): it goes on top of the stack
/// and stays there, the workers that served the session meanwhile going
/// under it, and the job that wakes it is handed to it alone instead of
/// being left for a running worker to take.  The session's verbs thus come
/// back to the worker whose arena holds its replay copy, and so does its
/// next compaction; without the pin, the copy would land in a second
/// worker's arena, which would grow to hold it too.
#[derive(Default)]
struct Pool {
    state: Mutex<PoolState>,
}

#[derive(Default)]
struct PoolState {
    jobs: VecDeque<Job>,
    /// Jobs that only the named worker may take.
    handed: Vec<(ThreadId, Job)>,
    /// Idle workers, the most recently idle last.
    idle: Vec<Thread>,
    /// The top of `idle`, while it is a worker that readied pinned.
    pinned: Option<ThreadId>,
    /// Set once no connection is left: workers return instead of waiting.
    closed: bool,
}

impl PoolState {
    fn make_idle(&mut self, worker: &Thread) {
        if !self.idle.iter().any(|idle| idle.id() == worker.id()) {
            // Under a pinned worker, not over it.
            let at = self.idle.len() - usize::from(self.pinned.is_some());
            self.idle.insert(at, worker.clone());
        }
    }
}

impl Pool {
    fn lock(&self) -> MutexGuard<'_, PoolState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn submit(&self, conn: &Arc<Conn>, request: Request, seq: Option<u64>) {
        let mut state = self.lock();
        let job = Job {
            conn: Arc::clone(conn),
            request,
            seq,
        };
        match state.idle.pop() {
            Some(worker) => {
                if state.pinned.take() == Some(worker.id()) {
                    state.handed.push((worker.id(), job));
                } else {
                    state.jobs.push_back(job);
                }
                worker.unpark();
            }
            None => state.jobs.push_back(job),
        }
    }

    fn close(&self) {
        let mut state = self.lock();
        state.closed = true;
        state.pinned = None;
        state.idle.drain(..).for_each(|worker| worker.unpark());
    }

    /// Puts `worker` on the idle stack ahead of [`Pool::next`]: on top,
    /// or just under a pinned worker.
    fn ready(&self, worker: &Thread) {
        self.lock().make_idle(worker);
    }

    /// Puts `worker`, which has just compacted, on top of the idle stack
    /// and pins it there (see [`Pool`]).
    fn ready_pinned(&self, worker: &Thread) {
        let mut state = self.lock();
        state.idle.retain(|idle| idle.id() != worker.id());
        state.idle.push(worker.clone());
        state.pinned = Some(worker.id());
    }

    /// The next job for `worker`, parking it while there is none; `None`
    /// once the pool is closed.
    fn next(&self, worker: &Thread) -> Option<Job> {
        let mut state = self.lock();
        loop {
            if let Some(at) = state.handed.iter().position(|(id, _)| *id == worker.id()) {
                return Some(state.handed.swap_remove(at).1);
            }
            if let Some(job) = state.jobs.pop_front() {
                state.idle.retain(|idle| idle.id() != worker.id());
                if state.pinned == Some(worker.id()) {
                    state.pinned = None;
                }
                return Some(job);
            }
            if state.closed {
                return None;
            }
            // Also after a wake-up whose job another worker took.
            state.make_idle(worker);
            drop(state);
            thread::park();
            state = self.lock();
        }
    }
}

/// A worker: runs jobs until the pool closes.  A verb that leaves a
/// compaction due gets its reply queued first; the worker then runs the
/// compaction, with the session unlocked but for its install, and only
/// then readies itself.  The idle stack is LIFO, so a worker that readied
/// before compacting would be handed the reviewer's very next request and
/// make it wait out the compaction; readying after it sends that request
/// to another worker.
fn worker_loop(store: &SessionStore, pool: &Pool, limits: &ServerLimits) {
    let me = thread::current();
    while let Some(job) = pool.next(&me) {
        // A panicking verb must cost its requester an error reply, never
        // the worker thread (a dead worker would silently shrink the pool).
        let (response, compaction) = catch_unwind(AssertUnwindSafe(|| {
            dispatch_deferred(store, job.request, limits)
        }))
        .unwrap_or_else(|_| {
            let error = WireError::Engine {
                detail: "panic while serving request".to_string(),
            };
            (Response::Error(error), None)
        });
        let reply = reply_line(&response, job.seq);
        match compaction {
            None => {
                // Ready up before the reply goes out, so the request it
                // provokes comes back to this worker even if the hand-off
                // preempts it.
                pool.ready(&me);
                job.conn.reply(reply, job.seq.is_none());
            }
            Some(compaction) => {
                job.conn.reply(reply, job.seq.is_none());
                match catch_unwind(AssertUnwindSafe(|| compaction.run())) {
                    Ok(Ok(_)) => {}
                    Ok(Err(err)) => eprintln!("gdr-serve: compaction adopted nothing: {err}"),
                    Err(_) => eprintln!("gdr-serve: panic while compacting"),
                }
                pool.ready_pinned(&me);
            }
        }
    }
}

/// An untagged request waiting its strictly-in-order turn — or a locally
/// produced reply (`bad_request` / `busy`) that must keep its place in
/// that order.
enum Pending {
    Request(Request),
    Reply(String),
}

/// One connection, shared by its reader thread (which admits requests),
/// the workers (which answer them) and its writer thread (which writes the
/// replies).
struct Conn {
    state: Mutex<ConnState>,
    /// Signalled when replies are queued or written, and at hang-up: the
    /// writer waits for replies, the reader for its backlog to shrink.
    changed: Condvar,
    pool: Arc<Pool>,
    max_outstanding: usize,
}

#[derive(Default)]
struct ConnState {
    /// Reply lines for the writer, each flagged whether it answers an
    /// admitted request (and so holds an `outstanding` slot).
    outbox: VecDeque<(String, bool)>,
    /// Admitted requests whose reply the writer has not yet taken.
    outstanding: usize,
    /// Locally produced replies the writer has not yet taken.
    local: usize,
    /// Untagged requests and the replies to untagged bad lines, in arrival
    /// order.
    in_order: VecDeque<Pending>,
    /// Whether an untagged request is on the worker pool.
    in_order_running: bool,
    /// The reader has stopped; the writer returns once every reply is out.
    hung_up: bool,
}

impl Conn {
    fn lock(&self) -> MutexGuard<'_, ConnState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn wait<'a>(&self, state: MutexGuard<'a, ConnState>) -> MutexGuard<'a, ConnState> {
        self.changed
            .wait(state)
            .unwrap_or_else(PoisonError::into_inner)
    }

    /// Serves the connection: starts its writer, reads requests until EOF,
    /// then waits until every admitted request's reply is written.
    fn serve(self: Arc<Self>, stream: TcpStream) -> io::Result<()> {
        // One small line per reply; never wait out Nagle.
        stream.set_nodelay(true).ok();
        let write_half = stream.try_clone()?;
        thread::scope(|scope| {
            thread::Builder::new()
                .stack_size(CONN_STACK_BYTES)
                .spawn_scoped(scope, || self.write_replies(write_half))?;
            let read = self.read_requests(stream);
            let mut state = self.lock();
            state.hung_up = true;
            self.advance(&mut state);
            drop(state);
            self.changed.notify_all();
            read
        })
    }

    /// Reads requests until EOF.  Tagged requests go straight to the worker
    /// pool; untagged ones, and the replies to untagged bad lines, join the
    /// in-order queue; requests over the `max_outstanding` cap are refused
    /// with `busy`.  While `max_outstanding` local replies wait for the
    /// writer, the reader stops reading, so TCP pushes back on a client
    /// that floods without reading.
    fn read_requests(self: &Arc<Self>, stream: TcpStream) -> io::Result<()> {
        let mut reader = BufReader::new(stream);
        while let Some((seq, decoded)) = read_frame(&mut reader)? {
            let mut state = self.lock();
            while state.local >= self.max_outstanding {
                // The backlog may be waiting for its in-order turn rather
                // than for the writer.
                self.advance(&mut state);
                self.changed.notify_all();
                state = self.wait(state);
            }
            match decoded {
                Ok(request) if state.outstanding < self.max_outstanding => {
                    state.outstanding += 1;
                    match seq {
                        Some(_) => self.pool.submit(self, request, seq),
                        None => state.in_order.push_back(Pending::Request(request)),
                    }
                }
                refused => {
                    state.local += 1;
                    let error = match refused {
                        Err(detail) => WireError::BadRequest { detail },
                        Ok(_) => WireError::Busy {
                            max_outstanding: self.max_outstanding,
                        },
                    };
                    let line = reply_line(&Response::Error(error), seq);
                    match seq {
                        Some(_) => state.outbox.push_back((line, false)),
                        None => state.in_order.push_back(Pending::Reply(line)),
                    }
                }
            }
            // Untagged requests start only once the next read may block, so
            // tagged requests that arrived behind them in the same batch are
            // not held up by them.  Buffered blank lines do not count: the
            // next read skips them and then blocks.
            if !holds_request_line(reader.buffer()) {
                self.advance(&mut state);
            }
            // Only a reply is news to the writer; a request on its way to
            // the pool would just wake it for nothing.
            let wake = !state.outbox.is_empty();
            drop(state);
            if wake {
                self.changed.notify_all();
            }
        }
        Ok(())
    }

    /// Moves the in-order queue forward while no untagged request runs:
    /// local replies go to the writer, the next request to the pool.
    fn advance(self: &Arc<Self>, state: &mut ConnState) {
        while !state.in_order_running {
            match state.in_order.pop_front() {
                None => break,
                Some(Pending::Reply(line)) => state.outbox.push_back((line, false)),
                Some(Pending::Request(request)) => {
                    state.in_order_running = true;
                    self.pool.submit(self, request, None);
                }
            }
        }
    }

    /// Hands a worker's reply to the writer; after an untagged request,
    /// starts the next one in order.
    fn reply(self: &Arc<Self>, line: String, in_order: bool) {
        let mut state = self.lock();
        state.outbox.push_back((line, true));
        if in_order {
            state.in_order_running = false;
            self.advance(&mut state);
        }
        drop(state);
        self.changed.notify_all();
    }

    /// Writes replies as they arrive, everything queued in one batch.  Each
    /// reply's slot is freed when the batch is taken, not after the flush:
    /// a client may read a reply before this thread relocks, and a request
    /// it sends then must find that slot free.  After a failed write the
    /// client is gone: replies are discarded so the connection can still
    /// wind down.  Returns once the reader has stopped and every reply is
    /// out.
    fn write_replies(&self, stream: TcpStream) {
        let mut out = BufWriter::new(stream);
        let mut healthy = true;
        let mut state = self.lock();
        loop {
            if state.outbox.is_empty() {
                if state.hung_up && state.outstanding == 0 && state.local == 0 {
                    return;
                }
                state = self.wait(state);
                continue;
            }
            let batch = std::mem::take(&mut state.outbox);
            let admitted = batch.iter().filter(|(_, admitted)| *admitted).count();
            state.outstanding -= admitted;
            state.local -= batch.len() - admitted;
            drop(state);
            self.changed.notify_all();
            if healthy {
                let written = batch
                    .iter()
                    .try_for_each(|(line, _)| out.write_all(line.as_bytes()))
                    .and_then(|()| out.flush());
                if let Err(err) = written {
                    eprintln!("gdr-serve: connection failed: {err}");
                    healthy = false;
                }
            }
            state = self.lock();
        }
    }
}
