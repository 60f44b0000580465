//! The session store: many concurrent engines, persisted by **replay**.
//!
//! A GDR engine is deterministic: the same build inputs plus the same answer
//! transcript always reproduce the same state, bit for bit (this is what
//! `tests/step_equivalence.rs` pins for the in-process drivers).  The store
//! leans on that instead of snapshotting engine internals: each session
//! journals its build inputs ([`OpenSpec`]) and every *successful*,
//! state-changing verb ([`TranscriptEvent`]), and [`Session::restore`]
//! rebuilds the engine by replaying the journal through the public pull API.
//! Pulls are not journaled, although one made with no item outstanding runs
//! real bookkeeping (group selection, the learner phase that closes the
//! previous group, suggestion refresh, checkpoints).  Replay infers them:
//! every verb that needs an outstanding item pulls first, live and on
//! replay alike (with an item outstanding, a pull is a pure re-serve), and
//! [`TranscriptEvent::Finished`] records whether a pull preceded `finish`.
//! A pull after the last event needs no record: the next pull repeats it,
//! with the same work id.  A failed verb journals nothing; at most it
//! leaves such a pull behind.
//!
//! Multi-reviewer sessions journal the same way: every state-changing
//! coordinator operation — a lease grant, a clock-ticking wait, an accepted
//! `answer_as`/`supply_as`/`skip_as`, a release that held — is one event,
//! and the [`gdr_core::team::TeamSession`] coordinator is deterministic, so
//! replaying the operation sequence reproduces leases, conflict state, and
//! the applied-resolution log bit-for-bit.  The record of an accepted
//! `*_as` verb also carries the resolutions that verb committed, as (log
//! index, resolution) pairs; replay applies the verb, then cross-checks
//! each carried pair against its recomputed log.  One team verb is one
//! record, one append and (under `EveryRecord`) one fsync.
//!
//! ## Compaction
//!
//! Replaying from the `open` verb makes restore cost grow with session
//! length, and so does the in-memory transcript.  Compaction bounds both in
//! three steps:
//!
//! 1. **prepare**, under the session lock: encode the live session once
//!    ([`TeamSession::state_bytes`]) and capture the replay base bytes,
//!    the tail events it will cover, whether a pull is pending, and the
//!    session's journal epoch;
//! 2. **run**, with no lock held: replay the captured journal, check that
//!    it re-encodes to the live payload byte for byte, frame the payload
//!    and, in durable mode, write, fsync and rename the
//!    `snap-NNNNNN.gdrs` checkpoint;
//! 3. **install**, under a short re-lock: adopt the frame as the journal's
//!    new replay base and drop the covered tail from RAM — unless the epoch
//!    moved meanwhile.  `restore`, an explicit `compact`, `remove` and
//!    rehydration (a new session, a new epoch) all move it, so a stale
//!    compaction installs nothing.
//!
//! From then on `replay` is "decode snapshot + replay short tail".  The
//! session keeps one decoded engine, the live one: its replay bases are
//! `S2` bytes, the spec record and the newest checkpoint frame.  Sessions
//! auto-compact once the tail reaches
//! [`crate::journal::JournalConfig::compact_every`] events, so journal
//! memory is O(compact_every), not O(session length); at most one
//! compaction per session is in flight.
//!
//! Who runs the automatic compaction: a standalone session's verb runs all
//! three steps before it returns, and so do [`SessionStore::with_session`]
//! and the in-process `dispatch`, which run step 2 with the lock released;
//! checkpoints therefore land at the same event counts as when every step
//! ran under the lock.  The threaded server takes the due compaction from
//! [`SessionStore::with_session_deferred`] and queues the verb's reply
//! before it runs it ([`Compaction`]), so the reviewer no longer waits for
//! the replay or the fsync.  A caller that locks a store session straight
//! from [`SessionStore::get`] leaves a due compaction pending; it runs
//! inline at the session's next verb.  If the replay does not reproduce the
//! live payload, nothing is adopted and the session is rebuilt from its
//! journal — the on-disk one when durable — before its next verb.
//!
//! ## Durability
//!
//! A store created with [`SessionStore::durable`] additionally writes every
//! journal to disk ([`crate::journal::DiskJournal`]): the spec at open,
//! every event as it is applied (fsync'd before the verb returns under the
//! default [`crate::journal::FsyncPolicy::EveryRecord`]), and a
//! checkpoint at each compaction.  Sessions rehydrate transparently
//! on the next verb after a crash or an eviction — [`SessionStore::get`]
//! falls back to the on-disk journal when the id is not live — and idle
//! sessions are LRU-evicted from RAM once `max_live_sessions` is exceeded
//! (only sessions nobody currently holds; the disk journal is already
//! complete, so eviction is just dropping the in-memory copy).
//!
//! ## Locking: sharded maps, per-session mutexes
//!
//! The store is **sharded**: session ids route to one of [`STORE_SHARDS`]
//! independent mutex-guarded maps by a stable FNV-1a hash of the id, so
//! an `open`, lookup, or eviction on one shard never blocks traffic on
//! another.  A request locks its shard only to look up (or insert) the
//! `Arc<Mutex<Session>>`, then drives the engine under the per-session
//! mutex — sessions never block one another, and under the multiplexed
//! server many connections resolve ids concurrently.  LRU eviction keeps a
//! **global** budget ([`DurabilityConfig::max_live_sessions`], tracked by
//! an atomic live counter) over **per-shard accounting**: each shard
//! maintains its own LRU index (`stamp → id`, stamps from one monotone
//! store clock) under its lock, victim selection takes the oldest of each
//! shard's idle candidate instead of scanning every live session, and the
//! eviction commits under the victim's shard lock after re-validation
//! (still present, still idle, not touched since) — borrowers clone the
//! session `Arc` under the shard lock, so a session observed idle under
//! that lock cannot gain a borrower while it is evicted.  Each shard also
//! has a claim lock, held while a session is created or rehydrated and
//! inserted, so a session id never has two live copies.  Poisoned locks
//! are recovered (`PoisonError::into_inner`): a panicking worker must not
//! take every other session down, and `restore` rebuilds a
//! definitely-consistent engine from the journal if a panic left the live
//! one suspect.
//!
//! A compaction holds the session lock to prepare and to install, not
//! while it replays and writes.  Meanwhile it holds the session's `Arc`, so
//! eviction (which takes only sessions nobody borrows) skips the session.
//! Its checkpoint write holds the directory's checkpoint lock instead, which
//! `remove` takes to close the directory before deleting it: a compaction
//! in flight never writes into, or recreates, a removed session's
//! directory.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

use gdr_cfd::RuleSet;
use gdr_core::config::GdrConfig;
use gdr_core::error::GdrError;
use gdr_core::step::{GdrEngine, SessionBuilder, WorkId, WorkPlan};
use gdr_core::strategy::Strategy;
use gdr_core::team::{Resolution, TeamConfig, TeamPlan, TeamSession};
use gdr_relation::codec::{self, fnv1a64};
use gdr_relation::{Table, Value};
use gdr_repair::{Cell, Feedback};

use crate::journal::{
    decode_spec, encode_spec, session_dir_name, session_shard, Checkpoints, DiskJournal,
    JournalConfig, JournalError, RecoveryReport,
};

/// Number of independent session-map shards (a power of two, so routing is
/// a mask).  Sixteen keeps per-shard maps small at every realistic live
/// count while costing nothing when only a handful of sessions exist.
pub const STORE_SHARDS: usize = 16;

/// Everything needed to (re)build a session's engine — the journaled build
/// inputs.
#[derive(Debug, Clone)]
pub struct OpenSpec {
    /// The dirty instance to repair.
    pub dirty: Table,
    /// The rules it must come to satisfy.
    pub rules: RuleSet,
    /// The repair strategy.
    pub strategy: Strategy,
    /// The session configuration (seed, `n_s`, forest, …).
    pub config: GdrConfig,
    /// Optional ground truth: installs evaluation hooks, enabling loss
    /// checkpoints and the accuracy figures in `report`.
    pub ground_truth: Option<Table>,
    /// Multi-reviewer coordination (conflict policy, lease TTL).  Sessions
    /// driven by a single reviewer never notice it; the team verbs
    /// ([`Session::lease`] and friends) serve under it.
    pub team: TeamConfig,
}

impl OpenSpec {
    /// A spec from the two required inputs, defaulting the rest (strategy
    /// [`Strategy::Gdr`], default config, no ground truth, default
    /// [`TeamConfig`]).
    pub fn new(dirty: Table, rules: RuleSet) -> OpenSpec {
        OpenSpec {
            dirty,
            rules,
            strategy: Strategy::Gdr,
            config: GdrConfig::default(),
            ground_truth: None,
            team: TeamConfig::default(),
        }
    }

    fn build(self) -> TeamSession {
        let builder = SessionBuilder::new(self.dirty, &self.rules)
            .strategy(self.strategy)
            .config(self.config);
        let engine = match self.ground_truth {
            Some(truth) => builder.ground_truth(truth).build(),
            None => builder.build(),
        };
        TeamSession::new(engine, self.team)
    }
}

/// One successful, state-changing protocol step, as journaled.
#[derive(Debug, Clone, PartialEq)]
pub enum TranscriptEvent {
    /// `answer(id, feedback)` was applied.
    Answered(u64, Feedback),
    /// `supply_value(cell, value)` was applied.
    Supplied(Cell, Value),
    /// `skip_value(cell)` was applied.
    Skipped(Cell),
    /// `finish()` concluded the session.
    Finished {
        /// The engine held a served item or had concluded, so replay pulls
        /// before finishing: the unjournaled pull that got it there (e.g.
        /// one that crossed a group boundary), or else a pure re-serve.
        pulled: bool,
    },
    /// A state-changing [`TeamSession::next_work_for`] granted lease `id`
    /// to `reviewer`.  Replay re-runs the pull and validates the recomputed
    /// grant against the recorded id — the coordinator is deterministic, so
    /// a mismatch means the journal was edited.
    Leased {
        /// The pulling reviewer.
        reviewer: String,
        /// The granted lease id ([`WorkId::raw`]).
        id: u64,
    },
    /// A state-changing [`TeamSession::next_work_for`] returned
    /// [`TeamPlan::Wait`] for `reviewer`.  Journaled because even a `Wait`
    /// ticks the coordinator clock (it is how abandoned leases age out).
    Waited {
        /// The pulling reviewer.
        reviewer: String,
    },
    /// `answer_as(reviewer, id, feedback)` was applied.
    AnsweredAs {
        /// The answering reviewer.
        reviewer: String,
        /// The lease id answered.
        id: u64,
        /// The reviewer's feedback.
        feedback: Feedback,
        /// The `(index, resolution)` entries of [`TeamSession::resolutions`]
        /// the verb committed (none for a quorum's first vote).  Replay
        /// recomputes them and cross-checks each: a typed error, not drift.
        resolved: Vec<(usize, Resolution)>,
    },
    /// `supply_as(reviewer, id, value)` was applied.
    SuppliedAs {
        /// The supplying reviewer.
        reviewer: String,
        /// The lease id supplied.
        id: u64,
        /// The typed value.
        value: Value,
        /// The resolutions the verb committed, as for `AnsweredAs`.
        resolved: Vec<(usize, Resolution)>,
    },
    /// `skip_as(reviewer, id)` was applied.
    SkippedAs {
        /// The declining reviewer.
        reviewer: String,
        /// The lease id skipped.
        id: u64,
        /// The resolutions the verb committed, as for `AnsweredAs`.
        resolved: Vec<(usize, Resolution)>,
    },
    /// `release(reviewer, id)` returned a lease to the pool.
    Released {
        /// The releasing reviewer.
        reviewer: String,
        /// The released lease id.
        id: u64,
    },
}

/// The replay base a compaction installs: the validated live session's
/// [`TeamSession::to_snapshot_bytes`] frame (in durable mode, byte for byte
/// the newest `snap-NNNNNN.gdrs` file), standing in for the `events`
/// transcript entries it absorbed.
#[derive(Debug, Clone)]
struct JournalSnapshot {
    frame: Arc<Vec<u8>>,
    events: usize,
    ends_finished: bool,
}

/// The per-session journal: the spec record, an optional compaction
/// snapshot, and the transcript tail recorded since that snapshot.  Both
/// bases are `S2` bytes; replay decodes the snapshot when there is one and
/// builds from the spec otherwise.
#[derive(Debug, Clone)]
pub struct SessionJournal {
    /// The spec record payload ([`encode_spec`]), as `spec.gdrj` frames it.
    spec: Arc<Vec<u8>>,
    snapshot: Option<JournalSnapshot>,
    tail: Vec<TranscriptEvent>,
}

impl SessionJournal {
    /// A journal rebuilt from externally recovered events (the on-disk
    /// path): no snapshot, the whole transcript as tail.
    pub fn from_events(spec: OpenSpec, events: Vec<TranscriptEvent>) -> SessionJournal {
        SessionJournal::from_record(encode_spec(&spec), events)
    }

    /// [`SessionJournal::from_events`] over an encoded spec record.
    fn from_record(spec: Vec<u8>, tail: Vec<TranscriptEvent>) -> SessionJournal {
        SessionJournal {
            spec: Arc::new(spec),
            snapshot: None,
            tail,
        }
    }

    /// A journal seeded from a decoded on-disk checkpoint: `team` stands in
    /// for the first `covered` events of the recovered transcript and only
    /// the remainder stays as the replayable tail.  This is what makes cold
    /// recovery *load snapshot + replay tail* instead of a full replay.
    pub fn from_checkpoint(
        spec: OpenSpec,
        team: TeamSession,
        covered: usize,
        events: &[TranscriptEvent],
    ) -> SessionJournal {
        let mut journal = SessionJournal::from_events(spec, events.to_vec());
        journal.install_snapshot(team.to_snapshot_bytes(), covered);
        journal
    }

    /// The in-memory transcript tail: every event since the last compaction
    /// snapshot (the full transcript when none has happened), in
    /// application order.
    pub fn transcript(&self) -> &[TranscriptEvent] {
        &self.tail
    }

    /// Events absorbed into the compaction snapshot (0 when none).
    pub fn snapshot_events(&self) -> usize {
        self.snapshot.as_ref().map_or(0, |s| s.events)
    }

    /// Total events the session has applied: snapshot + tail.
    pub fn events_total(&self) -> usize {
        self.snapshot_events() + self.tail.len()
    }

    /// Whether the first `covered` tail events (the snapshot, when there
    /// are none) end with `finish`.
    fn finished_after(&self, covered: usize) -> bool {
        match self.tail[..covered].last() {
            Some(event) => matches!(event, TranscriptEvent::Finished { .. }),
            None => self.snapshot.as_ref().is_some_and(|s| s.ends_finished),
        }
    }

    /// Installs `frame` — a snapshot of a session that embodies the
    /// snapshot so far plus the first `covered` tail events — as the new
    /// replay base and drops the tail it absorbed.
    fn install_snapshot(&mut self, frame: Vec<u8>, covered: usize) {
        self.snapshot = Some(JournalSnapshot {
            frame: Arc::new(frame),
            events: self.snapshot_events() + covered,
            ends_finished: self.finished_after(covered),
        });
        self.tail.drain(..covered);
    }

    /// Rebuilds the session — decoding the compaction snapshot when one
    /// exists, building from the spec record otherwise — and replays the
    /// tail through the public pull API.  Determinism makes the result
    /// bit-identical to the session the transcript was recorded from; a
    /// divergence (e.g. a journal edited by hand) surfaces as a typed
    /// [`GdrError`] because the replayed work ids or resolutions no longer
    /// line up.
    pub fn replay(&self) -> Result<TeamSession, GdrError> {
        let base = match &self.snapshot {
            Some(snapshot) => {
                TeamSession::from_snapshot_bytes(&snapshot.frame).map_err(|e| e.detail)
            }
            None => decode_spec(&self.spec).map(OpenSpec::build),
        }
        .map_err(|detail| GdrError::Journal {
            detail: format!("undecodable replay base: {detail}"),
        })?;
        SessionJournal::replay_onto(base, &self.tail)
    }

    /// Replays `events` onto `team` through the public pull API.
    fn replay_onto(
        mut team: TeamSession,
        events: &[TranscriptEvent],
    ) -> Result<TeamSession, GdrError> {
        for event in events {
            match event {
                // Each verb pulls before applying, exactly as the live verb
                // did: this re-runs the unjournaled pull that served the
                // item, or re-serves it purely when an earlier event (or the
                // snapshot) already did.
                TranscriptEvent::Answered(raw, feedback) => {
                    let engine = team.engine_mut();
                    engine.next_work()?;
                    engine.answer(WorkId::from_raw(*raw), *feedback)?;
                }
                TranscriptEvent::Supplied(cell, value) => {
                    let engine = team.engine_mut();
                    engine.next_work()?;
                    engine.supply_value(*cell, value.clone())?;
                }
                TranscriptEvent::Skipped(cell) => {
                    let engine = team.engine_mut();
                    engine.next_work()?;
                    engine.skip_value(*cell)?;
                }
                TranscriptEvent::Finished { pulled } => {
                    if *pulled {
                        team.engine_mut().next_work()?;
                    }
                    team.finish()?;
                }
                TranscriptEvent::Leased { reviewer, id } => {
                    let granted = match team.next_work_for(reviewer)? {
                        TeamPlan::Ask { id, .. } | TeamPlan::Fix { id, .. } => Some(id.raw()),
                        TeamPlan::Wait | TeamPlan::Done(_) => None,
                    };
                    if granted != Some(*id) {
                        return Err(GdrError::Journal {
                            detail: format!(
                                "replayed lease for `{reviewer}` granted {granted:?}, \
                                 journal recorded {id}"
                            ),
                        });
                    }
                }
                TranscriptEvent::Waited { reviewer } => {
                    let plan = team.next_work_for(reviewer)?;
                    if plan != TeamPlan::Wait {
                        return Err(GdrError::Journal {
                            detail: format!(
                                "replayed pull for `{reviewer}` served {plan:?}, \
                                 journal recorded a wait"
                            ),
                        });
                    }
                }
                TranscriptEvent::AnsweredAs {
                    reviewer,
                    id,
                    feedback,
                    ..
                } => {
                    team.answer_as(reviewer, WorkId::from_raw(*id), *feedback)?;
                }
                TranscriptEvent::SuppliedAs {
                    reviewer,
                    id,
                    value,
                    ..
                } => {
                    team.supply_as(reviewer, WorkId::from_raw(*id), value.clone())?;
                }
                TranscriptEvent::SkippedAs { reviewer, id, .. } => {
                    team.skip_as(reviewer, WorkId::from_raw(*id))?;
                }
                TranscriptEvent::Released { reviewer, id } => {
                    if !team.release(reviewer, WorkId::from_raw(*id))? {
                        return Err(GdrError::Journal {
                            detail: format!(
                                "replayed release of lease {id} by `{reviewer}` was a no-op; \
                                 the journal only records releases that held"
                            ),
                        });
                    }
                }
            }
            if let TranscriptEvent::AnsweredAs { resolved, .. }
            | TranscriptEvent::SuppliedAs { resolved, .. }
            | TranscriptEvent::SkippedAs { resolved, .. } = event
            {
                for (index, resolution) in resolved {
                    let recomputed = team.resolutions().get(*index);
                    if recomputed != Some(resolution) {
                        return Err(GdrError::Journal {
                            detail: format!(
                                "resolution {index} diverged on replay: journal recorded \
                                 {resolution:?}, replay produced {recomputed:?}"
                            ),
                        });
                    }
                }
            }
        }
        Ok(team)
    }
}

/// What an installed compaction did: [`Session::compact`]'s result, and
/// [`Compaction::run`]'s when the job was not stale.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Total events the snapshot now covers.
    pub events: usize,
    /// Tail events dropped from RAM by this compaction.
    pub dropped: usize,
}

/// Where a session's automatic compaction stands.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CompactState {
    /// Nothing is owed.
    Idle,
    /// The tail reached `compact_every` and no compaction is prepared yet.
    Due,
    /// A compaction is prepared and runs, or waits to run, unlocked.
    Running,
    /// A compaction's replay did not re-encode to the live payload: the
    /// session is rebuilt from its journal before its next verb.
    Diverged,
}

/// Draws a journal epoch.  Epochs are unique across sessions, so a
/// rehydrated session never shares one with the copy it replaced.
fn next_epoch() -> u64 {
    static EPOCHS: AtomicU64 = AtomicU64::new(0);
    EPOCHS.fetch_add(1, Ordering::Relaxed)
}

/// The lock-free part of a compaction, prepared under the session lock
/// ([`Session::prepare`]): the live payload, the journal prefix it must
/// replay to, and where to write the checkpoint.
#[derive(Debug)]
struct CompactionJob {
    /// The live session's state payload.
    live: Vec<u8>,
    /// The replay base and the `covered` tail events past it.
    journal: SessionJournal,
    /// Whether the live engine holds a pull the journal does not record.
    pull_pending: bool,
    /// Total events the checkpoint covers.
    events: usize,
    /// The session's epoch at preparation.
    epoch: u64,
    checkpoints: Option<Checkpoints>,
}

/// Why a compaction's run adopted nothing.
#[derive(Debug)]
enum Refusal {
    /// The journal does not replay to the live payload.
    Diverged(GdrError),
    /// The checkpoint could not be written.
    Failed(GdrError),
}

impl CompactionJob {
    /// Replays the journal prefix, compares it with the live payload byte
    /// for byte, frames the payload and writes the checkpoint; holds no
    /// session lock.  Returns the frame to install.
    fn run(&self) -> Result<Vec<u8>, Refusal> {
        let mut team = self.journal.replay().map_err(Refusal::Diverged)?;
        if self.pull_pending {
            team.engine_mut().next_work().map_err(Refusal::Diverged)?;
        }
        let rebuilt = team.state_bytes();
        drop(team);
        if rebuilt != self.live {
            return Err(Refusal::Diverged(GdrError::Journal {
                detail: format!(
                    "compaction validation failed: replayed digest {:016x} != \
                     live digest {:016x} after {} events",
                    fnv1a64(&rebuilt),
                    fnv1a64(&self.live),
                    self.events
                ),
            }));
        }
        let frame = codec::frame(&self.live);
        if let Some(checkpoints) = &self.checkpoints {
            checkpoints
                .write(self.events, &frame)
                .map_err(|err| Refusal::Failed(err.into()))?;
        }
        Ok(frame)
    }
}

/// A compaction a store session's verb left due, prepared under the
/// session lock and not yet run.  [`Compaction::run`] validates and writes
/// the checkpoint with the lock released, then re-locks briefly to install
/// it.  It holds the session's `Arc`, so the store does not evict the
/// session meanwhile.  Dropping it unrun gives the session's compaction
/// slot back: the next event that finds the tail due prepares a new one.
#[derive(Debug)]
pub struct Compaction {
    session: Arc<Mutex<Session>>,
    job: Option<CompactionJob>,
}

impl Compaction {
    /// Runs the compaction: replays, compares and writes the checkpoint
    /// unlocked, then installs the frame under a short re-lock unless the
    /// session's epoch moved meanwhile (a `restore`, an explicit `compact`,
    /// or a `remove`), in which case the stale job is dropped and this
    /// returns `Ok(None)`.  A replay that does not reproduce the live
    /// payload is an error, and the session is rebuilt from its journal
    /// before its next verb.  If verbs that ran meanwhile have made the
    /// tail due again, the next compaction is prepared under the same
    /// re-lock and run here too, so a session's compactions stay on one
    /// thread; the stats are the last one's.
    pub fn run(mut self) -> Result<Option<CompactionStats>, GdrError> {
        loop {
            // Taken only after the run: a run that panics leaves the job
            // in place for `drop` to give the slot back.
            let ran = self.job.as_ref().map(CompactionJob::run);
            let (job, ran) = self.job.take().zip(ran).expect("a compaction runs once");
            let mut session = lock_recovering(&self.session);
            session.compaction = CompactState::Idle;
            let stats = session.install(&job, ran)?;
            if stats.is_some() && session.check_due() {
                self.job = session.prepare_due();
            } else {
                return Ok(stats);
            }
        }
    }
}

impl Drop for Compaction {
    fn drop(&mut self) {
        if self.job.is_some() {
            let mut session = lock_recovering(&self.session);
            if session.compaction == CompactState::Running {
                session.compaction = CompactState::Idle;
            }
        }
    }
}

/// How to construct a [`Session`]: journal tunables plus optional on-disk
/// durability, in one builder.
///
/// ```
/// use gdr_serve::store::SessionOptions;
/// use gdr_serve::journal::JournalConfig;
///
/// // In-memory, default journal tunables:
/// let options = SessionOptions::new();
/// // Durable under a directory, custom compaction cadence:
/// let options = SessionOptions::new()
///     .journal(JournalConfig { compact_every: 8, ..JournalConfig::default() })
///     .durable("/tmp/gdr-doc-session");
/// # let _ = options;
/// ```
#[derive(Debug, Clone, Default)]
pub struct SessionOptions {
    journal: JournalConfig,
    durable_dir: Option<PathBuf>,
}

impl SessionOptions {
    /// Defaults: in-memory journal, default [`JournalConfig`].
    pub fn new() -> SessionOptions {
        SessionOptions::default()
    }

    /// Sets the journal tunables (auto-compaction cadence, fsync policy).
    pub fn journal(mut self, config: JournalConfig) -> SessionOptions {
        self.journal = config;
        self
    }

    /// Also writes the journal to `dir` on disk.  The directory is claimed
    /// atomically at open (a concurrent create of the same dir fails), the
    /// spec record is fsync'd before the engine is built, and every
    /// subsequent event is appended (and fsync'd, under the default policy)
    /// before its verb returns.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> SessionOptions {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Builds the engine from `spec` and opens the session.  Only the
    /// durable path can fail (journal-directory claim or first write); an
    /// in-memory open is infallible.
    pub fn open(self, spec: OpenSpec) -> Result<Session, GdrError> {
        let record = encode_spec(&spec);
        let disk = match self.durable_dir {
            Some(dir) => Some(DiskJournal::create_from_record(dir, &record, self.journal)?),
            None => None,
        };
        Ok(Session::start(spec.build(), record, self.journal, disk))
    }
}

/// A live session: the engine under its multi-reviewer coordinator, its
/// journal, and (in durable mode) the on-disk journal every event is
/// appended to.
#[derive(Debug)]
pub struct Session {
    team: TeamSession,
    journal: SessionJournal,
    config: JournalConfig,
    disk: Option<DiskJournal>,
    compaction: CompactState,
    /// Bumped by `restore`, an explicit `compact` and `remove`; a compaction
    /// prepared under an older epoch is stale and installs nothing.
    epoch: u64,
    /// A store session leaves a due compaction to the caller that holds
    /// its `Arc` ([`SessionStore::with_session_deferred`]); a standalone
    /// one compacts before its verb returns.
    deferred: bool,
}

impl Session {
    /// Starts a session on `team`, freshly built from the spec whose record
    /// is `record`, journaling to `disk`, when given.
    fn start(
        team: TeamSession,
        record: Vec<u8>,
        config: JournalConfig,
        disk: Option<DiskJournal>,
    ) -> Session {
        Session::assemble(
            team,
            SessionJournal::from_record(record, Vec::new()),
            config,
            disk,
        )
    }

    fn assemble(
        team: TeamSession,
        journal: SessionJournal,
        config: JournalConfig,
        disk: Option<DiskJournal>,
    ) -> Session {
        Session {
            team,
            journal,
            config,
            disk,
            compaction: CompactState::Idle,
            epoch: next_epoch(),
            deferred: false,
        }
    }

    /// Rebuilds a session from its on-disk journal: loads the spec, the
    /// recovered event prefix (truncating corrupt tails — see
    /// [`DiskJournal::load`]) and the newest valid checkpoint, then replays
    /// only the tail past the checkpoint through the public API (the whole
    /// transcript when no checkpoint survived) and re-attaches the append
    /// handle.  Returns the session together with what recovery had to
    /// repair.  The checkpoint is decoded once and the tail replays onto
    /// that session; the file's bytes become the journal's replay base.
    /// Determinism makes the checkpointed restore bit-identical to a full
    /// replay; a checkpoint whose tail no longer replays (a diverged
    /// history) is dropped and recovery degrades to full replay, so the
    /// clean event prefix is never lost.
    pub fn rehydrate(
        dir: impl Into<PathBuf>,
        config: JournalConfig,
    ) -> Result<(Session, RecoveryReport), GdrError> {
        let (disk, loaded) = DiskJournal::open(dir, config)?;
        let mut recovery = loaded.recovery;
        let mut journal = SessionJournal::from_record(loaded.spec_record, loaded.events);
        let mut checkpointed = None;
        if let (Some((covered, base)), Some(frame)) = (loaded.checkpoint, loaded.checkpoint_frame) {
            match SessionJournal::replay_onto(base, &journal.tail[covered..]) {
                Ok(team) => {
                    journal.install_snapshot(frame, covered);
                    checkpointed = Some(team);
                }
                Err(_) => recovery.snapshots_skipped += 1,
            }
        }
        let team = match checkpointed {
            Some(team) => team,
            None => SessionJournal::replay_onto(loaded.spec.build(), &journal.tail)?,
        };
        Ok((
            Session::assemble(team, journal, config, Some(disk)),
            recovery,
        ))
    }

    /// The live engine.
    pub fn engine(&self) -> &GdrEngine {
        self.team.engine()
    }

    /// The live multi-reviewer coordinator (the engine's owner).
    pub fn team(&self) -> &TeamSession {
        &self.team
    }

    /// The journal (build inputs + snapshot + transcript tail).
    pub fn journal(&self) -> &SessionJournal {
        &self.journal
    }

    /// The on-disk journal directory, when this session is durable.
    pub fn disk_dir(&self) -> Option<&Path> {
        self.disk.as_ref().map(|d| d.dir())
    }

    /// The on-disk journal itself, when this session is durable — for
    /// fsync accounting ([`DiskJournal::syncs`]).
    pub fn disk(&self) -> Option<&DiskJournal> {
        self.disk.as_ref()
    }

    /// Appends an applied event to the journals — disk first (so the
    /// in-memory journal never claims more than stable storage), then RAM —
    /// and marks a compaction due when the tail reaches `compact_every`
    /// (and none is in flight).  A standalone session compacts before its
    /// verb returns; a store session leaves it to its caller.
    /// On a disk error the event is journaled **nowhere** even though the
    /// engine applied it: the caller gets [`GdrError::Journal`], and a
    /// `restore` (or crash recovery) rolls back to the last durable record,
    /// which the `StaleWork` contract makes survivable for drivers.
    fn journal_event(&mut self, event: TranscriptEvent) -> Result<(), GdrError> {
        if let Some(disk) = &mut self.disk {
            disk.append(&event)?;
        }
        self.journal.tail.push(event);
        if self.check_due() && !self.deferred {
            self.compact_due();
        }
        Ok(())
    }

    /// Marks a compaction due when none is owed or in flight and the tail
    /// has reached `compact_every`; returns whether one is due.
    fn check_due(&mut self) -> bool {
        if self.compaction == CompactState::Idle
            && self.config.compact_every > 0
            && self.journal.tail.len() >= self.config.compact_every
        {
            self.compaction = CompactState::Due;
        }
        self.compaction == CompactState::Due
    }

    /// Brings the session up to date before a verb: rebuilds it from its
    /// journal when a compaction found it diverged, and runs a compaction
    /// still due, which a caller that locked the session straight from
    /// [`SessionStore::get`] left behind.
    fn settle(&mut self) -> Result<(), GdrError> {
        match self.compaction {
            CompactState::Diverged => self.rebuild(),
            CompactState::Due => {
                self.compact_due();
                Ok(())
            }
            CompactState::Idle | CompactState::Running => Ok(()),
        }
    }

    /// Runs the due compaction inline.  A refusal adopts nothing and is
    /// not the verb's error: the journal still holds every event.
    fn compact_due(&mut self) {
        self.compaction = CompactState::Idle;
        let job = self.prepare();
        let ran = job.run();
        let _ = self.install(&job, ran);
    }

    /// Rebuilds a diverged session from its journal: the on-disk one when
    /// durable (the in-memory journal is what failed to replay), the
    /// in-memory one otherwise.
    fn rebuild(&mut self) -> Result<(), GdrError> {
        match &self.disk {
            Some(disk) => {
                let (session, _recovery) = Session::rehydrate(disk.dir(), self.config)?;
                *self = Session {
                    deferred: self.deferred,
                    ..session
                };
            }
            None => {
                self.team = self.replayed()?;
                self.compaction = CompactState::Idle;
            }
        }
        Ok(())
    }

    /// Whether replay must pull once past the journal to reach the live
    /// engine.  Pulls are never journaled, and one that served an item or
    /// observed the conclusion leaves a state the journal alone may not
    /// imply.  Re-running it is harmless when the journal does imply it: a
    /// pull with an item outstanding, or after the conclusion, is pure.
    fn pull_pending(&self) -> bool {
        let engine = self.team.engine();
        engine.outstanding().is_some() || engine.done().is_some()
    }

    /// Pulls the next work item.  Journals nothing: a pull made with an
    /// item already outstanding is a pure re-serve (same plan, same work
    /// id), and one that advances the engine is re-run on replay by the
    /// verb that follows it (see the [module docs](self)).
    // `next` is the protocol verb, not an iterator (it does not yield a
    // stream of distinct items — it re-serves until answered).
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Result<WorkPlan, GdrError> {
        self.settle()?;
        self.team.engine_mut().next_work()
    }

    /// Answers the `AskUser` item `id`; journals on success.  Pulls first
    /// when nothing is outstanding, as replay does, so a client that held
    /// `id` across a crash answers it without pulling again.
    pub fn answer(&mut self, id: WorkId, feedback: Feedback) -> Result<usize, GdrError> {
        self.settle()?;
        let engine = self.team.engine_mut();
        engine.next_work()?;
        engine.answer(id, feedback)?;
        self.journal_event(TranscriptEvent::Answered(id.raw(), feedback))?;
        Ok(self.team.engine().verifications())
    }

    /// Supplies a value for the `NeedsValue` cell; pulls and journals as
    /// [`Session::answer`].
    pub fn supply(&mut self, cell: Cell, value: Value) -> Result<usize, GdrError> {
        self.settle()?;
        let engine = self.team.engine_mut();
        engine.next_work()?;
        engine.supply_value(cell, value.clone())?;
        self.journal_event(TranscriptEvent::Supplied(cell, value))?;
        Ok(self.team.engine().verifications())
    }

    /// Skips the `NeedsValue` cell; pulls and journals as
    /// [`Session::answer`].
    pub fn skip(&mut self, cell: Cell) -> Result<(), GdrError> {
        self.settle()?;
        let engine = self.team.engine_mut();
        engine.next_work()?;
        engine.skip_value(cell)?;
        self.journal_event(TranscriptEvent::Skipped(cell))?;
        Ok(())
    }

    /// Finishes the session; journals on success.
    pub fn finish(&mut self) -> Result<gdr_core::step::DoneReason, GdrError> {
        self.settle()?;
        let pulled = self.pull_pending();
        let reason = self.team.finish()?;
        // finish() is idempotent; journal it once so replay stays aligned.
        if !self.journal.finished_after(self.journal.tail.len()) {
            self.journal_event(TranscriptEvent::Finished { pulled })?;
        }
        Ok(reason)
    }

    // ---- team verbs -------------------------------------------------------
    //
    // Every team verb pulls the engine first, inside the coordinator, and
    // replaying its event re-runs that pull.  A verb that then fails or
    // journals nothing (a stale `answer_as`, a `lease` that re-serves or
    // observes the conclusion) leaves its pull pending, like `next`.

    /// Serves (or re-serves) work to `reviewer` under a lease.  A pure
    /// re-serve (the reviewer already holds a live lease on valid work)
    /// journals nothing; a state-changing pull — a grant or a clock-ticking
    /// [`TeamPlan::Wait`] — is journaled so replay re-runs it.
    pub fn lease(&mut self, reviewer: &str) -> Result<TeamPlan, GdrError> {
        self.settle()?;
        let before = self.team.clock();
        let plan = self.team.next_work_for(reviewer)?;
        if self.team.clock() != before {
            let event = match &plan {
                TeamPlan::Ask { id, .. } | TeamPlan::Fix { id, .. } => TranscriptEvent::Leased {
                    reviewer: reviewer.to_string(),
                    id: id.raw(),
                },
                TeamPlan::Wait => TranscriptEvent::Waited {
                    reviewer: reviewer.to_string(),
                },
                TeamPlan::Done(_) => unreachable!("a done pull never ticks the clock"),
            };
            self.journal_event(event)?;
        }
        Ok(plan)
    }

    /// Applies `reviewer`'s feedback to the leased item `id`; journals one
    /// record on success, carrying every resolution the conflict policy
    /// committed to the engine.
    pub fn answer_as(
        &mut self,
        reviewer: &str,
        id: WorkId,
        feedback: Feedback,
    ) -> Result<usize, GdrError> {
        self.settle()?;
        let logged = self.team.resolutions().len();
        self.team.answer_as(reviewer, id, feedback)?;
        self.journal_event(TranscriptEvent::AnsweredAs {
            reviewer: reviewer.to_string(),
            id: id.raw(),
            feedback,
            resolved: self.resolved_since(logged),
        })?;
        Ok(self.team.engine().verifications())
    }

    /// Applies `reviewer`'s typed value to the leased fix item `id`;
    /// journals on success, as [`Session::answer_as`].
    pub fn supply_as(
        &mut self,
        reviewer: &str,
        id: WorkId,
        value: Value,
    ) -> Result<usize, GdrError> {
        self.settle()?;
        let logged = self.team.resolutions().len();
        self.team.supply_as(reviewer, id, value.clone())?;
        self.journal_event(TranscriptEvent::SuppliedAs {
            reviewer: reviewer.to_string(),
            id: id.raw(),
            value,
            resolved: self.resolved_since(logged),
        })?;
        Ok(self.team.engine().verifications())
    }

    /// Declines the leased fix item `id` as `reviewer`; journals on
    /// success, as [`Session::answer_as`].
    pub fn skip_as(&mut self, reviewer: &str, id: WorkId) -> Result<(), GdrError> {
        self.settle()?;
        let logged = self.team.resolutions().len();
        self.team.skip_as(reviewer, id)?;
        self.journal_event(TranscriptEvent::SkippedAs {
            reviewer: reviewer.to_string(),
            id: id.raw(),
            resolved: self.resolved_since(logged),
        })?;
        Ok(())
    }

    /// Releases `reviewer`'s lease `id` back to the pool.  Only a release
    /// that actually held (returned `true`) changes state and is journaled;
    /// a stale release is a no-op on both the session and the journal.
    pub fn release_lease(&mut self, reviewer: &str, id: WorkId) -> Result<bool, GdrError> {
        self.settle()?;
        let held = self.team.release(reviewer, id)?;
        if held {
            self.journal_event(TranscriptEvent::Released {
                reviewer: reviewer.to_string(),
                id: id.raw(),
            })?;
        }
        Ok(held)
    }

    /// The resolutions committed since the log held `logged` entries, with
    /// their log indices: what the verb that just ran committed.
    fn resolved_since(&self, logged: usize) -> Vec<(usize, Resolution)> {
        (logged..)
            .zip(self.team.resolutions()[logged..].iter().cloned())
            .collect()
    }

    /// Compacts the journal now, inline: encodes the live session once (a
    /// pending pull included: the verbs after it re-serve purely), validates
    /// that a replay of the current journal (and of the pending pull)
    /// re-encodes to the same payload byte for byte, frames it, persists the
    /// frame in durable mode as the `snap-NNNNNN.gdrs` checkpoint — so a
    /// cold restart loads it and replays only the journal tail — and then
    /// installs the same bytes as the replay base and drops the absorbed
    /// tail from RAM.  A divergence (which would make the snapshot lie)
    /// fails with [`GdrError::Journal`], adopts nothing, and has the
    /// session rebuilt from its journal before its next verb.
    ///
    /// This is the automatic compaction's three steps run back to back
    /// under one lock: *prepare* (encode, capture the journal prefix), *run*
    /// (replay, compare, frame, write) and *install*.  A store session's
    /// automatic compaction runs the middle step unlocked instead (see
    /// [`Compaction`]).  Compacting bumps the session's epoch, so a
    /// compaction in flight meanwhile is stale and installs nothing.
    pub fn compact(&mut self) -> Result<CompactionStats, GdrError> {
        if self.compaction == CompactState::Diverged {
            self.rebuild()?;
        }
        if self.compaction == CompactState::Due {
            self.compaction = CompactState::Idle;
        }
        self.epoch = next_epoch();
        let job = self.prepare();
        let ran = job.run();
        self.install(&job, ran)
            .map(|stats| stats.expect("an inline compaction is never stale"))
    }

    /// *Prepare*, under the lock: encodes the live payload and captures the
    /// replay base, the tail it covers, the pending-pull flag and the epoch.
    fn prepare(&self) -> CompactionJob {
        CompactionJob {
            live: self.team.state_bytes(),
            journal: self.journal.clone(),
            pull_pending: self.pull_pending(),
            events: self.journal.events_total(),
            epoch: self.epoch,
            checkpoints: self.disk.as_ref().map(DiskJournal::checkpoints),
        }
    }

    /// Prepares the due compaction for [`Compaction::run`], if one is due;
    /// at most one is in flight.
    fn prepare_due(&mut self) -> Option<CompactionJob> {
        (self.compaction == CompactState::Due).then(|| {
            self.compaction = CompactState::Running;
            self.prepare()
        })
    }

    /// *Install*, under the lock: adopts the frame a run produced and drops
    /// the tail it covers, unless the epoch moved since `job` was prepared.
    /// A divergence found under the current epoch marks the session for
    /// rebuilding, unless a compaction is still in flight: that one finds
    /// the same divergence, and the rebuild waits for it.
    fn install(
        &mut self,
        job: &CompactionJob,
        ran: Result<Vec<u8>, Refusal>,
    ) -> Result<Option<CompactionStats>, GdrError> {
        if job.epoch != self.epoch {
            return Ok(None);
        }
        match ran {
            Ok(frame) => {
                let dropped = job.journal.tail.len();
                self.journal.install_snapshot(frame, dropped);
                Ok(Some(CompactionStats {
                    events: job.events,
                    dropped,
                }))
            }
            Err(Refusal::Diverged(err)) => {
                if self.compaction != CompactState::Running {
                    self.compaction = CompactState::Diverged;
                }
                Err(err)
            }
            Err(Refusal::Failed(err)) => Err(err),
        }
    }

    /// The journal replayed, then the pending pull re-run when there is one
    /// ([`Session::pull_pending`]): the live session, rebuilt.
    fn replayed(&self) -> Result<TeamSession, GdrError> {
        let mut team = self.journal.replay()?;
        if self.pull_pending() {
            team.engine_mut().next_work()?;
        }
        Ok(team)
    }

    /// Discards the live engine and replays the journal in its place
    /// (snapshot + tail when compacted, from scratch otherwise), re-running
    /// a pending pull so the restored engine re-serves the item the live
    /// one held.  Returns the number of tail events replayed.  Bumps the
    /// epoch: a compaction in flight is stale and installs nothing.
    pub fn restore(&mut self) -> Result<usize, GdrError> {
        self.settle()?;
        self.epoch = next_epoch();
        self.team = self.replayed()?;
        Ok(self.journal.tail.len())
    }

    /// Detaches a removed session: bumps the epoch so a compaction in
    /// flight installs nothing, and closes its checkpoint writer so that
    /// compaction never writes into the directory being deleted.
    fn retire(&mut self) {
        self.epoch = next_epoch();
        if let Some(disk) = &self.disk {
            disk.checkpoints().close();
        }
    }
}

/// Errors of the store layer, wrapping the engine's protocol errors.
#[derive(Debug, Clone, PartialEq)]
pub enum StoreError {
    /// The session id is not in the store.
    UnknownSession(String),
    /// `open` named an id that already exists (live in RAM or on disk).
    DuplicateSession(String),
    /// A protocol or engine error from the session itself.
    Gdr(GdrError),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::UnknownSession(id) => write!(f, "unknown session `{id}`"),
            StoreError::DuplicateSession(id) => write!(f, "session `{id}` already exists"),
            StoreError::Gdr(err) => write!(f, "{err}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Gdr(err) => Some(err),
            _ => None,
        }
    }
}

impl From<GdrError> for StoreError {
    fn from(err: GdrError) -> StoreError {
        StoreError::Gdr(err)
    }
}

/// How a [`SessionStore`] persists and bounds its sessions.
#[derive(Debug, Clone)]
pub struct DurabilityConfig {
    /// Root directory; each session's journal lives in
    /// `root/<2-hex-shard>/<escaped-id>/`.
    pub root: PathBuf,
    /// Journal tunables applied to every session.
    pub journal: JournalConfig,
    /// LRU-evict idle sessions from RAM beyond this count (0 = unlimited).
    /// Evicted sessions rehydrate transparently on their next verb.
    pub max_live_sessions: usize,
}

impl DurabilityConfig {
    /// Durability under `root` with default journal tunables and a
    /// 1024-session RAM cap.
    pub fn new(root: impl Into<PathBuf>) -> DurabilityConfig {
        DurabilityConfig {
            root: root.into(),
            journal: JournalConfig::default(),
            max_live_sessions: 1024,
        }
    }
}

struct LiveEntry {
    session: Arc<Mutex<Session>>,
    last_used: u64,
}

/// One shard's sessions plus its own LRU index (`stamp → id`, stamps from
/// the store-global monotone clock, so they are unique across shards and
/// each index's first idle entry is that shard's least-recently-used
/// session).  The index is maintained on every insert/touch/remove under
/// the shard lock, so victim selection reads one candidate per shard
/// instead of scanning every live session.
#[derive(Default)]
struct ShardMap {
    sessions: HashMap<String, LiveEntry>,
    lru: BTreeMap<u64, String>,
}

impl ShardMap {
    /// Re-stamps `id` as most-recently-used and hands out its session.
    fn touch(&mut self, id: &str, stamp: u64) -> Option<Arc<Mutex<Session>>> {
        let entry = self.sessions.get_mut(id)?;
        self.lru.remove(&entry.last_used);
        entry.last_used = stamp;
        self.lru.insert(stamp, id.to_string());
        Some(entry.session.clone())
    }

    /// Inserts `id` with use-stamp `stamp`, indexing it for eviction.
    fn insert(&mut self, id: &str, session: Arc<Mutex<Session>>, stamp: u64) {
        self.sessions.insert(
            id.to_string(),
            LiveEntry {
                session,
                last_used: stamp,
            },
        );
        self.lru.insert(stamp, id.to_string());
    }

    /// Removes `id` from the map and the LRU index.
    fn remove(&mut self, id: &str) -> Option<LiveEntry> {
        let entry = self.sessions.remove(id)?;
        self.lru.remove(&entry.last_used);
        Some(entry)
    }

    /// This shard's LRU *idle* session (`(stamp, id)`): the oldest entry of
    /// the index nobody currently borrows.  Scans only as many entries as
    /// there are borrowed sessions older than the answer — usually zero.
    fn idle_candidate(&self) -> Option<(u64, String)> {
        self.lru
            .iter()
            .find(|(_, id)| {
                self.sessions
                    .get(id.as_str())
                    .is_some_and(|entry| Arc::strong_count(&entry.session) == 1)
            })
            .map(|(stamp, id)| (*stamp, id.clone()))
    }
}

/// One shard: its session map, and the claim lock held while a session of
/// the shard is created or rehydrated and inserted.  Replay runs under the
/// claim lock only, so it never stalls the shard's live sessions, and a
/// second claimant of the same id waits, then finds the first one's copy.
#[derive(Default)]
struct Shard {
    map: Mutex<ShardMap>,
    claim: Mutex<()>,
}

impl Shard {
    fn map(&self) -> MutexGuard<'_, ShardMap> {
        lock_recovering(&self.map)
    }
}

/// A thread-safe, sharded map of sessions keyed by id (see the
/// [module docs](self) for the locking design).
///
/// All verbs are `&self`: the store is shared across server workers behind
/// an `Arc` with no shard lock held while an engine runs.
pub struct SessionStore {
    shards: Vec<Shard>,
    durability: Option<DurabilityConfig>,
    clock: AtomicU64,
    /// Sessions live in RAM across all shards — the eviction budget's
    /// source of truth, maintained under the owning shard's lock.
    live: AtomicUsize,
}

impl Default for SessionStore {
    fn default() -> SessionStore {
        SessionStore {
            shards: (0..STORE_SHARDS).map(|_| Shard::default()).collect(),
            durability: None,
            clock: AtomicU64::new(0),
            live: AtomicUsize::new(0),
        }
    }
}

impl fmt::Debug for SessionStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SessionStore")
            .field("live", &self.len())
            .field("durability", &self.durability)
            .finish()
    }
}

impl SessionStore {
    /// An empty in-memory store (sessions die with the process).
    pub fn new() -> SessionStore {
        SessionStore::default()
    }

    /// An empty durable store: every session's journal is written under
    /// `config.root`, crashed or evicted sessions rehydrate on their next
    /// verb, and at most `config.max_live_sessions` stay resident.
    pub fn durable(config: DurabilityConfig) -> Result<SessionStore, GdrError> {
        fs::create_dir_all(&config.root).map_err(|err| GdrError::Journal {
            detail: format!(
                "cannot create journal root {}: {err}",
                config.root.display()
            ),
        })?;
        Ok(SessionStore {
            durability: Some(config),
            ..SessionStore::default()
        })
    }

    /// The shard owning `id` — a stable FNV-1a hash of the id, masked down,
    /// so an id routes to the same shard in every process.
    fn shard(&self, id: &str) -> &Shard {
        &self.shards[fnv1a64(id.as_bytes()) as usize & (STORE_SHARDS - 1)]
    }

    /// Number of sessions currently live in RAM (evicted durable sessions
    /// are not counted; they come back on their next verb).
    pub fn len(&self) -> usize {
        self.live.load(Ordering::Acquire)
    }

    /// Whether no session is live in RAM.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Where `id`'s journal lives: `<root>/<2-hex fnv64 prefix>/<escaped
    /// id>/`.
    fn session_dir(&self, id: &str) -> Option<PathBuf> {
        self.durability
            .as_ref()
            .map(|d| d.root.join(session_shard(id)).join(session_dir_name(id)))
    }

    /// [`SessionStore::session_dir`], when a journal exists there.
    fn existing_session_dir(&self, id: &str) -> Option<PathBuf> {
        self.session_dir(id).filter(|dir| DiskJournal::exists(dir))
    }

    fn stamp(&self) -> u64 {
        self.clock.fetch_add(1, Ordering::Relaxed)
    }

    /// Inserts an already-built session into `id`'s shard, bumping the live
    /// counter under the shard lock; fails if the id was inserted meanwhile.
    fn insert(&self, id: &str, session: Arc<Mutex<Session>>) -> Result<(), StoreError> {
        let mut shard = self.shard(id).map();
        if shard.sessions.contains_key(id) {
            return Err(StoreError::DuplicateSession(id.to_string()));
        }
        shard.insert(id, session, self.stamp());
        self.live.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Creates a session under `id`.
    pub fn open(&self, id: &str, spec: OpenSpec) -> Result<Arc<Mutex<Session>>, StoreError> {
        let shard = self.shard(id);
        // Cheap duplicate pre-check so a racing re-open does not pay for a
        // doomed engine build.  For durable stores the check covers disk
        // too: an evicted session is still *the* session under its id.
        if shard.map().sessions.contains_key(id) || self.existing_session_dir(id).is_some() {
            return Err(StoreError::DuplicateSession(id.to_string()));
        }
        // Build the engine (violation detection, suggestion generation —
        // potentially large) *outside* any lock so concurrent requests —
        // even on sessions of the same shard — are never stalled behind an
        // open.
        let record = encode_spec(&spec);
        let team = spec.build();
        // Claim the id and insert under the claim lock, so a `get` never
        // finds the journal without the session.  In durable mode the
        // journal directory is the claim: a racing open of the same id loses
        // at the filesystem.
        let session = {
            let _claim = lock_recovering(&shard.claim);
            let (config, disk) = match (&self.durability, self.session_dir(id)) {
                (Some(durability), Some(dir)) => {
                    match DiskJournal::create_from_record(dir, &record, durability.journal) {
                        Ok(disk) => (durability.journal, Some(disk)),
                        Err(JournalError::Exists { .. }) => {
                            return Err(StoreError::DuplicateSession(id.to_string()))
                        }
                        Err(err) => return Err(StoreError::Gdr(err.into())),
                    }
                }
                _ => (JournalConfig::default(), None),
            };
            let session = Session {
                deferred: true,
                ..Session::start(team, record, config, disk)
            };
            let session = Arc::new(Mutex::new(session));
            self.insert(id, session.clone())?;
            session
        };
        // Session drops (final journal sync) happen here, outside any lock.
        drop(self.evict_over_budget());
        Ok(session)
    }

    /// Looks up a session by id, rehydrating it from its on-disk journal
    /// when the store is durable and the session is not live in RAM.
    pub fn get(&self, id: &str) -> Result<Arc<Mutex<Session>>, StoreError> {
        let shard = self.shard(id);
        if let Some(session) = shard.map().touch(id, self.stamp()) {
            return Ok(session);
        }
        let Some(config) = &self.durability else {
            return Err(StoreError::UnknownSession(id.to_string()));
        };
        // Rehydrate under the claim lock, then look again: a concurrent
        // caller for the same id may have rehydrated it meanwhile.  Two
        // copies would both own the directory — a second `DiskJournal::load`
        // repairs files under the first copy's append handle — and a copy
        // loaded before the first one's verbs would miss them.
        let session = {
            let _claim = lock_recovering(&shard.claim);
            if let Some(session) = shard.map().touch(id, self.stamp()) {
                return Ok(session);
            }
            let Some(dir) = self.existing_session_dir(id) else {
                return Err(StoreError::UnknownSession(id.to_string()));
            };
            let (session, _recovery) = Session::rehydrate(&dir, config.journal)?;
            let session = Arc::new(Mutex::new(Session {
                deferred: true,
                ..session
            }));
            self.insert(id, session.clone())?;
            session
        };
        drop(self.evict_over_budget());
        Ok(session)
    }

    /// LRU-evicts idle sessions while the store exceeds the global
    /// `max_live_sessions` budget.  Victim selection asks each shard for
    /// its own LRU idle candidate — one ordered-index lookup per shard
    /// under that shard's lock, no scan of the live sessions — and takes
    /// the globally oldest of the (at most) [`STORE_SHARDS`] candidates.
    /// The eviction itself is re-validated under the victim's shard lock —
    /// the `Arc::strong_count == 1` check and the removal happen under that
    /// lock, and every borrower clones its `Arc` under the same lock, so an
    /// observed-idle session cannot gain a borrower while it is evicted.
    /// Returns the evicted entries; the caller drops them after every lock
    /// is released (a durable session's drop syncs its journal).
    fn evict_over_budget(&self) -> Vec<Arc<Mutex<Session>>> {
        let Some(config) = &self.durability else {
            return Vec::new(); // In-memory stores never evict: RAM is all there is.
        };
        if config.max_live_sessions == 0 {
            return Vec::new();
        }
        let mut evicted = Vec::new();
        while self.live.load(Ordering::Acquire) > config.max_live_sessions {
            let mut victim: Option<(usize, String, u64)> = None;
            for (index, shard) in self.shards.iter().enumerate() {
                if let Some((stamp, id)) = shard.map().idle_candidate() {
                    if victim.as_ref().is_none_or(|(_, _, t)| stamp < *t) {
                        victim = Some((index, id, stamp));
                    }
                }
            }
            let Some((index, id, last_used)) = victim else {
                break; // Everything over the cap is currently borrowed.
            };
            let mut shard = self.shards[index].map();
            // Re-validate under the shard lock: the candidate may have been
            // borrowed, touched, or removed since its shard reported it.
            let still_idle = shard.sessions.get(&id).is_some_and(|entry| {
                entry.last_used == last_used && Arc::strong_count(&entry.session) == 1
            });
            if still_idle {
                if let Some(entry) = shard.remove(&id) {
                    self.live.fetch_sub(1, Ordering::AcqRel);
                    evicted.push(entry.session);
                }
            }
            // Not idle any more: loop and re-ask — either the budget is
            // back under (someone else evicted) or a different victim wins.
        }
        evicted
    }

    /// Removes a session — from RAM and, in durable mode, from disk.
    /// Returns whether it existed anywhere.
    pub fn remove(&self, id: &str) -> bool {
        // Under the claim lock, so no `get` rehydrates a half-deleted
        // directory.
        let shard = self.shard(id);
        let _claim = lock_recovering(&shard.claim);
        let entry = shard.map().remove(id);
        let lived = entry.is_some();
        if let Some(entry) = entry {
            self.live.fetch_sub(1, Ordering::AcqRel);
            // A compaction in flight still holds the session: it must
            // neither install into it nor write into the directory below.
            lock_recovering(&entry.session).retire();
        }
        match self.existing_session_dir(id) {
            Some(dir) => fs::remove_dir_all(&dir).is_ok() || lived,
            None => lived,
        }
    }

    /// Runs `f` under the session's lock, then the compaction it left due,
    /// if any, with the lock released for all but its install: the session
    /// is compacted when this returns, as if `f` had compacted inline.  A
    /// compaction that adopts nothing is not `f`'s error.
    pub fn with_session<T>(
        &self,
        id: &str,
        f: impl FnOnce(&mut Session) -> Result<T, GdrError>,
    ) -> Result<T, StoreError> {
        let (value, compaction) = self.with_session_deferred(id, f)?;
        if let Some(compaction) = compaction {
            let _ = compaction.run();
        }
        Ok(value)
    }

    /// [`SessionStore::with_session`], handing the due compaction back
    /// unrun (prepared under the lock, see [`Compaction`]) so the caller
    /// can reply first.  The threaded server runs it after queueing the
    /// verb's reply.
    pub fn with_session_deferred<T>(
        &self,
        id: &str,
        f: impl FnOnce(&mut Session) -> Result<T, GdrError>,
    ) -> Result<(T, Option<Compaction>), StoreError> {
        let session = self.get(id)?;
        let mut guard = lock_recovering(&session);
        let value = f(&mut guard)?;
        let job = guard.prepare_due();
        drop(guard);
        let compaction = job.map(|job| Compaction {
            session,
            job: Some(job),
        });
        Ok((value, compaction))
    }
}

/// Locks a mutex, recovering from poisoning: a connection thread that
/// panicked mid-request must not deny every later request.  (For a session
/// whose engine might have been left mid-mutation, `restore` rebuilds a
/// consistent one from the journal.)
fn lock_recovering<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::{snapshot_name, FsyncPolicy};
    use gdr_core::oracle::{GroundTruthOracle, UserOracle};
    use gdr_datagen::hospital::{generate_hospital_dataset, HospitalConfig};

    fn spec() -> OpenSpec {
        let data = generate_hospital_dataset(&HospitalConfig {
            tuples: 120,
            dirty_fraction: 0.4,
            seed: 11,
            extra_cities: 2,
        });
        let mut spec = OpenSpec::new(data.dirty, data.rules);
        spec.strategy = Strategy::GdrNoLearning;
        spec.config = GdrConfig::fast();
        spec.ground_truth = Some(data.clean);
        spec
    }

    /// Applies `verbs` oracle answers (or skips), ending on an applied verb.
    fn drive(session: &mut Session, oracle: &GroundTruthOracle, verbs: usize) {
        for _ in 0..verbs {
            match session.next().unwrap() {
                WorkPlan::AskUser { id, update, .. } => {
                    let current = session.engine().state().table();
                    let feedback =
                        oracle.feedback(&update, current.cell(update.tuple, update.attr));
                    session.answer(id, feedback).unwrap();
                }
                WorkPlan::NeedsValue { cell } => session.skip(cell).unwrap(),
                WorkPlan::Done(reason) => panic!("session ended early: {reason:?}"),
            }
        }
    }

    /// The in-RAM replay base of a compacted session.
    fn base(session: &Session) -> &[u8] {
        &session.journal.snapshot.as_ref().expect("compacted").frame
    }

    /// The checkpoint files in `dir`.
    fn snapshot_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = fs::read_dir(dir)
            .unwrap()
            .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|name| name.starts_with("snap-"))
            .collect();
        names.sort();
        names
    }

    /// Compacts and checks the base against the live session and, when
    /// durable, against the checkpoint file just written.
    fn compact(session: &mut Session) {
        let events = session.compact().unwrap().events;
        assert_eq!(base(session), session.team().to_snapshot_bytes());
        if let Some(dir) = session.disk_dir() {
            let file = fs::read(dir.join(snapshot_name(events as u64))).unwrap();
            assert_eq!(base(session), file, "in-RAM base differs from the file");
        }
    }

    /// Restores and checks the result against the session it replaced.
    fn restore(session: &mut Session) {
        let live = session.team().to_snapshot_bytes();
        session.restore().unwrap();
        assert_eq!(session.team().to_snapshot_bytes(), live);
    }

    #[test]
    fn the_replay_base_is_the_checkpoint_file_and_restores_bit_identically() {
        let oracle = GroundTruthOracle::new(spec().ground_truth.unwrap());
        let config = JournalConfig {
            fsync: FsyncPolicy::Never,
            compact_every: 0,
        };
        let dir = std::env::temp_dir().join(format!("gdr-store-base-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        for durable in [false, true] {
            let mut options = SessionOptions::new().journal(config);
            if durable {
                options = options.durable(dir.clone());
            }
            let mut session = options.open(spec()).unwrap();
            drive(&mut session, &oracle, 20);
            compact(&mut session);
            drive(&mut session, &oracle, 10);
            restore(&mut session);
            if durable {
                let live = session.team().to_snapshot_bytes();
                drop(session);
                let (rehydrated, recovery) = Session::rehydrate(&dir, config).unwrap();
                assert!(recovery.clean(), "{recovery:?}");
                assert_eq!(rehydrated.team().to_snapshot_bytes(), live);
                session = rehydrated;
            }
            drive(&mut session, &oracle, 10);
            compact(&mut session);
            restore(&mut session);
        }
        fs::remove_dir_all(&dir).unwrap();
    }

    /// A compaction whose replay does not reproduce the live session adopts
    /// nothing: the in-memory tail is edited (one answer's feedback flipped)
    /// so that it no longer replays to the live payload, while the disk
    /// journal stays right.  The compaction the next verb makes due writes
    /// no checkpoint and drops no tail, and the session is rebuilt from its
    /// directory before it serves again: byte for byte (so fingerprint and
    /// all) and by `team_digest` the session a cold rehydrate gives.
    #[test]
    fn a_diverging_compaction_is_refused_and_the_session_rebuilt_from_disk() {
        const EVERY: usize = 8;
        let oracle = GroundTruthOracle::new(spec().ground_truth.unwrap());
        let root = std::env::temp_dir().join(format!("gdr-store-diverge-{}", std::process::id()));
        let _ = fs::remove_dir_all(&root);
        let mut config = DurabilityConfig::new(&root);
        config.journal = JournalConfig {
            fsync: FsyncPolicy::Never,
            compact_every: EVERY,
        };
        let store = SessionStore::durable(config.clone()).unwrap();
        drop(store.open("s", spec()).unwrap());
        let step = |session: &mut Session| {
            drive(session, &oracle, 1);
            Ok(())
        };
        for _ in 0..EVERY - 1 {
            store.with_session("s", step).unwrap();
        }
        let dir = store
            .with_session("s", |s| {
                let flipped = s.journal.tail.iter_mut().find_map(|event| match event {
                    TranscriptEvent::Answered(_, feedback) => Some(feedback),
                    _ => None,
                });
                let feedback = flipped.expect("an answer in the tail");
                *feedback = match feedback {
                    Feedback::Confirm => Feedback::Reject,
                    _ => Feedback::Confirm,
                };
                Ok(s.disk_dir().unwrap().to_path_buf())
            })
            .unwrap();

        store.with_session("s", step).unwrap();
        let (snapshot_events, tail, diverged) = store
            .with_session("s", |s| {
                Ok((
                    s.journal.snapshot_events(),
                    s.journal.tail.len(),
                    s.compaction == CompactState::Diverged,
                ))
            })
            .unwrap();
        assert!(
            snapshot_files(&dir).is_empty(),
            "a refused compaction wrote a checkpoint"
        );
        assert_eq!(
            (snapshot_events, tail),
            (0, EVERY),
            "a refused compaction dropped the tail"
        );
        assert!(diverged, "the session is not marked for rebuilding");

        let (mut cold, recovery) = Session::rehydrate(&dir, config.journal).unwrap();
        assert!(recovery.clean(), "{recovery:?}");
        cold.next().unwrap();
        store
            .with_session("s", |s| {
                s.next()?;
                assert_eq!(
                    s.team().to_snapshot_bytes(),
                    cold.team().to_snapshot_bytes()
                );
                assert_eq!(
                    crate::journal::team_digest(s.team()),
                    crate::journal::team_digest(cold.team())
                );
                assert_eq!(s.journal.transcript(), cold.journal.transcript());
                Ok(())
            })
            .unwrap();
        // Rebuilt, the session compacts again at its next event.
        store.with_session("s", step).unwrap();
        assert_eq!(snapshot_files(&dir), [snapshot_name(EVERY as u64 + 1)]);
        drop(store);
        fs::remove_dir_all(&root).unwrap();
    }
}
