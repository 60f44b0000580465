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
//! the applied-resolution log bit-for-bit.  Committed resolutions are
//! additionally journaled as [`TranscriptEvent::Resolved`] checkpoints that
//! replay cross-checks against its recomputed log.
//!
//! ## Compaction
//!
//! Replaying from the `open` verb makes restore cost grow with session
//! length, and so does the in-memory transcript.  [`Session::compact`]
//! bounds both: it installs a *snapshot* — a clone of the live engine,
//! validated (by default) by replaying the current journal and comparing
//! [`crate::journal::engine_digest`]s — as the journal's new replay base
//! and drops the replayed prefix from RAM.  From then on `replay` is
//! "clone snapshot + replay short tail".  Sessions auto-compact once the
//! tail exceeds [`crate::journal::JournalConfig::compact_every`] events, so
//! journal memory is O(compact_every), not O(session length).
//!
//! ## Durability
//!
//! A store created with [`SessionStore::durable`] additionally writes every
//! journal to disk ([`crate::journal::DiskJournal`]): the spec at open,
//! every event as it is applied (fsync'd per the configured policy), and a
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
//! independent mutex-guarded maps by a stable FNV-1a hash of the id (the
//! same deterministic-routing idea as `gdr_relation::pool::shard_of_ids`),
//! so an `open`, lookup, or eviction on one shard never blocks traffic on
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
//! that lock cannot gain a borrower while it is evicted.  Poisoned locks
//! are recovered (`PoisonError::into_inner`): a panicking worker must not
//! take every other session down, and `restore` rebuilds a
//! definitely-consistent engine from the journal if a panic left the live
//! one suspect.

use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

use gdr_cfd::RuleSet;
use gdr_core::config::GdrConfig;
use gdr_core::error::GdrError;
use gdr_core::step::{GdrEngine, SessionBuilder, WorkId, WorkPlan};
use gdr_core::strategy::Strategy;
use gdr_core::team::{Resolution, TeamConfig, TeamPlan, TeamSession};
use gdr_relation::codec::fnv1a64;
use gdr_relation::{Table, Value};
use gdr_repair::{Cell, Feedback};

use crate::journal::{
    session_dir_name, session_shard, team_digest, DiskJournal, JournalConfig, JournalError,
    RecoveryReport,
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

    fn build(&self) -> TeamSession {
        let builder = SessionBuilder::new(self.dirty.clone(), &self.rules)
            .strategy(self.strategy)
            .config(self.config.clone());
        let engine = match &self.ground_truth {
            Some(truth) => builder.ground_truth(truth.clone()).build(),
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
    },
    /// `supply_as(reviewer, id, value)` was applied.
    SuppliedAs {
        /// The supplying reviewer.
        reviewer: String,
        /// The lease id supplied.
        id: u64,
        /// The typed value.
        value: Value,
    },
    /// `skip_as(reviewer, id)` was applied.
    SkippedAs {
        /// The declining reviewer.
        reviewer: String,
        /// The lease id skipped.
        id: u64,
    },
    /// `release(reviewer, id)` returned a lease to the pool.
    Released {
        /// The releasing reviewer.
        reviewer: String,
        /// The released lease id.
        id: u64,
    },
    /// Validation checkpoint: entry `index` of the cumulative
    /// [`TeamSession::resolutions`] log resolved to `resolution`.  Not a
    /// replay *input* (replay recomputes the log from the operation events);
    /// replay cross-checks the recomputed entry against the recorded one, so
    /// a divergence surfaces as a typed error instead of silent drift.
    Resolved {
        /// Index into the cumulative resolution log.
        index: usize,
        /// The recorded resolution at that index.
        resolution: Resolution,
    },
}

/// The replay base a compaction installs: a validated clone of the live
/// session (engine plus coordinator), standing in for the `events`
/// transcript entries it absorbed.
#[derive(Debug, Clone)]
struct JournalSnapshot {
    team: TeamSession,
    events: usize,
    ends_finished: bool,
}

/// The per-session journal: build inputs, an optional compaction snapshot,
/// and the transcript tail recorded since that snapshot.
#[derive(Debug, Clone)]
pub struct SessionJournal {
    spec: OpenSpec,
    snapshot: Option<JournalSnapshot>,
    tail: Vec<TranscriptEvent>,
}

impl SessionJournal {
    /// A fresh journal over the given build inputs.
    pub fn new(spec: OpenSpec) -> SessionJournal {
        SessionJournal {
            spec,
            snapshot: None,
            tail: Vec::new(),
        }
    }

    /// A journal rebuilt from externally recovered events (the on-disk
    /// path): no snapshot, the whole transcript as tail.
    pub fn from_events(spec: OpenSpec, events: Vec<TranscriptEvent>) -> SessionJournal {
        SessionJournal {
            spec,
            snapshot: None,
            tail: events,
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
        debug_assert!(covered <= events.len(), "checkpoint beyond the transcript");
        let ends_finished =
            covered > 0 && matches!(events[covered - 1], TranscriptEvent::Finished { .. });
        SessionJournal {
            spec,
            snapshot: Some(JournalSnapshot {
                team,
                events: covered,
                ends_finished,
            }),
            tail: events[covered..].to_vec(),
        }
    }

    /// The journaled build inputs.
    pub fn spec(&self) -> &OpenSpec {
        &self.spec
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

    fn ends_finished(&self) -> bool {
        match self.tail.last() {
            Some(event) => matches!(event, TranscriptEvent::Finished { .. }),
            None => self.snapshot.as_ref().is_some_and(|s| s.ends_finished),
        }
    }

    /// Installs `team` — which must embody every journaled event — as the
    /// new replay base and drops the tail it absorbed.
    fn adopt_snapshot(&mut self, team: TeamSession) {
        let snapshot = JournalSnapshot {
            team,
            events: self.events_total(),
            ends_finished: self.ends_finished(),
        };
        self.snapshot = Some(snapshot);
        self.tail.clear();
    }

    /// Rebuilds the session — from the compaction snapshot when one exists,
    /// from scratch otherwise — and replays the tail through the public
    /// pull API.  Determinism makes the result bit-identical to the session
    /// the transcript was recorded from; a divergence (e.g. a journal
    /// edited by hand) surfaces as a typed [`GdrError`] because the
    /// replayed work ids or resolutions no longer line up.
    pub fn replay(&self) -> Result<TeamSession, GdrError> {
        let mut team = match &self.snapshot {
            Some(snapshot) => snapshot.team.clone(),
            None => self.spec.build(),
        };
        for event in &self.tail {
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
                } => {
                    team.answer_as(reviewer, WorkId::from_raw(*id), *feedback)?;
                }
                TranscriptEvent::SuppliedAs {
                    reviewer,
                    id,
                    value,
                } => {
                    team.supply_as(reviewer, WorkId::from_raw(*id), value.clone())?;
                }
                TranscriptEvent::SkippedAs { reviewer, id } => {
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
                TranscriptEvent::Resolved { index, resolution } => {
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

/// What [`Session::compact`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Total events the snapshot now covers.
    pub events: usize,
    /// Tail events dropped from RAM by this compaction.
    pub dropped: usize,
    /// Whether the snapshot was validated by replay before adoption.
    pub validated: bool,
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

    /// Sets the journal tunables (auto-compaction cadence, validation,
    /// segment size, fsync policy).
    pub fn journal(mut self, config: JournalConfig) -> SessionOptions {
        self.journal = config;
        self
    }

    /// Also writes the journal to `dir` on disk.  The directory is claimed
    /// atomically at open (a concurrent create of the same dir fails), the
    /// spec record is fsync'd before the engine is built, and every
    /// subsequent event is appended per the configured fsync policy.
    pub fn durable(mut self, dir: impl Into<PathBuf>) -> SessionOptions {
        self.durable_dir = Some(dir.into());
        self
    }

    /// Builds the engine from `spec` and opens the session.  Only the
    /// durable path can fail (journal-directory claim or first write); an
    /// in-memory open is infallible.
    pub fn open(self, spec: OpenSpec) -> Result<Session, GdrError> {
        let disk = match self.durable_dir {
            Some(dir) => Some(DiskJournal::create(dir, &spec, self.journal)?),
            None => None,
        };
        Ok(Session::start(spec, self.journal, disk))
    }
}

/// A live session: the engine under its multi-reviewer coordinator, its
/// journal, and (in durable mode) the on-disk journal every event is
/// appended to.
#[derive(Debug)]
pub struct Session {
    team: TeamSession,
    journal: SessionJournal,
    /// How many entries of the cumulative resolution log already have a
    /// [`TranscriptEvent::Resolved`] checkpoint in the journal.
    resolved_logged: usize,
    config: JournalConfig,
    disk: Option<DiskJournal>,
}

impl Session {
    /// Builds the engine from `spec` and starts a session journaling to
    /// `disk`, when given.
    fn start(spec: OpenSpec, config: JournalConfig, disk: Option<DiskJournal>) -> Session {
        let journal = SessionJournal::new(spec);
        Session {
            team: journal.spec.build(),
            journal,
            resolved_logged: 0,
            config,
            disk,
        }
    }

    /// Rebuilds a session from its on-disk journal: loads the spec, the
    /// recovered event prefix (truncating corrupt tails — see
    /// [`DiskJournal::load`]) and the newest valid checkpoint, then replays
    /// only the tail past the checkpoint through the public API (the whole
    /// transcript when no checkpoint survived) and re-attaches the append
    /// handle.  Returns the session together with what recovery had to
    /// repair.  Determinism makes the checkpointed restore bit-identical to
    /// a full replay; a checkpoint whose tail no longer replays (a diverged
    /// history) is dropped and recovery degrades to full replay, so the
    /// clean event prefix is never lost.
    pub fn rehydrate(
        dir: impl Into<PathBuf>,
        config: JournalConfig,
    ) -> Result<(Session, RecoveryReport), GdrError> {
        let (disk, loaded) = DiskJournal::open(dir, config)?;
        let mut recovery = loaded.recovery;
        let (journal, team) = match loaded.checkpoint {
            Some((covered, team)) => {
                let candidate = SessionJournal::from_checkpoint(
                    loaded.spec.clone(),
                    team,
                    covered,
                    &loaded.events,
                );
                match candidate.replay() {
                    Ok(replayed) => (candidate, replayed),
                    Err(_) => {
                        recovery.snapshots_skipped += 1;
                        let journal = SessionJournal::from_events(loaded.spec, loaded.events);
                        let team = journal.replay()?;
                        (journal, team)
                    }
                }
            }
            None => {
                let journal = SessionJournal::from_events(loaded.spec, loaded.events);
                let team = journal.replay()?;
                (journal, team)
            }
        };
        let resolved_logged = team.resolutions().len();
        Ok((
            Session {
                team,
                journal,
                resolved_logged,
                config,
                disk: Some(disk),
            },
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
    /// durability waits and fsync accounting ([`DiskJournal::wait_durable`],
    /// [`DiskJournal::appends`], [`DiskJournal::syncs`]).
    pub fn disk(&self) -> Option<&DiskJournal> {
        self.disk.as_ref()
    }

    /// Appends an applied event to the journals — disk first (so the
    /// in-memory journal never claims more than stable storage plus the
    /// fsync window), then RAM — and auto-compacts when the tail is due.
    /// On a disk error the event is journaled **nowhere** even though the
    /// engine applied it: the caller gets [`GdrError::Journal`], and a
    /// `restore` (or crash recovery) rolls back to the last durable record,
    /// which the `StaleWork` contract makes survivable for drivers.
    fn journal_event(&mut self, event: TranscriptEvent) -> Result<(), GdrError> {
        if let Some(disk) = &mut self.disk {
            disk.append(&event)?;
        }
        self.journal.tail.push(event);
        if self.config.compact_every > 0 && self.journal.tail.len() >= self.config.compact_every {
            self.compact()?;
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
        self.team.engine_mut().next_work()
    }

    /// Answers the `AskUser` item `id`; journals on success.  Pulls first
    /// when nothing is outstanding, as replay does, so a client that held
    /// `id` across a crash answers it without pulling again.
    pub fn answer(&mut self, id: WorkId, feedback: Feedback) -> Result<usize, GdrError> {
        let engine = self.team.engine_mut();
        engine.next_work()?;
        engine.answer(id, feedback)?;
        self.journal_event(TranscriptEvent::Answered(id.raw(), feedback))?;
        Ok(self.team.engine().verifications())
    }

    /// Supplies a value for the `NeedsValue` cell; pulls and journals as
    /// [`Session::answer`].
    pub fn supply(&mut self, cell: Cell, value: Value) -> Result<usize, GdrError> {
        let engine = self.team.engine_mut();
        engine.next_work()?;
        engine.supply_value(cell, value.clone())?;
        self.journal_event(TranscriptEvent::Supplied(cell, value))?;
        Ok(self.team.engine().verifications())
    }

    /// Skips the `NeedsValue` cell; pulls and journals as
    /// [`Session::answer`].
    pub fn skip(&mut self, cell: Cell) -> Result<(), GdrError> {
        let engine = self.team.engine_mut();
        engine.next_work()?;
        engine.skip_value(cell)?;
        self.journal_event(TranscriptEvent::Skipped(cell))?;
        Ok(())
    }

    /// Finishes the session; journals on success.
    pub fn finish(&mut self) -> Result<gdr_core::step::DoneReason, GdrError> {
        let pulled = self.pull_pending();
        let reason = self.team.finish()?;
        // finish() is idempotent; journal it once so replay stays aligned.
        if !self.journal.ends_finished() {
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

    /// Applies `reviewer`'s feedback to the leased item `id`; journals on
    /// success, including a [`TranscriptEvent::Resolved`] checkpoint for
    /// every resolution the conflict policy committed to the engine.
    pub fn answer_as(
        &mut self,
        reviewer: &str,
        id: WorkId,
        feedback: Feedback,
    ) -> Result<usize, GdrError> {
        self.team.answer_as(reviewer, id, feedback)?;
        self.journal_event(TranscriptEvent::AnsweredAs {
            reviewer: reviewer.to_string(),
            id: id.raw(),
            feedback,
        })?;
        self.journal_resolutions()?;
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
        self.team.supply_as(reviewer, id, value.clone())?;
        self.journal_event(TranscriptEvent::SuppliedAs {
            reviewer: reviewer.to_string(),
            id: id.raw(),
            value,
        })?;
        self.journal_resolutions()?;
        Ok(self.team.engine().verifications())
    }

    /// Declines the leased fix item `id` as `reviewer`; journals on
    /// success, as [`Session::answer_as`].
    pub fn skip_as(&mut self, reviewer: &str, id: WorkId) -> Result<(), GdrError> {
        self.team.skip_as(reviewer, id)?;
        self.journal_event(TranscriptEvent::SkippedAs {
            reviewer: reviewer.to_string(),
            id: id.raw(),
        })?;
        self.journal_resolutions()?;
        Ok(())
    }

    /// Releases `reviewer`'s lease `id` back to the pool.  Only a release
    /// that actually held (returned `true`) changes state and is journaled;
    /// a stale release is a no-op on both the session and the journal.
    pub fn release_lease(&mut self, reviewer: &str, id: WorkId) -> Result<bool, GdrError> {
        let held = self.team.release(reviewer, id)?;
        if held {
            self.journal_event(TranscriptEvent::Released {
                reviewer: reviewer.to_string(),
                id: id.raw(),
            })?;
        }
        Ok(held)
    }

    /// Journals a [`TranscriptEvent::Resolved`] checkpoint for every
    /// resolution committed since the last one logged.
    fn journal_resolutions(&mut self) -> Result<(), GdrError> {
        while self.resolved_logged < self.team.resolutions().len() {
            let index = self.resolved_logged;
            let resolution = self.team.resolutions()[index].clone();
            self.resolved_logged += 1;
            self.journal_event(TranscriptEvent::Resolved { index, resolution })?;
        }
        Ok(())
    }

    /// Compacts the journal: installs a clone of the live engine as the
    /// replay base (a pending pull included: the verbs after it re-serve
    /// purely), drops the absorbed tail from RAM, and (in durable mode)
    /// persists the checkpoint on disk — the serialised session and its
    /// digest as a `snap-NNNNNN.gdrs` file — so a cold restart loads the
    /// checkpoint and replays only the journal tail.
    /// When [`JournalConfig::validate_compaction`] is set the snapshot is
    /// only adopted after a full replay of the current journal (and of a
    /// pending pull) digest-matches the live engine — a divergence (which would make the
    /// snapshot lie) fails with [`GdrError::Journal`] and leaves the
    /// journal untouched.
    pub fn compact(&mut self) -> Result<CompactionStats, GdrError> {
        let events = self.journal.events_total();
        let dropped = self.journal.tail.len();
        let live = team_digest(&self.team);
        if self.config.validate_compaction {
            let rebuilt = team_digest(&self.replayed()?);
            if rebuilt != live {
                return Err(GdrError::Journal {
                    detail: format!(
                        "compaction validation failed: replayed digest {rebuilt:016x} != \
                         live digest {live:016x} after {events} events"
                    ),
                });
            }
        }
        self.journal.adopt_snapshot(self.team.clone());
        if let Some(disk) = &mut self.disk {
            disk.record_checkpoint(events, &self.team, live)?;
        }
        Ok(CompactionStats {
            events,
            dropped,
            validated: self.config.validate_compaction,
        })
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
    /// one held.  Returns the number of tail events replayed.
    pub fn restore(&mut self) -> Result<usize, GdrError> {
        self.team = self.replayed()?;
        self.resolved_logged = self.resolved_logged.max(self.team.resolutions().len());
        Ok(self.journal.tail.len())
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

type Shard = Mutex<ShardMap>;

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

    /// The durability configuration, when this store persists to disk.
    pub fn durability(&self) -> Option<&DurabilityConfig> {
        self.durability.as_ref()
    }

    /// The shard owning `id` — a stable FNV-1a hash of the id, masked down
    /// (the `shard_of_ids` routing idea applied to session ids).
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
        let mut shard = lock_recovering(self.shard(id));
        if shard.sessions.contains_key(id) {
            return Err(StoreError::DuplicateSession(id.to_string()));
        }
        shard.insert(id, session, self.stamp());
        self.live.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    /// Creates a session under `id`.
    pub fn open(&self, id: &str, spec: OpenSpec) -> Result<Arc<Mutex<Session>>, StoreError> {
        // Cheap duplicate pre-check so a racing re-open does not pay for a
        // doomed engine build.  For durable stores the check covers disk
        // too: an evicted session is still *the* session under its id.
        if lock_recovering(self.shard(id)).sessions.contains_key(id) {
            return Err(StoreError::DuplicateSession(id.to_string()));
        }
        if self.existing_session_dir(id).is_some() {
            return Err(StoreError::DuplicateSession(id.to_string()));
        }
        // Build the engine (violation detection, suggestion generation —
        // potentially large) *outside* any shard lock so concurrent
        // requests — even on sessions of the same shard — are never stalled
        // behind an open.  In durable mode the journal directory is claimed
        // atomically first, so a racing open of the same id loses at the
        // filesystem.
        let (config, disk) = match (&self.durability, self.session_dir(id)) {
            (Some(durability), Some(dir)) => {
                let disk = match DiskJournal::create(dir, &spec, durability.journal) {
                    Ok(disk) => disk,
                    Err(JournalError::Exists { .. }) => {
                        return Err(StoreError::DuplicateSession(id.to_string()))
                    }
                    Err(err) => return Err(StoreError::Gdr(err.into())),
                };
                (durability.journal, Some(disk))
            }
            _ => (JournalConfig::default(), None),
        };
        let session = Arc::new(Mutex::new(Session::start(spec, config, disk)));
        self.insert(id, session.clone())?;
        // Session drops (final journal sync) happen here, outside any lock.
        drop(self.evict_over_budget());
        Ok(session)
    }

    /// Looks up a session by id, rehydrating it from its on-disk journal
    /// when the store is durable and the session is not live in RAM.
    pub fn get(&self, id: &str) -> Result<Arc<Mutex<Session>>, StoreError> {
        let stamp = self.stamp();
        if let Some(session) = lock_recovering(self.shard(id)).touch(id, stamp) {
            return Ok(session);
        }
        let Some(config) = &self.durability else {
            return Err(StoreError::UnknownSession(id.to_string()));
        };
        let Some(dir) = self.existing_session_dir(id) else {
            return Err(StoreError::UnknownSession(id.to_string()));
        };
        // Rehydrate outside the shard lock: replay can be expensive and
        // must not stall every other session.  A concurrent rehydrate of
        // the same id is resolved below — first insert wins, the loser's
        // copy is dropped (its append handle wrote nothing).
        let (session, _recovery) = Session::rehydrate(&dir, config.journal)?;
        let session = Arc::new(Mutex::new(session));
        if self.insert(id, session.clone()).is_err() {
            // Lost the rehydration race; serve the winner's copy.
            let shard = lock_recovering(self.shard(id));
            if let Some(entry) = shard.sessions.get(id) {
                return Ok(entry.session.clone());
            }
            // Winner already evicted again — extraordinarily unlikely, but
            // our fully-replayed copy is just as correct, so retry-insert
            // is not needed; hand it out untracked.
            return Ok(session);
        }
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
                if let Some((stamp, id)) = lock_recovering(shard).idle_candidate() {
                    if victim.as_ref().is_none_or(|(_, _, t)| stamp < *t) {
                        victim = Some((index, id, stamp));
                    }
                }
            }
            let Some((index, id, last_used)) = victim else {
                break; // Everything over the cap is currently borrowed.
            };
            let mut shard = lock_recovering(&self.shards[index]);
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
        let entry = lock_recovering(self.shard(id)).remove(id);
        let lived = entry.is_some();
        if lived {
            self.live.fetch_sub(1, Ordering::AcqRel);
        }
        drop(entry);
        match self.existing_session_dir(id) {
            Some(dir) => fs::remove_dir_all(&dir).is_ok() || lived,
            None => lived,
        }
    }

    /// Runs `f` under the session's lock.
    pub fn with_session<T>(
        &self,
        id: &str,
        f: impl FnOnce(&mut Session) -> Result<T, GdrError>,
    ) -> Result<T, StoreError> {
        let session = self.get(id)?;
        let mut guard = lock_recovering(&session);
        f(&mut guard).map_err(StoreError::Gdr)
    }
}

/// Locks a mutex, recovering from poisoning: a connection thread that
/// panicked mid-request must not deny every later request.  (For a session
/// whose engine might have been left mid-mutation, `restore` rebuilds a
/// consistent one from the journal.)
fn lock_recovering<T>(mutex: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}
