//! Multi-reviewer sessions: work leases and conflict resolution on top of
//! the pull engine.
//!
//! [`GdrEngine`] serves exactly one outstanding
//! work item — the right contract for one reviewer, and the wrong shape for
//! a review *team*.  [`TeamSession`] wraps an engine and fans the current
//! ranked group out to N reviewers under **work leases**:
//!
//! * [`TeamSession::next_work_for`] hands each reviewer a distinct item
//!   from the group the strategy already selected (the engine's outstanding
//!   pick first, then the rest of the group in ranking order), under a
//!   lease with a TTL measured in coordinator operations.  A reviewer that
//!   stops answering simply stops ticking its own lease — every *other*
//!   reviewer's operation advances the logical clock, so an abandoned lease
//!   expires and the item is re-served to someone else.
//! * [`TeamSession::answer_as`] collects answers until the
//!   [`ConflictPolicy`] resolves the item: `FirstWins` takes the first
//!   answer, `Majority { k }` waits for `k` and takes the most common
//!   feedback (ties break toward the earliest answer), and
//!   `EscalateToNeedsValue` compares two answers and, on disagreement,
//!   re-serves the cell as a [`TeamPlan::Fix`] asking a reviewer to type
//!   the correct value directly.
//! * Resolved feedback is buffered and applied to the engine **strictly in
//!   the engine's own serving order** (the drain loop answers the engine's
//!   outstanding item whenever a buffered resolution matches it).  The
//!   final engine state is therefore *literally* a serial one-reviewer run
//!   of the recorded [`TeamSession::resolutions`] log — the serial-
//!   equivalence guarantee is by construction, and pinned bit-for-bit by a
//!   proptest over random reviewer interleavings.
//!
//! **Determinism.**  The coordinator owns no wall clock and no randomness:
//! its state is a pure function of the sequence of successful operations
//! applied to it.  The logical clock ticks exactly once per state-changing
//! operation (a lease grant, a `Wait`-returning pull, an accepted answer or
//! release); idempotent re-serves tick nothing and change nothing.  Lease
//! expiry is evaluated lazily (`clock - granted_at >= ttl`) wherever a
//! lease is consulted, and failed operations mutate nothing the next
//! successful operation can observe — which is what lets a durable journal
//! replay the operation sequence and land on bit-identical state.
//!
//! Protocol violations follow the engine's error contract: an expired,
//! released, or foreign lease id fails with
//! [`GdrError::StaleWork`]/[`GdrError::NoOutstandingWork`] and the
//! coordinator is left re-servable, so a retrying reviewer recovers by
//! pulling [`TeamSession::next_work_for`] again — duplicate deliveries are
//! absorbed exactly like the single-reviewer verbs absorb them.

use gdr_relation::codec;
use gdr_relation::Value;
use gdr_repair::{Cell, Feedback, Update};

use crate::error::{GdrError, WorkTarget};
use crate::step::{DoneReason, GdrEngine, WorkId, WorkPlan};
use crate::Result;

/// How disagreeing reviewer answers to the same suggestion resolve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConflictPolicy {
    /// The first answer to arrive decides the item (one lease per item, so
    /// disagreement cannot arise; a duplicate answer is absorbed as stale).
    FirstWins,
    /// Collect `k` answers per item and apply the most common feedback;
    /// ties break toward the earliest answer among the tied feedbacks.
    Majority {
        /// Number of independent answers required per item (min 1).
        k: usize,
    },
    /// Collect two answers; on agreement apply them, on disagreement
    /// re-serve the cell as a [`TeamPlan::Fix`] so a reviewer types the
    /// correct value directly (the §4.2 user-supplies-a-value escape).
    EscalateToNeedsValue,
}

impl ConflictPolicy {
    /// Number of reviewer answers needed before an item resolves.
    pub fn required_answers(self) -> usize {
        match self {
            ConflictPolicy::FirstWins => 1,
            ConflictPolicy::Majority { k } => k.max(1),
            ConflictPolicy::EscalateToNeedsValue => 2,
        }
    }
}

gdr_relation::state_enum! { ConflictPolicy, "conflict-policy" {
    0 => FirstWins,
    1 => Majority { k },
    2 => EscalateToNeedsValue,
} }

/// Coordinator configuration: the conflict policy and the lease TTL.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TeamConfig {
    /// How disagreeing answers to the same cell resolve.
    pub policy: ConflictPolicy,
    /// Lease time-to-live in *coordinator operations* (logical clock ticks,
    /// not wall time — wall time would break journal replay).  A lease
    /// granted at tick `g` is dead once `clock - g >= lease_ttl`.
    pub lease_ttl: u64,
}

impl Default for TeamConfig {
    fn default() -> TeamConfig {
        TeamConfig {
            policy: ConflictPolicy::FirstWins,
            lease_ttl: 32,
        }
    }
}

gdr_relation::state_record! { TeamConfig { policy, lease_ttl } }

/// One unit of work served to a named reviewer.
#[derive(Debug, Clone, PartialEq)]
pub enum TeamPlan {
    /// Verify `update` and call [`TeamSession::answer_as`] with the lease id.
    Ask {
        /// The lease id to answer with (coordinator-issued; engine work ids
        /// never cross the team API).
        id: WorkId,
        /// The suggested update to verify.
        update: Update,
    },
    /// Type the correct value for `cell` (an escalated disagreement, or the
    /// engine's supply sweep) via [`TeamSession::supply_as`] /
    /// [`TeamSession::skip_as`].
    Fix {
        /// The lease id to supply/skip with.
        id: WorkId,
        /// The cell needing a value.
        cell: Cell,
        /// The cell's current value.
        current: Value,
    },
    /// Every available item is leased to (or already answered by) someone;
    /// pull again.  Each `Wait` ticks the clock, so polling reviewers age
    /// out abandoned leases.
    Wait,
    /// The session concluded.
    Done(DoneReason),
}

/// One applied resolution, in engine application order.  The log *is* the
/// serial one-reviewer session the team run is equivalent to: replaying it
/// verb-for-verb against a fresh engine reproduces the final state
/// bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub enum Resolution {
    /// The policy-resolved feedback applied to the suggestion on `cell`.
    Answer {
        /// The cell the resolved suggestion modifies.
        cell: Cell,
        /// The resolved feedback.
        feedback: Feedback,
    },
    /// A reviewer-typed value applied to a supply-sweep cell.
    Supply {
        /// The cell the value was supplied for.
        cell: Cell,
        /// The supplied value.
        value: Value,
    },
    /// A declined supply-sweep cell.
    Skip {
        /// The skipped cell.
        cell: Cell,
    },
}

gdr_relation::state_enum! { Resolution, "resolution" {
    0 => Answer { cell, feedback },
    1 => Supply { cell, value },
    2 => Skip { cell },
} }

/// The work item a lease covers.
#[derive(Debug, Clone, PartialEq)]
enum ItemKey {
    /// Verify the suggestion `value` on `cell`.
    Ask { cell: Cell, value: Value },
    /// Type the correct value for `cell`.  `suggestion` is the disagreed
    /// suggestion for an escalation, `None` for the engine's supply sweep.
    Fix {
        cell: Cell,
        suggestion: Option<Value>,
    },
}

impl ItemKey {
    fn cell(&self) -> Cell {
        match self {
            ItemKey::Ask { cell, .. } | ItemKey::Fix { cell, .. } => *cell,
        }
    }
}

gdr_relation::state_enum! { ItemKey, "item-key" {
    0 => Ask { cell, value },
    1 => Fix { cell, suggestion },
} }

#[derive(Debug, Clone)]
struct Lease {
    id: WorkId,
    reviewer: String,
    item: ItemKey,
    granted_at: u64,
}

gdr_relation::state_record! { Lease { id, reviewer, item, granted_at } }

/// A read-only view of one live lease, for inspection transports (the
/// `leases` wire verb): who holds which work item, and for how long.
#[derive(Debug, Clone, PartialEq)]
pub struct LeaseInfo {
    /// The lease's work id (what the reviewer answers with).
    pub id: WorkId,
    /// The reviewer holding the lease.
    pub reviewer: String,
    /// The cell the leased item targets.
    pub cell: Cell,
    /// Age of the lease in coordinator clock ticks (`clock - granted_at`).
    pub age: u64,
}

#[derive(Debug, Clone)]
struct AnswerRec {
    item: ItemKey,
    reviewer: String,
    feedback: Feedback,
}

gdr_relation::state_record! { AnswerRec { item, reviewer, feedback } }

/// A multi-reviewer coordinator over one [`GdrEngine`].
///
/// See the [module docs](self) for the protocol; `Clone` snapshots the
/// whole session (engine and coordinator) for branching and compaction.
#[derive(Debug, Clone)]
pub struct TeamSession {
    engine: GdrEngine,
    config: TeamConfig,
    /// Logical clock: ticks once per state-changing coordinator operation.
    clock: u64,
    next_lease_id: u64,
    leases: Vec<Lease>,
    /// Collected answers awaiting resolution, in arrival order.
    answers: Vec<AnswerRec>,
    /// Escalated disagreements awaiting a typed value: `(cell, suggestion)`.
    escalations: Vec<(Cell, Value)>,
    /// Policy-resolved feedback waiting for the engine to serve its item:
    /// `(cell, suggestion, feedback)`.
    buffered: Vec<(Cell, Value, Feedback)>,
    resolutions: Vec<Resolution>,
}

impl TeamSession {
    /// Wraps an engine for multi-reviewer serving.
    pub fn new(engine: GdrEngine, config: TeamConfig) -> TeamSession {
        TeamSession {
            engine,
            config,
            clock: 0,
            next_lease_id: 0,
            leases: Vec::new(),
            answers: Vec::new(),
            escalations: Vec::new(),
            buffered: Vec::new(),
            resolutions: Vec::new(),
        }
    }

    /// Read access to the wrapped engine.
    pub fn engine(&self) -> &GdrEngine {
        &self.engine
    }

    /// Mutable access to the wrapped engine, for single-reviewer verbs
    /// routed around the coordinator.  Leases referencing work the direct
    /// verb retires are revalidated on the next coordinator operation.
    pub fn engine_mut(&mut self) -> &mut GdrEngine {
        &mut self.engine
    }

    /// The coordinator configuration.
    pub fn config(&self) -> &TeamConfig {
        &self.config
    }

    /// The logical clock (ticks once per state-changing operation).
    pub fn clock(&self) -> u64 {
        self.clock
    }

    /// The applied-resolution log, in engine application order — the serial
    /// one-reviewer session this team run is equivalent to.
    pub fn resolutions(&self) -> &[Resolution] {
        &self.resolutions
    }

    /// Number of currently live (unexpired) leases.
    pub fn live_leases(&self) -> usize {
        let clock = self.clock;
        let ttl = self.ttl();
        self.leases
            .iter()
            .filter(|lease| clock - lease.granted_at < ttl)
            .count()
    }

    /// A read-only view of every currently live lease, in grant order — the
    /// lease table the `leases` wire verb exposes.  Purely observational:
    /// consulting it ticks no clock and expires nothing.
    pub fn lease_table(&self) -> Vec<LeaseInfo> {
        let clock = self.clock;
        let ttl = self.ttl();
        self.leases
            .iter()
            .filter(|lease| clock - lease.granted_at < ttl)
            .map(|lease| LeaseInfo {
                id: lease.id,
                reviewer: lease.reviewer.clone(),
                cell: lease.item.cell(),
                age: clock - lease.granted_at,
            })
            .collect()
    }

    /// Serves (or re-serves) work to `reviewer`.
    ///
    /// Idempotent while the reviewer holds a live lease on still-valid work:
    /// the same plan comes back and nothing changes.  Otherwise the call is
    /// state-changing — it ticks the clock and either grants a fresh lease
    /// or returns [`TeamPlan::Wait`] — and must be journaled by a durable
    /// caller.  Compare [`TeamSession::clock`] before and after to tell the
    /// two apart.
    pub fn next_work_for(&mut self, reviewer: &str) -> Result<TeamPlan> {
        let plan = self.engine.next_work()?;
        if let WorkPlan::Done(reason) = plan {
            return Ok(TeamPlan::Done(reason));
        }
        // Pure re-serve: a live lease on still-valid work.
        if let Some(lease) = self.live_lease_of(reviewer, &plan) {
            let (id, item) = (lease.id, lease.item.clone());
            return Ok(self.plan_for(id, &item, &plan));
        }
        // State-changing from here on (the caller journals this pull).
        self.clock += 1;
        self.prune(&plan);
        if let Some(item) = self.leasable_item(reviewer, &plan) {
            self.next_lease_id += 1;
            let id = WorkId::from_raw(self.next_lease_id);
            self.leases.push(Lease {
                id,
                reviewer: reviewer.to_string(),
                item: item.clone(),
                granted_at: self.clock,
            });
            return Ok(self.plan_for(id, &item, &plan));
        }
        Ok(TeamPlan::Wait)
    }

    /// Answers the [`TeamPlan::Ask`] item leased to `reviewer` as `id`.
    /// When the conflict policy has enough answers, the item resolves and
    /// the drain loop applies every buffered resolution the engine is ready
    /// for.
    ///
    /// # Errors
    /// [`GdrError::StaleWork`] if the reviewer's live lease is a different
    /// id, [`GdrError::NoOutstandingWork`] if the reviewer holds no live
    /// lease (expired, released, already answered, or never granted), and
    /// [`GdrError::WorkMismatch`] if the lease is a [`TeamPlan::Fix`].  All
    /// leave the coordinator untouched, so a retrying reviewer re-pulls and
    /// recovers.
    pub fn answer_as(&mut self, reviewer: &str, id: WorkId, feedback: Feedback) -> Result<()> {
        let plan = self.engine.next_work()?;
        let lease = self.checked_lease(reviewer, id, &plan, "answer_as")?;
        let ItemKey::Ask { cell, value } = lease.item.clone() else {
            return Err(GdrError::WorkMismatch {
                verb: "answer_as",
                got: WorkTarget::Ask(id),
                outstanding: WorkTarget::Value(lease.item.cell()),
            });
        };
        self.clock += 1;
        self.prune(&plan);
        self.leases.retain(|lease| lease.id != id);
        self.answers.push(AnswerRec {
            item: ItemKey::Ask {
                cell,
                value: value.clone(),
            },
            reviewer: reviewer.to_string(),
            feedback,
        });
        self.try_resolve(cell, &value);
        self.drain()?;
        let plan = self.engine.next_work()?;
        self.prune(&plan);
        Ok(())
    }

    /// Supplies the correct value for the [`TeamPlan::Fix`] item leased to
    /// `reviewer` as `id`.  For an escalated disagreement the value maps
    /// back onto the suggestion's feedback alphabet (matches the suggestion
    /// → confirm, matches the current value → retain, anything else →
    /// reject); for a supply-sweep cell it is applied directly.
    ///
    /// # Errors
    /// As [`TeamSession::answer_as`], with [`GdrError::WorkMismatch`] when
    /// the lease is an [`TeamPlan::Ask`].
    pub fn supply_as(&mut self, reviewer: &str, id: WorkId, value: Value) -> Result<()> {
        self.fix_as(reviewer, id, Some(value))
    }

    /// Declines the [`TeamPlan::Fix`] item leased to `reviewer` as `id`: a
    /// supply-sweep cell is skipped (the engine offers the next candidate),
    /// an escalated disagreement resolves conservatively to retaining the
    /// current value.
    ///
    /// # Errors
    /// As [`TeamSession::supply_as`].
    pub fn skip_as(&mut self, reviewer: &str, id: WorkId) -> Result<()> {
        self.fix_as(reviewer, id, None)
    }

    fn fix_as(&mut self, reviewer: &str, id: WorkId, value: Option<Value>) -> Result<()> {
        let verb = if value.is_some() {
            "supply_as"
        } else {
            "skip_as"
        };
        let plan = self.engine.next_work()?;
        let lease = self.checked_lease(reviewer, id, &plan, verb)?;
        let ItemKey::Fix { cell, suggestion } = lease.item.clone() else {
            return Err(GdrError::WorkMismatch {
                verb,
                got: WorkTarget::Value(lease.item.cell()),
                outstanding: WorkTarget::Ask(id),
            });
        };
        self.clock += 1;
        self.prune(&plan);
        self.leases.retain(|lease| lease.id != id);
        match suggestion {
            Some(suggestion) => {
                // Escalation: map the typed value back onto the feedback
                // alphabet and resolve the disagreed suggestion with it.
                self.escalations
                    .retain(|(c, s)| !(*c == cell && *s == suggestion));
                let current = self.engine.state().table().cell(cell.0, cell.1).clone();
                let feedback = match value {
                    Some(v) if v == suggestion => Feedback::Confirm,
                    Some(v) if v == current => Feedback::Retain,
                    Some(_) => Feedback::Reject,
                    None => Feedback::Retain,
                };
                self.buffered.push((cell, suggestion, feedback));
            }
            None => {
                // Supply sweep: the engine's outstanding item *is* this
                // cell (validity is part of the lease check above).
                match value {
                    Some(value) => {
                        let current = self.engine.state().table().cell(cell.0, cell.1);
                        if value == *current {
                            self.engine.skip_value(cell)?;
                            self.resolutions.push(Resolution::Skip { cell });
                        } else {
                            self.engine.supply_value(cell, value.clone())?;
                            self.resolutions.push(Resolution::Supply { cell, value });
                        }
                    }
                    None => {
                        self.engine.skip_value(cell)?;
                        self.resolutions.push(Resolution::Skip { cell });
                    }
                }
            }
        }
        self.drain()?;
        let plan = self.engine.next_work()?;
        self.prune(&plan);
        Ok(())
    }

    /// Releases the live lease `id` held by `reviewer`, returning the item
    /// to the pool for the next puller.  Releasing a lease that is already
    /// dead (expired, resolved, or never granted) is a `false` no-op — safe
    /// to retry.
    pub fn release(&mut self, reviewer: &str, id: WorkId) -> Result<bool> {
        let plan = self.engine.next_work()?;
        let held = self
            .live_lease_of(reviewer, &plan)
            .is_some_and(|lease| lease.id == id);
        if !held {
            return Ok(false);
        }
        self.clock += 1;
        self.prune(&plan);
        self.leases.retain(|lease| lease.id != id);
        Ok(true)
    }

    /// Ends the session: drops every lease and unresolved answer and
    /// finishes the engine (the learner decides the remainder, as in the
    /// single-reviewer [`GdrEngine::finish`]).
    pub fn finish(&mut self) -> Result<DoneReason> {
        self.leases.clear();
        self.answers.clear();
        self.escalations.clear();
        self.buffered.clear();
        self.engine.finish()
    }

    /// The session's canonical state: its [`State`](codec::State) payload.  Equal
    /// payloads mean equal sessions, every row, model and lease included.
    pub fn state_bytes(&self) -> Vec<u8> {
        codec::encode_to_vec(self)
    }

    /// The session as one framed `S2 <len> <fnv64-hex> <payload>` snapshot
    /// record around [`TeamSession::state_bytes`] (see
    /// [`crate::step::GdrEngine::to_snapshot_bytes`]).
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        codec::frame(&self.state_bytes())
    }

    /// Decodes a session from a framed snapshot produced by
    /// [`TeamSession::to_snapshot_bytes`].  Every failure is a typed
    /// [`CodecError`](codec::CodecError) so callers can degrade to replay.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> codec::Result<TeamSession> {
        codec::decode_exact(codec::unframe(bytes)?)
    }

    // ---- internals --------------------------------------------------------

    fn ttl(&self) -> u64 {
        self.config.lease_ttl.max(1)
    }

    /// The reviewer's live lease on still-valid work, if any (read-only —
    /// expiry and validity are evaluated, never materialised, here).
    fn live_lease_of(&self, reviewer: &str, plan: &WorkPlan) -> Option<&Lease> {
        let ttl = self.ttl();
        self.leases.iter().find(|lease| {
            lease.reviewer == reviewer
                && self.clock - lease.granted_at < ttl
                && self.item_valid(&lease.item, plan)
        })
    }

    /// Resolves `id` to the reviewer's live lease, or the typed error the
    /// protocol contract prescribes.  Read-only: errors mutate nothing.
    fn checked_lease(
        &self,
        reviewer: &str,
        id: WorkId,
        plan: &WorkPlan,
        verb: &'static str,
    ) -> Result<&Lease> {
        match self.live_lease_of(reviewer, plan) {
            Some(lease) if lease.id == id => Ok(lease),
            Some(lease) => Err(GdrError::StaleWork {
                got: id,
                outstanding: lease.id,
            }),
            None => Err(GdrError::NoOutstandingWork { verb }),
        }
    }

    /// Is this item still something the engine can be answered about?
    fn item_valid(&self, item: &ItemKey, plan: &WorkPlan) -> bool {
        match item {
            ItemKey::Ask { cell, value } => {
                // An escalation supersedes the plain ask on its cell.
                if self.escalations.iter().any(|(c, _)| c == cell) {
                    return false;
                }
                self.ask_offered(*cell, value, plan)
            }
            ItemKey::Fix { cell, suggestion } => match suggestion {
                Some(suggestion) => {
                    self.escalations
                        .iter()
                        .any(|(c, s)| c == cell && s == suggestion)
                        && self.ask_offered(*cell, suggestion, plan)
                }
                None => matches!(plan, WorkPlan::NeedsValue { cell: c } if c == cell),
            },
        }
    }

    /// Is `(cell, value)` among the engine's current offerings (the
    /// outstanding plan or the selected group's candidates)?
    fn ask_offered(&self, cell: Cell, value: &Value, plan: &WorkPlan) -> bool {
        if let WorkPlan::AskUser { update, .. } = plan {
            if update.cell() == cell && update.value == *value {
                return true;
            }
        }
        self.engine
            .group_candidates()
            .iter()
            .any(|u| u.cell() == cell && u.value == *value)
    }

    /// Physically drops expired leases and records whose item is no longer
    /// offered.  Only called from state-changing (journaled) operations, so
    /// replay prunes at exactly the same points.
    fn prune(&mut self, plan: &WorkPlan) {
        let clock = self.clock;
        let ttl = self.ttl();
        self.leases.retain(|lease| clock - lease.granted_at < ttl);
        // Escalations and their answers/leases go stale together when the
        // suggestion they disagree about is no longer offered.
        let engine = &self.engine;
        let offered = |cell: Cell, value: &Value| {
            if let WorkPlan::AskUser { update, .. } = plan {
                if update.cell() == cell && update.value == *value {
                    return true;
                }
            }
            engine
                .group_candidates()
                .iter()
                .any(|u| u.cell() == cell && u.value == *value)
        };
        self.escalations.retain(|(cell, sugg)| offered(*cell, sugg));
        let escalated: Vec<Cell> = self.escalations.iter().map(|(c, _)| *c).collect();
        self.answers.retain(|rec| match &rec.item {
            ItemKey::Ask { cell, value } => !escalated.contains(cell) && offered(*cell, value),
            ItemKey::Fix { .. } => false,
        });
        self.buffered
            .retain(|(cell, value, _)| offered(*cell, value));
        let escalations = &self.escalations;
        self.leases.retain(|lease| match &lease.item {
            ItemKey::Ask { cell, value } => !escalated.contains(cell) && offered(*cell, value),
            ItemKey::Fix { cell, suggestion } => match suggestion {
                Some(sugg) => escalations.iter().any(|(c, s)| c == cell && s == sugg),
                None => matches!(plan, WorkPlan::NeedsValue { cell: c } if c == cell),
            },
        });
    }

    /// The next item `reviewer` may lease, in deterministic priority order:
    /// escalations first, then the supply sweep, then the engine's
    /// outstanding pick, then the rest of the group in ranking order.
    fn leasable_item(&self, reviewer: &str, plan: &WorkPlan) -> Option<ItemKey> {
        for (cell, suggestion) in &self.escalations {
            let item = ItemKey::Fix {
                cell: *cell,
                suggestion: Some(suggestion.clone()),
            };
            if self.live_leases_on(&item) == 0 {
                return Some(item);
            }
        }
        match plan {
            WorkPlan::NeedsValue { cell } => {
                let item = ItemKey::Fix {
                    cell: *cell,
                    suggestion: None,
                };
                (self.live_leases_on(&item) == 0).then_some(item)
            }
            WorkPlan::AskUser { update, .. } => {
                let required = self.config.policy.required_answers();
                let mut candidates: Vec<&Update> = vec![update];
                for candidate in self.engine.group_candidates() {
                    if candidate.cell() != update.cell() || candidate.value != update.value {
                        candidates.push(candidate);
                    }
                }
                for candidate in candidates {
                    let cell = candidate.cell();
                    if self.escalations.iter().any(|(c, _)| *c == cell) {
                        continue;
                    }
                    if self
                        .buffered
                        .iter()
                        .any(|(c, v, _)| *c == cell && *v == candidate.value)
                    {
                        continue;
                    }
                    let item = ItemKey::Ask {
                        cell,
                        value: candidate.value.clone(),
                    };
                    if self
                        .answers
                        .iter()
                        .any(|rec| rec.item == item && rec.reviewer == reviewer)
                    {
                        continue;
                    }
                    if self.live_leases_on(&item) + self.answers_on(&item) < required {
                        return Some(item);
                    }
                }
                None
            }
            WorkPlan::Done(_) => None,
        }
    }

    fn live_leases_on(&self, item: &ItemKey) -> usize {
        let clock = self.clock;
        let ttl = self.ttl();
        self.leases
            .iter()
            .filter(|lease| lease.item == *item && clock - lease.granted_at < ttl)
            .count()
    }

    fn answers_on(&self, item: &ItemKey) -> usize {
        self.answers.iter().filter(|rec| rec.item == *item).count()
    }

    fn plan_for(&self, id: WorkId, item: &ItemKey, plan: &WorkPlan) -> TeamPlan {
        match item {
            ItemKey::Ask { cell, value } => {
                let update = if let WorkPlan::AskUser { update, .. } = plan {
                    if update.cell() == *cell && update.value == *value {
                        Some(update.clone())
                    } else {
                        None
                    }
                } else {
                    None
                };
                let update = update
                    .or_else(|| {
                        self.engine
                            .group_candidates()
                            .iter()
                            .find(|u| u.cell() == *cell && u.value == *value)
                            .cloned()
                    })
                    .expect("a leased ask item is always among the engine's offerings");
                TeamPlan::Ask { id, update }
            }
            ItemKey::Fix { cell, .. } => TeamPlan::Fix {
                id,
                cell: *cell,
                current: self.engine.state().table().cell(cell.0, cell.1).clone(),
            },
        }
    }

    /// Applies the conflict policy to the answers collected for one item;
    /// a resolution moves the item into the buffered queue (or escalates).
    fn try_resolve(&mut self, cell: Cell, value: &Value) {
        let item = ItemKey::Ask {
            cell,
            value: value.clone(),
        };
        let recs: Vec<Feedback> = self
            .answers
            .iter()
            .filter(|rec| rec.item == item)
            .map(|rec| rec.feedback)
            .collect();
        let resolved = match self.config.policy {
            ConflictPolicy::FirstWins => recs.first().copied(),
            ConflictPolicy::Majority { k } => {
                if recs.len() >= k.max(1) {
                    Some(majority(&recs))
                } else {
                    None
                }
            }
            ConflictPolicy::EscalateToNeedsValue => {
                if recs.len() >= 2 {
                    if recs.iter().all(|fb| *fb == recs[0]) {
                        Some(recs[0])
                    } else {
                        // Disagreement: clear the answers and re-serve the
                        // cell as a Fix item asking for the value directly.
                        self.answers.retain(|rec| rec.item != item);
                        self.leases.retain(|lease| lease.item != item);
                        self.escalations.push((cell, value.clone()));
                        return;
                    }
                } else {
                    None
                }
            }
        };
        if let Some(feedback) = resolved {
            self.answers.retain(|rec| rec.item != item);
            self.leases.retain(|lease| lease.item != item);
            self.buffered.push((cell, value.clone(), feedback));
        }
    }

    /// Applies buffered resolutions strictly in the engine's own serving
    /// order: whenever the engine's outstanding item has a buffered
    /// resolution, answer it and let the engine serve the next one.
    fn drain(&mut self) -> Result<()> {
        loop {
            let plan = self.engine.next_work()?;
            let WorkPlan::AskUser { id, update, .. } = plan else {
                return Ok(());
            };
            let position = self
                .buffered
                .iter()
                .position(|(cell, value, _)| *cell == update.cell() && *value == update.value);
            let Some(position) = position else {
                return Ok(());
            };
            let (cell, _value, feedback) = self.buffered.remove(position);
            self.engine.answer(id, feedback)?;
            self.resolutions.push(Resolution::Answer { cell, feedback });
        }
    }
}

/// The most common feedback; ties break toward the earliest answer whose
/// feedback is among the tied top.
fn majority(recs: &[Feedback]) -> Feedback {
    let count = |fb: Feedback| recs.iter().filter(|r| **r == fb).count();
    let top = [Feedback::Confirm, Feedback::Reject, Feedback::Retain]
        .into_iter()
        .map(count)
        .max()
        .unwrap_or(0);
    recs.iter()
        .copied()
        .find(|fb| count(*fb) == top)
        .unwrap_or(Feedback::Retain)
}

// The whole session: the wrapped engine and every piece of coordinator
// state (clock, lease table, collected answers, escalations, buffered
// resolutions, and the resolution transcript).
gdr_relation::state_record! {
    "team" 1 => TeamSession {
        engine, config, clock, next_lease_id, leases, answers, escalations, buffered, resolutions
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::GdrConfig;
    use crate::fixture;
    use crate::step::SessionBuilder;
    use crate::strategy::Strategy;

    fn team(policy: ConflictPolicy, ttl: u64) -> TeamSession {
        let (dirty, _clean, rules) = fixture::figure1_instance();
        let engine = SessionBuilder::new(dirty, &rules)
            .strategy(Strategy::GdrNoLearning)
            .config(GdrConfig::fast())
            .build();
        TeamSession::new(
            engine,
            TeamConfig {
                policy,
                lease_ttl: ttl,
            },
        )
    }

    fn lease_of(plan: TeamPlan) -> (WorkId, Update) {
        match plan {
            TeamPlan::Ask { id, update } => (id, update),
            other => panic!("expected an ask lease, got {other:?}"),
        }
    }

    #[test]
    fn distinct_reviewers_get_distinct_items() {
        let mut t = team(ConflictPolicy::FirstWins, 64);
        let (id_a, update_a) = lease_of(t.next_work_for("alice").unwrap());
        let (id_b, update_b) = lease_of(t.next_work_for("bob").unwrap());
        assert_ne!(id_a, id_b);
        assert_ne!(update_a.cell(), update_b.cell());
        // Re-pulls are idempotent.
        assert_eq!(
            t.next_work_for("alice").unwrap(),
            TeamPlan::Ask {
                id: id_a,
                update: update_a
            }
        );
    }

    #[test]
    fn first_wins_answers_apply_in_engine_order() {
        let mut t = team(ConflictPolicy::FirstWins, 64);
        let (id_a, _) = lease_of(t.next_work_for("alice").unwrap());
        let (id_b, _) = lease_of(t.next_work_for("bob").unwrap());
        // Bob answers first even though Alice holds the engine's pick: the
        // resolution buffers until the engine serves Bob's item.
        t.answer_as("bob", id_b, Feedback::Confirm).unwrap();
        assert_eq!(t.engine().verifications(), 0);
        t.answer_as("alice", id_a, Feedback::Confirm).unwrap();
        assert_eq!(t.engine().verifications(), 2);
        assert_eq!(t.resolutions().len(), 2);
    }

    #[test]
    fn answers_replay_serially_bit_for_bit() {
        let mut t = team(ConflictPolicy::FirstWins, 64);
        let mut guard = 0;
        loop {
            guard += 1;
            assert!(guard < 500, "team session did not progress");
            match t.next_work_for("r1").unwrap() {
                TeamPlan::Ask { id, .. } => t.answer_as("r1", id, Feedback::Confirm).unwrap(),
                TeamPlan::Fix { id, .. } => t.skip_as("r1", id).unwrap(),
                TeamPlan::Wait => continue,
                TeamPlan::Done(_) => break,
            }
        }
        // Replay the resolution log against a fresh engine.
        let (dirty, _clean, rules) = fixture::figure1_instance();
        let mut oracle = SessionBuilder::new(dirty, &rules)
            .strategy(Strategy::GdrNoLearning)
            .config(GdrConfig::fast())
            .build();
        for resolution in t.resolutions() {
            match resolution {
                Resolution::Answer { cell, feedback } => {
                    let WorkPlan::AskUser { id, update, .. } = oracle.next_work().unwrap() else {
                        panic!("oracle diverged: expected an ask");
                    };
                    assert_eq!(update.cell(), *cell);
                    oracle.answer(id, *feedback).unwrap();
                }
                Resolution::Supply { cell, value } => {
                    assert!(matches!(
                        oracle.next_work().unwrap(),
                        WorkPlan::NeedsValue { cell: c } if c == *cell
                    ));
                    oracle.supply_value(*cell, value.clone()).unwrap();
                }
                Resolution::Skip { cell } => {
                    assert!(matches!(
                        oracle.next_work().unwrap(),
                        WorkPlan::NeedsValue { cell: c } if c == *cell
                    ));
                    oracle.skip_value(*cell).unwrap();
                }
            }
        }
        assert_eq!(
            t.engine().verifications(),
            oracle.verifications(),
            "team session must equal the serial replay of its resolution log"
        );
        // The oracle discovers its conclusion on the next pull, exactly as
        // the team session's final pull did.
        let done = oracle.next_work().unwrap();
        assert_eq!(done, WorkPlan::Done(t.engine().done().unwrap()));
    }

    #[test]
    fn majority_waits_for_k_answers_and_breaks_ties_toward_the_earliest() {
        let mut t = team(ConflictPolicy::Majority { k: 3 }, 64);
        let (id_a, update) = lease_of(t.next_work_for("alice").unwrap());
        let (id_b, update_b) = lease_of(t.next_work_for("bob").unwrap());
        let (id_c, update_c) = lease_of(t.next_work_for("carol").unwrap());
        // With k = 3 the same item is leased to all three reviewers.
        assert_eq!(update.cell(), update_b.cell());
        assert_eq!(update.cell(), update_c.cell());
        t.answer_as("alice", id_a, Feedback::Reject).unwrap();
        assert_eq!(t.engine().verifications(), 0);
        t.answer_as("bob", id_b, Feedback::Confirm).unwrap();
        assert_eq!(t.engine().verifications(), 0);
        t.answer_as("carol", id_c, Feedback::Confirm).unwrap();
        assert_eq!(t.engine().verifications(), 1);
        assert_eq!(
            t.resolutions()[0],
            Resolution::Answer {
                cell: update.cell(),
                feedback: Feedback::Confirm
            }
        );
    }

    #[test]
    fn escalation_reserves_a_disagreed_cell_as_a_fix() {
        let mut t = team(ConflictPolicy::EscalateToNeedsValue, 64);
        let (id_a, update) = lease_of(t.next_work_for("alice").unwrap());
        let (id_b, update_b) = lease_of(t.next_work_for("bob").unwrap());
        assert_eq!(update.cell(), update_b.cell());
        t.answer_as("alice", id_a, Feedback::Confirm).unwrap();
        t.answer_as("bob", id_b, Feedback::Reject).unwrap();
        // Disagreement: the next pull serves the cell as a Fix.
        let plan = t.next_work_for("carol").unwrap();
        let TeamPlan::Fix { id, cell, .. } = plan else {
            panic!("expected an escalated fix, got {plan:?}");
        };
        assert_eq!(cell, update.cell());
        // Typing the suggested value maps to Confirm.
        t.supply_as("carol", id, update.value.clone()).unwrap();
        assert_eq!(t.engine().verifications(), 1);
        assert_eq!(
            t.resolutions()[0],
            Resolution::Answer {
                cell,
                feedback: Feedback::Confirm
            }
        );
    }

    #[test]
    fn expired_leases_reserve_the_item_to_another_reviewer() {
        let mut t = team(ConflictPolicy::FirstWins, 2);
        let (id_a, update) = lease_of(t.next_work_for("alice").unwrap());
        // Bob polls; every Wait-or-grant ticks the clock, so Alice's lease
        // ages out and the item comes back to the pool.
        let mut reclaimed = None;
        for _ in 0..8 {
            match t.next_work_for("bob").unwrap() {
                TeamPlan::Ask { id, update: u } => {
                    if u.cell() == update.cell() {
                        reclaimed = Some(id);
                        break;
                    }
                    // A different item: answer it to keep the clock moving.
                    t.answer_as("bob", id, Feedback::Retain).unwrap();
                }
                TeamPlan::Wait => continue,
                other => panic!("unexpected plan {other:?}"),
            }
        }
        let id_b = reclaimed.expect("the expired lease's item is re-served");
        assert_ne!(id_a, id_b);
        // Alice's late answer is absorbed by the lease contract.
        let err = t.answer_as("alice", id_a, Feedback::Confirm).unwrap_err();
        assert!(matches!(
            err,
            GdrError::NoOutstandingWork { .. } | GdrError::StaleWork { .. }
        ));
        // Bob's answer on the reclaimed lease applies.
        t.answer_as("bob", id_b, Feedback::Confirm).unwrap();
        assert!(t.engine().verifications() >= 1);
    }

    #[test]
    fn released_work_is_reserved_and_double_release_is_a_noop() {
        let mut t = team(ConflictPolicy::FirstWins, 64);
        let (id_a, update) = lease_of(t.next_work_for("alice").unwrap());
        assert!(t.release("alice", id_a).unwrap());
        assert!(!t.release("alice", id_a).unwrap());
        let (id_b, update_b) = lease_of(t.next_work_for("bob").unwrap());
        assert_eq!(update.cell(), update_b.cell());
        assert_ne!(id_a, id_b);
        // The releasing reviewer's stale id fails with a typed error.
        let err = t.answer_as("alice", id_a, Feedback::Confirm).unwrap_err();
        assert!(matches!(err, GdrError::NoOutstandingWork { .. }));
    }

    #[test]
    fn duplicate_answers_are_absorbed_as_stale() {
        let mut t = team(ConflictPolicy::FirstWins, 64);
        let (id, _) = lease_of(t.next_work_for("alice").unwrap());
        t.answer_as("alice", id, Feedback::Confirm).unwrap();
        let err = t.answer_as("alice", id, Feedback::Confirm).unwrap_err();
        assert!(matches!(
            err,
            GdrError::NoOutstandingWork { .. } | GdrError::StaleWork { .. }
        ));
        // The reviewer recovers by pulling again.
        assert!(!matches!(
            t.next_work_for("alice").unwrap(),
            TeamPlan::Done(_)
        ));
    }

    #[test]
    fn finish_seals_the_session_for_every_reviewer() {
        let mut t = team(ConflictPolicy::FirstWins, 64);
        let _ = t.next_work_for("alice").unwrap();
        let reason = t.finish().unwrap();
        assert_eq!(reason, DoneReason::Finished);
        assert!(matches!(
            t.next_work_for("alice").unwrap(),
            TeamPlan::Done(DoneReason::Finished)
        ));
        assert_eq!(t.live_leases(), 0);
    }

    #[test]
    fn snapshot_round_trip_preserves_every_coordinator_axis() {
        // Escalation is the busiest coordinator state: a disagreement leaves
        // collected answers dropped, an escalation queued, and the next pull
        // becomes a Fix lease — snapshot in the middle of all of it.
        let mut t = team(ConflictPolicy::EscalateToNeedsValue, 64);
        let (id_a, _) = lease_of(t.next_work_for("alice").unwrap());
        let (id_b, _) = lease_of(t.next_work_for("bob").unwrap());
        t.answer_as("alice", id_a, Feedback::Confirm).unwrap();
        t.answer_as("bob", id_b, Feedback::Reject).unwrap();
        let plan = t.next_work_for("carol").unwrap();
        let TeamPlan::Fix { id, cell, .. } = plan else {
            panic!("expected an escalated fix, got {plan:?}");
        };

        let bytes = t.to_snapshot_bytes();
        let mut restored = TeamSession::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.to_snapshot_bytes(), t.to_snapshot_bytes());
        let (live, mirrored) = (t.lease_table(), restored.lease_table());
        assert_eq!(live.len(), mirrored.len());
        for (a, b) in live.iter().zip(&mirrored) {
            assert_eq!(
                (a.id, &a.reviewer, a.cell, a.age),
                (b.id, &b.reviewer, b.cell, b.age)
            );
        }

        // Both sessions keep working identically after the restore.
        let value = t.engine().state().table().cell(cell.0, cell.1).clone();
        t.supply_as("carol", id, value.clone()).unwrap();
        restored.supply_as("carol", id, value).unwrap();
        assert_eq!(restored.to_snapshot_bytes(), t.to_snapshot_bytes());
    }

    #[test]
    fn snapshot_rejects_corruption() {
        let mut t = team(ConflictPolicy::FirstWins, 64);
        let (id, _) = lease_of(t.next_work_for("alice").unwrap());
        t.answer_as("alice", id, Feedback::Confirm).unwrap();
        let bytes = t.to_snapshot_bytes();
        for cut in [0, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(TeamSession::from_snapshot_bytes(&bytes[..cut]).is_err());
        }
        let mut flipped = bytes.clone();
        let mid = flipped.len() / 2;
        flipped[mid] ^= 0x01;
        assert!(TeamSession::from_snapshot_bytes(&flipped).is_err());
    }

    #[test]
    fn lease_table_reports_grant_order_and_ages_without_ticking() {
        let mut t = team(ConflictPolicy::FirstWins, 64);
        let (id_a, _) = lease_of(t.next_work_for("alice").unwrap());
        let (id_b, _) = lease_of(t.next_work_for("bob").unwrap());
        let table = t.lease_table();
        assert_eq!(table.len(), 2);
        assert_eq!((table[0].id, table[0].reviewer.as_str()), (id_a, "alice"));
        assert_eq!((table[1].id, table[1].reviewer.as_str()), (id_b, "bob"));
        // Bob's pull ticked the clock after alice's grant.
        assert_eq!(table[0].age, 1);
        assert_eq!(table[1].age, 0);
        // Observation ticks nothing: ages are stable across reads.
        let again = t.lease_table();
        assert_eq!(again[0].age, 1);
        assert_eq!(again[1].age, 0);
        assert_eq!(t.clock(), 2);
    }
}
