//! The pull-based session engine — Procedure 1 inverted.
//!
//! The paper's loop is *interactive*: GDR exists to put a human in the loop.
//! [`GdrEngine`] therefore exposes the loop instead of burying it inside a
//! batch function.  The engine is a resumable state machine driven by the
//! caller:
//!
//! ```text
//! loop {
//!     match engine.next_work()? {
//!         WorkPlan::AskUser { id, update, .. } => engine.answer(id, feedback)?,
//!         WorkPlan::NeedsValue { cell }        => engine.supply_value(cell, v)?
//!                                              /* or engine.skip_value(cell)? */,
//!         WorkPlan::Done(reason)               => break,
//!     }
//! }
//! engine.finish()?;
//! ```
//!
//! [`GdrEngine::next_work`] performs every piece of bookkeeping that does not
//! need the user — group selection and VOI re-ranking, quota computation, the
//! learner phase that decides the remainder of a group, suggestion refresh —
//! and pauses exactly where Procedure 1 needs an answer.  [`GdrEngine::answer`]
//! records the training example, applies the feedback through the consistency
//! manager, retrains every `n_s` answers, and takes quality checkpoints: the
//! same bookkeeping the legacy batch loop did, but interruptible between any
//! two answers.  The engine is `Clone`, so a session can be snapshotted and
//! branched at any pause point.
//!
//! Protocol violations are **typed errors, not panics**: a verb that does
//! not fit the outstanding work item — a stale [`WorkId`], a wrong cell, a
//! double answer, an answer after [`GdrEngine::finish`] — returns a
//! [`GdrError`] and leaves the engine untouched, so
//! `next_work` re-serves the same plan and a retrying driver recovers.  This
//! is what lets one engine serve a remote client (see the `gdr-serve`
//! crate): a misbehaving connection cannot poison the session, let alone the
//! process hosting every other session.
//!
//! The engine owns **no ground truth**.  Evaluation-only state — the
//! [`QualityEvaluator`], the loss checkpoints, the final
//! [`RepairAccuracy`] — lives behind an optional [`EvalHooks`] installed by
//! [`SessionBuilder::ground_truth`]; a production engine simply runs without
//! it.  The simulated user of §5 is *one driver* among many (see
//! [`crate::session`] for the driver layer, including the legacy
//! `GdrSession::run`, which is a thin loop over this API).
//!
//! Budgets are a driver concern: the engine never counts the caller's wallet.
//! A driver that is out of budget (or patience) stops calling
//! [`GdrEngine::next_work`] and calls [`GdrEngine::finish`], which completes
//! the work that needs no user — the learner decides the remainder of the
//! current group (or, for the pool strategy, sweeps every remaining
//! suggestion) — and records the final checkpoint.

use gdr_cfd::RuleSet;
use gdr_relation::codec::{self, CodecError, Dec, Enc, State};
use gdr_relation::{AttrId, Table, Value};
use gdr_repair::{
    run_heuristic_repair, Cell, Feedback, FeedbackOutcome, HeuristicConfig, RepairState, Update,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

use crate::config::GdrConfig;
use crate::error::{GdrError, WorkTarget};
use crate::grouping::UpdateGroup;
use crate::metrics::RepairAccuracy;
use crate::model::ModelStore;
use crate::quality::{LossTracker, QualityEvaluator};
use crate::session::{Checkpoint, SessionReport};
use crate::strategy::Strategy;
use crate::voi::VoiRanker;
use crate::Result;

/// Token identifying one outstanding [`WorkPlan::AskUser`] item.
///
/// Ids are engine-local and monotone; [`GdrEngine::answer`] requires the id
/// of the outstanding item, so a driver holding a stale plan (e.g. from a
/// branched clone) fails loudly — with a recoverable
/// [`GdrError::StaleWork`] — instead of mis-attributing feedback.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct WorkId(u64);

impl WorkId {
    /// The raw id, for transports that serialise work ids onto a wire.
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Rebuilds a work id from its raw form (the deserialising side of
    /// [`WorkId::raw`]).  An id that never came from this engine simply
    /// fails the [`GdrEngine::answer`] match with a typed error.
    pub fn from_raw(raw: u64) -> WorkId {
        WorkId(raw)
    }
}

impl std::fmt::Display for WorkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "w{}", self.0)
    }
}

/// The feedback alphabet a driver answers with — *confirm*, *reject*, or
/// *retain* (§4.2).  Alias of [`gdr_repair::Feedback`]; the name matches the
/// engine verb [`GdrEngine::answer`].
pub type Answer = Feedback;

/// Why an engine reached [`WorkPlan::Done`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DoneReason {
    /// No candidate updates remain and the user-supplied-value sweep found
    /// nothing the user could still decide.
    Exhausted,
    /// Three consecutive group rounds produced no action (the §4.2 stall
    /// guard).
    Stalled,
    /// The strategy was [`Strategy::AutomaticHeuristic`]: the heuristic ran
    /// to completion without any user involvement.
    AutomaticComplete,
    /// The driver called [`GdrEngine::finish`] before the engine ran out of
    /// work (typically: feedback budget exhausted).
    Finished,
}

gdr_relation::state_enum! { DoneReason, "done-reason" {
    0 => Exhausted,
    1 => Stalled,
    2 => AutomaticComplete,
    3 => Finished,
} }

/// Where an [`WorkPlan::AskUser`] item sits in the strategy's plan: the
/// group it was drawn from and how far the group's verification quota has
/// progressed.  Absent for the ungrouped pool strategy.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupContext {
    /// The attribute every member of the group modifies.
    pub attr: AttrId,
    /// The value every member of the group suggests.
    pub value: Value,
    /// The group benefit the ranking selected on (`E[g(c)]` for the VOI
    /// strategies, the size for Greedy, 0 otherwise).
    pub benefit: f64,
    /// Number of updates in the group when it was selected.
    pub size: usize,
    /// The user-verification quota `d_i` computed for the group.
    pub quota: usize,
    /// Answers already given inside this group.
    pub asked: usize,
}

gdr_relation::state_record! { GroupContext { attr, value, benefit, size, quota, asked } }

/// One unit of work pulled from the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum WorkPlan {
    /// Show `update` to the user and call [`GdrEngine::answer`] with their
    /// feedback.
    AskUser {
        /// Token to pass back to [`GdrEngine::answer`].
        id: WorkId,
        /// The suggested update `⟨t, A, v, s⟩` to verify.
        update: Update,
        /// Group provenance and quota progress; `None` for the pool strategy.
        group_context: Option<GroupContext>,
        /// Committee-disagreement uncertainty of the learner's prediction
        /// (1.0 while untrained) — the quantity the GDR ordering maximises.
        uncertainty: f64,
    },
    /// No suggestion covers this still-dirty cell; the user may type the
    /// correct value directly (§4.2 treats it as confirming `⟨t, A, v′, 1⟩`).
    /// Call [`GdrEngine::supply_value`] with the correct value, or
    /// [`GdrEngine::skip_value`] if the user cannot (or need not) provide
    /// one — the engine then offers the next candidate cell.
    NeedsValue {
        /// The `(tuple, attribute)` cell needing a value.
        cell: Cell,
    },
    /// The session is over; [`GdrEngine::finish`] and (with eval hooks)
    /// `report()` summarise it.
    Done(DoneReason),
}

gdr_relation::state_enum! { WorkPlan, "work-plan" {
    0 => AskUser { id, update, group_context, uncertainty },
    1 => NeedsValue { cell },
    2 => Done { 0 },
} }

/// Evaluation-only state: everything that needs the ground truth.
///
/// Production sessions have no ground truth, so none of this lives on the
/// engine proper.  Installing hooks (via [`SessionBuilder::ground_truth`] or
/// `SessionBuilder::eval_hooks`) enables loss checkpoints after every
/// answer and the final [`SessionReport`].
#[derive(Debug, Clone)]
pub struct EvalHooks {
    evaluator: QualityEvaluator,
    /// Incremental Eq. 3 loss, invalidated by each write's rule damage.
    loss: LossTracker,
    /// Shared with the simulated driver's oracle — one copy per session.
    truth: std::sync::Arc<Table>,
    initial_dirty: Table,
    checkpoints: Vec<Checkpoint>,
}

impl EvalHooks {
    /// Builds the hooks from the ground truth, the rules, and the initial
    /// dirty instance (whose loss becomes the 0 %-improvement reference).
    pub(crate) fn new(ground_truth: Table, rules: &RuleSet, dirty: &Table) -> EvalHooks {
        EvalHooks::from_shared(std::sync::Arc::new(ground_truth), rules, dirty)
    }

    /// [`EvalHooks::new`] over an already-shared ground truth (no copy).
    pub(crate) fn from_shared(
        ground_truth: std::sync::Arc<Table>,
        rules: &RuleSet,
        dirty: &Table,
    ) -> EvalHooks {
        let evaluator = QualityEvaluator::new(&ground_truth, rules, dirty);
        EvalHooks {
            evaluator,
            loss: LossTracker::new(rules.len()),
            truth: ground_truth,
            initial_dirty: dirty.snapshot("initial_dirty"),
            checkpoints: Vec::new(),
        }
    }

    /// Report each written cell's damage to the incremental loss: a write
    /// to attribute `A` can only move the stats of the rules involving `A`.
    fn note_outcome(&mut self, state: &RepairState, outcome: &FeedbackOutcome) {
        for &(_, attr) in &outcome.applied {
            for &rule in state.rules_involving(attr) {
                self.loss.invalidate_rule(rule);
            }
        }
    }

    fn record_checkpoint(&mut self, verifications: usize, state: &RepairState) {
        let loss = self.loss.loss(&self.evaluator, state.engine());
        self.checkpoints.push(Checkpoint {
            verifications,
            loss,
            improvement_pct: self.evaluator.improvement_pct(loss),
        });
    }

    fn accuracy(&self, repaired: &Table) -> RepairAccuracy {
        RepairAccuracy::compute(&self.initial_dirty, repaired, &self.truth)
    }

    /// Serialises the hooks into `enc`.  Only the canonical inputs travel —
    /// the ground truth, the initial dirty instance, and the recorded
    /// checkpoints; the evaluator and the incremental loss cache are pure
    /// functions of those plus the rules and are re-derived on decode.
    pub(crate) fn encode_state(&self, enc: &mut Enc) {
        enc.section("eval", 1);
        enc.put(&*self.truth);
        enc.put(&self.initial_dirty);
        enc.put(&self.checkpoints);
    }

    /// Rebuilds hooks written by [`EvalHooks::encode_state`] for the engine
    /// whose repair state is `state`.  Both decoded tables must match its
    /// table's schema and row count, so the rules resolve against them; the
    /// evaluator's `|D_opt ⊨ φ|` terms are recomputed from its rules, and the
    /// fresh [`LossTracker`] starts all-dirty, so its first read recomputes
    /// every term — bit-identical to the from-scratch oracle by
    /// construction.
    pub(crate) fn decode_state(dec: &mut Dec<'_>, state: &RepairState) -> codec::Result<EvalHooks> {
        dec.section("eval", 1)?;
        let truth = std::sync::Arc::new(dec.get::<Table>()?);
        let initial_dirty: Table = dec.get()?;
        let checkpoints = dec.get()?;
        let session = state.table();
        for table in [&*truth, &initial_dirty] {
            if !table.schema().same_as(session.schema()) || table.len() != session.len() {
                return Err(CodecError::new(format!(
                    "evaluation table `{}` does not match the session table's schema and \
                     {} rows",
                    table.name(),
                    session.len()
                )));
            }
        }
        let rules = state.ruleset();
        let evaluator = QualityEvaluator::new(&truth, rules, &initial_dirty);
        Ok(EvalHooks {
            evaluator,
            loss: LossTracker::new(rules.len()),
            truth,
            initial_dirty,
            checkpoints,
        })
    }
}

/// Verification progress through one selected group (`process_group`'s loop
/// variables, made resumable).
#[derive(Debug, Clone)]
struct GroupProgress {
    attr: AttrId,
    value: Value,
    benefit: f64,
    size: usize,
    quota: usize,
    verified: usize,
    actions: usize,
    remaining: Vec<Update>,
    /// Index into `remaining` of the currently served `AskUser` item.  The
    /// pick stays in the list until it is answered, so a driver that stops
    /// mid-question leaves the group exactly as if the question had never
    /// been served (the learner phase of [`GdrEngine::finish`] still
    /// considers it).
    served: Option<usize>,
}

impl GroupProgress {
    /// Rejects a decoded served index past the remaining updates.
    fn check_decoded(&self) -> codec::Result<()> {
        match self.served {
            Some(index) if index >= self.remaining.len() => Err(CodecError::new(format!(
                "served index {index} out of range ({} remaining)",
                self.remaining.len()
            ))),
            _ => Ok(()),
        }
    }
}

gdr_relation::state_record! {
    GroupProgress { attr, value, benefit, size, quota, verified, actions, remaining, served }
    check GroupProgress::check_decoded
}

/// Iteration state of the §4.2 user-supplies-a-value sweep over the dirty
/// cells (taken when the generator runs out of admissible suggestions).
#[derive(Debug, Clone)]
struct SupplySweep {
    cells: Vec<Cell>,
    pos: usize,
}

impl SupplySweep {
    /// Rejects a decoded sweep position past its cells.
    fn check_decoded(&self) -> codec::Result<()> {
        if self.pos > self.cells.len() {
            return Err(CodecError::new(format!(
                "sweep position {} out of range ({} cells)",
                self.pos,
                self.cells.len()
            )));
        }
        Ok(())
    }
}

gdr_relation::state_record! { SupplySweep { cells, pos } check SupplySweep::check_decoded }

#[derive(Debug, Clone)]
enum Phase {
    /// Before the first `next_work`/`finish`: nothing has run yet.
    Boot,
    /// Top of the Procedure 1 loop: pick the next group (or pool item, or
    /// start a supply sweep).
    SelectGroup,
    /// Mid-group: the user is verifying up to `quota` members.
    InGroup(GroupProgress),
    /// No suggestions remain; offering dirty cells for direct correction.
    Supplying(SupplySweep),
    /// The session is over.
    Done(DoneReason),
}

gdr_relation::state_enum! { Phase, "phase" {
    0 => Boot,
    1 => SelectGroup,
    2 => InGroup { 0 },
    3 => Supplying { 0 },
    4 => Done { 0 },
} }

/// The resumable, caller-driven GDR engine.
///
/// Built by [`SessionBuilder`]; see the [module docs](self) for the driving
/// protocol and [`crate::session`] for ready-made drivers.
#[derive(Debug, Clone)]
pub struct GdrEngine {
    state: RepairState,
    models: ModelStore,
    ranker: VoiRanker,
    strategy: Strategy,
    config: GdrConfig,
    rng: StdRng,
    verifications: usize,
    learner_decisions: usize,
    initial_dirty_tuples: usize,
    eval: Option<EvalHooks>,
    phase: Phase,
    /// The outstanding work item, re-served verbatim until it is answered.
    pending: Option<WorkPlan>,
    next_work_id: u64,
    stalled_rounds: usize,
}

impl GdrEngine {
    /// Read access to the current repair state (database, engine, updates).
    pub fn state(&self) -> &RepairState {
        &self.state
    }

    /// Number of user answers consumed so far (the driver's budget meter).
    pub fn verifications(&self) -> usize {
        self.verifications
    }

    /// Number of updates decided automatically by the learner so far.
    pub fn learner_decisions(&self) -> usize {
        self.learner_decisions
    }

    /// `Some(reason)` once the engine has concluded.
    pub fn done(&self) -> Option<DoneReason> {
        match self.phase {
            Phase::Done(reason) => Some(reason),
            _ => None,
        }
    }

    /// The outstanding work item: served by [`GdrEngine::next_work`] and
    /// not yet answered, so the next pull re-serves it.  `None` before the
    /// first pull, between an answer and the next pull, and once concluded.
    pub fn outstanding(&self) -> Option<&WorkPlan> {
        self.pending.as_ref()
    }

    /// The candidate updates of the currently selected group, in ranking
    /// order — including the served pick, which stays in the list until it
    /// is answered.  Empty outside a group (pool strategy, supply sweep,
    /// done).  A multi-reviewer coordinator (see [`crate::team`]) leases
    /// only from this list plus the outstanding plan: work the strategy has
    /// already committed to asking about.
    pub(crate) fn group_candidates(&self) -> &[Update] {
        match &self.phase {
            Phase::InGroup(progress) => &progress.remaining,
            _ => &[],
        }
    }

    /// Pulls the next unit of work.
    ///
    /// Idempotent while an item is outstanding: calling `next_work` again
    /// before answering re-serves the same plan (so a transport can safely
    /// retry).  All engine-side bookkeeping between two answers — group
    /// selection, learner phases, suggestion refresh, checkpointing — runs
    /// inside this call.
    pub fn next_work(&mut self) -> Result<WorkPlan> {
        if let Some(plan) = &self.pending {
            return Ok(plan.clone());
        }
        self.ensure_started()?;
        let plan = self.compute_next()?;
        if !matches!(plan, WorkPlan::Done(_)) {
            self.pending = Some(plan.clone());
        }
        Ok(plan)
    }

    /// Answers the outstanding [`WorkPlan::AskUser`] item: records the
    /// training example (learning strategies), applies the feedback through
    /// the consistency manager, retrains every `n_s` answers, and takes a
    /// quality checkpoint when due.
    ///
    /// # Errors
    /// [`GdrError::NoOutstandingWork`] if nothing is outstanding (nothing
    /// served yet, the item was already answered, or the session concluded),
    /// [`GdrError::WorkMismatch`] if the outstanding item is a `NeedsValue`,
    /// and [`GdrError::StaleWork`] if `id` names a different `AskUser` item
    /// (e.g. a plan replayed from a branched clone).  All three leave the
    /// engine — including the outstanding plan — untouched, so a retrying
    /// driver can pull [`GdrEngine::next_work`] again and recover.
    pub fn answer(&mut self, id: WorkId, answer: Answer) -> Result<()> {
        match &self.pending {
            Some(WorkPlan::AskUser { id: pending_id, .. }) => {
                if id != *pending_id {
                    return Err(GdrError::StaleWork {
                        got: id,
                        outstanding: *pending_id,
                    });
                }
            }
            Some(WorkPlan::NeedsValue { cell }) => {
                return Err(GdrError::WorkMismatch {
                    verb: "answer",
                    got: WorkTarget::Ask(id),
                    outstanding: WorkTarget::Value(*cell),
                })
            }
            Some(WorkPlan::Done(_)) | None => {
                return Err(GdrError::NoOutstandingWork { verb: "answer" })
            }
        }
        let Some(WorkPlan::AskUser { update, .. }) = self.pending.take() else {
            unreachable!("the match above pinned an outstanding AskUser")
        };
        // Retire the answered pick from the group before applying: the
        // feedback may replace the cell's suggestion, and the group snapshot
        // must not re-offer the stale one.
        if let Phase::InGroup(progress) = &mut self.phase {
            let index = progress
                .served
                .take()
                .expect("an InGroup AskUser always records its served index");
            progress.remaining.remove(index);
        }
        self.apply_user_answer(&update, answer)?;
        if let Phase::InGroup(progress) = &mut self.phase {
            progress.verified += 1;
            progress.actions += 1;
        } else {
            // Pool-strategy answers refresh immediately (no group batching).
            self.state.refresh_updates();
        }
        Ok(())
    }

    /// Supplies the correct value for the outstanding
    /// [`WorkPlan::NeedsValue`] cell — the §4.2 "user suggests `v′`" case,
    /// applied as a confirm of `⟨t, A, v′, 1⟩`.
    ///
    /// # Errors
    /// [`GdrError::NoOutstandingWork`] / [`GdrError::WorkMismatch`] if no
    /// `NeedsValue` item is outstanding or `cell` does not match it; the
    /// engine stays untouched and re-servable.
    pub fn supply_value(&mut self, cell: Cell, value: Value) -> Result<()> {
        self.take_needs_value(cell, "supply_value")?;
        let update = Update::new(cell.0, cell.1, value, 1.0);
        self.apply_user_answer(&update, Feedback::Confirm)?;
        self.state.refresh_updates();
        self.phase = Phase::SelectGroup;
        Ok(())
    }

    /// Declines the outstanding [`WorkPlan::NeedsValue`] cell (the user
    /// cannot provide a value, or the cell is already correct); the engine
    /// moves on to the next candidate cell.
    ///
    /// A skip answers the *current* state, not a permanent opt-out: after a
    /// supplied value changes the instance, Procedure 1 re-scans the dirty
    /// cells, so previously skipped cells may be offered again (a repair may
    /// have made them decidable — or cleaned them away entirely).
    ///
    /// # Errors
    /// [`GdrError::NoOutstandingWork`] / [`GdrError::WorkMismatch`] if no
    /// `NeedsValue` item is outstanding or `cell` does not match it; the
    /// engine stays untouched and re-servable.
    pub fn skip_value(&mut self, cell: Cell) -> Result<()> {
        self.take_needs_value(cell, "skip_value")?;
        let Phase::Supplying(sweep) = &mut self.phase else {
            unreachable!("NeedsValue is only served from the supply sweep");
        };
        sweep.pos += 1;
        Ok(())
    }

    /// Retires the outstanding `NeedsValue` item, verifying `cell` addresses
    /// it; on any mismatch the outstanding plan is left in place.
    fn take_needs_value(&mut self, cell: Cell, verb: &'static str) -> Result<()> {
        match &self.pending {
            Some(WorkPlan::NeedsValue { cell: pending_cell }) => {
                if cell != *pending_cell {
                    return Err(GdrError::WorkMismatch {
                        verb,
                        got: WorkTarget::Value(cell),
                        outstanding: WorkTarget::Value(*pending_cell),
                    });
                }
            }
            Some(WorkPlan::AskUser { id, .. }) => {
                return Err(GdrError::WorkMismatch {
                    verb,
                    got: WorkTarget::Value(cell),
                    outstanding: WorkTarget::Ask(*id),
                })
            }
            Some(WorkPlan::Done(_)) | None => return Err(GdrError::NoOutstandingWork { verb }),
        }
        self.pending = None;
        Ok(())
    }

    /// Ends the session from the driver side: completes the work that needs
    /// no user — the learner decides the remainder of the current group, or
    /// (pool strategy) sweeps every remaining suggestion — refreshes
    /// suggestions, records the final checkpoint, and returns the conclusion.
    /// Idempotent; on an engine that already concluded naturally it returns
    /// the original reason.
    pub fn finish(&mut self) -> Result<DoneReason> {
        self.ensure_started()?;
        self.pending = None;
        match std::mem::replace(&mut self.phase, Phase::Boot) {
            Phase::Done(reason) => {
                self.phase = Phase::Done(reason);
                return Ok(reason);
            }
            Phase::InGroup(progress) => {
                // Stopping mid-group: the trained models still decide the
                // rest of the group, exactly as when the quota is reached.
                self.finish_group(progress)?;
            }
            Phase::SelectGroup | Phase::Supplying(_) => {
                if matches!(self.strategy, Strategy::ActiveLearningOnly) {
                    self.finalize_pool()?;
                }
            }
            Phase::Boot => unreachable!("ensure_started leaves Boot"),
        }
        self.conclude(DoneReason::Finished);
        let Phase::Done(reason) = &self.phase else {
            unreachable!("conclude() pins the Done phase")
        };
        Ok(*reason)
    }

    /// The final report; `None` without [`EvalHooks`] (production sessions
    /// have nothing to evaluate against).
    pub fn report(&self) -> Option<SessionReport> {
        let hooks = self.eval.as_ref()?;
        let final_loss = hooks.evaluator.loss_of_engine(self.state.engine());
        Some(SessionReport {
            strategy: self.strategy,
            initial_dirty_tuples: self.initial_dirty_tuples,
            initial_loss: hooks.evaluator.initial_loss(),
            final_loss,
            final_improvement_pct: hooks.evaluator.improvement_pct(final_loss),
            verifications: self.verifications,
            learner_decisions: self.learner_decisions,
            checkpoints: hooks.checkpoints.clone(),
            accuracy: hooks.accuracy(self.state.table()),
        })
    }

    // ---- the state machine ------------------------------------------------

    /// First touch: record the initial checkpoint, then either run the
    /// fully automatic heuristic to completion or derive the initial
    /// suggestions and enter the interactive loop.
    fn ensure_started(&mut self) -> Result<()> {
        if !matches!(self.phase, Phase::Boot) {
            return Ok(());
        }
        self.record_checkpoint();
        match self.strategy {
            Strategy::AutomaticHeuristic => {
                run_heuristic_repair(&mut self.state, &HeuristicConfig::default())?;
                if let Some(hooks) = &mut self.eval {
                    // The heuristic writes in bulk without per-change damage
                    // reports; refresh every loss term once.
                    hooks.loss.invalidate_all();
                }
                self.conclude(DoneReason::AutomaticComplete);
            }
            _ => {
                self.state.refresh_updates();
                self.phase = Phase::SelectGroup;
            }
        }
        Ok(())
    }

    /// Advances the state machine until it needs the user (or is done).
    fn compute_next(&mut self) -> Result<WorkPlan> {
        loop {
            match std::mem::replace(&mut self.phase, Phase::Boot) {
                Phase::Boot => unreachable!("compute_next runs after ensure_started"),
                Phase::Done(reason) => {
                    self.phase = Phase::Done(reason);
                    return Ok(WorkPlan::Done(reason));
                }
                Phase::Supplying(mut sweep) => {
                    let mut next_cell = None;
                    while sweep.pos < sweep.cells.len() {
                        let cell = sweep.cells[sweep.pos];
                        if self.state.is_changeable(cell) {
                            next_cell = Some(cell);
                            break;
                        }
                        sweep.pos += 1;
                    }
                    match next_cell {
                        Some(cell) => {
                            self.phase = Phase::Supplying(sweep);
                            return Ok(WorkPlan::NeedsValue { cell });
                        }
                        None => {
                            // Every wrong cell of every dirty tuple is frozen
                            // or declined: nothing the user can still do.
                            if matches!(self.strategy, Strategy::ActiveLearningOnly) {
                                self.finalize_pool()?;
                            }
                            self.conclude(DoneReason::Exhausted);
                        }
                    }
                }
                Phase::SelectGroup => {
                    if self.state.pending_count() == 0 {
                        self.phase = Phase::Supplying(self.start_supply_sweep());
                        continue;
                    }
                    if matches!(self.strategy, Strategy::ActiveLearningOnly) {
                        match self.pick_pool_update() {
                            Some((update, uncertainty)) => {
                                let id = self.issue_id();
                                self.phase = Phase::SelectGroup;
                                return Ok(WorkPlan::AskUser {
                                    id,
                                    update,
                                    group_context: None,
                                    uncertainty,
                                });
                            }
                            None => {
                                self.finalize_pool()?;
                                self.conclude(DoneReason::Exhausted);
                            }
                        }
                        continue;
                    }
                    match self.select_top_group()? {
                        Some((group, benefit, max_benefit)) => {
                            let quota = self.group_quota(&group, benefit, max_benefit);
                            self.phase = Phase::InGroup(GroupProgress {
                                attr: group.attr,
                                value: group.value,
                                benefit,
                                size: group.updates.len(),
                                quota,
                                verified: 0,
                                actions: 0,
                                remaining: group.updates,
                                served: None,
                            });
                        }
                        None => self.conclude(DoneReason::Exhausted),
                    }
                }
                Phase::InGroup(mut progress) => {
                    if progress.verified < progress.quota {
                        // Pick per strategy, skipping suggestions retired by
                        // earlier decisions (the pick still consumes the rng
                        // draw, preserving the legacy answer order).
                        while !progress.remaining.is_empty() {
                            let (index, picked_uncertainty) = {
                                let GdrEngine {
                                    state,
                                    models,
                                    rng,
                                    strategy,
                                    ..
                                } = self;
                                let table = state.table();
                                strategy.pick_within_group(
                                    &progress.remaining,
                                    |u| models.uncertainty(table, u),
                                    rng,
                                )
                            };
                            if !self.is_still_pending(&progress.remaining[index]) {
                                progress.remaining.remove(index);
                                continue;
                            }
                            // The pick stays in `remaining` until answered so
                            // an interrupted question is not lost to the
                            // learner phase; `answer` removes it.
                            let update = progress.remaining[index].clone();
                            let uncertainty = picked_uncertainty.unwrap_or_else(|| {
                                self.models.uncertainty(self.state.table(), &update)
                            });
                            let id = self.issue_id();
                            let group_context = Some(GroupContext {
                                attr: progress.attr,
                                value: progress.value.clone(),
                                benefit: progress.benefit,
                                size: progress.size,
                                quota: progress.quota,
                                asked: progress.verified,
                            });
                            progress.served = Some(index);
                            self.phase = Phase::InGroup(progress);
                            return Ok(WorkPlan::AskUser {
                                id,
                                update,
                                group_context,
                                uncertainty,
                            });
                        }
                    }
                    // Quota reached (or the group drained): the learner
                    // decides the remainder, then a fresh round starts.
                    self.finish_group(progress)?;
                }
            }
        }
    }

    /// Phase 2 of `process_group` plus the per-round bookkeeping: the trained
    /// models decide the unverified remainder (learning strategies),
    /// suggestions refresh, and three consecutive action-less rounds stall
    /// the session.
    fn finish_group(&mut self, mut progress: GroupProgress) -> Result<()> {
        if self.strategy.uses_learner() {
            self.models.retrain_all();
            for update in std::mem::take(&mut progress.remaining) {
                if !self.is_still_pending(&update) {
                    continue;
                }
                if self.learner_decide(&update)? {
                    progress.actions += 1;
                }
            }
        }
        self.state.refresh_updates();
        if progress.actions == 0 {
            self.stalled_rounds += 1;
            if self.stalled_rounds >= 3 {
                self.conclude(DoneReason::Stalled);
                return Ok(());
            }
        } else {
            self.stalled_rounds = 0;
        }
        self.phase = Phase::SelectGroup;
        Ok(())
    }

    /// The pool strategy's wrap-up: after the driver stops asking (or the
    /// pool drains), the learned models decide whatever remains.
    fn finalize_pool(&mut self) -> Result<()> {
        self.models.retrain_all();
        self.learner_sweep()
    }

    /// Applies trained-model predictions to every remaining suggestion, in
    /// passes, until no model is confident enough to decide anything more.
    fn learner_sweep(&mut self) -> Result<()> {
        for _ in 0..4 {
            let mut progressed = false;
            // Snapshot only `(cell, value)` through the borrowing iterator;
            // the full update is cloned just before it is applied.
            let mut pending: Vec<(Cell, Value)> = self
                .state
                .possible_updates()
                .map(|u| (u.cell(), u.value.clone()))
                .collect();
            pending.sort_by_key(|(cell, _)| *cell);
            for (cell, value) in pending {
                // Applying earlier decisions may have retired or replaced
                // this suggestion; act only if it is still the same one.
                let Some(update) = self.state.pending_update(cell) else {
                    continue;
                };
                if update.value != value {
                    continue;
                }
                let update = update.clone();
                if self.learner_decide(&update)? {
                    progressed = true;
                }
            }
            self.state.refresh_updates();
            if !progressed {
                break;
            }
        }
        Ok(())
    }

    /// Lets the trained model decide one suggestion, if it is confident
    /// enough (§4.2's confidence gate: a trained model with at least
    /// `learner_min_training` examples for the attribute).  Returns whether
    /// a decision was applied.
    fn learner_decide(&mut self, update: &Update) -> Result<bool> {
        if !self.models.is_trained(update.attr)
            || self.models.training_size(update.attr) < self.config.learner_min_training
        {
            return Ok(false);
        }
        let Some(prediction) = self.models.predict(self.state.table(), update) else {
            return Ok(false);
        };
        self.apply_decision(update, prediction)?;
        self.learner_decisions += 1;
        Ok(true)
    }

    /// One user answer: training example first (the features must describe
    /// the tuple *before* the repair), then the consistency manager, the
    /// `n_s` retrain schedule, and the checkpoint cadence.
    fn apply_user_answer(&mut self, update: &Update, feedback: Feedback) -> Result<()> {
        if self.strategy.uses_learner() {
            self.models
                .add_feedback(self.state.table(), update, feedback);
        }
        self.apply_decision(update, feedback)?;
        self.verifications += 1;
        if self.strategy.uses_learner() {
            self.models
                .retrain_if_due(self.verifications, self.config.ns_batch);
        }
        if self
            .verifications
            .is_multiple_of(self.config.checkpoint_every)
        {
            self.record_checkpoint();
        }
        Ok(())
    }

    /// Applies one decision through the consistency manager and reports the
    /// written cells' rule damage to the incremental loss.
    fn apply_decision(&mut self, update: &Update, feedback: Feedback) -> Result<()> {
        let outcome = self.state.apply_feedback(update, feedback)?;
        if let Some(hooks) = &mut self.eval {
            hooks.note_outcome(&self.state, &outcome);
        }
        Ok(())
    }

    /// Selects the strategy's next group: syncs the persistent group index
    /// with the repair state's suggestion delta, rescores only the invalidated
    /// groups, and reads the top of the max-ordered ranking.  Returns
    /// `(group, benefit, max_benefit)`.
    fn select_top_group(&mut self) -> Result<Option<(UpdateGroup, f64, f64)>> {
        let GdrEngine {
            state,
            ranker,
            models,
            strategy,
            rng,
            ..
        } = self;
        let strategy = *strategy;
        ranker.sync(state);
        match strategy {
            s if s.uses_voi() => {
                if s.uses_learner() {
                    // Committee probabilities move with every retrain and
                    // every row write, outside the delta's view — every
                    // score is stale, but the expensive what-if terms stay
                    // cached; only the Σ p̃·w·term products are redone.
                    ranker.mark_all_dirty();
                    ranker.rescore_benefits(state, |st, u| {
                        models.confirm_probability(st.table(), u)
                    })?;
                } else {
                    ranker.rescore_benefits(state, |_, u| u.score)?;
                }
                Ok(ranker
                    .best_group()
                    .map(|(group, benefit)| (group, benefit, ranker.max_benefit())))
            }
            Strategy::Greedy => {
                ranker.rescore_sizes();
                Ok(ranker
                    .best_group()
                    .map(|(group, benefit)| (group, benefit, ranker.max_benefit())))
            }
            Strategy::RandomOrder => {
                ranker.rescore_zero();
                let mut groups = ranker.groups_in_default_order();
                groups.shuffle(rng);
                Ok(groups.into_iter().next().map(|group| (group, 0.0, 0.0)))
            }
            _ => {
                ranker.rescore_zero();
                Ok(ranker
                    .groups_in_default_order()
                    .into_iter()
                    .next()
                    .map(|group| (group, 0.0, 0.0)))
            }
        }
    }

    /// The number of user verifications requested for a group — the paper's
    /// `d_i = E · (1 − g(c_i)/g_max)`, floored by the configured minimum and
    /// capped by the group size.  Strategies without a learner verify
    /// everything.
    fn group_quota(&self, group: &UpdateGroup, benefit: f64, max_benefit: f64) -> usize {
        if !self.strategy.uses_learner() {
            return group.len();
        }
        let e = self.initial_dirty_tuples as f64;
        let ratio = if max_benefit > 0.0 {
            (benefit / max_benefit).clamp(0.0, 1.0)
        } else {
            0.0
        };
        let d = (e * (1.0 - ratio)).ceil() as usize;
        d.max(self.config.min_verifications_per_group)
            .min(group.len())
    }

    /// The pool strategy's pick: most uncertain first (§5.2,
    /// "Active-Learning" baseline); ties broken toward the largest
    /// `(tuple, attr)` so the borrowed, unordered iteration picks the same
    /// update a sorted snapshot would.  Only the chosen update is cloned;
    /// its uncertainty rides along so the served plan need not re-consult
    /// the committee.
    fn pick_pool_update(&self) -> Option<(Update, f64)> {
        let GdrEngine { state, models, .. } = self;
        state
            .possible_updates()
            .map(|u| (models.uncertainty(state.table(), u), u))
            .max_by(|a, b| {
                a.0.partial_cmp(&b.0)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then_with(|| (a.1.tuple, a.1.attr).cmp(&(b.1.tuple, b.1.attr)))
            })
            .map(|(uncertainty, u)| (u.clone(), uncertainty))
    }

    /// Snapshot of the dirty cells offered for direct correction, in dirty
    /// tuple order × attribute order (frozen cells are filtered at serve
    /// time, when their state is current).
    fn start_supply_sweep(&self) -> SupplySweep {
        let arity = self.state.table().schema().arity();
        let mut cells = Vec::new();
        for tuple in self.state.dirty_tuples() {
            for attr in 0..arity {
                cells.push((tuple, attr));
            }
        }
        SupplySweep { cells, pos: 0 }
    }

    fn is_still_pending(&self, update: &Update) -> bool {
        self.state
            .pending_update(update.cell())
            .map(|pending| pending.value == update.value)
            .unwrap_or(false)
    }

    /// Seals the session: records the final checkpoint exactly once and pins
    /// the phase to `Done`.
    fn conclude(&mut self, reason: DoneReason) {
        if matches!(self.phase, Phase::Done(_)) {
            return;
        }
        self.record_checkpoint();
        self.phase = Phase::Done(reason);
    }

    fn record_checkpoint(&mut self) {
        let GdrEngine {
            state,
            eval,
            verifications,
            ..
        } = self;
        if let Some(hooks) = eval {
            hooks.record_checkpoint(*verifications, state);
        }
    }

    fn issue_id(&mut self) -> WorkId {
        self.next_work_id += 1;
        WorkId(self.next_work_id)
    }

    // ---- serialisable snapshots -------------------------------------------

    /// The engine as one framed `S2 <len> <fnv64-hex> <payload>` snapshot
    /// record — the frame every durable record uses, checksummed so a torn
    /// or bit-flipped file is detected before decoding begins.
    pub fn to_snapshot_bytes(&self) -> Vec<u8> {
        codec::frame(&codec::encode_to_vec(self))
    }

    /// Decodes an engine from a framed snapshot produced by
    /// [`GdrEngine::to_snapshot_bytes`].  Every failure — bad frame,
    /// checksum mismatch, malformed payload, trailing bytes — is a typed
    /// [`CodecError`], never a panic, so recovery code can fall back to an
    /// older snapshot or a full replay.
    pub fn from_snapshot_bytes(bytes: &[u8]) -> codec::Result<GdrEngine> {
        codec::decode_exact(codec::unframe(bytes)?)
    }
}

gdr_relation::state_record! { WorkId { 0 } }

/// Every canonical piece of the engine.
///
/// The [`VoiRanker`] is deliberately absent, and so is the repair state's
/// suggestion delta that feeds it: the group index, benefit memos, and
/// generation watermarks are caches over the `PossibleUpdates` list, rebuilt
/// from it by the first `sync` after decode, and the Eq. 6 arithmetic is
/// pinned bit-identical between the cached and from-scratch paths — so a
/// restored engine ranks exactly as the original would.  Everything else
/// (down to the rng stream position and the outstanding work plan) travels
/// explicitly.  The evaluation hooks decode against the engine's rules, so
/// their presence byte is written here rather than by `Option`'s impl.
impl State for GdrEngine {
    const MIN_BYTES: usize = codec::section_bytes("engine", 1)
        + GdrConfig::MIN_BYTES
        + Strategy::MIN_BYTES
        + RepairState::MIN_BYTES;

    fn encode_state(&self, enc: &mut Enc) {
        enc.section("engine", 1);
        enc.put(&self.config);
        enc.put(&self.strategy);
        enc.put(&self.state);
        enc.put(&self.models);
        enc.put(&self.rng.state());
        enc.put(&self.verifications);
        enc.put(&self.learner_decisions);
        enc.put(&self.initial_dirty_tuples);
        enc.put(&self.eval.is_some());
        if let Some(hooks) = &self.eval {
            hooks.encode_state(enc);
        }
        enc.put(&self.phase);
        enc.put(&self.pending);
        enc.put(&self.next_work_id);
        enc.put(&self.stalled_rounds);
    }

    fn decode_state(dec: &mut Dec<'_>) -> codec::Result<GdrEngine> {
        dec.section("engine", 1)?;
        let config = dec.get()?;
        let strategy = dec.get()?;
        let state: RepairState = dec.get()?;
        let models = dec.get()?;
        let rng = StdRng::from_state(dec.get()?);
        let verifications = dec.get()?;
        let learner_decisions = dec.get()?;
        let initial_dirty_tuples = dec.get()?;
        let eval = match dec.get()? {
            true => Some(EvalHooks::decode_state(dec, &state)?),
            false => None,
        };
        Ok(GdrEngine {
            state,
            models,
            ranker: VoiRanker::new(),
            strategy,
            config,
            rng,
            verifications,
            learner_decisions,
            initial_dirty_tuples,
            eval,
            phase: dec.get()?,
            pending: dec.get()?,
            next_work_id: dec.get()?,
            stalled_rounds: dec.get()?,
        })
    }
}

/// Builder of [`GdrEngine`]s (and, via [`SessionBuilder::simulated`], of the
/// legacy oracle-driven [`crate::session::GdrSession`]).
///
/// The dirty table and the rules are required; everything else defaults:
/// strategy [`Strategy::Gdr`], [`GdrConfig::default`], no evaluation hooks.
///
/// ```
/// use gdr_core::fixture;
/// use gdr_core::step::{SessionBuilder, WorkPlan};
/// use gdr_core::strategy::Strategy;
///
/// let (dirty, _clean, rules) = fixture::figure1_instance();
/// let mut engine = SessionBuilder::new(dirty, &rules)
///     .strategy(Strategy::GdrNoLearning)
///     .build();
/// let plan = engine.next_work().unwrap();
/// assert!(matches!(plan, WorkPlan::AskUser { .. }));
/// ```
#[derive(Debug)]
pub struct SessionBuilder<'r> {
    dirty: Table,
    rules: &'r RuleSet,
    strategy: Strategy,
    config: GdrConfig,
    eval: Option<EvalHooks>,
}

impl<'r> SessionBuilder<'r> {
    /// Starts a builder from the two required inputs: the dirty instance to
    /// repair and the rules it must come to satisfy.
    pub fn new(dirty: Table, rules: &'r RuleSet) -> SessionBuilder<'r> {
        SessionBuilder {
            dirty,
            rules,
            strategy: Strategy::Gdr,
            config: GdrConfig::default(),
            eval: None,
        }
    }

    /// Sets the repair strategy (default: [`Strategy::Gdr`]).
    pub fn strategy(mut self, strategy: Strategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets the session configuration (default: [`GdrConfig::default`]).
    pub fn config(mut self, config: GdrConfig) -> Self {
        self.config = config;
        self
    }

    /// Installs evaluation hooks measuring against `ground_truth` (loss
    /// checkpoints after every answer, final accuracy in the report).
    pub fn ground_truth(mut self, ground_truth: Table) -> Self {
        self.eval = Some(EvalHooks::new(ground_truth, self.rules, &self.dirty));
        self
    }

    /// Installs pre-built evaluation hooks.
    pub(crate) fn eval_hooks(mut self, hooks: EvalHooks) -> Self {
        self.eval = Some(hooks);
        self
    }

    /// Builds the pull-based engine.
    pub fn build(self) -> GdrEngine {
        let arity = self.dirty.schema().arity();
        let state = RepairState::new(self.dirty, self.rules);
        let initial_dirty_tuples = state.dirty_tuples().len();
        let models = ModelStore::new(arity, self.config.forest.clone(), self.config.seed);
        let rng = StdRng::seed_from_u64(self.config.seed ^ 0x5eed);
        GdrEngine {
            state,
            models,
            ranker: VoiRanker::new(),
            strategy: self.strategy,
            config: self.config,
            rng,
            verifications: 0,
            learner_decisions: 0,
            initial_dirty_tuples,
            eval: self.eval,
            phase: Phase::Boot,
            pending: None,
            next_work_id: 0,
            stalled_rounds: 0,
        }
    }

    /// Builds the classic simulated session of §5: evaluation hooks *and* a
    /// [`crate::oracle::GroundTruthOracle`] driver answering from the same
    /// ground truth — one shared copy of the table, not two.
    pub fn simulated(self, ground_truth: Table) -> crate::session::GdrSession {
        let truth = std::sync::Arc::new(ground_truth);
        let hooks = EvalHooks::from_shared(truth.clone(), self.rules, &self.dirty);
        let engine = self.eval_hooks(hooks).build();
        crate::session::GdrSession::from_parts(
            engine,
            crate::oracle::GroundTruthOracle::from_shared(truth),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fixture;

    fn engine(strategy: Strategy) -> GdrEngine {
        let (dirty, clean, rules) = fixture::figure1_instance();
        SessionBuilder::new(dirty, &rules)
            .strategy(strategy)
            .config(GdrConfig::fast())
            .ground_truth(clean)
            .build()
    }

    #[test]
    fn next_work_is_idempotent_until_answered() {
        let mut e = engine(Strategy::GdrNoLearning);
        let first = e.next_work().unwrap();
        let second = e.next_work().unwrap();
        assert_eq!(first, second);
        let WorkPlan::AskUser { id, .. } = first else {
            panic!("expected AskUser, got {first:?}");
        };
        e.answer(id, Feedback::Retain).unwrap();
        let third = e.next_work().unwrap();
        assert_ne!(second, third);
    }

    #[test]
    fn engine_without_hooks_records_no_checkpoints_and_reports_none() {
        let (dirty, _clean, rules) = fixture::figure1_instance();
        let mut e = SessionBuilder::new(dirty, &rules)
            .strategy(Strategy::GdrNoLearning)
            .config(GdrConfig::fast())
            .build();
        let WorkPlan::AskUser { id, .. } = e.next_work().unwrap() else {
            panic!("expected AskUser");
        };
        e.answer(id, Feedback::Confirm).unwrap();
        assert!(e.report().is_none());
        assert_eq!(e.verifications(), 1);
    }

    #[test]
    fn finish_is_idempotent_and_seals_the_engine() {
        let mut e = engine(Strategy::GdrNoLearning);
        let reason = e.finish().unwrap();
        assert_eq!(reason, DoneReason::Finished);
        assert_eq!(e.finish().unwrap(), DoneReason::Finished);
        assert_eq!(e.next_work().unwrap(), WorkPlan::Done(DoneReason::Finished));
        assert_eq!(e.done(), Some(DoneReason::Finished));
        // Initial + final checkpoint, as in a zero-budget legacy run.
        assert_eq!(e.report().unwrap().checkpoints.len(), 2);
    }

    #[test]
    fn automatic_heuristic_needs_no_user() {
        let mut e = engine(Strategy::AutomaticHeuristic);
        assert_eq!(
            e.next_work().unwrap(),
            WorkPlan::Done(DoneReason::AutomaticComplete)
        );
        assert_eq!(e.verifications(), 0);
        let report = e.report().unwrap();
        assert!(report.final_loss <= report.initial_loss);
    }

    #[test]
    fn cloned_engines_branch_independently() {
        let mut a = engine(Strategy::GdrNoLearning);
        let WorkPlan::AskUser { id, update, .. } = a.next_work().unwrap() else {
            panic!("expected AskUser");
        };
        let mut b = a.clone();
        // Same outstanding item on both branches...
        assert_eq!(a.next_work().unwrap(), b.next_work().unwrap());
        // ...answered differently.
        a.answer(id, Feedback::Confirm).unwrap();
        b.answer(id, Feedback::Reject).unwrap();
        assert_ne!(
            a.state().table().cell(update.tuple, update.attr),
            b.state().table().cell(update.tuple, update.attr)
        );
        assert_eq!(a.verifications(), 1);
        assert_eq!(b.verifications(), 1);
    }

    #[test]
    fn served_question_stays_in_the_group_until_answered() {
        // A driver that stops at a prompt must not lose the outstanding
        // suggestion: the pick stays in the group snapshot (so finish()'s
        // learner phase still considers it) and is retired on answer.
        let mut e = engine(Strategy::GdrNoLearning);
        let WorkPlan::AskUser { id, update, .. } = e.next_work().unwrap() else {
            panic!("expected AskUser");
        };
        let Phase::InGroup(progress) = &e.phase else {
            panic!("grouped strategy pauses mid-group");
        };
        let index = progress.served.expect("served index recorded");
        assert_eq!(progress.remaining[index], update);
        e.answer(id, Feedback::Confirm).unwrap();
        if let Phase::InGroup(progress) = &e.phase {
            assert!(progress.served.is_none());
            assert!(!progress.remaining.contains(&update));
        }
    }

    #[test]
    fn answering_without_outstanding_work_is_a_typed_error() {
        let mut e = engine(Strategy::GdrNoLearning);
        let err = e.answer(WorkId(7), Feedback::Confirm).unwrap_err();
        assert_eq!(err, GdrError::NoOutstandingWork { verb: "answer" });
        // The engine is not poisoned: it still serves work normally.
        assert!(matches!(e.next_work().unwrap(), WorkPlan::AskUser { .. }));
    }

    #[test]
    fn answering_with_a_stale_id_is_a_typed_error_and_reserves_the_plan() {
        let mut e = engine(Strategy::GdrNoLearning);
        let plan = e.next_work().unwrap();
        let WorkPlan::AskUser { id, .. } = plan.clone() else {
            panic!("expected AskUser");
        };
        let stale = WorkId(id.raw() + 1);
        let err = e.answer(stale, Feedback::Confirm).unwrap_err();
        assert_eq!(
            err,
            GdrError::StaleWork {
                got: stale,
                outstanding: id
            }
        );
        // The same plan is re-served verbatim, and answering with the right
        // id still works.
        assert_eq!(e.next_work().unwrap(), plan);
        e.answer(id, Feedback::Confirm).unwrap();
        assert_eq!(e.verifications(), 1);
    }

    #[test]
    fn cell_verbs_reject_kind_and_cell_mismatches() {
        let mut e = engine(Strategy::GdrNoLearning);
        let WorkPlan::AskUser { id, .. } = e.next_work().unwrap() else {
            panic!("expected AskUser");
        };
        // Cell verbs against an outstanding AskUser: typed mismatch.
        let err = e.supply_value((0, 0), Value::from("x")).unwrap_err();
        assert_eq!(
            err,
            GdrError::WorkMismatch {
                verb: "supply_value",
                got: WorkTarget::Value((0, 0)),
                outstanding: WorkTarget::Ask(id),
            }
        );
        let err = e.skip_value((0, 0)).unwrap_err();
        assert!(matches!(
            err,
            GdrError::WorkMismatch {
                verb: "skip_value",
                ..
            }
        ));
        // Answer against the served NeedsValue names the outstanding cell.
        let mut e = engine(Strategy::GdrNoLearning);
        loop {
            match e.next_work().unwrap() {
                WorkPlan::AskUser { id, .. } => e.answer(id, Feedback::Reject).unwrap(),
                WorkPlan::NeedsValue { cell } => {
                    let err = e.answer(WorkId(99), Feedback::Confirm).unwrap_err();
                    assert_eq!(
                        err,
                        GdrError::WorkMismatch {
                            verb: "answer",
                            got: WorkTarget::Ask(WorkId(99)),
                            outstanding: WorkTarget::Value(cell),
                        }
                    );
                    // The wrong cell is a mismatch too; the right one works.
                    let other = (cell.0 + 1, cell.1);
                    assert!(matches!(
                        e.skip_value(other).unwrap_err(),
                        GdrError::WorkMismatch { .. }
                    ));
                    e.skip_value(cell).unwrap();
                    break;
                }
                WorkPlan::Done(_) => panic!("reject-everything reaches the supply sweep"),
            }
        }
    }

    #[test]
    fn group_context_reports_quota_progress() {
        let mut e = engine(Strategy::GdrNoLearning);
        let WorkPlan::AskUser {
            id, group_context, ..
        } = e.next_work().unwrap()
        else {
            panic!("expected AskUser");
        };
        let context = group_context.expect("grouped strategy has context");
        assert_eq!(context.asked, 0);
        assert!(context.quota >= 1);
        assert!(context.size >= context.quota);
        e.answer(id, Feedback::Confirm).unwrap();
        if let WorkPlan::AskUser {
            group_context: Some(next_context),
            ..
        } = e.next_work().unwrap()
        {
            if next_context.attr == context.attr && next_context.value == context.value {
                assert_eq!(next_context.asked, 1);
            }
        }
    }

    #[test]
    fn pool_strategy_serves_ungrouped_work() {
        let mut e = engine(Strategy::ActiveLearningOnly);
        let WorkPlan::AskUser { group_context, .. } = e.next_work().unwrap() else {
            panic!("expected AskUser");
        };
        assert!(group_context.is_none());
    }

    #[test]
    fn snapshot_round_trip_is_bit_identical_and_live() {
        // GDR-S-Learning exercises every snapshotted axis: the learner, the
        // rng stream (within-group sampling), grouping, and eval hooks.
        let mut e = engine(Strategy::GdrSLearning);
        for _ in 0..3 {
            match e.next_work().unwrap() {
                WorkPlan::AskUser { id, .. } => e.answer(id, Feedback::Confirm).unwrap(),
                WorkPlan::NeedsValue { cell } => e.skip_value(cell).unwrap(),
                WorkPlan::Done(_) => break,
            }
        }
        // Snapshot with an outstanding plan, mid-group.
        let outstanding = e.next_work().unwrap();
        let bytes = e.to_snapshot_bytes();
        let mut restored = GdrEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.to_snapshot_bytes(), bytes);
        assert_eq!(restored.next_work().unwrap(), outstanding);
        // Drive both to completion in lockstep: every served plan and every
        // intermediate snapshot must stay bit-identical.
        let mut guard = 0usize;
        loop {
            guard += 1;
            assert!(guard < 500, "session did not progress");
            let plan = e.next_work().unwrap();
            assert_eq!(restored.next_work().unwrap(), plan);
            match plan {
                WorkPlan::AskUser { id, .. } => {
                    e.answer(id, Feedback::Confirm).unwrap();
                    restored.answer(id, Feedback::Confirm).unwrap();
                }
                WorkPlan::NeedsValue { cell } => {
                    e.skip_value(cell).unwrap();
                    restored.skip_value(cell).unwrap();
                }
                WorkPlan::Done(_) => break,
            }
            assert_eq!(restored.to_snapshot_bytes(), e.to_snapshot_bytes());
        }
        let (a, b) = (e.report().unwrap(), restored.report().unwrap());
        assert_eq!(a.final_loss.to_bits(), b.final_loss.to_bits());
        assert_eq!(a.verifications, b.verifications);
        assert_eq!(a.learner_decisions, b.learner_decisions);
    }

    #[test]
    fn snapshot_of_a_fresh_engine_round_trips() {
        let e = engine(Strategy::Gdr);
        let bytes = e.to_snapshot_bytes();
        let restored = GdrEngine::from_snapshot_bytes(&bytes).unwrap();
        assert_eq!(restored.to_snapshot_bytes(), bytes);
        assert!(restored.done().is_none());
        assert_eq!(restored.verifications(), 0);
    }

    #[test]
    fn snapshot_rejects_corruption_with_typed_errors() {
        let e = engine(Strategy::GdrNoLearning);
        let bytes = e.to_snapshot_bytes();
        // Truncation anywhere never decodes (and never panics).
        for cut in [0, 1, 2, 3, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                GdrEngine::from_snapshot_bytes(&bytes[..cut]).is_err(),
                "truncation at {cut} must not decode"
            );
        }
        // A flipped payload byte fails the frame checksum.
        let mut flipped = bytes.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x40;
        assert!(GdrEngine::from_snapshot_bytes(&flipped).is_err());
    }

    #[test]
    fn supply_sweep_offers_dirty_cells_after_suggestions_run_out() {
        let mut e = engine(Strategy::GdrNoLearning);
        // Reject everything until the generator runs dry; the engine must
        // then fall back to asking for values directly.
        let mut guard = 0usize;
        loop {
            guard += 1;
            assert!(guard < 500, "session did not progress");
            match e.next_work().unwrap() {
                WorkPlan::AskUser { id, .. } => e.answer(id, Feedback::Reject).unwrap(),
                WorkPlan::NeedsValue { cell } => {
                    // Skipping every cell must conclude the session.
                    e.skip_value(cell).unwrap();
                }
                WorkPlan::Done(reason) => {
                    assert_eq!(reason, DoneReason::Exhausted);
                    break;
                }
            }
        }
        assert!(e.state().invariants_hold());
    }
}
