//! Analysis sessions: the incremental, delta-driven half of the service API.
//!
//! An [`AnalysisSession`] monitors one fabric. It is opened from a snapshot
//! ([`ScoutEngine::open_session`](crate::ScoutEngine::open_session)) and
//! thereafter driven by typed [`EventBatch`]es with explicit epoch
//! sequencing: each [`AnalysisSession::ingest`] applies the deltas to the
//! session's [`FabricView`] mirror, re-checks only the switches the batch
//! dirtied (through the same incremental machinery as everything else in the
//! codebase), patches the cached pristine risk model when the policy changed
//! and re-derives only the failed edges on it, and returns a [`ReportDelta`]
//! — what changed since the previous epoch — while
//! [`AnalysisSession::full_report`] stays available on demand.
//!
//! The contract: provided the event stream is faithful (e.g. produced by a
//! [`FabricProbe`]), every `full_report()` is
//! **bit-identical** to a from-scratch
//! [`ScoutEngine::analyze`](crate::ScoutEngine::analyze) of the same fabric
//! state. The enforced root test `tests/session.rs` replays a 200-epoch
//! soak timeline through `ingest` and asserts exactly that at every epoch.
//!
//! Sessions also serve the campaign pattern — many mutated clones of one
//! snapshot — via [`AnalysisSession::analyze_clone`], which reuses the
//! session's equivalence check for clean switches and its pristine risk
//! model for localization.

use std::collections::BTreeSet;
use std::fmt;
use std::sync::atomic::Ordering;
use std::sync::Arc;

use scout_equiv::{EquivalenceChecker, NetworkCheckResult};
use scout_fabric::{
    ApplyError, ChangeLog, EventBatch, Fabric, FabricEvent, FabricProbe, FabricView, FaultLog,
    FullSync,
};
use scout_policy::{LogicalRule, ObjectId, PolicyUniverse, SwitchEpgPair, SwitchId};

use crate::correlation::PartialDiagnosis;
use crate::engine::{report_from_model, EngineShared, ScoutReport};
use crate::risk::{
    augment_controller_model, augment_controller_model_tracked, controller_risk_model,
    controller_risk_model_sharded, patch_controller_risk_model, RiskModel,
};

/// What an [`AnalysisSession`] needs after it detects an epoch gap: the
/// range of epochs whose deltas were lost in transit.
///
/// Carried by [`SessionError::EpochGap`]. Because [`FabricProbe`] cursors
/// advance on `observe` even when the produced batch is later dropped, the
/// lost deltas are *unrecoverable* — the only sound recovery is a fresh
/// full read ([`FabricProbe::full_resync`]) handed to
/// [`AnalysisSession::resync`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResyncRequest {
    /// The first epoch the session never received (its `next_epoch` at the
    /// time the gap was detected).
    pub from_epoch: u64,
    /// The epoch of the batch that revealed the gap. That batch was *not*
    /// applied either: the resync must cover it too.
    pub observed_epoch: u64,
}

impl ResyncRequest {
    /// How many epochs of deltas were lost, including the revealing batch.
    pub fn missing_epochs(&self) -> u64 {
        self.observed_epoch - self.from_epoch + 1
    }
}

/// Why an [`AnalysisSession::ingest`] was rejected. A rejected batch leaves
/// the session completely untouched: the epoch is not consumed and the
/// mirror, caches and report are unchanged.
///
/// # Example
///
/// ```
/// use scout_core::{ResyncRequest, ScoutEngine, SessionError};
/// use scout_fabric::{EventBatch, Fabric};
/// use scout_policy::sample;
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
/// let engine = ScoutEngine::new();
/// let mut session = engine.open_session(&fabric);
///
/// // Epoch 3 arrives when 1 was expected: epochs 1..=3 were lost in
/// // transit, and the error carries the resync the session now needs.
/// let err = session.ingest(EventBatch::empty(3)).unwrap_err();
/// let resync = ResyncRequest { from_epoch: 1, observed_epoch: 3 };
/// assert_eq!(err, SessionError::EpochGap { resync });
/// assert_eq!(resync.missing_epochs(), 3);
/// assert_eq!(session.epoch(), 0, "nothing was consumed");
/// assert!(session.ingest(EventBatch::empty(1)).is_ok());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionError {
    /// The batch's epoch is behind the next expected one — a duplicate or a
    /// reordered late delivery. Safe to drop: the session already holds
    /// every epoch up to `expected - 1`.
    EpochOutOfOrder {
        /// The epoch the session expected next.
        expected: u64,
        /// The epoch the batch carried.
        got: u64,
    },
    /// The batch's epoch is *ahead* of the next expected one: at least one
    /// earlier batch was lost in transit, and (probe cursors having moved
    /// on) its deltas can never be replayed. The session stays wedged at
    /// its current epoch until [`AnalysisSession::resync`] is fed a fresh
    /// [`FullSync`] read covering the carried [`ResyncRequest`].
    EpochGap {
        /// The lost epoch range and the epoch a resync must reach.
        resync: ResyncRequest,
    },
    /// An event referenced a switch the session's policy universe does not
    /// contain.
    UnknownSwitch {
        /// The rejected batch's epoch.
        epoch: u64,
        /// The unknown switch id.
        switch: SwitchId,
    },
    /// A fault-clear event referenced an entry beyond the mirrored fault log.
    FaultIndexOutOfRange {
        /// The rejected batch's epoch.
        epoch: u64,
        /// The offending index.
        index: usize,
        /// The mirrored log's length at that point of the batch.
        len: usize,
    },
}

impl SessionError {
    fn from_apply(epoch: u64, error: ApplyError) -> Self {
        match error {
            ApplyError::UnknownSwitch(switch) => SessionError::UnknownSwitch { epoch, switch },
            ApplyError::FaultIndexOutOfRange { index, len } => {
                SessionError::FaultIndexOutOfRange { epoch, index, len }
            }
        }
    }
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::EpochOutOfOrder { expected, got } => {
                write!(f, "epoch out of order: expected {expected}, got {got}")
            }
            SessionError::EpochGap { resync } => write!(
                f,
                "epoch gap: epochs {}..={} were lost in transit; full resync required",
                resync.from_epoch, resync.observed_epoch
            ),
            SessionError::UnknownSwitch { epoch, switch } => {
                write!(f, "epoch {epoch}: event references unknown switch {switch}")
            }
            SessionError::FaultIndexOutOfRange { epoch, index, len } => write!(
                f,
                "epoch {epoch}: fault clear index {index} out of range (log has {len} entries)"
            ),
        }
    }
}

impl std::error::Error for SessionError {}

/// What one [`AnalysisSession::ingest`] changed relative to the previous
/// epoch's report.
///
/// Deltas *compose*: folding `newly_missing`/`restored` (and the hypothesis
/// added/removed sets) over the open-time report reproduces the current full
/// report exactly — the enforced root test `tests/session.rs` replays 200
/// epochs asserting it.
///
/// # Example
///
/// ```
/// use scout_core::ScoutEngine;
/// use scout_fabric::{EventBatch, Fabric, FabricProbe};
/// use scout_policy::sample;
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
/// let engine = ScoutEngine::new();
/// let mut session = engine.open_session(&fabric);
/// let mut probe = FabricProbe::new(&fabric);
///
/// // A heartbeat epoch changes nothing the operator can see…
/// let delta = session.ingest(EventBatch::empty(1)).unwrap();
/// assert!(delta.is_noop() && delta.consistent);
///
/// // …while real drift names exactly what changed.
/// fabric.evict_tcam(sample::S2, 1, false);
/// let delta = session.ingest_observation(&mut probe, &fabric).unwrap();
/// assert_eq!(delta.epoch, 2);
/// assert_eq!(delta.rechecked.len(), 1);
/// assert!(!delta.consistent && !delta.newly_missing.is_empty());
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ReportDelta {
    /// The epoch this delta advanced the session to.
    pub epoch: u64,
    /// Switches the batch dirtied (and the session re-checked).
    pub rechecked: BTreeSet<SwitchId>,
    /// Logical rules missing now that were not missing before.
    pub newly_missing: Vec<LogicalRule>,
    /// Logical rules missing before that are restored (or retired) now.
    pub restored: Vec<LogicalRule>,
    /// Objects that entered the hypothesis this epoch.
    pub hypothesis_added: BTreeSet<ObjectId>,
    /// Objects that left the hypothesis this epoch.
    pub hypothesis_removed: BTreeSet<ObjectId>,
    /// Objects whose physical-root-cause diagnosis appeared, disappeared or
    /// changed this epoch.
    pub diagnosis_changed: BTreeSet<ObjectId>,
    /// Whether the fabric is consistent with the policy after this epoch.
    pub consistent: bool,
}

impl ReportDelta {
    /// A delta reporting "nothing changed" at `epoch`.
    fn noop(epoch: u64, consistent: bool) -> Self {
        Self {
            epoch,
            consistent,
            ..Self::default()
        }
    }

    fn between(
        epoch: u64,
        rechecked: BTreeSet<SwitchId>,
        prev: &ScoutReport,
        next: &ScoutReport,
    ) -> Self {
        let prev_missing = prev.check.missing_rule_set();
        let next_missing = next.check.missing_rule_set();
        let prev_hypothesis = prev.hypothesis.objects();
        let next_hypothesis = next.hypothesis.objects();
        let diagnosed: BTreeSet<ObjectId> = prev
            .diagnosis
            .diagnoses()
            .iter()
            .chain(next.diagnosis.diagnoses())
            .map(|d| d.object)
            .collect();
        Self {
            epoch,
            rechecked,
            newly_missing: next_missing.difference(&prev_missing).copied().collect(),
            restored: prev_missing.difference(&next_missing).copied().collect(),
            hypothesis_added: next_hypothesis
                .difference(&prev_hypothesis)
                .copied()
                .collect(),
            hypothesis_removed: prev_hypothesis
                .difference(&next_hypothesis)
                .copied()
                .collect(),
            diagnosis_changed: diagnosed
                .into_iter()
                .filter(|&o| prev.diagnosis.for_object(o) != next.diagnosis.for_object(o))
                .collect(),
            consistent: next.is_consistent(),
        }
    }

    /// Returns `true` if the epoch changed nothing the operator can see
    /// (missing rules, hypothesis and diagnoses are all unchanged).
    pub fn is_noop(&self) -> bool {
        self.newly_missing.is_empty()
            && self.restored.is_empty()
            && self.hypothesis_added.is_empty()
            && self.hypothesis_removed.is_empty()
            && self.diagnosis_changed.is_empty()
    }
}

/// Running counters of one session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SessionStats {
    /// Successful `ingest` calls (rejected batches are not counted).
    pub ingests: usize,
    /// Events applied across all ingests.
    pub events: usize,
    /// Ingests of an empty batch (cheap no-ops).
    pub empty_batches: usize,
    /// Switches re-checked across all ingests.
    pub rechecked_switches: usize,
    /// Gap recoveries via [`AnalysisSession::resync`].
    pub resyncs: usize,
}

/// A long-lived analysis session monitoring one fabric.
///
/// # Example
///
/// ```
/// use scout_core::ScoutEngine;
/// use scout_fabric::{EventBatch, Fabric, FabricProbe};
/// use scout_policy::{sample, ObjectId};
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
///
/// let engine = ScoutEngine::new();
/// let mut session = engine.open_session(&fabric);
/// let mut probe = FabricProbe::new(&fabric);
/// assert!(session.full_report().is_consistent());
///
/// // The port-700 rules silently vanish; one delta batch catches the
/// // session up and reports exactly what changed.
/// fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
/// fabric.remove_tcam_rules_where(sample::S3, |r| r.matcher.ports.start == 700);
/// let events = probe.observe(&fabric);
/// let delta = session
///     .ingest(EventBatch::new(session.next_epoch(), events))
///     .unwrap();
/// assert_eq!(delta.newly_missing.len(), 4);
/// assert!(delta
///     .hypothesis_added
///     .contains(&ObjectId::Filter(sample::F_700)));
/// // The on-demand full report matches a from-scratch analysis exactly.
/// assert_eq!(*session.full_report(), engine.analyze(&fabric));
/// ```
#[derive(Debug)]
pub struct AnalysisSession {
    shared: Arc<EngineShared>,
    /// The session's private checker: warm across ingests and clone
    /// analyses, never contended with other sessions.
    checker: EquivalenceChecker,
    /// The monitor-side mirror of the fabric's artifacts.
    view: FabricView,
    /// Identity of the monitored fabric (for [`AnalysisSession::covers`]).
    fabric_id: u64,
    /// The fabric's change epoch at open time; clone analyses derive their
    /// dirty sets relative to it.
    open_epoch: u64,
    /// The session epoch: number of batches ingested so far.
    epoch: u64,
    /// The pristine (un-augmented) controller risk model of the mirrored
    /// universe: built on open/resume/resync, patched in place by every
    /// ingested policy update; each analysis applies and rolls back only the
    /// failed edges.
    model: RiskModel<SwitchEpgPair>,
    /// The current full report (owns the current equivalence check).
    report: ScoutReport,
    stats: SessionStats,
}

impl AnalysisSession {
    /// Opens a session: snapshots `fabric` and runs the full pipeline once.
    pub(crate) fn open(shared: Arc<EngineShared>, fabric: &Fabric) -> Self {
        let mut checker = EquivalenceChecker::with_parallelism(shared.config.parallelism);
        checker.set_node_budget(shared.config.node_budget);
        checker.set_node_table(shared.config.node_table);
        let view = FabricView::of(fabric);
        let check = checker.check_network(view.logical_rules(), view.tcam());
        let mut model = controller_risk_model_sharded(view.universe(), shared.config.parallelism);
        let (report, ()) = Self::report_on(
            &shared,
            &mut model,
            check,
            view.universe(),
            view.change_log(),
            view.fault_log(),
            |_| (),
        );
        shared.open_sessions.fetch_add(1, Ordering::Relaxed);
        Self {
            shared,
            checker,
            view,
            fabric_id: fabric.id(),
            open_epoch: fabric.epoch(),
            epoch: 0,
            model,
            report,
            stats: SessionStats::default(),
        }
    }

    /// Rebuilds a session from a checkpoint (the restore path; see
    /// [`ScoutEngine::restore`](crate::ScoutEngine::restore)).
    ///
    /// The pristine risk model is recomputed from the restored view — it is a
    /// pure function of the policy universe — and the checkpointed report
    /// carries the equivalence check, so the session resumes exactly where
    /// the checkpointed one stood; the caller replays the snapshot's tail
    /// through the ordinary [`AnalysisSession::ingest`] path.
    pub(crate) fn resume(shared: Arc<EngineShared>, snapshot: &crate::snapshot::Snapshot) -> Self {
        let mut checker = EquivalenceChecker::with_parallelism(shared.config.parallelism);
        checker.set_node_budget(shared.config.node_budget);
        checker.set_node_table(shared.config.node_table);
        let view = snapshot.view().clone();
        let model = controller_risk_model_sharded(view.universe(), shared.config.parallelism);
        shared.open_sessions.fetch_add(1, Ordering::Relaxed);
        Self {
            shared,
            checker,
            fabric_id: snapshot.fabric_id(),
            open_epoch: snapshot.open_epoch(),
            epoch: snapshot.epoch(),
            model,
            report: snapshot.report().clone(),
            view,
            stats: SessionStats::default(),
        }
    }

    /// The session half of the one analysis pipeline: augments the pristine
    /// `model` with the failures of `check`, assembles the report through
    /// [`report_from_model`], lets `extra` read the still-augmented model, and
    /// rolls the augmentation back.
    fn report_on<T>(
        shared: &EngineShared,
        model: &mut RiskModel<SwitchEpgPair>,
        check: NetworkCheckResult,
        universe: &PolicyUniverse,
        change_log: &ChangeLog,
        fault_log: &FaultLog,
        extra: impl FnOnce(&RiskModel<SwitchEpgPair>) -> T,
    ) -> (ScoutReport, T) {
        let marks = augment_controller_model_tracked(model, check.missing_rules());
        let report = report_from_model(
            check,
            model,
            universe,
            change_log,
            fault_log,
            shared.config.scout,
            &shared.correlation,
        );
        let extra_out = extra(model);
        model.undo_failures(marks);
        (report, extra_out)
    }

    /// The [`Fabric::id`](scout_fabric::Fabric::id) of the monitored fabric.
    pub fn fabric_id(&self) -> u64 {
        self.fabric_id
    }

    /// The fabric's change epoch when the session was opened (checkpoints
    /// carry it so clone-coverage semantics survive restore).
    pub(crate) fn open_epoch(&self) -> u64 {
        self.open_epoch
    }

    /// Captures the session's durable state — the fabric-view mirror, the
    /// epoch cursor and the current full report — as a plain-data
    /// [`Snapshot`](crate::Snapshot) with an empty replay tail.
    ///
    /// Append post-checkpoint batches with
    /// [`Snapshot::push_tail`](crate::Snapshot::push_tail) and rebuild a live
    /// session with [`ScoutEngine::restore`](crate::ScoutEngine::restore);
    /// the restored session is bit-identical to one that never stopped. See
    /// [`crate::snapshot`] for the full contract and an end-to-end example.
    pub fn checkpoint(&self) -> crate::snapshot::Snapshot {
        crate::snapshot::Snapshot::of_session(self)
    }

    /// The last successfully ingested epoch (0 right after open).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The epoch the next [`AnalysisSession::ingest`] must carry.
    pub fn next_epoch(&self) -> u64 {
        self.epoch + 1
    }

    /// The session's mirror of the fabric's artifacts.
    pub fn view(&self) -> &FabricView {
        &self.view
    }

    /// The current full report, maintained incrementally — bit-identical to a
    /// from-scratch analysis of the mirrored fabric state.
    pub fn full_report(&self) -> &ScoutReport {
        &self.report
    }

    /// `true` if the mirrored deployment currently matches the policy.
    pub fn is_consistent(&self) -> bool {
        self.report.is_consistent()
    }

    /// The session's running counters.
    pub fn stats(&self) -> &SessionStats {
        &self.stats
    }

    /// Ingests one epoch of typed deltas.
    ///
    /// The batch's epoch must be exactly [`AnalysisSession::next_epoch`];
    /// duplicates and reordered late deliveries are rejected with
    /// [`SessionError::EpochOutOfOrder`] (droppable), while a batch from the
    /// *future* is rejected with [`SessionError::EpochGap`] — earlier deltas
    /// were lost and the carried [`ResyncRequest`] names the resync that
    /// recovers the session. Events referencing unknown switches or
    /// out-of-range fault entries are rejected with context. A rejected
    /// batch leaves the session untouched. An empty batch is a cheap no-op:
    /// the epoch advances and the previous report is retained without
    /// re-running any analysis stage.
    pub fn ingest(&mut self, batch: EventBatch) -> Result<ReportDelta, SessionError> {
        // All-or-nothing: validate the whole batch before mutating anything.
        self.validate_batch(&batch)?;
        let expected = self.epoch + 1;
        if batch.is_empty() {
            self.epoch = expected;
            self.stats.ingests += 1;
            self.stats.empty_batches += 1;
            return Ok(ReportDelta::noop(expected, self.report.is_consistent()));
        }

        let mut dirty: BTreeSet<SwitchId> = BTreeSet::new();
        for event in &batch.events {
            // Risk model: a policy change patches the pristine model while
            // the view still holds the universe it was derived from.
            if let FabricEvent::PolicyUpdate { universe, .. } = event {
                patch_controller_risk_model(&mut self.model, self.view.universe(), universe);
            }
            dirty.extend(
                self.view
                    .apply(event)
                    .expect("the batch was validated up front"),
            );
        }

        // Equivalence: re-check only what the batch dirtied.
        let view = &self.view;
        let check = self.checker.recheck_dirty_with(
            &self.report.check,
            view.logical_rules(),
            view.switch_set(),
            &dirty,
            |s| view.tcam_of(s),
        );

        // Risk model: re-derive (and roll back) just the failed edges of the
        // new check.
        let (report, ()) = Self::report_on(
            &self.shared,
            &mut self.model,
            check,
            self.view.universe(),
            self.view.change_log(),
            self.view.fault_log(),
            |_| (),
        );

        let delta = ReportDelta::between(expected, dirty, &self.report, &report);
        self.report = report;
        self.epoch = expected;
        self.stats.ingests += 1;
        self.stats.events += batch.len();
        self.stats.rechecked_switches += delta.rechecked.len();
        Ok(delta)
    }

    /// Checks whether `batch` would be accepted by [`AnalysisSession::ingest`]
    /// without mutating the session — the durability hook used by
    /// `scout-store` to refuse a batch *before* it consumes journal bytes,
    /// so the on-disk journal only ever contains batches the session
    /// accepted.
    ///
    /// Runs exactly the up-front checks `ingest` performs: strict `+1` epoch
    /// sequencing (the same [`SessionError::EpochGap`] /
    /// [`SessionError::EpochOutOfOrder`] contract) and whole-batch event
    /// validation against the mirrored view. A batch that passes is
    /// guaranteed to be accepted by an immediately following `ingest` on
    /// the same, unmodified session.
    pub fn validate_batch(&self, batch: &EventBatch) -> Result<(), SessionError> {
        let expected = self.epoch + 1;
        if batch.epoch > expected {
            return Err(SessionError::EpochGap {
                resync: ResyncRequest {
                    from_epoch: expected,
                    observed_epoch: batch.epoch,
                },
            });
        }
        if batch.epoch < expected {
            return Err(SessionError::EpochOutOfOrder {
                expected,
                got: batch.epoch,
            });
        }
        if batch.is_empty() {
            return Ok(());
        }
        self.view
            .validate(&batch.events)
            .map_err(|e| SessionError::from_apply(expected, e))
    }

    /// Observes `fabric` through `probe` and ingests the resulting events as
    /// the next epoch — the standard monitoring step (probe diff → sequenced
    /// batch → [`AnalysisSession::ingest`]) in one call, keeping the epoch
    /// bookkeeping in one place.
    pub fn ingest_observation(
        &mut self,
        probe: &mut FabricProbe,
        fabric: &Fabric,
    ) -> Result<ReportDelta, SessionError> {
        let events = probe.observe(fabric);
        self.ingest(EventBatch::new(self.next_epoch(), events))
    }

    /// Recovers from an epoch gap by replacing the mirror with a fresh full
    /// read and re-running the full pipeline on it — the recovery path for
    /// [`SessionError::EpochGap`].
    ///
    /// `epoch` is the epoch the resync advances the session to (at least
    /// the gap's `observed_epoch`; later is fine if more epochs elapsed
    /// before the resync read landed) and `sync` is the fresh read, e.g.
    /// from [`FabricProbe::full_resync`] — which also realigns the probe's
    /// cursors so subsequent observations resume incrementally. An `epoch`
    /// that does not move the session forward is rejected with
    /// [`SessionError::EpochOutOfOrder`] and changes nothing.
    ///
    /// From the resync epoch onward the session is bit-identical to one
    /// that never lost a batch: the enforced root test `tests/hostile.rs`
    /// replays an interrupted and an uninterrupted timeline side by side
    /// and asserts exactly that.
    pub fn resync(&mut self, epoch: u64, sync: FullSync) -> Result<ReportDelta, SessionError> {
        if epoch < self.next_epoch() {
            return Err(SessionError::EpochOutOfOrder {
                expected: self.next_epoch(),
                got: epoch,
            });
        }
        self.view = sync.into_view();
        let check = self
            .checker
            .check_network(self.view.logical_rules(), self.view.tcam());
        self.model =
            controller_risk_model_sharded(self.view.universe(), self.shared.config.parallelism);
        let (report, ()) = Self::report_on(
            &self.shared,
            &mut self.model,
            check,
            self.view.universe(),
            self.view.change_log(),
            self.view.fault_log(),
            |_| (),
        );

        let delta =
            ReportDelta::between(epoch, self.view.switch_set().clone(), &self.report, &report);
        self.report = report;
        self.epoch = epoch;
        self.stats.ingests += 1;
        self.stats.resyncs += 1;
        self.stats.rechecked_switches += delta.rechecked.len();
        Ok(delta)
    }

    /// Ranks every candidate root cause of the current report by
    /// confidence — the degraded-telemetry companion to the definitive
    /// [`ScoutReport::diagnosis`](crate::ScoutReport): when fault logs are
    /// missing or incomplete, the ranking still names the most likely
    /// culprits instead of going silent. See
    /// [`CorrelationEngine::rank_partial`](crate::CorrelationEngine::rank_partial)
    /// for the ranking contract.
    pub fn partial_diagnosis(&self) -> PartialDiagnosis {
        self.shared.correlation.rank_partial(
            &self.report.hypothesis,
            &self.report.suspect_objects,
            self.view.universe(),
            self.view.change_log(),
            self.view.fault_log(),
        )
    }

    /// Returns `true` if the session's open-time check can be reused
    /// incrementally for `fabric`: no event batch has been ingested (so the
    /// session's check still is the open-time one), and the fabric is the
    /// monitored fabric itself or a clone taken from it at or after the open
    /// epoch (every divergence then shows up in
    /// [`Fabric::dirty_switches_since`] relative to that epoch).
    ///
    /// Once `ingest` has advanced the session, its check reflects the
    /// *mirrored* state — drift a pre-drift clone does not carry in its dirty
    /// set — so clone analyses of an ingesting session always take the full
    /// check.
    pub fn covers(&self, fabric: &Fabric) -> bool {
        self.epoch == 0
            && (fabric.id() == self.fabric_id
                || (fabric.parent_id() == Some(self.fabric_id)
                    && fabric.parent_epoch().is_some_and(|e| e >= self.open_epoch)))
    }

    /// Analyzes a mutated clone of the monitored fabric, reusing the
    /// session's check for clean switches and its pristine risk model for
    /// localization — the campaign pattern: one session per worker, one
    /// `analyze_clone` per scenario.
    ///
    /// The produced report is bit-identical to
    /// [`ScoutEngine::analyze`](crate::ScoutEngine::analyze) on the same
    /// fabric. The fast paths engage when the session
    /// [`covers`](AnalysisSession::covers) the fabric and, for the risk
    /// model, when the policy universe is unchanged; otherwise the method
    /// transparently falls back to the from-scratch pipeline for the affected
    /// stage.
    pub fn analyze_clone(&mut self, fabric: &Fabric) -> ScoutReport {
        self.analyze_clone_with(fabric, |_| ()).0
    }

    /// Like [`AnalysisSession::analyze_clone`], but additionally runs `extra`
    /// against the same augmented controller risk model — e.g. a baseline
    /// algorithm being compared on identical evidence — so the model is
    /// augmented (and rolled back) once per analysis instead of once per
    /// consumer.
    pub fn analyze_clone_with<T>(
        &mut self,
        fabric: &Fabric,
        extra: impl FnOnce(&RiskModel<SwitchEpgPair>) -> T,
    ) -> (ScoutReport, T) {
        let check = if self.covers(fabric) {
            let dirty = fabric.dirty_switches_since(self.open_epoch);
            let current: BTreeSet<SwitchId> = fabric.universe().switch_ids().into_iter().collect();
            self.checker.recheck_dirty_with(
                &self.report.check,
                fabric.logical_rules(),
                &current,
                &dirty,
                |s| fabric.tcam_rules(s),
            )
        } else {
            self.checker
                .check_network(fabric.logical_rules(), &fabric.collect_tcam())
        };
        // The cached pristine model serves the clone while it still holds the
        // mirrored policy; otherwise the model is rebuilt from its universe.
        let mut rebuilt;
        let model = if fabric.universe_version() == self.view.universe_version() {
            &mut self.model
        } else {
            rebuilt = controller_risk_model(fabric.universe());
            &mut rebuilt
        };
        Self::report_on(
            &self.shared,
            model,
            check,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
            extra,
        )
    }

    /// The reference from-scratch analysis of a clone, through the session's
    /// private checker: full network check, fresh risk model. Used by
    /// differential drivers to validate [`AnalysisSession::analyze_clone`];
    /// both produce bit-identical reports.
    pub fn analyze_scratch_with<T>(
        &mut self,
        fabric: &Fabric,
        extra: impl FnOnce(&RiskModel<SwitchEpgPair>) -> T,
    ) -> (ScoutReport, T) {
        let check = self
            .checker
            .check_network(fabric.logical_rules(), &fabric.collect_tcam());
        let mut model = controller_risk_model(fabric.universe());
        augment_controller_model(&mut model, check.missing_rules());
        let report = report_from_model(
            check,
            &model,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
            self.shared.config.scout,
            &self.shared.correlation,
        );
        let extra_out = extra(&model);
        (report, extra_out)
    }

    /// Runs `f` against the controller risk model augmented with the missing
    /// rules of `check`, re-deriving only the failed edges when `fabric`
    /// still holds the mirrored policy (and rebuilding the model from the
    /// fabric's universe otherwise). The cached model is always restored to
    /// its pristine state before returning.
    pub fn with_augmented_model<T>(
        &mut self,
        fabric: &Fabric,
        check: &NetworkCheckResult,
        f: impl FnOnce(&RiskModel<SwitchEpgPair>) -> T,
    ) -> T {
        if fabric.universe_version() == self.view.universe_version() {
            let marks = augment_controller_model_tracked(&mut self.model, check.missing_rules());
            let out = f(&self.model);
            self.model.undo_failures(marks);
            out
        } else {
            let mut model = controller_risk_model(fabric.universe());
            augment_controller_model(&mut model, check.missing_rules());
            f(&model)
        }
    }
}

impl Drop for AnalysisSession {
    /// Counts the session out of [`ScoutEngine::session_count`](crate::ScoutEngine::session_count).
    fn drop(&mut self) {
        self.shared.open_sessions.fetch_sub(1, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScoutEngine;
    use scout_fabric::FabricProbe;
    use scout_policy::sample;

    fn deployed() -> Fabric {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
    }

    fn ingest_observation(
        session: &mut AnalysisSession,
        probe: &mut FabricProbe,
        fabric: &Fabric,
    ) -> ReportDelta {
        session
            .ingest_observation(probe, fabric)
            .expect("faithful observations ingest cleanly")
    }

    #[test]
    fn ingested_session_matches_full_analysis() {
        let mut fabric = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        let mut probe = FabricProbe::new(&fabric);
        assert!(session.is_consistent());
        assert_eq!(*session.full_report(), engine.analyze(&fabric));

        // Mutate two switches; the delta-driven report must match from
        // scratch, and the delta must name the change.
        for switch in [sample::S2, sample::S3] {
            fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start == 700);
        }
        let delta = ingest_observation(&mut session, &mut probe, &fabric);
        assert_eq!(*session.full_report(), engine.analyze(&fabric));
        assert_eq!(delta.rechecked, BTreeSet::from([sample::S2, sample::S3]));
        assert_eq!(delta.newly_missing.len(), 4);
        assert!(delta.restored.is_empty());
        assert!(delta
            .hypothesis_added
            .contains(&ObjectId::Filter(sample::F_700)));
        assert!(delta
            .diagnosis_changed
            .contains(&ObjectId::Filter(sample::F_700)));
        assert!(!delta.consistent);
        assert!(!delta.is_noop());

        // Repair: the rules come back, and the delta reports the restoration.
        fabric.repair_switch(sample::S2);
        fabric.repair_switch(sample::S3);
        let delta = ingest_observation(&mut session, &mut probe, &fabric);
        assert_eq!(*session.full_report(), engine.analyze(&fabric));
        assert_eq!(delta.restored.len(), 4);
        assert!(delta
            .hypothesis_removed
            .contains(&ObjectId::Filter(sample::F_700)));
        assert!(delta.consistent);
        assert_eq!(session.epoch(), 2);
    }

    #[test]
    fn empty_batches_are_cheap_noops() {
        let fabric = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        let before = session.full_report().clone();
        let delta = session.ingest(EventBatch::empty(1)).unwrap();
        assert!(delta.is_noop());
        assert!(delta.consistent);
        assert_eq!(delta.epoch, 1);
        assert_eq!(session.epoch(), 1);
        assert_eq!(*session.full_report(), before);
        let stats = session.stats();
        assert_eq!(stats.ingests, 1);
        assert_eq!(stats.empty_batches, 1);
        assert_eq!(stats.events, 0);
        assert_eq!(stats.rechecked_switches, 0);
    }

    #[test]
    fn epoch_sequencing_is_strict() {
        let fabric = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        assert_eq!(session.next_epoch(), 1);

        // Epoch 0 (behind) is a droppable out-of-order delivery; epochs
        // from the future are gaps carrying the resync they require.
        assert_eq!(
            session.ingest(EventBatch::empty(0)),
            Err(SessionError::EpochOutOfOrder {
                expected: 1,
                got: 0
            })
        );
        for ahead in [2u64, 7] {
            let err = session.ingest(EventBatch::empty(ahead)).unwrap_err();
            assert_eq!(
                err,
                SessionError::EpochGap {
                    resync: ResyncRequest {
                        from_epoch: 1,
                        observed_epoch: ahead
                    }
                }
            );
            assert!(err.to_string().contains("resync required"));
        }
        assert!(session.ingest(EventBatch::empty(1)).is_ok());
        // Replaying the consumed epoch is rejected too.
        let replay = session.ingest(EventBatch::empty(1));
        assert_eq!(
            replay,
            Err(SessionError::EpochOutOfOrder {
                expected: 2,
                got: 1
            })
        );
        assert!(replay.unwrap_err().to_string().contains("out of order"));
        // Rejected batches consume nothing.
        assert_eq!(session.epoch(), 1);
        assert_eq!(session.stats().ingests, 1);
    }

    #[test]
    fn gapped_session_recovers_via_full_resync() {
        let mut fabric = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        let mut probe = FabricProbe::new(&fabric);

        // Epoch 1's batch is produced… and lost. The probe's cursors have
        // moved on regardless.
        fabric.evict_tcam(sample::S2, 2, true);
        let _lost = probe.observe(&fabric);

        // Epoch 2's batch arrives and reveals the gap; the session is
        // untouched and — without a resync — wedged (every later delta is
        // also from the future).
        fabric.evict_tcam(sample::S3, 1, true);
        let late = EventBatch::new(2, probe.observe(&fabric));
        let err = session.ingest(late).unwrap_err();
        let SessionError::EpochGap { resync } = err else {
            panic!("a future epoch must be classified as a gap, got {err:?}");
        };
        assert_eq!(resync.from_epoch, 1);
        assert_eq!(resync.observed_epoch, 2);
        assert_eq!(resync.missing_epochs(), 2);
        assert_eq!(session.epoch(), 0);
        assert!(session.is_consistent(), "the gap consumed nothing");

        // Recovery: a fresh full read advances the session past the gap and
        // the report matches a from-scratch analysis bit for bit.
        let delta = session
            .resync(resync.observed_epoch, probe.full_resync(&fabric))
            .unwrap();
        assert_eq!(delta.epoch, 2);
        assert!(!delta.consistent);
        assert_eq!(session.epoch(), 2);
        assert_eq!(*session.full_report(), engine.analyze(&fabric));
        assert_eq!(session.stats().resyncs, 1);

        // The probe resumed incrementally: ordinary ingests work again and
        // stay bit-identical.
        fabric.repair_switch(sample::S2);
        fabric.repair_switch(sample::S3);
        let delta = session.ingest_observation(&mut probe, &fabric).unwrap();
        assert_eq!(delta.epoch, 3);
        assert!(delta.consistent);
        assert_eq!(*session.full_report(), engine.analyze(&fabric));

        // A resync that does not move the session forward is rejected.
        let stale = session.resync(1, probe.full_resync(&fabric));
        assert_eq!(
            stale,
            Err(SessionError::EpochOutOfOrder {
                expected: 4,
                got: 1
            })
        );
        assert_eq!(session.epoch(), 3);
    }

    #[test]
    fn unknown_switch_events_are_rejected_with_context() {
        let fabric = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        let before = session.full_report().clone();
        let stray = SwitchId::new(99);
        let batch = EventBatch::new(
            1,
            vec![FabricEvent::TcamSync {
                switch: stray,
                rules: Vec::new(),
            }],
        );
        let err = session.ingest(batch).unwrap_err();
        assert_eq!(
            err,
            SessionError::UnknownSwitch {
                epoch: 1,
                switch: stray
            }
        );
        assert!(err.to_string().contains("unknown switch"));
        // The rejected batch left the session untouched: the epoch was not
        // consumed and the report is unchanged.
        assert_eq!(session.epoch(), 0);
        assert_eq!(*session.full_report(), before);
        assert!(session.ingest(EventBatch::empty(1)).is_ok());
    }

    #[test]
    fn bad_fault_indices_are_rejected_atomically() {
        let mut fabric = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        // A batch whose first event is valid and second is not must apply
        // neither.
        fabric.remove_tcam_rules_where(sample::S2, |_| true);
        let batch = EventBatch::new(
            1,
            vec![
                FabricEvent::TcamSync {
                    switch: sample::S2,
                    rules: fabric.tcam_rules(sample::S2),
                },
                FabricEvent::FaultEvents {
                    raised: Vec::new(),
                    cleared: vec![(42, scout_fabric::Timestamp::new(1))],
                },
            ],
        );
        let err = session.ingest(batch).unwrap_err();
        assert!(matches!(
            err,
            SessionError::FaultIndexOutOfRange {
                epoch: 1,
                index: 42,
                ..
            }
        ));
        assert!(
            session.is_consistent(),
            "the TcamSync must not have applied"
        );
        assert_eq!(session.epoch(), 0);
    }

    #[test]
    fn clone_analysis_matches_full_analysis() {
        let base = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&base);
        assert!(session.covers(&base));

        // A mutated clone: only S2/S3 are dirty relative to the session.
        let mut clone = base.clone();
        assert!(session.covers(&clone));
        for switch in [sample::S2, sample::S3] {
            clone.remove_tcam_rules_where(switch, |r| r.matcher.ports.start == 700);
        }
        let derived = session.analyze_clone(&clone);
        let full = engine.analyze(&clone);
        assert_eq!(derived, full);
        assert!(derived.hypothesis.contains(ObjectId::Filter(sample::F_700)));

        // The session stays reusable: a second, different clone agrees too.
        let mut other = base.clone();
        other.disconnect_switch(sample::S2);
        other.remove_tcam_rules_where(sample::S2, |_| true);
        let derived = session.analyze_clone(&other);
        assert_eq!(derived, engine.analyze(&other));

        // And the reference from-scratch path through the session agrees.
        let (scratch, _) = session.analyze_scratch_with(&other, |_| ());
        assert_eq!(scratch, derived);
    }

    #[test]
    fn clone_analysis_survives_policy_updates() {
        use scout_policy::{Contract, Filter, FilterEntry, FilterId, PortRange, Protocol};
        let base = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&base);

        // The clone's policy diverges: the risk-model fast path must yield to
        // a from-scratch model while the check stays incremental.
        let mut clone = base.clone();
        let universe = clone.universe();
        let mut b = scout_policy::PolicyUniverse::builder();
        for t in universe.tenants() {
            b.tenant(t.clone());
        }
        for v in universe.vrfs() {
            b.vrf(v.clone());
        }
        for e in universe.epgs() {
            b.epg(e.clone());
        }
        for s in universe.switches() {
            b.switch(s.clone());
        }
        for ep in universe.endpoints() {
            b.endpoint(ep.clone());
        }
        for f in universe.filters() {
            b.filter(f.clone());
        }
        b.filter(Filter::new(
            FilterId::new(60),
            "port-9443",
            vec![FilterEntry::allow(Protocol::Tcp, PortRange::single(9443))],
        ));
        for c in universe.contracts() {
            if c.id == sample::C_APP_DB {
                let mut filters = c.filters.clone();
                filters.push(FilterId::new(60));
                b.contract(Contract::new(c.id, c.name.clone(), filters));
            } else {
                b.contract(c.clone());
            }
        }
        for binding in universe.bindings() {
            b.bind(*binding);
        }
        let updated = b.build().unwrap();

        clone.disconnect_switch(sample::S3);
        clone.update_policy(updated);
        let derived = session.analyze_clone(&clone);
        let full = engine.analyze(&clone);
        assert_eq!(derived, full);
        assert!(!derived.is_consistent());
    }

    #[test]
    fn stale_clones_are_not_covered_but_still_analyzed_correctly() {
        let mut base = deployed();
        let engine = ScoutEngine::new();

        // Clone first, open the session later: the clone misses the
        // post-clone mutation, so the session must refuse the incremental
        // path…
        let stale = base.clone();
        base.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let mut session = engine.open_session(&base);
        assert!(!session.covers(&stale));
        // …and still produce the correct (full-check) report for it.
        let report = session.analyze_clone(&stale);
        assert_eq!(report, engine.analyze(&stale));
        assert!(report.is_consistent());
    }

    #[test]
    fn sessions_on_different_fabrics_are_independent() {
        let a = deployed();
        let mut b = a.clone();
        b.remove_tcam_rules_where(sample::S2, |_| true);

        let engine = ScoutEngine::new();
        let session_a = engine.open_session(&a);
        let session_b = engine.open_session(&b);
        assert!(session_a.is_consistent());
        assert!(!session_b.is_consistent());
        assert_eq!(*session_b.full_report(), engine.analyze(&b));
    }

    #[test]
    fn interleaved_ingests_and_clone_analyses_agree_with_scratch() {
        let mut fabric = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        let mut probe = FabricProbe::new(&fabric);
        assert!(session.covers(&fabric), "fresh session covers its fabric");

        // The live fabric drifts and the session follows it…
        fabric.evict_tcam(sample::S1, 1, true);
        ingest_observation(&mut session, &mut probe, &fabric);
        assert_eq!(*session.full_report(), engine.analyze(&fabric));

        // …after which the incremental clone path retires (the session's
        // check reflects the mirror, not the open snapshot), but clone
        // analyses still agree with from-scratch exactly.
        let mut clone = fabric.clone();
        clone.remove_tcam_rules_where(sample::S3, |_| true);
        assert!(!session.covers(&clone));
        assert_eq!(session.analyze_clone(&clone), engine.analyze(&clone));

        // Another round of drift after the clone analysis.
        fabric.repair_switch(sample::S1);
        ingest_observation(&mut session, &mut probe, &fabric);
        assert_eq!(*session.full_report(), engine.analyze(&fabric));
        assert!(session.is_consistent());
    }

    #[test]
    fn clones_taken_before_ingested_drift_are_analyzed_correctly() {
        // Regression: a clone taken *before* drift that the session has
        // since ingested carries no dirty entry for the drifted switch, so
        // reusing the post-ingest check incrementally would smuggle the
        // drift into the clone's report. The clone must be analyzed from a
        // full check and come out healthy.
        let mut fabric = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        let mut probe = FabricProbe::new(&fabric);

        let clone = fabric.clone();
        fabric.evict_tcam(sample::S2, 2, true);
        ingest_observation(&mut session, &mut probe, &fabric);
        assert!(!session.is_consistent());

        assert!(!session.covers(&clone));
        let report = session.analyze_clone(&clone);
        assert_eq!(report, engine.analyze(&clone));
        assert!(report.is_consistent());
    }

    #[test]
    fn stats_track_ingest_activity() {
        let mut fabric = deployed();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        let mut probe = FabricProbe::new(&fabric);

        session.ingest(EventBatch::empty(1)).unwrap();
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let delta = ingest_observation(&mut session, &mut probe, &fabric);
        assert_eq!(delta.rechecked.len(), 1);

        let stats = session.stats();
        assert_eq!(stats.ingests, 2);
        assert_eq!(stats.empty_batches, 1);
        assert_eq!(stats.events, 1);
        assert_eq!(stats.rechecked_switches, 1);
    }
}
