//! The SCOUT service facade: a long-lived, multi-fabric analysis engine.
//!
//! The paper's SCOUT is a *continuously running* service (Figure 6): the
//! controller streams policy changes into it, switches stream TCAM and fault
//! state, and operators consume diagnoses. [`ScoutEngine`] is that front
//! door:
//!
//! * it is configured once from an [`EngineConfig`] (parallelism,
//!   localization, differential-oracle cadence) through
//!   [`ScoutEngine::from_config`], so every driver — campaigns, soak
//!   timelines, examples, tests — shares one configuration surface with one
//!   default;
//! * it opens [`AnalysisSession`]s, one per monitored fabric; a session is
//!   opened from a fabric snapshot and thereafter driven by
//!   typed [`FabricEvent`](scout_fabric::FabricEvent) batches, each returning
//!   a [`ReportDelta`](crate::ReportDelta);
//! * for one-shot work it offers [`ScoutEngine::analyze`], the reference
//!   from-scratch pipeline every incremental path is differentially checked
//!   against.
//!
//! Every path runs the same stages (equivalence check → risk model →
//! localization → correlation). [`ScoutEngine::analyze`] runs them from
//! scratch; a session keeps their state across epochs (its re-checked
//! switches, a failure overlay over the risk model its universe indexes,
//! and its localization per failure component), and its reports are bit-identical to from-scratch analyses of the same
//! fabric state.

use std::collections::BTreeSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use scout_equiv::{
    CheckWork, EquivalenceChecker, NetworkCheckResult, NodeTableKind, Parallelism,
    SwitchCheckResult,
};
use scout_fabric::{compile_for_switch, ChangeLog, Fabric, FabricView, FaultLog};
use scout_policy::{LogicalRule, ObjectId, PolicyUniverse, SwitchEpgPair, SwitchId, TcamRule};

use crate::correlation::{CorrelationEngine, CorrelationReport};
use crate::gauges::ServiceGauges;
use crate::localization::{scout_localize, Hypothesis, ScoutConfig};
use crate::risk::{
    augment_controller_model_tracked, augment_switch_model, controller_risk_model,
    switch_risk_model, RiskModel,
};
use crate::session::AnalysisSession;

/// How often a driver's differential oracle re-analyzes a monitored fabric
/// from scratch and compares against the incremental session report.
///
/// The cadence is part of the engine configuration so every driver (the soak
/// timeline, CI smoke jobs, ad-hoc experiments) shares one knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleCadence {
    /// Every epoch — the strongest (and default) setting, used by the
    /// enforced integration tests and the CI soak job.
    #[default]
    EveryEpoch,
    /// Every `n`-th epoch plus the final one — for long exploratory runs
    /// where a from-scratch analysis per epoch would dominate the wall time.
    /// A stride of 0 or 1 behaves like [`OracleCadence::EveryEpoch`].
    Stride(usize),
    /// Never — pure throughput mode for benchmarks.
    Never,
}

impl OracleCadence {
    /// Returns `true` if the oracle runs at `epoch` of a run of `total`
    /// epochs.
    pub fn checks(&self, epoch: usize, total: usize) -> bool {
        match *self {
            OracleCadence::EveryEpoch => true,
            OracleCadence::Stride(n) => n <= 1 || epoch.is_multiple_of(n) || epoch + 1 == total,
            OracleCadence::Never => false,
        }
    }
}

/// The plain-data configuration of a [`ScoutEngine`].
///
/// This is the one struct drivers embed (campaigns, timelines, bench bins all
/// carry an `EngineConfig`).
///
/// # Valid ranges
///
/// [`ScoutEngine::from_config`] rejects a degenerate configuration with a
/// typed [`EngineBuildError`] instead of silently producing a crippled
/// engine: `parallelism` must not be [`Parallelism::Fixed`]`(0)` — ask for
/// [`Parallelism::Sequential`] explicitly instead of a zero-thread pool.
///
/// Use [`EngineConfig::validate`] to check a configuration up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker-thread policy of the equivalence checkers. Must not be
    /// `Fixed(0)`.
    pub parallelism: Parallelism,
    /// Configuration forwarded to the SCOUT localization algorithm.
    pub scout: ScoutConfig,
    /// Configures nothing: the checkers have no node table to bound. Kept
    /// only because the stand-alone `benchmark/` package still reads it; the
    /// next benchmark-only change deletes it.
    pub node_budget: usize,
    /// Configures nothing: the checkers have no node table. Kept only
    /// because the stand-alone `benchmark/` package still reads it; the next
    /// benchmark-only change deletes it.
    pub node_table: NodeTableKind,
    /// Differential-oracle cadence for drivers that cross-check incremental
    /// sessions against from-scratch analysis.
    pub oracle: OracleCadence,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            parallelism: Parallelism::Auto,
            scout: ScoutConfig::default(),
            node_budget: 0,
            node_table: NodeTableKind::default(),
            oracle: OracleCadence::EveryEpoch,
        }
    }
}

impl EngineConfig {
    /// Checks the configuration against the documented valid ranges.
    ///
    /// # Example
    ///
    /// ```
    /// use scout_core::{EngineBuildError, EngineConfig};
    /// use scout_equiv::Parallelism;
    ///
    /// assert!(EngineConfig::default().validate().is_ok());
    ///
    /// let degenerate = EngineConfig {
    ///     parallelism: Parallelism::Fixed(0),
    ///     ..EngineConfig::default()
    /// };
    /// assert_eq!(
    ///     degenerate.validate(),
    ///     Err(EngineBuildError::ZeroWorkerThreads)
    /// );
    /// ```
    pub fn validate(&self) -> Result<(), EngineBuildError> {
        if self.parallelism == Parallelism::Fixed(0) {
            return Err(EngineBuildError::ZeroWorkerThreads);
        }
        Ok(())
    }

    /// The equivalence checker under this configuration, built wherever a
    /// check runs (it holds nothing but the parallelism).
    pub(crate) fn checker(&self) -> EquivalenceChecker {
        EquivalenceChecker::with_parallelism(self.parallelism)
    }
}

/// Why [`ScoutEngine::from_config`] refused a configuration.
///
/// Each variant names the degenerate setting; see [`EngineConfig`] for the
/// valid ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineBuildError {
    /// `parallelism` was [`Parallelism::Fixed`]`(0)` — a zero-thread worker
    /// pool. Use [`Parallelism::Sequential`] for single-threaded checking.
    ZeroWorkerThreads,
}

impl std::fmt::Display for EngineBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineBuildError::ZeroWorkerThreads => f.write_str(
                "parallelism Fixed(0) is a zero-thread pool; use Parallelism::Sequential",
            ),
        }
    }
}

impl std::error::Error for EngineBuildError {}

/// The engine state shared by the facade handle and every session it opened.
#[derive(Debug)]
pub(crate) struct EngineShared {
    pub(crate) config: EngineConfig,
    pub(crate) correlation: CorrelationEngine,
    /// Number of live sessions: a session counts itself in when it is built
    /// and out when it drops. `Relaxed` suffices — the count publishes no
    /// other data, and readers that need an exact value (leak checks) read it
    /// after joining the threads that owned the sessions.
    pub(crate) open_sessions: AtomicUsize,
    /// Admission counters shared by every serving thread fronting this
    /// engine (see [`ServiceGauges`]).
    gauges: ServiceGauges,
}

impl EngineShared {
    /// The full equivalence check of a view and the work it took: it covers
    /// every switch with a TCAM table or with rules, and compiles each
    /// switch's rules inside the check's fan-out.
    pub(crate) fn check_view(&self, view: &FabricView) -> (NetworkCheckResult, CheckWork) {
        let universe = view.universe();
        // A view holds a table per switch, except a decoded one whose
        // fabric never deployed some: those count only if they have rules.
        let switches: Vec<SwitchId> = universe
            .switches()
            .map(|s| s.id)
            .filter(|&s| {
                view.tcam().contains_key(&s) || !compile_for_switch(universe, s).is_empty()
            })
            .collect();
        let (results, work) = self.config.checker().check_each(
            &switches,
            |s| compile_for_switch(universe, s),
            |s| view.tcam_rules(s),
        );
        let per_switch = results.into_iter().map(|r| (r.switch, r)).collect();
        (NetworkCheckResult { per_switch }, work)
    }

    /// The stages after the equivalence check of the reference pipeline
    /// ([`ScoutEngine::analyze`]) and of clone analyses: marks the failures
    /// of `check` on the pristine `model`, localizes and correlates, and
    /// rolls the marks back so `model` leaves pristine. A session's ingest
    /// keeps its marks instead, in a failure overlay whose localization is
    /// cached per failure component, and is checked against this path.
    pub(crate) fn report_on(
        &self,
        model: &mut RiskModel<SwitchEpgPair>,
        check: NetworkCheckResult,
        universe: &PolicyUniverse,
        change_log: &ChangeLog,
        fault_log: &FaultLog,
    ) -> ScoutReport {
        let marks = augment_controller_model_tracked(model, check.missing_rules());
        let observations = model.failure_signature();
        let suspect_objects = model.suspect_set(&observations);
        let hypothesis = scout_localize(model, change_log, self.config.scout);
        let diagnosis = self
            .correlation
            .correlate(&hypothesis, universe, change_log, fault_log);
        model.undo_failures(marks);
        ScoutReport {
            check,
            observations,
            suspect_objects,
            hypothesis,
            diagnosis,
        }
    }
}

// The whole point of the shared engine: one `Arc<ScoutEngine>` (or cheap
// clones of the handle) can be driven from many threads at once. Compile-time
// proof, so a non-Sync field can never sneak in unnoticed.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScoutEngine>();
    assert_send_sync::<EngineShared>();
    assert_send_sync::<crate::session::AnalysisSession>();
    // Sessions are long-lived: their stats must stay fixed-size counters, so
    // a per-ingest growing field (a `Vec`, a series) cannot return unnoticed.
    const fn assert_copy<T: Copy>() {}
    assert_copy::<crate::session::SessionStats>();
};

/// The long-lived SCOUT service facade.
///
/// Cloning the handle is cheap and shares the same engine (configuration,
/// session count, gauges); the handle is `Send + Sync`
/// (checked at compile time), so an `Arc<ScoutEngine>` — or plain clones of
/// the handle — can be driven from many threads at once. Sessions share no
/// mutable analysis state, so multi-tenant drivers open, drop and restore
/// them concurrently without contention; per-session ingestion itself stays
/// serialized (a session is `&mut self`-driven) and bit-identical to the
/// sequential path.
///
/// # Example
///
/// ```
/// use scout_core::ScoutEngine;
/// use scout_fabric::Fabric;
/// use scout_policy::sample;
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
/// // Drop the port-700 rules from S2 behind the controller's back.
/// fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
///
/// let engine = ScoutEngine::new();
/// let report = engine.analyze(&fabric);
/// assert!(!report.is_consistent());
/// assert!(report.hypothesis.len() <= report.suspect_objects.len());
/// ```
#[derive(Debug, Clone)]
pub struct ScoutEngine {
    pub(crate) shared: Arc<EngineShared>,
}

impl Default for ScoutEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoutEngine {
    /// An engine with the default configuration and the standard fault
    /// signature library.
    pub fn new() -> Self {
        Self::from_config(EngineConfig::default())
            .expect("the default engine configuration is valid")
    }

    /// An engine with the given plain-data configuration and the standard
    /// signature library. Degenerate configurations are rejected with a
    /// typed [`EngineBuildError`] (see the valid ranges on
    /// [`EngineConfig`]).
    ///
    /// # Example
    ///
    /// ```
    /// use scout_core::{EngineBuildError, EngineConfig, OracleCadence, ScoutEngine};
    /// use scout_equiv::Parallelism;
    ///
    /// let engine = ScoutEngine::from_config(EngineConfig {
    ///     parallelism: Parallelism::Sequential,
    ///     oracle: OracleCadence::Stride(10),
    ///     ..EngineConfig::default()
    /// })
    /// .expect("a sequential engine is a valid configuration");
    /// assert_eq!(engine.config().oracle, OracleCadence::Stride(10));
    ///
    /// // Degenerate settings are rejected, not silently accepted:
    /// let zero_threads = EngineConfig {
    ///     parallelism: Parallelism::Fixed(0),
    ///     ..EngineConfig::default()
    /// };
    /// let err = ScoutEngine::from_config(zero_threads).unwrap_err();
    /// assert_eq!(err, EngineBuildError::ZeroWorkerThreads);
    /// ```
    pub fn from_config(config: EngineConfig) -> Result<Self, EngineBuildError> {
        config.validate()?;
        Ok(Self {
            shared: Arc::new(EngineShared {
                config,
                correlation: CorrelationEngine::new(),
                open_sessions: AtomicUsize::new(0),
                gauges: ServiceGauges::new(),
            }),
        })
    }

    /// The engine's plain-data configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// The engine's correlation library.
    pub fn correlation(&self) -> &CorrelationEngine {
        &self.shared.correlation
    }

    /// Opens an [`AnalysisSession`] on a snapshot of `fabric`: the session
    /// runs the full pipeline once and is thereafter driven by
    /// [`AnalysisSession::ingest`] (event deltas) and/or
    /// [`AnalysisSession::analyze_clone`] (mutated clones of the snapshot).
    pub fn open_session(&self, fabric: &Fabric) -> AnalysisSession {
        AnalysisSession::open(Arc::clone(&self.shared), fabric)
    }

    /// Restores an [`AnalysisSession`] from a checkpoint: rebuilds the
    /// session around the snapshot's fabric-view mirror and report and
    /// replays the snapshot's tail of post-checkpoint
    /// [`EventBatch`](scout_fabric::EventBatch)es through the ordinary ingest
    /// path.
    ///
    /// The restored session is bit-identical to one that never stopped —
    /// same `full_report()`, same future [`ReportDelta`](crate::ReportDelta)s
    /// for the same batches. A tail batch that fails to ingest (e.g. a
    /// sequencing gap introduced by a buggy producer) aborts the restore with
    /// the session error; no session is left open.
    pub fn restore(
        &self,
        snapshot: &crate::snapshot::Snapshot,
    ) -> Result<AnalysisSession, crate::session::SessionError> {
        let mut session = AnalysisSession::resume(Arc::clone(&self.shared), snapshot);
        for batch in snapshot.tail() {
            session.ingest(batch.clone())?;
        }
        Ok(session)
    }

    /// Number of currently-open sessions.
    pub fn session_count(&self) -> usize {
        self.shared.open_sessions.load(Ordering::Relaxed)
    }

    /// The admission counters shared by every handle cloned from this
    /// engine. The engine never updates them itself — a serving layer above
    /// it records admitted / queued / shed decisions here so operators get
    /// one coherent picture per engine regardless of how many server threads
    /// front it.
    pub fn gauges(&self) -> &ServiceGauges {
        &self.shared.gauges
    }

    /// One-shot, from-scratch analysis of a fabric — the reference pipeline
    /// every incremental session result is differentially checked against.
    pub fn analyze(&self, fabric: &Fabric) -> ScoutReport {
        let check = (self.shared.config.checker())
            .check_network(fabric.logical_rules(), &fabric.collect_tcam());
        let mut model = controller_risk_model(fabric.universe());
        self.shared.report_on(
            &mut model,
            check,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        )
    }

    /// Runs the equivalence check and localization against the *switch risk
    /// model* of a single switch, as an admin debugging one device would.
    pub fn analyze_switch(
        &self,
        universe: &PolicyUniverse,
        switch: SwitchId,
        logical_rules: &[LogicalRule],
        tcam: &[TcamRule],
        change_log: &ChangeLog,
    ) -> (
        SwitchCheckResult,
        RiskModel<scout_policy::EpgPair>,
        Hypothesis,
    ) {
        let check = self
            .shared
            .config
            .checker()
            .check_switch(switch, logical_rules, tcam);
        let mut model = switch_risk_model(universe, switch);
        augment_switch_model(&mut model, switch, check.missing_rules.iter().copied());
        let hypothesis = scout_localize(&model, change_log, self.shared.config.scout);
        (check, model, hypothesis)
    }
}

/// The complete output of one end-to-end analysis.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ScoutReport {
    /// The per-switch equivalence check results.
    pub check: NetworkCheckResult,
    /// The observations: `(switch, EPG pair)` triplets with missing rules.
    pub observations: BTreeSet<SwitchEpgPair>,
    /// Every object the failed elements depend on — what an admin would have
    /// to examine without fault localization.
    pub suspect_objects: BTreeSet<ObjectId>,
    /// The localization output: the suspected faulty objects.
    pub hypothesis: Hypothesis,
    /// Physical-level root causes per hypothesis object.
    pub diagnosis: CorrelationReport,
}

impl ScoutReport {
    /// `true` if the deployed state matches the policy everywhere.
    pub fn is_consistent(&self) -> bool {
        self.check.is_consistent()
    }

    /// Total number of missing rules across the network.
    pub fn missing_rule_count(&self) -> usize {
        self.check.missing_count()
    }

    /// The suspect-set reduction ratio γ = |hypothesis| / |suspect objects|
    /// (§VI of the paper). Returns 0 when there is nothing to suspect.
    pub fn gamma(&self) -> f64 {
        if self.suspect_objects.is_empty() {
            0.0
        } else {
            self.hypothesis.len() as f64 / self.suspect_objects.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_fabric::FaultKind;
    use scout_policy::{sample, EpgPair};

    #[test]
    fn consistent_network_produces_empty_report() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let engine = ScoutEngine::new();
        let report = engine.analyze(&fabric);
        assert!(report.is_consistent());
        assert_eq!(report.missing_rule_count(), 0);
        assert!(report.observations.is_empty());
        assert!(report.hypothesis.is_empty());
        assert_eq!(report.gamma(), 0.0);
        assert!(report.diagnosis.diagnoses().is_empty());
    }

    #[test]
    fn filter_fault_is_localized_and_gamma_is_small() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        // Drop every rule derived from the port-700 filter, on every switch.
        for switch in [sample::S2, sample::S3] {
            fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start == 700);
        }
        let engine = ScoutEngine::new();
        let report = engine.analyze(&fabric);
        assert!(!report.is_consistent());
        assert_eq!(report.missing_rule_count(), 4);
        // The App-DB pair on S2 and S3 is observed as failed.
        assert_eq!(report.observations.len(), 2);
        assert!(report.hypothesis.contains(ObjectId::Filter(sample::F_700)));
        // Hypothesis is much smaller than the suspect set.
        assert!(report.hypothesis.len() < report.suspect_objects.len());
        assert!(report.gamma() > 0.0 && report.gamma() < 1.0);
    }

    #[test]
    fn unresponsive_switch_story_matches_paper_use_case() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.disconnect_switch(sample::S2);
        fabric.deploy();
        let engine = ScoutEngine::new();
        let report = engine.analyze(&fabric);
        assert!(!report.is_consistent());
        // The switch itself is the most economical explanation.
        assert!(report.hypothesis.contains(ObjectId::Switch(sample::S2)));
        // And the correlation engine ties it to the unreachable-switch fault.
        let by_kind = report.diagnosis.causes_by_kind();
        assert!(by_kind.contains_key(&FaultKind::SwitchUnreachable));
    }

    #[test]
    fn analyze_switch_uses_the_switch_risk_model() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric.remove_tcam_rules_where(sample::S2, |r| {
            r.pair() == EpgPair::new(sample::WEB, sample::APP)
        });
        let engine = ScoutEngine::new();
        let (check, model, hypothesis) = engine.analyze_switch(
            fabric.universe(),
            sample::S2,
            fabric.logical_rules(),
            &fabric.tcam_rules(sample::S2),
            fabric.change_log(),
        );
        assert!(!check.equivalent);
        assert_eq!(model.element_count(), 2);
        // Per Figure 4(a): EPG:Web and Contract:Web-App explain the failure.
        assert!(hypothesis.contains(ObjectId::Epg(sample::WEB)));
        assert!(hypothesis.contains(ObjectId::Contract(sample::C_WEB_APP)));
        assert!(!hypothesis.contains(ObjectId::Vrf(sample::VRF)));
        assert!(!hypothesis.contains(ObjectId::Epg(sample::APP)));
    }

    #[test]
    fn report_accessors_are_consistent() {
        let mut fabric = Fabric::new(sample::three_tier_with_capacity(3));
        fabric.deploy();
        let engine = ScoutEngine::from_config(EngineConfig::default()).unwrap();
        let report = engine.analyze(&fabric);
        assert_eq!(report.missing_rule_count(), report.check.missing_count());
        assert_eq!(report.diagnosis.diagnoses().len(), report.hypothesis.len());
        assert!(report.gamma() <= 1.0);
    }

    #[test]
    fn registry_tracks_open_sessions() {
        let mut a = Fabric::new(sample::three_tier());
        a.deploy();
        let mut b = Fabric::new(sample::three_tier());
        b.deploy();

        let engine = ScoutEngine::new();
        assert_eq!(engine.session_count(), 0);
        let sa = engine.open_session(&a);
        let sb = engine.open_session(&b);
        assert_eq!(engine.session_count(), 2);
        // A cloned handle sees the same count; dropping a session lowers it.
        let handle = engine.clone();
        drop(sa);
        assert_eq!(handle.session_count(), 1);
        drop(sb);
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn from_config_settings_reach_the_engine() {
        let engine = ScoutEngine::from_config(EngineConfig {
            parallelism: Parallelism::Fixed(2),
            oracle: OracleCadence::Never,
            scout: ScoutConfig { recent_window: 0 },
            ..EngineConfig::default()
        })
        .unwrap();
        let config = engine.config();
        assert_eq!(config.parallelism, Parallelism::Fixed(2));
        assert_eq!(config.oracle, OracleCadence::Never);
        assert_eq!(config.scout.recent_window, 0);
        // Round-trip through the plain-data config.
        let copied = ScoutEngine::from_config(*config).unwrap();
        assert_eq!(copied.config(), config);
    }

    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        let with = |parallelism| {
            ScoutEngine::from_config(EngineConfig {
                parallelism,
                ..EngineConfig::default()
            })
        };
        assert_eq!(
            with(Parallelism::Fixed(0)).unwrap_err(),
            EngineBuildError::ZeroWorkerThreads
        );
        // The error renders an actionable message.
        assert!(EngineBuildError::ZeroWorkerThreads
            .to_string()
            .contains("Sequential"));
        // Fixed(1) and Sequential remain valid single-threaded settings.
        assert!(with(Parallelism::Fixed(1)).is_ok());
        assert!(with(Parallelism::Sequential).is_ok());
    }

    #[test]
    fn oracle_cadence_schedules() {
        assert!(OracleCadence::EveryEpoch.checks(3, 10));
        assert!(OracleCadence::Stride(0).checks(3, 10));
        assert!(OracleCadence::Stride(1).checks(3, 10));
        assert!(OracleCadence::Stride(4).checks(8, 10));
        assert!(!OracleCadence::Stride(4).checks(3, 10));
        assert!(OracleCadence::Stride(4).checks(9, 10), "final epoch");
        assert!(!OracleCadence::Never.checks(0, 10));
    }
}
