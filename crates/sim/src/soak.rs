//! The long-horizon soak engine: multi-epoch fault timelines with online
//! repair and a differential oracle.
//!
//! The paper pitches SCOUT as a *continuous* monitor that "continuously
//! compares the logical rules against the deployed TCAM rules", yet a
//! [`Campaign`](crate::Campaign) exercises the pipeline one disturbance at a
//! time: clone, disturb, analyze, discard. A [`Timeline`] instead keeps **one
//! fabric alive for hundreds of epochs** and, at every tick, possibly injects
//! a new fault (overlapping with still-active ones), repairs a previously
//! injected fault through the repair APIs of `scout-faults`/`scout-fabric`,
//! and lands a concurrent policy edit — then a [`FabricProbe`] diffs the
//! fabric into typed events and the monitor ingests them through a
//! long-lived [`AnalysisSession`](scout_core::AnalysisSession).
//!
//! Correctness of the delta-driven machinery over the whole lifecycle is
//! enforced by a **differential oracle**: at every epoch (or a stride of
//! epochs for long runs) a from-scratch
//! [`ScoutEngine::analyze`](scout_core::ScoutEngine::analyze) is run on the
//! same fabric state and the two [`ScoutReport`](scout_core::ScoutReport)s
//! must be bit-identical. Ground truth evolves with the timeline — each fault
//! owns the exact logical rules it knocked out, rules are re-claimed or
//! released as repairs and policy edits land, and a fault is *healed* once
//! its footprint is gone — which yields lifecycle metrics no single-shot
//! campaign can produce: detection latency in epochs, repair clearances, and
//! per-epoch missing-rule/cost time series.

use std::collections::BTreeSet;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scout_core::{EngineConfig, ScoutEngine, SessionStats};
use scout_fabric::{Fabric, FabricProbe};
use scout_faults::{FaultInjector, ObjectFaultKind};
use scout_metrics::{fmt3, fmt_mean, Cdf, Table, TimeSeries};
use scout_policy::{LogicalRule, ObjectId, SwitchId, TcamRule};
use scout_workload::random_policy_edit;

use crate::scenario::WorkloadKind;

/// The disturbance classes a soak timeline can inject.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SoakFaultKind {
    /// A full object fault (every rule of one policy object lost).
    ObjectFull,
    /// A partial object fault (a strict subset of an object's rules lost).
    ObjectPartial,
    /// Silent TCAM bit corruption on one switch.
    Corruption,
    /// Silent eviction of the oldest TCAM entries on one switch.
    Eviction,
    /// A control-channel flap: the switch misses everything pushed while it
    /// is down (including concurrent policy edits).
    ChannelFlap,
    /// An agent crash: the switch ignores everything pushed until restarted.
    AgentCrash,
}

impl SoakFaultKind {
    /// All kinds, in report order.
    pub const ALL: [SoakFaultKind; 6] = [
        SoakFaultKind::ObjectFull,
        SoakFaultKind::ObjectPartial,
        SoakFaultKind::Corruption,
        SoakFaultKind::Eviction,
        SoakFaultKind::ChannelFlap,
        SoakFaultKind::AgentCrash,
    ];
}

impl std::fmt::Display for SoakFaultKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let name = match self {
            SoakFaultKind::ObjectFull => "object-full",
            SoakFaultKind::ObjectPartial => "object-partial",
            SoakFaultKind::Corruption => "corruption",
            SoakFaultKind::Eviction => "eviction",
            SoakFaultKind::ChannelFlap => "channel-flap",
            SoakFaultKind::AgentCrash => "agent-crash",
        };
        f.write_str(name)
    }
}

/// The lifecycle record of one injected fault.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultRecord {
    /// Injection order (index into [`SoakOutcome::faults`]).
    pub id: usize,
    /// The disturbance class.
    pub kind: SoakFaultKind,
    /// The ground-truth objects of the fault: the faulted object, the faulted
    /// switch, and/or the provenance objects of the rules it knocked out.
    /// Grows if a channel-flap or crashed switch misses later policy pushes.
    pub objects: BTreeSet<ObjectId>,
    /// The epoch the fault was injected.
    pub injected_epoch: usize,
    /// Rules the fault knocked out at injection time.
    pub initial_footprint: usize,
    /// First epoch at which the monitor's hypothesis intersected the fault's
    /// objects while the fault was visible, if any.
    pub detected_epoch: Option<usize>,
    /// The epoch a repair action was first applied to the fault, if any.
    pub repaired_epoch: Option<usize>,
    /// The epoch the fault's footprint vanished (own repair, a switch-level
    /// repair of another fault, or a policy edit retiring its rules).
    pub healed_epoch: Option<usize>,
    /// Number of repair actions applied to the fault (a repair through a dead
    /// control plane can fail and be retried at a later epoch).
    pub repair_attempts: usize,
}

impl FaultRecord {
    /// Detection latency in epochs, if the fault was detected.
    pub fn detection_latency(&self) -> Option<usize> {
        self.detected_epoch.map(|d| d - self.injected_epoch)
    }
}

/// How an active fault is repaired.
#[derive(Debug, Clone)]
enum RepairAction {
    /// Re-push exactly the logical rules the fault removed.
    Reinstall(Vec<LogicalRule>),
    /// Fully restore the switch (reconnect, restart, de-garbage, re-sync).
    RestoreSwitch(SwitchId),
}

/// A currently-active fault: its public record plus the engine's bookkeeping.
#[derive(Debug, Clone)]
struct ActiveFault {
    id: usize,
    repair: RepairAction,
    /// The logical rules this fault is currently responsible for keeping out
    /// of the TCAM. Reconciled against the fabric every epoch: rules restored
    /// by any repair, or retired by a policy edit, are released.
    outstanding: BTreeSet<LogicalRule>,
    /// Rules that were already missing on this fault's switch when the fault
    /// was injected (control-plane faults only). They predate the fault, so
    /// the orphan-claiming step must never attribute them to it — the ground
    /// truth stays rule-exact.
    excluded: BTreeSet<LogicalRule>,
}

/// What happened at one epoch of the timeline, plus what the monitor saw.
#[derive(Debug, Clone, PartialEq)]
pub struct EpochRecord {
    /// The epoch index.
    pub epoch: usize,
    /// Ids of faults injected this epoch.
    pub injected: Vec<usize>,
    /// Ids of faults a repair action was applied to this epoch.
    pub repaired: Vec<usize>,
    /// Ids of faults whose footprint vanished this epoch.
    pub healed: Vec<usize>,
    /// `true` if a concurrent policy edit landed this epoch.
    pub policy_edit: bool,
    /// Active faults after this epoch's actions.
    pub active_faults: usize,
    /// Ground truth: objects of every fault still visible this epoch.
    pub truth: BTreeSet<ObjectId>,
    /// Missing rules with no active fault to own them (e.g. installs dropped
    /// by a TCAM overflow); they are excluded from `truth`.
    pub unattributed_missing: usize,
    /// Missing rules reported by the monitor.
    pub missing_rules: usize,
    /// Failed observations reported by the monitor.
    pub observations: usize,
    /// Size of the pre-localization suspect set.
    pub suspects: usize,
    /// The monitor's hypothesis.
    pub hypothesis: BTreeSet<ObjectId>,
    /// `true` if the monitor saw a consistent network.
    pub consistent: bool,
    /// `true` if the hypothesis intersected a non-empty truth, or both were
    /// empty.
    pub attributed: bool,
    /// `true` if the differential oracle ran this epoch.
    pub oracle_checked: bool,
    /// Whether the from-scratch report was bit-identical to the incremental
    /// one (`None` when the oracle did not run).
    pub oracle_agrees: Option<bool>,
    /// Repair-driven heals made visible: faults healed this epoch that had a
    /// repair applied, were localized in the previous epoch's hypothesis and
    /// are gone from this epoch's. Faults retired by a policy edit alone are
    /// excluded — this counter measures the repair machinery, nothing else.
    pub repair_clearances: usize,
}

/// The deterministic product of a soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakOutcome {
    /// One record per epoch, in epoch order.
    pub epochs: Vec<EpochRecord>,
    /// One record per injected fault, in injection order.
    pub faults: Vec<FaultRecord>,
}

impl SoakOutcome {
    /// Epochs where the differential oracle disagreed with the monitor.
    pub fn oracle_disagreements(&self) -> Vec<usize> {
        self.epochs
            .iter()
            .filter(|e| e.oracle_agrees == Some(false))
            .map(|e| e.epoch)
            .collect()
    }

    /// Aggregates the run into the deterministic lifecycle report.
    pub fn report(&self) -> SoakReport {
        let detected: Vec<&FaultRecord> = self
            .faults
            .iter()
            .filter(|f| f.detected_epoch.is_some())
            .collect();
        SoakReport {
            epochs: self.epochs.len(),
            injections: self.faults.len(),
            detected_faults: detected.len(),
            healed_faults: self
                .faults
                .iter()
                .filter(|f| f.healed_epoch.is_some())
                .count(),
            repair_attempts: self.faults.iter().map(|f| f.repair_attempts).sum(),
            repair_clearances: self.epochs.iter().map(|e| e.repair_clearances).sum(),
            policy_edits: self.epochs.iter().filter(|e| e.policy_edit).count(),
            overlap_epochs: self.epochs.iter().filter(|e| e.active_faults >= 2).count(),
            faulty_epochs: self.epochs.iter().filter(|e| !e.truth.is_empty()).count(),
            attributed_epochs: self
                .epochs
                .iter()
                .filter(|e| !e.truth.is_empty() && e.attributed)
                .count(),
            consistent_epochs: self.epochs.iter().filter(|e| e.consistent).count(),
            oracle_epochs: self.epochs.iter().filter(|e| e.oracle_checked).count(),
            oracle_disagreements: self.oracle_disagreements().len(),
            detection_latency: Cdf::of(
                detected
                    .iter()
                    .filter_map(|f| f.detection_latency())
                    .map(|l| l as f64),
            ),
            missing_rules: TimeSeries::of(
                "missing rules",
                self.epochs.iter().map(|e| e.missing_rules as f64),
            ),
            active_faults: TimeSeries::of(
                "active faults",
                self.epochs.iter().map(|e| e.active_faults as f64),
            ),
            hypothesis_size: TimeSeries::of(
                "hypothesis size",
                self.epochs.iter().map(|e| e.hypothesis.len() as f64),
            ),
        }
    }
}

/// The aggregate lifecycle metrics of one soak run.
#[derive(Debug, Clone, PartialEq)]
pub struct SoakReport {
    /// Number of epochs run.
    pub epochs: usize,
    /// Faults injected over the whole timeline.
    pub injections: usize,
    /// Faults whose objects were localized while active.
    pub detected_faults: usize,
    /// Faults whose footprint vanished before the run ended.
    pub healed_faults: usize,
    /// Repair actions applied (including failed attempts).
    pub repair_attempts: usize,
    /// Healed faults observed to leave the hypothesis (see
    /// [`EpochRecord::repair_clearances`]).
    pub repair_clearances: usize,
    /// Concurrent policy edits that landed.
    pub policy_edits: usize,
    /// Epochs with two or more simultaneously active faults.
    pub overlap_epochs: usize,
    /// Epochs with a non-empty ground truth.
    pub faulty_epochs: usize,
    /// Faulty epochs whose hypothesis intersected the truth.
    pub attributed_epochs: usize,
    /// Epochs the monitor reported a consistent network.
    pub consistent_epochs: usize,
    /// Epochs the differential oracle ran.
    pub oracle_epochs: usize,
    /// Oracle runs that disagreed with the incremental monitor (must be 0).
    pub oracle_disagreements: usize,
    /// Distribution of detection latency over detected faults, in epochs.
    pub detection_latency: Cdf,
    /// Missing rules seen by the monitor, per epoch.
    pub missing_rules: TimeSeries,
    /// Active faults after each epoch's actions.
    pub active_faults: TimeSeries,
    /// Hypothesis size per epoch.
    pub hypothesis_size: TimeSeries,
}

impl SoakReport {
    /// Renders the headline lifecycle counters as an aligned table.
    pub fn table(&self) -> Table {
        let mut table = Table::new("Soak — fault lifecycle", &["metric", "value"]);
        table.row(["epochs".to_string(), self.epochs.to_string()]);
        table.row(["faults injected".to_string(), self.injections.to_string()]);
        table.row([
            "faults detected".to_string(),
            self.detected_faults.to_string(),
        ]);
        table.row(["faults healed".to_string(), self.healed_faults.to_string()]);
        table.row([
            "repair attempts".to_string(),
            self.repair_attempts.to_string(),
        ]);
        table.row([
            "repair clearances".to_string(),
            self.repair_clearances.to_string(),
        ]);
        table.row(["policy edits".to_string(), self.policy_edits.to_string()]);
        table.row([
            "overlapping-fault epochs".to_string(),
            self.overlap_epochs.to_string(),
        ]);
        table.row([
            "faulty epochs attributed".to_string(),
            format!("{}/{}", self.attributed_epochs, self.faulty_epochs),
        ]);
        let latency = if self.detection_latency.is_empty() {
            "-".to_string()
        } else {
            format!(
                "p50 {} / p95 {} epochs",
                fmt3(self.detection_latency.quantile(0.5)),
                fmt3(self.detection_latency.quantile(0.95)),
            )
        };
        table.row(["detection latency".to_string(), latency]);
        table.row([
            "oracle".to_string(),
            format!(
                "{} checks, {} disagreements",
                self.oracle_epochs, self.oracle_disagreements
            ),
        ]);
        table
    }

    /// Renders the per-epoch series as sparklines, at most `width` chars wide.
    pub fn timeline_table(&self, width: usize) -> Table {
        let mut table = Table::new("Soak — timeline", &["series", "mean", "max", "per-epoch"]);
        for series in [
            &self.missing_rules,
            &self.active_faults,
            &self.hypothesis_size,
        ] {
            let summary = series.summary();
            let max = if summary.is_empty() {
                "-".to_string()
            } else {
                fmt3(summary.max)
            };
            table.row([
                series.name().to_string(),
                fmt_mean(&summary),
                max,
                series.sparkline(width),
            ]);
        }
        table
    }
}

/// The raw result of a soak run: the deterministic outcome plus wall-clock
/// cost measurements (which vary run to run and are kept separate so outcome
/// equality remains meaningful).
#[derive(Debug, Clone)]
pub struct SoakRun {
    /// The deterministic per-epoch and per-fault records.
    pub outcome: SoakOutcome,
    /// Total wall-clock time of the run.
    pub elapsed: Duration,
    /// Nanoseconds spent monitoring each epoch incrementally (probing the
    /// fabric into events plus the session ingest).
    pub incremental_cost: TimeSeries,
    /// Nanoseconds spent in the from-scratch oracle analysis, one sample per
    /// oracle epoch (empty under
    /// [`OracleCadence::Never`](scout_core::OracleCadence::Never)).
    pub scratch_cost: TimeSeries,
    /// The monitor session's own counters.
    pub session_stats: SessionStats,
}

/// A seeded multi-epoch soak timeline.
///
/// # Example
///
/// ```
/// use scout_sim::{Timeline, WorkloadKind};
/// use scout_workload::TestbedSpec;
///
/// let timeline = Timeline::new(WorkloadKind::Testbed(TestbedSpec::paper()), 20, 7);
/// let run = timeline.run();
/// assert_eq!(run.outcome.epochs.len(), 20);
/// // The differential oracle agreed at every epoch…
/// assert!(run.outcome.oracle_disagreements().is_empty());
/// // …and the same seed reproduces the same timeline.
/// assert_eq!(timeline.run().outcome, run.outcome);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Timeline {
    /// The policy generator for the monitored fabric.
    pub workload: WorkloadKind,
    /// Number of epochs to run.
    pub epochs: usize,
    /// The timeline seed; every injection, repair and edit decision derives
    /// from it.
    pub seed: u64,
    /// Probability of injecting a new fault at an epoch (subject to
    /// [`Timeline::max_active`]).
    pub inject_rate: f64,
    /// Probability of applying a repair to one active fault at an epoch.
    pub repair_rate: f64,
    /// Probability of a concurrent policy edit at an epoch.
    pub edit_rate: f64,
    /// Upper bound on simultaneously active faults.
    pub max_active: usize,
    /// The analysis-engine configuration shared by the monitor session and
    /// the differential oracle — including the oracle cadence.
    pub engine: EngineConfig,
}

impl Timeline {
    /// A timeline with the default rates: faults arrive slightly faster than
    /// they are repaired (so overlap happens), a fifth of the epochs carry a
    /// concurrent policy edit, and the oracle checks every epoch.
    pub fn new(workload: WorkloadKind, epochs: usize, seed: u64) -> Self {
        Self {
            workload,
            epochs,
            seed,
            inject_rate: 0.5,
            repair_rate: 0.35,
            edit_rate: 0.2,
            max_active: 4,
            engine: EngineConfig::default(),
        }
    }

    /// Runs the timeline against a private engine built from
    /// [`Timeline::engine`].
    pub fn run(&self) -> SoakRun {
        let engine = ScoutEngine::from_config(self.engine)
            .expect("timeline engine config is degenerate (see EngineConfig::validate)");
        self.run_with_engine(&engine)
    }

    /// Runs the timeline against a caller-provided — possibly shared —
    /// engine.
    ///
    /// This is the multi-tenant path: a `ScoutEngine` is `Send + Sync`, so
    /// many timelines can run concurrently against one engine, each opening
    /// its own monitor session (`tests/multi_tenant.rs` does exactly that).
    /// The engine's configuration governs the analysis and the oracle
    /// cadence; [`Timeline::engine`] is consulted only by [`Timeline::run`].
    /// For a given seed the outcome is bit-identical whether the engine is
    /// private or shared, and regardless of what other tenants it serves.
    pub fn run_with_engine(&self, engine: &ScoutEngine) -> SoakRun {
        let start = Instant::now();
        let oracle = engine.config().oracle;
        let mut fabric = Fabric::new(self.workload.generate(self.seed));
        fabric.deploy();

        // The monitor is a long-lived session fed typed event deltas by a
        // probe; the oracle is the engine's stateless one-shot path (which
        // never touches the session's caches).
        let mut monitor = engine.open_session(&fabric);
        let mut probe = FabricProbe::new(&fabric);

        let mut rng = StdRng::seed_from_u64(soak_seed(self.seed));
        let mut injector = FaultInjector::new(StdRng::seed_from_u64(soak_seed(self.seed ^ 0x5357)));

        let mut active: Vec<ActiveFault> = Vec::new();
        let mut faults: Vec<FaultRecord> = Vec::new();
        let mut epochs: Vec<EpochRecord> = Vec::with_capacity(self.epochs);
        let mut prev_hypothesis: BTreeSet<ObjectId> = BTreeSet::new();
        let mut incremental_cost = TimeSeries::new("incremental epoch analysis (ns)");
        let mut scratch_cost = TimeSeries::new("from-scratch oracle analysis (ns)");

        for epoch in 0..self.epochs {
            let mut record = EpochRecord {
                epoch,
                injected: Vec::new(),
                repaired: Vec::new(),
                healed: Vec::new(),
                policy_edit: false,
                active_faults: 0,
                truth: BTreeSet::new(),
                unattributed_missing: 0,
                missing_rules: 0,
                observations: 0,
                suspects: 0,
                hypothesis: BTreeSet::new(),
                consistent: true,
                attributed: true,
                oracle_checked: false,
                oracle_agrees: None,
                repair_clearances: 0,
            };

            // 1. Maybe repair one active fault (chosen uniformly).
            if !active.is_empty() && rng.gen_bool(self.repair_rate) {
                let slot = rng.gen_range(0..active.len());
                let fault = &active[slot];
                match &fault.repair {
                    RepairAction::Reinstall(rules) => {
                        let rules = rules.clone();
                        fabric.reinstall_rules(&rules);
                    }
                    RepairAction::RestoreSwitch(switch) => {
                        let switch = *switch;
                        fabric.repair_switch(switch);
                    }
                }
                let id = active[slot].id;
                faults[id].repaired_epoch.get_or_insert(epoch);
                faults[id].repair_attempts += 1;
                record.repaired.push(id);
            }

            // 2. Maybe land a concurrent policy edit.
            if rng.gen_bool(self.edit_rate) {
                let universe = fabric.universe().clone();
                if let Some(edit) = random_policy_edit(&universe, &mut rng) {
                    fabric.update_policy(edit.universe);
                    record.policy_edit = true;
                }
            }

            // 3. Maybe inject a new fault, possibly overlapping active ones.
            if active.len() < self.max_active && rng.gen_bool(self.inject_rate) {
                if let Some(id) = self.inject(
                    &mut fabric,
                    &mut rng,
                    &mut injector,
                    epoch,
                    &mut faults,
                    &mut active,
                ) {
                    record.injected.push(id);
                }
            }

            // 4. Reconcile ground truth with the fabric: release restored or
            //    retired rules, claim newly-lost ones, retire healed faults.
            record.unattributed_missing =
                reconcile(&fabric, &mut active, &mut faults, epoch, &mut record.healed);
            record.active_faults = active.len();
            for fault in &active {
                // A control-plane fault with no footprint yet (an idle flap or
                // crash) is real but silent: it only enters the ground truth
                // once rules actually go missing.
                if !fault.outstanding.is_empty() {
                    record
                        .truth
                        .extend(faults[fault.id].objects.iter().copied());
                }
            }

            // 5. The monitor catches up on the epoch: the probe diffs the
            //    fabric into typed events and the session ingests them,
            //    re-checking only what changed.
            let t0 = Instant::now();
            monitor
                .ingest_observation(&mut probe, &fabric)
                .expect("probe batches are sequential and reference live switches");
            incremental_cost.push(t0.elapsed().as_nanos() as f64);
            let report = monitor.full_report();

            // 6. Differential oracle: a from-scratch analysis of the same
            //    fabric state must be bit-identical. `ScoutEngine::analyze`
            //    is a pure read (`&self`, `&Fabric`) that never touches the
            //    session's caches, so no snapshot clone is needed.
            if oracle.checks(epoch, self.epochs) {
                let t0 = Instant::now();
                let reference = engine.analyze(&fabric);
                scratch_cost.push(t0.elapsed().as_nanos() as f64);
                record.oracle_checked = true;
                record.oracle_agrees = Some(reference == *report);
            }

            // 7. Lifecycle bookkeeping from the monitor's point of view.
            record.hypothesis = report.hypothesis.objects();
            record.consistent = report.is_consistent();
            record.missing_rules = report.missing_rule_count();
            record.observations = report.observations.len();
            record.suspects = report.suspect_objects.len();
            record.attributed = if record.truth.is_empty() {
                record.hypothesis.is_empty()
            } else {
                !record.hypothesis.is_disjoint(&record.truth)
            };
            for fault in &active {
                let rec = &mut faults[fault.id];
                if rec.detected_epoch.is_none()
                    && !fault.outstanding.is_empty()
                    && rec.objects.iter().any(|o| record.hypothesis.contains(o))
                {
                    rec.detected_epoch = Some(epoch);
                }
            }
            record.repair_clearances = record
                .healed
                .iter()
                .filter(|&&id| {
                    // Only repair-driven heals count: a fault retired by a
                    // policy edit alone (repaired_epoch == None) clearing the
                    // report says nothing about the repair machinery.
                    let objects = &faults[id].objects;
                    faults[id].repaired_epoch.is_some()
                        && objects.iter().any(|o| prev_hypothesis.contains(o))
                        && !objects.iter().any(|o| record.hypothesis.contains(o))
                })
                .count();

            prev_hypothesis = record.hypothesis.clone();
            epochs.push(record);
        }

        SoakRun {
            outcome: SoakOutcome { epochs, faults },
            elapsed: start.elapsed(),
            incremental_cost,
            scratch_cost,
            session_stats: *monitor.stats(),
        }
    }

    /// Samples and injects one fault; returns its id if it has any effect.
    fn inject(
        &self,
        fabric: &mut Fabric,
        rng: &mut StdRng,
        injector: &mut FaultInjector<StdRng>,
        epoch: usize,
        faults: &mut Vec<FaultRecord>,
        active: &mut Vec<ActiveFault>,
    ) -> Option<usize> {
        let kind = *SoakFaultKind::ALL.choose(rng).expect("non-empty kind list");
        let mut excluded = BTreeSet::new();
        let (objects, outstanding, repair) = match kind {
            SoakFaultKind::ObjectFull | SoakFaultKind::ObjectPartial => {
                let forced = if kind == SoakFaultKind::ObjectFull {
                    ObjectFaultKind::Full
                } else {
                    ObjectFaultKind::Partial
                };
                let candidates = FaultInjector::<StdRng>::candidate_objects(fabric);
                let &object = candidates.choose(rng)?;
                let fault = injector.inject_fault_on(fabric, object, forced)?;
                if fault.removed.is_empty() {
                    // Every rule of the object was already lost to an earlier,
                    // still-active fault: this injection changed nothing.
                    return None;
                }
                (
                    BTreeSet::from([object]),
                    fault.removed.iter().copied().collect(),
                    RepairAction::Reinstall(fault.removed),
                )
            }
            SoakFaultKind::Corruption | SoakFaultKind::Eviction => {
                let switches = fabric.universe().switch_ids();
                let &switch = switches.choose(rng)?;
                let fault = if kind == SoakFaultKind::Corruption {
                    scout_faults::random_tcam_corruption(fabric, switch, rng.gen_range(1..=3), rng)
                } else {
                    scout_faults::silent_rule_eviction(fabric, switch, rng.gen_range(1..=3))
                };
                if fault.affected_rules.is_empty() {
                    return None;
                }
                let affected: BTreeSet<TcamRule> = fault.affected_rules.iter().copied().collect();
                let outstanding: BTreeSet<LogicalRule> = fabric
                    .logical_rules()
                    .iter()
                    .filter(|r| r.switch == switch && affected.contains(&r.rule))
                    .copied()
                    .collect();
                let mut objects = fault.affected_objects(fabric);
                objects.insert(ObjectId::Switch(switch));
                (objects, outstanding, RepairAction::RestoreSwitch(switch))
            }
            SoakFaultKind::ChannelFlap | SoakFaultKind::AgentCrash => {
                let switches = fabric.universe().switch_ids();
                // One control-plane fault per switch at a time: a second flap
                // or crash on the same switch adds nothing to repair.
                let taken: BTreeSet<SwitchId> = active
                    .iter()
                    .filter_map(|f| match f.repair {
                        RepairAction::RestoreSwitch(s) => Some(s),
                        RepairAction::Reinstall(_) => None,
                    })
                    .collect();
                let free: Vec<SwitchId> = switches
                    .into_iter()
                    .filter(|s| !taken.contains(s))
                    .collect();
                let &switch = free.choose(rng)?;
                if kind == SoakFaultKind::ChannelFlap {
                    fabric.disconnect_switch(switch);
                } else {
                    fabric.crash_agent(switch);
                }
                // Rules already missing on the switch predate this fault and
                // must never be claimed by it during reconciliation.
                let present: BTreeSet<TcamRule> = fabric.tcam_rules(switch).into_iter().collect();
                excluded = fabric
                    .logical_rules()
                    .iter()
                    .filter(|r| r.switch == switch && !present.contains(&r.rule))
                    .copied()
                    .collect();
                // No rules are lost yet — the footprint accrues if pushes
                // (edits, repairs of other faults) miss the switch.
                (
                    BTreeSet::from([ObjectId::Switch(switch)]),
                    BTreeSet::new(),
                    RepairAction::RestoreSwitch(switch),
                )
            }
        };

        let id = faults.len();
        faults.push(FaultRecord {
            id,
            kind,
            objects,
            injected_epoch: epoch,
            initial_footprint: outstanding.len(),
            detected_epoch: None,
            repaired_epoch: None,
            healed_epoch: None,
            repair_attempts: 0,
        });
        active.push(ActiveFault {
            id,
            repair,
            outstanding,
            excluded,
        });
        Some(id)
    }
}

/// Derives the decision-stream seed from the timeline seed (kept independent
/// of the workload-generation stream, which consumes the raw seed).
fn soak_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0xA076_1D64_78BD_642F)
        .wrapping_add(0x9E6D)
}

/// Reconciles every active fault's outstanding set against the fabric:
///
/// 1. rules a fault owned that are back in the TCAM (any repair) or gone from
///    the compiled policy (a policy edit retired them) are released;
/// 2. missing rules owned by nobody are claimed by the control-plane fault of
///    their switch, in injection order (a flap/crash switch missed a push) —
///    the claiming fault's ground-truth objects grow accordingly; rules that
///    were already missing when the fault was injected are never claimed;
/// 3. faults with no remaining footprint *and* a healthy switch are healed.
///
/// Returns the number of missing rules no fault could own (e.g. installs
/// dropped by a TCAM overflow).
fn reconcile(
    fabric: &Fabric,
    active: &mut Vec<ActiveFault>,
    faults: &mut [FaultRecord],
    epoch: usize,
    healed: &mut Vec<usize>,
) -> usize {
    // The missing set: compiled logical rules whose TCAM rendering is absent.
    let tcam = fabric.collect_tcam();
    let tcam_sets: std::collections::BTreeMap<SwitchId, BTreeSet<TcamRule>> = tcam
        .into_iter()
        .map(|(s, rules)| (s, rules.into_iter().collect()))
        .collect();
    let mut missing: BTreeSet<LogicalRule> = fabric
        .logical_rules()
        .iter()
        .filter(|r| {
            tcam_sets
                .get(&r.switch)
                .is_none_or(|set| !set.contains(&r.rule))
        })
        .copied()
        .collect();

    // 1. Each fault keeps only the rules that are still missing; claimed
    //    rules leave the pool so overlapping faults stay disjoint.
    for fault in active.iter_mut() {
        fault.outstanding.retain(|r| missing.remove(r));
    }

    // 2. Orphaned missing rules go to the control-plane fault of their
    //    switch, if one is active — but never rules that were already missing
    //    when that fault was injected (`excluded`): those predate it and
    //    attributing them would break the rule-exact ground truth.
    if !missing.is_empty() {
        for fault in active.iter_mut() {
            let RepairAction::RestoreSwitch(switch) = fault.repair else {
                continue;
            };
            let is_control_plane = matches!(
                faults[fault.id].kind,
                SoakFaultKind::ChannelFlap | SoakFaultKind::AgentCrash
            );
            if !is_control_plane {
                continue;
            }
            let claimed: Vec<LogicalRule> = missing
                .iter()
                .filter(|r| r.switch == switch && !fault.excluded.contains(r))
                .copied()
                .collect();
            for rule in claimed {
                missing.remove(&rule);
                fault.outstanding.insert(rule);
                faults[fault.id]
                    .objects
                    .extend(rule.provenance.objects_with_switch(rule.switch));
            }
        }
    }

    // 3. Retire healed faults: no footprint left, and for switch-scoped
    //    repairs the switch's control plane must be healthy again (an idle
    //    flap is still a fault waiting to bite).
    let mut still_active = Vec::with_capacity(active.len());
    for fault in active.drain(..) {
        let control_plane_down = match fault.repair {
            RepairAction::RestoreSwitch(switch) => {
                let channel_down = fabric.channel(switch).is_some_and(|c| !c.is_connected());
                let agent_down = fabric.agent(switch).is_some_and(|a| a.is_crashed());
                channel_down || agent_down
            }
            RepairAction::Reinstall(_) => false,
        };
        if fault.outstanding.is_empty() && !control_plane_down {
            faults[fault.id].healed_epoch = Some(epoch);
            healed.push(fault.id);
        } else {
            still_active.push(fault);
        }
    }
    *active = still_active;

    missing.len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_core::OracleCadence;
    use scout_workload::TestbedSpec;

    fn small_timeline(epochs: usize, seed: u64) -> Timeline {
        let spec = TestbedSpec {
            epgs: 12,
            contracts: 8,
            filters: 4,
            target_pairs: 20,
            switches: 3,
            tcam_capacity: 1024,
        };
        Timeline::new(WorkloadKind::Testbed(spec), epochs, seed)
    }

    #[test]
    fn timeline_is_deterministic_for_a_seed() {
        let timeline = small_timeline(40, 11);
        let a = timeline.run();
        let b = timeline.run();
        assert_eq!(a.outcome, b.outcome);
        assert_eq!(a.outcome.report(), b.outcome.report());
        let c = small_timeline(40, 12).run();
        assert_ne!(a.outcome, c.outcome);
    }

    #[test]
    fn oracle_agrees_at_every_epoch() {
        let run = small_timeline(60, 7).run();
        assert_eq!(run.outcome.epochs.len(), 60);
        for epoch in &run.outcome.epochs {
            assert!(epoch.oracle_checked, "epoch {}", epoch.epoch);
            assert_eq!(epoch.oracle_agrees, Some(true), "epoch {}", epoch.epoch);
        }
        assert!(run.outcome.oracle_disagreements().is_empty());
        assert_eq!(run.incremental_cost.len(), 60);
        assert_eq!(run.scratch_cost.len(), 60);
        // The monitor session saw exactly one ingest per epoch.
        assert_eq!(run.session_stats.ingests, 60);
    }

    #[test]
    fn timeline_exercises_the_full_lifecycle() {
        let run = small_timeline(120, 3).run();
        let report = run.outcome.report();
        assert!(report.injections >= 10, "{report:?}");
        assert!(report.healed_faults >= 5, "{report:?}");
        assert!(report.repair_attempts >= 5, "{report:?}");
        assert!(report.policy_edits >= 5, "{report:?}");
        assert!(report.overlap_epochs >= 5, "{report:?}");
        assert!(report.detected_faults >= 5, "{report:?}");
        assert!(!report.detection_latency.is_empty());
        // Repairs visibly clear previously-localized objects.
        assert!(report.repair_clearances >= 1, "{report:?}");
        // The monitor ends no worse than it started: counters are coherent.
        assert!(report.attributed_epochs <= report.faulty_epochs);
        assert_eq!(report.oracle_disagreements, 0);
        assert!(!report.table().is_empty());
        assert_eq!(report.timeline_table(40).len(), 3);
    }

    #[test]
    fn oracle_stride_checks_subset_including_last() {
        let timeline = Timeline {
            engine: EngineConfig {
                oracle: OracleCadence::Stride(7),
                ..EngineConfig::default()
            },
            ..small_timeline(30, 5)
        };
        let run = timeline.run();
        let checked: Vec<usize> = run
            .outcome
            .epochs
            .iter()
            .filter(|e| e.oracle_checked)
            .map(|e| e.epoch)
            .collect();
        assert!(checked.contains(&0));
        assert!(checked.contains(&29), "final epoch always checked");
        assert!(checked.len() < 30);
        for epoch in &run.outcome.epochs {
            assert_ne!(epoch.oracle_agrees, Some(false));
        }
        // Never: no checks, no scratch cost samples.
        let silent = Timeline {
            engine: EngineConfig {
                oracle: OracleCadence::Never,
                ..EngineConfig::default()
            },
            ..small_timeline(10, 5)
        }
        .run();
        assert!(silent.outcome.epochs.iter().all(|e| !e.oracle_checked));
        assert!(silent.scratch_cost.is_empty());
    }

    #[test]
    fn control_plane_faults_never_claim_preexisting_orphans() {
        use scout_policy::sample;
        use scout_workload::add_filter_to_contract;

        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        // A silent, unowned loss predates the flap: 2 port-700 rules on S2.
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);

        // Inject a channel flap the way the engine does, snapshotting the
        // rules already missing on the switch as excluded.
        fabric.disconnect_switch(sample::S2);
        let present: BTreeSet<TcamRule> = fabric.tcam_rules(sample::S2).into_iter().collect();
        let excluded: BTreeSet<LogicalRule> = fabric
            .logical_rules()
            .iter()
            .filter(|r| r.switch == sample::S2 && !present.contains(&r.rule))
            .copied()
            .collect();
        assert_eq!(excluded.len(), 2);
        let mut active = vec![ActiveFault {
            id: 0,
            repair: RepairAction::RestoreSwitch(sample::S2),
            outstanding: BTreeSet::new(),
            excluded,
        }];
        let mut faults = vec![FaultRecord {
            id: 0,
            kind: SoakFaultKind::ChannelFlap,
            objects: BTreeSet::from([ObjectId::Switch(sample::S2)]),
            injected_epoch: 0,
            initial_footprint: 0,
            detected_epoch: None,
            repaired_epoch: None,
            healed_epoch: None,
            repair_attempts: 0,
        }];
        let mut healed = Vec::new();

        // The pre-existing loss stays unattributed: the flap owns nothing.
        let orphans = reconcile(&fabric, &mut active, &mut faults, 0, &mut healed);
        assert_eq!(orphans, 2);
        assert!(active[0].outstanding.is_empty());
        assert_eq!(
            faults[0].objects,
            BTreeSet::from([ObjectId::Switch(sample::S2)])
        );

        // A policy edit pushed while the channel is down *is* the flap's
        // fault: the new rules on S2 are lost and claimed, the old orphans
        // still are not.
        let edited = add_filter_to_contract(
            fabric.universe(),
            sample::C_APP_DB,
            scout_policy::FilterId::new(50),
            8443,
        )
        .unwrap();
        fabric.update_policy(edited);
        let orphans = reconcile(&fabric, &mut active, &mut faults, 1, &mut healed);
        assert_eq!(orphans, 2, "pre-existing losses remain unowned");
        assert_eq!(active[0].outstanding.len(), 2, "lost pushes are claimed");
        assert!(faults[0]
            .objects
            .contains(&ObjectId::Filter(scout_policy::FilterId::new(50))));
        assert!(healed.is_empty());
    }

    #[test]
    fn healed_faults_stay_healed_until_reinjected() {
        let run = small_timeline(80, 21).run();
        for fault in &run.outcome.faults {
            if let Some(healed) = fault.healed_epoch {
                assert!(healed >= fault.injected_epoch);
                if let Some(repaired) = fault.repaired_epoch {
                    assert!(repaired <= healed, "fault {}", fault.id);
                }
                if let Some(latency) = fault.detection_latency() {
                    assert!(fault.injected_epoch + latency <= healed);
                }
            }
        }
        // Epoch records and fault records tell the same story.
        let healed_from_epochs: usize = run.outcome.epochs.iter().map(|e| e.healed.len()).sum();
        let healed_from_faults = run
            .outcome
            .faults
            .iter()
            .filter(|f| f.healed_epoch.is_some())
            .count();
        assert_eq!(healed_from_epochs, healed_from_faults);
    }
}
