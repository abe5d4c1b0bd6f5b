//! The hostile-telemetry scenario suite: SCOUT under lying, lossy, and torn
//! inputs.
//!
//! Every other engine in this crate feeds the pipeline *cleanly observed*
//! faults: batches arrive in order, TCAM reads are atomic, fault logs are
//! complete. This module drops those courtesies. A [`HostileCampaign`] runs
//! five seeded scenario classes ([`HostileKind`]) the clean engines cannot
//! express — dropped/reordered [`EventBatch`]es, stale/torn `TcamSync` reads
//! taken mid-update, flapping faults inside one epoch, correlated gray
//! failures spanning many switches, and wiped fault logs — and scores SCOUT
//! against the SCORE baseline on the telemetry that survived.
//!
//! The suite exercises the two degraded-input features of the engine: epoch
//! gaps are recovered through
//! [`AnalysisSession::resync`](scout_core::AnalysisSession::resync) fed a
//! [`FabricProbe::full_resync`] read, and absent fault logs fall back to the
//! ranked partial diagnoses of
//! [`CorrelationEngine::rank_partial`](scout_core::CorrelationEngine::rank_partial)
//! instead of silence. The enforced root suite `tests/hostile.rs` pins
//! per-class accuracy floors on this module's fixed-seed output.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scout_core::{
    score_localize, AnalysisSession, EngineConfig, Parallelism, PartialDiagnosis, ScoutEngine,
    ScoutReport, SessionError,
};
use scout_fabric::{EventBatch, Fabric, FabricEvent, FabricProbe, FaultKind, FaultLog, Severity};
use scout_faults::{FaultInjector, ObjectFaultKind};
use scout_metrics::{fmt_mean, Accuracy, RankQuality, Summary, Table};
use scout_policy::{ObjectId, SwitchId, TcamRule};

use crate::scenario::WorkloadKind;

/// The hostile disturbance classes, in report order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostileKind {
    /// A lossy probe: event batches are dropped and reordered in transit,
    /// forcing epoch-gap detection and full-resync recovery.
    LossyProbe,
    /// A torn `TcamSync`: the poller walks a switch's table while an update
    /// lands, mixing fresh and stale pages in one read.
    TornSync,
    /// Flapping faults: several raise/repair cycles collapse into a single
    /// epoch's batch before a real break lands.
    Flapping,
    /// A correlated gray failure: partial object faults across many switches
    /// with only *some* of the degraded links logging anything.
    GrayFailure,
    /// Missing fault logs: the fault log is wiped after injection, leaving
    /// only the change log and the ranked partial diagnosis.
    MissingLogs,
}

impl HostileKind {
    /// All classes, in report order.
    pub const ALL: [HostileKind; 5] = [
        HostileKind::LossyProbe,
        HostileKind::TornSync,
        HostileKind::Flapping,
        HostileKind::GrayFailure,
        HostileKind::MissingLogs,
    ];
}

impl fmt::Display for HostileKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            HostileKind::LossyProbe => "lossy-probe",
            HostileKind::TornSync => "torn-sync",
            HostileKind::Flapping => "flapping",
            HostileKind::GrayFailure => "gray-failure",
            HostileKind::MissingLogs => "missing-logs",
        };
        f.write_str(name)
    }
}

/// Derives the private seed of scenario `index` of `kind` from the campaign
/// seed. Classes use disjoint streams so reordering the class list never
/// perturbs another class's scenarios.
pub fn hostile_seed(campaign_seed: u64, kind: HostileKind, index: usize) -> u64 {
    let class_salt = (kind as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    campaign_seed
        .wrapping_mul(0xD6E8_FEB8_6659_FD93)
        .wrapping_add(class_salt)
        .wrapping_add((index as u64) << 13)
        .wrapping_add(index as u64)
}

/// Derives the injector seed from the scenario seed, mirroring the clean
/// campaign engine: the sampling and injection streams stay independent.
fn injector_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0xB5)
}

/// Configuration of one hostile-telemetry campaign: `per_class` scenarios of
/// *each* of the five [`HostileKind`]s.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HostileCampaign {
    /// The policy generator for the reference fabric.
    pub workload: WorkloadKind,
    /// Scenarios per hostile class (the run executes `5 * per_class`).
    pub per_class: usize,
    /// Maximum simultaneous object faults per scenario (at least 1 is used).
    pub max_faults: usize,
    /// The campaign seed; scenario `i` of each class derives its own seed.
    pub seed: u64,
    /// Worker-thread policy.
    pub concurrency: Parallelism,
    /// The analysis-engine configuration every scenario runs under.
    pub engine: EngineConfig,
}

impl HostileCampaign {
    /// A hostile campaign with the default fault bound, parallelism and
    /// engine configuration.
    pub fn new(workload: WorkloadKind, per_class: usize, seed: u64) -> Self {
        Self {
            workload,
            per_class,
            max_faults: 3,
            seed,
            concurrency: Parallelism::Auto,
            engine: EngineConfig::default(),
        }
    }

    fn total(&self) -> usize {
        self.per_class * HostileKind::ALL.len()
    }

    /// Deploys the reference fabric and runs every scenario of every class
    /// against a private engine built from [`HostileCampaign::engine`].
    ///
    /// The outcome vector is deterministic for a given configuration (thread
    /// count changes only the wall-clock time).
    pub fn run(&self) -> HostileRun {
        let engine = ScoutEngine::from_config(self.engine)
            .expect("hostile campaign engine config is degenerate (see EngineConfig::validate)");
        self.run_with_engine(&engine)
    }

    /// Like [`HostileCampaign::run`], but routes every worker through a
    /// caller-provided — possibly shared — engine.
    pub fn run_with_engine(&self, engine: &ScoutEngine) -> HostileRun {
        let start = Instant::now();
        let mut base = Fabric::new(self.workload.generate(self.seed));
        base.deploy();

        // One-shot classes share their worker's base session (the campaign
        // pattern); streaming classes open a private session per scenario,
        // since each one drives its own epoch sequence.
        let outcomes = self
            .concurrency
            .fan_out(self.total(), |_, range| {
                let mut base_session = engine.open_session(&base);
                range
                    .map(|index| {
                        let kind = HostileKind::ALL[index / self.per_class];
                        run_hostile_scenario(
                            engine,
                            &mut base_session,
                            &base,
                            index,
                            hostile_seed(self.seed, kind, index % self.per_class),
                            kind,
                            self.max_faults,
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        HostileRun {
            outcomes,
            elapsed: start.elapsed(),
        }
    }
}

/// The scored result of one hostile scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct HostileOutcome {
    /// Position of the scenario within its campaign.
    pub index: usize,
    /// The scenario's private seed.
    pub seed: u64,
    /// The hostile class that was applied.
    pub kind: HostileKind,
    /// The ground truth: objects a perfect localizer should implicate.
    pub truth: BTreeSet<ObjectId>,
    /// SCOUT's hypothesis, computed from the surviving telemetry.
    pub hypothesis: BTreeSet<ObjectId>,
    /// The pre-localization suspect set.
    pub suspects: BTreeSet<ObjectId>,
    /// `true` if the pipeline found no L–T divergence.
    pub consistent: bool,
    /// The suspect-set reduction ratio γ of the run.
    pub gamma: f64,
    /// SCOUT precision/recall against the ground truth.
    pub scout: Accuracy,
    /// SCORE-1.0 precision/recall on identical evidence.
    pub score: Accuracy,
    /// `true` if SCOUT pointed at the ground truth (or both sets are empty).
    pub attributed: bool,
    /// Full resyncs the session needed to survive the scenario.
    pub resyncs: usize,
    /// Batches the hostile transport disturbed (dropped, reordered or torn).
    pub disturbed_batches: usize,
    /// `true` if the ranked partial diagnosis was non-empty.
    pub ranked_nonempty: bool,
    /// Best 1-based rank of any ground-truth object in the partial
    /// diagnosis (`None` = miss, or nothing to find).
    pub diagnosis_rank: Option<usize>,
}

/// Runs one hostile scenario end to end.
#[allow(clippy::too_many_arguments)]
fn run_hostile_scenario(
    engine: &ScoutEngine,
    base_session: &mut AnalysisSession,
    base: &Fabric,
    index: usize,
    seed: u64,
    kind: HostileKind,
    max_faults: usize,
) -> HostileOutcome {
    match kind {
        HostileKind::LossyProbe => lossy_probe(engine, base, index, seed, max_faults),
        HostileKind::TornSync => torn_sync(engine, base, index, seed, max_faults),
        HostileKind::Flapping => flapping(engine, base, index, seed, max_faults),
        HostileKind::GrayFailure => {
            gray_failure(engine, base_session, base, index, seed, max_faults)
        }
        HostileKind::MissingLogs => {
            missing_logs(engine, base_session, base, index, seed, max_faults)
        }
    }
}

/// Delivers one batch to the session the way a hostile transport's receiver
/// would: gaps trigger a full resync through the probe, stale reordered
/// duplicates are dropped, and anything else is a producer bug.
fn deliver(
    session: &mut AnalysisSession,
    probe: &mut FabricProbe,
    fabric: &Fabric,
    batch: EventBatch,
    resyncs: &mut usize,
) {
    match session.ingest(batch) {
        Ok(_) => {}
        Err(SessionError::EpochGap { resync }) => {
            *resyncs += 1;
            session
                .resync(resync.observed_epoch, probe.full_resync(fabric))
                .expect("a gap resync always moves the session forward");
        }
        Err(SessionError::EpochOutOfOrder { .. }) => {
            // A stale duplicate from the reorder buffer: the session already
            // holds everything up to its epoch, so the batch is droppable.
        }
        Err(err) => panic!("faithful probe events must apply: {err}"),
    }
}

/// Scores a streaming session once its timeline has settled: SCOUT from the
/// session's own report, SCORE on the identical augmented model, and the
/// ranked partial diagnosis for rank quality.
fn settle(
    session: &mut AnalysisSession,
    fabric: &Fabric,
) -> (ScoutReport, BTreeSet<ObjectId>, PartialDiagnosis) {
    let check = session.full_report().check.clone();
    let score = session.with_augmented_model(fabric, &check, |model| score_localize(model, 1.0));
    let ranked = session.partial_diagnosis();
    (session.full_report().clone(), score.objects(), ranked)
}

/// Assembles the outcome from a settled report.
#[allow(clippy::too_many_arguments)]
fn outcome_of(
    index: usize,
    seed: u64,
    kind: HostileKind,
    truth: BTreeSet<ObjectId>,
    report: &ScoutReport,
    score_objects: BTreeSet<ObjectId>,
    ranked: &PartialDiagnosis,
    resyncs: usize,
    disturbed_batches: usize,
) -> HostileOutcome {
    let hypothesis = report.hypothesis.objects();
    let attributed = if truth.is_empty() {
        hypothesis.is_empty()
    } else {
        !hypothesis.is_disjoint(&truth)
    };
    let diagnosis_rank = if truth.is_empty() {
        None
    } else {
        ranked.rank_of_any(&truth)
    };
    HostileOutcome {
        index,
        seed,
        kind,
        scout: Accuracy::of(&truth, &hypothesis),
        score: Accuracy::of(&truth, &score_objects),
        attributed,
        consistent: report.is_consistent(),
        gamma: report.gamma(),
        suspects: report.suspect_objects.clone(),
        hypothesis,
        resyncs,
        disturbed_batches,
        ranked_nonempty: !ranked.is_empty(),
        diagnosis_rank,
        truth,
    }
}

/// Injects 1..=`max_faults` object faults of a coin-flipped kind and returns
/// the ground truth.
fn inject(
    fabric: &mut Fabric,
    rng: &mut StdRng,
    seed: u64,
    max_faults: usize,
    forced: Option<ObjectFaultKind>,
) -> BTreeSet<ObjectId> {
    let count = rng.gen_range(1..=max_faults.max(1));
    let kind = forced.unwrap_or(if rng.gen_bool(0.5) {
        ObjectFaultKind::Full
    } else {
        ObjectFaultKind::Partial
    });
    let mut injector = FaultInjector::new(StdRng::seed_from_u64(injector_seed(seed)));
    injector
        .inject_object_faults_of(fabric, count, kind)
        .objects()
}

/// (a) Dropped and reordered batches from a lossy probe. The producer emits
/// faithful observations; the transport drops ~20% and holds ~20% for
/// reordering. A trailing heartbeat reveals any outstanding gap, so the
/// session always converges — through at least one full resync whenever a
/// batch was lost.
fn lossy_probe(
    engine: &ScoutEngine,
    base: &Fabric,
    index: usize,
    seed: u64,
    max_faults: usize,
) -> HostileOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fabric = base.clone();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);

    let mut producer_epoch = 0u64;
    let mut pending: Option<EventBatch> = None;
    let mut resyncs = 0usize;
    let mut disturbed = 0usize;
    let mut truth = BTreeSet::new();

    let rounds = rng.gen_range(4usize..=6);
    let fault_round = rng.gen_range(1..rounds.saturating_sub(1).max(2));
    for round in 0..rounds {
        // Drift: benign admin notes around one real fault injection.
        if round == fault_round {
            truth = inject(&mut fabric, &mut rng, seed, max_faults, None);
        } else {
            let t = fabric.now();
            let switches = fabric.universe().switch_ids();
            let &switch = switches.choose(&mut rng).expect("workloads have switches");
            fabric.record_admin_change(t, ObjectId::Switch(switch), "routine audit touch");
        }

        // Produce: the probe's cursors advance whether or not the batch
        // survives transit — exactly why a gap cannot be replayed.
        let Some(batch) = probe.observe_batch(&fabric, producer_epoch + 1) else {
            continue;
        };
        producer_epoch = batch.epoch;

        // Transport: drop, hold for reorder, or deliver (flushing any held
        // batch afterwards, now out of order).
        match rng.gen_range(0u32..10) {
            0 | 1 => {
                disturbed += 1;
            }
            2 | 3 => {
                if let Some(stale) = pending.replace(batch) {
                    deliver(&mut session, &mut probe, &fabric, stale, &mut resyncs);
                }
                disturbed += 1;
            }
            _ => {
                deliver(&mut session, &mut probe, &fabric, batch, &mut resyncs);
                if let Some(stale) = pending.take() {
                    deliver(&mut session, &mut probe, &fabric, stale, &mut resyncs);
                }
            }
        }
    }

    // Heartbeat: an empty but sequenced batch flushes any trailing loss into
    // a detectable gap, guaranteeing convergence before scoring.
    producer_epoch += 1;
    let heartbeat = EventBatch::new(producer_epoch, probe.observe(&fabric));
    deliver(&mut session, &mut probe, &fabric, heartbeat, &mut resyncs);

    let (report, score_objects, ranked) = settle(&mut session, &fabric);
    outcome_of(
        index,
        seed,
        HostileKind::LossyProbe,
        truth,
        &report,
        score_objects,
        &ranked,
        resyncs,
        disturbed,
    )
}

/// (b) A stale/torn `TcamSync` read taken mid-update: epoch 1 delivers a
/// page-walk of the victim switch that mixes post-fault and pre-fault pages,
/// epoch 2 settles with a clean read.
fn torn_sync(
    engine: &ScoutEngine,
    base: &Fabric,
    index: usize,
    seed: u64,
    max_faults: usize,
) -> HostileOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fabric = base.clone();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);

    // Capture every table before the fault: the torn read's stale pages.
    let stale_tables: BTreeMap<SwitchId, Vec<TcamRule>> = fabric
        .universe()
        .switch_ids()
        .iter()
        .map(|&s| (s, fabric.tcam_rules(s)))
        .collect();

    // 60% of scenarios carry a real fault; the rest are clean fabrics whose
    // torn read must not conjure one.
    let truth = if rng.gen_bool(0.6) {
        inject(&mut fabric, &mut rng, seed, max_faults, None)
    } else {
        BTreeSet::new()
    };

    // Tear the read of a switch the fault actually touched (or any switch on
    // a clean fabric — there the "torn" read degenerates to a clean one).
    let affected: Vec<SwitchId> = if truth.is_empty() {
        fabric.universe().switch_ids()
    } else {
        let universe = fabric.universe();
        truth
            .iter()
            .flat_map(|&o| universe.switches_for_object(o))
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect()
    };
    let &victim = affected.choose(&mut rng).expect("a non-empty switch set");

    // Epoch 1: the probe's faithful events, except the victim's sync is torn.
    let live = fabric.tcam_rules(victim);
    let fresh = rng.gen_range(0..=live.len());
    let torn = FabricEvent::torn_tcam_sync(victim, &live, &stale_tables[&victim], fresh);
    let mut events = probe.observe(&fabric);
    if let Some(slot) = events
        .iter_mut()
        .find(|e| matches!(e, FabricEvent::TcamSync { switch, .. } if *switch == victim))
    {
        *slot = torn;
    } else {
        events.push(torn);
    }
    session
        .ingest(EventBatch::new(1, events))
        .expect("a torn read still validates");

    // Epoch 2: the poller re-reads the victim cleanly and the view settles.
    let mut events = probe.observe(&fabric);
    events.push(FabricEvent::TcamSync {
        switch: victim,
        rules: fabric.tcam_rules(victim),
    });
    session
        .ingest(EventBatch::new(2, events))
        .expect("the settling read applies");

    let (report, score_objects, ranked) = settle(&mut session, &fabric);
    outcome_of(
        index,
        seed,
        HostileKind::TornSync,
        truth,
        &report,
        score_objects,
        &ranked,
        0,
        1,
    )
}

/// (c) Flapping faults: several evict/repair cycles land inside a single
/// epoch's batch — raise and pre-cleared fault entries interleaved — before a
/// real break that stays.
fn flapping(
    engine: &ScoutEngine,
    base: &Fabric,
    index: usize,
    seed: u64,
    max_faults: usize,
) -> HostileOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fabric = base.clone();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);

    let switches = fabric.universe().switch_ids();
    let &flapper = switches.choose(&mut rng).expect("workloads have switches");
    for _ in 0..rng.gen_range(2usize..=4) {
        fabric.evict_tcam(flapper, rng.gen_range(1usize..=2), true);
        fabric.repair_switch(flapper);
    }
    // The break that does not heal.
    let truth = inject(&mut fabric, &mut rng, seed, max_faults, None);

    // One batch carries the whole flap history plus the break.
    session
        .ingest_observation(&mut probe, &fabric)
        .expect("faithful observations ingest cleanly");

    let (report, score_objects, ranked) = settle(&mut session, &fabric);
    outcome_of(
        index,
        seed,
        HostileKind::Flapping,
        truth,
        &report,
        score_objects,
        &ranked,
        0,
        1,
    )
}

/// (d) A correlated gray failure: partial object faults (SCORE-1.0's blind
/// axis) spread across the switches of the faulty objects, with only some of
/// the degraded links admitting anything to the fault log.
fn gray_failure(
    engine: &ScoutEngine,
    base_session: &mut AnalysisSession,
    base: &Fabric,
    index: usize,
    seed: u64,
    max_faults: usize,
) -> HostileOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fabric = base.clone();
    let truth = inject(
        &mut fabric,
        &mut rng,
        seed,
        max_faults,
        Some(ObjectFaultKind::Partial),
    );

    // Gray evidence: each implicated switch logs a channel degradation only
    // half the time — the rest stay silent.
    let implicated: BTreeSet<SwitchId> = {
        let universe = fabric.universe();
        truth
            .iter()
            .flat_map(|&o| universe.switches_for_object(o))
            .collect()
    };
    for switch in implicated {
        if rng.gen_bool(0.5) {
            let t = fabric.now();
            fabric.fault_log_mut().raise(
                t,
                Some(switch),
                FaultKind::ChannelDegraded,
                Severity::Warning,
                "gray link: elevated loss, below alarm threshold",
            );
        }
    }

    let (report, score) =
        base_session.analyze_clone_with(&fabric, |model| score_localize(model, 1.0));
    let ranked = engine.correlation().rank_partial(
        &report.hypothesis,
        &report.suspect_objects,
        fabric.universe(),
        fabric.change_log(),
        fabric.fault_log(),
    );
    outcome_of(
        index,
        seed,
        HostileKind::GrayFailure,
        truth,
        &report,
        score.objects(),
        &ranked,
        0,
        0,
    )
}

/// (e) Missing fault logs: the fault log is wiped after injection, so the
/// definitive correlation goes dark and the ranked partial diagnosis is the
/// only physical-level signal left.
fn missing_logs(
    engine: &ScoutEngine,
    base_session: &mut AnalysisSession,
    base: &Fabric,
    index: usize,
    seed: u64,
    max_faults: usize,
) -> HostileOutcome {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut fabric = base.clone();
    let truth = inject(&mut fabric, &mut rng, seed, max_faults, None);
    *fabric.fault_log_mut() = FaultLog::new();

    let (report, score) =
        base_session.analyze_clone_with(&fabric, |model| score_localize(model, 1.0));
    let ranked = engine.correlation().rank_partial(
        &report.hypothesis,
        &report.suspect_objects,
        fabric.universe(),
        fabric.change_log(),
        fabric.fault_log(),
    );
    outcome_of(
        index,
        seed,
        HostileKind::MissingLogs,
        truth,
        &report,
        score.objects(),
        &ranked,
        0,
        0,
    )
}

/// The raw result of a hostile campaign.
#[derive(Debug, Clone)]
pub struct HostileRun {
    /// One outcome per scenario, in scenario order (classes are contiguous).
    pub outcomes: Vec<HostileOutcome>,
    /// Total wall-clock time (excluded from the deterministic report).
    pub elapsed: Duration,
}

impl HostileRun {
    /// Aggregates the outcomes into the deterministic campaign report.
    pub fn report(&self) -> HostileReport {
        HostileReport::of(&self.outcomes)
    }
}

/// Aggregated statistics of one hostile class.
#[derive(Debug, Clone, PartialEq)]
pub struct HostileClassStats {
    /// Number of scenarios of this class.
    pub scenarios: usize,
    /// Scenarios with a non-empty ground truth.
    pub faulty: usize,
    /// Faulty scenarios the pipeline flagged as inconsistent.
    pub detected: usize,
    /// Faulty scenarios whose hypothesis intersected the truth.
    pub attributed: usize,
    /// Full resyncs across the class's scenarios.
    pub resyncs: usize,
    /// Batches the hostile transport disturbed across the class.
    pub disturbed: usize,
    /// SCOUT precision over the faulty scenarios.
    pub precision: Summary,
    /// SCOUT recall over the faulty scenarios.
    pub recall: Summary,
    /// SCORE-1.0 recall over the faulty scenarios.
    pub score_recall: Summary,
    /// γ over the detected scenarios.
    pub gamma: Summary,
    /// Faulty scenarios whose ranked partial diagnosis was non-empty.
    pub ranked_nonempty: usize,
    /// Rank quality of the partial diagnosis over the faulty scenarios.
    pub rank: RankQuality,
}

/// The deterministic aggregate of one hostile campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct HostileReport {
    /// Total number of scenarios.
    pub scenarios: usize,
    /// Per-class breakdown (only classes that occurred).
    pub per_kind: BTreeMap<HostileKind, HostileClassStats>,
}

impl HostileReport {
    /// Aggregates a slice of outcomes.
    pub fn of(outcomes: &[HostileOutcome]) -> Self {
        let mut per_kind: BTreeMap<HostileKind, Vec<&HostileOutcome>> = BTreeMap::new();
        for outcome in outcomes {
            per_kind.entry(outcome.kind).or_default().push(outcome);
        }
        let stats = |items: &[&HostileOutcome]| -> HostileClassStats {
            let faulty: Vec<&&HostileOutcome> =
                items.iter().filter(|o| !o.truth.is_empty()).collect();
            let detected: Vec<&&&HostileOutcome> =
                faulty.iter().filter(|o| !o.consistent).collect();
            HostileClassStats {
                scenarios: items.len(),
                faulty: faulty.len(),
                detected: detected.len(),
                attributed: faulty.iter().filter(|o| o.attributed).count(),
                resyncs: items.iter().map(|o| o.resyncs).sum(),
                disturbed: items.iter().map(|o| o.disturbed_batches).sum(),
                precision: Summary::of(faulty.iter().map(|o| o.scout.precision)),
                recall: Summary::of(faulty.iter().map(|o| o.scout.recall)),
                score_recall: Summary::of(faulty.iter().map(|o| o.score.recall)),
                gamma: Summary::of(detected.iter().map(|o| o.gamma)),
                ranked_nonempty: faulty.iter().filter(|o| o.ranked_nonempty).count(),
                rank: RankQuality::of(faulty.iter().map(|o| o.diagnosis_rank)),
            }
        };
        HostileReport {
            scenarios: outcomes.len(),
            per_kind: per_kind
                .into_iter()
                .map(|(kind, items)| (kind, stats(&items)))
                .collect(),
        }
    }

    /// The stats of one class, if it occurred.
    pub fn class(&self, kind: HostileKind) -> Option<&HostileClassStats> {
        self.per_kind.get(&kind)
    }

    /// Renders the per-class breakdown as an aligned table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Hostile telemetry — SCOUT vs SCORE-1.0 per scenario class",
            &[
                "class", "runs", "faulty", "detected", "resyncs", "P(SCOUT)", "R(SCOUT)",
                "R(SCORE)", "mean γ", "top-3", "MRR",
            ],
        );
        for (kind, stats) in &self.per_kind {
            table.row([
                kind.to_string(),
                stats.scenarios.to_string(),
                stats.faulty.to_string(),
                stats.detected.to_string(),
                stats.resyncs.to_string(),
                fmt_mean(&stats.precision),
                fmt_mean(&stats.recall),
                fmt_mean(&stats.score_recall),
                fmt_mean(&stats.gamma),
                stats.rank.fmt_top3(),
                stats.rank.fmt_mrr(),
            ]);
        }
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_workload::TestbedSpec;

    fn small_campaign(seed: u64) -> HostileCampaign {
        HostileCampaign {
            max_faults: 2,
            concurrency: Parallelism::Sequential,
            ..HostileCampaign::new(WorkloadKind::Testbed(TestbedSpec::paper()), 6, seed)
        }
    }

    #[test]
    fn hostile_campaign_is_deterministic_across_thread_counts() {
        let sequential = small_campaign(42);
        let threaded = HostileCampaign {
            concurrency: Parallelism::Fixed(4),
            ..small_campaign(42)
        };
        let a = sequential.run();
        let b = threaded.run();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.report(), b.report());
        let c = small_campaign(43).run();
        assert_ne!(a.outcomes, c.outcomes);
    }

    #[test]
    fn every_class_runs_its_share() {
        let run = small_campaign(7).run();
        let report = run.report();
        assert_eq!(report.scenarios, 30);
        assert_eq!(report.per_kind.len(), 5);
        for kind in HostileKind::ALL {
            assert_eq!(report.class(kind).unwrap().scenarios, 6, "{kind}");
        }
        // Outcomes are class-contiguous in index order.
        for (i, outcome) in run.outcomes.iter().enumerate() {
            assert_eq!(outcome.index, i);
            assert_eq!(outcome.kind, HostileKind::ALL[i / 6]);
        }
    }

    #[test]
    fn lossy_probe_sessions_converge_to_the_live_fabric() {
        // Convergence is the contract the heartbeat guarantees: whatever the
        // transport dropped, the settled hypothesis equals a from-scratch
        // analysis — verified here through SCOUT == truth-facing scoring on
        // a fabric the outcome kept no handle to, so assert on aggregates.
        let run = small_campaign(11).run();
        let report = run.report();
        let lossy = report.class(HostileKind::LossyProbe).unwrap();
        assert!(lossy.faulty > 0, "injection must land in most scenarios");
        assert_eq!(
            lossy.detected, lossy.faulty,
            "a converged session sees every injected fault"
        );
        // The whole point of the class: losses occurred and were survived.
        assert!(lossy.disturbed > 0);
    }

    #[test]
    fn missing_logs_always_rank_something() {
        let run = small_campaign(5).run();
        let report = run.report();
        let missing = report.class(HostileKind::MissingLogs).unwrap();
        assert!(missing.faulty > 0);
        assert_eq!(
            missing.ranked_nonempty, missing.faulty,
            "wiped logs must still yield a ranked diagnosis"
        );
        assert!(missing.rank.queries() == missing.faulty);
    }

    #[test]
    fn hostile_table_renders_every_class_row() {
        let report = small_campaign(3).run().report();
        let text = report.table().to_string();
        for kind in HostileKind::ALL {
            assert!(text.contains(&kind.to_string()), "{kind} row missing");
        }
        assert_eq!(report.table().len(), 5);
    }

    #[test]
    fn class_seeds_are_disjoint_streams() {
        let mut seen = std::collections::BTreeSet::new();
        for kind in HostileKind::ALL {
            for index in 0..50 {
                assert!(seen.insert(hostile_seed(42, kind, index)));
            }
        }
    }
}
