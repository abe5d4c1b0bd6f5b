//! Reusable experiment implementations for every table and figure of §VI.
//!
//! Each experiment follows the paper's methodology:
//!
//! * **Figure 3** — [`object_sharing`] computes the CDF of the number of EPG
//!   pairs per object, per object class, over a cluster-like policy.
//! * **Figure 7** — [`suspect_reduction`] / [`testbed_suspect_reduction`]
//!   inject one object fault at a time and report γ (hypothesis size over the
//!   suspect-set size), binned by the suspect-set size.
//! * **Figures 8 & 9** — [`accuracy_sweep`] injects 1..10 simultaneous object
//!   faults and measures precision/recall of SCOUT against SCORE with two
//!   thresholds, on the switch or controller risk model. The faults are
//!   synthesized directly at the risk-model level (see
//!   `scout_faults::model_faults` for why this is equivalent to deploying and
//!   checking the policy end to end).
//! * **Figure 10** — [`testbed_accuracy`] runs the *full* pipeline (deploy,
//!   silently break TCAM state, equivalence check, localization) on the
//!   testbed policy.
//! * **Scalability** — [`scalability`] measures controller-risk-model
//!   construction and SCOUT localization time as the fabric grows from 10 to
//!   500 leaf switches.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use scout_core::{
    controller_risk_model, score_localize, scout_localize, switch_risk_model, RiskModel,
    ScoutConfig, ScoutEngine,
};
use scout_fabric::{ChangeLog, Fabric};
use scout_faults::{synthesize_object_faults, synthetic_change_log, FaultInjector};
use scout_metrics::{fmt3, gamma, Accuracy, Bins, Cdf, Summary, Table};
use scout_policy::{EpgPair, ObjectClass, ObjectId, PolicyUniverse, SwitchId};
use scout_sim::score_baseline;
use scout_workload::{ScaleSpec, TestbedSpec};

// ---------------------------------------------------------------------------
// Figure 3: object sharing
// ---------------------------------------------------------------------------

/// Per-object-class CDFs of the number of EPG pairs sharing an object.
#[derive(Debug, Clone)]
pub struct SharingCdfs {
    /// CDF of pairs-per-object, keyed by object class.
    pub per_class: BTreeMap<ObjectClass, Cdf>,
}

/// Computes the Figure 3 data for a policy: for every object (switches, VRFs,
/// EPGs, filters, contracts) the number of EPG pairs that depend on it, grouped
/// by object class.
pub fn object_sharing(universe: &PolicyUniverse) -> SharingCdfs {
    let mut samples: BTreeMap<ObjectClass, Vec<f64>> = BTreeMap::new();
    for (object, pairs) in universe.pairs_per_object() {
        samples
            .entry(object.class())
            .or_default()
            .push(pairs.len() as f64);
    }
    SharingCdfs {
        per_class: samples
            .into_iter()
            .map(|(class, values)| (class, Cdf::of(values)))
            .collect(),
    }
}

/// Renders the Figure 3 CDFs as a table: for each class, the fraction of
/// objects shared by at most 1, 10, 100, 1,000 and 10,000 EPG pairs.
pub fn sharing_table(cdfs: &SharingCdfs) -> Table {
    let thresholds = [1.0, 10.0, 100.0, 1_000.0, 10_000.0];
    let mut table = Table::new(
        "Figure 3 — CDF of #EPG pairs per object (fraction of objects <= threshold)",
        &[
            "class", "objects", "<=1", "<=10", "<=100", "<=1k", "<=10k", "p50", "max",
        ],
    );
    for (class, cdf) in &cdfs.per_class {
        let mut cells = vec![class.to_string(), cdf.len().to_string()];
        for t in thresholds {
            cells.push(fmt3(cdf.fraction_le(t)));
        }
        cells.push(format!("{:.0}", cdf.quantile(0.5)));
        cells.push(format!("{:.0}", cdf.quantile(1.0)));
        table.row(cells);
    }
    table
}

// ---------------------------------------------------------------------------
// Figures 8, 9, 10: accuracy sweeps
// ---------------------------------------------------------------------------

/// Which risk model the accuracy experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ModelKind {
    /// A single switch's risk model (Figure 8): the injected objects fail to be
    /// deployed on one randomly chosen switch and localization runs on that
    /// switch's model, mirroring the paper's switch-level setting.
    Switch,
    /// The global controller risk model with faults spread across switches
    /// (Figure 9).
    Controller,
}

/// Aggregated accuracy of one algorithm at one fault count.
#[derive(Debug, Clone)]
pub struct AlgoResult {
    /// Algorithm label, e.g. `"SCOUT"` or `"SCORE-0.6"`.
    pub name: String,
    /// Precision over the repetitions.
    pub precision: Summary,
    /// Recall over the repetitions.
    pub recall: Summary,
}

/// One row of an accuracy figure: a fault count and the per-algorithm results.
#[derive(Debug, Clone)]
pub struct AccuracyRow {
    /// Number of simultaneously injected faults.
    pub faults: usize,
    /// Per-algorithm aggregated accuracy.
    pub algos: Vec<AlgoResult>,
}

/// Renders accuracy rows as a table (one line per fault count).
pub fn accuracy_table(title: &str, rows: &[AccuracyRow]) -> Table {
    let mut headers: Vec<String> = vec!["faults".to_string()];
    if let Some(first) = rows.first() {
        for algo in &first.algos {
            headers.push(format!("{} precision", algo.name));
            headers.push(format!("{} recall", algo.name));
        }
    }
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    let mut table = Table::new(title, &header_refs);
    for row in rows {
        let mut cells = vec![row.faults.to_string()];
        for algo in &row.algos {
            cells.push(fmt3(algo.precision.mean));
            cells.push(fmt3(algo.recall.mean));
        }
        table.row(cells);
    }
    table
}

/// Per-algorithm precision and recall samples of one fault count, in the
/// order the algorithms are first scored.
#[derive(Default)]
struct Tally(Vec<(String, Vec<f64>, Vec<f64>)>);

impl Tally {
    /// Scores algorithm `name`'s `hypothesis` against `truth`.
    fn add(&mut self, name: &str, truth: &BTreeSet<ObjectId>, hypothesis: &BTreeSet<ObjectId>) {
        let accuracy = Accuracy::of(truth, hypothesis);
        let at = match self.0.iter().position(|(n, ..)| n == name) {
            Some(at) => at,
            None => {
                self.0.push((name.to_string(), Vec::new(), Vec::new()));
                self.0.len() - 1
            }
        };
        self.0[at].1.push(accuracy.precision);
        self.0[at].2.push(accuracy.recall);
    }

    /// The aggregated row of `faults` simultaneous faults.
    fn row(self, faults: usize) -> AccuracyRow {
        let algos = self
            .0
            .into_iter()
            .map(|(name, precision, recall)| AlgoResult {
                name,
                precision: Summary::of(precision),
                recall: Summary::of(recall),
            })
            .collect();
        AccuracyRow { faults, algos }
    }
}

/// Localizes `model` with SCOUT and with one SCORE per threshold, tallying
/// each hypothesis against `truth`.
fn localize_into<E: Ord + Copy>(
    tally: &mut Tally,
    truth: &BTreeSet<ObjectId>,
    model: &RiskModel<E>,
    change_log: &ChangeLog,
    score_thresholds: &[f64],
) {
    let scout = scout_localize(model, change_log, ScoutConfig::default());
    tally.add("SCOUT", truth, &scout.objects());
    for &t in score_thresholds {
        tally.add(
            &format!("SCORE-{t}"),
            truth,
            &score_localize(model, t).objects(),
        );
    }
}

fn mix_seed(base: u64, faults: usize, run: usize) -> u64 {
    base.wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((faults as u64) << 32)
        .wrapping_add(run as u64)
}

/// Runs the model-level accuracy experiment of Figures 8 and 9.
///
/// For every fault count in `fault_counts`, `runs` independent repetitions are
/// executed: distinct faulty objects are drawn, full/partial faults are
/// synthesized onto the chosen risk model, and SCOUT plus one SCORE instance
/// per threshold in `score_thresholds` are evaluated against the ground truth.
pub fn accuracy_sweep(
    universe: &PolicyUniverse,
    kind: ModelKind,
    fault_counts: &[usize],
    runs: usize,
    base_seed: u64,
    score_thresholds: &[f64],
) -> Vec<AccuracyRow> {
    // Base (un-augmented) models are built once and cloned per repetition.
    let base_controller = controller_risk_model(universe);
    let base_switch: BTreeMap<SwitchId, RiskModel<EpgPair>> = match kind {
        ModelKind::Switch => universe
            .switch_ids()
            .into_iter()
            .map(|s| (s, switch_risk_model(universe, s)))
            .collect(),
        ModelKind::Controller => BTreeMap::new(),
    };

    let mut rows = Vec::new();
    for &faults in fault_counts {
        let mut tally = Tally::default();
        for run in 0..runs {
            let mut rng = StdRng::seed_from_u64(mix_seed(base_seed, faults, run));
            match kind {
                ModelKind::Controller => {
                    let injected = synthesize_object_faults(universe, faults, &mut rng);
                    let change_log = synthetic_change_log(universe, &injected);
                    let mut model = base_controller.clone();
                    injected.apply_to_controller_model(&mut model);
                    let truth = &injected.objects;
                    localize_into(&mut tally, truth, &model, &change_log, score_thresholds);
                }
                ModelKind::Switch => {
                    let switch = pick_switch_with_candidates(universe, faults, &mut rng);
                    let injected = scout_faults::synthesize_switch_scoped_faults(
                        universe, switch, faults, &mut rng,
                    );
                    let change_log = synthetic_change_log(universe, &injected);
                    let mut model = base_switch.get(&switch).cloned().unwrap_or_default();
                    injected.apply_to_switch_model(&mut model, switch);
                    let truth = &injected.objects;
                    localize_into(&mut tally, truth, &model, &change_log, score_thresholds);
                }
            }
        }
        rows.push(tally.row(faults));
    }
    rows
}

/// Picks a switch with at least `faults` candidate objects (falling back to
/// the switch with the most candidates if none has enough).
fn pick_switch_with_candidates<R: rand::Rng>(
    universe: &PolicyUniverse,
    faults: usize,
    rng: &mut R,
) -> SwitchId {
    use rand::seq::SliceRandom;
    let mut switches = universe.switch_ids();
    switches.shuffle(rng);
    let mut best = switches[0];
    let mut best_count = 0;
    for switch in switches {
        let count = scout_faults::candidate_objects_on_switch(universe, switch).len();
        if count >= faults.max(1) * 2 {
            return switch;
        }
        if count > best_count {
            best_count = count;
            best = switch;
        }
    }
    best
}

/// Runs the end-to-end testbed accuracy experiment of Figure 10: the testbed
/// policy is deployed through the fabric simulator, object faults are injected
/// by silently removing TCAM rules, and the full SCOUT pipeline (equivalence
/// check, controller risk model, localization) competes against
/// SCORE with threshold 1.
pub fn testbed_accuracy(
    spec: TestbedSpec,
    fault_counts: &[usize],
    runs: usize,
    base_seed: u64,
) -> Vec<AccuracyRow> {
    let universe = spec.generate(base_seed);
    let mut base_fabric = Fabric::new(universe);
    base_fabric.deploy();
    let engine = ScoutEngine::new();
    let session = engine.open_session(&base_fabric);

    let mut rows = Vec::new();
    for &faults in fault_counts {
        let mut tally = Tally::default();
        for run in 0..runs {
            let mut fabric = base_fabric.clone();
            let mut injector =
                FaultInjector::new(StdRng::seed_from_u64(mix_seed(base_seed, faults, run)));
            let truth = injector.inject_object_faults(&mut fabric, faults).objects();

            let report = session.analyze_clone(&fabric);
            tally.add("SCOUT", &truth, &report.hypothesis.objects());
            // SCORE baseline on the failure subgraph of the same check.
            let score = score_baseline(&fabric, &report);
            tally.add("SCORE-1", &truth, &score);
        }
        rows.push(tally.row(faults));
    }
    rows
}

/// Ablation of the SCOUT change-log stage (§IV-C claims the heuristic "makes a
/// huge improvement in accuracy"): compares full SCOUT, SCOUT with the
/// change-log stage disabled (an empty change log, so stage 2 never fires) and
/// SCORE-1.0 on the controller risk model.
pub fn changelog_ablation(
    universe: &PolicyUniverse,
    fault_counts: &[usize],
    runs: usize,
    base_seed: u64,
) -> Vec<AccuracyRow> {
    let base = controller_risk_model(universe);
    let empty_log = ChangeLog::new();
    let mut rows = Vec::new();
    for &faults in fault_counts {
        let mut tally = Tally::default();
        for run in 0..runs {
            let mut rng = StdRng::seed_from_u64(mix_seed(base_seed, faults, run));
            let injected = synthesize_object_faults(universe, faults, &mut rng);
            let change_log = synthetic_change_log(universe, &injected);
            let truth = &injected.objects;
            let mut model = base.clone();
            injected.apply_to_controller_model(&mut model);

            localize_into(&mut tally, truth, &model, &change_log, &[]);
            let ablated = scout_localize(&model, &empty_log, ScoutConfig::default());
            tally.add("SCOUT-no-changelog", truth, &ablated.objects());
            tally.add("SCORE-1.0", truth, &score_localize(&model, 1.0).objects());
        }
        rows.push(tally.row(faults));
    }
    rows
}

// ---------------------------------------------------------------------------
// Figure 7: suspect-set reduction
// ---------------------------------------------------------------------------

/// Renders a γ-by-bin table (Figure 7).
pub fn gamma_table(title: &str, bins: &Bins) -> Table {
    let mut table = Table::new(title, &["#suspect objects", "faults", "mean γ", "max γ"]);
    for (edge, summary) in bins.edges().iter().zip(bins.summaries()) {
        table.row([
            format!("{:.0}-{:.0}", edge.0, edge.1),
            summary.count.to_string(),
            fmt3(summary.mean),
            fmt3(summary.max),
        ]);
    }
    table
}

/// The Figure 7(b) simulation experiment: injects `num_faults` single object
/// faults (one at a time) at the risk-model level, runs SCOUT and records
/// γ = |hypothesis| / |suspect set|, binned by the suspect-set size.
pub fn suspect_reduction(
    universe: &PolicyUniverse,
    num_faults: usize,
    bin_edges: &[(f64, f64)],
    base_seed: u64,
) -> Bins {
    let base = controller_risk_model(universe);
    let mut bins = Bins::new(bin_edges);
    for i in 0..num_faults {
        let mut rng = StdRng::seed_from_u64(mix_seed(base_seed, 1, i));
        let injected = synthesize_object_faults(universe, 1, &mut rng);
        if injected.is_empty() {
            continue;
        }
        let change_log = synthetic_change_log(universe, &injected);
        let mut model = base.clone();
        injected.apply_to_controller_model(&mut model);
        let signature = model.failure_signature();
        let suspects = model.suspect_set(&signature);
        let hypothesis = scout_localize(&model, &change_log, ScoutConfig::default());
        bins.add(
            suspects.len() as f64,
            gamma(hypothesis.len(), suspects.len()),
        );
    }
    bins
}

/// The Figure 7(a) testbed experiment: same measurement, but each fault is
/// injected into a deployed fabric and detected through the full pipeline.
pub fn testbed_suspect_reduction(
    spec: TestbedSpec,
    num_faults: usize,
    bin_edges: &[(f64, f64)],
    base_seed: u64,
) -> Bins {
    let universe = spec.generate(base_seed);
    let mut base_fabric = Fabric::new(universe);
    base_fabric.deploy();
    let engine = ScoutEngine::new();

    let mut bins = Bins::new(bin_edges);
    for i in 0..num_faults {
        let mut fabric = base_fabric.clone();
        let mut injector = FaultInjector::new(StdRng::seed_from_u64(mix_seed(base_seed, 1, i)));
        let truth = injector.inject_object_faults(&mut fabric, 1);
        if truth.is_empty() {
            continue;
        }
        let report = engine.analyze(&fabric);
        bins.add(report.suspect_objects.len() as f64, report.gamma());
    }
    bins
}

// ---------------------------------------------------------------------------
// Scalability
// ---------------------------------------------------------------------------

/// One measurement of the scalability experiment.
#[derive(Debug, Clone, Copy)]
pub struct ScalabilityPoint {
    /// Number of leaf switches in the generated fabric.
    pub switches: usize,
    /// Number of `(switch, EPG pair)` elements in the controller risk model.
    pub elements: usize,
    /// Number of shared risks in the model.
    pub risks: usize,
    /// Time to build the controller risk model.
    pub build_time: Duration,
    /// Time to run SCOUT on the augmented model.
    pub localize_time: Duration,
}

/// Renders the deterministic part of the scalability points (model sizes) as
/// a table; the wall-clock columns vary run to run, so the `scalability` bin
/// prints them on stderr instead.
pub fn scalability_table(points: &[ScalabilityPoint]) -> Table {
    let mut table = Table::new(
        "Scalability — controller risk model size vs. fabric size",
        &["switches", "elements", "risks"],
    );
    for p in points {
        table.row([
            p.switches.to_string(),
            p.elements.to_string(),
            p.risks.to_string(),
        ]);
    }
    table
}

/// The §VI-B scalability experiment: for each switch count, generate the
/// scaled policy, build the controller risk model, inject `faults` object
/// faults and measure the SCOUT localization time.
pub fn scalability(
    switch_counts: &[usize],
    faults: usize,
    base_seed: u64,
) -> Vec<ScalabilityPoint> {
    let mut points = Vec::new();
    for &switches in switch_counts {
        let universe = ScaleSpec::with_switches(switches).generate(base_seed);

        let build_start = Instant::now();
        let base = controller_risk_model(&universe);
        let build_time = build_start.elapsed();

        let mut rng = StdRng::seed_from_u64(mix_seed(base_seed, faults, switches));
        let injected = synthesize_object_faults(&universe, faults, &mut rng);
        let change_log = synthetic_change_log(&universe, &injected);
        let mut model = base.clone();
        injected.apply_to_controller_model(&mut model);

        let localize_start = Instant::now();
        let hypothesis = scout_localize(&model, &change_log, ScoutConfig::default());
        let localize_time = localize_start.elapsed();
        // The hypothesis is intentionally unused beyond making sure the work is
        // not optimized away.
        std::hint::black_box(hypothesis.len());

        points.push(ScalabilityPoint {
            switches,
            elements: base.element_count(),
            risks: base.risk_count(),
            build_time,
            localize_time,
        });
    }
    points
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_workload::ClusterSpec;

    fn small_universe() -> PolicyUniverse {
        ClusterSpec::small().generate(1)
    }

    #[test]
    fn object_sharing_covers_every_class() {
        let cdfs = object_sharing(&small_universe());
        for class in [
            ObjectClass::Vrf,
            ObjectClass::Epg,
            ObjectClass::Contract,
            ObjectClass::Filter,
            ObjectClass::Switch,
        ] {
            assert!(cdfs.per_class.contains_key(&class), "missing {class}");
        }
        let table = sharing_table(&cdfs);
        assert_eq!(table.len(), 5);
    }

    #[test]
    fn accuracy_sweep_controller_produces_rows() {
        let u = small_universe();
        let rows = accuracy_sweep(&u, ModelKind::Controller, &[1, 3], 3, 7, &[0.6, 1.0]);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert_eq!(row.algos.len(), 3);
            for algo in &row.algos {
                assert!(algo.precision.mean >= 0.0 && algo.precision.mean <= 1.0);
                assert!(algo.recall.mean >= 0.0 && algo.recall.mean <= 1.0);
                assert_eq!(algo.precision.count, 3);
            }
        }
        let table = accuracy_table("fig9", &rows);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn scout_recall_beats_score_1_with_partial_faults() {
        // With several faults (half of them partial on average) SCOUT's recall
        // must be at least as good as SCORE-1.0's, which ignores partially
        // failed objects entirely.
        let u = small_universe();
        let rows = accuracy_sweep(&u, ModelKind::Controller, &[4], 10, 21, &[1.0]);
        let row = &rows[0];
        let scout = row.algos.iter().find(|a| a.name == "SCOUT").unwrap();
        let score = row.algos.iter().find(|a| a.name == "SCORE-1").unwrap();
        assert!(
            scout.recall.mean >= score.recall.mean,
            "SCOUT recall {} must be >= SCORE recall {}",
            scout.recall.mean,
            score.recall.mean
        );
        assert!(scout.recall.mean > 0.6);
    }

    #[test]
    fn accuracy_sweep_switch_model_produces_rows() {
        let u = small_universe();
        let rows = accuracy_sweep(&u, ModelKind::Switch, &[2], 3, 5, &[1.0]);
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].algos.len(), 2);
        assert!(rows[0].algos[0].recall.mean > 0.0);
    }

    #[test]
    fn suspect_reduction_gamma_is_small() {
        let u = small_universe();
        let bins = suspect_reduction(
            &u,
            20,
            &[(1.0, 10.0), (10.0, 50.0), (50.0, 100.0), (100.0, 1000.0)],
            3,
        );
        let summaries = bins.summaries();
        let total: usize = summaries.iter().map(|s| s.count).sum();
        assert!(total > 0, "at least some faults must fall into the bins");
        for s in summaries.iter().filter(|s| s.count > 0) {
            assert!(s.mean <= 1.0);
        }
        let table = gamma_table("fig7b", &bins);
        assert_eq!(table.len(), 4);
    }

    #[test]
    fn testbed_experiments_run_end_to_end() {
        let spec = TestbedSpec {
            epgs: 12,
            contracts: 8,
            filters: 4,
            target_pairs: 20,
            switches: 3,
            tcam_capacity: 1024,
        };
        let rows = testbed_accuracy(spec, &[1, 2], 2, 11);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            let scout = &row.algos[0];
            assert_eq!(scout.name, "SCOUT");
            assert!(scout.recall.mean > 0.0);
        }
        let bins = testbed_suspect_reduction(spec, 5, &[(1.0, 20.0), (20.0, 60.0)], 13);
        let total: usize = bins.summaries().iter().map(|s| s.count).sum();
        assert_eq!(total, 5);
    }

    #[test]
    fn changelog_stage_is_what_recovers_partial_faults() {
        let u = small_universe();
        let rows = changelog_ablation(&u, &[5], 8, 31);
        let row = &rows[0];
        let full = row.algos.iter().find(|a| a.name == "SCOUT").unwrap();
        let ablated = row
            .algos
            .iter()
            .find(|a| a.name == "SCOUT-no-changelog")
            .unwrap();
        let score = row.algos.iter().find(|a| a.name == "SCORE-1.0").unwrap();
        // Without the change-log stage, SCOUT degenerates towards SCORE-1.0's
        // recall; with it, recall is clearly higher.
        assert!(full.recall.mean > ablated.recall.mean + 0.05);
        assert!((ablated.recall.mean - score.recall.mean).abs() < 0.2);
    }

    #[test]
    fn scalability_points_grow_with_switches() {
        let points = scalability(&[2, 6], 3, 5);
        assert_eq!(points.len(), 2);
        assert!(points[1].elements > points[0].elements);
        assert!(points[1].switches == 6);
        let table = scalability_table(&points);
        assert_eq!(table.len(), 2);
    }

    #[test]
    fn mix_seed_is_stable_and_distinct() {
        assert_eq!(mix_seed(1, 2, 3), mix_seed(1, 2, 3));
        assert_ne!(mix_seed(1, 2, 3), mix_seed(1, 2, 4));
        assert_ne!(mix_seed(1, 2, 3), mix_seed(2, 2, 3));
    }
}
