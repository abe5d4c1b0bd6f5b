//! Accuracy-oriented integration tests: the model-level fault synthesis used by
//! the large-scale experiments is validated against the full fabric pipeline,
//! and the headline comparison of the paper (SCOUT recall beats SCORE's on
//! partial faults, without losing precision) is asserted on a small cluster.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::SeedableRng;

use scout::core::{
    augment_controller_model, controller_risk_model, score_localize, scout_localize, ScoutConfig,
    ScoutEngine,
};
use scout::equiv::EquivalenceChecker;
use scout::fabric::Fabric;
use scout::faults::{
    synthesize_fault_on, synthesize_object_faults, synthetic_change_log, FaultInjector,
    ObjectFaultKind, SyntheticFaults,
};
use scout::metrics::Accuracy;
use scout::policy::{sample, ObjectId, PolicyUniverse};
use scout::sim::{Campaign, CampaignReport, WorkloadKind};
use scout::workload::{ClusterSpec, TestbedSpec};

/// The model-level synthesis of a *full* object fault must mark exactly the
/// same `(switch, pair)` elements as failed as the real pipeline does when the
/// same object's rules are removed from the deployed TCAMs.
#[test]
fn synthetic_full_fault_matches_fabric_pipeline() {
    let universe = sample::three_tier();
    let object = ObjectId::Filter(sample::F_700);

    // Ground truth through the fabric + equivalence checker.
    let mut fabric = Fabric::new(universe.clone());
    fabric.deploy();
    let mut injector = FaultInjector::new(StdRng::seed_from_u64(1));
    injector
        .inject_fault_on(&mut fabric, object, ObjectFaultKind::Full)
        .unwrap();
    let checker = EquivalenceChecker::new();
    let check = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
    let mut fabric_model = controller_risk_model(&universe);
    augment_controller_model(&mut fabric_model, check.missing_rules());

    // Model-level synthesis of the same fault.
    let mut rng = StdRng::seed_from_u64(1);
    let violations =
        synthesize_fault_on(&universe, object, ObjectFaultKind::Full, &mut rng).unwrap();
    let synthetic = SyntheticFaults {
        objects: BTreeSet::from([object]),
        violations,
    };
    let mut synthetic_model = controller_risk_model(&universe);
    synthetic.apply_to_controller_model(&mut synthetic_model);

    assert_eq!(
        fabric_model.failure_signature(),
        synthetic_model.failure_signature()
    );
    for element in fabric_model.failure_signature() {
        assert_eq!(
            fabric_model.failed_risks_of(&element),
            synthetic_model.failed_risks_of(&element),
            "failed risks differ for {element}"
        );
    }
}

fn model_level_accuracy(
    universe: &PolicyUniverse,
    faults: usize,
    runs: usize,
) -> (Accuracy, Accuracy) {
    let base = controller_risk_model(universe);
    let mut scout_precision = 0.0;
    let mut scout_recall = 0.0;
    let mut score_precision = 0.0;
    let mut score_recall = 0.0;
    for run in 0..runs {
        let mut rng = StdRng::seed_from_u64(1000 + run as u64);
        let injected = synthesize_object_faults(universe, faults, &mut rng);
        let change_log = synthetic_change_log(universe, &injected);
        let mut model = base.clone();
        injected.apply_to_controller_model(&mut model);

        let truth = injected.objects.clone();
        let scout = scout_localize(&model, &change_log, ScoutConfig::default());
        let score = score_localize(&model, 1.0);
        let scout_acc = Accuracy::of(&truth, &scout.objects());
        let score_acc = Accuracy::of(&truth, &score.objects());
        scout_precision += scout_acc.precision;
        scout_recall += scout_acc.recall;
        score_precision += score_acc.precision;
        score_recall += score_acc.recall;
    }
    let n = runs as f64;
    (
        Accuracy {
            precision: scout_precision / n,
            recall: scout_recall / n,
            true_positives: 0,
            false_positives: 0,
            false_negatives: 0,
        },
        Accuracy {
            precision: score_precision / n,
            recall: score_recall / n,
            true_positives: 0,
            false_positives: 0,
            false_negatives: 0,
        },
    )
}

/// The paper's headline result (Figures 8 and 9): SCOUT's recall is clearly
/// better than SCORE's with threshold 1, without giving up much precision.
#[test]
fn scout_beats_score_on_recall_without_losing_precision() {
    let universe = ClusterSpec::small().generate(11);
    let (scout, score) = model_level_accuracy(&universe, 5, 8);
    assert!(
        scout.recall >= score.recall + 0.1,
        "SCOUT recall {:.3} should clearly exceed SCORE recall {:.3}",
        scout.recall,
        score.recall
    );
    assert!(
        scout.recall >= 0.75,
        "SCOUT recall {:.3} should be high",
        scout.recall
    );
    assert!(
        scout.precision >= score.precision - 0.15,
        "SCOUT precision {:.3} must stay comparable to SCORE's {:.3}",
        scout.precision,
        score.precision
    );
}

/// A single fault must be found with perfect recall by the end-to-end system
/// on the testbed policy (the paper reports 100% recall below four faults).
#[test]
fn single_faults_are_always_found_on_the_testbed() {
    let universe = TestbedSpec::paper().generate(3);
    let mut base_fabric = Fabric::new(universe);
    base_fabric.deploy();
    let engine = ScoutEngine::new();

    for seed in 0..5u64 {
        let mut fabric = base_fabric.clone();
        let mut injector = FaultInjector::new(StdRng::seed_from_u64(seed));
        let truth = injector.inject_object_faults(&mut fabric, 1).objects();
        let report = engine.analyze(&fabric);
        let acc = Accuracy::of(&truth, &report.hypothesis.objects());
        assert_eq!(
            acc.recall, 1.0,
            "seed {seed}: the single injected fault must be recalled"
        );
        // γ stays small: the admin examines a handful of objects at most.
        assert!(report.hypothesis.len() <= report.suspect_objects.len());
    }
}

/// Injecting zero faults leaves the system consistent and the hypothesis
/// empty (no false alarms).
#[test]
fn no_faults_no_alarms() {
    let universe = TestbedSpec::paper().generate(9);
    let mut fabric = Fabric::new(universe);
    fabric.deploy();
    let report = ScoutEngine::new().analyze(&fabric);
    assert!(report.is_consistent());
    assert!(report.hypothesis.is_empty());
}

/// Golden accuracy regression: a fixed-seed 200-scenario campaign through the
/// *full* pipeline (deploy → disturb → L–T check → localize → correlate) must
/// stay above the committed thresholds, and SCOUT's recall must clearly beat
/// SCORE-1.0's on partial faults — the paper's Figures 7/8 claim.
///
/// The aggregate is deterministic for the fixed seed, so any regression in
/// the checker, the risk models, the localization stages or the campaign
/// engine shifts these numbers and fails the build. Thresholds carry margin
/// below the currently observed values (P 0.856, R 0.934, partial R 0.932 vs
/// SCORE 0.375, mean γ 0.194 at seed 42).
#[test]
fn golden_campaign_accuracy_thresholds() {
    let workload = WorkloadKind::Testbed(TestbedSpec {
        epgs: 12,
        contracts: 8,
        filters: 4,
        target_pairs: 20,
        switches: 3,
        tcam_capacity: 1024,
    });
    let campaign = Campaign::new(workload, 200, 42);
    let report = CampaignReport::of(&campaign.run());
    assert_eq!(report.scenarios, 200);

    // Determinism of the aggregate itself.
    assert_eq!(CampaignReport::of(&campaign.run()), report);

    let precision = report.objects.precision.mean;
    let recall = report.objects.recall.mean;
    assert!(
        precision >= 0.78,
        "SCOUT object-fault precision regressed: {precision:.3} < 0.78"
    );
    assert!(
        recall >= 0.88,
        "SCOUT object-fault recall regressed: {recall:.3} < 0.88"
    );

    // The headline comparison: on partial faults SCORE-1.0 is structurally
    // blind (hit ratio < 1), SCOUT recovers them through the change log.
    let scout_partial = report.partial.recall.mean;
    let score_partial = report.partial.score_recall.mean;
    assert!(
        scout_partial >= 0.85,
        "SCOUT partial-fault recall regressed: {scout_partial:.3} < 0.85"
    );
    assert!(
        scout_partial >= score_partial + 0.2,
        "SCOUT partial-fault recall {scout_partial:.3} must clearly beat \
         SCORE-1.0's {score_partial:.3}"
    );

    // Suspect-set reduction: localization must keep saving the admin work.
    let gamma = report.gamma.summary();
    assert!(gamma.count > 0);
    assert!(
        gamma.mean > 0.0 && gamma.mean <= 0.35,
        "mean γ {:.3} outside the expected band",
        gamma.mean
    );
}
