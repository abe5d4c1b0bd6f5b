//! Property tests for the campaign engine: localization invariants must hold
//! on every outcome of randomized multi-fault campaigns, campaigns must be
//! deterministic per seed (regardless of thread count), and
//! healthy fabrics must always be reported consistent.

use scout::core::ScoutEngine;
use scout::fabric::Fabric;
use scout::sim::{Campaign, Parallelism, ScenarioMix, WorkloadKind};
use scout::workload::{ClusterSpec, ScaleSpec, TestbedSpec};

fn small_testbed() -> WorkloadKind {
    WorkloadKind::Testbed(TestbedSpec {
        epgs: 12,
        contracts: 8,
        filters: 4,
        target_pairs: 20,
        switches: 3,
        tcam_capacity: 1024,
    })
}

fn tiny_cluster() -> WorkloadKind {
    WorkloadKind::Cluster(ClusterSpec {
        vrfs: 2,
        epgs: 24,
        contracts: 16,
        filters: 8,
        switches: 4,
        max_endpoints_per_epg: 2,
        hub_contract_fraction: 0.2,
        max_hub_fanout: 12,
        tcam_capacity: 4096,
    })
}

/// Localization invariants, checked on every scenario of mixed campaigns over
/// two workloads and several seeds:
///
/// * the session's report equals a from-scratch analysis (the oracle);
/// * the hypothesis is a subset of the pre-localization suspect set;
/// * `explained_by_cover + explained_by_changelog + unexplained` equals the
///   number of observations;
/// * a consistent scenario has no observations, an empty hypothesis and γ = 0;
/// * an inconsistent scenario with observations has γ ∈ (0, 1].
#[test]
fn campaign_outcomes_satisfy_localization_invariants() {
    for (workload, seed) in [
        (small_testbed(), 3u64),
        (small_testbed(), 17),
        (tiny_cluster(), 5),
    ] {
        let run = Campaign {
            max_faults: 4,
            ..Campaign::new(workload, 40, seed)
        }
        .run();
        assert_eq!(run.outcomes.len(), 40);
        for outcome in &run.outcomes {
            let tag = format!("seed {seed} scenario {}", outcome.index);
            assert_eq!(
                outcome.oracle_agrees,
                Some(true),
                "{tag}: the session must match a from-scratch analysis"
            );
            assert!(
                outcome.hypothesis.is_subset(&outcome.suspects),
                "{tag}: hypothesis must be within the suspect set"
            );
            assert_eq!(
                outcome.explained_by_cover + outcome.explained_by_changelog + outcome.unexplained,
                outcome.observations,
                "{tag}: explanation accounting must cover the observations"
            );
            if outcome.consistent {
                assert_eq!(outcome.observations, 0, "{tag}");
                assert_eq!(outcome.missing_rules, 0, "{tag}");
                assert!(outcome.hypothesis.is_empty(), "{tag}");
                assert_eq!(outcome.gamma, 0.0, "{tag}");
            } else if outcome.observations > 0 {
                assert!(
                    outcome.gamma > 0.0 && outcome.gamma <= 1.0,
                    "{tag}: gamma {} out of (0, 1]",
                    outcome.gamma
                );
                assert!(!outcome.suspects.is_empty(), "{tag}");
            }
            // Fault bookkeeping: an inert disturbance claims no ground truth.
            if outcome.fault_count == 0 {
                assert!(outcome.truth.is_empty(), "{tag}");
            }
        }
    }
}

/// Same seed, same aggregate report — across thread counts (an axis that
/// must never affect results, only wall-clock).
#[test]
fn campaigns_are_deterministic_per_seed() {
    let base = Campaign {
        max_faults: 3,
        concurrency: Parallelism::Sequential,
        ..Campaign::new(small_testbed(), 24, 99)
    };
    let reference = base.run();
    assert!(reference
        .outcomes
        .iter()
        .all(|o| o.oracle_agrees == Some(true)));
    let threaded = Campaign {
        concurrency: Parallelism::Fixed(4),
        ..base
    }
    .run();
    assert_eq!(reference.outcomes, threaded.outcomes);
    assert_eq!(reference.report(), threaded.report());
}

/// A campaign restricted to object faults drives the accuracy population the
/// golden regression test gates on; sanity-check its shape here.
#[test]
fn object_fault_campaign_produces_scored_population() {
    let run = Campaign {
        mix: ScenarioMix::object_faults_only(),
        max_faults: 2,
        ..Campaign::new(small_testbed(), 30, 7)
    }
    .run();
    let report = run.report();
    let faulty: usize = report.per_kind.values().map(|s| s.faulty).sum();
    assert!(faulty >= 25, "most scenarios must inject successfully");
    assert!(report.object_recall.count == faulty);
    assert!(report.object_recall.mean > 0.5);
    assert!(!report.gamma.is_empty());
}

/// Healthy fabrics are always consistent: deploying any workload without a
/// disturbance must produce an empty report through the full pipeline.
#[test]
fn healthy_fabrics_are_always_consistent() {
    let workloads = [
        small_testbed(),
        tiny_cluster(),
        WorkloadKind::Scale(ScaleSpec::with_switches(6)),
    ];
    for (i, workload) in workloads.into_iter().enumerate() {
        for seed in [1u64, 23] {
            let mut fabric = Fabric::new(workload.generate(seed));
            fabric.deploy();
            let engine = ScoutEngine::new();
            let report = engine.analyze(&fabric);
            assert!(report.is_consistent(), "workload {i} seed {seed}");
            assert!(report.hypothesis.is_empty(), "workload {i} seed {seed}");
            assert_eq!(report.gamma(), 0.0, "workload {i} seed {seed}");
            // The baseline snapshot agrees with the report.
            assert!(engine.open_session(&fabric).is_consistent());
        }
    }
}
