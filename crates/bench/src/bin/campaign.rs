//! The fault-campaign sweep: the paper's accuracy evaluation (§VI) as one
//! seeded, parallel, self-checking run.
//!
//! Drives `--scenarios` randomized disturbances (object faults, physical
//! faults, churn, concurrent updates) through the full SCOUT pipeline on the
//! chosen workload, prints the per-kind and headline accuracy tables, and —
//! unless `--no-golden` is given — asserts:
//!
//! * **determinism** — a second run with the same seed produces an identical
//!   aggregate report;
//! * **the oracle** — under the engine's default cadence every scenario's
//!   session analysis is compared against a from-scratch one: at least one
//!   must be checked and none may disagree;
//! * **golden accuracy** — SCOUT's precision/recall on object faults and its
//!   recall lead over SCORE-1.0 on partial faults stay above the committed
//!   thresholds (the claims of the paper's Figures 7–9).
//!
//! ```text
//! cargo run --release -p scout-bench --bin campaign -- --scenarios 200
//! ```

use scout_bench::{arg_value, has_flag, threads_arg};
use scout_sim::{Campaign, WorkloadKind};
use scout_workload::{ClusterSpec, ScaleSpec, TestbedSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let scenarios = arg_value(&args, "--scenarios", 200usize);
    let seed = arg_value(&args, "--seed", 42u64);
    let max_faults = arg_value(&args, "--max-faults", 3usize);
    let workload_name: String = arg_value(&args, "--workload", "cluster".to_string());
    let golden = !has_flag(&args, "--no-golden");

    let workload = match workload_name.as_str() {
        "cluster" => WorkloadKind::Cluster(ClusterSpec::small()),
        "cluster-paper" => WorkloadKind::Cluster(ClusterSpec::paper()),
        "testbed" => WorkloadKind::Testbed(TestbedSpec::paper()),
        "scale" => WorkloadKind::Scale(ScaleSpec::with_switches(32)),
        other => {
            eprintln!("unknown workload {other:?}; use cluster, cluster-paper, testbed or scale");
            std::process::exit(2);
        }
    };
    let concurrency = threads_arg(&args);
    let campaign = Campaign {
        max_faults,
        concurrency,
        ..Campaign::new(workload, scenarios, seed)
    };

    println!(
        "campaign: {scenarios} scenarios on {workload_name}, seed {seed}, \
         max {max_faults} faults, {concurrency:?}"
    );
    let run = campaign.run();
    let report = run.report();
    println!("\n{}", report.table());
    println!("{}", report.headline_table());
    println!("campaign wall time: {:?}", run.elapsed);

    if !golden {
        return;
    }

    // Determinism: the same seed reproduces the aggregate bit for bit.
    let rerun = campaign.run().report();
    assert_eq!(rerun, report, "same seed must reproduce the same report");
    println!("determinism: second run identical ✓");

    // The oracle: session analyses agree with from-scratch ones.
    let checked = run
        .outcomes
        .iter()
        .filter(|o| o.oracle_agrees.is_some())
        .count();
    assert!(checked > 0, "the oracle checked no scenario");
    assert!(
        run.outcomes.iter().all(|o| o.oracle_agrees != Some(false)),
        "session and from-scratch analyses disagree"
    );
    println!("oracle: {checked} scenarios checked, 0 disagreements ✓");

    // Golden accuracy thresholds: calibrated (with margin) on the cluster and
    // testbed workloads only — the scale workload replicates its policy per
    // switch, so SCORE is not structurally blind to partial faults there and
    // the recall-gap claim does not apply. ≥100 scenarios keeps the means
    // statistical.
    let calibrated = matches!(
        workload_name.as_str(),
        "cluster" | "cluster-paper" | "testbed"
    );
    if !calibrated {
        println!("golden thresholds skipped (not calibrated for {workload_name:?})");
    } else if scenarios >= 100 {
        let p = report.object_precision.mean;
        let r = report.object_recall.mean;
        let pr = report.partial_recall.mean;
        let sr = report.score_partial_recall.mean;
        assert!(p >= 0.75, "SCOUT object-fault precision {p:.3} below 0.75");
        assert!(r >= 0.85, "SCOUT object-fault recall {r:.3} below 0.85");
        assert!(pr >= 0.85, "SCOUT partial-fault recall {pr:.3} below 0.85");
        assert!(
            pr >= sr + 0.1,
            "SCOUT partial-fault recall {pr:.3} must clearly beat SCORE's {sr:.3}"
        );
        if !report.gamma.is_empty() {
            let g = report.gamma.summary().mean;
            assert!(
                g > 0.0 && g <= 0.5,
                "mean γ {g:.3} out of the expected band"
            );
        }
        println!("golden thresholds: P={p:.3} R={r:.3} partial R={pr:.3} (SCORE {sr:.3}) ✓");
    } else {
        println!("golden thresholds skipped ({scenarios} scenarios < 100)");
    }
}
