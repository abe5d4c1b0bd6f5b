//! The hostile-telemetry sweep: SCOUT under lying, lossy, and torn inputs,
//! as one seeded, parallel, self-checking run.
//!
//! Drives `--per-class` scenarios of each of the five hostile classes
//! (lossy probe, torn sync, flapping, gray failure, missing logs) through
//! the full pipeline on the chosen workload, prints the per-class accuracy
//! and rank-quality table, and — unless `--no-golden` is given — asserts:
//!
//! * **determinism** — a second run with the same seed produces an identical
//!   aggregate report;
//! * **recovery** — the lossy-probe class needed (and survived) at least one
//!   full resync;
//! * **golden accuracy** — with ≥100 scenarios per class, SCOUT's recall
//!   meets or beats SCORE-1.0 in every class, and the missing-logs class
//!   places the true root cause in the top-3 of the ranked partial
//!   diagnosis in at least 70% of the faulty scenarios.
//!
//! ```text
//! cargo run --release -p scout-bench --bin hostile -- --per-class 100
//! ```

use std::time::Instant;

use scout_bench::{arg_value, has_flag, threads_arg};
use scout_sim::{HostileCampaign, HostileKind, WorkloadKind};
use scout_workload::{ClusterSpec, TestbedSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let per_class = arg_value(&args, "--per-class", 100usize);
    let seed = arg_value(&args, "--seed", 42u64);
    let max_faults = arg_value(&args, "--max-faults", 3usize);
    let workload_name: String = arg_value(&args, "--workload", "testbed".to_string());
    let golden = !has_flag(&args, "--no-golden");

    let workload = match workload_name.as_str() {
        "cluster" => WorkloadKind::Cluster(ClusterSpec::small()),
        "testbed" => WorkloadKind::Testbed(TestbedSpec::paper()),
        other => {
            eprintln!("unknown workload {other:?}; use cluster or testbed");
            std::process::exit(2);
        }
    };
    let concurrency = threads_arg(&args);
    let campaign = HostileCampaign {
        max_faults,
        concurrency,
        ..HostileCampaign::new(workload, per_class, seed)
    };

    println!(
        "hostile: {per_class} scenarios/class on {workload_name}, seed {seed}, \
         max {max_faults} faults, {concurrency:?}"
    );
    let start = Instant::now();
    let run = campaign.run();
    let wall = start.elapsed();
    let report = run.report();
    println!("\n{}", report.table());
    println!("wall time: {wall:?}");

    if !golden {
        return;
    }

    // Determinism: the same seed reproduces the aggregate bit for bit.
    let rerun = campaign.run().report();
    assert_eq!(rerun, report, "same seed must reproduce the same report");
    println!("determinism: second run identical ✓");

    // Recovery: losses occurred and every one was survived via resync.
    let lossy = report
        .class(HostileKind::LossyProbe)
        .expect("the lossy class ran");
    assert!(lossy.disturbed > 0, "the transport must disturb batches");
    assert!(lossy.resyncs > 0, "lost batches must force full resyncs");
    println!(
        "recovery: {} disturbed batches, {} resyncs survived ✓",
        lossy.disturbed, lossy.resyncs
    );

    // Golden accuracy thresholds (≥100 scenarios/class keeps the means
    // statistical; calibrated with margin on the testbed workload).
    if per_class >= 100 && workload_name == "testbed" {
        for kind in HostileKind::ALL {
            let stats = report.class(kind).expect("every class ran");
            let scout = stats.recall.mean;
            let score = stats.score_recall.mean;
            assert!(
                scout >= score,
                "{kind}: SCOUT recall {scout:.3} below SCORE's {score:.3}"
            );
        }
        let missing = report
            .class(HostileKind::MissingLogs)
            .expect("the missing-logs class ran");
        assert_eq!(
            missing.ranked_nonempty, missing.faulty,
            "wiped logs must still yield a ranked diagnosis"
        );
        let top3 = missing.rank.top3_rate();
        assert!(top3 >= 0.70, "missing-logs top-3 rate {top3:.3} below 0.70");
        println!(
            "golden thresholds: SCOUT ≥ SCORE in all classes, \
             missing-logs top-3 {top3:.3} ✓"
        );
    } else {
        println!("golden thresholds skipped ({per_class} scenarios/class < 100 or uncalibrated workload)");
    }
}
