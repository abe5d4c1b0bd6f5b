//! The long-horizon soak run: a multi-epoch fault timeline with online
//! repair, analyzed incrementally and differentially checked against
//! from-scratch analysis.
//!
//! Drives `--epochs` epochs of overlapping fault injections, repairs and
//! concurrent policy edits over one continuously-monitored fabric, prints the
//! lifecycle report and the per-epoch timeline, and — unless `--no-golden` is
//! given — asserts:
//!
//! * **oracle agreement** — the incremental report is bit-identical to a
//!   from-scratch analysis at every checked epoch;
//! * **determinism** — a second run with the same seed produces an identical
//!   timeline;
//! * **observable repairs** — at least one repaired fault demonstrably left
//!   the report (`repair_clearances > 0`).
//!
//! ```text
//! cargo run --release -p scout-bench --bin soak -- --epochs 200 --seed 42
//! ```

use std::time::Instant;

use scout_bench::{arg_value, has_flag};
use scout_core::EngineConfig;
use scout_sim::{OracleCadence, Timeline, WorkloadKind};
use scout_workload::{ClusterSpec, ScaleSpec, TestbedSpec};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let epochs = arg_value(&args, "--epochs", 200usize);
    let seed = arg_value(&args, "--seed", 42u64);
    let stride = arg_value(&args, "--oracle-stride", 1usize);
    let workload_name: String = arg_value(&args, "--workload", "testbed".to_string());
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
    let oracle = if stride <= 1 {
        OracleCadence::EveryEpoch
    } else {
        OracleCadence::Stride(stride)
    };
    let timeline = Timeline {
        engine: EngineConfig {
            oracle,
            ..EngineConfig::default()
        },
        ..Timeline::new(workload, epochs, seed)
    };

    println!(
        "soak: {epochs} epochs on {workload_name}, seed {seed}, oracle {:?}",
        timeline.engine.oracle
    );
    let start = Instant::now();
    let run = timeline.run();
    let wall = start.elapsed();
    let report = run.outcome.report();
    println!("\n{}", report.table());
    println!("{}", report.timeline_table(64));
    let inc = run.incremental_cost.summary();
    let scratch = run.scratch_cost.summary();
    eprintln!("wall time: {wall:?}");
    eprintln!(
        "epoch analysis cost: incremental mean {:.1} µs, from-scratch mean {:.1} µs ({:.1}x)",
        inc.mean / 1e3,
        scratch.mean / 1e3,
        scratch.mean / inc.mean.max(1.0),
    );

    if !golden {
        return;
    }

    let disagreements = run.outcome.oracle_disagreements();
    assert!(
        disagreements.is_empty(),
        "differential oracle disagreed at epochs {disagreements:?}"
    );
    assert!(
        report.oracle_epochs > 0,
        "the golden soak must actually run the oracle"
    );
    println!(
        "oracle: {} epochs checked, all bit-identical ✓",
        report.oracle_epochs
    );

    let rerun = timeline.run();
    assert_eq!(
        rerun.outcome, run.outcome,
        "same seed must reproduce the same timeline"
    );
    println!("determinism: second run identical ✓");

    assert!(
        report.repair_clearances > 0,
        "no repair visibly cleared a localized object — the lifecycle is not \
         being exercised"
    );
    println!(
        "repairs: {} clearances observed across {} healed faults ✓",
        report.repair_clearances, report.healed_faults
    );
}
