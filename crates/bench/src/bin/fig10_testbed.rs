//! Reproduces Figure 10: end-to-end accuracy on the testbed policy.
//!
//! Unlike Figures 8 and 9 (risk-model-level simulation), this experiment runs
//! the full pipeline: the testbed policy is deployed through the fabric
//! simulator, object faults silently remove TCAM rules, the equivalence
//! checker recovers the missing rules, and SCOUT competes against SCORE with
//! threshold 1 on the augmented controller risk model (10 runs per point in
//! the paper).
//!
//! Usage:
//! ```text
//! cargo run --release -p scout-bench --bin fig10_testbed -- --runs 10
//! ```

use scout_bench::experiments::accuracy_table;
use scout_bench::{arg_value, testbed_accuracy};
use scout_workload::TestbedSpec;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = arg_value(&args, "--seed", 1);
    let runs: usize = arg_value(&args, "--runs", 10);

    eprintln!("figure 10: testbed end-to-end accuracy, {runs} runs per point, seed {seed}");
    let fault_counts: Vec<usize> = (1..=10).collect();
    let rows = testbed_accuracy(TestbedSpec::paper(), &fault_counts, runs, seed);
    println!(
        "{}",
        accuracy_table("Figure 10 — end-to-end accuracy on the testbed", &rows)
    );
}
