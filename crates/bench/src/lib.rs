//! # scout-bench
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the
//! repo root is the crate-by-crate tour showing where this crate sits in
//! the pipeline.
//!
//! The paper reproduction: one binary per table and figure of the paper's
//! evaluation (§VI), plus the seeded golden-threshold sweeps CI runs. How
//! fast the system is gets measured elsewhere — by the stand-alone
//! `benchmark/` package declared in `BENCHMARK.json`.
//!
//! | target | reproduces |
//! |--------|------------|
//! | `fig3_object_sharing` | Figure 3 — CDF of EPG pairs per object |
//! | `fig7_suspect_reduction` | Figure 7(a)/(b) — suspect-set reduction γ |
//! | `fig8_switch_model` | Figure 8 — precision/recall on the switch risk model |
//! | `fig9_controller_model` | Figure 9 — precision/recall on the controller risk model |
//! | `fig10_testbed` | Figure 10 — end-to-end accuracy on the testbed |
//! | `scalability` | §VI-B scalability — localization time vs. switch count |
//! | `ablation_changelog` | §IV-C — contribution of SCOUT's change-log stage |
//! | `campaign`, `soak`, `hostile` | seeded sweeps with golden accuracy thresholds |
//!
//! The reusable experiment logic lives in [`experiments`], where the crate's
//! unit tests exercise the same code the binaries run.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;

use scout_core::Parallelism;

pub use experiments::{
    accuracy_sweep, accuracy_table, gamma_table, object_sharing, scalability, scalability_table,
    sharing_table, suspect_reduction, testbed_accuracy, testbed_suspect_reduction, AccuracyRow,
    AlgoResult, ModelKind, ScalabilityPoint, SharingCdfs,
};

/// Parses a `--flag value` pair from CLI arguments, returning the default when
/// the flag is absent or malformed.
pub fn arg_value<T: std::str::FromStr>(args: &[String], flag: &str, default: T) -> T {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Parses `--threads N` into the workspace's thread policy: 0 (or no flag)
/// lets the machine decide, 1 is sequential, `n` asks for `n` workers.
pub fn threads_arg(args: &[String]) -> Parallelism {
    match arg_value(args, "--threads", 0usize) {
        0 => Parallelism::Auto,
        1 => Parallelism::Sequential,
        n => Parallelism::Fixed(n),
    }
}

/// Returns `true` if the flag is present among the CLI arguments.
pub fn has_flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arg_value_parses_present_flag() {
        let args: Vec<String> = ["--runs", "5", "--setting", "testbed"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--runs", 30usize), 5);
        assert_eq!(
            arg_value::<String>(&args, "--setting", "sim".into()),
            "testbed"
        );
        assert_eq!(arg_value(&args, "--seed", 42u64), 42);
        assert!(has_flag(&args, "--runs"));
        assert!(!has_flag(&args, "--full"));
    }

    #[test]
    fn arg_value_falls_back_on_malformed_input() {
        let args: Vec<String> = ["--runs", "not-a-number"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(arg_value(&args, "--runs", 30usize), 30);
    }

    #[test]
    fn threads_arg_maps_zero_one_and_n() {
        let parse = |value: &str| threads_arg(&["--threads".to_string(), value.to_string()]);
        assert_eq!(threads_arg(&[]), Parallelism::Auto);
        assert_eq!(parse("0"), Parallelism::Auto);
        assert_eq!(parse("1"), Parallelism::Sequential);
        assert_eq!(parse("4"), Parallelism::Fixed(4));
    }
}
