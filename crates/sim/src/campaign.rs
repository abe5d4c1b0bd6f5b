//! The campaign runner: batches of seeded scenarios, executed in parallel,
//! aggregated into a deterministic report.
//!
//! A [`Campaign`] fixes a workload, a scenario count, a disturbance mix and a
//! seed; [`Campaign::run`] builds one [`ScoutEngine`] from the campaign's
//! [`EngineConfig`], deploys the reference fabric once, fans the scenarios
//! out over [`Campaign::concurrency`] with one [`AnalysisSession`] per
//! worker, and drives every scenario through the full pipeline. Scenario `i`
//! depends only on `scenario_seed(campaign_seed, i)`, so the outcome vector —
//! and the aggregate [`CampaignReport`] — is identical regardless of thread
//! count.

use std::collections::{BTreeMap, BTreeSet};

use scout_core::{AnalysisSession, EngineConfig, Parallelism, ScoutEngine};
use scout_fabric::Fabric;
use scout_metrics::{fmt3, fmt_mean, Cdf, Table};

use crate::scenario::{run_scenario, ScenarioKind, ScenarioMix, ScenarioOutcome, WorkloadKind};
use crate::score::AccuracyStats;

/// Configuration of one fault campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Campaign {
    /// The policy generator for the reference fabric.
    pub workload: WorkloadKind,
    /// Number of scenarios to run.
    pub scenarios: usize,
    /// Maximum simultaneous object faults per scenario (at least 1 is used).
    pub max_faults: usize,
    /// Relative weights of the disturbance kinds.
    pub mix: ScenarioMix,
    /// The campaign seed; scenario `i` derives its own seed from it.
    pub seed: u64,
    /// Worker-thread policy.
    pub concurrency: Parallelism,
    /// The analysis-engine configuration (localization knobs, checker
    /// parallelism, cache budgets, oracle cadence) every scenario runs under.
    pub engine: EngineConfig,
}

impl Campaign {
    /// A campaign with the default mix, fault bound, parallelism and engine
    /// configuration (the oracle checks every scenario).
    pub fn new(workload: WorkloadKind, scenarios: usize, seed: u64) -> Self {
        Self {
            workload,
            scenarios,
            max_faults: 3,
            mix: ScenarioMix::default(),
            seed,
            concurrency: Parallelism::Auto,
            engine: EngineConfig::default(),
        }
    }

    /// Deploys the reference fabric and runs every scenario against a
    /// private engine built from [`Campaign::engine`]; the outcomes come
    /// back in scenario order, ready for [`CampaignReport::of`].
    ///
    /// The outcome vector is deterministic for a given configuration (thread
    /// count changes only the wall-clock time). The engine's
    /// [`OracleCadence`](scout_core::OracleCadence) picks the scenarios whose
    /// session analysis is compared against a from-scratch
    /// [`ScoutEngine::analyze`] ([`ScenarioOutcome::oracle_agrees`]), as it
    /// picks the epochs of a [`Timeline`](crate::Timeline).
    pub fn run(&self) -> Vec<ScenarioOutcome> {
        run_on_base(
            self.engine,
            self.workload,
            self.seed,
            self.scenarios,
            self.concurrency,
            |engine, session, base, index| {
                let oracle = engine.config().oracle.checks(index, self.scenarios);
                run_scenario(
                    session,
                    oracle.then_some(engine),
                    base,
                    index,
                    scenario_seed(self.seed, index),
                    self.max_faults,
                    &self.mix,
                )
            },
        )
    }
}

/// The one campaign runner: builds an engine from `config`, deploys the
/// `workload` fabric generated from `seed`, and runs `run` on items
/// `0..items` fanned out over `concurrency`. Each worker opens one
/// [`AnalysisSession`] on the base fabric, so its open-time check and the
/// risk model its first item builds are reused across the worker's items
/// without cross-thread synchronization. Results come back in item order.
pub(crate) fn run_on_base<T: Send>(
    config: EngineConfig,
    workload: WorkloadKind,
    seed: u64,
    items: usize,
    concurrency: Parallelism,
    run: impl Fn(&ScoutEngine, &mut AnalysisSession, &Fabric, usize) -> T + Sync,
) -> Vec<T> {
    let engine = ScoutEngine::from_config(config)
        .expect("campaign engine config is degenerate (see EngineConfig::validate)");
    let mut base = Fabric::new(workload.generate(seed));
    base.deploy();
    concurrency
        .fan_out(items, |_, range| {
            let mut session = engine.open_session(&base);
            range
                .map(|index| run(&engine, &mut session, &base, index))
                .collect::<Vec<_>>()
        })
        .into_iter()
        .flatten()
        .collect()
}

/// Derives the private seed of scenario `index` from the campaign seed.
pub fn scenario_seed(campaign_seed: u64, index: usize) -> u64 {
    campaign_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64) << 17)
        .wrapping_add(index as u64)
}

/// The deterministic aggregate of one campaign: identical for identical
/// configurations, regardless of thread count.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Total number of scenarios.
    pub scenarios: usize,
    /// Per-kind breakdown (only kinds that occurred).
    pub per_kind: BTreeMap<ScenarioKind, AccuracyStats>,
    /// The object-fault scenarios (full + partial) — the population of the
    /// paper's accuracy figures.
    pub objects: AccuracyStats,
    /// The *partial* object-fault scenarios — the population where the
    /// paper's Figures 7/8 claim SCOUT's recall beats SCORE's.
    pub partial: AccuracyStats,
    /// Distribution of γ over all detected scenarios.
    pub gamma: Cdf,
}

impl CampaignReport {
    /// Aggregates a slice of outcomes (in scenario order).
    pub fn of(outcomes: &[ScenarioOutcome]) -> Self {
        let of_kinds = |kinds: &[ScenarioKind]| {
            AccuracyStats::of(
                outcomes
                    .iter()
                    .filter(|o| kinds.contains(&o.kind))
                    .map(|o| &o.scored),
            )
        };
        let kinds: BTreeSet<ScenarioKind> = outcomes.iter().map(|o| o.kind).collect();
        CampaignReport {
            scenarios: outcomes.len(),
            per_kind: kinds.into_iter().map(|k| (k, of_kinds(&[k]))).collect(),
            objects: of_kinds(&[ScenarioKind::FullObject, ScenarioKind::PartialObject]),
            partial: of_kinds(&[ScenarioKind::PartialObject]),
            gamma: Cdf::of(
                outcomes
                    .iter()
                    .filter(|o| o.scored.is_detected())
                    .map(|o| o.scored.gamma),
            ),
        }
    }

    /// Renders the per-kind breakdown as an aligned table.
    pub fn table(&self) -> Table {
        let mut table = Table::new(
            "Campaign — SCOUT vs SCORE-1.0 per scenario kind",
            &[
                "kind",
                "runs",
                "faulty",
                "detected",
                "attributed",
                "P(SCOUT)",
                "R(SCOUT)",
                "R(SCORE)",
                "mean γ",
            ],
        );
        for (kind, stats) in &self.per_kind {
            let counts = [
                stats.scenarios,
                stats.faulty,
                stats.detected,
                stats.attributed,
            ];
            table.row(
                std::iter::once(kind.to_string())
                    .chain(counts.map(|n| n.to_string()))
                    .chain(stats.cells()),
            );
        }
        table
    }

    /// Renders the headline aggregates (the quantities the golden regression
    /// test gates on) as an aligned table.
    pub fn headline_table(&self) -> Table {
        let mut table = Table::new(
            "Campaign — headline aggregates",
            &["metric", "SCOUT", "SCORE-1.0"],
        );
        table.row([
            "object-fault precision (mean)".to_string(),
            fmt_mean(&self.objects.precision),
            "-".to_string(),
        ]);
        table.row([
            "object-fault recall (mean)".to_string(),
            fmt_mean(&self.objects.recall),
            fmt_mean(&self.objects.score_recall),
        ]);
        table.row([
            "partial-fault recall (mean)".to_string(),
            fmt_mean(&self.partial.recall),
            fmt_mean(&self.partial.score_recall),
        ]);
        let gamma_cell = if self.gamma.is_empty() {
            "-".to_string()
        } else {
            format!(
                "{} (p50 {})",
                fmt3(self.gamma.summary().mean),
                fmt3(self.gamma.quantile(0.5))
            )
        };
        table.row(["suspect reduction γ".to_string(), gamma_cell, String::new()]);
        table
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_workload::TestbedSpec;

    fn small_campaign(seed: u64) -> Campaign {
        let spec = TestbedSpec {
            epgs: 12,
            contracts: 8,
            filters: 4,
            target_pairs: 20,
            switches: 3,
            tcam_capacity: 1024,
        };
        Campaign {
            scenarios: 16,
            max_faults: 2,
            ..Campaign::new(WorkloadKind::Testbed(spec), 16, seed)
        }
    }

    #[test]
    fn campaign_is_deterministic_across_thread_counts() {
        let sequential = Campaign {
            concurrency: Parallelism::Sequential,
            ..small_campaign(42)
        };
        let threaded = Campaign {
            concurrency: Parallelism::Fixed(4),
            ..small_campaign(42)
        };
        let a = sequential.run();
        let b = threaded.run();
        assert_eq!(a, b);
        assert_eq!(CampaignReport::of(&a), CampaignReport::of(&b));
        // A different seed produces a different campaign.
        let c = Campaign {
            concurrency: Parallelism::Sequential,
            ..small_campaign(43)
        }
        .run();
        assert_ne!(a, c);
    }

    #[test]
    fn incremental_and_from_scratch_campaigns_agree() {
        // The default cadence checks every scenario against from-scratch.
        let run = small_campaign(7).run();
        for outcome in &run {
            assert_eq!(outcome.oracle_agrees, Some(true), "{}", outcome.index);
        }
        // A cadence of `Never` skips the oracle and changes nothing else.
        let unchecked = Campaign {
            engine: EngineConfig {
                oracle: scout_core::OracleCadence::Never,
                ..EngineConfig::default()
            },
            ..small_campaign(7)
        }
        .run();
        for (checked, unchecked) in run.iter().zip(&unchecked) {
            assert_eq!(unchecked.oracle_agrees, None);
            assert_eq!(
                ScenarioOutcome {
                    oracle_agrees: None,
                    ..checked.clone()
                },
                *unchecked
            );
        }
    }

    #[test]
    fn empty_report_renders_no_data_not_zeros() {
        let report = CampaignReport::of(&[]);
        assert_eq!(report.scenarios, 0);
        assert!(report.per_kind.is_empty());
        assert!(report.objects.precision.is_empty());
        assert!(report.gamma.is_empty());
        // Empty populations render as "-", never as a fabricated 0.000.
        let text = report.headline_table().to_string();
        assert!(text.contains('-'));
        assert!(!text.contains("0.000"));
        assert!(report.table().is_empty());
    }

    #[test]
    fn single_scenario_report_is_well_formed() {
        let campaign = Campaign {
            scenarios: 1,
            concurrency: Parallelism::Sequential,
            mix: ScenarioMix::object_faults_only(),
            ..small_campaign(3)
        };
        let report = CampaignReport::of(&campaign.run());
        assert_eq!(report.scenarios, 1);
        let (kind, stats) = report.per_kind.iter().next().unwrap();
        assert_eq!(stats.scenarios, 1);
        // A single faulty scenario yields degenerate (stddev 0) but real
        // summaries for its own kind…
        if stats.faulty == 1 {
            assert_eq!(stats.precision.count, 1);
            assert_eq!(stats.precision.stddev, 0.0);
        }
        // …and "-" cells for the kind that never occurred.
        let other = match kind {
            ScenarioKind::FullObject => ScenarioKind::PartialObject,
            _ => ScenarioKind::FullObject,
        };
        assert!(!report.per_kind.contains_key(&other));
        let text = report.table().to_string();
        assert_eq!(report.table().len(), 1);
        assert!(text.contains(&kind.to_string()));
        // γ distribution has at most one point; headline renders without panic.
        let _ = report.headline_table().to_string();
        assert!(report.gamma.len() <= 1);
    }

    #[test]
    fn kind_stats_with_no_detection_render_dash_gamma() {
        // Hand-build one undetected faulty outcome: truth exists, pipeline saw
        // nothing (consistent), so the γ population for the kind is empty.
        let outcome = ScenarioOutcome {
            index: 0,
            seed: 1,
            kind: ScenarioKind::Physical,
            fault_count: 1,
            scored: crate::Scored {
                truth: std::iter::once(scout_policy::ObjectId::Switch(
                    scout_policy::SwitchId::new(1),
                ))
                .collect(),
                hypothesis: Default::default(),
                suspects: Default::default(),
                consistent: true,
                gamma: 0.0,
                scout: scout_metrics::Accuracy::of(&Default::default(), &Default::default()),
                score: scout_metrics::Accuracy::of(&Default::default(), &Default::default()),
                attributed: false,
            },
            missing_rules: 0,
            observations: 0,
            explained_by_cover: 0,
            explained_by_changelog: 0,
            unexplained: 0,
            oracle_agrees: None,
        };
        let report = CampaignReport::of(&[outcome]);
        let stats = &report.per_kind[&ScenarioKind::Physical];
        assert_eq!(stats.faulty, 1);
        assert_eq!(stats.detected, 0);
        assert!(stats.gamma.is_empty());
        let text = report.table().to_string();
        // The γ column of the row must be "-", not 0.000.
        assert!(text
            .lines()
            .any(|l| l.contains("physical") && l.trim_end().ends_with('-')));
    }

    #[test]
    fn report_aggregates_cover_every_scenario() {
        let report = CampaignReport::of(&small_campaign(11).run());
        assert_eq!(report.scenarios, 16);
        let counted: usize = report.per_kind.values().map(|s| s.scenarios).sum();
        assert_eq!(counted, 16);
        for stats in report.per_kind.values() {
            assert!(stats.detected <= stats.faulty);
            assert!(stats.attributed <= stats.faulty);
        }
        assert!(!report.table().is_empty());
        assert_eq!(report.headline_table().len(), 4);
        // γ samples come from detected scenarios only and lie in (0, 1].
        for (gamma, _) in report.gamma.points() {
            assert!(gamma > 0.0 && gamma <= 1.0);
        }
    }
}
