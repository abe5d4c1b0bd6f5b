//! The campaign runner: batches of seeded scenarios, executed in parallel,
//! aggregated into a deterministic report.
//!
//! A [`Campaign`] fixes a workload, a scenario count, a disturbance mix and a
//! seed; [`Campaign::run`] builds one [`ScoutEngine`] from the campaign's
//! [`EngineConfig`], deploys the reference fabric once, fans the scenarios
//! out over [`Campaign::concurrency`] with one
//! [`AnalysisSession`](scout_core::AnalysisSession) per worker, and drives
//! every scenario through the full pipeline. Scenario `i` depends only on
//! `scenario_seed(campaign_seed, i)`, so the outcome vector — and the
//! aggregate [`CampaignReport`] — is identical regardless of thread count or
//! analysis mode.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use scout_core::{EngineConfig, Parallelism, ScoutEngine};
use scout_fabric::Fabric;
use scout_metrics::{fmt3, fmt_mean, Cdf, Summary, Table};

use crate::scenario::{run_scenario, ScenarioKind, ScenarioMix, ScenarioOutcome, WorkloadKind};

/// Whether scenario analyses reuse the per-worker session snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AnalysisMode {
    /// Reuse the session's equivalence check and pristine risk model;
    /// per-scenario cost is proportional to the disturbance.
    #[default]
    Incremental,
    /// Rebuild the full check and the risk model for every scenario — the
    /// reference the incremental mode is validated (and benchmarked) against.
    FromScratch,
}

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
    /// Session reuse policy.
    pub analysis: AnalysisMode,
    /// The analysis-engine configuration (localization knobs, checker
    /// parallelism, cache budgets) every scenario runs under.
    pub engine: EngineConfig,
}

impl Campaign {
    /// A campaign with the default mix, fault bound, parallelism, incremental
    /// analysis and engine configuration.
    pub fn new(workload: WorkloadKind, scenarios: usize, seed: u64) -> Self {
        Self {
            workload,
            scenarios,
            max_faults: 3,
            mix: ScenarioMix::default(),
            seed,
            concurrency: Parallelism::Auto,
            analysis: AnalysisMode::Incremental,
            engine: EngineConfig::default(),
        }
    }

    /// Deploys the reference fabric and runs every scenario against a
    /// private engine built from [`Campaign::engine`].
    ///
    /// The outcome vector is deterministic for a given configuration (thread
    /// count and analysis mode change only the wall-clock time).
    pub fn run(&self) -> CampaignRun {
        let engine = ScoutEngine::from_config(self.engine)
            .expect("campaign engine config is degenerate (see EngineConfig::validate)");
        self.run_with_engine(&engine)
    }

    /// Like [`Campaign::run`], but routes every worker through a
    /// caller-provided — possibly shared — engine: each worker opens its own
    /// [`AnalysisSession`](scout_core::AnalysisSession) on it, so several
    /// campaigns (or campaigns next to soak timelines) can share one engine.
    /// Outcomes are bit-identical to a private-engine run.
    pub fn run_with_engine(&self, engine: &ScoutEngine) -> CampaignRun {
        let start = Instant::now();
        let mut base = Fabric::new(self.workload.generate(self.seed));
        base.deploy();

        // Each worker opens a private session on the shared engine, so the
        // warm BDD caches and the pristine risk model are reused across its
        // scenarios without any cross-thread synchronization.
        let outcomes = self
            .concurrency
            .fan_out(self.scenarios, |_, range| {
                let mut session = engine.open_session(&base);
                range
                    .map(|index| {
                        run_scenario(
                            &mut session,
                            self.analysis,
                            &base,
                            index,
                            scenario_seed(self.seed, index),
                            self.max_faults,
                            &self.mix,
                        )
                    })
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();

        CampaignRun {
            outcomes,
            elapsed: start.elapsed(),
        }
    }
}

/// Derives the private seed of scenario `index` from the campaign seed.
pub fn scenario_seed(campaign_seed: u64, index: usize) -> u64 {
    campaign_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add((index as u64) << 17)
        .wrapping_add(index as u64)
}

/// The raw result of a campaign: per-scenario outcomes plus wall-clock time.
#[derive(Debug, Clone)]
pub struct CampaignRun {
    /// One outcome per scenario, in scenario order.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Total wall-clock time of the run (excluded from [`CampaignRun::report`],
    /// which must be deterministic).
    pub elapsed: Duration,
}

impl CampaignRun {
    /// Aggregates the outcomes into the deterministic campaign report.
    pub fn report(&self) -> CampaignReport {
        CampaignReport::of(&self.outcomes)
    }
}

/// Aggregated statistics of the scenarios of one kind.
#[derive(Debug, Clone, PartialEq)]
pub struct KindStats {
    /// Number of scenarios of this kind.
    pub scenarios: usize,
    /// Scenarios with a non-empty ground truth.
    pub faulty: usize,
    /// Faulty scenarios the pipeline flagged as inconsistent.
    pub detected: usize,
    /// Faulty scenarios whose hypothesis intersected the truth.
    pub attributed: usize,
    /// SCOUT precision over the faulty scenarios.
    pub precision: Summary,
    /// SCOUT recall over the faulty scenarios.
    pub recall: Summary,
    /// SCORE-1.0 recall over the faulty scenarios.
    pub score_recall: Summary,
    /// γ over the detected scenarios.
    pub gamma: Summary,
}

/// The deterministic aggregate of one campaign: identical for identical
/// configurations, regardless of thread count or analysis mode.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    /// Total number of scenarios.
    pub scenarios: usize,
    /// Per-kind breakdown (only kinds that occurred).
    pub per_kind: BTreeMap<ScenarioKind, KindStats>,
    /// SCOUT precision over faulty object-fault scenarios (full + partial).
    pub object_precision: Summary,
    /// SCOUT recall over faulty object-fault scenarios.
    pub object_recall: Summary,
    /// SCORE-1.0 recall over faulty object-fault scenarios.
    pub score_object_recall: Summary,
    /// SCOUT recall over faulty *partial* object-fault scenarios — the
    /// population where the paper's Figures 7/8 claim SCOUT beats SCORE.
    pub partial_recall: Summary,
    /// SCORE-1.0 recall over the same partial-fault population.
    pub score_partial_recall: Summary,
    /// Distribution of γ over all detected scenarios.
    pub gamma: Cdf,
}

impl CampaignReport {
    /// Aggregates a slice of outcomes (in scenario order).
    pub fn of(outcomes: &[ScenarioOutcome]) -> Self {
        let mut per_kind: BTreeMap<ScenarioKind, Vec<&ScenarioOutcome>> = BTreeMap::new();
        for outcome in outcomes {
            per_kind.entry(outcome.kind).or_default().push(outcome);
        }

        fn faulty<'a>(items: &[&'a ScenarioOutcome]) -> Vec<&'a ScenarioOutcome> {
            items
                .iter()
                .copied()
                .filter(|o| !o.truth.is_empty())
                .collect()
        }
        let stats = |items: &[&ScenarioOutcome]| -> KindStats {
            let with_truth = faulty(items);
            let detected: Vec<&&ScenarioOutcome> =
                with_truth.iter().filter(|o| !o.consistent).collect();
            KindStats {
                scenarios: items.len(),
                faulty: with_truth.len(),
                detected: detected.len(),
                attributed: with_truth.iter().filter(|o| o.attributed).count(),
                precision: Summary::of(with_truth.iter().map(|o| o.scout.precision)),
                recall: Summary::of(with_truth.iter().map(|o| o.scout.recall)),
                score_recall: Summary::of(with_truth.iter().map(|o| o.score.recall)),
                gamma: Summary::of(detected.iter().map(|o| o.gamma)),
            }
        };

        let object_outcomes: Vec<&ScenarioOutcome> = outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o.kind,
                    ScenarioKind::FullObject | ScenarioKind::PartialObject
                ) && !o.truth.is_empty()
            })
            .collect();
        let partial_outcomes: Vec<&ScenarioOutcome> = object_outcomes
            .iter()
            .copied()
            .filter(|o| o.kind == ScenarioKind::PartialObject)
            .collect();

        CampaignReport {
            scenarios: outcomes.len(),
            per_kind: per_kind
                .into_iter()
                .map(|(kind, items)| (kind, stats(&items)))
                .collect(),
            object_precision: Summary::of(object_outcomes.iter().map(|o| o.scout.precision)),
            object_recall: Summary::of(object_outcomes.iter().map(|o| o.scout.recall)),
            score_object_recall: Summary::of(object_outcomes.iter().map(|o| o.score.recall)),
            partial_recall: Summary::of(partial_outcomes.iter().map(|o| o.scout.recall)),
            score_partial_recall: Summary::of(partial_outcomes.iter().map(|o| o.score.recall)),
            gamma: Cdf::of(
                outcomes
                    .iter()
                    .filter(|o| !o.truth.is_empty() && !o.consistent)
                    .map(|o| o.gamma),
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
            table.row([
                kind.to_string(),
                stats.scenarios.to_string(),
                stats.faulty.to_string(),
                stats.detected.to_string(),
                stats.attributed.to_string(),
                // A kind with no faulty (or no detected) scenarios has no
                // accuracy population; render "-" instead of a fabricated 0.
                fmt_mean(&stats.precision),
                fmt_mean(&stats.recall),
                fmt_mean(&stats.score_recall),
                fmt_mean(&stats.gamma),
            ]);
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
            fmt_mean(&self.object_precision),
            "-".to_string(),
        ]);
        table.row([
            "object-fault recall (mean)".to_string(),
            fmt_mean(&self.object_recall),
            fmt_mean(&self.score_object_recall),
        ]);
        table.row([
            "partial-fault recall (mean)".to_string(),
            fmt_mean(&self.partial_recall),
            fmt_mean(&self.score_partial_recall),
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
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.report(), b.report());
        // A different seed produces a different campaign.
        let c = Campaign {
            concurrency: Parallelism::Sequential,
            ..small_campaign(43)
        }
        .run();
        assert_ne!(a.outcomes, c.outcomes);
    }

    #[test]
    fn incremental_and_from_scratch_campaigns_agree() {
        let incremental = small_campaign(7).run();
        let scratch = Campaign {
            analysis: AnalysisMode::FromScratch,
            ..small_campaign(7)
        }
        .run();
        assert_eq!(incremental.outcomes, scratch.outcomes);
    }

    #[test]
    fn empty_report_renders_no_data_not_zeros() {
        let report = CampaignReport::of(&[]);
        assert_eq!(report.scenarios, 0);
        assert!(report.per_kind.is_empty());
        assert!(report.object_precision.is_empty());
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
        let run = campaign.run();
        let report = run.report();
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
            truth: std::iter::once(scout_policy::ObjectId::Switch(scout_policy::SwitchId::new(
                1,
            )))
            .collect(),
            hypothesis: Default::default(),
            suspects: Default::default(),
            consistent: true,
            missing_rules: 0,
            observations: 0,
            explained_by_cover: 0,
            explained_by_changelog: 0,
            unexplained: 0,
            gamma: 0.0,
            scout: scout_metrics::Accuracy::of(&Default::default(), &Default::default()),
            score: scout_metrics::Accuracy::of(&Default::default(), &Default::default()),
            attributed: false,
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
        let run = small_campaign(11).run();
        let report = run.report();
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
