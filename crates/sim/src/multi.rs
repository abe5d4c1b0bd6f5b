//! Multi-tenant soak: many independent fault timelines, one shared engine,
//! many driver threads.
//!
//! A production SCOUT deployment monitors a whole controller domain — every
//! tenant fabric at once — through one long-lived service. [`MultiTenantSoak`]
//! reproduces that shape in the simulator: it builds **one**
//! [`ScoutEngine`] (which is `Send + Sync` with a lock-striped session
//! registry), derives M independent per-tenant [`Timeline`]s from a base
//! seed, and drives them from up to T worker threads, each tenant monitored
//! by its own [`AnalysisSession`](scout_core::AnalysisSession) on the shared
//! engine.
//!
//! Determinism is preserved under concurrency: per-session ingestion is
//! serialized inside each session, sessions share no mutable analysis state,
//! and each tenant's randomness derives only from its own seed — so tenant
//! `i`'s [`SoakOutcome`] is **bit-identical** whether it runs alone on a
//! private engine, sequentially on the shared engine, or concurrently next
//! to M−1 other tenants (enforced by the root test `tests/multi_tenant.rs`).
//! What changes with the thread count is only the wall-clock time, which the
//! `benchmark/` package measures through the serving layer.

use scout_core::{EngineConfig, ScoutEngine};

use crate::scenario::WorkloadKind;
use crate::soak::{SoakOutcome, SoakRun, Timeline};

/// A multi-tenant soak configuration: M timelines × T driver threads against
/// one shared engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiTenantSoak {
    /// The per-tenant policy generator (tenant `i` generates from
    /// `base_seed + i`).
    pub workload: WorkloadKind,
    /// Number of tenant fabrics (and timelines, and sessions).
    pub tenants: usize,
    /// Number of epochs each timeline runs.
    pub epochs: usize,
    /// The base seed; tenant `i` runs [`Timeline`] seed `base_seed + i`.
    pub base_seed: u64,
    /// Number of driver threads (clamped to the tenant count; at least 1).
    pub threads: usize,
    /// The shared engine's configuration — including the oracle cadence every
    /// tenant runs under.
    pub engine: EngineConfig,
}

impl MultiTenantSoak {
    /// A multi-tenant soak with the default engine configuration and an
    /// every-epoch oracle.
    pub fn new(workload: WorkloadKind, tenants: usize, epochs: usize, base_seed: u64) -> Self {
        Self {
            workload,
            tenants,
            epochs,
            base_seed,
            threads: tenants.max(1),
            engine: EngineConfig::default(),
        }
    }

    /// The timeline tenant `index` runs (exposed so tests can replay a single
    /// tenant in isolation and compare outcomes).
    pub fn tenant_timeline(&self, index: usize) -> Timeline {
        let mut timeline = Timeline::new(self.workload, self.epochs, self.base_seed + index as u64);
        timeline.engine = self.engine;
        timeline
    }

    /// Runs every tenant timeline against one shared engine and collects the
    /// per-tenant runs in tenant order.
    pub fn run(&self) -> MultiTenantRun {
        let engine = ScoutEngine::from_config(self.engine)
            .expect("multi-tenant engine config is degenerate (see EngineConfig::validate)");
        let threads = self.threads.clamp(1, self.tenants.max(1));

        let mut runs: Vec<Option<SoakRun>> = (0..self.tenants).map(|_| None).collect();
        if threads <= 1 {
            for (tenant, slot) in runs.iter_mut().enumerate() {
                *slot = Some(self.tenant_timeline(tenant).run_with_engine(&engine));
            }
        } else {
            std::thread::scope(|scope| {
                let engine = &engine;
                let handles: Vec<_> = (0..threads)
                    .map(|worker| {
                        scope.spawn(move || {
                            (worker..self.tenants)
                                .step_by(threads)
                                .map(|tenant| {
                                    (tenant, self.tenant_timeline(tenant).run_with_engine(engine))
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                for handle in handles {
                    for (tenant, run) in handle.join().expect("tenant driver thread panicked") {
                        runs[tenant] = Some(run);
                    }
                }
            });
        }

        MultiTenantRun {
            runs: runs
                .into_iter()
                .map(|slot| slot.expect("every tenant index is covered"))
                .collect(),
            threads,
        }
    }
}

/// The result of one multi-tenant soak: per-tenant runs.
#[derive(Debug)]
pub struct MultiTenantRun {
    /// One [`SoakRun`] per tenant, in tenant order.
    pub runs: Vec<SoakRun>,
    /// The number of driver threads actually used.
    pub threads: usize,
}

impl MultiTenantRun {
    /// The deterministic per-tenant outcomes, in tenant order.
    pub fn outcomes(&self) -> Vec<&SoakOutcome> {
        self.runs.iter().map(|run| &run.outcome).collect()
    }

    /// Total successful ingests across all tenant sessions.
    pub fn total_ingests(&self) -> usize {
        self.runs.iter().map(|run| run.session_stats.ingests).sum()
    }

    /// Total events ingested across all tenant sessions.
    pub fn total_events(&self) -> usize {
        self.runs.iter().map(|run| run.session_stats.events).sum()
    }

    /// Epochs at which any tenant's differential oracle disagreed with its
    /// monitor, as `(tenant, epoch)` pairs (must be empty).
    pub fn oracle_disagreements(&self) -> Vec<(usize, usize)> {
        self.runs
            .iter()
            .enumerate()
            .flat_map(|(tenant, run)| {
                run.outcome
                    .oracle_disagreements()
                    .into_iter()
                    .map(move |epoch| (tenant, epoch))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_workload::TestbedSpec;

    fn small_soak(tenants: usize, threads: usize) -> MultiTenantSoak {
        let spec = TestbedSpec {
            epgs: 10,
            contracts: 6,
            filters: 4,
            target_pairs: 14,
            switches: 3,
            tcam_capacity: 1024,
        };
        MultiTenantSoak {
            threads,
            ..MultiTenantSoak::new(WorkloadKind::Testbed(spec), tenants, 25, 17)
        }
    }

    #[test]
    fn concurrent_tenants_match_sequential_and_solo_runs() {
        let concurrent = small_soak(3, 3).run();
        let sequential = small_soak(3, 1).run();
        assert_eq!(concurrent.runs.len(), 3);
        assert_eq!(concurrent.threads, 3);
        assert_eq!(sequential.threads, 1);
        for tenant in 0..3 {
            assert_eq!(
                concurrent.runs[tenant].outcome, sequential.runs[tenant].outcome,
                "tenant {tenant}: shared-engine concurrency changed the outcome"
            );
            // A solo run on a private engine agrees too.
            let solo = small_soak(3, 1).tenant_timeline(tenant).run();
            assert_eq!(concurrent.runs[tenant].outcome, solo.outcome);
        }
        assert!(concurrent.oracle_disagreements().is_empty());
        assert!(concurrent.total_ingests() >= 75, "one ingest per epoch");
    }

    #[test]
    fn tenants_are_distinct_workloads() {
        let run = small_soak(2, 2).run();
        assert_ne!(
            run.runs[0].outcome, run.runs[1].outcome,
            "tenant seeds must differ"
        );
    }

    #[test]
    fn thread_count_is_clamped() {
        let run = small_soak(2, 9).run();
        assert_eq!(run.threads, 2);
        assert_eq!(run.runs.len(), 2);
    }
}
