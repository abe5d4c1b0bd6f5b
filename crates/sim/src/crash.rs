//! Crash-injection soak: a churning fabric monitored through a *durable*
//! session that is repeatedly SIGKILL-simulated mid-commit and recovered.
//!
//! The [`soak::Timeline`](crate::soak::Timeline) proves the engine survives
//! hundreds of epochs; this soak proves the **store** survives the analyzer
//! dying at arbitrary abort points. A seeded [`CrashPlan`] arms a countdown
//! over the store's durable file operations (appends, fsyncs, renames, …);
//! when it fires, the in-flight operation is interrupted exactly as a kill
//! would leave it — torn appends and all — the poisoned session is dropped,
//! and [`DurableEngine::recover`] rebuilds a session from disk.
//!
//! After every recovery the soak asserts the store's whole contract:
//!
//! * the recovered epoch is at most the crash epoch (nothing invented);
//! * the recovered report is **bit-identical** to the uninterrupted
//!   reference session's report at that same epoch;
//! * after re-feeding the lost batches, the durable session again tracks
//!   the reference bit-for-bit at every subsequent epoch.
//!
//! Runs are deterministic per seed — the same [`CrashSoak`] yields the same
//! [`CrashSoakReport`], crash sites included — so the root `tests/store.rs`
//! suite pins this soak as a regression test.

use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

use scout_core::{ScoutEngine, ScoutReport};
use scout_fabric::{EventBatch, Fabric, FabricProbe};
use scout_store::test_dir::TestDir;
use scout_store::{CrashPlan, DurableEngine, DurableSession, StoreConfig, StoreError};

use crate::churn::soak_step;
use crate::scenario::WorkloadKind;

/// A seeded kill-and-recover soak against one durable session.
#[derive(Debug, Clone)]
pub struct CrashSoak {
    /// Which policy workload to churn.
    pub workload: WorkloadKind,
    /// How many epochs of churn to drive.
    pub epochs: usize,
    /// How many crashes to inject before letting the run finish cleanly.
    pub crashes: usize,
    /// Master seed: workload, churn, abort points and tear offsets.
    pub seed: u64,
    /// Store tuning for the durable session (its `crash_plan` is overridden
    /// by the soak's own seeded plans).
    pub store: StoreConfig,
}

/// What a [`CrashSoak`] run observed. Deterministic per seed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CrashSoakReport {
    /// Epochs of churn driven end to end.
    pub epochs: usize,
    /// Crashes injected (always the soak's `crashes` budget).
    pub crashes_injected: usize,
    /// Successful recoveries (one per crash, plus the final audit).
    pub recoveries: usize,
    /// Epochs that had to be re-fed because a crash lost them (staged but
    /// uncommitted, or torn mid-append).
    pub epochs_refed: usize,
    /// Batches replayed from the journal tail across all recoveries.
    pub replayed_batches: u64,
    /// Torn bytes truncated across all recoveries.
    pub torn_bytes_truncated: u64,
    /// Snapshot anchors written across all session lives.
    pub anchors_written: u64,
    /// Segments rolled across all session lives.
    pub segments_rolled: u64,
    /// Segments deleted by compaction across all session lives.
    pub segments_removed: u64,
    /// The session's final epoch (equals `epochs`).
    pub final_epoch: u64,
}

impl CrashSoak {
    /// A soak with the given churn length, crash budget and seed.
    pub fn new(workload: WorkloadKind, epochs: usize, crashes: usize, seed: u64) -> Self {
        CrashSoak {
            workload,
            epochs,
            crashes,
            seed,
            store: StoreConfig {
                // Small knobs so a short soak still crosses many segment
                // rolls and anchor/compaction cycles.
                snapshot_every: 5,
                segment_max_records: 4,
                ..StoreConfig::default()
            },
        }
    }

    /// Seeds the next life's crash plan: enough operations to always make
    /// commit progress (open/recover plus a few epochs), little enough to
    /// crash often.
    fn next_plan(&self, rng: &mut StdRng) -> CrashPlan {
        CrashPlan {
            abort_after_ops: rng.gen_range(20u64..60),
            partial_seed: rng.next_u64(),
        }
    }

    /// Drives the soak against `engine`.
    ///
    /// # Panics
    ///
    /// Panics if any recovery violates the store contract (recovered state
    /// not bit-identical to the uninterrupted reference, unexpected store
    /// error, or a final verification failure) — this soak *is* the
    /// regression harness.
    pub fn run(&self, engine: &ScoutEngine) -> CrashSoakReport {
        assert!(self.epochs > 0, "a soak needs at least one epoch");
        let mut rng = StdRng::seed_from_u64(self.seed);
        let mut fabric = Fabric::new(self.workload.generate(self.seed));
        fabric.deploy();

        let dir = TestDir::new("crash-soak");
        let mut reference = engine.open_session(&fabric);
        let mut probe = FabricProbe::new(&fabric);
        let mut durable = {
            let config = StoreConfig {
                crash_plan: Some(self.next_plan(&mut rng)),
                ..self.store
            };
            engine
                .open_durable(&fabric, dir.path(), config)
                .expect("the first plan outlives open_durable")
        };

        // Every batch and every reference report, for post-crash re-feeds
        // and bit-identity checks at recovered (past) epochs.
        let mut batches: Vec<EventBatch> = Vec::with_capacity(self.epochs);
        let mut reports: Vec<ScoutReport> = vec![reference.full_report().clone()];

        let mut report = CrashSoakReport {
            epochs: self.epochs,
            crashes_injected: 0,
            recoveries: 0,
            epochs_refed: 0,
            replayed_batches: 0,
            torn_bytes_truncated: 0,
            anchors_written: 0,
            segments_rolled: 0,
            segments_removed: 0,
            final_epoch: 0,
        };

        let absorb = |report: &mut CrashSoakReport, durable: &DurableSession| {
            let stats = durable.store_stats();
            report.replayed_batches += stats.replayed_on_recover;
            report.torn_bytes_truncated += stats.torn_bytes_truncated;
            report.anchors_written += stats.anchors_written;
            report.segments_rolled += stats.segments_rolled;
            report.segments_removed += stats.segments_removed;
        };

        for epoch in 1..=self.epochs as u64 {
            soak_step(&mut fabric, &mut rng);
            let batch = EventBatch::new(epoch, probe.observe(&fabric));
            batches.push(batch.clone());
            reference
                .ingest(batch)
                .expect("faithful observations ingest cleanly");
            reports.push(reference.full_report().clone());

            // Feed the durable session everything it is missing (usually
            // just this epoch; more after a crash rewound it).
            loop {
                let next = durable.next_epoch();
                if next > epoch {
                    break;
                }
                if next < epoch {
                    report.epochs_refed += 1;
                }
                match durable.ingest(batches[next as usize - 1].clone()) {
                    Ok(_) => {
                        assert_eq!(
                            durable.full_report(),
                            &reports[durable.epoch() as usize],
                            "epoch {}: durable session diverged from the reference",
                            durable.epoch()
                        );
                    }
                    Err(StoreError::InjectedCrash) => {
                        report.crashes_injected += 1;
                        assert!(durable.is_poisoned(), "a crash must poison the store");
                        absorb(&mut report, &durable);
                        drop(durable);

                        let plan = if report.crashes_injected < self.crashes {
                            Some(self.next_plan(&mut rng))
                        } else {
                            None // budget spent: let the run finish cleanly
                        };
                        let config = StoreConfig {
                            crash_plan: plan,
                            ..self.store
                        };
                        durable = engine
                            .recover(dir.path(), config)
                            .expect("a crashed store recovers");
                        report.recoveries += 1;
                        let recovered = durable.epoch();
                        // `<=`, not `<`: a process kill does not lose bytes
                        // already written to the journal, so if the fatal op
                        // was the *sync* after a completed append, recovery
                        // legitimately lands on the in-flight epoch itself.
                        assert!(
                            recovered <= next,
                            "recovery at epoch {recovered} invented epochs (crash was at {next})"
                        );
                        assert_eq!(
                            durable.full_report(),
                            &reports[recovered as usize],
                            "recovered session at epoch {recovered} is not bit-identical \
                             to the uninterrupted reference"
                        );
                    }
                    Err(other) => panic!("unexpected store error mid-soak: {other}"),
                }
            }
        }

        assert_eq!(durable.epoch(), self.epochs as u64);
        assert_eq!(
            durable.full_report(),
            reference.full_report(),
            "final durable state diverged from the reference"
        );
        absorb(&mut report, &durable);
        drop(durable);

        // Final audit: the store on disk still verifies byte-for-byte and
        // recovers to the exact final state.
        let summary = scout_store::verify_dir(dir.path()).expect("final store verifies");
        assert_eq!(summary.last_epoch, self.epochs as u64);
        let audited = engine
            .recover(dir.path(), StoreConfig::default())
            .expect("final store recovers");
        report.recoveries += 1;
        assert_eq!(audited.full_report(), reference.full_report());
        report.final_epoch = audited.epoch();

        assert_eq!(
            report.crashes_injected, self.crashes,
            "the crash budget was not exhausted — raise epochs or lower abort windows"
        );
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_workload::TestbedSpec;

    fn small() -> CrashSoak {
        CrashSoak::new(
            WorkloadKind::Testbed(TestbedSpec {
                epgs: 10,
                contracts: 6,
                filters: 3,
                target_pairs: 14,
                switches: 3,
                tcam_capacity: 512,
            }),
            48,
            3,
            0xC4A5,
        )
    }

    #[test]
    fn crash_soak_recovers_bit_identically() {
        let engine = ScoutEngine::new();
        let report = small().run(&engine);
        assert_eq!(report.crashes_injected, 3);
        assert_eq!(report.final_epoch, 48);
        assert!(report.recoveries >= 4);
    }

    #[test]
    fn crash_soak_is_deterministic_per_seed() {
        let engine = ScoutEngine::new();
        let a = small().run(&engine);
        let b = small().run(&engine);
        assert_eq!(a, b);
        let mut other = small();
        other.seed ^= 1;
        // A different seed moves the crash sites; the run still succeeds.
        let c = other.run(&engine);
        assert_eq!(c.crashes_injected, 3);
    }
}
