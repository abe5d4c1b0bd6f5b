//! The enforced hostile-telemetry contract: SCOUT under lying, lossy, and
//! torn inputs.
//!
//! A fixed-seed campaign (seed 42, 100 scenarios per class, the paper's
//! testbed workload) runs all five hostile classes — lossy probe, torn TCAM
//! sync, flapping faults, correlated gray failures, wiped fault logs — and
//! this suite gates on the calibrated per-class accuracy floors, on SCOUT
//! beating or matching SCORE-1.0 recall in every class, and on the ranked
//! partial diagnosis placing the true root cause in the top-3 for at least
//! 70% of the missing-log scenarios.
//!
//! The companion regression test pins the recovery semantics behind the
//! lossy-probe class: a session that loses a batch, observes the gap as a
//! typed [`SessionError::EpochGap`] and resyncs from a full fabric read must
//! be bit-identical to an uninterrupted session from the resync epoch onward.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scout::core::{ScoutEngine, SessionError};
use scout::fabric::{Fabric, FabricProbe};
use scout::sim::{HostileCampaign, HostileKind, HostileReport, Parallelism, WorkloadKind};
use scout::workload::TestbedSpec;

/// The committed hostile sweep: the paper's testbed workload, seed 42,
/// 100 scenarios of each class.
fn committed_campaign() -> HostileCampaign {
    HostileCampaign::new(WorkloadKind::Testbed(TestbedSpec::paper()), 100, 42)
}

/// Per-class floors for the committed sweep, with margin below the measured
/// values (release, seed 42: lossy P=.75 R=.97, torn P=.96 R=.99, flapping
/// P=.95 R=.99, gray P=.90 R=.99, missing P=.97 R=.96, top-3 = 1.0).
#[test]
fn hostile_sweep_meets_the_committed_accuracy_floors() {
    let report = HostileReport::of(&committed_campaign().run());
    assert_eq!(report.scenarios, 500);

    let floors = [
        (HostileKind::LossyProbe, 0.65, 0.90),
        (HostileKind::TornSync, 0.85, 0.93),
        (HostileKind::Flapping, 0.85, 0.93),
        (HostileKind::GrayFailure, 0.80, 0.93),
        (HostileKind::MissingLogs, 0.85, 0.90),
    ];
    for (kind, precision_floor, recall_floor) in floors {
        let stats = &report.class(kind).expect("every class ran").accuracy;
        assert_eq!(stats.scenarios, 100, "{kind}: class must run in full");
        assert!(
            stats.faulty >= 40,
            "{kind}: only {} of 100 scenarios injected a fault",
            stats.faulty
        );
        assert!(
            stats.precision.mean >= precision_floor,
            "{kind}: precision {:.3} below the {precision_floor} floor",
            stats.precision.mean
        );
        assert!(
            stats.recall.mean >= recall_floor,
            "{kind}: recall {:.3} below the {recall_floor} floor",
            stats.recall.mean
        );
        // The paper's comparison axis: SCOUT must not lose to the structural
        // SCORE baseline on recall in any hostile class.
        assert!(
            stats.recall.mean >= stats.score_recall.mean,
            "{kind}: SCOUT recall {:.3} below SCORE's {:.3}",
            stats.recall.mean,
            stats.score_recall.mean
        );
    }

    // Lossy transport really dropped batches, every loss was survived via a
    // full resync, and no fault escaped detection because of it.
    let lossy = report.class(HostileKind::LossyProbe).unwrap();
    assert!(lossy.disturbed > 0, "the transport must disturb batches");
    assert!(lossy.resyncs >= 1, "lost batches must force full resyncs");
    assert_eq!(
        lossy.accuracy.detected, lossy.accuracy.faulty,
        "every lossy-probe fault must still be detected after recovery"
    );

    // Wiped fault logs still produce a ranked partial diagnosis, and the true
    // root cause sits in the top-3 in at least 70% of the faulty scenarios.
    let missing = report.class(HostileKind::MissingLogs).unwrap();
    assert_eq!(
        missing.ranked_nonempty, missing.accuracy.faulty,
        "wiped logs must never leave the operator without a ranked diagnosis"
    );
    let top3 = missing.rank.top3_rate();
    assert!(
        top3 >= 0.70,
        "missing-logs top-3 rate {top3:.3} below the 0.70 floor"
    );
}

/// Same seed, same outcomes — thread count must only change wall-clock time.
#[test]
fn hostile_campaigns_are_deterministic_across_thread_counts() {
    let base = HostileCampaign {
        concurrency: Parallelism::Sequential,
        ..HostileCampaign::new(WorkloadKind::Testbed(TestbedSpec::paper()), 6, 1337)
    };
    let reference = base.run();
    let threaded = HostileCampaign {
        concurrency: Parallelism::Fixed(4),
        ..base
    }
    .run();
    assert_eq!(reference, threaded);
    assert_eq!(HostileReport::of(&reference), HostileReport::of(&threaded));
}

fn testbed_fabric(seed: u64) -> Fabric {
    let spec = TestbedSpec {
        epgs: 12,
        contracts: 8,
        filters: 4,
        target_pairs: 20,
        switches: 3,
        tcam_capacity: 1024,
    };
    let mut fabric = Fabric::new(spec.generate(seed));
    fabric.deploy();
    fabric
}

/// One epoch of churn for the recovery replay: evictions (logged and
/// silent), repairs and admin touches, decided by the seeded rng.
fn disturb(fabric: &mut Fabric, rng: &mut StdRng, epoch: u64) {
    let switch_ids = fabric.universe().switch_ids();
    let &switch = switch_ids.choose(rng).expect("workloads have switches");
    match rng.gen_range(0u32..4) {
        0 => {
            fabric.evict_tcam(switch, rng.gen_range(1usize..3), true);
        }
        1 => {
            fabric.evict_tcam(switch, 1, false);
        }
        2 => {
            fabric.repair_switch(switch);
        }
        _ => {
            fabric.record_admin_change(
                scout::fabric::Timestamp(epoch),
                scout::policy::ObjectId::Switch(switch),
                "routine audit touch",
            );
        }
    }
}

/// The recovery regression behind the lossy-probe class: a session that
/// loses one batch mid-stream wedges with [`SessionError::EpochGap`], resyncs
/// from a full fabric read, and from the resync epoch onward is
/// bit-identical — report for report — to a session that never missed a
/// batch and to a from-scratch analysis.
#[test]
fn gap_resync_recovery_is_bit_identical_to_an_uninterrupted_session() {
    let mut fabric = testbed_fabric(42);
    let mut rng = StdRng::seed_from_u64(42);
    let engine = ScoutEngine::new();

    let mut interrupted = engine.open_session(&fabric);
    let mut lossy_probe = FabricProbe::new(&fabric);
    let mut uninterrupted = engine.open_session(&fabric);
    let mut faithful_probe = FabricProbe::new(&fabric);

    const EPOCHS: u64 = 30;
    const LOST: u64 = 9;

    for epoch in 1..=EPOCHS {
        disturb(&mut fabric, &mut rng, epoch);

        uninterrupted
            .ingest_observation(&mut faithful_probe, &fabric)
            .expect("the faithful feed ingests cleanly");

        if epoch == LOST {
            // The batch is produced — the probe's cursors advance — but it
            // never reaches the session.
            let _lost = lossy_probe.observe(&fabric);
            continue;
        }

        if epoch == LOST + 1 {
            // The next delivery reveals the gap: a typed error naming the
            // missing range, consuming nothing.
            let events = lossy_probe.observe(&fabric);
            let batch = scout::fabric::EventBatch::new(epoch, events);
            let err = interrupted.ingest(batch.clone()).unwrap_err();
            let SessionError::EpochGap { resync } = err else {
                panic!("a post-loss batch must classify as a gap, got {err:?}");
            };
            assert_eq!(resync.from_epoch, LOST);
            assert_eq!(resync.observed_epoch, epoch);
            assert_eq!(interrupted.epoch(), LOST - 1, "the gap consumed nothing");

            // Without a resync the session is wedged: retrying the same
            // batch keeps failing the same way.
            assert!(matches!(
                interrupted.ingest(batch).unwrap_err(),
                SessionError::EpochGap { .. }
            ));

            // Recovery: one full fabric read realigns session and probe.
            interrupted
                .resync(resync.observed_epoch, lossy_probe.full_resync(&fabric))
                .expect("a forward resync is accepted");
            assert_eq!(interrupted.epoch(), epoch);
        } else {
            interrupted
                .ingest_observation(&mut lossy_probe, &fabric)
                .expect("deltas ingest cleanly once realigned");
        }

        // From the resync epoch onward the recovered session is bit-identical
        // to the uninterrupted one and to a from-scratch analysis.
        if epoch > LOST {
            assert_eq!(
                interrupted.full_report(),
                uninterrupted.full_report(),
                "epoch {epoch}: recovered session diverged from the faithful one"
            );
            assert_eq!(
                *interrupted.full_report(),
                engine.analyze(&fabric),
                "epoch {epoch}: recovered session diverged from scratch"
            );
        }
    }

    assert_eq!(interrupted.epoch(), EPOCHS);
    assert_eq!(interrupted.stats().resyncs, 1);
    assert_eq!(uninterrupted.stats().resyncs, 0);
    assert_eq!(uninterrupted.stats().ingests, EPOCHS as usize);
}
