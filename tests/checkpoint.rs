//! The enforced checkpoint/restore contract: a 200-epoch, seed-42 soak-style
//! timeline with a **mid-run checkpoint**, a replay tail, a byte-level
//! round-trip and a restore — after which the restored session must be
//! **bit-identical** to the uninterrupted one at every remaining epoch, and
//! both must match the from-scratch differential oracle.
//!
//! Timeline of the test:
//!
//! * epochs 1–100: one session monitors the churning fabric;
//! * epoch 100: the session is checkpointed;
//! * epochs 101–120: the live session keeps ingesting while the same batches
//!   are appended to the snapshot's replay tail (the crash window);
//! * epoch 120: the snapshot is serialized, decoded, and restored — replaying
//!   the tail — and the restored session must agree exactly;
//! * epochs 121–200: both sessions ingest the same batches; deltas, reports
//!   and the oracle must agree bit-for-bit at every epoch.

use rand::rngs::StdRng;
use rand::SeedableRng;

use scout::core::{ScoutEngine, Snapshot};
use scout::fabric::{EventBatch, Fabric, FabricProbe};
use scout::sim::churn::soak_step;
use scout::workload::TestbedSpec;

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

#[test]
fn checkpoint_restore_mid_soak_is_bit_identical_to_uninterrupted_session() {
    const EPOCHS: usize = 200;
    const CHECKPOINT_AT: usize = 100;
    const RESTORE_AT: usize = 120;

    let mut fabric = testbed_fabric(42);
    let mut rng = StdRng::seed_from_u64(42);

    let engine = ScoutEngine::new();
    let mut live = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);

    let mut snapshot: Option<Snapshot> = None;
    let mut restored: Option<scout::core::AnalysisSession> = None;

    for epoch in 1..=EPOCHS {
        soak_step(&mut fabric, &mut rng);
        let batch = EventBatch::new(live.next_epoch(), probe.observe(&fabric));

        // The crash window: batches delivered after the checkpoint also land
        // in the snapshot's replay tail.
        if let Some(snapshot) = snapshot.as_mut() {
            if restored.is_none() {
                snapshot
                    .push_tail(batch.clone())
                    .expect("tail batches are sequential");
            }
        }

        let live_delta = live
            .ingest(batch.clone())
            .expect("faithful observations ingest cleanly");

        if let Some(session) = restored.as_mut() {
            let replayed_delta = session
                .ingest(batch)
                .expect("the restored session accepts the same batches");
            assert_eq!(
                live_delta, replayed_delta,
                "epoch {epoch}: restored session emitted a different delta"
            );
            assert_eq!(
                live.full_report(),
                session.full_report(),
                "epoch {epoch}: restored session report diverged"
            );
        }

        // Differential oracle at every epoch: from-scratch analysis of the
        // same fabric state must be bit-identical to the monitor(s).
        let reference = engine.analyze(&fabric);
        assert_eq!(
            *live.full_report(),
            reference,
            "epoch {epoch}: live session diverged from the oracle"
        );

        if epoch == CHECKPOINT_AT {
            let taken = live.checkpoint();
            assert_eq!(taken.epoch(), CHECKPOINT_AT as u64);
            assert_eq!(taken.fabric_id(), fabric.id());
            snapshot = Some(taken);
        }
        if epoch == RESTORE_AT {
            let snapshot = snapshot.as_ref().expect("checkpoint was taken");
            assert_eq!(snapshot.tail().len(), RESTORE_AT - CHECKPOINT_AT);

            // Byte-level round trip before restoring: the durable form is
            // what survives a crash, so it is the form that must restore.
            let bytes = snapshot.to_bytes();
            let decoded = Snapshot::from_bytes(&bytes).expect("snapshot decodes");
            assert_eq!(&decoded, snapshot);

            let session = engine.restore(&decoded).expect("tail replays cleanly");
            assert_eq!(session.epoch(), live.epoch());
            assert_eq!(
                session.full_report(),
                live.full_report(),
                "restore + tail replay must land exactly where the live session is"
            );
            assert_eq!(engine.session_count(), 2);
            restored = Some(session);
        }
    }

    assert_eq!(live.epoch(), EPOCHS as u64);
    let restored = restored.expect("restore happened");
    assert_eq!(restored.epoch(), EPOCHS as u64);
    assert_eq!(
        restored.stats().ingests,
        EPOCHS - CHECKPOINT_AT,
        "the restored session ingested the tail plus the post-restore epochs"
    );
}
