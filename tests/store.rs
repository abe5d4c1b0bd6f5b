//! The enforced durability contract of `scout-store`.
//!
//! Three properties are pinned here, against a real churning fabric:
//!
//! * **kill-and-recover bit-identity** — a durable session killed (via the
//!   store's SIGKILL-simulating abort points) at a *random* epoch recovers
//!   to a state bit-identical to an uninterrupted reference session at the
//!   recovered epoch, and — after re-feeding the lost batches — stays
//!   bit-identical through the end of the run;
//! * **tamper evidence** — flipping any single byte of any store file turns
//!   both offline verification and full recovery into a typed
//!   [`StoreError`]: no panic, no silent acceptance, anywhere;
//! * **compaction invariants** — compaction never deletes a segment the
//!   newest anchor still needs, keeps exactly the newest anchor, preserves
//!   hash-chain continuity across the anchor, and recovery after compaction
//!   is still bit-identical.
//!
//! The seeded crash-injection soak from `scout-sim` rides along as a
//! regression pin: its report (crash sites included) is deterministic.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scout::core::{ScoutEngine, ScoutReport};
use scout::fabric::{EventBatch, Fabric, FabricProbe};
use scout::sim::churn::soak_step;
use scout::sim::{CrashSoak, WorkloadKind};
use scout::store::test_dir::TestDir;
use scout::store::{verify_dir, CrashPlan, DurableEngine, StoreConfig, StoreError};
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

/// Small store knobs so short runs still cross segment rolls, anchors and
/// compaction cycles.
fn small_config() -> StoreConfig {
    StoreConfig {
        snapshot_every: 4,
        segment_max_records: 3,
        ..StoreConfig::default()
    }
}

/// First epoch of the oldest journal segment still on disk.
fn oldest_segment_first_epoch(dir: &std::path::Path) -> u64 {
    std::fs::read_dir(dir.join("journal"))
        .expect("journal dir")
        .filter_map(|e| {
            let name = e.expect("dir entry").file_name().into_string().ok()?;
            let digits = name.strip_prefix("seg-")?.strip_suffix(".scjl")?;
            digits.parse().ok()
        })
        .min()
        .expect("at least one segment")
}

/// Every file a store directory holds, sorted: `journal/*` then `snap/*`.
fn store_files(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
    let mut files = Vec::new();
    for sub in ["journal", "snap"] {
        let mut entries: Vec<_> = std::fs::read_dir(dir.join(sub))
            .expect("store subdirectory")
            .map(|e| e.expect("dir entry").path())
            .collect();
        entries.sort();
        files.extend(entries);
    }
    files
}

/// The kill-and-recover contract, at a seeded "random" epoch: the store is
/// SIGKILL-simulated mid-commit via its operation-countdown abort points
/// (torn partial appends included), recovered, cross-checked against an
/// uninterrupted reference session, re-fed, and driven to the end.
#[test]
fn kill_and_recover_at_a_random_epoch_is_bit_identical() {
    const EPOCHS: u64 = 50;
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let mut fabric = testbed_fabric(11);
    let engine = ScoutEngine::new();
    let dir = TestDir::new("kill-recover");

    let mut reference = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    // The abort countdown starts at a random operation index comfortably
    // past open_durable's own writes, so the kill lands at a random epoch
    // somewhere in the middle of the run.
    let plan = CrashPlan {
        abort_after_ops: rng.gen_range(40u64..100),
        partial_seed: rng.gen_range(0u64..u64::MAX),
    };
    let mut durable = engine
        .open_durable(
            &fabric,
            dir.path(),
            StoreConfig {
                crash_plan: Some(plan),
                ..small_config()
            },
        )
        .expect("the countdown outlives open_durable");

    let mut batches: Vec<EventBatch> = Vec::new();
    let mut reports: Vec<ScoutReport> = vec![reference.full_report().clone()];
    let mut crashed_at = None;

    for epoch in 1..=EPOCHS {
        soak_step(&mut fabric, &mut rng);
        let batch = EventBatch::new(epoch, probe.observe(&fabric));
        batches.push(batch.clone());
        reference.ingest(batch).expect("reference ingests");
        reports.push(reference.full_report().clone());

        loop {
            let next = durable.next_epoch();
            if next > epoch {
                break;
            }
            match durable.ingest(batches[next as usize - 1].clone()) {
                Ok(_) => {
                    assert_eq!(
                        durable.full_report(),
                        &reports[durable.epoch() as usize],
                        "epoch {}: durable session diverged",
                        durable.epoch()
                    );
                }
                Err(StoreError::InjectedCrash) => {
                    assert!(crashed_at.is_none(), "one crash is armed");
                    assert!(durable.is_poisoned());
                    crashed_at = Some(next);
                    drop(durable);

                    durable = engine
                        .recover(dir.path(), small_config())
                        .expect("a killed store recovers");
                    let recovered = durable.epoch();
                    assert!(recovered <= next, "recovery invented epochs");
                    assert_eq!(
                        durable.full_report(),
                        &reports[recovered as usize],
                        "recovered state at epoch {recovered} is not bit-identical \
                         to the uninterrupted reference"
                    );
                }
                Err(other) => panic!("unexpected store error: {other}"),
            }
        }
    }

    let kill_epoch = crashed_at.expect("the seeded countdown fires mid-run");
    assert!(
        (2..=EPOCHS).contains(&kill_epoch),
        "kill epoch {kill_epoch} must land inside the run"
    );
    assert_eq!(durable.epoch(), EPOCHS);
    assert_eq!(
        durable.full_report(),
        reference.full_report(),
        "final durable state diverged from the uninterrupted reference"
    );
    drop(durable);

    // One more recovery from cold: still bit-identical.
    let summary = verify_dir(dir.path()).expect("store verifies after the run");
    assert_eq!(summary.last_epoch, EPOCHS);
    let recovered = engine
        .recover(dir.path(), small_config())
        .expect("final recovery");
    assert_eq!(recovered.epoch(), EPOCHS);
    assert_eq!(recovered.full_report(), reference.full_report());
}

/// Any single flipped byte, in any byte of any store file, is a typed
/// [`StoreError`] from offline verification — and from full recovery —
/// never a panic and never a silent acceptance.
#[test]
fn every_single_byte_flip_anywhere_is_a_typed_store_error() {
    // A deliberately tiny fabric with light churn: the sweep below runs
    // `verify_dir` (which hashes every store byte) once per flipped byte, so
    // total cost is quadratic in store size — keep the store small, not the
    // coverage.
    let spec = TestbedSpec {
        epgs: 4,
        contracts: 3,
        filters: 2,
        target_pairs: 6,
        switches: 2,
        tcam_capacity: 128,
    };
    let mut fabric = Fabric::new(spec.generate(7));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let dir = TestDir::new("bit-flips");

    let mut durable = engine
        .open_durable(&fabric, dir.path(), small_config())
        .expect("store opens");
    let mut probe = FabricProbe::new(&fabric);
    for epoch in 1..=8u64 {
        let ids = fabric.universe().switch_ids();
        let switch = ids[(epoch / 2) as usize % ids.len()];
        if epoch.is_multiple_of(2) {
            fabric.evict_tcam(switch, 1, false);
        } else {
            fabric.repair_switch(switch);
        }
        durable
            .ingest(EventBatch::new(epoch, probe.observe(&fabric)))
            .expect("epochs ingest");
    }
    let final_report = durable.full_report().clone();
    drop(durable);
    verify_dir(dir.path()).expect("pristine store verifies");

    let files = store_files(dir.path());
    assert!(files.len() >= 2, "store must hold segments and an anchor");
    let mut flips = 0usize;
    for path in &files {
        let clean = std::fs::read(path).expect("store file reads");
        assert!(!clean.is_empty());
        for i in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[i] ^= 0x01;
            std::fs::write(path, &damaged).expect("tampered file writes");

            let verdict = verify_dir(dir.path());
            assert!(
                verdict.is_err(),
                "flip at byte {i} of {} was silently accepted by verify_dir",
                path.display()
            );
            // Full recovery (engine restore + replay) must agree; it is the
            // costlier path, so sample it on a stride.
            if i % 64 == 0 {
                match engine.recover(dir.path(), small_config()) {
                    Err(_) => {}
                    Ok(_) => panic!(
                        "flip at byte {i} of {} was accepted by recover",
                        path.display()
                    ),
                }
            }
            flips += 1;
        }
        std::fs::write(path, &clean).expect("file restored");
    }
    println!(
        "checked {flips} single-byte flips across {} files",
        files.len()
    );

    // After undoing every flip, the store is whole again.
    let recovered = engine
        .recover(dir.path(), small_config())
        .expect("restored store recovers");
    assert_eq!(recovered.full_report(), &final_report);
}

/// Compaction keeps exactly the newest anchor, never deletes a segment the
/// anchor still needs, keeps the chain continuous across the anchor, and
/// recovery after compaction is bit-identical.
#[test]
fn compaction_preserves_recovery_and_retention_invariants() {
    let mut rng = StdRng::seed_from_u64(0xC0DE);
    let mut fabric = testbed_fabric(23);
    let engine = ScoutEngine::new();
    let dir = TestDir::new("compaction");

    let mut reference = engine.open_session(&fabric);
    let mut durable = engine
        .open_durable(&fabric, dir.path(), small_config())
        .expect("store opens");
    let mut probe = FabricProbe::new(&fabric);

    for epoch in 1..=30u64 {
        soak_step(&mut fabric, &mut rng);
        let batch = EventBatch::new(epoch, probe.observe(&fabric));
        reference.ingest(batch.clone()).expect("reference ingests");
        durable.ingest(batch).expect("durable ingests");

        let summary = verify_dir(dir.path()).expect("store verifies mid-run");
        // Exactly the newest anchor survives.
        assert_eq!(summary.anchors, 1, "epoch {epoch}: anchor count");
        assert_eq!(summary.anchor_epoch, durable.anchor_epoch());
        // The journal still covers every epoch after the anchor…
        let replay = summary.last_epoch - summary.anchor_epoch;
        assert!(
            summary.records as u64 >= replay,
            "epoch {epoch}: compaction dropped a segment the anchor needs"
        );
        // …and at most one partially-covered segment's worth of pre-anchor
        // records survives: everything older is compacted away.
        assert!(
            summary.records as u64 - replay <= 3,
            "epoch {epoch}: compaction left fully-covered segments behind \
             ({} records for a {replay}-epoch tail)",
            summary.records
        );
        // Oldest-needed retention, by filename: the oldest surviving segment
        // starts at or before the first epoch recovery must replay.
        let oldest = oldest_segment_first_epoch(dir.path());
        assert!(
            oldest <= summary.anchor_epoch + 1,
            "epoch {epoch}: oldest segment {oldest} starts after the replay point"
        );
        assert_eq!(summary.last_epoch, epoch);
        // Chain continuity across the anchor: the summary's running digest
        // is the live session's.
        assert_eq!(summary.chain, durable.chain(), "epoch {epoch}: chain");
    }

    let stats = durable.store_stats();
    assert!(stats.anchors_written >= 6, "anchors: {stats:?}");
    assert!(
        stats.segments_removed > 0,
        "compaction never ran: {stats:?}"
    );
    // The active segment is never removed, and the seed segment is not
    // counted as rolled, so removals can at most match the roll count.
    assert!(stats.segments_rolled >= stats.segments_removed);
    drop(durable);

    // Post-compaction recovery is bit-identical to the uninterrupted
    // reference — the anchor plus the retained tail reconstruct everything.
    let recovered = engine
        .recover(dir.path(), small_config())
        .expect("compacted store recovers");
    assert_eq!(recovered.epoch(), 30);
    assert_eq!(recovered.full_report(), reference.full_report());
}

/// A torn tail (the strict prefix a crashed append left behind) is
/// truncated and recovery continues; a complete-but-damaged suffix is a
/// typed error instead.
#[test]
fn torn_tails_truncate_but_damaged_suffixes_are_errors() {
    let mut rng = StdRng::seed_from_u64(0x70AA);
    let mut fabric = testbed_fabric(3);
    let engine = ScoutEngine::new();
    let dir = TestDir::new("torn-tail");

    let mut durable = engine
        .open_durable(&fabric, dir.path(), small_config())
        .expect("store opens");
    let mut probe = FabricProbe::new(&fabric);
    for epoch in 1..=5 {
        soak_step(&mut fabric, &mut rng);
        durable
            .ingest(EventBatch::new(epoch, probe.observe(&fabric)))
            .expect("epochs ingest");
    }
    let report = durable.full_report().clone();
    drop(durable);

    let last_segment = store_files(dir.path())
        .into_iter()
        .rfind(|p| p.extension().and_then(|e| e.to_str()) == Some("scjl"))
        .expect("an active segment exists");
    let clean = std::fs::read(&last_segment).expect("segment reads");

    // Fewer than a frame header's worth of garbage: crash evidence.
    let mut torn = clean.clone();
    torn.extend_from_slice(&[0xEE; 20]);
    std::fs::write(&last_segment, &torn).expect("torn tail written");
    let recovered = engine
        .recover(dir.path(), small_config())
        .expect("torn tail truncates");
    assert_eq!(recovered.epoch(), 5);
    assert_eq!(recovered.full_report(), &report);
    assert_eq!(recovered.store_stats().torn_bytes_truncated, 20);
    drop(recovered);

    // A full frame header of garbage: complete but damaged — typed error.
    let mut damaged = clean.clone();
    damaged.extend_from_slice(&[0xEE; 60]);
    std::fs::write(&last_segment, &damaged).expect("damaged tail written");
    assert!(verify_dir(dir.path()).is_err());
    assert!(engine.recover(dir.path(), small_config()).is_err());

    std::fs::write(&last_segment, &clean).expect("segment restored");
    verify_dir(dir.path()).expect("restored store verifies");
}

/// A crafted header-only segment claiming `first_epoch = 0` (valid CRC,
/// zero records) must surface as a typed error, never a panic: epoch 0 is
/// the genesis anchor, so no legitimate segment ever starts there — and an
/// unguarded `end_epoch` underflows on exactly this file.
#[test]
fn forged_zero_epoch_segment_is_a_typed_error() {
    use scout::store::{sha256, JournalError, SegmentHeader};

    let mut rng = StdRng::seed_from_u64(0x2E80);
    let mut fabric = testbed_fabric(4);
    let engine = ScoutEngine::new();
    let dir = TestDir::new("zero-epoch");

    let mut durable = engine
        .open_durable(&fabric, dir.path(), small_config())
        .expect("store opens");
    let mut probe = FabricProbe::new(&fabric);
    for epoch in 1..=5 {
        soak_step(&mut fabric, &mut rng);
        durable
            .ingest(EventBatch::new(epoch, probe.observe(&fabric)))
            .expect("epochs ingest");
    }
    drop(durable);

    let forged = SegmentHeader {
        first_epoch: 0,
        prev_chain: sha256(b"forged"),
    }
    .to_bytes();
    std::fs::write(
        dir.path()
            .join("journal")
            .join("seg-00000000000000000000.scjl"),
        forged,
    )
    .expect("forged segment written");

    for verdict in [
        verify_dir(dir.path()).map(|_| ()),
        engine.recover(dir.path(), small_config()).map(|_| ()),
    ] {
        match verdict {
            Err(StoreError::Journal {
                source: JournalError::FirstEpochZero,
                ..
            }) => {}
            other => panic!("forged segment must be a typed error, got {other:?}"),
        }
    }
}

/// The seeded crash-injection soak: repeated kills at random abort points
/// across segment rolls, anchors and compactions, every recovery
/// cross-checked bit-for-bit inside the soak — and the whole report
/// (crash sites included) is deterministic per seed.
#[test]
fn crash_soak_regression() {
    let soak = CrashSoak::new(
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
        0xD15C,
    );
    let engine = ScoutEngine::new();
    let report = soak.run(&engine);
    assert_eq!(report.crashes_injected, 3);
    assert_eq!(report.final_epoch, 48);
    assert!(report.anchors_written > 0);
    assert_eq!(report, soak.run(&engine), "soak must be deterministic");
}
