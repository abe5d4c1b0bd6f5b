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

/// A deliberately tiny fabric: the byte-flip sweeps run `verify_dir` (which
/// hashes every store byte) once per flipped byte, so their cost is
/// quadratic in store size — keep the store small, not the coverage.
fn tiny_fabric() -> Fabric {
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
    fabric
}

/// Light churn for the tiny fabric: an eviction on even epochs, a repair on
/// odd ones, rotating over the switches.
fn tiny_step(fabric: &mut Fabric, epoch: u64) {
    let ids = fabric.universe().switch_ids();
    let switch = ids[(epoch / 2) as usize % ids.len()];
    if epoch.is_multiple_of(2) {
        fabric.evict_tcam(switch, 1, false);
    } else {
        fabric.repair_switch(switch);
    }
}

/// Flips every byte of every store file in turn: each flip must be a typed
/// [`StoreError`] from `verify_dir`, and recovery (sampled on a stride, as
/// the costlier path) must fail with the same error. Undoing every flip
/// leaves a store that recovers to `report`.
fn assert_every_flip_is_one_typed_error(dir: &std::path::Path, report: &ScoutReport) {
    let engine = ScoutEngine::new();
    let files = store_files(dir);
    assert!(files.len() >= 2, "store must hold segments and an anchor");
    let mut flips = 0usize;
    for path in &files {
        let clean = std::fs::read(path).expect("store file reads");
        assert!(!clean.is_empty());
        for i in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[i] ^= 0x01;
            std::fs::write(path, &damaged).expect("tampered file writes");

            let verdict = verify_dir(dir).map(|_| ()).map_err(|e| e.to_string());
            assert!(
                verdict.is_err(),
                "flip at byte {i} of {} was silently accepted by verify_dir",
                path.display()
            );
            if i % 64 == 0 {
                let recovered = engine
                    .recover(dir, small_config())
                    .map(|_| ())
                    .map_err(|e| e.to_string());
                assert_eq!(
                    recovered,
                    verdict,
                    "flip at byte {i} of {}: recover and verify_dir disagree",
                    path.display()
                );
            }
            flips += 1;
        }
        std::fs::write(path, &clean).expect("file restored");
    }
    println!(
        "checked {flips} single-byte flips across {} files",
        files.len()
    );
    let recovered = engine
        .recover(dir, small_config())
        .expect("restored store recovers");
    assert_eq!(recovered.full_report(), report);
}

/// Any single flipped byte, in any byte of any store file, is a typed
/// [`StoreError`] from offline verification — and the same one from full
/// recovery — never a panic and never a silent acceptance.
#[test]
fn every_single_byte_flip_anywhere_is_a_typed_store_error() {
    let mut fabric = tiny_fabric();
    let engine = ScoutEngine::new();
    let dir = TestDir::new("bit-flips");

    let mut durable = engine
        .open_durable(&fabric, dir.path(), small_config())
        .expect("store opens");
    let mut probe = FabricProbe::new(&fabric);
    for epoch in 1..=8u64 {
        tiny_step(&mut fabric, epoch);
        durable
            .ingest(EventBatch::new(epoch, probe.observe(&fabric)))
            .expect("epochs ingest");
    }
    let final_report = durable.full_report().clone();
    drop(durable);
    verify_dir(dir.path()).expect("pristine store verifies");
    assert_every_flip_is_one_typed_error(dir.path(), &final_report);
}

/// Builds, in `dir`, a store holding a resync the way a crash between the
/// resync's new segment and its compaction leaves one: anchor 8 over the
/// segment holding epochs 7..=8, the lost epochs 9..=10 bridged by the
/// resync anchor at 10, and the segment holding 11..=12. Returns the final
/// report and the resync anchor's path.
fn store_with_a_resync_hole(dir: &std::path::Path) -> (ScoutReport, std::path::PathBuf) {
    let engine = ScoutEngine::new();
    let mut fabric = tiny_fabric();
    let mut durable = engine
        .open_durable(&fabric, dir, small_config())
        .expect("store opens");
    let mut probe = FabricProbe::new(&fabric);
    for epoch in 1..=8u64 {
        tiny_step(&mut fabric, epoch);
        durable
            .ingest(EventBatch::new(epoch, probe.observe(&fabric)))
            .expect("epochs ingest");
    }
    let before: Vec<_> = store_files(dir)
        .into_iter()
        .map(|path| {
            let bytes = std::fs::read(&path).expect("store file reads");
            (path, bytes)
        })
        .collect();
    for epoch in 9..=10 {
        tiny_step(&mut fabric, epoch);
        let _lost = probe.observe(&fabric);
    }
    durable
        .resync(10, probe.full_resync(&fabric))
        .expect("a forward resync is accepted");
    for epoch in 11..=12u64 {
        tiny_step(&mut fabric, epoch);
        durable
            .ingest(EventBatch::new(epoch, probe.observe(&fabric)))
            .expect("epochs ingest");
    }
    let report = durable.full_report().clone();
    assert_eq!(report, engine.analyze(&fabric));
    drop(durable);
    // The resync compacted anchor 8 and segment 7 away: put them back.
    for (path, bytes) in before {
        std::fs::write(path, bytes).expect("pre-resync file restored");
    }
    (report, dir.join("snap/anchor-00000000000000000010.scsa"))
}

/// The byte-flip sweep over a store whose journal has a hole bridged by a
/// resync anchor: every flip is still one typed error from both paths.
#[test]
fn every_byte_flip_in_a_store_holding_a_resync_is_a_typed_store_error() {
    let dir = TestDir::new("resync-bit-flips");
    let (report, _) = store_with_a_resync_hole(dir.path());
    let summary = verify_dir(dir.path()).expect("the bridged hole verifies");
    assert_eq!(
        (summary.anchor_epoch, summary.last_epoch),
        (10, 12),
        "{summary:?}"
    );
    assert_eq!((summary.anchors, summary.segments), (2, 2), "{summary:?}");
    assert_every_flip_is_one_typed_error(dir.path(), &report);
}

/// A hole between segments with no anchor to bridge it, and a resync anchor
/// whose chain does not bind to the segment before it, are typed errors
/// from both paths; a resync anchor that does bind is accepted past the
/// journal end, where a crash before its segment existed leaves it.
#[test]
fn unbridged_holes_and_unbound_resync_anchors_are_typed_errors() {
    use scout::store::{decode_segment, resync_chain, sha256, Anchor, SegmentBuilder};

    let engine = ScoutEngine::new();
    let both = |dir: &std::path::Path| {
        let verified = verify_dir(dir).map(|_| ()).map_err(|e| e.to_string());
        let recovered = engine
            .recover(dir, small_config())
            .map(|_| ())
            .map_err(|e| e.to_string());
        assert_eq!(recovered, verified, "recover and verify_dir disagree");
        verify_dir(dir)
    };

    // A spliced hole: no periodic anchors, so no compaction — then the
    // middle of the journal disappears.
    let dir = TestDir::new("hole-no-anchor");
    let mut durable = engine
        .open_durable(
            &tiny_fabric(),
            dir.path(),
            StoreConfig {
                snapshot_every: 0,
                ..small_config()
            },
        )
        .expect("store opens");
    for epoch in 1..=9 {
        durable.ingest(EventBatch::empty(epoch)).expect("ingests");
    }
    drop(durable);
    std::fs::remove_file(dir.path().join("journal/seg-00000000000000000004.scjl"))
        .expect("middle segment removed");
    assert!(matches!(
        both(dir.path()),
        Err(StoreError::SegmentOrder {
            prev_end: 3,
            next_first: 7
        })
    ));

    // A self-consistent forgery: a resync anchor at 10 chained from some
    // other journal, and the segment after it re-stamped to match. Only the
    // binding to the segment before the hole gives it away.
    let dir = TestDir::new("hole-unbound-anchor");
    let (_, anchor_path) = store_with_a_resync_hole(dir.path());
    let genuine = Anchor::from_bytes(&std::fs::read(&anchor_path).unwrap()).unwrap();
    let snapshot_bytes = genuine.snapshot.to_bytes();
    let forged_chain = resync_chain(&sha256(b"another journal"), &snapshot_bytes);
    let forged = Anchor::new(genuine.snapshot.clone(), forged_chain).unwrap();
    std::fs::write(&anchor_path, forged.to_bytes()).unwrap();
    let tail_path = dir.path().join("journal/seg-00000000000000000011.scjl");
    let tail = decode_segment(&std::fs::read(&tail_path).unwrap()).unwrap();
    let mut restamped = SegmentBuilder::new(11, forged_chain);
    for record in &tail.records {
        restamped.append(&record.batch).unwrap();
    }
    std::fs::write(&tail_path, restamped.bytes()).unwrap();
    assert!(matches!(
        both(dir.path()),
        Err(StoreError::ChainDiscontinuity { at_epoch: 8 })
    ));

    // Without the segment after it, the forged anchor sits past the journal
    // end and still binds to nothing …
    std::fs::remove_file(&tail_path).unwrap();
    assert!(matches!(
        both(dir.path()),
        Err(StoreError::AnchorBeyondJournal {
            anchor_epoch: 10,
            journal_end: 8
        })
    ));
    // … while the genuine one is exactly a resync that crashed before its
    // segment existed: recovery lands on it and seeds that segment.
    std::fs::write(&anchor_path, genuine.to_bytes()).unwrap();
    let summary = both(dir.path()).expect("a bound resync anchor verifies");
    assert_eq!((summary.anchor_epoch, summary.last_epoch), (10, 10));
    let recovered = engine.recover(dir.path(), small_config()).unwrap();
    assert_eq!(recovered.epoch(), 10);
    assert_eq!(recovered.full_report(), genuine.snapshot.report());
    drop(recovered);
    assert_eq!(verify_dir(dir.path()).unwrap().segments, 2);
}

/// A crash at any durable operation inside a resync recovers either to the
/// epoch before it or to the resync epoch — bit-identical to an in-memory
/// session at that epoch — and the recovered store carries on.
#[test]
fn a_crash_anywhere_in_a_resync_recovers_to_one_side_of_it() {
    let engine = ScoutEngine::new();
    let mut fabric = tiny_fabric();
    let mut probe = FabricProbe::new(&fabric);
    let mut reference = engine.open_session(&fabric);
    let mut batches = Vec::new();
    for epoch in 1..=5 {
        tiny_step(&mut fabric, epoch);
        let batch = EventBatch::new(epoch, probe.observe(&fabric));
        reference.ingest(batch.clone()).unwrap();
        batches.push(batch);
    }
    let before = reference.full_report().clone();
    for epoch in 6..=8 {
        tiny_step(&mut fabric, epoch);
        let _lost = probe.observe(&fabric);
    }
    let sync = probe.full_resync(&fabric);
    reference.resync(8, sync.clone()).unwrap();
    let after = reference.full_report().clone();
    tiny_step(&mut fabric, 9);
    let next = EventBatch::new(9, probe.observe(&fabric));
    reference.ingest(next.clone()).unwrap();
    assert_eq!(*reference.full_report(), engine.analyze(&fabric));

    let (mut crashes, mut landed_before, mut landed_after) = (0, 0, 0);
    for abort_after_ops in 0.. {
        let dir = TestDir::new(&format!("resync-crash-{abort_after_ops}"));
        let config = StoreConfig {
            crash_plan: Some(CrashPlan {
                abort_after_ops,
                partial_seed: abort_after_ops,
            }),
            ..small_config()
        };
        let Ok(mut durable) = engine.open_durable(&tiny_fabric(), dir.path(), config) else {
            continue;
        };
        if batches.iter().any(|b| durable.ingest(b.clone()).is_err()) {
            continue;
        }
        match durable.resync(8, sync.clone()) {
            Ok(_) => break, // every later abort point falls after the resync
            Err(StoreError::InjectedCrash) => crashes += 1,
            Err(other) => panic!("abort point {abort_after_ops}: {other}"),
        }
        assert!(durable.is_poisoned());
        drop(durable);

        verify_dir(dir.path()).expect("a store killed mid-resync verifies");
        let mut recovered = engine
            .recover(dir.path(), small_config())
            .expect("a store killed mid-resync recovers");
        match recovered.epoch() {
            5 => {
                assert_eq!(recovered.full_report(), &before);
                landed_before += 1;
                recovered.resync(8, sync.clone()).unwrap();
            }
            8 => {
                assert_eq!(recovered.full_report(), &after);
                landed_after += 1;
            }
            other => panic!("abort point {abort_after_ops}: recovered to epoch {other}"),
        }
        recovered.ingest(next.clone()).unwrap();
        assert_eq!(recovered.full_report(), reference.full_report());
        drop(recovered);
        let summary = verify_dir(dir.path()).expect("the resumed store verifies");
        assert_eq!(summary.last_epoch, 9);
    }
    assert!(
        crashes >= 9,
        "only {crashes} abort points inside the resync"
    );
    assert!(landed_before > 0 && landed_after > 0);
}

/// Two resyncs with no batch between them: each anchor bridges its own
/// hole, and the store recovers to the second one after both and between
/// them.
#[test]
fn back_to_back_resyncs_recover_bit_identically() {
    let engine = ScoutEngine::new();
    let mut fabric = tiny_fabric();
    let dir = TestDir::new("back-to-back-resyncs");
    let mut durable = engine
        .open_durable(&fabric, dir.path(), small_config())
        .expect("store opens");
    let mut probe = FabricProbe::new(&fabric);
    for epoch in 1..=3 {
        tiny_step(&mut fabric, epoch);
        durable
            .ingest(EventBatch::new(epoch, probe.observe(&fabric)))
            .unwrap();
    }
    for epoch in [5, 9] {
        tiny_step(&mut fabric, epoch);
        durable.resync(epoch, probe.full_resync(&fabric)).unwrap();
        assert_eq!(durable.committed_epoch(), epoch);
        assert_eq!(durable.full_report(), &engine.analyze(&fabric));
        let summary = verify_dir(dir.path()).expect("store verifies after a resync");
        assert_eq!((summary.anchor_epoch, summary.last_epoch), (epoch, epoch));
        assert_eq!(Some(summary.chain), durable.chain());
        let recovered = engine.recover(dir.path(), small_config()).unwrap();
        assert_eq!(recovered.full_report(), durable.full_report());
    }
    tiny_step(&mut fabric, 10);
    durable
        .ingest(EventBatch::new(10, probe.observe(&fabric)))
        .unwrap();
    let report = durable.full_report().clone();
    assert_eq!(report, engine.analyze(&fabric));
    drop(durable);
    let recovered = engine.recover(dir.path(), small_config()).unwrap();
    assert_eq!(recovered.epoch(), 10);
    assert_eq!(recovered.full_report(), &report);
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
        assert_eq!(Some(summary.anchor_epoch), durable.anchor_epoch());
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
        assert_eq!(Some(summary.chain), durable.chain(), "epoch {epoch}: chain");
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
