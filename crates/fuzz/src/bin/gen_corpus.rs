//! Regenerates the committed regression corpus under `tests/corpus/`, or
//! checks that it still would.
//!
//! ```text
//! gen-corpus [DIR]            write every case into DIR (default tests/corpus)
//! gen-corpus --check DIR      write nothing; exit 1 unless DIR holds exactly
//!                             the cases this generator produces, byte for byte
//! ```
//!
//! Every case is built deterministically — from the fuzzer's own seeds, from
//! manual [`WireWriter`] encodings, or by byte surgery on a valid frame with
//! the CRC restamped — and **verified before it is written**: the generator
//! asserts the exact typed error (or clean acceptance) each case must
//! produce, then replays the finished directory through the full oracle set.
//! A generator run that would freeze a case with the wrong fate aborts
//! instead.
//!
//! The committed `.bin` files are the contract, not this generator: the
//! `snapshot__v1` fixture in particular pins the `SNAPSHOT_VERSION = 1`
//! byte layout, and must never be silently regenerated after a version bump
//! — that is exactly the migration break the fixture exists to catch. CI runs
//! `--check` so generator and corpus cannot drift apart unnoticed.
//!
//! Reproducibility: a live [`Fabric`] draws its `universe_version` from a
//! process-wide counter, i.e. from how many fabrics the process built before
//! it. The view cases built here therefore stamp the version the committed
//! files froze ([`FABRIC_VIEW_VERSION`], [`RESYNC_VIEW_VERSION`]) instead of
//! whatever the counter says; the seed-derived cases inherit the fixed build
//! order of [`seeds::for_surface`].

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::ops::Range;
use std::path::PathBuf;
use std::process::ExitCode;

use scout_core::{CorrelationReport, Hypothesis, Snapshot, SnapshotError};
use scout_fabric::wire::{crc32, from_bytes, to_bytes, Wire, WireError, WireReader, WireWriter};
use scout_fabric::{EventBatch, Fabric, FabricView};
use scout_fuzz::gen::{restamp_journal, restamp_snapshot_crc};
use scout_fuzz::oracle::{self, Surface, Verdict};
use scout_fuzz::{corpus, seeds};
use scout_policy::{
    sample, ContractBinding, Epg, EpgId, LogicalRule, ObjectId, PolicyUniverse, SwitchId, TcamRule,
};
use scout_server::ServerRequest;
use scout_store::journal::{
    decode_segment, encode_record, JournalError, SegmentHeader, MAX_RECORD_PAYLOAD,
    RECORD_HEADER_LEN, SEGMENT_HEADER_LEN,
};
use scout_store::sha256;

/// The universe version frozen into `fabricview__{valid,stray_tcam}`.
const FABRIC_VIEW_VERSION: u64 = 0x14;
/// The universe version frozen into `server__resync_stray_tcam`.
const RESYNC_VIEW_VERSION: u64 = 0x18;

/// Where finished cases go: written into `dir`, or (`--check`) compared with
/// the files already there.
struct Corpus {
    dir: PathBuf,
    check: bool,
    /// File names of the cases produced so far.
    produced: BTreeSet<String>,
    /// `--check` findings, one line each.
    differences: Vec<String>,
}

impl Corpus {
    /// Checks `bytes` against the oracles, asserts the expected fate, and
    /// freezes (or, under `--check`, compares) the case.
    fn freeze(&mut self, surface: Surface, name: &str, bytes: &[u8], expect_accept: bool) {
        match oracle::check(surface, bytes) {
            Verdict::Accepted => {
                assert!(expect_accept, "{surface}__{name}: unexpectedly accepted")
            }
            Verdict::Rejected(err) => assert!(
                !expect_accept,
                "{surface}__{name}: unexpectedly rejected: {err}"
            ),
            Verdict::Violation(violation) => {
                panic!("{surface}__{name}: oracle violation: {violation}")
            }
        }
        let file = format!("{}__{name}.bin", surface.name());
        if self.check {
            match fs::read(self.dir.join(&file)) {
                Ok(committed) if committed == bytes => {}
                Ok(committed) => {
                    let at = committed
                        .iter()
                        .zip(bytes)
                        .take_while(|(a, b)| a == b)
                        .count();
                    self.differences.push(format!(
                        "{file}: differs from the generated case at byte {at} \
                         ({} bytes committed, {} generated)",
                        committed.len(),
                        bytes.len()
                    ));
                }
                Err(err) => self.differences.push(format!("{file}: {err}")),
            }
        } else {
            let path = corpus::write_case(&self.dir, surface, name, bytes).expect("case written");
            println!("wrote {} ({} bytes)", path.display(), bytes.len());
        }
        self.produced.insert(file);
    }

    /// `--check` only: `.bin` files in the directory this generator no
    /// longer (or never) produces.
    fn note_unproduced_files(&mut self) {
        let mut names: Vec<String> = fs::read_dir(&self.dir)
            .expect("corpus directory readable")
            .map(|entry| entry.expect("directory entry").file_name())
            .filter_map(|name| name.into_string().ok())
            .filter(|name| name.ends_with(".bin") && !self.produced.contains(name))
            .collect();
        names.sort();
        for name in names {
            self.differences
                .push(format!("{name}: not produced by this generator"));
        }
    }
}

/// Encodes `view` the way [`FabricView`]'s codec does, with a pinned
/// universe version and `tcam` standing in for the mirrored tables.
fn encode_view(
    w: &mut WireWriter,
    version: u64,
    view: &FabricView,
    tcam: &BTreeMap<SwitchId, Vec<TcamRule>>,
) {
    w.put_u64(version);
    view.universe().encode(w);
    tcam.encode(w);
    view.change_log().encode(w);
    view.fault_log().encode(w);
}

/// `view`'s tables plus one for a switch the universe has never heard of.
fn with_stray_switch(view: &FabricView) -> BTreeMap<SwitchId, Vec<TcamRule>> {
    let mut tcam = view.tcam().clone();
    tcam.insert(SwitchId::new(9999), Vec::new());
    tcam
}

/// Byte offsets inside a valid snapshot frame, recovered by re-walking the
/// payload with the same public decoders `Snapshot::from_bytes` uses. Byte
/// surgery at these offsets (plus a CRC restamp) forges payloads that no
/// honest encoder can produce.
struct SnapshotOffsets {
    /// Offset of the report's per-switch check count (a `u64`).
    check_count_offset: usize,
    /// Byte span of the first encoded `SwitchCheckResult`.
    first_check: Range<usize>,
    /// End of the last `SwitchCheckResult` (start of the observations set).
    checks_end: usize,
    /// Spans of the `a` and `b` ids of the first observation whose EPG pair
    /// has `a != b` — swapping them denormalizes the pair.
    denorm_pair: Option<(Range<usize>, Range<usize>)>,
    /// Offset of the replay-tail batch count (a `u64`).
    tail_count_offset: usize,
}

fn snapshot_offsets(bytes: &[u8]) -> SnapshotOffsets {
    let payload = &bytes[12..];
    let mut r = WireReader::new(payload);
    let at = |r: &WireReader<'_>| 12 + payload.len() - r.remaining();

    for _ in 0..3 {
        r.get_u64().expect("snapshot header fields"); // fabric_id, open_epoch, epoch
    }
    FabricView::decode(&mut r).expect("seed snapshot view");

    let check_count_offset = at(&r);
    let check_count = r.get_usize().expect("check count");
    assert!(check_count >= 2, "seed snapshot needs >= 2 switch checks");
    let first_start = at(&r);
    let mut first_check = first_start..first_start;
    let mut checks_end = first_start;
    for i in 0..check_count {
        SwitchId::decode(&mut r).expect("check switch");
        r.get_bool().expect("check equivalent");
        <Vec<LogicalRule> as Wire>::decode(&mut r).expect("missing rules");
        <Vec<TcamRule> as Wire>::decode(&mut r).expect("unexpected rules");
        if i == 0 {
            first_check = first_start..at(&r);
        }
        checks_end = at(&r);
    }

    let obs_count = r.get_usize().expect("observation count");
    let mut denorm_pair = None;
    for _ in 0..obs_count {
        SwitchId::decode(&mut r).expect("observation switch");
        let a_start = at(&r);
        let a = EpgId::decode(&mut r).expect("pair a");
        let a_end = at(&r);
        let b = EpgId::decode(&mut r).expect("pair b");
        let b_end = at(&r);
        if denorm_pair.is_none() && a != b {
            denorm_pair = Some((a_start..a_end, a_end..b_end));
        }
    }

    <BTreeSet<ObjectId> as Wire>::decode(&mut r).expect("suspect objects");
    Hypothesis::decode(&mut r).expect("hypothesis");
    CorrelationReport::decode(&mut r).expect("diagnosis");
    let tail_count_offset = at(&r);

    SnapshotOffsets {
        check_count_offset,
        first_check,
        checks_end,
        denorm_pair,
        tail_count_offset,
    }
}

fn event_batch_cases(out: &mut Corpus) {
    let surface = Surface::EventBatch;
    let seed = seeds::for_surface(surface)[0].clone();
    out.freeze(surface, "valid", &seed, true);
    out.freeze(surface, "truncated", &seed[..seed.len() - 1], false);

    let mut trailing = seed.clone();
    trailing.extend([0xA5; 3]);
    assert_eq!(
        from_bytes::<EventBatch>(&trailing),
        Err(WireError::TrailingBytes { remaining: 3 })
    );
    out.freeze(surface, "trailing_garbage", &trailing, false);

    // epoch 1, then an event count of u64::MAX: a decoder that trusted the
    // prefix would pre-allocate ~2^64 entries before reading a single byte.
    let mut w = WireWriter::new();
    w.put_u64(1);
    w.put_u64(u64::MAX);
    let huge = w.into_bytes();
    assert!(matches!(
        from_bytes::<EventBatch>(&huge),
        Err(WireError::UnexpectedEof { .. })
    ));
    out.freeze(surface, "huge_len_prefix", &huge, false);

    let mut w = WireWriter::new();
    w.put_u64(1); // epoch
    w.put_u64(1); // one event
    w.put_u8(0xFF); // no FabricEvent variant uses this tag
    let bad_tag = w.into_bytes();
    assert_eq!(
        from_bytes::<EventBatch>(&bad_tag),
        Err(WireError::InvalidTag {
            what: "FabricEvent",
            tag: 0xFF,
        })
    );
    out.freeze(surface, "bad_tag", &bad_tag, false);
}

fn fabric_view_cases(out: &mut Corpus) {
    let surface = Surface::FabricView;
    let mut fabric = Fabric::new(sample::three_tier());
    fabric.deploy();
    let view = FabricView::of(&fabric);
    let mut w = WireWriter::new();
    encode_view(&mut w, FABRIC_VIEW_VERSION, &view, view.tcam());
    let valid = w.into_bytes();
    assert_eq!(
        valid[8..],
        to_bytes(&view)[8..],
        "only the version is pinned"
    );
    out.freeze(surface, "valid", &valid, true);

    // Same view, plus a mirrored TCAM table for a switch the universe has
    // never heard of.
    let mut w = WireWriter::new();
    encode_view(
        &mut w,
        FABRIC_VIEW_VERSION,
        &view,
        &with_stray_switch(&view),
    );
    let stray = w.into_bytes();
    assert_eq!(
        from_bytes::<FabricView>(&stray),
        Err(WireError::Invalid { what: "FabricView" })
    );
    out.freeze(surface, "stray_tcam", &stray, false);
}

fn policy_universe_cases(out: &mut Corpus) {
    let surface = Surface::PolicyUniverse;
    let universe = sample::three_tier();
    out.freeze(surface, "valid", &to_bytes(&universe), true);

    let encode_with = |mutate: &dyn Fn(&mut Vec<Epg>, &mut Vec<ContractBinding>)| {
        let mut epgs: Vec<Epg> = universe.epgs().cloned().collect();
        let mut bindings = universe.bindings().to_vec();
        mutate(&mut epgs, &mut bindings);
        let mut w = WireWriter::new();
        universe
            .tenants()
            .cloned()
            .collect::<Vec<_>>()
            .encode(&mut w);
        universe.vrfs().cloned().collect::<Vec<_>>().encode(&mut w);
        epgs.encode(&mut w);
        universe
            .endpoints()
            .cloned()
            .collect::<Vec<_>>()
            .encode(&mut w);
        universe
            .switches()
            .cloned()
            .collect::<Vec<_>>()
            .encode(&mut w);
        universe
            .contracts()
            .cloned()
            .collect::<Vec<_>>()
            .encode(&mut w);
        universe
            .filters()
            .cloned()
            .collect::<Vec<_>>()
            .encode(&mut w);
        bindings.encode(&mut w);
        w.into_bytes()
    };

    assert!(universe.epgs().count() >= 2);
    let unsorted = encode_with(&|epgs, _| epgs.swap(0, 1));
    assert_eq!(
        from_bytes::<PolicyUniverse>(&unsorted),
        Err(WireError::NonCanonical {
            what: "PolicyUniverse.epgs"
        })
    );
    out.freeze(surface, "unsorted_epgs", &unsorted, false);

    assert!(!universe.bindings().is_empty());
    let dup = encode_with(&|_, bindings| bindings.insert(0, bindings[0]));
    assert_eq!(
        from_bytes::<PolicyUniverse>(&dup),
        Err(WireError::NonCanonical {
            what: "PolicyUniverse.bindings"
        })
    );
    out.freeze(surface, "dup_binding", &dup, false);
}

fn tcam_cases(out: &mut Corpus) {
    let surface = Surface::Tcam;
    let mut fabric = Fabric::new(sample::three_tier());
    fabric.deploy();
    let tcam = fabric.collect_tcam();
    assert!(tcam.len() >= 2, "need >= 2 switches to unsort the map");
    out.freeze(surface, "valid", &to_bytes(&tcam), true);

    let mut w = WireWriter::new();
    w.put_usize(tcam.len());
    for (switch, rules) in tcam.iter().rev() {
        switch.encode(&mut w);
        rules.encode(&mut w);
    }
    let unsorted = w.into_bytes();
    assert_eq!(
        from_bytes::<std::collections::BTreeMap<SwitchId, Vec<TcamRule>>>(&unsorted),
        Err(WireError::NonCanonical { what: "BTreeMap" })
    );
    out.freeze(surface, "unsorted_keys", &unsorted, false);
}

fn log_cases(out: &mut Corpus) {
    let changelog = seeds::for_surface(Surface::ChangeLog)[0].clone();
    out.freeze(Surface::ChangeLog, "valid", &changelog, true);
    let faultlog = seeds::for_surface(Surface::FaultLog)[0].clone();
    out.freeze(Surface::FaultLog, "valid", &faultlog, true);
}

fn snapshot_cases(out: &mut Corpus) {
    let surface = Surface::Snapshot;
    let snap_seeds = seeds::for_surface(surface);
    let bare = snap_seeds[0].clone();
    let tailed = snap_seeds[1].clone();
    assert!(
        !Snapshot::from_bytes(&tailed)
            .expect("seed decodes")
            .tail()
            .is_empty(),
        "the v1 fixture must pin tail replay, not just the checkpoint"
    );
    out.freeze(surface, "v1", &tailed, true);

    let mut bad_magic = tailed.clone();
    bad_magic[..4].copy_from_slice(b"XXXX");
    assert_eq!(
        Snapshot::from_bytes(&bad_magic),
        Err(SnapshotError::BadMagic)
    );
    out.freeze(surface, "bad_magic", &bad_magic, false);

    let mut wrong_version = tailed.clone();
    wrong_version[4..8].copy_from_slice(&99u32.to_le_bytes());
    assert!(matches!(
        Snapshot::from_bytes(&wrong_version),
        Err(SnapshotError::UnsupportedVersion { found: 99, .. })
    ));
    out.freeze(surface, "wrong_version", &wrong_version, false);

    // One flipped payload bit, checksum left stale.
    let mut bad_crc = tailed.clone();
    bad_crc[20] ^= 0x01;
    assert!(matches!(
        Snapshot::from_bytes(&bad_crc),
        Err(SnapshotError::ChecksumMismatch { .. })
    ));
    out.freeze(surface, "bad_crc", &bad_crc, false);

    // Checkpoint epoch forged to u64::MAX: accepting it would make the very
    // next `next_epoch()` overflow. The epoch is the third payload u64.
    let mut overflow = bare.clone();
    overflow[28..36].copy_from_slice(&u64::MAX.to_le_bytes());
    restamp_snapshot_crc(&mut overflow);
    assert_eq!(
        Snapshot::from_bytes(&overflow),
        Err(SnapshotError::EpochOverflow { epoch: u64::MAX })
    );
    out.freeze(surface, "epoch_overflow", &overflow, false);

    // Checkpoint epoch shifted forward: the tail batches no longer continue
    // it in +1 sequence.
    let epoch = u64::from_le_bytes(tailed[28..36].try_into().expect("8 bytes"));
    let mut gapped = tailed.clone();
    gapped[28..36].copy_from_slice(&(epoch + 5).to_le_bytes());
    restamp_snapshot_crc(&mut gapped);
    assert_eq!(
        Snapshot::from_bytes(&gapped),
        Err(SnapshotError::TailOutOfOrder {
            expected: epoch + 6,
            got: epoch + 1,
        })
    );
    out.freeze(surface, "gapped_tail", &gapped, false);

    let offsets = snapshot_offsets(&tailed);

    // The report's per-switch section replaced by the same switch twice: the
    // old decoder collapsed the duplicate into one map entry, re-encoding to
    // fewer bytes than arrived.
    let mut w = WireWriter::new();
    w.put_usize(2);
    let mut dup = tailed[..offsets.check_count_offset].to_vec();
    dup.extend_from_slice(&w.into_bytes());
    dup.extend_from_slice(&tailed[offsets.first_check.clone()]);
    dup.extend_from_slice(&tailed[offsets.first_check.clone()]);
    dup.extend_from_slice(&tailed[offsets.checks_end..]);
    restamp_snapshot_crc(&mut dup);
    assert_eq!(
        Snapshot::from_bytes(&dup),
        Err(SnapshotError::Wire(WireError::NonCanonical {
            what: "NetworkCheckResult"
        }))
    );
    out.freeze(surface, "dup_check_switch", &dup, false);

    // An observation's EPG pair with its members swapped: decodes to the
    // same normalized value, so the bytes are non-canonical.
    let (a_span, b_span) = offsets
        .denorm_pair
        .expect("seed report needs an observation with two distinct EPGs");
    assert_eq!(a_span.len(), b_span.len());
    let mut denorm = tailed.clone();
    let a_bytes = tailed[a_span.clone()].to_vec();
    let b_bytes = tailed[b_span.clone()].to_vec();
    denorm[a_span].copy_from_slice(&b_bytes);
    denorm[b_span].copy_from_slice(&a_bytes);
    restamp_snapshot_crc(&mut denorm);
    assert_eq!(
        Snapshot::from_bytes(&denorm),
        Err(SnapshotError::Wire(WireError::NonCanonical {
            what: "EpgPair"
        }))
    );
    out.freeze(surface, "denorm_epgpair", &denorm, false);

    // Replay-tail count saturated to u64::MAX with a freshly stamped CRC —
    // the snapshot-surface twin of `eventbatch__huge_len_prefix`.
    let mut huge_tail = tailed.clone();
    huge_tail[offsets.tail_count_offset..offsets.tail_count_offset + 8].fill(0xFF);
    restamp_snapshot_crc(&mut huge_tail);
    assert!(matches!(
        Snapshot::from_bytes(&huge_tail),
        Err(SnapshotError::Wire(WireError::UnexpectedEof { .. }))
    ));
    out.freeze(surface, "huge_tail_len", &huge_tail, false);
}

fn journal_cases(out: &mut Corpus) {
    let surface = Surface::Journal;
    let journal_seeds = seeds::for_surface(surface);
    let sealed = journal_seeds[0].clone();
    let empty = journal_seeds[1].clone();
    assert!(
        decode_segment(&sealed).expect("seed decodes").records.len() >= 3,
        "the journal seed must pin a multi-record chain, not a trivial segment"
    );
    out.freeze(surface, "valid", &sealed, true);
    out.freeze(surface, "empty__valid", &empty, true);

    // Torn mid-record: strict decode (the fuzz surface) rejects what
    // recovery's lenient decoder would truncate.
    assert!(matches!(
        decode_segment(&sealed[..sealed.len() - 1]),
        Err(JournalError::TruncatedRecord { .. })
    ));
    out.freeze(surface, "truncated", &sealed[..sealed.len() - 1], false);

    assert_eq!(
        decode_segment(&sealed[..30]),
        Err(JournalError::TruncatedHeader { len: 30 })
    );
    out.freeze(surface, "truncated_header", &sealed[..30], false);

    let mut bad_magic = sealed.clone();
    bad_magic[..4].copy_from_slice(b"XXXX");
    assert_eq!(decode_segment(&bad_magic), Err(JournalError::BadMagic));
    out.freeze(surface, "bad_magic", &bad_magic, false);

    let mut wrong_version = sealed.clone();
    wrong_version[4..8].copy_from_slice(&9u32.to_le_bytes());
    assert_eq!(
        decode_segment(&wrong_version),
        Err(JournalError::UnsupportedVersion { version: 9 })
    );
    out.freeze(surface, "wrong_version", &wrong_version, false);

    // One flipped payload byte, stamps left stale — the single-bit-flip
    // tamper case recovery must catch.
    let mut flipped = sealed.clone();
    flipped[SEGMENT_HEADER_LEN + RECORD_HEADER_LEN + 2] ^= 0x01;
    assert_eq!(
        decode_segment(&flipped),
        Err(JournalError::PayloadCrc { epoch: 1 })
    );
    out.freeze(surface, "flipped_payload", &flipped, false);

    // The first two record frames swapped wholesale: each frame is
    // internally consistent but the chain no longer links.
    let frame1_len = RECORD_HEADER_LEN
        + u32::from_le_bytes(
            sealed[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
    let second_start = SEGMENT_HEADER_LEN + frame1_len;
    let frame2_len = RECORD_HEADER_LEN
        + u32::from_le_bytes(
            sealed[second_start..second_start + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
    let mut spliced = sealed[..SEGMENT_HEADER_LEN].to_vec();
    spliced.extend_from_slice(&sealed[second_start..second_start + frame2_len]);
    spliced.extend_from_slice(&sealed[SEGMENT_HEADER_LEN..second_start]);
    spliced.extend_from_slice(&sealed[second_start + frame2_len..]);
    assert_eq!(
        decode_segment(&spliced),
        Err(JournalError::ChainMismatch { epoch: 1 })
    );
    out.freeze(surface, "spliced_records", &spliced, false);

    // A freshly stamped record (valid CRCs, valid chain) whose batch claims
    // the wrong epoch for its journal position.
    let genesis = sha256(b"scout-fuzz/journal-corpus");
    let mut epoch_gap = SegmentHeader {
        first_epoch: 1,
        prev_chain: genesis,
    }
    .to_bytes()
    .to_vec();
    let (frame, _) =
        encode_record(&genesis, &EventBatch::empty(9)).expect("small batch is under the cap");
    epoch_gap.extend_from_slice(&frame);
    assert_eq!(
        decode_segment(&epoch_gap),
        Err(JournalError::EpochMismatch {
            expected: 1,
            found: 9,
        })
    );
    out.freeze(surface, "epoch_gap", &epoch_gap, false);

    // A header-only segment claiming first_epoch = 0 with a valid CRC: epoch
    // 0 is the genesis anchor, never a journal record — and an unguarded
    // decoder underflowed `end_epoch` on exactly this input.
    let zero_epoch = SegmentHeader {
        first_epoch: 0,
        prev_chain: genesis,
    }
    .to_bytes()
    .to_vec();
    assert_eq!(
        decode_segment(&zero_epoch),
        Err(JournalError::FirstEpochZero)
    );
    out.freeze(surface, "zero_first_epoch", &zero_epoch, false);

    // Payload replaced with non-wire bytes and every stamp recomputed: the
    // frame passes all CRC and chain gates and dies in the batch decode.
    let mut garbage = sealed.clone();
    let payload_len = frame1_len - RECORD_HEADER_LEN;
    garbage[SEGMENT_HEADER_LEN + RECORD_HEADER_LEN..second_start].fill(0xAB);
    restamp_journal(&mut garbage);
    assert!(payload_len > 0);
    assert!(matches!(
        decode_segment(&garbage),
        Err(JournalError::Batch { epoch: 1, .. })
    ));
    out.freeze(surface, "garbage_payload", &garbage, false);

    // A frame header validly promising a payload past the sanity cap — a
    // decoder that trusted it would pre-allocate 64 MiB from a 96-byte file.
    let mut oversized = SegmentHeader {
        first_epoch: 1,
        prev_chain: genesis,
    }
    .to_bytes()
    .to_vec();
    let huge = (MAX_RECORD_PAYLOAD + 1) as u32;
    let mut frame = Vec::with_capacity(RECORD_HEADER_LEN);
    frame.extend_from_slice(&huge.to_le_bytes());
    frame.extend_from_slice(&[0u8; 4]); // payload crc (never reached)
    frame.extend_from_slice(&[0u8; 32]); // chain (never reached)
    let frame_crc = crc32(&frame[0..40]);
    frame.extend_from_slice(&frame_crc.to_le_bytes());
    oversized.extend_from_slice(&frame);
    assert_eq!(
        decode_segment(&oversized),
        Err(JournalError::OversizedRecord {
            offset: SEGMENT_HEADER_LEN,
            len: u64::from(huge),
        })
    );
    out.freeze(surface, "oversized_record", &oversized, false);
}

fn server_cases(out: &mut Corpus) {
    let surface = Surface::Server;
    let seed = seeds::for_surface(surface)[0].clone(); // OpenSession
    out.freeze(surface, "open_session__valid", &seed, true);
    out.freeze(surface, "truncated", &seed[..seed.len() - 1], false);

    let mut trailing = seed.clone();
    trailing.extend([0x5A; 2]);
    assert_eq!(
        from_bytes::<ServerRequest>(&trailing),
        Err(WireError::TrailingBytes { remaining: 2 })
    );
    out.freeze(surface, "trailing_garbage", &trailing, false);

    // Tag 6: one past the last request variant.
    let mut w = WireWriter::new();
    w.put_u8(6);
    w.put_u64(7);
    let bad_tag = w.into_bytes();
    assert_eq!(
        from_bytes::<ServerRequest>(&bad_tag),
        Err(WireError::InvalidTag {
            what: "ServerRequest",
            tag: 6,
        })
    );
    out.freeze(surface, "bad_tag", &bad_tag, false);

    // An Ingest whose batch claims u64::MAX events: the serving twin of
    // `eventbatch__huge_len_prefix` — a front door that trusted the prefix
    // would pre-allocate ~2^64 entries for a 25-byte request.
    let mut w = WireWriter::new();
    w.put_u8(1); // Ingest
    w.put_u64(7); // tenant
    w.put_u64(1); // batch epoch
    w.put_u64(u64::MAX); // event count
    let huge = w.into_bytes();
    assert!(matches!(
        from_bytes::<ServerRequest>(&huge),
        Err(WireError::UnexpectedEof { .. })
    ));
    out.freeze(surface, "huge_len_prefix", &huge, false);

    // A Resync carrying a fabric view with a mirrored TCAM table for a
    // switch the universe has never heard of — every frame is well-formed,
    // the cross-field invariant is not.
    let mut fabric = Fabric::new(sample::three_tier());
    fabric.deploy();
    let view = FabricView::of(&fabric);
    let mut w = WireWriter::new();
    w.put_u8(2); // Resync
    w.put_u64(7); // tenant
    w.put_u64(4); // epoch
    encode_view(
        &mut w,
        RESYNC_VIEW_VERSION,
        &view,
        &with_stray_switch(&view),
    );
    let stray = w.into_bytes();
    assert_eq!(
        from_bytes::<ServerRequest>(&stray),
        Err(WireError::Invalid { what: "FabricView" })
    );
    out.freeze(surface, "resync_stray_tcam", &stray, false);
}

fn main() -> ExitCode {
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let check = args.first().is_some_and(|a| a == "--check");
    if check {
        args.remove(0);
    }
    let dir = match (args.pop(), args.is_empty(), check) {
        (Some(dir), true, _) => PathBuf::from(dir),
        (None, _, false) => PathBuf::from("tests/corpus"),
        _ => {
            eprintln!("usage: gen-corpus [DIR] | gen-corpus --check DIR");
            return ExitCode::FAILURE;
        }
    };
    let mut out = Corpus {
        dir,
        check,
        produced: BTreeSet::new(),
        differences: Vec::new(),
    };

    event_batch_cases(&mut out);
    fabric_view_cases(&mut out);
    policy_universe_cases(&mut out);
    tcam_cases(&mut out);
    log_cases(&mut out);
    snapshot_cases(&mut out);
    journal_cases(&mut out);
    server_cases(&mut out);

    if out.check {
        out.note_unproduced_files();
        for difference in &out.differences {
            eprintln!("DIFFERS {difference}");
        }
        println!(
            "corpus {}: {} cases checked, {} differences",
            out.dir.display(),
            out.produced.len(),
            out.differences.len()
        );
        return if out.differences.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    // Final gate: the directory as a whole replays clean.
    let results = corpus::replay_dir(&out.dir).expect("corpus replay");
    let violations: Vec<_> = results
        .iter()
        .filter(|c| matches!(c.verdict, Verdict::Violation(_)))
        .collect();
    for case in &violations {
        eprintln!("VIOLATION {}", case.path.display());
    }
    println!(
        "corpus {}: {} cases, {} violations",
        out.dir.display(),
        results.len(),
        violations.len()
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
