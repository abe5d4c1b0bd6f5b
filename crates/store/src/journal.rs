//! Segment framing for the hash-chained `EventBatch` journal.
//!
//! A journal *segment* is one on-disk file: a fixed header followed by
//! append-only record frames, each carrying one [`EventBatch`] encoded with
//! the canonical `scout-fabric` wire codec. Everything here is pure bytes —
//! the filesystem layer lives in [`crate::store`] — so the same decoder
//! serves recovery, offline verification and the fuzz harness.
//!
//! # Layout
//!
//! ```text
//! segment  := header record*
//! header   := magic "SCJL" (4) ∥ version u32 (4) ∥ first_epoch u64 (8)
//!             ∥ prev_chain (32) ∥ header_crc u32 (4)        — 52 bytes
//! record   := len u32 (4) ∥ payload_crc u32 (4) ∥ chain (32)
//!             ∥ frame_crc u32 (4) ∥ payload (len)           — 44 + len bytes
//! ```
//!
//! All integers are little-endian, matching the wire codec. `prev_chain` is
//! the running chain digest at `first_epoch - 1`; each record's `chain` is
//! `SHA-256(prev ∥ payload)` ([`chain_next`]). `header_crc` covers the first
//! 48 header bytes; `frame_crc` covers the first 40 frame bytes;
//! `payload_crc` covers the payload.
//!
//! `first_epoch` is always ≥ 1: epoch 0 is the genesis snapshot anchor, so no
//! journal record ever carries it, and the decoder rejects a header claiming
//! it ([`JournalError::FirstEpochZero`]) — which also pins `end_epoch` away
//! from underflow on a crafted header-only segment. [`MAX_RECORD_PAYLOAD`]
//! is enforced on both sides of the boundary: the decoder refuses a frame
//! that promises more, and [`encode_record`] refuses to write a payload the
//! decoder would later refuse to read (which also keeps the `u32` length
//! field from silently wrapping).
//!
//! # Torn vs. tampered
//!
//! The decoder distinguishes *crash evidence* from *damage*. A torn tail —
//! the suffix a crashed writer never finished — is by construction a strict
//! prefix of an append: either fewer than 44 frame-header bytes remain, or a
//! valid frame header promises more payload than the file holds. Everything
//! else (bad CRC anywhere, chain mismatch, non-canonical payload, epoch
//! discontinuity) is a typed [`JournalError`], never a silent truncation:
//! `frame_crc` pins the length field itself, so a flipped length byte cannot
//! masquerade as a tear, and CRC-32 detects every burst of ≤ 32 bits, so any
//! single flipped byte in a frame or payload is caught before the chain is
//! even consulted.
//!
//! [`decode_segment`] is the strict form (tears are errors — the fuzz
//! surface); [`decode_segment_prefix`] is the lenient form recovery uses on
//! the final (active) segment only.

use std::fmt;

use scout_fabric::wire::{self, crc32, WireError};
use scout_fabric::EventBatch;

use crate::digest::{chain_next, Digest, DIGEST_LEN};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"SCJL";

/// Current journal format version.
pub const JOURNAL_VERSION: u32 = 1;

/// Byte length of a segment header.
pub const SEGMENT_HEADER_LEN: usize = 4 + 4 + 8 + DIGEST_LEN + 4;

/// Byte length of a record frame before its payload.
pub const RECORD_HEADER_LEN: usize = 4 + 4 + DIGEST_LEN + 4;

/// Sanity cap on a single record payload (64 MiB). A frame that *validly*
/// promises more was never written by this crate.
pub const MAX_RECORD_PAYLOAD: u64 = 1 << 26;

/// Why segment bytes could not be decoded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// Fewer bytes than a segment header.
    TruncatedHeader {
        /// How many bytes were present.
        len: usize,
    },
    /// The first four bytes are not [`SEGMENT_MAGIC`].
    BadMagic,
    /// A version this build does not speak.
    UnsupportedVersion {
        /// The version found in the header.
        version: u32,
    },
    /// The header checksum does not match the header bytes.
    HeaderCrc,
    /// The header claims `first_epoch = 0`. Epoch 0 is the genesis snapshot
    /// anchor — no journal record ever carries it, so a segment claiming to
    /// start there was never written by this crate.
    FirstEpochZero,
    /// The segment ends inside a record (strict decode only — the lenient
    /// decoder reports this as a torn tail instead).
    TruncatedRecord {
        /// Byte offset of the incomplete frame.
        offset: usize,
    },
    /// A complete record frame whose frame checksum does not match — a
    /// damaged length/chain field, not a tear.
    FrameCrc {
        /// Byte offset of the damaged frame.
        offset: usize,
    },
    /// A frame validly promises a payload larger than [`MAX_RECORD_PAYLOAD`].
    OversizedRecord {
        /// Byte offset of the frame.
        offset: usize,
        /// The promised payload length.
        len: u64,
    },
    /// A batch whose wire encoding exceeds [`MAX_RECORD_PAYLOAD`] was handed
    /// to the *encoder* — journaling it would produce a record the decoder is
    /// required to refuse, so the write is refused instead.
    OversizedPayload {
        /// The encoded payload length.
        len: u64,
    },
    /// A record payload whose checksum does not match — flipped payload
    /// bytes.
    PayloadCrc {
        /// Epoch the damaged record claims.
        epoch: u64,
    },
    /// The stored chain digest is not `SHA-256(prev ∥ payload)` — a spliced
    /// or reordered record whose own frame is internally consistent.
    ChainMismatch {
        /// Epoch at which the chain breaks.
        epoch: u64,
    },
    /// The payload is not a canonical wire-encoded [`EventBatch`].
    Batch {
        /// Epoch of the undecodable record.
        epoch: u64,
        /// The wire-level decode failure.
        source: WireError,
    },
    /// A record's batch carries the wrong epoch for its journal position.
    EpochMismatch {
        /// Epoch the journal position requires.
        expected: u64,
        /// Epoch the batch claims.
        found: u64,
    },
    /// The record sequence would overflow the epoch counter.
    EpochOverflow,
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::TruncatedHeader { len } => write!(
                f,
                "segment shorter than its {SEGMENT_HEADER_LEN}-byte header ({len} bytes)"
            ),
            JournalError::BadMagic => write!(f, "segment magic is not SCJL"),
            JournalError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported journal version {version} (want {JOURNAL_VERSION})"
                )
            }
            JournalError::HeaderCrc => write!(f, "segment header checksum mismatch"),
            JournalError::FirstEpochZero => write!(
                f,
                "segment claims first_epoch 0 (epoch 0 is the genesis anchor, never a record)"
            ),
            JournalError::TruncatedRecord { offset } => {
                write!(f, "segment ends inside a record frame at byte {offset}")
            }
            JournalError::FrameCrc { offset } => {
                write!(f, "record frame checksum mismatch at byte {offset}")
            }
            JournalError::OversizedRecord { offset, len } => write!(
                f,
                "record at byte {offset} promises {len}-byte payload (cap {MAX_RECORD_PAYLOAD})"
            ),
            JournalError::OversizedPayload { len } => write!(
                f,
                "batch encodes to {len} bytes, past the {MAX_RECORD_PAYLOAD}-byte record cap"
            ),
            JournalError::PayloadCrc { epoch } => {
                write!(f, "payload checksum mismatch in the epoch-{epoch} record")
            }
            JournalError::ChainMismatch { epoch } => {
                write!(f, "hash chain breaks at the epoch-{epoch} record")
            }
            JournalError::Batch { epoch, source } => {
                write!(
                    f,
                    "epoch-{epoch} record payload is not a canonical EventBatch: {source}"
                )
            }
            JournalError::EpochMismatch { expected, found } => write!(
                f,
                "record claims epoch {found} where the journal requires {expected}"
            ),
            JournalError::EpochOverflow => write!(f, "journal epoch counter would overflow"),
        }
    }
}

impl std::error::Error for JournalError {}

/// The fixed prologue of a segment file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentHeader {
    /// Epoch of the segment's first record.
    pub first_epoch: u64,
    /// Running chain digest at `first_epoch - 1`.
    pub prev_chain: Digest,
}

impl SegmentHeader {
    /// Encodes the header, stamping its checksum.
    pub fn to_bytes(&self) -> [u8; SEGMENT_HEADER_LEN] {
        let mut out = [0u8; SEGMENT_HEADER_LEN];
        out[0..4].copy_from_slice(&SEGMENT_MAGIC);
        out[4..8].copy_from_slice(&JOURNAL_VERSION.to_le_bytes());
        out[8..16].copy_from_slice(&self.first_epoch.to_le_bytes());
        out[16..48].copy_from_slice(&self.prev_chain);
        let crc = crc32(&out[0..48]);
        out[48..52].copy_from_slice(&crc.to_le_bytes());
        out
    }
}

/// One decoded journal record: the batch plus the chain value stored with it.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// The event batch the record carries.
    pub batch: EventBatch,
    /// Chain digest over this record's payload.
    pub chain: Digest,
}

/// A fully decoded segment.
#[derive(Debug, Clone, PartialEq)]
pub struct Segment {
    /// The segment header.
    pub header: SegmentHeader,
    /// The records, in epoch order starting at `header.first_epoch`.
    pub records: Vec<Record>,
}

impl Segment {
    /// Epoch of the last record, or `first_epoch - 1` for an empty segment.
    ///
    /// Decoded segments always have `first_epoch ≥ 1` (the decoder rejects
    /// [`JournalError::FirstEpochZero`]) and an epoch sequence the decoder
    /// has checked for overflow; for degenerate hand-built segments this
    /// saturates rather than wrapping.
    pub fn end_epoch(&self) -> u64 {
        self.header
            .first_epoch
            .saturating_sub(1)
            .saturating_add(self.records.len() as u64)
    }

    /// Running chain digest after the last record (the header's `prev_chain`
    /// for an empty segment).
    pub fn end_chain(&self) -> Digest {
        self.records
            .last()
            .map(|r| r.chain)
            .unwrap_or(self.header.prev_chain)
    }

    /// Canonical re-encoding; decoding accepted bytes and re-encoding them
    /// is byte-identical (the fuzz fixpoint oracle).
    ///
    /// # Panics
    ///
    /// If a hand-built record's batch encodes past [`MAX_RECORD_PAYLOAD`].
    /// Decoded segments never do — the decoder enforces the same cap.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = self.header.to_bytes().to_vec();
        let mut chain = self.header.prev_chain;
        for record in &self.records {
            let (frame, next) =
                encode_record(&chain, &record.batch).expect("decoded payloads are within the cap");
            out.extend_from_slice(&frame);
            chain = next;
        }
        out
    }
}

/// Encodes one record frame: returns the frame bytes (header + payload) and
/// the new running chain digest.
///
/// Refuses ([`JournalError::OversizedPayload`]) a batch whose wire encoding
/// exceeds [`MAX_RECORD_PAYLOAD`]: the decoder is required to reject such a
/// record, so writing it would journal bytes that can never be recovered —
/// and past `u32::MAX` the length field would silently wrap besides. The
/// check runs before any hashing, so refusal is cheap.
pub fn encode_record(
    prev_chain: &Digest,
    batch: &EventBatch,
) -> Result<(Vec<u8>, Digest), JournalError> {
    let payload = wire::to_bytes(batch);
    if payload.len() as u64 > MAX_RECORD_PAYLOAD {
        return Err(JournalError::OversizedPayload {
            len: payload.len() as u64,
        });
    }
    let chain = chain_next(prev_chain, &payload);
    let mut frame = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&chain);
    let frame_crc = crc32(&frame[0..40]);
    frame.extend_from_slice(&frame_crc.to_le_bytes());
    frame.extend_from_slice(&payload);
    Ok((frame, chain))
}

/// Result of a lenient (recovery-side) segment decode.
#[derive(Debug, Clone, PartialEq)]
pub struct SegmentPrefix {
    /// The valid prefix of the segment.
    pub segment: Segment,
    /// How many input bytes the valid prefix occupies.
    pub consumed: usize,
    /// Whether a torn (incomplete) tail follows the valid prefix.
    pub torn: bool,
}

/// Strictly decodes a complete segment: any torn tail, damaged byte or
/// non-canonical payload is a typed [`JournalError`].
pub fn decode_segment(bytes: &[u8]) -> Result<Segment, JournalError> {
    let prefix = walk(bytes, false)?;
    debug_assert!(!prefix.torn);
    debug_assert_eq!(prefix.consumed, bytes.len());
    Ok(prefix.segment)
}

/// Leniently decodes a segment, tolerating (only) a torn tail: the suffix a
/// crashed append never completed. Every other defect is still a typed
/// [`JournalError`]. Used by recovery on the final, active segment.
pub fn decode_segment_prefix(bytes: &[u8]) -> Result<SegmentPrefix, JournalError> {
    walk(bytes, true)
}

fn walk(bytes: &[u8], lenient: bool) -> Result<SegmentPrefix, JournalError> {
    if bytes.len() < SEGMENT_HEADER_LEN {
        return Err(JournalError::TruncatedHeader { len: bytes.len() });
    }
    if bytes[0..4] != SEGMENT_MAGIC {
        return Err(JournalError::BadMagic);
    }
    let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
    if version != JOURNAL_VERSION {
        return Err(JournalError::UnsupportedVersion { version });
    }
    let stored_crc = u32::from_le_bytes(bytes[48..52].try_into().expect("4 bytes"));
    if crc32(&bytes[0..48]) != stored_crc {
        return Err(JournalError::HeaderCrc);
    }
    let first_epoch = u64::from_le_bytes(bytes[8..16].try_into().expect("8 bytes"));
    if first_epoch == 0 {
        // Epoch 0 is the genesis anchor; no writer ever opens a segment
        // there. Rejecting it here also keeps `end_epoch` well-defined for
        // every decoded segment, including a crafted header-only one.
        return Err(JournalError::FirstEpochZero);
    }
    let prev_chain: Digest = bytes[16..48].try_into().expect("32 bytes");

    let header = SegmentHeader {
        first_epoch,
        prev_chain,
    };
    let mut records = Vec::new();
    let mut chain = prev_chain;
    let mut epoch = first_epoch;
    let mut offset = SEGMENT_HEADER_LEN;
    let mut torn = false;

    while offset < bytes.len() {
        let remaining = bytes.len() - offset;
        if remaining < RECORD_HEADER_LEN {
            // A tear can only be a strict prefix of an append, so an
            // incomplete frame header is crash evidence, not damage.
            if lenient {
                torn = true;
                break;
            }
            return Err(JournalError::TruncatedRecord { offset });
        }
        let frame = &bytes[offset..];
        let stored_frame_crc = u32::from_le_bytes(frame[40..44].try_into().expect("4 bytes"));
        if crc32(&frame[0..40]) != stored_frame_crc {
            // The frame header is complete but damaged — never a tear.
            return Err(JournalError::FrameCrc { offset });
        }
        let len = u64::from(u32::from_le_bytes(frame[0..4].try_into().expect("4 bytes")));
        if len > MAX_RECORD_PAYLOAD {
            return Err(JournalError::OversizedRecord { offset, len });
        }
        let len = len as usize;
        if remaining - RECORD_HEADER_LEN < len {
            // Valid frame header promising more payload than the file holds:
            // the append tore mid-payload.
            if lenient {
                torn = true;
                break;
            }
            return Err(JournalError::TruncatedRecord { offset });
        }
        let payload = &frame[RECORD_HEADER_LEN..RECORD_HEADER_LEN + len];
        let stored_payload_crc = u32::from_le_bytes(frame[4..8].try_into().expect("4 bytes"));
        if crc32(payload) != stored_payload_crc {
            return Err(JournalError::PayloadCrc { epoch });
        }
        let stored_chain: Digest = frame[8..40].try_into().expect("32 bytes");
        if chain_next(&chain, payload) != stored_chain {
            return Err(JournalError::ChainMismatch { epoch });
        }
        let batch: EventBatch =
            wire::from_bytes(payload).map_err(|source| JournalError::Batch { epoch, source })?;
        if batch.epoch != epoch {
            return Err(JournalError::EpochMismatch {
                expected: epoch,
                found: batch.epoch,
            });
        }
        records.push(Record {
            batch,
            chain: stored_chain,
        });
        chain = stored_chain;
        epoch = epoch.checked_add(1).ok_or(JournalError::EpochOverflow)?;
        offset += RECORD_HEADER_LEN + len;
    }

    Ok(SegmentPrefix {
        segment: Segment { header, records },
        consumed: offset,
        torn,
    })
}

/// Incrementally builds a segment's byte image — the writer used by the
/// store's file layer, the fuzz seed generator and the tests.
///
/// ```
/// use scout_fabric::EventBatch;
/// use scout_store::digest::sha256;
/// use scout_store::journal::{decode_segment, SegmentBuilder};
///
/// let mut builder = SegmentBuilder::new(1, sha256(b"genesis"));
/// builder.append(&EventBatch::empty(1)).unwrap();
/// builder.append(&EventBatch::empty(2)).unwrap();
/// let segment = decode_segment(builder.bytes()).unwrap();
/// assert_eq!(segment.end_epoch(), 2);
/// assert_eq!(segment.end_chain(), builder.chain());
/// ```
#[derive(Debug, Clone)]
pub struct SegmentBuilder {
    bytes: Vec<u8>,
    chain: Digest,
    next_epoch: u64,
}

impl SegmentBuilder {
    /// A new segment whose first record will carry `first_epoch` (must be
    /// ≥ 1 — epoch 0 is the genesis anchor, and the decoder rejects a
    /// segment claiming to start there), chained onto `prev_chain`.
    pub fn new(first_epoch: u64, prev_chain: Digest) -> Self {
        debug_assert!(first_epoch >= 1, "journal segments start at epoch >= 1");
        let header = SegmentHeader {
            first_epoch,
            prev_chain,
        };
        SegmentBuilder {
            bytes: header.to_bytes().to_vec(),
            chain: prev_chain,
            next_epoch: first_epoch,
        }
    }

    /// Appends one batch; its epoch must be exactly the next in sequence.
    /// Returns the encoded frame (what a file writer would append).
    pub fn append(&mut self, batch: &EventBatch) -> Result<Vec<u8>, JournalError> {
        if batch.epoch != self.next_epoch {
            return Err(JournalError::EpochMismatch {
                expected: self.next_epoch,
                found: batch.epoch,
            });
        }
        let (frame, chain) = encode_record(&self.chain, batch)?;
        self.bytes.extend_from_slice(&frame);
        self.chain = chain;
        self.next_epoch = self
            .next_epoch
            .checked_add(1)
            .ok_or(JournalError::EpochOverflow)?;
        Ok(frame)
    }

    /// The segment's byte image so far.
    pub fn bytes(&self) -> &[u8] {
        &self.bytes
    }

    /// The running chain digest after the last appended record.
    pub fn chain(&self) -> Digest {
        self.chain
    }

    /// Epoch the next appended batch must carry.
    pub fn next_epoch(&self) -> u64 {
        self.next_epoch
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::digest::sha256;

    fn batches(n: u64) -> Vec<EventBatch> {
        (1..=n).map(EventBatch::empty).collect()
    }

    fn build(n: u64) -> SegmentBuilder {
        let mut b = SegmentBuilder::new(1, sha256(b"test-genesis"));
        for batch in batches(n) {
            b.append(&batch).unwrap();
        }
        b
    }

    #[test]
    fn round_trip_and_fixpoint() {
        let builder = build(5);
        let segment = decode_segment(builder.bytes()).unwrap();
        assert_eq!(segment.header.first_epoch, 1);
        assert_eq!(segment.records.len(), 5);
        assert_eq!(segment.end_epoch(), 5);
        assert_eq!(segment.end_chain(), builder.chain());
        assert_eq!(segment.to_bytes(), builder.bytes());
    }

    #[test]
    fn empty_segment_round_trips() {
        let builder = SegmentBuilder::new(7, sha256(b"x"));
        let segment = decode_segment(builder.bytes()).unwrap();
        assert!(segment.records.is_empty());
        assert_eq!(segment.end_epoch(), 6);
        assert_eq!(segment.end_chain(), sha256(b"x"));
    }

    #[test]
    fn every_single_byte_flip_is_a_typed_error() {
        let builder = build(3);
        let clean = builder.bytes().to_vec();
        for i in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[i] ^= 0x01;
            // Strict decode: always an error.
            assert!(
                decode_segment(&damaged).is_err(),
                "flip at byte {i} was accepted by the strict decoder"
            );
            // Lenient decode: a flip is damage, never a tear — it must be an
            // error too, not a silent truncation.
            assert!(
                decode_segment_prefix(&damaged).is_err(),
                "flip at byte {i} was silently truncated by the lenient decoder"
            );
        }
    }

    #[test]
    fn torn_tails_truncate_leniently_and_fail_strictly() {
        let builder = build(3);
        let clean = builder.bytes().to_vec();
        let two = decode_segment(&clean[..]).unwrap();
        let second_end = {
            // Byte length of header + first two records.
            let mut b = SegmentBuilder::new(1, sha256(b"test-genesis"));
            b.append(&two.records[0].batch).unwrap();
            b.append(&two.records[1].batch).unwrap();
            b.bytes().len()
        };
        for cut in second_end + 1..clean.len() {
            let torn = &clean[..cut];
            assert!(matches!(
                decode_segment(torn),
                Err(JournalError::TruncatedRecord { .. })
            ));
            let prefix = decode_segment_prefix(torn).unwrap();
            assert!(prefix.torn);
            assert_eq!(prefix.consumed, second_end);
            assert_eq!(prefix.segment.records.len(), 2);
        }
        // A clean cut exactly between records is not torn.
        let prefix = decode_segment_prefix(&clean[..second_end]).unwrap();
        assert!(!prefix.torn);
        assert_eq!(prefix.segment.records.len(), 2);
    }

    #[test]
    fn spliced_records_break_the_chain() {
        // Swap the first two record frames wholesale: each frame is
        // internally consistent (its own CRCs hold) but the chain no longer
        // links — the decoder must call it a ChainMismatch, not accept it.
        let builder = build(2);
        let clean = builder.bytes().to_vec();
        let seg = decode_segment(&clean).unwrap();
        let first_len = {
            let (frame, _) = encode_record(&seg.header.prev_chain, &seg.records[0].batch).unwrap();
            frame.len()
        };
        let header = &clean[..SEGMENT_HEADER_LEN];
        let first = &clean[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + first_len];
        let second = &clean[SEGMENT_HEADER_LEN + first_len..];
        let mut spliced = header.to_vec();
        spliced.extend_from_slice(second);
        spliced.extend_from_slice(first);
        assert!(matches!(
            decode_segment(&spliced),
            Err(JournalError::ChainMismatch { epoch: 1 })
        ));
    }

    #[test]
    fn zero_first_epoch_is_a_typed_error_not_a_panic() {
        // The crafted input from the recovery-path audit: a header-only
        // segment claiming first_epoch = 0 with a freshly stamped CRC. Before
        // the decoder rejected it, `end_epoch` underflowed on it downstream.
        let header_only = SegmentHeader {
            first_epoch: 0,
            prev_chain: sha256(b"forged"),
        }
        .to_bytes()
        .to_vec();
        assert_eq!(
            decode_segment(&header_only),
            Err(JournalError::FirstEpochZero)
        );
        assert_eq!(
            decode_segment_prefix(&header_only),
            Err(JournalError::FirstEpochZero)
        );

        // Same with a fully stamped epoch-0 record attached: still rejected
        // at the header, before the record walk.
        let mut with_record = header_only.clone();
        let (frame, _) = encode_record(&sha256(b"forged"), &EventBatch::empty(0)).unwrap();
        with_record.extend_from_slice(&frame);
        assert_eq!(
            decode_segment(&with_record),
            Err(JournalError::FirstEpochZero)
        );
    }

    #[test]
    fn end_epoch_never_underflows_on_degenerate_segments() {
        // Unreachable via decode (FirstEpochZero), but `Segment` is plain
        // data: hand-built degenerate values must not wrap.
        let degenerate = Segment {
            header: SegmentHeader {
                first_epoch: 0,
                prev_chain: sha256(b"x"),
            },
            records: Vec::new(),
        };
        assert_eq!(degenerate.end_epoch(), 0);
    }

    #[test]
    fn oversized_payload_is_refused_at_encode_time() {
        use scout_fabric::FabricEvent;
        use scout_policy::sample;

        // A real rule from a deployed fabric, repeated until the batch's
        // wire encoding lands just past the cap.
        let mut fabric = scout_fabric::Fabric::new(sample::three_tier());
        fabric.deploy();
        let rule = fabric.tcam_rules(sample::S1)[0];
        let sized = |n: usize| {
            wire::to_bytes(&EventBatch::new(
                1,
                vec![FabricEvent::TcamSync {
                    switch: sample::S1,
                    rules: vec![rule; n],
                }],
            ))
            .len()
        };
        let base = sized(0);
        let per_rule = sized(1) - base;
        let count = (MAX_RECORD_PAYLOAD as usize - base) / per_rule + 2;
        let huge = EventBatch::new(
            1,
            vec![FabricEvent::TcamSync {
                switch: sample::S1,
                rules: vec![rule; count],
            }],
        );

        let genesis = sha256(b"g");
        match encode_record(&genesis, &huge) {
            Err(JournalError::OversizedPayload { len }) => assert!(len > MAX_RECORD_PAYLOAD),
            other => panic!("oversized encode must be refused, got {other:?}"),
        }

        // The builder refuses too, without consuming the epoch or appending
        // any bytes — and then accepts a normal batch at the same epoch.
        let mut builder = SegmentBuilder::new(1, genesis);
        let len_before = builder.bytes().len();
        assert!(matches!(
            builder.append(&huge),
            Err(JournalError::OversizedPayload { .. })
        ));
        assert_eq!(builder.next_epoch(), 1);
        assert_eq!(builder.bytes().len(), len_before);
        builder.append(&EventBatch::empty(1)).unwrap();
        decode_segment(builder.bytes()).unwrap();
    }

    #[test]
    fn builder_enforces_epoch_sequencing() {
        let mut b = SegmentBuilder::new(1, sha256(b"g"));
        assert_eq!(
            b.append(&EventBatch::empty(3)),
            Err(JournalError::EpochMismatch {
                expected: 1,
                found: 3
            })
        );
        b.append(&EventBatch::empty(1)).unwrap();
        assert_eq!(b.next_epoch(), 2);
        assert_eq!(decode_segment(b.bytes()).unwrap().records.len(), 1);
    }

    #[test]
    fn wrong_epoch_record_is_rejected() {
        // Hand-build a frame whose batch claims the wrong epoch but whose
        // CRCs and chain are all freshly stamped.
        let genesis = sha256(b"g");
        let mut bytes = SegmentHeader {
            first_epoch: 1,
            prev_chain: genesis,
        }
        .to_bytes()
        .to_vec();
        let (frame, _) = encode_record(&genesis, &EventBatch::empty(9)).unwrap();
        bytes.extend_from_slice(&frame);
        assert_eq!(
            decode_segment(&bytes),
            Err(JournalError::EpochMismatch {
                expected: 1,
                found: 9
            })
        );
    }

    #[test]
    fn garbage_payload_with_valid_frame_is_a_batch_error() {
        let genesis = sha256(b"g");
        let mut bytes = SegmentHeader {
            first_epoch: 1,
            prev_chain: genesis,
        }
        .to_bytes()
        .to_vec();
        let payload = b"definitely not wire".to_vec();
        let chain = chain_next(&genesis, &payload);
        let mut frame = Vec::new();
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&chain);
        let fcrc = crc32(&frame[0..40]);
        frame.extend_from_slice(&fcrc.to_le_bytes());
        frame.extend_from_slice(&payload);
        bytes.extend_from_slice(&frame);
        assert!(matches!(
            decode_segment(&bytes),
            Err(JournalError::Batch { epoch: 1, .. })
        ));
    }

    #[test]
    fn errors_render() {
        for err in [
            JournalError::TruncatedHeader { len: 3 },
            JournalError::BadMagic,
            JournalError::UnsupportedVersion { version: 9 },
            JournalError::HeaderCrc,
            JournalError::FirstEpochZero,
            JournalError::TruncatedRecord { offset: 52 },
            JournalError::FrameCrc { offset: 52 },
            JournalError::OversizedRecord {
                offset: 52,
                len: 1 << 40,
            },
            JournalError::OversizedPayload { len: 1 << 40 },
            JournalError::PayloadCrc { epoch: 4 },
            JournalError::ChainMismatch { epoch: 4 },
            JournalError::Batch {
                epoch: 4,
                source: WireError::UnexpectedEof {
                    needed: 4,
                    remaining: 0,
                },
            },
            JournalError::EpochMismatch {
                expected: 4,
                found: 5,
            },
            JournalError::EpochOverflow,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
