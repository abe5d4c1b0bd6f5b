//! Durable session checkpoints: serialize an [`AnalysisSession`] to bytes and
//! restore it — plus a replay tail — bit-identically.
//!
//! The paper's SCOUT is a continuously running service; a monitor that loses
//! all session state on restart would have to re-bootstrap every fabric from
//! a full snapshot, dropping the delta stream on the floor. A [`Snapshot`]
//! makes sessions restartable:
//!
//! * [`AnalysisSession::checkpoint`] captures the session's durable core —
//!   the [`FabricView`] mirror, the epoch cursor, and the current full
//!   [`ScoutReport`] (which carries the equivalence check whose missing rules
//!   are exactly the risk-model failure marks each ingest re-derives and
//!   rolls back);
//! * [`EventBatch`]es that arrive after the checkpoint are appended to the
//!   snapshot's **replay tail** ([`Snapshot::push_tail`]), so a crash between
//!   checkpoints loses nothing that was delivered;
//! * [`ScoutEngine::restore`](crate::ScoutEngine::restore) rebuilds a live
//!   session from the snapshot and replays the tail through the ordinary
//!   [`AnalysisSession::ingest`] path.
//!
//! The restored session is **bit-identical** to one that never stopped: its
//! report, every subsequent [`ReportDelta`], and every
//! future `full_report()` match an uninterrupted session exactly (enforced by
//! the root test `tests/checkpoint.rs` over a 200-epoch soak timeline).
//!
//! # Encoding
//!
//! Snapshots use the in-house wire format of [`scout_fabric::wire`] — no
//! registry dependencies, consistent with the repo's `rand`-shim approach —
//! [`seal`]ed behind a 4-byte magic, a version word and a CRC-32 of the
//! payload, so schema changes and on-disk corruption both fail loudly
//! ([`SnapshotError::UnsupportedVersion`],
//! [`SnapshotError::ChecksumMismatch`]) instead of decoding garbage.
//! No risk model is serialized: a session reads its controller model from
//! the view's universe, and [`ScoutEngine::restore`](crate::ScoutEngine::restore)
//! rebuilds the failure overlay from the report's check, keeping snapshots
//! proportional to the monitored state.
//!
//! # Example
//!
//! ```
//! use scout_core::{ScoutEngine, Snapshot};
//! use scout_fabric::{EventBatch, Fabric, FabricProbe};
//! use scout_policy::sample;
//!
//! let mut fabric = Fabric::new(sample::three_tier());
//! fabric.deploy();
//! let engine = ScoutEngine::new();
//! let mut session = engine.open_session(&fabric);
//! let mut probe = FabricProbe::new(&fabric);
//!
//! // Checkpoint, then keep feeding the live session while also recording
//! // the post-checkpoint batches in the snapshot's replay tail.
//! let mut snapshot = session.checkpoint();
//! fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
//! let batch = EventBatch::new(session.next_epoch(), probe.observe(&fabric));
//! snapshot.push_tail(batch.clone()).unwrap();
//! session.ingest(batch).unwrap();
//!
//! // The snapshot survives a byte round-trip and restores bit-identically.
//! let bytes = snapshot.to_bytes();
//! let restored = Snapshot::from_bytes(&bytes).unwrap();
//! let resumed = engine.restore(&restored).unwrap();
//! assert_eq!(resumed.full_report(), session.full_report());
//! assert_eq!(resumed.epoch(), session.epoch());
//! ```

use std::fmt;

use scout_equiv::{NetworkCheckResult, SwitchCheckResult};
use scout_fabric::wire::{open_sealed, seal, SealError, Wire, WireError, WireReader, WireWriter};
use scout_fabric::{wire_enum, wire_struct, EventBatch, FabricView};
use scout_policy::SwitchId;

use crate::correlation::{CorrelationReport, ObjectDiagnosis, RootCause};
use crate::engine::ScoutReport;
use crate::localization::{Evidence, Hypothesis};
use crate::session::{AnalysisSession, ReportDelta, ResyncRequest, SessionError};

/// The current snapshot schema version. Bump on any change to the encoded
/// layout; [`Snapshot::from_bytes`] refuses other versions.
pub const SNAPSHOT_VERSION: u32 = 1;

/// The 4-byte magic prefix of every encoded snapshot.
const SNAPSHOT_MAGIC: [u8; 4] = *b"SCSN";

/// Why a byte buffer could not be decoded into a [`Snapshot`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SnapshotError {
    /// The buffer does not start with the snapshot magic — it is not a
    /// snapshot at all.
    BadMagic,
    /// The snapshot was written by a different schema version.
    UnsupportedVersion {
        /// The version found in the header.
        found: u32,
        /// The version this build supports.
        supported: u32,
    },
    /// The payload does not match the checksum in the header — the bytes
    /// were corrupted after [`Snapshot::to_bytes`] produced them.
    ChecksumMismatch {
        /// The checksum the header promised.
        expected: u32,
        /// The checksum of the payload as read.
        found: u32,
    },
    /// The replay tail's batch epochs do not continue the checkpoint epoch
    /// in strict `+1` sequence. [`Snapshot::push_tail`] can never produce
    /// such a tail, so the bytes are forged or corrupt; accepting them would
    /// only defer the failure to restore time.
    TailOutOfOrder {
        /// The epoch the tail position required.
        expected: u64,
        /// The epoch the batch carried.
        got: u64,
    },
    /// The checkpoint epoch leaves no headroom for the session's sequencing
    /// arithmetic — `epoch + tail length + 1` (the next expected epoch)
    /// would overflow `u64`. No real session reaches such an epoch; a
    /// payload carrying one is crafted to overflow [`Snapshot::next_epoch`].
    EpochOverflow {
        /// The checkpoint epoch found in the payload.
        epoch: u64,
    },
    /// The payload failed to decode (truncation, bad tags, failed
    /// validation).
    Wire(WireError),
}

impl fmt::Display for SnapshotError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SnapshotError::BadMagic => f.write_str("not a SCOUT snapshot (bad magic)"),
            SnapshotError::UnsupportedVersion { found, supported } => write!(
                f,
                "unsupported snapshot version {found} (this build reads version {supported})"
            ),
            SnapshotError::ChecksumMismatch { expected, found } => write!(
                f,
                "snapshot payload corrupted: checksum {found:#010x}, header promised {expected:#010x}"
            ),
            SnapshotError::TailOutOfOrder { expected, got } => write!(
                f,
                "snapshot replay tail out of order: expected epoch {expected}, found {got}"
            ),
            SnapshotError::EpochOverflow { epoch } => write!(
                f,
                "snapshot checkpoint epoch {epoch} leaves no sequencing headroom"
            ),
            SnapshotError::Wire(err) => write!(f, "snapshot payload invalid: {err}"),
        }
    }
}

impl std::error::Error for SnapshotError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SnapshotError::Wire(err) => Some(err),
            _ => None,
        }
    }
}

impl From<WireError> for SnapshotError {
    fn from(err: WireError) -> Self {
        SnapshotError::Wire(err)
    }
}

/// A durable, versioned checkpoint of one [`AnalysisSession`], plus the
/// replay tail of event batches delivered after the checkpoint was taken.
///
/// Plain data: a snapshot holds no locks, no caches and no engine reference,
/// so it can be written to disk, shipped across processes, and restored on
/// any engine (the restoring engine's configuration governs parallelism;
/// analysis results are configuration-independent).
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    pub(crate) fabric_id: u64,
    pub(crate) open_epoch: u64,
    pub(crate) epoch: u64,
    pub(crate) view: FabricView,
    pub(crate) report: ScoutReport,
    pub(crate) tail: Vec<EventBatch>,
}

impl Snapshot {
    /// The [`Fabric::id`](scout_fabric::Fabric::id) of the monitored fabric.
    pub fn fabric_id(&self) -> u64 {
        self.fabric_id
    }

    /// The fabric's change epoch when the original session was opened.
    pub fn open_epoch(&self) -> u64 {
        self.open_epoch
    }

    /// The session epoch at checkpoint time (number of batches the session
    /// had ingested).
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The checkpointed monitor mirror.
    pub fn view(&self) -> &FabricView {
        &self.view
    }

    /// The full report at checkpoint time.
    pub fn report(&self) -> &ScoutReport {
        &self.report
    }

    /// The replay tail: batches delivered after the checkpoint, in epoch
    /// order.
    pub fn tail(&self) -> &[EventBatch] {
        &self.tail
    }

    /// The epoch the next [`Snapshot::push_tail`] batch must carry — the
    /// same sequencing contract as [`AnalysisSession::next_epoch`].
    pub fn next_epoch(&self) -> u64 {
        self.epoch + self.tail.len() as u64 + 1
    }

    /// Appends a post-checkpoint batch to the replay tail.
    ///
    /// The tail obeys the session's strict epoch sequencing: `batch.epoch`
    /// must be exactly [`Snapshot::next_epoch`], otherwise the batch is
    /// rejected with [`SessionError::EpochOutOfOrder`] and the snapshot is
    /// unchanged — a gap recorded now would only fail later, at restore time.
    pub fn push_tail(&mut self, batch: EventBatch) -> Result<(), SessionError> {
        let expected = self.next_epoch();
        if batch.epoch != expected {
            return Err(SessionError::EpochOutOfOrder {
                expected,
                got: batch.epoch,
            });
        }
        self.tail.push(batch);
        Ok(())
    }

    /// Encodes the snapshot: the wire-encoded payload, [`seal`]ed behind a
    /// magic/version/CRC-32 prologue.
    pub fn to_bytes(&self) -> Vec<u8> {
        seal(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, |w| {
            w.put_u64(self.fabric_id);
            w.put_u64(self.open_epoch);
            w.put_u64(self.epoch);
            self.view.encode(w);
            self.report.encode(w);
            self.tail.encode(w);
        })
    }

    /// Decodes a snapshot, checking the magic, version and payload checksum
    /// and requiring the whole buffer to be consumed.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, SnapshotError> {
        let payload =
            open_sealed(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes).map_err(|err| match err {
                SealError::BadMagic => SnapshotError::BadMagic,
                SealError::Truncated(err) => SnapshotError::Wire(err),
                SealError::UnsupportedVersion { found } => SnapshotError::UnsupportedVersion {
                    found,
                    supported: SNAPSHOT_VERSION,
                },
                SealError::ChecksumMismatch { expected, found } => {
                    SnapshotError::ChecksumMismatch { expected, found }
                }
            })?;
        let mut r = WireReader::new(payload);
        let fabric_id = r.get_u64()?;
        let open_epoch = r.get_u64()?;
        let epoch = r.get_u64()?;
        let view = FabricView::decode(&mut r)?;
        let report = ScoutReport::decode(&mut r)?;
        let tail = Vec::<EventBatch>::decode(&mut r)?;
        r.finish()?;
        // Semantic validation the wire layer cannot see: the tail must
        // continue the checkpoint epoch in strict +1 sequence (the same
        // contract `push_tail` enforces on the producing side), and the
        // epochs involved must leave headroom for `next_epoch()`'s
        // arithmetic — otherwise a crafted payload turns a later, innocent
        // `push_tail` into an integer overflow.
        if epoch
            .checked_add(tail.len() as u64)
            .and_then(|n| n.checked_add(1))
            .is_none()
        {
            return Err(SnapshotError::EpochOverflow { epoch });
        }
        for (i, batch) in tail.iter().enumerate() {
            let expected = epoch + i as u64 + 1;
            if batch.epoch != expected {
                return Err(SnapshotError::TailOutOfOrder {
                    expected,
                    got: batch.epoch,
                });
            }
        }
        Ok(Self {
            fabric_id,
            open_epoch,
            epoch,
            view,
            report,
            tail,
        })
    }

    /// Captures a session's durable core with an empty replay tail (the
    /// implementation behind [`AnalysisSession::checkpoint`]).
    pub(crate) fn of_session(session: &AnalysisSession) -> Self {
        Self {
            fabric_id: session.fabric_id(),
            open_epoch: session.open_epoch(),
            epoch: session.epoch(),
            view: session.view().clone(),
            report: session.full_report().clone(),
            tail: Vec::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Report and session codecs
//
// The serving layer (`scout-server`) ships reports, deltas and session errors
// back to remote tenants, so the session-facing result types are wire
// citizens next to the snapshot that embeds a report. Their impls live in
// this crate because `Wire` is a `scout-fabric` trait and the orphan rule
// keeps downstream crates from implementing it for core's types. Layouts are
// declared once with `wire_struct!`/`wire_enum!`; `ScoutReport` and
// `ResyncRequest` are hand-written because their decode validates more than
// their fields.
// ---------------------------------------------------------------------------

wire_enum!(Evidence {
    0 => FullCover,
    1 => RecentChange { changed_at },
    2 => ScoreCover,
});
wire_struct!(Hypothesis {
    objects,
    observations,
    explained_by_cover,
    explained_by_changelog,
    unexplained,
});
wire_enum!(RootCause {
    0 => Physical { kind, switch, observed_at, message },
    1 => Unknown,
});
wire_struct!(ObjectDiagnosis { object, causes });
wire_struct!(CorrelationReport { diagnoses });
wire_struct!(ReportDelta {
    epoch,
    rechecked,
    newly_missing,
    restored,
    hypothesis_added,
    hypothesis_removed,
    diagnosis_changed,
    consistent,
});
wire_enum!(SessionError {
    0 => EpochOutOfOrder { expected, got },
    1 => EpochGap { resync },
    2 => UnknownSwitch { epoch, switch },
    3 => FaultIndexOutOfRange { epoch, index, len },
});

/// Decoding admits only the shape [`AnalysisSession::validate_batch`]
/// produces, `1 <= from_epoch < observed_epoch`: anything else is forged, and
/// would make [`ResyncRequest::missing_epochs`] overflow.
impl Wire for ResyncRequest {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.from_epoch);
        w.put_u64(self.observed_epoch);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let from_epoch = r.get_u64()?;
        let observed_epoch = r.get_u64()?;
        if from_epoch == 0 || from_epoch >= observed_epoch {
            return Err(WireError::Invalid {
                what: "ResyncRequest",
            });
        }
        Ok(ResyncRequest {
            from_epoch,
            observed_epoch,
        })
    }
}

// `NetworkCheckResult`/`SwitchCheckResult` live in `scout-equiv`, which the
// `Wire` trait (defined in `scout-fabric`) cannot be implemented for from
// here; they get free-function codecs that `ScoutReport`'s impl calls.

fn put_switch_check(w: &mut WireWriter, check: &SwitchCheckResult) {
    check.switch.encode(w);
    w.put_bool(check.equivalent);
    check.missing_rules.encode(w);
    check.unexpected_rules.encode(w);
}

fn get_switch_check(r: &mut WireReader<'_>) -> Result<SwitchCheckResult, WireError> {
    Ok(SwitchCheckResult {
        switch: SwitchId::decode(r)?,
        equivalent: r.get_bool()?,
        missing_rules: Vec::decode(r)?,
        unexpected_rules: Vec::decode(r)?,
    })
}

/// The per-switch map is keyed by the same switch id each
/// [`SwitchCheckResult`] already carries, so only the values are encoded and
/// the keys are rebuilt from `result.switch` on decode — no redundant bytes,
/// and no way for a corrupted buffer to decode into a map whose key and
/// payload disagree.
fn put_check(w: &mut WireWriter, check: &NetworkCheckResult) {
    w.put_usize(check.per_switch.len());
    for result in check.per_switch.values() {
        put_switch_check(w, result);
    }
}

fn get_check(r: &mut WireReader<'_>) -> Result<NetworkCheckResult, WireError> {
    let len = r.get_usize()?;
    let mut check = NetworkCheckResult::new();
    for _ in 0..len {
        let result = get_switch_check(r)?;
        // Entries are emitted in map order, so anything not strictly
        // ascending is a non-canonical payload. Without this check a
        // duplicated switch would silently collapse to one map entry and
        // re-encode to fewer bytes than it arrived as.
        if check
            .per_switch
            .last_key_value()
            .is_some_and(|(&prev, _)| prev >= result.switch)
        {
            return Err(WireError::NonCanonical {
                what: "NetworkCheckResult",
            });
        }
        check.per_switch.insert(result.switch, result);
    }
    Ok(check)
}

impl Wire for ScoutReport {
    fn encode(&self, w: &mut WireWriter) {
        put_check(w, &self.check);
        self.observations.encode(w);
        self.suspect_objects.encode(w);
        self.hypothesis.encode(w);
        self.diagnosis.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(ScoutReport {
            check: get_check(r)?,
            observations: Wire::decode(r)?,
            suspect_objects: Wire::decode(r)?,
            hypothesis: Wire::decode(r)?,
            diagnosis: Wire::decode(r)?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::ScoutEngine;
    use scout_fabric::{Fabric, FabricProbe};
    use scout_policy::sample;

    fn faulty_session() -> (ScoutEngine, Fabric, AnalysisSession) {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric.disconnect_switch(sample::S1);
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let engine = ScoutEngine::new();
        let session = engine.open_session(&fabric);
        (engine, fabric, session)
    }

    #[test]
    fn snapshot_bytes_roundtrip_exactly() {
        let (_engine, _fabric, session) = faulty_session();
        let snapshot = session.checkpoint();
        assert!(!snapshot.report().is_consistent());
        let bytes = snapshot.to_bytes();
        let decoded = Snapshot::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, snapshot);
        // Deterministic: equal snapshots encode to identical bytes.
        assert_eq!(decoded.to_bytes(), bytes);
    }

    fn wire_roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = scout_fabric::wire::to_bytes(value);
        let decoded: T = scout_fabric::wire::from_bytes(&bytes).expect("decodes");
        assert_eq!(&decoded, value);
        assert_eq!(scout_fabric::wire::to_bytes(&decoded), bytes);
    }

    #[test]
    fn session_result_types_roundtrip_on_the_wire() {
        let (_engine, mut fabric, mut session) = faulty_session();
        let mut probe = FabricProbe::new(&fabric);

        wire_roundtrip(session.full_report());

        fabric.evict_tcam(sample::S3, 1, false);
        let delta = session.ingest_observation(&mut probe, &fabric).unwrap();
        assert!(!delta.rechecked.is_empty());
        wire_roundtrip(&delta);

        for error in [
            SessionError::EpochOutOfOrder {
                expected: 3,
                got: 1,
            },
            SessionError::EpochGap {
                resync: crate::session::ResyncRequest {
                    from_epoch: 3,
                    observed_epoch: 7,
                },
            },
            SessionError::UnknownSwitch {
                epoch: 4,
                switch: SwitchId::new(42),
            },
            SessionError::FaultIndexOutOfRange {
                epoch: 5,
                index: 9,
                len: 2,
            },
        ] {
            wire_roundtrip(&error);
        }

        assert_eq!(
            scout_fabric::wire::from_bytes::<SessionError>(&[9]),
            Err(WireError::InvalidTag {
                what: "SessionError",
                tag: 9
            })
        );
    }

    #[test]
    fn snapshot_header_is_validated() {
        let (_engine, _fabric, session) = faulty_session();
        let bytes = session.checkpoint().to_bytes();

        assert_eq!(Snapshot::from_bytes(b"nope"), Err(SnapshotError::BadMagic));
        assert_eq!(Snapshot::from_bytes(&[]), Err(SnapshotError::BadMagic));

        let mut wrong_version = bytes.clone();
        wrong_version[4] = 99;
        assert_eq!(
            Snapshot::from_bytes(&wrong_version),
            Err(SnapshotError::UnsupportedVersion {
                found: 99,
                supported: SNAPSHOT_VERSION
            })
        );

        // Any damage to the payload — truncation, trailing bytes, or a
        // flipped bit inside an in-range value that would decode cleanly —
        // is caught by the checksum before any field is interpreted.
        let truncated = &bytes[..bytes.len() - 1];
        assert!(matches!(
            Snapshot::from_bytes(truncated),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            Snapshot::from_bytes(&trailing),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        let mut flipped = bytes.clone();
        let mid = 12 + (flipped.len() - 12) / 2;
        flipped[mid] ^= 0x01;
        assert!(matches!(
            Snapshot::from_bytes(&flipped),
            Err(SnapshotError::ChecksumMismatch { .. })
        ));

        // Errors render with context.
        let text = SnapshotError::UnsupportedVersion {
            found: 99,
            supported: SNAPSHOT_VERSION,
        }
        .to_string();
        assert!(text.contains("99"));
    }

    #[test]
    fn tail_enforces_strict_epoch_sequencing() {
        let (_engine, mut fabric, mut session) = faulty_session();
        let mut probe = FabricProbe::new(&fabric);
        session.ingest(EventBatch::empty(1)).unwrap();
        let mut snapshot = session.checkpoint();
        assert_eq!(snapshot.epoch(), 1);
        assert_eq!(snapshot.next_epoch(), 2);

        // A gap and a duplicate are rejected; the right epoch is accepted.
        assert_eq!(
            snapshot.push_tail(EventBatch::empty(4)),
            Err(SessionError::EpochOutOfOrder {
                expected: 2,
                got: 4
            })
        );
        fabric.repair_switch(sample::S2);
        snapshot
            .push_tail(EventBatch::new(2, probe.observe(&fabric)))
            .unwrap();
        assert_eq!(
            snapshot.push_tail(EventBatch::empty(2)),
            Err(SessionError::EpochOutOfOrder {
                expected: 3,
                got: 2
            })
        );
        assert_eq!(snapshot.tail().len(), 1);
        assert_eq!(snapshot.next_epoch(), 3);
    }

    #[test]
    fn restore_is_bit_identical_and_registered() {
        let (engine, mut fabric, mut session) = faulty_session();
        let mut probe = FabricProbe::new(&fabric);

        let mut snapshot = session.checkpoint();
        // Post-checkpoint drift goes both into the live session and the tail.
        fabric.repair_switch(sample::S1);
        fabric.repair_switch(sample::S2);
        let batch = EventBatch::new(session.next_epoch(), probe.observe(&fabric));
        snapshot.push_tail(batch.clone()).unwrap();
        session.ingest(batch).unwrap();

        let roundtripped = Snapshot::from_bytes(&snapshot.to_bytes()).unwrap();
        let restored = engine.restore(&roundtripped).unwrap();
        assert_eq!(restored.full_report(), session.full_report());
        assert_eq!(restored.epoch(), session.epoch());
        assert_eq!(*restored.full_report(), engine.analyze(&fabric));
        assert!(restored.is_consistent());

        // The restored session is counted next to the live one.
        assert_eq!(engine.session_count(), 2);
        drop(restored);
        assert_eq!(engine.session_count(), 1);
    }

    #[test]
    fn restored_sessions_keep_ingesting_identically() {
        let (engine, mut fabric, mut session) = faulty_session();
        let mut probe = FabricProbe::new(&fabric);
        let snapshot = session.checkpoint();
        let mut restored = engine.restore(&snapshot).unwrap();

        // Both sessions now follow the same drift, batch by batch.
        for step in 0..3 {
            match step {
                0 => {
                    fabric.repair_switch(sample::S2);
                }
                1 => {
                    fabric.evict_tcam(sample::S3, 1, true);
                }
                _ => {
                    fabric.repair_switch(sample::S3);
                }
            }
            let batch = EventBatch::new(session.next_epoch(), probe.observe(&fabric));
            let live = session.ingest(batch.clone()).unwrap();
            let replayed = restored.ingest(batch).unwrap();
            assert_eq!(live, replayed, "step {step}");
            assert_eq!(session.full_report(), restored.full_report());
        }
    }

    #[test]
    fn duplicate_or_unsorted_check_switches_are_rejected() {
        let (_engine, _fabric, session) = faulty_session();
        let check = &session.full_report().check;
        assert!(check.per_switch.len() >= 2);

        // Values emitted in reverse map order: decodes to the same map, so
        // the bytes are non-canonical and must be refused.
        let mut w = WireWriter::new();
        w.put_usize(check.per_switch.len());
        for result in check.per_switch.values().rev() {
            put_switch_check(&mut w, result);
        }
        let bytes = w.into_bytes();
        assert_eq!(
            get_check(&mut WireReader::new(&bytes)),
            Err(WireError::NonCanonical {
                what: "NetworkCheckResult"
            })
        );

        // The same switch twice: the old decoder silently collapsed the two
        // entries into one.
        let first = check.per_switch.values().next().unwrap();
        let mut w = WireWriter::new();
        w.put_usize(2);
        put_switch_check(&mut w, first);
        put_switch_check(&mut w, first);
        let bytes = w.into_bytes();
        assert_eq!(
            get_check(&mut WireReader::new(&bytes)),
            Err(WireError::NonCanonical {
                what: "NetworkCheckResult"
            })
        );
    }

    #[test]
    fn decoding_a_gapped_tail_is_a_typed_error() {
        let (_engine, _fabric, session) = faulty_session();
        let mut snapshot = session.checkpoint();
        // Bypass push_tail's sequencing check (simulating a forged buffer:
        // the encoder is total, so patching the struct patches the bytes).
        snapshot.push_tail(EventBatch::empty(1)).unwrap();
        snapshot.tail[0].epoch = 7;
        assert_eq!(
            Snapshot::from_bytes(&snapshot.to_bytes()),
            Err(SnapshotError::TailOutOfOrder {
                expected: 1,
                got: 7
            })
        );
    }

    #[test]
    fn overflowing_checkpoint_epoch_is_rejected_at_decode() {
        let (_engine, _fabric, session) = faulty_session();
        let mut snapshot = session.checkpoint();
        // A forged epoch at the top of the range: accepting it would make
        // the very next `next_epoch()`/`push_tail` overflow.
        snapshot.epoch = u64::MAX;
        assert_eq!(
            Snapshot::from_bytes(&snapshot.to_bytes()),
            Err(SnapshotError::EpochOverflow { epoch: u64::MAX })
        );
        // Errors render with context.
        let text = SnapshotError::EpochOverflow { epoch: u64::MAX }.to_string();
        assert!(text.contains("headroom"));
        let text = SnapshotError::TailOutOfOrder {
            expected: 1,
            got: 7,
        }
        .to_string();
        assert!(text.contains("expected epoch 1"));
    }

    #[test]
    fn restoring_a_gapped_tail_fails_like_ingest() {
        let (engine, _fabric, session) = faulty_session();
        let mut snapshot = session.checkpoint();
        // Corrupt the tail after construction (simulating a producer bug) by
        // bypassing push_tail through the byte layer: encode, then patch the
        // tail batch's epoch.
        snapshot.push_tail(EventBatch::empty(1)).unwrap();
        snapshot.tail[0].epoch = 7;
        let err = engine.restore(&snapshot).unwrap_err();
        assert_eq!(
            err,
            SessionError::EpochGap {
                resync: crate::session::ResyncRequest {
                    from_epoch: 1,
                    observed_epoch: 7
                }
            }
        );
        // The failed restore leaves no session behind.
        assert_eq!(engine.session_count(), 1);
    }
}
