//! Snapshot anchor files: durable `Snapshot` frames bound to the journal's
//! hash chain.
//!
//! An anchor is one `Snapshot` (with an **empty** replay tail — the journal
//! *is* the tail) wrapped in a checksummed frame that also records the
//! running chain digest at the snapshot's epoch. Recovery restores the
//! newest anchor and replays the journal after it; the recorded chain value
//! is the cross-check that ties the two together — re-stamping any journal
//! record before the anchor while keeping the anchor bytes intact requires a
//! SHA-256 second preimage.
//!
//! # Layout
//!
//! ```text
//! anchor := magic "SCSA" (4) ∥ version u32 (4) ∥ crc u32 (4)
//!           ∥ epoch u64 (8) ∥ chain (32) ∥ snapshot bytes (rest)
//! ```
//!
//! `crc` covers everything after the 12-byte prologue. The snapshot bytes
//! are the ordinary `Snapshot::to_bytes` frame, which carries its own magic,
//! version and checksum — an anchor file therefore has no byte outside a
//! checksum's reach.
//!
//! The very first anchor a store writes (the *genesis* anchor, at the
//! session's opening epoch) also seeds the chain: its recorded chain value
//! must equal [`genesis_chain`] of its own snapshot bytes, which binds the
//! journal to the exact initial state it extends.

use std::fmt;

use scout_core::{Snapshot, SnapshotError};
use scout_fabric::wire::crc32;

use crate::digest::{sha256, Digest, Sha256};

/// Magic bytes opening every anchor file.
pub const ANCHOR_MAGIC: [u8; 4] = *b"SCSA";

/// Current anchor format version.
pub const ANCHOR_VERSION: u32 = 1;

/// Byte length of the anchor prologue (magic, version, crc).
pub const ANCHOR_PROLOGUE_LEN: usize = 12;

/// Why anchor bytes could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AnchorError {
    /// Fewer bytes than the fixed frame.
    Truncated,
    /// The first four bytes are not [`ANCHOR_MAGIC`].
    BadMagic,
    /// A version this build does not speak.
    UnsupportedVersion {
        /// The version found in the prologue.
        version: u32,
    },
    /// The frame checksum does not match the frame bytes.
    ChecksumMismatch,
    /// The embedded snapshot frame is itself invalid.
    Snapshot(SnapshotError),
    /// The frame's epoch disagrees with the embedded snapshot's.
    EpochMismatch {
        /// Epoch the anchor frame claims.
        frame: u64,
        /// Epoch the embedded snapshot carries.
        snapshot: u64,
    },
    /// The embedded snapshot carries a replay tail (anchors must not — the
    /// journal is the tail).
    NonEmptyTail,
}

impl fmt::Display for AnchorError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AnchorError::Truncated => write!(f, "anchor shorter than its fixed frame"),
            AnchorError::BadMagic => write!(f, "anchor magic is not SCSA"),
            AnchorError::UnsupportedVersion { version } => {
                write!(
                    f,
                    "unsupported anchor version {version} (want {ANCHOR_VERSION})"
                )
            }
            AnchorError::ChecksumMismatch => write!(f, "anchor checksum mismatch"),
            AnchorError::Snapshot(err) => write!(f, "embedded snapshot is invalid: {err}"),
            AnchorError::EpochMismatch { frame, snapshot } => write!(
                f,
                "anchor frame claims epoch {frame} but its snapshot is at epoch {snapshot}"
            ),
            AnchorError::NonEmptyTail => {
                write!(
                    f,
                    "anchor snapshot carries a replay tail (the journal is the tail)"
                )
            }
        }
    }
}

impl std::error::Error for AnchorError {}

/// A decoded snapshot anchor.
#[derive(Debug, Clone, PartialEq)]
pub struct Anchor {
    /// Epoch the snapshot covers.
    pub epoch: u64,
    /// Running journal chain digest at `epoch`.
    pub chain: Digest,
    /// The restorable snapshot (empty tail).
    pub snapshot: Snapshot,
}

impl Anchor {
    /// Wraps a tail-free snapshot and the chain digest at its epoch.
    pub fn new(snapshot: Snapshot, chain: Digest) -> Result<Self, AnchorError> {
        if !snapshot.tail().is_empty() {
            return Err(AnchorError::NonEmptyTail);
        }
        Ok(Anchor {
            epoch: snapshot.epoch(),
            chain,
            snapshot,
        })
    }

    /// Encodes the anchor, stamping its checksum.
    pub fn to_bytes(&self) -> Vec<u8> {
        let snap = self.snapshot.to_bytes();
        let mut out = Vec::with_capacity(ANCHOR_PROLOGUE_LEN + 40 + snap.len());
        out.extend_from_slice(&ANCHOR_MAGIC);
        out.extend_from_slice(&ANCHOR_VERSION.to_le_bytes());
        out.extend_from_slice(&[0u8; 4]); // crc placeholder
        out.extend_from_slice(&self.epoch.to_le_bytes());
        out.extend_from_slice(&self.chain);
        out.extend_from_slice(&snap);
        let crc = crc32(&out[ANCHOR_PROLOGUE_LEN..]);
        out[8..12].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Decodes and fully validates an anchor frame.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, AnchorError> {
        if bytes.len() < ANCHOR_PROLOGUE_LEN + 40 {
            return Err(AnchorError::Truncated);
        }
        if bytes[0..4] != ANCHOR_MAGIC {
            return Err(AnchorError::BadMagic);
        }
        let version = u32::from_le_bytes(bytes[4..8].try_into().expect("4 bytes"));
        if version != ANCHOR_VERSION {
            return Err(AnchorError::UnsupportedVersion { version });
        }
        let stored_crc = u32::from_le_bytes(bytes[8..12].try_into().expect("4 bytes"));
        if crc32(&bytes[ANCHOR_PROLOGUE_LEN..]) != stored_crc {
            return Err(AnchorError::ChecksumMismatch);
        }
        let epoch = u64::from_le_bytes(bytes[12..20].try_into().expect("8 bytes"));
        let chain: Digest = bytes[20..52].try_into().expect("32 bytes");
        let snapshot = Snapshot::from_bytes(&bytes[52..]).map_err(AnchorError::Snapshot)?;
        if snapshot.epoch() != epoch {
            return Err(AnchorError::EpochMismatch {
                frame: epoch,
                snapshot: snapshot.epoch(),
            });
        }
        if !snapshot.tail().is_empty() {
            return Err(AnchorError::NonEmptyTail);
        }
        Ok(Anchor {
            epoch,
            chain,
            snapshot,
        })
    }

    /// Whether this anchor is the store's genesis. `open_durable` always
    /// opens a fresh session, whose ingest counter starts at 0, so the
    /// genesis anchor is exactly the epoch-0 anchor: nothing precedes it and
    /// its chain value must be [`genesis_chain`] of its own snapshot bytes
    /// (periodic anchors are written only after at least one committed
    /// epoch, so they can never claim epoch 0).
    pub fn is_genesis(&self) -> bool {
        self.epoch == 0
    }
}

/// The chain seed for a store whose genesis snapshot encodes to
/// `snapshot_bytes`: `SHA-256("scout-store/v1/genesis\0" ∥
/// SHA-256(snapshot_bytes))`.
///
/// Recovery recomputes this for a genesis anchor, so even the chain's
/// starting value is bound to checksummed bytes — there is no unauthenticated
/// trust root a tampered store could hide behind.
pub fn genesis_chain(snapshot_bytes: &[u8]) -> Digest {
    let mut h = Sha256::new();
    h.update(b"scout-store/v1/genesis\0");
    h.update(&sha256(snapshot_bytes));
    h.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_core::ScoutEngine;
    use scout_fabric::Fabric;
    use scout_policy::sample;

    fn snapshot() -> Snapshot {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let engine = ScoutEngine::new();
        let session = engine.open_session(&fabric);
        session.checkpoint()
    }

    #[test]
    fn round_trip() {
        let snap = snapshot();
        let chain = genesis_chain(&snap.to_bytes());
        let anchor = Anchor::new(snap, chain).unwrap();
        let bytes = anchor.to_bytes();
        let decoded = Anchor::from_bytes(&bytes).unwrap();
        assert_eq!(decoded, anchor);
        assert!(decoded.is_genesis());
        assert_eq!(decoded.chain, genesis_chain(&decoded.snapshot.to_bytes()));
    }

    #[test]
    fn every_single_byte_flip_is_a_typed_error() {
        let snap = snapshot();
        let chain = genesis_chain(&snap.to_bytes());
        let clean = Anchor::new(snap, chain).unwrap().to_bytes();
        for i in 0..clean.len() {
            let mut damaged = clean.clone();
            damaged[i] ^= 0x01;
            assert!(
                Anchor::from_bytes(&damaged).is_err(),
                "flip at byte {i} was accepted"
            );
        }
    }

    #[test]
    fn truncation_is_an_error() {
        let snap = snapshot();
        let chain = genesis_chain(&snap.to_bytes());
        let clean = Anchor::new(snap, chain).unwrap().to_bytes();
        for cut in 0..clean.len() {
            assert!(Anchor::from_bytes(&clean[..cut]).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn errors_render() {
        for err in [
            AnchorError::Truncated,
            AnchorError::BadMagic,
            AnchorError::UnsupportedVersion { version: 3 },
            AnchorError::ChecksumMismatch,
            AnchorError::Snapshot(SnapshotError::BadMagic),
            AnchorError::EpochMismatch {
                frame: 1,
                snapshot: 2,
            },
            AnchorError::NonEmptyTail,
        ] {
            assert!(!err.to_string().is_empty());
        }
    }
}
