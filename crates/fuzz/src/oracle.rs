//! The decode surfaces under test and the three oracles every input is
//! checked against.
//!
//! For each input buffer the oracle runs the surface's top-level decode and
//! demands:
//!
//! 1. **No panic, bounded allocation** — decoding runs under
//!    [`catch_unwind`] and the tracking allocator ([`crate::alloc`]); a panic
//!    or a heap peak beyond a budget linear in the input length is a
//!    failure. The budgets are generous (decoded structures legitimately
//!    expand: dependency indexes, recompiled rules) but strictly linear, so
//!    an attacker-controlled length prefix driving a huge pre-allocation
//!    still trips them.
//! 2. **Canonical acceptance** — every accepted input must re-encode to the
//!    exact bytes it arrived as (decode→encode→decode fixpoint). Anything
//!    else means two distinct byte strings alias one value.
//! 3. **Typed rejection** — every rejected input must surface as a
//!    [`WireError`](scout_fabric::WireError) /
//!    [`SnapshotError`](scout_core::SnapshotError) /
//!    [`JournalError`](scout_store::JournalError); `unwrap`/`expect` on the
//!    decode path shows up here as a panic.
//!
//! For [`Surface::Snapshot`], accepted values additionally go through
//! [`ScoutEngine::restore`] — the session-restore path must either produce a
//! live session or a typed `SessionError`, never panic.

use std::collections::BTreeMap;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

use scout_core::{ScoutEngine, Snapshot};
use scout_fabric::wire::{from_bytes, to_bytes, Wire};
use scout_fabric::{ChangeLog, EventBatch, FabricView, FaultLog};
use scout_policy::{PolicyUniverse, SwitchId, TcamRule};
use scout_server::ServerRequest;
use scout_store::{decode_segment, Segment};

use crate::alloc;

/// Allocation budget, in bytes, for a decode that *rejects* its input: a
/// fixed floor plus a linear factor of the input length. Rejection can still
/// allocate — a mutated universe decodes all its object lists before failing
/// builder validation — but never more than a constant factor of the bytes
/// actually present.
pub fn reject_budget(input_len: usize) -> usize {
    512 * 1024 + 256 * input_len
}

/// Allocation budget for a decode that *accepts* its input. Valid values
/// legitimately expand well past their encoding (universe dependency
/// indexes, recompiled logical rules), so the linear factor is larger; the
/// budget still forbids growth driven by anything but the real input size.
pub fn accept_budget(input_len: usize) -> usize {
    4 * 1024 * 1024 + 4096 * input_len
}

/// A top-level untrusted decode entry point.
///
/// The wire surfaces all go through [`from_bytes`], which requires full
/// buffer consumption; [`Surface::Snapshot`] goes through
/// [`Snapshot::from_bytes`], the framed (magic/version/CRC) path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Surface {
    /// `EventBatch` — the delta-ingestion payload.
    EventBatch,
    /// `FabricView` — the durable monitor mirror.
    FabricView,
    /// `PolicyUniverse` — the policy layer, re-validated on decode.
    PolicyUniverse,
    /// The mirrored TCAM map (`BTreeMap<SwitchId, Vec<TcamRule>>`).
    Tcam,
    /// `ChangeLog` — controller change history.
    ChangeLog,
    /// `FaultLog` — physical fault history.
    FaultLog,
    /// `Snapshot` — the framed session checkpoint, including engine restore
    /// of accepted values.
    Snapshot,
    /// A `scout-store` journal segment — the strict hash-chained decode
    /// recovery runs on every sealed segment file.
    Journal,
    /// `ServerRequest` — the serving layer's front-door message, the first
    /// decode a million untrusted tenants can reach.
    Server,
}

impl Surface {
    /// Every decode surface, in the order the harness runs them.
    pub const ALL: [Surface; 9] = [
        Surface::EventBatch,
        Surface::FabricView,
        Surface::PolicyUniverse,
        Surface::Tcam,
        Surface::ChangeLog,
        Surface::FaultLog,
        Surface::Snapshot,
        Surface::Journal,
        Surface::Server,
    ];

    /// The surface's stable name, used in corpus file names and CLI flags.
    pub fn name(self) -> &'static str {
        match self {
            Surface::EventBatch => "eventbatch",
            Surface::FabricView => "fabricview",
            Surface::PolicyUniverse => "policyuniverse",
            Surface::Tcam => "tcam",
            Surface::ChangeLog => "changelog",
            Surface::FaultLog => "faultlog",
            Surface::Snapshot => "snapshot",
            Surface::Journal => "journal",
            Surface::Server => "server",
        }
    }

    /// Parses a surface from its [`Surface::name`].
    pub fn parse(name: &str) -> Option<Surface> {
        Surface::ALL.into_iter().find(|s| s.name() == name)
    }
}

impl fmt::Display for Surface {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What checking one input against the oracles concluded.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The input decoded, re-encoded byte-identically, and stayed within the
    /// acceptance allocation budget.
    Accepted,
    /// The input was rejected with a typed error within the rejection
    /// allocation budget (the error's rendered form is kept for reporting).
    Rejected(String),
    /// An oracle was violated — this input is a bug and belongs in the
    /// regression corpus.
    Violation(Violation),
}

/// An oracle violation found for one input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Violation {
    /// Decoding (or re-encoding, or restoring) panicked.
    Panic,
    /// The input decoded but re-encoded to different bytes.
    NonCanonical,
    /// Decoding allocated past the linear budget for its outcome.
    AllocBlowup {
        /// Peak bytes held during the decode.
        peak: usize,
        /// The budget that was exceeded.
        budget: usize,
    },
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Violation::Panic => f.write_str("decode panicked"),
            Violation::NonCanonical => f.write_str("accepted input re-encoded to different bytes"),
            Violation::AllocBlowup { peak, budget } => {
                write!(f, "decode held {peak} heap bytes (budget {budget})")
            }
        }
    }
}

/// Runs one input through `surface`'s decoder and all three oracles.
pub fn check(surface: Surface, bytes: &[u8]) -> Verdict {
    match surface {
        Surface::EventBatch => check_wire::<EventBatch>(bytes),
        Surface::FabricView => check_wire::<FabricView>(bytes),
        Surface::PolicyUniverse => check_wire::<PolicyUniverse>(bytes),
        Surface::Tcam => check_wire::<BTreeMap<SwitchId, Vec<TcamRule>>>(bytes),
        Surface::ChangeLog => check_wire::<ChangeLog>(bytes),
        Surface::FaultLog => check_wire::<FaultLog>(bytes),
        Surface::Snapshot => check_snapshot(bytes),
        Surface::Journal => check_journal(bytes),
        Surface::Server => check_wire::<ServerRequest>(bytes),
    }
}

/// Applies the allocation oracle to an already-measured decode, then the
/// canonicality oracle via `reencode`.
fn judge<T>(
    bytes: &[u8],
    outcome: std::thread::Result<Result<T, String>>,
    peak: usize,
    reencode: impl FnOnce(&T) -> Vec<u8>,
) -> Verdict {
    match outcome {
        Err(_) => Verdict::Violation(Violation::Panic),
        Ok(Err(rendered)) => {
            let budget = reject_budget(bytes.len());
            if peak > budget {
                return Verdict::Violation(Violation::AllocBlowup { peak, budget });
            }
            Verdict::Rejected(rendered)
        }
        Ok(Ok(value)) => {
            let budget = accept_budget(bytes.len());
            if peak > budget {
                return Verdict::Violation(Violation::AllocBlowup { peak, budget });
            }
            match catch_unwind(AssertUnwindSafe(|| reencode(&value))) {
                Err(_) => Verdict::Violation(Violation::Panic),
                Ok(encoded) if encoded != bytes => Verdict::Violation(Violation::NonCanonical),
                Ok(_) => Verdict::Accepted,
            }
        }
    }
}

fn check_wire<T: Wire>(bytes: &[u8]) -> Verdict {
    let (outcome, usage) = alloc::measure(|| {
        catch_unwind(AssertUnwindSafe(|| {
            from_bytes::<T>(bytes).map_err(|e| e.to_string())
        }))
    });
    judge(bytes, outcome, usage.peak, |value: &T| to_bytes(value))
}

fn check_journal(bytes: &[u8]) -> Verdict {
    let (outcome, usage) = alloc::measure(|| {
        catch_unwind(AssertUnwindSafe(|| {
            decode_segment(bytes).map_err(|e| e.to_string())
        }))
    });
    judge(bytes, outcome, usage.peak, |segment: &Segment| {
        segment.to_bytes()
    })
}

fn check_snapshot(bytes: &[u8]) -> Verdict {
    let (outcome, usage) = alloc::measure(|| {
        catch_unwind(AssertUnwindSafe(|| {
            Snapshot::from_bytes(bytes).map_err(|e| e.to_string())
        }))
    });
    let verdict = judge(bytes, outcome, usage.peak, |snap: &Snapshot| {
        snap.to_bytes()
    });
    if verdict != Verdict::Accepted {
        return verdict;
    }
    // Accepted snapshots must also survive the session-restore path without
    // panicking; a typed SessionError (e.g. a tail the view cannot replay)
    // is a legitimate outcome.
    let snapshot = Snapshot::from_bytes(bytes).expect("accepted above");
    let restored = catch_unwind(AssertUnwindSafe(|| {
        // next_epoch() is the first arithmetic a tail producer runs against
        // a restored snapshot; decode validation guarantees it has headroom,
        // and in debug builds an overflow here panics and is caught.
        let _ = snapshot.next_epoch();
        let engine = ScoutEngine::new();
        engine.restore(&snapshot).map(|_session| ()).is_ok()
    }));
    match restored {
        Err(_) => Verdict::Violation(Violation::Panic),
        Ok(_) => Verdict::Accepted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::seeds;

    #[test]
    fn every_seed_is_accepted_by_its_surface() {
        for surface in Surface::ALL {
            for (i, seed) in seeds::for_surface(surface).iter().enumerate() {
                assert_eq!(
                    check(surface, seed),
                    Verdict::Accepted,
                    "{surface} seed {i}"
                );
            }
        }
    }

    #[test]
    fn truncation_rejects_with_typed_errors_everywhere() {
        for surface in Surface::ALL {
            let seed = &seeds::for_surface(surface)[0];
            for cut in [0, 1, seed.len() / 2, seed.len() - 1] {
                match check(surface, &seed[..cut]) {
                    Verdict::Rejected(_) => {}
                    verdict => panic!("{surface} cut {cut}: {verdict:?}"),
                }
            }
        }
    }

    #[test]
    fn surface_names_roundtrip() {
        for surface in Surface::ALL {
            assert_eq!(Surface::parse(surface.name()), Some(surface));
        }
        assert_eq!(Surface::parse("nope"), None);
    }
}
