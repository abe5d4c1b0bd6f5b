//! The filesystem layer: durable sessions, group commit, snapshot anchoring,
//! compaction, crash injection and tamper-evident recovery.
//!
//! # On-disk layout
//!
//! ```text
//! <dir>/
//!   journal/seg-<first_epoch:020>.scjl     append-only segments (journal.rs)
//!   snap/anchor-<epoch:020>.scsa           snapshot anchors (anchor.rs)
//!   snap/anchor-<epoch:020>.scsa.tmp       transient; removed on recovery
//! ```
//!
//! # Commit protocol
//!
//! A [`DurableSession`] opened by [`DurableEngine`] has a *sink*: the files
//! above. [`DurableSession::append`] journals the batch (write-ahead), then
//! applies it to the in-memory session; [`DurableSession::commit`] fsyncs
//! the active segment — the group-commit boundary. [`DurableSession::ingest`]
//! is `append` + `commit` in one call. When the committed epoch has advanced
//! [`StoreConfig::snapshot_every`] epochs past the last anchor, `commit`
//! writes a new anchor (tmp → fsync → rename → dir fsync, so an anchor is
//! either fully present or invisible) and then compacts: segments whose
//! every record the anchor covers are deleted, as are superseded anchors.
//! The active segment rolls after [`StoreConfig::segment_max_records`]
//! records; rolling seals the old file with an fsync before the new header
//! is written. [`DurableSession::resync`] commits, resyncs the session and
//! writes an anchor at the resync epoch chained by [`resync_chain`], then
//! starts the next segment from it and compacts: the anchor bridges the
//! hole the resync leaves in the journal. A session made `From` a plain
//! [`AnalysisSession`] has no sink and writes nothing.
//!
//! # Recovery state machine
//!
//! [`DurableEngine::recover`] scans the directory and **verifies every byte
//! of every file** before touching the engine:
//!
//! 1. decode every anchor (frame CRC, embedded snapshot CRC, epoch
//!    cross-checks; genesis anchors must match [`genesis_chain`] of their own
//!    snapshot bytes);
//! 2. decode every segment — strictly, except the final segment where a torn
//!    tail (an append a crash cut short) is truncated; a torn header left by
//!    a crashed segment creation is discarded the same way;
//! 3. verify segment contiguity (`first_epoch`, `prev_chain`) — a hole only
//!    where an anchor at its last epoch binds it by [`resync_chain`], and an
//!    anchor past the journal end only if it so binds the last segment (a
//!    resync that crashed before its segment existed) — and that every
//!    anchor inside journal coverage records exactly the running chain
//!    digest at its epoch; a *superseded* anchor left outside coverage by an
//!    interrupted compaction is CRC-checked but its chain digest has nothing
//!    left to be verified against, so recovery finishes the compaction's job
//!    and deletes it rather than trusting it;
//! 4. restore the newest anchor's snapshot through the ordinary engine
//!    restore path and replay the journal tail through ordinary `ingest`.
//!
//! Any complete-but-wrong byte anywhere — journal or snapshot — is a typed
//! [`StoreError`], never a panic and never a silent acceptance; only
//! incomplete trailing writes (crash evidence) are truncated, and only
//! stale superseded anchors (chain-unverifiable by construction, and never
//! restored from) are discarded.
//!
//! # Crash injection
//!
//! A [`CrashPlan`] arms a countdown over the store's durable file
//! operations (create, append, fsync, rename, remove, truncate, dir-fsync).
//! The fatal operation is *interrupted* — an append writes a seed-chosen
//! strict prefix, any other operation does nothing — and the store returns
//! [`StoreError::InjectedCrash`] and poisons itself, simulating SIGKILL at
//! that abort point. `scout-sim`'s crash soak and the kill-and-recover tests
//! drive exactly this hook.

use std::collections::BTreeMap;
use std::fmt;
use std::fs::{self, File, OpenOptions};
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::OnceLock;

use scout_core::{AnalysisSession, ReportDelta, ScoutEngine, ScoutReport, SessionError};
use scout_fabric::{EventBatch, Fabric, FullSync};

use crate::anchor::{genesis_chain, resync_chain, Anchor, AnchorError};
use crate::digest::Digest;
use crate::journal::{
    decode_segment, decode_segment_prefix, encode_record, JournalError, SegmentHeader,
    SegmentPrefix, SEGMENT_HEADER_LEN,
};

const JOURNAL_SUBDIR: &str = "journal";
const SNAP_SUBDIR: &str = "snap";

fn segment_name(first_epoch: u64) -> String {
    format!("seg-{first_epoch:020}.scjl")
}

fn anchor_name(epoch: u64) -> String {
    format!("anchor-{epoch:020}.scsa")
}

fn parse_fixed(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(suffix)?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Tuning and fault-injection knobs for a durable session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreConfig {
    /// Write a snapshot anchor once the committed epoch is this far past the
    /// last anchor. `0` disables periodic anchoring (the genesis anchor is
    /// always written).
    pub snapshot_every: u64,
    /// Roll the active segment after this many records (minimum 1).
    pub segment_max_records: u64,
    /// Optional SIGKILL simulation: abort at a seeded durable-file-operation
    /// countdown.
    pub crash_plan: Option<CrashPlan>,
}

impl Default for StoreConfig {
    fn default() -> Self {
        StoreConfig {
            snapshot_every: 32,
            segment_max_records: 64,
            crash_plan: None,
        }
    }
}

/// A process-internal abort point: the `abort_after_ops + 1`-th durable file
/// operation is interrupted mid-flight and the store poisons itself, exactly
/// as if the process had been SIGKILLed there.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// How many durable file operations complete before the crash.
    pub abort_after_ops: u64,
    /// Seeds how much of the fatal append's bytes reach the file (a strict
    /// prefix — a tear, like a real partial write).
    pub partial_seed: u64,
}

/// Why a store operation failed. Every recovery-time defect is typed: a
/// damaged store never panics and is never silently accepted.
#[derive(Debug)]
pub enum StoreError {
    /// An underlying filesystem operation failed.
    Io {
        /// Which operation (`"create"`, `"append"`, `"sync"`, …).
        op: &'static str,
        /// The path involved.
        path: PathBuf,
        /// The OS error.
        source: std::io::Error,
    },
    /// The directory does not have a store's `journal/` + `snap/` layout.
    NotAStore {
        /// The directory checked.
        path: PathBuf,
    },
    /// `open_durable` refuses to clobber an existing store.
    AlreadyExists {
        /// The directory that already holds a store.
        path: PathBuf,
    },
    /// A file that is neither a segment, an anchor nor a transient temp.
    StrayFile {
        /// The unexpected file.
        path: PathBuf,
    },
    /// The store has no snapshot anchor at all.
    MissingAnchor,
    /// An anchor file failed to decode.
    Anchor {
        /// The anchor file.
        path: PathBuf,
        /// The decode failure.
        source: AnchorError,
    },
    /// An anchor file's name disagrees with the epoch inside it.
    AnchorNameMismatch {
        /// The anchor file.
        path: PathBuf,
        /// The epoch its frame carries.
        epoch: u64,
    },
    /// A genesis anchor whose chain value is not derived from its own
    /// snapshot bytes.
    GenesisChainMismatch {
        /// The genesis anchor's epoch.
        epoch: u64,
    },
    /// A segment file failed to decode.
    Journal {
        /// The segment file.
        path: PathBuf,
        /// The decode failure.
        source: JournalError,
    },
    /// A segment file's name disagrees with the `first_epoch` in its header.
    SegmentNameMismatch {
        /// The segment file.
        path: PathBuf,
        /// The `first_epoch` its header carries.
        first_epoch: u64,
    },
    /// Segments do not cover a contiguous epoch range, and no anchor bridges
    /// the hole.
    SegmentOrder {
        /// Last epoch of the earlier segment.
        prev_end: u64,
        /// First epoch of the later segment.
        next_first: u64,
    },
    /// Adjacent segments whose chain digests do not link, directly or
    /// through the resync anchor that bridges them.
    ChainDiscontinuity {
        /// The boundary epoch where the chain breaks.
        at_epoch: u64,
    },
    /// An anchor inside journal coverage records a chain digest that is not
    /// the journal's running digest at that epoch.
    AnchorChainMismatch {
        /// The anchor's epoch.
        epoch: u64,
    },
    /// The journal starts after the newest anchor — committed epochs are
    /// missing.
    MissingEpochs {
        /// First epoch the journal holds.
        journal_first: u64,
        /// The newest anchor's epoch.
        anchor_epoch: u64,
    },
    /// The newest anchor claims an epoch past the end of the journal, and
    /// its chain is not the resync step from the journal's last chain.
    AnchorBeyondJournal {
        /// The newest anchor's epoch.
        anchor_epoch: u64,
        /// Last epoch the journal holds.
        journal_end: u64,
    },
    /// The analysis session rejected a batch (validation or replay).
    Session(SessionError),
    /// The armed [`CrashPlan`] fired: the simulated SIGKILL hit.
    InjectedCrash,
    /// The store already crashed (or failed) and refuses further writes.
    Poisoned,
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io { op, path, source } => {
                write!(f, "{op} failed on {}: {source}", path.display())
            }
            StoreError::NotAStore { path } => {
                write!(f, "{} is not a scout-store directory", path.display())
            }
            StoreError::AlreadyExists { path } => {
                write!(f, "{} already holds a store", path.display())
            }
            StoreError::StrayFile { path } => {
                write!(f, "unexpected file {} in store", path.display())
            }
            StoreError::MissingAnchor => write!(f, "store has no snapshot anchor"),
            StoreError::Anchor { path, source } => {
                write!(f, "anchor {} is invalid: {source}", path.display())
            }
            StoreError::AnchorNameMismatch { path, epoch } => write!(
                f,
                "anchor {} carries epoch {epoch}, which disagrees with its name",
                path.display()
            ),
            StoreError::GenesisChainMismatch { epoch } => write!(
                f,
                "genesis anchor at epoch {epoch} does not seed its own chain"
            ),
            StoreError::Journal { path, source } => {
                write!(f, "segment {} is invalid: {source}", path.display())
            }
            StoreError::SegmentNameMismatch { path, first_epoch } => write!(
                f,
                "segment {} starts at epoch {first_epoch}, which disagrees with its name",
                path.display()
            ),
            StoreError::SegmentOrder {
                prev_end,
                next_first,
            } => write!(
                f,
                "segments are not contiguous: epoch {prev_end} is followed by {next_first}"
            ),
            StoreError::ChainDiscontinuity { at_epoch } => {
                write!(
                    f,
                    "hash chain breaks at the segment boundary after epoch {at_epoch}"
                )
            }
            StoreError::AnchorChainMismatch { epoch } => write!(
                f,
                "anchor at epoch {epoch} records a chain digest the journal does not produce"
            ),
            StoreError::MissingEpochs {
                journal_first,
                anchor_epoch,
            } => write!(
                f,
                "journal starts at epoch {journal_first}, losing epochs after anchor {anchor_epoch}"
            ),
            StoreError::AnchorBeyondJournal {
                anchor_epoch,
                journal_end,
            } => write!(
                f,
                "anchor at epoch {anchor_epoch} is past the journal end {journal_end}"
            ),
            StoreError::Session(err) => write!(f, "session rejected a batch: {err}"),
            StoreError::InjectedCrash => write!(f, "injected crash: simulated SIGKILL abort point"),
            StoreError::Poisoned => write!(f, "store is poisoned after a crash or write failure"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            StoreError::Anchor { source, .. } => Some(source),
            StoreError::Journal { source, .. } => Some(source),
            StoreError::Session(source) => Some(source),
            _ => None,
        }
    }
}

/// Running operation counters for one durable session.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Batches appended to the journal.
    pub appends: u64,
    /// Commit calls (group-commit boundaries).
    pub commits: u64,
    /// fsyncs of the active segment.
    pub syncs: u64,
    /// Segment files created (excluding the one `open_durable` seeds).
    pub segments_rolled: u64,
    /// Segment files deleted by compaction.
    pub segments_removed: u64,
    /// Snapshot anchors written (excluding genesis).
    pub anchors_written: u64,
    /// Anchor files deleted by compaction.
    pub anchors_removed: u64,
    /// Journal bytes appended (frames, not headers).
    pub bytes_appended: u64,
    /// Batches replayed through `ingest` during recovery.
    pub replayed_on_recover: u64,
    /// Torn tail bytes truncated or discarded during recovery.
    pub torn_bytes_truncated: u64,
}

/// What [`verify_dir`] certifies about a store without restoring it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreSummary {
    /// Last committed epoch the store can recover to.
    pub last_epoch: u64,
    /// Epoch of the newest snapshot anchor.
    pub anchor_epoch: u64,
    /// Number of valid segment files.
    pub segments: usize,
    /// Number of valid anchor files inside journal coverage (each
    /// chain-checked against the journal's running digest at its epoch).
    pub anchors: usize,
    /// Superseded anchors outside journal coverage, left by a compaction
    /// interrupted between removing their segments and removing them: their
    /// CRCs check, their chain digests cannot, and recovery deletes them.
    pub stale_anchors: usize,
    /// Journal records verified (including ones the anchor already covers).
    pub records: usize,
    /// Torn trailing bytes a recovery would truncate.
    pub torn_bytes: u64,
    /// Running chain digest at `last_epoch`.
    pub chain: Digest,
}

// ---------------------------------------------------------------------------
// Crash-injecting file operations
// ---------------------------------------------------------------------------

#[derive(Debug)]
struct StoreFs {
    crash: Option<CrashState>,
}

#[derive(Debug)]
struct CrashState {
    remaining: u64,
    partial_seed: u64,
}

fn io_err<'p>(op: &'static str, path: &'p Path) -> impl FnOnce(std::io::Error) -> StoreError + 'p {
    move |source| StoreError::Io {
        op,
        path: path.to_path_buf(),
        source,
    }
}

impl StoreFs {
    fn new(plan: Option<CrashPlan>) -> Self {
        StoreFs {
            crash: plan.map(|p| CrashState {
                remaining: p.abort_after_ops,
                partial_seed: p.partial_seed,
            }),
        }
    }

    /// Counts one durable operation. The abort point fails with
    /// [`StoreError::InjectedCrash`], and so does every later operation (the
    /// sink that owns this countdown poisons itself on the first).
    fn step(&mut self) -> Result<(), StoreError> {
        match self.crash.as_mut() {
            Some(state) if state.remaining == 0 => Err(StoreError::InjectedCrash),
            Some(state) => {
                state.remaining -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// How many bytes of a fatal `len`-byte append reach the file: a
    /// seed-derived strict prefix.
    fn partial_len(&mut self, len: usize) -> usize {
        let Some(state) = self.crash.as_mut() else {
            return 0;
        };
        // xorshift* step so consecutive crashes tear at different offsets.
        let mut x = state.partial_seed | 1;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        state.partial_seed = x;
        if len == 0 {
            0
        } else {
            (x % len as u64) as usize
        }
    }

    fn create(&mut self, path: &Path) -> Result<File, StoreError> {
        self.step()?;
        OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(path)
            .map_err(io_err("create", path))
    }

    fn append(&mut self, file: &mut File, path: &Path, bytes: &[u8]) -> Result<(), StoreError> {
        if let Err(crash) = self.step() {
            let keep = self.partial_len(bytes.len());
            // The torn prefix reaches the file — that is what makes the
            // abort point interesting for recovery.
            file.write_all(&bytes[..keep])
                .map_err(io_err("append", path))?;
            let _ = file.sync_data();
            return Err(crash);
        }
        file.write_all(bytes).map_err(io_err("append", path))
    }

    fn sync(&mut self, file: &File, path: &Path) -> Result<(), StoreError> {
        self.step()?;
        file.sync_data().map_err(io_err("sync", path))
    }

    fn sync_dir(&mut self, dir: &Path) -> Result<(), StoreError> {
        self.step()?;
        let handle = File::open(dir).map_err(io_err("open-dir", dir))?;
        handle.sync_all().map_err(io_err("sync-dir", dir))
    }

    fn rename(&mut self, from: &Path, to: &Path) -> Result<(), StoreError> {
        self.step()?;
        fs::rename(from, to).map_err(io_err("rename", from))
    }

    fn remove(&mut self, path: &Path) -> Result<(), StoreError> {
        self.step()?;
        fs::remove_file(path).map_err(io_err("remove", path))
    }

    fn truncate(&mut self, path: &Path, keep: u64) -> Result<(), StoreError> {
        self.step()?;
        let file = OpenOptions::new()
            .write(true)
            .open(path)
            .map_err(io_err("truncate", path))?;
        file.set_len(keep).map_err(io_err("truncate", path))?;
        file.sync_data().map_err(io_err("truncate", path))
    }
}

// ---------------------------------------------------------------------------
// Scan: read-only, byte-complete verification of a store directory
// ---------------------------------------------------------------------------

struct ScannedSegment {
    path: PathBuf,
    prefix: SegmentPrefix,
}

struct Scan {
    newest: Anchor,
    /// Valid anchors retained (chain-checked against the journal).
    anchors: usize,
    /// Superseded anchors outside journal coverage — leftovers of an
    /// interrupted compaction, scheduled for removal.
    stale_anchors: usize,
    segments: Vec<ScannedSegment>,
    /// Transient files (and a torn-header final segment) recovery removes.
    remove: Vec<PathBuf>,
    /// Torn tail in the final segment: keep only this many bytes.
    truncate: Option<(PathBuf, u64)>,
    /// Batches after the newest anchor, in epoch order.
    replay: Vec<EventBatch>,
    chain: Digest,
    last_epoch: u64,
    torn_bytes: u64,
    records: usize,
}

fn sorted_entries(dir: &Path) -> Result<Vec<(String, PathBuf)>, StoreError> {
    let mut out = Vec::new();
    let entries = fs::read_dir(dir).map_err(io_err("read-dir", dir))?;
    for entry in entries {
        let entry = entry.map_err(io_err("read-dir", dir))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        out.push((name, entry.path()));
    }
    out.sort();
    Ok(out)
}

fn scan_dir(dir: &Path) -> Result<Scan, StoreError> {
    let journal_dir = dir.join(JOURNAL_SUBDIR);
    let snap_dir = dir.join(SNAP_SUBDIR);
    if !journal_dir.is_dir() || !snap_dir.is_dir() {
        return Err(StoreError::NotAStore {
            path: dir.to_path_buf(),
        });
    }

    let mut remove = Vec::new();

    // --- anchors -----------------------------------------------------------
    let mut anchors: BTreeMap<u64, (Anchor, PathBuf)> = BTreeMap::new();
    for (name, path) in sorted_entries(&snap_dir)? {
        if name.ends_with(".tmp") {
            remove.push(path);
            continue;
        }
        let Some(epoch) = parse_fixed(&name, "anchor-", ".scsa") else {
            return Err(StoreError::StrayFile { path });
        };
        let bytes = fs::read(&path).map_err(io_err("read", &path))?;
        let anchor = Anchor::from_bytes(&bytes).map_err(|source| StoreError::Anchor {
            path: path.clone(),
            source,
        })?;
        if anchor.epoch != epoch {
            return Err(StoreError::AnchorNameMismatch {
                path,
                epoch: anchor.epoch,
            });
        }
        if anchor.is_genesis() && anchor.chain != genesis_chain(&anchor.snapshot.to_bytes()) {
            return Err(StoreError::GenesisChainMismatch {
                epoch: anchor.epoch,
            });
        }
        anchors.insert(epoch, (anchor, path));
    }
    let Some((_, (newest, _))) = anchors.pop_last() else {
        return Err(StoreError::MissingAnchor);
    };

    // --- segments ----------------------------------------------------------
    let mut named: Vec<(u64, PathBuf)> = Vec::new();
    for (name, path) in sorted_entries(&journal_dir)? {
        let Some(first_epoch) = parse_fixed(&name, "seg-", ".scjl") else {
            return Err(StoreError::StrayFile { path });
        };
        named.push((first_epoch, path));
    }
    named.sort();

    let mut segments: Vec<ScannedSegment> = Vec::new();
    let mut torn_bytes = 0u64;
    let mut truncate = None;
    let count = named.len();
    for (i, (name_epoch, path)) in named.into_iter().enumerate() {
        let bytes = fs::read(&path).map_err(io_err("read", &path))?;
        let last = i + 1 == count;
        if last && bytes.len() < SEGMENT_HEADER_LEN {
            // A crash during segment creation: the header append tore. Only
            // tolerable in tail position — anywhere else it is damage.
            torn_bytes += bytes.len() as u64;
            remove.push(path);
            continue;
        }
        let prefix = if last {
            decode_segment_prefix(&bytes)
        } else {
            decode_segment(&bytes).map(|segment| SegmentPrefix {
                consumed: bytes.len(),
                torn: false,
                segment,
            })
        }
        .map_err(|source| StoreError::Journal {
            path: path.clone(),
            source,
        })?;
        if prefix.segment.header.first_epoch != name_epoch {
            return Err(StoreError::SegmentNameMismatch {
                path,
                first_epoch: prefix.segment.header.first_epoch,
            });
        }
        if prefix.torn {
            torn_bytes += bytes.len() as u64 - prefix.consumed as u64;
            truncate = Some((path.clone(), prefix.consumed as u64));
        }
        segments.push(ScannedSegment { path, prefix });
    }

    // --- contiguity + chain ------------------------------------------------
    let anchor_at = |epoch: u64| {
        let older = anchors.get(&epoch).map(|(anchor, _)| anchor);
        older.or((newest.epoch == epoch).then_some(&newest))
    };
    for pair in segments.windows(2) {
        let a = &pair[0].prefix.segment;
        let b = &pair[1].prefix.segment;
        let (prev_end, next_first) = (a.end_epoch(), b.header.first_epoch);
        // A hole is a recorded resync only where the anchor at its last
        // epoch steps the chain on from the segment before it.
        let linked = if next_first == prev_end + 1 {
            a.end_chain()
        } else if let Some(bridge) = anchor_at(next_first - 1).filter(|_| next_first > prev_end) {
            resync_chain(&a.end_chain(), &bridge.snapshot.to_bytes())
        } else {
            return Err(StoreError::SegmentOrder {
                prev_end,
                next_first,
            });
        };
        if b.header.prev_chain != linked {
            return Err(StoreError::ChainDiscontinuity { at_epoch: prev_end });
        }
    }

    let records: usize = segments
        .iter()
        .map(|s| s.prefix.segment.records.len())
        .sum();

    let mut stale_anchors = 0usize;
    let (chain, last_epoch) = if let (Some(first), Some(last)) = (segments.first(), segments.last())
    {
        let journal_first = first.prefix.segment.header.first_epoch;
        let journal_end = last.prefix.segment.end_epoch();
        if newest.epoch + 1 < journal_first {
            return Err(StoreError::MissingEpochs {
                journal_first,
                anchor_epoch: newest.epoch,
            });
        }
        let last_chain = last.prefix.segment.end_chain();
        if newest.epoch > journal_end
            && newest.chain != resync_chain(&last_chain, &newest.snapshot.to_bytes())
        {
            return Err(StoreError::AnchorBeyondJournal {
                anchor_epoch: newest.epoch,
                journal_end,
            });
        }
        // Every anchor inside journal coverage must record exactly the
        // running chain digest at its epoch — the splice detector. A
        // segment's header holds the chain at the epoch before it, which is
        // how a resync anchor at the end of a hole is checked.
        let chain_at = |epoch: u64| {
            segments.iter().find_map(|scanned| {
                let seg = &scanned.prefix.segment;
                if epoch + 1 == seg.header.first_epoch {
                    return Some(seg.header.prev_chain);
                }
                let idx = epoch.checked_sub(seg.header.first_epoch)?;
                seg.records.get(idx as usize).map(|r| r.chain)
            })
        };
        let check = |anchor: &Anchor| -> Result<(), StoreError> {
            match chain_at(anchor.epoch) {
                Some(running) if running == anchor.chain => Ok(()),
                _ => Err(StoreError::AnchorChainMismatch {
                    epoch: anchor.epoch,
                }),
            }
        };
        for (anchor, path) in anchors.values() {
            if anchor.epoch + 1 < journal_first {
                // A compaction interrupted between deleting the segments
                // that covered this superseded anchor and deleting the
                // anchor itself. Its chain digest has nothing left to be
                // verified against, so finish the compaction's job: delete
                // it rather than trust it.
                stale_anchors += 1;
                remove.push(path.clone());
                continue;
            }
            check(anchor)?;
        }
        if newest.epoch > journal_end {
            // A resync that crashed before its segment existed; recovery
            // seeds that segment.
            (newest.chain, newest.epoch)
        } else {
            check(&newest)?;
            (last_chain, journal_end)
        }
    } else {
        // No (surviving) segments: the store crashed right after an anchor
        // became durable. The anchor is the whole truth; older anchors have
        // no journal left to be checked against — compaction leftovers,
        // removed with the rest of the crash evidence.
        for (_, path) in anchors.values() {
            stale_anchors += 1;
            remove.push(path.clone());
        }
        (newest.chain, newest.epoch)
    };

    // --- replay tail -------------------------------------------------------
    let mut replay = Vec::new();
    for scanned in &segments {
        for record in &scanned.prefix.segment.records {
            if record.batch.epoch > newest.epoch {
                replay.push(record.batch.clone());
            }
        }
    }

    Ok(Scan {
        // +1 for `newest`, popped off the map above.
        anchors: anchors.len() - stale_anchors + 1,
        stale_anchors,
        newest,
        segments,
        remove,
        truncate,
        replay,
        chain,
        last_epoch,
        torn_bytes,
        records,
    })
}

/// Verifies every byte of every file in a store directory — anchors,
/// segment headers, record frames, payloads, the full hash chain and the
/// anchor cross-checks — without restoring a session.
///
/// This is exactly the validation [`DurableEngine::recover`] performs before
/// it touches the engine, so a store that verifies cleanly will recover (and
/// vice versa: any flipped byte fails both, with the same typed error).
/// Superseded anchors an interrupted compaction stranded are reported in
/// [`StoreSummary::stale_anchors`], not trusted.
pub fn verify_dir(dir: &Path) -> Result<StoreSummary, StoreError> {
    let scan = scan_dir(dir)?;
    Ok(StoreSummary {
        last_epoch: scan.last_epoch,
        anchor_epoch: scan.newest.epoch,
        segments: scan.segments.len(),
        anchors: scan.anchors,
        stale_anchors: scan.stale_anchors,
        records: scan.records,
        torn_bytes: scan.torn_bytes,
        chain: scan.chain,
    })
}

// ---------------------------------------------------------------------------
// DurableSession
// ---------------------------------------------------------------------------

/// An [`AnalysisSession`] with an optional store sink. Opened through
/// [`DurableEngine`], every accepted batch and every resync is journaled
/// before it is applied, and the session is crash-recoverable via
/// [`DurableEngine::recover`]. Made `From` a plain session it has no sink
/// and writes nothing.
///
/// Mutating access to the inner session is deliberately not exposed: every
/// epoch must flow through [`DurableSession::append`],
/// [`DurableSession::ingest`] or [`DurableSession::resync`] so the journal
/// stays the complete history.
pub struct DurableSession {
    session: AnalysisSession,
    sink: Option<Sink>,
}

/// A session's store state: its files, write cursor and counters.
struct Sink {
    dir: PathBuf,
    journal_dir: PathBuf,
    snap_dir: PathBuf,
    config: StoreConfig,
    fs: StoreFs,
    active: File,
    active_path: PathBuf,
    active_records: u64,
    chain: Digest,
    committed_epoch: u64,
    anchor_epoch: u64,
    staged: u64,
    poisoned: bool,
    stats: StoreStats,
}

/// `ScoutEngine` extension: opening and recovering durable sessions.
///
/// Lives on a trait (re-exported from the facade crate) because the store
/// depends on `scout-core`, not the other way around.
pub trait DurableEngine {
    /// Opens a fresh durable session on `fabric`, rooted at `dir`: creates
    /// the `journal/` + `snap/` layout, writes the genesis snapshot anchor
    /// and seeds the first journal segment. Refuses a directory that already
    /// holds a store.
    fn open_durable(
        &self,
        fabric: &Fabric,
        dir: &Path,
        config: StoreConfig,
    ) -> Result<DurableSession, StoreError>;

    /// Recovers the session persisted at `dir`: verifies every byte of every
    /// store file (any flipped byte or spliced record is a typed
    /// [`StoreError`]), truncates crash-torn tails, restores the newest
    /// anchor and replays the journal tail through ordinary `ingest` — the
    /// result is bit-identical to the uninterrupted session at the last
    /// committed epoch.
    fn recover(&self, dir: &Path, config: StoreConfig) -> Result<DurableSession, StoreError>;
}

fn write_anchor(fs: &mut StoreFs, snap_dir: &Path, anchor: &Anchor) -> Result<(), StoreError> {
    let final_path = snap_dir.join(anchor_name(anchor.epoch));
    let tmp = snap_dir.join(format!("{}.tmp", anchor_name(anchor.epoch)));
    let mut file = fs.create(&tmp)?;
    fs.append(&mut file, &tmp, &anchor.to_bytes())?;
    fs.sync(&file, &tmp)?;
    drop(file);
    fs.rename(&tmp, &final_path)?;
    fs.sync_dir(snap_dir)
}

fn create_segment(
    fs: &mut StoreFs,
    journal_dir: &Path,
    first_epoch: u64,
    prev_chain: Digest,
) -> Result<(File, PathBuf), StoreError> {
    let path = journal_dir.join(segment_name(first_epoch));
    let mut file = fs.create(&path)?;
    let header = SegmentHeader {
        first_epoch,
        prev_chain,
    };
    fs.append(&mut file, &path, &header.to_bytes())?;
    fs.sync(&file, &path)?;
    fs.sync_dir(journal_dir)?;
    Ok((file, path))
}

impl DurableEngine for ScoutEngine {
    fn open_durable(
        &self,
        fabric: &Fabric,
        dir: &Path,
        config: StoreConfig,
    ) -> Result<DurableSession, StoreError> {
        let journal_dir = dir.join(JOURNAL_SUBDIR);
        let snap_dir = dir.join(SNAP_SUBDIR);
        if snap_dir.exists() {
            return Err(StoreError::AlreadyExists {
                path: dir.to_path_buf(),
            });
        }
        fs::create_dir_all(&journal_dir).map_err(io_err("create-dir", &journal_dir))?;
        fs::create_dir_all(&snap_dir).map_err(io_err("create-dir", &snap_dir))?;

        let mut store_fs = StoreFs::new(config.crash_plan);
        let session = self.open_session(fabric);
        let snapshot = session.checkpoint();
        let open_epoch = snapshot.epoch();
        let chain = genesis_chain(&snapshot.to_bytes());
        let anchor = Anchor::new(snapshot, chain).expect("a fresh checkpoint has no tail");
        write_anchor(&mut store_fs, &snap_dir, &anchor)?;
        let (active, active_path) =
            create_segment(&mut store_fs, &journal_dir, open_epoch + 1, chain)?;

        let sink = Sink {
            dir: dir.to_path_buf(),
            journal_dir,
            snap_dir,
            config,
            fs: store_fs,
            active,
            active_path,
            active_records: 0,
            chain,
            committed_epoch: open_epoch,
            anchor_epoch: open_epoch,
            staged: 0,
            poisoned: false,
            stats: StoreStats::default(),
        };
        Ok(DurableSession {
            session,
            sink: Some(sink),
        })
    }

    fn recover(&self, dir: &Path, config: StoreConfig) -> Result<DurableSession, StoreError> {
        let journal_dir = dir.join(JOURNAL_SUBDIR);
        let snap_dir = dir.join(SNAP_SUBDIR);
        let scan = scan_dir(dir)?;

        // Verification passed: restore through the ordinary engine path and
        // replay the tail through ordinary ingest.
        let mut session = self
            .restore(&scan.newest.snapshot)
            .map_err(StoreError::Session)?;
        let mut stats = StoreStats {
            torn_bytes_truncated: scan.torn_bytes,
            ..StoreStats::default()
        };
        for batch in scan.replay {
            session.ingest(batch).map_err(StoreError::Session)?;
            stats.replayed_on_recover += 1;
        }
        debug_assert_eq!(session.epoch(), scan.last_epoch);

        // Clean up crash evidence (transient files, torn tails) with the
        // same counted, interruptible operations as steady-state writes.
        let mut store_fs = StoreFs::new(config.crash_plan);
        let had_removals = !scan.remove.is_empty();
        for path in &scan.remove {
            store_fs.remove(path)?;
        }
        if let Some((path, keep)) = &scan.truncate {
            store_fs.truncate(path, *keep)?;
        }
        if had_removals {
            store_fs.sync_dir(&journal_dir)?;
            store_fs.sync_dir(&snap_dir)?;
        }

        let (active, active_path, active_records) = match scan.segments.last() {
            Some(last) if last.prefix.segment.end_epoch() == scan.last_epoch => {
                let file = OpenOptions::new()
                    .append(true)
                    .open(&last.path)
                    .map_err(io_err("open", &last.path))?;
                let records = last.prefix.segment.records.len() as u64;
                (file, last.path.clone(), records)
            }
            // The store crashed right after an anchor (genesis or resync)
            // became durable and before the next segment existed: seed it.
            _ => {
                let (file, path) =
                    create_segment(&mut store_fs, &journal_dir, scan.last_epoch + 1, scan.chain)?;
                (file, path, 0)
            }
        };

        let sink = Sink {
            dir: dir.to_path_buf(),
            journal_dir,
            snap_dir,
            config,
            fs: store_fs,
            active,
            active_path,
            active_records,
            chain: scan.chain,
            committed_epoch: scan.last_epoch,
            anchor_epoch: scan.newest.epoch,
            staged: 0,
            poisoned: false,
            stats,
        };
        Ok(DurableSession {
            session,
            sink: Some(sink),
        })
    }
}

impl From<AnalysisSession> for DurableSession {
    /// A session with no sink: `append` is [`AnalysisSession::ingest`],
    /// `resync` is [`AnalysisSession::resync`] and `commit` does nothing.
    fn from(session: AnalysisSession) -> Self {
        DurableSession {
            session,
            sink: None,
        }
    }
}

/// The counters of every session with no sink: all zero.
static NO_STATS: OnceLock<StoreStats> = OnceLock::new();

impl DurableSession {
    /// Journals one batch (write-ahead) and applies it to the session. The
    /// batch is durable only after the next [`DurableSession::commit`].
    /// Without a sink this is exactly [`AnalysisSession::ingest`].
    pub fn append(&mut self, batch: EventBatch) -> Result<ReportDelta, StoreError> {
        let Some(sink) = &mut self.sink else {
            return self.session.ingest(batch).map_err(StoreError::Session);
        };
        if sink.poisoned {
            return Err(StoreError::Poisoned);
        }
        // Both refusals run before any byte reaches a file and neither
        // poisons the store: an oversized batch would journal a record
        // recovery is required to reject ([`JournalError::OversizedPayload`]
        // mirrors the decode-side cap), and the journal only ever holds
        // batches the session accepted.
        let (frame, chain) =
            encode_record(&sink.chain, &batch).map_err(|source| StoreError::Journal {
                path: sink.active_path.clone(),
                source,
            })?;
        self.session
            .validate_batch(&batch)
            .map_err(StoreError::Session)?;
        let session = &mut self.session;
        sink.guard(|sink| {
            sink.write(&frame, chain, session.epoch())?;
            session.ingest(batch).map_err(StoreError::Session)
        })
    }

    /// The group-commit boundary: fsyncs every staged append, then writes a
    /// snapshot anchor (and compacts) if the committed epoch has advanced
    /// far enough past the last anchor. Without a sink it does nothing.
    pub fn commit(&mut self) -> Result<(), StoreError> {
        match &mut self.sink {
            Some(sink) => sink.guard(|sink| sink.commit(&self.session)),
            None => Ok(()),
        }
    }

    /// `append` + `commit` in one call: the batch is durable on return.
    pub fn ingest(&mut self, batch: EventBatch) -> Result<ReportDelta, StoreError> {
        let delta = self.append(batch)?;
        self.commit()?;
        Ok(delta)
    }

    /// [`AnalysisSession::resync`], durable on return: staged appends are
    /// committed first, then an anchor of the resynced session bridges the
    /// epochs the journal never saw (see the [module docs](self)). A
    /// non-forward `epoch` writes nothing more and does not poison.
    pub fn resync(&mut self, epoch: u64, sync: FullSync) -> Result<ReportDelta, StoreError> {
        let Some(sink) = &mut self.sink else {
            return self
                .session
                .resync(epoch, sync)
                .map_err(StoreError::Session);
        };
        let session = &mut self.session;
        sink.guard(|sink| match sink.staged {
            0 => Ok(()),
            _ => sink.seal(session.epoch()),
        })?;
        let delta = session.resync(epoch, sync).map_err(StoreError::Session)?;
        sink.guard(|sink| sink.resync(session))?;
        Ok(delta)
    }

    /// The session's current epoch (may be ahead of
    /// [`DurableSession::committed_epoch`] between `append` and `commit`).
    pub fn epoch(&self) -> u64 {
        self.session.epoch()
    }

    /// The epoch the next ingested batch must carry.
    pub fn next_epoch(&self) -> u64 {
        self.session.next_epoch()
    }

    /// The current full report.
    pub fn full_report(&self) -> &ScoutReport {
        self.session.full_report()
    }

    /// Last epoch guaranteed durable (fsynced): the session's epoch when
    /// there is no sink.
    pub fn committed_epoch(&self) -> u64 {
        self.sink
            .as_ref()
            .map_or(self.session.epoch(), |sink| sink.committed_epoch)
    }

    /// Epoch of the newest snapshot anchor on disk (`None` without a sink).
    pub fn anchor_epoch(&self) -> Option<u64> {
        self.sink.as_ref().map(|sink| sink.anchor_epoch)
    }

    /// Running hash-chain digest of the journal (`None` without a sink).
    pub fn chain(&self) -> Option<Digest> {
        self.sink.as_ref().map(|sink| sink.chain)
    }

    /// The store's root directory (empty without a sink).
    pub fn dir(&self) -> &Path {
        self.sink
            .as_ref()
            .map_or(Path::new(""), |sink| sink.dir.as_path())
    }

    /// The store's operation counters (all zero without a sink).
    pub fn store_stats(&self) -> &StoreStats {
        match &self.sink {
            Some(sink) => &sink.stats,
            None => NO_STATS.get_or_init(StoreStats::default),
        }
    }

    /// Whether a crash (injected or real write failure) has poisoned the
    /// store. A poisoned store refuses every further write; drop it and
    /// [`DurableEngine::recover`].
    pub fn is_poisoned(&self) -> bool {
        self.sink.as_ref().is_some_and(|sink| sink.poisoned)
    }
}

impl Sink {
    /// Runs one write step. A poisoned store runs nothing, and a failed step
    /// poisons it: the files may hold any prefix of the step.
    fn guard<T>(
        &mut self,
        step: impl FnOnce(&mut Sink) -> Result<T, StoreError>,
    ) -> Result<T, StoreError> {
        if self.poisoned {
            return Err(StoreError::Poisoned);
        }
        let result = step(self);
        self.poisoned = result.is_err();
        result
    }

    /// Fsyncs the active segment: every append up to `epoch` is durable.
    fn seal(&mut self, epoch: u64) -> Result<(), StoreError> {
        self.fs.sync(&self.active, &self.active_path)?;
        self.stats.syncs += 1;
        self.committed_epoch = epoch;
        self.staged = 0;
        Ok(())
    }

    /// Makes a new segment whose first record will carry `first_epoch` the
    /// active one, chained onto the current digest.
    fn start_segment(&mut self, first_epoch: u64) -> Result<(), StoreError> {
        let (file, path) =
            create_segment(&mut self.fs, &self.journal_dir, first_epoch, self.chain)?;
        self.active = file;
        self.active_path = path;
        self.active_records = 0;
        Ok(())
    }

    /// Appends one encoded frame after `epoch`, rolling a full segment first.
    fn write(&mut self, frame: &[u8], chain: Digest, epoch: u64) -> Result<(), StoreError> {
        // Rolling does not disturb the chain, so the frame encoded before
        // the roll decision is the frame either segment gets.
        if self.active_records >= self.config.segment_max_records.max(1) {
            self.seal(epoch)?;
            self.start_segment(epoch + 1)?;
            self.stats.segments_rolled += 1;
        }
        self.fs.append(&mut self.active, &self.active_path, frame)?;
        self.chain = chain;
        self.active_records += 1;
        self.staged += 1;
        self.stats.appends += 1;
        self.stats.bytes_appended += frame.len() as u64;
        Ok(())
    }

    fn commit(&mut self, session: &AnalysisSession) -> Result<(), StoreError> {
        if self.staged > 0 {
            self.seal(session.epoch())?;
        }
        self.stats.commits += 1;
        if self.config.snapshot_every > 0
            && self.committed_epoch - self.anchor_epoch >= self.config.snapshot_every
        {
            self.anchor(session.checkpoint(), self.chain)?;
            self.compact()?;
        }
        Ok(())
    }

    /// Records a resync `session` just applied: an anchor at its epoch,
    /// chained by [`resync_chain`], then the segment after it.
    fn resync(&mut self, session: &AnalysisSession) -> Result<(), StoreError> {
        let snapshot = session.checkpoint();
        let chain = resync_chain(&self.chain, &snapshot.to_bytes());
        self.anchor(snapshot, chain)?;
        self.chain = chain;
        self.committed_epoch = session.epoch();
        self.start_segment(session.epoch() + 1)?;
        self.compact()
    }

    fn anchor(&mut self, snapshot: scout_core::Snapshot, chain: Digest) -> Result<(), StoreError> {
        let anchor = Anchor::new(snapshot, chain).expect("checkpoints have no tail");
        write_anchor(&mut self.fs, &self.snap_dir, &anchor)?;
        self.anchor_epoch = anchor.epoch;
        self.stats.anchors_written += 1;
        Ok(())
    }

    /// Deletes journal segments whose every record the newest anchor covers
    /// (never the active segment) and anchor files the newest supersedes.
    fn compact(&mut self) -> Result<(), StoreError> {
        let mut seg_names: Vec<(u64, PathBuf)> = Vec::new();
        for (name, path) in sorted_entries(&self.journal_dir)? {
            if let Some(first) = parse_fixed(&name, "seg-", ".scjl") {
                seg_names.push((first, path));
            }
        }
        seg_names.sort();
        let mut removed_segments = false;
        for pair in seg_names.windows(2) {
            // The segment before `pair[1]` ends at `pair[1].first - 1`; it
            // is disposable once the anchor covers that epoch. The active
            // (last) segment never appears as `pair[0]`.
            let (_, path) = &pair[0];
            let next_first = pair[1].0;
            if next_first <= self.anchor_epoch + 1 && *path != self.active_path {
                self.fs.remove(path)?;
                self.stats.segments_removed += 1;
                removed_segments = true;
            }
        }
        if removed_segments {
            self.fs.sync_dir(&self.journal_dir)?;
        }

        let mut removed_anchors = false;
        for (name, path) in sorted_entries(&self.snap_dir)? {
            if let Some(epoch) = parse_fixed(&name, "anchor-", ".scsa") {
                if epoch < self.anchor_epoch {
                    self.fs.remove(&path)?;
                    self.stats.anchors_removed += 1;
                    removed_anchors = true;
                }
            }
        }
        if removed_anchors {
            self.fs.sync_dir(&self.snap_dir)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::test_dir::TestDir;
    use scout_fabric::FabricProbe;
    use scout_policy::sample;

    fn fabric() -> Fabric {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
    }

    fn config() -> StoreConfig {
        StoreConfig {
            snapshot_every: 4,
            segment_max_records: 3,
            ..StoreConfig::default()
        }
    }

    /// Drives `n` empty epochs through a durable session.
    fn drive(ds: &mut DurableSession, n: u64) {
        for _ in 0..n {
            ds.ingest(EventBatch::empty(ds.next_epoch())).unwrap();
        }
    }

    #[test]
    fn open_ingest_drop_recover_is_bit_identical() {
        let dir = TestDir::new("store-roundtrip");
        let mut fabric = fabric();
        let engine = ScoutEngine::new();
        let mut ds = engine.open_durable(&fabric, dir.path(), config()).unwrap();
        let mut probe = FabricProbe::new(&fabric);
        for _ in 0..10 {
            fabric.evict_tcam(sample::S2, 1, false);
            let batch = EventBatch::new(ds.next_epoch(), probe.observe(&fabric));
            ds.ingest(batch).unwrap();
        }
        let report = ds.full_report().clone();
        let epoch = ds.epoch();
        drop(ds);

        let recovered = engine.recover(dir.path(), StoreConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), epoch);
        assert_eq!(recovered.full_report(), &report);
        assert_eq!(recovered.committed_epoch(), epoch);
    }

    #[test]
    fn open_refuses_existing_store() {
        let dir = TestDir::new("store-exists");
        let fabric = fabric();
        let engine = ScoutEngine::new();
        let ds = engine.open_durable(&fabric, dir.path(), config()).unwrap();
        drop(ds);
        assert!(matches!(
            engine.open_durable(&fabric, dir.path(), config()),
            Err(StoreError::AlreadyExists { .. })
        ));
    }

    #[test]
    fn recover_of_non_store_is_typed() {
        let dir = TestDir::new("store-nonstore");
        let engine = ScoutEngine::new();
        assert!(matches!(
            engine.recover(dir.path(), StoreConfig::default()),
            Err(StoreError::NotAStore { .. })
        ));
    }

    #[test]
    fn compaction_keeps_only_needed_segments_and_newest_anchor() {
        let dir = TestDir::new("store-compact");
        let fabric = fabric();
        let engine = ScoutEngine::new();
        let mut ds = engine.open_durable(&fabric, dir.path(), config()).unwrap();
        drive(&mut ds, 20);
        let stats = *ds.store_stats();
        assert!(stats.anchors_written >= 4, "anchors: {stats:?}");
        assert!(stats.segments_removed > 0, "compaction ran: {stats:?}");
        let report = ds.full_report().clone();
        drop(ds);

        let summary = verify_dir(dir.path()).unwrap();
        assert_eq!(summary.last_epoch, 20);
        assert_eq!(summary.anchors, 1, "only the newest anchor survives");
        // Every surviving segment is needed: the first one must straddle or
        // immediately follow the anchor.
        assert!(summary.anchor_epoch <= summary.last_epoch);

        let recovered = engine.recover(dir.path(), StoreConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 20);
        assert_eq!(recovered.full_report(), &report);
    }

    #[test]
    fn torn_tail_is_truncated_and_session_continues() {
        let dir = TestDir::new("store-torn");
        let fabric = fabric();
        let engine = ScoutEngine::new();
        let mut ds = engine
            .open_durable(&fabric, dir.path(), StoreConfig::default())
            .unwrap();
        drive(&mut ds, 5);
        let report_at_5 = ds.full_report().clone();
        let seg_path = ds.sink.as_ref().unwrap().active_path.clone();
        drop(ds);

        // Tear the last append: chop 3 bytes off the final record.
        let bytes = fs::read(&seg_path).unwrap();
        let file = OpenOptions::new().write(true).open(&seg_path).unwrap();
        file.set_len(bytes.len() as u64 - 3).unwrap();
        drop(file);

        let mut recovered = engine.recover(dir.path(), StoreConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 4, "the torn epoch-5 record is lost");
        assert!(recovered.store_stats().torn_bytes_truncated > 0);
        // The session keeps going: re-ingest epoch 5.
        recovered.ingest(EventBatch::empty(5)).unwrap();
        assert_eq!(recovered.full_report(), &report_at_5);
        drop(recovered);
        verify_dir(dir.path()).unwrap();
    }

    #[test]
    fn forged_zero_epoch_segment_is_a_typed_error_not_a_panic() {
        use crate::digest::sha256;
        use crate::journal::JournalError;

        let dir = TestDir::new("store-zero-epoch");
        let fabric = fabric();
        let engine = ScoutEngine::new();
        let mut ds = engine.open_durable(&fabric, dir.path(), config()).unwrap();
        drive(&mut ds, 5);
        drop(ds);

        // A header-only segment claiming first_epoch = 0 with a valid CRC —
        // the crafted input that used to underflow `end_epoch` during scan.
        let forged = SegmentHeader {
            first_epoch: 0,
            prev_chain: sha256(b"forged"),
        }
        .to_bytes();
        let journal_dir = dir.path().join(JOURNAL_SUBDIR);
        fs::write(journal_dir.join(segment_name(0)), forged).unwrap();

        let expect_typed = |verdict: Result<(), StoreError>| match verdict {
            Err(StoreError::Journal {
                source: JournalError::FirstEpochZero,
                ..
            }) => {}
            other => panic!("forged segment must be a typed error, got {other:?}"),
        };
        expect_typed(verify_dir(dir.path()).map(|_| ()));
        expect_typed(
            engine
                .recover(dir.path(), StoreConfig::default())
                .map(|_| ()),
        );

        // Same when the forged segment is the *last* one (the lenient
        // prefix decoder recovery uses on the active segment).
        for entry in fs::read_dir(&journal_dir).unwrap() {
            let path = entry.unwrap().path();
            if path.file_name().unwrap().to_string_lossy() != segment_name(0) {
                fs::remove_file(path).unwrap();
            }
        }
        expect_typed(verify_dir(dir.path()).map(|_| ()));
    }

    #[test]
    fn stale_anchors_outside_coverage_are_reported_and_removed() {
        let dir = TestDir::new("store-stale-anchors");
        let fabric = fabric();
        let engine = ScoutEngine::new();
        // snapshot_every: 4, segment_max_records: 3
        let mut ds = engine.open_durable(&fabric, dir.path(), config()).unwrap();
        // Every file the run writes, as last seen before compaction
        // removes it: anchors never change, and a segment is sealed by the
        // roll that precedes its removal.
        let mut copies: BTreeMap<PathBuf, Vec<u8>> = BTreeMap::new();
        for _ in 0..20 {
            drive(&mut ds, 1);
            for sub in [JOURNAL_SUBDIR, SNAP_SUBDIR] {
                for (_, path) in sorted_entries(&dir.path().join(sub)).unwrap() {
                    copies.insert(path.clone(), fs::read(&path).unwrap());
                }
            }
        }
        let report = ds.full_report().clone();
        drop(ds);

        // Simulate a compaction interrupted between deleting covered
        // segments and deleting the anchors they covered: put back every
        // anchor and the segments from epoch 10 on. Anchors 0, 4 and 8 are
        // stranded outside journal coverage.
        for (path, bytes) in &copies {
            let name = path.file_name().unwrap().to_string_lossy();
            if parse_fixed(&name, "seg-", ".scjl").is_none_or(|first| first >= 10) {
                fs::write(path, bytes).unwrap();
            }
        }

        let summary = verify_dir(dir.path()).unwrap();
        assert_eq!(summary.last_epoch, 20);
        assert_eq!(summary.stale_anchors, 3, "anchors 0, 4, 8 are stranded");
        assert_eq!(summary.anchors, 3, "anchors 12, 16, 20 stay chain-checked");

        let recovered = engine.recover(dir.path(), StoreConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), 20);
        assert_eq!(recovered.full_report(), &report);
        drop(recovered);

        // Recovery finished the interrupted compaction's job.
        let summary = verify_dir(dir.path()).unwrap();
        assert_eq!(summary.stale_anchors, 0);
        assert_eq!(summary.anchors, 3);
        assert_eq!(summary.last_epoch, 20);
    }

    #[test]
    fn oversized_batch_is_refused_before_any_write_and_does_not_poison() {
        use crate::journal::{JournalError, MAX_RECORD_PAYLOAD};
        use scout_fabric::{wire, FabricEvent};

        let dir = TestDir::new("store-oversized");
        let fabric = fabric();
        let engine = ScoutEngine::new();
        let mut ds = engine.open_durable(&fabric, dir.path(), config()).unwrap();
        drive(&mut ds, 2);

        // A real rule from the deployed fabric, repeated until the batch's
        // wire encoding lands just past the record cap.
        let rules = fabric.tcam_rules(sample::S2);
        let rule = *rules.first().expect("deployed switch has rules");
        let epoch = ds.next_epoch();
        let sized = |n: usize| {
            wire::to_bytes(&EventBatch::new(
                epoch,
                vec![FabricEvent::TcamSync {
                    switch: sample::S2,
                    rules: vec![rule; n],
                }],
            ))
            .len()
        };
        let base = sized(0);
        let per_rule = sized(1) - base;
        let count = (MAX_RECORD_PAYLOAD as usize - base) / per_rule + 2;
        let huge = EventBatch::new(
            epoch,
            vec![FabricEvent::TcamSync {
                switch: sample::S2,
                rules: vec![rule; count],
            }],
        );

        let stats_before = *ds.store_stats();
        match ds.append(huge) {
            Err(StoreError::Journal {
                source: JournalError::OversizedPayload { len },
                ..
            }) => assert!(len > MAX_RECORD_PAYLOAD),
            other => panic!("oversized batch must be refused, got {other:?}"),
        }
        assert!(!ds.is_poisoned(), "a refused batch must not poison");
        assert_eq!(ds.store_stats().appends, stats_before.appends);
        assert_eq!(
            ds.store_stats().bytes_appended,
            stats_before.bytes_appended,
            "no bytes may reach the journal"
        );

        // The session carries on at the same epoch, and the store it leaves
        // behind recovers cleanly.
        drive(&mut ds, 1);
        let report = ds.full_report().clone();
        let end = ds.epoch();
        drop(ds);
        let recovered = engine.recover(dir.path(), StoreConfig::default()).unwrap();
        assert_eq!(recovered.epoch(), end);
        assert_eq!(recovered.full_report(), &report);
    }

    #[test]
    fn injected_crash_poisons_and_recovery_lands_on_a_committed_epoch() {
        let dir = TestDir::new("store-crash");
        let fabric = fabric();
        let engine = ScoutEngine::new();
        let mut cfg = config();
        cfg.crash_plan = Some(CrashPlan {
            abort_after_ops: 25,
            partial_seed: 7,
        });
        let mut ds = engine.open_durable(&fabric, dir.path(), cfg).unwrap();
        let mut crashed_at = None;
        for epoch in 1..=50u64 {
            match ds.ingest(EventBatch::empty(epoch)) {
                Ok(_) => {}
                Err(StoreError::InjectedCrash) => {
                    crashed_at = Some(epoch);
                    break;
                }
                Err(other) => panic!("unexpected error: {other}"),
            }
        }
        let crashed_at = crashed_at.expect("the plan fires within 50 epochs");
        assert!(ds.is_poisoned());
        assert!(matches!(
            ds.ingest(EventBatch::empty(crashed_at + 1)),
            Err(StoreError::Poisoned)
        ));
        drop(ds);

        let recovered = engine.recover(dir.path(), StoreConfig::default()).unwrap();
        assert!(recovered.epoch() <= crashed_at);
        // Whatever epoch survived, the state must be the uninterrupted one.
        let mut reference = engine.open_session(&fabric);
        for epoch in 1..=recovered.epoch() {
            reference.ingest(EventBatch::empty(epoch)).unwrap();
        }
        assert_eq!(recovered.full_report(), reference.full_report());
    }

    #[test]
    fn errors_render() {
        let errs = [
            StoreError::NotAStore {
                path: PathBuf::from("/x"),
            },
            StoreError::MissingAnchor,
            StoreError::SegmentOrder {
                prev_end: 3,
                next_first: 9,
            },
            StoreError::ChainDiscontinuity { at_epoch: 3 },
            StoreError::AnchorChainMismatch { epoch: 3 },
            StoreError::MissingEpochs {
                journal_first: 9,
                anchor_epoch: 3,
            },
            StoreError::AnchorBeyondJournal {
                anchor_epoch: 9,
                journal_end: 3,
            },
            StoreError::InjectedCrash,
            StoreError::Poisoned,
        ];
        for err in errs {
            assert!(!err.to_string().is_empty());
        }
    }
}
