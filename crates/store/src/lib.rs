//! # scout-store
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the repo
//! root is the crate-by-crate tour showing where this crate sits in the
//! pipeline.
//!
//! Durable, hash-chained persistence for [`AnalysisSession`]s: an
//! append-only `EventBatch` journal ([`journal`]) anchored by periodic
//! snapshot files ([`anchor`]), with fsync'd group commit, compaction and
//! tamper-evident crash recovery ([`store`]).
//!
//! The paper's continuous-verification loop only matters in production if
//! the analysis state survives the analyzer. `scout-core`'s
//! checkpoint/restore snapshots are in-memory artifacts; this crate makes
//! them — and every epoch between them — crash-durable:
//!
//! * every accepted batch is **journaled before it is applied** (write-ahead),
//!   framed over the canonical wire codec with a per-record CRC and a
//!   SHA-256 chain digest ([`digest`]); a resync is an anchor in the chain;
//! * [`DurableSession::commit`] is the group-commit boundary (one fsync for
//!   any number of staged appends);
//! * snapshot anchors are written atomically (tmp → fsync → rename) and
//!   carry the running chain digest at their epoch, so the journal and the
//!   snapshots cross-authenticate;
//! * recovery ([`DurableEngine::recover`]) verifies **every byte of every
//!   store file** — any flipped byte or spliced record is a typed
//!   [`StoreError`], never a panic, never a silent acceptance — truncates
//!   crash-torn tails, restores the newest anchor through the ordinary
//!   engine path and replays the tail through ordinary `ingest`, landing
//!   bit-identical to the uninterrupted session.
//!
//! # Example
//!
//! ```
//! use scout_core::ScoutEngine;
//! use scout_fabric::{EventBatch, Fabric};
//! use scout_policy::sample;
//! use scout_store::{DurableEngine, StoreConfig};
//! use scout_store::test_dir::TestDir;
//!
//! let dir = TestDir::new("lib-doc");
//! let mut fabric = Fabric::new(sample::three_tier());
//! fabric.deploy();
//!
//! let engine = ScoutEngine::new();
//! let mut durable = engine
//!     .open_durable(&fabric, dir.path(), StoreConfig::default())
//!     .unwrap();
//! for epoch in 1..=5 {
//!     durable.ingest(EventBatch::empty(epoch)).unwrap();
//! }
//! let report = durable.full_report().clone();
//! drop(durable); // simulate the process dying
//!
//! let recovered = engine.recover(dir.path(), StoreConfig::default()).unwrap();
//! assert_eq!(recovered.epoch(), 5);
//! assert_eq!(recovered.full_report(), &report);
//! ```
//!
//! [`AnalysisSession`]: scout_core::AnalysisSession
//! [`DurableSession::commit`]: store::DurableSession::commit
//! [`DurableEngine::recover`]: store::DurableEngine::recover
//! [`StoreError`]: store::StoreError

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod anchor;
pub mod digest;
pub mod journal;
pub mod store;
pub mod test_dir;

pub use anchor::{genesis_chain, resync_chain, Anchor, AnchorError};
pub use digest::{chain_next, sha256, Digest};
pub use journal::{
    decode_segment, decode_segment_prefix, JournalError, Segment, SegmentBuilder, SegmentHeader,
    SegmentPrefix,
};
pub use store::{
    verify_dir, CrashPlan, DurableEngine, DurableSession, StoreConfig, StoreError, StoreStats,
    StoreSummary,
};
