//! Structure-aware fuzzing for the repo's untrusted decode surfaces.
//!
//! Checkpoint bytes and replay tails cross host and tenant boundaries, which
//! makes `scout_fabric::wire` and `scout_core::Snapshot::from_bytes` the
//! system's untrusted input boundary. This crate is the harness that holds
//! that boundary to its contract (see `ARCHITECTURE.md`, "Untrusted input
//! boundary"):
//!
//! * [`seeds`] produces valid encodings of every surface from deterministic
//!   workloads — the starting points for structure-aware mutation;
//! * [`gen`] mutates those seeds (bit flips, length-prefix saturation,
//!   truncation, splices, trailing garbage) and brews raw byte soup, with
//!   snapshot checksums restamped so mutants reach the layers under test;
//! * [`oracle`] runs each input through its surface's decoder and demands no
//!   panics, allocation linear in the input, byte-exact canonical
//!   re-encoding of accepted inputs, and typed errors for everything else;
//! * [`harness`] wires the three together into seeded, reproducible runs;
//! * [`corpus`] freezes findings as `tests/corpus/*.bin` files and replays
//!   them deterministically.
//!
//! The `fuzz` binary (`cargo run --release -p scout-fuzz --bin fuzz`) is the
//! CLI over [`harness::run`] used by CI's `fuzz` smoke row.
//!
//! Linking this crate installs [`alloc::TrackingAlloc`] as the global
//! allocator so the allocation oracle is always armed.
//!
//! # Example
//!
//! ```
//! use scout_fuzz::harness;
//! use scout_fuzz::oracle::Surface;
//!
//! let report = harness::run_surface(Surface::EventBatch, 200, 42);
//! assert_eq!(report.iterations, 200);
//! assert!(report.findings.is_empty(), "oracle violations: {:?}", report.findings);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod alloc;
pub mod corpus;
pub mod gen;
pub mod harness;
pub mod oracle;
pub mod seeds;

/// The tracking allocator, installed for every binary that links this crate.
#[global_allocator]
static GLOBAL: alloc::TrackingAlloc = alloc::TrackingAlloc;
