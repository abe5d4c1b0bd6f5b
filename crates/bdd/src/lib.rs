//! # scout-bdd
//!
//! Two inert types the stand-alone `benchmark/` package still names through
//! `scout::equiv`. The equivalence checker has no BDD engine, node table or
//! cache, so nothing produces anything but their defaults; the next
//! benchmark-only change deletes this crate.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The node table of a BDD manager: there is only the one variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeTableKind {
    /// The only kind.
    #[default]
    Arena,
}

/// Hit, miss and eviction counters of a BDD manager's operation caches;
/// always zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a cache.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Entries overwritten by a colliding store.
    pub evictions: u64,
}
