//! Cache-conscious storage for the BDD manager: the arena-backed
//! hash-consing table and the bounded direct-mapped operation caches.
//!
//! A `std::collections::HashMap` would pay SipHash plus a heap box per
//! entry on every `mk`/`apply` — the single hottest path of the equivalence
//! checker. The `UniqueTable` here uses open addressing over a
//! flat `Vec<u32>` of node indices (offset by one so `0` means "empty"),
//! an FxHash-style multiplicative hasher and power-of-two capacities, so a
//! probe is a multiply, a mask and a handful of contiguous reads. Node
//! *content* stays in the manager's arena (`Vec<Node>`); the table only holds
//! indices, which keeps rehashing cheap and handles stable.
//!
//! The operation caches (`OpCache`, `NotCache`, `ImpliesCache`) are
//! lossy direct-mapped arrays in the BuDDy tradition: a colliding store simply
//! overwrites (an *eviction*), which bounds their memory by construction.
//! Losing an entry never changes results — the apply recursion recomputes the
//! value and every intermediate node it re-derives is already interned in the
//! unique table, so handles come out bit-identical regardless of cache
//! behavior. Each cache doubles (up to a configurable limit) when evictions
//! indicate thrashing.

/// The storage a manager uses for hash-consing and memoization: there is
/// only the arena.
///
/// Kept only because the stand-alone `benchmark/` package still names it;
/// the next benchmark-only change deletes it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NodeTableKind {
    /// Arena-backed open addressing + direct-mapped caches.
    #[default]
    Arena,
}

/// Hit/miss/eviction counters of a manager's operation caches.
///
/// Hits and misses count lookups; evictions count entries lost to collisions
/// in the direct-mapped caches. Counters are cumulative for the life of the
/// manager and are not reset by
/// [`clear`](crate::BddManager::clear_op_caches)s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Lookups answered from a cache.
    pub hits: u64,
    /// Lookups that fell through to recomputation.
    pub misses: u64,
    /// Entries overwritten by a colliding store.
    pub evictions: u64,
}

/// Outcome of a [`UniqueTable::probe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Probe {
    /// The key is interned at this arena index.
    Found(u32),
    /// The key is absent; it belongs in this slot position.
    Vacant(usize),
}

const FX_SEED: u64 = 0x9E37_79B9_7F4A_7C15;

/// FxHash-style multiplicative avalanche over two packed words.
#[inline]
fn hash2(a: u64, b: u64) -> u64 {
    let mut h = a.wrapping_mul(FX_SEED);
    h ^= h >> 32;
    h = (h ^ b).wrapping_mul(FX_SEED);
    h ^ (h >> 29)
}

/// Open-addressing hash-consing table over the manager's node arena.
///
/// Slots store `node index + 1` (`0` = empty). Probing is linear; capacity is
/// always a power of two and doubles at 75% load. Because slots hold indices
/// and keys live in the arena, a rehash never moves node content and existing
/// handles stay valid verbatim.
#[derive(Debug, Clone)]
pub(crate) struct UniqueTable {
    slots: Vec<u32>,
    len: usize,
}

const INITIAL_UNIQUE_CAPACITY: usize = 1 << 10;

impl UniqueTable {
    pub(crate) fn new() -> Self {
        Self {
            slots: vec![0; INITIAL_UNIQUE_CAPACITY],
            len: 0,
        }
    }

    #[inline]
    fn hash(var: u32, low: u32, high: u32) -> u64 {
        hash2((u64::from(var) << 32) | u64::from(low), u64::from(high))
    }

    /// Looks up `(var, low, high)` among the interned nodes. `read` maps an
    /// arena index to a node's `(var, low, high)` key. Returns the arena index
    /// on a hit, or the vacant slot position where the key belongs.
    #[inline]
    pub(crate) fn probe<R: Fn(u32) -> (u32, u32, u32)>(
        &self,
        var: u32,
        low: u32,
        high: u32,
        read: R,
    ) -> Probe {
        let mask = self.slots.len() - 1;
        let mut i = (Self::hash(var, low, high) as usize) & mask;
        loop {
            let slot = self.slots[i];
            if slot == 0 {
                return Probe::Vacant(i);
            }
            if read(slot - 1) == (var, low, high) {
                return Probe::Found(slot - 1);
            }
            i = (i + 1) & mask;
        }
    }

    /// Fills the vacant `slot` (as returned by [`probe`](Self::probe)) with a
    /// freshly allocated arena `index`. The node must already be readable
    /// through `read` — growth rehashes every interned index, including this
    /// one.
    #[inline]
    pub(crate) fn insert<R: Fn(u32) -> (u32, u32, u32)>(
        &mut self,
        slot: usize,
        index: u32,
        read: R,
    ) {
        self.slots[slot] = index + 1;
        self.len += 1;
        if self.len * 4 >= self.slots.len() * 3 {
            self.grow(read);
        }
    }

    /// Doubles the slot array and reinserts every interned index. Reads node
    /// keys back from the arena, so handles (arena indices) are untouched.
    fn grow<R: Fn(u32) -> (u32, u32, u32)>(&mut self, read: R) {
        let new_cap = self.slots.len() * 2;
        let old = std::mem::replace(&mut self.slots, vec![0; new_cap]);
        let mask = new_cap - 1;
        for slot in old {
            if slot == 0 {
                continue;
            }
            let (var, low, high) = read(slot - 1);
            let mut i = (Self::hash(var, low, high) as usize) & mask;
            while self.slots[i] != 0 {
                i = (i + 1) & mask;
            }
            self.slots[i] = slot;
        }
    }

    /// Number of interned (non-terminal) nodes.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Current slot-array capacity (always a power of two).
    pub(crate) fn capacity(&self) -> usize {
        self.slots.len()
    }
}

/// Shared bookkeeping of a lossy direct-mapped cache: entry array length is a
/// power of two; on eviction-thrash the cache doubles (dropping its contents,
/// which is safe — the caches are pure memoization) until `limit` entries.
#[derive(Debug, Clone)]
struct DirectBase {
    capacity: usize,
    limit: usize,
    occupied: usize,
    evictions_since_resize: u64,
}

pub(crate) const INITIAL_CACHE_CAPACITY: usize = 1 << 12;
/// Default per-cache entry limit (~4 MiB of op-cache entries).
pub(crate) const DEFAULT_CACHE_LIMIT: usize = 1 << 18;

impl DirectBase {
    fn new(limit: usize) -> Self {
        Self {
            capacity: INITIAL_CACHE_CAPACITY.min(limit.next_power_of_two()),
            limit: limit.next_power_of_two(),
            occupied: 0,
            evictions_since_resize: 0,
        }
    }

    /// Records one eviction; returns `true` if the cache should double —
    /// evictions since the last resize exceed the capacity, i.e. the cache is
    /// recycling faster than it retains.
    fn note_eviction(&mut self) -> bool {
        self.evictions_since_resize += 1;
        self.capacity < self.limit && self.evictions_since_resize as usize > self.capacity
    }

    fn resized(&mut self, new_capacity: usize) {
        self.capacity = new_capacity;
        self.occupied = 0;
        self.evictions_since_resize = 0;
    }
}

/// Direct-mapped memoization of `apply(op, a, b)`. `tag` is the operation
/// index plus one; `0` marks an empty entry.
#[derive(Debug, Clone, Copy, Default)]
struct OpEntry {
    a: u32,
    b: u32,
    result: u32,
    tag: u8,
}

#[derive(Debug, Clone)]
pub(crate) struct OpCache {
    entries: Vec<OpEntry>,
    base: DirectBase,
}

impl OpCache {
    pub(crate) fn new(limit: usize) -> Self {
        let base = DirectBase::new(limit);
        Self {
            entries: vec![OpEntry::default(); base.capacity],
            base,
        }
    }

    #[inline]
    fn index(&self, tag: u8, a: u32, b: u32) -> usize {
        let key = (u64::from(tag) << 32) | u64::from(a);
        (hash2(key, u64::from(b)) as usize) & (self.entries.len() - 1)
    }

    #[inline]
    pub(crate) fn get(&self, tag: u8, a: u32, b: u32) -> Option<u32> {
        let e = &self.entries[self.index(tag, a, b)];
        (e.tag == tag && e.a == a && e.b == b).then_some(e.result)
    }

    #[inline]
    pub(crate) fn put(&mut self, tag: u8, a: u32, b: u32, result: u32, evictions: &mut u64) {
        let i = self.index(tag, a, b);
        let e = &mut self.entries[i];
        if e.tag == 0 {
            self.base.occupied += 1;
        } else if e.tag != tag || e.a != a || e.b != b {
            *evictions += 1;
            if self.base.note_eviction() {
                let new_cap = self.entries.len() * 2;
                self.entries = vec![OpEntry::default(); new_cap];
                self.base.resized(new_cap);
                let i = self.index(tag, a, b);
                self.entries[i] = OpEntry { a, b, result, tag };
                self.base.occupied = 1;
                return;
            }
        }
        self.entries[i] = OpEntry { a, b, result, tag };
    }

    pub(crate) fn len(&self) -> usize {
        self.base.occupied
    }

    pub(crate) fn clear(&mut self) {
        self.entries.fill(OpEntry::default());
        self.base.occupied = 0;
    }

    pub(crate) fn set_limit(&mut self, limit: usize) {
        self.base.limit = limit.next_power_of_two();
        if self.entries.len() > self.base.limit {
            self.entries = vec![OpEntry::default(); self.base.limit];
            self.base.resized(self.base.limit);
        }
    }
}

/// Direct-mapped memoization of `not(a)`. Cached operands are always
/// non-terminal (`a >= 2`), so `a == 0` marks an empty entry.
#[derive(Debug, Clone, Copy, Default)]
struct NotEntry {
    a: u32,
    result: u32,
}

#[derive(Debug, Clone)]
pub(crate) struct NotCache {
    entries: Vec<NotEntry>,
    base: DirectBase,
}

impl NotCache {
    pub(crate) fn new(limit: usize) -> Self {
        let base = DirectBase::new(limit);
        Self {
            entries: vec![NotEntry::default(); base.capacity],
            base,
        }
    }

    #[inline]
    fn index(&self, a: u32) -> usize {
        (hash2(u64::from(a), 0) as usize) & (self.entries.len() - 1)
    }

    #[inline]
    pub(crate) fn get(&self, a: u32) -> Option<u32> {
        let e = &self.entries[self.index(a)];
        (e.a == a).then_some(e.result)
    }

    #[inline]
    pub(crate) fn put(&mut self, a: u32, result: u32, evictions: &mut u64) {
        let i = self.index(a);
        let e = &mut self.entries[i];
        if e.a == 0 {
            self.base.occupied += 1;
        } else if e.a != a {
            *evictions += 1;
            if self.base.note_eviction() {
                let new_cap = self.entries.len() * 2;
                self.entries = vec![NotEntry::default(); new_cap];
                self.base.resized(new_cap);
                let i = self.index(a);
                self.entries[i] = NotEntry { a, result };
                self.base.occupied = 1;
                return;
            }
        }
        self.entries[i] = NotEntry { a, result };
    }

    pub(crate) fn len(&self) -> usize {
        self.base.occupied
    }

    pub(crate) fn clear(&mut self) {
        self.entries.fill(NotEntry::default());
        self.base.occupied = 0;
    }

    pub(crate) fn set_limit(&mut self, limit: usize) {
        self.base.limit = limit.next_power_of_two();
        if self.entries.len() > self.base.limit {
            self.entries = vec![NotEntry::default(); self.base.limit];
            self.base.resized(self.base.limit);
        }
    }
}

/// Direct-mapped memoization of `implies(a, b)` verdicts. Cached operands are
/// always non-terminal (terminal cases short-circuit), so `a == 0` marks an
/// empty entry; the verdict is packed as `1`/`2` in `result`.
#[derive(Debug, Clone, Copy, Default)]
struct ImpliesEntry {
    a: u32,
    b: u32,
    result: u8,
}

#[derive(Debug, Clone)]
pub(crate) struct ImpliesCache {
    entries: Vec<ImpliesEntry>,
    base: DirectBase,
}

impl ImpliesCache {
    pub(crate) fn new(limit: usize) -> Self {
        let base = DirectBase::new(limit);
        Self {
            entries: vec![ImpliesEntry::default(); base.capacity],
            base,
        }
    }

    #[inline]
    fn index(&self, a: u32, b: u32) -> usize {
        (hash2(u64::from(a), u64::from(b)) as usize) & (self.entries.len() - 1)
    }

    #[inline]
    pub(crate) fn get(&self, a: u32, b: u32) -> Option<bool> {
        let e = &self.entries[self.index(a, b)];
        (e.a == a && e.b == b).then_some(e.result == 2)
    }

    #[inline]
    pub(crate) fn put(&mut self, a: u32, b: u32, verdict: bool, evictions: &mut u64) {
        let result = if verdict { 2 } else { 1 };
        let i = self.index(a, b);
        let e = &mut self.entries[i];
        if e.a == 0 {
            self.base.occupied += 1;
        } else if e.a != a || e.b != b {
            *evictions += 1;
            if self.base.note_eviction() {
                let new_cap = self.entries.len() * 2;
                self.entries = vec![ImpliesEntry::default(); new_cap];
                self.base.resized(new_cap);
                let i = self.index(a, b);
                self.entries[i] = ImpliesEntry { a, b, result };
                self.base.occupied = 1;
                return;
            }
        }
        self.entries[i] = ImpliesEntry { a, b, result };
    }

    pub(crate) fn len(&self) -> usize {
        self.base.occupied
    }

    pub(crate) fn clear(&mut self) {
        self.entries.fill(ImpliesEntry::default());
        self.base.occupied = 0;
    }

    pub(crate) fn set_limit(&mut self, limit: usize) {
        self.base.limit = limit.next_power_of_two();
        if self.entries.len() > self.base.limit {
            self.entries = vec![ImpliesEntry::default(); self.base.limit];
            self.base.resized(self.base.limit);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unique_table_interns_and_grows() {
        let mut arena: Vec<(u32, u32, u32)> = Vec::new();
        let mut table = UniqueTable::new();
        let initial_capacity = table.capacity();
        // Insert enough distinct keys to force several growths.
        for v in 0..4096u32 {
            let key = (v, v.wrapping_mul(7), v.wrapping_mul(13) | 1);
            match table.probe(key.0, key.1, key.2, |i| arena[i as usize]) {
                Probe::Found(_) => panic!("fresh key reported as interned"),
                Probe::Vacant(slot) => {
                    let index = arena.len() as u32;
                    arena.push(key);
                    table.insert(slot, index, |i| arena[i as usize]);
                }
            }
        }
        assert_eq!(table.len(), 4096);
        assert!(table.capacity() > initial_capacity, "table must have grown");
        // Every key probes back to its original index (no duplicates, indices
        // preserved across rehashes).
        for v in 0..4096u32 {
            let key = (v, v.wrapping_mul(7), v.wrapping_mul(13) | 1);
            match table.probe(key.0, key.1, key.2, |i| arena[i as usize]) {
                Probe::Found(index) => assert_eq!(arena[index as usize], key),
                Probe::Vacant(_) => panic!("interned key lost after growth"),
            }
        }
        assert_eq!(table.len(), 4096);
    }

    #[test]
    fn op_cache_is_lossy_and_bounded() {
        let mut cache = OpCache::new(INITIAL_CACHE_CAPACITY);
        let mut evictions = 0u64;
        for k in 0..(INITIAL_CACHE_CAPACITY as u32 * 4) {
            cache.put(1, k + 2, k + 3, k, &mut evictions);
        }
        assert!(cache.len() <= INITIAL_CACHE_CAPACITY);
        assert!(evictions > 0, "collisions must be recorded");
        cache.clear();
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn op_cache_grows_under_thrash_up_to_limit() {
        let limit = INITIAL_CACHE_CAPACITY * 4;
        let mut cache = OpCache::new(limit);
        let mut evictions = 0u64;
        for round in 0..4u32 {
            for k in 0..(limit as u32 * 2) {
                cache.put(1, k + 2, k + round + 3, k, &mut evictions);
            }
        }
        assert_eq!(cache.entries.len(), limit, "growth stops at the limit");
        // Shrinking the limit snaps the capacity back down.
        cache.set_limit(INITIAL_CACHE_CAPACITY);
        assert_eq!(cache.entries.len(), INITIAL_CACHE_CAPACITY);
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn caches_roundtrip_entries() {
        let mut evictions = 0u64;
        let mut op = OpCache::new(DEFAULT_CACHE_LIMIT);
        op.put(2, 5, 9, 77, &mut evictions);
        assert_eq!(op.get(2, 5, 9), Some(77));
        assert_eq!(op.get(1, 5, 9), None);

        let mut not = NotCache::new(DEFAULT_CACHE_LIMIT);
        not.put(5, 42, &mut evictions);
        assert_eq!(not.get(5), Some(42));
        assert_eq!(not.get(6), None);
        not.clear();
        assert_eq!(not.get(5), None);

        let mut imp = ImpliesCache::new(DEFAULT_CACHE_LIMIT);
        imp.put(5, 9, true, &mut evictions);
        imp.put(9, 5, false, &mut evictions);
        assert_eq!(imp.get(5, 9), Some(true));
        assert_eq!(imp.get(9, 5), Some(false));
        assert_eq!(imp.get(5, 10), None);
        imp.clear();
        assert_eq!(imp.len(), 0);
        assert_eq!(evictions, 0);
    }
}
