//! The flat, sorted multimap every universe dependency index is stored as.

/// A multimap from `K` to sorted, distinct `V`s held in three flat vectors.
///
/// `keys` ascend and are distinct; the values of `keys[i]` are
/// `values[starts[i]..starts[i + 1]]`, sorted ascending and never empty.
/// Built once, by one sort-and-group ([`from_entries`](Self::from_entries))
/// or by appending runs in key order ([`push`](Self::push)), and read through
/// binary search — three allocations per index instead of one tree node per
/// key and per value. The layout is canonical for its contents, so derived
/// equality is equality of the mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct FlatIndex<K, V> {
    keys: Vec<K>,
    /// One longer than `keys`: `starts[i]` opens run `i`, `starts[len]` is
    /// `values.len()`.
    starts: Vec<usize>,
    values: Vec<V>,
}

impl<K, V> Default for FlatIndex<K, V> {
    fn default() -> Self {
        Self {
            keys: Vec::new(),
            starts: vec![0],
            values: Vec::new(),
        }
    }
}

impl<K: Ord + Copy, V: Ord + Copy> FlatIndex<K, V> {
    /// Groups `(key, value)` entries in any order, dropping duplicates.
    pub(crate) fn from_entries(mut entries: Vec<(K, V)>) -> Self {
        entries.sort_unstable();
        entries.dedup();
        let mut index = Self::default();
        index.values.reserve_exact(entries.len());
        for run in entries.chunk_by(|x, y| x.0 == y.0) {
            index.keys.push(run[0].0);
            index.values.extend(run.iter().map(|&(_, value)| value));
            index.starts.push(index.values.len());
        }
        index.shrink();
        index
    }

    /// Appends the run of `key`, which must be greater than every key so far;
    /// `values` must ascend strictly. An empty run adds nothing.
    pub(crate) fn push(&mut self, key: K, values: impl IntoIterator<Item = V>) {
        debug_assert!(self.keys.last().is_none_or(|last| *last < key));
        let start = self.values.len();
        self.values.extend(values);
        debug_assert!(self.values[start..].is_sorted_by(|a, b| a < b));
        if self.values.len() > start {
            self.keys.push(key);
            self.starts.push(self.values.len());
        }
    }

    /// Drops the spare capacity left by building.
    pub(crate) fn shrink(&mut self) {
        self.keys.shrink_to_fit();
        self.starts.shrink_to_fit();
        self.values.shrink_to_fit();
    }

    /// The values of `key`, or `None` if it has none.
    pub(crate) fn get(&self, key: &K) -> Option<&[V]> {
        self.position(key).map(|i| self.run(i))
    }

    /// The position of `key` among the keys, if it has values.
    pub(crate) fn position(&self, key: &K) -> Option<usize> {
        self.keys.binary_search(key).ok()
    }

    /// The values of `key`; empty if it has none.
    pub(crate) fn slice(&self, key: &K) -> &[V] {
        self.get(key).unwrap_or(&[])
    }

    /// The keys, ascending.
    pub(crate) fn keys(&self) -> &[K] {
        &self.keys
    }

    /// The values of the `i`-th key.
    pub(crate) fn run(&self, i: usize) -> &[V] {
        &self.values[self.starts[i]..self.starts[i + 1]]
    }

    /// The same index with every value mapped through `f`, which must
    /// preserve the order of each run.
    pub(crate) fn map_values<W: Ord + Copy>(&self, f: impl Fn(V) -> W) -> FlatIndex<K, W> {
        let index = FlatIndex {
            keys: self.keys.clone(),
            starts: self.starts.clone(),
            values: self.values.iter().map(|&v| f(v)).collect(),
        };
        debug_assert!((0..index.keys.len()).all(|i| index.run(i).is_sorted_by(|a, b| a < b)));
        index
    }

    /// Every key with its values, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &[V])> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, self.run(i)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_entries_groups_sorts_and_dedups() {
        let index = FlatIndex::from_entries(vec![(3, 'b'), (1, 'z'), (3, 'a'), (3, 'b'), (1, 'y')]);
        let runs: Vec<(u32, &[char])> = index.iter().collect();
        assert_eq!(runs, vec![(1, &['y', 'z'][..]), (3, &['a', 'b'][..])]);
        assert_eq!(index.get(&3), Some(&['a', 'b'][..]));
        assert_eq!(index.get(&2), None);
        assert!(index.slice(&2).is_empty());
        assert_eq!(index.keys(), &[1, 3]);
    }

    #[test]
    fn push_and_from_entries_build_the_same_index() {
        let mut pushed = FlatIndex::default();
        pushed.push(1, ['y', 'z']);
        pushed.push(2, []);
        pushed.push(3, ['a', 'b']);
        pushed.shrink();
        let grouped = FlatIndex::from_entries(vec![(1, 'y'), (1, 'z'), (3, 'a'), (3, 'b')]);
        assert_eq!(pushed, grouped);
        assert_eq!(
            FlatIndex::<u8, u8>::from_entries(Vec::new()),
            FlatIndex::default()
        );
    }
}
