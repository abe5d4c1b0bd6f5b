//! The flat, sorted layouts a universe is stored in: [`ObjectTable`] for the
//! objects of each kind, [`FlatIndex`] for every dependency index, and
//! [`DenseIndex`], the counting-sort grouping the indexes are built through.

use crate::error::PolicyError;

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
    /// An empty index with room for `keys` runs holding `values` values in
    /// all. Sizing an index before filling it spares the multi-megabyte
    /// vectors of a large universe their regrowth, whose fresh pages a
    /// decode would otherwise fault in one by one.
    pub(crate) fn with_capacity(keys: usize, values: usize) -> Self {
        let mut starts = Vec::with_capacity(keys + 1);
        starts.push(0);
        Self {
            keys: Vec::with_capacity(keys),
            starts,
            values: Vec::with_capacity(values),
        }
    }

    /// Groups `(key, value)` entries in any order, dropping duplicates.
    pub(crate) fn from_entries(mut entries: Vec<(K, V)>) -> Self {
        entries.sort_unstable();
        entries.dedup();
        let mut index = Self::with_capacity(entries.len(), entries.len());
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

    /// Every key with its values, in key order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = (K, &[V])> + '_ {
        self.keys
            .iter()
            .enumerate()
            .map(|(i, &key)| (key, self.run(i)))
    }
}

/// The objects of one kind, sorted by id, with the ids in a vector of their
/// own: a lookup's binary search strides over 4-byte ids instead of whole
/// objects, and the position it finds is the object's dense index into
/// `items`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ObjectTable<K, T> {
    /// `ids[i]` is the id of `items[i]`; strictly ascending.
    ids: Vec<K>,
    items: Vec<T>,
}

impl<K: Ord + Copy + Into<u32>, T> ObjectTable<K, T> {
    /// Validates `items` and sorts them into a table, returning beside it
    /// what `check` resolved for each item, in table order.
    ///
    /// The error is the one a per-element insert in input order reports:
    /// that of the first item that fails `check` or repeats an earlier id
    /// (`duplicate`), the item's own check first. Input with strictly
    /// ascending ids, which every encoder and generator produces, is checked
    /// in one pass and moved in as is. Other input is stable-sorted by id
    /// first, so a repeated id sorts right after the occurrence it repeats,
    /// and the failing item with the lowest input position wins.
    pub(crate) fn validate<R>(
        items: Vec<T>,
        id: impl Fn(&T) -> K,
        mut check: impl FnMut(&T) -> Result<R, PolicyError>,
        duplicate: impl Fn(K) -> PolicyError,
    ) -> Result<(Self, Vec<R>), PolicyError> {
        if items.windows(2).all(|w| id(&w[0]) < id(&w[1])) {
            let resolved = items.iter().map(check).collect::<Result<_, _>>()?;
            let ids = items.iter().map(&id).collect();
            return Ok((Self { ids, items }, resolved));
        }
        let mut tagged: Vec<(usize, T)> = items.into_iter().enumerate().collect();
        tagged.sort_by_key(|(_, item)| id(item));
        let mut first: Option<(usize, PolicyError)> = None;
        let mut resolved = Vec::with_capacity(tagged.len());
        for (k, (i, item)) in tagged.iter().enumerate() {
            let error = match check(item) {
                Err(error) => error,
                Ok(_) if k > 0 && id(&tagged[k - 1].1) == id(item) => duplicate(id(item)),
                Ok(r) => {
                    resolved.push(r);
                    continue;
                }
            };
            if first.as_ref().is_none_or(|(j, _)| i < j) {
                first = Some((*i, error));
            }
        }
        if let Some((_, error)) = first {
            return Err(error);
        }
        let items: Vec<T> = tagged.into_iter().map(|(_, item)| item).collect();
        let ids = items.iter().map(&id).collect();
        Ok((Self { ids, items }, resolved))
    }

    /// The position of `id` in the table, if present. Ids that run without
    /// gaps, as generated ones do, sit at their offset from the first id, so
    /// that slot is probed before the binary search.
    pub(crate) fn position(&self, id: &K) -> Option<usize> {
        let offset = (*id).into().wrapping_sub((*self.ids.first()?).into());
        match self.ids.get(offset as usize) {
            Some(probe) if probe == id => Some(offset as usize),
            _ => self.ids.binary_search(id).ok(),
        }
    }

    /// The object with `id`, if present.
    pub(crate) fn get(&self, id: &K) -> Option<&T> {
        self.position(id).map(|i| &self.items[i])
    }

    /// Returns `true` if an object has `id`.
    pub(crate) fn contains(&self, id: &K) -> bool {
        self.position(id).is_some()
    }

    /// The ids, ascending.
    pub(crate) fn ids(&self) -> &[K] {
        &self.ids
    }

    /// The objects, in id order.
    pub(crate) fn items(&self) -> &[T] {
        &self.items
    }

    /// The number of objects.
    pub(crate) fn len(&self) -> usize {
        self.ids.len()
    }
}

/// A multimap from the dense keys `0..len` to `u32` values, the scratch form
/// of an index while a universe is built: keys and values are object or pair
/// positions, so grouping is one stable counting sort, O(entries + keys),
/// instead of a comparison sort of the entries.
#[derive(Debug)]
pub(crate) struct DenseIndex {
    /// One longer than the key range: key `k` owns
    /// `values[starts[k]..starts[k + 1]]`.
    starts: Vec<usize>,
    values: Vec<u32>,
}

impl DenseIndex {
    /// Groups `(key, value)` entries by key, every key below `keys`. The sort
    /// is stable: each run holds its values in entry order. `entries` is
    /// walked twice, once to count and once to place.
    pub(crate) fn group<I>(keys: usize, entries: I) -> Self
    where
        I: Iterator<Item = (u32, u32)> + Clone,
    {
        let mut starts = vec![0; keys + 1];
        for (key, _) in entries.clone() {
            starts[key as usize + 1] += 1;
        }
        for k in 1..=keys {
            starts[k] += starts[k - 1];
        }
        // `starts[k]` serves as key k's cursor and ends at `starts[k + 1]`,
        // so shifting the cursors one place right restores the run starts.
        let mut values = vec![0; starts[keys]];
        for (key, value) in entries {
            let cursor = &mut starts[key as usize];
            values[*cursor] = value;
            *cursor += 1;
        }
        starts.copy_within(0..keys, 1);
        starts[0] = 0;
        Self { starts, values }
    }

    /// An index over `starts.len() - 1` keys whose runs are given.
    pub(crate) fn from_runs(starts: Vec<usize>, values: Vec<u32>) -> Self {
        debug_assert!(starts.first() == Some(&0) && starts.last() == Some(&values.len()));
        Self { starts, values }
    }

    /// Drops repeated values inside each run; equal values must be adjacent.
    pub(crate) fn dedup(&mut self) {
        let (mut write, mut begin) = (0, 0);
        for k in 0..self.len() {
            let (run_start, end) = (write, self.starts[k + 1]);
            for i in begin..end {
                let value = self.values[i];
                if write == run_start || self.values[write - 1] != value {
                    self.values[write] = value;
                    write += 1;
                }
            }
            self.starts[k + 1] = write;
            begin = end;
        }
        self.values.truncate(write);
    }

    /// The number of keys.
    pub(crate) fn len(&self) -> usize {
        self.starts.len() - 1
    }

    /// The values of key `k`.
    pub(crate) fn run(&self, k: usize) -> &[u32] {
        &self.values[self.starts[k]..self.starts[k + 1]]
    }

    /// Every `(key, value)` entry, in key order.
    pub(crate) fn entries(&self) -> impl Iterator<Item = (u32, u32)> + Clone + '_ {
        (0..self.len()).flat_map(move |k| self.run(k).iter().map(move |&v| (k as u32, v)))
    }

    /// The index with keys and values mapped through `key` and `value`, both
    /// order-preserving, and empty runs dropped. Runs must ascend strictly.
    pub(crate) fn to_flat<K: Ord + Copy, V: Ord + Copy>(
        &self,
        key: impl Fn(usize) -> K,
        value: impl Fn(u32) -> V,
    ) -> FlatIndex<K, V> {
        let mut index = FlatIndex::with_capacity(self.len(), self.values.len());
        for k in 0..self.len() {
            index.push(key(k), self.run(k).iter().map(|&v| value(v)));
        }
        index.shrink();
        index
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

    #[test]
    fn dense_grouping_is_a_stable_counting_sort() {
        let entries = [(2, 9), (0, 4), (2, 1), (0, 4), (2, 1), (0, 3)];
        let mut index = DenseIndex::group(4, entries.iter().copied());
        let runs: Vec<&[u32]> = (0..index.len()).map(|k| index.run(k)).collect();
        assert_eq!(runs, [&[4, 4, 3][..], &[], &[9, 1, 1], &[]]);
        index.dedup();
        let entries: Vec<(u32, u32)> = index.entries().collect();
        assert_eq!(entries, [(0, 4), (0, 3), (2, 9), (2, 1)]);
        let mut sorted = DenseIndex::group(3, [(1, 2), (1, 5), (2, 7)].into_iter());
        sorted.dedup();
        let flat = sorted.to_flat(|k| k as u8 * 10, |v| v as u16);
        assert_eq!(
            flat,
            FlatIndex::from_entries(vec![(10, 2), (10, 5), (20, 7)])
        );
        assert_eq!(DenseIndex::group(2, [].into_iter()).run(1), &[] as &[u32]);
    }

    #[test]
    fn a_table_validates_like_per_element_inserts() {
        let dup = |id: u32| PolicyError::DuplicateTenant {
            tenant: crate::ids::TenantId::new(id),
        };
        let odd = |&(id, _): &(u32, char)| match id % 2 {
            1 => Err(PolicyError::DuplicateEndpoint {
                endpoint: crate::ids::EndpointId::new(id),
            }),
            _ => Ok(id * 10),
        };
        let validate = |items: Vec<(u32, char)>| {
            ObjectTable::validate(items, |&(id, _)| id, odd, dup).map(|(t, r)| (t.ids, r))
        };
        // Ascending input moves in; shuffled input is sorted.
        assert_eq!(
            validate(vec![(2, 'a'), (4, 'b')]),
            Ok((vec![2, 4], vec![20, 40]))
        );
        assert_eq!(
            validate(vec![(4, 'b'), (2, 'a')]),
            Ok((vec![2, 4], vec![20, 40]))
        );
        // The repeat of 4 (input position 2) fails before the odd id at 3.
        let err = validate(vec![(4, 'a'), (2, 'b'), (4, 'c'), (3, 'd')]);
        assert_eq!(err, Err(dup(4)));
        // The item's own check comes before the duplicate check.
        let err = validate(vec![(6, 'a'), (5, 'b'), (5, 'c')]);
        assert!(matches!(err, Err(PolicyError::DuplicateEndpoint { .. })));
    }
}
