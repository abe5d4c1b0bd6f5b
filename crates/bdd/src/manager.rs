//! The ROBDD manager: hash-consed node storage and the core apply algorithms.

use std::collections::HashMap;
use std::fmt;

use crate::table::{CacheStats, DEFAULT_CACHE_LIMIT};
use crate::table::{ImpliesCache, NotCache, OpCache, Probe, UniqueTable};

/// A handle to a BDD node owned by a [`BddManager`].
///
/// Handles are only meaningful together with the manager that created them;
/// mixing handles across managers yields unspecified (but memory-safe) results.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Bdd(u32);

impl Bdd {
    /// The constant `false` BDD.
    pub const FALSE: Bdd = Bdd(0);
    /// The constant `true` BDD.
    pub const TRUE: Bdd = Bdd(1);

    /// Returns `true` if this handle is the constant `false`.
    pub fn is_false(self) -> bool {
        self == Self::FALSE
    }

    /// Returns `true` if this handle is the constant `true`.
    pub fn is_true(self) -> bool {
        self == Self::TRUE
    }

    /// Returns `true` if this handle is a terminal (constant) node.
    pub fn is_terminal(self) -> bool {
        self.0 <= 1
    }

    fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for Bdd {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Bdd::FALSE => f.write_str("⊥"),
            Bdd::TRUE => f.write_str("⊤"),
            Bdd(n) => write!(f, "bdd#{n}"),
        }
    }
}

/// A decision variable index. Variables are ordered by index: smaller indices
/// are tested closer to the root.
pub type Var = u32;

const TERMINAL_VAR: Var = Var::MAX;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Node {
    var: Var,
    low: Bdd,
    high: Bdd,
}

/// Binary boolean operations supported by [`BddManager::apply`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BddOp {
    /// Conjunction.
    And,
    /// Disjunction.
    Or,
    /// Exclusive or.
    Xor,
    /// Set difference: `a ∧ ¬b`.
    Diff,
}

impl BddOp {
    fn terminal(self, a: bool, b: bool) -> bool {
        match self {
            BddOp::And => a && b,
            BddOp::Or => a || b,
            BddOp::Xor => a ^ b,
            BddOp::Diff => a && !b,
        }
    }

    /// Short-circuit result when one operand is a terminal, if any.
    fn shortcut(self, a: Bdd, b: Bdd) -> Option<Bdd> {
        match self {
            BddOp::And => {
                if a.is_false() || b.is_false() {
                    Some(Bdd::FALSE)
                } else if a.is_true() {
                    Some(b)
                } else if b.is_true() || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            BddOp::Or => {
                if a.is_true() || b.is_true() {
                    Some(Bdd::TRUE)
                } else if a.is_false() {
                    Some(b)
                } else if b.is_false() || a == b {
                    Some(a)
                } else {
                    None
                }
            }
            BddOp::Xor => {
                if a == b {
                    Some(Bdd::FALSE)
                } else if a.is_false() {
                    Some(b)
                } else if b.is_false() {
                    Some(a)
                } else {
                    None
                }
            }
            BddOp::Diff => {
                if a.is_false() || b.is_true() || a == b {
                    Some(Bdd::FALSE)
                } else if b.is_false() {
                    Some(a)
                } else {
                    None
                }
            }
        }
    }
}

/// A reduced ordered binary decision diagram manager with hash-consing and an
/// operation cache.
///
/// The manager owns all nodes in a flat arena (`Vec<Node>`); [`Bdd`] handles
/// are indices into it. Hash-consing and the operation caches run on the
/// cache-conscious tables of [`crate::table`]: an open-addressing unique table
/// over node indices and lossy direct-mapped op/not/implies caches whose
/// growth is bounded by [`BddManager::set_cache_limit`].
///
/// All operations keep the diagram *reduced* (no node with identical low/high
/// children, no duplicate nodes) and *ordered* (variable indices strictly
/// increase along every path from the root).
///
/// # Example
///
/// ```
/// use scout_bdd::BddManager;
///
/// let mut m = BddManager::new(4);
/// let x0 = m.var(0);
/// let x1 = m.var(1);
/// let both = m.and(x0, x1);
/// assert_eq!(m.sat_count(both), 4.0); // x2, x3 free
/// ```
#[derive(Debug, Clone)]
pub struct BddManager {
    nodes: Vec<Node>,
    unique: UniqueTable,
    op_cache: OpCache,
    not_cache: NotCache,
    implies_cache: ImpliesCache,
    cache_limit: usize,
    stats: CacheStats,
    num_vars: u32,
}

impl BddManager {
    /// Creates a manager for `num_vars` decision variables (indices
    /// `0..num_vars`).
    pub fn new(num_vars: u32) -> Self {
        let nodes = vec![
            // FALSE terminal
            Node {
                var: TERMINAL_VAR,
                low: Bdd::FALSE,
                high: Bdd::FALSE,
            },
            // TRUE terminal
            Node {
                var: TERMINAL_VAR,
                low: Bdd::TRUE,
                high: Bdd::TRUE,
            },
        ];
        let cache_limit = DEFAULT_CACHE_LIMIT;
        Self {
            nodes,
            unique: UniqueTable::new(),
            op_cache: OpCache::new(cache_limit),
            not_cache: NotCache::new(cache_limit),
            implies_cache: ImpliesCache::new(cache_limit),
            cache_limit,
            stats: CacheStats::default(),
            num_vars,
        }
    }

    /// Cumulative hit/miss/eviction counters of the operation caches.
    pub fn cache_stats(&self) -> CacheStats {
        self.stats
    }

    /// Folds previously collected counters into this manager's own, so
    /// callers that periodically rebuild managers (e.g. a budgeted checker
    /// worker) can carry cumulative statistics across rebuilds.
    pub fn absorb_cache_stats(&mut self, stats: CacheStats) {
        self.stats.hits += stats.hits;
        self.stats.misses += stats.misses;
        self.stats.evictions += stats.evictions;
    }

    /// The per-cache entry limit (rounded up to a power of two on set).
    pub fn cache_limit(&self) -> usize {
        self.cache_limit
    }

    /// Bounds the operation caches to at most `limit` entries each (rounded
    /// up to a power of two; at least one entry).
    ///
    /// The direct-mapped caches stop growing at the limit and shrink
    /// immediately if they already exceed it, so a long-lived manager cannot
    /// accumulate unbounded memoization state.
    pub fn set_cache_limit(&mut self, limit: usize) {
        let limit = limit.max(1);
        self.cache_limit = limit.next_power_of_two();
        self.op_cache.set_limit(limit);
        self.not_cache.set_limit(limit);
        self.implies_cache.set_limit(limit);
    }

    /// Number of decision variables this manager was created with.
    pub fn num_vars(&self) -> u32 {
        self.num_vars
    }

    /// Total number of allocated nodes (including the two terminals).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of nodes reachable from `root` (excluding terminals), a measure
    /// of the size of one particular BDD.
    pub fn size(&self, root: Bdd) -> usize {
        let mut seen = std::collections::HashSet::new();
        let mut stack = vec![root];
        while let Some(b) = stack.pop() {
            if b.is_terminal() || !seen.insert(b) {
                continue;
            }
            let node = self.nodes[b.index()];
            stack.push(node.low);
            stack.push(node.high);
        }
        seen.len()
    }

    fn mk(&mut self, var: Var, low: Bdd, high: Bdd) -> Bdd {
        if low == high {
            return low;
        }
        let nodes = &self.nodes;
        let read = |i: u32| {
            let n = nodes[i as usize];
            (n.var, n.low.0, n.high.0)
        };
        match self.unique.probe(var, low.0, high.0, read) {
            Probe::Found(index) => Bdd(index),
            Probe::Vacant(slot) => {
                let index = u32::try_from(self.nodes.len()).expect("bdd node table overflow");
                self.nodes.push(Node { var, low, high });
                let nodes = &self.nodes;
                self.unique.insert(slot, index, |i| {
                    let n = nodes[i as usize];
                    (n.var, n.low.0, n.high.0)
                });
                debug_assert_eq!(self.unique.len(), self.nodes.len() - 2);
                debug_assert!(self.unique.capacity() > self.unique.len());
                Bdd(index)
            }
        }
    }

    fn op_tag(op: BddOp) -> u8 {
        match op {
            BddOp::And => 1,
            BddOp::Or => 2,
            BddOp::Xor => 3,
            BddOp::Diff => 4,
        }
    }

    #[inline]
    fn op_cache_get(&mut self, op: BddOp, a: Bdd, b: Bdd) -> Option<Bdd> {
        let cached = self.op_cache.get(Self::op_tag(op), a.0, b.0).map(Bdd);
        if cached.is_some() {
            self.stats.hits += 1;
        } else {
            self.stats.misses += 1;
        }
        cached
    }

    #[inline]
    fn op_cache_put(&mut self, op: BddOp, a: Bdd, b: Bdd, result: Bdd) {
        self.op_cache.put(
            Self::op_tag(op),
            a.0,
            b.0,
            result.0,
            &mut self.stats.evictions,
        );
    }

    /// The BDD for a single positive literal `x_var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn var(&mut self, var: Var) -> Bdd {
        assert!(var < self.num_vars, "variable {var} out of range");
        self.mk(var, Bdd::FALSE, Bdd::TRUE)
    }

    /// The BDD for a single negative literal `¬x_var`.
    ///
    /// # Panics
    ///
    /// Panics if `var >= num_vars`.
    pub fn nvar(&mut self, var: Var) -> Bdd {
        assert!(var < self.num_vars, "variable {var} out of range");
        self.mk(var, Bdd::TRUE, Bdd::FALSE)
    }

    /// Applies a binary boolean operation, memoized.
    pub fn apply(&mut self, op: BddOp, a: Bdd, b: Bdd) -> Bdd {
        if a.is_terminal() && b.is_terminal() {
            return if op.terminal(a.is_true(), b.is_true()) {
                Bdd::TRUE
            } else {
                Bdd::FALSE
            };
        }
        if let Some(result) = op.shortcut(a, b) {
            return result;
        }
        if let Some(cached) = self.op_cache_get(op, a, b) {
            return cached;
        }
        let (va, vb) = (self.var_of(a), self.var_of(b));
        let top = va.min(vb);
        let (a_low, a_high) = self.cofactors(a, top);
        let (b_low, b_high) = self.cofactors(b, top);
        let low = self.apply(op, a_low, b_low);
        let high = self.apply(op, a_high, b_high);
        let result = self.mk(top, low, high);
        self.op_cache_put(op, a, b, result);
        result
    }

    fn var_of(&self, b: Bdd) -> Var {
        self.nodes[b.index()].var
    }

    fn cofactors(&self, b: Bdd, var: Var) -> (Bdd, Bdd) {
        let node = self.nodes[b.index()];
        if node.var == var {
            (node.low, node.high)
        } else {
            (b, b)
        }
    }

    /// Conjunction of two BDDs.
    pub fn and(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.apply(BddOp::And, a, b)
    }

    /// Disjunction of two BDDs.
    pub fn or(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.apply(BddOp::Or, a, b)
    }

    /// Exclusive-or of two BDDs.
    pub fn xor(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.apply(BddOp::Xor, a, b)
    }

    /// Set difference `a ∧ ¬b`.
    pub fn diff(&mut self, a: Bdd, b: Bdd) -> Bdd {
        self.apply(BddOp::Diff, a, b)
    }

    /// Negation of a BDD.
    pub fn not(&mut self, a: Bdd) -> Bdd {
        if a.is_true() {
            return Bdd::FALSE;
        }
        if a.is_false() {
            return Bdd::TRUE;
        }
        if let Some(result) = self.not_cache.get(a.0).map(Bdd) {
            self.stats.hits += 1;
            return result;
        }
        self.stats.misses += 1;
        let node = self.nodes[a.index()];
        let low = self.not(node.low);
        let high = self.not(node.high);
        let result = self.mk(node.var, low, high);
        self.not_cache.put(a.0, result.0, &mut self.stats.evictions);
        result
    }

    /// If-then-else: `cond ? then : otherwise`.
    pub fn ite(&mut self, cond: Bdd, then: Bdd, otherwise: Bdd) -> Bdd {
        let a = self.and(cond, then);
        let not_cond = self.not(cond);
        let b = self.and(not_cond, otherwise);
        self.or(a, b)
    }

    /// Conjunction of an iterator of BDDs (`true` for an empty iterator).
    pub fn and_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::TRUE;
        for item in items {
            acc = self.and(acc, item);
            if acc.is_false() {
                break;
            }
        }
        acc
    }

    /// Disjunction of an iterator of BDDs (`false` for an empty iterator).
    pub fn or_all<I: IntoIterator<Item = Bdd>>(&mut self, items: I) -> Bdd {
        let mut acc = Bdd::FALSE;
        for item in items {
            acc = self.or(acc, item);
            if acc.is_true() {
                break;
            }
        }
        acc
    }

    /// Returns `true` if the two BDDs denote the same boolean function.
    ///
    /// Thanks to hash-consing this is a constant-time handle comparison.
    pub fn equivalent(&self, a: Bdd, b: Bdd) -> bool {
        a == b
    }

    /// Evaluates the BDD under a full variable assignment.
    ///
    /// `assignment[i]` is the value of variable `i`; missing trailing variables
    /// default to `false`.
    pub fn eval(&self, mut b: Bdd, assignment: &[bool]) -> bool {
        while !b.is_terminal() {
            let node = self.nodes[b.index()];
            let value = assignment.get(node.var as usize).copied().unwrap_or(false);
            b = if value { node.high } else { node.low };
        }
        b.is_true()
    }

    /// Number of satisfying assignments over all `num_vars` variables.
    ///
    /// Returns `f64` because the count can exceed `u64` for wide encodings.
    pub fn sat_count(&self, b: Bdd) -> f64 {
        let mut memo: HashMap<Bdd, f64> = HashMap::new();
        let total_vars = f64::from(self.num_vars);
        let fraction = self.sat_fraction(b, &mut memo);
        fraction * total_vars.exp2()
    }

    /// Fraction of the full assignment space that satisfies `b` (in `[0, 1]`).
    fn sat_fraction(&self, b: Bdd, memo: &mut HashMap<Bdd, f64>) -> f64 {
        if b.is_false() {
            return 0.0;
        }
        if b.is_true() {
            return 1.0;
        }
        if let Some(&f) = memo.get(&b) {
            return f;
        }
        let node = self.nodes[b.index()];
        let low = self.sat_fraction(node.low, memo);
        let high = self.sat_fraction(node.high, memo);
        let f = 0.5 * (low + high);
        memo.insert(b, f);
        f
    }

    /// Returns one satisfying assignment, or `None` if `b` is unsatisfiable.
    ///
    /// Variables not constrained along the chosen path are reported as `false`.
    pub fn any_sat(&self, b: Bdd) -> Option<Vec<bool>> {
        if b.is_false() {
            return None;
        }
        let mut assignment = vec![false; self.num_vars as usize];
        let mut current = b;
        while !current.is_terminal() {
            let node = self.nodes[current.index()];
            if node.high.is_false() {
                assignment[node.var as usize] = false;
                current = node.low;
            } else {
                assignment[node.var as usize] = true;
                current = node.high;
            }
        }
        debug_assert!(current.is_true());
        Some(assignment)
    }

    /// Returns `true` if `b` has at least one satisfying assignment.
    pub fn is_satisfiable(&self, b: Bdd) -> bool {
        !b.is_false()
    }

    /// Returns `true` if `a` implies `b` (i.e. `a ∧ ¬b` is unsatisfiable).
    ///
    /// Unlike computing `diff(a, b)` and testing for `FALSE`, this fast path
    /// never materializes intermediate nodes: it walks the two diagrams'
    /// cofactors directly, short-circuits on the first counterexample, and
    /// memoizes verdicts in a dedicated cache. On the equivalence checker's
    /// hot path (thousands of `rule ⊆ allowed-space` subset tests) this keeps
    /// the node table from growing with throw-away difference diagrams.
    pub fn implies(&mut self, a: Bdd, b: Bdd) -> bool {
        // Terminal and identity short-circuits, mirroring BddOp::Diff.
        if a.is_false() || b.is_true() || a == b {
            return true;
        }
        if b.is_false() {
            // a is not FALSE here.
            return false;
        }
        if a.is_true() {
            // In a reduced diagram only TRUE denotes the tautology.
            return false;
        }
        if let Some(result) = self.implies_cache.get(a.0, b.0) {
            self.stats.hits += 1;
            return result;
        }
        self.stats.misses += 1;
        let top = self.var_of(a).min(self.var_of(b));
        let (a_low, a_high) = self.cofactors(a, top);
        let (b_low, b_high) = self.cofactors(b, top);
        let result = self.implies(a_low, b_low) && self.implies(a_high, b_high);
        self.implies_cache
            .put(a.0, b.0, result, &mut self.stats.evictions);
        result
    }

    /// Number of entries across the operation caches (apply, not, implies).
    ///
    /// Useful to monitor the memory footprint of a long-lived manager.
    pub fn cache_len(&self) -> usize {
        self.op_cache.len() + self.not_cache.len() + self.implies_cache.len()
    }

    /// Drops every memoized operation result while keeping the node table.
    ///
    /// Existing [`Bdd`] handles stay valid; subsequent operations re-derive
    /// (and re-memoize) their results.
    pub fn clear_op_caches(&mut self) {
        self.op_cache.clear();
        self.not_cache.clear();
        self.implies_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn terminals_behave() {
        let m = BddManager::new(2);
        assert!(Bdd::TRUE.is_true());
        assert!(Bdd::FALSE.is_false());
        assert!(m.eval(Bdd::TRUE, &[]));
        assert!(!m.eval(Bdd::FALSE, &[]));
        assert_eq!(m.node_count(), 2);
    }

    #[test]
    fn var_and_nvar_are_complements() {
        let mut m = BddManager::new(1);
        let x = m.var(0);
        let nx = m.nvar(0);
        let not_x = m.not(x);
        assert_eq!(nx, not_x);
        assert!(m.eval(x, &[true]));
        assert!(!m.eval(x, &[false]));
        assert!(m.eval(nx, &[false]));
    }

    #[test]
    fn and_or_truth_table() {
        let mut m = BddManager::new(2);
        let x = m.var(0);
        let y = m.var(1);
        let and = m.and(x, y);
        let or = m.or(x, y);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(m.eval(and, &[a, b]), a && b);
            assert_eq!(m.eval(or, &[a, b]), a || b);
        }
    }

    #[test]
    fn xor_and_diff_truth_table() {
        let mut m = BddManager::new(2);
        let x = m.var(0);
        let y = m.var(1);
        let xor = m.xor(x, y);
        let diff = m.diff(x, y);
        for (a, b) in [(false, false), (false, true), (true, false), (true, true)] {
            assert_eq!(m.eval(xor, &[a, b]), a ^ b);
            assert_eq!(m.eval(diff, &[a, b]), a && !b);
        }
    }

    #[test]
    fn hash_consing_makes_equivalence_a_pointer_check() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let a = m.and(x, y);
        let b = m.and(y, x);
        assert!(m.equivalent(a, b));
        // De Morgan: ¬(x ∧ y) == ¬x ∨ ¬y
        let lhs = m.not(a);
        let nx = m.not(x);
        let ny = m.not(y);
        let rhs = m.or(nx, ny);
        assert!(m.equivalent(lhs, rhs));
    }

    #[test]
    fn sat_count_over_free_variables() {
        let mut m = BddManager::new(4);
        let x = m.var(0);
        assert_eq!(m.sat_count(x), 8.0); // 2^3 free assignments
        let y = m.var(1);
        let both = m.and(x, y);
        assert_eq!(m.sat_count(both), 4.0);
        assert_eq!(m.sat_count(Bdd::TRUE), 16.0);
        assert_eq!(m.sat_count(Bdd::FALSE), 0.0);
    }

    #[test]
    fn any_sat_returns_a_model() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let nz = m.nvar(2);
        let f = m.and(x, nz);
        let model = m.any_sat(f).expect("satisfiable");
        assert!(m.eval(f, &model));
        assert!(m.any_sat(Bdd::FALSE).is_none());
    }

    #[test]
    fn ite_matches_definition() {
        let mut m = BddManager::new(3);
        let c = m.var(0);
        let t = m.var(1);
        let e = m.var(2);
        let ite = m.ite(c, t, e);
        for bits in 0..8u8 {
            let assignment = [(bits & 1) != 0, (bits & 2) != 0, (bits & 4) != 0];
            let expected = if assignment[0] {
                assignment[1]
            } else {
                assignment[2]
            };
            assert_eq!(m.eval(ite, &assignment), expected);
        }
    }

    #[test]
    fn implies_detects_subset() {
        let mut m = BddManager::new(2);
        let x = m.var(0);
        let y = m.var(1);
        let both = m.and(x, y);
        assert!(m.implies(both, x));
        assert!(!m.implies(x, both));
        assert!(m.implies(Bdd::FALSE, x));
        assert!(m.implies(x, Bdd::TRUE));
    }

    #[test]
    fn and_all_or_all_fold() {
        let mut m = BddManager::new(3);
        let vars: Vec<Bdd> = (0..3).map(|i| m.var(i)).collect();
        let all = m.and_all(vars.clone());
        assert_eq!(m.sat_count(all), 1.0);
        let any = m.or_all(vars);
        assert_eq!(m.sat_count(any), 7.0);
        assert!(m.and_all(std::iter::empty()).is_true());
        assert!(m.or_all(std::iter::empty()).is_false());
    }

    #[test]
    fn reduction_eliminates_redundant_nodes() {
        let mut m = BddManager::new(2);
        let x = m.var(0);
        let nx = m.not(x);
        let tautology = m.or(x, nx);
        assert!(tautology.is_true());
        let contradiction = m.and(x, nx);
        assert!(contradiction.is_false());
    }

    #[test]
    fn size_counts_reachable_nodes() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let z = m.var(2);
        let f = m.and(x, y);
        let f = m.and(f, z);
        assert_eq!(m.size(f), 3);
        assert_eq!(m.size(Bdd::TRUE), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn var_out_of_range_panics() {
        let mut m = BddManager::new(2);
        let _ = m.var(5);
    }

    #[test]
    fn implies_does_not_materialize_nodes() {
        let mut m = BddManager::new(8);
        let vars: Vec<Bdd> = (0..8).map(|i| m.var(i)).collect();
        let narrow = m.and_all(vars.iter().copied().take(4));
        let wide = m.or_all(vars.iter().copied());
        let before = m.node_count();
        assert!(m.implies(narrow, wide));
        assert!(!m.implies(wide, narrow));
        assert_eq!(m.node_count(), before, "implies must not allocate nodes");
    }

    /// Drives three managers through an identical randomized operation
    /// sequence — default caches, starved one-entry caches, and caches
    /// cleared every 100 steps — and checks every returned handle is
    /// bit-identical. A lost cache entry only makes the apply recursion
    /// recompute, and recomputation re-derives nodes that are already
    /// interned, so cache pressure may change speed but never a handle.
    #[test]
    fn cache_pressure_never_changes_handles() {
        let mut lcg = 0x2545_f491_4f6c_dd1du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        let mut warm = BddManager::new(16);
        let mut starved = BddManager::new(16);
        starved.set_cache_limit(1);
        let mut cleared = BddManager::new(16);
        let mut handles: Vec<Bdd> = (0..16).map(|i| warm.var(i)).collect();
        for other in [&mut starved, &mut cleared] {
            let vars: Vec<Bdd> = (0..16).map(|i| other.var(i)).collect();
            assert_eq!(handles, vars);
        }
        for step in 0..4000 {
            if step % 100 == 0 {
                cleared.clear_op_caches();
            }
            let i = next() as usize % handles.len();
            let j = next() as usize % handles.len();
            let (a, b) = (handles[i], handles[j]);
            let op = next() % 6;
            let run = |m: &mut BddManager| match op {
                0 => Ok(m.and(a, b)),
                1 => Ok(m.or(a, b)),
                2 => Ok(m.xor(a, b)),
                3 => Ok(m.diff(a, b)),
                4 => Ok(m.not(a)),
                _ => Err(m.implies(a, b)),
            };
            let x = run(&mut warm);
            assert_eq!(x, run(&mut starved), "starved diverged at step {step}");
            assert_eq!(x, run(&mut cleared), "cleared diverged at step {step}");
            if let Ok(handle) = x {
                handles.push(handle);
            }
        }
        assert_eq!(warm.node_count(), starved.node_count());
        assert_eq!(warm.node_count(), cleared.node_count());
        let stats = warm.cache_stats();
        assert!(
            stats.hits > 0 && stats.misses > 0,
            "caches must be exercised"
        );
        assert!(starved.cache_stats().evictions > 0);
    }

    /// Randomized cross-validation against direct evaluation at a variable
    /// count high enough (64) to force unique-table growth and deep diagrams.
    /// Each constructed handle carries a mirror expression (index-based DAG)
    /// that is evaluated directly on random assignments.
    #[test]
    fn high_variable_count_cross_validation() {
        #[derive(Clone, Copy)]
        enum Mirror {
            Var(u32),
            Bin(BddOp, usize, usize),
        }
        fn eval_mirror(exprs: &[Mirror], idx: usize, env: &[bool]) -> bool {
            match exprs[idx] {
                Mirror::Var(v) => env[v as usize],
                Mirror::Bin(op, l, r) => {
                    op.terminal(eval_mirror(exprs, l, env), eval_mirror(exprs, r, env))
                }
            }
        }
        let mut lcg = 0x9e37_79b9_7f4a_7c15u64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        const VARS: u32 = 64;
        let mut m = BddManager::new(VARS);
        let mut exprs: Vec<Mirror> = Vec::new();
        let mut handles: Vec<Bdd> = Vec::new();
        for v in 0..VARS {
            exprs.push(Mirror::Var(v));
            handles.push(m.var(v));
        }
        for _ in 0..600 {
            let i = next() as usize % handles.len();
            let j = next() as usize % handles.len();
            let op = match next() % 4 {
                0 => BddOp::And,
                1 => BddOp::Or,
                2 => BddOp::Xor,
                _ => BddOp::Diff,
            };
            handles.push(m.apply(op, handles[i], handles[j]));
            exprs.push(Mirror::Bin(op, i, j));
        }
        assert!(
            m.node_count() > INITIAL_TABLE_PROBE,
            "the workload must outgrow the initial table"
        );
        // Validate every handle on a batch of random assignments.
        for _ in 0..40 {
            let env: Vec<bool> = (0..VARS).map(|_| next() % 2 == 1).collect();
            for (idx, &handle) in handles.iter().enumerate() {
                assert_eq!(
                    m.eval(handle, &env),
                    eval_mirror(&exprs, idx, &env),
                    "handle {idx} diverges from direct evaluation"
                );
            }
        }
    }

    /// Initial unique-table capacity, used to assert growth was exercised.
    const INITIAL_TABLE_PROBE: usize = 1 << 10;

    /// Starved caches (limit 1) force constant collisions and evictions; the
    /// results must still match a generously cached reference
    /// handle-for-handle — lossy caching may never change semantics, only
    /// speed.
    #[test]
    fn starved_caches_stay_correct_under_collision_stress() {
        let mut starved = BddManager::new(12);
        starved.set_cache_limit(1);
        assert_eq!(starved.cache_limit(), 1);
        let mut reference = BddManager::new(12);
        let mut lcg = 0xdead_beef_cafe_f00du64;
        let mut next = move || {
            lcg = lcg
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (lcg >> 33) as u32
        };
        let mut handles: Vec<Bdd> = (0..12).map(|v| starved.var(v)).collect();
        for v in 0..12 {
            reference.var(v);
        }
        for step in 0..1500 {
            let a = handles[next() as usize % handles.len()];
            let b = handles[next() as usize % handles.len()];
            let (x, y) = match next() % 3 {
                0 => (starved.and(a, b), reference.and(a, b)),
                1 => (starved.xor(a, b), reference.xor(a, b)),
                _ => (starved.not(a), reference.not(a)),
            };
            assert_eq!(x, y, "starved cache diverged at step {step}");
            handles.push(x);
        }
        assert_eq!(starved.node_count(), reference.node_count());
        assert!(
            starved.cache_stats().evictions > 0,
            "a one-entry cache must evict under this workload"
        );
    }

    /// A cache limit bounds every cache at once: three caches of at most 32
    /// entries each, however much work runs through them.
    #[test]
    fn cache_limit_bounds_the_caches() {
        let mut m = BddManager::new(10);
        m.set_cache_limit(32);
        let vars: Vec<Bdd> = (0..10).map(|v| m.var(v)).collect();
        let mut acc = Bdd::TRUE;
        for window in vars.windows(2) {
            let pair = m.or(window[0], window[1]);
            acc = m.and(acc, pair);
        }
        for &v in &vars {
            let _ = m.not(v);
            let _ = m.implies(acc, v);
        }
        assert!(
            m.cache_len() <= 3 * 32,
            "caches exceeded their bound: {}",
            m.cache_len()
        );
        assert!(m.is_satisfiable(acc));
    }

    #[test]
    fn implies_results_survive_cache_clear() {
        let mut m = BddManager::new(3);
        let x = m.var(0);
        let y = m.var(1);
        let both = m.and(x, y);
        assert!(m.implies(both, x));
        assert!(m.cache_len() > 0);
        m.clear_op_caches();
        assert_eq!(m.cache_len(), 0);
        assert!(m.implies(both, x));
        assert!(!m.implies(x, both));
    }
}
