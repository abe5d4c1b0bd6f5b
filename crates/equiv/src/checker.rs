//! The L–T equivalence checker.
//!
//! Implements the paper's "in-house equivalence checker" (§III-C): for each
//! switch it compares the ROBDD of the logical rules (L-type, what the
//! controller expects) with the ROBDD of the collected TCAM rules (T-type, what
//! the hardware actually holds). When the diagrams differ it reports the set of
//! *missing rules* — logical rules whose traffic is not (fully) allowed by the
//! deployed TCAM — which is the failure evidence the risk models are augmented
//! with.
//!
//! # Pipeline architecture
//!
//! The checker is built for production-scale fabrics (thousands of switches,
//! continuous re-checking after every change):
//!
//! * **Class slicing** — VRF, source EPG and destination EPG are exact-match
//!   fields, so a switch's rules are grouped by that key (full `u32` ids) and
//!   each group is folded on its own over the 24-variable (protocol, port)
//!   sub-space of [`HeaderSpace`]. This is exact, not an approximation: rules
//!   with different keys match disjoint sets of packets; a packet's first
//!   matching rule is therefore always one of its own key's rules, in the
//!   order they appear in the list; so the allowed space is the disjoint
//!   union of the per-key allowed spaces, and both equality and `⊆` between
//!   two such unions hold iff they hold key by key. A switch is equivalent
//!   iff every key's L and T sub-spaces are the same diagram (a key present
//!   on one side only compares against `FALSE`), and a one-rule drift
//!   re-folds only the handful of rules sharing its key.
//! * **Persistent caches** — the checker keeps one pool of BDD workers that
//!   survive across calls: every check checks out as many as its parallelism
//!   gives it and returns them in order afterwards. A worker memoizes one
//!   diagram per distinct `(protocol, port range)` — the key is not part of
//!   the diagrams, so every class, switch and tenant shares them — and the
//!   manager's apply/implies caches keep every fold step, so re-checking an
//!   unchanged class costs cache hits only.
//! * **Indexed logical rules** — [`EquivalenceChecker::check_network`] groups
//!   the logical rules by switch once (`O(total rules)`) instead of re-scanning
//!   the full rule list per switch (`O(switches × total rules)`).
//! * **Parallel checking** — per-switch checks are embarrassingly parallel;
//!   large networks are split across worker threads, each with its own
//!   pooled manager. Results are deterministic regardless of thread count.
//! * **Incremental re-checking** — [`EquivalenceChecker::recheck_dirty`]
//!   reuses a previous [`NetworkCheckResult`] and only revisits the switches
//!   whose TCAM (or logical rule set) changed, doing work proportional to the
//!   change instead of the network.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::ops::Range;
use std::panic::resume_unwind;
use std::sync::Mutex;
use std::thread;

use scout_bdd::{Bdd, BddManager, CacheStats, NodeTableKind};
use scout_policy::{Action, EpgId, LogicalRule, PortRange, Protocol, SwitchId, TcamRule, VrfId};

use crate::header::HeaderSpace;

/// The outcome of checking one switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCheckResult {
    /// The switch that was checked.
    pub switch: SwitchId,
    /// `true` if the allowed spaces of L-type and T-type rules are identical.
    pub equivalent: bool,
    /// Logical rules whose traffic is not fully allowed by the deployed TCAM.
    pub missing_rules: Vec<LogicalRule>,
    /// Deployed rules that allow traffic the logical policy does not allow
    /// (e.g. corrupted entries now matching the wrong VRF or EPG).
    pub unexpected_rules: Vec<TcamRule>,
}

impl SwitchCheckResult {
    /// A result reporting `switch` as fully consistent with the policy.
    pub fn consistent(switch: SwitchId) -> Self {
        Self {
            switch,
            equivalent: true,
            missing_rules: Vec::new(),
            unexpected_rules: Vec::new(),
        }
    }
}

/// The outcome of checking the whole network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkCheckResult {
    /// Per-switch results, keyed by switch id.
    pub per_switch: BTreeMap<SwitchId, SwitchCheckResult>,
}

impl NetworkCheckResult {
    /// An empty result (no switches checked), identical to `Default`.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if every switch is consistent with the policy.
    pub fn is_consistent(&self) -> bool {
        self.per_switch.values().all(|r| r.equivalent)
    }

    /// All missing rules across switches, in switch order, without
    /// materializing an intermediate `Vec`.
    pub fn missing_rules(&self) -> impl Iterator<Item = LogicalRule> + '_ {
        self.per_switch
            .values()
            .flat_map(|r| r.missing_rules.iter().copied())
    }

    /// Total number of missing rules.
    pub fn missing_count(&self) -> usize {
        self.per_switch
            .values()
            .map(|r| r.missing_rules.len())
            .sum()
    }

    /// Switches that are not consistent with the policy.
    pub fn inconsistent_switches(&self) -> Vec<SwitchId> {
        self.per_switch
            .iter()
            .filter(|(_, r)| !r.equivalent)
            .map(|(&s, _)| s)
            .collect()
    }

    /// All missing rules, materialized as an ordered set — the form delta
    /// consumers (e.g. a session computing a report delta between two checks)
    /// need for set difference.
    pub fn missing_rule_set(&self) -> BTreeSet<LogicalRule> {
        self.missing_rules().collect()
    }
}

/// Default bound on a worker's BDD node table; when exceeded the manager is
/// rebuilt, keeping the memory of a long-lived checker bounded. Override per
/// checker with [`EquivalenceChecker::set_node_budget`].
pub const DEFAULT_NODE_BUDGET: usize = 1 << 20;

/// Fewer items than this run on the calling thread even in auto mode; the
/// per-thread warm-up (a BDD manager, a session) would cost more than it saves.
const AUTO_PARALLEL_THRESHOLD: usize = 8;

/// Derives a manager operation-cache limit from a node-table budget: a
/// quarter of the budget, so the lossy apply/not/implies caches can never
/// outweigh the node table they accelerate (see
/// [`BddManager::set_cache_limit`]).
fn cache_limit_for(node_budget: usize) -> usize {
    (node_budget / 4).max(1)
}

/// The exact-match class of a rule: `(VRF, source EPG, destination EPG)` as
/// full `u32` ids. Rules of different classes match disjoint traffic, so a
/// switch is checked one class at a time (see the module docs).
type ClassKey = (VrfId, EpgId, EpgId);

fn class_of(rule: &TcamRule) -> ClassKey {
    let m = &rule.matcher;
    (m.vrf, m.src_epg, m.dst_epg)
}

/// One side (L or T) of a switch, folded class by class.
struct SlicedSpace {
    /// Allowed sub-space of every class that allows anything, ascending by
    /// class; a class that is absent (or all-deny) is `FALSE` and not listed,
    /// so two sides allow the same traffic iff their lists are equal.
    allowed: Vec<(ClassKey, Bdd)>,
    /// Every rule's own sub-space match diagram, in input order.
    matches: Vec<Bdd>,
}

impl SlicedSpace {
    fn allowed_in(&self, class: ClassKey) -> Bdd {
        self.allowed
            .binary_search_by_key(&class, |&(class, _)| class)
            .map_or(Bdd::FALSE, |found| self.allowed[found].1)
    }
}

/// A BDD manager over the 24-variable (protocol, port) sub-space plus the
/// memoized match encodings built on top of it.
///
/// This is the unit of state the checker keeps per thread: the manager's
/// hash-consed node table and operation caches persist across switches and
/// across calls, and `match_cache` maps every `(protocol, port range)` ever
/// encoded to its diagram. Nothing in it depends on a VRF, an EPG or a
/// switch, so every class of every switch (and every tenant sharing the
/// checker) reuses the same few diagrams and fold results.
#[derive(Debug)]
struct CheckWorker {
    manager: BddManager,
    match_cache: HashMap<(Protocol, PortRange), Bdd>,
}

impl CheckWorker {
    fn new(header_space: &HeaderSpace, node_budget: usize) -> Self {
        let mut manager = header_space.sub_manager();
        manager.set_cache_limit(cache_limit_for(node_budget));
        Self {
            manager,
            match_cache: HashMap::new(),
        }
    }

    /// Folds an ordered rule set class by class: rules are grouped by
    /// [`ClassKey`] (keeping list order inside a class, which is all the
    /// first-match tie-break can see) and each group goes through
    /// [`crate::header::allowed_space_traced_with`] — the single home of the
    /// priority semantics — with the memoizing sub-space encoder.
    fn sliced_space(&mut self, header_space: &HeaderSpace, rules: &[TcamRule]) -> SlicedSpace {
        let Self {
            manager,
            match_cache,
        } = self;
        let mut order: Vec<usize> = (0..rules.len()).collect();
        order.sort_by_key(|&i| class_of(&rules[i]));
        let grouped: Vec<TcamRule> = order.iter().map(|&i| rules[i]).collect();

        let mut allowed = Vec::new();
        let mut matches = vec![Bdd::FALSE; rules.len()];
        let mut done = 0; // rules of `grouped` (and positions of `order`) already folded
        for class in grouped.chunk_by(|a, b| class_of(a) == class_of(b)) {
            let (class_allowed, class_matches) =
                crate::header::allowed_space_traced_with(manager, class, |m, rule| {
                    *match_cache
                        .entry((rule.matcher.protocol, rule.matcher.ports))
                        .or_insert_with(|| {
                            header_space.sub_match(m, rule.matcher.protocol, rule.matcher.ports)
                        })
                });
            if !class_allowed.is_false() {
                allowed.push((class_of(&class[0]), class_allowed));
            }
            for (&position, matched) in order[done..].iter().zip(class_matches) {
                matches[position] = matched;
            }
            done += class.len();
        }
        SlicedSpace { allowed, matches }
    }

    /// Checks one switch given its (pre-filtered) logical rules.
    ///
    /// Each side is folded once, class by class; the switch is equivalent iff
    /// every class allows the same sub-space on both sides. The
    /// missing/unexpected classification runs only for an inequivalent switch
    /// and then visits every rule of the switch against its own class,
    /// reusing the per-rule diagrams of the fold.
    fn check_switch(
        &mut self,
        header_space: &HeaderSpace,
        switch: SwitchId,
        logical: &[LogicalRule],
        tcam: &[TcamRule],
    ) -> SwitchCheckResult {
        let logical_rules: Vec<TcamRule> = logical.iter().map(|l| l.rule).collect();
        let l_space = self.sliced_space(header_space, &logical_rules);
        let t_space = self.sliced_space(header_space, tcam);

        let equivalent = l_space.allowed == t_space.allowed;
        let mut missing_rules = Vec::new();
        let mut unexpected_rules = Vec::new();

        if !equivalent {
            // A logical rule is missing if part of its traffic is not allowed
            // by the deployed TCAM.
            for (l, &space) in logical.iter().zip(&l_space.matches) {
                let t_allowed = t_space.allowed_in(class_of(&l.rule));
                if !self.manager.implies(space, t_allowed) {
                    missing_rules.push(*l);
                }
            }
            // A deployed rule is unexpected if it allows traffic the policy
            // does not allow.
            for (t, &space) in tcam.iter().zip(&t_space.matches) {
                if t.action != Action::Allow {
                    continue;
                }
                let class = class_of(t);
                let effectively_allowed = self.manager.and(space, t_space.allowed_in(class));
                if !self
                    .manager
                    .implies(effectively_allowed, l_space.allowed_in(class))
                {
                    unexpected_rules.push(*t);
                }
            }
        }

        SwitchCheckResult {
            switch,
            equivalent,
            missing_rules,
            unexpected_rules,
        }
    }

    /// Rebuilds the manager (budget-derived cache limit) if the node table
    /// outgrew `budget`.
    fn maybe_shrink(&mut self, header_space: &HeaderSpace, budget: usize) {
        if self.manager.node_count() > budget {
            let stats = self.manager.cache_stats();
            *self = Self::new(header_space, budget);
            self.manager.absorb_cache_stats(stats);
        }
    }
}

/// The workspace's one thread policy: how many workers a stage made of
/// independent items gets ([`Parallelism::worker_count`]) and how the items
/// are spread over them ([`Parallelism::fan_out`]).
///
/// The equivalence checker, the sharded risk-model builder and the `scout-sim`
/// drivers all fan out through it, so one configured value governs every
/// parallel stage and the split is decided in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Decide from the item count and the machine's available parallelism.
    #[default]
    Auto,
    /// Always run on the calling thread (maximal cache reuse).
    Sequential,
    /// Use this many worker threads (at least 1, at most one per item).
    Fixed(usize),
}

impl Parallelism {
    /// The number of contiguous ranges [`Parallelism::fan_out`] splits
    /// `work_items` independent items into — one worker each.
    ///
    /// `Auto` consults the machine's available parallelism once the work is
    /// large enough to amortize per-thread state. Ranges are
    /// `ceil(items / threads)` long, so the result can be lower than the
    /// thread count asked for (33 items on 8 threads are seven ranges of at
    /// most 5); it is always in `1..=max(work_items, 1)`.
    pub fn worker_count(self, work_items: usize) -> usize {
        self.split(work_items).0
    }

    /// The split both methods share: `(range count, range length)`.
    fn split(self, items: usize) -> (usize, usize) {
        let threads = match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => {
                if items < AUTO_PARALLEL_THRESHOLD {
                    1
                } else {
                    thread::available_parallelism().map_or(1, |n| n.get())
                }
            }
        };
        let range_len = items.div_ceil(threads).max(1);
        (items.div_ceil(range_len).max(1), range_len)
    }

    /// Runs `work` over `0..items`, split into
    /// [`worker_count`](Parallelism::worker_count)`(items)` contiguous ranges
    /// (equally long, the last possibly shorter), and returns the outputs in
    /// range order.
    ///
    /// `work` receives the worker's index and its range. A single range runs
    /// on the calling thread without spawning; several run on scoped threads,
    /// so `work` may borrow from the caller. A panicking worker's panic is
    /// re-raised on the caller once every worker has finished.
    #[allow(clippy::disallowed_methods)] // the one `thread::scope` clippy.toml exempts
    pub fn fan_out<T, F>(self, items: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let (workers, range_len) = self.split(items);
        if workers == 1 {
            return vec![work(0, 0..items)];
        }
        thread::scope(|scope| {
            let work = &work;
            let handles: Vec<_> = (0..workers)
                .map(|worker| {
                    let range = worker * range_len..((worker + 1) * range_len).min(items);
                    scope.spawn(move || work(worker, range))
                })
                .collect();
            handles
                .into_iter()
                .map(|handle| handle.join().unwrap_or_else(|panic| resume_unwind(panic)))
                .collect()
        })
    }
}

/// The BDD-based L–T equivalence checker.
///
/// The checker keeps a persistent, internally synchronized pool of BDD
/// workers so that repeated calls — the normal mode of operation for a
/// monitor that re-checks the fabric after every change — reuse rule
/// encodings and operation caches instead of rebuilding the world.
///
/// # Example
///
/// ```
/// use scout_equiv::EquivalenceChecker;
/// use scout_fabric::Fabric;
/// use scout_policy::sample;
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
/// let checker = EquivalenceChecker::new();
/// let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
/// assert!(result.is_consistent());
/// ```
#[derive(Debug)]
pub struct EquivalenceChecker {
    header_space: HeaderSpace,
    parallelism: Parallelism,
    /// Per-worker BDD node-table budget; a worker whose table outgrows it is
    /// rebuilt (see [`DEFAULT_NODE_BUDGET`]).
    node_budget: usize,
    /// Warm workers: every check checks some out and returns them in order,
    /// so their managers and match caches stay warm across calls.
    pool: Mutex<Vec<CheckWorker>>,
}

impl Default for EquivalenceChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl EquivalenceChecker {
    /// Creates a checker over the standard header space with automatic
    /// parallelism.
    pub fn new() -> Self {
        Self::with_parallelism(Parallelism::Auto)
    }

    /// Creates a checker with an explicit parallelism policy.
    pub fn with_parallelism(parallelism: Parallelism) -> Self {
        Self {
            header_space: HeaderSpace::new(),
            parallelism,
            node_budget: DEFAULT_NODE_BUDGET,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Does nothing: the arena is the only node table. Kept only because
    /// the stand-alone `benchmark/` package still calls it; the next
    /// benchmark-only change deletes it.
    pub fn set_node_table(&mut self, _kind: NodeTableKind) {}

    /// Aggregated BDD operation-cache counters (hits, misses, evictions)
    /// across the worker pool — cumulative over the checker's lifetime,
    /// surviving budget-triggered worker rebuilds.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = CacheStats::default();
        for worker in self.lock_pool().iter() {
            let stats = worker.manager.cache_stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
        }
        total
    }

    /// Bounds each worker's BDD node table: a worker whose hash-consed table
    /// outgrows the budget after a check is rebuilt from scratch. Lower
    /// budgets cap the memory of a long-lived checker at the price of colder
    /// caches; results never change. A budget of 0 effectively disables cache
    /// persistence.
    pub fn set_node_budget(&mut self, budget: usize) {
        self.node_budget = budget;
        // Keep the managers' lossy operation caches tied to the new budget
        // immediately, not only after the next worker rebuild.
        let limit = cache_limit_for(budget);
        for worker in self.lock_pool().iter_mut() {
            worker.manager.set_cache_limit(limit);
        }
    }

    /// The configured per-worker BDD node-table budget.
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// Groups logical rules by destination switch.
    ///
    /// Building this index once per check replaces the quadratic
    /// filter-per-switch scan of the naive formulation.
    fn index_by_switch(logical: &[LogicalRule]) -> BTreeMap<SwitchId, Vec<LogicalRule>> {
        let mut index: BTreeMap<SwitchId, Vec<LogicalRule>> = BTreeMap::new();
        for &rule in logical {
            index.entry(rule.switch).or_default().push(rule);
        }
        index
    }

    /// Checks one switch: compares the logical rules destined for `switch`
    /// against the TCAM rules collected from it.
    ///
    /// `logical` may be the full network-wide rule list; it is filtered here.
    /// When checking many switches prefer [`EquivalenceChecker::check_network`],
    /// which indexes the rules once.
    pub fn check_switch(
        &self,
        switch: SwitchId,
        logical: &[LogicalRule],
        tcam: &[TcamRule],
    ) -> SwitchCheckResult {
        let for_switch: Vec<LogicalRule> = logical
            .iter()
            .filter(|l| l.switch == switch)
            .copied()
            .collect();
        let mut results = self.on_workers(1, |worker, _| {
            worker.check_switch(&self.header_space, switch, &for_switch, tcam)
        });
        results.pop().expect("one item runs on one worker")
    }

    /// Checks every switch appearing either in the logical rules or in the
    /// collected TCAM snapshot.
    pub fn check_network(
        &self,
        logical: &[LogicalRule],
        tcam: &BTreeMap<SwitchId, Vec<TcamRule>>,
    ) -> NetworkCheckResult {
        let index = Self::index_by_switch(logical);
        let mut switches: BTreeSet<SwitchId> = tcam.keys().copied().collect();
        switches.extend(index.keys().copied());
        let per_switch = self.check_switches(&index, tcam, switches.into_iter().collect());
        NetworkCheckResult { per_switch }
    }

    /// Incrementally re-checks the network after a change.
    ///
    /// Starts from `previous` (a result produced by
    /// [`EquivalenceChecker::check_network`] or an earlier `recheck_dirty`
    /// against the *same evolving network*) and re-checks only:
    ///
    /// * the switches listed in `dirty`, and
    /// * switches present now but absent from `previous` (newly added).
    ///
    /// Switches that disappeared from the network are dropped. Provided
    /// `dirty` covers every switch whose TCAM contents *or* logical rule set
    /// changed since `previous` was computed (see
    /// `scout_fabric::Fabric::dirty_switches_since`), the result is identical
    /// to a full [`EquivalenceChecker::check_network`] — at a cost
    /// proportional to the change, not the network.
    pub fn recheck_dirty(
        &self,
        previous: &NetworkCheckResult,
        logical: &[LogicalRule],
        tcam: &BTreeMap<SwitchId, Vec<TcamRule>>,
        dirty: &BTreeSet<SwitchId>,
    ) -> NetworkCheckResult {
        let switches: BTreeSet<SwitchId> = tcam.keys().copied().collect();
        self.recheck_dirty_with(previous, logical, &switches, dirty, |s| {
            tcam.get(&s).cloned().unwrap_or_default()
        })
    }

    /// Like [`EquivalenceChecker::recheck_dirty`], but fetches TCAM snapshots
    /// lazily, only for the switches that are actually re-checked.
    ///
    /// `current_switches` is the set of switches present in the network now
    /// (switches appearing in `logical` are added automatically); `tcam_of`
    /// is consulted once per re-checked switch. This keeps the *entire* cost
    /// of an incremental cycle proportional to the change — a no-change cycle
    /// copies no TCAM rules at all, where [`EquivalenceChecker::recheck_dirty`]
    /// requires the caller to have collected the full network snapshot first.
    pub fn recheck_dirty_with<F>(
        &self,
        previous: &NetworkCheckResult,
        logical: &[LogicalRule],
        current_switches: &BTreeSet<SwitchId>,
        dirty: &BTreeSet<SwitchId>,
        mut tcam_of: F,
    ) -> NetworkCheckResult
    where
        F: FnMut(SwitchId) -> Vec<TcamRule>,
    {
        let rechecked = |s: &SwitchId| dirty.contains(s) || !previous.per_switch.contains_key(s);

        // One pass over the logical rules: note every switch they mention and
        // index only the rules of switches that will be re-checked. The
        // verdict is remembered for the current run of same-switch rules (the
        // compiler emits them grouped), so the common rule costs one compare.
        let mut current = current_switches.clone();
        let mut index: BTreeMap<SwitchId, Vec<LogicalRule>> = BTreeMap::new();
        let mut run: Option<(SwitchId, bool)> = None;
        for &rule in logical {
            let keep = match run {
                Some((switch, keep)) if switch == rule.switch => keep,
                _ => {
                    current.insert(rule.switch);
                    let keep = rechecked(&rule.switch);
                    run = Some((rule.switch, keep));
                    keep
                }
            };
            if keep {
                index.entry(rule.switch).or_default().push(rule);
            }
        }

        let to_check: Vec<SwitchId> = current.iter().copied().filter(rechecked).collect();
        let tcam: BTreeMap<SwitchId, Vec<TcamRule>> =
            to_check.iter().map(|&s| (s, tcam_of(s))).collect();

        // Carry over every clean, still-present switch.
        let mut per_switch: BTreeMap<SwitchId, SwitchCheckResult> = previous
            .per_switch
            .iter()
            .filter(|(s, _)| current.contains(s) && !dirty.contains(s))
            .map(|(&s, r)| (s, r.clone()))
            .collect();

        per_switch.append(&mut self.check_switches(&index, &tcam, to_check));
        NetworkCheckResult { per_switch }
    }

    /// Checks the given switches, sequentially or in parallel according to the
    /// configured policy. Results are deterministic either way.
    fn check_switches(
        &self,
        index: &BTreeMap<SwitchId, Vec<LogicalRule>>,
        tcam: &BTreeMap<SwitchId, Vec<TcamRule>>,
        switches: Vec<SwitchId>,
    ) -> BTreeMap<SwitchId, SwitchCheckResult> {
        static EMPTY_LOGICAL: Vec<LogicalRule> = Vec::new();
        static EMPTY_TCAM: Vec<TcamRule> = Vec::new();

        let results = self.on_workers(switches.len(), |worker, range| {
            switches[range]
                .iter()
                .map(|&switch| {
                    let logical = index.get(&switch).unwrap_or(&EMPTY_LOGICAL);
                    let rules = tcam.get(&switch).unwrap_or(&EMPTY_TCAM);
                    let result = worker.check_switch(&self.header_space, switch, logical, rules);
                    (switch, result)
                })
                .collect::<Vec<_>>()
        });
        results.into_iter().flatten().collect()
    }

    /// Runs `work` over `items` items through [`Parallelism::fan_out`], one
    /// warm worker per range. The workers are checked out of the pool before
    /// the fan-out and returned in range order after it (cold ones are made
    /// if the pool runs short), so the worker↔range pairing is deterministic
    /// and every check, one switch or a wide front, warms the same pool.
    fn on_workers<T, F>(&self, items: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(&mut CheckWorker, Range<usize>) -> T + Sync,
    {
        let count = self.parallelism.worker_count(items);
        let workers: Vec<Mutex<CheckWorker>> = {
            let mut pool = self.lock_pool();
            while pool.len() < count {
                pool.push(CheckWorker::new(&self.header_space, self.node_budget));
            }
            let keep = pool.len() - count;
            pool.split_off(keep).into_iter().map(Mutex::new).collect()
        };
        let results = self.parallelism.fan_out(items, |range_index, range| {
            let mut worker = workers[range_index]
                .lock()
                .expect("only this range locks its worker");
            let output = work(&mut worker, range);
            worker.maybe_shrink(&self.header_space, self.node_budget);
            output
        });
        self.lock_pool().extend(
            workers
                .into_iter()
                .map(|worker| worker.into_inner().unwrap_or_else(|e| e.into_inner())),
        );
        results
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, Vec<CheckWorker>> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_fabric::{CorruptionKind, Fabric};
    use scout_policy::{sample, Action};

    fn deployed() -> Fabric {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
    }

    #[test]
    fn healthy_deployment_is_consistent() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert!(result.is_consistent());
        assert_eq!(result.missing_count(), 0);
        assert!(result.inconsistent_switches().is_empty());
    }

    #[test]
    fn missing_rule_is_detected_on_the_right_switch() {
        let mut fabric = deployed();
        // Silently drop the port-700 rules from S2 (Figure 2 rules 5 and 6).
        let removed = fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        assert_eq!(removed.len(), 2);
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert!(!result.is_consistent());
        assert_eq!(result.inconsistent_switches(), vec![sample::S2]);
        let s2 = &result.per_switch[&sample::S2];
        assert_eq!(s2.missing_rules.len(), 2);
        assert!(s2
            .missing_rules
            .iter()
            .all(|r| r.provenance.filter == sample::F_700));
        assert_eq!(
            s2.missing_rules
                .iter()
                .map(|r| r.pair())
                .collect::<BTreeSet<_>>(),
            BTreeSet::from([scout_policy::EpgPair::new(sample::APP, sample::DB)])
        );
        // Other switches are untouched.
        assert!(result.per_switch[&sample::S1].equivalent);
        assert!(result.per_switch[&sample::S3].equivalent);
    }

    #[test]
    fn empty_tcam_reports_every_logical_rule_missing() {
        let mut fabric = deployed();
        let total = fabric.tcam_rules(sample::S2).len();
        fabric.remove_tcam_rules_where(sample::S2, |_| true);
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert_eq!(result.per_switch[&sample::S2].missing_rules.len(), total);
    }

    #[test]
    fn corruption_produces_missing_and_unexpected_rules() {
        let mut fabric = deployed();
        // Corrupt the VRF field of one S2 entry: the original traffic is no
        // longer allowed (missing) and a foreign VRF is now allowed
        // (unexpected).
        fabric
            .corrupt_tcam(sample::S2, 0, CorruptionKind::VrfBit)
            .unwrap();
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        let s2 = &result.per_switch[&sample::S2];
        assert!(!s2.equivalent);
        assert_eq!(s2.missing_rules.len(), 1);
        assert_eq!(s2.unexpected_rules.len(), 1);
        assert_ne!(s2.unexpected_rules[0].matcher.vrf, sample::VRF);
    }

    #[test]
    fn action_flip_makes_rule_missing_but_not_unexpected() {
        let mut fabric = deployed();
        fabric
            .corrupt_tcam(sample::S1, 0, CorruptionKind::ActionFlip)
            .unwrap();
        let checker = EquivalenceChecker::new();
        let tcam = fabric.collect_tcam();
        assert!(tcam[&sample::S1].iter().any(|r| r.action == Action::Deny));
        let result = checker.check_network(fabric.logical_rules(), &tcam);
        let s1 = &result.per_switch[&sample::S1];
        assert!(!s1.equivalent);
        assert_eq!(s1.missing_rules.len(), 1);
        assert!(s1.unexpected_rules.is_empty());
    }

    #[test]
    fn extra_tcam_rule_is_unexpected_but_nothing_missing() {
        let fabric = deployed();
        // Hand-install a rule on S1 that the policy does not call for.
        let logical = fabric.logical_rules_for(sample::S3)[0];
        let foreign = logical.rule;
        let mut tcam = fabric.collect_tcam();
        tcam.get_mut(&sample::S1).unwrap().push(foreign);
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &tcam);
        let s1 = &result.per_switch[&sample::S1];
        assert!(!s1.equivalent);
        assert!(s1.missing_rules.is_empty());
        assert_eq!(s1.unexpected_rules, vec![foreign]);
    }

    #[test]
    fn switch_known_only_from_tcam_is_checked() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let mut tcam = fabric.collect_tcam();
        // A stray switch with a leftover rule and no logical rules.
        let stray = scout_policy::SwitchId::new(99);
        tcam.insert(stray, vec![fabric.logical_rules()[0].rule]);
        let result = checker.check_network(fabric.logical_rules(), &tcam);
        assert!(result.per_switch.contains_key(&stray));
        assert!(!result.per_switch[&stray].equivalent);
    }

    #[test]
    fn repeated_checks_reuse_the_persistent_cache() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let tcam = fabric.collect_tcam();
        let first = checker.check_network(fabric.logical_rules(), &tcam);
        let cached_nodes = {
            let pool = checker.lock_pool();
            let worker = pool.last().expect("the check returned its worker");
            // One diagram per distinct (protocol, port range), however many
            // switches and EPG pairs carry it.
            let distinct: BTreeSet<_> = fabric
                .logical_rules()
                .iter()
                .map(|l| (l.rule.matcher.protocol, l.rule.matcher.ports))
                .collect();
            let cached: BTreeSet<_> = worker.match_cache.keys().copied().collect();
            assert_eq!(cached, distinct, "match cache must be warm and minimal");
            assert!(distinct.len() < fabric.logical_rules().len());
            worker.manager.node_count()
        };
        let second = checker.check_network(fabric.logical_rules(), &tcam);
        assert_eq!(first, second);
        let after = checker.lock_pool().last().unwrap().manager.node_count();
        assert_eq!(cached_nodes, after, "second check must not allocate nodes");
    }

    #[test]
    fn parallel_pool_stays_warm_across_calls() {
        let fabric = deployed();
        let checker = EquivalenceChecker::with_parallelism(Parallelism::Fixed(2));
        let tcam = fabric.collect_tcam();
        let first = checker.check_network(fabric.logical_rules(), &tcam);
        let warm_nodes: Vec<usize> = {
            let pool = checker.lock_pool();
            assert_eq!(pool.len(), 2, "both workers must return to the pool");
            pool.iter().map(|w| w.manager.node_count()).collect()
        };
        let second = checker.check_network(fabric.logical_rules(), &tcam);
        assert_eq!(first, second);
        let after: Vec<usize> = checker
            .lock_pool()
            .iter()
            .map(|w| w.manager.node_count())
            .collect();
        assert_eq!(warm_nodes, after, "second parallel check must hit caches");
    }

    #[test]
    fn recheck_dirty_with_fetches_only_dirty_switches() {
        let mut fabric = deployed();
        let checker = EquivalenceChecker::new();
        let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());

        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let current: BTreeSet<_> = fabric.collect_tcam().keys().copied().collect();
        let mut fetched = Vec::new();
        let incremental = checker.recheck_dirty_with(
            &baseline,
            fabric.logical_rules(),
            &current,
            &BTreeSet::from([sample::S2]),
            |s| {
                fetched.push(s);
                fabric.tcam_rules(s)
            },
        );
        assert_eq!(fetched, vec![sample::S2], "only the dirty switch is read");
        let full = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert_eq!(incremental, full);
    }

    #[test]
    fn parallel_and_sequential_results_agree() {
        let mut fabric = deployed();
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        fabric
            .corrupt_tcam(sample::S3, 0, CorruptionKind::SrcEpgBit)
            .unwrap();
        let logical = fabric.logical_rules();
        let tcam = fabric.collect_tcam();

        let sequential = EquivalenceChecker::with_parallelism(Parallelism::Sequential)
            .check_network(logical, &tcam);
        for threads in [2usize, 3, 8] {
            let parallel = EquivalenceChecker::with_parallelism(Parallelism::Fixed(threads))
                .check_network(logical, &tcam);
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn recheck_dirty_matches_full_check() {
        let mut fabric = deployed();
        let checker = EquivalenceChecker::new();
        let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());

        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let tcam = fabric.collect_tcam();
        let full = checker.check_network(fabric.logical_rules(), &tcam);
        let incremental = checker.recheck_dirty(
            &baseline,
            fabric.logical_rules(),
            &tcam,
            &BTreeSet::from([sample::S2]),
        );
        assert_eq!(full, incremental);
        assert!(!incremental.is_consistent());
    }

    #[test]
    fn recheck_dirty_handles_added_and_removed_switches() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());

        // S1 disappears from the snapshot; a stray switch appears.
        let mut tcam = fabric.collect_tcam();
        tcam.remove(&sample::S1);
        let stray = scout_policy::SwitchId::new(77);
        tcam.insert(stray, vec![fabric.logical_rules()[0].rule]);
        // Restrict the logical rules to the remaining switches so S1 truly
        // vanishes from the network.
        let logical: Vec<_> = fabric
            .logical_rules()
            .iter()
            .filter(|l| l.switch != sample::S1)
            .copied()
            .collect();

        let full = checker.check_network(&logical, &tcam);
        let incremental = checker.recheck_dirty(&baseline, &logical, &tcam, &BTreeSet::new());
        assert_eq!(full, incremental);
        assert!(!incremental.per_switch.contains_key(&sample::S1));
        assert!(incremental.per_switch.contains_key(&stray));
    }

    #[test]
    fn recheck_with_empty_dirty_set_is_a_cheap_clone() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let tcam = fabric.collect_tcam();
        let baseline = checker.check_network(fabric.logical_rules(), &tcam);
        let again =
            checker.recheck_dirty(&baseline, fabric.logical_rules(), &tcam, &BTreeSet::new());
        assert_eq!(baseline, again);
    }

    #[test]
    fn cache_stats_accumulate_across_checks() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let tcam = fabric.collect_tcam();
        checker.check_network(fabric.logical_rules(), &tcam);
        let first = checker.cache_stats();
        assert!(first.misses > 0, "a cold check must miss");
        checker.check_network(fabric.logical_rules(), &tcam);
        let second = checker.cache_stats();
        assert!(second.hits > first.hits, "a repeat check must hit");
        assert!(second.misses >= first.misses);
    }

    #[test]
    fn worker_count_resolves_the_policy() {
        assert_eq!(Parallelism::Sequential.worker_count(100), 1);
        assert_eq!(Parallelism::Fixed(4).worker_count(100), 4);
        assert_eq!(Parallelism::Fixed(4).worker_count(2), 2);
        assert_eq!(Parallelism::Fixed(0).worker_count(5), 1);
        assert_eq!(Parallelism::Fixed(3).worker_count(0), 1);
        assert_eq!(Parallelism::Auto.worker_count(1), 1);
        assert!(Parallelism::Auto.worker_count(100) >= 1);
        // Ceil-sized ranges run out before the eighth thread gets one.
        assert_eq!(Parallelism::Fixed(8).worker_count(33), 7);
    }

    #[test]
    fn fan_out_covers_every_item_once_in_order() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let caller = thread::current().id();
        for items in [0usize, 1, 7, 8, 33] {
            let policies = std::iter::once(Parallelism::Sequential)
                .chain((1..=items + 2).map(Parallelism::Fixed));
            for policy in policies {
                let workers = policy.worker_count(items);
                assert!(workers <= items.max(1), "{policy:?} over {items}");
                let calls = AtomicUsize::new(0);
                let outputs = policy.fan_out(items, |worker, range| {
                    calls.fetch_add(1, Ordering::Relaxed);
                    (worker, range, thread::current().id())
                });
                assert_eq!(calls.into_inner(), workers, "{policy:?} over {items}");
                assert_eq!(outputs.len(), workers);
                // Output `w` is worker `w`'s, and the ranges concatenate to
                // `0..items`: contiguous, disjoint, in order, none empty.
                for (position, (worker, range, _)) in outputs.iter().enumerate() {
                    assert_eq!(*worker, position);
                    assert!(!range.is_empty() || items == 0, "{policy:?} over {items}");
                }
                let covered: Vec<usize> = outputs.iter().flat_map(|o| o.1.clone()).collect();
                assert_eq!(covered, (0..items).collect::<Vec<_>>(), "{policy:?}");
                // A single range never leaves the calling thread.
                if workers == 1 {
                    assert_eq!(outputs[0].2, caller);
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "worker 2 failed")]
    fn fan_out_propagates_a_worker_panic() {
        Parallelism::Fixed(4).fan_out(8, |worker, _| {
            assert!(worker != 2, "worker {worker} failed");
        });
    }

    #[test]
    fn consistent_constructor_matches_a_real_clean_check() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        for (&switch, r) in &result.per_switch {
            assert_eq!(r, &SwitchCheckResult::consistent(switch));
        }
    }
}
