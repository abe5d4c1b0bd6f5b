//! The L–T equivalence checker.
//!
//! Implements the paper's "in-house equivalence checker" (§III-C): for each
//! switch it compares the traffic the logical rules allow (L-type, what the
//! controller expects) with the traffic the collected TCAM rules allow
//! (T-type, what the hardware actually holds). When the two differ it
//! reports the set of *missing rules* — logical rules whose traffic is not
//! (fully) allowed by the deployed TCAM — which is the failure evidence the
//! risk models are augmented with.
//!
//! # Exact port intervals
//!
//! The paper compares ROBDDs because a BDD can hold any ternary match. This
//! rule model has none, so the checker compares a smaller canonical form:
//!
//! * **Class slicing** — VRF, source EPG and destination EPG are exact-match
//!   fields. Rules with different `(VRF, src EPG, dst EPG)` keys (full `u32`
//!   ids) match disjoint packets, so a packet's first matching rule is always
//!   one of its own key's rules, in list order. A switch's allowed space is
//!   therefore the disjoint union of its per-key spaces, and equality and
//!   `⊆` hold iff they hold key by key.
//! * **Four interval lists per class** — inside one key a rule matches one
//!   [`Protocol`] and one inclusive [`PortRange`](scout_policy::PortRange).
//!   A class's allowed space is four sorted, disjoint, merged lists of port
//!   ranges: TCP, UDP, ICMP and every other protocol code (no rule names one,
//!   so they all behave alike; a [`Protocol::Any`] rule writes all four).
//!   Merged means adjacent ranges are joined, so the form is canonical and a
//!   switch is equivalent iff its two sides' lists are equal.
//! * **The fold** — rules take effect in the paper's order: descending
//!   priority, list order on ties, the first match deciding. The fold paints
//!   them in the reverse of that order, an allow adding its ports and a deny
//!   removing them, so the last rule painted over a port is the first one
//!   that matches it: the same space as subtracting what earlier rules
//!   covered and adding what is left of each allow.
//!
//! The reference is [`breakpoint_check`](crate::breakpoint_check), which
//! shares none of this: it evaluates both rule lists flow by flow at every
//! port where a verdict can change. `tests/sliced.rs` checks the checker's
//! results against it, list order included.
//!
//! # Pipeline
//!
//! * **Per-switch sides** — [`EquivalenceChecker::check_each`] checks a list
//!   of switches, asking a caller's closure for each switch's logical and
//!   TCAM rules inside the workers, so a caller that compiles rules on demand
//!   compiles them in parallel. [`EquivalenceChecker::check_network`] feeds
//!   it from a whole rule vector grouped by switch once (`O(total rules)`).
//! * **Parallel checking** — per-switch checks are independent; large
//!   networks are split across worker threads by [`Parallelism::fan_out`].
//!   Results are deterministic regardless of thread count.
//! * **Incremental re-checking** — [`EquivalenceChecker::recheck_in_place`]
//!   updates a previous [`NetworkCheckResult`] where it stands: it checks
//!   the switches its caller names as changed or added and drops the ones
//!   named as vanished, so clean switches cost nothing at all.
//!   [`EquivalenceChecker::recheck_dirty_with`] is a copying form that works
//!   the changed switches out from a whole rule vector.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::panic::resume_unwind;
use std::thread;

use scout_bdd::{CacheStats, NodeTableKind};
use scout_policy::{Action, EpgId, LogicalRule, Protocol, SwitchId, TcamRule, VrfId};

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

/// Fewer items than this run on the calling thread even in auto mode;
/// spawning a thread would cost more than the items save.
const AUTO_PARALLEL_THRESHOLD: usize = 8;

/// The exact-match class of a rule: `(VRF, source EPG, destination EPG)` as
/// full `u32` ids. Rules of different classes match disjoint traffic, so a
/// switch is checked one class at a time (see the module docs).
type ClassKey = (VrfId, EpgId, EpgId);

fn class_of(rule: &TcamRule) -> ClassKey {
    let m = &rule.matcher;
    (m.vrf, m.src_epg, m.dst_epg)
}

/// Protocol slots of a class's allowed space: TCP, UDP, ICMP, and every
/// other protocol code.
const SLOTS: usize = 4;

/// One run of ports `start..=end` of protocol slot `slot` in `class`.
///
/// A side's allowed space is a `Vec<Span>` in ascending order, the runs of
/// one `(class, slot)` disjoint and never adjacent; a class that allows
/// nothing has no runs. Two sides allow the same traffic iff their lists
/// are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
struct Span {
    class: ClassKey,
    slot: u8,
    start: u16,
    end: u16,
}

impl Span {
    /// What `rule` matches: one span per protocol slot it covers.
    fn matched_by(rule: &TcamRule) -> impl Iterator<Item = Span> {
        let m = rule.matcher;
        let slots = match m.protocol {
            Protocol::Tcp => 0..1,
            Protocol::Udp => 1..2,
            Protocol::Icmp => 2..3,
            Protocol::Any => 0..SLOTS as u8,
        };
        slots.map(move |slot| Span {
            class: (m.vrf, m.src_epg, m.dst_epg),
            slot,
            start: m.ports.start,
            end: m.ports.end,
        })
    }
}

/// The allowed space of an ordered rule set, folded class by class (see the
/// module docs).
fn allowed_space<'a>(rules: impl IntoIterator<Item = &'a TcamRule>) -> Vec<Span> {
    // Class, then descending priority; the stable sort keeps list order on
    // ties, which is all the first-match tie-break can see.
    let mut order: Vec<&TcamRule> = rules.into_iter().collect();
    order.sort_by_key(|r| (class_of(r), Reverse(r.priority)));

    let mut space = Vec::new();
    let mut slots: [Vec<Span>; SLOTS] = Default::default();
    for class in order.chunk_by(|a, b| class_of(a) == class_of(b)) {
        for rule in class.iter().rev() {
            for span in Span::matched_by(rule) {
                paint(&mut slots[usize::from(span.slot)], span, rule.action);
            }
        }
        for runs in &mut slots {
            space.append(runs);
        }
    }
    space
}

/// Paints `span` into the sorted, merged `runs` of its class and slot: an
/// allow adds its ports (joining every run it overlaps or touches), a deny
/// removes them (trimming or splitting the runs it overlaps).
fn paint(runs: &mut Vec<Span>, span: Span, action: Action) {
    let allow = action == Action::Allow;
    // An allow also reaches the runs that end just before or start just
    // after it; `u32` keeps `end + 1` of port 65535 from overflowing.
    let reach = u32::from(allow);
    let lo = runs.partition_point(|r| u32::from(r.end) + reach < u32::from(span.start));
    let hi = runs.partition_point(|r| u32::from(r.start) <= u32::from(span.end) + reach);
    if allow {
        if lo == hi {
            runs.insert(lo, span);
        } else {
            runs[lo] = Span {
                start: runs[lo].start.min(span.start),
                end: runs[hi - 1].end.max(span.end),
                ..span
            };
            runs.drain(lo + 1..hi);
        }
    } else if lo < hi {
        let (first, last) = (runs[lo], runs[hi - 1]);
        runs.drain(lo..hi);
        if last.end > span.end {
            runs.insert(
                lo,
                Span {
                    start: span.end + 1,
                    ..last
                },
            );
        }
        if first.start < span.start {
            runs.insert(
                lo,
                Span {
                    end: span.start - 1,
                    ..first
                },
            );
        }
    }
}

/// The runs of `space` that overlap `span`, clipped to it.
fn overlap(space: &[Span], span: Span) -> impl Iterator<Item = Span> + '_ {
    let at =
        space.partition_point(|r| (r.class, r.slot, r.end) < (span.class, span.slot, span.start));
    space[at..]
        .iter()
        .take_while(move |r| (r.class, r.slot) == (span.class, span.slot) && r.start <= span.end)
        .map(move |r| Span {
            start: r.start.max(span.start),
            end: r.end.min(span.end),
            ..span
        })
}

/// `true` if `space` allows every port of `span`. Runs are merged, so a
/// contiguous range is covered iff one run holds all of it.
fn covers(space: &[Span], span: Span) -> bool {
    overlap(space, span)
        .next()
        .is_some_and(|piece| piece == span)
}

/// Checks one switch given its (pre-filtered) logical rules.
///
/// Each side is folded once; the switch is equivalent iff both allow the
/// same space. The missing/unexpected classification runs only for an
/// inequivalent switch and then visits every rule of the switch against its
/// own class.
fn compare(switch: SwitchId, logical: &[LogicalRule], tcam: &[TcamRule]) -> SwitchCheckResult {
    let l_space = allowed_space(logical.iter().map(|l| &l.rule));
    let t_space = allowed_space(tcam);
    let mut result = SwitchCheckResult::consistent(switch);
    if l_space == t_space {
        return result;
    }
    result.equivalent = false;
    // A logical rule is missing if part of its traffic is not allowed by the
    // deployed TCAM.
    result.missing_rules = logical
        .iter()
        .filter(|l| !Span::matched_by(&l.rule).all(|span| covers(&t_space, span)))
        .copied()
        .collect();
    // A deployed rule is unexpected if it allows traffic the policy does not
    // allow.
    result.unexpected_rules = tcam
        .iter()
        .filter(|t| t.action == Action::Allow)
        .filter(|t| {
            !Span::matched_by(t)
                .all(|span| overlap(&t_space, span).all(|allowed| covers(&l_space, allowed)))
        })
        .copied()
        .collect();
    result
}

/// The workspace's one thread policy: how many workers a stage made of
/// independent items gets ([`Parallelism::worker_count`]) and how the items
/// are spread over them ([`Parallelism::fan_out`]).
///
/// The equivalence checker and the `scout-sim` drivers all fan out through
/// it, so one configured value governs every parallel stage and the split is
/// decided in one place.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Decide from the item count and the machine's available parallelism.
    #[default]
    Auto,
    /// Always run on the calling thread.
    Sequential,
    /// Use this many worker threads (at least 1, at most one per item).
    Fixed(usize),
}

impl Parallelism {
    /// The number of contiguous ranges [`Parallelism::fan_out`] splits
    /// `work_items` independent items into — one worker each.
    ///
    /// `Auto` consults the machine's available parallelism once the work is
    /// large enough to amortize spawning threads. Ranges are
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

/// The L–T equivalence checker.
///
/// The checker holds nothing but its [`Parallelism`]: every check folds its
/// switches from the rules alone, so repeated calls need no warm state and
/// a checker is free to build wherever a check runs.
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
#[derive(Debug, Default)]
pub struct EquivalenceChecker {
    parallelism: Parallelism,
}

impl EquivalenceChecker {
    /// Creates a checker with automatic parallelism.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates a checker with an explicit parallelism policy.
    pub fn with_parallelism(parallelism: Parallelism) -> Self {
        Self { parallelism }
    }

    /// Does nothing: the checker has no node table. Kept only because the
    /// stand-alone `benchmark/` package still calls it; the next
    /// benchmark-only change deletes it.
    pub fn set_node_table(&mut self, _kind: NodeTableKind) {}

    /// Does nothing: the checker has no node table to bound. Kept only
    /// because the stand-alone `benchmark/` package still calls it; the next
    /// benchmark-only change deletes it.
    pub fn set_node_budget(&mut self, _budget: usize) {}

    /// All zeros: the checker keeps no caches. Kept only because the
    /// stand-alone `benchmark/` package still reads it; the next
    /// benchmark-only change deletes it.
    pub fn cache_stats(&self) -> CacheStats {
        CacheStats::default()
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
        compare(switch, &for_switch, tcam)
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
        let switches: Vec<SwitchId> = switches.into_iter().collect();
        let results = self.check_each(&switches, |switch| {
            (
                index.get(&switch).map_or(&[][..], Vec::as_slice),
                tcam.get(&switch).map_or(&[][..], Vec::as_slice),
            )
        });
        NetworkCheckResult {
            per_switch: results.into_iter().map(|r| (r.switch, r)).collect(),
        }
    }

    /// Checks each of `switches`, sequentially or in parallel according to
    /// the configured policy, and returns the results in `switches` order.
    ///
    /// `sides(switch)` yields the switch's logical rules and its TCAM rules.
    /// It runs inside the workers, so a caller that compiles a switch's
    /// rules on demand compiles them in parallel too.
    pub fn check_each<L, T, F>(&self, switches: &[SwitchId], sides: F) -> Vec<SwitchCheckResult>
    where
        L: AsRef<[LogicalRule]>,
        T: AsRef<[TcamRule]>,
        F: Fn(SwitchId) -> (L, T) + Sync,
    {
        let results = self.parallelism.fan_out(switches.len(), |_, range| {
            switches[range]
                .iter()
                .map(|&switch| {
                    let (logical, tcam) = sides(switch);
                    compare(switch, logical.as_ref(), tcam.as_ref())
                })
                .collect::<Vec<_>>()
        });
        results.into_iter().flatten().collect()
    }

    /// The one re-check algorithm: updates `result` in place after a
    /// change and returns every switch whose entry it replaced, added or
    /// dropped, in switch order, with that entry's old value (`None` for an
    /// added switch). A switch is dropped iff `result` no longer holds it.
    ///
    /// Every switch of `recheck` is checked anew through `sides` (see
    /// [`EquivalenceChecker::check_each`]) and every switch of `vanished` is
    /// dropped; nothing else is looked at, so clean switches cost nothing.
    /// Provided `recheck` holds every switch present now whose TCAM contents
    /// *or* logical rule set changed since `result` was computed (see
    /// `scout_fabric::Fabric::dirty_switches_since`) plus every switch
    /// present now that `result` lacks, and `vanished` every switch of
    /// `result` that is no longer present, the updated `result` equals a
    /// full [`EquivalenceChecker::check_network`] of the network now. A
    /// `recheck` that misses a changed switch silently keeps its stale
    /// entry.
    pub fn recheck_in_place<L, T, F>(
        &self,
        result: &mut NetworkCheckResult,
        recheck: &BTreeSet<SwitchId>,
        vanished: &[SwitchId],
        sides: F,
    ) -> Vec<(SwitchId, Option<SwitchCheckResult>)>
    where
        L: AsRef<[LogicalRule]>,
        T: AsRef<[TcamRule]>,
        F: Fn(SwitchId) -> (L, T) + Sync,
    {
        let to_check: Vec<SwitchId> = recheck.iter().copied().collect();
        let per_switch = &mut result.per_switch;
        let mut touched: Vec<_> = self
            .check_each(&to_check, sides)
            .into_iter()
            .map(|r| (r.switch, per_switch.insert(r.switch, r)))
            .collect();
        touched.extend(vanished.iter().map(|&s| (s, per_switch.remove(&s))));
        touched.sort_by_key(|t| t.0);
        touched
    }

    /// Incrementally re-checks the network after a change, on a copy of
    /// `previous`.
    ///
    /// Kept with this signature only because the stand-alone `benchmark/`
    /// package calls it; library code calls
    /// [`EquivalenceChecker::recheck_in_place`] with the switches it knows
    /// changed. The next benchmark-only change deletes it.
    ///
    /// Starts from `previous` (a result produced by
    /// [`EquivalenceChecker::check_network`] or an earlier re-check against
    /// the *same evolving network*) and re-checks the switches listed in
    /// `dirty` and the switches present now but absent from `previous`.
    /// A switch is present if `current_switches` holds it or a rule of
    /// `logical` names it; switches that disappeared are dropped.
    /// `tcam_of` is consulted once per re-checked switch. `logical` must be
    /// grouped by ascending switch, as `scout_fabric::compile` emits it.
    ///
    /// Provided `dirty` covers every switch whose TCAM contents *or* logical
    /// rule set changed since `previous` was computed, the result is
    /// identical to a full [`EquivalenceChecker::check_network`].
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
        debug_assert!(logical.windows(2).all(|w| w[0].switch <= w[1].switch));
        let runs: Vec<(SwitchId, &[LogicalRule])> = (logical.chunk_by(|a, b| a.switch == b.switch))
            .map(|run| (run[0].switch, run))
            .collect();
        let present: BTreeSet<SwitchId> = (current_switches.iter().copied())
            .chain(runs.iter().map(|r| r.0))
            .collect();
        let checked: BTreeSet<SwitchId> = previous.per_switch.keys().copied().collect();
        let mut recheck: BTreeSet<SwitchId> = dirty.intersection(&present).copied().collect();
        recheck.extend(present.difference(&checked));
        let vanished: Vec<SwitchId> = checked.difference(&present).copied().collect();
        let tcams: BTreeMap<SwitchId, Vec<TcamRule>> =
            recheck.iter().map(|&s| (s, tcam_of(s))).collect();
        let mut result = previous.clone();
        self.recheck_in_place(&mut result, &recheck, &vanished, |s| {
            let run = runs.binary_search_by_key(&s, |r| r.0);
            (run.map_or(&[][..], |i| runs[i].1), &tcams[&s])
        });
        result
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

    /// Re-checks `dirty` against a full TCAM snapshot.
    fn recheck(
        checker: &EquivalenceChecker,
        previous: &NetworkCheckResult,
        logical: &[LogicalRule],
        tcam: &BTreeMap<SwitchId, Vec<TcamRule>>,
        dirty: &BTreeSet<SwitchId>,
    ) -> NetworkCheckResult {
        let current = tcam.keys().copied().collect();
        checker.recheck_dirty_with(previous, logical, &current, dirty, |s| {
            tcam.get(&s).cloned().unwrap_or_default()
        })
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
        let incremental = recheck(
            &checker,
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
        let incremental = recheck(&checker, &baseline, &logical, &tcam, &BTreeSet::new());
        assert_eq!(full, incremental);
        assert!(!incremental.per_switch.contains_key(&sample::S1));
        assert!(incremental.per_switch.contains_key(&stray));
    }

    #[test]
    fn recheck_in_place_returns_the_old_result_of_every_touched_switch() {
        let mut fabric = deployed();
        let checker = EquivalenceChecker::new();
        let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());

        // S2 drifts, S1 leaves the network and a stray switch joins it.
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let mut tcam = fabric.collect_tcam();
        tcam.remove(&sample::S1);
        let stray = scout_policy::SwitchId::new(77);
        tcam.insert(stray, vec![fabric.logical_rules()[0].rule]);
        let logical: Vec<_> = fabric
            .logical_rules()
            .iter()
            .filter(|l| l.switch != sample::S1)
            .copied()
            .collect();

        let mut result = baseline.clone();
        let touched = checker.recheck_in_place(
            &mut result,
            &BTreeSet::from([sample::S2, stray]),
            &[sample::S1],
            |s| {
                let rules: Vec<_> = logical.iter().filter(|l| l.switch == s).copied().collect();
                (rules, tcam[&s].as_slice())
            },
        );
        assert_eq!(result, checker.check_network(&logical, &tcam));
        let old = |s| Some(baseline.per_switch[&s].clone());
        assert_eq!(
            touched,
            vec![
                (sample::S1, old(sample::S1)),
                (sample::S2, old(sample::S2)),
                (stray, None),
            ]
        );
        assert!(!result.per_switch.contains_key(&sample::S1));
    }

    #[test]
    fn recheck_with_empty_dirty_set_is_a_cheap_clone() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let tcam = fabric.collect_tcam();
        let baseline = checker.check_network(fabric.logical_rules(), &tcam);
        let again = recheck(
            &checker,
            &baseline,
            fabric.logical_rules(),
            &tcam,
            &BTreeSet::new(),
        );
        assert_eq!(baseline, again);
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
