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
//!   of switches, asking a caller's closures for each switch's logical and
//!   TCAM rules inside the workers, so a caller that compiles rules on demand
//!   compiles them in parallel. [`EquivalenceChecker::check_network`] feeds
//!   it from a whole rule vector grouped by switch once (`O(total rules)`).
//! * **Parallel checking** — per-switch checks are independent, so they
//!   are split across worker threads by [`Parallelism::fan_out`], whose
//!   first range runs on the caller. Under [`Parallelism::Auto`] a check
//!   decides by rule work, not switch count: it folds switches on the
//!   caller until `AUTO_INLINE_RULES` (8 192) rules are folded and fans out
//!   only what is left, so a front of small switches spawns nothing.
//!   Results are deterministic regardless of thread count.
//! * **Incremental re-checking** — [`EquivalenceChecker::recheck_in_place`]
//!   updates a previous [`NetworkCheckResult`] where it stands: it checks
//!   the switches its caller names as changed or added and drops the ones
//!   named as vanished, so clean switches cost nothing at all. A switch
//!   whose logical rules stayed and whose table changed only in the classes
//!   a [`ClassDiff`] of its old and new table names is re-checked from its
//!   previous result: those classes are folded on both sides, every other
//!   class keeps its entries, and a diff that names no class (a table
//!   reordered within its tie groups) costs no fold and no logical rules.
//!   A diff that names most classes folds the switch whole.
//!   A whole-switch check is the same fold over every class, and
//!   [`CheckWork`] counts the switches compiled and the classes and rules
//!   folded. [`EquivalenceChecker::recheck_dirty_with`] is a copying form
//!   that works the changed switches out from a whole rule vector.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet};
use std::num::NonZeroUsize;
use std::ops::{AddAssign, Range};
use std::panic::resume_unwind;
use std::sync::OnceLock;
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

/// Under [`Parallelism::Auto`], [`Parallelism::fan_out`] runs fewer items
/// than this on the calling thread. It is the item-count floor for drivers
/// whose items are whole scenarios or tenants; the checker first applies its
/// rule grain ([`AUTO_INLINE_RULES`]) and hands this floor only what is left.
const AUTO_PARALLEL_THRESHOLD: usize = 8;

/// Under [`Parallelism::Auto`], [`EquivalenceChecker::check_each`] folds
/// switches on the calling thread until it has folded this many rules
/// (logical plus TCAM), and only then fans the remaining switches out.
///
/// It is 0.6–0.95 ms of cold folding. Measured in release on a
/// 2-vCPU host: a rule folds in about 74 ns cold (115 ns with the
/// session's per-switch compile inside `sides`); two scoped spawns and their
/// joins cost about 60 µs. A 50-switch `large_1k` front (3 196 rules)
/// takes about 195 µs inline. Checked back to back, two threads take it in
/// 132–715 µs (median 159), but paced as `fabric_1k` sends fronts, each to
/// idle cores, they lose: the traced front ingest (`session.front_p50_ms`)
/// is 0.60–0.71 ms inline against 0.97–1.01 ms threaded. So such a front
/// stays inline, while `paper_cluster`'s switches (about 5 600 logical and
/// 4 300 TCAM rules each) fan out after the first.
const AUTO_INLINE_RULES: usize = 8192;

/// The host's available parallelism, read once per process: each read
/// consults cgroup files (about 15 µs).
fn host_parallelism() -> usize {
    static HOST: OnceLock<usize> = OnceLock::new();
    *HOST.get_or_init(|| thread::available_parallelism().map_or(1, NonZeroUsize::get))
}

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

/// A rule's tie group: rules of one class and one priority take effect in
/// list order.
fn tie(rule: &TcamRule) -> (ClassKey, Reverse<u16>) {
    (class_of(rule), Reverse(rule.priority))
}

/// `rules` in the order the fold reads them: by class, then descending
/// priority; the stable sort keeps list order on ties, which is all the
/// first-match tie-break can see.
fn fold_order<'a>(rules: impl IntoIterator<Item = &'a TcamRule>) -> Vec<&'a TcamRule> {
    let mut order: Vec<&TcamRule> = rules.into_iter().collect();
    order.sort_by_key(|r| tie(r));
    order
}

/// The class runs of a list in fold order.
fn class_runs<'a, 'r>(order: &'a [&'r TcamRule]) -> impl Iterator<Item = &'a [&'r TcamRule]> {
    order.chunk_by(|a, b| class_of(a) == class_of(b))
}

/// A class run of one of two lists in fold order, `None` where that list
/// has no rule of the class.
type Run<'a, 'r> = Option<&'a [&'r TcamRule]>;

/// The classes of two lists in fold order, ascending, each with its run in
/// either list.
fn paired_runs<'a, 'r>(
    a: &'a [&'r TcamRule],
    b: &'a [&'r TcamRule],
) -> impl Iterator<Item = (ClassKey, Run<'a, 'r>, Run<'a, 'r>)> {
    let (mut a, mut b) = (class_runs(a).peekable(), class_runs(b).peekable());
    std::iter::from_fn(move || {
        let heads = [a.peek(), b.peek()].map(|run| run.map(|r| class_of(r[0])));
        let class = heads.into_iter().flatten().min()?;
        let of_class = |run: &&[&TcamRule]| class_of(run[0]) == class;
        Some((class, a.next_if(of_class), b.next_if(of_class)))
    })
}

/// The allowed space of a rule list in fold order, folded class by class
/// (see the module docs).
fn allowed_space(order: &[&TcamRule]) -> Vec<Span> {
    let mut space = Vec::new();
    let mut slots: [Vec<Span>; SLOTS] = Default::default();
    for class in class_runs(order) {
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

/// `items`, sorted, for membership tests by binary search.
fn sorted<T: Ord>(items: impl Iterator<Item = T>) -> Vec<T> {
    let mut items: Vec<T> = items.collect();
    items.sort_unstable();
    items
}

/// A class run in fold order with each tie group whose rules share one
/// action sorted by value: such a group allows the same space in any order,
/// while first match decides between an allow and a deny of one tie group,
/// so a mixed group keeps its list order. Two runs of a class allow the same
/// space if their canonical forms are equal.
fn canonical<'r>(run: &[&'r TcamRule]) -> Vec<&'r TcamRule> {
    let mut run = run.to_vec();
    for group in run.chunk_by_mut(|a, b| tie(a) == tie(b)) {
        if group.iter().all(|r| r.action == group[0].action) {
            group.sort_unstable();
        }
    }
    run
}

/// The classes whose rules differ between two TCAM tables of one switch.
///
/// Both tables are put in fold order and compared tie group by tie group
/// (rules of one class and one priority): a group whose rules share one
/// action as a multiset, a group with mixed actions in list order. A class
/// whose groups all match allows the same space in both tables, so a check
/// of the new table finds the same missing entries in it and the same
/// unexpected rule values. [`EquivalenceChecker::recheck_in_place`] folds
/// only the classes a diff names, or the whole switch when they are most of
/// its classes.
///
/// # Example
///
/// ```
/// use scout_equiv::ClassDiff;
/// use scout_fabric::Fabric;
/// use scout_policy::sample;
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
/// let table = fabric.tcam_rules(sample::S2);
/// let mut reordered = table.clone();
/// reordered.reverse();
/// assert!(ClassDiff::between(&table, &reordered).is_empty());
/// assert_eq!(ClassDiff::between(&table, &table[1..]).len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClassDiff {
    /// The changed classes, ascending.
    changed: Vec<ClassKey>,
    /// The classes of either table.
    classes: usize,
}

impl ClassDiff {
    /// The classes whose rules differ between `old` and `new`.
    pub fn between(old: &[TcamRule], new: &[TcamRule]) -> Self {
        let (old, new) = (fold_order(old), fold_order(new));
        let mut classes = 0;
        let changed = (paired_runs(&old, &new))
            .inspect(|_| classes += 1)
            .filter(|(_, old, new)| match (old, new) {
                // Runs of one length that are equal in list order need no
                // canonical form.
                (Some(old), Some(new)) if old.len() == new.len() => {
                    old != new && canonical(old) != canonical(new)
                }
                _ => true,
            })
            .map(|(class, ..)| class)
            .collect();
        Self { changed, classes }
    }

    /// `true` if more than half the classes of the two tables changed: a
    /// re-check then folds the switch whole, which costs less than sorting
    /// out the few classes it could keep.
    fn most_changed(&self) -> bool {
        2 * self.changed.len() > self.classes
    }

    /// `true` if no class changed.
    pub fn is_empty(&self) -> bool {
        self.changed.is_empty()
    }

    /// The number of changed classes.
    pub fn len(&self) -> usize {
        self.changed.len()
    }
}

/// The work of a check, for callers that count it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckWork {
    /// Switches whose logical rules the check asked for (a session compiles
    /// each one it is asked for).
    pub switches_compiled: usize,
    /// Classes folded: per switch, the classes with a rule folded on either
    /// side, each counted once.
    pub classes_folded: usize,
    /// Rules folded, logical plus TCAM.
    pub rules_folded: usize,
}

impl AddAssign for CheckWork {
    fn add_assign(&mut self, other: Self) {
        self.switches_compiled += other.switches_compiled;
        self.classes_folded += other.classes_folded;
        self.rules_folded += other.rules_folded;
    }
}

/// What a re-check of a switch takes from its previous result: every class
/// but the ones in `fold`, which is ascending.
struct Kept<'a> {
    previous: &'a SwitchCheckResult,
    fold: &'a [ClassKey],
}

/// The one fold: checks one switch given its (pre-filtered) logical rules,
/// folding every class, or with `kept` only the classes it names.
///
/// The folded classes of each side are folded once; the switch is
/// equivalent iff both allow the same space there and no kept class differs.
/// The missing/unexpected classification runs only for an inequivalent
/// switch and then visits every rule of the switch: a rule of a folded class
/// against its class's spaces, a rule of a kept class by whether the
/// previous result listed it.
fn compare(
    switch: SwitchId,
    logical: &[LogicalRule],
    tcam: &[TcamRule],
    kept: Option<Kept<'_>>,
) -> (SwitchCheckResult, CheckWork) {
    let folds = |rule: &TcamRule| {
        (kept.as_ref()).is_none_or(|k| k.fold.binary_search(&class_of(rule)).is_ok())
    };
    let l_order = fold_order(logical.iter().map(|l| &l.rule).filter(|r| folds(r)));
    let t_order = fold_order(tcam.iter().filter(|r| folds(r)));
    let work = CheckWork {
        switches_compiled: 1,
        classes_folded: paired_runs(&l_order, &t_order).count(),
        rules_folded: l_order.len() + t_order.len(),
    };
    let l_space = allowed_space(&l_order);
    let t_space = allowed_space(&t_order);
    // A kept class allows the same spaces as when `previous` was checked, so
    // its rules' verdicts stand; it is equivalent iff none of them was listed.
    let (kept_missing, kept_unexpected) = match &kept {
        None => (Vec::new(), Vec::new()),
        Some(k) => (
            sorted((k.previous.missing_rules.iter()).filter(|l| !folds(&l.rule))),
            sorted((k.previous.unexpected_rules.iter()).filter(|t| !folds(t))),
        ),
    };
    let mut result = SwitchCheckResult::consistent(switch);
    if l_space == t_space && kept_missing.is_empty() && kept_unexpected.is_empty() {
        return (result, work);
    }
    result.equivalent = false;
    // A logical rule is missing if part of its traffic is not allowed by the
    // deployed TCAM.
    result.missing_rules = logical
        .iter()
        .filter(|l| {
            if folds(&l.rule) {
                !Span::matched_by(&l.rule).all(|span| covers(&t_space, span))
            } else {
                kept_missing.binary_search(l).is_ok()
            }
        })
        .copied()
        .collect();
    // A deployed rule is unexpected if it allows traffic the policy does not
    // allow.
    result.unexpected_rules = tcam
        .iter()
        .filter(|t| t.action == Action::Allow)
        .filter(|t| {
            if folds(t) {
                !Span::matched_by(t)
                    .all(|span| overlap(&t_space, span).all(|allowed| covers(&l_space, allowed)))
            } else {
                kept_unexpected.binary_search(t).is_ok()
            }
        })
        .copied()
        .collect();
    (result, work)
}

/// Re-checks a switch from `previous`, its result before its table changed
/// in `diff`'s classes alone and its logical rules not at all.
///
/// With no class changed, every verdict stands: `equivalent` and the
/// missing rules are kept, and the unexpected rules are the new table's
/// rules, in list order, that the previous result listed; the logical rules
/// are never asked for. With most classes changed the switch is checked
/// whole. Otherwise the changed classes are folded, and so is every class
/// whose logical rules hold a deny: [`compare`] takes a kept class to be
/// equivalent iff the previous result lists none of its rules, which holds
/// only while the class's logical rules all allow (a logical deny is
/// missing even from an equivalent class). Compiled policies hold no deny.
fn recheck_classes<L: AsRef<[LogicalRule]>>(
    previous: &SwitchCheckResult,
    diff: &ClassDiff,
    logical: impl FnOnce() -> L,
    tcam: &[TcamRule],
) -> (SwitchCheckResult, CheckWork) {
    if diff.is_empty() {
        let unexpected = sorted(previous.unexpected_rules.iter());
        let result = SwitchCheckResult {
            switch: previous.switch,
            equivalent: previous.equivalent,
            missing_rules: previous.missing_rules.clone(),
            unexpected_rules: (tcam.iter())
                .filter(|t| unexpected.binary_search(t).is_ok())
                .copied()
                .collect(),
        };
        return (result, CheckWork::default());
    }
    let logical = logical();
    let logical = logical.as_ref();
    if diff.most_changed() {
        return compare(previous.switch, logical, tcam, None);
    }
    let denies = logical.iter().filter(|l| l.rule.action == Action::Deny);
    let mut fold = diff.changed.clone();
    fold.extend(denies.map(|l| class_of(&l.rule)));
    fold.sort_unstable();
    fold.dedup();
    let kept = Kept {
        previous,
        fold: &fold,
    };
    compare(previous.switch, logical, tcam, Some(kept))
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
    /// Decide from the work and the machine's available parallelism (read
    /// once per process). [`EquivalenceChecker::check_each`] checks
    /// switches on the caller until it has folded `AUTO_INLINE_RULES`
    /// (8 192) rules. What is left, like the items of any other
    /// [`Parallelism::fan_out`], runs on the caller below
    /// `AUTO_PARALLEL_THRESHOLD` (8) items and on one worker per available
    /// core from there.
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
    /// `Auto` consults the machine's available parallelism (read once per
    /// process) from `AUTO_PARALLEL_THRESHOLD` (8) items on. Ranges are
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
                    host_parallelism()
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
    /// `work` receives the worker's index and its range. Range 0 always runs
    /// on the calling thread; each further range runs on a scoped thread of
    /// its own, spawned before range 0 starts, so `work` may borrow from the
    /// caller and a single range spawns nothing. A panicking worker's panic,
    /// range 0's included, is re-raised on the caller once every worker has
    /// finished.
    #[allow(clippy::disallowed_methods)] // the one `thread::scope` clippy.toml exempts
    pub fn fan_out<T, F>(self, items: usize, work: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, Range<usize>) -> T + Sync,
    {
        let (workers, range_len) = self.split(items);
        let range = |worker: usize| worker * range_len..((worker + 1) * range_len).min(items);
        // A panic of range 0 leaves the closure with the spawned workers
        // unjoined; `thread::scope` waits for them before re-raising it.
        thread::scope(|scope| {
            let work = &work;
            let spawned: Vec<_> = (1..workers)
                .map(|worker| {
                    let range = range(worker);
                    scope.spawn(move || work(worker, range))
                })
                .collect();
            let mut outputs = Vec::with_capacity(workers);
            outputs.push(work(0, range(0)));
            for handle in spawned {
                outputs.push(handle.join().unwrap_or_else(|panic| resume_unwind(panic)));
            }
            outputs
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
        compare(switch, &for_switch, tcam, None).0
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
        let (results, _) = self.check_each(
            &switches,
            |switch| index.get(&switch).map_or(&[][..], Vec::as_slice),
            |switch| tcam.get(&switch).map_or(&[][..], Vec::as_slice),
        );
        NetworkCheckResult {
            per_switch: results.into_iter().map(|r| (r.switch, r)).collect(),
        }
    }

    /// Checks each of `switches`, sequentially or in parallel according to
    /// the configured policy, and returns the results in `switches` order
    /// with the work they took.
    ///
    /// `logical(switch)` yields the switch's logical rules and `tcam(switch)`
    /// its TCAM rules, each once per switch. They run inside the workers, so
    /// a caller that compiles a switch's rules on demand compiles them in
    /// parallel too.
    pub fn check_each<L, T, FL, FT>(
        &self,
        switches: &[SwitchId],
        logical: FL,
        tcam: FT,
    ) -> (Vec<SwitchCheckResult>, CheckWork)
    where
        L: AsRef<[LogicalRule]>,
        T: AsRef<[TcamRule]>,
        FL: Fn(SwitchId) -> L + Sync,
        FT: Fn(SwitchId) -> T + Sync,
    {
        self.check_all(switches, |s| {
            compare(s, logical(s).as_ref(), tcam(s).as_ref(), None)
        })
    }

    /// Runs `check` on each of `switches` and returns the results in
    /// `switches` order with the work they took.
    ///
    /// Under [`Parallelism::Auto`] the switches are checked on the calling
    /// thread until `AUTO_INLINE_RULES` (8 192) rules have been folded,
    /// counted from each check's work; only the rest is fanned out, so a
    /// front of small switches, or of switches re-checked by class, never
    /// pays for a spawn.
    fn check_all<F>(&self, switches: &[SwitchId], check: F) -> (Vec<SwitchCheckResult>, CheckWork)
    where
        F: Fn(SwitchId) -> (SwitchCheckResult, CheckWork) + Sync,
    {
        let mut results = Vec::with_capacity(switches.len());
        let mut work = CheckWork::default();
        if self.parallelism == Parallelism::Auto {
            for &switch in switches {
                if work.rules_folded >= AUTO_INLINE_RULES {
                    break;
                }
                let (result, done) = check(switch);
                results.push(result);
                work += done;
            }
        }
        let rest = &switches[results.len()..];
        let ranges = self.parallelism.fan_out(rest.len(), |_, range| {
            let mut work = CheckWork::default();
            let results: Vec<_> = (rest[range].iter())
                .map(|&s| {
                    let (result, done) = check(s);
                    work += done;
                    result
                })
                .collect();
            (results, work)
        });
        for (checked, done) in ranges {
            results.extend(checked);
            work += done;
        }
        (results, work)
    }

    /// The one re-check algorithm: updates `result` in place after a
    /// change and returns every switch whose entry it replaced, added or
    /// dropped, in switch order, with that entry's old value (`None` for an
    /// added switch), and the work the re-check took. A switch is dropped
    /// iff `result` no longer holds it.
    ///
    /// Every switch of `classes` that `result` holds is re-checked from its
    /// entry there, folding only the classes its diff names (see
    /// [`ClassDiff`]); every other switch of `recheck` or `classes` is
    /// checked anew. `logical` and `tcam` yield a switch's rules (see
    /// [`EquivalenceChecker::check_each`]); a class re-check whose diff
    /// names no class never asks `logical`. Every switch of `vanished` is
    /// dropped; nothing else is looked at, so clean switches cost nothing.
    ///
    /// Provided `recheck` and `classes` together hold every switch present
    /// now whose TCAM contents *or* logical rule set changed since `result`
    /// was computed (see `scout_fabric::Fabric::dirty_switches_since`) plus
    /// every switch present now that `result` lacks, each diff of `classes`
    /// compares its switch's table when `result` was computed with its table
    /// now while its logical rules stayed as they were, and `vanished` holds
    /// every switch of `result` that is no longer present, the updated
    /// `result` equals a full [`EquivalenceChecker::check_network`] of the
    /// network now. A `recheck` that misses a changed switch silently keeps
    /// its stale entry.
    pub fn recheck_in_place<L, T, FL, FT>(
        &self,
        result: &mut NetworkCheckResult,
        recheck: &BTreeSet<SwitchId>,
        classes: &BTreeMap<SwitchId, ClassDiff>,
        vanished: &[SwitchId],
        logical: FL,
        tcam: FT,
    ) -> (Vec<(SwitchId, Option<SwitchCheckResult>)>, CheckWork)
    where
        L: AsRef<[LogicalRule]>,
        T: AsRef<[TcamRule]>,
        FL: Fn(SwitchId) -> L + Sync,
        FT: Fn(SwitchId) -> T + Sync,
    {
        let mut to_check = recheck.clone();
        to_check.extend(classes.keys());
        let to_check: Vec<SwitchId> = to_check.into_iter().collect();
        let previous = &result.per_switch;
        let (checked, work) = self.check_all(&to_check, |s| {
            let tcam = tcam(s);
            match classes.get(&s).zip(previous.get(&s)) {
                Some((diff, previous)) => {
                    recheck_classes(previous, diff, || logical(s), tcam.as_ref())
                }
                None => compare(s, logical(s).as_ref(), tcam.as_ref(), None),
            }
        });
        let per_switch = &mut result.per_switch;
        let mut touched: Vec<_> = (checked.into_iter())
            .map(|r| (r.switch, per_switch.insert(r.switch, r)))
            .collect();
        touched.extend(vanished.iter().map(|&s| (s, per_switch.remove(&s))));
        touched.sort_by_key(|t| t.0);
        (touched, work)
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
        self.recheck_in_place(
            &mut result,
            &recheck,
            &BTreeMap::new(),
            &vanished,
            |s| {
                let run = runs.binary_search_by_key(&s, |r| r.0);
                run.map_or(&[][..], |i| runs[i].1)
            },
            |s| &tcams[&s],
        );
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

    /// `rules` logical rules on `switch`: copies of `template`, one port
    /// apart over five source EPGs. An odd switch's TCAM lost every fifth.
    fn synthetic_switch(
        template: LogicalRule,
        switch: SwitchId,
        rules: usize,
    ) -> (Vec<LogicalRule>, Vec<TcamRule>) {
        let logical: Vec<LogicalRule> = (0..rules)
            .map(|i| {
                let mut rule = template;
                rule.switch = switch;
                rule.rule.matcher.src_epg = EpgId::new((i % 5) as u32);
                rule.rule.matcher.ports = scout_policy::PortRange::single((i / 5) as u16);
                rule
            })
            .collect();
        let tcam = (logical.iter().enumerate())
            .filter(|(i, _)| switch.raw().is_multiple_of(2) || !i.is_multiple_of(5))
            .map(|(_, l)| l.rule)
            .collect();
        (logical, tcam)
    }

    /// The rule grain of `Auto` only moves work between threads: for every
    /// policy, `check_each` and `recheck_in_place` return the same results
    /// in the same order, whether the list is empty, one switch outgrows the
    /// grain, or the grain is crossed mid-way with switches left to fan out;
    /// vanished switches are dropped alike.
    #[test]
    fn the_auto_rule_grain_changes_no_result() {
        let template = deployed().logical_rules()[0];
        let per_switch = AUTO_INLINE_RULES / 32;
        let lists: [Vec<usize>; 4] = [
            vec![],
            vec![AUTO_INLINE_RULES + 1],
            vec![per_switch; 40],
            vec![AUTO_INLINE_RULES, 3, 1, 0, 7, 2, 9, 4, 5, 6, 8],
        ];
        let vanished: Vec<SwitchId> = (1000..1003).map(SwitchId::new).collect();
        for sizes in lists {
            let network: BTreeMap<SwitchId, _> = (sizes.iter().enumerate())
                .map(|(i, &rules)| {
                    let switch = SwitchId::new(i as u32);
                    (switch, synthetic_switch(template, switch, rules))
                })
                .collect();
            let switches: Vec<SwitchId> = network.keys().copied().collect();
            let logical = |s| network[&s].0.as_slice();
            let tcam = |s| network[&s].1.as_slice();
            let mut baseline = NetworkCheckResult::new();
            for &s in switches.iter().step_by(2).chain(&vanished) {
                baseline
                    .per_switch
                    .insert(s, SwitchCheckResult::consistent(s));
            }
            let recheck: BTreeSet<SwitchId> = switches.iter().copied().collect();

            let run = |policy| {
                let checker = EquivalenceChecker::with_parallelism(policy);
                let each = checker.check_each(&switches, logical, tcam);
                let mut result = baseline.clone();
                let touched = checker.recheck_in_place(
                    &mut result,
                    &recheck,
                    &BTreeMap::new(),
                    &vanished,
                    logical,
                    tcam,
                );
                (each, result, touched)
            };
            let sequential = run(Parallelism::Sequential);
            let ((each, _), result, (touched, _)) = &sequential;
            let order: Vec<SwitchId> = each.iter().map(|r| r.switch).collect();
            assert_eq!(order, switches);
            assert_eq!(result.per_switch.len(), switches.len());
            assert_eq!(touched.len(), switches.len() + vanished.len());
            for policy in [
                Parallelism::Auto,
                Parallelism::Fixed(2),
                Parallelism::Fixed(3),
            ] {
                assert_eq!(run(policy), sequential, "{policy:?} over {sizes:?}");
            }
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
        let (touched, _) = checker.recheck_in_place(
            &mut result,
            &BTreeSet::from([sample::S2, stray]),
            &BTreeMap::new(),
            &[sample::S1],
            |s| {
                let rules: Vec<_> = logical.iter().filter(|l| l.switch == s).copied().collect();
                rules
            },
            |s| tcam[&s].as_slice(),
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
                // Range 0 always runs on the calling thread, every other
                // range on a thread of its own.
                let threads: std::collections::HashSet<_> = outputs.iter().map(|o| o.2).collect();
                assert_eq!(outputs[0].2, caller, "{policy:?} over {items}");
                assert_eq!(threads.len(), workers, "{policy:?} over {items}");
            }
        }
    }

    /// A worker's panic reaches the caller with its own payload, and only
    /// once every spawned worker has finished: whether it is a spawned
    /// worker's or worker 0's, which runs on the caller. The other workers
    /// finish only after the failing one has started to panic.
    #[test]
    fn fan_out_propagates_a_worker_panic() {
        use std::panic::{catch_unwind, AssertUnwindSafe};
        use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
        for failing in [2, 0] {
            let failed = AtomicBool::new(false);
            let finished = AtomicUsize::new(0);
            let panic = catch_unwind(AssertUnwindSafe(|| {
                Parallelism::Fixed(4).fan_out(8, |worker, _| {
                    failed.fetch_or(worker == failing, Ordering::SeqCst);
                    assert!(worker != failing, "worker {worker} failed");
                    while !failed.load(Ordering::SeqCst) {
                        thread::yield_now();
                    }
                    finished.fetch_add(1, Ordering::SeqCst);
                })
            }))
            .expect_err("the failing worker's panic is re-raised");
            let message = panic.downcast_ref::<String>().map(String::as_str);
            assert_eq!(message, Some(format!("worker {failing} failed").as_str()));
            assert_eq!(finished.into_inner(), 3, "worker {failing} failed");
        }
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
