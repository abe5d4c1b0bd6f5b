//! Controller change logs and device fault logs.
//!
//! The SCOUT system consumes two log streams besides the rule sets (Figure 6 of
//! the paper): the *policy change log* maintained at the controller (what was
//! added/modified/deleted, and when) and the *network fault logs* generated by
//! devices and the controller (TCAM overflow, unreachable switch, agent crash,
//! …). Both are modeled here as append-only in-memory logs with query helpers
//! used by the localization and correlation engines.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use scout_policy::{ObjectId, SwitchId};

use crate::clock::Timestamp;

/// The kind of action recorded in a change-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChangeAction {
    /// The object was created / first deployed.
    Create,
    /// The object (or the rules derived from it) was modified.
    Modify,
    /// The object was removed.
    Delete,
}

impl fmt::Display for ChangeAction {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ChangeAction::Create => f.write_str("create"),
            ChangeAction::Modify => f.write_str("modify"),
            ChangeAction::Delete => f.write_str("delete"),
        }
    }
}

/// One entry of the controller's policy change log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChangeLogEntry {
    /// When the change was made.
    pub time: Timestamp,
    /// The policy object the change applies to.
    pub object: ObjectId,
    /// The action applied.
    pub action: ChangeAction,
    /// The switch the resulting instructions were pushed to, if the change was
    /// scoped to a single switch.
    pub switch: Option<SwitchId>,
    /// Free-form detail, e.g. `"add filter to contract App-DB"`.
    pub detail: String,
}

/// The controller's append-only policy change log.
///
/// Entries are indexed by object, so the per-object queries the localization
/// and correlation stages run cost the object's entries, not the log. The
/// index is derived from the entries: equality and the wire bytes are the
/// entries' alone.
#[derive(Debug, Clone, Default)]
pub struct ChangeLog {
    entries: Vec<ChangeLogEntry>,
    /// `(object, position in entries)` of every entry.
    by_object: BTreeSet<(ObjectId, usize)>,
}

impl PartialEq for ChangeLog {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for ChangeLog {}

impl ChangeLog {
    /// Creates an empty change log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an entry.
    pub fn record(
        &mut self,
        time: Timestamp,
        object: ObjectId,
        action: ChangeAction,
        switch: Option<SwitchId>,
        detail: impl Into<String>,
    ) {
        self.push(ChangeLogEntry {
            time,
            object,
            action,
            switch,
            detail: detail.into(),
        });
    }

    /// Appends an already-built entry — the replication path: a consumer
    /// mirroring the controller's log (e.g. a `FabricView` ingesting
    /// change-event deltas) appends the entries verbatim, timestamps included.
    pub fn push(&mut self, entry: ChangeLogEntry) {
        self.by_object.insert((entry.object, self.entries.len()));
        self.entries.push(entry);
    }

    /// All entries in insertion (and therefore time) order.
    pub fn entries(&self) -> &[ChangeLogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries concerning `object`, in time order.
    fn iter_for(&self, object: ObjectId) -> impl DoubleEndedIterator<Item = &ChangeLogEntry> {
        self.by_object
            .range((object, 0)..=(object, usize::MAX))
            .map(|&(_, i)| &self.entries[i])
    }

    /// Entries concerning `object`, in time order.
    pub fn entries_for(&self, object: ObjectId) -> Vec<&ChangeLogEntry> {
        self.iter_for(object).collect()
    }

    /// The most recent entry concerning `object`, if any.
    pub fn last_entry_for(&self, object: ObjectId) -> Option<&ChangeLogEntry> {
        self.iter_for(object).next_back()
    }
}

/// The physical-level fault classes that devices and the controller report.
///
/// These mirror the failure modes of §II-B of the paper and are the alphabet of
/// the correlation engine's signature library.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum FaultKind {
    /// The switch TCAM ran out of space while installing rules.
    TcamOverflow,
    /// The controller could not reach the switch over the control channel.
    SwitchUnreachable,
    /// The switch agent process crashed (possibly mid-update).
    AgentCrash,
    /// Hardware bit errors corrupted installed TCAM entries.
    TcamCorruption,
    /// The switch agent evicted installed rules (e.g. local cache pressure).
    RuleEviction,
    /// The control channel dropped instructions without a full disconnect.
    ChannelDegraded,
    /// A repair action restored switch or deployment state (always recorded
    /// pre-cleared: repairs are audit events, never active faults).
    Repair,
    /// A fault observed but not classified.
    Unknown,
}

impl FaultKind {
    /// Short machine-readable code, used in log rendering and signatures.
    pub fn code(self) -> &'static str {
        match self {
            FaultKind::TcamOverflow => "TCAM_OVERFLOW",
            FaultKind::SwitchUnreachable => "SWITCH_UNREACHABLE",
            FaultKind::AgentCrash => "AGENT_CRASH",
            FaultKind::TcamCorruption => "TCAM_CORRUPTION",
            FaultKind::RuleEviction => "RULE_EVICTION",
            FaultKind::ChannelDegraded => "CHANNEL_DEGRADED",
            FaultKind::Repair => "REPAIR",
            FaultKind::Unknown => "UNKNOWN",
        }
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.code())
    }
}

/// Severity of a fault-log entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Severity {
    /// Informational.
    Info,
    /// Degraded but functional.
    Warning,
    /// Functionality lost.
    Critical,
}

/// One entry of the device/controller fault log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultLogEntry {
    /// When the fault was raised.
    pub time: Timestamp,
    /// The switch concerned, or `None` for controller-level faults.
    pub switch: Option<SwitchId>,
    /// The fault class.
    pub kind: FaultKind,
    /// Severity of the fault.
    pub severity: Severity,
    /// When the fault was cleared, or `None` while it is still active.
    pub cleared_at: Option<Timestamp>,
    /// Free-form message, e.g. `"TCAM utilization 100%, dropping install"`.
    pub message: String,
}

impl FaultLogEntry {
    /// Returns `true` if the fault was active at time `t` (raised at or before
    /// `t` and not yet cleared by `t`).
    pub fn active_at(&self, t: Timestamp) -> bool {
        self.time <= t && self.cleared_at.is_none_or(|c| c > t)
    }
}

/// The append-only fault log (union of device-generated and controller-
/// generated faults).
///
/// Entries are indexed by switch, so correlating an object reads the entries
/// of its switches and the controller-level ones, not the log. The index is
/// derived from the entries: equality and the wire bytes are the entries'
/// alone. Its positions are `u32`s, and a copy — a clone, or a log built
/// whole from its entries, as a decode builds it — holds them without
/// growth slack.
#[derive(Debug, Clone, Default)]
pub struct FaultLog {
    entries: Vec<FaultLogEntry>,
    /// The positions in `entries` of every entry, ascending, by the switch it
    /// names (`None` for controller-level entries).
    by_switch: BTreeMap<Option<SwitchId>, Vec<u32>>,
}

impl From<Vec<FaultLogEntry>> for FaultLog {
    /// The log of `entries`, in order, as if each were
    /// [pushed](FaultLog::push): the index is counted first, so each run
    /// is allocated at its exact size.
    fn from(entries: Vec<FaultLogEntry>) -> Self {
        let mut counts: BTreeMap<Option<SwitchId>, usize> = BTreeMap::new();
        for entry in &entries {
            *counts.entry(entry.switch).or_default() += 1;
        }
        let mut by_switch: BTreeMap<_, _> = (counts.into_iter())
            .map(|(switch, n)| (switch, Vec::with_capacity(n)))
            .collect();
        for (i, entry) in entries.iter().enumerate() {
            if let Some(positions) = by_switch.get_mut(&entry.switch) {
                positions.push(position(i));
            }
        }
        Self { entries, by_switch }
    }
}

/// An entry's position as stored in the index.
fn position(index: usize) -> u32 {
    u32::try_from(index).expect("a fault log holds fewer than 2^32 entries")
}

impl PartialEq for FaultLog {
    fn eq(&self, other: &Self) -> bool {
        self.entries == other.entries
    }
}

impl Eq for FaultLog {}

impl FaultLog {
    /// Creates an empty fault log.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a fault entry and returns its index (useful for clearing).
    pub fn raise(
        &mut self,
        time: Timestamp,
        switch: Option<SwitchId>,
        kind: FaultKind,
        severity: Severity,
        message: impl Into<String>,
    ) -> usize {
        self.push(FaultLogEntry {
            time,
            switch,
            kind,
            severity,
            cleared_at: None,
            message: message.into(),
        })
    }

    /// Marks the fault at `index` as cleared at time `t`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn clear(&mut self, index: usize, t: Timestamp) {
        self.entries[index].cleared_at = Some(t);
    }

    /// Appends an already-built entry (possibly pre-cleared) and returns its
    /// index — the replication path: a consumer mirroring the device fault
    /// log appends raised entries verbatim, timestamps and all.
    pub fn push(&mut self, entry: FaultLogEntry) -> usize {
        let index = self.entries.len();
        (self.by_switch.entry(entry.switch).or_default()).push(position(index));
        self.entries.push(entry);
        index
    }

    /// All entries in insertion order.
    pub fn entries(&self) -> &[FaultLogEntry] {
        &self.entries
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` if the log is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The entries that concern one of `switches` (ascending) or no switch,
    /// in log order: the candidates of correlating an object deployed on
    /// `switches`. Costs the matching entries plus one lookup per switch of
    /// the smaller of `switches` and the switches the log names.
    pub fn entries_on(&self, switches: &[SwitchId]) -> impl Iterator<Item = &FaultLogEntry> {
        let named = self.by_switch.len();
        let mut positions: Vec<u32> = if switches.len() < named {
            (switches.iter())
                .filter_map(|&s| self.by_switch.get(&Some(s)))
                .flatten()
                .copied()
                .collect()
        } else {
            (self.by_switch.iter())
                .filter(|(s, _)| s.is_some_and(|s| switches.binary_search(&s).is_ok()))
                .flat_map(|(_, at)| at.iter().copied())
                .collect()
        };
        positions.extend(self.by_switch.get(&None).into_iter().flatten().copied());
        positions.sort_unstable();
        positions.into_iter().map(|i| &self.entries[i as usize])
    }

    /// Entries that were active at time `t`.
    pub fn active_at(&self, t: Timestamp) -> Vec<&FaultLogEntry> {
        self.entries.iter().filter(|e| e.active_at(t)).collect()
    }

    /// Entries of the given kind.
    pub fn entries_of_kind(&self, kind: FaultKind) -> Vec<&FaultLogEntry> {
        self.entries.iter().filter(|e| e.kind == kind).collect()
    }

    /// Clears every still-active entry concerning `switch` at time `t`,
    /// returning how many entries were cleared. Used by repair actions: once a
    /// switch has been restored, its outstanding faults are resolved.
    pub fn clear_active_for_switch(&mut self, switch: SwitchId, t: Timestamp) -> usize {
        let mut cleared = 0;
        for &i in self.by_switch.get(&Some(switch)).into_iter().flatten() {
            let entry = &mut self.entries[i as usize];
            if entry.cleared_at.is_none() {
                entry.cleared_at = Some(t);
                cleared += 1;
            }
        }
        cleared
    }

    /// Appends a pre-cleared [`FaultKind::Repair`] audit entry: the entry is
    /// raised and cleared at the same instant, so it is never *active* (it can
    /// never be picked up as a root cause by correlation) but remains in the
    /// log as a record of the maintenance action.
    pub fn record_repair(
        &mut self,
        time: Timestamp,
        switch: Option<SwitchId>,
        message: impl Into<String>,
    ) {
        let idx = self.raise(time, switch, FaultKind::Repair, Severity::Info, message);
        self.entries[idx].cleared_at = Some(time);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::{FilterId, VrfId};

    #[test]
    fn change_log_records_and_queries() {
        let mut log = ChangeLog::new();
        assert!(log.is_empty());
        let filter = ObjectId::Filter(FilterId::new(1));
        let vrf = ObjectId::Vrf(VrfId::new(101));
        log.record(Timestamp::new(1), vrf, ChangeAction::Create, None, "deploy");
        log.record(
            Timestamp::new(5),
            filter,
            ChangeAction::Create,
            Some(SwitchId::new(2)),
            "add filter",
        );
        log.record(
            Timestamp::new(9),
            filter,
            ChangeAction::Modify,
            Some(SwitchId::new(2)),
            "modify filter",
        );
        assert_eq!(log.len(), 3);
        assert_eq!(log.entries_for(filter).len(), 2);
        assert_eq!(
            log.last_entry_for(filter).unwrap().action,
            ChangeAction::Modify
        );
        assert_eq!(log.entries_for(vrf).len(), 1);
        assert!(log
            .last_entry_for(ObjectId::Filter(FilterId::new(9)))
            .is_none());
    }

    /// The per-object index answers exactly what a scan of the entries does,
    /// on random logs, after `clone()` and after a wire round-trip.
    #[test]
    fn indexed_queries_match_a_linear_scan() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        fn assert_matches_scan(log: &ChangeLog, seed: u64) {
            for i in 0..8 {
                let object = ObjectId::Filter(FilterId::new(i));
                let scan: Vec<&ChangeLogEntry> = log
                    .entries()
                    .iter()
                    .filter(|e| e.object == object)
                    .collect();
                assert_eq!(log.entries_for(object), scan, "seed {seed}");
                assert_eq!(
                    log.last_entry_for(object),
                    scan.last().copied(),
                    "seed {seed}"
                );
            }
        }

        for seed in 0..200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut log = ChangeLog::new();
            for t in 0..rng.gen_range(0u64..60) {
                let entry = ChangeLogEntry {
                    time: Timestamp::new(t / 3),
                    object: ObjectId::Filter(FilterId::new(rng.gen_range(0u32..6))),
                    action: ChangeAction::Modify,
                    switch: None,
                    detail: format!("change {t}"),
                };
                if rng.gen_bool(0.5) {
                    log.push(entry);
                } else {
                    log.record(entry.time, entry.object, entry.action, None, entry.detail);
                }
            }
            assert_matches_scan(&log, seed);
            assert_matches_scan(&log.clone(), seed);
            let decoded: ChangeLog = crate::wire::from_bytes(&crate::wire::to_bytes(&log))
                .expect("a change log round-trips");
            assert_eq!(decoded, log, "seed {seed}");
            assert_matches_scan(&decoded, seed);
        }
    }

    #[test]
    fn fault_activity_window() {
        let mut log = FaultLog::new();
        let idx = log.raise(
            Timestamp::new(10),
            Some(SwitchId::new(1)),
            FaultKind::SwitchUnreachable,
            Severity::Critical,
            "switch stopped responding",
        );
        assert!(log.entries()[idx].active_at(Timestamp::new(10)));
        assert!(log.entries()[idx].active_at(Timestamp::new(100)));
        assert!(!log.entries()[idx].active_at(Timestamp::new(9)));
        log.clear(idx, Timestamp::new(20));
        assert!(log.entries()[idx].active_at(Timestamp::new(15)));
        assert!(!log.entries()[idx].active_at(Timestamp::new(20)));
        assert_eq!(log.active_at(Timestamp::new(15)).len(), 1);
        assert_eq!(log.active_at(Timestamp::new(25)).len(), 0);
    }

    #[test]
    fn fault_queries_by_switch_and_kind() {
        let mut log = FaultLog::new();
        log.raise(
            Timestamp::new(1),
            Some(SwitchId::new(1)),
            FaultKind::TcamOverflow,
            Severity::Critical,
            "tcam full",
        );
        log.raise(
            Timestamp::new(2),
            Some(SwitchId::new(2)),
            FaultKind::AgentCrash,
            Severity::Critical,
            "agent crashed",
        );
        log.raise(
            Timestamp::new(3),
            None,
            FaultKind::SwitchUnreachable,
            Severity::Warning,
            "controller lost contact",
        );
        assert_eq!(log.entries_of_kind(FaultKind::AgentCrash).len(), 1);
        assert_eq!(log.len(), 3);
    }

    /// A log built whole from its entries indexes them as pushing each does,
    /// and, like a clone, holds each run of positions without slack.
    #[test]
    fn a_log_built_from_its_entries_is_indexed_without_slack() {
        let mut pushed = FaultLog::new();
        for i in 0..40u32 {
            let switch = (i % 3 != 0).then(|| SwitchId::new(i % 5));
            let t = Timestamp::new(u64::from(i));
            pushed.raise(t, switch, FaultKind::Unknown, Severity::Info, "e");
        }
        let built = FaultLog::from(pushed.entries().to_vec());
        assert_eq!(built.by_switch, pushed.by_switch);
        assert_eq!(built, pushed);
        for log in [&built, &pushed.clone()] {
            assert!(log.by_switch.values().all(|at| at.capacity() == at.len()));
        }
        let switches = [SwitchId::new(1), SwitchId::new(4)];
        assert!(built.entries_on(&switches).eq(pushed.entries_on(&switches)));
    }

    #[test]
    fn fault_kind_codes_are_unique() {
        use std::collections::BTreeSet;
        let kinds = [
            FaultKind::TcamOverflow,
            FaultKind::SwitchUnreachable,
            FaultKind::AgentCrash,
            FaultKind::TcamCorruption,
            FaultKind::RuleEviction,
            FaultKind::ChannelDegraded,
            FaultKind::Repair,
            FaultKind::Unknown,
        ];
        let codes: BTreeSet<_> = kinds.iter().map(|k| k.code()).collect();
        assert_eq!(codes.len(), kinds.len());
    }

    #[test]
    fn repair_entries_are_never_active() {
        let mut log = FaultLog::new();
        log.record_repair(Timestamp::new(10), Some(SwitchId::new(3)), "resynced");
        let entry = &log.entries()[0];
        assert_eq!(entry.kind, FaultKind::Repair);
        assert_eq!(entry.cleared_at, Some(Timestamp::new(10)));
        assert!(!entry.active_at(Timestamp::new(10)));
        assert!(!entry.active_at(Timestamp::new(11)));
        assert!(log.active_at(Timestamp::new(10)).is_empty());
    }

    #[test]
    fn clear_active_for_switch_resolves_only_that_switch() {
        let mut log = FaultLog::new();
        log.raise(
            Timestamp::new(1),
            Some(SwitchId::new(1)),
            FaultKind::AgentCrash,
            Severity::Critical,
            "crash",
        );
        log.raise(
            Timestamp::new(2),
            Some(SwitchId::new(1)),
            FaultKind::TcamOverflow,
            Severity::Critical,
            "full",
        );
        log.raise(
            Timestamp::new(3),
            Some(SwitchId::new(2)),
            FaultKind::AgentCrash,
            Severity::Critical,
            "crash",
        );
        assert_eq!(
            log.clear_active_for_switch(SwitchId::new(1), Timestamp::new(9)),
            2
        );
        // Already-cleared entries are not touched again.
        assert_eq!(
            log.clear_active_for_switch(SwitchId::new(1), Timestamp::new(10)),
            0
        );
        assert_eq!(log.active_at(Timestamp::new(10)).len(), 1);
        assert_eq!(log.entries()[2].switch, Some(SwitchId::new(2)));
        assert!(log.entries()[2].cleared_at.is_none());
    }

    #[test]
    fn change_action_display() {
        assert_eq!(ChangeAction::Create.to_string(), "create");
        assert_eq!(ChangeAction::Modify.to_string(), "modify");
        assert_eq!(ChangeAction::Delete.to_string(), "delete");
    }
}
