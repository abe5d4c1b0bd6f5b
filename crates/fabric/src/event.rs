//! Typed fabric telemetry: the event stream a continuously-running monitor
//! ingests instead of whole-fabric snapshots.
//!
//! The paper describes SCOUT as a *service*: the controller streams policy
//! changes into it and switches stream their TCAM and fault state, while the
//! monitor keeps its own view of the deployment current. This module models
//! that stream:
//!
//! * [`FabricEvent`] — one typed delta: a policy-universe installation (which
//!   also carries switch churn, since switches are universe objects; the
//!   universe travels as a shared `Arc`, so fabric, event and every view that
//!   applies it hold one allocation), a TCAM
//!   snapshot collected from one switch, appended controller change-log
//!   entries, or raised/cleared device fault-log entries.
//! * [`EventBatch`] — the unit of ingestion: the events of one epoch, with an
//!   explicit epoch number so consumers can enforce ordered, gap-free
//!   delivery.
//! * [`FabricView`] — the monitor-side mirror: exactly the five artifacts an
//!   analysis consumes (universe, compiled logical rules, per-switch TCAM,
//!   change log, fault log), kept current by [`FabricView::apply`].
//! * [`FabricProbe`] — the telemetry source for a simulated [`Fabric`]: it
//!   remembers what was last observed and diffs the live fabric into the
//!   minimal event batch ([`FabricProbe::observe`]).
//! * [`FullSync`] — the recovery payload: a complete snapshot of the fabric's
//!   artifacts, produced by [`FabricProbe::full_resync`] when a consumer
//!   reports lost deltas and delta repair is impossible (an append-only log
//!   stream cannot re-express entries whose delivery window has passed).
//!
//! The contract tying these together: a view kept current with a probe's
//! observations holds artifacts bit-identical to the observed fabric's, so an
//! analysis of the view is bit-identical to an analysis of the fabric. When
//! batches are lost in transit the probe's cursors have still advanced, so the
//! stream alone can never catch the consumer up again — recovery goes through
//! [`FabricProbe::full_resync`], after which the incremental contract holds
//! from the resync point onward.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use scout_policy::{LogicalRule, PolicyUniverse, SwitchId, TcamRule};

use crate::clock::Timestamp;
use crate::compiler;
use crate::fabric::Fabric;
use crate::logs::{ChangeLog, ChangeLogEntry, FaultLog, FaultLogEntry};

/// One typed delta of the fabric-telemetry stream.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricEvent {
    /// The controller installed a new policy universe (edits, and switch
    /// churn — switches joining or leaving are universe changes). `version`
    /// is the controller's universe version (see
    /// [`Fabric::universe_version`]); consumers key policy-derived caches on
    /// it.
    PolicyUpdate {
        /// The new policy-universe version.
        version: u64,
        /// The new policy universe, *shared*: a universe is immutable, so the
        /// producer ([`FabricProbe::observe`] or the wire decoder), the event
        /// and every [`FabricView`] that applies it hold the same allocation —
        /// applying the event bumps a refcount instead of deep-cloning tens
        /// of thousands of named objects and their dependency indexes.
        universe: Arc<PolicyUniverse>,
    },
    /// Telemetry from one switch: the full TCAM contents as collected. Sent
    /// for every switch whose deployed state may have changed since the last
    /// batch.
    TcamSync {
        /// The reporting switch.
        switch: SwitchId,
        /// Its complete TCAM contents, in table order.
        rules: Vec<TcamRule>,
    },
    /// Controller change-log entries appended since the last batch, in log
    /// order.
    ChangeEvents(Vec<ChangeLogEntry>),
    /// Device/controller fault-log activity since the last batch.
    FaultEvents {
        /// Entries appended since the last batch (carried verbatim; an entry
        /// both raised and cleared between batches arrives pre-cleared).
        raised: Vec<FaultLogEntry>,
        /// `(index, time)` pairs for previously-delivered entries that have
        /// since been cleared.
        cleared: Vec<(usize, Timestamp)>,
    },
}

impl FabricEvent {
    /// Constructs a deliberately *torn* [`FabricEvent::TcamSync`] for
    /// `switch`: the first `fresh` entries come from `current` (the live
    /// table) and the remainder from `stale` (an earlier read of the same
    /// table) — the inconsistent snapshot a real poller takes when it walks a
    /// TCAM page by page while an update lands mid-read.
    ///
    /// The hostile-telemetry scenario suite uses this to feed a monitor a
    /// mid-update read and verify the analysis settles once a clean re-read
    /// arrives; it has no role in faithful telemetry.
    pub fn torn_tcam_sync(
        switch: SwitchId,
        current: &[TcamRule],
        stale: &[TcamRule],
        fresh: usize,
    ) -> Self {
        if fresh >= current.len() {
            // The update landed before the walk reached it: a clean read.
            return FabricEvent::TcamSync {
                switch,
                rules: current.to_vec(),
            };
        }
        let mut rules: Vec<TcamRule> = current[..fresh].to_vec();
        if stale.len() > fresh {
            rules.extend_from_slice(&stale[fresh..]);
        }
        FabricEvent::TcamSync { switch, rules }
    }
}

/// The events of one epoch, with an explicit epoch number.
///
/// Epoch numbers exist so a consumer can enforce ordered, gap-free delivery:
/// a delta stream is only meaningful if every batch is applied exactly once,
/// in order.
///
/// # Example
///
/// ```
/// use scout_fabric::{EventBatch, FabricEvent};
/// use scout_policy::sample;
///
/// let heartbeat = EventBatch::empty(1);
/// assert!(heartbeat.is_empty());
///
/// let batch = EventBatch::new(
///     2,
///     vec![FabricEvent::TcamSync {
///         switch: sample::S1,
///         rules: Vec::new(),
///     }],
/// );
/// assert_eq!(batch.epoch, 2);
/// assert_eq!(batch.len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Default)]
pub struct EventBatch {
    /// The epoch this batch advances the consumer to.
    pub epoch: u64,
    /// The typed deltas of the epoch, in application order.
    pub events: Vec<FabricEvent>,
}

impl EventBatch {
    /// A batch of `events` for `epoch`.
    pub fn new(epoch: u64, events: Vec<FabricEvent>) -> Self {
        Self { epoch, events }
    }

    /// An empty batch for `epoch` — a heartbeat: nothing changed.
    pub fn empty(epoch: u64) -> Self {
        Self::new(epoch, Vec::new())
    }

    /// Number of events in the batch.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Returns `true` if the batch carries no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }
}

/// Why an event could not be applied to a [`FabricView`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApplyError {
    /// A [`FabricEvent::TcamSync`] referenced a switch the current policy
    /// universe does not contain.
    UnknownSwitch(SwitchId),
    /// A [`FabricEvent::FaultEvents`] clear referenced an entry index beyond
    /// the mirrored fault log.
    FaultIndexOutOfRange {
        /// The offending index.
        index: usize,
        /// The mirrored log's length at that point of the batch.
        len: usize,
    },
}

impl fmt::Display for ApplyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ApplyError::UnknownSwitch(switch) => {
                write!(f, "event references unknown switch {switch}")
            }
            ApplyError::FaultIndexOutOfRange { index, len } => {
                write!(
                    f,
                    "fault clear index {index} out of range (log has {len} entries)"
                )
            }
        }
    }
}

impl std::error::Error for ApplyError {}

/// The monitor-side mirror of a fabric: the five artifacts an analysis
/// consumes, kept current by applying [`FabricEvent`]s.
#[derive(Debug, Clone, PartialEq)]
pub struct FabricView {
    universe_version: u64,
    /// Shared with the fabric or event it came from (see
    /// [`FabricEvent::PolicyUpdate`]); cloning a view never copies it.
    universe: Arc<PolicyUniverse>,
    /// Switch ids of `universe`, cached for O(log n) membership checks.
    switches: BTreeSet<SwitchId>,
    logical_rules: Vec<LogicalRule>,
    tcam: BTreeMap<SwitchId, Vec<TcamRule>>,
    change_log: ChangeLog,
    fault_log: FaultLog,
}

impl FabricView {
    /// Snapshots `fabric` into a view (the session-open path: full state once,
    /// deltas thereafter).
    pub fn of(fabric: &Fabric) -> Self {
        Self {
            universe_version: fabric.universe_version(),
            universe: Arc::clone(fabric.shared_universe()),
            switches: fabric.universe().switch_ids().into_iter().collect(),
            logical_rules: fabric.logical_rules().to_vec(),
            tcam: fabric.collect_tcam(),
            change_log: fabric.change_log().clone(),
            fault_log: fabric.fault_log().clone(),
        }
    }

    /// Rebuilds a view from its primary artifacts (the wire-decode path).
    ///
    /// The switch set and compiled logical rules are derived from the
    /// universe, exactly as [`FabricView::apply`] derives them on a policy
    /// update, so a view decoded from an encoded one compares equal to it.
    pub(crate) fn from_parts(
        universe_version: u64,
        universe: PolicyUniverse,
        tcam: BTreeMap<SwitchId, Vec<TcamRule>>,
        change_log: ChangeLog,
        fault_log: FaultLog,
    ) -> Self {
        Self {
            universe_version,
            switches: universe.switch_ids().into_iter().collect(),
            logical_rules: compiler::compile(&universe),
            universe: Arc::new(universe),
            tcam,
            change_log,
            fault_log,
        }
    }

    /// The mirrored policy universe.
    pub fn universe(&self) -> &PolicyUniverse {
        &self.universe
    }

    /// The mirrored policy-universe version (see
    /// [`Fabric::universe_version`]).
    pub fn universe_version(&self) -> u64 {
        self.universe_version
    }

    /// The compiled logical rules of the mirrored universe.
    pub fn logical_rules(&self) -> &[LogicalRule] {
        &self.logical_rules
    }

    /// The switches of the mirrored universe.
    pub fn switch_set(&self) -> &BTreeSet<SwitchId> {
        &self.switches
    }

    /// The mirrored TCAM contents, keyed by switch.
    pub fn tcam(&self) -> &BTreeMap<SwitchId, Vec<TcamRule>> {
        &self.tcam
    }

    /// The mirrored TCAM contents of one switch (empty if never synced).
    pub fn tcam_of(&self, switch: SwitchId) -> Vec<TcamRule> {
        self.tcam.get(&switch).cloned().unwrap_or_default()
    }

    /// The mirrored controller change log.
    pub fn change_log(&self) -> &ChangeLog {
        &self.change_log
    }

    /// The mirrored device/controller fault log.
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Returns `true` if the view's artifacts are bit-identical to `fabric`'s
    /// — the invariant a faithfully-delivered event stream maintains.
    pub fn matches(&self, fabric: &Fabric) -> bool {
        self.universe_version == fabric.universe_version()
            && self.universe == *fabric.shared_universe()
            && self.logical_rules == fabric.logical_rules()
            && self.tcam == fabric.collect_tcam()
            && self.change_log == *fabric.change_log()
            && self.fault_log == *fabric.fault_log()
    }

    /// Checks that every event of `events` would apply cleanly, without
    /// mutating the view — the all-or-nothing guard: a consumer validates the
    /// whole batch first so a mid-batch error never leaves a half-applied
    /// mirror.
    pub fn validate(&self, events: &[FabricEvent]) -> Result<(), ApplyError> {
        // Borrowed until a policy update earlier in the batch replaces it.
        let mut switches = &self.switches;
        let mut updated: BTreeSet<SwitchId>;
        let mut fault_len = self.fault_log.len();
        for event in events {
            match event {
                FabricEvent::PolicyUpdate { universe, .. } => {
                    updated = universe.switch_ids().into_iter().collect();
                    switches = &updated;
                }
                FabricEvent::TcamSync { switch, .. } => {
                    if !switches.contains(switch) {
                        return Err(ApplyError::UnknownSwitch(*switch));
                    }
                }
                FabricEvent::ChangeEvents(_) => {}
                FabricEvent::FaultEvents { raised, cleared } => {
                    fault_len += raised.len();
                    for &(index, _) in cleared {
                        if index >= fault_len {
                            return Err(ApplyError::FaultIndexOutOfRange {
                                index,
                                len: fault_len,
                            });
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Applies one event and returns the switches whose checked state
    /// (expected rules or TCAM contents) it dirtied.
    ///
    /// Callers applying a batch should [`FabricView::validate`] it first;
    /// `apply` re-checks and fails on the same conditions, but by then earlier
    /// events of the batch have already mutated the view.
    pub fn apply(&mut self, event: &FabricEvent) -> Result<BTreeSet<SwitchId>, ApplyError> {
        let mut dirty = BTreeSet::new();
        match event {
            FabricEvent::PolicyUpdate { version, universe } => {
                let new_rules = compiler::compile(universe);
                let new_switches: BTreeSet<SwitchId> = universe.switch_ids().into_iter().collect();
                // A switch needs re-checking iff its expected rule set
                // changed; switches that left the network drop out of the
                // current set instead.
                dirty = compiler::diff_rules(&self.logical_rules, &new_rules).dirty;
                dirty.retain(|s| new_switches.contains(s));
                self.tcam.retain(|s, _| new_switches.contains(s));
                for &switch in &new_switches {
                    self.tcam.entry(switch).or_default();
                }
                self.universe_version = *version;
                self.universe = Arc::clone(universe);
                self.switches = new_switches;
                self.logical_rules = new_rules;
            }
            FabricEvent::TcamSync { switch, rules } => {
                if !self.switches.contains(switch) {
                    return Err(ApplyError::UnknownSwitch(*switch));
                }
                self.tcam.insert(*switch, rules.clone());
                dirty.insert(*switch);
            }
            FabricEvent::ChangeEvents(entries) => {
                for entry in entries {
                    self.change_log.push(entry.clone());
                }
            }
            FabricEvent::FaultEvents { raised, cleared } => {
                for entry in raised {
                    self.fault_log.push(entry.clone());
                }
                for &(index, t) in cleared {
                    if index >= self.fault_log.len() {
                        return Err(ApplyError::FaultIndexOutOfRange {
                            index,
                            len: self.fault_log.len(),
                        });
                    }
                    self.fault_log.clear(index, t);
                }
            }
        }
        Ok(dirty)
    }
}

/// A full-state synchronization: the complete set of artifacts a monitor
/// needs to rebuild its mirror from scratch.
///
/// Delta streams cannot recover from loss — a dropped [`EventBatch`] carried
/// log entries and TCAM diffs the probe's cursors have already moved past —
/// so a consumer that detects an epoch gap requests one of these instead
/// (see [`FabricProbe::full_resync`]). Conceptually it is "a fresh
/// [`FabricView::of`] snapshot shipped over the wire": applying it wholesale
/// restores the bit-identical-mirror invariant regardless of what was lost.
///
/// # Example
///
/// ```
/// use scout_fabric::{Fabric, FabricProbe, FabricView};
/// use scout_policy::sample;
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
/// let mut view = FabricView::of(&fabric);
/// let mut probe = FabricProbe::new(&fabric);
///
/// // A batch is produced but lost in transit: the view is now stale and no
/// // later delta can repair it.
/// fabric.evict_tcam(sample::S2, 1, true);
/// let _lost = probe.observe(&fabric);
/// assert!(!view.matches(&fabric));
///
/// // Full resync: replace the view wholesale and continue incrementally.
/// let sync = probe.full_resync(&fabric);
/// view = sync.into_view();
/// assert!(view.matches(&fabric));
/// assert!(probe.observe(&fabric).is_empty());
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct FullSync {
    view: FabricView,
}

impl FullSync {
    /// Snapshots `fabric` into a full synchronization.
    pub fn of(fabric: &Fabric) -> Self {
        Self {
            view: FabricView::of(fabric),
        }
    }

    /// Wraps an already-built view as a full synchronization — the decode
    /// path of the wire codec, and the constructor a serving layer uses when
    /// the fresh read arrives from a remote probe rather than a local
    /// [`Fabric`].
    pub fn from_view(view: FabricView) -> Self {
        Self { view }
    }

    /// The snapshotted artifacts.
    pub fn view(&self) -> &FabricView {
        &self.view
    }

    /// Consumes the sync into the view a monitor installs as its new mirror.
    pub fn into_view(self) -> FabricView {
        self.view
    }
}

/// The telemetry source for a simulated [`Fabric`]: diffs the live fabric
/// against what was last observed into the minimal [`FabricEvent`] batch.
///
/// In production the controller and the switches *push* these deltas; in the
/// simulator the probe plays both roles by reading the fabric's epoch/dirty
/// tracking and log cursors.
///
/// # Example
///
/// ```
/// use scout_fabric::{Fabric, FabricProbe, FabricView};
/// use scout_policy::sample;
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
/// let mut view = FabricView::of(&fabric);
/// let mut probe = FabricProbe::new(&fabric);
///
/// // The fabric drifts; one observation catches the view up exactly.
/// fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
/// for event in probe.observe(&fabric) {
///     view.apply(&event).unwrap();
/// }
/// assert!(view.matches(&fabric));
/// // Nothing further changed: the next observation is empty.
/// assert!(probe.observe(&fabric).is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct FabricProbe {
    fabric_id: u64,
    epoch: u64,
    universe_version: u64,
    change_len: usize,
    /// Cleared-state of every fault entry at the last observation.
    fault_cleared: Vec<bool>,
}

impl FabricProbe {
    /// Creates a probe that considers the current state of `fabric` already
    /// observed (pair it with a [`FabricView::of`] snapshot taken at the same
    /// moment).
    pub fn new(fabric: &Fabric) -> Self {
        Self {
            fabric_id: fabric.id(),
            epoch: fabric.epoch(),
            universe_version: fabric.universe_version(),
            change_len: fabric.change_log().len(),
            fault_cleared: fabric
                .fault_log()
                .entries()
                .iter()
                .map(|e| e.cleared_at.is_some())
                .collect(),
        }
    }

    /// Diffs `fabric` against the last observation into an event batch and
    /// advances the observation cursors. Returns an empty vector when nothing
    /// changed.
    ///
    /// # Panics
    ///
    /// Panics if `fabric` is not the fabric the probe was created on (clones
    /// have fresh identities and their own histories).
    pub fn observe(&mut self, fabric: &Fabric) -> Vec<FabricEvent> {
        assert_eq!(
            fabric.id(),
            self.fabric_id,
            "a probe observes only the fabric it was created on"
        );
        let mut events = Vec::new();

        if fabric.universe_version() != self.universe_version {
            self.universe_version = fabric.universe_version();
            events.push(FabricEvent::PolicyUpdate {
                version: self.universe_version,
                universe: Arc::clone(fabric.shared_universe()),
            });
        }

        for switch in fabric.dirty_switches_since(self.epoch) {
            events.push(FabricEvent::TcamSync {
                switch,
                rules: fabric.tcam_rules(switch),
            });
        }
        self.epoch = fabric.epoch();

        let changes = fabric.change_log().entries();
        if changes.len() > self.change_len {
            events.push(FabricEvent::ChangeEvents(
                changes[self.change_len..].to_vec(),
            ));
            self.change_len = changes.len();
        }

        let faults = fabric.fault_log().entries();
        let mut raised = Vec::new();
        let mut cleared = Vec::new();
        for (index, entry) in faults.iter().enumerate() {
            if index >= self.fault_cleared.len() {
                raised.push(entry.clone());
            } else if !self.fault_cleared[index] {
                if let Some(t) = entry.cleared_at {
                    cleared.push((index, t));
                }
            }
        }
        self.fault_cleared = faults.iter().map(|e| e.cleared_at.is_some()).collect();
        if !raised.is_empty() || !cleared.is_empty() {
            events.push(FabricEvent::FaultEvents { raised, cleared });
        }

        events
    }

    /// Like [`FabricProbe::observe`], but packages the events as an
    /// [`EventBatch`] for `epoch` — and returns `None` when nothing changed,
    /// so an idle poll emits *no batch at all* rather than an empty
    /// heartbeat. A producer using this must only advance its batch counter
    /// when a batch is actually emitted, or consumers will see phantom gaps.
    ///
    /// # Panics
    ///
    /// Panics if `fabric` is not the fabric the probe was created on.
    pub fn observe_batch(&mut self, fabric: &Fabric, epoch: u64) -> Option<EventBatch> {
        let events = self.observe(fabric);
        if events.is_empty() {
            None
        } else {
            Some(EventBatch::new(epoch, events))
        }
    }

    /// Produces a [`FullSync`] of `fabric` and resets every observation
    /// cursor to its current state — the recovery path a consumer takes after
    /// detecting an epoch gap (lost deltas).
    ///
    /// After this call the probe behaves exactly like a freshly-created one:
    /// the next [`FabricProbe::observe`] diffs against the synced state, so
    /// the incremental contract holds from the resync point onward.
    ///
    /// # Panics
    ///
    /// Panics if `fabric` is not the fabric the probe was created on.
    pub fn full_resync(&mut self, fabric: &Fabric) -> FullSync {
        assert_eq!(
            fabric.id(),
            self.fabric_id,
            "a probe resyncs only the fabric it was created on"
        );
        self.epoch = fabric.epoch();
        self.universe_version = fabric.universe_version();
        self.change_len = fabric.change_log().len();
        self.fault_cleared = fabric
            .fault_log()
            .entries()
            .iter()
            .map(|e| e.cleared_at.is_some())
            .collect();
        FullSync::of(fabric)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fabric::diff_universes;
    use crate::logs::{ChangeAction, FaultKind};
    use crate::tcam::CorruptionKind;
    use scout_policy::sample;

    fn deployed() -> Fabric {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
    }

    fn replay(view: &mut FabricView, probe: &mut FabricProbe, fabric: &Fabric) -> usize {
        let events = probe.observe(fabric);
        view.validate(&events).unwrap();
        let mut dirtied = BTreeSet::new();
        for event in &events {
            dirtied.extend(view.apply(event).unwrap());
        }
        dirtied.len()
    }

    #[test]
    fn view_snapshot_matches_the_fabric() {
        let fabric = deployed();
        let view = FabricView::of(&fabric);
        assert!(view.matches(&fabric));
        assert_eq!(view.logical_rules().len(), 12);
        assert_eq!(view.tcam_of(sample::S2).len(), 6);
        assert_eq!(view.tcam_of(SwitchId::new(999)).len(), 0);
        assert_eq!(view.switch_set().len(), 3);
    }

    #[test]
    fn probe_tracks_every_mutation_class() {
        let mut fabric = deployed();
        let mut view = FabricView::of(&fabric);
        let mut probe = FabricProbe::new(&fabric);

        // Silent TCAM loss, corruption, eviction.
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        fabric
            .corrupt_tcam(sample::S1, 0, CorruptionKind::VrfBit)
            .unwrap();
        fabric.evict_tcam(sample::S3, 1, true);
        assert!(replay(&mut view, &mut probe, &fabric) >= 3);
        assert!(view.matches(&fabric));

        // Control-plane fault + repair.
        fabric.disconnect_switch(sample::S2);
        replay(&mut view, &mut probe, &fabric);
        assert!(view.matches(&fabric));
        assert_eq!(
            view.fault_log()
                .entries_of_kind(FaultKind::SwitchUnreachable)
                .len(),
            1
        );
        fabric.repair_switch(sample::S2);
        fabric.repair_switch(sample::S1);
        fabric.repair_switch(sample::S3);
        replay(&mut view, &mut probe, &fabric);
        assert!(view.matches(&fabric));
        assert!(view.fault_log().active_at(fabric.now()).is_empty());

        // Nothing changed: empty observation.
        assert!(probe.observe(&fabric).is_empty());
    }

    #[test]
    fn policy_update_recompiles_and_prunes_removed_switches() {
        use scout_policy::{Contract, Filter, FilterEntry, FilterId, PortRange, Protocol};
        let mut fabric = deployed();
        let mut view = FabricView::of(&fabric);
        let mut probe = FabricProbe::new(&fabric);

        // Grow the policy: the App-DB contract gains a port-8443 filter.
        let base = fabric.universe().clone();
        let mut b = PolicyUniverse::builder();
        for t in base.tenants() {
            b.tenant(t.clone());
        }
        for v in base.vrfs() {
            b.vrf(v.clone());
        }
        for e in base.epgs() {
            b.epg(e.clone());
        }
        for s in base.switches() {
            b.switch(s.clone());
        }
        for ep in base.endpoints() {
            b.endpoint(ep.clone());
        }
        for f in base.filters() {
            b.filter(f.clone());
        }
        b.filter(Filter::new(
            FilterId::new(50),
            "port-8443",
            vec![FilterEntry::allow(Protocol::Tcp, PortRange::single(8443))],
        ));
        for c in base.contracts() {
            if c.id == sample::C_APP_DB {
                let mut filters = c.filters.clone();
                filters.push(FilterId::new(50));
                b.contract(Contract::new(c.id, c.name.clone(), filters));
            } else {
                b.contract(c.clone());
            }
        }
        for binding in base.bindings() {
            b.bind(*binding);
        }
        let grown = b.build().unwrap();
        assert!(!diff_universes(&base, &grown).is_empty());

        fabric.update_policy(grown);
        replay(&mut view, &mut probe, &fabric);
        assert!(view.matches(&fabric));
        assert!(view
            .change_log()
            .entries()
            .iter()
            .any(|e| e.action == ChangeAction::Modify));
    }

    #[test]
    fn unknown_switch_and_bad_fault_index_are_rejected() {
        let fabric = deployed();
        let mut view = FabricView::of(&fabric);
        let stray = SwitchId::new(99);
        let bad_sync = FabricEvent::TcamSync {
            switch: stray,
            rules: Vec::new(),
        };
        assert_eq!(
            view.validate(std::slice::from_ref(&bad_sync)),
            Err(ApplyError::UnknownSwitch(stray))
        );
        let before = view.clone();
        assert_eq!(view.apply(&bad_sync), Err(ApplyError::UnknownSwitch(stray)));
        assert_eq!(view, before, "a rejected event leaves the view untouched");

        let bad_clear = FabricEvent::FaultEvents {
            raised: Vec::new(),
            cleared: vec![(7, Timestamp::new(1))],
        };
        assert!(matches!(
            view.validate(std::slice::from_ref(&bad_clear)),
            Err(ApplyError::FaultIndexOutOfRange { index: 7, .. })
        ));
        // Error rendering is stable enough to grep in logs.
        let err = view.apply(&bad_clear).unwrap_err();
        assert!(err.to_string().contains("out of range"));
    }

    #[test]
    fn validate_accounts_for_raises_earlier_in_the_batch() {
        let fabric = deployed();
        let view = FabricView::of(&fabric);
        let t = Timestamp::new(5);
        let entry = FaultLogEntry {
            time: t,
            switch: Some(sample::S1),
            kind: FaultKind::RuleEviction,
            severity: crate::logs::Severity::Warning,
            cleared_at: None,
            message: "evicted".to_string(),
        };
        // The clear targets the entry raised in the same batch: valid.
        let batch = vec![FabricEvent::FaultEvents {
            raised: vec![entry],
            cleared: vec![(view.fault_log().len(), t)],
        }];
        assert_eq!(view.validate(&batch), Ok(()));
    }

    #[test]
    fn idle_probe_emits_no_batch_not_an_empty_one() {
        let mut fabric = deployed();
        let mut probe = FabricProbe::new(&fabric);
        // Nothing changed: no batch at all (an empty heartbeat would burn an
        // epoch number the consumer then expects to be contiguous).
        assert_eq!(probe.observe_batch(&fabric, 1), None);
        assert_eq!(probe.observe_batch(&fabric, 1), None);

        // Real drift produces a batch carrying the requested epoch…
        fabric.evict_tcam(sample::S2, 1, true);
        let batch = probe
            .observe_batch(&fabric, 1)
            .expect("drift emits a batch");
        assert_eq!(batch.epoch, 1);
        assert!(!batch.is_empty());
        // …and the cursors advanced: the follow-up poll is silent again.
        assert_eq!(probe.observe_batch(&fabric, 2), None);
    }

    #[test]
    fn probe_tracks_a_repair_cycle_exactly() {
        let mut fabric = deployed();
        let mut view = FabricView::of(&fabric);
        let mut probe = FabricProbe::new(&fabric);

        fabric.evict_tcam(sample::S2, 2, true);
        replay(&mut view, &mut probe, &fabric);
        assert!(view.matches(&fabric));

        // The repair restores the rules, clears the eviction fault and
        // appends pre-cleared audit entries; one observation must carry the
        // TCAM restoration, the clears and the new entries together.
        fabric.repair_switch(sample::S2);
        let dirtied = replay(&mut view, &mut probe, &fabric);
        assert!(dirtied >= 1, "the repaired switch is re-synced");
        assert!(view.matches(&fabric));
        assert!(view.fault_log().active_at(fabric.now()).is_empty());
        assert!(!view
            .fault_log()
            .entries_of_kind(FaultKind::Repair)
            .is_empty());
        assert!(probe.observe(&fabric).is_empty());
    }

    #[test]
    fn probe_survives_a_universe_version_bump() {
        let mut fabric = deployed();
        let mut view = FabricView::of(&fabric);
        let mut probe = FabricProbe::new(&fabric);
        let before = fabric.universe_version();

        // Re-deploying the same universe bumps the version: the probe must
        // emit the policy update (and the view track the new version) even
        // though no rule changed.
        fabric.update_policy(fabric.universe().clone());
        assert!(fabric.universe_version() > before);
        replay(&mut view, &mut probe, &fabric);
        assert!(view.matches(&fabric));
        assert_eq!(view.universe_version(), fabric.universe_version());

        // Drift *after* the bump is still observed incrementally.
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        replay(&mut view, &mut probe, &fabric);
        assert!(view.matches(&fabric));
        assert!(probe.observe(&fabric).is_empty());
    }

    #[test]
    fn full_resync_recovers_from_lost_batches() {
        let mut fabric = deployed();
        let mut view = FabricView::of(&fabric);
        let mut probe = FabricProbe::new(&fabric);

        // Two rounds of drift whose batches are lost in transit: the probe's
        // cursors advance, so the stream alone can never repair the view.
        fabric.evict_tcam(sample::S2, 1, true);
        let _lost = probe.observe(&fabric);
        fabric.disconnect_switch(sample::S3);
        fabric.remove_tcam_rules_where(sample::S3, |_| true);
        let _also_lost = probe.observe(&fabric);
        assert!(!view.matches(&fabric));
        assert!(
            probe.observe(&fabric).is_empty(),
            "nothing new to observe: the lost content is unrecoverable as deltas"
        );

        // Full resync restores the mirror invariant…
        let sync = probe.full_resync(&fabric);
        assert!(sync.view().matches(&fabric));
        view = sync.into_view();
        assert!(view.matches(&fabric));

        // …and the probe continues incrementally from the synced state.
        fabric.repair_switch(sample::S2);
        replay(&mut view, &mut probe, &fabric);
        assert!(view.matches(&fabric));
    }

    #[test]
    fn torn_tcam_sync_mixes_fresh_and_stale_pages() {
        let mut fabric = deployed();
        let stale = fabric.tcam_rules(sample::S2);
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let live = fabric.tcam_rules(sample::S2);
        assert!(live.len() < stale.len());

        // fresh = 2: the first two entries are live, the tail is the stale
        // read — a mid-update page walk.
        let torn = FabricEvent::torn_tcam_sync(sample::S2, &live, &stale, 2);
        let FabricEvent::TcamSync { switch, rules } = &torn else {
            panic!("torn read is a TcamSync");
        };
        assert_eq!(*switch, sample::S2);
        assert_eq!(rules[..2], live[..2]);
        assert_eq!(rules[2..], stale[2..]);
        assert_ne!(rules, &live, "the torn read misrepresents the live table");

        // Degenerate tears stay well-formed: fully fresh and fully stale.
        assert_eq!(
            FabricEvent::torn_tcam_sync(sample::S2, &live, &stale, live.len() + 10),
            FabricEvent::TcamSync {
                switch: sample::S2,
                rules: live.clone(),
            }
        );
        assert_eq!(
            FabricEvent::torn_tcam_sync(sample::S2, &live, &stale, 0),
            FabricEvent::TcamSync {
                switch: sample::S2,
                rules: stale.clone(),
            }
        );
    }

    #[test]
    fn probe_panics_on_a_foreign_fabric() {
        let fabric = deployed();
        let clone = fabric.clone();
        let mut probe = FabricProbe::new(&fabric);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            probe.observe(&clone);
        }));
        assert!(result.is_err(), "clones have fresh identities");
    }
}
