//! The fabric: controller, channels, agents and logs wired together.
//!
//! [`Fabric`] is the deterministic stand-in for the production environment the
//! paper evaluates on (APIC controller + Nexus switches). It owns the policy
//! universe, compiles and deploys it, keeps the controller change log and the
//! device/controller fault log, and exposes the fault-injection hooks used by
//! `scout-faults`.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use scout_policy::{LogicalRule, ObjectId, PolicyUniverse, SwitchId, TcamRule};

use crate::agent::{ApplyOutcome, SwitchAgent};
use crate::channel::{ControlChannel, LinkState};
use crate::clock::{SimClock, Timestamp};
use crate::compiler;
use crate::instruction::Instruction;
use crate::logs::{ChangeAction, ChangeLog, FaultKind, FaultLog, Severity};
use crate::tcam::CorruptionKind;

/// Counters describing the outcome of one deployment round.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeploymentReport {
    /// Instructions the controller attempted to send.
    pub instructions_sent: usize,
    /// Instructions that reached an agent.
    pub instructions_delivered: usize,
    /// Instructions fully applied (logical view + TCAM).
    pub rules_applied: usize,
    /// Instructions whose TCAM install was rejected (overflow).
    pub rules_rejected: usize,
    /// Instructions ignored because the agent had crashed.
    pub rules_ignored: usize,
}

impl DeploymentReport {
    /// Instructions lost in the control channel.
    pub fn lost_in_channel(&self) -> usize {
        self.instructions_sent - self.instructions_delivered
    }

    fn absorb(&mut self, other: DeploymentReport) {
        self.instructions_sent += other.instructions_sent;
        self.instructions_delivered += other.instructions_delivered;
        self.rules_applied += other.rules_applied;
        self.rules_rejected += other.rules_rejected;
        self.rules_ignored += other.rules_ignored;
    }
}

/// Counters describing the outcome of one repair action (see
/// [`Fabric::repair_switch`] and [`Fabric::reinstall_rules`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairReport {
    /// TCAM entries removed because no compiled rule expects them (corrupted
    /// or stale garbage).
    pub garbage_removed: usize,
    /// Missing rules successfully re-installed into the TCAM.
    pub reinstalled: usize,
    /// Re-install instructions that failed (overflow, crash, channel loss).
    pub failed: usize,
    /// Active fault-log entries resolved by the repair.
    pub faults_cleared: usize,
}

impl RepairReport {
    /// Returns `true` if the repair changed nothing (nothing was broken, or
    /// nothing could be fixed).
    pub fn is_noop(&self) -> bool {
        *self == Self::default()
    }
}

/// Process-wide source of unique fabric identities (see [`Fabric::id`]).
static NEXT_FABRIC_ID: AtomicU64 = AtomicU64::new(1);

/// Process-wide source of unique policy-universe versions (see
/// [`Fabric::universe_version`]).
static NEXT_UNIVERSE_VERSION: AtomicU64 = AtomicU64::new(1);

/// The simulated fabric: policy universe + controller + switches.
#[derive(Debug)]
pub struct Fabric {
    id: u64,
    /// The fabric this one was cloned from, if any, together with the epoch at
    /// the moment of cloning (see [`Fabric::parent_id`]).
    parent: Option<(u64, u64)>,
    /// Process-unique version of the installed policy universe (see
    /// [`Fabric::universe_version`]).
    universe_version: u64,
    /// Shared with every [`FabricView`](crate::FabricView) snapshot and
    /// [`FabricEvent::PolicyUpdate`](crate::FabricEvent::PolicyUpdate) taken
    /// of this fabric: a universe is immutable, so observers bump a refcount
    /// instead of deep-cloning it.
    universe: Arc<PolicyUniverse>,
    clock: SimClock,
    agents: BTreeMap<SwitchId, SwitchAgent>,
    channels: BTreeMap<SwitchId, ControlChannel>,
    change_log: ChangeLog,
    fault_log: FaultLog,
    logical_rules: Vec<LogicalRule>,
    /// Fault-log indices of currently-active switch-unreachable faults.
    unreachable_faults: BTreeMap<SwitchId, usize>,
    /// Monotonic counter bumped on every check-relevant mutation (TCAM change
    /// or logical-rule change).
    epoch: u64,
    /// Per-switch epoch of the last check-relevant mutation.
    tcam_versions: BTreeMap<SwitchId, u64>,
}

impl Clone for Fabric {
    /// Clones the full fabric state under a *fresh identity*.
    ///
    /// The clone diverges from the original from this point on, so giving it
    /// a new [`Fabric::id`] keeps incremental consumers (which cache state per
    /// fabric identity) from mixing the two histories up.
    fn clone(&self) -> Self {
        Self {
            id: NEXT_FABRIC_ID.fetch_add(1, Ordering::Relaxed),
            parent: Some((self.id, self.epoch)),
            universe_version: self.universe_version,
            universe: self.universe.clone(),
            clock: self.clock.clone(),
            agents: self.agents.clone(),
            channels: self.channels.clone(),
            change_log: self.change_log.clone(),
            fault_log: self.fault_log.clone(),
            logical_rules: self.logical_rules.clone(),
            unreachable_faults: self.unreachable_faults.clone(),
            epoch: self.epoch,
            tcam_versions: self.tcam_versions.clone(),
        }
    }
}

impl Fabric {
    /// Creates a fabric for `universe` with healthy agents and connected
    /// channels. Nothing is deployed yet.
    pub fn new(universe: PolicyUniverse) -> Self {
        let mut agents = BTreeMap::new();
        let mut channels = BTreeMap::new();
        for switch in universe.switches() {
            agents.insert(switch.id, SwitchAgent::new(switch.id, switch.tcam_capacity));
            channels.insert(switch.id, ControlChannel::new());
        }
        Self {
            id: NEXT_FABRIC_ID.fetch_add(1, Ordering::Relaxed),
            parent: None,
            universe_version: NEXT_UNIVERSE_VERSION.fetch_add(1, Ordering::Relaxed),
            universe: Arc::new(universe),
            clock: SimClock::new(),
            agents,
            channels,
            change_log: ChangeLog::new(),
            fault_log: FaultLog::new(),
            logical_rules: Vec::new(),
            unreachable_faults: BTreeMap::new(),
            epoch: 0,
            tcam_versions: BTreeMap::new(),
        }
    }

    // ------------------------------------------------------------------
    // Read access
    // ------------------------------------------------------------------

    /// A process-unique identity for this fabric instance.
    ///
    /// Clones receive a fresh id, so two fabrics with the same id are the same
    /// evolving network. Incremental consumers key their cached state on this.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The id of the fabric this one was cloned from, if any.
    ///
    /// A clone starts as a bit-identical snapshot of its parent (same epoch,
    /// same per-switch versions), so a consumer holding state computed against
    /// the parent — e.g. an `AnalysisSession` in `scout-core` analyzing
    /// mutated clones — can keep using it for the clone:
    /// [`Fabric::dirty_switches_since`] with an epoch observed on the parent
    /// exactly covers the clone's divergence, provided the clone was taken at
    /// or after that epoch (see [`Fabric::parent_epoch`]).
    pub fn parent_id(&self) -> Option<u64> {
        self.parent.map(|(id, _)| id)
    }

    /// The parent's epoch at the moment this fabric was cloned from it.
    ///
    /// State computed against the parent at some epoch `e` is valid for this
    /// clone iff `parent_epoch() >= e`: everything the parent did up to the
    /// clone point is baked into this fabric's per-switch versions, and
    /// everything after the clone point never happened here.
    pub fn parent_epoch(&self) -> Option<u64> {
        self.parent.map(|(_, epoch)| epoch)
    }

    /// A process-unique version of the installed policy universe.
    ///
    /// Two fabrics with the same universe version are guaranteed to hold the
    /// same policy (clones share their parent's version until either side
    /// calls [`Fabric::update_policy`], which assigns a fresh one). Consumers
    /// deriving state from the universe alone — risk models, compiled object
    /// closures — key their caches on this.
    pub fn universe_version(&self) -> u64 {
        self.universe_version
    }

    /// The current change epoch: a monotonic counter bumped whenever a
    /// switch's TCAM contents or logical rule set changes.
    ///
    /// Together with [`Fabric::dirty_switches_since`] this lets a checker
    /// re-examine only what changed since a previous run.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Switches whose TCAM contents or logical rule set changed after epoch
    /// `since` (exclusive).
    ///
    /// `dirty_switches_since(0)` returns every switch ever mutated; passing
    /// the epoch observed at the time of a previous check returns exactly the
    /// switches that check is stale for.
    pub fn dirty_switches_since(&self, since: u64) -> BTreeSet<SwitchId> {
        self.tcam_versions
            .iter()
            .filter(|(_, &v)| v > since)
            .map(|(&s, _)| s)
            .collect()
    }

    /// Records a check-relevant mutation of `switch`.
    fn mark_dirty(&mut self, switch: SwitchId) {
        self.epoch += 1;
        self.tcam_versions.insert(switch, self.epoch);
    }

    /// The current policy universe (desired state).
    pub fn universe(&self) -> &PolicyUniverse {
        &self.universe
    }

    /// The shared handle behind [`Fabric::universe`], for observers that keep
    /// the universe.
    pub(crate) fn shared_universe(&self) -> &Arc<PolicyUniverse> {
        &self.universe
    }

    /// Current simulated time.
    pub fn now(&self) -> Timestamp {
        self.clock.now()
    }

    /// Advances simulated time by `ticks`.
    pub fn advance_time(&mut self, ticks: u64) -> Timestamp {
        self.clock.advance(ticks)
    }

    /// The logical (L-type) rules of the last compile, i.e. the desired
    /// per-switch rule sets.
    pub fn logical_rules(&self) -> &[LogicalRule] {
        &self.logical_rules
    }

    /// The logical rules destined for one switch.
    pub fn logical_rules_for(&self, switch: SwitchId) -> Vec<LogicalRule> {
        self.logical_rules_on(switch).to_vec()
    }

    /// The logical rules destined for one switch, borrowed: the compile
    /// groups them by ascending switch, so two binary searches find them.
    pub fn logical_rules_on(&self, switch: SwitchId) -> &[LogicalRule] {
        let rules = &self.logical_rules;
        let start = rules.partition_point(|r| r.switch < switch);
        let len = rules[start..].partition_point(|r| r.switch == switch);
        &rules[start..start + len]
    }

    /// The TCAM (T-type) rules currently rendered on `switch`.
    pub fn tcam_rules(&self, switch: SwitchId) -> Vec<TcamRule> {
        self.agents
            .get(&switch)
            .map(|a| a.tcam_rules())
            .unwrap_or_default()
    }

    /// Collects the TCAM rules of every switch, keyed by switch id.
    pub fn collect_tcam(&self) -> BTreeMap<SwitchId, Vec<TcamRule>> {
        self.agents
            .iter()
            .map(|(&id, agent)| (id, agent.tcam_rules()))
            .collect()
    }

    /// The controller's policy change log.
    pub fn change_log(&self) -> &ChangeLog {
        &self.change_log
    }

    /// The device/controller fault log.
    pub fn fault_log(&self) -> &FaultLog {
        &self.fault_log
    }

    /// Mutable access to the fault log, used by external fault injectors.
    pub fn fault_log_mut(&mut self) -> &mut FaultLog {
        &mut self.fault_log
    }

    /// Records an admin-initiated modification of `object` in the controller
    /// change log at time `t`. External drivers (e.g. fault injectors) use this
    /// to emulate out-of-band operations on policy objects.
    pub fn record_admin_change(&mut self, t: Timestamp, object: ObjectId, detail: &str) {
        self.change_log
            .record(t, object, ChangeAction::Modify, None, detail);
    }

    /// The agent running on `switch`, if any.
    pub fn agent(&self, switch: SwitchId) -> Option<&SwitchAgent> {
        self.agents.get(&switch)
    }

    /// The control channel towards `switch`, if any.
    pub fn channel(&self, switch: SwitchId) -> Option<&ControlChannel> {
        self.channels.get(&switch)
    }

    // ------------------------------------------------------------------
    // Deployment
    // ------------------------------------------------------------------

    /// Performs the initial full deployment of the policy: records creation
    /// entries in the change log for every policy object and pushes install
    /// instructions for every compiled rule.
    pub fn deploy(&mut self) -> DeploymentReport {
        let objects: Vec<ObjectId> = self
            .universe
            .all_objects()
            .into_iter()
            .filter(|o| !o.is_switch())
            .collect();
        for object in objects {
            let t = self.clock.tick();
            self.change_log
                .record(t, object, ChangeAction::Create, None, "initial deployment");
        }
        self.logical_rules = compiler::compile(&self.universe);
        // Every switch's expected rule set just changed from "nothing" to the
        // compiled policy, so every switch needs (re-)checking.
        let switches: Vec<SwitchId> = self
            .agents
            .keys()
            .copied()
            .chain(self.logical_rules.iter().map(|r| r.switch))
            .collect();
        for switch in switches {
            self.mark_dirty(switch);
        }
        let instructions: Vec<Instruction> = self
            .logical_rules
            .iter()
            .map(|&rule| Instruction::install(rule))
            .collect();
        self.push(&instructions)
    }

    /// Replaces the policy with `new_universe`, records the object-level
    /// differences in the change log and pushes the incremental rule updates.
    pub fn update_policy(&mut self, new_universe: PolicyUniverse) -> DeploymentReport {
        let changes = diff_universes(&self.universe, &new_universe);
        for (object, action, detail) in changes {
            let t = self.clock.tick();
            self.change_log.record(t, object, action, None, detail);
        }

        // Add agents/channels for new switches, drop removed ones.
        let new_switches: BTreeSet<SwitchId> = new_universe.switch_ids().into_iter().collect();
        for switch in new_universe.switches() {
            self.agents
                .entry(switch.id)
                .or_insert_with(|| SwitchAgent::new(switch.id, switch.tcam_capacity));
            self.channels.entry(switch.id).or_default();
        }
        self.agents.retain(|id, _| new_switches.contains(id));
        self.channels.retain(|id, _| new_switches.contains(id));
        self.unreachable_faults
            .retain(|id, _| new_switches.contains(id));
        // Removed switches vanish from check results via the current switch
        // set; keeping their versions around would only leak entries.
        self.tcam_versions.retain(|id, _| new_switches.contains(id));

        let new_rules = compiler::compile(&new_universe);
        let diff = compiler::diff_rules(&self.logical_rules, &new_rules);
        let instructions: Vec<Instruction> = diff
            .removed
            .iter()
            .map(|&rule| Instruction::remove(rule))
            .chain(diff.added.iter().map(|&rule| Instruction::install(rule)))
            .collect();

        // A switch's expected rule set changed iff the diff names it; those
        // switches need re-checking even when the corresponding instruction
        // never reaches the hardware. Switches that left the network are
        // excluded — they were pruned from the version map above and must not
        // be re-inserted as ghosts.
        for switch in diff.dirty {
            if new_switches.contains(&switch) {
                self.mark_dirty(switch);
            }
        }

        self.universe = Arc::new(new_universe);
        self.universe_version = NEXT_UNIVERSE_VERSION.fetch_add(1, Ordering::Relaxed);
        self.logical_rules = new_rules;
        self.push(&instructions)
    }

    /// Re-pushes every compiled rule (a "full sync"), without touching the
    /// change log. Useful to repair drift after faults are fixed.
    pub fn resync(&mut self) -> DeploymentReport {
        let instructions: Vec<Instruction> = self
            .logical_rules
            .iter()
            .map(|&rule| Instruction::install(rule))
            .collect();
        self.push(&instructions)
    }

    fn push(&mut self, instructions: &[Instruction]) -> DeploymentReport {
        let mut report = DeploymentReport::default();
        for &instruction in instructions {
            let switch = instruction.rule.switch;
            let mut single = DeploymentReport {
                instructions_sent: 1,
                ..DeploymentReport::default()
            };
            let now = self.clock.tick();
            let delivered = self
                .channels
                .get_mut(&switch)
                .and_then(|ch| ch.transmit(instruction));
            if let Some(instruction) = delivered {
                single.instructions_delivered = 1;
                if let Some(agent) = self.agents.get_mut(&switch) {
                    match agent.apply(instruction, now, &mut self.fault_log) {
                        ApplyOutcome::Applied => single.rules_applied = 1,
                        ApplyOutcome::TcamRejected => single.rules_rejected = 1,
                        ApplyOutcome::IgnoredCrashed => single.rules_ignored = 1,
                    }
                }
                if single.rules_applied == 1 {
                    self.mark_dirty(switch);
                }
            }
            report.absorb(single);
        }
        report
    }

    // ------------------------------------------------------------------
    // Fault-injection hooks
    // ------------------------------------------------------------------

    /// Disconnects the control channel to `switch` and raises a
    /// [`FaultKind::SwitchUnreachable`] fault (as the controller's keep-alive
    /// detection would).
    pub fn disconnect_switch(&mut self, switch: SwitchId) {
        if let Some(ch) = self.channels.get_mut(&switch) {
            ch.set_state(LinkState::Disconnected);
            let t = self.clock.tick();
            let idx = self.fault_log.raise(
                t,
                Some(switch),
                FaultKind::SwitchUnreachable,
                Severity::Critical,
                format!("{switch} stopped responding to the controller"),
            );
            self.unreachable_faults.insert(switch, idx);
        }
    }

    /// Reconnects the control channel to `switch` and clears the corresponding
    /// unreachable fault, if one is active.
    pub fn reconnect_switch(&mut self, switch: SwitchId) {
        if let Some(ch) = self.channels.get_mut(&switch) {
            ch.set_state(LinkState::Connected);
            let t = self.clock.tick();
            if let Some(idx) = self.unreachable_faults.remove(&switch) {
                self.fault_log.clear(idx, t);
            }
        }
    }

    /// Degrades the channel to `switch` so that every `drop_modulo`-th
    /// instruction is lost, and raises a [`FaultKind::ChannelDegraded`] fault.
    pub fn degrade_channel(&mut self, switch: SwitchId, drop_modulo: u64) {
        if let Some(ch) = self.channels.get_mut(&switch) {
            ch.set_state(LinkState::Degraded { drop_modulo });
            let t = self.clock.tick();
            self.fault_log.raise(
                t,
                Some(switch),
                FaultKind::ChannelDegraded,
                Severity::Warning,
                format!("control channel to {switch} dropping instructions"),
            );
        }
    }

    /// Crashes the agent on `switch` immediately, raising an
    /// [`FaultKind::AgentCrash`] fault.
    pub fn crash_agent(&mut self, switch: SwitchId) {
        if let Some(agent) = self.agents.get_mut(&switch) {
            agent.crash();
            let t = self.clock.tick();
            self.fault_log.raise(
                t,
                Some(switch),
                FaultKind::AgentCrash,
                Severity::Critical,
                format!("agent on {switch} crashed"),
            );
        }
    }

    /// Makes the agent on `switch` crash after applying `n` more instructions
    /// (the fault entry is raised when the crash actually happens).
    pub fn crash_agent_after(&mut self, switch: SwitchId, n: u64) {
        if let Some(agent) = self.agents.get_mut(&switch) {
            agent.crash_after(n);
        }
    }

    /// Restarts a crashed agent.
    pub fn restart_agent(&mut self, switch: SwitchId) {
        if let Some(agent) = self.agents.get_mut(&switch) {
            agent.restart();
        }
    }

    /// Corrupts the TCAM entry at `index` on `switch` (silently — TCAM
    /// corruption produces no fault log, as in §V-B of the paper).
    pub fn corrupt_tcam(
        &mut self,
        switch: SwitchId,
        index: usize,
        kind: CorruptionKind,
    ) -> Option<(TcamRule, TcamRule)> {
        let corrupted = self
            .agents
            .get_mut(&switch)
            .and_then(|a| a.tcam_mut().corrupt(index, kind));
        if corrupted.is_some() {
            self.mark_dirty(switch);
        }
        corrupted
    }

    /// Evicts the oldest `n` TCAM entries on `switch`. When `log` is true a
    /// [`FaultKind::RuleEviction`] fault is raised; otherwise the eviction is
    /// silent (the controller stays unaware, per §II-B).
    pub fn evict_tcam(&mut self, switch: SwitchId, n: usize, log: bool) -> Vec<TcamRule> {
        let evicted = self
            .agents
            .get_mut(&switch)
            .map(|a| a.tcam_mut().evict_oldest(n))
            .unwrap_or_default();
        if !evicted.is_empty() {
            self.mark_dirty(switch);
        }
        if log && !evicted.is_empty() {
            let t = self.clock.tick();
            self.fault_log.raise(
                t,
                Some(switch),
                FaultKind::RuleEviction,
                Severity::Warning,
                format!("{} rules evicted from {switch}", evicted.len()),
            );
        }
        evicted
    }

    // ------------------------------------------------------------------
    // Repair hooks
    // ------------------------------------------------------------------

    /// Fully repairs `switch`: reconnects its control channel, restarts a
    /// crashed agent, resolves the switch's still-active fault-log entries,
    /// removes TCAM entries no compiled rule expects (corrupted or stale
    /// garbage) and re-installs the switch's missing logical rules.
    ///
    /// A [`FaultKind::Repair`] audit event is recorded (pre-cleared, so it can
    /// never be mistaken for an active fault by correlation). The change log
    /// is untouched — a repair restores the deployed state, it is not a policy
    /// change. Re-installs can still fail (e.g. a genuinely full TCAM); the
    /// returned [`RepairReport`] says what happened.
    pub fn repair_switch(&mut self, switch: SwitchId) -> RepairReport {
        if !self.agents.contains_key(&switch) {
            return RepairReport::default();
        }
        let mut report = RepairReport::default();

        // Control plane first: a repaired switch must be reachable again and
        // its agent running, or the rule re-installs below would be lost.
        self.reconnect_switch(switch);
        if let Some(agent) = self.agents.get_mut(&switch) {
            agent.restart();
            agent.reset_overflow_latch();
        }
        let t = self.clock.tick();
        report.faults_cleared = self.fault_log.clear_active_for_switch(switch, t);

        // Data plane: drop garbage, then close the gap to the compiled policy.
        let expected: BTreeSet<TcamRule> = self
            .logical_rules
            .iter()
            .filter(|r| r.switch == switch)
            .map(|r| r.rule)
            .collect();
        report.garbage_removed = self
            .remove_tcam_rules_where(switch, |r| !expected.contains(r))
            .len();
        let present: BTreeSet<TcamRule> = self.tcam_rules(switch).into_iter().collect();
        let instructions: Vec<Instruction> = self
            .logical_rules
            .iter()
            .filter(|r| r.switch == switch && !present.contains(&r.rule))
            .map(|&rule| Instruction::install(rule))
            .collect();
        let pushed = self.push(&instructions);
        report.reinstalled = pushed.rules_applied;
        report.failed = pushed.instructions_sent - pushed.rules_applied;

        let t = self.clock.tick();
        self.fault_log.record_repair(
            t,
            Some(switch),
            format!(
                "repaired {switch}: {} garbage entries removed, {} rules re-installed",
                report.garbage_removed, report.reinstalled
            ),
        );
        report
    }

    /// Re-installs a specific set of logical rules — the repair counterpart of
    /// a silent object-level deployment failure: the controller re-pushes
    /// exactly the rules that were lost.
    ///
    /// Rules no longer in the compiled policy (e.g. removed by a later policy
    /// edit) are skipped; nothing is removed. A [`FaultKind::Repair`] audit
    /// event is recorded when any instruction is pushed.
    pub fn reinstall_rules(&mut self, rules: &[LogicalRule]) -> RepairReport {
        let current: BTreeSet<LogicalRule> = self.logical_rules.iter().copied().collect();
        let instructions: Vec<Instruction> = rules
            .iter()
            .filter(|r| current.contains(r))
            .map(|&rule| Instruction::install(rule))
            .collect();
        if instructions.is_empty() {
            return RepairReport::default();
        }
        let pushed = self.push(&instructions);
        let report = RepairReport {
            garbage_removed: 0,
            reinstalled: pushed.rules_applied,
            failed: pushed.instructions_sent - pushed.rules_applied,
            faults_cleared: 0,
        };
        let t = self.clock.tick();
        self.fault_log.record_repair(
            t,
            None,
            format!(
                "re-installed {} of {} lost rules",
                report.reinstalled,
                rules.len()
            ),
        );
        report
    }

    /// Silently removes every TCAM rule on `switch` matching `predicate`
    /// (no fault log), used to emulate arbitrary object deployment failures.
    pub fn remove_tcam_rules_where<F: FnMut(&TcamRule) -> bool>(
        &mut self,
        switch: SwitchId,
        predicate: F,
    ) -> Vec<TcamRule> {
        let removed = self
            .agents
            .get_mut(&switch)
            .map(|a| a.tcam_mut().remove_where(predicate))
            .unwrap_or_default();
        if !removed.is_empty() {
            self.mark_dirty(switch);
        }
        removed
    }
}

/// Computes the object-level difference between two policy universes, in the
/// form the controller change log records it.
///
/// The entries come in this order: created objects, then deleted ones (each
/// in [`ObjectId`] order, switches excluded), then modified filters
/// (entries), contracts (filter list) and EPGs (VRF), each in id order, then
/// every contract present on both sides whose bindings changed, ascending.
/// One walk of each pair of sorted object tables produces them.
pub fn diff_universes(
    old: &PolicyUniverse,
    new: &PolicyUniverse,
) -> Vec<(ObjectId, ChangeAction, String)> {
    let (mut created, mut deleted) = (Vec::new(), Vec::new());
    let (c, d) = (&mut created, &mut deleted);
    walk_kind(
        old.vrfs(),
        new.vrfs(),
        |v| ObjectId::Vrf(v.id),
        |_, _| false,
        c,
        d,
    );
    let epgs = walk_kind(
        old.epgs(),
        new.epgs(),
        |e| ObjectId::Epg(e.id),
        |a, b| a.vrf != b.vrf,
        c,
        d,
    );
    let contracts = walk_kind(
        old.contracts(),
        new.contracts(),
        |c| ObjectId::Contract(c.id),
        |a, b| a.filters != b.filters,
        c,
        d,
    );
    let filters = walk_kind(
        old.filters(),
        new.filters(),
        |f| ObjectId::Filter(f.id),
        |a, b| a.entries != b.entries,
        c,
        d,
    );
    // Binding changes are recorded against the contract.
    let mut rebound: Vec<ObjectId> = compiler::by_key(old.bindings(), new.bindings(), |b| *b)
        .filter_map(|(was, is)| match (was, is) {
            (Some(_), Some(_)) => None,
            _ => was.or(is).map(|b| b.contract),
        })
        .filter(|&c| old.contract(c).is_some() && new.contract(c).is_some())
        .map(ObjectId::Contract)
        .collect();
    rebound.sort_unstable();
    rebound.dedup();

    let mut changes = Vec::new();
    let mut record = |objects: Vec<ObjectId>, action: ChangeAction, detail: &str| {
        changes.extend(objects.into_iter().map(|o| (o, action, detail.to_string())));
    };
    record(created, ChangeAction::Create, "object created");
    record(deleted, ChangeAction::Delete, "object deleted");
    record(filters, ChangeAction::Modify, "filter entries changed");
    record(
        contracts,
        ChangeAction::Modify,
        "contract filter list changed",
    );
    record(epgs, ChangeAction::Modify, "epg moved to a different vrf");
    record(rebound, ChangeAction::Modify, "contract bindings changed");
    changes
}

/// Walks one kind's two id-sorted object tables together: pushes the ids
/// only `new` holds to `created` and those only `old` holds to `deleted`,
/// and returns the ids of the objects `modified` tells apart.
fn walk_kind<'a, T: 'a>(
    old: impl IntoIterator<Item = &'a T>,
    new: impl IntoIterator<Item = &'a T>,
    id: impl Fn(&T) -> ObjectId,
    modified: impl Fn(&T, &T) -> bool,
    created: &mut Vec<ObjectId>,
    deleted: &mut Vec<ObjectId>,
) -> Vec<ObjectId> {
    let mut changed = Vec::new();
    for (was, is) in compiler::by_key(old, new, &id) {
        match (was, is) {
            (None, Some(object)) => created.push(id(object)),
            (Some(object), None) => deleted.push(id(object)),
            (Some(a), Some(b)) if modified(a, b) => changed.push(id(a)),
            _ => {}
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::{sample, Contract, Filter, FilterEntry, PortRange, Protocol};
    use scout_policy::{ContractId, FilterId};

    fn deployed_three_tier() -> Fabric {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
    }

    #[test]
    fn deploy_renders_expected_tcam_rules() {
        let fabric = deployed_three_tier();
        assert_eq!(fabric.tcam_rules(sample::S1).len(), 2);
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 6);
        assert_eq!(fabric.tcam_rules(sample::S3).len(), 4);
        assert_eq!(fabric.logical_rules().len(), 12);
        assert_eq!(fabric.logical_rules_for(sample::S2).len(), 6);
    }

    #[test]
    fn deploy_records_create_change_entries() {
        let fabric = deployed_three_tier();
        // 1 vrf + 3 epgs + 2 contracts + 2 filters = 8 creation entries.
        assert_eq!(fabric.change_log().len(), 8);
        assert!(fabric
            .change_log()
            .entries()
            .iter()
            .all(|e| e.action == ChangeAction::Create));
    }

    #[test]
    fn healthy_deployment_reports_full_delivery() {
        let mut fabric = Fabric::new(sample::three_tier());
        let report = fabric.deploy();
        assert_eq!(report.instructions_sent, 12);
        assert_eq!(report.instructions_delivered, 12);
        assert_eq!(report.rules_applied, 12);
        assert_eq!(report.rules_rejected, 0);
        assert_eq!(report.lost_in_channel(), 0);
        assert!(fabric.fault_log().is_empty());
    }

    #[test]
    fn disconnected_switch_receives_nothing_and_raises_fault() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.disconnect_switch(sample::S2);
        let report = fabric.deploy();
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 0);
        assert_eq!(fabric.tcam_rules(sample::S1).len(), 2);
        assert_eq!(report.lost_in_channel(), 6);
        let faults = fabric
            .fault_log()
            .entries_of_kind(FaultKind::SwitchUnreachable);
        assert_eq!(faults.len(), 1);
        assert_eq!(faults[0].switch, Some(sample::S2));
        // Reconnect clears the fault and a resync repairs the switch.
        fabric.reconnect_switch(sample::S2);
        assert!(fabric.fault_log().entries()[0].cleared_at.is_some());
        fabric.resync();
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 6);
    }

    #[test]
    fn tcam_overflow_limits_installed_rules() {
        let mut fabric = Fabric::new(sample::three_tier_with_capacity(3));
        let report = fabric.deploy();
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 3);
        assert_eq!(report.rules_rejected, 3 + 1); // S2 rejects 3, S3 rejects 1
        assert!(!fabric
            .fault_log()
            .entries_of_kind(FaultKind::TcamOverflow)
            .is_empty());
    }

    #[test]
    fn crashed_agent_ignores_deployment() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.crash_agent(sample::S3);
        let report = fabric.deploy();
        assert_eq!(fabric.tcam_rules(sample::S3).len(), 0);
        assert_eq!(report.rules_ignored, 4);
        assert_eq!(
            fabric
                .fault_log()
                .entries_of_kind(FaultKind::AgentCrash)
                .len(),
            1
        );
        fabric.restart_agent(sample::S3);
        fabric.resync();
        assert_eq!(fabric.tcam_rules(sample::S3).len(), 4);
    }

    #[test]
    fn crash_after_applies_only_a_prefix() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.crash_agent_after(sample::S2, 2);
        fabric.deploy();
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 2);
        assert!(fabric.agent(sample::S2).unwrap().is_crashed());
    }

    #[test]
    fn corruption_and_eviction_change_tcam_silently() {
        let mut fabric = deployed_three_tier();
        let faults_before = fabric.fault_log().len();
        let (orig, corrupted) = fabric
            .corrupt_tcam(sample::S2, 0, CorruptionKind::VrfBit)
            .unwrap();
        assert_ne!(orig, corrupted);
        assert_eq!(fabric.fault_log().len(), faults_before);
        let evicted = fabric.evict_tcam(sample::S2, 2, false);
        assert_eq!(evicted.len(), 2);
        assert_eq!(fabric.fault_log().len(), faults_before);
        // Logged eviction raises a fault.
        let evicted = fabric.evict_tcam(sample::S2, 1, true);
        assert_eq!(evicted.len(), 1);
        assert_eq!(
            fabric
                .fault_log()
                .entries_of_kind(FaultKind::RuleEviction)
                .len(),
            1
        );
    }

    #[test]
    fn remove_tcam_rules_where_is_silent() {
        let mut fabric = deployed_three_tier();
        let removed = fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        assert_eq!(removed.len(), 2);
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 4);
        assert!(fabric.fault_log().is_empty());
    }

    fn three_tier_with_extra_filter() -> PolicyUniverse {
        // Same policy, but the App-DB contract gains a port-8443 filter.
        let mut b = PolicyUniverse::builder();
        let base = sample::three_tier();
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
        let new_filter = Filter::new(
            FilterId::new(50),
            "port-8443",
            vec![FilterEntry::allow(Protocol::Tcp, PortRange::single(8443))],
        );
        b.filter(new_filter);
        for c in base.contracts() {
            if c.id == sample::C_APP_DB {
                let mut filters = c.filters.to_vec();
                filters.push(FilterId::new(50));
                b.contract(Contract::new(c.id, c.name.clone(), filters));
            } else {
                b.contract(c.clone());
            }
        }
        for binding in base.bindings() {
            b.bind(*binding);
        }
        b.build().unwrap()
    }

    #[test]
    fn update_policy_pushes_incremental_rules_and_logs_changes() {
        let mut fabric = deployed_three_tier();
        let before = fabric.change_log().len();
        let report = fabric.update_policy(three_tier_with_extra_filter());
        // New filter adds 2 rules on S2 and 2 on S3.
        assert_eq!(report.instructions_sent, 4);
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 8);
        assert_eq!(fabric.tcam_rules(sample::S3).len(), 6);
        let new_entries = &fabric.change_log().entries()[before..];
        // Creation of the new filter + modification of the App-DB contract.
        assert!(new_entries
            .iter()
            .any(|e| e.object == ObjectId::Filter(FilterId::new(50))
                && e.action == ChangeAction::Create));
        assert!(new_entries
            .iter()
            .any(|e| e.object == ObjectId::Contract(sample::C_APP_DB)
                && e.action == ChangeAction::Modify));
        // Unrelated objects are not marked as changed.
        assert!(!new_entries
            .iter()
            .any(|e| e.object == ObjectId::Contract(sample::C_WEB_APP)));
    }

    #[test]
    fn diff_universes_detects_deletion() {
        let old = three_tier_with_extra_filter();
        let new = sample::three_tier();
        let changes = diff_universes(&old, &new);
        assert!(changes.iter().any(
            |(o, a, _)| *o == ObjectId::Filter(FilterId::new(50)) && *a == ChangeAction::Delete
        ));
        assert!(changes
            .iter()
            .any(|(o, a, _)| *o == ObjectId::Contract(ContractId::new(2))
                && *a == ChangeAction::Modify));
    }

    #[test]
    fn diff_of_identical_universes_is_empty() {
        let u = sample::three_tier();
        assert!(diff_universes(&u, &u).is_empty());
    }

    #[test]
    fn deploy_marks_every_switch_dirty() {
        let mut fabric = Fabric::new(sample::three_tier());
        assert_eq!(fabric.epoch(), 0);
        assert!(fabric.dirty_switches_since(0).is_empty());
        fabric.deploy();
        assert!(fabric.epoch() > 0);
        assert_eq!(
            fabric.dirty_switches_since(0),
            BTreeSet::from([sample::S1, sample::S2, sample::S3])
        );
    }

    #[test]
    fn targeted_mutations_dirty_only_their_switch() {
        let mut fabric = deployed_three_tier();
        let checkpoint = fabric.epoch();
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        assert_eq!(
            fabric.dirty_switches_since(checkpoint),
            BTreeSet::from([sample::S2])
        );
        let checkpoint = fabric.epoch();
        fabric
            .corrupt_tcam(sample::S1, 0, CorruptionKind::VrfBit)
            .unwrap();
        fabric.evict_tcam(sample::S3, 1, false);
        assert_eq!(
            fabric.dirty_switches_since(checkpoint),
            BTreeSet::from([sample::S1, sample::S3])
        );
    }

    #[test]
    fn no_op_mutations_do_not_dirty() {
        let mut fabric = deployed_three_tier();
        let checkpoint = fabric.epoch();
        // Predicate matches nothing; out-of-range corruption; zero eviction.
        fabric.remove_tcam_rules_where(sample::S2, |_| false);
        assert!(fabric
            .corrupt_tcam(sample::S2, 999, CorruptionKind::VrfBit)
            .is_none());
        fabric.evict_tcam(sample::S2, 0, false);
        assert_eq!(fabric.epoch(), checkpoint);
        assert!(fabric.dirty_switches_since(checkpoint).is_empty());
    }

    #[test]
    fn update_policy_dirties_switches_with_changed_rules() {
        let mut fabric = deployed_three_tier();
        let checkpoint = fabric.epoch();
        fabric.update_policy(three_tier_with_extra_filter());
        // The new filter adds rules on S2 and S3 only.
        assert_eq!(
            fabric.dirty_switches_since(checkpoint),
            BTreeSet::from([sample::S2, sample::S3])
        );
    }

    #[test]
    fn lost_instructions_still_dirty_the_switch() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.disconnect_switch(sample::S2);
        fabric.deploy();
        // S2 received nothing, but its expected rule set changed: a checker
        // trusting the dirty set must re-examine it to see the divergence.
        assert!(fabric.dirty_switches_since(0).contains(&sample::S2));
    }

    #[test]
    fn clones_get_fresh_identities() {
        let fabric = deployed_three_tier();
        let clone = fabric.clone();
        assert_ne!(fabric.id(), clone.id());
        assert_eq!(fabric.epoch(), clone.epoch());
    }

    #[test]
    fn clones_remember_their_parent() {
        let fabric = deployed_three_tier();
        assert_eq!(fabric.parent_id(), None);
        assert_eq!(fabric.parent_epoch(), None);
        let clone = fabric.clone();
        assert_eq!(clone.parent_id(), Some(fabric.id()));
        assert_eq!(clone.parent_epoch(), Some(fabric.epoch()));
        // A clone of a clone points at the intermediate fabric, not the root.
        let grandchild = clone.clone();
        assert_eq!(grandchild.parent_id(), Some(clone.id()));
        // The clone point survives the clone's own mutations.
        let mut busy = fabric.clone();
        let at_clone = busy.parent_epoch().unwrap();
        busy.remove_tcam_rules_where(sample::S2, |_| true);
        assert_eq!(busy.parent_epoch(), Some(at_clone));
        assert!(busy.epoch() > at_clone);
    }

    #[test]
    fn universe_version_tracks_policy_changes_only() {
        let mut fabric = Fabric::new(sample::three_tier());
        let v0 = fabric.universe_version();
        // Deployment and TCAM mutations keep the same policy.
        fabric.deploy();
        fabric.remove_tcam_rules_where(sample::S2, |_| true);
        assert_eq!(fabric.universe_version(), v0);
        // Clones share the parent's version.
        let clone = fabric.clone();
        assert_eq!(clone.universe_version(), v0);
        // A policy update assigns a fresh version; the clone keeps the old one.
        fabric.update_policy(three_tier_with_extra_filter());
        assert_ne!(fabric.universe_version(), v0);
        assert_eq!(clone.universe_version(), v0);
        // Distinct fresh fabrics never share a version, even for equal policies.
        let other = Fabric::new(sample::three_tier());
        assert_ne!(other.universe_version(), v0);
    }

    #[test]
    fn repair_switch_restores_a_corrupted_and_evicted_tcam() {
        let mut fabric = deployed_three_tier();
        let pristine_tcam = fabric.tcam_rules(sample::S2);
        fabric
            .corrupt_tcam(sample::S2, 5, CorruptionKind::ActionFlip)
            .unwrap();
        fabric.evict_tcam(sample::S2, 2, false);
        assert_ne!(fabric.tcam_rules(sample::S2), pristine_tcam);

        let checkpoint = fabric.epoch();
        let report = fabric.repair_switch(sample::S2);
        // One corrupted garbage entry removed; corrupted + 2 evicted re-added.
        assert_eq!(report.garbage_removed, 1);
        assert_eq!(report.reinstalled, 3);
        assert_eq!(report.failed, 0);
        let repaired: BTreeSet<TcamRule> = fabric.tcam_rules(sample::S2).into_iter().collect();
        let expected: BTreeSet<TcamRule> = pristine_tcam.iter().copied().collect();
        assert_eq!(repaired, expected);
        // The repair dirtied the switch, so an incremental checker re-examines it.
        assert!(fabric
            .dirty_switches_since(checkpoint)
            .contains(&sample::S2));
        // An audit event exists and is pre-cleared.
        let repairs = fabric.fault_log().entries_of_kind(FaultKind::Repair);
        assert_eq!(repairs.len(), 1);
        assert!(repairs[0].cleared_at.is_some());
    }

    #[test]
    fn repair_switch_heals_control_plane_faults() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.disconnect_switch(sample::S2);
        fabric.crash_agent(sample::S3);
        fabric.deploy();
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 0);
        assert_eq!(fabric.tcam_rules(sample::S3).len(), 0);

        let r2 = fabric.repair_switch(sample::S2);
        let r3 = fabric.repair_switch(sample::S3);
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 6);
        assert_eq!(fabric.tcam_rules(sample::S3).len(), 4);
        assert_eq!(r2.reinstalled, 6);
        assert_eq!(r3.reinstalled, 4);
        // The disconnect fault was cleared by the reconnect, the crash fault
        // by the repair's fault sweep; nothing stays active.
        assert!(r3.faults_cleared >= 1);
        assert!(!fabric.agent(sample::S3).unwrap().is_crashed());
        assert!(fabric.fault_log().active_at(fabric.now()).is_empty());
    }

    #[test]
    fn repair_of_a_healthy_or_unknown_switch_is_a_noop() {
        let mut fabric = deployed_three_tier();
        let tcam_before = fabric.collect_tcam();
        let report = fabric.repair_switch(sample::S1);
        assert_eq!(report.garbage_removed, 0);
        assert_eq!(report.reinstalled, 0);
        assert_eq!(fabric.collect_tcam(), tcam_before);
        // Unknown switch: nothing happens, not even an audit event.
        let log_len = fabric.fault_log().len();
        let report = fabric.repair_switch(SwitchId::new(999));
        assert!(report.is_noop());
        assert_eq!(fabric.fault_log().len(), log_len);
    }

    #[test]
    fn reinstall_rules_restores_exactly_the_lost_rules() {
        let mut fabric = deployed_three_tier();
        let lost: Vec<LogicalRule> = fabric
            .logical_rules()
            .iter()
            .filter(|r| r.switch == sample::S2 && r.rule.matcher.ports.start == 700)
            .copied()
            .collect();
        assert_eq!(lost.len(), 2);
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 4);

        let report = fabric.reinstall_rules(&lost);
        assert_eq!(report.reinstalled, 2);
        assert_eq!(report.failed, 0);
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 6);
        assert_eq!(
            fabric.fault_log().entries_of_kind(FaultKind::Repair).len(),
            1
        );
        // Rules that left the compiled policy are skipped entirely.
        let stale = vec![lost[0]];
        fabric.update_policy(sample::three_tier()); // no-op diff, same rules
        let mut not_compiled = stale.clone();
        not_compiled[0].rule.matcher.ports.start = 9999;
        let report = fabric.reinstall_rules(&not_compiled);
        assert!(report.is_noop());
    }

    #[test]
    fn reinstall_through_a_dead_channel_reports_failure() {
        let mut fabric = deployed_three_tier();
        let lost: Vec<LogicalRule> = fabric.logical_rules_for(sample::S3);
        fabric.remove_tcam_rules_where(sample::S3, |_| true);
        fabric.disconnect_switch(sample::S3);
        let report = fabric.reinstall_rules(&lost);
        assert_eq!(report.reinstalled, 0);
        assert_eq!(report.failed, lost.len());
        assert!(fabric.tcam_rules(sample::S3).is_empty());
    }

    #[test]
    fn time_advances_with_activity() {
        let mut fabric = Fabric::new(sample::three_tier());
        let t0 = fabric.now();
        fabric.deploy();
        assert!(fabric.now() > t0);
        let t1 = fabric.now();
        fabric.advance_time(100);
        assert_eq!(fabric.now(), t1.plus(100));
    }
}
