//! Risk models: bipartite graphs between shared risks (policy objects) and the
//! elements they can impact (EPG pairs).
//!
//! Two concrete models are built (§III-B of the paper):
//!
//! * the **switch risk model** — per switch, elements are the [`EpgPair`]s
//!   deployed on that switch and risks are the policy objects each pair relies
//!   on;
//! * the **controller risk model** — elements are `(switch, EPG pair)` triplets
//!   ([`SwitchEpgPair`]) across the whole network and risks additionally
//!   include the physical switches.
//!
//! After the L–T equivalence check, the models are *augmented*: for every
//! missing rule, the edges between the affected element and the objects in the
//! rule's provenance are marked as failed (§III-C).

use std::collections::{BTreeMap, BTreeSet};

use scout_equiv::Parallelism;
use scout_policy::{EpgPair, LogicalRule, ObjectId, PolicyUniverse, SwitchEpgPair, SwitchId};

/// The status of an edge between an element and a shared risk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EdgeStatus {
    /// No failure evidence involves this edge.
    Success,
    /// A missing rule implicates this edge.
    Fail,
}

/// A bipartite risk model between elements of type `E` and shared risks
/// ([`ObjectId`]s).
///
/// `E` is [`EpgPair`] for the switch risk model and [`SwitchEpgPair`] for the
/// controller risk model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RiskModel<E> {
    /// element -> (risk -> edge status)
    edges: BTreeMap<E, BTreeMap<ObjectId, EdgeStatus>>,
    /// risk -> elements depending on it (reverse index)
    dependents: BTreeMap<ObjectId, BTreeSet<E>>,
    /// risk -> elements whose edge to it failed (the `O_i` sets).
    ///
    /// Kept in lockstep with `edges`, so every failure-side query — the
    /// failure signature, hit ratios, the failure subgraph — costs time
    /// proportional to the failure evidence instead of the whole graph. This
    /// is what makes an augment → analyze → undo cycle on a cached model
    /// independent of the policy-universe size.
    failed: BTreeMap<ObjectId, BTreeSet<E>>,
}

/// One reversible mutation performed by a tracked failure mark.
#[derive(Debug, Clone, Copy)]
enum MarkOp<E> {
    /// The edge did not exist; `new_element` records whether the element entry
    /// itself was created by this mark.
    NewEdge {
        element: E,
        risk: ObjectId,
        new_element: bool,
    },
    /// The edge existed with [`EdgeStatus::Success`] and was flipped to
    /// [`EdgeStatus::Fail`].
    Flipped { element: E, risk: ObjectId },
}

/// A journal of the mutations performed by a *tracked* augmentation
/// ([`RiskModel::mark_failed_tracked`]), sufficient to restore the model to
/// its pristine pre-augmentation state via [`RiskModel::undo_failures`].
///
/// This is what makes risk-model reuse cheap: instead of rebuilding (or even
/// cloning) the bipartite graph for every analysis, a long-lived consumer
/// keeps one pristine model, applies the failed edges of the current check,
/// reads the results, and rolls the marks back — total cost proportional to
/// the failure evidence, not the policy universe.
#[derive(Debug, Default)]
pub struct FailureMarks<E> {
    ops: Vec<MarkOp<E>>,
}

impl<E> FailureMarks<E> {
    /// Creates an empty journal.
    pub fn new() -> Self {
        Self { ops: Vec::new() }
    }

    /// Number of recorded mutations (no-op marks are not recorded).
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Returns `true` if the journal holds no mutations.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }
}

impl<E: Ord + Copy> Default for RiskModel<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E: Ord + Copy> RiskModel<E> {
    /// Creates an empty model.
    pub fn new() -> Self {
        Self {
            edges: BTreeMap::new(),
            dependents: BTreeMap::new(),
            failed: BTreeMap::new(),
        }
    }

    /// Adds an element with no edges (it will never be an observation unless
    /// edges are added and marked failed).
    pub fn add_element(&mut self, element: E) {
        self.edges.entry(element).or_default();
    }

    /// Adds a success edge between `element` and `risk` (keeps an existing
    /// failed edge failed).
    pub fn add_edge(&mut self, element: E, risk: ObjectId) {
        self.edges
            .entry(element)
            .or_default()
            .entry(risk)
            .or_insert(EdgeStatus::Success);
        self.dependents.entry(risk).or_default().insert(element);
    }

    /// Marks the edge between `element` and `risk` as failed, creating it if it
    /// does not exist yet.
    pub fn mark_failed(&mut self, element: E, risk: ObjectId) {
        self.edges
            .entry(element)
            .or_default()
            .insert(risk, EdgeStatus::Fail);
        self.dependents.entry(risk).or_default().insert(element);
        self.failed.entry(risk).or_default().insert(element);
    }

    /// Like [`RiskModel::mark_failed`], but records the performed mutation in
    /// `marks` so it can be rolled back with [`RiskModel::undo_failures`].
    ///
    /// Marking an edge that is already failed records nothing (the undo must
    /// not downgrade evidence that predates the journal).
    pub fn mark_failed_tracked(&mut self, element: E, risk: ObjectId, marks: &mut FailureMarks<E>) {
        use std::collections::btree_map::Entry;
        let new_element = !self.edges.contains_key(&element);
        match self.edges.entry(element).or_default().entry(risk) {
            Entry::Vacant(slot) => {
                slot.insert(EdgeStatus::Fail);
                self.dependents.entry(risk).or_default().insert(element);
                self.failed.entry(risk).or_default().insert(element);
                marks.ops.push(MarkOp::NewEdge {
                    element,
                    risk,
                    new_element,
                });
            }
            Entry::Occupied(mut slot) => {
                if *slot.get() == EdgeStatus::Success {
                    slot.insert(EdgeStatus::Fail);
                    self.failed.entry(risk).or_default().insert(element);
                    marks.ops.push(MarkOp::Flipped { element, risk });
                }
            }
        }
    }

    /// Rolls back every mutation recorded in `marks`, restoring the model to
    /// the exact state it had before the corresponding tracked marks.
    ///
    /// Marks must be undone on the same model they were recorded against,
    /// before any other mutation; the journal is consumed so it cannot be
    /// replayed.
    pub fn undo_failures(&mut self, marks: FailureMarks<E>) {
        for op in marks.ops.into_iter().rev() {
            match op {
                MarkOp::NewEdge {
                    element,
                    risk,
                    new_element,
                } => {
                    if let Some(edge_map) = self.edges.get_mut(&element) {
                        edge_map.remove(&risk);
                        if new_element && edge_map.is_empty() {
                            self.edges.remove(&element);
                        }
                    }
                    if let Some(deps) = self.dependents.get_mut(&risk) {
                        deps.remove(&element);
                        if deps.is_empty() {
                            self.dependents.remove(&risk);
                        }
                    }
                    self.unmark_failed(element, risk);
                }
                MarkOp::Flipped { element, risk } => {
                    if let Some(edge_map) = self.edges.get_mut(&element) {
                        edge_map.insert(risk, EdgeStatus::Success);
                    }
                    self.unmark_failed(element, risk);
                }
            }
        }
    }

    /// Drops `element` from `risk`'s failed-dependent set, removing the entry
    /// when it empties.
    fn unmark_failed(&mut self, element: E, risk: ObjectId) {
        if let Some(failed) = self.failed.get_mut(&risk) {
            failed.remove(&element);
            if failed.is_empty() {
                self.failed.remove(&risk);
            }
        }
    }

    /// The sub-model induced by the current failure evidence: every risk with
    /// at least one failed edge, every element depending on such a risk, and
    /// exactly the edges between them (statuses preserved).
    ///
    /// This is the part of the model the SCOUT cover stage can ever inspect —
    /// its candidate risks are the failed risks of the observations, and both
    /// hit and coverage ratios of a candidate only involve that candidate's
    /// dependents. Running the cover stage on the subgraph therefore produces
    /// bit-identical results at a cost proportional to the failure footprint,
    /// not the policy universe.
    pub fn failure_subgraph(&self) -> RiskModel<E> {
        let mut sub = RiskModel::new();
        for (&risk, failed) in &self.failed {
            if let Some(deps) = self.dependents.get(&risk) {
                for element in deps {
                    if failed.contains(element) {
                        sub.mark_failed(*element, risk);
                    } else {
                        sub.add_edge(*element, risk);
                    }
                }
            }
        }
        sub
    }

    /// Number of elements in the model.
    pub fn element_count(&self) -> usize {
        self.edges.len()
    }

    /// Number of shared risks in the model.
    pub fn risk_count(&self) -> usize {
        self.dependents.len()
    }

    /// Total number of edges.
    pub fn edge_count(&self) -> usize {
        self.edges.values().map(|m| m.len()).sum()
    }

    /// Iterates over all elements.
    pub fn elements(&self) -> impl Iterator<Item = &E> {
        self.edges.keys()
    }

    /// Iterates over all shared risks.
    pub fn risks(&self) -> impl Iterator<Item = &ObjectId> {
        self.dependents.keys()
    }

    /// The risks `element` depends on.
    pub fn risks_of(&self, element: &E) -> BTreeSet<ObjectId> {
        self.edges
            .get(element)
            .map(|m| m.keys().copied().collect())
            .unwrap_or_default()
    }

    /// The elements depending on `risk` (the set `G_i` of the paper).
    pub fn dependents_of(&self, risk: ObjectId) -> BTreeSet<E> {
        self.dependents.get(&risk).cloned().unwrap_or_default()
    }

    /// Number of elements depending on `risk` (`|G_i|`), without cloning.
    pub fn dependent_count(&self, risk: ObjectId) -> usize {
        self.dependents.get(&risk).map_or(0, BTreeSet::len)
    }

    /// Number of elements of `risk` whose edge to it failed (`|O_i|`), without
    /// materializing the set.
    pub fn failed_dependent_count(&self, risk: ObjectId) -> usize {
        self.failed.get(&risk).map_or(0, BTreeSet::len)
    }

    /// The risks of `element` whose edge is marked failed.
    pub fn failed_risks_of(&self, element: &E) -> BTreeSet<ObjectId> {
        self.edges
            .get(element)
            .map(|m| {
                m.iter()
                    .filter(|(_, &s)| s == EdgeStatus::Fail)
                    .map(|(&r, _)| r)
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The elements of `risk` whose edge to it is marked failed (the set `O_i`
    /// of the paper).
    pub fn failed_dependents_of(&self, risk: ObjectId) -> BTreeSet<E> {
        self.failed.get(&risk).cloned().unwrap_or_default()
    }

    /// Returns `true` if `element` has at least one failed edge (i.e. it is an
    /// *observation*).
    pub fn is_failed(&self, element: &E) -> bool {
        self.edges
            .get(element)
            .map(|m| m.values().any(|&s| s == EdgeStatus::Fail))
            .unwrap_or(false)
    }

    /// The failure signature: every element with at least one failed edge.
    ///
    /// Costs time proportional to the failure evidence (it reads the failed
    /// index), not the number of elements in the model.
    pub fn failure_signature(&self) -> BTreeSet<E> {
        self.failed.values().flatten().copied().collect()
    }

    /// The hit ratio of `risk`: the fraction of its dependents whose edge to it
    /// failed (`|O_i| / |G_i|`, §IV-B).
    ///
    /// Defined as 0 whenever `|G_i| = 0` — unknown risks, risks on an empty
    /// model, and risks whose dependents were all pruned — so the ratio is
    /// total (never a division by zero) and always lies in `[0, 1]`.
    pub fn hit_ratio(&self, risk: ObjectId) -> f64 {
        let total = self.dependent_count(risk);
        if total == 0 {
            return 0.0;
        }
        self.failed_dependent_count(risk) as f64 / total as f64
    }

    /// The coverage ratio of `risk` with respect to a failure signature of size
    /// `signature_size` (`|O_i| / |F|`, §IV-B).
    ///
    /// Defined as 0 for an empty signature (`|F| = 0`), mirroring
    /// [`RiskModel::hit_ratio`]'s totality convention.
    pub fn coverage_ratio(&self, risk: ObjectId, signature_size: usize) -> f64 {
        if signature_size == 0 {
            return 0.0;
        }
        self.failed_dependent_count(risk) as f64 / signature_size as f64
    }

    /// Removes a set of elements from the model (used by the pruning step of
    /// the SCOUT algorithm). Risks left without dependents are removed too.
    ///
    /// Elements not present in the model are ignored; pruning an empty set, or
    /// pruning on an empty model, is a no-op.
    pub fn prune_elements(&mut self, elements: &BTreeSet<E>) {
        for element in elements {
            if let Some(risks) = self.edges.remove(element) {
                for (risk, status) in risks {
                    if let Some(deps) = self.dependents.get_mut(&risk) {
                        deps.remove(element);
                        if deps.is_empty() {
                            self.dependents.remove(&risk);
                        }
                    }
                    if status == EdgeStatus::Fail {
                        self.unmark_failed(*element, risk);
                    }
                }
            }
        }
    }

    /// The union of the risks of a set of elements — the *suspect set* a
    /// network admin would have to examine without localization.
    pub fn suspect_set(&self, elements: &BTreeSet<E>) -> BTreeSet<ObjectId> {
        elements.iter().flat_map(|e| self.risks_of(e)).collect()
    }

    /// Merges `other` into `self`: elements, edges, and failure evidence are
    /// unioned, and an edge failed in either input stays failed.
    ///
    /// This is the combine step of the sharded model builders (see
    /// [`controller_risk_model_sharded`]): each shard derives the edges of a
    /// disjoint switch subset, and merging shards in a fixed order yields the
    /// same model as one sequential pass.
    pub fn merge(&mut self, other: RiskModel<E>) {
        for (element, edges) in other.edges {
            let slot = self.edges.entry(element).or_default();
            for (risk, status) in edges {
                if status == EdgeStatus::Fail {
                    slot.insert(risk, EdgeStatus::Fail);
                } else {
                    slot.entry(risk).or_insert(EdgeStatus::Success);
                }
            }
        }
        for (risk, deps) in other.dependents {
            self.dependents.entry(risk).or_default().extend(deps);
        }
        for (risk, failed) in other.failed {
            self.failed.entry(risk).or_default().extend(failed);
        }
    }
}

// ----------------------------------------------------------------------
// Model builders
// ----------------------------------------------------------------------

/// Builds the (un-augmented) switch risk model for `switch`.
///
/// Elements are the EPG pairs deployed on the switch; each pair has success
/// edges to every policy object it relies on (Figure 4(a) of the paper).
pub fn switch_risk_model(universe: &PolicyUniverse, switch: SwitchId) -> RiskModel<EpgPair> {
    let mut model = RiskModel::new();
    for &pair in universe.pairs_on_switch(switch) {
        model.add_element(pair);
        for &risk in universe.objects_for_bound_pair(pair).into_iter().flatten() {
            model.add_edge(pair, risk);
        }
    }
    model
}

/// Adds one controller-model element: success edges to its pair's policy
/// objects plus its switch.
fn add_controller_element(
    model: &mut RiskModel<SwitchEpgPair>,
    universe: &PolicyUniverse,
    element: SwitchEpgPair,
) {
    model.add_element(element);
    for &risk in universe
        .objects_for_bound_pair(element.pair)
        .into_iter()
        .flatten()
    {
        model.add_edge(element, risk);
    }
    model.add_edge(element, ObjectId::Switch(element.switch));
}

/// Builds the (un-augmented) controller risk model for the whole network.
///
/// Elements are `(switch, EPG pair)` triplets; each triplet has success edges
/// to the pair's policy objects plus the switch itself (Figure 4(b)).
pub fn controller_risk_model(universe: &PolicyUniverse) -> RiskModel<SwitchEpgPair> {
    controller_risk_shard(universe, &universe.switch_ids())
}

/// Derives the controller-model edges of one switch subset — the unit of work
/// of [`controller_risk_model_sharded`].
fn controller_risk_shard(
    universe: &PolicyUniverse,
    switches: &[SwitchId],
) -> RiskModel<SwitchEpgPair> {
    let mut model = RiskModel::new();
    for &switch in switches {
        for &pair in universe.pairs_on_switch(switch) {
            add_controller_element(&mut model, universe, SwitchEpgPair::new(switch, pair));
        }
    }
    model
}

/// Like [`controller_risk_model`], but shards the derivation by switch across
/// worker threads ([`Parallelism::fan_out`], the same policy the equivalence
/// checker uses) and merges the per-shard models in switch order.
///
/// The `(switch, pair)` elements of the controller model partition cleanly by
/// switch, so shards never contend over an element and the merged model is
/// **identical** to the sequential one — the pipeline swaps freely between
/// the two. Sessions build their model here on open, resume and resync, where
/// no previous model exists; a policy change on a live session patches the
/// model it has instead ([`patch_controller_risk_model`]).
pub fn controller_risk_model_sharded(
    universe: &PolicyUniverse,
    parallelism: Parallelism,
) -> RiskModel<SwitchEpgPair> {
    let switches: Vec<SwitchId> = universe.switches().map(|s| s.id).collect();
    if parallelism.worker_count(switches.len()) == 1 {
        return controller_risk_model(universe);
    }
    let shards = parallelism.fan_out(switches.len(), |_, range| {
        controller_risk_shard(universe, &switches[range])
    });
    let mut model = RiskModel::new();
    for shard in shards {
        model.merge(shard);
    }
    model
}

/// How many elements one [`patch_controller_risk_model`] call touched — the
/// host-independent measure of its work.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ModelPatch {
    /// Elements removed: their `(switch, pair)` left the policy, or their
    /// closure changed (those are re-added).
    pub pruned: usize,
    /// Elements (re-)derived from the new universe.
    pub added: usize,
}

/// Turns the pristine controller risk model of `old` into that of `new` by
/// touching only what the policy change touched.
///
/// An element `(switch, pair)` and its edges are a function of two indexes:
/// the pair's membership in [`PolicyUniverse::pairs_on_switch`] and the
/// pair's dependency closure. The patch diffs exactly those — one ordered
/// walk over both universes' pair closures, one over their per-switch pair
/// sets — prunes the elements that left or whose closure changed, and
/// re-derives the changed and new ones. A one-filter edit therefore costs the
/// edited contract's pairs, not the fabric.
///
/// `model` must be `controller_risk_model(old)` with no failure marks; on
/// return it equals `controller_risk_model(new)` field for field (the
/// differential test `tests/policy_edit.rs` asserts it along seeded edit
/// sequences, switch churn included).
pub fn patch_controller_risk_model(
    model: &mut RiskModel<SwitchEpgPair>,
    old: &PolicyUniverse,
    new: &PolicyUniverse,
) -> ModelPatch {
    // Pairs bound on both sides whose closure differs.
    let mut changed: BTreeSet<EpgPair> = BTreeSet::new();
    let mut old_closures = old.pair_closures().peekable();
    for (pair, closure) in new.pair_closures() {
        while old_closures.next_if(|&(p, _)| p < pair).is_some() {}
        if let Some((_, old_closure)) = old_closures.next_if(|&(p, _)| p == pair) {
            if old_closure != closure {
                changed.insert(pair);
            }
        }
    }

    // Elements to drop and to derive: membership changes switch by switch,
    // then the changed pairs wherever they stay deployed.
    let mut stale: BTreeSet<SwitchEpgPair> = BTreeSet::new();
    let mut fresh: BTreeSet<SwitchEpgPair> = BTreeSet::new();
    let switches: BTreeSet<SwitchId> = old.switches().chain(new.switches()).map(|s| s.id).collect();
    for switch in switches {
        let (old_pairs, new_pairs) = (old.pairs_on_switch(switch), new.pairs_on_switch(switch));
        if old_pairs != new_pairs {
            let element = |&pair: &EpgPair| SwitchEpgPair::new(switch, pair);
            stale.extend(old_pairs.difference(new_pairs).map(element));
            fresh.extend(new_pairs.difference(old_pairs).map(element));
        }
    }
    for &pair in &changed {
        for switch in old.switches_for_pair(pair) {
            if new.pairs_on_switch(switch).contains(&pair) {
                stale.insert(SwitchEpgPair::new(switch, pair));
                fresh.insert(SwitchEpgPair::new(switch, pair));
            }
        }
    }

    model.prune_elements(&stale);
    for &element in &fresh {
        add_controller_element(model, new, element);
    }
    ModelPatch {
        pruned: stale.len(),
        added: fresh.len(),
    }
}

// ----------------------------------------------------------------------
// Augmentation from missing rules
// ----------------------------------------------------------------------

/// Augments the switch risk model of `switch` with the missing rules reported
/// by the equivalence checker: for every missing rule of this switch, the edges
/// between its EPG pair and the objects in its provenance are marked failed.
///
/// Accepts any stream of rules (e.g. directly from
/// [`scout_equiv::NetworkCheckResult::missing_rules`]) so the hot reporting
/// path never has to collect into an intermediate `Vec`.
pub fn augment_switch_model<I>(model: &mut RiskModel<EpgPair>, switch: SwitchId, missing_rules: I)
where
    I: IntoIterator<Item = LogicalRule>,
{
    for rule in missing_rules.into_iter().filter(|r| r.switch == switch) {
        let pair = rule.pair();
        for risk in rule.provenance.policy_objects() {
            model.mark_failed(pair, risk);
        }
    }
}

/// Augments the controller risk model with missing rules from any switch: for
/// every missing rule, the edges between its `(switch, pair)` triplet and the
/// objects in its provenance (including the switch) are marked failed.
///
/// Accepts any stream of rules (see [`augment_switch_model`]).
pub fn augment_controller_model<I>(model: &mut RiskModel<SwitchEpgPair>, missing_rules: I)
where
    I: IntoIterator<Item = LogicalRule>,
{
    for rule in missing_rules {
        let element = SwitchEpgPair::new(rule.switch, rule.pair());
        for risk in rule.provenance.objects_with_switch(rule.switch) {
            model.mark_failed(element, risk);
        }
    }
}

/// Tracked variant of [`augment_switch_model`]: returns the journal needed to
/// roll the augmentation back with [`RiskModel::undo_failures`], so one
/// pristine switch model can serve many analyses.
pub fn augment_switch_model_tracked<I>(
    model: &mut RiskModel<EpgPair>,
    switch: SwitchId,
    missing_rules: I,
) -> FailureMarks<EpgPair>
where
    I: IntoIterator<Item = LogicalRule>,
{
    let mut marks = FailureMarks::new();
    for rule in missing_rules.into_iter().filter(|r| r.switch == switch) {
        let pair = rule.pair();
        for risk in rule.provenance.policy_objects() {
            model.mark_failed_tracked(pair, risk, &mut marks);
        }
    }
    marks
}

/// Tracked variant of [`augment_controller_model`]: returns the journal needed
/// to roll the augmentation back with [`RiskModel::undo_failures`], so one
/// pristine controller model can serve many analyses (the incremental
/// risk-model maintenance of `AnalysisSession` and the campaign engine).
pub fn augment_controller_model_tracked<I>(
    model: &mut RiskModel<SwitchEpgPair>,
    missing_rules: I,
) -> FailureMarks<SwitchEpgPair>
where
    I: IntoIterator<Item = LogicalRule>,
{
    let mut marks = FailureMarks::new();
    for rule in missing_rules {
        let element = SwitchEpgPair::new(rule.switch, rule.pair());
        for risk in rule.provenance.objects_with_switch(rule.switch) {
            model.mark_failed_tracked(element, risk, &mut marks);
        }
    }
    marks
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::sample;

    #[test]
    fn switch_model_for_s2_matches_figure_4a() {
        let u = sample::three_tier();
        let model = switch_risk_model(&u, sample::S2);
        // Two EPG pairs (Web-App, App-DB) and 8 shared risks (VRF, 3 EPGs,
        // 2 contracts, 2 filters).
        assert_eq!(model.element_count(), 2);
        assert_eq!(model.risk_count(), 8);
        let web_app = EpgPair::new(sample::WEB, sample::APP);
        let risks = model.risks_of(&web_app);
        assert_eq!(risks.len(), 5);
        assert!(risks.contains(&ObjectId::Vrf(sample::VRF)));
        assert!(risks.contains(&ObjectId::Contract(sample::C_WEB_APP)));
        // No switch objects in the per-switch model.
        assert!(model.risks().all(|r| !r.is_switch()));
        // Nothing failed yet.
        assert!(model.failure_signature().is_empty());
    }

    #[test]
    fn sharded_controller_model_is_bit_identical() {
        let u = sample::three_tier();
        let sequential = controller_risk_model(&u);
        for parallelism in [
            Parallelism::Sequential,
            Parallelism::Auto,
            Parallelism::Fixed(2),
            Parallelism::Fixed(3),
            Parallelism::Fixed(16),
        ] {
            assert_eq!(
                controller_risk_model_sharded(&u, parallelism),
                sequential,
                "{parallelism:?}"
            );
        }
    }

    #[test]
    fn merge_unions_edges_and_failures() {
        let mut a = RiskModel::new();
        a.add_edge(
            EpgPair::new(sample::WEB, sample::APP),
            ObjectId::Vrf(sample::VRF),
        );
        let mut b = RiskModel::new();
        b.mark_failed(
            EpgPair::new(sample::WEB, sample::APP),
            ObjectId::Vrf(sample::VRF),
        );
        b.add_edge(
            EpgPair::new(sample::APP, sample::DB),
            ObjectId::Vrf(sample::VRF),
        );
        a.merge(b);
        assert_eq!(a.element_count(), 2);
        assert_eq!(a.failed_dependent_count(ObjectId::Vrf(sample::VRF)), 1);
        assert!(a.is_failed(&EpgPair::new(sample::WEB, sample::APP)));

        // Fail on the left survives a success merge from the right.
        let mut c = RiskModel::new();
        c.add_edge(
            EpgPair::new(sample::WEB, sample::APP),
            ObjectId::Vrf(sample::VRF),
        );
        let mut failed_left = RiskModel::new();
        failed_left.mark_failed(
            EpgPair::new(sample::WEB, sample::APP),
            ObjectId::Vrf(sample::VRF),
        );
        failed_left.merge(c);
        assert!(failed_left.is_failed(&EpgPair::new(sample::WEB, sample::APP)));
    }

    #[test]
    fn controller_model_has_one_triplet_per_switch_pair() {
        let u = sample::three_tier();
        let model = controller_risk_model(&u);
        // Web-App deploys on S1 and S2; App-DB on S2 and S3 -> 4 triplets.
        assert_eq!(model.element_count(), 4);
        // Risks: 8 policy objects + 3 switches.
        assert_eq!(model.risk_count(), 11);
        let t = SwitchEpgPair::new(sample::S2, EpgPair::new(sample::WEB, sample::APP));
        assert!(model.risks_of(&t).contains(&ObjectId::Switch(sample::S2)));
    }

    #[test]
    fn hit_and_coverage_ratios_follow_definitions() {
        let u = sample::three_tier();
        let mut model = switch_risk_model(&u, sample::S2);
        let web_app = EpgPair::new(sample::WEB, sample::APP);
        // Fail the Web-App edges (as if the first rule of Figure 2 is missing).
        for risk in u.objects_for_pair(web_app) {
            model.mark_failed(web_app, risk);
        }
        let signature = model.failure_signature();
        assert_eq!(signature.len(), 1);
        // EPG:Web and Contract:Web-App are used only by Web-App -> hit 1.
        assert_eq!(model.hit_ratio(ObjectId::Epg(sample::WEB)), 1.0);
        assert_eq!(model.hit_ratio(ObjectId::Contract(sample::C_WEB_APP)), 1.0);
        // VRF and EPG:App are shared with the healthy App-DB pair -> hit 0.5.
        assert_eq!(model.hit_ratio(ObjectId::Vrf(sample::VRF)), 0.5);
        assert_eq!(model.hit_ratio(ObjectId::Epg(sample::APP)), 0.5);
        // Coverage of EPG:Web is 1/|F| = 1.
        assert_eq!(
            model.coverage_ratio(ObjectId::Epg(sample::WEB), signature.len()),
            1.0
        );
        // Unknown risk.
        assert_eq!(model.hit_ratio(ObjectId::Switch(SwitchId::new(99))), 0.0);
        assert_eq!(model.coverage_ratio(ObjectId::Epg(sample::WEB), 0), 0.0);
    }

    #[test]
    fn augmentation_from_missing_rules_marks_the_right_edges() {
        let u = sample::three_tier();
        let all_rules = scout_fabric::compile(&u);
        // Pretend the two port-700 rules on S2 are missing.
        let missing: Vec<LogicalRule> = all_rules
            .iter()
            .filter(|r| r.switch == sample::S2 && r.rule.matcher.ports.start == 700)
            .copied()
            .collect();
        assert_eq!(missing.len(), 2);

        let mut s2_model = switch_risk_model(&u, sample::S2);
        augment_switch_model(&mut s2_model, sample::S2, missing.iter().copied());
        let app_db = EpgPair::new(sample::APP, sample::DB);
        assert!(s2_model.is_failed(&app_db));
        assert!(!s2_model.is_failed(&EpgPair::new(sample::WEB, sample::APP)));
        let failed = s2_model.failed_risks_of(&app_db);
        assert!(failed.contains(&ObjectId::Filter(sample::F_700)));
        assert!(failed.contains(&ObjectId::Vrf(sample::VRF)));
        // The port-80 filter was not part of the violation.
        assert!(!failed.contains(&ObjectId::Filter(sample::F_HTTP)));

        let mut c_model = controller_risk_model(&u);
        augment_controller_model(&mut c_model, missing.iter().copied());
        let s2_app_db = SwitchEpgPair::new(sample::S2, app_db);
        let s3_app_db = SwitchEpgPair::new(sample::S3, app_db);
        assert!(c_model.is_failed(&s2_app_db));
        assert!(!c_model.is_failed(&s3_app_db));
        assert!(c_model
            .failed_risks_of(&s2_app_db)
            .contains(&ObjectId::Switch(sample::S2)));
    }

    #[test]
    fn pruning_removes_elements_and_orphan_risks() {
        let u = sample::three_tier();
        let mut model = switch_risk_model(&u, sample::S2);
        let web_app = EpgPair::new(sample::WEB, sample::APP);
        model.prune_elements(&BTreeSet::from([web_app]));
        assert_eq!(model.element_count(), 1);
        // Risks used only by Web-App are gone.
        assert!(!model
            .risks()
            .any(|&r| r == ObjectId::Contract(sample::C_WEB_APP)));
        // Shared risks remain.
        assert!(model.risks().any(|&r| r == ObjectId::Vrf(sample::VRF)));
        assert_eq!(model.dependents_of(ObjectId::Vrf(sample::VRF)).len(), 1);
    }

    #[test]
    fn suspect_set_is_union_of_risks() {
        let u = sample::three_tier();
        let model = switch_risk_model(&u, sample::S2);
        let both: BTreeSet<EpgPair> = model.elements().copied().collect();
        assert_eq!(model.suspect_set(&both).len(), 8);
        let one = BTreeSet::from([EpgPair::new(sample::WEB, sample::APP)]);
        assert_eq!(model.suspect_set(&one).len(), 5);
    }

    #[test]
    fn mark_failed_on_fresh_edge_creates_it() {
        let mut model: RiskModel<EpgPair> = RiskModel::new();
        let pair = EpgPair::new(sample::WEB, sample::APP);
        model.mark_failed(pair, ObjectId::Vrf(sample::VRF));
        assert_eq!(model.element_count(), 1);
        assert_eq!(model.risk_count(), 1);
        assert!(model.is_failed(&pair));
        assert_eq!(model.hit_ratio(ObjectId::Vrf(sample::VRF)), 1.0);
        assert_eq!(model.edge_count(), 1);
    }

    #[test]
    fn add_edge_does_not_downgrade_failed_edge() {
        let mut model: RiskModel<EpgPair> = RiskModel::new();
        let pair = EpgPair::new(sample::WEB, sample::APP);
        model.mark_failed(pair, ObjectId::Vrf(sample::VRF));
        model.add_edge(pair, ObjectId::Vrf(sample::VRF));
        assert!(model.is_failed(&pair));
    }

    #[test]
    fn ratios_are_total_on_empty_and_pruned_models() {
        // Empty model: every ratio is defined and zero — no division by zero.
        let empty: RiskModel<EpgPair> = RiskModel::new();
        let risk = ObjectId::Vrf(sample::VRF);
        assert_eq!(empty.hit_ratio(risk), 0.0);
        assert_eq!(empty.coverage_ratio(risk, 0), 0.0);
        assert_eq!(empty.coverage_ratio(risk, 5), 0.0);
        assert_eq!(empty.dependent_count(risk), 0);
        assert_eq!(empty.failed_dependent_count(risk), 0);
        assert!(empty.failure_signature().is_empty());
        assert!(empty.suspect_set(&BTreeSet::new()).is_empty());

        // A model whose only dependent was pruned behaves like the empty one.
        let u = sample::three_tier();
        let mut model = switch_risk_model(&u, sample::S2);
        let all: BTreeSet<EpgPair> = model.elements().copied().collect();
        model.prune_elements(&all);
        assert_eq!(model.element_count(), 0);
        assert_eq!(model.risk_count(), 0);
        assert_eq!(model.hit_ratio(risk), 0.0);
        // Empty-signature coverage stays zero for any risk.
        assert_eq!(
            model.coverage_ratio(risk, model.failure_signature().len()),
            0.0
        );
    }

    #[test]
    fn pruning_unknown_or_empty_sets_is_a_noop() {
        let u = sample::three_tier();
        let mut model = switch_risk_model(&u, sample::S2);
        let pristine = model.clone();
        // Empty set.
        model.prune_elements(&BTreeSet::new());
        assert_eq!(model, pristine);
        // Elements the model has never seen.
        let stranger = EpgPair::new(scout_policy::EpgId::new(900), scout_policy::EpgId::new(901));
        model.prune_elements(&BTreeSet::from([stranger]));
        assert_eq!(model, pristine);
        // Pruning on an already-empty model.
        let mut empty: RiskModel<EpgPair> = RiskModel::new();
        empty.prune_elements(&BTreeSet::from([stranger]));
        assert_eq!(empty.element_count(), 0);
    }

    #[test]
    fn tracked_marks_undo_restores_the_pristine_model() {
        let u = sample::three_tier();
        let all_rules = scout_fabric::compile(&u);
        let pristine = controller_risk_model(&u);

        // Augment with every possible missing-rule subset boundary: none, a
        // couple, and everything.
        for take in [0usize, 2, all_rules.len()] {
            let mut model = pristine.clone();
            let marks =
                augment_controller_model_tracked(&mut model, all_rules.iter().take(take).copied());
            // Tracked augmentation must agree with the untracked one.
            let mut reference = pristine.clone();
            augment_controller_model(&mut reference, all_rules.iter().take(take).copied());
            assert_eq!(model, reference, "take {take}");
            // Undo restores the pristine graph bit for bit.
            model.undo_failures(marks);
            assert_eq!(model, pristine, "take {take}");
        }
    }

    #[test]
    fn tracked_marks_do_not_undo_preexisting_failures() {
        let mut model: RiskModel<EpgPair> = RiskModel::new();
        let pair = EpgPair::new(sample::WEB, sample::APP);
        let risk = ObjectId::Vrf(sample::VRF);
        model.mark_failed(pair, risk);
        let before = model.clone();
        let mut marks = FailureMarks::new();
        model.mark_failed_tracked(pair, risk, &mut marks);
        assert!(marks.is_empty());
        model.undo_failures(marks);
        assert_eq!(model, before);
        assert!(model.is_failed(&pair));
    }

    #[test]
    fn tracked_marks_on_switch_model_roundtrip() {
        let u = sample::three_tier();
        let all_rules = scout_fabric::compile(&u);
        let missing: Vec<LogicalRule> = all_rules
            .iter()
            .filter(|r| r.switch == sample::S2)
            .copied()
            .collect();
        let pristine = switch_risk_model(&u, sample::S2);
        let mut model = pristine.clone();
        let marks = augment_switch_model_tracked(&mut model, sample::S2, missing.iter().copied());
        let mut reference = pristine.clone();
        augment_switch_model(&mut reference, sample::S2, missing.iter().copied());
        assert_eq!(model, reference);
        assert!(!marks.is_empty());
        model.undo_failures(marks);
        assert_eq!(model, pristine);
    }

    mod undo_journal_props {
        //! Property tests for the undo journal: under random interleavings of
        //! untracked `mark_failed` evidence and tracked journal episodes, an
        //! undo must restore the model — including the failed-edge index —
        //! bit for bit.

        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        use scout_policy::EpgId;
        use scout_policy::FilterId;

        fn element(rng: &mut StdRng) -> EpgPair {
            EpgPair::new(
                EpgId::new(rng.gen_range(0..8)),
                EpgId::new(rng.gen_range(8..16)),
            )
        }

        fn risk(rng: &mut StdRng) -> ObjectId {
            ObjectId::Filter(FilterId::new(rng.gen_range(0..10)))
        }

        /// A random base model: some success edges, some plain elements.
        fn random_model(rng: &mut StdRng) -> RiskModel<EpgPair> {
            let mut model = RiskModel::new();
            for _ in 0..rng.gen_range(0..40) {
                let e = element(rng);
                if rng.gen_bool(0.15) {
                    model.add_element(e);
                } else {
                    model.add_edge(e, risk(rng));
                }
            }
            model
        }

        /// Recomputes the failed-edge index from the edge statuses and checks
        /// the indexed views against it — the "pristine index" the issue's
        /// property targets.
        fn assert_index_exact(model: &RiskModel<EpgPair>) {
            let mut signature = BTreeSet::new();
            let mut failed_by_risk: BTreeMap<ObjectId, BTreeSet<EpgPair>> = BTreeMap::new();
            let elements: Vec<EpgPair> = model.elements().copied().collect();
            for e in &elements {
                for r in model.risks_of(e) {
                    if model.failed_risks_of(e).contains(&r) {
                        signature.insert(*e);
                        failed_by_risk.entry(r).or_default().insert(*e);
                    }
                }
            }
            assert_eq!(model.failure_signature(), signature);
            let all_risks: Vec<ObjectId> = model.risks().copied().collect();
            for r in all_risks {
                let expected = failed_by_risk.get(&r).cloned().unwrap_or_default();
                assert_eq!(model.failed_dependents_of(r), expected, "risk {r:?}");
                assert_eq!(model.failed_dependent_count(r), expected.len());
            }
        }

        /// Interleave untracked evidence with tracked journal episodes, in
        /// random order and length; every undo must restore the exact state
        /// the journal started from.
        #[test]
        fn interleaved_tracked_marks_always_roll_back_exactly() {
            for seed in 0..60u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut model = random_model(&mut rng);
                for _round in 0..rng.gen_range(1..4) {
                    // Permanent evidence lands between journal episodes.
                    for _ in 0..rng.gen_range(0..6) {
                        model.mark_failed(element(&mut rng), risk(&mut rng));
                    }
                    let snapshot = model.clone();

                    // One tracked episode: a random mix of fresh edges,
                    // flipped edges, duplicate marks and already-failed hits.
                    let mut marks = FailureMarks::new();
                    let ops = rng.gen_range(0..20);
                    for _ in 0..ops {
                        let (e, r) = (element(&mut rng), risk(&mut rng));
                        model.mark_failed_tracked(e, r, &mut marks);
                        // Tracked marks must behave exactly like untracked
                        // ones while applied.
                        assert!(model.is_failed(&e), "seed {seed}");
                    }
                    assert_index_exact(&model);

                    model.undo_failures(marks);
                    assert_eq!(model, snapshot, "seed {seed}: undo must be exact");
                    assert_index_exact(&model);
                }
            }
        }

        /// Nested journals undone in LIFO order restore the pristine model.
        #[test]
        fn nested_journals_roll_back_in_lifo_order() {
            for seed in 0..40u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let mut model = random_model(&mut rng);
                let pristine = model.clone();

                let mut outer = FailureMarks::new();
                for _ in 0..rng.gen_range(1..10) {
                    model.mark_failed_tracked(element(&mut rng), risk(&mut rng), &mut outer);
                }
                let mid = model.clone();
                let mut inner = FailureMarks::new();
                for _ in 0..rng.gen_range(1..10) {
                    model.mark_failed_tracked(element(&mut rng), risk(&mut rng), &mut inner);
                }

                model.undo_failures(inner);
                assert_eq!(model, mid, "seed {seed}");
                model.undo_failures(outer);
                assert_eq!(model, pristine, "seed {seed}");
                assert_index_exact(&model);
            }
        }

        /// A tracked augmentation is observationally identical to an
        /// untracked one — the journal changes rollback ability, not results.
        #[test]
        fn tracked_and_untracked_marks_agree_while_applied() {
            for seed in 0..40u64 {
                let mut rng = StdRng::seed_from_u64(seed);
                let base = random_model(&mut rng);
                let pairs: Vec<(EpgPair, ObjectId)> = (0..rng.gen_range(0..25))
                    .map(|_| (element(&mut rng), risk(&mut rng)))
                    .collect();

                let mut tracked = base.clone();
                let mut marks = FailureMarks::new();
                for &(e, r) in &pairs {
                    tracked.mark_failed_tracked(e, r, &mut marks);
                }
                let mut untracked = base.clone();
                for &(e, r) in &pairs {
                    untracked.mark_failed(e, r);
                }
                assert_eq!(tracked, untracked, "seed {seed}");

                tracked.undo_failures(marks);
                assert_eq!(tracked, base, "seed {seed}");
            }
        }
    }

    #[test]
    fn failure_subgraph_keeps_exactly_the_relevant_slice() {
        let u = sample::three_tier();
        let mut model = switch_risk_model(&u, sample::S2);
        // Healthy model: the subgraph is empty.
        assert_eq!(model.failure_subgraph().element_count(), 0);

        let web_app = EpgPair::new(sample::WEB, sample::APP);
        let app_db = EpgPair::new(sample::APP, sample::DB);
        model.mark_failed(web_app, ObjectId::Vrf(sample::VRF));
        let sub = model.failure_subgraph();
        // The VRF is the only candidate risk; both its dependents are kept
        // (the healthy App-DB edge included, so hit ratios agree).
        assert_eq!(sub.risk_count(), 1);
        assert_eq!(sub.element_count(), 2);
        assert_eq!(
            sub.hit_ratio(ObjectId::Vrf(sample::VRF)),
            model.hit_ratio(ObjectId::Vrf(sample::VRF))
        );
        assert_eq!(
            sub.failed_dependent_count(ObjectId::Vrf(sample::VRF)),
            model.failed_dependent_count(ObjectId::Vrf(sample::VRF))
        );
        assert!(sub.is_failed(&web_app));
        assert!(!sub.is_failed(&app_db));
        // Risks with no failed edge are not in the subgraph at all.
        assert_eq!(sub.dependent_count(ObjectId::Filter(sample::F_HTTP)), 0);
    }
}
