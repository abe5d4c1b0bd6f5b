//! Model-level fault synthesis for large-scale simulation experiments.
//!
//! The accuracy experiments of the paper (Figures 8 and 9) run over risk
//! models built from a production-cluster policy with up to tens of thousands
//! of EPG pairs. Deploying such a policy through the full fabric simulator and
//! re-running the equivalence check for every experiment repetition would
//! dominate the running time without changing the outcome: what the
//! localization algorithms consume is only *which edges of the risk model are
//! marked failed*. This module therefore synthesizes object faults directly at
//! the risk-model level:
//!
//! * a **full** fault marks every `(switch, pair, contract, filter)`
//!   combination that depends on the object as violated;
//! * a **partial** fault marks a random strict subset of those combinations.
//!
//! The synthesized [`Violation`]s carry exactly the objects a missing rule's
//! provenance would carry, so augmenting a risk model with them is equivalent
//! to augmenting it with the missing rules the equivalence checker would have
//! produced (this equivalence is asserted by an integration test).

use std::collections::BTreeSet;

use rand::seq::SliceRandom;
use rand::Rng;

use scout_core::RiskModel;
use scout_fabric::{ChangeAction, ChangeLog, Timestamp};
use scout_policy::{EpgPair, ObjectId, PolicyUniverse, SwitchEpgPair, SwitchId};

use crate::object_faults::ObjectFaultKind;

/// One synthesized policy violation: the equivalent of one missing TCAM rule
/// group for a `(switch, pair)` element.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// The switch the missing rules belong to.
    pub switch: SwitchId,
    /// The EPG pair whose traffic is affected.
    pub pair: EpgPair,
    /// The policy objects in the violation (VRF, both EPGs, contract, filter).
    pub objects: BTreeSet<ObjectId>,
}

/// The outcome of synthesizing faults for a set of objects.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct SyntheticFaults {
    /// The truly faulty objects (ground truth `G`).
    pub objects: BTreeSet<ObjectId>,
    /// The synthesized violations.
    pub violations: Vec<Violation>,
}

impl SyntheticFaults {
    /// Returns `true` if no violations were produced.
    pub fn is_empty(&self) -> bool {
        self.violations.is_empty()
    }

    /// Applies the violations to a controller risk model (marks the edges from
    /// each `(switch, pair)` triplet to the violation's objects plus the switch
    /// as failed).
    pub fn apply_to_controller_model(&self, model: &mut RiskModel<SwitchEpgPair>) {
        for v in &self.violations {
            let element = SwitchEpgPair::new(v.switch, v.pair);
            for &obj in &v.objects {
                model.mark_failed(element, obj);
            }
            model.mark_failed(element, ObjectId::Switch(v.switch));
        }
    }

    /// Applies the violations concerning `switch` to its switch risk model.
    pub fn apply_to_switch_model(&self, model: &mut RiskModel<EpgPair>, switch: SwitchId) {
        for v in self.violations.iter().filter(|v| v.switch == switch) {
            for &obj in &v.objects {
                model.mark_failed(v.pair, obj);
            }
        }
    }

    /// The switches that have at least one violation.
    pub fn affected_switches(&self) -> BTreeSet<SwitchId> {
        self.violations.iter().map(|v| v.switch).collect()
    }
}

/// All `(switch, pair, violation-objects)` combinations that depend on
/// `object` in `universe`.
fn combinations_for_object(universe: &PolicyUniverse, object: ObjectId) -> Vec<Violation> {
    let mut combos = Vec::new();
    for binding in universe.bindings() {
        let Some(consumer) = universe.epg(binding.consumer) else {
            continue;
        };
        let vrf = consumer.vrf;
        let pair = EpgPair::new(binding.consumer, binding.provider);
        let Some(contract) = universe.contract(binding.contract) else {
            continue;
        };
        for &filter in &contract.filters {
            let objects: BTreeSet<ObjectId> = [
                ObjectId::Vrf(vrf),
                ObjectId::Epg(binding.consumer),
                ObjectId::Epg(binding.provider),
                ObjectId::Contract(binding.contract),
                ObjectId::Filter(filter),
            ]
            .into_iter()
            .collect();
            let involves_object = match object {
                ObjectId::Switch(_) => true,
                other => objects.contains(&other),
            };
            if !involves_object {
                continue;
            }
            for switch in universe.switches_for_pair(pair) {
                if let ObjectId::Switch(target) = object {
                    if switch != target {
                        continue;
                    }
                }
                combos.push(Violation {
                    switch,
                    pair,
                    objects: objects.clone(),
                });
            }
        }
    }
    combos
}

/// Synthesizes one fault of the given kind on `object`.
///
/// Returns `None` if nothing in the policy depends on the object. Partial
/// faults keep at least one combination intact whenever more than one exists.
pub fn synthesize_fault_on<R: Rng>(
    universe: &PolicyUniverse,
    object: ObjectId,
    kind: ObjectFaultKind,
    rng: &mut R,
) -> Option<Vec<Violation>> {
    let combos = combinations_for_object(universe, object);
    reduce_combinations(combos, kind, rng)
}

/// Synthesizes one fault of the given kind on `object`, restricted to the
/// deployment of the object on a single `switch` — the setting of the
/// switch-risk-model experiment (Figure 8), where a policy object fails to be
/// rendered correctly on one particular switch.
pub fn synthesize_fault_on_switch<R: Rng>(
    universe: &PolicyUniverse,
    object: ObjectId,
    switch: SwitchId,
    kind: ObjectFaultKind,
    rng: &mut R,
) -> Option<Vec<Violation>> {
    let combos: Vec<Violation> = combinations_for_object(universe, object)
        .into_iter()
        .filter(|v| v.switch == switch)
        .collect();
    reduce_combinations(combos, kind, rng)
}

fn reduce_combinations<R: Rng>(
    mut combos: Vec<Violation>,
    kind: ObjectFaultKind,
    rng: &mut R,
) -> Option<Vec<Violation>> {
    if combos.is_empty() {
        return None;
    }
    match kind {
        ObjectFaultKind::Full => Some(combos),
        ObjectFaultKind::Partial => {
            combos.shuffle(rng);
            let upper = combos.len().saturating_sub(1).max(1);
            let take = rng.gen_range(1..=upper);
            combos.truncate(take);
            Some(combos)
        }
    }
}

/// Policy objects (never switches) that have at least one deployable
/// `(binding, filter)` combination on `switch` — the fault candidates of the
/// switch-scoped experiment.
pub fn candidate_objects_on_switch(universe: &PolicyUniverse, switch: SwitchId) -> Vec<ObjectId> {
    let mut used: BTreeSet<ObjectId> = BTreeSet::new();
    let local_pairs = universe.pairs_on_switch(switch);
    for binding in universe.bindings() {
        let pair = EpgPair::new(binding.consumer, binding.provider);
        if local_pairs.binary_search(&pair).is_err() {
            continue;
        }
        if let Some(consumer) = universe.epg(binding.consumer) {
            used.insert(ObjectId::Vrf(consumer.vrf));
        }
        used.insert(ObjectId::Epg(binding.consumer));
        used.insert(ObjectId::Epg(binding.provider));
        used.insert(ObjectId::Contract(binding.contract));
        if let Some(contract) = universe.contract(binding.contract) {
            for &filter in &contract.filters {
                used.insert(ObjectId::Filter(filter));
            }
        }
    }
    used.into_iter().collect()
}

/// Chooses `count` distinct faulty policy objects among those deployed on
/// `switch`, makes each fail (fully or partially, equal probability) *on that
/// switch only*, and synthesizes the corresponding violations.
pub fn synthesize_switch_scoped_faults<R: Rng>(
    universe: &PolicyUniverse,
    switch: SwitchId,
    count: usize,
    rng: &mut R,
) -> SyntheticFaults {
    let mut candidates = candidate_objects_on_switch(universe, switch);
    candidates.shuffle(rng);
    let mut result = SyntheticFaults::default();
    for object in candidates.into_iter().take(count) {
        let kind = if rng.gen_bool(0.5) {
            ObjectFaultKind::Full
        } else {
            ObjectFaultKind::Partial
        };
        if let Some(violations) = synthesize_fault_on_switch(universe, object, switch, kind, rng) {
            result.objects.insert(object);
            result.violations.extend(violations);
        }
    }
    result
}

/// Chooses `count` distinct faulty policy objects (never switches) uniformly at
/// random, picks full or partial with equal probability, and synthesizes their
/// violations.
pub fn synthesize_object_faults<R: Rng>(
    universe: &PolicyUniverse,
    count: usize,
    rng: &mut R,
) -> SyntheticFaults {
    // Candidate objects: every policy object that at least one deployable
    // (binding, filter) combination depends on, collected in a single pass
    // over the bindings so that large policies stay cheap to sample from.
    let mut used: BTreeSet<ObjectId> = BTreeSet::new();
    for binding in universe.bindings() {
        let pair = scout_policy::EpgPair::new(binding.consumer, binding.provider);
        if universe.switches_for_pair(pair).is_empty() {
            continue;
        }
        if let Some(consumer) = universe.epg(binding.consumer) {
            used.insert(ObjectId::Vrf(consumer.vrf));
        }
        used.insert(ObjectId::Epg(binding.consumer));
        used.insert(ObjectId::Epg(binding.provider));
        used.insert(ObjectId::Contract(binding.contract));
        if let Some(contract) = universe.contract(binding.contract) {
            for &filter in &contract.filters {
                used.insert(ObjectId::Filter(filter));
            }
        }
    }
    let mut candidates: Vec<ObjectId> = used.into_iter().collect();
    candidates.shuffle(rng);

    let mut result = SyntheticFaults::default();
    for object in candidates.into_iter().take(count) {
        let kind = if rng.gen_bool(0.5) {
            ObjectFaultKind::Full
        } else {
            ObjectFaultKind::Partial
        };
        if let Some(violations) = synthesize_fault_on(universe, object, kind, rng) {
            result.objects.insert(object);
            result.violations.extend(violations);
        }
    }
    result
}

/// Builds a synthetic controller change log consistent with the synthesized
/// faults: every object is created at deployment time, and each faulty object
/// has a recent `Modify` entry (the operation whose deployment went wrong).
pub fn synthetic_change_log(universe: &PolicyUniverse, faults: &SyntheticFaults) -> ChangeLog {
    let mut log = ChangeLog::new();
    let mut t = 0u64;
    for object in universe.all_objects() {
        if object.is_switch() {
            continue;
        }
        t += 1;
        log.record(
            Timestamp::new(t),
            object,
            ChangeAction::Create,
            None,
            "initial deployment",
        );
    }
    // Recent modifications of the faulty objects, well after deployment.
    let mut recent = t + 1_000;
    for &object in &faults.objects {
        recent += 1;
        log.record(
            Timestamp::new(recent),
            object,
            ChangeAction::Modify,
            None,
            "recent operation preceding the deployment failure",
        );
    }
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scout_core::{controller_risk_model, switch_risk_model};
    use scout_policy::sample;

    #[test]
    fn full_fault_marks_every_dependent_element() {
        let u = sample::three_tier();
        let mut rng = StdRng::seed_from_u64(1);
        let violations = synthesize_fault_on(
            &u,
            ObjectId::Filter(sample::F_700),
            ObjectFaultKind::Full,
            &mut rng,
        )
        .unwrap();
        // Filter 700 is used by the App-DB pair, deployed on S2 and S3.
        assert_eq!(violations.len(), 2);
        let mut model = controller_risk_model(&u);
        let faults = SyntheticFaults {
            objects: BTreeSet::from([ObjectId::Filter(sample::F_700)]),
            violations,
        };
        faults.apply_to_controller_model(&mut model);
        assert_eq!(model.failure_signature().len(), 2);
        assert_eq!(model.hit_ratio(ObjectId::Filter(sample::F_700)), 1.0);
        assert!(model.hit_ratio(ObjectId::Vrf(sample::VRF)) < 1.0);
    }

    #[test]
    fn partial_fault_leaves_some_combinations_intact() {
        let u = sample::three_tier();
        let mut rng = StdRng::seed_from_u64(5);
        let violations = synthesize_fault_on(
            &u,
            ObjectId::Vrf(sample::VRF),
            ObjectFaultKind::Partial,
            &mut rng,
        )
        .unwrap();
        let all = combinations_for_object(&u, ObjectId::Vrf(sample::VRF));
        assert!(!violations.is_empty());
        assert!(violations.len() < all.len());
    }

    #[test]
    fn switch_fault_is_restricted_to_the_switch() {
        let u = sample::three_tier();
        let mut rng = StdRng::seed_from_u64(2);
        let violations = synthesize_fault_on(
            &u,
            ObjectId::Switch(sample::S2),
            ObjectFaultKind::Full,
            &mut rng,
        )
        .unwrap();
        assert!(violations.iter().all(|v| v.switch == sample::S2));
        // Both pairs are deployed on S2, each with its filters: 1 (Web-App)
        // + 2 (App-DB) = 3 combinations.
        assert_eq!(violations.len(), 3);
    }

    #[test]
    fn apply_to_switch_model_only_touches_that_switch() {
        let u = sample::three_tier();
        let mut rng = StdRng::seed_from_u64(3);
        let violations = synthesize_fault_on(
            &u,
            ObjectId::Filter(sample::F_700),
            ObjectFaultKind::Full,
            &mut rng,
        )
        .unwrap();
        let faults = SyntheticFaults {
            objects: BTreeSet::from([ObjectId::Filter(sample::F_700)]),
            violations,
        };
        let mut s2 = switch_risk_model(&u, sample::S2);
        faults.apply_to_switch_model(&mut s2, sample::S2);
        assert_eq!(s2.failure_signature().len(), 1);
        let mut s1 = switch_risk_model(&u, sample::S1);
        faults.apply_to_switch_model(&mut s1, sample::S1);
        assert!(s1.failure_signature().is_empty());
        assert_eq!(
            faults.affected_switches(),
            BTreeSet::from([sample::S2, sample::S3])
        );
    }

    #[test]
    fn switch_scoped_fault_only_touches_that_switch() {
        let u = sample::three_tier();
        let mut rng = StdRng::seed_from_u64(8);
        // Filter 700 is deployed on S2 and S3; scope the fault to S2 only.
        let violations = synthesize_fault_on_switch(
            &u,
            ObjectId::Filter(sample::F_700),
            sample::S2,
            ObjectFaultKind::Full,
            &mut rng,
        )
        .unwrap();
        assert_eq!(violations.len(), 1);
        assert!(violations.iter().all(|v| v.switch == sample::S2));
        // An object that is not deployed on the switch yields no fault.
        assert!(synthesize_fault_on_switch(
            &u,
            ObjectId::Epg(sample::WEB),
            sample::S3,
            ObjectFaultKind::Full,
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn candidate_objects_on_switch_follow_deployment() {
        let u = sample::three_tier();
        // S1 hosts only the Web-App pair: 5 objects.
        let s1 = candidate_objects_on_switch(&u, sample::S1);
        assert_eq!(s1.len(), 5);
        assert!(s1.contains(&ObjectId::Epg(sample::WEB)));
        assert!(!s1.contains(&ObjectId::Filter(sample::F_700)));
        // S2 hosts both pairs: all 8 policy objects.
        assert_eq!(candidate_objects_on_switch(&u, sample::S2).len(), 8);
    }

    #[test]
    fn switch_scoped_synthesis_produces_local_ground_truth() {
        let u = sample::three_tier();
        let mut rng = StdRng::seed_from_u64(17);
        let faults = synthesize_switch_scoped_faults(&u, sample::S2, 3, &mut rng);
        assert_eq!(faults.objects.len(), 3);
        assert!(faults.violations.iter().all(|v| v.switch == sample::S2));
        assert_eq!(faults.affected_switches(), BTreeSet::from([sample::S2]));
    }

    #[test]
    fn synthesize_object_faults_has_distinct_ground_truth() {
        let u = sample::three_tier();
        let mut rng = StdRng::seed_from_u64(11);
        let faults = synthesize_object_faults(&u, 3, &mut rng);
        assert_eq!(faults.objects.len(), 3);
        assert!(!faults.is_empty());
        assert!(faults.objects.iter().all(|o| !o.is_switch()));
    }

    #[test]
    fn synthetic_change_log_marks_faulty_objects_as_recent() {
        let u = sample::three_tier();
        let mut rng = StdRng::seed_from_u64(4);
        let faults = synthesize_object_faults(&u, 2, &mut rng);
        let log = synthetic_change_log(&u, &faults);
        // 8 creation entries + 2 modifications.
        assert_eq!(log.len(), 10);
        for &obj in &faults.objects {
            let last = log.last_entry_for(obj).unwrap();
            assert_eq!(last.action, ChangeAction::Modify);
            assert!(last.time > Timestamp::new(100));
        }
    }

    #[test]
    fn synthesizing_fault_on_unused_object_returns_none() {
        let u = sample::three_tier();
        let mut rng = StdRng::seed_from_u64(6);
        assert!(synthesize_fault_on(
            &u,
            ObjectId::Filter(scout_policy::FilterId::new(999)),
            ObjectFaultKind::Full,
            &mut rng
        )
        .is_none());
    }

    #[test]
    fn synthesis_is_deterministic_per_seed() {
        let u = sample::three_tier();
        let run = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            synthesize_object_faults(&u, 4, &mut rng)
        };
        assert_eq!(run(99), run(99));
    }
}
