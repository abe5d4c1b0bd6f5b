//! Localization costs the failure, not the fabric: a count-based work bound
//! on the SCOUT cover stage, in the style of `tests/incremental.rs`.
//!
//! A 200-switch `ScaleSpec::large_fabric` session is driven through epochs of
//! single-switch drift and repair with up to eight switches damaged at once.
//! At every epoch the model the cover stage runs on — the augmented model's
//! failure subgraph — holds no more elements than the failure signature has
//! observations, the session re-localizes no more failure components than
//! the epoch's changed elements reach, and the session's reports stay
//! bit-identical to from-scratch analysis.

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scout::core::{augment_controller_model, controller_risk_model, RiskModel, ScoutEngine};
use scout::equiv::NetworkCheckResult;
use scout::fabric::{Fabric, FabricProbe};
use scout::policy::{ObjectId, SwitchEpgPair};
use scout::workload::ScaleSpec;

/// Switches damaged at most at once.
const DAMAGE_CAP: usize = 8;

#[test]
fn cover_stage_work_is_bounded_by_the_failure_signature() {
    let mut fabric = Fabric::new(ScaleSpec::large_fabric(200).generate(3));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    let mut rng = StdRng::seed_from_u64(3);
    let switches = fabric.universe().switch_ids();
    let mut damaged: VecDeque<_> = VecDeque::new();
    let (mut peak_signature, mut peak_damaged) = (0, 0);
    let mut total_localized = 0;

    for epoch in 1..=40usize {
        if damaged.is_empty() || (damaged.len() < DAMAGE_CAP && rng.gen_bool(0.7)) {
            let &switch = switches
                .iter()
                .filter(|s| !damaged.contains(*s))
                .copied()
                .collect::<Vec<_>>()
                .choose(&mut rng)
                .expect("more switches than the cap");
            let port = rng.gen_range(0u16..7);
            fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start % 7 == port);
            damaged.push_back(switch);
        } else {
            let switch = damaged.pop_front().expect("checked above");
            fabric.repair_switch(switch);
        }
        let check = session.full_report().check.clone();
        let joined_before = subgraph_risks(&augmented(&fabric, &check));
        let localized_before = session.stats().components_localized;
        let delta = session
            .ingest_observation(&mut probe, &fabric)
            .expect("faithful observations ingest cleanly");
        let localized = session.stats().components_localized - localized_before;

        let check = session.full_report().check.clone();
        let changed: BTreeSet<SwitchEpgPair> = (delta.newly_missing.iter())
            .chain(&delta.restored)
            .map(|r| SwitchEpgPair::new(r.switch, r.pair()))
            .collect();
        let m = augmented(&fabric, &check);
        let (projected, signature, reach) = (
            m.failure_subgraph().element_count(),
            m.failure_signature().len(),
            components_reached(&m, &changed, &joined_before),
        );
        assert!(
            projected <= signature,
            "epoch {epoch}: the cover stage holds {projected} elements for {signature} observations"
        );
        assert!(
            localized <= reach,
            "epoch {epoch}: {localized} components localized, {reach} reached"
        );
        total_localized += localized;
        peak_signature = peak_signature.max(signature);
        peak_damaged = peak_damaged.max(damaged.len());

        if epoch % 5 == 0 {
            assert_eq!(
                *session.full_report(),
                engine.analyze(&fabric),
                "epoch {epoch}: session report diverged from from-scratch analysis"
            );
        }
    }
    // The timeline exercised the bound: several switches failed at once.
    assert!(peak_damaged >= 5, "peak damage {peak_damaged}");
    assert!(peak_signature > 0);
    assert!(total_localized > 0);
}

/// The controller model of `fabric`'s universe with the missing rules of
/// `check` marked.
fn augmented(fabric: &Fabric, check: &NetworkCheckResult) -> RiskModel<SwitchEpgPair> {
    let mut model = controller_risk_model(fabric.universe());
    augment_controller_model(&mut model, check.missing_rules());
    model
}

/// The risks of `model`'s failure subgraph: the risks that join
/// observations into failure components.
fn subgraph_risks(model: &RiskModel<SwitchEpgPair>) -> BTreeSet<ObjectId> {
    model.failure_subgraph().risks().copied().collect()
}

/// The number of failure components of `model` that `changed` elements
/// reach: those holding a changed element, or a dependent of a risk of one
/// that joins components before (`joined_before`) or after the change.
fn components_reached(
    model: &RiskModel<SwitchEpgPair>,
    changed: &BTreeSet<SwitchEpgPair>,
    joined_before: &BTreeSet<ObjectId>,
) -> usize {
    let subgraph = model.failure_subgraph();
    // Label every observation with its component.
    let mut component: BTreeMap<SwitchEpgPair, usize> = BTreeMap::new();
    for seed in model.failure_signature() {
        if component.contains_key(&seed) {
            continue;
        }
        let label = component.len();
        let mut queue = vec![seed];
        component.insert(seed, label);
        while let Some(o) = queue.pop() {
            for risk in subgraph.risks_of(&o) {
                for d in subgraph.dependents_of(risk) {
                    if let std::collections::btree_map::Entry::Vacant(slot) = component.entry(d) {
                        slot.insert(label);
                        queue.push(d);
                    }
                }
            }
        }
    }
    let joined_after = subgraph_risks(model);
    let mut reached: BTreeSet<usize> = BTreeSet::new();
    for e in changed {
        reached.extend(component.get(e).copied());
        for risk in model.risks_of(e) {
            if joined_before.contains(&risk) || joined_after.contains(&risk) {
                let dependents = model.dependents_of(risk);
                reached.extend(dependents.iter().filter_map(|d| component.get(d).copied()));
            }
        }
    }
    reached.len()
}
