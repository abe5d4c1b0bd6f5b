//! A policy edit costs the edit: differential and work-bound tests for the
//! two incremental stages behind every `PolicyUpdate`.
//!
//! * The patched controller risk model must equal the from-scratch one —
//!   `edges`, `dependents` and `failed` — after every edit of long seeded
//!   sequences that include switch churn and edits orphaning an object.
//! * The per-switch rule diff must return what the whole-network `BTreeSet`
//!   formulation it replaced returned: the same dirty switches, the same
//!   removed and added rules in the same order.
//! * Host-independent work bound, in the count style of `tests/incremental.rs`:
//!   a one-filter edit of a single-switch contract on a 200-switch fabric
//!   dirties exactly that switch and touches at most its pairs' elements.

use std::collections::BTreeSet;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scout::core::{controller_risk_model, patch_controller_risk_model, RiskModel, ScoutEngine};
use scout::fabric::{compile, diff_rules, Fabric, FabricEvent, FabricProbe, FabricView};
use scout::policy::{
    sample, Endpoint, EndpointId, LogicalRule, ObjectId, PolicyUniverse, Switch, SwitchEpgPair,
    SwitchId,
};
use scout::workload::{
    add_filter_to_contract, next_filter_id, random_policy_edit, remove_filter_from_contract,
    ClusterSpec, ScaleSpec, TestbedSpec,
};

/// Rebuilds `universe` keeping only the switches (and the endpoints on them)
/// that `keep` accepts, then lets `extra` add objects.
fn rebuild(
    universe: &PolicyUniverse,
    keep: impl Fn(SwitchId) -> bool,
    extra: impl FnOnce(&mut scout::policy::PolicyBuilder),
) -> PolicyUniverse {
    let mut b = PolicyUniverse::builder();
    universe.tenants().for_each(|t| {
        b.tenant(t.clone());
    });
    universe.vrfs().for_each(|v| {
        b.vrf(v.clone());
    });
    universe.epgs().for_each(|e| {
        b.epg(e.clone());
    });
    universe.switches().filter(|s| keep(s.id)).for_each(|s| {
        b.switch(s.clone());
    });
    universe
        .endpoints()
        .filter(|ep| keep(ep.switch))
        .for_each(|ep| {
            b.endpoint(ep.clone());
        });
    universe.filters().for_each(|f| {
        b.filter(f.clone());
    });
    universe.contracts().for_each(|c| {
        b.contract(c.clone());
    });
    universe.bindings().iter().for_each(|&binding| {
        b.bind(binding);
    });
    extra(&mut b);
    b.build().expect("rebuilt universe stays well-formed")
}

/// A new switch hosting one endpoint of each of two existing EPGs, so it
/// joins their pairs.
fn with_added_switch(universe: &PolicyUniverse, rng: &mut StdRng) -> PolicyUniverse {
    let switch = SwitchId::new(universe.switches().map(|s| s.id.raw()).max().unwrap_or(0) + 1);
    let mut endpoint = universe.endpoints().map(|e| e.id.raw()).max().unwrap_or(0);
    let epgs: Vec<_> = universe.epgs().map(|e| e.id).collect();
    let hosted = [
        epgs[rng.gen_range(0..epgs.len())],
        epgs[rng.gen_range(0..epgs.len())],
    ];
    rebuild(
        universe,
        |_| true,
        |b| {
            b.switch(Switch::new(switch, format!("added-{}", switch.raw())));
            for epg in hosted {
                endpoint += 1;
                b.endpoint(Endpoint::new(
                    EndpointId::new(endpoint),
                    format!("added-ep-{endpoint}"),
                    epg,
                    switch,
                ));
            }
        },
    )
}

/// Drops one switch together with its endpoints (never the last switch).
fn with_removed_switch(universe: &PolicyUniverse, rng: &mut StdRng) -> Option<PolicyUniverse> {
    let switches = universe.switch_ids();
    if switches.len() < 2 {
        return None;
    }
    let victim = switches[rng.gen_range(0..switches.len())];
    Some(rebuild(universe, |s| s != victim, |_| {}))
}

/// Adds a filter to a random contract and — next step — removes it again:
/// the removal leaves the fresh filter object without any dependent pair,
/// so its risk must vanish from the model.
fn with_fresh_filter(
    universe: &PolicyUniverse,
    rng: &mut StdRng,
) -> (PolicyUniverse, PolicyUniverse) {
    let contracts: Vec<_> = universe.contracts().map(|c| c.id).collect();
    let contract = contracts[rng.gen_range(0..contracts.len())];
    let filter = next_filter_id(universe);
    let grown = add_filter_to_contract(universe, contract, filter, rng.gen_range(20_000..60_000))
        .expect("fresh filter id on an existing contract");
    let orphaned = remove_filter_from_contract(&grown, contract, filter)
        .expect("the contract keeps its original filters");
    assert!(orphaned.filter(filter).is_some());
    assert!(orphaned
        .pairs_for_object(ObjectId::Filter(filter))
        .is_none());
    (grown, orphaned)
}

/// The rule diff as both consumers computed it before `diff_rules`: two
/// whole-network sets and their differences.
fn set_diff(
    old: &[LogicalRule],
    new: &[LogicalRule],
) -> (BTreeSet<SwitchId>, Vec<LogicalRule>, Vec<LogicalRule>) {
    let old_set: BTreeSet<LogicalRule> = old.iter().copied().collect();
    let new_set: BTreeSet<LogicalRule> = new.iter().copied().collect();
    (
        old_set
            .symmetric_difference(&new_set)
            .map(|r| r.switch)
            .collect(),
        old_set.difference(&new_set).copied().collect(),
        new_set.difference(&old_set).copied().collect(),
    )
}

/// Steps `model`/`rules` from `old` to `new` incrementally and checks both
/// against their from-scratch definitions.
fn assert_step(
    label: &str,
    model: &mut RiskModel<SwitchEpgPair>,
    rules: &mut Vec<LogicalRule>,
    old: &PolicyUniverse,
    new: &PolicyUniverse,
) {
    let patch = patch_controller_risk_model(model, old, new);
    let rebuilt = controller_risk_model(new);
    assert!(*model == rebuilt, "{label}: patched model != rebuilt model");
    assert!(
        patch.added <= rebuilt.element_count(),
        "{label}: the patch derives no element twice"
    );

    let new_rules = compile(new);
    let diff = diff_rules(rules, &new_rules);
    let (dirty, removed, added) = set_diff(rules, &new_rules);
    assert_eq!(diff.dirty, dirty, "{label}: dirty switches");
    assert!(diff.removed == removed, "{label}: removed rules");
    assert!(diff.added == added, "{label}: added rules");
    *rules = new_rules;
}

/// Runs `rounds` rounds of the seven-step edit mix over `base`.
fn run_edit_mix(name: &str, base: PolicyUniverse, rounds: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut current = base;
    let mut model = controller_risk_model(&current);
    let mut rules = compile(&current);
    let mut steps = 0;
    let mut step = |label: &str, current: &mut PolicyUniverse, next: PolicyUniverse| {
        assert_step(
            &format!("{name} step {steps} ({label})"),
            &mut model,
            &mut rules,
            current,
            &next,
        );
        *current = next;
        steps += 1;
    };
    for _ in 0..rounds {
        for _ in 0..3 {
            let next = random_policy_edit(&current, &mut rng)
                .expect("contracts exist")
                .universe;
            step("random edit", &mut current, next);
        }
        let (grown, orphaned) = with_fresh_filter(&current, &mut rng);
        step("add filter", &mut current, grown);
        step("orphan filter", &mut current, orphaned);
        let next = with_added_switch(&current, &mut rng);
        step("add switch", &mut current, next);
        if let Some(next) = with_removed_switch(&current, &mut rng) {
            step("remove switch", &mut current, next);
        }
    }
    steps
}

#[test]
fn patched_model_and_rule_diff_match_their_oracles_along_seeded_edits() {
    let steps = run_edit_mix("three_tier", sample::three_tier(), 12, 1)
        + run_edit_mix("testbed", TestbedSpec::paper().generate(3), 10, 2)
        + run_edit_mix("scale", ScaleSpec::large_fabric(48).generate(5), 8, 3)
        + run_edit_mix("cluster", ClusterSpec::small().generate(9), 4, 4);
    assert!(steps >= 200, "only {steps} edits exercised");
}

#[test]
fn identical_and_disjoint_universes_patch_cleanly() {
    // Same policy re-installed: nothing to touch.
    let u = TestbedSpec::paper().generate(3);
    let mut model = controller_risk_model(&u);
    let patch = patch_controller_risk_model(&mut model, &u, &u.clone());
    assert_eq!((patch.pruned, patch.added), (0, 0));
    assert!(model == controller_risk_model(&u));

    // A wholesale replacement: every element goes, every new one arrives.
    let other = sample::three_tier();
    let before = model.element_count();
    let patch = patch_controller_risk_model(&mut model, &u, &other);
    assert!(model == controller_risk_model(&other));
    assert_eq!(patch.pruned, before);
    assert_eq!(patch.added, model.element_count());
}

/// The work bound. On `ScaleSpec::large_fabric(200)` every contract lives on
/// one switch; adding one filter to one of them must dirty that switch alone
/// and re-derive only the elements of the contract's pairs — counts that are
/// a function of the inputs, not of the host.
#[test]
fn one_filter_edit_costs_its_contract_not_the_fabric() {
    let base = ScaleSpec::large_fabric(200).generate(11);
    let contract = base.contracts().nth(1234).expect("3200 contracts").id;
    let object = ObjectId::Contract(contract);
    let home = base.switches_for_object(object);
    assert_eq!(home.len(), 1, "scale contracts are single-switch");
    let pairs = base.pairs_for_object(object).expect("bound contract");
    let pair_elements: usize = pairs
        .iter()
        .map(|&pair| base.switches_for_pair(pair).len())
        .sum();
    let edited = add_filter_to_contract(&base, contract, next_filter_id(&base), 31_337)
        .expect("edit applies");

    // Risk model: at most the contract's pairs' elements, out of 3000+.
    let mut model = controller_risk_model(&base);
    assert!(model.element_count() > 100 * pair_elements);
    let patch = patch_controller_risk_model(&mut model, &base, &edited);
    assert!(model == controller_risk_model(&edited));
    assert_eq!(patch.pruned, patch.added);
    assert!(
        (1..=pair_elements).contains(&patch.added),
        "touched {} elements, the contract's pairs have {pair_elements}",
        patch.added
    );

    // View: exactly the contract's switch is dirty.
    let mut fabric = Fabric::new(base);
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    let mut view = FabricView::of(&fabric);
    fabric.update_policy(edited);
    let events = probe.observe(&fabric);
    let update = events
        .iter()
        .find(|e| matches!(e, FabricEvent::PolicyUpdate { .. }))
        .expect("the edit is observed");
    assert_eq!(view.apply(update).expect("applies"), home);

    // Session: the same switch is the only one re-checked, and the report
    // (built on the patched model) matches a from-scratch analysis.
    let delta = session
        .ingest(scout::fabric::EventBatch::new(session.next_epoch(), events))
        .expect("faithful batch");
    assert_eq!(delta.rechecked, home);
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
    let check = session.full_report().check.clone();
    assert!(check.is_consistent());
    let pristine = session.with_augmented_model(&fabric, &check, Clone::clone);
    assert!(pristine == controller_risk_model(fabric.universe()));
}
