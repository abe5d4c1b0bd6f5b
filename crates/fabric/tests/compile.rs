//! Compile equivalence: the index-driven [`compile`] must emit exactly what
//! the binding scan it replaced emitted — rule for rule and in order — since
//! snapshot bytes, TCAM install order and every committed figure depend on
//! that order. The scan lives on here, and only here, as the reference.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::SeedableRng;

use scout_fabric::{compile, compile_for_switch, diff_rules, Fabric, FabricEvent, FabricView};
use scout_policy::{
    sample, Action, Contract, ContractBinding, ContractId, Endpoint, EndpointId, Epg, EpgId,
    Filter, FilterId, LogicalRule, PolicyUniverse, RuleMatch, RuleProvenance, Switch, SwitchId,
    TcamRule, Tenant, TenantId, Vrf, VrfId,
};
use scout_workload::{random_policy_edit, ClusterSpec, ScaleSpec, TestbedSpec};

/// The compiler as it was before the index walk: every switch filters every
/// binding through its hosted-EPG set.
fn scan_compile(universe: &PolicyUniverse) -> Vec<LogicalRule> {
    let mut rules = Vec::new();
    for switch in universe.switch_ids() {
        let local_epgs: BTreeSet<EpgId> = universe.epgs_on_switch(switch);
        for binding in universe.bindings() {
            if !local_epgs.contains(&binding.consumer) && !local_epgs.contains(&binding.provider) {
                continue;
            }
            let Some(consumer_epg) = universe.epg(binding.consumer) else {
                continue;
            };
            let vrf = consumer_epg.vrf;
            let Some(contract) = universe.contract(binding.contract) else {
                continue;
            };
            for &filter_id in &contract.filters {
                let Some(filter) = universe.filter(filter_id) else {
                    continue;
                };
                for entry in &filter.entries {
                    if entry.action != Action::Allow {
                        continue;
                    }
                    let provenance = RuleProvenance::new(
                        vrf,
                        binding.consumer,
                        binding.provider,
                        binding.contract,
                        filter_id,
                    );
                    for (src, dst) in [
                        (binding.consumer, binding.provider),
                        (binding.provider, binding.consumer),
                    ] {
                        let matcher = RuleMatch::new(vrf, src, dst, entry.protocol, entry.ports);
                        rules.push(LogicalRule::new(
                            switch,
                            TcamRule::allow(matcher),
                            provenance,
                        ));
                    }
                }
            }
        }
    }
    rules
}

/// Asserts index == scan on `universe` and after each of `edits` seeded
/// random policy edits applied in sequence.
fn assert_equivalent_along_edits(name: &str, mut universe: PolicyUniverse, edits: usize) {
    assert_eq!(compile(&universe), scan_compile(&universe), "{name}: base");
    let mut rng = StdRng::seed_from_u64(0x5c0_u64 + edits as u64);
    for step in 0..edits {
        universe = random_policy_edit(&universe, &mut rng)
            .expect("every spec has contracts")
            .universe;
        let compiled = compile(&universe);
        assert!(
            compiled == scan_compile(&universe),
            "{name}: index and scan diverge after edit {step}"
        );
        // The per-switch entry point is the same walk.
        let switch = universe.switch_ids()[step % universe.switch_ids().len()];
        let of_switch: Vec<LogicalRule> = compiled
            .iter()
            .filter(|r| r.switch == switch)
            .copied()
            .collect();
        assert_eq!(
            compile_for_switch(&universe, switch),
            of_switch,
            "{name}: {switch}"
        );
    }
}

#[test]
fn three_tier_compiles_like_the_scan() {
    assert_equivalent_along_edits("three_tier", sample::three_tier(), 50);
}

#[test]
fn testbed_compiles_like_the_scan() {
    assert_equivalent_along_edits("testbed", TestbedSpec::paper().generate(7), 50);
}

#[test]
fn paper_cluster_compiles_like_the_scan() {
    assert_equivalent_along_edits("cluster", ClusterSpec::paper().generate(7), 50);
}

#[test]
fn large_fabric_compiles_like_the_scan() {
    assert_equivalent_along_edits("large_fabric", ScaleSpec::large_fabric(64).generate(7), 50);
}

/// EPG `a` hosted on S1 *and* S2, EPG `b` on S1, S3 without endpoints; one
/// contract whose two filters are listed in `filters` order.
fn spread_universe(filters: [FilterId; 2]) -> PolicyUniverse {
    let (s1, s2, s3) = (SwitchId::new(1), SwitchId::new(2), SwitchId::new(3));
    let (a, b) = (EpgId::new(1), EpgId::new(2));
    let mut builder = PolicyUniverse::builder();
    builder
        .tenant(Tenant::new(TenantId::new(0), "t"))
        .vrf(Vrf::new(VrfId::new(1), "v", TenantId::new(0)))
        .epg(Epg::new(a, "a", VrfId::new(1)))
        .epg(Epg::new(b, "b", VrfId::new(1)))
        .switch(Switch::new(s1, "s1"))
        .switch(Switch::new(s2, "s2"))
        .switch(Switch::new(s3, "s3-empty"))
        .endpoint(Endpoint::new(EndpointId::new(1), "a@s1", a, s1))
        .endpoint(Endpoint::new(EndpointId::new(2), "a@s2", a, s2))
        .endpoint(Endpoint::new(EndpointId::new(3), "b@s1", b, s1))
        .filter(Filter::tcp_port(FilterId::new(1), "http", 80))
        .filter(Filter::tcp_port(FilterId::new(2), "alt", 8080))
        .contract(Contract::new(ContractId::new(1), "c", filters.to_vec()))
        .bind(ContractBinding::new(a, b, ContractId::new(1)));
    builder.build().expect("well-formed")
}

#[test]
fn empty_switch_and_multi_homed_epg_compile_like_the_scan() {
    let universe = spread_universe([FilterId::new(1), FilterId::new(2)]);
    let rules = compile(&universe);
    assert_eq!(rules, scan_compile(&universe));
    // Both hosts of `a` carry the pair's four rules; the empty switch none.
    assert_eq!(compile_for_switch(&universe, SwitchId::new(1)).len(), 4);
    assert_eq!(compile_for_switch(&universe, SwitchId::new(2)).len(), 4);
    assert!(compile_for_switch(&universe, SwitchId::new(3)).is_empty());
    assert!(compile_for_switch(&universe, SwitchId::new(99)).is_empty());
}

#[test]
fn reordered_filter_list_changes_the_order_but_dirties_nothing() {
    let before = spread_universe([FilterId::new(1), FilterId::new(2)]);
    let after = spread_universe([FilterId::new(2), FilterId::new(1)]);
    let (old_rules, new_rules) = (compile(&before), compile(&after));
    assert_eq!(new_rules, scan_compile(&after));
    assert_ne!(old_rules, new_rules, "the filter order is visible");
    let as_set = |rules: &[LogicalRule]| rules.iter().copied().collect::<BTreeSet<_>>();
    assert_eq!(as_set(&old_rules), as_set(&new_rules));
    assert_eq!(diff_rules(&old_rules, &new_rules), Default::default());

    // Neither consumer of the diff sees a change: the mirror reports no
    // dirty switch and the controller pushes no instruction.
    let mut fabric = Fabric::new(before);
    fabric.deploy();
    let mut view = FabricView::of(&fabric);
    let epoch = fabric.epoch();
    let update = FabricEvent::PolicyUpdate {
        version: fabric.universe_version() + 1,
        universe: Arc::new(after.clone()),
    };
    assert!(view.apply(&update).expect("applies").is_empty());
    assert_eq!(view.logical_rules(), new_rules);
    assert_eq!(fabric.update_policy(after).instructions_sent, 0);
    assert!(fabric.dirty_switches_since(epoch).is_empty());
    assert_eq!(fabric.logical_rules(), new_rules);
}
