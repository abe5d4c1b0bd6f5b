//! The universe's dependency indexes equal a naive scan of its objects.
//!
//! Every dependency query of `PolicyUniverse` is answered from indexes built
//! once at `PolicyBuilder::build`. This suite re-derives each answer from a
//! direct scan of the endpoints and bindings — no index involved — and
//! asserts equality for every switch, bound pair and object, over the
//! testbed, the production-cluster shape, two scale shapes and a "hub"
//! universe whose single contract spans the fabric. Results are compared as
//! `BTreeSet`s so the test pins the answers, not the container types.
//! A wire round trip must reproduce the universe exactly.
//!
//! Two allocation guards, measured as deterministic byte counts by the
//! tracking allocator `scout-fuzz` installs: the full-size hub (one EPG on
//! 300 switches, 1000 spokes, 40 filters) decodes within 24 MiB and within
//! the fuzz oracle's `accept_budget`, and a clone of the 1000-switch scale
//! universe holds at most 8 MiB.

use std::collections::{BTreeMap, BTreeSet};

use scout::fabric::wire::{from_bytes, to_bytes};
use scout::policy::{
    Contract, ContractBinding, ContractId, Endpoint, EndpointId, Epg, EpgId, EpgPair, Filter,
    FilterId, ObjectId, PolicyUniverse, Switch, SwitchId, Tenant, TenantId, Vrf, VrfId,
};
use scout::workload::{ClusterSpec, ScaleSpec, TestbedSpec};
use scout_fuzz::alloc;
use scout_fuzz::oracle::accept_budget;

const MIB: usize = 1024 * 1024;

/// One EPG on `switches` switches, bound to `spokes` single-endpoint EPGs by
/// one contract of `filters` filters. Every pair shares the hub's switches,
/// so an index that materialized pairs × closure × hosts would be large.
/// One spare switch hosts nothing and one spare filter is in no contract.
fn hub(switches: u32, spokes: u32, filters: u32) -> PolicyUniverse {
    let tenant = TenantId::new(0);
    let vrf = VrfId::new(0);
    let contract = ContractId::new(0);
    let hub_epg = EpgId::new(0);
    let mut b = PolicyUniverse::builder();
    b.tenant(Tenant::new(tenant, "hub-tenant"))
        .vrf(Vrf::new(vrf, "hub-vrf", tenant));
    for f in 0..=filters {
        b.filter(Filter::tcp_port(
            FilterId::new(f),
            format!("hub-filter-{f}"),
            1000 + f as u16,
        ));
    }
    b.contract(Contract::new(
        contract,
        "hub-contract",
        (0..filters).map(FilterId::new).collect(),
    ));
    for s in 0..=switches {
        b.switch(Switch::new(SwitchId::new(s), format!("hub-leaf-{s}")));
    }
    b.epg(Epg::new(hub_epg, "hub", vrf));
    let mut endpoint = 0u32;
    for s in 0..switches {
        b.endpoint(Endpoint::new(
            EndpointId::new(endpoint),
            format!("hub-ep-{endpoint}"),
            hub_epg,
            SwitchId::new(s),
        ));
        endpoint += 1;
    }
    for i in 1..=spokes {
        let spoke = EpgId::new(i);
        b.epg(Epg::new(spoke, format!("spoke-{i}"), vrf));
        b.endpoint(Endpoint::new(
            EndpointId::new(endpoint),
            format!("spoke-ep-{endpoint}"),
            spoke,
            SwitchId::new(i % switches),
        ));
        endpoint += 1;
        b.bind(ContractBinding::new(spoke, hub_epg, contract));
    }
    b.build().expect("the hub universe is well-formed")
}

/// Every universe the suite checks, with a label for failure messages.
fn universes() -> Vec<(String, PolicyUniverse)> {
    let mut out = Vec::new();
    for seed in [1, 2, 3] {
        out.push((
            format!("testbed/{seed}"),
            TestbedSpec::paper().generate(seed),
        ));
        out.push((
            format!("large_fabric(50)/{seed}"),
            ScaleSpec::large_fabric(50).generate(seed),
        ));
        out.push((
            format!("with_switches(12)/{seed}"),
            ScaleSpec::with_switches(12).generate(seed),
        ));
    }
    for seed in [1, 2] {
        out.push((
            format!("cluster/{seed}"),
            ClusterSpec::paper().generate(seed),
        ));
    }
    out.push(("hub".to_string(), hub(40, 120, 12)));
    out
}

/// The answers of every dependency query, derived by scanning endpoints and
/// bindings directly.
struct Scan {
    hosts: BTreeMap<EpgId, BTreeSet<SwitchId>>,
    local_epgs: BTreeMap<SwitchId, BTreeSet<EpgId>>,
    closures: BTreeMap<EpgPair, BTreeSet<ObjectId>>,
    pairs_on_switch: BTreeMap<SwitchId, BTreeSet<EpgPair>>,
    object_pairs: BTreeMap<ObjectId, BTreeSet<EpgPair>>,
}

impl Scan {
    fn of(u: &PolicyUniverse) -> Self {
        let mut hosts: BTreeMap<EpgId, BTreeSet<SwitchId>> = BTreeMap::new();
        let mut local_epgs: BTreeMap<SwitchId, BTreeSet<EpgId>> = BTreeMap::new();
        for ep in u.endpoints() {
            hosts.entry(ep.epg).or_default().insert(ep.switch);
            local_epgs.entry(ep.switch).or_default().insert(ep.epg);
        }
        let mut closures: BTreeMap<EpgPair, BTreeSet<ObjectId>> = BTreeMap::new();
        for b in u.bindings() {
            let pair = EpgPair::new(b.consumer, b.provider);
            let closure = closures.entry(pair).or_default();
            for epg in pair.members() {
                closure.insert(ObjectId::Epg(epg));
                closure.insert(ObjectId::Vrf(u.epg(epg).expect("bound epg").vrf));
            }
            closure.insert(ObjectId::Contract(b.contract));
            for &f in &u.contract(b.contract).expect("bound contract").filters {
                closure.insert(ObjectId::Filter(f));
            }
        }
        let mut scan = Scan {
            hosts,
            local_epgs,
            closures,
            pairs_on_switch: BTreeMap::new(),
            object_pairs: BTreeMap::new(),
        };
        for s in u.switch_ids() {
            let pairs: BTreeSet<EpgPair> = scan
                .closures
                .keys()
                .copied()
                .filter(|&p| scan.switches_for_pair(p).contains(&s))
                .collect();
            if !pairs.is_empty() {
                scan.object_pairs.insert(ObjectId::Switch(s), pairs.clone());
            }
            scan.pairs_on_switch.insert(s, pairs);
        }
        for (&pair, closure) in &scan.closures {
            for &object in closure {
                scan.object_pairs.entry(object).or_default().insert(pair);
            }
        }
        scan
    }

    fn hosts(&self, epg: EpgId) -> BTreeSet<SwitchId> {
        self.hosts.get(&epg).cloned().unwrap_or_default()
    }

    fn switches_for_pair(&self, pair: EpgPair) -> BTreeSet<SwitchId> {
        let mut switches = self.hosts(pair.a);
        switches.extend(self.hosts(pair.b));
        switches
    }

    fn switches_for_object(&self, object: ObjectId) -> BTreeSet<SwitchId> {
        if let ObjectId::Switch(s) = object {
            return BTreeSet::from([s]);
        }
        self.object_pairs
            .get(&object)
            .into_iter()
            .flatten()
            .flat_map(|&p| self.switches_for_pair(p))
            .collect()
    }
}

fn set<'a, T: Ord + Copy + 'a>(items: impl IntoIterator<Item = &'a T>) -> BTreeSet<T> {
    items.into_iter().copied().collect()
}

#[test]
fn every_dependency_query_equals_a_scan() {
    for (name, u) in universes() {
        let scan = Scan::of(&u);
        let unknown_switch = SwitchId::new(u32::MAX);
        let unknown_epg = EpgId::new(u32::MAX);

        // Per switch, plus one the universe does not know.
        for s in u.switch_ids().into_iter().chain([unknown_switch]) {
            let local = scan.local_epgs.get(&s).cloned().unwrap_or_default();
            assert_eq!(u.epgs_on_switch(s), local, "{name}: epgs_on_switch({s})");
            let pairs = scan.pairs_on_switch.get(&s).cloned().unwrap_or_default();
            assert_eq!(
                set(u.pairs_on_switch(s)),
                pairs,
                "{name}: pairs_on_switch({s})"
            );
            let scanned: Vec<&ContractBinding> = u
                .bindings()
                .iter()
                .filter(|b| local.contains(&b.consumer) || local.contains(&b.provider))
                .collect();
            let indexed: Vec<&ContractBinding> = u.bindings_on_switch(s).collect();
            assert_eq!(indexed, scanned, "{name}: bindings_on_switch({s})");
        }

        // Per EPG.
        for epg in u.epgs().map(|e| e.id).chain([unknown_epg]) {
            assert_eq!(
                u.switches_hosting_epg(epg),
                scan.hosts(epg),
                "{name}: switches_hosting_epg({epg})"
            );
        }

        // Per pair: every bound pair, plus an unbound one.
        assert_eq!(
            u.epg_pairs(),
            set(scan.closures.keys()),
            "{name}: epg_pairs"
        );
        let closures: BTreeMap<EpgPair, BTreeSet<ObjectId>> = u
            .pair_closures()
            .map(|(pair, closure)| (pair, set(closure)))
            .collect();
        assert_eq!(closures, scan.closures, "{name}: pair_closures");
        assert!(
            u.pair_closures().map(|(pair, _)| pair).is_sorted(),
            "{name}: pair_closures in pair order"
        );
        for (&pair, closure) in &scan.closures {
            assert_eq!(
                u.objects_for_bound_pair(pair).map(set),
                Some(closure.clone()),
                "{name}: objects_for_bound_pair({pair:?})"
            );
            assert_eq!(
                u.switches_for_pair(pair),
                scan.switches_for_pair(pair),
                "{name}: switches_for_pair({pair:?})"
            );
        }
        let unbound = EpgPair::new(unknown_epg, unknown_epg);
        assert_eq!(u.objects_for_bound_pair(unbound).map(set), None, "{name}");
        assert!(u.switches_for_pair(unbound).is_empty(), "{name}");

        // Per object: every object of the universe, plus an unknown switch.
        let per_object = u.pairs_per_object();
        assert_eq!(per_object, scan.object_pairs, "{name}: pairs_per_object");
        for object in u
            .all_objects()
            .into_iter()
            .chain([ObjectId::Switch(unknown_switch)])
        {
            assert_eq!(
                u.pairs_for_object(object).map(set),
                scan.object_pairs.get(&object).cloned(),
                "{name}: pairs_for_object({object})"
            );
            assert_eq!(
                u.switches_for_object(object),
                scan.switches_for_object(object),
                "{name}: switches_for_object({object})"
            );
        }
    }
}

#[test]
fn the_hub_shape_has_what_the_suite_relies_on() {
    let u = hub(40, 120, 12);
    let contract = ObjectId::Contract(ContractId::new(0));
    assert_eq!(u.pairs_for_object(contract).map(|p| p.len()), Some(120));
    // The contract reaches every hosting switch; the spare one hosts nothing.
    assert_eq!(u.switches_for_object(contract).len(), 40);
    assert!(u.pairs_on_switch(SwitchId::new(40)).is_empty());
    assert_eq!(
        u.pairs_for_object(ObjectId::Filter(FilterId::new(12))),
        None
    );
    assert!(u
        .switches_for_object(ObjectId::Filter(FilterId::new(12)))
        .is_empty());
}

#[test]
fn wire_round_trip_reproduces_the_universe() {
    for (name, u) in universes() {
        let decoded: PolicyUniverse = from_bytes(&to_bytes(&u)).expect("round trip");
        assert!(decoded == u, "{name}: from_bytes(to_bytes(u)) != u");
    }
}

#[test]
fn the_hub_decodes_within_its_allocation_budget() {
    assert!(
        alloc::is_installed(),
        "the tracking allocator must be armed"
    );
    let bytes = to_bytes(&hub(300, 1000, 40));
    let (decoded, peak) = alloc::measure(|| from_bytes::<PolicyUniverse>(&bytes));
    let decoded = decoded.expect("the hub decodes");
    assert_eq!(decoded.stats().epg_pairs, 1000);
    assert!(peak <= 24 * MIB, "hub decode peaked at {peak} B");
    let budget = accept_budget(bytes.len());
    assert!(
        peak <= budget,
        "hub decode peaked at {peak} B, budget {budget} B"
    );
}

#[test]
fn a_large_fabric_universe_clone_holds_at_most_8_mib() {
    assert!(
        alloc::is_installed(),
        "the tracking allocator must be armed"
    );
    let universe = ScaleSpec::large_1k().generate(1);
    let (copy, held) = alloc::measure(|| universe.clone());
    assert!(copy == universe);
    assert!(held <= 8 * MIB, "a large_1k universe holds {held} B");
}
