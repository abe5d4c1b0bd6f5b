//! The universe's dependency indexes equal a naive scan of its objects.
//!
//! Every dependency query of `PolicyUniverse` is answered from indexes built
//! once at `PolicyBuilder::build`. This suite re-derives each answer from a
//! direct scan of the endpoints and bindings — no index involved — and
//! asserts equality for every switch, bound pair and object, over the
//! testbed, the production-cluster shape, two scale shapes and a "hub"
//! universe whose single contract spans the fabric. Results are compared as
//! `BTreeSet`s so the test pins the answers, not the container types.
//! A wire round trip must reproduce the universe exactly, and every object
//! must keep the wire bytes of a `String` name and a `Vec<FilterId>` filter
//! list for names of 0, 22, 23 and 200 bytes, non-ASCII names, and filter
//! lists around the inline capacity.
//!
//! Validation is pinned against a reference that inserts each element into
//! an id-keyed `BTreeMap` in input order: faults are injected one and two at
//! a time (duplicate ids of every kind, every dangling reference, empty
//! filters and contracts, bindings across VRFs), each case is fed in
//! ascending and in shuffled order, and `build` must return exactly the
//! reference's `PolicyError`. Shuffled valid input must build the universe
//! the ascending input builds.
//!
//! Three allocation guards, measured as deterministic byte and allocation
//! counts by the tracking allocator `scout-fuzz` installs: the full-size hub
//! (one EPG on 300 switches, 1000 spokes, 40 filters) decodes within 16 MiB
//! and within the fuzz oracle's `accept_budget`; the 1000-switch scale
//! universe decodes within 5.9 MiB, and a clone of it holds at most 4.5 MiB,
//! each in at most 1000 allocations — names and filter lists are inline.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scout::fabric::wire::{from_bytes, to_bytes};
use scout::policy::{
    Contract, ContractBinding, ContractId, Endpoint, EndpointId, Epg, EpgId, EpgPair, Filter,
    FilterId, FilterList, ObjectId, PolicyError, PolicyUniverse, Switch, SwitchId, Tenant,
    TenantId, Vrf, VrfId,
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
        (0..filters).map(FilterId::new).collect::<Vec<_>>(),
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

/// Object names of every length class an inline small string must handle:
/// empty, exactly 22 bytes, 23 and 200 bytes, non-ASCII, and multi-byte
/// characters ending at and straddling the 22-byte mark.
fn edge_names() -> Vec<String> {
    vec![
        String::new(),
        "a".repeat(22),
        "b".repeat(23),
        "c".repeat(200),
        "héllo wörld ß 日本語".to_string(),
        format!("{}é", "x".repeat(20)),
        format!("{}é", "y".repeat(21)),
        "🦀".repeat(6),
    ]
}

/// Filter-list lengths around the five filter ids a contract holds inline.
const FILTER_LIST_LENGTHS: [u32; 5] = [0, 1, 5, 6, 40];

/// Every object encodes its name as a `String` and a contract its filters as
/// a `Vec<FilterId>`, byte for byte, and decodes back to itself.
#[test]
fn object_names_and_filter_lists_keep_their_wire_bytes() {
    fn same_bytes<T, S>(label: &str, object: &T, shape: &S)
    where
        T: scout::fabric::wire::Wire + PartialEq + std::fmt::Debug,
        S: scout::fabric::wire::Wire,
    {
        let bytes = to_bytes(object);
        assert_eq!(bytes, to_bytes(shape), "{label}: wire bytes");
        assert_eq!(&from_bytes::<T>(&bytes).expect(label), object, "{label}");
    }
    let (tenant, vrf, epg) = (TenantId::new(3), VrfId::new(4), EpgId::new(5));
    let (switch, filter, contract) = (SwitchId::new(6), FilterId::new(7), ContractId::new(8));
    for name in edge_names() {
        let label = format!("{} bytes", name.len());
        let n = || name.clone();
        same_bytes(&label, &Tenant::new(tenant, n()), &(tenant, n()));
        same_bytes(&label, &Vrf::new(vrf, n(), tenant), &(vrf, (n(), tenant)));
        same_bytes(&label, &Epg::new(epg, n(), vrf), &(epg, (n(), vrf)));
        let endpoint = Endpoint::new(EndpointId::new(9), n(), epg, switch);
        same_bytes(
            &label,
            &endpoint,
            &(EndpointId::new(9), (n(), (epg, switch))),
        );
        let leaf = Switch::with_capacity(switch, n(), 77);
        same_bytes(&label, &leaf, &(switch, (n(), 77usize)));
        let f = Filter::tcp_port(filter, n(), 80);
        same_bytes(&label, &f, &(filter, (n(), f.entries.clone())));
        let c = Contract::new(contract, n(), vec![filter]);
        same_bytes(&label, &c, &(contract, (n(), vec![filter])));
    }
    for len in FILTER_LIST_LENGTHS {
        let filters: Vec<FilterId> = (0..len).map(FilterId::new).collect();
        let c = Contract::new(contract, "c", filters.clone());
        let label = format!("{len} filters");
        same_bytes(&label, &c, &(contract, (String::from("c"), filters)));
    }
}

/// A universe named with every edge name, whose contracts hold filter lists
/// of every length class, round trips to itself and to the same bytes.
#[test]
fn edge_names_and_filter_lists_round_trip_in_a_universe() {
    let names = edge_names();
    let name = |i: usize| names[i % names.len()].clone();
    let (tenant, vrf) = (TenantId::new(0), VrfId::new(0));
    let mut b = PolicyUniverse::builder();
    b.tenant(Tenant::new(tenant, name(0)))
        .vrf(Vrf::new(vrf, name(1), tenant));
    let most = FILTER_LIST_LENGTHS.into_iter().max().unwrap_or(1);
    for f in 0..most {
        b.filter(Filter::tcp_port(
            FilterId::new(f),
            name(f as usize),
            1000 + f as u16,
        ));
    }
    for (i, len) in (0u32..).zip(FILTER_LIST_LENGTHS.into_iter().filter(|&n| n > 0)) {
        let (a, z) = (EpgId::new(2 * i), EpgId::new(2 * i + 1));
        let switch = SwitchId::new(i);
        b.switch(Switch::new(switch, name(i as usize + 2)));
        for epg in [a, z] {
            b.epg(Epg::new(epg, name(epg.raw() as usize), vrf));
            b.endpoint(Endpoint::new(
                EndpointId::new(epg.raw()),
                name(epg.raw() as usize + 3),
                epg,
                switch,
            ));
        }
        let contract = ContractId::new(i);
        let filters: Vec<_> = (0..len).map(FilterId::new).collect();
        b.contract(Contract::new(contract, name(i as usize + 5), filters));
        b.bind(ContractBinding::new(a, z, contract));
    }
    let u = b.build().expect("a well-formed universe");
    for (i, len) in (0u32..).zip(FILTER_LIST_LENGTHS.into_iter().filter(|&n| n > 0)) {
        let contract = u.contract(ContractId::new(i)).expect("built");
        assert_eq!(contract.filters.len(), len as usize);
        assert_eq!(
            u.object_name(ObjectId::Contract(contract.id)),
            Some(name(i as usize + 5).as_str())
        );
    }
    let bytes = to_bytes(&u);
    let decoded: PolicyUniverse = from_bytes(&bytes).expect("round trip");
    assert!(decoded == u, "from_bytes(to_bytes(u)) != u");
    assert_eq!(to_bytes(&decoded), bytes);
}

#[test]
fn the_hub_decodes_within_its_allocation_budget() {
    assert!(
        alloc::is_installed(),
        "the tracking allocator must be armed"
    );
    let bytes = to_bytes(&hub(300, 1000, 40));
    let (decoded, usage) = alloc::measure(|| from_bytes::<PolicyUniverse>(&bytes));
    let (decoded, peak) = (decoded.expect("the hub decodes"), usage.peak);
    assert_eq!(decoded.stats().epg_pairs, 1000);
    assert!(peak <= 16 * MIB, "hub decode peaked at {peak} B");
    let budget = accept_budget(bytes.len());
    assert!(
        peak <= budget,
        "hub decode peaked at {peak} B, budget {budget} B"
    );
}

/// A `large_1k` decode makes O(tables) allocations, not one per object name
/// and contract filter list (it made 49 534 with `String` names and `Vec`
/// filter lists; 224 measured), and peaks at 5.9 MiB (5.65 measured; 6.39
/// before).
#[test]
fn a_large_fabric_universe_decodes_within_10_mib() {
    assert!(
        alloc::is_installed(),
        "the tracking allocator must be armed"
    );
    let universe = ScaleSpec::large_1k().generate(1);
    let bytes = to_bytes(&universe);
    let (decoded, usage) = alloc::measure(|| from_bytes::<PolicyUniverse>(&bytes));
    assert!(decoded.expect("large_1k decodes") == universe);
    assert!(usage.allocations <= 1000, "large_1k decode: {usage:?}");
    assert!(usage.peak <= 59 * MIB / 10, "large_1k decode: {usage:?}");
}

/// A `large_1k` clone copies each table and index in one allocation (97
/// measured; 49 170 with `String` names and `Vec` filter lists) and holds
/// at most 4.5 MiB (4.46 measured; 5.04 before).
#[test]
fn a_large_fabric_universe_clone_holds_at_most_6_mib() {
    assert!(
        alloc::is_installed(),
        "the tracking allocator must be armed"
    );
    let universe = ScaleSpec::large_1k().generate(1);
    let (copy, usage) = alloc::measure(|| universe.clone());
    assert!(copy == universe);
    assert!(usage.allocations <= 1000, "large_1k clone: {usage:?}");
    assert!(usage.peak <= 9 * MIB / 2, "large_1k clone: {usage:?}");
}

// ---------------------------------------------------------------------------
// Builder validation: every fault is reported exactly as a per-element
// `BTreeMap` validation reports it, whatever the input order.
// ---------------------------------------------------------------------------

/// A universe's objects as builder input: one list per kind, fed in order.
#[derive(Clone)]
struct Parts {
    tenants: Vec<Tenant>,
    vrfs: Vec<Vrf>,
    epgs: Vec<Epg>,
    endpoints: Vec<Endpoint>,
    switches: Vec<Switch>,
    contracts: Vec<Contract>,
    filters: Vec<Filter>,
    bindings: Vec<ContractBinding>,
}

impl Parts {
    fn of(u: &PolicyUniverse) -> Self {
        Parts {
            tenants: u.tenants().cloned().collect(),
            vrfs: u.vrfs().cloned().collect(),
            epgs: u.epgs().cloned().collect(),
            endpoints: u.endpoints().cloned().collect(),
            switches: u.switches().cloned().collect(),
            contracts: u.contracts().cloned().collect(),
            filters: u.filters().cloned().collect(),
            bindings: u.bindings().to_vec(),
        }
    }

    fn build(&self) -> Result<PolicyUniverse, PolicyError> {
        let mut b = PolicyUniverse::builder();
        for t in &self.tenants {
            b.tenant(t.clone());
        }
        for v in &self.vrfs {
            b.vrf(v.clone());
        }
        for e in &self.epgs {
            b.epg(e.clone());
        }
        for ep in &self.endpoints {
            b.endpoint(ep.clone());
        }
        for s in &self.switches {
            b.switch(s.clone());
        }
        for c in &self.contracts {
            b.contract(c.clone());
        }
        for f in &self.filters {
            b.filter(f.clone());
        }
        for &binding in &self.bindings {
            b.bind(binding);
        }
        b.build()
    }

    /// Every list in ascending id order; equal ids keep their relative order.
    fn ascending(mut self) -> Self {
        self.tenants.sort_by_key(|t| t.id);
        self.vrfs.sort_by_key(|v| v.id);
        self.epgs.sort_by_key(|e| e.id);
        self.endpoints.sort_by_key(|ep| ep.id);
        self.switches.sort_by_key(|s| s.id);
        self.contracts.sort_by_key(|c| c.id);
        self.filters.sort_by_key(|f| f.id);
        self.bindings.sort();
        self
    }

    fn shuffled(mut self, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        self.tenants.shuffle(&mut rng);
        self.vrfs.shuffle(&mut rng);
        self.epgs.shuffle(&mut rng);
        self.endpoints.shuffle(&mut rng);
        self.switches.shuffle(&mut rng);
        self.contracts.shuffle(&mut rng);
        self.filters.shuffle(&mut rng);
        self.bindings.shuffle(&mut rng);
        self
    }
}

/// The reference validation: each kind in turn, every element inserted into
/// an id-keyed `BTreeMap` in input order after its own checks, so the error
/// is that of the first failing element of the first failing kind.
fn reference_validate(p: &Parts) -> Result<(), PolicyError> {
    fn insert_new<K: Ord, V>(map: &mut BTreeMap<K, V>, key: K, value: V) -> bool {
        match map.entry(key) {
            std::collections::btree_map::Entry::Vacant(slot) => {
                slot.insert(value);
                true
            }
            std::collections::btree_map::Entry::Occupied(_) => false,
        }
    }
    let mut tenants = BTreeMap::new();
    for t in &p.tenants {
        if !insert_new(&mut tenants, t.id, t) {
            return Err(PolicyError::DuplicateTenant { tenant: t.id });
        }
    }
    let mut vrfs = BTreeMap::new();
    for v in &p.vrfs {
        if !insert_new(&mut vrfs, v.id, v) {
            return Err(PolicyError::DuplicateObject {
                object: ObjectId::Vrf(v.id),
            });
        }
    }
    let mut switches = BTreeMap::new();
    for s in &p.switches {
        if !insert_new(&mut switches, s.id, s) {
            return Err(PolicyError::DuplicateObject {
                object: ObjectId::Switch(s.id),
            });
        }
    }
    let mut filters = BTreeMap::new();
    for f in &p.filters {
        if f.entries.is_empty() {
            return Err(PolicyError::EmptyFilter { filter: f.id });
        }
        if !insert_new(&mut filters, f.id, f) {
            return Err(PolicyError::DuplicateObject {
                object: ObjectId::Filter(f.id),
            });
        }
    }
    let mut contracts = BTreeMap::new();
    for c in &p.contracts {
        if c.filters.is_empty() {
            return Err(PolicyError::EmptyContract { contract: c.id });
        }
        for &filter in &c.filters {
            if !filters.contains_key(&filter) {
                return Err(PolicyError::UnknownFilter {
                    contract: c.id,
                    filter,
                });
            }
        }
        if !insert_new(&mut contracts, c.id, c) {
            return Err(PolicyError::DuplicateObject {
                object: ObjectId::Contract(c.id),
            });
        }
    }
    let mut epgs = BTreeMap::new();
    for e in &p.epgs {
        if !vrfs.contains_key(&e.vrf) {
            return Err(PolicyError::UnknownVrf {
                epg: e.id,
                vrf: e.vrf,
            });
        }
        if !insert_new(&mut epgs, e.id, e) {
            return Err(PolicyError::DuplicateObject {
                object: ObjectId::Epg(e.id),
            });
        }
    }
    let mut endpoints = BTreeMap::new();
    for ep in &p.endpoints {
        if !epgs.contains_key(&ep.epg) {
            return Err(PolicyError::UnknownEpg {
                endpoint: ep.id,
                epg: ep.epg,
            });
        }
        if !switches.contains_key(&ep.switch) {
            return Err(PolicyError::UnknownSwitch {
                endpoint: ep.id,
                switch: ep.switch,
            });
        }
        if !insert_new(&mut endpoints, ep.id, ep) {
            return Err(PolicyError::DuplicateEndpoint { endpoint: ep.id });
        }
    }
    for b in &p.bindings {
        if !contracts.contains_key(&b.contract) {
            return Err(PolicyError::UnknownContract {
                contract: b.contract,
            });
        }
        let consumer = epgs
            .get(&b.consumer)
            .ok_or(PolicyError::UnknownBindingEpg {
                contract: b.contract,
                epg: b.consumer,
            })?;
        let provider = epgs
            .get(&b.provider)
            .ok_or(PolicyError::UnknownBindingEpg {
                contract: b.contract,
                epg: b.provider,
            })?;
        if consumer.vrf != provider.vrf {
            return Err(PolicyError::CrossVrfBinding {
                contract: b.contract,
                consumer: b.consumer,
                provider: b.provider,
            });
        }
    }
    Ok(())
}

/// An id no generator uses.
const UNKNOWN: u32 = 9_000_000;

/// One injectable fault: its name and how it damages the input. The `usize`
/// picks which element is damaged (taken modulo the list length).
type Fault = (&'static str, fn(&mut Parts, usize));

/// A copy of element `k % len` with a different name, appended.
fn dup<T: Clone>(items: &mut Vec<T>, k: usize, rename: fn(&mut T)) {
    let mut copy = items[k % items.len()].clone();
    rename(&mut copy);
    items.push(copy);
}

const FAULTS: [Fault; 19] = [
    ("duplicate tenant", |p, k| {
        dup(&mut p.tenants, k, |t| {
            t.name = format!("{}-dup", t.name).into()
        })
    }),
    ("duplicate vrf", |p, k| {
        dup(&mut p.vrfs, k, |v| {
            v.name = format!("{}-dup", v.name).into()
        })
    }),
    ("duplicate epg", |p, k| {
        dup(&mut p.epgs, k, |e| {
            e.name = format!("{}-dup", e.name).into()
        })
    }),
    ("duplicate endpoint", |p, k| {
        dup(&mut p.endpoints, k, |ep| {
            ep.name = format!("{}-dup", ep.name).into()
        })
    }),
    ("duplicate switch", |p, k| {
        dup(&mut p.switches, k, |s| {
            s.name = format!("{}-dup", s.name).into()
        })
    }),
    ("duplicate contract", |p, k| {
        dup(&mut p.contracts, k, |c| {
            c.name = format!("{}-dup", c.name).into()
        })
    }),
    ("duplicate filter", |p, k| {
        dup(&mut p.filters, k, |f| {
            f.name = format!("{}-dup", f.name).into()
        })
    }),
    ("duplicate binding", |p, k| {
        let b = p.bindings[k % p.bindings.len()];
        p.bindings.push(b);
    }),
    ("epg -> unknown vrf", |p, k| {
        let n = p.epgs.len();
        p.epgs[k % n].vrf = VrfId::new(UNKNOWN);
    }),
    ("endpoint -> unknown epg", |p, k| {
        let n = p.endpoints.len();
        p.endpoints[k % n].epg = EpgId::new(UNKNOWN);
    }),
    ("endpoint -> unknown switch", |p, k| {
        let n = p.endpoints.len();
        p.endpoints[k % n].switch = SwitchId::new(UNKNOWN);
    }),
    ("contract -> unknown filter", |p, k| {
        let n = p.contracts.len();
        let contract = &mut p.contracts[k % n];
        let mut filters = contract.filters.to_vec();
        filters.insert(k % (filters.len() + 1), FilterId::new(UNKNOWN));
        contract.filters = filters.into();
    }),
    ("binding -> unknown contract", |p, k| {
        let n = p.bindings.len();
        p.bindings[k % n].contract = ContractId::new(UNKNOWN);
    }),
    ("binding -> unknown consumer", |p, k| {
        let n = p.bindings.len();
        p.bindings[k % n].consumer = EpgId::new(UNKNOWN);
    }),
    ("binding -> unknown provider", |p, k| {
        let n = p.bindings.len();
        p.bindings[k % n].provider = EpgId::new(UNKNOWN);
    }),
    ("empty filter", |p, k| {
        let n = p.filters.len();
        p.filters[k % n].entries.clear();
    }),
    ("empty contract", |p, k| {
        let n = p.contracts.len();
        p.contracts[k % n].filters = FilterList::default();
    }),
    ("epg moved to another vrf", |p, k| {
        // Every binding of the moved EPG now crosses VRFs.
        let vrf = VrfId::new(UNKNOWN + 1);
        if !p.vrfs.iter().any(|v| v.id == vrf) {
            p.vrfs.push(Vrf::new(vrf, "other-vrf", p.tenants[0].id));
        }
        let epg = p.bindings[k % p.bindings.len()].provider;
        for e in p.epgs.iter_mut().filter(|e| e.id == epg) {
            e.vrf = vrf;
        }
    }),
    ("binding across vrfs", |p, k| {
        let (vrf, epg) = (VrfId::new(UNKNOWN + 2), EpgId::new(UNKNOWN + 2));
        if !p.vrfs.iter().any(|v| v.id == vrf) {
            p.vrfs.push(Vrf::new(vrf, "island-vrf", p.tenants[0].id));
            p.epgs.push(Epg::new(epg, "island", vrf));
        }
        let b = p.bindings[k % p.bindings.len()];
        p.bindings
            .push(ContractBinding::new(b.consumer, epg, b.contract));
    }),
];

/// Small universes of every shape the builder sees, as builder input.
fn fault_bases() -> Vec<(String, Parts)> {
    vec![
        (
            "testbed/1".into(),
            Parts::of(&TestbedSpec::paper().generate(1)),
        ),
        (
            "with_switches(12)/2".into(),
            Parts::of(&ScaleSpec::with_switches(12).generate(2)),
        ),
        ("hub".into(), Parts::of(&hub(8, 20, 4))),
    ]
}

/// Checks one damaged input in ascending and in shuffled order against the
/// reference, and that every accepted order builds the same universe; notes
/// the kind of every error seen in `kinds`.
fn check_case(label: &str, damaged: &Parts, seed: u64, kinds: &mut BTreeSet<String>) {
    let ascending = damaged.clone().ascending();
    let shuffled = damaged.clone().shuffled(seed);
    let mut built = Vec::new();
    for (order, input) in [("ascending", &ascending), ("shuffled", &shuffled)] {
        let expected = reference_validate(input);
        let got = input.build();
        assert_eq!(
            got.as_ref().err(),
            expected.as_ref().err(),
            "{label}, {order} order"
        );
        if let Err(e) = &expected {
            kinds.extend(format!("{e:?}").split(' ').next().map(str::to_string));
        }
        built.extend(got.ok());
    }
    if let [a, s] = &built[..] {
        assert!(a == s, "{label}: the shuffled input built another universe");
    }
}

#[test]
fn build_reports_every_fault_as_the_reference_validation_does() {
    let mut kinds = BTreeSet::new();
    for (name, base) in fault_bases() {
        check_case(&format!("{name}: no fault"), &base, 0, &mut kinds);
        for (i, (fault, inject)) in FAULTS.iter().enumerate() {
            let mut damaged = base.clone();
            inject(&mut damaged, 3 * i + 1);
            assert_eq!(
                reference_validate(&damaged).is_ok(),
                *fault == "duplicate binding",
                "{name}: {fault} alone"
            );
            check_case(&format!("{name}: {fault}"), &damaged, i as u64, &mut kinds);
            for (j, (second, inject2)) in FAULTS.iter().enumerate().skip(i) {
                let mut twice = damaged.clone();
                inject2(&mut twice, 5 * j + 2);
                let seed = (i * FAULTS.len() + j) as u64;
                let label = format!("{name}: {fault} + {second}");
                check_case(&label, &twice, seed, &mut kinds);
            }
        }
    }
    // Every construction error but `NoSuchObject` (a lookup error) is seen.
    assert_eq!(kinds.len(), 12, "{kinds:?}");
}

#[test]
fn a_shuffled_builder_builds_the_ascending_universe() {
    for (name, u) in universes() {
        let parts = Parts::of(&u);
        for seed in [1, 2] {
            let shuffled = parts.clone().shuffled(seed).build();
            assert!(
                shuffled.as_ref() == Ok(&u),
                "{name}: shuffled with seed {seed} built another universe"
            );
        }
    }
}
