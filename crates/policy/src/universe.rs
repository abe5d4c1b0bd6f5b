//! The policy universe: every object known to the controller plus the
//! dependency queries the rest of the system is built on.
//!
//! A [`PolicyUniverse`] is an immutable, validated snapshot of a tenant policy
//! together with the physical inventory (switches, endpoint attachment). It is
//! constructed through [`PolicyBuilder`], which checks referential integrity,
//! and exposes the dependency queries needed by policy compilation
//! (`scout-fabric`), risk-model construction (`scout-core`) and the Figure 3
//! object-sharing analysis (`scout-bench`).

use std::collections::{BTreeMap, BTreeSet};

use crate::error::PolicyError;
use crate::ids::{ContractId, EndpointId, EpgId, FilterId, ObjectId, SwitchId, TenantId, VrfId};
use crate::object::{Contract, ContractBinding, Endpoint, Epg, Filter, Switch, Tenant, Vrf};
use crate::pair::EpgPair;

/// Aggregate object counts of a universe, handy for experiment reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniverseStats {
    /// Number of tenants.
    pub tenants: usize,
    /// Number of VRFs.
    pub vrfs: usize,
    /// Number of EPGs.
    pub epgs: usize,
    /// Number of endpoints.
    pub endpoints: usize,
    /// Number of switches.
    pub switches: usize,
    /// Number of contracts.
    pub contracts: usize,
    /// Number of filters.
    pub filters: usize,
    /// Number of contract bindings (EPG-pair/contract relations).
    pub bindings: usize,
    /// Number of distinct EPG pairs allowed to communicate.
    pub epg_pairs: usize,
}

/// An immutable, validated snapshot of the network policy and inventory.
///
/// Besides the raw objects, the universe carries dependency indexes computed
/// once at [`PolicyBuilder::build`] time (pair → bindings, EPG → hosting
/// switches, switch → local pairs, object → dependent pairs, …). Every
/// dependency query below is therefore a lookup, not a scan — this is what
/// keeps risk-model construction and fault correlation proportional to the
/// answer size instead of the universe size on 1000-switch fabrics. The
/// indexes are pure functions of the base objects, so derived equality and
/// cloning remain consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyUniverse {
    tenants: BTreeMap<TenantId, Tenant>,
    vrfs: BTreeMap<VrfId, Vrf>,
    epgs: BTreeMap<EpgId, Epg>,
    endpoints: BTreeMap<EndpointId, Endpoint>,
    switches: BTreeMap<SwitchId, Switch>,
    contracts: BTreeMap<ContractId, Contract>,
    filters: BTreeMap<FilterId, Filter>,
    bindings: Vec<ContractBinding>,
    /// Binding indices (into `bindings`) per EPG pair; keys are exactly the
    /// distinct bound pairs.
    pair_bindings: BTreeMap<EpgPair, Vec<usize>>,
    /// Switches hosting at least one endpoint of each EPG.
    epg_hosts: BTreeMap<EpgId, BTreeSet<SwitchId>>,
    /// EPGs with at least one endpoint on each switch.
    switch_epgs: BTreeMap<SwitchId, BTreeSet<EpgId>>,
    /// Bound pairs whose rules must be deployed on each switch.
    switch_pairs: BTreeMap<SwitchId, BTreeSet<EpgPair>>,
    /// Dependency closure (VRF, EPGs, contracts, filters — no switch) per pair.
    pair_objects: BTreeMap<EpgPair, BTreeSet<ObjectId>>,
    /// Dependent pairs per object, including switch objects.
    object_pairs: BTreeMap<ObjectId, BTreeSet<EpgPair>>,
    /// Switches each object's rules can be deployed on.
    object_switches: BTreeMap<ObjectId, BTreeSet<SwitchId>>,
}

impl PolicyUniverse {
    /// Starts building a new universe.
    pub fn builder() -> PolicyBuilder {
        PolicyBuilder::new()
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Looks up a tenant.
    pub fn tenant(&self, id: TenantId) -> Option<&Tenant> {
        self.tenants.get(&id)
    }

    /// Looks up a VRF.
    pub fn vrf(&self, id: VrfId) -> Option<&Vrf> {
        self.vrfs.get(&id)
    }

    /// Looks up an EPG.
    pub fn epg(&self, id: EpgId) -> Option<&Epg> {
        self.epgs.get(&id)
    }

    /// Looks up an endpoint.
    pub fn endpoint(&self, id: EndpointId) -> Option<&Endpoint> {
        self.endpoints.get(&id)
    }

    /// Looks up a switch.
    pub fn switch(&self, id: SwitchId) -> Option<&Switch> {
        self.switches.get(&id)
    }

    /// Looks up a contract.
    pub fn contract(&self, id: ContractId) -> Option<&Contract> {
        self.contracts.get(&id)
    }

    /// Looks up a filter.
    pub fn filter(&self, id: FilterId) -> Option<&Filter> {
        self.filters.get(&id)
    }

    /// Iterates over all tenants in id order.
    pub fn tenants(&self) -> impl Iterator<Item = &Tenant> {
        self.tenants.values()
    }

    /// Iterates over all VRFs in id order.
    pub fn vrfs(&self) -> impl Iterator<Item = &Vrf> {
        self.vrfs.values()
    }

    /// Iterates over all EPGs in id order.
    pub fn epgs(&self) -> impl Iterator<Item = &Epg> {
        self.epgs.values()
    }

    /// Iterates over all endpoints in id order.
    pub fn endpoints(&self) -> impl Iterator<Item = &Endpoint> {
        self.endpoints.values()
    }

    /// Iterates over all switches in id order.
    pub fn switches(&self) -> impl Iterator<Item = &Switch> {
        self.switches.values()
    }

    /// Iterates over all contracts in id order.
    pub fn contracts(&self) -> impl Iterator<Item = &Contract> {
        self.contracts.values()
    }

    /// Iterates over all filters in id order.
    pub fn filters(&self) -> impl Iterator<Item = &Filter> {
        self.filters.values()
    }

    /// All contract bindings.
    pub fn bindings(&self) -> &[ContractBinding] {
        &self.bindings
    }

    /// All switch ids in id order.
    pub fn switch_ids(&self) -> Vec<SwitchId> {
        self.switches.keys().copied().collect()
    }

    /// Aggregate counts for reporting.
    pub fn stats(&self) -> UniverseStats {
        UniverseStats {
            tenants: self.tenants.len(),
            vrfs: self.vrfs.len(),
            epgs: self.epgs.len(),
            endpoints: self.endpoints.len(),
            switches: self.switches.len(),
            contracts: self.contracts.len(),
            filters: self.filters.len(),
            bindings: self.bindings.len(),
            epg_pairs: self.epg_pairs().len(),
        }
    }

    /// Every policy object (VRFs, EPGs, contracts, filters) plus switches as
    /// [`ObjectId`]s, in a stable order.
    pub fn all_objects(&self) -> Vec<ObjectId> {
        let mut objs = Vec::new();
        objs.extend(self.vrfs.keys().map(|&v| ObjectId::Vrf(v)));
        objs.extend(self.epgs.keys().map(|&e| ObjectId::Epg(e)));
        objs.extend(self.contracts.keys().map(|&c| ObjectId::Contract(c)));
        objs.extend(self.filters.keys().map(|&f| ObjectId::Filter(f)));
        objs.extend(self.switches.keys().map(|&s| ObjectId::Switch(s)));
        objs
    }

    /// Returns `true` if `object` exists in the universe.
    pub fn contains_object(&self, object: ObjectId) -> bool {
        match object {
            ObjectId::Vrf(id) => self.vrfs.contains_key(&id),
            ObjectId::Epg(id) => self.epgs.contains_key(&id),
            ObjectId::Contract(id) => self.contracts.contains_key(&id),
            ObjectId::Filter(id) => self.filters.contains_key(&id),
            ObjectId::Switch(id) => self.switches.contains_key(&id),
        }
    }

    /// Human-readable name of an object, if it exists.
    pub fn object_name(&self, object: ObjectId) -> Option<&str> {
        match object {
            ObjectId::Vrf(id) => self.vrfs.get(&id).map(|o| o.name.as_str()),
            ObjectId::Epg(id) => self.epgs.get(&id).map(|o| o.name.as_str()),
            ObjectId::Contract(id) => self.contracts.get(&id).map(|o| o.name.as_str()),
            ObjectId::Filter(id) => self.filters.get(&id).map(|o| o.name.as_str()),
            ObjectId::Switch(id) => self.switches.get(&id).map(|o| o.name.as_str()),
        }
    }

    // ------------------------------------------------------------------
    // Dependency queries
    // ------------------------------------------------------------------

    /// Endpoints that belong to `epg`.
    pub fn endpoints_in_epg(&self, epg: EpgId) -> Vec<&Endpoint> {
        self.endpoints.values().filter(|ep| ep.epg == epg).collect()
    }

    /// Switches that host at least one endpoint of `epg`.
    pub fn switches_hosting_epg(&self, epg: EpgId) -> BTreeSet<SwitchId> {
        self.epg_hosts.get(&epg).cloned().unwrap_or_default()
    }

    /// EPGs that have at least one endpoint attached to `switch`.
    pub fn epgs_on_switch(&self, switch: SwitchId) -> BTreeSet<EpgId> {
        self.switch_epgs.get(&switch).cloned().unwrap_or_default()
    }

    /// All distinct EPG pairs allowed to communicate by at least one binding.
    pub fn epg_pairs(&self) -> BTreeSet<EpgPair> {
        self.pair_bindings.keys().copied().collect()
    }

    /// The contract bindings that govern `pair`.
    pub fn bindings_for_pair(&self, pair: EpgPair) -> Vec<&ContractBinding> {
        self.pair_bindings
            .get(&pair)
            .map(|idxs| idxs.iter().map(|&i| &self.bindings[i]).collect())
            .unwrap_or_default()
    }

    /// The contract bindings whose rules must be deployed on `switch` — every
    /// binding with at least one member EPG hosted there — in the order they
    /// appear in [`bindings`](Self::bindings).
    ///
    /// Gathered from the `switch → pairs → binding indices` indexes (each
    /// binding belongs to exactly one pair, so the indices are distinct) and
    /// sorted ascending, which is the order a filtering scan over the sorted
    /// binding list would visit them in; the cost is the switch's own
    /// bindings, not the universe's.
    pub fn bindings_on_switch(
        &self,
        switch: SwitchId,
    ) -> impl Iterator<Item = &ContractBinding> + '_ {
        let mut idxs: Vec<usize> = self
            .pairs_on_switch(switch)
            .iter()
            .filter_map(|pair| self.pair_bindings.get(pair))
            .flatten()
            .copied()
            .collect();
        idxs.sort_unstable();
        idxs.into_iter().map(|i| &self.bindings[i])
    }

    /// Switches on which rules for `pair` must be deployed: every switch that
    /// hosts an endpoint of either member EPG.
    pub fn switches_for_pair(&self, pair: EpgPair) -> BTreeSet<SwitchId> {
        let mut switches = self.switches_hosting_epg(pair.a);
        if let Some(hosts) = self.epg_hosts.get(&pair.b) {
            switches.extend(hosts.iter().copied());
        }
        switches
    }

    /// EPG pairs whose rules must be deployed on `switch`: every bound pair
    /// with at least one member EPG hosted on the switch (empty for a switch
    /// without endpoints or an unknown one). Borrowed from the index.
    pub fn pairs_on_switch(&self, switch: SwitchId) -> &BTreeSet<EpgPair> {
        static NO_PAIRS: BTreeSet<EpgPair> = BTreeSet::new();
        self.switch_pairs.get(&switch).unwrap_or(&NO_PAIRS)
    }

    /// Every bound pair with its dependency closure (see
    /// [`objects_for_bound_pair`](Self::objects_for_bound_pair)), in pair
    /// order.
    pub fn pair_closures(&self) -> impl Iterator<Item = (EpgPair, &BTreeSet<ObjectId>)> {
        self.pair_objects.iter().map(|(&pair, objs)| (pair, objs))
    }

    /// The dependency closure of a *bound* pair, borrowed from the index:
    /// what [`objects_for_pair`](Self::objects_for_pair) returns, without the
    /// clone. `None` for pairs no binding governs.
    pub fn objects_for_bound_pair(&self, pair: EpgPair) -> Option<&BTreeSet<ObjectId>> {
        self.pair_objects.get(&pair)
    }

    /// The policy objects `pair` relies on: the VRF, both EPGs, every contract
    /// binding the pair and every filter of those contracts.
    ///
    /// This is the dependency closure used to build risk-model edges and to
    /// compute the suspect set for the γ metric.
    pub fn objects_for_pair(&self, pair: EpgPair) -> BTreeSet<ObjectId> {
        // Unbound pairs are not indexed; derive their (binding-free) closure.
        self.objects_for_bound_pair(pair)
            .cloned()
            .unwrap_or_else(|| Self::pair_closure(&self.epgs, &self.contracts, &[], pair))
    }

    /// The dependency closure of `pair` given the bindings that govern it
    /// (an empty slice for unbound pairs — the closure then holds only the
    /// member EPGs and their VRFs).
    fn pair_closure(
        epgs: &BTreeMap<EpgId, Epg>,
        contracts: &BTreeMap<ContractId, Contract>,
        bindings: &[&ContractBinding],
        pair: EpgPair,
    ) -> BTreeSet<ObjectId> {
        let mut objs = BTreeSet::new();
        if let Some(epg) = epgs.get(&pair.a) {
            objs.insert(ObjectId::Epg(pair.a));
            objs.insert(ObjectId::Vrf(epg.vrf));
        }
        if let Some(epg) = epgs.get(&pair.b) {
            objs.insert(ObjectId::Epg(pair.b));
            objs.insert(ObjectId::Vrf(epg.vrf));
        }
        for binding in bindings {
            objs.insert(ObjectId::Contract(binding.contract));
            if let Some(contract) = contracts.get(&binding.contract) {
                for &filter in &contract.filters {
                    objs.insert(ObjectId::Filter(filter));
                }
            }
        }
        objs
    }

    /// Like [`objects_for_pair`](Self::objects_for_pair) but also includes the
    /// switch the pair is deployed on — the closure used by the controller risk
    /// model.
    pub fn objects_for_pair_on_switch(
        &self,
        pair: EpgPair,
        switch: SwitchId,
    ) -> BTreeSet<ObjectId> {
        let mut objs = self.objects_for_pair(pair);
        objs.insert(ObjectId::Switch(switch));
        objs
    }

    /// For every object (including switches), the set of EPG pairs that depend
    /// on it. This is the data behind Figure 3 of the paper.
    pub fn pairs_per_object(&self) -> BTreeMap<ObjectId, BTreeSet<EpgPair>> {
        self.object_pairs.clone()
    }

    /// The EPG pairs depending on a single object — the per-object slice of
    /// [`pairs_per_object`](Self::pairs_per_object) without materializing the
    /// whole map. Returns `None` for objects no pair depends on.
    pub fn pairs_for_object(&self, object: ObjectId) -> Option<&BTreeSet<EpgPair>> {
        self.object_pairs.get(&object)
    }

    /// The switches an object's rules can be deployed on: the union of
    /// [`switches_for_pair`](Self::switches_for_pair) over the object's
    /// dependent pairs (a switch object maps to itself). Precomputed at build
    /// time so fault correlation stays proportional to the answer, not the
    /// universe.
    pub fn switches_for_object(&self, object: ObjectId) -> BTreeSet<SwitchId> {
        if let ObjectId::Switch(switch) = object {
            return BTreeSet::from([switch]);
        }
        self.object_switches
            .get(&object)
            .cloned()
            .unwrap_or_default()
    }

    /// Union of the dependency closures of a set of pairs — the "suspect set"
    /// a network admin would have to examine without fault localization.
    pub fn suspect_objects(&self, pairs: &BTreeSet<EpgPair>) -> BTreeSet<ObjectId> {
        let mut objs = BTreeSet::new();
        for &pair in pairs {
            objs.extend(self.objects_for_pair(pair));
            for switch in self.switches_for_pair(pair) {
                objs.insert(ObjectId::Switch(switch));
            }
        }
        objs
    }
}

/// Incremental builder for [`PolicyUniverse`].
///
/// All `add_*` methods accept fully-formed objects; [`PolicyBuilder::build`]
/// validates referential integrity and returns the immutable universe.
#[derive(Debug, Clone, Default)]
pub struct PolicyBuilder {
    tenants: Vec<Tenant>,
    vrfs: Vec<Vrf>,
    epgs: Vec<Epg>,
    endpoints: Vec<Endpoint>,
    switches: Vec<Switch>,
    contracts: Vec<Contract>,
    filters: Vec<Filter>,
    bindings: Vec<ContractBinding>,
}

impl PolicyBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds a tenant.
    pub fn tenant(&mut self, tenant: Tenant) -> &mut Self {
        self.tenants.push(tenant);
        self
    }

    /// Adds a VRF.
    pub fn vrf(&mut self, vrf: Vrf) -> &mut Self {
        self.vrfs.push(vrf);
        self
    }

    /// Adds an EPG.
    pub fn epg(&mut self, epg: Epg) -> &mut Self {
        self.epgs.push(epg);
        self
    }

    /// Adds an endpoint.
    pub fn endpoint(&mut self, endpoint: Endpoint) -> &mut Self {
        self.endpoints.push(endpoint);
        self
    }

    /// Adds a switch.
    pub fn switch(&mut self, switch: Switch) -> &mut Self {
        self.switches.push(switch);
        self
    }

    /// Adds a contract.
    pub fn contract(&mut self, contract: Contract) -> &mut Self {
        self.contracts.push(contract);
        self
    }

    /// Adds a filter.
    pub fn filter(&mut self, filter: Filter) -> &mut Self {
        self.filters.push(filter);
        self
    }

    /// Adds a contract binding between a consumer and a provider EPG.
    pub fn bind(&mut self, binding: ContractBinding) -> &mut Self {
        self.bindings.push(binding);
        self
    }

    /// Number of objects added so far (for progress reporting in generators).
    pub fn len(&self) -> usize {
        self.tenants.len()
            + self.vrfs.len()
            + self.epgs.len()
            + self.endpoints.len()
            + self.switches.len()
            + self.contracts.len()
            + self.filters.len()
            + self.bindings.len()
    }

    /// Returns `true` if nothing has been added yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pre-sizes the builder's object vectors for a fabric of roughly
    /// `switches` switches at the given per-switch densities — the fast path
    /// of the large-fabric generators, which otherwise regrow (and memcpy)
    /// multi-thousand-element vectors a dozen times. Purely an allocation
    /// hint: the built universe is identical with or without it.
    pub fn reserve_fabric(
        &mut self,
        switches: usize,
        epgs_per_switch: usize,
        pairs_per_switch: usize,
    ) -> &mut Self {
        self.switches.reserve(switches);
        self.epgs.reserve(switches * epgs_per_switch);
        self.endpoints.reserve(switches * epgs_per_switch);
        self.contracts.reserve(switches * pairs_per_switch);
        self.bindings.reserve(switches * pairs_per_switch);
        self
    }

    /// Validates the accumulated objects and produces the immutable universe.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] when referential integrity is violated:
    /// duplicate ids, dangling references (EPG → VRF, endpoint → EPG/switch,
    /// contract → filter, binding → EPG/contract), bindings across VRFs, or
    /// empty contracts/filters.
    pub fn build(&self) -> Result<PolicyUniverse, PolicyError> {
        let mut tenants = BTreeMap::new();
        for t in &self.tenants {
            if tenants.insert(t.id, t.clone()).is_some() {
                // Tenants are not risk objects; reuse the endpoint error shape.
                return Err(PolicyError::DuplicateObject {
                    object: ObjectId::Vrf(VrfId::new(t.id.raw())),
                });
            }
        }
        let mut vrfs = BTreeMap::new();
        for v in &self.vrfs {
            if vrfs.insert(v.id, v.clone()).is_some() {
                return Err(PolicyError::DuplicateObject {
                    object: ObjectId::Vrf(v.id),
                });
            }
        }
        let mut switches = BTreeMap::new();
        for s in &self.switches {
            if switches.insert(s.id, s.clone()).is_some() {
                return Err(PolicyError::DuplicateObject {
                    object: ObjectId::Switch(s.id),
                });
            }
        }
        let mut filters = BTreeMap::new();
        for f in &self.filters {
            if f.entries.is_empty() {
                return Err(PolicyError::EmptyFilter { filter: f.id });
            }
            if filters.insert(f.id, f.clone()).is_some() {
                return Err(PolicyError::DuplicateObject {
                    object: ObjectId::Filter(f.id),
                });
            }
        }
        let mut contracts = BTreeMap::new();
        for c in &self.contracts {
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
            if contracts.insert(c.id, c.clone()).is_some() {
                return Err(PolicyError::DuplicateObject {
                    object: ObjectId::Contract(c.id),
                });
            }
        }
        let mut epgs = BTreeMap::new();
        for e in &self.epgs {
            if !vrfs.contains_key(&e.vrf) {
                return Err(PolicyError::UnknownVrf {
                    epg: e.id,
                    vrf: e.vrf,
                });
            }
            if epgs.insert(e.id, e.clone()).is_some() {
                return Err(PolicyError::DuplicateObject {
                    object: ObjectId::Epg(e.id),
                });
            }
        }
        let mut endpoints = BTreeMap::new();
        for ep in &self.endpoints {
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
            if endpoints.insert(ep.id, ep.clone()).is_some() {
                return Err(PolicyError::DuplicateEndpoint { endpoint: ep.id });
            }
        }
        let mut seen: BTreeSet<ContractBinding> = BTreeSet::new();
        let mut bindings: Vec<ContractBinding> = Vec::new();
        for b in &self.bindings {
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
            if seen.insert(*b) {
                bindings.push(*b);
            }
        }
        bindings.sort();

        // Dependency indexes: one pass over endpoints and bindings, then a
        // pair-major pass for the object-centric views. All queries on the
        // finished universe are lookups into these.
        let mut epg_hosts: BTreeMap<EpgId, BTreeSet<SwitchId>> = BTreeMap::new();
        let mut switch_epgs: BTreeMap<SwitchId, BTreeSet<EpgId>> = BTreeMap::new();
        for ep in endpoints.values() {
            epg_hosts.entry(ep.epg).or_default().insert(ep.switch);
            switch_epgs.entry(ep.switch).or_default().insert(ep.epg);
        }
        let mut pair_bindings: BTreeMap<EpgPair, Vec<usize>> = BTreeMap::new();
        for (i, b) in bindings.iter().enumerate() {
            pair_bindings
                .entry(EpgPair::new(b.consumer, b.provider))
                .or_default()
                .push(i);
        }
        let mut switch_pairs: BTreeMap<SwitchId, BTreeSet<EpgPair>> = BTreeMap::new();
        let mut pair_objects: BTreeMap<EpgPair, BTreeSet<ObjectId>> = BTreeMap::new();
        let mut object_pairs: BTreeMap<ObjectId, BTreeSet<EpgPair>> = BTreeMap::new();
        let mut object_switches: BTreeMap<ObjectId, BTreeSet<SwitchId>> = BTreeMap::new();
        for (&pair, idxs) in &pair_bindings {
            let pair_binding_refs: Vec<&ContractBinding> =
                idxs.iter().map(|&i| &bindings[i]).collect();
            let objs = PolicyUniverse::pair_closure(&epgs, &contracts, &pair_binding_refs, pair);
            let mut hosts: BTreeSet<SwitchId> = epg_hosts.get(&pair.a).cloned().unwrap_or_default();
            if let Some(b_hosts) = epg_hosts.get(&pair.b) {
                hosts.extend(b_hosts.iter().copied());
            }
            for &switch in &hosts {
                switch_pairs.entry(switch).or_default().insert(pair);
            }
            for &obj in &objs {
                object_pairs.entry(obj).or_default().insert(pair);
                object_switches
                    .entry(obj)
                    .or_default()
                    .extend(hosts.iter().copied());
            }
            pair_objects.insert(pair, objs);
        }
        for (&switch, pairs) in &switch_pairs {
            if !pairs.is_empty() {
                object_pairs.insert(ObjectId::Switch(switch), pairs.clone());
            }
        }

        Ok(PolicyUniverse {
            tenants,
            vrfs,
            epgs,
            endpoints,
            switches,
            contracts,
            filters,
            bindings,
            pair_bindings,
            epg_hosts,
            switch_epgs,
            switch_pairs,
            pair_objects,
            object_pairs,
            object_switches,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sample;

    fn three_tier() -> PolicyUniverse {
        sample::three_tier()
    }

    #[test]
    fn three_tier_builds_and_counts_match() {
        let u = three_tier();
        let stats = u.stats();
        assert_eq!(stats.vrfs, 1);
        assert_eq!(stats.epgs, 3);
        assert_eq!(stats.switches, 3);
        assert_eq!(stats.contracts, 2);
        assert_eq!(stats.filters, 2);
        assert_eq!(stats.epg_pairs, 2);
        assert_eq!(stats.endpoints, 3);
    }

    #[test]
    fn pairs_on_switch_matches_figure_1() {
        let u = three_tier();
        // S1 hosts Web only -> only the Web-App pair.
        let s1 = u.pairs_on_switch(sample::S1);
        assert_eq!(s1.len(), 1);
        assert!(s1.contains(&EpgPair::new(sample::WEB, sample::APP)));
        // S2 hosts App -> both Web-App and App-DB pairs (Figure 2).
        let s2 = u.pairs_on_switch(sample::S2);
        assert_eq!(s2.len(), 2);
        // S3 hosts DB -> only App-DB.
        let s3 = u.pairs_on_switch(sample::S3);
        assert_eq!(s3.len(), 1);
        assert!(s3.contains(&EpgPair::new(sample::APP, sample::DB)));
    }

    #[test]
    fn bindings_on_switch_is_the_filtered_binding_list() {
        let u = three_tier();
        for switch in [sample::S1, sample::S2, sample::S3, SwitchId::new(99)] {
            let local = u.epgs_on_switch(switch);
            let scanned: Vec<&ContractBinding> = u
                .bindings()
                .iter()
                .filter(|b| local.contains(&b.consumer) || local.contains(&b.provider))
                .collect();
            let indexed: Vec<&ContractBinding> = u.bindings_on_switch(switch).collect();
            assert_eq!(indexed, scanned, "{switch}");
        }
        assert_eq!(u.bindings_on_switch(sample::S2).count(), 2);
        assert!(u.pairs_on_switch(SwitchId::new(99)).is_empty());
    }

    #[test]
    fn borrowed_closures_cover_exactly_the_bound_pairs() {
        let u = three_tier();
        let app_db = EpgPair::new(sample::APP, sample::DB);
        assert_eq!(
            u.objects_for_bound_pair(app_db),
            Some(&u.objects_for_pair(app_db))
        );
        // Web-DB is not bound: no indexed closure, but a derived one.
        let web_db = EpgPair::new(sample::WEB, sample::DB);
        assert_eq!(u.objects_for_bound_pair(web_db), None);
        assert!(u
            .objects_for_pair(web_db)
            .contains(&ObjectId::Epg(sample::WEB)));
        let indexed: BTreeSet<EpgPair> = u.pair_closures().map(|(pair, _)| pair).collect();
        assert_eq!(indexed, u.epg_pairs());
    }

    #[test]
    fn objects_for_pair_matches_paper_closure() {
        let u = three_tier();
        // Shared risk objects for App-DB: VRF:101, EPG:App, EPG:DB,
        // Contract:App-DB, Filter:80, Filter:700 (§III of the paper).
        let objs = u.objects_for_pair(EpgPair::new(sample::APP, sample::DB));
        assert_eq!(objs.len(), 6);
        assert!(objs.contains(&ObjectId::Vrf(sample::VRF)));
        assert!(objs.contains(&ObjectId::Epg(sample::APP)));
        assert!(objs.contains(&ObjectId::Epg(sample::DB)));
        assert!(objs.contains(&ObjectId::Contract(sample::C_APP_DB)));
        assert!(objs.contains(&ObjectId::Filter(sample::F_HTTP)));
        assert!(objs.contains(&ObjectId::Filter(sample::F_700)));
        // Web-App relies on the http filter only.
        let objs = u.objects_for_pair(EpgPair::new(sample::WEB, sample::APP));
        assert_eq!(objs.len(), 5);
        assert!(!objs.contains(&ObjectId::Filter(sample::F_700)));
    }

    #[test]
    fn objects_for_pair_on_switch_adds_the_switch() {
        let u = three_tier();
        let pair = EpgPair::new(sample::WEB, sample::APP);
        let objs = u.objects_for_pair_on_switch(pair, sample::S2);
        assert!(objs.contains(&ObjectId::Switch(sample::S2)));
        assert_eq!(objs.len(), u.objects_for_pair(pair).len() + 1);
    }

    #[test]
    fn pairs_per_object_covers_all_pairs() {
        let u = three_tier();
        let map = u.pairs_per_object();
        // The VRF is shared by both pairs.
        assert_eq!(map[&ObjectId::Vrf(sample::VRF)].len(), 2);
        // EPG:App participates in both pairs, Web and DB in one each.
        assert_eq!(map[&ObjectId::Epg(sample::APP)].len(), 2);
        assert_eq!(map[&ObjectId::Epg(sample::WEB)].len(), 1);
        assert_eq!(map[&ObjectId::Epg(sample::DB)].len(), 1);
        // Switch S2 hosts both pairs.
        assert_eq!(map[&ObjectId::Switch(sample::S2)].len(), 2);
        assert_eq!(map[&ObjectId::Switch(sample::S1)].len(), 1);
    }

    #[test]
    fn switches_for_pair_is_union_of_epg_hosts() {
        let u = three_tier();
        let switches = u.switches_for_pair(EpgPair::new(sample::WEB, sample::APP));
        assert_eq!(switches, BTreeSet::from([sample::S1, sample::S2]));
    }

    #[test]
    fn suspect_objects_unions_closures_and_switches() {
        let u = three_tier();
        let pairs = BTreeSet::from([EpgPair::new(sample::WEB, sample::APP)]);
        let suspects = u.suspect_objects(&pairs);
        assert!(suspects.contains(&ObjectId::Switch(sample::S1)));
        assert!(suspects.contains(&ObjectId::Switch(sample::S2)));
        assert!(suspects.contains(&ObjectId::Filter(sample::F_HTTP)));
        assert!(!suspects.contains(&ObjectId::Filter(sample::F_700)));
    }

    #[test]
    fn build_rejects_dangling_vrf_reference() {
        let mut b = PolicyBuilder::new();
        b.epg(Epg::new(EpgId::new(1), "orphan", VrfId::new(9)));
        let err = b.build().unwrap_err();
        assert!(matches!(err, PolicyError::UnknownVrf { .. }));
    }

    #[test]
    fn build_rejects_dangling_endpoint_references() {
        let mut b = PolicyBuilder::new();
        b.tenant(Tenant::new(TenantId::new(0), "t"))
            .vrf(Vrf::new(VrfId::new(1), "v", TenantId::new(0)))
            .epg(Epg::new(EpgId::new(1), "e", VrfId::new(1)))
            .endpoint(Endpoint::new(
                EndpointId::new(1),
                "ep",
                EpgId::new(1),
                SwitchId::new(44),
            ));
        let err = b.build().unwrap_err();
        assert!(matches!(err, PolicyError::UnknownSwitch { .. }));
    }

    #[test]
    fn build_rejects_duplicate_objects() {
        let mut b = PolicyBuilder::new();
        b.filter(Filter::tcp_port(FilterId::new(1), "http", 80))
            .filter(Filter::tcp_port(FilterId::new(1), "http-dup", 80));
        let err = b.build().unwrap_err();
        assert!(matches!(err, PolicyError::DuplicateObject { .. }));
    }

    #[test]
    fn build_rejects_empty_contract_and_filter() {
        let mut b = PolicyBuilder::new();
        b.filter(Filter::new(FilterId::new(1), "empty", vec![]));
        assert!(matches!(
            b.build().unwrap_err(),
            PolicyError::EmptyFilter { .. }
        ));

        let mut b = PolicyBuilder::new();
        b.contract(Contract::new(ContractId::new(1), "empty", vec![]));
        assert!(matches!(
            b.build().unwrap_err(),
            PolicyError::EmptyContract { .. }
        ));
    }

    #[test]
    fn build_rejects_cross_vrf_binding() {
        let mut b = PolicyBuilder::new();
        b.tenant(Tenant::new(TenantId::new(0), "t"))
            .vrf(Vrf::new(VrfId::new(1), "v1", TenantId::new(0)))
            .vrf(Vrf::new(VrfId::new(2), "v2", TenantId::new(0)))
            .epg(Epg::new(EpgId::new(1), "a", VrfId::new(1)))
            .epg(Epg::new(EpgId::new(2), "b", VrfId::new(2)))
            .filter(Filter::tcp_port(FilterId::new(1), "http", 80))
            .contract(Contract::new(
                ContractId::new(1),
                "c",
                vec![FilterId::new(1)],
            ))
            .bind(ContractBinding::new(
                EpgId::new(1),
                EpgId::new(2),
                ContractId::new(1),
            ));
        assert!(matches!(
            b.build().unwrap_err(),
            PolicyError::CrossVrfBinding { .. }
        ));
    }

    #[test]
    fn build_deduplicates_identical_bindings() {
        let u = {
            let mut b = PolicyBuilder::new();
            b.tenant(Tenant::new(TenantId::new(0), "t"))
                .vrf(Vrf::new(VrfId::new(1), "v1", TenantId::new(0)))
                .epg(Epg::new(EpgId::new(1), "a", VrfId::new(1)))
                .epg(Epg::new(EpgId::new(2), "b", VrfId::new(1)))
                .filter(Filter::tcp_port(FilterId::new(1), "http", 80))
                .contract(Contract::new(
                    ContractId::new(1),
                    "c",
                    vec![FilterId::new(1)],
                ))
                .bind(ContractBinding::new(
                    EpgId::new(1),
                    EpgId::new(2),
                    ContractId::new(1),
                ))
                .bind(ContractBinding::new(
                    EpgId::new(1),
                    EpgId::new(2),
                    ContractId::new(1),
                ));
            b.build().unwrap()
        };
        assert_eq!(u.bindings().len(), 1);
    }

    #[test]
    fn object_name_and_contains_object() {
        let u = three_tier();
        assert!(u.contains_object(ObjectId::Epg(sample::WEB)));
        assert!(!u.contains_object(ObjectId::Epg(EpgId::new(999))));
        assert_eq!(u.object_name(ObjectId::Epg(sample::WEB)), Some("Web"));
        assert_eq!(u.object_name(ObjectId::Filter(FilterId::new(999))), None);
    }

    #[test]
    fn all_objects_contains_every_class() {
        let u = three_tier();
        let objs = u.all_objects();
        assert_eq!(objs.len(), 1 + 3 + 2 + 2 + 3);
        assert!(objs.iter().any(|o| o.is_switch()));
        assert!(objs.iter().any(|o| o.is_filter()));
    }

    #[test]
    fn builder_len_and_is_empty() {
        let mut b = PolicyBuilder::new();
        assert!(b.is_empty());
        b.switch(Switch::new(SwitchId::new(1), "s1"));
        assert_eq!(b.len(), 1);
        assert!(!b.is_empty());
    }
}
