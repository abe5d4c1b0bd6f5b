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
use crate::index::{DenseIndex, FlatIndex, ObjectTable};
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
/// The objects of each kind are one sorted table: the objects in id order
/// beside a vector of their ids, so a lookup is a binary search over ids.
/// Besides the objects, the universe carries dependency indexes computed
/// once at [`PolicyBuilder::build`] time (pair → bindings, EPG → hosting
/// switches, object → dependent pairs, …). Each index is one flat, sorted
/// multimap — keys, run offsets and values in three vectors — so every
/// dependency query below is a binary search, not a scan, and the borrowed
/// accessors return sorted slices straight out of it. This keeps risk-model
/// construction and fault correlation proportional to the answer size
/// instead of the universe size on 1000-switch fabrics, and building,
/// cloning or dropping a universe proportional to its objects and index
/// entries: a few vectors per table and per index, no tree node per entry.
/// The indexes are pure functions of the objects, so derived equality and
/// cloning remain consistent.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PolicyUniverse {
    tenants: ObjectTable<TenantId, Tenant>,
    vrfs: ObjectTable<VrfId, Vrf>,
    epgs: ObjectTable<EpgId, Epg>,
    endpoints: ObjectTable<EndpointId, Endpoint>,
    switches: ObjectTable<SwitchId, Switch>,
    contracts: ObjectTable<ContractId, Contract>,
    filters: ObjectTable<FilterId, Filter>,
    bindings: Vec<ContractBinding>,
    /// Binding indices (into `bindings`) per EPG pair; keys are exactly the
    /// distinct bound pairs.
    pair_bindings: FlatIndex<EpgPair, usize>,
    /// Switches hosting at least one endpoint of each EPG.
    epg_hosts: FlatIndex<EpgId, SwitchId>,
    /// EPGs with at least one endpoint on each switch.
    switch_epgs: FlatIndex<SwitchId, EpgId>,
    /// Dependency closure (VRF, EPGs, contracts, filters — no switch) per
    /// bound pair.
    pair_objects: FlatIndex<EpgPair, ObjectId>,
    /// Dependent pairs per object, including switch objects: a switch's
    /// pairs are the bound pairs deployed on it.
    object_pairs: FlatIndex<ObjectId, EpgPair>,
    /// Switches each policy object's rules can be deployed on (switch objects
    /// are not stored: each maps to itself).
    object_switches: FlatIndex<ObjectId, SwitchId>,
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
    pub fn tenants(&self) -> impl ExactSizeIterator<Item = &Tenant> {
        self.tenants.items().iter()
    }

    /// Iterates over all VRFs in id order.
    pub fn vrfs(&self) -> impl ExactSizeIterator<Item = &Vrf> {
        self.vrfs.items().iter()
    }

    /// Iterates over all EPGs in id order.
    pub fn epgs(&self) -> impl ExactSizeIterator<Item = &Epg> {
        self.epgs.items().iter()
    }

    /// Iterates over all endpoints in id order.
    pub fn endpoints(&self) -> impl ExactSizeIterator<Item = &Endpoint> {
        self.endpoints.items().iter()
    }

    /// Iterates over all switches in id order.
    pub fn switches(&self) -> impl ExactSizeIterator<Item = &Switch> {
        self.switches.items().iter()
    }

    /// Iterates over all contracts in id order.
    pub fn contracts(&self) -> impl ExactSizeIterator<Item = &Contract> {
        self.contracts.items().iter()
    }

    /// Iterates over all filters in id order.
    pub fn filters(&self) -> impl ExactSizeIterator<Item = &Filter> {
        self.filters.items().iter()
    }

    /// All contract bindings.
    pub fn bindings(&self) -> &[ContractBinding] {
        &self.bindings
    }

    /// All switch ids in id order.
    pub fn switch_ids(&self) -> Vec<SwitchId> {
        self.switches.ids().to_vec()
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
            epg_pairs: self.pair_bindings.keys().len(),
        }
    }

    /// Every policy object (VRFs, EPGs, contracts, filters) plus switches as
    /// [`ObjectId`]s, in a stable order.
    pub fn all_objects(&self) -> Vec<ObjectId> {
        let mut objs = Vec::with_capacity(
            self.vrfs.len()
                + self.epgs.len()
                + self.contracts.len()
                + self.filters.len()
                + self.switches.len(),
        );
        objs.extend(self.vrfs.ids().iter().map(|&v| ObjectId::Vrf(v)));
        objs.extend(self.epgs.ids().iter().map(|&e| ObjectId::Epg(e)));
        objs.extend(self.contracts.ids().iter().map(|&c| ObjectId::Contract(c)));
        objs.extend(self.filters.ids().iter().map(|&f| ObjectId::Filter(f)));
        objs.extend(self.switches.ids().iter().map(|&s| ObjectId::Switch(s)));
        objs
    }

    /// Returns `true` if `object` exists in the universe.
    pub fn contains_object(&self, object: ObjectId) -> bool {
        match object {
            ObjectId::Vrf(id) => self.vrfs.contains(&id),
            ObjectId::Epg(id) => self.epgs.contains(&id),
            ObjectId::Contract(id) => self.contracts.contains(&id),
            ObjectId::Filter(id) => self.filters.contains(&id),
            ObjectId::Switch(id) => self.switches.contains(&id),
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

    /// Switches that host at least one endpoint of `epg`.
    pub fn switches_hosting_epg(&self, epg: EpgId) -> BTreeSet<SwitchId> {
        self.epg_hosts.slice(&epg).iter().copied().collect()
    }

    /// EPGs that have at least one endpoint attached to `switch`.
    pub fn epgs_on_switch(&self, switch: SwitchId) -> BTreeSet<EpgId> {
        self.switch_epgs.slice(&switch).iter().copied().collect()
    }

    /// All distinct EPG pairs allowed to communicate by at least one binding.
    pub fn epg_pairs(&self) -> BTreeSet<EpgPair> {
        self.pair_bindings.keys().iter().copied().collect()
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
        switches.extend(self.epg_hosts.slice(&pair.b));
        switches
    }

    /// EPG pairs whose rules must be deployed on `switch`: every bound pair
    /// with at least one member EPG hosted on the switch (empty for a switch
    /// without endpoints or an unknown one), ascending. Borrowed from the
    /// index.
    pub fn pairs_on_switch(&self, switch: SwitchId) -> &[EpgPair] {
        self.object_pairs.slice(&ObjectId::Switch(switch))
    }

    /// Every bound pair with its dependency closure (see
    /// [`objects_for_bound_pair`](Self::objects_for_bound_pair)), in pair
    /// order.
    pub fn pair_closures(&self) -> impl Iterator<Item = (EpgPair, &[ObjectId])> {
        self.pair_objects.iter()
    }

    /// The dependency closure of a *bound* pair, ascending and borrowed from
    /// the index: what [`objects_for_pair`](Self::objects_for_pair) returns,
    /// without the copy. `None` for pairs no binding governs.
    pub fn objects_for_bound_pair(&self, pair: EpgPair) -> Option<&[ObjectId]> {
        self.pair_objects.get(&pair)
    }

    /// The policy objects `pair` relies on: the VRF, both EPGs, every contract
    /// binding the pair and every filter of those contracts.
    ///
    /// This is the dependency closure used to build risk-model edges and to
    /// compute the suspect set for the γ metric.
    pub fn objects_for_pair(&self, pair: EpgPair) -> BTreeSet<ObjectId> {
        if let Some(objs) = self.objects_for_bound_pair(pair) {
            return objs.iter().copied().collect();
        }
        // Unbound pairs are not indexed: their closure is the member EPGs
        // the universe knows, and their VRFs.
        let known = pair.members().into_iter().filter_map(|m| self.epg(m));
        known
            .flat_map(|epg| [ObjectId::Epg(epg.id), ObjectId::Vrf(epg.vrf)])
            .collect()
    }

    /// For every object (including switches), the set of EPG pairs that depend
    /// on it. This is the data behind Figure 3 of the paper.
    pub fn pairs_per_object(&self) -> BTreeMap<ObjectId, BTreeSet<EpgPair>> {
        self.object_pairs
            .iter()
            .map(|(object, pairs)| (object, pairs.iter().copied().collect()))
            .collect()
    }

    /// The EPG pairs depending on a single object, ascending — the
    /// per-object slice of [`pairs_per_object`](Self::pairs_per_object)
    /// without materializing the whole map. Returns `None` for objects no
    /// pair depends on.
    pub fn pairs_for_object(&self, object: ObjectId) -> Option<&[EpgPair]> {
        self.object_pairs.get(&object)
    }

    /// The switches an object's rules can be deployed on: the union of
    /// [`switches_for_pair`](Self::switches_for_pair) over the object's
    /// dependent pairs (a switch object maps to itself). Precomputed at build
    /// time so fault correlation stays proportional to the answer, not the
    /// universe.
    pub fn switches_for_object(&self, object: ObjectId) -> BTreeSet<SwitchId> {
        self.object_switches(&object).iter().copied().collect()
    }

    /// [`switches_for_object`](Self::switches_for_object) as an ascending
    /// slice borrowed from the index (a switch object borrows itself), for
    /// callers that only probe it.
    pub fn object_switches<'a>(&'a self, object: &'a ObjectId) -> &'a [SwitchId] {
        match object {
            ObjectId::Switch(switch) => std::slice::from_ref(switch),
            other => self.object_switches.slice(other),
        }
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

    /// Validates the accumulated objects and produces the immutable universe,
    /// moving the objects into it.
    ///
    /// The build is a few linear passes. Each kind is validated in turn —
    /// tenants, VRFs, switches, filters, contracts, EPGs, endpoints, then
    /// bindings — into its sorted table ([`PolicyUniverse`] describes the
    /// layout), and every reference is resolved once to a position in the
    /// table it points into. Ids that arrive strictly ascending, as every
    /// encoder and generator emits them, are checked in one pass and moved in
    /// without a sort; other input is stable-sorted first. Then every VRF,
    /// EPG, contract, filter and switch is numbered in [`ObjectId`] order,
    /// each pair closure is computed as sorted object positions, and the
    /// switch- and object-keyed indexes are grouped by stable counting sorts
    /// over those positions, O(entries + objects). Object → switches merges
    /// each object's pairs' member EPGs' hosts through reusable mark vectors,
    /// so its scratch memory is O(EPGs + switches) however many pairs share
    /// the same switches.
    ///
    /// # Errors
    ///
    /// Returns a [`PolicyError`] when referential integrity is violated:
    /// duplicate ids, dangling references (EPG → VRF, endpoint → EPG/switch,
    /// contract → filter, binding → EPG/contract), bindings across VRFs, or
    /// empty contracts/filters. The error is that of the first failing
    /// element, in input order, of the first kind above that has one.
    pub fn build(self) -> Result<PolicyUniverse, PolicyError> {
        let duplicate = |object| PolicyError::DuplicateObject { object };
        let (tenants, _) = ObjectTable::validate(
            self.tenants,
            |t| t.id,
            |_| Ok(()),
            |tenant| PolicyError::DuplicateTenant { tenant },
        )?;
        let (vrfs, _) = ObjectTable::validate(
            self.vrfs,
            |v| v.id,
            |_| Ok(()),
            |id| duplicate(ObjectId::Vrf(id)),
        )?;
        let (switches, _) = ObjectTable::validate(
            self.switches,
            |s| s.id,
            |_| Ok(()),
            |id| duplicate(ObjectId::Switch(id)),
        )?;
        let (filters, _) = ObjectTable::validate(
            self.filters,
            |f| f.id,
            |f| {
                if f.entries.is_empty() {
                    return Err(PolicyError::EmptyFilter { filter: f.id });
                }
                Ok(())
            },
            |id| duplicate(ObjectId::Filter(id)),
        )?;
        // A contract resolves to the end of its run of filter positions.
        let mut filter_slots = Vec::new();
        let (contracts, filter_ends) = ObjectTable::validate(
            self.contracts,
            |c| c.id,
            |c| {
                if c.filters.is_empty() {
                    return Err(PolicyError::EmptyContract { contract: c.id });
                }
                for &filter in &c.filters {
                    let position = filters
                        .position(&filter)
                        .ok_or(PolicyError::UnknownFilter {
                            contract: c.id,
                            filter,
                        })?;
                    filter_slots.push(slot(position));
                }
                Ok(filter_slots.len())
            },
            |id| duplicate(ObjectId::Contract(id)),
        )?;
        let contract_filters =
            DenseIndex::from_runs([0].into_iter().chain(filter_ends).collect(), filter_slots);
        let (epgs, epg_vrfs) = ObjectTable::validate(
            self.epgs,
            |e| e.id,
            |e| {
                let vrf = vrfs.position(&e.vrf);
                vrf.map(slot).ok_or(PolicyError::UnknownVrf {
                    epg: e.id,
                    vrf: e.vrf,
                })
            },
            |id| duplicate(ObjectId::Epg(id)),
        )?;
        let (endpoints, endpoint_slots) = ObjectTable::validate(
            self.endpoints,
            |ep| ep.id,
            |ep| {
                let epg = epgs.position(&ep.epg).ok_or(PolicyError::UnknownEpg {
                    endpoint: ep.id,
                    epg: ep.epg,
                })?;
                let switch = switches
                    .position(&ep.switch)
                    .ok_or(PolicyError::UnknownSwitch {
                        endpoint: ep.id,
                        switch: ep.switch,
                    })?;
                Ok((slot(epg), slot(switch)))
            },
            |endpoint| PolicyError::DuplicateEndpoint { endpoint },
        )?;
        // Bindings are checked in input order and resolved to their
        // consumer, provider and contract positions, which follow them
        // through the sort.
        let mut binding_slots = self
            .bindings
            .iter()
            .map(|b| {
                let contract =
                    contracts
                        .position(&b.contract)
                        .ok_or(PolicyError::UnknownContract {
                            contract: b.contract,
                        })?;
                let epg = |epg| {
                    epgs.position(&epg).ok_or(PolicyError::UnknownBindingEpg {
                        contract: b.contract,
                        epg,
                    })
                };
                let (consumer, provider) = (epg(b.consumer)?, epg(b.provider)?);
                if epg_vrfs[consumer] != epg_vrfs[provider] {
                    return Err(PolicyError::CrossVrfBinding {
                        contract: b.contract,
                        consumer: b.consumer,
                        provider: b.provider,
                    });
                }
                Ok([slot(consumer), slot(provider), slot(contract)])
            })
            .collect::<Result<Vec<_>, _>>()?;
        let mut bindings = self.bindings;
        if !bindings.windows(2).all(|w| w[0] < w[1]) {
            let mut tagged: Vec<_> = bindings.into_iter().zip(binding_slots).collect();
            tagged.sort_unstable_by_key(|&(binding, _)| binding);
            tagged.dedup_by_key(|&mut (binding, _)| binding);
            (bindings, binding_slots) = tagged.into_iter().unzip();
        }

        let mut universe = PolicyUniverse {
            tenants,
            vrfs,
            epgs,
            endpoints,
            switches,
            contracts,
            filters,
            bindings,
            pair_bindings: FlatIndex::default(),
            epg_hosts: FlatIndex::default(),
            switch_epgs: FlatIndex::default(),
            pair_objects: FlatIndex::default(),
            object_pairs: FlatIndex::default(),
            object_switches: FlatIndex::default(),
        };
        universe.index(Slots {
            epg_vrfs,
            endpoints: endpoint_slots,
            contract_filters,
            bindings: binding_slots,
        });
        Ok(universe)
    }
}

/// Bulk adds: `builder.extend(objects)` adds every object in order, as the
/// per-object methods would. Into a builder that holds none of the kind yet,
/// a `Vec` moves in whole: collecting a vector's own iterator reuses its
/// buffer, so a decoded list is neither regrown nor copied.
macro_rules! extend_builder {
    ($($ty:ty => $list:ident),* $(,)?) => {$(
        impl Extend<$ty> for PolicyBuilder {
            fn extend<I: IntoIterator<Item = $ty>>(&mut self, objects: I) {
                if self.$list.is_empty() {
                    self.$list = objects.into_iter().collect();
                } else {
                    self.$list.extend(objects);
                }
            }
        }
    )*};
}

extend_builder!(
    Tenant => tenants,
    Vrf => vrfs,
    Epg => epgs,
    Endpoint => endpoints,
    Switch => switches,
    Contract => contracts,
    Filter => filters,
    ContractBinding => bindings,
);

/// The table positions a build resolved the universe's references to, each
/// list in the order of the table or list it describes.
struct Slots {
    /// The VRF of each EPG.
    epg_vrfs: Vec<u32>,
    /// The EPG and the switch of each endpoint.
    endpoints: Vec<(u32, u32)>,
    /// The filters of each contract.
    contract_filters: DenseIndex,
    /// The consumer EPG, provider EPG and contract of each binding.
    bindings: Vec<[u32; 3]>,
}

/// A table position as a `u32`, the width the build's scratch indexes use.
fn slot(position: usize) -> u32 {
    u32::try_from(position).expect("a universe holds fewer than 2^32 objects")
}

impl PolicyUniverse {
    /// Builds every dependency index from the validated tables and the
    /// positions their references resolved to.
    ///
    /// Objects are numbered in [`ObjectId`] order — VRFs, EPGs, contracts,
    /// filters, switches — so a sorted run of positions maps to a sorted run
    /// of objects. Each scratch index is dropped as soon as it is grouped.
    fn index(&mut self, slots: Slots) {
        let Slots {
            epg_vrfs,
            endpoints,
            contract_filters,
            bindings,
        } = slots;
        let objects = self.all_objects();
        // Positions, and so the bases below, fit in a u32 once the total does.
        slot(objects.len());
        let epg_base = slot(self.vrfs.len());
        let contract_base = epg_base + slot(self.epgs.len());
        let filter_base = contract_base + slot(self.contracts.len());
        let switch_base = filter_base + slot(self.filters.len());
        let (epg_ids, switch_ids) = (self.epgs.ids(), self.switches.ids());

        // Endpoint views: grouped by EPG, regrouped by switch (each run now
        // ascends by EPG), regrouped by EPG (each run now ascends by switch).
        let by_epg = DenseIndex::group(epg_ids.len(), endpoints.iter().copied());
        drop(endpoints);
        let mut switch_epgs =
            DenseIndex::group(switch_ids.len(), by_epg.entries().map(|(e, s)| (s, e)));
        drop(by_epg);
        switch_epgs.dedup();
        let epg_hosts =
            DenseIndex::group(epg_ids.len(), switch_epgs.entries().map(|(s, e)| (e, s)));
        self.switch_epgs = switch_epgs.to_flat(|s| switch_ids[s], |e| epg_ids[e as usize]);
        drop(switch_epgs);

        // Pair pass: each bound pair's closure as sorted object positions,
        // and the entries of the object-keyed index — the closure's objects
        // and the switches hosting either member — in pair order.
        self.pair_bindings = FlatIndex::from_entries(
            self.bindings
                .iter()
                .enumerate()
                .map(|(i, b)| (EpgPair::new(b.consumer, b.provider), i))
                .collect(),
        );
        let pairs = self.pair_bindings.keys();
        // Sized for a typical closure — a VRF, two EPGs, a contract and a
        // filter — so a large universe's pass does not regrow it.
        self.pair_objects = FlatIndex::with_capacity(pairs.len(), 5 * pairs.len());
        let mut entries = Vec::new();
        let mut members = Vec::with_capacity(pairs.len());
        let mut closure = Vec::new();
        for (p, (pair, idxs)) in self.pair_bindings.iter().enumerate() {
            let p = slot(p);
            let [consumer, provider, _] = bindings[idxs[0]];
            let (a, b) = (consumer.min(provider), consumer.max(provider));
            // Bindings never cross VRFs: both members share `a`'s.
            closure.clear();
            closure.extend([epg_vrfs[a as usize], epg_base + a, epg_base + b]);
            for &i in idxs {
                let contract = bindings[i][2];
                closure.push(contract_base + contract);
                let filters = contract_filters.run(contract as usize);
                closure.extend(filters.iter().map(|&f| filter_base + f));
            }
            closure.sort_unstable();
            closure.dedup();
            self.pair_objects
                .push(pair, closure.iter().map(|&o| objects[o as usize]));
            entries.extend(closure.iter().map(|&o| (o, p)));
            let hosts = [epg_hosts.run(a as usize), epg_hosts.run(b as usize)];
            merge_union(hosts, |s| entries.push((switch_base + s, p)));
            members.push([a, b]);
        }
        self.pair_objects.shrink();
        let object_pairs = DenseIndex::group(objects.len(), entries.iter().copied());
        drop(entries);
        self.object_switches = object_switch_index(
            &object_pairs,
            &objects[..switch_base as usize],
            &members,
            &epg_hosts,
            switch_ids,
        );
        self.epg_hosts = epg_hosts.to_flat(|e| epg_ids[e], |s| switch_ids[s as usize]);
        drop(epg_hosts);
        self.object_pairs = object_pairs.to_flat(|o| objects[o], |p| pairs[p as usize]);
    }
}

/// Calls `emit` with every value of the two ascending runs once, in order.
fn merge_union([a, b]: [&[u32]; 2], mut emit: impl FnMut(u32)) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        emit(x.min(y));
        i += usize::from(x <= y);
        j += usize::from(y <= x);
    }
    a[i..].iter().chain(&b[j..]).for_each(|&v| emit(v));
}

/// Object → switches for every policy object: the hosts of the distinct
/// member EPGs of the object's pairs, in switch order.
///
/// `objects` are the policy objects (no switches) by position, and
/// `object_pairs` maps an object position to pair positions. `members[p]`
/// holds pair `p`'s member EPG positions, and `epg_hosts` maps an EPG
/// position to switch positions in `switches`. Each object's EPGs and
/// switches are deduplicated through mark vectors, reset after every object,
/// so the scratch memory is O(EPGs + switches) and the work is the object's
/// pairs plus its distinct EPGs' hosts — never pairs × closure × hosts.
fn object_switch_index(
    object_pairs: &DenseIndex,
    objects: &[ObjectId],
    members: &[[u32; 2]],
    epg_hosts: &DenseIndex,
    switches: &[SwitchId],
) -> FlatIndex<ObjectId, SwitchId> {
    let mut index = FlatIndex::with_capacity(objects.len(), objects.len());
    let mut epg_marked = vec![false; epg_hosts.len()];
    let mut switch_marked = vec![false; switches.len()];
    let (mut epgs, mut hosts) = (Vec::new(), Vec::new());
    for (o, &object) in objects.iter().enumerate() {
        for &p in object_pairs.run(o) {
            for epg in members[p as usize] {
                if !std::mem::replace(&mut epg_marked[epg as usize], true) {
                    epgs.push(epg as usize);
                }
            }
        }
        for epg in epgs.drain(..) {
            epg_marked[epg] = false;
            for &s in epg_hosts.run(epg) {
                if !std::mem::replace(&mut switch_marked[s as usize], true) {
                    hosts.push(s);
                }
            }
        }
        hosts.sort_unstable();
        for &s in &hosts {
            switch_marked[s as usize] = false;
        }
        index.push(object, hosts.drain(..).map(|s| switches[s as usize]));
    }
    index.shrink();
    index
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
        let closure: Vec<ObjectId> = u.objects_for_pair(app_db).into_iter().collect();
        assert_eq!(u.objects_for_bound_pair(app_db), Some(&closure[..]));
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
    fn build_reports_a_duplicate_tenant_as_a_tenant() {
        let mut b = PolicyBuilder::new();
        b.tenant(Tenant::new(TenantId::new(3), "t"))
            .tenant(Tenant::new(TenantId::new(3), "t-dup"));
        let err = b.build().unwrap_err();
        assert_eq!(
            err,
            PolicyError::DuplicateTenant {
                tenant: TenantId::new(3)
            }
        );
        assert_eq!(err.to_string(), "tenant-3 defined more than once");
    }
}
