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
use std::fmt;
use std::sync::OnceLock;

use crate::diff::UniverseDiff;
use crate::error::PolicyError;
use crate::ids::{ContractId, EndpointId, EpgId, FilterId, ObjectId, SwitchId, TenantId, VrfId};
use crate::index::{by_key, DenseIndex, FlatIndex, ObjectTable};
use crate::object::{Contract, ContractBinding, Endpoint, Epg, Filter, Switch, Tenant, Vrf};
use crate::pair::{EpgPair, SwitchEpgPair};

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
/// Besides the objects, the universe carries dependency indexes (pair →
/// bindings, EPG → hosting switches, object → dependent pairs, …). Each
/// index is one flat, sorted multimap — keys, run offsets and values in
/// three vectors — so every dependency query below is a binary search, not
/// a scan, and the borrowed accessors return sorted slices straight out of
/// it. This keeps risk-model construction and fault correlation
/// proportional to the answer size instead of the universe size on
/// 1000-switch fabrics, and building, cloning or dropping a universe
/// proportional to its objects and index entries: a few vectors per table
/// and per index, no tree node per entry.
///
/// The tables are validated when the universe is built or decoded; the
/// indexes are built on first use, behind one [`OnceLock`]. A universe that
/// replaces another (a policy update) derives them from the one it replaces
/// through their [`UniverseDiff`], re-deriving only the runs the difference
/// touches; any other first query builds them from the tables.
/// Either way they are a pure function of the tables, so equality, cloning
/// and the wire encoding depend on the tables alone: a universe whose
/// indexes are not built yet equals, clones and encodes like one whose
/// indexes are.
#[derive(Clone)]
pub struct PolicyUniverse {
    tenants: ObjectTable<TenantId, Tenant>,
    vrfs: ObjectTable<VrfId, Vrf>,
    epgs: ObjectTable<EpgId, Epg>,
    endpoints: ObjectTable<EndpointId, Endpoint>,
    switches: ObjectTable<SwitchId, Switch>,
    contracts: ObjectTable<ContractId, Contract>,
    filters: ObjectTable<FilterId, Filter>,
    bindings: Vec<ContractBinding>,
    /// The dependency indexes, once built.
    indexes: OnceLock<Indexes>,
}

/// The dependency indexes of a universe, each a pure function of its tables.
#[derive(Debug, Clone)]
struct Indexes {
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
    /// The number of controller-model elements depending on each key of
    /// `object_pairs`, aligned with its keys: each of the object's pairs
    /// counts once per switch hosting a member (a switch: once per pair).
    dependent_counts: Vec<u32>,
    /// Switches each policy object's rules can be deployed on (switch objects
    /// are not stored: each maps to itself).
    object_switches: FlatIndex<ObjectId, SwitchId>,
    /// How the indexes were derived.
    work: IndexWork,
}

/// How a universe's dependency indexes were derived (see
/// [`PolicyUniverse::index_work`]): the work count of a first query or of
/// [`PolicyUniverse::index_from`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexWork {
    /// Built from the tables alone.
    Full,
    /// Patched from the indexes of the universe it replaced.
    Patched {
        /// Pair closures re-derived: the pairs whose bindings, closure or
        /// member hosts differ between the two universes.
        closures: usize,
        /// Objects whose dependent pairs were re-derived: every object such
        /// a pair names in either universe, switches included.
        objects: usize,
        /// Whether the endpoint views (EPG → hosting switches, switch →
        /// EPGs) were rebuilt, because an endpoint came, went or moved.
        endpoint_views: bool,
    },
}

impl PartialEq for PolicyUniverse {
    fn eq(&self, other: &Self) -> bool {
        self.tenants == other.tenants
            && self.vrfs == other.vrfs
            && self.epgs == other.epgs
            && self.endpoints == other.endpoints
            && self.switches == other.switches
            && self.contracts == other.contracts
            && self.filters == other.filters
            && self.bindings == other.bindings
    }
}

impl Eq for PolicyUniverse {}

impl fmt::Debug for PolicyUniverse {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("PolicyUniverse")
            .field("tenants", &self.tenants)
            .field("vrfs", &self.vrfs)
            .field("epgs", &self.epgs)
            .field("endpoints", &self.endpoints)
            .field("switches", &self.switches)
            .field("contracts", &self.contracts)
            .field("filters", &self.filters)
            .field("bindings", &self.bindings)
            .finish_non_exhaustive()
    }
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
            epg_pairs: self.indexes().pair_bindings.keys().len(),
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
        self.indexes()
            .epg_hosts
            .slice(&epg)
            .iter()
            .copied()
            .collect()
    }

    /// EPGs that have at least one endpoint attached to `switch`.
    pub fn epgs_on_switch(&self, switch: SwitchId) -> BTreeSet<EpgId> {
        self.indexes()
            .switch_epgs
            .slice(&switch)
            .iter()
            .copied()
            .collect()
    }

    /// All distinct EPG pairs allowed to communicate by at least one binding.
    pub fn epg_pairs(&self) -> BTreeSet<EpgPair> {
        self.indexes()
            .pair_bindings
            .keys()
            .iter()
            .copied()
            .collect()
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
            .filter_map(|pair| self.indexes().pair_bindings.get(pair))
            .flatten()
            .copied()
            .collect();
        idxs.sort_unstable();
        idxs.into_iter().map(|i| &self.bindings[i])
    }

    /// Switches on which rules for `pair` must be deployed: every switch that
    /// hosts an endpoint of either member EPG.
    pub fn switches_for_pair(&self, pair: EpgPair) -> BTreeSet<SwitchId> {
        pair_hosts(&self.indexes().epg_hosts, pair).collect()
    }

    /// EPG pairs whose rules must be deployed on `switch`: every bound pair
    /// with at least one member EPG hosted on the switch (empty for a switch
    /// without endpoints or an unknown one), ascending. Borrowed from the
    /// index.
    pub fn pairs_on_switch(&self, switch: SwitchId) -> &[EpgPair] {
        self.indexes().object_pairs.slice(&ObjectId::Switch(switch))
    }

    /// The dependency closure of a *bound* pair, ascending and borrowed from
    /// the index: what [`objects_for_pair`](Self::objects_for_pair) returns,
    /// without the copy. `None` for pairs no binding governs.
    pub fn objects_for_bound_pair(&self, pair: EpgPair) -> Option<&[ObjectId]> {
        self.indexes().pair_objects.get(&pair)
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
        (self.indexes().object_pairs.iter())
            .map(|(object, pairs)| (object, pairs.iter().copied().collect()))
            .collect()
    }

    /// The EPG pairs depending on a single object, ascending — the
    /// per-object slice of [`pairs_per_object`](Self::pairs_per_object)
    /// without materializing the whole map. Returns `None` for objects no
    /// pair depends on.
    pub fn pairs_for_object(&self, object: ObjectId) -> Option<&[EpgPair]> {
        self.indexes().object_pairs.get(&object)
    }

    /// The switches an object's rules can be deployed on: the union of
    /// [`switches_for_pair`](Self::switches_for_pair) over the object's
    /// dependent pairs (a switch object maps to itself). Indexed, so fault
    /// correlation stays proportional to the answer, not the universe.
    pub fn switches_for_object(&self, object: ObjectId) -> BTreeSet<SwitchId> {
        self.object_switches(&object).iter().copied().collect()
    }

    /// [`switches_for_object`](Self::switches_for_object) as an ascending
    /// slice borrowed from the index (a switch object borrows itself), for
    /// callers that only probe it.
    pub fn object_switches<'a>(&'a self, object: &'a ObjectId) -> &'a [SwitchId] {
        match object {
            ObjectId::Switch(switch) => std::slice::from_ref(switch),
            other => self.indexes().object_switches.slice(other),
        }
    }

    /// The closure of `element`'s pair, if the pair is deployed on its
    /// switch (the element exists).
    fn element_closure(&self, element: SwitchEpgPair) -> Option<&[ObjectId]> {
        let deployed = self.pairs_on_switch(element.switch);
        deployed.binary_search(&element.pair).ok()?;
        self.objects_for_bound_pair(element.pair)
    }

    /// The objects a controller-model element `(switch, pair)` depends on,
    /// ascending: its pair's closure, then its switch. Empty unless the
    /// pair is deployed on the switch.
    pub fn objects_for_element(
        &self,
        element: SwitchEpgPair,
    ) -> impl Iterator<Item = ObjectId> + '_ {
        let closure = self.element_closure(element);
        let switch = closure.map(|_| ObjectId::Switch(element.switch));
        closure.into_iter().flatten().copied().chain(switch)
    }

    /// Returns `true` if `element` depends on `object`: one binary search in
    /// its pair's closure.
    pub fn element_depends_on(&self, element: SwitchEpgPair, object: ObjectId) -> bool {
        self.element_closure(element).is_some_and(|closure| {
            object == ObjectId::Switch(element.switch) || closure.binary_search(&object).is_ok()
        })
    }

    /// The controller-model elements depending on `object`: each of its
    /// pairs on every switch hosting a member, or, for a switch object, each
    /// pair deployed on it there. In pair order, nothing allocated.
    pub fn elements_for_object(
        &self,
        object: ObjectId,
    ) -> impl Iterator<Item = SwitchEpgPair> + '_ {
        let (on_switch, on_hosts) = match object {
            ObjectId::Switch(switch) => (Some((switch, self.pairs_on_switch(switch))), None),
            other => (None, self.pairs_for_object(other)),
        };
        let on_switch = (on_switch.into_iter())
            .flat_map(|(switch, pairs)| pairs.iter().map(move |&p| SwitchEpgPair::new(switch, p)));
        let hosts = &self.indexes().epg_hosts;
        let on_hosts = on_hosts.into_iter().flatten().flat_map(move |&pair| {
            pair_hosts(hosts, pair).map(move |switch| SwitchEpgPair::new(switch, pair))
        });
        on_switch.chain(on_hosts)
    }

    /// The number of [`elements_for_object`](Self::elements_for_object),
    /// read from an index.
    pub fn dependent_count(&self, object: ObjectId) -> usize {
        let indexes = self.indexes();
        (indexes.object_pairs.position(&object)).map_or(0, |i| indexes.dependent_counts[i] as usize)
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
    /// Validation is a few linear passes. Each kind is validated in turn —
    /// tenants, VRFs, switches, filters, contracts, EPGs, endpoints, then
    /// bindings — into its sorted table ([`PolicyUniverse`] describes the
    /// layout), and every reference is looked up once in the table it points
    /// into. Ids that arrive strictly ascending, as every encoder and
    /// generator emits them, are checked in one pass and moved in without a
    /// sort; other input is stable-sorted first.
    ///
    /// The dependency indexes are not built here but on first use, so a
    /// universe that replaces another can derive them from it instead
    /// ([`PolicyUniverse::index_from`]). Once validation has passed, that
    /// build cannot fail.
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
        let tenants = ObjectTable::validate(
            self.tenants,
            |t| t.id,
            |_| Ok(()),
            |tenant| PolicyError::DuplicateTenant { tenant },
        )?;
        let vrfs = ObjectTable::validate(
            self.vrfs,
            |v| v.id,
            |_| Ok(()),
            |id| duplicate(ObjectId::Vrf(id)),
        )?;
        let switches = ObjectTable::validate(
            self.switches,
            |s| s.id,
            |_| Ok(()),
            |id| duplicate(ObjectId::Switch(id)),
        )?;
        let filters = ObjectTable::validate(
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
        let contracts = ObjectTable::validate(
            self.contracts,
            |c| c.id,
            |c| {
                if c.filters.is_empty() {
                    return Err(PolicyError::EmptyContract { contract: c.id });
                }
                match c.filters.iter().find(|f| !filters.contains(f)) {
                    Some(&filter) => Err(PolicyError::UnknownFilter {
                        contract: c.id,
                        filter,
                    }),
                    None => Ok(()),
                }
            },
            |id| duplicate(ObjectId::Contract(id)),
        )?;
        let epgs = ObjectTable::validate(
            self.epgs,
            |e| e.id,
            |e| match vrfs.contains(&e.vrf) {
                true => Ok(()),
                false => Err(PolicyError::UnknownVrf {
                    epg: e.id,
                    vrf: e.vrf,
                }),
            },
            |id| duplicate(ObjectId::Epg(id)),
        )?;
        let endpoints = ObjectTable::validate(
            self.endpoints,
            |ep| ep.id,
            |ep| {
                if !epgs.contains(&ep.epg) {
                    return Err(PolicyError::UnknownEpg {
                        endpoint: ep.id,
                        epg: ep.epg,
                    });
                }
                if !switches.contains(&ep.switch) {
                    return Err(PolicyError::UnknownSwitch {
                        endpoint: ep.id,
                        switch: ep.switch,
                    });
                }
                Ok(())
            },
            |endpoint| PolicyError::DuplicateEndpoint { endpoint },
        )?;
        // Bindings are checked in input order.
        for b in &self.bindings {
            if !contracts.contains(&b.contract) {
                return Err(PolicyError::UnknownContract {
                    contract: b.contract,
                });
            }
            let epg = |epg| {
                epgs.get(&epg).ok_or(PolicyError::UnknownBindingEpg {
                    contract: b.contract,
                    epg,
                })
            };
            if epg(b.consumer)?.vrf != epg(b.provider)?.vrf {
                return Err(PolicyError::CrossVrfBinding {
                    contract: b.contract,
                    consumer: b.consumer,
                    provider: b.provider,
                });
            }
        }
        let mut bindings = self.bindings;
        if !bindings.windows(2).all(|w| w[0] < w[1]) {
            bindings.sort_unstable();
            bindings.dedup();
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
            indexes: OnceLock::new(),
        })
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

/// A table position as a `u32`, the width the build's scratch indexes use.
fn slot(position: usize) -> u32 {
    u32::try_from(position).expect("a universe holds fewer than 2^32 objects")
}

/// The position of a reference, which validation found in its table.
fn resolved(position: Option<usize>) -> u32 {
    slot(position.expect("a validated universe's references resolve"))
}

// ----------------------------------------------------------------------
// Dependency indexes: built in full on first use, or patched from the
// universe this one replaces.
// ----------------------------------------------------------------------

impl PolicyUniverse {
    /// The dependency indexes, built from the tables on first use.
    fn indexes(&self) -> &Indexes {
        self.indexes.get_or_init(|| self.build_indexes())
    }

    /// Builds the dependency indexes from the tables now, unless they exist:
    /// for a universe every index of which is about to be read anyway, such
    /// as a generated one about to be deployed.
    pub fn ensure_indexed(&self) {
        self.indexes();
    }

    /// How the dependency indexes were derived, or `None` while no query has
    /// built them yet.
    pub fn index_work(&self) -> Option<IndexWork> {
        self.indexes.get().map(|indexes| indexes.work)
    }

    /// Derives this universe's dependency indexes from `base`'s, the
    /// universe it replaces, through their difference:
    /// [`UniverseDiff::between`]`(base, self).`[`index`](UniverseDiff::index)`()`.
    /// Has no effect once this universe's indexes exist.
    pub fn index_from(&self, base: &PolicyUniverse) {
        UniverseDiff::between(base, self).index();
    }

    /// Compares this universe's dependency indexes with `other`'s, index by
    /// index, building either's if needed, and names the first that
    /// differs — the oracle of [`index_from`](Self::index_from), which must
    /// match the full build of the same tables bit for bit.
    pub fn index_difference(&self, other: &PolicyUniverse) -> Option<&'static str> {
        let (a, b) = (self.indexes(), other.indexes());
        [
            ("pair → bindings", a.pair_bindings == b.pair_bindings),
            ("EPG → hosts", a.epg_hosts == b.epg_hosts),
            ("switch → EPGs", a.switch_epgs == b.switch_epgs),
            ("pair → closure", a.pair_objects == b.pair_objects),
            ("object → pairs", a.object_pairs == b.object_pairs),
            ("object → switches", a.object_switches == b.object_switches),
            ("object → count", a.dependent_counts == b.dependent_counts),
        ]
        .into_iter()
        .find_map(|(index, same)| (!same).then_some(index))
    }

    /// The endpoint views: EPG position → hosting switch positions, and
    /// switch → EPGs.
    ///
    /// Each endpoint resolves to its EPG and switch positions, grouped by
    /// EPG, regrouped by switch (each run now ascends by EPG), regrouped by
    /// EPG (each run now ascends by switch).
    fn endpoint_views(&self) -> (DenseIndex, FlatIndex<SwitchId, EpgId>) {
        let (epg_ids, switch_ids) = (self.epgs.ids(), self.switches.ids());
        let endpoints = self.endpoints.items().iter().map(|ep| {
            let epg = resolved(self.epgs.position(&ep.epg));
            (epg, resolved(self.switches.position(&ep.switch)))
        });
        let by_epg = DenseIndex::group(epg_ids.len(), endpoints);
        let mut switch_epgs =
            DenseIndex::group(switch_ids.len(), by_epg.entries().map(|(e, s)| (s, e)));
        drop(by_epg);
        switch_epgs.dedup();
        let epg_hosts =
            DenseIndex::group(epg_ids.len(), switch_epgs.entries().map(|(s, e)| (e, s)));
        let switch_epgs = switch_epgs.to_flat(|s| switch_ids[s], |e| epg_ids[e as usize]);
        (epg_hosts, switch_epgs)
    }

    /// Builds every dependency index from the validated tables.
    ///
    /// Every reference is resolved to a table position, and the VRFs, EPGs,
    /// contracts, filters and switches are numbered in [`ObjectId`] order,
    /// so a sorted run of positions maps to a sorted run of objects. Each
    /// pair closure is computed as sorted object positions, and the switch-
    /// and object-keyed indexes are grouped by stable counting sorts over
    /// those positions, O(entries + objects). Object → switches merges each
    /// object's pairs' member EPGs' hosts through reusable mark vectors, so
    /// its scratch memory is O(EPGs + switches) however many pairs share the
    /// same switches. Each scratch index is dropped as soon as it is grouped.
    fn build_indexes(&self) -> Indexes {
        // Every reference as the position of its target: each EPG's VRF,
        // each contract's filters, each binding's consumer, provider and
        // contract.
        let epg_vrfs: Vec<u32> = (self.epgs.items().iter())
            .map(|e| resolved(self.vrfs.position(&e.vrf)))
            .collect();
        let mut filter_ends = Vec::with_capacity(self.contracts.len() + 1);
        filter_ends.push(0);
        let mut filter_slots = Vec::new();
        for contract in self.contracts.items() {
            let filters = contract.filters.iter();
            filter_slots.extend(filters.map(|f| resolved(self.filters.position(f))));
            filter_ends.push(filter_slots.len());
        }
        let contract_filters = DenseIndex::from_runs(filter_ends, filter_slots);
        let epg = |id| resolved(self.epgs.position(&id));
        let bindings: Vec<[u32; 3]> = (self.bindings.iter())
            .map(|b| {
                let contract = resolved(self.contracts.position(&b.contract));
                [epg(b.consumer), epg(b.provider), contract]
            })
            .collect();
        let objects = self.all_objects();
        // Positions, and so the bases below, fit in a u32 once the total does.
        slot(objects.len());
        let epg_base = slot(self.vrfs.len());
        let contract_base = epg_base + slot(self.epgs.len());
        let filter_base = contract_base + slot(self.contracts.len());
        let switch_base = filter_base + slot(self.filters.len());
        let (epg_ids, switch_ids) = (self.epgs.ids(), self.switches.ids());
        let (epg_hosts, switch_epgs) = self.endpoint_views();

        // Pair pass: each bound pair's closure as sorted object positions,
        // and the entries of the object-keyed index — the closure's objects
        // and the switches hosting either member — in pair order.
        let pair_bindings = FlatIndex::from_entries(
            self.bindings
                .iter()
                .enumerate()
                .map(|(i, b)| (EpgPair::new(b.consumer, b.provider), i))
                .collect(),
        );
        let pairs = pair_bindings.keys();
        // Sized for a typical closure — a VRF, two EPGs, a contract and a
        // filter — so a large universe's pass does not regrow it.
        let mut pair_objects = FlatIndex::with_capacity(pairs.len(), 5 * pairs.len());
        let mut entries = Vec::new();
        let mut dependent_counts = vec![0u32; objects.len()];
        let mut members = Vec::with_capacity(pairs.len());
        let mut closure = Vec::new();
        for (p, (pair, idxs)) in pair_bindings.iter().enumerate() {
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
            pair_objects.push(pair, closure.iter().map(|&o| objects[o as usize]));
            entries.extend(closure.iter().map(|&o| (o, p)));
            let mut elements = 0;
            for s in merged(epg_hosts.run(a as usize), epg_hosts.run(b as usize)) {
                entries.push((switch_base + s, p));
                dependent_counts[(switch_base + s) as usize] += 1;
                elements += 1;
            }
            for &o in &closure {
                dependent_counts[o as usize] += elements;
            }
            members.push([a, b]);
        }
        pair_objects.shrink();
        let object_pairs = DenseIndex::group(objects.len(), entries.iter().copied());
        drop(entries);
        let mut runs = (0..objects.len()).map(|o| object_pairs.run(o));
        dependent_counts.retain(|_| runs.next().is_some_and(|run| !run.is_empty()));
        let object_switches = object_switch_index(
            &object_pairs,
            &objects[..switch_base as usize],
            &members,
            &epg_hosts,
            switch_ids,
        );
        let object_pairs = object_pairs.to_flat(|o| objects[o], |p| pairs[p as usize]);
        Indexes {
            epg_hosts: epg_hosts.to_flat(|e| epg_ids[e], |s| switch_ids[s as usize]),
            switch_epgs,
            pair_objects,
            object_pairs,
            dependent_counts,
            object_switches,
            pair_bindings,
            work: IndexWork::Full,
        }
    }

    /// This universe's indexes, derived from those of `diff.before()` (see
    /// [`UniverseDiff::index`]).
    fn patch(&self, diff: &UniverseDiff) -> Indexes {
        let base = diff.before();
        let old = base.indexes();
        // The endpoint views are a function of each endpoint's EPG and
        // switch alone.
        fn links(u: &PolicyUniverse) -> impl Iterator<Item = (EpgId, SwitchId)> + '_ {
            u.endpoints.items().iter().map(|ep| (ep.epg, ep.switch))
        }
        let endpoints_kept = links(self).eq(links(base));
        let (epg_hosts, switch_epgs, moved) = if endpoints_kept {
            (old.epg_hosts.clone(), old.switch_epgs.clone(), Vec::new())
        } else {
            let (epg_hosts, switch_epgs) = self.endpoint_views();
            let (epg_ids, switch_ids) = (self.epgs.ids(), self.switches.ids());
            let epg_hosts = epg_hosts.to_flat(|e| epg_ids[e], |s| switch_ids[s as usize]);
            let moved = old.epg_hosts.changed_keys(&epg_hosts);
            (epg_hosts, switch_epgs, moved)
        };

        // Dirty pairs: those of a binding one side lacks, of a contract
        // whose filter list differs, and of an EPG whose VRF or hosts
        // differ. A pair only the new side holds has a binding the old side
        // lacks.
        let (pair_bindings, mut dirty) = self.patch_pair_bindings(diff, &old.pair_bindings);
        for object in diff.contracts().iter().chain(diff.epgs()) {
            dirty.extend(old.object_pairs.slice(object));
        }
        let mut moved_pairs = Vec::new();
        for epg in moved {
            moved_pairs.extend(old.object_pairs.slice(&ObjectId::Epg(epg)));
        }
        dirty.extend(&moved_pairs);
        dirty.sort_unstable();
        dirty.dedup();

        let mut closures = 0;
        let pair_objects = old.pair_objects.patched(&dirty, |pair, _, closure| {
            if let Some(idxs) = pair_bindings.get(&pair) {
                self.closure(pair, idxs, closure);
                closures += 1;
            }
        });

        // Every object a dirty pair names in either universe, the (object,
        // pair) entries of the dirty pairs the new side holds, and the change
        // each dirty pair makes to its objects' dependent counts: its old
        // elements taken away, its new ones added.
        let mut objects = Vec::new();
        let mut fresh = Vec::new();
        let mut counted = Vec::new();
        for &pair in &dirty {
            objects.extend(old.pair_objects.slice(&pair));
            objects.extend(pair_hosts(&old.epg_hosts, pair).map(ObjectId::Switch));
            if let Some(closure) = old.pair_objects.get(&pair) {
                count_elements(&mut counted, closure, pair_hosts(&old.epg_hosts, pair), -1);
            }
            if let Some(closure) = pair_objects.get(&pair) {
                fresh.extend(closure.iter().map(|&object| (object, pair)));
                let hosts = pair_hosts(&epg_hosts, pair);
                fresh.extend(hosts.map(|s| (ObjectId::Switch(s), pair)));
                count_elements(&mut counted, closure, pair_hosts(&epg_hosts, pair), 1);
            }
        }
        counted.sort_unstable_by_key(|&(object, _)| object);
        fresh.sort_unstable();
        fresh.dedup();
        objects.extend(fresh.iter().map(|&(object, _)| object));
        objects.sort_unstable();
        objects.dedup();

        // An object's switches can change only with its pairs, or with the
        // hosts of a pair it keeps. Switch objects are not stored there.
        let mut rehosted = Vec::new();
        for pair in moved_pairs {
            rehosted.extend(pair_objects.slice(&pair));
        }
        let mut next = 0;
        let object_pairs = old.object_pairs.patched(&objects, |object, was, pairs| {
            pairs.extend(was.iter().filter(|p| dirty.binary_search(p).is_err()));
            let start = next;
            while fresh.get(next).is_some_and(|&(o, _)| o == object) {
                next += 1;
            }
            pairs.extend(fresh[start..next].iter().map(|&(_, pair)| pair));
            pairs.sort_unstable();
            if pairs[..] != *was && !object.is_switch() {
                rehosted.push(object);
            }
        });
        rehosted.sort_unstable();
        rehosted.dedup();
        let mut epgs = Vec::new();
        let object_switches = old
            .object_switches
            .patched(&rehosted, |object, _, switches| {
                epgs.clear();
                epgs.extend(object_pairs.slice(&object).iter().flat_map(|p| [p.a, p.b]));
                epgs.sort_unstable();
                epgs.dedup();
                switches.extend(epgs.iter().flat_map(|epg| epg_hosts.slice(epg)));
                switches.sort_unstable();
                switches.dedup();
            });
        let mut next = 0;
        let dependent_counts = old.object_pairs.carry(
            &old.dependent_counts,
            &object_pairs,
            &objects,
            |object, count| {
                let mut count = i64::from(count);
                while let Some(&(_, delta)) = counted.get(next).filter(|(o, _)| *o == object) {
                    count += delta;
                    next += 1;
                }
                u32::try_from(count).expect("a count stays within its elements")
            },
        );
        Indexes {
            pair_bindings,
            epg_hosts,
            switch_epgs,
            pair_objects,
            object_pairs,
            dependent_counts,
            object_switches,
            work: IndexWork::Patched {
                closures,
                objects: objects.len(),
                endpoint_views: !endpoints_kept,
            },
        }
    }

    /// Pair → bindings derived from `old`, `diff.before()`'s: the bindings
    /// both sides hold keep their order, so the k-th of them in one list is
    /// the k-th in the other and is renumbered so. Also returns the pairs of
    /// the bindings one side lacks, the runs re-derived.
    fn patch_pair_bindings(
        &self,
        diff: &UniverseDiff,
        old: &FlatIndex<EpgPair, usize>,
    ) -> (FlatIndex<EpgPair, usize>, Vec<EpgPair>) {
        const GONE: usize = usize::MAX;
        let (lost, gained) = &diff.unmatched;
        if lost.is_empty() && gained.is_empty() {
            return (old.clone(), Vec::new());
        }
        let was = &diff.before().bindings;
        let pair = |b: &ContractBinding| EpgPair::new(b.consumer, b.provider);
        let mut renumber = vec![GONE; was.len()];
        for (i, j) in kept(was.len(), lost).zip(kept(self.bindings.len(), gained)) {
            renumber[i] = j;
        }
        let mut added: Vec<(EpgPair, usize)> = (gained.iter())
            .map(|&j| (pair(&self.bindings[j]), j))
            .collect();
        let mut dirty: Vec<EpgPair> = (lost.iter().map(|&i| pair(&was[i])))
            .chain(added.iter().map(|&(p, _)| p))
            .collect();
        added.sort_unstable();
        dirty.sort_unstable();
        dirty.dedup();
        let mut renumbered = old.clone();
        renumbered.map_values(|i| renumber[i]);
        let mut next = 0;
        let index = renumbered.patched(&dirty, |pair, kept, idxs| {
            idxs.extend(kept.iter().copied().filter(|&i| i != GONE));
            let start = next;
            while added.get(next).is_some_and(|&(p, _)| p == pair) {
                next += 1;
            }
            idxs.extend(added[start..next].iter().map(|&(_, j)| j));
            idxs.sort_unstable();
        });
        (index, dirty)
    }

    /// Appends the dependency closure of `pair`, bound by the bindings at
    /// `idxs`, to `closure`, ascending: the VRF, both EPGs, each binding's
    /// contract and its filters.
    fn closure(&self, pair: EpgPair, idxs: &[usize], closure: &mut Vec<ObjectId>) {
        let vrf = self.epgs.get(&pair.a).expect("bound EPGs exist").vrf;
        closure.extend([
            ObjectId::Vrf(vrf),
            ObjectId::Epg(pair.a),
            ObjectId::Epg(pair.b),
        ]);
        for &i in idxs {
            let contract = self.bindings[i].contract;
            closure.push(ObjectId::Contract(contract));
            let filters = &self.contracts.get(&contract).expect("bound").filters;
            closure.extend(filters.iter().map(|&f| ObjectId::Filter(f)));
        }
        closure.sort_unstable();
        closure.dedup();
    }
}

impl UniverseDiff<'_> {
    /// Derives `after`'s dependency indexes from `before`'s (built first if
    /// they are not yet), re-deriving only the runs this difference touches.
    /// Has no effect once `after`'s indexes exist.
    ///
    /// The dirty pairs are those of the bindings one side lacks (the others
    /// are renumbered), of the contracts whose filter lists differ, of the
    /// EPGs whose VRF changed and, when an endpoint came, went or moved, of
    /// the EPGs whose hosting switches differ. Their closures are
    /// re-derived, and so is object → pairs for every object a dirty pair
    /// names in either universe, switches included. Object → switches is
    /// re-derived for those of them whose pairs changed, and for the objects
    /// of a pair whose member hosts changed. Every other run is copied from
    /// `before`, and the endpoint views are rebuilt whole only when an
    /// endpoint came, went or moved. The result is bit-identical to the full
    /// build for any two universes, related or not;
    /// [`index_work`](PolicyUniverse::index_work) reports what it
    /// re-derived.
    pub fn index(&self) {
        let after = self.after();
        if after.indexes.get().is_none() {
            // Not `get_or_init`: `before` may be `after` itself. A racing
            // first query leaves indexes equal to these in the cell.
            let _ = after.indexes.set(after.patch(self));
        }
    }
}

/// The positions `0..len` not in `dropped`, which ascends.
fn kept(len: usize, dropped: &[usize]) -> impl Iterator<Item = usize> + '_ {
    let mut dropped = dropped.iter().peekable();
    (0..len).filter(move |i| dropped.next_if_eq(&i).is_none())
}

/// The switches hosting either member of `pair`, ascending.
fn pair_hosts(
    epg_hosts: &FlatIndex<EpgId, SwitchId>,
    pair: EpgPair,
) -> impl Iterator<Item = SwitchId> + '_ {
    merged(epg_hosts.slice(&pair.a), epg_hosts.slice(&pair.b))
}

/// Every value of the two ascending runs once, ascending.
fn merged<'a, T: Ord + Copy>(a: &'a [T], b: &'a [T]) -> impl Iterator<Item = T> + 'a {
    by_key(a, b, |&&x| x).filter_map(|(x, y)| x.or(y).copied())
}

/// Adds `sign` times the elements of one pair, with `closure` on `hosts`,
/// to `counted` as `(object, change)` entries: one per host to each closure
/// object, and one to each host.
fn count_elements(
    counted: &mut Vec<(ObjectId, i64)>,
    closure: &[ObjectId],
    hosts: impl Iterator<Item = SwitchId>,
    sign: i64,
) {
    let before = counted.len();
    counted.extend(hosts.map(|s| (ObjectId::Switch(s), sign)));
    let elements = (counted.len() - before) as i64;
    counted.extend(closure.iter().map(|&object| (object, sign * elements)));
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
