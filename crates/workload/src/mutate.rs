//! Policy mutation helpers.
//!
//! The use cases of §V-B of the paper exercise *dynamic* policy changes — for
//! example, "continuously adding one new filter after another to the
//! Contract:App-DB object" until the switch TCAM overflows. [`PolicyUniverse`]
//! is immutable by design, so these helpers rebuild a new universe with one
//! targeted change applied; the fabric's `update_policy` then derives the
//! incremental instructions and change-log entries from the difference.
//!
//! The seeded [`random_policy_edit`] / [`add_random_filter`] /
//! [`remove_random_filter`] variants drive the campaign engine's churn and
//! concurrent-update scenarios, where policy edits race with fault injection.

use rand::seq::SliceRandom;
use rand::Rng;

use scout_policy::{
    Contract, ContractId, Filter, FilterEntry, FilterId, PolicyUniverse, PortRange, Protocol,
};

/// Clones everything except contracts and bindings into a fresh builder; the
/// caller then adds the (possibly modified) contracts and the bindings.
fn clone_base(universe: &PolicyUniverse) -> scout_policy::PolicyBuilder {
    let mut builder = PolicyUniverse::builder();
    for t in universe.tenants() {
        builder.tenant(t.clone());
    }
    for v in universe.vrfs() {
        builder.vrf(v.clone());
    }
    for e in universe.epgs() {
        builder.epg(e.clone());
    }
    for s in universe.switches() {
        builder.switch(s.clone());
    }
    for ep in universe.endpoints() {
        builder.endpoint(ep.clone());
    }
    for f in universe.filters() {
        builder.filter(f.clone());
    }
    builder
}

/// Returns a new universe in which a brand-new single-port TCP filter has been
/// created and appended to `contract`'s filter list.
///
/// Returns `None` if the contract does not exist. The new filter gets the id
/// `new_filter` (must be unused) and allows TCP traffic on `port`.
pub fn add_filter_to_contract(
    universe: &PolicyUniverse,
    contract: ContractId,
    new_filter: FilterId,
    port: u16,
) -> Option<PolicyUniverse> {
    universe.contract(contract)?;
    if universe.filter(new_filter).is_some() {
        return None;
    }
    let mut builder = clone_base(universe);
    builder.filter(Filter::new(
        new_filter,
        format!("added-port-{port}"),
        vec![FilterEntry::allow(Protocol::Tcp, PortRange::single(port))],
    ));
    for c in universe.contracts() {
        if c.id == contract {
            let mut filters = c.filters.to_vec();
            filters.push(new_filter);
            builder.contract(Contract::new(c.id, c.name.clone(), filters));
        } else {
            builder.contract(c.clone());
        }
    }
    for b in universe.bindings() {
        builder.bind(*b);
    }
    builder.build().ok()
}

/// Returns a new universe with `filter` removed from `contract`'s filter list
/// (the filter object itself is kept so other contracts can still use it).
///
/// Returns `None` if the contract does not exist, does not reference the
/// filter, or would become empty.
pub fn remove_filter_from_contract(
    universe: &PolicyUniverse,
    contract: ContractId,
    filter: FilterId,
) -> Option<PolicyUniverse> {
    let existing = universe.contract(contract)?;
    if !existing.filters.contains(&filter) || existing.filters.len() == 1 {
        return None;
    }
    let mut builder = clone_base(universe);
    for c in universe.contracts() {
        if c.id == contract {
            let filters: Vec<FilterId> =
                c.filters.iter().copied().filter(|&f| f != filter).collect();
            builder.contract(Contract::new(c.id, c.name.clone(), filters));
        } else {
            builder.contract(c.clone());
        }
    }
    for b in universe.bindings() {
        builder.bind(*b);
    }
    builder.build().ok()
}

/// The smallest unused filter id in `universe`, for incremental additions.
pub fn next_filter_id(universe: &PolicyUniverse) -> FilterId {
    let max = universe.filters().map(|f| f.id.raw()).max().unwrap_or(0);
    FilterId::new(max + 1)
}

/// The outcome of one randomized policy edit: the new universe plus the
/// contract and filter the edit touched (the objects a change log will
/// implicate).
#[derive(Debug, Clone, PartialEq)]
pub struct PolicyEdit {
    /// The universe with the edit applied.
    pub universe: PolicyUniverse,
    /// The contract whose filter list changed.
    pub contract: ContractId,
    /// The filter that was added to (or removed from) the contract.
    pub filter: FilterId,
    /// `true` if the filter was added, `false` if it was removed.
    pub added: bool,
}

/// Appends a brand-new single-port TCP filter to a uniformly chosen contract.
///
/// Returns `None` only when the universe has no contracts. The port is drawn
/// from the high, unprivileged range so repeated edits stay distinct from the
/// generator-assigned service ports.
pub fn add_random_filter<R: Rng>(universe: &PolicyUniverse, rng: &mut R) -> Option<PolicyEdit> {
    let contracts: Vec<ContractId> = universe.contracts().map(|c| c.id).collect();
    let contract = *contracts.choose(rng)?;
    let filter = next_filter_id(universe);
    let port = rng.gen_range(20_000u16..60_000);
    let universe = add_filter_to_contract(universe, contract, filter, port)?;
    Some(PolicyEdit {
        universe,
        contract,
        filter,
        added: true,
    })
}

/// Removes a uniformly chosen filter from a uniformly chosen contract that
/// can afford to lose one (at least two filters).
///
/// Returns `None` when no contract qualifies.
pub fn remove_random_filter<R: Rng>(universe: &PolicyUniverse, rng: &mut R) -> Option<PolicyEdit> {
    let candidates: Vec<ContractId> = universe
        .contracts()
        .filter(|c| c.filters.len() >= 2)
        .map(|c| c.id)
        .collect();
    let contract = *candidates.choose(rng)?;
    let filters = &universe.contract(contract)?.filters;
    let filter = *filters.choose(rng)?;
    let universe = remove_filter_from_contract(universe, contract, filter)?;
    Some(PolicyEdit {
        universe,
        contract,
        filter,
        added: false,
    })
}

/// Applies one random edit — an addition (2/3 of the time) or a removal — to
/// the universe. Falls back to an addition when no filter can be removed, so
/// the edit only fails on a contract-less universe.
pub fn random_policy_edit<R: Rng>(universe: &PolicyUniverse, rng: &mut R) -> Option<PolicyEdit> {
    if rng.gen_bool(1.0 / 3.0) {
        if let Some(edit) = remove_random_filter(universe, rng) {
            return Some(edit);
        }
    }
    add_random_filter(universe, rng)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::sample;

    #[test]
    fn add_filter_grows_the_contract() {
        let u = sample::three_tier();
        let new_id = next_filter_id(&u);
        let updated = add_filter_to_contract(&u, sample::C_APP_DB, new_id, 8443).unwrap();
        assert_eq!(updated.filters().count(), 3);
        assert!(updated
            .contract(sample::C_APP_DB)
            .unwrap()
            .filters
            .contains(&new_id));
        // The other contract is untouched.
        assert_eq!(
            updated.contract(sample::C_WEB_APP).unwrap().filters.len(),
            1
        );
    }

    #[test]
    fn add_filter_rejects_unknown_contract_and_reused_id() {
        let u = sample::three_tier();
        assert!(add_filter_to_contract(&u, ContractId::new(99), FilterId::new(50), 80).is_none());
        assert!(add_filter_to_contract(&u, sample::C_APP_DB, sample::F_HTTP, 80).is_none());
    }

    #[test]
    fn remove_filter_shrinks_the_contract() {
        let u = sample::three_tier();
        let updated = remove_filter_from_contract(&u, sample::C_APP_DB, sample::F_700).unwrap();
        assert_eq!(
            updated.contract(sample::C_APP_DB).unwrap().filters,
            vec![sample::F_HTTP]
        );
        // The filter object still exists.
        assert!(updated.filter(sample::F_700).is_some());
    }

    #[test]
    fn remove_filter_refuses_to_empty_a_contract() {
        let u = sample::three_tier();
        assert!(remove_filter_from_contract(&u, sample::C_WEB_APP, sample::F_HTTP).is_none());
        assert!(remove_filter_from_contract(&u, sample::C_APP_DB, FilterId::new(77)).is_none());
    }

    #[test]
    fn next_filter_id_is_unused() {
        let u = sample::three_tier();
        let id = next_filter_id(&u);
        assert!(u.filter(id).is_none());
    }

    #[test]
    fn random_edits_are_seeded_and_well_formed() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let u = sample::three_tier();
        for seed in 0..20u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let edit = random_policy_edit(&u, &mut rng).unwrap();
            // Deterministic per seed.
            let mut rng2 = StdRng::seed_from_u64(seed);
            assert_eq!(random_policy_edit(&u, &mut rng2), Some(edit.clone()));
            let contract = edit.universe.contract(edit.contract).unwrap();
            if edit.added {
                assert!(contract.filters.contains(&edit.filter), "seed {seed}");
                assert!(u.filter(edit.filter).is_none(), "seed {seed}");
            } else {
                assert!(!contract.filters.contains(&edit.filter), "seed {seed}");
                assert!(!contract.filters.is_empty(), "seed {seed}");
            }
        }
    }

    #[test]
    fn remove_random_filter_needs_a_removable_contract() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(1);
        let u = sample::three_tier();
        // Only C_APP_DB has two filters, so any removal must target it.
        let edit = remove_random_filter(&u, &mut rng).unwrap();
        assert_eq!(edit.contract, sample::C_APP_DB);
        assert!(!edit.added);
        // After the removal no contract has two filters left.
        assert!(remove_random_filter(&edit.universe, &mut rng).is_none());
        // Additions still work (and thus so does random_policy_edit).
        assert!(random_policy_edit(&edit.universe, &mut rng).is_some());
    }

    #[test]
    fn repeated_additions_keep_building() {
        let mut u = sample::three_tier();
        for i in 0..5 {
            let id = next_filter_id(&u);
            u = add_filter_to_contract(&u, sample::C_APP_DB, id, 9000 + i).unwrap();
        }
        assert_eq!(u.contract(sample::C_APP_DB).unwrap().filters.len(), 2 + 5);
        assert_eq!(u.filters().count(), 2 + 5);
    }
}
