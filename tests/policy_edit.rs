//! A policy edit costs the edit: differential and work-bound tests for the
//! incremental stages behind every `PolicyUpdate`.
//!
//! * Along long seeded edit sequences that include switch churn and edits
//!   orphaning an object, the per-switch rule diff must return what the
//!   whole-network `BTreeSet` formulation it replaced returned: the same
//!   dirty switches, the same removed and added rules in the same order.
//! * Every edit is also deployed on a fabric and observed: a `FabricView`
//!   applying the `PolicyUpdate` must dirty exactly the switches whose rule
//!   set changed (the view-dirty oracle; `switch_delta` must name the same
//!   switches), and a session ingesting the batch must re-check exactly
//!   those plus the added switches and match a from-scratch analysis.
//! * The same oracles hold for edits the mix does not make: a filter's
//!   entries, a contract's filter list, a VRF move of a group of EPGs, a
//!   binding added or removed, a switch replaced by another in one update, a
//!   switch without endpoints, and an endpoint moved to another switch.
//! * At every step of both, the new universe's dependency queries (the
//!   dependent counts the session's risk model reads included) equal those
//!   of a copy built afresh from its objects, a copy whose indexes are
//!   patched from the previous universe's (`index_from`) equals the full
//!   build index by index, and the view and the session receive the batch
//!   over the wire, as a server tenant does. `index_from` also equals the
//!   full build from unrelated bases.
//! * `diff_universes`, which formats the `UniverseDiff` of one walk of the
//!   sorted tables, must return the change-log entries of the
//!   whole-universe `BTreeSet` formulation it replaced, in the same order;
//!   the diff itself must name the objects per-kind `BTreeSet` differences
//!   name (the diff oracle).
//! * Every model builder — the controller model, every switch model and the
//!   failure subgraph after seeded augmentations — must equal a per-edge
//!   reference that inserts one element and one edge at a time; a `large_1k`
//!   controller model holds and peaks within its heap budget, and a
//!   `large_1k` session opens without building one.
//! * Host-independent work bound, in the count style of `tests/incremental.rs`:
//!   a one-filter edit of a single-switch contract on a 200-switch fabric
//!   compiles rules for that switch alone and dirties exactly that switch;
//!   a one-filter edit of a production-cluster contract spanning at least 15
//!   switches compiles that contract's switches alone, and each dirty
//!   switch's rule diff is the union of its dirty pairs' diffs; on a
//!   1000-switch fabric a session patches the decoded universe's indexes,
//!   re-deriving the closures of the edited contract's pairs alone.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scout::core::{
    controller_risk_model, controller_risk_model_sharded, switch_risk_model, AnalysisSession,
    EngineConfig, Parallelism, RiskModel, ScoutEngine,
};
use scout::fabric::wire::{from_bytes, to_bytes};
use scout::fabric::{
    compile, compile_for_switch, diff_rules, diff_universes, switch_delta, ChangeAction,
    EventBatch, Fabric, FabricEvent, FabricProbe, FabricView,
};
use scout::policy::{
    sample, Contract, ContractBinding, Endpoint, EndpointId, Epg, EpgId, EpgPair, Filter,
    FilterEntry, FilterId, IndexWork, LogicalRule, ObjectId, PolicyUniverse, PortRange, Protocol,
    Switch, SwitchEpgPair, SwitchId, Tenant, UniverseDiff, Vrf, VrfId,
};
use scout::workload::{
    add_filter_to_contract, next_filter_id, random_policy_edit, remove_filter_from_contract,
    ClusterSpec, ScaleSpec, TestbedSpec,
};
use scout_fuzz::alloc;

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
/// so it must leave every object-keyed index.
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

/// The change-log entries `diff_universes` recorded before it became one
/// walk of the sorted tables: whole-universe `BTreeSet`s of objects and of
/// bindings, and their differences.
fn reference_diff_universes(
    old: &PolicyUniverse,
    new: &PolicyUniverse,
) -> Vec<(ObjectId, ChangeAction, String)> {
    let mut changes = Vec::new();
    let objects = |u: &PolicyUniverse| -> BTreeSet<ObjectId> {
        u.all_objects()
            .into_iter()
            .filter(|o| !o.is_switch())
            .collect()
    };
    let (old_objects, new_objects) = (objects(old), objects(new));
    for &created in new_objects.difference(&old_objects) {
        changes.push((created, ChangeAction::Create, "object created".to_string()));
    }
    for &deleted in old_objects.difference(&new_objects) {
        changes.push((deleted, ChangeAction::Delete, "object deleted".to_string()));
    }
    for filter in new.filters() {
        if let Some(old_filter) = old.filter(filter.id) {
            if old_filter.entries != filter.entries {
                let detail = "filter entries changed".to_string();
                changes.push((ObjectId::Filter(filter.id), ChangeAction::Modify, detail));
            }
        }
    }
    for contract in new.contracts() {
        if let Some(old_contract) = old.contract(contract.id) {
            if old_contract.filters != contract.filters {
                let detail = "contract filter list changed".to_string();
                changes.push((
                    ObjectId::Contract(contract.id),
                    ChangeAction::Modify,
                    detail,
                ));
            }
        }
    }
    for epg in new.epgs() {
        if let Some(old_epg) = old.epg(epg.id) {
            if old_epg.vrf != epg.vrf {
                let detail = "epg moved to a different vrf".to_string();
                changes.push((ObjectId::Epg(epg.id), ChangeAction::Modify, detail));
            }
        }
    }
    let old_bindings: BTreeSet<_> = old.bindings().iter().copied().collect();
    let new_bindings: BTreeSet<_> = new.bindings().iter().copied().collect();
    let mut touched_contracts = BTreeSet::new();
    for binding in old_bindings.symmetric_difference(&new_bindings) {
        if old.contract(binding.contract).is_some() && new.contract(binding.contract).is_some() {
            touched_contracts.insert(binding.contract);
        }
    }
    for contract in touched_contracts {
        let detail = "contract bindings changed".to_string();
        changes.push((ObjectId::Contract(contract), ChangeAction::Modify, detail));
    }
    changes
}

/// One kind's objects of two universes as `BTreeSet` differences: the ids
/// only `new` holds, those only `old` holds, and those both hold whose
/// `entry` field differs.
fn kind_changes<T, F: PartialEq>(
    old: impl Iterator<Item = T>,
    new: impl Iterator<Item = T>,
    entry: impl Fn(T) -> (ObjectId, F),
) -> [BTreeSet<ObjectId>; 3] {
    let old: BTreeMap<ObjectId, F> = old.map(&entry).collect();
    let new: BTreeMap<ObjectId, F> = new.map(&entry).collect();
    let ids = |objects: &BTreeMap<ObjectId, F>| objects.keys().copied().collect::<BTreeSet<_>>();
    let (was, is) = (ids(&old), ids(&new));
    let modified = was.intersection(&is).filter(|id| old[id] != new[id]);
    [
        is.difference(&was).copied().collect(),
        was.difference(&is).copied().collect(),
        modified.copied().collect(),
    ]
}

/// What a `UniverseDiff` of `old` and `new` must hold, from per-kind
/// `BTreeSet` differences of their objects: the objects created, deleted
/// (switches included) and modified (a filter's entries, a contract's filter
/// list, an EPG's VRF), and the contracts of the bindings one side lacks.
fn reference_universe_diff(old: &PolicyUniverse, new: &PolicyUniverse) -> [BTreeSet<ObjectId>; 4] {
    let kinds = [
        kind_changes(old.vrfs(), new.vrfs(), |v| (ObjectId::Vrf(v.id), ())),
        kind_changes(old.epgs(), new.epgs(), |e| (ObjectId::Epg(e.id), e.vrf)),
        kind_changes(old.contracts(), new.contracts(), |c| {
            (ObjectId::Contract(c.id), c.filters.to_vec())
        }),
        kind_changes(old.filters(), new.filters(), |f| {
            (ObjectId::Filter(f.id), f.entries.clone())
        }),
        kind_changes(old.switches(), new.switches(), |s| {
            (ObjectId::Switch(s.id), ())
        }),
    ];
    let mut sets: [BTreeSet<ObjectId>; 4] = Default::default();
    for [created, deleted, modified] in kinds {
        sets[0].extend(created);
        sets[1].extend(deleted);
        sets[2].extend(modified);
    }
    let bindings = |u: &PolicyUniverse| u.bindings().iter().copied().collect::<BTreeSet<_>>();
    let (was, is) = (bindings(old), bindings(new));
    let rebound = was.symmetric_difference(&is);
    sets[3] = rebound.map(|b| ObjectId::Contract(b.contract)).collect();
    sets
}

/// A `UniverseDiff`'s lists as the sets `reference_universe_diff` builds.
fn universe_diff_sets(diff: &UniverseDiff) -> [BTreeSet<ObjectId>; 4] {
    let objects = |objects: &[ObjectId], switches: &[SwitchId]| {
        let switches = switches.iter().map(|&s| ObjectId::Switch(s));
        objects.iter().copied().chain(switches).collect()
    };
    let modified = (diff.filters().iter().chain(diff.contracts())).chain(diff.epgs());
    [
        objects(diff.created(), diff.added()),
        objects(diff.deleted(), diff.removed()),
        modified.copied().collect(),
        diff.rebound().iter().copied().collect(),
    ]
}

/// Every dependency query of `u` equals the same query on `reference`: per
/// switch (and one unknown switch), per EPG, per bound pair and per object.
fn assert_same_queries(label: &str, u: &PolicyUniverse, reference: &PolicyUniverse) {
    assert_eq!(u.stats(), reference.stats(), "{label}: stats");
    assert_eq!(u.epg_pairs(), reference.epg_pairs(), "{label}: epg_pairs");
    for pair in u.epg_pairs() {
        assert_eq!(
            u.objects_for_bound_pair(pair),
            reference.objects_for_bound_pair(pair),
            "{label}: objects_for_bound_pair({pair:?})"
        );
    }
    assert!(
        u.pairs_per_object() == reference.pairs_per_object(),
        "{label}: pairs_per_object"
    );
    let unknown = SwitchId::new(u32::MAX);
    for s in u.switch_ids().into_iter().chain([unknown]) {
        assert_eq!(
            u.pairs_on_switch(s),
            reference.pairs_on_switch(s),
            "{label}: pairs_on_switch({s})"
        );
        assert_eq!(
            u.epgs_on_switch(s),
            reference.epgs_on_switch(s),
            "{label}: epgs_on_switch({s})"
        );
        assert!(
            u.bindings_on_switch(s).eq(reference.bindings_on_switch(s)),
            "{label}: bindings_on_switch({s})"
        );
    }
    for epg in u.epgs() {
        assert_eq!(
            u.switches_hosting_epg(epg.id),
            reference.switches_hosting_epg(epg.id),
            "{label}: switches_hosting_epg({})",
            epg.id
        );
    }
    for object in u.all_objects() {
        assert_eq!(
            u.pairs_for_object(object),
            reference.pairs_for_object(object),
            "{label}: pairs_for_object({object})"
        );
        assert_eq!(
            u.object_switches(&object),
            reference.object_switches(&object),
            "{label}: object_switches({object})"
        );
        assert_eq!(
            u.dependent_count(object),
            reference.dependent_count(object),
            "{label}: dependent_count({object})"
        );
    }
}

/// Every dependency query of `new`, the universe an edit of `old` produced,
/// equals the same query on a copy built afresh from its objects; and a copy
/// whose indexes are patched from `old`'s equals that full build, index by
/// index.
fn assert_indexes_match_a_fresh_build(label: &str, old: &PolicyUniverse, new: &PolicyUniverse) {
    let fresh = remodel(new, |_| {});
    assert_same_queries(label, new, &fresh);
    let patched = remodel(new, |_| {});
    patched.index_from(old);
    assert!(
        matches!(patched.index_work(), Some(IndexWork::Patched { .. })),
        "{label}: index_from patches"
    );
    assert_eq!(
        patched.index_difference(&fresh),
        None,
        "{label}: index_from(previous) != the full build"
    );
    assert_eq!(fresh.index_work(), Some(IndexWork::Full), "{label}");
    assert_same_queries(label, &patched, &fresh);
}

/// `index_from` equals the full build whatever the base: the universe
/// itself, an unrelated universe, an empty one, and the other way round.
#[test]
fn index_from_an_unrelated_base_equals_the_full_build() {
    let empty = PolicyUniverse::builder()
        .build()
        .expect("an empty universe");
    let universes = [
        ("three_tier", sample::three_tier()),
        ("testbed", TestbedSpec::paper().generate(3)),
        ("large_fabric_50", ScaleSpec::large_fabric(50).generate(5)),
        ("cluster", ClusterSpec::small().generate(9)),
        ("empty", empty),
    ];
    for (name, universe) in &universes {
        for (base_name, base) in &universes {
            let label = format!("{name} from {base_name}");
            let patched = remodel(universe, |_| {});
            patched.index_from(base);
            assert_eq!(patched.index_difference(universe), None, "{label}");
            assert_same_queries(&label, &patched, universe);
            // Built indexes stay as they are.
            patched.index_from(&sample::three_tier());
            assert!(
                matches!(patched.index_work(), Some(IndexWork::Patched { .. })),
                "{label}"
            );
        }
    }
}

/// The mirrors every edit is also applied to: a deployed fabric stepped
/// with `update_policy`, a `FabricView` fed each observed `PolicyUpdate`
/// alone, and a session fed every observed batch.
struct Mirrors {
    engine: ScoutEngine,
    fabric: Fabric,
    probe: FabricProbe,
    view: FabricView,
    session: AnalysisSession,
}

impl Mirrors {
    fn of(universe: &PolicyUniverse) -> Self {
        let mut fabric = Fabric::new(universe.clone());
        fabric.deploy();
        let engine = ScoutEngine::new();
        Self {
            probe: FabricProbe::new(&fabric),
            view: FabricView::of(&fabric),
            session: engine.open_session(&fabric),
            engine,
            fabric,
        }
    }
}

/// Checks `new`'s indexes, patched from `old`'s, and steps `rules` from
/// `old` to `new` incrementally against its from-scratch definition; then
/// deploys `new` on the mirrors' fabric and checks the view's dirty set and
/// the session's re-checked switches against the rule-set oracle: the view
/// dirties the switches of `new` whose rule set changed, and the session
/// re-checks those plus every switch `new` added.
fn assert_step(
    label: &str,
    rules: &mut Vec<LogicalRule>,
    mirrors: &mut Mirrors,
    old: &PolicyUniverse,
    new: &PolicyUniverse,
) {
    assert_indexes_match_a_fresh_build(label, old, new);

    let new_rules = compile(new);
    let diff = diff_rules(rules, &new_rules);
    let (dirty, removed, added) = set_diff(rules, &new_rules);
    assert_eq!(diff.dirty, dirty, "{label}: dirty switches");
    assert!(diff.removed == removed, "{label}: removed rules");
    assert!(diff.added == added, "{label}: added rules");
    *rules = new_rules;

    assert_eq!(
        diff_universes(old, new),
        reference_diff_universes(old, new),
        "{label}: change-log entries"
    );
    assert_eq!(
        universe_diff_sets(&UniverseDiff::between(old, new)),
        reference_universe_diff(old, new),
        "{label}: universe diff"
    );

    let old_switches: BTreeSet<SwitchId> = old.switch_ids().into_iter().collect();
    let new_switches: BTreeSet<SwitchId> = new.switch_ids().into_iter().collect();
    let view_dirty: BTreeSet<SwitchId> = dirty.intersection(&new_switches).copied().collect();
    let mut rechecked = view_dirty.clone();
    rechecked.extend(new_switches.difference(&old_switches));

    let delta = switch_delta(old, new);
    assert_eq!(delta.dirty, view_dirty, "{label}: switch delta");
    let added: Vec<SwitchId> = new_switches.difference(&old_switches).copied().collect();
    let removed: Vec<SwitchId> = old_switches.difference(&new_switches).copied().collect();
    assert_eq!((delta.added, delta.removed), (added, removed), "{label}");

    mirrors.fabric.update_policy(new.clone());
    // The view and the session each receive the batch over the wire, as a
    // server tenant does: each decodes a universe of its own.
    let observed = to_bytes(&mirrors.probe.observe(&mirrors.fabric));
    let decode = || from_bytes::<Vec<FabricEvent>>(&observed).expect("the batch decodes");
    let events = decode();
    let update = events
        .iter()
        .find(|e| matches!(e, FabricEvent::PolicyUpdate { .. }))
        .expect("every step installs a universe");
    let applied = mirrors.view.apply(update).expect("the update applies");
    assert_eq!(applied, view_dirty, "{label}: view dirty set");
    for event in events.iter().filter(|e| !std::ptr::eq(*e, update)) {
        mirrors.view.apply(event).expect("the batch applies");
    }
    assert!(mirrors.view.matches(&mirrors.fabric), "{label}: view");
    let epoch = mirrors.session.next_epoch();
    let delta = mirrors
        .session
        .ingest(EventBatch::new(epoch, decode()))
        .expect("a faithful batch");
    assert_eq!(delta.rechecked, rechecked, "{label}: session re-checked");
    assert!(
        *mirrors.session.full_report() == mirrors.engine.analyze(&mirrors.fabric),
        "{label}: session report != from-scratch analysis"
    );
}

/// Runs `rounds` rounds of the seven-step edit mix over `base`.
fn run_edit_mix(name: &str, base: PolicyUniverse, rounds: usize, seed: u64) -> usize {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut mirrors = Mirrors::of(&base);
    let mut current = base;
    let mut rules = compile(&current);
    let mut steps = 0;
    let mut step = |label: &str, current: &mut PolicyUniverse, next: PolicyUniverse| {
        assert_step(
            &format!("{name} step {steps} ({label})"),
            &mut rules,
            &mut mirrors,
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
fn indexes_and_rule_diff_match_their_oracles_along_seeded_edits() {
    let steps = run_edit_mix("three_tier", sample::three_tier(), 12, 1)
        + run_edit_mix("testbed", TestbedSpec::paper().generate(3), 10, 2)
        + run_edit_mix("scale", ScaleSpec::large_fabric(48).generate(5), 8, 3)
        + run_edit_mix("cluster", ClusterSpec::small().generate(9), 4, 4);
    assert!(steps >= 200, "only {steps} edits exercised");
}

/// A universe's objects as builder input, for edits the workload
/// generators do not make.
struct Objects {
    tenants: Vec<Tenant>,
    vrfs: Vec<Vrf>,
    epgs: Vec<Epg>,
    endpoints: Vec<Endpoint>,
    switches: Vec<Switch>,
    contracts: Vec<Contract>,
    filters: Vec<Filter>,
    bindings: Vec<ContractBinding>,
}

/// Rebuilds `universe` after `edit` changed its objects.
fn remodel(universe: &PolicyUniverse, edit: impl FnOnce(&mut Objects)) -> PolicyUniverse {
    let mut o = Objects {
        tenants: universe.tenants().cloned().collect(),
        vrfs: universe.vrfs().cloned().collect(),
        epgs: universe.epgs().cloned().collect(),
        endpoints: universe.endpoints().cloned().collect(),
        switches: universe.switches().cloned().collect(),
        contracts: universe.contracts().cloned().collect(),
        filters: universe.filters().cloned().collect(),
        bindings: universe.bindings().to_vec(),
    };
    edit(&mut o);
    let mut b = PolicyUniverse::builder();
    b.extend(o.tenants);
    b.extend(o.vrfs);
    b.extend(o.epgs);
    b.extend(o.endpoints);
    b.extend(o.switches);
    b.extend(o.contracts);
    b.extend(o.filters);
    b.extend(o.bindings);
    b.build().expect("the edit keeps the universe well-formed")
}

/// One seeded edit of a universe.
type Edit = fn(&PolicyUniverse, &mut StdRng) -> PolicyUniverse;

/// The edits behind every other way a switch's rules can change: a
/// filter's entries, a contract's filter list, the VRF of a group of EPGs, a
/// binding, a switch replaced by another, a switch without endpoints, and
/// the switch an endpoint sits on.
const OBJECT_CHANGES: [(&str, Edit); 7] = [
    ("filter entries", |u, rng| {
        remodel(u, |o| {
            let n = o.filters.len();
            let port = rng.gen_range(1..60_000);
            o.filters[rng.gen_range(0..n)].entries =
                vec![FilterEntry::allow(Protocol::Udp, PortRange::single(port))];
        })
    }),
    ("contract filter list", |u, rng| {
        remodel(u, |o| {
            // A bound contract gains an existing filter with entries it does
            // not hold yet, or loses one of its filters: no filter object
            // changes, so only the contract names the switches whose rules
            // change.
            let bound = o.bindings[rng.gen_range(0..o.bindings.len())].contract;
            let filters = &o.filters;
            let contract = (o.contracts.iter_mut())
                .find(|c| c.id == bound)
                .expect("bound contracts exist");
            let entries = |id: FilterId| {
                let i = filters.binary_search_by_key(&id, |f| f.id).expect("known");
                &filters[i].entries
            };
            let held: Vec<&Vec<FilterEntry>> =
                contract.filters.iter().map(|&f| entries(f)).collect();
            let fresh: Vec<FilterId> = (filters.iter())
                .filter(|f| !held.contains(&&f.entries))
                .map(|f| f.id)
                .collect();
            let mut list: Vec<FilterId> = contract.filters.to_vec();
            if !fresh.is_empty() && (list.len() == 1 || rng.gen_bool(0.5)) {
                list.push(fresh[rng.gen_range(0..fresh.len())]);
            } else if list.len() > 1 {
                list.remove(rng.gen_range(0..list.len()));
            }
            contract.filters = list.into();
        })
    }),
    ("epgs move vrf", |u, rng| {
        remodel(u, |o| {
            // Every EPG of one VRF moves, so no binding crosses VRFs.
            let from = o.epgs[rng.gen_range(0..o.epgs.len())].vrf;
            let to = VrfId::new(o.vrfs.iter().map(|v| v.id.raw()).max().unwrap_or(0) + 1);
            o.vrfs.push(Vrf::new(to, "moved-to", o.tenants[0].id));
            for epg in o.epgs.iter_mut().filter(|e| e.vrf == from) {
                epg.vrf = to;
            }
        })
    }),
    ("binding", |u, rng| {
        remodel(u, |o| {
            if o.bindings.len() > 1 && rng.gen_bool(0.5) {
                o.bindings.remove(rng.gen_range(0..o.bindings.len()));
                return;
            }
            let consumer = o.epgs[rng.gen_range(0..o.epgs.len())].clone();
            let partners: Vec<EpgId> = (o.epgs.iter())
                .filter(|e| e.vrf == consumer.vrf && e.id != consumer.id)
                .map(|e| e.id)
                .collect();
            if partners.is_empty() {
                return;
            }
            let provider = partners[rng.gen_range(0..partners.len())];
            let contract = o.contracts[rng.gen_range(0..o.contracts.len())].id;
            o.bindings
                .push(ContractBinding::new(consumer.id, provider, contract));
        })
    }),
    ("switch swapped", |u, rng| {
        match with_removed_switch(u, rng) {
            // One switch leaves and another joins in one update: the switch
            // count stays, the switch set does not.
            Some(fewer) => with_added_switch(&fewer, rng),
            None => with_added_switch(u, rng),
        }
    }),
    ("bare switch added", |u, _| {
        // No endpoint, so no rules and no TCAM sync: only the policy update
        // gives the view its table.
        remodel(u, |o| {
            let id = o.switches.iter().map(|s| s.id.raw()).max().unwrap_or(0) + 1;
            o.switches.push(Switch::new(SwitchId::new(id), "bare"));
        })
    }),
    ("endpoint moves", |u, rng| {
        remodel(u, |o| {
            let switch = o.switches[rng.gen_range(0..o.switches.len())].id;
            let n = o.endpoints.len();
            o.endpoints[rng.gen_range(0..n)].switch = switch;
        })
    }),
];

/// The candidate walk of `switch_delta` must find every switch whose rules
/// change however the objects change, not only through the filter lists
/// and switch churn of the edit mix: each edit of `OBJECT_CHANGES` steps
/// the same oracles as the edit mix — patched indexes, rule diff, view
/// dirty set, session re-check and change log.
#[test]
fn every_kind_of_object_change_matches_the_rule_diff() {
    let bases = [
        ("three_tier", sample::three_tier(), 8),
        ("testbed", TestbedSpec::paper().generate(3), 6),
        ("scale", ScaleSpec::large_fabric(48).generate(5), 4),
        ("cluster", ClusterSpec::small().generate(9), 3),
    ];
    let mut steps = 0;
    for (seed, (name, base, rounds)) in (0u64..).zip(bases) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut mirrors = Mirrors::of(&base);
        let mut rules = compile(&base);
        let mut current = base;
        for round in 0..rounds {
            for (label, edit) in OBJECT_CHANGES {
                let next = edit(&current, &mut rng);
                let label = format!("{name} round {round} ({label})");
                assert_step(&label, &mut rules, &mut mirrors, &current, &next);
                current = next;
                steps += 1;
            }
        }
    }
    assert!(steps >= 120, "only {steps} edits exercised");
}

/// The work bound. On `ScaleSpec::large_fabric(200)` every contract lives on
/// one switch; adding one filter to one of them must compile and dirty that
/// switch alone — counts that are a function of the inputs, not of the
/// host.
#[test]
fn one_filter_edit_costs_its_contract_not_the_fabric() {
    let base = ScaleSpec::large_fabric(200).generate(11);
    let contract = base.contracts().nth(1234).expect("3200 contracts").id;
    let object = ObjectId::Contract(contract);
    let home = base.switches_for_object(object);
    assert_eq!(home.len(), 1, "scale contracts are single-switch");
    let edited = add_filter_to_contract(&base, contract, next_filter_id(&base), 31_337)
        .expect("edit applies");

    // Candidate walk: the contract's switch is the only one compiled.
    let delta = switch_delta(&base, &edited);
    assert_eq!(
        delta.compiled, 1,
        "one switch compiled, under both universes"
    );
    assert_eq!(delta.dirty, home);

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
    // matches a from-scratch analysis.
    let delta = session
        .ingest(EventBatch::new(session.next_epoch(), events))
        .expect("faithful batch");
    assert_eq!(delta.rechecked, home);
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
    assert!(session.is_consistent());
}

/// The `switch_delta` work count at production-cluster scale. A one-filter
/// edit of a `ClusterSpec::paper()` contract spanning at least 15 switches
/// compiles exactly the contract's switches in either universe and dirties
/// exactly the switches whose rule set changed. On each dirty switch the
/// whole-switch rule-set difference is the union of its pairs' differences,
/// taken over the contract's pairs alone: the rules of every other pair are
/// unchanged, and no rule of one pair equals a rule of another (a rule's
/// match names both EPGs of its pair). A per-pair comparison of the dirty
/// pairs would give the whole-switch answer.
#[test]
fn a_paper_cluster_filter_edit_compiles_its_contracts_switches() {
    let base = ClusterSpec::paper().generate(1);
    let spanning = |u: &PolicyUniverse, c| u.switches_for_object(ObjectId::Contract(c));
    let contract = (base.contracts().map(|c| c.id))
        .find(|&c| spanning(&base, c).len() >= 15)
        .expect("a contract spans at least 15 switches");
    let edited = add_filter_to_contract(&base, contract, next_filter_id(&base), 31_337)
        .expect("edit applies");
    let mut spanned = spanning(&base, contract);
    spanned.extend(spanning(&edited, contract));

    let delta = switch_delta(&base, &edited);
    assert_eq!(delta.compiled, spanned.len(), "the contract's switches");
    let (dirty, _, _) = set_diff(&compile(&base), &compile(&edited));
    assert!(dirty.len() >= 15, "{} dirty switches", dirty.len());
    assert_eq!(delta.dirty, dirty);

    let mut pairs: BTreeSet<EpgPair> = BTreeSet::new();
    for u in [&base, &edited] {
        pairs.extend(
            u.pairs_for_object(ObjectId::Contract(contract))
                .unwrap_or(&[]),
        );
    }
    for &switch in &dirty {
        let rules = |u: &PolicyUniverse| -> BTreeSet<LogicalRule> {
            compile_for_switch(u, switch).into_iter().collect()
        };
        let (was, is) = (rules(&base), rules(&edited));
        let (mut removed, mut added) = (BTreeSet::new(), BTreeSet::new());
        for &pair in &pairs {
            let of = |rules: &BTreeSet<LogicalRule>| -> BTreeSet<LogicalRule> {
                rules.iter().filter(|r| r.pair() == pair).copied().collect()
            };
            let (was, is) = (of(&was), of(&is));
            removed.extend(was.difference(&is).copied());
            added.extend(is.difference(&was).copied());
        }
        let whole: (BTreeSet<_>, BTreeSet<_>) = (
            was.difference(&is).copied().collect(),
            is.difference(&was).copied().collect(),
        );
        assert_eq!(
            (removed, added),
            whole,
            "{switch}: per-pair != whole-switch"
        );
    }
}

/// The index work bound. On `ScaleSpec::large_fabric(1000)`, a session that
/// receives a one-filter edit over the wire, as a server tenant does, builds
/// no index from scratch: the decoded universe's indexes are patched from
/// the ones the session holds, re-deriving the closures of the edited
/// contract's pairs alone and the runs of the objects those pairs name.
#[test]
fn a_one_filter_edit_patches_only_its_contracts_pairs() {
    let base = ScaleSpec::large_fabric(1000).generate(1);
    let contract = base.contracts().nth(5000).expect("16 000 contracts").id;
    let pairs = base
        .pairs_for_object(ObjectId::Contract(contract))
        .expect("bound contract")
        .to_vec();
    let edited = add_filter_to_contract(&base, contract, next_filter_id(&base), 31_337)
        .expect("edit applies");
    let mut named = BTreeSet::new();
    for &pair in &pairs {
        named.extend(base.objects_for_pair(pair));
        named.extend(edited.objects_for_pair(pair));
        named.extend(
            base.switches_for_pair(pair)
                .into_iter()
                .map(ObjectId::Switch),
        );
    }

    let mut fabric = Fabric::new(base);
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    assert_eq!(
        session.view().universe().index_work(),
        Some(IndexWork::Full)
    );
    fabric.update_policy(edited);
    let batch = EventBatch::new(session.next_epoch(), probe.observe(&fabric));
    let batch: EventBatch = from_bytes(&to_bytes(&batch)).expect("the batch decodes");
    session.ingest(batch).expect("faithful batch");
    assert_eq!(
        session.view().universe().index_work(),
        Some(IndexWork::Patched {
            closures: pairs.len(),
            objects: named.len(),
            endpoint_views: false,
        })
    );
    assert_eq!(
        session
            .view()
            .universe()
            .index_difference(fabric.universe()),
        None
    );
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
}

// ---------------------------------------------------------------------------
// Model builds: every library builder equals a per-edge reference build.
// ---------------------------------------------------------------------------

/// The controller model built one insert at a time: `add_element`, then one
/// `add_edge` per closure object and the switch, in `(switch, pair)` order.
fn reference_controller_model(universe: &PolicyUniverse) -> RiskModel<SwitchEpgPair> {
    let mut model = RiskModel::new();
    for switch in universe.switch_ids() {
        for &pair in universe.pairs_on_switch(switch) {
            let element = SwitchEpgPair::new(switch, pair);
            model.add_element(element);
            for &risk in universe.objects_for_bound_pair(pair).into_iter().flatten() {
                model.add_edge(element, risk);
            }
            model.add_edge(element, ObjectId::Switch(switch));
        }
    }
    model
}

/// The switch model of `switch` built one insert at a time.
fn reference_switch_model(universe: &PolicyUniverse, switch: SwitchId) -> RiskModel<EpgPair> {
    let mut model = RiskModel::new();
    for &pair in universe.pairs_on_switch(switch) {
        model.add_element(pair);
        for &risk in universe.objects_for_bound_pair(pair).into_iter().flatten() {
            model.add_edge(pair, risk);
        }
    }
    model
}

/// The failure subgraph as a mark/insert loop over the observations: the
/// risks with a failed edge whose dependents are all observations, and the
/// observations' edges to them, statuses kept.
fn reference_failure_subgraph<E: Ord + Copy>(model: &RiskModel<E>) -> RiskModel<E> {
    let observations = model.failure_signature();
    let mut kept: BTreeMap<ObjectId, usize> = BTreeMap::new();
    for risk in observations.iter().flat_map(|o| model.risks_of(o)) {
        *kept.entry(risk).or_default() += 1;
    }
    kept.retain(|&risk, n| {
        model.failed_dependent_count(risk) > 0 && *n == model.dependent_count(risk)
    });
    let mut sub = RiskModel::new();
    for element in &observations {
        let failed = model.failed_risks_of(element);
        for risk in model.risks_of(element) {
            if !kept.contains_key(&risk) {
                continue;
            }
            if failed.contains(&risk) {
                sub.mark_failed(*element, risk);
            } else {
                sub.add_edge(*element, risk);
            }
        }
    }
    sub
}

/// Every object of `universe`, switches included: the candidate provenance
/// of a failure mark.
fn every_object(universe: &PolicyUniverse) -> Vec<ObjectId> {
    (universe.vrfs().map(|v| ObjectId::Vrf(v.id)))
        .chain(universe.epgs().map(|e| ObjectId::Epg(e.id)))
        .chain(universe.contracts().map(|c| ObjectId::Contract(c.id)))
        .chain(universe.filters().map(|f| ObjectId::Filter(f.id)))
        .chain(universe.switches().map(|s| ObjectId::Switch(s.id)))
        .collect()
}

/// Seeded failure evidence on `model`, the three shapes the subgraph must
/// handle:
/// * random elements with a random non-empty subset of their edges failed;
/// * one mark whose provenance object lies outside the element's closure, so
///   the mark creates the edge;
/// * one healthy element failed on a risk such that every risk of it keeps a
///   healthy dependent or no failed edge — an observation the subgraph drops
///   whole. Returned, when the model has such an element.
fn augment<E: Ord + Copy>(
    model: &mut RiskModel<E>,
    objects: &[ObjectId],
    rng: &mut StdRng,
) -> Option<E> {
    let elements: Vec<E> = model.elements().copied().collect();
    if elements.is_empty() {
        return None;
    }
    for _ in 0..=rng.gen_range(0..elements.len().div_ceil(20)) {
        let element = elements[rng.gen_range(0..elements.len())];
        let risks: Vec<ObjectId> = model.risks_of(&element).into_iter().collect();
        let first = rng.gen_range(0..risks.len().max(1));
        for (i, &risk) in risks.iter().enumerate() {
            if i == first || rng.gen_bool(0.5) {
                model.mark_failed(element, risk);
            }
        }
    }

    let element = elements[rng.gen_range(0..elements.len())];
    let closure = model.risks_of(&element);
    let outside: Vec<ObjectId> = objects
        .iter()
        .copied()
        .filter(|o| !closure.contains(o))
        .collect();
    let object = outside[rng.gen_range(0..outside.len())];
    model.mark_failed(element, object);
    assert!(model.failed_risks_of(&element).contains(&object));

    let healthy_other = |model: &RiskModel<E>, element: E, risk: ObjectId| {
        (model.dependents_of(risk).iter()).any(|&d| d != element && !model.is_failed(&d))
    };
    let start = rng.gen_range(0..elements.len());
    let dropped = (elements[start..].iter().chain(&elements[..start]))
        .copied()
        .filter(|e| !model.is_failed(e))
        .find_map(|element| {
            let risks = model.risks_of(&element);
            let mark = *risks.iter().max_by_key(|&&r| model.dependent_count(r))?;
            risks
                .iter()
                .all(|&r| {
                    (r != mark && model.failed_dependent_count(r) == 0)
                        || healthy_other(model, element, r)
                })
                .then_some((element, mark))
        });
    let (element, mark) = dropped?;
    model.mark_failed(element, mark);
    Some(element)
}

/// The universes the model builds are pinned on.
fn model_universes() -> Vec<(&'static str, PolicyUniverse)> {
    vec![
        ("three_tier", sample::three_tier()),
        ("testbed", TestbedSpec::paper().generate(3)),
        ("cluster_small", ClusterSpec::small().generate(9)),
        ("cluster_paper", ClusterSpec::paper().generate(1)),
        ("large_fabric_50", ScaleSpec::large_fabric(50).generate(5)),
    ]
}

#[test]
fn every_model_build_equals_the_per_edge_reference() {
    let mut dropped_observations = 0;
    for (seed, (name, universe)) in (0u64..).zip(model_universes()) {
        let objects = every_object(&universe);
        let mut rng = StdRng::seed_from_u64(seed);

        let controller = controller_risk_model(&universe);
        assert!(
            controller == reference_controller_model(&universe),
            "{name}: controller model != per-edge reference"
        );
        for parallelism in [Parallelism::Sequential, Parallelism::Fixed(3)] {
            assert!(
                controller_risk_model_sharded(&universe, parallelism) == controller,
                "{name}: {parallelism:?} build != per-edge reference"
            );
        }
        for round in 0..3 {
            let mut model = controller.clone();
            let dropped = augment(&mut model, &objects, &mut rng);
            let sub = model.failure_subgraph();
            assert!(
                sub == reference_failure_subgraph(&model),
                "{name} round {round}: controller failure subgraph != reference"
            );
            if let Some(element) = dropped {
                assert!(model.is_failed(&element));
                assert!(!sub.elements().any(|e| *e == element));
                dropped_observations += 1;
            }
        }

        for switch in universe.switch_ids() {
            let model = switch_risk_model(&universe, switch);
            assert!(
                model == reference_switch_model(&universe, switch),
                "{name} {switch:?}: switch model != per-edge reference"
            );
            if switch.raw() % 7 == 0 {
                let mut model = model;
                let dropped = augment(&mut model, &objects, &mut rng);
                assert!(
                    model.failure_subgraph() == reference_failure_subgraph(&model),
                    "{name} {switch:?}: switch failure subgraph != reference"
                );
                dropped_observations += usize::from(dropped.is_some());
            }
        }
    }
    assert!(
        dropped_observations >= 10,
        "only {dropped_observations} observations were dropped whole"
    );
}

const MIB: usize = 1 << 20;

/// A `large_1k` controller model is bulk-built from sorted runs: it holds at
/// most 6.7 MiB (6.68 measured; the per-edge insert build held 7.94), and the
/// build's sort and grouping buffers never push its peak past the 7.94 MiB
/// the per-edge build peaked at (7.17 measured).
#[test]
fn a_large_fabric_controller_model_builds_and_holds_within_its_budget() {
    assert!(
        alloc::is_installed(),
        "the tracking allocator must be armed"
    );
    let universe = ScaleSpec::large_1k().generate(1);
    let (model, build) = alloc::measure(|| controller_risk_model(&universe));
    let (copy, held) = alloc::measure(|| model.clone());
    let (peak, held) = (build.peak, held.peak);
    assert!(copy == model);
    assert_eq!(
        (model.element_count(), model.edge_count()),
        (12_290, 81_093)
    );
    assert!(held <= 67 * MIB / 10, "a large_1k model holds {held} B");
    assert!(
        peak <= 794 * MIB / 100,
        "a large_1k build peaked at {peak} B"
    );
}

/// Opening a `large_1k` session builds no risk model. Measured on the
/// calling thread under `Sequential`, the open (mirror copy, full check and
/// overlay) peaks at most 4 MiB: 3.37 measured, 10.41 while it built a model.
#[test]
fn a_large_fabric_session_opens_without_a_model_build() {
    assert!(
        alloc::is_installed(),
        "the tracking allocator must be armed"
    );
    let mut fabric = Fabric::new(ScaleSpec::large_1k().generate(1));
    fabric.deploy();
    let config = EngineConfig {
        parallelism: Parallelism::Sequential,
        ..EngineConfig::default()
    };
    let engine = ScoutEngine::from_config(config).expect("a valid configuration");
    let (session, open) = alloc::measure(|| engine.open_session(&fabric));
    assert!(session.is_consistent());
    assert!(open.peak <= 4 * MIB, "a large_1k session open: {open:?}");
}

/// A clone analysis builds no risk model either: it settles the clone's
/// check on a fresh failure overlay. Measured on the calling thread under
/// `Sequential`, the first `analyze_clone` of a `large_1k` clone with 10
/// damaged switches (re-check, overlay, localization and correlation)
/// peaks at most 1 MiB; it peaked at 7.58 MB while it built a model.
#[test]
fn a_large_fabric_clone_analysis_builds_no_model() {
    assert!(
        alloc::is_installed(),
        "the tracking allocator must be armed"
    );
    let mut fabric = Fabric::new(ScaleSpec::large_1k().generate(1));
    fabric.deploy();
    let config = EngineConfig {
        parallelism: Parallelism::Sequential,
        ..EngineConfig::default()
    };
    let engine = ScoutEngine::from_config(config).expect("a valid configuration");
    let session = engine.open_session(&fabric);
    let mut clone = fabric.clone();
    for &switch in fabric.universe().switch_ids().iter().step_by(97).take(10) {
        clone.remove_tcam_rules_where(switch, |r| r.matcher.ports.start % 3 == 0);
    }
    let (report, usage) = alloc::measure(|| session.analyze_clone(&clone));
    assert!(!report.is_consistent());
    assert_eq!(report, engine.analyze(&clone));
    assert!(usage.peak <= MIB, "a large_1k clone analysis: {usage:?}");
}
