//! The policy compiler: network policy → per-switch logical (L-type) rules.
//!
//! The compiler performs the controller-side translation described in §II-A of
//! the paper: for every contract binding it expands the contract's filters into
//! directional allow rules between the consumer and provider EPGs, and assigns
//! each rule to every switch that hosts at least one endpoint of either EPG
//! (e.g. switch S2 in Figure 1 receives the rules of both the Web–App and
//! App–DB pairs).
//!
//! # Order guarantee
//!
//! [`compile`] emits rules grouped by ascending switch; inside a switch by
//! binding (in [`PolicyUniverse::bindings`] order, i.e. sorted), then filter
//! (in the contract's list order), then entry, then direction
//! (consumer → provider first). Snapshot bytes, TCAM install order and every
//! committed figure depend on it.
//!
//! A switch's bindings come from the universe's indexes
//! ([`PolicyUniverse::bindings_on_switch`]: switch → pairs → binding indices),
//! not from a scan of every binding, so a compile costs the rules it emits
//! rather than switches × bindings. The index walk preserves the order
//! because each binding belongs to exactly one pair — the gathered indices are
//! distinct — and they are sorted ascending before use, which is precisely the
//! order a filtering scan over the sorted binding list visits them in. (The
//! scan itself survives only as the reference in `tests/compile.rs`.)
//!
//! Because of the grouping, two compiled vectors can be compared one switch
//! run at a time: [`diff_rules`] is the single rule diff behind both
//! [`FabricView::apply`](crate::FabricView::apply) and
//! [`Fabric::update_policy`](crate::Fabric::update_policy).

use std::collections::BTreeSet;

use scout_policy::{
    Action, LogicalRule, PolicyUniverse, RuleMatch, RuleProvenance, SwitchId, TcamRule,
};

/// Compiles the whole universe into logical rules for every switch, in the
/// order the [module docs](self) guarantee.
pub fn compile(universe: &PolicyUniverse) -> Vec<LogicalRule> {
    let mut rules = Vec::new();
    for switch in universe.switches() {
        compile_switch_into(universe, switch.id, &mut rules);
    }
    rules
}

/// Compiles the logical rules that must be present on one switch.
pub fn compile_for_switch(universe: &PolicyUniverse, switch: SwitchId) -> Vec<LogicalRule> {
    let mut rules = Vec::new();
    compile_switch_into(universe, switch, &mut rules);
    rules
}

fn compile_switch_into(universe: &PolicyUniverse, switch: SwitchId, rules: &mut Vec<LogicalRule>) {
    for binding in universe.bindings_on_switch(switch) {
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
                    // Whitelisting model: deny entries add nothing beyond the
                    // implicit default deny and are skipped by the compiler.
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

/// Number of TCAM entries the full policy requires on `switch`.
pub fn rule_count_for_switch(universe: &PolicyUniverse, switch: SwitchId) -> usize {
    compile_for_switch(universe, switch).len()
}

/// What changed between two compiled rule vectors (see [`diff_rules`]).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RuleDiff {
    /// Switches whose expected rule *set* differs, including switches present
    /// on one side only.
    pub dirty: BTreeSet<SwitchId>,
    /// Rules of `old` that `new` no longer holds, in [`LogicalRule`] order.
    pub removed: Vec<LogicalRule>,
    /// Rules of `new` that `old` did not hold, in [`LogicalRule`] order.
    pub added: Vec<LogicalRule>,
}

/// Splits the leading run of `switch`'s rules off `rules`.
fn take_run<'a>(rules: &mut &'a [LogicalRule], switch: SwitchId) -> &'a [LogicalRule] {
    let len = rules.iter().take_while(|r| r.switch == switch).count();
    let (run, rest) = rules.split_at(len);
    *rules = rest;
    run
}

/// Diffs two compiled rule vectors switch by switch.
///
/// Both inputs must be grouped by ascending switch, as [`compile`] emits them
/// (an empty vector — nothing deployed yet — qualifies). The two vectors are
/// walked one switch run at a time: equal slices mean the switch is clean
/// without building anything; unequal slices are compared as *sets*, so a
/// switch whose rules were merely reordered (a contract's filter list
/// permuted) stays clean. The result equals the symmetric difference of the
/// two vectors collected into whole-network `BTreeSet`s — `switch` is
/// [`LogicalRule`]'s leading sort key, so per-switch differences concatenated
/// in switch order are already in global order — at a cost proportional to
/// the vectors plus the changed switches' rules.
pub fn diff_rules(mut old: &[LogicalRule], mut new: &[LogicalRule]) -> RuleDiff {
    debug_assert!(old.windows(2).all(|w| w[0].switch <= w[1].switch));
    debug_assert!(new.windows(2).all(|w| w[0].switch <= w[1].switch));
    let mut diff = RuleDiff::default();
    loop {
        let switch = match (old.first(), new.first()) {
            (Some(o), Some(n)) => o.switch.min(n.switch),
            (Some(r), None) | (None, Some(r)) => r.switch,
            (None, None) => return diff,
        };
        let old_run = take_run(&mut old, switch);
        let new_run = take_run(&mut new, switch);
        if old_run == new_run {
            continue;
        }
        let old_set: BTreeSet<LogicalRule> = old_run.iter().copied().collect();
        let new_set: BTreeSet<LogicalRule> = new_run.iter().copied().collect();
        if old_set != new_set {
            diff.dirty.insert(switch);
            diff.removed.extend(old_set.difference(&new_set));
            diff.added.extend(new_set.difference(&old_set));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::{sample, EpgPair, ObjectId, PortRange, Protocol};

    #[test]
    fn three_tier_s2_gets_six_rules_like_figure_2() {
        // Figure 2: S2 holds six allow rules (Web<->App on 80, App<->DB on 80
        // and 700) plus the implicit deny-all.
        let u = sample::three_tier();
        let rules = compile_for_switch(&u, sample::S2);
        assert_eq!(rules.len(), 6);
        let ports: BTreeSet<u16> = rules.iter().map(|r| r.rule.matcher.ports.start).collect();
        assert_eq!(ports, BTreeSet::from([80, 700]));
        // Every rule is scoped to VRF 101 and is an allow.
        assert!(rules.iter().all(|r| r.rule.matcher.vrf == sample::VRF));
        assert!(rules.iter().all(|r| r.rule.action == Action::Allow));
    }

    #[test]
    fn s1_and_s3_get_only_their_pair() {
        let u = sample::three_tier();
        let s1 = compile_for_switch(&u, sample::S1);
        assert_eq!(s1.len(), 2); // Web<->App on port 80
        assert!(s1
            .iter()
            .all(|r| r.pair() == EpgPair::new(sample::WEB, sample::APP)));
        let s3 = compile_for_switch(&u, sample::S3);
        assert_eq!(s3.len(), 4); // App<->DB on ports 80 and 700
        assert!(s3
            .iter()
            .all(|r| r.pair() == EpgPair::new(sample::APP, sample::DB)));
    }

    #[test]
    fn full_compile_is_union_of_per_switch() {
        let u = sample::three_tier();
        let all = compile(&u);
        assert_eq!(all.len(), 2 + 6 + 4);
        assert_eq!(rule_count_for_switch(&u, sample::S2), 6);
    }

    #[test]
    fn directional_rules_cover_both_directions() {
        let u = sample::three_tier();
        let rules = compile_for_switch(&u, sample::S1);
        let dirs: BTreeSet<(u32, u32)> = rules
            .iter()
            .map(|r| (r.rule.matcher.src_epg.raw(), r.rule.matcher.dst_epg.raw()))
            .collect();
        assert_eq!(dirs.len(), 2);
        assert!(dirs.contains(&(sample::WEB.raw(), sample::APP.raw())));
        assert!(dirs.contains(&(sample::APP.raw(), sample::WEB.raw())));
    }

    #[test]
    fn provenance_references_the_deriving_objects() {
        let u = sample::three_tier();
        let rules = compile_for_switch(&u, sample::S3);
        for r in &rules {
            assert_eq!(r.provenance.vrf, sample::VRF);
            assert_eq!(r.provenance.contract, sample::C_APP_DB);
            let objs = r.objects();
            assert!(objs.contains(&ObjectId::Switch(sample::S3)));
            assert!(objs.contains(&ObjectId::Contract(sample::C_APP_DB)));
        }
        // One of the S3 rules must come from the port-700 filter.
        assert!(rules.iter().any(|r| r.provenance.filter == sample::F_700
            && r.rule.matcher.ports == PortRange::single(700)
            && r.rule.matcher.protocol == Protocol::Tcp));
    }

    #[test]
    fn compile_is_deterministic() {
        let u = sample::three_tier();
        assert_eq!(compile(&u), compile(&u));
    }

    #[test]
    fn switch_without_endpoints_gets_no_rules() {
        use scout_policy::{Contract, ContractBinding, Endpoint, Epg, Filter, Switch, Tenant};
        use scout_policy::{ContractId, EndpointId, EpgId, FilterId, SwitchId, TenantId, VrfId};
        let mut b = PolicyUniverse::builder();
        b.tenant(Tenant::new(TenantId::new(0), "t"))
            .vrf(scout_policy::Vrf::new(VrfId::new(1), "v", TenantId::new(0)))
            .epg(Epg::new(EpgId::new(1), "a", VrfId::new(1)))
            .epg(Epg::new(EpgId::new(2), "b", VrfId::new(1)))
            .switch(Switch::new(SwitchId::new(1), "s1"))
            .switch(Switch::new(SwitchId::new(2), "s2-empty"))
            .endpoint(Endpoint::new(
                EndpointId::new(1),
                "ep1",
                EpgId::new(1),
                SwitchId::new(1),
            ))
            .endpoint(Endpoint::new(
                EndpointId::new(2),
                "ep2",
                EpgId::new(2),
                SwitchId::new(1),
            ))
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
        let u = b.build().unwrap();
        assert_eq!(compile_for_switch(&u, SwitchId::new(2)).len(), 0);
        assert_eq!(compile_for_switch(&u, SwitchId::new(1)).len(), 2);
    }
}
