//! # scout-equiv
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the
//! repo root is the crate-by-crate tour showing where this crate sits in
//! the pipeline.
//!
//! The L–T equivalence checker of the SCOUT system (ICDCS 2018).
//!
//! SCOUT detects policy-deployment failures by comparing the *desired state*
//! (logical, L-type rules compiled from the network policy) against the
//! *actual state* (T-type rules collected from switch TCAMs): each rule set
//! is folded into the traffic it allows over the packet header space (VRF,
//! source EPG, destination EPG, protocol, port) and the two allowed spaces
//! are compared. The paper does this on reduced ordered binary decision
//! diagrams; the checker compares exact port-interval lists per
//! `(VRF, source EPG, destination EPG)` class instead ([`checker`]). When
//! they differ, the checker emits the set of **missing rules** — the logical
//! rules whose traffic the deployed TCAM does not allow — which is the
//! evidence used to augment the risk models, plus any **unexpected rules**
//! that allow traffic the policy does not.
//!
//! An exact breakpoint oracle ([`breakpoint_check`]) evaluates both rule
//! lists packet by packet at every port where a verdict can change; the
//! property tests here and `tests/sliced.rs` assert that the checker returns
//! the same result.
//!
//! # Example
//!
//! ```
//! use scout_equiv::EquivalenceChecker;
//! use scout_fabric::Fabric;
//! use scout_policy::sample;
//!
//! let mut fabric = Fabric::new(sample::three_tier());
//! fabric.deploy();
//! // Silently lose the port-700 rules on S2.
//! fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
//!
//! let checker = EquivalenceChecker::new();
//! let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
//! assert!(!result.is_consistent());
//! assert_eq!(result.missing_count(), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod checker;
pub mod naive;

pub use checker::{EquivalenceChecker, NetworkCheckResult, Parallelism, SwitchCheckResult};
pub use naive::breakpoint_check;
// Re-exported only for the inert `EngineConfig::node_table`,
// `EquivalenceChecker::set_node_table` and `EquivalenceChecker::cache_stats`
// the stand-alone `benchmark/` package still names; the next
// benchmark-only change deletes them.
pub use scout_bdd::{CacheStats, NodeTableKind};

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use scout_policy::{
        ContractId, EpgId, FilterId, LogicalRule, PortRange, Protocol, RuleMatch, RuleProvenance,
        SwitchId, TcamRule, VrfId,
    };
    use std::collections::BTreeSet;

    const SWITCH: SwitchId = SwitchId::new(1);

    /// Generates an allow rule from a small id and port space so that
    /// collisions (duplicates, overlaps, ranges that touch) actually happen.
    fn random_logical_rule(rng: &mut StdRng) -> LogicalRule {
        let vrf = 100 + rng.gen_range(0u32..3);
        let src = rng.gen_range(0u32..4);
        let dst = rng.gen_range(0u32..4);
        let proto = *[Protocol::Any, Protocol::Tcp, Protocol::Udp, Protocol::Icmp]
            .choose(rng)
            .unwrap();
        let start = rng.gen_range(0u16..6);
        let ports = if rng.gen_bool(0.5) {
            PortRange::single(start)
        } else {
            PortRange::new(start, start + rng.gen_range(0u16..4))
        };
        let matcher = RuleMatch::new(
            VrfId::new(vrf),
            EpgId::new(src),
            EpgId::new(dst),
            proto,
            ports,
        );
        LogicalRule::new(
            SWITCH,
            TcamRule::allow(matcher),
            RuleProvenance::new(
                VrfId::new(vrf),
                EpgId::new(src),
                EpgId::new(dst),
                ContractId::new(rng.gen_range(0u32..3)),
                FilterId::new(rng.gen_range(0u32..3)),
            ),
        )
    }

    fn random_rule_set(rng: &mut StdRng, max: usize) -> Vec<LogicalRule> {
        let count = rng.gen_range(1..=max);
        (0..count).map(|_| random_logical_rule(rng)).collect()
    }

    /// The checker and the breakpoint oracle return the same result, for
    /// arbitrary subsets of the rules removed from the TCAM (including
    /// duplicates and overlapping ranges covering the same traffic).
    #[test]
    fn checker_agrees_with_breakpoint_oracle() {
        let checker = EquivalenceChecker::new();
        for seed in 0..300 {
            let mut rng = StdRng::seed_from_u64(seed);
            let logical = random_rule_set(&mut rng, 20);
            let tcam: Vec<TcamRule> = logical
                .iter()
                .filter(|_| rng.gen_bool(0.5))
                .map(|l| l.rule)
                .collect();

            let result = checker.check_switch(SWITCH, &logical, &tcam);
            assert_eq!(
                result,
                breakpoint_check(SWITCH, &logical, &tcam),
                "seed {seed}"
            );
        }
    }

    /// When the TCAM holds exactly the compiled rules, the checker reports
    /// consistency regardless of rule ordering.
    #[test]
    fn identical_rule_sets_are_equivalent() {
        let checker = EquivalenceChecker::new();
        for seed in 0..150 {
            let mut rng = StdRng::seed_from_u64(seed);
            let logical = random_rule_set(&mut rng, 20);
            let mut tcam: Vec<TcamRule> = logical.iter().map(|l| l.rule).collect();
            tcam.shuffle(&mut rng);
            let result = checker.check_switch(SWITCH, &logical, &tcam);
            assert!(result.equivalent, "seed {seed}");
            assert!(result.missing_rules.is_empty(), "seed {seed}");
            assert!(result.unexpected_rules.is_empty(), "seed {seed}");
        }
    }

    /// Missing rules are always a subset of the logical rules of the checked
    /// switch, and removing everything reports every rule missing.
    #[test]
    fn missing_rules_are_logical_rules() {
        let checker = EquivalenceChecker::new();
        for seed in 0..150 {
            let mut rng = StdRng::seed_from_u64(seed);
            let logical = random_rule_set(&mut rng, 15);
            let result = checker.check_switch(SWITCH, &logical, &[]);
            let all: BTreeSet<LogicalRule> = logical.iter().copied().collect();
            let missing: BTreeSet<LogicalRule> = result.missing_rules.iter().copied().collect();
            assert_eq!(missing.len(), all.len(), "seed {seed}");
            assert!(missing.is_subset(&all), "seed {seed}");
        }
    }
}
