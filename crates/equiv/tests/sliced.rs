//! The class-sliced checker against the paper's monolithic formulation.
//!
//! `EquivalenceChecker` folds a switch one exact-match class at a time over a
//! 24-variable sub-space. The reference here is the algorithm it replaced —
//! every rule encoded over all 72 header bits with `HeaderSpace::rule_match`,
//! the whole switch folded into one allowed space per side — and the two must
//! return the same `SwitchCheckResult`, list order included.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scout_bdd::BddManager;
use scout_equiv::header::allowed_space_traced_with;
use scout_equiv::{EquivalenceChecker, HeaderSpace, SwitchCheckResult};
use scout_fabric::CorruptionKind;
use scout_policy::{
    Action, ContractId, EpgId, FilterId, LogicalRule, PortRange, Protocol, RuleMatch,
    RuleProvenance, SwitchId, TcamRule, VrfId,
};

const SWITCH: SwitchId = SwitchId::new(1);

/// The pre-slicing checker: one 72-variable fold per side, every rule
/// classified against the switch-wide allowed spaces.
fn monolithic_check(
    header_space: &HeaderSpace,
    manager: &mut BddManager,
    logical: &[LogicalRule],
    tcam: &[TcamRule],
) -> SwitchCheckResult {
    let logical_rules: Vec<TcamRule> = logical.iter().map(|l| l.rule).collect();
    let (l_allowed, l_matches) = allowed_space_traced_with(manager, &logical_rules, |m, rule| {
        header_space.rule_match(m, rule)
    });
    let (t_allowed, t_matches) =
        allowed_space_traced_with(manager, tcam, |m, rule| header_space.rule_match(m, rule));

    let mut result = SwitchCheckResult::consistent(SWITCH);
    result.equivalent = manager.equivalent(l_allowed, t_allowed);
    if !result.equivalent {
        for (l, &space) in logical.iter().zip(&l_matches) {
            if !manager.implies(space, t_allowed) {
                result.missing_rules.push(*l);
            }
        }
        for (t, &space) in tcam.iter().zip(&t_matches) {
            if t.action != Action::Allow {
                continue;
            }
            let effectively_allowed = manager.and(space, t_allowed);
            if !manager.implies(effectively_allowed, l_allowed) {
                result.unexpected_rules.push(*t);
            }
        }
    }
    result
}

fn logical(rule: TcamRule) -> LogicalRule {
    let m = rule.matcher;
    LogicalRule::new(
        SWITCH,
        rule,
        RuleProvenance::new(
            m.vrf,
            m.src_epg,
            m.dst_epg,
            ContractId::new(0),
            FilterId::new(0),
        ),
    )
}

/// A rule from a small id, port and priority space, so classes hold several
/// rules that overlap, shadow and duplicate each other. Ids stay below 2¹⁶,
/// where the 72-bit reference encoding is faithful.
fn random_rule(rng: &mut StdRng) -> TcamRule {
    let protocol = *[Protocol::Any, Protocol::Tcp, Protocol::Udp, Protocol::Icmp]
        .choose(rng)
        .unwrap();
    let ports = match rng.gen_range(0u32..10) {
        0 => PortRange::new(0, u16::MAX),
        1..=4 => PortRange::single(rng.gen_range(0u16..12)),
        _ => {
            let start = rng.gen_range(0u16..12);
            PortRange::new(start, start + rng.gen_range(0u16..8))
        }
    };
    let matcher = RuleMatch::new(
        VrfId::new(100 + rng.gen_range(0u32..2)),
        EpgId::new(rng.gen_range(0u32..3)),
        EpgId::new(rng.gen_range(0u32..3)),
        protocol,
        ports,
    );
    let mut rule = if rng.gen_bool(0.7) {
        TcamRule::allow(matcher)
    } else {
        TcamRule::deny(matcher)
    };
    rule.priority = *[90u16, 100, 110].choose(rng).unwrap();
    rule
}

/// The TCAM a faulty agent might render from `logical`: rules lost,
/// corrupted, duplicated, added, reordered — or, one time in five, nothing
/// wrong at all.
fn drifted_tcam(rng: &mut StdRng, logical: &[LogicalRule]) -> Vec<TcamRule> {
    let mut tcam: Vec<TcamRule> = logical.iter().map(|l| l.rule).collect();
    if rng.gen_bool(0.2) {
        return tcam;
    }
    tcam.retain(|_| rng.gen_bool(0.85));
    for slot in 0..tcam.len() {
        if rng.gen_bool(0.1) {
            let kind = *CorruptionKind::ALL.choose(rng).unwrap();
            tcam[slot] = kind.apply(&tcam[slot]);
        }
        if rng.gen_bool(0.05) {
            tcam.push(tcam[slot]);
        }
    }
    for _ in 0..rng.gen_range(0usize..3) {
        tcam.push(random_rule(rng));
    }
    if rng.gen_bool(0.5) {
        tcam.shuffle(rng);
    }
    tcam
}

#[test]
fn sliced_checker_matches_the_monolithic_reference() {
    let header_space = HeaderSpace::new();
    let checker = EquivalenceChecker::new();
    let (mut equivalent, mut with_missing, mut with_unexpected) = (0, 0, 0);
    for seed in 0..600u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let rules = rng.gen_range(1usize..40);
        let logical: Vec<LogicalRule> =
            (0..rules).map(|_| logical(random_rule(&mut rng))).collect();
        let tcam = drifted_tcam(&mut rng, &logical);
        let classes: std::collections::BTreeSet<_> = logical
            .iter()
            .map(|l| l.rule.matcher)
            .map(|m| (m.vrf, m.src_epg, m.dst_epg))
            .collect();
        assert!(
            rules < 6 || classes.len() > 1,
            "seed {seed}: one class only"
        );

        let sliced = checker.check_switch(SWITCH, &logical, &tcam);
        let reference =
            monolithic_check(&header_space, &mut header_space.manager(), &logical, &tcam);
        assert_eq!(sliced, reference, "seed {seed}");

        equivalent += usize::from(sliced.equivalent);
        with_missing += usize::from(!sliced.missing_rules.is_empty());
        with_unexpected += usize::from(!sliced.unexpected_rules.is_empty());
    }
    // The generator must exercise every verdict, not only the easy one.
    assert!(equivalent >= 50, "{equivalent} equivalent switches");
    assert!(
        with_missing >= 200,
        "{with_missing} switches with missing rules"
    );
    assert!(
        with_unexpected >= 200,
        "{with_unexpected} with unexpected rules"
    );
}

/// Classification is switch-wide: it runs only when the switch as a whole is
/// inequivalent and then tests *every* logical rule against the TCAM, so a
/// logical allow that a higher-priority logical deny shadows (and the deny
/// itself) is silent while the switch is equivalent and reported as soon as
/// any other class diverges.
#[test]
fn shadowed_logical_rule_is_reported_only_once_another_class_diverges() {
    let class_a = |ports| {
        RuleMatch::new(
            VrfId::new(7),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Tcp,
            ports,
        )
    };
    let mut deny = TcamRule::deny(class_a(PortRange::new(80, 90)));
    deny.priority = TcamRule::DEFAULT_ALLOW_PRIORITY + 10;
    let shadowed = TcamRule::allow(class_a(PortRange::single(85)));
    let other_class = TcamRule::allow(RuleMatch::new(
        VrfId::new(7),
        EpgId::new(3),
        EpgId::new(4),
        Protocol::Udp,
        PortRange::single(53),
    ));
    let logical = [logical(deny), logical(shadowed), logical(other_class)];
    let header_space = HeaderSpace::new();
    let checker = EquivalenceChecker::new();

    let faithful = [deny, shadowed, other_class];
    let healthy = checker.check_switch(SWITCH, &logical, &faithful);
    assert_eq!(healthy, SwitchCheckResult::consistent(SWITCH));

    // Lose the *other* class's rule: class A is untouched and still allows
    // exactly what the policy allows for it (nothing), yet both its rules are
    // now listed, in input order, ahead of the rule that is really gone.
    let drifted = [deny, shadowed];
    let result = checker.check_switch(SWITCH, &logical, &drifted);
    assert!(!result.equivalent);
    assert_eq!(result.missing_rules, logical);
    assert!(result.unexpected_rules.is_empty());
    assert_eq!(
        result,
        monolithic_check(
            &header_space,
            &mut header_space.manager(),
            &logical,
            &drifted
        )
    );
}

/// Ids are `u32`; a rule whose VRF (or EPG) differs from the policy's only
/// above bit 15 must not be taken for the policy's rule.
#[test]
fn ids_differing_above_sixteen_bits_do_not_alias() {
    let matcher = RuleMatch::new(
        VrfId::new(1),
        EpgId::new(1),
        EpgId::new(1),
        Protocol::Tcp,
        PortRange::single(443),
    );
    let aliases = [
        RuleMatch {
            vrf: VrfId::new(65_537),
            ..matcher
        },
        RuleMatch {
            src_epg: EpgId::new(65_537),
            ..matcher
        },
        RuleMatch {
            dst_epg: EpgId::new(65_537),
            ..matcher
        },
    ];
    let checker = EquivalenceChecker::new();
    let expected = logical(TcamRule::allow(matcher));
    for alias in aliases {
        let leaked = TcamRule::allow(alias);
        let result = checker.check_switch(SWITCH, &[expected], &[leaked]);
        assert!(!result.equivalent, "{alias} taken for {matcher}");
        assert_eq!(result.missing_rules, vec![expected]);
        assert_eq!(result.unexpected_rules, vec![leaked]);
    }
}
