//! The interval checker against the exact breakpoint oracle.
//!
//! `EquivalenceChecker` folds a switch one exact-match class at a time into
//! four port-interval lists per class. `breakpoint_check` shares none of
//! that: it evaluates both rule lists flow by flow, with first-match
//! `scout_policy::evaluate`, at every port where a verdict can change. The
//! two must return the same `SwitchCheckResult`, list order included.

use std::collections::BTreeSet;
use std::ops::Range;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scout_equiv::{breakpoint_check, EquivalenceChecker, SwitchCheckResult};
use scout_fabric::CorruptionKind;
use scout_policy::{
    evaluate, Action, ContractId, EpgId, FilterId, FlowKey, LogicalRule, PortRange, Protocol,
    RuleMatch, RuleProvenance, SwitchId, TcamRule, VrfId,
};

const SWITCH: SwitchId = SwitchId::new(1);

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

/// An id drawn from `bases`, or one of two ids that equal it in the low 16
/// bits, so a checker that truncated ids would merge classes that are
/// distinct.
fn id(rng: &mut StdRng, bases: Range<u32>) -> u32 {
    let base = rng.gen_range(bases);
    match rng.gen_range(0u32..10) {
        0..=6 => base,
        7 | 8 => base + (1 << 16),
        _ => base | 0xFFFF_0000,
    }
}

/// A rule from a small class, port and priority space, so classes hold
/// several rules that overlap, shadow and duplicate each other. Some ranges
/// end at port 11 and others start at 12, so they touch without overlapping;
/// some sit at the top of the port space, where `end + 1` would overflow;
/// the rest span the whole port space, ending on a few shared landmarks.
fn random_rule(rng: &mut StdRng) -> TcamRule {
    const LANDMARKS: [u16; 6] = [0, 1_023, 1_024, 32_767, 32_768, u16::MAX];
    let protocol = *[Protocol::Any, Protocol::Tcp, Protocol::Udp, Protocol::Icmp]
        .choose(rng)
        .unwrap();
    let ports = match rng.gen_range(0u32..16) {
        0 => PortRange::new(0, u16::MAX),
        1..=4 => PortRange::single(rng.gen_range(0u16..12)),
        5..=7 => {
            let start = rng.gen_range(0u16..12);
            PortRange::new(start, start + rng.gen_range(0u16..8))
        }
        8 => PortRange::new(rng.gen_range(0u16..12), 11),
        9 => PortRange::new(12, 12 + rng.gen_range(0u16..4)),
        10 | 11 => {
            let start = rng.gen_range(65_530u16..=u16::MAX);
            PortRange::new(start, rng.gen_range(start..=u16::MAX))
        }
        12 | 13 => {
            let start = rng.gen_range(0..=u16::MAX);
            PortRange::new(start, rng.gen_range(start..=u16::MAX))
        }
        _ => {
            let (a, b) = (
                *LANDMARKS.choose(rng).unwrap(),
                *LANDMARKS.choose(rng).unwrap(),
            );
            PortRange::new(a.min(b), a.max(b))
        }
    };
    let matcher = RuleMatch::new(
        VrfId::new(id(rng, 100..102)),
        EpgId::new(id(rng, 0..3)),
        EpgId::new(id(rng, 0..3)),
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

/// A rule list that allows exactly what `rules` allows, in another shape:
/// each class cut into its elementary port intervals (between consecutive
/// rule boundaries), an `Any` allow at a low priority on every interval
/// whose other-protocol traffic is allowed, and above it one TCP, UDP and
/// ICMP rule per interval that allows, or denies what the floor would let
/// through.
fn rerendered(rules: &[TcamRule]) -> Vec<TcamRule> {
    let mut cuts = BTreeSet::new();
    for m in rules.iter().map(|r| r.matcher) {
        let class = (m.vrf, m.src_epg, m.dst_epg);
        cuts.insert((class, 0u32));
        cuts.insert((class, u32::from(m.ports.start)));
        cuts.insert((class, u32::from(m.ports.end) + 1));
    }
    let cuts: Vec<_> = cuts.into_iter().collect();
    let mut rendered = Vec::new();
    for pair in cuts.windows(2) {
        let ((class, start), (next_class, next)) = (pair[0], pair[1]);
        let end = if next_class == class {
            next - 1
        } else {
            65_535
        };
        if start > end {
            continue;
        }
        let (vrf, src, dst) = class;
        let piece = |protocol| {
            RuleMatch::new(
                vrf,
                src,
                dst,
                protocol,
                PortRange::new(start as u16, end as u16),
            )
        };
        let allowed = |protocol| {
            evaluate(rules, &FlowKey::new(vrf, src, dst, protocol, start as u16)) == Action::Allow
        };
        let floor = allowed(Protocol::Any);
        if floor {
            let mut any = TcamRule::allow(piece(Protocol::Any));
            any.priority = 10;
            rendered.push(any);
        }
        for protocol in [Protocol::Tcp, Protocol::Udp, Protocol::Icmp] {
            let mut rule = match (allowed(protocol), floor) {
                (true, _) => TcamRule::allow(piece(protocol)),
                (false, true) => TcamRule::deny(piece(protocol)),
                (false, false) => continue,
            };
            rule.priority = 200;
            rendered.push(rule);
        }
    }
    rendered
}

/// What a faulty agent might make of `tcam`: rules lost, corrupted,
/// duplicated, added, reordered — or, one time in five, nothing wrong at
/// all.
fn drifted(rng: &mut StdRng, mut tcam: Vec<TcamRule>) -> Vec<TcamRule> {
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

/// The random sweep. Half the TCAMs start as the policy's own rules, half as
/// a re-rendering of them, whose many adjacent pieces, protocol-specific
/// denies over an `Any` floor and priority bands only a correct fold
/// reduces to the policy's space.
#[test]
fn sliced_checker_matches_the_breakpoint_oracle() {
    const SEEDS: u64 = 10_000;
    let checker = EquivalenceChecker::new();
    let (mut equivalent, mut with_missing, mut with_unexpected) = (0, 0, 0);
    for seed in 0..SEEDS {
        let mut rng = StdRng::seed_from_u64(seed);
        let rules = rng.gen_range(1usize..40);
        let logical: Vec<LogicalRule> =
            (0..rules).map(|_| logical(random_rule(&mut rng))).collect();
        let policy: Vec<TcamRule> = logical.iter().map(|l| l.rule).collect();
        let deployed = if seed % 2 == 0 {
            policy
        } else {
            rerendered(&policy)
        };
        let tcam = drifted(&mut rng, deployed);
        let classes: BTreeSet<_> = logical
            .iter()
            .map(|l| l.rule.matcher)
            .map(|m| (m.vrf, m.src_epg, m.dst_epg))
            .collect();
        assert!(
            rules < 6 || classes.len() > 1,
            "seed {seed}: one class only"
        );

        let sliced = checker.check_switch(SWITCH, &logical, &tcam);
        assert_eq!(
            sliced,
            breakpoint_check(SWITCH, &logical, &tcam),
            "seed {seed}"
        );

        equivalent += usize::from(sliced.equivalent);
        with_missing += usize::from(!sliced.missing_rules.is_empty());
        with_unexpected += usize::from(!sliced.unexpected_rules.is_empty());
    }
    // The generator must exercise every verdict, not only the easy one.
    let share = |n: usize| n as f64 / SEEDS as f64;
    assert!(
        share(equivalent) >= 0.15,
        "{equivalent} equivalent switches"
    );
    assert!(
        share(with_missing) >= 0.5,
        "{with_missing} switches with missing rules"
    );
    assert!(
        share(with_unexpected) >= 0.5,
        "{with_unexpected} with unexpected rules"
    );
}

/// A re-rendered policy with nothing drifted is equivalent to the policy.
#[test]
fn rerendering_preserves_the_allowed_space() {
    let checker = EquivalenceChecker::new();
    for seed in 0..500u64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let logical: Vec<LogicalRule> = (0..rng.gen_range(1usize..40))
            .map(|_| logical(random_rule(&mut rng)))
            .collect();
        let policy: Vec<TcamRule> = logical.iter().map(|l| l.rule).collect();
        let tcam = rerendered(&policy);
        assert_eq!(
            breakpoint_check(SWITCH, &logical, &tcam),
            SwitchCheckResult::consistent(SWITCH),
            "seed {seed}"
        );
        assert!(checker.check_switch(SWITCH, &logical, &tcam).equivalent);
    }
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
    assert_eq!(breakpoint_check(SWITCH, &logical, &drifted), result);
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
        assert_eq!(breakpoint_check(SWITCH, &[expected], &[leaked]), result);
    }
}

/// Runs the checker and the oracle on one switch, asserts they agree and
/// returns the checker's result.
fn checked(logical: &[LogicalRule], tcam: &[TcamRule]) -> SwitchCheckResult {
    let result = EquivalenceChecker::new().check_switch(SWITCH, logical, tcam);
    assert_eq!(
        result,
        breakpoint_check(SWITCH, logical, tcam),
        "L {logical:?}\nT {tcam:?}"
    );
    result
}

/// A rule of one fixed class.
fn rule(action: Action, protocol: Protocol, start: u16, end: u16, priority: u16) -> TcamRule {
    let matcher = RuleMatch::new(
        VrfId::new(7),
        EpgId::new(1),
        EpgId::new(2),
        protocol,
        PortRange::new(start, end),
    );
    let mut rule = match action {
        Action::Allow => TcamRule::allow(matcher),
        Action::Deny => TcamRule::deny(matcher),
    };
    rule.priority = priority;
    rule
}

fn allow(protocol: Protocol, start: u16, end: u16) -> TcamRule {
    rule(Action::Allow, protocol, start, end, 100)
}

/// Ports 80 and 81 as two rules allow what 80–81 as one rule allows: the
/// adjacent runs merge, so the two spaces compare equal.
#[test]
fn adjacent_ranges_merge() {
    let logical = [
        logical(allow(Protocol::Tcp, 80, 80)),
        logical(allow(Protocol::Tcp, 81, 81)),
    ];
    let result = checked(&logical, &[allow(Protocol::Tcp, 80, 81)]);
    assert_eq!(result, SwitchCheckResult::consistent(SWITCH));
}

/// Runs that end at port 65535, and the full range split across two rules,
/// merge and compare without overflowing `end + 1`.
#[test]
fn ranges_ending_at_the_top_port_do_not_overflow() {
    let top = u16::MAX;
    let full = [logical(allow(Protocol::Udp, 0, top))];
    let split = [
        allow(Protocol::Udp, 0, 32_767),
        allow(Protocol::Udp, 32_768, top),
    ];
    assert!(checked(&full, &split).equivalent);

    let high = [logical(allow(Protocol::Tcp, 65_530, top))];
    let pieces = [
        allow(Protocol::Tcp, top, top),
        allow(Protocol::Tcp, 65_530, top - 1),
    ];
    assert!(checked(&high, &pieces).equivalent);
    let short = checked(&high, &[allow(Protocol::Tcp, 65_530, top - 1)]);
    assert_eq!(short.missing_rules, high);

    // A deny running to the top port trims an allow of the full range.
    let trimmed = [
        logical(allow(Protocol::Tcp, 0, top)),
        logical(rule(Action::Deny, Protocol::Tcp, 65_000, top, 110)),
    ];
    assert!(checked(&trimmed, &[allow(Protocol::Tcp, 0, 64_999)]).equivalent);
}

/// `Any` also allows every protocol other than TCP, UDP and ICMP, so the
/// three concrete rules fall short of it: the `Any` rule is missing, and the
/// deployed rules allow nothing the policy does not.
#[test]
fn any_protocol_covers_more_than_tcp_udp_and_icmp() {
    let logical = [logical(allow(Protocol::Any, 80, 80))];
    let tcam = [
        allow(Protocol::Tcp, 80, 80),
        allow(Protocol::Udp, 80, 80),
        allow(Protocol::Icmp, 80, 80),
    ];
    let result = checked(&logical, &tcam);
    assert!(!result.equivalent);
    assert_eq!(result.missing_rules, logical);
    assert!(result.unexpected_rules.is_empty());
}

/// A higher-priority `Any` deny removes its ports from a TCP allow; losing
/// the deny makes the allow leak them.
#[test]
fn higher_priority_any_deny_shadows_a_tcp_allow() {
    let deny = rule(Action::Deny, Protocol::Any, 80, 80, 110);
    let open = allow(Protocol::Tcp, 80, 90);
    let logical = [logical(deny), logical(open)];
    assert!(checked(&logical, &[allow(Protocol::Tcp, 81, 90)]).equivalent);

    let leaked = checked(&logical, &[open]);
    assert!(!leaked.equivalent);
    assert_eq!(leaked.unexpected_rules, vec![open]);
}

/// Between an allow and a deny of equal priority, list order decides.
#[test]
fn list_order_breaks_priority_ties() {
    let (open, shut) = (
        allow(Protocol::Tcp, 80, 80),
        rule(Action::Deny, Protocol::Tcp, 80, 80, 100),
    );
    let logical = [logical(open), logical(shut)];
    assert!(checked(&logical, &[open, shut]).equivalent);

    let reversed = checked(&logical, &[shut, open]);
    assert!(!reversed.equivalent);
    assert!(reversed.missing_rules.contains(&logical[0]));
    assert!(reversed.unexpected_rules.is_empty());
}
