//! An exact breakpoint oracle: the reference the interval checker is tested
//! against.
//!
//! Inside one `(VRF, source EPG, destination EPG)` class a rule matches one
//! protocol and one contiguous port range, so whether a side allows a flow
//! can change only at port 0 and at each rule's `start` and `end + 1`. Between
//! two such breakpoints every rule matches all ports or none, and the verdict
//! is constant. The oracle evaluates the rules with first-match
//! [`evaluate`] at every breakpoint of every class, for four flows each: TCP,
//! UDP, ICMP, and a [`Protocol::Any`] flow, which only `Any` rules match and
//! which stands for every other protocol code. Those verdicts decide the
//! whole [`SwitchCheckResult`] exactly.
//!
//! It shares no code with [`EquivalenceChecker`](crate::EquivalenceChecker):
//! no interval lists, no sort, no merge, only the per-flow lookup a switch
//! performs. It is slow — every flow scans every rule — and only tests use
//! it; `tests/sliced.rs` and this crate's property tests assert that the
//! checker returns the same result, list order included.

use std::collections::BTreeSet;

use scout_policy::{evaluate, Action, FlowKey, LogicalRule, Protocol, SwitchId, TcamRule};

use crate::SwitchCheckResult;

/// The flows one port of a class is evaluated at: the three concrete
/// protocols, then the flow that only `Any` rules match.
const PROTOCOLS: [Protocol; 4] = [Protocol::Tcp, Protocol::Udp, Protocol::Icmp, Protocol::Any];

/// One breakpoint flow and whether the logical rules and the TCAM allow it.
struct Verdict {
    flow: FlowKey,
    logical: bool,
    tcam: bool,
}

/// Checks `switch` the way [`EquivalenceChecker::check_switch`] does —
/// `logical` may hold other switches' rules, which are skipped — by
/// evaluating both sides at every breakpoint flow (see the module docs).
///
/// [`EquivalenceChecker::check_switch`]: crate::EquivalenceChecker::check_switch
pub fn breakpoint_check(
    switch: SwitchId,
    logical: &[LogicalRule],
    tcam: &[TcamRule],
) -> SwitchCheckResult {
    let logical: Vec<LogicalRule> = logical
        .iter()
        .filter(|l| l.switch == switch)
        .copied()
        .collect();
    let l_rules: Vec<TcamRule> = logical.iter().map(|l| l.rule).collect();

    let mut points = BTreeSet::new();
    for m in l_rules.iter().chain(tcam).map(|r| r.matcher) {
        for port in [Some(0), Some(m.ports.start), m.ports.end.checked_add(1)] {
            points.extend(port.map(|port| (m.vrf, m.src_epg, m.dst_epg, port)));
        }
    }
    let verdicts: Vec<Verdict> = points
        .into_iter()
        .flat_map(|(vrf, src, dst, port)| {
            PROTOCOLS.map(|protocol| FlowKey::new(vrf, src, dst, protocol, port))
        })
        .map(|flow| Verdict {
            flow,
            logical: evaluate(&l_rules, &flow) == Action::Allow,
            tcam: evaluate(tcam, &flow) == Action::Allow,
        })
        .collect();

    let mut result = SwitchCheckResult::consistent(switch);
    result.equivalent = verdicts.iter().all(|v| v.logical == v.tcam);
    if result.equivalent {
        return result;
    }
    // Missing: the rule matches a flow the TCAM denies.
    result.missing_rules = logical
        .into_iter()
        .filter(|l| {
            verdicts
                .iter()
                .any(|v| l.rule.matcher.covers(&v.flow) && !v.tcam)
        })
        .collect();
    // Unexpected: an allow matches a flow the TCAM allows and the policy does
    // not.
    result.unexpected_rules = tcam
        .iter()
        .filter(|t| t.action == Action::Allow)
        .filter(|t| {
            verdicts
                .iter()
                .any(|v| t.matcher.covers(&v.flow) && v.tcam && !v.logical)
        })
        .copied()
        .collect();
    result
}

#[cfg(test)]
#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::{ContractId, EpgId, FilterId, PortRange, RuleMatch, RuleProvenance, VrfId};

    const SWITCH: SwitchId = SwitchId::new(1);

    fn rule(protocol: Protocol, start: u16, end: u16) -> TcamRule {
        TcamRule::allow(RuleMatch::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            protocol,
            PortRange::new(start, end),
        ))
    }

    fn logical(rule: TcamRule) -> LogicalRule {
        LogicalRule::new(
            SWITCH,
            rule,
            RuleProvenance::new(
                VrfId::new(101),
                EpgId::new(1),
                EpgId::new(2),
                ContractId::new(1),
                FilterId::new(1),
            ),
        )
    }

    #[test]
    fn missing_when_tcam_lacks_rule() {
        let l = [
            logical(rule(Protocol::Tcp, 80, 80)),
            logical(rule(Protocol::Tcp, 443, 443)),
        ];
        let result = breakpoint_check(SWITCH, &l, &[l[0].rule]);
        assert!(!result.equivalent);
        assert_eq!(result.missing_rules, vec![l[1]]);
        assert!(result.unexpected_rules.is_empty());
    }

    #[test]
    fn nothing_missing_when_tcam_matches() {
        let l = [logical(rule(Protocol::Tcp, 80, 80))];
        let result = breakpoint_check(SWITCH, &l, &[l[0].rule]);
        assert_eq!(result, SwitchCheckResult::consistent(SWITCH));
    }

    /// A gap in the middle of a range is found: it starts at a breakpoint of
    /// the TCAM side, which sampling a range's ends and middle would miss.
    #[test]
    fn a_hole_inside_a_range_is_found() {
        let l = [logical(rule(Protocol::Udp, 10, 20))];
        let holed = [rule(Protocol::Udp, 10, 13), rule(Protocol::Udp, 17, 20)];
        let result = breakpoint_check(SWITCH, &l, &holed);
        assert_eq!(result.missing_rules, l);
        assert!(breakpoint_check(SWITCH, &l, &[rule(Protocol::Udp, 10, 16), holed[1]]).equivalent);
    }

    /// The `Any` flow is the fourth slot: only `Any` rules match it, so three
    /// concrete rules do not add up to one `Any` rule.
    #[test]
    fn any_allows_more_than_its_three_concrete_protocols() {
        let l = [logical(rule(Protocol::Any, 0, u16::MAX))];
        let concrete = [Protocol::Tcp, Protocol::Udp, Protocol::Icmp].map(|p| rule(p, 0, u16::MAX));
        let result = breakpoint_check(SWITCH, &l, &concrete);
        assert_eq!(result.missing_rules, l);
        assert!(result.unexpected_rules.is_empty());
    }
}
