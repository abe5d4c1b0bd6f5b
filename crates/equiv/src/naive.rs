//! A naive, sampling-based consistency checker used as a cross-validation
//! oracle for the interval checker.
//!
//! For every logical rule it evaluates a handful of concrete flows drawn from
//! the rule's match (the first, middle and last port of the range, and each
//! concrete protocol when the rule matches any protocol) against the deployed
//! TCAM with first-match semantics. The rule is reported missing if any sampled
//! flow is denied.
//!
//! For the rules produced by the policy compiler (exact ports, concrete
//! protocols) the sampling is exhaustive, so on that rule shape this oracle is
//! exact and must agree with [`EquivalenceChecker`](crate::EquivalenceChecker);
//! the property tests in this crate assert exactly that.

use scout_policy::{evaluate, Action, FlowKey, LogicalRule, Protocol, TcamRule};

/// Concrete flows sampled from a rule match for the naive check.
pub fn sample_flows(rule: &LogicalRule) -> Vec<FlowKey> {
    let m = &rule.rule.matcher;
    let protocols: Vec<Protocol> = match m.protocol {
        Protocol::Any => vec![Protocol::Tcp, Protocol::Udp, Protocol::Icmp],
        p => vec![p],
    };
    let mut ports = vec![m.ports.start];
    if m.ports.end != m.ports.start {
        ports.push(m.ports.end);
        let mid = (u32::from(m.ports.start) + u32::from(m.ports.end)) / 2;
        let mid = mid as u16;
        if mid != m.ports.start && mid != m.ports.end {
            ports.push(mid);
        }
    }
    let mut flows = Vec::with_capacity(protocols.len() * ports.len());
    for &protocol in &protocols {
        for &port in &ports {
            flows.push(FlowKey::new(m.vrf, m.src_epg, m.dst_epg, protocol, port));
        }
    }
    flows
}

/// Returns the logical rules (restricted to `switch`'s rules in `logical`)
/// whose sampled traffic is not fully allowed by `tcam`.
pub fn naive_missing_rules(logical: &[LogicalRule], tcam: &[TcamRule]) -> Vec<LogicalRule> {
    logical
        .iter()
        .filter(|l| {
            sample_flows(l)
                .iter()
                .any(|flow| evaluate(tcam, flow) != Action::Allow)
        })
        .copied()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::{
        ContractId, EpgId, FilterId, PortRange, Protocol, RuleMatch, RuleProvenance, SwitchId,
        TcamRule, VrfId,
    };

    fn logical(port: u16, proto: Protocol) -> LogicalRule {
        let matcher = RuleMatch::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            proto,
            PortRange::single(port),
        );
        LogicalRule::new(
            SwitchId::new(1),
            TcamRule::allow(matcher),
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
    fn sample_flows_single_port_concrete_protocol() {
        let flows = sample_flows(&logical(80, Protocol::Tcp));
        assert_eq!(flows.len(), 1);
        assert_eq!(flows[0].port, 80);
        assert_eq!(flows[0].protocol, Protocol::Tcp);
    }

    #[test]
    fn sample_flows_any_protocol_expands() {
        let flows = sample_flows(&logical(80, Protocol::Any));
        assert_eq!(flows.len(), 3);
    }

    #[test]
    fn sample_flows_range_includes_bounds_and_midpoint() {
        let mut rule = logical(0, Protocol::Tcp);
        rule.rule.matcher.ports = PortRange::new(10, 20);
        let flows = sample_flows(&rule);
        let ports: Vec<u16> = flows.iter().map(|f| f.port).collect();
        assert_eq!(ports, vec![10, 20, 15]);
    }

    #[test]
    fn missing_when_tcam_lacks_rule() {
        let l = vec![logical(80, Protocol::Tcp), logical(443, Protocol::Tcp)];
        let tcam = vec![l[0].rule];
        let missing = naive_missing_rules(&l, &tcam);
        assert_eq!(missing, vec![l[1]]);
    }

    #[test]
    fn nothing_missing_when_tcam_matches() {
        let l = vec![logical(80, Protocol::Tcp)];
        let tcam = vec![l[0].rule];
        assert!(naive_missing_rules(&l, &tcam).is_empty());
    }
}
