//! TCAM rule representation.
//!
//! A TCAM rule (Figure 2 of the paper) matches on the tuple
//! `(VRF, source EPG, destination EPG, protocol, destination port)` and carries
//! an allow/deny action and a priority. The controller compiles the policy into
//! *logical* rules ([`LogicalRule`], L-type) which also carry the provenance —
//! the policy objects the rule was derived from. Switch agents render the same
//! matches into the hardware table as plain [`TcamRule`]s (T-type).

use std::fmt;

use crate::ids::{ContractId, EpgId, FilterId, ObjectId, SwitchId, VrfId};
use crate::object::{Action, PortRange, Protocol};
use crate::pair::EpgPair;

/// The match portion of a TCAM rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleMatch {
    /// VRF the traffic belongs to.
    pub vrf: VrfId,
    /// Source EPG class id.
    pub src_epg: EpgId,
    /// Destination EPG class id.
    pub dst_epg: EpgId,
    /// Transport protocol.
    pub protocol: Protocol,
    /// Destination port range.
    pub ports: PortRange,
}

impl RuleMatch {
    /// Creates a match for a single destination port.
    pub fn new(
        vrf: VrfId,
        src_epg: EpgId,
        dst_epg: EpgId,
        protocol: Protocol,
        ports: PortRange,
    ) -> Self {
        Self {
            vrf,
            src_epg,
            dst_epg,
            protocol,
            ports,
        }
    }

    /// The (unordered) EPG pair this match belongs to.
    pub fn pair(&self) -> EpgPair {
        EpgPair::new(self.src_epg, self.dst_epg)
    }

    /// Returns `true` if the match covers `flow`.
    pub fn covers(&self, flow: &FlowKey) -> bool {
        self.vrf == flow.vrf
            && self.src_epg == flow.src_epg
            && self.dst_epg == flow.dst_epg
            && self.protocol.matches(flow.protocol)
            && self.ports.contains(flow.port)
    }
}

impl fmt::Display for RuleMatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{},{}→{},{}/{}",
            self.vrf, self.src_epg, self.dst_epg, self.protocol, self.ports
        )
    }
}

/// A concrete flow (single packet header) used to evaluate rule tables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey {
    /// VRF of the flow.
    pub vrf: VrfId,
    /// Source EPG of the flow.
    pub src_epg: EpgId,
    /// Destination EPG of the flow.
    pub dst_epg: EpgId,
    /// Concrete protocol of the flow (never [`Protocol::Any`]).
    pub protocol: Protocol,
    /// Concrete destination port of the flow.
    pub port: u16,
}

impl FlowKey {
    /// Creates a flow key.
    pub fn new(vrf: VrfId, src_epg: EpgId, dst_epg: EpgId, protocol: Protocol, port: u16) -> Self {
        Self {
            vrf,
            src_epg,
            dst_epg,
            protocol,
            port,
        }
    }
}

/// A TCAM rule as rendered in a switch's hardware table (T-type rule).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TcamRule {
    /// The match fields.
    pub matcher: RuleMatch,
    /// Action applied to matching traffic.
    pub action: Action,
    /// Priority; higher values win when rules overlap. The implicit
    /// deny-everything rule has priority 0.
    pub priority: u16,
}

impl TcamRule {
    /// Priority assigned to explicitly generated allow rules.
    pub const DEFAULT_ALLOW_PRIORITY: u16 = 100;

    /// Creates an allow rule with the default priority.
    pub fn allow(matcher: RuleMatch) -> Self {
        Self {
            matcher,
            action: Action::Allow,
            priority: Self::DEFAULT_ALLOW_PRIORITY,
        }
    }

    /// Creates a deny rule with the default priority.
    pub fn deny(matcher: RuleMatch) -> Self {
        Self {
            matcher,
            action: Action::Deny,
            priority: Self::DEFAULT_ALLOW_PRIORITY,
        }
    }

    /// Returns `true` if the rule matches `flow`.
    pub fn matches(&self, flow: &FlowKey) -> bool {
        self.matcher.covers(flow)
    }

    /// The (unordered) EPG pair this rule belongs to.
    pub fn pair(&self) -> EpgPair {
        self.matcher.pair()
    }
}

impl fmt::Display for TcamRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[p{}] {} {}", self.priority, self.matcher, self.action)
    }
}

/// Evaluates a list of TCAM rules against a flow using highest-priority-first,
/// whitelisting semantics: if no rule matches, the flow is denied.
///
/// Ties on priority are broken by taking the first matching rule in list order,
/// mirroring real TCAM lookup behaviour.
pub fn evaluate(rules: &[TcamRule], flow: &FlowKey) -> Action {
    let mut best: Option<&TcamRule> = None;
    for rule in rules {
        if rule.matches(flow) {
            match best {
                Some(b) if b.priority >= rule.priority => {}
                _ => best = Some(rule),
            }
        }
    }
    best.map(|r| r.action).unwrap_or(Action::Deny)
}

/// The provenance of a logical rule: the policy objects it was derived from.
///
/// Those objects are exactly the shared risks of the EPG pair behind the rule
/// (§III of the paper): the VRF, both EPGs, the contract, the filter and — once
/// the rule is assigned to a switch — that switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RuleProvenance {
    /// The VRF scoping the rule.
    pub vrf: VrfId,
    /// The consumer-side EPG.
    pub consumer: EpgId,
    /// The provider-side EPG.
    pub provider: EpgId,
    /// The contract that produced the rule.
    pub contract: ContractId,
    /// The filter entry's parent filter.
    pub filter: FilterId,
}

impl RuleProvenance {
    /// Creates the provenance record.
    pub fn new(
        vrf: VrfId,
        consumer: EpgId,
        provider: EpgId,
        contract: ContractId,
        filter: FilterId,
    ) -> Self {
        Self {
            vrf,
            consumer,
            provider,
            contract,
            filter,
        }
    }

    /// Policy objects the rule relies on, excluding the switch. An array, so
    /// the risk-marking hot paths iterate it without allocating.
    pub fn policy_objects(&self) -> [ObjectId; 5] {
        [
            ObjectId::Vrf(self.vrf),
            ObjectId::Epg(self.consumer),
            ObjectId::Epg(self.provider),
            ObjectId::Contract(self.contract),
            ObjectId::Filter(self.filter),
        ]
    }

    /// Policy objects plus the switch the rule is deployed on.
    pub fn objects_with_switch(&self, switch: SwitchId) -> [ObjectId; 6] {
        let [vrf, consumer, provider, contract, filter] = self.policy_objects();
        [
            vrf,
            consumer,
            provider,
            contract,
            filter,
            ObjectId::Switch(switch),
        ]
    }

    /// The (unordered) EPG pair of the rule.
    pub fn pair(&self) -> EpgPair {
        EpgPair::new(self.consumer, self.provider)
    }
}

/// A logical (L-type) rule: the TCAM rule the controller expects to see in a
/// given switch, together with its provenance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LogicalRule {
    /// The switch this rule must be rendered on.
    pub switch: SwitchId,
    /// The expected TCAM rule.
    pub rule: TcamRule,
    /// The objects the rule was derived from.
    pub provenance: RuleProvenance,
}

impl LogicalRule {
    /// Creates a logical rule destined for `switch`.
    pub fn new(switch: SwitchId, rule: TcamRule, provenance: RuleProvenance) -> Self {
        Self {
            switch,
            rule,
            provenance,
        }
    }

    /// The (unordered) EPG pair of the rule.
    pub fn pair(&self) -> EpgPair {
        self.rule.pair()
    }

    /// All objects (including the switch) this rule relies on.
    pub fn objects(&self) -> [ObjectId; 6] {
        self.provenance.objects_with_switch(self.switch)
    }
}

impl fmt::Display for LogicalRule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.rule, self.switch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_match() -> RuleMatch {
        RuleMatch::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Tcp,
            PortRange::single(80),
        )
    }

    #[test]
    fn rule_match_covers_exact_flow() {
        let m = sample_match();
        let flow = FlowKey::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Tcp,
            80,
        );
        assert!(m.covers(&flow));
    }

    #[test]
    fn rule_match_respects_direction() {
        let m = sample_match();
        let reverse = FlowKey::new(
            VrfId::new(101),
            EpgId::new(2),
            EpgId::new(1),
            Protocol::Tcp,
            80,
        );
        assert!(!m.covers(&reverse));
    }

    #[test]
    fn rule_match_respects_vrf_and_port() {
        let m = sample_match();
        let wrong_vrf = FlowKey::new(
            VrfId::new(102),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Tcp,
            80,
        );
        let wrong_port = FlowKey::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Tcp,
            81,
        );
        assert!(!m.covers(&wrong_vrf));
        assert!(!m.covers(&wrong_port));
    }

    #[test]
    fn evaluate_is_deny_by_default() {
        let flow = FlowKey::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Tcp,
            80,
        );
        assert_eq!(evaluate(&[], &flow), Action::Deny);
    }

    #[test]
    fn evaluate_prefers_higher_priority() {
        let m = sample_match();
        let allow = TcamRule {
            matcher: m,
            action: Action::Allow,
            priority: 10,
        };
        let deny = TcamRule {
            matcher: m,
            action: Action::Deny,
            priority: 20,
        };
        let flow = FlowKey::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Tcp,
            80,
        );
        assert_eq!(evaluate(&[allow, deny], &flow), Action::Deny);
        assert_eq!(evaluate(&[deny, allow], &flow), Action::Deny);
        let allow_hi = TcamRule {
            matcher: m,
            action: Action::Allow,
            priority: 30,
        };
        assert_eq!(evaluate(&[deny, allow_hi], &flow), Action::Allow);
    }

    #[test]
    fn evaluate_breaks_priority_ties_by_list_order() {
        let m = sample_match();
        let allow = TcamRule {
            matcher: m,
            action: Action::Allow,
            priority: 10,
        };
        let deny = TcamRule {
            matcher: m,
            action: Action::Deny,
            priority: 10,
        };
        let flow = FlowKey::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Tcp,
            80,
        );
        assert_eq!(evaluate(&[allow, deny], &flow), Action::Allow);
        assert_eq!(evaluate(&[deny, allow], &flow), Action::Deny);
    }

    #[test]
    fn provenance_lists_all_five_policy_objects() {
        let prov = RuleProvenance::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            ContractId::new(3),
            FilterId::new(4),
        );
        let objs = prov.policy_objects();
        assert_eq!(objs.len(), 5);
        assert!(objs.contains(&ObjectId::Vrf(VrfId::new(101))));
        assert!(objs.contains(&ObjectId::Epg(EpgId::new(1))));
        assert!(objs.contains(&ObjectId::Epg(EpgId::new(2))));
        assert!(objs.contains(&ObjectId::Contract(ContractId::new(3))));
        assert!(objs.contains(&ObjectId::Filter(FilterId::new(4))));
        let with_switch = prov.objects_with_switch(SwitchId::new(7));
        assert_eq!(with_switch.len(), 6);
        assert!(with_switch.contains(&ObjectId::Switch(SwitchId::new(7))));
    }

    #[test]
    fn logical_rule_pair_is_unordered() {
        let prov = RuleProvenance::new(
            VrfId::new(101),
            EpgId::new(2),
            EpgId::new(1),
            ContractId::new(3),
            FilterId::new(4),
        );
        let rule = TcamRule::allow(sample_match());
        let l = LogicalRule::new(SwitchId::new(1), rule, prov);
        assert_eq!(l.pair(), EpgPair::new(EpgId::new(1), EpgId::new(2)));
        assert_eq!(l.objects().len(), 6);
    }

    #[test]
    fn display_forms_are_informative() {
        let rule = TcamRule::allow(sample_match());
        let text = rule.to_string();
        assert!(text.contains("vrf-101"));
        assert!(text.contains("allow"));
        assert!(text.contains("80"));
    }
}
