//! Header-space encoding of TCAM rules as BDDs.
//!
//! The equivalence checker of the paper compares two ROBDDs, one built from the
//! logical (L-type) rules and one from the deployed TCAM (T-type) rules. A
//! [`TcamRule`] matches on five fields — VRF id, source EPG, destination EPG,
//! protocol and destination port — and [`HeaderSpace`] knows two layouts of
//! them over BDD variables:
//!
//! * **The sub-space (24 variables: protocol 8 + port 16)** is what the
//!   checker runs on. VRF and both EPGs are *exact-match* fields, so the
//!   checker keys rules by them (full `u32` ids, no encoding at all) and only
//!   the protocol/port part of a match becomes a diagram:
//!   [`HeaderSpace::sub_match`], on a manager from
//!   [`HeaderSpace::sub_manager_with`].
//! * **The full space (72 variables: VRF 16 + src EPG 16 + dst EPG 16 +
//!   protocol 8 + port 16)** is the reference: [`HeaderSpace::rule_match`]
//!   encodes a whole rule and [`HeaderSpace::allowed_space`] folds a whole
//!   rule list into one diagram, exactly the paper's formulation. Nothing on
//!   the checker's path uses it; the differential tests check the sliced
//!   checker against it.

use scout_bdd::{Bdd, BddManager, FieldEncoder, FieldLayout, NodeTableKind};
use scout_policy::{Action, PortRange, Protocol, TcamRule};

/// Bit width of the VRF id field.
pub const VRF_BITS: u32 = 16;
/// Bit width of each EPG class-id field.
pub const EPG_BITS: u32 = 16;
/// Bit width of the protocol field.
pub const PROTO_BITS: u32 = 8;
/// Bit width of the destination-port field.
pub const PORT_BITS: u32 = 16;

/// Field indexes within the full layout.
const F_VRF: usize = 0;
const F_SRC: usize = 1;
const F_DST: usize = 2;
const F_PROTO: usize = 3;
const F_PORT: usize = 4;

/// Field indexes within the sub-space layout.
const SUB_PROTO: usize = 0;
const SUB_PORT: usize = 1;

/// The header space used for L–T equivalence checking: the 72-variable
/// reference layout plus the 24-variable sub-space the checker runs on (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct HeaderSpace {
    layout: FieldLayout,
    sub_layout: FieldLayout,
}

impl Default for HeaderSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl HeaderSpace {
    /// Creates the standard header space: the full 72-bit layout (VRF, src
    /// EPG, dst EPG, protocol, port) and its 24-bit (protocol, port)
    /// sub-space.
    pub fn new() -> Self {
        Self {
            layout: FieldLayout::new(&[VRF_BITS, EPG_BITS, EPG_BITS, PROTO_BITS, PORT_BITS]),
            sub_layout: FieldLayout::new(&[PROTO_BITS, PORT_BITS]),
        }
    }

    /// Creates a BDD manager sized for the full (reference) layout.
    pub fn manager(&self) -> BddManager {
        self.layout.manager()
    }

    /// Total number of BDD variables of the full (reference) layout.
    pub fn total_vars(&self) -> u32 {
        self.layout.total_vars()
    }

    /// Creates a manager sized for the sub-space on an explicit node-table
    /// backend (the checker's baseline-vs-arena toggle routes through here).
    pub fn sub_manager_with(&self, kind: NodeTableKind) -> BddManager {
        BddManager::with_backend(self.sub_layout.total_vars(), kind)
    }

    /// Encodes the non-exact part of a match — protocol and destination-port
    /// range — as the set of (protocol, port) points it covers, on a
    /// sub-space manager.
    pub fn sub_match(&self, manager: &mut BddManager, protocol: Protocol, ports: PortRange) -> Bdd {
        proto_port(
            manager,
            self.sub_layout.field(SUB_PROTO),
            self.sub_layout.field(SUB_PORT),
            protocol,
            ports,
        )
    }

    /// Encodes the match portion of one rule as the set of packets it covers,
    /// on a full-layout manager.
    ///
    /// This is the reference encoding, not the checker's. It is only faithful
    /// for VRF and EPG ids below 2¹⁶: the three id fields are 16 bits wide
    /// and larger ids are truncated, so VRF 65 537 aliases VRF 1. The checker
    /// keys on the full `u32` ids instead.
    pub fn rule_match(&self, manager: &mut BddManager, rule: &TcamRule) -> Bdd {
        let m = &rule.matcher;
        let mut acc = Bdd::TRUE;
        for (field, id) in [
            (F_VRF, m.vrf.raw()),
            (F_SRC, m.src_epg.raw()),
            (F_DST, m.dst_epg.raw()),
        ] {
            let exact = self
                .layout
                .field(field)
                .exact(manager, u64::from(id & 0xffff));
            acc = manager.and(acc, exact);
        }
        let rest = proto_port(
            manager,
            self.layout.field(F_PROTO),
            self.layout.field(F_PORT),
            m.protocol,
            m.ports,
        );
        manager.and(acc, rest)
    }

    /// Encodes the *allowed space* of an ordered rule set under first-match,
    /// deny-by-default semantics.
    ///
    /// Rules are evaluated from the highest priority down (ties broken by list
    /// order, matching [`scout_policy::evaluate`]): a packet belongs to the
    /// allowed space if the first rule covering it has [`Action::Allow`].
    pub fn allowed_space(&self, manager: &mut BddManager, rules: &[TcamRule]) -> Bdd {
        allowed_space_with(manager, rules, |m, rule| self.rule_match(m, rule))
    }
}

/// `protocol ∧ ports` over the given field encoders — the part of a match
/// both layouts encode the same way.
fn proto_port(
    manager: &mut BddManager,
    proto_field: FieldEncoder,
    port_field: FieldEncoder,
    protocol: Protocol,
    ports: PortRange,
) -> Bdd {
    let proto = match protocol {
        Protocol::Any => Bdd::TRUE,
        p => proto_field.exact(manager, u64::from(p.code())),
    };
    let port = port_field.range(manager, u64::from(ports.start), u64::from(ports.end));
    manager.and(proto, port)
}

/// The first-match, deny-by-default allowed-space fold, parameterized over the
/// per-rule encoder so callers can plug in a memoizing one (see the checker's
/// match cache). This is the single home of the priority/tie-break semantics.
pub fn allowed_space_with<F>(manager: &mut BddManager, rules: &[TcamRule], encode: F) -> Bdd
where
    F: FnMut(&mut BddManager, &TcamRule) -> Bdd,
{
    allowed_space_traced_with(manager, rules, encode).0
}

/// Like [`allowed_space_with`], but also returns every rule's match diagram,
/// indexed in *input order* (`result.1[i]` is the match space of `rules[i]`).
///
/// Callers that need the per-rule spaces after the fold — the checker
/// classifying missing and unexpected rules is the motivating one — get them
/// from the single batched encode pass here instead of re-querying the
/// encoder rule by rule.
pub fn allowed_space_traced_with<F>(
    manager: &mut BddManager,
    rules: &[TcamRule],
    mut encode: F,
) -> (Bdd, Vec<Bdd>)
where
    F: FnMut(&mut BddManager, &TcamRule) -> Bdd,
{
    // Stable sort by descending priority preserves list order inside a
    // priority class, matching `scout_policy::evaluate`.
    let mut order: Vec<usize> = (0..rules.len()).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(rules[i].priority));

    let mut matches = vec![Bdd::FALSE; rules.len()];
    let mut covered = Bdd::FALSE;
    let mut allowed = Bdd::FALSE;
    for i in order {
        let rule = &rules[i];
        let matched = encode(manager, rule);
        matches[i] = matched;
        let effective = manager.diff(matched, covered);
        if rule.action == Action::Allow {
            allowed = manager.or(allowed, effective);
        }
        covered = manager.or(covered, matched);
    }
    (allowed, matches)
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::{EpgId, PortRange, RuleMatch, VrfId};

    fn matcher(port_start: u16, port_end: u16) -> RuleMatch {
        RuleMatch::new(
            VrfId::new(101),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Tcp,
            PortRange::new(port_start, port_end),
        )
    }

    #[test]
    fn rule_match_counts_ports() {
        let hs = HeaderSpace::new();
        let mut m = hs.manager();
        let rule = TcamRule::allow(matcher(80, 90));
        let bdd = hs.rule_match(&mut m, &rule);
        assert_eq!(m.sat_count(bdd), 11.0);
    }

    #[test]
    fn allowed_space_of_empty_ruleset_is_empty() {
        let hs = HeaderSpace::new();
        let mut m = hs.manager();
        assert!(hs.allowed_space(&mut m, &[]).is_false());
    }

    #[test]
    fn allow_rules_union() {
        let hs = HeaderSpace::new();
        let mut m = hs.manager();
        let r1 = TcamRule::allow(matcher(80, 80));
        let r2 = TcamRule::allow(matcher(443, 443));
        let allowed = hs.allowed_space(&mut m, &[r1, r2]);
        assert_eq!(m.sat_count(allowed), 2.0);
    }

    #[test]
    fn higher_priority_deny_shadows_allow() {
        let hs = HeaderSpace::new();
        let mut m = hs.manager();
        let allow = TcamRule::allow(matcher(80, 90));
        let mut deny = TcamRule::deny(matcher(85, 85));
        deny.priority = allow.priority + 10;
        let allowed = hs.allowed_space(&mut m, &[allow, deny]);
        assert_eq!(m.sat_count(allowed), 10.0);
    }

    #[test]
    fn lower_priority_deny_is_shadowed() {
        let hs = HeaderSpace::new();
        let mut m = hs.manager();
        let allow = TcamRule::allow(matcher(80, 90));
        let mut deny = TcamRule::deny(matcher(85, 85));
        deny.priority = allow.priority - 10;
        let allowed = hs.allowed_space(&mut m, &[allow, deny]);
        assert_eq!(m.sat_count(allowed), 11.0);
    }

    #[test]
    fn any_protocol_covers_all_codes() {
        let hs = HeaderSpace::new();
        let mut m = hs.manager();
        let rule = TcamRule::allow(RuleMatch::new(
            VrfId::new(1),
            EpgId::new(1),
            EpgId::new(2),
            Protocol::Any,
            PortRange::single(80),
        ));
        let bdd = hs.rule_match(&mut m, &rule);
        // Free over the 8 protocol bits: 256 satisfying headers.
        assert_eq!(m.sat_count(bdd), 256.0);
    }

    #[test]
    fn overlapping_identical_rules_do_not_double_count() {
        let hs = HeaderSpace::new();
        let mut m = hs.manager();
        let r = TcamRule::allow(matcher(80, 80));
        let allowed = hs.allowed_space(&mut m, &[r, r]);
        assert_eq!(m.sat_count(allowed), 1.0);
    }
}
