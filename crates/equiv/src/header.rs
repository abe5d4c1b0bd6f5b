//! Header-space encoding of TCAM rules as BDDs: the paper's formulation,
//! kept as the reference the equivalence checker is tested against.
//!
//! The paper's checker compares two ROBDDs, one built from the logical
//! (L-type) rules and one from the deployed TCAM (T-type) rules. A
//! [`TcamRule`] matches on five fields — VRF id, source EPG, destination EPG,
//! protocol and destination port — laid out over 72 BDD variables (VRF 16 +
//! src EPG 16 + dst EPG 16 + protocol 8 + port 16).
//! [`HeaderSpace::rule_match`] encodes a whole rule and
//! [`HeaderSpace::allowed_space`] folds a whole rule list into one diagram.
//!
//! Nothing on the checker's path uses it: the
//! [`EquivalenceChecker`](crate::EquivalenceChecker) compares exact
//! port-interval lists instead (see [`crate::checker`]), and
//! `tests/sliced.rs` checks every one of its results against this encoding.

use scout_bdd::{Bdd, BddManager, FieldLayout};
use scout_policy::{Action, Protocol, TcamRule};

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

/// The 72-variable header space of the paper's L–T equivalence check (see
/// the [module docs](self)).
#[derive(Debug, Clone)]
pub struct HeaderSpace {
    layout: FieldLayout,
}

impl Default for HeaderSpace {
    fn default() -> Self {
        Self::new()
    }
}

impl HeaderSpace {
    /// Creates the standard header space: the 72-bit layout (VRF, src EPG,
    /// dst EPG, protocol, port).
    pub fn new() -> Self {
        Self {
            layout: FieldLayout::new(&[VRF_BITS, EPG_BITS, EPG_BITS, PROTO_BITS, PORT_BITS]),
        }
    }

    /// Creates a BDD manager sized for the layout.
    pub fn manager(&self) -> BddManager {
        self.layout.manager()
    }

    /// Total number of BDD variables of the layout.
    pub fn total_vars(&self) -> u32 {
        self.layout.total_vars()
    }

    /// Encodes the match portion of one rule as the set of packets it covers.
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
        if m.protocol != Protocol::Any {
            let proto = self
                .layout
                .field(F_PROTO)
                .exact(manager, u64::from(m.protocol.code()));
            acc = manager.and(acc, proto);
        }
        let port = self.layout.field(F_PORT).range(
            manager,
            u64::from(m.ports.start),
            u64::from(m.ports.end),
        );
        manager.and(acc, port)
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

/// The first-match, deny-by-default allowed-space fold, parameterized over the
/// per-rule encoder. This is the reference statement of the priority and
/// tie-break semantics the checker's interval fold must reproduce.
pub fn allowed_space_with<F>(manager: &mut BddManager, rules: &[TcamRule], encode: F) -> Bdd
where
    F: FnMut(&mut BddManager, &TcamRule) -> Bdd,
{
    allowed_space_traced_with(manager, rules, encode).0
}

/// Like [`allowed_space_with`], but also returns every rule's match diagram,
/// indexed in *input order* (`result.1[i]` is the match space of `rules[i]`).
///
/// Callers that need the per-rule spaces after the fold — the reference
/// check classifying missing and unexpected rules in `tests/sliced.rs` — get
/// them from the single batched encode pass here instead of re-querying the
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
