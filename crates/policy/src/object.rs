//! Policy object definitions.
//!
//! The object model mirrors the abstraction used by application-centric policy
//! controllers (Cisco APIC, GBP, PGA): tenants own VRFs, VRFs scope EPGs, EPGs
//! contain endpoints attached to leaf switches, and contracts glue EPG pairs to
//! filters which whitelist protocol/port combinations (§II-A of the paper).

use crate::ids::{ContractId, EndpointId, EpgId, FilterId, SwitchId, TenantId, VrfId};
use crate::inline::{FilterList, Name};

/// An administrative tenant owning a slice of the policy.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Tenant {
    /// Unique tenant identifier.
    pub id: TenantId,
    /// Human-readable name, e.g. `"acme"`.
    pub name: Name,
}

impl Tenant {
    /// Creates a tenant with the given id and name.
    pub fn new(id: TenantId, name: impl Into<Name>) -> Self {
        Self {
            id,
            name: name.into(),
        }
    }
}

/// A virtual routing and forwarding context (layer-3 private network).
///
/// All EPGs of a tenant policy live inside a VRF; rules never cross VRFs.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Vrf {
    /// Unique VRF identifier.
    pub id: VrfId,
    /// Human-readable name, e.g. `"prod-net"`.
    pub name: Name,
    /// Owning tenant.
    pub tenant: TenantId,
}

impl Vrf {
    /// Creates a VRF owned by `tenant`.
    pub fn new(id: VrfId, name: impl Into<Name>, tenant: TenantId) -> Self {
        Self {
            id,
            name: name.into(),
            tenant,
        }
    }
}

/// An endpoint group: a set of endpoints that share the same policy treatment
/// (e.g. all web-tier VMs).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Epg {
    /// Unique EPG identifier.
    pub id: EpgId,
    /// Human-readable name, e.g. `"Web"`.
    pub name: Name,
    /// The VRF scoping this EPG.
    pub vrf: VrfId,
}

impl Epg {
    /// Creates an EPG scoped to `vrf`.
    pub fn new(id: EpgId, name: impl Into<Name>, vrf: VrfId) -> Self {
        Self {
            id,
            name: name.into(),
            vrf,
        }
    }
}

/// An individual endpoint (server, VM or middlebox interface) and the leaf
/// switch it is attached to.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Endpoint {
    /// Unique endpoint identifier.
    pub id: EndpointId,
    /// Human-readable name, e.g. `"web-vm-3"`.
    pub name: Name,
    /// The EPG this endpoint belongs to.
    pub epg: EpgId,
    /// The leaf switch this endpoint is attached to.
    pub switch: SwitchId,
}

impl Endpoint {
    /// Creates an endpoint in `epg` attached to `switch`.
    pub fn new(id: EndpointId, name: impl Into<Name>, epg: EpgId, switch: SwitchId) -> Self {
        Self {
            id,
            name: name.into(),
            epg,
            switch,
        }
    }
}

/// A physical leaf switch of the fabric.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Switch {
    /// Unique switch identifier.
    pub id: SwitchId,
    /// Human-readable name, e.g. `"leaf-101"`.
    pub name: Name,
    /// Number of TCAM entries this switch can hold.
    pub tcam_capacity: usize,
}

impl Switch {
    /// Default TCAM capacity used when none is specified.
    pub const DEFAULT_TCAM_CAPACITY: usize = 64 * 1024;

    /// Creates a switch with the default TCAM capacity.
    pub fn new(id: SwitchId, name: impl Into<Name>) -> Self {
        Self::with_capacity(id, name, Self::DEFAULT_TCAM_CAPACITY)
    }

    /// Creates a switch with an explicit TCAM capacity.
    pub fn with_capacity(id: SwitchId, name: impl Into<Name>, tcam_capacity: usize) -> Self {
        Self {
            id,
            name: name.into(),
            tcam_capacity,
        }
    }
}

/// The transport protocol matched by a filter entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Protocol {
    /// Match any IP protocol.
    Any,
    /// TCP (protocol number 6).
    Tcp,
    /// UDP (protocol number 17).
    Udp,
    /// ICMP (protocol number 1).
    Icmp,
}

impl Protocol {
    /// Numeric encoding used in the TCAM header space (0 is reserved for "any").
    pub fn code(self) -> u8 {
        match self {
            Protocol::Any => 0,
            Protocol::Icmp => 1,
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
        }
    }

    /// Returns `true` if `self` matches packets of `other`.
    ///
    /// [`Protocol::Any`] matches every protocol; a concrete protocol only
    /// matches itself.
    pub fn matches(self, other: Protocol) -> bool {
        self == Protocol::Any || self == other
    }
}

impl std::fmt::Display for Protocol {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Protocol::Any => "any",
            Protocol::Tcp => "tcp",
            Protocol::Udp => "udp",
            Protocol::Icmp => "icmp",
        };
        f.write_str(s)
    }
}

/// An inclusive destination-port range matched by a filter entry.
///
/// `PortRange::any()` matches every port (used for ICMP or port-less filters).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PortRange {
    /// Lowest port matched (inclusive).
    pub start: u16,
    /// Highest port matched (inclusive).
    pub end: u16,
}

impl PortRange {
    /// A range covering every port.
    pub const fn any() -> Self {
        Self {
            start: 0,
            end: u16::MAX,
        }
    }

    /// A range matching exactly one port.
    pub const fn single(port: u16) -> Self {
        Self {
            start: port,
            end: port,
        }
    }

    /// A range matching `[start, end]`.
    ///
    /// # Panics
    ///
    /// Panics if `start > end`.
    pub fn new(start: u16, end: u16) -> Self {
        assert!(start <= end, "port range start must not exceed end");
        Self { start, end }
    }

    /// Returns `true` if `port` is inside the range.
    pub fn contains(&self, port: u16) -> bool {
        self.start <= port && port <= self.end
    }

    /// Returns `true` if the range covers every port.
    pub fn is_any(&self) -> bool {
        self.start == 0 && self.end == u16::MAX
    }

    /// Returns `true` if the two ranges share at least one port.
    pub fn overlaps(&self, other: &PortRange) -> bool {
        self.start <= other.end && other.start <= self.end
    }

    /// Number of ports covered by the range.
    pub fn len(&self) -> u32 {
        u32::from(self.end) - u32::from(self.start) + 1
    }

    /// A port range is never empty; provided for clippy-friendliness alongside
    /// [`PortRange::len`].
    pub fn is_empty(&self) -> bool {
        false
    }
}

impl Default for PortRange {
    fn default() -> Self {
        Self::any()
    }
}

impl std::fmt::Display for PortRange {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_any() {
            f.write_str("*")
        } else if self.start == self.end {
            write!(f, "{}", self.start)
        } else {
            write!(f, "{}-{}", self.start, self.end)
        }
    }
}

/// Whether matched traffic is permitted or dropped.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Action {
    /// Permit matching traffic.
    Allow,
    /// Drop matching traffic.
    Deny,
}

impl std::fmt::Display for Action {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Action::Allow => f.write_str("allow"),
            Action::Deny => f.write_str("deny"),
        }
    }
}

/// A single entry of a filter: protocol + destination-port range + action.
///
/// The paper's example "Filter: port 80/allow" corresponds to
/// `FilterEntry::allow(Protocol::Tcp, PortRange::single(80))`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FilterEntry {
    /// Matched transport protocol.
    pub protocol: Protocol,
    /// Matched destination-port range.
    pub ports: PortRange,
    /// Action applied to matching traffic.
    pub action: Action,
}

impl FilterEntry {
    /// Creates an allow entry.
    pub fn allow(protocol: Protocol, ports: PortRange) -> Self {
        Self {
            protocol,
            ports,
            action: Action::Allow,
        }
    }

    /// Creates an allow entry for a single TCP port — the most common shape in
    /// the paper's examples.
    pub fn allow_tcp_port(port: u16) -> Self {
        Self::allow(Protocol::Tcp, PortRange::single(port))
    }
}

impl std::fmt::Display for FilterEntry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}/{}:{}", self.protocol, self.ports, self.action)
    }
}

/// A filter: a named set of whitelist entries.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Filter {
    /// Unique filter identifier.
    pub id: FilterId,
    /// Human-readable name, e.g. `"http"`.
    pub name: Name,
    /// The entries of the filter, in match order.
    pub entries: Vec<FilterEntry>,
}

impl Filter {
    /// Creates a filter from its entries.
    pub fn new(id: FilterId, name: impl Into<Name>, entries: Vec<FilterEntry>) -> Self {
        Self {
            id,
            name: name.into(),
            entries,
        }
    }

    /// Creates a single-entry filter allowing one TCP port.
    pub fn tcp_port(id: FilterId, name: impl Into<Name>, port: u16) -> Self {
        Self::new(id, name, vec![FilterEntry::allow_tcp_port(port)])
    }
}

/// A contract: the glue object binding consumer/provider EPG pairs to a set of
/// filters (§II-A of the paper).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Contract {
    /// Unique contract identifier.
    pub id: ContractId,
    /// Human-readable name, e.g. `"Web-App"`.
    pub name: Name,
    /// Filters applied between bound EPG pairs, in list order.
    pub filters: FilterList,
}

impl Contract {
    /// Creates a contract referencing the given filters.
    pub fn new(id: ContractId, name: impl Into<Name>, filters: impl Into<FilterList>) -> Self {
        Self {
            id,
            name: name.into(),
            filters: filters.into(),
        }
    }
}

/// A binding between a consumer EPG and a provider EPG through a contract.
///
/// Each binding yields one *EPG pair* in the risk models; directional TCAM
/// rules are generated for both directions of the pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ContractBinding {
    /// The consumer-side EPG (traffic initiator).
    pub consumer: EpgId,
    /// The provider-side EPG (service side).
    pub provider: EpgId,
    /// The contract governing the pair.
    pub contract: ContractId,
}

impl ContractBinding {
    /// Creates a binding of `consumer` and `provider` through `contract`.
    pub fn new(consumer: EpgId, provider: EpgId, contract: ContractId) -> Self {
        Self {
            consumer,
            provider,
            contract,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protocol_any_matches_everything() {
        for p in [Protocol::Tcp, Protocol::Udp, Protocol::Icmp, Protocol::Any] {
            assert!(Protocol::Any.matches(p));
        }
        assert!(!Protocol::Tcp.matches(Protocol::Udp));
        assert!(Protocol::Tcp.matches(Protocol::Tcp));
    }

    #[test]
    fn protocol_codes_are_standard() {
        assert_eq!(Protocol::Tcp.code(), 6);
        assert_eq!(Protocol::Udp.code(), 17);
        assert_eq!(Protocol::Icmp.code(), 1);
        assert_eq!(Protocol::Any.code(), 0);
    }

    #[test]
    fn port_range_contains_and_overlaps() {
        let r = PortRange::new(80, 90);
        assert!(r.contains(80));
        assert!(r.contains(90));
        assert!(!r.contains(91));
        assert!(r.overlaps(&PortRange::single(85)));
        assert!(r.overlaps(&PortRange::new(90, 100)));
        assert!(!r.overlaps(&PortRange::new(91, 100)));
        assert_eq!(r.len(), 11);
        assert!(!r.is_empty());
    }

    #[test]
    fn port_range_any_covers_all() {
        let any = PortRange::any();
        assert!(any.is_any());
        assert!(any.contains(0));
        assert!(any.contains(u16::MAX));
        assert_eq!(any.len(), 65536);
        assert_eq!(any.to_string(), "*");
    }

    #[test]
    #[should_panic(expected = "port range start")]
    fn port_range_rejects_inverted_bounds() {
        let _ = PortRange::new(10, 5);
    }

    #[test]
    fn filter_entry_display_matches_paper_style() {
        let e = FilterEntry::allow_tcp_port(80);
        assert_eq!(e.to_string(), "tcp/80:allow");
        assert_eq!(e.action, Action::Allow);
    }

    #[test]
    fn single_port_display() {
        assert_eq!(PortRange::single(700).to_string(), "700");
        assert_eq!(PortRange::new(100, 200).to_string(), "100-200");
    }

    #[test]
    fn switch_default_capacity_is_used() {
        let s = Switch::new(SwitchId::new(1), "leaf-1");
        assert_eq!(s.tcam_capacity, Switch::DEFAULT_TCAM_CAPACITY);
        let s2 = Switch::with_capacity(SwitchId::new(2), "leaf-2", 128);
        assert_eq!(s2.tcam_capacity, 128);
    }

    #[test]
    fn constructors_store_names() {
        let t = Tenant::new(TenantId::new(0), "acme");
        assert_eq!(t.name, "acme");
        let v = Vrf::new(VrfId::new(101), "prod", t.id);
        assert_eq!(v.tenant, t.id);
        let e = Epg::new(EpgId::new(1), "Web", v.id);
        assert_eq!(e.vrf, v.id);
        let ep = Endpoint::new(EndpointId::new(9), "web-1", e.id, SwitchId::new(1));
        assert_eq!(ep.epg, e.id);
        let f = Filter::tcp_port(FilterId::new(3), "http", 80);
        assert_eq!(f.entries.len(), 1);
        let c = Contract::new(ContractId::new(7), "Web-App", vec![f.id]);
        assert_eq!(c.filters, vec![f.id]);
        let b = ContractBinding::new(e.id, EpgId::new(2), c.id);
        assert_eq!(b.contract, c.id);
    }
}
