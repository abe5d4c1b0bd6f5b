//! Universe generators shared by the root test suites.

use scout::policy::{
    Contract, ContractBinding, ContractId, Endpoint, EndpointId, Epg, EpgId, Filter, FilterId,
    PolicyUniverse, Switch, SwitchId, Tenant, TenantId, Vrf, VrfId,
};

/// One EPG on `switches` switches, bound to `spokes` single-endpoint EPGs by
/// one contract of `filters` filters. Every pair shares the hub's switches,
/// so an index that materialized pairs × closure × hosts would be large.
/// One spare switch hosts nothing and one spare filter is in no contract.
pub fn hub(switches: u32, spokes: u32, filters: u32) -> PolicyUniverse {
    let tenant = TenantId::new(0);
    let vrf = VrfId::new(0);
    let contract = ContractId::new(0);
    let hub_epg = EpgId::new(0);
    let mut b = PolicyUniverse::builder();
    b.tenant(Tenant::new(tenant, "hub-tenant"))
        .vrf(Vrf::new(vrf, "hub-vrf", tenant));
    for f in 0..=filters {
        b.filter(Filter::tcp_port(
            FilterId::new(f),
            format!("hub-filter-{f}"),
            1000 + f as u16,
        ));
    }
    b.contract(Contract::new(
        contract,
        "hub-contract",
        (0..filters).map(FilterId::new).collect::<Vec<_>>(),
    ));
    for s in 0..=switches {
        b.switch(Switch::new(SwitchId::new(s), format!("hub-leaf-{s}")));
    }
    b.epg(Epg::new(hub_epg, "hub", vrf));
    let mut endpoint = 0u32;
    for s in 0..switches {
        b.endpoint(Endpoint::new(
            EndpointId::new(endpoint),
            format!("hub-ep-{endpoint}"),
            hub_epg,
            SwitchId::new(s),
        ));
        endpoint += 1;
    }
    for i in 1..=spokes {
        let spoke = EpgId::new(i);
        b.epg(Epg::new(spoke, format!("spoke-{i}"), vrf));
        b.endpoint(Endpoint::new(
            EndpointId::new(endpoint),
            format!("spoke-ep-{endpoint}"),
            spoke,
            SwitchId::new(i % switches),
        ));
        endpoint += 1;
        b.bind(ContractBinding::new(spoke, hub_epg, contract));
    }
    b.build().expect("the hub universe is well-formed")
}
