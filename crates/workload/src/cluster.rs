//! Production-cluster-like policy generator.
//!
//! The paper's simulation dataset comes from a production cluster with about
//! 30 Nexus switches, one APIC and hundreds of servers, containing 6 VRFs,
//! 615 EPGs, 386 contracts and 160 filters (§VI-A). The generator here is
//! calibrated to the published object counts and to the qualitative shape of
//! the object-sharing CDF of Figure 3:
//!
//! * most VRFs are shared by more than 100 EPG pairs, with a heavy tail
//!   reaching beyond 10,000 pairs;
//! * about half of the EPGs participate in more than 100 pairs;
//! * most switches carry 1,000s of EPG pairs;
//! * 70–80% of filters and contracts serve fewer than 10 pairs.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scout_policy::{
    Contract, ContractBinding, ContractId, Endpoint, EndpointId, Epg, EpgId, Filter, FilterEntry,
    FilterId, PolicyUniverse, PortRange, Protocol, Switch, SwitchId, Tenant, TenantId, Vrf, VrfId,
};

/// Parameters of the cluster-like generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ClusterSpec {
    /// Number of VRFs.
    pub vrfs: usize,
    /// Number of EPGs.
    pub epgs: usize,
    /// Number of contracts.
    pub contracts: usize,
    /// Number of filters.
    pub filters: usize,
    /// Number of leaf switches.
    pub switches: usize,
    /// Endpoints per EPG (uniform in `1..=max_endpoints_per_epg`).
    pub max_endpoints_per_epg: usize,
    /// Fraction of contracts with a heavy consumer fan-out (the Figure 3 tail).
    pub hub_contract_fraction: f64,
    /// Maximum consumer fan-out of a heavy contract.
    pub max_hub_fanout: usize,
    /// TCAM capacity of every switch.
    pub tcam_capacity: usize,
}

impl ClusterSpec {
    /// The full-scale spec matching the production cluster of §VI-A.
    pub fn paper() -> Self {
        Self {
            vrfs: 6,
            epgs: 615,
            contracts: 386,
            filters: 160,
            switches: 30,
            max_endpoints_per_epg: 3,
            hub_contract_fraction: 0.2,
            max_hub_fanout: 400,
            tcam_capacity: 64 * 1024,
        }
    }

    /// A scaled-down spec (≈1/10 of the paper's) used by tests and quick runs.
    pub fn small() -> Self {
        Self {
            vrfs: 3,
            epgs: 60,
            contracts: 40,
            filters: 16,
            switches: 8,
            max_endpoints_per_epg: 2,
            hub_contract_fraction: 0.2,
            max_hub_fanout: 40,
            tcam_capacity: 64 * 1024,
        }
    }

    /// Generates a policy universe from this spec with the given seed.
    ///
    /// The output is deterministic for a `(spec, seed)` pair.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero (the spec would be degenerate).
    pub fn generate(&self, seed: u64) -> PolicyUniverse {
        assert!(
            self.vrfs > 0
                && self.epgs > 0
                && self.contracts > 0
                && self.filters > 0
                && self.switches > 0,
            "cluster spec counts must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = PolicyUniverse::builder();

        // One tenant per VRF keeps the model simple; the paper notes a VRF can
        // serve several tenants but that does not change the risk structure.
        for v in 0..self.vrfs {
            let tenant = TenantId::new(v as u32);
            builder.tenant(Tenant::new(tenant, format!("tenant-{v}")));
            builder.vrf(Vrf::new(VrfId::new(v as u32), format!("vrf-{v}"), tenant));
        }

        // Switches.
        for s in 0..self.switches {
            builder.switch(Switch::with_capacity(
                SwitchId::new(s as u32),
                format!("leaf-{s}"),
                self.tcam_capacity,
            ));
        }

        // EPGs: VRF membership is skewed so that a couple of VRFs own most of
        // the EPGs (heavy VRF sharing in Figure 3).
        let vrf_weights: Vec<f64> = (0..self.vrfs).map(|v| 1.0 / ((v + 1) as f64)).collect();
        let vrf_total: f64 = vrf_weights.iter().sum();
        let mut epg_vrf = Vec::with_capacity(self.epgs);
        for e in 0..self.epgs {
            let mut pick = rng.gen_range(0.0..vrf_total);
            let mut chosen = 0;
            for (v, w) in vrf_weights.iter().enumerate() {
                if pick < *w {
                    chosen = v;
                    break;
                }
                pick -= w;
            }
            let vrf = VrfId::new(chosen as u32);
            epg_vrf.push(vrf);
            builder.epg(Epg::new(EpgId::new(e as u32), format!("epg-{e}"), vrf));
        }

        // Endpoints: each EPG gets a few endpoints on a couple of switches so
        // that every switch ends up hosting many pairs.
        let mut endpoint_id = 0u32;
        for e in 0..self.epgs {
            let count = rng.gen_range(1..=self.max_endpoints_per_epg);
            for _ in 0..count {
                let switch = SwitchId::new(rng.gen_range(0..self.switches) as u32);
                builder.endpoint(Endpoint::new(
                    EndpointId::new(endpoint_id),
                    format!("ep-{endpoint_id}"),
                    EpgId::new(e as u32),
                    switch,
                ));
                endpoint_id += 1;
            }
        }

        // Filters: one to three allow entries on common service ports.
        let common_ports: [u16; 12] = [22, 25, 53, 80, 123, 443, 700, 1433, 3306, 5432, 8080, 8443];
        for f in 0..self.filters {
            let entries = (0..rng.gen_range(1..=3usize))
                .map(|_| {
                    let port = common_ports[rng.gen_range(0..common_ports.len())];
                    let protocol = if rng.gen_bool(0.85) {
                        Protocol::Tcp
                    } else {
                        Protocol::Udp
                    };
                    FilterEntry::allow(protocol, PortRange::single(port))
                })
                .collect();
            builder.filter(Filter::new(
                FilterId::new(f as u32),
                format!("filter-{f}"),
                entries,
            ));
        }

        // Contracts: a skewed number of filters per contract, filter popularity
        // follows a Zipf-like distribution so a few filters are reused widely.
        let filter_rank: Vec<FilterId> = {
            let mut ids: Vec<FilterId> =
                (0..self.filters).map(|f| FilterId::new(f as u32)).collect();
            ids.shuffle(&mut rng);
            ids
        };
        let pick_filter = |rng: &mut StdRng| -> FilterId {
            // Zipf-ish: rank r chosen with probability proportional to 1/(r+1).
            let weights: f64 = (0..filter_rank.len()).map(|r| 1.0 / (r as f64 + 1.0)).sum();
            let mut pick = rng.gen_range(0.0..weights);
            for (r, &id) in filter_rank.iter().enumerate() {
                let w = 1.0 / (r as f64 + 1.0);
                if pick < w {
                    return id;
                }
                pick -= w;
            }
            *filter_rank.last().expect("at least one filter")
        };
        for c in 0..self.contracts {
            let count = rng.gen_range(1..=3usize);
            let mut filters = Vec::new();
            for _ in 0..count {
                let f = pick_filter(&mut rng);
                if !filters.contains(&f) {
                    filters.push(f);
                }
            }
            builder.contract(Contract::new(
                ContractId::new(c as u32),
                format!("contract-{c}"),
                filters,
            ));
        }

        // Bindings: most contracts bind a handful of pairs; a minority are
        // "hub" contracts (shared services) consumed by many EPGs, which
        // creates the heavy tails of Figure 3. Consumers are drawn with
        // preferential attachment towards low-index EPGs of the same VRF.
        let mut epgs_by_vrf: Vec<Vec<EpgId>> = vec![Vec::new(); self.vrfs];
        for (e, vrf) in epg_vrf.iter().enumerate() {
            epgs_by_vrf[vrf.raw() as usize].push(EpgId::new(e as u32));
        }
        for c in 0..self.contracts {
            let contract = ContractId::new(c as u32);
            // Choose the provider from a random non-empty VRF.
            let vrf_index = loop {
                let v = rng.gen_range(0..self.vrfs);
                if !epgs_by_vrf[v].is_empty() {
                    break v;
                }
            };
            let members = &epgs_by_vrf[vrf_index];
            let provider = members[rng.gen_range(0..members.len())];
            let is_hub = rng.gen_bool(self.hub_contract_fraction) && members.len() > 10;
            let fanout = if is_hub {
                let cap = self
                    .max_hub_fanout
                    .min(members.len().saturating_sub(1))
                    .max(1);
                rng.gen_range(10..=cap.max(10))
            } else {
                rng.gen_range(1..=9usize)
            };
            let mut consumers = std::collections::BTreeSet::new();
            let mut attempts = 0;
            while consumers.len() < fanout && attempts < fanout * 10 {
                attempts += 1;
                // Preferential attachment: square the uniform sample so small
                // indices (hub EPGs) are chosen more often.
                let u: f64 = rng.gen_range(0.0..1.0);
                let idx = ((u * u) * members.len() as f64) as usize;
                let candidate = members[idx.min(members.len() - 1)];
                if candidate != provider {
                    consumers.insert(candidate);
                }
            }
            for consumer in consumers {
                builder.bind(ContractBinding::new(consumer, provider, contract));
            }
        }

        let universe = builder
            .build()
            .expect("generated cluster policy must be internally consistent");
        // A generated universe is deployed, which queries all of it.
        universe.ensure_indexed();
        universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::ObjectClass;

    #[test]
    fn small_cluster_builds_with_expected_counts() {
        let u = ClusterSpec::small().generate(1);
        let stats = u.stats();
        assert_eq!(stats.vrfs, 3);
        assert_eq!(stats.epgs, 60);
        assert_eq!(stats.contracts, 40);
        assert_eq!(stats.filters, 16);
        assert_eq!(stats.switches, 8);
        assert!(
            stats.epg_pairs > 40,
            "expected a reasonable number of pairs"
        );
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let spec = ClusterSpec::small();
        assert_eq!(spec.generate(7), spec.generate(7));
        assert_ne!(spec.generate(7), spec.generate(8));
    }

    #[test]
    fn sharing_distribution_is_heavy_tailed() {
        let u = ClusterSpec::small().generate(3);
        let per_object = u.pairs_per_object();
        // Switch and VRF objects must carry far more pairs than the median
        // filter/contract.
        let max_vrf = per_object
            .iter()
            .filter(|(o, _)| o.class() == ObjectClass::Vrf)
            .map(|(_, pairs)| pairs.len())
            .max()
            .unwrap();
        let mut contract_counts: Vec<usize> = per_object
            .iter()
            .filter(|(o, _)| o.class() == ObjectClass::Contract)
            .map(|(_, pairs)| pairs.len())
            .collect();
        contract_counts.sort_unstable();
        let median_contract = contract_counts[contract_counts.len() / 2];
        assert!(
            max_vrf >= 10 * median_contract.max(1),
            "VRFs should be shared by far more pairs than a median contract \
             (max_vrf={max_vrf}, median_contract={median_contract})"
        );
        // A majority of contracts serve fewer than 10 pairs (Figure 3).
        let small_contracts = contract_counts.iter().filter(|&&c| c < 10).count();
        assert!(small_contracts * 10 >= contract_counts.len() * 6);
    }

    #[test]
    fn every_switch_hosts_pairs() {
        let u = ClusterSpec::small().generate(5);
        for switch in u.switch_ids() {
            assert!(
                !u.pairs_on_switch(switch).is_empty(),
                "{switch} hosts no pairs"
            );
        }
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_counts_are_rejected() {
        let mut spec = ClusterSpec::small();
        spec.filters = 0;
        let _ = spec.generate(1);
    }

    #[test]
    fn paper_spec_has_published_counts() {
        let spec = ClusterSpec::paper();
        assert_eq!(spec.vrfs, 6);
        assert_eq!(spec.epgs, 615);
        assert_eq!(spec.contracts, 386);
        assert_eq!(spec.filters, 160);
        assert_eq!(spec.switches, 30);
    }
}
