//! Scaling generator for the scalability experiment.
//!
//! The paper measures SCOUT's running time on a controller risk model built
//! from the production policy deployed on 10 switches and scaled "up to 500
//! switches by adding new EPG and switch pairs" (§VI-B). This generator mimics
//! that procedure: a base policy fragment is replicated per leaf switch, so
//! the number of `(switch, EPG pair)` triplets — and therefore the size of the
//! controller risk model — grows linearly with the switch count, while a set
//! of shared objects (VRFs and popular filters) keeps the model connected the
//! way the production policy is.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scout_policy::{
    Contract, ContractBinding, ContractId, Endpoint, EndpointId, Epg, EpgId, Filter, FilterEntry,
    FilterId, PolicyUniverse, PortRange, Protocol, Switch, SwitchId, Tenant, TenantId, Vrf, VrfId,
};

/// Parameters of the scaling generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScaleSpec {
    /// Number of leaf switches (the scaling knob; paper: 10 → 500).
    pub switches: usize,
    /// EPGs added per switch.
    pub epgs_per_switch: usize,
    /// EPG pairs (bindings) added per switch.
    pub pairs_per_switch: usize,
    /// Number of globally shared filters.
    pub shared_filters: usize,
    /// Number of VRFs shared across the fabric.
    pub vrfs: usize,
}

impl ScaleSpec {
    /// A spec with the given switch count and the per-switch densities used by
    /// the scalability experiment (≈60 triplets per switch).
    pub fn with_switches(switches: usize) -> Self {
        Self {
            switches,
            epgs_per_switch: 12,
            pairs_per_switch: 30,
            shared_filters: 40,
            vrfs: 6,
        }
    }

    /// The large-fabric preset family (the `ingest_scale` benchmark's
    /// 1000/2000-switch sweeps): production-scale switch counts at leaner
    /// per-switch densities — 8 EPGs and 16 local pairs per switch, with a
    /// wider shared-filter pool — so the policy keeps the sharing shape of
    /// [`ScaleSpec::with_switches`] while a multi-thousand-switch universe
    /// generates in tens of milliseconds.
    pub fn large_fabric(switches: usize) -> Self {
        Self {
            switches,
            epgs_per_switch: 8,
            pairs_per_switch: 16,
            shared_filters: 64,
            vrfs: 8,
        }
    }

    /// The 1000-switch member of the [`ScaleSpec::large_fabric`] family.
    pub fn large_1k() -> Self {
        Self::large_fabric(1000)
    }

    /// Generates the scaled policy with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if `switches` or any density parameter is zero.
    pub fn generate(&self, seed: u64) -> PolicyUniverse {
        assert!(
            self.switches > 0
                && self.epgs_per_switch > 1
                && self.pairs_per_switch > 0
                && self.shared_filters > 0
                && self.vrfs > 0,
            "scale spec parameters must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = PolicyUniverse::builder();
        builder.reserve_fabric(self.switches, self.epgs_per_switch, self.pairs_per_switch);

        let tenant = TenantId::new(0);
        builder.tenant(Tenant::new(tenant, "scale-tenant"));
        for v in 0..self.vrfs {
            builder.vrf(Vrf::new(
                VrfId::new(v as u32),
                format!("scale-vrf-{v}"),
                tenant,
            ));
        }
        for f in 0..self.shared_filters {
            builder.filter(Filter::new(
                FilterId::new(f as u32),
                format!("scale-filter-{f}"),
                vec![FilterEntry::allow(
                    Protocol::Tcp,
                    PortRange::single(1024 + (f as u16 % 100)),
                )],
            ));
        }

        let mut endpoint_id = 0u32;
        let mut contract_id = 0u32;
        for s in 0..self.switches {
            let switch = SwitchId::new(s as u32);
            builder.switch(Switch::new(switch, format!("scale-leaf-{s}")));

            // The EPGs hosted on this switch, all in the same (rotating) VRF so
            // that pairs stay intra-VRF.
            let vrf = VrfId::new((s % self.vrfs) as u32);
            let base_epg = (s * self.epgs_per_switch) as u32;
            for e in 0..self.epgs_per_switch {
                let epg = EpgId::new(base_epg + e as u32);
                builder.epg(Epg::new(epg, format!("scale-epg-{s}-{e}"), vrf));
                builder.endpoint(Endpoint::new(
                    EndpointId::new(endpoint_id),
                    format!("scale-ep-{endpoint_id}"),
                    epg,
                    switch,
                ));
                endpoint_id += 1;
            }

            // Local pairs between EPGs of this switch, each through its own
            // contract referencing one of the shared filters.
            for _ in 0..self.pairs_per_switch {
                let a = rng.gen_range(0..self.epgs_per_switch) as u32;
                let mut b = rng.gen_range(0..self.epgs_per_switch) as u32;
                if a == b {
                    b = (b + 1) % self.epgs_per_switch as u32;
                }
                let filter = FilterId::new(rng.gen_range(0..self.shared_filters) as u32);
                let contract = ContractId::new(contract_id);
                contract_id += 1;
                builder.contract(Contract::new(
                    contract,
                    format!("scale-contract-{contract_id}"),
                    vec![filter],
                ));
                builder.bind(ContractBinding::new(
                    EpgId::new(base_epg + a),
                    EpgId::new(base_epg + b),
                    contract,
                ));
            }
        }

        let universe = builder
            .build()
            .expect("generated scale policy must be internally consistent");
        // A generated universe is deployed, which queries all of it.
        universe.ensure_indexed();
        universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn model_size_grows_linearly_with_switches() {
        let small = ScaleSpec::with_switches(5).generate(1);
        let large = ScaleSpec::with_switches(20).generate(1);
        let small_pairs = small.stats().epg_pairs;
        let large_pairs = large.stats().epg_pairs;
        assert!(large_pairs >= 3 * small_pairs);
        assert_eq!(large.stats().switches, 20);
    }

    #[test]
    fn pairs_are_local_to_their_switch() {
        let u = ScaleSpec::with_switches(4).generate(2);
        for pair in u.epg_pairs() {
            let switches = u.switches_for_pair(pair);
            assert_eq!(switches.len(), 1, "scaled pairs live on a single switch");
        }
    }

    #[test]
    fn shared_filters_are_reused_across_switches() {
        let u = ScaleSpec::with_switches(10).generate(3);
        let per_object = u.pairs_per_object();
        let max_filter_pairs = per_object
            .iter()
            .filter(|(o, _)| o.is_filter())
            .map(|(_, p)| p.len())
            .max()
            .unwrap();
        assert!(
            max_filter_pairs > 3,
            "filters must be shared across switches"
        );
    }

    #[test]
    fn large_fabric_presets_scale() {
        assert_eq!(ScaleSpec::large_1k().switches, 1000);
        // Spot-check a scaled-down family member for the expected shape.
        let spec = ScaleSpec::large_fabric(12);
        let u = spec.generate(5);
        assert_eq!(u.stats().switches, 12);
        assert_eq!(u.stats().vrfs, spec.vrfs);
        assert!(u.stats().epg_pairs > 0);
        for pair in u.epg_pairs() {
            assert_eq!(u.switches_for_pair(pair).len(), 1);
        }
        assert_eq!(u, spec.generate(5), "family generation stays deterministic");
    }

    #[test]
    fn generation_is_deterministic() {
        let spec = ScaleSpec::with_switches(6);
        assert_eq!(spec.generate(9), spec.generate(9));
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn zero_switches_rejected() {
        let _ = ScaleSpec::with_switches(0).generate(1);
    }
}
