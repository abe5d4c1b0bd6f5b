//! Testbed policy generator.
//!
//! The paper's testbed experiments (Figures 7(a) and 10) run on a small policy
//! built "based on the statistics of the number of EPGs and their dependency
//! on other policy objects obtained from the cluster dataset": 36 EPGs,
//! 24 contracts, 9 filters and about 100 EPG pairs (§VI-A). This generator
//! produces a policy with exactly those object counts and approximately that
//! pair count, with a lower degree of risk sharing than the cluster policy
//! (the reason the paper gives for the accuracy difference between the two
//! setups).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scout_policy::{
    Contract, ContractBinding, ContractId, Endpoint, EndpointId, Epg, EpgId, Filter, FilterEntry,
    FilterId, PolicyUniverse, PortRange, Protocol, Switch, SwitchId, Tenant, TenantId, Vrf, VrfId,
};

/// Parameters of the testbed generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TestbedSpec {
    /// Number of EPGs (paper: 36).
    pub epgs: usize,
    /// Number of contracts (paper: 24).
    pub contracts: usize,
    /// Number of filters (paper: 9).
    pub filters: usize,
    /// Target number of EPG pairs (paper: 100).
    pub target_pairs: usize,
    /// Number of leaf switches in the testbed.
    pub switches: usize,
    /// TCAM capacity of every switch.
    pub tcam_capacity: usize,
}

impl Default for TestbedSpec {
    fn default() -> Self {
        Self::paper()
    }
}

impl TestbedSpec {
    /// The spec used in the paper's testbed.
    pub fn paper() -> Self {
        Self {
            epgs: 36,
            contracts: 24,
            filters: 9,
            target_pairs: 100,
            switches: 6,
            tcam_capacity: 64 * 1024,
        }
    }

    /// Generates the testbed policy with the given seed.
    ///
    /// # Panics
    ///
    /// Panics if any count is zero.
    pub fn generate(&self, seed: u64) -> PolicyUniverse {
        assert!(
            self.epgs > 1 && self.contracts > 0 && self.filters > 0 && self.switches > 0,
            "testbed spec counts must be positive"
        );
        let mut rng = StdRng::seed_from_u64(seed);
        let mut builder = PolicyUniverse::builder();

        let tenant = TenantId::new(0);
        let vrf = VrfId::new(0);
        builder.tenant(Tenant::new(tenant, "testbed"));
        builder.vrf(Vrf::new(vrf, "testbed-vrf", tenant));

        for s in 0..self.switches {
            builder.switch(Switch::with_capacity(
                SwitchId::new(s as u32),
                format!("tb-leaf-{s}"),
                self.tcam_capacity,
            ));
        }

        for e in 0..self.epgs {
            builder.epg(Epg::new(EpgId::new(e as u32), format!("tb-epg-{e}"), vrf));
            // One or two endpoints per EPG spread over the testbed switches.
            let count = rng.gen_range(1..=2usize);
            for i in 0..count {
                let switch = SwitchId::new(rng.gen_range(0..self.switches) as u32);
                builder.endpoint(Endpoint::new(
                    EndpointId::new((e * 2 + i) as u32),
                    format!("tb-ep-{e}-{i}"),
                    EpgId::new(e as u32),
                    switch,
                ));
            }
        }

        let ports: [u16; 9] = [22, 53, 80, 443, 700, 3306, 5432, 8080, 8443];
        for f in 0..self.filters {
            builder.filter(Filter::new(
                FilterId::new(f as u32),
                format!("tb-filter-{f}"),
                vec![FilterEntry::allow(
                    Protocol::Tcp,
                    PortRange::single(ports[f % ports.len()]),
                )],
            ));
        }

        for c in 0..self.contracts {
            let f1 = FilterId::new(rng.gen_range(0..self.filters) as u32);
            let mut filters = vec![f1];
            if rng.gen_bool(0.3) {
                let f2 = FilterId::new(rng.gen_range(0..self.filters) as u32);
                if f2 != f1 {
                    filters.push(f2);
                }
            }
            builder.contract(Contract::new(
                ContractId::new(c as u32),
                format!("tb-contract-{c}"),
                filters,
            ));
        }

        // Bindings: distribute the target pair count across the contracts,
        // roughly 4 pairs per contract, with distinct consumer/provider EPGs.
        let mut produced = std::collections::BTreeSet::new();
        let per_contract = (self.target_pairs / self.contracts).max(1);
        for c in 0..self.contracts {
            let contract = ContractId::new(c as u32);
            let provider = EpgId::new(rng.gen_range(0..self.epgs) as u32);
            let mut added = 0;
            let mut attempts = 0;
            while added < per_contract && attempts < per_contract * 20 {
                attempts += 1;
                let consumer = EpgId::new(rng.gen_range(0..self.epgs) as u32);
                if consumer == provider {
                    continue;
                }
                let key = (consumer.min(provider), consumer.max(provider));
                if produced.insert(key) {
                    builder.bind(ContractBinding::new(consumer, provider, contract));
                    added += 1;
                }
            }
        }

        let universe = builder
            .build()
            .expect("generated testbed policy must be internally consistent");
        // A generated universe is deployed, which queries all of it.
        universe.ensure_indexed();
        universe
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_testbed_matches_published_counts() {
        let u = TestbedSpec::paper().generate(1);
        let stats = u.stats();
        assert_eq!(stats.epgs, 36);
        assert_eq!(stats.contracts, 24);
        assert_eq!(stats.filters, 9);
        // The paper reports 100 EPG pairs; the generator lands close to it.
        assert!(
            (80..=110).contains(&stats.epg_pairs),
            "got {} pairs",
            stats.epg_pairs
        );
    }

    #[test]
    fn testbed_is_deterministic_per_seed() {
        let spec = TestbedSpec::paper();
        assert_eq!(spec.generate(42), spec.generate(42));
    }

    #[test]
    fn testbed_sharing_is_low() {
        let u = TestbedSpec::paper().generate(2);
        // Risk sharing is lower than in the cluster: the busiest contract
        // serves only a handful of pairs.
        let per_object = u.pairs_per_object();
        let max_contract = per_object
            .iter()
            .filter(|(o, _)| matches!(o, scout_policy::ObjectId::Contract(_)))
            .map(|(_, p)| p.len())
            .max()
            .unwrap();
        assert!(max_contract <= 10);
    }

    #[test]
    #[should_panic(expected = "must be positive")]
    fn degenerate_spec_is_rejected() {
        let mut spec = TestbedSpec::paper();
        spec.contracts = 0;
        let _ = spec.generate(0);
    }
}
