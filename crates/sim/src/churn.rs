//! The two seeded churn steps the differential suites replay.
//!
//! A step applies one rng-chosen disturbance to a fabric; a suite calls it
//! once per epoch and feeds the probe's observation to whatever it is
//! checking. Every consumer — [`CrashSoak`](crate::CrashSoak),
//! [`FleetSoak`](crate::FleetSoak) and the root suites `tests/session.rs`,
//! `tests/checkpoint.rs`, `tests/store.rs`, `tests/multi_tenant.rs` — calls
//! the step defined here, so a seed means the same event stream everywhere.
//! The rng draws are part of that contract: reordering or adding one changes
//! every pinned stream.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;

use scout_fabric::{CorruptionKind, Fabric};
use scout_workload::{add_random_filter, random_policy_edit};

/// One epoch of soak-style churn, an even 8-way mix: rule drops, TCAM
/// corruption, evictions, switch disconnects, agent crashes, repairs, and
/// two kinds of concurrent policy edit.
pub fn soak_step(fabric: &mut Fabric, rng: &mut StdRng) {
    let switch_ids = fabric.universe().switch_ids();
    let &switch = switch_ids.choose(rng).expect("workloads have switches");
    match rng.gen_range(0u32..8) {
        0 => {
            let port = rng.gen_range(0u16..7);
            fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start % 7 == port);
        }
        1 => {
            let kind = *[
                CorruptionKind::VrfBit,
                CorruptionKind::SrcEpgBit,
                CorruptionKind::ActionFlip,
            ]
            .choose(rng)
            .unwrap();
            fabric.corrupt_tcam(switch, rng.gen_range(0usize..8), kind);
        }
        2 => {
            fabric.evict_tcam(switch, rng.gen_range(1usize..3), rng.gen_bool(0.5));
        }
        3 => {
            fabric.disconnect_switch(switch);
        }
        4 => {
            fabric.crash_agent(switch);
        }
        5 => {
            fabric.repair_switch(switch);
        }
        6 => {
            let universe = fabric.universe().clone();
            if let Some(edit) = add_random_filter(&universe, rng) {
                fabric.update_policy(edit.universe);
            }
        }
        _ => {
            let universe = fabric.universe().clone();
            if let Some(edit) = random_policy_edit(&universe, rng) {
                fabric.update_policy(edit.universe);
            }
        }
    }
}

/// One epoch of fleet-style churn, an even 5-way mix that keeps every switch
/// reachable: rule drops, evictions, repairs, policy edits, and a quiet
/// epoch.
pub fn fleet_step(fabric: &mut Fabric, rng: &mut StdRng) {
    let switch_ids = fabric.universe().switch_ids();
    let &switch = switch_ids.choose(rng).expect("workloads have switches");
    match rng.gen_range(0u32..5) {
        0 => {
            let port = rng.gen_range(0u16..7);
            fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start % 7 == port);
        }
        1 => {
            fabric.evict_tcam(switch, rng.gen_range(1usize..3), true);
        }
        2 => {
            fabric.repair_switch(switch);
        }
        3 => {
            let universe = fabric.universe().clone();
            if let Some(edit) = random_policy_edit(&universe, rng) {
                fabric.update_policy(edit.universe);
            }
        }
        _ => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use scout_fabric::{EventBatch, FabricEvent, FabricProbe};
    use scout_workload::TestbedSpec;

    /// The batch stream 40 epochs of `step` produce from `seed`. Universe
    /// versions are zeroed: they come from a process-wide counter (a cache
    /// key, not content), so they differ between any two fabrics.
    fn stream(step: fn(&mut Fabric, &mut StdRng), seed: u64) -> Vec<EventBatch> {
        let mut fabric = Fabric::new(TestbedSpec::paper().generate(9));
        fabric.deploy();
        let mut probe = FabricProbe::new(&fabric);
        let mut rng = StdRng::seed_from_u64(seed);
        (1..=40)
            .map(|epoch| {
                step(&mut fabric, &mut rng);
                let mut events = probe.observe(&fabric);
                for event in &mut events {
                    if let FabricEvent::PolicyUpdate { version, .. } = event {
                        *version = 0;
                    }
                }
                EventBatch::new(epoch, events)
            })
            .collect()
    }

    #[test]
    fn soak_step_streams_are_a_function_of_the_seed() {
        assert_eq!(stream(soak_step, 42), stream(soak_step, 42));
        assert_ne!(stream(soak_step, 42), stream(soak_step, 43));
    }

    #[test]
    fn fleet_step_streams_are_a_function_of_the_seed() {
        assert_eq!(stream(fleet_step, 42), stream(fleet_step, 42));
        assert_ne!(stream(fleet_step, 42), stream(fleet_step, 43));
    }
}
