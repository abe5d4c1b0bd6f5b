//! Regression tests for the incremental equivalence-checking pipeline: an
//! incremental recheck after mutating k of N switches must return results
//! byte-identical to a full `check_network`, and the end-to-end delta-driven
//! session must agree with the one-shot engine analysis.

use std::collections::BTreeSet;

use scout::core::ScoutEngine;
use scout::equiv::{EquivalenceChecker, Parallelism};
use scout::fabric::{Fabric, FabricProbe};
use scout::workload::ScaleSpec;

/// Feeds one observation of `fabric` into `session` as the next epoch.
fn ingest_observation(
    session: &mut scout::core::AnalysisSession,
    probe: &mut FabricProbe,
    fabric: &Fabric,
) {
    session
        .ingest_observation(probe, fabric)
        .expect("observations of a live fabric ingest cleanly");
}

fn deployed_scale_fabric(switches: usize) -> Fabric {
    let mut fabric = Fabric::new(ScaleSpec::with_switches(switches).generate(7));
    fabric.deploy();
    fabric
}

#[test]
fn single_switch_mutation_rechecks_identically() {
    let mut fabric = deployed_scale_fabric(32);
    let checker = EquivalenceChecker::new();
    let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
    assert!(baseline.is_consistent());

    let checkpoint = fabric.epoch();
    let victim = fabric.universe().switch_ids()[5];
    let removed = fabric.remove_tcam_rules_where(victim, |r| r.matcher.ports.start % 2 == 0);
    assert!(!removed.is_empty());

    let dirty = fabric.dirty_switches_since(checkpoint);
    assert_eq!(dirty, BTreeSet::from([victim]));

    let tcam = fabric.collect_tcam();
    let full = checker.check_network(fabric.logical_rules(), &tcam);
    let incremental = checker.recheck_dirty(&baseline, fabric.logical_rules(), &tcam, &dirty);
    assert_eq!(full, incremental);
    assert_eq!(incremental.inconsistent_switches(), vec![victim]);
}

/// The host-independent form of "an incremental recheck is at least 5× cheaper
/// than a full check": BDD op-cache lookups are a pure function of the inputs
/// on a sequential checker, so the ratio is asserted on counts, not seconds.
#[test]
fn one_dirty_switch_costs_a_fifth_of_a_full_check_in_cache_lookups() {
    fn lookups(checker: &EquivalenceChecker) -> u64 {
        let stats = checker.cache_stats();
        stats.hits + stats.misses
    }

    let mut fabric = deployed_scale_fabric(32);
    let checker = EquivalenceChecker::with_parallelism(Parallelism::Sequential);
    let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
    let cold = lookups(&checker);

    // The count is determined by the inputs alone: a second fresh checker
    // reproduces it exactly.
    let fresh = EquivalenceChecker::with_parallelism(Parallelism::Sequential);
    fresh.check_network(fabric.logical_rules(), &fabric.collect_tcam());
    assert_eq!(
        lookups(&fresh),
        cold,
        "cold-check lookups are not deterministic"
    );

    let checkpoint = fabric.epoch();
    let victim = fabric.universe().switch_ids()[5];
    fabric.remove_tcam_rules_where(victim, |r| r.matcher.ports.start % 2 == 0);
    let dirty = fabric.dirty_switches_since(checkpoint);
    assert_eq!(dirty, BTreeSet::from([victim]));
    let tcam = fabric.collect_tcam();

    // Incremental first, so the full check — not the recheck — is the one
    // that finds the victim's new TCAM already warm.
    let before = lookups(&checker);
    let incremental_result =
        checker.recheck_dirty(&baseline, fabric.logical_rules(), &tcam, &dirty);
    let incremental = lookups(&checker) - before;
    let before = lookups(&checker);
    let full_result = checker.check_network(fabric.logical_rules(), &tcam);
    let full = lookups(&checker) - before;

    assert_eq!(full_result, incremental_result);
    assert!(incremental > 0, "the recheck must have done BDD work");
    assert!(
        full >= 5 * incremental,
        "1 dirty switch of 32 must cost at most a fifth of a warm full check: \
         cold {cold}, warm full {full}, incremental {incremental} lookups"
    );
}

#[test]
fn multi_switch_mutations_recheck_identically() {
    let mut fabric = deployed_scale_fabric(16);
    let checker = EquivalenceChecker::new();
    let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());

    let checkpoint = fabric.epoch();
    let victims: Vec<_> = fabric.universe().switch_ids().into_iter().take(3).collect();
    for &victim in &victims {
        fabric.evict_tcam(victim, 2, false);
    }
    let dirty = fabric.dirty_switches_since(checkpoint);
    assert_eq!(dirty.len(), victims.len());

    let tcam = fabric.collect_tcam();
    let full = checker.check_network(fabric.logical_rules(), &tcam);
    let incremental = checker.recheck_dirty(&baseline, fabric.logical_rules(), &tcam, &dirty);
    assert_eq!(full, incremental);
}

#[test]
fn parallel_check_agrees_on_scale_workload() {
    let mut fabric = deployed_scale_fabric(24);
    let victim = fabric.universe().switch_ids()[1];
    fabric.remove_tcam_rules_where(victim, |_| true);

    let logical = fabric.logical_rules();
    let tcam = fabric.collect_tcam();
    let sequential =
        EquivalenceChecker::with_parallelism(Parallelism::Sequential).check_network(logical, &tcam);
    for threads in [2, 4, 7] {
        let parallel = EquivalenceChecker::with_parallelism(Parallelism::Fixed(threads))
            .check_network(logical, &tcam);
        assert_eq!(sequential, parallel, "threads={threads}");
    }
}

#[test]
fn removed_switch_leaves_no_ghost_dirty_entry() {
    let mut fabric = deployed_scale_fabric(4);
    let removed_switch = fabric.universe().switch_ids()[3];
    let checkpoint = fabric.epoch();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);

    // Shrink the policy to 3 switches (same seed: the surviving switches'
    // rule sets are unchanged, so only the removed switch's rules differ).
    fabric.update_policy(ScaleSpec::with_switches(3).generate(7));
    assert!(!fabric.universe().switch_ids().contains(&removed_switch));

    let dirty = fabric.dirty_switches_since(checkpoint);
    assert!(
        !dirty.contains(&removed_switch),
        "a switch that left the network must not stay dirty forever: {dirty:?}"
    );
    // And the delta-driven session agrees with a one-shot analysis afterwards.
    ingest_observation(&mut session, &mut probe, &fabric);
    let incremental = session.full_report();
    assert_eq!(*incremental, engine.analyze(&fabric));
    assert!(!incremental.check.per_switch.contains_key(&removed_switch));
}

/// The ingest-driven session's cached risk model (and the clone-analysis
/// path's) must be bit-identical to from-scratch analyses across a randomized
/// sequence of every mutation class: TCAM removals, corruption, eviction,
/// channel flaps and policy updates.
#[test]
fn cached_risk_models_match_from_scratch_across_random_mutations() {
    use rand::rngs::StdRng;
    use rand::seq::SliceRandom;
    use rand::{Rng, SeedableRng};
    use scout::fabric::CorruptionKind;
    use scout::workload::{add_random_filter, TestbedSpec};

    let spec = TestbedSpec {
        epgs: 12,
        contracts: 8,
        filters: 4,
        target_pairs: 20,
        switches: 3,
        tcam_capacity: 1024,
    };
    for seed in 0..4u64 {
        let mut fabric = Fabric::new(spec.generate(seed));
        fabric.deploy();
        let mut rng = StdRng::seed_from_u64(1000 + seed);
        let engine = ScoutEngine::new();
        let mut monitor = engine.open_session(&fabric);
        let mut probe = FabricProbe::new(&fabric);
        let mut clone_session = engine.open_session(&fabric);

        for step in 0..12 {
            let switch_ids = fabric.universe().switch_ids();
            let &switch = switch_ids.choose(&mut rng).unwrap();
            match rng.gen_range(0u32..6) {
                0 => {
                    let port = rng.gen_range(0u16..1024);
                    fabric
                        .remove_tcam_rules_where(switch, |r| r.matcher.ports.start % 7 == port % 7);
                }
                1 => {
                    let index = rng.gen_range(0usize..8);
                    fabric.corrupt_tcam(switch, index, CorruptionKind::VrfBit);
                }
                2 => {
                    fabric.evict_tcam(switch, rng.gen_range(1usize..3), false);
                }
                3 => {
                    fabric.disconnect_switch(switch);
                }
                4 => {
                    fabric.reconnect_switch(switch);
                    fabric.resync();
                }
                _ => {
                    let universe = fabric.universe().clone();
                    if let Some(edit) = add_random_filter(&universe, &mut rng) {
                        fabric.update_policy(edit.universe);
                    }
                }
            }
            let batch = ScoutEngine::new().analyze(&fabric);
            ingest_observation(&mut monitor, &mut probe, &fabric);
            assert_eq!(
                *monitor.full_report(),
                batch,
                "seed {seed} step {step} (ingest)"
            );
            let derived = clone_session.analyze_clone(&fabric);
            assert_eq!(derived, batch, "seed {seed} step {step} (clone)");
        }
    }
}

#[test]
fn incremental_session_tracks_successive_mutations() {
    let mut fabric = deployed_scale_fabric(12);
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    assert!(session.is_consistent());

    // Three successive mutation rounds; after each, the session report must
    // match a from-scratch one-shot analysis.
    let switch_ids = fabric.universe().switch_ids();
    for (round, &victim) in switch_ids.iter().take(3).enumerate() {
        fabric.evict_tcam(victim, 1 + round, false);
        ingest_observation(&mut session, &mut probe, &fabric);
        let batch = engine.analyze(&fabric);
        assert_eq!(*session.full_report(), batch, "round {round}");
    }
    assert_eq!(session.epoch(), 3);
}
