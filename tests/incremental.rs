//! Regression tests for the incremental equivalence-checking pipeline: an
//! incremental recheck after mutating k of N switches must return results
//! byte-identical to a full `check_network`, and the end-to-end delta-driven
//! session must agree with the one-shot engine analysis.

use std::collections::BTreeSet;

use scout::core::ScoutEngine;
use scout::equiv::{EquivalenceChecker, Parallelism};
use scout::fabric::{Fabric, FabricProbe};
use scout::policy::TcamRule;
use scout::workload::{ScaleSpec, TestbedSpec};

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

/// One tenant of the benchmark's fleet workloads
/// (`benchmark/src/record.rs::FLEET_SPEC`): six switches, 58–68 rules each.
fn deployed_fleet_tenant() -> Fabric {
    let spec = TestbedSpec {
        epgs: 24,
        contracts: 14,
        filters: 6,
        target_pairs: 48,
        switches: 6,
        tcam_capacity: 2048,
    };
    let mut fabric = Fabric::new(spec.generate(1));
    fabric.deploy();
    fabric
}

fn misses(checker: &EquivalenceChecker) -> u64 {
    checker.cache_stats().misses
}

/// Work bounds in op-cache misses — BDD steps actually computed — which the
/// inputs alone determine on a sequential checker, whatever the host.
#[test]
fn fleet_tenant_check_costs_are_bounded_in_cache_misses() {
    let fabric = deployed_fleet_tenant();
    let logical = fabric.logical_rules();
    let tcam = fabric.collect_tcam();
    let checker = EquivalenceChecker::with_parallelism(Parallelism::Sequential);

    // Cold: every class of every switch folds over the same few 24-level
    // diagrams (46 844 misses when each switch was one 72-variable fold).
    let baseline = checker.check_network(logical, &tcam);
    assert!(baseline.is_consistent());
    let cold = misses(&checker);
    assert!(cold > 0 && cold < 2_000, "cold fleet check: {cold} misses");

    // Warm and unchanged: every fold step is already memoized.
    let every_switch: BTreeSet<_> = tcam.keys().copied().collect();
    let again = checker.recheck_dirty(&baseline, logical, &tcam, &every_switch);
    assert_eq!(again, baseline);
    assert_eq!(misses(&checker), cold, "an unchanged recheck must not miss");
}

/// A one-rule drift on the tenant's largest switch re-folds the drifted rule's
/// class only: it costs no more misses than the same drift on a switch that
/// holds nothing but that class, plus what classifying the now-inequivalent
/// switch adds — one subset test per rule of the switch, most of them
/// answered from the cache because classes of one contract share diagrams
/// (246 against 26 misses here; 8 455 against 122 when the switch was one fold).
#[test]
fn one_rule_drift_costs_its_class_not_its_switch() {
    let mut fabric = deployed_fleet_tenant();
    let class_of = |r: &TcamRule| (r.matcher.vrf, r.matcher.src_epg, r.matcher.dst_epg);
    let tcam = fabric.collect_tcam();
    let (&big, rules) = tcam.iter().max_by_key(|(_, rules)| rules.len()).unwrap();
    assert_eq!(rules.len(), 68);
    // Drift inside the switch's largest class, so there is something to re-fold.
    let lost = *rules
        .iter()
        .max_by_key(|r| rules.iter().filter(|o| class_of(o) == class_of(r)).count())
        .unwrap();
    let class_logical: Vec<_> = fabric
        .logical_rules_for(big)
        .into_iter()
        .filter(|l| class_of(&l.rule) == class_of(&lost))
        .collect();
    let class_tcam: Vec<TcamRule> = class_logical.iter().map(|l| l.rule).collect();
    assert!(class_tcam.len() > 1 && class_tcam.len() < 8);

    // The whole tenant, warm, then the drift.
    let whole = EquivalenceChecker::with_parallelism(Parallelism::Sequential);
    let baseline = whole.check_network(fabric.logical_rules(), &tcam);
    let checkpoint = fabric.epoch();
    assert_eq!(fabric.remove_tcam_rules_where(big, |r| *r == lost).len(), 1);
    let dirty = fabric.dirty_switches_since(checkpoint);
    let before = misses(&whole);
    let drifted = whole.recheck_dirty(
        &baseline,
        fabric.logical_rules(),
        &fabric.collect_tcam(),
        &dirty,
    );
    let on_switch = misses(&whole) - before;
    assert_eq!(drifted.inconsistent_switches(), vec![big]);

    // A switch holding only that class, warm, then the same drift.
    let alone = EquivalenceChecker::with_parallelism(Parallelism::Sequential);
    assert!(
        alone
            .check_switch(big, &class_logical, &class_tcam)
            .equivalent
    );
    let before = misses(&alone);
    let class_drifted: Vec<TcamRule> = class_tcam.iter().copied().filter(|r| *r != lost).collect();
    let result = alone.check_switch(big, &class_logical, &class_drifted);
    let on_class = misses(&alone) - before;
    assert_eq!(result.missing_rules, drifted.per_switch[&big].missing_rules);

    let classified = (fabric.logical_rules_for(big).len() + fabric.tcam_rules(big).len()) as u64;
    assert!(
        on_switch <= on_class + 2 * classified,
        "drift on the 68-rule switch: {on_switch} misses; on its class alone: {on_class}"
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

/// `recheck_dirty_with` on a wide fabric: one dirty switch of 200 is read and
/// re-checked, the other 199 results are carried over.
#[test]
fn one_dirty_switch_of_two_hundred_is_the_only_one_read() {
    let mut fabric = deployed_scale_fabric(200);
    let checker = EquivalenceChecker::new();
    let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
    assert_eq!(baseline.per_switch.len(), 200);

    let current: BTreeSet<_> = fabric.universe().switch_ids().into_iter().collect();
    let victim = fabric.universe().switch_ids()[123];
    fabric.remove_tcam_rules_where(victim, |r| r.matcher.ports.start % 2 == 0);

    let mut fetched = Vec::new();
    let incremental = checker.recheck_dirty_with(
        &baseline,
        fabric.logical_rules(),
        &current,
        &BTreeSet::from([victim]),
        |s| {
            fetched.push(s);
            fabric.tcam_rules(s)
        },
    );
    assert_eq!(fetched, vec![victim], "only the dirty switch is read");
    let full = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
    assert_eq!(incremental, full);
    assert_eq!(incremental.inconsistent_switches(), vec![victim]);
}

/// The switch set of a recheck is `current_switches` plus every switch a
/// logical rule names: a switch the caller left out of `current_switches`
/// still appears (carried over, or checked if `previous` lacks it), and one
/// that vanished from both the set and the rules is dropped.
#[test]
fn recheck_dirty_with_takes_switches_from_the_logical_rules_too() {
    let fabric = deployed_scale_fabric(200);
    let checker = EquivalenceChecker::new();
    let tcam = fabric.collect_tcam();
    let baseline = checker.check_network(fabric.logical_rules(), &tcam);
    let ids = fabric.universe().switch_ids();
    let (unlisted, unseen, vanished) = (ids[7], ids[60], ids[150]);

    // `unlisted` and `unseen` are named by logical rules only; `unseen` is
    // also missing from the previous result; `vanished` is gone altogether.
    let current: BTreeSet<_> = ids
        .iter()
        .copied()
        .filter(|s| ![unlisted, unseen, vanished].contains(s))
        .collect();
    let logical: Vec<_> = fabric
        .logical_rules()
        .iter()
        .filter(|l| l.switch != vanished)
        .copied()
        .collect();
    let mut previous = baseline.clone();
    previous.per_switch.remove(&unseen);

    let mut fetched = Vec::new();
    let incremental =
        checker.recheck_dirty_with(&previous, &logical, &current, &BTreeSet::new(), |s| {
            fetched.push(s);
            fabric.tcam_rules(s)
        });
    assert_eq!(
        fetched,
        vec![unseen],
        "only the never-checked switch is read"
    );
    assert_eq!(incremental.per_switch.len(), 199);
    assert_eq!(
        incremental.per_switch[&unlisted],
        baseline.per_switch[&unlisted]
    );
    assert_eq!(
        incremental.per_switch[&unseen],
        baseline.per_switch[&unseen]
    );
    assert!(!incremental.per_switch.contains_key(&vanished));

    let mut remaining = tcam.clone();
    remaining.remove(&vanished);
    assert_eq!(incremental, checker.check_network(&logical, &remaining));
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
    use scout::workload::add_random_filter;

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
