//! Regression tests for the incremental equivalence-checking pipeline: an
//! incremental recheck after mutating k of N switches must return results
//! byte-identical to a full `check_network`, and the end-to-end delta-driven
//! session must agree with the one-shot engine analysis.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Mutex;
use std::thread::{self, ThreadId};

use scout::core::ScoutEngine;
use scout::equiv::{EquivalenceChecker, Parallelism};
use scout::fabric::{EventBatch, Fabric, FabricEvent, FabricProbe};
use scout::policy::{LogicalRule, SwitchId, TcamRule};
use scout::workload::{ClusterSpec, ScaleSpec, TestbedSpec};

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
    let current: BTreeSet<_> = tcam.keys().copied().collect();
    let incremental =
        checker.recheck_dirty_with(&baseline, fabric.logical_rules(), &current, &dirty, |s| {
            fabric.tcam_rules(s)
        });
    assert_eq!(full, incremental);
    assert_eq!(incremental.inconsistent_switches(), vec![victim]);
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
    let current: BTreeSet<_> = tcam.keys().copied().collect();
    let incremental =
        checker.recheck_dirty_with(&baseline, fabric.logical_rules(), &current, &dirty, |s| {
            fabric.tcam_rules(s)
        });
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

/// The in-place re-check on a 1000-switch fabric costs the drift, not the
/// fabric or its standing damage: a one-switch drift epoch touches only the
/// victim and reads only its TCAM, with and without 300 switches already
/// damaged, and lands on the full check.
#[test]
fn one_switch_drift_of_a_thousand_touches_only_the_victim() {
    let mut fabric = Fabric::new(ScaleSpec::large_fabric(1000).generate(7));
    fabric.deploy();
    let checker = EquivalenceChecker::new();
    let ids = fabric.universe().switch_ids();
    let victim = ids[500];
    let mut standing = 0;
    for damaged in [0, 300] {
        // Damage every third switch past index 0 (the victim is not one).
        for &switch in ids.iter().skip(1).step_by(3).take(damaged).skip(standing) {
            fabric.evict_tcam(switch, 2, false);
        }
        standing = damaged;
        let mut result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert_eq!(result.inconsistent_switches().len(), damaged);

        let checkpoint = fabric.epoch();
        fabric.remove_tcam_rules_where(victim, |r| r.matcher.ports.start % 2 == 0);
        let dirty = fabric.dirty_switches_since(checkpoint);
        let fetched = Mutex::new(Vec::new());
        let (touched, _) = checker.recheck_in_place(
            &mut result,
            &dirty,
            &BTreeMap::new(),
            &[],
            |s| fabric.logical_rules_on(s),
            |s| {
                fetched.lock().expect("no worker panicked").push(s);
                fabric.tcam_rules(s)
            },
        );
        let touched: Vec<_> = touched.into_iter().map(|(s, _)| s).collect();
        assert_eq!(touched, vec![victim], "{damaged} damaged");
        let fetched = fetched.into_inner().expect("no worker panicked");
        assert_eq!(fetched, vec![victim], "{damaged} damaged");
        let full = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert_eq!(result, full, "{damaged} damaged");
        fabric.repair_switch(victim);
    }
}

/// The class re-check's work on a 1000-switch fabric: a 50-switch front
/// damaged and repaired within one epoch holds each switch's rules in a new
/// order (a repair reinstalls them at the end of the table), which changes no
/// class, so its ingest compiles no switch and folds no class, with 0 and
/// with 300 other switches damaged. Every report equals from-scratch
/// analysis.
#[test]
fn a_front_damaged_and_repaired_in_one_epoch_folds_nothing() {
    let mut fabric = Fabric::new(ScaleSpec::large_fabric(1000).generate(7));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    let ids = fabric.universe().switch_ids();
    let front: Vec<_> = ids.iter().skip(2).step_by(3).take(50).copied().collect();
    let mut standing = 0;
    for damaged in [0, 300] {
        // Damage every third switch past index 0 (no switch of the front).
        for &switch in ids.iter().skip(1).step_by(3).take(damaged).skip(standing) {
            fabric.evict_tcam(switch, 2, false);
        }
        standing = damaged;
        ingest_observation(&mut session, &mut probe, &fabric);
        for &switch in &front {
            fabric.evict_tcam(switch, 2, false);
        }
        for &switch in &front {
            fabric.repair_switch(switch);
        }
        let before = *session.stats();
        let delta = session.ingest_observation(&mut probe, &fabric).unwrap();
        let after = session.stats();
        assert_eq!(delta.rechecked.len(), front.len(), "{damaged} damaged");
        assert_eq!(
            after.switches_compiled, before.switches_compiled,
            "{damaged}"
        );
        assert_eq!(after.classes_folded, before.classes_folded, "{damaged}");
        assert_eq!(*session.full_report(), engine.analyze(&fabric), "{damaged}");
    }
}

/// On the paper's cluster (about 5 600 logical rules a switch), a one-rule
/// eviction compiles only its switch and folds exactly the evicted rule's
/// class, and so does its repair, with 0 and with 4 other switches damaged.
/// A sync that drops six sevenths of a switch's rules changes most of its
/// classes and folds the switch whole.
#[test]
fn a_one_rule_eviction_on_the_paper_cluster_folds_one_class() {
    let mut fabric = Fabric::new(ClusterSpec::paper().generate(1));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    let ids = fabric.universe().switch_ids();
    let victim = ids[15];
    let mut standing = 0;
    for damaged in [0, 4] {
        // Damage every third switch past index 0 (the victim is not one).
        for &switch in ids.iter().skip(1).step_by(3).take(damaged).skip(standing) {
            fabric.evict_tcam(switch, 2, false);
        }
        standing = damaged;
        ingest_observation(&mut session, &mut probe, &fabric);
        for step in ["eviction", "repair"] {
            if step == "eviction" {
                fabric.evict_tcam(victim, 1, false);
            } else {
                fabric.repair_switch(victim);
            }
            let before = *session.stats();
            let delta = session.ingest_observation(&mut probe, &fabric).unwrap();
            let after = session.stats();
            assert_eq!(
                delta.rechecked,
                BTreeSet::from([victim]),
                "{step}, {damaged}"
            );
            let compiled = after.switches_compiled - before.switches_compiled;
            assert_eq!(compiled, 1, "{step}, {damaged} damaged");
            let folded = after.classes_folded - before.classes_folded;
            assert_eq!(folded, 1, "{step}, {damaged} damaged");
            assert_eq!(*session.full_report(), engine.analyze(&fabric), "{step}");
        }
    }

    fabric.remove_tcam_rules_where(victim, |r| r.matcher.ports.start % 7 != 0);
    let (_, whole) = EquivalenceChecker::new().check_each(
        &[victim],
        |s| fabric.logical_rules_on(s),
        |s| fabric.tcam_rules(s),
    );
    let before = *session.stats();
    ingest_observation(&mut session, &mut probe, &fabric);
    let folded = session.stats().classes_folded - before.classes_folded;
    assert_eq!(folded, whole.classes_folded);
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
}

/// A batch that carries a policy update re-checks every switch it dirtied
/// whole, compiling each, the switches the batch also synced included.
#[test]
fn a_policy_update_compiles_every_switch_it_dirtied() {
    use scout::workload::{add_filter_to_contract, next_filter_id};
    let mut fabric = Fabric::new(TestbedSpec::paper().generate(2));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    let universe = fabric.universe();
    let contract = universe.contracts().next().expect("a contract").id;
    let updated = add_filter_to_contract(universe, contract, next_filter_id(universe), 9443)
        .expect("the contract exists");
    fabric.update_policy(updated);

    let events = probe.observe(&fabric);
    let synced: BTreeSet<SwitchId> = (events.iter())
        .filter_map(|e| match e {
            FabricEvent::TcamSync { switch, .. } => Some(*switch),
            _ => None,
        })
        .collect();
    assert!(!synced.is_empty());
    let before = *session.stats();
    let delta = session
        .ingest(EventBatch::new(session.next_epoch(), events))
        .unwrap();
    let after = session.stats();
    assert!(delta.rechecked.is_superset(&synced), "{delta:?}");
    let compiled = after.switches_compiled - before.switches_compiled;
    assert_eq!(compiled, delta.rechecked.len());
    assert!(after.classes_folded > before.classes_folded);
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
}

/// Only a switch synced once in a batch is re-checked by class. Synced
/// twice, by a sync that evicts two rules and one that only reorders what
/// is left, it is compiled and re-checked whole: a diff against its middle
/// table would see no change and keep the switch healthy.
#[test]
fn a_switch_synced_twice_in_a_batch_is_rechecked_whole() {
    let mut fabric = deployed_scale_fabric(16);
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let victim = fabric.universe().switch_ids()[3];
    fabric.evict_tcam(victim, 2, false);
    let damaged = fabric.tcam_rules(victim);
    let mut reordered = damaged.clone();
    reordered.reverse();
    assert_ne!(reordered, damaged);
    let syncs = [damaged, reordered].map(|rules| FabricEvent::TcamSync {
        switch: victim,
        rules,
    });
    let before = *session.stats();
    let delta = session
        .ingest(EventBatch::new(session.next_epoch(), syncs.to_vec()))
        .unwrap();
    assert_eq!(delta.rechecked, BTreeSet::from([victim]));
    let compiled = session.stats().switches_compiled - before.switches_compiled;
    assert_eq!(compiled, 1);
    assert!(!delta.newly_missing.is_empty());
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
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

/// The thread of every call `check` made to the `logical` closure it is
/// handed (which reads `fabric`, as does `tcam`), in call order.
fn threads_of_a_check<'a>(
    fabric: &'a Fabric,
    check: impl FnOnce(
        &(dyn Fn(SwitchId) -> &'a [LogicalRule] + Sync),
        &(dyn Fn(SwitchId) -> Vec<TcamRule> + Sync),
    ),
) -> Vec<ThreadId> {
    let threads = Mutex::new(Vec::new());
    check(
        &|s| {
            threads
                .lock()
                .expect("no worker panicked")
                .push(thread::current().id());
            fabric.logical_rules_on(s)
        },
        &|s| fabric.tcam_rules(s),
    );
    threads.into_inner().expect("no worker panicked")
}

/// Under `Parallelism::Auto` a check spawns for rule work, not for switch
/// count: a 50-switch front of a 1000-switch fabric (about 3 200 rules, as
/// `fabric_1k` re-checks them) is folded entirely on the caller.
#[test]
fn auto_folds_a_fifty_switch_front_on_the_caller() {
    let mut fabric = Fabric::new(ScaleSpec::large_fabric(1000).generate(7));
    fabric.deploy();
    let checker = EquivalenceChecker::new();
    let mut result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
    let ids = fabric.universe().switch_ids();
    let front: BTreeSet<SwitchId> = ids.iter().copied().step_by(20).collect();
    assert_eq!(front.len(), 50);
    let threads = threads_of_a_check(&fabric, |logical, tcam| {
        checker.recheck_in_place(&mut result, &front, &BTreeMap::new(), &[], logical, tcam);
    });
    assert_eq!(threads.len(), 50);
    let caller = thread::current().id();
    assert!(threads.iter().all(|&t| t == caller), "{threads:?}");
}

/// A cold check of the paper's cluster (30 switches of about 10 000 rules,
/// logical plus TCAM) outgrows the caller's rule grain, so under
/// `Parallelism::Auto` it reaches another thread on a host with two cores
/// or more, and stays on the caller on a host with one.
#[test]
fn auto_spreads_a_cold_paper_cluster_check_over_threads() {
    let mut fabric = Fabric::new(ClusterSpec::paper().generate(1));
    fabric.deploy();
    let switches = fabric.universe().switch_ids();
    let checker = EquivalenceChecker::new();
    let threads = threads_of_a_check(&fabric, |logical, tcam| {
        checker.check_each(&switches, logical, tcam);
    });
    assert_eq!(threads.len(), switches.len());
    let caller = thread::current().id();
    assert_eq!(threads[0], caller);
    let cores = thread::available_parallelism().map_or(1, |n| n.get());
    assert_eq!(
        threads.iter().any(|&t| t != caller),
        cores >= 2,
        "{threads:?}"
    );
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

/// A damaged switch that a policy update then retires: its missing rules
/// leave the report with it, so the delta restores exactly those rules.
#[test]
fn retired_damaged_switch_restores_its_missing_rules() {
    let mut fabric = deployed_scale_fabric(4);
    let retired = fabric.universe().switch_ids()[3];
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);

    fabric.remove_tcam_rules_where(retired, |r| r.matcher.ports.start % 2 == 0);
    ingest_observation(&mut session, &mut probe, &fabric);
    let missing: BTreeSet<_> = session.full_report().check.per_switch[&retired]
        .missing_rules
        .iter()
        .copied()
        .collect();
    assert!(!missing.is_empty(), "the damage shows");

    fabric.update_policy(ScaleSpec::with_switches(3).generate(7));
    let delta = session
        .ingest_observation(&mut probe, &fabric)
        .expect("observations of a live fabric ingest cleanly");
    // Deltas list rules in `LogicalRule` order.
    assert_eq!(delta.restored, missing.into_iter().collect::<Vec<_>>());
    assert!(delta.newly_missing.is_empty());
    assert!(delta.consistent);
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
}

/// A batch that syncs a switch and then retires it re-checks nothing: the
/// delta and the session's counter list only switches whose result the
/// epoch wrote, and the retired switch has none.
#[test]
fn a_synced_then_retired_switch_is_not_rechecked() {
    let mut fabric = deployed_scale_fabric(4);
    let retired = fabric.universe().switch_ids()[3];
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);

    let sync = FabricEvent::TcamSync {
        switch: retired,
        rules: fabric.tcam_rules(retired),
    };
    fabric.update_policy(ScaleSpec::with_switches(3).generate(7));
    let events: Vec<_> = std::iter::once(sync)
        .chain(probe.observe(&fabric))
        .collect();
    assert!(matches!(events[1], FabricEvent::PolicyUpdate { .. }));
    let delta = session
        .ingest(EventBatch::new(session.next_epoch(), events))
        .expect("the batch is valid");
    assert!(delta.rechecked.is_empty(), "{:?}", delta.rechecked);
    assert_eq!(session.stats().rechecked_switches, 0);
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
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
        let clone_session = engine.open_session(&fabric);

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

/// An ingest re-localizes the failure components its changed missing rules
/// reach, not the standing damage: on a 1000-switch fabric with 0, 8 and 300
/// other switches damaged, a one-rule drift re-localizes exactly one
/// component, its repair at most one, and a 50-switch front damaged and
/// repaired within one epoch none. Every report equals from-scratch analysis.
#[test]
fn an_ingest_relocalizes_only_the_components_it_reaches() {
    let mut fabric = Fabric::new(ScaleSpec::large_fabric(1000).generate(7));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    let ids = fabric.universe().switch_ids();
    let victim = ids[500];
    let front: Vec<_> = ids.iter().skip(2).step_by(3).take(50).copied().collect();
    let mut standing = 0;
    for damaged in [0, 8, 300] {
        // Damage every third switch past index 0 (neither the victim nor the
        // front is one).
        for &switch in ids.iter().skip(1).step_by(3).take(damaged).skip(standing) {
            fabric.evict_tcam(switch, 2, false);
        }
        standing = damaged;
        ingest_observation(&mut session, &mut probe, &fabric);
        assert_eq!(*session.full_report(), engine.analyze(&fabric), "{damaged}");
        let mut step = |fabric: &Fabric, rechecked: usize| {
            let before = session.stats().components_localized;
            let delta = session.ingest_observation(&mut probe, fabric).unwrap();
            assert_eq!(delta.rechecked.len(), rechecked, "{damaged} damaged");
            assert_eq!(*session.full_report(), engine.analyze(fabric), "{damaged}");
            session.stats().components_localized - before
        };

        fabric.evict_tcam(victim, 1, false);
        assert_eq!(step(&fabric, 1), 1, "drift, {damaged} damaged");
        fabric.repair_switch(victim);
        assert!(step(&fabric, 1) <= 1, "repair, {damaged} damaged");
        for &switch in &front {
            fabric.evict_tcam(switch, 2, false);
        }
        for &switch in &front {
            fabric.repair_switch(switch);
        }
        assert_eq!(step(&fabric, front.len()), 0, "front, {damaged} damaged");
    }
}

/// An edge of the failure overlay heals when its last missing rule is
/// restored: two missing rules of one `(switch, pair)` share its VRF, EPG
/// and switch edges, and restoring one of them keeps those edges failed.
#[test]
fn restoring_one_of_two_missing_rules_keeps_their_shared_edges_failed() {
    let mut fabric = Fabric::new(TestbedSpec::paper().generate(2));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    let switch = fabric.universe().switch_ids()[0];
    let rules = fabric.logical_rules_on(switch).to_vec();
    let mut partial = 0;
    for run in rules.chunk_by(|a, b| a.pair() == b.pair()) {
        let pair = run[0].pair();
        fabric.remove_tcam_rules_where(switch, |r| r.pair() == pair);
        ingest_observation(&mut session, &mut probe, &fabric);
        assert_eq!(*session.full_report(), engine.analyze(&fabric));

        // Restore one rule only: the pair stays an observation when another
        // of its rules is still missing.
        fabric.reinstall_rules(&run[..1]);
        let delta = session.ingest_observation(&mut probe, &fabric).unwrap();
        assert_eq!(*session.full_report(), engine.analyze(&fabric));
        let element = scout::policy::SwitchEpgPair::new(switch, pair);
        if !delta.restored.is_empty() && session.full_report().observations.contains(&element) {
            partial += 1;
        }

        fabric.repair_switch(switch);
        ingest_observation(&mut session, &mut probe, &fabric);
        assert_eq!(*session.full_report(), engine.analyze(&fabric));
        assert!(session.is_consistent());
    }
    assert!(
        partial > 0,
        "no pair kept a missing rule after a partial restore"
    );
}

/// A risk that enters the failure subgraph joins the components of its
/// dependents: one pair of a switch fails first, then the rest of the
/// switch, whose switch risk then covers the first pair's component too. Each
/// switch is repaired before the next one fails.
#[test]
fn a_risk_entering_the_failure_subgraph_merges_components() {
    let mut fabric = Fabric::new(TestbedSpec::paper().generate(3));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    for &switch in &fabric.universe().switch_ids() {
        let first = fabric.logical_rules_on(switch)[0].pair();
        fabric.remove_tcam_rules_where(switch, |r| r.pair() == first);
        ingest_observation(&mut session, &mut probe, &fabric);
        assert_eq!(*session.full_report(), engine.analyze(&fabric));
        fabric.remove_tcam_rules_where(switch, |_| true);
        ingest_observation(&mut session, &mut probe, &fabric);
        let report = session.full_report();
        assert_eq!(*report, engine.analyze(&fabric));
        assert!(report
            .hypothesis
            .contains(scout::policy::ObjectId::Switch(switch)));
        fabric.repair_switch(switch);
        ingest_observation(&mut session, &mut probe, &fabric);
        assert!(session.is_consistent());
    }
}
