//! SCOUT localization decomposes over the connected components of the failure
//! subgraph.
//!
//! A component is a set of observations joined by the risks of the failure
//! subgraph (the failed risks whose dependents are all observations). A
//! stage-1 pick changes counts only inside its own component, ties across
//! components are taken in the same round, and stage 2 is per observation.
//! So `scout_localize` of the whole augmented model equals the merge of
//! `scout_localize` run on each component's failures alone: cover evidence
//! before change-log evidence, counters summed.
//!
//! The patterns are seeded: random rule drops on a few switches, whole-switch
//! outages (equal switches tie across components), and one object's rules
//! dropped on part of its switches (a stage-2 risk shared by observations of
//! several components). The test also asserts that the patterns produced a
//! tie across components and a shared stage-2 object at least once.

use std::collections::{BTreeMap, BTreeSet};

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scout::core::{
    augment_controller_model_tracked, controller_risk_model, scout_localize, Evidence, Hypothesis,
    RiskModel, ScoutConfig,
};
use scout::fabric::{compile_for_switch, ChangeAction, ChangeLog, Timestamp};
use scout::policy::{LogicalRule, ObjectId, PolicyUniverse, SwitchEpgPair};
use scout::workload::{ClusterSpec, ScaleSpec, TestbedSpec};

/// What a merged hypothesis is compared on: every object with its evidence,
/// then the four counters.
type Outcome = (BTreeMap<ObjectId, Evidence>, [usize; 4]);

fn outcome(h: &Hypothesis) -> Outcome {
    let objects = h.iter().map(|(&o, &e)| (o, e)).collect();
    let counters = [
        h.observations,
        h.explained_by_cover,
        h.explained_by_changelog,
        h.unexplained,
    ];
    (objects, counters)
}

/// The merge of per-component hypotheses: every component's cover picks
/// first, then the change-log picks (the first evidence of an object wins, as
/// in one global run), with the counters summed.
fn merge(parts: &[Hypothesis]) -> Outcome {
    let mut objects = BTreeMap::new();
    for cover_pass in [true, false] {
        for (&object, &evidence) in parts.iter().flat_map(|h| h.iter()) {
            if cover_pass == (evidence == Evidence::FullCover) {
                objects.entry(object).or_insert(evidence);
            }
        }
    }
    let mut counters = [0; 4];
    for part in parts {
        for (sum, n) in counters.iter_mut().zip(outcome(part).1) {
            *sum += n;
        }
    }
    (objects, counters)
}

/// The connected components of the augmented `model`'s failures: every
/// observation, joined to the others through the risks of the failure
/// subgraph. Observations outside the subgraph are components of their own.
fn components(model: &RiskModel<SwitchEpgPair>) -> Vec<BTreeSet<SwitchEpgPair>> {
    let observations: Vec<SwitchEpgPair> = model.failure_signature().into_iter().collect();
    let index: BTreeMap<SwitchEpgPair, usize> = observations
        .iter()
        .enumerate()
        .map(|(i, &o)| (o, i))
        .collect();
    let mut parent: Vec<usize> = (0..observations.len()).collect();
    fn root(parent: &mut [usize], mut i: usize) -> usize {
        while parent[i] != i {
            parent[i] = parent[parent[i]];
            i = parent[i];
        }
        i
    }
    let subgraph = model.failure_subgraph();
    for &risk in subgraph.risks() {
        let mut members = subgraph.dependents_of(risk).into_iter().map(|o| index[&o]);
        let Some(first) = members.next() else {
            continue;
        };
        for other in members {
            let (a, b) = (root(&mut parent, first), root(&mut parent, other));
            parent[a] = b;
        }
    }
    let mut groups: BTreeMap<usize, BTreeSet<SwitchEpgPair>> = BTreeMap::new();
    for (i, &o) in observations.iter().enumerate() {
        groups.entry(root(&mut parent, i)).or_default().insert(o);
    }
    groups.into_values().collect()
}

/// The best first-round coverage of each component: the largest failed
/// dependent count among its hit-ratio-1 risks, if it has one.
fn first_round_best(
    model: &RiskModel<SwitchEpgPair>,
    parts: &[BTreeSet<SwitchEpgPair>],
) -> Vec<Option<usize>> {
    let subgraph = model.failure_subgraph();
    parts
        .iter()
        .map(|part| {
            (subgraph.risks().copied())
                .filter(|&r| {
                    let n = subgraph.failed_dependent_count(r);
                    n > 0 && n == subgraph.dependent_count(r)
                })
                .filter(|&r| subgraph.dependents_of(r).is_subset(part))
                .map(|r| subgraph.failed_dependent_count(r))
                .max()
        })
        .collect()
}

/// A change log as a deployment writes it (one `Create` per object at
/// consecutive ticks), followed by a few seeded modifications, so stage 2
/// has recent changes to choose among.
fn change_log(rules: &[LogicalRule], rng: &mut StdRng) -> ChangeLog {
    let objects: BTreeSet<ObjectId> = rules
        .iter()
        .flat_map(|r| r.provenance.objects_with_switch(r.switch))
        .collect();
    let objects: Vec<ObjectId> = objects.into_iter().collect();
    let mut log = ChangeLog::new();
    for (tick, &object) in objects.iter().enumerate() {
        log.record(
            Timestamp::new(tick as u64 + 1),
            object,
            ChangeAction::Create,
            None,
            "deploy",
        );
    }
    let start = objects.len() as u64 + 100;
    for step in 0..8u64 {
        let &object = objects.choose(rng).expect("a policy has objects");
        log.record(
            Timestamp::new(start + step * 5),
            object,
            ChangeAction::Modify,
            None,
            "edit",
        );
    }
    log
}

/// One seeded failure pattern over `rules`, which is grouped by switch.
fn pattern(rules: &[LogicalRule], rng: &mut StdRng) -> Vec<LogicalRule> {
    let switches: Vec<_> = rules
        .chunk_by(|a, b| a.switch == b.switch)
        .map(|run| run[0].switch)
        .collect();
    let on = |switch| {
        rules
            .iter()
            .filter(move |r: &&LogicalRule| r.switch == switch)
    };
    let mut shuffled = switches.clone();
    shuffled.shuffle(rng);
    let picked = &shuffled[..rng.gen_range(1..=switches.len().min(4))];
    match rng.gen_range(0u32..3) {
        // Random drops on a few switches.
        0 => picked
            .iter()
            .flat_map(|&s| {
                let (m, r) = (rng.gen_range(2usize..6), rng.gen_range(0usize..2));
                on(s)
                    .enumerate()
                    .filter(move |(i, _)| i % m == r)
                    .map(|(_, &x)| x)
                    .collect::<Vec<_>>()
            })
            .collect(),
        // Whole-switch outages: equal switches tie across components.
        1 => picked
            .iter()
            .flat_map(|&s| on(s).copied().collect::<Vec<_>>())
            .collect(),
        // One object's rules on part of its switches, plus a random drop.
        _ => {
            let anchor = rules.choose(rng).expect("the policy compiles to rules");
            let objects = anchor.provenance.policy_objects();
            let object = *objects.choose(rng).expect("five objects");
            let mut dropped: Vec<LogicalRule> = picked
                .iter()
                .flat_map(|&s| on(s))
                .filter(|r| r.provenance.policy_objects().contains(&object))
                .copied()
                .collect();
            let extra = *rules.choose(rng).expect("the policy compiles to rules");
            dropped.push(extra);
            dropped
        }
    }
}

/// Runs `seeds` patterns on `universe` and returns how many showed a tie
/// across components and how many a stage-2 object named by two components.
fn check_universe(name: &str, universe: &PolicyUniverse, seeds: u64) -> (usize, usize) {
    let rules: Vec<LogicalRule> = universe
        .switch_ids()
        .into_iter()
        .flat_map(|s| compile_for_switch(universe, s))
        .collect();
    let mut model = controller_risk_model(universe);
    let pristine = model.clone();
    let (mut ties, mut shared) = (0, 0);
    for seed in 0..seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        let log = change_log(&rules, &mut rng);
        let missing = pattern(&rules, &mut rng);
        let config = ScoutConfig::default();

        let marks = augment_controller_model_tracked(&mut model, missing.iter().copied());
        let global = scout_localize(&model, &log, config);
        let parts = components(&model);
        let best = first_round_best(&model, &parts);
        model.undo_failures(marks);

        let local: Vec<Hypothesis> = parts
            .iter()
            .map(|part| {
                let own = missing
                    .iter()
                    .filter(|r| part.contains(&SwitchEpgPair::new(r.switch, r.pair())));
                let marks = augment_controller_model_tracked(&mut model, own.copied());
                let h = scout_localize(&model, &log, config);
                model.undo_failures(marks);
                h
            })
            .collect();
        assert_eq!(
            outcome(&global),
            merge(&local),
            "{name} seed {seed}: {} components",
            parts.len()
        );

        let bests: Vec<usize> = best.into_iter().flatten().collect();
        if bests.iter().collect::<BTreeSet<_>>().len() < bests.len() {
            ties += 1;
        }
        let mut recent_in: BTreeMap<ObjectId, usize> = BTreeMap::new();
        for h in &local {
            for (&o, e) in h.iter() {
                if matches!(e, Evidence::RecentChange { .. }) {
                    *recent_in.entry(o).or_default() += 1;
                }
            }
        }
        if recent_in.values().any(|&n| n >= 2) {
            shared += 1;
        }
    }
    assert_eq!(model, pristine, "{name}: every mark was undone");
    (ties, shared)
}

#[test]
fn localization_is_the_merge_of_its_components() {
    let mut ties = 0;
    let mut shared = 0;
    for (name, universe, seeds) in [
        ("testbed", TestbedSpec::paper().generate(1), 40),
        (
            "large_fabric(50)",
            ScaleSpec::large_fabric(50).generate(7),
            40,
        ),
        ("cluster", ClusterSpec::paper().generate(3), 6),
    ] {
        let (t, s) = check_universe(name, &universe, seeds);
        ties += t;
        shared += s;
    }
    assert!(ties > 0, "no pattern tied across components");
    assert!(shared > 0, "no stage-2 object was named by two components");
}
