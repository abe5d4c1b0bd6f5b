//! Single-scenario sampling and execution.
//!
//! A *scenario* is one seeded experiment of the campaign engine: start from a
//! deployed reference fabric, apply a randomized disturbance (object faults,
//! physical faults, switch churn or concurrent policy updates), run the full
//! SCOUT pipeline, and score the result against the ground truth. Every
//! decision a scenario makes is derived from its seed, so a scenario is fully
//! reproducible in isolation — the property that lets campaigns run scenarios
//! in parallel and still aggregate deterministic reports.

use std::collections::BTreeSet;
use std::fmt;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scout_core::{AnalysisSession, ScoutEngine};
use scout_fabric::Fabric;
use scout_faults::{random_tcam_corruption, silent_rule_eviction, FaultInjector, ObjectFaultKind};
use scout_policy::{ObjectId, PolicyUniverse};
use scout_workload::{add_random_filter, random_policy_edit, ClusterSpec, ScaleSpec, TestbedSpec};

use crate::score::{score_baseline, Scored};

/// Which policy generator a campaign samples its reference fabric from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkloadKind {
    /// The production-cluster-like policy (`scout_workload::ClusterSpec`).
    Cluster(ClusterSpec),
    /// The physical-testbed policy (`scout_workload::TestbedSpec`).
    Testbed(TestbedSpec),
    /// The per-switch replicated scaling policy (`scout_workload::ScaleSpec`).
    Scale(ScaleSpec),
}

impl WorkloadKind {
    /// Generates the policy universe for this workload with the given seed.
    pub fn generate(&self, seed: u64) -> PolicyUniverse {
        match self {
            WorkloadKind::Cluster(spec) => spec.generate(seed),
            WorkloadKind::Testbed(spec) => spec.generate(seed),
            WorkloadKind::Scale(spec) => spec.generate(seed),
        }
    }
}

/// The disturbance class of one scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ScenarioKind {
    /// 1–k full object faults: every rule of each faulty object is lost.
    FullObject,
    /// 1–k partial object faults: a strict subset of each object's rules is
    /// lost, so the object's hit ratio stays below 1.
    PartialObject,
    /// A physical switch-level fault: silent TCAM corruption or eviction.
    Physical,
    /// Switch churn: a control channel flaps while a policy update is rolled
    /// out, so the flapping switch misses the update.
    Churn,
    /// Concurrent policy updates racing an object fault: benign edits land
    /// immediately before and after the fault, polluting the change log.
    ConcurrentUpdate,
}

impl ScenarioKind {
    /// All kinds, in report order.
    pub const ALL: [ScenarioKind; 5] = [
        ScenarioKind::FullObject,
        ScenarioKind::PartialObject,
        ScenarioKind::Physical,
        ScenarioKind::Churn,
        ScenarioKind::ConcurrentUpdate,
    ];
}

impl fmt::Display for ScenarioKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            ScenarioKind::FullObject => "full-object",
            ScenarioKind::PartialObject => "partial-object",
            ScenarioKind::Physical => "physical",
            ScenarioKind::Churn => "churn",
            ScenarioKind::ConcurrentUpdate => "concurrent-update",
        };
        f.write_str(name)
    }
}

/// Relative weights of the scenario kinds in a campaign. A kind with weight 0
/// never occurs; at least one weight must be positive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScenarioMix {
    /// Weight of [`ScenarioKind::FullObject`].
    pub full_object: u32,
    /// Weight of [`ScenarioKind::PartialObject`].
    pub partial_object: u32,
    /// Weight of [`ScenarioKind::Physical`].
    pub physical: u32,
    /// Weight of [`ScenarioKind::Churn`].
    pub churn: u32,
    /// Weight of [`ScenarioKind::ConcurrentUpdate`].
    pub concurrent_update: u32,
}

impl Default for ScenarioMix {
    /// The default mix leans on the object faults the paper evaluates while
    /// keeping every disturbance class present.
    fn default() -> Self {
        Self {
            full_object: 4,
            partial_object: 4,
            physical: 2,
            churn: 1,
            concurrent_update: 1,
        }
    }
}

impl ScenarioMix {
    /// Only full and partial object faults — the population of the paper's
    /// accuracy figures.
    pub fn object_faults_only() -> Self {
        Self {
            full_object: 1,
            partial_object: 1,
            physical: 0,
            churn: 0,
            concurrent_update: 0,
        }
    }

    fn weights(&self) -> [(ScenarioKind, u32); 5] {
        [
            (ScenarioKind::FullObject, self.full_object),
            (ScenarioKind::PartialObject, self.partial_object),
            (ScenarioKind::Physical, self.physical),
            (ScenarioKind::Churn, self.churn),
            (ScenarioKind::ConcurrentUpdate, self.concurrent_update),
        ]
    }

    /// Samples a kind according to the weights.
    ///
    /// # Panics
    ///
    /// Panics if every weight is zero.
    pub fn sample<R: Rng>(&self, rng: &mut R) -> ScenarioKind {
        let weights = self.weights();
        let total: u32 = weights.iter().map(|(_, w)| w).sum();
        assert!(total > 0, "scenario mix must have a positive weight");
        let mut pick = rng.gen_range(0..total);
        for (kind, weight) in weights {
            if pick < weight {
                return kind;
            }
            pick -= weight;
        }
        unreachable!("pick is bounded by the total weight")
    }
}

/// The scored result of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioOutcome {
    /// Position of the scenario within its campaign.
    pub index: usize,
    /// The scenario's private seed (derived from the campaign seed).
    pub seed: u64,
    /// The disturbance class that was applied.
    pub kind: ScenarioKind,
    /// Number of injected faults (object faults injected, or 1 for the
    /// physical/churn disturbances; 0 if the disturbance turned out inert).
    pub fault_count: usize,
    /// SCOUT and SCORE-1.0 scored against the ground truth.
    pub scored: Scored,
    /// Total missing rules reported by the equivalence check.
    pub missing_rules: usize,
    /// Number of failed observations.
    pub observations: usize,
    /// Observations explained by the greedy-cover stage.
    pub explained_by_cover: usize,
    /// Observations attributed through the change log.
    pub explained_by_changelog: usize,
    /// Observations left unexplained.
    pub unexplained: usize,
    /// Whether a from-scratch analysis of the same fabric was bit-identical
    /// to the session's report (`None` when the oracle did not run).
    pub oracle_agrees: Option<bool>,
}

/// A mutated fabric plus its ground truth, ready for analysis.
struct PreparedScenario {
    fabric: Fabric,
    kind: ScenarioKind,
    fault_count: usize,
    truth: BTreeSet<ObjectId>,
}

/// Derives the injector seed from the scenario seed; the two streams must be
/// independent so adding a sampling decision never perturbs the injection.
pub(crate) fn injector_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x2545_F491_4F6C_DD1D).wrapping_add(0xB5)
}

/// Samples and applies one disturbance to a clone of `base`.
fn prepare(base: &Fabric, seed: u64, max_faults: usize, mix: &ScenarioMix) -> PreparedScenario {
    let mut rng = StdRng::seed_from_u64(seed);
    let kind = mix.sample(&mut rng);
    let mut fabric = base.clone();
    let mut truth = BTreeSet::new();
    let mut fault_count = 0usize;
    let max_faults = max_faults.max(1);

    match kind {
        ScenarioKind::FullObject | ScenarioKind::PartialObject => {
            let forced = if kind == ScenarioKind::FullObject {
                ObjectFaultKind::Full
            } else {
                ObjectFaultKind::Partial
            };
            let count = rng.gen_range(1..=max_faults);
            let mut injector = FaultInjector::new(StdRng::seed_from_u64(injector_seed(seed)));
            let injected = injector.inject_object_faults_of(&mut fabric, count, forced);
            fault_count = injected.len();
            truth = injected.objects();
        }
        ScenarioKind::Physical => {
            let switches = fabric.universe().switch_ids();
            let &switch = switches.choose(&mut rng).expect("workloads have switches");
            let fault = if rng.gen_bool(0.5) {
                let count = rng.gen_range(1..=3);
                random_tcam_corruption(&mut fabric, switch, count, &mut rng)
            } else {
                let count = rng.gen_range(1..=3);
                silent_rule_eviction(&mut fabric, switch, count)
            };
            if !fault.affected_rules.is_empty() {
                fault_count = 1;
                truth = fault.affected_objects(&fabric);
                truth.insert(ObjectId::Switch(switch));
            }
        }
        ScenarioKind::Churn => {
            let switches = fabric.universe().switch_ids();
            let &switch = switches.choose(&mut rng).expect("workloads have switches");
            fabric.disconnect_switch(switch);
            let universe = fabric.universe().clone();
            if let Some(edit) = add_random_filter(&universe, &mut rng) {
                fabric.update_policy(edit.universe);
                // The flapped switch missed the rollout iff the edit rendered
                // rules onto it; otherwise the flap was harmless.
                let lost = fabric
                    .logical_rules()
                    .iter()
                    .filter(|r| r.switch == switch && r.provenance.filter == edit.filter)
                    .count();
                if lost > 0 {
                    fault_count = 1;
                    truth.insert(ObjectId::Switch(switch));
                    truth.insert(ObjectId::Filter(edit.filter));
                    truth.insert(ObjectId::Contract(edit.contract));
                }
            }
            fabric.reconnect_switch(switch);
        }
        ScenarioKind::ConcurrentUpdate => {
            // Benign edit, fault, benign edit: the change log fills with
            // recent innocent modifications around the faulty one.
            let universe = fabric.universe().clone();
            if let Some(edit) = add_random_filter(&universe, &mut rng) {
                fabric.update_policy(edit.universe);
            }
            let count = rng.gen_range(1..=max_faults);
            let mut injector = FaultInjector::new(StdRng::seed_from_u64(injector_seed(seed)));
            let injected = injector.inject_object_faults(&mut fabric, count);
            fault_count = injected.len();
            truth = injected.objects();
            let universe = fabric.universe().clone();
            if let Some(edit) = random_policy_edit(&universe, &mut rng) {
                fabric.update_policy(edit.universe);
            }
        }
    }

    PreparedScenario {
        fabric,
        kind,
        fault_count,
        truth,
    }
}

/// Runs one scenario end to end through the worker's [`AnalysisSession`].
///
/// The analysis reuses the session's equivalence check and settles the
/// clone's evidence on a fresh failure overlay
/// ([`AnalysisSession::analyze_clone`]); SCORE reads the failure subgraph of
/// the same check ([`score_baseline`]). With an `oracle` engine, the report
/// is also compared against its from-scratch [`ScoutEngine::analyze`], the
/// per-edge controller model.
pub fn run_scenario(
    session: &AnalysisSession,
    oracle: Option<&ScoutEngine>,
    base: &Fabric,
    index: usize,
    seed: u64,
    max_faults: usize,
    mix: &ScenarioMix,
) -> ScenarioOutcome {
    let prepared = prepare(base, seed, max_faults, mix);
    let fabric = &prepared.fabric;

    let report = session.analyze_clone(fabric);
    let score = score_baseline(fabric, &report);
    ScenarioOutcome {
        index,
        seed,
        kind: prepared.kind,
        fault_count: prepared.fault_count,
        missing_rules: report.missing_rule_count(),
        observations: report.hypothesis.observations,
        explained_by_cover: report.hypothesis.explained_by_cover,
        explained_by_changelog: report.hypothesis.explained_by_changelog,
        unexplained: report.hypothesis.unexplained,
        oracle_agrees: oracle.map(|engine| engine.analyze(fabric) == report),
        scored: Scored::of(prepared.truth, &report, &score),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn testbed_base() -> Fabric {
        let spec = TestbedSpec {
            epgs: 12,
            contracts: 8,
            filters: 4,
            target_pairs: 20,
            switches: 3,
            tcam_capacity: 1024,
        };
        let mut fabric = Fabric::new(spec.generate(5));
        fabric.deploy();
        fabric
    }

    #[test]
    fn mix_sampling_respects_zero_weights() {
        let mut rng = StdRng::seed_from_u64(1);
        let mix = ScenarioMix::object_faults_only();
        for _ in 0..100 {
            let kind = mix.sample(&mut rng);
            assert!(matches!(
                kind,
                ScenarioKind::FullObject | ScenarioKind::PartialObject
            ));
        }
    }

    #[test]
    #[should_panic(expected = "positive weight")]
    fn all_zero_mix_panics() {
        let mix = ScenarioMix {
            full_object: 0,
            partial_object: 0,
            physical: 0,
            churn: 0,
            concurrent_update: 0,
        };
        let mut rng = StdRng::seed_from_u64(1);
        let _ = mix.sample(&mut rng);
    }

    #[test]
    fn incremental_and_from_scratch_scenarios_agree() {
        let base = testbed_base();
        let engine = ScoutEngine::new();
        let session = engine.open_session(&base);
        let mix = ScenarioMix::default();
        for seed in 0..12u64 {
            let outcome = run_scenario(&session, Some(&engine), &base, 0, seed, 3, &mix);
            assert_eq!(outcome.oracle_agrees, Some(true), "seed {seed}");
        }
    }

    #[test]
    fn object_scenarios_localize_their_faults() {
        let base = testbed_base();
        let engine = ScoutEngine::new();
        let session = engine.open_session(&base);
        let mix = ScenarioMix::object_faults_only();
        let mut attributed = 0usize;
        let mut faulty = 0usize;
        for seed in 0..10u64 {
            let outcome = run_scenario(&session, None, &base, 0, seed, 2, &mix).scored;
            assert!(outcome
                .hypothesis
                .iter()
                .all(|o| outcome.suspects.contains(o)));
            if !outcome.truth.is_empty() {
                faulty += 1;
                assert!(!outcome.consistent, "seed {seed}");
                if outcome.attributed {
                    attributed += 1;
                }
            }
        }
        assert!(faulty > 0);
        assert!(attributed * 2 > faulty, "most faults should be attributed");
    }
}
