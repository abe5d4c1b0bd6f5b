//! # scout-core
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the
//! repo root is the crate-by-crate tour showing where this crate sits in
//! the pipeline.
//!
//! The primary contribution of *Fault Localization in Large-Scale Network
//! Policy Deployment* (Tammana et al., ICDCS 2018): risk models for network
//! policies, the SCOUT fault-localization algorithm, the SCORE baseline it is
//! evaluated against, the event-correlation engine that maps faulty policy
//! objects to physical-level root causes, and the long-lived [`ScoutEngine`]
//! service facade with its delta-driven [`AnalysisSession`]s.
//!
//! ## Pipeline
//!
//! 1. **Detect** — the L–T equivalence checker (`scout-equiv`) compares the
//!    logical rules compiled from the policy with the TCAM rules collected
//!    from switches and emits the set of missing rules.
//! 2. **Model** — the missing rules annotate a bipartite [`RiskModel`]
//!    (switch-level or controller-level) between EPG pairs and the policy
//!    objects they rely on (§III of the paper).
//! 3. **Localize** — [`scout_localize`] greedily picks the fully-failed risks
//!    with maximal coverage and falls back to the controller change log for
//!    partially-failed objects (Algorithms 1 and 2). [`score_localize`]
//!    implements the SCORE baseline.
//! 4. **Diagnose** — the [`CorrelationEngine`] matches the hypothesis against
//!    device fault logs through a signature library and reports the most
//!    likely physical root causes (TCAM overflow, unreachable switch, …).
//!
//! ## Service API
//!
//! [`ScoutEngine`] is the single front door: one-shot analyses go through
//! [`ScoutEngine::analyze`], continuous monitoring opens an
//! [`AnalysisSession`] and streams typed
//! [`FabricEvent`](scout_fabric::FabricEvent) batches into it, receiving a
//! [`ReportDelta`] per epoch. Both routes share the same four stages, so a
//! session's [`AnalysisSession::full_report`] is bit-identical to a
//! from-scratch analysis of the same fabric state.
//!
//! # Example
//!
//! ```
//! use scout_core::ScoutEngine;
//! use scout_fabric::Fabric;
//! use scout_policy::{sample, ObjectId};
//!
//! // Deploy the 3-tier example policy, then silently lose the port-700 rules.
//! let mut fabric = Fabric::new(sample::three_tier());
//! fabric.deploy();
//! for switch in [sample::S2, sample::S3] {
//!     fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start == 700);
//! }
//!
//! let report = ScoutEngine::new().analyze(&fabric);
//! assert!(report.hypothesis.contains(ObjectId::Filter(sample::F_700)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod correlation;
pub mod engine;
pub mod gauges;
pub mod localization;
mod overlay;
pub mod risk;
pub mod session;
pub mod snapshot;

pub use correlation::{
    CorrelationEngine, CorrelationReport, ObjectDiagnosis, PartialDiagnosis, RankedCause,
    RootCause, SignatureLibrary,
};
pub use engine::{EngineBuildError, EngineConfig, OracleCadence, ScoutEngine, ScoutReport};
pub use gauges::{ServiceGauges, ServiceStats};
pub use localization::{score_localize, scout_localize, Evidence, Hypothesis, ScoutConfig};
pub use risk::{
    augment_controller_model, augment_controller_model_tracked, augment_switch_model,
    controller_risk_model, controller_risk_model_sharded, switch_risk_model, EdgeStatus,
    FailureMarks, RiskModel,
};
pub use session::{AnalysisSession, ReportDelta, ResyncRequest, SessionError, SessionStats};
pub use snapshot::{Snapshot, SnapshotError, SNAPSHOT_VERSION};
// The thread policy every parallel stage resolves through, re-exported so
// drivers that already depend on this crate can name it.
pub use scout_equiv::Parallelism;

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use scout_fabric::ChangeLog;
    use scout_policy::{EpgId, EpgPair, FilterId, ObjectId};
    use std::collections::BTreeSet;

    /// A random bipartite model description: element index -> (risk index,
    /// failed?) edges.
    fn random_model_desc(rng: &mut StdRng) -> Vec<Vec<(u32, bool)>> {
        let elements = rng.gen_range(1usize..12);
        (0..elements)
            .map(|_| {
                let edges = rng.gen_range(1usize..6);
                (0..edges)
                    .map(|_| (rng.gen_range(0u32..8), rng.gen_bool(0.5)))
                    .collect()
            })
            .collect()
    }

    fn build_model(desc: &[Vec<(u32, bool)>]) -> RiskModel<EpgPair> {
        let mut model = RiskModel::new();
        for (i, edges) in desc.iter().enumerate() {
            let element = EpgPair::new(EpgId::new(i as u32 * 2), EpgId::new(i as u32 * 2 + 1));
            model.add_element(element);
            for &(risk, failed) in edges {
                let risk = ObjectId::Filter(FilterId::new(risk));
                if failed {
                    model.mark_failed(element, risk);
                } else {
                    model.add_edge(element, risk);
                }
            }
        }
        model
    }

    /// SCOUT's cover stage plus change-log stage never report more
    /// observations than exist, and the hypothesis only contains risks of the
    /// model.
    #[test]
    fn scout_hypothesis_is_well_formed() {
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = build_model(&random_model_desc(&mut rng));
            let log = ChangeLog::new();
            let h = scout_localize(&model, &log, ScoutConfig::default());
            let signature = model.failure_signature();
            assert_eq!(h.observations, signature.len(), "seed {seed}");
            assert_eq!(
                h.explained_by_cover + h.explained_by_changelog + h.unexplained,
                signature.len(),
                "seed {seed}"
            );
            let all_risks: BTreeSet<ObjectId> = model.risks().copied().collect();
            for obj in h.objects() {
                assert!(all_risks.contains(&obj), "seed {seed}");
            }
        }
    }

    /// Every observation explained by the cover stage really is covered by
    /// some hypothesis object whose dependents all failed.
    #[test]
    fn scout_cover_objects_fully_failed() {
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = build_model(&random_model_desc(&mut rng));
            let log = ChangeLog::new();
            let h = scout_localize(&model, &log, ScoutConfig::default());
            for (obj, evidence) in h.iter() {
                if matches!(evidence, Evidence::FullCover) {
                    // In the original (un-pruned) model the object's failed
                    // dependents are non-empty.
                    assert!(!model.failed_dependents_of(*obj).is_empty(), "seed {seed}");
                }
            }
        }
    }

    /// SCORE with threshold 0 explains every observation (it degenerates to
    /// unconstrained greedy set cover over failed edges).
    #[test]
    fn score_threshold_zero_explains_everything() {
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = build_model(&random_model_desc(&mut rng));
            let h = score_localize(&model, 0.0);
            assert_eq!(h.unexplained, 0, "seed {seed}");
        }
    }

    /// SCORE's hypothesis size never exceeds the number of observations (each
    /// greedy pick explains at least one new observation).
    #[test]
    fn score_hypothesis_bounded_by_observations() {
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let model = build_model(&random_model_desc(&mut rng));
            let h = score_localize(&model, 1.0);
            assert!(h.len() <= h.observations, "seed {seed}");
        }
    }

    /// Ranked partial diagnoses under randomly conflicting evidence — logged
    /// evictions next to silent removals, with coin-flip fault-log wipes —
    /// are deterministic across engine parallelism, never empty while
    /// missing rules exist, and always rank a logged root cause above every
    /// unlogged candidate.
    #[test]
    fn ranked_partial_diagnoses_are_stable_and_ordered() {
        use scout_equiv::Parallelism;
        use scout_fabric::{Fabric, FaultLog};
        use scout_policy::sample;

        let rank = |engine: &ScoutEngine, fabric: &Fabric| {
            let report = engine.analyze(fabric);
            let ranked = engine.correlation().rank_partial(
                &report.hypothesis,
                &report.suspect_objects,
                fabric.universe(),
                fabric.change_log(),
                fabric.fault_log(),
            );
            (report, ranked)
        };

        for seed in 0..60u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut fabric = Fabric::new(sample::three_tier());
            fabric.deploy();
            let switches = [sample::S1, sample::S2, sample::S3];
            for _ in 0..rng.gen_range(1usize..4) {
                let switch = switches[rng.gen_range(0..switches.len())];
                if rng.gen_bool(0.5) {
                    fabric.evict_tcam(switch, rng.gen_range(1usize..3), true);
                } else {
                    fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start == 700);
                }
            }
            if rng.gen_bool(0.3) {
                *fabric.fault_log_mut() = FaultLog::new();
            }

            let engine = |parallelism| {
                ScoutEngine::from_config(EngineConfig {
                    parallelism,
                    ..EngineConfig::default()
                })
                .unwrap()
            };
            let sequential = engine(Parallelism::Sequential);
            let threaded = engine(Parallelism::Fixed(4));
            let (report, ranked) = rank(&sequential, &fabric);
            let (_, reranked) = rank(&sequential, &fabric);
            assert_eq!(ranked, reranked, "seed {seed}: ranking must be stable");
            let (_, ranked_threaded) = rank(&threaded, &fabric);
            assert_eq!(
                ranked, ranked_threaded,
                "seed {seed}: ranking must not depend on thread count"
            );

            if report.check.missing_rules().next().is_some() {
                assert!(
                    !ranked.is_empty(),
                    "seed {seed}: missing rules demand a non-empty ranking"
                );
            }

            let mut saw_unlogged = false;
            for candidate in ranked.candidates() {
                assert!(
                    candidate.confidence > 0.0 && candidate.confidence <= 1.0,
                    "seed {seed}: confidence out of range"
                );
                match candidate.cause {
                    RootCause::Unknown => {
                        assert!(candidate.confidence <= 0.5, "seed {seed}");
                        saw_unlogged = true;
                    }
                    RootCause::Physical { .. } => {
                        assert!(candidate.confidence > 0.5, "seed {seed}");
                        assert!(
                            !saw_unlogged,
                            "seed {seed}: a logged cause ranked below an unlogged one"
                        );
                    }
                }
            }
        }
    }
}
