//! # scout-sim
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the
//! repo root is the crate-by-crate tour showing where this crate sits in
//! the pipeline.
//!
//! The randomized fault-campaign engine of the SCOUT reproduction
//! (ICDCS 2018).
//!
//! The paper's headline claims are statistical — precision and recall near 1
//! on full-object faults, better recall than SCORE on partial faults, a small
//! suspect-set reduction ratio γ — so exercising the pipeline on a handful of
//! hand-written scenarios is not enough. This crate drives *campaigns*:
//! batches of seeded, randomized fault scenarios executed end to end (sample
//! a workload, deploy, disturb, localize, correlate, score against ground
//! truth), in parallel, with the per-seed determinism needed to turn the
//! paper's accuracy tables into enforceable regression tests.
//!
//! Scenarios draw from every disturbance class the repo models
//! ([`ScenarioKind`]): full and partial object faults, physical switch faults
//! (TCAM corruption, silent eviction), switch churn racing a policy rollout,
//! and concurrent policy updates surrounding a fault. Each scenario clones
//! the campaign's reference fabric and is analyzed against a per-worker
//! [`AnalysisSession`](scout_core::AnalysisSession), so a campaign step costs
//! time proportional to the disturbance — the session's equivalence check
//! covers the clean switches, and the later stages settle a fresh failure
//! overlay over the clone's universe instead of building a risk model.
//!
//! Campaigns are one-shot; the [`soak`] module adds the *continuous* half of
//! the paper's pitch: a seeded [`Timeline`] keeps one fabric alive for
//! hundreds of epochs of overlapping faults, online repairs and concurrent
//! policy edits, monitored through a long-lived
//! [`AnalysisSession`](scout_core::AnalysisSession) fed typed event deltas
//! and checked at every epoch against a from-scratch differential oracle.
//!
//! Both engines route all analysis through the
//! [`ScoutEngine`](scout_core::ScoutEngine) facade; their knobs live in one
//! [`EngineConfig`](scout_core::EngineConfig) carried by [`Campaign::engine`]
//! and [`Timeline::engine`].
//!
//! Each recurring piece exists once: every fault experiment — [`Campaign`],
//! [`HostileCampaign`], the [`Timeline`]'s attribution and `scout-bench`'s
//! §VI figures — scores its run against the ground truth through [`score`]
//! ([`Scored`], [`score_baseline`], [`AccuracyStats`]); both campaigns run on
//! one base-fabric runner; every driver that spreads independent items over
//! threads ([`Campaign`], [`HostileCampaign`], [`FleetSoak`]) takes a
//! [`Parallelism`] and fans out through [`Parallelism::fan_out`];
//! [`FleetSoak`] is the one M-tenants × T-threads driver; and the seeded
//! churn steps the differential suites replay live in [`churn`].
//!
//! # Example
//!
//! ```
//! use scout_sim::{Campaign, CampaignReport, Parallelism, WorkloadKind};
//! use scout_workload::TestbedSpec;
//!
//! let campaign = Campaign {
//!     scenarios: 8,
//!     concurrency: Parallelism::Sequential,
//!     ..Campaign::new(WorkloadKind::Testbed(TestbedSpec::paper()), 8, 42)
//! };
//! let outcomes = campaign.run();
//! let report = CampaignReport::of(&outcomes);
//! assert_eq!(report.scenarios, 8);
//! // Same seed, same aggregate — campaigns are deterministic.
//! assert_eq!(CampaignReport::of(&campaign.run()), report);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod campaign;
pub mod churn;
pub mod crash;
pub mod fleet;
pub mod hostile;
pub mod scenario;
pub mod score;
pub mod soak;

pub use campaign::{scenario_seed, Campaign, CampaignReport};
pub use crash::{CrashSoak, CrashSoakReport};
pub use fleet::{FleetRun, FleetSoak, TenantOutcome};
pub use hostile::{
    hostile_seed, HostileCampaign, HostileClassStats, HostileKind, HostileOutcome, HostileReport,
};
pub use scenario::{run_scenario, ScenarioKind, ScenarioMix, ScenarioOutcome, WorkloadKind};
pub use score::{score_baseline, AccuracyStats, Scored};
pub use soak::{
    EpochRecord, FaultRecord, SoakFaultKind, SoakOutcome, SoakReport, SoakRun, Timeline,
};

// The oracle cadence and the thread policy are defined below this crate;
// re-exported here because the drivers' config structs carry them.
pub use scout_core::{OracleCadence, Parallelism};
