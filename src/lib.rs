//! # scout
//!
//! Facade crate for the SCOUT reproduction: *Fault Localization in Large-Scale
//! Network Policy Deployment* (Tammana, Nagarajan, Mamillapalli, Kompella,
//! Lee — ICDCS 2018).
//!
//! SCOUT localizes *faulty policy objects* — VRFs, EPGs, contracts, filters and
//! switches — when a high-level network policy is not rendered correctly as
//! low-level TCAM rules, and then correlates the faulty objects with
//! physical-level root causes (TCAM overflow, unreachable switch, agent crash,
//! …).
//!
//! This crate simply re-exports the workspace members so applications can
//! depend on a single crate:
//!
//! | module | crate | contents |
//! |--------|-------|----------|
//! | [`policy`] | `scout-policy` | APIC-like object model, policy universe, TCAM rules |
//! | [`bdd`] | `scout-bdd` | ROBDD engine used by the equivalence checker |
//! | [`fabric`] | `scout-fabric` | deterministic controller/switch/TCAM simulator with change & fault logs, typed telemetry events, and the in-house wire codec |
//! | [`equiv`] | `scout-equiv` | L–T equivalence checker (missing-rule detection) |
//! | [`faults`] | `scout-faults` | object-level and physical-level fault injection |
//! | [`workload`] | `scout-workload` | cluster / testbed / scaling policy generators |
//! | [`core`] | `scout-core` | risk models, SCOUT & SCORE localization, correlation engine, shared `Send + Sync` service engine with delta-driven sessions and checkpoint/restore snapshots |
//! | [`metrics`] | `scout-metrics` | precision/recall/γ, CDFs, run statistics |
//! | [`store`] | `scout-store` | durable hash-chained event journal + snapshot anchor store with tamper-evident crash recovery |
//! | [`server`] | `scout-server` | the serving layer: typed wire API, per-tenant admission control, and a simulated multi-node cluster with leader-driven failover |
//! | [`sim`] | `scout-sim` | randomized fault campaigns, soak timelines, the fleet soak through the serving layer, and crash-injection soaks against one shared engine |
//!
//! `ARCHITECTURE.md` at the repo root walks the whole pipeline crate by
//! crate, including the session/delta data flow and where sharding and
//! checkpointing land.
//!
//! # Quickstart
//!
//! ```
//! use scout::core::ScoutEngine;
//! use scout::fabric::Fabric;
//! use scout::policy::{sample, ObjectId};
//!
//! // Deploy the paper's 3-tier Web/App/DB example policy.
//! let mut fabric = Fabric::new(sample::three_tier());
//! fabric.deploy();
//!
//! // Something goes wrong: the port-700 rules silently vanish from the TCAMs.
//! for switch in [sample::S2, sample::S3] {
//!     fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start == 700);
//! }
//!
//! // SCOUT detects the inconsistency and localizes the faulty object.
//! let report = ScoutEngine::new().analyze(&fabric);
//! assert!(report.hypothesis.contains(ObjectId::Filter(sample::F_700)));
//! ```
//!
//! For continuous monitoring, open an
//! [`AnalysisSession`](scout_core::AnalysisSession) on the engine and stream
//! typed [`FabricEvent`](scout_fabric::FabricEvent) batches into it — see the
//! `scout_core` crate docs for the service API.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use scout_bdd as bdd;
pub use scout_core as core;
pub use scout_equiv as equiv;
pub use scout_fabric as fabric;
pub use scout_faults as faults;
pub use scout_metrics as metrics;
pub use scout_policy as policy;
pub use scout_server as server;
pub use scout_sim as sim;
pub use scout_store as store;
pub use scout_workload as workload;

/// The most commonly used items, for glob import in examples and tests.
pub mod prelude {
    pub use scout_core::{
        score_localize, scout_localize, AnalysisSession, CorrelationEngine, EngineBuildError,
        EngineConfig, Hypothesis, OracleCadence, ReportDelta, RiskModel, ScoutConfig, ScoutEngine,
        ScoutEngineBuilder, ScoutReport, SessionError, Snapshot, SnapshotError,
    };
    pub use scout_equiv::EquivalenceChecker;
    pub use scout_fabric::{EventBatch, Fabric, FabricEvent, FabricProbe, FabricView, FaultKind};
    pub use scout_faults::{FaultInjector, ObjectFaultKind};
    pub use scout_metrics::{Accuracy, Cdf, Summary};
    pub use scout_policy::{
        sample, EpgPair, ObjectClass, ObjectId, PolicyUniverse, SwitchEpgPair, TcamRule,
    };
    pub use scout_server::{
        AdmissionConfig, Cluster, ClusterConfig, OverloadPolicy, ScoutServer, ServerConfig,
        ServerError, ServerRequest, ServerResponse,
    };
    pub use scout_sim::{
        Campaign, CampaignReport, CrashSoak, CrashSoakReport, FleetSoak, ScenarioKind, ScenarioMix,
        SoakReport, Timeline, WorkloadKind,
    };
    pub use scout_store::{
        verify_dir, CrashPlan, DurableEngine, DurableSession, StoreConfig, StoreError, StoreSummary,
    };
    pub use scout_workload::{ClusterSpec, ScaleSpec, TestbedSpec};
}
