//! # scout-server
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the repo
//! root is the crate-by-crate tour showing where this crate sits in the
//! pipeline.
//!
//! The **serving layer**: everything between a million untrusted tenants
//! and the analysis engine.
//!
//! * [`messages`] — the typed [`ServerRequest`]/[`ServerResponse`] wire API
//!   (canonical `scout-fabric` codec; one more fuzzed surface);
//! * [`admission`] — per-tenant token quotas and bounded FIFO queues (a
//!   capacity of 0 sheds instead of queueing);
//! * [`server`] — one serving node: decode → admission → session → respond,
//!   over in-memory or journal-backed (`scout-store`) sessions;
//! * [`membership`] / [`leader`] / [`coordinator`] — the simulated cluster:
//!   heartbeat death detection, lowest-alive-id leadership, and failover by
//!   journal replay on a surviving node.
//!
//! The layer's contract, pinned by the enforced root suite
//! `tests/server.rs`: front-door results are **bit-identical** to direct
//! single-threaded engine replay — per tenant, across server thread counts,
//! across node counts, and across a mid-soak leader + owner kill.
//!
//! # Example
//!
//! ```
//! use scout_core::ScoutEngine;
//! use scout_fabric::EventBatch;
//! use scout_policy::sample;
//! use scout_server::{ScoutServer, ServerConfig, ServerRequest, ServerResponse};
//!
//! let mut server = ScoutServer::new(ScoutEngine::new(), ServerConfig::default());
//! let opened = server.handle(ServerRequest::OpenSession {
//!     tenant: 7,
//!     universe: sample::three_tier(),
//! });
//! assert_eq!(opened, ServerResponse::Opened { tenant: 7, epoch: 0 });
//!
//! match server.handle(ServerRequest::Ingest {
//!     tenant: 7,
//!     batch: EventBatch::empty(1),
//! }) {
//!     ServerResponse::Ingested { delta, .. } => assert!(delta.consistent),
//!     other => panic!("unexpected: {other:?}"),
//! }
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod coordinator;
pub mod leader;
pub mod membership;
pub mod messages;
pub mod server;

pub use admission::{Admission, AdmissionConfig, AdmissionController};
pub use coordinator::{Cluster, ClusterConfig, TickReport};
pub use leader::{elect, plan_reassignment, Reassignment};
pub use membership::{Membership, NodeId};
pub use messages::{ServerError, ServerRequest, ServerResponse, TenantId};
pub use server::{ScoutServer, ServerConfig};
