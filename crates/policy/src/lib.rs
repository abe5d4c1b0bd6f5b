//! # scout-policy
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the
//! repo root is the crate-by-crate tour showing where this crate sits in
//! the pipeline.
//!
//! The network-policy object model used by the SCOUT fault-localization system
//! (reproduction of *Fault Localization in Large-Scale Network Policy
//! Deployment*, ICDCS 2018).
//!
//! The model mirrors application-centric policy controllers (Cisco APIC, GBP,
//! PGA): tenants own [`Vrf`]s, VRFs scope [`Epg`]s, EPGs contain [`Endpoint`]s
//! attached to leaf [`Switch`]es, and [`Contract`]s glue EPG pairs to
//! [`Filter`]s that whitelist protocol/port combinations. A validated snapshot
//! of all objects is a [`PolicyUniverse`], which offers the dependency queries
//! that the policy compiler, the risk models and the evaluation harness rely
//! on (e.g. *which EPG pairs share this object?* — Figure 3 of the paper).
//!
//! The crate also defines the low-level rule representation: [`TcamRule`] for
//! rules rendered in switch hardware (T-type rules) and [`LogicalRule`] for
//! controller-side expectations with provenance (L-type rules).
//!
//! # Example
//!
//! ```
//! use scout_policy::{sample, EpgPair, ObjectId};
//!
//! let universe = sample::three_tier();
//! let pair = EpgPair::new(sample::APP, sample::DB);
//! let risks = universe.objects_for_pair(pair);
//! assert!(risks.contains(&ObjectId::Filter(sample::F_700)));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod error;
pub mod ids;
mod index;
mod inline;
pub mod object;
pub mod pair;
pub mod rule;
pub mod sample;
pub mod universe;

pub use error::PolicyError;
pub use ids::{
    ContractId, EndpointId, EpgId, FilterId, ObjectClass, ObjectId, SwitchId, TenantId, VrfId,
};
pub use inline::{FilterList, Name};
pub use object::{
    Action, Contract, ContractBinding, Endpoint, Epg, Filter, FilterEntry, PortRange, Protocol,
    Switch, Tenant, Vrf,
};
pub use pair::{EpgPair, SwitchEpgPair};
pub use rule::{evaluate, FlowKey, LogicalRule, RuleMatch, RuleProvenance, TcamRule};
pub use universe::{PolicyBuilder, PolicyUniverse, UniverseStats};
