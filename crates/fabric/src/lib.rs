//! # scout-fabric
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the
//! repo root is the crate-by-crate tour showing where this crate sits in
//! the pipeline.
//!
//! A deterministic simulator of the SDN fabric the SCOUT paper (ICDCS 2018)
//! evaluates on: a centralized controller, per-switch agents, and TCAM tables,
//! connected by control channels that can fail.
//!
//! The simulator reproduces the three-element deployment pipeline of §II of the
//! paper — global policy at the controller, local logical view at each switch
//! agent, and rendered TCAM rules — together with every failure mode the paper
//! lists in §II-B: control-channel disconnection, agent crashes mid-update,
//! TCAM overflow, TCAM corruption and silent rule eviction. It also produces
//! the two log streams SCOUT consumes: the controller *change log* and the
//! device/controller *fault log*.
//!
//! # Example
//!
//! ```
//! use scout_fabric::Fabric;
//! use scout_policy::sample;
//!
//! let mut fabric = Fabric::new(sample::three_tier());
//! let report = fabric.deploy();
//! assert_eq!(report.rules_applied, 12);
//! // Desired state (L-type rules) and actual state (T-type rules) agree.
//! assert_eq!(fabric.logical_rules_for(sample::S2).len(), 6);
//! assert_eq!(fabric.tcam_rules(sample::S2).len(), 6);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod agent;
pub mod channel;
pub mod clock;
pub mod compiler;
pub mod event;
pub mod fabric;
pub mod instruction;
pub mod logs;
pub mod tcam;
pub mod wire;

pub use agent::{AgentHealth, ApplyOutcome, SwitchAgent};
pub use channel::{ControlChannel, LinkState};
pub use clock::{SimClock, Timestamp};
pub use compiler::{
    compile, compile_for_switch, diff_rules, rule_count_for_switch, switch_delta, RuleDiff,
    SwitchDelta,
};
pub use event::{ApplyError, EventBatch, FabricEvent, FabricProbe, FabricView, FullSync};
pub use fabric::{diff_universes, DeploymentReport, Fabric, RepairReport};
pub use instruction::{Instruction, InstructionOp};
pub use logs::{
    ChangeAction, ChangeLog, ChangeLogEntry, FaultKind, FaultLog, FaultLogEntry, Severity,
};
pub use tcam::{CorruptionKind, TcamError, TcamTable};
pub use wire::{Wire, WireError, WireReader, WireWriter};
