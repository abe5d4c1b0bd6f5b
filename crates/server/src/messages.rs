//! The typed request/response surface of the front door.
//!
//! Every message is encoded with the canonical [`scout_fabric::wire`] codec,
//! which makes the server API one more **untrusted surface**: the fuzzer's
//! `Surface::Server` arm decodes arbitrary bytes as [`ServerRequest`] and
//! holds the decoder to the same no-panic / fixpoint / typed-rejection
//! oracles as every other boundary. A server never trusts that a request
//! decoded cleanly *means* anything — tenant existence, epoch ordering and
//! quota state are all re-checked behind the decode.
//!
//! Tag spaces are append-only: new variants take the next free tag, existing
//! tags are never reused, so old captures replay against newer decoders with
//! typed errors instead of misparses.

use scout_core::{ReportDelta, ScoutReport, SessionError};
use scout_fabric::wire::{Wire, WireError, WireReader, WireWriter};
use scout_fabric::{EventBatch, FullSync};
use scout_policy::PolicyUniverse;
use std::fmt;

/// A tenant identifier as carried on the wire.
///
/// Plain `u64` rather than a newtype: the serving layer's tenant space is
/// owned by whoever operates the fleet (a SaaS control plane, a test
/// driver), not by the policy model — `scout_policy::TenantId` names EPG
/// ownership *inside* one fabric and is unrelated.
pub type TenantId = u64;

/// One request from a tenant to the front door.
// `OpenSession` holds its universe inline (callers build the variant from a
// plain `PolicyUniverse`) while `Resync`'s view shares its own behind an `Arc`.
// A request is decoded, moved into `handle` and consumed — never stored in
// bulk — so the size gap between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum ServerRequest {
    /// Registers `tenant` and opens an analysis session over a pristine
    /// deployment of `universe` (the server recreates the fabric and
    /// deploys it; drift arrives later as [`ServerRequest::Ingest`]).
    OpenSession {
        /// The tenant to register.
        tenant: TenantId,
        /// The policy the tenant's fabric deploys.
        universe: PolicyUniverse,
    },
    /// Feeds one epoch of observed drift into the tenant's session, subject
    /// to admission control.
    Ingest {
        /// The session owner.
        tenant: TenantId,
        /// The epoch's event batch (strictly `next_epoch`-sequenced,
        /// counting batches already parked in the tenant's queue).
        batch: EventBatch,
    },
    /// Recovers from a delivery gap with a fresh full read of the fabric.
    Resync {
        /// The session owner.
        tenant: TenantId,
        /// The epoch of the fresh read (must cover the gap).
        epoch: u64,
        /// The fresh full read.
        sync: FullSync,
    },
    /// Forces a durability point for the tenant's session.
    Checkpoint {
        /// The session owner.
        tenant: TenantId,
    },
    /// Reads the tenant's current full report.
    Query {
        /// The session owner.
        tenant: TenantId,
    },
    /// Closes the tenant's session and drops its admission lane.
    CloseSession {
        /// The session owner.
        tenant: TenantId,
    },
}

impl ServerRequest {
    /// The tenant this request concerns.
    pub fn tenant(&self) -> TenantId {
        match self {
            ServerRequest::OpenSession { tenant, .. }
            | ServerRequest::Ingest { tenant, .. }
            | ServerRequest::Resync { tenant, .. }
            | ServerRequest::Checkpoint { tenant }
            | ServerRequest::Query { tenant }
            | ServerRequest::CloseSession { tenant } => *tenant,
        }
    }
}

/// The front door's answer to one [`ServerRequest`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServerResponse {
    /// The session is open; analysis starts at `epoch`.
    Opened {
        /// The registered tenant.
        tenant: TenantId,
        /// The session's opening epoch.
        epoch: u64,
    },
    /// The batch was applied synchronously.
    Ingested {
        /// The session owner.
        tenant: TenantId,
        /// What the batch changed.
        delta: ReportDelta,
    },
    /// The batch was accepted but parked in the tenant's queue; it will be
    /// applied by a later server tick. **Accepted means owned**: a queued
    /// batch is never dropped while the session stays open.
    Queued {
        /// The session owner.
        tenant: TenantId,
        /// The tenant's queue depth after parking (this batch included).
        depth: u64,
    },
    /// The resync was applied.
    Resynced {
        /// The session owner.
        tenant: TenantId,
        /// What the resync changed.
        delta: ReportDelta,
    },
    /// The durability point is on disk (or, for in-memory tenants, the
    /// checkpoint was taken).
    Checkpointed {
        /// The session owner.
        tenant: TenantId,
        /// The epoch the checkpoint covers.
        epoch: u64,
    },
    /// The tenant's current full report.
    Report {
        /// The session owner.
        tenant: TenantId,
        /// The session's current epoch.
        epoch: u64,
        /// The full analysis report at that epoch.
        report: ScoutReport,
    },
    /// The session is closed.
    Closed {
        /// The former session owner.
        tenant: TenantId,
        /// The epoch the session closed at.
        epoch: u64,
    },
    /// The request was refused with a typed error.
    Error(ServerError),
}

/// Why the front door refused a request.
#[derive(Debug, Clone, PartialEq)]
pub enum ServerError {
    /// The tenant is over quota and its queue is full (or the shed policy
    /// is in force): the batch was **not** accepted and must be resent.
    Shed {
        /// The tenant that was shed.
        tenant: TenantId,
        /// How many server ticks the tenant should wait before retrying —
        /// the earliest tick by which the current backlog can have drained
        /// at the configured refill rate.
        retry_hint: u64,
    },
    /// No open session for this tenant.
    UnknownTenant {
        /// The unknown tenant.
        tenant: TenantId,
    },
    /// [`ServerRequest::OpenSession`] for a tenant that is already open.
    TenantExists {
        /// The already-registered tenant.
        tenant: TenantId,
    },
    /// The tenant's session rejected the payload (epoch ordering, unknown
    /// switch, …).
    Session {
        /// The session owner.
        tenant: TenantId,
        /// The session's typed rejection.
        error: SessionError,
    },
    /// A cluster routed the request to a node that does not own the tenant
    /// (stale routing during reassignment).
    WrongOwner {
        /// The tenant whose request was misrouted.
        tenant: TenantId,
        /// The node that actually owns it.
        owner: u64,
    },
    /// The request bytes did not decode as a canonical [`ServerRequest`],
    /// or the request is not supported by the tenant's backend.
    BadRequest {
        /// Human-readable rejection reason.
        reason: String,
    },
    /// The tenant's durable store failed the request.
    Storage {
        /// The session owner.
        tenant: TenantId,
        /// Human-readable store failure.
        reason: String,
    },
}

impl fmt::Display for ServerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServerError::Shed { tenant, retry_hint } => {
                write!(f, "tenant {tenant} shed; retry after {retry_hint} tick(s)")
            }
            ServerError::UnknownTenant { tenant } => write!(f, "unknown tenant {tenant}"),
            ServerError::TenantExists { tenant } => {
                write!(f, "tenant {tenant} already has an open session")
            }
            ServerError::Session { tenant, error } => {
                write!(f, "tenant {tenant}: {error}")
            }
            ServerError::WrongOwner { tenant, owner } => {
                write!(f, "tenant {tenant} is owned by node {owner}")
            }
            ServerError::BadRequest { reason } => write!(f, "bad request: {reason}"),
            ServerError::Storage { tenant, reason } => {
                write!(f, "tenant {tenant}: store failure: {reason}")
            }
        }
    }
}

impl std::error::Error for ServerError {}

impl Wire for ServerRequest {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ServerRequest::OpenSession { tenant, universe } => {
                w.put_u8(0);
                w.put_u64(*tenant);
                universe.encode(w);
            }
            ServerRequest::Ingest { tenant, batch } => {
                w.put_u8(1);
                w.put_u64(*tenant);
                batch.encode(w);
            }
            ServerRequest::Resync {
                tenant,
                epoch,
                sync,
            } => {
                w.put_u8(2);
                w.put_u64(*tenant);
                w.put_u64(*epoch);
                sync.encode(w);
            }
            ServerRequest::Checkpoint { tenant } => {
                w.put_u8(3);
                w.put_u64(*tenant);
            }
            ServerRequest::Query { tenant } => {
                w.put_u8(4);
                w.put_u64(*tenant);
            }
            ServerRequest::CloseSession { tenant } => {
                w.put_u8(5);
                w.put_u64(*tenant);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ServerRequest::OpenSession {
                tenant: r.get_u64()?,
                universe: Wire::decode(r)?,
            }),
            1 => Ok(ServerRequest::Ingest {
                tenant: r.get_u64()?,
                batch: Wire::decode(r)?,
            }),
            2 => Ok(ServerRequest::Resync {
                tenant: r.get_u64()?,
                epoch: r.get_u64()?,
                sync: Wire::decode(r)?,
            }),
            3 => Ok(ServerRequest::Checkpoint {
                tenant: r.get_u64()?,
            }),
            4 => Ok(ServerRequest::Query {
                tenant: r.get_u64()?,
            }),
            5 => Ok(ServerRequest::CloseSession {
                tenant: r.get_u64()?,
            }),
            tag => Err(WireError::InvalidTag {
                what: "ServerRequest",
                tag,
            }),
        }
    }
}

impl Wire for ServerResponse {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ServerResponse::Opened { tenant, epoch } => {
                w.put_u8(0);
                w.put_u64(*tenant);
                w.put_u64(*epoch);
            }
            ServerResponse::Ingested { tenant, delta } => {
                w.put_u8(1);
                w.put_u64(*tenant);
                delta.encode(w);
            }
            ServerResponse::Queued { tenant, depth } => {
                w.put_u8(2);
                w.put_u64(*tenant);
                w.put_u64(*depth);
            }
            ServerResponse::Resynced { tenant, delta } => {
                w.put_u8(3);
                w.put_u64(*tenant);
                delta.encode(w);
            }
            ServerResponse::Checkpointed { tenant, epoch } => {
                w.put_u8(4);
                w.put_u64(*tenant);
                w.put_u64(*epoch);
            }
            ServerResponse::Report {
                tenant,
                epoch,
                report,
            } => {
                w.put_u8(5);
                w.put_u64(*tenant);
                w.put_u64(*epoch);
                report.encode(w);
            }
            ServerResponse::Closed { tenant, epoch } => {
                w.put_u8(6);
                w.put_u64(*tenant);
                w.put_u64(*epoch);
            }
            ServerResponse::Error(error) => {
                w.put_u8(7);
                error.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ServerResponse::Opened {
                tenant: r.get_u64()?,
                epoch: r.get_u64()?,
            }),
            1 => Ok(ServerResponse::Ingested {
                tenant: r.get_u64()?,
                delta: Wire::decode(r)?,
            }),
            2 => Ok(ServerResponse::Queued {
                tenant: r.get_u64()?,
                depth: r.get_u64()?,
            }),
            3 => Ok(ServerResponse::Resynced {
                tenant: r.get_u64()?,
                delta: Wire::decode(r)?,
            }),
            4 => Ok(ServerResponse::Checkpointed {
                tenant: r.get_u64()?,
                epoch: r.get_u64()?,
            }),
            5 => Ok(ServerResponse::Report {
                tenant: r.get_u64()?,
                epoch: r.get_u64()?,
                report: Wire::decode(r)?,
            }),
            6 => Ok(ServerResponse::Closed {
                tenant: r.get_u64()?,
                epoch: r.get_u64()?,
            }),
            7 => Ok(ServerResponse::Error(Wire::decode(r)?)),
            tag => Err(WireError::InvalidTag {
                what: "ServerResponse",
                tag,
            }),
        }
    }
}

impl Wire for ServerError {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ServerError::Shed { tenant, retry_hint } => {
                w.put_u8(0);
                w.put_u64(*tenant);
                w.put_u64(*retry_hint);
            }
            ServerError::UnknownTenant { tenant } => {
                w.put_u8(1);
                w.put_u64(*tenant);
            }
            ServerError::TenantExists { tenant } => {
                w.put_u8(2);
                w.put_u64(*tenant);
            }
            ServerError::Session { tenant, error } => {
                w.put_u8(3);
                w.put_u64(*tenant);
                error.encode(w);
            }
            ServerError::WrongOwner { tenant, owner } => {
                w.put_u8(4);
                w.put_u64(*tenant);
                w.put_u64(*owner);
            }
            ServerError::BadRequest { reason } => {
                w.put_u8(5);
                w.put_str(reason);
            }
            ServerError::Storage { tenant, reason } => {
                w.put_u8(6);
                w.put_u64(*tenant);
                w.put_str(reason);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ServerError::Shed {
                tenant: r.get_u64()?,
                retry_hint: r.get_u64()?,
            }),
            1 => Ok(ServerError::UnknownTenant {
                tenant: r.get_u64()?,
            }),
            2 => Ok(ServerError::TenantExists {
                tenant: r.get_u64()?,
            }),
            3 => Ok(ServerError::Session {
                tenant: r.get_u64()?,
                error: Wire::decode(r)?,
            }),
            4 => Ok(ServerError::WrongOwner {
                tenant: r.get_u64()?,
                owner: r.get_u64()?,
            }),
            5 => Ok(ServerError::BadRequest {
                reason: String::decode(r)?,
            }),
            6 => Ok(ServerError::Storage {
                tenant: r.get_u64()?,
                reason: String::decode(r)?,
            }),
            tag => Err(WireError::InvalidTag {
                what: "ServerError",
                tag,
            }),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_core::{ResyncRequest, ScoutEngine};
    use scout_fabric::wire::{from_bytes, to_bytes};
    use scout_fabric::{Fabric, FabricProbe};
    use scout_policy::sample;

    fn roundtrip<T: Wire + PartialEq + fmt::Debug>(value: &T) {
        let bytes = to_bytes(value);
        let decoded: T = from_bytes(&bytes).expect("decodes");
        assert_eq!(&decoded, value);
        assert_eq!(to_bytes(&decoded), bytes, "encode is a fixpoint");
    }

    fn sample_delta() -> ReportDelta {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let engine = ScoutEngine::new();
        let mut session = engine.open_session(&fabric);
        let mut probe = FabricProbe::new(&fabric);
        fabric.evict_tcam(sample::S2, 1, false);
        session.ingest_observation(&mut probe, &fabric).unwrap()
    }

    fn sample_report() -> ScoutReport {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric.disconnect_switch(sample::S1);
        ScoutEngine::new().analyze(&fabric)
    }

    #[test]
    fn every_request_variant_roundtrips() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let batch = EventBatch::empty(3);
        for request in [
            ServerRequest::OpenSession {
                tenant: 1,
                universe: sample::three_tier(),
            },
            ServerRequest::Ingest {
                tenant: 2,
                batch: batch.clone(),
            },
            ServerRequest::Resync {
                tenant: 3,
                epoch: 9,
                sync: FullSync::of(&fabric),
            },
            ServerRequest::Checkpoint { tenant: 4 },
            ServerRequest::Query { tenant: 5 },
            ServerRequest::CloseSession { tenant: 6 },
        ] {
            roundtrip(&request);
        }
    }

    #[test]
    fn every_response_variant_roundtrips() {
        let delta = sample_delta();
        for response in [
            ServerResponse::Opened {
                tenant: 1,
                epoch: 0,
            },
            ServerResponse::Ingested {
                tenant: 2,
                delta: delta.clone(),
            },
            ServerResponse::Queued {
                tenant: 3,
                depth: 4,
            },
            ServerResponse::Resynced {
                tenant: 4,
                delta: delta.clone(),
            },
            ServerResponse::Checkpointed {
                tenant: 5,
                epoch: 7,
            },
            ServerResponse::Report {
                tenant: 6,
                epoch: 8,
                report: sample_report(),
            },
            ServerResponse::Closed {
                tenant: 7,
                epoch: 9,
            },
            ServerResponse::Error(ServerError::Shed {
                tenant: 8,
                retry_hint: 2,
            }),
        ] {
            roundtrip(&response);
        }
    }

    #[test]
    fn every_error_variant_roundtrips() {
        for error in [
            ServerError::Shed {
                tenant: 1,
                retry_hint: 3,
            },
            ServerError::UnknownTenant { tenant: 2 },
            ServerError::TenantExists { tenant: 3 },
            ServerError::Session {
                tenant: 4,
                error: SessionError::EpochGap {
                    resync: ResyncRequest {
                        from_epoch: 5,
                        observed_epoch: 9,
                    },
                },
            },
            ServerError::WrongOwner {
                tenant: 5,
                owner: 2,
            },
            ServerError::BadRequest {
                reason: "not wire".into(),
            },
            ServerError::Storage {
                tenant: 6,
                reason: "torn segment".into(),
            },
        ] {
            roundtrip(&error);
            // Display renders with context (the tenant or reason).
            assert!(!error.to_string().is_empty());
            roundtrip(&ServerResponse::Error(error));
        }
    }

    #[test]
    fn unknown_tags_are_typed_rejections() {
        assert_eq!(
            from_bytes::<ServerRequest>(&[6]),
            Err(WireError::InvalidTag {
                what: "ServerRequest",
                tag: 6
            })
        );
        assert_eq!(
            from_bytes::<ServerResponse>(&[8]),
            Err(WireError::InvalidTag {
                what: "ServerResponse",
                tag: 8
            })
        );
        assert_eq!(
            from_bytes::<ServerError>(&[7]),
            Err(WireError::InvalidTag {
                what: "ServerError",
                tag: 7
            })
        );
    }

    #[test]
    fn truncation_and_trailing_garbage_are_rejected() {
        let bytes = to_bytes(&ServerRequest::OpenSession {
            tenant: 42,
            universe: sample::three_tier(),
        });
        for cut in [1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                matches!(
                    from_bytes::<ServerRequest>(&bytes[..cut]),
                    Err(WireError::UnexpectedEof { .. })
                ),
                "cut at {cut}"
            );
        }
        let mut trailing = bytes.clone();
        trailing.push(0xAB);
        assert_eq!(
            from_bytes::<ServerRequest>(&trailing),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn non_canonical_payloads_are_rejected_through_the_request() {
        // A Resync whose view carries a TCAM table for a switch outside the
        // topology: every FabricView validation applies behind the request
        // decoder.
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let view = scout_fabric::FabricView::of(&fabric);
        let mut w = WireWriter::new();
        w.put_u8(2); // Resync
        w.put_u64(7); // tenant
        w.put_u64(3); // epoch
        w.put_u64(view.universe_version());
        view.universe().encode(&mut w);
        let mut tcam = view.tcam().clone();
        tcam.insert(scout_policy::SwitchId::new(9999), Vec::new());
        tcam.encode(&mut w);
        view.change_log().encode(&mut w);
        view.fault_log().encode(&mut w);
        assert_eq!(
            from_bytes::<ServerRequest>(&w.into_bytes()),
            Err(WireError::Invalid { what: "FabricView" })
        );

        // A non-canonical container inside a response: a delta whose
        // `rechecked` set arrives in descending order.
        let mut w = WireWriter::new();
        w.put_u8(1); // Ingested
        w.put_u64(7); // tenant
        w.put_u64(3); // delta.epoch
        w.put_usize(2); // rechecked: two entries, descending
        scout_policy::SwitchId::new(2).encode(&mut w);
        scout_policy::SwitchId::new(1).encode(&mut w);
        assert_eq!(
            from_bytes::<ServerResponse>(&w.into_bytes()),
            Err(WireError::NonCanonical { what: "BTreeSet" })
        );
    }
}
