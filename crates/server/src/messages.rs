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
//! Each message's layout is declared once, with `scout_fabric::wire_enum!`
//! at the bottom of this module: the tag byte of every variant and its fields
//! in order. The tag spaces are append-only — a new variant takes the next
//! free tag, an existing tag is never reused — so old captures replay
//! against newer decoders with typed errors instead of misparses; the root
//! test `tests/wire_layout.rs` pins every variant's bytes.

use scout_core::{ReportDelta, ScoutReport, SessionError};
use scout_fabric::{wire_enum, EventBatch, FullSync};
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

wire_enum!(ServerRequest {
    0 => OpenSession { tenant, universe },
    1 => Ingest { tenant, batch },
    2 => Resync { tenant, epoch, sync },
    3 => Checkpoint { tenant },
    4 => Query { tenant },
    5 => CloseSession { tenant },
});
wire_enum!(ServerResponse {
    0 => Opened { tenant, epoch },
    1 => Ingested { tenant, delta },
    2 => Queued { tenant, depth },
    3 => Resynced { tenant, delta },
    4 => Checkpointed { tenant, epoch },
    5 => Report { tenant, epoch, report },
    6 => Closed { tenant, epoch },
    7 => Error(error),
});
wire_enum!(ServerError {
    0 => Shed { tenant, retry_hint },
    1 => UnknownTenant { tenant },
    2 => TenantExists { tenant },
    3 => Session { tenant, error },
    4 => WrongOwner { tenant, owner },
    5 => BadRequest { reason },
    6 => Storage { tenant, reason },
});

#[cfg(test)]
mod tests {
    use super::*;
    use scout_core::{ResyncRequest, ScoutEngine};
    use scout_fabric::wire::{from_bytes, to_bytes, Wire, WireError, WireWriter};
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

    /// A resync range no session can produce would overflow
    /// `missing_epochs()` (a panic in debug builds), so decode admits only
    /// `1 <= from_epoch < observed_epoch`.
    #[test]
    fn forged_resync_ranges_are_rejected_at_decode() {
        let gap = |from_epoch, observed_epoch| {
            ServerResponse::Error(ServerError::Session {
                tenant: 1,
                error: SessionError::EpochGap {
                    resync: ResyncRequest {
                        from_epoch,
                        observed_epoch,
                    },
                },
            })
        };
        for (from, observed) in [(5, 2), (4, 4), (0, 3), (u64::MAX, 0)] {
            assert_eq!(
                from_bytes::<ServerResponse>(&to_bytes(&gap(from, observed))),
                Err(WireError::Invalid {
                    what: "ResyncRequest"
                }),
                "({from}, {observed})"
            );
        }
        let ServerResponse::Error(ServerError::Session {
            error: SessionError::EpochGap { resync },
            ..
        }) = from_bytes(&to_bytes(&gap(1, 2))).unwrap()
        else {
            panic!("a valid gap decodes");
        };
        assert_eq!(resync.missing_epochs(), 2);
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
