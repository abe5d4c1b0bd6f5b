//! One serving node: the typed front door over a [`ScoutEngine`].
//!
//! A [`ScoutServer`] owns the sessions of the tenants assigned to it and
//! pushes every request through the same funnel:
//!
//! ```text
//!   bytes ──decode──► ServerRequest ──admission──► session ──► ServerResponse ──encode──► bytes
//! ```
//!
//! * **Decode is untrusted**: [`ScoutServer::handle_bytes`] turns any
//!   [`WireError`](scout_fabric::wire::WireError) into a typed
//!   [`ServerError::BadRequest`] response — a hostile payload can never
//!   panic the node (the fuzzer's `Surface::Server` arm enforces this on
//!   the decoder itself).
//! * **Admission before analysis**: ingest traffic crosses the
//!   [`AdmissionController`] first. Over-quota batches are parked or shed
//!   before any session state is touched, so one noisy tenant cannot
//!   consume analysis capacity that belongs to the others.
//! * **Accepted means owned**: a batch answered with `Ingested` or `Queued`
//!   is never silently dropped. Queued batches live in the controller until
//!   [`ScoutServer::tick`] drains them into the session — and for durable
//!   tenants the session is a [`DurableSession`], journaled before applied.
//!
//! The server recreates each tenant's fabric from the universe carried in
//! `OpenSession` and deploys it — the same construction the direct-engine
//! path uses, which is what makes front-door results bit-identical to
//! library results (pinned by `tests/server.rs` and the ported case in
//! `tests/multi_tenant.rs`).

use scout_core::{AnalysisSession, ReportDelta, ScoutEngine, SessionError};
use scout_fabric::wire::{from_bytes, to_bytes};
use scout_fabric::Fabric;
use scout_store::store::{DurableSession, StoreConfig};
use scout_store::DurableEngine;
use std::collections::BTreeMap;
use std::path::PathBuf;

use crate::admission::{Admission, AdmissionConfig, AdmissionController};
use crate::messages::{ServerError, ServerRequest, ServerResponse, TenantId};

/// Where a tenant's session state lives.
enum TenantBackend {
    /// Plain in-memory session: fast, dies with the node.
    Memory(Box<AnalysisSession>),
    /// Journal-backed session: every accepted batch is durable before it is
    /// acknowledged, and a failed-over node can recover it byte-for-byte.
    Durable(Box<DurableSession>),
}

impl TenantBackend {
    /// The analysis session either backend wraps — every read goes here.
    fn session(&self) -> &AnalysisSession {
        match self {
            TenantBackend::Memory(session) => session,
            TenantBackend::Durable(session) => session.session(),
        }
    }

    fn ingest(
        &mut self,
        tenant: TenantId,
        batch: scout_fabric::EventBatch,
    ) -> Result<ReportDelta, ServerError> {
        match self {
            TenantBackend::Memory(session) => session
                .ingest(batch)
                .map_err(|error| ServerError::Session { tenant, error }),
            TenantBackend::Durable(session) => session.ingest(batch).map_err(|error| match error {
                scout_store::store::StoreError::Session(error) => {
                    ServerError::Session { tenant, error }
                }
                other => ServerError::Storage {
                    tenant,
                    reason: other.to_string(),
                },
            }),
        }
    }
}

/// Tuning for one [`ScoutServer`].
#[derive(Debug, Clone, Default)]
pub struct ServerConfig {
    /// Quota/queue policy applied in front of every tenant session.
    pub admission: AdmissionConfig,
    /// When set, tenant sessions are durable: each tenant gets a
    /// `tenant_<id>` store directory under this root, opened with
    /// [`ServerConfig::store`].
    pub store_root: Option<PathBuf>,
    /// Store tuning for durable tenants (ignored without a `store_root`).
    pub store: StoreConfig,
}

impl ServerConfig {
    /// In-memory serving with this admission policy.
    pub fn in_memory(admission: AdmissionConfig) -> Self {
        Self {
            admission,
            ..Self::default()
        }
    }

    /// Durable serving: tenant stores live under `root`.
    pub fn durable(admission: AdmissionConfig, root: PathBuf, store: StoreConfig) -> Self {
        Self {
            admission,
            store_root: Some(root),
            store,
        }
    }

    /// The store directory for `tenant` (None for in-memory configs).
    pub fn tenant_dir(&self, tenant: TenantId) -> Option<PathBuf> {
        self.store_root
            .as_ref()
            .map(|root| root.join(format!("tenant_{tenant}")))
    }
}

/// One serving node: typed API, admission control, per-tenant sessions.
///
/// See the [module docs](self) for the request funnel; see
/// [`Cluster`](crate::coordinator::Cluster) for the multi-node layer above.
pub struct ScoutServer {
    engine: ScoutEngine,
    config: ServerConfig,
    admission: AdmissionController,
    tenants: BTreeMap<TenantId, TenantBackend>,
}

impl ScoutServer {
    /// A node serving from `engine` under `config`.
    pub fn new(engine: ScoutEngine, config: ServerConfig) -> Self {
        let admission = AdmissionController::new(config.admission);
        Self {
            engine,
            config,
            admission,
            tenants: BTreeMap::new(),
        }
    }

    /// The engine this node serves from (gauges live here).
    pub fn engine(&self) -> &ScoutEngine {
        &self.engine
    }

    /// This node's configuration.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Number of open tenant sessions on this node.
    pub fn tenant_count(&self) -> usize {
        self.tenants.len()
    }

    /// Whether `tenant` has an open session here.
    pub fn is_open(&self, tenant: TenantId) -> bool {
        self.tenants.contains_key(&tenant)
    }

    /// The open tenants, ascending.
    pub fn tenants(&self) -> Vec<TenantId> {
        self.tenants.keys().copied().collect()
    }

    /// `tenant`'s current ingest queue depth.
    pub fn queue_depth(&self, tenant: TenantId) -> usize {
        self.admission.queue_depth(tenant)
    }

    /// `tenant`'s current admission token balance.
    pub fn quota_tokens(&self, tenant: TenantId) -> u64 {
        self.admission.tokens(tenant)
    }

    /// `tenant`'s current full report, if open.
    pub fn full_report(&self, tenant: TenantId) -> Option<&scout_core::ScoutReport> {
        self.tenants
            .get(&tenant)
            .map(|backend| backend.session().full_report())
    }

    /// Handles one wire-encoded request, always answering with a
    /// wire-encoded response. Undecodable bytes get a typed
    /// [`ServerError::BadRequest`] — never a panic, never silence.
    pub fn handle_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
        let response = match from_bytes::<ServerRequest>(bytes) {
            Ok(request) => self.handle(request),
            Err(error) => ServerResponse::Error(ServerError::BadRequest {
                reason: format!("undecodable request: {error}"),
            }),
        };
        to_bytes(&response)
    }

    /// Handles one typed request.
    pub fn handle(&mut self, request: ServerRequest) -> ServerResponse {
        match request {
            ServerRequest::OpenSession { tenant, universe } => self.open_session(tenant, universe),
            ServerRequest::Ingest { tenant, batch } => self.ingest(tenant, batch),
            ServerRequest::Resync {
                tenant,
                epoch,
                sync,
            } => self.resync(tenant, epoch, sync),
            ServerRequest::Checkpoint { tenant } => self.checkpoint(tenant),
            ServerRequest::Query { tenant } => self.query(tenant),
            ServerRequest::CloseSession { tenant } => self.close_session(tenant),
        }
    }

    fn open_session(
        &mut self,
        tenant: TenantId,
        universe: scout_policy::PolicyUniverse,
    ) -> ServerResponse {
        if self.tenants.contains_key(&tenant) {
            return ServerResponse::Error(ServerError::TenantExists { tenant });
        }
        // Recreate the tenant's fabric at its pristine deployment — the same
        // construction a direct-engine driver uses, so analysis is
        // bit-identical from the first epoch on.
        let mut fabric = Fabric::new(universe);
        fabric.deploy();
        let backend = match self.config.tenant_dir(tenant) {
            None => TenantBackend::Memory(Box::new(self.engine.open_session(&fabric))),
            Some(dir) => match self.engine.open_durable(&fabric, &dir, self.config.store) {
                Ok(session) => TenantBackend::Durable(Box::new(session)),
                Err(error) => {
                    return ServerResponse::Error(ServerError::Storage {
                        tenant,
                        reason: error.to_string(),
                    })
                }
            },
        };
        let epoch = backend.session().epoch();
        self.tenants.insert(tenant, backend);
        self.admission.register(tenant);
        ServerResponse::Opened { tenant, epoch }
    }

    fn ingest(&mut self, tenant: TenantId, batch: scout_fabric::EventBatch) -> ServerResponse {
        let Some(backend) = self.tenants.get(&tenant) else {
            return ServerResponse::Error(ServerError::UnknownTenant { tenant });
        };
        // Sequence check *before* admission: a mis-sequenced batch must not
        // poison the queue (drained batches are applied blind). The expected
        // epoch accounts for batches already parked ahead of this one.
        let expected = backend.session().next_epoch() + self.admission.queue_depth(tenant) as u64;
        if batch.epoch != expected {
            let error = if batch.epoch < expected {
                SessionError::EpochOutOfOrder {
                    expected,
                    got: batch.epoch,
                }
            } else {
                SessionError::EpochGap {
                    resync: scout_core::ResyncRequest {
                        from_epoch: expected,
                        observed_epoch: batch.epoch,
                    },
                }
            };
            return ServerResponse::Error(ServerError::Session { tenant, error });
        }
        match self.admission.offer(tenant, batch) {
            Admission::Admit(batch) => {
                let backend = self.tenants.get_mut(&tenant).expect("checked above");
                match backend.ingest(tenant, batch) {
                    Ok(delta) => {
                        self.engine.gauges().record_admitted();
                        ServerResponse::Ingested { tenant, delta }
                    }
                    Err(error) => {
                        // Not applied: the client must resend this epoch, so
                        // hand the token back — a backend failure must not
                        // double-bill the tenant for the retry.
                        self.admission.refund(tenant);
                        ServerResponse::Error(error)
                    }
                }
            }
            Admission::Queued { depth } => {
                self.engine.gauges().record_queued();
                ServerResponse::Queued {
                    tenant,
                    depth: depth as u64,
                }
            }
            Admission::Shed { retry_hint } => {
                self.engine.gauges().record_shed();
                ServerResponse::Error(ServerError::Shed { tenant, retry_hint })
            }
        }
    }

    fn resync(
        &mut self,
        tenant: TenantId,
        epoch: u64,
        sync: scout_fabric::FullSync,
    ) -> ServerResponse {
        let Some(backend) = self.tenants.get_mut(&tenant) else {
            return ServerResponse::Error(ServerError::UnknownTenant { tenant });
        };
        match backend {
            TenantBackend::Memory(session) => match session.resync(epoch, sync) {
                Ok(delta) => {
                    // Anything still parked is pre-gap traffic the resync
                    // superseded. Flushed only now that the session has
                    // accepted the resync: a rejected one (stale epoch) must
                    // leave acknowledged batches and the quota untouched.
                    for _ in self.admission.deregister(tenant) {
                        self.engine.gauges().record_dequeued();
                    }
                    self.admission.register(tenant);
                    ServerResponse::Resynced { tenant, delta }
                }
                Err(error) => ServerResponse::Error(ServerError::Session { tenant, error }),
            },
            TenantBackend::Durable(_) => ServerResponse::Error(ServerError::BadRequest {
                reason: "resync is not supported for durable tenants: the journal must stay \
                         the complete epoch history"
                    .into(),
            }),
        }
    }

    fn checkpoint(&mut self, tenant: TenantId) -> ServerResponse {
        let Some(backend) = self.tenants.get_mut(&tenant) else {
            return ServerResponse::Error(ServerError::UnknownTenant { tenant });
        };
        match backend {
            TenantBackend::Memory(session) => {
                // The snapshot is taken (exercising the full codec) and
                // dropped: an in-memory node has nowhere durable to put it.
                let snapshot = session.checkpoint();
                ServerResponse::Checkpointed {
                    tenant,
                    epoch: snapshot.epoch(),
                }
            }
            TenantBackend::Durable(session) => match session.commit() {
                Ok(()) => ServerResponse::Checkpointed {
                    tenant,
                    epoch: session.committed_epoch(),
                },
                Err(error) => ServerResponse::Error(ServerError::Storage {
                    tenant,
                    reason: error.to_string(),
                }),
            },
        }
    }

    fn query(&self, tenant: TenantId) -> ServerResponse {
        match self.tenants.get(&tenant) {
            None => ServerResponse::Error(ServerError::UnknownTenant { tenant }),
            Some(backend) => ServerResponse::Report {
                tenant,
                epoch: backend.session().epoch(),
                report: backend.session().full_report().clone(),
            },
        }
    }

    fn close_session(&mut self, tenant: TenantId) -> ServerResponse {
        let Some(backend) = self.tenants.get_mut(&tenant) else {
            return ServerResponse::Error(ServerError::UnknownTenant { tenant });
        };
        // Drain anything still parked, then commit, and only then drop the
        // session: accepted means owned, even at close. Each parked batch
        // leaves the queue only once it is applied, so a failed close keeps
        // the session and every remaining batch owned and retryable — and
        // the `Closed`-only routing cleanup in the Cluster stays truthful.
        while let Some(batch) = self.admission.peek_queued(tenant).cloned() {
            if let Err(error) = backend.ingest(tenant, batch) {
                return ServerResponse::Error(error);
            }
            self.admission.pop_queued(tenant);
            self.engine.gauges().record_dequeued();
        }
        if let TenantBackend::Durable(session) = backend {
            if let Err(error) = session.commit() {
                return ServerResponse::Error(ServerError::Storage {
                    tenant,
                    reason: error.to_string(),
                });
            }
        }
        let epoch = backend.session().epoch();
        self.tenants.remove(&tenant);
        self.admission.deregister(tenant);
        ServerResponse::Closed { tenant, epoch }
    }

    /// One scheduling round: refill every tenant's tokens and apply queued
    /// batches in FIFO order, returning one `Ingested` (or error) response
    /// per drained batch, in the deterministic drain order.
    pub fn tick(&mut self) -> Vec<ServerResponse> {
        let mut responses = Vec::new();
        for (tenant, batch) in self.admission.tick() {
            self.engine.gauges().record_dequeued();
            let Some(backend) = self.tenants.get_mut(&tenant) else {
                continue; // session closed under a non-empty lane: unreachable
            };
            match backend.ingest(tenant, batch) {
                Ok(delta) => {
                    self.engine.gauges().record_admitted();
                    responses.push(ServerResponse::Ingested { tenant, delta });
                }
                Err(error) => responses.push(ServerResponse::Error(error)),
            }
        }
        responses
    }

    /// Adopts `tenant` by recovering its durable session from this node's
    /// store root — the failover path a
    /// [`Cluster`](crate::coordinator::Cluster) leader drives. The store
    /// directory must exist (written by the previous owner); recovery
    /// verifies every byte and replays the journal tail, landing
    /// bit-identical to the session the dead node held.
    pub fn adopt(&mut self, tenant: TenantId) -> Result<u64, ServerError> {
        if self.tenants.contains_key(&tenant) {
            return Err(ServerError::TenantExists { tenant });
        }
        let Some(dir) = self.config.tenant_dir(tenant) else {
            return Err(ServerError::BadRequest {
                reason: "adopt requires a durable server (no store root configured)".into(),
            });
        };
        let session = self
            .engine
            .recover(&dir, self.config.store)
            .map_err(|error| ServerError::Storage {
                tenant,
                reason: error.to_string(),
            })?;
        let epoch = session.epoch();
        self.tenants
            .insert(tenant, TenantBackend::Durable(Box::new(session)));
        self.admission.register(tenant);
        Ok(epoch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::OverloadPolicy;
    use scout_fabric::{EventBatch, FabricProbe, FullSync};
    use scout_policy::sample;
    use scout_store::test_dir::TestDir;

    fn server() -> ScoutServer {
        ScoutServer::new(ScoutEngine::new(), ServerConfig::default())
    }

    fn faulty_timeline(epochs: u64) -> (scout_policy::PolicyUniverse, Vec<EventBatch>) {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let mut probe = FabricProbe::new(&fabric);
        let mut batches = Vec::new();
        for epoch in 1..=epochs {
            if epoch % 3 == 1 {
                fabric.evict_tcam(sample::S2, 1, false);
            }
            batches.push(EventBatch::new(epoch, probe.observe(&fabric)));
        }
        (sample::three_tier(), batches)
    }

    #[test]
    fn open_ingest_query_close_matches_direct_engine() {
        let (universe, batches) = faulty_timeline(6);
        let mut srv = server();
        assert_eq!(
            srv.handle(ServerRequest::OpenSession {
                tenant: 1,
                universe: universe.clone(),
            }),
            ServerResponse::Opened {
                tenant: 1,
                epoch: 0
            }
        );

        // Direct path for comparison.
        let engine = ScoutEngine::new();
        let mut fabric = Fabric::new(universe);
        fabric.deploy();
        let mut direct = engine.open_session(&fabric);

        for batch in batches {
            let direct_delta = direct.ingest(batch.clone()).unwrap();
            match srv.handle(ServerRequest::Ingest { tenant: 1, batch }) {
                ServerResponse::Ingested { delta, .. } => assert_eq!(delta, direct_delta),
                other => panic!("expected Ingested, got {other:?}"),
            }
        }
        match srv.handle(ServerRequest::Query { tenant: 1 }) {
            ServerResponse::Report { epoch, report, .. } => {
                assert_eq!(epoch, direct.epoch());
                assert_eq!(&report, direct.full_report());
            }
            other => panic!("expected Report, got {other:?}"),
        }
        assert_eq!(
            srv.handle(ServerRequest::CloseSession { tenant: 1 }),
            ServerResponse::Closed {
                tenant: 1,
                epoch: direct.epoch()
            }
        );
        assert!(!srv.is_open(1));
    }

    #[test]
    fn unknown_and_duplicate_tenants_get_typed_errors() {
        let mut srv = server();
        assert_eq!(
            srv.handle(ServerRequest::Query { tenant: 9 }),
            ServerResponse::Error(ServerError::UnknownTenant { tenant: 9 })
        );
        srv.handle(ServerRequest::OpenSession {
            tenant: 9,
            universe: sample::three_tier(),
        });
        assert_eq!(
            srv.handle(ServerRequest::OpenSession {
                tenant: 9,
                universe: sample::three_tier(),
            }),
            ServerResponse::Error(ServerError::TenantExists { tenant: 9 })
        );
    }

    #[test]
    fn sequence_errors_surface_before_admission() {
        let mut srv = server();
        srv.handle(ServerRequest::OpenSession {
            tenant: 1,
            universe: sample::three_tier(),
        });
        // Epoch 3 with 1 expected: a gap, carrying the resync range.
        match srv.handle(ServerRequest::Ingest {
            tenant: 1,
            batch: EventBatch::empty(3),
        }) {
            ServerResponse::Error(ServerError::Session {
                error: SessionError::EpochGap { resync },
                ..
            }) => {
                assert_eq!((resync.from_epoch, resync.observed_epoch), (1, 3));
            }
            other => panic!("expected EpochGap, got {other:?}"),
        }
        // Nothing was queued or charged.
        assert_eq!(srv.queue_depth(1), 0);
        // A duplicate of an applied epoch is OutOfOrder.
        srv.handle(ServerRequest::Ingest {
            tenant: 1,
            batch: EventBatch::empty(1),
        });
        match srv.handle(ServerRequest::Ingest {
            tenant: 1,
            batch: EventBatch::empty(1),
        }) {
            ServerResponse::Error(ServerError::Session {
                error: SessionError::EpochOutOfOrder { expected, got },
                ..
            }) => assert_eq!((expected, got), (2, 1)),
            other => panic!("expected EpochOutOfOrder, got {other:?}"),
        }
    }

    #[test]
    fn overload_queues_then_sheds_and_ticks_drain_in_order() {
        let admission = AdmissionConfig {
            quota_tokens: 2,
            refill_per_tick: 1,
            queue_capacity: 2,
            policy: OverloadPolicy::Queue,
        };
        let mut srv = ScoutServer::new(ScoutEngine::new(), ServerConfig::in_memory(admission));
        srv.handle(ServerRequest::OpenSession {
            tenant: 1,
            universe: sample::three_tier(),
        });
        let mut verdicts = Vec::new();
        for epoch in 1..=5 {
            verdicts.push(srv.handle(ServerRequest::Ingest {
                tenant: 1,
                batch: EventBatch::empty(epoch),
            }));
        }
        assert!(matches!(verdicts[0], ServerResponse::Ingested { .. }));
        assert!(matches!(verdicts[1], ServerResponse::Ingested { .. }));
        assert_eq!(
            verdicts[2],
            ServerResponse::Queued {
                tenant: 1,
                depth: 1
            }
        );
        assert_eq!(
            verdicts[3],
            ServerResponse::Queued {
                tenant: 1,
                depth: 2
            }
        );
        assert_eq!(
            verdicts[4],
            ServerResponse::Error(ServerError::Shed {
                tenant: 1,
                retry_hint: 3
            })
        );

        // Ticks drain the queue in epoch order; the session stays strict.
        let mut drained = Vec::new();
        for _ in 0..3 {
            drained.extend(srv.tick());
        }
        let epochs: Vec<u64> = drained
            .iter()
            .map(|r| match r {
                ServerResponse::Ingested { delta, .. } => delta.epoch,
                other => panic!("expected Ingested, got {other:?}"),
            })
            .collect();
        assert_eq!(epochs, vec![3, 4]);

        let stats = srv.engine().gauges().snapshot();
        assert_eq!(stats.admitted, 4);
        assert_eq!(stats.shed, 1);
        assert_eq!(stats.queued, 0);
        assert_eq!(stats.queue_peak, 2);
    }

    #[test]
    fn resync_recovers_a_gapped_session_and_flushes_the_queue() {
        let mut srv = server();
        srv.handle(ServerRequest::OpenSession {
            tenant: 1,
            universe: sample::three_tier(),
        });
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric.evict_tcam(sample::S2, 1, false);
        // The probe's epochs 1..=2 never arrive; epoch 3 arrives as a gap.
        match srv.handle(ServerRequest::Ingest {
            tenant: 1,
            batch: EventBatch::empty(3),
        }) {
            ServerResponse::Error(ServerError::Session {
                error: SessionError::EpochGap { .. },
                ..
            }) => {}
            other => panic!("expected gap, got {other:?}"),
        }
        match srv.handle(ServerRequest::Resync {
            tenant: 1,
            epoch: 3,
            sync: FullSync::of(&fabric),
        }) {
            ServerResponse::Resynced { delta, .. } => {
                assert_eq!(delta.epoch, 3);
                assert!(!delta.consistent);
            }
            other => panic!("expected Resynced, got {other:?}"),
        }
        // Post-resync traffic resumes at epoch 4.
        assert!(matches!(
            srv.handle(ServerRequest::Ingest {
                tenant: 1,
                batch: EventBatch::empty(4),
            }),
            ServerResponse::Ingested { .. }
        ));
    }

    #[test]
    fn rejected_resync_keeps_parked_batches_and_quota() {
        let admission = AdmissionConfig {
            quota_tokens: 1,
            refill_per_tick: 0,
            queue_capacity: 4,
            policy: OverloadPolicy::Queue,
        };
        let mut srv = ScoutServer::new(ScoutEngine::new(), ServerConfig::in_memory(admission));
        srv.handle(ServerRequest::OpenSession {
            tenant: 1,
            universe: sample::three_tier(),
        });
        let ingest = |srv: &mut ScoutServer, epoch| {
            srv.handle(ServerRequest::Ingest {
                tenant: 1,
                batch: EventBatch::empty(epoch),
            })
        };
        assert!(matches!(
            ingest(&mut srv, 1),
            ServerResponse::Ingested { .. }
        ));
        assert!(matches!(ingest(&mut srv, 2), ServerResponse::Queued { .. }));

        // A stale resync (epoch 1 is already applied) is refused …
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        match srv.handle(ServerRequest::Resync {
            tenant: 1,
            epoch: 1,
            sync: FullSync::of(&fabric),
        }) {
            ServerResponse::Error(ServerError::Session {
                error: SessionError::EpochOutOfOrder { expected, got },
                ..
            }) => assert_eq!((expected, got), (2, 1)),
            other => panic!("expected EpochOutOfOrder, got {other:?}"),
        }
        // … so the batch answered `Queued` is still owned, the spent token
        // stays spent, and the shared gauge still matches the real queue.
        assert_eq!((srv.queue_depth(1), srv.quota_tokens(1)), (1, 0));
        assert_eq!(srv.engine().gauges().snapshot().queued, 1);
    }

    #[test]
    fn handle_bytes_rejects_garbage_with_a_typed_response() {
        let mut srv = server();
        let response = srv.handle_bytes(&[0xFF, 0x00, 0x01]);
        match from_bytes::<ServerResponse>(&response).unwrap() {
            ServerResponse::Error(ServerError::BadRequest { reason }) => {
                assert!(reason.contains("undecodable"));
            }
            other => panic!("expected BadRequest, got {other:?}"),
        }
        // And the full wire loop works for a real request.
        let bytes = to_bytes(&ServerRequest::OpenSession {
            tenant: 1,
            universe: sample::three_tier(),
        });
        let response = srv.handle_bytes(&bytes);
        assert_eq!(
            from_bytes::<ServerResponse>(&response).unwrap(),
            ServerResponse::Opened {
                tenant: 1,
                epoch: 0
            }
        );
    }

    #[test]
    fn failed_admit_ingest_refunds_the_quota_token() {
        use scout_store::store::CrashPlan;
        let admission = AdmissionConfig {
            quota_tokens: 2,
            refill_per_tick: 0,
            queue_capacity: 4,
            policy: OverloadPolicy::Queue,
        };
        // Scan crash abort points for one where the open and the first
        // ingest succeed but the second ingest dies in the journal.
        let mut hit = false;
        for abort_after_ops in 0..64 {
            let dir = TestDir::new(&format!("server-refund-{abort_after_ops}"));
            let store = StoreConfig {
                crash_plan: Some(CrashPlan {
                    abort_after_ops,
                    partial_seed: 7,
                }),
                ..StoreConfig::default()
            };
            let config = ServerConfig::durable(admission, dir.path().to_path_buf(), store);
            let mut srv = ScoutServer::new(ScoutEngine::new(), config);
            if !matches!(
                srv.handle(ServerRequest::OpenSession {
                    tenant: 1,
                    universe: sample::three_tier(),
                }),
                ServerResponse::Opened { .. }
            ) {
                continue;
            }
            if !matches!(
                srv.handle(ServerRequest::Ingest {
                    tenant: 1,
                    batch: EventBatch::empty(1),
                }),
                ServerResponse::Ingested { .. }
            ) {
                continue;
            }
            assert_eq!(srv.quota_tokens(1), 1);
            match srv.handle(ServerRequest::Ingest {
                tenant: 1,
                batch: EventBatch::empty(2),
            }) {
                ServerResponse::Error(ServerError::Storage { .. }) => {}
                other => panic!("expected a storage failure, got {other:?}"),
            }
            hit = true;
            // The failed batch was not applied, so its token came back —
            // the retry is billed once, not twice …
            assert_eq!(srv.quota_tokens(1), 1);
            // … and keeps reaching the backend (poisoned store → Storage
            // error), instead of being starved into the queue.
            for _ in 0..3 {
                match srv.handle(ServerRequest::Ingest {
                    tenant: 1,
                    batch: EventBatch::empty(2),
                }) {
                    ServerResponse::Error(ServerError::Storage { .. }) => {}
                    other => panic!("expected a storage failure, got {other:?}"),
                }
                assert_eq!(srv.quota_tokens(1), 1);
                assert_eq!(srv.queue_depth(1), 0);
            }
            break;
        }
        assert!(hit, "no abort point landed on the second ingest");
    }

    #[test]
    fn failed_close_keeps_the_session_and_parked_batches_owned() {
        use scout_store::store::CrashPlan;
        let admission = AdmissionConfig {
            quota_tokens: 1,
            refill_per_tick: 0,
            queue_capacity: 4,
            policy: OverloadPolicy::Queue,
        };
        // Scan crash abort points for one where open + the admitted ingest
        // succeed and the crash fires inside close_session's drain/commit.
        let mut hit = false;
        for abort_after_ops in 0..64 {
            let dir = TestDir::new(&format!("server-close-crash-{abort_after_ops}"));
            let store = StoreConfig {
                crash_plan: Some(CrashPlan {
                    abort_after_ops,
                    partial_seed: 3,
                }),
                ..StoreConfig::default()
            };
            let config = ServerConfig::durable(admission, dir.path().to_path_buf(), store);
            let mut srv = ScoutServer::new(ScoutEngine::new(), config);
            if !matches!(
                srv.handle(ServerRequest::OpenSession {
                    tenant: 1,
                    universe: sample::three_tier(),
                }),
                ServerResponse::Opened { .. }
            ) {
                continue;
            }
            if !matches!(
                srv.handle(ServerRequest::Ingest {
                    tenant: 1,
                    batch: EventBatch::empty(1),
                }),
                ServerResponse::Ingested { .. }
            ) {
                continue;
            }
            // Park two more batches (no durable ops while parked).
            for epoch in 2..=3 {
                assert!(matches!(
                    srv.handle(ServerRequest::Ingest {
                        tenant: 1,
                        batch: EventBatch::empty(epoch),
                    }),
                    ServerResponse::Queued { .. }
                ));
            }
            match srv.handle(ServerRequest::CloseSession { tenant: 1 }) {
                ServerResponse::Closed { .. } => continue, // crash fired earlier/never
                ServerResponse::Error(_) => {}
                other => panic!("unexpected close response: {other:?}"),
            }
            hit = true;
            // The session survives the failed close, still routable …
            assert!(srv.is_open(1));
            let epoch = match srv.handle(ServerRequest::Query { tenant: 1 }) {
                ServerResponse::Report { epoch, .. } => epoch,
                other => panic!("expected Report, got {other:?}"),
            };
            // … and no accepted batch was silently dropped: every epoch in
            // 1..=3 is either applied or still parked.
            assert_eq!(epoch + srv.queue_depth(1) as u64, 3);
            // The shared queue gauge tracks reality instead of leaking.
            assert_eq!(
                srv.engine().gauges().snapshot().queued,
                srv.queue_depth(1) as u64
            );
            break;
        }
        assert!(hit, "no abort point landed inside close_session");
    }

    #[test]
    fn durable_server_journals_and_adopts_bit_identically() {
        let dir = TestDir::new("server-durable");
        let admission = AdmissionConfig::default();
        let config =
            ServerConfig::durable(admission, dir.path().to_path_buf(), StoreConfig::default());
        let (universe, batches) = faulty_timeline(8);

        let engine_a = ScoutEngine::new();
        let mut node_a = ScoutServer::new(engine_a, config.clone());
        node_a.handle(ServerRequest::OpenSession {
            tenant: 5,
            universe: universe.clone(),
        });
        let mut deltas = Vec::new();
        for batch in &batches {
            match node_a.handle(ServerRequest::Ingest {
                tenant: 5,
                batch: batch.clone(),
            }) {
                ServerResponse::Ingested { delta, .. } => deltas.push(delta),
                other => panic!("expected Ingested, got {other:?}"),
            }
        }
        let report_a = node_a.full_report(5).unwrap().clone();
        drop(node_a); // the node dies; the journal survives

        // A different node — different engine — adopts from the store.
        let engine_b = ScoutEngine::new();
        let mut node_b = ScoutServer::new(engine_b, config);
        let epoch = node_b.adopt(5).unwrap();
        assert_eq!(epoch, batches.len() as u64);
        assert_eq!(node_b.full_report(5), Some(&report_a));

        // The adopted session keeps ingesting where the dead one stopped.
        assert!(matches!(
            node_b.handle(ServerRequest::Ingest {
                tenant: 5,
                batch: EventBatch::empty(batches.len() as u64 + 1),
            }),
            ServerResponse::Ingested { .. }
        ));
    }
}
