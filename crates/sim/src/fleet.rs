//! Fleet soak: many tenants through the **serving layer**, not the library —
//! the workspace's one M-tenants × T-threads driver.
//!
//! Every batch crosses the `scout-server` front door — wire-encoded
//! [`ServerRequest`]s through [`ScoutServer::handle_bytes`], past admission
//! control (token quotas, bounded FIFO queues, shed-and-retry), into
//! per-tenant sessions on **one** shared [`ScoutEngine`]. The soak records
//! queue and shed counts and the full per-tenant delta stream, so the
//! enforced root suite `tests/server.rs` can pin the serving layer's
//! headline contract:
//!
//! * front-door results are **bit-identical** to a direct single-threaded
//!   engine replay of the same recorded batches ([`FleetSoak::direct_replay`]);
//! * the thread count changes no result;
//! * back-pressure (queue, shed, retry) never loses or reorders an accepted
//!   batch.
//!
//! It is a correctness driver only: how fast the front door is gets measured
//! by the `benchmark/` package, with workload generation outside the timed
//! window.
//!
//! Tenants fan out over [`FleetSoak::threads`]; each worker owns its own
//! [`ScoutServer`] node (sessions are single-owner, exactly like a sharded
//! deployment) while all nodes share the engine.

use rand::rngs::StdRng;
use rand::SeedableRng;

use scout_core::{EngineConfig, Parallelism, ReportDelta, ScoutEngine, ScoutReport};
use scout_fabric::wire::{from_bytes, to_bytes};
use scout_fabric::{EventBatch, Fabric, FabricProbe};
use scout_server::{
    AdmissionConfig, ScoutServer, ServerConfig, ServerRequest, ServerResponse, TenantId,
};

use crate::churn::fleet_step;
use crate::scenario::WorkloadKind;

/// A fleet soak configuration: M tenants through wire-encoded server requests
/// on T serving threads, one shared engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetSoak {
    /// The per-tenant policy generator (tenant `i` generates from
    /// `base_seed + i`).
    pub workload: WorkloadKind,
    /// Number of tenants (each gets its own fabric, batch stream and server
    /// session).
    pub tenants: usize,
    /// Number of epochs in each tenant's recorded batch stream.
    pub epochs: usize,
    /// The base seed for both policy generation and fabric churn.
    pub base_seed: u64,
    /// Serving-thread policy; each worker runs its own [`ScoutServer`] node.
    pub threads: Parallelism,
    /// The admission policy every node applies in front of its tenants.
    pub admission: AdmissionConfig,
    /// The shared engine's configuration.
    pub engine: EngineConfig,
}

impl FleetSoak {
    /// A fleet soak with one serving thread per tenant and the default
    /// admission policy and engine configuration.
    pub fn new(workload: WorkloadKind, tenants: usize, epochs: usize, base_seed: u64) -> Self {
        Self {
            workload,
            tenants,
            epochs,
            base_seed,
            threads: Parallelism::Fixed(tenants),
            admission: AdmissionConfig::default(),
            engine: EngineConfig::default(),
        }
    }

    /// Tenant `index`'s policy universe.
    pub fn tenant_universe(&self, index: usize) -> scout_policy::PolicyUniverse {
        self.workload.generate(self.base_seed + index as u64)
    }

    /// Tenant `index`'s pristine deployed fabric — the one its server session
    /// is opened on, and the one [`FleetSoak::direct_replay`] starts from.
    pub fn tenant_fabric(&self, index: usize) -> Fabric {
        let mut fabric = Fabric::new(self.tenant_universe(index));
        fabric.deploy();
        fabric
    }

    /// Pre-records tenant `index`'s event-batch stream by churning its fabric
    /// once (evictions, rule drops, repairs, policy edits), so the server
    /// path and the direct replay consume byte-identical inputs.
    pub fn tenant_batches(&self, index: usize) -> Vec<EventBatch> {
        let mut fabric = self.tenant_fabric(index);
        let mut probe = FabricProbe::new(&fabric);
        let mut rng = StdRng::seed_from_u64(self.base_seed ^ 0xF1EE_7500 ^ ((index as u64) << 17));
        (1..=self.epochs as u64)
            .map(|epoch| {
                fleet_step(&mut fabric, &mut rng);
                EventBatch::new(epoch, probe.observe(&fabric))
            })
            .collect()
    }

    /// Replays tenant `index`'s recorded batches on a **private** engine,
    /// single-threaded, no server in sight — the oracle the fleet run must
    /// match bit for bit.
    pub fn direct_replay(&self, index: usize) -> (Vec<ReportDelta>, ScoutReport) {
        let engine = ScoutEngine::from_config(self.engine)
            .expect("fleet engine config is degenerate (see EngineConfig::validate)");
        let fabric = self.tenant_fabric(index);
        let mut session = engine.open_session(&fabric);
        let deltas = self
            .tenant_batches(index)
            .into_iter()
            .map(|batch| {
                session
                    .ingest(batch)
                    .expect("recorded batches ingest cleanly")
            })
            .collect();
        (deltas, session.full_report().clone())
    }

    /// Runs the fleet: every tenant's batches through the wire API of a
    /// per-worker server node, one shared engine underneath.
    pub fn run(&self) -> FleetRun {
        let engine = ScoutEngine::from_config(self.engine)
            .expect("fleet engine config is degenerate (see EngineConfig::validate)");
        let outcomes = self
            .threads
            .fan_out(self.tenants, |_, range| {
                let mut server =
                    ScoutServer::new(engine.clone(), ServerConfig::in_memory(self.admission));
                range
                    .map(|tenant| self.serve_tenant(&mut server, tenant))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect();
        FleetRun {
            outcomes,
            threads: self.threads.worker_count(self.tenants),
        }
    }

    /// Drives one tenant's full lifecycle — open, ingest every recorded batch
    /// (riding out queue/shed back-pressure), drain, query, close — through
    /// the **byte**-level API of `server`.
    fn serve_tenant(&self, server: &mut ScoutServer, tenant: usize) -> TenantOutcome {
        let id = tenant as TenantId;
        let mut outcome = TenantOutcome::default();

        let universe = self.tenant_universe(tenant);
        match request(
            server,
            ServerRequest::OpenSession {
                tenant: id,
                universe,
            },
        ) {
            ServerResponse::Opened { .. } => {}
            other => panic!("tenant {tenant}: open failed: {other:?}"),
        }

        for batch in self.tenant_batches(tenant) {
            let mut attempts = 0usize;
            loop {
                let ingest = ServerRequest::Ingest {
                    tenant: id,
                    batch: batch.clone(),
                };
                match request(server, ingest) {
                    ServerResponse::Ingested { delta, .. } => {
                        outcome.deltas.push(delta);
                        break;
                    }
                    ServerResponse::Queued { .. } => {
                        // The controller owns the batch now; its delta arrives
                        // from a later tick, in FIFO order.
                        outcome.queued += 1;
                        break;
                    }
                    ServerResponse::Error(scout_server::ServerError::Shed { .. }) => {
                        // Refused outright: tick to refill tokens and drain the
                        // backlog, then resend the same batch.
                        outcome.shed += 1;
                        attempts += 1;
                        assert!(
                            attempts < 10_000,
                            "tenant {tenant}: admission config cannot make progress \
                             (refill_per_tick too small?)"
                        );
                        self.drain_tick(server, &mut outcome, id);
                    }
                    other => panic!("tenant {tenant}: unexpected ingest response: {other:?}"),
                }
            }
        }

        // Drain whatever is still parked before reading the final report.
        while server.queue_depth(id) > 0 {
            self.drain_tick(server, &mut outcome, id);
        }

        match request(server, ServerRequest::Query { tenant: id }) {
            ServerResponse::Report { report, .. } => outcome.report = Some(report),
            other => panic!("tenant {tenant}: query failed: {other:?}"),
        }
        match request(server, ServerRequest::CloseSession { tenant: id }) {
            ServerResponse::Closed { .. } => {}
            other => panic!("tenant {tenant}: close failed: {other:?}"),
        }
        outcome
    }

    /// One scheduling tick, folding any drained `Ingested` deltas for
    /// `tenant` into `outcome` in drain order.
    fn drain_tick(&self, server: &mut ScoutServer, outcome: &mut TenantOutcome, tenant: TenantId) {
        for response in server.tick() {
            match response {
                ServerResponse::Ingested { tenant: t, delta } if t == tenant => {
                    outcome.deltas.push(delta);
                }
                other => panic!("tick surfaced an unexpected response: {other:?}"),
            }
        }
    }
}

/// One round-trip through the wire funnel: encode, handle, decode.
fn request(server: &mut ScoutServer, request: ServerRequest) -> ServerResponse {
    let reply = server.handle_bytes(&to_bytes(&request));
    from_bytes::<ServerResponse>(&reply).expect("server responses always decode")
}

/// Everything one tenant's trip through the fleet produced.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TenantOutcome {
    /// One delta per recorded epoch, in epoch order — whether it came back
    /// inline (`Ingested`) or from a later drain tick.
    pub deltas: Vec<ReportDelta>,
    /// The final full report answered by `Query`.
    pub report: Option<ScoutReport>,
    /// Batches the admission controller parked (answered `Queued`).
    pub queued: usize,
    /// Ingest attempts refused with a typed `Shed` error (each was retried).
    pub shed: usize,
}

impl TenantOutcome {
    /// The deterministic analysis result: deltas plus final report. This —
    /// and only this — must be bit-identical to
    /// [`FleetSoak::direct_replay`]; back-pressure counts are scheduling
    /// artifacts.
    pub fn analysis(&self) -> (&[ReportDelta], Option<&ScoutReport>) {
        (&self.deltas, self.report.as_ref())
    }
}

/// The result of one fleet soak: per-tenant outcomes.
#[derive(Debug)]
pub struct FleetRun {
    /// One [`TenantOutcome`] per tenant, in tenant order.
    pub outcomes: Vec<TenantOutcome>,
    /// The number of serving threads actually used.
    pub threads: usize,
}

impl FleetRun {
    /// Total accepted ingests across the fleet.
    pub fn total_ingests(&self) -> usize {
        self.outcomes.iter().map(|o| o.deltas.len()).sum()
    }

    /// Total batches parked by admission across the fleet.
    pub fn total_queued(&self) -> usize {
        self.outcomes.iter().map(|o| o.queued).sum()
    }

    /// Total typed sheds across the fleet.
    pub fn total_shed(&self) -> usize {
        self.outcomes.iter().map(|o| o.shed).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_workload::TestbedSpec;

    fn small_fleet(tenants: usize, threads: usize) -> FleetSoak {
        let spec = TestbedSpec {
            epgs: 10,
            contracts: 6,
            filters: 4,
            target_pairs: 14,
            switches: 3,
            tcam_capacity: 1024,
        };
        FleetSoak {
            threads: Parallelism::Fixed(threads),
            ..FleetSoak::new(WorkloadKind::Testbed(spec), tenants, 12, 29)
        }
    }

    #[test]
    fn fleet_results_match_direct_replay_at_any_thread_count() {
        let fleet = small_fleet(3, 3);
        let concurrent = fleet.run();
        let sequential = small_fleet(3, 1).run();
        assert_eq!(concurrent.threads, 3);
        assert_eq!(sequential.threads, 1);
        for tenant in 0..3 {
            let (deltas, report) = fleet.direct_replay(tenant);
            assert_eq!(
                concurrent.outcomes[tenant].analysis(),
                (&deltas[..], Some(&report)),
                "tenant {tenant}: the front door changed an analysis result"
            );
            assert_eq!(
                concurrent.outcomes[tenant].analysis(),
                sequential.outcomes[tenant].analysis(),
                "tenant {tenant}: thread count changed an analysis result"
            );
        }
        assert_eq!(concurrent.total_ingests(), 3 * 12);
    }

    #[test]
    fn back_pressure_delays_but_never_loses_or_reorders_batches() {
        let mut fleet = small_fleet(2, 2);
        fleet.admission = AdmissionConfig {
            quota_tokens: 2,
            refill_per_tick: 1,
            queue_capacity: 2,
        };
        let run = fleet.run();
        assert!(
            run.total_queued() + run.total_shed() > 0,
            "the tight quota must actually trigger back-pressure"
        );
        for tenant in 0..2 {
            let (deltas, report) = fleet.direct_replay(tenant);
            assert_eq!(run.outcomes[tenant].deltas, deltas);
            assert_eq!(run.outcomes[tenant].report.as_ref(), Some(&report));
            let epochs: Vec<u64> = run.outcomes[tenant]
                .deltas
                .iter()
                .map(|d| d.epoch)
                .collect();
            assert_eq!(epochs, (1..=12).collect::<Vec<u64>>(), "FIFO order held");
        }
    }

    #[test]
    fn shed_policy_refuses_instead_of_parking() {
        let mut fleet = small_fleet(1, 1);
        fleet.admission = AdmissionConfig {
            quota_tokens: 1,
            refill_per_tick: 1,
            queue_capacity: 0,
        };
        let run = fleet.run();
        assert_eq!(run.total_queued(), 0, "Shed policy never queues");
        assert!(run.total_shed() > 0);
        let (deltas, _) = fleet.direct_replay(0);
        assert_eq!(run.outcomes[0].deltas, deltas, "retries landed every batch");
    }
}
