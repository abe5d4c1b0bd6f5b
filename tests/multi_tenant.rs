//! The enforced concurrency contract of the sharded engine: M threads
//! ingesting into M sessions of **one shared `ScoutEngine`** produce reports
//! bit-identical to the same batches replayed sequentially — concurrency
//! changes wall-clock time, never results.

use rand::rngs::StdRng;
use rand::SeedableRng;

use scout::core::{ReportDelta, ScoutEngine, ScoutReport};
use scout::fabric::{EventBatch, Fabric, FabricProbe};
use scout::server::{
    AdmissionConfig, OverloadPolicy, ScoutServer, ServerConfig, ServerRequest, ServerResponse,
};
use scout::sim::churn::fleet_step;
use scout::sim::{Parallelism, SoakRun, Timeline, WorkloadKind};
use scout::workload::TestbedSpec;

const TENANTS: usize = 4;
const EPOCHS: usize = 30;

const SPEC: TestbedSpec = TestbedSpec {
    epgs: 10,
    contracts: 6,
    filters: 4,
    target_pairs: 14,
    switches: 3,
    tcam_capacity: 1024,
};

fn tenant_fabric(tenant: usize) -> Fabric {
    let mut fabric = Fabric::new(SPEC.generate(1000 + tenant as u64));
    fabric.deploy();
    fabric
}

/// Pre-records each tenant's event-batch stream by churning its fabric once,
/// so the sequential and concurrent passes consume identical inputs.
fn tenant_batches(tenant: usize) -> Vec<EventBatch> {
    let mut fabric = tenant_fabric(tenant);
    let mut probe = FabricProbe::new(&fabric);
    let mut rng = StdRng::seed_from_u64(77 + tenant as u64);
    (1..=EPOCHS as u64)
        .map(|epoch| {
            fleet_step(&mut fabric, &mut rng);
            EventBatch::new(epoch, probe.observe(&fabric))
        })
        .collect()
}

/// Runs `work` for every tenant on its own thread, results in tenant order.
fn per_tenant_thread<T: Send>(work: impl Fn(usize) -> T + Sync) -> Vec<T> {
    // As many workers as tenants: every range is the single tenant it starts at.
    Parallelism::Fixed(TENANTS).fan_out(TENANTS, |_, range| work(range.start))
}

/// Drives one tenant's batches through a session of `engine`, returning every
/// emitted delta and the final report.
fn drive(
    engine: &ScoutEngine,
    tenant: usize,
    batches: &[EventBatch],
) -> (Vec<ReportDelta>, ScoutReport) {
    let fabric = tenant_fabric(tenant);
    let mut session = engine.open_session(&fabric);
    let deltas = batches
        .iter()
        .map(|batch| {
            session
                .ingest(batch.clone())
                .expect("recorded batches ingest cleanly")
        })
        .collect();
    (deltas, session.full_report().clone())
}

#[test]
fn concurrent_sessions_on_a_shared_engine_match_sequential_replay() {
    let batches: Vec<Vec<EventBatch>> = (0..TENANTS).map(tenant_batches).collect();

    // Sequential reference: one tenant at a time, same shared engine shape.
    let sequential_engine = ScoutEngine::new();
    let sequential: Vec<_> = (0..TENANTS)
        .map(|tenant| drive(&sequential_engine, tenant, &batches[tenant]))
        .collect();

    // Concurrent run: M threads, M sessions, one shared engine.
    let shared = ScoutEngine::new();
    let concurrent = per_tenant_thread(|tenant| drive(&shared, tenant, &batches[tenant]));
    assert_eq!(
        shared.session_count(),
        0,
        "every session counted itself out on drop"
    );

    for tenant in 0..TENANTS {
        let (seq_deltas, seq_report) = &sequential[tenant];
        let (con_deltas, con_report) = &concurrent[tenant];
        assert_eq!(
            seq_deltas, con_deltas,
            "tenant {tenant}: concurrent ingestion changed a ReportDelta"
        );
        assert_eq!(
            seq_report, con_report,
            "tenant {tenant}: concurrent ingestion changed the final report"
        );
        // A third, fresh replay on the (now idle) shared engine agrees too.
        let (_, replayed_report) = drive(&shared, tenant, &batches[tenant]);
        assert_eq!(&replayed_report, seq_report);
    }
    assert_eq!(shared.session_count(), 0);
}

/// Drives one tenant's batches through a `scout-server` front door mounted
/// on `engine`, returning the same shape as [`drive`] so results can be
/// compared bit for bit. The quota is sized to admit the whole stream: this
/// test is about concurrency, not backpressure (`tests/server.rs` owns that).
fn drive_via_front_door(
    engine: &ScoutEngine,
    tenant: usize,
    batches: &[EventBatch],
) -> (Vec<ReportDelta>, ScoutReport) {
    let admission = AdmissionConfig {
        quota_tokens: EPOCHS as u64 + 1,
        refill_per_tick: 1,
        queue_capacity: 4,
        policy: OverloadPolicy::Queue,
    };
    let mut server = ScoutServer::new(engine.clone(), ServerConfig::in_memory(admission));
    let id = tenant as u64;
    match server.handle(ServerRequest::OpenSession {
        tenant: id,
        universe: tenant_fabric(tenant).universe().clone(),
    }) {
        ServerResponse::Opened { .. } => {}
        other => panic!("tenant {tenant}: open failed: {other:?}"),
    }
    let deltas = batches
        .iter()
        .map(|batch| {
            match server.handle(ServerRequest::Ingest {
                tenant: id,
                batch: batch.clone(),
            }) {
                ServerResponse::Ingested { delta, .. } => delta,
                other => panic!("tenant {tenant}: ingest failed: {other:?}"),
            }
        })
        .collect();
    let report = match server.handle(ServerRequest::Query { tenant: id }) {
        ServerResponse::Report { report, .. } => report,
        other => panic!("tenant {tenant}: query failed: {other:?}"),
    };
    match server.handle(ServerRequest::CloseSession { tenant: id }) {
        ServerResponse::Closed { .. } => {}
        other => panic!("tenant {tenant}: close failed: {other:?}"),
    }
    (deltas, report)
}

/// The session-level contract above, ported to the serving layer: M threads
/// each running their own [`ScoutServer`] front door over **one shared
/// engine** produce deltas and reports bit-identical to the direct
/// sequential session replay — the wire-facing layer adds admission and
/// routing, never results.
#[test]
fn concurrent_front_doors_on_a_shared_engine_match_sequential_replay() {
    let batches: Vec<Vec<EventBatch>> = (0..TENANTS).map(tenant_batches).collect();

    let sequential_engine = ScoutEngine::new();
    let sequential: Vec<_> = (0..TENANTS)
        .map(|tenant| drive(&sequential_engine, tenant, &batches[tenant]))
        .collect();

    let shared = ScoutEngine::new();
    let served =
        per_tenant_thread(|tenant| drive_via_front_door(&shared, tenant, &batches[tenant]));
    assert_eq!(
        shared.session_count(),
        0,
        "every CloseSession dropped its session from the shared engine"
    );

    for tenant in 0..TENANTS {
        let (seq_deltas, seq_report) = &sequential[tenant];
        let (srv_deltas, srv_report) = &served[tenant];
        assert_eq!(
            seq_deltas, srv_deltas,
            "tenant {tenant}: the front door changed a ReportDelta"
        );
        assert_eq!(
            seq_report, srv_report,
            "tenant {tenant}: the front door changed the final report"
        );
    }
}

/// M independent soak timelines (tenant `i` runs seed `5 + i`, every-epoch
/// differential oracle) against **one shared engine**: each tenant's outcome
/// is the same whether the timelines run on M threads, one after another, or
/// alone on a private engine.
#[test]
fn multi_tenant_soak_outcomes_are_thread_count_invariant() {
    let timeline =
        |tenant: usize| Timeline::new(WorkloadKind::Testbed(SPEC), 20, 5 + tenant as u64);
    let run_all = |threads: Parallelism| -> Vec<SoakRun> {
        let engine = ScoutEngine::new();
        threads
            .fan_out(TENANTS, |_, range| {
                range
                    .map(|tenant| timeline(tenant).run_with_engine(&engine))
                    .collect::<Vec<_>>()
            })
            .into_iter()
            .flatten()
            .collect()
    };
    let concurrent = run_all(Parallelism::Fixed(TENANTS));
    let sequential = run_all(Parallelism::Sequential);

    assert_eq!(concurrent.len(), TENANTS);
    for tenant in 0..TENANTS {
        assert_eq!(
            concurrent[tenant].outcome, sequential[tenant].outcome,
            "tenant {tenant}: thread count changed the soak outcome"
        );
        assert_eq!(
            concurrent[tenant].outcome,
            timeline(tenant).run().outcome,
            "tenant {tenant}: sharing the engine changed the soak outcome"
        );
        // Every tenant's differential oracle agreed at every epoch, concurrently.
        assert!(concurrent[tenant].outcome.oracle_disagreements().is_empty());
    }
    assert_ne!(
        concurrent[0].outcome, concurrent[1].outcome,
        "tenant seeds must differ"
    );
    let ingests: usize = concurrent.iter().map(|run| run.session_stats.ingests).sum();
    assert_eq!(ingests, TENANTS * 20);
}
