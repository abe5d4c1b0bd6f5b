//! The enforced contract of the serving layer (`scout-server`): a fleet of
//! tenants pushed through the wire-encoded front door — admission control,
//! queues, sheds, node kills and all — produces analysis results
//! **bit-identical** to a direct single-threaded engine replay.
//!
//! Four headline properties:
//!
//! 1. a fleet of [`TENANTS`] tenants served over the byte-level API matches
//!    per-tenant direct replay, at every server thread count;
//! 2. killing the cluster leader *and* a session-owning node mid-soak, at a
//!    seeded random epoch, leaves every post-failover report bit-identical
//!    to an uninterrupted run;
//! 3. saturating one tenant's quota sheds the offender with typed errors
//!    while bystander tenants are admitted untouched, and no accepted batch
//!    is ever lost;
//! 4. neither the server thread count nor the cluster node count changes a
//!    single analysis result;
//! 5. a lossy stream answered with resyncs gives the same deltas and reports
//!    in memory, on a durable node, and across a failover after a resync.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use scout::core::{ScoutEngine, ScoutReport, SessionError};
use scout::fabric::{EventBatch, Fabric, FabricProbe};
use scout::server::{
    AdmissionConfig, Cluster, ClusterConfig, ScoutServer, ServerConfig, ServerError, ServerRequest,
    ServerResponse, TenantId,
};
use scout::sim::churn::soak_step;
use scout::sim::{FleetSoak, Parallelism, WorkloadKind};
use scout::store::test_dir::TestDir;
use scout::store::StoreConfig;
use scout::workload::TestbedSpec;

/// Fleet width: the full million-user-style fleet in release, a narrower one
/// under debug assertions so plain `cargo test` stays fast.
const TENANTS: usize = if cfg!(debug_assertions) { 60 } else { 1000 };
const EPOCHS: usize = 8;
const SEED: u64 = 41;

fn fleet(threads: usize) -> FleetSoak {
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
        ..FleetSoak::new(WorkloadKind::Testbed(spec), TENANTS, EPOCHS, SEED)
    }
}

/// Headline 1 + 4a: every tenant's front-door results are bit-identical to a
/// direct single-threaded engine replay, and the server thread count is
/// invisible in the results.
#[test]
fn fleet_through_the_front_door_matches_direct_replay_at_every_thread_count() {
    let soak = fleet(1);
    let sequential = soak.run();
    assert_eq!(sequential.total_ingests(), TENANTS * EPOCHS);

    for tenant in 0..TENANTS {
        let (deltas, report) = soak.direct_replay(tenant);
        assert_eq!(
            sequential.outcomes[tenant].analysis(),
            (&deltas[..], Some(&report)),
            "tenant {tenant}: the front door changed an analysis result"
        );
    }

    for threads in [4, 8] {
        let concurrent = fleet(threads).run();
        for tenant in 0..TENANTS {
            assert_eq!(
                concurrent.outcomes[tenant].analysis(),
                sequential.outcomes[tenant].analysis(),
                "tenant {tenant}: {threads} server threads changed an analysis result"
            );
        }
    }
}

/// Headline 3: one tenant blowing through its quota is queued, then shed
/// with typed, actionable errors — and the bystanders never feel it.
#[test]
fn quota_saturation_sheds_the_offender_and_spares_the_bystanders() {
    let admission = AdmissionConfig {
        quota_tokens: 3,
        refill_per_tick: 1,
        queue_capacity: 2,
    };
    let mut server = ScoutServer::new(ScoutEngine::new(), ServerConfig::in_memory(admission));
    let soak = fleet(1);

    const OFFENDER: TenantId = 0;
    const BYSTANDERS: [TenantId; 3] = [1, 2, 3];
    for tenant in [OFFENDER, 1, 2, 3] {
        match server.handle(ServerRequest::OpenSession {
            tenant,
            universe: soak.tenant_universe(tenant as usize),
        }) {
            ServerResponse::Opened { .. } => {}
            other => panic!("open failed: {other:?}"),
        }
    }

    // The offender floods: 3 admitted (its burst), 2 queued (its lane), the
    // sixth shed with a typed error carrying a usable retry hint. The flood
    // stops at the first shed — a shed batch was *not* accepted, so pushing
    // the epoch after it would be a sequence error, not an overload.
    let offender_batches = soak.tenant_batches(OFFENDER as usize);
    let mut sheds = 0u64;
    for (i, batch) in offender_batches[..6].iter().enumerate() {
        let verdict = server.handle(ServerRequest::Ingest {
            tenant: OFFENDER,
            batch: batch.clone(),
        });
        match (i, verdict) {
            (0..=2, ServerResponse::Ingested { .. }) => {}
            (3..=4, ServerResponse::Queued { tenant, depth }) => {
                assert_eq!(tenant, OFFENDER);
                assert_eq!(depth as usize, i - 2, "queue depth counts parked batches");
            }
            (5, ServerResponse::Error(ServerError::Shed { tenant, retry_hint })) => {
                assert_eq!(tenant, OFFENDER);
                assert!(retry_hint >= 1, "a shed carries an actionable retry hint");
                sheds += 1;
            }
            (i, other) => panic!("batch {i}: unexpected verdict {other:?}"),
        }
    }
    // Shed is stateless: resending the same batch changes nothing.
    for _ in 0..2 {
        match server.handle(ServerRequest::Ingest {
            tenant: OFFENDER,
            batch: offender_batches[5].clone(),
        }) {
            ServerResponse::Error(ServerError::Shed { .. }) => sheds += 1,
            other => panic!("a repeated shed changed state: {other:?}"),
        }
    }
    assert_eq!(
        server.queue_depth(OFFENDER),
        2,
        "sheds never touch the queue"
    );

    // Bystanders, mid-saturation: admitted instantly, never queued, never
    // shed — the offender consumed only its own lane.
    for tenant in BYSTANDERS {
        for batch in soak.tenant_batches(tenant as usize).into_iter().take(3) {
            match server.handle(ServerRequest::Ingest { tenant, batch }) {
                ServerResponse::Ingested { .. } => {}
                other => panic!("bystander {tenant} was not spared: {other:?}"),
            }
            assert_eq!(server.queue_depth(tenant), 0);
        }
    }

    // The offender retries its shed batches under tick-driven refill; every
    // accepted batch lands exactly once, in order — nothing lost.
    for batch in &offender_batches[5..] {
        let mut attempts = 0;
        loop {
            match server.handle(ServerRequest::Ingest {
                tenant: OFFENDER,
                batch: batch.clone(),
            }) {
                ServerResponse::Ingested { .. } | ServerResponse::Queued { .. } => break,
                ServerResponse::Error(ServerError::Shed { .. }) => {
                    sheds += 1;
                    attempts += 1;
                    assert!(attempts < 100, "retry loop cannot make progress");
                    server.tick();
                }
                other => panic!("unexpected retry response: {other:?}"),
            }
        }
    }
    while server.queue_depth(OFFENDER) > 0 {
        server.tick();
    }

    let (_, offender_oracle) = soak.direct_replay(OFFENDER as usize);
    assert_eq!(
        server.full_report(OFFENDER),
        Some(&offender_oracle),
        "shed-and-retry lost or reordered an accepted batch"
    );
    let stats = server.engine().gauges().snapshot();
    assert_eq!(stats.shed, sheds, "every shed was a typed, counted refusal");
    assert_eq!(stats.queued, 0, "every parked batch was drained");
}

/// Drives `tenants` full timelines through `cluster`, killing `kill` nodes
/// after the batch at `kill_epoch` has been offered for every tenant.
/// Returns each tenant's final report, obtained via `Query` after a full
/// drain. Sheds (quota or dead-owner window) are retried around `tick`.
fn drive_cluster(
    cluster: &mut Cluster,
    soak: &FleetSoak,
    tenants: usize,
    kill: &[u64],
    kill_epoch: u64,
) -> Vec<ScoutReport> {
    let batches: Vec<Vec<EventBatch>> = (0..tenants).map(|t| soak.tenant_batches(t)).collect();
    for tenant in 0..tenants as TenantId {
        match cluster.handle(ServerRequest::OpenSession {
            tenant,
            universe: soak.tenant_universe(tenant as usize),
        }) {
            ServerResponse::Opened { .. } => {}
            other => panic!("cluster open failed: {other:?}"),
        }
    }

    for epoch in 1..=EPOCHS as u64 {
        for (index, timeline) in batches.iter().enumerate() {
            let tenant = index as TenantId;
            let batch = timeline[epoch as usize - 1].clone();
            let mut attempts = 0;
            loop {
                match cluster.handle(ServerRequest::Ingest {
                    tenant,
                    batch: batch.clone(),
                }) {
                    ServerResponse::Ingested { .. } | ServerResponse::Queued { .. } => break,
                    ServerResponse::Error(ServerError::Shed { .. }) => {
                        // Dead-owner window or quota: tick (heartbeats,
                        // failover, drain) and resend.
                        attempts += 1;
                        assert!(attempts < 100, "cluster cannot make progress");
                        cluster.tick();
                    }
                    other => panic!("tenant {tenant} epoch {epoch}: {other:?}"),
                }
            }
        }
        if epoch == kill_epoch {
            for &node in kill {
                cluster.kill_node(node);
            }
        }
    }

    // Drain every queue, then read the final reports.
    loop {
        let report = cluster.tick();
        for response in &report.drained {
            assert!(
                matches!(response, ServerResponse::Ingested { .. }),
                "drain surfaced an error: {response:?}"
            );
        }
        if report.drained.is_empty() && report.failed_over.is_empty() {
            break;
        }
    }
    (0..tenants as TenantId)
        .map(|tenant| {
            let mut attempts = 0;
            loop {
                match cluster.handle(ServerRequest::Query { tenant }) {
                    ServerResponse::Report { report, .. } => return report,
                    ServerResponse::Error(ServerError::Shed { .. }) => {
                        attempts += 1;
                        assert!(attempts < 100, "query cannot make progress");
                        cluster.tick();
                    }
                    other => panic!("query failed: {other:?}"),
                }
            }
        })
        .collect()
}

/// Headline 2: kill the leader *and* a session-owning node mid-soak at a
/// seeded random epoch; after leader-driven failover (journal replay on the
/// survivor), every final report is bit-identical to an uninterrupted run —
/// and to the direct engine replay.
#[test]
fn leader_and_owner_kill_mid_soak_recovers_bit_identically() {
    const CLUSTER_TENANTS: usize = 6;
    let soak = fleet(1);
    let config = ClusterConfig {
        nodes: 3,
        heartbeat_timeout: 1,
        ..ClusterConfig::default()
    };

    // Baseline: the same fleet, uninterrupted.
    let baseline_dir = TestDir::new("server-baseline");
    let mut baseline_cluster = Cluster::new(baseline_dir.path(), config);
    let baseline = drive_cluster(&mut baseline_cluster, &soak, CLUSTER_TENANTS, &[], u64::MAX);

    // The kill epoch is drawn from a seeded RNG: mid-soak, never the edges.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0xDEAD);
    let kill_epoch = rng.gen_range(2u64..EPOCHS as u64 - 1);

    let dir = TestDir::new("server-failover");
    let mut cluster = Cluster::new(dir.path(), config);
    // Victims: the leader, plus an owner of sessions that is not the leader.
    let leader = cluster.leader().expect("fresh cluster has a leader");
    let owner_victim = (0..config.nodes)
        .find(|&n| n != leader)
        .expect("cluster has more than one node");
    let survivors_report = drive_cluster(
        &mut cluster,
        &soak,
        CLUSTER_TENANTS,
        &[leader, owner_victim],
        kill_epoch,
    );

    assert_ne!(cluster.leader(), Some(leader), "a new leader was elected");
    for tenant in 0..CLUSTER_TENANTS {
        assert_eq!(
            survivors_report[tenant], baseline[tenant],
            "tenant {tenant}: failover at epoch {kill_epoch} changed the final report"
        );
        let (_, oracle) = soak.direct_replay(tenant);
        assert_eq!(
            survivors_report[tenant], oracle,
            "tenant {tenant}: cluster result diverged from the direct engine replay"
        );
    }
}

/// Headline 4b: the cluster node count is invisible in the results.
#[test]
fn node_count_never_changes_results() {
    const CLUSTER_TENANTS: usize = 5;
    let soak = fleet(1);
    let mut per_node_count = Vec::new();
    for nodes in [1u64, 2, 5] {
        let dir = TestDir::new(&format!("server-nodes-{nodes}"));
        let config = ClusterConfig {
            nodes,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(dir.path(), config);
        per_node_count.push(drive_cluster(
            &mut cluster,
            &soak,
            CLUSTER_TENANTS,
            &[],
            u64::MAX,
        ));
    }
    for reports in &per_node_count[1..] {
        assert_eq!(
            reports, &per_node_count[0],
            "node count changed an analysis result"
        );
    }
    for (tenant, report) in per_node_count[0].iter().enumerate() {
        let (_, oracle) = soak.direct_replay(tenant);
        assert_eq!(report, &oracle);
    }
}

/// Headline 5: a seeded stream that loses about a fifth of its batches, each
/// gap answered with a `Resync` from `FabricProbe::full_resync`, driven
/// through an in-memory node, a durable node, and a 3-node cluster whose
/// owner is killed right after a resync and failed over. All three give the
/// same `Ingested`/`Resynced` deltas and the same final report, which is the
/// from-scratch analysis of the fabric.
#[test]
fn lossy_stream_resyncs_identically_in_memory_durable_and_across_failover() {
    const TENANT: TenantId = 3;
    const LOSSY_EPOCHS: u64 = 40;
    let spec = TestbedSpec {
        epgs: 8,
        contracts: 5,
        filters: 3,
        target_pairs: 10,
        switches: 3,
        tcam_capacity: 512,
    };
    let universe = spec.generate(SEED);
    let mut fabric = Fabric::new(universe.clone());
    fabric.deploy();

    // The client's script: a lost batch is observed and dropped; the next
    // delivery reveals the gap, and the client resyncs at its epoch.
    let mut rng = StdRng::seed_from_u64(SEED ^ 0x1055);
    let mut probe = FabricProbe::new(&fabric);
    let mut script = vec![ServerRequest::OpenSession {
        tenant: TENANT,
        universe,
    }];
    let mut gap_pending = false;
    for epoch in 1..=LOSSY_EPOCHS {
        soak_step(&mut fabric, &mut rng);
        let batch = EventBatch::new(epoch, probe.observe(&fabric));
        if epoch < LOSSY_EPOCHS && rng.gen_range(0..5) == 0 {
            gap_pending = true;
            continue;
        }
        script.push(ServerRequest::Ingest {
            tenant: TENANT,
            batch,
        });
        if std::mem::take(&mut gap_pending) {
            script.push(ServerRequest::Resync {
                tenant: TENANT,
                epoch,
                sync: probe.full_resync(&fabric),
            });
        }
    }
    let truth = ScoutEngine::new().analyze(&fabric);
    let resyncs = script
        .iter()
        .filter(|r| matches!(r, ServerRequest::Resync { .. }))
        .count();
    assert!(
        resyncs >= 4,
        "the seed must lose batches: {resyncs} resyncs"
    );

    let admission = AdmissionConfig {
        quota_tokens: 1 << 20,
        refill_per_tick: 0,
        queue_capacity: 0,
    };
    let store = StoreConfig {
        snapshot_every: 4,
        segment_max_records: 3,
        ..StoreConfig::default()
    };
    // Runs the script, checking every gap is answered by the next request's
    // resync; returns the analysis responses and the final report.
    let run = |handle: &mut dyn FnMut(ServerRequest) -> ServerResponse| {
        let mut deltas = Vec::new();
        for (i, request) in script.iter().enumerate() {
            match handle(request.clone()) {
                ServerResponse::Opened { .. } => {}
                response @ (ServerResponse::Ingested { .. } | ServerResponse::Resynced { .. }) => {
                    deltas.push(response)
                }
                ServerResponse::Error(ServerError::Session {
                    error: SessionError::EpochGap { .. },
                    ..
                }) => assert!(matches!(script[i + 1], ServerRequest::Resync { .. })),
                other => panic!("request {i}: {other:?}"),
            }
        }
        match handle(ServerRequest::Query { tenant: TENANT }) {
            ServerResponse::Report { report, .. } => (deltas, report),
            other => panic!("query failed: {other:?}"),
        }
    };

    let mut memory = ScoutServer::new(ScoutEngine::new(), ServerConfig::in_memory(admission));
    let (memory_deltas, memory_report) = run(&mut |r| memory.handle(r));
    // One delta per delivered batch: the gapped ones come back as resyncs.
    assert_eq!(memory_deltas.len(), script.len() - 1 - resyncs);

    let dir = TestDir::new("server-lossy-durable");
    let config = ServerConfig::durable(admission, dir.path().to_path_buf(), store);
    let mut durable = ScoutServer::new(ScoutEngine::new(), config);
    let (durable_deltas, durable_report) = run(&mut |r| durable.handle(r));

    let dir = TestDir::new("server-lossy-cluster");
    let mut cluster = Cluster::new(
        dir.path(),
        ClusterConfig {
            nodes: 3,
            heartbeat_timeout: 1,
            admission,
            store,
        },
    );
    let mut failed_over = false;
    let (cluster_deltas, cluster_report) = run(&mut |r| {
        let response = cluster.handle(r);
        if !failed_over && matches!(response, ServerResponse::Resynced { .. }) {
            let owner = cluster.owner(TENANT).expect("an open tenant has an owner");
            cluster.kill_node(owner);
            for _ in 0..8 {
                if !cluster.tick().failed_over.is_empty() {
                    failed_over = true;
                    break;
                }
            }
            assert!(failed_over, "the survivors never adopted the tenant");
            assert_ne!(cluster.owner(TENANT), Some(owner));
        }
        response
    });
    assert!(failed_over);

    assert_eq!(durable_deltas, memory_deltas, "the journal changed a delta");
    assert_eq!(cluster_deltas, memory_deltas, "failover changed a delta");
    for report in [&memory_report, &durable_report, &cluster_report] {
        assert_eq!(
            report, &truth,
            "a final report is not the fabric's analysis"
        );
    }
}
