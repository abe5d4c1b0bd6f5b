//! Serving-layer walkthrough: the front door, quotas, and failover.
//!
//! Part 1 mounts a single [`ScoutServer`] front door with a deliberately
//! tight admission quota and lets one tenant flood it: the burst is
//! admitted, the overflow parks in the tenant's bounded queue, and the rest
//! is shed with a typed error carrying a retry hint — while a second tenant
//! on the same server is admitted untouched.
//!
//! Part 2 stands up a simulated 3-node [`Cluster`], spreads tenants across
//! it, and kills the leader mid-run. Requests hitting the dead owner are
//! shed (typed backpressure, not a hang), heartbeats declare the death, the
//! new leader replays the orphans' journals onto survivors, and the final
//! reports come out bit-identical to a direct single-threaded engine replay.
//!
//! Run with:
//! ```text
//! cargo run --example server
//! ```

use scout::core::ScoutEngine;
use scout::fabric::{EventBatch, Fabric, FabricProbe};
use scout::server::{
    AdmissionConfig, Cluster, ClusterConfig, ScoutServer, ServerConfig, ServerError, ServerRequest,
    ServerResponse,
};
use scout::store::test_dir::TestDir;
use scout::workload::TestbedSpec;

const EPOCHS: u64 = 8;

fn tenant_universe(tenant: u64) -> scout::policy::PolicyUniverse {
    TestbedSpec {
        epgs: 10,
        contracts: 6,
        filters: 4,
        target_pairs: 14,
        switches: 3,
        tcam_capacity: 1024,
    }
    .generate(500 + tenant)
}

/// Pre-records one tenant's drift timeline: alternating TCAM evictions and
/// repairs, observed once per epoch.
fn tenant_batches(tenant: u64) -> Vec<EventBatch> {
    let mut fabric = Fabric::new(tenant_universe(tenant));
    fabric.deploy();
    let mut probe = FabricProbe::new(&fabric);
    (1..=EPOCHS)
        .map(|epoch| {
            let switch = fabric.universe().switch_ids()[(tenant + epoch) as usize % 3];
            if epoch % 2 == 0 {
                fabric.evict_tcam(switch, 1, false);
            } else {
                fabric.repair_switch(switch);
            }
            EventBatch::new(epoch, probe.observe(&fabric))
        })
        .collect()
}

/// The direct-engine oracle for one tenant: no server, no quotas.
fn direct_replay(tenant: u64) -> scout::core::ScoutReport {
    let mut fabric = Fabric::new(tenant_universe(tenant));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    for batch in tenant_batches(tenant) {
        session.ingest(batch).expect("recorded batches ingest");
    }
    session.full_report().clone()
}

fn open(handle: &mut dyn FnMut(ServerRequest) -> ServerResponse, tenant: u64) {
    match handle(ServerRequest::OpenSession {
        tenant,
        universe: tenant_universe(tenant),
    }) {
        ServerResponse::Opened { epoch, .. } => {
            println!("tenant {tenant}: session open at epoch {epoch}")
        }
        other => panic!("open failed: {other:?}"),
    }
}

fn main() {
    // ── Part 1: one front door, a tight quota, a noisy neighbour ────────
    let admission = AdmissionConfig {
        quota_tokens: 3,
        refill_per_tick: 1,
        queue_capacity: 2,
    };
    let mut server = ScoutServer::new(ScoutEngine::new(), ServerConfig::in_memory(admission));
    println!(
        "== front door (quota {} tokens, +{}/tick, queue {}): ==",
        admission.quota_tokens, admission.refill_per_tick, admission.queue_capacity
    );
    open(&mut |r| server.handle(r), 0);
    open(&mut |r| server.handle(r), 1);

    // Tenant 0 floods; its lane absorbs what the quota allows and sheds the
    // rest with a typed, actionable error.
    let flood = tenant_batches(0);
    for batch in &flood[..6] {
        let epoch = batch.epoch;
        match server.handle(ServerRequest::Ingest {
            tenant: 0,
            batch: batch.clone(),
        }) {
            ServerResponse::Ingested { .. } => println!("  epoch {epoch}: ingested"),
            ServerResponse::Queued { depth, .. } => {
                println!("  epoch {epoch}: queued (depth {depth})")
            }
            ServerResponse::Error(ServerError::Shed { retry_hint, .. }) => {
                println!("  epoch {epoch}: SHED — retry after {retry_hint} tick(s)");
            }
            other => panic!("unexpected verdict: {other:?}"),
        }
    }

    // The bystander is untouched by the flood: admitted instantly.
    match server.handle(ServerRequest::Ingest {
        tenant: 1,
        batch: tenant_batches(1).remove(0),
    }) {
        ServerResponse::Ingested { .. } => println!("tenant 1: admitted mid-flood, no queueing"),
        other => panic!("bystander was not spared: {other:?}"),
    }

    // Tick-driven refill drains the queue and lets the retries through.
    for batch in &flood[5..] {
        loop {
            match server.handle(ServerRequest::Ingest {
                tenant: 0,
                batch: batch.clone(),
            }) {
                ServerResponse::Ingested { .. } | ServerResponse::Queued { .. } => break,
                ServerResponse::Error(ServerError::Shed { .. }) => {
                    server.tick();
                }
                other => panic!("unexpected retry verdict: {other:?}"),
            }
        }
    }
    while server.queue_depth(0) > 0 {
        server.tick();
    }
    assert_eq!(server.full_report(0), Some(&direct_replay(0)));
    println!("tenant 0: retried under refill — report bit-identical to direct replay");
    let stats = server.engine().gauges().snapshot();
    println!(
        "gauges: {} admitted, {} shed, queue peak {}\n",
        stats.admitted, stats.shed, stats.queue_peak
    );

    // ── Part 2: a 3-node cluster loses its leader mid-run ───────────────
    let dir = TestDir::new("example-server");
    let config = ClusterConfig {
        nodes: 3,
        heartbeat_timeout: 1,
        ..ClusterConfig::default()
    };
    let mut cluster = Cluster::new(dir.path(), config);
    println!(
        "== cluster ({} nodes, heartbeat timeout {}): ==",
        config.nodes, config.heartbeat_timeout
    );
    let tenants: Vec<u64> = (0..6).collect();
    for &tenant in &tenants {
        open(&mut |r| cluster.handle(r), tenant);
    }
    let batches: Vec<Vec<EventBatch>> = tenants.iter().map(|&t| tenant_batches(t)).collect();

    // First half of every timeline, then the kill.
    for epoch in 0..EPOCHS / 2 {
        for &tenant in &tenants {
            match cluster.handle(ServerRequest::Ingest {
                tenant,
                batch: batches[tenant as usize][epoch as usize].clone(),
            }) {
                ServerResponse::Ingested { .. } => {}
                other => panic!("pre-kill ingest failed: {other:?}"),
            }
        }
    }
    let leader = cluster.leader().expect("a live cluster has a leader");
    let orphans: Vec<u64> = tenants
        .iter()
        .copied()
        .filter(|&t| cluster.owner(t) == Some(leader))
        .collect();
    cluster.kill_node(leader);
    println!("killed node {leader} (the leader) — it owned tenants {orphans:?}");

    // The dead-owner window: typed backpressure until failover completes.
    for epoch in EPOCHS / 2..EPOCHS {
        for &tenant in &tenants {
            loop {
                match cluster.handle(ServerRequest::Ingest {
                    tenant,
                    batch: batches[tenant as usize][epoch as usize].clone(),
                }) {
                    ServerResponse::Ingested { .. } => break,
                    ServerResponse::Error(ServerError::Shed { .. }) => {
                        let report = cluster.tick();
                        for m in report.failed_over {
                            println!(
                                "  failover: tenant {} journal-replayed onto node {}",
                                m.tenant, m.to
                            );
                        }
                    }
                    other => panic!("post-kill ingest failed: {other:?}"),
                }
            }
        }
    }
    println!(
        "new leader: node {} — survivors {:?}",
        cluster.leader().expect("a new leader was elected"),
        cluster.alive_nodes()
    );

    for &tenant in &tenants {
        match cluster.handle(ServerRequest::Query { tenant }) {
            ServerResponse::Report { report, .. } => {
                assert_eq!(report, direct_replay(tenant));
            }
            other => panic!("query failed: {other:?}"),
        }
    }
    println!(
        "all {} final reports bit-identical to direct replay",
        tenants.len()
    );
}
