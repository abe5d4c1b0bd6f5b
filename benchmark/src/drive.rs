//! The driver: opens tenants and replays the recorded schedule through
//! `ScoutServer::handle_bytes`, open-loop and paced, from one thread.
//!
//! Request `i` is due at `t0 + i / rate`. The driver spin-waits until the due
//! time and starts a request that is already overdue at once, so a stall
//! shows up as response latency of the requests behind it, and as backlog.
//! One pass therefore yields service time (`end − start`), response latency
//! (`end − due`) and busy-time capacity. Responses are decoded and checked
//! after the clock is read, outside every timed window.

use std::collections::{BTreeMap, BTreeSet};
use std::time::{Duration, Instant};

use scout::core::{ReportDelta, ScoutEngine, ScoutReport};
use scout::fabric::wire::{from_bytes, to_bytes};
use scout::fabric::Fabric;
use scout::server::{ScoutServer, ServerRequest, ServerResponse, TenantId};

use crate::record::{Request, RequestKind, Tape, Workload};

/// Counts every request sent through the front door and every one that was
/// answered wrongly: an error, a shed, an undecodable or unexpected
/// response, or an oracle mismatch.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one attempt; `ok == false` counts it as failed and says why.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Counts a failure of something already counted as attempted: a queued
    /// batch that drained wrongly, or an answer the oracle disagrees with.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        eprintln!("FAILED: {}", what());
    }
}

/// Sends one request and decodes the answer; the returned duration covers
/// bytes in to bytes out only.
pub fn call(server: &mut ScoutServer, bytes: &[u8]) -> (Option<ServerResponse>, Duration) {
    let start = Instant::now();
    let reply = server.handle_bytes(bytes);
    let elapsed = start.elapsed();
    (from_bytes::<ServerResponse>(&reply).ok(), elapsed)
}

/// What opening the tenants cost.
pub struct Opens {
    /// Every `OpenSession`'s service time, in milliseconds, round by round.
    pub open_ms: Vec<f64>,
    /// How long each round took to open every tenant, in seconds.
    pub round_s: Vec<f64>,
}

/// Opens every tenant `rounds` times, closing in between; the last round is
/// the one the paced pass runs on.
pub fn open_tenants(
    server: &mut ScoutServer,
    tape: &Tape,
    rounds: usize,
    tally: &mut Tally,
) -> Opens {
    let mut opens = Opens {
        open_ms: Vec::new(),
        round_s: Vec::new(),
    };
    for round in 0..rounds {
        let start = Instant::now();
        for (tenant, bytes) in tape.opens.iter().enumerate() {
            let (response, elapsed) = call(server, bytes);
            opens.open_ms.push(elapsed.as_secs_f64() * 1e3);
            tally.check(
                matches!(response, Some(ServerResponse::Opened { epoch: 0, .. })),
                || format!("open of tenant {tenant}: {response:?}"),
            );
        }
        opens.round_s.push(start.elapsed().as_secs_f64());
        if round + 1 < rounds {
            for tenant in 0..tape.opens.len() as TenantId {
                let close = to_bytes(&ServerRequest::CloseSession { tenant });
                let (response, _) = call(server, &close);
                tally.check(
                    matches!(response, Some(ServerResponse::Closed { .. })),
                    || format!("close of tenant {tenant}: {response:?}"),
                );
            }
            // A durable tenant cannot be opened over the store it left behind.
            if let Some(root) = &server.config().store_root {
                let _ = std::fs::remove_dir_all(root);
            }
        }
    }
    opens
}

/// What happened to one request of the schedule. Times are nanoseconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct Sample {
    /// `end − start` of the `handle_bytes` call.
    pub service: u64,
    /// `completion − due`: for a queued ingest the completion is the end of
    /// the tick that drained it.
    pub response: u64,
    /// `start − due`: how late the generator ran.
    pub late: u64,
    /// For a queued ingest, `drain − end`: how long the batch sat parked.
    pub queued_wait: Option<u64>,
}

/// The result of one paced pass.
#[derive(Default)]
pub struct Pass {
    /// One sample per schedule entry.
    pub samples: Vec<Sample>,
    pub tick_ns: Vec<u64>,
    /// Σ service + Σ tick.
    pub busy_ns: u64,
    /// The most due-but-unserved requests seen at any request start.
    pub backlog_max: u64,
    /// Deltas of the checked tenants, in epoch order.
    pub deltas: BTreeMap<TenantId, Vec<ReportDelta>>,
}

/// Whether `response` is the right kind of answer to `request`.
fn answers(request: &Request, response: &ServerResponse) -> bool {
    match (request.kind, response) {
        (RequestKind::Ingest { .. }, ServerResponse::Ingested { tenant, delta }) => {
            *tenant == request.tenant && delta.epoch == request.epoch
        }
        (RequestKind::Ingest { .. }, ServerResponse::Queued { tenant, .. })
        | (RequestKind::Checkpoint, ServerResponse::Checkpointed { tenant, .. }) => {
            *tenant == request.tenant
        }
        (RequestKind::Query, ServerResponse::Report { tenant, epoch, .. }) => {
            *tenant == request.tenant && *epoch <= request.epoch
        }
        _ => false,
    }
}

/// Runs `server.tick()`, books its duration as busy time and credits drained
/// batches to the requests that queued them.
fn tick(
    server: &mut ScoutServer,
    t0: Instant,
    parked: &mut BTreeMap<(TenantId, u64), (usize, u64, u64)>,
    pass: &mut Pass,
    tally: &mut Tally,
) {
    let start = Instant::now();
    let drained = server.tick();
    let end = t0.elapsed().as_nanos() as u64;
    let elapsed = start.elapsed().as_nanos() as u64;
    pass.tick_ns.push(elapsed);
    pass.busy_ns += elapsed;
    for response in drained {
        match response {
            ServerResponse::Ingested { tenant, delta } => {
                // Already counted as attempted when it was queued.
                match parked.remove(&(tenant, delta.epoch)) {
                    Some((index, due, handled)) => {
                        pass.samples[index].response = end - due;
                        pass.samples[index].queued_wait = Some(end - handled);
                    }
                    None => tally.fail(|| {
                        format!(
                            "tick drained epoch {} of tenant {tenant} nobody queued",
                            delta.epoch
                        )
                    }),
                }
                if let Some(deltas) = pass.deltas.get_mut(&tenant) {
                    deltas.push(delta);
                }
            }
            other => tally.fail(|| format!("tick surfaced {other:?}")),
        }
    }
}

/// Replays the schedule at the workload's rate. `checked` tenants get their
/// delta streams kept for the oracle.
pub fn paced_pass(
    server: &mut ScoutServer,
    workload: &Workload,
    schedule: &[Request],
    checked: &BTreeSet<TenantId>,
    tally: &mut Tally,
) -> Pass {
    let mut pass = Pass {
        samples: vec![Sample::default(); schedule.len()],
        tick_ns: Vec::with_capacity(schedule.len() / workload.tick_every + 64),
        deltas: checked.iter().map(|&t| (t, Vec::new())).collect(),
        ..Pass::default()
    };
    // (tenant, epoch) → (schedule index, due, end of handle_bytes).
    let mut parked = BTreeMap::new();
    let period = 1e9 / workload.rate;
    let t0 = Instant::now();
    for (index, request) in schedule.iter().enumerate() {
        let due = (index as f64 * period) as u64;
        let mut start = t0.elapsed().as_nanos() as u64;
        while start < due {
            std::hint::spin_loop();
            start = t0.elapsed().as_nanos() as u64;
        }
        let reply = server.handle_bytes(&request.bytes);
        let end = t0.elapsed().as_nanos() as u64;

        let backlog = ((start - due) as f64 / period) as u64;
        pass.backlog_max = pass.backlog_max.max(backlog);
        pass.busy_ns += end - start;
        pass.samples[index] = Sample {
            service: end - start,
            response: end - due,
            late: start - due,
            queued_wait: None,
        };
        let response = from_bytes::<ServerResponse>(&reply).ok();
        tally.check(
            response.as_ref().is_some_and(|r| answers(request, r)),
            || {
                format!(
                    "request {index} ({:?} tenant {} epoch {}): {response:?}",
                    request.kind, request.tenant, request.epoch
                )
            },
        );
        match response {
            Some(ServerResponse::Ingested { tenant, delta }) => {
                if let Some(deltas) = pass.deltas.get_mut(&tenant) {
                    deltas.push(delta);
                }
            }
            Some(ServerResponse::Queued { tenant, .. }) => {
                parked.insert((tenant, request.epoch), (index, due, end));
            }
            _ => {}
        }
        if (index + 1) % workload.tick_every == 0 {
            tick(server, t0, &mut parked, &mut pass, tally);
        }
    }
    // Accepted means owned: drain what is still parked before anyone reads
    // a final report.
    while !parked.is_empty() {
        let before = parked.len();
        tick(server, t0, &mut parked, &mut pass, tally);
        if parked.len() == before && server.tenants().iter().all(|&t| server.queue_depth(t) == 0) {
            tally.fail(|| format!("{before} queued batches were never drained"));
            break;
        }
    }
    pass
}

/// Asks for `tenant`'s current report through the front door.
pub fn query(
    server: &mut ScoutServer,
    tenant: TenantId,
    tally: &mut Tally,
) -> Option<(u64, ScoutReport)> {
    let (response, _) = call(server, &to_bytes(&ServerRequest::Query { tenant }));
    let report = match response {
        Some(ServerResponse::Report { epoch, report, .. }) => Some((epoch, report)),
        _ => None,
    };
    tally.check(report.is_some(), || {
        format!("final query of tenant {tenant} failed")
    });
    report
}

/// The correctness oracle, run after the paced pass. On a fleet every
/// checked tenant's delta stream and final report must equal a direct
/// `AnalysisSession` replay of its recorded batches; on a single-tenant
/// workload the final report must equal `ScoutEngine::analyze` of the
/// recorder's final fabric. Returns the served final reports.
pub fn verify(
    server: &mut ScoutServer,
    workload: &Workload,
    tape: &Tape,
    pass: &Pass,
    tally: &mut Tally,
) -> BTreeMap<TenantId, ScoutReport> {
    let engine = ScoutEngine::new();
    let mut served = BTreeMap::new();
    for (&tenant, deltas) in &pass.deltas {
        let recorded = &tape.tenants[tenant as usize];
        let Some((epoch, report)) = query(server, tenant, tally) else {
            continue;
        };
        let (expected_deltas, expected_report) = if workload.tenants == 1 {
            (None, engine.analyze(&recorded.final_fabric))
        } else {
            let mut fabric = Fabric::new(recorded.universe.clone());
            fabric.deploy();
            let mut session = engine.open_session(&fabric);
            let replayed: Vec<ReportDelta> = recorded
                .epochs
                .iter()
                .map(|e| {
                    session
                        .ingest(e.batch.clone())
                        .expect("recorded batches ingest")
                })
                .collect();
            (Some(replayed), session.full_report().clone())
        };
        if epoch != recorded.epochs.len() as u64 || report != expected_report {
            tally.fail(|| format!("tenant {tenant}: final report differs from the oracle's"));
        }
        if deltas.len() != recorded.epochs.len()
            || expected_deltas.is_some_and(|expected| expected != *deltas)
        {
            tally
                .fail(|| format!("tenant {tenant}: delta stream differs from the direct replay's"));
        }
        served.insert(tenant, report);
    }
    served
}
