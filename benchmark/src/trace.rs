//! The traced run: the same schedule replayed with a span on every layer
//! boundary that is reachable from outside the library.
//!
//! `handle_bytes` is decomposed into the three public calls it composes
//! (`wire::from_bytes` → `ScoutServer::handle` → `wire::to_bytes`). What
//! happens inside `handle` cannot be spanned from here, so for the checked
//! tenants each batch is replayed, after the real request and outside its
//! span, through a *shadow pipeline* built only from the layers' public
//! functions, in the order `AnalysisSession::ingest` calls them; through a
//! shadow `AnalysisSession`; and, on a durable workload, through a shadow
//! `DurableSession`. The shadow's report must equal the server's at every
//! `Query`: that equality is both the trace's validity check and the
//! correctness oracle of the traced run.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::time::Instant;

use scout::core::{
    augment_controller_model_tracked, controller_risk_model_sharded, scout_localize,
    AnalysisSession, CorrelationEngine, EngineConfig, ReportDelta, RiskModel, ScoutEngine,
    ScoutReport, Snapshot,
};
use scout::equiv::{CacheStats, EquivalenceChecker};
use scout::fabric::wire::{from_bytes, to_bytes};
use scout::fabric::{EventBatch, Fabric, FabricEvent, FabricView};
use scout::policy::{PolicyUniverse, SwitchEpgPair, SwitchId};
use scout::server::{
    Admission, AdmissionConfig, AdmissionController, ScoutServer, ServerConfig, ServerRequest,
    ServerResponse, TenantId,
};
use scout::store::{DurableEngine, DurableSession, StoreConfig, StoreStats};

use crate::drive::{query, Tally};
use crate::record::{Request, RequestKind, Tape, Workload};
use crate::spans::{Spans, NO_REQUEST};

/// Work counted at the layer boundaries of the shadow pipeline.
#[derive(Debug, Default, Clone, Copy)]
pub struct Counts {
    pub events: u64,
    pub dirty_switches: u64,
    pub rechecked_switches: u64,
    pub session_rechecked: u64,
    pub failed_marks: u64,
    pub observations: u64,
    pub hypothesis_size: u64,
    pub diagnoses: u64,
    pub session_events: u64,
    pub user_bytes: u64,
    pub snapshot_bytes: u64,
    pub snapshots: u64,
}

/// One checked tenant's shadow: the pipeline stages, a whole session, and on
/// durable workloads a journaled session.
pub struct Shadow {
    config: EngineConfig,
    correlation: CorrelationEngine,
    view: FabricView,
    checker: EquivalenceChecker,
    model: RiskModel<SwitchEpgPair>,
    report: ScoutReport,
    /// The report after each epoch no `Query` has read past yet: a queued
    /// batch lets the server's report lag the shadow's.
    reports: BTreeMap<u64, ScoutReport>,
    epoch: u64,
    session: AnalysisSession,
    session_deltas: Vec<ReportDelta>,
    durable: Option<DurableSession>,
}

impl Shadow {
    /// Builds the shadow the way `OpenSession` builds the tenant: a pristine
    /// deployment of `universe`, checked cold.
    fn open(
        spans: &mut Spans,
        engine: &ScoutEngine,
        universe: &PolicyUniverse,
        durable_dir: Option<&Path>,
    ) -> Self {
        let config = EngineConfig::default();
        let correlation = CorrelationEngine::new();
        let root = spans.open("shadow.open", None, NO_REQUEST);
        let fabric = spans.time("server.open_deploy", Some(root), NO_REQUEST, || {
            let mut fabric = Fabric::new(universe.clone());
            fabric.deploy();
            fabric
        });
        let view = spans.time("view.of", Some(root), NO_REQUEST, || {
            FabricView::of(&fabric)
        });
        let mut checker = EquivalenceChecker::with_parallelism(config.parallelism);
        checker.set_node_budget(config.node_budget);
        checker.set_node_table(config.node_table);
        let check = spans.time("equiv.cold_check", Some(root), NO_REQUEST, || {
            checker.check_network(view.logical_rules(), view.tcam())
        });
        let mut model = spans.time("risk.build", Some(root), NO_REQUEST, || {
            controller_risk_model_sharded(view.universe(), config.parallelism)
        });
        let marks = augment_controller_model_tracked(&mut model, check.missing_rules());
        let observations = model.failure_signature();
        let suspect_objects = model.suspect_set(&observations);
        let hypothesis = scout_localize(&model, view.change_log(), config.scout);
        let diagnosis = correlation.correlate(
            &hypothesis,
            view.universe(),
            view.change_log(),
            view.fault_log(),
        );
        model.undo_failures(marks);
        spans.close(root);
        let report = ScoutReport {
            check,
            observations,
            suspect_objects,
            hypothesis,
            diagnosis,
        };
        Self {
            config,
            correlation,
            view,
            checker,
            model,
            reports: BTreeMap::from([(0, report.clone())]),
            report,
            epoch: 0,
            session: engine.open_session(&fabric),
            session_deltas: Vec::new(),
            durable: durable_dir.map(|dir| {
                engine
                    .open_durable(&fabric, dir, StoreConfig::default())
                    .expect("the shadow store directory is fresh")
            }),
        }
    }

    /// One batch through the stages of `AnalysisSession::ingest`, a span on
    /// each.
    fn stages(&mut self, spans: &mut Spans, request: u32, batch: &EventBatch, counts: &mut Counts) {
        let root = spans.open("shadow", None, request);
        self.epoch = batch.epoch;
        if batch.is_empty() {
            spans.close(root);
            return;
        }
        let view = &mut self.view;
        let mut policy_changed = false;
        let dirty = spans.time("view.apply", Some(root), request, || {
            let mut dirty: BTreeSet<SwitchId> = BTreeSet::new();
            for event in &batch.events {
                policy_changed |= matches!(event, FabricEvent::PolicyUpdate { .. });
                dirty.extend(view.apply(event).expect("recorded batches apply"));
            }
            dirty
        });
        let view = &self.view;
        let check = spans.time("equiv.recheck", Some(root), request, || {
            self.checker.recheck_dirty_with(
                &self.report.check,
                view.logical_rules(),
                view.switch_set(),
                &dirty,
                |s| view.tcam_of(s),
            )
        });
        if policy_changed {
            self.model = spans.time("risk.build", Some(root), request, || {
                controller_risk_model_sharded(view.universe(), self.config.parallelism)
            });
        }
        let model = &mut self.model;
        let marks = spans.time("risk.augment", Some(root), request, || {
            augment_controller_model_tracked(model, check.missing_rules())
        });
        let failed_marks = marks.len() as u64;
        let (observations, suspect_objects, hypothesis) =
            spans.time("localize", Some(root), request, || {
                let observations = model.failure_signature();
                let suspect_objects = model.suspect_set(&observations);
                let hypothesis = scout_localize(model, view.change_log(), self.config.scout);
                (observations, suspect_objects, hypothesis)
            });
        let diagnosis = spans.time("correlate", Some(root), request, || {
            self.correlation.correlate(
                &hypothesis,
                view.universe(),
                view.change_log(),
                view.fault_log(),
            )
        });
        spans.time("risk.undo", Some(root), request, || {
            model.undo_failures(marks)
        });
        spans.close(root);

        counts.events += batch.len() as u64;
        counts.dirty_switches += dirty.len() as u64;
        counts.rechecked_switches += dirty
            .iter()
            .filter(|s| view.switch_set().contains(s))
            .count() as u64;
        counts.failed_marks += failed_marks;
        counts.observations += observations.len() as u64;
        counts.hypothesis_size += hypothesis.len() as u64;
        counts.diagnoses += diagnosis.diagnoses().len() as u64;
        self.report = ScoutReport {
            check,
            observations,
            suspect_objects,
            hypothesis,
            diagnosis,
        };
    }

    /// Feeds one recorded batch to every part of the shadow.
    fn ingest(
        &mut self,
        spans: &mut Spans,
        request: u32,
        batch: &EventBatch,
        counts: &mut Counts,
        tally: &mut Tally,
    ) {
        self.stages(spans, request, batch, counts);
        self.reports.insert(self.epoch, self.report.clone());

        let for_session = batch.clone();
        let delta = spans
            .time("session.ingest", None, request, || {
                self.session.ingest(for_session)
            })
            .expect("recorded batches ingest");
        counts.session_rechecked += delta.rechecked.len() as u64;
        self.session_deltas.push(delta);
        if *self.session.full_report() != self.report {
            tally.fail(|| {
                format!(
                    "epoch {}: shadow stages and shadow session disagree",
                    self.epoch
                )
            });
        }

        if let Some(durable) = &mut self.durable {
            let for_store = batch.clone();
            counts.user_bytes += to_bytes(batch).len() as u64;
            spans
                .time("store.append", None, request, || durable.append(for_store))
                .expect("the shadow store accepts recorded batches");
            spans
                .time("store.commit", None, request, || durable.commit())
                .expect("the shadow store commits");
        }
    }

    /// Checks a served report against the shadow's at the same epoch.
    fn check_report(&mut self, epoch: u64, served: &ScoutReport, tally: &mut Tally) {
        if self.reports.get(&epoch) != Some(served) {
            tally.fail(|| format!("epoch {epoch}: served report differs from the shadow's"));
        }
        self.reports.retain(|&e, _| e >= epoch);
    }
}

/// Everything the traced pass measured.
pub struct Traced {
    pub spans: Spans,
    pub counts: Counts,
    /// Request and response sizes per schedule entry.
    pub request_bytes: Vec<u64>,
    pub response_bytes: Vec<u64>,
    /// Which schedule entries were ingests the server parked.
    pub queued: Vec<bool>,
    pub cache: CacheStats,
    pub risk_elements: u64,
    pub risk_edges: u64,
    pub store: StoreStats,
    pub replayed_on_recover: u64,
}

fn tick_both(
    server: &mut ScoutServer,
    mirror: &mut AdmissionController,
    spans: &mut Spans,
    served: &mut BTreeMap<TenantId, Vec<ReportDelta>>,
    tally: &mut Tally,
) {
    let drained = spans.time("server.tick", None, NO_REQUEST, || server.tick());
    if mirror.tick().len() != drained.len() {
        tally.fail(|| "the admission mirror drained a different number of batches".into());
    }
    for response in drained {
        match response {
            ServerResponse::Ingested { tenant, delta } => {
                if let Some(deltas) = served.get_mut(&tenant) {
                    deltas.push(delta);
                }
            }
            other => tally.fail(|| format!("tick surfaced {other:?}")),
        }
    }
}

/// Replays the schedule closed-loop on `server` (tenants already open) with
/// spans, an admission mirror, and a shadow per checked tenant.
pub fn traced_pass(
    server: &mut ScoutServer,
    workload: &Workload,
    tape: &Tape,
    checked: &BTreeSet<TenantId>,
    shadow_root: Option<&Path>,
    tally: &mut Tally,
) -> Traced {
    let schedule = &tape.schedule;
    let mut spans = Spans::with_capacity(schedule.len() * 16 + 1024);
    let mut counts = Counts::default();
    let engine = ScoutEngine::new();
    let mut shadows: BTreeMap<TenantId, Shadow> = checked
        .iter()
        .map(|&tenant| {
            let dir = shadow_root.map(|root| root.join(format!("shadow_{tenant}")));
            let universe = &tape.tenants[tenant as usize].universe;
            (
                tenant,
                Shadow::open(&mut spans, &engine, universe, dir.as_deref()),
            )
        })
        .collect();
    let mut mirror = AdmissionController::new(AdmissionConfig::default());
    for tenant in 0..workload.tenants as TenantId {
        mirror.register(tenant);
    }
    let mut served: BTreeMap<TenantId, Vec<ReportDelta>> =
        checked.iter().map(|&t| (t, Vec::new())).collect();
    let mut request_bytes = Vec::with_capacity(schedule.len());
    let mut response_bytes = Vec::with_capacity(schedule.len());
    let mut queued = vec![false; schedule.len()];

    for (index, request) in schedule.iter().enumerate() {
        let id = index as u32;
        let root = spans.open("request", None, id);
        let decoded = spans.time("wire.decode", Some(root), id, || {
            from_bytes::<ServerRequest>(&request.bytes)
        });
        let decoded = decoded.expect("recorded requests decode");
        let response = spans.time("server.handle", Some(root), id, || server.handle(decoded));
        let reply = spans.time("wire.encode", Some(root), id, || to_bytes(&response));
        spans.close(root);
        request_bytes.push(request.bytes.len() as u64);
        response_bytes.push(reply.len() as u64);

        let batch = &tape.tenants[request.tenant as usize].epochs[request.epoch as usize - 1].batch;
        let shadow = shadows.get_mut(&request.tenant);
        match (request.kind, &response) {
            (
                RequestKind::Ingest { .. },
                ServerResponse::Ingested { .. } | ServerResponse::Queued { .. },
            ) => {
                let offered = batch.clone();
                let verdict = spans.time("admission.offer", None, id, || {
                    mirror.offer(request.tenant, offered)
                });
                let agrees = match (&verdict, &response) {
                    (Admission::Admit(_), ServerResponse::Ingested { delta, .. }) => {
                        delta.epoch == request.epoch
                    }
                    (Admission::Queued { depth }, ServerResponse::Queued { depth: served, .. }) => {
                        *depth as u64 == *served
                    }
                    _ => false,
                };
                tally.check(agrees, || {
                    format!("request {index}: server said {response:?}, the mirror {verdict:?}")
                });
                match response {
                    ServerResponse::Ingested { tenant, delta } => {
                        if let Some(deltas) = served.get_mut(&tenant) {
                            deltas.push(delta);
                        }
                    }
                    _ => queued[index] = true,
                }
                if let Some(shadow) = shadow {
                    shadow.ingest(&mut spans, id, batch, &mut counts, tally);
                }
            }
            (RequestKind::Query, ServerResponse::Report { epoch, report, .. }) => {
                tally.check(*epoch <= request.epoch, || {
                    format!("request {index}: report from the future")
                });
                if let Some(shadow) = shadow {
                    shadow.check_report(*epoch, report, tally);
                }
            }
            (RequestKind::Checkpoint, ServerResponse::Checkpointed { .. }) => {
                tally.check(true, String::new);
                if let Some(shadow) = shadow {
                    let snapshot = spans.time("snapshot.checkpoint", None, id, || {
                        shadow.session.checkpoint().to_bytes()
                    });
                    counts.snapshot_bytes += snapshot.len() as u64;
                    counts.snapshots += 1;
                    if let Some(durable) = &mut shadow.durable {
                        spans
                            .time("store.commit", None, id, || durable.commit())
                            .expect("the shadow store commits");
                    }
                }
            }
            _ => tally.check(false, || {
                format!("request {index} ({:?}): {response:?}", request.kind)
            }),
        }
        if (index + 1) % workload.tick_every == 0 {
            tick_both(server, &mut mirror, &mut spans, &mut served, tally);
        }
    }
    while mirror.total_queued() > 0 {
        tick_both(server, &mut mirror, &mut spans, &mut served, tally);
    }

    // The end state: served deltas and reports against the shadow's, one
    // checkpoint/restore round trip per shadow, and the store's counters.
    let mut traced = Traced {
        counts,
        request_bytes,
        response_bytes,
        queued,
        cache: CacheStats::default(),
        risk_elements: 0,
        risk_edges: 0,
        store: StoreStats::default(),
        replayed_on_recover: 0,
        spans,
    };
    for (&tenant, shadow) in &mut shadows {
        if served[&tenant] != shadow.session_deltas {
            tally.fail(|| {
                format!("tenant {tenant}: served deltas differ from the shadow session's")
            });
        }
        if let Some((epoch, report)) = query(server, tenant, tally) {
            shadow.check_report(epoch, &report, tally);
        }
        let bytes = traced
            .spans
            .time("snapshot.checkpoint", None, NO_REQUEST, || {
                shadow.session.checkpoint().to_bytes()
            });
        traced.counts.snapshot_bytes += bytes.len() as u64;
        traced.counts.snapshots += 1;
        let restored = traced.spans.time("snapshot.restore", None, NO_REQUEST, || {
            let snapshot = Snapshot::from_bytes(&bytes).expect("a fresh snapshot decodes");
            engine
                .restore(&snapshot)
                .expect("a checkpoint has no tail to fail on")
        });
        if *restored.full_report() != shadow.report {
            tally.fail(|| format!("tenant {tenant}: restored session differs from the shadow"));
        }

        let cache = shadow.checker.cache_stats();
        traced.cache.hits += cache.hits;
        traced.cache.misses += cache.misses;
        traced.cache.evictions += cache.evictions;
        traced.risk_elements += shadow.model.element_count() as u64;
        traced.risk_edges += shadow.model.edge_count() as u64;
        traced.counts.session_events += shadow.session.stats().events as u64;

        if let Some(durable) = shadow.durable.take() {
            let stats = *durable.store_stats();
            let dir = durable.dir().to_path_buf();
            drop(durable);
            let recovered = traced
                .spans
                .time("store.recover", None, NO_REQUEST, || {
                    engine.recover(&dir, StoreConfig::default())
                })
                .expect("the shadow store recovers");
            if *recovered.full_report() != shadow.report {
                tally.fail(|| format!("tenant {tenant}: recovered store differs from the shadow"));
            }
            traced.replayed_on_recover += recovered.store_stats().replayed_on_recover;
            let total = &mut traced.store;
            total.appends += stats.appends;
            total.commits += stats.commits;
            total.syncs += stats.syncs;
            total.segments_rolled += stats.segments_rolled;
            total.segments_removed += stats.segments_removed;
            total.anchors_written += stats.anchors_written;
            total.bytes_appended += stats.bytes_appended;
        }
    }
    traced
}

/// Closed-loop replay on two serving threads, each with its own
/// `ScoutServer` and half the tenants, both on one engine: what a second
/// serving thread adds. Returns requests per wall-clock second.
pub fn two_thread_capacity(
    workload: &Workload,
    tape: &Tape,
    store_root: Option<&Path>,
    tally: &mut Tally,
) -> f64 {
    let engine = ScoutEngine::new();
    let barrier = std::sync::Barrier::new(2);
    /// One serving thread's share: when it ran, and what it answered.
    struct Half {
        start: Instant,
        end: Instant,
        replies: Vec<Vec<u8>>,
    }
    let halves: Vec<Half> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..2u64)
            .map(|half| {
                let engine = engine.clone();
                let barrier = &barrier;
                scope.spawn(move || {
                    let config = match store_root {
                        Some(root) => ServerConfig::durable(
                            AdmissionConfig::default(),
                            root.join(format!("two_threads_{half}")),
                            StoreConfig::default(),
                        ),
                        None => ServerConfig::default(),
                    };
                    let mut server = ScoutServer::new(engine, config);
                    for bytes in tape.opens.iter().skip(half as usize).step_by(2) {
                        server.handle_bytes(bytes);
                    }
                    let mine: Vec<&Request> = tape
                        .schedule
                        .iter()
                        .filter(|r| r.tenant % 2 == half)
                        .collect();
                    let mut replies = Vec::with_capacity(mine.len());
                    barrier.wait();
                    let start = Instant::now();
                    for (sent, request) in mine.iter().enumerate() {
                        replies.push(server.handle_bytes(&request.bytes));
                        // Half the tenants, so half the requests per tick.
                        if (sent + 1) % (workload.tick_every / 2).max(1) == 0 {
                            server.tick();
                        }
                    }
                    Half {
                        start,
                        end: Instant::now(),
                        replies,
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("serving thread panicked"))
            .collect()
    });
    let start = halves.iter().map(|h| h.start).min().expect("two threads");
    let end = halves.iter().map(|h| h.end).max().expect("two threads");
    for reply in halves.iter().flat_map(|h| &h.replies) {
        let response = from_bytes::<ServerResponse>(reply);
        let ok = !matches!(response, Err(_) | Ok(ServerResponse::Error(_)));
        tally.check(ok, || format!("two-thread pass: {response:?}"));
    }
    tape.schedule.len() as f64 / (end - start).as_secs_f64()
}
