//! The repo's benchmark: paced wire-level replay over four workloads, with a
//! separate traced run for the per-layer numbers, and a `compare` mode that
//! judges two sets of results by the bounds in `BENCHMARK.json`.
//!
//! ```text
//! scout-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out <dir>]
//! scout-benchmark compare <base dir> <new dir>
//! ```
//!
//! See `README.md` beside this package for the workloads, the metrics and
//! how they interact.

mod compare;
mod drive;
mod host;
mod json;
mod metrics;
mod record;
mod spans;
mod stats;
mod trace;

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scout::core::{ScoutEngine, ScoutReport};
use scout::server::{AdmissionConfig, ScoutServer, ServerConfig, TenantId};
use scout::store::StoreConfig;

use drive::{open_tenants, paced_pass, query, verify, Pass, Tally};
use json::{num, obj, str, Json};
use metrics::{Values, END_TO_END, PER_LAYER};
use record::{EpochKind, Request, RequestKind, Tape, Workload};
use spans::Spans;
use stats::{median, percentile, samples_beyond, supported_tail};
use trace::Traced;

const USAGE: &str = "usage: scout-benchmark --workload <name> --seed <n> --seconds <s> \
                     --trace <0|1> [--out <dir>]\n       scout-benchmark compare <base dir> <new dir>";

struct Options {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    out: PathBuf,
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut flags: BTreeMap<&str, &str> = BTreeMap::new();
    for pair in args.chunks(2) {
        match pair {
            [flag, value] if flag.starts_with("--") => flags.insert(&flag[2..], value),
            _ => return Err(format!("expected --flag value pairs, got {pair:?}")),
        };
    }
    let mut take = |flag: &str| {
        flags
            .remove(flag)
            .ok_or_else(|| format!("--{flag} is required"))
    };
    let name = take("workload")?;
    let options = Options {
        workload: record::workloads()
            .into_iter()
            .find(|w| w.name == name)
            .ok_or_else(|| format!("unknown workload {name}"))?,
        seed: take("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
        seconds: take("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?,
        trace: match take("trace")? {
            "0" => false,
            "1" => true,
            other => return Err(format!("--trace is 0 or 1, not {other}")),
        },
        out: PathBuf::from(flags.remove("out").unwrap_or("benchmark/out")),
    };
    if options.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    match flags.keys().next() {
        Some(unknown) => Err(format!("unknown flag --{unknown}")),
        None => Ok(options),
    }
}

/// How many tenants the oracle replays and the traced run shadows.
const CHECKED_TENANTS: usize = 8;

/// Each tenant is opened this many times (closed in between) during set-up;
/// the paced pass runs on the last round.
const OPEN_ROUNDS: usize = 3;

/// The tenants the oracle replays and the traced run shadows: a seeded
/// sample, or every tenant of a small workload.
fn checked_tenants(workload: &Workload, seed: u64) -> BTreeSet<TenantId> {
    let mut tenants: Vec<TenantId> = (0..workload.tenants as TenantId).collect();
    tenants.shuffle(&mut StdRng::seed_from_u64(seed ^ 0x0C4E_C4ED));
    tenants.into_iter().take(CHECKED_TENANTS).collect()
}

fn server_config(workload: &Workload, store_root: &Path, name: &str) -> ServerConfig {
    if workload.durable {
        ServerConfig::durable(
            AdmissionConfig::default(),
            store_root.join(name),
            StoreConfig::default(),
        )
    } else {
        ServerConfig::default()
    }
}

/// One field of the pass's samples, in `scale` units, over the schedule
/// entries `keep` selects.
fn sampled(
    tape: &Tape,
    pass: &Pass,
    keep: impl Fn(&Request) -> bool,
    field: impl Fn(&drive::Sample) -> u64,
    scale: f64,
) -> Vec<f64> {
    tape.schedule
        .iter()
        .zip(&pass.samples)
        .filter(|(request, _)| keep(request))
        .map(|(_, sample)| field(sample) as f64 / scale)
        .collect()
}

/// The percentile of `ingest_tail_ms`, on every workload. Not the highest
/// the sample supports: over ten runs the fleets' p99 spread reached 22 % on
/// the builder's host, within a hair of the largest bound the harness
/// accepts, so the bounded tail is p90 and the highest supported percentile is
/// reported per layer, unbounded, as `server.ingest_tail_ms`. On `fabric_1k`
/// p90 sits in the 50-switch-front mass and on `paper_cluster` in the
/// policy-edit mass; the paper cluster affords ~21 ingests a run, so no
/// percentile there has ten samples beyond it.
const TAIL_PERCENTILE: f64 = 90.0;

const MS: f64 = 1e6;
const US: f64 = 1e3;

/// Requests ÷ busy seconds: what one serving thread sustains on this mix.
fn capacity_rps(tape: &Tape, pass: &Pass) -> f64 {
    tape.schedule.len() as f64 / (pass.busy_ns as f64 / 1e9)
}

/// The end-to-end metrics, all from the untraced paced pass.
fn end_to_end(tape: &Tape, pass: &Pass, setup_s: f64, peak_rss_mb: f64) -> Values {
    let mut values = Values::default();
    let service =
        |keep: fn(&Request) -> bool, scale| sampled(tape, pass, keep, |s| s.service, scale);
    let ingests = service(Request::non_empty, MS);
    values.set("setup_s", setup_s);
    values.set("ingest_p50_ms", median(&ingests));
    values.set("ingest_tail_ms", percentile(&ingests, TAIL_PERCENTILE));
    values.set("policy_p50_ms", median(&service(Request::policy, MS)));
    values.set("capacity_rps", capacity_rps(tape, pass));
    values.set("peak_rss_mb", peak_rss_mb);
    values
}

/// Span durations in nanoseconds by causing request, summed where one
/// request has several spans of the name.
fn by_request(spans: &Spans, name: &str) -> BTreeMap<u32, f64> {
    let mut durations = BTreeMap::new();
    for span in spans.iter().filter(|s| s.name == name) {
        *durations.entry(span.request).or_insert(0.0) += span.duration() as f64;
    }
    durations
}

/// What the untraced paced pass of a traced run contributes.
struct PacedLayers<'a> {
    pass: &'a Pass,
    open_ms: &'a [f64],
    gauges: scout::core::ServiceStats,
    recover_ms: &'a [f64],
    capacity_rps_2t: f64,
}

/// The per-layer metrics: spans and counts from the traced pass, queueing
/// and pacing numbers from the untraced pass that ran before it.
fn per_layer(workload: &Workload, tape: &Tape, paced: &PacedLayers, traced: &Traced) -> Values {
    let schedule = &tape.schedule;
    let spans = &traced.spans;
    let kind_of = |request: u32| schedule.get(request as usize);
    // Durations of `name`, in `scale` units, over requests `keep` selects
    // (`None`: a set-up span).
    let spanned = |name: &str, scale: f64, keep: &dyn Fn(Option<&Request>) -> bool| -> Vec<f64> {
        spans
            .iter()
            .filter(|s| s.name == name && keep(kind_of(s.request)))
            .map(|s| s.duration() as f64 / scale)
            .collect()
    };
    let any = |_: Option<&Request>| true;
    let busy = |r: Option<&Request>| r.is_some_and(Request::non_empty);
    let of_kind = |kinds: &'static [EpochKind]| {
        move |r: Option<&Request>| r.is_some_and(|r| r.of_kind(kinds))
    };
    let single = of_kind(&[EpochKind::Single, EpochKind::Repair]);
    let policy = |r: Option<&Request>| r.is_some_and(Request::policy);
    let mean = |values: &[u64]| values.iter().sum::<u64>() as f64 / values.len().max(1) as f64;
    let total = |name: &str, keep: &dyn Fn(Option<&Request>) -> bool| -> f64 {
        spanned(name, 1.0, keep).iter().sum()
    };
    // Per-request pairings.
    let handle = by_request(spans, "server.handle");
    let shadow = by_request(spans, "shadow");
    let session = by_request(spans, "session.ingest");
    let paired = |left: &BTreeMap<u32, f64>, right: &BTreeMap<u32, f64>, scale: f64| -> Vec<f64> {
        left.iter()
            .filter(|(request, _)| kind_of(**request).is_some_and(Request::non_empty))
            .filter(|(request, _)| !traced.queued[**request as usize])
            .filter_map(|(request, l)| right.get(request).map(|r| (l - r) / scale))
            .collect()
    };

    let mut v = Values::default();
    v.set("wire.decode_us", median(&spanned("wire.decode", US, &any)));
    v.set("wire.encode_us", median(&spanned("wire.encode", US, &any)));
    v.set("wire.req_bytes", mean(&traced.request_bytes));
    v.set("wire.resp_bytes", mean(&traced.response_bytes));
    let query_bytes: Vec<u64> = schedule
        .iter()
        .zip(&traced.response_bytes)
        .filter(|(r, _)| r.kind == RequestKind::Query)
        .map(|(_, &bytes)| bytes)
        .collect();
    v.set("wire.query_resp_bytes", mean(&query_bytes));

    let waits: Vec<f64> = paced
        .pass
        .samples
        .iter()
        .filter_map(|s| s.queued_wait.map(|w| w as f64 / MS))
        .collect();
    v.set(
        "admission.offer_us",
        median(&spanned("admission.offer", US, &any)),
    );
    v.set("admission.admitted", paced.gauges.admitted as f64);
    v.set("admission.queued", waits.len() as f64);
    v.set("admission.shed", paced.gauges.shed as f64);
    v.set("admission.queue_peak", paced.gauges.queue_peak as f64);
    v.set("admission.queued_wait_ms", median(&waits));

    let tick_us: Vec<f64> = paced.pass.tick_ns.iter().map(|&t| t as f64 / US).collect();
    let last_round = &paced.open_ms[paced.open_ms.len() - workload.tenants..];
    let (distinct, shared) = last_round.split_at(workload.distinct_universes);
    v.set(
        "server.handle_us",
        median(&spanned("server.handle", US, &busy)),
    );
    v.set("server.overhead_us", median(&paired(&handle, &session, US)));
    v.set("server.tick_us", median(&tick_us));
    v.set("server.open_ms", median(paced.open_ms));
    v.set(
        "server.open_deploy_ms",
        median(&spanned("server.open_deploy", MS, &any)),
    );
    v.set("server.open_distinct_ms", median(distinct));
    v.set("server.open_shared_ms", median(shared));
    // The highest percentile with ten samples beyond it, where one exists.
    let ingest_ms = sampled(tape, paced.pass, Request::non_empty, |s| s.service, MS);
    let tail = supported_tail(ingest_ms.len()).unwrap_or(TAIL_PERCENTILE);
    v.set("server.ingest_tail_ms", percentile(&ingest_ms, tail));
    let paced_ms = sampled(tape, paced.pass, Request::non_empty, |s| s.response, MS);
    v.set("server.paced_p50_ms", median(&paced_ms));
    v.set("server.paced_tail_ms", percentile(&paced_ms, tail));
    v.set("server.backlog_max", paced.pass.backlog_max as f64);
    v.set(
        "server.generator_late_p99_ms",
        percentile(&sampled(tape, paced.pass, |_| true, |s| s.late, MS), 99.0),
    );
    v.set(
        "server.query_p50_us",
        median(&sampled(
            tape,
            paced.pass,
            |r| r.kind == RequestKind::Query,
            |s| s.service,
            US,
        )),
    );
    v.set("server.capacity_rps_2t", paced.capacity_rps_2t);
    v.set(
        "server.scaling_ratio",
        paced.capacity_rps_2t / capacity_rps(tape, paced.pass),
    );

    let session_us = spanned("session.ingest", US, &busy);
    v.set("session.ingest_us", median(&session_us));
    v.set(
        "session.single_p50_ms",
        median(&spanned("session.ingest", MS, &single)),
    );
    v.set(
        "session.front_p50_ms",
        median(&spanned(
            "session.ingest",
            MS,
            &of_kind(&[EpochKind::Front]),
        )),
    );
    v.set(
        "session.policy_p50_ms",
        median(&spanned("session.ingest", MS, &policy)),
    );
    v.set(
        "session.empty_p50_us",
        median(&spanned("session.ingest", US, &|r| {
            r.is_some_and(Request::empty_ingest)
        })),
    );
    v.set(
        "session.residual_us",
        median(&paired(&session, &shadow, US)),
    );
    v.set("session.events", traced.counts.session_events as f64);
    v.set(
        "session.rechecked_switches",
        traced.counts.session_rechecked as f64,
    );

    v.set("view.apply_us", median(&spanned("view.apply", US, &busy)));
    v.set(
        "view.policy_apply_ms",
        median(&spanned("view.apply", MS, &policy)),
    );
    v.set("view.events", traced.counts.events as f64);
    v.set("view.dirty_switches", traced.counts.dirty_switches as f64);

    let single_total = total("shadow", &single).max(1.0);
    v.set(
        "equiv.recheck_us",
        median(&spanned("equiv.recheck", US, &busy)),
    );
    v.set(
        "equiv.cold_check_ms",
        median(&spanned("equiv.cold_check", MS, &any)),
    );
    v.set(
        "equiv.rechecked_switches",
        traced.counts.rechecked_switches as f64,
    );
    v.set(
        "equiv.share",
        total("equiv.recheck", &single) / single_total,
    );

    let lookups = (traced.cache.hits + traced.cache.misses).max(1);
    v.set("bdd.cache_hits", traced.cache.hits as f64);
    v.set("bdd.cache_misses", traced.cache.misses as f64);
    v.set("bdd.cache_evictions", traced.cache.evictions as f64);
    v.set("bdd.hit_ratio", traced.cache.hits as f64 / lookups as f64);

    let augment = by_request(spans, "risk.augment");
    let undo = by_request(spans, "risk.undo");
    let augment_us: Vec<f64> = augment
        .iter()
        .map(|(request, a)| (a + undo.get(request).copied().unwrap_or(0.0)) / US)
        .collect();
    v.set("risk.build_ms", median(&spanned("risk.build", MS, &any)));
    v.set("risk.augment_us", median(&augment_us));
    v.set("risk.elements", traced.risk_elements as f64);
    v.set("risk.edges", traced.risk_edges as f64);
    v.set("risk.failed_marks", traced.counts.failed_marks as f64);

    v.set("localize.us", median(&spanned("localize", US, &busy)));
    v.set("localize.share", total("localize", &single) / single_total);
    v.set("localize.observations", traced.counts.observations as f64);
    v.set(
        "localize.hypothesis_size",
        traced.counts.hypothesis_size as f64,
    );
    v.set("correlate.us", median(&spanned("correlate", US, &busy)));
    v.set("correlate.diagnoses", traced.counts.diagnoses as f64);

    v.set(
        "snapshot.checkpoint_ms",
        median(&spanned("snapshot.checkpoint", MS, &any)),
    );
    v.set(
        "snapshot.bytes",
        traced.counts.snapshot_bytes as f64 / traced.counts.snapshots.max(1) as f64,
    );
    v.set(
        "snapshot.restore_ms",
        median(&spanned("snapshot.restore", MS, &any)),
    );

    // The store's own time: a journaled ingest minus the session ingest it
    // wraps, which the shadow session measured on the same batches.
    let in_store = total("store.append", &any) + total("store.commit", &any);
    let wrapped: f64 = by_request(spans, "store.append")
        .keys()
        .filter_map(|request| session.get(request))
        .sum();
    v.set(
        "store.append_us",
        median(&spanned("store.append", US, &any)),
    );
    v.set(
        "store.commit_us",
        median(&spanned("store.commit", US, &any)),
    );
    v.set("store.self_share", (in_store - wrapped) / in_store.max(1.0));
    v.set("store.syncs", traced.store.syncs as f64);
    v.set("store.bytes_appended", traced.store.bytes_appended as f64);
    v.set(
        "store.bytes_per_user_byte",
        traced.store.bytes_appended as f64 / traced.counts.user_bytes.max(1) as f64,
    );
    v.set("store.anchors_written", traced.store.anchors_written as f64);
    v.set("store.segments_rolled", traced.store.segments_rolled as f64);
    v.set(
        "store.segments_removed",
        traced.store.segments_removed as f64,
    );
    v.set("store.recover_ms", median(paced.recover_ms));
    v.set(
        "store.replayed_on_recover",
        traced.replayed_on_recover as f64,
    );

    v.set(
        "trace.overhead_ratio",
        median(&spanned("request", MS, &busy)) / median(&ingest_ms),
    );
    v.set(
        "trace.reconcile_ratio",
        median(&spanned("shadow", US, &busy)) / median(&session_us).max(f64::MIN_POSITIVE),
    );
    v
}

/// On a durable workload: drops the serving node and lets a second one on the
/// same store root adopt the checked tenants, which must then report exactly
/// what they reported before the hand-over. Returns the adoption times (ms).
fn hand_over(
    server: ScoutServer,
    config: ServerConfig,
    served: &BTreeMap<TenantId, ScoutReport>,
    tally: &mut Tally,
) -> Vec<f64> {
    drop(server);
    let mut successor = ScoutServer::new(ScoutEngine::new(), config);
    let mut recover_ms = Vec::new();
    for (&tenant, before) in served {
        let start = Instant::now();
        let adopted = successor.adopt(tenant);
        recover_ms.push(start.elapsed().as_secs_f64() * 1e3);
        tally.check(adopted.is_ok(), || {
            format!("adoption of tenant {tenant}: {adopted:?}")
        });
        if let Some((_, after)) = query(&mut successor, tenant, tally) {
            if after != *before {
                tally.fail(|| format!("tenant {tenant} reports differently after the hand-over"));
            }
        }
    }
    recover_ms
}

fn run(start: Instant, options: &Options) -> std::io::Result<bool> {
    let Options {
        workload,
        seed,
        seconds,
        trace,
        out,
    } = options;
    std::fs::create_dir_all(out)?;
    let store_root = out.join(format!(
        "store-{}-{seed}-{}",
        workload.name,
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&store_root);

    // Set-up: everything up to the first paced request.
    let tape = record::record(workload, *seed, *seconds);
    let checked = checked_tenants(workload, *seed);
    let mut tally = Tally::default();
    let config = server_config(workload, &store_root, "paced");
    let mut server = ScoutServer::new(ScoutEngine::new(), config.clone());
    // Process start to a server ready for its first request, the repeated
    // part (one round of opens) at its median. The traced run opens once: its
    // numbers do not include set-up time.
    let recorded_s = start.elapsed().as_secs_f64();
    let rounds = if *trace { 1 } else { OPEN_ROUNDS };
    let opens = open_tenants(&mut server, &tape, rounds, &mut tally);
    let setup_s = recorded_s + median(&opens.round_s);
    let open_ms = opens.open_ms;

    let pass = paced_pass(&mut server, workload, &tape.schedule, &checked, &mut tally);
    // Before the oracle runs: its from-scratch analyses are not the server's
    // memory.
    let peak_rss_mb = host::peak_rss_mib();
    let gauges = server.engine().gauges().snapshot();
    let served = verify(&mut server, workload, &tape, &pass, &mut tally);
    let recover_ms = if workload.durable {
        hand_over(server, config, &served, &mut tally)
    } else {
        Vec::new()
    };

    let (declared, values) = if *trace {
        let mut second = ScoutServer::new(
            ScoutEngine::new(),
            server_config(workload, &store_root, "traced"),
        );
        open_tenants(&mut second, &tape, 1, &mut tally);
        let shadow_root = workload.durable.then_some(store_root.as_path());
        let traced = trace::traced_pass(
            &mut second,
            workload,
            &tape,
            &checked,
            shadow_root,
            &mut tally,
        );
        drop(second);
        let parallel = std::thread::available_parallelism().map_or(1, usize::from);
        let capacity_rps_2t = if workload.tenants >= 2 && parallel >= 2 {
            trace::two_thread_capacity(workload, &tape, shadow_root, &mut tally)
        } else {
            0.0
        };
        let spans_path = out.join(format!("spans-{}-seed{seed}.tsv", workload.name));
        traced.spans.write(&spans_path)?;
        let paced = PacedLayers {
            pass: &pass,
            open_ms: &open_ms,
            gauges,
            recover_ms: &recover_ms,
            capacity_rps_2t,
        };
        (&PER_LAYER[..], per_layer(workload, &tape, &paced, &traced))
    } else {
        (
            &END_TO_END[..],
            end_to_end(&tape, &pass, setup_s, peak_rss_mb),
        )
    };
    let _ = std::fs::remove_dir_all(&store_root);

    let correct = tally.failed == 0;
    let ingest_samples = tape.schedule.iter().filter(|r| r.non_empty()).count();
    let result = obj([
        ("correct", Json::Bool(correct)),
        ("attempted", num(tally.attempted as f64)),
        ("failed", num(tally.failed as f64)),
        ("metrics", values.render(declared)),
    ]);
    let context = obj([
        ("workload", str(workload.name)),
        ("seed", num(*seed as f64)),
        ("seconds", num(*seconds as f64)),
        ("trace", num(u8::from(*trace))),
        ("requests", num(tape.schedule.len() as f64)),
        ("rate_rps", num(workload.rate)),
        (
            "epochs_per_tenant",
            num(tape.tenants[0].epochs.len() as f64),
        ),
        ("tail_percentile", num(TAIL_PERCENTILE)),
        ("ingest_samples", num(ingest_samples as f64)),
        (
            "tail_samples_beyond",
            num(samples_beyond(ingest_samples, TAIL_PERCENTILE) as f64),
        ),
        (
            "tail_percentile_supported",
            supported_tail(ingest_samples).map_or(Json::Null, num),
        ),
        (
            "utilisation",
            num(pass.busy_ns as f64 / 1e9 / (tape.schedule.len() as f64 / workload.rate)),
        ),
        ("input_sha256", str(tape.digest.clone())),
        ("host", host::block(out)),
    ]);

    for metric in declared {
        let value = values.get(metric.name);
        println!("{:<32} {value:>16.4} {}", metric.name, metric.unit);
    }
    println!("{}", context.render());
    let file = out.join(format!(
        "result-{}-seed{seed}-trace{}.json",
        workload.name,
        u8::from(*trace)
    ));
    std::fs::write(
        &file,
        format!(
            "{{\"context\": {}, \"result\": {}}}\n",
            context.render(),
            result.render()
        ),
    )?;
    // The contract's result line: last on standard output.
    println!("{}", result.render());
    Ok(correct)
}

fn main() -> ExitCode {
    let start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().is_some_and(|a| a == "compare") {
        return compare::main(&args[1..]);
    }
    let options = match parse(&args) {
        Ok(options) => options,
        Err(error) => {
            eprintln!("{error}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(start, &options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(error) => {
            eprintln!("{}: {error}", options.out.display());
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repo root, parsed.
    fn declaration() -> Json {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json exists")).unwrap()
    }

    fn declared(section: &str) -> Vec<(String, String, String)> {
        let text = |entry: &Json, key: &str| entry.get(key).unwrap().as_str().unwrap().to_string();
        declaration()
            .get(section)
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit"), text(m, "better")))
            .collect()
    }

    fn emitted(metrics: &[metrics::Metric]) -> Vec<(String, String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.into(), m.unit.into(), m.better.into()))
            .collect()
    }

    #[test]
    fn benchmark_json_declares_what_the_run_emits() {
        assert_eq!(declared("end_to_end"), emitted(&END_TO_END));
        assert_eq!(declared("per_layer"), emitted(&PER_LAYER));
        let names: Vec<String> = declaration()
            .get("workloads")
            .unwrap()
            .as_arr()
            .unwrap()
            .iter()
            .map(|w| w.get("name").unwrap().as_str().unwrap().to_string())
            .collect();
        // Every gated workload exists, in the order the run table lists it.
        // (`paper_cluster` runs but is not gated: see the README.)
        let known: Vec<&str> = record::workloads()
            .iter()
            .map(|w| w.name)
            .filter(|name| names.iter().any(|n| n == name))
            .collect();
        assert_eq!(names, known);
    }

    /// A short real run of each mode emits exactly the declared metrics, in
    /// order, and passes its own oracle.
    #[test]
    fn a_run_emits_exactly_the_declared_metrics_in_order() {
        let out =
            Path::new(env!("CARGO_MANIFEST_DIR")).join(format!("out/test-{}", std::process::id()));
        let workload = Workload {
            tenants: 8,
            distinct_universes: 4,
            ..record::workloads()[1]
        };
        for (trace, metrics) in [(false, &END_TO_END[..]), (true, &PER_LAYER[..])] {
            let options = Options {
                workload,
                seed: 5,
                seconds: 2,
                trace,
                out: out.clone(),
            };
            assert!(
                run(Instant::now(), &options).unwrap(),
                "the run's oracle failed"
            );
            let file = out.join(format!(
                "result-fleet_durable-seed5-trace{}.json",
                u8::from(trace)
            ));
            let written = Json::parse(&std::fs::read_to_string(file).unwrap()).unwrap();
            let result = written.get("result").unwrap();
            let keys: Vec<&str> = result
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
            let names: Vec<&str> = result
                .get("metrics")
                .unwrap()
                .as_obj()
                .unwrap()
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            assert_eq!(names, metrics.iter().map(|m| m.name).collect::<Vec<_>>());
        }
        std::fs::remove_dir_all(out).unwrap();
    }

    #[test]
    fn flags_are_all_required_and_checked() {
        let args = |text: &str| {
            text.split_whitespace()
                .map(String::from)
                .collect::<Vec<_>>()
        };
        assert!(parse(&args(
            "--workload fleet_mem --seed 1 --seconds 10 --trace 0"
        ))
        .is_ok());
        assert!(parse(&args("--workload fleet_mem --seconds 10 --trace 0")).is_err());
        assert!(parse(&args("--workload nope --seed 1 --seconds 10 --trace 0")).is_err());
        assert!(parse(&args(
            "--workload fleet_mem --seed 1 --seconds 10 --trace 2"
        ))
        .is_err());
        assert!(parse(&args(
            "--workload fleet_mem --seed 1 --seconds 10 --trace 0 --x 1"
        ))
        .is_err());
    }

    #[test]
    fn checked_tenants_are_a_seeded_sample() {
        let workload = record::workloads()[0];
        let sample = checked_tenants(&workload, 3);
        assert_eq!(sample.len(), CHECKED_TENANTS);
        assert_eq!(sample, checked_tenants(&workload, 3));
        assert_ne!(sample, checked_tenants(&workload, 4));
    }
}
