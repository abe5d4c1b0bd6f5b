//! The metrics a run emits: name, unit and direction, in the order
//! `BENCHMARK.json` declares them (a unit test holds the two in step).

use std::collections::BTreeMap;

use crate::json::{num, obj, str, Json};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "lower",
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: "higher",
    }
}

/// What a user of the serving layer sees; measured with tracing off.
pub const END_TO_END: [Metric; 6] = [
    lower("setup_s", "s"),
    lower("ingest_p50_ms", "ms"),
    lower("ingest_tail_ms", "ms"),
    lower("policy_p50_ms", "ms"),
    higher("capacity_rps", "1/s"),
    lower("peak_rss_mb", "MiB"),
];

/// Single layers (layer = module name); measured by the traced run.
pub const PER_LAYER: [Metric; 73] = [
    lower("wire.decode_us", "us"),
    lower("wire.encode_us", "us"),
    lower("wire.req_bytes", "B"),
    lower("wire.resp_bytes", "B"),
    lower("wire.query_resp_bytes", "B"),
    lower("admission.offer_us", "us"),
    higher("admission.admitted", "count"),
    lower("admission.queued", "count"),
    lower("admission.shed", "count"),
    lower("admission.queue_peak", "count"),
    lower("admission.queued_wait_ms", "ms"),
    lower("server.handle_us", "us"),
    lower("server.overhead_us", "us"),
    lower("server.tick_us", "us"),
    lower("server.open_ms", "ms"),
    lower("server.open_deploy_ms", "ms"),
    lower("server.open_distinct_ms", "ms"),
    lower("server.open_shared_ms", "ms"),
    lower("server.ingest_tail_ms", "ms"),
    lower("server.paced_p50_ms", "ms"),
    lower("server.paced_tail_ms", "ms"),
    lower("server.backlog_max", "count"),
    lower("server.generator_late_p99_ms", "ms"),
    lower("server.query_p50_us", "us"),
    higher("server.capacity_rps_2t", "1/s"),
    higher("server.scaling_ratio", "ratio"),
    lower("session.ingest_us", "us"),
    lower("session.single_p50_ms", "ms"),
    lower("session.front_p50_ms", "ms"),
    lower("session.policy_p50_ms", "ms"),
    lower("session.empty_p50_us", "us"),
    lower("session.residual_us", "us"),
    lower("session.events", "count"),
    lower("session.rechecked_switches", "count"),
    lower("view.apply_us", "us"),
    lower("view.policy_apply_ms", "ms"),
    lower("view.events", "count"),
    lower("view.dirty_switches", "count"),
    lower("equiv.recheck_us", "us"),
    lower("equiv.cold_check_ms", "ms"),
    lower("equiv.rechecked_switches", "count"),
    lower("equiv.share", "ratio"),
    higher("bdd.cache_hits", "count"),
    lower("bdd.cache_misses", "count"),
    lower("bdd.cache_evictions", "count"),
    higher("bdd.hit_ratio", "ratio"),
    lower("risk.build_ms", "ms"),
    lower("risk.augment_us", "us"),
    lower("risk.elements", "count"),
    lower("risk.edges", "count"),
    lower("risk.failed_marks", "count"),
    lower("localize.us", "us"),
    lower("localize.share", "ratio"),
    lower("localize.observations", "count"),
    lower("localize.hypothesis_size", "count"),
    lower("correlate.us", "us"),
    lower("correlate.diagnoses", "count"),
    lower("snapshot.checkpoint_ms", "ms"),
    lower("snapshot.bytes", "B"),
    lower("snapshot.restore_ms", "ms"),
    lower("store.append_us", "us"),
    lower("store.commit_us", "us"),
    lower("store.self_share", "ratio"),
    lower("store.syncs", "count"),
    lower("store.bytes_appended", "B"),
    lower("store.bytes_per_user_byte", "ratio"),
    lower("store.anchors_written", "count"),
    lower("store.segments_rolled", "count"),
    lower("store.segments_removed", "count"),
    lower("store.recover_ms", "ms"),
    lower("store.replayed_on_recover", "count"),
    lower("trace.overhead_ratio", "ratio"),
    higher("trace.reconcile_ratio", "ratio"),
];

/// Measured values by metric name.
#[derive(Default)]
pub struct Values(BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        let fresh = self.0.insert(name, value).is_none();
        assert!(fresh, "metric {name} set twice");
    }

    /// The value measured for `name`.
    ///
    /// # Panics
    ///
    /// Panics if the metric was not measured.
    pub fn get(&self, name: &str) -> f64 {
        *self
            .0
            .get(name)
            .unwrap_or_else(|| panic!("metric {name} was not measured"))
    }

    /// The `metrics` object of a result: exactly the `declared` metrics, in
    /// declaration order.
    ///
    /// # Panics
    ///
    /// Panics if a declared metric was not measured or an undeclared one was.
    pub fn render(&self, declared: &[Metric]) -> Json {
        assert_eq!(
            self.0.len(),
            declared.len(),
            "measured metrics differ from the declared ones"
        );
        Json::Obj(
            declared
                .iter()
                .map(|metric| {
                    let entry = obj([
                        ("value", num(self.get(metric.name))),
                        ("unit", str(metric.unit)),
                    ]);
                    (metric.name.to_string(), entry)
                })
                .collect(),
        )
    }
}
