//! Production-scale monitoring: a 1000-switch fabric under continuous churn.
//!
//! Generates the 1000-switch member of the large-fabric preset family, opens
//! one long-lived analysis session on it, and drives 20 churn epochs through
//! the incremental ingest path — mostly single-switch events, with a
//! correlated 50-switch front every fifth epoch. The per-epoch ingest
//! latencies are reported as a sparkline, and the final incremental report is
//! checked bit-identical against a from-scratch analysis of the end state.
//!
//! Run with:
//! ```text
//! cargo run --release --example scale
//! ```

use std::time::Instant;

use scout::core::ScoutEngine;
use scout::fabric::{Fabric, FabricProbe};
use scout::metrics::TimeSeries;
use scout::workload::ScaleSpec;

const EPOCHS: usize = 20;
/// Width of the correlated event front (5% of the fabric).
const FRONT: usize = 50;

fn main() {
    let spec = ScaleSpec::large_1k();
    let t0 = Instant::now();
    let universe = spec.generate(42);
    let mut fabric = Fabric::new(universe);
    fabric.deploy();
    let stats = fabric.universe().stats();
    println!(
        "fabric: {} switches, {} EPG pairs, {} TCAM rules (generated + deployed in {:.2?})",
        stats.switches,
        stats.epg_pairs,
        fabric
            .collect_tcam()
            .values()
            .map(|rules| rules.len())
            .sum::<usize>(),
        t0.elapsed(),
    );

    let engine = ScoutEngine::new();
    let t0 = Instant::now();
    let mut session = engine.open_session(&fabric);
    println!(
        "session opened (full initial analysis) in {:.2?}",
        t0.elapsed()
    );

    // Churn loop: evict on even epochs, repair the same switches on odd ones,
    // so damage never accumulates. Every fifth epoch dirties a 50-switch
    // front instead of a single switch.
    let mut probe = FabricProbe::new(&fabric);
    let switch_ids = fabric.universe().switch_ids();
    let mut latency = TimeSeries::new("per-ingest latency (ns)");
    for epoch in 0..EPOCHS {
        let width = if epoch % 5 == 4 { FRONT } else { 1 };
        let window = epoch / 2;
        for i in 0..width {
            let switch = switch_ids[(window * FRONT + i) % switch_ids.len()];
            if epoch.is_multiple_of(2) {
                fabric.evict_tcam(switch, 1, false);
            } else {
                fabric.repair_switch(switch);
            }
        }
        let t0 = Instant::now();
        let delta = session
            .ingest_observation(&mut probe, &fabric)
            .expect("probe batches are sequential");
        latency.push(t0.elapsed().as_nanos() as f64);
        println!(
            "epoch {epoch:>2}: {width:>2} switch(es) dirtied, delta {}",
            if delta.is_noop() { "noop" } else { "emitted" },
        );
    }

    let stats = session.stats();
    let summary = latency.summary();
    println!(
        "\n{} ingests ({} events, {} switches re-checked)",
        stats.ingests, stats.events, stats.rechecked_switches,
    );
    println!(
        "ingest latency: mean {:.1} ms, max {:.1} ms  {}",
        summary.mean / 1e6,
        summary.max / 1e6,
        latency.sparkline(EPOCHS),
    );

    // Differential oracle on the end state.
    let t0 = Instant::now();
    let reference = engine.analyze(&fabric);
    assert_eq!(
        *session.full_report(),
        reference,
        "incremental session diverged from from-scratch analysis"
    );
    println!(
        "oracle: from-scratch analysis in {:.2?}, bit-identical to the session report",
        t0.elapsed(),
    );
}
