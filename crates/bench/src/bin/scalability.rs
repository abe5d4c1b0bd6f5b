//! Reproduces the §VI-B scalability measurement: SCOUT running time on the
//! controller risk model as the fabric grows from 10 to 500 leaf switches
//! (the paper reports ≈45 s at 200 switches and ≈130 s at 500 switches for its
//! Python prototype on a 4-core 2.6 GHz machine; only the growth shape is
//! expected to match).
//!
//! Usage:
//! ```text
//! cargo run --release -p scout-bench --bin scalability -- --faults 10
//! ```

use scout_bench::experiments::scalability_table;
use scout_bench::{arg_value, has_flag, scalability};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let seed: u64 = arg_value(&args, "--seed", 1);
    let faults: usize = arg_value(&args, "--faults", 10);
    let quick = has_flag(&args, "--quick");

    let switch_counts: Vec<usize> = if quick {
        vec![10, 50, 100]
    } else {
        vec![10, 50, 100, 200, 300, 400, 500]
    };
    eprintln!(
        "scalability: switch counts {:?}, {faults} injected faults, seed {seed}",
        switch_counts
    );
    let points = scalability(&switch_counts, faults, seed);
    // Wall-clock varies run to run: stderr, so stdout stays reproducible.
    for p in &points {
        eprintln!(
            "{} switches: build {:.1} ms, localize {:.1} ms",
            p.switches,
            p.build_time.as_secs_f64() * 1e3,
            p.localize_time.as_secs_f64() * 1e3
        );
    }
    println!("{}", scalability_table(&points));
}
