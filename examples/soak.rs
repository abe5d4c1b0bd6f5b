//! Soak run: continuous monitoring over a multi-epoch fault timeline.
//!
//! Keeps one fabric alive for 40 epochs while faults are injected (possibly
//! overlapping), repaired online, and concurrent policy edits land — the
//! monitor re-analyzes every epoch through the incremental path and a
//! differential oracle cross-checks it against from-scratch analysis.
//!
//! Run with:
//! ```text
//! cargo run --example soak
//! ```

use scout::sim::{Timeline, WorkloadKind};
use scout::workload::TestbedSpec;

fn main() {
    let timeline = Timeline::new(WorkloadKind::Testbed(TestbedSpec::paper()), 40, 7);
    println!(
        "soak: {} epochs, seed {}, inject/repair/edit rates {}/{}/{}\n",
        timeline.epochs,
        timeline.seed,
        Timeline::INJECT_RATE,
        Timeline::REPAIR_RATE,
        Timeline::EDIT_RATE,
    );

    let run = timeline.run();

    // A narrated timeline: one line per epoch where something happened.
    for epoch in &run.outcome.epochs {
        let mut events = Vec::new();
        for &id in &epoch.injected {
            let fault = &run.outcome.faults[id];
            events.push(format!("+fault #{id} ({})", fault.kind));
        }
        for &id in &epoch.repaired {
            events.push(format!("~repair #{id}"));
        }
        for &id in &epoch.healed {
            events.push(format!("-healed #{id}"));
        }
        if epoch.policy_edit {
            events.push("policy edit".to_string());
        }
        if events.is_empty() {
            continue;
        }
        println!(
            "epoch {:>3}: {:<46} missing {:>3}, hypothesis {:>2}, oracle {}",
            epoch.epoch,
            events.join(", "),
            epoch.missing_rules,
            epoch.hypothesis.len(),
            match epoch.oracle_agrees {
                Some(true) => "✓",
                Some(false) => "✗",
                None => "-",
            },
        );
    }

    let report = run.outcome.report();
    println!("\n{}", report.table());
    println!("{}", report.timeline_table(40));

    // The monitor session's own counters, and what each epoch cost the driver
    // (probe + ingest).
    let stats = &run.session_stats;
    let cost = run.incremental_cost.summary();
    println!(
        "session: {} ingests ({} events, {} empty batches), {} switches re-checked",
        stats.ingests, stats.events, stats.empty_batches, stats.rechecked_switches
    );
    println!(
        "epoch cost: mean {:.1} µs, max {:.1} µs  {}",
        cost.mean / 1e3,
        cost.max / 1e3,
        run.incremental_cost.sparkline(40)
    );

    assert!(
        run.outcome.oracle_disagreements().is_empty(),
        "incremental monitoring diverged from from-scratch analysis"
    );
    println!(
        "differential oracle: all {} epochs bit-identical",
        report.oracle_epochs
    );
}
