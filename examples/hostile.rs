//! Hostile telemetry: what SCOUT does when its inputs lie.
//!
//! Three short acts:
//!
//! 1. **Gap → resync.** A probe's delta batch is lost in transit; the next
//!    delivery surfaces as a typed [`SessionError::EpochGap`] naming the
//!    missing epoch range, and one full fabric read realigns the session —
//!    bit-identical to a from-scratch analysis.
//! 2. **Ranked partial diagnosis.** A silent TCAM eviction with a wiped
//!    fault log still yields a ranked, confidence-scored cause list instead
//!    of an empty correlation.
//! 3. **The five-class sweep.** A seeded hostile campaign (lossy probe,
//!    torn sync, flapping faults, gray failures, missing logs) prints its
//!    per-class SCOUT-vs-SCORE accuracy table.
//!
//! Run with:
//! ```text
//! cargo run --release --example hostile
//! ```

use scout::core::{ScoutEngine, SessionError};
use scout::fabric::{EventBatch, Fabric, FabricProbe, FaultLog};
use scout::policy::sample;
use scout::sim::{HostileCampaign, HostileReport, WorkloadKind};
use scout::workload::TestbedSpec;

fn main() {
    // --- Act 1: a lost batch, an epoch gap, a full resync. ---------------
    let engine = ScoutEngine::new();
    let mut fabric = Fabric::new(sample::three_tier());
    fabric.deploy();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    println!("act 1: monitoring a healthy 3-tier fabric (epoch 0)");

    // Epoch 1 happens — and its batch is dropped by the transport. The
    // probe's cursors advance regardless: the delta is gone for good.
    fabric.evict_tcam(sample::S2, 2, true);
    let _lost = probe.observe(&fabric);
    println!(
        "  epoch 1: 2 rules evicted on {}; batch lost in transit",
        sample::S2
    );

    // Epoch 2 arrives and reveals the gap.
    fabric.evict_tcam(sample::S3, 1, true);
    let late = EventBatch::new(2, probe.observe(&fabric));
    match session.ingest(late) {
        Err(SessionError::EpochGap { resync }) => {
            println!(
                "  epoch 2: gap detected — epochs {}..={} missing ({} lost)",
                resync.from_epoch,
                resync.observed_epoch,
                resync.missing_epochs()
            );
            let delta = session
                .resync(resync.observed_epoch, probe.full_resync(&fabric))
                .expect("a forward resync is accepted");
            println!(
                "  full resync at epoch {}: {} switches rechecked, consistent = {}",
                delta.epoch,
                delta.rechecked.len(),
                delta.consistent
            );
        }
        other => panic!("expected an epoch gap, got {other:?}"),
    }
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
    assert_eq!(session.stats().resyncs, 1);
    println!("  recovered session is bit-identical to a from-scratch analysis\n");

    // --- Act 2: ranked partial diagnosis with no fault logs. -------------
    let mut fabric = Fabric::new(sample::three_tier());
    fabric.deploy();
    fabric.evict_tcam(sample::S1, 2, false); // silent: the switch logs nothing
    *fabric.fault_log_mut() = FaultLog::new(); // and the collector lost the rest
    let report = engine.analyze(&fabric);
    assert!(!report.is_consistent());
    let ranked = engine.correlation().rank_partial(
        &report.hypothesis,
        &report.suspect_objects,
        fabric.universe(),
        fabric.change_log(),
        fabric.fault_log(),
    );
    assert!(!ranked.is_empty());
    println!(
        "act 2: silent eviction on {}, fault log wiped — ranked partial diagnosis:",
        sample::S1
    );
    for (i, cause) in ranked.top(3).iter().enumerate() {
        println!(
            "  #{} {}  confidence {:.2}  ({:?})",
            i + 1,
            cause.object,
            cause.confidence,
            cause.cause
        );
    }
    println!();

    // --- Act 3: the five-class hostile sweep. ----------------------------
    println!("act 3: seeded hostile campaign, 20 scenarios per class:");
    let campaign = HostileCampaign::new(WorkloadKind::Testbed(TestbedSpec::paper()), 20, 42);
    println!("{}", HostileReport::of(&campaign.run()).table());
}
