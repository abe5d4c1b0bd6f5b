//! The enforced session contract: a 200-epoch, seed-42 soak-style timeline
//! replayed through `AnalysisSession::ingest`, with every epoch's
//! `full_report()` asserted **bit-identical** to a from-scratch
//! `ScoutEngine::analyze` of the same fabric state — plus the typed-error
//! edge cases of the ingestion API at the facade level.
//!
//! This is the differential guarantee behind the service API: a monitor that
//! only ever sees typed event deltas (policy updates, TCAM syncs, change-log
//! and fault-log events) must reach exactly the conclusions a batch analysis
//! of the whole fabric would.

use rand::rngs::StdRng;
use rand::SeedableRng;

use scout::core::{ScoutEngine, SessionError};
use scout::fabric::{EventBatch, Fabric, FabricEvent, FabricProbe};
use scout::policy::{LogicalRule, SwitchId};
use scout::sim::churn::soak_step;
use scout::workload::TestbedSpec;

use std::collections::BTreeSet;

fn testbed_fabric(seed: u64) -> Fabric {
    let spec = TestbedSpec {
        epgs: 12,
        contracts: 8,
        filters: 4,
        target_pairs: 20,
        switches: 3,
        tcam_capacity: 1024,
    };
    let mut fabric = Fabric::new(spec.generate(seed));
    fabric.deploy();
    fabric
}

/// The committed differential replay: 200 epochs, seed 42. At every epoch the
/// session ingests the probe's delta batch and its on-demand full report must
/// be bit-identical to a from-scratch analysis; the emitted `ReportDelta`s
/// must also *compose*: folding them over the open-time report reproduces the
/// current missing-rule set and hypothesis exactly.
#[test]
fn session_replay_of_200_epoch_soak_timeline_is_bit_identical() {
    let mut fabric = testbed_fabric(42);
    let mut rng = StdRng::seed_from_u64(42);

    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);

    // Delta-folding state, seeded from the open-time report.
    let mut folded_missing: BTreeSet<LogicalRule> = session.full_report().check.missing_rule_set();
    let mut folded_hypothesis = session.full_report().hypothesis.objects();
    let mut non_noop_deltas = 0usize;

    for epoch in 0..200usize {
        soak_step(&mut fabric, &mut rng);

        let delta = session
            .ingest_observation(&mut probe, &fabric)
            .expect("faithful observations ingest cleanly");

        // The headline contract: bit-identical to from-scratch analysis.
        let reference = engine.analyze(&fabric);
        assert_eq!(
            *session.full_report(),
            reference,
            "epoch {epoch}: session report diverged from from-scratch analysis"
        );
        // The session's mirror tracks the fabric's artifacts exactly.
        assert!(
            session.view().matches(&fabric),
            "epoch {epoch}: the session view drifted from the fabric"
        );

        // Deltas compose: the folded missing set and hypothesis reproduce the
        // full report.
        for rule in &delta.restored {
            assert!(folded_missing.remove(rule), "epoch {epoch}: bad restore");
        }
        for rule in &delta.newly_missing {
            assert!(folded_missing.insert(*rule), "epoch {epoch}: bad missing");
        }
        for object in &delta.hypothesis_removed {
            assert!(folded_hypothesis.remove(object), "epoch {epoch}");
        }
        for object in &delta.hypothesis_added {
            assert!(folded_hypothesis.insert(*object), "epoch {epoch}");
        }
        assert_eq!(folded_missing, reference.check.missing_rule_set());
        assert_eq!(folded_hypothesis, reference.hypothesis.objects());
        assert_eq!(delta.consistent, reference.is_consistent());
        if !delta.is_noop() {
            non_noop_deltas += 1;
        }
    }

    assert_eq!(session.epoch(), 200);
    let stats = session.stats();
    assert_eq!(stats.ingests, 200);
    // The timeline actually exercised the machinery: most epochs carried
    // events, and plenty of deltas were visible to the operator.
    assert!(stats.events >= 200, "events: {}", stats.events);
    assert!(non_noop_deltas >= 50, "non-noop deltas: {non_noop_deltas}");
}

/// Ingestion is epoch-sequenced end to end: duplicates, reordering and gaps
/// are typed errors that consume nothing, and an empty batch is a cheap
/// no-op that still advances the epoch.
#[test]
fn facade_ingest_edge_cases() {
    let mut fabric = testbed_fabric(7);
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    let baseline_report = session.full_report().clone();

    // Empty batch: cheap no-op, epoch advances, report untouched.
    let delta = session.ingest(EventBatch::empty(1)).unwrap();
    assert!(delta.is_noop());
    assert_eq!(session.epoch(), 1);
    assert_eq!(*session.full_report(), baseline_report);

    // Duplicate epoch.
    assert_eq!(
        session.ingest(EventBatch::empty(1)),
        Err(SessionError::EpochOutOfOrder {
            expected: 2,
            got: 1
        })
    );
    // Gap (lost deltas): a distinct typed error carrying the resync request.
    let err = session.ingest(EventBatch::empty(5)).unwrap_err();
    let SessionError::EpochGap { resync } = err else {
        panic!("a future epoch must be classified as a gap, got {err:?}");
    };
    assert_eq!(resync.from_epoch, 2);
    assert_eq!(resync.observed_epoch, 5);
    assert_eq!(session.epoch(), 1, "the gap consumed nothing");

    // Unknown switch id, rejected with context and without consuming the
    // epoch.
    let stray = SwitchId::new(404);
    let err = session
        .ingest(EventBatch::new(
            2,
            vec![FabricEvent::TcamSync {
                switch: stray,
                rules: Vec::new(),
            }],
        ))
        .unwrap_err();
    assert_eq!(
        err,
        SessionError::UnknownSwitch {
            epoch: 2,
            switch: stray
        }
    );
    assert_eq!(session.epoch(), 1);

    // The session recovers seamlessly: a real observation ingests as epoch 2
    // and the report matches from scratch.
    let victim = fabric.universe().switch_ids()[0];
    fabric.remove_tcam_rules_where(victim, |_| true);
    let events = probe.observe(&fabric);
    let delta = session.ingest(EventBatch::new(2, events)).unwrap();
    assert!(!delta.consistent);
    assert_eq!(*session.full_report(), engine.analyze(&fabric));
}
