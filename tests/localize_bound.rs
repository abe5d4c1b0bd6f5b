//! Localization costs the failure, not the fabric: a count-based work bound
//! on the SCOUT cover stage, in the style of `tests/incremental.rs`.
//!
//! A 200-switch `ScaleSpec::large_fabric` session is driven through epochs of
//! single-switch drift and repair with up to eight switches damaged at once.
//! At every epoch the model the cover stage runs on — the augmented model's
//! failure subgraph — holds no more elements than the failure signature has
//! observations, while the session's reports stay bit-identical to
//! from-scratch analysis.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

use scout::core::ScoutEngine;
use scout::fabric::{Fabric, FabricProbe};
use scout::workload::ScaleSpec;

/// Switches damaged at most at once.
const DAMAGE_CAP: usize = 8;

#[test]
fn cover_stage_work_is_bounded_by_the_failure_signature() {
    let mut fabric = Fabric::new(ScaleSpec::large_fabric(200).generate(3));
    fabric.deploy();
    let engine = ScoutEngine::new();
    let mut session = engine.open_session(&fabric);
    let mut probe = FabricProbe::new(&fabric);
    let mut rng = StdRng::seed_from_u64(3);
    let switches = fabric.universe().switch_ids();
    let mut damaged: VecDeque<_> = VecDeque::new();
    let (mut peak_signature, mut peak_damaged) = (0, 0);

    for epoch in 1..=40usize {
        if damaged.is_empty() || (damaged.len() < DAMAGE_CAP && rng.gen_bool(0.7)) {
            let &switch = switches
                .iter()
                .filter(|s| !damaged.contains(*s))
                .copied()
                .collect::<Vec<_>>()
                .choose(&mut rng)
                .expect("more switches than the cap");
            let port = rng.gen_range(0u16..7);
            fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start % 7 == port);
            damaged.push_back(switch);
        } else {
            let switch = damaged.pop_front().expect("checked above");
            fabric.repair_switch(switch);
        }
        session
            .ingest_observation(&mut probe, &fabric)
            .expect("faithful observations ingest cleanly");

        let check = session.full_report().check.clone();
        let (projected, signature) = session.with_augmented_model(&fabric, &check, |m| {
            (
                m.failure_subgraph().element_count(),
                m.failure_signature().len(),
            )
        });
        assert!(
            projected <= signature,
            "epoch {epoch}: the cover stage holds {projected} elements for {signature} observations"
        );
        peak_signature = peak_signature.max(signature);
        peak_damaged = peak_damaged.max(damaged.len());

        if epoch % 5 == 0 {
            assert_eq!(
                *session.full_report(),
                engine.analyze(&fabric),
                "epoch {epoch}: session report diverged from from-scratch analysis"
            );
        }
    }
    // The timeline exercised the bound: several switches failed at once.
    assert!(peak_damaged >= 5, "peak damage {peak_damaged}");
    assert!(peak_signature > 0);
}
