//! The event correlation engine: from faulty policy objects to physical-level
//! root causes.
//!
//! Given the hypothesis produced by fault localization, the engine (§V-A of the
//! paper) looks up the change-log entries of each suspected object, selects the
//! fault-log entries that were active when those changes were made (or that are
//! still active), restricts them to the switches the object is actually
//! deployed on, and matches them against a library of known fault signatures.
//! Objects with no matching fault are tagged [`RootCause::Unknown`].

use std::collections::{BTreeMap, BTreeSet};

use scout_fabric::{ChangeLog, FaultKind, FaultLog, FaultLogEntry, Timestamp};
use scout_policy::{ObjectId, PolicyUniverse, SwitchId};

use crate::localization::{Evidence, Hypothesis};

/// A library of fault signatures the engine knows how to recognize.
///
/// Signatures are composed by network admins from domain knowledge; new ones
/// can be added at any time and the engine's ability grows with them (§V-A).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SignatureLibrary {
    known: BTreeSet<FaultKind>,
}

impl Default for SignatureLibrary {
    fn default() -> Self {
        Self::standard()
    }
}

impl SignatureLibrary {
    /// The standard library: TCAM overflow, unreachable switch, agent crash,
    /// rule eviction and channel degradation.
    pub fn standard() -> Self {
        Self {
            known: BTreeSet::from([
                FaultKind::TcamOverflow,
                FaultKind::SwitchUnreachable,
                FaultKind::AgentCrash,
                FaultKind::RuleEviction,
                FaultKind::ChannelDegraded,
            ]),
        }
    }

    /// An empty library (every fault is treated as unknown).
    pub fn empty() -> Self {
        Self {
            known: BTreeSet::new(),
        }
    }

    /// Adds a signature for `kind`.
    pub fn add(&mut self, kind: FaultKind) -> &mut Self {
        self.known.insert(kind);
        self
    }

    /// Returns `true` if the engine recognizes `kind`.
    pub fn matches(&self, kind: FaultKind) -> bool {
        self.known.contains(&kind)
    }

    /// Number of known signatures.
    pub fn len(&self) -> usize {
        self.known.len()
    }

    /// Returns `true` if the library is empty.
    pub fn is_empty(&self) -> bool {
        self.known.is_empty()
    }
}

/// A physical-level root cause associated with a faulty policy object.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RootCause {
    /// A recognized physical fault.
    Physical {
        /// The matched fault class.
        kind: FaultKind,
        /// The switch the fault was reported on (`None` = controller level).
        switch: Option<SwitchId>,
        /// When the fault was raised.
        observed_at: Timestamp,
        /// The original fault-log message.
        message: String,
    },
    /// No fault log explains the object's failure (e.g. silent TCAM
    /// corruption).
    Unknown,
}

impl RootCause {
    /// The fault kind, if this is a recognized physical cause.
    pub fn kind(&self) -> Option<FaultKind> {
        match self {
            RootCause::Physical { kind, .. } => Some(*kind),
            RootCause::Unknown => None,
        }
    }
}

/// The per-object outcome of correlation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObjectDiagnosis {
    /// The suspected faulty object.
    pub object: ObjectId,
    /// The physical root causes associated with it (never empty; contains
    /// [`RootCause::Unknown`] when nothing matched).
    pub causes: Vec<RootCause>,
}

impl ObjectDiagnosis {
    /// Returns `true` if no physical cause was found.
    pub fn is_unknown(&self) -> bool {
        self.causes.iter().all(|c| matches!(c, RootCause::Unknown))
    }

    /// The distinct fault kinds implicated for this object.
    pub fn fault_kinds(&self) -> BTreeSet<FaultKind> {
        self.causes.iter().filter_map(|c| c.kind()).collect()
    }
}

/// The full correlation report for one hypothesis.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct CorrelationReport {
    /// Per-object diagnoses, in hypothesis order (crate-visible so the
    /// snapshot codec can rebuild a report).
    pub(crate) diagnoses: Vec<ObjectDiagnosis>,
}

impl CorrelationReport {
    /// Per-object diagnoses in hypothesis order.
    pub fn diagnoses(&self) -> &[ObjectDiagnosis] {
        &self.diagnoses
    }

    /// The diagnosis for a specific object, if it was part of the hypothesis.
    pub fn for_object(&self, object: ObjectId) -> Option<&ObjectDiagnosis> {
        self.diagnoses.iter().find(|d| d.object == object)
    }

    /// Objects whose failure could not be tied to any fault log.
    pub fn unknown_objects(&self) -> Vec<ObjectId> {
        self.diagnoses
            .iter()
            .filter(|d| d.is_unknown())
            .map(|d| d.object)
            .collect()
    }

    /// All fault kinds implicated across the hypothesis, with the objects they
    /// affect.
    pub fn causes_by_kind(&self) -> BTreeMap<FaultKind, BTreeSet<ObjectId>> {
        let mut map: BTreeMap<FaultKind, BTreeSet<ObjectId>> = BTreeMap::new();
        for d in &self.diagnoses {
            for kind in d.fault_kinds() {
                map.entry(kind).or_default().insert(d.object);
            }
        }
        map
    }

    /// The most likely overall root causes: fault kinds ordered by how many
    /// hypothesis objects they explain (descending).
    pub fn most_likely(&self) -> Vec<(FaultKind, usize)> {
        let mut counts: Vec<(FaultKind, usize)> = self
            .causes_by_kind()
            .into_iter()
            .map(|(k, objs)| (k, objs.len()))
            .collect();
        counts.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        counts
    }
}

/// One candidate root cause in a [`PartialDiagnosis`], scored by confidence.
#[derive(Debug, Clone, PartialEq)]
pub struct RankedCause {
    /// The suspected faulty object.
    pub object: ObjectId,
    /// The best matching physical cause, or [`RootCause::Unknown`] when no
    /// relevant fault log exists for the object.
    pub cause: RootCause,
    /// Confidence in `(0, 1]`. Logged causes score in `(0.5, 1]` and
    /// unlogged ones in `(0, 0.5]`, so a logged root cause always outranks
    /// an unlogged one.
    pub confidence: f64,
}

/// A ranked list of candidate root causes — the correlation engine's answer
/// when telemetry is degraded (missing or incomplete fault logs) and the
/// definitive per-object [`CorrelationReport`] would go silent.
///
/// Produced on demand by [`CorrelationEngine::rank_partial`] (or
/// [`AnalysisSession::partial_diagnosis`](crate::AnalysisSession::partial_diagnosis));
/// never stored in a [`ScoutReport`](crate::ScoutReport).
///
/// Candidates are sorted by confidence descending, ties broken by object id,
/// so the ranking is deterministic for a given report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct PartialDiagnosis {
    candidates: Vec<RankedCause>,
}

impl PartialDiagnosis {
    /// All candidates, highest confidence first.
    pub fn candidates(&self) -> &[RankedCause] {
        &self.candidates
    }

    /// Number of ranked candidates.
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Returns `true` if nothing could be ranked (an empty hypothesis over
    /// a consistent fabric).
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The top `n` candidates (fewer if the ranking is shorter).
    pub fn top(&self, n: usize) -> &[RankedCause] {
        &self.candidates[..n.min(self.candidates.len())]
    }

    /// The best (lowest) 1-based rank across `objects` — how high the
    /// ranking places *any* member of a ground-truth set.
    pub fn rank_of_any(&self, objects: &BTreeSet<ObjectId>) -> Option<usize> {
        self.candidates
            .iter()
            .position(|c| objects.contains(&c.object))
            .map(|i| i + 1)
    }
}

/// The event correlation engine.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CorrelationEngine {
    signatures: SignatureLibrary,
}

impl Default for CorrelationEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl CorrelationEngine {
    /// Creates an engine with the standard signature library.
    pub fn new() -> Self {
        Self {
            signatures: SignatureLibrary::standard(),
        }
    }

    /// Creates an engine with a custom signature library.
    pub fn with_signatures(signatures: SignatureLibrary) -> Self {
        Self { signatures }
    }

    /// Read access to the signature library.
    pub fn signatures(&self) -> &SignatureLibrary {
        &self.signatures
    }

    /// Correlates a hypothesis with the controller change log and the device
    /// fault log, producing a per-object physical diagnosis.
    ///
    /// `universe` is used to restrict candidate fault entries to the switches
    /// an object's rules are actually deployed on.
    pub fn correlate(
        &self,
        hypothesis: &Hypothesis,
        universe: &PolicyUniverse,
        change_log: &ChangeLog,
        fault_log: &FaultLog,
    ) -> CorrelationReport {
        let mut diagnoses = Vec::new();
        for (&object, _evidence) in hypothesis.iter() {
            let relevant_switches = universe.object_switches(&object);
            let change_times: Vec<Timestamp> = change_log
                .entries_for(object)
                .iter()
                .map(|e| e.time)
                .collect();

            let mut causes = Vec::new();
            for entry in fault_log.entries() {
                if !switch_relevant(entry, relevant_switches) {
                    continue;
                }
                if !fault_relevant(entry, &change_times) {
                    continue;
                }
                if self.signatures.matches(entry.kind) {
                    causes.push(RootCause::Physical {
                        kind: entry.kind,
                        switch: entry.switch,
                        observed_at: entry.time,
                        message: entry.message.clone(),
                    });
                } else {
                    causes.push(RootCause::Unknown);
                }
            }
            if causes.is_empty() || causes.iter().all(|c| matches!(c, RootCause::Unknown)) {
                causes = vec![RootCause::Unknown];
            } else {
                causes.retain(|c| !matches!(c, RootCause::Unknown));
            }
            diagnoses.push(ObjectDiagnosis { object, causes });
        }
        CorrelationReport { diagnoses }
    }

    /// Ranks every candidate root cause by confidence — the degraded-input
    /// counterpart to [`CorrelationEngine::correlate`], for fabrics whose
    /// fault logs are missing, wiped or incomplete.
    ///
    /// Candidates are the hypothesis objects plus any risk-model suspects
    /// the greedy cover did not select (weaker, but still in play when logs
    /// cannot arbitrate). Confidence composes two signals:
    ///
    /// * the localization evidence class — full cover 1.0, recent change
    ///   0.8, score cover 0.6, unselected suspect 0.3 — and
    /// * whether a signature-matched fault log backs the object: logged
    ///   causes map to `0.55 + 0.45 × weight` (always above `0.5`),
    ///   unlogged ones to `0.5 × weight` (always at or below) — so a logged
    ///   root cause ranks above every unlogged candidate by construction.
    ///
    /// When several logs back one object the most recent wins. The ranking
    /// is never empty while the hypothesis or suspect set is non-empty, and
    /// it is deterministic: ties break on object id.
    pub fn rank_partial(
        &self,
        hypothesis: &Hypothesis,
        suspects: &BTreeSet<ObjectId>,
        universe: &PolicyUniverse,
        change_log: &ChangeLog,
        fault_log: &FaultLog,
    ) -> PartialDiagnosis {
        let mut candidates = Vec::new();
        let hypothesized = hypothesis.objects();
        let weighted = hypothesis
            .iter()
            .map(|(&object, evidence)| {
                let weight = match evidence {
                    Evidence::FullCover => 1.0,
                    Evidence::RecentChange { .. } => 0.8,
                    Evidence::ScoreCover => 0.6,
                };
                (object, weight)
            })
            .chain(
                suspects
                    .iter()
                    .filter(|o| !hypothesized.contains(o))
                    .map(|&object| (object, 0.3)),
            );
        for (object, weight) in weighted {
            let relevant_switches = universe.object_switches(&object);
            let change_times: Vec<Timestamp> = change_log
                .entries_for(object)
                .iter()
                .map(|e| e.time)
                .collect();
            let backing = fault_log
                .entries()
                .iter()
                .filter(|entry| {
                    switch_relevant(entry, relevant_switches)
                        && fault_relevant(entry, &change_times)
                        && self.signatures.matches(entry.kind)
                })
                .max_by_key(|entry| entry.time);
            let (cause, confidence) = match backing {
                Some(entry) => (
                    RootCause::Physical {
                        kind: entry.kind,
                        switch: entry.switch,
                        observed_at: entry.time,
                        message: entry.message.clone(),
                    },
                    0.55 + 0.45 * weight,
                ),
                None => (RootCause::Unknown, 0.5 * weight),
            };
            candidates.push(RankedCause {
                object,
                cause,
                confidence,
            });
        }
        candidates.sort_by(|a, b| {
            b.confidence
                .partial_cmp(&a.confidence)
                .expect("confidences are finite")
                .then_with(|| a.object.cmp(&b.object))
        });
        PartialDiagnosis { candidates }
    }
}

/// A fault entry is relevant to an object if it concerns one of the object's
/// switches (controller-level entries with no switch are always relevant).
/// `switches` is the object's ascending slice borrowed from the universe's
/// build-time index ([`PolicyUniverse::object_switches`]), so correlating a
/// hypothesis costs a binary search per entry, not a set per object.
fn switch_relevant(entry: &FaultLogEntry, switches: &[SwitchId]) -> bool {
    match entry.switch {
        None => true,
        Some(s) => switches.binary_search(&s).is_ok(),
    }
}

/// A fault entry is temporally relevant if it was active when one of the
/// object's changes was made, or if it is still active (not yet cleared) — the
/// "logged before the policy changes and kept alive" rule of §V-A.
fn fault_relevant(entry: &FaultLogEntry, change_times: &[Timestamp]) -> bool {
    if entry.cleared_at.is_none() {
        return true;
    }
    change_times.iter().any(|&t| entry.active_at(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localization::{scout_localize, ScoutConfig};
    use crate::risk::{augment_controller_model, controller_risk_model};
    use scout_equiv::EquivalenceChecker;
    use scout_fabric::Fabric;
    use scout_policy::sample;

    /// Deploys the 3-tier policy onto switches with tiny TCAMs so that the
    /// overflow path is exercised end to end.
    fn overflowing_fabric() -> Fabric {
        let mut fabric = Fabric::new(sample::three_tier_with_capacity(3));
        fabric.deploy();
        fabric
    }

    fn hypothesis_for(fabric: &Fabric) -> Hypothesis {
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        let mut model = controller_risk_model(fabric.universe());
        augment_controller_model(&mut model, result.missing_rules());
        scout_localize(&model, fabric.change_log(), ScoutConfig::default())
    }

    #[test]
    fn tcam_overflow_is_attributed_to_the_overflow_fault() {
        let fabric = overflowing_fabric();
        let hypothesis = hypothesis_for(&fabric);
        assert!(!hypothesis.is_empty());
        let engine = CorrelationEngine::new();
        let report = engine.correlate(
            &hypothesis,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        );
        assert_eq!(report.diagnoses().len(), hypothesis.len());
        let by_kind = report.causes_by_kind();
        assert!(by_kind.contains_key(&FaultKind::TcamOverflow));
        let (top_kind, _) = report.most_likely()[0];
        assert_eq!(top_kind, FaultKind::TcamOverflow);
    }

    #[test]
    fn unreachable_switch_is_attributed_to_disconnect_fault() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.disconnect_switch(sample::S2);
        fabric.deploy();
        let hypothesis = hypothesis_for(&fabric);
        assert!(!hypothesis.is_empty());
        let engine = CorrelationEngine::new();
        let report = engine.correlate(
            &hypothesis,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        );
        assert!(report
            .causes_by_kind()
            .contains_key(&FaultKind::SwitchUnreachable));
    }

    #[test]
    fn silent_corruption_yields_unknown_cause() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
            .corrupt_tcam(sample::S1, 0, scout_fabric::CorruptionKind::DstEpgBit)
            .unwrap();
        let hypothesis = hypothesis_for(&fabric);
        assert!(!hypothesis.is_empty());
        let engine = CorrelationEngine::new();
        let report = engine.correlate(
            &hypothesis,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        );
        // No fault log exists, so every hypothesis object is tagged unknown.
        assert_eq!(report.unknown_objects().len(), hypothesis.len());
        assert!(report.causes_by_kind().is_empty());
        assert!(report.most_likely().is_empty());
    }

    #[test]
    fn empty_signature_library_reports_unknown() {
        let fabric = overflowing_fabric();
        let hypothesis = hypothesis_for(&fabric);
        let engine = CorrelationEngine::with_signatures(SignatureLibrary::empty());
        assert!(engine.signatures().is_empty());
        let report = engine.correlate(
            &hypothesis,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        );
        assert_eq!(report.unknown_objects().len(), hypothesis.len());
    }

    #[test]
    fn faults_on_unrelated_switches_are_ignored() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        // Fault on S3, but the missing rule (and hypothesis) concerns only the
        // Web-App pair which never touches S3.
        fabric.disconnect_switch(sample::S3);
        fabric.remove_tcam_rules_where(sample::S1, |_| true);
        fabric.remove_tcam_rules_where(sample::S2, |r| {
            r.pair() == scout_policy::EpgPair::new(sample::WEB, sample::APP)
        });
        let hypothesis = hypothesis_for(&fabric);
        assert!(!hypothesis.is_empty());
        // The hypothesis should not involve S3 objects.
        assert!(!hypothesis.contains(ObjectId::Switch(sample::S3)));
        let engine = CorrelationEngine::new();
        let report = engine.correlate(
            &hypothesis,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        );
        // Web-App only objects (e.g. the Web EPG or the Web-App contract) must
        // not be blamed on the S3 disconnect.
        for diag in report.diagnoses() {
            if diag.object == ObjectId::Epg(sample::WEB)
                || diag.object == ObjectId::Contract(sample::C_WEB_APP)
            {
                assert!(
                    !diag.fault_kinds().contains(&FaultKind::SwitchUnreachable)
                        || diag.causes.iter().all(|c| match c {
                            RootCause::Physical { switch, .. } => *switch != Some(sample::S3),
                            RootCause::Unknown => true,
                        })
                );
            }
        }
    }

    /// Every loggable fault kind of the standard signature library, injected
    /// through its natural scenario, is mapped back to the expected physical
    /// diagnosis by the engine.
    #[test]
    fn every_standard_fault_kind_maps_to_its_diagnosis() {
        let scenarios: Vec<(FaultKind, Box<dyn Fn() -> Fabric>)> = vec![
            (
                FaultKind::TcamOverflow,
                Box::new(|| {
                    let mut f = Fabric::new(sample::three_tier_with_capacity(3));
                    f.deploy();
                    f
                }),
            ),
            (
                FaultKind::SwitchUnreachable,
                Box::new(|| {
                    let mut f = Fabric::new(sample::three_tier());
                    f.disconnect_switch(sample::S2);
                    f.deploy();
                    f
                }),
            ),
            (
                FaultKind::AgentCrash,
                Box::new(|| {
                    let mut f = Fabric::new(sample::three_tier());
                    f.crash_agent(sample::S2);
                    f.deploy();
                    f
                }),
            ),
            (
                FaultKind::RuleEviction,
                Box::new(|| {
                    let mut f = Fabric::new(sample::three_tier());
                    f.deploy();
                    // A *logged* eviction: the agent reports the fault.
                    f.evict_tcam(sample::S2, 2, true);
                    f
                }),
            ),
            (
                FaultKind::ChannelDegraded,
                Box::new(|| {
                    let mut f = Fabric::new(sample::three_tier());
                    // Every second instruction towards S2 is dropped.
                    f.degrade_channel(sample::S2, 2);
                    f.deploy();
                    f
                }),
            ),
        ];
        for (kind, build) in scenarios {
            let fabric = build();
            let hypothesis = hypothesis_for(&fabric);
            assert!(!hypothesis.is_empty(), "{kind}: nothing localized");
            let engine = CorrelationEngine::new();
            let report = engine.correlate(
                &hypothesis,
                fabric.universe(),
                fabric.change_log(),
                fabric.fault_log(),
            );
            assert!(
                report.causes_by_kind().contains_key(&kind),
                "{kind}: expected diagnosis missing, got {:?}",
                report.causes_by_kind().keys().collect::<Vec<_>>()
            );
            assert_eq!(report.most_likely()[0].0, kind, "{kind} must rank first");
        }
    }

    /// Conflicting logs: two different faults are active on the same switch
    /// when the divergence appears. The engine must surface *both* candidate
    /// causes rather than picking one arbitrarily, and rank them by how many
    /// hypothesis objects each explains.
    #[test]
    fn conflicting_logs_surface_every_candidate_cause() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.crash_agent(sample::S2);
        fabric.disconnect_switch(sample::S2);
        fabric.deploy();
        let hypothesis = hypothesis_for(&fabric);
        assert!(!hypothesis.is_empty());

        let engine = CorrelationEngine::new();
        let report = engine.correlate(
            &hypothesis,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        );
        let by_kind = report.causes_by_kind();
        assert!(by_kind.contains_key(&FaultKind::AgentCrash), "{by_kind:?}");
        assert!(
            by_kind.contains_key(&FaultKind::SwitchUnreachable),
            "{by_kind:?}"
        );
        // Both faults cover the same switch, so they explain the same objects
        // and the ranking falls back to the deterministic kind order.
        let ranked = report.most_likely();
        assert_eq!(ranked.len(), 2);
        assert_eq!(ranked[0].1, ranked[1].1, "equal coverage");
        // No implicated object is left unknown: something explains each.
        assert!(report.unknown_objects().is_empty());
    }

    /// The repair audit events emitted by the fabric's repair hooks are
    /// pre-cleared and must never show up as root causes, even though
    /// `FaultKind::Repair` entries sit in the same log.
    #[test]
    fn repair_audit_events_are_never_root_causes() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        // A repaired-then-rebroken switch: the old repair event must not be
        // blamed for the new divergence.
        fabric.evict_tcam(sample::S2, 1, false);
        fabric.repair_switch(sample::S2);
        assert!(!fabric
            .fault_log()
            .entries_of_kind(FaultKind::Repair)
            .is_empty());
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let hypothesis = hypothesis_for(&fabric);
        assert!(!hypothesis.is_empty());
        let engine = CorrelationEngine::new();
        let report = engine.correlate(
            &hypothesis,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        );
        assert!(!report.causes_by_kind().contains_key(&FaultKind::Repair));
        // The silent removal has no log at all: every object is unknown.
        assert_eq!(report.unknown_objects().len(), hypothesis.len());
    }

    /// An extended library recognizes a fault kind the standard one treats as
    /// unknown — the mechanism that lets admins grow the engine's coverage.
    #[test]
    fn extended_library_attributes_what_standard_cannot() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
            .corrupt_tcam(sample::S2, 0, scout_fabric::CorruptionKind::VrfBit)
            .unwrap();
        // Suppose a hardware scrubber *did* log the corruption this time.
        let t = fabric.now();
        fabric.fault_log_mut().raise(
            t,
            Some(sample::S2),
            FaultKind::TcamCorruption,
            scout_fabric::Severity::Warning,
            "parity error reported by scrubber",
        );
        let hypothesis = hypothesis_for(&fabric);
        assert!(!hypothesis.is_empty());

        // Standard library: the kind has no signature, objects stay unknown.
        let standard = CorrelationEngine::new().correlate(
            &hypothesis,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        );
        assert!(!standard
            .causes_by_kind()
            .contains_key(&FaultKind::TcamCorruption));
        assert_eq!(standard.unknown_objects().len(), hypothesis.len());

        // Extended library: the same log entry becomes the diagnosis.
        let mut lib = SignatureLibrary::standard();
        lib.add(FaultKind::TcamCorruption);
        let extended = CorrelationEngine::with_signatures(lib).correlate(
            &hypothesis,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
        );
        assert!(extended
            .causes_by_kind()
            .contains_key(&FaultKind::TcamCorruption));
        assert!(extended.unknown_objects().is_empty());
    }

    #[test]
    fn signature_library_can_be_extended() {
        let mut lib = SignatureLibrary::empty();
        lib.add(FaultKind::TcamCorruption);
        assert!(lib.matches(FaultKind::TcamCorruption));
        assert!(!lib.matches(FaultKind::TcamOverflow));
        assert_eq!(lib.len(), 1);
        assert_eq!(SignatureLibrary::standard().len(), 5);
    }

    #[test]
    fn root_cause_kind_accessor() {
        let cause = RootCause::Physical {
            kind: FaultKind::AgentCrash,
            switch: Some(sample::S1),
            observed_at: Timestamp::new(5),
            message: "crash".to_string(),
        };
        assert_eq!(cause.kind(), Some(FaultKind::AgentCrash));
        assert_eq!(RootCause::Unknown.kind(), None);
    }
}
