//! Scoring one fault-injection run against its ground truth.
//!
//! Every accuracy experiment of the paper's evaluation (§VI) is the same
//! measurement: inject faults with a known ground truth, then score SCOUT's
//! hypothesis and SCORE-1.0's against it. This module is that measurement,
//! once: [`Scored`] holds one run's result, [`score_baseline`] is the one
//! SCORE-1.0 call on the evidence SCOUT used, `attributed` is the one
//! attribution rule, and [`AccuracyStats`] aggregates a population of runs.
//! The clean campaign, the hostile suite, the soak timeline and the
//! `scout-bench` figures all score through it.

use std::collections::BTreeSet;

use scout_core::{failure_subgraph, score_localize, ScoutReport};
use scout_fabric::Fabric;
use scout_metrics::{fmt_mean, Accuracy, Summary};
use scout_policy::ObjectId;

/// `true` if a hypothesis points at the ground truth: it meets a non-empty
/// truth, or both are empty (nothing to find, nothing reported).
pub(crate) fn attributed(truth: &BTreeSet<ObjectId>, hypothesis: &BTreeSet<ObjectId>) -> bool {
    if truth.is_empty() {
        hypothesis.is_empty()
    } else {
        !hypothesis.is_disjoint(truth)
    }
}

/// SCORE-1.0's hypothesis on the evidence behind `report`: the failure
/// subgraph of its check on `fabric`'s universe, on which SCORE-1.0 names
/// the objects it names on the whole augmented model (on a consistent
/// fabric the subgraph is empty and it returns nothing).
pub fn score_baseline(fabric: &Fabric, report: &ScoutReport) -> BTreeSet<ObjectId> {
    score_localize(&failure_subgraph(fabric.universe(), &report.check), 1.0).objects()
}

/// One run scored against its ground truth.
#[derive(Debug, Clone, PartialEq)]
pub struct Scored {
    /// The ground truth: objects a perfect localizer should implicate.
    pub truth: BTreeSet<ObjectId>,
    /// SCOUT's hypothesis.
    pub hypothesis: BTreeSet<ObjectId>,
    /// The pre-localization suspect set (what an admin would examine).
    pub suspects: BTreeSet<ObjectId>,
    /// `true` if the pipeline found no L–T divergence.
    pub consistent: bool,
    /// The suspect-set reduction ratio γ of the run.
    pub gamma: f64,
    /// SCOUT precision/recall against the ground truth.
    pub scout: Accuracy,
    /// SCORE-1.0 precision/recall against the same ground truth and evidence.
    pub score: Accuracy,
    /// `true` if SCOUT pointed at the ground truth: the hypothesis meets a
    /// non-empty truth, or both are empty.
    pub attributed: bool,
}

impl Scored {
    /// Scores SCOUT's `report` and SCORE-1.0's `score_objects` (from
    /// [`score_baseline`]) against `truth`.
    pub fn of(
        truth: BTreeSet<ObjectId>,
        report: &ScoutReport,
        score_objects: &BTreeSet<ObjectId>,
    ) -> Self {
        let hypothesis = report.hypothesis.objects();
        Self {
            scout: Accuracy::of(&truth, &hypothesis),
            score: Accuracy::of(&truth, score_objects),
            attributed: attributed(&truth, &hypothesis),
            consistent: report.is_consistent(),
            gamma: report.gamma(),
            suspects: report.suspect_objects.clone(),
            hypothesis,
            truth,
        }
    }

    /// `true` if the run had something to find.
    pub(crate) fn is_faulty(&self) -> bool {
        !self.truth.is_empty()
    }

    /// `true` if the run was faulty and the pipeline flagged it.
    pub(crate) fn is_detected(&self) -> bool {
        self.is_faulty() && !self.consistent
    }
}

/// The accuracy aggregate of a population of scored runs. Accuracy is taken
/// over the faulty runs only (a fault-free run has nothing to find) and γ
/// over the detected ones only (an undetected run reduced nothing).
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyStats {
    /// Number of runs.
    pub scenarios: usize,
    /// Runs with a non-empty ground truth.
    pub faulty: usize,
    /// Faulty runs the pipeline flagged as inconsistent.
    pub detected: usize,
    /// Faulty runs whose hypothesis intersected the truth.
    pub attributed: usize,
    /// SCOUT precision over the faulty runs.
    pub precision: Summary,
    /// SCOUT recall over the faulty runs.
    pub recall: Summary,
    /// SCORE-1.0 recall over the faulty runs.
    pub score_recall: Summary,
    /// γ over the detected runs.
    pub gamma: Summary,
}

impl AccuracyStats {
    /// Aggregates `runs`, in order.
    pub fn of<'a>(runs: impl IntoIterator<Item = &'a Scored>) -> Self {
        let runs: Vec<&Scored> = runs.into_iter().collect();
        let faulty: Vec<&Scored> = runs.iter().copied().filter(|s| s.is_faulty()).collect();
        Self {
            scenarios: runs.len(),
            faulty: faulty.len(),
            detected: faulty.iter().filter(|s| s.is_detected()).count(),
            attributed: faulty.iter().filter(|s| s.attributed).count(),
            precision: Summary::of(faulty.iter().map(|s| s.scout.precision)),
            recall: Summary::of(faulty.iter().map(|s| s.scout.recall)),
            score_recall: Summary::of(faulty.iter().map(|s| s.score.recall)),
            gamma: Summary::of(faulty.iter().filter(|s| s.is_detected()).map(|s| s.gamma)),
        }
    }

    /// The `P(SCOUT)`, `R(SCOUT)`, `R(SCORE)` and `mean γ` table cells; an
    /// empty population renders `"-"`, never a fabricated `0.000`.
    pub fn cells(&self) -> [String; 4] {
        [
            fmt_mean(&self.precision),
            fmt_mean(&self.recall),
            fmt_mean(&self.score_recall),
            fmt_mean(&self.gamma),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_core::ScoutEngine;
    use scout_policy::{sample, FilterId};

    fn objs(ids: &[u32]) -> BTreeSet<ObjectId> {
        ids.iter()
            .map(|&i| ObjectId::Filter(FilterId::new(i)))
            .collect()
    }

    /// A report on the sample fabric: consistent, or with S2's TCAM emptied.
    fn report(faulty: bool) -> ScoutReport {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        if faulty {
            fabric.evict_tcam(sample::S2, usize::MAX, false);
        }
        ScoutEngine::new().analyze(&fabric)
    }

    /// A hand-built run: only the fields the aggregate reads are meaningful.
    fn run(truth: &[u32], hypothesis: &[u32], consistent: bool) -> Scored {
        let (truth, hypothesis) = (objs(truth), objs(hypothesis));
        Scored {
            scout: Accuracy::of(&truth, &hypothesis),
            score: Accuracy::of(&truth, &BTreeSet::new()),
            attributed: attributed(&truth, &hypothesis),
            consistent,
            gamma: if consistent { 0.0 } else { 0.5 },
            suspects: hypothesis.clone(),
            hypothesis,
            truth,
        }
    }

    #[test]
    fn empty_truth_and_empty_hypothesis_is_attributed_and_perfect() {
        let s = Scored::of(BTreeSet::new(), &report(false), &BTreeSet::new());
        assert!(s.consistent && s.hypothesis.is_empty());
        assert!(s.attributed);
        assert_eq!((s.scout.precision, s.scout.recall), (1.0, 1.0));
        assert_eq!((s.score.precision, s.score.recall), (1.0, 1.0));
        assert!(!s.is_faulty() && !s.is_detected());
    }

    #[test]
    fn a_hypothesis_must_meet_the_truth_to_be_attributed() {
        let report = report(true);
        let hypothesis = report.hypothesis.objects();
        assert!(!hypothesis.is_empty());
        // Nothing to find, something reported: a false alarm.
        let alarm = Scored::of(BTreeSet::new(), &report, &BTreeSet::new());
        assert!(!alarm.attributed);
        assert_eq!(alarm.scout.precision, 0.0);
        // A truth the hypothesis misses entirely.
        let elsewhere = objs(&[9999]);
        assert!(hypothesis.is_disjoint(&elsewhere));
        let missed = Scored::of(elsewhere.clone(), &report, &elsewhere);
        assert!(!missed.attributed && missed.is_detected());
        assert_eq!((missed.scout.precision, missed.scout.recall), (0.0, 0.0));
        // SCORE is scored against the same truth.
        assert_eq!((missed.score.precision, missed.score.recall), (1.0, 1.0));
        // Any overlap attributes.
        let first = BTreeSet::from([*hypothesis.first().unwrap()]);
        assert!(Scored::of(first, &report, &BTreeSet::new()).attributed);
        assert_eq!(missed.suspects, report.suspect_objects);
        assert_eq!(missed.gamma, report.gamma());
    }

    #[test]
    fn fault_free_runs_are_excluded_from_precision_and_recall() {
        // A fault-free false alarm would drag precision to 0 if it counted;
        // it only counts as a scenario.
        let runs = [run(&[], &[7], false), run(&[1], &[1], false)];
        let stats = AccuracyStats::of(&runs);
        assert_eq!((stats.scenarios, stats.faulty, stats.detected), (2, 1, 1));
        assert_eq!(stats.attributed, 1);
        assert_eq!(stats.precision.count, 1);
        assert_eq!(stats.precision.mean, 1.0);
        assert_eq!(stats.recall.mean, 1.0);
        assert_eq!(stats.score_recall.mean, 0.0);
    }

    #[test]
    fn undetected_runs_are_excluded_from_gamma() {
        let runs = [run(&[1], &[], true), run(&[2], &[2], false)];
        let stats = AccuracyStats::of(&runs);
        assert_eq!((stats.faulty, stats.detected), (2, 1));
        assert_eq!(stats.recall.count, 2);
        assert_eq!(stats.gamma.count, 1);
        assert_eq!(stats.gamma.mean, 0.5);
    }

    #[test]
    fn an_empty_population_renders_dashes() {
        let stats = AccuracyStats::of(&[]);
        assert_eq!(stats.scenarios, 0);
        assert_eq!(stats.cells(), ["-", "-", "-", "-"].map(String::from));
        // Faulty but never detected: accuracy renders, γ does not.
        let cells = AccuracyStats::of(&[run(&[1], &[], true)]).cells();
        assert_eq!(cells[1], "0.000");
        assert_eq!(cells[3], "-");
    }
}
