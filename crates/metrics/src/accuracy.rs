//! Accuracy metrics: precision, recall and the suspect-set reduction γ.
//!
//! The paper measures localization quality with precision `|G ∩ H| / |H|` and
//! recall `|G ∩ H| / |G|`, where `H` is the hypothesis and `G` the ground
//! truth, and reports the suspect-set reduction ratio γ (hypothesis size over
//! the number of objects the failed EPG pairs depend on) as the measure of how
//! much manual work SCOUT saves (§VI).

use std::collections::BTreeSet;

use scout_policy::ObjectId;

/// Precision, recall and the counts behind them for one localization run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Accuracy {
    /// Fraction of reported objects that are truly faulty (`|G∩H| / |H|`).
    pub precision: f64,
    /// Fraction of truly faulty objects that are reported (`|G∩H| / |G|`).
    pub recall: f64,
    /// Number of true positives (`|G∩H|`).
    pub true_positives: usize,
    /// Number of false positives (`|H \ G|`).
    pub false_positives: usize,
    /// Number of false negatives (`|G \ H|`).
    pub false_negatives: usize,
}

impl Accuracy {
    /// Computes accuracy of `hypothesis` against `ground_truth`.
    ///
    /// An empty hypothesis has precision 1 by convention (no false positives);
    /// an empty ground truth has recall 1 (nothing to find).
    pub fn of(ground_truth: &BTreeSet<ObjectId>, hypothesis: &BTreeSet<ObjectId>) -> Self {
        let true_positives = ground_truth.intersection(hypothesis).count();
        let false_positives = hypothesis.len() - true_positives;
        let false_negatives = ground_truth.len() - true_positives;
        let precision = if hypothesis.is_empty() {
            1.0
        } else {
            true_positives as f64 / hypothesis.len() as f64
        };
        let recall = if ground_truth.is_empty() {
            1.0
        } else {
            true_positives as f64 / ground_truth.len() as f64
        };
        Self {
            precision,
            recall,
            true_positives,
            false_positives,
            false_negatives,
        }
    }
}

/// The suspect-set reduction ratio γ = |hypothesis| / |suspect set| (§VI).
///
/// Returns 0 when the suspect set is empty (nothing to examine either way).
pub fn gamma(hypothesis_size: usize, suspect_set_size: usize) -> f64 {
    if suspect_set_size == 0 {
        0.0
    } else {
        hypothesis_size as f64 / suspect_set_size as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::{EpgId, FilterId, VrfId};

    fn objs(ids: &[u32]) -> BTreeSet<ObjectId> {
        ids.iter()
            .map(|&i| ObjectId::Filter(FilterId::new(i)))
            .collect()
    }

    #[test]
    fn perfect_hypothesis_scores_one() {
        let g = objs(&[1, 2, 3]);
        let acc = Accuracy::of(&g, &g.clone());
        assert_eq!(acc.precision, 1.0);
        assert_eq!(acc.recall, 1.0);
        assert_eq!(acc.true_positives, 3);
        assert_eq!(acc.false_positives, 0);
        assert_eq!(acc.false_negatives, 0);
    }

    #[test]
    fn partial_overlap_is_measured() {
        let g = objs(&[1, 2, 3, 4]);
        let h = objs(&[3, 4, 5]);
        let acc = Accuracy::of(&g, &h);
        assert!((acc.precision - 2.0 / 3.0).abs() < 1e-12);
        assert!((acc.recall - 0.5).abs() < 1e-12);
        assert_eq!(acc.true_positives, 2);
        assert_eq!(acc.false_positives, 1);
        assert_eq!(acc.false_negatives, 2);
    }

    #[test]
    fn disjoint_sets_score_zero() {
        let g = objs(&[1]);
        let h = objs(&[2]);
        let acc = Accuracy::of(&g, &h);
        assert_eq!(acc.precision, 0.0);
        assert_eq!(acc.recall, 0.0);
    }

    #[test]
    fn empty_edge_cases_follow_conventions() {
        let empty = BTreeSet::new();
        let some = objs(&[1]);
        assert_eq!(Accuracy::of(&some, &empty).precision, 1.0);
        assert_eq!(Accuracy::of(&some, &empty).recall, 0.0);
        assert_eq!(Accuracy::of(&empty, &some).recall, 1.0);
        assert_eq!(Accuracy::of(&empty, &some).precision, 0.0);
        assert_eq!(Accuracy::of(&empty, &empty).precision, 1.0);
        assert_eq!(Accuracy::of(&empty, &empty).recall, 1.0);
    }

    #[test]
    fn object_classes_are_distinguished() {
        // A VRF and an EPG with the same raw id must not be confused.
        let g: BTreeSet<ObjectId> = [ObjectId::Vrf(VrfId::new(1))].into_iter().collect();
        let h: BTreeSet<ObjectId> = [ObjectId::Epg(EpgId::new(1))].into_iter().collect();
        let acc = Accuracy::of(&g, &h);
        assert_eq!((acc.precision, acc.recall), (0.0, 0.0));
    }

    #[test]
    fn gamma_ratio() {
        assert_eq!(gamma(5, 100), 0.05);
        assert_eq!(gamma(0, 100), 0.0);
        assert_eq!(gamma(3, 0), 0.0);
    }
}
