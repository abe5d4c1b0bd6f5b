//! Fault localization algorithms: SCOUT (the paper's contribution, Algorithms
//! 1 and 2) and the SCORE baseline it is compared against.
//!
//! Both algorithms consume an augmented [`RiskModel`] and output a
//! [`Hypothesis`]: a small set of policy objects that explains the observed
//! failures. SCOUT additionally consults the controller's change log to
//! attribute observations that no fully-failed risk explains (the
//! "recently-modified object" heuristic of §IV-C).

use std::collections::{BTreeMap, BTreeSet};

use scout_fabric::{ChangeLog, Timestamp};
use scout_policy::ObjectId;

use crate::risk::RiskModel;

/// How an object ended up in the hypothesis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Evidence {
    /// Selected by the greedy cover stage: every dependent of the object in the
    /// (pruned) risk model had a failed edge (hit ratio 1) and the object had
    /// maximal coverage.
    FullCover,
    /// Selected by the change-log stage: the object was the most recently
    /// modified among the failed risks of an otherwise unexplained observation.
    RecentChange {
        /// Time of the change-log entry that implicated the object.
        changed_at: Timestamp,
    },
    /// Selected by the SCORE baseline (hit ratio above its threshold and
    /// maximal residual coverage).
    ScoreCover,
}

/// The output of a localization run: the hypothesis (suspected faulty objects)
/// plus bookkeeping about how well it explains the failure signature.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Hypothesis {
    /// The suspected objects and the evidence that put them here
    /// (crate-visible so the snapshot codec can rebuild a hypothesis).
    pub(crate) objects: BTreeMap<ObjectId, Evidence>,
    /// Number of observations in the failure signature.
    pub observations: usize,
    /// Number of observations explained by the cover stage.
    pub explained_by_cover: usize,
    /// Number of observations attributed through the change log.
    pub explained_by_changelog: usize,
    /// Number of observations left unexplained.
    pub unexplained: usize,
}

impl Hypothesis {
    /// The suspected faulty objects.
    pub fn objects(&self) -> BTreeSet<ObjectId> {
        self.objects.keys().copied().collect()
    }

    /// The evidence recorded for `object`, if it is part of the hypothesis.
    pub fn evidence(&self, object: ObjectId) -> Option<Evidence> {
        self.objects.get(&object).copied()
    }

    /// Number of objects in the hypothesis.
    pub fn len(&self) -> usize {
        self.objects.len()
    }

    /// Returns `true` if the hypothesis is empty.
    pub fn is_empty(&self) -> bool {
        self.objects.is_empty()
    }

    /// Returns `true` if `object` is part of the hypothesis.
    pub fn contains(&self, object: ObjectId) -> bool {
        self.objects.contains_key(&object)
    }

    /// Iterates over `(object, evidence)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&ObjectId, &Evidence)> {
        self.objects.iter()
    }

    fn insert(&mut self, object: ObjectId, evidence: Evidence) {
        self.objects.entry(object).or_insert(evidence);
    }
}

/// Configuration of the SCOUT algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScoutConfig {
    /// Change-log stage "recency" window, in simulated ticks.
    ///
    /// For an unexplained observation the stage looks at the failed risks of
    /// that observation, finds the one changed most recently, and selects
    /// every candidate whose latest change falls within this window of that
    /// time. `None` selects only the strictly most recently changed
    /// candidate(s). The default of 16 ticks comfortably groups the entries of
    /// one policy-update batch while excluding the much older initial
    /// deployment entries.
    pub recent_window: Option<u64>,
}

impl ScoutConfig {
    /// Default recency window (in ticks) of the change-log stage.
    pub const DEFAULT_RECENT_WINDOW: u64 = 16;
}

impl Default for ScoutConfig {
    fn default() -> Self {
        Self {
            recent_window: Some(Self::DEFAULT_RECENT_WINDOW),
        }
    }
}

/// Runs the SCOUT fault localization algorithm (Algorithm 1 + 2 of the paper).
///
/// Stage 1 repeatedly picks the shared risks whose hit ratio is 1 and whose
/// coverage over the still-unexplained observations is maximal, prunes every
/// element depending on them, and adds them to the hypothesis. Stage 2
/// attributes any remaining observation to the most recently changed object
/// among its failed risks, using the controller change log.
///
/// The cover stage operates on the model's
/// [failure subgraph](RiskModel::failure_subgraph) rather than a full working
/// clone: the failed risks whose dependents are all observations. Pruning
/// removes only dependents of hit-ratio-1 risks, i.e. observations, so a
/// risk with a healthy dependent can never reach hit ratio 1 and leaving it
/// out changes no count the stage reads. The result is bit-identical to the
/// full model's, at a cost proportional to the failure signature instead of
/// the policy universe.
pub fn scout_localize<E: Ord + Copy>(
    model: &RiskModel<E>,
    change_log: &ChangeLog,
    config: ScoutConfig,
) -> Hypothesis {
    let signature = model.failure_signature();
    let mut hypothesis = Hypothesis {
        observations: signature.len(),
        ..Hypothesis::default()
    };
    if signature.is_empty() {
        return hypothesis;
    }

    let mut work = model.failure_subgraph();
    let mut unexplained: BTreeSet<E> = signature;

    // Stage 1: greedy cover with hit-ratio-1 candidates (Algorithm 2).
    loop {
        if unexplained.is_empty() {
            break;
        }
        // Shared risks implicated by the remaining observations.
        let candidates: BTreeSet<ObjectId> = unexplained
            .iter()
            .flat_map(|o| work.failed_risks_of(o))
            .collect();

        // hitSet: candidates whose every dependent (in the pruned model) failed.
        let hit_set: Vec<ObjectId> = candidates
            .into_iter()
            .filter(|&risk| {
                let total = work.dependent_count(risk);
                total > 0 && work.failed_dependent_count(risk) == total
            })
            .collect();
        if hit_set.is_empty() {
            break;
        }

        // getMaxCovSet: keep the risks with the highest coverage.
        let best_coverage = hit_set
            .iter()
            .map(|&risk| work.failed_dependent_count(risk))
            .max()
            .unwrap_or(0);
        if best_coverage == 0 {
            break;
        }
        let faulty_set: Vec<ObjectId> = hit_set
            .into_iter()
            .filter(|&risk| work.failed_dependent_count(risk) == best_coverage)
            .collect();

        // Prune every element depending on a selected risk and account for the
        // observations that are now explained.
        let mut affected: BTreeSet<E> = BTreeSet::new();
        for &risk in &faulty_set {
            affected.extend(work.dependents_of(risk));
        }
        let newly_explained = unexplained.iter().filter(|o| affected.contains(o)).count();
        hypothesis.explained_by_cover += newly_explained;
        unexplained.retain(|o| !affected.contains(o));
        work.prune_elements(&affected);
        for risk in faulty_set {
            hypothesis.insert(risk, Evidence::FullCover);
        }
    }

    // Stage 2: change-log heuristic for the leftover observations.
    let mut still_unexplained = 0usize;
    if !unexplained.is_empty() {
        for observation in &unexplained {
            let failed_risks = model.failed_risks_of(observation);
            let recent = most_recent_changes(&failed_risks, change_log, config.recent_window);
            if recent.is_empty() {
                still_unexplained += 1;
            } else {
                hypothesis.explained_by_changelog += 1;
                for (object, changed_at) in recent {
                    hypothesis.insert(object, Evidence::RecentChange { changed_at });
                }
            }
        }
    }
    hypothesis.unexplained = still_unexplained;
    hypothesis
}

/// Among `candidates`, returns the recently-changed objects: every candidate
/// whose latest change-log entry lies within `window` ticks of the most
/// recently changed candidate. With `window = None` only the strictly latest
/// candidate(s) are returned. Candidates with no change entry never qualify.
fn most_recent_changes(
    candidates: &BTreeSet<ObjectId>,
    change_log: &ChangeLog,
    window: Option<u64>,
) -> Vec<(ObjectId, Timestamp)> {
    let last_changes: Vec<(ObjectId, Timestamp)> = candidates
        .iter()
        .filter_map(|&object| {
            change_log
                .last_entry_for(object)
                .map(|entry| (object, entry.time))
        })
        .collect();
    let Some(&newest) = last_changes.iter().map(|(_, t)| t).max() else {
        return Vec::new();
    };
    let window = window.unwrap_or(0);
    last_changes
        .into_iter()
        .filter(|(_, t)| newest.since(*t) <= window)
        .collect()
}

/// Runs the SCORE baseline algorithm (Kompella et al., used as the comparison
/// point in §VI of the paper).
///
/// Candidate risks are those whose hit ratio is at least `threshold` (computed
/// on the full, un-pruned model); the algorithm then greedily picks the
/// candidate covering the most still-unexplained observations until no
/// candidate covers anything new.
pub fn score_localize<E: Ord + Copy>(model: &RiskModel<E>, threshold: f64) -> Hypothesis {
    let signature = model.failure_signature();
    let mut hypothesis = Hypothesis {
        observations: signature.len(),
        ..Hypothesis::default()
    };
    if signature.is_empty() {
        return hypothesis;
    }

    let candidates: Vec<ObjectId> = model
        .risks()
        .copied()
        .filter(|&risk| model.hit_ratio(risk) + f64::EPSILON >= threshold)
        .collect();

    let mut unexplained: BTreeSet<E> = signature;
    loop {
        let mut best: Option<(ObjectId, usize)> = None;
        for &candidate in &candidates {
            if hypothesis.contains(candidate) {
                continue;
            }
            let covered = model
                .failed_dependents_of(candidate)
                .intersection(&unexplained)
                .count();
            if covered == 0 {
                continue;
            }
            match best {
                Some((_, best_covered)) if best_covered >= covered => {}
                _ => best = Some((candidate, covered)),
            }
        }
        let Some((chosen, _)) = best else {
            break;
        };
        let covered: BTreeSet<E> = model
            .failed_dependents_of(chosen)
            .intersection(&unexplained)
            .copied()
            .collect();
        hypothesis.explained_by_cover += covered.len();
        unexplained.retain(|o| !covered.contains(o));
        hypothesis.insert(chosen, Evidence::ScoreCover);
        if unexplained.is_empty() {
            break;
        }
    }
    hypothesis.unexplained = unexplained.len();
    hypothesis
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_fabric::ChangeAction;
    use scout_policy::{ContractId, EpgId, EpgPair, FilterId, VrfId};

    fn pair(a: u32, b: u32) -> EpgPair {
        EpgPair::new(EpgId::new(a), EpgId::new(b))
    }

    fn filter(i: u32) -> ObjectId {
        ObjectId::Filter(FilterId::new(i))
    }

    fn contract(i: u32) -> ObjectId {
        ObjectId::Contract(ContractId::new(i))
    }

    /// Builds the risk model of Figure 5 of the paper.
    ///
    /// Elements E1-E2 … E6-E7; risks C1, F1, F2, C2, C3, F3. The failed
    /// observations are E1-E2, E2-E3, E3-E4, E4-E5 (all covered by F2) and
    /// E6-E7 (covered only partially by C3/F3).
    fn figure5_model() -> RiskModel<EpgPair> {
        let mut m: RiskModel<EpgPair> = RiskModel::new();
        let e12 = pair(1, 2);
        let e23 = pair(2, 3);
        let e34 = pair(3, 4);
        let e45 = pair(4, 5);
        let e56 = pair(5, 6);
        let e67 = pair(6, 7);

        // C1: only a success edge to E1-E2 (hit 0, coverage 0).
        m.add_edge(e12, contract(1));
        // F1: fully failed, covers E1-E2 and E2-E3 (hit 1, coverage 0.4).
        m.mark_failed(e12, filter(1));
        m.mark_failed(e23, filter(1));
        // F2: fully failed, covers the first four pairs (hit 1, coverage 0.8).
        for e in [e12, e23, e34, e45] {
            m.mark_failed(e, filter(2));
        }
        // C2: fully failed, covers E3-E4 and E4-E5 (hit 1, coverage 0.4).
        m.mark_failed(e34, contract(2));
        m.mark_failed(e45, contract(2));
        // C3 and F3: three dependents each, only E6-E7 failed (hit ~0.3).
        for e in [e45, e56, e67] {
            m.add_edge(e, contract(3));
            m.add_edge(e, filter(3));
        }
        m.mark_failed(e67, contract(3));
        m.mark_failed(e67, filter(3));
        m
    }

    fn figure5_change_log() -> ChangeLog {
        let mut log = ChangeLog::new();
        // Old creation entries for every object.
        for (i, obj) in [contract(1), filter(1), filter(2), contract(2), contract(3)]
            .into_iter()
            .enumerate()
        {
            log.record(
                Timestamp::new(i as u64 + 1),
                obj,
                ChangeAction::Create,
                None,
                "initial",
            );
        }
        log.record(
            Timestamp::new(6),
            filter(3),
            ChangeAction::Create,
            None,
            "initial",
        );
        // F3 was modified recently.
        log.record(
            Timestamp::new(100),
            filter(3),
            ChangeAction::Modify,
            None,
            "filter entries changed",
        );
        log
    }

    #[test]
    fn fig5_example_scout_picks_f2_then_f3() {
        let model = figure5_model();
        let log = figure5_change_log();
        let hypothesis = scout_localize(&model, &log, ScoutConfig::default());
        assert_eq!(hypothesis.objects(), BTreeSet::from([filter(2), filter(3)]));
        assert_eq!(hypothesis.evidence(filter(2)), Some(Evidence::FullCover));
        assert_eq!(
            hypothesis.evidence(filter(3)),
            Some(Evidence::RecentChange {
                changed_at: Timestamp::new(100)
            })
        );
        assert_eq!(hypothesis.observations, 5);
        assert_eq!(hypothesis.explained_by_cover, 4);
        assert_eq!(hypothesis.explained_by_changelog, 1);
        assert_eq!(hypothesis.unexplained, 0);
    }

    #[test]
    fn fig5_example_score_misses_the_partial_fault() {
        let model = figure5_model();
        let hypothesis = score_localize(&model, 1.0);
        // SCORE finds F2 but not F3 (hit ratio 1/3 is below the threshold).
        assert_eq!(hypothesis.objects(), BTreeSet::from([filter(2)]));
        assert_eq!(hypothesis.unexplained, 1);
    }

    #[test]
    fn score_with_lower_threshold_still_prefers_high_coverage() {
        let model = figure5_model();
        let hypothesis = score_localize(&model, 0.3);
        // With threshold 0.3, C3/F3 qualify and one of them is picked to cover
        // E6-E7 after F2 explains the rest.
        assert!(hypothesis.contains(filter(2)));
        assert!(hypothesis.contains(filter(3)) || hypothesis.contains(contract(3)));
        assert_eq!(hypothesis.unexplained, 0);
    }

    #[test]
    fn empty_signature_yields_empty_hypothesis() {
        let mut m: RiskModel<EpgPair> = RiskModel::new();
        m.add_edge(pair(1, 2), filter(1));
        let log = ChangeLog::new();
        let h = scout_localize(&m, &log, ScoutConfig::default());
        assert!(h.is_empty());
        assert_eq!(h.observations, 0);
        let s = score_localize(&m, 1.0);
        assert!(s.is_empty());
    }

    #[test]
    fn scout_without_change_log_leaves_partial_faults_unexplained() {
        let model = figure5_model();
        let empty_log = ChangeLog::new();
        let h = scout_localize(&model, &empty_log, ScoutConfig::default());
        assert_eq!(h.objects(), BTreeSet::from([filter(2)]));
        assert_eq!(h.unexplained, 1);
    }

    #[test]
    fn scout_respects_recent_window() {
        let model = figure5_model();
        let mut log = figure5_change_log();
        // C3 was also touched, but well before F3's recent modification.
        log.record(
            Timestamp::new(20),
            contract(3),
            ChangeAction::Modify,
            None,
            "old change",
        );
        // Tight window: only the most recent candidate (F3) qualifies.
        let tight = ScoutConfig {
            recent_window: Some(50),
        };
        let h = scout_localize(&model, &log, tight);
        assert_eq!(h.objects(), BTreeSet::from([filter(2), filter(3)]));
        // Wide window: C3's older change also falls inside and is reported.
        let wide = ScoutConfig {
            recent_window: Some(200),
        };
        let h = scout_localize(&model, &log, wide);
        assert_eq!(
            h.objects(),
            BTreeSet::from([filter(2), filter(3), contract(3)])
        );
        // `None` keeps only the strictly latest candidate.
        let strict = ScoutConfig {
            recent_window: None,
        };
        let h = scout_localize(&model, &log, strict);
        assert_eq!(h.objects(), BTreeSet::from([filter(2), filter(3)]));
    }

    #[test]
    fn scout_handles_multiple_simultaneous_full_faults() {
        // Two disjoint fully-failed risks must both be reported.
        let mut m: RiskModel<EpgPair> = RiskModel::new();
        for i in 0..4 {
            m.mark_failed(pair(i, i + 1), filter(1));
        }
        for i in 10..12 {
            m.mark_failed(pair(i, i + 1), filter(2));
        }
        // A broad risk shared by everything but with one healthy dependent.
        for i in 0..4 {
            m.add_edge(pair(i, i + 1), contract(9));
        }
        for i in 10..12 {
            m.add_edge(pair(i, i + 1), contract(9));
        }
        m.add_edge(pair(50, 51), contract(9));
        let log = ChangeLog::new();
        let h = scout_localize(&m, &log, ScoutConfig::default());
        assert_eq!(h.objects(), BTreeSet::from([filter(1), filter(2)]));
        assert_eq!(h.unexplained, 0);
    }

    #[test]
    fn tied_coverage_selects_all_tied_risks() {
        // Two risks each fully failed over the same single observation.
        let mut m: RiskModel<EpgPair> = RiskModel::new();
        m.mark_failed(pair(1, 2), filter(1));
        m.mark_failed(pair(1, 2), contract(1));
        let log = ChangeLog::new();
        let h = scout_localize(&m, &log, ScoutConfig::default());
        assert_eq!(h.objects(), BTreeSet::from([filter(1), contract(1)]));
    }

    #[test]
    fn hypothesis_accessors() {
        let model = figure5_model();
        let log = figure5_change_log();
        let h = scout_localize(&model, &log, ScoutConfig::default());
        assert_eq!(h.len(), 2);
        assert!(!h.is_empty());
        assert!(h.contains(filter(2)));
        assert!(!h.contains(contract(1)));
        assert_eq!(h.iter().count(), 2);
        assert_eq!(h.evidence(contract(1)), None);
    }

    #[test]
    fn score_threshold_zero_behaves_like_pure_set_cover() {
        let model = figure5_model();
        let h = score_localize(&model, 0.0);
        // Everything is a candidate; greedy cover explains all observations.
        assert_eq!(h.unexplained, 0);
        assert!(h.contains(filter(2)));
    }

    /// The historical formulation of the cover stage: clone the whole model
    /// and prune it in place. Kept here as the reference the projected
    /// (failure-subgraph) implementation must agree with bit for bit.
    fn reference_scout_localize<E: Ord + Copy>(
        model: &RiskModel<E>,
        change_log: &ChangeLog,
        config: ScoutConfig,
    ) -> Hypothesis {
        let signature = model.failure_signature();
        let mut hypothesis = Hypothesis {
            observations: signature.len(),
            ..Hypothesis::default()
        };
        if signature.is_empty() {
            return hypothesis;
        }
        let mut work = model.clone();
        let mut unexplained: BTreeSet<E> = signature;
        loop {
            if unexplained.is_empty() {
                break;
            }
            let candidates: BTreeSet<ObjectId> = unexplained
                .iter()
                .flat_map(|o| work.failed_risks_of(o))
                .collect();
            let hit_set: Vec<ObjectId> = candidates
                .into_iter()
                .filter(|&risk| {
                    let total = work.dependent_count(risk);
                    total > 0 && work.failed_dependent_count(risk) == total
                })
                .collect();
            if hit_set.is_empty() {
                break;
            }
            let best_coverage = hit_set
                .iter()
                .map(|&risk| work.failed_dependent_count(risk))
                .max()
                .unwrap_or(0);
            if best_coverage == 0 {
                break;
            }
            let faulty_set: Vec<ObjectId> = hit_set
                .into_iter()
                .filter(|&risk| work.failed_dependent_count(risk) == best_coverage)
                .collect();
            let mut affected: BTreeSet<E> = BTreeSet::new();
            for &risk in &faulty_set {
                affected.extend(work.dependents_of(risk));
            }
            let newly_explained = unexplained.iter().filter(|o| affected.contains(o)).count();
            hypothesis.explained_by_cover += newly_explained;
            unexplained.retain(|o| !affected.contains(o));
            work.prune_elements(&affected);
            for risk in faulty_set {
                hypothesis.insert(risk, Evidence::FullCover);
            }
        }
        let mut still_unexplained = 0usize;
        if !unexplained.is_empty() {
            for observation in &unexplained {
                let failed_risks = model.failed_risks_of(observation);
                let recent = most_recent_changes(&failed_risks, change_log, config.recent_window);
                if recent.is_empty() {
                    still_unexplained += 1;
                } else {
                    hypothesis.explained_by_changelog += 1;
                    for (object, changed_at) in recent {
                        hypothesis.insert(object, Evidence::RecentChange { changed_at });
                    }
                }
            }
        }
        hypothesis.unexplained = still_unexplained;
        hypothesis
    }

    /// Risk R reaches hit ratio 1 only after stage 1 prunes an observation
    /// with a *success* edge to R; the projection must keep that edge (so R
    /// is not selected early) and still select R in the second round.
    #[test]
    fn risk_freed_by_pruning_a_success_edge_is_still_selected() {
        let mut m: RiskModel<EpgPair> = RiskModel::new();
        let (a, b, c) = (pair(1, 2), pair(3, 4), pair(5, 6));
        // F1 fully failed over A and B: the first round's pick.
        m.mark_failed(a, filter(1));
        m.mark_failed(b, filter(1));
        // R = C1: failed from C, success from the observation B.
        m.mark_failed(c, contract(1));
        m.add_edge(b, contract(1));
        // A healthy element on an unrelated risk stays out of the picture.
        m.add_edge(pair(7, 8), contract(9));
        m.add_edge(c, contract(9));

        let sub = m.failure_subgraph();
        assert_eq!(sub.dependent_count(contract(1)), 2, "B's success edge kept");
        assert_eq!(sub.hit_ratio(contract(1)), 0.5);
        assert_eq!(sub.dependent_count(contract(9)), 0, "healthy dependent");

        let h = scout_localize(&m, &ChangeLog::new(), ScoutConfig::default());
        assert_eq!(h.objects(), BTreeSet::from([filter(1), contract(1)]));
        assert_eq!(h.explained_by_cover, 3);
        assert_eq!(h.unexplained, 0);
        assert_eq!(
            h,
            reference_scout_localize(&m, &ChangeLog::new(), ScoutConfig::default())
        );
    }

    /// The projected cover stage must agree with the full-clone reference on
    /// random bipartite models with mixed healthy/failed edges: one risk
    /// shared by every element, some elements with no failed edge at all.
    #[test]
    fn projected_localize_matches_full_clone_reference() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let shared = ObjectId::Vrf(VrfId::new(1));
        for seed in 0..1200u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut model: RiskModel<EpgPair> = RiskModel::new();
            let elements = rng.gen_range(1usize..14);
            let healthy = rng.gen_range(0..=elements.min(3));
            for i in 0..elements {
                let e = pair(i as u32 * 2, i as u32 * 2 + 1);
                let fail = if i < healthy { 0.0 } else { 0.4 };
                if rng.gen_bool(fail) {
                    model.mark_failed(e, shared);
                } else {
                    model.add_edge(e, shared);
                }
                for _ in 0..rng.gen_range(0usize..6) {
                    let risk = if rng.gen_bool(0.5) {
                        filter(rng.gen_range(0u32..9))
                    } else {
                        contract(rng.gen_range(0u32..9))
                    };
                    if rng.gen_bool(fail) {
                        model.mark_failed(e, risk);
                    } else {
                        model.add_edge(e, risk);
                    }
                }
            }
            let mut log = ChangeLog::new();
            for i in 0..rng.gen_range(0usize..6) {
                let obj = if rng.gen_bool(0.5) {
                    filter(rng.gen_range(0u32..9))
                } else {
                    contract(rng.gen_range(0u32..9))
                };
                log.record(
                    Timestamp::new(i as u64 * 7 + 1),
                    obj,
                    ChangeAction::Modify,
                    None,
                    "random change",
                );
            }
            let config = ScoutConfig::default();
            assert_eq!(
                scout_localize(&model, &log, config),
                reference_scout_localize(&model, &log, config),
                "seed {seed}"
            );
        }
    }
}
