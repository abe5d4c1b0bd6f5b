//! The failure overlay: a session's standing failure evidence over the
//! controller risk model its policy universe indexes, with its localization
//! cached per failure component.
//!
//! [`ScoutEngine::analyze`](crate::ScoutEngine::analyze) builds the model and
//! marks every missing rule on it. A session, a clone analysis and SCORE's
//! evidence ([`failure_subgraph`]) build none: the edges are the universe's
//! element queries, and a [`FailureOverlay`] counts, per
//! `(element, risk)` edge, the missing rules that implicate it, so an ingest
//! marks its `newly_missing` rules, unmarks its `restored` ones, and an edge
//! heals exactly when its last missing rule is restored.
//!
//! Localization is cached per *component*: observations joined by the risks
//! of the failure subgraph (failed risks whose dependents are all
//! observations, the only risks the cover stage can pick). A stage-1 pick
//! changes counts only inside its own component and stage 2 is per
//! observation, so the report's hypothesis is the merge of the components'
//! ([`Hypothesis::merge`]; `tests/components.rs` pins the decomposition). An
//! ingest re-localizes only the components its changed elements reach, and
//! every other component keeps its cached hypothesis.

use std::collections::{BTreeMap, BTreeSet};

use scout_equiv::NetworkCheckResult;
use scout_fabric::ChangeLog;
use scout_policy::{LogicalRule, ObjectId, PolicyUniverse, SwitchEpgPair, VrfId};

use crate::engine::ScoutReport;
use crate::localization::{localize_failures, Hypothesis, Part, ScoutConfig};
use crate::risk::{EdgeStatus, RiskModel};

/// The failure evidence of a session's current check on the controller
/// model of its universe, and the localization of each of its components.
///
/// Every query answers what the augmented model (the controller model with
/// every missing rule marked) would: a mark whose provenance object lies
/// outside the element's closure adds an edge there, and counts here too.
#[derive(Debug, Default)]
pub(crate) struct FailureOverlay {
    /// `(observation, risk)` → the number of missing rules implicating the
    /// edge. An element is an observation while it has an edge here.
    failed: BTreeMap<(SwitchEpgPair, ObjectId), u32>,
    /// Risk → its dependents that are observations, and those whose edge to
    /// it failed (`|O_i|`), counted. The suspect set is the keys.
    risks: BTreeMap<ObjectId, Dependents>,
    /// Risk → the elements whose edge to it exists only through a mark.
    unmodelled: BTreeMap<ObjectId, BTreeSet<SwitchEpgPair>>,
    /// Component key (its least observation) → its localization.
    components: BTreeMap<SwitchEpgPair, Component>,
    /// Observation → the key of its component.
    component_of: BTreeMap<SwitchEpgPair, SwitchEpgPair>,
}

/// The counted dependents of one risk; a risk failed by an observation is
/// depended on by it, so `failed ≤ observed`.
#[derive(Debug, Default)]
struct Dependents {
    observed: usize,
    failed: usize,
}

/// One failure component and its cached localization.
#[derive(Debug)]
struct Component {
    observations: Vec<SwitchEpgPair>,
    hypothesis: Part,
}

impl FailureOverlay {
    /// Marks `missing` and unmarks `restored` (rules marked before), keeps
    /// `report`'s observations and suspect objects equal to the augmented
    /// model's failure signature and suspect set, and re-localizes every
    /// component the changed elements reach. Returns how many components it
    /// localized.
    ///
    /// The components to drop are those holding a changed element, and those
    /// holding a dependent of a risk of a changed element that is now in the
    /// failure subgraph (a risk that joins components). Only the risks of
    /// changed elements can enter or leave the subgraph, so every other
    /// component keeps its observations, risks and counts.
    pub(crate) fn apply(
        &mut self,
        universe: &PolicyUniverse,
        missing: &[LogicalRule],
        restored: &[LogicalRule],
        change_log: &ChangeLog,
        config: ScoutConfig,
        report: &mut ScoutReport,
    ) -> usize {
        let element = |r: &LogicalRule| SwitchEpgPair::new(r.switch, r.pair());
        let changed: BTreeSet<SwitchEpgPair> =
            missing.iter().chain(restored).map(element).collect();
        let mut reached: BTreeSet<ObjectId> = BTreeSet::new();
        let mut dropped: BTreeSet<SwitchEpgPair> = BTreeSet::new();
        for e in &changed {
            reached.extend(self.risks_of(universe, e));
            dropped.extend(self.component_of.get(e));
        }
        for rule in missing {
            for risk in rule.provenance.objects_with_switch(rule.switch) {
                self.mark(universe, element(rule), risk);
            }
        }
        for rule in restored {
            for risk in rule.provenance.objects_with_switch(rule.switch) {
                self.unmark(universe, element(rule), risk);
            }
        }
        for e in &changed {
            reached.extend(self.risks_of(universe, e));
            if self.is_observation(e) {
                report.observations.insert(*e);
            } else {
                report.observations.remove(e);
            }
        }
        for &risk in &reached {
            if self.risks.contains_key(&risk) {
                report.suspect_objects.insert(risk);
            } else {
                report.suspect_objects.remove(&risk);
            }
            if self.in_subgraph(universe, risk) {
                for d in self.dependents_of(universe, risk) {
                    dropped.extend(self.component_of.get(&d));
                }
            }
        }

        let mut seeds: BTreeSet<SwitchEpgPair> = (changed.into_iter())
            .filter(|e| self.is_observation(e))
            .collect();
        for key in dropped {
            let component = self.components.remove(&key).expect("keys name components");
            for o in component.observations {
                self.component_of.remove(&o);
                if self.is_observation(&o) {
                    seeds.insert(o);
                }
            }
        }
        let mut localized = 0;
        while let Some(&seed) = seeds.first() {
            let (members, risks) = self.component(universe, seed);
            // Both SCOUT stages on the component's slice of the subgraph.
            let work = self.work_graph(universe, &members, &risks);
            let failed_risks = |o: &SwitchEpgPair| self.failed_risks(o).collect();
            let hypothesis =
                localize_failures(work, members.clone(), failed_risks, change_log, config);
            for o in &members {
                let was_seed = seeds.remove(o);
                let fresh = self.component_of.insert(*o, seed).is_none();
                debug_assert!(was_seed && fresh, "{o:?} joined a component not dropped");
            }
            let component = Component {
                observations: members.into_iter().collect(),
                hypothesis: hypothesis.into_part(),
            };
            self.components.insert(seed, component);
            localized += 1;
        }
        localized
    }

    /// The merge of every component's hypothesis: the report's hypothesis.
    pub(crate) fn hypothesis(&self) -> Hypothesis {
        Hypothesis::merge(self.components.values().map(|c| &c.hypothesis))
    }

    /// Counts one more missing rule implicating the edge `(element, risk)`.
    fn mark(&mut self, universe: &PolicyUniverse, element: SwitchEpgPair, risk: ObjectId) {
        let newly_observed = !self.is_observation(&element);
        let count = self.failed.entry((element, risk)).or_insert(0);
        *count += 1;
        if *count > 1 {
            return;
        }
        self.risks.entry(risk).or_default().failed += 1;
        if newly_observed {
            for r in universe.objects_for_element(element) {
                self.risks.entry(r).or_default().observed += 1;
            }
        }
        if !universe.element_depends_on(element, risk) {
            self.unmodelled.entry(risk).or_default().insert(element);
            self.risks.entry(risk).or_default().observed += 1;
        }
    }

    /// Counts one missing rule implicating `(element, risk)` less; the edge
    /// heals when no missing rule implicates it any more.
    fn unmark(&mut self, universe: &PolicyUniverse, element: SwitchEpgPair, risk: ObjectId) {
        let edge = (element, risk);
        let count = self
            .failed
            .get_mut(&edge)
            .expect("only marked edges are unmarked");
        *count -= 1;
        if *count > 0 {
            return;
        }
        self.failed.remove(&edge);
        self.uncount(risk, |d| &mut d.failed);
        if remove_from(&mut self.unmodelled, risk, &element) {
            self.uncount(risk, |d| &mut d.observed);
        }
        if !self.is_observation(&element) {
            for r in universe.objects_for_element(element) {
                self.uncount(r, |d| &mut d.observed);
            }
        }
    }

    /// Counts one dependent of `risk` less in the `field` of its counts,
    /// dropping the risk when no observation depends on it any more.
    fn uncount(&mut self, risk: ObjectId, field: impl Fn(&mut Dependents) -> &mut usize) {
        let dependents = self.risks.get_mut(&risk).expect("risks are counted");
        *field(dependents) -= 1;
        if dependents.observed == 0 {
            self.risks.remove(&risk);
        }
    }

    /// The failed risks of `element`, ascending.
    fn failed_risks(&self, element: &SwitchEpgPair) -> impl Iterator<Item = ObjectId> + '_ {
        let element = *element;
        let first = (element, ObjectId::Vrf(VrfId::new(0)));
        (self.failed.range(first..))
            .take_while(move |((e, _), _)| *e == element)
            .map(|(&(_, risk), _)| risk)
    }

    /// Returns `true` if `element` has a failed edge.
    fn is_observation(&self, element: &SwitchEpgPair) -> bool {
        self.failed_risks(element).next().is_some()
    }

    /// The risks of `element` in the augmented model.
    fn risks_of(&self, universe: &PolicyUniverse, element: &SwitchEpgPair) -> BTreeSet<ObjectId> {
        let mut risks: BTreeSet<ObjectId> = universe.objects_for_element(*element).collect();
        risks.extend(self.failed_risks(element));
        risks
    }

    /// The dependents of `risk` in the augmented model.
    fn dependents_of<'a>(
        &'a self,
        universe: &'a PolicyUniverse,
        risk: ObjectId,
    ) -> impl Iterator<Item = SwitchEpgPair> + 'a {
        let unmodelled = self.unmodelled.get(&risk).into_iter().flatten().copied();
        universe.elements_for_object(risk).chain(unmodelled)
    }

    /// Returns `true` if `risk` is in the failure subgraph: it has a failed
    /// edge and every dependent of it is an observation.
    fn in_subgraph(&self, universe: &PolicyUniverse, risk: ObjectId) -> bool {
        let Some(counts) = self.risks.get(&risk) else {
            return false;
        };
        let dependents =
            universe.dependent_count(risk) + self.unmodelled.get(&risk).map_or(0, BTreeSet::len);
        counts.failed > 0 && counts.observed == dependents
    }

    /// The component of observation `seed`: its observations and the
    /// subgraph risks joining them. Each risk is looked at once, and only
    /// the dependents of subgraph risks are walked, so the cost is the
    /// component's edges.
    fn component(
        &self,
        universe: &PolicyUniverse,
        seed: SwitchEpgPair,
    ) -> (BTreeSet<SwitchEpgPair>, BTreeSet<ObjectId>) {
        let mut members = BTreeSet::from([seed]);
        let (mut seen, mut joining) = (BTreeSet::new(), BTreeSet::new());
        let mut queue = vec![seed];
        while let Some(o) = queue.pop() {
            for risk in self.risks_of(universe, &o) {
                if !seen.insert(risk) || !self.in_subgraph(universe, risk) {
                    continue;
                }
                joining.insert(risk);
                for d in self.dependents_of(universe, risk) {
                    if members.insert(d) {
                        queue.push(d);
                    }
                }
            }
        }
        (members, joining)
    }

    /// The edges between the observations `members` and the subgraph risks
    /// `joining`, statuses kept, as a model; a member with none is not
    /// listed.
    fn work_graph(
        &self,
        universe: &PolicyUniverse,
        members: &BTreeSet<SwitchEpgPair>,
        joining: &BTreeSet<ObjectId>,
    ) -> RiskModel<SwitchEpgPair> {
        let mut edges = Vec::new();
        for &o in members {
            for risk in self.risks_of(universe, &o).intersection(joining) {
                let status = if self.failed.contains_key(&(o, *risk)) {
                    EdgeStatus::Fail
                } else {
                    EdgeStatus::Success
                };
                edges.push((o, *risk, status));
            }
        }
        RiskModel::from_sorted(|| {
            edges.chunk_by(|a, b| a.0 == b.0).map(|run| {
                let element_edges = run.iter().map(|&(_, risk, status)| (risk, status));
                (run[0].0, element_edges)
            })
        })
    }
}

/// The failure subgraph of `check` on `universe`'s controller risk model
/// ([`RiskModel::failure_subgraph`] of the augmented model), from a fresh
/// overlay that marks the check's missing rules and localizes nothing.
///
/// SCORE at threshold 1.0 ([`score_localize`](crate::score_localize))
/// returns the same objects on it as on the whole augmented model: a
/// candidate has all of its dependents failed, so it is a subgraph risk that
/// keeps every dependent, and no other element enters a cover. Its
/// observation and unexplained counts cover the subgraph alone.
pub fn failure_subgraph(
    universe: &PolicyUniverse,
    check: &NetworkCheckResult,
) -> RiskModel<SwitchEpgPair> {
    let mut overlay = FailureOverlay::default();
    for rule in check.missing_rules() {
        let element = SwitchEpgPair::new(rule.switch, rule.pair());
        for risk in rule.provenance.objects_with_switch(rule.switch) {
            overlay.mark(universe, element, risk);
        }
    }
    let observations: BTreeSet<SwitchEpgPair> = overlay.failed.keys().map(|&(o, _)| o).collect();
    let subgraph: BTreeSet<ObjectId> = (overlay.risks.keys().copied())
        .filter(|&risk| overlay.in_subgraph(universe, risk))
        .collect();
    overlay.work_graph(universe, &observations, &subgraph)
}

/// Removes `element` from `map[risk]`, dropping the entry when it empties.
/// Returns whether it was there.
fn remove_from(
    map: &mut BTreeMap<ObjectId, BTreeSet<SwitchEpgPair>>,
    risk: ObjectId,
    element: &SwitchEpgPair,
) -> bool {
    let Some(set) = map.get_mut(&risk) else {
        return false;
    };
    let removed = set.remove(element);
    if set.is_empty() {
        map.remove(&risk);
    }
    removed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::localization::{score_localize, scout_localize};
    use crate::risk::{augment_controller_model, controller_risk_model};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use scout_equiv::SwitchCheckResult;
    use scout_fabric::{compile_for_switch, ChangeAction, Timestamp};
    use scout_policy::{sample, FilterId};

    /// Random deltas of marks and restores, partial ones included, some of
    /// whose rules name a filter outside their pair's closure (a mark that
    /// adds an edge): after every step the overlay's observations, suspects
    /// and merged hypothesis equal the augmented model's failure signature,
    /// suspect set and `scout_localize`, and each suspect's observed and
    /// failed dependent counts equal the model's. `failure_subgraph` of the
    /// missing rules equals the augmented model's failure subgraph, and
    /// SCORE-1.0 names the same objects on both.
    #[test]
    fn overlay_matches_the_augmented_model_along_random_deltas() {
        let universe = sample::three_tier();
        let mut rules: Vec<LogicalRule> = (universe.switch_ids().into_iter())
            .flat_map(|s| compile_for_switch(&universe, s))
            .collect();
        let forged: Vec<LogicalRule> = (rules.iter().step_by(3))
            .map(|&r| {
                let mut rule = r;
                rule.provenance.filter = FilterId::new(900 + r.switch.raw());
                rule
            })
            .collect();
        rules.extend(forged);
        let model = controller_risk_model(&universe);
        let mut log = ChangeLog::new();
        for (tick, rule) in rules.iter().enumerate().step_by(4) {
            let object = ObjectId::Filter(rule.provenance.filter);
            log.record(
                Timestamp::new(tick as u64),
                object,
                ChangeAction::Modify,
                None,
                "",
            );
        }
        let config = ScoutConfig::default();
        let mut unmodelled_marks = 0;
        for seed in 0..40u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut overlay = FailureOverlay::default();
            let mut report = ScoutReport::default();
            let mut missing: BTreeSet<LogicalRule> = BTreeSet::new();
            for step in 0..25 {
                let (mut newly, mut restored) = (Vec::new(), Vec::new());
                for rule in &rules {
                    if rng.gen_bool(0.15) {
                        if missing.remove(rule) {
                            restored.push(*rule);
                        } else {
                            missing.insert(*rule);
                            newly.push(*rule);
                        }
                    }
                }
                let changes = (&newly, &restored);
                overlay.apply(&universe, changes.0, changes.1, &log, config, &mut report);
                unmodelled_marks += overlay.unmodelled.len();

                let mut augmented = model.clone();
                augment_controller_model(&mut augmented, missing.iter().copied());
                let signature = augmented.failure_signature();
                let context = format!("seed {seed} step {step}");
                assert_eq!(
                    report.suspect_objects,
                    augmented.suspect_set(&signature),
                    "{context}"
                );
                assert_eq!(report.observations, signature, "{context}");
                let expected = scout_localize(&augmented, &log, config);
                assert_eq!(overlay.hypothesis(), expected, "{context}");
                let subgraph = failure_subgraph(&universe, &check_of(&missing));
                assert_eq!(subgraph, augmented.failure_subgraph(), "{context}");
                let score = |m: &RiskModel<SwitchEpgPair>| score_localize(m, 1.0).objects();
                assert_eq!(score(&subgraph), score(&augmented), "{context}");
                for (&risk, counts) in &overlay.risks {
                    let dependents = augmented.dependents_of(risk);
                    let observed = dependents.intersection(&signature).count();
                    let failed = augmented.failed_dependent_count(risk);
                    let counted = (counts.observed, counts.failed);
                    assert_eq!(counted, (observed, failed), "{context}: {risk}");
                }
            }
        }
        assert!(unmodelled_marks > 0, "no mark added an edge");
    }

    /// A check whose only findings are the `missing` rules, per switch.
    fn check_of(missing: &BTreeSet<LogicalRule>) -> NetworkCheckResult {
        let mut check = NetworkCheckResult::default();
        for &rule in missing {
            let result = (check.per_switch.entry(rule.switch))
                .or_insert_with(|| SwitchCheckResult::consistent(rule.switch));
            result.equivalent = false;
            result.missing_rules.push(rule);
        }
        check
    }
}
