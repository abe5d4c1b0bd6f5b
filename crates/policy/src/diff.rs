//! What a policy edit changed: [`UniverseDiff`].

use crate::ids::{ObjectId, SwitchId};
use crate::index::by_key;
use crate::universe::PolicyUniverse;

/// What changed between two policy universes, `before` and `after` an edit:
/// one merge walk of each pair of sorted tables (VRFs, EPGs, contracts,
/// filters, bindings, switches) finds it.
///
/// It borrows the two universes, so it is only ever read against them.
/// [`index`](Self::index) patches `after`'s dependency indexes from it; the
/// fabric's `switch_delta` maps its changed objects to the switches to
/// compile, and the fabric's change log formats it as entries.
#[derive(Debug)]
pub struct UniverseDiff<'u> {
    before: &'u PolicyUniverse,
    after: &'u PolicyUniverse,
    created: Vec<ObjectId>,
    deleted: Vec<ObjectId>,
    filters: Vec<ObjectId>,
    contracts: Vec<ObjectId>,
    epgs: Vec<ObjectId>,
    rebound: Vec<ObjectId>,
    added: Vec<SwitchId>,
    removed: Vec<SwitchId>,
    /// The positions in `before`'s bindings of those `after` lacks, and in
    /// `after`'s of those `before` lacks, each ascending.
    pub(crate) unmatched: (Vec<usize>, Vec<usize>),
}

impl<'u> UniverseDiff<'u> {
    /// The difference from `before` to `after`.
    pub fn between(before: &'u PolicyUniverse, after: &'u PolicyUniverse) -> Self {
        let (mut created, mut deleted) = (Vec::new(), Vec::new());
        let mut objects = (&mut created, &mut deleted);
        let vrfs = (before.vrfs(), after.vrfs());
        walk(vrfs, |v| (v.id, &()), &mut objects);
        let epgs = (before.epgs(), after.epgs());
        let epgs = walk(epgs, |e| (e.id, &e.vrf), &mut objects);
        let contracts = (before.contracts(), after.contracts());
        let contracts = walk(contracts, |c| (c.id, &c.filters), &mut objects);
        let filters = (before.filters(), after.filters());
        let filters = walk(filters, |f| (f.id, &f.entries), &mut objects);
        let (mut added, mut removed) = (Vec::new(), Vec::new());
        let switches = (before.switches(), after.switches());
        walk(switches, |s| (s.id, &()), &mut (&mut added, &mut removed));
        let (mut unmatched, mut rebound) = ((Vec::new(), Vec::new()), Vec::new());
        let bindings = |u: &'u PolicyUniverse| u.bindings().iter().enumerate();
        for step in by_key(bindings(before), bindings(after), |&(_, b)| *b) {
            let (positions, (i, binding)) = match step {
                (Some(lost), None) => (&mut unmatched.0, lost),
                (None, Some(gained)) => (&mut unmatched.1, gained),
                _ => continue,
            };
            positions.push(i);
            rebound.push(ObjectId::Contract(binding.contract));
        }
        rebound.sort_unstable();
        rebound.dedup();
        Self {
            before,
            after,
            created,
            deleted,
            filters,
            contracts,
            epgs,
            rebound,
            added,
            removed,
            unmatched,
        }
    }

    /// The universe the edit replaces.
    pub fn before(&self) -> &'u PolicyUniverse {
        self.before
    }

    /// The universe the edit installs.
    pub fn after(&self) -> &'u PolicyUniverse {
        self.after
    }

    /// The VRFs, EPGs, contracts and filters only `after` holds, in
    /// [`ObjectId`] order.
    pub fn created(&self) -> &[ObjectId] {
        &self.created
    }

    /// The VRFs, EPGs, contracts and filters only `before` holds, in
    /// [`ObjectId`] order.
    pub fn deleted(&self) -> &[ObjectId] {
        &self.deleted
    }

    /// The filters both sides hold whose entries differ, ascending.
    pub fn filters(&self) -> &[ObjectId] {
        &self.filters
    }

    /// The contracts both sides hold whose filter lists differ, ascending.
    pub fn contracts(&self) -> &[ObjectId] {
        &self.contracts
    }

    /// The EPGs both sides hold whose VRF changed, ascending.
    pub fn epgs(&self) -> &[ObjectId] {
        &self.epgs
    }

    /// The contracts of the bindings one side lacks, ascending and
    /// distinct, whether or not both sides hold the contract.
    pub fn rebound(&self) -> &[ObjectId] {
        &self.rebound
    }

    /// The switches only `after` holds, ascending.
    pub fn added(&self) -> &[SwitchId] {
        &self.added
    }

    /// The switches only `before` holds, ascending.
    pub fn removed(&self) -> &[SwitchId] {
        &self.removed
    }
}

/// Walks one kind's two sorted tables, whose items `entry` maps to their id
/// and compared field: pushes the ids only the new side holds to `created`
/// and those only the old side holds to `deleted`, and returns the ids both
/// hold whose field changed, ascending.
fn walk<'u, T: 'u, K: Ord + Into<O>, O, F: PartialEq + ?Sized>(
    (old, new): (
        impl IntoIterator<Item = &'u T>,
        impl IntoIterator<Item = &'u T>,
    ),
    entry: impl Fn(&T) -> (K, &F),
    (created, deleted): &mut (&mut Vec<O>, &mut Vec<O>),
) -> Vec<O> {
    let mut modified = Vec::new();
    for step in by_key(old, new, |t| entry(t).0) {
        match step {
            (None, Some(t)) => created.push(entry(t).0.into()),
            (Some(t), None) => deleted.push(entry(t).0.into()),
            (Some(a), Some(b)) if entry(a).1 != entry(b).1 => modified.push(entry(a).0.into()),
            _ => {}
        }
    }
    modified
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::object::{Filter, FilterEntry, PortRange, Protocol, Switch};
    use crate::{sample, FilterId, IndexWork};

    /// Three-tier with the 700 filter's entries changed, a new filter on
    /// the Web–App contract, the App–DB binding dropped, S3 (and DB's
    /// endpoint) gone and a bare S4 added.
    fn edited() -> PolicyUniverse {
        let u = sample::three_tier();
        let mut b = PolicyUniverse::builder();
        b.extend(u.tenants().cloned());
        b.extend(u.vrfs().cloned());
        b.extend(u.epgs().cloned());
        b.extend(u.endpoints().filter(|ep| ep.switch != sample::S3).cloned());
        b.extend(u.switches().filter(|s| s.id != sample::S3).cloned());
        b.switch(Switch::new(SwitchId::new(4), "s4"));
        b.extend(u.contracts().cloned().map(|mut c| {
            if c.id == sample::C_WEB_APP {
                c.filters = vec![sample::F_HTTP, FilterId::new(3)].into();
            }
            c
        }));
        b.extend(u.filters().cloned().map(|mut f| {
            if f.id == sample::F_700 {
                f.entries = vec![FilterEntry::allow(Protocol::Udp, PortRange::single(53))];
            }
            f
        }));
        b.filter(Filter::tcp_port(FilterId::new(3), "ssh", 22));
        b.extend(
            u.bindings()
                .iter()
                .copied()
                .filter(|b| b.contract != sample::C_APP_DB),
        );
        b.build().expect("a well-formed edit")
    }

    #[test]
    fn a_diff_names_every_kind_of_change() {
        let (old, new) = (sample::three_tier(), edited());
        let diff = UniverseDiff::between(&old, &new);
        assert!(std::ptr::eq(diff.before(), &old) && std::ptr::eq(diff.after(), &new));
        assert_eq!(diff.created(), [ObjectId::Filter(FilterId::new(3))]);
        assert!(diff.deleted().is_empty());
        assert_eq!(diff.filters(), [ObjectId::Filter(sample::F_700)]);
        assert_eq!(diff.contracts(), [ObjectId::Contract(sample::C_WEB_APP)]);
        assert!(diff.epgs().is_empty());
        assert_eq!(diff.rebound(), [ObjectId::Contract(sample::C_APP_DB)]);
        assert_eq!(
            (diff.added(), diff.removed()),
            (&[SwitchId::new(4)][..], &[sample::S3][..])
        );
        assert_eq!(diff.unmatched, (vec![1], vec![]));
        let back = UniverseDiff::between(&new, &old);
        assert_eq!(back.created(), diff.deleted());
        assert_eq!(back.deleted(), diff.created());
        assert_eq!(back.unmatched, (vec![], vec![1]));

        diff.index();
        assert!(matches!(new.index_work(), Some(IndexWork::Patched { .. })));
        assert_eq!(new.index_difference(&edited()), None);
    }

    /// A universe diffed against itself names nothing, and indexing it from
    /// itself builds its indexes once instead of waiting on its own cell.
    #[test]
    fn a_universe_indexed_from_itself_is_built_in_full() {
        let u = sample::three_tier();
        let diff = UniverseDiff::between(&u, &u);
        let lists = [
            diff.created(),
            diff.deleted(),
            diff.filters(),
            diff.rebound(),
        ];
        assert!(lists.iter().all(|l| l.is_empty()));
        assert!(diff.added().is_empty() && diff.unmatched == (vec![], vec![]));
        diff.index();
        assert_eq!(u.index_work(), Some(IndexWork::Full));
    }
}
