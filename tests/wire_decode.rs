//! The policy universe decoder equals a reference decoder on every input.
//!
//! The reference below is the universe decode as a plain field walk: each
//! object list is read the way the generic `Vec<T>` decoder reads one (one
//! nesting level per element, one per object), each field through its own
//! `Result`, a name through `Name::from(&str)` after `get_str_ref`'s UTF-8
//! check, and a filter list one nested id at a time. Then the lists' order is
//! checked and the builder validates them.
//!
//! `from_bytes::<PolicyUniverse>` must return exactly what the reference
//! returns — an equal universe, or the same `WireError` with the same fields —
//! for every generator's universe (the testbed, the production cluster, a
//! 50-switch and a 1000-switch scale fabric, the hub), names of every length
//! class around the 22 inline bytes (ASCII, multi-byte characters at every
//! position, invalid UTF-8 at every position), filter lists of every length
//! class around the five inline ids, every truncation of a small universe,
//! a universe decoded at every depth near the nesting limit, and thousands of
//! seeded fuzz mutations of the fuzz harness's universe seeds. Each object
//! type's own decoder is held to the reference the same way.

mod common;

use rand::rngs::StdRng;
use rand::SeedableRng;
use scout::fabric::wire::{from_bytes, to_bytes, Wire, WireError, WireReader, WireWriter};
use scout::policy::{
    Action, Contract, ContractBinding, ContractId, Endpoint, EndpointId, Epg, EpgId, Filter,
    FilterEntry, FilterId, FilterList, Name, PolicyUniverse, PortRange, Protocol, Switch, SwitchId,
    Tenant, TenantId, Vrf, VrfId,
};
use scout::workload::{ClusterSpec, ScaleSpec, TestbedSpec};
use scout_fuzz::gen::next_input;
use scout_fuzz::oracle::Surface;
use scout_fuzz::seeds;

/// The universe decode as a plain field walk, with a `Result` per field.
mod reference {
    use super::*;

    type Decoded<T> = Result<T, WireError>;

    /// Decodes a whole universe and requires every byte to be consumed.
    pub fn from_bytes(bytes: &[u8]) -> Decoded<PolicyUniverse> {
        let mut r = WireReader::new(bytes);
        let universe = universe(&mut r)?;
        r.finish()?;
        Ok(universe)
    }

    /// Decodes one value with `decode` and requires every byte to be consumed.
    pub fn whole<T>(bytes: &[u8], decode: fn(&mut WireReader<'_>) -> Decoded<T>) -> Decoded<T> {
        let mut r = WireReader::new(bytes);
        let value = decode(&mut r)?;
        r.finish()?;
        Ok(value)
    }

    pub fn universe(r: &mut WireReader<'_>) -> Decoded<PolicyUniverse> {
        let tenants = list(r, tenant)?;
        let vrfs = list(r, vrf)?;
        let epgs = list(r, epg)?;
        let endpoints = list(r, endpoint)?;
        let switches = list(r, switch)?;
        let contracts = list(r, contract)?;
        let filters = list(r, filter)?;
        let bindings = list(r, binding)?;

        ascending(&tenants, |t| t.id, "PolicyUniverse.tenants")?;
        ascending(&vrfs, |v| v.id, "PolicyUniverse.vrfs")?;
        ascending(&epgs, |e| e.id, "PolicyUniverse.epgs")?;
        ascending(&endpoints, |e| e.id, "PolicyUniverse.endpoints")?;
        ascending(&switches, |s| s.id, "PolicyUniverse.switches")?;
        ascending(&contracts, |c| c.id, "PolicyUniverse.contracts")?;
        ascending(&filters, |f| f.id, "PolicyUniverse.filters")?;
        ascending(&bindings, |b| *b, "PolicyUniverse.bindings")?;

        let mut builder = PolicyUniverse::builder();
        builder.extend(tenants);
        builder.extend(vrfs);
        builder.extend(epgs);
        builder.extend(endpoints);
        builder.extend(switches);
        builder.extend(contracts);
        builder.extend(filters);
        builder.extend(bindings);
        builder.build().map_err(|_| WireError::Invalid {
            what: "PolicyUniverse",
        })
    }

    fn ascending<T, K: Ord>(items: &[T], key: impl Fn(&T) -> K, what: &'static str) -> Decoded<()> {
        if items.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
            Ok(())
        } else {
            Err(WireError::NonCanonical { what })
        }
    }

    /// A `u64` count, then each element one nesting level deeper, never
    /// reserving more elements than bytes remain.
    pub fn list<T>(
        r: &mut WireReader<'_>,
        item: fn(&mut WireReader<'_>) -> Decoded<T>,
    ) -> Decoded<Vec<T>> {
        let len = r.get_usize()?;
        let mut items = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            items.push(r.nested(item)?);
        }
        Ok(items)
    }

    pub fn name(r: &mut WireReader<'_>) -> Decoded<Name> {
        r.get_str_ref().map(Name::from)
    }

    pub fn filter_list(r: &mut WireReader<'_>) -> Decoded<FilterList> {
        let len = r.get_usize()?;
        if len > FilterList::INLINE {
            let mut ids = Vec::with_capacity(len.min(r.remaining()));
            for _ in 0..len {
                ids.push(r.nested(FilterId::decode)?);
            }
            return Ok(FilterList::from(ids));
        }
        let mut ids = [FilterId::new(0); FilterList::INLINE];
        for id in &mut ids[..len] {
            *id = r.nested(FilterId::decode)?;
        }
        Ok(FilterList::from(&ids[..len]))
    }

    pub fn tenant(r: &mut WireReader<'_>) -> Decoded<Tenant> {
        r.nested(|r| {
            Ok(Tenant {
                id: TenantId::decode(r)?,
                name: name(r)?,
            })
        })
    }

    pub fn vrf(r: &mut WireReader<'_>) -> Decoded<Vrf> {
        r.nested(|r| {
            Ok(Vrf {
                id: VrfId::decode(r)?,
                name: name(r)?,
                tenant: TenantId::decode(r)?,
            })
        })
    }

    pub fn epg(r: &mut WireReader<'_>) -> Decoded<Epg> {
        r.nested(|r| {
            Ok(Epg {
                id: EpgId::decode(r)?,
                name: name(r)?,
                vrf: VrfId::decode(r)?,
            })
        })
    }

    pub fn endpoint(r: &mut WireReader<'_>) -> Decoded<Endpoint> {
        r.nested(|r| {
            Ok(Endpoint {
                id: EndpointId::decode(r)?,
                name: name(r)?,
                epg: EpgId::decode(r)?,
                switch: SwitchId::decode(r)?,
            })
        })
    }

    pub fn switch(r: &mut WireReader<'_>) -> Decoded<Switch> {
        r.nested(|r| {
            Ok(Switch {
                id: SwitchId::decode(r)?,
                name: name(r)?,
                tcam_capacity: r.get_usize()?,
            })
        })
    }

    pub fn contract(r: &mut WireReader<'_>) -> Decoded<Contract> {
        r.nested(|r| {
            Ok(Contract {
                id: ContractId::decode(r)?,
                name: name(r)?,
                filters: filter_list(r)?,
            })
        })
    }

    pub fn filter(r: &mut WireReader<'_>) -> Decoded<Filter> {
        r.nested(|r| {
            Ok(Filter {
                id: FilterId::decode(r)?,
                name: name(r)?,
                entries: list(r, entry)?,
            })
        })
    }

    fn entry(r: &mut WireReader<'_>) -> Decoded<FilterEntry> {
        r.nested(|r| {
            Ok(FilterEntry {
                protocol: Protocol::decode(r)?,
                ports: PortRange::decode(r)?,
                action: Action::decode(r)?,
            })
        })
    }

    pub fn binding(r: &mut WireReader<'_>) -> Decoded<ContractBinding> {
        r.nested(|r| {
            Ok(ContractBinding {
                consumer: EpgId::decode(r)?,
                provider: EpgId::decode(r)?,
                contract: ContractId::decode(r)?,
            })
        })
    }
}

/// Asserts that two decode results are equal: the same value, or the same
/// error with the same fields.
fn assert_same<T: PartialEq>(label: &str, got: Result<T, WireError>, want: Result<T, WireError>) {
    match (got, want) {
        (Ok(got), Ok(want)) => assert!(got == want, "{label}: the decoded values differ"),
        (Err(got), Err(want)) => assert_eq!(got, want, "{label}"),
        (Ok(_), Err(want)) => panic!("{label}: decoded, the reference returned {want:?}"),
        (Err(got), Ok(_)) => panic!("{label}: returned {got:?}, the reference decoded"),
    }
}

/// `from_bytes::<PolicyUniverse>(bytes)` returns what the reference returns.
fn check(label: &str, bytes: &[u8]) {
    assert_same(
        label,
        from_bytes::<PolicyUniverse>(bytes),
        reference::from_bytes(bytes),
    );
}

/// A universe's object lists, encoded as a universe is without the
/// builder's validation, so a test can encode lists no builder accepts.
#[derive(Clone)]
struct Parts {
    tenants: Vec<Tenant>,
    vrfs: Vec<Vrf>,
    epgs: Vec<Epg>,
    endpoints: Vec<Endpoint>,
    switches: Vec<Switch>,
    contracts: Vec<Contract>,
    filters: Vec<Filter>,
    bindings: Vec<ContractBinding>,
}

impl Parts {
    fn of(u: &PolicyUniverse) -> Self {
        Parts {
            tenants: u.tenants().cloned().collect(),
            vrfs: u.vrfs().cloned().collect(),
            epgs: u.epgs().cloned().collect(),
            endpoints: u.endpoints().cloned().collect(),
            switches: u.switches().cloned().collect(),
            contracts: u.contracts().cloned().collect(),
            filters: u.filters().cloned().collect(),
            bindings: u.bindings().to_vec(),
        }
    }

    fn bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::new();
        self.tenants.encode(&mut w);
        self.vrfs.encode(&mut w);
        self.epgs.encode(&mut w);
        self.endpoints.encode(&mut w);
        self.switches.encode(&mut w);
        self.contracts.encode(&mut w);
        self.filters.encode(&mut w);
        self.bindings.encode(&mut w);
        w.into_bytes()
    }

    /// Renames the object at `index` of the kind `kind` selects (0 tenants,
    /// 1 VRFs, …, 6 filters; bindings have no name).
    fn rename(&mut self, kind: usize, index: usize, name: &str) {
        let name = Name::from(name);
        match kind {
            0 => self.tenants[index].name = name,
            1 => self.vrfs[index].name = name,
            2 => self.epgs[index].name = name,
            3 => self.endpoints[index].name = name,
            4 => self.switches[index].name = name,
            5 => self.contracts[index].name = name,
            _ => self.filters[index].name = name,
        }
    }
}

/// The number of named object kinds `Parts::rename` selects from.
const NAMED_KINDS: usize = 7;

fn testbed() -> PolicyUniverse {
    TestbedSpec::paper().generate(1)
}

#[test]
fn every_generator_decodes_as_the_reference_does() {
    let mut universes = vec![
        ("testbed/1".to_string(), TestbedSpec::paper().generate(1)),
        ("testbed/2".to_string(), TestbedSpec::paper().generate(2)),
        ("cluster/1".to_string(), ClusterSpec::paper().generate(1)),
        (
            "large_fabric(50)/1".to_string(),
            ScaleSpec::large_fabric(50).generate(1),
        ),
        ("large_1k/1".to_string(), ScaleSpec::large_1k().generate(1)),
        ("hub".to_string(), common::hub(40, 120, 12)),
    ];
    for (label, u) in universes.drain(..) {
        let bytes = to_bytes(&u);
        check(&label, &bytes);
        let decoded = from_bytes::<PolicyUniverse>(&bytes).expect("a generated universe decodes");
        assert!(decoded == u, "{label}: round trip");
        let mut trailing = bytes;
        trailing.push(0);
        check(&format!("{label} + 1 trailing byte"), &trailing);
    }
}

/// Names of every length class around the 22 inline bytes, including
/// multi-byte characters that end at, straddle and pass the inline edge.
fn edge_names() -> Vec<String> {
    let mut names: Vec<String> = [0, 1, 7, 8, 9, 15, 16, 17, 21, 22, 23, 24, 40]
        .into_iter()
        .map(|len| "n".repeat(len))
        .collect();
    for pad in 17..=23 {
        for ch in ['é', '日', '🦀'] {
            names.push(format!("{}{ch}", "x".repeat(pad)));
            names.push(format!("{ch}{}", "y".repeat(pad)));
        }
    }
    names.push("héllo wörld ß 日本語".to_string());
    names.push("🦀".repeat(6));
    names
}

#[test]
fn names_of_every_length_class_decode_as_the_reference_does() {
    let base = Parts::of(&testbed());
    for (i, name) in edge_names().iter().enumerate() {
        for kind in 0..NAMED_KINDS {
            let mut parts = base.clone();
            parts.rename(kind, 0, name);
            // The same name on a second object of the kind, where there is
            // one, so a list holds two of them.
            parts.rename(kind, 1.min(list_len(&parts, kind) - 1), name);
            check(
                &format!("name {i} ({} bytes), kind {kind}", name.len()),
                &parts.bytes(),
            );
        }
    }
}

fn list_len(parts: &Parts, kind: usize) -> usize {
    match kind {
        0 => parts.tenants.len(),
        1 => parts.vrfs.len(),
        2 => parts.epgs.len(),
        3 => parts.endpoints.len(),
        4 => parts.switches.len(),
        5 => parts.contracts.len(),
        _ => parts.filters.len(),
    }
}

/// Byte sequences no UTF-8 string holds: a lone continuation byte, an
/// overlong encoding of `/`, a UTF-16 surrogate, a truncated two-byte
/// character and a byte that never occurs.
const INVALID_UTF8: [&[u8]; 5] = [
    &[0x80],
    &[0xC0, 0xAF],
    &[0xED, 0xA0, 0x80],
    &[0xC3],
    &[0xFF],
];

/// Valid non-ASCII sequences: two, three and four bytes.
const VALID_NON_ASCII: [&[u8]; 3] = [
    &[0xC3, 0xA9],
    &[0xE6, 0x97, 0xA5],
    &[0xF0, 0x9F, 0xA6, 0x80],
];

/// Every name whose bytes are an ASCII name with `sequence` written over it
/// at each position, in a name of each length class, on each object kind.
fn each_patched_name(sequence: &[u8], mut visit: impl FnMut(String, Vec<u8>)) {
    let base = Parts::of(&testbed());
    for len in [1, 2, 3, 4, 7, 8, 9, 15, 16, 17, 21, 22, 23, 24, 31, 40] {
        if sequence.len() > len {
            continue;
        }
        for kind in 0..NAMED_KINDS {
            // A placeholder no other name in the testbed holds.
            let placeholder = "\u{7f}".repeat(len);
            let mut parts = base.clone();
            parts.rename(kind, 0, &placeholder);
            let bytes = parts.bytes();
            let mut marker = (len as u64).to_le_bytes().to_vec();
            marker.extend_from_slice(placeholder.as_bytes());
            let at = bytes
                .windows(marker.len())
                .position(|w| w == marker)
                .expect("the placeholder name is encoded")
                + 8;
            for position in 0..=len - sequence.len() {
                let mut patched = bytes.clone();
                patched[at + position..at + position + sequence.len()].copy_from_slice(sequence);
                let label =
                    format!("{sequence:02x?} at {position} of a {len}-byte name, kind {kind}");
                visit(label, patched);
            }
        }
    }
}

#[test]
fn invalid_utf8_in_a_name_is_rejected_as_the_reference_rejects_it() {
    for sequence in INVALID_UTF8 {
        each_patched_name(sequence, |label, bytes| {
            assert_eq!(
                from_bytes::<PolicyUniverse>(&bytes).err(),
                Some(WireError::BadString),
                "{label}"
            );
            check(&label, &bytes);
        });
    }
}

#[test]
fn valid_non_ascii_at_every_position_decodes_as_the_reference_does() {
    for sequence in VALID_NON_ASCII {
        each_patched_name(sequence, |label, bytes| {
            let decoded = from_bytes::<PolicyUniverse>(&bytes).expect(&label);
            assert_eq!(to_bytes(&decoded), bytes, "{label}: re-encoding");
            check(&label, &bytes);
        });
    }
}

#[test]
fn filter_lists_of_every_length_class_decode_as_the_reference_does() {
    let base = Parts::of(&testbed());
    let filters: Vec<FilterId> = base.filters.iter().map(|f| f.id).collect();
    for len in [0, 1, 4, 5, 6, 7, 40] {
        // Filter ids cycle through the universe's filters, so a list longer
        // than the filters repeats ids, which the builder accepts.
        let list: Vec<FilterId> = filters.iter().copied().cycle().take(len).collect();
        for contract in [0, base.contracts.len() - 1] {
            let mut parts = base.clone();
            parts.contracts[contract].filters = FilterList::from(list.clone());
            let label = format!("{len} filters on contract {contract}");
            let bytes = parts.bytes();
            check(&label, &bytes);
            if len > 0 {
                let decoded = from_bytes::<PolicyUniverse>(&bytes).expect(&label);
                let id = parts.contracts[contract].id;
                assert_eq!(decoded.contract(id).map(|c| c.filters.len()), Some(len));
            }
            // Every truncation inside the list's ids.
            let at = contract_filters_end(&parts, contract);
            for cut in at.saturating_sub(4 * len + 8)..=at {
                check(&format!("{label}, cut at {cut}"), &bytes[..cut]);
            }
        }
    }
}

/// The byte offset just past the filter ids of the contract at `index`.
fn contract_filters_end(parts: &Parts, index: usize) -> usize {
    let mut w = WireWriter::new();
    parts.tenants.encode(&mut w);
    parts.vrfs.encode(&mut w);
    parts.epgs.encode(&mut w);
    parts.endpoints.encode(&mut w);
    parts.switches.encode(&mut w);
    w.put_usize(parts.contracts.len());
    for contract in &parts.contracts[..=index] {
        contract.encode(&mut w);
    }
    w.len()
}

#[test]
fn every_truncation_of_a_small_universe_decodes_as_the_reference_does() {
    let mut parts = Parts::of(&testbed());
    // One long name and one long filter list, so the cuts cross both forms.
    parts.rename(2, 0, &"z".repeat(30));
    let ids: Vec<FilterId> = parts.filters.iter().map(|f| f.id).cycle().take(7).collect();
    parts.contracts[0].filters = FilterList::from(ids);
    let bytes = parts.bytes();
    assert!(from_bytes::<PolicyUniverse>(&bytes).is_ok());
    for cut in 0..bytes.len() {
        check(&format!("cut at {cut} of {}", bytes.len()), &bytes[..cut]);
    }
}

/// Runs `decode` `levels` nesting levels deep.
fn at_depth<T>(
    r: &mut WireReader<'_>,
    levels: usize,
    decode: &dyn Fn(&mut WireReader<'_>) -> Result<T, WireError>,
) -> Result<T, WireError> {
    match levels {
        0 => decode(r),
        _ => r.nested(|r| at_depth(r, levels - 1, decode)),
    }
}

/// Near the limit, the decode fails where the reference fails and stops
/// the reader where it stops. Without contracts and filters only the object
/// lists nest, so no decoder other than the object cursor can fail.
#[test]
fn a_universe_decoded_near_the_nesting_limit_fails_as_the_reference_does() {
    let mut full = Parts::of(&testbed());
    let ids: Vec<FilterId> = full.filters.iter().map(|f| f.id).cycle().take(7).collect();
    full.contracts[1].filters = FilterList::from(ids);
    let mut bare = full.clone();
    bare.contracts.clear();
    bare.filters.clear();
    bare.bindings.clear();
    for (label, parts) in [("full", full), ("no contracts or filters", bare)] {
        let bytes = parts.bytes();
        let mut seen = Vec::new();
        for levels in WireReader::MAX_DEPTH - 8..WireReader::MAX_DEPTH {
            let label = format!("{label}, {levels} levels deep");
            let (mut r, mut reference_r) = (WireReader::new(&bytes), WireReader::new(&bytes));
            let got = at_depth(&mut r, levels, &PolicyUniverse::decode);
            let want = at_depth(&mut reference_r, levels, &reference::universe);
            seen.push(want.as_ref().err().copied());
            assert_eq!(r.remaining(), reference_r.remaining(), "{label}: position");
            assert_same(&label, got, want);
        }
        assert!(
            seen.first() == Some(&None),
            "{label}: the shallowest decodes"
        );
        assert!(
            seen.last()
                .is_some_and(|e| matches!(e, Some(WireError::TooDeep { .. }))),
            "{label}: the deepest is too deep"
        );
    }
}

#[test]
fn seeded_fuzz_mutations_decode_as_the_reference_does() {
    let seeds = seeds::for_surface(Surface::PolicyUniverse);
    let mut rng = StdRng::seed_from_u64(46);
    let (mut decoded, mut rejected) = (0, 0);
    for i in 0..4000 {
        let bytes = next_input(&mut rng, Surface::PolicyUniverse, seeds);
        let want = reference::from_bytes(&bytes);
        match want {
            Ok(_) => decoded += 1,
            Err(_) => rejected += 1,
        }
        assert_same(
            &format!("mutation {i}"),
            from_bytes::<PolicyUniverse>(&bytes),
            want,
        );
    }
    // The mutations reach both outcomes.
    assert!(
        decoded > 0 && rejected > 0,
        "{decoded} decoded, {rejected} rejected"
    );
}

/// Each object type's own decoder returns what the reference's returns, on
/// each object's bytes, every truncation of them and one trailing byte.
#[test]
fn each_object_decodes_as_the_reference_does() {
    fn each<T: Wire + PartialEq>(
        what: &str,
        objects: &[T],
        decode: fn(&mut WireReader<'_>) -> Result<T, WireError>,
    ) {
        for (i, object) in objects.iter().enumerate() {
            let mut bytes = to_bytes(object);
            bytes.push(0x80);
            for cut in 0..=bytes.len() {
                let label = format!("{what} {i}, {cut} of {} bytes", bytes.len());
                let bytes = &bytes[..cut];
                assert_same(
                    &label,
                    from_bytes::<T>(bytes),
                    reference::whole(bytes, decode),
                );
            }
        }
    }
    let mut parts = Parts::of(&testbed());
    for (kind, name) in edge_names().iter().enumerate() {
        let kind = kind % NAMED_KINDS;
        let index = list_len(&parts, kind) - 1;
        parts.rename(kind, index, name);
    }
    let ids: Vec<FilterId> = parts.filters.iter().map(|f| f.id).cycle().take(6).collect();
    parts.contracts[0].filters = FilterList::from(ids);
    each("tenant", &parts.tenants, reference::tenant);
    each("vrf", &parts.vrfs, reference::vrf);
    each("epg", &parts.epgs, reference::epg);
    each("endpoint", &parts.endpoints, reference::endpoint);
    each("switch", &parts.switches, reference::switch);
    each("contract", &parts.contracts, reference::contract);
    each("filter", &parts.filters, reference::filter);
    each("binding", &parts.bindings, reference::binding);
    for name in edge_names() {
        let bytes = to_bytes(&Name::from(name.as_str()));
        assert_same(
            &name,
            from_bytes::<Name>(&bytes),
            reference::whole(&bytes, reference::name),
        );
    }
    for len in [0, 1, 5, 6, 9] {
        let list = FilterList::from((0..len).map(FilterId::new).collect::<Vec<_>>());
        let bytes = to_bytes(&list);
        for cut in 0..=bytes.len() {
            let bytes = &bytes[..cut];
            assert_same(
                &format!("{len} filter ids, cut at {cut}"),
                from_bytes::<FilterList>(bytes),
                reference::whole(bytes, reference::filter_list),
            );
        }
    }
}
