//! The in-house wire format: a compact, versionable byte encoding for fabric
//! telemetry and monitor state.
//!
//! The build environment is registry-free, so durable state (engine
//! checkpoints, replayable event logs) cannot lean on serde. This module is
//! the repo's own encoder, in the same spirit as the `rand` shim: a small
//! [`Wire`] trait with hand-written, deterministic implementations for every
//! type that crosses a durability boundary —
//!
//! * the policy layer ([`PolicyUniverse`] and everything inside it),
//! * the telemetry stream ([`FabricEvent`], [`EventBatch`]), so a checkpoint
//!   can carry a *replay tail* of post-checkpoint batches, and
//! * the monitor mirror ([`FabricView`]), the durable core of an analysis
//!   session.
//!
//! # Format
//!
//! The encoding is little-endian and length-prefixed: integers are
//! fixed-width, collections are a `u64` element count followed by the
//! elements, enums are a one-byte tag followed by the variant's fields.
//! There is no self-description — both sides must agree on the type — which
//! is why consumers (e.g. `scout-core`'s `Snapshot`) prepend a magic/version
//! header and refuse to decode anything else.
//!
//! Encoding is total; decoding is validated: truncated input, unknown enum
//! tags, malformed UTF-8 and semantically invalid payloads (a policy universe
//! that fails referential-integrity checks) all surface as typed
//! [`WireError`]s, never as panics.
//!
//! Decoding is also *canonical* and *resource-bounded*, because these bytes
//! cross trust boundaries (see `ARCHITECTURE.md`, "Untrusted input
//! boundary"):
//!
//! * every accepted input re-encodes to exactly the bytes it arrived as —
//!   out-of-order or duplicate sorted-collection elements, denormalized
//!   pairs and unsorted universe object lists are rejected as
//!   [`WireError::NonCanonical`] instead of being silently repaired;
//! * length prefixes never drive pre-allocation beyond the bytes actually
//!   present (`Vec::with_capacity` is clamped by the reader's remaining
//!   input), and nesting beyond [`WireReader::MAX_DEPTH`] is rejected as
//!   [`WireError::TooDeep`] rather than overflowing the stack.
//!
//! # Example
//!
//! ```
//! use scout_fabric::wire::{Wire, WireReader, WireWriter};
//! use scout_fabric::{EventBatch, FabricEvent};
//! use scout_policy::sample;
//!
//! let batch = EventBatch::new(
//!     7,
//!     vec![FabricEvent::TcamSync {
//!         switch: sample::S2,
//!         rules: Vec::new(),
//!     }],
//! );
//! let mut writer = WireWriter::new();
//! batch.encode(&mut writer);
//! let bytes = writer.into_bytes();
//!
//! let mut reader = WireReader::new(&bytes);
//! let decoded = EventBatch::decode(&mut reader).unwrap();
//! reader.finish().unwrap();
//! assert_eq!(decoded, batch);
//! ```

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::sync::Arc;

use scout_policy::{
    Action, Contract, ContractBinding, ContractId, Endpoint, EndpointId, Epg, EpgId, EpgPair,
    Filter, FilterEntry, FilterId, LogicalRule, ObjectId, PolicyUniverse, PortRange, Protocol,
    RuleMatch, RuleProvenance, Switch, SwitchEpgPair, SwitchId, TcamRule, Tenant, TenantId, Vrf,
    VrfId,
};

use crate::clock::Timestamp;
use crate::event::{EventBatch, FabricEvent, FabricView, FullSync};
use crate::logs::{
    ChangeAction, ChangeLog, ChangeLogEntry, FaultKind, FaultLog, FaultLogEntry, Severity,
};

/// Why a byte stream could not be decoded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value was complete.
    UnexpectedEof {
        /// How many more bytes the decoder needed.
        needed: usize,
        /// How many bytes were left.
        remaining: usize,
    },
    /// An enum field carried a tag no known variant uses — the bytes are from
    /// a different (or newer) schema, or corrupted.
    InvalidTag {
        /// The type being decoded.
        what: &'static str,
        /// The offending tag byte.
        tag: u8,
    },
    /// A length-prefixed string was not valid UTF-8.
    BadString,
    /// The bytes decoded structurally but the value failed semantic
    /// validation (e.g. a policy universe with dangling references).
    Invalid {
        /// The type being decoded.
        what: &'static str,
    },
    /// The bytes decoded into a valid value, but were not the value's
    /// canonical encoding (out-of-order or duplicate collection elements, a
    /// denormalized pair, …). Accepting them would break the
    /// decode→encode→decode fixpoint: the decoded value would re-encode to
    /// *different* bytes, so two byte strings an attacker controls would
    /// silently alias the same state.
    NonCanonical {
        /// The type being decoded.
        what: &'static str,
    },
    /// Decoding nested deeper than [`WireReader::MAX_DEPTH`] — the payload
    /// is trying to exhaust the decoder's stack, not describe a value.
    TooDeep {
        /// The depth limit that was hit.
        limit: usize,
    },
    /// Decoding finished but bytes were left over — almost certainly a
    /// framing bug on the encoding side.
    TrailingBytes {
        /// Number of unconsumed bytes.
        remaining: usize,
    },
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::UnexpectedEof { needed, remaining } => {
                write!(
                    f,
                    "unexpected end of input: needed {needed} more bytes, {remaining} left"
                )
            }
            WireError::InvalidTag { what, tag } => {
                write!(f, "invalid tag {tag:#04x} while decoding {what}")
            }
            WireError::BadString => f.write_str("length-prefixed string is not valid UTF-8"),
            WireError::Invalid { what } => write!(f, "decoded {what} failed validation"),
            WireError::NonCanonical { what } => {
                write!(f, "{what} payload is not a canonical encoding")
            }
            WireError::TooDeep { limit } => {
                write!(f, "payload nests deeper than the {limit}-level limit")
            }
            WireError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after a complete value")
            }
        }
    }
}

impl std::error::Error for WireError {}

/// An append-only encoder over a growable byte buffer.
#[derive(Debug, Default, Clone)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends one byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u16`.
    pub fn put_u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `bool` as one byte (0 or 1).
    pub fn put_bool(&mut self, v: bool) {
        self.put_u8(u8::from(v));
    }

    /// Appends a `usize` as a `u64` (the format is 64-bit on every host).
    pub fn put_usize(&mut self, v: usize) {
        self.put_u64(v as u64);
    }

    /// Appends a length-prefixed UTF-8 string.
    pub fn put_str(&mut self, v: &str) {
        self.put_usize(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }
}

/// A cursor-based decoder over a byte slice.
#[derive(Debug, Clone)]
pub struct WireReader<'a> {
    bytes: &'a [u8],
    pos: usize,
    depth: usize,
}

impl<'a> WireReader<'a> {
    /// The maximum nesting depth [`WireReader::nested`] permits before
    /// rejecting the payload with [`WireError::TooDeep`].
    ///
    /// Decoding is type-directed, so for today's non-recursive wire types the
    /// static nesting (a snapshot's report → hypothesis → object map → …) is
    /// around a dozen levels; 64 leaves ample headroom while keeping a future
    /// recursive type from turning a short hostile payload into a stack
    /// overflow.
    pub const MAX_DEPTH: usize = 64;

    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self {
            bytes,
            pos: 0,
            depth: 0,
        }
    }

    /// Runs `f` one nesting level deeper, rejecting the payload with
    /// [`WireError::TooDeep`] once [`WireReader::MAX_DEPTH`] levels are open.
    ///
    /// Every container or variant decoder that recurses into child values
    /// (`Vec`, `BTreeSet`, `BTreeMap`, `Option`, struct fields, enum
    /// payloads) goes through this, so decoder stack depth is bounded by the
    /// limit rather than by the input.
    pub fn nested<T>(
        &mut self,
        f: impl FnOnce(&mut Self) -> Result<T, WireError>,
    ) -> Result<T, WireError> {
        if self.depth >= Self::MAX_DEPTH {
            return Err(WireError::TooDeep {
                limit: Self::MAX_DEPTH,
            });
        }
        self.depth += 1;
        let out = f(self);
        self.depth -= 1;
        out
    }

    /// Number of unconsumed bytes.
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::UnexpectedEof {
                needed: n,
                remaining: self.remaining(),
            });
        }
        let slice = &self.bytes[self.pos..self.pos + n];
        self.pos += n;
        Ok(slice)
    }

    /// Reads one byte.
    pub fn get_u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u16`.
    pub fn get_u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(
            self.take(2)?.try_into().expect("2 bytes"),
        ))
    }

    /// Reads a little-endian `u32`.
    pub fn get_u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(
            self.take(4)?.try_into().expect("4 bytes"),
        ))
    }

    /// Reads a little-endian `u64`.
    pub fn get_u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(
            self.take(8)?.try_into().expect("8 bytes"),
        ))
    }

    /// Reads a `bool` (any non-zero byte is rejected rather than coerced).
    pub fn get_bool(&mut self) -> Result<bool, WireError> {
        match self.get_u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(WireError::InvalidTag { what: "bool", tag }),
        }
    }

    /// Reads a `usize` encoded as `u64`.
    pub fn get_usize(&mut self) -> Result<usize, WireError> {
        let v = self.get_u64()?;
        usize::try_from(v).map_err(|_| WireError::Invalid { what: "usize" })
    }

    /// Reads a length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String, WireError> {
        let len = self.get_usize()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::BadString)
    }

    /// Asserts the whole input was consumed — call after decoding a
    /// top-level value to catch framing bugs.
    pub fn finish(&self) -> Result<(), WireError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(WireError::TrailingBytes {
                remaining: self.remaining(),
            })
        }
    }
}

/// A type with a deterministic byte encoding.
///
/// `decode(encode(x)) == x` for every value, and `encode` is a pure function
/// of the value — two equal values always produce identical bytes, so encoded
/// forms can be compared or hashed for change detection.
pub trait Wire: Sized {
    /// Appends the value's encoding to `w`.
    fn encode(&self, w: &mut WireWriter);

    /// Decodes one value from the reader's current position.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;
}

/// Encodes a value into a fresh byte vector.
pub fn to_bytes<T: Wire>(value: &T) -> Vec<u8> {
    let mut w = WireWriter::new();
    value.encode(&mut w);
    w.into_bytes()
}

/// Decodes a value from `bytes`, requiring every byte to be consumed.
pub fn from_bytes<T: Wire>(bytes: &[u8]) -> Result<T, WireError> {
    let mut r = WireReader::new(bytes);
    let value = T::decode(&mut r)?;
    r.finish()?;
    Ok(value)
}

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) over `bytes` — the
/// one checksum of every durable frame built on this codec (`SCSN`
/// snapshots, `SCJL` journal segments and records, `SCSA` anchors). The wire
/// layer only catches *structural* damage (truncation, bad tags); a flipped
/// bit inside an in-range integer would otherwise decode cleanly into a
/// silently wrong value, and a durable format must fail loudly instead.
/// Public so byte-surgery tooling (the fuzz generators) can restamp frames
/// it has deliberately damaged.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &byte in bytes {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            let mask = (crc & 1).wrapping_neg();
            crc = (crc >> 1) ^ (0xEDB8_8320 & mask);
        }
    }
    !crc
}

// ---------------------------------------------------------------------------
// Primitives and containers
// ---------------------------------------------------------------------------

macro_rules! wire_uint {
    ($ty:ty, $put:ident, $get:ident) => {
        impl Wire for $ty {
            fn encode(&self, w: &mut WireWriter) {
                w.$put(*self);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.$get()
            }
        }
    };
}

wire_uint!(u8, put_u8, get_u8);
wire_uint!(u16, put_u16, get_u16);
wire_uint!(u32, put_u32, get_u32);
wire_uint!(u64, put_u64, get_u64);
wire_uint!(usize, put_usize, get_usize);
wire_uint!(bool, put_bool, get_bool);

impl Wire for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.get_str()
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(r.nested(T::decode)?)),
            tag => Err(WireError::InvalidTag {
                what: "Option",
                tag,
            }),
        }
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.get_usize()?;
        // Guard against corrupted length prefixes: never pre-allocate more
        // elements than the remaining input could possibly hold (an element
        // takes at least one byte).
        let mut items = Vec::with_capacity(len.min(r.remaining()));
        for _ in 0..len {
            items.push(r.nested(T::decode)?);
        }
        Ok(items)
    }
}

/// Sorted collections decode **canonically**: elements must arrive in the
/// strictly ascending order `encode` produces. Out-of-order or duplicate
/// elements are rejected with [`WireError::NonCanonical`] instead of being
/// silently re-sorted/collapsed — otherwise a hostile buffer could decode
/// into a value that re-encodes to different bytes (and a duplicate key could
/// alias two payloads onto one entry).
impl<T: Wire + Ord> Wire for BTreeSet<T> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_usize(self.len());
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.get_usize()?;
        let mut set = BTreeSet::new();
        for _ in 0..len {
            let item = r.nested(T::decode)?;
            if let Some(max) = set.last() {
                if *max >= item {
                    return Err(WireError::NonCanonical { what: "BTreeSet" });
                }
            }
            set.insert(item);
        }
        Ok(set)
    }
}

impl<K: Wire + Ord, V: Wire> Wire for BTreeMap<K, V> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_usize(self.len());
        for (k, v) in self {
            k.encode(w);
            v.encode(w);
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let len = r.get_usize()?;
        let mut map = BTreeMap::new();
        for _ in 0..len {
            let k = r.nested(K::decode)?;
            if let Some((max, _)) = map.last_key_value() {
                if *max >= k {
                    return Err(WireError::NonCanonical { what: "BTreeMap" });
                }
            }
            let v = r.nested(V::decode)?;
            map.insert(k, v);
        }
        Ok(map)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok((r.nested(A::decode)?, r.nested(B::decode)?))
    }
}

// ---------------------------------------------------------------------------
// Policy-layer types
// ---------------------------------------------------------------------------

macro_rules! wire_id {
    ($($ty:ident),*) => {
        $(
            impl Wire for $ty {
                fn encode(&self, w: &mut WireWriter) {
                    w.put_u32(self.raw());
                }
                fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                    Ok($ty::new(r.get_u32()?))
                }
            }
        )*
    };
}

wire_id!(TenantId, VrfId, EpgId, EndpointId, ContractId, FilterId, SwitchId);

macro_rules! wire_tagged {
    ($ty:ident { $($tag:literal => $variant:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, w: &mut WireWriter) {
                let tag: u8 = match self {
                    $($ty::$variant => $tag,)*
                };
                w.put_u8(tag);
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                match r.get_u8()? {
                    $($tag => Ok($ty::$variant),)*
                    tag => Err(WireError::InvalidTag {
                        what: stringify!($ty),
                        tag,
                    }),
                }
            }
        }
    };
}

wire_tagged!(Protocol { 0 => Any, 1 => Tcp, 2 => Udp, 3 => Icmp });
wire_tagged!(Action { 0 => Allow, 1 => Deny });
wire_tagged!(ChangeAction { 0 => Create, 1 => Modify, 2 => Delete });
wire_tagged!(Severity { 0 => Info, 1 => Warning, 2 => Critical });
wire_tagged!(FaultKind {
    0 => TcamOverflow,
    1 => SwitchUnreachable,
    2 => AgentCrash,
    3 => TcamCorruption,
    4 => RuleEviction,
    5 => ChannelDegraded,
    6 => Repair,
    7 => Unknown,
});

impl Wire for ObjectId {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            ObjectId::Vrf(id) => {
                w.put_u8(0);
                id.encode(w);
            }
            ObjectId::Epg(id) => {
                w.put_u8(1);
                id.encode(w);
            }
            ObjectId::Contract(id) => {
                w.put_u8(2);
                id.encode(w);
            }
            ObjectId::Filter(id) => {
                w.put_u8(3);
                id.encode(w);
            }
            ObjectId::Switch(id) => {
                w.put_u8(4);
                id.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(ObjectId::Vrf(r.nested(VrfId::decode)?)),
            1 => Ok(ObjectId::Epg(r.nested(EpgId::decode)?)),
            2 => Ok(ObjectId::Contract(r.nested(ContractId::decode)?)),
            3 => Ok(ObjectId::Filter(r.nested(FilterId::decode)?)),
            4 => Ok(ObjectId::Switch(r.nested(SwitchId::decode)?)),
            tag => Err(WireError::InvalidTag {
                what: "ObjectId",
                tag,
            }),
        }
    }
}

impl Wire for PortRange {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u16(self.start);
        w.put_u16(self.end);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let start = r.get_u16()?;
        let end = r.get_u16()?;
        if start > end {
            return Err(WireError::Invalid { what: "PortRange" });
        }
        Ok(PortRange::new(start, end))
    }
}

impl Wire for EpgPair {
    fn encode(&self, w: &mut WireWriter) {
        self.a.encode(w);
        self.b.encode(w);
    }
    /// An [`EpgPair`] is normalized (`a <= b`) by construction, so its
    /// canonical encoding always carries the smaller id first. A payload with
    /// the members swapped is rejected rather than silently re-normalized:
    /// re-normalizing would make two distinct byte strings decode to the same
    /// value, breaking the decode→encode→decode fixpoint.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let a = EpgId::decode(r)?;
        let b = EpgId::decode(r)?;
        if a > b {
            return Err(WireError::NonCanonical { what: "EpgPair" });
        }
        Ok(EpgPair::new(a, b))
    }
}

impl Wire for SwitchEpgPair {
    fn encode(&self, w: &mut WireWriter) {
        self.switch.encode(w);
        self.pair.encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let switch = SwitchId::decode(r)?;
        let pair = r.nested(EpgPair::decode)?;
        Ok(SwitchEpgPair::new(switch, pair))
    }
}

macro_rules! wire_struct {
    ($ty:ident { $($field:ident),* $(,)? }) => {
        impl Wire for $ty {
            fn encode(&self, w: &mut WireWriter) {
                $(self.$field.encode(w);)*
            }
            fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
                r.nested(|r| {
                    Ok($ty {
                        $($field: Wire::decode(r)?,)*
                    })
                })
            }
        }
    };
}

wire_struct!(RuleMatch {
    vrf,
    src_epg,
    dst_epg,
    protocol,
    ports
});
wire_struct!(TcamRule {
    matcher,
    action,
    priority
});
wire_struct!(RuleProvenance {
    vrf,
    consumer,
    provider,
    contract,
    filter
});
wire_struct!(LogicalRule {
    switch,
    rule,
    provenance
});
wire_struct!(FilterEntry {
    protocol,
    ports,
    action
});
wire_struct!(Tenant { id, name });
wire_struct!(Vrf { id, name, tenant });
wire_struct!(Epg { id, name, vrf });
wire_struct!(Endpoint {
    id,
    name,
    epg,
    switch
});
wire_struct!(Switch {
    id,
    name,
    tcam_capacity
});
wire_struct!(Filter { id, name, entries });
wire_struct!(Contract { id, name, filters });
wire_struct!(ContractBinding {
    consumer,
    provider,
    contract
});

/// Rejects a decoded object list whose `key` projection is not strictly
/// ascending.
///
/// [`PolicyUniverse`] stores objects in id-keyed `BTreeMap`s and bindings in a
/// sorted, deduplicated `Vec`, so [`PolicyUniverse::encode`] always emits each
/// list strictly ascending. Accepting any other order (or duplicates, which
/// the builder would silently collapse) would let two distinct byte strings
/// decode to the same universe, breaking the decode→encode→decode fixpoint.
fn require_ascending<T, K: Ord>(
    items: &[T],
    key: impl Fn(&T) -> K,
    what: &'static str,
) -> Result<(), WireError> {
    if items.windows(2).all(|w| key(&w[0]) < key(&w[1])) {
        Ok(())
    } else {
        Err(WireError::NonCanonical { what })
    }
}

impl Wire for PolicyUniverse {
    fn encode(&self, w: &mut WireWriter) {
        self.tenants().cloned().collect::<Vec<_>>().encode(w);
        self.vrfs().cloned().collect::<Vec<_>>().encode(w);
        self.epgs().cloned().collect::<Vec<_>>().encode(w);
        self.endpoints().cloned().collect::<Vec<_>>().encode(w);
        self.switches().cloned().collect::<Vec<_>>().encode(w);
        self.contracts().cloned().collect::<Vec<_>>().encode(w);
        self.filters().cloned().collect::<Vec<_>>().encode(w);
        self.bindings().to_vec().encode(w);
    }

    /// Decodes the object lists and re-validates them through
    /// [`PolicyUniverse::builder`], so a decoded universe upholds the same
    /// referential-integrity invariants as a freshly built one.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let tenants = Vec::<Tenant>::decode(r)?;
        let vrfs = Vec::<Vrf>::decode(r)?;
        let epgs = Vec::<Epg>::decode(r)?;
        let endpoints = Vec::<Endpoint>::decode(r)?;
        let switches = Vec::<Switch>::decode(r)?;
        let contracts = Vec::<Contract>::decode(r)?;
        let filters = Vec::<Filter>::decode(r)?;
        let bindings = Vec::<ContractBinding>::decode(r)?;

        require_ascending(&tenants, |t| t.id, "PolicyUniverse.tenants")?;
        require_ascending(&vrfs, |v| v.id, "PolicyUniverse.vrfs")?;
        require_ascending(&epgs, |e| e.id, "PolicyUniverse.epgs")?;
        require_ascending(&endpoints, |e| e.id, "PolicyUniverse.endpoints")?;
        require_ascending(&switches, |s| s.id, "PolicyUniverse.switches")?;
        require_ascending(&contracts, |c| c.id, "PolicyUniverse.contracts")?;
        require_ascending(&filters, |f| f.id, "PolicyUniverse.filters")?;
        require_ascending(&bindings, |b| *b, "PolicyUniverse.bindings")?;

        let mut builder = PolicyUniverse::builder();
        for t in tenants {
            builder.tenant(t);
        }
        for v in vrfs {
            builder.vrf(v);
        }
        for e in epgs {
            builder.epg(e);
        }
        for ep in endpoints {
            builder.endpoint(ep);
        }
        for s in switches {
            builder.switch(s);
        }
        for c in contracts {
            builder.contract(c);
        }
        for f in filters {
            builder.filter(f);
        }
        for b in bindings {
            builder.bind(b);
        }
        builder.build().map_err(|_| WireError::Invalid {
            what: "PolicyUniverse",
        })
    }
}

// ---------------------------------------------------------------------------
// Fabric-layer types
// ---------------------------------------------------------------------------

impl Wire for Timestamp {
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.ticks());
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(Timestamp::new(r.get_u64()?))
    }
}

wire_struct!(ChangeLogEntry {
    time,
    object,
    action,
    switch,
    detail
});
wire_struct!(FaultLogEntry {
    time,
    switch,
    kind,
    severity,
    cleared_at,
    message
});

impl Wire for ChangeLog {
    fn encode(&self, w: &mut WireWriter) {
        self.entries().to_vec().encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let entries = Vec::<ChangeLogEntry>::decode(r)?;
        let mut log = ChangeLog::new();
        for entry in entries {
            log.push(entry);
        }
        Ok(log)
    }
}

impl Wire for FaultLog {
    fn encode(&self, w: &mut WireWriter) {
        self.entries().to_vec().encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let entries = Vec::<FaultLogEntry>::decode(r)?;
        let mut log = FaultLog::new();
        for entry in entries {
            log.push(entry);
        }
        Ok(log)
    }
}

impl Wire for FabricEvent {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            FabricEvent::PolicyUpdate { version, universe } => {
                w.put_u8(0);
                version.encode(w);
                universe.encode(w);
            }
            FabricEvent::TcamSync { switch, rules } => {
                w.put_u8(1);
                switch.encode(w);
                rules.encode(w);
            }
            FabricEvent::ChangeEvents(entries) => {
                w.put_u8(2);
                entries.encode(w);
            }
            FabricEvent::FaultEvents { raised, cleared } => {
                w.put_u8(3);
                raised.encode(w);
                cleared.encode(w);
            }
        }
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        match r.get_u8()? {
            0 => Ok(FabricEvent::PolicyUpdate {
                version: u64::decode(r)?,
                universe: Arc::new(PolicyUniverse::decode(r)?),
            }),
            1 => Ok(FabricEvent::TcamSync {
                switch: SwitchId::decode(r)?,
                rules: Vec::decode(r)?,
            }),
            2 => Ok(FabricEvent::ChangeEvents(Vec::decode(r)?)),
            3 => Ok(FabricEvent::FaultEvents {
                raised: Vec::decode(r)?,
                cleared: Vec::decode(r)?,
            }),
            tag => Err(WireError::InvalidTag {
                what: "FabricEvent",
                tag,
            }),
        }
    }
}

wire_struct!(EventBatch { epoch, events });

impl Wire for FabricView {
    /// Encodes the view's five artifacts. The compiled logical rules and the
    /// cached switch set are *not* written: both are pure functions of the
    /// universe and are recompiled on decode, exactly as
    /// [`FabricView::apply`] does on a policy update — so a decoded view is
    /// bit-identical to the encoded one while the bytes stay proportional to
    /// the primary state.
    fn encode(&self, w: &mut WireWriter) {
        w.put_u64(self.universe_version());
        self.universe().encode(w);
        self.tcam().encode(w);
        self.change_log().encode(w);
        self.fault_log().encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        let universe_version = r.get_u64()?;
        let universe = PolicyUniverse::decode(r)?;
        let tcam: BTreeMap<SwitchId, Vec<TcamRule>> = BTreeMap::decode(r)?;
        // A live view only ever holds TCAM state for switches that exist in
        // the universe ([`FabricView::apply`] rejects syncs for unknown
        // switches), so a payload with a stray table is forged or corrupt.
        // The subset may be strict: undeployed fabrics have no tables yet.
        let known: BTreeSet<SwitchId> = universe.switch_ids().into_iter().collect();
        if !tcam.keys().all(|s| known.contains(s)) {
            return Err(WireError::Invalid { what: "FabricView" });
        }
        let change_log = ChangeLog::decode(r)?;
        let fault_log = FaultLog::decode(r)?;
        Ok(FabricView::from_parts(
            universe_version,
            universe,
            tcam,
            change_log,
            fault_log,
        ))
    }
}

/// A [`FullSync`] is "a fresh [`FabricView`] shipped over the wire": its
/// encoding *is* the view's encoding (no extra framing), and every validation
/// the view decoder performs — stray TCAM tables, non-canonical collections —
/// applies unchanged. The wrapper type still matters at the API layer: a
/// consumer that receives one installs it wholesale via
/// [`FullSync::into_view`] instead of applying it as a delta.
impl Wire for FullSync {
    fn encode(&self, w: &mut WireWriter) {
        self.view().encode(w);
    }
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        Ok(FullSync::from_view(FabricView::decode(r)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::FabricProbe;
    use crate::fabric::Fabric;
    use scout_policy::sample;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(value: &T) {
        let bytes = to_bytes(value);
        let decoded: T = from_bytes(&bytes).expect("roundtrip decodes");
        assert_eq!(&decoded, value);
        // The decode→encode→decode fixpoint: canonical decoding means the
        // decoded value re-encodes to the exact bytes it arrived as, so no
        // two byte strings alias one value.
        assert_eq!(to_bytes(&decoded), bytes, "encoding is not a fixpoint");
    }

    #[test]
    fn checksum_matches_the_ieee_check_value() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(&0u8);
        roundtrip(&u16::MAX);
        roundtrip(&0xDEAD_BEEFu32);
        roundtrip(&u64::MAX);
        roundtrip(&usize::MAX);
        roundtrip(&true);
        roundtrip(&false);
        roundtrip(&String::from("héllo wörld"));
        roundtrip(&Option::<u32>::None);
        roundtrip(&Some(42u32));
        roundtrip(&vec![1u32, 2, 3]);
        roundtrip(&BTreeSet::from([1u64, 5, 9]));
        roundtrip(&BTreeMap::from([
            (1u32, String::from("a")),
            (2, String::from("b")),
        ]));
        roundtrip(&(7u32, String::from("pair")));
    }

    #[test]
    fn policy_types_roundtrip() {
        let universe = sample::three_tier();
        roundtrip(&universe);
        let fabric = {
            let mut f = Fabric::new(universe);
            f.deploy();
            f
        };
        roundtrip(&fabric.logical_rules().to_vec());
        roundtrip(&fabric.collect_tcam());
        for object in fabric.universe().all_objects() {
            roundtrip(&object);
        }
        roundtrip(&EpgPair::new(sample::APP, sample::WEB));
        roundtrip(&SwitchEpgPair::new(
            sample::S2,
            EpgPair::new(sample::APP, sample::DB),
        ));
    }

    #[test]
    fn logs_roundtrip_with_cleared_entries() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric.disconnect_switch(sample::S2);
        fabric.repair_switch(sample::S2);
        assert!(!fabric.change_log().is_empty());
        assert!(!fabric.fault_log().is_empty());
        roundtrip(fabric.change_log());
        roundtrip(fabric.fault_log());
    }

    #[test]
    fn event_batches_roundtrip_for_every_mutation_class() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let mut probe = FabricProbe::new(&fabric);

        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        fabric.disconnect_switch(sample::S3);
        let universe = fabric.universe().clone();
        fabric.update_policy(universe);
        fabric.repair_switch(sample::S3);

        let batch = EventBatch::new(1, probe.observe(&fabric));
        assert!(batch.len() >= 3, "all event kinds exercised: {batch:?}");
        roundtrip(&batch);
    }

    #[test]
    fn fabric_view_roundtrips_bit_identically() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        fabric.disconnect_switch(sample::S1);
        let view = FabricView::of(&fabric);
        let bytes = to_bytes(&view);
        let decoded: FabricView = from_bytes(&bytes).expect("view decodes");
        assert_eq!(decoded, view);
        assert!(decoded.matches(&fabric));
        // Recompiled derived state agrees with the original.
        assert_eq!(decoded.logical_rules(), view.logical_rules());
        assert_eq!(decoded.switch_set(), view.switch_set());
    }

    #[test]
    fn full_sync_roundtrips_and_matches_view_encoding() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        fabric.disconnect_switch(sample::S1);
        let sync = FullSync::of(&fabric);
        roundtrip(&sync);
        // A FullSync is exactly its view on the wire: no extra framing.
        assert_eq!(to_bytes(&sync), to_bytes(sync.view()));
    }

    #[test]
    fn full_sync_rejects_truncation_and_stray_tcam() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let bytes = to_bytes(&FullSync::of(&fabric));
        assert!(matches!(
            from_bytes::<FullSync>(&bytes[..bytes.len() - 1]),
            Err(WireError::UnexpectedEof { .. })
        ));
        // Every FabricView validation applies: a view with a TCAM table for a
        // switch outside the topology is rejected through the wrapper too.
        let view = FabricView::of(&fabric);
        let mut w = WireWriter::new();
        w.put_u64(view.universe_version());
        view.universe().encode(&mut w);
        let mut tcam = view.tcam().clone();
        tcam.insert(SwitchId::new(9999), Vec::new());
        tcam.encode(&mut w);
        view.change_log().encode(&mut w);
        view.fault_log().encode(&mut w);
        assert_eq!(
            from_bytes::<FullSync>(&w.into_bytes()),
            Err(WireError::Invalid { what: "FabricView" })
        );
    }

    #[test]
    fn equal_values_encode_to_identical_bytes() {
        let mut a = Fabric::new(sample::three_tier());
        a.deploy();
        let view_a = FabricView::of(&a);
        let view_b = FabricView::of(&a);
        assert_eq!(to_bytes(&view_a), to_bytes(&view_b));
    }

    #[test]
    fn truncated_input_is_rejected() {
        let bytes = to_bytes(&String::from("truncate me"));
        for cut in 0..bytes.len() {
            let err = from_bytes::<String>(&bytes[..cut]).unwrap_err();
            assert!(
                matches!(err, WireError::UnexpectedEof { .. }),
                "cut {cut}: {err:?}"
            );
        }
    }

    #[test]
    fn invalid_tags_and_trailing_bytes_are_rejected() {
        assert_eq!(
            from_bytes::<Protocol>(&[9]),
            Err(WireError::InvalidTag {
                what: "Protocol",
                tag: 9
            })
        );
        assert_eq!(
            from_bytes::<bool>(&[2]),
            Err(WireError::InvalidTag {
                what: "bool",
                tag: 2
            })
        );
        let mut bytes = to_bytes(&7u32);
        bytes.push(0);
        assert_eq!(
            from_bytes::<u32>(&bytes),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
        // Errors render with context.
        let text = WireError::InvalidTag {
            what: "Protocol",
            tag: 9,
        }
        .to_string();
        assert!(text.contains("Protocol"));
    }

    #[test]
    fn invalid_universe_payload_fails_validation() {
        // An EPG referencing a missing VRF decodes structurally but must be
        // rejected by the builder re-validation.
        let mut w = WireWriter::new();
        Vec::<Tenant>::new().encode(&mut w);
        Vec::<Vrf>::new().encode(&mut w);
        vec![Epg::new(EpgId::new(1), "orphan", VrfId::new(9))].encode(&mut w);
        Vec::<Endpoint>::new().encode(&mut w);
        Vec::<Switch>::new().encode(&mut w);
        Vec::<Contract>::new().encode(&mut w);
        Vec::<Filter>::new().encode(&mut w);
        Vec::<ContractBinding>::new().encode(&mut w);
        let err = from_bytes::<PolicyUniverse>(&w.into_bytes()).unwrap_err();
        assert_eq!(
            err,
            WireError::Invalid {
                what: "PolicyUniverse"
            }
        );
    }

    #[test]
    fn inverted_port_range_is_rejected() {
        let mut w = WireWriter::new();
        w.put_u16(10);
        w.put_u16(5);
        assert_eq!(
            from_bytes::<PortRange>(&w.into_bytes()),
            Err(WireError::Invalid { what: "PortRange" })
        );
    }

    #[test]
    fn unsorted_or_duplicate_set_elements_are_rejected() {
        // count = 2, elements 5 then 1: valid set contents, wrong order.
        let mut w = WireWriter::new();
        w.put_u64(2);
        w.put_u64(5);
        w.put_u64(1);
        assert_eq!(
            from_bytes::<BTreeSet<u64>>(&w.into_bytes()),
            Err(WireError::NonCanonical { what: "BTreeSet" })
        );
        // count = 2, element 5 twice: the old decoder collapsed this to {5}.
        let mut w = WireWriter::new();
        w.put_u64(2);
        w.put_u64(5);
        w.put_u64(5);
        assert_eq!(
            from_bytes::<BTreeSet<u64>>(&w.into_bytes()),
            Err(WireError::NonCanonical { what: "BTreeSet" })
        );
    }

    #[test]
    fn unsorted_or_duplicate_map_keys_are_rejected() {
        let mut w = WireWriter::new();
        w.put_u64(2);
        w.put_u32(2); // key 2
        w.put_u32(20);
        w.put_u32(1); // key 1: out of order
        w.put_u32(10);
        assert_eq!(
            from_bytes::<BTreeMap<u32, u32>>(&w.into_bytes()),
            Err(WireError::NonCanonical { what: "BTreeMap" })
        );
        let mut w = WireWriter::new();
        w.put_u64(2);
        w.put_u32(1); // key 1
        w.put_u32(10);
        w.put_u32(1); // key 1 again: last-write-wins under the old decoder
        w.put_u32(11);
        assert_eq!(
            from_bytes::<BTreeMap<u32, u32>>(&w.into_bytes()),
            Err(WireError::NonCanonical { what: "BTreeMap" })
        );
    }

    #[test]
    fn denormalized_epg_pair_is_rejected() {
        // EpgPair::new(APP, WEB) normalizes so a <= b; swapped bytes decode
        // to the same value and must therefore be refused.
        let pair = EpgPair::new(sample::APP, sample::WEB);
        let mut w = WireWriter::new();
        pair.b.encode(&mut w);
        pair.a.encode(&mut w);
        assert_eq!(
            from_bytes::<EpgPair>(&w.into_bytes()),
            Err(WireError::NonCanonical { what: "EpgPair" })
        );
    }

    #[test]
    fn non_canonical_universe_lists_are_rejected() {
        let universe = sample::three_tier();
        let encode_with = |mutate: &dyn Fn(&mut Vec<Epg>, &mut Vec<ContractBinding>)| {
            let mut epgs: Vec<Epg> = universe.epgs().cloned().collect();
            let mut bindings = universe.bindings().to_vec();
            mutate(&mut epgs, &mut bindings);
            let mut w = WireWriter::new();
            universe
                .tenants()
                .cloned()
                .collect::<Vec<_>>()
                .encode(&mut w);
            universe.vrfs().cloned().collect::<Vec<_>>().encode(&mut w);
            epgs.encode(&mut w);
            universe
                .endpoints()
                .cloned()
                .collect::<Vec<_>>()
                .encode(&mut w);
            universe
                .switches()
                .cloned()
                .collect::<Vec<_>>()
                .encode(&mut w);
            universe
                .contracts()
                .cloned()
                .collect::<Vec<_>>()
                .encode(&mut w);
            universe
                .filters()
                .cloned()
                .collect::<Vec<_>>()
                .encode(&mut w);
            bindings.encode(&mut w);
            w.into_bytes()
        };

        // Unchanged lists decode fine (the harness below is sound).
        assert!(from_bytes::<PolicyUniverse>(&encode_with(&|_, _| {})).is_ok());

        // Out-of-order EPG list: the builder would accept and re-sort it.
        assert!(universe.epgs().count() >= 2);
        assert_eq!(
            from_bytes::<PolicyUniverse>(&encode_with(&|epgs, _| epgs.swap(0, 1))),
            Err(WireError::NonCanonical {
                what: "PolicyUniverse.epgs"
            })
        );

        // Duplicate binding: the builder would silently deduplicate it, so
        // the duplicated bytes would re-encode shorter than they arrived.
        assert!(!universe.bindings().is_empty());
        assert_eq!(
            from_bytes::<PolicyUniverse>(&encode_with(&|_, bindings| {
                bindings.insert(0, bindings[0]);
            })),
            Err(WireError::NonCanonical {
                what: "PolicyUniverse.bindings"
            })
        );
    }

    #[test]
    fn fabric_view_with_stray_tcam_table_is_rejected() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let view = FabricView::of(&fabric);
        let mut w = WireWriter::new();
        w.put_u64(view.universe_version());
        view.universe().encode(&mut w);
        let mut tcam = view.tcam().clone();
        tcam.insert(SwitchId::new(9999), Vec::new());
        tcam.encode(&mut w);
        view.change_log().encode(&mut w);
        view.fault_log().encode(&mut w);
        assert_eq!(
            from_bytes::<FabricView>(&w.into_bytes()),
            Err(WireError::Invalid { what: "FabricView" })
        );
    }

    /// A minimal recursive wire type. No production type recurses today —
    /// decoding is type-directed, so nesting depth is bounded by the type —
    /// but the depth guard must hold for any future recursive payload.
    #[derive(Debug, PartialEq)]
    enum Chain {
        End,
        Link(Box<Chain>),
    }

    impl Wire for Chain {
        fn encode(&self, w: &mut WireWriter) {
            match self {
                Chain::End => w.put_u8(0),
                Chain::Link(next) => {
                    w.put_u8(1);
                    next.encode(w);
                }
            }
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            match r.get_u8()? {
                0 => Ok(Chain::End),
                1 => Ok(Chain::Link(Box::new(r.nested(Chain::decode)?))),
                tag => Err(WireError::InvalidTag { what: "Chain", tag }),
            }
        }
    }

    #[test]
    fn nesting_deeper_than_the_limit_is_rejected() {
        let chain_bytes = |links: usize| {
            let mut bytes = vec![1u8; links];
            bytes.push(0);
            bytes
        };
        // Exactly at the limit decodes.
        let deepest = from_bytes::<Chain>(&chain_bytes(WireReader::MAX_DEPTH));
        assert!(deepest.is_ok());
        // One level past it is a typed error, not a stack overflow.
        assert_eq!(
            from_bytes::<Chain>(&chain_bytes(WireReader::MAX_DEPTH + 1)),
            Err(WireError::TooDeep {
                limit: WireReader::MAX_DEPTH
            })
        );
    }

    #[test]
    fn huge_length_prefix_is_a_typed_error_without_preallocation() {
        // A u64::MAX element count with a near-empty body must fail with
        // UnexpectedEof after allocating at most `remaining` capacity.
        let mut w = WireWriter::new();
        w.put_u64(u64::MAX);
        let bytes = w.into_bytes();
        assert!(matches!(
            from_bytes::<Vec<u64>>(&bytes),
            Err(WireError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            from_bytes::<String>(&bytes),
            Err(WireError::UnexpectedEof { .. })
        ));
        assert!(matches!(
            from_bytes::<BTreeMap<u64, u64>>(&bytes),
            Err(WireError::UnexpectedEof { .. })
        ));
    }
}
