//! Object fields that keep short values inside the object: [`Name`] for
//! every object's name and [`FilterList`] for a contract's filters.
//!
//! A production-sized universe holds tens of thousands of named objects and
//! as many contracts. Held as `String`s and `Vec`s, each name and each
//! filter list would be one heap block, so decoding, cloning and dropping a
//! universe would cost one allocation per object. Both types store a short
//! value in the 24 bytes a `String` or `Vec` header takes, and spill a
//! longer one to a single exactly-sized block, so those operations cost a
//! few allocations per object table instead. Both read as the borrowed form
//! (`str`, `[FilterId]`) through `Deref`, compare and hash as it (a name
//! also orders as its string), and keep the wire bytes of `String` and
//! `Vec<FilterId>`.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;

use crate::ids::FilterId;

/// An object name: an immutable UTF-8 string that holds up to
/// [`Name::INLINE`] bytes inline and a longer one in a `Box<str>`.
///
/// `Display`, `Debug`, equality, order and hashing are those of the string
/// itself, exactly as for `String`.
///
/// ```
/// use scout_policy::Name;
///
/// let short = Name::from("leaf-101");
/// assert_eq!(short, "leaf-101");
/// assert_eq!(format!("{short:?}"), format!("{:?}", "leaf-101"));
/// let long = Name::from("z".repeat(Name::INLINE + 1));
/// assert!(short < long && long.len() == 23);
/// ```
#[derive(Clone)]
pub struct Name(NameRepr);

#[derive(Clone)]
enum NameRepr {
    Inline { len: u8, bytes: [u8; Name::INLINE] },
    Heap(Box<str>),
}

impl Name {
    /// The longest name, in bytes, held without a heap block.
    pub const INLINE: usize = 22;

    /// The name as a string slice.
    #[inline]
    pub fn as_str(&self) -> &str {
        std::str::from_utf8(self.as_bytes()).expect("a name holds the bytes of a str")
    }

    /// The name's UTF-8 bytes, which compare and order as the string does.
    #[inline]
    fn as_bytes(&self) -> &[u8] {
        match &self.0 {
            NameRepr::Inline { len, bytes } => &bytes[..usize::from(*len)],
            NameRepr::Heap(name) => name.as_bytes(),
        }
    }
}

impl From<&str> for Name {
    #[inline]
    fn from(name: &str) -> Self {
        let len = name.len();
        if len > Self::INLINE {
            return Self(NameRepr::Heap(name.into()));
        }
        let mut bytes = [0; Self::INLINE];
        bytes[..len].copy_from_slice(name.as_bytes());
        Self(NameRepr::Inline {
            len: len as u8,
            bytes,
        })
    }
}

impl From<String> for Name {
    fn from(name: String) -> Self {
        if name.len() > Self::INLINE {
            Self(NameRepr::Heap(name.into_boxed_str()))
        } else {
            Self::from(name.as_str())
        }
    }
}

impl Deref for Name {
    type Target = str;

    #[inline]
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl fmt::Display for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Display::fmt(self.as_str(), f)
    }
}

impl fmt::Debug for Name {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_str(), f)
    }
}

impl PartialEq for Name {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for Name {}

impl PartialOrd for Name {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Name {
    fn cmp(&self, other: &Self) -> Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl Hash for Name {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_str().hash(state);
    }
}

/// Compares a [`Name`] with a string type, both ways round.
macro_rules! name_eq {
    ($($other:ty),*) => {$(
        impl PartialEq<$other> for Name {
            fn eq(&self, other: &$other) -> bool {
                self.as_bytes() == AsRef::<str>::as_ref(other).as_bytes()
            }
        }
        impl PartialEq<Name> for $other {
            fn eq(&self, other: &Name) -> bool {
                other == self
            }
        }
    )*};
}

name_eq!(str, &str, String);

/// A contract's filter ids in list order: up to [`FilterList::INLINE`] ids
/// inline, a longer list in a `Box<[FilterId]>`.
///
/// Equality, hashing and `Debug` are those of the slice, as for
/// `Vec<FilterId>`.
///
/// ```
/// use scout_policy::{FilterId, FilterList};
///
/// let ids: Vec<FilterId> = (0..7).map(FilterId::new).collect();
/// let list = FilterList::from(ids.clone());
/// assert_eq!(list, ids);
/// assert_eq!(list[6], FilterId::new(6));
/// assert_eq!(FilterList::from(&ids[..2]).len(), 2);
/// ```
#[derive(Clone)]
pub struct FilterList(ListRepr);

#[derive(Clone)]
enum ListRepr {
    Inline {
        len: u8,
        ids: [FilterId; FilterList::INLINE],
    },
    Heap(Box<[FilterId]>),
}

impl FilterList {
    /// The longest list held without a heap block.
    pub const INLINE: usize = 5;

    /// The filter ids as a slice, in list order.
    #[inline]
    pub fn as_slice(&self) -> &[FilterId] {
        match &self.0 {
            ListRepr::Inline { len, ids } => &ids[..usize::from(*len)],
            ListRepr::Heap(ids) => ids,
        }
    }
}

impl Default for FilterList {
    fn default() -> Self {
        Self::from(&[][..])
    }
}

impl From<&[FilterId]> for FilterList {
    #[inline]
    fn from(list: &[FilterId]) -> Self {
        let len = list.len();
        if len > Self::INLINE {
            return Self(ListRepr::Heap(list.into()));
        }
        let mut ids = [FilterId::new(0); Self::INLINE];
        ids[..len].copy_from_slice(list);
        Self(ListRepr::Inline {
            len: len as u8,
            ids,
        })
    }
}

impl From<Vec<FilterId>> for FilterList {
    fn from(list: Vec<FilterId>) -> Self {
        if list.len() > Self::INLINE {
            Self(ListRepr::Heap(list.into_boxed_slice()))
        } else {
            Self::from(list.as_slice())
        }
    }
}

impl Deref for FilterList {
    type Target = [FilterId];

    #[inline]
    fn deref(&self) -> &[FilterId] {
        self.as_slice()
    }
}

impl<'a> IntoIterator for &'a FilterList {
    type Item = &'a FilterId;
    type IntoIter = std::slice::Iter<'a, FilterId>;

    fn into_iter(self) -> Self::IntoIter {
        self.as_slice().iter()
    }
}

impl fmt::Debug for FilterList {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self.as_slice(), f)
    }
}

impl PartialEq for FilterList {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for FilterList {}

impl Hash for FilterList {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq<Vec<FilterId>> for FilterList {
    fn eq(&self, other: &Vec<FilterId>) -> bool {
        self.as_slice() == other.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::hash_map::DefaultHasher;

    fn hash_of<T: Hash + ?Sized>(value: &T) -> u64 {
        let mut h = DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    fn names() -> Vec<String> {
        vec![
            String::new(),
            "a".into(),
            "a".repeat(22),
            "a".repeat(23),
            "b".repeat(200),
            "héllo wörld".into(),
            format!("{}é", "x".repeat(20)),
            format!("{}é", "x".repeat(21)),
        ]
    }

    #[test]
    fn both_types_take_no_more_room_than_the_owned_forms() {
        assert_eq!(std::mem::size_of::<Name>(), std::mem::size_of::<String>());
        assert_eq!(
            std::mem::size_of::<FilterList>(),
            std::mem::size_of::<Vec<FilterId>>()
        );
    }

    #[test]
    fn names_behave_as_their_strings() {
        let strings = names();
        for a in &strings {
            let name = Name::from(a.as_str());
            assert_eq!(name.as_str(), a);
            assert_eq!(Name::from(a.clone()), name);
            assert_eq!(name.to_string(), a.to_string());
            assert_eq!(format!("{name:?}"), format!("{a:?}"));
            assert_eq!(format!("{name:>30}"), format!("{a:>30}"));
            assert_eq!(hash_of(&name), hash_of(a));
            assert_eq!(name, *a);
            assert_eq!(*a, name);
            assert_eq!(name, a.as_str());
            for b in &strings {
                assert_eq!(
                    name.cmp(&Name::from(b.as_str())),
                    a.cmp(b),
                    "{a:?} vs {b:?}"
                );
            }
        }
    }

    #[test]
    fn filter_lists_behave_as_their_vectors() {
        for len in 0..12u32 {
            let ids: Vec<FilterId> = (0..len).map(|i| FilterId::new(i * 3)).collect();
            let list = FilterList::from(ids.clone());
            assert_eq!(list, ids);
            assert_eq!(list, FilterList::from(ids.as_slice()));
            assert_eq!(list.to_vec(), ids);
            assert_eq!((&list).into_iter().count(), ids.len());
            assert_eq!(format!("{list:?}"), format!("{ids:?}"));
            assert_eq!(hash_of(&list), hash_of(&ids));
        }
        assert!(FilterList::default().is_empty());
    }
}
