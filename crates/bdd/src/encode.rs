//! Encoders from integer fields and ranges to BDDs.
//!
//! TCAM rules match on fixed-width integer fields (VRF id, EPG class ids,
//! protocol, port). A packet-classifier rule set becomes a BDD by encoding
//! every field over a contiguous block of boolean variables (most significant
//! bit first) and combining fields with conjunction.

use crate::manager::{Bdd, BddManager, Var};

/// A contiguous block of BDD variables encoding one unsigned integer field.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FieldEncoder {
    /// Index of the first (most significant) variable of the field.
    pub first_var: Var,
    /// Number of bits in the field.
    pub width: u32,
}

impl FieldEncoder {
    /// Creates an encoder for a field of `width` bits starting at `first_var`.
    ///
    /// # Panics
    ///
    /// Panics if `width` is 0 or greater than 64.
    pub fn new(first_var: Var, width: u32) -> Self {
        assert!(width > 0 && width <= 64, "field width must be in 1..=64");
        Self { first_var, width }
    }

    /// Index one past the last variable of the field.
    pub fn end_var(&self) -> Var {
        self.first_var + self.width
    }

    /// Largest value representable in this field.
    pub fn max_value(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    /// BDD asserting that the field equals `value` exactly.
    ///
    /// # Panics
    ///
    /// Panics if `value` does not fit in the field.
    pub fn exact(&self, manager: &mut BddManager, value: u64) -> Bdd {
        assert!(
            value <= self.max_value(),
            "value {value} does not fit in {} bits",
            self.width
        );
        let mut acc = Bdd::TRUE;
        for bit in 0..self.width {
            // Most significant bit is the first variable.
            let var = self.first_var + bit;
            let shift = self.width - 1 - bit;
            let bit_set = (value >> shift) & 1 == 1;
            let literal = if bit_set {
                manager.var(var)
            } else {
                manager.nvar(var)
            };
            acc = manager.and(acc, literal);
        }
        acc
    }

    /// BDD asserting that the field value is in the inclusive range
    /// `[lo, hi]`.
    ///
    /// Uses the classic recursive interval construction, producing a BDD of
    /// size `O(width)` per bound rather than enumerating values.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi` or `hi` does not fit in the field.
    pub fn range(&self, manager: &mut BddManager, lo: u64, hi: u64) -> Bdd {
        assert!(lo <= hi, "range lower bound exceeds upper bound");
        assert!(
            hi <= self.max_value(),
            "range upper bound {hi} does not fit in {} bits",
            self.width
        );
        if lo == 0 && hi == self.max_value() {
            return Bdd::TRUE;
        }
        let ge = self.compare(manager, lo, true);
        let le = self.compare(manager, hi, false);
        manager.and(ge, le)
    }

    /// BDD for `field >= bound` (when `greater` is true) or `field <= bound`.
    fn compare(&self, manager: &mut BddManager, bound: u64, greater: bool) -> Bdd {
        // Build from the least significant bit upward.
        // For >=: acc_k means "remaining low k bits >= low k bits of bound".
        // For <=: symmetric.
        let mut acc = Bdd::TRUE;
        for offset in 0..self.width {
            let bit_index = self.width - 1 - offset; // 0 = MSB
            let var = self.first_var + bit_index;
            let shift = offset;
            let bound_bit = (bound >> shift) & 1 == 1;
            let x = manager.var(var);
            let nx = manager.nvar(var);
            acc = if greater {
                if bound_bit {
                    // x=1 and rest >= ; x=0 impossible
                    manager.and(x, acc)
                } else {
                    // x=1 -> anything; x=0 -> rest >=
                    let when_zero = manager.and(nx, acc);
                    manager.or(x, when_zero)
                }
            } else if bound_bit {
                // <=: x=0 -> anything; x=1 -> rest <=
                let when_one = manager.and(x, acc);
                manager.or(nx, when_one)
            } else {
                // <=: x must be 0 and rest <=
                manager.and(nx, acc)
            };
        }
        acc
    }

    /// Extracts the field value from a full assignment (as produced by
    /// [`BddManager::any_sat`]).
    pub fn decode(&self, assignment: &[bool]) -> u64 {
        let mut value = 0u64;
        for bit in 0..self.width {
            let var = (self.first_var + bit) as usize;
            value <<= 1;
            if assignment.get(var).copied().unwrap_or(false) {
                value |= 1;
            }
        }
        value
    }
}

/// Lays out a sequence of fields over a fresh variable space.
///
/// # Example
///
/// ```
/// use scout_bdd::{BddManager, FieldLayout};
///
/// let layout = FieldLayout::new(&[4, 8]);
/// let mut m = BddManager::new(layout.total_vars());
/// let f0 = layout.field(0).exact(&mut m, 3);
/// let f1 = layout.field(1).range(&mut m, 10, 20);
/// let rule = m.and(f0, f1);
/// assert!(m.is_satisfiable(rule));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldLayout {
    fields: Vec<FieldEncoder>,
    total_vars: u32,
}

impl FieldLayout {
    /// Creates a layout with the given bit widths, packed contiguously.
    ///
    /// # Panics
    ///
    /// Panics if `widths` is empty or any width is 0 or greater than 64.
    pub fn new(widths: &[u32]) -> Self {
        assert!(!widths.is_empty(), "layout requires at least one field");
        let mut fields = Vec::with_capacity(widths.len());
        let mut next = 0u32;
        for &w in widths {
            let enc = FieldEncoder::new(next, w);
            next = enc.end_var();
            fields.push(enc);
        }
        Self {
            fields,
            total_vars: next,
        }
    }

    /// Total number of BDD variables needed by the layout.
    pub fn total_vars(&self) -> u32 {
        self.total_vars
    }

    /// The encoder for field `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of bounds.
    pub fn field(&self, index: usize) -> FieldEncoder {
        self.fields[index]
    }

    /// Creates a manager sized for this layout.
    pub fn manager(&self) -> BddManager {
        BddManager::new(self.total_vars)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_encodes_one_value() {
        let enc = FieldEncoder::new(0, 4);
        let mut m = BddManager::new(4);
        let b = enc.exact(&mut m, 9); // 1001
        assert_eq!(m.sat_count(b), 1.0);
        assert!(m.eval(b, &[true, false, false, true]));
        assert!(!m.eval(b, &[true, false, false, false]));
        let model = m.any_sat(b).unwrap();
        assert_eq!(enc.decode(&model), 9);
    }

    #[test]
    fn range_counts_match() {
        let enc = FieldEncoder::new(0, 6);
        let mut m = BddManager::new(6);
        let b = enc.range(&mut m, 5, 17);
        assert_eq!(m.sat_count(b), 13.0);
        // Every value in range satisfies, every value outside does not.
        for v in 0..64u64 {
            let exact = enc.exact(&mut m, v);
            let inside = m.and(exact, b);
            assert_eq!(m.is_satisfiable(inside), (5..=17).contains(&v), "v={v}");
        }
    }

    #[test]
    fn full_range_is_true() {
        let enc = FieldEncoder::new(0, 8);
        let mut m = BddManager::new(8);
        assert!(enc.range(&mut m, 0, 255).is_true());
    }

    #[test]
    fn single_value_range_equals_exact() {
        let enc = FieldEncoder::new(0, 5);
        let mut m = BddManager::new(5);
        for v in [0u64, 1, 15, 31] {
            let r = enc.range(&mut m, v, v);
            let e = enc.exact(&mut m, v);
            assert!(m.equivalent(r, e), "v={v}");
        }
    }

    #[test]
    fn layout_packs_fields_contiguously() {
        let layout = FieldLayout::new(&[3, 5, 2]);
        assert_eq!(layout.total_vars(), 10);
        assert_eq!(layout.field(0).first_var, 0);
        assert_eq!(layout.field(1).first_var, 3);
        assert_eq!(layout.field(2).first_var, 8);
        assert_eq!(layout.field(2).end_var(), 10);
    }

    #[test]
    fn layout_fields_are_independent() {
        let layout = FieldLayout::new(&[4, 4]);
        let mut m = layout.manager();
        let a = layout.field(0).exact(&mut m, 5);
        let b = layout.field(1).exact(&mut m, 12);
        let both = m.and(a, b);
        assert_eq!(m.sat_count(both), 1.0);
        let model = m.any_sat(both).unwrap();
        assert_eq!(layout.field(0).decode(&model), 5);
        assert_eq!(layout.field(1).decode(&model), 12);
    }

    #[test]
    #[should_panic(expected = "does not fit")]
    fn exact_rejects_oversized_value() {
        let enc = FieldEncoder::new(0, 3);
        let mut m = BddManager::new(3);
        let _ = enc.exact(&mut m, 8);
    }

    #[test]
    #[should_panic(expected = "lower bound exceeds")]
    fn range_rejects_inverted_bounds() {
        let enc = FieldEncoder::new(0, 3);
        let mut m = BddManager::new(3);
        let _ = enc.range(&mut m, 5, 2);
    }

    #[test]
    fn max_value_matches_width() {
        assert_eq!(FieldEncoder::new(0, 1).max_value(), 1);
        assert_eq!(FieldEncoder::new(0, 16).max_value(), 65535);
        assert_eq!(FieldEncoder::new(0, 64).max_value(), u64::MAX);
    }
}
