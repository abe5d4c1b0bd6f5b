//! # scout-bdd
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the
//! repo root is the crate-by-crate tour showing where this crate sits in
//! the pipeline.
//!
//! A small, dependency-free reduced ordered binary decision diagram (ROBDD)
//! engine. The SCOUT paper's "in-house equivalence checker" compares the
//! logical policy (L-type rules) against deployed TCAM rules (T-type rules) by
//! building one ROBDD per rule set and checking the diagrams for equality;
//! this crate provides the diagram machinery for that formulation, which
//! `scout-equiv` keeps as the reference its interval checker is tested
//! against.
//!
//! The engine supports hash-consed node storage (making semantic equivalence a
//! handle comparison), the binary `apply` operations (AND/OR/XOR/DIFF),
//! negation, if-then-else, satisfiability queries, model extraction,
//! satisfying-assignment counting, and integer field/range encoders for
//! packet-classification header spaces.
//!
//! # Example
//!
//! ```
//! use scout_bdd::{BddManager, FieldLayout};
//!
//! // Two 8-bit header fields.
//! let layout = FieldLayout::new(&[8, 8]);
//! let mut m = layout.manager();
//! // Rule A: field0 == 5 and field1 in 80..=90.
//! let f0 = layout.field(0).exact(&mut m, 5);
//! let f1 = layout.field(1).range(&mut m, 80, 90);
//! let rule_a = m.and(f0, f1);
//! // The rule admits exactly 11 packets.
//! assert_eq!(m.sat_count(rule_a), 11.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod encode;
pub mod manager;
pub mod table;

pub use encode::{FieldEncoder, FieldLayout};
pub use manager::{Bdd, BddManager, BddOp, Var};
pub use table::{CacheStats, NodeTableKind};

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// A tiny boolean expression AST used to cross-check BDD semantics against
    /// direct evaluation.
    #[derive(Debug, Clone)]
    enum Expr {
        Var(u32),
        Not(Box<Expr>),
        And(Box<Expr>, Box<Expr>),
        Or(Box<Expr>, Box<Expr>),
        Xor(Box<Expr>, Box<Expr>),
    }

    impl Expr {
        fn eval(&self, assignment: &[bool]) -> bool {
            match self {
                Expr::Var(i) => assignment[*i as usize],
                Expr::Not(e) => !e.eval(assignment),
                Expr::And(a, b) => a.eval(assignment) && b.eval(assignment),
                Expr::Or(a, b) => a.eval(assignment) || b.eval(assignment),
                Expr::Xor(a, b) => a.eval(assignment) ^ b.eval(assignment),
            }
        }

        fn to_bdd(&self, m: &mut BddManager) -> Bdd {
            match self {
                Expr::Var(i) => m.var(*i),
                Expr::Not(e) => {
                    let inner = e.to_bdd(m);
                    m.not(inner)
                }
                Expr::And(a, b) => {
                    let (x, y) = (a.to_bdd(m), b.to_bdd(m));
                    m.and(x, y)
                }
                Expr::Or(a, b) => {
                    let (x, y) = (a.to_bdd(m), b.to_bdd(m));
                    m.or(x, y)
                }
                Expr::Xor(a, b) => {
                    let (x, y) = (a.to_bdd(m), b.to_bdd(m));
                    m.xor(x, y)
                }
            }
        }
    }

    const NUM_VARS: u32 = 5;

    /// Generates a random expression over `NUM_VARS` variables with bounded
    /// depth, exercising every operator.
    fn random_expr(rng: &mut StdRng, depth: u32) -> Expr {
        if depth == 0 || rng.gen_bool(0.3) {
            return Expr::Var(rng.gen_range(0..NUM_VARS));
        }
        let a = Box::new(random_expr(rng, depth - 1));
        match rng.gen_range(0u8..4) {
            0 => Expr::Not(a),
            1 => Expr::And(a, Box::new(random_expr(rng, depth - 1))),
            2 => Expr::Or(a, Box::new(random_expr(rng, depth - 1))),
            _ => Expr::Xor(a, Box::new(random_expr(rng, depth - 1))),
        }
    }

    fn all_assignments(n: u32) -> impl Iterator<Item = Vec<bool>> {
        (0..(1u32 << n)).map(move |bits| (0..n).map(|i| (bits >> i) & 1 == 1).collect())
    }

    const CASES: u64 = 200;

    #[test]
    fn bdd_matches_truth_table() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let expr = random_expr(&mut rng, 4);
            let mut m = BddManager::new(NUM_VARS);
            let bdd = expr.to_bdd(&mut m);
            for assignment in all_assignments(NUM_VARS) {
                assert_eq!(
                    m.eval(bdd, &assignment),
                    expr.eval(&assignment),
                    "seed {seed}: {expr:?} at {assignment:?}"
                );
            }
        }
    }

    #[test]
    fn sat_count_matches_truth_table() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let expr = random_expr(&mut rng, 4);
            let mut m = BddManager::new(NUM_VARS);
            let bdd = expr.to_bdd(&mut m);
            let expected = all_assignments(NUM_VARS).filter(|a| expr.eval(a)).count() as f64;
            assert!(
                (m.sat_count(bdd) - expected).abs() < 1e-9,
                "seed {seed}: {expr:?}"
            );
        }
    }

    #[test]
    fn equivalent_expressions_get_equal_handles() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let expr = random_expr(&mut rng, 4);
            let mut m = BddManager::new(NUM_VARS);
            let bdd = expr.to_bdd(&mut m);
            // Double negation and OR with self are semantic no-ops.
            let neg = m.not(bdd);
            let double_neg = m.not(neg);
            assert!(m.equivalent(bdd, double_neg), "seed {seed}");
            let or_self = m.or(bdd, bdd);
            assert!(m.equivalent(bdd, or_self), "seed {seed}");
        }
    }

    #[test]
    fn any_sat_model_satisfies() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let expr = random_expr(&mut rng, 4);
            let mut m = BddManager::new(NUM_VARS);
            let bdd = expr.to_bdd(&mut m);
            match m.any_sat(bdd) {
                Some(model) => assert!(m.eval(bdd, &model), "seed {seed}"),
                None => assert!(bdd.is_false(), "seed {seed}"),
            }
        }
    }

    #[test]
    fn implies_fast_path_agrees_with_diff() {
        for seed in 0..CASES {
            let mut rng = StdRng::seed_from_u64(seed);
            let a_expr = random_expr(&mut rng, 4);
            let b_expr = random_expr(&mut rng, 4);
            let mut m = BddManager::new(NUM_VARS);
            let a = a_expr.to_bdd(&mut m);
            let b = b_expr.to_bdd(&mut m);
            let via_diff = m.diff(a, b).is_false();
            assert_eq!(m.implies(a, b), via_diff, "seed {seed}");
        }
    }

    #[test]
    fn range_encoding_matches_interval() {
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let width = rng.gen_range(1u32..10);
            let max = (1u64 << width) - 1;
            let lo = rng.gen_range(0u64..512).min(max);
            let hi = rng.gen_range(0u64..512).min(max);
            let (lo, hi) = if lo <= hi { (lo, hi) } else { (hi, lo) };
            let enc = FieldEncoder::new(0, width);
            let mut m = BddManager::new(width);
            let range = enc.range(&mut m, lo, hi);
            for v in 0..=max {
                let exact = enc.exact(&mut m, v);
                let in_range = m.and(exact, range);
                assert_eq!(
                    m.is_satisfiable(in_range),
                    (lo..=hi).contains(&v),
                    "seed {seed}: v={v} in [{lo}, {hi}]"
                );
            }
        }
    }
}
