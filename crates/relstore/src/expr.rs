//! Row predicates: the conjunctive filter language of the engine.
//!
//! REX's pattern queries only need equality predicates (`col = const`,
//! `col = col`) combined conjunctively — exactly the WHERE clauses of the
//! paper's SQL formulation — so that is all this module provides.

/// A predicate over a row, with columns resolved to indices.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Predicate {
    /// `row[col] == value`
    ColEqConst {
        /// Column index.
        col: usize,
        /// Constant to compare against.
        value: u64,
    },
    /// `row[a] == row[b]`
    ColEqCol {
        /// Left column index.
        a: usize,
        /// Right column index.
        b: usize,
    },
    /// `row[col] != value`
    ColNeConst {
        /// Column index.
        col: usize,
        /// Constant to compare against.
        value: u64,
    },
    /// Conjunction of predicates (empty = true).
    And(Vec<Predicate>),
    /// Membership: `row[col] ∈ values` (values must be sorted).
    ColInSet {
        /// Column index.
        col: usize,
        /// Sorted set of admissible values.
        values: Vec<u64>,
    },
}

impl Predicate {
    /// Evaluates the predicate against a row.
    pub fn eval(&self, row: &[u64]) -> bool {
        match self {
            Predicate::ColEqConst { col, value } => row[*col] == *value,
            Predicate::ColEqCol { a, b } => row[*a] == row[*b],
            Predicate::ColNeConst { col, value } => row[*col] != *value,
            Predicate::And(ps) => ps.iter().all(|p| p.eval(row)),
            Predicate::ColInSet { col, values } => values.binary_search(&row[*col]).is_ok(),
        }
    }

    /// The always-true predicate.
    pub fn always() -> Predicate {
        Predicate::And(Vec::new())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq_const() {
        let p = Predicate::ColEqConst { col: 1, value: 7 };
        assert!(p.eval(&[0, 7]));
        assert!(!p.eval(&[7, 0]));
    }

    #[test]
    fn eq_col_and_ne() {
        let p = Predicate::ColEqCol { a: 0, b: 2 };
        assert!(p.eval(&[5, 1, 5]));
        assert!(!p.eval(&[5, 1, 6]));
        let n = Predicate::ColNeConst { col: 0, value: 5 };
        assert!(!n.eval(&[5]));
        assert!(n.eval(&[4]));
    }

    #[test]
    fn conjunction() {
        let p = Predicate::And(vec![
            Predicate::ColEqConst { col: 0, value: 1 },
            Predicate::ColEqConst { col: 1, value: 2 },
        ]);
        assert!(p.eval(&[1, 2]));
        assert!(!p.eval(&[1, 3]));
        assert!(Predicate::always().eval(&[9, 9]));
    }

    #[test]
    fn in_set() {
        let p = Predicate::ColInSet { col: 0, values: vec![2, 4, 6] };
        assert!(p.eval(&[4]));
        assert!(!p.eval(&[5]));
    }
}
