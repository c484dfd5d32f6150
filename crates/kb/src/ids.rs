//! Strongly-typed identifiers for knowledge-base elements.
//!
//! All identifiers are dense `u32` indexes into the backing arrays of a
//! [`crate::KnowledgeBase`]. Using newtypes (rather than raw `usize`)
//! prevents the classic bug of indexing the node table with an edge id, and
//! keeps hot structures at half the width of `usize` on 64-bit targets.

/// Identifier of an entity (node) in the knowledge base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a primary-relationship edge in the knowledge base.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct EdgeId(pub u32);

/// Identifier of an interned relationship label (e.g. `starring`).
/// Label ids are below [`LABEL_LIMIT`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub u32);

/// How many relationship labels a knowledge base can hold: 2^30. An
/// adjacency entry keeps its label id and its orientation's 2-bit code in
/// one `u32`, so a label id must fit in 30 bits. Every path that interns
/// a label refuses the next new label once a KB holds this many, with
/// [`crate::KbError::LabelLimit`].
pub const LABEL_LIMIT: u32 = 1 << 30;

/// Identifier of an interned entity type (e.g. `Person`, `Movie`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TypeId(pub u32);

impl NodeId {
    /// The index into the node table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl EdgeId {
    /// The index into the edge table.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl LabelId {
    /// The index into the label interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl TypeId {
    /// The index into the type interner.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl std::fmt::Display for EdgeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl std::fmt::Display for LabelId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "l{}", self.0)
    }
}

/// How an edge is seen from the perspective of one of its endpoints.
///
/// A *directed* KB edge `u --label--> v` appears as [`Orientation::Out`] in
/// `u`'s adjacency and [`Orientation::In`] in `v`'s. An *undirected* edge
/// appears as [`Orientation::Undirected`] on both sides. Pattern-edge
/// constraints must match the orientation; structural notions (simple paths,
/// essentiality) ignore it, per Definition 3 of the paper.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Orientation {
    /// The edge leaves this endpoint (this endpoint is the source).
    Out,
    /// The edge enters this endpoint (this endpoint is the destination).
    In,
    /// The edge has no direction.
    Undirected,
}

impl Orientation {
    /// The orientation of the same edge seen from the other endpoint.
    #[inline]
    pub fn reversed(self) -> Orientation {
        match self {
            Orientation::Out => Orientation::In,
            Orientation::In => Orientation::Out,
            Orientation::Undirected => Orientation::Undirected,
        }
    }

    /// Compact code used by the binary codec and canonical forms.
    #[inline]
    pub fn code(self) -> u8 {
        match self {
            Orientation::Out => 0,
            Orientation::In => 1,
            Orientation::Undirected => 2,
        }
    }

    /// The orientation whose code is `bits & 3`; the unused code 3 reads
    /// as [`Orientation::Undirected`]. For packed words that only ever
    /// hold a real code.
    #[inline]
    pub(crate) fn from_low_bits(bits: u32) -> Orientation {
        match bits & 3 {
            0 => Orientation::Out,
            1 => Orientation::In,
            _ => Orientation::Undirected,
        }
    }

    /// Inverse of [`Orientation::code`].
    pub fn from_code(code: u8) -> Option<Orientation> {
        match code {
            0 => Some(Orientation::Out),
            1 => Some(Orientation::In),
            2 => Some(Orientation::Undirected),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn orientation_reversal_is_involutive() {
        for o in [Orientation::Out, Orientation::In, Orientation::Undirected] {
            assert_eq!(o.reversed().reversed(), o);
        }
    }

    #[test]
    fn orientation_codes_round_trip() {
        for o in [Orientation::Out, Orientation::In, Orientation::Undirected] {
            assert_eq!(Orientation::from_code(o.code()), Some(o));
        }
        assert_eq!(Orientation::from_code(9), None);
    }

    #[test]
    fn ids_expose_indices() {
        assert_eq!(NodeId(7).index(), 7);
        assert_eq!(EdgeId(9).index(), 9);
        assert_eq!(LabelId(3).index(), 3);
        assert_eq!(TypeId(2).index(), 2);
        assert_eq!(format!("{} {} {}", NodeId(1), EdgeId(2), LabelId(3)), "n1 e2 l3");
    }
}
