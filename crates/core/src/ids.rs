//! Strongly-typed identifiers for vertices and edge labels.
//!
//! The paper models a multi-relational graph as `G = (V, E ⊆ V × Ω × V)`.
//! `V` and `Ω` are arbitrary sets; in this implementation both are interned to
//! dense `u32` identifiers so that edges are small POD values and path sets
//! stay cache-friendly.

use core::fmt;

/// Identifier of a vertex `v ∈ V`.
///
/// Vertex ids are dense indices handed out by
/// [`StringInterner`](crate::interner::StringInterner) /
/// [`GraphBuilder`](crate::builder::GraphBuilder) or chosen directly by the
/// caller when constructing graphs programmatically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct VertexId(pub u32);

/// Identifier of an edge label (relation type) `α ∈ Ω`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LabelId(pub u32);

impl VertexId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a vertex id from a raw index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        VertexId(u32::try_from(index).expect("vertex index overflows u32"))
    }
}

impl LabelId {
    /// Returns the raw index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Constructs a label id from a raw index.
    ///
    /// # Panics
    /// Panics if `index` does not fit in `u32`.
    #[inline]
    pub fn from_index(index: usize) -> Self {
        LabelId(u32::try_from(index).expect("label index overflows u32"))
    }
}

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl fmt::Display for LabelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l{}", self.0)
    }
}

impl From<u32> for VertexId {
    fn from(value: u32) -> Self {
        VertexId(value)
    }
}

impl From<u32> for LabelId {
    fn from(value: u32) -> Self {
        LabelId(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vertex_id_roundtrips_through_index() {
        let v = VertexId::from_index(42);
        assert_eq!(v.index(), 42);
        assert_eq!(v, VertexId(42));
    }

    #[test]
    fn label_id_roundtrips_through_index() {
        let l = LabelId::from_index(7);
        assert_eq!(l.index(), 7);
        assert_eq!(l, LabelId(7));
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(VertexId(3).to_string(), "v3");
        assert_eq!(LabelId(9).to_string(), "l9");
    }

    #[test]
    fn ids_order_by_raw_value() {
        assert!(VertexId(1) < VertexId(2));
        assert!(LabelId(0) < LabelId(10));
    }

    #[test]
    fn from_u32_conversions() {
        assert_eq!(VertexId::from(5u32), VertexId(5));
        assert_eq!(LabelId::from(5u32), LabelId(5));
    }
}
