//! # mrpa-core — a path algebra for multi-relational graphs
//!
//! This crate implements the core algebra of Rodriguez & Neubauer,
//! *A Path Algebra for Multi-Relational Graphs* (arXiv:1011.0390): a
//! multi-relational graph is the ternary relation `G = (V, E ⊆ V × Ω × V)`,
//! paths are strings over the edge alphabet (`E*`, the free monoid under
//! concatenation `◦`), and traversals are evaluated with three operations on
//! path sets `P(E*)`:
//!
//! * union `∪`,
//! * the **concatenative join** `⋈◦` (only head-to-tail adjacent paths
//!   concatenate — an order-preserving equijoin), and
//! * the **concatenative product** `×◦` (all concatenations, including
//!   disjoint ones).
//!
//! On top of these, the crate provides the paper's basic traversal idioms
//! (complete, source, destination, labeled — §III), the `[i, α, j]`
//! set-builder edge patterns used by regular path expressions (§IV-A), and the
//! monoid/semiring structure (§I, §II) that higher layers (the `mrpa-regex`
//! automata and the `mrpa-engine` traversal engine) build on.
//!
//! ## Quick example
//!
//! ```
//! use mrpa_core::prelude::*;
//!
//! // Build the toy graph used in §II of the paper.
//! let mut b = GraphBuilder::new();
//! b.edges([
//!     ("i", "alpha", "j"),
//!     ("j", "beta", "k"),
//!     ("k", "alpha", "j"),
//!     ("j", "beta", "j"),
//!     ("j", "beta", "i"),
//!     ("i", "alpha", "k"),
//!     ("i", "beta", "k"),
//! ]);
//! let named = b.build();
//! let g = named.graph();
//!
//! // All joint paths of length 2 that start at `i` and whose labels are (alpha, beta):
//! let i = named.vertex("i").unwrap();
//! let alpha = named.label("alpha").unwrap();
//! let beta = named.label("beta").unwrap();
//! let paths = TraversalBuilder::new(g)
//!     .step_matching(EdgePattern::from_vertex(i).label(Position::Is(alpha)))
//!     .step_matching(EdgePattern::with_label(beta))
//!     .evaluate()
//!     .unwrap();
//! assert!(paths.iter().all(|p| p.is_joint() && p.len() == 2));
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod arena;
pub mod builder;
pub mod edge;
pub mod error;
pub mod fxhash;
pub mod graph;
pub mod ids;
pub mod interner;
pub mod monoid;
pub mod path;
pub mod pathset;
pub mod pattern;
pub mod scratch;
pub mod semiring;
pub mod traversal;

pub use arena::{ArenaReader, ArenaWriter, PathArena, PathId};
pub use builder::{GraphBuilder, NamedGraph};
pub use edge::Edge;
pub use error::{CoreError, CoreResult};
pub use graph::{GraphStats, MultiGraph};
pub use ids::{LabelId, VertexId};
pub use interner::{GraphInterner, StringInterner};
pub use monoid::{JoinMonoid, Monoid, ProductMonoid, UnionMonoid};
pub use path::Path;
pub use pathset::{PathRef, PathSet, PathSetView};
pub use pattern::{ConjunctivePattern, EdgePattern, Position};
pub use semiring::{Counting, HopCount, MaxMin, MinPlus, SelectiveSemiring, Semiring};
pub use traversal::{
    complete_traversal, destination_traversal, label_composition, labeled_traversal,
    source_destination_traversal, source_traversal, TraversalBuilder,
};

/// Convenient glob import: `use mrpa_core::prelude::*;`.
pub mod prelude {
    pub use crate::arena::{PathArena, PathId};
    pub use crate::builder::{GraphBuilder, NamedGraph};
    pub use crate::edge::Edge;
    pub use crate::error::{CoreError, CoreResult};
    pub use crate::graph::MultiGraph;
    pub use crate::ids::{LabelId, VertexId};
    pub use crate::monoid::Monoid;
    pub use crate::path::Path;
    pub use crate::pathset::PathSet;
    pub use crate::pattern::{EdgePattern, Position};
    pub use crate::traversal::{
        complete_traversal, destination_traversal, label_composition, labeled_traversal,
        source_destination_traversal, source_traversal, TraversalBuilder,
    };
}
