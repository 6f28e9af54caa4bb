//! # mrpa — a path algebra for multi-relational graphs
//!
//! This is the umbrella crate for the reproduction of Rodriguez & Neubauer,
//! *A Path Algebra for Multi-Relational Graphs* (arXiv:1011.0390). It simply
//! re-exports the member crates:
//!
//! * [`core`] (`mrpa-core`) — the algebra: graphs `G = (V, E ⊆ V × Ω × V)`,
//!   paths, path sets, `∪` / `⋈◦` / `×◦`, basic traversals, edge patterns.
//! * [`regex`] (`mrpa-regex`) — regular path expressions over the edge
//!   alphabet: NFA/DFA recognizers and the single-stack path generator.
//! * [`algorithms`] (`mrpa-algorithms`) — single-relational algorithms and the
//!   §IV-C derivations that make them meaningful on multi-relational data.
//! * [`engine`] (`mrpa-engine`) — the property-graph traversal engine the
//!   paper motivates: pipeline DSL, planner, and executors.
//! * [`datagen`] (`mrpa-datagen`) — deterministic synthetic workloads.
//! * [`query`] (`mrpa-query`) — MRPA-QL, the textual query frontend: lexer,
//!   parser, pretty-printer, and lowering onto the engine's pipeline IR.
//! * [`server`] (`mrpa-server`) — a concurrent multi-client query server
//!   speaking newline-delimited JSON over TCP.
//!
//! See `README.md` for a tour; the reproduced evaluation is the `exp_*`
//! binaries of `mrpa-bench` (`crates/bench/src/bin`).
//!
//! ```
//! use mrpa::prelude::*;
//!
//! let g = classic_social_graph();
//! let created_by_friends = Traversal::over(&g)
//!     .v(["marko"])
//!     .out(["knows"])
//!     .out(["created"])
//!     .execute()
//!     .unwrap();
//! assert_eq!(created_by_friends.head_names_sorted(), vec!["lop", "ripple"]);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use mrpa_algorithms as algorithms;
pub use mrpa_core as core;
pub use mrpa_datagen as datagen;
pub use mrpa_engine as engine;
pub use mrpa_query as query;
pub use mrpa_regex as regex;
pub use mrpa_server as server;

/// One-stop prelude re-exporting the most common items of every member crate.
pub mod prelude {
    pub use mrpa_algorithms::prelude::*;
    pub use mrpa_core::prelude::*;
    pub use mrpa_engine::prelude::*;
    pub use mrpa_regex::prelude::*;
}
