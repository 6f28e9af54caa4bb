//! # mrpa-engine — a multi-relational graph traversal engine
//!
//! The paper's stated purpose is to provide "a set of core operations for
//! constructing a multi-relational graph traversal engine" (§I, §V). This
//! crate is that engine:
//!
//! * [`PropertyGraph`] — a thread-safe multi-relational *property* graph whose
//!   edge structure is exactly the ternary relation `E ⊆ V × Ω × V` of the
//!   algebra, with string-keyed [`Value`] properties on vertices and edges.
//! * [`Traversal`] — a Gremlin-style fluent pipeline DSL
//!   (`.v(["marko"]).out(["knows"]).has("age", Gt(30)).out(["created"])`),
//!   including regular path patterns (`.match_("knows+·created")`), bounded
//!   iteration (`.repeat(1..=3, |p| p.out(["knows"]))`), and bidirectional
//!   steps (`.both([...])`).
//! * [`plan`] — a planner that lowers every pipeline into one algebraic IR
//!   (restricted edge sets combined with concatenative joins, §III; label
//!   regexes become minimized product automata, §IV) and then rewrites it
//!   with an explicit optimizer pass. `Traversal::explain` returns the
//!   pre-/post-rewrite plans plus cardinality estimates.
//! * [`exec`] — three executors over the same logical plan: materialized
//!   (level-at-a-time, the reference), streaming (row-at-a-time), and
//!   parallel (materialized over start partitions, one crossbeam scoped
//!   thread per partition).
//!
//! ```
//! use mrpa_engine::{classic_social_graph, Predicate, Traversal};
//!
//! let g = classic_social_graph();
//! // "software created by the over-30 people marko knows"
//! let result = Traversal::over(&g)
//!     .v(["marko"])
//!     .out(["knows"])
//!     .has("age", Predicate::Gt(30.0))
//!     .out(["created"])
//!     .execute()
//!     .unwrap();
//! assert_eq!(result.head_names_sorted(), vec!["lop", "ripple"]);
//!
//! // the same reachability, phrased as a regular path query
//! let result = Traversal::over(&g)
//!     .v(["marko"])
//!     .match_("knows+·created")
//!     .execute()
//!     .unwrap();
//! assert_eq!(result.head_names_sorted(), vec!["lop", "ripple"]);
//! ```

#![warn(missing_docs)]
#![warn(rust_2018_idioms)]
#![forbid(unsafe_code)]

pub mod cancel;
pub mod checkpoint;
pub mod chunk;
pub mod count;
pub mod csr;
pub mod cursor;
pub mod error;
pub mod exec;
pub mod metrics;
pub mod pipeline;
pub mod plan;
pub mod query;
pub mod recovery;
pub mod store;
pub mod trace;
pub mod value;
pub mod wal;

pub use cancel::CancelToken;
pub use chunk::DEFAULT_CHUNK_SIZE;
pub use csr::CsrTopology;
pub use cursor::RowCursor;
pub use error::{EngineError, StoreError};
pub use exec::{ExecStats, ExecutionStrategy};
pub use pipeline::{Pipeline, StartSpec, Step, Traversal, WeightSpec};
pub use plan::{
    AutoMove, AutomatonSpec, Direction, LogicalPlan, OpEstimate, PlanOp, PlanReport, Semantics,
    SemiringKind, WeightSource, DEFAULT_MATCH_MAX_HOPS, UNBOUNDED_MATCH_HOPS,
};
pub use query::{Execution, QueryResult, ResultRow};
pub use recovery::{RecoveryError, RecoveryReport};
pub use store::{classic_social_graph, GraphSnapshot, PropertyGraph, StoreStats};
pub use trace::{ProfiledQuery, QueryTrace, TraceNode};
pub use value::{Predicate, Value};
pub use wal::{FailPoint, WalOp, WalTail};

/// Convenient glob import: `use mrpa_engine::prelude::*;`.
pub mod prelude {
    pub use crate::cursor::RowCursor;
    pub use crate::exec::{ExecStats, ExecutionStrategy};
    pub use crate::pipeline::{Pipeline, Traversal, WeightSpec};
    pub use crate::plan::{PlanReport, Semantics, SemiringKind};
    pub use crate::query::QueryResult;
    pub use crate::store::{classic_social_graph, GraphSnapshot, PropertyGraph};
    pub use crate::value::{Predicate, Value};
}
