//! The Gremlin-style pipeline DSL.
//!
//! A [`Traversal`] is a description of a query as a sequence of steps — the
//! surface syntax of the "multi-relational graph traversal engine" the paper
//! motivates. Steps are *not* executed as written: the [`planner`](crate::plan)
//! lowers them into the paper's algebra (restricted edge sets combined with
//! concatenative joins), rewrites the result with an optimizer pass, and an
//! [executor](crate::exec) then evaluates the rewritten plan.
//!
//! Three families of steps share one algebraic IR:
//!
//! * **step-at-a-time traversal** — `out` / `in_` / `both`, filters (`has`,
//!   `is`), `dedup`, `limit`;
//! * **regular path patterns** — [`Traversal::match_`] takes a label regex
//!   like `"knows+·created"` and compiles it to a minimized product automaton;
//! * **bounded iteration** — [`Traversal::repeat`] runs a nested pipeline
//!   fragment (a [`Pipeline`]) between `min` and `max` times, with an
//!   optional `until` early-exit predicate.
//!
//! ```
//! use mrpa_engine::{classic_social_graph, Traversal};
//!
//! let g = classic_social_graph();
//! // "software created by people marko knows"
//! let result = Traversal::over(&g)
//!     .v(["marko"])
//!     .out(["knows"])
//!     .out(["created"])
//!     .execute()
//!     .unwrap();
//! assert_eq!(result.head_names_sorted(), vec!["lop", "ripple"]);
//!
//! // the same query as a regular path pattern
//! let result = Traversal::over(&g)
//!     .v(["marko"])
//!     .match_("knows·created")
//!     .execute()
//!     .unwrap();
//! assert_eq!(result.head_names_sorted(), vec!["lop", "ripple"]);
//! ```

use std::ops::RangeInclusive;

use crate::cancel::Liveness;
use crate::cursor::RowCursor;
use crate::error::EngineError;
use crate::exec::{Counters, ExecCtx, ExecStats, ExecutionStrategy};
use crate::plan::{
    self, Direction, LogicalPlan, PlanReport, Semantics, SemiringKind, DEFAULT_MATCH_MAX_HOPS,
    UNBOUNDED_MATCH_HOPS,
};
use crate::query::{Execution, QueryResult, ResultRow};
use crate::store::{GraphSnapshot, PropertyGraph};
use crate::trace::{ProfiledQuery, QueryTrace};
use crate::value::Predicate;

/// Feeds the process-wide [`crate::metrics`] registry after a completed
/// query (any terminal).
fn record_query_metrics(stats: ExecStats, elapsed: std::time::Duration) {
    crate::metrics::queries_total().inc();
    crate::metrics::query_latency().observe(elapsed);
    crate::metrics::query_expansions().add(stats.expansions);
    crate::metrics::query_interned().add(stats.interned_nodes);
}

/// How a traversal starts.
#[derive(Debug, Clone, PartialEq)]
pub enum StartSpec {
    /// Start at every vertex of the graph.
    AllVertices,
    /// Start at the named vertices.
    Named(Vec<String>),
    /// Start at vertices whose property satisfies a predicate.
    Where(String, Predicate),
}

/// How a weighted step ([`Step::Weighted`]) obtains each traversed edge's
/// weight — the name-level counterpart of the plan's
/// [`WeightSource`](crate::plan::WeightSource), resolved at plan time.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightSpec {
    /// Every edge weighs 1 (hop counting). The default for
    /// [`Traversal::cheapest_`] and [`Traversal::widest_`].
    Unit,
    /// Read the weight from this edge property.
    Property(String),
    /// A per-label weight table.
    Labels(Vec<(String, f64)>),
}

/// One step of a traversal pipeline.
#[derive(Debug, Clone, PartialEq)]
pub enum Step {
    /// Traverse outgoing edges (optionally restricted to the given labels),
    /// moving to the head vertices.
    Out(Option<Vec<String>>),
    /// Traverse incoming edges (optionally restricted to the given labels),
    /// moving to the tail vertices.
    In(Option<Vec<String>>),
    /// Traverse edges in both directions (optionally restricted to the given
    /// labels).
    Both(Option<Vec<String>>),
    /// Traverse edge sequences whose label word matches a regular path
    /// pattern (`"knows+·created"`), bounded to `max_hops` edges. `direction`
    /// chooses between outgoing (`Out`) and incoming (`In`) walks;
    /// `semantics` between all-walks and reachability evaluation.
    Match {
        /// The label-regex pattern text (parsed at plan time).
        pattern: String,
        /// Depth bound on automaton evaluation
        /// ([`crate::plan::UNBOUNDED_MATCH_HOPS`] = none; requires
        /// [`Semantics::Reachable`]).
        max_hops: usize,
        /// Direction of travel (`Out` or `In`; `Both` is rejected at plan
        /// time).
        direction: Direction,
        /// Walk vs. reachability evaluation semantics.
        semantics: Semantics,
    },
    /// Semiring-weighted best-first path search: per input row, one row per
    /// reachable head matching the pattern, carrying the semiring-optimal
    /// path and cost, emitted best-cost-first. Built by
    /// [`Traversal::cheapest_`] / [`Traversal::widest_`] and refined by
    /// [`Traversal::weight_by`] / [`Traversal::weight_by_labels`].
    Weighted {
        /// The label-regex pattern text (parsed at plan time).
        pattern: String,
        /// Depth bound ([`crate::plan::UNBOUNDED_MATCH_HOPS`] = none;
        /// unbounded is safe here — best-first settling terminates on cyclic
        /// graphs by itself).
        max_hops: usize,
        /// Direction of travel (`Out` or `In`; `Both` is rejected at plan
        /// time).
        direction: Direction,
        /// Which selective semiring orders the search.
        semiring: SemiringKind,
        /// Where edge weights come from.
        weight: WeightSpec,
    },
    /// A dangling `weight_by` that did not follow a weighted step; rejected
    /// at plan time (the builder folds a well-placed `weight_by` into the
    /// preceding [`Step::Weighted`] instead of emitting this).
    WeightBy(WeightSpec),
    /// Bounded Kleene iteration of a nested pipeline fragment: rows that have
    /// completed `k` body iterations for `min ≤ k ≤ max` are emitted. With
    /// `until`, a row instead exits (and is emitted) as soon as its head
    /// satisfies the predicate, checked from iteration `min` on.
    Repeat {
        /// The loop body.
        body: Vec<Step>,
        /// Minimum completed iterations before emission.
        min: usize,
        /// Maximum iterations.
        max: usize,
        /// Optional early-exit predicate `(property key, predicate)`.
        until: Option<(String, Predicate)>,
    },
    /// Keep only rows whose current vertex has a property satisfying the
    /// predicate.
    Has(String, Predicate),
    /// Keep only rows whose current vertex is one of the named vertices.
    Is(Vec<String>),
    /// Deduplicate rows by their current vertex.
    DedupByVertex,
    /// Keep at most this many rows.
    Limit(usize),
}

fn label_list<I, S>(labels: I) -> Option<Vec<String>>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let labels: Vec<String> = labels.into_iter().map(Into::into).collect();
    if labels.is_empty() {
        None
    } else {
        Some(labels)
    }
}

/// A free-standing pipeline fragment: the same step vocabulary as
/// [`Traversal`], but not bound to a graph or a start set. Used to build
/// [`Traversal::repeat`] bodies.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Pipeline {
    steps: Vec<Step>,
}

impl Pipeline {
    /// An empty fragment.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds a fragment directly from a step sequence. This is the lowering
    /// path used by textual frontends (MRPA-QL): text parses to [`Step`]s and
    /// re-enters the exact pipeline the fluent builder would have produced —
    /// there is no second execution path.
    pub fn from_steps(steps: Vec<Step>) -> Self {
        Pipeline { steps }
    }

    /// The accumulated steps.
    pub fn steps(&self) -> &[Step] {
        &self.steps
    }

    /// Consumes the fragment, returning its steps.
    pub fn into_steps(self) -> Vec<Step> {
        self.steps
    }

    fn push(mut self, step: Step) -> Self {
        self.steps.push(step);
        self
    }

    /// Follows outgoing edges with any of the given labels (empty = any).
    pub fn out<I, S>(self, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.push(Step::Out(label_list(labels)))
    }

    /// Follows outgoing edges with any label.
    pub fn out_any(self) -> Self {
        self.push(Step::Out(None))
    }

    /// Follows incoming edges with any of the given labels (empty = any).
    pub fn in_<I, S>(self, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.push(Step::In(label_list(labels)))
    }

    /// Follows incoming edges with any label.
    pub fn in_any(self) -> Self {
        self.push(Step::In(None))
    }

    /// Follows edges in both directions with any of the given labels
    /// (empty = any).
    pub fn both<I, S>(self, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.push(Step::Both(label_list(labels)))
    }

    /// Follows edges in both directions with any label.
    pub fn both_any(self) -> Self {
        self.push(Step::Both(None))
    }

    /// Traverses outgoing edge sequences whose label word matches the pattern
    /// (see [`Traversal::match_`]).
    pub fn match_(self, pattern: &str) -> Self {
        self.match_dir(Direction::Out, pattern)
    }

    /// [`Pipeline::match_`] with an explicit depth bound.
    pub fn match_within(self, pattern: &str, max_hops: usize) -> Self {
        self.match_dir_within(Direction::Out, pattern, max_hops)
    }

    /// Traverses *incoming* edge sequences whose label word matches the
    /// pattern (see [`Traversal::match_in_`]).
    pub fn match_in_(self, pattern: &str) -> Self {
        self.match_dir(Direction::In, pattern)
    }

    /// [`Pipeline::match_in_`] with an explicit depth bound.
    pub fn match_in_within(self, pattern: &str, max_hops: usize) -> Self {
        self.match_dir_within(Direction::In, pattern, max_hops)
    }

    /// A path pattern with an explicit traversal direction (see
    /// [`Traversal::match_dir`]).
    pub fn match_dir(self, direction: Direction, pattern: &str) -> Self {
        self.match_dir_within(direction, pattern, DEFAULT_MATCH_MAX_HOPS)
    }

    /// [`Pipeline::match_dir`] with an explicit depth bound.
    pub fn match_dir_within(self, direction: Direction, pattern: &str, max_hops: usize) -> Self {
        self.push(Step::Match {
            pattern: pattern.to_owned(),
            max_hops,
            direction,
            semantics: Semantics::Walks,
        })
    }

    /// A path pattern evaluated under reachability semantics (see
    /// [`Traversal::match_reachable`]).
    pub fn match_reachable(self, pattern: &str) -> Self {
        self.push(Step::Match {
            pattern: pattern.to_owned(),
            max_hops: UNBOUNDED_MATCH_HOPS,
            direction: Direction::Out,
            semantics: Semantics::Reachable,
        })
    }

    /// [`Pipeline::match_reachable`] with an explicit depth bound.
    pub fn match_reachable_within(self, pattern: &str, max_hops: usize) -> Self {
        self.push(Step::Match {
            pattern: pattern.to_owned(),
            max_hops,
            direction: Direction::Out,
            semantics: Semantics::Reachable,
        })
    }

    /// A path pattern under **global** reachability semantics (see
    /// [`Traversal::match_reachable_global`]): one shared `(vertex, state)`
    /// seen-set across all input rows.
    pub fn match_reachable_global(self, pattern: &str) -> Self {
        self.push(Step::Match {
            pattern: pattern.to_owned(),
            max_hops: UNBOUNDED_MATCH_HOPS,
            direction: Direction::Out,
            semantics: Semantics::GlobalReachable,
        })
    }

    /// [`Pipeline::match_reachable_global`] with an explicit depth bound.
    pub fn match_reachable_global_within(self, pattern: &str, max_hops: usize) -> Self {
        self.push(Step::Match {
            pattern: pattern.to_owned(),
            max_hops,
            direction: Direction::Out,
            semantics: Semantics::GlobalReachable,
        })
    }

    /// Best-first shortest-path search over a pattern (see
    /// [`Traversal::cheapest_`]). Unit weights (hop counting) by default;
    /// follow with [`Pipeline::weight_by`] for property weights.
    pub fn cheapest_(self, pattern: &str) -> Self {
        self.cheapest_within(pattern, UNBOUNDED_MATCH_HOPS)
    }

    /// [`Pipeline::cheapest_`] with an explicit depth bound.
    pub fn cheapest_within(self, pattern: &str, max_hops: usize) -> Self {
        self.push(Step::Weighted {
            pattern: pattern.to_owned(),
            max_hops,
            direction: Direction::Out,
            semiring: SemiringKind::Shortest,
            weight: WeightSpec::Unit,
        })
    }

    /// Best-first widest-path (bottleneck) search over a pattern (see
    /// [`Traversal::widest_`]).
    pub fn widest_(self, pattern: &str) -> Self {
        self.widest_within(pattern, UNBOUNDED_MATCH_HOPS)
    }

    /// [`Pipeline::widest_`] with an explicit depth bound.
    pub fn widest_within(self, pattern: &str, max_hops: usize) -> Self {
        self.push(Step::Weighted {
            pattern: pattern.to_owned(),
            max_hops,
            direction: Direction::Out,
            semiring: SemiringKind::Widest,
            weight: WeightSpec::Unit,
        })
    }

    fn set_weight(mut self, weight: WeightSpec) -> Self {
        match self.steps.last_mut() {
            Some(Step::Weighted { weight: slot, .. }) => {
                *slot = weight;
                self
            }
            // dangling: remember it so planning reports the misuse
            _ => self.push(Step::WeightBy(weight)),
        }
    }

    /// Weights the preceding weighted step by an edge property (see
    /// [`Traversal::weight_by`]).
    pub fn weight_by(self, key: &str) -> Self {
        self.set_weight(WeightSpec::Property(key.to_owned()))
    }

    /// Weights the preceding weighted step by a per-label table (see
    /// [`Traversal::weight_by_labels`]).
    pub fn weight_by_labels<I, S>(self, table: I) -> Self
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        self.set_weight(WeightSpec::Labels(
            table.into_iter().map(|(s, w)| (s.into(), w)).collect(),
        ))
    }

    /// Keeps the first `k` rows of a weighted search (see
    /// [`Traversal::top_k`] for the per-input-row ordering caveat). Sugar
    /// for [`Pipeline::limit`].
    pub fn top_k(self, k: usize) -> Self {
        self.limit(k)
    }

    /// Repeats a nested fragment between `times.start()` and `times.end()`
    /// iterations (see [`Traversal::repeat`]).
    pub fn repeat(
        self,
        times: RangeInclusive<usize>,
        body: impl FnOnce(Pipeline) -> Pipeline,
    ) -> Self {
        self.push(Step::Repeat {
            body: body(Pipeline::new()).into_steps(),
            min: *times.start(),
            max: *times.end(),
            until: None,
        })
    }

    /// Repeats a nested fragment until the row's head satisfies the predicate
    /// (see [`Traversal::repeat_until`]).
    pub fn repeat_until(
        self,
        max: usize,
        key: &str,
        pred: Predicate,
        body: impl FnOnce(Pipeline) -> Pipeline,
    ) -> Self {
        self.push(Step::Repeat {
            body: body(Pipeline::new()).into_steps(),
            min: 0,
            max,
            until: Some((key.to_owned(), pred)),
        })
    }

    /// Filters on a property of the current vertex.
    pub fn has(self, key: &str, pred: Predicate) -> Self {
        self.push(Step::Has(key.to_owned(), pred))
    }

    /// Filters to the named current vertices.
    pub fn is<I, S>(self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.push(Step::Is(names.into_iter().map(Into::into).collect()))
    }

    /// Deduplicates rows by their current vertex.
    pub fn dedup(self) -> Self {
        self.push(Step::DedupByVertex)
    }

    /// Keeps at most `n` rows.
    pub fn limit(self, n: usize) -> Self {
        self.push(Step::Limit(n))
    }
}

/// A fluent traversal builder bound to a [`PropertyGraph`].
#[derive(Debug, Clone)]
pub struct Traversal {
    graph: PropertyGraph,
    start: StartSpec,
    pipeline: Pipeline,
    strategy: ExecutionStrategy,
    max_intermediate: Option<usize>,
    threads: Option<usize>,
    timeout: Option<std::time::Duration>,
    cancel: Option<crate::cancel::CancelToken>,
    chunk: usize,
    budget: Option<u64>,
}

impl Traversal {
    /// Starts building a traversal over the given graph. The default start is
    /// every vertex; narrow it with [`Traversal::v`] or [`Traversal::v_where`].
    pub fn over(graph: &PropertyGraph) -> Self {
        Traversal {
            graph: graph.clone(),
            start: StartSpec::AllVertices,
            pipeline: Pipeline::new(),
            strategy: ExecutionStrategy::Materialized,
            max_intermediate: None,
            threads: None,
            timeout: None,
            cancel: None,
            chunk: crate::chunk::DEFAULT_CHUNK_SIZE,
            budget: None,
        }
    }

    /// Replaces the start specification wholesale. This is the lowering path
    /// for textual frontends, which produce a [`StartSpec`] directly; the
    /// fluent [`Traversal::v`]/[`Traversal::v_where`] verbs cover the common
    /// cases.
    pub fn start_at(mut self, start: StartSpec) -> Self {
        self.start = start;
        self
    }

    /// Replaces the accumulated steps wholesale with an already-built step
    /// sequence (see [`Pipeline::from_steps`]).
    pub fn with_steps(mut self, steps: Vec<Step>) -> Self {
        self.pipeline = Pipeline::from_steps(steps);
        self
    }

    /// Starts at the named vertices.
    pub fn v<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.start = StartSpec::Named(names.into_iter().map(Into::into).collect());
        self
    }

    /// Starts at every vertex whose property `key` satisfies `pred`.
    pub fn v_where(mut self, key: &str, pred: Predicate) -> Self {
        self.start = StartSpec::Where(key.to_owned(), pred);
        self
    }

    /// Applies an arbitrary [`Pipeline`]-building closure to the traversal's
    /// step sequence.
    pub fn step(mut self, f: impl FnOnce(Pipeline) -> Pipeline) -> Self {
        self.pipeline = f(self.pipeline);
        self
    }

    /// Follows outgoing edges with any of the given labels (empty = any).
    pub fn out<I, S>(mut self, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.pipeline = self.pipeline.out(labels);
        self
    }

    /// Follows outgoing edges with any label.
    pub fn out_any(mut self) -> Self {
        self.pipeline = self.pipeline.out_any();
        self
    }

    /// Follows incoming edges with any of the given labels (empty = any).
    pub fn in_<I, S>(mut self, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.pipeline = self.pipeline.in_(labels);
        self
    }

    /// Follows incoming edges with any label.
    pub fn in_any(mut self) -> Self {
        self.pipeline = self.pipeline.in_any();
        self
    }

    /// Follows edges in both directions with any of the given labels
    /// (empty = any): the union of [`Traversal::out`] and [`Traversal::in_`]
    /// expansions.
    pub fn both<I, S>(mut self, labels: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.pipeline = self.pipeline.both(labels);
        self
    }

    /// Follows edges in both directions with any label.
    pub fn both_any(mut self) -> Self {
        self.pipeline = self.pipeline.both_any();
        self
    }

    /// Traverses outgoing edge sequences whose label word matches a regular
    /// path pattern — the paper's regular-path-query surface. The pattern is
    /// a regex over label names: `·` (or `.`) concatenation, `|` union, `*`,
    /// `+`, `?`, `{n}`, `{min,max}`, `_` for any label, parentheses. Each row
    /// walks edge sequences whose label word is in the pattern's language; a
    /// row is emitted per matching path. Evaluation is bounded to
    /// [`DEFAULT_MATCH_MAX_HOPS`] edges (a `*`/`+` over a cyclic graph
    /// denotes infinitely many walks); use [`Traversal::match_within`] to
    /// choose the bound.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// let r = Traversal::over(&g)
    ///     .v(["marko"])
    ///     .match_("knows+·created")
    ///     .execute()
    ///     .unwrap();
    /// assert_eq!(r.head_names_sorted(), vec!["lop", "ripple"]);
    /// ```
    pub fn match_(mut self, pattern: &str) -> Self {
        self.pipeline = self.pipeline.match_(pattern);
        self
    }

    /// [`Traversal::match_`] with an explicit bound on the number of edges a
    /// matching walk may take.
    pub fn match_within(mut self, pattern: &str, max_hops: usize) -> Self {
        self.pipeline = self.pipeline.match_within(pattern, max_hops);
        self
    }

    /// Traverses *incoming* edge sequences whose label word matches a regular
    /// path pattern: the `In`-direction counterpart of [`Traversal::match_`],
    /// evaluated as a product automaton over the In-direction adjacency —
    /// each hop walks a stored edge backwards, exactly like
    /// [`Traversal::in_`].
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// // "people who know someone who created lop" — walked from lop
    /// let r = Traversal::over(&g)
    ///     .v(["lop"])
    ///     .match_in_("created·knows")
    ///     .execute()
    ///     .unwrap();
    /// assert_eq!(r.head_names_sorted(), vec!["marko"]);
    /// ```
    pub fn match_in_(mut self, pattern: &str) -> Self {
        self.pipeline = self.pipeline.match_in_(pattern);
        self
    }

    /// [`Traversal::match_in_`] with an explicit depth bound.
    pub fn match_in_within(mut self, pattern: &str, max_hops: usize) -> Self {
        self.pipeline = self.pipeline.match_in_within(pattern, max_hops);
        self
    }

    /// A path pattern with an explicit traversal direction:
    /// `match_dir(Direction::Out, p)` ≡ `match_(p)`,
    /// `match_dir(Direction::In, p)` ≡ `match_in_(p)`. `Direction::Both` is
    /// rejected at plan time (automata are compiled against one adjacency
    /// orientation).
    pub fn match_dir(mut self, direction: Direction, pattern: &str) -> Self {
        self.pipeline = self.pipeline.match_dir(direction, pattern);
        self
    }

    /// [`Traversal::match_dir`] with an explicit depth bound.
    pub fn match_dir_within(
        mut self,
        direction: Direction,
        pattern: &str,
        max_hops: usize,
    ) -> Self {
        self.pipeline = self.pipeline.match_dir_within(direction, pattern, max_hops);
        self
    }

    /// Traverses a path pattern under **reachability semantics**
    /// ([`Semantics::Reachable`]): per input row, the product-automaton
    /// frontier is deduplicated by `(vertex, dfa-state)`, so rows that differ
    /// only in their path collapse to the breadth-first first walk. Because
    /// each pair is expanded at most once, evaluation terminates on cyclic
    /// graphs without a hop bound or `max_intermediate` — this variant is
    /// unbounded (`*`/`+` mean true reachability), unlike [`Traversal::match_`]
    /// which enumerates every walk and must stay depth-bounded.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// // everything transitively reachable from marko, one row per vertex+state
    /// let r = Traversal::over(&g)
    ///     .v(["marko"])
    ///     .match_reachable("_+")
    ///     .execute()
    ///     .unwrap();
    /// assert_eq!(
    ///     r.head_names_sorted(),
    ///     vec!["josh", "lop", "ripple", "vadas"]
    /// );
    /// ```
    pub fn match_reachable(mut self, pattern: &str) -> Self {
        self.pipeline = self.pipeline.match_reachable(pattern);
        self
    }

    /// [`Traversal::match_reachable`] with an explicit depth bound.
    pub fn match_reachable_within(mut self, pattern: &str, max_hops: usize) -> Self {
        self.pipeline = self.pipeline.match_reachable_within(pattern, max_hops);
        self
    }

    /// Traverses a path pattern under **global reachability semantics**
    /// ([`Semantics::GlobalReachable`]): like [`Traversal::match_reachable`],
    /// but one `(vertex, dfa-state)` seen-set is shared across *all* input
    /// rows, so each pair is expanded — and emitted — at most once for the
    /// whole step, attributed to the first source (in row order) that
    /// reaches it. The multi-source reachability mode: `n` sources cost one
    /// sweep of the product space instead of `n`.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// // vertices reachable from *any* vertex, each reported exactly once
    /// let r = Traversal::over(&g).match_reachable_global("_+").execute().unwrap();
    /// assert_eq!(
    ///     r.head_names_sorted(),
    ///     vec!["josh", "lop", "ripple", "vadas"]
    /// );
    /// ```
    pub fn match_reachable_global(mut self, pattern: &str) -> Self {
        self.pipeline = self.pipeline.match_reachable_global(pattern);
        self
    }

    /// [`Traversal::match_reachable_global`] with an explicit depth bound.
    pub fn match_reachable_global_within(mut self, pattern: &str, max_hops: usize) -> Self {
        self.pipeline = self
            .pipeline
            .match_reachable_global_within(pattern, max_hops);
        self
    }

    /// Best-first **shortest-path** search over a regular path pattern: per
    /// input row, one row per reachable head whose walk matches the pattern,
    /// carrying the minimum-cost path and its cost
    /// ([`crate::ResultRow::weight`]), emitted cheapest-first. Costs are the
    /// tropical min-plus fold of edge weights — unit weights (hop counting)
    /// unless a [`Traversal::weight_by`] variant follows. Evaluation is
    /// Dijkstra over the `(vertex, dfa-state)` product automaton, so it
    /// terminates on cyclic graphs without a hop bound, and a following
    /// [`Traversal::top_k`] expands no more of the product space than the
    /// k-th result requires (optimizer rule R9).
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// let r = Traversal::over(&g)
    ///     .v(["marko"])
    ///     .cheapest_("knows·created")
    ///     .weight_by("weight")
    ///     .execute()
    ///     .unwrap();
    /// // cheapest matching path per destination, cheapest destination first
    /// assert_eq!(r.head_names(), vec!["lop", "ripple"]);
    /// let w: Vec<f64> = r.weights().into_iter().flatten().collect();
    /// assert!((w[0] - 1.4).abs() < 1e-9); // marko -knows(1.0)-> josh -created(0.4)-> lop
    /// assert!((w[1] - 2.0).abs() < 1e-9);
    /// ```
    pub fn cheapest_(mut self, pattern: &str) -> Self {
        self.pipeline = self.pipeline.cheapest_(pattern);
        self
    }

    /// [`Traversal::cheapest_`] with an explicit bound on the number of
    /// edges a matching walk may take. Bounded search settles per
    /// `(vertex, state, hops)`, so results are optimal *within the bound*.
    pub fn cheapest_within(mut self, pattern: &str, max_hops: usize) -> Self {
        self.pipeline = self.pipeline.cheapest_within(pattern, max_hops);
        self
    }

    /// Best-first **widest-path** (bottleneck) search over a pattern: like
    /// [`Traversal::cheapest_`] but under the max-min semiring — a path's
    /// cost is its *narrowest* edge weight, and per head the path maximising
    /// that bottleneck wins, widest head first.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// let r = Traversal::over(&g)
    ///     .v(["marko"])
    ///     .widest_("knows·created")
    ///     .weight_by("weight")
    ///     .execute()
    ///     .unwrap();
    /// // ripple's route sustains weight 1.0 throughout; lop's best is 0.4
    /// assert_eq!(r.head_names(), vec!["ripple", "lop"]);
    /// ```
    pub fn widest_(mut self, pattern: &str) -> Self {
        self.pipeline = self.pipeline.widest_(pattern);
        self
    }

    /// [`Traversal::widest_`] with an explicit depth bound.
    pub fn widest_within(mut self, pattern: &str, max_hops: usize) -> Self {
        self.pipeline = self.pipeline.widest_within(pattern, max_hops);
        self
    }

    /// Weights the preceding `cheapest_`/`widest_` step by an edge property:
    /// each traversed edge must carry a finite numeric value under `key`
    /// (missing or non-numeric values are a
    /// [`crate::EngineError::BadWeight`] error, and shortest-path search
    /// additionally rejects negative weights). Anywhere else in the pipeline,
    /// `weight_by` is rejected at plan time.
    pub fn weight_by(mut self, key: &str) -> Self {
        self.pipeline = self.pipeline.weight_by(key);
        self
    }

    /// Weights the preceding `cheapest_`/`widest_` step by a per-label
    /// table, resolved at plan time — the "weighted mapping" of
    /// multi-relational analysis: relation types priced by how strongly they
    /// connect.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// let r = Traversal::over(&g)
    ///     .v(["marko"])
    ///     .cheapest_("(knows|created)+")
    ///     .weight_by_labels([("knows", 1.0), ("created", 10.0)])
    ///     .top_k(2)
    ///     .execute()
    ///     .unwrap();
    /// // the two destinations cheapest under "created is 10x knows"
    /// assert_eq!(r.head_names(), vec!["vadas", "josh"]);
    /// ```
    pub fn weight_by_labels<I, S>(mut self, table: I) -> Self
    where
        I: IntoIterator<Item = (S, f64)>,
        S: Into<String>,
    {
        self.pipeline = self.pipeline.weight_by_labels(table);
        self
    }

    /// Keeps the first `k` rows of a weighted search. Sugar for
    /// [`Traversal::limit`]: a weighted step emits its rows best-cost-first
    /// **within each input row** (rows stay row-major across input rows), so
    /// with a single start vertex — the common shape for ranking queries —
    /// truncation is exactly top-k, and the optimizer (rule R9) pushes the
    /// cap into the best-first walk, which then settles only as much of the
    /// product space as the k-th result requires. With several start
    /// vertices the kept rows are the first `k` of the per-source streams in
    /// source order, *not* a global cost ranking.
    pub fn top_k(mut self, k: usize) -> Self {
        self.pipeline = self.pipeline.top_k(k);
        self
    }

    /// Repeats a pipeline fragment between `times.start()` and `times.end()`
    /// iterations (bounded Kleene iteration). A row is emitted once per
    /// completed iteration count `k` with `min ≤ k ≤ max` — so
    /// `repeat(n..=n, …)` is classic `times(n)`, and `repeat(0..=n, …)` also
    /// emits the unexpanded input rows. The body must be stateless per row
    /// (no `dedup`/`limit`).
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// // 1 or 2 hops along any label
    /// let r = Traversal::over(&g)
    ///     .v(["marko"])
    ///     .repeat(1..=2, |p| p.out_any())
    ///     .execute()
    ///     .unwrap();
    /// assert!(r.len() > 0);
    /// ```
    pub fn repeat(
        mut self,
        times: RangeInclusive<usize>,
        body: impl FnOnce(Pipeline) -> Pipeline,
    ) -> Self {
        self.pipeline = self.pipeline.repeat(times, body);
        self
    }

    /// Repeats a pipeline fragment until the row's head vertex satisfies
    /// `pred` on property `key` (checked before each iteration, including the
    /// zeroth), for at most `max` iterations. Rows that never satisfy the
    /// predicate are dropped.
    pub fn repeat_until(
        mut self,
        max: usize,
        key: &str,
        pred: Predicate,
        body: impl FnOnce(Pipeline) -> Pipeline,
    ) -> Self {
        self.pipeline = self.pipeline.repeat_until(max, key, pred, body);
        self
    }

    /// Filters on a property of the current vertex.
    pub fn has(mut self, key: &str, pred: Predicate) -> Self {
        self.pipeline = self.pipeline.has(key, pred);
        self
    }

    /// Filters to the named current vertices.
    pub fn is<I, S>(mut self, names: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        self.pipeline = self.pipeline.is(names);
        self
    }

    /// Deduplicates rows by their current vertex.
    pub fn dedup(mut self) -> Self {
        self.pipeline = self.pipeline.dedup();
        self
    }

    /// Keeps at most `n` rows.
    pub fn limit(mut self, n: usize) -> Self {
        self.pipeline = self.pipeline.limit(n);
        self
    }

    /// Chooses the execution strategy (materialized by default).
    pub fn strategy(mut self, strategy: ExecutionStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// The strategy this traversal will execute under.
    pub fn current_strategy(&self) -> ExecutionStrategy {
        self.strategy
    }

    /// Caps intermediate result sizes; exceeding the cap aborts the traversal.
    pub fn max_intermediate(mut self, cap: usize) -> Self {
        self.max_intermediate = Some(cap);
        self
    }

    /// Forces the parallel strategy's worker thread count (the default is
    /// `available_parallelism`). Useful for tests and benchmarks —
    /// single-core CI machines otherwise silently fall back to the
    /// materialized path — and for pinning resource use in servers. Ignored
    /// by the other strategies.
    pub fn parallel_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// Bounds the traversal's wall-clock time: the deadline starts when
    /// execution starts (at [`Traversal::execute`]/[`Traversal::cursor`]
    /// time, not builder time) and an execution that outlives it fails with
    /// [`EngineError::Cancelled`] at its next pull — including
    /// mid-product-automaton-frontier. Cancellation is cooperative and never
    /// poisons the underlying store.
    pub fn timeout(mut self, timeout: std::time::Duration) -> Self {
        self.timeout = Some(timeout);
        self
    }

    /// Attaches a shared [`CancelToken`](crate::CancelToken): cancelling any
    /// clone of the token (e.g. from another thread) makes the executing
    /// traversal fail with [`EngineError::Cancelled`] at its next pull.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, CancelToken, EngineError, Traversal};
    /// let g = classic_social_graph();
    /// let token = CancelToken::new();
    /// let t = Traversal::over(&g).match_("(knows|created)*").cancel_token(&token);
    /// token.cancel();
    /// assert_eq!(t.execute().unwrap_err(), EngineError::Cancelled);
    /// ```
    pub fn cancel_token(mut self, token: &crate::cancel::CancelToken) -> Self {
        self.cancel = Some(token.clone());
        self
    }

    /// Overrides the row-chunk target for full-drain execution (default
    /// [`DEFAULT_CHUNK_SIZE`](crate::chunk::DEFAULT_CHUNK_SIZE)). Mostly a
    /// benchmark/testing knob: 1 asks for one row per call, exactly like
    /// `next_row`; larger values trade memory for fewer protocol round
    /// trips.
    pub fn chunk_size(mut self, rows: usize) -> Self {
        self.chunk = rows.max(1);
        self
    }

    /// Caps this execution's memory in bytes. Execution charges arena node
    /// growth and buffered-row growth against the budget at the same
    /// layer/pull/batch boundaries cancellation is checked at; crossing the
    /// cap fails the traversal with [`EngineError::MemoryBudget`], suspending
    /// any in-flight frontier cleanly — the cursor fuses and the store stays
    /// fully usable, exactly like a timeout. The parallel strategy splits the
    /// budget evenly across its partitions and consumer. With no budget set
    /// (the default) accounting is skipped entirely.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, EngineError, Traversal};
    /// let g = classic_social_graph();
    /// let err = Traversal::over(&g)
    ///     .match_("(knows|created)*")
    ///     .memory_budget(64)
    ///     .execute()
    ///     .unwrap_err();
    /// assert!(matches!(err, EngineError::MemoryBudget { .. }));
    /// ```
    pub fn memory_budget(mut self, bytes: u64) -> Self {
        self.budget = Some(bytes.max(1));
        self
    }

    /// The steps accumulated so far (used by the planner and tests).
    pub fn steps(&self) -> &[Step] {
        self.pipeline.steps()
    }

    /// The start specification.
    pub fn start_spec(&self) -> &StartSpec {
        &self.start
    }

    /// Plans, optimizes, and executes the traversal, collecting every row.
    /// [`QueryResult`] is a thin collect of [`Traversal::cursor`]; use the
    /// cursor or the `first`/`exists`/`count` terminals when you do not need
    /// the full row set.
    pub fn execute(&self) -> Result<QueryResult, EngineError> {
        let started = std::time::Instant::now();
        let mut cursor = self.cursor()?;
        let mut rows = Vec::new();
        while cursor.next_chunk(&mut rows)? {}
        let execution = cursor.finish();
        record_query_metrics(execution.stats(), started.elapsed());
        Ok(QueryResult::new(rows, execution))
    }

    /// Executes the traversal with per-stage tracing enabled, returning the
    /// rows (row-for-row identical to [`Traversal::execute`]) together with a
    /// [`QueryTrace`]: one node per optimized-plan op joining the planner's
    /// cardinality estimate with measured actuals (rows in/out, pulls,
    /// chunks, wall time, expansions, arena appends). Tracing uses per-thread
    /// plain counters attached to each cursor stage — partitioned runs sum
    /// them at the partition boundary, and nothing here adds atomics to the
    /// execution hot path.
    ///
    /// The query is planned once: the trace's estimates are those of the
    /// very plan the cursor executes, on the snapshot it executes against,
    /// so a writer committing mid-call cannot make the trace describe a
    /// different plan from the one that produced the rows.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// let profiled = Traversal::over(&g)
    ///     .v(["marko"])
    ///     .match_("knows+·created")
    ///     .profile()
    ///     .unwrap();
    /// let root = &profiled.trace.root;
    /// assert_eq!(root.rows_out as usize, profiled.result.rows().len());
    /// assert!(profiled.trace.total_time_ns > 0);
    /// ```
    pub fn profile(&self) -> Result<ProfiledQuery, EngineError> {
        let started = std::time::Instant::now();
        let (snapshot, _, optimized) = self.planned()?;
        let estimates = plan::estimate(&snapshot, &optimized);
        let mut cursor = self.compile(snapshot, optimized, true);
        let mut rows = Vec::new();
        while cursor.next_chunk(&mut rows)? {}
        let actuals = cursor.op_actuals().unwrap_or_default();
        let execution = cursor.finish();
        let elapsed = started.elapsed();
        record_query_metrics(execution.stats(), elapsed);
        let trace = QueryTrace::assemble(
            &estimates,
            &actuals,
            self.strategy,
            execution.stats(),
            elapsed.as_nanos() as u64,
        );
        Ok(ProfiledQuery {
            result: QueryResult::new(rows, execution),
            trace,
        })
    }

    /// Plans, optimizes, and compiles the traversal into a demand-driven
    /// [`RowCursor`] without executing anything: rows are produced one
    /// `next_row` pull at a time, and work stops as soon as you stop pulling
    /// — a dense `match_` walk is suspended mid-frontier between pulls.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// let mut cursor = Traversal::over(&g).v(["marko"]).out_any().cursor().unwrap();
    /// let first = cursor.next_row().unwrap().unwrap();
    /// // only marko's adjacency has been touched so far
    /// assert!(cursor.stats().expansions <= 3);
    /// // RowCursor is also an Iterator over Result<ResultRow, _>
    /// assert_eq!(cursor.count(), 2);
    /// ```
    pub fn cursor(&self) -> Result<RowCursor, EngineError> {
        let (snapshot, _, optimized) = self.planned()?;
        Ok(self.compile(snapshot, optimized, false))
    }

    /// The one planning site behind [`Traversal::cursor`],
    /// [`Traversal::profile`] and [`Traversal::explain`]: pins a snapshot,
    /// plans the pipeline against it and optimizes the result, returning
    /// the snapshot with the naive and the optimized plan. Each call feeds
    /// one observation to the `mrpa_query_plan_us` histogram.
    fn planned(&self) -> Result<(GraphSnapshot, LogicalPlan, LogicalPlan), EngineError> {
        let snapshot = self.graph.snapshot();
        let started = std::time::Instant::now();
        let naive = plan::plan(&snapshot, &self.start, self.pipeline.steps())?;
        let optimized = plan::optimize(&snapshot, &naive);
        crate::metrics::query_plan().observe(started.elapsed());
        Ok((snapshot, naive, optimized))
    }

    /// Compiles an optimized plan into a cursor over the snapshot it was
    /// planned against, applying this traversal's execution settings.
    fn compile(&self, snapshot: GraphSnapshot, optimized: LogicalPlan, profile: bool) -> RowCursor {
        let mut cursor = RowCursor::compile_with_config(
            snapshot,
            optimized,
            self.strategy,
            self.max_intermediate,
            self.threads,
            crate::exec::ExecConfig {
                chunk: self.chunk,
                budget: self.budget,
                profile,
            },
        );
        if let Some(timeout) = self.timeout {
            cursor.set_deadline(std::time::Instant::now() + timeout);
        }
        if let Some(token) = &self.cancel {
            cursor.set_cancel_token(token.clone());
        }
        cursor
    }

    /// The first result row, or `None` — without enumerating the rest.
    /// Equivalent to `limit(1)` + one cursor pull, so even a dense
    /// `match_("knows+")` on a cyclic graph performs a bounded number of
    /// expansions under every strategy.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// let row = Traversal::over(&g)
    ///     .v(["marko"])
    ///     .match_("knows+·created")
    ///     .first()
    ///     .unwrap()
    ///     .expect("marko's friends created software");
    /// assert!(row.path.len() >= 2);
    /// ```
    pub fn first(&self) -> Result<Option<ResultRow>, EngineError> {
        Ok(self.first_with_stats()?.0)
    }

    /// [`Traversal::first`] plus the [`Execution`] behind it: the work
    /// counters the probe performed and the plan it ran — lets a caller
    /// (e.g. the query server) attribute expansions to a single request even
    /// when no row set is materialised.
    pub fn first_with_stats(&self) -> Result<(Option<ResultRow>, Execution), EngineError> {
        let started = std::time::Instant::now();
        // the explicit limit(1) lets the optimizer's R7 rule annotate the
        // automaton, so the batch (materialized) strategy early-exits too
        let mut cursor = self.clone().limit(1).cursor()?;
        let row = cursor.next_row()?;
        let execution = cursor.finish();
        record_query_metrics(execution.stats(), started.elapsed());
        Ok((row, execution))
    }

    /// Whether the traversal produces at least one row — `first().is_some()`
    /// without materialising the row.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// assert!(Traversal::over(&g).v(["marko"]).match_("knows+").exists().unwrap());
    /// assert!(!Traversal::over(&g).v(["vadas"]).out(["created"]).exists().unwrap());
    /// ```
    pub fn exists(&self) -> Result<bool, EngineError> {
        Ok(self.exists_with_stats()?.0)
    }

    /// [`Traversal::exists`] plus the [`Execution`] behind it.
    pub fn exists_with_stats(&self) -> Result<(bool, Execution), EngineError> {
        let started = std::time::Instant::now();
        let mut cursor = self.clone().limit(1).cursor()?;
        let found = cursor.advance_row()?;
        let execution = cursor.finish();
        record_query_metrics(execution.stats(), started.elapsed());
        Ok((found, execution))
    }

    /// Number of result rows, without producing them. Where
    /// [`crate::count::by_product`] accepts the optimized plan, the count is
    /// a layered vector × CSR product over `(vertex, DFA state)` pairs that
    /// scans each pair's CSR segments once per layer instead of once per
    /// walk; every other plan is drained off the cursor without
    /// materialising paths. Both give `execute().len()`.
    ///
    /// ```
    /// use mrpa_engine::{classic_social_graph, Traversal};
    /// let g = classic_social_graph();
    /// let n = Traversal::over(&g).v(["marko"]).out_any().count().unwrap();
    /// assert_eq!(n, 3);
    /// ```
    pub fn count(&self) -> Result<usize, EngineError> {
        Ok(self.count_with_stats()?.0)
    }

    /// [`Traversal::count`] plus the [`Execution`] behind it. The product
    /// path pushes no arena node and reports the CSR entries it visited as
    /// `expansions`.
    pub fn count_with_stats(&self) -> Result<(usize, Execution), EngineError> {
        let started = std::time::Instant::now();
        let (snapshot, _, optimized) = self.planned()?;
        let (n, execution) = if crate::count::by_product(&optimized, self.max_intermediate) {
            let counters = Counters::default();
            let alive = Liveness {
                token: self.cancel.clone(),
                deadline: self.timeout.map(|t| std::time::Instant::now() + t),
            };
            let ctx = ExecCtx {
                snapshot: &snapshot,
                cap: None,
                counters: &counters,
                alive: alive.active(),
                budget: self.budget,
            };
            let n = crate::count::count(&ctx, &optimized)?;
            let stats = counters.stats();
            (n, Execution::new(snapshot, optimized, stats))
        } else {
            let mut cursor = self.compile(snapshot, optimized, false);
            let mut n = 0usize;
            while cursor.advance_row()? {
                n += 1;
            }
            (n, cursor.finish())
        };
        record_query_metrics(execution.stats(), started.elapsed());
        Ok((n, execution))
    }

    /// Plans the traversal without executing it, returning a structured
    /// [`PlanReport`]: the naive (pre-rewrite) plan, the optimized
    /// (post-rewrite) plan, and per-op cardinality estimates derived from
    /// snapshot label frequencies.
    pub fn explain(&self) -> Result<PlanReport, EngineError> {
        let (snapshot, naive, optimized) = self.planned()?;
        Ok(PlanReport::new(&snapshot, naive, optimized))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::classic_social_graph;
    use crate::value::Value;

    #[test]
    fn builder_accumulates_steps() {
        let g = classic_social_graph();
        let t = Traversal::over(&g)
            .v(["marko"])
            .out(["knows"])
            .has("age", Predicate::Gt(30.0))
            .dedup()
            .limit(10);
        assert_eq!(t.steps().len(), 4);
        assert_eq!(t.start_spec(), &StartSpec::Named(vec!["marko".to_owned()]));
    }

    #[test]
    fn pipeline_fragments_build_repeat_bodies() {
        let g = classic_social_graph();
        let t = Traversal::over(&g)
            .v(["marko"])
            .repeat(1..=3, |p| p.out(["knows"]).has("age", Predicate::Gt(0.0)));
        let Step::Repeat {
            body,
            min,
            max,
            until,
        } = &t.steps()[0]
        else {
            panic!("expected a repeat step");
        };
        assert_eq!(body.len(), 2);
        assert_eq!((*min, *max), (1, 3));
        assert!(until.is_none());
    }

    #[test]
    fn unprofiled_cursors_record_no_stage_actuals() {
        // The disabled profiling path, checked exactly: a cursor compiled
        // without `profile` attaches no trace record to any stage, so a full
        // drain leaves it no per-op actuals under any strategy (the parallel
        // one partitioned across 2 threads, with a dedup suffix). The same
        // plan compiled with `profile` has them, so the check is not vacuous.
        let g = classic_social_graph();
        let base = Traversal::over(&g)
            .out(["knows"])
            .out(["created"])
            .dedup()
            .parallel_threads(2);
        for strategy in [
            ExecutionStrategy::Materialized,
            ExecutionStrategy::Streaming,
            ExecutionStrategy::Parallel,
        ] {
            let t = base.clone().strategy(strategy);
            let (snapshot, _, optimized) = t.planned().unwrap();
            let cursors = [
                (false, t.cursor().unwrap()),
                (true, t.compile(snapshot, optimized, true)),
            ];
            for (profiled, mut cursor) in cursors {
                let mut rows = Vec::new();
                while cursor.next_chunk(&mut rows).unwrap() {}
                assert_eq!(rows.len(), 2, "{strategy:?}");
                assert_eq!(
                    cursor.op_actuals().is_some(),
                    profiled,
                    "{strategy:?} profile={profiled}"
                );
            }
        }
    }

    #[test]
    fn quickstart_pipeline_runs() {
        let g = classic_social_graph();
        let result = Traversal::over(&g)
            .v(["marko"])
            .out(["knows"])
            .out(["created"])
            .execute()
            .unwrap();
        assert_eq!(result.head_names_sorted(), vec!["lop", "ripple"]);
    }

    #[test]
    fn empty_label_list_means_any_label() {
        let g = classic_social_graph();
        let result = Traversal::over(&g)
            .v(["marko"])
            .out(Vec::<String>::new())
            .execute()
            .unwrap();
        // marko's out-neighbours over all labels: vadas, josh, lop
        assert_eq!(result.head_names().len(), 3);
    }

    #[test]
    fn where_start_selects_by_property() {
        let g = classic_social_graph();
        let result = Traversal::over(&g)
            .v_where("lang", Predicate::Eq(Value::from("java")))
            .in_(["created"])
            .dedup()
            .execute()
            .unwrap();
        // creators of java software: marko, josh, peter
        assert_eq!(result.head_names_sorted(), vec!["josh", "marko", "peter"]);
    }

    #[test]
    fn explain_reports_pre_and_post_rewrite_plans() {
        let g = classic_social_graph();
        let report = Traversal::over(&g)
            .v(["marko"])
            .out(["knows"])
            .has("age", Predicate::Gt(30.0))
            .explain()
            .unwrap();
        assert!(report.before().ops().len() >= 2);
        assert!(!report.before().describe().is_empty());
        assert!(!report.after().describe().is_empty());
        assert_eq!(report.estimates().len(), report.after().ops().len() + 1);
    }

    #[test]
    fn unknown_start_vertex_is_an_error() {
        let g = classic_social_graph();
        let err = Traversal::over(&g).v(["nobody"]).execute();
        assert!(matches!(err, Err(EngineError::UnknownVertex(_))));
    }

    #[test]
    fn unknown_label_is_an_error() {
        let g = classic_social_graph();
        let err = Traversal::over(&g).v(["marko"]).out(["likes"]).execute();
        assert!(matches!(err, Err(EngineError::UnknownLabel(_))));
        let err = Traversal::over(&g).v(["marko"]).match_("likes+").execute();
        assert!(matches!(err, Err(EngineError::UnknownLabel(_))));
    }

    #[test]
    fn bad_patterns_error_at_plan_time() {
        let g = classic_social_graph();
        let err = Traversal::over(&g).v(["marko"]).match_("knows |").execute();
        assert!(matches!(err, Err(EngineError::InvalidPattern(_))));
    }
}
