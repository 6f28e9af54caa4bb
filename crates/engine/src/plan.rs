//! The planner: lowering pipeline steps into a single algebraic IR, then
//! rewriting that IR with an explicit optimizer pass.
//!
//! # Lowering
//!
//! A pipeline like `.v(["marko"]).out(["knows"]).out(["created"])` is exactly
//! the §III-B/§III-D combination "source traversal with labeled steps": the
//! planner turns it into a chain of *restricted edge sets* joined with `⋈◦`,
//! resolving names to ids once. Everything the surface DSL can express lowers
//! into the same IR:
//!
//! * `out`/`in_`/`both` become [`PlanOp::Expand`] — one `⋈◦` with the edge set
//!   `{e | ω(e) ∈ labels}`, optionally restricted on its tail side
//!   (`{e | γ⁻(e) ∈ Vs}`) and head side (`{e | γ⁺(e) ∈ Vs}`).
//! * `match_("knows+·created")` parses a label regex
//!   ([`mrpa_regex::parse_label_expr`]), compiles it through the Thompson
//!   NFA → graph-relative symbolic DFA → minimisation pipeline of
//!   `mrpa-regex`, and lowers to [`PlanOp::ExpandAutomaton`]: a product
//!   automaton evaluated over `(vertex, dfa-state)` frontiers.
//! * `repeat(min..=max, body)` lowers to [`PlanOp::Repeat`] — bounded Kleene
//!   iteration of a nested op sequence.
//!
//! This is the paper's thesis operationalised: Gremlin-style steps, regular
//! path queries, and the path algebra are one language — every pipeline is a
//! regular expression over restricted edge sets combined with `⋈◦` (§III/§IV).
//!
//! # The rewriting optimizer
//!
//! [`optimize`] applies a fixed set of rewrite rules to a fixpoint. Each rule
//! preserves the *exact row sequence* an executor produces (not merely the row
//! set), so `Limit` keeps its meaning. The rules, with their soundness
//! arguments:
//!
//! **R1 — restriction fusion.** Adjacent `RestrictVertices(A)`,
//! `RestrictVertices(B)` fuse to `RestrictVertices(A ∩ B)`: both are
//! order-preserving filters on the row's head, and membership in both sets is
//! membership in the intersection. A `RestrictProperty` adjacent to a
//! `RestrictVertices` folds into it by filtering the (concrete) vertex set
//! with the predicate at plan time: the predicate is evaluated against the
//! same immutable snapshot the query executes on, so `head ∈ A ∧ p(head)`
//! iff `head ∈ {v ∈ A | p(v)}`. Two adjacent `RestrictProperty` ops are left
//! alone (predicates are opaque; there is no conjunction node, and fusing
//! them into a vertex set would cost an O(|V|) scan at plan time).
//!
//! **R2 — limit fusion and dead-tail elimination.** `Limit(m)` then
//! `Limit(n)` is `Limit(min(m, n))`: truncating a sequence twice truncates to
//! the shorter prefix. After a `Limit(0)` every row set is empty and all
//! remaining ops are identities on the empty sequence, so the tail is dropped.
//!
//! **R3 — redundant-dedup elimination.** The optimizer tracks a
//! "rows-distinct-by-head" dataflow fact: it holds after `DedupByVertex`, is
//! preserved by the filters (`RestrictVertices`, `RestrictProperty`) and by
//! `Limit` (any subsequence of a head-distinct sequence is head-distinct), and
//! is destroyed by every expansion (`Expand`, `ExpandAutomaton`, `Repeat`),
//! which can map distinct heads to equal heads. A `DedupByVertex` reached
//! while the fact holds is the identity and is removed.
//!
//! **R4 — `Limit` does *not* commute with `DedupByVertex`.** The tempting
//! rewrite `Dedup → Limit(n)` ⇒ `Limit(n) → Dedup` is unsound: on head
//! sequence `[a, a, b]`, `Dedup → Limit(2)` yields `[a, b]` while
//! `Limit(2) → Dedup` yields `[a]`. The opposite direction is equally unsound
//! (`Limit` first can under-supply the dedup). The only case where the swap
//! is sound is when the input is already head-distinct — and there R3 removes
//! the dedup entirely, which is strictly stronger. The optimizer therefore
//! never reorders the two; `optimizer_leaves_dedup_limit_order_alone` pins
//! this.
//!
//! **R5 — expansion merging.** A run of ≥ 2 consecutive *single-label*
//! `Expand` ops with the same direction (`Out` or `In`) and no endpoint
//! restrictions merges into one `ExpandAutomaton` whose regex is the
//! concatenation `ℓ₁·ℓ₂·…·ℓₖ`. Soundness: the chain DFA has exactly one move
//! per state, so the product construction walks, per input row,
//! the CSR segment of `(head, ℓᵢ)` at step i — the same adjacency slices in
//! the same row-major order as the op chain — and accepts exactly at depth
//! `k` (`max_hops = k` makes evaluation finite). Multi-label and wildcard
//! steps are deliberately *not* merged: a multi-label `Expand` emits edges in
//! the step's label-list order, while an automaton state's moves are in
//! graph label order, so merging would reorder rows and change what a
//! downstream `Limit` keeps; a wildcard has no label to concatenate. Runs
//! longer than the symbolic DFA's 64-matcher budget are also left unmerged.
//!
//! **R6 — restriction pushdown into expansions** (the paper's
//! `A = {e | γ⁻(e) ∈ Vs}` construction, §III-C). `RestrictVertices(Vs)`
//! immediately *before* an expansion becomes the expansion's tail-side edge
//! restriction (`from`): expanding only rows whose head lies in `Vs` is the
//! `⋈◦` with the tail-restricted edge set. `RestrictVertices(Vs)` immediately
//! *after* an expansion becomes the head-side restriction (`to`): an emitted
//! row passes iff its new head (the edge's `γ⁺`) lies in `Vs`, so filtering
//! edges during expansion produces the same rows in the same order without
//! materialising the rejected ones. For `ExpandAutomaton`, `from` filters the
//! input rows and `to` filters *emitted* rows only — intermediate automaton
//! states must still traverse arbitrary vertices.
//!
//! **R7 — limit pushdown into automata.** A `Limit(n)` immediately after an
//! `ExpandAutomaton` becomes the automaton's emission cap: the walk stops —
//! and the remaining input rows are skipped — once `n` rows have been
//! emitted. The truncated emission sequence is exactly the prefix the limit
//! keeps, so the rewrite preserves the row sequence while letting *every*
//! executor (including the level-at-a-time materialized one) early-exit a
//! dense product-automaton walk under `limit(k)`/`first()`.
//!
//! **R8 — reachability upgrade before dedup.** An `ExpandAutomaton` whose
//! downstream (through head-based filters) is a `DedupByVertex` only has its
//! first emission per head observed. When its hop bound cannot bind — it is
//! unbounded, or the DFA is acyclic and no word is longer than the bound — it
//! becomes one multi-source search, [`Semantics::GlobalReachable`] without a
//! bound: each `(vertex, state)` pair is expanded once for the whole op, not
//! once per input row. Otherwise a *cyclic* automaton (whose walk set can
//! blow up) under [`Semantics::Walks`] becomes per-row
//! [`Semantics::Reachable`]. Either way the dedup output is the same rows,
//! paths and order — see [`Semantics`] and the rule's soundness proof.
//!
//! **R9 — top-k pushdown into weighted expansions.** A `Limit(n)` immediately
//! after a [`PlanOp::ExpandWeighted`] becomes the weighted op's `k` cap: the
//! best-first walk stops (and the remaining input rows are skipped) once `n`
//! rows have been emitted. Identical soundness argument to R7 — the weighted
//! op's emission sequence is already the sequence the limit truncates — but
//! the payoff is bigger: because emissions within an input row come out in
//! semiring cost order, the cap turns "enumerate all best paths, keep `n`"
//! into a true *top-k* search that settles no more of the product space than
//! the k-th result requires.
//!
//! The naive (pre-rewrite) plan remains available: [`plan`] lowers without
//! rewriting, [`optimize`] rewrites, and [`report`] packages both plus
//! per-op cardinality estimates into a [`PlanReport`] for
//! `Traversal::explain`.

use std::collections::HashSet;
use std::fmt::Write as _;

use mrpa_core::fxhash::FxHashMap;
use mrpa_core::semiring::{MaxMin, MinPlus, SelectiveSemiring, Semiring};
use mrpa_core::{Edge, LabelId, VertexId};
use mrpa_regex::{minimize, parse_label_expr, Dfa, LabelRegex, Nfa};

use crate::error::EngineError;
use crate::pipeline::{StartSpec, Step, WeightSpec};
use crate::store::GraphSnapshot;
use crate::value::Predicate;

/// Direction of an expansion step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Follow edges from tail to head (the graph as stored).
    Out,
    /// Follow edges from head to tail (evaluated on the In-direction CSR).
    In,
    /// Follow edges in both directions (union of `Out` and `In`).
    Both,
}

/// Default bound on the number of automaton hops for `match_` steps: a `+` or
/// `*` over a cyclic graph denotes an infinite walk set, so product-automaton
/// evaluation is depth-bounded (`Traversal::match_within` overrides).
pub const DEFAULT_MATCH_MAX_HOPS: usize = 16;

/// Hop bound meaning "no depth bound": evaluation runs until the frontier
/// empties. Only meaningful under [`Semantics::Reachable`] and
/// [`Semantics::GlobalReachable`], where the frontier is deduplicated by
/// `(vertex, state)` and therefore provably empties after at most
/// `|V| · |states|` layers; under [`Semantics::Walks`] an unbounded `+`/`*`
/// over a cyclic graph never terminates.
pub const UNBOUNDED_MATCH_HOPS: usize = usize::MAX;

/// Path semantics of product-automaton evaluation (cf. Martens et al.,
/// *Representing Paths in Graph Database Pattern Matching*: the choice of
/// path semantics is what makes regular path queries tractable).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Semantics {
    /// Every distinct walk is a row: a row per matching edge sequence, paths
    /// included. The default, and the only mode whose row sequence is the
    /// algebra's full join chain.
    #[default]
    Walks,
    /// Reachability over the product space: the per-input-row frontier is
    /// deduplicated by `(vertex, dfa-state)`, so each pair is expanded — and
    /// each accepting pair emitted — at most once, with the breadth-first
    /// *first* walk as its path. Rows that differ only in their path collapse;
    /// `match_` over a cyclic graph terminates without a hop bound.
    Reachable,
    /// [`Semantics::Reachable`] with **one seen-set shared across all input
    /// rows**: each `(vertex, dfa-state)` pair is expanded — and emitted — at
    /// most once for the whole operation, attributed to the first input row
    /// (in row-major order) that reaches it. The multi-source reachability
    /// mode: `n` sources cost one BFS over the product space instead of `n`.
    /// Stateful across rows, so it is rejected inside `repeat` bodies. Besides
    /// `match_reachable_global`, rule R8 picks it for a `Walks` or
    /// `Reachable` automaton under a head dedup whose hop bound cannot bind:
    /// there it gives the dedup the same rows, paths and order.
    GlobalReachable,
}

/// Which selective semiring a [`PlanOp::ExpandWeighted`] optimises over. The
/// scalar structures live in [`mrpa_core::semiring`]; this enum is the
/// plan-level (runtime) selection between them, over `f64` weights.
///
/// Hop counting ([`mrpa_core::semiring::HopCount`]) is expressed as
/// `Shortest` × [`WeightSource::Unit`]; the counting semiring is not
/// selective and therefore has no best-first plan op.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SemiringKind {
    /// Tropical min-plus ([`MinPlus`]): minimise the sum of edge weights.
    /// Best-first search requires non-negative weights (checked when each
    /// weight is resolved).
    Shortest,
    /// Max-min ([`MaxMin`]): maximise the bottleneck (minimum edge weight).
    Widest,
}

impl SemiringKind {
    /// The weight of the empty path ε (`1̄`).
    pub fn one(self) -> f64 {
        match self {
            SemiringKind::Shortest => MinPlus::one(),
            SemiringKind::Widest => MaxMin::one(),
        }
    }

    /// Extends a path cost by one edge weight (`⊗`).
    pub fn extend(self, cost: f64, w: f64) -> f64 {
        match self {
            SemiringKind::Shortest => MinPlus::mul(&cost, &w),
            SemiringKind::Widest => MaxMin::mul(&cost, &w),
        }
    }

    /// Whether `a` is strictly better than `b` under the semiring's
    /// selection order.
    pub fn better(self, a: f64, b: f64) -> bool {
        match self {
            SemiringKind::Shortest => MinPlus::better(&a, &b),
            SemiringKind::Widest => MaxMin::better(&a, &b),
        }
    }

    /// A priority key for best-first search: smaller keys pop first, and
    /// `key(a) < key(b)` iff `a` is better than `b`.
    pub(crate) fn key(self, cost: f64) -> f64 {
        match self {
            SemiringKind::Shortest => cost,
            SemiringKind::Widest => -cost,
        }
    }

    /// Validates a resolved edge weight for this semiring: weights must be
    /// finite, and `Shortest` additionally requires non-negativity (the
    /// Dijkstra monotonicity condition — a negative edge could improve a
    /// settled cost).
    fn validate(self, w: f64, edge: &Edge) -> Result<f64, EngineError> {
        if !w.is_finite() {
            return Err(EngineError::BadWeight(format!(
                "edge {edge} has non-finite weight {w}"
            )));
        }
        if self == SemiringKind::Shortest && w < 0.0 {
            return Err(EngineError::BadWeight(format!(
                "edge {edge} has negative weight {w}; best-first shortest-path search requires \
                 non-negative weights"
            )));
        }
        Ok(w)
    }
}

/// Where a [`PlanOp::ExpandWeighted`] reads each traversed edge's weight.
#[derive(Debug, Clone, PartialEq)]
pub enum WeightSource {
    /// Every edge weighs `1.0` (hop counting under `Shortest`).
    Unit,
    /// Read the weight from this edge property; a missing or non-numeric
    /// value is a [`EngineError::BadWeight`] error, not a silent skip.
    Property(String),
    /// A per-label weight table (resolved from names at plan time); an edge
    /// whose label is absent from the table is an error.
    Labels(FxHashMap<LabelId, f64>),
}

impl WeightSource {
    /// Resolves the weight of a traversed edge, given in the *stored*
    /// orientation (callers walking `In` edges flip the edge first so
    /// property lookup matches `add_edge_with`), validated for `semiring`.
    pub(crate) fn resolve(
        &self,
        snapshot: &GraphSnapshot,
        edge: &Edge,
        semiring: SemiringKind,
    ) -> Result<f64, EngineError> {
        let w = match self {
            WeightSource::Unit => 1.0,
            WeightSource::Property(key) => match snapshot.edge_property(edge, key) {
                Some(v) => v.as_finite_number().ok_or_else(|| {
                    EngineError::BadWeight(format!(
                        "edge {edge} property {key:?} is not a finite number: {v}"
                    ))
                })?,
                None => {
                    return Err(EngineError::BadWeight(format!(
                        "edge {edge} has no {key:?} property to weight it by"
                    )))
                }
            },
            WeightSource::Labels(table) => match table.get(&edge.label) {
                Some(&w) => w,
                None => {
                    return Err(EngineError::BadWeight(format!(
                        "edge {edge} has a label missing from the weight table"
                    )))
                }
            },
        };
        semiring.validate(w, edge)
    }
}

/// The symbolic DFA's matcher budget (signatures are packed into a `u64`).
const MAX_AUTOMATON_ATOMS: usize = 64;

/// One compiled `(state, label) → target` transition of an [`AutomatonSpec`],
/// enriched at compile time with everything the hot walk loops would
/// otherwise re-derive per produced row: whether the target accepts, whether
/// the target has any live outgoing moves, and the admissible lower bound on
/// edges from the target to acceptance. Hoisting these into the move table
/// lets the walkers skip dead states without a per-row
/// `is_accept`/`moves(target).is_empty()`/`dist_to_accept` lookup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AutoMove {
    /// The edge label consumed by this move.
    pub label: LabelId,
    /// The DFA state the move leads to.
    pub target: usize,
    /// Whether `target` is an accepting state (`accept[target]`).
    pub accepts: bool,
    /// Whether `target` has at least one (post-pruning) outgoing move — i.e.
    /// whether frontier entries parked at `target` can ever expand further.
    pub target_live: bool,
    /// Minimum number of edges any word needs to reach acceptance from
    /// `target`. Always finite: moves into accept-unreachable states are
    /// pruned from the table at compile time.
    pub min_edges_to_accept: usize,
}

/// A compiled, minimized label-regex automaton ready for product evaluation:
/// transitions are per-`(state, label)` moves derived from the graph-relative
/// symbolic DFA, so executors walk per-label CSR segments directly.
#[derive(Debug, Clone, PartialEq)]
pub struct AutomatonSpec {
    /// The surface pattern this automaton was compiled from (display only).
    pattern: String,
    /// Direction of travel (`Out` or `In`; never `Both`).
    direction: Direction,
    /// Depth bound on product evaluation.
    max_hops: usize,
    /// Walk vs. reachability evaluation semantics.
    semantics: Semantics,
    /// Start state.
    start: usize,
    /// Per-state acceptance.
    accept: Vec<bool>,
    /// Per-state enriched moves, in the graph's label order. Moves into
    /// states that cannot reach an accepting state over the graph's label
    /// alphabet are pruned at compile time (they could only ever feed dead
    /// frontier entries); the survivors carry precomputed
    /// accepts/liveness/distance facts (see [`AutoMove`]).
    by_label: Vec<Vec<AutoMove>>,
    /// Per-state minimum edges to reach acceptance
    /// ([`mrpa_regex::Dfa::min_edges_to_accept`]); an admissible lower bound
    /// used by bounded weighted search to prune entries that cannot finish
    /// within the hop budget.
    dist_to_accept: Vec<Option<usize>>,
}

impl AutomatonSpec {
    /// The surface pattern text.
    pub fn pattern(&self) -> &str {
        &self.pattern
    }

    /// Direction of travel.
    pub fn direction(&self) -> Direction {
        self.direction
    }

    /// The depth bound.
    pub fn max_hops(&self) -> usize {
        self.max_hops
    }

    /// Walk vs. reachability evaluation semantics.
    pub fn semantics(&self) -> Semantics {
        self.semantics
    }

    /// The start state.
    pub fn start_state(&self) -> usize {
        self.start
    }

    /// Number of DFA states.
    pub fn state_count(&self) -> usize {
        self.accept.len()
    }

    /// Whether `state` is accepting.
    pub fn is_accept(&self, state: usize) -> bool {
        self.accept[state]
    }

    /// The enriched moves out of `state`.
    pub fn moves(&self, state: usize) -> &[AutoMove] {
        &self.by_label[state]
    }

    /// The hop-budget test: whether a walk with `hops` edges after move `m`
    /// can still accept within `max_hops` (saturating, so an unbounded walk
    /// admits every move).
    pub fn admits(&self, m: &AutoMove, hops: usize) -> bool {
        hops.saturating_add(m.min_edges_to_accept) <= self.max_hops
    }

    /// The frontier test: whether a row with `hops` edges after move `m` can
    /// make progress — hops are left and the target state has moves.
    pub fn continues(&self, m: &AutoMove, hops: usize) -> bool {
        hops < self.max_hops && m.target_live
    }

    /// Minimum number of edges any word needs to reach an accepting state
    /// from `state` (over the graph's label alphabet); `None` if acceptance
    /// is unreachable. `Some(0)` exactly for accepting states.
    pub fn dist_to_accept(&self, state: usize) -> Option<usize> {
        self.dist_to_accept[state]
    }

    /// Whether the DFA can revisit a state (a `*`/`+`/`{n,}` in the
    /// pattern): exactly the automata whose walk sets can grow without bound
    /// on cyclic graphs. Iterative three-colour DFS from the start state.
    pub fn has_cycle(&self) -> bool {
        const WHITE: u8 = 0;
        const GREY: u8 = 1;
        const BLACK: u8 = 2;
        let mut colour = vec![WHITE; self.state_count()];
        // stack of (state, next-move index); grey while its frame is live
        let mut stack = vec![(self.start, 0usize)];
        colour[self.start] = GREY;
        while let Some((state, idx)) = stack.pop() {
            match self.by_label[state].get(idx) {
                None => colour[state] = BLACK,
                Some(&AutoMove { target, .. }) => {
                    stack.push((state, idx + 1));
                    match colour[target] {
                        GREY => return true,
                        WHITE => {
                            colour[target] = GREY;
                            stack.push((target, 0));
                        }
                        _ => {}
                    }
                }
            }
        }
        false
    }
}

/// One operation of the logical plan.
#[derive(Debug, Clone, PartialEq)]
pub enum PlanOp {
    /// Expand the frontier along edges: a concatenative join with the edge set
    /// `{e | ω(e) ∈ labels ∧ γ⁻(e) ∈ from ∧ γ⁺(e) ∈ to}` (each restriction
    /// optional; `labels = None` is the complete edge set).
    Expand {
        /// Direction of travel.
        direction: Direction,
        /// Label restriction (`None` = any label).
        labels: Option<Vec<LabelId>>,
        /// Tail-side vertex restriction pushed in by the optimizer (R6).
        from: Option<HashSet<VertexId>>,
        /// Head-side vertex restriction pushed in by the optimizer (R6).
        to: Option<HashSet<VertexId>>,
    },
    /// Product-automaton expansion: rows carry a DFA state alongside their
    /// head vertex; rows at accepting states are emitted at every depth up to
    /// the spec's `max_hops`.
    ExpandAutomaton {
        /// The compiled automaton.
        spec: AutomatonSpec,
        /// Restriction on the input rows' heads (R6).
        from: Option<HashSet<VertexId>>,
        /// Restriction on *emitted* rows' heads (R6); intermediate automaton
        /// steps are unrestricted.
        to: Option<HashSet<VertexId>>,
        /// Emission cap pushed in by the optimizer (R7): stop the walk — and
        /// skip the remaining input rows — once this many rows have been
        /// emitted. Sound only because a `Limit(n ≥ limit)` follows
        /// immediately, so the truncated emission sequence is exactly the
        /// prefix that limit would keep.
        limit: Option<usize>,
    },
    /// Weighted product-automaton expansion, evaluated **best-first**
    /// (Dijkstra over `(vertex, dfa-state)` pairs) instead of breadth-first.
    /// Per input row, one row is emitted per distinct reachable head whose
    /// product state accepts, carrying the semiring-optimal path and its
    /// cost ([`crate::ResultRow::weight`]) — emissions come out in cost
    /// order, best first, so a downstream `Limit(k)` is a top-k query (rule
    /// R9 pushes it into the `k` cap and the walk settles no more of the
    /// product space than the k-th result requires).
    ExpandWeighted {
        /// The compiled automaton (shared machinery with `ExpandAutomaton`;
        /// its `semantics` field is not consulted — best-first settling is
        /// its own discipline).
        spec: AutomatonSpec,
        /// Which selective semiring orders the search.
        semiring: SemiringKind,
        /// Where each traversed edge's weight comes from.
        weight: WeightSource,
        /// Restriction on the input rows' heads (R6).
        from: Option<HashSet<VertexId>>,
        /// Restriction on *emitted* rows' heads (R6); intermediate automaton
        /// steps are unrestricted, and a head suppressed here still counts as
        /// emitted (the op emits at most one row per head either way).
        to: Option<HashSet<VertexId>>,
        /// Top-k emission cap pushed in by the optimizer (R9), shared across
        /// input rows like R7's automaton cap.
        k: Option<usize>,
    },
    /// Bounded Kleene iteration of a nested op sequence: rows that have
    /// completed `k` iterations for `min ≤ k ≤ max` are emitted (union
    /// semantics; `min..=min` is classic `times(n)`). With `until`, a row
    /// exits the loop — and is emitted — as soon as its head satisfies the
    /// predicate (checked from iteration `min` on); rows that never satisfy
    /// it within `max` iterations are dropped.
    Repeat {
        /// The loop body (contains no `DedupByVertex`/`Limit`; enforced at
        /// plan time so the body is stateless per row and distributes over
        /// its input rows).
        body: Vec<PlanOp>,
        /// Minimum completed iterations before a row may be emitted.
        min: usize,
        /// Maximum iterations.
        max: usize,
        /// Optional early-exit predicate on the row's head vertex.
        until: Option<(String, Predicate)>,
    },
    /// Restrict the frontier to the given vertices (the "go through these
    /// vertices" restriction of §III-C).
    RestrictVertices(HashSet<VertexId>),
    /// Restrict the frontier to vertices whose property satisfies a predicate
    /// (resolved against the snapshot at execution time).
    RestrictProperty {
        /// Property key.
        key: String,
        /// Predicate on the property value.
        predicate: Predicate,
    },
    /// Deduplicate rows by their current vertex.
    DedupByVertex,
    /// Keep at most this many rows.
    Limit(usize),
}

/// A planned traversal: the initial vertex frontier plus a sequence of
/// algebra-level operations.
#[derive(Debug, Clone, PartialEq)]
pub struct LogicalPlan {
    start: Vec<VertexId>,
    ops: Vec<PlanOp>,
}

impl LogicalPlan {
    /// The initial frontier (start vertices).
    pub fn start(&self) -> &[VertexId] {
        &self.start
    }

    /// The planned operations.
    pub fn ops(&self) -> &[PlanOp] {
        &self.ops
    }

    /// Number of expansion (join) steps at the top level of the plan.
    pub fn expansion_count(&self) -> usize {
        self.ops
            .iter()
            .filter(|op| {
                matches!(
                    op,
                    PlanOp::Expand { .. }
                        | PlanOp::ExpandAutomaton { .. }
                        | PlanOp::ExpandWeighted { .. }
                        | PlanOp::Repeat { .. }
                )
            })
            .count()
    }

    /// A compact human-readable description of the plan (used by
    /// `Traversal::explain` and the experiment harness).
    pub fn describe(&self) -> String {
        let mut parts = vec![format!("start({} vertices)", self.start.len())];
        for op in &self.ops {
            parts.push(describe_op(op));
        }
        parts.join(" → ")
    }
}

fn describe_restrictions(
    from: &Option<HashSet<VertexId>>,
    to: &Option<HashSet<VertexId>>,
) -> String {
    let mut s = String::new();
    if let Some(f) = from {
        let _ = write!(s, ", tail⊆{}", f.len());
    }
    if let Some(t) = to {
        let _ = write!(s, ", head⊆{}", t.len());
    }
    s
}

fn describe_op(op: &PlanOp) -> String {
    match op {
        PlanOp::Expand {
            direction,
            labels,
            from,
            to,
        } => {
            let dir = match direction {
                Direction::Out => "out",
                Direction::In => "in",
                Direction::Both => "both",
            };
            let labels = match labels {
                Some(ls) => format!("{} labels", ls.len()),
                None => "E".to_owned(),
            };
            format!("join[{dir}, {labels}{}]", describe_restrictions(from, to))
        }
        PlanOp::ExpandAutomaton {
            spec,
            from,
            to,
            limit,
        } => {
            let dir = match spec.direction {
                Direction::Out => "",
                Direction::In => ", in",
                Direction::Both => ", both",
            };
            let hops = if spec.max_hops == UNBOUNDED_MATCH_HOPS {
                "≤∞ hops".to_owned()
            } else {
                format!("≤{} hops", spec.max_hops)
            };
            let sem = match spec.semantics {
                Semantics::Walks => "",
                Semantics::Reachable => ", reachable",
                Semantics::GlobalReachable => ", global-reachable",
            };
            let lim = match limit {
                Some(n) => format!(", emit≤{n}"),
                None => String::new(),
            };
            format!(
                "automaton[{}, {hops}, {} states{dir}{sem}{lim}{}]",
                spec.pattern,
                spec.state_count(),
                describe_restrictions(from, to)
            )
        }
        PlanOp::ExpandWeighted {
            spec,
            semiring,
            weight,
            from,
            to,
            k,
        } => {
            let dir = match spec.direction {
                Direction::Out => "",
                Direction::In => ", in",
                Direction::Both => ", both",
            };
            let hops = if spec.max_hops == UNBOUNDED_MATCH_HOPS {
                String::new()
            } else {
                format!(", ≤{} hops", spec.max_hops)
            };
            let sr = match semiring {
                SemiringKind::Shortest => "shortest",
                SemiringKind::Widest => "widest",
            };
            let src = match weight {
                WeightSource::Unit => "hops".to_owned(),
                WeightSource::Property(key) => format!("edge.{key}"),
                WeightSource::Labels(t) => format!("{} labels", t.len()),
            };
            let cap = match k {
                Some(n) => format!(", top≤{n}"),
                None => String::new(),
            };
            format!(
                "weighted[{}, {sr} by {src}{hops}, {} states{dir}{cap}{}]",
                spec.pattern,
                spec.state_count(),
                describe_restrictions(from, to)
            )
        }
        PlanOp::Repeat {
            body,
            min,
            max,
            until,
        } => {
            let inner: Vec<String> = body.iter().map(describe_op).collect();
            let until = match until {
                Some((key, _)) => format!(", until({key})"),
                None => String::new(),
            };
            format!("repeat[{min}..={max}{until}]{{{}}}", inner.join(" → "))
        }
        PlanOp::RestrictVertices(vs) => format!("restrict({} vertices)", vs.len()),
        PlanOp::RestrictProperty { key, .. } => format!("has({key})"),
        PlanOp::DedupByVertex => "dedup".to_owned(),
        PlanOp::Limit(n) => format!("limit({n})"),
    }
}

/// Plans a pipeline against a snapshot without rewriting: resolves names,
/// computes the start frontier, and lowers each step 1:1 to a [`PlanOp`].
pub fn plan(
    snapshot: &GraphSnapshot,
    start: &StartSpec,
    steps: &[Step],
) -> Result<LogicalPlan, EngineError> {
    let start_vertices: Vec<VertexId> = match start {
        StartSpec::AllVertices => snapshot.graph().vertices().collect(),
        StartSpec::Named(names) => {
            let mut vs = Vec::with_capacity(names.len());
            for name in names {
                vs.push(snapshot.vertex(name)?);
            }
            vs
        }
        StartSpec::Where(key, pred) => snapshot.vertices_where(key, pred),
    };

    Ok(LogicalPlan {
        start: start_vertices,
        ops: lower_steps(snapshot, steps)?,
    })
}

fn lower_steps(snapshot: &GraphSnapshot, steps: &[Step]) -> Result<Vec<PlanOp>, EngineError> {
    let mut ops = Vec::with_capacity(steps.len());
    for step in steps {
        match step {
            Step::Out(labels) => ops.push(expand(snapshot, Direction::Out, labels.as_deref())?),
            Step::In(labels) => ops.push(expand(snapshot, Direction::In, labels.as_deref())?),
            Step::Both(labels) => ops.push(expand(snapshot, Direction::Both, labels.as_deref())?),
            Step::Match {
                pattern,
                max_hops,
                direction,
                semantics,
            } => {
                if *direction == Direction::Both {
                    return Err(EngineError::Unsupported(
                        "match_ patterns traverse Out or In; Both-direction automata are not \
                         supported"
                            .to_owned(),
                    ));
                }
                if *max_hops == UNBOUNDED_MATCH_HOPS && *semantics == Semantics::Walks {
                    return Err(EngineError::Unsupported(
                        "an unbounded hop count requires reachability semantics (the walk set of \
                         a cyclic graph is infinite); use match_within, match_reachable, or \
                         match_reachable_global"
                            .to_owned(),
                    ));
                }
                ops.push(PlanOp::ExpandAutomaton {
                    spec: compile_pattern(snapshot, pattern, *max_hops, *direction, *semantics)?,
                    from: None,
                    to: None,
                    limit: None,
                });
            }
            Step::Weighted {
                pattern,
                max_hops,
                direction,
                semiring,
                weight,
            } => {
                if *direction == Direction::Both {
                    return Err(EngineError::Unsupported(
                        "weighted patterns traverse Out or In; Both-direction automata are not \
                         supported"
                            .to_owned(),
                    ));
                }
                // best-first settling terminates without a hop bound (each
                // settled product pair expands once), so unbounded is the
                // default here — no Walks-style restriction
                let weight = match weight {
                    WeightSpec::Unit => WeightSource::Unit,
                    WeightSpec::Property(key) => WeightSource::Property(key.clone()),
                    WeightSpec::Labels(pairs) => {
                        let mut table = FxHashMap::default();
                        for (name, w) in pairs {
                            table.insert(snapshot.label(name)?, *w);
                        }
                        WeightSource::Labels(table)
                    }
                };
                ops.push(PlanOp::ExpandWeighted {
                    spec: compile_pattern(
                        snapshot,
                        pattern,
                        *max_hops,
                        *direction,
                        Semantics::Walks,
                    )?,
                    semiring: *semiring,
                    weight,
                    from: None,
                    to: None,
                    k: None,
                });
            }
            Step::WeightBy(_) => {
                return Err(EngineError::Unsupported(
                    "weight_by must immediately follow a weighted step (cheapest_/widest_)"
                        .to_owned(),
                ))
            }
            Step::Repeat {
                body,
                min,
                max,
                until,
            } => {
                if body.is_empty() {
                    return Err(EngineError::Unsupported(
                        "repeat requires a non-empty body".to_owned(),
                    ));
                }
                if min > max {
                    return Err(EngineError::Unsupported(format!(
                        "repeat requires min <= max, got {min}..={max}"
                    )));
                }
                let body_ops = lower_steps(snapshot, body)?;
                if body_ops.iter().any(contains_stateful) {
                    return Err(EngineError::Unsupported(
                        "dedup/limit inside a repeat body are not supported (the body must be \
                         stateless per row)"
                            .to_owned(),
                    ));
                }
                ops.push(PlanOp::Repeat {
                    body: body_ops,
                    min: *min,
                    max: *max,
                    until: until.clone(),
                });
            }
            Step::Has(key, pred) => ops.push(PlanOp::RestrictProperty {
                key: key.clone(),
                predicate: pred.clone(),
            }),
            Step::Is(names) => {
                let mut vs = HashSet::with_capacity(names.len());
                for name in names {
                    vs.insert(snapshot.vertex(name)?);
                }
                ops.push(PlanOp::RestrictVertices(vs));
            }
            Step::DedupByVertex => ops.push(PlanOp::DedupByVertex),
            Step::Limit(n) => ops.push(PlanOp::Limit(*n)),
        }
    }
    Ok(ops)
}

fn contains_stateful(op: &PlanOp) -> bool {
    match op {
        PlanOp::DedupByVertex | PlanOp::Limit(_) => true,
        // the shared seen-set makes the op stateful across rows
        PlanOp::ExpandAutomaton { spec, .. } => spec.semantics() == Semantics::GlobalReachable,
        PlanOp::Repeat { body, .. } => body.iter().any(contains_stateful),
        _ => false,
    }
}

fn expand(
    snapshot: &GraphSnapshot,
    direction: Direction,
    labels: Option<&[String]>,
) -> Result<PlanOp, EngineError> {
    Ok(PlanOp::Expand {
        direction,
        labels: resolve_labels(snapshot, labels)?,
        from: None,
        to: None,
    })
}

fn resolve_labels(
    snapshot: &GraphSnapshot,
    labels: Option<&[String]>,
) -> Result<Option<Vec<LabelId>>, EngineError> {
    match labels {
        None => Ok(None),
        Some(names) => {
            // deduplicate while preserving order: a label set, so listing a
            // label twice must not double the expansion's rows
            let mut ids = Vec::with_capacity(names.len());
            for name in names {
                let id = snapshot.label(name)?;
                if !ids.contains(&id) {
                    ids.push(id);
                }
            }
            Ok(Some(ids))
        }
    }
}

/// Compiles a `match_` pattern: parse the label regex, resolve label names
/// against the snapshot, run it through the NFA → symbolic DFA → minimisation
/// pipeline of `mrpa-regex`, and collapse the result to a per-`(state, label)`
/// transition table.
fn compile_pattern(
    snapshot: &GraphSnapshot,
    pattern: &str,
    max_hops: usize,
    direction: Direction,
    semantics: Semantics,
) -> Result<AutomatonSpec, EngineError> {
    let expr = parse_label_expr(pattern)?;
    if expr.atom_count() > MAX_AUTOMATON_ATOMS {
        return Err(EngineError::InvalidPattern(format!(
            "pattern {pattern:?} desugars to {} atoms, more than the {MAX_AUTOMATON_ATOMS} the \
             symbolic DFA supports",
            expr.atom_count()
        )));
    }
    let label_regex = expr.resolve(&mut |name| snapshot.label(name))?;
    // a pattern whose shortest word is longer than the depth bound could only
    // ever return an empty result — reject it instead of silently matching
    // nothing (`min_word_len` is `None` for the empty language, which is
    // legitimately empty at every bound)
    if let Some(min) = label_regex.min_word_len() {
        if min > max_hops {
            return Err(EngineError::InvalidPattern(format!(
                "pattern {pattern:?} needs at least {min} edges but evaluation is bounded to \
                 {max_hops} hops; raise the bound with match_within"
            )));
        }
    }
    Ok(compile_label_regex(
        snapshot,
        &label_regex,
        pattern.to_owned(),
        direction,
        max_hops,
        semantics,
    ))
}

/// Compiles an already-resolved [`LabelRegex`] into an [`AutomatonSpec`].
/// Infallible: the caller guarantees the atom budget.
fn compile_label_regex(
    snapshot: &GraphSnapshot,
    regex: &LabelRegex,
    pattern: String,
    direction: Direction,
    max_hops: usize,
    semantics: Semantics,
) -> AutomatonSpec {
    debug_assert!(direction != Direction::Both);
    let graph = snapshot.graph();
    let nfa = Nfa::compile(&regex.to_path_regex());
    let dfa = minimize(&Dfa::compile(&nfa, graph));
    let accept: Vec<bool> = (0..dfa.state_count)
        .map(|s| dfa.is_accept_state(s))
        .collect();
    let mut raw = dfa.label_transition_table(graph);
    let dist_to_accept = dfa.min_edges_to_accept_from_table(&raw);
    // dead-state pruning: a move into a state that cannot reach acceptance
    // (e.g. the minimized DFA's merged dead block, or a suffix requiring a
    // label with no edges) can only feed frontier entries that never emit —
    // dropping it preserves the emission sequence exactly
    for row in &mut raw {
        row.retain(|&(_, target)| dist_to_accept[target].is_some());
    }
    // second pass: enrich the surviving moves with the per-target facts the
    // walkers need, so acceptance/liveness/distance checks happen once per
    // compile instead of once per produced row
    let live: Vec<bool> = raw.iter().map(|row| !row.is_empty()).collect();
    let by_label: Vec<Vec<AutoMove>> = raw
        .into_iter()
        .map(|row| {
            row.into_iter()
                .map(|(label, target)| AutoMove {
                    label,
                    target,
                    accepts: accept[target],
                    target_live: live[target],
                    min_edges_to_accept: dist_to_accept[target]
                        .expect("pruned table only keeps accept-reachable targets"),
                })
                .collect()
        })
        .collect();
    AutomatonSpec {
        pattern,
        direction,
        max_hops,
        semantics,
        start: dfa.start,
        accept,
        by_label,
        dist_to_accept,
    }
}

// ---------------------------------------------------------------------------
// The rewriting optimizer
// ---------------------------------------------------------------------------

/// Rewrites a plan with the rule set described in the module docs. The
/// rewritten plan produces the exact row sequence of the input plan under
/// every execution strategy.
pub fn optimize(snapshot: &GraphSnapshot, plan: &LogicalPlan) -> LogicalPlan {
    // R3's dataflow fact for the initial rows: heads are the start vertices,
    // which are distinct unless the same name was listed twice.
    let mut seen = HashSet::with_capacity(plan.start.len());
    let start_distinct = plan.start.iter().all(|v| seen.insert(*v));
    LogicalPlan {
        start: plan.start.clone(),
        ops: optimize_ops(snapshot, plan.ops.clone(), start_distinct),
    }
}

fn optimize_ops(
    snapshot: &GraphSnapshot,
    mut ops: Vec<PlanOp>,
    start_distinct: bool,
) -> Vec<PlanOp> {
    // optimize repeat bodies first (their incoming rows are arbitrary, so the
    // distinctness fact never holds on entry)
    for op in &mut ops {
        if let PlanOp::Repeat { body, .. } = op {
            *body = optimize_ops(snapshot, std::mem::take(body), false);
        }
    }
    // apply the rule passes to a fixpoint (each pass only ever shrinks or
    // annotates the op list, so this converges quickly; the bound is a guard)
    for _ in 0..8 {
        let mut changed = false;
        ops = fuse_restrictions(snapshot, ops, &mut changed);
        ops = fuse_limits(ops, &mut changed);
        ops = remove_redundant_dedups(ops, start_distinct, &mut changed);
        ops = merge_expand_runs(snapshot, ops, &mut changed);
        ops = push_restrictions_into_expands(ops, &mut changed);
        push_limits_into_automata(&mut ops, &mut changed);
        upgrade_automata_to_reachability(&mut ops, &mut changed);
        if !changed {
            break;
        }
    }
    ops
}

/// R1: fuse adjacent vertex/property restrictions.
fn fuse_restrictions(
    snapshot: &GraphSnapshot,
    ops: Vec<PlanOp>,
    changed: &mut bool,
) -> Vec<PlanOp> {
    let mut out: Vec<PlanOp> = Vec::with_capacity(ops.len());
    for op in ops {
        let fused = match (out.last(), &op) {
            (Some(PlanOp::RestrictVertices(a)), PlanOp::RestrictVertices(b)) => Some(
                PlanOp::RestrictVertices(a.intersection(b).copied().collect()),
            ),
            (Some(PlanOp::RestrictVertices(a)), PlanOp::RestrictProperty { key, predicate }) => {
                Some(PlanOp::RestrictVertices(
                    a.iter()
                        .copied()
                        .filter(|&v| predicate.eval(snapshot.vertex_property(v, key)))
                        .collect(),
                ))
            }
            (Some(PlanOp::RestrictProperty { key, predicate }), PlanOp::RestrictVertices(b)) => {
                Some(PlanOp::RestrictVertices(
                    b.iter()
                        .copied()
                        .filter(|&v| predicate.eval(snapshot.vertex_property(v, key)))
                        .collect(),
                ))
            }
            _ => None,
        };
        match fused {
            Some(newop) => {
                out.pop();
                out.push(newop);
                *changed = true;
            }
            None => out.push(op),
        }
    }
    out
}

/// R2: fuse adjacent limits; drop everything after a `Limit(0)`.
fn fuse_limits(ops: Vec<PlanOp>, changed: &mut bool) -> Vec<PlanOp> {
    let mut out: Vec<PlanOp> = Vec::with_capacity(ops.len());
    for op in ops {
        if matches!(out.last(), Some(PlanOp::Limit(0))) {
            *changed = true;
            continue; // dead tail
        }
        if let (Some(PlanOp::Limit(m)), PlanOp::Limit(n)) = (out.last(), &op) {
            let fused = (*m).min(*n);
            out.pop();
            out.push(PlanOp::Limit(fused));
            *changed = true;
            continue;
        }
        out.push(op);
    }
    out
}

/// R3: remove `DedupByVertex` ops whose input rows are provably
/// distinct-by-head.
fn remove_redundant_dedups(
    ops: Vec<PlanOp>,
    start_distinct: bool,
    changed: &mut bool,
) -> Vec<PlanOp> {
    let mut distinct = start_distinct;
    let mut out = Vec::with_capacity(ops.len());
    for op in ops {
        match &op {
            PlanOp::DedupByVertex => {
                if distinct {
                    *changed = true;
                    continue; // identity
                }
                distinct = true;
            }
            PlanOp::RestrictVertices(_) | PlanOp::RestrictProperty { .. } | PlanOp::Limit(_) => {}
            PlanOp::Expand { .. }
            | PlanOp::ExpandAutomaton { .. }
            | PlanOp::ExpandWeighted { .. }
            | PlanOp::Repeat { .. } => {
                distinct = false;
            }
        }
        out.push(op);
    }
    out
}

/// R5: merge runs of ≥ 2 consecutive unrestricted same-direction
/// *single-label* expansions into one product-automaton step.
///
/// Only single-label steps are mergeable because only they preserve the row
/// sequence: a single-label `Expand` and the chain automaton both emit the
/// CSR segment of `(head, ℓ)` in the same order. A multi-label `Expand`
/// emits edges in the step's label-list order, while the automaton's
/// per-state moves are in *graph label order* — merging those would reorder
/// rows and change what a downstream `Limit` keeps. A wildcard `Expand` has
/// no label to concatenate.
fn merge_expand_runs(
    snapshot: &GraphSnapshot,
    ops: Vec<PlanOp>,
    changed: &mut bool,
) -> Vec<PlanOp> {
    let mergeable = |op: &PlanOp, dir: Direction| {
        matches!(
            op,
            PlanOp::Expand { direction, labels: Some(ls), from: None, to: None }
                if *direction == dir && ls.len() == 1
        )
    };
    let mut out = Vec::with_capacity(ops.len());
    let mut i = 0;
    while i < ops.len() {
        let run_dir = match &ops[i] {
            PlanOp::Expand {
                direction: direction @ (Direction::Out | Direction::In),
                ..
            } => *direction,
            _ => {
                out.push(ops[i].clone());
                i += 1;
                continue;
            }
        };
        if !mergeable(&ops[i], run_dir) {
            out.push(ops[i].clone());
            i += 1;
            continue;
        }
        let mut j = i;
        while j < ops.len() && mergeable(&ops[j], run_dir) {
            j += 1;
        }
        let run = &ops[i..j];
        if run.len() < 2 || run.len() > MAX_AUTOMATON_ATOMS {
            out.extend_from_slice(run);
        } else {
            out.push(merge_run(snapshot, run, run_dir));
            *changed = true;
        }
        i = j;
    }
    out
}

fn merge_run(snapshot: &GraphSnapshot, run: &[PlanOp], direction: Direction) -> PlanOp {
    let mut regex: Option<LabelRegex> = None;
    let mut pattern = String::new();
    for (idx, op) in run.iter().enumerate() {
        let PlanOp::Expand {
            labels: Some(ls), ..
        } = op
        else {
            unreachable!("merge_run only receives labeled Expand ops");
        };
        let [label] = ls[..] else {
            unreachable!("merge_run only receives single-label Expand ops");
        };
        if idx > 0 {
            pattern.push('·');
        }
        pattern.push_str(&render_label(snapshot, label));
        let atom = LabelRegex::Label(label);
        regex = Some(match regex {
            None => atom,
            Some(prev) => prev.concat(atom),
        });
    }
    let regex = regex.expect("run is non-empty");
    PlanOp::ExpandAutomaton {
        spec: compile_label_regex(
            snapshot,
            &regex,
            pattern,
            direction,
            run.len(),
            Semantics::Walks,
        ),
        from: None,
        to: None,
        limit: None,
    }
}

fn render_label(snapshot: &GraphSnapshot, label: LabelId) -> String {
    snapshot
        .interner()
        .label_name(label)
        .map(str::to_owned)
        .unwrap_or_else(|| label.to_string())
}

/// R6: push `RestrictVertices` into the neighbouring expansion's edge-set
/// restriction.
fn push_restrictions_into_expands(ops: Vec<PlanOp>, changed: &mut bool) -> Vec<PlanOp> {
    let mut out: Vec<PlanOp> = Vec::with_capacity(ops.len());
    for mut op in ops {
        // restriction *after* an expansion → head-side (`to`) restriction
        if let PlanOp::RestrictVertices(vs) = &op {
            if let Some(
                PlanOp::Expand { to, .. }
                | PlanOp::ExpandAutomaton { to, .. }
                | PlanOp::ExpandWeighted { to, .. },
            ) = out.last_mut()
            {
                intersect_into(to, vs);
                *changed = true;
                continue;
            }
        }
        // restriction *before* an expansion → tail-side (`from`) restriction
        if let PlanOp::Expand { from, .. }
        | PlanOp::ExpandAutomaton { from, .. }
        | PlanOp::ExpandWeighted { from, .. } = &mut op
        {
            if let Some(PlanOp::RestrictVertices(vs)) = out.last() {
                let vs = vs.clone();
                intersect_into(from, &vs);
                out.pop();
                *changed = true;
            }
        }
        out.push(op);
    }
    out
}

fn intersect_into(slot: &mut Option<HashSet<VertexId>>, vs: &HashSet<VertexId>) {
    match slot {
        Some(existing) => existing.retain(|v| vs.contains(v)),
        None => *slot = Some(vs.clone()),
    }
}

/// R7: push a `Limit(n)` that immediately follows an `ExpandAutomaton` into
/// the automaton's emission cap.
///
/// Soundness: `Limit(n)` keeps the first `n` rows of the automaton's emission
/// sequence; an automaton that stops walking (and skips its remaining input
/// rows) after emitting `n` rows produces *exactly* that prefix, in the same
/// order. The `Limit` op itself is kept — the annotation only lets every
/// executor stop the product-automaton walk the moment the limit is covered
/// instead of enumerating the full (possibly astronomically large) walk set
/// and truncating afterwards. Emissions are counted after the automaton's
/// `to`-restriction, i.e. exactly the rows the `Limit` sees.
fn push_limits_into_automata(ops: &mut [PlanOp], changed: &mut bool) {
    for i in 1..ops.len() {
        let PlanOp::Limit(n) = ops[i] else { continue };
        // R7 for breadth-first automata, R9 for best-first weighted ones —
        // the cap semantics (truncate the emission sequence, then skip the
        // remaining input rows) is identical
        if let PlanOp::ExpandAutomaton { limit, .. } | PlanOp::ExpandWeighted { k: limit, .. } =
            &mut ops[i - 1]
        {
            let fused = limit.map_or(n, |l| l.min(n));
            if *limit != Some(fused) {
                *limit = Some(fused);
                *changed = true;
            }
        }
    }
}

/// Whether the first op of `rest` that is not a head filter
/// (`RestrictVertices`, `RestrictProperty`) is a `DedupByVertex`: then only
/// the first row per head of whatever precedes `rest` is observable.
pub(crate) fn dedup_follows(rest: &[PlanOp]) -> bool {
    rest.iter()
        .find(|op| {
            !matches!(
                op,
                PlanOp::RestrictVertices(_) | PlanOp::RestrictProperty { .. }
            )
        })
        .is_some_and(|op| matches!(op, PlanOp::DedupByVertex))
}

/// R8: evaluate an automaton under reachability semantics when only
/// reachability is observable downstream.
///
/// A `DedupByVertex` that follows an `ExpandAutomaton` — possibly with
/// head-based filters (`RestrictVertices`, `RestrictProperty`) in between, but
/// no `Limit` or expansion ([`dedup_follows`]) — keeps only the *first*
/// emission per head. An already-annotated emission `limit` blocks the
/// rewrite: the limit counts walks, and truncating the deduplicated sequence
/// at `n` keeps different rows than truncating the full one. Repeat bodies
/// never hold a dedup, so the rule never fires inside one.
///
/// **Per-row reachability.** [`Semantics::Reachable`] drops, per input row,
/// every frontier entry whose `(vertex, dfa-state)` pair was already seen.
/// Such an entry is a duplicate of an earlier entry with the same pair, whose
/// canonical copy produces the same descendants *earlier* in the emission
/// order (same vertex + same state ⇒ same moves over the same adjacency
/// slices). By induction over BFS layers, the reachable emission sequence is
/// exactly the subsequence of the walk emission sequence keeping the first
/// emission per `(head, state)` — same rows, same paths, same relative order.
/// The first emission per *head* is therefore the same row in both modes, the
/// intervening filters decide on heads alone, and the dedup output is
/// row-for-row identical — while the walk itself shrinks from the walk set
/// (exponential on dense cyclic graphs) to at most `|V| · |states|` frontier
/// entries per input row.
///
/// **One multi-source search.** When the hop bound cannot bind — it is
/// [`UNBOUNDED_MATCH_HOPS`], or the DFA is acyclic and `max_hops + 1 ≥
/// state_count()`, so no word is longer than the bound — a `Walks` or
/// per-row `Reachable` automaton becomes [`Semantics::GlobalReachable`]
/// without a bound: one seen-set for the whole op. Proof that the dedup
/// output is unchanged: without a binding bound every seen pair is expanded
/// in full, so after the rows before `r` the shared seen-set is closed under
/// moves, and everything a seen pair leads to was already seen — and, if
/// accepting, emitted — by an earlier row. Let `r` be the first row whose
/// walks reach head `h`. If some `(u, s)` on `r`'s first walk to `h` had
/// been seen by an earlier row `q`, then `q` would also reach `h`, because
/// the bound does not bind — contradicting the choice of `r`. So that walk
/// is intact in `r`'s search, whose frontier is its per-row frontier minus
/// the already-seen pairs (by closure, with all their descendants); every
/// pair keeps its parent, and the argument above places `h`'s first
/// emission on that walk, in the same order. A head the shared set drops
/// was emitted by an earlier row, so the dedup drops it either way. The
/// output is the same row-for-row: the same sources, paths, weights and
/// order. A chain-shaped `ℓ₁·ℓ₂·ℓ₃` under a dedup thus expands each
/// `(vertex, state)` pair once instead of once per walk.
///
/// **Unchanged.** A cyclic automaton with a finite bound keeps per-row
/// `Reachable`: sharing its seen-set would be unsound, because a later row
/// can reach a `(vertex, state)` pair at a shallower depth and has more
/// budget left than the row that saw it first. An acyclic automaton whose
/// bound can bind stays under `Walks`: its walk count is bounded by the
/// depth anyway.
fn upgrade_automata_to_reachability(ops: &mut [PlanOp], changed: &mut bool) {
    for i in 0..ops.len() {
        if !dedup_follows(&ops[i + 1..]) {
            continue;
        }
        let PlanOp::ExpandAutomaton {
            spec, limit: None, ..
        } = &mut ops[i]
        else {
            continue;
        };
        let cyclic = spec.has_cycle();
        let unbound = spec.max_hops == UNBOUNDED_MATCH_HOPS
            || (!cyclic && spec.max_hops.saturating_add(1) >= spec.state_count());
        let semantics = match spec.semantics {
            Semantics::Walks | Semantics::Reachable if unbound => Semantics::GlobalReachable,
            Semantics::Walks if cyclic => Semantics::Reachable,
            semantics => semantics,
        };
        if semantics != spec.semantics {
            if semantics == Semantics::GlobalReachable {
                spec.max_hops = UNBOUNDED_MATCH_HOPS;
            }
            spec.semantics = semantics;
            *changed = true;
        }
    }
}

// ---------------------------------------------------------------------------
// Cardinality estimation and the plan report
// ---------------------------------------------------------------------------

/// A per-op cardinality estimate (rows *after* the op has run).
#[derive(Debug, Clone, PartialEq)]
pub struct OpEstimate {
    /// Human-readable op description.
    pub op: String,
    /// Estimated row count after the op.
    pub rows: f64,
}

/// The structured output of `Traversal::explain`: the naive (pre-rewrite)
/// plan, the optimized (post-rewrite) plan, and per-op cardinality estimates
/// for the optimized plan derived from snapshot label frequencies.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanReport {
    before: LogicalPlan,
    after: LogicalPlan,
    estimates: Vec<OpEstimate>,
}

impl PlanReport {
    /// Estimates the optimized plan `after` on `snapshot` and bundles it
    /// with the naive plan `before` it was rewritten from.
    pub(crate) fn new(snapshot: &GraphSnapshot, before: LogicalPlan, after: LogicalPlan) -> Self {
        let estimates = estimate(snapshot, &after);
        PlanReport {
            before,
            after,
            estimates,
        }
    }

    /// The naive plan, as lowered 1:1 from the pipeline steps.
    pub fn before(&self) -> &LogicalPlan {
        &self.before
    }

    /// The plan after the rewriting optimizer ran.
    pub fn after(&self) -> &LogicalPlan {
        &self.after
    }

    /// Per-op estimates for the optimized plan: entry 0 is the start
    /// frontier, entry `i + 1` the rows after `after().ops()[i]`.
    pub fn estimates(&self) -> &[OpEstimate] {
        &self.estimates
    }

    /// Whether the optimizer changed the plan.
    pub fn rewritten(&self) -> bool {
        self.before != self.after
    }

    /// A multi-line rendering of the report.
    pub fn describe(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "before: {}", self.before.describe());
        let _ = writeln!(s, "after:  {}", self.after.describe());
        let _ = writeln!(s, "estimates:");
        for e in &self.estimates {
            let _ = writeln!(s, "  {:>12.2}  {}", e.rows, e.op);
        }
        s
    }
}

/// Plans, optimizes, and estimates a pipeline: the full report behind
/// `Traversal::explain`.
pub fn report(
    snapshot: &GraphSnapshot,
    start: &StartSpec,
    steps: &[Step],
) -> Result<PlanReport, EngineError> {
    let before = plan(snapshot, start, steps)?;
    let after = optimize(snapshot, &before);
    Ok(PlanReport::new(snapshot, before, after))
}

/// Estimates per-op row counts for a plan from snapshot label frequencies
/// (average label degree `|E_ℓ| / |V|`), vertex-set sizes, and — for `has` —
/// the predicate's actual selectivity over `V`. Expansion estimates assume
/// frontier heads are uniformly distributed over `V`; automaton and repeat
/// estimates additionally assume depth-independence. Heuristics, not bounds.
pub fn estimate(snapshot: &GraphSnapshot, plan: &LogicalPlan) -> Vec<OpEstimate> {
    let mut rows = plan.start.len() as f64;
    let mut out = vec![OpEstimate {
        op: format!("start({} vertices)", plan.start.len()),
        rows,
    }];
    for op in &plan.ops {
        rows = estimate_op(snapshot, rows, op);
        out.push(OpEstimate {
            op: describe_op(op),
            rows,
        });
    }
    out
}

fn vertex_count(snapshot: &GraphSnapshot) -> f64 {
    snapshot.graph().vertex_count().max(1) as f64
}

fn set_selectivity(snapshot: &GraphSnapshot, set: &Option<HashSet<VertexId>>) -> f64 {
    match set {
        None => 1.0,
        Some(vs) => (vs.len() as f64 / vertex_count(snapshot)).min(1.0),
    }
}

fn avg_degree(snapshot: &GraphSnapshot, direction: Direction, labels: Option<&[LabelId]>) -> f64 {
    let g = snapshot.graph();
    let total = match labels {
        None => g.edge_count(),
        Some(ls) => ls.iter().map(|&l| g.edges_with_label(l).len()).sum(),
    } as f64;
    let per_vertex = total / vertex_count(snapshot);
    match direction {
        Direction::Both => 2.0 * per_vertex,
        _ => per_vertex,
    }
}

fn estimate_op(snapshot: &GraphSnapshot, rows: f64, op: &PlanOp) -> f64 {
    let v = vertex_count(snapshot);
    match op {
        PlanOp::Expand {
            direction,
            labels,
            from,
            to,
        } => {
            rows * set_selectivity(snapshot, from)
                * avg_degree(snapshot, *direction, labels.as_deref())
                * set_selectivity(snapshot, to)
        }
        PlanOp::ExpandAutomaton {
            spec,
            from,
            to,
            limit,
        } => {
            // expected walks per DFA state, one layer per hop: each move
            // multiplies its state's walks by its label's average degree, so
            // a chain `ℓ₁·ℓ₂·ℓ₃` estimates exactly as its three joins do, and
            // an acyclic DFA's walks run out after its longest word
            let mut frontier = vec![0.0; spec.state_count()];
            frontier[spec.start] = rows * set_selectivity(snapshot, from);
            let mut emitted = if spec.is_accept(spec.start) {
                frontier[spec.start]
            } else {
                0.0
            };
            // the estimation loop is depth-capped independently of max_hops:
            // an unbounded reachable automaton terminates on frontier
            // saturation, which the depth-independence heuristic cannot model
            for _ in 1..=spec.max_hops.min(64) {
                let mut next = vec![0.0; spec.state_count()];
                for (state, &walks) in frontier.iter().enumerate() {
                    for m in spec.moves(state) {
                        let moved = walks * avg_degree(snapshot, spec.direction, Some(&[m.label]));
                        next[m.target] += moved;
                        if m.accepts {
                            emitted += moved;
                        }
                    }
                }
                frontier = next;
                if frontier.iter().sum::<f64>() < 1e-9 {
                    break;
                }
            }
            // only accepting states emit, each (vertex, accepting state) at
            // most once per row, or once for the whole op when global
            let accepting = (0..spec.state_count())
                .filter(|&s| spec.is_accept(s))
                .count() as f64;
            if spec.semantics != Semantics::Walks {
                emitted = emitted.min(v * accepting * rows);
            }
            if spec.semantics == Semantics::GlobalReachable {
                emitted = emitted.min(v * accepting);
            }
            let emitted = emitted * set_selectivity(snapshot, to);
            match limit {
                Some(n) => emitted.min(*n as f64),
                None => emitted,
            }
        }
        PlanOp::ExpandWeighted { from, to, k, .. } => {
            // at most one emission per (input row, head vertex)
            let emitted = rows * set_selectivity(snapshot, from) * vertex_count(snapshot);
            let emitted = emitted * set_selectivity(snapshot, to);
            match k {
                Some(n) => emitted.min(*n as f64),
                None => emitted,
            }
        }
        PlanOp::Repeat { body, min, max, .. } => {
            let mut frontier = rows;
            let mut emitted = if *min == 0 { rows } else { 0.0 };
            for k in 1..=*max {
                for body_op in body {
                    frontier = estimate_op(snapshot, frontier, body_op);
                }
                if k >= *min {
                    emitted += frontier;
                }
                if frontier < 1e-9 {
                    break;
                }
            }
            emitted
        }
        PlanOp::RestrictVertices(vs) => rows * (vs.len() as f64 / v).min(1.0),
        PlanOp::RestrictProperty { key, predicate } => {
            let matching = snapshot.vertices_where(key, predicate).len() as f64;
            rows * (matching / v).min(1.0)
        }
        PlanOp::DedupByVertex => rows.min(v),
        PlanOp::Limit(n) => rows.min(*n as f64),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::classic_social_graph;
    use crate::value::{Predicate, Value};

    fn out_step(labels: &[&str]) -> Step {
        Step::Out(Some(labels.iter().map(|s| s.to_string()).collect()))
    }

    #[test]
    fn plan_resolves_names_and_lowers_steps() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let plan = plan(
            &snap,
            &StartSpec::Named(vec!["marko".into()]),
            &[
                out_step(&["knows"]),
                Step::Has("age".into(), Predicate::Gt(30.0)),
                out_step(&["created"]),
                Step::DedupByVertex,
                Step::Limit(5),
            ],
        )
        .unwrap();
        assert_eq!(plan.start().len(), 1);
        assert_eq!(plan.ops().len(), 5);
        assert_eq!(plan.expansion_count(), 2);
        let desc = plan.describe();
        assert!(desc.contains("join[out"));
        assert!(desc.contains("has(age)"));
        assert!(desc.contains("limit(5)"));
    }

    #[test]
    fn all_vertices_start_covers_v() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let plan = plan(&snap, &StartSpec::AllVertices, &[]).unwrap();
        assert_eq!(plan.start().len(), 6);
        assert_eq!(plan.expansion_count(), 0);
    }

    #[test]
    fn where_start_uses_property_index() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let plan = plan(
            &snap,
            &StartSpec::Where("lang".into(), Predicate::Eq(Value::from("java"))),
            &[],
        )
        .unwrap();
        assert_eq!(plan.start().len(), 2);
    }

    #[test]
    fn unknown_names_error_at_plan_time() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        assert!(matches!(
            plan(&snap, &StartSpec::Named(vec!["ghost".into()]), &[]),
            Err(EngineError::UnknownVertex(_))
        ));
        assert!(matches!(
            plan(&snap, &StartSpec::AllVertices, &[out_step(&["likes"])]),
            Err(EngineError::UnknownLabel(_))
        ));
        assert!(matches!(
            plan(
                &snap,
                &StartSpec::AllVertices,
                &[Step::Is(vec!["ghost".into()])]
            ),
            Err(EngineError::UnknownVertex(_))
        ));
        assert!(matches!(
            plan(
                &snap,
                &StartSpec::AllVertices,
                &[Step::Match {
                    pattern: "likes".into(),
                    max_hops: 4,
                    direction: Direction::Out,
                    semantics: Semantics::Walks,
                }]
            ),
            Err(EngineError::UnknownLabel(_))
        ));
        assert!(matches!(
            plan(
                &snap,
                &StartSpec::AllVertices,
                &[Step::Match {
                    pattern: "knows |".into(),
                    max_hops: 4,
                    direction: Direction::Out,
                    semantics: Semantics::Walks,
                }]
            ),
            Err(EngineError::InvalidPattern(_))
        ));
        // a bound the pattern's shortest word cannot fit is rejected, not
        // silently empty
        assert!(matches!(
            plan(
                &snap,
                &StartSpec::AllVertices,
                &[Step::Match {
                    pattern: "knows{17}".into(),
                    max_hops: 16,
                    direction: Direction::Out,
                    semantics: Semantics::Walks,
                }]
            ),
            Err(EngineError::InvalidPattern(_))
        ));
        // ...while the empty language is legitimately empty at any bound
        assert!(plan(
            &snap,
            &StartSpec::AllVertices,
            &[Step::Match {
                pattern: "empty".into(),
                max_hops: 4,
                direction: Direction::Out,
                semantics: Semantics::Walks,
            }]
        )
        .is_ok());
    }

    #[test]
    fn duplicate_labels_are_deduplicated_at_plan_time() {
        // `.out(["knows", "knows"])` is a label *set*: listing a label twice
        // must not double the expansion's rows
        let g = classic_social_graph();
        let snap = g.snapshot();
        let plan = plan(
            &snap,
            &StartSpec::Named(vec!["marko".into()]),
            &[out_step(&["knows", "knows"])],
        )
        .unwrap();
        assert_eq!(
            plan.ops()[0],
            PlanOp::Expand {
                direction: Direction::Out,
                labels: Some(vec![snap.label("knows").unwrap()]),
                from: None,
                to: None,
            }
        );
    }

    #[test]
    fn in_and_both_steps_plan_with_their_directions() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let plan = plan(
            &snap,
            &StartSpec::Named(vec!["lop".into()]),
            &[Step::In(None), Step::Both(None)],
        )
        .unwrap();
        assert!(matches!(
            plan.ops()[0],
            PlanOp::Expand {
                direction: Direction::In,
                labels: None,
                ..
            }
        ));
        assert!(matches!(
            plan.ops()[1],
            PlanOp::Expand {
                direction: Direction::Both,
                labels: None,
                ..
            }
        ));
    }

    #[test]
    fn match_lowers_to_a_minimized_product_automaton() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let plan = plan(
            &snap,
            &StartSpec::Named(vec!["marko".into()]),
            &[Step::Match {
                pattern: "knows+·created".into(),
                max_hops: 8,
                direction: Direction::Out,
                semantics: Semantics::Walks,
            }],
        )
        .unwrap();
        let PlanOp::ExpandAutomaton { spec, .. } = &plan.ops()[0] else {
            panic!("expected an automaton op, got {:?}", plan.ops()[0]);
        };
        assert_eq!(spec.pattern(), "knows+·created");
        assert_eq!(spec.max_hops(), 8);
        assert!(spec.state_count() >= 3);
        assert!(!spec.is_accept(spec.start_state()));
        assert!(plan.describe().contains("automaton[knows+·created"));
    }

    #[test]
    fn repeat_bodies_reject_stateful_ops() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let bad = Step::Repeat {
            body: vec![out_step(&["knows"]), Step::Limit(3)],
            min: 1,
            max: 3,
            until: None,
        };
        assert!(matches!(
            plan(&snap, &StartSpec::AllVertices, &[bad]),
            Err(EngineError::Unsupported(_))
        ));
        let empty = Step::Repeat {
            body: vec![],
            min: 0,
            max: 3,
            until: None,
        };
        assert!(matches!(
            plan(&snap, &StartSpec::AllVertices, &[empty]),
            Err(EngineError::Unsupported(_))
        ));
    }

    // -- optimizer rules ----------------------------------------------------

    fn named_start(names: &[&str]) -> StartSpec {
        StartSpec::Named(names.iter().map(|s| s.to_string()).collect())
    }

    fn optimized(
        g: &crate::store::PropertyGraph,
        start: &StartSpec,
        steps: &[Step],
    ) -> LogicalPlan {
        let snap = g.snapshot();
        let naive = plan(&snap, start, steps).unwrap();
        optimize(&snap, &naive)
    }

    #[test]
    fn r1_adjacent_restrictions_fuse() {
        let g = classic_social_graph();
        let plan = optimized(
            &g,
            &StartSpec::AllVertices,
            &[
                Step::Is(vec!["marko".into(), "josh".into(), "lop".into()]),
                Step::Is(vec!["josh".into(), "lop".into()]),
                Step::Has("kind".into(), Predicate::Eq(Value::from("person"))),
            ],
        );
        // three filters fuse into one concrete vertex set {josh}
        assert_eq!(plan.ops().len(), 1);
        let PlanOp::RestrictVertices(vs) = &plan.ops()[0] else {
            panic!("expected fused restriction, got {:?}", plan.ops()[0]);
        };
        let snap = g.snapshot();
        assert_eq!(vs.len(), 1);
        assert!(vs.contains(&snap.vertex("josh").unwrap()));
    }

    #[test]
    fn r2_limits_fuse_and_limit_zero_kills_the_tail() {
        let g = classic_social_graph();
        let plan = optimized(
            &g,
            &StartSpec::AllVertices,
            &[Step::Limit(7), Step::Limit(3), Step::Limit(5)],
        );
        assert_eq!(plan.ops(), &[PlanOp::Limit(3)]);
        let plan = optimized(
            &g,
            &StartSpec::AllVertices,
            &[Step::Limit(0), Step::Out(None), Step::DedupByVertex],
        );
        assert_eq!(plan.ops(), &[PlanOp::Limit(0)]);
    }

    #[test]
    fn r3_redundant_dedups_are_removed() {
        let g = classic_social_graph();
        // distinct start + filters: both dedups are identities
        let plan = optimized(
            &g,
            &StartSpec::AllVertices,
            &[
                Step::DedupByVertex,
                Step::Has("kind".into(), Predicate::Exists),
                Step::DedupByVertex,
            ],
        );
        assert!(plan
            .ops()
            .iter()
            .all(|op| !matches!(op, PlanOp::DedupByVertex)));
        // after an expansion the dedup must survive
        let plan = optimized(
            &g,
            &StartSpec::AllVertices,
            &[Step::Out(None), Step::DedupByVertex],
        );
        assert!(plan
            .ops()
            .iter()
            .any(|op| matches!(op, PlanOp::DedupByVertex)));
        // duplicate start names: the first dedup is NOT redundant
        let plan = optimized(
            &g,
            &named_start(&["marko", "marko"]),
            &[Step::DedupByVertex],
        );
        assert_eq!(plan.ops(), &[PlanOp::DedupByVertex]);
    }

    #[test]
    fn r4_optimizer_leaves_dedup_limit_order_alone() {
        let g = classic_social_graph();
        let plan = optimized(
            &g,
            &StartSpec::AllVertices,
            &[Step::Out(None), Step::DedupByVertex, Step::Limit(2)],
        );
        // dedup (not redundant here) must still precede limit
        let dedup_pos = plan
            .ops()
            .iter()
            .position(|op| matches!(op, PlanOp::DedupByVertex))
            .expect("dedup survives");
        let limit_pos = plan
            .ops()
            .iter()
            .position(|op| matches!(op, PlanOp::Limit(_)))
            .expect("limit survives");
        assert!(dedup_pos < limit_pos);
    }

    #[test]
    fn r5_expand_runs_merge_into_an_automaton() {
        let g = classic_social_graph();
        let plan = optimized(
            &g,
            &named_start(&["marko"]),
            &[out_step(&["knows"]), out_step(&["created"])],
        );
        assert_eq!(plan.ops().len(), 1);
        let PlanOp::ExpandAutomaton { spec, .. } = &plan.ops()[0] else {
            panic!("expected merged automaton, got {:?}", plan.ops()[0]);
        };
        assert_eq!(spec.pattern(), "knows·created");
        assert_eq!(spec.max_hops(), 2);
        assert_eq!(spec.direction(), Direction::Out);
        // a direction change breaks the run
        let plan = optimized(
            &g,
            &named_start(&["marko"]),
            &[out_step(&["knows"]), Step::In(Some(vec!["created".into()]))],
        );
        assert_eq!(plan.ops().len(), 2);
    }

    #[test]
    fn r5_multi_label_and_wildcard_runs_are_not_merged() {
        // Merging would reorder rows: the automaton emits edges grouped by
        // graph label order, a multi-label Expand in the step's label-list
        // order — under a downstream Limit those keep different rows.
        let g = classic_social_graph();
        let plan = optimized(
            &g,
            &named_start(&["marko"]),
            &[
                out_step(&["knows", "created"]),
                out_step(&["created", "knows"]),
            ],
        );
        assert_eq!(plan.ops().len(), 2);
        assert!(plan
            .ops()
            .iter()
            .all(|op| matches!(op, PlanOp::Expand { .. })));
        let plan = optimized(
            &g,
            &named_start(&["marko"]),
            &[Step::Out(None), Step::Out(None)],
        );
        assert_eq!(plan.ops().len(), 2);
        // mixed runs merge only the single-label suffix/prefix of length ≥ 2
        let plan = optimized(
            &g,
            &named_start(&["marko"]),
            &[
                Step::Out(None),
                out_step(&["knows"]),
                out_step(&["created"]),
            ],
        );
        assert_eq!(plan.ops().len(), 2);
        assert!(matches!(plan.ops()[0], PlanOp::Expand { .. }));
        assert!(matches!(plan.ops()[1], PlanOp::ExpandAutomaton { .. }));
    }

    #[test]
    fn r6_is_restrictions_push_into_expansions() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let josh = snap.vertex("josh").unwrap();
        // restriction after the expand → head-side restriction
        let plan = optimized(
            &g,
            &named_start(&["marko"]),
            &[out_step(&["knows"]), Step::Is(vec!["josh".into()])],
        );
        assert_eq!(plan.ops().len(), 1);
        let PlanOp::Expand { to: Some(to), .. } = &plan.ops()[0] else {
            panic!("expected pushed head restriction, got {:?}", plan.ops()[0]);
        };
        assert!(to.contains(&josh));
        // restriction between two expands → from-side of the second
        let plan = optimized(
            &g,
            &named_start(&["marko"]),
            &[
                out_step(&["knows"]),
                Step::Is(vec!["josh".into()]),
                Step::In(Some(vec!["knows".into()])),
            ],
        );
        // the Is lands as `to` of the first expand (scan order), leaving two ops
        assert_eq!(plan.ops().len(), 2);
        assert!(plan.describe().contains("head⊆1"));
    }

    #[test]
    fn weighted_steps_lower_to_expand_weighted() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let t = crate::Traversal::over(&g)
            .v(["marko"])
            .cheapest_("knows+·created")
            .weight_by_labels([("knows", 1.0), ("created", 2.5)]);
        let plan = plan(&snap, t.start_spec(), t.steps()).unwrap();
        let PlanOp::ExpandWeighted {
            spec,
            semiring,
            weight,
            k,
            ..
        } = &plan.ops()[0]
        else {
            panic!("expected a weighted op, got {:?}", plan.ops()[0]);
        };
        assert_eq!(spec.pattern(), "knows+·created");
        assert_eq!(spec.max_hops(), UNBOUNDED_MATCH_HOPS);
        assert_eq!(*semiring, SemiringKind::Shortest);
        assert_eq!(*k, None);
        let WeightSource::Labels(table) = weight else {
            panic!("expected a resolved label table, got {weight:?}");
        };
        assert_eq!(table.len(), 2);
        assert_eq!(table[&snap.label("created").unwrap()], 2.5);
        assert!(plan
            .describe()
            .contains("weighted[knows+·created, shortest"));
        assert_eq!(plan.expansion_count(), 1);
    }

    #[test]
    fn dangling_weight_by_is_rejected_at_plan_time() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let t = crate::Traversal::over(&g)
            .out(["knows"])
            .weight_by("weight");
        assert!(matches!(
            plan(&snap, t.start_spec(), t.steps()),
            Err(EngineError::Unsupported(_))
        ));
        // and a weight table with an unknown label name fails resolution
        let t = crate::Traversal::over(&g)
            .cheapest_("knows")
            .weight_by_labels([("likes", 1.0)]);
        assert!(matches!(
            plan(&snap, t.start_spec(), t.steps()),
            Err(EngineError::UnknownLabel(_))
        ));
    }

    #[test]
    fn r9_limit_pushes_into_the_weighted_top_k_cap() {
        let g = classic_social_graph();
        let t = crate::Traversal::over(&g)
            .v(["marko"])
            .cheapest_("knows+")
            .top_k(2);
        let snap = g.snapshot();
        let naive = plan(&snap, t.start_spec(), t.steps()).unwrap();
        let optimized = optimize(&snap, &naive);
        let PlanOp::ExpandWeighted { k, .. } = &optimized.ops()[0] else {
            panic!("expected a weighted op");
        };
        assert_eq!(*k, Some(2));
        // the Limit itself is kept (R9 annotates, like R7)
        assert!(matches!(optimized.ops()[1], PlanOp::Limit(2)));
        assert!(optimized.describe().contains("top≤2"));
    }

    #[test]
    fn r6_restrictions_push_into_weighted_expansions() {
        let g = classic_social_graph();
        let plan = optimized(
            &g,
            &named_start(&["marko", "josh"]),
            &[
                Step::Is(vec!["marko".into()]),
                Step::Weighted {
                    pattern: "knows·created".into(),
                    max_hops: UNBOUNDED_MATCH_HOPS,
                    direction: Direction::Out,
                    semiring: SemiringKind::Shortest,
                    weight: WeightSpec::Unit,
                },
                Step::Is(vec!["lop".into()]),
            ],
        );
        assert_eq!(plan.ops().len(), 1);
        let PlanOp::ExpandWeighted {
            from: Some(from),
            to: Some(to),
            ..
        } = &plan.ops()[0]
        else {
            panic!("expected pushed restrictions, got {:?}", plan.ops()[0]);
        };
        assert_eq!(from.len(), 1);
        assert_eq!(to.len(), 1);
    }

    #[test]
    fn global_reachability_is_stateful_in_repeat_bodies() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let t = crate::Traversal::over(&g).repeat(1..=2, |p| p.match_reachable_global("knows+"));
        assert!(matches!(
            plan(&snap, t.start_spec(), t.steps()),
            Err(EngineError::Unsupported(_))
        ));
    }

    #[test]
    fn compiled_automata_carry_accept_distances_and_prune_dead_moves() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let spec =
            compile_pattern(&snap, "knows·created", 8, Direction::Out, Semantics::Walks).unwrap();
        // the chain start is 2 edges from acceptance; accepting states are 0
        assert_eq!(spec.dist_to_accept(spec.start_state()), Some(2));
        for state in 0..spec.state_count() {
            assert_eq!(spec.is_accept(state), spec.dist_to_accept(state) == Some(0));
            // the dead-state pruning invariant: every surviving move leads
            // to a state that can still reach acceptance
            for m in spec.moves(state) {
                assert!(spec.dist_to_accept(m.target).is_some());
                // the enrichment invariant: the precomputed facts agree with
                // the per-state accessors they replace in the hot loops
                assert_eq!(m.accepts, spec.is_accept(m.target));
                assert_eq!(m.target_live, !spec.moves(m.target).is_empty());
                assert_eq!(spec.dist_to_accept(m.target), Some(m.min_edges_to_accept));
            }
        }
    }

    #[test]
    fn report_carries_pre_and_post_rewrite_plans_and_estimates() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let report = report(
            &snap,
            &named_start(&["marko"]),
            &[
                out_step(&["knows"]),
                out_step(&["created"]),
                Step::DedupByVertex,
            ],
        )
        .unwrap();
        assert!(report.rewritten());
        assert_eq!(report.before().ops().len(), 3);
        assert!(report.before().ops().len() > report.after().ops().len());
        assert_eq!(report.estimates().len(), report.after().ops().len() + 1);
        assert_eq!(report.estimates()[0].rows, 1.0);
        // every estimate is finite and non-negative
        assert!(report
            .estimates()
            .iter()
            .all(|e| e.rows.is_finite() && e.rows >= 0.0));
        let text = report.describe();
        assert!(text.contains("before:"));
        assert!(text.contains("after:"));
        assert!(text.contains("estimates:"));
    }

    #[test]
    fn estimates_scale_with_label_frequency() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let p = plan(&snap, &StartSpec::AllVertices, &[Step::Out(None)]).unwrap();
        let est = estimate(&snap, &p);
        // 6 start vertices × (6 edges / 6 vertices) = 6 expected rows
        assert!((est[1].rows - 6.0).abs() < 1e-9);
        let p = plan(&snap, &StartSpec::AllVertices, &[out_step(&["knows"])]).unwrap();
        let est = estimate(&snap, &p);
        // 6 × (2 knows-edges / 6) = 2
        assert!((est[1].rows - 2.0).abs() < 1e-9);
    }

    #[test]
    fn an_acyclic_automaton_estimates_as_its_join_chain() {
        // the default 16-hop bound must not add layers past the longest word
        let g = classic_social_graph();
        let snap = g.snapshot();
        let chain = plan(
            &snap,
            &StartSpec::AllVertices,
            &[
                out_step(&["knows"]),
                out_step(&["knows"]),
                out_step(&["created"]),
            ],
        )
        .unwrap();
        let automaton = plan(
            &snap,
            &StartSpec::AllVertices,
            &[Step::Match {
                pattern: "knows·knows·created".into(),
                max_hops: DEFAULT_MATCH_MAX_HOPS,
                direction: Direction::Out,
                semantics: Semantics::Walks,
            }],
        )
        .unwrap();
        let joins = estimate(&snap, &chain)[3].rows;
        let walks = estimate(&snap, &automaton)[1].rows;
        // 6 × (2/6) × (2/6) × (4/6)
        assert!((joins - 4.0 / 9.0).abs() < 1e-9, "{joins}");
        assert!((walks - joins).abs() < 1e-9, "{walks} vs {joins}");
    }
}
