//! Executors: evaluating a [`LogicalPlan`] against a [`GraphSnapshot`].
//!
//! Three strategies are provided, all computing the same result set. Rows
//! come out in one canonical order — row-major: each input row's expansions
//! are contiguous, depth-/iteration-ordered within a row — which is what
//! makes `Limit` deterministic across strategies:
//!
//! * [`ExecutionStrategy::Materialized`] — level-at-a-time evaluation that
//!   materialises the full row set after every operation; this is the direct
//!   analogue of evaluating the algebra's join chain on path sets and is the
//!   reference implementation. Under `limit(k)` it early-exits only through
//!   the optimizer's R7 annotation (the automaton emission cap).
//! * [`ExecutionStrategy::Streaming`] — the demand-driven cursor: every plan
//!   op compiles to a pull-based stage ([`crate::cursor`]) that hands out at
//!   most the rows it is asked for — one for `next_row`/`first()`, a chunk
//!   for a full drain — and keeps the rest of its work suspended. A
//!   saturated `Limit` stops pulling, so an in-flight `(vertex, dfa-state)`
//!   product-automaton frontier is dropped mid-layer without finishing the
//!   walk.
//! * [`ExecutionStrategy::Parallel`] — partitions the start frontier across
//!   threads; each partition evaluates the plan's stateless prefix
//!   (everything before the first `Dedup`/`Limit`) through its own cursor,
//!   pulled in growing batches by scoped threads, and the stateful suffix
//!   consumes the batches globally *in partition order* — so the output is
//!   row-for-row identical to the materialized strategy, and a suffix that
//!   finishes early stops all partition cursors with only their last
//!   speculative batch wasted.
//!
//! Expansion is **frontier-driven**: each row's next edges come straight from
//! `graph.out_edges(head)` / `out_edges_labeled(head, α)` adjacency (the
//! reversed graph for `In` steps; both graphs for `Both`), and the row's path
//! is a [`PathId`] into a per-execution [`PathArena`] — extending a row is one
//! hash-consed arena append instead of cloning the whole edge vector.
//! [`PlanOp::ExpandAutomaton`] runs the product construction: the frontier
//! carries `(row, dfa-state)` pairs, each hop walks the adjacency index for
//! the labels with transitions out of the current state, and rows landing in
//! accepting states are emitted at every depth up to the spec's bound
//! (deduplicated by `(vertex, state)` under [`Semantics::Reachable`]). Rows
//! are materialised into [`ResultRow`]s only once, at the cursor boundary.
//!
//! Every execution shares one [`ExecStats`] counter set (exposed through
//! [`QueryResult::stats`] and `RowCursor::stats`), so early-exit claims are
//! assertable: `expansions` counts adjacency entries visited, not wall time.
//!
//! Experiment E8 benchmarks the three against each other and against a
//! hand-written algebra evaluation; `exp_optimizer` benchmarks optimized
//! against naive plans; `exp_streaming` measures time-to-first-row and
//! `limit(1)` early-exit against full materialization.

use std::cell::Cell;
use std::collections::HashSet;

use mrpa_core::{Edge, LabelId, PathArena, PathId, VertexId};

use crate::cancel::Liveness;
use crate::csr::CsrTopology;
use crate::cursor::{AutoWalk, RepeatWalk, RowCursor, SeenSet, WeightedWalk};
use crate::error::EngineError;
use crate::plan::{Direction, LogicalPlan, PlanOp, Semantics};
use crate::query::{QueryResult, ResultRow};
use crate::store::GraphSnapshot;
use crate::trace::OpActuals;
use crate::value::Predicate;

/// Which executor evaluates the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionStrategy {
    /// Level-at-a-time path-set evaluation (reference implementation).
    Materialized,
    /// Demand-driven pull-cursor evaluation (row-at-a-time).
    Streaming,
    /// Start-partitioned multi-threaded evaluation over partition cursors.
    Parallel,
}

/// Counters describing how much work an execution (or a cursor so far) did.
///
/// `expansions` counts adjacency entries visited by expansion ops — every
/// edge considered by an `out`/`in_`/`both` step, a product-automaton hop, or
/// a repeat body. It is the measure early-exit guarantees are stated in:
/// `first()` after a dense `match_` performs a *bounded* number of
/// expansions, asserted by counter rather than wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExecStats {
    /// Adjacency entries visited by expansion operations.
    pub expansions: u64,
    /// Arena nodes appended while forwarding rows across the parallel
    /// strategy's partition → suffix boundary. The id-forwarding boundary
    /// appends each distinct partition-arena node at most once, so this is
    /// O(new nodes) for the whole execution — the materialise-and-re-intern
    /// boundary it replaced appended O(path length) nodes *per row*.
    pub interned_nodes: u64,
    /// Bytes charged against the traversal's
    /// [`memory_budget`](crate::Traversal::memory_budget): arena node growth
    /// plus buffered-row growth, accumulated monotonically at the same
    /// layer/pull/batch boundaries cancellation is checked at. Always `0`
    /// when no budget is set — accounting is skipped entirely so the
    /// unbudgeted hot path pays nothing.
    pub bytes_charged: u64,
}

/// Calibrated per-node cost of one hash-consed [`PathArena`] append:
/// the `PathNode` itself (~32 B), its intern-map entry (key + id + load-factor
/// overhead, ~40 B), and its share of transient frontier state (~16 B). Arena
/// nodes are never freed before the execution ends, so node growth is the
/// dominant, monotone component of a query's working set.
pub(crate) const ARENA_NODE_BYTES: u64 = 88;

/// Per-row cost of buffering an [`ArenaRow`] in a frontier, chunk, or
/// materialized level. Row buffers are transient; charging them cumulatively
/// keeps the counter monotone and upper-bounds the true peak.
pub(crate) const ROW_BYTES: u64 = std::mem::size_of::<ArenaRow>() as u64;

/// Mutable work counters. Deliberately *not* atomic: counting happens on
/// every visited edge, so it must be a plain increment. Each `Counters`
/// instance is only ever touched by one thread — the parallel strategy gives
/// every partition its own instance (moved into the worker via
/// `&mut Partition`) and sums them in `RowCursor::stats`.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) expansions: Cell<u64>,
    pub(crate) interned_nodes: Cell<u64>,
    /// Bytes charged against the memory budget (see
    /// [`ExecStats::bytes_charged`]). Plain cells like the other counters:
    /// each instance is single-threaded, partitions own their own.
    pub(crate) bytes: Cell<u64>,
    /// High-water arena node count already charged, so each charge site pays
    /// only the delta since the last one (all sites touching the same arena
    /// share this mark through the shared `Counters`).
    pub(crate) arena_mark: Cell<usize>,
}

impl Counters {
    pub(crate) fn stats(&self) -> ExecStats {
        ExecStats {
            expansions: self.expansions.get(),
            interned_nodes: self.interned_nodes.get(),
            bytes_charged: self.bytes.get(),
        }
    }
}

/// Compile-time execution knobs threaded from the traversal surface
/// (`Traversal::vectorize` / `Traversal::chunk_size`) into the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecConfig {
    /// Read per-label adjacency from the per-generation CSR (default: on);
    /// off reads the hashmap adjacency. It selects only the adjacency
    /// source: the row transport is the same either way.
    pub(crate) use_csr: bool,
    /// Rows [`RowCursor::next_chunk`] asks the cursor for per call (default:
    /// [`crate::chunk::DEFAULT_CHUNK_SIZE`]).
    pub(crate) chunk: usize,
    /// Record per-stage execution traces (`Traversal::profile`; default:
    /// off). When off, the per-pull residual cost is one branch.
    pub(crate) profile: bool,
    /// Per-query memory budget in bytes (`Traversal::memory_budget`;
    /// default: none). The parallel strategy splits it evenly across its
    /// accounting domains (each partition plus the suffix/consumer).
    pub(crate) budget: Option<u64>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            use_csr: true,
            chunk: crate::chunk::DEFAULT_CHUNK_SIZE,
            profile: false,
            budget: None,
        }
    }
}

/// Per-execution context threaded through batch evaluation and cursor pulls.
#[derive(Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    pub(crate) snapshot: &'a GraphSnapshot,
    pub(crate) cap: Option<usize>,
    pub(crate) counters: &'a Counters,
    /// Cancellation/deadline bounds; `None` when the execution is unbounded,
    /// so the hot path pays a single branch.
    pub(crate) alive: Option<&'a Liveness>,
    /// Whether per-label expansion reads the per-generation CSR instead of
    /// the hashmap adjacency (the `Traversal::vectorize` knob; on by
    /// default). Only the adjacency source changes; stages, chunking and
    /// early exit do not. Wildcard expansion always stays on the hashmap —
    /// the CSR's label-sorted layout would reorder interleaved insertion
    /// order.
    pub(crate) use_csr: bool,
    /// Byte budget for this accounting domain; `None` disables all memory
    /// accounting (the unbudgeted hot path pays one branch per charge site).
    pub(crate) budget: Option<u64>,
}

/// One direction's adjacency source, resolved once per walker invocation so
/// the per-edge loop dispatches on a two-variant enum instead of re-deciding
/// CSR-vs-hashmap (and re-matching the direction) per frontier entry.
#[derive(Clone, Copy)]
pub(crate) enum Adjacency<'a> {
    /// The mutation-friendly hashmap adjacency (forward or reversed graph).
    Map(&'a mrpa_core::MultiGraph),
    /// The frozen per-generation CSR for the same direction.
    Csr(&'a CsrTopology),
}

impl<'a> Adjacency<'a> {
    /// The edges leaving `v` with `label`, in identical order from either
    /// backing store (the CSR build preserves bucket order verbatim).
    #[inline]
    pub(crate) fn labeled(&self, v: VertexId, label: LabelId) -> LabeledEdges<'a> {
        match self {
            Adjacency::Map(graph) => LabeledEdges::Slice(graph.out_edges_labeled(v, label).iter()),
            Adjacency::Csr(csr) => LabeledEdges::Csr {
                tail: v,
                label,
                heads: csr.labeled(v, label).iter(),
            },
        }
    }
}

/// Iterator over one `(vertex, label)` adjacency bucket, yielding [`Edge`]s
/// by value; the CSR variant materializes them from the head array.
pub(crate) enum LabeledEdges<'a> {
    /// Hashmap-bucket slice.
    Slice(std::slice::Iter<'a, Edge>),
    /// CSR label segment: a contiguous head scan plus the fixed tail/label.
    Csr {
        tail: VertexId,
        label: LabelId,
        heads: std::slice::Iter<'a, VertexId>,
    },
}

impl Iterator for LabeledEdges<'_> {
    type Item = Edge;

    #[inline]
    fn next(&mut self) -> Option<Edge> {
        match self {
            LabeledEdges::Slice(it) => it.next().copied(),
            LabeledEdges::Csr { tail, label, heads } => {
                heads.next().map(|&head| Edge::new(*tail, *label, head))
            }
        }
    }

    #[inline]
    fn size_hint(&self) -> (usize, Option<usize>) {
        match self {
            LabeledEdges::Slice(it) => it.size_hint(),
            LabeledEdges::Csr { heads, .. } => heads.size_hint(),
        }
    }
}

impl<'a> ExecCtx<'a> {
    /// Resolves the adjacency source for `direction` (never `Both`; the
    /// automaton walkers are compiled `Out` or `In`): the CSR when
    /// vectorization is on, the hashmap graph otherwise.
    #[inline]
    pub(crate) fn adjacency(&self, direction: Direction) -> Adjacency<'a> {
        match (direction, self.use_csr) {
            (Direction::Out, true) => Adjacency::Csr(self.snapshot.csr_out()),
            (Direction::Out, false) => Adjacency::Map(self.snapshot.graph()),
            (Direction::In, true) => Adjacency::Csr(self.snapshot.csr_in()),
            (Direction::In, false) => Adjacency::Map(self.snapshot.reversed()),
            (Direction::Both, _) => {
                unreachable!("adjacency sources are resolved per single direction")
            }
        }
    }
}

impl ExecCtx<'_> {
    #[inline]
    pub(crate) fn count_expansion(&self) {
        self.counters
            .expansions
            .set(self.counters.expansions.get() + 1);
    }

    #[inline]
    pub(crate) fn count_interned(&self, n: usize) {
        self.counters
            .interned_nodes
            .set(self.counters.interned_nodes.get() + n as u64);
    }

    /// Errors with [`EngineError::Cancelled`] if this execution's token fired
    /// or its deadline passed. Checked on every cursor pull and every walker
    /// advance, so dense frontiers die mid-layer.
    #[inline]
    pub(crate) fn ensure_alive(&self) -> Result<(), EngineError> {
        match self.alive {
            Some(alive) => alive.check(),
            None => Ok(()),
        }
    }

    /// Whether memory accounting is active. Charge sites guard on this so an
    /// unbudgeted execution pays exactly one predictable branch and never
    /// reads arena node counts.
    #[inline]
    pub(crate) fn budgeted(&self) -> bool {
        self.budget.is_some()
    }

    /// Charges `bytes` against the budget, erroring with
    /// [`EngineError::MemoryBudget`] once the cumulative charge crosses the
    /// limit. Like cancellation, the error propagates out of whatever
    /// layer/pull/batch was in flight, fusing the cursor without poisoning
    /// the store.
    #[inline]
    pub(crate) fn charge_bytes(&self, bytes: u64) -> Result<(), EngineError> {
        let Some(limit) = self.budget else {
            return Ok(());
        };
        let charged = self.counters.bytes.get() + bytes;
        self.counters.bytes.set(charged);
        if charged > limit {
            return Err(EngineError::MemoryBudget { limit, charged });
        }
        Ok(())
    }

    /// Charges arena growth since the last call: `now_nodes` is the arena's
    /// current node count (read through [`ArenaWriter::node_count`] while a
    /// writer is held — `PathArena::node_count` would deadlock). The
    /// high-water mark lives in the shared [`Counters`], so every site
    /// touching the same arena charges each node exactly once. Callers must
    /// guard with [`ExecCtx::budgeted`].
    ///
    /// [`ArenaWriter::node_count`]: mrpa_core::ArenaWriter::node_count
    #[inline]
    pub(crate) fn charge_arena_growth(&self, now_nodes: usize) -> Result<(), EngineError> {
        let grown = now_nodes.saturating_sub(self.counters.arena_mark.get());
        if grown == 0 {
            return Ok(());
        }
        self.counters.arena_mark.set(now_nodes);
        self.charge_bytes(grown as u64 * ARENA_NODE_BYTES)
    }

    /// Charges buffered-row growth since the caller's local mark (`now_len`
    /// is the buffer's current length; `mark` is per-buffer and owned by the
    /// call site). Callers must guard with [`ExecCtx::budgeted`].
    #[inline]
    pub(crate) fn charge_row_growth(
        &self,
        now_len: usize,
        mark: &mut usize,
    ) -> Result<(), EngineError> {
        let grown = now_len.saturating_sub(*mark);
        if grown == 0 {
            return Ok(());
        }
        *mark = now_len;
        self.charge_bytes(grown as u64 * ROW_BYTES)
    }
}

/// Executes a plan with the chosen strategy.
pub fn execute(
    snapshot: &GraphSnapshot,
    plan: &LogicalPlan,
    strategy: ExecutionStrategy,
    max_intermediate: Option<usize>,
) -> Result<QueryResult, EngineError> {
    execute_with_threads(snapshot, plan, strategy, max_intermediate, None)
}

/// Executes a plan, optionally forcing the parallel strategy's worker thread
/// count (`None` = `available_parallelism`; ignored by the other
/// strategies). Tests and benchmarks use this to exercise the partitioned
/// path on machines whose `available_parallelism` reports a single core —
/// the snapshot-isolation suite runs it against frozen snapshots while
/// writers churn the live graph.
pub fn execute_with_threads(
    snapshot: &GraphSnapshot,
    plan: &LogicalPlan,
    strategy: ExecutionStrategy,
    max_intermediate: Option<usize>,
    threads: Option<usize>,
) -> Result<QueryResult, EngineError> {
    let mut cursor = RowCursor::compile_with_threads(
        snapshot.clone(),
        plan.clone(),
        strategy,
        max_intermediate,
        threads,
    );
    // full drain: ask for whole chunks per call
    let mut rows = Vec::new();
    while cursor.next_chunk(&mut rows)? {}
    Ok(QueryResult::new(rows, cursor.finish()))
}

/// A result row during evaluation: the path lives in the execution's arena.
/// `weight` is the semiring cost assigned by the most recent weighted op
/// (`None` until one runs); unweighted ops propagate it unchanged.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ArenaRow {
    pub(crate) source: VertexId,
    pub(crate) path: PathId,
    pub(crate) head: VertexId,
    pub(crate) weight: Option<f64>,
}

pub(crate) fn initial_rows(start: &[VertexId]) -> Vec<ArenaRow> {
    start
        .iter()
        .map(|&v| ArenaRow {
            source: v,
            path: PathId::EPSILON,
            head: v,
            weight: None,
        })
        .collect()
}

/// Materialises arena rows into public [`ResultRow`]s (done once, after
/// evaluation).
pub(crate) fn materialise_rows(arena: &PathArena, rows: Vec<ArenaRow>) -> Vec<ResultRow> {
    rows.into_iter()
        .map(|r| ResultRow {
            source: r.source,
            path: arena.to_path(r.path),
            head: r.head,
            weight: r.weight,
        })
        .collect()
}

/// Visits the edges leaving `v` in the step's direction, restricted to
/// `labels`. For `Direction::In` the edges come from the reversed graph, so a
/// result edge `(h, α, t)` represents walking the stored edge `(t, α, h)`
/// backwards; the produced paths are joint paths of the reversed graph.
/// `Direction::Both` visits the forward edges first, then the reversed ones.
pub(crate) fn for_each_expansion_edge(
    ctx: &ExecCtx<'_>,
    direction: Direction,
    v: VertexId,
    labels: &Option<Vec<LabelId>>,
    mut visit: impl FnMut(Edge),
) {
    let mut walk = |dir: Direction| match labels {
        None => {
            // wildcard expansion iterates the whole bucket in insertion
            // order, which interleaves labels — only the hashmap has it
            let graph = match dir {
                Direction::In => ctx.snapshot.reversed(),
                _ => ctx.snapshot.graph(),
            };
            for e in graph.out_edges(v) {
                visit(*e);
            }
        }
        Some(ls) => {
            let adj = ctx.adjacency(dir);
            for &l in ls {
                for e in adj.labeled(v, l) {
                    visit(e);
                }
            }
        }
    };
    match direction {
        Direction::Out => walk(Direction::Out),
        Direction::In => walk(Direction::In),
        Direction::Both => {
            walk(Direction::Out);
            walk(Direction::In);
        }
    }
}

pub(crate) fn check_cap(len: usize, cap: Option<usize>) -> Result<(), EngineError> {
    if let Some(cap) = cap {
        if len > cap {
            return Err(EngineError::BoundExceeded {
                bound: cap,
                what: "intermediate row count",
            });
        }
    }
    Ok(())
}

pub(crate) fn in_set(set: &Option<HashSet<VertexId>>, v: VertexId) -> bool {
    set.as_ref().map(|s| s.contains(&v)).unwrap_or(true)
}

pub(crate) fn eval_until(
    snapshot: &GraphSnapshot,
    until: &(String, Predicate),
    v: VertexId,
) -> bool {
    until.1.eval(snapshot.vertex_property(v, &until.0))
}

/// Applies one plan op to a materialised row set (level-at-a-time). The
/// composite ops drive the same resumable walkers ([`AutoWalk`],
/// [`RepeatWalk`]) the cursor stages use, drained to exhaustion — one
/// implementation, two consumption granularities.
pub(crate) fn apply_op(
    ctx: &ExecCtx<'_>,
    arena: &PathArena,
    rows: Vec<ArenaRow>,
    op: &PlanOp,
) -> Result<Vec<ArenaRow>, EngineError> {
    Ok(match op {
        PlanOp::Expand {
            direction,
            labels,
            from,
            to,
        } => {
            let mut next = Vec::new();
            let mut row_mark = 0usize;
            // one write-lock acquisition for the whole expansion level
            let mut writer = arena.writer();
            for row in &rows {
                ctx.ensure_alive()?;
                if !in_set(from, row.head) {
                    continue;
                }
                for_each_expansion_edge(ctx, *direction, row.head, labels, |e| {
                    ctx.count_expansion();
                    if !in_set(to, e.head) {
                        return;
                    }
                    next.push(ArenaRow {
                        source: row.source,
                        path: writer.append(row.path, e),
                        head: e.head,
                        weight: row.weight,
                    });
                });
                if ctx.budgeted() {
                    ctx.charge_arena_growth(writer.node_count())?;
                    ctx.charge_row_growth(next.len(), &mut row_mark)?;
                }
            }
            next
        }
        PlanOp::ExpandAutomaton {
            spec,
            from,
            to,
            limit,
        } => {
            // product-automaton expansion, row by row so emissions are
            // row-major; `remaining` is the R7 emission cap shared across
            // input rows. One write-lock acquisition for the whole op —
            // dropped around layer rollovers, which hold no writer. Each
            // layer runs whole through `AutoWalk::run_layer` (no goal).
            let mut emitted: Vec<ArenaRow> = Vec::new();
            let mut row_mark = 0usize;
            let mut remaining = *limit;
            let mut seen: Option<SeenSet> = match spec.semantics() {
                Semantics::GlobalReachable => Some(SeenSet::default()),
                Semantics::Walks | Semantics::Reachable => None,
            };
            let mut writer = arena.writer();
            for row in rows {
                if matches!(remaining, Some(0)) {
                    break;
                }
                if !in_set(from, row.head) {
                    continue;
                }
                if spec.semantics() == Semantics::Reachable {
                    seen = Some(SeenSet::default());
                }
                let mut walk = AutoWalk::start(spec, to, row, &mut remaining, seen.as_mut());
                walk.drain_pending_into(&mut emitted, usize::MAX);
                loop {
                    ctx.ensure_alive()?;
                    if walk.finished() {
                        break;
                    }
                    if walk.needs_roll() {
                        walk.roll(ctx, spec, emitted.len())?;
                    } else {
                        walk.run_layer(
                            ctx,
                            &mut writer,
                            spec,
                            to,
                            &mut remaining,
                            seen.as_mut(),
                            &mut emitted,
                            usize::MAX,
                        );
                    }
                    // per-layer budget check: a dense product-automaton
                    // frontier dies mid-walk, exactly like cancellation
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(writer.node_count())?;
                        ctx.charge_row_growth(emitted.len(), &mut row_mark)?;
                    }
                }
            }
            drop(writer);
            emitted
        }
        PlanOp::ExpandWeighted {
            spec,
            semiring,
            weight,
            from,
            to,
            k,
        } => {
            // best-first weighted expansion, row by row (row-major emission
            // order); `remaining` is the R9 top-k cap shared across rows.
            // The walker acquires a short-lived writer per settle, so no
            // lock is held across heap operations.
            let mut emitted: Vec<ArenaRow> = Vec::new();
            let mut row_mark = 0usize;
            let mut remaining = *k;
            for row in rows {
                if matches!(remaining, Some(0)) {
                    break;
                }
                if !in_set(from, row.head) {
                    continue;
                }
                let mut walk = WeightedWalk::start(spec, *semiring, row);
                loop {
                    ctx.ensure_alive()?;
                    walk.drain_pending_into(&mut emitted, usize::MAX);
                    if walk.finished() {
                        break;
                    }
                    walk.advance(
                        ctx,
                        arena,
                        spec,
                        *semiring,
                        weight,
                        to,
                        emitted.len(),
                        &mut remaining,
                    )?;
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(arena.node_count())?;
                        ctx.charge_row_growth(emitted.len(), &mut row_mark)?;
                    }
                }
            }
            emitted
        }
        PlanOp::Repeat {
            body,
            min,
            max,
            until,
        } => {
            // evaluated per input row so emissions are row-major (each input
            // row's emissions contiguous, iteration count ascending within a
            // row) — the canonical order all three strategies share
            let mut emitted: Vec<ArenaRow> = Vec::new();
            let mut row_mark = 0usize;
            for row in rows {
                let mut walk = RepeatWalk::new(row);
                loop {
                    ctx.ensure_alive()?;
                    walk.drain_pending_into(&mut emitted, usize::MAX);
                    if walk.finished() {
                        break;
                    }
                    walk.advance(
                        ctx,
                        arena,
                        crate::cursor::RepeatSpec {
                            body,
                            min: *min,
                            max: *max,
                            until: until.as_ref(),
                        },
                        emitted.len(),
                    )?;
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(arena.node_count())?;
                        ctx.charge_row_growth(emitted.len(), &mut row_mark)?;
                    }
                }
            }
            emitted
        }
        PlanOp::RestrictVertices(vs) => rows.into_iter().filter(|r| vs.contains(&r.head)).collect(),
        PlanOp::RestrictProperty { key, predicate } => rows
            .into_iter()
            .filter(|r| predicate.eval(ctx.snapshot.vertex_property(r.head, key)))
            .collect(),
        PlanOp::DedupByVertex => {
            let mut seen = HashSet::new();
            rows.into_iter().filter(|r| seen.insert(r.head)).collect()
        }
        PlanOp::Limit(n) => {
            let mut rows = rows;
            rows.truncate(*n);
            rows
        }
    })
}

pub(crate) fn apply_ops(
    ctx: &ExecCtx<'_>,
    arena: &PathArena,
    mut rows: Vec<ArenaRow>,
    ops: &[PlanOp],
) -> Result<Vec<ArenaRow>, EngineError> {
    let mut row_mark = 0usize;
    for op in ops {
        ctx.ensure_alive()?;
        rows = apply_op(ctx, arena, rows, op)?;
        check_cap(rows.len(), ctx.cap)?;
        if ctx.budgeted() {
            // per-op backstop: filters and any growth the op-internal
            // per-layer checks have not charged yet (no writer is held here)
            ctx.charge_arena_growth(arena.node_count())?;
            ctx.charge_row_growth(rows.len(), &mut row_mark)?;
        }
    }
    Ok(rows)
}

/// Level-at-a-time evaluation: frontier rows expand through the adjacency
/// indexes, and each produced row is one arena append.
pub(crate) fn materialized(
    ctx: &ExecCtx<'_>,
    start: &[VertexId],
    ops: &[PlanOp],
) -> Result<Vec<ResultRow>, EngineError> {
    let arena = PathArena::new();
    let rows = initial_rows(start);
    check_cap(rows.len(), ctx.cap)?;
    let rows = apply_ops(ctx, &arena, rows, ops)?;
    Ok(materialise_rows(&arena, rows))
}

/// [`materialized`], recording per-op actuals for `Traversal::profile`: each
/// op's batch application is timed and its counter deltas captured, so the
/// trace reports `pulls == 1` per op with exclusive (self-only) values. Row
/// results are bit-identical to [`materialized`] — the instrumentation only
/// brackets the existing calls.
pub(crate) fn materialized_traced(
    ctx: &ExecCtx<'_>,
    start: &[VertexId],
    ops: &[PlanOp],
) -> Result<(Vec<ResultRow>, Vec<OpActuals>), EngineError> {
    let arena = PathArena::new();
    let mut rows = initial_rows(start);
    check_cap(rows.len(), ctx.cap)?;
    let mut actuals = Vec::with_capacity(ops.len() + 1);
    actuals.push(OpActuals {
        rows_out: rows.len() as u64,
        pulls: 1,
        ..OpActuals::default()
    });
    for op in ops {
        ctx.ensure_alive()?;
        let before = ctx.counters.stats();
        let started = std::time::Instant::now();
        rows = apply_op(ctx, &arena, rows, op)?;
        let elapsed = started.elapsed().as_nanos() as u64;
        let after = ctx.counters.stats();
        check_cap(rows.len(), ctx.cap)?;
        actuals.push(OpActuals {
            rows_out: rows.len() as u64,
            pulls: 1,
            chunks: 0,
            nanos: elapsed,
            expansions: after.expansions - before.expansions,
            interned: after.interned_nodes - before.interned_nodes,
        });
    }
    Ok((materialise_rows(&arena, rows), actuals))
}

/// Evaluates a plan with the parallel strategy and an explicit thread count
/// (tests force multi-threading because `available_parallelism` may report a
/// single core in CI sandboxes).
#[cfg(test)]
pub(crate) fn parallel_with_threads(
    snapshot: &GraphSnapshot,
    plan: &LogicalPlan,
    cap: Option<usize>,
    threads: usize,
) -> Result<Vec<ResultRow>, EngineError> {
    let mut cursor = RowCursor::compile_parallel(
        snapshot.clone(),
        plan.clone(),
        cap,
        Some(threads),
        ExecConfig::default(),
    );
    let mut rows = Vec::new();
    while let Some(row) = cursor.next_row()? {
        rows.push(row);
    }
    Ok(rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Traversal;
    use crate::store::classic_social_graph;
    use crate::value::{Predicate, Value};

    fn head_set(result: &QueryResult) -> Vec<String> {
        result.head_names()
    }

    fn all_strategies(base: &Traversal) -> (QueryResult, QueryResult, QueryResult) {
        let m = base
            .clone()
            .strategy(ExecutionStrategy::Materialized)
            .execute()
            .unwrap();
        let s = base
            .clone()
            .strategy(ExecutionStrategy::Streaming)
            .execute()
            .unwrap();
        let p = base
            .clone()
            .strategy(ExecutionStrategy::Parallel)
            .execute()
            .unwrap();
        (m, s, p)
    }

    #[test]
    fn strategies_agree_on_simple_pipeline() {
        let g = classic_social_graph();
        let base = Traversal::over(&g)
            .v(["marko"])
            .out(["knows"])
            .out(["created"]);
        let (m, s, p) = all_strategies(&base);
        assert_eq!(head_set(&m), head_set(&s));
        assert_eq!(head_set(&m), head_set(&p));
        assert_eq!(m.paths(), s.paths());
        assert_eq!(m.paths(), p.paths());
    }

    #[test]
    fn strategies_agree_on_complex_pipeline() {
        let g = classic_social_graph();
        let base = Traversal::over(&g)
            .v_where("kind", Predicate::Eq(Value::from("software")))
            .in_(["created"])
            .has("age", Predicate::Ge(30.0))
            .out(["created"])
            .dedup();
        let (m, s, p) = all_strategies(&base);
        let mut mh = m.distinct_heads();
        let mut sh = s.distinct_heads();
        let mut ph = p.distinct_heads();
        mh.sort();
        sh.sort();
        ph.sort();
        assert_eq!(mh, sh);
        assert_eq!(mh, ph);
        assert!(!m.is_empty());
    }

    #[test]
    fn in_steps_walk_edges_backwards() {
        let g = classic_social_graph();
        let r = Traversal::over(&g)
            .v(["lop"])
            .in_(["created"])
            .execute()
            .unwrap();
        assert_eq!(r.head_names_sorted(), vec!["josh", "marko", "peter"]);
    }

    #[test]
    fn both_steps_union_out_and_in_edges() {
        let g = classic_social_graph();
        let base = Traversal::over(&g).v(["josh"]).both(["created", "knows"]);
        let (m, s, p) = all_strategies(&base);
        // josh: created→{ripple, lop} (out), knows→{marko} (in)
        assert_eq!(m.head_names_sorted(), vec!["lop", "marko", "ripple"]);
        assert_eq!(m.paths(), s.paths());
        assert_eq!(m.paths(), p.paths());
    }

    #[test]
    fn match_runs_the_product_automaton_under_all_strategies() {
        let g = classic_social_graph();
        let base = Traversal::over(&g).v(["marko"]).match_("knows+·created");
        let (m, s, p) = all_strategies(&base);
        assert_eq!(m.head_names_sorted(), vec!["lop", "ripple"]);
        assert_eq!(m.paths(), s.paths());
        assert_eq!(m.paths(), p.paths());
        // every matching path is knowsᵏ·created for some k ≥ 1
        for row in m.rows() {
            assert!(row.path.len() >= 2);
        }
    }

    #[test]
    fn match_with_nullable_pattern_emits_epsilon_rows() {
        let g = classic_social_graph();
        let r = Traversal::over(&g)
            .v(["marko"])
            .match_("knows*")
            .execute()
            .unwrap();
        // ε (marko itself) + knows-paths to vadas and josh
        assert_eq!(r.head_names_sorted(), vec!["josh", "marko", "vadas"]);
        assert!(r.rows().iter().any(|row| row.path.is_empty()));
    }

    #[test]
    fn repeat_emits_union_over_the_iteration_range() {
        let g = classic_social_graph();
        let base = Traversal::over(&g)
            .v(["marko"])
            .repeat(1..=2, |p| p.out(["knows"]));
        let (m, s, p) = all_strategies(&base);
        // marko -knows-> {vadas, josh}; no second knows hop exists
        assert_eq!(m.head_names_sorted(), vec!["josh", "vadas"]);
        assert_eq!(m.paths(), s.paths());
        assert_eq!(m.paths(), p.paths());
        // times(1..=1) and the plain step agree exactly
        let plain = Traversal::over(&g)
            .v(["marko"])
            .out(["knows"])
            .execute()
            .unwrap();
        let once = Traversal::over(&g)
            .v(["marko"])
            .repeat(1..=1, |p| p.out(["knows"]))
            .execute()
            .unwrap();
        assert_eq!(plain.paths(), once.paths());
    }

    #[test]
    fn repeat_until_exits_rows_when_the_predicate_holds() {
        let g = classic_social_graph();
        // walk out-edges until reaching software, at most 3 hops
        let r = Traversal::over(&g)
            .v(["marko"])
            .repeat_until(3, "kind", Predicate::Eq(Value::from("software")), |p| {
                p.out_any()
            })
            .execute()
            .unwrap();
        // reachable software from marko: lop (direct), ripple & lop via josh
        assert_eq!(r.head_names_sorted(), vec!["lop", "lop", "ripple"]);
        // a start row that already satisfies the predicate exits at depth 0
        let r = Traversal::over(&g)
            .v(["lop"])
            .repeat_until(3, "kind", Predicate::Eq(Value::from("software")), |p| {
                p.out_any()
            })
            .execute()
            .unwrap();
        assert_eq!(r.len(), 1);
        assert!(r.rows()[0].path.is_empty());
    }

    #[test]
    fn limit_truncates_and_dedup_removes_duplicates() {
        let g = classic_social_graph();
        // every creator of java software, with duplicates (josh created two)
        let all = Traversal::over(&g)
            .v_where("lang", Predicate::Eq(Value::from("java")))
            .in_(["created"])
            .execute()
            .unwrap();
        assert_eq!(all.len(), 4);
        let deduped = Traversal::over(&g)
            .v_where("lang", Predicate::Eq(Value::from("java")))
            .in_(["created"])
            .dedup()
            .execute()
            .unwrap();
        assert_eq!(deduped.len(), 3);
        let limited = Traversal::over(&g)
            .v_where("lang", Predicate::Eq(Value::from("java")))
            .in_(["created"])
            .limit(2)
            .execute()
            .unwrap();
        assert_eq!(limited.len(), 2);
    }

    #[test]
    fn max_intermediate_cap_aborts_materialized_and_parallel() {
        let g = classic_social_graph();
        let base = Traversal::over(&g).out_any().out_any().max_intermediate(2);
        assert!(matches!(
            base.clone()
                .strategy(ExecutionStrategy::Materialized)
                .execute(),
            Err(EngineError::BoundExceeded { .. })
        ));
        assert!(matches!(
            base.clone().strategy(ExecutionStrategy::Parallel).execute(),
            Err(EngineError::BoundExceeded { .. })
        ));
        // the cursor counts per-stage output against the same cap
        assert!(matches!(
            base.clone()
                .strategy(ExecutionStrategy::Streaming)
                .execute(),
            Err(EngineError::BoundExceeded { .. })
        ));
    }

    #[test]
    fn is_step_restricts_to_named_vertices() {
        let g = classic_social_graph();
        let r = Traversal::over(&g)
            .v(["marko"])
            .out(["knows"])
            .is(["josh"])
            .out(["created"])
            .execute()
            .unwrap();
        assert_eq!(r.head_names_sorted(), vec!["lop", "ripple"]);
    }

    #[test]
    fn forced_multithread_parallel_matches_materialized_row_for_row() {
        // `available_parallelism` may report 1 core in CI sandboxes, hiding
        // the partitioned path — force it. Mid-plan stateful ops are the
        // regression of interest: a dedup *before* an expansion must not be
        // re-applied to the final rows.
        let g = classic_social_graph();
        let snap = g.snapshot();
        let pipelines: Vec<Traversal> = vec![
            // dedup before expand: 4 created-rows survive (lop ×3, ripple)
            Traversal::over(&g).dedup().out(["created"]),
            // stateful suffix after a parallel prefix
            Traversal::over(&g)
                .out_any()
                .out(["created"])
                .dedup()
                .limit(3),
            // limit sandwiched between expansions
            Traversal::over(&g).out_any().limit(4).out(["created"]),
            // stateless-only plan
            Traversal::over(&g).both_any(),
            // automaton + repeat prefix with stateful tail
            Traversal::over(&g).match_("knows*·created").dedup(),
            // a GlobalReachable automaton is stateful across rows: it must
            // land in the global suffix, not the partitioned prefix
            Traversal::over(&g)
                .out_any()
                .match_reachable_global("knows+"),
            // weighted ops are parallel-safe in the prefix (per-row search);
            // the R9 cap is a sound per-partition over-approximation
            Traversal::over(&g)
                .cheapest_("(knows|created)+")
                .weight_by("weight")
                .top_k(3),
        ];
        for (i, t) in pipelines.iter().enumerate() {
            let naive = crate::plan::plan(&snap, t.start_spec(), t.steps()).unwrap();
            let optimized = crate::plan::optimize(&snap, &naive);
            let counters = Counters::default();
            let ctx = ExecCtx {
                snapshot: &snap,
                cap: None,
                counters: &counters,
                alive: None,
                use_csr: true,
                budget: None,
            };
            let reference = materialized(&ctx, naive.start(), naive.ops()).unwrap();
            for plan in [&naive, &optimized] {
                for threads in [2, 3, 7] {
                    let rows = parallel_with_threads(&snap, plan, None, threads).unwrap();
                    assert_eq!(rows, reference, "pipeline {i}, {threads} threads");
                }
            }
        }
        // the dedup-before-expand case keeps duplicate final heads
        let t = Traversal::over(&g).dedup().out(["created"]);
        let plan = crate::plan::plan(&snap, t.start_spec(), t.steps()).unwrap();
        let counters = Counters::default();
        let ctx = ExecCtx {
            snapshot: &snap,
            cap: None,
            counters: &counters,
            alive: None,
            use_csr: true,
            budget: None,
        };
        let r = materialized(&ctx, plan.start(), plan.ops()).unwrap();
        assert_eq!(r.len(), 4);
    }

    #[test]
    fn parallel_with_single_start_falls_back_to_materialized() {
        let g = classic_social_graph();
        let r = Traversal::over(&g)
            .v(["marko"])
            .out(["knows"])
            .strategy(ExecutionStrategy::Parallel)
            .execute()
            .unwrap();
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn whole_graph_start_with_parallel_strategy() {
        let g = classic_social_graph();
        let m = Traversal::over(&g)
            .out_any()
            .strategy(ExecutionStrategy::Materialized)
            .execute()
            .unwrap();
        let p = Traversal::over(&g)
            .out_any()
            .strategy(ExecutionStrategy::Parallel)
            .execute()
            .unwrap();
        // one row per edge in both cases
        assert_eq!(m.len(), 6);
        assert_eq!(p.len(), 6);
        assert_eq!(m.paths(), p.paths());
    }

    #[test]
    fn execute_reports_expansion_stats() {
        let g = classic_social_graph();
        for strategy in [
            ExecutionStrategy::Materialized,
            ExecutionStrategy::Streaming,
            ExecutionStrategy::Parallel,
        ] {
            let r = Traversal::over(&g)
                .v(["marko"])
                .out_any()
                .strategy(strategy)
                .execute()
                .unwrap();
            // marko has exactly 3 out-edges
            assert_eq!(r.stats().expansions, 3, "{strategy:?}");
        }
    }
}
