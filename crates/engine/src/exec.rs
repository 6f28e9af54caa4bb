//! Executors: evaluating a [`LogicalPlan`] against a [`GraphSnapshot`].
//!
//! Three strategies are provided, two of them distinct evaluators, all
//! computing the same result set. Rows come out in one canonical order —
//! row-major: each input row's expansions are contiguous, depth-/
//! iteration-ordered within a row — which is what makes `Limit`
//! deterministic across strategies:
//!
//! * [`ExecutionStrategy::Materialized`] — level-at-a-time evaluation that
//!   materialises the full row set after every operation, the analogue of
//!   evaluating the algebra's join chain on path sets. It runs the same
//!   stages as the cursor: each op is a one-op stage over the whole previous
//!   level, drained in chunks until it is done before the next op starts.
//!   Under `limit(k)` it early-exits only through the optimizer's R7/R9
//!   annotations (the automaton and top-k emission caps). The reference all
//!   three are tested against is the literal path algebra in `crates/core`.
//! * [`ExecutionStrategy::Streaming`] — the demand-driven cursor: every plan
//!   op compiles to a pull-based stage ([`crate::cursor`]) that hands out at
//!   most the rows it is asked for — one for `next_row`/`first()`, a chunk
//!   for a full drain — and keeps the rest of its work suspended. A
//!   saturated `Limit` stops pulling, so an in-flight `(vertex, dfa-state)`
//!   product-automaton frontier is dropped mid-layer without finishing the
//!   walk.
//! * [`ExecutionStrategy::Parallel`] — an alias of Materialized: the same
//!   rows, the same [`ExecStats`] and the same trace. The joins distribute
//!   over a union of start sets, so splitting the starts into partitions
//!   only schedules the work; on two CPUs the partitioned run never beat
//!   Materialized by 1.5× and held every partition's last level until the
//!   join, so it was removed (ROADMAP item 16(c)). The variant stays so that
//!   callers naming it keep working.
//!
//! Expansion is **frontier-driven**: each row's next edges come straight from
//! the snapshot's per-generation [`CsrTopology`] — the only adjacency any
//! executor reads — through one of two kernels in [`crate::cursor`]. An
//! `Expand` step reads whole segments (`expand_segments`): the Out CSR for
//! `Out`, the In CSR for `In` (so a result edge `(h, α, t)` walks the stored
//! edge `(t, α, h)` backwards), Out then In for `Both`; its labels in the
//! step's order, or for a wildcard [`CsrTopology::segments`], labels
//! ascending, then bucket order within a label. Every product-automaton
//! walk, and `count()`'s product, steps one `(vertex, dfa-state)` entry at a
//! time (`move_step`). The row's path is a [`PathId`] into a
//! per-execution [`PathArena`] — extending a row is one arena push
//! ([`mrpa_core::ArenaWriter::push`]) instead of cloning the whole edge
//! vector. The push skips the arena's intern map: rows are walks, a
//! multiset, and no executor compares `PathId`s, so two rows with equal paths
//! (a duplicated start vertex, a self-loop walked both ways) simply get two
//! nodes.
//! [`PlanOp::ExpandAutomaton`] runs the product construction: a per-row walk
//! over `(row, dfa-state)` pairs that emits the rows landing in accepting
//! states at every depth up to the spec's bound (deduplicated by `(vertex,
//! state)` under [`Semantics::Reachable`](crate::plan::Semantics::Reachable)).
//! Rows are materialised into [`ResultRow`]s only once, at the cursor
//! boundary, a delivered chunk under one arena read lock
//! ([`mrpa_core::ArenaReader`]). A [`mrpa_core::Path`] keeps up to three
//! edges inline, so a delivered row of at most three edges allocates
//! nothing.
//!
//! Every execution shares one [`ExecStats`] counter set (exposed through
//! [`QueryResult::stats`] and `RowCursor::stats`), so early-exit claims are
//! assertable: `expansions` counts adjacency entries visited, not wall time.
//!
//! Experiment E8 (`exp_engine_throughput`) times Materialized and Streaming
//! against each other and against a hand-written algebra evaluation, and
//! `tests/paper_claims.rs` checks that every strategy gives the algebra's
//! answer. Optimized plans are checked row-for-row against naive ones in
//! `tests/equivalence.rs`, and `limit(1)` early exit by its expansion count in
//! `tests/streaming_early_exit.rs`; perfbench's `dense_fit` workload times
//! full drains (`rows_per_s`) and first rows (`first_row_ms_p50`).

use std::cell::Cell;
use std::collections::HashSet;

use mrpa_core::scratch::{Recycle, ScratchVec, Spares};
use mrpa_core::{ArenaReader, PathArena, PathId, VertexId};

use crate::cancel::Liveness;
use crate::csr::CsrTopology;
use crate::cursor::{RowCursor, Stage};
use crate::error::EngineError;
use crate::plan::{Direction, LogicalPlan, PlanOp};
use crate::query::{QueryResult, ResultRow};
use crate::store::GraphSnapshot;
use crate::trace::OpActuals;
use crate::value::Predicate;

/// Which executor evaluates the plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecutionStrategy {
    /// Level-at-a-time evaluation: each op's stage is drained over the whole
    /// previous level before the next op starts. The reference the
    /// strategies are tested against is `crates/core`'s path algebra.
    Materialized,
    /// Demand-driven pull-cursor evaluation (row-at-a-time).
    Streaming,
    /// An alias of [`ExecutionStrategy::Materialized`]: the same rows, the
    /// same [`ExecStats`] and the same trace (see the module docs for why the
    /// partitioned evaluation it once named was removed). A traversal or
    /// trace still reports the strategy it was asked for.
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
    /// Arena nodes hash-consed by the execution. Always `0`: the executors
    /// push their nodes without interning. Kept so that readers of the
    /// field keep compiling.
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
/// dominant, monotone component of a query's working set. The executors'
/// expansions push nodes without an intern-map entry, so for them this
/// over-counts by the intern-map share until a counting allocator measures
/// real allocation; it stays at the hash-consed figure so budgeted queries
/// trip where they always did. Measured by `tests/buffer_reuse.rs`'s
/// counting allocator on a cold drain of perfbench `dense_fit` statement (a)
/// over a 400-person graph (77,239 pushed nodes): the peak live heap of the
/// drain, node vector and level buffers included, is 81.7 B per pushed node
/// under Materialized and 56.1 B under Streaming; the node alone is 32 B,
/// and the vector's doubling leaves up to as much again unused.
pub(crate) const ARENA_NODE_BYTES: u64 = 88;

/// Per-row cost of buffering an [`ArenaRow`] in a frontier, chunk, or
/// materialized level. Row buffers are transient; charging them cumulatively
/// keeps the counter monotone and upper-bounds the true peak.
pub(crate) const ROW_BYTES: u64 = std::mem::size_of::<ArenaRow>() as u64;

/// Mutable work counters. Deliberately *not* atomic: counting happens on
/// every visited edge, so it must be a plain increment. Each `Counters`
/// instance belongs to one cursor and is only ever touched by its thread.
#[derive(Debug, Default)]
pub(crate) struct Counters {
    pub(crate) expansions: Cell<u64>,
    /// Bytes charged against the memory budget (see
    /// [`ExecStats::bytes_charged`]).
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
            interned_nodes: 0,
            bytes_charged: self.bytes.get(),
        }
    }
}

/// Compile-time execution knobs threaded from the traversal surface
/// (`Traversal::chunk_size`, `profile`, `memory_budget`) into the cursor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ExecConfig {
    /// Rows [`RowCursor::next_chunk`] asks the cursor for per call (default:
    /// [`crate::chunk::DEFAULT_CHUNK_SIZE`]).
    pub(crate) chunk: usize,
    /// Record per-stage execution traces (`Traversal::profile`; default:
    /// off). When off, the per-pull residual cost is one branch.
    pub(crate) profile: bool,
    /// Per-query memory budget in bytes (`Traversal::memory_budget`;
    /// default: none).
    pub(crate) budget: Option<u64>,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            chunk: crate::chunk::DEFAULT_CHUNK_SIZE,
            profile: false,
            budget: None,
        }
    }
}

/// Per-execution context threaded through every stage pull.
#[derive(Clone, Copy)]
pub(crate) struct ExecCtx<'a> {
    pub(crate) snapshot: &'a GraphSnapshot,
    pub(crate) counters: &'a Counters,
    /// Cancellation/deadline bounds; `None` when the execution is unbounded,
    /// so the hot path pays a single branch.
    pub(crate) alive: Option<&'a Liveness>,
    /// The query's byte budget; `None` disables all memory accounting (the unbudgeted hot path pays one branch per charge site).
    pub(crate) budget: Option<u64>,
}

impl<'a> ExecCtx<'a> {
    /// The snapshot's CSR for `direction` (never `Both`: callers split it
    /// into its Out and In halves), built on the generation's first read.
    #[inline]
    pub(crate) fn adjacency(&self, direction: Direction) -> &'a CsrTopology {
        match direction {
            Direction::Out => self.snapshot.csr_out(),
            Direction::In => self.snapshot.csr_in(),
            Direction::Both => unreachable!("adjacency is read one direction at a time"),
        }
    }

    #[inline]
    pub(crate) fn count_expansions(&self, n: usize) {
        self.counters
            .expansions
            .set(self.counters.expansions.get() + n as u64);
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
) -> Result<QueryResult, EngineError> {
    let mut cursor = RowCursor::compile_with_config(
        snapshot.clone(),
        plan.clone(),
        strategy,
        ExecConfig::default(),
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

/// Row buffers are recycled per thread: a level and a cursor's result rows
/// hand their capacity back when they drop.
impl Recycle for ArenaRow {
    fn spares() -> &'static std::thread::LocalKey<Spares<Self>> {
        thread_local!(static SPARES: Spares<ArenaRow> = const { Spares::new() });
        &SPARES
    }
}

pub(crate) fn initial_rows(start: &[VertexId]) -> ScratchVec<ArenaRow> {
    let mut rows = ScratchVec::with_capacity(start.len());
    rows.extend(start.iter().map(|&v| ArenaRow {
        source: v,
        path: PathId::EPSILON,
        head: v,
        weight: None,
    }));
    rows
}

impl ArenaRow {
    /// Materialises the row into a public [`ResultRow`] — the one place a
    /// row's path is read out of its arena, done only for delivered rows,
    /// through one [`ArenaReader`] per delivered chunk.
    pub(crate) fn materialise(self, arena: &ArenaReader<'_>) -> ResultRow {
        ResultRow {
            source: self.source,
            path: arena.to_path(self.path),
            head: self.head,
            weight: self.weight,
        }
    }
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

/// Level-at-a-time evaluation of `ops` over `rows`, whose paths live in
/// `arena`: each op runs as a one-op [`Stage`] over a source holding the
/// whole previous level, drained in `chunk`-row calls until it reports
/// `Done` before the next op starts. No op sees a partial input, so nothing
/// exits early except the R7/R9 emission caps; memory is charged after
/// every drain call. With `trace`, each level's actuals are appended to it.
/// Returns the final rows; the caller materialises only the rows it
/// delivers (`count()` materialises none). Each level fills the thread's
/// largest spare row buffer, and the level it read hands its buffer back
/// once drained, so a repeated query reuses the same two buffers.
pub(crate) fn materialized(
    ctx: &ExecCtx<'_>,
    arena: &PathArena,
    mut rows: ScratchVec<ArenaRow>,
    ops: &[PlanOp],
    chunk: usize,
    mut trace: Option<&mut Vec<OpActuals>>,
) -> Result<ScratchVec<ArenaRow>, EngineError> {
    for op in ops {
        let mut stage = Stage::level(rows, op.clone(), trace.is_some());
        let mut next = ScratchVec::take_spare();
        stage.drain(ctx, arena, chunk, &mut next)?;
        if let Some(trace) = trace.as_deref_mut() {
            trace.push(stage.level_actuals());
        }
        rows = next;
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
    fn a_materialized_level_is_charged_chunk_by_chunk() {
        // K40: the planner fuses the two hops into one automaton level of
        // 60,840 rows, and the budget is crossed early in it. Every drain
        // call asks for at most `chunk` rows and the walk stops after the
        // frontier entry that reaches them, so the overshoot stays within
        // one chunk plus one entry's out-degree, however large the level.
        let n = 40usize;
        let g = crate::store::PropertyGraph::new();
        for i in 0..n {
            for j in (0..n).filter(|&j| j != i) {
                g.add_edge(&format!("v{i}"), "knows", &format!("v{j}"));
            }
        }
        let limit = 1_000_000u64;
        for chunk in [1, 64] {
            let err = Traversal::over(&g)
                .out(["knows"])
                .out(["knows"])
                .chunk_size(chunk)
                .memory_budget(limit)
                .strategy(ExecutionStrategy::Materialized)
                .execute()
                .unwrap_err();
            let EngineError::MemoryBudget { charged, .. } = err else {
                panic!("expected a budget error, got {err:?}");
            };
            let slack = (chunk + (n - 1)) as u64 * (ARENA_NODE_BYTES + ROW_BYTES);
            assert!(charged > limit, "{charged}");
            assert!(
                charged <= limit + slack,
                "chunk {chunk}: {charged} > {limit} + {slack}"
            );
        }
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
