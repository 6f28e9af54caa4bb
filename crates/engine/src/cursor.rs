//! Demand-driven execution: the pull-based [`RowCursor`] protocol.
//!
//! Every [`PlanOp`] compiles to a *stage* that yields rows on demand through
//! one call, `Stage::pull_chunk(target, out)`. A call either appends between
//! 1 and `target` rows to `out` and returns `Rows`, or appends nothing and
//! returns `Done`: the stage will never produce another row. Because a
//! finished consumer simply stops calling, `Done` also acts *upstream* as
//! cancellation: a saturated `Limit` never pulls its input again, so an
//! in-flight product-automaton frontier suspended mid-layer is dropped
//! without finishing the walk.
//!
//! A stage never hands out more than it was asked for: work that overshoots
//! the target stays inside the stage for the next call. `Expand` keeps its
//! unexpanded input rows and the extra output rows of the row it was
//! expanding; a walk stage keeps extra emissions in its `pending` queue.
//! So the work a consumer causes depends only on how many rows it takes,
//! not on how it asks for them: `next_row` (a one-row call), a cursor-drained
//! `count` and a chunked `execute` of `limit(k)` perform the same
//! expansions. (A `count` that [`crate::count::by_product`] accepts does not
//! run a cursor at all.)
//!
//! The ops that walk per input row — `ExpandAutomaton`, `ExpandWeighted`
//! and `Repeat` — are one stage, `StageOp::Walk`. It owns the input, the
//! `from` mask, the R7/R9 emission budget and the pending queue, pulls input
//! rows one at a time, and steps each row's resumable `Walk` until it has
//! its target, stopping after the entry that reaches it. The walk holds the
//! suspended state: an automaton's `(row, dfa-state)` frontier layer and the
//! next entry to expand (the mid-layer suspension point), a weighted
//! search's priority queue, a repeat's iteration frontier. Both product
//! walks and [`crate::count`]'s layered product cross the CSR through one
//! move step, `move_step`, which applies a state's moves with their
//! hop-budget pruning and counts one expansion per head visited; they
//! differ only in their discipline — a FIFO of arena rows, a best-first
//! heap, a vector of multiplicities.
//!
//! These stages are the only evaluator of every op. The materialized
//! executor ([`crate::exec`]), which the parallel strategy aliases, runs
//! each op as a one-op stage over the whole previous level and drains
//! it before the next op starts; a `Repeat` stage drains its body —
//! compiled once into a stage chain whose source takes each iteration's
//! frontier — one iteration at a time in the same way.
//!
//! A traversal's answer does not depend on the strategy: only its resource
//! bounds (the memory budget, the deadline, a cancel token) may end one
//! strategy's run where another's would have finished.

use std::cell::Cell;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::convert::Infallible;
use std::time::Instant;

use mrpa_core::fxhash::FxHashSet;
use mrpa_core::scratch::ScratchVec;
use mrpa_core::{ArenaWriter, Edge, LabelId, PathArena, VertexId};

use crate::cancel::{CancelToken, Liveness};
use crate::chunk::{ChunkPull, DEFAULT_CHUNK_SIZE};
use crate::csr::CsrTopology;
use crate::error::EngineError;
use crate::exec::{
    eval_until, in_set, initial_rows, materialized, ArenaRow, Counters, ExecConfig, ExecCtx,
    ExecStats, ExecutionStrategy,
};
use crate::plan::{
    AutoMove, AutomatonSpec, Direction, LogicalPlan, PlanOp, Semantics, SemiringKind, WeightSource,
};
use crate::query::{Execution, ResultRow};
use crate::store::GraphSnapshot;
use crate::trace::OpActuals;
use crate::value::Predicate;

/// Emits `row` into `sink` against the R7/R9 emission budget. Returns
/// whether the walk may go on: `false` once the budget is spent, and the
/// walk halts.
fn emit(remaining: &mut Option<usize>, sink: &mut impl Extend<ArenaRow>, row: ArenaRow) -> bool {
    if *remaining == Some(0) {
        return false;
    }
    sink.extend([row]);
    if let Some(n) = remaining {
        *n -= 1;
    }
    *remaining != Some(0)
}

/// Moves queued rows into `out` until it holds `goal` rows.
fn drain_to(queue: &mut VecDeque<ArenaRow>, out: &mut Vec<ArenaRow>, goal: usize) {
    let n = goal.saturating_sub(out.len()).min(queue.len());
    out.extend(queue.drain(..n));
}

// ---------------------------------------------------------------------------
// The adjacency kernels
// ---------------------------------------------------------------------------

/// The product-automaton move step, the one place a walk crosses the CSR.
///
/// For the product entry `(v, state)`, with `hops` edges walked after the
/// move, hands `visit` every head of every move of `state`, in move order
/// and then segment order, with the move and whether a row there can still
/// continue ([`AutomatonSpec::continues`]). With `prune`, a move that
/// [`AutomatonSpec::admits`] rejects is skipped: its target cannot accept
/// within the hop budget. Each head handed to `visit` counts as one
/// expansion. `visit` returns whether to go on; `false` or an error stops
/// the step mid-segment, and the heads after it are neither visited nor
/// counted. Returns whether the step ran to the end.
#[inline]
pub(crate) fn move_step(
    ctx: &ExecCtx<'_>,
    adj: &CsrTopology,
    spec: &AutomatonSpec,
    (v, state): (VertexId, usize),
    hops: usize,
    prune: bool,
    mut visit: impl FnMut(&AutoMove, bool, VertexId) -> Result<bool, EngineError>,
) -> Result<bool, EngineError> {
    for m in spec.moves(state) {
        if prune && !spec.admits(m, hops) {
            continue;
        }
        let survives = spec.continues(m, hops);
        let heads = adj.labeled(v, m.label);
        for (i, &head) in heads.iter().enumerate() {
            let go_on = visit(m, survives, head);
            if !matches!(go_on, Ok(true)) {
                ctx.count_expansions(i + 1);
                return go_on;
            }
        }
        ctx.count_expansions(heads.len());
    }
    Ok(true)
}

/// The adjacency of `v` that an `Expand` step reads, one CSR segment at a
/// time, each segment's entries counted as expansions: `Out` reads the Out
/// CSR, `In` the In CSR (so a result edge `(v, α, h)` walks the stored edge
/// `(h, α, v)` backwards), and `Both` Out, then In. Within a direction,
/// `labels` are visited in the list's order, or for a wildcard every label
/// ascending.
#[inline]
pub(crate) fn expand_segments<E>(
    ctx: &ExecCtx<'_>,
    direction: Direction,
    labels: Option<&[LabelId]>,
    v: VertexId,
    mut visit: impl FnMut(LabelId, &[VertexId]) -> Result<(), E>,
) -> Result<(), E> {
    let directions: &[Direction] = match direction {
        Direction::Out => &[Direction::Out],
        Direction::In => &[Direction::In],
        Direction::Both => &[Direction::Out, Direction::In],
    };
    for &d in directions {
        let csr = ctx.adjacency(d);
        let mut segment = |label: LabelId, heads: &[VertexId]| {
            ctx.count_expansions(heads.len());
            visit(label, heads)
        };
        match labels {
            None => {
                for (label, heads) in csr.segments(v) {
                    segment(label, heads)?;
                }
            }
            Some(labels) => {
                for &label in labels {
                    segment(label, csr.labeled(v, label))?;
                }
            }
        }
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Resumable per-row walks (driven by the walk stage)
// ---------------------------------------------------------------------------

/// The resumable walk a `StageOp::Walk` runs for each input row that passes
/// its `from` mask. The stage owns the emission budget (`remaining`) and the
/// queue of emissions awaiting delivery (`pending`); the walk owns its op's
/// parameters and the current row's suspended state.
#[derive(Debug)]
enum Walk {
    Automaton(AutoWalk),
    Weighted(WeightedWalk),
    Repeat(RepeatWalk),
}

impl Walk {
    /// Begins the walk for `row`, discarding the previous row's state. The
    /// stage has checked the emission budget is not exhausted.
    fn start(
        &mut self,
        row: ArenaRow,
        remaining: &mut Option<usize>,
        pending: &mut VecDeque<ArenaRow>,
    ) {
        match self {
            Walk::Automaton(w) => w.start(row, remaining, pending),
            Walk::Weighted(w) => w.start(row),
            Walk::Repeat(w) => w.start(row),
        }
    }

    /// Whether the walk can produce no further emissions.
    fn finished(&self) -> bool {
        match self {
            Walk::Automaton(w) => w.frontier.is_empty() && w.next.is_empty(),
            Walk::Weighted(w) => w.heap.is_empty(),
            Walk::Repeat(w) => w.done,
        }
    }

    /// One bounded unit of work: emissions go to `out` until it holds
    /// `goal` rows, the rest to `pending`.
    fn step(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        remaining: &mut Option<usize>,
        pending: &mut VecDeque<ArenaRow>,
        out: &mut Vec<ArenaRow>,
        goal: usize,
    ) -> Result<(), EngineError> {
        match self {
            Walk::Automaton(w) => w.advance(ctx, arena, remaining, pending, out, goal),
            Walk::Weighted(w) => w.advance(ctx, arena, remaining, pending),
            Walk::Repeat(w) => w.advance(ctx, arena, pending),
        }
    }
}

/// A breadth-first product-automaton walk per input row, behind
/// [`PlanOp::ExpandAutomaton`]: over `(row, dfa-state)` pairs, suspended
/// between frontier entries.
///
/// * `frontier`/`idx` — the current layer and the next entry to expand;
/// * `next` — the half-built next layer, whose rows have walked `hop` edges.
///
/// The layer buffers are reused from row to row.
#[derive(Debug)]
struct AutoWalk {
    spec: AutomatonSpec,
    to: Option<HashSet<VertexId>>,
    /// Reachability dedup state: reset per input row under
    /// [`Semantics::Reachable`], carried across rows under
    /// [`Semantics::GlobalReachable`], `None` under [`Semantics::Walks`].
    seen: Option<FxHashSet<(VertexId, usize)>>,
    frontier: Vec<(ArenaRow, usize)>,
    next: Vec<(ArenaRow, usize)>,
    hop: usize,
    idx: usize,
}

impl AutoWalk {
    fn new(spec: AutomatonSpec, to: Option<HashSet<VertexId>>) -> AutoWalk {
        let seen = (spec.semantics() == Semantics::GlobalReachable).then(FxHashSet::default);
        AutoWalk {
            spec,
            to,
            seen,
            frontier: Vec::new(),
            next: Vec::new(),
            hop: 1,
            idx: 0,
        }
    }

    /// Seeds the depth-0 emission when the start state accepts. A start pair
    /// the shared seen-set has already reached starts a finished walk (its
    /// expansions and emission happened at first reach).
    fn start(
        &mut self,
        row: ArenaRow,
        remaining: &mut Option<usize>,
        pending: &mut VecDeque<ArenaRow>,
    ) {
        let start = self.spec.start_state();
        self.frontier.clear();
        self.next.clear();
        self.hop = 1;
        self.idx = 0;
        if self.spec.semantics() == Semantics::Reachable {
            // per-row reachability: fresh dedup state per walk
            self.seen = Some(FxHashSet::default());
        }
        if let Some(seen) = &mut self.seen {
            if !seen.insert((row.head, start)) {
                return;
            }
        }
        let accepts = self.spec.is_accept(start) && in_set(&self.to, row.head);
        if accepts && !emit(remaining, pending, row) {
            return;
        }
        if self.spec.max_hops() > 0 {
            self.frontier.push((row, start));
        }
    }

    /// One unit of work. An exhausted layer rolls over: the half-built next
    /// layer becomes current. Otherwise the current layer's entries are
    /// expanded in order, emissions pushed into `out`, until the layer is
    /// exhausted or `out` holds `goal` rows. It stops after the entry that
    /// reaches the goal, whose extra emissions go to `pending`, so a one-row
    /// pull expands no further than the first entry that emits.
    fn advance(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        remaining: &mut Option<usize>,
        pending: &mut VecDeque<ArenaRow>,
        out: &mut Vec<ArenaRow>,
        goal: usize,
    ) -> Result<(), EngineError> {
        if self.idx >= self.frontier.len() {
            std::mem::swap(&mut self.frontier, &mut self.next);
            self.next.clear();
            self.idx = 0;
            self.hop += 1;
            if self.hop > self.spec.max_hops() {
                self.frontier.clear();
            }
            return Ok(());
        }
        let adj = ctx.adjacency(self.spec.direction());
        let mut writer = arena.writer();
        // the move step's hop-budget pruning: a move whose target needs
        // more edges to accept than the budget has left can emit nothing. Under `Walks` and per-row `Reachable` the skipped
        // visits feed nothing else (a later visit to the same `(vertex,
        // state)` of the row is no shallower), but under `GlobalReachable`
        // the seen-set spans rows: a skipped deep visit would let a later
        // row expand that `(vertex, state)` itself, so that case keeps
        // every move.
        let prune = self.spec.semantics() != Semantics::GlobalReachable;
        while self.idx < self.frontier.len() && out.len() < goal {
            let (row, state) = self.frontier[self.idx];
            self.idx += 1;
            let visit = |m: &AutoMove, survives: bool, head: VertexId| {
                if self
                    .seen
                    .as_mut()
                    .is_some_and(|seen| !seen.insert((head, m.target)))
                {
                    return Ok(true);
                }
                let produced = ArenaRow {
                    source: row.source,
                    path: writer.push(row.path, Edge::new(row.head, m.label, head)),
                    head,
                    weight: row.weight,
                };
                if m.accepts && in_set(&self.to, head) && !emit(remaining, out, produced) {
                    return Ok(false);
                }
                if survives {
                    self.next.push((produced, m.target));
                }
                Ok(true)
            };
            let stepped = move_step(
                ctx,
                adj,
                &self.spec,
                (row.head, state),
                self.hop,
                prune,
                visit,
            );
            if !matches!(stepped, Ok(true)) {
                // the emission budget ran out: halt
                self.frontier.clear();
                self.next.clear();
                self.idx = 0;
                break;
            }
        }
        if out.len() > goal {
            pending.extend(out.drain(goal..));
        }
        Ok(())
    }
}

/// A bounded-Kleene iteration per input row, behind [`PlanOp::Repeat`],
/// suspended at iteration granularity: one `advance` emits the rows due at
/// the current iteration count and applies the body once. The body is
/// compiled once into a stage chain that is re-armed with each iteration's
/// frontier.
#[derive(Debug)]
struct RepeatWalk {
    chain: Box<Stage>,
    min: usize,
    max: usize,
    until: Option<(String, Predicate)>,
    frontier: Vec<ArenaRow>,
    k: usize,
    done: bool,
}

impl RepeatWalk {
    fn start(&mut self, row: ArenaRow) {
        self.frontier.clear();
        self.frontier.push(row);
        self.k = 0;
        self.done = false;
    }

    /// One iteration step: emissions for the current count `k` first, then
    /// one application of the body's chain: the chain is re-armed with the
    /// whole frontier as its source rows and drained to `Done` (a
    /// level-at-a-time body application).
    fn advance(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        pending: &mut VecDeque<ArenaRow>,
    ) -> Result<(), EngineError> {
        match &self.until {
            Some(cond) if self.k >= self.min => {
                let mut stay = Vec::with_capacity(self.frontier.len());
                for row in std::mem::take(&mut self.frontier) {
                    if eval_until(ctx.snapshot, cond, row.head) {
                        pending.push_back(row);
                    } else {
                        stay.push(row);
                    }
                }
                self.frontier = stay;
            }
            Some(_) => {}
            None => {
                if self.k >= self.min {
                    pending.extend(self.frontier.iter().copied());
                }
            }
        }
        if self.k == self.max || self.frontier.is_empty() {
            self.done = true;
            return Ok(());
        }
        self.chain.rearm(std::mem::take(&mut self.frontier).into());
        // the body is drained whole; the chunk size only sets how often the
        // growth is charged
        self.chain
            .drain(ctx, arena, DEFAULT_CHUNK_SIZE, &mut self.frontier)?;
        self.k += 1;
        Ok(())
    }
}

/// One prioritized entry of a best-first weighted walk. Ordered so that the
/// std max-heap pops the **smallest key first** (the semiring-normalized
/// priority: smaller = better), with insertion order (`seq`) as the
/// deterministic tie-break — equal-cost paths come out in discovery order,
/// which is identical across all strategies.
#[derive(Debug)]
struct WeightedEntry {
    key: f64,
    seq: u64,
    cost: f64,
    row: ArenaRow,
    state: usize,
    hop: usize,
}

impl PartialEq for WeightedEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key.total_cmp(&other.key).is_eq() && self.seq == other.seq
    }
}

impl Eq for WeightedEntry {}

impl PartialOrd for WeightedEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for WeightedEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // reversed on both fields: BinaryHeap is a max-heap, we want the
        // smallest (key, seq) on top
        other
            .key
            .total_cmp(&self.key)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A **best-first** (Dijkstra-style) product-automaton walk per input row,
/// behind [`PlanOp::ExpandWeighted`].
///
/// The priority queue holds `(cost, row, dfa-state, hops)` entries ordered by
/// the semiring's selection order. One [`WeightedWalk::advance`] pops one
/// entry: the first pop of a product key *settles* it — its cost is
/// semiring-optimal, because extension (`⊗` with a validated weight) never
/// improves a cost — and only settling expands adjacency. An accepting settle
/// whose head has not been emitted yet emits one row carrying the optimal
/// cost, so emissions come out **best-first, one per reachable head**, and a
/// top-k cap (R9) makes pulling the k-th result expand no more of the
/// product space than that result requires.
///
/// * Unbounded (`max_hops == usize::MAX`, the default): settle per
///   `(vertex, state)` — at most `|V|·|states|` settles, so the walk
///   terminates on cyclic graphs without any bound.
/// * Bounded: a cheapest bounded walk may be forced through a vertex whose
///   unbounded-optimal path is too long, so settling is per
///   `(vertex, state, hops)` — the layered product space is a DAG and the
///   same optimality argument applies per layer. The move step's hop-budget
///   pruning drops entries that cannot finish in budget.
#[derive(Debug)]
struct WeightedWalk {
    spec: AutomatonSpec,
    semiring: SemiringKind,
    weight: WeightSource,
    to: Option<HashSet<VertexId>>,
    heap: BinaryHeap<WeightedEntry>,
    settled: FxHashSet<(VertexId, usize, usize)>,
    emitted_heads: FxHashSet<VertexId>,
    seq: u64,
}

impl WeightedWalk {
    /// Nothing is emitted here — even the depth-0 emission of a nullable
    /// pattern goes through the settle-ordered queue.
    fn start(&mut self, row: ArenaRow) {
        let one = self.semiring.one();
        self.heap.clear();
        self.heap.push(WeightedEntry {
            key: self.semiring.key(one),
            seq: 0,
            cost: one,
            row,
            state: self.spec.start_state(),
            hop: 0,
        });
        self.settled = FxHashSet::default();
        self.emitted_heads = FxHashSet::default();
        self.seq = 0;
    }

    /// Pops (and, if fresh, settles and expands) one queue entry — the
    /// bounded-work unit of the walk stage. `remaining` is the op-level R9
    /// top-k budget; reaching zero halts the walk.
    fn advance(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        remaining: &mut Option<usize>,
        pending: &mut VecDeque<ArenaRow>,
    ) -> Result<(), EngineError> {
        let Some(WeightedEntry {
            cost,
            row,
            state,
            hop,
            ..
        }) = self.heap.pop()
        else {
            return Ok(());
        };
        // settle per product key, layered by hop only under a bound
        let bounded = self.spec.max_hops() != usize::MAX;
        let layer = |hop: usize| if bounded { hop } else { 0 };
        if !self.settled.insert((row.head, state, layer(hop))) {
            return Ok(()); // a stale (worse) duplicate of an earlier settle
        }
        // an accepting settle is this head's semiring-optimal match; emit it
        // once per head — a head suppressed by `to` still counts as emitted,
        // so the output equals post-filtering the unrestricted emissions
        if self.spec.is_accept(state)
            && self.emitted_heads.insert(row.head)
            && in_set(&self.to, row.head)
            && !emit(
                remaining,
                pending,
                ArenaRow {
                    weight: Some(cost),
                    ..row
                },
            )
        {
            self.heap.clear();
            return Ok(());
        }
        if hop >= self.spec.max_hops() {
            return Ok(());
        }
        let adj = ctx.adjacency(self.spec.direction());
        let mut writer = arena.writer();
        let visit = |m: &AutoMove, _: bool, head: VertexId| {
            if self.settled.contains(&(head, m.target, layer(hop + 1))) {
                return Ok(true);
            }
            let walked = Edge::new(row.head, m.label, head);
            // property lookup always uses the stored orientation
            let stored = match self.spec.direction() {
                Direction::In => Edge::new(head, m.label, row.head),
                _ => walked,
            };
            let w = self.weight.resolve(ctx.snapshot, &stored, self.semiring)?;
            let cost = self.semiring.extend(cost, w);
            self.seq += 1;
            self.heap.push(WeightedEntry {
                key: self.semiring.key(cost),
                seq: self.seq,
                cost,
                row: ArenaRow {
                    source: row.source,
                    path: writer.push(row.path, walked),
                    head,
                    weight: row.weight,
                },
                state: m.target,
                hop: hop + 1,
            });
            Ok(true)
        };
        move_step(
            ctx,
            adj,
            &self.spec,
            (row.head, state),
            hop + 1,
            true,
            visit,
        )?;
        Ok(())
    }
}

/// The static parameters of an `Expand` op.
#[derive(Debug)]
struct ExpandStep {
    direction: Direction,
    labels: Option<Vec<LabelId>>,
    from: Option<HashSet<VertexId>>,
    to: Option<HashSet<VertexId>>,
}

impl ExpandStep {
    /// Expands `rows` in order, appending each row's expansions to `out`,
    /// until `out` holds `goal` rows; returns how many rows it consumed. A
    /// row is expanded whole, so `out` may end up to one out-degree past the
    /// goal. Each row's edges are read one CSR segment at a time, through
    /// [`expand_segments`]; the produced paths of an `In` step are joint
    /// paths of the reversed graph.
    ///
    /// Kept out of line: inlined into the stage dispatch, this loop ran
    /// measurably slower than the same loop on its own.
    #[inline(never)]
    fn expand(
        &self,
        ctx: &ExecCtx<'_>,
        writer: &mut ArenaWriter<'_>,
        rows: &[ArenaRow],
        out: &mut Vec<ArenaRow>,
        goal: usize,
    ) -> usize {
        let mut consumed = 0;
        for row in rows {
            if out.len() >= goal {
                break;
            }
            consumed += 1;
            if !in_set(&self.from, row.head) {
                continue;
            }
            let visit = |label: LabelId, heads: &[VertexId]| {
                let mut extend = |head: VertexId| ArenaRow {
                    source: row.source,
                    path: writer.push(row.path, Edge::new(row.head, label, head)),
                    head,
                    weight: row.weight,
                };
                match &self.to {
                    None => out.extend(heads.iter().map(|&h| extend(h))),
                    Some(to) => {
                        out.extend(heads.iter().filter(|h| to.contains(h)).map(|&h| extend(h)))
                    }
                }
                Ok::<(), Infallible>(())
            };
            let Ok(()) =
                expand_segments(ctx, self.direction, self.labels.as_deref(), row.head, visit);
        }
        consumed
    }
}
// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// One pull-based stage with its lifetime output count (a profiled run's
/// `rows_out`).
#[derive(Debug)]
pub(crate) struct Stage {
    op: StageOp,
    /// The upstream stage (a source has none).
    input: Option<Box<Stage>>,
    out_count: usize,
    /// Profiling counters, attached only when the cursor was compiled with
    /// [`ExecConfig::profile`]. `None` (the production default) costs one
    /// branch per pull.
    trace: Option<Box<StageTraceRec>>,
}

/// Per-stage profiling counters: plain `Cell`s like [`Counters`], one record
/// per stage instance (so one per level under the batch strategies) — never
/// atomics on the hot path. Time and expansion deltas are recorded
/// *inclusive* of upstream stages (the pull wrapper brackets the whole
/// upstream chain) and converted to exclusive self-values when collected,
/// since a pipeline is a chain.
#[derive(Debug, Default)]
struct StageTraceRec {
    pulls: Cell<u64>,
    chunks: Cell<u64>,
    nanos: Cell<u64>,
    expansions: Cell<u64>,
}

#[derive(Debug)]
enum StageOp {
    /// Fixed start rows (a repeat body's are replaced every iteration).
    Source {
        rows: ScratchVec<ArenaRow>,
        idx: usize,
    },
    Expand {
        step: ExpandStep,
        /// The last input chunk, expanded up to `next_input`.
        input_rows: Vec<ArenaRow>,
        next_input: usize,
        /// Expansions of the last expanded row past the caller's target.
        surplus: VecDeque<ArenaRow>,
        /// The surplus length already charged to a memory budget (its
        /// high-water mark): a surplus row is charged again when it is
        /// delivered, so only growth past the mark is charged.
        surplus_mark: usize,
    },
    /// A per-row walk: an automaton, a weighted search or a repeat.
    Walk {
        from: Option<HashSet<VertexId>>,
        /// The R7/R9 emission budget; `Some(0)` saturates the stage.
        remaining: Option<usize>,
        /// Emissions awaiting delivery.
        pending: VecDeque<ArenaRow>,
        walk: Box<Walk>,
    },
    RestrictVertices {
        vs: HashSet<VertexId>,
    },
    RestrictProperty {
        key: String,
        predicate: Predicate,
    },
    Dedup {
        seen: HashSet<VertexId>,
    },
    Limit {
        remaining: usize,
    },
}

impl StageOp {
    fn walk(from: Option<HashSet<VertexId>>, remaining: Option<usize>, walk: Walk) -> StageOp {
        StageOp::Walk {
            from,
            remaining,
            pending: VecDeque::new(),
            walk: Box::new(walk),
        }
    }
}

impl Stage {
    fn new(op: StageOp, input: Option<Stage>) -> Stage {
        Stage {
            op,
            input: input.map(Box::new),
            out_count: 0,
            trace: None,
        }
    }

    /// Attaches a profiling record to every stage in the chain.
    pub(crate) fn enable_trace(&mut self) {
        self.trace = Some(Box::default());
        if let Some(input) = self.input.as_deref_mut() {
            input.enable_trace();
        }
    }

    /// Whether profiling records are attached.
    pub(crate) fn has_trace(&self) -> bool {
        self.trace.is_some()
    }

    /// Collects per-op actuals source-first (index 0 = source stage),
    /// converting each stage's inclusive counters to exclusive self-values
    /// by subtracting its input's inclusive totals.
    pub(crate) fn collect_trace(&self, out: &mut Vec<OpActuals>) {
        self.collect_trace_inner(out, &mut (0, 0));
    }

    fn collect_trace_inner(&self, out: &mut Vec<OpActuals>, upstream: &mut (u64, u64)) {
        if let Some(input) = self.input.as_deref() {
            input.collect_trace_inner(out, upstream);
        }
        let (nanos, expansions, pulls, chunks) = match &self.trace {
            Some(tr) => (
                tr.nanos.get(),
                tr.expansions.get(),
                tr.pulls.get(),
                tr.chunks.get(),
            ),
            None => (upstream.0, upstream.1, 0, 0),
        };
        out.push(OpActuals {
            rows_out: self.out_count as u64,
            pulls,
            chunks,
            nanos: nanos.saturating_sub(upstream.0),
            expansions: expansions.saturating_sub(upstream.1),
        });
        *upstream = (nanos, expansions);
    }

    /// A pipeline over fixed start rows. Consumes the op sequence — cursor
    /// compilation moves plan ops into the stage tree rather than cloning.
    pub(crate) fn pipeline(start: ScratchVec<ArenaRow>, ops: Vec<PlanOp>) -> Stage {
        Self::build(
            Stage::new(
                StageOp::Source {
                    rows: start,
                    idx: 0,
                },
                None,
            ),
            ops,
        )
    }

    /// One level of the materialized executor: `op` over a source holding
    /// the whole previous level. With `traced`, only the op's stage records
    /// actuals, so [`Stage::level_actuals`] reads its inclusive counters as
    /// its own.
    pub(crate) fn level(rows: ScratchVec<ArenaRow>, op: PlanOp, traced: bool) -> Stage {
        let mut stage = Self::build(Stage::new(StageOp::Source { rows, idx: 0 }, None), [op]);
        if traced {
            stage.trace = Some(Box::default());
        }
        stage
    }

    /// The actuals of a drained [`Stage::level`].
    pub(crate) fn level_actuals(&self) -> OpActuals {
        let mut actuals = Vec::with_capacity(2);
        self.collect_trace(&mut actuals);
        actuals.pop().expect("a level stage has an op")
    }

    fn build(source: Stage, ops: impl IntoIterator<Item = PlanOp>) -> Stage {
        let mut cur = source;
        for op in ops {
            let op = match op {
                PlanOp::Expand {
                    direction,
                    labels,
                    from,
                    to,
                } => StageOp::Expand {
                    step: ExpandStep {
                        direction,
                        labels,
                        from,
                        to,
                    },
                    input_rows: Vec::new(),
                    next_input: 0,
                    surplus: VecDeque::new(),
                    surplus_mark: 0,
                },
                PlanOp::ExpandAutomaton {
                    spec,
                    from,
                    to,
                    limit,
                } => StageOp::walk(from, limit, Walk::Automaton(AutoWalk::new(spec, to))),
                PlanOp::ExpandWeighted {
                    spec,
                    semiring,
                    weight,
                    from,
                    to,
                    k,
                } => {
                    let walk = WeightedWalk {
                        spec,
                        semiring,
                        weight,
                        to,
                        heap: BinaryHeap::new(),
                        settled: FxHashSet::default(),
                        emitted_heads: FxHashSet::default(),
                        seq: 0,
                    };
                    StageOp::walk(from, k, Walk::Weighted(walk))
                }
                PlanOp::Repeat {
                    body,
                    min,
                    max,
                    until,
                } => {
                    let walk = RepeatWalk {
                        chain: Box::new(Stage::pipeline(ScratchVec::new(), body)),
                        min,
                        max,
                        until,
                        frontier: Vec::new(),
                        k: 0,
                        done: true,
                    };
                    StageOp::walk(None, None, Walk::Repeat(walk))
                }
                PlanOp::RestrictVertices(vs) => StageOp::RestrictVertices { vs },
                PlanOp::RestrictProperty { key, predicate } => {
                    StageOp::RestrictProperty { key, predicate }
                }
                PlanOp::DedupByVertex => StageOp::Dedup {
                    seen: HashSet::new(),
                },
                PlanOp::Limit(n) => StageOp::Limit { remaining: n },
            };
            cur = Stage::new(op, Some(cur));
        }
        cur
    }

    /// Re-arms a repeat body for its next input level: its source takes
    /// `rows`. Bodies are validated stateless at plan time, so a body
    /// drained to `Done` holds no other state.
    fn rearm(&mut self, rows: ScratchVec<ArenaRow>) {
        match &mut self.op {
            StageOp::Source { rows: source, idx } => {
                *source = rows;
                *idx = 0;
            }
            _ => self
                .input
                .as_deref_mut()
                .expect("a chain ends at its source")
                .rearm(rows),
        }
    }

    /// Pulls the stage to `Done` in `chunk`-row calls, appending every row to
    /// `out`, and charges memory after every call: how the materialized
    /// executor evaluates one level and a repeat body one iteration.
    pub(crate) fn drain(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        chunk: usize,
        out: &mut Vec<ArenaRow>,
    ) -> Result<(), EngineError> {
        let mut row_mark = out.len();
        loop {
            let res = self.pull_chunk(ctx, arena, chunk, out)?;
            if ctx.budgeted() {
                ctx.charge_arena_growth(arena.node_count())?;
                ctx.charge_row_growth(out.len(), &mut row_mark)?;
            }
            if res != ChunkPull::Rows {
                return Ok(());
            }
        }
    }

    /// Asks the stage for up to `target` rows (`target ≥ 1`), appended to
    /// `out`: the one stage protocol (see the module docs). Every call is a
    /// cancellation point: an expired deadline or a fired
    /// [`CancelToken`](crate::CancelToken) surfaces here as
    /// [`EngineError::Cancelled`], killing suspended frontiers cleanly.
    pub(crate) fn pull_chunk(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        target: usize,
        out: &mut Vec<ArenaRow>,
    ) -> Result<ChunkPull, EngineError> {
        debug_assert!(target >= 1, "a pull asks for at least one row");
        ctx.ensure_alive()?;
        let base = out.len();
        let res = if self.trace.is_some() {
            let before = ctx.counters.expansions.get();
            let started = Instant::now();
            let res = Self::pull_op(
                &mut self.op,
                self.input.as_deref_mut(),
                ctx,
                arena,
                target,
                out,
            );
            let elapsed = started.elapsed().as_nanos() as u64;
            let expanded = ctx.counters.expansions.get() - before;
            let tr = self.trace.as_deref().expect("checked above");
            let calls = if target == 1 { &tr.pulls } else { &tr.chunks };
            calls.set(calls.get() + 1);
            tr.nanos.set(tr.nanos.get() + elapsed);
            tr.expansions.set(tr.expansions.get() + expanded);
            res?
        } else {
            Self::pull_op(
                &mut self.op,
                self.input.as_deref_mut(),
                ctx,
                arena,
                target,
                out,
            )?
        };
        let appended = out.len() - base;
        debug_assert!(
            appended <= target,
            "a stage returned more than it was asked for"
        );
        debug_assert_eq!(appended > 0, res == ChunkPull::Rows);
        self.out_count += appended;
        Ok(res)
    }

    fn pull_op(
        op: &mut StageOp,
        input: Option<&mut Stage>,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        target: usize,
        out: &mut Vec<ArenaRow>,
    ) -> Result<ChunkPull, EngineError> {
        let base = out.len();
        let goal = base + target;
        match (op, input) {
            (StageOp::Source { rows, idx }, _) => {
                if *idx >= rows.len() {
                    return Ok(ChunkPull::Done);
                }
                let end = rows.len().min(*idx + target);
                out.extend_from_slice(&rows[*idx..end]);
                *idx = end;
                Ok(ChunkPull::Rows)
            }
            (
                StageOp::Expand {
                    step,
                    input_rows,
                    next_input,
                    surplus,
                    surplus_mark,
                },
                Some(input),
            ) => {
                drain_to(surplus, out, goal);
                while out.len() < goal {
                    if *next_input == input_rows.len() {
                        input_rows.clear();
                        *next_input = 0;
                        match input.pull_chunk(ctx, arena, goal - out.len(), input_rows)? {
                            ChunkPull::Rows => {}
                            end => return Ok(flush(out.len(), base, end)),
                        }
                    }
                    // one writer acquisition for the input rows this call
                    // expands
                    let mut writer = arena.writer();
                    *next_input +=
                        step.expand(ctx, &mut writer, &input_rows[*next_input..], out, goal);
                    // the last row's expansions past the goal wait for the
                    // next call (the surplus was drained, so it is empty here)
                    if out.len() > goal {
                        surplus.extend(out.drain(goal..));
                    }
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(writer.node_count())?;
                        ctx.charge_row_growth(surplus.len(), surplus_mark)?;
                    }
                }
                Ok(ChunkPull::Rows)
            }
            (
                StageOp::Walk {
                    from,
                    remaining,
                    pending,
                    walk,
                },
                Some(input),
            ) => loop {
                drain_to(pending, out, goal);
                if out.len() >= goal {
                    return Ok(ChunkPull::Rows);
                }
                if !walk.finished() {
                    ctx.ensure_alive()?;
                    walk.step(ctx, arena, remaining, pending, out, goal)?;
                    // per-step budget check (mirrors the batch executor):
                    // dense frontiers die mid-walk
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(arena.node_count())?;
                    }
                    continue;
                }
                if *remaining == Some(0) {
                    return Ok(flush(out.len(), base, ChunkPull::Done));
                }
                // input rows arrive one at a time: each starts a walk whose
                // work dwarfs the call
                match input.pull_chunk(ctx, arena, 1, out)? {
                    ChunkPull::Rows => {}
                    end => return Ok(flush(out.len(), base, end)),
                }
                let row = out.pop().expect("a one-row pull appends one row");
                if in_set(from, row.head) {
                    walk.start(row, remaining, pending);
                }
            },
            (StageOp::RestrictVertices { vs }, Some(input)) => {
                Self::filtered_chunk(input, ctx, arena, goal, out, |row, _| {
                    vs.contains(&row.head)
                })
            }
            (StageOp::RestrictProperty { key, predicate }, Some(input)) => {
                Self::filtered_chunk(input, ctx, arena, goal, out, |row, ctx| {
                    predicate.eval(ctx.snapshot.vertex_property(row.head, key))
                })
            }
            (StageOp::Dedup { seen }, Some(input)) => {
                Self::filtered_chunk(input, ctx, arena, goal, out, |row, _| seen.insert(row.head))
            }
            (StageOp::Limit { remaining }, Some(input)) => {
                if *remaining == 0 {
                    // saturated: never pull upstream again — this is the
                    // `Done` that cancels suspended walks above
                    return Ok(ChunkPull::Done);
                }
                let res = input.pull_chunk(ctx, arena, target.min(*remaining), out)?;
                *remaining -= out.len() - base;
                Ok(res)
            }
            (_, None) => unreachable!("every stage but a source has an input"),
        }
    }

    /// Shared loop for the per-row filter stages
    /// (`RestrictVertices`/`RestrictProperty`/`Dedup`): pulls input chunks
    /// and compacts survivors in place (arena rows are `Copy`), looping until
    /// the goal is met or the input runs out.
    fn filtered_chunk(
        input: &mut Stage,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        goal: usize,
        out: &mut Vec<ArenaRow>,
        mut keep: impl FnMut(&ArenaRow, &ExecCtx<'_>) -> bool,
    ) -> Result<ChunkPull, EngineError> {
        let base = out.len();
        while out.len() < goal {
            let start = out.len();
            let res = input.pull_chunk(ctx, arena, goal - start, out)?;
            let mut kept = start;
            for i in start..out.len() {
                if keep(&out[i], ctx) {
                    out[kept] = out[i];
                    kept += 1;
                }
            }
            out.truncate(kept);
            if res != ChunkPull::Rows {
                return Ok(flush(out.len(), base, res));
            }
        }
        Ok(ChunkPull::Rows)
    }
}

/// `Rows` if the call appended anything past `base`, otherwise `empty`.
fn flush(out_len: usize, base: usize, empty: ChunkPull) -> ChunkPull {
    if out_len > base {
        ChunkPull::Rows
    } else {
        empty
    }
}

// ---------------------------------------------------------------------------
// The public cursor
// ---------------------------------------------------------------------------

/// A demand-driven cursor over a planned traversal: the pull-based execution
/// protocol behind [`Traversal::cursor`](crate::Traversal::cursor) and the
/// non-materializing terminals (`first`, `exists`, and `count` where the
/// plan is not counted by [`crate::count`]'s product).
///
/// Each `next_row` performs only the work needed to surface one row —
/// composite ops (`match_` product automata, `repeat`) suspend their frontier
/// mid-layer between pulls — so `limit(k)`, `first()` and external
/// [`Iterator`] consumption early-exit dense expansions instead of
/// enumerating them. The cursor honours the traversal's
/// [`ExecutionStrategy`]:
///
/// * `Streaming` — fully incremental: `next_row` asks the stage pipeline
///   for one row, [`RowCursor::next_chunk`] for a chunk of rows;
/// * `Materialized` (and its alias `Parallel`) — drains the plan
///   level-at-a-time on the first pull (each op's stage over the whole
///   previous level, see [`crate::exec`]) and then yields from the buffer
///   (early exit comes from the optimizer's limit-pushdown annotations, not
///   from the pull protocol).
///
/// Dropping the cursor drops all suspended state; an error fuses it (further
/// pulls return `Ok(None)`).
#[derive(Debug)]
pub struct RowCursor {
    snapshot: GraphSnapshot,
    /// The optimized plan this cursor executes. The stage trees hold copies
    /// of its ops; the start frontier is read from here, never copied.
    plan: LogicalPlan,
    counters: Counters,
    alive: Liveness,
    inner: Inner,
    /// The execution knobs.
    config: ExecConfig,
    /// Reused transport buffer for the rows a streaming pipeline hands out
    /// (one allocation per cursor, not per call).
    chunk_buf: Vec<ArenaRow>,
    fused: bool,
}

#[derive(Debug)]
enum Inner {
    Pipe {
        arena: PathArena,
        root: Box<Stage>,
    },
    Batch {
        /// The result rows, with the arena their paths live in, filled on
        /// the first pull; a path is materialised only when its row is
        /// delivered into an output buffer. The row buffer and arena go back
        /// to the thread when the cursor drops.
        result: Option<(PathArena, ScratchVec<ArenaRow>)>,
        /// The next undelivered row.
        next: usize,
        /// Per-op actuals of the profiled run (populated on the first pull
        /// when [`ExecConfig::profile`] is set).
        trace: Option<Vec<OpActuals>>,
    },
}

impl RowCursor {
    /// Compiles a cursor with explicit execution knobs (chunk size,
    /// profiling, memory budget). [`Traversal`](crate::pipeline::Traversal)
    /// threads its settings through here.
    pub(crate) fn compile_with_config(
        snapshot: GraphSnapshot,
        plan: LogicalPlan,
        strategy: ExecutionStrategy,
        config: ExecConfig,
    ) -> RowCursor {
        let inner = match strategy {
            ExecutionStrategy::Materialized | ExecutionStrategy::Parallel => Inner::Batch {
                result: None,
                next: 0,
                trace: None,
            },
            ExecutionStrategy::Streaming => {
                let mut root = Stage::pipeline(initial_rows(plan.start()), plan.ops().to_vec());
                if config.profile {
                    root.enable_trace();
                }
                Inner::Pipe {
                    arena: PathArena::new(),
                    root: Box::new(root),
                }
            }
        };
        RowCursor {
            snapshot,
            plan,
            counters: Counters::default(),
            alive: Liveness::default(),
            inner,
            config,
            chunk_buf: Vec::new(),
            fused: false,
        }
    }

    /// Pulls the next result row, or `None` when the traversal is exhausted
    /// (or a `Limit` upstream finished the pipeline). After an error the
    /// cursor is fused and returns `Ok(None)`.
    pub fn next_row(&mut self) -> Result<Option<ResultRow>, EngineError> {
        let mut row = Vec::with_capacity(1);
        self.deliver(1, Some(&mut row))?;
        Ok(row.pop())
    }

    /// Advances past one row without materialising its path (the `count`
    /// terminal's drain). Returns whether a row was consumed.
    pub(crate) fn advance_row(&mut self) -> Result<bool, EngineError> {
        Ok(self.deliver(1, None)? > 0)
    }

    /// The snapshot this cursor executes against (pinned at compile time; a
    /// server can report its generation alongside results).
    pub fn snapshot(&self) -> &GraphSnapshot {
        &self.snapshot
    }

    /// The optimized plan this cursor executes. With [`RowCursor::snapshot`]
    /// it is everything [`crate::plan::estimate`] needs to report on the run
    /// without planning again.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Cancels the cursor when `deadline` passes: every subsequent pull (on
    /// any strategy) fails with
    /// [`EngineError::Cancelled`]. Combines with any token bound — the first
    /// bound to trip wins.
    pub fn set_deadline(&mut self, deadline: std::time::Instant) {
        self.alive.deadline = Some(deadline);
    }

    /// Attaches a shared [`CancelToken`]: cancelling any clone of the token
    /// makes every subsequent pull fail with [`EngineError::Cancelled`].
    pub fn set_cancel_token(&mut self, token: CancelToken) {
        self.alive.token = Some(token);
    }

    /// Pulls the next batch of result rows into `out` (appending), returning
    /// whether anything was appended — the full-drain counterpart of
    /// [`RowCursor::next_row`], asking for the traversal's chunk size
    /// (`Traversal::chunk_size`) instead of one row. Streaming pipelines move
    /// whole row chunks through the stage tree per call (see
    /// [`crate::chunk`]). After an error the cursor is fused, exactly like
    /// `next_row`.
    pub fn next_chunk(&mut self, out: &mut Vec<ResultRow>) -> Result<bool, EngineError> {
        Ok(self.deliver(self.config.chunk, Some(out))? > 0)
    }

    /// Delivers up to `target` rows, materialised into `out` or only counted
    /// when `out` is `None`, and returns how many were delivered. An error
    /// fuses the cursor.
    fn deliver(
        &mut self,
        target: usize,
        out: Option<&mut Vec<ResultRow>>,
    ) -> Result<usize, EngineError> {
        if self.fused {
            return Ok(0);
        }
        self.deliver_inner(target, out)
            .inspect_err(|_| self.fused = true)
    }

    fn deliver_inner(
        &mut self,
        target: usize,
        out: Option<&mut Vec<ResultRow>>,
    ) -> Result<usize, EngineError> {
        let ctx = ExecCtx {
            snapshot: &self.snapshot,
            counters: &self.counters,
            alive: self.alive.active(),
            budget: self.config.budget,
        };
        match &mut self.inner {
            Inner::Pipe { arena, root } => {
                let rows = &mut self.chunk_buf;
                rows.clear();
                if root.pull_chunk(&ctx, arena, target, rows)? != ChunkPull::Rows {
                    return Ok(0);
                }
                if ctx.budgeted() {
                    ctx.charge_bytes(rows.len() as u64 * crate::exec::ROW_BYTES)?;
                }
                if let Some(out) = out {
                    let arena = arena.reader();
                    out.extend(rows.iter().map(|row| row.materialise(&arena)));
                }
                Ok(rows.len())
            }
            Inner::Batch {
                result,
                next,
                trace,
            } => {
                if result.is_none() {
                    let start = self.plan.start();
                    // the start frontier is the trace's first node
                    let mut actuals = self.config.profile.then(|| {
                        vec![OpActuals {
                            rows_out: start.len() as u64,
                            ..OpActuals::default()
                        }]
                    });
                    let arena = PathArena::new();
                    let rows = materialized(
                        &ctx,
                        &arena,
                        initial_rows(start),
                        self.plan.ops(),
                        self.config.chunk,
                        actuals.as_mut(),
                    )?;
                    *trace = actuals;
                    *result = Some((arena, rows));
                }
                let (arena, rows) = result.as_ref().expect("filled above");
                let end = rows.len().min(*next + target);
                if let Some(out) = out {
                    let arena = arena.reader();
                    out.extend(rows[*next..end].iter().map(|row| row.materialise(&arena)));
                }
                let delivered = end - *next;
                *next = end;
                Ok(delivered)
            }
        }
    }

    /// The per-op actuals recorded by a profiled run, source-first (index 0
    /// is the start frontier, aligned with
    /// [`PlanReport::estimates`](crate::plan::PlanReport::estimates)).
    /// `None` unless the cursor was compiled with [`ExecConfig::profile`]
    /// (for the batch strategies, also until the first pull runs the
    /// batch).
    pub(crate) fn op_actuals(&self) -> Option<Vec<OpActuals>> {
        match &self.inner {
            Inner::Pipe { root, .. } => root.has_trace().then(|| {
                let mut out = Vec::new();
                root.collect_trace(&mut out);
                out
            }),
            Inner::Batch { trace, .. } => trace.clone(),
        }
    }

    /// Work counters accumulated so far.
    pub fn stats(&self) -> ExecStats {
        self.counters.stats()
    }

    /// Ends the cursor, keeping what ran: its snapshot, its plan and the
    /// work counters accumulated so far. The suspended stage state and
    /// arenas are dropped here.
    pub(crate) fn finish(self) -> Execution {
        let stats = self.stats();
        Execution::new(self.snapshot, self.plan, stats)
    }
}

/// External iteration: yields `Err` once on failure, then fuses.
impl Iterator for RowCursor {
    type Item = Result<ResultRow, EngineError>;

    fn next(&mut self) -> Option<Self::Item> {
        self.next_row().transpose()
    }
}
