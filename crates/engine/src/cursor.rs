//! Demand-driven execution: the pull-based [`RowCursor`] protocol.
//!
//! Every [`PlanOp`] compiles to a *stage* that yields rows on demand through
//! one call, `Stage::pull_chunk(target, out)`. A call either appends between
//! 1 and `target` rows to `out` and returns `Rows`, or appends nothing and
//! returns
//!
//! * `Done` — the stage will never produce another row. Because a finished
//!   consumer simply stops calling, this also acts *upstream* as
//!   cancellation: a saturated `Limit` never pulls its input again, so an
//!   in-flight product-automaton frontier suspended mid-layer is dropped
//!   without finishing the walk;
//! * `Starved` — the stage's source is a feedable queue (parallel suffix
//!   evaluation) that has no rows *right now*. Ordinary source-backed
//!   pipelines never produce this.
//!
//! A stage never hands out more than it was asked for: work that overshoots
//! the target stays inside the stage for the next call. `Expand` keeps its
//! unexpanded input rows and the extra output rows of the row it was
//! expanding; the walkers keep extra emissions in their `pending` queue.
//! So the work a consumer causes depends only on how many rows it takes,
//! not on how it asks for them: `next_row` (a one-row call), `count` and a
//! chunked `execute` of `limit(k)` perform the same expansions.
//!
//! Composite ops keep resumable per-input-row state. The automaton stage
//! holds an `AutoWalk`: the current `(row, dfa-state)` frontier layer, the
//! index of the next entry to expand (the mid-layer suspension point), the
//! half-built next layer, and the emissions awaiting delivery. One call
//! expands frontier entries until it has its target, stopping after the
//! entry that reaches it. The same walker, run with no target, is the
//! materialized executor's batch evaluation, so both share one definition
//! of the walk (order, caps, semantics, emission limits).
//!
//! `max_intermediate` is enforced per stage: each stage counts the rows it
//! has emitted over its lifetime and fails once the count exceeds the cap.
//! For top-level ops this is exactly the materialized executor's per-level
//! check (a top-level op runs once, so its cumulative output *is* its level),
//! making the cap strategy-agnostic.

use std::cell::Cell;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::time::Instant;

use mrpa_core::fxhash::FxHashSet;
use mrpa_core::{ArenaWriter, Edge, IdForwarder, PathArena, VertexId};

use crate::cancel::{CancelToken, Liveness};
use crate::chunk::ChunkPull;
use crate::error::EngineError;
use crate::exec::{
    apply_ops, check_cap, eval_until, for_each_expansion_edge, in_set, initial_rows, materialized,
    materialized_traced, ArenaRow, Counters, ExecConfig, ExecCtx, ExecStats, ExecutionStrategy,
};
use crate::plan::{
    AutomatonSpec, Direction, LogicalPlan, PlanOp, Semantics, SemiringKind, WeightSource,
};
use crate::query::{Execution, ResultRow};
use crate::store::GraphSnapshot;
use crate::trace::OpActuals;
use crate::value::Predicate;

use mrpa_core::LabelId;

/// Consumes one unit of an optional emission budget. Returns whether the
/// emission is allowed.
fn take_budget(remaining: &mut Option<usize>) -> bool {
    match remaining {
        None => true,
        Some(0) => false,
        Some(n) => {
            *n -= 1;
            true
        }
    }
}

/// Moves queued rows into `out` until it holds `goal` rows (batch
/// evaluation passes `usize::MAX`: everything).
fn drain_to(queue: &mut VecDeque<ArenaRow>, out: &mut Vec<ArenaRow>, goal: usize) {
    let n = goal.saturating_sub(out.len()).min(queue.len());
    out.extend(queue.drain(..n));
}

// ---------------------------------------------------------------------------
// Resumable walkers (shared by batch evaluation and cursor stages)
// ---------------------------------------------------------------------------

/// The frontier dedup set of (global) reachability evaluation: `(vertex,
/// dfa-state)` pairs already reached. Owned by the *caller* of the walk —
/// created per input row under [`Semantics::Reachable`], shared across every
/// input row of the op under [`Semantics::GlobalReachable`], absent under
/// [`Semantics::Walks`].
pub(crate) type SeenSet = FxHashSet<(VertexId, usize)>;

/// A resumable product-automaton walk for **one input row**: breadth-first
/// over `(row, dfa-state)` pairs, suspended between frontier entries.
///
/// * `frontier`/`idx` — the current layer and the next entry to expand;
/// * `next` — the half-built next layer;
/// * `pending` — emissions generated but not yet handed out.
///
/// Reachability dedup state lives outside the walk (see [`SeenSet`]) so one
/// set can span input rows under [`Semantics::GlobalReachable`].
#[derive(Debug)]
pub(crate) struct AutoWalk {
    frontier: Vec<(ArenaRow, usize)>,
    next: Vec<(ArenaRow, usize)>,
    hop: usize,
    idx: usize,
    pending: VecDeque<ArenaRow>,
}

impl AutoWalk {
    /// Begins the walk for one input row. The caller has already applied the
    /// `from` restriction and checked the emission budget is non-empty. Seeds
    /// the depth-0 emission when the start state accepts. A start pair the
    /// shared seen-set has already reached yields an immediately-finished
    /// walk (its expansions and emission happened at first reach).
    pub(crate) fn start(
        spec: &AutomatonSpec,
        to: &Option<HashSet<VertexId>>,
        row: ArenaRow,
        remaining: &mut Option<usize>,
        seen: Option<&mut SeenSet>,
    ) -> AutoWalk {
        if let Some(seen) = seen {
            if !seen.insert((row.head, spec.start_state())) {
                return AutoWalk {
                    frontier: Vec::new(),
                    next: Vec::new(),
                    hop: 1,
                    idx: 0,
                    pending: VecDeque::new(),
                };
            }
        }
        let mut pending = VecDeque::new();
        if spec.is_accept(spec.start_state()) && in_set(to, row.head) && take_budget(remaining) {
            pending.push_back(row);
        }
        let halted = matches!(remaining, Some(0));
        let frontier = if spec.max_hops() == 0 || halted {
            Vec::new()
        } else {
            vec![(row, spec.start_state())]
        };
        AutoWalk {
            frontier,
            next: Vec::new(),
            hop: 1,
            idx: 0,
            pending,
        }
    }

    /// Moves pending emissions into `out` until it holds `goal` rows.
    pub(crate) fn drain_pending_into(&mut self, out: &mut Vec<ArenaRow>, goal: usize) {
        drain_to(&mut self.pending, out, goal);
    }

    /// Whether the walk can produce no further emissions.
    pub(crate) fn finished(&self) -> bool {
        self.pending.is_empty() && self.frontier.is_empty() && self.next.is_empty()
    }

    fn halt(&mut self) {
        self.frontier.clear();
        self.next.clear();
        self.idx = 0;
    }

    /// Whether the current layer is exhausted and the walk must roll over to
    /// the next one before another entry can be expanded.
    pub(crate) fn needs_roll(&self) -> bool {
        self.idx >= self.frontier.len()
    }

    /// Rolls the layer over: the half-built next layer becomes current. This
    /// is where the intermediate-size cap is checked — `delivered` (rows the
    /// enclosing op already handed out) plus the pending emissions plus the
    /// live frontier, exactly the materialized executor's per-layer check.
    pub(crate) fn roll(
        &mut self,
        ctx: &ExecCtx<'_>,
        spec: &AutomatonSpec,
        delivered: usize,
    ) -> Result<(), EngineError> {
        self.frontier = std::mem::take(&mut self.next);
        self.idx = 0;
        self.hop += 1;
        check_cap(
            self.frontier.len() + delivered + self.pending.len(),
            ctx.cap,
        )?;
        if self.hop > spec.max_hops() {
            self.frontier.clear();
        }
        Ok(())
    }

    /// Expands the current layer's frontier entries in order, pushing
    /// emissions into `out`, until the layer is exhausted or `out` holds
    /// `goal` rows. It stops after the entry that reaches the goal; that
    /// entry's extra emissions move to the pending queue. The materialized
    /// executor passes `usize::MAX` and so expands the whole layer; a cursor
    /// stage passes its target, so a one-row pull expands no further than
    /// the first entry that emits. Must not be called when
    /// [`AutoWalk::needs_roll`] — entries only exist mid-layer.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn run_layer(
        &mut self,
        ctx: &ExecCtx<'_>,
        writer: &mut ArenaWriter<'_>,
        spec: &AutomatonSpec,
        to: &Option<HashSet<VertexId>>,
        remaining: &mut Option<usize>,
        mut seen: Option<&mut SeenSet>,
        out: &mut Vec<ArenaRow>,
        goal: usize,
    ) {
        let adj = ctx.adjacency(spec.direction());
        let max_hops = spec.max_hops();
        'entries: while self.idx < self.frontier.len() && out.len() < goal {
            let (row, state) = self.frontier[self.idx];
            self.idx += 1;
            for &m in spec.moves(state) {
                // a row only joins the next frontier if it can still make
                // progress: there are hops left and the target state moves
                // (both facts precomputed into the move table at compile time)
                let survives = self.hop < max_hops && m.target_live;
                for e in adj.labeled(row.head, m.label) {
                    ctx.count_expansion();
                    if let Some(seen) = seen.as_deref_mut() {
                        if !seen.insert((e.head, m.target)) {
                            continue;
                        }
                    }
                    let produced = ArenaRow {
                        source: row.source,
                        path: writer.append(row.path, e),
                        head: e.head,
                        weight: row.weight,
                    };
                    if m.accepts && in_set(to, e.head) {
                        if take_budget(remaining) {
                            out.push(produced);
                            if matches!(remaining, Some(0)) {
                                self.halt();
                                break 'entries;
                            }
                        } else {
                            self.halt();
                            break 'entries;
                        }
                    }
                    if survives {
                        self.next.push((produced, m.target));
                    }
                }
            }
        }
        if out.len() > goal {
            self.pending.extend(out.drain(goal..));
        }
    }
}

/// The static parameters of a `Repeat` op, borrowed from the plan.
#[derive(Clone, Copy)]
pub(crate) struct RepeatSpec<'a> {
    pub(crate) body: &'a [PlanOp],
    pub(crate) min: usize,
    pub(crate) max: usize,
    pub(crate) until: Option<&'a (String, Predicate)>,
}

/// A resumable bounded-Kleene iteration for **one input row**, suspended at
/// iteration granularity: one `advance` emits the rows due at the current
/// iteration count and applies the body once.
#[derive(Debug)]
pub(crate) struct RepeatWalk {
    frontier: Vec<ArenaRow>,
    k: usize,
    pending: VecDeque<ArenaRow>,
    done: bool,
}

impl RepeatWalk {
    pub(crate) fn new(row: ArenaRow) -> RepeatWalk {
        RepeatWalk {
            frontier: vec![row],
            k: 0,
            pending: VecDeque::new(),
            done: false,
        }
    }

    pub(crate) fn finished(&self) -> bool {
        self.pending.is_empty() && self.done
    }

    /// Moves pending emissions into `out` until it holds `goal` rows.
    pub(crate) fn drain_pending_into(&mut self, out: &mut Vec<ArenaRow>, goal: usize) {
        drain_to(&mut self.pending, out, goal);
    }

    /// One iteration step, replicating the materialized order exactly:
    /// emissions for the current count `k` first, then one body application.
    pub(crate) fn advance(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        spec: RepeatSpec<'_>,
        delivered: usize,
    ) -> Result<(), EngineError> {
        let RepeatSpec {
            body,
            min,
            max,
            until,
        } = spec;
        if self.done {
            return Ok(());
        }
        match until {
            Some(cond) if self.k >= min => {
                let mut stay = Vec::with_capacity(self.frontier.len());
                for row in std::mem::take(&mut self.frontier) {
                    if eval_until(ctx.snapshot, cond, row.head) {
                        self.pending.push_back(row);
                    } else {
                        stay.push(row);
                    }
                }
                self.frontier = stay;
            }
            Some(_) => {}
            None => {
                if self.k >= min {
                    self.pending.extend(self.frontier.iter().copied());
                }
            }
        }
        if self.k == max || self.frontier.is_empty() {
            self.done = true;
            return Ok(());
        }
        self.frontier = apply_ops(ctx, arena, std::mem::take(&mut self.frontier), body)?;
        check_cap(
            self.frontier.len() + delivered + self.pending.len(),
            ctx.cap,
        )?;
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

/// A resumable **best-first** (Dijkstra-style) product-automaton walk for one
/// input row, behind [`PlanOp::ExpandWeighted`].
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
///   same optimality argument applies per layer. The DFA's
///   distance-to-accept hook prunes entries that cannot finish in budget.
#[derive(Debug)]
pub(crate) struct WeightedWalk {
    heap: BinaryHeap<WeightedEntry>,
    settled: FxHashSet<(VertexId, usize, usize)>,
    emitted_heads: FxHashSet<VertexId>,
    pending: VecDeque<ArenaRow>,
    seq: u64,
    bounded: bool,
}

impl WeightedWalk {
    /// Begins the walk for one input row (the caller has applied the `from`
    /// restriction). Nothing is emitted here — even the depth-0 emission of a
    /// nullable pattern goes through the settle-ordered queue.
    pub(crate) fn start(spec: &AutomatonSpec, semiring: SemiringKind, row: ArenaRow) -> Self {
        let one = semiring.one();
        let mut heap = BinaryHeap::new();
        heap.push(WeightedEntry {
            key: semiring.key(one),
            seq: 0,
            cost: one,
            row,
            state: spec.start_state(),
            hop: 0,
        });
        WeightedWalk {
            heap,
            settled: FxHashSet::default(),
            emitted_heads: FxHashSet::default(),
            pending: VecDeque::new(),
            seq: 0,
            bounded: spec.max_hops() != usize::MAX,
        }
    }

    /// Moves pending emissions into `out` until it holds `goal` rows.
    pub(crate) fn drain_pending_into(&mut self, out: &mut Vec<ArenaRow>, goal: usize) {
        drain_to(&mut self.pending, out, goal);
    }

    /// Whether the walk can produce no further emissions.
    pub(crate) fn finished(&self) -> bool {
        self.pending.is_empty() && self.heap.is_empty()
    }

    fn halt(&mut self) {
        self.heap.clear();
    }

    fn settle_key(&self, v: VertexId, state: usize, hop: usize) -> (VertexId, usize, usize) {
        (v, state, if self.bounded { hop } else { 0 })
    }

    /// Pops (and, if fresh, settles and expands) one queue entry — the
    /// bounded-work unit of the lazy cursor stage. `remaining` is the
    /// op-level R9 top-k budget; reaching zero halts the walk.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        spec: &AutomatonSpec,
        semiring: SemiringKind,
        weight: &WeightSource,
        to: &Option<HashSet<VertexId>>,
        delivered: usize,
        remaining: &mut Option<usize>,
    ) -> Result<(), EngineError> {
        let Some(entry) = self.heap.pop() else {
            return Ok(());
        };
        let WeightedEntry {
            cost,
            row,
            state,
            hop,
            ..
        } = entry;
        if !self.settled.insert(self.settle_key(row.head, state, hop)) {
            return Ok(()); // a stale (worse) duplicate of an earlier settle
        }
        // an accepting settle is this head's semiring-optimal match; emit it
        // once per head — a head suppressed by `to` still counts as emitted,
        // so the output equals post-filtering the unrestricted emissions
        if spec.is_accept(state) && self.emitted_heads.insert(row.head) && in_set(to, row.head) {
            let mut emitted = row;
            emitted.weight = Some(cost);
            if take_budget(remaining) {
                self.pending.push_back(emitted);
                if matches!(remaining, Some(0)) {
                    self.halt();
                    return Ok(());
                }
            } else {
                self.halt();
                return Ok(());
            }
        }
        if hop >= spec.max_hops() {
            return Ok(());
        }
        let adj = ctx.adjacency(spec.direction());
        let mut writer = arena.writer();
        for &m in spec.moves(state) {
            // admissible bound pruning: any completion from the move's target
            // needs at least `min_edges_to_accept` more edges (precomputed at
            // compile time; moves into states that can never accept were
            // already pruned from the table)
            if self.bounded && hop + 1 + m.min_edges_to_accept > spec.max_hops() {
                continue;
            }
            for e in adj.labeled(row.head, m.label) {
                ctx.count_expansion();
                if self
                    .settled
                    .contains(&self.settle_key(e.head, m.target, hop + 1))
                {
                    continue;
                }
                // property lookup always uses the stored orientation
                let stored = match spec.direction() {
                    Direction::In => Edge::new(e.head, e.label, e.tail),
                    _ => e,
                };
                let w = weight.resolve(ctx.snapshot, &stored, semiring)?;
                let cost2 = semiring.extend(cost, w);
                self.seq += 1;
                self.heap.push(WeightedEntry {
                    key: semiring.key(cost2),
                    seq: self.seq,
                    cost: cost2,
                    row: ArenaRow {
                        source: row.source,
                        path: writer.append(row.path, e),
                        head: e.head,
                        weight: row.weight,
                    },
                    state: m.target,
                    hop: hop + 1,
                });
            }
        }
        check_cap(self.heap.len() + delivered + self.pending.len(), ctx.cap)?;
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Stages
// ---------------------------------------------------------------------------

/// One pull-based stage with its lifetime output counter (the cap check).
#[derive(Debug)]
pub(crate) struct Stage {
    op: StageOp,
    out_count: usize,
    /// Profiling counters, attached only when the cursor was compiled with
    /// [`ExecConfig::profile`]. `None` (the production default) costs one
    /// branch per pull.
    trace: Option<Box<StageTraceRec>>,
}

/// Per-stage profiling counters: plain `Cell`s like [`Counters`], one record
/// per stage instance (so one per partition under the parallel strategy),
/// summed at collection time — never atomics on the hot path. Time and
/// counter deltas are recorded *inclusive* of upstream stages (the pull
/// wrapper brackets the whole upstream chain) and converted to exclusive
/// self-values when collected, since a pipeline is a chain.
#[derive(Debug, Default)]
struct StageTraceRec {
    pulls: Cell<u64>,
    chunks: Cell<u64>,
    nanos: Cell<u64>,
    expansions: Cell<u64>,
    interned: Cell<u64>,
}

#[derive(Debug)]
enum StageOp {
    /// Fixed start rows.
    Source {
        rows: Vec<ArenaRow>,
        idx: usize,
    },
    /// Feedable source for the parallel suffix: rows arrive in batches.
    Feed {
        queue: VecDeque<ArenaRow>,
        closed: bool,
    },
    Expand {
        input: Box<Stage>,
        direction: Direction,
        labels: Option<Vec<LabelId>>,
        from: Option<HashSet<VertexId>>,
        to: Option<HashSet<VertexId>>,
        /// The last input chunk, expanded up to `next_input`.
        input_rows: Vec<ArenaRow>,
        next_input: usize,
        /// Expansions of the last expanded row past the caller's target.
        surplus: VecDeque<ArenaRow>,
    },
    Automaton {
        input: Box<Stage>,
        spec: AutomatonSpec,
        from: Option<HashSet<VertexId>>,
        to: Option<HashSet<VertexId>>,
        /// The R7 emission budget; `Some(0)` saturates the stage.
        remaining: Option<usize>,
        walk: Option<AutoWalk>,
        /// Reachability dedup state: reset per input row under
        /// [`Semantics::Reachable`], carried across rows under
        /// [`Semantics::GlobalReachable`], `None` under [`Semantics::Walks`].
        seen: Option<SeenSet>,
    },
    Weighted {
        input: Box<Stage>,
        spec: AutomatonSpec,
        semiring: SemiringKind,
        weight: WeightSource,
        from: Option<HashSet<VertexId>>,
        to: Option<HashSet<VertexId>>,
        /// The R9 top-k budget; `Some(0)` saturates the stage.
        remaining: Option<usize>,
        walk: Option<WeightedWalk>,
    },
    Repeat {
        input: Box<Stage>,
        body: Vec<PlanOp>,
        min: usize,
        max: usize,
        until: Option<(String, Predicate)>,
        walk: Option<RepeatWalk>,
    },
    RestrictVertices {
        input: Box<Stage>,
        vs: HashSet<VertexId>,
    },
    RestrictProperty {
        input: Box<Stage>,
        key: String,
        predicate: Predicate,
    },
    Dedup {
        input: Box<Stage>,
        seen: HashSet<VertexId>,
    },
    Limit {
        input: Box<Stage>,
        remaining: usize,
    },
}

impl Stage {
    fn new(op: StageOp) -> Stage {
        Stage {
            op,
            out_count: 0,
            trace: None,
        }
    }

    /// The stage's upstream input, if any (sources have none).
    fn input_ref(&self) -> Option<&Stage> {
        match &self.op {
            StageOp::Source { .. } | StageOp::Feed { .. } => None,
            StageOp::Expand { input, .. }
            | StageOp::Automaton { input, .. }
            | StageOp::Weighted { input, .. }
            | StageOp::Repeat { input, .. }
            | StageOp::RestrictVertices { input, .. }
            | StageOp::RestrictProperty { input, .. }
            | StageOp::Dedup { input, .. }
            | StageOp::Limit { input, .. } => Some(input),
        }
    }

    fn input_mut(&mut self) -> Option<&mut Stage> {
        match &mut self.op {
            StageOp::Source { .. } | StageOp::Feed { .. } => None,
            StageOp::Expand { input, .. }
            | StageOp::Automaton { input, .. }
            | StageOp::Weighted { input, .. }
            | StageOp::Repeat { input, .. }
            | StageOp::RestrictVertices { input, .. }
            | StageOp::RestrictProperty { input, .. }
            | StageOp::Dedup { input, .. }
            | StageOp::Limit { input, .. } => Some(input),
        }
    }

    /// Attaches a profiling record to every stage in the chain.
    pub(crate) fn enable_trace(&mut self) {
        self.trace = Some(Box::default());
        if let Some(input) = self.input_mut() {
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
        self.collect_trace_inner(out, &mut (0, 0, 0));
    }

    fn collect_trace_inner(&self, out: &mut Vec<OpActuals>, upstream: &mut (u64, u64, u64)) {
        if let Some(input) = self.input_ref() {
            input.collect_trace_inner(out, upstream);
        }
        let (nanos, expansions, interned, pulls, chunks) = match &self.trace {
            Some(tr) => (
                tr.nanos.get(),
                tr.expansions.get(),
                tr.interned.get(),
                tr.pulls.get(),
                tr.chunks.get(),
            ),
            None => (upstream.0, upstream.1, upstream.2, 0, 0),
        };
        out.push(OpActuals {
            rows_out: self.out_count as u64,
            pulls,
            chunks,
            nanos: nanos.saturating_sub(upstream.0),
            expansions: expansions.saturating_sub(upstream.1),
            interned: interned.saturating_sub(upstream.2),
        });
        *upstream = (nanos, expansions, interned);
    }

    /// A pipeline over fixed start rows. Consumes the op sequence — cursor
    /// compilation moves plan ops into the stage tree rather than cloning.
    pub(crate) fn pipeline(start: Vec<ArenaRow>, ops: Vec<PlanOp>) -> Stage {
        Self::build(
            Stage::new(StageOp::Source {
                rows: start,
                idx: 0,
            }),
            ops,
        )
    }

    /// A pipeline over a feedable source (parallel suffix evaluation).
    pub(crate) fn fed_pipeline(ops: Vec<PlanOp>) -> Stage {
        Self::build(
            Stage::new(StageOp::Feed {
                queue: VecDeque::new(),
                closed: false,
            }),
            ops,
        )
    }

    fn build(source: Stage, ops: Vec<PlanOp>) -> Stage {
        let mut cur = source;
        for op in ops {
            let op = match op {
                PlanOp::Expand {
                    direction,
                    labels,
                    from,
                    to,
                } => StageOp::Expand {
                    input: Box::new(cur),
                    direction,
                    labels,
                    from,
                    to,
                    input_rows: Vec::new(),
                    next_input: 0,
                    surplus: VecDeque::new(),
                },
                PlanOp::ExpandAutomaton {
                    spec,
                    from,
                    to,
                    limit,
                } => {
                    let seen = match spec.semantics() {
                        Semantics::GlobalReachable => Some(SeenSet::default()),
                        Semantics::Walks | Semantics::Reachable => None,
                    };
                    StageOp::Automaton {
                        input: Box::new(cur),
                        spec,
                        from,
                        to,
                        remaining: limit,
                        walk: None,
                        seen,
                    }
                }
                PlanOp::ExpandWeighted {
                    spec,
                    semiring,
                    weight,
                    from,
                    to,
                    k,
                } => StageOp::Weighted {
                    input: Box::new(cur),
                    spec,
                    semiring,
                    weight,
                    from,
                    to,
                    remaining: k,
                    walk: None,
                },
                PlanOp::Repeat {
                    body,
                    min,
                    max,
                    until,
                } => StageOp::Repeat {
                    input: Box::new(cur),
                    body,
                    min,
                    max,
                    until,
                    walk: None,
                },
                PlanOp::RestrictVertices(vs) => StageOp::RestrictVertices {
                    input: Box::new(cur),
                    vs,
                },
                PlanOp::RestrictProperty { key, predicate } => StageOp::RestrictProperty {
                    input: Box::new(cur),
                    key,
                    predicate,
                },
                PlanOp::DedupByVertex => StageOp::Dedup {
                    input: Box::new(cur),
                    seen: HashSet::new(),
                },
                PlanOp::Limit(n) => StageOp::Limit {
                    input: Box::new(cur),
                    remaining: n,
                },
            };
            cur = Stage::new(op);
        }
        cur
    }

    /// The innermost source stage (for feeding the parallel suffix).
    fn source_mut(&mut self) -> &mut Stage {
        if matches!(self.op, StageOp::Source { .. } | StageOp::Feed { .. }) {
            return self;
        }
        match &mut self.op {
            StageOp::Expand { input, .. }
            | StageOp::Automaton { input, .. }
            | StageOp::Weighted { input, .. }
            | StageOp::Repeat { input, .. }
            | StageOp::RestrictVertices { input, .. }
            | StageOp::RestrictProperty { input, .. }
            | StageOp::Dedup { input, .. }
            | StageOp::Limit { input, .. } => input.source_mut(),
            StageOp::Source { .. } | StageOp::Feed { .. } => unreachable!(),
        }
    }

    /// Enqueues rows into the feedable source.
    pub(crate) fn feed(&mut self, rows: impl IntoIterator<Item = ArenaRow>) {
        if let StageOp::Feed { queue, .. } = &mut self.source_mut().op {
            queue.extend(rows);
        } else {
            unreachable!("feed called on a pipeline without a Feed source");
        }
    }

    /// Marks the feedable source as complete: once its queue drains, the
    /// pipeline reports `Done` instead of `Starved`.
    pub(crate) fn close_feed(&mut self) {
        if let StageOp::Feed { closed, .. } = &mut self.source_mut().op {
            *closed = true;
        }
    }

    /// Asks the stage for up to `target` rows (`target ≥ 1`), appended to
    /// `out`: the one stage protocol (see the module docs). Counts the
    /// appended rows against the stage's lifetime cap. Every call is a
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
            let before = ctx.counters.stats();
            let started = Instant::now();
            let res = Self::pull_op(&mut self.op, self.out_count, ctx, arena, target, out);
            let elapsed = started.elapsed().as_nanos() as u64;
            let after = ctx.counters.stats();
            let tr = self.trace.as_deref().expect("checked above");
            let calls = if target == 1 { &tr.pulls } else { &tr.chunks };
            calls.set(calls.get() + 1);
            tr.nanos.set(tr.nanos.get() + elapsed);
            tr.expansions
                .set(tr.expansions.get() + (after.expansions - before.expansions));
            tr.interned
                .set(tr.interned.get() + (after.interned_nodes - before.interned_nodes));
            res?
        } else {
            Self::pull_op(&mut self.op, self.out_count, ctx, arena, target, out)?
        };
        let appended = out.len() - base;
        debug_assert!(
            appended <= target,
            "a stage returned more than it was asked for"
        );
        debug_assert_eq!(appended > 0, res == ChunkPull::Rows);
        self.out_count += appended;
        check_cap(self.out_count, ctx.cap)?;
        Ok(res)
    }

    fn pull_op(
        op: &mut StageOp,
        delivered: usize,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        target: usize,
        out: &mut Vec<ArenaRow>,
    ) -> Result<ChunkPull, EngineError> {
        let base = out.len();
        let goal = base + target;
        match op {
            StageOp::Source { rows, idx } => {
                if *idx >= rows.len() {
                    return Ok(ChunkPull::Done);
                }
                let end = rows.len().min(*idx + target);
                out.extend_from_slice(&rows[*idx..end]);
                *idx = end;
                Ok(ChunkPull::Rows)
            }
            StageOp::Feed { queue, closed } => {
                if queue.is_empty() {
                    return Ok(if *closed {
                        ChunkPull::Done
                    } else {
                        ChunkPull::Starved
                    });
                }
                let n = queue.len().min(target);
                out.extend(queue.drain(..n));
                Ok(ChunkPull::Rows)
            }
            StageOp::Expand {
                input,
                direction,
                labels,
                from,
                to,
                input_rows,
                next_input,
                surplus,
            } => {
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
                    while *next_input < input_rows.len() && out.len() < goal {
                        let row = input_rows[*next_input];
                        *next_input += 1;
                        if !in_set(from, row.head) {
                            continue;
                        }
                        for_each_expansion_edge(ctx, *direction, row.head, labels, |e| {
                            ctx.count_expansion();
                            if !in_set(to, e.head) {
                                return;
                            }
                            out.push(ArenaRow {
                                source: row.source,
                                path: writer.append(row.path, e),
                                head: e.head,
                                weight: row.weight,
                            });
                        });
                    }
                    // the last row's expansions past the goal wait for the
                    // next call (the surplus was drained, so it is empty here)
                    if out.len() > goal {
                        surplus.extend(out.drain(goal..));
                    }
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(writer.node_count())?;
                        ctx.charge_bytes(surplus.len() as u64 * crate::exec::ROW_BYTES)?;
                    }
                }
                Ok(ChunkPull::Rows)
            }
            StageOp::Automaton {
                input,
                spec,
                from,
                to,
                remaining,
                walk,
                seen,
            } => loop {
                if let Some(w) = walk {
                    w.drain_pending_into(out, goal);
                    if out.len() >= goal {
                        return Ok(ChunkPull::Rows);
                    }
                    if w.finished() {
                        *walk = None;
                        continue;
                    }
                    ctx.ensure_alive()?;
                    if w.needs_roll() {
                        w.roll(ctx, spec, delivered + (out.len() - base))?;
                    } else {
                        let mut writer = arena.writer();
                        w.run_layer(
                            ctx,
                            &mut writer,
                            spec,
                            to,
                            remaining,
                            seen.as_mut(),
                            out,
                            goal,
                        );
                        // per-layer budget check (mirrors the batch
                        // executor): dense frontiers die mid-walk
                        if ctx.budgeted() {
                            ctx.charge_arena_growth(writer.node_count())?;
                        }
                    }
                    continue;
                }
                if matches!(remaining, Some(0)) {
                    return Ok(flush(out.len(), base, ChunkPull::Done));
                }
                // input rows arrive one at a time: each starts a walk whose
                // work dwarfs the call
                match input.pull_chunk(ctx, arena, 1, out)? {
                    ChunkPull::Rows => {}
                    end => return Ok(flush(out.len(), base, end)),
                }
                let row = out.pop().expect("a one-row pull appends one row");
                if !in_set(from, row.head) {
                    continue;
                }
                if spec.semantics() == Semantics::Reachable {
                    // per-row reachability: fresh dedup state per walk
                    *seen = Some(SeenSet::default());
                }
                *walk = Some(AutoWalk::start(spec, to, row, remaining, seen.as_mut()));
            },
            StageOp::Weighted {
                input,
                spec,
                semiring,
                weight,
                from,
                to,
                remaining,
                walk,
            } => loop {
                if let Some(w) = walk {
                    w.drain_pending_into(out, goal);
                    if out.len() >= goal {
                        return Ok(ChunkPull::Rows);
                    }
                    if w.finished() {
                        *walk = None;
                        continue;
                    }
                    ctx.ensure_alive()?;
                    w.advance(
                        ctx,
                        arena,
                        spec,
                        *semiring,
                        weight,
                        to,
                        delivered + (out.len() - base),
                        remaining,
                    )?;
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(arena.node_count())?;
                    }
                    continue;
                }
                if matches!(remaining, Some(0)) {
                    return Ok(flush(out.len(), base, ChunkPull::Done));
                }
                match input.pull_chunk(ctx, arena, 1, out)? {
                    ChunkPull::Rows => {}
                    end => return Ok(flush(out.len(), base, end)),
                }
                let row = out.pop().expect("a one-row pull appends one row");
                if !in_set(from, row.head) {
                    continue;
                }
                *walk = Some(WeightedWalk::start(spec, *semiring, row));
            },
            StageOp::Repeat {
                input,
                body,
                min,
                max,
                until,
                walk,
            } => loop {
                if let Some(w) = walk {
                    w.drain_pending_into(out, goal);
                    if out.len() >= goal {
                        return Ok(ChunkPull::Rows);
                    }
                    if w.finished() {
                        *walk = None;
                        continue;
                    }
                    ctx.ensure_alive()?;
                    w.advance(
                        ctx,
                        arena,
                        RepeatSpec {
                            body,
                            min: *min,
                            max: *max,
                            until: until.as_ref(),
                        },
                        delivered + (out.len() - base),
                    )?;
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(arena.node_count())?;
                    }
                    continue;
                }
                match input.pull_chunk(ctx, arena, 1, out)? {
                    ChunkPull::Rows => {}
                    end => return Ok(flush(out.len(), base, end)),
                }
                let row = out.pop().expect("a one-row pull appends one row");
                *walk = Some(RepeatWalk::new(row));
            },
            StageOp::RestrictVertices { input, vs } => {
                Self::filtered_chunk(input, ctx, arena, goal, out, |row, _| {
                    vs.contains(&row.head)
                })
            }
            StageOp::RestrictProperty {
                input,
                key,
                predicate,
            } => Self::filtered_chunk(input, ctx, arena, goal, out, |row, ctx| {
                predicate.eval(ctx.snapshot.vertex_property(row.head, key))
            }),
            StageOp::Dedup { input, seen } => {
                Self::filtered_chunk(input, ctx, arena, goal, out, |row, _| seen.insert(row.head))
            }
            StageOp::Limit { input, remaining } => {
                if *remaining == 0 {
                    // saturated: never pull upstream again — this is the
                    // `Done` that cancels suspended walks above
                    return Ok(ChunkPull::Done);
                }
                let res = input.pull_chunk(ctx, arena, target.min(*remaining), out)?;
                *remaining -= out.len() - base;
                Ok(res)
            }
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
/// non-materializing terminals (`first`, `exists`, `count`).
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
/// * `Materialized` — evaluates the plan level-at-a-time on the first pull
///   and then yields from the buffer (early exit comes from the optimizer's
///   limit-pushdown annotation, not from the pull protocol);
/// * `Parallel` — pulls batches from partitioned prefix cursors on scoped
///   threads, preserving partition order.
///
/// Dropping the cursor drops all suspended state; an error fuses it (further
/// pulls return `Ok(None)`).
#[derive(Debug)]
pub struct RowCursor {
    snapshot: GraphSnapshot,
    /// The optimized plan this cursor executes. The stage trees hold copies
    /// of its ops; the start frontier is read from here, never copied.
    plan: LogicalPlan,
    cap: Option<usize>,
    counters: Counters,
    alive: Liveness,
    /// Byte budget for this cursor's accounting domain: the full
    /// [`ExecConfig::budget`] for the streaming/materialized strategies, an
    /// even share for the parallel strategy (whose partitions each carry
    /// their own share — see [`RowCursor::compile_parallel`]).
    budget: Option<u64>,
    inner: Inner,
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
        buffered: Option<std::vec::IntoIter<ResultRow>>,
        /// Per-op actuals recorded by the profiled batch run (populated on
        /// the first pull when [`ExecConfig::profile`] is set).
        trace: Option<Vec<OpActuals>>,
    },
    Parallel(Box<ParallelState>),
}

impl RowCursor {
    /// Compiles a cursor for an already-planned traversal, optionally forcing
    /// the parallel strategy's worker thread count (`None` =
    /// `available_parallelism`; ignored by the other strategies).
    pub(crate) fn compile_with_threads(
        snapshot: GraphSnapshot,
        plan: LogicalPlan,
        strategy: ExecutionStrategy,
        cap: Option<usize>,
        threads: Option<usize>,
    ) -> RowCursor {
        Self::compile_with_config(
            snapshot,
            plan,
            strategy,
            cap,
            threads,
            ExecConfig::default(),
        )
    }

    /// Compiles a cursor with explicit execution knobs (CSR adjacency on/off,
    /// chunk size). [`Traversal`](crate::pipeline::Traversal) threads its
    /// `vectorize`/`chunk_size` settings through here.
    pub(crate) fn compile_with_config(
        snapshot: GraphSnapshot,
        plan: LogicalPlan,
        strategy: ExecutionStrategy,
        cap: Option<usize>,
        threads: Option<usize>,
        config: ExecConfig,
    ) -> RowCursor {
        match strategy {
            ExecutionStrategy::Materialized => Self::batch(snapshot, plan, cap, config),
            ExecutionStrategy::Streaming => {
                let mut root = Stage::pipeline(initial_rows(plan.start()), plan.ops().to_vec());
                if config.profile {
                    root.enable_trace();
                }
                RowCursor {
                    snapshot,
                    plan,
                    cap,
                    counters: Counters::default(),
                    alive: Liveness::default(),
                    budget: config.budget,
                    inner: Inner::Pipe {
                        arena: PathArena::new(),
                        root: Box::new(root),
                    },
                    config,
                    chunk_buf: Vec::new(),
                    fused: false,
                }
            }
            ExecutionStrategy::Parallel => {
                Self::compile_parallel(snapshot, plan, cap, threads, config)
            }
        }
    }

    fn batch(
        snapshot: GraphSnapshot,
        plan: LogicalPlan,
        cap: Option<usize>,
        config: ExecConfig,
    ) -> RowCursor {
        RowCursor {
            snapshot,
            plan,
            cap,
            counters: Counters::default(),
            alive: Liveness::default(),
            budget: config.budget,
            inner: Inner::Batch {
                buffered: None,
                trace: None,
            },
            config,
            chunk_buf: Vec::new(),
            fused: false,
        }
    }

    /// Compiles the parallel variant, optionally forcing the thread count.
    /// Falls back to the materialized batch cursor when partitioning cannot
    /// help (single thread, single start vertex, or a plan that begins with a
    /// stateful op and therefore has no parallelizable prefix).
    pub(crate) fn compile_parallel(
        snapshot: GraphSnapshot,
        plan: LogicalPlan,
        cap: Option<usize>,
        threads: Option<usize>,
        config: ExecConfig,
    ) -> RowCursor {
        let threads = threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(|n| n.get())
                    .unwrap_or(4)
            })
            .min(plan.start().len().max(1));
        // stateful-across-rows ops must run in the global single-threaded
        // suffix: Dedup/Limit, and a GlobalReachable automaton (its shared
        // seen-set makes each row's output depend on every earlier row —
        // per-partition seen-sets would change emissions, unlike the R7/R9
        // emission caps, which are sound per-partition over-approximations)
        let stateful = |op: &PlanOp| {
            matches!(op, PlanOp::DedupByVertex | PlanOp::Limit(_))
                || matches!(
                    op,
                    PlanOp::ExpandAutomaton { spec, .. }
                        if spec.semantics() == Semantics::GlobalReachable
                )
        };
        let split = plan
            .ops()
            .iter()
            .position(stateful)
            .unwrap_or(plan.ops().len());
        if threads <= 1 || plan.start().len() <= 1 || split == 0 {
            return Self::batch(snapshot, plan, cap, config);
        }
        // build the reversed graph once, up front, if the plan will need it —
        // otherwise every worker's first In/Both hop would block on the
        // lazy per-generation build
        if plan.needs_reversed() {
            snapshot.prewarm_reversed();
        }
        // likewise the CSR snapshots the plan's label-restricted expansions
        // will scan (only the directions actually used — see the csr_cache
        // regression suite)
        if config.use_csr {
            let (out, in_) = plan.csr_directions();
            snapshot.prewarm_csr(out, in_);
        }
        let (prefix, suffix) = plan.ops().split_at(split);
        let has_suffix = !suffix.is_empty();
        let start = plan.start();
        let chunk_size = start.len().div_ceil(threads);
        // each accounting domain — every partition plus the suffix/consumer —
        // gets an even share of the query budget (conservative: a query whose
        // growth is skewed onto one partition trips earlier than a perfectly
        // balanced one, never later)
        let domains = start.chunks(chunk_size).count() as u64 + 1;
        let share = config.budget.map(|b| (b / domains).max(1));
        let partitions: Vec<Partition> = start
            .chunks(chunk_size)
            .map(|chunk| {
                let mut root = Stage::pipeline(initial_rows(chunk), prefix.to_vec());
                if config.profile {
                    root.enable_trace();
                }
                Partition {
                    arena: PathArena::new(),
                    root,
                    counters: Counters::default(),
                    rows: Vec::new(),
                    finished: VecDeque::new(),
                    materialise: !has_suffix,
                    forward: IdForwarder::new(),
                    budget: share,
                    done: false,
                }
            })
            .collect();
        let suffix = if suffix.is_empty() {
            None
        } else {
            let mut root = Stage::fed_pipeline(suffix.to_vec());
            if config.profile {
                root.enable_trace();
            }
            Some(SuffixPipe {
                arena: PathArena::new(),
                root,
                rows: Vec::new(),
            })
        };
        RowCursor {
            snapshot,
            plan,
            cap,
            counters: Counters::default(),
            alive: Liveness::default(),
            budget: share,
            inner: Inner::Parallel(Box::new(ParallelState {
                partitions,
                current: 0,
                suffix,
                feed_closed: false,
                fed: 0,
                batch: INITIAL_BATCH,
                boundary_interned: 0,
            })),
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
    /// terminal). Returns whether a row was consumed.
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
    /// any strategy, including parallel partition workers) fails with
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
        mut out: Option<&mut Vec<ResultRow>>,
    ) -> Result<usize, EngineError> {
        let profile = self.config.profile;
        let ctx = ExecCtx {
            snapshot: &self.snapshot,
            cap: self.cap,
            counters: &self.counters,
            alive: self.alive.active(),
            use_csr: self.config.use_csr,
            budget: self.budget,
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
                    out.extend(rows.iter().map(|row| ResultRow {
                        source: row.source,
                        path: arena.to_path(row.path),
                        head: row.head,
                        weight: row.weight,
                    }));
                }
                Ok(rows.len())
            }
            Inner::Batch { buffered, trace } => {
                if buffered.is_none() {
                    let (start, ops) = (self.plan.start(), self.plan.ops());
                    let rows = if profile {
                        let (rows, actuals) = materialized_traced(&ctx, start, ops)?;
                        *trace = Some(actuals);
                        rows
                    } else {
                        materialized(&ctx, start, ops)?
                    };
                    *buffered = Some(rows.into_iter());
                }
                let rows = buffered.as_mut().expect("filled above").take(target);
                Ok(match out {
                    Some(out) => {
                        let before = out.len();
                        out.extend(rows);
                        out.len() - before
                    }
                    None => rows.count(),
                })
            }
            Inner::Parallel(state) => {
                let mut delivered = 0;
                while delivered < target {
                    let Some(row) = state.next_row(&ctx)? else {
                        break;
                    };
                    if let Some(out) = out.as_deref_mut() {
                        out.push(row);
                    }
                    delivered += 1;
                }
                Ok(delivered)
            }
        }
    }

    /// The per-op actuals recorded by a profiled run, source-first (index 0
    /// is the start frontier, aligned with
    /// [`PlanReport::estimates`](crate::plan::PlanReport::estimates)).
    /// `None` unless the cursor was compiled with [`ExecConfig::profile`]
    /// (for the materialized strategy, also until the first pull runs the
    /// batch). For the parallel strategy, per-partition prefix counters are
    /// summed elementwise and the global suffix ops appended (the feed
    /// boundary stage is plumbing, not a plan op, and is dropped).
    pub(crate) fn op_actuals(&self) -> Option<Vec<OpActuals>> {
        match &self.inner {
            Inner::Pipe { root, .. } => root.has_trace().then(|| {
                let mut out = Vec::new();
                root.collect_trace(&mut out);
                out
            }),
            Inner::Batch { trace, .. } => trace.clone(),
            Inner::Parallel(state) => {
                let mut summed: Option<Vec<OpActuals>> = None;
                for p in &state.partitions {
                    if !p.root.has_trace() {
                        return None;
                    }
                    let mut part = Vec::new();
                    p.root.collect_trace(&mut part);
                    match &mut summed {
                        None => summed = Some(part),
                        Some(acc) => {
                            for (a, b) in acc.iter_mut().zip(&part) {
                                a.merge(b);
                            }
                        }
                    }
                }
                let mut out = summed?;
                // the boundary id-forwarding interns into the suffix arena
                // between pulls; credit it to the prefix root, the op whose
                // rows crossed the boundary
                if let Some(last) = out.last_mut() {
                    last.interned += state.boundary_interned;
                }
                if let Some(sfx) = &state.suffix {
                    let mut tail = Vec::new();
                    sfx.root.collect_trace(&mut tail);
                    out.extend(tail.into_iter().skip(1));
                }
                Some(out)
            }
        }
    }

    /// Work counters accumulated so far (across all partitions for the
    /// parallel strategy).
    pub fn stats(&self) -> ExecStats {
        let mut stats = self.counters.stats();
        if let Inner::Parallel(state) = &self.inner {
            for p in &state.partitions {
                let ps = p.counters.stats();
                stats.expansions += ps.expansions;
                stats.interned_nodes += ps.interned_nodes;
                stats.bytes_charged += ps.bytes_charged;
            }
        }
        stats
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

// ---------------------------------------------------------------------------
// The parallel cursor
// ---------------------------------------------------------------------------

const INITIAL_BATCH: usize = 64;
const MAX_BATCH: usize = 8192;

/// One start-frontier partition: its own arena, prefix pipeline, counters
/// (merged into [`RowCursor::stats`] on demand), the queue of rows it has
/// produced but the consumer has not reached yet, and the memoized
/// partition-arena → suffix-arena id translation used when those rows cross
/// the boundary into the stateful suffix.
#[derive(Debug)]
struct Partition {
    arena: PathArena,
    root: Stage,
    counters: Counters,
    /// Rows awaiting the suffix boundary (id-forwarding plans).
    rows: Vec<ArenaRow>,
    /// Rows materialised on the worker thread (suffix-free plans).
    finished: VecDeque<ResultRow>,
    /// Whether this partition's rows are final output (no suffix pipeline):
    /// then workers materialise in parallel inside [`Partition::pull_batch`];
    /// otherwise rows stay as ids for the forwarder.
    materialise: bool,
    forward: IdForwarder,
    /// This partition's even share of the query memory budget (its own
    /// accounting domain: own arena, own counters, own mark).
    budget: Option<u64>,
    done: bool,
}

impl Partition {
    /// Rows queued and not yet consumed (either representation).
    fn queued(&self) -> usize {
        self.rows.len() + self.finished.len()
    }

    /// Asks the partition's prefix pipeline for up to `batch` rows in one
    /// call (runs on a scoped worker thread). Suffix-free plans materialise here — path
    /// reconstruction runs in parallel across partitions; plans with a
    /// stateful suffix keep [`ArenaRow`]s for the consumer's id forwarder.
    fn pull_batch(
        &mut self,
        snapshot: &GraphSnapshot,
        cap: Option<usize>,
        alive: Option<&Liveness>,
        use_csr: bool,
        batch: usize,
    ) -> Result<(), EngineError> {
        let ctx = ExecCtx {
            snapshot,
            cap,
            counters: &self.counters,
            alive,
            use_csr,
            budget: self.budget,
        };
        let base = self.rows.len();
        if self
            .root
            .pull_chunk(&ctx, &self.arena, batch, &mut self.rows)?
            != ChunkPull::Rows
        {
            self.done = true;
        }
        let produced = (self.rows.len() - base) as u64;
        if self.materialise {
            let arena = &self.arena;
            self.finished
                .extend(self.rows.drain(base..).map(|row| ResultRow {
                    source: row.source,
                    path: arena.to_path(row.path),
                    head: row.head,
                    weight: row.weight,
                }));
        }
        if ctx.budgeted() {
            // per-batch backstop for the queued rows (arena growth was
            // charged inside the stage pulls against this partition's share)
            ctx.charge_bytes(produced * crate::exec::ROW_BYTES)?;
        }
        Ok(())
    }
}

#[derive(Debug)]
struct SuffixPipe {
    arena: PathArena,
    root: Stage,
    /// Reused buffer for the suffix's one-row pulls.
    rows: Vec<ArenaRow>,
}

/// Start-partitioned parallel evaluation as a cursor.
///
/// The plan is split at the first *stateful* op (`Dedup`/`Limit` — only ever
/// top-level; repeat bodies are validated stateless at plan time). The
/// stateless prefix distributes over rows, so each partition evaluates it
/// with its own pull pipeline; scoped threads refill the partition queues in
/// growing batches, and the consumer drains the queues strictly in partition
/// order (row-major order is preserved, because stateless ops map each input
/// row to a contiguous run of output rows) — feeding the stateful suffix
/// pipeline, which runs globally, single-threaded. The result is row-for-row
/// identical to the materialized strategy; when the suffix reports
/// `Done` (a saturated `Limit`), the partition cursors are
/// simply never pulled again, so at most one speculative batch per partition
/// is wasted.
///
/// The partition → suffix boundary is **copy-free**: instead of
/// materialising each row's path and re-interning it into the suffix arena
/// (O(path length) per row, discarding the partition arena's prefix
/// sharing), each partition keeps a memoized [`IdForwarder`] that translates
/// its arena ids into the suffix arena — O(new nodes) amortised, counted in
/// [`ExecStats::interned_nodes`](crate::exec::ExecStats).
#[derive(Debug)]
struct ParallelState {
    partitions: Vec<Partition>,
    current: usize,
    suffix: Option<SuffixPipe>,
    feed_closed: bool,
    fed: usize,
    batch: usize,
    /// Arena nodes interned by partition → suffix id forwarding. The
    /// forwarding runs between stage pulls, so no stage trace record
    /// brackets it; profiling attributes it to the prefix root instead
    /// (see [`RowCursor::op_actuals`]).
    boundary_interned: u64,
}

impl ParallelState {
    fn next_row(&mut self, ctx: &ExecCtx<'_>) -> Result<Option<ResultRow>, EngineError> {
        loop {
            // 1. serve from the suffix pipeline if there is one
            if let Some(sfx) = &mut self.suffix {
                sfx.rows.clear();
                match sfx.root.pull_chunk(ctx, &sfx.arena, 1, &mut sfx.rows)? {
                    ChunkPull::Done => return Ok(None),
                    ChunkPull::Rows => {
                        let row = sfx.rows[0];
                        return Ok(Some(ResultRow {
                            source: row.source,
                            path: sfx.arena.to_path(row.path),
                            head: row.head,
                            weight: row.weight,
                        }));
                    }
                    ChunkPull::Starved => {} // feed below
                }
            } else if self.current < self.partitions.len() {
                // suffix-free plans: the worker threads already materialised
                if let Some(row) = self.partitions[self.current].finished.pop_front() {
                    self.fed += 1;
                    check_cap(self.fed, ctx.cap)?;
                    return Ok(Some(row));
                }
            }

            // 2. make sure the current partition has queued rows (or move on)
            loop {
                if self.current >= self.partitions.len() {
                    match &mut self.suffix {
                        None => return Ok(None),
                        Some(sfx) => {
                            if self.feed_closed {
                                // the suffix was already flushed and is
                                // starved again — nothing more will come
                                return Ok(None);
                            }
                            sfx.root.close_feed();
                            self.feed_closed = true;
                            break; // flush the suffix
                        }
                    }
                }
                let part = &self.partitions[self.current];
                if part.queued() > 0 {
                    break;
                }
                if part.done {
                    self.current += 1;
                    continue;
                }
                self.fill_round(ctx)?;
            }

            // 3. feed the suffix from the current partition, in order —
            // id forwarding, not a materialise/re-intern round trip: each
            // partition-arena node crosses the boundary at most once
            if let Some(sfx) = &mut self.suffix {
                if self.current < self.partitions.len() {
                    let part = &mut self.partitions[self.current];
                    let mut rows: Vec<ArenaRow> = Vec::with_capacity(part.rows.len());
                    for row in part.rows.drain(..) {
                        self.fed += 1;
                        let (path, appended) =
                            part.forward.forward(&part.arena, &sfx.arena, row.path);
                        ctx.count_interned(appended);
                        self.boundary_interned += appended as u64;
                        rows.push(ArenaRow {
                            source: row.source,
                            path,
                            head: row.head,
                            weight: row.weight,
                        });
                    }
                    check_cap(self.fed, ctx.cap)?;
                    if ctx.budgeted() {
                        // the forwarder's appends grew the suffix arena (no
                        // writer is held here), and the fed rows join the
                        // suffix queue — both on the consumer's share
                        ctx.charge_arena_growth(sfx.arena.node_count())?;
                        ctx.charge_bytes(rows.len() as u64 * crate::exec::ROW_BYTES)?;
                    }
                    sfx.root.feed(rows);
                }
            }
        }
    }

    /// One parallel refill round: every live partition whose queue is below
    /// the batch target pulls a batch on its own scoped thread.
    fn fill_round(&mut self, ctx: &ExecCtx<'_>) -> Result<(), EngineError> {
        let batch = self.batch;
        let cap = ctx.cap;
        let snapshot = ctx.snapshot;
        let alive = ctx.alive;
        let use_csr = ctx.use_csr;
        let results: Vec<Result<(), EngineError>> = crossbeam::thread::scope(|scope| {
            let handles: Vec<_> = self
                .partitions
                .iter_mut()
                .filter(|p| !p.done && p.queued() < batch)
                .map(|part| {
                    scope.spawn(move |_| part.pull_batch(snapshot, cap, alive, use_csr, batch))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("partition thread panicked"))
                .collect()
        })
        .expect("thread scope failed");
        for r in results {
            r?;
        }
        self.batch = (self.batch * 2).min(MAX_BATCH);
        Ok(())
    }
}
