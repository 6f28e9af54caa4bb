//! Demand-driven execution: the pull-based [`RowCursor`] protocol.
//!
//! Every [`PlanOp`] compiles to a *stage* that yields rows on demand. A pull
//! returns one of three things, modelled as
//! `ControlFlow<(), Option<ArenaRow>>`:
//!
//! * `Continue(Some(row))` — a row;
//! * `Break(())` — the stage will never produce another row, no matter what.
//!   `Break` propagates *downstream* to the consumer, and — because a broken
//!   consumer simply stops pulling — acts *upstream* as cancellation: a
//!   saturated `Limit` never pulls its input again, so an in-flight
//!   product-automaton frontier suspended mid-layer is dropped without
//!   finishing the walk;
//! * `Continue(None)` — the stage is starved: its source is a feedable queue
//!   (parallel suffix evaluation) that has no rows *right now*. Ordinary
//!   source-backed pipelines never produce this.
//!
//! Composite ops keep resumable per-input-row state. The automaton stage
//! holds an `AutoWalk`: the current `(row, dfa-state)` frontier layer, the
//! index of the next entry to expand (the mid-layer suspension point), the
//! half-built next layer, and a queue of emissions awaiting delivery — one
//! `next()` expands at most one frontier entry beyond what it needs to hand
//! out a row. The same walker, drained to exhaustion, is the materialized
//! executor's batch evaluation, so both granularities share one definition of
//! the walk (order, caps, semantics, emission limits).
//!
//! `max_intermediate` is enforced per stage: each stage counts the rows it
//! has emitted over its lifetime and fails once the count exceeds the cap.
//! For top-level ops this is exactly the materialized executor's per-level
//! check (a top-level op runs once, so its cumulative output *is* its level),
//! making the cap strategy-agnostic.

use std::cell::Cell;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::ops::ControlFlow;
use std::time::Instant;

use mrpa_core::fxhash::FxHashSet;
use mrpa_core::{ArenaWriter, Edge, IdForwarder, PathArena, VertexId};

use crate::cancel::{CancelToken, Liveness};
use crate::chunk::{ChunkPull, RowChunk};
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

/// One pull from a stage. See the module docs for the three outcomes.
pub(crate) type Pull = ControlFlow<(), Option<ArenaRow>>;

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

    /// Takes the next emission awaiting delivery, if any.
    pub(crate) fn pop(&mut self) -> Option<ArenaRow> {
        self.pending.pop_front()
    }

    /// Moves every pending emission into `out` in one bulk drain (batch
    /// evaluation's fast path).
    pub(crate) fn drain_pending_into(&mut self, out: &mut Vec<ArenaRow>) {
        out.extend(self.pending.drain(..));
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

    /// Expands one frontier entry (or rolls the layer over), pushing any
    /// emissions into the pending queue. The incremental (cursor) entry
    /// point: acquires a short-lived arena writer per entry so no lock is
    /// held across pulls. Batch evaluation instead drives
    /// [`AutoWalk::step_entry`] directly under one long-lived writer.
    /// `remaining` is the op-level R7 emission budget; reaching zero halts
    /// the walk.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn advance(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        spec: &AutomatonSpec,
        to: &Option<HashSet<VertexId>>,
        delivered: usize,
        remaining: &mut Option<usize>,
        seen: Option<&mut SeenSet>,
    ) -> Result<(), EngineError> {
        if self.needs_roll() {
            return self.roll(ctx, spec, delivered);
        }
        let mut writer = arena.writer();
        self.step_entry(ctx, &mut writer, spec, to, remaining, seen);
        Ok(())
    }

    /// Expands exactly one frontier entry under the caller's writer. Must not
    /// be called when [`AutoWalk::needs_roll`] — entries only exist mid-layer.
    ///
    /// Kept in lockstep with [`AutoWalk::run_layer`] (the batch fast path);
    /// the `cursor ≡ materialized` property suites pin their equivalence.
    pub(crate) fn step_entry(
        &mut self,
        ctx: &ExecCtx<'_>,
        writer: &mut ArenaWriter<'_>,
        spec: &AutomatonSpec,
        to: &Option<HashSet<VertexId>>,
        remaining: &mut Option<usize>,
        mut seen: Option<&mut SeenSet>,
    ) {
        let (row, state) = self.frontier[self.idx];
        self.idx += 1;
        let adj = ctx.adjacency(spec.direction());
        for &m in spec.moves(state) {
            // a row only joins the next frontier if it can still make
            // progress: there are hops left and the target state moves
            // (both facts precomputed into the move table at compile time)
            let survives = self.hop < spec.max_hops() && m.target_live;
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
                        self.pending.push_back(produced);
                        if matches!(remaining, Some(0)) {
                            self.halt();
                            return;
                        }
                    } else {
                        self.halt();
                        return;
                    }
                }
                if survives {
                    self.next.push((produced, m.target));
                }
            }
        }
    }

    /// Expands the **entire current layer** in one tight batch loop, pushing
    /// emissions straight into `out` — the materialized executor's fast path
    /// (the ~10–15% the per-entry dispatch of [`AutoWalk::step_entry`] costs
    /// on dense full-enumeration scans came from per-entry calls plus
    /// pending-queue traffic; this recovers it without giving up the
    /// cursor's mid-layer suspension points, which keep using `step_entry`).
    ///
    /// Semantically identical to driving `step_entry` until
    /// [`AutoWalk::needs_roll`] and draining `pending` after each entry:
    /// same emission order, same budget halting, same seen-set discipline.
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
    ) {
        let adj = ctx.adjacency(spec.direction());
        let max_hops = spec.max_hops();
        while self.idx < self.frontier.len() {
            let (row, state) = self.frontier[self.idx];
            self.idx += 1;
            for &m in spec.moves(state) {
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
                                return;
                            }
                        } else {
                            self.halt();
                            return;
                        }
                    }
                    if survives {
                        self.next.push((produced, m.target));
                    }
                }
            }
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

    pub(crate) fn pop(&mut self) -> Option<ArenaRow> {
        self.pending.pop_front()
    }

    pub(crate) fn finished(&self) -> bool {
        self.pending.is_empty() && self.done
    }

    /// Moves every pending emission into `out` in one bulk drain (batch
    /// evaluation's fast path).
    pub(crate) fn drain_pending_into(&mut self, out: &mut Vec<ArenaRow>) {
        out.extend(self.pending.drain(..));
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

    /// Takes the next emission awaiting delivery, if any.
    pub(crate) fn pop(&mut self) -> Option<ArenaRow> {
        self.pending.pop_front()
    }

    /// Moves every pending emission into `out` in one bulk drain.
    pub(crate) fn drain_pending_into(&mut self, out: &mut Vec<ArenaRow>) {
        out.extend(self.pending.drain(..));
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
        buf: VecDeque<ArenaRow>,
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
                    buf: VecDeque::new(),
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
    /// pipeline reports `Break` instead of starvation.
    pub(crate) fn close_feed(&mut self) {
        if let StageOp::Feed { closed, .. } = &mut self.source_mut().op {
            *closed = true;
        }
    }

    /// Pulls one row, counting the stage's lifetime output against the cap.
    /// Every pull is a cancellation point: an expired deadline or a fired
    /// [`CancelToken`](crate::CancelToken) surfaces here as
    /// [`EngineError::Cancelled`], killing suspended frontiers cleanly.
    pub(crate) fn pull(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
    ) -> Result<Pull, EngineError> {
        ctx.ensure_alive()?;
        let pulled = if self.trace.is_some() {
            let before = ctx.counters.stats();
            let started = Instant::now();
            let res = Self::pull_op(&mut self.op, self.out_count, ctx, arena);
            let elapsed = started.elapsed().as_nanos() as u64;
            let after = ctx.counters.stats();
            let tr = self.trace.as_deref().expect("checked above");
            tr.pulls.set(tr.pulls.get() + 1);
            tr.nanos.set(tr.nanos.get() + elapsed);
            tr.expansions
                .set(tr.expansions.get() + (after.expansions - before.expansions));
            tr.interned
                .set(tr.interned.get() + (after.interned_nodes - before.interned_nodes));
            res?
        } else {
            Self::pull_op(&mut self.op, self.out_count, ctx, arena)?
        };
        if matches!(pulled, ControlFlow::Continue(Some(_))) {
            self.out_count += 1;
            check_cap(self.out_count, ctx.cap)?;
        }
        Ok(pulled)
    }

    fn pull_op(
        op: &mut StageOp,
        delivered: usize,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
    ) -> Result<Pull, EngineError> {
        match op {
            StageOp::Source { rows, idx } => {
                if *idx < rows.len() {
                    *idx += 1;
                    Ok(ControlFlow::Continue(Some(rows[*idx - 1])))
                } else {
                    Ok(ControlFlow::Break(()))
                }
            }
            StageOp::Feed { queue, closed } => match queue.pop_front() {
                Some(row) => Ok(ControlFlow::Continue(Some(row))),
                None if *closed => Ok(ControlFlow::Break(())),
                None => Ok(ControlFlow::Continue(None)),
            },
            StageOp::Expand {
                input,
                direction,
                labels,
                from,
                to,
                buf,
            } => loop {
                if let Some(row) = buf.pop_front() {
                    return Ok(ControlFlow::Continue(Some(row)));
                }
                match input.pull(ctx, arena)? {
                    ControlFlow::Break(()) => return Ok(ControlFlow::Break(())),
                    ControlFlow::Continue(None) => return Ok(ControlFlow::Continue(None)),
                    ControlFlow::Continue(Some(row)) => {
                        if !in_set(from, row.head) {
                            continue;
                        }
                        // collect this row's expansions under one lock
                        // acquisition; they stream out one pull at a time
                        let mut writer = arena.writer();
                        for_each_expansion_edge(ctx, *direction, row.head, labels, |e| {
                            ctx.count_expansion();
                            if !in_set(to, e.head) {
                                return;
                            }
                            buf.push_back(ArenaRow {
                                source: row.source,
                                path: writer.append(row.path, e),
                                head: e.head,
                                weight: row.weight,
                            });
                        });
                        if ctx.budgeted() {
                            ctx.charge_arena_growth(writer.node_count())?;
                            ctx.charge_bytes(buf.len() as u64 * crate::exec::ROW_BYTES)?;
                        }
                    }
                }
            },
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
                    if let Some(row) = w.pop() {
                        return Ok(ControlFlow::Continue(Some(row)));
                    }
                    if w.finished() {
                        *walk = None;
                        continue;
                    }
                    ctx.ensure_alive()?;
                    w.advance(ctx, arena, spec, to, delivered, remaining, seen.as_mut())?;
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(arena.node_count())?;
                    }
                    continue;
                }
                if matches!(remaining, Some(0)) {
                    return Ok(ControlFlow::Break(()));
                }
                match input.pull(ctx, arena)? {
                    ControlFlow::Break(()) => return Ok(ControlFlow::Break(())),
                    ControlFlow::Continue(None) => return Ok(ControlFlow::Continue(None)),
                    ControlFlow::Continue(Some(row)) => {
                        if !in_set(from, row.head) {
                            continue;
                        }
                        if spec.semantics() == Semantics::Reachable {
                            // per-row reachability: fresh dedup state per walk
                            *seen = Some(SeenSet::default());
                        }
                        *walk = Some(AutoWalk::start(spec, to, row, remaining, seen.as_mut()));
                    }
                }
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
                    if let Some(row) = w.pop() {
                        return Ok(ControlFlow::Continue(Some(row)));
                    }
                    if w.finished() {
                        *walk = None;
                        continue;
                    }
                    ctx.ensure_alive()?;
                    w.advance(
                        ctx, arena, spec, *semiring, weight, to, delivered, remaining,
                    )?;
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(arena.node_count())?;
                    }
                    continue;
                }
                if matches!(remaining, Some(0)) {
                    return Ok(ControlFlow::Break(()));
                }
                match input.pull(ctx, arena)? {
                    ControlFlow::Break(()) => return Ok(ControlFlow::Break(())),
                    ControlFlow::Continue(None) => return Ok(ControlFlow::Continue(None)),
                    ControlFlow::Continue(Some(row)) => {
                        if !in_set(from, row.head) {
                            continue;
                        }
                        *walk = Some(WeightedWalk::start(spec, *semiring, row));
                    }
                }
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
                    if let Some(row) = w.pop() {
                        return Ok(ControlFlow::Continue(Some(row)));
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
                        delivered,
                    )?;
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(arena.node_count())?;
                    }
                    continue;
                }
                match input.pull(ctx, arena)? {
                    ControlFlow::Break(()) => return Ok(ControlFlow::Break(())),
                    ControlFlow::Continue(None) => return Ok(ControlFlow::Continue(None)),
                    ControlFlow::Continue(Some(row)) => *walk = Some(RepeatWalk::new(row)),
                }
            },
            StageOp::RestrictVertices { input, vs } => loop {
                match input.pull(ctx, arena)? {
                    ControlFlow::Continue(Some(row)) if !vs.contains(&row.head) => continue,
                    other => return Ok(other),
                }
            },
            StageOp::RestrictProperty {
                input,
                key,
                predicate,
            } => loop {
                match input.pull(ctx, arena)? {
                    ControlFlow::Continue(Some(row))
                        if !predicate.eval(ctx.snapshot.vertex_property(row.head, key)) =>
                    {
                        continue
                    }
                    other => return Ok(other),
                }
            },
            StageOp::Dedup { input, seen } => loop {
                match input.pull(ctx, arena)? {
                    ControlFlow::Continue(Some(row)) if !seen.insert(row.head) => continue,
                    other => return Ok(other),
                }
            },
            StageOp::Limit { input, remaining } => {
                if *remaining == 0 {
                    // saturated: never pull upstream again — this is the
                    // ControlFlow::Break that cancels suspended walks above
                    return Ok(ControlFlow::Break(()));
                }
                match input.pull(ctx, arena)? {
                    ControlFlow::Continue(Some(row)) => {
                        *remaining -= 1;
                        Ok(ControlFlow::Continue(Some(row)))
                    }
                    other => Ok(other),
                }
            }
        }
    }

    /// The chunked pull: appends up to ~`target` rows to `out` (overshoot is
    /// allowed — composite walkers finish their current frontier layer), in
    /// exactly the scalar protocol's row order. Only full-drain terminals use
    /// this path; early-exit consumption stays on [`Stage::pull`]. Counts the
    /// appended rows against the stage's lifetime cap, and remains a
    /// cancellation point per call (and per walker layer).
    pub(crate) fn pull_chunk(
        &mut self,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        target: usize,
        out: &mut Vec<ArenaRow>,
    ) -> Result<ChunkPull, EngineError> {
        ctx.ensure_alive()?;
        let base = out.len();
        let res = if self.trace.is_some() {
            let before = ctx.counters.stats();
            let started = Instant::now();
            let res = Self::pull_op_chunk(&mut self.op, self.out_count, ctx, arena, target, out);
            let elapsed = started.elapsed().as_nanos() as u64;
            let after = ctx.counters.stats();
            let tr = self.trace.as_deref().expect("checked above");
            tr.chunks.set(tr.chunks.get() + 1);
            tr.nanos.set(tr.nanos.get() + elapsed);
            tr.expansions
                .set(tr.expansions.get() + (after.expansions - before.expansions));
            tr.interned
                .set(tr.interned.get() + (after.interned_nodes - before.interned_nodes));
            res?
        } else {
            Self::pull_op_chunk(&mut self.op, self.out_count, ctx, arena, target, out)?
        };
        let appended = out.len() - base;
        if appended > 0 {
            self.out_count += appended;
            check_cap(self.out_count, ctx.cap)?;
            return Ok(ChunkPull::Rows);
        }
        Ok(res)
    }

    fn pull_op_chunk(
        op: &mut StageOp,
        delivered: usize,
        ctx: &ExecCtx<'_>,
        arena: &PathArena,
        target: usize,
        out: &mut Vec<ArenaRow>,
    ) -> Result<ChunkPull, EngineError> {
        // `Rows` if this call appended anything, otherwise `empty`
        fn flush(out_len: usize, base: usize, empty: ChunkPull) -> ChunkPull {
            if out_len > base {
                ChunkPull::Rows
            } else {
                empty
            }
        }
        let base = out.len();
        let goal = base + target.max(1);
        match op {
            StageOp::Source { rows, idx } => {
                if *idx >= rows.len() {
                    return Ok(ChunkPull::Done);
                }
                let end = rows.len().min(goal - base + *idx);
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
                let n = queue.len().min(goal - base);
                out.extend(queue.drain(..n));
                Ok(ChunkPull::Rows)
            }
            StageOp::Expand {
                input,
                direction,
                labels,
                from,
                to,
                buf,
            } => {
                // rows buffered by an earlier scalar pull drain first
                out.extend(buf.drain(..));
                let mut inbuf: Vec<ArenaRow> = Vec::new();
                while out.len() < goal {
                    inbuf.clear();
                    match input.pull_chunk(ctx, arena, target, &mut inbuf)? {
                        ChunkPull::Rows => {}
                        ChunkPull::Done => return Ok(flush(out.len(), base, ChunkPull::Done)),
                        ChunkPull::Starved => {
                            return Ok(flush(out.len(), base, ChunkPull::Starved))
                        }
                    }
                    // one writer acquisition for the whole input chunk — the
                    // scalar path pays one per input row
                    let mut writer = arena.writer();
                    for row in &inbuf {
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
                    if ctx.budgeted() {
                        ctx.charge_arena_growth(writer.node_count())?;
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
                    w.drain_pending_into(out);
                    {
                        // the batch fast path: whole layers under one writer,
                        // emissions straight into the chunk
                        let mut writer = arena.writer();
                        while !w.finished() && out.len() < goal {
                            ctx.ensure_alive()?;
                            if w.needs_roll() {
                                w.roll(ctx, spec, delivered + (out.len() - base))?;
                            } else {
                                w.run_layer(
                                    ctx,
                                    &mut writer,
                                    spec,
                                    to,
                                    remaining,
                                    seen.as_mut(),
                                    out,
                                );
                            }
                            // per-layer budget check (mirrors the batch
                            // executor): dense frontiers die mid-walk
                            if ctx.budgeted() {
                                ctx.charge_arena_growth(writer.node_count())?;
                            }
                        }
                    }
                    if w.finished() {
                        *walk = None;
                        continue;
                    }
                    return Ok(ChunkPull::Rows);
                }
                if matches!(remaining, Some(0)) {
                    return Ok(flush(out.len(), base, ChunkPull::Done));
                }
                // input rows arrive one at a time: per-input-row walk work
                // dwarfs pull dispatch, and scalar pulls keep the suspension
                // protocol identical on the boundary
                match input.pull(ctx, arena)? {
                    ControlFlow::Break(()) => return Ok(flush(out.len(), base, ChunkPull::Done)),
                    ControlFlow::Continue(None) => {
                        return Ok(flush(out.len(), base, ChunkPull::Starved))
                    }
                    ControlFlow::Continue(Some(row)) => {
                        if !in_set(from, row.head) {
                            continue;
                        }
                        if spec.semantics() == Semantics::Reachable {
                            *seen = Some(SeenSet::default());
                        }
                        *walk = Some(AutoWalk::start(spec, to, row, remaining, seen.as_mut()));
                    }
                }
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
                    w.drain_pending_into(out);
                    if w.finished() {
                        *walk = None;
                        continue;
                    }
                    if out.len() >= goal {
                        return Ok(ChunkPull::Rows);
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
                match input.pull(ctx, arena)? {
                    ControlFlow::Break(()) => return Ok(flush(out.len(), base, ChunkPull::Done)),
                    ControlFlow::Continue(None) => {
                        return Ok(flush(out.len(), base, ChunkPull::Starved))
                    }
                    ControlFlow::Continue(Some(row)) => {
                        if !in_set(from, row.head) {
                            continue;
                        }
                        *walk = Some(WeightedWalk::start(spec, *semiring, row));
                    }
                }
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
                    w.drain_pending_into(out);
                    if w.finished() {
                        *walk = None;
                        continue;
                    }
                    if out.len() >= goal {
                        return Ok(ChunkPull::Rows);
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
                match input.pull(ctx, arena)? {
                    ControlFlow::Break(()) => return Ok(flush(out.len(), base, ChunkPull::Done)),
                    ControlFlow::Continue(None) => {
                        return Ok(flush(out.len(), base, ChunkPull::Starved))
                    }
                    ControlFlow::Continue(Some(row)) => *walk = Some(RepeatWalk::new(row)),
                }
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
                    return Ok(ChunkPull::Done);
                }
                let start = out.len();
                let res = input.pull_chunk(ctx, arena, target.max(1).min(*remaining), out)?;
                let mut appended = out.len() - start;
                if appended > *remaining {
                    // the upstream chunk overshot the limit: the surplus rows
                    // are dropped here (their expansions already counted —
                    // the documented chunked-vs-scalar stats divergence on
                    // non-pushed limits; emitted rows are identical)
                    out.truncate(start + *remaining);
                    appended = *remaining;
                }
                *remaining -= appended;
                Ok(flush(out.len(), start, res))
            }
        }
    }

    /// Shared chunk driver for the per-row filter stages
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
        loop {
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
            match res {
                ChunkPull::Rows => {
                    if out.len() >= goal {
                        return Ok(ChunkPull::Rows);
                    }
                }
                ChunkPull::Done => {
                    return Ok(if out.len() > base {
                        ChunkPull::Rows
                    } else {
                        ChunkPull::Done
                    })
                }
                ChunkPull::Starved => {
                    return Ok(if out.len() > base {
                        ChunkPull::Rows
                    } else {
                        ChunkPull::Starved
                    })
                }
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The public cursor
// ---------------------------------------------------------------------------

/// A demand-driven cursor over a planned traversal: the pull-based execution
/// protocol behind [`Traversal::cursor`](crate::Traversal::cursor) and the
/// non-materializing terminals (`first`, `exists`, `count`).
///
/// Each `next_row` pull performs only the work needed to surface one row —
/// composite ops (`match_` product automata, `repeat`) suspend their frontier
/// mid-layer between pulls — so `limit(k)`, `first()` and external
/// [`Iterator`] consumption early-exit dense expansions instead of
/// enumerating them. The cursor honours the traversal's
/// [`ExecutionStrategy`]:
///
/// * `Streaming` — fully incremental (the protocol's native granularity);
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
    /// Whether the compiled plan has at least one expansion op — plans that
    /// are pure filters gain nothing from batching, so [`RowCursor::next_chunk`]
    /// falls back to the scalar pull for them.
    chunkable: bool,
    /// Reused transport buffer for the chunked drain (one allocation per
    /// cursor, not per batch).
    chunk_buf: RowChunk,
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
                let chunkable = plan.chunk_capable();
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
                    chunkable,
                    chunk_buf: RowChunk::default(),
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
            chunkable: false,
            chunk_buf: RowChunk::default(),
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
                    rows: VecDeque::new(),
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
            chunkable: false,
            chunk_buf: RowChunk::default(),
            fused: false,
        }
    }

    /// Pulls the next result row, or `None` when the traversal is exhausted
    /// (or a `Limit` upstream broke the pipeline). After an error the cursor
    /// is fused and returns `Ok(None)`.
    pub fn next_row(&mut self) -> Result<Option<ResultRow>, EngineError> {
        if self.fused {
            return Ok(None);
        }
        let out = self.advance_inner(true);
        match out {
            Ok(Some(RowDelivery::Materialised(row))) => Ok(Some(row)),
            Ok(Some(RowDelivery::Counted)) => unreachable!("materialise requested"),
            Ok(None) => Ok(None),
            Err(e) => {
                self.fused = true;
                Err(e)
            }
        }
    }

    /// Advances past one row without materialising its path (the `count`
    /// terminal). Returns whether a row was consumed.
    pub(crate) fn advance_row(&mut self) -> Result<bool, EngineError> {
        if self.fused {
            return Ok(false);
        }
        match self.advance_inner(false) {
            Ok(opt) => Ok(opt.is_some()),
            Err(e) => {
                self.fused = true;
                Err(e)
            }
        }
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
    /// [`RowCursor::next_row`]. Streaming pipelines with expansion work move
    /// whole row chunks through the stage tree per call (see [`crate::chunk`]);
    /// other strategies and pure-filter plans fall back to repeated scalar
    /// pulls, so every cursor supports this entry point. After an error the
    /// cursor is fused, exactly like the scalar protocol.
    pub fn next_chunk(&mut self, out: &mut Vec<ResultRow>) -> Result<bool, EngineError> {
        if self.fused {
            return Ok(false);
        }
        let target = self.config.chunk.max(1);
        if !self.chunkable || !matches!(self.inner, Inner::Pipe { .. }) {
            let before = out.len();
            for _ in 0..target {
                match self.next_row()? {
                    Some(row) => out.push(row),
                    None => break,
                }
            }
            return Ok(out.len() > before);
        }
        let ctx = ExecCtx {
            snapshot: &self.snapshot,
            cap: self.cap,
            counters: &self.counters,
            alive: self.alive.active(),
            use_csr: self.config.use_csr,
            budget: self.budget,
        };
        let Inner::Pipe { arena, root } = &mut self.inner else {
            unreachable!("checked above");
        };
        self.chunk_buf.clear();
        match root.pull_chunk(&ctx, arena, target, &mut self.chunk_buf.rows) {
            Ok(ChunkPull::Rows) => {
                if ctx.budgeted() {
                    if let Err(e) =
                        ctx.charge_bytes(self.chunk_buf.rows.len() as u64 * crate::exec::ROW_BYTES)
                    {
                        self.fused = true;
                        return Err(e);
                    }
                }
                out.extend(self.chunk_buf.rows.iter().map(|row| ResultRow {
                    source: row.source,
                    path: arena.to_path(row.path),
                    head: row.head,
                    weight: row.weight,
                }));
                Ok(true)
            }
            Ok(ChunkPull::Done | ChunkPull::Starved) => Ok(false),
            Err(e) => {
                self.fused = true;
                Err(e)
            }
        }
    }

    fn advance_inner(&mut self, materialise: bool) -> Result<Option<RowDelivery>, EngineError> {
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
            Inner::Pipe { arena, root } => match root.pull(&ctx, arena)? {
                ControlFlow::Continue(Some(row)) => Ok(Some(if materialise {
                    RowDelivery::Materialised(ResultRow {
                        source: row.source,
                        path: arena.to_path(row.path),
                        head: row.head,
                        weight: row.weight,
                    })
                } else {
                    RowDelivery::Counted
                })),
                ControlFlow::Continue(None) | ControlFlow::Break(()) => Ok(None),
            },
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
                Ok(buffered
                    .as_mut()
                    .and_then(|it| it.next())
                    .map(RowDelivery::Materialised))
            }
            Inner::Parallel(state) => Ok(state.next_row(&ctx)?.map(RowDelivery::Materialised)),
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

enum RowDelivery {
    Materialised(ResultRow),
    Counted,
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
    rows: VecDeque<ArenaRow>,
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

    /// Pulls up to `batch` rows from the partition's prefix pipeline (runs on
    /// a scoped worker thread). Suffix-free plans materialise here — path
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
        let mut produced = 0u64;
        for _ in 0..batch {
            match self.root.pull(&ctx, &self.arena)? {
                ControlFlow::Continue(Some(row)) => {
                    produced += 1;
                    if self.materialise {
                        self.finished.push_back(ResultRow {
                            source: row.source,
                            path: self.arena.to_path(row.path),
                            head: row.head,
                            weight: row.weight,
                        });
                    } else {
                        self.rows.push_back(row);
                    }
                }
                ControlFlow::Continue(None) | ControlFlow::Break(()) => {
                    self.done = true;
                    break;
                }
            }
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
/// `ControlFlow::Break` (a saturated `Limit`), the partition cursors are
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
                match sfx.root.pull(ctx, &sfx.arena)? {
                    ControlFlow::Break(()) => return Ok(None),
                    ControlFlow::Continue(Some(row)) => {
                        return Ok(Some(ResultRow {
                            source: row.source,
                            path: sfx.arena.to_path(row.path),
                            head: row.head,
                            weight: row.weight,
                        }))
                    }
                    ControlFlow::Continue(None) => {} // starved: feed below
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
