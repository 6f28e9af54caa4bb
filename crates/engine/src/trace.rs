//! Per-stage execution traces: the output of [`crate::Traversal::profile`].
//!
//! A [`QueryTrace`] mirrors the optimized [`crate::LogicalPlan`]: one
//! [`TraceNode`] per plan op plus one for the start frontier, linked
//! downstream-op-as-parent (the root is the last op; the sole leaf is the
//! start). Each node joins the planner's cardinality *estimate* (from
//! [`crate::plan::estimate`] of the plan that ran) with the executor's
//! *actuals* — rows in/out, pull and chunk counts, monotonic wall time,
//! expansions, and arena appends — so estimate-vs-actual drift is visible
//! per operation.
//!
//! Actuals are recorded by per-thread plain counters (`Cell`, like
//! [`crate::exec::ExecStats`]'s `Counters`) attached to each cursor stage
//! when profiling is enabled; partitioned (parallel-strategy) runs sum their
//! per-partition counters at the partition boundary. There are **no atomics
//! on the hot path**, and with profiling disabled the only residual cost is
//! one branch per pull.
//!
//! Semantics by strategy:
//!
//! * **Streaming** — `pulls`/`chunks` count protocol traffic per stage:
//!   every stage call asks for some number of rows, and a call that asks
//!   for one counts as a pull, any other as a chunk. Times are measured
//!   around each call and reported *exclusive* (self time, upstream stages
//!   subtracted).
//! * **Materialized / Parallel** — each op's stage is drained over the whole
//!   previous level, so `pulls`/`chunks` count that level's drain calls
//!   (each asks for `Traversal::chunk_size` rows; the last one reports
//!   `Done`) and the wall time is the level's. Under Parallel, a prefix
//!   op's drain calls, times and counters are summed over the partitions
//!   (its time is CPU time across threads, not wall time), and the
//!   partition → suffix id forwarding is credited to the prefix's last op.
//!   The start frontier node reports no calls.

use crate::exec::{ExecStats, ExecutionStrategy};
use crate::plan::OpEstimate;
use crate::query::QueryResult;

/// Per-op actuals accumulated during a profiled run, in source-first plan
/// order (index 0 = start frontier, index `i + 1` = plan op `i`). All
/// values are *exclusive* (the op's own work, upstream subtracted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub(crate) struct OpActuals {
    /// Rows the op emitted downstream.
    pub(crate) rows_out: u64,
    /// Stage calls that asked for one row.
    pub(crate) pulls: u64,
    /// Stage calls that asked for more than one row.
    pub(crate) chunks: u64,
    /// Wall time spent in the op itself, nanoseconds.
    pub(crate) nanos: u64,
    /// Edge expansions performed by the op itself.
    pub(crate) expansions: u64,
    /// Arena rows interned by the op itself.
    pub(crate) interned: u64,
}

impl OpActuals {
    pub(crate) fn merge(&mut self, other: &OpActuals) {
        self.rows_out += other.rows_out;
        self.pulls += other.pulls;
        self.chunks += other.chunks;
        self.nanos += other.nanos;
        self.expansions += other.expansions;
        self.interned += other.interned;
    }
}

/// One node of a [`QueryTrace`]: a plan op (or the start frontier, at the
/// leaf) with its estimate and measured actuals.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceNode {
    /// The op's human-readable description (same text as
    /// [`crate::PlanReport::estimates`]).
    pub op: String,
    /// The planner's estimated row count after this op.
    pub estimated_rows: f64,
    /// Rows this op consumed from its input (0 for the start frontier).
    /// Always equals the child node's `rows_out`.
    pub rows_in: u64,
    /// Rows this op emitted.
    pub rows_out: u64,
    /// Calls to this op's stage that asked for one row (`next_row`,
    /// `count`, and the one-row input pulls of walker stages).
    pub pulls: u64,
    /// Calls to this op's stage that asked for more than one row (chunked
    /// and level drains).
    pub chunks: u64,
    /// Wall time in this op alone (upstream excluded), nanoseconds.
    pub self_time_ns: u64,
    /// Wall time in this op and everything upstream of it, nanoseconds.
    pub total_time_ns: u64,
    /// Edge expansions performed by this op alone.
    pub expansions: u64,
    /// Arena nodes hash-consed by this op alone: the parallel boundary's id
    /// forwarding (see [`ExecStats::interned_nodes`](crate::ExecStats::interned_nodes)).
    /// Expansions push their nodes without interning and do not count here.
    pub arena_appends: u64,
    /// Upstream input (empty for the start frontier; at most one element —
    /// plans are chains, but the tree shape is kept general).
    pub children: Vec<TraceNode>,
}

impl TraceNode {
    /// This subtree flattened source-first (leaf/start before downstream
    /// ops) — the same order as [`crate::PlanReport::estimates`].
    pub fn flatten(&self) -> Vec<&TraceNode> {
        let mut out = Vec::new();
        fn walk<'a>(node: &'a TraceNode, out: &mut Vec<&'a TraceNode>) {
            for child in &node.children {
                walk(child, out);
            }
            out.push(node);
        }
        walk(self, &mut out);
        out
    }
}

/// The full execution trace of one profiled query: the optimized plan's
/// estimate-vs-actual tree plus run-wide totals.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryTrace {
    /// The strategy the run executed under.
    pub strategy: ExecutionStrategy,
    /// End-to-end wall time (plan + compile + drain), nanoseconds.
    pub total_time_ns: u64,
    /// Run-wide counters (same numbers as [`QueryResult::stats`]).
    pub stats: ExecStats,
    /// Root of the trace tree: the plan's final op.
    pub root: TraceNode,
}

impl QueryTrace {
    /// Joins planner estimates with executor actuals into the trace tree.
    /// Both are source-first and describe the same plan on the same
    /// snapshot: `estimates` is [`crate::plan::estimate`] of the plan whose
    /// cursor produced `actuals`.
    pub(crate) fn assemble(
        estimates: &[OpEstimate],
        actuals: &[OpActuals],
        strategy: ExecutionStrategy,
        stats: ExecStats,
        total_time_ns: u64,
    ) -> QueryTrace {
        let mut node: Option<TraceNode> = None;
        let mut upstream_ns = 0u64;
        let mut upstream_rows = 0u64;
        for (i, est) in estimates.iter().enumerate() {
            let a = actuals.get(i).cloned().unwrap_or_default();
            let total_ns = upstream_ns + a.nanos;
            node = Some(TraceNode {
                op: est.op.clone(),
                estimated_rows: est.rows,
                rows_in: if i == 0 { 0 } else { upstream_rows },
                rows_out: a.rows_out,
                pulls: a.pulls,
                chunks: a.chunks,
                self_time_ns: a.nanos,
                total_time_ns: total_ns,
                expansions: a.expansions,
                arena_appends: a.interned,
                children: node.take().into_iter().collect(),
            });
            upstream_ns = total_ns;
            upstream_rows = a.rows_out;
        }
        QueryTrace {
            strategy,
            total_time_ns,
            stats,
            root: node.unwrap_or(TraceNode {
                op: "start(0 vertices)".to_string(),
                estimated_rows: 0.0,
                rows_in: 0,
                rows_out: 0,
                pulls: 0,
                chunks: 0,
                self_time_ns: 0,
                total_time_ns: 0,
                expansions: 0,
                arena_appends: 0,
                children: Vec::new(),
            }),
        }
    }

    /// The trace nodes flattened source-first (start frontier first, final
    /// op last) — aligned with [`crate::PlanReport::estimates`].
    pub fn nodes_source_first(&self) -> Vec<&TraceNode> {
        self.root.flatten()
    }

    /// A multi-line rendering: one row per op, estimate next to actuals.
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "strategy: {:?}  total: {:.3}ms  expansions: {}  interned: {}",
            self.strategy,
            self.total_time_ns as f64 / 1e6,
            self.stats.expansions,
            self.stats.interned_nodes,
        );
        let _ = writeln!(
            s,
            "{:>10}  {:>10}  {:>10}  {:>10}  op",
            "est rows", "rows", "self ms", "expand"
        );
        for node in self.nodes_source_first() {
            let _ = writeln!(
                s,
                "{:>10.1}  {:>10}  {:>10.3}  {:>10}  {}",
                node.estimated_rows,
                node.rows_out,
                node.self_time_ns as f64 / 1e6,
                node.expansions,
                node.op
            );
        }
        s
    }
}

/// The result of [`crate::Traversal::profile`]: the query's rows (identical
/// to an unprofiled [`crate::Traversal::execute`]) plus its [`QueryTrace`].
#[derive(Debug, Clone)]
pub struct ProfiledQuery {
    /// The query result, row-for-row identical to an unprofiled run.
    pub result: QueryResult,
    /// The per-stage execution trace.
    pub trace: QueryTrace,
}
