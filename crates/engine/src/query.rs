//! Query results: the rows produced by executing a traversal.
//!
//! A [`QueryResult`] is a thin collect of the execution cursor: `execute()`
//! drains the strategy's [`RowCursor`](crate::RowCursor) into a row vector
//! and attaches the [`Execution`] it came from. Consumers that do not need
//! every row should use the cursor (or the `first`/`exists`/`count`
//! terminals) instead.

use mrpa_core::{Path, PathSet, VertexId};

use crate::exec::ExecStats;
use crate::plan::{self, LogicalPlan, OpEstimate};
use crate::store::GraphSnapshot;

/// One result row: where the traversal started, the path it took (ε if no
/// expansion step has run), the vertex it currently sits on, and — when a
/// weighted step produced it — the path's semiring cost.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultRow {
    /// The start vertex of this row.
    pub source: VertexId,
    /// The path of edges traversed so far (ε when no expansion has happened).
    pub path: Path,
    /// The vertex the row currently rests on (`γ⁺(path)`, or `source` for ε).
    pub head: VertexId,
    /// The semiring cost assigned by the most recent weighted step
    /// (`cheapest_`/`widest_`): the `⊗`-fold of that step's edge weights
    /// along `path`'s weighted segment. `None` when no weighted step has
    /// run; preserved unchanged through filters, dedup, limits, and
    /// unweighted expansions.
    pub weight: Option<f64>,
}

/// What one execution ran: the snapshot it was pinned to, the optimized
/// plan its cursor compiled, and the work counters it accumulated. Every
/// terminal hands one back (inside a [`QueryResult`], or beside the answer
/// of the `*_with_stats` terminals), so a caller can report on the plan that
/// actually ran without planning the query a second time.
///
/// ```
/// use mrpa_engine::{classic_social_graph, Traversal};
/// let g = classic_social_graph();
/// let t = Traversal::over(&g).v(["marko"]).match_("knows+·created");
/// let (n, execution) = t.count_with_stats().unwrap();
/// assert_eq!(n, 2);
/// // the estimates EXPLAIN would report, read off the plan that ran
/// assert_eq!(execution.estimates(), t.explain().unwrap().estimates());
/// ```
#[derive(Debug, Clone)]
pub struct Execution {
    snapshot: GraphSnapshot,
    plan: LogicalPlan,
    stats: ExecStats,
}

impl Execution {
    pub(crate) fn new(snapshot: GraphSnapshot, plan: LogicalPlan, stats: ExecStats) -> Self {
        Execution {
            snapshot,
            plan,
            stats,
        }
    }

    /// The snapshot (generation) the execution read.
    pub fn snapshot(&self) -> &GraphSnapshot {
        &self.snapshot
    }

    /// The optimized plan the execution ran.
    pub fn plan(&self) -> &LogicalPlan {
        &self.plan
    }

    /// Work counters for the execution (e.g. the number of adjacency entries
    /// the expansion ops visited).
    pub fn stats(&self) -> ExecStats {
        self.stats
    }

    /// The planner's per-op estimates for the executed plan on the executed
    /// snapshot ([`plan::estimate`]), computed on demand: no re-plan, and
    /// no cost unless asked for.
    pub fn estimates(&self) -> Vec<OpEstimate> {
        plan::estimate(&self.snapshot, &self.plan)
    }
}

/// The result of executing a traversal.
#[derive(Debug, Clone)]
pub struct QueryResult {
    rows: Vec<ResultRow>,
    execution: Execution,
}

impl QueryResult {
    pub(crate) fn new(rows: Vec<ResultRow>, execution: Execution) -> Self {
        QueryResult { rows, execution }
    }

    /// Work counters for the execution that produced this result (e.g. the
    /// number of adjacency entries the expansion ops visited).
    pub fn stats(&self) -> ExecStats {
        self.execution.stats
    }

    /// The execution that produced this result: snapshot, executed plan and
    /// work counters.
    pub fn execution(&self) -> &Execution {
        &self.execution
    }

    /// Drops the rows, keeping the [`Execution`] that produced them.
    pub fn into_execution(self) -> Execution {
        self.execution
    }

    /// The result rows in executor order.
    pub fn rows(&self) -> &[ResultRow] {
        &self.rows
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the result is empty.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// The current (head) vertex of every row, in executor order.
    pub fn heads(&self) -> Vec<VertexId> {
        self.rows.iter().map(|r| r.head).collect()
    }

    /// The distinct head vertices, in ascending id order.
    pub fn distinct_heads(&self) -> Vec<VertexId> {
        let mut hs = self.heads();
        hs.sort_unstable();
        hs.dedup();
        hs
    }

    /// The per-row semiring costs, in executor order (`None` for rows no
    /// weighted step produced).
    pub fn weights(&self) -> Vec<Option<f64>> {
        self.rows.iter().map(|r| r.weight).collect()
    }

    /// The head vertices rendered as names, in executor (row) order —
    /// consistent with [`QueryResult::heads`] and [`QueryResult::rows`].
    pub fn head_names(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| self.execution.snapshot.render_vertex(r.head))
            .collect()
    }

    /// The head vertices rendered as names, sorted alphabetically (duplicates
    /// kept). Use this when asserting on results whose row order is
    /// strategy-dependent.
    pub fn head_names_sorted(&self) -> Vec<String> {
        let mut names = self.head_names();
        names.sort();
        names
    }

    /// The traversed paths as a [`PathSet`] (ε rows contribute ε).
    pub fn paths(&self) -> PathSet {
        self.rows.iter().map(|r| r.path.clone()).collect()
    }

    /// Renders every row as `source -[path]-> head` using vertex names.
    pub fn render_rows(&self) -> Vec<String> {
        self.rows
            .iter()
            .map(|r| {
                format!(
                    "{} -[{} edges]-> {}",
                    self.execution.snapshot.render_vertex(r.source),
                    r.path.len(),
                    self.execution.snapshot.render_vertex(r.head)
                )
            })
            .collect()
    }

    /// The snapshot the query ran against.
    pub fn snapshot(&self) -> &GraphSnapshot {
        &self.execution.snapshot
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::Traversal;
    use crate::store::classic_social_graph;

    #[test]
    fn result_exposes_rows_heads_and_paths() {
        let g = classic_social_graph();
        let r = Traversal::over(&g)
            .v(["marko"])
            .out(["knows"])
            .execute()
            .unwrap();
        assert_eq!(r.len(), 2);
        assert!(!r.is_empty());
        assert_eq!(r.heads().len(), 2);
        assert_eq!(r.distinct_heads().len(), 2);
        // head_names preserves row order (marko's knows-edges were inserted
        // vadas first); head_names_sorted sorts alphabetically
        assert_eq!(r.head_names(), vec!["vadas", "josh"]);
        assert_eq!(r.head_names_sorted(), vec!["josh", "vadas"]);
        let row_order: Vec<String> = r
            .heads()
            .iter()
            .map(|&v| r.snapshot().render_vertex(v))
            .collect();
        assert_eq!(r.head_names(), row_order);
        let paths = r.paths();
        assert_eq!(paths.len(), 2);
        assert!(paths.iter().all(|p| p.len() == 1));
        assert_eq!(r.render_rows().len(), 2);
        assert!(r.render_rows()[0].contains("marko"));
        assert_eq!(r.snapshot().graph().edge_count(), 6);
    }

    #[test]
    fn start_only_traversal_has_epsilon_paths() {
        let g = classic_social_graph();
        let r = Traversal::over(&g).v(["marko"]).execute().unwrap();
        assert_eq!(r.len(), 1);
        assert_eq!(r.rows()[0].path, Path::epsilon());
        assert_eq!(r.rows()[0].source, r.rows()[0].head);
    }

    #[test]
    fn a_result_row_is_sixty_four_bytes() {
        // the 40-byte path keeps up to three edges inline, so a delivered
        // row of at most three edges owns no heap chunk
        assert_eq!(std::mem::size_of::<ResultRow>(), 64);
    }
}
