//! Early-exit expansion pins of the cursor protocol on dense graphs, where
//! enumerating the whole answer would not finish or would exhaust a budget.
//! The assertions are on the expansion counter, not wall time:
//!
//! * `first()` after a dense `match_` on a complete graph performs a
//!   *bounded* number of expansions;
//! * a limited chunked `execute()` does the work of a `next_row` drain (the
//!   cursor has one stage protocol, and a one-row pull is a chunk of one);
//! * the materialized and parallel strategies finish a level before `limit`
//!   sees it, through every terminal;
//! * `Semantics::Reachable` terminates on cyclic graphs where walk
//!   enumeration exhausts a memory budget.
//!
//! The randomized equivalence properties (`limit(k)` prefixes, cursor
//! consumption, terminals, reachability rewrites) live in
//! `tests/equivalence.rs`.

use mrpa::engine::{
    EngineError, ExecutionStrategy, PropertyGraph, QueryResult, Traversal, UNBOUNDED_MATCH_HOPS,
};

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

fn row_sequence(result: &QueryResult) -> Vec<String> {
    result
        .rows()
        .iter()
        .map(|row| format!("{}-[{}]->{}", row.source, row.path, row.head))
        .collect()
}

/// Drains a cursor one `next_row` at a time; returns the row sequence and
/// the expansions it took.
fn next_row_drain(t: Traversal) -> (Vec<String>, u64) {
    let mut cursor = t.cursor().unwrap();
    let mut rows = Vec::new();
    while let Some(row) = cursor.next_row().unwrap() {
        rows.push(format!("{}-[{}]->{}", row.source, row.path, row.head));
    }
    (rows, cursor.stats().expansions)
}

/// The complete `knows`-digraph on `n` vertices.
fn complete_knows_graph(n: usize) -> PropertyGraph {
    let g = PropertyGraph::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g.add_edge(&format!("v{i}"), "knows", &format!("v{j}"));
            }
        }
    }
    g
}

#[test]
fn first_on_a_dense_match_performs_bounded_expansions() {
    // A complete knows-digraph: the walk set of knows+ within 16 hops is
    // astronomically large (Σ_{d≤16} 11·10^{d-1} walks from one vertex), so
    // anything that enumerates it will not finish. The assertion is on the
    // expansion counter, not wall time.
    let g = complete_knows_graph(12);
    // the first row costs one expansion per walk that must emit: the
    // R7-capped walk stops at the CSR entry of its first emission, and under
    // the parallel strategy each of the two partitions runs its own
    let per_strategy = [1, 1, 2];
    for (strategy, expected) in STRATEGIES.into_iter().zip(per_strategy) {
        // the terminal itself, from one start: one expansion
        let (row, execution) = Traversal::over(&g)
            .v(["v0"])
            .match_("knows+")
            .strategy(strategy)
            .parallel_threads(2)
            .first_with_stats()
            .unwrap();
        let row = row.expect("a complete graph has knows-walks");
        assert_eq!(row.path.len(), 1);
        assert_eq!(execution.stats().expansions, 1, "{strategy:?} first()");
        // from the whole-graph start
        let mut cursor = Traversal::over(&g)
            .match_("knows+")
            .limit(1)
            .strategy(strategy)
            .parallel_threads(2)
            .cursor()
            .unwrap();
        let row = cursor.next_row().unwrap().expect("one row");
        assert_eq!(row.path.len(), 1);
        let expansions = cursor.stats().expansions;
        assert_eq!(expansions, expected, "{strategy:?} limit(1)");
    }
    // bounded to 4 hops the walk set is enumerable (12 · Σ_{d≤4} 11^d =
    // 193,248 rows): limit(1) keeps exactly its first row, at the same cost
    let within = Traversal::over(&g).match_within("knows+", 4);
    for (strategy, expected) in STRATEGIES.into_iter().zip(per_strategy) {
        let full = within.clone().strategy(strategy).execute().unwrap();
        assert_eq!(full.len(), 193_248, "{strategy:?}");
        let limited = within
            .clone()
            .limit(1)
            .strategy(strategy)
            .parallel_threads(2)
            .execute()
            .unwrap();
        assert_eq!(limited.rows(), &full.rows()[..1], "{strategy:?}");
        let expansions = limited.stats().expansions;
        assert_eq!(expansions, expected, "{strategy:?} limit(1) within 4 hops");
    }
    // exists() on the same dense automaton is equally bounded
    assert!(Traversal::over(&g).match_("knows+").exists().unwrap());
}

#[test]
fn a_limited_chunked_drain_does_the_work_of_a_one_row_drain() {
    // Streaming out·out·dedup·limit(3) on K12: the first knows-neighbour's
    // own neighbours already hold 3 distinct heads, so 11 + 11 expansions
    // suffice however the rows are asked for. A stage that handed out more
    // than it was asked for would expand the whole second layer (132).
    let g = complete_knows_graph(12);
    let t = Traversal::over(&g)
        .out(["knows"])
        .out(["knows"])
        .dedup()
        .limit(3)
        .strategy(ExecutionStrategy::Streaming);
    let (rows, expansions) = next_row_drain(t.clone());
    assert_eq!((rows.len(), expansions), (3, 22), "next_row drain");
    for chunk in [1, 3, 2048] {
        let r = t.clone().chunk_size(chunk).execute().unwrap();
        assert_eq!(row_sequence(&r), rows, "execute() at chunk {chunk}");
        assert_eq!(r.stats().expansions, 22, "execute() at chunk {chunk}");
    }
    let (count, execution) = t.count_with_stats().unwrap();
    assert_eq!((count, execution.stats().expansions), (3, 22), "count()");
    // the answer is the strategy's and the chunk size's to find, not to
    // change: the batch strategies build whole levels, but keep the same 3
    for strategy in STRATEGIES {
        for chunk in [1, 3, 2048] {
            let r = t
                .clone()
                .strategy(strategy)
                .parallel_threads(2)
                .chunk_size(chunk)
                .execute()
                .unwrap();
            assert_eq!(row_sequence(&r), rows, "{strategy:?} at chunk {chunk}");
        }
    }
}

#[test]
fn materialized_limit_expands_the_whole_level_and_streaming_one_row() {
    // out(knows).limit(1) on K12 has no emission cap to push into: the
    // materialized strategy finishes the expansion level before `Limit`
    // sees it (all 132 edges), and so do the parallel strategy's partitions
    // between them; the streaming one expands only the first row's 11
    // neighbours — through every terminal.
    let g = complete_knows_graph(12);
    for (strategy, expected) in [
        (ExecutionStrategy::Materialized, 132),
        (ExecutionStrategy::Parallel, 132),
        (ExecutionStrategy::Streaming, 11),
    ] {
        let t = Traversal::over(&g)
            .out(["knows"])
            .limit(1)
            .strategy(strategy)
            .parallel_threads(2);
        let (row, first) = t.first_with_stats().unwrap();
        assert!(row.is_some(), "{strategy:?}");
        let (count, counted) = t.count_with_stats().unwrap();
        assert_eq!(count, 1, "{strategy:?}");
        let executed = t.execute().unwrap();
        assert_eq!(executed.len(), 1, "{strategy:?}");
        let mut cursor = t.cursor().unwrap();
        assert!(cursor.next_row().unwrap().is_some(), "{strategy:?}");
        for (terminal, expansions) in [
            ("first()", first.stats().expansions),
            ("count()", counted.stats().expansions),
            ("execute()", executed.stats().expansions),
            ("cursor", cursor.stats().expansions),
        ] {
            assert_eq!(expansions, expected, "{strategy:?} {terminal}");
        }
    }
}

#[test]
fn reachable_semantics_terminates_where_walk_enumeration_trips_the_cap() {
    // Two interleaved cycles: every vertex has two knows-successors, so the
    // walk count doubles per depth (2^d) and a deep walk enumeration
    // exhausts a memory budget. Reachability dedups the frontier by
    // (vertex, state) and terminates — without any hop bound at all.
    let g = PropertyGraph::new();
    let n = 24usize;
    for i in 0..n {
        g.add_edge(&format!("v{i}"), "knows", &format!("v{}", (i + 1) % n));
        g.add_edge(&format!("v{i}"), "knows", &format!("v{}", (i + 2) % n));
    }
    let walks = Traversal::over(&g)
        .v(["v0"])
        .match_within("knows+", 1000)
        .memory_budget(1 << 24)
        .execute();
    assert!(matches!(walks, Err(EngineError::MemoryBudget { .. })));
    // unbounded reachability: every vertex is reachable, one row per
    // (vertex, accepting state) — here exactly one accepting state
    let reached = Traversal::over(&g)
        .v(["v0"])
        .match_reachable("knows+")
        .execute()
        .unwrap();
    assert_eq!(reached.len(), n);
    let mut heads = reached.distinct_heads();
    heads.sort_unstable();
    assert_eq!(heads.len(), n);
    // each surviving path is the breadth-first first walk to its head
    for strategy in STRATEGIES {
        let r = Traversal::over(&g)
            .v(["v0"])
            .match_reachable("knows+")
            .strategy(strategy)
            .execute()
            .unwrap();
        assert_eq!(row_sequence(&r), row_sequence(&reached), "{strategy:?}");
    }
    // an unbounded hop count without reachability is rejected at plan time
    let err = Traversal::over(&g)
        .v(["v0"])
        .match_within("knows+", UNBOUNDED_MATCH_HOPS)
        .execute();
    assert!(matches!(err, Err(EngineError::Unsupported(_))));
}
