//! Memory-budget governance: `Traversal::memory_budget` charges arena and
//! row growth against a per-query byte budget and fails the traversal with
//! `EngineError::MemoryBudget` — cleanly, mid-frontier, without poisoning
//! the store — across all three execution strategies.

use mrpa::datagen::{ingest_multigraph, preferential_attachment, BaConfig};
use mrpa::engine::{EngineError, ExecutionStrategy, PropertyGraph, Traversal};

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

fn dense_graph() -> PropertyGraph {
    let source = preferential_attachment(BaConfig {
        vertices: 600,
        edges_per_vertex: 4,
        labels: 3,
        seed: 11,
    });
    let graph = PropertyGraph::new();
    ingest_multigraph(&graph, &source).expect("ingest");
    graph
}

/// A pattern dense enough to blow any small budget on the test graph.
fn dense(g: &PropertyGraph) -> Traversal {
    Traversal::over(g).match_("(l0|l1|l2){1,4}")
}

#[test]
fn tiny_budget_trips_with_typed_error_under_all_strategies() {
    let g = dense_graph();
    for strategy in STRATEGIES {
        let err = dense(&g)
            .strategy(strategy)
            .memory_budget(4 * 1024)
            .execute()
            .unwrap_err();
        match err {
            EngineError::MemoryBudget { limit, charged } => {
                assert!(charged > limit, "{strategy:?}: charged {charged} > {limit}");
            }
            other => panic!("{strategy:?}: expected MemoryBudget, got {other:?}"),
        }
    }
}

#[test]
fn generous_budget_returns_identical_rows_and_reports_bytes() {
    let g = dense_graph();
    let reference = dense(&g).execute().unwrap();
    assert!(!reference.is_empty());
    for strategy in STRATEGIES {
        let budgeted = dense(&g)
            .strategy(strategy)
            .memory_budget(1 << 30)
            .execute()
            .unwrap();
        assert_eq!(budgeted.paths(), reference.paths(), "{strategy:?}");
        assert!(
            budgeted.stats().bytes_charged > 0,
            "{strategy:?}: a budgeted run must account its bytes"
        );
    }
    // unbudgeted runs skip accounting entirely
    assert_eq!(reference.stats().bytes_charged, 0);
}

#[test]
fn budget_error_fuses_the_cursor_like_cancellation() {
    let g = dense_graph();
    let mut cursor = dense(&g)
        .strategy(ExecutionStrategy::Streaming)
        .memory_budget(4 * 1024)
        .cursor()
        .unwrap();
    let mut tripped = false;
    for _ in 0..1_000_000 {
        match cursor.next_row() {
            Ok(Some(_)) => continue,
            Ok(None) => break,
            Err(EngineError::MemoryBudget { .. }) => {
                tripped = true;
                break;
            }
            Err(other) => panic!("unexpected error: {other:?}"),
        }
    }
    assert!(tripped, "the dense walk must exhaust a 4 KiB budget");
    // fused: every further pull is Ok(None), never a second error
    for _ in 0..3 {
        assert!(matches!(cursor.next_row(), Ok(None)));
    }
}

#[test]
fn budget_failure_never_poisons_the_store() {
    let g = dense_graph();
    let before = g.stats().generation;
    for strategy in STRATEGIES {
        let _ = dense(&g)
            .strategy(strategy)
            .memory_budget(2 * 1024)
            .execute()
            .unwrap_err();
    }
    // the store is untouched and fully usable afterwards
    assert_eq!(g.stats().generation, before);
    let ok = Traversal::over(&g).out_any().limit(5).execute().unwrap();
    assert_eq!(ok.len(), 5);
}

#[test]
fn budget_composes_with_limits_and_small_queries_fit() {
    let g = dense_graph();
    // a small query fits comfortably inside a modest budget
    let small = Traversal::over(&g)
        .out_any()
        .limit(8)
        .memory_budget(1 << 20)
        .execute()
        .unwrap();
    assert_eq!(small.len(), 8);
    // count/exists terminals surface the same typed error
    let err = dense(&g).memory_budget(2 * 1024).count().unwrap_err();
    assert!(matches!(err, EngineError::MemoryBudget { .. }));
}

#[test]
fn a_row_is_charged_once_at_any_chunk_size() {
    // K40, one hop: 1,560 rows of out-degree 39, fewer than a default
    // chunk. A row whose expansions overrun a smaller pull waits in the
    // expansion stage and is charged when delivered; the waiting buffer
    // adds at most its high-water mark, one out-degree of rows, so the
    // charge barely moves with the chunk size.
    let n = 40usize;
    let g = PropertyGraph::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            g.add_edge(&format!("v{i}"), "knows", &format!("v{j}"));
        }
    }
    for strategy in [
        ExecutionStrategy::Materialized,
        ExecutionStrategy::Streaming,
    ] {
        let charged = |chunk| {
            let r = Traversal::over(&g)
                .out(["knows"])
                .chunk_size(chunk)
                .memory_budget(1 << 30)
                .strategy(strategy)
                .execute()
                .unwrap();
            assert_eq!(r.len(), n * (n - 1));
            r.stats().bytes_charged
        };
        let whole = charged(2048);
        let slack = (n - 1) as u64 * whole / (n * (n - 1)) as u64;
        for chunk in [1, 7, 64] {
            let c = charged(chunk);
            assert!(
                c.abs_diff(whole) <= slack,
                "{strategy:?} chunk {chunk}: {c} vs {whole} at chunk 2048"
            );
        }
    }
}

#[test]
fn recycled_buffers_neither_add_nor_hide_a_charge() {
    // a budget charges lengths, never capacities: a budgeted query after a
    // large unbudgeted one on the same thread (whose arena and row buffers
    // it then reuses) charges exactly what it charges on a fresh thread
    let budgeted = |strategy, limit| {
        let g = dense_graph();
        dense(&g)
            .strategy(strategy)
            .memory_budget(limit)
            .execute()
            .map(|r| r.stats().bytes_charged)
    };
    for strategy in [
        ExecutionStrategy::Materialized,
        ExecutionStrategy::Streaming,
    ] {
        for limit in [1 << 30, 64 * 1024] {
            let fresh = std::thread::spawn(move || budgeted(strategy, limit))
                .join()
                .unwrap();
            let warm = std::thread::spawn(move || {
                let g = dense_graph();
                assert!(!dense(&g).strategy(strategy).execute().unwrap().is_empty());
                budgeted(strategy, limit)
            })
            .join()
            .unwrap();
            match (&fresh, &warm) {
                (Ok(a), Ok(b)) => assert_eq!(a, b, "{strategy:?}"),
                (
                    Err(EngineError::MemoryBudget {
                        limit: l1,
                        charged: c1,
                    }),
                    Err(EngineError::MemoryBudget {
                        limit: l2,
                        charged: c2,
                    }),
                ) => assert_eq!((l1, c1), (l2, c2), "{strategy:?}"),
                other => panic!("{strategy:?} at {limit}: {other:?}"),
            }
            assert_eq!(fresh.is_ok(), limit == 1 << 30, "{strategy:?}");
        }
    }
}
