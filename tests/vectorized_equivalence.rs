//! Seeded equivalence tests for chunked execution across chunk sizes.
//!
//! The acceptance property of the chunked row transport: for every query
//! form the engine supports — step chains in all directions, regular path
//! patterns, weighted search, bounded repetition, filters, dedup, limits —
//! executing at an adversarial chunk size produces **exactly** the rows of
//! the same strategy at the default chunk size, row order and weights
//! included, under every execution strategy. Both runs scan the same
//! per-generation CSR adjacency through the one chunked stage protocol;
//! chunk size 1 suspends every stage at every row boundary, 3 splits
//! frontiers mid-layer. On full-drain forms the `ExecStats` expansion
//! counters must agree too — suspending a stage must not change which edges
//! it visits. Under a limit the optimizer does not push into an automaton
//! they may differ, because the two runs ask for different chunk sizes: a
//! stage asks its input for up to one chunk of rows, so an expansion
//! upstream may run ahead by up to one chunk (rows are still identical).

use rand::Rng as _;

use mrpa::datagen::random::{rng_stream, Rng};
use mrpa::engine::{ExecutionStrategy, PropertyGraph, QueryResult, Traversal, Value};

const CASES: usize = 32;

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

/// Chunk sizes that stress the protocol: 1 suspends between every row, 3
/// splits frontiers mid-layer, the default exercises the intended shape.
const CHUNKS: [usize; 3] = [1, 3, 2048];

const LABELS: [&str; 3] = ["a", "b", "c"];

/// A small random property graph (same family as the optimizer-equivalence
/// suite): every label interned deterministically, then random edges — dense
/// enough for multi-hop patterns to branch, small enough for 32 × 3 × 3
/// cases to stay fast.
fn random_graph(r: &mut Rng) -> PropertyGraph {
    let g = PropertyGraph::new();
    let n = r.gen_range(4usize..12);
    for i in 0..n {
        let v = g.add_vertex(&format!("v{i}"));
        g.set_vertex_property(v, "age", Value::Int(r.gen_range(10i64..60)));
    }
    g.add_edge("v0", "a", "v1");
    g.add_edge("v1", "b", "v2");
    g.add_edge("v2", "c", "v0");
    let m = r.gen_range(6usize..28);
    for _ in 0..m {
        let t = format!("v{}", r.gen_range(0..n));
        let h = format!("v{}", r.gen_range(0..n));
        let l = LABELS[r.gen_range(0..LABELS.len())];
        g.add_edge(&t, l, &h);
    }
    g
}

fn cases(stream: u64, mut check: impl FnMut(&mut Rng, usize)) {
    for case in 0..CASES {
        let mut r = rng_stream(0x0717_1337, stream.wrapping_mul(1000) + case as u64);
        check(&mut r, case);
    }
}

/// Order-sensitive row signature including the weight column: the chunked
/// run must reproduce the reference run's row *sequence*, not just the set.
fn row_sequence(result: &QueryResult) -> Vec<String> {
    result
        .rows()
        .iter()
        .map(|row| {
            format!(
                "{}-[{}]->{} w={:?}",
                row.source, row.path, row.head, row.weight
            )
        })
        .collect()
}

/// Executes `build()` at the default chunk size (the reference) and at
/// `chunk` rows under `strategy` and asserts row-for-row equality; returns
/// both results so callers can additionally compare stats.
fn assert_equivalent(
    build: &dyn Fn() -> Traversal,
    strategy: ExecutionStrategy,
    chunk: usize,
    label: &str,
) -> (QueryResult, QueryResult) {
    let reference = build().strategy(strategy).execute().unwrap();
    let chunked = build()
        .strategy(strategy)
        .chunk_size(chunk)
        .execute()
        .unwrap();
    assert_eq!(
        row_sequence(&reference),
        row_sequence(&chunked),
        "{label} strategy {strategy:?} chunk {chunk}"
    );
    (reference, chunked)
}

#[test]
fn step_chains_match_scalar_row_for_row_with_equal_expansions() {
    cases(10, |r, case| {
        let g = random_graph(r);
        let l1 = LABELS[r.gen_range(0..LABELS.len())];
        let l2 = LABELS[r.gen_range(0..LABELS.len())];
        let cutoff = r.gen_range(10i64..60) as f64;
        for strategy in STRATEGIES {
            for chunk in CHUNKS {
                let (reference, chunked) = assert_equivalent(
                    &|| {
                        Traversal::over(&g)
                            .out([l1])
                            .has("age", mrpa::engine::Predicate::Gt(cutoff))
                            .in_([l2])
                            .both([l1, l2])
                            .dedup()
                    },
                    strategy,
                    chunk,
                    &format!("case {case} chain {l1}/{l2}"),
                );
                // full drain: the chunked run must do exactly the reference's work
                assert_eq!(
                    reference.stats().expansions,
                    chunked.stats().expansions,
                    "case {case} chain expansions, {strategy:?} chunk {chunk}"
                );
            }
        }
    });
}

#[test]
fn match_patterns_agree_under_walk_and_reachable_semantics() {
    cases(11, |r, case| {
        let g = random_graph(r);
        let l = LABELS[r.gen_range(0..LABELS.len())];
        let walk_pattern = format!("{l}+");
        for strategy in STRATEGIES {
            for chunk in CHUNKS {
                let (s1, c1) = assert_equivalent(
                    &|| Traversal::over(&g).match_within(&walk_pattern, 3),
                    strategy,
                    chunk,
                    &format!("case {case} match {walk_pattern}"),
                );
                assert_eq!(
                    s1.stats().expansions,
                    c1.stats().expansions,
                    "case {case} match expansions, {strategy:?} chunk {chunk}"
                );
                // reachability semantics exercises the seen-set discipline
                let (s2, c2) = assert_equivalent(
                    &|| Traversal::over(&g).match_reachable(&format!("{l}*·a")),
                    strategy,
                    chunk,
                    &format!("case {case} reach {l}*·a"),
                );
                assert_eq!(
                    s2.stats().expansions,
                    c2.stats().expansions,
                    "case {case} reach expansions, {strategy:?} chunk {chunk}"
                );
            }
        }
    });
}

#[test]
fn weighted_search_agrees_including_emitted_costs() {
    cases(12, |r, case| {
        let g = random_graph(r);
        let l = LABELS[r.gen_range(0..LABELS.len())];
        let pattern = format!("{l}+");
        for strategy in STRATEGIES {
            for chunk in CHUNKS {
                // unit weights: cost = hop count; row_sequence compares the
                // weight column, so emitted costs are pinned too
                let (s, c) = assert_equivalent(
                    &|| Traversal::over(&g).cheapest_within(&pattern, 4),
                    strategy,
                    chunk,
                    &format!("case {case} cheapest {pattern}"),
                );
                assert_eq!(
                    s.stats().expansions,
                    c.stats().expansions,
                    "case {case} cheapest expansions, {strategy:?} chunk {chunk}"
                );
            }
        }
    });
}

#[test]
fn repeat_and_limit_forms_agree() {
    cases(13, |r, case| {
        let g = random_graph(r);
        let l = LABELS[r.gen_range(0..LABELS.len())];
        let k = r.gen_range(0usize..8);
        for strategy in STRATEGIES {
            for chunk in CHUNKS {
                let (s, c) = assert_equivalent(
                    &|| Traversal::over(&g).repeat(1..=2, |b| b.out([l])),
                    strategy,
                    chunk,
                    &format!("case {case} repeat {l}"),
                );
                assert_eq!(
                    s.stats().expansions,
                    c.stats().expansions,
                    "case {case} repeat expansions, {strategy:?} chunk {chunk}"
                );
                // rows under a trailing limit must still match exactly;
                // expansion counts are not compared: the two runs ask for
                // different chunk sizes, and a stage may pull up to one
                // chunk of input ahead of the rows it hands out
                assert_equivalent(
                    &|| Traversal::over(&g).match_within("a·(b|c)", 3).limit(k),
                    strategy,
                    chunk,
                    &format!("case {case} limit {k}"),
                );
            }
        }
    });
}
