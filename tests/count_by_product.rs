//! `count()` by algebra on the dense social graph the `dense_fit` benchmark
//! reads (seed 11: 2,000 persons, 8 `knows`, 2 `created`, 2 `uses` each).
//!
//! `persons.out(knows).out(knows).out(created).count()` is a three-layer
//! vector × CSR product: exact to the walk, and to the CSR entry — each
//! layer visits the labeled segments of the previous layer's *distinct*
//! heads once, where the cursor visits them once per walk. Budget, cap and
//! cancellation end a count the way they end `execute()`.

use std::collections::BTreeSet;

use mrpa::core::{LabelId, MultiGraph, VertexId};
use mrpa::datagen::{social_graph, SocialConfig};
use mrpa::engine::{
    count, CancelToken, EngineError, ExecutionStrategy, Predicate, PropertyGraph, Traversal, Value,
};

const PEOPLE: usize = 2_000;

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

fn dense_social() -> PropertyGraph {
    social_graph(SocialConfig {
        people: PEOPLE,
        software: PEOPLE / 10,
        knows_per_person: 8,
        created_per_person: 2,
        uses_per_person: 2,
        seed: 11,
    })
}

/// The chain under `strategy`; the parallel strategy gets two partitions
/// whatever the machine's core count.
fn chain(g: &PropertyGraph, strategy: ExecutionStrategy) -> Traversal {
    Traversal::over(g)
        .v_where("kind", Predicate::Eq(Value::from("person")))
        .out(["knows"])
        .out(["knows"])
        .out(["created"])
        .strategy(strategy)
        .parallel_threads(2)
}

/// The distinct heads of `label`-edges out of `tails`.
fn heads(graph: &MultiGraph, tails: &BTreeSet<VertexId>, label: LabelId) -> BTreeSet<VertexId> {
    tails
        .iter()
        .flat_map(|&v| graph.out_edges_labeled(v, label).iter().map(|e| e.head))
        .collect()
}

/// The `label`-edges out of `tails`: the CSR entries one product layer
/// visits.
fn degree_sum(graph: &MultiGraph, tails: &BTreeSet<VertexId>, label: LabelId) -> u64 {
    tails
        .iter()
        .map(|&v| graph.out_edges_labeled(v, label).len() as u64)
        .sum()
}

#[test]
fn the_seed_11_chain_counts_every_walk_and_visits_each_segment_once_per_layer() {
    let g = dense_social();
    let snap = g.snapshot();
    let graph = snap.graph();
    let (knows, created) = (snap.label("knows").unwrap(), snap.label("created").unwrap());
    let persons: BTreeSet<VertexId> = (0..PEOPLE)
        .map(|p| snap.vertex(&format!("person{p}")).unwrap())
        .collect();
    let layer1 = heads(graph, &persons, knows);
    let layer2 = heads(graph, &layer1, knows);
    let visited = degree_sum(graph, &persons, knows)
        + degree_sum(graph, &layer1, knows)
        + degree_sum(graph, &layer2, created);
    let knows_edges = graph.edges_with_label(knows).len() as u64;
    let created_edges = graph.edges_with_label(created).len() as u64;
    assert_eq!(knows_edges, 15_972);
    assert!(visited <= 2 * knows_edges + created_edges, "{visited}");

    for strategy in STRATEGIES {
        let (n, execution) = chain(&g, strategy).count_with_stats().unwrap();
        assert!(count::by_product(execution.plan()), "{strategy:?}");
        assert_eq!(n, 254_324, "{strategy:?}");
        let stats = execution.stats();
        assert_eq!(stats.expansions, visited, "{strategy:?}");
        assert_eq!(stats.interned_nodes, 0, "{strategy:?}");
    }
    // the cursor enumerates the same walks one by one
    let drained = chain(&g, ExecutionStrategy::Materialized)
        .execute()
        .unwrap();
    assert_eq!(drained.len(), 254_324);
    assert_eq!(drained.stats().expansions, 397_842);
}

#[test]
fn budget_cap_and_cancellation_end_a_count_as_they_end_execute() {
    let g = dense_social();
    let cancelled = CancelToken::new();
    cancelled.cancel();
    let rows = |t: Traversal| t.execute().map(|r| r.len());
    for strategy in STRATEGIES {
        let t = chain(&g, strategy);

        // 2,000 start entries alone exceed 16 KiB; the arena does too
        let tight = t.clone().memory_budget(16 * 1024);
        for outcome in [tight.count(), rows(tight.clone())] {
            assert!(
                matches!(outcome, Err(EngineError::MemoryBudget { .. })),
                "{strategy:?}: {outcome:?}"
            );
        }
        // a budget both fit in: the product charges its vectors
        let ample = t.clone().memory_budget(1 << 30);
        let (n, execution) = ample.count_with_stats().unwrap();
        assert_eq!(Ok(n), rows(ample), "{strategy:?}");
        assert!(execution.stats().bytes_charged > 0, "{strategy:?}");

        let stopped = t.clone().cancel_token(&cancelled);
        assert_eq!(stopped.count(), Err(EngineError::Cancelled), "{strategy:?}");
        assert_eq!(rows(stopped), Err(EngineError::Cancelled), "{strategy:?}");
    }
}

#[test]
fn a_bounded_global_reachability_count_follows_row_order() {
    // Rows run in start order and share one seen-set: `a` reaches `p` at
    // the hop bound, so `b`, one hop from `p`, finds it seen and never
    // expands it, and `q` is never reached. A BFS from both starts at once
    // would reach `q` through `b`; the count drains the cursor instead.
    let g = PropertyGraph::new();
    for (tail, head) in [("a", "x"), ("x", "p"), ("p", "q"), ("b", "p")] {
        g.add_edge(tail, "l", head);
    }
    let bounded = Traversal::over(&g)
        .v(["a", "b"])
        .match_reachable_global_within("l+", 2)
        .dedup();
    assert_eq!(bounded.execute().unwrap().head_names_sorted(), ["p", "x"]);
    let (n, execution) = bounded.count_with_stats().unwrap();
    assert_eq!(n, 2);
    assert!(!count::by_product(execution.plan()));
    // without a bound the seen-set is the closure from both starts
    let unbounded = Traversal::over(&g)
        .v(["a", "b"])
        .match_reachable_global("l+")
        .dedup();
    let (n, execution) = unbounded.count_with_stats().unwrap();
    assert_eq!(n, unbounded.execute().unwrap().len());
    assert_eq!(n, 3);
    assert!(count::by_product(execution.plan()));
}

#[test]
fn a_reachability_count_expands_each_pair_once_at_its_least_depth() {
    // K12 from v0: knows+ has a start state s0 and one accepting state s1.
    // (v0, s0) expands its 11 edges, and each of the 12 (v, s1) pairs —
    // v0's 11 neighbours at depth 1, v0 itself at depth 2 — its 11 once:
    // 11 + 12 · 11 = 143. The product's seen-set and the cursor's per-row
    // walk expand the same pairs.
    let g = PropertyGraph::new();
    for i in 0..12 {
        for j in (0..12).filter(|&j| j != i) {
            g.add_edge(&format!("v{i}"), "knows", &format!("v{j}"));
        }
    }
    for strategy in STRATEGIES {
        let t = Traversal::over(&g)
            .v(["v0"])
            .match_reachable("knows+")
            .dedup()
            .strategy(strategy)
            .parallel_threads(2);
        let (n, execution) = t.count_with_stats().unwrap();
        assert!(count::by_product(execution.plan()), "{strategy:?}");
        assert_eq!((n, execution.stats().expansions), (12, 143), "{strategy:?}");
        let rows = t.execute().unwrap();
        assert_eq!(
            (rows.len(), rows.stats().expansions),
            (12, 143),
            "{strategy:?}"
        );
    }
}

#[test]
fn walk_counts_past_enumeration_are_exact_and_past_u64_an_error() {
    // K12: 12 · 11^d knows-walks of length d. Up to 17 hops that is ~6.7e18
    // walks — no cursor drains it, and the product's frontier never holds
    // more than 12 (vertex, state) pairs. At 18 hops the sum passes u64.
    let n = 12u128;
    let g = PropertyGraph::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            g.add_edge(&format!("v{i}"), "knows", &format!("v{j}"));
        }
    }
    let walks = |hops: u32| (1..=hops).map(|d| n * (n - 1).pow(d)).sum::<u128>();
    let t = |hops: usize| Traversal::over(&g).match_within("knows+", hops);
    let (count, execution) = t(17).count_with_stats().unwrap();
    assert_eq!(count as u128, walks(17));
    // 17 layers, each visiting the 132 edges once
    assert_eq!(execution.stats().expansions, 17 * 132);
    assert!(walks(18) > u128::from(u64::MAX));
    assert!(matches!(
        t(18).count(),
        Err(EngineError::BoundExceeded {
            what: "walk count",
            ..
        })
    ));
}
