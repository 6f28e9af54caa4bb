//! Snapshot cost-model and isolation tests for the epoch/copy-on-write store.
//!
//! Three families of properties:
//!
//! 1. **O(1) snapshots** — taking (any number of) snapshots performs no
//!    graph/property/interner deep clone; only the first mutation after a
//!    snapshot pays the one copy-on-write generation copy. Counter-asserted
//!    via [`PropertyGraph::stats`], not wall time.
//! 2. **No reversed graph on the read path** — `In`, `Both`, wildcard,
//!    `In`-automaton and `In`-weighted plans read the In-direction CSR,
//!    built at most once per generation, and never build the reversed graph
//!    under any strategy.
//! 3. **Snapshot isolation under writer churn** — seeded random graphs are
//!    frozen with a snapshot, scoped writer threads mutate the live store
//!    (add/remove edges, set properties) while traversals execute against
//!    the frozen snapshot under all three strategies; every result is
//!    row-for-row identical to the single-threaded evaluation of the frozen
//!    graph.

use rand::Rng as _;

use mrpa::datagen::random::{rng_stream, Rng};
use mrpa::engine::{
    exec, plan, Direction, ExecutionStrategy, Pipeline, PropertyGraph, QueryResult, SemiringKind,
    StartSpec, Step, Traversal, Value, WeightSpec,
};

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

const LABELS: [&str; 3] = ["a", "b", "c"];

/// A small random property graph over a fixed label vocabulary.
fn random_graph(r: &mut Rng) -> PropertyGraph {
    let g = PropertyGraph::new();
    let n = r.gen_range(5usize..14);
    for i in 0..n {
        let v = g.add_vertex(&format!("v{i}"));
        g.set_vertex_property(v, "age", Value::Int(r.gen_range(10i64..60)));
    }
    g.add_edge("v0", "a", "v1");
    g.add_edge("v1", "b", "v2");
    g.add_edge("v2", "c", "v0");
    let m = r.gen_range(6usize..30);
    for _ in 0..m {
        let t = format!("v{}", r.gen_range(0..n));
        let h = format!("v{}", r.gen_range(0..n));
        let l = LABELS[r.gen_range(0..LABELS.len())];
        g.add_edge(&t, l, &h);
    }
    g
}

fn row_sequence(result: &QueryResult) -> Vec<String> {
    result
        .rows()
        .iter()
        .map(|row| format!("{}-[{}]->{}", row.source, row.path, row.head))
        .collect()
}

#[test]
fn snapshots_never_deep_clone_an_unchanged_graph() {
    let mut r = rng_stream(0x5eed_c0de, 1);
    let g = random_graph(&mut r);
    assert_eq!(g.stats().deep_clones, 0, "building never clones");
    // a pile of snapshots and full query executions: still zero clones
    let snaps: Vec<_> = (0..50).map(|_| g.snapshot()).collect();
    for strategy in STRATEGIES {
        Traversal::over(&g)
            .out(["a"])
            .out(["b"])
            .strategy(strategy)
            .execute()
            .unwrap();
    }
    assert_eq!(
        g.stats().deep_clones,
        0,
        "snapshot() must be an Arc clone, not a graph copy"
    );
    // the first mutation after snapshots were taken pays the one COW copy;
    // the generation the snapshots pin stays frozen
    let before = snaps[0].graph().edge_count();
    g.add_edge("v0", "a", "v2");
    assert_eq!(g.stats().deep_clones, 1);
    g.add_edge("v1", "c", "v0");
    g.remove_edge("v0", "a", "v1");
    assert_eq!(
        g.stats().deep_clones,
        1,
        "in-place once the gen is unshared"
    );
    assert!(snaps.iter().all(|s| s.graph().edge_count() == before));
}

#[test]
fn in_direction_plans_read_the_in_csr_and_never_build_the_reversed_graph() {
    let g = mrpa::engine::classic_social_graph();
    let in_weighted = Step::Weighted {
        pattern: "created·knows".into(),
        max_hops: 2,
        direction: Direction::In,
        semiring: SemiringKind::Shortest,
        weight: WeightSpec::Unit,
    };
    // In, Both, wildcard, In-automaton and In-weighted queries under every
    // strategy
    let queries = |strategy| {
        let base = Traversal::over(&g).strategy(strategy);
        let lop = base.clone().v(["lop"]);
        assert_eq!(lop.clone().in_(["created"]).count().unwrap(), 3);
        assert_eq!(lop.clone().both(["created"]).count().unwrap(), 3);
        assert_eq!(base.clone().in_any().count().unwrap(), 6);
        assert_eq!(base.clone().both_any().count().unwrap(), 12);
        assert_eq!(lop.clone().match_in_("created·knows").count().unwrap(), 1);
        assert_eq!(
            base.clone().match_in_within("knows*", 2).count().unwrap(),
            8
        );
        assert_eq!(
            lop.with_steps(vec![in_weighted.clone()]).count().unwrap(),
            1
        );
        base.out(["created"]).dedup().execute().unwrap();
    };
    for strategy in STRATEGIES {
        queries(strategy);
    }
    let stats = g.stats();
    assert_eq!(
        stats.reversed_builds, 0,
        "no query builds the reversed graph"
    );
    assert_eq!(
        stats.csr_builds, 2,
        "one Out and one In build per generation"
    );

    // a structural mutation starts a new generation: the In CSR is built
    // once more on the next In-direction query, and only then
    g.add_edge("vadas", "knows", "peter");
    Traversal::over(&g).out(["knows"]).execute().unwrap();
    assert_eq!(g.stats().csr_builds, 3);
    for strategy in STRATEGIES {
        let r = Traversal::over(&g)
            .v(["peter"])
            .in_(["knows"])
            .strategy(strategy)
            .execute()
            .unwrap();
        assert_eq!(r.head_names_sorted(), vec!["vadas"]);
    }
    assert_eq!(g.stats().csr_builds, 4);
    assert_eq!(g.stats().reversed_builds, 0);
}

/// A pipeline mix covering the executors' moving parts, pure-`Out` so churn
/// results are comparable, with stateful tails.
fn churn_pipelines() -> Vec<Pipeline> {
    vec![
        Pipeline::new().out(["a"]).out(["b"]),
        Pipeline::new().out_any().dedup(),
        Pipeline::new().out_any().out_any().dedup().limit(7),
        Pipeline::new().match_within("a·(b|c)", 3),
        Pipeline::new().match_within("(a|b)+", 3).dedup(),
        Pipeline::new().repeat(1..=2, |p| p.out(["a"])).limit(9),
    ]
}

#[test]
fn traversals_on_frozen_snapshots_are_isolated_from_writer_churn() {
    for seed in 0..3u64 {
        let mut r = rng_stream(0xc0de_beef, seed);
        let g = random_graph(&mut r);
        let n = g.vertex_count();
        // freeze the graph: plans and references come from this snapshot
        let snapshot = g.snapshot();
        let cases: Vec<(plan::LogicalPlan, Vec<String>)> = churn_pipelines()
            .into_iter()
            .map(|p| {
                let naive = plan::plan(&snapshot, &StartSpec::AllVertices, p.steps()).unwrap();
                let optimized = plan::optimize(&snapshot, &naive);
                let reference = row_sequence(
                    &exec::execute(&snapshot, &optimized, ExecutionStrategy::Materialized).unwrap(),
                );
                (optimized, reference)
            })
            .collect();

        std::thread::scope(|scope| {
            // writers churn the live store the whole time
            let writer = |stream: u64| {
                let g = &g;
                move || {
                    let mut wr = rng_stream(0x0217_dead, seed * 100 + stream);
                    for k in 0..300i64 {
                        let t = format!("v{}", wr.gen_range(0..n));
                        let h = format!("v{}", wr.gen_range(0..n));
                        let l = LABELS[wr.gen_range(0..LABELS.len())];
                        match k % 4 {
                            0 | 1 => {
                                g.add_edge(&t, l, &h);
                            }
                            2 => {
                                g.remove_edge(&t, l, &h);
                            }
                            _ => {
                                let v = g.vertex(&t).unwrap();
                                g.set_vertex_property(v, "age", Value::Int(k));
                            }
                        }
                    }
                }
            };
            scope.spawn(writer(1));
            scope.spawn(writer(2));
            // readers execute every case against the frozen snapshot under
            // every strategy
            for worker in 0..2 {
                let cases = &cases;
                let snapshot = &snapshot;
                scope.spawn(move || {
                    for (case, (plan, reference)) in cases.iter().enumerate() {
                        for strategy in STRATEGIES {
                            let rows = exec::execute(snapshot, plan, strategy).unwrap();
                            assert_eq!(
                                &row_sequence(&rows),
                                reference,
                                "seed {seed} case {case} {strategy:?} (worker {worker})"
                            );
                        }
                    }
                });
            }
        });

        // after the churn: the snapshot still answers identically…
        for (case, (plan, reference)) in cases.iter().enumerate() {
            let rows = exec::execute(&snapshot, plan, ExecutionStrategy::Materialized).unwrap();
            assert_eq!(&row_sequence(&rows), reference, "seed {seed} case {case}");
        }
        // …while the live graph moved on to a new generation
        assert!(g.stats().generation > snapshot.generation());
    }
}
