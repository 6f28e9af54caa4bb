//! Snapshot cost-model and isolation tests for the epoch/copy-on-write store
//! and the id-forwarding parallel boundary.
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
//!    the frozen snapshot under all three strategies (the parallel one with
//!    forced multi-threading); every result is row-for-row identical to the
//!    single-threaded evaluation of the frozen graph, and the id-forwarding
//!    partition boundary stays row-for-row ≡ materialized.

use rand::Rng as _;

use mrpa::core::{Edge, IdForwarder, PathArena, PathId};
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

/// A small random property graph over a fixed label vocabulary (the same
/// shape the optimizer-equivalence suite uses).
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
    // strategy, the parallel one also with forced multi-threading
    let queries = |strategy, threads| {
        let base = Traversal::over(&g)
            .strategy(strategy)
            .parallel_threads(threads);
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
        queries(strategy, 1);
    }
    queries(ExecutionStrategy::Parallel, 3);
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

/// A pipeline mix covering all three executors' moving parts, pure-`Out` so
/// churn results are comparable, with stateful tails to exercise the
/// id-forwarding partition boundary.
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
            // every strategy, parallel both auto- and force-threaded
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
                        let forced = exec::execute_with_threads(
                            snapshot,
                            plan,
                            ExecutionStrategy::Parallel,
                            Some(3),
                        )
                        .unwrap();
                        assert_eq!(
                            &row_sequence(&forced),
                            reference,
                            "seed {seed} case {case} forced-parallel (worker {worker})"
                        );
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

#[test]
fn id_forwarding_boundary_is_row_for_row_and_copy_free() {
    // P disjoint chains of length L: every result path is L edges deep, so a
    // materialise/re-intern boundary would append O(L) nodes per row while
    // id forwarding appends each chain node once
    const P: usize = 8;
    const L: usize = 24;
    let g = PropertyGraph::new();
    let mut heads = Vec::new();
    for c in 0..P {
        heads.push(format!("c{c}_0"));
        for i in 0..L {
            g.add_edge(&format!("c{c}_{i}"), "next", &format!("c{c}_{}", i + 1));
        }
    }
    let base = Traversal::over(&g)
        .v(heads.iter().map(String::as_str))
        .match_within("next+", L)
        .dedup(); // the stateful suffix every row must cross into
    let reference = base
        .clone()
        .strategy(ExecutionStrategy::Materialized)
        .execute()
        .unwrap();
    assert_eq!(reference.len(), P * L);
    assert_eq!(reference.stats().interned_nodes, 0);

    let parallel = base
        .clone()
        .strategy(ExecutionStrategy::Parallel)
        .parallel_threads(4)
        .execute()
        .unwrap();
    assert_eq!(parallel.rows(), reference.rows(), "boundary reorders rows");

    // copy-freedom, counter-asserted: each of the P·L chain nodes crosses
    // the boundary exactly once; the round-tripping boundary would have
    // appended one node per path edge — Σ path lengths = P·L·(L+1)/2
    let forwarded = parallel.stats().interned_nodes;
    assert_eq!(forwarded, (P * L) as u64);
    let round_trip = (P * L * (L + 1) / 2) as u64;
    assert!(
        forwarded * 3 <= round_trip,
        "forwarding appended {forwarded} nodes, round-tripping would append {round_trip}"
    );

    // the forwarder in isolation, over the rows a partition's prefix emits
    // here (every prefix of every chain): each chain node crosses once, and
    // every forwarded id names the same path in the destination arena
    let src = PathArena::new();
    let mut prefixes = Vec::new();
    for c in 0..P {
        let mut cur = PathId::EPSILON;
        for i in 0..L {
            let tail = (c * (L + 1) + i) as u32;
            cur = src.append(cur, Edge::from((tail, 0, tail + 1)));
            prefixes.push(cur);
        }
    }
    let dst = PathArena::new();
    let mut forwarder = IdForwarder::new();
    let mut appended = 0;
    for &id in &prefixes {
        let (moved, nodes) = forwarder.forward(&src, &dst, id);
        assert_eq!(dst.to_path(moved), src.to_path(id));
        appended += nodes;
    }
    assert_eq!(appended, P * L);
    assert_eq!(dst.node_count(), src.node_count());
}

/// The complete directed `knows` graph on `n` vertices.
fn complete_knows_graph(n: usize) -> PropertyGraph {
    let g = PropertyGraph::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            g.add_edge(&format!("v{i}"), "knows", &format!("v{j}"));
        }
    }
    g
}

#[test]
fn a_dedup_suffix_forwards_only_the_surviving_rows() {
    // K12: the two-hop prefix yields 1,452 rows over 12 heads. The dedup
    // runs as the rows cross the boundary, so only its 12 survivors, 2
    // edges each, are forwarded into the suffix arena
    let g = complete_knows_graph(12);
    let t = Traversal::over(&g)
        .out(["knows"])
        .out(["knows"])
        .dedup()
        .parallel_threads(2);
    let reference = t
        .clone()
        .strategy(ExecutionStrategy::Materialized)
        .execute()
        .unwrap();
    let parallel = t.strategy(ExecutionStrategy::Parallel).execute().unwrap();
    assert_eq!(parallel.len(), 12);
    assert_eq!(parallel.rows(), reference.rows(), "boundary reorders rows");
    let forwarded = parallel.stats().interned_nodes;
    assert!(forwarded <= 24, "forwarding appended {forwarded} nodes");
}

#[test]
fn a_limit_suffix_forwards_only_its_rows() {
    // K12: the two-hop prefix yields 1,452 rows, and the limit keeps the
    // first 3. It runs as the rows cross the boundary, so only those 3 rows
    // are forwarded, and the second partition is dropped without crossing
    let g = complete_knows_graph(12);
    let t = Traversal::over(&g)
        .out_any()
        .out_any()
        .limit(3)
        .parallel_threads(2);
    let reference = t
        .clone()
        .strategy(ExecutionStrategy::Materialized)
        .execute()
        .unwrap();
    let parallel = t.strategy(ExecutionStrategy::Parallel).execute().unwrap();
    assert_eq!(parallel.len(), 3);
    assert_eq!(parallel.rows(), reference.rows(), "boundary reorders rows");
    let forwarded = parallel.stats().interned_nodes;
    assert!(forwarded <= 6, "forwarding appended {forwarded} nodes");
}
