//! Seeded randomized properties of [`Traversal::profile`]: profiling is
//! observation, not perturbation.
//!
//! Over 32 independently-seeded random property graphs × random pipelines ×
//! all three execution strategies (hand-rolled property tests — the build
//! environment vendors no proptest; failures print the case number):
//!
//! 1. **Equivalence** — a profiled run returns exactly the rows of an
//!    unprofiled run, row order included, and the same run-wide
//!    [`ExecStats`] counters; the metrics registry counts both runs;
//! 2. **Trace shape** — the trace is a chain mirroring the optimized plan:
//!    one node per [`PlanReport`] estimate, the root's `rows_out` is the
//!    result's row count, and every node's `rows_in` equals its child's
//!    `rows_out`;
//! 3. **Conservation** — per-op exclusive `expansions` and `arena_appends`
//!    sum to the run-wide `ExecStats` totals, and per-op self times sum to
//!    the root's inclusive total.

use rand::Rng as _;

use mrpa::datagen::random::{rng_stream, Rng};
use mrpa::engine::{metrics, Predicate, TraceNode};
use mrpa::engine::{
    ExecutionStrategy, Pipeline, PropertyGraph, QueryResult, QueryTrace, StartSpec, Traversal,
    Value,
};

const CASES: usize = 32;

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

const LABELS: [&str; 3] = ["a", "b", "c"];

/// A small random property graph; every label of [`LABELS`] always exists
/// so label resolution never fails.
fn random_graph(r: &mut Rng) -> PropertyGraph {
    let g = PropertyGraph::new();
    let n = r.gen_range(4usize..12);
    for i in 0..n {
        let v = g.add_vertex(&format!("v{i}"));
        g.set_vertex_property(v, "age", Value::Int(r.gen_range(10i64..60)));
        let kind = if r.gen_range(0u32..4) == 0 {
            "software"
        } else {
            "person"
        };
        g.set_vertex_property(v, "kind", Value::from(kind));
    }
    g.add_edge("v0", "a", "v1");
    g.add_edge("v1", "b", "v2");
    g.add_edge("v2", "c", "v0");
    let m = r.gen_range(4usize..24);
    for _ in 0..m {
        let t = format!("v{}", r.gen_range(0..n));
        let h = format!("v{}", r.gen_range(0..n));
        let l = LABELS[r.gen_range(0..LABELS.len())];
        g.add_edge(&t, l, &h);
    }
    g
}

/// A random pipeline over the executor's whole vocabulary: expansions,
/// filters, dedup, limit, automaton matches, repeats.
fn random_pipeline(r: &mut Rng, n_vertices: usize) -> Pipeline {
    let mut p = Pipeline::new();
    let len = r.gen_range(1usize..6);
    for _ in 0..len {
        p = match r.gen_range(0u32..10) {
            0 | 1 => p.out([LABELS[r.gen_range(0..LABELS.len())]]),
            2 => p.in_([LABELS[r.gen_range(0..LABELS.len())]]),
            3 => p.both([LABELS[r.gen_range(0..LABELS.len())]]),
            4 => {
                let count = r.gen_range(1usize..4);
                let names: Vec<String> = (0..count)
                    .map(|_| format!("v{}", r.gen_range(0..n_vertices)))
                    .collect();
                p.is(names)
            }
            5 => p.has("age", Predicate::Gt(r.gen_range(10i64..60) as f64)),
            6 => p.dedup(),
            7 => p.limit(r.gen_range(0usize..10)),
            8 => p.match_within("a·(b|c)", 3),
            _ => {
                let l = LABELS[r.gen_range(0..LABELS.len())];
                p.repeat(1..=2, |body| body.out([l]))
            }
        };
    }
    p
}

fn random_start(r: &mut Rng, n_vertices: usize) -> StartSpec {
    match r.gen_range(0u32..3) {
        0 => StartSpec::AllVertices,
        1 => StartSpec::Named(vec![format!("v{}", r.gen_range(0..n_vertices))]),
        _ => StartSpec::Where("kind".into(), Predicate::Eq(Value::from("person"))),
    }
}

/// Runs `check` for [`CASES`] independently-seeded cases on stream `stream`.
fn cases(stream: u64, mut check: impl FnMut(&mut Rng, usize)) {
    for case in 0..CASES {
        let mut r = rng_stream(0x0b5e_41e5, stream.wrapping_mul(1000) + case as u64);
        check(&mut r, case);
    }
}

/// The exact row sequence (order-sensitive signature).
fn row_sequence(result: &QueryResult) -> Vec<String> {
    result
        .rows()
        .iter()
        .map(|row| format!("{}-[{}]->{}", row.source, row.path, row.head))
        .collect()
}

/// Walks the trace chain root-down checking the linkage invariants; returns
/// the node count.
fn check_chain(root: &TraceNode, ctx: &str) -> usize {
    let mut count = 0;
    let mut node = root;
    loop {
        count += 1;
        assert!(
            node.children.len() <= 1,
            "{ctx}: plans are chains, node {:?} has {} children",
            node.op,
            node.children.len()
        );
        assert!(
            node.total_time_ns >= node.self_time_ns,
            "{ctx}: inclusive time below self time at {:?}",
            node.op
        );
        match node.children.first() {
            Some(child) => {
                assert_eq!(
                    node.rows_in, child.rows_out,
                    "{ctx}: rows_in of {:?} != rows_out of its input {:?}",
                    node.op, child.op
                );
                assert!(
                    node.total_time_ns >= child.total_time_ns,
                    "{ctx}: inclusive time not monotone into {:?}",
                    node.op
                );
                node = child;
            }
            None => {
                assert_eq!(node.rows_in, 0, "{ctx}: the start frontier has no input");
                assert!(
                    node.op.starts_with("start("),
                    "{ctx}: chain must end at the start frontier, got {:?}",
                    node.op
                );
                return count;
            }
        }
    }
}

/// Asserts every conservation law a [`QueryTrace`] promises.
fn check_trace(trace: &QueryTrace, result: &QueryResult, ctx: &str) {
    assert_eq!(
        trace.root.rows_out as usize,
        result.rows().len(),
        "{ctx}: root rows_out vs result rows"
    );
    let nodes = trace.nodes_source_first();
    check_chain(&trace.root, ctx);

    let expansions: u64 = nodes.iter().map(|n| n.expansions).sum();
    assert_eq!(
        expansions, trace.stats.expansions,
        "{ctx}: per-op expansions must sum to the run total"
    );
    let appends: u64 = nodes.iter().map(|n| n.arena_appends).sum();
    assert_eq!(
        appends, trace.stats.interned_nodes,
        "{ctx}: per-op arena appends must sum to the run total"
    );
    let self_time: u64 = nodes.iter().map(|n| n.self_time_ns).sum();
    assert_eq!(
        self_time, trace.root.total_time_ns,
        "{ctx}: per-op self times must sum to the root's inclusive time"
    );
}

#[test]
fn profiled_runs_return_exactly_the_unprofiled_rows() {
    let queries_before = metrics::queries_total().get();
    let latencies_before = metrics::query_latency().count();
    let mut executions = 0;
    cases(1, |r, case| {
        let g = random_graph(r);
        let n = g.vertex_count();
        let pipeline = random_pipeline(r, n);
        let start = random_start(r, n);
        for strategy in STRATEGIES {
            let t = Traversal::over(&g)
                .start_at(start.clone())
                .with_steps(pipeline.steps().to_vec())
                .strategy(strategy)
                .parallel_threads(4);
            let ctx = format!("case {case} strategy {strategy:?}");
            let plain = t.execute().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let profiled = t.profile().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            assert_eq!(
                row_sequence(&plain),
                row_sequence(&profiled.result),
                "{ctx}: profiling changed the rows"
            );
            assert_eq!(
                plain.stats(),
                profiled.result.stats(),
                "{ctx}: profiling changed the run counters"
            );
            check_trace(&profiled.trace, &profiled.result, &ctx);
            executions += 2;
        }
    });
    // the process-wide registry saw every terminal execution (other tests in
    // this binary may add more concurrently)
    let queries = metrics::queries_total().get() - queries_before;
    let latencies = metrics::query_latency().count() - latencies_before;
    assert!(
        queries >= executions,
        "{queries} queries counted of {executions}"
    );
    assert!(
        latencies >= executions,
        "{latencies} latencies observed of {executions}"
    );
}

#[test]
fn trace_nodes_mirror_the_plan_report() {
    cases(2, |r, case| {
        let g = random_graph(r);
        let n = g.vertex_count();
        let pipeline = random_pipeline(r, n);
        let start = random_start(r, n);
        for strategy in STRATEGIES {
            let t = Traversal::over(&g)
                .start_at(start.clone())
                .with_steps(pipeline.steps().to_vec())
                .strategy(strategy)
                .parallel_threads(4);
            let ctx = format!("case {case} strategy {strategy:?}");
            let report = t.explain().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let profiled = t.profile().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let nodes = profiled.trace.nodes_source_first();
            let estimates = report.estimates();
            assert_eq!(
                nodes.len(),
                estimates.len(),
                "{ctx}: one trace node per plan-report op"
            );
            for (node, est) in nodes.iter().zip(estimates) {
                assert_eq!(node.op, est.op, "{ctx}: trace op order diverged");
                assert_eq!(
                    node.estimated_rows, est.rows,
                    "{ctx}: estimate not carried into the trace"
                );
            }
            assert_eq!(profiled.trace.strategy, strategy, "{ctx}");
        }
    });
}

#[test]
fn the_headline_trace_reads_sensibly() {
    // A deterministic smoke over the classic graph: the trace's describe()
    // renders one line per op and the numbers agree with the result.
    let g = mrpa::engine::classic_social_graph();
    let t = Traversal::over(&g).match_("knows+·created").dedup();
    let profiled = t.profile().unwrap();
    assert!(!profiled.result.rows().is_empty());
    check_trace(&profiled.trace, &profiled.result, "classic");
    let text = profiled.trace.describe();
    assert!(text.contains("strategy:"), "{text}");
    assert!(text.lines().count() >= 2 + profiled.trace.nodes_source_first().len());
}
