//! E8 — the traversal engine the paper motivates (§I, §V): pipeline queries
//! compiled to the algebra, under the materialized and streaming strategies,
//! vs a hand-written algebra evaluation. Panics unless every strategy's
//! answer is the hand-written one: the same head set for a `dedup` query,
//! the same path set otherwise (`tests/paper_claims.rs` asserts the same).
//! The parallel strategy is an alias of the materialized one, so it is
//! checked but not timed.

use mrpa_bench::e8::{algebra, algebra_answer, engine_answer, graph, traversal};
use mrpa_bench::{fmt_f, time_median, Table};
use mrpa_datagen::engine_query_mix;
use mrpa_engine::ExecutionStrategy;

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

fn main() {
    let g = graph();
    let snapshot = g.snapshot();
    println!(
        "social graph: |V|={}, |E|={}",
        snapshot.graph().vertex_count(),
        snapshot.graph().edge_count()
    );

    let mut table = Table::new([
        "query",
        "rows",
        "materialized ms",
        "streaming ms",
        "hand-written algebra ms",
    ]);
    for spec in engine_query_mix() {
        let build = |strategy| traversal(&g, &spec, strategy);
        let rows = build(ExecutionStrategy::Materialized)
            .execute()
            .unwrap()
            .len();
        let mat_ms = time_median(3, || {
            build(ExecutionStrategy::Materialized).execute().unwrap()
        });
        let str_ms = time_median(3, || build(ExecutionStrategy::Streaming).execute().unwrap());
        let algebra_ms = time_median(3, || algebra(&snapshot, &spec).head_vertices().len());
        let want = algebra_answer(&algebra(&snapshot, &spec), spec.dedup);
        for strategy in STRATEGIES {
            let got = engine_answer(&build(strategy).execute().unwrap(), spec.dedup);
            assert!(
                got == want,
                "{}: the {strategy:?} engine answer differs from the hand-written algebra's",
                spec.description
            );
        }

        table.row([
            spec.description.clone(),
            rows.to_string(),
            fmt_f(mat_ms),
            fmt_f(str_ms),
            fmt_f(algebra_ms),
        ]);
    }
    table.print("E8: engine query throughput by execution strategy");
    println!("Checked: every strategy returns the hand-written algebra's answer (the head");
    println!("set of a dedup query, the path set otherwise). Expectation: the engine is");
    println!("faster on two-hop-any and three-hop-labeled, about even on friends-of-friends,");
    println!("and slower on software-of-friends, where the algebra builds the fewest paths");
    println!("and the engine's per-query planning, which classifies every edge (O(|E|)),");
    println!("outweighs the walk. Under a dedup the engine searches each (vertex, state)");
    println!("pair once where the algebra builds every path, and without one it pushes each");
    println!("path into its arena without the intern probe the algebra's set semantics need.");
}
