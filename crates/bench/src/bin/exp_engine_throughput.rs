//! E8 — the traversal engine the paper motivates (§I, §V): pipeline queries
//! compiled to the algebra, across execution strategies, vs a hand-written
//! algebra evaluation. Panics unless every strategy's answer is the
//! hand-written one: the same head set for a `dedup` query, the same path
//! set otherwise.

use std::collections::HashSet;

use mrpa_bench::{fmt_f, time_median, Table};
use mrpa_core::{EdgePattern, Path, PathSet, Position, TraversalBuilder, VertexId};
use mrpa_datagen::{engine_query_mix, social_graph, SocialConfig};
use mrpa_engine::{ExecutionStrategy, QueryResult, Traversal};

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

/// What a query's answer is compared on: the heads of a `dedup` query, the
/// paths of any other.
#[derive(Debug, PartialEq)]
enum Answer {
    Heads(HashSet<VertexId>),
    Paths(HashSet<Path>),
}

fn engine_answer(result: &QueryResult, dedup: bool) -> Answer {
    let rows = result.rows().iter();
    if dedup {
        Answer::Heads(rows.map(|r| r.head).collect())
    } else {
        Answer::Paths(rows.map(|r| r.path.clone()).collect())
    }
}

fn algebra_answer(paths: &PathSet, dedup: bool) -> Answer {
    if dedup {
        Answer::Heads(paths.head_vertices())
    } else {
        Answer::Paths(paths.iter().collect())
    }
}

fn main() {
    let g = social_graph(SocialConfig {
        people: 400,
        software: 60,
        knows_per_person: 4,
        created_per_person: 1,
        uses_per_person: 2,
        seed: 42,
    });
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
        "parallel ms",
        "hand-written algebra ms",
    ]);
    for spec in engine_query_mix() {
        let build = |strategy: ExecutionStrategy| {
            let mut t = Traversal::over(&g).strategy(strategy);
            for hop in &spec.hops {
                t = match hop {
                    Some(label) => t.out([label.clone()]),
                    None => t.out_any(),
                };
            }
            if spec.dedup {
                t = t.dedup();
            }
            t
        };
        let rows = build(ExecutionStrategy::Materialized)
            .execute()
            .unwrap()
            .len();
        let mat_ms = time_median(3, || {
            build(ExecutionStrategy::Materialized).execute().unwrap()
        });
        let str_ms = time_median(3, || build(ExecutionStrategy::Streaming).execute().unwrap());
        let par_ms = time_median(3, || build(ExecutionStrategy::Parallel).execute().unwrap());

        // hand-written algebra evaluation of the same query (no planner)
        let graph = snapshot.graph();
        let algebra = || {
            let mut builder = TraversalBuilder::new(graph);
            for hop in &spec.hops {
                builder = match hop {
                    Some(label) => {
                        let l = snapshot.label(label).unwrap();
                        builder.step_matching(EdgePattern::any().label(Position::Is(l)))
                    }
                    None => builder.step(),
                };
            }
            builder.evaluate().unwrap()
        };
        let algebra_ms = time_median(3, || algebra().head_vertices().len());
        let want = algebra_answer(&algebra(), spec.dedup);
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
            fmt_f(par_ms),
            fmt_f(algebra_ms),
        ]);
    }
    table.print("E8: engine query throughput by execution strategy");
    println!("Checked: every strategy returns the hand-written algebra's answer (the head");
    println!("set of a dedup query, the path set otherwise). Expectation: on queries this");
    println!("small the hand-written algebra is often faster, because the engine plans each");
    println!("query anew and planning an automaton classifies every edge (O(|E|)); under a");
    println!("dedup the engine can win, as it searches each (vertex, state) pair once where");
    println!("the algebra builds every path.");
}
