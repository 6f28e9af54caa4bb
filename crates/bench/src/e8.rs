//! E8's two evaluations of one query: the engine's traversal and the
//! hand-written `mrpa_core` algebra, with the answer they are compared on.
//! `exp_engine_throughput` times them and `tests/paper_claims.rs` asserts
//! that they agree.

use std::collections::HashSet;

use mrpa_core::{EdgePattern, Path, PathSet, Position, TraversalBuilder, VertexId};
use mrpa_datagen::{social_graph, EngineQuerySpec, SocialConfig};
use mrpa_engine::{ExecutionStrategy, GraphSnapshot, PropertyGraph, QueryResult, Traversal};

/// The social graph E8 runs on (400 people, seed 42).
pub fn graph() -> PropertyGraph {
    social_graph(SocialConfig {
        people: 400,
        software: 60,
        knows_per_person: 4,
        created_per_person: 1,
        uses_per_person: 2,
        seed: 42,
    })
}

/// `spec` as an engine traversal over every vertex of `g`.
pub fn traversal(
    g: &PropertyGraph,
    spec: &EngineQuerySpec,
    strategy: ExecutionStrategy,
) -> Traversal {
    let mut t = Traversal::over(g).strategy(strategy);
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
}

/// `spec` evaluated by the hand-written algebra (§III step joins, no
/// planner) on the graph `snapshot` pins.
pub fn algebra(snapshot: &GraphSnapshot, spec: &EngineQuerySpec) -> PathSet {
    let mut builder = TraversalBuilder::new(snapshot.graph());
    for hop in &spec.hops {
        builder = match hop {
            Some(label) => {
                let l = snapshot.label(label).expect("the query's labels exist");
                builder.step_matching(EdgePattern::any().label(Position::Is(l)))
            }
            None => builder.step(),
        };
    }
    builder.evaluate().expect("a step chain evaluates")
}

/// What a query's answer is compared on: the heads of a `dedup` query (the
/// algebra defines no dedup on sets), the paths of any other.
#[derive(Debug, PartialEq)]
pub enum Answer {
    /// The distinct head vertices.
    Heads(HashSet<VertexId>),
    /// The distinct paths.
    Paths(HashSet<Path>),
}

/// The engine result's [`Answer`].
pub fn engine_answer(result: &QueryResult, dedup: bool) -> Answer {
    let rows = result.rows().iter();
    if dedup {
        Answer::Heads(rows.map(|r| r.head).collect())
    } else {
        Answer::Paths(rows.map(|r| r.path.clone()).collect())
    }
}

/// The algebra's path set's [`Answer`].
pub fn algebra_answer(paths: &PathSet, dedup: bool) -> Answer {
    if dedup {
        Answer::Heads(paths.head_vertices())
    } else {
        Answer::Paths(paths.iter().collect())
    }
}
