//! The executors' walk paths: rows are a multiset of paths built without
//! hash-consing, so two rows may carry equal paths under different arena
//! ids. These tests pin the rows where hash-consing used to merge ids
//! against the `PathSet` step-join oracle, and the work of the
//! hop-budget-pruned automaton walk against its unpruned rows.

use mrpa::core::{EdgePattern, MultiGraph, Path, PathSet, Position};
use mrpa::datagen::{social_graph, SocialConfig};
use mrpa::engine::{
    classic_social_graph, ExecutionStrategy, Predicate, PropertyGraph, QueryResult, Traversal,
    Value,
};

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

/// The result's paths as a sorted multiset.
fn sorted_paths(result: &QueryResult) -> Vec<Path> {
    let mut paths: Vec<Path> = result.rows().iter().map(|r| r.path.clone()).collect();
    paths.sort();
    paths
}

fn row_paths(t: Traversal) -> Vec<Path> {
    sorted_paths(&t.execute().unwrap())
}

/// One hop of the oracle: `{ε} ⋈◦ [tail, label, _]` over `graph`, whose
/// paths are the single edges a step from `tail` may take.
fn oracle_step(graph: &MultiGraph, pattern: EdgePattern) -> Vec<Path> {
    PathSet::epsilon().step_join(graph, &pattern).paths()
}

#[test]
fn duplicate_start_rows_each_walk_their_edges() {
    let g = classic_social_graph();
    let snap = g.snapshot();
    let marko = snap.vertex("marko").unwrap();
    // one step join per start row: the duplicated start contributes each
    // of its edges twice
    let once = oracle_step(snap.graph(), EdgePattern::from_vertex(marko));
    assert_eq!(once.len(), 3);
    let mut expected = [once.clone(), once].concat();
    expected.sort();
    for strategy in STRATEGIES {
        let rows = row_paths(
            Traversal::over(&g)
                .v(["marko", "marko"])
                .out_any()
                .strategy(strategy),
        );
        assert_eq!(rows, expected, "{strategy:?}");
    }
}

#[test]
fn a_self_loop_walked_both_ways_is_two_rows() {
    let g = PropertyGraph::new();
    g.add_edge("a", "loop", "a");
    g.add_edge("a", "to", "b");
    let snap = g.snapshot();
    let a = snap.vertex("a").unwrap();
    let lp = snap.label("loop").unwrap();
    let forward = snap.graph();
    let reversed = forward.reversed();
    // `both` is the out-step followed by the in-step (over the reversed
    // graph); the loop edge reads the same either way
    let hop = |tail| {
        let pattern = EdgePattern::from_vertex(tail).label(Position::Is(lp));
        [
            oracle_step(forward, pattern.clone()),
            oracle_step(&reversed, pattern),
        ]
        .concat()
    };
    let one = hop(a);
    assert_eq!(one.len(), 2);
    assert_eq!(one[0], one[1]);
    // the second hop extends both (equal) rows along both directions again
    let mut two: Vec<Path> = one
        .iter()
        .flat_map(|p| {
            hop(a)
                .into_iter()
                .map(move |q| Path::from_edges(p.edges().iter().chain(q.edges()).copied()))
        })
        .collect();
    two.sort();
    assert_eq!(two.len(), 4);
    for strategy in STRATEGIES {
        let t = || Traversal::over(&g).v(["a"]).strategy(strategy);
        assert_eq!(row_paths(t().both(["loop"])), one, "{strategy:?}");
        assert_eq!(
            row_paths(t().both(["loop"]).both(["loop"])),
            two,
            "{strategy:?}"
        );
    }
}

#[test]
fn bounded_automaton_walks_prune_moves_that_cannot_accept_in_budget() {
    // the 2.2k/24k social graph the dense benchmark runs on
    let g = social_graph(SocialConfig {
        people: 2_000,
        software: 200,
        knows_per_person: 8,
        created_per_person: 2,
        uses_per_person: 2,
        seed: 11,
    });
    let persons = || Traversal::over(&g).v_where("kind", Predicate::Eq(Value::from("person")));
    // `knows+·created` within 3 edges accepts exactly the two- and
    // three-edge words
    let mut expected = [
        row_paths(persons().out(["knows"]).out(["created"])),
        row_paths(persons().out(["knows"]).out(["knows"]).out(["created"])),
    ]
    .concat();
    expected.sort();
    for strategy in STRATEGIES {
        let result = persons()
            .match_within("knows+·created", 3)
            .strategy(strategy)
            .execute()
            .unwrap();
        // depth-3 `knows` moves can no longer reach `created` within the
        // bound; unpruned they cost ~1.45M expansions
        assert!(
            result.stats().expansions <= 435_000,
            "{strategy:?}: {} expansions",
            result.stats().expansions
        );
        let rows = sorted_paths(&result);
        assert_eq!(rows.len(), expected.len(), "{strategy:?}");
        assert!(rows == expected, "{strategy:?}: rows differ");
    }
}
