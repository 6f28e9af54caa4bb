//! The executors' walk paths: rows are a multiset of paths built without
//! hash-consing, so two rows may carry equal paths under different arena
//! ids. These tests pin label-step chains against the literal `⋈` of
//! `crates/core`'s path sets, the rows where hash-consing used to merge ids
//! against the `PathSet` step-join oracle, the wildcard steps (which scan
//! the CSR segment by segment) against the same oracle and their defined
//! label-ascending order, and the work of the hop-budget-pruned automaton
//! walk against its unpruned rows.

use std::collections::HashSet;

use rand::Rng as _;

use mrpa::core::{EdgePattern, MultiGraph, Path, PathSet, Position, VertexId};
use mrpa::datagen::random::rng_stream;
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

/// Chunk sizes for the wildcard checks: one row per pull, and the default.
const CHUNKS: [usize; 2] = [1, 2048];

/// A seeded graph whose edges arrive with their labels interleaved, so a
/// vertex's insertion-ordered bucket mixes labels; it includes self-loops
/// and parallel edges under different labels.
fn interleaved_graph() -> PropertyGraph {
    let mut r = rng_stream(0x5eed_0021, 0);
    let g = PropertyGraph::new();
    for _ in 0..60 {
        let t = format!("v{}", r.gen_range(0..9));
        let h = format!("v{}", r.gen_range(0..9));
        g.add_edge(&t, ["c", "a", "b"][r.gen_range(0..3)], &h);
    }
    g.add_edge("v0", "c", "v0");
    g.add_edge("v0", "a", "v0");
    g
}

/// The oracle rows of `out_any`/`in_any`/`both_any` from every vertex: one
/// `[v, _, _]` step join per start vertex over the forward graph (Out) and
/// over its reversal (In), as a sorted multiset.
fn wildcard_oracle(g: &PropertyGraph, out: bool, inn: bool) -> Vec<Path> {
    let snap = g.snapshot();
    let forward = snap.graph();
    let reversed = forward.reversed();
    let mut paths = Vec::new();
    for v in forward.vertices() {
        if out {
            paths.extend(oracle_step(forward, EdgePattern::from_vertex(v)));
        }
        if inn {
            paths.extend(oracle_step(&reversed, EdgePattern::from_vertex(v)));
        }
    }
    paths.sort();
    paths
}

/// Runs the three wildcard steps from every vertex under every strategy and
/// both chunk sizes against [`wildcard_oracle`].
fn assert_wildcards_match_the_oracle(g: &PropertyGraph) {
    type Step = fn(Traversal) -> Traversal;
    let steps: [(&str, Step, bool, bool); 3] = [
        ("out_any", Traversal::out_any, true, false),
        ("in_any", Traversal::in_any, false, true),
        ("both_any", Traversal::both_any, true, true),
    ];
    for (name, step, out, inn) in steps {
        let expected = wildcard_oracle(g, out, inn);
        assert!(!expected.is_empty());
        for strategy in STRATEGIES {
            for chunk in CHUNKS {
                let t = Traversal::over(g).strategy(strategy).chunk_size(chunk);
                assert!(
                    row_paths(step(t)) == expected,
                    "{name} {strategy:?} chunk {chunk}"
                );
            }
        }
    }
}

/// A seeded graph on 12 vertices with three labels and no repeated
/// `(tail, label, head)` triple, so its walks are distinct paths and the
/// executors' row multiset can be compared with a path set.
fn simple_labeled_graph() -> PropertyGraph {
    let mut r = rng_stream(0x5eed_0022, 0);
    let g = PropertyGraph::new();
    let mut triples = HashSet::new();
    while triples.len() < 70 {
        let triple = (r.gen_range(0..12), r.gen_range(0..3), r.gen_range(0..12));
        if triples.insert(triple) {
            let (t, l, h) = triple;
            g.add_edge(&format!("v{t}"), ["a", "b", "c"][l], &format!("v{h}"));
        }
    }
    g
}

#[test]
fn label_chains_equal_the_literal_join() {
    let g = simple_labeled_graph();
    let snap = g.snapshot();
    let hop = |l: &str| EdgePattern::with_label(snap.label(l).unwrap()).select_paths(snap.graph());
    // the vertex filter between hops keeps the even-numbered vertices
    let names: Vec<String> = (0..12).step_by(2).map(|i| format!("v{i}")).collect();
    let kept: HashSet<VertexId> = names.iter().map(|n| snap.vertex(n).unwrap()).collect();
    let chains: [&[&str]; 4] = [&["a", "b"], &["b", "b"], &["a", "c", "b"], &["c", "a", "a"]];
    for labels in chains {
        for filtered in [false, true] {
            // from every vertex: out(l₁)[.is(kept)].out(l₂)… against
            // A_{l₁} [|heads ∈ kept] ⋈ A_{l₂} …
            let mut oracle = hop(labels[0]);
            let mut t = Traversal::over(&g).out([labels[0]]);
            for &l in &labels[1..] {
                if filtered {
                    oracle = oracle.restrict_heads(&kept);
                    t = t.is(names.clone());
                }
                oracle = oracle.join(&hop(l));
                t = t.out([l]);
            }
            let mut expected = oracle.paths();
            expected.sort();
            assert!(!expected.is_empty(), "{labels:?} filtered {filtered}");
            for strategy in STRATEGIES {
                let rows = sorted_paths(&t.clone().strategy(strategy).execute().unwrap());
                assert!(
                    rows == expected,
                    "{labels:?} filtered {filtered} {strategy:?}"
                );
            }
        }
    }
}

#[test]
fn wildcard_steps_equal_the_step_join_oracle() {
    assert_wildcards_match_the_oracle(&interleaved_graph());
}

#[test]
fn wildcard_steps_equal_the_step_join_oracle_after_removals() {
    let g = interleaved_graph();
    // swap-removals reorder the surviving edges' buckets
    let doomed: Vec<_> = g.snapshot().graph().edges().step_by(3).copied().collect();
    for e in doomed {
        let name = |v| g.vertex_name(v).unwrap();
        let label = g.label_name(e.label).unwrap();
        assert!(g.remove_edge(&name(e.tail), &label, &name(e.head)));
    }
    assert_wildcards_match_the_oracle(&g);
}

#[test]
fn wildcard_rows_of_each_input_row_come_out_label_ascending() {
    let g = interleaved_graph();
    let snap = g.snapshot();
    let forward = snap.graph();
    for strategy in STRATEGIES {
        for chunk in CHUNKS {
            let t = || Traversal::over(&g).strategy(strategy).chunk_size(chunk);
            for (name, result) in [
                ("out_any", t().out_any().execute().unwrap()),
                ("in_any", t().in_any().execute().unwrap()),
                ("both_any", t().both_any().execute().unwrap()),
            ] {
                // the start is every vertex once, so an input row's rows are
                // the run of rows sharing its source
                for run in result.rows().chunk_by(|a, b| a.source == b.source) {
                    let source = run[0].source;
                    let labels: Vec<_> = run.iter().map(|r| r.path.edges()[0].label).collect();
                    // `both_any` is the Out rows, then the In rows
                    let split = match name {
                        "in_any" => 0,
                        _ => forward.out_degree(source).min(labels.len()),
                    };
                    let (outs, ins) = labels.split_at(split);
                    for half in [outs, ins] {
                        assert!(
                            half.is_sorted(),
                            "{name} {strategy:?} chunk {chunk}: {source} {labels:?}"
                        );
                    }
                }
            }
        }
    }
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
