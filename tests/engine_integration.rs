//! Cross-crate integration tests: the traversal engine against the raw
//! algebra and the derivation/algorithm stack.

use std::collections::HashSet;

use mrpa::algorithms::derive::derive_from_path_set;
use mrpa::algorithms::spectral::pagerank;
use mrpa::core::{EdgePattern, Position, TraversalBuilder};
use mrpa::datagen::{social_graph, SocialConfig};
use mrpa::engine::{classic_social_graph, ExecutionStrategy, Predicate, Traversal, Value};

#[test]
fn engine_matches_hand_written_algebra_on_the_classic_graph() {
    let g = classic_social_graph();
    let snap = g.snapshot();
    let marko = snap.vertex("marko").unwrap();
    let knows = snap.label("knows").unwrap();
    let created = snap.label("created").unwrap();

    // engine: marko -knows-> X -created-> Y
    let engine_result = Traversal::over(&g)
        .v(["marko"])
        .out(["knows"])
        .out(["created"])
        .execute()
        .unwrap();

    // algebra: [marko, knows, _] ⋈◦ [_, created, _]
    let algebra_paths = TraversalBuilder::new(snap.graph())
        .step_matching(EdgePattern::from_vertex(marko).label(Position::Is(knows)))
        .step_matching(EdgePattern::any().label(Position::Is(created)))
        .evaluate()
        .unwrap();

    assert_eq!(engine_result.paths(), algebra_paths);
    let engine_heads: HashSet<_> = engine_result.heads().into_iter().collect();
    assert_eq!(engine_heads, algebra_paths.head_vertices());
}

#[test]
fn all_execution_strategies_agree_on_a_generated_social_graph() {
    let g = social_graph(SocialConfig {
        people: 80,
        software: 15,
        knows_per_person: 3,
        created_per_person: 1,
        uses_per_person: 1,
        seed: 5,
    });
    let build = |s: ExecutionStrategy| {
        Traversal::over(&g)
            .v_where("kind", Predicate::Eq(Value::from("person")))
            .out(["knows"])
            .out(["created"])
            .dedup()
            .strategy(s)
            .execute()
            .unwrap()
    };
    let m = build(ExecutionStrategy::Materialized);
    let s = build(ExecutionStrategy::Streaming);
    let p = build(ExecutionStrategy::Parallel);
    let mut mh = m.distinct_heads();
    let mut sh = s.distinct_heads();
    let mut ph = p.distinct_heads();
    mh.sort();
    sh.sort();
    ph.sort();
    assert_eq!(mh, sh);
    assert_eq!(mh, ph);
    assert!(!m.is_empty());
}

#[test]
fn engine_paths_feed_the_derivation_pipeline() {
    // §IV-C end to end through the engine: collect knows∘created paths and
    // derive a single-relational "indirectly contributed to" graph.
    let g = social_graph(SocialConfig {
        people: 60,
        software: 12,
        knows_per_person: 3,
        created_per_person: 1,
        uses_per_person: 1,
        seed: 19,
    });
    let result = Traversal::over(&g)
        .v_where("kind", Predicate::Eq(Value::from("person")))
        .out(["knows"])
        .out(["created"])
        .execute()
        .unwrap();
    let snap = result.snapshot().clone();
    let derived = derive_from_path_set(snap.graph(), &result.paths());
    assert!(derived.edge_count() > 0);
    assert_eq!(derived.vertex_count(), snap.graph().vertex_count());
    // PageRank on the derived graph is well-formed (sums to ~1)
    let pr = pagerank(&derived, 0.85, Default::default());
    let total: f64 = pr.values().sum();
    assert!((total - 1.0).abs() < 1e-6);
}

#[test]
fn regular_path_patterns_run_on_the_classic_graph_under_all_strategies() {
    // The flagship query of the redesign: "software created by anyone marko
    // can reach over one or more knows-edges", as a single label regex.
    let g = classic_social_graph();
    for strategy in [
        ExecutionStrategy::Materialized,
        ExecutionStrategy::Streaming,
        ExecutionStrategy::Parallel,
    ] {
        let r = Traversal::over(&g)
            .v(["marko"])
            .match_("knows+·created")
            .strategy(strategy)
            .execute()
            .unwrap();
        assert_eq!(
            r.head_names_sorted(),
            vec!["lop", "ripple"],
            "strategy {strategy:?}"
        );
        // the paths are marko→josh→{ripple,lop}: two edges each
        assert!(r.rows().iter().all(|row| row.path.len() == 2));
    }

    // explain() reports the pre- and post-rewrite plans plus estimates
    let report = Traversal::over(&g)
        .v(["marko"])
        .match_("knows+·created")
        .explain()
        .unwrap();
    assert!(report
        .before()
        .describe()
        .contains("automaton[knows+·created"));
    assert!(!report.after().ops().is_empty());
    assert_eq!(report.estimates().len(), report.after().ops().len() + 1);

    // the same result via the algebra-level step pipeline and via repeat
    let stepwise = Traversal::over(&g)
        .v(["marko"])
        .repeat(1..=3, |p| p.out(["knows"]))
        .out(["created"])
        .execute()
        .unwrap();
    assert_eq!(stepwise.head_names_sorted(), vec!["lop", "ripple"]);
}

#[test]
fn property_filters_compose_with_structure() {
    let g = classic_social_graph();
    // people under 30 who know someone who created java software
    let result = Traversal::over(&g)
        .v_where("kind", Predicate::Eq(Value::from("person")))
        .has("age", Predicate::Lt(30.0))
        .out(["knows"])
        .out(["created"])
        .has("lang", Predicate::Eq(Value::from("java")))
        .execute()
        .unwrap();
    // marko (29) knows josh, josh created lop and ripple (both java)
    assert_eq!(result.head_names_sorted(), vec!["lop", "ripple"]);
    for row in result.rows() {
        assert_eq!(row.path.len(), 2);
        assert!(row.path.is_joint());
    }
}

#[test]
fn a_promoted_automaton_estimates_at_most_one_row_per_vertex_and_accepting_state() {
    // the dense_fit graph (seed 11: 2,000 persons, 200 software) and its
    // statement (c): the dedup promotes the automaton to global
    // reachability, whose only accepting state emits each vertex at most
    // once, so |V| · 1 = 2,200 bounds the estimate
    let g = social_graph(SocialConfig {
        people: 2_000,
        software: 200,
        knows_per_person: 8,
        created_per_person: 2,
        uses_per_person: 2,
        seed: 11,
    });
    let t = Traversal::over(&g)
        .v_where("kind", Predicate::Eq(Value::from("person")))
        .match_("knows·knows·created")
        .dedup();
    let report = t.explain().unwrap();
    let after = report.after().describe();
    assert!(after.contains("global-reachable"), "{after}");
    let automaton = report
        .estimates()
        .iter()
        .find(|e| e.op.contains("automaton"))
        .expect("an automaton op");
    assert!(automaton.rows <= 2_200.0, "{automaton:?}");
    assert!(t.execute().unwrap().len() <= 2_200);
}
