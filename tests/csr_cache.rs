//! Regression tests for the per-generation CSR topology cache.
//!
//! The cache contract: each direction's CSR snapshot — the only adjacency
//! the executors read — is built **lazily, at most once per generation**,
//! shared by every snapshot of that generation, invalidated by exactly the
//! mutations that change edge structure, and carried across copy-on-write
//! property generations. A query builds exactly the directions it reads,
//! labeled or wildcard: a pure-Out plan never pays for the In-direction CSR,
//! and a plan with no expansion builds nothing. All of this is observed
//! through the store's `csr_builds` counter and `csr_bytes` gauge.

use mrpa::engine::{classic_social_graph, ExecutionStrategy, Traversal, Value};

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

#[test]
fn out_csr_builds_once_per_generation_and_in_csr_never() {
    let g = classic_social_graph();
    assert_eq!(g.stats().csr_builds, 0, "no builds before any query");
    // a battery of pure-Out plans, all strategies, repeated: one build total
    for _ in 0..3 {
        for strategy in STRATEGIES {
            let r = Traversal::over(&g)
                .v(["marko"])
                .out(["knows"])
                .out(["created"])
                .strategy(strategy)
                .execute()
                .unwrap();
            assert_eq!(r.head_names_sorted(), vec!["lop", "ripple"]);
            let m = Traversal::over(&g)
                .v(["marko"])
                .match_("knows+·created")
                .strategy(strategy)
                .execute()
                .unwrap();
            assert_eq!(m.head_names_sorted(), vec!["lop", "ripple"]);
        }
    }
    assert_eq!(
        g.stats().csr_builds,
        1,
        "pure-Out plans share one Out build and never touch the In CSR"
    );
    assert!(
        g.stats().csr_bytes > 0,
        "the built CSR reports its footprint"
    );
}

#[test]
fn in_direction_plans_build_the_in_csr_exactly_once() {
    let g = classic_social_graph();
    for _ in 0..2 {
        let r = Traversal::over(&g)
            .v(["lop"])
            .in_(["created"])
            .execute()
            .unwrap();
        assert_eq!(r.head_names_sorted(), vec!["josh", "marko", "peter"]);
    }
    // In expansions read the In CSR only: one In build (the forward CSR
    // was never needed)
    assert_eq!(g.stats().csr_builds, 1);
}

#[test]
fn structural_mutation_invalidates_exactly_once_and_property_writes_carry() {
    let g = classic_social_graph();
    let query = |g: &_| {
        Traversal::over(g)
            .v(["marko"])
            .out(["knows"])
            .execute()
            .unwrap()
            .head_names_sorted()
    };
    assert_eq!(query(&g), vec!["josh", "vadas"]);
    assert_eq!(g.stats().csr_builds, 1);
    // a structural mutation starts a cold generation: exactly one rebuild,
    // and the rebuilt CSR sees the new edge
    g.add_edge("marko", "knows", "peter");
    assert_eq!(query(&g), vec!["josh", "peter", "vadas"]);
    assert_eq!(query(&g), vec!["josh", "peter", "vadas"]);
    assert_eq!(g.stats().csr_builds, 2, "one invalidation, one rebuild");
    // an in-place property write keeps the cache…
    g.set_vertex_property(g.vertex("vadas").unwrap(), "age", Value::from(28i64));
    assert_eq!(query(&g), vec!["josh", "peter", "vadas"]);
    assert_eq!(g.stats().csr_builds, 2);
    // …and so does a property write that pays the COW clone (properties
    // cannot change edge structure, so the topology carries over)
    let pinned = g.snapshot();
    g.set_vertex_property(g.vertex("vadas").unwrap(), "age", Value::from(29i64));
    assert!(g.stats().deep_clones > 0);
    assert_eq!(query(&g), vec!["josh", "peter", "vadas"]);
    assert_eq!(g.stats().csr_builds, 2, "cache carried across COW");
    drop(pinned);
}

#[test]
fn wildcard_steps_build_each_direction_they_read_once_per_generation() {
    let g = classic_social_graph();
    let _ = Traversal::over(&g).v(["marko"]).dedup().execute().unwrap();
    assert_eq!(g.stats().csr_builds, 0, "no expansion, no build");
    assert_eq!(
        g.stats().csr_bytes,
        0,
        "gauge is zero while nothing is built"
    );
    // every strategy, twice: `out_any` reads the Out CSR, `in_any` adds the
    // In CSR, and `both_any` finds both already built
    let t = |strategy| Traversal::over(&g).strategy(strategy);
    for _ in 0..2 {
        for strategy in STRATEGIES {
            assert_eq!(t(strategy).v(["marko"]).out_any().count().unwrap(), 3);
        }
    }
    assert_eq!(g.stats().csr_builds, 1, "out_any reads the Out CSR only");
    for _ in 0..2 {
        for strategy in STRATEGIES {
            assert_eq!(t(strategy).v(["lop"]).in_any().count().unwrap(), 3);
            assert_eq!(t(strategy).v(["josh"]).both_any().count().unwrap(), 3);
        }
    }
    assert_eq!(g.stats().csr_builds, 2, "in_any adds the In CSR, once");
    // a new generation builds each direction it reads once more
    g.add_edge("vadas", "knows", "peter");
    assert_eq!(Traversal::over(&g).in_any().count().unwrap(), 7);
    assert_eq!(Traversal::over(&g).in_any().count().unwrap(), 7);
    assert_eq!(g.stats().csr_builds, 3);
    assert_eq!(g.stats().reversed_builds, 0);

    // the parallel strategy prewarms both directions of a `both_any` plan
    // before its workers start, and builds each exactly once
    let g = classic_social_graph();
    let r = Traversal::over(&g)
        .both_any()
        .strategy(ExecutionStrategy::Parallel)
        .parallel_threads(3)
        .execute()
        .unwrap();
    assert_eq!(r.len(), 12, "each of the 6 edges walked both ways");
    assert_eq!(g.stats().csr_builds, 2);
}
