//! Seeded randomized equivalence tests for the unified query IR and the
//! rewriting optimizer.
//!
//! Three families of properties, each over ≥ 50 independently-seeded random
//! property graphs (hand-rolled property tests — the build environment
//! vendors no proptest; failures print the case number for reproduction):
//!
//! 1. `match_("ℓ1·ℓ2")` ≡ `.out([ℓ1]).out([ℓ2])` under every execution
//!    strategy (regular path patterns agree with step-at-a-time traversal);
//! 2. bounded `match_("ℓ+")` ≡ `repeat(1..=k, out ℓ)` ≡ the manual union of
//!    unrolled `out`-chains (automaton, iteration, and unrolled references
//!    agree);
//! 3. optimizer soundness: for random pipelines, executing the rewritten
//!    plan produces exactly the rows of the naive plan, row order included,
//!    under every strategy — and on one fixed social workload per rewrite
//!    family, the rewrite must fire.

use rand::Rng as _;

use mrpa::datagen::random::{rng_stream, Rng};
use mrpa::datagen::{social_graph, SocialConfig};
use mrpa::engine::{
    exec, plan, ExecutionStrategy, Pipeline, PropertyGraph, QueryResult, StartSpec, Traversal,
    Value,
};
use mrpa::engine::{EngineError, Predicate};

const CASES: usize = 60;

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

const LABELS: [&str; 3] = ["a", "b", "c"];

/// A small random property graph. Always contains every label of [`LABELS`]
/// (a deterministic seed chain) so label resolution never fails, plus random
/// edges, ages, and kinds.
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
    // one deterministic edge per label so every label is interned
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

/// Runs `check` for [`CASES`] independently-seeded cases on stream `stream`.
fn cases(stream: u64, mut check: impl FnMut(&mut Rng, usize)) {
    for case in 0..CASES {
        let mut r = rng_stream(0x0717_1337, stream.wrapping_mul(1000) + case as u64);
        check(&mut r, case);
    }
}

/// A canonical, order-insensitive signature of a result (source, path, head
/// per row, sorted).
fn row_multiset(result: &QueryResult) -> Vec<String> {
    let mut sig: Vec<String> = result
        .rows()
        .iter()
        .map(|row| format!("{}-[{}]->{}", row.source, row.path, row.head))
        .collect();
    sig.sort();
    sig
}

/// The exact row sequence (order-sensitive signature).
fn row_sequence(result: &QueryResult) -> Vec<String> {
    result
        .rows()
        .iter()
        .map(|row| format!("{}-[{}]->{}", row.source, row.path, row.head))
        .collect()
}

#[test]
fn match_concat_equals_step_at_a_time_traversal() {
    cases(1, |r, case| {
        let g = random_graph(r);
        let l1 = LABELS[r.gen_range(0..LABELS.len())];
        let l2 = LABELS[r.gen_range(0..LABELS.len())];
        let pattern = format!("{l1}·{l2}");
        for strategy in STRATEGIES {
            let via_match = Traversal::over(&g)
                .match_(&pattern)
                .strategy(strategy)
                .execute()
                .unwrap();
            let via_steps = Traversal::over(&g)
                .out([l1])
                .out([l2])
                .strategy(strategy)
                .execute()
                .unwrap();
            assert_eq!(
                row_multiset(&via_match),
                row_multiset(&via_steps),
                "case {case} pattern {pattern} strategy {strategy:?}"
            );
        }
    });
}

#[test]
fn bounded_match_plus_equals_repeat_and_unrolled_union() {
    const K: usize = 3;
    cases(2, |r, case| {
        let g = random_graph(r);
        let l = LABELS[r.gen_range(0..LABELS.len())];
        let pattern = format!("{l}+");
        // the unrolled reference: out-chains of length 1..=K, unioned
        let mut unrolled: Vec<String> = Vec::new();
        for hops in 1..=K {
            let mut t = Traversal::over(&g);
            for _ in 0..hops {
                t = t.out([l]);
            }
            unrolled.extend(row_multiset(&t.execute().unwrap()));
        }
        unrolled.sort();
        for strategy in STRATEGIES {
            let via_match = Traversal::over(&g)
                .match_within(&pattern, K)
                .strategy(strategy)
                .execute()
                .unwrap();
            let via_repeat = Traversal::over(&g)
                .repeat(1..=K, |p| p.out([l]))
                .strategy(strategy)
                .execute()
                .unwrap();
            assert_eq!(
                row_multiset(&via_match),
                unrolled,
                "case {case} match≡unroll, {l}+ under {strategy:?}"
            );
            assert_eq!(
                row_multiset(&via_repeat),
                unrolled,
                "case {case} repeat≡unroll, {l}+ under {strategy:?}"
            );
        }
    });
}

/// A random pipeline over the vocabulary the optimizer rewrites: expansions
/// in all directions, `is`/`has` filters, dedup, limit, patterns, repeats.
fn random_pipeline(r: &mut Rng, n_vertices: usize) -> Pipeline {
    let mut p = Pipeline::new();
    let len = r.gen_range(1usize..6);
    for _ in 0..len {
        p = match r.gen_range(0u32..12) {
            0 | 1 => p.out([LABELS[r.gen_range(0..LABELS.len())]]),
            2 => p.in_([LABELS[r.gen_range(0..LABELS.len())]]),
            3 => p.both([LABELS[r.gen_range(0..LABELS.len())]]),
            // multi-label and wildcard steps: the optimizer must NOT merge
            // these into automata (label-grouped emission would reorder rows)
            10 => p.out([
                LABELS[r.gen_range(0..LABELS.len())],
                LABELS[r.gen_range(0..LABELS.len())],
            ]),
            11 => p.out_any(),
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

#[test]
fn optimized_plans_produce_exactly_the_naive_rows() {
    let mut rewrites = 0usize;
    cases(3, |r, case| {
        let g = random_graph(r);
        let n = g.vertex_count();
        let pipeline = random_pipeline(r, n);
        let start = match r.gen_range(0u32..3) {
            0 => StartSpec::AllVertices,
            1 => StartSpec::Named(vec![format!("v{}", r.gen_range(0..n))]),
            _ => StartSpec::Where("kind".into(), Predicate::Eq(Value::from("person"))),
        };
        let snapshot = g.snapshot();
        let naive = match plan::plan(&snapshot, &start, pipeline.steps()) {
            Ok(p) => p,
            // random `is` names may miss (never happens here, but keep the
            // property total)
            Err(EngineError::UnknownVertex(_)) => return,
            Err(e) => panic!("case {case}: plan failed: {e}"),
        };
        let optimized = plan::optimize(&snapshot, &naive);
        if optimized != naive {
            rewrites += 1;
        }
        for strategy in STRATEGIES {
            let naive_rows = exec::execute(&snapshot, &naive, strategy, None).unwrap();
            let opt_rows = exec::execute(&snapshot, &optimized, strategy, None).unwrap();
            assert_eq!(
                row_sequence(&naive_rows),
                row_sequence(&opt_rows),
                "case {case} strategy {strategy:?}\n naive: {}\n opt:   {}",
                naive.describe(),
                optimized.describe()
            );
        }
    });
    // the property is vacuous if the optimizer never fires
    assert!(
        rewrites >= CASES / 4,
        "optimizer rewrote only {rewrites}/{CASES} random pipelines"
    );
}

#[test]
fn multi_label_expands_keep_their_row_order_under_limit() {
    // Regression: merging multi-label expansion runs into an automaton would
    // emit edges grouped by graph label order instead of the step's
    // interleaved adjacency order, so a downstream limit(2) would keep
    // different rows. The optimizer must leave such runs unmerged.
    let g = PropertyGraph::new();
    g.add_edge("s", "b", "x");
    g.add_edge("s", "a", "y");
    g.add_edge("s", "b", "z");
    g.add_edge("x", "a", "p");
    g.add_edge("y", "a", "p");
    g.add_edge("z", "a", "q");
    let snapshot = g.snapshot();
    let pipeline = Pipeline::new().out(["a", "b"]).out(["a", "b"]).limit(2);
    let start = StartSpec::Named(vec!["s".into()]);
    let naive = plan::plan(&snapshot, &start, pipeline.steps()).unwrap();
    let optimized = plan::optimize(&snapshot, &naive);
    for strategy in STRATEGIES {
        let naive_rows = exec::execute(&snapshot, &naive, strategy, None).unwrap();
        let opt_rows = exec::execute(&snapshot, &optimized, strategy, None).unwrap();
        assert_eq!(
            row_sequence(&naive_rows),
            row_sequence(&opt_rows),
            "strategy {strategy:?}"
        );
    }
}

#[test]
fn social_workloads_are_rewritten_and_keep_the_naive_rows() {
    // One workload per rewrite family on the E2 social graph: filters that
    // fuse into the expansions (R1, R6), consecutive expansions that merge
    // into one automaton (R5), and redundant dedups and stacked limits that
    // collapse (R2, R3).
    let g = social_graph(SocialConfig {
        people: 400,
        software: 60,
        knows_per_person: 4,
        created_per_person: 1,
        uses_per_person: 2,
        seed: 11,
    });
    let people: Vec<String> = (0..40).map(|i| format!("person{i}")).collect();
    let workloads = [
        (
            "filter_fusion",
            Pipeline::new()
                .is(people.clone())
                .has("age", Predicate::Gt(30.0))
                .out(["knows"])
                .is(people)
                .out(["uses"]),
        ),
        (
            "expand_merge",
            Pipeline::new()
                .out(["knows"])
                .out(["knows"])
                .out(["created"]),
        ),
        (
            "dedup_limit",
            Pipeline::new()
                .out(["knows"])
                .out(["uses"])
                .dedup()
                .has("lang", Predicate::Exists)
                .dedup()
                .limit(500)
                .limit(100),
        ),
    ];
    let start = StartSpec::Where("kind".into(), Predicate::Eq(Value::from("person")));
    let snapshot = g.snapshot();
    for (name, pipeline) in workloads {
        let naive = plan::plan(&snapshot, &start, pipeline.steps()).unwrap();
        let optimized = plan::optimize(&snapshot, &naive);
        assert_ne!(naive, optimized, "{name} was not rewritten");
        for strategy in STRATEGIES {
            let naive_rows = exec::execute(&snapshot, &naive, strategy, None).unwrap();
            let opt_rows = exec::execute(&snapshot, &optimized, strategy, None).unwrap();
            assert!(!naive_rows.is_empty(), "{name}: the workload is vacuous");
            assert_eq!(
                row_sequence(&naive_rows),
                row_sequence(&opt_rows),
                "{name} under {strategy:?}"
            );
        }
    }
}

#[test]
fn optimizer_is_idempotent_on_random_pipelines() {
    cases(4, |r, case| {
        let g = random_graph(r);
        let pipeline = random_pipeline(r, g.vertex_count());
        let snapshot = g.snapshot();
        let Ok(naive) = plan::plan(&snapshot, &StartSpec::AllVertices, pipeline.steps()) else {
            return;
        };
        let once = plan::optimize(&snapshot, &naive);
        let twice = plan::optimize(&snapshot, &once);
        assert_eq!(once, twice, "case {case}: optimize is not idempotent");
    });
}
