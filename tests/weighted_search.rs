//! Seeded property tests for semiring-weighted best-first path search.
//!
//! The acceptance property of the weighted subsystem: on random weighted
//! graphs, `cheapest_`/`widest_` results equal a **brute-force fold-and-min**
//! over the enumerated bounded walk set — every matching walk is enumerated
//! through the unweighted automaton (`match_within`, walk semantics), each
//! walk's weight is the semiring `⊗`-fold of its edge weights, and per
//! `(source, head)` the `⊕`-best (min for shortest, max-of-bottleneck for
//! widest) must equal the weighted op's emitted cost — with the emitted path
//! itself achieving that cost. Hand-rolled property tests over ≥ 32 seeded
//! random graphs (the build environment vendors no proptest; failures print
//! the case number), each property checked under all three execution
//! strategies.
//!
//! Further families: top-k output is cost-sorted and `top_k(k)` is a prefix
//! of `top_k(k+1)`; the three strategies agree row-for-row (weights
//! included); unit weights count hops; and weight-resolution errors
//! (missing property, negative weight under shortest) surface as
//! `EngineError::BadWeight`. On a fixed social graph, best-first `top_k(1)`
//! must also expand strictly fewer edges than the enumeration it replaces.

use rand::Rng as _;

use mrpa::core::semiring::{MaxMin, MinPlus, SelectiveSemiring, Semiring};
use mrpa::datagen::random::{rng_stream, Rng};
use mrpa::datagen::{social_graph, SocialConfig};
use mrpa::engine::{
    EngineError, ExecutionStrategy, PropertyGraph, QueryResult, ResultRow, Traversal, Value,
};

const CASES: usize = 32;

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

const LABELS: [&str; 3] = ["a", "b", "c"];

/// A small random weighted property graph, guaranteed cyclic (an `a`-cycle
/// through every vertex) with every label interned and every edge carrying a
/// positive finite `w` property.
fn random_weighted_graph(r: &mut Rng) -> PropertyGraph {
    let g = PropertyGraph::new();
    let n = r.gen_range(4usize..10);
    let weigh = |g: &PropertyGraph, t: &str, l: &str, h: &str, r: &mut Rng| {
        let e = g.add_edge(t, l, h);
        // one decimal digit: enough weight diversity, deterministic folds
        g.set_edge_property(e, "w", Value::Float(r.gen_range(1i64..50) as f64 / 10.0));
    };
    for i in 0..n {
        weigh(&g, &format!("v{i}"), "a", &format!("v{}", (i + 1) % n), r);
    }
    weigh(&g, "v0", "b", "v1", r);
    weigh(&g, "v1", "c", "v2", r);
    let m = r.gen_range(4usize..18);
    for _ in 0..m {
        let t = format!("v{}", r.gen_range(0..n));
        let h = format!("v{}", r.gen_range(0..n));
        let l = LABELS[r.gen_range(0..LABELS.len())];
        weigh(&g, &t, l, &h, r);
    }
    g
}

fn cases(stream: u64, mut check: impl FnMut(&mut Rng, usize)) {
    for case in 0..CASES {
        let mut r = rng_stream(0x5E31_0B11, stream.wrapping_mul(1000) + case as u64);
        check(&mut r, case);
    }
}

/// Row signature including the weight, so strategy-agreement assertions catch
/// cost mismatches too.
fn row_sig(row: &ResultRow) -> String {
    format!(
        "{}-[{}]->{} @{:?}",
        row.source, row.path, row.head, row.weight
    )
}

fn row_sequence(result: &QueryResult) -> Vec<String> {
    result.rows().iter().map(row_sig).collect()
}

/// The weight of a result row's path under the fold of semiring `⊗` over the
/// `w` edge property — the brute-force reference fold.
fn fold_path<S: Semiring<Elem = f64>>(g: &PropertyGraph, row: &ResultRow) -> f64 {
    let snap = g.snapshot();
    S::fold_path(row.path.iter().map(|e| {
        snap.edge_weight(e, "w")
            .expect("every generated edge is weighted")
    }))
}

/// Brute force: enumerate every bounded matching walk, fold each, keep the
/// `⊕`-best per `(source, head)`.
fn brute_force_best<S: SelectiveSemiring<Elem = f64>>(
    g: &PropertyGraph,
    pattern: &str,
    bound: usize,
) -> std::collections::BTreeMap<(u64, u64), f64> {
    let all = Traversal::over(g)
        .match_within(pattern, bound)
        .execute()
        .expect("walk enumeration");
    let mut best = std::collections::BTreeMap::new();
    for row in all.rows() {
        let cost = fold_path::<S>(g, row);
        best.entry((row.source.0 as u64, row.head.0 as u64))
            .and_modify(|b| *b = S::add(b, &cost))
            .or_insert(cost);
    }
    best
}

fn check_against_brute_force<S: SelectiveSemiring<Elem = f64>>(
    g: &PropertyGraph,
    weighted: &QueryResult,
    pattern: &str,
    bound: usize,
    label: &str,
) {
    let best = brute_force_best::<S>(g, pattern, bound);
    // 1. exactly the (source, head) pairs with at least one matching walk
    let mut seen = std::collections::BTreeSet::new();
    for row in weighted.rows() {
        let key = (row.source.0 as u64, row.head.0 as u64);
        assert!(
            seen.insert(key),
            "{label}: duplicate (source, head) emission {key:?}"
        );
        let expect = best
            .get(&key)
            .unwrap_or_else(|| panic!("{label}: emitted {key:?} has no matching walk"));
        let got = row.weight.expect("weighted rows carry a cost");
        // 2. the emitted cost is the ⊕-best over the walk set (identical
        //    fold ops on both sides, so equality is exact)
        assert_eq!(got, *expect, "{label}: cost mismatch at {key:?}");
        // 3. the emitted path itself achieves the cost
        assert_eq!(
            fold_path::<S>(g, row),
            got,
            "{label}: emitted path does not achieve its cost at {key:?}"
        );
    }
    assert_eq!(
        seen.len(),
        best.len(),
        "{label}: weighted emitted {} heads, brute force found {}",
        seen.len(),
        best.len()
    );
}

const PATTERNS: [&str; 3] = ["a+", "a·(b|c)?", "(a|b)+"];
const BOUND: usize = 4;

#[test]
fn cheapest_equals_brute_force_fold_and_min_under_every_strategy() {
    cases(1, |r, case| {
        let g = random_weighted_graph(r);
        for pattern in PATTERNS {
            for strategy in STRATEGIES {
                let weighted = Traversal::over(&g)
                    .cheapest_within(pattern, BOUND)
                    .weight_by("w")
                    .strategy(strategy)
                    .execute()
                    .unwrap();
                check_against_brute_force::<MinPlus>(
                    &g,
                    &weighted,
                    pattern,
                    BOUND,
                    &format!("case {case} cheapest {pattern} {strategy:?}"),
                );
            }
        }
    });
}

#[test]
fn widest_equals_brute_force_fold_and_max_under_every_strategy() {
    cases(2, |r, case| {
        let g = random_weighted_graph(r);
        for pattern in PATTERNS {
            for strategy in STRATEGIES {
                let weighted = Traversal::over(&g)
                    .widest_within(pattern, BOUND)
                    .weight_by("w")
                    .strategy(strategy)
                    .execute()
                    .unwrap();
                check_against_brute_force::<MaxMin>(
                    &g,
                    &weighted,
                    pattern,
                    BOUND,
                    &format!("case {case} widest {pattern} {strategy:?}"),
                );
            }
        }
    });
}

/// The `⊕`-best `⊗`-fold of the `weight` property over every enumerated walk.
fn enumerated_optimum<S: SelectiveSemiring<Elem = f64>>(walks: &QueryResult) -> f64 {
    let snap = walks.snapshot();
    walks
        .rows()
        .iter()
        .map(|row| {
            S::fold_path(row.path.iter().map(|e| {
                snap.edge_weight(e, "weight")
                    .expect("social edges are weighted")
            }))
        })
        .reduce(|a, b| S::add(&a, &b))
        .expect("the source has matching walks")
}

#[test]
fn top_1_costs_the_enumerated_optimum_and_expands_fewer_edges() {
    // The best destination of knows+ within 5 hops of one person on the E2
    // social graph: best-first top_k(1) costs exactly the optimum of
    // enumerate-and-fold over the whole bounded walk set, and settles
    // strictly fewer adjacency entries than that enumeration visits.
    const HOPS: usize = 5;
    let g = social_graph(SocialConfig {
        people: 300,
        software: 40,
        knows_per_person: 8,
        created_per_person: 1,
        uses_per_person: 2,
        seed: 23,
    });
    let from = Traversal::over(&g).v(["person0"]);
    for strategy in STRATEGIES {
        let walks = from
            .clone()
            .match_within("knows+", HOPS)
            .strategy(strategy)
            .execute()
            .unwrap();
        for widest in [false, true] {
            let (name, search, optimum) = if widest {
                (
                    "widest",
                    from.clone().widest_within("knows+", HOPS),
                    enumerated_optimum::<MaxMin>(&walks),
                )
            } else {
                (
                    "cheapest",
                    from.clone().cheapest_within("knows+", HOPS),
                    enumerated_optimum::<MinPlus>(&walks),
                )
            };
            let top1 = search
                .weight_by("weight")
                .top_k(1)
                .strategy(strategy)
                .execute()
                .unwrap();
            assert_eq!(top1.len(), 1, "{name} {strategy:?}");
            assert_eq!(top1.rows()[0].weight, Some(optimum), "{name} {strategy:?}");
            let (best_first, enumerated) = (top1.stats().expansions, walks.stats().expansions);
            assert!(
                best_first < enumerated,
                "{name} {strategy:?}: top_k(1) expanded {best_first} edges, \
                 enumeration {enumerated}"
            );
        }
    }
}

#[test]
fn unit_weights_count_hops_and_unbounded_search_terminates_on_cycles() {
    cases(3, |r, case| {
        let g = random_weighted_graph(r);
        // unbounded on a guaranteed-cyclic graph: best-first settling
        // terminates by itself, and unit costs are the BFS hop distances
        let weighted = Traversal::over(&g).cheapest_("a+").execute().unwrap();
        let reachable = Traversal::over(&g).match_reachable("a+").execute().unwrap();
        // `a+` has one accepting state, so reachable rows are per-head; its
        // breadth-first first walk is a minimum-hop walk
        let mut hops = std::collections::BTreeMap::new();
        for row in reachable.rows() {
            hops.insert((row.source.0 as u64, row.head.0 as u64), row.path.len());
        }
        assert_eq!(weighted.len(), reachable.len(), "case {case}");
        for row in weighted.rows() {
            let key = (row.source.0 as u64, row.head.0 as u64);
            assert_eq!(
                row.weight,
                Some(hops[&key] as f64),
                "case {case}: hop count mismatch at {key:?}"
            );
            assert_eq!(row.path.len() as f64, row.weight.unwrap(), "case {case}");
        }
    });
}

#[test]
fn emissions_are_cost_sorted_within_each_input_row() {
    cases(4, |r, case| {
        let g = random_weighted_graph(r);
        for (which, base) in [
            Traversal::over(&g)
                .cheapest_within("a+", BOUND)
                .weight_by("w"),
            Traversal::over(&g)
                .widest_within("(a|b)+", BOUND)
                .weight_by("w"),
        ]
        .into_iter()
        .enumerate()
        {
            let result = base.execute().unwrap();
            let mut prev: Option<(u64, f64)> = None;
            for row in result.rows() {
                let source = row.source.0 as u64;
                let w = row.weight.unwrap();
                if let Some((ps, pw)) = prev {
                    if ps == source {
                        // within a source's contiguous run, never improving
                        let improving = if which == 0 {
                            MinPlus::better(&w, &pw)
                        } else {
                            MaxMin::better(&w, &pw)
                        };
                        assert!(
                            !improving,
                            "case {case} pipeline {which}: cost order violated ({pw} then {w})"
                        );
                    }
                }
                prev = Some((source, w));
            }
        }
    });
}

#[test]
fn top_k_is_sorted_and_a_prefix_of_top_k_plus_one() {
    cases(5, |r, case| {
        let g = random_weighted_graph(r);
        let source = format!("v{}", r.gen_range(0..4));
        let base = Traversal::over(&g)
            .v([source.as_str()])
            .cheapest_within("(a|b)+", BOUND)
            .weight_by("w");
        let unlimited = row_sequence(&base.clone().execute().unwrap());
        for k in 1..=4usize {
            for strategy in STRATEGIES {
                let k_rows =
                    row_sequence(&base.clone().top_k(k).strategy(strategy).execute().unwrap());
                let k1_rows = row_sequence(
                    &base
                        .clone()
                        .top_k(k + 1)
                        .strategy(strategy)
                        .execute()
                        .unwrap(),
                );
                assert_eq!(
                    k_rows,
                    unlimited[..k.min(unlimited.len())],
                    "case {case} top_k({k}) {strategy:?}"
                );
                assert_eq!(
                    k_rows[..],
                    k1_rows[..k.min(k1_rows.len())],
                    "case {case} top_k({k}) ⊄ top_k({}) {strategy:?}",
                    k + 1
                );
            }
        }
    });
}

#[test]
fn all_three_strategies_agree_row_for_row_on_composed_pipelines() {
    cases(6, |r, case| {
        let g = random_weighted_graph(r);
        let pipelines = vec![
            Traversal::over(&g)
                .cheapest_within("a+", BOUND)
                .weight_by("w"),
            Traversal::over(&g)
                .out_any()
                .widest_within("a·(b|c)?", 3)
                .weight_by("w")
                .has("age", mrpa::engine::Predicate::Exists),
            Traversal::over(&g)
                .cheapest_("(a|b)+")
                .weight_by_labels([("a", 1.0), ("b", 2.5)])
                .dedup(),
            Traversal::over(&g)
                .cheapest_within("a{2}", 2)
                .weight_by("w")
                .out(["a"]),
        ];
        for (pi, base) in pipelines.into_iter().enumerate() {
            let reference = row_sequence(&base.clone().execute().unwrap());
            for strategy in STRATEGIES {
                let got = row_sequence(&base.clone().strategy(strategy).execute().unwrap());
                assert_eq!(got, reference, "case {case} pipeline {pi} {strategy:?}");
            }
        }
    });
}

#[test]
fn weight_resolution_errors_are_explicit() {
    let g = PropertyGraph::new();
    let e1 = g.add_edge("s", "a", "t");
    g.set_edge_property(e1, "w", Value::Float(1.0));
    g.add_edge("t", "a", "u"); // no weight property
                               // missing property: error, not a silent skip
    let err = Traversal::over(&g)
        .v(["s"])
        .cheapest_("a+")
        .weight_by("w")
        .execute();
    assert!(matches!(err, Err(EngineError::BadWeight(_))), "{err:?}");
    // non-numeric property: error
    let e2 = g.add_edge("t", "b", "u");
    g.set_edge_property(e2, "w", Value::Text("heavy".into()));
    let err = Traversal::over(&g)
        .v(["t"])
        .cheapest_("b")
        .weight_by("w")
        .execute();
    assert!(matches!(err, Err(EngineError::BadWeight(_))));
    // negative weights break Dijkstra's monotonicity for shortest...
    let g = PropertyGraph::new();
    let e = g.add_edge("s", "a", "t");
    g.set_edge_property(e, "w", Value::Float(-1.0));
    let err = Traversal::over(&g)
        .v(["s"])
        .cheapest_("a")
        .weight_by("w")
        .execute();
    assert!(matches!(err, Err(EngineError::BadWeight(_))));
    // ...but are fine for widest (extension stays monotone under min)
    let widest = Traversal::over(&g)
        .v(["s"])
        .widest_("a")
        .weight_by("w")
        .execute()
        .unwrap();
    assert_eq!(widest.weights(), vec![Some(-1.0)]);
    // a label missing from a weight table is an error when traversed
    let g = PropertyGraph::new();
    g.add_edge("s", "a", "t");
    g.add_edge("t", "b", "u");
    let err = Traversal::over(&g)
        .v(["s"])
        .cheapest_("a·b")
        .weight_by_labels([("a", 1.0)])
        .execute();
    assert!(matches!(err, Err(EngineError::BadWeight(_))));
}

#[test]
fn bounded_optimum_can_differ_from_unbounded_and_both_are_correct() {
    // s -10-> t and s -1-> m1 -1-> m2 -1-> m3 -1-> t: the unbounded optimum
    // to t costs 4 over 4 hops; bounded to 2 hops it is the direct edge.
    let g = PropertyGraph::new();
    let w = |t: &str, h: &str, weight: f64| {
        let e = g.add_edge(t, "a", h);
        g.set_edge_property(e, "w", Value::Float(weight));
    };
    w("s", "t", 10.0);
    w("s", "m1", 1.0);
    w("m1", "m2", 1.0);
    w("m2", "m3", 1.0);
    w("m3", "t", 1.0);
    let unbounded = Traversal::over(&g)
        .v(["s"])
        .cheapest_("a+")
        .weight_by("w")
        .execute()
        .unwrap();
    let to_t = |r: &QueryResult| {
        r.rows()
            .iter()
            .find(|row| row.head == r.snapshot().vertex("t").expect("t exists"))
            .map(|row| (row.weight.unwrap(), row.path.len()))
    };
    assert_eq!(to_t(&unbounded), Some((4.0, 4)));
    let bounded = Traversal::over(&g)
        .v(["s"])
        .cheapest_within("a+", 2)
        .weight_by("w")
        .execute()
        .unwrap();
    assert_eq!(to_t(&bounded), Some((10.0, 1)));
    // the weight rides through downstream filters and limits untouched
    let filtered = Traversal::over(&g)
        .v(["s"])
        .cheapest_("a+")
        .weight_by("w")
        .is(["t"])
        .limit(1)
        .execute()
        .unwrap();
    assert_eq!(filtered.weights(), vec![Some(4.0)]);
}
