//! Early-exit and execution-semantics properties of the cursor protocol.
//!
//! Four families, each over ≥ 30 independently-seeded random **cyclic**
//! property graphs (hand-rolled property tests — the build environment
//! vendors no proptest; failures print the case number for reproduction):
//!
//! 1. `limit(k)` ≡ the first `k` rows of the unlimited run, under every
//!    execution strategy (early exit never changes *which* rows come out);
//! 2. cursor consumption (the `Streaming` strategy and the public
//!    [`RowCursor`] iterator) is row-for-row identical to the materialized
//!    strategy under `Semantics::Walks`;
//! 3. the optimizer's reachability upgrade (R8) and the explicit
//!    `match_reachable` surface produce exactly the walk-semantics rows once
//!    a dedup collapses paths;
//! 4. `In`-direction patterns agree with chains of `in_` steps.
//!
//! Plus direct regressions: `first()` after a dense `match_` on a complete
//! graph performs a *bounded* number of expansions (asserted via the
//! expansion counter, not wall time); a limited chunked `execute()` does the
//! work of a `next_row` drain (the cursor has one stage protocol, and a
//! one-row pull is a chunk of one); the materialized and parallel
//! strategies finish a level before `limit` sees it, through every
//! terminal; and
//! `Semantics::Reachable` terminates on cyclic graphs where walk
//! enumeration exhausts a memory budget.

use rand::Rng as _;

use mrpa::datagen::random::{rng_stream, Rng};
use mrpa::engine::{
    count, exec, plan, Direction, EngineError, ExecutionStrategy, Predicate, PropertyGraph,
    QueryResult, Traversal, Value, UNBOUNDED_MATCH_HOPS,
};

const CASES: usize = 32;

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

const LABELS: [&str; 3] = ["a", "b", "c"];

/// A small random property graph that is **guaranteed cyclic**: a labelled
/// `a`-cycle through every vertex, plus random extra edges. Every label of
/// [`LABELS`] is always interned.
fn random_cyclic_graph(r: &mut Rng) -> PropertyGraph {
    let g = PropertyGraph::new();
    let n = r.gen_range(4usize..12);
    for i in 0..n {
        let v = g.add_vertex(&format!("v{i}"));
        g.set_vertex_property(v, "age", Value::Int(r.gen_range(10i64..60)));
    }
    // the guaranteed cycle (and the guaranteed `a` label)
    for i in 0..n {
        g.add_edge(&format!("v{i}"), "a", &format!("v{}", (i + 1) % n));
    }
    g.add_edge("v0", "b", "v1");
    g.add_edge("v1", "c", "v2");
    let m = r.gen_range(4usize..20);
    for _ in 0..m {
        let t = format!("v{}", r.gen_range(0..n));
        let h = format!("v{}", r.gen_range(0..n));
        let l = LABELS[r.gen_range(0..LABELS.len())];
        g.add_edge(&t, l, &h);
    }
    g
}

fn cases(stream: u64, mut check: impl FnMut(&mut Rng, usize)) {
    for case in 0..CASES {
        let mut r = rng_stream(0x0EE7_CAFE, stream.wrapping_mul(1000) + case as u64);
        check(&mut r, case);
    }
}

fn row_sequence(result: &QueryResult) -> Vec<String> {
    result
        .rows()
        .iter()
        .map(|row| format!("{}-[{}]->{}", row.source, row.path, row.head))
        .collect()
}

/// Drains a cursor one `next_row` at a time; returns the row sequence and
/// the expansions it took.
fn next_row_drain(t: Traversal) -> (Vec<String>, u64) {
    let mut cursor = t.cursor().unwrap();
    let mut rows = Vec::new();
    while let Some(row) = cursor.next_row().unwrap() {
        rows.push(format!("{}-[{}]->{}", row.source, row.path, row.head));
    }
    (rows, cursor.stats().expansions)
}

/// The complete `knows`-digraph on `n` vertices.
fn complete_knows_graph(n: usize) -> PropertyGraph {
    let g = PropertyGraph::new();
    for i in 0..n {
        for j in 0..n {
            if i != j {
                g.add_edge(&format!("v{i}"), "knows", &format!("v{j}"));
            }
        }
    }
    g
}

/// Pipelines whose unlimited runs are cheap (bounded hops) but walk cyclic
/// structure, exercising automaton, repeat, filter, and dedup stages. Each
/// comes with whether `count()` takes the product path
/// ([`count::by_product`]): the countable shapes first, then one shape from
/// each family that drains the cursor.
fn pipelines(g: &PropertyGraph) -> Vec<(bool, Traversal)> {
    let age = |n: f64| Predicate::Gt(n);
    let counted = [
        Traversal::over(g).match_within("a+", 4),
        Traversal::over(g).match_within("a·(b|c)?", 3).out_any(),
        Traversal::over(g).out_any().match_within("a{2}", 2).dedup(),
        Traversal::over(g).in_(["a"]).out_any(),
        // label chains: merged into one automaton, and a multi-label join
        Traversal::over(g).out(["a"]).out(["b"]).out(["a"]),
        Traversal::over(g).out(["a", "c"]).out(["b"]).in_(["a"]),
        Traversal::over(g).both(["a"]).both_any().in_any(),
        // filters between hops, pushed into the expansions or not
        Traversal::over(g)
            .out_any()
            .has("age", age(30.0))
            .out(["a"]),
        Traversal::over(g)
            .out(["a"])
            .is(["v1", "v2", "v3"])
            .out_any(),
        // mid-chain and terminal dedup
        Traversal::over(g).out_any().dedup().out_any().dedup(),
        // a limit behind the automaton's emission cap
        Traversal::over(g).match_within("a+·b?", 4).limit(5),
        Traversal::over(g)
            .is(["v0", "v1", "v2"])
            .match_within("(a|b)+·c*", 4)
            .is(["v0", "v1", "v3"]),
        // per-row reachability under a dedup, upgraded or explicit
        Traversal::over(g)
            .out_any()
            .is(["v0", "v2", "v3"])
            .match_within("(a|b)+", 5)
            .dedup(),
        Traversal::over(g)
            .match_reachable_within("a·b*", 3)
            .is(["v1", "v2"])
            .dedup(),
        Traversal::over(g).match_reachable_global("a+·b").dedup(),
        // a duplicated start name counts twice
        Traversal::over(g)
            .v(["v0", "v0", "v1"])
            .out_any()
            .out(["a"]),
    ];
    let fallback = [
        Traversal::over(g)
            .repeat(1..=3, |p| p.out(["a"]))
            .has("age", age(20.0)),
        Traversal::over(g).cheapest_("a+·b?"),
        Traversal::over(g).match_reachable_within("a+", 3),
        Traversal::over(g)
            .match_reachable_global_within("a+", 2)
            .dedup(),
        Traversal::over(g).out_any().out(["a"]).limit(4),
        Traversal::over(g).out_any().limit(5).out(["a"]),
    ];
    let counted = counted.into_iter().map(|t| (true, t));
    counted
        .chain(fallback.into_iter().map(|t| (false, t)))
        .collect()
}

#[test]
fn limit_k_is_the_prefix_of_the_unlimited_run_under_every_strategy() {
    cases(1, |r, case| {
        let g = random_cyclic_graph(r);
        for (pi, (_, base)) in pipelines(&g).into_iter().enumerate() {
            let unlimited = base.clone().execute().unwrap();
            let reference = row_sequence(&unlimited);
            for k in [0usize, 1, 3, 7] {
                for strategy in STRATEGIES {
                    let limited = base.clone().limit(k).strategy(strategy).execute().unwrap();
                    let got = row_sequence(&limited);
                    let want = &reference[..k.min(reference.len())];
                    assert_eq!(
                        got, want,
                        "case {case} pipeline {pi} limit({k}) {strategy:?}"
                    );
                    if strategy == ExecutionStrategy::Streaming {
                        // one stage protocol: one-row chunks are next_row
                        let t = base.clone().limit(k).strategy(strategy);
                        let one = t.clone().chunk_size(1).execute().unwrap();
                        let (drained, expansions) = next_row_drain(t);
                        let ctx = format!("case {case} pipeline {pi} limit({k})");
                        assert_eq!(row_sequence(&one), drained, "{ctx} rows");
                        assert_eq!(one.stats().expansions, expansions, "{ctx} expansions");
                    }
                }
            }
        }
    });
}

#[test]
fn cursor_rows_equal_materialized_rows_under_walk_semantics() {
    cases(2, |r, case| {
        let g = random_cyclic_graph(r);
        for (pi, (_, base)) in pipelines(&g).into_iter().enumerate() {
            let reference = row_sequence(&base.clone().execute().unwrap());
            // the Streaming strategy is the cursor drained by execute()
            let streamed = base
                .clone()
                .strategy(ExecutionStrategy::Streaming)
                .execute()
                .unwrap();
            assert_eq!(
                row_sequence(&streamed),
                reference,
                "case {case} pipeline {pi} streaming"
            );
            // external Iterator consumption of the public cursor
            let cursor = base
                .clone()
                .strategy(ExecutionStrategy::Streaming)
                .cursor()
                .unwrap();
            let iterated: Vec<String> = cursor
                .map(|row| {
                    let row = row.unwrap();
                    format!("{}-[{}]->{}", row.source, row.path, row.head)
                })
                .collect();
            assert_eq!(iterated, reference, "case {case} pipeline {pi} iterator");
        }
    });
}

#[test]
fn terminals_agree_with_execute() {
    cases(3, |r, case| {
        let g = random_cyclic_graph(r);
        for (pi, (counted, base)) in pipelines(&g).into_iter().enumerate() {
            let mut materialized = None;
            for strategy in STRATEGIES {
                let t = base.clone().strategy(strategy).parallel_threads(2);
                let ctx = format!("case {case} pipeline {pi} {strategy:?}");
                let all = t.execute().unwrap();
                // Parallel is Materialized over start partitions: the same
                // work, except where each partition applies an emission cap
                // to its own walks
                match strategy {
                    ExecutionStrategy::Materialized => materialized = Some(all.stats().expansions),
                    ExecutionStrategy::Parallel if !emission_capped(all.execution().plan()) => {
                        assert_eq!(
                            Some(all.stats().expansions),
                            materialized,
                            "{ctx} expansions"
                        );
                    }
                    _ => {}
                }
                let (n, execution) = t.count_with_stats().unwrap();
                assert_eq!(n, all.len(), "{ctx} count");
                assert_eq!(
                    count::by_product(execution.plan()),
                    counted,
                    "{ctx} count path"
                );
                if counted {
                    assert_eq!(execution.stats().interned_nodes, 0, "{ctx}");
                }
                assert_eq!(t.exists().unwrap(), !all.is_empty(), "{ctx} exists");
                let first = t.first().unwrap();
                match all.rows().first() {
                    Some(row) => assert_eq!(first.as_ref(), Some(row), "{ctx}"),
                    None => assert!(first.is_none(), "{ctx}"),
                }
            }
        }
    });
}

/// Whether the plan carries an R7/R9 emission cap (which each parallel
/// partition applies to its own walks).
fn emission_capped(plan: &plan::LogicalPlan) -> bool {
    plan.ops().iter().any(|op| {
        matches!(
            op,
            plan::PlanOp::ExpandAutomaton { limit: Some(_), .. }
                | plan::PlanOp::ExpandWeighted { k: Some(_), .. }
        )
    })
}

#[test]
fn first_on_a_dense_match_performs_bounded_expansions() {
    // A complete knows-digraph: the walk set of knows+ within 16 hops is
    // astronomically large (Σ_{d≤16} 11·10^{d-1} walks from one vertex), so
    // anything that enumerates it will not finish. The assertion is on the
    // expansion counter, not wall time.
    let g = complete_knows_graph(12);
    // the first row costs one expansion per walk that must emit: the
    // R7-capped walk stops at the CSR entry of its first emission, and under
    // the parallel strategy each of the two partitions runs its own
    let per_strategy = [1, 1, 2];
    for (strategy, expected) in STRATEGIES.into_iter().zip(per_strategy) {
        // the terminal itself, from one start: one expansion
        let (row, execution) = Traversal::over(&g)
            .v(["v0"])
            .match_("knows+")
            .strategy(strategy)
            .parallel_threads(2)
            .first_with_stats()
            .unwrap();
        let row = row.expect("a complete graph has knows-walks");
        assert_eq!(row.path.len(), 1);
        assert_eq!(execution.stats().expansions, 1, "{strategy:?} first()");
        // from the whole-graph start
        let mut cursor = Traversal::over(&g)
            .match_("knows+")
            .limit(1)
            .strategy(strategy)
            .parallel_threads(2)
            .cursor()
            .unwrap();
        let row = cursor.next_row().unwrap().expect("one row");
        assert_eq!(row.path.len(), 1);
        let expansions = cursor.stats().expansions;
        assert_eq!(expansions, expected, "{strategy:?} limit(1)");
    }
    // bounded to 4 hops the walk set is enumerable (12 · Σ_{d≤4} 11^d =
    // 193,248 rows): limit(1) keeps exactly its first row, at the same cost
    let within = Traversal::over(&g).match_within("knows+", 4);
    for (strategy, expected) in STRATEGIES.into_iter().zip(per_strategy) {
        let full = within.clone().strategy(strategy).execute().unwrap();
        assert_eq!(full.len(), 193_248, "{strategy:?}");
        let limited = within
            .clone()
            .limit(1)
            .strategy(strategy)
            .parallel_threads(2)
            .execute()
            .unwrap();
        assert_eq!(limited.rows(), &full.rows()[..1], "{strategy:?}");
        let expansions = limited.stats().expansions;
        assert_eq!(expansions, expected, "{strategy:?} limit(1) within 4 hops");
    }
    // exists() on the same dense automaton is equally bounded
    assert!(Traversal::over(&g).match_("knows+").exists().unwrap());
}

#[test]
fn a_limited_chunked_drain_does_the_work_of_a_one_row_drain() {
    // Streaming out·out·dedup·limit(3) on K12: the first knows-neighbour's
    // own neighbours already hold 3 distinct heads, so 11 + 11 expansions
    // suffice however the rows are asked for. A stage that handed out more
    // than it was asked for would expand the whole second layer (132).
    let g = complete_knows_graph(12);
    let t = Traversal::over(&g)
        .out(["knows"])
        .out(["knows"])
        .dedup()
        .limit(3)
        .strategy(ExecutionStrategy::Streaming);
    let (rows, expansions) = next_row_drain(t.clone());
    assert_eq!((rows.len(), expansions), (3, 22), "next_row drain");
    for chunk in [1, 3, 2048] {
        let r = t.clone().chunk_size(chunk).execute().unwrap();
        assert_eq!(row_sequence(&r), rows, "execute() at chunk {chunk}");
        assert_eq!(r.stats().expansions, 22, "execute() at chunk {chunk}");
    }
    let (count, execution) = t.count_with_stats().unwrap();
    assert_eq!((count, execution.stats().expansions), (3, 22), "count()");
    // the answer is the strategy's and the chunk size's to find, not to
    // change: the batch strategies build whole levels, but keep the same 3
    for strategy in STRATEGIES {
        for chunk in [1, 3, 2048] {
            let r = t
                .clone()
                .strategy(strategy)
                .parallel_threads(2)
                .chunk_size(chunk)
                .execute()
                .unwrap();
            assert_eq!(row_sequence(&r), rows, "{strategy:?} at chunk {chunk}");
        }
    }
}

#[test]
fn materialized_limit_expands_the_whole_level_and_streaming_one_row() {
    // out(knows).limit(1) on K12 has no emission cap to push into: the
    // materialized strategy finishes the expansion level before `Limit`
    // sees it (all 132 edges), and so do the parallel strategy's partitions
    // between them; the streaming one expands only the first row's 11
    // neighbours — through every terminal.
    let g = complete_knows_graph(12);
    for (strategy, expected) in [
        (ExecutionStrategy::Materialized, 132),
        (ExecutionStrategy::Parallel, 132),
        (ExecutionStrategy::Streaming, 11),
    ] {
        let t = Traversal::over(&g)
            .out(["knows"])
            .limit(1)
            .strategy(strategy)
            .parallel_threads(2);
        let (row, first) = t.first_with_stats().unwrap();
        assert!(row.is_some(), "{strategy:?}");
        let (count, counted) = t.count_with_stats().unwrap();
        assert_eq!(count, 1, "{strategy:?}");
        let executed = t.execute().unwrap();
        assert_eq!(executed.len(), 1, "{strategy:?}");
        let mut cursor = t.cursor().unwrap();
        assert!(cursor.next_row().unwrap().is_some(), "{strategy:?}");
        for (terminal, expansions) in [
            ("first()", first.stats().expansions),
            ("count()", counted.stats().expansions),
            ("execute()", executed.stats().expansions),
            ("cursor", cursor.stats().expansions),
        ] {
            assert_eq!(expansions, expected, "{strategy:?} {terminal}");
        }
    }
}

#[test]
fn reachable_semantics_terminates_where_walk_enumeration_trips_the_cap() {
    // Two interleaved cycles: every vertex has two knows-successors, so the
    // walk count doubles per depth (2^d) and a deep walk enumeration
    // exhausts a memory budget. Reachability dedups the frontier by
    // (vertex, state) and terminates — without any hop bound at all.
    let g = PropertyGraph::new();
    let n = 24usize;
    for i in 0..n {
        g.add_edge(&format!("v{i}"), "knows", &format!("v{}", (i + 1) % n));
        g.add_edge(&format!("v{i}"), "knows", &format!("v{}", (i + 2) % n));
    }
    let walks = Traversal::over(&g)
        .v(["v0"])
        .match_within("knows+", 1000)
        .memory_budget(1 << 24)
        .execute();
    assert!(matches!(walks, Err(EngineError::MemoryBudget { .. })));
    // unbounded reachability: every vertex is reachable, one row per
    // (vertex, accepting state) — here exactly one accepting state
    let reached = Traversal::over(&g)
        .v(["v0"])
        .match_reachable("knows+")
        .execute()
        .unwrap();
    assert_eq!(reached.len(), n);
    let mut heads = reached.distinct_heads();
    heads.sort_unstable();
    assert_eq!(heads.len(), n);
    // each surviving path is the breadth-first first walk to its head
    for strategy in STRATEGIES {
        let r = Traversal::over(&g)
            .v(["v0"])
            .match_reachable("knows+")
            .strategy(strategy)
            .execute()
            .unwrap();
        assert_eq!(row_sequence(&r), row_sequence(&reached), "{strategy:?}");
    }
    // an unbounded hop count without reachability is rejected at plan time
    let err = Traversal::over(&g)
        .v(["v0"])
        .match_within("knows+", UNBOUNDED_MATCH_HOPS)
        .execute();
    assert!(matches!(err, Err(EngineError::Unsupported(_))));
}

#[test]
fn reachability_upgrade_preserves_the_dedup_output_exactly() {
    // R8: automaton + dedup(head) rewrites to reachability semantics. The
    // rewritten plan must produce the naive (walk-semantics) rows verbatim —
    // paths included, because dedup keeps the first walk per head and the
    // reachable sequence keeps exactly the first walk per (head, state).
    let mut upgraded = 0usize;
    cases(4, |r, case| {
        let g = random_cyclic_graph(r);
        let snapshot = g.snapshot();
        for (pi, base) in [
            Traversal::over(&g).match_within("a+", 5).dedup(),
            Traversal::over(&g)
                .out_any()
                .match_within("a·a·a?", 4)
                .has("age", mrpa::engine::Predicate::Gt(15.0))
                .dedup(),
            Traversal::over(&g)
                .match_within("(a|b)+", 4)
                .dedup()
                .out(["a"]),
        ]
        .into_iter()
        .enumerate()
        {
            let naive = plan::plan(&snapshot, base.start_spec(), base.steps()).unwrap();
            let optimized = plan::optimize(&snapshot, &naive);
            if format!("{optimized:?}").contains("Reachable") {
                upgraded += 1;
            }
            for strategy in STRATEGIES {
                let naive_rows = exec::execute(&snapshot, &naive, strategy).unwrap();
                let opt_rows = exec::execute(&snapshot, &optimized, strategy).unwrap();
                assert_eq!(
                    row_sequence(&naive_rows),
                    row_sequence(&opt_rows),
                    "case {case} pipeline {pi} {strategy:?}"
                );
            }
        }
    });
    // the property is vacuous if the upgrade never fires
    assert!(upgraded >= CASES, "R8 fired only {upgraded} times");
}

#[test]
fn global_reachability_shares_one_seen_set_across_sources() {
    // For a pattern with a single accepting DFA state, sharing the seen-set
    // across input rows is observationally identical to per-row reachability
    // followed by a head dedup — same rows, same paths, same order, same
    // source attribution (each head belongs to the first source that reaches
    // it) — while expanding each (vertex, state) pair once for the whole op
    // instead of once per source.
    cases(6, |r, case| {
        let g = random_cyclic_graph(r);
        for pattern in ["a+", "(a|b)+"] {
            let via_dedup = Traversal::over(&g)
                .match_reachable(pattern)
                .dedup()
                .execute()
                .unwrap();
            for strategy in STRATEGIES {
                let global = Traversal::over(&g)
                    .match_reachable_global(pattern)
                    .strategy(strategy)
                    .execute()
                    .unwrap();
                assert_eq!(
                    row_sequence(&global),
                    row_sequence(&via_dedup),
                    "case {case} pattern {pattern} {strategy:?}"
                );
            }
        }
    });
    // and the sharing is visible in the work counters: per-row reachability
    // re-walks the cycle from every source, the global mode walks it once
    let g = PropertyGraph::new();
    let n = 16usize;
    for i in 0..n {
        g.add_edge(&format!("v{i}"), "a", &format!("v{}", (i + 1) % n));
    }
    let per_row = Traversal::over(&g).match_reachable("a+").execute().unwrap();
    let global = Traversal::over(&g)
        .match_reachable_global("a+")
        .execute()
        .unwrap();
    // per-row: every source reaches every vertex (n² rows); global: each
    // vertex is attributed to the first source that reaches it (v0)
    assert_eq!(per_row.len(), n * n);
    assert_eq!(global.len(), n);
    assert!(global
        .rows()
        .iter()
        .all(|row| row.source == global.rows()[0].source));
    assert!(global.stats().expansions < per_row.stats().expansions / (n as u64 / 2));
}

#[test]
fn in_direction_patterns_agree_with_in_step_chains() {
    cases(5, |r, case| {
        let g = random_cyclic_graph(r);
        let l1 = LABELS[r.gen_range(0..LABELS.len())];
        let l2 = LABELS[r.gen_range(0..LABELS.len())];
        let pattern = format!("{l1}·{l2}");
        for strategy in STRATEGIES {
            let via_match = Traversal::over(&g)
                .match_in_(&pattern)
                .strategy(strategy)
                .execute()
                .unwrap();
            let via_steps = Traversal::over(&g)
                .in_([l1])
                .in_([l2])
                .strategy(strategy)
                .execute()
                .unwrap();
            let mut a = row_sequence(&via_match);
            let mut b = row_sequence(&via_steps);
            a.sort();
            b.sort();
            assert_eq!(a, b, "case {case} pattern {pattern} {strategy:?}");
        }
    });
    // match_dir is the generic spelling; Both is rejected at plan time
    let g = random_cyclic_graph(&mut rng_stream(0x0EE7_CAFE, 99));
    let via_dir = Traversal::over(&g)
        .match_dir(Direction::In, "a·b")
        .execute()
        .unwrap();
    let via_in = Traversal::over(&g).match_in_("a·b").execute().unwrap();
    assert_eq!(row_sequence(&via_dir), row_sequence(&via_in));
    let err = Traversal::over(&g)
        .match_dir(Direction::Both, "a·b")
        .execute();
    assert!(matches!(err, Err(EngineError::Unsupported(_))));
}

#[test]
fn limit_pushdown_annotates_the_automaton() {
    let g = random_cyclic_graph(&mut rng_stream(0x0EE7_CAFE, 7));
    let report = Traversal::over(&g)
        .match_within("a+", 4)
        .limit(2)
        .explain()
        .unwrap();
    assert!(report.rewritten());
    assert!(
        report.after().describe().contains("emit≤2"),
        "plan: {}",
        report.after().describe()
    );
    // and the reachability upgrade is visible in explain() too
    let report = Traversal::over(&g)
        .match_within("a+", 4)
        .dedup()
        .explain()
        .unwrap();
    assert!(
        report.after().describe().contains("reachable"),
        "plan: {}",
        report.after().describe()
    );
}
