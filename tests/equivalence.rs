//! One randomized equivalence suite: a traversal's answer is the path set
//! its joins build, so it cannot depend on how the engine evaluates it.
//!
//! Every input is a `(graph, traversal)` pair from one generator — a small
//! random property graph that is **guaranteed cyclic** ([`random_graph`]) and
//! either a random pipeline from a random start ([`random_pipeline`]) or one
//! of the fixed query shapes of [`forms`]. Its one reference row sequence is
//! the naive plan under the materialized strategy at the default chunk size,
//! weight column and row order included ([`reference`]), and one test per
//! execution configuration checks every input ([`for_each_input`]) against
//! it under each strategy: the naive and the optimized plan; chunk sizes 1,
//! 3 and the default (one test per kind of stage, [`Stages`]); profiled
//! runs; and the streaming cursor drained one `next_row` at a time or as an
//! `Iterator`.
//! The remaining tests state the algebra's other identities on the same
//! inputs: `limit(k)` is a prefix, the terminals agree with `execute()`,
//! patterns equal step chains and unrolled unions, the optimizer's rewrites
//! are idempotent and keep the naive rows, and traces mirror the plan.
//!
//! These are hand-rolled property tests (the build environment vendors no
//! proptest); a failure prints its case number, and every case reproduces
//! from its `(stream, case)` seed.

use rand::Rng as _;

use mrpa::datagen::random::{rng_stream, Rng};
use mrpa::datagen::{social_graph, SocialConfig};
use mrpa::engine::{
    count, exec, metrics, plan, Direction, EngineError, ExecutionStrategy, Pipeline, Predicate,
    PropertyGraph, QueryResult, QueryTrace, ResultRow, StartSpec, Step, TraceNode, Traversal,
    Value,
};

/// Cases per property over random pipelines and random `match` patterns.
const CASES: usize = 60;
/// Random graphs per property over the fixed [`forms`].
const FORM_CASES: usize = 32;

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

const LABELS: [&str; 3] = ["a", "b", "c"];

fn label(r: &mut Rng) -> &'static str {
    LABELS[r.gen_range(0..LABELS.len())]
}

/// A small random property graph: an `a`-cycle through every vertex, one
/// `b` and one `c` edge (so every label of [`LABELS`] resolves), random
/// `age` and `kind` properties, and 4–23 random extra edges.
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
    for i in 0..n {
        g.add_edge(&format!("v{i}"), "a", &format!("v{}", (i + 1) % n));
    }
    g.add_edge("v0", "b", "v1");
    g.add_edge("v1", "c", "v2");
    for _ in 0..r.gen_range(4usize..24) {
        let t = format!("v{}", r.gen_range(0..n));
        let h = format!("v{}", r.gen_range(0..n));
        g.add_edge(&t, label(r), &h);
    }
    g
}

/// A random pipeline over the executor's whole vocabulary: expansions in
/// every direction (multi-label and wildcard ones, which the optimizer must
/// not merge into automata), `is`/`has` filters, dedup, limit, walk and
/// reachability patterns, weighted search and repeats.
fn random_pipeline(r: &mut Rng, n_vertices: usize) -> Pipeline {
    let mut p = Pipeline::new();
    for _ in 0..r.gen_range(1usize..6) {
        p = match r.gen_range(0u32..14) {
            0 | 1 => p.out([label(r)]),
            2 => p.in_([label(r)]),
            3 => p.both([label(r)]),
            4 => {
                let names: Vec<String> = (0..r.gen_range(1usize..4))
                    .map(|_| format!("v{}", r.gen_range(0..n_vertices)))
                    .collect();
                p.is(names)
            }
            5 => p.has("age", Predicate::Gt(r.gen_range(10i64..60) as f64)),
            6 => p.dedup(),
            7 => p.limit(r.gen_range(0usize..10)),
            8 => p.match_within("a·(b|c)", 3),
            9 => {
                let l = label(r);
                p.repeat(1..=2, |body| body.out([l]))
            }
            10 => p.out([label(r), label(r)]),
            11 => p.out_any(),
            12 => p.match_reachable(&format!("{}*·a", label(r))),
            _ => p.cheapest_within(&format!("{}+", label(r)), 3),
        };
    }
    p
}

fn random_start(r: &mut Rng, n_vertices: usize) -> StartSpec {
    match r.gen_range(0u32..3) {
        0 => StartSpec::AllVertices,
        1 => StartSpec::Named(vec![format!("v{}", r.gen_range(0..n_vertices))]),
        _ => StartSpec::Where("kind".into(), Predicate::Eq(Value::from("person"))),
    }
}

/// A random pipeline from a random start, bound to `g`.
fn random_traversal(r: &mut Rng, g: &PropertyGraph) -> Traversal {
    let n = g.vertex_count();
    let pipeline = random_pipeline(r, n);
    Traversal::over(g)
        .start_at(random_start(r, n))
        .with_steps(pipeline.steps().to_vec())
}

/// The fixed query shapes: bounded walks over cyclic structure through
/// automaton, repeat, filter, dedup, limit and weighted stages. Each comes
/// with whether `count()` takes the product path ([`count::by_product`]):
/// the countable shapes first, then the ones that drain the cursor. The
/// shapes that use `l1`, `l2`, `cutoff` or `k` draw them from `r`.
fn forms(g: &PropertyGraph, r: &mut Rng) -> Vec<(bool, Traversal)> {
    let age = |n: f64| Predicate::Gt(n);
    let (l1, l2) = (label(r), label(r));
    let cutoff = r.gen_range(10i64..60) as f64;
    let k = r.gen_range(0usize..8);
    let counted = [
        Traversal::over(g).match_within("a+", 4),
        Traversal::over(g).match_within(&format!("{l1}+"), 3),
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
        Traversal::over(g)
            .out([l1])
            .has("age", age(cutoff))
            .in_([l2])
            .both([l1, l2])
            .dedup(),
        // a limit behind the automaton's emission cap
        Traversal::over(g).match_within("a+·b?", 4).limit(5),
        Traversal::over(g).match_within("a·(b|c)", 3).limit(k),
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
        // R8's multi-source search, where the hop bound cannot bind:
        // unbounded, acyclic within the bound from duplicated start names,
        // nullable, against the edges, and behind head filters
        Traversal::over(g).match_reachable("a*·b").dedup(),
        Traversal::over(g)
            .v(["v1", "v0", "v1"])
            .match_within("a·(b|c)", 3)
            .dedup(),
        Traversal::over(g)
            .out_any()
            .match_within("a?·c?", 2)
            .dedup(),
        Traversal::over(g).match_in_(&format!("{l1}·a")).dedup(),
        Traversal::over(g)
            .match_(&format!("a·{l2}?"))
            .has("age", age(cutoff))
            .dedup(),
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
        Traversal::over(g).repeat(1..=2, |p| p.out([l2])),
        Traversal::over(g).cheapest_("a+·b?"),
        Traversal::over(g).cheapest_within(&format!("{l1}+"), 4),
        Traversal::over(g).match_reachable_within("a+", 3),
        Traversal::over(g).match_reachable(&format!("{l1}*·a")),
        Traversal::over(g)
            .match_reachable_global_within("a+", 2)
            .dedup(),
        Traversal::over(g).out_any().out(["a"]).limit(4),
        Traversal::over(g).out_any().limit(5).out(["a"]),
        // R2: stacked limits keep the smaller prefix
        Traversal::over(g).out_any().limit(6).limit(2),
    ];
    let counted = counted.into_iter().map(|t| (true, t));
    counted
        .chain(fallback.into_iter().map(|t| (false, t)))
        .collect()
}

/// Runs `check` for `n` independently-seeded cases on stream `stream`.
fn cases(stream: u64, n: usize, mut check: impl FnMut(&mut Rng, usize)) {
    for case in 0..n {
        let mut r = rng_stream(0x0E9_0A1E, stream.wrapping_mul(1000) + case as u64);
        check(&mut r, case);
    }
}

fn row_signature(row: &ResultRow) -> String {
    format!(
        "{}-[{}]->{} w={:?}",
        row.source, row.path, row.head, row.weight
    )
}

/// The exact row sequence, weight column included.
fn row_sequence(result: &QueryResult) -> Vec<String> {
    result.rows().iter().map(row_signature).collect()
}

/// The rows as a multiset (sorted), for identities that hold up to order.
fn row_multiset(result: &QueryResult) -> Vec<String> {
    let mut rows = row_sequence(result);
    rows.sort();
    rows
}

/// Drains a cursor one `next_row` at a time; returns the row sequence and
/// the expansions it took.
fn next_row_drain(t: Traversal) -> (Vec<String>, u64) {
    let mut cursor = t.cursor().unwrap();
    let mut rows = Vec::new();
    while let Some(row) = cursor.next_row().unwrap() {
        rows.push(row_signature(&row));
    }
    (rows, cursor.stats().expansions)
}

/// Walks the trace chain root-down checking its linkage.
fn check_chain(root: &TraceNode, ctx: &str) {
    let mut node = root;
    loop {
        assert!(
            node.children.len() <= 1,
            "{ctx}: plans are chains, node {:?} has {} children",
            node.op,
            node.children.len()
        );
        assert!(
            node.total_time_ns >= node.self_time_ns,
            "{ctx}: inclusive time below self time at {:?}",
            node.op
        );
        let Some(child) = node.children.first() else {
            assert_eq!(node.rows_in, 0, "{ctx}: the start frontier has no input");
            assert!(
                node.op.starts_with("start("),
                "{ctx}: chain must end at the start frontier, got {:?}",
                node.op
            );
            return;
        };
        assert_eq!(
            node.rows_in, child.rows_out,
            "{ctx}: rows_in of {:?} != rows_out of its input {:?}",
            node.op, child.op
        );
        assert!(
            node.total_time_ns >= child.total_time_ns,
            "{ctx}: inclusive time not monotone into {:?}",
            node.op
        );
        node = child;
    }
}

/// Asserts every conservation law a [`QueryTrace`] promises: the root's
/// `rows_out` is the result's row count, per-op exclusive `expansions` and
/// `arena_appends` sum to the run-wide totals, and per-op self times sum to
/// the root's inclusive time.
fn check_trace(trace: &QueryTrace, result: &QueryResult, ctx: &str) {
    assert_eq!(
        trace.root.rows_out as usize,
        result.rows().len(),
        "{ctx}: root rows_out vs result rows"
    );
    check_chain(&trace.root, ctx);
    let nodes = trace.nodes_source_first();
    let expansions: u64 = nodes.iter().map(|n| n.expansions).sum();
    assert_eq!(
        expansions, trace.stats.expansions,
        "{ctx}: per-op expansions must sum to the run total"
    );
    let appends: u64 = nodes.iter().map(|n| n.arena_appends).sum();
    assert_eq!(
        appends, trace.stats.interned_nodes,
        "{ctx}: per-op arena appends must sum to the run total"
    );
    let self_time: u64 = nodes.iter().map(|n| n.self_time_ns).sum();
    assert_eq!(
        self_time, trace.root.total_time_ns,
        "{ctx}: per-op self times must sum to the root's inclusive time"
    );
}

/// Runs `check` on every random pipeline from a random start (stream 1).
fn for_each_pipeline(mut check: impl FnMut(&PropertyGraph, &Traversal, &str)) {
    cases(1, CASES, |r, case| {
        let g = random_graph(r);
        let t = random_traversal(r, &g);
        check(&g, &t, &format!("pipeline case {case}"));
    });
}

/// Runs `check` on each of the fixed [`forms`] over random graphs (stream 2).
fn for_each_form(mut check: impl FnMut(&PropertyGraph, &Traversal, &str)) {
    cases(2, FORM_CASES, |r, case| {
        let g = random_graph(r);
        for (fi, (_, form)) in forms(&g, r).into_iter().enumerate() {
            check(&g, &form, &format!("form {fi} case {case}"));
        }
    });
}

/// Runs `check` on every input: the random pipelines, then the forms. Every
/// configuration test draws these same inputs and checks them against the
/// same [`reference`].
fn for_each_input(mut check: impl FnMut(&PropertyGraph, &Traversal, &str)) {
    for_each_pipeline(&mut check);
    for_each_form(check);
}

fn naive_plan(g: &PropertyGraph, t: &Traversal, ctx: &str) -> plan::LogicalPlan {
    plan::plan(&g.snapshot(), t.start_spec(), t.steps())
        .unwrap_or_else(|e| panic!("{ctx}: plan failed: {e}"))
}

/// The one reference row sequence of an input: its naive plan under
/// Materialized at the default chunk size, weight column included.
fn reference(g: &PropertyGraph, t: &Traversal, ctx: &str) -> Vec<String> {
    let naive = naive_plan(g, t, ctx);
    let rows = exec::execute(&g.snapshot(), &naive, ExecutionStrategy::Materialized);
    row_sequence(&rows.unwrap())
}

/// `t` configured for `strategy`, with four partitions under Parallel.
fn under(t: &Traversal, strategy: ExecutionStrategy) -> Traversal {
    t.clone().strategy(strategy).parallel_threads(4)
}

#[test]
fn optimized_plans_produce_exactly_the_naive_rows() {
    let mut rewrites = 0usize;
    let mut promoted = 0usize;
    let check = |g: &PropertyGraph, t: &Traversal, ctx: &str| {
        let naive = naive_plan(g, t, ctx);
        let optimized = plan::optimize(&g.snapshot(), &naive);
        let reference = reference(g, t, ctx);
        for strategy in STRATEGIES {
            for (name, p) in [("naive", &naive), ("optimized", &optimized)] {
                let rows = exec::execute(&g.snapshot(), p, strategy).unwrap();
                assert_eq!(
                    row_sequence(&rows),
                    reference,
                    "{ctx} {strategy:?}: {name} plan\n naive: {}\n opt:   {}",
                    naive.describe(),
                    optimized.describe()
                );
            }
        }
        let global = |p: &plan::LogicalPlan| p.describe().contains("global-reachable");
        (optimized != naive, global(&optimized) && !global(&naive))
    };
    for_each_pipeline(|g, t, ctx| rewrites += usize::from(check(g, t, ctx).0));
    // the check is vacuous if the optimizer never fires
    assert!(
        rewrites >= CASES / 4,
        "optimizer rewrote only {rewrites}/{CASES} random pipelines"
    );
    for_each_form(|g, t, ctx| promoted += usize::from(check(g, t, ctx).1));
    // and R8's multi-source search is checked only if it fires
    assert!(
        promoted >= FORM_CASES,
        "R8 made only {promoted} automata global-reachable"
    );
}

/// Which chunk-size test checks an input, by the first stage kind it has of
/// weighted search, repeat or limit, and `match`; plain step chains last.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Stages {
    Weighted,
    RepeatOrLimit,
    Match,
    Chain,
}

fn stages(t: &Traversal) -> Stages {
    let has = |f: fn(&Step) -> bool| t.steps().iter().any(f);
    if has(|s| matches!(s, Step::Weighted { .. })) {
        Stages::Weighted
    } else if has(|s| matches!(s, Step::Repeat { .. } | Step::Limit(_))) {
        Stages::RepeatOrLimit
    } else if has(|s| matches!(s, Step::Match { .. })) {
        Stages::Match
    } else {
        Stages::Chain
    }
}

/// Checks `execute()` at the default chunk size and at chunks 1 (every stage
/// suspends at every row boundary) and 3 (frontiers split mid-layer) against
/// the reference, under every strategy, for the inputs of kind `kind`. On
/// full drains the chunked runs must do the default run's work too; under a
/// limit a stage may pull up to one chunk of input ahead of the rows it
/// hands out, so expansions are not compared there.
fn check_chunk_sizes(kind: Stages) {
    let mut checked = 0;
    for_each_input(|g, t, ctx| {
        if stages(t) != kind {
            return;
        }
        checked += 1;
        let reference = reference(g, t, ctx);
        let full_drain = !t.steps().iter().any(|s| matches!(s, Step::Limit(_)));
        for strategy in STRATEGIES {
            let t = under(t, strategy);
            let plain = t.execute().unwrap();
            assert_eq!(row_sequence(&plain), reference, "{ctx} {strategy:?}");
            for chunk in [1, 3] {
                let chunked = t.clone().chunk_size(chunk).execute().unwrap();
                let ctx = format!("{ctx} {strategy:?} chunk {chunk}");
                assert_eq!(row_sequence(&chunked), reference, "{ctx}");
                if full_drain {
                    let expansions = chunked.stats().expansions;
                    assert_eq!(expansions, plain.stats().expansions, "{ctx}");
                }
            }
        }
    });
    assert!(checked >= FORM_CASES, "only {checked} {kind:?} inputs");
}

#[test]
fn step_chains_match_scalar_row_for_row_with_equal_expansions() {
    check_chunk_sizes(Stages::Chain);
}

#[test]
fn match_patterns_agree_under_walk_and_reachable_semantics() {
    check_chunk_sizes(Stages::Match);
}

#[test]
fn weighted_search_agrees_including_emitted_costs() {
    check_chunk_sizes(Stages::Weighted);
}

#[test]
fn repeat_and_limit_forms_agree() {
    check_chunk_sizes(Stages::RepeatOrLimit);
}

#[test]
fn profiled_runs_return_exactly_the_unprofiled_rows() {
    let queries_before = metrics::queries_total().get();
    let latencies_before = metrics::query_latency().count();
    let mut executions = 0;
    for_each_input(|g, t, ctx| {
        let reference = reference(g, t, ctx);
        for strategy in STRATEGIES {
            let ctx = format!("{ctx} {strategy:?}");
            let t = under(t, strategy);
            let plain = t.execute().unwrap();
            // profiling is observation, not perturbation
            let profiled = t.profile().unwrap();
            assert_eq!(row_sequence(&profiled.result), reference, "{ctx}");
            assert_eq!(plain.stats(), profiled.result.stats(), "{ctx}");
            check_trace(&profiled.trace, &profiled.result, &ctx);
            executions += 2;
        }
    });
    // the process-wide registry saw every terminal execution (other tests in
    // this binary may add more concurrently)
    let queries = metrics::queries_total().get() - queries_before;
    let latencies = metrics::query_latency().count() - latencies_before;
    assert!(
        queries >= executions,
        "{queries} queries counted of {executions}"
    );
    assert!(
        latencies >= executions,
        "{latencies} latencies observed of {executions}"
    );
}

#[test]
fn cursor_rows_equal_materialized_rows_under_walk_semantics() {
    for_each_input(|g, t, ctx| {
        let reference = reference(g, t, ctx);
        let t = under(t, ExecutionStrategy::Streaming);
        assert_eq!(next_row_drain(t.clone()).0, reference, "{ctx}: next_row");
        let iterated: Vec<String> = t
            .cursor()
            .unwrap()
            .map(|row| row_signature(&row.unwrap()))
            .collect();
        assert_eq!(iterated, reference, "{ctx}: Iterator");
    });
}

#[test]
fn limit_k_is_the_prefix_of_the_unlimited_run_under_every_strategy() {
    cases(3, FORM_CASES, |r, case| {
        let g = random_graph(r);
        for (fi, (_, base)) in forms(&g, r).into_iter().enumerate() {
            let reference = row_sequence(&base.clone().execute().unwrap());
            for k in [0usize, 1, 3, 7] {
                for strategy in STRATEGIES {
                    let t = base.clone().limit(k).strategy(strategy);
                    let got = row_sequence(&t.execute().unwrap());
                    let want = &reference[..k.min(reference.len())];
                    assert_eq!(got, want, "case {case} form {fi} limit({k}) {strategy:?}");
                    if strategy == ExecutionStrategy::Streaming {
                        // one stage protocol: one-row chunks are next_row
                        let one = t.clone().chunk_size(1).execute().unwrap();
                        let (drained, expansions) = next_row_drain(t);
                        let ctx = format!("case {case} form {fi} limit({k})");
                        assert_eq!(row_sequence(&one), drained, "{ctx} rows");
                        assert_eq!(one.stats().expansions, expansions, "{ctx} expansions");
                    }
                }
            }
        }
    });
}

#[test]
fn terminals_agree_with_execute() {
    cases(4, FORM_CASES, |r, case| {
        let g = random_graph(r);
        for (fi, (counted, base)) in forms(&g, r).into_iter().enumerate() {
            let mut materialized = None;
            for strategy in STRATEGIES {
                let t = base.clone().strategy(strategy).parallel_threads(2);
                let ctx = format!("case {case} form {fi} {strategy:?}");
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
fn match_concat_equals_step_at_a_time_traversal() {
    cases(5, CASES, |r, case| {
        let g = random_graph(r);
        let (l1, l2) = (label(r), label(r));
        let pattern = format!("{l1}·{l2}");
        for strategy in STRATEGIES {
            let ctx = format!("case {case} pattern {pattern} {strategy:?}");
            let run = |t: Traversal| t.strategy(strategy).execute();
            let out_match = run(Traversal::over(&g).match_(&pattern)).unwrap();
            let out_steps = run(Traversal::over(&g).out([l1]).out([l2])).unwrap();
            assert_eq!(row_multiset(&out_match), row_multiset(&out_steps), "{ctx}");
        }
    });
}

#[test]
fn in_direction_patterns_agree_with_in_step_chains() {
    cases(11, CASES, |r, case| {
        let g = random_graph(r);
        let (l1, l2) = (label(r), label(r));
        let pattern = format!("{l1}·{l2}");
        for strategy in STRATEGIES {
            let ctx = format!("case {case} pattern {pattern} {strategy:?}");
            let run = |t: Traversal| t.strategy(strategy).execute();
            let in_match = run(Traversal::over(&g).match_in_(&pattern)).unwrap();
            let in_steps = run(Traversal::over(&g).in_([l1]).in_([l2])).unwrap();
            assert_eq!(row_multiset(&in_match), row_multiset(&in_steps), "{ctx} in");
            // match_dir is the generic spelling; Both is rejected at plan time
            let via_dir = run(Traversal::over(&g).match_dir(Direction::In, &pattern)).unwrap();
            assert_eq!(row_sequence(&via_dir), row_sequence(&in_match), "{ctx}");
            let both = run(Traversal::over(&g).match_dir(Direction::Both, &pattern));
            assert!(matches!(both, Err(EngineError::Unsupported(_))), "{ctx}");
        }
    });
}

#[test]
fn bounded_match_plus_equals_repeat_and_unrolled_union() {
    const K: usize = 3;
    cases(6, CASES, |r, case| {
        let g = random_graph(r);
        let l = label(r);
        let pattern = format!("{l}+");
        // the unrolled reference: out-chains of length 1..=K, unioned
        let mut unrolled: Vec<String> = Vec::new();
        for hops in 1..=K {
            let mut t = Traversal::over(&g);
            for _ in 0..hops {
                t = t.out([l]);
            }
            unrolled.extend(row_sequence(&t.execute().unwrap()));
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
            let ctx = format!("case {case} {pattern} under {strategy:?}");
            assert_eq!(row_multiset(&via_match), unrolled, "{ctx}: match≡unroll");
            assert_eq!(row_multiset(&via_repeat), unrolled, "{ctx}: repeat≡unroll");
        }
    });
}

#[test]
fn optimizer_is_idempotent_on_random_pipelines() {
    cases(7, CASES, |r, case| {
        let g = random_graph(r);
        let pipeline = random_pipeline(r, g.vertex_count());
        let snapshot = g.snapshot();
        let naive = plan::plan(&snapshot, &StartSpec::AllVertices, pipeline.steps()).unwrap();
        let once = plan::optimize(&snapshot, &naive);
        let twice = plan::optimize(&snapshot, &once);
        assert_eq!(once, twice, "case {case}: optimize is not idempotent");
    });
}

/// Runs the naive and the optimized plan of `t` under every strategy and
/// asserts equal row sequences; returns the optimized plan, whether the
/// optimizer rewrote the naive one, and the fewest rows any run returned.
fn assert_rewrite_keeps_the_naive_rows(
    g: &PropertyGraph,
    t: &Traversal,
    ctx: &str,
) -> (plan::LogicalPlan, bool, usize) {
    let snapshot = g.snapshot();
    let naive = plan::plan(&snapshot, t.start_spec(), t.steps()).unwrap();
    let optimized = plan::optimize(&snapshot, &naive);
    let mut fewest = usize::MAX;
    for strategy in STRATEGIES {
        let naive_rows = exec::execute(&snapshot, &naive, strategy).unwrap();
        let opt_rows = exec::execute(&snapshot, &optimized, strategy).unwrap();
        assert_eq!(
            row_sequence(&naive_rows),
            row_sequence(&opt_rows),
            "{ctx} {strategy:?}"
        );
        fewest = fewest.min(naive_rows.len());
    }
    let rewritten = optimized != naive;
    (optimized, rewritten, fewest)
}

#[test]
fn reachability_upgrade_preserves_the_dedup_output_exactly() {
    // R8: automaton + dedup(head) rewrites to reachability semantics — per
    // row for the bounded cyclic patterns, one multi-source search for the
    // acyclic `a·a·a?` within its bound. The rewritten plan must produce the
    // naive (walk-semantics) rows verbatim — paths included, because dedup
    // keeps the first walk per head and the reachable sequence keeps exactly
    // the first walk per (head, state).
    let mut upgraded = 0usize;
    cases(8, FORM_CASES, |r, case| {
        let g = random_graph(r);
        for (pi, base) in [
            Traversal::over(&g).match_within("a+", 5).dedup(),
            Traversal::over(&g)
                .out_any()
                .match_within("a·a·a?", 4)
                .has("age", Predicate::Gt(15.0))
                .dedup(),
            Traversal::over(&g)
                .match_within("(a|b)+", 4)
                .dedup()
                .out(["a"]),
        ]
        .iter()
        .enumerate()
        {
            let ctx = format!("case {case} pipeline {pi}");
            let (optimized, ..) = assert_rewrite_keeps_the_naive_rows(&g, base, &ctx);
            if format!("{optimized:?}").contains("Reachable") {
                upgraded += 1;
            }
        }
    });
    // the property is vacuous if the upgrade never fires
    assert!(upgraded >= FORM_CASES, "R8 fired only {upgraded} times");
}

#[test]
fn global_reachability_shares_one_seen_set_across_sources() {
    // For a pattern with a single accepting DFA state, sharing the seen-set
    // across input rows is observationally identical to per-row reachability
    // followed by a head dedup — same rows, same paths, same order, same
    // source attribution (each head belongs to the first source that reaches
    // it) — while expanding each (vertex, state) pair once for the whole op
    // instead of once per source.
    cases(9, FORM_CASES, |r, case| {
        let g = random_graph(r);
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
fn bounded_cyclic_reachability_stays_per_row_under_a_dedup() {
    // On the path v0 → v1 → v2 → v3 → v4, `a+` within 3 hops reaches v1–v3
    // from v0 and v2–v4 from v1. A seen-set shared across the two rows
    // would give (v2, ·) and (v3, ·) to v0, which has no budget left past
    // v3, so v1 would never expand them and v4 would be lost.
    let g = PropertyGraph::new();
    for i in 0..4 {
        g.add_edge(&format!("v{i}"), "a", &format!("v{}", i + 1));
    }
    let from = || Traversal::over(&g).v(["v0", "v1"]);
    let t = from().match_within("a+", 3).dedup();
    let plan = t.explain().unwrap().after().describe();
    assert!(plan.contains(", reachable"), "{plan}");
    assert!(!plan.contains("global-reachable"), "{plan}");
    let (_, rewritten, _) = assert_rewrite_keeps_the_naive_rows(&g, &t, "path");
    assert!(rewritten);
    let heads = t.execute().unwrap().head_names_sorted();
    assert_eq!(heads, ["v1", "v2", "v3", "v4"]);
    let shared = from().match_reachable_global_within("a+", 3).dedup();
    assert_eq!(
        shared.execute().unwrap().head_names_sorted(),
        ["v1", "v2", "v3"]
    );
}

#[test]
fn a_deduplicated_chain_on_k_n_expands_each_pair_once() {
    // On K_n, `a·a` from every vertex walks n(n−1) edges to depth 1 and
    // n(n−1)² to depth 2. As one multi-source search, v0 expands its n−1
    // edges and each of its n−1 neighbours' n−1; v1 expands its n−1 and
    // (v0, ·), the one depth-1 pair v0 left new; every later row only its
    // own n−1: 2n(n−1) in all.
    let n = 9u64;
    let g = PropertyGraph::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            g.add_edge(&format!("v{i}"), "a", &format!("v{j}"));
        }
    }
    let t = Traversal::over(&g).match_("a·a").dedup();
    let (optimized, ..) = assert_rewrite_keeps_the_naive_rows(&g, &t, "K_n");
    assert!(optimized.describe().contains("global-reachable"));
    let naive = naive_plan(&g, &t, "K_n");
    for strategy in STRATEGIES {
        let run = |p: &plan::LogicalPlan| exec::execute(&g.snapshot(), p, strategy).unwrap();
        let (naive, optimized) = (run(&naive), run(&optimized));
        assert_eq!(optimized.len() as u64, n, "{strategy:?}");
        let ctx = format!("{strategy:?}");
        assert_eq!(
            naive.stats().expansions,
            n * (n - 1) + n * (n - 1).pow(2),
            "{ctx}"
        );
        assert_eq!(optimized.stats().expansions, 2 * n * (n - 1), "{ctx}");
    }
}

#[test]
fn limit_pushdown_annotates_the_automaton() {
    let g = random_graph(&mut rng_stream(0x0E9_0A1E, 7));
    let report = Traversal::over(&g)
        .match_within("a+", 4)
        .limit(2)
        .explain()
        .unwrap();
    assert!(report.rewritten());
    let plan = report.after().describe();
    assert!(plan.contains("emit≤2"), "plan: {plan}");
    // and the reachability upgrade is visible in explain() too
    let report = Traversal::over(&g)
        .match_within("a+", 4)
        .dedup()
        .explain()
        .unwrap();
    let plan = report.after().describe();
    assert!(plan.contains("reachable"), "plan: {plan}");
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
    let t = Traversal::over(&g)
        .v(["s"])
        .out(["a", "b"])
        .out(["a", "b"])
        .limit(2);
    assert_rewrite_keeps_the_naive_rows(&g, &t, "multi-label");
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
    let persons = Traversal::over(&g).start_at(StartSpec::Where(
        "kind".into(),
        Predicate::Eq(Value::from("person")),
    ));
    let workloads = [
        (
            "filter_fusion",
            persons
                .clone()
                .is(people.clone())
                .has("age", Predicate::Gt(30.0))
                .out(["knows"])
                .is(people)
                .out(["uses"]),
        ),
        (
            "expand_merge",
            persons
                .clone()
                .out(["knows"])
                .out(["knows"])
                .out(["created"]),
        ),
        (
            "dedup_limit",
            persons
                .out(["knows"])
                .out(["uses"])
                .dedup()
                .has("lang", Predicate::Exists)
                .dedup()
                .limit(500)
                .limit(100),
        ),
    ];
    for (name, t) in workloads {
        let (_, rewritten, fewest) = assert_rewrite_keeps_the_naive_rows(&g, &t, name);
        assert!(rewritten, "{name} was not rewritten");
        assert!(fewest > 0, "{name}: the workload is vacuous");
    }
}

#[test]
fn trace_nodes_mirror_the_plan_report() {
    cases(10, FORM_CASES, |r, case| {
        let g = random_graph(r);
        let t = random_traversal(r, &g);
        for strategy in STRATEGIES {
            let t = t.clone().strategy(strategy).parallel_threads(4);
            let ctx = format!("case {case} strategy {strategy:?}");
            let report = t.explain().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let profiled = t.profile().unwrap_or_else(|e| panic!("{ctx}: {e}"));
            let nodes = profiled.trace.nodes_source_first();
            let estimates = report.estimates();
            assert_eq!(
                nodes.len(),
                estimates.len(),
                "{ctx}: one trace node per plan-report op"
            );
            for (node, est) in nodes.iter().zip(estimates) {
                assert_eq!(node.op, est.op, "{ctx}: trace op order diverged");
                assert_eq!(
                    node.estimated_rows, est.rows,
                    "{ctx}: estimate not carried into the trace"
                );
            }
            assert_eq!(profiled.trace.strategy, strategy, "{ctx}");
        }
    });
}

#[test]
fn the_headline_trace_reads_sensibly() {
    // A deterministic smoke over the classic graph: the trace's describe()
    // renders one line per op and the numbers agree with the result.
    let g = mrpa::engine::classic_social_graph();
    let t = Traversal::over(&g).match_("knows+·created").dedup();
    let profiled = t.profile().unwrap();
    assert!(!profiled.result.rows().is_empty());
    check_trace(&profiled.trace, &profiled.result, "classic");
    let text = profiled.trace.describe();
    assert!(text.contains("strategy:"), "{text}");
    assert!(text.lines().count() >= 2 + profiled.trace.nodes_source_first().len());
}
