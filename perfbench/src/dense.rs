//! `dense_fit`: heavy read-only traversals over an in-memory 2.2k-vertex /
//! 24k-edge social graph that fits in the last-level cache, under all three
//! execution strategies. The executor, the path arena and the cursor do
//! nearly all the work; planning is a few percent of it.

use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeSet;
use std::hash::{Hash, Hasher};
use std::time::Instant;

use mrpa_engine::{
    plan, EngineError, ExecutionStrategy, Predicate, PropertyGraph, ResultRow, Traversal, Value,
};

use crate::lifecycle::Durability;
use crate::oracle::{support, Oracle};
use crate::stats::{median, p90, ratio, Windows};
use crate::trace::Profiles;
use crate::{setup, Bench, SETUP_REPS};

const PEOPLE: usize = 2_000;
/// Seeded person starts of (d) and (e): all persons would make each of
/// them 0.4–3 s, beyond the 80–150 ms of the other statements.
const WITHIN_STARTS: usize = 500;
const REACH_STARTS: usize = 100;
/// Repetitions per round of (f) through a cursor under the default
/// strategy, the statements `first_row_ms_p50` is taken over. Under the
/// other strategies the first row takes 0.1–0.5 ms, mostly thread start-up
/// and per-call overhead, and their median moved by 40% between runs; the
/// default strategy expands every `knows` edge first (~1.5 ms of work).
const FIRST_ROW_REPS: usize = 20;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Stmt {
    /// (a) all persons → out knows · out knows · out created, drained.
    Chain,
    /// (b) the same chain through `count()`.
    ChainCount,
    /// (c) `match_("knows·knows·created").dedup()`.
    MatchDedup,
    /// (d) `match_within("knows+·created", 3)` from seeded persons.
    MatchWithin,
    /// (e) `match_reachable("knows*·created").dedup()` from seeded persons.
    Reachable,
    /// (f) `FROM * OUT knows LIMIT 1` through a cursor's first row.
    LimitCursor,
    /// (f) the same through `first()`.
    First,
}

const STATEMENTS: [Stmt; 7] = [
    Stmt::Chain,
    Stmt::ChainCount,
    Stmt::MatchDedup,
    Stmt::MatchWithin,
    Stmt::Reachable,
    Stmt::LimitCursor,
    Stmt::First,
];

const STRATEGIES: [(&str, ExecutionStrategy); 3] = [
    ("materialized", ExecutionStrategy::Materialized),
    ("streaming", ExecutionStrategy::Streaming),
    ("parallel", ExecutionStrategy::Parallel),
];

fn traversal(
    g: &PropertyGraph,
    exp: &Expected,
    stmt: Stmt,
    strategy: ExecutionStrategy,
) -> Traversal {
    let mut t = Traversal::over(g).strategy(strategy);
    if strategy == ExecutionStrategy::Parallel {
        t = t.parallel_threads(2);
    }
    let persons = |t: Traversal| t.v_where("kind", Predicate::Eq(Value::from("person")));
    match stmt {
        Stmt::Chain | Stmt::ChainCount => persons(t).out(["knows"]).out(["knows"]).out(["created"]),
        Stmt::MatchDedup => persons(t).match_("knows·knows·created").dedup(),
        Stmt::MatchWithin => t.v(&exp.within_starts).match_within("knows+·created", 3),
        Stmt::Reachable => t
            .v(&exp.reach_starts)
            .match_reachable("knows*·created")
            .dedup(),
        Stmt::LimitCursor => t.out(["knows"]).limit(1),
        Stmt::First => t.out(["knows"]),
    }
}

/// Oracle answers for the statement list.
struct Expected {
    /// Per-head walk counts of the chain, `x · A_knows · A_knows · A_created`.
    chain: Vec<u64>,
    chain_rows: u64,
    /// Expansions of the chain: the walks after each of its three joins.
    chain_expansions: u64,
    chain_heads: BTreeSet<u32>,
    within_starts: Vec<String>,
    /// Per-head walk counts of `knows·created | knows·knows·created`.
    within: Vec<u64>,
    reach_starts: Vec<String>,
    /// Heads of `knows*·created`: what persons `knows`-reachable from the
    /// starts (the starts included) created.
    reachable: BTreeSet<u32>,
    knows_edges: u64,
}

impl Expected {
    fn new(bench: &mut Bench, o: &Oracle) -> Self {
        let sum = |x: &[u64]| x.iter().sum::<u64>();
        let x0 = o.unit(&o.persons);
        let x1 = o.step(&x0, &o.knows_out);
        let x2 = o.step(&x1, &o.knows_out);
        let chain = o.step(&x2, &o.created_out);

        let within_ids = sample(bench, o, WITHIN_STARTS);
        let w1 = o.step(&o.unit(&within_ids), &o.knows_out);
        let w2 = o.step(&w1, &o.knows_out);
        let within = o
            .step(&w1, &o.created_out)
            .iter()
            .zip(&o.step(&w2, &o.created_out))
            .map(|(a, b)| a + b)
            .collect();

        let reach_ids = sample(bench, o, REACH_STARTS);
        let mut seen = vec![false; o.len()];
        let mut stack = reach_ids.clone();
        while let Some(v) = stack.pop() {
            if !std::mem::replace(&mut seen[v as usize], true) {
                stack.extend(&o.knows_out[v as usize]);
            }
        }
        let reached: Vec<u64> = seen.iter().map(|&s| u64::from(s)).collect();
        let names = |ids: &[u32]| ids.iter().map(|&i| o.names[i as usize].clone()).collect();
        Expected {
            chain_rows: sum(&chain),
            chain_expansions: sum(&x1) + sum(&x2) + sum(&chain),
            chain_heads: support(&chain),
            within_starts: names(&within_ids),
            within,
            reach_starts: names(&reach_ids),
            reachable: support(&o.step(&reached, &o.created_out)),
            knows_edges: sum(&x1),
            chain,
        }
    }
}

/// `n` distinct persons drawn with the run's seed.
fn sample(bench: &mut Bench, o: &Oracle, n: usize) -> Vec<u32> {
    let mut picked = BTreeSet::new();
    while picked.len() < n.min(o.persons.len()) {
        picked.insert(o.persons[bench.draw(o.persons.len())]);
    }
    picked.into_iter().collect()
}

/// What one statement returned.
enum Answer {
    Rows(Vec<ResultRow>),
    Count(usize),
    Row(Option<ResultRow>),
}

fn run_statement(
    g: &PropertyGraph,
    exp: &Expected,
    stmt: Stmt,
    strategy: ExecutionStrategy,
) -> Result<Answer, EngineError> {
    let t = traversal(g, exp, stmt, strategy);
    Ok(match stmt {
        Stmt::ChainCount => Answer::Count(t.count()?),
        Stmt::LimitCursor => Answer::Row(t.cursor()?.next_row()?),
        Stmt::First => Answer::Row(t.first()?),
        _ => Answer::Rows(t.execute()?.rows().to_vec()),
    })
}

fn row_hash(r: &ResultRow) -> u64 {
    let mut h = DefaultHasher::new();
    (r.source, r.head, r.path.edges()).hash(&mut h);
    h.finish()
}

/// An order-independent fingerprint of a row multiset.
fn fingerprint(rows: &[ResultRow]) -> u64 {
    let mut hashes: Vec<u64> = rows.iter().map(row_hash).collect();
    hashes.sort_unstable();
    let mut h = DefaultHasher::new();
    hashes.hash(&mut h);
    h.finish()
}

fn check_answer(
    bench: &mut Bench,
    o: &Oracle,
    ids: &[u32],
    exp: &Expected,
    stmt: Stmt,
    answer: &Answer,
) {
    let head_counts = |rows: &[ResultRow]| {
        let mut counts = vec![0u64; o.len()];
        for r in rows {
            if let Some(&i) = ids.get(r.head.0 as usize) {
                if (i as usize) < counts.len() {
                    counts[i as usize] += 1;
                }
            }
        }
        counts
    };
    let ok = match (stmt, answer) {
        (Stmt::Chain, Answer::Rows(rows)) => head_counts(rows) == exp.chain,
        (Stmt::ChainCount, Answer::Count(n)) => *n as u64 == exp.chain_rows,
        (Stmt::MatchWithin, Answer::Rows(rows)) => head_counts(rows) == exp.within,
        (Stmt::MatchDedup | Stmt::Reachable, Answer::Rows(rows)) => {
            let want = if stmt == Stmt::MatchDedup {
                &exp.chain_heads
            } else {
                &exp.reachable
            };
            let heads: BTreeSet<u32> = rows.iter().map(|r| ids[r.head.0 as usize]).collect();
            heads.len() == rows.len() && &heads == want
        }
        (Stmt::LimitCursor | Stmt::First, Answer::Row(Some(r))) => {
            let (t, h) = (ids[r.source.0 as usize], ids[r.head.0 as usize]);
            r.path.len() == 1 && o.knows_out[t as usize].contains(&h)
        }
        _ => false,
    };
    bench.check(ok, || {
        format!("dense_fit {stmt:?}: answer differs from the oracle")
    });
}

/// The workload's set-up: the graph, its oracle answers and a warm-up of
/// every statement under the default strategy.
fn set_up(bench: &mut Bench) -> (PropertyGraph, Oracle, Expected, Vec<u32>) {
    let (g, o, (exp, ids)) = setup(bench, PEOPLE, |bench, g, o| {
        let exp = Expected::new(bench, o);
        let ids = o.translation(&g.snapshot());
        for stmt in STATEMENTS {
            let answer = run_statement(g, &exp, stmt, ExecutionStrategy::Materialized);
            match answer {
                Ok(a) => check_answer(bench, o, &ids, &exp, stmt, &a),
                Err(e) => bench.check(false, || format!("{stmt:?}: {e}")),
            }
        }
        (exp, ids)
    });
    (g, o, exp, ids)
}

pub fn run(bench: &mut Bench) -> Result<(), String> {
    let (g, o, exp, ids) = set_up(bench);
    let mut durability = Durability::default();
    let mut latencies = Vec::new();
    let mut first_row_ms = Vec::new();
    // one window per round of every statement under every strategy
    let mut windows = Windows::new(0.0);
    let mut layers = Layers::default();
    let started = Instant::now();
    let mut round = 0;
    while bench.keep_going(started, &windows, latencies.len()) {
        for stmt in STATEMENTS {
            let mut prints = Vec::new();
            for (name, strategy) in STRATEGIES {
                bench.host.tick();
                let t0 = Instant::now();
                let answer = run_statement(&g, &exp, stmt, strategy);
                let t1 = Instant::now();
                let request = bench.tracer.span(0, "statement", None, t0, t1);
                let elapsed = t1.duration_since(t0).as_secs_f64();
                let reference = bench.host.at_reference(elapsed);
                latencies.push(reference * 1e3);
                let answer = match answer {
                    Ok(a) => a,
                    Err(e) => {
                        bench.check(false, || format!("{stmt:?} under {name}: {e}"));
                        continue;
                    }
                };
                match &answer {
                    Answer::Rows(r) => {
                        windows.rows(reference, r.len() as u64);
                        if round == 0 {
                            prints.push(fingerprint(r));
                        }
                    }
                    Answer::Count(n) => windows.count(reference, *n as u64),
                    Answer::Row(r) => windows.rows(reference, u64::from(r.is_some())),
                }
                check_answer(bench, &o, &ids, &exp, stmt, &answer);
                if bench.traced() {
                    layers
                        .trace_statement(bench, &g, &exp, stmt, name, strategy, elapsed, request)?;
                }
            }
            if !prints.is_empty() {
                let same = prints.windows(2).all(|w| w[0] == w[1]);
                bench.check(same, || {
                    format!("{stmt:?}: rows differ between execution strategies")
                });
            }
        }
        // first_row_ms_p50: (f) through a cursor under the default
        // strategy, repeated; see FIRST_ROW_REPS
        for _ in 0..FIRST_ROW_REPS {
            let t = traversal(&g, &exp, Stmt::LimitCursor, ExecutionStrategy::Materialized);
            bench.host.tick();
            let t0 = Instant::now();
            let row = t.cursor().and_then(|mut c| c.next_row());
            first_row_ms.push(bench.host.at_reference(t0.elapsed().as_secs_f64()) * 1e3);
            match row {
                Ok(r) => check_answer(bench, &o, &ids, &exp, Stmt::LimitCursor, &Answer::Row(r)),
                Err(e) => bench.check(false, || format!("first row: {e}")),
            }
        }
        round += 1;
        windows.end_cycle();
        // the durable phases and the repeated set-ups, spread over the run
        durability.cycle(bench, &o)?;
        if round < SETUP_REPS {
            set_up(bench);
        }
    }
    eprintln!("dense_fit: {round} rounds, {} statements", latencies.len());
    report_reads(bench, &windows, &latencies, &first_row_ms);
    durability.report(bench);
    if bench.traced() {
        layers.finish(bench, &g, &exp);
    }
    Ok(())
}

/// Reports the timed loop's end-to-end metrics.
pub fn report_reads(bench: &mut Bench, windows: &Windows, latencies: &[f64], first_row: &[f64]) {
    bench.e2e("queries_per_s", windows.queries_per_s());
    bench.e2e("query_ms_p50", median(latencies));
    bench.e2e("query_ms_p90", p90(latencies));
    bench.e2e("rows_per_s", windows.rows_per_s());
    bench.e2e("count_rows_per_s", windows.count_rows_per_s());
    bench.e2e("first_row_ms_p50", median(first_row));
}

/// Per-layer measurements of the traced run, taken beside each statement.
#[derive(Default)]
struct Layers {
    plan_s: f64,
    profiles: Profiles,
}

impl Layers {
    /// Re-runs one statement through each layer's public entry point: the
    /// snapshot, `plan::plan` and `plan::optimize`, the cursor's open and
    /// first pull, a full drain, and `Traversal::profile`.
    #[allow(clippy::too_many_arguments)]
    fn trace_statement(
        &mut self,
        bench: &mut Bench,
        g: &PropertyGraph,
        exp: &Expected,
        stmt: Stmt,
        strategy_name: &str,
        strategy: ExecutionStrategy,
        plain_s: f64,
        request: u64,
    ) -> Result<(), String> {
        let e = |e: EngineError| e.to_string();
        let t = traversal(g, exp, stmt, strategy);
        let t0 = Instant::now();
        let snap = g.snapshot();
        let t1 = Instant::now();
        let naive = plan::plan(&snap, t.start_spec(), t.steps()).map_err(e)?;
        let t2 = Instant::now();
        let optimized = plan::optimize(&snap, &naive);
        let t3 = Instant::now();
        bench
            .tracer
            .span(request, "store.snapshot", Some(request), t0, t1);
        bench
            .tracer
            .span(request, "plan.plan", Some(request), t1, t2);
        bench
            .tracer
            .span(request, "plan.optimize", Some(request), t2, t3);
        bench.layer_push("plan.ops_after", optimized.ops().len() as f64);
        self.plan_s += t3.duration_since(t1).as_secs_f64();

        let t0 = Instant::now();
        let mut cursor = t.cursor().map_err(e)?;
        let t1 = Instant::now();
        let first = cursor.next_row().map_err(e)?;
        let t2 = Instant::now();
        bench
            .tracer
            .span(request, "exec.cursor_open", Some(request), t0, t1);
        bench
            .tracer
            .span(request, "exec.first_pull", Some(request), t1, t2);
        if stmt == Stmt::LimitCursor && strategy == ExecutionStrategy::Materialized {
            bench.layer(
                "exec.first_row_expansions",
                cursor.stats().expansions as f64,
            );
        }
        if stmt == Stmt::Chain {
            let mut rows = Vec::new();
            while cursor.next_chunk(&mut rows).map_err(e)? {}
            let t3 = Instant::now();
            let n = rows.len() as f64 + f64::from(u8::from(first.is_some()));
            let metric = match strategy_name {
                "materialized" => "exec.rows_per_s.materialized",
                "streaming" => "exec.rows_per_s.streaming",
                _ => "exec.rows_per_s.parallel",
            };
            bench.layer_push(metric, n / t3.duration_since(t0).as_secs_f64());
            let stats = cursor.stats();
            if strategy == ExecutionStrategy::Materialized {
                bench.layer("exec.expansions_per_row", stats.expansions as f64 / n);
            }
            if strategy == ExecutionStrategy::Parallel {
                bench.layer("exec.interned_nodes", stats.interned_nodes as f64);
            }
        }
        drop(cursor);

        let t0 = Instant::now();
        let profiled = t.profile().map_err(e)?;
        let t1 = Instant::now();
        bench
            .tracer
            .span(request, "trace.profile", Some(request), t0, t1);
        let profiled_s = t1.duration_since(t0).as_secs_f64();
        self.profiles.add(&profiled, plain_s, profiled_s);
        Ok(())
    }

    fn finish(&self, bench: &mut Bench, g: &PropertyGraph, exp: &Expected) {
        self.profiles.report(bench);
        bench.layer("plan.share", ratio(self.plan_s, self.profiles.plain_s));
        bench.layer_span_p50("plan.plan_ms_p50", "plan.plan", 1.0);
        bench.layer_span_p50("plan.optimize_ms_p50", "plan.optimize", 1.0);
        bench.layer_span_p50("store.snapshot_us_p50", "store.snapshot", 1e3);
        bench.layer_span_p50("exec.cursor_open_ms_p50", "exec.cursor_open", 1.0);
        bench.layer_span_p50("exec.first_pull_ms_p50", "exec.first_pull", 1.0);
        let s = g.stats();
        bench.layer("store.deep_clones", s.deep_clones as f64);
        bench.layer("store.reversed_builds", s.reversed_builds as f64);
        bench.layer("store.csr_builds", s.csr_builds as f64);
        bench.layer("store.csr_bytes", s.csr_bytes as f64);
        // read-only: at most one build per direction
        bench.check(s.csr_builds <= 2 && s.deep_clones == 0, || {
            format!("read-only graph rebuilt its caches: {s:?}")
        });
        self.check_counters(bench, exp);
    }

    /// The exact-counter findings: chain expansions and rows, and the
    /// expansions `FROM * OUT knows LIMIT 1` performs before its first row.
    fn check_counters(&self, bench: &mut Bench, exp: &Expected) {
        let per_row = exp.chain_expansions as f64 / exp.chain_rows as f64;
        let measured = bench.layer.get("exec.expansions_per_row").copied();
        bench.check(measured == Some(per_row), || {
            format!("chain expansions per row {measured:?}, oracle {per_row}")
        });
        let first = bench.layer.get("exec.first_row_expansions").copied();
        bench.check(first == Some(exp.knows_edges as f64), || {
            format!("first-row expansions {first:?}, oracle {}", exp.knows_edges)
        });
        if bench.args.seed == 11 {
            let findings = (exp.chain_expansions, exp.chain_rows, exp.knows_edges);
            bench.check(findings == (397_842, 254_324, 15_972), || {
                format!("seed-11 findings changed: {findings:?}")
            });
        }
    }
}
