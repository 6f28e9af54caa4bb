//! `point_server`: point statements against the MRPA-QL server over one
//! loopback connection, on the 11k-vertex / 120k-edge graph (15× the L2).
//!
//! Each automaton statement does a few dozen expansions of real work but
//! pays O(|E|) to compile its automaton, and the default 10 ms slow-query
//! log re-plans it through `explain()`. Planning and the server dominate
//! here; the executor does almost nothing.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use mrpa_engine::metrics::{query_latency, registry, MetricValue};
use mrpa_engine::{plan, PropertyGraph};
use mrpa_query::Terminal;
use mrpa_server::json::{self, Value};
use mrpa_server::{serve, Client, ServerConfig};

use crate::dense::report_reads;
use crate::lifecycle::Durability;
use crate::oracle::{support, Oracle};
use crate::stats::{ratio, Windows};
use crate::trace::Profiles;
use crate::{generate, setup, Bench, SETUP_REPS};

const PEOPLE: usize = 10_000;
/// Cycles of statements in one throughput window.
const WINDOW_CYCLES: usize = 2;
/// Cycles of statements between two lives of a separate durable store.
const DURABLE_EVERY: usize = 2;
/// Persons of the graph the separate durable stores hold: the same size as
/// the other workloads' stores. The served 120k-edge store's own load,
/// checkpoint and reopening take 0.1–0.3 s each and happen once, at boot;
/// as end-to-end metrics they moved by 20–35% between runs, partly with
/// the disk rather than the host's processor, so they are traced only.
const DURABLE_PEOPLE: usize = 2_000;
const SLOWLOG_MS: f64 = 10.0;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Family {
    OutKnows,
    InKnows,
    OutKnowsAgeLimit,
    OutKnowsOutCreated,
    MatchDedup,
    BallCount,
    Cheapest,
    First,
}

/// One cycle of the closed loop; starts are drawn per statement. The three
/// cost classes are cheap (the first three, ~0.2 ms), `FIRST` (~15 ms)
/// and planning-bound (~50–90 ms: the nine automaton statements and, on
/// the current code, `OUT knows OUT created`, whose planning also pays
/// O(|E|)), so the cheap class spans percentiles 0–20, `FIRST` 20–33 and
/// the planning-bound class 33–100: p50 and p90 sit inside it and do not
/// flip between runs. Planning-bound work moves with the host as the
/// reference kernel does (see `host.rs`); as a p50 the memory-bound
/// `FIRST` class moved by 20–30% between runs. A fixed cycle also keeps
/// the mix of every throughput window the same.
const CYCLE: [Family; 15] = [
    Family::OutKnows,
    Family::InKnows,
    Family::OutKnowsAgeLimit,
    Family::OutKnowsOutCreated,
    Family::First,
    Family::MatchDedup,
    Family::BallCount,
    Family::Cheapest,
    Family::First,
    Family::MatchDedup,
    Family::BallCount,
    Family::Cheapest,
    Family::MatchDedup,
    Family::BallCount,
    Family::Cheapest,
];
/// Cycles drawn per run; the loop repeats them if it outlasts them.
const CYCLES: usize = 40;

fn text(family: Family, start: &str) -> String {
    match family {
        Family::OutKnows => format!("FROM {start} OUT knows"),
        Family::InKnows => format!("FROM {start} IN knows"),
        Family::OutKnowsAgeLimit => format!("FROM {start} OUT knows WHERE age > 40 LIMIT 5"),
        Family::OutKnowsOutCreated => format!("FROM {start} OUT knows OUT created"),
        Family::MatchDedup => format!("FROM {start} MATCH -[knows·created]-> DEDUP"),
        Family::BallCount => format!("FROM {start} MATCH -[knows+]-> WITHIN 3 DEDUP COUNT"),
        Family::Cheapest => format!(
            "FROM {start} MATCH -[knows+·created]-> WITHIN 3 \
             CHEAPEST BY LABELS(knows = 1.0, created = 2.0) TOP 3"
        ),
        Family::First => "FROM * OUT knows LIMIT 1 FIRST".to_owned(),
    }
}

fn is_automaton(family: Family) -> bool {
    matches!(
        family,
        Family::MatchDedup | Family::BallCount | Family::Cheapest
    )
}

/// The oracle's answer to one statement.
enum Expect {
    /// The multiset of heads, sorted.
    Heads(Vec<String>),
    /// Up to `n` distinct heads, all from `allowed`.
    Limited(BTreeSet<String>, usize),
    /// Exactly these heads, each once.
    HeadSet(BTreeSet<String>),
    Count(u64),
    /// The cheapest cost of every reachable head.
    Cheapest(BTreeMap<String, f64>, usize),
    /// Any `knows` edge.
    KnowsEdge,
}

struct Statement {
    family: Family,
    text: String,
    expect: Expect,
}

fn expect(o: &Oracle, family: Family, start: u32) -> Expect {
    let names = |ids: &mut dyn Iterator<Item = u32>| -> Vec<String> {
        let mut v: Vec<String> = ids.map(|i| o.names[i as usize].clone()).collect();
        v.sort();
        v
    };
    let x = o.unit(&[start]);
    let s = start as usize;
    match family {
        Family::OutKnows => Expect::Heads(names(&mut o.knows_out[s].iter().copied())),
        Family::InKnows => Expect::Heads(names(&mut o.knows_in[s].iter().copied())),
        Family::OutKnowsAgeLimit => {
            let old: BTreeSet<String> = o.knows_out[s]
                .iter()
                .filter(|&&v| o.age[v as usize].is_some_and(|a| a > 40))
                .map(|&v| o.names[v as usize].clone())
                .collect();
            let n = old.len().min(5);
            Expect::Limited(old, n)
        }
        Family::OutKnowsOutCreated => {
            let y = o.step(&o.step(&x, &o.knows_out), &o.created_out);
            let mut heads = Vec::new();
            for (v, &c) in y.iter().enumerate() {
                heads.extend(std::iter::repeat_n(o.names[v].clone(), c as usize));
            }
            heads.sort();
            Expect::Heads(heads)
        }
        Family::MatchDedup => {
            let y = o.step(&o.step(&x, &o.knows_out), &o.created_out);
            Expect::HeadSet(names(&mut support(&y).into_iter()).into_iter().collect())
        }
        Family::BallCount => Expect::Count(o.knows_ball(start, 3).len() as u64),
        Family::Cheapest => {
            let best: BTreeMap<String, f64> = o
                .cheapest_knows_created(start, 3)
                .into_iter()
                .map(|(h, c)| (o.names[h as usize].clone(), c))
                .collect();
            let n = best.len().min(3);
            Expect::Cheapest(best, n)
        }
        Family::First => Expect::KnowsEdge,
    }
}

fn str_field<'a>(v: &'a Value, key: &str) -> &'a str {
    v.get(key).and_then(Value::as_str).unwrap_or("")
}

/// Checks a reply against the oracle; returns the rows it delivered.
fn check_reply(o: &Oracle, expect: &Expect, reply: &Value) -> (bool, u64) {
    if reply.get("ok").and_then(Value::as_bool) != Some(true) {
        return (false, 0);
    }
    let rows = reply.get("rows").and_then(Value::as_array).unwrap_or(&[]);
    let mut heads: Vec<String> = rows
        .iter()
        .map(|r| str_field(r, "head").to_owned())
        .collect();
    heads.sort();
    let n = rows.len() as u64;
    match expect {
        Expect::Heads(want) => (&heads == want, n),
        Expect::Limited(allowed, k) => {
            let distinct: BTreeSet<&String> = heads.iter().collect();
            let ok = heads.len() == *k
                && distinct.len() == *k
                && heads.iter().all(|h| allowed.contains(h));
            (ok, n)
        }
        Expect::HeadSet(want) => {
            let got: BTreeSet<String> = heads.iter().cloned().collect();
            (got.len() == heads.len() && &got == want, n)
        }
        Expect::Count(want) => {
            let got = reply.get("count").and_then(Value::as_u64);
            (got == Some(*want), got.unwrap_or(0))
        }
        Expect::Cheapest(best, k) => {
            let mut costs: Vec<f64> = best.values().copied().collect();
            costs.sort_by(f64::total_cmp);
            let mut got = Vec::new();
            let mut ok = rows.len() == *k;
            for r in rows {
                let w = r.get("weight").and_then(Value::as_f64).unwrap_or(f64::NAN);
                ok &= best.get(str_field(r, "head")) == Some(&w);
                got.push(w);
            }
            got.sort_by(f64::total_cmp);
            (ok && got == costs[..*k], n)
        }
        Expect::KnowsEdge => {
            let row = reply.get("row").unwrap_or(&Value::Null);
            let (t, h) = (o.id(str_field(row, "source")), o.id(str_field(row, "head")));
            let ok = matches!((t, h), (Some(t), Some(h)) if o.knows_out[t as usize].contains(&h));
            (ok, 1)
        }
    }
}

fn statements(bench: &mut Bench, o: &Oracle) -> Vec<Statement> {
    (0..CYCLES)
        .flat_map(|_| CYCLE)
        .map(|family| {
            let start = o.persons[bench.draw(o.persons.len())];
            Statement {
                family,
                text: text(family, &o.names[start as usize]),
                expect: expect(o, family, start),
            }
        })
        .collect()
}

/// The workload's set-up: the graph, its oracle and the statement list
/// with the oracle's answers.
fn set_up(bench: &mut Bench) -> (Oracle, Vec<Statement>) {
    let (g, o, list) = setup(bench, PEOPLE, |bench, _, o| statements(bench, o));
    drop(g);
    (o, list)
}

pub fn run(bench: &mut Bench) -> Result<(), String> {
    let (o, list) = set_up(bench);
    // the boot's durable phases are traced but are not end-to-end metrics
    let store = Durability::default().load(bench, &o)?;
    let small = Oracle::from_snapshot(&generate(DURABLE_PEOPLE, bench.args.seed).snapshot());
    let mut durability = Durability::default();
    let config = ServerConfig {
        worker_threads: 2,
        ..ServerConfig::default()
    };
    let server = serve(store.graph.clone(), config, "127.0.0.1:0").map_err(|e| e.to_string())?;
    let outcome = drive(bench, &o, &list, &server, &small, &mut durability);
    server.shutdown();
    outcome?;
    durability.remove(bench, store)
}

/// One statement of every family, timed as part of the set-up.
fn warm_up(
    bench: &mut Bench,
    client: &mut Client,
    o: &Oracle,
    list: &[Statement],
) -> Result<(), String> {
    let t0 = Instant::now();
    for st in &list[..CYCLE.len()] {
        let reply = client.query(&st.text, None).map_err(|e| e.to_string())?;
        let (ok, _) = check_reply(o, &st.expect, &reply);
        bench.check(ok, || format!("warm-up {}: {}", st.text, reply.render()));
    }
    let secs = bench.host.at_reference(t0.elapsed().as_secs_f64());
    if let Some(s) = bench.setup_s.last_mut() {
        *s += secs;
    }
    Ok(())
}

/// The closed loop: one connection, the next statement sent when the
/// previous reply has arrived. Between cycles, and never during a
/// statement, a separate store lives through its durable phases and the
/// set-up is repeated.
fn drive(
    bench: &mut Bench,
    o: &Oracle,
    list: &[Statement],
    server: &mrpa_server::RunningServer,
    small: &Oracle,
    durability: &mut Durability,
) -> Result<(), String> {
    let mut client = Client::connect(server.local_addr()).map_err(|e| e.to_string())?;
    warm_up(bench, &mut client, o, list)?;

    let mut latencies = Vec::new();
    let mut first_ms = Vec::new();
    let mut windows = Windows::new(0.0);
    let mut layers = ServerLayers::default();
    let started = Instant::now();
    let mut i = 0;
    while bench.keep_going(started, &windows, latencies.len()) {
        let st = &list[i % list.len()];
        i += 1;
        bench.host.tick();
        let engine_before = (query_latency().count(), query_latency().sum_us());
        let t0 = Instant::now();
        let reply = client.query(&st.text, None).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        let request = bench.tracer.span(i as u64, "request", None, t0, t1);
        let elapsed = t1.duration_since(t0).as_secs_f64();
        let reference = bench.host.at_reference(elapsed);
        latencies.push(reference * 1e3);
        let (ok, n) = check_reply(o, &st.expect, &reply);
        bench.check(ok, || format!("{}: {}", st.text, reply.render()));
        match st.family {
            Family::BallCount => windows.count(reference, n),
            _ => windows.rows(reference, n),
        }
        if st.family == Family::First {
            first_ms.push(reference * 1e3);
        }
        if bench.traced() {
            layers.trace(
                bench,
                server.graph(),
                st,
                &reply,
                elapsed,
                engine_before,
                request,
            )?;
        }
        if i % (CYCLE.len() * WINDOW_CYCLES) == 0 {
            windows.end_cycle();
        }
        if i % (CYCLE.len() * DURABLE_EVERY) == 0 {
            durability.cycle(bench, small)?;
            if bench.setup_s.len() < SETUP_REPS {
                set_up(bench);
                warm_up(bench, &mut client, o, list)?;
            }
        }
    }
    eprintln!("point_server: {} statements", latencies.len());
    report_reads(bench, &windows, &latencies, &first_ms);
    durability.report(bench);
    if bench.traced() {
        layers.finish(bench, server.graph(), o);
    }
    Ok(())
}

/// Per-layer measurements of the traced run: the server's own accounting
/// of each request, and the engine layers re-timed in process on the
/// served graph with the same text.
#[derive(Default)]
struct ServerLayers {
    automaton_plan_s: f64,
    automaton_engine_s: f64,
    profiles: Profiles,
}

impl ServerLayers {
    #[allow(clippy::too_many_arguments)]
    fn trace(
        &mut self,
        bench: &mut Bench,
        g: &PropertyGraph,
        st: &Statement,
        reply: &Value,
        round_trip_s: f64,
        engine_before: (u64, u64),
        request: u64,
    ) -> Result<(), String> {
        let e = |e: mrpa_engine::EngineError| e.to_string();
        let handler_ms = reply
            .get("elapsed_us")
            .and_then(Value::as_f64)
            .unwrap_or(0.0)
            / 1e3;
        let (count, sum) = (query_latency().count(), query_latency().sum_us());
        let engine_ms = if count == engine_before.0 + 1 {
            (sum - engine_before.1) as f64 / 1e3
        } else {
            0.0
        };

        let rendered = reply.render();
        let t0 = Instant::now();
        let reparsed = json::parse(&rendered);
        let t1 = Instant::now();
        bench
            .tracer
            .span(request, "json.parse", Some(request), t0, t1);
        bench.check(reparsed.is_ok(), || "reply does not re-parse".to_owned());
        bench.layer_push("server.response_bytes", rendered.len() as f64);

        let t0 = Instant::now();
        let lowered = mrpa_query::compile(&st.text).map_err(|e| e.to_string())?;
        let t1 = Instant::now();
        bench
            .tracer
            .span(request, "query.compile", Some(request), t0, t1);
        let compile_ms = t1.duration_since(t0).as_secs_f64() * 1e3;
        let mut t = lowered.traversal(g);
        if lowered.terminal == Terminal::First {
            t = t.limit(1);
        }
        let t0 = Instant::now();
        let snap = g.snapshot();
        let t1 = Instant::now();
        let naive = plan::plan(&snap, t.start_spec(), t.steps()).map_err(e)?;
        let t2 = Instant::now();
        let optimized = plan::optimize(&snap, &naive);
        let t3 = Instant::now();
        drop(snap);
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
        let plan_ms = t3.duration_since(t1).as_secs_f64() * 1e3;

        let t0 = Instant::now();
        let mut cursor = t.cursor().map_err(e)?;
        let t1 = Instant::now();
        let first = cursor.next_row().map_err(e)?;
        let t2 = Instant::now();
        let mut n = u64::from(first.is_some());
        let mut buf = Vec::new();
        while cursor.next_chunk(&mut buf).map_err(e)? {}
        n += buf.len() as u64;
        let t3 = Instant::now();
        bench
            .tracer
            .span(request, "exec.cursor_open", Some(request), t0, t1);
        bench
            .tracer
            .span(request, "exec.first_pull", Some(request), t1, t2);
        let inprocess_s = t3.duration_since(t0).as_secs_f64();
        if st.family == Family::First {
            bench.layer(
                "exec.first_row_expansions",
                cursor.stats().expansions as f64,
            );
        }
        if n > 0 {
            bench.layer_push(
                "exec.expansions_per_row",
                cursor.stats().expansions as f64 / n as f64,
            );
        }
        drop(cursor);

        let t0 = Instant::now();
        let profiled = t.profile().map_err(e)?;
        let t1 = Instant::now();
        let profiled_s = t1.duration_since(t0).as_secs_f64();
        self.profiles.add(&profiled, inprocess_s, profiled_s);

        if is_automaton(st.family) {
            self.automaton_plan_s += plan_ms / 1e3;
            self.automaton_engine_s += inprocess_s;
        }
        let residual = handler_ms - engine_ms - compile_ms;
        bench.layer_push("server.handler_ms_p50", handler_ms);
        bench.layer_push("server.engine_ms_p50", engine_ms);
        bench.layer_push("server.residual_ms_p50", residual);
        if handler_ms >= SLOWLOG_MS {
            // the slow-query log re-plans the statement through explain()
            bench.layer_push("server.residual_slow_ms_p50", residual);
            bench.layer_push("server.unexplained_slow_ms_p50", residual - plan_ms);
        }
        bench.layer_push(
            "server.wire_us_p50",
            (round_trip_s * 1e3 - handler_ms) * 1e3,
        );
        Ok(())
    }

    fn finish(&self, bench: &mut Bench, g: &PropertyGraph, o: &Oracle) {
        self.profiles.report(bench);
        let share = ratio(self.automaton_plan_s, self.automaton_engine_s);
        bench.layer("plan.share", share);
        bench.check(share >= 0.9, || {
            format!("planning is {share:.3} of automaton statements, expected ≥ 0.9")
        });
        bench.layer_span_p50("plan.plan_ms_p50", "plan.plan", 1.0);
        bench.layer_span_p50("plan.optimize_ms_p50", "plan.optimize", 1.0);
        bench.layer_span_p50("query.compile_us_p50", "query.compile", 1e3);
        bench.layer_span_p50("json.parse_us_p50", "json.parse", 1e3);
        bench.layer_span_p50("store.snapshot_us_p50", "store.snapshot", 1e3);
        bench.layer_span_p50("exec.cursor_open_ms_p50", "exec.cursor_open", 1.0);
        bench.layer_span_p50("exec.first_pull_ms_p50", "exec.first_pull", 1.0);
        let s = g.stats();
        bench.layer("store.deep_clones", s.deep_clones as f64);
        bench.layer("store.reversed_builds", s.reversed_builds as f64);
        bench.layer("store.csr_builds", s.csr_builds as f64);
        bench.layer("store.csr_bytes", s.csr_bytes as f64);
        bench.check(s.csr_builds <= 2 && s.reversed_builds <= 1, || {
            format!("read-only server rebuilt its caches: {s:?}")
        });
        let sheds: u64 = registry()
            .snapshot()
            .iter()
            .filter(|m| m.name.starts_with("mrpa_server_shed"))
            .map(|m| match m.value {
                MetricValue::Counter(c) => c,
                _ => 0,
            })
            .sum();
        bench.layer("server.sheds", sheds as f64);
        let knows_edges: usize = o.knows_out.iter().map(Vec::len).sum();
        let first = bench.layer.get("exec.first_row_expansions").copied();
        bench.check(first == Some(knows_edges as f64), || {
            format!("first-row expansions {first:?}, oracle {knows_edges}")
        });
        if bench.args.seed == 11 {
            bench.check(knows_edges == 79_962, || {
                format!("seed-11 finding changed: {knows_edges} knows edges")
            });
        }
    }
}
