//! Overload benchmark: drive the server far past its admission capacity and
//! prove that degradation is *governed* — shed requests get typed
//! `overloaded` answers, the control plane stays fast, nothing panics, and
//! every answer the server *does* accept is byte-identical to an unloaded
//! reference, including queries drained during graceful shutdown.
//!
//! Measurements, written to `BENCH_overload.json`:
//!
//! * **saturation** — 6 synchronous clients hammer dense queries at a server
//!   with 1 worker and a 2-slot admission queue (max 3 requests held), so
//!   shedding is structurally guaranteed; every `ok` response is
//!   byte-compared to a reference frozen before load, every refusal must be
//!   the `overloaded` kind with a `retry_after_ms` hint.
//! * **control-plane latency** — a ping loop runs throughout saturation;
//!   pings bypass the admission queue, so their p99 must stay bounded (the
//!   assert allows 250 ms — orders of magnitude above the expected value,
//!   but far below the multi-second queue wait a data-plane request sees).
//! * **client cooperation** — a [`RetryingClient`] pushes cheap queries
//!   through the same overload with capped, jittered backoff; exhausted
//!   retry chains are tolerated mid-storm, but persistence must pay off
//!   the moment capacity frees.
//! * **governance registry** — after load: zero handler panics, zero budget
//!   kills (the 256 MiB budget is generous — accounting ran, nothing died),
//!   in-flight gauges back to zero, and the shed counters exactly equal the
//!   refusals clients observed.
//! * **graceful drain** — a dense query in flight when `shutdown()` is
//!   called must complete with the correct rows, not an error.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

use mrpa_bench::{fmt_f, time, Table};
use mrpa_datagen::{ingest_multigraph, preferential_attachment, BaConfig};
use mrpa_engine::PropertyGraph;
use mrpa_server::json::Value;
use mrpa_server::{serve, Client, RetryPolicy, RetryingClient, ServerConfig};

const VERTICES: usize = 2_000;
const LABELS: usize = 3;
const EDGES_PER_VERTEX: usize = 4;
const SEED: u64 = 17;
const SAT_CLIENTS: usize = 6;
const SAT_MILLIS: u64 = 1_500;
const WORKERS: usize = 1;
const QUEUE_SLOTS: usize = 2;
const MEMORY_BUDGET: u64 = 256 << 20;
const PING_P99_BOUND_MS: f64 = 250.0;

/// The saturating workload: every source, multi-label bounded walk. Each
/// execution holds the single worker for tens of milliseconds. The first is
/// `PROFILE`d because a plain `COUNT` of it is a cheap vector × CSR product;
/// a profiled count enumerates every walk.
const DENSE_QUERIES: [&str; 2] = [
    "PROFILE FROM * MATCH -[(l0|l1|l2){1,3}]-> COUNT",
    "FROM v1 MATCH -[(l0|l1)+]-> WITHIN 3 DEDUP",
];

/// The payload of a response, minus the volatile envelope.
fn payload_of(response: &Value) -> String {
    assert_eq!(
        response.get("ok").and_then(Value::as_bool),
        Some(true),
        "query failed: {}",
        response.render()
    );
    ["rows", "count", "exists", "row"]
        .iter()
        .filter_map(|k| response.get(k).map(|v| v.render()))
        .collect::<Vec<_>>()
        .join("|")
}

fn query_request(query: &str) -> String {
    format!(
        r#"{{"op":"query","query":{}}}"#,
        Value::from(query).render()
    )
}

/// Pulls a named metric's value out of the `metrics` op response.
fn metric(metrics: &[Value], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
        .unwrap_or_else(|| panic!("metric {name} not registered"))
        .get("value")
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("metric {name} has no numeric value"))
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((sorted.len() as f64 * p).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

fn main() {
    let source = preferential_attachment(BaConfig {
        vertices: VERTICES,
        edges_per_vertex: EDGES_PER_VERTEX,
        labels: LABELS,
        seed: SEED,
    });
    let graph = PropertyGraph::new();
    ingest_multigraph(&graph, &source).expect("ingest");
    let edges = graph.edge_count();

    let server = serve(
        graph,
        ServerConfig {
            worker_threads: WORKERS,
            queue_capacity: QUEUE_SLOTS,
            queue_deadline: Duration::from_millis(250),
            memory_budget: Some(MEMORY_BUDGET),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind");
    let addr = server.local_addr();

    // freeze the unloaded reference answers
    let mut probe = Client::connect(addr).expect("probe");
    let references: Vec<String> = DENSE_QUERIES
        .iter()
        .map(|q| payload_of(&probe.request(&query_request(q)).expect("freeze")))
        .collect();

    // -----------------------------------------------------------------
    // 1. saturation: 6 sync clients vs 1 worker + 2 queue slots
    // -----------------------------------------------------------------
    let done = AtomicBool::new(false);
    let ping_samples = Mutex::new(Vec::<f64>::new());
    let refs = &references;
    let done_ref = &done;
    let pings = &ping_samples;

    let (per_client, sat_ms) = time(|| {
        std::thread::scope(|s| {
            let loaders: Vec<_> = (0..SAT_CLIENTS)
                .map(|c| {
                    s.spawn(move || {
                        let mut client = Client::connect(addr).expect("loader connect");
                        let (mut ok, mut shed) = (0u64, 0u64);
                        let mut i = c; // stagger which query each client starts on
                        while !done_ref.load(Ordering::Relaxed) {
                            let q = i % DENSE_QUERIES.len();
                            let r = client
                                .request(&query_request(DENSE_QUERIES[q]))
                                .expect("loader request");
                            if r.get("ok").and_then(Value::as_bool) == Some(true) {
                                assert_eq!(
                                    payload_of(&r),
                                    refs[q],
                                    "accepted query diverged under load"
                                );
                                ok += 1;
                            } else {
                                let error = r.get("error").expect("refusal carries an error");
                                assert_eq!(
                                    error.get("kind").and_then(Value::as_str),
                                    Some("overloaded"),
                                    "unexpected refusal: {}",
                                    r.render()
                                );
                                assert!(
                                    error
                                        .get("retry_after_ms")
                                        .and_then(Value::as_u64)
                                        .is_some(),
                                    "overloaded refusal without a retry hint: {}",
                                    r.render()
                                );
                                shed += 1;
                                // a refused client yields briefly instead of
                                // hot-spinning the admission path; this also
                                // keeps shedding from starving the retrier
                                std::thread::sleep(Duration::from_millis(2));
                            }
                            i += 1;
                        }
                        (ok, shed)
                    })
                })
                .collect();
            // control plane: pings bypass the admission queue entirely
            let pinger = s.spawn(move || {
                let mut client = Client::connect(addr).expect("pinger connect");
                while !done_ref.load(Ordering::Relaxed) {
                    let (_, ms) = time(|| {
                        let r = client.request(r#"{"op":"ping"}"#).expect("ping");
                        assert_eq!(r.get("ok").and_then(Value::as_bool), Some(true));
                    });
                    pings.lock().unwrap().push(ms);
                    std::thread::sleep(Duration::from_millis(2));
                }
            });
            // client-side cooperation: retry/backoff through the same storm
            let retrier = s.spawn(move || {
                let mut client = RetryingClient::new(
                    addr,
                    RetryPolicy {
                        max_attempts: 12,
                        base: Duration::from_millis(5),
                        cap: Duration::from_millis(100),
                        seed: 7,
                    },
                )
                .expect("retrying client");
                let cheap = query_request("FROM v0 OUT l0 COUNT");
                let mut delivered = 0u64;
                while !done_ref.load(Ordering::Relaxed) {
                    // under full saturation a chain may exhaust its attempts;
                    // that is the expected Err and the loop just tries again
                    if let Ok(reply) = client.request(&cheap) {
                        assert_eq!(
                            reply.get("ok").and_then(Value::as_bool),
                            Some(true),
                            "retried cheap query failed: {}",
                            reply.render()
                        );
                        delivered += 1;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
                // the storm has passed: persistence must now pay off
                let reply = client.request(&cheap).expect("post-storm request");
                assert_eq!(
                    reply.get("ok").and_then(Value::as_bool),
                    Some(true),
                    "cheap query failed after load subsided: {}",
                    reply.render()
                );
                delivered += 1;
                (delivered, client.stats())
            });
            std::thread::sleep(Duration::from_millis(SAT_MILLIS));
            done_ref.store(true, Ordering::Relaxed);
            let per_client: Vec<(u64, u64)> = loaders
                .into_iter()
                .map(|h| h.join().expect("loader"))
                .collect();
            pinger.join().expect("pinger");
            let (delivered, retry_stats) = retrier.join().expect("retrier");
            (per_client, delivered, retry_stats)
        })
    });
    let (per_client, retry_delivered, retry_stats) = per_client;
    let ok_total: u64 = per_client.iter().map(|(ok, _)| ok).sum();
    let shed_total: u64 = per_client.iter().map(|(_, shed)| shed).sum();
    assert!(ok_total > 0, "saturation accepted nothing");
    assert!(
        shed_total > 0,
        "{SAT_CLIENTS} clients against {} held slots must shed",
        WORKERS + QUEUE_SLOTS
    );
    assert!(
        retry_delivered > 0,
        "the retrying client never got a query through"
    );

    let mut sorted = ping_samples.into_inner().unwrap();
    sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let (ping_p50, ping_p99) = (percentile(&sorted, 0.50), percentile(&sorted, 0.99));
    let ping_max = sorted.last().copied().unwrap_or(0.0);
    assert!(
        ping_p99 < PING_P99_BOUND_MS,
        "control-plane p99 {ping_p99:.1} ms under overload (bound {PING_P99_BOUND_MS} ms)"
    );

    let mut t1 = Table::new(["measure", "value"]);
    t1.row(["clients".into(), SAT_CLIENTS.to_string()]);
    t1.row(["accepted (row-correct)".into(), ok_total.to_string()]);
    t1.row(["shed (typed overloaded)".into(), shed_total.to_string()]);
    t1.row(["retrier delivered".into(), retry_delivered.to_string()]);
    t1.row([
        "retrier overloaded retries".into(),
        retry_stats.overloaded_retries.to_string(),
    ]);
    t1.row(["wall-clock ms".into(), fmt_f(sat_ms)]);
    t1.print(&format!(
        "saturation: {SAT_CLIENTS} clients vs {WORKERS} worker + {QUEUE_SLOTS} queue slots, |V|={VERTICES} |E|={edges}"
    ));

    let mut t2 = Table::new(["measure", "value"]);
    t2.row(["pings".into(), sorted.len().to_string()]);
    t2.row(["p50 ms".into(), fmt_f(ping_p50)]);
    t2.row(["p99 ms".into(), fmt_f(ping_p99)]);
    t2.row(["max ms".into(), fmt_f(ping_max)]);
    t2.print("control-plane latency during saturation (admission-queue bypass)");

    // -----------------------------------------------------------------
    // 2. governance registry after the storm
    // -----------------------------------------------------------------
    let r = probe.request(r#"{"op":"metrics"}"#).expect("metrics");
    let metrics = r
        .get("metrics")
        .and_then(Value::as_array)
        .expect("metrics array");
    let panics = metric(metrics, "mrpa_server_handler_panics_total");
    let budget_kills = metric(metrics, "mrpa_server_budget_kills_total");
    let shed_full = metric(metrics, "mrpa_server_shed_queue_full_total");
    let shed_deadline = metric(metrics, "mrpa_server_shed_deadline_total");
    let inflight = metric(metrics, "mrpa_server_queries_inflight");
    let bytes_inflight = metric(metrics, "mrpa_server_bytes_inflight");
    assert_eq!(panics, 0.0, "handlers panicked under overload");
    assert_eq!(
        budget_kills, 0.0,
        "a generous {MEMORY_BUDGET}-byte budget killed a query"
    );
    assert_eq!(inflight, 0.0, "queries still in flight after clients left");
    assert_eq!(bytes_inflight, 0.0, "budget bytes leaked after the storm");
    let refusals_observed = shed_total + retry_stats.overloaded_retries;
    assert_eq!(
        shed_full + shed_deadline,
        refusals_observed as f64,
        "registry sheds must equal the refusals clients saw"
    );

    let mut t3 = Table::new(["measure", "value"]);
    t3.row(["shed: queue full".into(), fmt_f(shed_full)]);
    t3.row(["shed: deadline".into(), fmt_f(shed_deadline)]);
    t3.row(["handler panics".into(), fmt_f(panics)]);
    t3.row(["budget kills".into(), fmt_f(budget_kills)]);
    t3.row(["queries in flight".into(), fmt_f(inflight)]);
    t3.row(["budget bytes in flight".into(), fmt_f(bytes_inflight)]);
    t3.print("governance registry after saturation");

    // -----------------------------------------------------------------
    // 3. graceful drain: an in-flight query finishes, correctly
    // -----------------------------------------------------------------
    let inflight_during_drain = std::thread::spawn(move || {
        let mut client = Client::connect(addr).expect("drain client");
        client
            .request(&query_request(DENSE_QUERIES[0]))
            .expect("in-flight query")
    });
    // let the worker pick the query up before the drain begins
    std::thread::sleep(Duration::from_millis(50));
    let (_, drain_ms) = time(|| server.shutdown());
    let drained = inflight_during_drain.join().expect("drain thread");
    assert_eq!(
        payload_of(&drained),
        references[0],
        "a query drained through shutdown returned wrong rows"
    );

    let mut t4 = Table::new(["measure", "value"]);
    t4.row(["drain ms".into(), fmt_f(drain_ms)]);
    t4.row(["in-flight query", "completed, row-correct"]);
    t4.print("graceful drain with a dense query in flight");

    let json = format!(
        "{{\n  \"experiment\": \"overload\",\n  \
         \"graph\": {{\"vertices\": {VERTICES}, \"labels\": {LABELS}, \"edges\": {edges}, \"seed\": {SEED}}},\n  \
         \"config\": {{\"workers\": {WORKERS}, \"queue_slots\": {QUEUE_SLOTS}, \
         \"queue_deadline_ms\": 250, \"memory_budget_bytes\": {MEMORY_BUDGET}}},\n  \
         \"saturation\": {{\"clients\": {SAT_CLIENTS}, \"ms\": {sat_ms:.1}, \
         \"accepted_row_correct\": {ok_total}, \"shed_overloaded\": {shed_total}}},\n  \
         \"retrying_client\": {{\"delivered\": {retry_delivered}, \
         \"overloaded_retries\": {}, \"io_retries\": {}, \"connects\": {}}},\n  \
         \"ping\": {{\"samples\": {}, \"p50_ms\": {ping_p50:.3}, \"p99_ms\": {ping_p99:.3}, \
         \"max_ms\": {ping_max:.3}, \"p99_bound_ms\": {PING_P99_BOUND_MS}}},\n  \
         \"registry\": {{\"shed_queue_full\": {shed_full:.0}, \"shed_deadline\": {shed_deadline:.0}, \
         \"handler_panics\": 0, \"budget_kills\": 0, \"bytes_inflight_after\": 0}},\n  \
         \"drain\": {{\"ms\": {drain_ms:.1}, \"inflight_query\": \"completed, row-correct\"}}\n}}\n",
        retry_stats.overloaded_retries,
        retry_stats.io_retries,
        retry_stats.connects,
        sorted.len()
    );
    let path = "BENCH_overload.json";
    std::fs::write(path, &json).expect("write BENCH_overload.json");
    println!(
        "\nwrote {path} ({ok_total} accepted row-correct, {shed_total} shed, ping p99 {ping_p99:.2} ms)"
    );
}
