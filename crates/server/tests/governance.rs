//! Resource governance under load: bounded admission with typed shedding
//! and exact shed accounting, deadlines and row caps, per-query memory
//! budgets, panic containment, connection caps, socket fault injection, and
//! graceful drain.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use mrpa_datagen::{ingest_multigraph, preferential_attachment, BaConfig};
use mrpa_engine::metrics::escape_label;
use mrpa_engine::{classic_social_graph, PropertyGraph};
use mrpa_server::json::Value;
use mrpa_server::{serve, Client, RetryPolicy, RetryingClient, ServerConfig, SocketFailPoint};

/// A graph dense enough that `DENSE_QUERY` takes real time and real memory.
/// A plain `COUNT` of that walk set is a cheap vector × CSR product, so the
/// statement is `PROFILE`d: a profiled count traces the row plan and
/// enumerates every walk.
fn dense_graph() -> PropertyGraph {
    let source = preferential_attachment(BaConfig {
        vertices: 1200,
        edges_per_vertex: 4,
        labels: 3,
        seed: 17,
    });
    let graph = PropertyGraph::new();
    ingest_multigraph(&graph, &source).expect("ingest");
    graph
}

const DENSE_QUERY: &str =
    r#"{"op":"query","query":"PROFILE FROM * MATCH -[(l0|l1|l2){1,3}]-> COUNT"}"#;
const CHEAP_QUERY: &str = r#"{"op":"query","query":"FROM v0 OUT l0 COUNT"}"#;

/// The governance counters and gauges are process-wide, so every test in
/// this binary holds this lock: a test reading them sees only its own
/// server's moves.
static REGISTRY: Mutex<()> = Mutex::new(());

fn registry() -> MutexGuard<'static, ()> {
    REGISTRY.lock().unwrap_or_else(|e| e.into_inner())
}

fn error_kind(reply: &Value) -> Option<&str> {
    reply.get("error")?.get("kind").and_then(Value::as_str)
}

/// The payload of a successful response, minus the volatile envelope.
fn payload_of(reply: &Value) -> String {
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{}",
        reply.render()
    );
    ["rows", "count", "exists", "row"]
        .iter()
        .filter_map(|k| reply.get(k).map(Value::render))
        .collect::<Vec<_>>()
        .join("|")
}

/// A named metric's value from the `metrics` op.
fn metric(client: &mut Client, name: &str) -> f64 {
    let reply = client.request(r#"{"op":"metrics"}"#).unwrap();
    reply
        .get("metrics")
        .and_then(Value::as_array)
        .and_then(|ms| {
            ms.iter()
                .find(|m| m.get("name").and_then(Value::as_str) == Some(name))
        })
        .and_then(|m| m.get("value"))
        .and_then(Value::as_f64)
        .unwrap_or_else(|| panic!("no numeric metric {name}"))
}

/// Strict line-by-line check of the Prometheus text exposition: every line
/// is a `# HELP`/`# TYPE` comment or a sample whose metric name obeys the
/// charset, whose labels are quoted and escaped (`\\`, `\"` and `\n` only,
/// no raw newline), whose value is numeric, and whose family was declared
/// by an earlier `# TYPE`. Returns the declared types.
fn validate_prometheus(text: &str) -> BTreeMap<String, String> {
    fn name_ok(s: &str) -> bool {
        let mut chars = s.chars();
        matches!(chars.next(), Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':')
            && chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
    }
    fn labels_ok(mut rest: &str) -> Result<(), String> {
        loop {
            let eq = rest.find('=').ok_or("label without '='")?;
            if !name_ok(&rest[..eq]) {
                return Err(format!("bad label name {:?}", &rest[..eq]));
            }
            rest = rest[eq + 1..]
                .strip_prefix('"')
                .ok_or("label value not quoted")?;
            let mut chars = rest.char_indices();
            let end = loop {
                match chars.next().ok_or("unterminated label value")? {
                    (_, '\\') => match chars.next().ok_or("dangling backslash")?.1 {
                        '\\' | '"' | 'n' => {}
                        e => return Err(format!("invalid escape \\{e}")),
                    },
                    (i, '"') => break i,
                    (_, '\n') => return Err("raw newline in label value".into()),
                    _ => {}
                }
            };
            rest = &rest[end + 1..];
            if rest.is_empty() {
                return Ok(());
            }
            rest = rest
                .strip_prefix(',')
                .ok_or("expected ',' between labels")?;
        }
    }
    let mut types = BTreeMap::new();
    for line in text.lines().filter(|l| !l.is_empty()) {
        if let Some(comment) = line.strip_prefix("# ") {
            let mut parts = comment.splitn(3, ' ');
            let (keyword, name) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            assert!(name_ok(name), "bad metric name in {line:?}");
            match keyword {
                "HELP" => {}
                "TYPE" => {
                    let kind = parts.next().unwrap_or("");
                    assert!(
                        matches!(kind, "counter" | "gauge" | "histogram"),
                        "unknown TYPE in {line:?}"
                    );
                    types.insert(name.to_owned(), kind.to_owned());
                }
                _ => panic!("unknown comment keyword in {line:?}"),
            }
            continue;
        }
        let (series, value) = line
            .rsplit_once(' ')
            .unwrap_or_else(|| panic!("sample without value: {line:?}"));
        assert!(
            value.parse::<f64>().is_ok() || matches!(value, "+Inf" | "-Inf" | "NaN"),
            "non-numeric sample value in {line:?}"
        );
        let name = match series.find('{') {
            Some(brace) => {
                let body = series
                    .strip_suffix('}')
                    .unwrap_or_else(|| panic!("unterminated labels in {line:?}"));
                labels_ok(&body[brace + 1..]).unwrap_or_else(|e| panic!("{e} in {line:?}"));
                &series[..brace]
            }
            None => series,
        };
        assert!(name_ok(name), "bad sample name in {line:?}");
        let family = name
            .trim_end_matches("_bucket")
            .trim_end_matches("_sum")
            .trim_end_matches("_count");
        assert!(
            types.contains_key(name) || types.contains_key(family),
            "sample {name:?} has no preceding # TYPE"
        );
    }
    types
}

/// The server's `store_full.live_snapshots`: snapshots pinned by running
/// queries.
fn live_snapshots(client: &mut Client) -> u64 {
    let reply = client.request(r#"{"op":"stats"}"#).unwrap();
    reply
        .get("store_full")
        .and_then(|s| s.get("live_snapshots"))
        .and_then(Value::as_u64)
        .unwrap_or_else(|| panic!("no store_full.live_snapshots: {reply:?}"))
}

#[test]
fn saturation_sheds_typed_overloaded_and_control_plane_stays_responsive() {
    let _registry = registry();
    let server = serve(
        dense_graph(),
        ServerConfig {
            worker_threads: 1,
            queue_capacity: 1,
            // the retry hint is the queued work, at most half the
            // deadline: a refused retrier sleeps at most 1 s, not 15 s
            queue_deadline: Duration::from_secs(2),
            memory_budget: Some(256 << 20),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let mut control = Client::connect(addr).unwrap();
    // the unloaded answer every accepted query must reproduce
    let reference = Arc::new(payload_of(&control.request(DENSE_QUERY).unwrap()));
    let shed_before = metric(&mut control, "mrpa_server_shed_queue_full_total")
        + metric(&mut control, "mrpa_server_shed_deadline_total");
    let panics_before = metric(&mut control, "mrpa_server_handler_panics_total");
    let kills_before = metric(&mut control, "mrpa_server_budget_kills_total");

    let ok = Arc::new(AtomicU64::new(0));
    let shed = Arc::new(AtomicU64::new(0));
    let clients: Vec<_> = (0..6)
        .map(|_| {
            let (ok, shed) = (Arc::clone(&ok), Arc::clone(&shed));
            let reference = Arc::clone(&reference);
            std::thread::spawn(move || {
                let mut client = Client::connect(addr).unwrap();
                for _ in 0..3 {
                    let reply = client.request(DENSE_QUERY).unwrap();
                    if reply.get("ok").and_then(Value::as_bool) == Some(true) {
                        assert_eq!(payload_of(&reply), *reference, "accepted query diverged");
                        ok.fetch_add(1, Ordering::Relaxed);
                    } else {
                        assert_eq!(error_kind(&reply), Some("overloaded"), "{reply:?}");
                        let hint = reply
                            .get("error")
                            .and_then(|e| e.get("retry_after_ms"))
                            .and_then(Value::as_u64)
                            .expect("overloaded carries retry_after_ms");
                        assert!(hint > 0);
                        assert!(hint <= 1_000, "hint {hint} ms over half the deadline");
                        shed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        })
        .collect();

    // a cooperating client retries its cheap query through the storm with
    // capped backoff; a chain may exhaust its attempts mid-storm (an Err)
    let storm = Arc::new(AtomicBool::new(true));
    let retrier = {
        let storm = Arc::clone(&storm);
        std::thread::spawn(move || {
            let policy = RetryPolicy {
                max_attempts: 12,
                base: Duration::from_millis(5),
                cap: Duration::from_millis(100),
                seed: 7,
            };
            let mut client = RetryingClient::new(addr, policy).unwrap();
            while storm.load(Ordering::Relaxed) {
                if let Ok(reply) = client.request(CHEAP_QUERY) {
                    payload_of(&reply);
                }
                std::thread::sleep(Duration::from_millis(10));
            }
            // once the storm has passed, persistence pays off
            payload_of(&client.request(CHEAP_QUERY).unwrap());
            client.stats()
        })
    };

    // control plane bypasses the admission queue: pings answer promptly
    // while the single worker is saturated
    let mut worst = Duration::ZERO;
    for _ in 0..10 {
        let started = Instant::now();
        let reply = control.request(r#"{"op":"ping"}"#).unwrap();
        worst = worst.max(started.elapsed());
        assert_eq!(reply.get("pong").and_then(Value::as_bool), Some(true));
        std::thread::sleep(Duration::from_millis(5));
    }
    assert!(
        worst < Duration::from_secs(2),
        "control plane stalled {worst:?}"
    );

    for c in clients {
        c.join().unwrap();
    }
    storm.store(false, Ordering::Relaxed);
    let retried = retrier.join().unwrap().overloaded_retries;
    // 6 clients × 3 requests against 1 worker + 1 queue slot must shed some
    // and finish others
    let shed = shed.load(Ordering::Relaxed);
    assert!(ok.load(Ordering::Relaxed) > 0, "no query ever ran");
    assert!(shed > 0, "nothing was shed");

    // the registry accounts for the storm exactly: one shed per refusal a
    // client saw, no panics, no budget kills under a generous budget, and
    // nothing left in flight
    let shed_after = metric(&mut control, "mrpa_server_shed_queue_full_total")
        + metric(&mut control, "mrpa_server_shed_deadline_total");
    assert_eq!(
        shed_after - shed_before,
        (shed + retried) as f64,
        "sheds ≠ refusals seen"
    );
    assert_eq!(
        metric(&mut control, "mrpa_server_handler_panics_total"),
        panics_before
    );
    assert_eq!(
        metric(&mut control, "mrpa_server_budget_kills_total"),
        kills_before
    );
    assert_eq!(metric(&mut control, "mrpa_server_queries_inflight"), 0.0);
    assert_eq!(metric(&mut control, "mrpa_server_bytes_inflight"), 0.0);

    // the same registry in Prometheus form passes a strict line parse
    let reply = control
        .request(r#"{"op":"metrics","format":"prometheus"}"#)
        .unwrap();
    let text = reply.get("metrics_text").and_then(Value::as_str).unwrap();
    let types = validate_prometheus(text);
    for (name, kind) in [
        ("mrpa_queries_total", "counter"),
        ("mrpa_query_latency_us", "histogram"),
        ("mrpa_server_shed_queue_full_total", "counter"),
        ("mrpa_server_queries_inflight", "gauge"),
    ] {
        assert_eq!(types.get(name).map(String::as_str), Some(kind), "{name}");
    }
    assert!(text.contains("mrpa_query_latency_us_bucket{le=\"+Inf\"}"));
    // whatever escape_label emits survives the parser
    validate_prometheus(&format!(
        "# TYPE probe counter\nprobe{{path=\"{}\"}} 1\n",
        escape_label("C:\\tmp\\\"quoted\"\nnext line")
    ));
    server.shutdown();
}

#[test]
fn queue_deadline_sheds_stale_jobs_instead_of_running_them() {
    let _registry = registry();
    let server = serve(
        dense_graph(),
        ServerConfig {
            worker_threads: 1,
            queue_capacity: 8,
            queue_deadline: Duration::from_millis(1),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();

    // occupy the single worker with a heavy query, and wait until it is
    // running: the worker has pinned its snapshot (the inline `stats` op
    // answers while the worker is busy). On a loaded machine the heavy job
    // can itself wait out the 1ms deadline and be shed, or finish between
    // two polls; then it is sent again.
    let mut client = Client::connect(addr).unwrap();
    let mut attempts = 0;
    let heavy = loop {
        attempts += 1;
        assert!(attempts <= 20, "the heavy query never ran");
        let heavy = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(DENSE_QUERY).unwrap()
        });
        while live_snapshots(&mut client) == 0 && !heavy.is_finished() {}
        if !heavy.is_finished() {
            break heavy;
        }
        heavy.join().unwrap();
    };
    // ...so this one queues past the 1ms deadline and is shed unexecuted
    let reply = client.request(CHEAP_QUERY).unwrap();
    assert_eq!(error_kind(&reply), Some("overloaded"), "{reply:?}");

    let first = heavy.join().unwrap();
    assert_eq!(
        first.get("ok").and_then(Value::as_bool),
        Some(true),
        "{first:?}"
    );
    server.shutdown();
}

#[test]
fn memory_budget_kills_with_typed_error_and_session_survives() {
    let _registry = registry();
    let server = serve(
        dense_graph(),
        ServerConfig {
            worker_threads: 2,
            memory_budget: Some(64 * 1024),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    let reply = client.request(DENSE_QUERY).unwrap();
    assert_eq!(error_kind(&reply), Some("memory_budget"), "{reply:?}");
    let error = reply.get("error").unwrap();
    let limit = error.get("limit_bytes").and_then(Value::as_u64).unwrap();
    let charged = error.get("charged_bytes").and_then(Value::as_u64).unwrap();
    assert_eq!(limit, 32 * 1024, "half the global budget per worker slot");
    assert!(charged > limit);

    // the same connection (and the worker that died the budget death) keep
    // serving: a small query fits the share
    let reply = client.request(CHEAP_QUERY).unwrap();
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );

    // a request may tighten its own budget below the share
    let reply = client
        .request(r#"{"op":"query","query":"PROFILE FROM * MATCH -[(l0|l1|l2){1,3}]-> COUNT","memory_budget":1024}"#)
        .unwrap();
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("limit_bytes"))
            .and_then(Value::as_u64),
        Some(1024),
        "{reply:?}"
    );

    // but never loosen it: a 1 TiB request keeps the server's share
    let reply = client
        .request(r#"{"op":"query","query":"PROFILE FROM * MATCH -[(l0|l1|l2){1,3}]-> COUNT","memory_budget":1099511627776}"#)
        .unwrap();
    assert_eq!(error_kind(&reply), Some("memory_budget"), "{reply:?}");
    assert_eq!(
        reply
            .get("error")
            .and_then(|e| e.get("limit_bytes"))
            .and_then(Value::as_u64),
        Some(32 * 1024),
        "{reply:?}"
    );
    server.shutdown();
}

#[test]
fn deadline_and_row_cap_fail_typed_and_the_session_survives() {
    let _registry = registry();
    let server = serve(dense_graph(), ServerConfig::default(), "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();
    // an all-sources walk enumeration cannot finish in 1 ms: it is
    // cancelled mid-frontier with the timeout kind
    let reply = client
        .query("FROM * MATCH -[(l0|l1|l2)*]->", Some(1))
        .unwrap();
    assert_eq!(error_kind(&reply), Some("timeout"), "{reply:?}");
    let reply = client.query("FROM v0 OUT * LIMIT 1", None).unwrap();
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "session poisoned after cancellation: {reply:?}"
    );
    // the row cap was removed: a request that still sends one is refused,
    // not run unbounded
    let reply = client
        .request(r#"{"op":"query","query":"FROM * OUT *","max_intermediate":2}"#)
        .unwrap();
    assert_eq!(error_kind(&reply), Some("protocol"), "{reply:?}");
    let message = reply.get("error").and_then(|e| e.get("message"));
    let message = message.and_then(Value::as_str).unwrap_or_default();
    assert!(message.contains("memory_budget"), "{reply:?}");
    server.shutdown();
}

#[test]
fn handler_panics_become_typed_internal_errors_on_both_paths() {
    let _registry = registry();
    let config = ServerConfig::default();
    let faults = config.faults.clone();
    let server = serve(classic_social_graph(), config, "127.0.0.1:0").unwrap();
    let mut client = Client::connect(server.local_addr()).unwrap();

    // connection-thread path: a control-plane op panics mid-dispatch
    faults.arm(SocketFailPoint::HandlerPanic, 0);
    let reply = client.request(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(error_kind(&reply), Some("internal"), "{reply:?}");
    // the connection survived the panic
    let reply = client.request(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(reply.get("pong").and_then(Value::as_bool), Some(true));

    // worker path: a query panics inside the pool
    faults.arm(SocketFailPoint::HandlerPanic, 0);
    let reply = client
        .request(r#"{"op":"query","query":"FROM marko OUT knows COUNT"}"#)
        .unwrap();
    assert_eq!(error_kind(&reply), Some("internal"), "{reply:?}");
    // the worker survived too
    let reply = client
        .request(r#"{"op":"query","query":"FROM marko OUT knows COUNT"}"#)
        .unwrap();
    assert_eq!(
        reply.get("count").and_then(Value::as_u64),
        Some(2),
        "{reply:?}"
    );
    server.shutdown();
}

#[test]
fn writer_slot_is_released_when_the_holder_disconnects() {
    let _registry = registry();
    let server = serve(
        classic_social_graph(),
        ServerConfig::default(),
        "127.0.0.1:0",
    )
    .unwrap();
    let mut holder = Client::connect(server.local_addr()).unwrap();
    assert_eq!(
        holder
            .request(r#"{"op":"claim_writer"}"#)
            .unwrap()
            .get("ok")
            .and_then(Value::as_bool),
        Some(true)
    );
    drop(holder);

    // the guard frees the slot when the holder's thread winds down; poll
    // briefly since teardown is asynchronous
    let mut successor = Client::connect(server.local_addr()).unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let reply = successor.request(r#"{"op":"claim_writer"}"#).unwrap();
        if reply.get("ok").and_then(Value::as_bool) == Some(true) {
            break;
        }
        assert!(Instant::now() < deadline, "writer slot never released");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn connection_cap_rejects_with_typed_overloaded_line() {
    let _registry = registry();
    let server = serve(
        classic_social_graph(),
        ServerConfig {
            max_connections: 1,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let mut first = Client::connect(server.local_addr()).unwrap();
    // a round trip guarantees the accept loop has registered the connection
    first.request(r#"{"op":"ping"}"#).unwrap();

    // over the cap, the server writes one rejection line unprompted and
    // closes — read it raw (sending first could race the close into an RST)
    let mut second = std::net::TcpStream::connect(server.local_addr()).unwrap();
    let mut raw = String::new();
    use std::io::Read as _;
    second.read_to_string(&mut raw).unwrap();
    let reply = mrpa_server::json::parse(raw.trim()).unwrap();
    assert_eq!(error_kind(&reply), Some("overloaded"), "{reply:?}");
    assert!(reply
        .get("error")
        .and_then(|e| e.get("retry_after_ms"))
        .is_some());

    // freeing the slot admits a new connection (teardown is asynchronous)
    drop(first);
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let pong = Client::connect(server.local_addr())
            .ok()
            .and_then(|mut third| third.request(r#"{"op":"ping"}"#).ok())
            .and_then(|r| r.get("pong").and_then(Value::as_bool));
        if pong == Some(true) {
            break;
        }
        assert!(Instant::now() < deadline, "cap never released");
        std::thread::sleep(Duration::from_millis(20));
    }
    server.shutdown();
}

#[test]
fn socket_faults_are_survivable_with_a_retrying_client() {
    let _registry = registry();
    let config = ServerConfig::default();
    let faults = config.faults.clone();
    let server = serve(classic_social_graph(), config, "127.0.0.1:0").unwrap();
    let mut client = RetryingClient::new(
        server.local_addr(),
        RetryPolicy {
            base: Duration::from_millis(2),
            seed: 7,
            ..RetryPolicy::default()
        },
    )
    .unwrap();

    // mid-response disconnect: the request is acknowledged-but-unanswered;
    // the client reconnects and retries
    client.request(r#"{"op":"ping"}"#).unwrap();
    faults.arm(SocketFailPoint::Disconnect, 0);
    let reply = client.request(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(reply.get("pong").and_then(Value::as_bool), Some(true));

    // torn write: half a response line, then EOF
    faults.arm(SocketFailPoint::TornWrite, 0);
    let reply = client
        .request(r#"{"op":"query","query":"FROM marko OUT knows COUNT"}"#)
        .unwrap();
    assert_eq!(
        reply.get("count").and_then(Value::as_u64),
        Some(2),
        "{reply:?}"
    );

    // stalled read: slow but successful, no retry needed
    faults.arm(SocketFailPoint::StalledRead, 0);
    let reply = client.request(r#"{"op":"ping"}"#).unwrap();
    assert_eq!(reply.get("pong").and_then(Value::as_bool), Some(true));

    let stats = client.stats();
    assert!(stats.io_retries >= 2, "{stats:?}");
    assert!(stats.connects >= 3, "{stats:?}");
    assert_eq!(stats.delivered, 4, "{stats:?}");
    server.shutdown();
}

#[test]
fn graceful_drain_finishes_inflight_queries_and_refuses_new_ones() {
    let _registry = registry();
    let server = serve(
        dense_graph(),
        ServerConfig {
            worker_threads: 1,
            queue_capacity: 4,
            queue_deadline: Duration::from_secs(30),
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .unwrap();
    let addr = server.local_addr();
    let mut probe = Client::connect(addr).unwrap();
    let reference = payload_of(&probe.request(DENSE_QUERY).unwrap());

    // a heavy query in flight when the drain begins: wait until the worker
    // has pinned its snapshot, and send it again if it finished between two
    // polls
    let mut attempts = 0;
    let inflight = loop {
        attempts += 1;
        assert!(attempts <= 20, "the heavy query never ran");
        let inflight = std::thread::spawn(move || {
            let mut client = Client::connect(addr).unwrap();
            client.request(DENSE_QUERY).unwrap()
        });
        while live_snapshots(&mut probe) == 0 && !inflight.is_finished() {}
        if !inflight.is_finished() {
            break inflight;
        }
        assert_eq!(payload_of(&inflight.join().unwrap()), reference);
    };

    let drainer = std::thread::spawn(move || server.shutdown());
    std::thread::sleep(Duration::from_millis(30));

    // a query sent mid-drain is refused (typed) or the socket is already
    // gone (drain finished first) — never silently dropped, never hung
    // (an Err from the request means the drain finished first: fine too)
    if let Ok(mut late) = Client::connect(addr) {
        if let Ok(reply) = late.request(CHEAP_QUERY) {
            if reply.get("ok").and_then(Value::as_bool) == Some(false) {
                assert_eq!(error_kind(&reply), Some("overloaded"), "{reply:?}");
            }
        }
    }

    // the in-flight query ran to completion despite the drain, with the
    // unloaded answer
    let reply = inflight.join().unwrap();
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{reply:?}"
    );
    assert_eq!(payload_of(&reply), reference, "drained query diverged");
    drainer.join().unwrap();
}
