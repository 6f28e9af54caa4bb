//! Plan-once regression: every server query path plans its statement exactly
//! once, and the slow-query log reports on the plan that actually ran without
//! keeping it — or its snapshot — alive past the request.
//!
//! This is its own test binary so the process-wide metrics registry it
//! counts on is not shared with any other test file; the tests below also
//! take [`REGISTRY`] so their count deltas cannot interleave.

use std::sync::Mutex;
use std::time::Duration;

use mrpa_engine::metrics::query_plan;
use mrpa_engine::{classic_social_graph, plan, ExecutionStrategy, OpEstimate};
use mrpa_query::Terminal;
use mrpa_server::json::Value;
use mrpa_server::{serve, Client, RunningServer, ServerConfig};

static REGISTRY: Mutex<()> = Mutex::new(());

/// Requests per (terminal, strategy) pair.
const N: u64 = 3;

/// Statements whose optimized plans have three or more ops, so the top-3
/// ranking is not trivially the whole plan.
const BODIES: [&str; 2] = [
    "FROM * MATCH -[knows+·created]-> WITHIN 3 DEDUP",
    "FROM marko OUT knows WHERE age > 30 OUT created",
];

const STRATEGIES: [(&str, ExecutionStrategy); 3] = [
    ("materialized", ExecutionStrategy::Materialized),
    ("streaming", ExecutionStrategy::Streaming),
    ("parallel", ExecutionStrategy::Parallel),
];

/// Every statement form the server accepts for a body: plain rows, the three
/// terminals, `PROFILE` and `EXPLAIN`.
fn forms(body: &str) -> [String; 6] {
    [
        body.to_owned(),
        format!("{body} COUNT"),
        format!("{body} EXISTS"),
        format!("{body} FIRST"),
        format!("PROFILE {body}"),
        format!("EXPLAIN {body}"),
    ]
}

fn slow_server() -> RunningServer {
    serve(
        classic_social_graph(),
        ServerConfig {
            slowlog_threshold: Some(Duration::ZERO),
            slowlog_capacity: 1024,
            ..ServerConfig::default()
        },
        "127.0.0.1:0",
    )
    .expect("bind")
}

fn query(client: &mut Client, text: &str, strategy: &str) -> Value {
    let request = Value::Object(
        [
            ("op".to_owned(), Value::from("query")),
            ("query".to_owned(), Value::from(text)),
            ("strategy".to_owned(), Value::from(strategy)),
        ]
        .into_iter()
        .collect(),
    );
    let reply = client.request(&request.render()).expect("request");
    assert_eq!(
        reply.get("ok").and_then(Value::as_bool),
        Some(true),
        "{text} under {strategy}: {}",
        reply.render()
    );
    reply
}

/// What the slow-query log must show for an unprofiled statement: the top 3
/// of `plan::estimate` over `explain().after()` on the unchanged graph, by
/// estimated rows.
fn expected_top_ops(server: &RunningServer, text: &str, strategy: ExecutionStrategy) -> Vec<Value> {
    let lowered = mrpa_query::compile(text).expect("compile");
    let mut traversal = lowered.traversal(server.graph()).strategy(strategy);
    if matches!(lowered.terminal, Terminal::First | Terminal::Exists) {
        traversal = traversal.limit(1);
    }
    let report = traversal.explain().expect("explain");
    let mut ests: Vec<OpEstimate> = plan::estimate(&server.graph().snapshot(), report.after());
    ests.sort_by(|a, b| b.rows.total_cmp(&a.rows));
    ests.iter()
        .take(3)
        .map(|e| {
            Value::Object(
                [
                    ("op".to_owned(), Value::from(e.op.as_str())),
                    ("estimated_rows".to_owned(), Value::from(e.rows)),
                ]
                .into_iter()
                .collect(),
            )
        })
        .collect()
}

#[test]
fn every_request_plans_once_and_the_slowlog_ranks_the_executed_plan() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let server = slow_server();
    let mut client = Client::connect(server.local_addr()).expect("connect");

    let mut sent = 0;
    for body in BODIES {
        for text in forms(body) {
            for (name, _) in STRATEGIES {
                let before = query_plan().count();
                for _ in 0..N {
                    let reply = query(&mut client, &text, name);
                    if text.starts_with("PROFILE") {
                        let trace = reply.get("trace").expect("PROFILE returns a trace");
                        assert!(
                            trace.get("root").and_then(|n| n.get("op")).is_some(),
                            "{text}: {}",
                            trace.render()
                        );
                        assert_eq!(
                            trace.get("strategy").and_then(Value::as_str),
                            Some(name),
                            "{text}"
                        );
                    }
                }
                let planned = query_plan().count() - before;
                assert_eq!(
                    planned, N,
                    "{text} under {name}: {planned} plans for {N} requests"
                );
                if !text.starts_with("EXPLAIN") {
                    sent += N;
                }
            }
        }
    }

    let log = client.request(r#"{"op":"slowlog"}"#).expect("slowlog");
    let entries = log
        .get("slowlog")
        .and_then(Value::as_array)
        .expect("entries");
    assert_eq!(entries.len() as u64, sent, "EXPLAIN is never logged");
    for entry in entries {
        let text = entry.get("query").and_then(Value::as_str).unwrap();
        let name = entry.get("strategy").and_then(Value::as_str).unwrap();
        let ranked_by = entry.get("ranked_by").and_then(Value::as_str).unwrap();
        let top_ops = entry.get("top_ops").and_then(Value::as_array).unwrap();
        assert!(
            entry.get("duration_us").and_then(Value::as_u64).is_some(),
            "{text}"
        );
        assert!(!top_ops.is_empty(), "{text}: slow entries carry their ops");
        if text.starts_with("PROFILE") {
            assert_eq!(ranked_by, "self_time", "{text}");
            continue;
        }
        assert_eq!(ranked_by, "estimated_rows", "{text}");
        let (_, strategy) = STRATEGIES.iter().find(|(n, _)| *n == name).unwrap();
        let expected = expected_top_ops(&server, text, *strategy);
        assert_eq!(top_ops, expected.as_slice(), "{text} under {name}");
    }
    server.shutdown();
}

#[test]
fn a_slow_logged_query_keeps_no_snapshot_alive() {
    let _registry = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    let server = slow_server();
    let mut reader = Client::connect(server.local_addr()).expect("connect");
    let mut writer = Client::connect(server.local_addr()).expect("connect");
    let claim = writer.request(r#"{"op":"claim_writer"}"#).expect("claim");
    assert_eq!(claim.get("ok").and_then(Value::as_bool), Some(true));

    for (i, text) in forms(BODIES[0]).iter().enumerate() {
        let before = server.graph().stats();
        query(&mut reader, text, "streaming");
        let after = server.graph().stats();
        assert_eq!(
            after.live_snapshots, before.live_snapshots,
            "{text} left a snapshot alive"
        );
        let write = format!(r#"{{"op":"add_edge","tail":"w{i}","label":"aux","head":"w{i}x"}}"#);
        let reply = writer.request(&write).expect("add_edge");
        assert_eq!(
            reply.get("ok").and_then(Value::as_bool),
            Some(true),
            "{}",
            reply.render()
        );
        assert_eq!(
            server.graph().stats().deep_clones,
            after.deep_clones,
            "the write after {text} deep-cloned a generation a request still pinned"
        );
    }
    let log = reader.request(r#"{"op":"slowlog"}"#).expect("slowlog");
    let entries = log
        .get("slowlog")
        .and_then(Value::as_array)
        .expect("entries");
    assert_eq!(entries.len(), 5, "every executed form was slow-logged");
    server.shutdown();
}
