//! Deterministic crash-recovery matrix for the durable store.
//!
//! For every seeded mutation script and every [`FailPoint`] crash boundary
//! (mid-WAL-append, torn append, post-append/pre-ack, mid-checkpoint,
//! pre-checkpoint-rename, post-checkpoint/pre-truncate), the store is
//! "killed" by an injected failure and reopened from disk. The reopened
//! store must be **structurally identical** — interner id assignment, vertex
//! set, edge-list order, per-vertex adjacency-bucket order, all properties,
//! and row-for-row query results under all three execution strategies — to a
//! *twin* store that executed exactly the acknowledged prefix of the script.
//! A frozen O(1) snapshot taken before the failing op cross-checks the
//! "last acknowledged state" claim directly.
//!
//! The one deliberate asymmetry is [`FailPoint::WalFlush`]: the record is
//! fully in the log but the mutator never returned `Ok`, so recovery
//! legitimately resurfaces the in-flight op — the classic WAL gray zone —
//! and the matrix asserts exactly that.
//!
//! Without a crash, a bulk-ingested generated graph must replay every WAL
//! record on reopen, and reopen from its checkpoint with none left to replay.

use mrpa::core::Edge;
use mrpa::engine::{ExecutionStrategy, FailPoint, PropertyGraph, StoreError, Traversal, Value};

const STRATEGIES: [ExecutionStrategy; 3] = [
    ExecutionStrategy::Materialized,
    ExecutionStrategy::Streaming,
    ExecutionStrategy::Parallel,
];

const VERTICES: usize = 12;
const LABELS: [&str; 3] = ["l0", "l1", "l2"];

/// One step of a mutation script.
#[derive(Debug, Clone)]
enum Op {
    AddEdge(String, String, String),
    AddVertex(String),
    SetVProp(String, String, Value),
    SetEProp(String, String, String, String, Value),
    RemoveEdge(String, String, String),
    RemoveVertex(String),
    Checkpoint,
}

/// Deterministic ~60-op script: a dense mix of adds, property writes, and
/// removals (so adjacency buckets see real swap-remove churn), with one
/// checkpoint planted mid-script.
fn script(seed: u64) -> Vec<Op> {
    use mrpa::datagen::random::rng_stream;
    use rand::Rng as _;
    let mut r = rng_stream(0xd00d_5eed, seed);
    let vname = |i: usize| format!("v{i}");
    let mut ops = Vec::new();
    for k in 0..60 {
        if k == 31 {
            ops.push(Op::Checkpoint);
            continue;
        }
        let t = vname(r.gen_range(0..VERTICES));
        let h = vname(r.gen_range(0..VERTICES));
        let l = LABELS[r.gen_range(0..LABELS.len())].to_owned();
        let roll = r.gen_range(0..100);
        ops.push(match roll {
            0..=49 => Op::AddEdge(t, l, h),
            50..=57 => Op::AddVertex(vname(r.gen_range(0..VERTICES + 4))),
            58..=69 => Op::SetVProp(
                t,
                format!("k{}", r.gen_range(0..3)),
                Value::Int(r.gen_range(0i64..1000)),
            ),
            70..=79 => Op::SetEProp(t, l, h, "w".to_owned(), Value::Float(r.gen_range(0.0..1.0))),
            80..=92 => Op::RemoveEdge(t, l, h),
            _ => Op::RemoveVertex(t),
        });
    }
    ops
}

/// Executes one op against a store through the fallible API. Ops referencing
/// names the store has never seen degrade to pure reads (skips), identically
/// on every store that executes the same prefix.
fn run_op(store: &PropertyGraph, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::AddEdge(t, l, h) => store.try_add_edge(t, l, h).map(|_| ()),
        Op::AddVertex(n) => store.try_add_vertex(n).map(|_| ()),
        Op::SetVProp(n, key, value) => match store.vertex(n) {
            Ok(v) => store.try_set_vertex_property(v, key, value.clone()),
            Err(_) => Ok(()),
        },
        Op::SetEProp(t, l, h, key, value) => {
            match (store.vertex(t), store.label(l), store.vertex(h)) {
                (Ok(tv), Ok(lv), Ok(hv)) => {
                    store.try_set_edge_property(Edge::new(tv, lv, hv), key, value.clone())
                }
                _ => Ok(()),
            }
        }
        Op::RemoveEdge(t, l, h) => store.try_remove_edge(t, l, h).map(|_| ()),
        Op::RemoveVertex(n) => store.try_remove_vertex(n).map(|_| ()),
        Op::Checkpoint => store.checkpoint(),
    }
}

fn temp_dir(tag: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join(format!("mrpa-crash-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Asserts two stores are structurally identical: interners, vertex sets,
/// edge-list order, per-vertex adjacency-bucket order, every property, and
/// row-for-row query results under all three strategies.
fn assert_same_store(a: &PropertyGraph, b: &PropertyGraph, ctx: &str) {
    let sa = a.snapshot();
    let sb = b.snapshot();
    let names = |s: &mrpa::engine::GraphSnapshot| -> Vec<String> {
        s.interner().vertices().map(|(_, n)| n.to_owned()).collect()
    };
    assert_eq!(names(&sa), names(&sb), "{ctx}: interned vertex names");
    let labels = |s: &mrpa::engine::GraphSnapshot| -> Vec<String> {
        s.interner().labels().map(|(_, n)| n.to_owned()).collect()
    };
    assert_eq!(labels(&sa), labels(&sb), "{ctx}: interned label names");
    let va: Vec<_> = sa.graph().vertices().collect();
    let vb: Vec<_> = sb.graph().vertices().collect();
    assert_eq!(va, vb, "{ctx}: vertex sets");
    assert_eq!(
        sa.graph().edge_slice(),
        sb.graph().edge_slice(),
        "{ctx}: edge list order"
    );
    for &v in &va {
        assert_eq!(
            sa.graph().out_edges(v),
            sb.graph().out_edges(v),
            "{ctx}: out bucket of {v:?}"
        );
        assert_eq!(
            sa.graph().in_edges(v),
            sb.graph().in_edges(v),
            "{ctx}: in bucket of {v:?}"
        );
        assert_eq!(
            sa.vertex_properties(v),
            sb.vertex_properties(v),
            "{ctx}: props of {v:?}"
        );
    }
    for e in sa.graph().edge_slice() {
        assert_eq!(
            sa.edge_properties(e),
            sb.edge_properties(e),
            "{ctx}: props of {e:?}"
        );
    }
    // row-for-row query equality under every strategy (only labels the
    // stores have interned — the pipeline resolves label names strictly,
    // and the interners were just asserted identical)
    let starts: Vec<String> = va
        .iter()
        .filter_map(|&v| sa.interner().vertex_name(v))
        .map(str::to_owned)
        .collect();
    let known: Vec<&str> = LABELS
        .iter()
        .copied()
        .filter(|l| sa.interner().get_label(l).is_some())
        .collect();
    if starts.is_empty() || known.is_empty() {
        return;
    }
    for strategy in STRATEGIES {
        let run = |g: &PropertyGraph| {
            let one = Traversal::over(g)
                .v(starts.iter().map(String::as_str))
                .out(known.iter().copied())
                .strategy(strategy)
                .execute()
                .unwrap();
            let two = Traversal::over(g)
                .v(starts.iter().map(String::as_str))
                .out(known.iter().copied())
                .out(known.iter().copied())
                .strategy(strategy)
                .execute()
                .unwrap();
            let both = Traversal::over(g)
                .v(starts.iter().map(String::as_str))
                .both(known.iter().copied())
                .strategy(strategy)
                .execute()
                .unwrap();
            (
                one.rows().to_vec(),
                two.rows().to_vec(),
                both.rows().to_vec(),
            )
        };
        assert_eq!(run(a), run(b), "{ctx}: query rows under {strategy:?}");
    }
}

/// Runs the full matrix cell: seed × crash point × countdown. Returns whether
/// an injected failure actually fired (scripts can exhaust before deep
/// countdowns — those cells become no-crash controls).
fn run_cell(seed: u64, point: FailPoint, countdown: u64) -> bool {
    let tag = format!("{seed}-{point}-{countdown}");
    let primary_dir = temp_dir(&format!("p-{tag}"));
    let twin_dir = temp_dir(&format!("t-{tag}"));
    let ops = script(seed);

    let primary = PropertyGraph::open(&primary_dir).unwrap();
    primary.arm_failpoint(point, countdown);
    let mut crash_at: Option<usize> = None;
    let mut snap_before = primary.snapshot();
    for (i, op) in ops.iter().enumerate() {
        let before = primary.snapshot();
        match run_op(&primary, op) {
            Ok(()) => {}
            Err(StoreError::Injected(p)) => {
                assert_eq!(p, point, "unexpected failpoint fired");
                crash_at = Some(i);
                snap_before = before;
                break;
            }
            Err(other) => panic!("unexpected store error: {other}"),
        }
    }
    let fired = crash_at.is_some();

    // The acknowledged prefix: everything before the failing op. (For
    // WalFlush the failing op is additionally durable — handled below.)
    let acked = crash_at.unwrap_or(ops.len());
    let twin = PropertyGraph::open(&twin_dir).unwrap();
    for op in &ops[..acked] {
        run_op(&twin, op).unwrap();
    }
    if let Some(k) = crash_at {
        match point {
            // the in-flight record is fully logged: recovery resurfaces it
            FailPoint::WalFlush => run_op(&twin, &ops[k]).unwrap(),
            // truncation dies AFTER the checkpoint was written and
            // canonically installed — logically a no-op, but it rebuilds
            // adjacency buckets in edge-list order, so the twin must
            // checkpoint too for the strict bucket-order comparison
            FailPoint::WalTruncate => {
                assert!(matches!(ops[k], Op::Checkpoint));
                twin.checkpoint().unwrap();
            }
            _ => {}
        }
    }

    // the frozen snapshot IS the last acknowledged state
    if fired {
        let twin_pre = PropertyGraph::new();
        for op in &ops[..acked] {
            match op {
                Op::Checkpoint => {}
                other => run_op(&twin_pre, other).unwrap(),
            }
        }
        assert_eq!(
            snap_before.graph().edge_count(),
            twin_pre.edge_count(),
            "{tag}: frozen snapshot edge count"
        );
        assert_eq!(
            snap_before.graph().vertex_count(),
            twin_pre.vertex_count(),
            "{tag}: frozen snapshot vertex count"
        );
    }

    // "kill" the process: drop the poisoned/failed store and reopen strictly.
    drop(primary);
    let (reopened, report) = PropertyGraph::open_recover(&primary_dir).unwrap();
    if fired {
        match point {
            FailPoint::WalAppendTorn => {
                assert!(
                    matches!(report.wal_tail, mrpa::engine::WalTail::Torn { .. }),
                    "{tag}: torn append must leave a torn tail, got {:?}",
                    report.wal_tail
                );
            }
            FailPoint::WalTruncate => {
                // checkpoint installed, WAL survived: replay must skip
                assert!(
                    report.skipped_records > 0,
                    "{tag}: expected seqno-skipped records, report = {report:?}"
                );
            }
            _ => {}
        }
    }
    // strict open agrees (torn tails are legal in strict mode)
    let strict = PropertyGraph::open(&primary_dir).unwrap();
    assert_same_store(&reopened, &twin, &format!("{tag}: reopened vs twin"));
    assert_same_store(&strict, &twin, &format!("{tag}: strict-reopened vs twin"));

    // a recovered store is fully writable and durable again
    strict.add_edge("v0", "l0", "v1");
    let count = strict.edge_count();
    drop(strict);
    let again = PropertyGraph::open(&primary_dir).unwrap();
    assert_eq!(again.edge_count(), count, "{tag}: post-recovery mutation");

    let _ = std::fs::remove_dir_all(&primary_dir);
    let _ = std::fs::remove_dir_all(&twin_dir);
    fired
}

#[test]
fn crash_matrix_wal_append_points() {
    let mut fired = 0;
    for seed in 0..4 {
        for point in [
            FailPoint::WalAppend,
            FailPoint::WalAppendTorn,
            FailPoint::WalFlush,
        ] {
            for countdown in [0, 7, 23, 45] {
                if run_cell(seed, point, countdown) {
                    fired += 1;
                }
            }
        }
    }
    assert!(fired >= 30, "matrix degenerated: only {fired} cells fired");
}

#[test]
fn crash_matrix_checkpoint_points() {
    let mut fired = 0;
    for seed in 0..4 {
        for point in [
            FailPoint::CheckpointWrite,
            FailPoint::CheckpointRename,
            FailPoint::WalTruncate,
        ] {
            // CheckpointWrite countdown picks which page write dies; the
            // others fire on their single per-checkpoint hit
            let countdowns: &[u64] = if point == FailPoint::CheckpointWrite {
                &[0, 2, 4, 6]
            } else {
                &[0]
            };
            for &countdown in countdowns {
                if run_cell(seed, point, countdown) {
                    fired += 1;
                }
            }
        }
    }
    assert!(fired >= 20, "matrix degenerated: only {fired} cells fired");
}

#[test]
fn no_crash_control_roundtrips_exactly() {
    for seed in 0..4 {
        let primary_dir = temp_dir(&format!("ctl-p-{seed}"));
        let twin_dir = temp_dir(&format!("ctl-t-{seed}"));
        let ops = script(seed);
        let primary = PropertyGraph::open(&primary_dir).unwrap();
        let twin = PropertyGraph::open(&twin_dir).unwrap();
        for op in &ops {
            run_op(&primary, op).unwrap();
            run_op(&twin, op).unwrap();
        }
        primary.persist().unwrap();
        drop(primary);
        let reopened = PropertyGraph::open(&primary_dir).unwrap();
        // live-never-restarted twin vs reopened primary: identical, down to
        // adjacency order — the canonical-install invariant at work
        assert_same_store(&reopened, &twin, &format!("control seed {seed}"));
        let _ = std::fs::remove_dir_all(&primary_dir);
        let _ = std::fs::remove_dir_all(&twin_dir);
    }
}

#[test]
fn bulk_ingest_replays_checkpoints_and_reopens_cold() {
    use mrpa::datagen::{ingest_multigraph, preferential_attachment, BaConfig};
    let source = preferential_attachment(BaConfig {
        vertices: 400,
        edges_per_vertex: 4,
        labels: LABELS.len(),
        seed: 42,
    });
    let edges = source.edge_count();
    // the in-memory twin is the reference for every disk round trip
    let twin = PropertyGraph::new();
    ingest_multigraph(&twin, &source).unwrap();
    let dir = temp_dir("bulk");
    let store = PropertyGraph::open(&dir).unwrap();
    assert_eq!(ingest_multigraph(&store, &source).unwrap(), edges);
    for i in (0..400).step_by(10) {
        let name = format!("v{i}");
        let rank = Value::Int(i as i64);
        let v = store.vertex(&name).unwrap();
        store
            .try_set_vertex_property(v, "rank", rank.clone())
            .unwrap();
        twin.set_vertex_property(twin.vertex(&name).unwrap(), "rank", rank);
    }
    store.persist().unwrap();
    let records = store.stats().wal_records;
    drop(store);

    // cold reopen: the whole WAL replays into the twin's state
    let replayed = PropertyGraph::open(&dir).unwrap();
    assert_eq!(replayed.stats().replayed_records, records);
    assert_eq!(replayed.edge_count(), edges);
    assert_same_store(&replayed, &twin, "replayed vs twin");

    // checkpoint, then reopen from the checkpoint alone
    replayed.checkpoint().unwrap();
    assert_same_store(&replayed, &twin, "checkpointed live store vs twin");
    drop(replayed);
    let restored = PropertyGraph::open(&dir).unwrap();
    assert_eq!(
        restored.stats().replayed_records,
        0,
        "nothing left to replay"
    );
    assert_same_store(&restored, &twin, "checkpoint-restored vs twin");
    drop(restored);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn checkpoint_failures_do_not_poison_the_live_store() {
    for point in [
        FailPoint::CheckpointWrite,
        FailPoint::CheckpointRename,
        FailPoint::WalTruncate,
    ] {
        let dir = temp_dir(&format!("nopoison-{point}"));
        let g = PropertyGraph::open(&dir).unwrap();
        g.add_edge("a", "r", "b");
        g.arm_failpoint(point, 0);
        assert_eq!(g.checkpoint(), Err(StoreError::Injected(point)));
        // the live store keeps accepting work…
        g.add_edge("b", "r", "c");
        assert_eq!(g.edge_count(), 2);
        // …a later checkpoint succeeds…
        g.checkpoint().unwrap();
        g.add_edge("c", "r", "d");
        drop(g);
        // …and the directory recovers to the full state
        let g = PropertyGraph::open(&dir).unwrap();
        assert_eq!(g.edge_count(), 3);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
