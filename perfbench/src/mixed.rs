//! `mixed_rw`: point reads beside acknowledged writes on one durable store
//! (the 2.2k-vertex / 24k-edge graph), embedded, on one thread.
//!
//! About four reads precede each write, and every read's result — and so
//! its snapshot — is held until the next write is acknowledged. That is the
//! pinning a concurrent reader causes, without a second thread's scheduling
//! noise: every write deep-clones the generation, and the first read of a
//! direction after a write rebuilds that generation's caches.

use std::collections::BTreeSet;
use std::time::Instant;

use mrpa_engine::{GraphSnapshot, PropertyGraph, QueryResult, RowCursor, Traversal};

use crate::dense::report_reads;
use crate::lifecycle::Durability;
use crate::oracle::Oracle;
use crate::stats::{p90, Windows};
use crate::{setup, Bench, SETUP_REPS};

const PEOPLE: usize = 2_000;
/// Writes between two checkpoints of the store.
const CHECKPOINT_EVERY: usize = 100;
/// Writes between two restarts of the store, which fall halfway between
/// checkpoints so that each replays a WAL tail.
const RESTART_EVERY: usize = 100;
/// Cycles between two loads of a separate store (ingest, checkpoint and
/// reopen), and between two repeated set-ups.
const LOAD_EVERY: usize = 120;

#[derive(Clone, Copy, PartialEq, Debug)]
enum Read {
    /// `FROM p OUT knows`.
    OutKnows,
    /// `FROM p IN knows`.
    InKnows,
    /// `FROM p OUT knows OUT created COUNT`.
    OutCreatedCount,
    /// `FROM * OUT knows LIMIT 1`, through a cursor's first row.
    FirstRow,
}

/// The reads before each write, in order.
const CYCLE: [Read; 5] = [
    Read::InKnows,
    Read::OutKnows,
    Read::OutCreatedCount,
    Read::OutKnows,
    Read::FirstRow,
];

/// What a read keeps alive until the next write is acknowledged.
#[allow(dead_code)] // held only for the snapshot it pins
enum Held {
    Result(QueryResult),
    Snapshot(GraphSnapshot),
    Cursor(Box<RowCursor>),
}

struct Outcome {
    held: Held,
    rows: u64,
    ok: bool,
}

fn sorted_names(o: &Oracle, ids: &[u32]) -> Vec<String> {
    let mut names: Vec<String> = ids.iter().map(|&i| o.names[i as usize].clone()).collect();
    names.sort();
    names
}

fn read(store: &PropertyGraph, o: &Oracle, kind: Read, start: u32) -> Result<Outcome, String> {
    let e = |e: mrpa_engine::EngineError| e.to_string();
    let name = o.names[start as usize].as_str();
    let rows_of = |t: Traversal, expect: &[u32]| -> Result<Outcome, String> {
        let result = t.execute().map_err(e)?;
        let mut heads = result.head_names();
        heads.sort();
        Ok(Outcome {
            rows: result.len() as u64,
            ok: heads == sorted_names(o, expect),
            held: Held::Result(result),
        })
    };
    match kind {
        Read::OutKnows => rows_of(
            Traversal::over(store).v([name]).out(["knows"]),
            &o.knows_out[start as usize],
        ),
        Read::InKnows => rows_of(
            Traversal::over(store).v([name]).in_(["knows"]),
            &o.knows_in[start as usize],
        ),
        Read::OutCreatedCount => {
            let snapshot = store.snapshot();
            let n = Traversal::over(store)
                .v([name])
                .out(["knows"])
                .out(["created"])
                .count()
                .map_err(e)?;
            let want: usize = o.knows_out[start as usize]
                .iter()
                .map(|&v| o.created_out[v as usize].len())
                .sum();
            Ok(Outcome {
                held: Held::Snapshot(snapshot),
                rows: n as u64,
                ok: n == want,
            })
        }
        Read::FirstRow => {
            let mut cursor = Traversal::over(store)
                .out(["knows"])
                .limit(1)
                .cursor()
                .map_err(e)?;
            let row = cursor.next_row().map_err(e)?;
            let ok = row.is_some_and(|r| {
                let snap = cursor.snapshot();
                let (t, h) = (snap.render_vertex(r.source), snap.render_vertex(r.head));
                matches!((o.id(&t), o.id(&h)), (Some(t), Some(h))
                    if o.knows_out[t as usize].contains(&h))
            });
            Ok(Outcome {
                held: Held::Cursor(Box::new(cursor)),
                rows: 1,
                ok,
            })
        }
    }
}

/// Whether a read walks the reversed graph.
fn reads_in(kind: Read) -> bool {
    kind == Read::InKnows
}

pub fn run(bench: &mut Bench) -> Result<(), String> {
    let (g, o, ()) = setup(bench, PEOPLE, |_, _, _| ());
    drop(g);
    let mut durability = Durability::default();
    let mut store = durability.load(bench, &o)?;

    let mut read_ms = Vec::new();
    let mut first_row_ms = Vec::new();
    let mut windows = Windows::new(0.5);
    let mut traced = TracedReads::new(&store.graph);
    let started = Instant::now();
    let mut cycle = 0;
    while bench.keep_going(started, &windows, read_ms.len()) {
        let mut held = Vec::with_capacity(CYCLE.len());
        for (pos, kind) in CYCLE.into_iter().enumerate() {
            let start = o.persons[bench.draw(o.persons.len())];
            let request = (cycle * (CYCLE.len() + 1) + pos) as u64;
            let rebuild_ms = if bench.traced() {
                traced.prewarm(bench, &store.graph, kind, request)
            } else {
                0.0
            };
            bench.host.tick();
            let t0 = Instant::now();
            let outcome = read(&store.graph, &o, kind, start)?;
            let t1 = Instant::now();
            bench.tracer.span(request, "read", None, t0, t1);
            let elapsed = t1.duration_since(t0).as_secs_f64();
            let reference = bench.host.at_reference(elapsed);
            read_ms.push(reference * 1e3);
            traced.read_ms.push(elapsed * 1e3 + rebuild_ms);
            traced.plain_ms.push(elapsed * 1e3);
            match kind {
                Read::OutCreatedCount => windows.count(reference, outcome.rows),
                _ => windows.rows(reference, outcome.rows),
            }
            if kind == Read::FirstRow {
                first_row_ms.push(reference * 1e3);
            }
            bench.check(outcome.ok, || {
                format!(
                    "mixed_rw {kind:?} from {}: answer differs",
                    o.names[start as usize]
                )
            });
            held.push(outcome.held);
        }
        let request = (cycle * (CYCLE.len() + 1) + CYCLE.len()) as u64;
        durability.write(bench, &mut store, request)?;
        traced.writes_after_pin += 1;
        drop(held);
        cycle += 1;
        windows.end_cycle();
        if cycle % CHECKPOINT_EVERY == 0 {
            durability.checkpoint(bench, &store, request)?;
        }
        if cycle % RESTART_EVERY == RESTART_EVERY / 2 {
            // a restart replays the writes since the last checkpoint
            traced.fold(&store.graph);
            store = durability.restart(bench, store)?;
            traced.rebase(&store.graph);
        }
        if cycle % LOAD_EVERY == LOAD_EVERY / 4 {
            let loaded = durability.load(bench, &o)?;
            durability.remove(bench, loaded)?;
        } else if cycle % LOAD_EVERY == 3 * LOAD_EVERY / 4 && bench.setup_s.len() < SETUP_REPS {
            setup(bench, PEOPLE, |_, _, _| ());
        }
    }
    eprintln!("mixed_rw: {} reads, {cycle} writes", read_ms.len());
    report_reads(bench, &windows, &read_ms, &first_row_ms);
    durability.report(bench);
    if bench.traced() {
        traced.fold(&store.graph);
        traced.finish(bench, &store.graph);
    }
    durability.remove(bench, store)
}

/// The traced run's view of the store layer: each generation's caches are
/// built (and timed) by `GraphSnapshot::reversed` / `prewarm_csr` just
/// before the read that needs them, so a read's time splits into rebuild
/// and the read proper.
struct TracedReads {
    /// The live store's counters when it was opened.
    base: mrpa_engine::StoreStats,
    /// Counters of the stores already restarted, summed.
    deep_clones: u64,
    reversed_builds: u64,
    csr_builds: u64,
    /// Restarts so far: a generation number is unique within one store.
    store: u64,
    /// (store, generation) pairs an `IN` read touched.
    in_generations: BTreeSet<(u64, u64)>,
    /// (store, generation, direction) triples reads touched.
    touched: BTreeSet<(u64, u64, bool)>,
    writes_after_pin: u64,
    /// Read latencies including their rebuild, and without it.
    read_ms: Vec<f64>,
    plain_ms: Vec<f64>,
}

impl TracedReads {
    fn new(store: &PropertyGraph) -> Self {
        TracedReads {
            base: store.stats(),
            deep_clones: 0,
            reversed_builds: 0,
            csr_builds: 0,
            store: 0,
            in_generations: BTreeSet::new(),
            touched: BTreeSet::new(),
            writes_after_pin: 0,
            read_ms: Vec::new(),
            plain_ms: Vec::new(),
        }
    }

    /// Adds the live store's counters since it was opened to the totals.
    fn fold(&mut self, store: &PropertyGraph) {
        let s = store.stats();
        self.deep_clones += s.deep_clones - self.base.deep_clones;
        self.reversed_builds += s.reversed_builds - self.base.reversed_builds;
        self.csr_builds += s.csr_builds - self.base.csr_builds;
        self.base = s;
    }

    fn rebase(&mut self, store: &PropertyGraph) {
        self.base = store.stats();
        self.store += 1;
    }

    fn prewarm(
        &mut self,
        bench: &mut Bench,
        store: &PropertyGraph,
        kind: Read,
        request: u64,
    ) -> f64 {
        let t0 = Instant::now();
        let snap = store.snapshot();
        let t1 = Instant::now();
        bench.tracer.span(request, "store.snapshot", None, t0, t1);
        let before = store.stats();
        let inward = reads_in(kind);
        self.touched.insert((self.store, snap.generation(), inward));
        if inward {
            self.in_generations.insert((self.store, snap.generation()));
            snap.reversed();
        }
        snap.prewarm_csr(!inward, inward);
        let t2 = Instant::now();
        let after = store.stats();
        if after.csr_builds + after.reversed_builds > before.csr_builds + before.reversed_builds {
            bench.tracer.span(request, "store.rebuild", None, t1, t2);
            t2.duration_since(t1).as_secs_f64() * 1e3
        } else {
            0.0
        }
    }

    fn finish(&self, bench: &mut Bench, store: &PropertyGraph) {
        bench.layer("store.deep_clones", self.deep_clones as f64);
        bench.layer("store.reversed_builds", self.reversed_builds as f64);
        bench.layer("store.csr_builds", self.csr_builds as f64);
        bench.layer("store.csr_bytes", store.stats().csr_bytes as f64);
        bench.layer_span_p50("store.snapshot_us_p50", "store.snapshot", 1e3);
        bench.layer_span_p50("store.rebuild_ms_p50", "store.rebuild", 1.0);
        bench.layer("store.read_ms_p90", p90(&self.read_ms));
        bench.layer("store.read_ms_p90_excl_rebuild", p90(&self.plain_ms));
        let (clones, pinned) = (self.deep_clones, self.writes_after_pin);
        bench.check(clones == pinned, || {
            format!("{clones} deep clones for {pinned} pinned writes")
        });
        let (reversed, inward) = (self.reversed_builds, self.in_generations.len() as u64);
        bench.check(reversed == inward, || {
            format!("{reversed} reversed builds for {inward} generations read inward")
        });
        let (csr, touched) = (self.csr_builds, self.touched.len() as u64);
        bench.check(csr == touched, || {
            format!("{csr} CSR builds for {touched} (generation, direction) pairs")
        });
    }
}
