//! The durable life of a store, shared by every workload: bulk load,
//! checkpoint, reopen, acknowledged writes and recovery from the WAL tail.
//!
//! Each phase is short (tens of milliseconds on the small graph), so every
//! workload repeats it several times spread over its run and reports the
//! median: the host's speed drifts over seconds, and one burst of phases
//! would sample a single moment of it.

use std::path::{Path, PathBuf};
use std::time::Instant;

use mrpa_engine::wal::WAL_FILE;
use mrpa_engine::{PropertyGraph, StoreStats};

use crate::host::Host;
use crate::oracle::Oracle;
use crate::stats::median;
use crate::Bench;

fn err(what: &str) -> impl Fn(mrpa_engine::StoreError) -> String + '_ {
    move |e| format!("{what}: {e}")
}

fn file_bytes(path: &Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .filter(|m| m.is_file())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Acknowledged writes in one life of a store.
pub const WRITES_PER_STORE: usize = 100;

/// Times a directory is opened in a row, for `reopen_s` and `recover_s`:
/// each open is a short event, so the run needs many of them.
const REOPENS: usize = 3;

/// Opens `dir` [`REOPENS`] times, dropping each store before the next
/// open, and returns the last store with the start and end of every open.
fn open_repeatedly(
    host: &mut Host,
    dir: &Path,
    what: &str,
) -> Result<(PropertyGraph, Vec<(Instant, Instant)>), String> {
    let mut opens = Vec::with_capacity(REOPENS);
    let mut graph = None;
    for _ in 0..REOPENS {
        drop(graph.take());
        host.tick();
        let t0 = Instant::now();
        graph = Some(PropertyGraph::open(dir).map_err(err(what))?);
        opens.push((t0, Instant::now()));
    }
    Ok((graph.expect("opened at least once"), opens))
}

/// The timings of every durable phase of a run.
#[derive(Default)]
pub struct Durability {
    ingest_edges_per_s: Vec<f64>,
    checkpoint_s: Vec<f64>,
    reopen_s: Vec<f64>,
    recover_s: Vec<f64>,
    write_ms: Vec<f64>,
    stored_bytes_per_edge: f64,
    wal_ingest_bytes: u64,
    wal_ingest_records: u64,
    ingest_s: f64,
    loads: usize,
}

/// A durable store and the directory it lives in.
pub struct Store {
    pub graph: PropertyGraph,
    pub dir: PathBuf,
    /// Edges the oracle's graph holds; acknowledged writes come on top.
    pub base_edges: usize,
    /// Writes acknowledged on this directory, numbered from 0.
    pub writes: usize,
}

impl Durability {
    /// Loads the oracle's graph into a fresh directory: the vertices with
    /// their properties, then `ingest_edges` + `persist` (timed),
    /// `checkpoint` (timed), drop and `PropertyGraph::open` (timed, nothing
    /// to replay).
    pub fn load(&mut self, bench: &mut Bench, oracle: &Oracle) -> Result<Store, String> {
        let dir = bench.fresh_dir();
        self.loads += 1;
        let request = 3_000_000 + self.loads as u64;
        let store = PropertyGraph::open(&dir).map_err(err("open"))?;
        for (name, props) in &oracle.vertices {
            let v = store.try_add_vertex(name).map_err(err("add vertex"))?;
            for (key, value) in props {
                store
                    .try_set_vertex_property(v, key, value.clone())
                    .map_err(err("set property"))?;
            }
        }
        store.persist().map_err(err("persist"))?;
        let before = store.stats();
        let wal_before = file_bytes(&dir.join(WAL_FILE));

        bench.host.tick();
        let t0 = Instant::now();
        let added = store
            .ingest_edges(
                oracle
                    .edges
                    .iter()
                    .map(|(t, l, h)| (t.as_str(), l.as_str(), h.as_str())),
            )
            .map_err(err("ingest"))?;
        let t1 = Instant::now();
        store.persist().map_err(err("persist"))?;
        let t2 = Instant::now();
        let root = bench.tracer.span(request, "load.ingest", None, t0, t2);
        bench
            .tracer
            .span(request, "wal.ingest_edges", Some(root), t0, t1);
        bench
            .tracer
            .span(request, "wal.persist", Some(root), t1, t2);
        let ingest_s = t2.duration_since(t0).as_secs_f64();
        self.ingest_edges_per_s
            .push(added as f64 / bench.host.at_reference(ingest_s));
        bench.check(added == oracle.edges.len(), || {
            format!("ingest added {added} of {} edges", oracle.edges.len())
        });
        let after = store.stats();
        self.ingest_s += ingest_s;
        self.wal_ingest_records += after.wal_records - before.wal_records;
        self.wal_ingest_bytes += file_bytes(&dir.join(WAL_FILE)) - wal_before;

        bench.host.tick();
        let t0 = Instant::now();
        store.checkpoint().map_err(err("checkpoint"))?;
        let t1 = Instant::now();
        record_checkpoint(bench, request, &after, &store.stats(), t0, t1, added);
        let secs = t1.duration_since(t0).as_secs_f64();
        self.checkpoint_s.push(bench.host.at_reference(secs));
        self.stored_bytes_per_edge = dir_bytes(&dir) as f64 / added as f64;
        account(bench, &store.stats());
        drop(store);

        let (graph, opens) = open_repeatedly(&mut bench.host, &dir, "reopen")?;
        for (t0, t1) in opens {
            bench.tracer.span(request, "recovery.open", None, t0, t1);
            let secs = t1.duration_since(t0).as_secs_f64();
            self.reopen_s.push(bench.host.at_reference(secs));
        }
        let replayed = graph.stats().replayed_records;
        bench.check(replayed == 0, || {
            format!("reopen replayed {replayed} records")
        });
        bench.check(graph.edge_count() == oracle.edges.len(), || {
            format!("reopened store holds {} edges", graph.edge_count())
        });
        Ok(Store {
            graph,
            dir,
            base_edges: oracle.edges.len(),
            writes: 0,
        })
    }

    /// One acknowledged write: an edge `knows` between two fresh `w*`
    /// vertices, then `persist`.
    pub fn write(
        &mut self,
        bench: &mut Bench,
        store: &mut Store,
        request: u64,
    ) -> Result<(), String> {
        let i = store.writes;
        let before = bench.traced().then(|| store.graph.stats());
        bench.host.tick();
        let t0 = Instant::now();
        store
            .graph
            .try_add_edge(&format!("w{i}a"), "knows", &format!("w{i}b"))
            .map_err(err("write"))?;
        let t1 = Instant::now();
        store.graph.persist().map_err(err("persist"))?;
        let t2 = Instant::now();
        store.writes += 1;
        if let Some(before) = before {
            let cloned = store.graph.stats().deep_clones - before.deep_clones;
            let root = bench.tracer.span(request, "write", None, t0, t2);
            let name = if cloned > 0 {
                "store.clone_write"
            } else {
                "wal.append"
            };
            bench.tracer.span(request, name, Some(root), t0, t1);
            bench
                .tracer
                .span(request, "wal.persist", Some(root), t1, t2);
        }
        let secs = t2.duration_since(t0).as_secs_f64();
        self.write_ms.push(bench.host.at_reference(secs) * 1e3);
        Ok(())
    }

    /// Timed `checkpoint` of a live store.
    pub fn checkpoint(
        &mut self,
        bench: &mut Bench,
        store: &Store,
        request: u64,
    ) -> Result<(), String> {
        let before = store.graph.stats();
        bench.host.tick();
        let t0 = Instant::now();
        store.graph.checkpoint().map_err(err("checkpoint"))?;
        let t1 = Instant::now();
        let edges = store.graph.edge_count();
        record_checkpoint(bench, request, &before, &store.graph.stats(), t0, t1, edges);
        let secs = t1.duration_since(t0).as_secs_f64();
        self.checkpoint_s.push(bench.host.at_reference(secs));
        Ok(())
    }

    /// Drops the store and reopens its directory, replaying the WAL written
    /// since the last checkpoint (timed). Checks that every acknowledged
    /// write survived.
    pub fn restart(&mut self, bench: &mut Bench, store: Store) -> Result<Store, String> {
        account(bench, &store.graph.stats());
        let Store {
            graph,
            dir,
            base_edges,
            writes,
        } = store;
        drop(graph);
        let (graph, opens) = open_repeatedly(&mut bench.host, &dir, "recover")?;
        let replayed = graph.stats().replayed_records as f64;
        for (t0, t1) in opens {
            let request = 4_000_000 + writes as u64;
            bench.tracer.span(request, "recovery.open", None, t0, t1);
            let seconds = t1.duration_since(t0).as_secs_f64();
            self.recover_s.push(bench.host.at_reference(seconds));
            bench.layer_push("recovery.replayed_records", replayed);
            bench.layer_push("recovery.records_per_s", replayed / seconds);
        }

        let snap = graph.snapshot();
        let knows = snap.label("knows").map_err(|e| e.to_string())?;
        let lost = (0..writes)
            .filter(|i| {
                let (a, b) = (
                    snap.vertex(&format!("w{i}a")),
                    snap.vertex(&format!("w{i}b")),
                );
                !matches!((a, b), (Ok(a), Ok(b))
                    if snap.graph().contains_edge(&mrpa_core::Edge::new(a, knows, b)))
            })
            .count();
        bench.check(lost == 0, || {
            format!("{lost} of {writes} acknowledged edges lost by recovery")
        });
        let edges = graph.edge_count();
        bench.check(edges == base_edges + writes, || {
            format!("recovered {edges} edges, expected {}", base_edges + writes)
        });
        drop(snap);
        Ok(Store {
            graph,
            dir,
            base_edges,
            writes,
        })
    }

    /// One whole life of a store beside the workload's reads: load,
    /// [`WRITES_PER_STORE`] acknowledged writes with a checkpoint halfway,
    /// restart (replaying the second half), and removal of the directory.
    /// A second store is only loaded and removed: a load's ingest moves by
    /// about 20% between loads of one run, and with one load per cycle the
    /// run's median of `ingest_edges_per_s` spread by 24% across runs.
    ///
    /// A reader holds a snapshot across every write, as a concurrent
    /// reader would, so each write copies the generation: the write's time
    /// is then mostly that copy, not the fsync, whose tail on a shared
    /// disk moves by more than any bound between runs.
    pub fn cycle(&mut self, bench: &mut Bench, oracle: &Oracle) -> Result<(), String> {
        let loaded = self.load(bench, oracle)?;
        self.remove(bench, loaded)?;
        let mut store = self.load(bench, oracle)?;
        for i in 0..WRITES_PER_STORE {
            let reader = store.graph.snapshot();
            self.write(bench, &mut store, 5_000_000 + i as u64)?;
            drop(reader);
            if i + 1 == WRITES_PER_STORE / 2 {
                self.checkpoint(bench, &store, 5_000_000 + i as u64)?;
            }
        }
        let store = self.restart(bench, store)?;
        self.remove(bench, store)
    }

    /// Drops a store and deletes its directory.
    pub fn remove(&self, bench: &mut Bench, store: Store) -> Result<(), String> {
        account(bench, &store.graph.stats());
        drop(store.graph);
        std::fs::remove_dir_all(&store.dir).map_err(|e| e.to_string())
    }

    /// The durable end-to-end metrics, each the median over all its
    /// occurrences in the run, and the WAL layer's.
    pub fn report(&self, bench: &mut Bench) {
        bench.e2e("write_ms_p50", median(&self.write_ms));
        bench.e2e("ingest_edges_per_s", median(&self.ingest_edges_per_s));
        bench.e2e("checkpoint_s", median(&self.checkpoint_s));
        bench.e2e("reopen_s", median(&self.reopen_s));
        bench.e2e("recover_s", median(&self.recover_s));
        bench.e2e("stored_bytes_per_edge", self.stored_bytes_per_edge);
        eprintln!(
            "durability: {} loads, {} writes, {} checkpoints, {} recoveries",
            self.loads,
            self.write_ms.len(),
            self.checkpoint_s.len(),
            self.recover_s.len()
        );
        if bench.traced() {
            bench.layer(
                "wal.ingest_mb_per_s",
                self.wal_ingest_bytes as f64 / 1e6 / self.ingest_s,
            );
            bench.layer(
                "wal.bytes_per_record",
                self.wal_ingest_bytes as f64 / self.wal_ingest_records as f64,
            );
            bench.layer_span_p50("wal.append_us_p50", "wal.append", 1e3);
            bench.layer_span_p50("wal.persist_us_p50", "wal.persist", 1e3);
            bench.layer_span_p50("store.clone_write_ms_p50", "store.clone_write", 1.0);
        }
    }
}

fn record_checkpoint(
    bench: &mut Bench,
    request: u64,
    before: &StoreStats,
    after: &StoreStats,
    t0: Instant,
    t1: Instant,
    edges: usize,
) {
    if !bench.traced() {
        return;
    }
    bench.tracer.span(request, "checkpoint", None, t0, t1);
    let bytes = (after.checkpoint_bytes - before.checkpoint_bytes) as f64;
    bench.layer("checkpoint.bytes_per_edge", bytes / edges as f64);
    bench.layer_push(
        "checkpoint.mb_per_s",
        bytes / 1e6 / t1.duration_since(t0).as_secs_f64(),
    );
}

/// Folds a store's WAL counters into the run's totals.
fn account(bench: &mut Bench, stats: &StoreStats) {
    bench.layer_add("wal.records", stats.wal_records as f64);
    bench.layer_add("wal.fsyncs", stats.wal_fsyncs as f64);
}
