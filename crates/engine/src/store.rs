//! The property-graph store underlying the traversal engine.
//!
//! [`PropertyGraph`] is a thread-safe multi-relational property graph: the
//! edge structure is exactly the paper's ternary relation `E ⊆ V × Ω × V`
//! (held in an [`mrpa_core::MultiGraph`]), while vertices and edges may carry
//! string-keyed [`Value`] properties. Reads take a consistent
//! [`GraphSnapshot`] so long-running traversals are not affected by concurrent
//! mutation.
//!
//! # Epochs and copy-on-write snapshots
//!
//! The store holds its state as an `Arc`-shared **generation**
//! ([`GraphSnapshot`] pins one). Taking a snapshot is O(1) — an `Arc` clone
//! and an epoch read, never a copy of the graph, the property maps, or the
//! interner. Mutators go through [`Arc::make_mut`]: while no snapshot of the
//! current generation is alive they mutate in place (zero copies on any
//! build-then-query workload); the first mutation *after* a snapshot was
//! taken pays one O(V+E) deep clone to start a new generation, leaving every
//! outstanding snapshot frozen on the old one. Each mutation bumps the
//! store's epoch, so `snapshot().generation()` identifies the pinned state.
//!
//! Each direction's [`CsrTopology`] — the only adjacency the executors read
//! — is a **lazily-built, per-generation cache**: it is constructed at most
//! once per generation, on first use, and never for a direction no query
//! reads. [`PropertyGraph::stats`] exposes counters (`deep_clones`,
//! `csr_builds`) that make both cost claims assertable in tests and
//! benchmarks.
//!
//! # Durability
//!
//! A store opened with [`PropertyGraph::open`] (or
//! [`PropertyGraph::open_recover`]) is **durable**: every mutation is encoded
//! as a [`WalOp`] and appended to a CRC-checksummed write-ahead log *before*
//! it touches the in-memory generation, [`PropertyGraph::persist`] fsyncs the
//! log, and [`PropertyGraph::checkpoint`] serializes the whole generation to
//! an atomically-installed checkpoint file and truncates the log. Reopening
//! the directory restores the checkpoint and replays the log through the same
//! apply path live mutators use, reconstructing a store structurally
//! identical to the last acknowledged state — down to interner id assignment
//! and adjacency order. See the [`wal`](crate::wal),
//! [`checkpoint`](crate::checkpoint), and [`recovery`](crate::recovery)
//! module docs for formats and crash semantics.
//!
//! Durable mutations can fail (disk, or an armed test
//! [`FailPoint`]), so every mutator has a `try_` form returning
//! `Result<_, StoreError>`. The classic infallible methods delegate to those
//! and are the right choice for in-memory stores, where mutation cannot fail.

use std::collections::HashMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::RwLock;

use mrpa_core::{Edge, GraphInterner, LabelId, MultiGraph, VertexId};

use crate::checkpoint::{write_checkpoint, CheckpointData};
use crate::csr::CsrTopology;
use crate::error::{EngineError, StoreError};
use crate::plan::Direction;
use crate::recovery::{recover, RecoveryReport};
use crate::value::Value;
use crate::wal::{encode_frame, FailPoint, Wal, WalOp, WAL_FILE};

/// Monotonic counters shared by every generation of one store (cloning a
/// generation keeps the same handle, so the counts are per-`PropertyGraph`).
#[derive(Debug, Default)]
pub(crate) struct StoreMetrics {
    /// Generation deep clones performed by copy-on-write mutators.
    deep_clones: AtomicU64,
    /// Reversed-graph builds (at most one per generation, only when
    /// [`GraphSnapshot::reversed`] is called; the executors never call it).
    reversed_builds: AtomicU64,
    /// CSR topology builds (at most one per generation *per direction*, only
    /// on demand; both directions are built from the forward graph).
    csr_builds: AtomicU64,
    /// WAL records appended (durable stores only).
    wal_records: AtomicU64,
    /// Checkpoints successfully installed.
    checkpoints: AtomicU64,
    /// Bytes written into checkpoint files (summed over installs).
    checkpoint_bytes: AtomicU64,
    /// WAL records replayed by recovery when this store was opened.
    pub(crate) replayed_records: AtomicU64,
    /// Snapshots currently alive (taken or cloned, not yet dropped). Unlike
    /// the monotonic counters above, this is a live gauge.
    live_snapshots: AtomicU64,
}

/// Counters of a [`PropertyGraph`], for asserting the snapshot cost model and
/// the durability behaviour: `deep_clones` counts the O(V+E) generation
/// copies (zero on the unchanged-graph snapshot path), `csr_builds` counts
/// per-direction adjacency constructions (at most one per generation and
/// direction read), and the durability counters (`wal_records`,
/// `checkpoints`, `replayed_records`) let tests and benches assert WAL /
/// checkpoint / recovery activity without inspecting files.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreStats {
    /// The current epoch (bumped by every mutation). On a durable store this
    /// equals the sequence number of the newest WAL-covered mutation.
    pub generation: u64,
    /// O(V+E) copy-on-write generation clones performed so far.
    pub deep_clones: u64,
    /// Reversed-graph builds performed so far: one per generation on whose
    /// snapshot [`GraphSnapshot::reversed`] was called. Queries never build
    /// it — `In` and `Both` steps read the In-direction CSR — so this stays
    /// zero unless a caller asks for the reversed graph itself.
    pub reversed_builds: u64,
    /// CSR topology builds performed so far: one per (generation, direction)
    /// pair some query read, zero until the first expansion.
    pub csr_builds: u64,
    /// Resident bytes of the **current** generation's built CSR caches — a
    /// live gauge recomputed from whichever of the Out/In CSRs exist right
    /// now, so it drops back when a mutation starts a fresh generation.
    pub csr_bytes: u64,
    /// WAL records appended so far (0 for in-memory stores).
    pub wal_records: u64,
    /// WAL fsync (`sync_data`) calls so far — every `persist()` barrier plus
    /// the syncs checkpointing performs internally (0 for in-memory stores).
    pub wal_fsyncs: u64,
    /// Checkpoints successfully installed so far.
    pub checkpoints: u64,
    /// Bytes written into checkpoint files so far (each checkpoint's on-disk
    /// size at install time, summed; 0 until the first checkpoint).
    pub checkpoint_bytes: u64,
    /// WAL records replayed by recovery when this store was opened.
    pub replayed_records: u64,
    /// Snapshots of this store currently alive — every [`GraphSnapshot`]
    /// taken or cloned and not yet dropped pins a generation and counts
    /// here. A live gauge, not a monotonic counter: it falls back to zero
    /// when readers finish. Lets servers report how many readers are pinning
    /// generations right now.
    pub live_snapshots: u64,
}

/// One immutable generation of the store. `Clone` is the copy-on-write deep
/// clone (counted in [`StoreMetrics::deep_clones`]); the lazily-built
/// caches are *not* carried over — a fresh generation rebuilds them on
/// first demand.
#[derive(Debug, Default)]
pub(crate) struct GraphState {
    pub(crate) graph: MultiGraph,
    pub(crate) interner: GraphInterner,
    pub(crate) vertex_props: HashMap<VertexId, HashMap<String, Value>>,
    pub(crate) edge_props: HashMap<Edge, HashMap<String, Value>>,
    /// Per-generation cache of `graph.reversed()` for
    /// [`GraphSnapshot::reversed`] callers, built at most once. No executor
    /// reads it. An `Arc` so that a property-only copy-on-write (which cannot
    /// change edge structure) can carry the built cache into the new
    /// generation.
    pub(crate) reversed: OnceLock<Arc<MultiGraph>>,
    /// Per-generation cache of the Out-direction [`CsrTopology`], built at
    /// most once per generation on first use; same carry/invalidate
    /// discipline as `reversed`.
    pub(crate) csr_out: OnceLock<Arc<CsrTopology>>,
    /// Per-generation cache of the In-direction [`CsrTopology`], frozen from
    /// the forward graph's in-edge buckets (`MultiGraph::in_edges_labeled`).
    pub(crate) csr_in: OnceLock<Arc<CsrTopology>>,
    /// Shared across generations of one store (a handle, not data).
    pub(crate) metrics: Arc<StoreMetrics>,
}

impl Clone for GraphState {
    fn clone(&self) -> Self {
        self.metrics.deep_clones.fetch_add(1, Ordering::Relaxed);
        crate::metrics::deep_clones_total().inc();
        GraphState {
            graph: self.graph.clone(),
            interner: self.interner.clone(),
            vertex_props: self.vertex_props.clone(),
            edge_props: self.edge_props.clone(),
            reversed: OnceLock::new(),
            csr_out: OnceLock::new(),
            csr_in: OnceLock::new(),
            metrics: Arc::clone(&self.metrics),
        }
    }
}

impl GraphState {
    /// An empty generation wired to an existing metrics handle.
    pub(crate) fn with_metrics(metrics: Arc<StoreMetrics>) -> Self {
        GraphState {
            metrics,
            ..Default::default()
        }
    }

    /// The reversed graph of this generation, built on first use.
    fn reversed(&self) -> &MultiGraph {
        self.reversed
            .get_or_init(|| {
                self.metrics.reversed_builds.fetch_add(1, Ordering::Relaxed);
                crate::metrics::reversed_builds_total().inc();
                Arc::new(self.graph.reversed())
            })
            .as_ref()
    }

    /// The Out-direction CSR of this generation, built on first use.
    fn csr_out(&self) -> &CsrTopology {
        self.csr_out
            .get_or_init(|| {
                self.metrics.csr_builds.fetch_add(1, Ordering::Relaxed);
                crate::metrics::csr_builds_total().inc();
                Arc::new(CsrTopology::build(&self.graph, Direction::Out))
            })
            .as_ref()
    }

    /// The In-direction CSR of this generation, built on first use from the
    /// forward graph's in-edge buckets.
    fn csr_in(&self) -> &CsrTopology {
        self.csr_in
            .get_or_init(|| {
                self.metrics.csr_builds.fetch_add(1, Ordering::Relaxed);
                crate::metrics::csr_builds_total().inc();
                Arc::new(CsrTopology::build(&self.graph, Direction::In))
            })
            .as_ref()
    }

    /// Resident bytes of whichever CSR caches this generation has built —
    /// the live `csr_bytes` gauge.
    fn csr_bytes(&self) -> u64 {
        let out = self.csr_out.get().map_or(0, |c| c.bytes());
        let inn = self.csr_in.get().map_or(0, |c| c.bytes());
        (out + inn) as u64
    }

    /// Applies one logged operation to this generation. This is the **single
    /// mutation path** shared by live mutators and WAL replay: a store
    /// rebuilt by replaying its log is structurally identical to the live
    /// store the log was written by — including interner id assignment
    /// (names re-intern in logged order) and adjacency-bucket order.
    pub(crate) fn apply(&mut self, op: &WalOp) {
        match op {
            WalOp::AddVertex { name } => {
                let v = self.interner.vertex(name);
                self.graph.add_vertex(v);
            }
            WalOp::AddEdge { tail, label, head } => {
                let t = self.interner.vertex(tail);
                let l = self.interner.label(label);
                let h = self.interner.vertex(head);
                self.graph.add_vertex(t);
                self.graph.add_vertex(h);
                self.graph.add_edge(Edge::new(t, l, h));
            }
            WalOp::RemoveEdge { tail, label, head } => {
                let e = Edge::new(*tail, *label, *head);
                self.edge_props.remove(&e);
                self.graph.remove_edge(&e);
            }
            WalOp::RemoveVertex { vertex } => {
                if let Some(removed) = self.graph.remove_vertex(*vertex) {
                    for e in &removed {
                        self.edge_props.remove(e);
                    }
                }
                self.vertex_props.remove(vertex);
            }
            WalOp::SetVertexProp { vertex, key, value } => {
                self.vertex_props
                    .entry(*vertex)
                    .or_default()
                    .insert(key.clone(), value.clone());
            }
            WalOp::SetEdgeProp {
                tail,
                label,
                head,
                key,
                value,
            } => {
                self.edge_props
                    .entry(Edge::new(*tail, *label, *head))
                    .or_default()
                    .insert(key.clone(), value.clone());
            }
        }
    }
}

/// The durability backend of an opened store: the WAL writer, the directory
/// checkpoints go to, and the poison latch a failed append trips.
#[derive(Debug)]
struct Durability {
    dir: PathBuf,
    wal: Wal,
    /// Set when a WAL append failed: the in-memory generation may be ahead
    /// of (or diverged from) the log, so further mutations are refused until
    /// the store is reopened. Reads and snapshots keep working.
    poisoned: bool,
}

#[derive(Debug, Default)]
struct Inner {
    state: Arc<GraphState>,
    epoch: u64,
    dur: Option<Durability>,
}

impl Inner {
    /// Prepares the current generation for a **structural** mutation: bumps
    /// the epoch and returns exclusive access to the state. If a snapshot
    /// pins the current generation this performs the one copy-on-write deep
    /// clone; otherwise it mutates in place. Either way the adjacency caches
    /// are dropped — the edge structure is about to change, so the next
    /// generation rebuilds them on demand.
    fn mutate(&mut self) -> &mut GraphState {
        self.epoch += 1;
        let state = Arc::make_mut(&mut self.state);
        state.reversed.take();
        state.csr_out.take();
        state.csr_in.take();
        state
    }

    /// Prepares the current generation for a **property-only** mutation:
    /// like [`Inner::mutate`], but keeps the adjacency caches — property
    /// values cannot change edge structure, so even the copy-on-write path
    /// carries the built caches (`Arc` clones) into the new generation.
    fn mutate_props(&mut self) -> &mut GraphState {
        self.epoch += 1;
        let carried = self.state.reversed.get().cloned();
        let carried_out = self.state.csr_out.get().cloned();
        let carried_in = self.state.csr_in.get().cloned();
        let state = Arc::make_mut(&mut self.state);
        if let Some(reversed) = carried {
            // no-op on the in-place path (the cache is still set there)
            let _ = state.reversed.set(reversed);
        }
        if let Some(csr) = carried_out {
            let _ = state.csr_out.set(csr);
        }
        if let Some(csr) = carried_in {
            let _ = state.csr_in.set(csr);
        }
        state
    }

    /// Commits one mutation that the caller has already established as
    /// *effective* (it will change state, so the epoch must bump). On a
    /// durable store the op is WAL-appended **first** — its sequence number
    /// is the post-mutation epoch — and only then applied in memory; an
    /// append failure poisons the store and the op is never applied, so
    /// memory never acknowledges what the log did not accept.
    fn commit(&mut self, op: WalOp) -> Result<(), StoreError> {
        if let Some(dur) = self.dur.as_mut() {
            if dur.poisoned {
                return Err(StoreError::Poisoned);
            }
            let mut frame = Vec::new();
            encode_frame(self.epoch + 1, &op, &mut frame);
            if let Err(e) = dur.wal.append_frames(&frame) {
                dur.poisoned = true;
                return Err(e);
            }
            self.state
                .metrics
                .wal_records
                .fetch_add(1, Ordering::Relaxed);
            crate::metrics::wal_records_total().inc();
        }
        let state = if op.is_props_only() {
            self.mutate_props()
        } else {
            self.mutate()
        };
        state.apply(&op);
        Ok(())
    }

    fn durability(&mut self) -> Result<&mut Durability, StoreError> {
        let dur = self.dur.as_mut().ok_or(StoreError::NotDurable)?;
        if dur.poisoned {
            return Err(StoreError::Poisoned);
        }
        Ok(dur)
    }
}

/// A thread-safe multi-relational property graph.
#[derive(Debug, Default, Clone)]
pub struct PropertyGraph {
    inner: Arc<RwLock<Inner>>,
}

impl PropertyGraph {
    /// Creates an empty property graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds (or fetches) a vertex by name. Fetching an existing vertex is a
    /// pure read — it neither bumps the epoch nor triggers a copy-on-write.
    ///
    /// Infallible convenience over [`PropertyGraph::try_add_vertex`]; on a
    /// durable store a WAL failure panics here, so durable writers should
    /// prefer the `try_` form.
    pub fn add_vertex(&self, name: &str) -> VertexId {
        self.try_add_vertex(name).expect("WAL append failed")
    }

    /// Adds (or fetches) a vertex by name, surfacing durability failures.
    pub fn try_add_vertex(&self, name: &str) -> Result<VertexId, StoreError> {
        let mut inner = self.inner.write();
        if let Some(v) = inner.state.interner.get_vertex(name) {
            if inner.state.graph.contains_vertex(v) {
                return Ok(v);
            }
        }
        inner.commit(WalOp::AddVertex {
            name: name.to_owned(),
        })?;
        Ok(inner
            .state
            .interner
            .get_vertex(name)
            .expect("vertex was just applied"))
    }

    /// Adds a vertex with properties.
    pub fn add_vertex_with(
        &self,
        name: &str,
        props: impl IntoIterator<Item = (&'static str, Value)>,
    ) -> VertexId {
        self.try_add_vertex_with(name, props)
            .expect("WAL append failed")
    }

    /// Adds a vertex with properties, surfacing durability failures.
    pub fn try_add_vertex_with(
        &self,
        name: &str,
        props: impl IntoIterator<Item = (&'static str, Value)>,
    ) -> Result<VertexId, StoreError> {
        let v = self.try_add_vertex(name)?;
        for (k, value) in props {
            self.try_set_vertex_property(v, k, value)?;
        }
        Ok(v)
    }

    /// Adds the edge `(tail, label, head)` by names, creating vertices as
    /// needed. Returns the edge.
    ///
    /// Infallible convenience over [`PropertyGraph::try_add_edge`] (panics on
    /// a durable store's WAL failure).
    pub fn add_edge(&self, tail: &str, label: &str, head: &str) -> Edge {
        self.try_add_edge(tail, label, head)
            .expect("WAL append failed")
    }

    /// Adds the edge `(tail, label, head)` by names, surfacing durability
    /// failures.
    pub fn try_add_edge(&self, tail: &str, label: &str, head: &str) -> Result<Edge, StoreError> {
        let mut inner = self.inner.write();
        // re-adding an existing edge is a pure read: no epoch bump, no COW
        if let (Some(t), Some(l), Some(h)) = (
            inner.state.interner.get_vertex(tail),
            inner.state.interner.get_label(label),
            inner.state.interner.get_vertex(head),
        ) {
            let e = Edge::new(t, l, h);
            if inner.state.graph.contains_edge(&e) {
                return Ok(e);
            }
        }
        inner.commit(WalOp::AddEdge {
            tail: tail.to_owned(),
            label: label.to_owned(),
            head: head.to_owned(),
        })?;
        let interner = &inner.state.interner;
        Ok(Edge::new(
            interner.get_vertex(tail).expect("edge was just applied"),
            interner.get_label(label).expect("edge was just applied"),
            interner.get_vertex(head).expect("edge was just applied"),
        ))
    }

    /// Removes the edge `(tail, label, head)` by names. Returns whether the
    /// edge was present (unknown names simply report `false`).
    pub fn remove_edge(&self, tail: &str, label: &str, head: &str) -> bool {
        self.try_remove_edge(tail, label, head)
            .expect("WAL append failed")
    }

    /// Removes the edge `(tail, label, head)` by names, surfacing durability
    /// failures. `Ok(false)` means the edge (or one of the names) did not
    /// exist — a pure read.
    pub fn try_remove_edge(&self, tail: &str, label: &str, head: &str) -> Result<bool, StoreError> {
        let mut inner = self.inner.write();
        let (Some(t), Some(l), Some(h)) = (
            inner.state.interner.get_vertex(tail),
            inner.state.interner.get_label(label),
            inner.state.interner.get_vertex(head),
        ) else {
            return Ok(false);
        };
        if !inner.state.graph.contains_edge(&Edge::new(t, l, h)) {
            return Ok(false);
        }
        inner.commit(WalOp::RemoveEdge {
            tail: t,
            label: l,
            head: h,
        })?;
        Ok(true)
    }

    /// Removes the vertex `name` together with every incident edge (and all
    /// their properties), in `O(deg)` via the adjacency position maps.
    /// Returns whether the vertex was present. The name stays interned —
    /// re-adding it later reuses the same [`VertexId`].
    pub fn remove_vertex(&self, name: &str) -> bool {
        self.try_remove_vertex(name).expect("WAL append failed")
    }

    /// Removes the vertex `name` and its incident edges, surfacing durability
    /// failures. `Ok(false)` means the vertex did not exist — a pure read.
    pub fn try_remove_vertex(&self, name: &str) -> Result<bool, StoreError> {
        let mut inner = self.inner.write();
        let Some(v) = inner.state.interner.get_vertex(name) else {
            return Ok(false);
        };
        if !inner.state.graph.contains_vertex(v) {
            return Ok(false);
        }
        inner.commit(WalOp::RemoveVertex { vertex: v })?;
        Ok(true)
    }

    /// Adds an edge with properties.
    pub fn add_edge_with(
        &self,
        tail: &str,
        label: &str,
        head: &str,
        props: impl IntoIterator<Item = (&'static str, Value)>,
    ) -> Edge {
        self.try_add_edge_with(tail, label, head, props)
            .expect("WAL append failed")
    }

    /// Adds an edge with properties, surfacing durability failures.
    pub fn try_add_edge_with(
        &self,
        tail: &str,
        label: &str,
        head: &str,
        props: impl IntoIterator<Item = (&'static str, Value)>,
    ) -> Result<Edge, StoreError> {
        let e = self.try_add_edge(tail, label, head)?;
        for (k, value) in props {
            self.try_set_edge_property(e, k, value)?;
        }
        Ok(e)
    }

    /// Sets a vertex property. Property writes are copy-on-write like every
    /// mutation, but — since properties cannot change edge structure — they
    /// always keep the generation's adjacency caches, on both the in-place
    /// and the COW path.
    pub fn set_vertex_property(&self, v: VertexId, key: &str, value: Value) {
        self.try_set_vertex_property(v, key, value)
            .expect("WAL append failed")
    }

    /// Sets a vertex property, surfacing durability failures.
    pub fn try_set_vertex_property(
        &self,
        v: VertexId,
        key: &str,
        value: Value,
    ) -> Result<(), StoreError> {
        self.inner.write().commit(WalOp::SetVertexProp {
            vertex: v,
            key: key.to_owned(),
            value,
        })
    }

    /// Sets an edge property (see [`PropertyGraph::set_vertex_property`] for
    /// the copy-on-write behaviour).
    pub fn set_edge_property(&self, e: Edge, key: &str, value: Value) {
        self.try_set_edge_property(e, key, value)
            .expect("WAL append failed")
    }

    /// Sets an edge property, surfacing durability failures.
    pub fn try_set_edge_property(
        &self,
        e: Edge,
        key: &str,
        value: Value,
    ) -> Result<(), StoreError> {
        self.inner.write().commit(WalOp::SetEdgeProp {
            tail: e.tail,
            label: e.label,
            head: e.head,
            key: key.to_owned(),
            value,
        })
    }

    /// Reads a vertex property.
    pub fn vertex_property(&self, v: VertexId, key: &str) -> Option<Value> {
        self.inner
            .read()
            .state
            .vertex_props
            .get(&v)
            .and_then(|m| m.get(key))
            .cloned()
    }

    /// Reads an edge property.
    pub fn edge_property(&self, e: &Edge, key: &str) -> Option<Value> {
        self.inner
            .read()
            .state
            .edge_props
            .get(e)
            .and_then(|m| m.get(key))
            .cloned()
    }

    /// Resolves a vertex name.
    pub fn vertex(&self, name: &str) -> Result<VertexId, EngineError> {
        self.inner
            .read()
            .state
            .interner
            .get_vertex(name)
            .ok_or_else(|| EngineError::UnknownVertex(name.to_owned()))
    }

    /// Resolves a label name.
    pub fn label(&self, name: &str) -> Result<LabelId, EngineError> {
        self.inner
            .read()
            .state
            .interner
            .get_label(name)
            .ok_or_else(|| EngineError::UnknownLabel(name.to_owned()))
    }

    /// The name of a vertex, if it was added by name.
    pub fn vertex_name(&self, v: VertexId) -> Option<String> {
        self.inner
            .read()
            .state
            .interner
            .vertex_name(v)
            .map(str::to_owned)
    }

    /// The name of a label.
    pub fn label_name(&self, l: LabelId) -> Option<String> {
        self.inner
            .read()
            .state
            .interner
            .label_name(l)
            .map(str::to_owned)
    }

    /// Number of vertices.
    pub fn vertex_count(&self) -> usize {
        self.inner.read().state.graph.vertex_count()
    }

    /// Number of edges.
    pub fn edge_count(&self) -> usize {
        self.inner.read().state.graph.edge_count()
    }

    /// Takes a consistent snapshot of the graph structure and properties for
    /// traversal evaluation.
    ///
    /// This is **O(1)**: the snapshot pins the current generation by cloning
    /// an `Arc` — no graph, property-map, or interner copy happens here (or
    /// later, unless the graph is mutated while the snapshot is alive; see
    /// the module docs for the copy-on-write cost model). The snapshot is
    /// immutable, cheap to share across threads, and isolated from every
    /// subsequent mutation.
    pub fn snapshot(&self) -> GraphSnapshot {
        let inner = self.inner.read();
        inner
            .state
            .metrics
            .live_snapshots
            .fetch_add(1, Ordering::Relaxed);
        crate::metrics::snapshots_total().inc();
        crate::metrics::live_snapshots_gauge().add(1);
        GraphSnapshot {
            state: Arc::clone(&inner.state),
            epoch: inner.epoch,
        }
    }

    /// Copy-on-write and durability counters: generation deep clones,
    /// reversed-graph builds, WAL appends, checkpoints, and recovery replays
    /// performed by this store so far, plus the current epoch. The counters
    /// make the snapshot cost model and the durability behaviour assertable —
    /// see the module docs and `tests/snapshot_concurrency.rs` /
    /// `tests/durability_recovery.rs`.
    pub fn stats(&self) -> StoreStats {
        let inner = self.inner.read();
        let m = &inner.state.metrics;
        StoreStats {
            generation: inner.epoch,
            deep_clones: m.deep_clones.load(Ordering::Relaxed),
            reversed_builds: m.reversed_builds.load(Ordering::Relaxed),
            csr_builds: m.csr_builds.load(Ordering::Relaxed),
            csr_bytes: inner.state.csr_bytes(),
            wal_records: m.wal_records.load(Ordering::Relaxed),
            wal_fsyncs: inner.dur.as_ref().map_or(0, |d| d.wal.fsyncs()),
            checkpoints: m.checkpoints.load(Ordering::Relaxed),
            checkpoint_bytes: m.checkpoint_bytes.load(Ordering::Relaxed),
            replayed_records: m.replayed_records.load(Ordering::Relaxed),
            live_snapshots: m.live_snapshots.load(Ordering::Relaxed),
        }
    }

    // -- durability ---------------------------------------------------------

    /// Opens (creating if needed) a **durable** store rooted at `dir`:
    /// recovery restores the checkpoint (if any) and replays the WAL past it,
    /// and every subsequent mutation is write-ahead logged. This is the
    /// *strict* open — a corrupt WAL tail (acknowledged bytes failing their
    /// checksum or sequence check) is refused with
    /// [`StoreError::Recovery`]; use [`PropertyGraph::open_recover`] to
    /// degrade to clean-prefix replay instead. A *torn* tail (a crash
    /// mid-append) is recovered silently by both.
    pub fn open(dir: impl AsRef<Path>) -> Result<Self, StoreError> {
        Self::open_impl(dir.as_ref(), true).map(|(store, _)| store)
    }

    /// Opens a durable store rooted at `dir`, recovering as much as possible:
    /// a corrupt WAL tail degrades to clean-prefix replay, with the damage
    /// described in the returned [`RecoveryReport`].
    pub fn open_recover(dir: impl AsRef<Path>) -> Result<(Self, RecoveryReport), StoreError> {
        Self::open_impl(dir.as_ref(), false)
    }

    fn open_impl(dir: &Path, strict: bool) -> Result<(Self, RecoveryReport), StoreError> {
        let started = std::time::Instant::now();
        let metrics = Arc::new(StoreMetrics::default());
        let recovered = recover(dir, strict, Arc::clone(&metrics))?;
        let wal = Wal::open(
            dir.join(WAL_FILE),
            recovered.wal_clean_end,
            crate::wal::FailPlan::new(),
        )?;
        crate::metrics::recovery_latency().observe(started.elapsed());
        let inner = Inner {
            state: Arc::new(recovered.state),
            epoch: recovered.epoch,
            dur: Some(Durability {
                dir: dir.to_owned(),
                wal,
                poisoned: false,
            }),
        };
        Ok((
            PropertyGraph {
                inner: Arc::new(RwLock::new(inner)),
            },
            recovered.report,
        ))
    }

    /// Whether this store write-ahead logs its mutations.
    pub fn is_durable(&self) -> bool {
        self.inner.read().dur.is_some()
    }

    /// The durability directory, if this store has one.
    pub fn directory(&self) -> Option<PathBuf> {
        self.inner.read().dur.as_ref().map(|d| d.dir.clone())
    }

    /// Durability barrier: fsyncs the WAL, making every acknowledged mutation
    /// crash-proof. Errors with [`StoreError::NotDurable`] on an in-memory
    /// store.
    pub fn persist(&self) -> Result<(), StoreError> {
        self.inner.write().durability()?.wal.sync()
    }

    /// Serializes the current generation to an atomically-installed
    /// checkpoint file and truncates the WAL.
    ///
    /// The rebuilt (canonically-ordered) generation is installed as the live
    /// state the moment the checkpoint rename lands — so the live store and
    /// a recovery of its directory stay structurally identical, always.
    /// Failures on this path never poison the store: at every crash boundary
    /// the directory still recovers to the current state (the old
    /// checkpoint + full WAL before the rename; the new checkpoint + a WAL
    /// whose records are skipped by sequence number after it).
    pub fn checkpoint(&self) -> Result<(), StoreError> {
        let started = std::time::Instant::now();
        let mut inner = self.inner.write();
        // make sure the log never trails the checkpoint we are about to cut
        inner.durability()?.wal.sync()?;
        let data = CheckpointData::capture(&inner.state, inner.epoch);
        let (dir, fail) = {
            let dur = inner.dur.as_ref().expect("durability checked above");
            (dur.dir.clone(), dur.wal.fail_plan())
        };
        let bytes = write_checkpoint(&dir, &data, &fail)?;
        // the checkpoint is installed on disk; install its canonical
        // restoration in memory too (see the method docs)
        let restored = data
            .restore(Arc::clone(&inner.state.metrics))
            .map_err(StoreError::Recovery)?;
        inner.state = Arc::new(restored);
        inner
            .state
            .metrics
            .checkpoints
            .fetch_add(1, Ordering::Relaxed);
        inner
            .state
            .metrics
            .checkpoint_bytes
            .fetch_add(bytes, Ordering::Relaxed);
        crate::metrics::checkpoints_total().inc();
        crate::metrics::checkpoint_bytes_total().add(bytes);
        let result = inner
            .dur
            .as_mut()
            .expect("durability checked above")
            .wal
            .truncate();
        crate::metrics::checkpoint_latency().observe(started.elapsed());
        result
    }

    /// Arms the store's deterministic fault-injection plan: the `after`-th
    /// subsequent hit of `point` (0 = the very next one) fails with
    /// [`StoreError::Injected`], simulating a crash at that boundary. Testing
    /// hook; a no-op on in-memory stores.
    pub fn arm_failpoint(&self, point: FailPoint, after: u64) {
        if let Some(dur) = self.inner.read().dur.as_ref() {
            dur.wal.fail_plan().arm(point, after);
        }
    }

    /// Bulk-ingests edge triples through the WAL fast path: one write lock,
    /// one WAL write per ~4096-record chunk, no per-edge frame flush.
    /// Existing edges are skipped as pure reads. Returns the number of edges
    /// actually added.
    ///
    /// Unlike single mutators, the in-memory state runs *ahead* of the WAL
    /// within a chunk; a WAL failure therefore poisons the store (nothing was
    /// acknowledged — reopen the directory to return to the logged prefix).
    /// Works on in-memory stores too (it just skips the logging).
    pub fn ingest_edges<'a>(
        &self,
        edges: impl IntoIterator<Item = (&'a str, &'a str, &'a str)>,
    ) -> Result<usize, StoreError> {
        const CHUNK: u64 = 4096;
        let mut inner = self.inner.write();
        let durable = match inner.dur.as_ref() {
            Some(d) if d.poisoned => return Err(StoreError::Poisoned),
            Some(_) => true,
            None => false,
        };
        let mut frames: Vec<u8> = Vec::new();
        let mut buffered = 0u64;
        let mut added = 0usize;
        for (tail, label, head) in edges {
            if let (Some(t), Some(l), Some(h)) = (
                inner.state.interner.get_vertex(tail),
                inner.state.interner.get_label(label),
                inner.state.interner.get_vertex(head),
            ) {
                if inner.state.graph.contains_edge(&Edge::new(t, l, h)) {
                    continue;
                }
            }
            let op = WalOp::AddEdge {
                tail: tail.to_owned(),
                label: label.to_owned(),
                head: head.to_owned(),
            };
            if durable {
                encode_frame(inner.epoch + 1, &op, &mut frames);
                buffered += 1;
            }
            inner.mutate().apply(&op);
            added += 1;
            if buffered >= CHUNK {
                Self::flush_ingest_chunk(&mut inner, &mut frames, &mut buffered)?;
            }
        }
        if buffered > 0 {
            Self::flush_ingest_chunk(&mut inner, &mut frames, &mut buffered)?;
        }
        Ok(added)
    }

    fn flush_ingest_chunk(
        inner: &mut Inner,
        frames: &mut Vec<u8>,
        buffered: &mut u64,
    ) -> Result<(), StoreError> {
        let dur = inner.dur.as_mut().expect("ingest chunks only when durable");
        if let Err(e) = dur.wal.append_frames(frames) {
            dur.poisoned = true;
            return Err(e);
        }
        inner
            .state
            .metrics
            .wal_records
            .fetch_add(*buffered, Ordering::Relaxed);
        crate::metrics::wal_records_total().add(*buffered);
        frames.clear();
        *buffered = 0;
        Ok(())
    }

    /// Runs `f` over the current generation and epoch under the read lock
    /// (internal hook for unit tests).
    #[cfg(test)]
    pub(crate) fn with_state<R>(&self, f: impl FnOnce(&GraphState, u64) -> R) -> R {
        let inner = self.inner.read();
        f(&inner.state, inner.epoch)
    }
}

/// An immutable snapshot of a [`PropertyGraph`], shared by executors and
/// across threads.
///
/// A snapshot pins one *generation* of the store: cloning it (or taking it in
/// the first place) is an `Arc` clone. Each adjacency direction's
/// [`CsrTopology`] is a per-generation lazy cache — built at most once per
/// generation, on the first read of that direction.
#[derive(Debug)]
pub struct GraphSnapshot {
    state: Arc<GraphState>,
    epoch: u64,
}

impl Clone for GraphSnapshot {
    /// `Arc` clone of the pinned generation; the clone counts as one more
    /// live snapshot (see [`StoreStats::live_snapshots`]).
    fn clone(&self) -> Self {
        self.state
            .metrics
            .live_snapshots
            .fetch_add(1, Ordering::Relaxed);
        crate::metrics::snapshots_total().inc();
        crate::metrics::live_snapshots_gauge().add(1);
        GraphSnapshot {
            state: Arc::clone(&self.state),
            epoch: self.epoch,
        }
    }
}

impl Drop for GraphSnapshot {
    fn drop(&mut self) {
        self.state
            .metrics
            .live_snapshots
            .fetch_sub(1, Ordering::Relaxed);
        crate::metrics::live_snapshots_gauge().add(-1);
    }
}

impl GraphSnapshot {
    /// The forward multi-relational graph.
    pub fn graph(&self) -> &MultiGraph {
        &self.state.graph
    }

    /// The reversed graph, every edge `(i, α, j)` as `(j, α, i)`. Built
    /// lazily on the first call and cached for the generation this snapshot
    /// pins (see [`StoreStats::reversed_builds`]). Queries never call it:
    /// `In` and `Both` steps read [`GraphSnapshot::csr_in`].
    pub fn reversed(&self) -> &MultiGraph {
        self.state.reversed()
    }

    /// The Out-direction [`CsrTopology`] of the pinned generation. Built
    /// lazily on the first call and cached for the generation (see
    /// [`StoreStats::csr_builds`]).
    pub fn csr_out(&self) -> &CsrTopology {
        self.state.csr_out()
    }

    /// The In-direction [`CsrTopology`] of the pinned generation, built from
    /// the forward graph's in-edge buckets. Pure-`Out` traversals never
    /// trigger this build.
    pub fn csr_in(&self) -> &CsrTopology {
        self.state.csr_in()
    }

    /// Forces the CSR caches of the chosen directions to be built now (a
    /// no-op per direction if already built), so a caller can time or pay
    /// the build apart from the query that would first read it. The
    /// executors never call this: each builds a direction on its first
    /// read.
    pub fn prewarm_csr(&self, out: bool, in_: bool) {
        if out {
            let _ = self.state.csr_out();
        }
        if in_ {
            let _ = self.state.csr_in();
        }
    }

    /// The epoch of the generation this snapshot pins (see
    /// [`PropertyGraph::stats`]).
    pub fn generation(&self) -> u64 {
        self.epoch
    }

    /// The interner mapping names to ids.
    pub fn interner(&self) -> &GraphInterner {
        &self.state.interner
    }

    /// A vertex property value.
    pub fn vertex_property(&self, v: VertexId, key: &str) -> Option<&Value> {
        self.state.vertex_props.get(&v).and_then(|m| m.get(key))
    }

    /// An edge property value.
    pub fn edge_property(&self, e: &Edge, key: &str) -> Option<&Value> {
        self.state.edge_props.get(e).and_then(|m| m.get(key))
    }

    /// All properties of a vertex, sorted by key (empty if none). The sorted
    /// order makes cross-store equality checks deterministic.
    pub fn vertex_properties(&self, v: VertexId) -> Vec<(String, Value)> {
        let mut props: Vec<(String, Value)> = self
            .state
            .vertex_props
            .get(&v)
            .map(|m| m.iter().map(|(k, val)| (k.clone(), val.clone())).collect())
            .unwrap_or_default();
        props.sort_by(|a, b| a.0.cmp(&b.0));
        props
    }

    /// All properties of an edge, sorted by key (empty if none).
    pub fn edge_properties(&self, e: &Edge) -> Vec<(String, Value)> {
        let mut props: Vec<(String, Value)> = self
            .state
            .edge_props
            .get(e)
            .map(|m| m.iter().map(|(k, val)| (k.clone(), val.clone())).collect())
            .unwrap_or_default();
        props.sort_by(|a, b| a.0.cmp(&b.0));
        props
    }

    /// An edge property read as a finite number — the convenience behind
    /// brute-force weight folds in tests and benchmarks (the engine's own
    /// weighted search goes through `WeightSource`, which distinguishes the
    /// missing and non-numeric cases as errors).
    pub fn edge_weight(&self, e: &Edge, key: &str) -> Option<f64> {
        self.edge_property(e, key).and_then(Value::as_finite_number)
    }

    /// All vertices whose property `key` satisfies the predicate.
    pub fn vertices_where(&self, key: &str, pred: &crate::value::Predicate) -> Vec<VertexId> {
        self.state
            .graph
            .vertices()
            .filter(|&v| pred.eval(self.vertex_property(v, key)))
            .collect()
    }

    /// Resolves a label name.
    pub fn label(&self, name: &str) -> Result<LabelId, EngineError> {
        self.state
            .interner
            .get_label(name)
            .ok_or_else(|| EngineError::UnknownLabel(name.to_owned()))
    }

    /// Resolves a vertex name.
    pub fn vertex(&self, name: &str) -> Result<VertexId, EngineError> {
        self.state
            .interner
            .get_vertex(name)
            .ok_or_else(|| EngineError::UnknownVertex(name.to_owned()))
    }

    /// Renders a vertex as its name (falling back to the id).
    pub fn render_vertex(&self, v: VertexId) -> String {
        self.state
            .interner
            .vertex_name(v)
            .map(str::to_owned)
            .unwrap_or_else(|| v.to_string())
    }
}

/// Builds the 6-vertex "TinkerPop classic"-style social/software graph used by
/// examples, tests, and the engine benchmarks: people `know` each other and
/// `created` software, with `age` and `lang` properties.
pub fn classic_social_graph() -> PropertyGraph {
    let g = PropertyGraph::new();
    g.add_vertex_with(
        "marko",
        [("age", Value::from(29i64)), ("kind", Value::from("person"))],
    );
    g.add_vertex_with(
        "vadas",
        [("age", Value::from(27i64)), ("kind", Value::from("person"))],
    );
    g.add_vertex_with(
        "josh",
        [("age", Value::from(32i64)), ("kind", Value::from("person"))],
    );
    g.add_vertex_with(
        "peter",
        [("age", Value::from(35i64)), ("kind", Value::from("person"))],
    );
    g.add_vertex_with(
        "lop",
        [
            ("lang", Value::from("java")),
            ("kind", Value::from("software")),
        ],
    );
    g.add_vertex_with(
        "ripple",
        [
            ("lang", Value::from("java")),
            ("kind", Value::from("software")),
        ],
    );
    g.add_edge_with("marko", "knows", "vadas", [("weight", Value::from(0.5f64))]);
    g.add_edge_with("marko", "knows", "josh", [("weight", Value::from(1.0f64))]);
    g.add_edge_with("marko", "created", "lop", [("weight", Value::from(0.4f64))]);
    g.add_edge_with(
        "josh",
        "created",
        "ripple",
        [("weight", Value::from(1.0f64))],
    );
    g.add_edge_with("josh", "created", "lop", [("weight", Value::from(0.4f64))]);
    g.add_edge_with("peter", "created", "lop", [("weight", Value::from(0.2f64))]);
    g
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::Predicate;

    #[test]
    fn building_the_classic_graph() {
        let g = classic_social_graph();
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 6);
        let marko = g.vertex("marko").unwrap();
        assert_eq!(g.vertex_property(marko, "age"), Some(Value::Int(29)));
        assert!(g.vertex("nobody").is_err());
        assert!(g.label("knows").is_ok());
        assert!(g.label("likes").is_err());
    }

    #[test]
    fn edge_properties_roundtrip() {
        let g = classic_social_graph();
        let marko = g.vertex("marko").unwrap();
        let josh = g.vertex("josh").unwrap();
        let knows = g.label("knows").unwrap();
        let e = Edge::new(marko, knows, josh);
        assert_eq!(g.edge_property(&e, "weight"), Some(Value::Float(1.0)));
        assert_eq!(g.edge_property(&e, "missing"), None);
    }

    #[test]
    fn snapshot_is_isolated_from_later_mutation() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let before = snap.graph().edge_count();
        g.add_edge("vadas", "knows", "peter");
        assert_eq!(snap.graph().edge_count(), before);
        assert_eq!(g.edge_count(), before + 1);
    }

    #[test]
    fn snapshot_reversed_graph_mirrors_edges() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        assert_eq!(snap.reversed().edge_count(), snap.graph().edge_count());
        let marko = snap.vertex("marko").unwrap();
        // in the reversed graph, marko has incoming edges from his out-neighbours
        assert_eq!(
            snap.reversed().in_edges(marko).len(),
            snap.graph().out_edges(marko).len()
        );
    }

    #[test]
    fn vertices_where_filters_on_properties() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let adults = snap.vertices_where("age", &Predicate::Ge(30.0));
        assert_eq!(adults.len(), 2); // josh (32), peter (35)
        let java = snap.vertices_where("lang", &Predicate::Eq(Value::from("java")));
        assert_eq!(java.len(), 2);
        let nobody = snap.vertices_where("nope", &Predicate::Exists);
        assert!(nobody.is_empty());
    }

    #[test]
    fn rendering_and_name_lookups() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let marko = snap.vertex("marko").unwrap();
        assert_eq!(snap.render_vertex(marko), "marko");
        assert_eq!(g.vertex_name(marko), Some("marko".into()));
        let knows = g.label("knows").unwrap();
        assert_eq!(g.label_name(knows), Some("knows".into()));
    }

    #[test]
    fn snapshots_are_o1_until_a_mutation_starts_a_new_generation() {
        let g = classic_social_graph();
        // building never deep-clones: no snapshot pinned any generation
        assert_eq!(g.stats().deep_clones, 0);
        // snapshots are Arc clones — any number of them copy nothing
        let snaps: Vec<GraphSnapshot> = (0..100).map(|_| g.snapshot()).collect();
        assert_eq!(g.stats().deep_clones, 0);
        assert!(snaps
            .windows(2)
            .all(|w| w[0].generation() == w[1].generation()));
        // the first mutation after a snapshot pays the one COW clone…
        g.add_edge("vadas", "knows", "peter");
        assert_eq!(g.stats().deep_clones, 1);
        // …and further mutations are in place (no snapshot pins the new gen)
        g.add_edge("vadas", "knows", "josh");
        g.set_vertex_property(g.vertex("vadas").unwrap(), "age", Value::from(28i64));
        assert_eq!(g.stats().deep_clones, 1);
        // the held snapshots still see the frozen generation
        assert!(snaps.iter().all(|s| s.graph().edge_count() == 6));
        assert_eq!(g.edge_count(), 8);
    }

    #[test]
    fn live_snapshot_gauge_tracks_pins_across_generations() {
        let g = classic_social_graph();
        assert_eq!(g.stats().live_snapshots, 0);
        let a = g.snapshot();
        let b = g.snapshot();
        assert_eq!(g.stats().live_snapshots, 2);
        // clones pin too
        let c = a.clone();
        assert_eq!(g.stats().live_snapshots, 3);
        // snapshots of different generations share the one per-store gauge
        g.add_edge("vadas", "knows", "peter");
        let d = g.snapshot();
        assert_eq!(g.stats().live_snapshots, 4);
        drop(a);
        drop(d);
        assert_eq!(g.stats().live_snapshots, 2);
        drop(b);
        drop(c);
        assert_eq!(g.stats().live_snapshots, 0);
    }

    #[test]
    fn reversed_graph_builds_once_per_generation_and_only_on_demand() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        assert_eq!(g.stats().reversed_builds, 0);
        // two snapshots of one generation share one build
        let snap2 = g.snapshot();
        let _ = snap.reversed();
        assert_eq!(snap2.reversed().edge_count(), 6);
        assert_eq!(g.stats().reversed_builds, 1);
        // a structural mutation starts a generation whose cache is cold…
        g.add_edge("vadas", "knows", "peter");
        assert_eq!(g.snapshot().reversed().edge_count(), 7);
        assert_eq!(g.stats().reversed_builds, 2);
        // …but a property write that mutates in place keeps the cache
        g.set_vertex_property(g.vertex("vadas").unwrap(), "age", Value::from(28i64));
        let _ = g.snapshot().reversed();
        assert_eq!(g.stats().reversed_builds, 2);
        // even a property write that pays the COW clone carries the cache
        // into the new generation (properties cannot change edge structure)
        let pinned = g.snapshot();
        g.set_vertex_property(g.vertex("vadas").unwrap(), "age", Value::from(29i64));
        assert!(g.stats().deep_clones > 0);
        let _ = g.snapshot().reversed();
        assert_eq!(g.stats().reversed_builds, 2, "cache carried across COW");
        drop(pinned);
    }

    #[test]
    fn noop_adds_are_reads_not_mutations() {
        let g = classic_social_graph();
        let gen = g.stats().generation;
        let snap = g.snapshot();
        // re-adding an existing vertex or edge must not bump the epoch, pay
        // a COW clone, or invalidate the reversed cache
        let marko = g.add_vertex("marko");
        let e = g.add_edge("marko", "knows", "vadas");
        assert_eq!(g.stats().generation, gen);
        assert_eq!(g.stats().deep_clones, 0);
        assert_eq!(g.vertex("marko").unwrap(), marko);
        assert_eq!(snap.graph().edge_count(), 6);
        assert!(snap.graph().contains_edge(&e));
    }

    #[test]
    fn remove_edge_by_names_updates_the_store() {
        let g = classic_social_graph();
        assert!(g.remove_edge("marko", "knows", "vadas"));
        assert!(!g.remove_edge("marko", "knows", "vadas"));
        assert!(!g.remove_edge("marko", "likes", "vadas"));
        assert_eq!(g.edge_count(), 5);
        let marko = g.vertex("marko").unwrap();
        let vadas = g.vertex("vadas").unwrap();
        let knows = g.label("knows").unwrap();
        // the edge's properties were dropped with it
        assert_eq!(
            g.edge_property(&Edge::new(marko, knows, vadas), "weight"),
            None
        );
    }

    #[test]
    fn remove_vertex_detaches_edges_and_keeps_snapshots_isolated() {
        let g = classic_social_graph();
        let snap = g.snapshot();
        let marko = g.vertex("marko").unwrap();
        assert!(g.remove_vertex("marko"));
        assert!(!g.remove_vertex("marko")); // already gone: a pure read
        assert!(!g.remove_vertex("nobody"));
        // marko had 3 out-edges and no in-edges
        assert_eq!(g.edge_count(), 3);
        assert_eq!(g.vertex_count(), 5);
        // properties of the vertex and its incident edges went with it
        assert_eq!(g.vertex_property(marko, "age"), None);
        let vadas = g.vertex("vadas").unwrap();
        let knows = g.label("knows").unwrap();
        assert_eq!(
            g.edge_property(&Edge::new(marko, knows, vadas), "weight"),
            None
        );
        // the pre-removal snapshot still sees everything
        assert_eq!(snap.graph().edge_count(), 6);
        assert!(snap.graph().contains_vertex(marko));
        assert_eq!(snap.vertex_property(marko, "age"), Some(&Value::Int(29)));
        // the name stays interned: re-adding reuses the id
        assert_eq!(g.add_vertex("marko"), marko);
        assert_eq!(g.vertex_count(), 6);
        assert_eq!(g.edge_count(), 3); // edges do not come back
    }

    fn temp_store_dir(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("mrpa-store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn durable_store_replays_its_wal_on_reopen() {
        let dir = temp_store_dir("replay");
        {
            let g = PropertyGraph::open(&dir).unwrap();
            assert!(g.is_durable());
            assert_eq!(g.directory().as_deref(), Some(dir.as_path()));
            g.add_edge_with("marko", "knows", "vadas", [("weight", Value::from(0.5f64))]);
            g.add_edge("marko", "knows", "josh");
            g.add_vertex("loner");
            g.remove_edge("marko", "knows", "josh");
            let stats = g.stats();
            assert_eq!(stats.wal_records, 5); // 2 adds + 1 prop + 1 vertex + 1 remove
            assert_eq!(stats.generation, 5);
            assert_eq!(stats.replayed_records, 0);
            g.persist().unwrap();
        }
        let (g, report) = PropertyGraph::open_recover(&dir).unwrap();
        assert_eq!(report.replayed_records, 5);
        assert_eq!(report.checkpoint_epoch, 0);
        assert_eq!(report.epoch, 5);
        assert_eq!(g.stats().replayed_records, 5);
        assert_eq!(g.stats().generation, 5);
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.vertex_count(), 4);
        let marko = g.vertex("marko").unwrap();
        let vadas = g.vertex("vadas").unwrap();
        let knows = g.label("knows").unwrap();
        assert_eq!(
            g.edge_property(&Edge::new(marko, knows, vadas), "weight"),
            Some(Value::Float(0.5))
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_truncates_the_wal_and_survives_reopen() {
        let dir = temp_store_dir("checkpoint");
        {
            let g = PropertyGraph::open(&dir).unwrap();
            for i in 0..10 {
                g.add_edge(&format!("a{i}"), "r", &format!("b{i}"));
            }
            g.checkpoint().unwrap();
            assert_eq!(g.stats().checkpoints, 1);
            // post-checkpoint mutations land in the (now short) WAL
            g.add_edge("a0", "r", "b5");
        }
        let (g, report) = PropertyGraph::open_recover(&dir).unwrap();
        assert_eq!(report.checkpoint_epoch, 10);
        assert_eq!(report.replayed_records, 1);
        assert_eq!(report.skipped_records, 0);
        assert_eq!(g.edge_count(), 11);
        assert_eq!(g.stats().generation, 11);
        // checkpointing a second time with nothing new is fine
        g.checkpoint().unwrap();
        let g2 = PropertyGraph::open(&dir).unwrap();
        assert_eq!(g2.stats().replayed_records, 0);
        assert_eq!(g2.edge_count(), 11);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn wal_failure_poisons_mutations_but_not_reads() {
        let dir = temp_store_dir("poison");
        let g = PropertyGraph::open(&dir).unwrap();
        g.add_edge("a", "r", "b");
        g.arm_failpoint(FailPoint::WalAppend, 0);
        assert_eq!(
            g.try_add_edge("a", "r", "c"),
            Err(StoreError::Injected(FailPoint::WalAppend))
        );
        // the op was not applied, and further mutations are refused…
        assert_eq!(g.edge_count(), 1);
        assert_eq!(g.try_add_vertex("x"), Err(StoreError::Poisoned));
        assert_eq!(g.checkpoint(), Err(StoreError::Poisoned));
        assert_eq!(g.persist(), Err(StoreError::Poisoned));
        // …but reads and snapshots keep working
        assert_eq!(g.snapshot().graph().edge_count(), 1);
        // reopening the directory recovers the acknowledged prefix
        let g = PropertyGraph::open(&dir).unwrap();
        assert_eq!(g.edge_count(), 1);
        g.add_edge("a", "r", "c"); // healthy again
        assert_eq!(g.edge_count(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_store_refuses_durability_calls() {
        let g = classic_social_graph();
        assert!(!g.is_durable());
        assert_eq!(g.directory(), None);
        assert_eq!(g.persist(), Err(StoreError::NotDurable));
        assert_eq!(g.checkpoint(), Err(StoreError::NotDurable));
        assert_eq!(g.stats().wal_records, 0);
        g.arm_failpoint(FailPoint::WalAppend, 0); // no-op, not a panic
        g.add_edge("a", "r", "b");
    }

    #[test]
    fn ingest_edges_batches_through_the_wal() {
        let dir = temp_store_dir("ingest");
        let triples: Vec<(String, String, String)> = (0..100)
            .map(|i| {
                (
                    format!("v{}", i % 20),
                    "r".to_owned(),
                    format!("v{}", (i * 7) % 20),
                )
            })
            .collect();
        let g = PropertyGraph::open(&dir).unwrap();
        let added = g
            .ingest_edges(triples.iter().map(|(t, l, h)| (&**t, &**l, &**h)))
            .unwrap();
        assert!(added <= 100);
        assert_eq!(g.edge_count(), added);
        assert_eq!(g.stats().wal_records, added as u64);
        // duplicates in a second pass are pure reads
        assert_eq!(
            g.ingest_edges(triples.iter().map(|(t, l, h)| (&**t, &**l, &**h)))
                .unwrap(),
            0
        );
        drop(g);
        let g = PropertyGraph::open(&dir).unwrap();
        assert_eq!(g.edge_count(), added);
        assert_eq!(g.stats().replayed_records, added as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_reads_and_writes_do_not_deadlock() {
        let g = classic_social_graph();
        let g2 = g.clone();
        let handle = std::thread::spawn(move || {
            for i in 0..100 {
                g2.add_edge(&format!("p{i}"), "knows", &format!("p{}", i + 1));
            }
            g2.edge_count()
        });
        for _ in 0..100 {
            let _ = g.snapshot().graph().edge_count();
        }
        let count = handle.join().unwrap();
        assert!(count >= 106);
    }
}
