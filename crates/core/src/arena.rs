//! A hash-consed, prefix-sharing arena for paths.
//!
//! The naive representation of a path set — a `Vec<Vec<Edge>>` — pays
//! O(path-length) heap allocation and `memcpy` for *every* output pair of a
//! concatenative join, which dominates the cost of the restricted traversals
//! the paper is about (§III). The arena replaces it with the standard
//! compact representation for path multisets (cf. Martens et al.,
//! *Representing Paths in Graph Database Pattern Matching*, 2022):
//!
//! * a path is a [`PathId`] pointing at a node `(prefix, last_edge)`, so the
//!   paths produced by a traversal share their prefixes structurally;
//! * `a ◦ e` is **one** arena insert (amortised O(1)), not a clone of `a`;
//! * `γ⁻(a)`, `γ⁺(a)`, `‖a‖`, and jointness are O(1) cached fields;
//! * nodes are **hash-consed**: the same edge string always yields the same
//!   `PathId`, so set-level deduplication is integer hashing instead of
//!   hashing whole edge vectors.
//!
//! There are two ways to extend a path, and they differ only in that
//! invariant:
//!
//! * [`append`](PathArena::append) hash-conses `(prefix, edge)` through the
//!   intern map, so ids are canonical. [`PathSet`](crate::pathset::PathSet),
//!   [`traversal`](crate::traversal), the regex generator and
//!   [`IdForwarder`] use it: their set semantics (or the forwarder's
//!   contract that it agrees with [`PathArena::intern`]) need one id per
//!   edge string.
//! * [`ArenaWriter::push`] writes a fresh node and never touches the intern
//!   map. The engine's executors use it: they enumerate walks, a multiset,
//!   whose rows already have distinct prefixes and never compare ids, so the
//!   intern probe would be pure cost. Pushed ids are not canonical, and
//!   [`PathArena::find`]/[`PathArena::intern`] do not see pushed nodes.
//!
//! Reading a path back out ([`PathArena::to_path`], or
//! [`ArenaReader::to_path`] for many ids under one read lock) fills the
//! [`Path`] back to front along the prefix chain. A path of at most three
//! edges is stored inline in its [`Path`], so materialising it allocates
//! nothing; a longer one allocates its edge vector once.
//!
//! Arenas are cheap to clone (an `Arc` handle) and append-only: every
//! `PathId` stays valid for the lifetime of any handle. Interior mutability
//! is behind an `RwLock`; all bulk operations in
//! [`PathSet`](crate::pathset::PathSet) take the lock once per operation, and
//! no lock is ever held across a call into user code.

use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};

use crate::edge::Edge;
use crate::fxhash::FxHashMap;
use crate::ids::VertexId;
use crate::path::Path;
use crate::scratch::{Recycle, ScratchVec, Spares};

/// Identifier of a path within a [`PathArena`].
///
/// `PathId::EPSILON` (index 0) is the empty path ε in every arena. Ids are
/// only meaningful relative to the arena that produced them.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PathId(u32);

impl PathId {
    /// The empty path ε (index 0 of every arena).
    pub const EPSILON: PathId = PathId(0);

    /// Whether this id denotes ε.
    #[inline]
    pub fn is_epsilon(self) -> bool {
        self.0 == 0
    }

    /// The raw arena index.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// One arena node: a path represented as `(prefix, last edge)` with cached
/// projections.
#[derive(Debug, Clone, Copy)]
pub(crate) struct PathNode {
    /// The path with the last edge removed (ε for length-1 paths).
    pub prefix: PathId,
    /// The last edge of the path (unused sentinel for the ε node).
    pub edge: Edge,
    /// `‖a‖`.
    pub len: u32,
    /// `γ⁻(a)` (unused sentinel for ε).
    pub tail: VertexId,
    /// `γ⁺(a)` (unused sentinel for ε).
    pub head: VertexId,
    /// Definition 3 jointness, maintained incrementally.
    pub joint: bool,
}

/// A query builds one arena at a time, so a thread keeps one node buffer.
impl Recycle for PathNode {
    const KEEP: usize = 1;

    fn spares() -> &'static std::thread::LocalKey<Spares<Self>> {
        thread_local!(static SPARES: Spares<PathNode> = const { Spares::new() });
        &SPARES
    }
}

/// Pushes the node for `base ◦ e`, deriving its cached projections from the
/// prefix node, and returns its id.
#[inline]
fn push_node(nodes: &mut Vec<PathNode>, base: PathId, edge: Edge) -> PathId {
    let b = &nodes[base.index()];
    let node = if base.is_epsilon() {
        PathNode {
            prefix: base,
            edge,
            len: 1,
            tail: edge.tail,
            head: edge.head,
            joint: true,
        }
    } else {
        PathNode {
            prefix: base,
            edge,
            len: b.len + 1,
            tail: b.tail,
            head: edge.head,
            joint: b.joint && b.head == edge.tail,
        }
    };
    let id = PathId(u32::try_from(nodes.len()).expect("path arena overflow"));
    nodes.push(node);
    id
}

/// The lock-free interior of an arena; `PathSet` bulk operations work on this
/// through a single guard per operation. The node vector is a
/// [`ScratchVec`]: it starts on the thread's spare and hands its capacity
/// back when the last handle of the arena drops.
#[derive(Debug)]
pub(crate) struct ArenaCore {
    pub nodes: ScratchVec<PathNode>,
    intern: FxHashMap<(PathId, Edge), PathId>,
}

impl ArenaCore {
    fn new() -> Self {
        let sentinel = Edge::new(
            VertexId(u32::MAX),
            crate::ids::LabelId(u32::MAX),
            VertexId(u32::MAX),
        );
        let mut nodes = ScratchVec::take_spare();
        nodes.push(PathNode {
            prefix: PathId::EPSILON,
            edge: sentinel,
            len: 0,
            tail: VertexId(u32::MAX),
            head: VertexId(u32::MAX),
            joint: true,
        });
        ArenaCore {
            nodes,
            intern: FxHashMap::default(),
        }
    }

    /// Hash-consed `base ◦ e`: one map probe and at most one node push.
    #[inline]
    pub fn append(&mut self, base: PathId, edge: Edge) -> PathId {
        match self.intern.entry((base, edge)) {
            std::collections::hash_map::Entry::Occupied(hit) => *hit.get(),
            std::collections::hash_map::Entry::Vacant(slot) => {
                *slot.insert(push_node(&mut self.nodes, base, edge))
            }
        }
    }

    /// Reserves room for `extra` more nodes (amortises rehash/regrow during
    /// bulk steps).
    pub fn reserve(&mut self, extra: usize) {
        self.nodes.reserve(extra);
        self.intern.reserve(extra);
    }

    /// `base ◦ e₁ ◦ … ◦ eₙ` for an edge slice.
    pub fn append_edges(&mut self, base: PathId, edges: &[Edge]) -> PathId {
        edges.iter().fold(base, |acc, &e| self.append(acc, e))
    }

    /// Interns a materialised path, returning its id.
    pub fn intern_path(&mut self, path: &Path) -> PathId {
        self.append_edges(PathId::EPSILON, path.edges())
    }

    /// Looks a materialised path up without interning it.
    pub fn find_path(&self, path: &Path) -> Option<PathId> {
        let mut id = PathId::EPSILON;
        for &e in path.edges() {
            id = *self.intern.get(&(id, e))?;
        }
        Some(id)
    }

    /// The edges of `id` in **reverse** order, walking the prefix chain.
    pub fn edges_rev(&self, id: PathId) -> impl Iterator<Item = Edge> + '_ {
        let mut cur = id;
        std::iter::from_fn(move || {
            if cur.is_epsilon() {
                return None;
            }
            let node = &self.nodes[cur.index()];
            cur = node.prefix;
            Some(node.edge)
        })
    }

    /// The edge string of `id` in forward order.
    pub fn edges_of(&self, id: PathId) -> Vec<Edge> {
        let mut out: Vec<Edge> = self.edges_rev(id).collect();
        out.reverse();
        out
    }

    /// Materialises `id` as a [`Path`], filling it back to front along the
    /// prefix chain: a path of at most three edges allocates nothing.
    pub fn to_path(&self, id: PathId) -> Path {
        Path::from_edges_rev(self.nodes[id.index()].len as usize, self.edges_rev(id))
    }

    /// The label string `ω′` of `id` in forward order.
    pub fn labels_of(&self, id: PathId) -> Vec<crate::ids::LabelId> {
        let mut out: Vec<_> = self.edges_rev(id).map(|e| e.label).collect();
        out.reverse();
        out
    }
}

/// A shareable, append-only, hash-consed path store.
///
/// Cloning an arena clones a handle to the same store; ids are
/// interchangeable between clones. See the module docs for the design.
#[derive(Debug, Clone)]
pub struct PathArena {
    inner: Arc<RwLock<ArenaCore>>,
}

impl Default for PathArena {
    fn default() -> Self {
        Self::new()
    }
}

impl PathArena {
    /// Creates an arena containing only ε.
    pub fn new() -> Self {
        PathArena {
            inner: Arc::new(RwLock::new(ArenaCore::new())),
        }
    }

    /// Whether two handles point at the same store (ids interchangeable).
    pub fn same_store(&self, other: &PathArena) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    pub(crate) fn read(&self) -> RwLockReadGuard<'_, ArenaCore> {
        self.inner.read().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn write(&self) -> RwLockWriteGuard<'_, ArenaCore> {
        self.inner.write().unwrap_or_else(|e| e.into_inner())
    }

    /// Hash-consed `base ◦ e`. The same `(base, e)` pair always returns the
    /// same id (the interning invariant).
    pub fn append(&self, base: PathId, edge: Edge) -> PathId {
        self.write().append(base, edge)
    }

    /// Interns a materialised path (ε-rooted edge string) and returns its id.
    pub fn intern(&self, path: &Path) -> PathId {
        self.write().intern_path(path)
    }

    /// Looks up a materialised path without interning it.
    pub fn find(&self, path: &Path) -> Option<PathId> {
        self.read().find_path(path)
    }

    /// Materialises the path behind `id`.
    pub fn to_path(&self, id: PathId) -> Path {
        self.read().to_path(id)
    }

    /// `‖a‖` in O(1).
    pub fn path_len(&self, id: PathId) -> usize {
        self.read().nodes[id.index()].len as usize
    }

    /// `γ⁻(a)` in O(1); `None` for ε.
    pub fn tail_vertex(&self, id: PathId) -> Option<VertexId> {
        if id.is_epsilon() {
            None
        } else {
            Some(self.read().nodes[id.index()].tail)
        }
    }

    /// `γ⁺(a)` in O(1); `None` for ε.
    pub fn head_vertex(&self, id: PathId) -> Option<VertexId> {
        if id.is_epsilon() {
            None
        } else {
            Some(self.read().nodes[id.index()].head)
        }
    }

    /// Definition 3 jointness in O(1) (ε is treated as joint).
    pub fn is_joint(&self, id: PathId) -> bool {
        self.read().nodes[id.index()].joint
    }

    /// Number of nodes stored — every interned path plus every pushed node
    /// (see [`ArenaWriter::push`]) — plus the ε node.
    pub fn node_count(&self) -> usize {
        self.read().nodes.len()
    }

    /// Acquires a read-locked batch materialiser, for callers that turn
    /// many ids into [`Path`]s at once (e.g. the engine cursor delivering a
    /// chunk of rows): one lock acquisition instead of one per path. Do not
    /// write to this arena while the reader is alive.
    pub fn reader(&self) -> ArenaReader<'_> {
        ArenaReader { core: self.read() }
    }

    /// Acquires a batch appender holding the write lock once, for callers
    /// that append or push in a hot loop (e.g. the engine executors'
    /// expansion steps). Do not call back into this arena while the writer
    /// is alive.
    pub fn writer(&self) -> ArenaWriter<'_> {
        ArenaWriter { core: self.write() }
    }
}

/// Memoized id translation from one arena into another — the copy-free way
/// to move rows across an arena boundary (e.g. the parallel executor's
/// partition → suffix hand-off).
///
/// The naive boundary crossing materialises the path (`to_path`, O(‖a‖)) and
/// re-interns it (O(‖a‖) appends) for **every** row, throwing away the prefix
/// sharing the source arena already established. A forwarder instead maps
/// source [`PathId`]s to destination ids and walks a path's prefix chain only
/// until it hits an already-translated node: each source node is appended
/// into the destination at most once, so forwarding `n` rows costs O(new
/// nodes) total — amortised O(1) per row on prefix-sharing workloads — rather
/// than O(path length) always.
///
/// A forwarder is tied to one `(src, dst)` arena pair; feeding it ids from a
/// different source arena is a logic error (ids are only meaningful relative
/// to their arena). Forwarding between handles of the *same* store is the
/// identity and translates nothing.
#[derive(Debug, Default)]
pub struct IdForwarder {
    map: FxHashMap<PathId, PathId>,
}

impl IdForwarder {
    /// Creates an empty forwarder (only ε is implicitly translated).
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of source nodes translated so far.
    pub fn translated(&self) -> usize {
        self.map.len()
    }

    /// Translates `id` (an id of `src`) into `dst`, reusing every previously
    /// translated prefix. Returns the destination id and the number of fresh
    /// arena appends this call performed — 0 for ε, for same-store pairs, and
    /// for fully memoized paths.
    pub fn forward(&mut self, src: &PathArena, dst: &PathArena, id: PathId) -> (PathId, usize) {
        if id.is_epsilon() || src.same_store(dst) {
            return (id, 0);
        }
        if let Some(&t) = self.map.get(&id) {
            return (t, 0);
        }
        // walk the untranslated suffix of the prefix chain (read lock on the
        // source only, released before touching the destination)
        let mut chain: Vec<(PathId, Edge)> = Vec::new();
        let mut base = PathId::EPSILON;
        {
            let core = src.read();
            let mut cur = id;
            while !cur.is_epsilon() {
                if let Some(&t) = self.map.get(&cur) {
                    base = t;
                    break;
                }
                let node = &core.nodes[cur.index()];
                chain.push((cur, node.edge));
                cur = node.prefix;
            }
        }
        // append the missing nodes oldest-first (write lock on the
        // destination), memoizing each so siblings re-use this prefix
        let appended = chain.len();
        let mut writer = dst.writer();
        for (src_id, edge) in chain.into_iter().rev() {
            base = writer.append(base, edge);
            self.map.insert(src_id, base);
        }
        (base, appended)
    }
}

/// A read-locked batch materialiser over a [`PathArena`]; one lock
/// acquisition amortised over many [`to_path`](ArenaReader::to_path) calls.
pub struct ArenaReader<'a> {
    core: RwLockReadGuard<'a, ArenaCore>,
}

impl ArenaReader<'_> {
    /// Materialises the path behind `id` (see [`PathArena::to_path`]).
    #[inline]
    pub fn to_path(&self, id: PathId) -> Path {
        self.core.to_path(id)
    }
}

/// A write-locked batch appender over a [`PathArena`]; one lock acquisition
/// amortised over many appends.
pub struct ArenaWriter<'a> {
    core: RwLockWriteGuard<'a, ArenaCore>,
}

impl ArenaWriter<'_> {
    /// Hash-consed `base ◦ e` (see [`PathArena::append`]).
    #[inline]
    pub fn append(&mut self, base: PathId, edge: Edge) -> PathId {
        self.core.append(base, edge)
    }

    /// `base ◦ e` as a fresh node with the same cached `‖a‖`/`γ⁻`/`γ⁺`/
    /// jointness as [`append`](ArenaWriter::append), but no intern probe.
    ///
    /// The contract is weaker: ids are **not canonical** — pushing the same
    /// `(base, e)` twice yields two ids with equal paths — and
    /// [`PathArena::find`]/[`PathArena::intern`] do not see pushed nodes
    /// (interning the same edge string appends a separate node). Use it for
    /// walk enumeration, where rows are a multiset and ids are never
    /// compared; keep `append` wherever set semantics need one id per path.
    #[inline]
    pub fn push(&mut self, base: PathId, edge: Edge) -> PathId {
        push_node(&mut self.core.nodes, base, edge)
    }

    /// Reserves room for `extra` more nodes.
    pub fn reserve(&mut self, extra: usize) {
        self.core.reserve(extra);
    }

    /// Number of nodes stored so far, readable while the write lock is
    /// held — [`PathArena::node_count`] would deadlock against a live
    /// writer. Memory accounting polls this between append batches.
    #[inline]
    pub fn node_count(&self) -> usize {
        self.core.nodes.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::LabelId;

    fn e(i: u32, l: u32, j: u32) -> Edge {
        Edge::from((i, l, j))
    }

    #[test]
    fn epsilon_is_preinterned() {
        let arena = PathArena::new();
        assert_eq!(arena.node_count(), 1);
        assert_eq!(arena.path_len(PathId::EPSILON), 0);
        assert!(arena.is_joint(PathId::EPSILON));
        assert_eq!(arena.tail_vertex(PathId::EPSILON), None);
        assert_eq!(arena.head_vertex(PathId::EPSILON), None);
        assert_eq!(arena.to_path(PathId::EPSILON), Path::epsilon());
    }

    #[test]
    fn append_caches_projections() {
        let arena = PathArena::new();
        let a = arena.append(PathId::EPSILON, e(0, 0, 1));
        let ab = arena.append(a, e(1, 1, 2));
        assert_eq!(arena.path_len(ab), 2);
        assert_eq!(arena.tail_vertex(ab), Some(VertexId(0)));
        assert_eq!(arena.head_vertex(ab), Some(VertexId(2)));
        assert!(arena.is_joint(ab));
        assert_eq!(
            arena.to_path(ab),
            Path::from_edges([e(0, 0, 1), e(1, 1, 2)])
        );
    }

    #[test]
    fn disjoint_seams_clear_the_joint_flag() {
        let arena = PathArena::new();
        let a = arena.append(PathId::EPSILON, e(0, 0, 1));
        let ax = arena.append(a, e(5, 0, 6));
        assert!(!arena.is_joint(ax));
        // and the flag stays false for every extension
        let axy = arena.append(ax, e(6, 0, 7));
        assert!(!arena.is_joint(axy));
    }

    #[test]
    fn interning_is_canonical() {
        // the interning invariant: the same edge sequence always produces the
        // same PathId, whether built edge-by-edge or interned at once
        let arena = PathArena::new();
        let p = Path::from_edges([e(0, 0, 1), e(1, 1, 2), e(2, 0, 0)]);
        let id1 = arena.intern(&p);
        let id2 = arena.intern(&p);
        assert_eq!(id1, id2);
        let by_append = {
            let a = arena.append(PathId::EPSILON, e(0, 0, 1));
            let b = arena.append(a, e(1, 1, 2));
            arena.append(b, e(2, 0, 0))
        };
        assert_eq!(id1, by_append);
        assert_eq!(arena.find(&p), Some(id1));
        assert_eq!(arena.find(&Path::from_edge(e(9, 9, 9))), None);
    }

    #[test]
    fn push_skips_the_intern_map() {
        let arena = PathArena::new();
        let a = arena.append(PathId::EPSILON, e(0, 0, 1));
        let (x, y) = {
            let mut w = arena.writer();
            (w.push(a, e(1, 1, 2)), w.push(a, e(1, 1, 2)))
        };
        // two pushes of one `(base, e)` give two ids…
        assert_ne!(x, y);
        // …with append's projections and the same path…
        let path = Path::from_edges([e(0, 0, 1), e(1, 1, 2)]);
        for id in [x, y] {
            assert_eq!(arena.path_len(id), 2);
            assert_eq!(arena.tail_vertex(id), Some(VertexId(0)));
            assert_eq!(arena.head_vertex(id), Some(VertexId(2)));
            assert!(arena.is_joint(id));
            assert_eq!(arena.to_path(id), path);
        }
        // …that the intern map never saw
        assert_eq!(arena.find(&path), None);
        let interned = arena.intern(&path);
        assert!(interned != x && interned != y);
        assert_eq!(arena.find(&path), Some(interned));
        // jointness is maintained the same way across a disjoint seam
        let ax = arena.writer().push(a, e(5, 0, 6));
        let axy = arena.writer().push(ax, e(6, 0, 7));
        assert!(!arena.is_joint(ax));
        assert!(!arena.is_joint(axy));
    }

    #[test]
    fn prefixes_are_shared() {
        let arena = PathArena::new();
        let before = arena.node_count();
        let a = arena.append(PathId::EPSILON, e(0, 0, 1));
        let _ab = arena.append(a, e(1, 0, 2));
        let _ac = arena.append(a, e(1, 0, 3));
        // three nodes for three paths: a, ab, ac — the shared prefix a is stored once
        assert_eq!(arena.node_count(), before + 3);
    }

    #[test]
    fn forwarding_translates_and_memoizes_prefixes() {
        let src = PathArena::new();
        let a = src.append(PathId::EPSILON, e(0, 0, 1));
        let ab = src.append(a, e(1, 0, 2));
        let ac = src.append(a, e(1, 1, 3));

        let dst = PathArena::new();
        let mut fwd = IdForwarder::new();
        // first path pays one append per node…
        let (t_ab, n_ab) = fwd.forward(&src, &dst, ab);
        assert_eq!(n_ab, 2);
        assert_eq!(dst.to_path(t_ab), src.to_path(ab));
        // …its sibling re-uses the translated prefix `a`
        let (t_ac, n_ac) = fwd.forward(&src, &dst, ac);
        assert_eq!(n_ac, 1);
        assert_eq!(dst.to_path(t_ac), src.to_path(ac));
        // …and repeats are fully memoized
        assert_eq!(fwd.forward(&src, &dst, ab), (t_ab, 0));
        assert_eq!(
            fwd.forward(&src, &dst, a),
            (dst.find(&src.to_path(a)).unwrap(), 0)
        );
        assert_eq!(fwd.translated(), 3);
    }

    #[test]
    fn forwarding_epsilon_and_same_store_is_the_identity() {
        let src = PathArena::new();
        let dst = PathArena::new();
        let mut fwd = IdForwarder::new();
        assert_eq!(
            fwd.forward(&src, &dst, PathId::EPSILON),
            (PathId::EPSILON, 0)
        );
        let a = src.append(PathId::EPSILON, e(0, 0, 1));
        let same = src.clone();
        assert_eq!(fwd.forward(&src, &same, a), (a, 0));
        assert_eq!(fwd.translated(), 0);
    }

    #[test]
    fn forwarding_agrees_with_materialise_and_intern() {
        // the forwarder is a pure optimisation: its destination ids are
        // exactly the ids interning the materialised paths would produce
        let src = PathArena::new();
        let mut ids = Vec::new();
        let mut cur = PathId::EPSILON;
        for i in 0..20u32 {
            cur = src.append(cur, e(i, i % 3, i + 1));
            ids.push(cur);
        }
        let dst = PathArena::new();
        let mut fwd = IdForwarder::new();
        let mut total = 0usize;
        for &id in &ids {
            let (t, n) = fwd.forward(&src, &dst, id);
            total += n;
            assert_eq!(t, dst.intern(&src.to_path(id)));
        }
        // the whole chain cost one append per distinct node, not per row
        assert_eq!(total, 20);
    }

    #[test]
    fn clones_share_the_store() {
        let arena = PathArena::new();
        let clone = arena.clone();
        let id = arena.append(PathId::EPSILON, e(0, 0, 1));
        assert!(arena.same_store(&clone));
        assert_eq!(clone.to_path(id), Path::from_edge(e(0, 0, 1)));
        assert!(!arena.same_store(&PathArena::new()));
        let _ = LabelId(0);
    }
}
