//! Path sets: elements of `P(E*)` and the operations `∪`, `⋈◦`, `×◦` (§II).
//!
//! A [`PathSet`] is a finite set of paths backed by a hash-consed
//! [`PathArena`]: each element is a [`PathId`] whose node caches `γ⁻`, `γ⁺`,
//! `‖a‖`, and jointness, and whose prefix chain *shares structure* with the
//! paths it was built from. The representation is what makes the paper's
//! restricted traversals cheap:
//!
//! * `A ⋈◦ {e ∈ E}` appends one arena node per output pair — no edge-vector
//!   clone, no per-pair allocation (see [`PathSet::step_join`] for the
//!   frontier-driven single-hop form the traversal evaluators use);
//! * deduplication hashes a `u32` id instead of a whole edge vector;
//! * `union` of same-arena sets is an id merge.
//!
//! The two concatenative operations are:
//!
//! * [`PathSet::join`] — `A ⋈◦ B = {a ◦ b | a ∈ A ∧ b ∈ B ∧ (a = ε ∨ b = ε ∨
//!   γ⁺(a) = γ⁻(b))}`, the order-preserving analogue of Codd's θ-join
//!   (equijoin on head/tail vertices).
//! * [`PathSet::product`] — `A ×◦ B = {a ◦ b | a ∈ A ∧ b ∈ B}`, the Cartesian
//!   concatenation that also produces disjoint paths (used e.g. for
//!   "teleportation" in priors-based algorithms, footnote 5).
//!
//! `A ⋈◦ B ⊆ A ×◦ B` always holds (footnote 7); experiment E5 quantifies the
//! efficiency gap between evaluating the join directly versus filtering the
//! product. [`PathSet::join_naive`] is retained as the O(|A|·|B|) correctness
//! oracle.
//!
//! Sets keep insertion order for deterministic display and iteration.
//! Iteration materialises paths on demand ([`PathSet::iter`] yields owned
//! [`Path`] values); projections (`endpoints`, `head_vertices`, restriction
//! by endpoint) never materialise at all.

use std::collections::{HashMap, HashSet};

use crate::arena::{PathArena, PathId};
use crate::edge::Edge;
use crate::fxhash::{FxHashMap, FxHashSet};
use crate::graph::MultiGraph;
use crate::ids::{LabelId, VertexId};
use crate::path::Path;
use crate::pattern::{EdgePattern, Position};

/// A finite set of paths `A ∈ P(E*)` with deterministic iteration order,
/// backed by a prefix-sharing [`PathArena`].
#[derive(Debug, Clone)]
pub struct PathSet {
    arena: PathArena,
    ids: Vec<PathId>,
    seen: FxHashSet<PathId>,
}

impl Default for PathSet {
    fn default() -> Self {
        Self::new()
    }
}

impl PathSet {
    /// Creates an empty path set (∅) with a fresh arena.
    pub fn new() -> Self {
        Self::new_in(&PathArena::new())
    }

    /// Creates an empty path set sharing an existing arena. Joins, steps, and
    /// unions of sets over one arena stay allocation-free per shared prefix.
    pub fn new_in(arena: &PathArena) -> Self {
        PathSet {
            arena: arena.clone(),
            ids: Vec::new(),
            seen: FxHashSet::default(),
        }
    }

    /// Creates an empty path set with the given capacity (fresh arena).
    pub fn with_capacity(capacity: usize) -> Self {
        PathSet {
            arena: PathArena::new(),
            ids: Vec::with_capacity(capacity),
            seen: HashSet::with_capacity_and_hasher(capacity, Default::default()),
        }
    }

    /// The singleton `{ε}` — the identity of `⋈◦` and `×◦` and the initial
    /// stack element of the §IV-B generator automaton.
    pub fn epsilon() -> Self {
        Self::epsilon_in(&PathArena::new())
    }

    /// The singleton `{ε}` sharing an existing arena.
    pub fn epsilon_in(arena: &PathArena) -> Self {
        let mut s = PathSet::new_in(arena);
        s.insert_id(PathId::EPSILON);
        s
    }

    /// The arena backing this set.
    pub fn arena(&self) -> &PathArena {
        &self.arena
    }

    /// The element ids in insertion order (meaningful relative to
    /// [`PathSet::arena`]).
    pub fn ids(&self) -> &[PathId] {
        &self.ids
    }

    /// Builds a path set from every edge in the graph: the full edge set `E`
    /// viewed as length-1 paths (`[_,_,_]` in the §IV-A notation).
    pub fn from_graph(graph: &MultiGraph) -> Self {
        PathSet::from_edges(graph.edges().copied())
    }

    /// Builds a path set from an iterator of edges (each a length-1 path).
    pub fn from_edges<I: IntoIterator<Item = Edge>>(edges: I) -> Self {
        let mut out = PathSet::new();
        let arena = out.arena.clone();
        let mut core = arena.write();
        for e in edges {
            let id = core.append(PathId::EPSILON, e);
            out.insert_id(id);
        }
        out
    }

    /// Builds a path set from an iterator of paths.
    pub fn from_paths<I: IntoIterator<Item = Path>>(paths: I) -> Self {
        let mut out = PathSet::new();
        let arena = out.arena.clone();
        let mut core = arena.write();
        for p in paths {
            let id = core.intern_path(&p);
            out.insert_id(id);
        }
        out
    }

    /// Inserts a path; returns `true` if it was not already present.
    pub fn insert(&mut self, path: Path) -> bool {
        let id = self.arena.write().intern_path(&path);
        self.insert_id(id)
    }

    /// Inserts a path by id. The id must come from this set's arena (or an
    /// arena for which [`PathArena::same_store`] holds). Returns `true` if
    /// the path was not already present.
    pub fn insert_id(&mut self, id: PathId) -> bool {
        if self.seen.insert(id) {
            self.ids.push(id);
            true
        } else {
            false
        }
    }

    /// Whether the set contains the given path. The lookup walks the arena's
    /// intern table (O(`‖path‖`)), never materialising anything.
    pub fn contains(&self, path: &Path) -> bool {
        match self.arena.read().find_path(path) {
            Some(id) => self.seen.contains(&id),
            None => false,
        }
    }

    /// Whether the set contains the path with this id (same-arena ids only).
    pub fn contains_id(&self, id: PathId) -> bool {
        self.seen.contains(&id)
    }

    /// Number of paths in the set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the set is ∅.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Materialises every path, in insertion order.
    pub fn paths(&self) -> Vec<Path> {
        let core = self.arena.read();
        self.ids.iter().map(|&id| core.to_path(id)).collect()
    }

    /// Iterates over the paths in insertion order, materialising each one.
    ///
    /// The iterator yields owned [`Path`] values: elements live in the arena,
    /// not as stored edge vectors. Endpoint/length queries are cheaper
    /// through [`PathSet::head_vertices`] / [`PathSet::length_histogram`] /
    /// [`PathSet::endpoints`], which never materialise — and read-only
    /// consumers that need per-path detail should prefer the borrowing
    /// cursor behind [`PathSet::view`], which materialises nothing at all.
    pub fn iter(&self) -> std::vec::IntoIter<Path> {
        self.paths().into_iter()
    }

    /// Takes a read-locked, zero-copy view of the set: [`PathSetView::iter`]
    /// yields borrowing [`PathRef`] cursors over the arena nodes instead of
    /// materialised [`Path`]s.
    ///
    /// The view holds the arena's read lock for its whole lifetime, which is
    /// what makes the borrows possible — so, like [`PathArena::writer`], **do
    /// not call back into this arena** (inserts, joins, `to_path` on the set,
    /// …) while a view is alive. Multiple views may coexist (read locks are
    /// shared).
    ///
    /// ```
    /// use mrpa_core::pathset::PathSet;
    /// use mrpa_core::{Edge, VertexId};
    /// let set = PathSet::from_edges([Edge::from((0, 0, 1)), Edge::from((1, 0, 2))]);
    /// let view = set.view();
    /// // projections and label scans without a single allocation
    /// assert!(view.iter().all(|p| p.len() == 1));
    /// assert_eq!(view.iter().filter(|p| p.head() == Some(VertexId(2))).count(), 1);
    /// ```
    pub fn view(&self) -> PathSetView<'_> {
        PathSetView {
            core: self.arena.read(),
            ids: &self.ids,
        }
    }

    /// Keeps only paths satisfying a predicate over borrowing [`PathRef`]s —
    /// the zero-materialisation form of [`PathSet::filter`]. The arena's
    /// read lock is held across predicate calls, so the predicate must not
    /// call back into this arena (project through the `PathRef` instead).
    pub fn filter_refs<F: Fn(PathRef<'_>) -> bool>(&self, pred: F) -> PathSet {
        let mut keep = Vec::new();
        {
            let view = self.view();
            for (i, r) in view.iter().enumerate() {
                if pred(r) {
                    keep.push(self.ids[i]);
                }
            }
        }
        let mut out = PathSet::new_in(&self.arena);
        for id in keep {
            out.insert_id(id);
        }
        out
    }

    /// `A ∪ B`: set union. Cloning `self` is O(|A|) id copies (the arena is
    /// shared, not copied); see [`PathSet::merge`] for the in-place form.
    pub fn union(&self, other: &PathSet) -> PathSet {
        let mut out = self.clone();
        out.merge(other);
        out
    }

    /// In-place union: `self ← self ∪ other`. Same-arena merges move ids
    /// only; cross-arena merges re-intern `other`'s paths once.
    pub fn merge(&mut self, other: &PathSet) {
        if self.arena.same_store(&other.arena) {
            for &id in &other.ids {
                self.insert_id(id);
            }
            return;
        }
        // Phase 1: materialise the foreign set (single read lock, then release).
        let foreign: Vec<Vec<Edge>> = {
            let core = other.arena.read();
            other.ids.iter().map(|&id| core.edges_of(id)).collect()
        };
        // Phase 2: intern into our arena (single write lock).
        let arena = self.arena.clone();
        let mut core = arena.write();
        for edges in &foreign {
            let id = core.append_edges(PathId::EPSILON, edges);
            self.insert_id(id);
        }
    }

    /// `A ⋈◦ B`: the concatenative join. Only pairs with `γ⁺(a) = γ⁻(b)` (or
    /// an ε operand) are concatenated, so every produced path is joint
    /// whenever the operands are joint.
    ///
    /// Evaluation is index-accelerated (`B` bucketed by `γ⁻`, giving
    /// `O(|A| + |B| + |output|)` pair enumeration) and arena-backed: each
    /// output pair costs `‖b‖` hash-consed appends onto the *shared* arena
    /// node of `a` — for the edge-set operands of §III traversals that is one
    /// append, never a clone of `a`. An ε in `A` contributes `B` exactly once
    /// (hoisted out of the pair loop); an ε in `B` contributes `A` by id.
    pub fn join(&self, other: &PathSet) -> PathSet {
        let mut out = PathSet::new_in(&self.arena);
        // Phase 1: snapshot B's edge strings, bucketed by tail vertex
        // (single read lock on B's arena, released before phase 2 so
        // self-joins over one arena cannot deadlock).
        let mut b_strings: Vec<Vec<Edge>> = Vec::with_capacity(other.ids.len());
        let mut by_tail: FxHashMap<VertexId, Vec<usize>> = FxHashMap::default();
        let mut b_has_eps = false;
        {
            let core = other.arena.read();
            for &b in &other.ids {
                if b.is_epsilon() {
                    b_has_eps = true;
                    continue;
                }
                let idx = b_strings.len();
                by_tail
                    .entry(core.nodes[b.index()].tail)
                    .or_default()
                    .push(idx);
                b_strings.push(core.edges_of(b));
            }
        }
        // Phase 2: build the output in A's arena (single write lock).
        let arena = self.arena.clone();
        let mut core = arena.write();
        if self.seen.contains(&PathId::EPSILON) {
            // ε ◦ b = b for every b ∈ B, contributed once regardless of how
            // the ε was inserted.
            if b_has_eps {
                out.insert_id(PathId::EPSILON);
            }
            for edges in &b_strings {
                let id = core.append_edges(PathId::EPSILON, edges);
                out.insert_id(id);
            }
        }
        for &a in &self.ids {
            if a.is_epsilon() {
                continue;
            }
            let head = core.nodes[a.index()].head;
            if let Some(bucket) = by_tail.get(&head) {
                for &idx in bucket {
                    let id = core.append_edges(a, &b_strings[idx]);
                    out.insert_id(id);
                }
            }
            if b_has_eps {
                // a ◦ ε = a: the id itself, zero appends.
                out.insert_id(a);
            }
        }
        out
    }

    /// Naive `O(|A|·|B|)` evaluation of `A ⋈◦ B` over materialised paths,
    /// retained as the correctness oracle for the arena-backed
    /// [`PathSet::join`] and as the baseline of the E5 ablation (indexed vs
    /// naive join). Semantically identical to [`PathSet::join`].
    pub fn join_naive(&self, other: &PathSet) -> PathSet {
        let mut out = PathSet::new();
        for a in self.iter() {
            for b in other.iter() {
                if let Some(ab) = a.join(&b) {
                    out.insert(ab);
                }
            }
        }
        out
    }

    /// `A ×◦ B`: the concatenative (Cartesian) product; disjoint
    /// concatenations are kept.
    pub fn product(&self, other: &PathSet) -> PathSet {
        let mut out = PathSet::new_in(&self.arena);
        let b_strings: Vec<Vec<Edge>> = {
            let core = other.arena.read();
            other.ids.iter().map(|&b| core.edges_of(b)).collect()
        };
        let arena = self.arena.clone();
        let mut core = arena.write();
        for &a in &self.ids {
            for edges in &b_strings {
                let id = core.append_edges(a, edges);
                out.insert_id(id);
            }
        }
        out
    }

    /// One frontier-driven hop: `A ⋈◦ {e ∈ E | pattern accepts e}`, evaluated
    /// against the graph's adjacency indexes instead of materialising the
    /// pattern's edge set and re-bucketing it.
    ///
    /// For every non-ε path the candidate edges come straight from
    /// `out_edges(γ⁺(a))` (or `out_edges_labeled` when the pattern pins
    /// labels), so the cost is O(frontier degree), one arena append per
    /// output, and zero per-step `HashMap` rebuilds. ε elements contribute
    /// the pattern's full selection (they start fresh paths). Semantically
    /// identical to `self.join(&pattern.select_paths(graph))`.
    pub fn step_join(&self, graph: &MultiGraph, pattern: &EdgePattern) -> PathSet {
        let mut out = PathSet::new_in(&self.arena);
        let arena = self.arena.clone();
        let mut core = arena.write();
        // Upper-bound the output by the frontier's (pattern-restricted)
        // out-degree and reserve once, so the hot append loop never rehashes
        // or regrows. Paths failing the tail position and labels the pattern
        // pins are excluded, so a selective step reserves proportionally.
        let estimate: usize = self
            .ids
            .iter()
            .map(|&a| {
                if a.is_epsilon() {
                    return graph.edge_count();
                }
                let head = core.nodes[a.index()].head;
                if !pattern.tail.matches(&head) {
                    return 0;
                }
                match &pattern.label {
                    Position::Is(l) => graph.out_edges_labeled(head, *l).len(),
                    Position::In(labels) => labels
                        .iter()
                        .map(|l| graph.out_edges_labeled(head, *l).len())
                        .sum(),
                    _ => graph.out_degree(head),
                }
            })
            .sum();
        core.reserve(estimate);
        out.ids.reserve(estimate);
        out.seen.reserve(estimate);
        for &a in &self.ids {
            if a.is_epsilon() {
                for e in pattern.select(graph) {
                    let id = core.append(PathId::EPSILON, e);
                    out.insert_id(id);
                }
                continue;
            }
            let head = core.nodes[a.index()].head;
            if !pattern.tail.matches(&head) {
                continue;
            }
            match &pattern.label {
                Position::Is(l) => {
                    for e in graph.out_edges_labeled(head, *l) {
                        if pattern.head.matches(&e.head) {
                            let id = core.append(a, *e);
                            out.insert_id(id);
                        }
                    }
                }
                Position::In(labels) => {
                    for l in labels {
                        for e in graph.out_edges_labeled(head, *l) {
                            if pattern.head.matches(&e.head) {
                                let id = core.append(a, *e);
                                out.insert_id(id);
                            }
                        }
                    }
                }
                _ => {
                    for e in graph.out_edges(head) {
                        if pattern.label.matches(&e.label) && pattern.head.matches(&e.head) {
                            let id = core.append(a, *e);
                            out.insert_id(id);
                        }
                    }
                }
            }
        }
        out
    }

    /// One frontier-driven hop against an arbitrary edge predicate:
    /// `A ⋈◦ {e ∈ E | accept(e)}`. Like [`PathSet::step_join`] but for callers
    /// whose edge sets are not [`EdgePattern`]s (e.g. the explicit edge-set
    /// atoms of regular path expressions).
    pub fn step_join_where<F: Fn(&Edge) -> bool>(&self, graph: &MultiGraph, accept: F) -> PathSet {
        // Phase 1: snapshot the frontier heads (read lock only), then run the
        // user predicate with NO lock held — `accept` may touch this arena
        // (e.g. probe another set sharing it) and the RwLock is not
        // reentrant.
        let heads: Vec<(PathId, Option<VertexId>)> = {
            let core = self.arena.read();
            self.ids
                .iter()
                .map(|&a| {
                    if a.is_epsilon() {
                        (a, None)
                    } else {
                        (a, Some(core.nodes[a.index()].head))
                    }
                })
                .collect()
        };
        let mut accepted: Vec<(PathId, Edge)> = Vec::new();
        for &(a, head) in &heads {
            match head {
                None => {
                    for e in graph.edges() {
                        if accept(e) {
                            accepted.push((PathId::EPSILON, *e));
                        }
                    }
                }
                Some(h) => {
                    for e in graph.out_edges(h) {
                        if accept(e) {
                            accepted.push((a, *e));
                        }
                    }
                }
            }
        }
        // Phase 2: append everything under a single write lock.
        let mut out = PathSet::new_in(&self.arena);
        let arena = self.arena.clone();
        let mut core = arena.write();
        core.reserve(accepted.len());
        out.ids.reserve(accepted.len());
        out.seen.reserve(accepted.len());
        for (base, e) in accepted {
            let id = core.append(base, e);
            out.insert_id(id);
        }
        out
    }

    /// The set `{reverse(a) | a ∈ A}` with every edge reversed — the
    /// re-orientation step of destination traversals evaluated on the
    /// reversed graph.
    ///
    /// Walks each path's suffix chain (which is already reverse order)
    /// appending reversed edges straight into the output arena: one pass per
    /// path, no intermediate materialised `Path`s, and shared suffixes
    /// become shared prefixes in the output.
    pub fn reversed_paths(&self) -> PathSet {
        let mut out = PathSet::new();
        let out_arena = out.arena.clone();
        let src = self.arena.read();
        // distinct locks: `out_arena` was created above and has no other
        // holder, so nesting the guards cannot deadlock
        let mut dst = out_arena.write();
        for &id in &self.ids {
            let mut cur = id;
            let mut acc = PathId::EPSILON;
            while !cur.is_epsilon() {
                let node = &src.nodes[cur.index()];
                acc = dst.append(acc, node.edge.reversed());
                cur = node.prefix;
            }
            out.insert_id(acc);
        }
        out
    }

    /// Repeated self-join: `A ⋈◦ A ⋈◦ … ⋈◦ A` (`n` operands). `n = 0` yields
    /// `{ε}` (the empty join), `n = 1` yields `A` itself. This is the paper's
    /// `Rⁿ` (footnote 8) and the building block of complete traversals
    /// (§III-A).
    pub fn join_power(&self, n: usize) -> PathSet {
        match n {
            0 => PathSet::epsilon(),
            _ => {
                let mut acc = self.clone();
                for _ in 1..n {
                    acc = acc.join(self);
                }
                acc
            }
        }
    }

    /// Keeps only the paths whose tail vertex is in `allowed` — the left
    /// restriction underlying source traversals (§III-B). ε paths are
    /// dropped. O(|A|) field reads, no materialisation.
    pub fn restrict_tails(&self, allowed: &HashSet<VertexId>) -> PathSet {
        let core = self.arena.read();
        let mut out = PathSet::new_in(&self.arena);
        for &id in &self.ids {
            if !id.is_epsilon() && allowed.contains(&core.nodes[id.index()].tail) {
                out.insert_id(id);
            }
        }
        out
    }

    /// Keeps only the paths whose head vertex is in `allowed` — the right
    /// restriction underlying destination traversals (§III-C). ε paths are
    /// dropped. O(|A|) field reads, no materialisation.
    pub fn restrict_heads(&self, allowed: &HashSet<VertexId>) -> PathSet {
        let core = self.arena.read();
        let mut out = PathSet::new_in(&self.arena);
        for &id in &self.ids {
            if !id.is_epsilon() && allowed.contains(&core.nodes[id.index()].head) {
                out.insert_id(id);
            }
        }
        out
    }

    /// Keeps only the paths whose path label `ω′(a)` equals `labels`
    /// (allocation-free: a borrowed label scan along each prefix chain).
    pub fn restrict_path_label(&self, labels: &[LabelId]) -> PathSet {
        self.filter_refs(|r| r.label_word_is(labels))
    }

    /// Keeps only paths satisfying the predicate (each candidate is
    /// materialised once; the survivors keep their arena ids).
    pub fn filter<F: Fn(&Path) -> bool>(&self, pred: F) -> PathSet {
        let materialised: Vec<(PathId, Path)> = {
            let core = self.arena.read();
            self.ids.iter().map(|&id| (id, core.to_path(id))).collect()
        };
        let mut out = PathSet::new_in(&self.arena);
        for (id, path) in &materialised {
            if pred(path) {
                out.insert_id(*id);
            }
        }
        out
    }

    /// Keeps only joint paths (Definition 3). O(|A|): jointness is a cached
    /// node flag.
    pub fn joint_only(&self) -> PathSet {
        let core = self.arena.read();
        let mut out = PathSet::new_in(&self.arena);
        for &id in &self.ids {
            if core.nodes[id.index()].joint {
                out.insert_id(id);
            }
        }
        out
    }

    /// Whether every path in the set is joint (O(|A|) flag reads).
    pub fn all_joint(&self) -> bool {
        let core = self.arena.read();
        self.ids.iter().all(|&id| core.nodes[id.index()].joint)
    }

    /// Whether `self ⊆ other`.
    pub fn is_subset_of(&self, other: &PathSet) -> bool {
        if self.arena.same_store(&other.arena) {
            return self.ids.iter().all(|id| other.seen.contains(id));
        }
        let own: Vec<Path> = self.paths();
        own.iter().all(|p| other.contains(p))
    }

    /// Set equality (independent of insertion order and backing arena).
    pub fn set_eq(&self, other: &PathSet) -> bool {
        self.len() == other.len() && self.is_subset_of(other)
    }

    /// Projects the endpoint pairs `(γ⁻(a), γ⁺(a))` of every non-ε path — the
    /// §IV-C construction `E_αβ = ⋃_{a ∈ A ⋈◦ B} (γ⁻(a), γ⁺(a))`,
    /// deduplicated. O(|A|) field reads.
    pub fn endpoints(&self) -> Vec<(VertexId, VertexId)> {
        let core = self.arena.read();
        let mut out: Vec<(VertexId, VertexId)> = self
            .ids
            .iter()
            .filter(|id| !id.is_epsilon())
            .map(|&id| {
                let node = &core.nodes[id.index()];
                (node.tail, node.head)
            })
            .collect();
        drop(core);
        out.sort_unstable();
        out.dedup();
        out
    }

    /// The multiset of path labels `ω′(a)` for every path in the set.
    pub fn path_labels(&self) -> Vec<Vec<LabelId>> {
        let core = self.arena.read();
        self.ids.iter().map(|&id| core.labels_of(id)).collect()
    }

    /// The distinct head vertices of the paths in the set (the traversal
    /// "frontier" after this step). O(|A|) field reads.
    pub fn head_vertices(&self) -> HashSet<VertexId> {
        let core = self.arena.read();
        self.ids
            .iter()
            .filter(|id| !id.is_epsilon())
            .map(|&id| core.nodes[id.index()].head)
            .collect()
    }

    /// The distinct tail vertices of the paths in the set.
    pub fn tail_vertices(&self) -> HashSet<VertexId> {
        let core = self.arena.read();
        self.ids
            .iter()
            .filter(|id| !id.is_epsilon())
            .map(|&id| core.nodes[id.index()].tail)
            .collect()
    }

    /// Length histogram: map from `‖a‖` to the number of paths of that
    /// length. O(|A|) field reads.
    pub fn length_histogram(&self) -> HashMap<usize, usize> {
        let core = self.arena.read();
        let mut h = HashMap::new();
        for &id in &self.ids {
            *h.entry(core.nodes[id.index()].len as usize).or_insert(0) += 1;
        }
        h
    }
}

/// A read-locked, zero-copy view of a [`PathSet`] (see [`PathSet::view`]).
///
/// Holding the view holds the backing arena's read lock; drop it before
/// mutating the arena or the set.
pub struct PathSetView<'s> {
    core: std::sync::RwLockReadGuard<'s, crate::arena::ArenaCore>,
    ids: &'s [PathId],
}

impl PathSetView<'_> {
    /// Number of paths in the viewed set.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the viewed set is ∅.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Iterates over the set in insertion order, yielding borrowing
    /// [`PathRef`]s — no path is materialised.
    pub fn iter(&self) -> impl Iterator<Item = PathRef<'_>> + '_ {
        self.ids.iter().map(move |&id| PathRef {
            core: &self.core,
            id,
        })
    }

    /// The `idx`-th path of the set (insertion order), as a borrowing ref.
    pub fn get(&self, idx: usize) -> Option<PathRef<'_>> {
        self.ids.get(idx).map(|&id| PathRef {
            core: &self.core,
            id,
        })
    }
}

/// A borrowed path inside an arena: O(1) cached projections (`γ⁻`, `γ⁺`,
/// `‖a‖`, jointness) plus allocation-free edge/label scans along the prefix
/// chain. Obtained from [`PathSetView::iter`]; lives as long as the view.
#[derive(Clone, Copy)]
pub struct PathRef<'a> {
    core: &'a crate::arena::ArenaCore,
    id: PathId,
}

impl PathRef<'_> {
    /// The path's arena id.
    pub fn id(&self) -> PathId {
        self.id
    }

    /// `‖a‖` (O(1), cached).
    pub fn len(&self) -> usize {
        self.core.nodes[self.id.index()].len as usize
    }

    /// Whether this is ε.
    pub fn is_empty(&self) -> bool {
        self.id.is_epsilon()
    }

    /// `γ⁻(a)` (O(1), cached); `None` for ε.
    pub fn tail(&self) -> Option<VertexId> {
        if self.id.is_epsilon() {
            None
        } else {
            Some(self.core.nodes[self.id.index()].tail)
        }
    }

    /// `γ⁺(a)` (O(1), cached); `None` for ε.
    pub fn head(&self) -> Option<VertexId> {
        if self.id.is_epsilon() {
            None
        } else {
            Some(self.core.nodes[self.id.index()].head)
        }
    }

    /// Definition 3 jointness (O(1), cached; ε is joint).
    pub fn is_joint(&self) -> bool {
        self.core.nodes[self.id.index()].joint
    }

    /// The edges in **reverse** order (head-to-tail along the prefix chain —
    /// the order the arena stores them in, O(1) per step, no allocation).
    /// Use [`PathRef::to_path`] when forward order matters.
    pub fn edges_rev(&self) -> impl Iterator<Item = Edge> + '_ {
        self.core.edges_rev(self.id)
    }

    /// The label word `ω′(a)` in **reverse** order (allocation-free; see
    /// [`PathRef::edges_rev`]).
    pub fn labels_rev(&self) -> impl Iterator<Item = LabelId> + '_ {
        self.edges_rev().map(|e| e.label)
    }

    /// Whether the path's label word equals `labels` (forward order).
    /// Allocation-free: compares back-to-front along the prefix chain.
    pub fn label_word_is(&self, labels: &[LabelId]) -> bool {
        self.len() == labels.len() && self.labels_rev().eq(labels.iter().rev().copied())
    }

    /// The vertex sequence in **reverse** order (`γ⁺` back to `γ⁻` along the
    /// prefix chain; empty for ε). Allocation-free; only meaningful as a
    /// sequence for joint paths, like [`Path::vertex_sequence`].
    pub fn vertices_rev(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.edges_rev().map(|e| e.head).chain(self.tail())
    }

    /// Whether the path is *simple* (joint, no vertex visited twice) — the
    /// borrowing analogue of [`Path::is_simple`], used by the regex
    /// generator's simple-path restriction without materialising candidates.
    pub fn is_simple(&self) -> bool {
        if !self.is_joint() {
            return false;
        }
        let mut seen = FxHashSet::with_capacity_and_hasher(self.len() + 1, Default::default());
        self.vertices_rev().all(|v| seen.insert(v))
    }

    /// Materialises the path (the one escape hatch that allocates).
    pub fn to_path(&self) -> Path {
        self.core.to_path(self.id)
    }
}

impl PartialEq for PathSet {
    fn eq(&self, other: &Self) -> bool {
        self.set_eq(other)
    }
}

impl Eq for PathSet {}

impl FromIterator<Path> for PathSet {
    fn from_iter<T: IntoIterator<Item = Path>>(iter: T) -> Self {
        PathSet::from_paths(iter)
    }
}

impl Extend<Path> for PathSet {
    fn extend<T: IntoIterator<Item = Path>>(&mut self, iter: T) {
        // drain the caller's iterator before locking: it may itself read
        // this arena (e.g. `set.extend(other.iter())` over a shared arena),
        // and the RwLock is not reentrant
        let paths: Vec<Path> = iter.into_iter().collect();
        let arena = self.arena.clone();
        let mut core = arena.write();
        for p in &paths {
            let id = core.intern_path(p);
            self.insert_id(id);
        }
    }
}

impl IntoIterator for &PathSet {
    type Item = Path;
    type IntoIter = std::vec::IntoIter<Path>;
    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

impl IntoIterator for PathSet {
    type Item = Path;
    type IntoIter = std::vec::IntoIter<Path>;
    fn into_iter(self) -> Self::IntoIter {
        self.paths().into_iter()
    }
}

impl std::fmt::Display for PathSet {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{{")?;
        for (i, p) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{p}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32, l: u32, j: u32) -> Edge {
        Edge::from((i, l, j))
    }

    fn p(edges: &[(u32, u32, u32)]) -> Path {
        Path::from_edges(edges.iter().map(|&(i, l, j)| e(i, l, j)))
    }

    /// The worked example of §II:
    /// A = {(i,α,j), (j,β,k,k,α,j)}
    /// B = {(j,β,j), (j,β,i,i,α,k), (i,β,k)}
    /// with i=0, j=1, k=2, α=0, β=1.
    fn paper_a() -> PathSet {
        PathSet::from_paths([p(&[(0, 0, 1)]), p(&[(1, 1, 2), (2, 0, 1)])])
    }

    fn paper_b() -> PathSet {
        PathSet::from_paths([p(&[(1, 1, 1)]), p(&[(1, 1, 0), (0, 0, 2)]), p(&[(0, 1, 2)])])
    }

    #[test]
    fn view_borrows_paths_without_materialising() {
        let s = paper_a();
        // materialise the reference BEFORE taking the view: the view holds
        // the arena's read lock, and the lock is not reentrant
        let owned = s.paths();
        let view = s.view();
        assert_eq!(view.len(), 2);
        assert!(!view.is_empty());
        for (r, path) in view.iter().zip(&owned) {
            assert_eq!(r.len(), path.len());
            assert_eq!(r.tail(), path.tail_vertex().ok());
            assert_eq!(r.head(), path.head_vertex().ok());
            assert_eq!(r.is_joint(), path.is_joint());
            assert_eq!(r.to_path(), *path);
            // edges_rev is the reverse of the forward edge string
            let mut fwd: Vec<Edge> = r.edges_rev().collect();
            fwd.reverse();
            assert_eq!(fwd, path.edges());
            assert!(r.label_word_is(&path.path_label()));
            assert!(!r.label_word_is(&[LabelId(9)]));
            assert_eq!(r.is_simple(), path.is_simple());
            let mut vs: Vec<VertexId> = r.vertices_rev().collect();
            vs.reverse();
            assert_eq!(vs, path.vertex_sequence());
        }
        assert_eq!(view.get(1).unwrap().len(), 2);
        assert!(view.get(2).is_none());
        // ε has no endpoints and an empty label word
        let eps = PathSet::epsilon();
        let ev = eps.view();
        let r = ev.get(0).unwrap();
        assert!(r.is_empty() && r.tail().is_none() && r.head().is_none());
        assert!(r.label_word_is(&[]));
        assert_eq!(r.edges_rev().count(), 0);
    }

    #[test]
    fn filter_refs_agrees_with_filter() {
        let s = paper_a().join(&paper_b());
        let by_refs = s.filter_refs(|r| r.len() >= 3 && r.is_joint());
        let by_paths = s.filter(|p| p.len() >= 3 && p.is_joint());
        assert_eq!(by_refs, by_paths);
        // survivors keep their arena ids (same-store, same ids)
        assert!(by_refs.arena().same_store(s.arena()));
        // multiple views may coexist (read locks are shared)
        let v1 = s.view();
        let v2 = s.view();
        assert_eq!(v1.len(), v2.len());
    }

    #[test]
    fn join_reproduces_paper_worked_example() {
        let result = paper_a().join(&paper_b());
        let expected = PathSet::from_paths([
            // (i,α,j,j,β,j)
            p(&[(0, 0, 1), (1, 1, 1)]),
            // (i,α,j,j,β,i,i,α,k)
            p(&[(0, 0, 1), (1, 1, 0), (0, 0, 2)]),
            // (j,β,k,k,α,j,j,β,j)
            p(&[(1, 1, 2), (2, 0, 1), (1, 1, 1)]),
            // (j,β,k,k,α,j,j,β,i,i,α,k)
            p(&[(1, 1, 2), (2, 0, 1), (1, 1, 0), (0, 0, 2)]),
        ]);
        assert_eq!(result, expected);
        assert!(result.all_joint());
    }

    #[test]
    fn naive_join_agrees_with_arena_join() {
        let a = paper_a();
        let b = paper_b();
        assert_eq!(a.join(&b), a.join_naive(&b));
        // and in the other direction too (join is not commutative, but both
        // evaluation strategies must agree on either order)
        assert_eq!(b.join(&a), b.join_naive(&a));
    }

    #[test]
    fn join_output_shares_the_left_operand_arena() {
        let a = paper_a();
        let b = paper_b();
        let joined = a.join(&b);
        assert!(joined.arena().same_store(a.arena()));
        assert!(!joined.arena().same_store(b.arena()));
    }

    #[test]
    fn join_is_subset_of_product_footnote_7() {
        let a = paper_a();
        let b = paper_b();
        let join = a.join(&b);
        let product = a.product(&b);
        assert!(join.is_subset_of(&product));
        assert_eq!(product.len(), a.len() * b.len());
        assert!(join.len() < product.len());
        // the product contains disjoint paths that the join excludes
        assert!(!product.all_joint());
    }

    #[test]
    fn join_is_associative() {
        let a = paper_a();
        let b = paper_b();
        let c = PathSet::from_paths([p(&[(2, 0, 1)]), p(&[(2, 1, 0)])]);
        assert_eq!(a.join(&b).join(&c), a.join(&b.join(&c)));
    }

    #[test]
    fn join_is_not_commutative() {
        let a = paper_a();
        let b = paper_b();
        assert_ne!(a.join(&b), b.join(&a));
    }

    #[test]
    fn epsilon_set_is_identity_for_join_and_product() {
        let a = paper_a();
        let eps = PathSet::epsilon();
        assert_eq!(eps.join(&a), a);
        assert_eq!(a.join(&eps), a);
        assert_eq!(eps.product(&a), a);
        assert_eq!(a.product(&eps), a);
    }

    #[test]
    fn epsilon_in_both_operands_joins_to_epsilon() {
        let mut a = paper_a();
        a.insert(Path::epsilon());
        let mut b = paper_b();
        b.insert(Path::epsilon());
        let joined = a.join(&b);
        // ε ◦ ε = ε survives; A's paths survive via b = ε; B's via a = ε
        assert!(joined.contains(&Path::epsilon()));
        assert!(a.is_subset_of(&joined));
        assert!(b.is_subset_of(&joined));
        assert_eq!(joined, a.join_naive(&b));
    }

    #[test]
    fn empty_set_annihilates() {
        let a = paper_a();
        let empty = PathSet::new();
        assert!(a.join(&empty).is_empty());
        assert!(empty.join(&a).is_empty());
        assert!(a.product(&empty).is_empty());
    }

    #[test]
    fn union_is_set_union() {
        let a = paper_a();
        let b = paper_b();
        let u = a.union(&b);
        assert_eq!(u.len(), 5);
        assert!(a.is_subset_of(&u));
        assert!(b.is_subset_of(&u));
        // idempotent
        assert_eq!(a.union(&a), a);
    }

    #[test]
    fn merge_is_in_place_union() {
        let mut a = paper_a();
        let b = paper_b();
        a.merge(&b);
        assert_eq!(a.len(), 5);
        // same-arena merge is id-level
        let c = a.clone();
        let before = a.len();
        a.merge(&c);
        assert_eq!(a.len(), before);
    }

    #[test]
    fn union_distributes_over_join() {
        // (A ∪ B) ⋈◦ C = (A ⋈◦ C) ∪ (B ⋈◦ C)
        let a = paper_a();
        let b = paper_b();
        let c = PathSet::from_paths([p(&[(1, 0, 2)]), p(&[(2, 1, 2)])]);
        let lhs = a.union(&b).join(&c);
        let rhs = a.join(&c).union(&b.join(&c));
        assert_eq!(lhs, rhs);
    }

    #[test]
    fn insertion_deduplicates() {
        let mut s = PathSet::new();
        assert!(s.insert(p(&[(0, 0, 1)])));
        assert!(!s.insert(p(&[(0, 0, 1)])));
        assert_eq!(s.len(), 1);
        assert!(s.contains(&p(&[(0, 0, 1)])));
    }

    #[test]
    fn same_edge_sequence_same_id() {
        // the set-level interning invariant: dedup works by id because the
        // arena canonicalises equal edge sequences to equal ids
        let mut s = PathSet::new();
        s.insert(p(&[(0, 0, 1), (1, 1, 2)]));
        s.insert(p(&[(0, 0, 1), (1, 1, 2)]));
        assert_eq!(s.len(), 1);
        assert_eq!(s.ids().len(), 1);
        let id = s.ids()[0];
        assert_eq!(s.arena().find(&p(&[(0, 0, 1), (1, 1, 2)])), Some(id));
    }

    #[test]
    fn join_power_builds_length_n_paths() {
        // simple cycle v0 -α-> v1 -α-> v2 -α-> v0
        let edges = [e(0, 0, 1), e(1, 0, 2), e(2, 0, 0)];
        let s = PathSet::from_edges(edges);
        assert_eq!(s.join_power(0), PathSet::epsilon());
        assert_eq!(s.join_power(1), s);
        let p2 = s.join_power(2);
        assert_eq!(p2.len(), 3);
        assert!(p2.iter().all(|p| p.len() == 2 && p.is_joint()));
        let p3 = s.join_power(3);
        assert_eq!(p3.len(), 3);
        assert!(p3.iter().all(|p| p.is_cycle()));
    }

    #[test]
    fn step_join_equals_join_with_selected_paths() {
        let mut g = MultiGraph::new();
        for edge in [
            e(0, 0, 1),
            e(1, 1, 2),
            e(2, 0, 1),
            e(1, 1, 1),
            e(1, 1, 0),
            e(0, 0, 2),
            e(0, 1, 2),
        ] {
            g.add_edge(edge);
        }
        let base = PathSet::from_edges([e(0, 0, 1), e(2, 0, 1), e(0, 1, 2)]);
        let patterns = [
            EdgePattern::any(),
            EdgePattern::with_label(LabelId(1)),
            EdgePattern::with_labels([LabelId(0), LabelId(1)]),
            EdgePattern::to_vertex(VertexId(2)),
            EdgePattern::from_vertex(VertexId(1)),
        ];
        for pat in &patterns {
            let frontier = base.step_join(&g, pat);
            let classic = base.join(&pat.select_paths(&g));
            assert_eq!(frontier, classic, "pattern {pat:?}");
        }
        // starting from ε the step selects the pattern's edge set
        let eps = PathSet::epsilon();
        let first = eps.step_join(&g, &EdgePattern::with_label(LabelId(0)));
        assert_eq!(first, EdgePattern::with_label(LabelId(0)).select_paths(&g));
        // and the predicate form agrees with the pattern form
        let by_pred = base.step_join_where(&g, |e| e.label == LabelId(1));
        assert_eq!(
            by_pred,
            base.step_join(&g, &EdgePattern::with_label(LabelId(1)))
        );
    }

    #[test]
    fn step_join_where_predicate_may_touch_the_shared_arena() {
        // the predicate runs with no arena lock held, so it may probe sets
        // sharing this arena without deadlocking
        let mut g = MultiGraph::new();
        for edge in [e(0, 0, 1), e(1, 1, 2), e(1, 0, 0)] {
            g.add_edge(edge);
        }
        let base = PathSet::from_edges([e(0, 0, 1)]);
        let sibling = {
            let mut s = PathSet::new_in(base.arena());
            s.insert(p(&[(1, 1, 2)]));
            s
        };
        let stepped = base.step_join_where(&g, |edge| {
            sibling.contains(&Path::from_edge(*edge)) // reads the shared arena
        });
        assert_eq!(stepped, PathSet::from_paths([p(&[(0, 0, 1), (1, 1, 2)])]));
    }

    #[test]
    fn extend_may_iterate_the_same_arena() {
        // a lazy iterator whose adapters read the shared arena (here:
        // `contains`) must not deadlock — extend drains it before locking
        let a = paper_a();
        let mut b = PathSet::new_in(a.arena());
        b.extend(a.paths().into_iter().filter(|p| a.contains(p)));
        assert_eq!(a, b);
    }

    #[test]
    fn restrictions_filter_by_endpoints_and_labels() {
        let s = paper_a().join(&paper_b());
        let tails: HashSet<VertexId> = [VertexId(1)].into_iter().collect();
        let from_j = s.restrict_tails(&tails);
        assert_eq!(from_j.len(), 2);
        let heads: HashSet<VertexId> = [VertexId(2)].into_iter().collect();
        let to_k = s.restrict_heads(&heads);
        assert_eq!(to_k.len(), 2);
        let labeled = s.restrict_path_label(&[LabelId(0), LabelId(1)]);
        assert_eq!(labeled.len(), 1);
    }

    #[test]
    fn endpoints_project_section_4c_edges() {
        let a = PathSet::from_edges([e(0, 0, 1), e(3, 0, 1)]);
        let b = PathSet::from_edges([e(1, 1, 2)]);
        let eab = a.join(&b).endpoints();
        assert_eq!(
            eab,
            vec![(VertexId(0), VertexId(2)), (VertexId(3), VertexId(2))]
        );
    }

    #[test]
    fn frontier_projections() {
        let s = paper_a();
        let heads = s.head_vertices();
        assert!(heads.contains(&VertexId(1)));
        let tails = s.tail_vertices();
        assert!(tails.contains(&VertexId(0)) && tails.contains(&VertexId(1)));
    }

    #[test]
    fn length_histogram_counts_by_length() {
        let s = paper_a().union(&paper_b());
        let h = s.length_histogram();
        assert_eq!(h.get(&1), Some(&3));
        assert_eq!(h.get(&2), Some(&2));
    }

    #[test]
    fn joint_only_filters_product_to_join() {
        let a = paper_a();
        let b = paper_b();
        // For ε-free operands: A ⋈◦ B = joint(A ×◦ B)
        assert_eq!(a.product(&b).joint_only(), a.join(&b));
    }

    #[test]
    fn filter_keeps_matching_paths() {
        let s = paper_a().union(&paper_b());
        let long = s.filter(|p| p.len() >= 2);
        assert_eq!(long.len(), 2);
        assert!(long.arena().same_store(s.arena()));
    }

    #[test]
    fn display_formats_as_set() {
        let s = PathSet::from_paths([p(&[(0, 0, 1)])]);
        assert_eq!(s.to_string(), "{(v0, l0, v1)}");
        assert_eq!(PathSet::new().to_string(), "{}");
    }

    #[test]
    fn from_graph_lifts_every_edge() {
        let mut g = MultiGraph::new();
        g.add_edge(e(0, 0, 1));
        g.add_edge(e(1, 1, 2));
        let s = PathSet::from_graph(&g);
        assert_eq!(s.len(), 2);
        assert!(s.iter().all(|p| p.len() == 1));
    }

    #[test]
    fn cross_arena_equality_and_subset() {
        let a1 = paper_a();
        let a2 = paper_a(); // different arena, same elements
        assert!(!a1.arena().same_store(a2.arena()));
        assert_eq!(a1, a2);
        assert!(a1.is_subset_of(&a2));
        assert_ne!(a1, paper_b());
    }
}
