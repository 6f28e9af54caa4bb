//! Paths: elements of the free monoid `E*` (§II, Definitions 1–3).
//!
//! A path is a finite sequence (string) of edges; repeated edges are allowed.
//! The empty path ε is the monoid identity. Operations implemented here:
//!
//! * `‖a‖` — [`Path::len`]
//! * `◦`  — [`Path::concat`] (associative, non-commutative, ε identity)
//! * `σ(a, n)` — [`Path::sigma`] (1-based, as in the paper)
//! * `γ⁻(a)` — [`Path::tail_vertex`]
//! * `γ⁺(a)` — [`Path::head_vertex`]
//! * `ω′(a)` — [`Path::path_label`] (Definition 2)
//! * jointness `f(a)` — [`Path::is_joint`] (Definition 3)

use core::fmt;

use crate::edge::Edge;
use crate::error::{CoreError, CoreResult};
use crate::ids::{LabelId, VertexId};

/// How many edges a [`Path`] keeps inline, without a heap allocation.
const INLINE_EDGES: usize = 3;

/// Fills the unused inline slots; never read.
const FILLER: Edge = Edge {
    tail: VertexId(0),
    label: LabelId(0),
    head: VertexId(0),
};

/// A path `a ∈ E*`: a possibly-empty string of edges.
///
/// The empty path ε is the identity of concatenation. Note that a path need
/// not be *joint* (consecutive edges need not share a vertex); jointness is a
/// predicate ([`Path::is_joint`], Definition 3), and the concatenative join
/// `⋈◦` on path sets only produces joint paths while the concatenative product
/// `×◦` may produce disjoint ones.
///
/// A path of at most three edges keeps them inline, so building, cloning and
/// dropping it allocates nothing; a longer one keeps them in a `Vec<Edge>`.
/// `size_of::<Path>()` is 40 bytes. Equality, order, hashing and `Debug` are
/// those of the edge slice ([`Path::edges`]), so the representation is
/// invisible: a path hashes exactly as its `&[Edge]` does.
#[derive(Clone)]
pub struct Path {
    repr: Repr,
}

#[derive(Clone)]
enum Repr {
    /// `‖a‖ ≤ INLINE_EDGES`: the edges are `buf[..len]`.
    Inline { len: u8, buf: [Edge; INLINE_EDGES] },
    /// `‖a‖ > INLINE_EDGES`.
    Heap(Vec<Edge>),
}

impl Path {
    /// The empty path ε.
    pub fn epsilon() -> Self {
        Path {
            repr: Repr::Inline {
                len: 0,
                buf: [FILLER; INLINE_EDGES],
            },
        }
    }

    /// A path of length 1 consisting of a single edge (`e ∈ E ⊂ E*`).
    pub fn from_edge(edge: Edge) -> Self {
        let mut path = Path::epsilon();
        path.push(edge);
        path
    }

    /// A path from a sequence of edges (in order).
    pub fn from_edges<I: IntoIterator<Item = Edge>>(edges: I) -> Self {
        let edges = edges.into_iter();
        if edges.size_hint().0 > INLINE_EDGES {
            return Path {
                repr: Repr::Heap(edges.collect()),
            };
        }
        let mut path = Path::epsilon();
        for edge in edges {
            path.push(edge);
        }
        path
    }

    /// A path of `len` edges from an iterator that yields them **last to
    /// first** — the order an arena's prefix chain stores them in — written
    /// straight into place, with no reversal pass.
    pub(crate) fn from_edges_rev(len: usize, edges_rev: impl Iterator<Item = Edge>) -> Self {
        fn fill(slots: &mut [Edge], edges_rev: impl Iterator<Item = Edge>) {
            for (slot, edge) in slots.iter_mut().rev().zip(edges_rev) {
                *slot = edge;
            }
        }
        let repr = if len <= INLINE_EDGES {
            let mut buf = [FILLER; INLINE_EDGES];
            fill(&mut buf[..len], edges_rev);
            Repr::Inline {
                len: len as u8,
                buf,
            }
        } else {
            let mut edges = vec![FILLER; len];
            fill(&mut edges, edges_rev);
            Repr::Heap(edges)
        };
        Path { repr }
    }

    /// `‖a‖`: the number of edges in the path. `‖ε‖ = 0`.
    #[inline]
    pub fn len(&self) -> usize {
        self.edges().len()
    }

    /// Whether the path is ε.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.edges().is_empty()
    }

    /// The edges of the path in order.
    #[inline]
    pub fn edges(&self) -> &[Edge] {
        match &self.repr {
            Repr::Inline { len, buf } => &buf[..usize::from(*len)],
            Repr::Heap(edges) => edges,
        }
    }

    /// `σ(a, n)`: the n-th edge of the path, 1-based as in the paper.
    ///
    /// Returns an error for ε or when `n ∉ 1..=‖a‖`.
    pub fn sigma(&self, n: usize) -> CoreResult<Edge> {
        let edges = self.edges();
        if edges.is_empty() {
            return Err(CoreError::EmptyPath);
        }
        if n == 0 || n > edges.len() {
            return Err(CoreError::IndexOutOfBounds {
                index: n,
                length: edges.len(),
            });
        }
        Ok(edges[n - 1])
    }

    /// `γ⁻(a)`: the tail (first) vertex of the path. Undefined for ε.
    pub fn tail_vertex(&self) -> CoreResult<VertexId> {
        self.edges()
            .first()
            .map(|e| e.tail)
            .ok_or(CoreError::EmptyPath)
    }

    /// `γ⁺(a)`: the head (last) vertex of the path. Undefined for ε.
    pub fn head_vertex(&self) -> CoreResult<VertexId> {
        self.edges()
            .last()
            .map(|e| e.head)
            .ok_or(CoreError::EmptyPath)
    }

    /// `ω′(a)`: the path label — the concatenation of the labels of the path's
    /// edges (Definition 2). `ω′(ε)` is the empty label string.
    pub fn path_label(&self) -> Vec<LabelId> {
        self.edges().iter().map(|e| e.label).collect()
    }

    /// Definition 3 (path jointness): ⊤ if `‖a‖ = 1`, or if every consecutive
    /// pair of edges satisfies `γ⁺(σ(a,n)) = γ⁻(σ(a,n+1))`.
    ///
    /// The paper leaves `f(ε)` unspecified; we treat ε as joint (it is the
    /// identity of `⋈◦` and joins with everything), and document this choice.
    pub fn is_joint(&self) -> bool {
        self.edges().windows(2).all(|w| w[0].head == w[1].tail)
    }

    /// `a ◦ b`: concatenation of two paths (total function; the result may be
    /// disjoint). ε is the identity.
    pub fn concat(&self, other: &Path) -> Path {
        let (a, b) = (self.edges(), other.edges());
        if a.len() + b.len() > INLINE_EDGES {
            let mut edges = Vec::with_capacity(a.len() + b.len());
            edges.extend_from_slice(a);
            edges.extend_from_slice(b);
            return Path {
                repr: Repr::Heap(edges),
            };
        }
        let mut path = self.clone();
        for &edge in b {
            path.push(edge);
        }
        path
    }

    /// Concatenation that only succeeds when the result is *joint at the seam*,
    /// i.e. `γ⁺(a) = γ⁻(b)` (or either operand is ε). This is the element-level
    /// condition of the concatenative join `⋈◦`.
    pub fn join(&self, other: &Path) -> Option<Path> {
        match (self.edges().last(), other.edges().first()) {
            (Some(a), Some(b)) if a.head != b.tail => None,
            _ => Some(self.concat(other)),
        }
    }

    /// The sequence of vertices visited by a joint path:
    /// `γ⁻(σ(a,1)), γ⁺(σ(a,1)), γ⁺(σ(a,2)), …`.
    ///
    /// For a disjoint path this still returns the tail of the first edge
    /// followed by the head of every edge (a best-effort itinerary); callers
    /// that need strict semantics should check [`Path::is_joint`] first.
    pub fn vertex_sequence(&self) -> Vec<VertexId> {
        let edges = self.edges();
        let mut vs = Vec::with_capacity(edges.len() + 1);
        if let Some(first) = edges.first() {
            vs.push(first.tail);
        }
        for e in edges {
            vs.push(e.head);
        }
        vs
    }

    /// Whether the path is *simple*: joint and no vertex is visited twice.
    pub fn is_simple(&self) -> bool {
        if !self.is_joint() {
            return false;
        }
        let vs = self.vertex_sequence();
        let mut seen = std::collections::HashSet::with_capacity(vs.len());
        vs.iter().all(|v| seen.insert(*v))
    }

    /// Whether the path is a cycle: joint, non-empty, and `γ⁻(a) = γ⁺(a)`.
    pub fn is_cycle(&self) -> bool {
        match (self.edges().first(), self.edges().last()) {
            (Some(first), Some(last)) => self.is_joint() && first.tail == last.head,
            _ => false,
        }
    }

    /// Whether `other` occurs as a contiguous sub-path (substring of edges).
    pub fn contains_subpath(&self, other: &Path) -> bool {
        if other.is_empty() {
            return true;
        }
        if other.len() > self.len() {
            return false;
        }
        self.edges()
            .windows(other.len())
            .any(|w| w == other.edges())
    }

    /// Appends an edge in place (mutating builder-style helper). The fourth
    /// edge moves the path to the heap.
    pub fn push(&mut self, edge: Edge) {
        match &mut self.repr {
            Repr::Inline { len, buf } if usize::from(*len) < INLINE_EDGES => {
                buf[usize::from(*len)] = edge;
                *len += 1;
            }
            Repr::Inline { buf, .. } => {
                let mut edges = Vec::with_capacity(2 * INLINE_EDGES);
                edges.extend_from_slice(buf);
                edges.push(edge);
                self.repr = Repr::Heap(edges);
            }
            Repr::Heap(edges) => edges.push(edge),
        }
    }

    /// The reverse of the path with each edge reversed. Not part of the
    /// paper's algebra but useful for destination-anchored evaluation.
    pub fn reversed(&self) -> Path {
        self.edges().iter().rev().map(Edge::reversed).collect()
    }

    /// Iterates over the edges.
    pub fn iter(&self) -> impl Iterator<Item = &Edge> {
        self.edges().iter()
    }
}

impl Default for Path {
    fn default() -> Self {
        Path::epsilon()
    }
}

impl PartialEq for Path {
    fn eq(&self, other: &Self) -> bool {
        self.edges() == other.edges()
    }
}

impl Eq for Path {}

impl PartialOrd for Path {
    fn partial_cmp(&self, other: &Self) -> Option<core::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Path {
    fn cmp(&self, other: &Self) -> core::cmp::Ordering {
        self.edges().cmp(other.edges())
    }
}

impl core::hash::Hash for Path {
    fn hash<H: core::hash::Hasher>(&self, state: &mut H) {
        self.edges().hash(state);
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Path")
            .field("edges", &self.edges())
            .finish()
    }
}

impl From<Edge> for Path {
    fn from(e: Edge) -> Self {
        Path::from_edge(e)
    }
}

impl FromIterator<Edge> for Path {
    fn from_iter<T: IntoIterator<Item = Edge>>(iter: T) -> Self {
        Path::from_edges(iter)
    }
}

/// The owning iterator over a [`Path`]'s edges, in order.
#[derive(Debug, Clone)]
pub struct IntoIter(IntoIterRepr);

#[derive(Debug, Clone)]
enum IntoIterRepr {
    Inline(core::iter::Take<core::array::IntoIter<Edge, INLINE_EDGES>>),
    Heap(std::vec::IntoIter<Edge>),
}

impl Iterator for IntoIter {
    type Item = Edge;

    fn next(&mut self) -> Option<Edge> {
        match &mut self.0 {
            IntoIterRepr::Inline(edges) => edges.next(),
            IntoIterRepr::Heap(edges) => edges.next(),
        }
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        match &self.0 {
            IntoIterRepr::Inline(edges) => edges.size_hint(),
            IntoIterRepr::Heap(edges) => edges.size_hint(),
        }
    }
}

impl DoubleEndedIterator for IntoIter {
    fn next_back(&mut self) -> Option<Edge> {
        match &mut self.0 {
            IntoIterRepr::Inline(edges) => edges.next_back(),
            IntoIterRepr::Heap(edges) => edges.next_back(),
        }
    }
}

impl ExactSizeIterator for IntoIter {}

impl core::iter::FusedIterator for IntoIter {}

impl IntoIterator for Path {
    type Item = Edge;
    type IntoIter = IntoIter;
    fn into_iter(self) -> IntoIter {
        IntoIter(match self.repr {
            Repr::Inline { len, buf } => {
                IntoIterRepr::Inline(buf.into_iter().take(usize::from(len)))
            }
            Repr::Heap(edges) => IntoIterRepr::Heap(edges.into_iter()),
        })
    }
}

impl<'a> IntoIterator for &'a Path {
    type Item = &'a Edge;
    type IntoIter = std::slice::Iter<'a, Edge>;
    fn into_iter(self) -> Self::IntoIter {
        self.edges().iter()
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_empty() {
            return write!(f, "ε");
        }
        // Paper notation flattens the tuples: (i, α, j, j, β, k)
        write!(f, "(")?;
        for (n, e) in self.edges().iter().enumerate() {
            if n > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{}, {}, {}", e.tail, e.label, e.head)?;
        }
        write!(f, ")")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn e(i: u32, l: u32, j: u32) -> Edge {
        Edge::from((i, l, j))
    }

    #[test]
    fn epsilon_properties() {
        let eps = Path::epsilon();
        assert_eq!(eps.len(), 0);
        assert!(eps.is_empty());
        assert!(eps.is_joint());
        assert_eq!(eps.path_label(), Vec::<LabelId>::new());
        assert_eq!(eps.tail_vertex(), Err(CoreError::EmptyPath));
        assert_eq!(eps.head_vertex(), Err(CoreError::EmptyPath));
        assert_eq!(eps.sigma(1), Err(CoreError::EmptyPath));
        assert_eq!(eps.to_string(), "ε");
    }

    #[test]
    fn single_edge_path_length_one() {
        let p = Path::from_edge(e(0, 0, 1));
        assert_eq!(p.len(), 1);
        assert!(p.is_joint());
        assert_eq!(p.sigma(1).unwrap(), e(0, 0, 1));
        assert_eq!(p.path_label(), vec![LabelId(0)]);
    }

    #[test]
    fn concatenation_matches_paper_example() {
        // (i, α, j) ◦ (j, β, k) = (i, α, j, j, β, k)  with i=0, j=1, k=2, α=0, β=1
        let a = Path::from_edge(e(0, 0, 1));
        let b = Path::from_edge(e(1, 1, 2));
        let ab = a.concat(&b);
        assert_eq!(ab.len(), 2);
        assert_eq!(ab.sigma(1).unwrap(), e(0, 0, 1));
        assert_eq!(ab.sigma(2).unwrap(), e(1, 1, 2));
        assert_eq!(ab.tail_vertex().unwrap(), VertexId(0));
        assert_eq!(ab.head_vertex().unwrap(), VertexId(2));
        assert_eq!(ab.path_label(), vec![LabelId(0), LabelId(1)]);
        assert!(ab.is_joint());
        assert_eq!(ab.to_string(), "(v0, l0, v1, v1, l1, v2)");
    }

    #[test]
    fn concatenation_is_associative() {
        let a = Path::from_edge(e(0, 0, 1));
        let b = Path::from_edge(e(1, 1, 2));
        let c = Path::from_edge(e(2, 0, 3));
        assert_eq!(a.concat(&b).concat(&c), a.concat(&b.concat(&c)));
    }

    #[test]
    fn concatenation_is_not_commutative() {
        let a = Path::from_edge(e(0, 0, 1));
        let b = Path::from_edge(e(1, 1, 2));
        assert_ne!(a.concat(&b), b.concat(&a));
    }

    #[test]
    fn epsilon_is_identity() {
        let a = Path::from_edges([e(0, 0, 1), e(1, 1, 2)]);
        let eps = Path::epsilon();
        assert_eq!(eps.concat(&a), a);
        assert_eq!(a.concat(&eps), a);
    }

    #[test]
    fn sigma_bounds_checked() {
        let a = Path::from_edges([e(0, 0, 1), e(1, 1, 2)]);
        assert_eq!(
            a.sigma(0),
            Err(CoreError::IndexOutOfBounds {
                index: 0,
                length: 2
            })
        );
        assert_eq!(
            a.sigma(3),
            Err(CoreError::IndexOutOfBounds {
                index: 3,
                length: 2
            })
        );
    }

    #[test]
    fn jointness_definition_3() {
        let joint = Path::from_edges([e(0, 0, 1), e(1, 1, 2), e(2, 0, 0)]);
        assert!(joint.is_joint());
        let disjoint = Path::from_edges([e(0, 0, 1), e(2, 1, 3)]);
        assert!(!disjoint.is_joint());
    }

    #[test]
    fn join_requires_shared_vertex() {
        let a = Path::from_edge(e(0, 0, 1));
        let b = Path::from_edge(e(1, 1, 2));
        let c = Path::from_edge(e(3, 1, 4));
        assert!(a.join(&b).is_some());
        assert!(a.join(&c).is_none());
        // ε joins with anything
        assert_eq!(Path::epsilon().join(&a), Some(a.clone()));
        assert_eq!(a.join(&Path::epsilon()), Some(a.clone()));
    }

    #[test]
    fn concat_allows_disjoint_paths() {
        // ×◦ semantics at the element level: concatenation is total
        let a = Path::from_edge(e(0, 0, 1));
        let c = Path::from_edge(e(3, 1, 4));
        let ac = a.concat(&c);
        assert_eq!(ac.len(), 2);
        assert!(!ac.is_joint());
    }

    #[test]
    fn vertex_sequence_and_simplicity() {
        let p = Path::from_edges([e(0, 0, 1), e(1, 1, 2)]);
        assert_eq!(
            p.vertex_sequence(),
            vec![VertexId(0), VertexId(1), VertexId(2)]
        );
        assert!(p.is_simple());
        let looped = Path::from_edges([e(0, 0, 1), e(1, 1, 0)]);
        assert!(!looped.is_simple());
        assert!(looped.is_cycle());
        assert!(!p.is_cycle());
    }

    #[test]
    fn repeated_edges_are_allowed() {
        // Definition 1: "A path allows for repeated edges."
        let p = Path::from_edges([e(0, 0, 1), e(1, 0, 0), e(0, 0, 1)]);
        assert_eq!(p.len(), 3);
        assert!(p.is_joint());
        assert!(!p.is_simple());
    }

    #[test]
    fn subpath_containment() {
        let p = Path::from_edges([e(0, 0, 1), e(1, 1, 2), e(2, 0, 3)]);
        assert!(p.contains_subpath(&Path::from_edges([e(1, 1, 2), e(2, 0, 3)])));
        assert!(p.contains_subpath(&Path::epsilon()));
        assert!(!p.contains_subpath(&Path::from_edges([e(2, 0, 3), e(1, 1, 2)])));
        assert!(!p.contains_subpath(&Path::from_edges([
            e(0, 0, 1),
            e(1, 1, 2),
            e(2, 0, 3),
            e(3, 0, 4)
        ])));
    }

    #[test]
    fn reversed_path_reverses_order_and_edges() {
        let p = Path::from_edges([e(0, 0, 1), e(1, 1, 2)]);
        let r = p.reversed();
        assert_eq!(r.edges(), &[e(2, 1, 1), e(1, 0, 0)]);
        assert!(r.is_joint());
        assert_eq!(r.reversed(), p);
    }

    #[test]
    fn path_collects_from_iterator() {
        let p: Path = vec![e(0, 0, 1), e(1, 0, 2)].into_iter().collect();
        assert_eq!(p.len(), 2);
        let back: Vec<Edge> = p.clone().into_iter().collect();
        assert_eq!(back.len(), 2);
        let borrowed: Vec<&Edge> = (&p).into_iter().collect();
        assert_eq!(borrowed.len(), 2);
    }

    /// A joint reference string of `n` edges, two labels alternating.
    fn reference(n: u32) -> Vec<Edge> {
        (0..n).map(|i| e(i, i % 2, i + 1)).collect()
    }

    fn hash_of<T: core::hash::Hash + ?Sized>(value: &T) -> u64 {
        use core::hash::Hasher;
        let mut h = std::collections::hash_map::DefaultHasher::new();
        value.hash(&mut h);
        h.finish()
    }

    /// Every constructor's path of length `n` (0–6, across the three-edge
    /// inline/heap boundary), each paired with what built it.
    fn constructions(n: u32) -> Vec<(String, Path)> {
        let edges = reference(n);
        let mut out = vec![
            ("from_edges".to_string(), Path::from_edges(edges.clone())),
            // a filter's size hint is (0, _): the inline-then-spill branch
            (
                "collect".to_string(),
                edges.iter().copied().filter(|_| true).collect(),
            ),
            ("reversed".to_string(), {
                let back: Path = edges.iter().rev().map(Edge::reversed).collect();
                back.reversed()
            }),
        ];
        match n {
            0 => out.push(("epsilon".to_string(), Path::epsilon())),
            1 => out.push(("from_edge".to_string(), Path::from_edge(edges[0]))),
            _ => {}
        }
        let mut pushed = Path::epsilon();
        for &edge in &edges {
            pushed.push(edge);
        }
        out.push(("push".to_string(), pushed));
        for k in 0..=edges.len() {
            let a = Path::from_edges(edges[..k].iter().copied());
            let b = Path::from_edges(edges[k..].iter().copied());
            out.push((format!("concat at {k}"), a.concat(&b)));
            out.push((format!("join at {k}"), a.join(&b).expect("joint seam")));
        }
        let arena = crate::arena::PathArena::new();
        let interned = arena.intern(&Path::from_edges(edges.clone()));
        out.push(("arena intern".to_string(), arena.to_path(interned)));
        let pushed = {
            let mut writer = arena.writer();
            edges
                .iter()
                .fold(crate::arena::PathId::EPSILON, |id, &edge| {
                    writer.push(id, edge)
                })
        };
        out.push(("arena push".to_string(), arena.reader().to_path(pushed)));
        out
    }

    #[test]
    fn every_constructor_matches_a_vec_reference_across_the_inline_boundary() {
        let all: Vec<(Vec<Edge>, String, Path)> = (0..=6)
            .flat_map(|n| {
                constructions(n)
                    .into_iter()
                    .map(move |(how, p)| (reference(n), how, p))
            })
            .collect();
        for (edges, how, p) in &all {
            let ctx = format!("{how}, length {}", edges.len());
            assert_eq!(p.edges(), edges.as_slice(), "{ctx}");
            assert_eq!(p.len(), edges.len(), "{ctx}");
            assert_eq!(p.is_empty(), edges.is_empty(), "{ctx}");
            assert_eq!(hash_of(p), hash_of(edges.as_slice()), "{ctx}");
            let display = if edges.is_empty() {
                "ε".to_string()
            } else {
                let parts: Vec<String> = edges
                    .iter()
                    .map(|e| format!("{}, {}, {}", e.tail, e.label, e.head))
                    .collect();
                format!("({})", parts.join(", "))
            };
            assert_eq!(p.to_string(), display, "{ctx}");
            assert_eq!(
                format!("{p:?}"),
                format!("Path {{ edges: {edges:?} }}"),
                "{ctx}"
            );
            let owned: Vec<Edge> = p.clone().into_iter().collect();
            assert_eq!(&owned, edges, "{ctx}");
            let mut back: Vec<Edge> = p.clone().into_iter().rev().collect();
            back.reverse();
            assert_eq!(&back, edges, "{ctx}");
            assert_eq!(p.clone().into_iter().len(), edges.len(), "{ctx}");
        }
        // equality and order across every pair agree with the slices'
        for (a_edges, a_how, a) in &all {
            for (b_edges, b_how, b) in &all {
                assert_eq!(a == b, a_edges == b_edges, "{a_how} vs {b_how}");
                assert_eq!(a.cmp(b), a_edges.cmp(b_edges), "{a_how} vs {b_how}");
                assert_eq!(a.partial_cmp(b), Some(a_edges.cmp(b_edges)));
            }
        }
    }

    #[test]
    fn a_path_is_forty_bytes() {
        // three 12-byte edges inline beside the length and the variant tag
        assert_eq!(std::mem::size_of::<Edge>(), 12);
        assert_eq!(std::mem::size_of::<Path>(), 40);
    }

    #[test]
    fn push_appends() {
        let mut p = Path::epsilon();
        p.push(e(0, 0, 1));
        p.push(e(1, 0, 2));
        assert_eq!(p.len(), 2);
        assert_eq!(p.head_vertex().unwrap(), VertexId(2));
    }
}
