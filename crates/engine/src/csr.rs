//! Immutable per-generation CSR (compressed sparse row) topology snapshots.
//!
//! The store's adjacency (`mrpa_core::MultiGraph`) is mutation-friendly:
//! `FxHashMap` buckets keyed by `(vertex, label)`. That is the right shape
//! for writers, but a traversal would pay a hash probe per
//! `(frontier entry, label)` and read bucket payloads scattered across the
//! heap. A [`CsrTopology`] freezes one direction of one generation's
//! adjacency into four dense arrays — the paper's one-adjacency-slice-per-
//! label view of a multi-relational graph — and it is the only adjacency
//! the executors read:
//!
//! ```text
//!              v0        v1   v2 (isolated)   v3
//!            ┌────────┬──────┬──────────────┬─────┐
//! seg_index  │ 0      │ 2    │ 3            │ 3 … │  per-vertex segment range
//!            └────────┴──────┴──────────────┴─────┘
//!              seg 0    seg 1  seg 2
//!            ┌────────┬──────┬──────┐
//! seg_labels │ a      │ b    │ a    │          label per segment (sorted per
//! seg_bounds │ 0      │ 2    │ 3  4 │          vertex), heads range per segment
//!            └────────┴──────┴──────┘
//!              ┌────┬────┬────┬────┐
//! heads        │ v1 │ v2 │ v3 │ v0 │          neighbor array, label-segmented
//!              └────┴────┴────┴────┘
//! ```
//!
//! * `seg_index[v] .. seg_index[v + 1]` is vertex `v`'s slice of the segment
//!   table (vertices are dense raw-id indices; ids past the end have no
//!   segments).
//! * Each segment is one `(vertex, label)` adjacency bucket: `seg_labels[s]`
//!   is its label and `seg_bounds[s] .. seg_bounds[s + 1]` its slice of
//!   `heads`. A vertex's segments are sorted by label id, so a per-label
//!   lookup is a binary search over that vertex's (typically tiny) label
//!   sub-slice followed by a contiguous head scan.
//! * **Order contract:** within a segment, neighbors appear in exactly the
//!   source bucket's iteration order — `MultiGraph::out_edges_labeled` for
//!   the Out CSR, `MultiGraph::in_edges_labeled` for the In CSR. A label-
//!   restricted step scans its labels in the step's order; a wildcard step
//!   walks [`CsrTopology::segments`], so its rows come out labels ascending,
//!   then bucket order within a label. Every strategy reads the same arrays,
//!   so all of them see one edge order.
//!
//! Builds are lazy and cached per store generation (see
//! `GraphState::{csr_out, csr_in}` in `store.rs`): the first query that
//! wants a direction pays the O(V + E) build, every later query on the same
//! generation reuses it, and a structural mutation drops the cache with the
//! generation. Both directions are frozen straight from the forward graph's
//! indexes; no reversed graph is built.

use mrpa_core::{Edge, LabelId, MultiGraph, VertexId};

use crate::plan::Direction;

/// An immutable, label-segmented CSR view of one adjacency direction of one
/// store generation. See the [module docs](self) for the array layout and the
/// bucket-order contract.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrTopology {
    /// `seg_index[v] .. seg_index[v + 1]` — vertex `v`'s segment range.
    /// Length = (max raw vertex id + 1) + 1.
    seg_index: Vec<u32>,
    /// Label of each segment; sorted ascending within a vertex's range.
    seg_labels: Vec<LabelId>,
    /// `seg_bounds[s] .. seg_bounds[s + 1]` — segment `s`'s slice of `heads`.
    /// Length = `seg_labels.len() + 1`.
    seg_bounds: Vec<u32>,
    /// Neighbor array, concatenated per segment in source-bucket order.
    heads: Vec<VertexId>,
}

impl CsrTopology {
    /// Freezes `graph`'s adjacency in `direction` (`Out` or `In`) into a CSR.
    /// O(V + E + S log S) where S is the number of distinct
    /// `(vertex, label)` buckets; within each segment the source bucket's
    /// order is preserved verbatim. An In segment of `v` holds the tails of
    /// `v`'s in-edges: the far ends of the walked edges `(v, α, tail)`.
    ///
    /// # Panics
    ///
    /// On `Direction::Both`: a CSR holds one direction.
    pub fn build(graph: &MultiGraph, direction: Direction) -> CsrTopology {
        type Bucket = fn(&MultiGraph, VertexId) -> &[Edge];
        type LabeledBucket = fn(&MultiGraph, VertexId, LabelId) -> &[Edge];
        let (bucket, labeled, out): (Bucket, LabeledBucket, bool) = match direction {
            Direction::Out => (MultiGraph::out_edges, MultiGraph::out_edges_labeled, true),
            Direction::In => (MultiGraph::in_edges, MultiGraph::in_edges_labeled, false),
            Direction::Both => panic!("a CSR holds one adjacency direction"),
        };
        let far = if out { Edge::head } else { Edge::tail };
        let n = graph.vertices().map(|v| v.index() + 1).max().unwrap_or(0);
        let mut seg_index = Vec::with_capacity(n + 1);
        let mut seg_labels = Vec::new();
        let mut seg_bounds = vec![0u32];
        let mut heads = Vec::with_capacity(graph.edge_count());
        seg_index.push(0);
        let mut labels_scratch: Vec<LabelId> = Vec::new();
        for raw in 0..n {
            let v = VertexId::from_index(raw);
            labels_scratch.clear();
            labels_scratch.extend(bucket(graph, v).iter().map(|e| e.label));
            labels_scratch.sort_unstable();
            labels_scratch.dedup();
            for &label in &labels_scratch {
                seg_labels.push(label);
                heads.extend(labeled(graph, v, label).iter().map(far));
                seg_bounds.push(u32::try_from(heads.len()).expect("edge count overflows u32"));
            }
            seg_index.push(u32::try_from(seg_labels.len()).expect("segment count overflows u32"));
        }
        CsrTopology {
            seg_index,
            seg_labels,
            seg_bounds,
            heads,
        }
    }

    /// The neighbors of `v` over edges labeled `label`, in source-bucket order;
    /// empty for unknown vertices or absent labels. Binary search over `v`'s
    /// sorted label sub-slice, then a contiguous slice of the head array.
    #[inline]
    pub fn labeled(&self, v: VertexId, label: LabelId) -> &[VertexId] {
        let i = v.index();
        if i + 1 >= self.seg_index.len() {
            return &[];
        }
        let lo = self.seg_index[i] as usize;
        let hi = self.seg_index[i + 1] as usize;
        match self.seg_labels[lo..hi].binary_search(&label) {
            Ok(k) => {
                let s = lo + k;
                &self.heads[self.seg_bounds[s] as usize..self.seg_bounds[s + 1] as usize]
            }
            Err(_) => &[],
        }
    }

    /// Walks `v`'s segments in label-ascending order, yielding each label
    /// with its contiguous head slice — the probe-free dense scan the CSR
    /// layout exists for, and the defined order of a wildcard step.
    #[inline]
    pub fn segments(&self, v: VertexId) -> impl Iterator<Item = (LabelId, &[VertexId])> + '_ {
        let i = v.index();
        let (lo, hi) = if i + 1 >= self.seg_index.len() {
            (0, 0)
        } else {
            (self.seg_index[i] as usize, self.seg_index[i + 1] as usize)
        };
        (lo..hi).map(move |s| {
            (
                self.seg_labels[s],
                &self.heads[self.seg_bounds[s] as usize..self.seg_bounds[s + 1] as usize],
            )
        })
    }

    /// Number of stored edges.
    pub fn edge_count(&self) -> usize {
        self.heads.len()
    }

    /// Number of `(vertex, label)` segments.
    pub fn segment_count(&self) -> usize {
        self.seg_labels.len()
    }

    /// Resident size of the four arrays in bytes (lengths × element size) —
    /// the `csr_bytes` gauge surfaced through `StoreStats`.
    pub fn bytes(&self) -> usize {
        self.seg_index.len() * std::mem::size_of::<u32>()
            + self.seg_labels.len() * std::mem::size_of::<LabelId>()
            + self.seg_bounds.len() * std::mem::size_of::<u32>()
            + self.heads.len() * std::mem::size_of::<VertexId>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph(edges: &[(u32, u32, u32)]) -> MultiGraph {
        let mut g = MultiGraph::new();
        for &(t, l, h) in edges {
            g.add(VertexId(t), LabelId(l), VertexId(h));
        }
        g
    }

    #[test]
    fn empty_graph_builds_empty_csr() {
        let csr = CsrTopology::build(&MultiGraph::new(), Direction::Out);
        assert_eq!(csr.edge_count(), 0);
        assert_eq!(csr.segment_count(), 0);
        assert!(csr.labeled(VertexId(0), LabelId(0)).is_empty());
    }

    #[test]
    fn segments_match_hashmap_buckets_in_order() {
        let g = graph(&[(0, 1, 2), (0, 0, 1), (0, 1, 3), (2, 0, 0), (5, 2, 0)]);
        let csr = CsrTopology::build(&g, Direction::Out);
        assert_eq!(csr.edge_count(), 5);
        for v in g.vertices() {
            for l in g.labels() {
                let want: Vec<VertexId> =
                    g.out_edges_labeled(v, l).iter().map(|e| e.head).collect();
                assert_eq!(csr.labeled(v, l), want.as_slice(), "bucket ({v}, {l})");
            }
        }
        // unknown vertex / label queries are empty, not panics
        assert!(csr.labeled(VertexId(99), LabelId(0)).is_empty());
        assert!(csr.labeled(VertexId(0), LabelId(9)).is_empty());
        // the segment walk sees the same buckets, label-ascending
        let segs: Vec<(LabelId, Vec<VertexId>)> = csr
            .segments(VertexId(0))
            .map(|(l, heads)| (l, heads.to_vec()))
            .collect();
        assert_eq!(
            segs,
            vec![
                (LabelId(0), vec![VertexId(1)]),
                (LabelId(1), vec![VertexId(2), VertexId(3)]),
            ]
        );
        assert_eq!(csr.segments(VertexId(99)).count(), 0);
    }

    #[test]
    fn in_segments_hold_in_bucket_tails_in_order() {
        let mut g = graph(&[(0, 1, 2), (3, 1, 2), (1, 0, 2), (4, 1, 2), (2, 0, 0)]);
        g.remove_edge(&Edge::new(VertexId(0), LabelId(1), VertexId(2)));
        let csr = CsrTopology::build(&g, Direction::In);
        assert_eq!(csr.edge_count(), 4);
        for v in g.vertices() {
            for l in g.labels() {
                let want: Vec<VertexId> = g.in_edges_labeled(v, l).iter().map(|e| e.tail).collect();
                assert_eq!(csr.labeled(v, l), want.as_slice(), "bucket ({v}, {l})");
            }
        }
        // walked orientation: the In segment of 2 holds the tail of (1, 0, 2)
        assert_eq!(csr.labeled(VertexId(2), LabelId(0)), &[VertexId(1)]);
        // without removals the In CSR is the reversed graph's Out CSR
        let h = graph(&[(0, 1, 2), (3, 1, 2), (1, 0, 2), (4, 1, 2), (2, 0, 0)]);
        assert_eq!(
            CsrTopology::build(&h, Direction::In),
            CsrTopology::build(&h.reversed(), Direction::Out)
        );
    }

    #[test]
    fn bytes_track_array_lengths() {
        let g = graph(&[(0, 0, 1), (1, 0, 2)]);
        let csr = CsrTopology::build(&g, Direction::Out);
        assert!(csr.bytes() > 0);
        assert_eq!(
            csr.bytes(),
            (csr.seg_index.len() + csr.seg_bounds.len()) * 4
                + csr.seg_labels.len() * 4
                + csr.heads.len() * 4
        );
    }
}
