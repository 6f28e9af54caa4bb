//! Determinisation: a graph-relative symbolic DFA.
//!
//! The alphabet of a path regex is the edge set `E` of a concrete graph, so a
//! DFA is built *relative to a graph*: edges are first grouped into
//! equivalence classes by their *matcher signature* (the set of NFA matchers
//! that accept them — the "minterms" of symbolic automata), and the classical
//! subset construction is then run over that small class alphabet rather than
//! over all of `E`. Two edges with the same signature are indistinguishable to
//! the automaton, so the construction is exact.
//!
//! Experiment E9 compares recognition throughput of the NFA simulation, the
//! DFA, and the minimised DFA ([`fn@crate::minimize`]).

use std::collections::{BTreeSet, HashMap, HashSet};
use std::sync::Arc;

use mrpa_core::{Edge, LabelId, MultiGraph, Path};

use crate::nfa::{Nfa, StateId, TransitionLabel};

/// Identifier of an edge equivalence class ("minterm").
pub type ClassId = usize;

/// Maps every edge of a graph to its matcher-signature class.
#[derive(Debug, Clone)]
pub struct EdgeClassifier {
    /// Signature (bitmask over matcher indices) for each class, in class order.
    class_signatures: Vec<u64>,
    /// Precomputed class of every edge in the graph.
    edge_class: HashMap<Edge, ClassId>,
    /// Number of matchers (for on-the-fly classification of unseen edges).
    matcher_count: usize,
}

impl EdgeClassifier {
    /// Builds the classifier for the matchers of `nfa` over the edges of
    /// `graph`.
    ///
    /// # Panics
    /// Panics if the NFA has more than 64 matchers (signatures are packed into
    /// a `u64`); path regexes of that size are far beyond anything the paper
    /// or the benchmarks construct, and the recognizer falls back to NFA
    /// simulation for them.
    pub fn new(nfa: &Nfa, graph: &MultiGraph) -> Self {
        assert!(
            nfa.matchers.len() <= 64,
            "symbolic DFA supports at most 64 distinct matchers"
        );
        let mut signature_to_class: HashMap<u64, ClassId> = HashMap::new();
        let mut class_signatures: Vec<u64> = Vec::new();
        let mut edge_class: HashMap<Edge, ClassId> = HashMap::new();
        for edge in graph.edges() {
            let sig = Self::signature_of(nfa, edge);
            let class = *signature_to_class.entry(sig).or_insert_with(|| {
                class_signatures.push(sig);
                class_signatures.len() - 1
            });
            edge_class.insert(*edge, class);
        }
        EdgeClassifier {
            class_signatures,
            edge_class,
            matcher_count: nfa.matchers.len(),
        }
    }

    fn signature_of(nfa: &Nfa, edge: &Edge) -> u64 {
        let mut sig = 0u64;
        for (i, m) in nfa.matchers.iter().enumerate() {
            if m.matches(edge) {
                sig |= 1 << i;
            }
        }
        sig
    }

    /// The class of an edge, if the edge belongs to the graph the classifier
    /// was built from.
    pub fn class_of(&self, edge: &Edge) -> Option<ClassId> {
        self.edge_class.get(edge).copied()
    }

    /// Number of distinct classes.
    pub fn class_count(&self) -> usize {
        self.class_signatures.len()
    }

    /// Whether matcher `m` accepts the edges of class `c`.
    pub fn class_matches(&self, c: ClassId, m: usize) -> bool {
        debug_assert!(m < self.matcher_count);
        (self.class_signatures[c] >> m) & 1 == 1
    }
}

/// A deterministic finite automaton over edge classes, built from an NFA
/// relative to a graph.
#[derive(Debug, Clone)]
pub struct Dfa {
    /// Number of DFA states.
    pub state_count: usize,
    /// Start state.
    pub start: usize,
    /// Accepting states.
    pub accept: HashSet<usize>,
    /// Transition table: `transitions[state][class] = Some(target)`.
    transitions: Vec<Vec<Option<usize>>>,
    /// The edge classifier shared with the source NFA/graph. It holds one
    /// entry per graph edge, so the automata derived from this one
    /// ([`fn@crate::minimize`], clones) share it instead of copying it.
    classifier: Arc<EdgeClassifier>,
}

impl Dfa {
    /// Subset construction of the DFA for `nfa` over the edges of `graph`.
    pub fn compile(nfa: &Nfa, graph: &MultiGraph) -> Dfa {
        let classifier = Arc::new(EdgeClassifier::new(nfa, graph));
        let class_count = classifier.class_count();

        let mut state_sets: Vec<BTreeSet<StateId>> = Vec::new();
        let mut state_index: HashMap<BTreeSet<StateId>, usize> = HashMap::new();
        let mut transitions: Vec<Vec<Option<usize>>> = Vec::new();

        let initial: BTreeSet<StateId> = nfa.initial_states().into_iter().collect();
        state_index.insert(initial.clone(), 0);
        state_sets.push(initial);
        transitions.push(vec![None; class_count]);

        let mut worklist = vec![0usize];
        while let Some(current) = worklist.pop() {
            let current_set = state_sets[current].clone();
            for class in 0..class_count {
                // Move: NFA states reachable by consuming an edge of this class.
                let mut next: HashSet<StateId> = HashSet::new();
                for &s in &current_set {
                    for t in nfa.transitions_from(s) {
                        if let TransitionLabel::Matcher(m) = t.label {
                            if classifier.class_matches(class, m) {
                                next.insert(t.to);
                            }
                        }
                    }
                }
                if next.is_empty() {
                    continue;
                }
                let closed: BTreeSet<StateId> = nfa.epsilon_closure(&next).into_iter().collect();
                let target = match state_index.get(&closed) {
                    Some(&idx) => idx,
                    None => {
                        let idx = state_sets.len();
                        state_index.insert(closed.clone(), idx);
                        state_sets.push(closed);
                        transitions.push(vec![None; class_count]);
                        worklist.push(idx);
                        idx
                    }
                };
                transitions[current][class] = Some(target);
            }
        }

        let accept: HashSet<usize> = state_sets
            .iter()
            .enumerate()
            .filter(|(_, set)| set.iter().any(|s| nfa.accept.contains(s)))
            .map(|(i, _)| i)
            .collect();

        Dfa {
            state_count: state_sets.len(),
            start: 0,
            accept,
            transitions,
            classifier,
        }
    }

    /// Runs the DFA on a path. Edges that are not part of the graph the DFA
    /// was compiled against are rejected (they have no class).
    pub fn accepts(&self, path: &Path) -> bool {
        let mut state = self.start;
        for edge in path.iter() {
            let Some(class) = self.classifier.class_of(edge) else {
                return false;
            };
            match self.transitions[state][class] {
                Some(next) => state = next,
                None => return false,
            }
        }
        self.accept.contains(&state)
    }

    /// The transition target for `(state, class)`, if any.
    pub fn transition(&self, state: usize, class: ClassId) -> Option<usize> {
        self.transitions.get(state).and_then(|row| row[class])
    }

    /// Number of edge classes in the alphabet.
    pub fn class_count(&self) -> usize {
        self.classifier.class_count()
    }

    /// The classifier used by this DFA.
    pub fn classifier(&self) -> &EdgeClassifier {
        &self.classifier
    }

    /// Whether a state is accepting.
    pub fn is_accept_state(&self, state: usize) -> bool {
        self.accept.contains(&state)
    }

    /// Collapses the symbolic transition structure into a per-`(state, label)`
    /// table: for every state, the list of `(label, target)` moves, in the
    /// graph's label order.
    ///
    /// This is only meaningful when every matcher of the source NFA is
    /// *label-determined* — it accepts or rejects an edge based solely on the
    /// edge's label, as is the case for automata compiled from
    /// [`crate::label_regex::LabelRegex`] expressions. Then all edges sharing
    /// a label have the same minterm signature, so one representative edge per
    /// label determines the class (and hence the transition) of the whole
    /// label. Matchers that also inspect endpoints would make the table an
    /// over-approximation; callers must not use it for such automata.
    pub fn label_transition_table(&self, graph: &MultiGraph) -> Vec<Vec<(LabelId, usize)>> {
        let mut table: Vec<Vec<(LabelId, usize)>> = vec![Vec::new(); self.state_count];
        for label in graph.labels() {
            let Some(edge) = graph.edges_with_label(label).first() else {
                continue;
            };
            let Some(class) = self.classifier.class_of(edge) else {
                continue;
            };
            // check the label-determinism precondition: the representative's
            // class must generalize to every edge of the label
            debug_assert!(
                graph
                    .edges_with_label(label)
                    .iter()
                    .all(|e| self.classifier.class_of(e) == Some(class)),
                "label_transition_table requires label-determined matchers, but edges with \
                 label {label:?} fall into different minterm classes"
            );
            for (state, row) in table.iter_mut().enumerate() {
                if let Some(target) = self.transition(state, class) {
                    row.push((label, target));
                }
            }
        }
        table
    }

    /// For every state, the minimum number of edges any word needs to reach
    /// an accepting state from it over the graph's label alphabet — `Some(0)`
    /// for accepting states, `None` for states from which no accepting state
    /// is reachable (the minimized DFA's merged dead block, if any).
    ///
    /// Reverse breadth-first search over [`Dfa::label_transition_table`], so
    /// the same label-determinism precondition applies. This is the automaton
    /// reuse hook behind the engine's product-traversal pruning: transitions
    /// into a `None` state can never contribute an emission, and in bounded
    /// weighted search `hops_taken + min_edges_to_accept(state)` is an
    /// admissible lower bound on the total hops of any completion.
    pub fn min_edges_to_accept(&self, graph: &MultiGraph) -> Vec<Option<usize>> {
        self.min_edges_to_accept_from_table(&self.label_transition_table(graph))
    }

    /// [`Dfa::min_edges_to_accept`] over an already-built
    /// [`Dfa::label_transition_table`], so callers that need both do not
    /// construct the table twice.
    pub fn min_edges_to_accept_from_table(
        &self,
        table: &[Vec<(LabelId, usize)>],
    ) -> Vec<Option<usize>> {
        // reverse adjacency: predecessors[target] = states with a move into it
        let mut predecessors: Vec<Vec<usize>> = vec![Vec::new(); self.state_count];
        for (state, row) in table.iter().enumerate() {
            for &(_, target) in row {
                predecessors[target].push(state);
            }
        }
        let mut dist: Vec<Option<usize>> = vec![None; self.state_count];
        let mut frontier: Vec<usize> = Vec::new();
        for (state, d) in dist.iter_mut().enumerate() {
            if self.is_accept_state(state) {
                *d = Some(0);
                frontier.push(state);
            }
        }
        let mut d = 0usize;
        while !frontier.is_empty() {
            d += 1;
            let mut next = Vec::new();
            for &state in &frontier {
                for &p in &predecessors[state] {
                    if dist[p].is_none() {
                        dist[p] = Some(d);
                        next.push(p);
                    }
                }
            }
            frontier = next;
        }
        dist
    }

    /// Internal: replaces the transition table and accept set (used by
    /// minimisation). The classifier is shared, not copied.
    pub(crate) fn rebuild(
        &self,
        state_count: usize,
        start: usize,
        accept: HashSet<usize>,
        transitions: Vec<Vec<Option<usize>>>,
    ) -> Dfa {
        Dfa {
            state_count,
            start,
            accept,
            transitions,
            classifier: Arc::clone(&self.classifier),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PathRegex;
    use mrpa_core::{EdgePattern, LabelId, Position, VertexId};

    fn e(i: u32, l: u32, j: u32) -> Edge {
        Edge::from((i, l, j))
    }

    fn p(edges: &[(u32, u32, u32)]) -> Path {
        Path::from_edges(edges.iter().map(|&(i, l, j)| e(i, l, j)))
    }

    fn paper_graph() -> MultiGraph {
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
        g
    }

    fn figure_1_regex() -> PathRegex {
        PathRegex::figure_1(
            VertexId(0),
            VertexId(1),
            VertexId(2),
            LabelId(0),
            LabelId(1),
        )
    }

    #[test]
    fn classifier_groups_edges_by_signature() {
        let g = paper_graph();
        let nfa = Nfa::compile(&figure_1_regex());
        let c = EdgeClassifier::new(&nfa, &g);
        assert!(c.class_count() >= 2);
        assert!(c.class_count() <= g.edge_count());
        // every graph edge has a class
        for edge in g.edges() {
            assert!(c.class_of(edge).is_some());
        }
        // an edge outside the graph has none
        assert!(c.class_of(&e(9, 9, 9)).is_none());
    }

    #[test]
    fn dfa_agrees_with_nfa_on_graph_paths() {
        let g = paper_graph();
        let regex = figure_1_regex();
        let nfa = Nfa::compile(&regex);
        let dfa = Dfa::compile(&nfa, &g);
        // enumerate all joint paths up to length 4 and compare
        for n in 0..=4 {
            let paths = mrpa_core::complete_traversal(&g, n);
            for path in paths.iter() {
                assert_eq!(
                    dfa.accepts(&path),
                    nfa.accepts(&path),
                    "disagreement on {path}"
                );
            }
        }
    }

    #[test]
    fn dfa_accepts_known_figure_1_paths() {
        let g = paper_graph();
        let nfa = Nfa::compile(&figure_1_regex());
        let dfa = Dfa::compile(&nfa, &g);
        // (i,α,j)(j,β,j)(j,β,i)(i,α,k)? — check a concrete accepted path:
        // [i,α,_] then zero β then [_,α,k]: (0,0,1) is [i,α,_]… but (1,?,2) with α… use (0,0,2)? that's only length 1
        // (0,0,1) (1,1,1) (1,1,0) (0,0,2): starts with i=0 label α, then β β, ends at k=2 with α
        assert!(dfa.accepts(&p(&[(0, 0, 1), (1, 1, 1), (1, 1, 0), (0, 0, 2)])));
        // (0,0,2) alone: [i,α,_] and [_,α,k] need two separate edges, so not accepted
        assert!(!dfa.accepts(&p(&[(0, 0, 2)])));
        // path with an edge not in the graph is rejected
        assert!(!dfa.accepts(&p(&[(0, 0, 7)])));
    }

    #[test]
    fn dfa_over_simple_label_star() {
        let g = paper_graph();
        let r = PathRegex::atom(EdgePattern::with_label(LabelId(1))).star();
        let nfa = Nfa::compile(&r);
        let dfa = Dfa::compile(&nfa, &g);
        assert!(dfa.accepts(&Path::epsilon()));
        assert!(dfa.accepts(&p(&[(1, 1, 1), (1, 1, 0)])));
        assert!(!dfa.accepts(&p(&[(0, 0, 1)])));
        assert!(dfa.class_count() <= 2 + 1);
    }

    #[test]
    fn dfa_with_source_restricted_atom() {
        let g = paper_graph();
        let r =
            PathRegex::atom(EdgePattern::from_vertex(VertexId(0)).label(Position::Is(LabelId(0))))
                .join(PathRegex::any_edge());
        let nfa = Nfa::compile(&r);
        let dfa = Dfa::compile(&nfa, &g);
        assert!(dfa.accepts(&p(&[(0, 0, 1), (1, 1, 2)])));
        assert!(!dfa.accepts(&p(&[(2, 0, 1), (1, 1, 2)])));
    }

    #[test]
    fn label_transition_table_walks_label_regex_words() {
        use crate::label_regex::LabelRegex;
        use crate::minimize::minimize;
        let g = paper_graph();
        // α β* α over the label alphabet (α = 0, β = 1)
        let r = LabelRegex::label(LabelId(0))
            .concat(LabelRegex::label(LabelId(1)).star())
            .concat(LabelRegex::label(LabelId(0)));
        let dfa = minimize(&Dfa::compile(&Nfa::compile(&r.to_path_regex()), &g));
        let table = dfa.label_transition_table(&g);
        assert_eq!(table.len(), dfa.state_count);
        // simulate words through the table and compare with matches_labels
        let alpha = LabelId(0);
        let beta = LabelId(1);
        let words: Vec<Vec<LabelId>> = vec![
            vec![],
            vec![alpha],
            vec![alpha, alpha],
            vec![alpha, beta, alpha],
            vec![alpha, beta, beta, alpha],
            vec![beta, alpha],
            vec![alpha, beta],
        ];
        for word in words {
            let mut state = Some(dfa.start);
            for l in &word {
                state = state.and_then(|s| {
                    table[s]
                        .iter()
                        .find(|(label, _)| label == l)
                        .map(|&(_, t)| t)
                });
            }
            let accepted = state.map(|s| dfa.is_accept_state(s)).unwrap_or(false);
            assert_eq!(accepted, r.matches_labels(&word), "word {word:?}");
        }
    }

    #[test]
    fn min_edges_to_accept_is_a_reverse_bfs_distance() {
        use crate::label_regex::LabelRegex;
        use crate::minimize::minimize;
        let g = paper_graph();
        // α β α: the chain DFA has distances 3, 2, 1, 0 along the chain
        let r = LabelRegex::label(LabelId(0))
            .concat(LabelRegex::label(LabelId(1)))
            .concat(LabelRegex::label(LabelId(0)));
        let dfa = minimize(&Dfa::compile(&Nfa::compile(&r.to_path_regex()), &g));
        let dist = dfa.min_edges_to_accept(&g);
        assert_eq!(dist.len(), dfa.state_count);
        assert_eq!(dist[dfa.start], Some(3));
        for (state, d) in dist.iter().enumerate() {
            assert_eq!(dfa.is_accept_state(state), *d == Some(0));
        }
        // every non-None distance is witnessed by exactly one table move
        let table = dfa.label_transition_table(&g);
        for (state, d) in dist.iter().enumerate() {
            if let Some(d) = d {
                if *d > 0 {
                    assert!(
                        table[state].iter().any(|&(_, t)| dist[t] == Some(d - 1)),
                        "state {state} has no move decreasing the distance"
                    );
                }
            }
        }
        // a nullable pattern accepts at the start state
        let star = LabelRegex::label(LabelId(0)).star();
        let dfa = minimize(&Dfa::compile(&Nfa::compile(&star.to_path_regex()), &g));
        assert_eq!(dfa.min_edges_to_accept(&g)[dfa.start], Some(0));
    }

    #[test]
    fn dfa_state_count_is_reported() {
        let g = paper_graph();
        let nfa = Nfa::compile(&figure_1_regex());
        let dfa = Dfa::compile(&nfa, &g);
        assert!(dfa.state_count >= 2);
        assert!(dfa.transition(0, 0).is_some() || dfa.class_count() > 1);
    }
}
