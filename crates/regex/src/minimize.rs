//! DFA minimisation by Moore's partition-refinement algorithm.
//!
//! Works on the graph-relative symbolic [`Dfa`]: states are partitioned into
//! accepting / non-accepting blocks and refined until no block can be split by
//! any edge-class transition. Missing transitions are treated as moves to an
//! implicit dead state.

use std::collections::{HashMap, HashSet};

use crate::dfa::Dfa;

/// Minimises a DFA, returning an equivalent automaton with the minimum number
/// of reachable states (plus no explicit dead state: missing transitions stay
/// missing).
pub fn minimize(dfa: &Dfa) -> Dfa {
    let n = dfa.state_count;
    let class_count = dfa.class_count();
    if n == 0 {
        return dfa.clone();
    }

    // Block id per state; the implicit dead state is block usize::MAX.
    const DEAD: usize = usize::MAX;
    let mut block_of: Vec<usize> = (0..n)
        .map(|s| if dfa.accept.contains(&s) { 1 } else { 0 })
        .collect();
    let mut block_count = 2;

    loop {
        // signature of a state: (its block, the block of each transition target)
        let mut signature_to_block: HashMap<(usize, Vec<usize>), usize> = HashMap::new();
        let mut new_block_of = vec![0usize; n];
        let mut next_block = 0usize;
        for s in 0..n {
            let mut sig = Vec::with_capacity(class_count);
            for c in 0..class_count {
                match dfa.transition(s, c) {
                    Some(t) => sig.push(block_of[t]),
                    None => sig.push(DEAD),
                }
            }
            let key = (block_of[s], sig);
            let block = *signature_to_block.entry(key).or_insert_with(|| {
                let b = next_block;
                next_block += 1;
                b
            });
            new_block_of[s] = block;
        }
        if next_block == block_count {
            block_of = new_block_of;
            break;
        }
        block_count = next_block;
        block_of = new_block_of;
    }

    // Build the quotient automaton over the blocks that are reachable from the
    // start block.
    let start_block = block_of[dfa.start];
    let mut transitions: Vec<Vec<Option<usize>>> = vec![vec![None; class_count]; block_count];
    let mut accept: HashSet<usize> = HashSet::new();
    for s in 0..n {
        let b = block_of[s];
        if dfa.accept.contains(&s) {
            accept.insert(b);
        }
        for (c, slot) in transitions[b].iter_mut().enumerate().take(class_count) {
            if let Some(t) = dfa.transition(s, c) {
                *slot = Some(block_of[t]);
            }
        }
    }

    // Keep only blocks reachable from the start block, renumbering densely.
    let mut reachable: Vec<usize> = Vec::new();
    let mut index: HashMap<usize, usize> = HashMap::new();
    let mut stack = vec![start_block];
    index.insert(start_block, 0);
    reachable.push(start_block);
    while let Some(b) = stack.pop() {
        for t in transitions[b].iter().copied().flatten() {
            if let std::collections::hash_map::Entry::Vacant(e) = index.entry(t) {
                e.insert(reachable.len());
                reachable.push(t);
                stack.push(t);
            }
        }
    }

    let mut final_transitions: Vec<Vec<Option<usize>>> =
        vec![vec![None; class_count]; reachable.len()];
    let mut final_accept: HashSet<usize> = HashSet::new();
    for (new_id, &old_block) in reachable.iter().enumerate() {
        if accept.contains(&old_block) {
            final_accept.insert(new_id);
        }
        for c in 0..class_count {
            if let Some(t) = transitions[old_block][c] {
                final_transitions[new_id][c] = index.get(&t).copied();
            }
        }
    }

    dfa.rebuild(reachable.len(), 0, final_accept, final_transitions)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::PathRegex;
    use crate::dfa::Dfa;
    use crate::nfa::Nfa;
    use mrpa_core::{complete_traversal, Edge, EdgePattern, LabelId, MultiGraph, VertexId};

    fn e(i: u32, l: u32, j: u32) -> Edge {
        Edge::from((i, l, j))
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

    fn assert_equivalent_up_to(dfa: &Dfa, min: &Dfa, g: &MultiGraph, max_len: usize) {
        for n in 0..=max_len {
            for path in complete_traversal(g, n).iter() {
                assert_eq!(dfa.accepts(&path), min.accepts(&path), "path {path}");
            }
        }
    }

    #[test]
    fn minimized_dfa_is_equivalent_and_not_larger() {
        let g = paper_graph();
        let regex = PathRegex::figure_1(
            VertexId(0),
            VertexId(1),
            VertexId(2),
            LabelId(0),
            LabelId(1),
        );
        let nfa = Nfa::compile(&regex);
        let dfa = Dfa::compile(&nfa, &g);
        let min = minimize(&dfa);
        assert!(min.state_count <= dfa.state_count);
        assert_equivalent_up_to(&dfa, &min, &g, 4);
    }

    #[test]
    fn union_of_identical_branches_collapses() {
        // (a | a) compiles to an NFA with redundant structure; after
        // determinisation + minimisation it should be as small as `a`.
        let g = paper_graph();
        let a = PathRegex::atom(EdgePattern::with_label(LabelId(0)));
        let redundant = a.clone().union(a.clone());
        let min_redundant = minimize(&Dfa::compile(&Nfa::compile(&redundant), &g));
        let min_plain = minimize(&Dfa::compile(&Nfa::compile(&a), &g));
        assert_eq!(min_redundant.state_count, min_plain.state_count);
        assert_equivalent_up_to(&min_redundant, &min_plain, &g, 3);
    }

    #[test]
    fn star_star_collapses_to_star() {
        let g = paper_graph();
        let a = PathRegex::atom(EdgePattern::with_label(LabelId(1)));
        let starred = a.clone().star();
        let double = a.star().star();
        let m1 = minimize(&Dfa::compile(&Nfa::compile(&starred), &g));
        let m2 = minimize(&Dfa::compile(&Nfa::compile(&double), &g));
        assert_eq!(m1.state_count, m2.state_count);
        assert_equivalent_up_to(&m1, &m2, &g, 3);
    }

    #[test]
    fn empty_language_minimizes_to_single_nonaccepting_state() {
        let g = paper_graph();
        let dfa = Dfa::compile(&Nfa::compile(&PathRegex::Empty), &g);
        let min = minimize(&dfa);
        assert_eq!(min.state_count, 1);
        assert!(min.accept.is_empty());
    }

    #[test]
    fn minimized_dfa_shares_the_edge_classifier() {
        // the classifier holds one entry per graph edge; minimisation
        // reuses it rather than copying it
        let g = paper_graph();
        let a = PathRegex::atom(EdgePattern::with_label(LabelId(1)));
        let dfa = Dfa::compile(&Nfa::compile(&a.star()), &g);
        let min = minimize(&dfa);
        assert!(std::ptr::eq(dfa.classifier(), min.classifier()));
    }

    #[test]
    fn minimization_is_idempotent() {
        let g = paper_graph();
        let regex = PathRegex::figure_1(
            VertexId(0),
            VertexId(1),
            VertexId(2),
            LabelId(0),
            LabelId(1),
        );
        let min1 = minimize(&Dfa::compile(&Nfa::compile(&regex), &g));
        let min2 = minimize(&min1);
        assert_eq!(min1.state_count, min2.state_count);
        assert_equivalent_up_to(&min1, &min2, &g, 4);
    }
}
