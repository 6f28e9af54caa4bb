//! Regular path generators (§IV-B).
//!
//! The paper describes a non-deterministic single-stack automaton with stack
//! alphabet `P(E*)`: the stack initially holds `{ε}`; on every state
//! transition the path set on top of the stack is joined (`⋈◦`) on the right
//! with the edge set labelling the transition and pushed back; a branch halts
//! when its path set becomes `∅` or it sits in an accepting state; and the
//! union of the surviving path sets at accepting states is the set of all
//! paths in `G` satisfying the regular expression.
//!
//! This module implements that machine as a layered breadth-first product of
//! the Thompson NFA with the graph: layer `d` holds, for every automaton
//! state, the set of paths of length `d` that can reach it. Because a `*` over
//! a cyclic graph yields infinitely many paths, generation takes an explicit
//! [`GeneratorConfig::max_length`] bound (a deviation from the paper);
//! alternatively [`GeneratorConfig::simple_only`] restricts to simple paths,
//! which is finite without a bound.
//!
//! Every layer's path sets share a single [`PathArena`]: a transition step is
//! a frontier-driven [`PathSet::step_join`] against the graph's adjacency
//! indexes (one hash-consed append per produced path), and moving path sets
//! between states / into the result set is an id-level merge — the generator
//! never re-materialises or re-buckets edge sets per step.
//!
//! **No cross-depth dedup is needed**, even for cyclic automata over cyclic
//! graphs: every NFA transition consumes exactly one edge (ε-moves are closed
//! eagerly), so the depth-`d` layer holds only length-`d` paths — a
//! `(state, path)` pair can never recur at a later depth. Within a depth,
//! overlapping ε-closures of different transitions can merge the same path
//! into the same state, but [`PathSet`] has set semantics and deduplicates by
//! interned id. The invariant is debug-asserted in the generation loop and
//! pinned by the 2-cycle regression test
//! (`cyclic_automata_on_a_two_cycle_do_not_rederive_paths`).

use std::collections::HashMap;

use mrpa_core::{CoreError, CoreResult, MultiGraph, Path, PathArena, PathSet};

use crate::ast::{EdgeMatcher, PathRegex};
use crate::nfa::{Nfa, StateId, TransitionLabel};
use crate::recognizer::Recognizer;

/// Configuration for the path generator.
#[derive(Debug, Clone)]
pub struct GeneratorConfig {
    /// Maximum path length (number of edges). Mandatory because `*` over a
    /// cyclic graph denotes an infinite path set.
    pub max_length: usize,
    /// If set, only *simple* paths (no repeated vertex) are generated.
    pub simple_only: bool,
    /// Optional cap on the total number of generated paths; exceeding it is an
    /// error rather than a silent truncation.
    pub max_paths: Option<usize>,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            max_length: 8,
            simple_only: false,
            max_paths: None,
        }
    }
}

impl GeneratorConfig {
    /// Config with the given length bound and no other restriction.
    pub fn with_max_length(max_length: usize) -> Self {
        GeneratorConfig {
            max_length,
            ..Default::default()
        }
    }

    /// Restrict generation to simple paths.
    pub fn simple(mut self) -> Self {
        self.simple_only = true;
        self
    }

    /// Cap the number of generated paths.
    pub fn with_max_paths(mut self, cap: usize) -> Self {
        self.max_paths = Some(cap);
        self
    }
}

/// A compiled generator for a fixed regular expression over a fixed graph.
#[derive(Debug, Clone)]
pub struct Generator<'g> {
    graph: &'g MultiGraph,
    nfa: Nfa,
}

impl<'g> Generator<'g> {
    /// Compiles the generator (builds the NFA; matcher edge sets are walked
    /// through the graph's adjacency indexes during generation).
    pub fn new(regex: &PathRegex, graph: &'g MultiGraph) -> Self {
        let nfa = Nfa::compile(regex);
        Generator { graph, nfa }
    }

    /// The underlying NFA.
    pub fn nfa(&self) -> &Nfa {
        &self.nfa
    }

    /// The graph this generator was compiled against.
    pub fn graph(&self) -> &MultiGraph {
        self.graph
    }

    /// Generates all paths in the graph recognised by the regular expression,
    /// up to the configured bounds: drives a [`GeneratorRun`] to exhaustion
    /// and merges the per-depth accepting sets.
    pub fn generate(&self, config: &GeneratorConfig) -> CoreResult<PathSet> {
        let mut run = self.run(config.clone());
        let mut results = PathSet::new_in(run.arena());
        while let Some(layer) = run.next_layer()? {
            results.merge(&layer);
        }
        Ok(results)
    }

    /// Begins a **resumable** generation: a [`GeneratorRun`] steps the
    /// layered breadth-first product one depth per [`GeneratorRun::next_layer`]
    /// call, so a consumer that only needs the shallowest matches (or any
    /// match at all — see [`Generator::shortest_match`]) stops pulling and
    /// the deeper frontier is never expanded.
    pub fn run(&self, config: GeneratorConfig) -> GeneratorRun<'_, 'g> {
        // One shared arena for the whole run: all layers and every reported
        // accepting set exchange paths by id.
        let arena = PathArena::new();
        // Layer 0: {ε} at the ε-closure of the start state.
        let mut layer: HashMap<StateId, PathSet> = HashMap::new();
        for s in self.nfa.initial_states() {
            layer.insert(s, PathSet::epsilon_in(&arena));
        }
        GeneratorRun {
            generator: self,
            config,
            arena,
            layer,
            depth: 0,
            emitted: 0,
            exhausted: false,
        }
    }

    /// The first (shortest) recognised path, if any — an early-exit terminal:
    /// generation stops at the shallowest depth with an accepting path
    /// instead of enumerating every layer up to the bound. Ties at the same
    /// depth resolve to an arbitrary member of that depth's accepting set.
    pub fn shortest_match(&self, config: &GeneratorConfig) -> CoreResult<Option<Path>> {
        let mut run = self.run(config.clone());
        while let Some(layer) = run.next_layer()? {
            if let Some(path) = layer.iter().next() {
                return Ok(Some(path));
            }
        }
        Ok(None)
    }

    /// Convenience: generate with just a length bound.
    pub fn generate_up_to(&self, max_length: usize) -> CoreResult<PathSet> {
        self.generate(&GeneratorConfig::with_max_length(max_length))
    }

    /// Cross-validation helper (experiment E10): generates by scanning all
    /// joint paths of the graph up to `max_length` and filtering them with a
    /// recognizer. Semantically this must equal [`Generator::generate`]
    /// restricted to joint paths — the generator only ever builds joint paths
    /// because it uses `⋈◦`.
    pub fn generate_by_scan(regex: &PathRegex, graph: &MultiGraph, max_length: usize) -> PathSet {
        let recognizer = Recognizer::new(regex.clone());
        recognizer.recognized_paths_by_scan(graph, max_length)
    }
}

/// A resumable, depth-at-a-time generation: the single-stack automaton's
/// layered breadth-first product, suspended between layers.
///
/// Each [`GeneratorRun::next_layer`] call reports the accepting paths of the
/// current depth (depth 0 first, so nullable expressions report `{ε}`
/// immediately) and then advances the frontier by exactly one `⋈◦` step.
/// Dropping the run drops the un-expanded frontier — the demand-driven
/// counterpart of [`Generator::generate`], mirroring the engine's row-cursor
/// protocol at the path-set layer.
#[derive(Debug)]
pub struct GeneratorRun<'a, 'g> {
    generator: &'a Generator<'g>,
    config: GeneratorConfig,
    arena: PathArena,
    layer: HashMap<StateId, PathSet>,
    depth: usize,
    emitted: usize,
    exhausted: bool,
}

impl GeneratorRun<'_, '_> {
    /// The arena all reported path sets live in.
    pub fn arena(&self) -> &PathArena {
        &self.arena
    }

    /// The depth the *next* [`GeneratorRun::next_layer`] call will report.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Reports the accepting paths at the current depth and advances the
    /// frontier one step. `None` once the frontier is empty or the length
    /// bound is reached; the `max_paths` cap counts cumulatively across the
    /// layers reported so far.
    pub fn next_layer(&mut self) -> CoreResult<Option<PathSet>> {
        if self.exhausted {
            return Ok(None);
        }
        let nfa = &self.generator.nfa;
        let mut accepting = PathSet::new_in(&self.arena);
        for (&state, paths) in &self.layer {
            if nfa.accept.contains(&state) {
                accepting.merge(paths);
            }
        }
        self.emitted += accepting.len();
        if let Some(cap) = self.config.max_paths {
            if self.emitted > cap {
                return Err(CoreError::BoundExceeded {
                    bound: cap,
                    what: "generated path count",
                });
            }
        }
        // advance the frontier one ⋈◦ step (or exhaust the run)
        if self.depth == self.config.max_length {
            self.exhausted = true;
        } else {
            let next = self.step()?;
            if next.is_empty() {
                self.exhausted = true;
            } else {
                self.layer = next;
                self.depth += 1;
            }
        }
        Ok(Some(accepting))
    }

    /// One frontier step: every state's path set is joined on the right with
    /// each outgoing matcher's edge set and handed to the ε-closure of the
    /// transition target.
    fn step(&mut self) -> CoreResult<HashMap<StateId, PathSet>> {
        let nfa = &self.generator.nfa;
        let graph = self.generator.graph;
        let depth = self.depth + 1;
        let mut next: HashMap<StateId, PathSet> = HashMap::new();
        for (&state, paths) in &self.layer {
            for t in nfa.transitions_from(state) {
                let TransitionLabel::Matcher(m) = t.label else {
                    continue;
                };
                if paths.is_empty() {
                    // the paper's halt condition: a branch with ∅ on its
                    // stack makes no further progress
                    continue;
                }
                // Frontier-driven step: walk out_edges(γ⁺) adjacency and
                // append in the shared arena — the `⋈◦` with the matcher's
                // edge set without materialising that edge set.
                let mut joined = match &nfa.matchers[m] {
                    EdgeMatcher::Pattern(p) => paths.step_join(graph, p),
                    EdgeMatcher::Explicit(set) => paths.step_join_where(graph, |e| set.contains(e)),
                };
                if self.config.simple_only {
                    // borrowed simplicity check over the arena — no
                    // candidate path is materialised just to be rejected
                    joined = joined.filter_refs(|r| r.is_simple());
                }
                if joined.is_empty() {
                    continue;
                }
                // Layer invariant (see module docs): every path produced
                // at depth d has length exactly d, so cross-depth
                // re-derivation is impossible and the set-semantics merge
                // below removes within-depth duplicates.
                debug_assert!(
                    joined
                        .ids()
                        .iter()
                        .all(|&id| joined.arena().path_len(id) == depth),
                    "depth-{depth} layer produced a path of a different length"
                );
                for closed in nfa.epsilon_closure(&[t.to].into_iter().collect()) {
                    next.entry(closed)
                        .and_modify(|s| s.merge(&joined))
                        .or_insert_with(|| joined.clone());
                }
            }
        }
        Ok(next)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mrpa_core::{Edge, EdgePattern, LabelId, Position, VertexId};

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
    fn generator_agrees_with_scan_on_figure_1() {
        let g = paper_graph();
        let regex = figure_1_regex();
        let gen = Generator::new(&regex, &g);
        let generated = gen.generate_up_to(5).unwrap();
        let scanned = Generator::generate_by_scan(&regex, &g, 5);
        assert_eq!(generated, scanned);
        assert!(!generated.is_empty());
        // every generated path is joint and recognised
        let rec = Recognizer::new(regex);
        assert!(generated.all_joint());
        assert!(generated.iter().all(|p| rec.recognizes(&p)));
    }

    #[test]
    fn generator_agrees_with_scan_on_star_expression() {
        let g = paper_graph();
        let regex = PathRegex::atom(EdgePattern::with_label(LabelId(1))).star();
        let gen = Generator::new(&regex, &g);
        let generated = gen.generate_up_to(3).unwrap();
        let scanned = Generator::generate_by_scan(&regex, &g, 3);
        assert_eq!(generated, scanned);
        // ε is part of the language of a star
        assert!(generated.contains(&Path::epsilon()));
    }

    #[test]
    fn generated_paths_emanate_from_source_atom() {
        let g = paper_graph();
        // [i,α,_] ⋈◦ [_,_,_]: length-2 paths starting at v0 with first label α
        let regex =
            PathRegex::atom(EdgePattern::from_vertex(VertexId(0)).label(Position::Is(LabelId(0))))
                .join(PathRegex::any_edge());
        let gen = Generator::new(&regex, &g);
        let paths = gen.generate_up_to(2).unwrap();
        assert!(!paths.is_empty());
        for p in paths.iter() {
            assert_eq!(p.len(), 2);
            assert_eq!(p.tail_vertex().unwrap(), VertexId(0));
            assert_eq!(p.sigma(1).unwrap().label, LabelId(0));
        }
    }

    #[test]
    fn length_bound_truncates_star_languages() {
        let g = paper_graph();
        let regex = PathRegex::any_edge().star();
        let gen = Generator::new(&regex, &g);
        let three = gen.generate_up_to(3).unwrap();
        let four = gen.generate_up_to(4).unwrap();
        assert!(three.len() < four.len());
        assert!(three.is_subset_of(&four));
        assert!(three.iter().all(|p| p.len() <= 3));
    }

    #[test]
    fn simple_only_excludes_revisits() {
        let g = paper_graph();
        let regex = PathRegex::any_edge().plus();
        let gen = Generator::new(&regex, &g);
        let simple = gen
            .generate(&GeneratorConfig::with_max_length(4).simple())
            .unwrap();
        assert!(!simple.is_empty());
        assert!(simple.iter().all(|p| p.is_simple()));
        let unrestricted = gen.generate_up_to(4).unwrap();
        assert!(simple.len() < unrestricted.len());
        assert!(simple.is_subset_of(&unrestricted));
    }

    #[test]
    fn max_paths_cap_is_enforced() {
        let g = paper_graph();
        let regex = PathRegex::any_edge().star();
        let gen = Generator::new(&regex, &g);
        let result = gen.generate(&GeneratorConfig::with_max_length(5).with_max_paths(3));
        assert!(matches!(
            result,
            Err(CoreError::BoundExceeded { bound: 3, .. })
        ));
    }

    #[test]
    fn cyclic_automata_on_a_two_cycle_do_not_rederive_paths() {
        // Pins the layer invariant (module docs): a 2-cycle graph under
        // starred automata exercises both a cyclic graph and cyclic NFAs with
        // overlapping ε-closures — the generated set must contain each path
        // exactly once, with no cross-depth re-derivation.
        let mut g = MultiGraph::new();
        g.add_edge(e(0, 0, 1));
        g.add_edge(e(1, 0, 0));
        let star = PathRegex::atom(EdgePattern::with_label(LabelId(0))).star();
        let gen = Generator::new(&star, &g);
        let got = gen.generate_up_to(5).unwrap();
        // exactly ε plus one walk per (start vertex, length): 1 + 2·5
        assert_eq!(got.len(), 11);
        assert_eq!(got, Generator::generate_by_scan(&star, &g, 5));

        // a redundant union inside the star multiplies derivation routes; the
        // language (and hence the generated set) must not change
        let redundant = PathRegex::atom(EdgePattern::with_label(LabelId(0)))
            .union(PathRegex::atom(EdgePattern::with_label(LabelId(0))))
            .star();
        let gen2 = Generator::new(&redundant, &g);
        let got2 = gen2.generate_up_to(5).unwrap();
        assert_eq!(got2, got);

        // nested stars (a*)* — the classic ε-cycle blowup shape
        let nested = PathRegex::atom(EdgePattern::with_label(LabelId(0)))
            .star()
            .star();
        let gen3 = Generator::new(&nested, &g);
        assert_eq!(gen3.generate_up_to(5).unwrap(), got);
    }

    #[test]
    fn layer_stepping_agrees_with_generate_and_reports_depths() {
        let g = paper_graph();
        let regex = PathRegex::any_edge().star();
        let gen = Generator::new(&regex, &g);
        let full = gen.generate_up_to(4).unwrap();
        let mut run = gen.run(GeneratorConfig::with_max_length(4));
        let mut merged = PathSet::new_in(run.arena());
        let mut depth = 0;
        while let Some(layer) = run.next_layer().unwrap() {
            // each reported layer holds exactly the depth-length paths
            assert!(layer.iter().all(|p| p.len() == depth), "depth {depth}");
            merged.merge(&layer);
            depth += 1;
        }
        assert_eq!(merged, full);
        // the run is exhausted and stays exhausted
        assert!(run.next_layer().unwrap().is_none());
    }

    #[test]
    fn shortest_match_early_exits_at_the_shallowest_accepting_depth() {
        let g = paper_graph();
        // ε is in the language: the shortest match is ε, found at depth 0
        let star = PathRegex::any_edge().star();
        let gen = Generator::new(&star, &g);
        let p = gen
            .shortest_match(&GeneratorConfig::with_max_length(5))
            .unwrap()
            .unwrap();
        assert!(p.is_empty());
        // a + requires at least one edge
        let plus = PathRegex::atom(EdgePattern::with_label(LabelId(1))).plus();
        let gen = Generator::new(&plus, &g);
        let p = gen
            .shortest_match(&GeneratorConfig::with_max_length(5))
            .unwrap()
            .unwrap();
        assert_eq!(p.len(), 1);
        // the early exit sidesteps max_paths blowups deeper layers would hit:
        // generate() errors under this cap, the shortest match does not
        let dense = PathRegex::any_edge().star();
        let gen = Generator::new(&dense, &g);
        let config = GeneratorConfig::with_max_length(5).with_max_paths(3);
        assert!(gen.generate(&config).is_err());
        assert!(gen.shortest_match(&config).unwrap().is_some());
        // an empty language has no match at any depth
        let gen = Generator::new(&PathRegex::Empty, &g);
        assert!(gen
            .shortest_match(&GeneratorConfig::with_max_length(4))
            .unwrap()
            .is_none());
    }

    #[test]
    fn empty_regex_generates_nothing() {
        let g = paper_graph();
        let gen = Generator::new(&PathRegex::Empty, &g);
        assert!(gen.generate_up_to(4).unwrap().is_empty());
    }

    #[test]
    fn epsilon_regex_generates_only_epsilon() {
        let g = paper_graph();
        let gen = Generator::new(&PathRegex::Epsilon, &g);
        let out = gen.generate_up_to(4).unwrap();
        assert_eq!(out.len(), 1);
        assert!(out.contains(&Path::epsilon()));
    }

    #[test]
    fn unmatched_atom_halts_branch() {
        let g = paper_graph();
        // label 9 has no edges in the graph: the branch's path set becomes ∅
        let regex =
            PathRegex::atom(EdgePattern::with_label(LabelId(9))).join(PathRegex::any_edge());
        let gen = Generator::new(&regex, &g);
        assert!(gen.generate_up_to(4).unwrap().is_empty());
    }
}
