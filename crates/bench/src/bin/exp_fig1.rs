//! E1 — Figure 1: the paper's example automaton as recognizer and generator.
//!
//! Builds the §II example graph, constructs the Figure-1 regular expression
//! `[i,α,_] ⋈◦ [_,β,_]* ⋈◦ (([_,α,j] ⋈◦ {(j,α,i)}) ∪ [_,α,k])`, and shows
//! (a) the generated path set, (b) that the generator agrees with
//! recognizer-filtered exhaustive traversal, and (c) the same on a family of
//! larger random graphs. It panics unless the two agree on every graph and
//! the random family accepts at least one path.

use mrpa_bench::{fmt_f, time, Table};
use mrpa_core::GraphBuilder;
use mrpa_datagen::{erdos_renyi, ErConfig};
use mrpa_regex::{parse, Generator, GeneratorConfig, PathRegex};

/// Probability of each labeled edge in the random family: dense enough that
/// the expression accepts paths of length ≤ 4 from vertex 0.
const EDGE_PROBABILITY: f64 = 0.12;

fn main() {
    // --- the paper's own example graph -------------------------------------
    let mut b = GraphBuilder::new();
    b.edges([
        ("i", "alpha", "j"),
        ("j", "beta", "k"),
        ("k", "alpha", "j"),
        ("j", "beta", "j"),
        ("j", "beta", "i"),
        ("i", "alpha", "k"),
        ("i", "beta", "k"),
    ]);
    let named = b.build();
    let regex = parse(
        "[i, alpha, _] . [_, beta, _]* . (([_, alpha, j] . [j, alpha, i]) | [_, alpha, k])",
        &named,
    )
    .expect("figure-1 expression parses");

    let max_len = 6;
    let generator = Generator::new(&regex, named.graph());
    let generated = generator
        .generate(&GeneratorConfig::with_max_length(max_len))
        .unwrap();
    let scanned = Generator::generate_by_scan(&regex, named.graph(), max_len);

    println!("Figure 1 automaton on the paper's §II example graph (paths of length ≤ {max_len}):");
    for p in generated.iter() {
        println!("  {}", named.render_path(&p));
    }
    println!(
        "generator paths = {}, recognizer∘scan paths = {}, agree = {}",
        generated.len(),
        scanned.len(),
        generated == scanned
    );
    assert!(
        generated == scanned,
        "the generator disagrees with recognizer∘scan on the paper's graph"
    );

    // --- the same expression family on random graphs -----------------------
    let mut table = Table::new([
        "graph |V|",
        "|E|",
        "accepted paths",
        "generate ms",
        "scan ms",
        "agree",
    ]);
    let mut accepted = 0;
    for &n in &[10usize, 20, 40] {
        let g = erdos_renyi(ErConfig {
            vertices: n,
            labels: 2,
            edge_probability: EDGE_PROBABILITY,
            seed: 42,
        });
        // vertices 0, 1, 2 play the roles of i, j, k; labels 0, 1 are α, β
        let regex = PathRegex::figure_1(
            mrpa_core::VertexId(0),
            mrpa_core::VertexId(1),
            mrpa_core::VertexId(2),
            mrpa_core::LabelId(0),
            mrpa_core::LabelId(1),
        );
        let generator = Generator::new(&regex, &g);
        let (generated, gen_ms) = time(|| {
            generator
                .generate(&GeneratorConfig::with_max_length(4))
                .unwrap()
        });
        let (scanned, scan_ms) = time(|| Generator::generate_by_scan(&regex, &g, 4));
        table.row([
            n.to_string(),
            g.edge_count().to_string(),
            generated.len().to_string(),
            fmt_f(gen_ms),
            fmt_f(scan_ms),
            (generated == scanned).to_string(),
        ]);
        assert!(
            generated == scanned,
            "the generator disagrees with recognizer∘scan on the {n}-vertex graph"
        );
        accepted += generated.len();
    }
    table.print("E1: Figure-1 expression, generator vs recognizer∘scan");
    // agreement on graphs that accept nothing would compare ∅ with ∅
    assert!(accepted > 0, "no random graph accepts a Figure-1 path");
}
