//! Malformed input gives a typed error, never a panic.
//!
//! Seeded byte mutants (deletions, insertions, substitutions, truncations)
//! of valid MRPA-QL statements either fail `compile` with an error that
//! renders, or compile to a query that survives every terminal under every
//! strategy within a timeout and a memory budget. Mutated wire-protocol
//! request lines either fail `json::parse` or parse to a value that renders
//! and parses back to itself. Seeded mutants of a written checkpoint (bit
//! flips, truncations, page-length edits) either open or fail with a
//! `StoreError`.

use std::time::Duration;

use rand::Rng as _;

use mrpa::datagen::random::{rng_stream, Rng};
use mrpa::engine::{classic_social_graph, ExecutionStrategy};
use mrpa::server::json;

const STATEMENTS: [&str; 8] = [
    "FROM marko OUT knows LIMIT 2",
    r#"FROM person:marko MATCH -[knows+·created]-> WHERE dst.lang = "java" CHEAPEST BY weight TOP 3"#,
    "EXPLAIN FROM * MATCH REACHABLE -[knows*.created]-> DEDUP",
    "PROFILE FROM (age > 30) BOTH * IS josh, peter COUNT",
    "FROM marko, josh REPEAT {1,3} (OUT knows) UNTIL age >= 32 EXISTS",
    "FROM * MATCH GLOBAL -[knows+]-> MATCH <-[created]- WITHIN 4 WIDEST BY LABELS (knows = 0.5, created = 2) FIRST",
    r#"FROM (lang IN ("java", "c")) IN created WHERE name CONTAINS "o" DEDUP"#,
    r#"FROM * OUT "knows", created WHERE dst.age != 29 MATCH -[(_|knows){1,2}]-> TOP 5"#,
];

const REQUESTS: [&str; 5] = [
    r#"{"id":41,"op":"query","query":"FROM marko OUT knows LIMIT 2","memory_budget":1024}"#,
    r#"{"op":"add_edge","tail":"marko","label":"knows","head":"nadia","props":{"weight":0.9}}"#,
    r#"{"op":"add_vertex","name":"né\"\\\/\b\f\n\r\t","props":{"age":-3.5e2,"ok":true}}"#,
    r#"{"op":"metrics","format":"prometheus","threads":[1,2.0,null,false]}"#,
    r#" [ {"a" : [ [ ] , { } ] } , "" , 0 , 1E-3 ] "#,
];

/// Bytes a mutation inserts or substitutes: the grammar's punctuation,
/// digits, keyword letters, the two bytes of `·`, and any byte at all.
fn mutation_byte(r: &mut Rng) -> u8 {
    const SIGNIFICANT: &[u8] = b"-[]<>(){},.:*=!\"'\\|+?_ 0123456789eEaOUTFROMxyz\xc2\xb7";
    if r.gen_range(0u32..4) == 0 {
        r.gen_range(0u32..256) as u8
    } else {
        SIGNIFICANT[r.gen_range(0..SIGNIFICANT.len())]
    }
}

/// One to three random byte edits of `seed`, read back lossily as UTF-8.
fn mutant(r: &mut Rng, seed: &str) -> String {
    let mut bytes = seed.as_bytes().to_vec();
    for _ in 0..r.gen_range(1u32..4) {
        let at = r.gen_range(0..bytes.len() + 1);
        match r.gen_range(0u32..4) {
            0 if at < bytes.len() => {
                bytes.remove(at);
            }
            1 => bytes.insert(at, mutation_byte(r)),
            2 if at < bytes.len() => bytes[at] = mutation_byte(r),
            _ => bytes.truncate(at),
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

#[test]
fn mutated_statements_compile_or_fail_with_a_rendered_error() {
    for text in STATEMENTS {
        if let Err(e) = mrpa::query::compile(text) {
            panic!("a seed statement does not compile: {}", e.render(text));
        }
    }
    let g = classic_social_graph();
    let mut r = rng_stream(0x0BAD_1097, 1);
    let mut compiled = 0;
    for case in 0..20_000 {
        let text = mutant(&mut r, STATEMENTS[case % STATEMENTS.len()]);
        let query = match mrpa::query::compile(&text) {
            Ok(query) => query,
            Err(e) => {
                assert!(!e.render(&text).is_empty(), "case {case}: {text:?}");
                continue;
            }
        };
        compiled += 1;
        for strategy in [
            ExecutionStrategy::Materialized,
            ExecutionStrategy::Streaming,
            ExecutionStrategy::Parallel,
        ] {
            let t = query
                .traversal(&g)
                .strategy(strategy)
                .timeout(Duration::from_millis(20))
                .memory_budget(4 << 20);
            // each terminal answers or errors; none may panic
            let _ = t.explain();
            let _ = t.execute();
            let _ = t.count();
            let _ = t.first();
            let _ = t.profile();
        }
    }
    // most mutants fail to compile; the execution half needs some that don't
    assert!(compiled >= 1_000, "only {compiled} mutants compiled");
}

#[test]
fn mutated_request_lines_parse_or_fail_and_round_trip() {
    let mut r = rng_stream(0x0BAD_1097, 2);
    let mut parsed = 0;
    for case in 0..50_000 {
        let line = mutant(&mut r, REQUESTS[case % REQUESTS.len()]);
        let Ok(value) = json::parse(&line) else {
            continue;
        };
        parsed += 1;
        let rendered = value.render();
        assert_eq!(
            json::parse(&rendered).as_ref(),
            Ok(&value),
            "case {case}: {line:?} rendered as {rendered:?}"
        );
    }
    assert!(parsed >= 5_000, "only {parsed} mutants parsed");
}

/// The offsets of every checkpoint page's payload-length field: a page is a
/// tag byte, a `u32` payload length, a `u32` CRC and the payload, after a
/// 20-byte header (magic, version, epoch).
fn page_length_fields(bytes: &[u8]) -> Vec<usize> {
    let mut fields = Vec::new();
    let mut at = 20;
    while at + 9 <= bytes.len() {
        fields.push(at + 1);
        let len = u32::from_le_bytes(bytes[at + 1..at + 5].try_into().unwrap());
        at += 9 + len as usize;
    }
    fields
}

#[test]
fn mutated_checkpoints_open_or_fail_with_a_store_error() {
    use mrpa::engine::checkpoint::CHECKPOINT_FILE;
    use mrpa::engine::PropertyGraph;

    let root = std::env::temp_dir().join(format!("mrpa-ckpt-fuzz-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    let source = root.join("source");
    {
        let g = PropertyGraph::open(&source).expect("open a fresh store");
        for i in 0..40 {
            g.add_edge(&format!("p{i}"), "knows", &format!("p{}", (i * 7 + 3) % 40));
            g.add_edge(&format!("p{i}"), "created", &format!("s{}", i % 5));
        }
        g.checkpoint().expect("checkpoint");
    }
    let written = std::fs::read(source.join(CHECKPOINT_FILE)).expect("read checkpoint");
    let fields = page_length_fields(&written);
    assert!(fields.len() >= 3, "the checkpoint has several pages");
    let mut r = rng_stream(0x0BAD_1097, 3);
    let (mut opened, mut refused) = (0, 0);
    for case in 0..300 {
        let mut bytes = written.clone();
        match case % 3 {
            0 => {
                for _ in 0..r.gen_range(1..4) {
                    let at = r.gen_range(0..bytes.len());
                    bytes[at] ^= 1 << r.gen_range(0..8);
                }
            }
            1 => bytes.truncate(r.gen_range(0..bytes.len())),
            _ => {
                let at = fields[r.gen_range(0..fields.len())];
                let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
                let edited = match r.gen_range(0..3) {
                    0 => len.wrapping_add(r.gen_range(1..16)),
                    1 => len.saturating_sub(r.gen_range(1..16)),
                    _ => r.gen::<u32>(),
                };
                bytes[at..at + 4].copy_from_slice(&edited.to_le_bytes());
            }
        }
        let dir = root.join(format!("case{case}"));
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(CHECKPOINT_FILE), &bytes).unwrap();
        let outcome = std::panic::catch_unwind(|| PropertyGraph::open(&dir).map(|_| ()));
        match outcome {
            Ok(Ok(())) => opened += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panic!("case {case}: opening a mutated checkpoint panicked"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&root);
    // every truncation and length edit, and nearly every bit flip, is caught
    assert!(refused >= 200, "{refused} refused, {opened} opened");
}
