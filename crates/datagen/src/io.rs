//! Serialization: a plain-text edge-list format, one `tail label head`
//! triple per line (names, not ids) — convenient for hand-written fixtures
//! and interop with other graph tools. Isolated vertices are not
//! representable.

use std::io::{BufRead, Write};

use mrpa_core::{GraphBuilder, NamedGraph};

use crate::error::DatagenError;

/// Writes a named graph as a `tail label head` edge list (one edge per line,
/// `#`-prefixed comment lines allowed on read).
pub fn write_edge_list<W: Write>(graph: &NamedGraph, mut out: W) -> Result<(), DatagenError> {
    let interner = graph.interner();
    for e in graph.graph().edges() {
        writeln!(
            out,
            "{} {} {}",
            interner.vertex_name(e.tail).unwrap_or_default(),
            interner.label_name(e.label).unwrap_or_default(),
            interner.vertex_name(e.head).unwrap_or_default()
        )
        .map_err(|e| DatagenError::Io(e.to_string()))?;
    }
    Ok(())
}

/// Reads a `tail label head` edge list into a named graph. Blank lines and
/// lines starting with `#` are skipped; malformed lines are errors.
pub fn read_edge_list<R: BufRead>(input: R) -> Result<NamedGraph, DatagenError> {
    let mut b = GraphBuilder::new();
    for (lineno, line) in input.lines().enumerate() {
        let line = line.map_err(|e| DatagenError::Io(e.to_string()))?;
        let trimmed = line.trim();
        if trimmed.is_empty() || trimmed.starts_with('#') {
            continue;
        }
        let parts: Vec<&str> = trimmed.split_whitespace().collect();
        if parts.len() != 3 {
            return Err(DatagenError::Format(format!(
                "line {}: expected `tail label head`, got {trimmed:?}",
                lineno + 1
            )));
        }
        b.edge(parts[0], parts[1], parts[2]);
    }
    Ok(b.build())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> NamedGraph {
        let mut b = GraphBuilder::new();
        b.edges([
            ("marko", "knows", "josh"),
            ("marko", "created", "lop"),
            ("josh", "created", "lop"),
        ]);
        b.vertex("isolated");
        b.build()
    }

    #[test]
    fn edge_list_roundtrip() {
        let g = sample();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(text.contains("marko knows josh"));
        let parsed = read_edge_list(std::io::Cursor::new(text)).unwrap();
        assert_eq!(parsed.graph().edge_count(), 3);
        // isolated vertices are not representable in the edge-list format
        assert_eq!(parsed.graph().vertex_count(), 3);
    }

    #[test]
    fn edge_list_skips_comments_and_blank_lines() {
        let text = "# a comment\n\nmarko knows josh\n  \n# another\njosh created lop\n";
        let parsed = read_edge_list(std::io::Cursor::new(text)).unwrap();
        assert_eq!(parsed.graph().edge_count(), 2);
    }

    #[test]
    fn malformed_edge_list_line_is_an_error() {
        let text = "marko knows\n";
        let err = read_edge_list(std::io::Cursor::new(text));
        assert!(matches!(err, Err(DatagenError::Format(_))));
    }
}
