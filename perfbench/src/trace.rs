//! Spans recorded around the benchmark's calls into each layer.
//!
//! Only the traced run records anything. Spans are kept in memory and written
//! out as JSON lines when the run ends; the per-layer metrics are derived
//! from the durations of the spans with a given name and from the counters
//! the layers return.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

use mrpa_engine::ProfiledQuery;

use crate::stats::ratio;
use crate::Bench;

pub struct Span {
    id: u64,
    request: u64,
    name: &'static str,
    parent: Option<u64>,
    start_ns: u128,
    end_ns: u128,
}

pub struct Tracer {
    pub on: bool,
    origin: Instant,
    spans: Vec<Span>,
    /// Span durations in milliseconds, by span name.
    durations: BTreeMap<&'static str, Vec<f64>>,
}

impl Tracer {
    pub fn new(on: bool) -> Self {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            durations: BTreeMap::new(),
        }
    }

    /// Records a finished span and returns its id (0 when tracing is off).
    pub fn span(
        &mut self,
        request: u64,
        name: &'static str,
        parent: Option<u64>,
        start: Instant,
        end: Instant,
    ) -> u64 {
        if !self.on {
            return 0;
        }
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span {
            id,
            request,
            name,
            parent,
            start_ns: start.duration_since(self.origin).as_nanos(),
            end_ns: end.duration_since(self.origin).as_nanos(),
        });
        self.durations
            .entry(name)
            .or_default()
            .push(end.duration_since(start).as_secs_f64() * 1e3);
        id
    }

    /// Durations (ms) of every span called `name`.
    pub fn durations(&self, name: &str) -> &[f64] {
        self.durations.get(name).map_or(&[], Vec::as_slice)
    }

    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
            writeln!(
                out,
                r#"{{"id":{},"request":{},"name":"{}","parent":{},"start_ns":{},"end_ns":{}}}"#,
                s.id, s.request, s.name, parent, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Trace-node kinds and the metric of each, in the order of
/// `Profiles::self_ns`; an op belongs to the first kind its name starts
/// with, `restrict`/`has` filters to `filter`, anything else to `start`.
const OP_KINDS: [(&str, &str); 7] = [
    ("start", "trace.start.self_share"),
    ("join", "trace.expand.self_share"),
    ("automaton", "trace.automaton.self_share"),
    ("weighted", "trace.weighted.self_share"),
    ("dedup", "trace.dedup.self_share"),
    ("limit", "trace.limit.self_share"),
    ("filter", "trace.filter.self_share"),
];

fn op_kind(op: &str) -> usize {
    if op.starts_with("restrict") || op.starts_with("has") {
        return 6;
    }
    OP_KINDS
        .iter()
        .position(|(prefix, _)| op.starts_with(prefix))
        .unwrap_or(0)
}

/// Totals over the `Traversal::profile` runs of a traced run.
#[derive(Default)]
pub struct Profiles {
    self_ns: [u64; 7],
    arena_appends: u64,
    rows: u64,
    /// Time of the same statements run without profiling.
    pub plain_s: f64,
    profiled_s: f64,
}

impl Profiles {
    /// Adds one profiled run that took `profiled_s`, of a statement whose
    /// plain run took `plain_s`.
    pub fn add(&mut self, profiled: &ProfiledQuery, plain_s: f64, profiled_s: f64) {
        self.plain_s += plain_s;
        self.profiled_s += profiled_s;
        self.rows += profiled.result.len() as u64;
        for node in profiled.trace.root.flatten() {
            self.self_ns[op_kind(&node.op)] += node.self_time_ns;
            self.arena_appends += node.arena_appends;
        }
    }

    /// Each op kind's share of self time, the profiling overhead and the
    /// arena appends per row.
    pub fn report(&self, bench: &mut Bench) {
        let total: u64 = self.self_ns.iter().sum();
        for (i, (_, metric)) in OP_KINDS.iter().enumerate() {
            bench.layer(metric, ratio(self.self_ns[i] as f64, total as f64));
        }
        bench.layer("trace.overhead", ratio(self.profiled_s, self.plain_s));
        bench.layer(
            "arena.appends_per_row",
            ratio(self.arena_appends as f64, self.rows as f64),
        );
    }
}
