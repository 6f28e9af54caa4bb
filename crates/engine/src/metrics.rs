//! Process-wide metrics registry: named counters, gauges, and fixed-bucket
//! latency histograms with a lock-free fast path.
//!
//! The registry is a process-global singleton ([`registry`]). Metrics are
//! registered once (under a `Mutex`, first use only) and handed out as
//! `&'static` references whose update methods are single atomic operations —
//! no locks, no allocation, no formatting on the hot path. Call sites cache
//! the reference in a `OnceLock` so steady-state cost is one relaxed atomic
//! RMW per event.
//!
//! Two export formats are supported:
//!
//! * [`Registry::snapshot`] — a typed dump for programmatic consumers (the
//!   server renders it as JSON for the `metrics` op).
//! * [`Registry::render_prometheus`] — Prometheus text exposition format
//!   (`# HELP` / `# TYPE` lines, `_bucket{le="..."}` series, escaped help
//!   text) for scraping.
//!
//! Histograms use a fixed microsecond bucket ladder ([`BUCKET_BOUNDS_US`]):
//! 50µs → 5s plus a `+Inf` overflow bucket. Buckets are stored
//! non-cumulative internally and accumulated at snapshot/render time, so
//! `observe` is two atomic increments and one atomic add.
//!
//! The engine feeds this registry from query execution
//! ([`crate::pipeline::Traversal`] terminals), snapshot/COW/CSR/reversed
//! builds, WAL appends and fsyncs, and checkpoint/recovery durations. The
//! metric name tables live in the README's Observability section.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Duration;

/// Upper bounds (inclusive, microseconds) of the histogram buckets; an
/// implicit `+Inf` bucket follows the last entry.
pub const BUCKET_BOUNDS_US: [u64; 14] = [
    50, 100, 250, 500, 1_000, 2_500, 5_000, 10_000, 25_000, 50_000, 100_000, 250_000, 1_000_000,
    5_000_000,
];

const BUCKETS: usize = BUCKET_BOUNDS_US.len() + 1; // + the +Inf bucket

/// A monotonically increasing counter.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// Adds one to the counter.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n` to the counter.
    #[inline]
    pub fn add(&self, n: u64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A gauge: a value that can go up and down.
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicI64,
}

impl Gauge {
    /// Adds `n` (possibly negative) to the gauge.
    #[inline]
    pub fn add(&self, n: i64) {
        self.value.fetch_add(n, Ordering::Relaxed);
    }

    /// Sets the gauge to `n`.
    #[inline]
    pub fn set(&self, n: i64) {
        self.value.store(n, Ordering::Relaxed);
    }

    /// The current value.
    pub fn get(&self) -> i64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket latency histogram over microseconds.
#[derive(Debug)]
pub struct Histogram {
    buckets: [AtomicU64; BUCKETS],
    sum_us: AtomicU64,
    count: AtomicU64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_us: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }
    }
}

impl Histogram {
    /// Records one observation of `us` microseconds.
    #[inline]
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKET_BOUNDS_US
            .iter()
            .position(|&bound| us <= bound)
            .unwrap_or(BUCKETS - 1);
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.sum_us.fetch_add(us, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
    }

    /// Records one observation of an elapsed [`Duration`].
    #[inline]
    pub fn observe(&self, elapsed: Duration) {
        self.observe_us(elapsed.as_micros().min(u128::from(u64::MAX)) as u64);
    }

    /// Total number of observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Sum of all observed values, microseconds.
    pub fn sum_us(&self) -> u64 {
        self.sum_us.load(Ordering::Relaxed)
    }

    /// Cumulative bucket counts aligned with [`BUCKET_BOUNDS_US`] plus the
    /// trailing `+Inf` bucket (last entry equals [`Histogram::count`], up to
    /// concurrent-update skew).
    pub fn cumulative_buckets(&self) -> [u64; BUCKETS] {
        let mut out = [0u64; BUCKETS];
        let mut acc = 0u64;
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            acc += bucket.load(Ordering::Relaxed);
            *slot = acc;
        }
        out
    }
}

/// The value of one metric at snapshot time.
#[derive(Debug, Clone, PartialEq)]
pub enum MetricValue {
    /// Counter value.
    Counter(u64),
    /// Gauge value.
    Gauge(i64),
    /// Histogram: cumulative bucket counts (aligned with
    /// [`BUCKET_BOUNDS_US`] + `+Inf`), sum of observations (µs), and count.
    Histogram {
        /// Cumulative counts per bucket, `+Inf` last.
        buckets: Vec<u64>,
        /// Sum of all observations, microseconds.
        sum_us: u64,
        /// Number of observations.
        count: u64,
    },
}

/// One named metric in a [`Registry::snapshot`].
#[derive(Debug, Clone, PartialEq)]
pub struct MetricSnapshot {
    /// Registered metric name (Prometheus-safe: `[a-zA-Z_][a-zA-Z0-9_]*`).
    pub name: &'static str,
    /// One-line help text.
    pub help: &'static str,
    /// The metric's value at snapshot time.
    pub value: MetricValue,
}

enum Slot {
    Counter(&'static Counter),
    Gauge(&'static Gauge),
    Histogram(&'static Histogram),
}

struct Entry {
    name: &'static str,
    help: &'static str,
    slot: Slot,
}

/// A named-metric registry. Use the process-global one via [`registry`].
#[derive(Default)]
pub struct Registry {
    entries: Mutex<Vec<Entry>>,
}

impl Registry {
    /// Returns the counter registered under `name`, registering it (with
    /// `help`) on first use. Panics if `name` is already registered as a
    /// different metric kind. Call sites should cache the returned
    /// reference (e.g. in a `OnceLock`) — registration takes a lock.
    pub fn counter(&self, name: &'static str, help: &'static str) -> &'static Counter {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            if e.name == name {
                match e.slot {
                    Slot::Counter(c) => return c,
                    _ => panic!("metric {name:?} already registered with a different kind"),
                }
            }
        }
        let c: &'static Counter = Box::leak(Box::default());
        entries.push(Entry {
            name,
            help,
            slot: Slot::Counter(c),
        });
        c
    }

    /// Returns the gauge registered under `name`, registering it on first
    /// use. Same contract as [`Registry::counter`].
    pub fn gauge(&self, name: &'static str, help: &'static str) -> &'static Gauge {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            if e.name == name {
                match e.slot {
                    Slot::Gauge(g) => return g,
                    _ => panic!("metric {name:?} already registered with a different kind"),
                }
            }
        }
        let g: &'static Gauge = Box::leak(Box::default());
        entries.push(Entry {
            name,
            help,
            slot: Slot::Gauge(g),
        });
        g
    }

    /// Returns the histogram registered under `name`, registering it on
    /// first use. Same contract as [`Registry::counter`].
    pub fn histogram(&self, name: &'static str, help: &'static str) -> &'static Histogram {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        for e in entries.iter() {
            if e.name == name {
                match e.slot {
                    Slot::Histogram(h) => return h,
                    _ => panic!("metric {name:?} already registered with a different kind"),
                }
            }
        }
        let h: &'static Histogram = Box::leak(Box::default());
        entries.push(Entry {
            name,
            help,
            slot: Slot::Histogram(h),
        });
        h
    }

    /// A typed dump of every registered metric, sorted by name.
    pub fn snapshot(&self) -> Vec<MetricSnapshot> {
        let entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        let mut out: Vec<MetricSnapshot> = entries
            .iter()
            .map(|e| MetricSnapshot {
                name: e.name,
                help: e.help,
                value: match e.slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Histogram(h) => MetricValue::Histogram {
                        buckets: h.cumulative_buckets().to_vec(),
                        sum_us: h.sum_us(),
                        count: h.count(),
                    },
                },
            })
            .collect();
        out.sort_by_key(|s| s.name);
        out
    }

    /// Renders every registered metric in Prometheus text exposition format
    /// (version 0.0.4): `# HELP` / `# TYPE` preambles, histogram
    /// `_bucket{le="..."}` / `_sum` / `_count` series, and backslash-escaped
    /// help text. Bucket `le` labels are microsecond bounds (the `_us` name
    /// suffix carries the unit).
    pub fn render_prometheus(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for m in self.snapshot() {
            let _ = writeln!(out, "# HELP {} {}", m.name, escape_help(m.help));
            match m.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {} counter", m.name);
                    let _ = writeln!(out, "{} {}", m.name, v);
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {} gauge", m.name);
                    let _ = writeln!(out, "{} {}", m.name, v);
                }
                MetricValue::Histogram {
                    buckets,
                    sum_us,
                    count,
                } => {
                    let _ = writeln!(out, "# TYPE {} histogram", m.name);
                    for (i, v) in buckets.iter().enumerate() {
                        let le = match BUCKET_BOUNDS_US.get(i) {
                            Some(bound) => bound.to_string(),
                            None => "+Inf".to_string(),
                        };
                        let _ = writeln!(
                            out,
                            "{}_bucket{{le=\"{}\"}} {}",
                            m.name,
                            escape_label(&le),
                            v
                        );
                    }
                    let _ = writeln!(out, "{}_sum {}", m.name, sum_us);
                    let _ = writeln!(out, "{}_count {}", m.name, count);
                }
            }
        }
        out
    }
}

/// Escapes a `# HELP` line: backslash and newline per the exposition format.
fn escape_help(s: &str) -> String {
    s.replace('\\', "\\\\").replace('\n', "\\n")
}

/// Escapes a label value: backslash, double-quote, and newline.
pub fn escape_label(s: &str) -> String {
    s.replace('\\', "\\\\")
        .replace('"', "\\\"")
        .replace('\n', "\\n")
}

/// The process-global metrics registry.
pub fn registry() -> &'static Registry {
    static REGISTRY: OnceLock<Registry> = OnceLock::new();
    REGISTRY.get_or_init(Registry::default)
}

/// Defines a zero-argument accessor that registers a metric on first call
/// and caches the `&'static` handle, so steady-state use is lock-free.
macro_rules! cached_metric {
    ($(#[$doc:meta])* $vis:vis fn $f:ident: $kind:ident($name:literal, $help:literal);) => {
        $(#[$doc])*
        $vis fn $f() -> &'static $kind {
            static M: OnceLock<&'static $kind> = OnceLock::new();
            M.get_or_init(|| {
                let r = registry();
                cached_metric!(@get r, $kind, $name, $help)
            })
        }
    };
    (@get $r:ident, Counter, $name:literal, $help:literal) => { $r.counter($name, $help) };
    (@get $r:ident, Gauge, $name:literal, $help:literal) => { $r.gauge($name, $help) };
    (@get $r:ident, Histogram, $name:literal, $help:literal) => { $r.histogram($name, $help) };
}

cached_metric! {
    /// Queries executed to completion through any [`crate::Traversal`]
    /// terminal (`execute`/`count`/`exists`/`first`/`profile`).
    pub fn queries_total: Counter("mrpa_queries_total", "Queries executed through a Traversal terminal");
}
cached_metric! {
    /// End-to-end query execution latency (compile + drain), microseconds.
    pub fn query_latency: Histogram("mrpa_query_latency_us", "Query execution latency in microseconds");
}
cached_metric! {
    /// Planning latency (`plan` + `optimize`), microseconds: one observation
    /// per query, whether it runs, is profiled or is only explained.
    pub fn query_plan: Histogram("mrpa_query_plan_us", "Query planning (plan + optimize) latency in microseconds");
}
cached_metric! {
    /// Automaton/expansion edge visits across all queries.
    pub fn query_expansions: Counter("mrpa_query_expansions_total", "Edge expansions performed by query execution");
}
cached_metric! {
    /// O(1) COW snapshots taken of any store.
    pub fn snapshots_total: Counter("mrpa_store_snapshots_total", "COW snapshots taken");
}
cached_metric! {
    /// Full deep clones of graph state (COW fault on a shared generation).
    pub fn deep_clones_total: Counter("mrpa_store_deep_clones_total", "Copy-on-write deep clones of graph state");
}
cached_metric! {
    /// Lazy reversed-graph builds (one per generation it is asked for on).
    pub fn reversed_builds_total: Counter("mrpa_store_reversed_builds_total", "Reversed adjacency index builds");
}
cached_metric! {
    /// Lazy CSR topology builds (per generation × direction).
    pub fn csr_builds_total: Counter("mrpa_store_csr_builds_total", "CSR topology snapshot builds");
}
cached_metric! {
    /// WAL records appended (acknowledged mutations).
    pub fn wal_records_total: Counter("mrpa_wal_records_total", "WAL records appended");
}
cached_metric! {
    /// WAL fsyncs (`sync_data`) issued by persist/checkpoint/truncate.
    pub fn wal_fsyncs_total: Counter("mrpa_wal_fsyncs_total", "WAL fsync (sync_data) calls");
}
cached_metric! {
    /// Checkpoints written.
    pub fn checkpoints_total: Counter("mrpa_checkpoints_total", "Checkpoints written");
}
cached_metric! {
    /// Bytes written into checkpoint files (before rename).
    pub fn checkpoint_bytes_total: Counter("mrpa_checkpoint_bytes_total", "Bytes written to checkpoint files");
}
cached_metric! {
    /// End-to-end checkpoint duration (capture + write + fsync + truncate).
    pub fn checkpoint_latency: Histogram("mrpa_checkpoint_duration_us", "Checkpoint duration in microseconds");
}
cached_metric! {
    /// Recovery duration on `open` (checkpoint load + WAL replay).
    pub fn recovery_latency: Histogram("mrpa_recovery_duration_us", "Store open/recovery duration in microseconds");
}
cached_metric! {
    /// Live snapshot count across all stores (gauge; rises and falls with
    /// snapshot lifetimes).
    pub fn live_snapshots_gauge: Gauge("mrpa_store_live_snapshots", "Currently live COW snapshots");
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_roundtrip() {
        let c = registry().counter("test_counter_total", "test");
        let before = c.get();
        c.inc();
        c.add(2);
        assert_eq!(c.get(), before + 3);
        // Re-registration under the same name returns the same handle.
        let again = registry().counter("test_counter_total", "test");
        assert_eq!(again.get(), before + 3);

        let g = registry().gauge("test_gauge", "test");
        g.set(5);
        g.add(-2);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_buckets_are_cumulative() {
        let h = registry().histogram("test_hist_us", "test");
        h.observe_us(40); // bucket 0 (<=50)
        h.observe_us(60); // bucket 1 (<=100)
        h.observe_us(10_000_000); // +Inf
        let buckets = h.cumulative_buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[BUCKETS - 1], 3);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum_us(), 40 + 60 + 10_000_000);
    }

    #[test]
    fn prometheus_rendering_has_type_lines_and_inf_bucket() {
        let h = registry().histogram("test_render_us", "a help line with \\ backslash");
        h.observe_us(1);
        let text = registry().render_prometheus();
        assert!(text.contains("# TYPE test_render_us histogram"));
        assert!(text.contains("test_render_us_bucket{le=\"+Inf\"}"));
        assert!(text.contains("test_render_us_sum"));
        assert!(text.contains("test_render_us_count"));
        assert!(text.contains("a help line with \\\\ backslash"));
        // Every non-comment line is `name[{labels}] value`.
        for line in text.lines() {
            if line.starts_with('#') || line.is_empty() {
                continue;
            }
            let (_, value) = line.rsplit_once(' ').expect("sample line");
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
    }

    #[test]
    #[should_panic(expected = "different kind")]
    fn kind_mismatch_panics() {
        registry().counter("test_kind_clash", "test");
        registry().gauge("test_kind_clash", "test");
    }
}
