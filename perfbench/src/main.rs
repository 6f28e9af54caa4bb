//! End-to-end and per-layer benchmark of the mrpa traversal engine.
//!
//! ```text
//! perfbench --workload <dense_fit|point_server|mixed_rw> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. See README.md
//! in this directory for the workloads, the metrics and how each layer
//! metric maps onto an end-to-end one.

mod dense;
mod host;
mod lifecycle;
mod mixed;
mod oracle;
mod point;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use mrpa_datagen::{social_graph, SocialConfig};
use mrpa_engine::PropertyGraph;

use oracle::Oracle;
use trace::Tracer;

/// End-to-end metrics, reported by the untraced run of every workload.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("queries_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p90", "ms"),
    ("rows_per_s", "rows/s"),
    ("count_rows_per_s", "rows/s"),
    ("first_row_ms_p50", "ms"),
    ("write_ms_p50", "ms"),
    ("ingest_edges_per_s", "edges/s"),
    ("checkpoint_s", "s"),
    ("reopen_s", "s"),
    ("recover_s", "s"),
    ("stored_bytes_per_edge", "B/edge"),
];

/// Per-layer metrics, reported by the traced run. A layer a workload does
/// not exercise (the server in an embedded workload) reads 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("datagen.generate_s", "s"),
    ("query.compile_us_p50", "us"),
    ("plan.plan_ms_p50", "ms"),
    ("plan.optimize_ms_p50", "ms"),
    ("plan.ops_after", "count"),
    ("plan.share", "ratio"),
    ("store.snapshot_us_p50", "us"),
    ("store.deep_clones", "count"),
    ("store.clone_write_ms_p50", "ms"),
    ("store.reversed_builds", "count"),
    ("store.csr_builds", "count"),
    ("store.rebuild_ms_p50", "ms"),
    ("store.csr_bytes", "B"),
    ("store.read_ms_p90", "ms"),
    ("store.read_ms_p90_excl_rebuild", "ms"),
    ("wal.append_us_p50", "us"),
    ("wal.persist_us_p50", "us"),
    ("wal.records", "count"),
    ("wal.fsyncs", "count"),
    ("wal.bytes_per_record", "B"),
    ("wal.ingest_mb_per_s", "MB/s"),
    ("checkpoint.mb_per_s", "MB/s"),
    ("checkpoint.bytes_per_edge", "B/edge"),
    ("recovery.replayed_records", "count"),
    ("recovery.records_per_s", "1/s"),
    ("exec.cursor_open_ms_p50", "ms"),
    ("exec.first_pull_ms_p50", "ms"),
    ("exec.expansions_per_row", "ratio"),
    ("exec.first_row_expansions", "count"),
    ("exec.interned_nodes", "count"),
    ("exec.rows_per_s.materialized", "rows/s"),
    ("exec.rows_per_s.streaming", "rows/s"),
    ("exec.rows_per_s.parallel", "rows/s"),
    ("trace.start.self_share", "ratio"),
    ("trace.expand.self_share", "ratio"),
    ("trace.automaton.self_share", "ratio"),
    ("trace.weighted.self_share", "ratio"),
    ("trace.dedup.self_share", "ratio"),
    ("trace.limit.self_share", "ratio"),
    ("trace.filter.self_share", "ratio"),
    ("trace.overhead", "ratio"),
    ("arena.appends_per_row", "ratio"),
    ("server.handler_ms_p50", "ms"),
    ("server.engine_ms_p50", "ms"),
    ("server.residual_ms_p50", "ms"),
    ("server.residual_slow_ms_p50", "ms"),
    ("server.unexplained_slow_ms_p50", "ms"),
    ("server.wire_us_p50", "us"),
    ("server.response_bytes", "B"),
    ("server.sheds", "count"),
    ("json.parse_us_p50", "us"),
    ("process.minor_faults", "count"),
    ("host.slowdown", "ratio"),
];

/// Times the set-up is repeated; `setup_s` is the median.
pub const SETUP_REPS: usize = 5;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 11,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|e| bad(&e))? == 1,
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// The state one run shares across its phases: the check tally, the
/// metrics, the tracer and the directory durable stores live in.
pub struct Bench {
    pub args: Args,
    pub tracer: Tracer,
    pub work: PathBuf,
    attempted: u64,
    failed: u64,
    e2e: BTreeMap<&'static str, f64>,
    layer: BTreeMap<&'static str, f64>,
    /// Per-layer samples reported as their median.
    layer_samples: BTreeMap<&'static str, Vec<f64>>,
    /// Durations of the run's set-ups.
    pub setup_s: Vec<f64>,
    pub host: host::Host,
    rng: u64,
    /// Durable store directories made so far.
    stores: usize,
}

impl Bench {
    pub fn traced(&self) -> bool {
        self.tracer.on
    }

    /// Counts one checked operation; a wrong answer is a failed one.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 20 {
                eprintln!("mismatch: {}", what());
            }
        }
    }

    pub fn e2e(&mut self, name: &'static str, value: f64) {
        assert!(END_TO_END.iter().any(|(n, _)| *n == name), "{name}");
        self.e2e.insert(name, value);
    }

    pub fn layer(&mut self, name: &'static str, value: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layer.insert(name, value);
    }

    /// Adds `delta` to a per-layer total.
    pub fn layer_add(&mut self, name: &'static str, delta: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        *self.layer.entry(name).or_default() += delta;
    }

    /// Adds one sample to a per-layer metric reported as a median.
    pub fn layer_push(&mut self, name: &'static str, sample: f64) {
        assert!(PER_LAYER.iter().any(|(n, _)| *n == name), "{name}");
        self.layer_samples.entry(name).or_default().push(sample);
    }

    /// Sets a per-layer metric to the median of a span's durations, scaled
    /// from milliseconds by `scale`; unset when no such span was recorded.
    pub fn layer_span_p50(&mut self, metric: &'static str, span: &str, scale: f64) {
        let durations = self.tracer.durations(span);
        if !durations.is_empty() {
            let value = stats::median(durations) * scale;
            self.layer(metric, value);
        }
    }

    /// A directory no store of this run has used yet.
    pub fn fresh_dir(&mut self) -> PathBuf {
        self.stores += 1;
        self.work.join(format!("store{}", self.stores))
    }

    /// A seeded draw in `0..n` (splitmix64).
    pub fn draw(&mut self, n: usize) -> usize {
        self.rng = self.rng.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.rng;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        ((z ^ (z >> 31)) % n as u64) as usize
    }

    /// Whether a timed loop started at `started` goes on: until `--seconds`
    /// have passed, enough windows have closed, and `samples` suffice for a
    /// p90 with ten samples beyond it.
    pub fn keep_going(&self, started: Instant, windows: &stats::Windows, samples: usize) -> bool {
        started.elapsed().as_secs_f64() < self.args.seconds
            || windows.len() < stats::MIN_WINDOWS
            || samples < stats::MIN_TAIL_SAMPLES
    }
}

/// The social/software graph every workload runs on: `people` persons,
/// `people / 10` software, 8 `knows`, 2 `created` and 2 `uses` per person.
pub fn generate(people: usize, seed: u64) -> PropertyGraph {
    social_graph(SocialConfig {
        people,
        software: people / 10,
        knows_per_person: 8,
        created_per_person: 2,
        uses_per_person: 2,
        seed,
    })
}

/// One set-up: generates the workload's graph and reads its oracle;
/// `extra` is the workload's own oracle answers and warm-up. The whole is
/// timed into `setup_s`. Workloads repeat it [`SETUP_REPS`] times, spread
/// over the run.
pub fn setup<T>(
    bench: &mut Bench,
    people: usize,
    extra: impl FnOnce(&mut Bench, &PropertyGraph, &Oracle) -> T,
) -> (PropertyGraph, Oracle, T) {
    let started = Instant::now();
    let graph = generate(people, bench.args.seed);
    let generated = Instant::now();
    bench
        .tracer
        .span(0, "datagen.generate", None, started, generated);
    bench.layer_push(
        "datagen.generate_s",
        generated.duration_since(started).as_secs_f64(),
    );
    let oracle = Oracle::from_snapshot(&graph.snapshot());
    let more = extra(bench, &graph, &oracle);
    let secs = bench.host.at_reference(started.elapsed().as_secs_f64());
    bench.setup_s.push(secs);
    (graph, oracle, more)
}

const MIB: f64 = (1 << 20) as f64;

fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb * 1024.0 / MIB)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn cache_size(index: u8) -> String {
    std::fs::read_to_string(format!(
        "/sys/devices/system/cpu/cpu0/cache/index{index}/size"
    ))
    .map(|s| s.trim().to_owned())
    .unwrap_or_else(|_| "unknown".to_owned())
}

/// The machine and build a record was measured on.
fn fingerprint(args: &Args) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        r#"{{"fingerprint":{{"workload":"{}","seed":{},"seconds":{},"trace":{},"nproc":{},"l2":"{}","l3":"{}","rustc":"{}","commit":"{}"}}}}"#,
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        nproc,
        cache_size(2),
        cache_size(3),
        command_line("rustc", &["-V"]),
        command_line("git", &["rev-parse", "HEAD"]),
    )
}

fn render_metrics(values: &BTreeMap<&'static str, f64>, table: &[(&str, &str)]) -> String {
    let fields: Vec<String> = table
        .iter()
        .map(|(name, unit)| {
            let value = values.get(name).copied().unwrap_or(0.0);
            format!(r#""{name}":{{"value":{value},"unit":"{unit}"}}"#)
        })
        .collect();
    format!("{{{}}}", fields.join(","))
}

/// Fields of `/proc/self/stat` after the command name: minor faults (the
/// cost of handing heap memory back to the kernel and faulting it in
/// again), and user and system CPU time in clock ticks.
fn proc_stat() -> [f64; 3] {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or(Vec::new(), |(_, rest)| rest.split_whitespace().collect());
    [7, 11, 12].map(|i| fields.get(i).and_then(|v| v.parse().ok()).unwrap_or(0.0))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let run_name = format!("{}-seed{}", args.workload, args.seed);
    let work = PathBuf::from(".bench_build/perfbench-work")
        .join(format!("{run_name}-{}", std::process::id()));
    let mut bench = Bench {
        tracer: Tracer::new(args.trace),
        rng: args.seed ^ 0x5eed,
        args,
        work,
        attempted: 0,
        failed: 0,
        e2e: BTreeMap::new(),
        layer: BTreeMap::new(),
        layer_samples: BTreeMap::new(),
        setup_s: Vec::new(),
        host: host::Host::new(),
        stores: 0,
    };
    let _ = std::fs::remove_dir_all(&bench.work);
    let outcome = match bench.args.workload.as_str() {
        "dense_fit" => dense::run(&mut bench),
        "point_server" => point::run(&mut bench),
        "mixed_rw" => mixed::run(&mut bench),
        other => Err(format!("unknown workload {other:?}")),
    };
    let _ = std::fs::remove_dir_all(&bench.work);
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        return ExitCode::FAILURE;
    }
    bench.e2e("setup_s", stats::median(&bench.setup_s));
    bench.e2e(
        "peak_rss_mb",
        peak_rss_mb() - host::RESIDENT_BYTES as f64 / MIB,
    );
    let [faults, user_ticks, system_ticks] = proc_stat();
    bench.layer("process.minor_faults", faults);
    let slowdown = bench.host.slowdown();
    bench.layer("host.slowdown", slowdown);

    println!("{}", fingerprint(&bench.args));
    println!(
        r#"{{"host_slowdown":{slowdown},"host_probes":{},"minor_faults":{faults},"user_ticks":{user_ticks},"system_ticks":{system_ticks}}}"#,
        bench.host.probes()
    );
    let e2e = render_metrics(&bench.e2e, END_TO_END);
    for (name, samples) in std::mem::take(&mut bench.layer_samples) {
        bench.layer(name, stats::median(&samples));
    }
    let metrics = if bench.traced() {
        let path = PathBuf::from(".bench_build/perfbench-traces").join(format!("{run_name}.jsonl"));
        if let Err(e) = bench.tracer.write(&path) {
            eprintln!("perfbench: writing spans to {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        // the traced run's own end-to-end numbers, for the tracing-overhead gap
        println!(
            r#"{{"traced_end_to_end":{e2e},"spans":"{}"}}"#,
            path.display()
        );
        render_metrics(&bench.layer, PER_LAYER)
    } else {
        let missing: Vec<_> = END_TO_END
            .iter()
            .filter(|(n, _)| !bench.e2e.contains_key(n))
            .map(|(n, _)| *n)
            .collect();
        if !missing.is_empty() {
            eprintln!("perfbench: metrics not measured: {missing:?}");
            return ExitCode::FAILURE;
        }
        e2e
    };
    println!(
        r#"{{"correct":{},"attempted":{},"failed":{},"metrics":{metrics}}}"#,
        bench.failed == 0,
        bench.attempted,
        bench.failed,
    );
    ExitCode::SUCCESS
}
