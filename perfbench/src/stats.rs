//! Order statistics over timing samples.

/// The `q`-quantile (0 ≤ q ≤ 1) of `values`, linearly interpolated between
/// the two closest ranks. Panics on an empty slice: every metric the
/// benchmark reports has at least one sample by construction.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The p90 of `values`. The loops that feed a p90 run until they hold
/// [`MIN_TAIL_SAMPLES`], so ten lie beyond it.
pub fn p90(values: &[f64]) -> f64 {
    if values.len() < MIN_TAIL_SAMPLES {
        eprintln!(
            "warning: p90 over {} samples has fewer than ten beyond it",
            values.len()
        );
    }
    quantile(values, 0.9)
}

/// Samples a p90 needs so that ten of them lie beyond it.
pub const MIN_TAIL_SAMPLES: usize = 100;

/// Work done in one window of a timed loop.
#[derive(Default, Clone, Copy)]
pub struct Window {
    statements: u64,
    busy_s: f64,
    rows: u64,
    row_s: f64,
    counted: u64,
    count_s: f64,
}

/// A timed loop cut into windows of whole cycles, each with the same mix
/// of work. The loop's throughputs are medians over the closed windows, so
/// a window that a pause of the host stretched moves them by its rank only.
pub struct Windows {
    min_s: f64,
    opened: std::time::Instant,
    current: Window,
    closed: Vec<Window>,
}

impl Windows {
    /// Windows of at least `min_s` seconds.
    pub fn new(min_s: f64) -> Self {
        Windows {
            min_s,
            opened: std::time::Instant::now(),
            current: Window::default(),
            closed: Vec::new(),
        }
    }

    /// A statement that delivered `rows` rows in `secs`.
    pub fn rows(&mut self, secs: f64, rows: u64) {
        self.current.statements += 1;
        self.current.busy_s += secs;
        self.current.rows += rows;
        self.current.row_s += secs;
    }

    /// A `count()` statement that counted `rows` rows in `secs`.
    pub fn count(&mut self, secs: f64, rows: u64) {
        self.current.statements += 1;
        self.current.busy_s += secs;
        self.current.counted += rows;
        self.current.count_s += secs;
    }

    /// Ends a cycle of the loop; closes the window once it is long enough.
    pub fn end_cycle(&mut self) {
        if self.opened.elapsed().as_secs_f64() >= self.min_s {
            self.closed.push(std::mem::take(&mut self.current));
            self.opened = std::time::Instant::now();
        }
    }

    pub fn len(&self) -> usize {
        self.closed.len()
    }

    fn median_of(&self, f: impl Fn(&Window) -> f64) -> f64 {
        let values: Vec<f64> = self.closed.iter().map(f).collect();
        median(&values)
    }

    pub fn queries_per_s(&self) -> f64 {
        self.median_of(|w| w.statements as f64 / w.busy_s)
    }

    pub fn rows_per_s(&self) -> f64 {
        self.median_of(|w| w.rows as f64 / w.row_s)
    }

    pub fn count_rows_per_s(&self) -> f64 {
        self.median_of(|w| w.counted as f64 / w.count_s)
    }
}

/// Windows a timed loop needs before it may stop.
pub const MIN_WINDOWS: usize = 6;

/// `part / whole`, or 0 when nothing was measured.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}
