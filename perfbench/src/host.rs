//! The host's speed during a run, measured with a reference kernel that
//! does not use the engine.
//!
//! The benchmark runs on shared virtual machines whose speed drifts while
//! the program stays the same: other tenants take turns at the cores and
//! at the shared last-level cache, and every timing of a run moves with
//! them. So the run probes the host between its operations — never during
//! one — about ten times a second, and every timed end-to-end sample is
//! divided by the host's slowdown at that moment: the median of the last
//! few probes, each the time the kernel took over [`NOMINAL_S`]. The kernel
//! does the kind of work the engine does — random walks over a fixed graph
//! too large for the private caches, appended to a path arena and counted
//! per head in a hash table — so contention from outside slows it about as
//! much as it slows the engine. Its buffers are allocated once: a kernel
//! that mapped and unmapped memory ran twice as fast in some runs of
//! `point_server` as in others (an unmap must flush the TLBs of every
//! processor the process's other threads ran on), so it measured the
//! program's threads rather than the host. A change to the program does
//! not touch the kernel, so it moves the metrics by its full size.

use std::time::Instant;

/// Vertices and out-edges of the reference graph: 32 MiB of edges, larger
/// than the private caches and a good part of the shared one.
const VERTICES: u32 = 1 << 20;
const DEGREE: usize = 8;
/// Walks start from this many fixed vertices and take three steps.
const STARTS: usize = 48;
const HOPS: u32 = 3;
/// Walks of the last step, and slots of the head-count table.
const WALKS: usize = STARTS * DEGREE * DEGREE * DEGREE;
const SLOTS: usize = 4 * WALKS;
/// Seconds one probe takes on the reference host; a slowdown of 1 means
/// the host runs at that speed.
pub const NOMINAL_S: f64 = 0.8e-3;
/// Seconds between two probes.
const PROBE_EVERY_S: f64 = 0.1;
/// Probes the current slowdown is the median of.
const RECENT: usize = 5;
/// Resident bytes of the kernel's buffers, which `peak_rss_mb` leaves out.
pub const RESIDENT_BYTES: usize = VERTICES as usize * DEGREE * 4 + (WALKS * 2 + SLOTS) * 8;

/// The reference kernel and the slowdowns it measured.
pub struct Host {
    /// Out-neighbours of vertex `v`: `targets[v * DEGREE..(v + 1) * DEGREE]`.
    targets: Vec<u32>,
    /// (parent index, vertex) per walk, like the engine's path arena.
    arena: Vec<(u32, u32)>,
    /// Open-addressing (head + 1, count) table; 0 marks a free slot.
    heads: Vec<(u32, u32)>,
    last_probe: Instant,
    recent: Vec<f64>,
    probes: Vec<f64>,
}

impl Host {
    pub fn new() -> Self {
        let mut x = 0x2545_F491_4F6C_DD1Du64;
        let targets = (0..VERTICES as usize * DEGREE)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                (x % u64::from(VERTICES)) as u32
            })
            .collect();
        let mut host = Host {
            targets,
            arena: Vec::with_capacity(WALKS * 2),
            heads: vec![(0, 0); SLOTS],
            last_probe: Instant::now(),
            recent: Vec::with_capacity(RECENT),
            probes: Vec::new(),
        };
        host.probe();
        host
    }

    /// One call of the walk kernel; returns a digest of its result so that
    /// the work cannot be optimised away.
    fn kernel(&mut self) -> u64 {
        self.arena.clear();
        self.arena
            .extend((0..STARTS as u32).map(|s| (u32::MAX, s.wrapping_mul(0x9E37_79B9) % VERTICES)));
        let mut layer = 0..self.arena.len();
        for _ in 0..HOPS {
            let next = self.arena.len();
            for i in layer {
                let v = self.arena[i].1 as usize;
                for k in 0..DEGREE {
                    let h = self.targets[v * DEGREE + k];
                    self.arena.push((i as u32, h));
                }
            }
            layer = next..self.arena.len();
        }
        self.heads.fill((0, 0));
        let mut distinct = 0u64;
        for &(_, h) in &self.arena[layer] {
            let mut slot = (h as usize).wrapping_mul(0x9E37_79B9) % SLOTS;
            while self.heads[slot].0 != 0 && self.heads[slot].0 != h + 1 {
                slot = (slot + 1) % SLOTS;
            }
            if self.heads[slot].0 == 0 {
                self.heads[slot].0 = h + 1;
                distinct += 1;
            }
            self.heads[slot].1 += 1;
        }
        distinct + self.arena.len() as u64
    }

    /// Times the kernel once, after an untimed call that brings its data
    /// back into the caches the program's own work evicted it from.
    fn probe(&mut self) {
        std::hint::black_box(self.kernel());
        let t0 = Instant::now();
        std::hint::black_box(self.kernel());
        let slowdown = t0.elapsed().as_secs_f64() / NOMINAL_S;
        self.probes.push(slowdown);
        if self.recent.len() == RECENT {
            self.recent.remove(0);
        }
        self.recent.push(slowdown);
        self.last_probe = Instant::now();
    }

    /// Probes the host if the last probe is older than [`PROBE_EVERY_S`].
    /// Called between the operations of a run, never inside a timed one.
    pub fn tick(&mut self) {
        if self.last_probe.elapsed().as_secs_f64() >= PROBE_EVERY_S {
            self.probe();
        }
    }

    /// `secs` as the reference host would have taken: divided by the
    /// median of the last [`RECENT`] probes.
    pub fn at_reference(&self, secs: f64) -> f64 {
        secs / crate::stats::median(&self.recent)
    }

    /// The run's slowdown: the median over all its probes.
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.probes)
    }

    pub fn probes(&self) -> usize {
        self.probes.len()
    }
}
