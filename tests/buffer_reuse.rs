//! Per-thread buffer reuse, measured by a counting allocator.
//!
//! A query's path-arena node vector and its level row buffers are
//! `ScratchVec`s (`mrpa_core::scratch`): when they drop, their capacity goes
//! back to the thread, cleared, for the next query. The allocator below
//! counts, per thread, every allocation or reallocation of at least
//! [`LARGE`] bytes and every live block above the retention cap, so the
//! tests can state exactly what a repeated query allocates:
//!
//! * a cold drain (a fresh thread) allocates its large buffers, and a warm
//!   repeat on the same thread allocates none;
//! * a buffer above `MAX_RETAINED_BYTES` is freed, not kept.
//!
//! Planning is left out of the measured window: it classifies every edge of
//! the graph per query (ROADMAP item 1), and the caller owns the result
//! buffer, which is reserved before the window opens.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use mrpa::core::scratch::MAX_RETAINED_BYTES;
use mrpa::datagen::{social_graph, SocialConfig};
use mrpa::engine::{ExecutionStrategy, Predicate, PropertyGraph, ResultRow, Traversal, Value};

/// The size from which an allocation counts as large: past glibc's default
/// mmap threshold, where a freed block goes back to the OS.
const LARGE: usize = 256 << 10;

thread_local! {
    /// Allocations and growing reallocations of at least `LARGE` bytes.
    static LARGE_ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes allocated and not yet freed by this thread, and their peak.
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Live blocks larger than the retention cap.
    static OVER_CAP: Cell<isize> = const { Cell::new(0) };
}

/// Forwards to the system allocator and counts into this thread's cells
/// (const-initialized and drop-free, so counting never allocates).
struct Counting;

fn note(old: usize, new: usize) {
    let _ = LARGE_ALLOCS.try_with(|n| n.set(n.get() + u64::from(new >= LARGE && new > old)));
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + new as isize - old as isize);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
    let over = |size: usize| isize::from(size > MAX_RETAINED_BYTES);
    let _ = OVER_CAP.try_with(|n| n.set(n.get() + over(new) - over(old)));
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(0, layout.size());
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        note(layout.size(), 0);
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(layout.size(), new_size);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

fn large_allocs() -> u64 {
    LARGE_ALLOCS.with(Cell::get)
}

/// A 400-person social graph: the chain below yields ~46k rows, so its
/// arena node vector and its final level are each well above `LARGE`.
fn graph() -> PropertyGraph {
    social_graph(SocialConfig {
        people: 400,
        software: 40,
        knows_per_person: 8,
        created_per_person: 2,
        uses_per_person: 2,
        seed: 11,
    })
}

/// perfbench `dense_fit` statement (a): every person → knows → knows →
/// created, one product-automaton level over the person start level.
fn chain(g: &PropertyGraph, strategy: ExecutionStrategy) -> Traversal {
    Traversal::over(g)
        .strategy(strategy)
        .v_where("kind", Predicate::Eq(Value::from("person")))
        .out(["knows"])
        .out(["knows"])
        .out(["created"])
}

/// One drain of `t`, planned before the window opens, into a result buffer
/// reserved for `rows` rows. Returns the rows, the large allocations the
/// drain and the cursor's drop made, the drain's peak live heap above its
/// start and its expansions.
fn measured_drain(t: &Traversal, rows: usize) -> (Vec<ResultRow>, u64, usize, u64) {
    let mut cursor = t.cursor().unwrap();
    let mut out = Vec::with_capacity(rows);
    let before = large_allocs();
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    while cursor.next_chunk(&mut out).unwrap() {}
    let expansions = cursor.stats().expansions;
    drop(cursor);
    let peak = (PEAK.with(Cell::get) - base) as usize;
    assert_eq!(out.capacity(), rows, "the result buffer was reserved whole");
    (out, large_allocs() - before, peak, expansions)
}

#[test]
fn a_warm_repeat_of_a_drained_query_allocates_no_large_buffer() {
    let g = graph();
    for strategy in [
        ExecutionStrategy::Materialized,
        ExecutionStrategy::Streaming,
    ] {
        let t = chain(&g, strategy);
        let rows = t.count().unwrap();
        let t2 = t.clone();
        // a fresh thread starts with no spare buffers
        std::thread::spawn(move || {
            let (cold, cold_large, peak, expansions) = measured_drain(&t2, rows);
            assert_eq!(cold.len(), rows);
            // the arena's node vector and the rows' level (Materialized),
            // each grown past LARGE by doubling
            assert!(
                cold_large >= 2,
                "{strategy:?}: cold drain made {cold_large}"
            );
            // the arena pushes one node per expansion of the chain's walk
            eprintln!(
                "{strategy:?}: {expansions} nodes pushed, peak {peak} B above the \
                 drain's start = {:.1} B per pushed node",
                peak as f64 / expansions as f64
            );
            for _ in 0..2 {
                let (warm, warm_large, _, _) = measured_drain(&t2, rows);
                assert_eq!(warm, cold, "{strategy:?}: reuse changed the rows");
                assert_eq!(warm_large, 0, "{strategy:?}: a warm drain allocated");
            }
        })
        .join()
        .unwrap();
    }
}

#[test]
fn a_buffer_above_the_retention_cap_is_freed_when_its_query_ends() {
    // the complete digraph on 130 vertices: two hops from every vertex push
    // 130·129 + 130·129² = 2,180,100 arena nodes, 66.5 MiB of them, whose
    // vector has grown past MAX_RETAINED_BYTES (64 MiB)
    let n = 130;
    let g = PropertyGraph::new();
    for i in 0..n {
        for j in (0..n).filter(|&j| j != i) {
            g.add_edge(&format!("v{i}"), "knows", &format!("v{j}"));
        }
    }
    let t = Traversal::over(&g)
        .strategy(ExecutionStrategy::Streaming)
        .out(["knows"])
        .out(["knows"]);
    std::thread::spawn(move || {
        let mut cursor = t.cursor().unwrap();
        let mut out = Vec::new();
        let mut rows = 0;
        let mut over_cap = 0;
        while cursor.next_chunk(&mut out).unwrap() {
            rows += out.len();
            out.clear();
            over_cap = over_cap.max(OVER_CAP.with(Cell::get));
        }
        assert_eq!(rows, n * (n - 1) * (n - 1));
        assert_eq!(over_cap, 1, "the arena's node vector outgrew the cap");
        drop(cursor);
        assert_eq!(OVER_CAP.with(Cell::get), 0, "the thread kept it");
    })
    .join()
    .unwrap();
}
