//! Chunked (vectorized) row transport: the unit of the cursor's one stage
//! protocol.
//!
//! Every cursor stage yields rows through one call,
//! `Stage::pull_chunk(target, out)`, that appends between 1 and `target`
//! arena rows to a caller-owned buffer (see [`crate::cursor`] for the full
//! contract). A one-row call is the early-exit granularity of
//! `first()`/`exists()`/`count()`, external iteration and `limit(k)`; a
//! full drain (`Traversal::execute`, `exec::execute`) asks for
//! [`DEFAULT_CHUNK_SIZE`] rows per call, amortizing dispatch over the whole
//! batch and letting expansion stages scan whole input chunks under a single
//! arena writer. No stage hands out more than it was asked for, so a
//! `chunk_size(1)` drain does exactly the work of a `next_row` drain, and a
//! larger chunk can run ahead of its consumer by at most the input rows it
//! asked for — `tests/streaming_early_exit.rs` and
//! `tests/vectorized_equivalence.rs` pin rows and expansion counts.

/// Target rows per chunk pull. ~2048 rows keeps a chunk of 32-byte arena
/// rows around 64 KiB — comfortably L2-resident while still amortizing
/// per-chunk dispatch to noise (the same default miniGU's `DataChunk`
/// executor uses). Override per traversal with `Traversal::chunk_size`.
pub const DEFAULT_CHUNK_SIZE: usize = 2048;

/// Outcome of one stage pull (`Stage::pull_chunk`).
///
/// A stage appends between 1 and the caller's target rows and reports
/// `Rows`, or appends nothing and reports `Done`/`Starved`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkPull {
    /// At least one row was appended; pull again for more.
    Rows,
    /// Nothing was appended and nothing ever will be: the stage and
    /// everything upstream is exhausted.
    Done,
    /// Nothing was appended but rows may still arrive (a `Feed` source
    /// awaiting its next batch; only reachable in fed pipelines).
    Starved,
}
