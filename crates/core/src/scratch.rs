//! Per-thread reuse of large per-query buffers.
//!
//! A query builds its [`PathArena`](crate::PathArena) node vector and its
//! level row buffers from empty and grows them by doubling. Allocated afresh
//! for every query, a multi-MiB buffer is mapped and faulted in again each
//! time, because the allocator hands large freed blocks back to the OS. A
//! [`ScratchVec`] takes its buffer from a per-thread spare instead, and when
//! it drops it hands the capacity back — cleared, not freed — for the next
//! buffer of the same element type on the same thread.
//!
//! Retention is bounded. A thread keeps at most [`SPARES`] buffers per
//! element type ([`Recycle::KEEP`]), the largest it has seen, and none whose capacity exceeds
//! [`MAX_RETAINED_BYTES`]: such a buffer is freed when it drops. Recycling
//! moves capacity only: a `ScratchVec` starts empty, like a fresh `Vec`.

use std::cell::Cell;
use std::fmt;
use std::ops::{Deref, DerefMut};
use std::thread::LocalKey;

/// The largest buffer capacity, in bytes, a thread keeps for reuse. A buffer
/// above it is freed when it drops, so one outsized query does not pin its
/// memory on the thread.
pub const MAX_RETAINED_BYTES: usize = 64 << 20;

/// Spare buffers a thread keeps per element type: two, because a
/// level-at-a-time executor holds two levels at once, the one it reads and
/// the one it fills.
pub const SPARES: usize = 2;

/// One thread's spare buffers of element type `T`.
pub struct Spares<T>(Cell<[Vec<T>; SPARES]>);

impl<T> Spares<T> {
    /// No spares yet (a `const` initializer for `thread_local!`).
    pub const fn new() -> Self {
        Spares(Cell::new([const { Vec::new() }; SPARES]))
    }
}

impl<T> Default for Spares<T> {
    fn default() -> Self {
        Self::new()
    }
}

/// An element type whose buffers are recycled per thread: it names the
/// `thread_local!` that holds its [`Spares`].
///
/// ```
/// use std::thread::LocalKey;
/// use mrpa_core::scratch::{Recycle, ScratchVec, Spares};
///
/// #[derive(Clone, Copy)]
/// struct Row(u64);
///
/// impl Recycle for Row {
///     fn spares() -> &'static LocalKey<Spares<Self>> {
///         thread_local!(static SPARES: Spares<Row> = const { Spares::new() });
///         &SPARES
///     }
/// }
///
/// let mut rows = ScratchVec::<Row>::take_spare();
/// rows.extend((0..1000).map(Row));
/// let capacity = rows.capacity();
/// drop(rows);
/// // the next buffer on this thread gets the capacity back, empty
/// let again = ScratchVec::<Row>::take_spare();
/// assert!(again.is_empty());
/// assert_eq!(again.capacity(), capacity);
/// ```
pub trait Recycle: Sized + 'static {
    /// How many of the [`SPARES`] slots a thread fills for this type: one
    /// for a buffer a query holds one of at a time (an arena's nodes).
    const KEEP: usize = SPARES;

    /// This element type's per-thread spares.
    fn spares() -> &'static LocalKey<Spares<Self>>;
}

/// A `Vec` whose capacity goes back to its thread's spares when it drops
/// (see the module docs). It dereferences to the `Vec`.
pub struct ScratchVec<T: Recycle> {
    buf: Vec<T>,
}

impl<T: Recycle> ScratchVec<T> {
    /// An empty buffer that has taken no spare (like `Vec::new`).
    pub const fn new() -> Self {
        ScratchVec { buf: Vec::new() }
    }

    /// An empty buffer on the thread's largest spare, for a buffer whose
    /// final size is not known in advance.
    pub fn take_spare() -> Self {
        let buf = take::<T>(|spares| {
            (0..SPARES)
                .filter(|&i| spares[i].capacity() > 0)
                .max_by_key(|&i| spares[i].capacity())
        });
        ScratchVec {
            buf: buf.unwrap_or_default(),
        }
    }

    /// An empty buffer with room for at least `n` elements: the thread's
    /// smallest spare that holds `n`, or else a fresh allocation, which
    /// leaves the larger spares to the buffers that need them.
    pub fn with_capacity(n: usize) -> Self {
        let spare = (n > 0)
            .then(|| {
                take::<T>(|spares| {
                    (0..SPARES)
                        .filter(|&i| spares[i].capacity() >= n)
                        .min_by_key(|&i| spares[i].capacity())
                })
            })
            .flatten();
        ScratchVec {
            buf: spare.unwrap_or_else(|| Vec::with_capacity(n)),
        }
    }
}

/// Takes the spare `pick` chooses, if any. Outside a live thread-local (a
/// thread's teardown) there are no spares.
fn take<T: Recycle>(pick: impl FnOnce(&[Vec<T>; SPARES]) -> Option<usize>) -> Option<Vec<T>> {
    T::spares()
        .try_with(|spares| {
            let mut slots = spares.0.take();
            let taken = pick(&slots).map(|i| std::mem::take(&mut slots[i]));
            spares.0.set(slots);
            taken
        })
        .ok()
        .flatten()
}

impl<T: Recycle> Drop for ScratchVec<T> {
    /// Hands the capacity back, cleared: it replaces the thread's smallest
    /// spare if it is larger. A buffer above [`MAX_RETAINED_BYTES`] is freed.
    fn drop(&mut self) {
        let mut buf = std::mem::take(&mut self.buf);
        let bytes = buf.capacity().saturating_mul(std::mem::size_of::<T>());
        if buf.capacity() == 0 || bytes > MAX_RETAINED_BYTES {
            return;
        }
        buf.clear();
        // during the thread's teardown the buffer is simply freed
        let _ = T::spares().try_with(move |spares| {
            let mut slots = spares.0.take();
            let smallest = slots[..T::KEEP.clamp(1, SPARES)]
                .iter_mut()
                .min_by_key(|s| s.capacity())
                .expect("a thread keeps at least one spare");
            if smallest.capacity() < buf.capacity() {
                *smallest = buf;
            }
            spares.0.set(slots);
        });
    }
}

impl<T: Recycle> Default for ScratchVec<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: Recycle> From<Vec<T>> for ScratchVec<T> {
    /// Adopts `buf`: its capacity joins the spares when it drops.
    fn from(buf: Vec<T>) -> Self {
        ScratchVec { buf }
    }
}

impl<T: Recycle> Deref for ScratchVec<T> {
    type Target = Vec<T>;

    fn deref(&self) -> &Vec<T> {
        &self.buf
    }
}

impl<T: Recycle> DerefMut for ScratchVec<T> {
    fn deref_mut(&mut self) -> &mut Vec<T> {
        &mut self.buf
    }
}

impl<T: Recycle + fmt::Debug> fmt::Debug for ScratchVec<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.buf.fmt(f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, Clone, Copy, PartialEq)]
    struct Item(u32);

    impl Recycle for Item {
        fn spares() -> &'static LocalKey<Spares<Self>> {
            thread_local!(static SPARES: Spares<Item> = const { Spares::new() });
            &SPARES
        }
    }

    /// A buffer of `n` items on a fresh allocation, not a spare.
    fn filled(n: usize) -> ScratchVec<Item> {
        ScratchVec::from((0..n as u32).map(Item).collect::<Vec<_>>())
    }

    /// The capacities of this thread's spares, ascending.
    fn spare_capacities() -> Vec<usize> {
        Item::spares().with(|s| {
            let slots = s.0.take();
            let mut caps: Vec<usize> = slots.iter().map(Vec::capacity).collect();
            s.0.set(slots);
            caps.sort_unstable();
            caps
        })
    }

    /// Frees this thread's spares, so a test starts from none.
    fn no_spares() {
        Item::spares().with(|s| drop(s.0.take()));
    }

    #[test]
    fn a_dropped_buffer_comes_back_empty_with_its_capacity() {
        no_spares();
        let v = filled(100);
        let cap = v.capacity();
        drop(v);
        let again = ScratchVec::<Item>::take_spare();
        assert!(again.is_empty());
        assert_eq!(again.capacity(), cap);
        // a taken spare is gone until it is handed back
        assert_eq!(ScratchVec::<Item>::take_spare().capacity(), 0);
    }

    #[test]
    fn the_largest_buffers_are_kept_and_the_fit_is_the_smallest() {
        no_spares();
        for n in [10, 1000, 100] {
            drop(filled(n));
        }
        assert_eq!(spare_capacities(), vec![100, 1000]);
        // the smallest spare that holds the request…
        assert_eq!(ScratchVec::<Item>::with_capacity(50).capacity(), 100);
        // …or a fresh buffer, leaving the large spare alone
        let fresh = ScratchVec::<Item>::with_capacity(5000);
        assert_eq!(fresh.capacity(), 5000);
        assert_eq!(spare_capacities(), vec![100, 1000]);
        drop(fresh);
        assert_eq!(spare_capacities(), vec![1000, 5000]);
        // an unsized buffer takes the largest
        assert_eq!(ScratchVec::<Item>::take_spare().capacity(), 5000);
    }

    #[test]
    fn a_buffer_above_the_cap_is_freed() {
        no_spares();
        drop(filled(10));
        // reserved, not written: no page of it is touched
        let over = MAX_RETAINED_BYTES / std::mem::size_of::<Item>() + 1;
        let mut big = ScratchVec::<Item>::new();
        big.reserve_exact(over);
        drop(big);
        assert_eq!(spare_capacities(), vec![0, 10]);
        let mut at_cap = ScratchVec::<Item>::new();
        at_cap.reserve_exact(over - 1);
        drop(at_cap);
        assert_eq!(spare_capacities(), vec![10, over - 1]);
    }
}
