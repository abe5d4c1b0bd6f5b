//! A tracking global allocator: the measurement side of the fuzzer's
//! allocation oracle.
//!
//! The oracle's claim is that decoding never allocates proportionally to an
//! attacker-controlled length prefix — a 16-byte buffer whose header promises
//! `u64::MAX` elements must not reserve gigabytes before the decoder notices
//! the bytes are missing. Proving that requires observing the allocator, so
//! this module wraps [`std::alloc::System`] with running-total,
//! high-water-mark and allocation-count counters.
//!
//! Linking `scout-fuzz` installs [`TrackingAlloc`] as the global allocator
//! (see the crate root), so every binary that runs the harness — the `fuzz`
//! CLI, the crate's own tests, the root corpus-replay test — has the oracle
//! armed automatically. The counters are **per thread**: [`measure`] sees
//! exactly what its own thread allocates, so concurrent measurements (libtest
//! runs tests in parallel) cannot leak into or reset each other. The
//! bookkeeping is two thread-local cell updates per allocation, which is
//! noise next to the decode work being measured.

// A GlobalAlloc wrapper is necessarily unsafe; this module is the only place
// in the crate allowed to use it. Every contract obligation is delegated to
// `System` — the wrapper only adds counter updates on the side.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

// Const-initialized `Cell`s of a type without a destructor: no lazy
// initialization and no registered TLS destructor, so they never allocate and
// stay readable for the whole life of the thread — both required of anything
// the global allocator itself touches. Signed and wrapping, because a buffer
// allocated on one thread may be freed on another.
thread_local! {
    /// Net bytes this thread has allocated through [`TrackingAlloc`].
    static CURRENT: Cell<isize> = const { Cell::new(0) };
    /// High-water mark of `CURRENT` since this thread's last [`measure`] reset.
    static PEAK: Cell<isize> = const { Cell::new(0) };
    /// Allocations (fresh blocks and reallocations) this thread has made.
    static COUNT: Cell<usize> = const { Cell::new(0) };
}

/// A [`GlobalAlloc`] that delegates to [`System`] and tracks, per thread, the
/// current and peak number of live heap bytes and the number of allocations.
pub struct TrackingAlloc;

impl TrackingAlloc {
    fn record_alloc(size: usize) {
        COUNT.set(COUNT.get().wrapping_add(1));
        let current = CURRENT.get().wrapping_add_unsigned(size);
        CURRENT.set(current);
        PEAK.set(PEAK.get().max(current));
    }

    fn record_dealloc(size: usize) {
        CURRENT.set(CURRENT.get().wrapping_sub_unsigned(size));
    }
}

// SAFETY: every method delegates verbatim to `System`, which upholds the
// GlobalAlloc contract; the counter updates do not touch the returned memory.
unsafe impl GlobalAlloc for TrackingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let ptr = System.alloc(layout);
        if !ptr.is_null() {
            Self::record_alloc(layout.size());
        }
        ptr
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        Self::record_dealloc(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let new_ptr = System.realloc(ptr, layout, new_size);
        if !new_ptr.is_null() {
            Self::record_dealloc(layout.size());
            Self::record_alloc(new_size);
        }
        new_ptr
    }
}

/// What one [`measure`]d call did to the heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Usage {
    /// The peak number of bytes the call held *beyond* what was already live
    /// when it started.
    pub peak: usize,
    /// The number of allocations the call made: every fresh block and every
    /// reallocation counts one, whatever its size.
    pub allocations: usize,
}

/// Runs `f` and returns its result together with its heap [`Usage`]: the
/// peak number of bytes the call held beyond what was already live when it
/// started, and the number of allocations it made.
///
/// Only allocations made on the calling thread count, so the result
/// attributes cleanly to `f` however many other threads are allocating (or
/// measuring) at the same time; work `f` hands to other threads is not seen.
/// If [`TrackingAlloc`] is not the process's global allocator no counter
/// moves and both figures are 0 — [`is_installed`] lets callers detect that
/// and refuse to report a vacuously passing allocation oracle.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, Usage) {
    let baseline = CURRENT.get();
    let count = COUNT.get();
    PEAK.set(baseline);
    let out = f();
    let peak = PEAK.get().wrapping_sub(baseline);
    let usage = Usage {
        peak: usize::try_from(peak).unwrap_or(0),
        allocations: COUNT.get().wrapping_sub(count),
    };
    (out, usage)
}

/// Returns `true` if [`TrackingAlloc`] is actually serving this process's
/// allocations (probed by watching the counters while allocating).
pub fn is_installed() -> bool {
    let (_vec, usage) = measure(|| vec![0u8; 4096]);
    usage.peak >= 4096
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Barrier;

    #[test]
    fn allocator_is_installed_in_this_binary() {
        assert!(is_installed());
    }

    #[test]
    fn measure_attributes_peak_to_the_closure() {
        let (len, usage) = measure(|| vec![0u8; 1 << 20].len());
        assert_eq!(len, 1 << 20);
        assert!(usage.peak >= 1 << 20, "{usage:?} missed a 1 MiB allocation");
        assert_eq!(usage.allocations, 1);
        // The vector was dropped inside the closure; a small follow-up
        // allocation must not inherit its peak.
        let (_small, usage) = measure(|| vec![0u8; 64]);
        assert!(usage.peak < 1 << 20, "{usage:?} leaked across measurements");
    }

    #[test]
    fn measure_counts_every_allocation_and_reallocation() {
        let (boxes, usage) = measure(|| (0..10).map(Box::new).collect::<Vec<_>>());
        assert_eq!(boxes.len(), 10);
        // Ten boxes and one exactly-sized vector.
        assert_eq!(usage.allocations, 11);
        let (_grown, usage) = measure(|| {
            let mut v = Vec::with_capacity(1);
            v.extend(0u64..3);
            v
        });
        // One block, then at least one reallocation to grow it.
        assert!(usage.allocations >= 2, "{usage:?}");
        let (_, usage) = measure(|| drop(boxes));
        assert_eq!(usage, Usage::default(), "freeing allocates nothing");
    }

    #[test]
    // A raw scope on purpose: the forced interleaving needs exactly THREADS
    // live threads at the barrier — a property of this test, not a work split
    // for a thread policy to resolve.
    #[allow(clippy::disallowed_methods)]
    fn concurrent_measurements_do_not_see_each_other() {
        const THREADS: usize = 4;
        const ITERATIONS: usize = 200;
        // Two waits per iteration force the interleaving: every "big"
        // thread's 1 MiB measurement starts and ends strictly inside every
        // "small" thread's measurement window. Roles alternate so each
        // thread plays both. Mismatches are collected, not asserted in
        // place: a panicking thread would strand the others at the barrier.
        let barrier = Barrier::new(THREADS);
        let mismatches: Vec<String> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|id| {
                    let barrier = &barrier;
                    scope.spawn(move || {
                        let mut mismatches = Vec::new();
                        for iteration in 0..ITERATIONS {
                            let (want, peak) = if (id + iteration) % 2 == 0 {
                                barrier.wait();
                                let (_big, usage) = measure(|| vec![0u8; 1 << 20]);
                                barrier.wait();
                                (1 << 20, usage.peak)
                            } else {
                                let (_small, usage) = measure(|| {
                                    barrier.wait();
                                    barrier.wait();
                                    vec![0u8; 64]
                                });
                                (64, usage.peak)
                            };
                            if peak != want {
                                mismatches.push(format!(
                                    "thread {id} iteration {iteration}: \
                                     measured {peak} for a {want}-byte allocation"
                                ));
                            }
                        }
                        mismatches
                    })
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|handle| handle.join().expect("measuring thread panicked"))
                .collect()
        });
        assert!(
            mismatches.is_empty(),
            "{} of {} measurements were misattributed, first: {}",
            mismatches.len(),
            THREADS * ITERATIONS,
            mismatches[0]
        );
    }
}
