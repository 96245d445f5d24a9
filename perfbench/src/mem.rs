//! Heap accounting for `peak_rss_mb`: a counting global allocator and
//! the growth arithmetic over it.
//!
//! Resident memory the program asks for is measured as live heap bytes
//! — every allocation of every thread passes through [`CountingAlloc`].
//! Unlike sampling the process's resident set, this sees short-lived
//! peaks and is exact, so the figure repeats from run to run. It leaves
//! out allocator slack and thread stacks.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Live and peak byte counts. Both are statistics that publish no other
/// data, so `Relaxed` suffices.
#[derive(Debug, Default)]
pub struct HeapCounter {
    live: AtomicUsize,
    peak: AtomicUsize,
}

impl HeapCounter {
    pub const fn new() -> Self {
        Self {
            live: AtomicUsize::new(0),
            peak: AtomicUsize::new(0),
        }
    }

    pub fn on_alloc(&self, bytes: usize) {
        let live = self.live.fetch_add(bytes, Ordering::Relaxed) + bytes;
        self.peak.fetch_max(live, Ordering::Relaxed);
    }

    pub fn on_free(&self, bytes: usize) {
        self.live.fetch_sub(bytes, Ordering::Relaxed);
    }

    /// Starts a measured phase: the peak restarts from what is live now
    /// (inputs generated beforehand included), and that level is the
    /// baseline growth is counted from.
    pub fn start_phase(&self) -> PhaseBaseline {
        let live = self.live.load(Ordering::Relaxed);
        self.peak.store(live, Ordering::Relaxed);
        PhaseBaseline(live)
    }

    /// Peak growth over the phase's baseline, in bytes. Memory freed
    /// during the phase that was live at its start (an input array
    /// dropped mid-run) never makes growth negative.
    pub fn growth_bytes(&self, baseline: PhaseBaseline) -> usize {
        self.peak.load(Ordering::Relaxed).saturating_sub(baseline.0)
    }
}

/// Live bytes at the start of a measured phase.
#[derive(Debug, Clone, Copy)]
pub struct PhaseBaseline(usize);

/// The process-wide counter [`CountingAlloc`] feeds.
pub static HEAP: HeapCounter = HeapCounter::new();

/// The system allocator, counting into [`HEAP`].
pub struct CountingAlloc;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counting touches
// only atomics and never the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            HEAP.on_alloc(layout.size());
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            HEAP.on_alloc(layout.size());
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from this allocator
        // (hence from `System`) with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        HEAP.on_free(layout.size());
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `realloc`'s contract.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            let old = layout.size();
            if new_size > old {
                HEAP.on_alloc(new_size - old);
            } else {
                HEAP.on_free(old - new_size);
            }
        }
        p
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn growth_excludes_inputs_and_keeps_the_peak() {
        let c = HeapCounter::new();
        c.on_alloc(1000); // input arrays, generated before timing
        let base = c.start_phase();
        c.on_alloc(300);
        c.on_alloc(200);
        c.on_free(300);
        c.on_alloc(50);
        // Live peaked at 1000 + 500; the inputs are not growth.
        assert_eq!(c.growth_bytes(base), 500);
    }

    #[test]
    fn freeing_inputs_never_makes_growth_negative() {
        let c = HeapCounter::new();
        c.on_alloc(1000);
        let base = c.start_phase();
        c.on_free(1000);
        c.on_alloc(10);
        assert_eq!(c.growth_bytes(base), 0);
    }

    #[test]
    fn a_new_phase_forgets_the_previous_peak() {
        let c = HeapCounter::new();
        c.on_alloc(5000);
        c.on_free(5000);
        let base = c.start_phase();
        c.on_alloc(70);
        assert_eq!(c.growth_bytes(base), 70);
    }
}
