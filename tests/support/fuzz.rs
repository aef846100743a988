//! Support shared by the seeded mutation fuzzers —
//! `crates/graph/tests/csr_fuzz.rs`, `crates/comm/tests/wire_fuzz.rs`
//! and `crates/comm/tests/transcript_fuzz.rs`: a counting global
//! allocator with a per-thread ceiling, the peak measurement over it, and
//! the splitmix64 generator that draws every case from its seed. Each
//! fuzzer includes this file as a `#[path]` module, so it uses std only.

// Each fuzzer uses a subset of these items.
#![allow(dead_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes each thread has live, and its peak.
struct Counting;

thread_local! {
    static LIVE: Cell<isize> = const { Cell::new(0) };
    static PEAK: Cell<isize> = const { Cell::new(0) };
}

/// Per-thread ceiling: a regression in the code under test that tries to
/// allocate past it aborts the fuzzer instead of exhausting the
/// machine's memory.
const CEILING: isize = 1 << 30;

/// Charges `delta` bytes to this thread; refuses growth past the
/// ceiling.
fn charge(delta: isize) -> bool {
    LIVE.try_with(|live| {
        let now = live.get() + delta;
        if delta > 0 && now > CEILING {
            return false;
        }
        live.set(now);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(now)));
        true
    })
    .unwrap_or(true)
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments, so `System`'s guarantees are this allocator's; the counters
// are thread-local `Cell`s whose const initialisers never allocate, and
// returning null (past the ceiling) is the allocation-failure signal the
// `GlobalAlloc` contract allows.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if !charge(layout.size() as isize) {
            return std::ptr::null_mut();
        }
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        if !charge(layout.size() as isize) {
            return std::ptr::null_mut();
        }
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, hence from `System`,
        // with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        charge(-(layout.size() as isize));
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let delta = new_size as isize - layout.size() as isize;
        if !charge(delta) {
            return std::ptr::null_mut();
        }
        // SAFETY: `ptr` came from `System` with `layout`, and the caller
        // upholds `realloc`'s contract for `new_size`.
        let out = unsafe { System.realloc(ptr, layout, new_size) };
        if out.is_null() {
            charge(-delta);
        }
        out
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// Runs `f` and returns its result with the peak number of bytes this
/// thread had allocated on top of what was live when `f` started.
pub fn peak_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(base));
    let out = f();
    let peak = PEAK.with(Cell::get) - base;
    (out, peak.max(0) as usize)
}

/// The splitmix64 finalizer.
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// splitmix64.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        mix64(self.0)
    }

    /// A uniform draw from `0..n` (`0` when `n == 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n.max(1) as u64) as usize
    }
}
