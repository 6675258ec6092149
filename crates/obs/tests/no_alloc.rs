//! The disabled fast path must not allocate: with recording off, every
//! sim-obs macro is one relaxed atomic load and a branch. Verified with
//! a counting global allocator that counts per thread, so tests running
//! concurrently in this binary never pollute each other's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // `const`-initialized: reaching it never allocates, so the allocator
    // itself can touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
    // `try_with`: a thread's allocations during its own teardown go
    // uncounted instead of panicking.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Allocations made by this thread while `f` runs.
fn allocations_during(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

#[test]
fn disabled_macros_do_not_allocate() {
    // Default state: recording disabled, no sinks. Warm up the thread
    // locals outside the measured window (lazy init may allocate once).
    assert!(!sim_obs::enabled());
    // The counter sees this thread's allocations.
    assert_eq!(
        allocations_during(|| drop(std::hint::black_box(vec![0u8; 8]))),
        1
    );
    sim_obs::counter!("warmup", 1);
    let _warm = sim_obs::span!("warmup");
    drop(_warm);

    let n = allocations_during(|| {
        for i in 0..1_000u64 {
            let _span = sim_obs::span!("no_alloc.span");
            sim_obs::counter!("no_alloc.counter", i);
            sim_obs::gauge!("no_alloc.gauge", i as f64);
            sim_obs::hist!("no_alloc.hist", i as f64);
            sim_obs::log_debug!("no_alloc", "suppressed {i}");
        }
    });
    assert_eq!(
        n, 0,
        "disabled sim-obs macros must be allocation-free ({n} allocations observed)"
    );
}

#[test]
fn disabled_macros_do_not_evaluate_name_expressions() {
    assert!(!sim_obs::enabled());
    let mut evaluated = false;
    {
        let mut name = || {
            evaluated = true;
            String::from("expensive")
        };
        sim_obs::counter!(name(), 1);
    }
    assert!(
        !evaluated,
        "name expression must not run when recording is disabled"
    );
}
