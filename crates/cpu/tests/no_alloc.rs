//! The warm core allocates nothing per cycle or per issued instruction:
//! the window, fetch queue, completion queue, ready set, wakeup lists and
//! store-address map are all sized once in `Processor::new`. Verified
//! with a counting global allocator that counts per thread, so tests
//! running concurrently in this binary never pollute each other's count.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use sim_cpu::{CoreConfig, Processor};
use workload::{App, RecordedTrace, SyntheticStream};

struct CountingAlloc;

thread_local! {
    // `const`-initialized: reaching it never allocates, so the allocator
    // itself can touch it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count_one() {
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

#[test]
fn warm_core_steps_without_allocating() {
    for app in App::ALL {
        let trace = RecordedTrace::record(&mut SyntheticStream::new(app.profile(), 12345), 50_000);
        let mut cpu = Processor::new(CoreConfig::base(), trace.replayer()).unwrap();
        cpu.run_instructions(5_000);
        let before = ALLOCATIONS.with(Cell::get);
        for _ in 0..20_000 {
            cpu.step();
        }
        let n = ALLOCATIONS.with(Cell::get) - before;
        assert_eq!(n, 0, "{app:?}: {n} allocations in 20 000 warm cycles");
    }
}
