//! The invariant sweep of a healthy system allocates nothing once its
//! reusable buffers have grown: the watchdog runs at every commit, so a
//! per-line or per-sweep allocation would be paid thousands of times per
//! run.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use svc::{SvcConfig, SvcSystem};
use svc_multiscalar::{Engine, EngineConfig};
use svc_types::{Cycle, VersionedMemory};
use svc_workloads::Spec95;

/// Counts this thread's allocations; everything else is `System`'s.
struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn count() {
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

// SAFETY: every call forwards unchanged to the system allocator; the
// counter is a const-initialized thread-local that never allocates.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc(layout)
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        System.alloc_zeroed(layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        System.realloc(ptr, layout, new_size)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// `pus` final-design caches paused mid-way through the gcc model.
fn warm_gcc(pus: usize, cycles: u64) -> SvcSystem {
    let wl = Spec95::Gcc.workload(7);
    let cfg = EngineConfig {
        num_pus: pus,
        predictor: wl.profile().predictor(7),
        seed: 7,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(cfg, SvcSystem::new(SvcConfig::final_design(pus)));
    assert!(!engine.run_until(&wl, Some(cycles)), "must pause mid-run");
    engine.into_memory()
}

#[test]
fn healthy_sweep_is_allocation_free() {
    for pus in [4, 16] {
        let sys = warm_gcc(pus, 6_000);
        // The first sweep on this thread grows the buffers.
        assert!(sys.check_invariants(Cycle(0)).is_empty());
        let before = allocations();
        for _ in 0..3 {
            assert!(sys.check_invariants(Cycle(0)).is_empty());
        }
        assert_eq!(allocations() - before, 0, "{pus}-PU sweep allocated");
    }
}
