//! The golden trial kernel is allocation-free: with a counting global
//! allocator, a one-thread plain `yield_run` of 2n trials makes no more heap
//! allocations than one of n trials. Per-run set-up (the plan, the scratch,
//! the worker thread, the report) is the same in both runs, so any
//! per-trial allocation would show as a difference of at least n. The
//! analytic per-stage model the trials are scored against is checked the
//! same way: evaluating every c432 stage allocates nothing.
//!
//! This file holds a single test so no other test thread allocates while
//! the counter is read.

use nsigma::cells::CellLibrary;
use nsigma::core::sta::{NsigmaTimer, TimerConfig};
use nsigma::core::{MergeRule, TimingSession};
use nsigma::mc::design::Design;
use nsigma::netlist::generators::random_dag::Iscas85;
use nsigma::netlist::mapping::map_to_cells;
use nsigma::process::Technology;
use nsigma::yield_engine::{YieldAnalysis, YieldConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

static ALLOCS: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting every `alloc`, `alloc_zeroed` and
/// `realloc` call.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`; the
// only addition is a relaxed counter update, which neither allocates nor
// touches the memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are passed through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's guarantees are passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Exactly `trials` plain trials on one thread: one chunk, and a half-width
/// no run can reach, so stopping never fires.
fn plain(trials: usize) -> YieldConfig {
    YieldConfig {
        ci_half_width: 1e-12,
        max_samples: trials,
        chunk: trials,
        threads: 1,
        seed: 3,
        ..YieldConfig::default()
    }
}

#[test]
fn yield_trials_make_no_heap_allocations() {
    let tech = Technology::synthetic_28nm();
    let lib = CellLibrary::standard();
    let mut cfg = TimerConfig::standard(5);
    cfg.char_samples = 300;
    cfg.wire.nets = 1;
    cfg.wire.samples = 200;
    let timer = NsigmaTimer::build(&tech, &lib, &cfg).expect("timer builds");
    let netlist = map_to_cells(&Iscas85::C432.generate(), &lib).expect("mapping");
    let design = Design::with_generated_parasitics(tech, lib, netlist, 7);
    let stages: Vec<(u32, f64)> = design
        .netlist
        .gate_ids()
        .map(|g| {
            let gate = design.netlist.gate(g);
            let id = timer.cell_id(design.lib.cell(gate.cell).name());
            (
                id.expect("cell is calibrated"),
                design.stage_load_cap(gate.output),
            )
        })
        .collect();
    let session = TimingSession::new(&timer, design, MergeRule::Pessimistic).expect("session");

    // Warm-up: the first analysis fills the session's caches.
    session.yield_run(&plain(2)).expect("warm-up run");

    let n = 8;
    let count = || ALLOCS.load(Ordering::Relaxed);
    let a0 = count();
    let short = session.yield_run(&plain(n)).expect("n-trial run");
    let a1 = count();
    let long = session.yield_run(&plain(2 * n)).expect("2n-trial run");
    let a2 = count();
    assert_eq!(short.delays().len(), n);
    assert_eq!(long.delays().len(), 2 * n);
    let (per_n, per_2n) = (a1 - a0, a2 - a1);
    assert!(
        per_2n <= per_n,
        "{per_2n} allocations for {} trials vs {per_n} for {n}: trials allocate",
        2 * n
    );

    let a3 = count();
    for &(id, load) in &stages {
        std::hint::black_box(timer.stage_cell_quantiles_id(id, timer.input_slew(), load));
    }
    assert_eq!(count() - a3, 0, "stage evaluation allocates");
}
