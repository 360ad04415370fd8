//! Differential test for the idle-cycle fast-forward: jumping the clock
//! over provably-idle cycles must be invisible in every serialized
//! artifact. `SVC_NO_FASTFORWARD=1` forces the reference cycle-by-cycle
//! scheduler; this binary runs the same work both ways and demands
//! byte-identical JSON.
//!
//! Everything lives in ONE `#[test]`: the toggle is a process-global
//! environment variable, so scenarios must run sequentially, never in
//! parallel test threads.

use svc_bench::harness::job_seeds;
use svc_bench::report::{self, Json};
use svc_bench::{
    cross, run_derived_grid, run_source, run_spec95_with, ExperimentResult, MemoryKind, PAPER_SEED,
};
use svc_multiscalar::EngineConfig;
use svc_workloads::Spec95;

/// The regression gate's pinned 12-cell grid (`regress.rs` constants),
/// at a smaller budget so the doubled sweep stays seconds-scale.
const GRID_SEED: u64 = 0xB5E1;
const BUDGET: u64 = 20_000;
const BENCHES: [Spec95; 3] = [Spec95::Gcc, Spec95::Ijpeg, Spec95::Mgrid];
const MEMORIES: [MemoryKind; 4] = [
    MemoryKind::Arb {
        hit_cycles: 1,
        cache_kb: 32,
    },
    MemoryKind::Arb {
        hit_cycles: 2,
        cache_kb: 32,
    },
    MemoryKind::Svc { kb_per_cache: 8 },
    MemoryKind::Svc { kb_per_cache: 16 },
];

fn set_fastforward(enabled: bool) {
    if enabled {
        std::env::remove_var("SVC_NO_FASTFORWARD");
    } else {
        std::env::set_var("SVC_NO_FASTFORWARD", "1");
    }
}

/// Renders the pinned grid as a full `svc-experiments/v1` document.
fn grid_doc() -> String {
    let jobs = cross(&BENCHES, &MEMORIES);
    let outcome = run_derived_grid(&jobs, GRID_SEED, BUDGET);
    let seeds = job_seeds(GRID_SEED, jobs.len());
    let runs = outcome
        .results
        .iter()
        .zip(&seeds)
        .map(|(r, &s)| report::experiment_result_json(r, s))
        .collect();
    report::experiment_doc("fastforward-equiv", BUDGET, GRID_SEED, runs).render()
}

/// Renders one cell (run report + metrics registry) as JSON.
fn cell_json(result: &ExperimentResult) -> String {
    report::experiment_result_json(result, PAPER_SEED).render()
}

/// One faulted campaign cell: every injection site live at a rate that
/// fires often on this budget. Fast-forward must self-disable under an
/// active injector (sites draw from per-site streams once per scheduler
/// iteration, so skipped iterations would change the fault timeline).
fn faulted_cell() -> String {
    std::env::set_var("SVC_FAULTS", "all=0.01, penalty=5");
    let result = run_spec95_with(
        Spec95::Gcc,
        MemoryKind::Svc { kb_per_cache: 8 },
        BUDGET,
        PAPER_SEED,
    );
    std::env::remove_var("SVC_FAULTS");
    cell_json(&result)
}

/// One profiled cell: the interval sampler's rows must land on the same
/// cycles (fast-forward clamps jumps at sample boundaries) and the
/// stall-bucket conservation invariant must hold either way.
fn profiled_cell() -> String {
    std::env::set_var("SVC_PROFILE", "1");
    let result = run_spec95_with(
        Spec95::Mgrid,
        MemoryKind::Svc { kb_per_cache: 8 },
        BUDGET,
        PAPER_SEED,
    );
    std::env::remove_var("SVC_PROFILE");
    let profile = result.profile.as_ref().expect("SVC_PROFILE=1");
    assert!(
        profile.conservation_ok(),
        "stall attribution violates conservation: expected {}, attributed {}",
        profile.expected(),
        profile.attributed()
    );
    format!(
        "{}{}",
        cell_json(&result),
        report::profile_report_json(profile).render()
    )
}

/// One big-machine cell at the scaling-xl family's smallest PU count
/// (64), on a saturated bus. Some PU has work on every cycle here, so
/// the idle check must scale to 64 PUs without ever jumping.
fn high_pu_cell() -> String {
    let wl = Spec95::Ijpeg.workload(PAPER_SEED);
    let cfg = EngineConfig {
        num_pus: 64,
        predictor: wl.profile().predictor(PAPER_SEED),
        max_instructions: 30_000,
        seed: PAPER_SEED,
        garbage_addr_space: wl.profile().hot_set.max(64),
        load_dep_frac: wl.profile().load_dep_frac,
        ..EngineConfig::default()
    };
    let result = run_source(&wl, MemoryKind::Svc { kb_per_cache: 8 }, cfg);
    cell_json(&result)
}

#[test]
fn fastforward_is_byte_identical_to_cycle_by_cycle() {
    // Reference pass: cycle-by-cycle stepping.
    set_fastforward(false);
    let slow_grid = grid_doc();
    let slow_faulted = faulted_cell();
    let slow_profiled = profiled_cell();
    let slow_high_pu = high_pu_cell();

    // Fast pass: idle-cycle jumps enabled (the default).
    set_fastforward(true);
    let fast_grid = grid_doc();
    let fast_faulted = faulted_cell();
    let fast_profiled = profiled_cell();
    let fast_high_pu = high_pu_cell();

    assert_eq!(
        slow_grid, fast_grid,
        "fast-forward changed the pinned 12-cell grid document"
    );
    assert_eq!(
        slow_faulted, fast_faulted,
        "fast-forward changed a faulted campaign cell"
    );
    assert_eq!(
        slow_profiled, fast_profiled,
        "fast-forward changed a profiled cell or its stall attribution"
    );
    assert_eq!(
        slow_high_pu, fast_high_pu,
        "fast-forward changed the 64-PU cell"
    );

    // Sanity: the documents carry real runs, not empty grids.
    let doc = report::parse(&fast_grid).expect("grid doc parses");
    assert_eq!(
        doc.get("runs").and_then(Json::as_arr).map(<[_]>::len),
        Some(12)
    );
}
