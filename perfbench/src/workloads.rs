//! The benchmark's named workloads: which cells each runs, why it was
//! chosen, and how its outputs are checked. NOTES.md records the layer
//! each one stresses.

use crate::adapter::{CellSpec, Instruments, Memory, Source};

/// The SPEC95 models of the paper's Tables 2-3 and Figure 19.
pub const SPEC95: [&str; 7] = [
    "compress", "gcc", "vortex", "perl", "ijpeg", "mgrid", "apsi",
];

/// The seed the committed `results/*.json` were generated at.
pub const PAPER_SEED: u64 = 42;

/// The paper's committed-instruction budget, scaled as in the
/// experiment binaries.
pub const BUDGET: u64 = 400_000;

const SVC_4X8: Memory = Memory::Svc { pus: 4, kb: 8 };
const ARB_2C_32: Memory = Memory::Arb {
    pus: 4,
    hit_cycles: 2,
    kb: 32,
};
const SVC_64X8: Memory = Memory::Svc { pus: 64, kb: 8 };

/// How a workload's outputs are checked, besides the checks every cell
/// gets (budget reached, no cycle-limit stop, identical on every pass).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Check {
    /// The cells at [`PAPER_SEED`] reproduce their run objects in this
    /// committed results file exactly.
    Reference(&'static str),
    /// Every touched address drains to the value program-order replay
    /// of the source leaves (what the ideal memory leaves).
    Replay,
    /// Each instrumented cell reports exactly what the same cell run
    /// plain reports, its profile conserves cycles, the watchdog finds
    /// nothing, and every checkpoint restores and re-saves identically.
    Instrumented,
}

/// A named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    /// Name passed to `--workload`.
    pub name: &'static str,
    /// Why it is in the benchmark, in one line.
    pub why: &'static str,
    /// Its cells at a seed.
    pub cells: fn(u64) -> Vec<CellSpec>,
    /// Its output check.
    pub check: Check,
    /// Nominal wall seconds of one untraced pass, set-up and checks
    /// included, as measured on the reference host (NOTES.md). A run of
    /// `--seconds` makes `--seconds / pass_s` passes.
    pub pass_s: f64,
}

fn spec_cells(benches: &[&'static str], memories: &[Memory], seed: u64) -> Vec<CellSpec> {
    let mut cells = Vec::new();
    for &bench in benches {
        for &memory in memories {
            cells.push(CellSpec {
                source: Source::Spec(bench),
                memory,
                budget: BUDGET,
                seed,
                instruments: Instruments::default(),
            });
        }
    }
    cells
}

fn paper_4pu(seed: u64) -> Vec<CellSpec> {
    spec_cells(&SPEC95, &[SVC_4X8, ARB_2C_32], seed)
}

fn wide_64pu(seed: u64) -> Vec<CellSpec> {
    spec_cells(&["gcc", "ijpeg", "mgrid"], &[SVC_64X8], seed)
}

/// Tasks per squash-storm kernel.
const STORM_TASKS: u64 = 40_000;

fn squash_storm(seed: u64) -> Vec<CellSpec> {
    let kernel = |source| CellSpec {
        source,
        memory: SVC_4X8,
        budget: 0,
        seed,
        instruments: Instruments::default(),
    };
    vec![
        kernel(Source::ConflictDensity {
            tasks: STORM_TASKS,
            density: 0.05,
        }),
        kernel(Source::ConflictDensity {
            tasks: STORM_TASKS,
            density: 0.5,
        }),
        kernel(Source::ProducerConsumer {
            tasks: STORM_TASKS,
            work: 4,
        }),
    ]
}

/// Budget of each instrumented cell.
const INSTRUMENTED_BUDGET: u64 = 100_000;

/// Budget of the SVC cell that arms the watchdog: an SVC sweep costs
/// hundreds of microseconds and runs at every commit, so a short cell
/// keeps the watchdog's share of host time near the hooks' share.
const SVC_WATCHDOG_BUDGET: u64 = 14_000;

/// The default watchdog cadence (`SVC_WATCHDOG=1`), in cycles.
const WATCHDOG_EVERY: u64 = 256;

fn instrumented(seed: u64) -> Vec<CellSpec> {
    let hooks = Instruments {
        trace: true,
        profile: true,
        watchdog: 0,
        checkpoint_every: 1_000,
    };
    let mut cells = spec_cells(&["gcc", "mgrid"], &[SVC_4X8, ARB_2C_32], seed);
    for cell in &mut cells {
        cell.budget = INSTRUMENTED_BUDGET;
        cell.instruments = hooks;
        if !cell.memory.is_svc() {
            cell.instruments.watchdog = WATCHDOG_EVERY;
        }
    }
    cells.push(CellSpec {
        budget: SVC_WATCHDOG_BUDGET,
        instruments: Instruments {
            watchdog: WATCHDOG_EVERY,
            ..hooks
        },
        ..cells[0]
    });
    cells
}

/// Every workload. `BENCHMARK.json` gates the steadiest two
/// (`paper-4pu`, `instrumented`); the others run on demand (NOTES.md).
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-4pu",
        why: "the paper's evaluation point: 7 SPEC95 models on SVC-4x8KB and ARB-2c-32KB at 400k instructions; engine, task generation, SVC and ARB all carry host time",
        cells: paper_4pu,
        pass_s: 1.3,
        check: Check::Reference("results/fig19.json"),
    },
    Workload {
        name: "wide-64pu",
        why: "gcc/ijpeg/mgrid on SVC-64x8KB: snoop, VOL and VCL work per load grows with PU count and the bus saturates; ARB absent",
        cells: wide_64pu,
        pass_s: 2.6,
        check: Check::Reference("results/scaling-xl.json"),
    },
    Workload {
        name: "squash-storm",
        why: "prebuilt conflict-density and producer-consumer kernels on SVC-4x8KB: stores, violations and squashes; task generation bypassed",
        cells: squash_storm,
        pass_s: 0.9,
        check: Check::Replay,
    },
    Workload {
        name: "instrumented",
        why: "gcc and mgrid on SVC and ARB with tracer, profiler, watchdog and in-memory checkpoints attached: the hook layers the others leave idle",
        cells: instrumented,
        pass_s: 0.5,
        check: Check::Instrumented,
    },
];

/// The workload called `name`.
pub fn by_name(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}
