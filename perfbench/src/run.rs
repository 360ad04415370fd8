//! Measurement: the untraced loop behind the end-to-end metrics, the
//! traced loop behind the per-layer metrics, and the correctness checks
//! both run.
//!
//! A *pass* runs every cell of a workload once, back to back, each cell
//! built (timed as set-up) and then run (timed as host time). A run makes
//! a fixed number of passes for its `--seconds` (see [`passes`]), so a
//! faster or slower simulator is sampled equally often. Each cell's
//! outputs are checked as soon as it ends, outside the clock, and then
//! dropped: only its report is kept, and every later pass must repeat the
//! first pass's reports. Host time is the sum over cells of each cell's
//! fastest pass: on a shared host the simulator slows by up to half for
//! seconds to minutes when neighbours load the machine, so slower passes
//! measure the neighbours. Set-up time is the median over passes.

use std::time::Instant;

use crate::adapter::{
    self, ArchCheck, CellSpec, Counts, Hooks, Instruments, Oracle, Outcome, Reference, Report,
};
use crate::metrics::Values;
use crate::paper::{self, Simulated};
use crate::probe::{self, Site, Stat, SITES};
use crate::stats::{median, ratio};
use crate::workloads::{Check, Workload, PAPER_SEED};

/// Fewest timed passes a run makes.
const MIN_PASSES: usize = 5;

/// Fewest traced (and untraced) passes a traced run makes.
const MIN_TRACED_PASSES: usize = 2;

/// Host time of one traced round (a traced, an untraced and, for
/// instrumented cells, a plain pass) in untraced passes.
const TRACED_ROUND_PASSES: f64 = 2.5;

/// Largest share of untraced host time by which traced host time, less
/// the probes' modelled cost, may differ from untraced host time.
pub const PROBE_MODEL_TOLERANCE: f64 = 0.10;

/// The passes a run of `seconds` makes, at `per_pass` untraced passes
/// each: `seconds` over the workload's nominal pass time, at least
/// `min`. The count depends on the arguments only, never on how fast
/// the passes run.
pub fn passes(w: &Workload, seconds: f64, per_pass: f64, min: usize) -> usize {
    ((seconds / (w.pass_s * per_pass)).round() as usize).max(min)
}

/// Cells attempted, cells failed, and why.
#[derive(Debug, Default)]
pub struct Tally {
    /// Cells run.
    pub attempted: u64,
    /// Cells with at least one failed check.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
}

impl Tally {
    /// Records one cell and the problems its checks found.
    pub fn cell(&mut self, name: &str, problems: Vec<String>) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            self.failures
                .extend(problems.into_iter().map(|p| format!("{name}: {p}")));
        }
    }

    /// Records a failed check that belongs to no single cell.
    fn fail(&mut self, what: String) {
        self.failed += 1;
        self.failures.push(what);
    }
}

struct Pass {
    host_ns: u64,
    cell_ns: Vec<u64>,
    setup_ns: u64,
}

/// Runs one pass of `cells`, handing each cell's outcome to `each` once
/// its clock has stopped.
fn pass(cells: &[CellSpec], traced: bool, mut each: impl FnMut(usize, Outcome)) -> Pass {
    let mut p = Pass {
        host_ns: 0,
        cell_ns: Vec::with_capacity(cells.len()),
        setup_ns: 0,
    };
    for (i, spec) in cells.iter().enumerate() {
        let start = Instant::now();
        let prepared = adapter::setup(spec, traced);
        p.setup_ns += start.elapsed().as_nanos() as u64;
        let start = Instant::now();
        let outcome = adapter::run(prepared);
        let ns = start.elapsed().as_nanos() as u64;
        p.host_ns += ns;
        p.cell_ns.push(ns);
        each(i, outcome);
    }
    p
}

/// Each cell's fastest run over the passes recorded.
struct Fastest(Vec<u64>);

impl Fastest {
    fn new(cells: usize) -> Fastest {
        Fastest(vec![u64::MAX; cells])
    }

    fn record(&mut self, p: &Pass) {
        for (best, &ns) in self.0.iter_mut().zip(&p.cell_ns) {
            *best = (*best).min(ns);
        }
    }

    /// Sum over cells of each cell's fastest run, in ns.
    fn total_ns(&self) -> f64 {
        self.0.iter().sum::<u64>() as f64
    }
}

/// Checks every cell gets: it reached its budget without hitting the
/// cycle limit, and (given the first pass's report) it repeated exactly.
fn basic_problems(spec: &CellSpec, report: &Report, first: Option<&Report>) -> Vec<String> {
    let c = report.counts;
    let mut problems = Vec::new();
    if c.hit_cycle_limit {
        problems.push("stopped at the cycle limit".to_string());
    }
    if c.committed_instrs == 0 || c.committed_instrs < spec.budget {
        problems.push(format!(
            "committed {} of a {} budget",
            c.committed_instrs, spec.budget
        ));
    }
    if first.is_some_and(|f| !report.same(f)) {
        problems.push("report differs from the first pass".to_string());
    }
    problems
}

fn instrument_problems(spec: &CellSpec, report: &Report, h: Hooks, plain: &Report) -> Vec<String> {
    let ins = spec.instruments;
    let mut problems = Vec::new();
    if !report.same_simulation(plain) {
        problems.push("instrumented report differs from the plain run".to_string());
    }
    if ins.profile && h.conservation_ok != Some(true) {
        problems.push("profile does not conserve cycles".to_string());
    }
    if h.violations > 0 {
        problems.push(format!("{} watchdog violation(s)", h.violations));
    }
    if ins.checkpoint_every > 0 && h.ckpt_saves == 0 {
        problems.push("no checkpoint taken".to_string());
    }
    if h.ckpt_mismatches > 0 {
        problems.push(format!(
            "{} checkpoint(s) did not restore and re-save identically",
            h.ckpt_mismatches
        ));
    }
    if ins.trace && h.trace_records == 0 {
        problems.push("trace ring is empty".to_string());
    }
    problems
}

/// Totals of a workload's simulated counts over one pass.
#[derive(Debug, Clone, Copy, Default)]
struct Sim {
    all: Counts,
    svc: Counts,
    arb: Counts,
}

fn add(into: &mut Counts, c: &Counts) {
    into.cycles += c.cycles;
    into.committed_instrs += c.committed_instrs;
    into.wasted_instrs += c.wasted_instrs;
    into.squashes += c.squashes;
    into.accesses += c.accesses;
    into.bus_busy_cycles += c.bus_busy_cycles;
    into.transfers += c.transfers;
    into.snarfs += c.snarfs;
    into.writebacks += c.writebacks;
    into.bus_transactions += c.bus_transactions;
    into.bus_wait_cycles += c.bus_wait_cycles;
    into.fills += c.fills;
    into.mshr_combines += c.mshr_combines;
    into.wb_stall_cycles += c.wb_stall_cycles;
}

fn sim_totals(cells: &[CellSpec], reports: &[Report]) -> Sim {
    let mut sim = Sim::default();
    for (spec, r) in cells.iter().zip(reports) {
        add(&mut sim.all, &r.counts);
        add(
            if spec.memory.is_svc() {
                &mut sim.svc
            } else {
                &mut sim.arb
            },
            &r.counts,
        );
    }
    sim
}

/// The workload's output checks on the first (untraced) pass, one cell
/// at a time, so no outcome outlives its check.
struct FirstPass<'a> {
    w: &'a Workload,
    seed: u64,
    /// The committed reference, for [`Check::Reference`] workloads.
    reference: Option<Result<Reference, String>>,
    /// The first pass's reports, which every later pass must repeat.
    reports: Vec<Report>,
    /// Drained addresses compared, for [`Check::Replay`] workloads.
    addresses: usize,
    started: Instant,
    check_ns: u64,
}

impl<'a> FirstPass<'a> {
    fn new(w: &'a Workload, seed: u64) -> FirstPass<'a> {
        let reference = match w.check {
            Check::Reference(path) => Some(Reference::load(std::path::Path::new(path))),
            _ => None,
        };
        FirstPass {
            w,
            seed,
            reference,
            reports: Vec::new(),
            addresses: 0,
            started: Instant::now(),
            check_ns: 0,
        }
    }

    /// The problems of `report` against the committed reference (run at
    /// the paper seed).
    fn reference_problems(&self, spec: &CellSpec, report: &Report) -> Vec<String> {
        let mut problems = basic_problems(spec, report, None);
        if let Some(Ok(reference)) = &self.reference {
            problems.extend(reference.check(report, PAPER_SEED).err());
        }
        problems
    }

    /// Checks one cell of the first pass and keeps its report.
    fn cell(&mut self, spec: &CellSpec, o: Outcome, tally: &mut Tally) {
        let start = Instant::now();
        let report = o.report.clone();
        let problems = match self.w.check {
            Check::Reference(_) if self.seed == PAPER_SEED => {
                drop(o);
                self.reference_problems(spec, &report)
            }
            Check::Reference(_) => {
                drop(o);
                basic_problems(spec, &report, None)
            }
            Check::Replay => {
                let mut problems = basic_problems(spec, &report, None);
                let ArchCheck {
                    addresses,
                    mismatches,
                } = adapter::compare_drained(o, Oracle::Replay);
                self.addresses += addresses;
                if mismatches > 0 {
                    problems.push(format!(
                        "{mismatches} of {addresses} addresses differ from program-order replay"
                    ));
                }
                problems
            }
            Check::Instrumented => {
                let mut problems = basic_problems(spec, &report, None);
                // Free the instrumented cell before its plain run is built.
                let hooks = o.hooks;
                drop(o);
                let plain = adapter::run(adapter::setup(&spec.plain(), false)).report;
                tally.cell(
                    &format!("{} (plain)", spec.name()),
                    basic_problems(spec, &plain, None),
                );
                problems.extend(instrument_problems(spec, &report, hooks, &plain));
                problems
            }
        };
        tally.cell(&spec.name(), problems);
        self.reports.push(report);
        self.check_ns += start.elapsed().as_nanos() as u64;
    }

    /// Completes the checks that span the pass: for reference workloads
    /// run at another seed, a pass at the paper seed against the
    /// reference; then `paper_err`. Returns the first pass's reports.
    fn finish(
        self,
        tally: &mut Tally,
        values: &mut Values,
        notes: &mut Vec<String>,
    ) -> Vec<Report> {
        let start = Instant::now();
        match self.w.check {
            Check::Reference(path) => {
                if let Some(Err(e)) = &self.reference {
                    tally.fail(format!("reference {path}: {e}"));
                }
                let reports = if self.seed == PAPER_SEED {
                    self.reports.clone()
                } else {
                    let ref_cells = (self.w.cells)(PAPER_SEED);
                    let mut reports = Vec::with_capacity(ref_cells.len());
                    pass(&ref_cells, false, |i, o| {
                        let spec = &ref_cells[i];
                        tally.cell(
                            &format!("{}@seed{PAPER_SEED}", spec.name()),
                            self.reference_problems(spec, &o.report),
                        );
                        reports.push(o.report);
                    });
                    reports
                };
                if let Some(err) = paper_err(&reports) {
                    values.set("paper_err", err);
                }
                notes.push(format!(
                    "check: {} cell(s) at seed {PAPER_SEED} against {path}",
                    reports.len()
                ));
            }
            Check::Replay => notes.push(format!(
                "check: {} drained address(es) against program-order replay",
                self.addresses
            )),
            Check::Instrumented => notes.push(format!(
                "check: {} instrumented cell(s) against plain runs",
                self.reports.len()
            )),
        }
        let check_s = (self.check_ns + start.elapsed().as_nanos() as u64) as f64 / 1e9;
        notes.push(format!(
            "check: done in {check_s:.3} s ({:.3} s since the first pass began)",
            self.started.elapsed().as_secs_f64()
        ));
        self.reports
    }
}

/// `paper_err` over the reports of a workload that runs every SPEC95
/// model on both SVC-4x8KB and ARB-2c-32KB; `None` for other workloads.
fn paper_err(reports: &[Report]) -> Option<f64> {
    let find = |bench: &str, memory: &str| {
        reports
            .iter()
            .find(|r| r.workload() == bench && r.memory() == memory)
            .map(|r| r.counts)
    };
    let mut sims = Vec::new();
    for row in paper::PAPER {
        let svc = find(row.0, "SVC-4x8KB")?;
        let arb = find(row.0, "ARB-2c-32KB")?;
        sims.push((
            row.0,
            Simulated {
                arb_miss: ratio(arb.fills as f64, arb.accesses as f64),
                svc_miss: ratio(svc.fills as f64, svc.accesses as f64),
                svc_bus: ratio(svc.bus_busy_cycles as f64, svc.cycles as f64),
            },
        ));
    }
    paper::paper_err(&sims)
}

/// Peak resident set of this process image, in MB: `VmHWM` from
/// `/proc/self/status`, which is reset at exec. (`getrusage`'s
/// `ru_maxrss` is not: a process that `cargo run` forks and execs
/// reports cargo's own peak until its own grows past it.)
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// A workload's run: the figures measured and the checks' outcome.
pub struct Measured {
    /// Metric values.
    pub values: Values,
    /// Check outcome.
    pub tally: Tally,
    /// Lines describing what ran.
    pub notes: Vec<String>,
}

/// Runs the first (untraced) pass and checks its outputs cell by cell.
/// Returns the pass's timings and reports.
fn first_pass(
    w: &Workload,
    seed: u64,
    cells: &[CellSpec],
    tally: &mut Tally,
    values: &mut Values,
    notes: &mut Vec<String>,
) -> (Pass, Vec<Report>) {
    let mut check = FirstPass::new(w, seed);
    let p = pass(cells, false, |i, o| check.cell(&cells[i], o, tally));
    let reports = check.finish(tally, values, notes);
    (p, reports)
}

/// The untraced run behind the end-to-end metrics.
pub fn end_to_end(w: &Workload, seed: u64, seconds: f64) -> Measured {
    let cells = (w.cells)(seed);
    let mut tally = Tally::default();
    let mut values = Values::default();
    let mut notes = Vec::new();
    let mut setups = Vec::new();
    let mut hosts = Vec::new();
    let mut fastest = Fastest::new(cells.len());
    let n = passes(w, seconds, 1.0, MIN_PASSES);
    let started = Instant::now();
    let (p, first) = first_pass(w, seed, &cells, &mut tally, &mut values, &mut notes);
    let mut record = |p: Pass| {
        fastest.record(&p);
        hosts.push(p.host_ns as f64 / 1e9);
        setups.push(p.setup_ns as f64);
    };
    record(p);
    // The first pass and its checks build every kind of cell the run
    // builds, one at a time; with the allocator pinned (`main`), later
    // passes reuse that memory, so the peak is reached here.
    let rss = peak_rss_mb();
    for _ in 1..n {
        record(pass(&cells, false, |i, o| {
            let spec = &cells[i];
            tally.cell(
                &spec.name(),
                basic_problems(spec, &o.report, Some(&first[i])),
            );
        }));
    }

    let sim = sim_totals(&cells, &first);
    let host_s = fastest.total_ns() / 1e9;
    values.set("host_s", host_s);
    values.set(
        "sim_instrs_per_s",
        ratio(sim.all.committed_instrs as f64, host_s),
    );
    values.set("sim_cycles_per_s", ratio(sim.all.cycles as f64, host_s));
    values.set("setup_s", median(&setups) / 1e9);
    values.set("peak_rss_mb", rss);
    values.set(
        "sim_ipc",
        ratio(sim.all.committed_instrs as f64, sim.all.cycles as f64),
    );
    values.set("cells_failed", tally.failed as f64);
    notes.push(format!(
        "timed: {} pass(es) of {} cell(s) in {:.1} s; pass host s: {:.4?} (median {:.4})",
        hosts.len(),
        cells.len(),
        started.elapsed().as_secs_f64(),
        hosts,
        median(&hosts)
    ));
    Measured {
        values,
        tally,
        notes,
    }
}

/// Sums of the traced passes.
#[derive(Default)]
struct Traced {
    passes: u64,
    host_ns: u64,
    engine_ns: u64,
    svc: [Stat; SITES],
    arb: [Stat; SITES],
    hooks: adapter::Hooks,
    trace_renders: u64,
    profile_reports: u64,
}

fn sites_ns(stats: &[Stat; SITES], sites: &[Site], inside_ns: f64) -> (f64, u64) {
    let mut ns = 0.0;
    let mut calls = 0;
    for &s in sites {
        let st = stats[s as usize];
        ns += st.ns as f64 - st.calls as f64 * inside_ns;
        calls += st.calls;
    }
    (ns.max(0.0), calls)
}

const MEMORY_SITES: [Site; 6] = [
    Site::Assign,
    Site::Load,
    Site::Store,
    Site::Commit,
    Site::Squash,
    Site::Other,
];

/// How far traced host time, less `probe_ns` of modelled probe cost,
/// lies from untraced host time, as a share of the latter.
pub fn probe_model_err(traced_ns: f64, untraced_ns: f64, probe_ns: f64) -> f64 {
    ratio(traced_ns - probe_ns - untraced_ns, untraced_ns)
}

/// The traced run behind the per-layer metrics.
pub fn per_layer(w: &Workload, seed: u64, seconds: f64) -> Measured {
    let cells = (w.cells)(seed);
    let mut tally = Tally::default();
    let mut values = Values::default();
    let mut notes = Vec::new();
    let cost = probe::probe_cost(200_000);

    let mut t = Traced::default();
    let mut traced_fastest = Fastest::new(cells.len());
    let mut untraced_fastest = Fastest::new(cells.len());
    let (p, first) = first_pass(w, seed, &cells, &mut tally, &mut values, &mut notes);
    untraced_fastest.record(&p);
    // Instrumented cells are also run plain, for the hooks' share.
    let plain_cells: Vec<CellSpec> = cells
        .iter()
        .filter(|c| c.instruments != Instruments::default())
        .map(CellSpec::plain)
        .collect();
    let mut plain_fastest = Fastest::new(plain_cells.len());
    let rounds = passes(w, seconds, TRACED_ROUND_PASSES, MIN_TRACED_PASSES);
    for _ in 0..rounds {
        let p = pass(&cells, true, |i, o| {
            let spec = &cells[i];
            let mut problems = basic_problems(spec, &o.report, None);
            if !o.report.same(&first[i]) {
                problems.push("decorated report differs from the undecorated one".to_string());
            }
            tally.cell(&spec.name(), problems);
            let probes = o.probes.expect("traced cells carry probes");
            let into = if spec.memory.is_svc() {
                &mut t.svc
            } else {
                &mut t.arb
            };
            for (acc, s) in into.iter_mut().zip(probes) {
                acc.add(s);
            }
            t.engine_ns += o.engine_ns;
            let h = &o.hooks;
            t.hooks.trace_records += h.trace_records;
            t.hooks.trace_dropped += h.trace_dropped;
            t.hooks.trace_render_ns += h.trace_render_ns;
            t.hooks.profile_report_ns += h.profile_report_ns;
            t.hooks.ckpt_saves += h.ckpt_saves;
            t.hooks.ckpt_save_ns += h.ckpt_save_ns;
            t.hooks.ckpt_restore_ns += h.ckpt_restore_ns;
            t.hooks.ckpt_bytes += h.ckpt_bytes;
            t.trace_renders += u64::from(spec.instruments.trace);
            t.profile_reports += u64::from(spec.instruments.profile);
        });
        t.passes += 1;
        t.host_ns += p.host_ns;
        traced_fastest.record(&p);

        let p = pass(&cells, false, |i, o| {
            let spec = &cells[i];
            tally.cell(
                &spec.name(),
                basic_problems(spec, &o.report, Some(&first[i])),
            );
        });
        untraced_fastest.record(&p);
        if !plain_cells.is_empty() {
            plain_fastest.record(&pass(&plain_cells, false, |_, _| {}));
        }
    }

    let ci = cost.inside_ns;
    let passes = t.passes as f64;
    let host = t.host_ns as f64;
    let (svc_ns, _) = sites_ns(&t.svc, &MEMORY_SITES, ci);
    let (arb_ns, _) = sites_ns(&t.arb, &MEMORY_SITES, ci);
    let watchdog_sites = [Site::Sweep, Site::PostSquash];
    let (wd_svc, _) = sites_ns(&t.svc, &watchdog_sites, ci);
    let (wd_arb, _) = sites_ns(&t.arb, &watchdog_sites, ci);
    let watchdog_ns = wd_svc + wd_arb;
    let (gauges_svc, gauge_calls_svc) = sites_ns(&t.svc, &[Site::Gauges], ci);
    let (gauges_arb, gauge_calls_arb) = sites_ns(&t.arb, &[Site::Gauges], ci);
    let gauges_ns = gauges_svc + gauges_arb;
    let (task_svc, task_calls_svc) = sites_ns(&t.svc, &[Site::Task], ci);
    let (task_arb, task_calls_arb) = sites_ns(&t.arb, &[Site::Task], ci);
    let task_ns = task_svc + task_arb;
    let task_calls = task_calls_svc + task_calls_arb;
    let probed_calls: u64 = t.svc.iter().chain(&t.arb).map(|s| s.calls).sum();
    let probed_ns: u64 = t.svc.iter().chain(&t.arb).map(|s| s.ns).sum();
    let engine_self =
        t.engine_ns as f64 - probed_ns as f64 - probed_calls as f64 * (cost.total_ns - ci);
    let h = t.hooks;
    let hooks_ns =
        (h.trace_render_ns + h.profile_report_ns + h.ckpt_save_ns + h.ckpt_restore_ns) as f64;
    let sim_ns = hooks_ns + gauges_ns;
    // The probe-cost model, checked against a separate measurement: the
    // fastest traced pass less the probes' modelled cost must match the
    // fastest untraced pass of the same cells.
    let traced = traced_fastest.total_ns();
    let untraced = untraced_fastest.total_ns();
    let probe_per_pass = probed_calls as f64 / passes * cost.total_ns;
    let model_err = probe_model_err(traced, untraced, probe_per_pass);
    if engine_self < 0.0 || model_err.abs() > PROBE_MODEL_TOLERANCE {
        tally.fail(format!(
            "probe-cost model: traced host time less {:.0} ns of probes per pass is {:+.4} of untraced host time (engine self {engine_self:.0} ns)",
            probe_per_pass, model_err
        ));
    }

    let sim = sim_totals(&cells, &first);
    let per_call = |stats: &[Stat; SITES], site: Site| {
        let s = stats[site as usize];
        ratio(s.ns as f64 - s.calls as f64 * ci, s.calls as f64).max(0.0)
    };
    let per_pass = |calls: u64| calls as f64 / passes;
    let frac = |ns: f64| ratio(ns, host);

    values.set(
        "multiscalar.self_ns_per_sim_cycle",
        ratio(engine_self, sim.all.cycles as f64 * passes),
    );
    values.set("multiscalar.self_frac", frac(engine_self));
    values.set("multiscalar.squashes", sim.all.squashes as f64);
    values.set(
        "multiscalar.useful_frac",
        ratio(
            sim.all.committed_instrs as f64,
            (sim.all.committed_instrs + sim.all.wasted_instrs) as f64,
        ),
    );
    values.set("workloads.task_ns", ratio(task_ns, task_calls as f64));
    values.set("workloads.task_calls", per_pass(task_calls));
    values.set("workloads.self_frac", frac(task_ns));

    for (site, ns, calls) in [
        (Site::Load, "svc.load_ns", "svc.load_calls"),
        (Site::Store, "svc.store_ns", "svc.store_calls"),
        (Site::Commit, "svc.commit_ns", "svc.commit_calls"),
        (Site::Squash, "svc.squash_ns", "svc.squash_calls"),
        (Site::Assign, "svc.assign_ns", "svc.assign_calls"),
    ] {
        values.set(ns, per_call(&t.svc, site));
        values.set(calls, per_pass(t.svc[site as usize].calls));
    }
    values.set("svc.self_frac", frac(svc_ns));
    values.set("svc.transfers", sim.svc.transfers as f64);
    values.set("svc.snarfs", sim.svc.snarfs as f64);
    values.set("svc.writebacks", sim.svc.writebacks as f64);
    values.set(
        "svc.miss_ratio",
        ratio(sim.svc.fills as f64, sim.svc.accesses as f64),
    );
    for (site, ns) in [
        (Site::Load, "arb.load_ns"),
        (Site::Store, "arb.store_ns"),
        (Site::Commit, "arb.commit_ns"),
        (Site::Squash, "arb.squash_ns"),
    ] {
        values.set(ns, per_call(&t.arb, site));
    }
    values.set("arb.self_frac", frac(arb_ns));
    values.set(
        "arb.miss_ratio",
        ratio(sim.arb.fills as f64, sim.arb.accesses as f64),
    );

    values.set("mem.bus_transactions", sim.all.bus_transactions as f64);
    values.set(
        "mem.bus_utilization",
        ratio(sim.svc.bus_busy_cycles as f64, sim.svc.cycles as f64),
    );
    values.set("mem.bus_wait_cycles", sim.all.bus_wait_cycles as f64);
    values.set("mem.fills", sim.all.fills as f64);
    values.set("mem.mshr_combines", sim.all.mshr_combines as f64);
    values.set("mem.wb_stall_cycles", sim.all.wb_stall_cycles as f64);

    values.set("svc.watchdog.sweep_ns", per_call(&t.svc, Site::Sweep));
    values.set(
        "svc.watchdog.sweeps",
        per_pass(t.svc[Site::Sweep as usize].calls),
    );
    values.set(
        "svc.watchdog.post_squash_ns",
        per_call(&t.svc, Site::PostSquash),
    );
    values.set("arb.watchdog.sweep_ns", per_call(&t.arb, Site::Sweep));
    values.set("watchdog.self_frac", frac(watchdog_ns));

    values.set("sim.trace.records", h.trace_records as f64 / passes);
    values.set("sim.trace.dropped", h.trace_dropped as f64 / passes);
    values.set(
        "sim.trace.render_ns",
        ratio(h.trace_render_ns as f64, t.trace_renders as f64),
    );
    values.set(
        "sim.profile.gauges_ns",
        ratio(gauges_ns, (gauge_calls_svc + gauge_calls_arb) as f64),
    );
    values.set(
        "sim.profile.report_ns",
        ratio(h.profile_report_ns as f64, t.profile_reports as f64),
    );
    values.set(
        "sim.checkpoint.save_ns",
        ratio(h.ckpt_save_ns as f64, h.ckpt_saves as f64),
    );
    values.set(
        "sim.checkpoint.restore_ns",
        ratio(h.ckpt_restore_ns as f64, h.ckpt_saves as f64),
    );
    values.set(
        "sim.checkpoint.bytes",
        ratio(h.ckpt_bytes as f64, h.ckpt_saves as f64),
    );
    values.set("sim.self_frac", frac(sim_ns));
    let hooks_frac = if plain_cells.is_empty() {
        0.0
    } else {
        let above_plain = untraced - plain_fastest.total_ns() - watchdog_ns / passes;
        ratio(above_plain, untraced).max(0.0)
    };
    values.set("sim.hooks_frac", hooks_frac);

    values.set("bench.probe_ns", cost.total_ns);
    values.set("bench.probe_overhead_frac", ratio(traced, untraced) - 1.0);
    values.set("bench.probe_model_err", model_err);
    values.set("cells_failed", tally.failed as f64);
    notes.push(format!(
        "traced: {} traced and {} untraced pass(es); host {:.6} s traced, {:.6} s untraced",
        t.passes,
        t.passes + 1,
        traced / 1e9,
        untraced / 1e9
    ));
    notes.push(format!(
        "traced: probe {:.1} ns per call ({:.1} ns inside), {} probed call(s) per pass",
        cost.total_ns,
        ci,
        per_pass(probed_calls)
    ));
    Measured {
        values,
        tally,
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_model_check_catches_a_missing_subtraction() {
        // A traced paper-4pu pass: 1.013 s traced, 0.858 s untraced,
        // 3.08M probed calls at 43.6 ns.
        let (traced, untraced, probes) = (1.013e9, 0.858e9, 3.08e6 * 43.6);
        assert!(probe_model_err(traced, untraced, probes).abs() < PROBE_MODEL_TOLERANCE);
        assert!(probe_model_err(traced, untraced, 0.0) > PROBE_MODEL_TOLERANCE);
        assert!(probe_model_err(traced, untraced, 2.0 * probes) < -PROBE_MODEL_TOLERANCE);
    }

    #[test]
    fn pass_count_depends_on_the_arguments_only() {
        let w = crate::workloads::by_name("paper-4pu").unwrap();
        assert_eq!(passes(w, 10.0 * w.pass_s, 1.0, MIN_PASSES), 10);
        assert_eq!(passes(w, 0.1, 1.0, MIN_PASSES), MIN_PASSES);
        assert_eq!(passes(w, 25.0 * w.pass_s, 2.5, 2), 10);
    }
}
