//! The benchmark's single point of contact with the simulator: every call
//! into the simulator crates is made from this file. The rest of the
//! benchmark works on the plain types defined here ([`CellSpec`],
//! [`Outcome`], [`Counts`]), so an API change in the simulator is
//! absorbed in one place.
//!
//! A *cell* is one simulated machine running one task source to its
//! instruction budget, with caches that start empty (as in the paper's
//! runs). [`setup`] builds a cell, [`run`] drives it. A traced cell
//! wraps the memory system and the task source in timing decorators
//! ([`Timed`], [`TimedSource`]) that charge every call across the
//! engine/memory and engine/workload boundaries to a [`Site`].

use std::collections::{BTreeSet, HashMap};
use std::path::Path;
use std::time::Instant;

use svc::{IdealMemory, SvcConfig, SvcSystem};
use svc_arb::{ArbConfig, ArbSystem};
use svc_bench::report::{experiment_result_json, parse, profile_report_json};
use svc_bench::ExperimentResult;
use svc_multiscalar::{Engine, EngineConfig, Instr, RunReport, TaskSource, VecTaskSource};
use svc_sim::profile::{Profiler, DEFAULT_EPOCH};
use svc_sim::trace::{render_jsonl, Category, Tracer, DEFAULT_CAPACITY};
use svc_types::{
    AccessError, Addr, Checkpointable, CkptError, CkptReader, CkptWriter, Cycle,
    InvariantViolation, LoadOutcome, MemGauges, MemStats, PuId, StoreOutcome, TaskId,
    VersionedMemory, Word,
};
use svc_workloads::{kernels, Spec95, SyntheticWorkload};

use crate::probe::{Probe, Site, Stat, SITES};

/// The task source of a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Source {
    /// A SPEC95 benchmark model, by name; tasks are generated on demand.
    Spec(&'static str),
    /// `kernels::conflict_density`, prebuilt at set-up.
    ConflictDensity {
        /// Tasks in the kernel.
        tasks: u64,
        /// Share of accesses that hit the shared hot words.
        density: f64,
    },
    /// `kernels::producer_consumer`, prebuilt at set-up.
    ProducerConsumer {
        /// Tasks in the kernel.
        tasks: u64,
        /// Compute instructions between each load and store.
        work: usize,
    },
}

/// The memory system of a cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Memory {
    /// The final-design SVC with `kb` KB per private cache.
    Svc {
        /// Processing units.
        pus: usize,
        /// KB per private cache.
        kb: usize,
    },
    /// The ARB with the given hit latency and backing-cache size.
    Arb {
        /// Processing units.
        pus: usize,
        /// Hit latency in cycles.
        hit_cycles: u64,
        /// Backing-cache KB.
        kb: usize,
    },
}

impl Memory {
    /// The label the experiment binaries use, e.g. `SVC-4x8KB`.
    pub fn label(&self) -> String {
        match *self {
            Memory::Svc { pus, kb } => format!("SVC-{pus}x{kb}KB"),
            Memory::Arb { hit_cycles, kb, .. } => format!("ARB-{hit_cycles}c-{kb}KB"),
        }
    }

    /// Processing units.
    pub fn pus(&self) -> usize {
        match *self {
            Memory::Svc { pus, .. } | Memory::Arb { pus, .. } => pus,
        }
    }

    /// Whether this is an SVC (else an ARB).
    pub fn is_svc(&self) -> bool {
        matches!(self, Memory::Svc { .. })
    }
}

/// Instruments attached to a cell. The default attaches nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Instruments {
    /// Tracer with every category and the default ring; the ring is
    /// rendered to JSONL at the end of the run.
    pub trace: bool,
    /// Cycle-accounting profiler at the default epoch; its report is
    /// rendered at the end of the run.
    pub profile: bool,
    /// Watchdog sweep cadence in cycles (0 = off). Armed, it also sweeps
    /// at every commit and checks every squash.
    pub watchdog: u64,
    /// In-memory engine checkpoint (save, restore into a fresh engine,
    /// re-save) every this many cycles (0 = never).
    pub checkpoint_every: u64,
}

/// Everything that defines a cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellSpec {
    /// Task source.
    pub source: Source,
    /// Memory system.
    pub memory: Memory,
    /// Committed-instruction budget (0 = run the whole source).
    pub budget: u64,
    /// Workload and engine seed.
    pub seed: u64,
    /// Attached instruments.
    pub instruments: Instruments,
}

impl CellSpec {
    /// The same cell with no instruments.
    pub fn plain(&self) -> CellSpec {
        CellSpec {
            instruments: Instruments::default(),
            ..*self
        }
    }

    /// `source/memory/budget`, e.g. `gcc/SVC-4x8KB/400000`.
    pub fn name(&self) -> String {
        let src = match self.source {
            Source::Spec(name) => name.to_string(),
            Source::ConflictDensity { density, .. } => format!("conflict-density@{density}"),
            Source::ProducerConsumer { .. } => "producer-consumer".to_string(),
        };
        format!("{src}/{}/{}", self.memory.label(), self.budget)
    }
}

// ---------------------------------------------------------------------
// Timing decorators

/// A [`VersionedMemory`] that times every call into the wrapped system.
/// It forwards every method `SvcSystem` and `ArbSystem` override except
/// the planning calls of the multi-lane engine, which the sequential
/// engine never makes.
#[derive(Debug)]
pub struct Timed<M> {
    inner: M,
    probe: Probe,
}

impl<M> Timed<M> {
    /// Wraps `inner`.
    pub fn new(inner: M) -> Timed<M> {
        Timed {
            inner,
            probe: Probe::default(),
        }
    }
}

impl<M: VersionedMemory> VersionedMemory for Timed<M> {
    fn num_pus(&self) -> usize {
        self.inner.num_pus()
    }

    fn assign(&mut self, pu: PuId, task: TaskId) {
        self.probe
            .time(Site::Assign, || self.inner.assign(pu, task))
    }

    fn load(&mut self, pu: PuId, addr: Addr, now: Cycle) -> Result<LoadOutcome, AccessError> {
        self.probe
            .time(Site::Load, || self.inner.load(pu, addr, now))
    }

    fn store(
        &mut self,
        pu: PuId,
        addr: Addr,
        value: Word,
        now: Cycle,
    ) -> Result<StoreOutcome, AccessError> {
        self.probe
            .time(Site::Store, || self.inner.store(pu, addr, value, now))
    }

    fn commit(&mut self, pu: PuId, now: Cycle) -> Cycle {
        self.probe.time(Site::Commit, || self.inner.commit(pu, now))
    }

    fn squash(&mut self, pu: PuId) {
        self.probe.time(Site::Squash, || self.inner.squash(pu))
    }

    fn squash_at(&mut self, pu: PuId, now: Cycle) {
        self.probe
            .time(Site::Squash, || self.inner.squash_at(pu, now))
    }

    fn check_invariants(&self, now: Cycle) -> Vec<InvariantViolation> {
        self.probe
            .time(Site::Sweep, || self.inner.check_invariants(now))
    }

    fn check_post_squash(&self, pu: PuId, now: Cycle) -> Vec<InvariantViolation> {
        self.probe
            .time(Site::PostSquash, || self.inner.check_post_squash(pu, now))
    }

    fn profile_gauges(&self, now: Cycle) -> MemGauges {
        self.probe
            .time(Site::Gauges, || self.inner.profile_gauges(now))
    }

    fn drain(&mut self) {
        self.inner.drain()
    }

    fn architectural(&self, addr: Addr) -> Word {
        self.inner.architectural(addr)
    }

    fn stats(&self) -> MemStats {
        self.probe.time(Site::Other, || self.inner.stats())
    }

    fn reset_stats(&mut self) {
        self.probe.time(Site::Other, || self.inner.reset_stats())
    }
}

impl<M: Checkpointable> Checkpointable for Timed<M> {
    fn save_state(&self, w: &mut CkptWriter) {
        self.inner.save_state(w)
    }

    fn restore_state(&mut self, r: &mut CkptReader<'_>) -> Result<(), CkptError> {
        self.inner.restore_state(r)
    }
}

/// A [`TaskSource`] that times every `task` call into the wrapped source.
pub struct TimedSource<'a> {
    inner: &'a dyn TaskSource,
    probe: Probe,
}

impl<'a> TimedSource<'a> {
    /// Wraps `inner`.
    pub fn new(inner: &'a dyn TaskSource) -> TimedSource<'a> {
        TimedSource {
            inner,
            probe: Probe::default(),
        }
    }
}

impl TaskSource for TimedSource<'_> {
    fn task(&self, id: TaskId) -> Option<Vec<Instr>> {
        self.probe.time(Site::Task, || self.inner.task(id))
    }

    fn name(&self) -> &str {
        self.inner.name()
    }
}

// ---------------------------------------------------------------------
// Cells

/// Memory systems a cell can be built on, instruments attached to and
/// probes read from.
trait Build: VersionedMemory + Checkpointable + 'static {
    /// A fresh memory system for `spec`.
    fn build(spec: &CellSpec) -> Self;
    fn attach(&mut self, tracer: &Tracer, profiler: &Profiler);
    /// Per-site probe totals (decorated systems only).
    fn probes(&self) -> Option<[Stat; SITES]> {
        None
    }
}

impl Build for SvcSystem {
    fn build(spec: &CellSpec) -> SvcSystem {
        let Memory::Svc { pus, kb } = spec.memory else {
            unreachable!("SVC cell")
        };
        let mut cfg = SvcConfig::final_design(pus);
        cfg.geometry = SvcConfig::paper_geometry(kb);
        SvcSystem::new(cfg)
    }

    fn attach(&mut self, tracer: &Tracer, profiler: &Profiler) {
        self.set_tracer(tracer.clone());
        self.set_profiler(profiler.clone());
    }
}

impl Build for ArbSystem {
    fn build(spec: &CellSpec) -> ArbSystem {
        let Memory::Arb {
            pus,
            hit_cycles,
            kb,
        } = spec.memory
        else {
            unreachable!("ARB cell")
        };
        ArbSystem::new(ArbConfig::paper(pus, hit_cycles, kb))
    }

    fn attach(&mut self, tracer: &Tracer, profiler: &Profiler) {
        self.set_tracer(tracer.clone());
        self.set_profiler(profiler.clone());
    }
}

impl<M: Build> Build for Timed<M> {
    fn build(spec: &CellSpec) -> Timed<M> {
        Timed::new(M::build(spec))
    }

    fn attach(&mut self, tracer: &Tracer, profiler: &Profiler) {
        self.inner.attach(tracer, profiler)
    }

    fn probes(&self) -> Option<[Stat; SITES]> {
        Some(self.probe.totals())
    }
}

enum Tasks {
    Spec(Box<SyntheticWorkload>),
    Vec(VecTaskSource),
}

impl Tasks {
    fn as_dyn(&self) -> &dyn TaskSource {
        match self {
            Tasks::Spec(w) => w.as_ref(),
            Tasks::Vec(v) => v,
        }
    }
}

/// An engine over any [`Build`] memory system, behind one object-safe
/// face so a cell's memory type is chosen once, at [`setup`].
trait Machine {
    /// Runs to completion, checkpointing every `spec`'s cadence into a
    /// fresh engine built like this one. Returns the report and the host
    /// ns inside the engine's run loop.
    fn drive(
        &mut self,
        src: &dyn TaskSource,
        spec: &CellSpec,
        config: EngineConfig,
        hooks: &mut Hooks,
    ) -> (RunReport, u64);
    fn probes(&self) -> Option<[Stat; SITES]>;
    /// Drains the memory system and reads the architectural `addrs`.
    fn drained(self: Box<Self>, addrs: &BTreeSet<Addr>) -> Vec<Word>;
}

impl<M: Build> Machine for Engine<M> {
    fn drive(
        &mut self,
        src: &dyn TaskSource,
        spec: &CellSpec,
        config: EngineConfig,
        hooks: &mut Hooks,
    ) -> (RunReport, u64) {
        // A checkpoint restores into an engine built like this one; the
        // profiler's books are part of the saved state, the tracer's ring
        // is not.
        let rebuild = || {
            let (t, p) = (Tracer::disabled(), profiler_of(spec));
            attached(config, M::build(spec), &spec.instruments, &t, &p)
        };
        let every = spec.instruments.checkpoint_every;
        let mut engine_ns = 0;
        loop {
            let stop = (every > 0).then(|| self.cycle() + every);
            let start = Instant::now();
            let report = self.run_until(src, stop).then(|| self.finish());
            engine_ns += start.elapsed().as_nanos() as u64;
            if let Some(report) = report {
                hooks.violations = self.violations().len() as u64;
                return (report, engine_ns);
            }
            let start = Instant::now();
            let mut w = CkptWriter::new();
            self.save_state(&mut w);
            let bytes = w.into_bytes();
            hooks.ckpt_save_ns += start.elapsed().as_nanos() as u64;

            let start = Instant::now();
            let mut fresh = rebuild();
            let mut r = CkptReader::new(&bytes);
            let restored = fresh.restore_state(&mut r).and_then(|()| r.finish());
            hooks.ckpt_restore_ns += start.elapsed().as_nanos() as u64;

            let start = Instant::now();
            let mut w = CkptWriter::new();
            fresh.save_state(&mut w);
            let same = restored.is_ok() && w.into_bytes() == bytes;
            drop(fresh);
            hooks.ckpt_save_ns += start.elapsed().as_nanos() as u64;
            hooks.ckpt_saves += 1;
            hooks.ckpt_bytes += bytes.len() as u64;
            if !same {
                hooks.ckpt_mismatches += 1;
            }
        }
    }

    fn probes(&self) -> Option<[Stat; SITES]> {
        self.memory().probes()
    }

    fn drained(self: Box<Self>, addrs: &BTreeSet<Addr>) -> Vec<Word> {
        drained(&mut self.into_memory(), addrs)
    }
}

/// A cell built and ready to [`run`].
pub struct Prepared {
    spec: CellSpec,
    traced: bool,
    tasks: Tasks,
    machine: Box<dyn Machine>,
    config: EngineConfig,
    tracer: Tracer,
    profiler: Profiler,
}

fn spec95(name: &str) -> Spec95 {
    Spec95::ALL
        .into_iter()
        .find(|b| b.name() == name)
        .unwrap_or_else(|| panic!("unknown SPEC95 model {name:?}"))
}

/// The task source and engine configuration of `spec`, wired exactly as
/// the experiment binaries wire them.
fn build_source(spec: &CellSpec) -> (Tasks, EngineConfig) {
    let pus = spec.memory.pus();
    match spec.source {
        Source::Spec(name) => {
            let wl = spec95(name).workload(spec.seed);
            let config = EngineConfig {
                num_pus: pus,
                predictor: wl.profile().predictor(spec.seed),
                max_instructions: spec.budget,
                seed: spec.seed,
                garbage_addr_space: wl.profile().hot_set.max(64),
                load_dep_frac: wl.profile().load_dep_frac,
                max_cycles: if pus > 8 {
                    u64::MAX / 4
                } else {
                    EngineConfig::default().max_cycles
                },
                ..EngineConfig::default()
            };
            (Tasks::Spec(Box::new(wl)), config)
        }
        Source::ConflictDensity { tasks, density } => (
            Tasks::Vec(kernels::conflict_density(tasks, density, spec.seed)),
            kernel_config(spec),
        ),
        Source::ProducerConsumer { tasks, work } => (
            Tasks::Vec(kernels::producer_consumer(tasks, work)),
            kernel_config(spec),
        ),
    }
}

fn kernel_config(spec: &CellSpec) -> EngineConfig {
    EngineConfig {
        num_pus: spec.memory.pus(),
        max_instructions: spec.budget,
        seed: spec.seed,
        ..EngineConfig::default()
    }
}

fn attached<M: Build>(
    config: EngineConfig,
    mut mem: M,
    ins: &Instruments,
    tracer: &Tracer,
    profiler: &Profiler,
) -> Engine<M> {
    if *ins == Instruments::default() {
        return Engine::new(config, mem);
    }
    mem.attach(tracer, profiler);
    let mut engine = Engine::new(config, mem);
    engine.set_tracer(tracer.clone());
    engine.set_profiler(profiler.clone());
    engine.set_watchdog(ins.watchdog);
    engine
}

fn machine<M: Build>(
    spec: &CellSpec,
    config: EngineConfig,
    tracer: &Tracer,
    profiler: &Profiler,
) -> Box<dyn Machine> {
    Box::new(attached(
        config,
        M::build(spec),
        &spec.instruments,
        tracer,
        profiler,
    ))
}

fn profiler_of(spec: &CellSpec) -> Profiler {
    if spec.instruments.profile {
        Profiler::new(spec.memory.pus(), DEFAULT_EPOCH)
    } else {
        Profiler::disabled()
    }
}

/// Builds `spec`: generates (or prepares) its task source, constructs
/// its memory system and engine, and attaches its instruments. With
/// `traced`, the memory system and task source are wrapped in the
/// timing decorators.
pub fn setup(spec: &CellSpec, traced: bool) -> Prepared {
    let (tasks, config) = build_source(spec);
    let tracer = if spec.instruments.trace {
        Tracer::new(Category::ALL, DEFAULT_CAPACITY)
    } else {
        Tracer::disabled()
    };
    let profiler = profiler_of(spec);
    let (t, p) = (&tracer, &profiler);
    let machine = match (spec.memory.is_svc(), traced) {
        (true, false) => machine::<SvcSystem>(spec, config, t, p),
        (true, true) => machine::<Timed<SvcSystem>>(spec, config, t, p),
        (false, false) => machine::<ArbSystem>(spec, config, t, p),
        (false, true) => machine::<Timed<ArbSystem>>(spec, config, t, p),
    };
    Prepared {
        spec: *spec,
        traced,
        tasks,
        machine,
        config,
        tracer,
        profiler,
    }
}

/// Host time and counts of the instruments' own work in one cell.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Hooks {
    /// Trace records held in the ring at the end.
    pub trace_records: u64,
    /// Trace records the ring overwrote.
    pub trace_dropped: u64,
    /// Host ns to copy out and render the ring as JSONL.
    pub trace_render_ns: u64,
    /// Host ns to assemble and render the profile report.
    pub profile_report_ns: u64,
    /// Whether the profile conserves cycles (`None` without profiler).
    pub conservation_ok: Option<bool>,
    /// Checkpoints taken.
    pub ckpt_saves: u64,
    /// Host ns saving checkpoints (the save and the verifying re-save).
    pub ckpt_save_ns: u64,
    /// Host ns restoring checkpoints, including building the engine
    /// restored into.
    pub ckpt_restore_ns: u64,
    /// Bytes over all checkpoints taken.
    pub ckpt_bytes: u64,
    /// Checkpoints whose restore failed or whose re-save differed.
    pub ckpt_mismatches: u64,
    /// Watchdog invariant violations.
    pub violations: u64,
}

/// Simulated counts of one cell, from its run report.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Counts {
    /// Simulated cycles.
    pub cycles: u64,
    /// Committed instructions.
    pub committed_instrs: u64,
    /// Squashed instructions.
    pub wasted_instrs: u64,
    /// Squash events.
    pub squashes: u64,
    /// Whether the run stopped at the cycle safety limit.
    pub hit_cycle_limit: bool,
    /// Loads and stores issued.
    pub accesses: u64,
    /// Cycles the bus was busy.
    pub bus_busy_cycles: u64,
    /// Cache-to-cache transfers.
    pub transfers: u64,
    /// Snarfed lines.
    pub snarfs: u64,
    /// Writebacks.
    pub writebacks: u64,
    /// Bus transactions.
    pub bus_transactions: u64,
    /// Cycles requests waited for the bus.
    pub bus_wait_cycles: u64,
    /// Next-level fills (misses, in the paper's accounting).
    pub fills: u64,
    /// Misses combined in an MSHR.
    pub mshr_combines: u64,
    /// Cycles stalled on a full writeback buffer.
    pub wb_stall_cycles: u64,
}

/// A cell's run report: the simulator's own, plus [`Counts`] from it.
#[derive(Debug, Clone)]
pub struct Report {
    raw: RunReport,
    workload: String,
    memory: String,
    /// Counts taken from the report.
    pub counts: Counts,
}

impl Report {
    fn new(raw: RunReport, workload: &str, memory: String) -> Report {
        let m = &raw.mem;
        let counts = Counts {
            cycles: raw.cycles,
            committed_instrs: raw.committed_instrs,
            wasted_instrs: raw.wasted_instrs,
            squashes: raw.squashes,
            hit_cycle_limit: raw.hit_cycle_limit,
            accesses: m.accesses(),
            bus_busy_cycles: m.bus_busy_cycles,
            transfers: m.cache_transfers,
            snarfs: m.snarfs,
            writebacks: m.writebacks,
            bus_transactions: m.bus_transactions,
            bus_wait_cycles: m.bus_wait_cycles,
            fills: m.next_level_fills,
            mshr_combines: m.mshr_combines,
            wb_stall_cycles: m.wb_stall_cycles,
        };
        Report {
            raw,
            workload: workload.to_string(),
            memory,
            counts,
        }
    }

    /// Whether two reports are identical in every field.
    pub fn same(&self, other: &Report) -> bool {
        self.raw == other.raw && self.workload == other.workload && self.memory == other.memory
    }

    /// Whether two reports agree on everything simulated: every field
    /// but the fast-forward counters, which record how the engine
    /// stepped its clock over idle cycles. An armed watchdog or profiler
    /// puts boundaries in the way of those jumps, by design.
    pub fn same_simulation(&self, other: &Report) -> bool {
        let strip = |r: &RunReport| RunReport {
            ff_jumps: 0,
            ff_skipped_cycles: 0,
            ..r.clone()
        };
        strip(&self.raw) == strip(&other.raw)
            && self.workload == other.workload
            && self.memory == other.memory
    }

    /// The workload name as the reports print it.
    pub fn workload(&self) -> &str {
        &self.workload
    }

    /// The memory label as the reports print it.
    pub fn memory(&self) -> &str {
        &self.memory
    }

    /// This report as one run object of `results/<name>.json`, rendered.
    pub fn rendered(&self, seed: u64) -> String {
        let result = ExperimentResult {
            workload: self.workload.clone(),
            memory: self.memory.clone(),
            ipc: self.raw.ipc(),
            miss_ratio: self.raw.mem.miss_ratio(),
            bus_utilization: self.raw.bus_utilization(),
            report: self.raw.clone(),
            profile: None,
        };
        experiment_result_json(&result, seed).render()
    }
}

/// What [`run`] returns.
pub struct Outcome {
    /// The run report.
    pub report: Report,
    /// Host ns inside the engine's run loop, checkpoint work excluded.
    pub engine_ns: u64,
    /// Instrument work and results.
    pub hooks: Hooks,
    /// Per-site probe totals (traced cells only).
    pub probes: Option<[Stat; SITES]>,
    spec: CellSpec,
    config: EngineConfig,
    tasks: Tasks,
    machine: Box<dyn Machine>,
}

/// Runs a prepared cell to its budget, then renders its trace and
/// profile when those instruments are attached.
pub fn run(cell: Prepared) -> Outcome {
    let Prepared {
        spec,
        traced,
        tasks,
        mut machine,
        config,
        tracer,
        profiler,
    } = cell;
    let mut hooks = Hooks::default();
    let timed_source = TimedSource::new(tasks.as_dyn());
    let src: &dyn TaskSource = if traced {
        &timed_source
    } else {
        tasks.as_dyn()
    };
    let (raw, engine_ns) = machine.drive(src, &spec, config, &mut hooks);
    if spec.instruments.trace {
        let start = Instant::now();
        let records = tracer.records();
        hooks.trace_records = records.len() as u64;
        hooks.trace_dropped = tracer.dropped();
        std::hint::black_box(render_jsonl(&records).len());
        drop(records);
        hooks.trace_render_ns = start.elapsed().as_nanos() as u64;
    }
    if spec.instruments.profile {
        let start = Instant::now();
        let report = profiler.report();
        hooks.conservation_ok = Some(report.as_ref().is_some_and(|p| p.conservation_ok()));
        std::hint::black_box(report.map(|p| profile_report_json(&p).render().len()));
        hooks.profile_report_ns = start.elapsed().as_nanos() as u64;
    }
    let probes = machine.probes().map(|mem| merge(mem, &timed_source.probe));
    let report = Report::new(raw, tasks.as_dyn().name(), spec.memory.label());
    Outcome {
        report,
        engine_ns,
        hooks,
        probes,
        spec,
        config,
        tasks,
        machine,
    }
}

fn merge(mut mem: [Stat; SITES], source: &Probe) -> [Stat; SITES] {
    mem[Site::Task as usize].add(source.totals()[Site::Task as usize]);
    mem
}

// ---------------------------------------------------------------------
// Correctness checks

/// Every word address the source's tasks load or store.
fn touched(source: &dyn TaskSource) -> BTreeSet<Addr> {
    let mut addrs = BTreeSet::new();
    let mut id = 0;
    while let Some(task) = source.task(TaskId(id)) {
        for ins in task {
            match ins {
                Instr::Load(a) | Instr::Store(a, _) => {
                    addrs.insert(a);
                }
                _ => {}
            }
        }
        id += 1;
    }
    addrs
}

fn drained<M: VersionedMemory>(mem: &mut M, addrs: &BTreeSet<Addr>) -> Vec<Word> {
    mem.drain();
    addrs.iter().map(|&a| mem.architectural(a)).collect()
}

/// The result of comparing a cell's drained memory with an oracle's.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArchCheck {
    /// Addresses compared.
    pub addresses: usize,
    /// Addresses whose architectural values differ.
    pub mismatches: usize,
}

/// Where the expected architectural values come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Oracle {
    /// Program-order replay of the source: each address holds the value
    /// of its last store in task order. After a run of the whole source
    /// this is exactly what `svc::IdealMemory` holds, computed in linear
    /// time (the ideal memory scans every address it has seen at each
    /// commit, which takes minutes on a 40k-task kernel).
    Replay,
    /// A run of the same source and engine configuration on
    /// `svc::IdealMemory`.
    Ideal,
}

/// Drains the cell's memory system and compares the architectural value
/// of every address its source touches with `oracle`'s. Only meaningful
/// for cells that run their whole source (budget 0).
pub fn compare_drained(outcome: Outcome, oracle: Oracle) -> ArchCheck {
    let Outcome {
        spec,
        config,
        tasks,
        machine,
        ..
    } = outcome;
    let source = tasks.as_dyn();
    let addrs = touched(source);
    let got = machine.drained(&addrs);
    let want = match oracle {
        Oracle::Replay => replayed(source, &addrs),
        Oracle::Ideal => {
            let mut ideal = Engine::new(config, IdealMemory::new(spec.memory.pus(), 1));
            ideal.run(source);
            drained(&mut ideal.into_memory(), &addrs)
        }
    };
    ArchCheck {
        addresses: addrs.len(),
        mismatches: got.iter().zip(&want).filter(|(g, w)| g != w).count(),
    }
}

/// The last value stored to each of `addrs` in program order (zero if
/// never stored).
fn replayed(source: &dyn TaskSource, addrs: &BTreeSet<Addr>) -> Vec<Word> {
    let mut memory = HashMap::new();
    let mut id = 0;
    while let Some(task) = source.task(TaskId(id)) {
        for ins in task {
            if let Instr::Store(a, v) = ins {
                memory.insert(a, v);
            }
        }
        id += 1;
    }
    addrs
        .iter()
        .map(|a| memory.get(a).copied().unwrap_or(Word::ZERO))
        .collect()
}

/// The run objects of a committed `results/<name>.json`, keyed by
/// workload and memory label, each rendered.
#[derive(Debug, Clone)]
pub struct Reference {
    runs: Vec<(String, String, String)>,
}

impl Reference {
    /// Reads and parses `path`.
    pub fn load(path: &Path) -> Result<Reference, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Reference::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    }

    /// Parses the text of a results document.
    pub fn parse(text: &str) -> Result<Reference, String> {
        let doc = parse(text)?;
        let runs = doc
            .get("runs")
            .and_then(|r| r.as_arr())
            .ok_or("no runs array")?;
        let mut out = Vec::new();
        for run in runs {
            let field = |k: &str| run.get(k).and_then(|v| v.as_str()).map(str::to_string);
            let (Some(w), Some(m)) = (field("workload"), field("memory")) else {
                return Err("run without workload/memory".into());
            };
            out.push((w, m, run.render()));
        }
        Ok(Reference { runs: out })
    }

    /// Checks `report` (run at `seed`) against the reference run of the
    /// same workload and memory.
    pub fn check(&self, report: &Report, seed: u64) -> Result<(), String> {
        let want = self
            .runs
            .iter()
            .find(|(w, m, _)| w == report.workload() && m == report.memory())
            .map(|(_, _, r)| r)
            .ok_or_else(|| {
                format!(
                    "no reference run for {}/{}",
                    report.workload(),
                    report.memory()
                )
            })?;
        if *want == report.rendered(seed) {
            Ok(())
        } else {
            Err(format!(
                "{}/{} differs from its reference",
                report.workload(),
                report.memory()
            ))
        }
    }
}

/// One array of `BENCHMARK.json`: its key and the `(name, unit)` of each
/// object in it (`unit` is `None` where an object has none).
pub type ManifestArray = (String, Vec<(String, Option<String>)>);

/// The top-level arrays of a JSON document laid out like
/// `BENCHMARK.json`.
pub fn manifest_entries(text: &str) -> Result<Vec<ManifestArray>, String> {
    let doc = parse(text)?;
    let fields = doc.as_obj().ok_or("not a JSON object")?;
    let str_of = |v: &svc_bench::report::Json, k: &str| {
        v.get(k).and_then(|x| x.as_str()).map(str::to_string)
    };
    Ok(fields
        .iter()
        .filter_map(|(key, value)| {
            let entries = value
                .as_arr()?
                .iter()
                .map(|e| (str_of(e, "name").unwrap_or_default(), str_of(e, "unit")))
                .collect();
            Some((key.clone(), entries))
        })
        .collect())
}
