//! The ARB proper: rows of per-stage load/store bits and values, an
//! architectural stage, and the shared backing cache.

use std::collections::HashMap;

use smallvec::SmallVec;
use svc_mem::{CacheGeometry, MainMemory};
use svc_sim::profile::{AccessProfile, Profiler};
use svc_sim::trace::{AccessOp, Category, TraceEvent, Tracer};
use svc_types::{
    AccessError, Addr, Cycle, DataSource, InvariantKind, InvariantViolation, LoadOutcome,
    MemGauges, MemStats, ModelCheckable, Mutation, PuId, StateHasher, StoreOutcome,
    TaskAssignments, TaskId, VersionedMemory, Violation, Word,
};

/// Configuration of an [`ArbSystem`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArbConfig {
    /// Number of processing units (= speculative stages).
    pub num_pus: usize,
    /// Fully-associative row capacity (the paper uses 256).
    pub rows: usize,
    /// Latency of every ARB/data-cache access, in cycles — the cost of
    /// crossing the interconnect to the shared structure. The paper
    /// evaluates 1 to 4.
    pub hit_cycles: u64,
    /// Additional penalty when the backing cache misses to the next level
    /// (the paper uses 10).
    pub memory_cycles: u64,
    /// Geometry of the shared backing data cache.
    pub cache_geometry: CacheGeometry,
}

impl ArbConfig {
    /// The paper's configuration: 256 rows, a direct-mapped backing cache
    /// of `cache_kb` KB in 16-byte lines, `hit_cycles` access latency and
    /// a 10-cycle next-level penalty.
    ///
    /// # Panics
    ///
    /// Panics if `cache_kb` does not give a power-of-two number of lines.
    pub fn paper(num_pus: usize, hit_cycles: u64, cache_kb: usize) -> ArbConfig {
        let lines = cache_kb * 1024 / 16;
        ArbConfig {
            num_pus,
            rows: 256,
            hit_cycles,
            memory_cycles: 10,
            cache_geometry: CacheGeometry::new(lines, 1, 4, 4),
        }
    }
}

#[derive(Debug, Clone, Copy, Default)]
struct Stage {
    loaded: bool,
    stored: bool,
    value: Word,
}

#[derive(Debug, Clone)]
struct Row {
    addr: Addr,
    stages: Vec<Stage>,
    arch: Option<Word>,
}

impl Row {
    fn new(addr: Addr, num_pus: usize) -> Row {
        Row {
            addr,
            stages: vec![Stage::default(); num_pus],
            arch: None,
        }
    }

    fn is_speculative(&self) -> bool {
        self.stages.iter().any(|s| s.loaded || s.stored)
    }
}

/// The Address Resolution Buffer memory system. See the crate docs.
#[derive(Debug, Clone)]
pub struct ArbSystem {
    config: ArbConfig,
    rows: Vec<Row>,
    index: HashMap<Addr, usize>,
    free: Vec<usize>,
    assignments: TaskAssignments,
    cache: crate::SharedCache,
    memory: MainMemory,
    stats: MemStats,
    tracer: Tracer,
    profiler: Profiler,
}

impl ArbSystem {
    /// Builds an ARB from a configuration.
    ///
    /// # Panics
    ///
    /// Panics if `num_pus` or `rows` is zero.
    pub fn new(config: ArbConfig) -> ArbSystem {
        assert!(config.num_pus > 0 && config.rows > 0);
        ArbSystem {
            rows: Vec::with_capacity(config.rows),
            index: HashMap::new(),
            free: Vec::new(),
            assignments: TaskAssignments::new(config.num_pus),
            cache: crate::SharedCache::new(config.cache_geometry),
            memory: MainMemory::new(),
            stats: MemStats::default(),
            tracer: Tracer::disabled(),
            profiler: Profiler::disabled(),
            config,
        }
    }

    /// Attaches a cycle-accounting profiler handle. The ARB has no
    /// snooping bus, so only next-level fill penalties are reported; the
    /// shared-structure access latency profiles as generic memory time.
    pub fn set_profiler(&mut self, profiler: Profiler) {
        self.profiler = profiler;
    }

    /// The configuration this system was built with.
    pub fn config(&self) -> &ArbConfig {
        &self.config
    }

    /// Attaches `tracer` to this system. Loads and stores appear as
    /// `access`-category events; detected dependence violations as
    /// `task`-category [`TraceEvent::Violation`] events.
    pub fn set_tracer(&mut self, tracer: Tracer) {
        self.tracer = tracer;
    }

    /// Number of rows currently tracking speculative state (for tests).
    pub fn speculative_rows(&self) -> usize {
        self.rows.iter().filter(|r| r.is_speculative()).count()
    }

    fn task_of(&self, pu: PuId) -> Result<TaskId, AccessError> {
        self.assignments.task_of(pu).ok_or(AccessError::NoTask(pu))
    }

    /// Finds or allocates the row for `addr`.
    ///
    /// # Errors
    ///
    /// `Structural` if every row holds speculative state (the requesting
    /// PU must stall and retry, as in the original ARB).
    fn row_for(&mut self, addr: Addr) -> Result<usize, AccessError> {
        if let Some(&i) = self.index.get(&addr) {
            return Ok(i);
        }
        let i = if let Some(i) = self.free.pop() {
            i
        } else if self.rows.len() < self.config.rows {
            self.rows.push(Row::new(addr, self.config.num_pus));
            self.index.insert(addr, self.rows.len() - 1);
            return Ok(self.rows.len() - 1);
        } else {
            // Reclaim a non-speculative row, flushing its architectural
            // version to the data cache.
            let Some(i) = self.rows.iter().position(|r| !r.is_speculative()) else {
                self.stats.replacement_stalls += 1;
                return Err(AccessError::Structural("all ARB rows are speculative"));
            };
            let old = &mut self.rows[i];
            if let Some(v) = old.arch.take() {
                let addr = old.addr;
                self.cache.write(addr, v, &mut self.memory);
                self.stats.writebacks += 1;
            }
            self.index.remove(&self.rows[i].addr);
            i
        };
        self.rows[i] = Row::new(addr, self.config.num_pus);
        self.index.insert(addr, i);
        Ok(i)
    }

    /// Deliberately corrupts the ARB row tracking `addr`: its recorded
    /// address is flipped so the index no longer agrees with the row.
    /// Returns `false` if no row tracks `addr`. **Watchdog drill only.**
    #[doc(hidden)]
    pub fn fault_corrupt_row(&mut self, addr: Addr) -> bool {
        let Some(&i) = self.index.get(&addr) else {
            return false;
        };
        self.rows[i].addr = Addr(addr.0 ^ 1);
        true
    }

    /// PUs ordered oldest-task-first, as `(stage index, task)`.
    fn stage_order(&self) -> SmallVec<(usize, TaskId), 8> {
        self.assignments
            .program_order()
            .into_iter()
            .map(|pu| (pu.index(), self.assignments.task_of(pu).expect("ordered")))
            .collect()
    }
}

impl VersionedMemory for ArbSystem {
    fn num_pus(&self) -> usize {
        self.config.num_pus
    }

    fn assign(&mut self, pu: PuId, task: TaskId) {
        self.assignments.assign(pu, task);
    }

    fn load(&mut self, pu: PuId, addr: Addr, now: Cycle) -> Result<LoadOutcome, AccessError> {
        let task = self.task_of(pu)?;
        let row_idx = self.row_for(addr)?;
        self.stats.loads += 1;
        let order = self.stage_order();
        let row = &mut self.rows[row_idx];

        // Own version first (a load after the task's own store).
        if row.stages[pu.index()].stored {
            self.stats.local_hits += 1;
            let done = now + self.config.hit_cycles;
            self.tracer
                .emit(now, Category::Access, || TraceEvent::Access {
                    pu,
                    task,
                    op: AccessOp::Load,
                    addr,
                    source: "local",
                    done_at: done,
                });
            return Ok(LoadOutcome {
                value: row.stages[pu.index()].value,
                done_at: done,
                source: DataSource::LocalHit,
            });
        }
        // The disambiguation search: closest previous stage with a store
        // (the ARB's backward stage walk).
        let mut bypass: Option<Word> = None;
        for &(stage, t) in order.iter().rev() {
            if t.is_older_than(task) && row.stages[stage].stored {
                bypass = Some(row.stages[stage].value);
                break;
            }
        }
        row.stages[pu.index()].loaded = true;
        let (value, done, source) = match bypass.or(row.arch) {
            Some(v) => {
                self.stats.local_hits += 1;
                (v, now + self.config.hit_cycles, DataSource::LocalHit)
            }
            None => {
                // Fall through to the shared data cache.
                let access = self.cache.read(addr, &mut self.memory);
                if access.missed {
                    self.stats.next_level_fills += 1;
                    if self.profiler.is_active() {
                        self.profiler.note_access(
                            pu,
                            AccessProfile {
                                mem_latency: self.config.memory_cycles,
                                ..AccessProfile::default()
                            },
                        );
                    }
                    (
                        access.value,
                        now + self.config.hit_cycles + self.config.memory_cycles,
                        DataSource::NextLevel,
                    )
                } else {
                    self.stats.local_hits += 1;
                    (
                        access.value,
                        now + self.config.hit_cycles,
                        DataSource::LocalHit,
                    )
                }
            }
        };
        let source_name = match source {
            DataSource::LocalHit => "local",
            DataSource::Transfer => "transfer",
            DataSource::NextLevel => "next-level",
        };
        self.tracer
            .emit(now, Category::Access, || TraceEvent::Access {
                pu,
                task,
                op: AccessOp::Load,
                addr,
                source: source_name,
                done_at: done,
            });
        Ok(LoadOutcome {
            value,
            done_at: done,
            source,
        })
    }

    fn store(
        &mut self,
        pu: PuId,
        addr: Addr,
        value: Word,
        now: Cycle,
    ) -> Result<StoreOutcome, AccessError> {
        let task = self.task_of(pu)?;
        let row_idx = self.row_for(addr)?;
        self.stats.stores += 1;
        self.stats.local_hits += 1;
        let order = self.stage_order();
        let row = &mut self.rows[row_idx];
        row.stages[pu.index()].stored = true;
        row.stages[pu.index()].value = value;

        // Forward walk: the oldest younger stage with an exposed load, not
        // shadowed by an intervening store, is violated.
        let mut victim: Option<TaskId> = None;
        for &(stage, t) in order.iter() {
            if !task.is_older_than(t) {
                continue;
            }
            if row.stages[stage].loaded {
                victim = Some(t);
                break;
            }
            if row.stages[stage].stored && !Mutation::ArbIgnoresShadow.enabled() {
                break; // the next version shadows everything younger
            }
        }
        let done = now + self.config.hit_cycles;
        self.tracer
            .emit(now, Category::Access, || TraceEvent::Access {
                pu,
                task,
                op: AccessOp::Store,
                addr,
                source: "accepted",
                done_at: done,
            });
        if let Some(victim) = victim {
            self.stats.violations += 1;
            self.tracer
                .emit(now, Category::Task, || TraceEvent::Violation {
                    pu,
                    task,
                    victim,
                    addr,
                });
        }
        Ok(StoreOutcome {
            done_at: done,
            violation: victim.map(|victim| Violation { victim, addr }),
        })
    }

    fn commit(&mut self, pu: PuId, now: Cycle) -> Cycle {
        // Copy the stage's stores into the architectural stage. The extra
        // stage plus the assumed high-bandwidth commit path make this a
        // single ARB operation (paper §4.4).
        for row in &mut self.rows {
            let stage = &mut row.stages[pu.index()];
            if stage.stored {
                row.arch = Some(stage.value);
            }
            *stage = Stage::default();
        }
        self.assignments.release(pu);
        now + self.config.hit_cycles
    }

    fn squash(&mut self, pu: PuId) {
        for row in &mut self.rows {
            let stage = &mut row.stages[pu.index()];
            if stage.loaded || stage.stored {
                self.stats.squash_invalidations += 1;
            }
            *stage = Stage::default();
        }
        self.assignments.release(pu);
    }

    fn profile_gauges(&self, _now: Cycle) -> MemGauges {
        MemGauges {
            outstanding_misses: 0,
            live_versions: self.speculative_rows() as u64,
        }
    }

    fn check_invariants(&self, now: Cycle) -> Vec<InvariantViolation> {
        let mut out = Vec::new();
        // The address index and the row table must agree exactly: every
        // row is either indexed under its own address or free.
        let mut accounted = vec![false; self.rows.len()];
        for (&addr, &i) in &self.index {
            match self.rows.get(i) {
                Some(row) if row.addr == addr => accounted[i] = true,
                _ => out.push(InvariantViolation {
                    kind: InvariantKind::Structure,
                    pu: None,
                    line: None,
                    cycle: now,
                    detail: format!("index maps {addr} to row {i}, which does not track it"),
                }),
            }
        }
        for &i in &self.free {
            if let Some(a) = accounted.get_mut(i) {
                *a = true;
            }
        }
        // A stage with load/store bits must belong to a running task, so
        // only the stages of task-less PUs can be orphaned.
        let idle: Vec<usize> = (0..self.assignments.num_pus())
            .filter(|&p| self.assignments.task_of(PuId(p)).is_none())
            .collect();
        for (i, row) in self.rows.iter().enumerate() {
            if !accounted[i] {
                out.push(InvariantViolation {
                    kind: InvariantKind::Structure,
                    pu: None,
                    line: None,
                    cycle: now,
                    detail: format!("row {i} tracking {} is not indexed", row.addr),
                });
            }
            for &p in &idle {
                if row.stages.get(p).is_some_and(|s| s.loaded || s.stored) {
                    out.push(InvariantViolation {
                        kind: InvariantKind::Orphan,
                        pu: Some(PuId(p)),
                        line: None,
                        cycle: now,
                        detail: format!(
                            "stage bits for {} in the row tracking {} but no task assigned",
                            PuId(p),
                            row.addr
                        ),
                    });
                }
            }
        }
        // Free entries must be in range and must not be indexed.
        for &i in &self.free {
            if i >= self.rows.len() {
                out.push(InvariantViolation {
                    kind: InvariantKind::Structure,
                    pu: None,
                    line: None,
                    cycle: now,
                    detail: format!("free-list entry {i} is out of range"),
                });
            }
        }
        out
    }

    fn check_post_squash(&self, pu: PuId, now: Cycle) -> Vec<InvariantViolation> {
        self.rows
            .iter()
            .filter(|row| row.stages[pu.index()].loaded || row.stages[pu.index()].stored)
            .map(|row| InvariantViolation {
                kind: InvariantKind::SquashResidue,
                pu: Some(pu),
                line: None,
                cycle: now,
                detail: format!("stage bits for {} survived the squash", row.addr),
            })
            .collect()
    }

    fn drain(&mut self) {
        for row in &mut self.rows {
            if let Some(v) = row.arch.take() {
                self.cache.write(row.addr, v, &mut self.memory);
                self.stats.writebacks += 1;
            }
        }
        self.cache.flush_all(&mut self.memory);
    }

    fn architectural(&self, addr: Addr) -> Word {
        if let Some(&i) = self.index.get(&addr) {
            if let Some(v) = self.rows[i].arch {
                return v;
            }
        }
        self.cache.peek(addr, &self.memory)
    }

    fn stats(&self) -> MemStats {
        self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = MemStats::default();
    }
}

impl ModelCheckable for ArbSystem {
    fn fingerprint(&self, addrs: &[Addr], h: &mut StateHasher) {
        for pu in 0..self.config.num_pus {
            h.write_opt_u64(self.assignments.task_of(PuId(pu)).map(|t| t.0));
        }
        for &addr in addrs {
            match self.index.get(&addr) {
                None => h.write_u8(0),
                Some(&i) => {
                    h.write_u8(1);
                    let row = &self.rows[i];
                    for s in &row.stages {
                        h.write_bool(s.loaded);
                        h.write_bool(s.stored);
                        h.write_u64(s.value.0);
                    }
                    h.write_opt_u64(row.arch.map(|v| v.0));
                }
            }
            // The committed image under the row: backing cache + memory.
            h.write_u64(self.cache.peek(addr, &self.memory).0);
        }
    }
}

impl svc_types::Checkpointable for Stage {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        self.loaded.save_state(w);
        self.stored.save_state(w);
        self.value.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        self.loaded.restore_state(r)?;
        self.stored.restore_state(r)?;
        self.value.restore_state(r)
    }
}

/// Checkpoints the complete mutable ARB state: every row's stage bits,
/// values and architectural version, the address index and free list,
/// task assignments, the shared backing cache (including LRU stamps) and
/// main memory, plus accumulated stats. Configuration is not stored;
/// restore targets a freshly built system with the same [`ArbConfig`].
impl svc_types::Checkpointable for ArbSystem {
    fn save_state(&self, w: &mut svc_types::CkptWriter) {
        w.put_usize(self.rows.len());
        for row in &self.rows {
            row.addr.save_state(w);
            row.stages.save_state(w);
            row.arch.save_state(w);
        }
        self.index.save_state(w);
        self.free.save_state(w);
        self.assignments.save_state(w);
        self.cache.save_state(w);
        self.memory.save_state(w);
        self.stats.save_state(w);
    }
    fn restore_state(
        &mut self,
        r: &mut svc_types::CkptReader<'_>,
    ) -> Result<(), svc_types::CkptError> {
        let n = r.take_usize()?;
        if n > self.config.rows {
            return Err(svc_types::CkptError::corrupt(format!(
                "{n} ARB rows exceed the configured capacity {}",
                self.config.rows
            )));
        }
        self.rows.clear();
        for _ in 0..n {
            let mut row = Row::new(Addr(0), self.config.num_pus);
            row.addr.restore_state(r)?;
            row.stages.restore_state(r)?;
            row.arch.restore_state(r)?;
            if row.stages.len() != self.config.num_pus {
                return Err(svc_types::CkptError::corrupt(format!(
                    "ARB row with {} stages, system has {} PUs",
                    row.stages.len(),
                    self.config.num_pus
                )));
            }
            self.rows.push(row);
        }
        self.index.restore_state(r)?;
        self.free.restore_state(r)?;
        for (&addr, &i) in &self.index {
            if i >= self.rows.len() || self.rows[i].addr != addr {
                return Err(svc_types::CkptError::corrupt(
                    "ARB index disagrees with the restored rows",
                ));
            }
        }
        if self.free.iter().any(|&i| i >= self.rows.len()) {
            return Err(svc_types::CkptError::corrupt(
                "ARB free-list entry out of range",
            ));
        }
        self.assignments.restore_state(r)?;
        self.cache.restore_state(r)?;
        self.memory.restore_state(r)?;
        self.stats.restore_state(r)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn arb() -> ArbSystem {
        let mut a = ArbSystem::new(ArbConfig::paper(4, 1, 32));
        for i in 0..4 {
            a.assign(PuId(i), TaskId(i as u64));
        }
        a
    }

    #[test]
    fn bypass_from_closest_previous_stage() {
        let mut a = arb();
        a.store(PuId(0), Addr(4), Word(10), Cycle(0)).unwrap();
        a.store(PuId(2), Addr(4), Word(30), Cycle(0)).unwrap();
        assert_eq!(a.load(PuId(1), Addr(4), Cycle(1)).unwrap().value, Word(10));
        assert_eq!(a.load(PuId(3), Addr(4), Cycle(1)).unwrap().value, Word(30));
    }

    #[test]
    fn violation_detection_matches_walk_semantics() {
        let mut a = arb();
        a.load(PuId(2), Addr(4), Cycle(0)).unwrap();
        let st = a.store(PuId(0), Addr(4), Word(1), Cycle(1)).unwrap();
        assert_eq!(st.violation.unwrap().victim, TaskId(2));
        // A version in between shadows the load.
        let mut a = arb();
        a.store(PuId(1), Addr(4), Word(1), Cycle(0)).unwrap();
        a.load(PuId(2), Addr(4), Cycle(1)).unwrap();
        let st = a.store(PuId(0), Addr(4), Word(2), Cycle(2)).unwrap();
        assert!(st.violation.is_none());
    }

    #[test]
    fn own_store_then_load_is_not_exposed() {
        let mut a = arb();
        a.store(PuId(2), Addr(4), Word(9), Cycle(0)).unwrap();
        assert_eq!(a.load(PuId(2), Addr(4), Cycle(1)).unwrap().value, Word(9));
        let st = a.store(PuId(0), Addr(4), Word(1), Cycle(2)).unwrap();
        assert!(st.violation.is_none());
    }

    #[test]
    fn commit_moves_version_to_arch_stage_and_drain_to_memory() {
        let mut a = arb();
        a.store(PuId(0), Addr(4), Word(5), Cycle(0)).unwrap();
        a.commit(PuId(0), Cycle(1));
        assert_eq!(a.architectural(Addr(4)), Word(5));
        // A later task's load reads the arch stage.
        let out = a.load(PuId(1), Addr(4), Cycle(2)).unwrap();
        assert_eq!(out.value, Word(5));
        assert_eq!(out.source, DataSource::LocalHit);
        a.drain();
        assert_eq!(a.architectural(Addr(4)), Word(5));
        assert_eq!(a.memory.peek(Addr(4)), Word(5));
    }

    #[test]
    fn squash_clears_stage() {
        let mut a = arb();
        a.store(PuId(2), Addr(4), Word(9), Cycle(0)).unwrap();
        a.load(PuId(3), Addr(8), Cycle(0)).unwrap();
        a.squash(PuId(2));
        a.squash(PuId(3));
        a.assign(PuId(2), TaskId(2));
        a.assign(PuId(3), TaskId(3));
        assert_eq!(
            a.load(PuId(2), Addr(4), Cycle(1)).unwrap().value,
            Word::ZERO
        );
        let st = a.store(PuId(0), Addr(8), Word(1), Cycle(2)).unwrap();
        assert!(st.violation.is_none());
        assert_eq!(a.stats().squash_invalidations, 2);
    }

    #[test]
    fn hit_latency_is_charged_on_every_access() {
        let mut a = ArbSystem::new(ArbConfig::paper(4, 3, 32));
        a.assign(PuId(0), TaskId(0));
        a.store(PuId(0), Addr(4), Word(1), Cycle(0)).unwrap();
        let out = a.load(PuId(0), Addr(4), Cycle(10)).unwrap();
        assert_eq!(out.done_at, Cycle(13), "3-cycle shared-structure latency");
    }

    #[test]
    fn cache_miss_adds_memory_penalty() {
        let mut a = ArbSystem::new(ArbConfig::paper(4, 1, 32));
        a.assign(PuId(0), TaskId(0));
        let out = a.load(PuId(0), Addr(4), Cycle(0)).unwrap();
        assert_eq!(out.source, DataSource::NextLevel);
        assert_eq!(out.done_at, Cycle(11));
        assert_eq!(a.stats().next_level_fills, 1);
        // Same line now hits in the shared cache for any PU.
        a.assign(PuId(1), TaskId(1));
        let out = a.load(PuId(1), Addr(5), Cycle(20)).unwrap();
        assert_eq!(out.source, DataSource::LocalHit);
    }

    #[test]
    fn rows_exhaust_into_structural_stall() {
        let mut cfg = ArbConfig::paper(2, 1, 32);
        cfg.rows = 2;
        let mut a = ArbSystem::new(cfg);
        a.assign(PuId(0), TaskId(0));
        a.assign(PuId(1), TaskId(1));
        a.store(PuId(1), Addr(0), Word(1), Cycle(0)).unwrap();
        a.store(PuId(1), Addr(4), Word(2), Cycle(0)).unwrap();
        let err = a.store(PuId(1), Addr(8), Word(3), Cycle(0)).unwrap_err();
        assert!(matches!(err, AccessError::Structural(_)));
        // Committing task 0 does not help (rows belong to task 1), but
        // committing task 1 frees them.
        a.commit(PuId(1), Cycle(1));
        a.assign(PuId(1), TaskId(2));
        a.store(PuId(1), Addr(8), Word(3), Cycle(2)).unwrap();
    }

    #[test]
    fn watchdog_clean_then_catches_corruption() {
        let mut a = arb();
        a.store(PuId(0), Addr(4), Word(5), Cycle(0)).unwrap();
        a.load(PuId(1), Addr(4), Cycle(1)).unwrap();
        assert_eq!(a.check_invariants(Cycle(2)), Vec::new());
        a.squash(PuId(1));
        assert_eq!(a.check_post_squash(PuId(1), Cycle(3)), Vec::new());
        assert_eq!(a.check_invariants(Cycle(3)), Vec::new());
        assert!(a.fault_corrupt_row(Addr(4)));
        let found = a.check_invariants(Cycle(4));
        assert!(
            found.iter().any(|v| v.kind == InvariantKind::Structure),
            "got {found:?}"
        );
    }

    #[test]
    fn watchdog_reports_every_corruption_in_row_order() {
        let mut a = arb();
        a.store(PuId(0), Addr(4), Word(5), Cycle(0)).unwrap();
        a.load(PuId(1), Addr(8), Cycle(1)).unwrap();
        a.commit(PuId(0), Cycle(2));
        // Stage bits on the now task-less PU 0, then an unindexed row.
        a.rows[1].stages[0].loaded = true;
        assert!(a.fault_corrupt_row(Addr(8)));
        let found: Vec<(InvariantKind, Option<PuId>, String)> = a
            .check_invariants(Cycle(3))
            .into_iter()
            .map(|v| (v.kind, v.pu, v.detail))
            .collect();
        let row1 = |detail: &str| (InvariantKind::Structure, None, detail.to_string());
        assert_eq!(
            found,
            [
                row1("index maps 0x8 to row 1, which does not track it"),
                row1("row 1 tracking 0x9 is not indexed"),
                (
                    InvariantKind::Orphan,
                    Some(PuId(0)),
                    "stage bits for PU0 in the row tracking 0x9 but no task assigned".to_string()
                ),
            ]
        );
    }

    #[test]
    fn row_reclaim_flushes_arch_value() {
        let mut cfg = ArbConfig::paper(2, 1, 32);
        cfg.rows = 1;
        let mut a = ArbSystem::new(cfg);
        a.assign(PuId(0), TaskId(0));
        a.store(PuId(0), Addr(0), Word(7), Cycle(0)).unwrap();
        a.commit(PuId(0), Cycle(1));
        a.assign(PuId(0), TaskId(1));
        // New address forces reclaiming the (non-speculative) row.
        a.store(PuId(0), Addr(4), Word(8), Cycle(2)).unwrap();
        assert_eq!(a.architectural(Addr(0)), Word(7), "flushed to the cache");
    }
}
