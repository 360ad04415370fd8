//! Micro-benchmarks for the simulator's per-transaction hot paths — the
//! allocation-free layers the throughput work targets: pure VCL
//! planning (`plan_read`/`plan_write`), VOL reconstruction from snooped
//! snapshots, cache-array lookup and victim selection, and snooping-bus
//! arbitration. Each runs thousands of times per simulated kilocycle,
//! so these are the numbers that move `sim_cycles_per_sec`. The SVC
//! watchdog sweep runs far less often but costs far more per call.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use svc::{order_vol, LineSnapshot, SubMask, SvcConfig, SvcSystem, Vcl};
use svc_mem::{Bus, CacheArray, CacheGeometry, Slot};
use svc_multiscalar::{Engine, EngineConfig};
use svc_types::{Cycle, LineId, PuId, TaskId, VersionedMemory};
use svc_workloads::Spec95;

/// A realistic snooped line: two committed copies (one the head of the
/// committed chain) and two uncommitted versions in task order, linked
/// by their VOL pointers.
fn snapshots() -> [LineSnapshot; 4] {
    let snap = |i: usize, task, valid: u64, store: u64, committed, next| LineSnapshot {
        pu: PuId(i),
        task,
        valid: SubMask(valid),
        store: SubMask(store),
        load: SubMask::EMPTY,
        committed,
        stale: false,
        arch: false,
        next,
    };
    [
        snap(0, Some(TaskId(4)), 0b1111, 0b0011, true, Some(PuId(1))),
        snap(1, Some(TaskId(5)), 0b1111, 0b0100, true, Some(PuId(2))),
        snap(2, Some(TaskId(6)), 0b1111, 0b1000, false, Some(PuId(3))),
        snap(3, Some(TaskId(7)), 0b0011, 0b0001, false, None),
    ]
}

fn vcl(c: &mut Criterion) {
    let mut g = c.benchmark_group("vcl");
    let vcl = Vcl {
        hybrid_update: true,
        snarfing: true,
        trust_stale: true,
        update_limit: 4,
        retain_flushed: true,
    };
    let snaps = snapshots();
    let snarf = [(PuId(1), TaskId(5))];

    g.bench_function("plan_read", |bench| {
        bench.iter(|| {
            black_box(vcl.plan_read(
                black_box(&snaps),
                PuId(3),
                TaskId(7),
                Some(TaskId(4)),
                SubMask(0b1100),
                &snarf,
            ))
        })
    });

    g.bench_function("plan_write", |bench| {
        bench.iter(|| {
            black_box(vcl.plan_write(
                black_box(&snaps),
                PuId(3),
                TaskId(7),
                SubMask(0b0100),
                SubMask(0b1000),
            ))
        })
    });
    g.finish();
}

fn vol(c: &mut Criterion) {
    let mut g = c.benchmark_group("vol");
    let snaps = snapshots();
    g.bench_function("order_vol_splice", |bench| {
        bench.iter(|| black_box(order_vol(black_box(&snaps))))
    });
    g.finish();
}

/// Minimal slot for exercising the tag array alone.
#[derive(Debug, Clone, Default)]
struct TagSlot {
    line: Option<LineId>,
}

impl Slot for TagSlot {
    fn held_line(&self) -> Option<LineId> {
        self.line
    }
}

fn cache_array(c: &mut Criterion) {
    let mut g = c.benchmark_group("cache_array");
    // The paper's 8KB 4-way point: 32 sets of 16-byte lines.
    let geometry = CacheGeometry::new(32, 4, 4, 4);
    let mut array: CacheArray<TagSlot> = CacheArray::new(geometry);
    for i in 0..96u64 {
        let line = LineId(i);
        let r = array.victim_way(line);
        array.slot_mut(r).line = Some(line);
        array.touch(r);
    }

    g.bench_function("find_hit", |bench| {
        let mut i = 0u64;
        bench.iter(|| {
            i = (i + 1) % 96;
            black_box(array.find(black_box(LineId(i))))
        })
    });

    g.bench_function("find_miss", |bench| {
        bench.iter(|| black_box(array.find(black_box(LineId(4096)))))
    });

    g.bench_function("victim_way", |bench| {
        let mut i = 0u64;
        bench.iter(|| {
            i = (i + 1) % 128;
            black_box(array.victim_way(black_box(LineId(i))))
        })
    });
    g.finish();
}

fn bus(c: &mut Criterion) {
    let mut g = c.benchmark_group("bus");
    g.bench_function("arbitration", |bench| {
        // The paper's pipelined bus; contended grants back to back.
        let mut bus = Bus::pipelined(4, 2);
        let mut now = Cycle(0);
        bench.iter(|| {
            now += 1;
            black_box(bus.transact(now, 1))
        })
    });
    g.finish();
}

/// A final-design SVC of `pus` PUs (8KB each) paused `cycles` into the
/// gcc model, wired as the experiment binaries wire it: caches full of
/// shared lines, copies and versions.
fn warm_gcc(pus: usize, cycles: u64) -> SvcSystem {
    let wl = Spec95::Gcc.workload(7);
    let cfg = EngineConfig {
        num_pus: pus,
        predictor: wl.profile().predictor(7),
        seed: 7,
        garbage_addr_space: wl.profile().hot_set.max(64),
        load_dep_frac: wl.profile().load_dep_frac,
        ..EngineConfig::default()
    };
    let mut engine = Engine::new(cfg, SvcSystem::new(SvcConfig::final_design(pus)));
    let done = engine.run_until(&wl, Some(cycles));
    assert!(!done, "warm-up run must pause mid-flight");
    engine.into_memory()
}

/// One full SVC invariant sweep (`check_invariants`) of a healthy warm
/// system: the cost the watchdog pays at every commit and cadence
/// boundary.
fn watchdog(c: &mut Criterion) {
    let mut g = c.benchmark_group("watchdog");
    for (name, system) in [
        ("svc_sweep_warm_4pu", warm_gcc(4, 20_000)),
        ("svc_sweep_warm_64pu", warm_gcc(64, 20_000)),
    ] {
        assert!(system.check_invariants(Cycle(0)).is_empty());
        g.bench_function(name, |bench| {
            bench.iter(|| black_box(system.check_invariants(black_box(Cycle(0)))))
        });
    }
    g.finish();
}

criterion_group!(benches, vcl, vol, cache_array, bus, watchdog);
criterion_main!(benches);
