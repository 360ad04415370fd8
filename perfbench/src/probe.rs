//! Host-time probes: per-site call counts and nanoseconds, accumulated
//! by the timing decorators in [`crate::adapter`]. Nothing here calls
//! into the simulator.

use std::cell::Cell;
use std::hint::black_box;
use std::time::Instant;

/// A probed call site at a layer boundary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Site {
    /// `VersionedMemory::assign`.
    Assign,
    /// `VersionedMemory::load`.
    Load,
    /// `VersionedMemory::store`.
    Store,
    /// `VersionedMemory::commit`.
    Commit,
    /// `VersionedMemory::squash` / `squash_at`.
    Squash,
    /// `VersionedMemory::stats` and the other bookkeeping calls.
    Other,
    /// `VersionedMemory::check_invariants` (watchdog sweep).
    Sweep,
    /// `VersionedMemory::check_post_squash` (watchdog).
    PostSquash,
    /// `VersionedMemory::profile_gauges` (profiler sampler).
    Gauges,
    /// `TaskSource::task`.
    Task,
}

/// Number of [`Site`]s.
pub const SITES: usize = 10;

/// Calls and host nanoseconds at one site.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Stat {
    /// Host nanoseconds measured inside the probe.
    pub ns: u64,
    /// Calls timed.
    pub calls: u64,
}

impl Stat {
    /// Adds `other` into `self`.
    pub fn add(&mut self, other: Stat) {
        self.ns += other.ns;
        self.calls += other.calls;
    }
}

/// Per-site accumulators. Interior mutability lets `&self` trait methods
/// (`check_invariants`, `task`) record too.
#[derive(Debug, Default)]
pub struct Probe {
    sites: [Cell<Stat>; SITES],
}

impl Probe {
    /// Times `f` and charges it to `site`.
    #[inline]
    pub fn time<R>(&self, site: Site, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let out = f();
        let ns = start.elapsed().as_nanos() as u64;
        let cell = &self.sites[site as usize];
        let mut s = cell.get();
        s.ns += ns;
        s.calls += 1;
        cell.set(s);
        out
    }

    /// The accumulated totals, indexed by `Site as usize`.
    pub fn totals(&self) -> [Stat; SITES] {
        std::array::from_fn(|i| self.sites[i].get())
    }
}

/// The cost of the probe itself, measured on an empty call.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProbeCost {
    /// Host ns one probed empty call adds to its caller.
    pub total_ns: f64,
    /// Of that, the ns the probe records as the callee's own time.
    pub inside_ns: f64,
}

/// Measures [`ProbeCost`] over `n` probed empty calls, as the median of
/// several batches.
pub fn probe_cost(n: u64) -> ProbeCost {
    let mut totals = Vec::new();
    let mut insides = Vec::new();
    for _ in 0..9 {
        let probe = Probe::default();
        let start = Instant::now();
        for i in 0..n {
            probe.time(Site::Other, || black_box(i));
        }
        let total = start.elapsed().as_nanos() as f64;
        let inside = probe.totals()[Site::Other as usize].ns as f64;
        totals.push(total / n as f64);
        insides.push(inside / n as f64);
    }
    ProbeCost {
        total_ns: crate::stats::median(&totals),
        inside_ns: crate::stats::median(&insides),
    }
}
