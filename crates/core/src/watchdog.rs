//! Runtime invariant watchdog for the SVC.
//!
//! Validates the protocol-level consistency of the complete speculative
//! state — the distributed Version Ordering List and the per-line state
//! bits — and reports every problem as a structured
//! [`InvariantViolation`] instead of panicking, so a harness can feed the
//! violations to forensics and keep the run alive.
//!
//! The checks (each maps to an [`InvariantKind`]):
//!
//! - **State-bit legality** ([`InvariantKind::StateBits`]): store and load
//!   masks are subsets of the valid mask, and a committed line carries no
//!   load (use-before-define) bits — commits flash-clear L (§3.4).
//! - **Orphans** ([`InvariantKind::Orphan`]): every uncommitted valid line
//!   belongs to its PU's *current* task; a task-less PU holding
//!   speculative state has escaped a commit/squash.
//! - **VOL acyclicity** ([`InvariantKind::VolCycle`]): following the
//!   distributed `next` pointers among the current holders never revisits
//!   a cache. (Pointers *to caches that no longer hold the line* are
//!   legal dangling ends — squashes leave them behind and the next bus
//!   request repairs them, §3.5.)
//! - **Program-order consistency** ([`InvariantKind::VolOrder`]): every
//!   stored pointer between two live holders agrees with the VOL
//!   reconstructed by [`order_vol`] — no pointer runs backwards.
//!   Two epoch-stale shapes are exempt because only bus transactions
//!   rewrite pointers: a pointer *from* an uncommitted architectural
//!   copy (local reuse, §3.4.3/§3.5.1, adopts the line without a bus
//!   transaction) and a pointer from an uncommitted holder *to* a
//!   committed one (a squash flash-reverted the destination). Both are
//!   repaired by the next bus request, like dangling pointers.
//! - **Exclusive ownership** ([`InvariantKind::Ownership`]): a line with
//!   the X bit set (Figure 16 silent-store optimization) is the only
//!   cached copy anywhere.
//! - **Post-squash cleanliness** ([`InvariantKind::SquashResidue`],
//!   [`check_post_squash`]): immediately after a squash, no uncommitted
//!   valid line survives in the squashed PU's cache.
//!
//! One sweep is one pass over the cache arrays, set by set: every PU's
//! cache shares one geometry, so a line's copies all sit at the same set
//! index. Each line's holders are gathered once, in PU order, into
//! buffers the sweep reuses, and a cheap exact predicate clears the
//! healthy lines; the full reporter runs only on the lines it cannot
//! clear.

use std::cell::RefCell;

use smallvec::SmallVec;
use svc_types::{Cycle, InvariantKind, InvariantViolation, LineId, PuId};

use crate::snapshot::LineSnapshot;
use crate::system::SvcSystem;
use crate::vol::order_vol;

/// Runs every whole-system invariant check. Returns all violations found
/// (empty for a healthy system), ordered by line.
pub fn check_system(sys: &SvcSystem, now: Cycle) -> Vec<InvariantViolation> {
    SWEEP.with(|sweep| sweep.borrow_mut().run(sys, now))
}

/// Runs the post-squash cleanliness check for `pu`: called immediately
/// after a squash, it reports any uncommitted valid line that survived.
pub fn check_post_squash(sys: &SvcSystem, pu: PuId, now: Cycle) -> Vec<InvariantViolation> {
    sys.caches()[pu.index()]
        .iter()
        .filter(|l| l.is_valid() && !l.committed)
        .map(|l| InvariantViolation {
            kind: InvariantKind::SquashResidue,
            pu: Some(pu),
            line: l.line,
            cycle: now,
            detail: "uncommitted valid line survived the squash".to_string(),
        })
        .collect()
}

thread_local! {
    /// The sweep buffers of this thread, grown to the largest system it
    /// has checked: a sweep of a healthy system allocates nothing.
    static SWEEP: RefCell<Sweep> = RefCell::new(Sweep::default());
}

/// Marks a PU holding no copy in [`Sweep::pos`], and a committed holder
/// not (yet) ranked in [`Sweep::rank`].
const ABSENT: u32 = u32::MAX;

/// Marks, in [`Sweep::rank`], a committed holder that another committed
/// holder points at (so it cannot head the committed chain).
const POINTED: u32 = u32::MAX - 1;

/// Buffers reused from line to line and from sweep to sweep.
#[derive(Default)]
struct Sweep {
    /// `(tag, pu, way)` of every valid slot in the current set whose tag
    /// maps to that set, sorted so each line's slots are contiguous.
    slots: Vec<(LineId, u32, u32)>,
    /// The current line's holders, in PU order.
    holders: Vec<LineSnapshot>,
    /// Per PU: its index in `holders`, or [`ABSENT`].
    pos: Vec<u32>,
    /// Per holder: its position along the committed chain.
    rank: Vec<u32>,
}

impl Sweep {
    fn run(&mut self, sys: &SvcSystem, now: Cycle) -> Vec<InvariantViolation> {
        let caches = sys.caches();
        let g = sys.config().geometry;
        let ways = g.ways();
        // `CacheGeometry::new` guarantees a power-of-two set count, so a
        // mask is the set index without a division per slot.
        let set_mask = g.sets() as u64 - 1;
        self.pos.clear();
        self.pos.resize(caches.len(), ABSENT);
        let mut out = Vec::new();
        for set in 0..g.sets() {
            self.slots.clear();
            for (p, cache) in caches.iter().enumerate() {
                for w in 0..ways {
                    let l = cache.slot((set, w));
                    // A slot outside its tag's set is never found by a
                    // lookup, so it holds no copy of the line.
                    match l.line {
                        Some(tag) if !l.valid.is_empty() && (tag.0 & set_mask) as usize == set => {
                            self.slots.push((tag, p as u32, w as u32))
                        }
                        _ => {}
                    }
                }
            }
            // Within a line, PU then way order: a PU's copy is its first
            // matching way, as `CacheArray::find` would return.
            self.slots.sort_unstable();
            let mut i = 0;
            while i < self.slots.len() {
                let line = self.slots[i].0;
                self.holders.clear();
                let mut exclusive = false;
                while i < self.slots.len() && self.slots[i].0 == line {
                    let (_, p, w) = self.slots[i];
                    i += 1;
                    if self
                        .holders
                        .last()
                        .is_some_and(|h| h.pu.index() == p as usize)
                    {
                        continue;
                    }
                    let pu = PuId(p as usize);
                    let l = caches[pu.index()].slot((set, w as usize));
                    self.pos[pu.index()] = self.holders.len() as u32;
                    exclusive |= l.exclusive;
                    self.holders.push(LineSnapshot {
                        pu,
                        task: sys.assignments().task_of(pu),
                        valid: l.valid,
                        store: l.store,
                        load: l.load,
                        committed: l.committed,
                        stale: l.stale,
                        arch: l.arch,
                        next: l.next,
                    });
                }
                if !self.is_clean(exclusive) {
                    check_line(sys, line, &self.holders, now, &mut out);
                }
                for h in &self.holders {
                    self.pos[h.pu.index()] = ABSENT;
                }
            }
        }
        // Lines were visited set by set; each line's violations are
        // contiguous, so a stable sort restores line order.
        out.sort_by_key(|v| v.line);
        out
    }

    /// Whether [`check_line`] would report nothing for the holders in
    /// `self.holders`, any of which has its X bit set if `exclusive`,
    /// decided without building the VOL. Every state bit must be legal,
    /// and every pointer between two holders must run
    /// forward in VOL order, except for the epoch-stale pointers the
    /// reporter exempts from that rule. A walk that follows such a
    /// backward pointer must then end within `n` steps, so it closes no
    /// cycle; an all-forward walk cannot close one. `false` sends the
    /// line to the reporter.
    fn is_clean(&mut self, exclusive: bool) -> bool {
        let n = self.holders.len();
        let (holders, pos, rank) = (&self.holders, &self.pos, &mut self.rank);
        let legal = holders.iter().all(|s| {
            s.store.minus(s.valid).is_empty()
                && s.load.minus(s.valid).is_empty()
                && if s.committed {
                    s.load.is_empty()
                } else {
                    s.task.is_some()
                }
        });
        if !legal || (exclusive && n > 1) {
            return false;
        }
        let at = |q: PuId| match pos.get(q.index()) {
            Some(&i) if i != ABSENT => Some(i as usize),
            _ => None,
        };
        let mut ranked = false;
        for (i, s) in holders.iter().enumerate() {
            let Some(j) = s.next.and_then(at) else {
                continue; // no pointer, or a dangling one
            };
            let d = &holders[j];
            let forward = match (s.committed, d.committed) {
                (true, true) => {
                    if !ranked {
                        rank_committed(holders, pos, rank);
                        ranked = true;
                    }
                    rank[j] > rank[i]
                }
                (true, false) => true,
                (false, true) => false,
                (false, false) => (d.task, d.pu) > (s.task, s.pu),
            };
            if forward {
                continue;
            }
            if s.committed || !(s.arch || d.committed) {
                return false; // an order inversion
            }
            let mut cur = Some(j);
            for _ in 0..n {
                cur = cur.and_then(|k| holders[k].next.and_then(at));
            }
            if cur.is_some() {
                return false; // a cycle
            }
        }
        true
    }
}

/// Ranks the committed `holders` by their position in [`order_vol`]'s
/// committed prefix: chain heads in PU order, each followed along its
/// pointers. `pos` maps a PU to its holder index. A holder no chain
/// reaches sits on a pointer cycle and keeps rank [`POINTED`], so no
/// pointer out of it counts as forward.
fn rank_committed(holders: &[LineSnapshot], pos: &[u32], rank: &mut Vec<u32>) {
    let at = |q: PuId| match pos.get(q.index()) {
        Some(&i) if i != ABSENT && holders[i as usize].committed => Some(i as usize),
        _ => None,
    };
    rank.clear();
    rank.resize(holders.len(), ABSENT);
    for s in holders.iter().filter(|s| s.committed) {
        if let Some(j) = s.next.filter(|&q| q != s.pu).and_then(at) {
            rank[j] = POINTED;
        }
    }
    let mut r = 0;
    for head in 0..holders.len() {
        if !holders[head].committed || rank[head] != ABSENT {
            continue;
        }
        let mut cur = head;
        loop {
            rank[cur] = r;
            r += 1;
            match holders[cur].next.and_then(at) {
                Some(j) if rank[j] >= POINTED => cur = j,
                _ => break,
            }
        }
    }
}

fn violation(
    kind: InvariantKind,
    pu: Option<PuId>,
    line: LineId,
    now: Cycle,
    detail: String,
) -> InvariantViolation {
    InvariantViolation {
        kind,
        pu,
        line: Some(line),
        cycle: now,
        detail,
    }
}

/// Whether `pu`'s copy of `line` has the exclusive (X) bit set.
fn line_exclusive(sys: &SvcSystem, pu: PuId, line: LineId) -> bool {
    let cache = &sys.caches()[pu.index()];
    cache.find(line).is_some_and(|r| cache.slot(r).exclusive)
}

fn check_line(
    sys: &SvcSystem,
    line: LineId,
    snaps: &[LineSnapshot],
    now: Cycle,
    out: &mut Vec<InvariantViolation>,
) {
    let holders: SmallVec<&LineSnapshot, 8> = snaps.iter().filter(|s| s.is_valid()).collect();
    let mut orphaned = false;
    for s in &holders {
        if !s.store.minus(s.valid).is_empty() {
            out.push(violation(
                InvariantKind::StateBits,
                Some(s.pu),
                line,
                now,
                format!("store mask {:?} exceeds valid mask {:?}", s.store, s.valid),
            ));
        }
        if !s.load.minus(s.valid).is_empty() {
            out.push(violation(
                InvariantKind::StateBits,
                Some(s.pu),
                line,
                now,
                format!("load mask {:?} exceeds valid mask {:?}", s.load, s.valid),
            ));
        }
        if s.committed && !s.load.is_empty() {
            out.push(violation(
                InvariantKind::StateBits,
                Some(s.pu),
                line,
                now,
                "committed line carries load bits".to_string(),
            ));
        }
        if !s.committed && s.task.is_none() {
            orphaned = true;
            out.push(violation(
                InvariantKind::Orphan,
                Some(s.pu),
                line,
                now,
                "uncommitted valid line on a PU with no assigned task".to_string(),
            ));
        }
        if line_exclusive(sys, s.pu, line) && holders.len() > 1 {
            out.push(violation(
                InvariantKind::Ownership,
                Some(s.pu),
                line,
                now,
                format!("X bit set but {} caches hold the line", holders.len()),
            ));
        }
    }

    // VOL acyclicity: walk the next pointers from every holder; a pointer
    // to a non-holder is a legal dangling end, but revisiting a holder
    // already on the walk is a cycle. Report at most once per line.
    'walks: for start in &holders {
        let mut visited: SmallVec<PuId, 8> = SmallVec::new();
        visited.push(start.pu);
        let mut cur = start.next;
        while let Some(q) = cur {
            let Some(next_snap) = holders.iter().find(|s| s.pu == q) else {
                break; // dangling: squash repair pending
            };
            if visited.contains(&q) {
                out.push(violation(
                    InvariantKind::VolCycle,
                    Some(q),
                    line,
                    now,
                    format!("VOL pointer walk from {} revisits {}", start.pu, q),
                ));
                break 'walks;
            }
            visited.push(q);
            cur = next_snap.next;
        }
    }

    // Program-order consistency: the stored forward pointers must agree
    // with the reconstruction. (Skipped if an orphan was found — the
    // reconstruction needs every uncommitted holder to have a task.)
    if !orphaned {
        let vol = order_vol(snaps);
        for s in holders.iter().filter(|s| !vol.contains(&s.pu)) {
            out.push(violation(
                InvariantKind::VolOrder,
                Some(s.pu),
                line,
                now,
                "holder missing from the reconstructed VOL".to_string(),
            ));
        }
        for s in &holders {
            // Local reuse of a passive architectural copy (§3.4.3/§3.5.1)
            // clears C and adopts the line for the PU's current task
            // *without* a bus transaction, so its stored pointer is an
            // epoch-stale leftover until the next bus request rewrites
            // it. Such pointers are legal in any direction — only check
            // pointers written by a bus transaction in this epoch.
            if !s.committed && s.arch {
                continue;
            }
            let Some(q) = s.next else { continue };
            let Some(dst) = holders.iter().find(|h| h.pu == q) else {
                continue; // dangling: squash repair pending
            };
            // A squash flash-reverts architectural copies back to
            // committed (C/A optimization) without repairing inbound
            // pointers, so an uncommitted holder legally pointing at a
            // now-committed copy is the in-cache analog of a dangling
            // pointer; the next bus request rewrites it.
            if !s.committed && dst.committed {
                continue;
            }
            let (Some(i), Some(j)) = (
                vol.iter().position(|&p| p == s.pu),
                vol.iter().position(|&p| p == q),
            ) else {
                continue; // missing from the VOL: handled above
            };
            if j <= i {
                out.push(violation(
                    InvariantKind::VolOrder,
                    Some(s.pu),
                    line,
                    now,
                    format!("VOL pointer {} -> {} runs against program order", s.pu, q),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use svc_types::{
        AccessError, Addr, LoadOutcome, MemStats, PuId, StoreOutcome, TaskId, VersionedMemory, Word,
    };

    use super::*;
    use crate::config::SvcConfig;
    use crate::conformance::{run_lockstep, Op, Workload};
    use crate::mask::SubMask;
    use svc_mem::CacheGeometry;
    use svc_sim::rng::Xoshiro256;

    fn busy_system(design: fn(usize) -> SvcConfig) -> SvcSystem {
        let mut sys = SvcSystem::new(design(4));
        for i in 0..4 {
            sys.assign(PuId(i), TaskId(i as u64));
        }
        // Mix of shared lines, private lines, versions and copies.
        for i in 0..4u64 {
            let pu = PuId(i as usize);
            sys.store(pu, Addr(64 + i), Word(i), Cycle(i)).unwrap();
            sys.load(pu, Addr(64), Cycle(10 + i)).unwrap();
            sys.store(pu, Addr(128 + 8 * i), Word(i), Cycle(20 + i))
                .unwrap();
        }
        sys
    }

    #[test]
    fn healthy_system_has_no_violations() {
        for design in [
            SvcConfig::base as fn(usize) -> SvcConfig,
            SvcConfig::final_design,
        ] {
            let sys = busy_system(design);
            assert_eq!(check_system(&sys, Cycle(30)), Vec::new());
        }
    }

    #[test]
    fn flipped_state_bit_is_caught() {
        let mut sys = busy_system(SvcConfig::final_design);
        assert!(sys.fault_flip_state_bit(PuId(1), Addr(64)));
        let found = check_system(&sys, Cycle(40));
        assert!(
            found.iter().any(|v| v.kind == InvariantKind::StateBits),
            "got {found:?}"
        );
    }

    #[test]
    fn spliced_vol_is_caught() {
        let mut sys = busy_system(SvcConfig::final_design);
        assert!(sys.fault_splice_vol(Addr(64)));
        let found = check_system(&sys, Cycle(40));
        assert!(
            found
                .iter()
                .any(|v| v.kind == InvariantKind::VolCycle || v.kind == InvariantKind::VolOrder),
            "got {found:?}"
        );
    }

    #[test]
    fn post_squash_is_clean() {
        let mut sys = busy_system(SvcConfig::final_design);
        sys.squash_at(PuId(3), Cycle(50));
        assert_eq!(check_post_squash(&sys, PuId(3), Cycle(50)), Vec::new());
        assert_eq!(check_system(&sys, Cycle(50)), Vec::new());
    }

    #[test]
    fn commit_and_drain_stay_clean() {
        let mut sys = busy_system(SvcConfig::final_design);
        for i in 0..4 {
            sys.commit(PuId(i), Cycle(60 + i as u64));
            assert_eq!(check_system(&sys, Cycle(60 + i as u64)), Vec::new());
        }
        sys.drain();
        assert_eq!(check_system(&sys, Cycle(70)), Vec::new());
    }

    /// The line-major sweep the set-major one replaced, kept as its
    /// differential oracle: every distinct resident line, all N snapshots
    /// by lookup, and the reporter on every line.
    fn reference_sweep(sys: &SvcSystem, now: Cycle) -> Vec<InvariantViolation> {
        let caches = sys.caches();
        let mut lines: Vec<LineId> = caches
            .iter()
            .flat_map(|c| c.iter())
            .filter(|l| l.is_valid())
            .filter_map(|l| l.line)
            .collect();
        lines.sort_unstable();
        lines.dedup();
        let mut out = Vec::new();
        for line in lines {
            check_line(sys, line, &sys.snapshots(line), now, &mut out);
        }
        out
    }

    /// Asserts the sweep and its oracle agree exactly; returns the count.
    fn assert_agrees(sys: &SvcSystem, now: Cycle) -> usize {
        let got = check_system(sys, now);
        assert_eq!(got, reference_sweep(sys, now), "sweep diverged from oracle");
        got.len()
    }

    /// The base, ECS and final designs on small caches (16 sets of 2
    /// ways; 4-word lines for the final design), so lines conflict and
    /// sweeps stay cheap.
    fn small_designs(pus: usize) -> [SvcConfig; 3] {
        let mut designs = [
            SvcConfig::base(pus),
            SvcConfig::ecs(pus),
            SvcConfig::final_design(pus),
        ];
        designs[0].geometry = CacheGeometry::word_lines(16, 2);
        designs[1].geometry = CacheGeometry::word_lines(16, 2);
        designs[2].geometry = CacheGeometry::new(16, 2, 4, 1);
        designs
    }

    /// Forwards every call, comparing both sweeps after each mutation.
    struct Diffed(SvcSystem);

    impl VersionedMemory for Diffed {
        fn num_pus(&self) -> usize {
            self.0.num_pus()
        }
        fn assign(&mut self, pu: PuId, task: TaskId) {
            self.0.assign(pu, task);
            assert_agrees(&self.0, Cycle(0));
        }
        fn load(&mut self, pu: PuId, addr: Addr, now: Cycle) -> Result<LoadOutcome, AccessError> {
            let out = self.0.load(pu, addr, now);
            assert_agrees(&self.0, now);
            out
        }
        fn store(
            &mut self,
            pu: PuId,
            addr: Addr,
            value: Word,
            now: Cycle,
        ) -> Result<StoreOutcome, AccessError> {
            let out = self.0.store(pu, addr, value, now);
            assert_agrees(&self.0, now);
            out
        }
        fn commit(&mut self, pu: PuId, now: Cycle) -> Cycle {
            let done = self.0.commit(pu, now);
            assert_agrees(&self.0, now);
            done
        }
        fn squash(&mut self, pu: PuId) {
            self.0.squash(pu);
            assert_agrees(&self.0, Cycle(0));
        }
        fn drain(&mut self) {
            self.0.drain();
            assert_agrees(&self.0, Cycle(0));
        }
        fn architectural(&self, addr: Addr) -> Word {
            self.0.architectural(addr)
        }
        fn stats(&self) -> MemStats {
            self.0.stats()
        }
        fn reset_stats(&mut self) {
            self.0.reset_stats();
        }
    }

    #[test]
    fn sweep_matches_oracle_on_random_walks() {
        for seed in 0..24u64 {
            let pus = 2 + (seed as usize % 5);
            let wl = Workload::random_with_density(seed, 24, 4 + seed % 24, pus, 0.5);
            for cfg in small_designs(pus) {
                run_lockstep(&wl, Diffed(SvcSystem::new(cfg)), seed);
            }
        }
    }

    #[test]
    fn sweep_matches_oracle_at_64_pus() {
        // A handful of words shared by 64 PUs: holder groups far past
        // the inline capacity of 8.
        let wl = Workload::random_with_density(11, 32, 6, 64, 0.3);
        let [.., fin] = small_designs(64);
        run_lockstep(&wl, Diffed(SvcSystem::new(fin)), 11);
        let mut sys = speculative_system(5, 64, 8, fin);
        let widest = (0..8u64).map(|a| sys.vol_of(Addr(a)).len()).max().unwrap();
        assert!(widest > 8, "no line held by more than 8 PUs ({widest})");
        corrupt_and_compare(&mut sys, 64);
    }

    /// A mid-execution system with speculative state spread across PUs:
    /// a seeded random prefix, never committed or squashed.
    fn speculative_system(seed: u64, pus: usize, words: u64, cfg: SvcConfig) -> SvcSystem {
        let mut sys = SvcSystem::new(cfg);
        let wl = Workload::random_with_density(seed, pus, words, pus, 0.6);
        let mut now = Cycle(0);
        for (i, task) in wl.tasks.iter().enumerate() {
            let pu = PuId(i);
            sys.assign(pu, TaskId(i as u64));
            for op in task {
                now += 1;
                // Violations are irrelevant: any reachable state will do.
                let _ = match *op {
                    Op::Load(a) => sys.load(pu, a, now).map(|_| ()),
                    Op::Store(a, v) => sys.store(pu, a, v, now).map(|_| ()),
                };
            }
        }
        sys
    }

    /// Flips state bits and splices VOLs one at a time, comparing both
    /// sweeps after each corruption; returns the violations last seen.
    fn corrupt_and_compare(sys: &mut SvcSystem, pus: usize) -> usize {
        let mut found = assert_agrees(sys, Cycle(1));
        for a in 0..8u64 {
            if sys.fault_splice_vol(Addr(a)) {
                found = assert_agrees(sys, Cycle(2 + a));
            }
            if sys.fault_flip_state_bit(PuId(a as usize % pus), Addr(a)) {
                found = assert_agrees(sys, Cycle(20 + a));
            }
        }
        found
    }

    #[test]
    fn sweep_matches_oracle_on_corrupted_states() {
        for seed in 0..32u64 {
            let pus = 2 + (seed as usize % 5);
            let [base, _, fin] = small_designs(pus);
            for cfg in [base, fin] {
                let mut sys = speculative_system(seed, pus, 8, cfg);
                assert!(corrupt_and_compare(&mut sys, pus) > 0);
                // Committed chains: commit everything, start new tasks
                // that re-share the lines, and corrupt again.
                for i in 0..pus {
                    sys.commit(PuId(i), Cycle(100 + i as u64));
                    sys.assign(PuId(i), TaskId((pus + i) as u64));
                    let _ = sys.load(PuId(i), Addr(i as u64 % 3), Cycle(200 + i as u64));
                }
                corrupt_and_compare(&mut sys, pus);
            }
        }
    }

    #[test]
    fn sweep_matches_oracle_on_pointer_cycles() {
        // A self-pointer: the line at 128 + 8i is held by PU i alone.
        let mut sys = busy_system(SvcConfig::final_design);
        assert!(sys.fault_splice_vol(Addr(136)));
        assert_eq!(sys.vol_of(Addr(136)), vec![PuId(1)]);
        assert_agrees(&sys, Cycle(40));
        let found = check_system(&sys, Cycle(40));
        assert!(found
            .iter()
            .any(|v| v.kind == InvariantKind::VolCycle && v.detail.ends_with("revisits PU1")));
        // A multi-holder cycle: all four PUs hold the line at 64.
        assert_eq!(sys.vol_of(Addr(64)).len(), 4);
        assert!(sys.fault_splice_vol(Addr(64)));
        assert!(assert_agrees(&sys, Cycle(41)) >= 2);
        let found = check_system(&sys, Cycle(41));
        assert!(found.windows(2).all(|w| w[0].line <= w[1].line));
        assert_eq!(
            found
                .iter()
                .filter(|v| v.kind == InvariantKind::VolCycle)
                .count(),
            2
        );
    }

    /// Rewrites one to three random fields among the holders of one
    /// random resident line: pointers (mostly to other holders, else
    /// dangling, past the last PU, or none), C/A/X bits, V/L/S masks,
    /// and the tag.
    fn scramble(sys: &mut SvcSystem, rng: &mut Xoshiro256) {
        let pus = sys.config().num_pus;
        let resident: Vec<LineId> = sys.caches()[rng.gen_index(0..pus)]
            .iter()
            .filter(|l| l.is_valid())
            .filter_map(|l| l.line)
            .collect();
        if resident.is_empty() {
            return;
        }
        let line = resident[rng.gen_index(0..resident.len())];
        let holders: Vec<usize> = (0..pus)
            .filter(|&p| sys.caches()[p].find(line).is_some())
            .collect();
        if holders.is_empty() {
            return; // a retagged slot outside its tag's set
        }
        for _ in 0..1 + rng.gen_index(0..3) {
            let cache = &mut sys.caches_mut()[holders[rng.gen_index(0..holders.len())]];
            let Some(r) = cache.find(line) else { continue };
            let l = cache.slot_mut(r);
            match rng.gen_index(0..9) {
                0 | 1 => {
                    l.next = match rng.gen_index(0..5) {
                        0 => None,
                        1 => Some(PuId(rng.gen_index(0..pus + 1))),
                        _ => Some(PuId(holders[rng.gen_index(0..holders.len())])),
                    }
                }
                2 => l.committed = !l.committed,
                3 => l.arch = !l.arch,
                4 => l.exclusive = !l.exclusive,
                5 => l.load = SubMask(rng.next_u64() & l.valid.0 & 0b1001),
                6 => l.store = SubMask(rng.next_u64() & 0b11),
                // A tag no lookup in this set can find.
                7 => l.line = Some(LineId(line.0 + 1)),
                _ => l.valid = SubMask(l.valid.0 & rng.next_u64()),
            }
        }
    }

    #[test]
    fn sweep_matches_oracle_on_scrambled_states() {
        let mut rng = Xoshiro256::seed_from(0x5eed);
        let mut reported = 0;
        for seed in 0..128u64 {
            let pus = 2 + (seed as usize % 7);
            let [base, _, fin] = small_designs(pus);
            let cfg = if seed % 2 == 0 { base } else { fin };
            // Words beyond the set count, so lines wrap around the sets.
            let mut sys = speculative_system(seed, pus, 8 + seed % 64, cfg);
            // Commit the older half: committed chains, and task-less PUs
            // whose lines become orphans once scrambled uncommitted.
            for i in 0..pus / 2 {
                sys.commit(PuId(i), Cycle(100 + i as u64));
            }
            for step in 0..24 {
                scramble(&mut sys, &mut rng);
                reported += assert_agrees(&sys, Cycle(200 + step));
            }
        }
        assert!(reported > 0);
    }
}
