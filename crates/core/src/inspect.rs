//! State inspection: render the caches' view of a line the way the
//! paper's figures do (one box per PU with the set bits, plus the VOL),
//! and summarize whole-cache occupancy. Debugging aids for protocol work;
//! everything here is read-only.

use svc_types::{Addr, PuId};

use crate::line::LineState;
use crate::system::SvcSystem;
use crate::vol::order_vol;

/// Occupancy of one cache broken down by line state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StateCensus {
    /// Lines with no valid sub-block (free slots).
    pub invalid: usize,
    /// Uncommitted lines without store data.
    pub active_clean: usize,
    /// Uncommitted speculative versions.
    pub active_dirty: usize,
    /// Committed lines with nothing left to write back.
    pub passive_clean: usize,
    /// Committed versions awaiting lazy writeback.
    pub passive_dirty: usize,
}

impl StateCensus {
    /// Total slots (the cache's line capacity).
    pub fn total(&self) -> usize {
        self.invalid
            + self.active_clean
            + self.active_dirty
            + self.passive_clean
            + self.passive_dirty
    }

    /// Valid lines (everything but free slots).
    pub fn valid(&self) -> usize {
        self.total() - self.invalid
    }
}

impl SvcSystem {
    /// Counts `pu`'s lines by state (paper Figure 18's five states).
    pub fn state_census(&self, pu: PuId) -> StateCensus {
        let mut c = StateCensus::default();
        for state in self.line_states_of(pu) {
            match state {
                LineState::Invalid => c.invalid += 1,
                LineState::ActiveClean => c.active_clean += 1,
                LineState::ActiveDirty => c.active_dirty += 1,
                LineState::PassiveClean => c.passive_clean += 1,
                LineState::PassiveDirty => c.passive_dirty += 1,
            }
        }
        c
    }

    /// Renders every cache's copy of the line containing `addr` in the
    /// style of the paper's figures: per-PU boxes with the bits that are
    /// set, followed by the reconstructed Version Ordering List.
    ///
    /// ```text
    /// line L0x10 (addr 0x40):
    ///   PU0 [T3]  AD  V=0b1 S=0b1 L=0b0  C- T- A- X-  -> PU1  data[0]=0x2a
    ///   PU1 [T4]  AC  V=0b1 S=0b0 L=0b1  C- T- A- X-  -> -    data[0]=0x2a
    ///   VOL: PU0 -> PU1
    /// ```
    pub fn dump_line(&self, addr: Addr) -> String {
        let g = self.config().geometry;
        let line = g.line_of(addr);
        let snaps = self.snapshots(line);
        let mut out = format!("line {line} (addr {addr}):\n");
        for s in &snaps {
            let task = match s.task {
                Some(t) => format!("{t}"),
                None => "-".to_string(),
            };
            if !s.is_valid() {
                out.push_str(&format!("  {} [{}]  I\n", s.pu, task));
                continue;
            }
            let state = match (s.committed, s.store.is_empty()) {
                (false, true) => "AC",
                (false, false) => "AD",
                (true, true) => "PC",
                (true, false) => "PD",
            };
            let next = match s.next {
                Some(q) => format!("{q}"),
                None => "-".to_string(),
            };
            let word0 = self.peek_word(s.pu, line.first_word(g.words_per_line()));
            out.push_str(&format!(
                "  {} [{}]  {}  V={:#b} S={:#b} L={:#b}  C{} T{} A{}  -> {}  data[0]={}\n",
                s.pu,
                task,
                state,
                s.valid,
                s.store,
                s.load,
                if s.committed { "+" } else { "-" },
                if s.stale { "+" } else { "-" },
                if s.arch { "+" } else { "-" },
                next,
                word0.map_or("?".to_string(), |w| format!("{w}")),
            ));
        }
        let vol = order_vol(&snaps);
        out.push_str("  VOL: ");
        if vol.is_empty() {
            out.push_str("(empty)");
        } else {
            let parts: Vec<String> = vol.iter().map(|p| format!("{p}")).collect();
            out.push_str(&parts.join(" -> "));
        }
        out.push('\n');
        out
    }
}

#[cfg(test)]
mod tests {
    use svc_types::{Cycle, TaskId, VersionedMemory, Word};

    use crate::SvcConfig;

    use super::*;

    #[test]
    fn census_tracks_state_transitions() {
        let mut svc = SvcSystem::new(SvcConfig::ecs(2));
        svc.assign(PuId(0), TaskId(0));
        let empty = svc.state_census(PuId(0));
        assert_eq!(empty.valid(), 0);
        assert_eq!(empty.total(), 2048); // 512 sets x 4 ways, word lines

        svc.store(PuId(0), Addr(0), Word(1), Cycle(0)).unwrap();
        svc.load(PuId(0), Addr(8), Cycle(1)).unwrap();
        let c = svc.state_census(PuId(0));
        assert_eq!(c.active_dirty, 1);
        assert_eq!(c.active_clean, 1);

        svc.commit(PuId(0), Cycle(10));
        let c = svc.state_census(PuId(0));
        assert_eq!(c.passive_dirty, 1);
        assert_eq!(c.passive_clean, 1);
        assert_eq!(c.valid(), 2);
    }

    #[test]
    fn dump_line_shows_boxes_and_vol() {
        let mut svc = SvcSystem::new(SvcConfig::ecs(4));
        svc.assign(PuId(0), TaskId(0));
        svc.assign(PuId(1), TaskId(1));
        svc.store(PuId(0), Addr(4), Word(0x2A), Cycle(0)).unwrap();
        svc.load(PuId(1), Addr(4), Cycle(5)).unwrap();
        let dump = svc.dump_line(Addr(4));
        assert!(dump.contains("AD"), "producer's version: {dump}");
        assert!(dump.contains("AC"), "consumer's copy: {dump}");
        assert!(dump.contains("VOL: PU0 -> PU1"), "{dump}");
        assert!(dump.contains("0x2a"), "{dump}");
        // Uninvolved PUs show as invalid.
        assert!(dump.contains("PU2 [-]  I"), "{dump}");
    }

    #[test]
    fn dump_line_for_untouched_address() {
        let svc = SvcSystem::new(SvcConfig::ecs(2));
        let dump = svc.dump_line(Addr(123));
        assert!(dump.contains("VOL: (empty)"), "{dump}");
    }
}
