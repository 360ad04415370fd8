//! Host-throughput benchmark of the SVC simulator.
//!
//! One process, one thread: cells run back to back in a closed loop with
//! one client. See NOTES.md for the workloads, the metrics and how they
//! relate, and `src/main.rs` for the command line.

pub mod adapter;
pub mod metrics;
pub mod paper;
pub mod probe;
pub mod run;
pub mod stats;
pub mod workloads;
