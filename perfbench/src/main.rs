//! `perfbench`: host-throughput benchmark of the SVC simulator.
//!
//! ```text
//! perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1|2>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with no probes attached,
//! `--trace 1` the per-layer metrics from a traced run, `--trace 2` both.
//! Run it from the repository root (it reads the committed
//! `results/*.json`). It prints every metric by name with its unit, one
//! `FAILED` line per failed check, and as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. It exits 0 when every
//! check passed, 1 when one failed, 2 on a usage error and 3 when a
//! metric could not be computed.

use std::process::ExitCode;

use svc_perfbench::metrics::{
    print_lines, result_json, select, END_TO_END, END_TO_END_EXTRA, PER_LAYER,
};
use svc_perfbench::run;
use svc_perfbench::workloads::{by_name, Workload, WORKLOADS};

const USAGE: &str =
    "usage: perfbench --workload <name|all> --seed <n> --seconds <s> --trace <0|1|2>";

struct Args {
    workloads: Vec<&'static Workload>,
    seed: u64,
    seconds: f64,
    traced: Vec<bool>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let slot = match flag.as_str() {
            "--workload" => &mut workload,
            "--seed" => &mut seed,
            "--seconds" => &mut seconds,
            "--trace" => &mut trace,
            _ => return Err(format!("unknown flag {flag}")),
        };
        *slot = Some(value);
    }
    let workload = workload.ok_or("--workload is required")?;
    let workloads = match workload.as_str() {
        "all" => WORKLOADS.iter().collect(),
        name => vec![by_name(name).ok_or_else(|| format!("unknown workload {name}"))?],
    };
    let seed = match seed {
        Some(s) => s.parse().map_err(|_| format!("bad --seed {s}"))?,
        None => return Err("--seed is required".into()),
    };
    let seconds: f64 = match seconds {
        Some(s) => s.parse().map_err(|_| format!("bad --seconds {s}"))?,
        None => return Err("--seconds is required".into()),
    };
    if !(seconds > 0.0 && seconds.is_finite()) {
        return Err("--seconds must be positive".into());
    }
    let traced = match trace.as_deref().unwrap_or("0") {
        "0" => vec![false],
        "1" => vec![true],
        "2" => vec![false, true],
        t => return Err(format!("bad --trace {t}")),
    };
    Ok(Args {
        workloads,
        seed,
        seconds,
        traced,
    })
}

/// Clears every `SVC_*` variable, so no environment knob (engine lanes,
/// faults, watchdog, tracing, profiling, fast-forward, mutations,
/// experiment overrides) alters a run. Returns the names cleared.
fn hermetic() -> Vec<String> {
    let names: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("SVC_"))
        .collect();
    for name in &names {
        std::env::remove_var(name);
    }
    names
}

/// Pins glibc malloc's thresholds. By default they adapt to the
/// allocations a process has freed, and the heap is trimmed when its top
/// is free, so whether a cell's set-up reuses freed pages or faults in
/// fresh ones (and how high the resident set peaks) changes from run to
/// run. Pinned, every pass after the first builds its cells in memory the
/// first pass already touched. Returns whether both settings took.
fn pin_allocator() -> bool {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    // SAFETY: mallopt only sets allocator parameters; it is called
    // before this thread allocates anything it keeps, and no other
    // thread exists.
    unsafe { mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1 && mallopt(M_MMAP_THRESHOLD, 32 << 20) == 1 }
}

/// The checked-out commit, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_string(),
        Err(_) => return "unknown".into(),
    };
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head;
    };
    if let Ok(rev) = std::fs::read_to_string(format!(".git/{reference}")) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find(|l| l.ends_with(reference))
                .and_then(|l| l.split_whitespace().next().map(str::to_string))
        })
        .unwrap_or_else(|| "unknown".into())
}

fn main() -> ExitCode {
    let pinned = pin_allocator();
    let cleared = hermetic();
    let args = match parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    println!(
        "perfbench host_cores={cores} rustc=\"{}\" git={} seed={} seconds={}",
        env!("PERFBENCH_RUSTC"),
        git_rev(),
        args.seed,
        args.seconds
    );
    if !pinned {
        println!("allocator: malloc thresholds not pinned");
    }
    if !cleared.is_empty() {
        println!("hermetic: cleared {}", cleared.join(" "));
    }

    let prefixed = args.workloads.len() > 1;
    let (mut attempted, mut failed) = (0, 0);
    let mut metrics = Vec::new();
    for w in &args.workloads {
        for &traced in &args.traced {
            println!(
                "workload {} ({}): {}",
                w.name,
                if traced { "traced" } else { "untraced" },
                w.why
            );
            let m = if traced {
                run::per_layer(w, args.seed, args.seconds)
            } else {
                run::end_to_end(w, args.seed, args.seconds)
            };
            for note in &m.notes {
                println!("{note}");
            }
            for failure in &m.tally.failures {
                println!("FAILED {failure}");
            }
            let defs: &[_] = if traced { &PER_LAYER } else { &END_TO_END };
            let prefix = if prefixed {
                format!("{}.", w.name)
            } else {
                String::new()
            };
            let chosen = select(defs, &m.values, &prefix);
            if chosen.len() != defs.len() {
                eprintln!("perfbench: {} measured no value for a metric", w.name);
                return ExitCode::from(3);
            }
            print_lines(&chosen);
            print_lines(&select(&END_TO_END_EXTRA, &m.values, &prefix));
            attempted += m.tally.attempted;
            failed += m.tally.failed;
            metrics.extend(chosen);
        }
    }
    match result_json(failed == 0, attempted.max(1), failed, &metrics) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(3);
        }
    }
    if failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
