//! The benchmark's own tests: the timing decorators leave reports
//! identical, a perturbed reference is caught, and every name the
//! benchmark publishes is valid and matches `BENCHMARK.json`.

use std::path::PathBuf;

use svc_perfbench::adapter::{self, CellSpec, Instruments, Memory, Oracle, Reference, Source};
use svc_perfbench::metrics::{valid_name, valid_unit, END_TO_END, PER_LAYER};
use svc_perfbench::probe::Site;
use svc_perfbench::workloads::{by_name, PAPER_SEED, WORKLOADS};

fn repo_file(rel: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("..")
        .join(rel)
}

fn cell(source: Source, memory: Memory, budget: u64, instruments: Instruments) -> CellSpec {
    CellSpec {
        source,
        memory,
        budget,
        seed: 7,
        instruments,
    }
}

const SVC: Memory = Memory::Svc { pus: 4, kb: 8 };
const ARB: Memory = Memory::Arb {
    pus: 4,
    hit_cycles: 2,
    kb: 32,
};

#[test]
fn decorators_leave_reports_identical() {
    let all = Instruments {
        trace: true,
        profile: true,
        watchdog: 256,
        checkpoint_every: 1_000,
    };
    let cells = [
        cell(Source::Spec("gcc"), SVC, 20_000, Instruments::default()),
        cell(Source::Spec("mgrid"), ARB, 20_000, Instruments::default()),
        cell(Source::Spec("gcc"), SVC, 4_000, all),
        cell(Source::Spec("gcc"), ARB, 4_000, all),
        cell(
            Source::ConflictDensity {
                tasks: 2_000,
                density: 0.5,
            },
            SVC,
            0,
            Instruments::default(),
        ),
    ];
    for spec in &cells {
        let plain = adapter::run(adapter::setup(spec, false));
        let traced = adapter::run(adapter::setup(spec, true));
        assert!(plain.probes.is_none());
        assert!(traced.report.same(&plain.report), "{}", spec.name());
        let probes = traced.probes.expect("traced cell has probes");
        for site in [
            Site::Load,
            Site::Store,
            Site::Commit,
            Site::Assign,
            Site::Task,
        ] {
            assert!(probes[site as usize].calls > 0, "{}: {site:?}", spec.name());
        }
        if spec.instruments.watchdog > 0 {
            assert!(probes[Site::Sweep as usize].calls > 0, "{}", spec.name());
            assert_eq!(traced.hooks.violations, 0);
        }
        if spec.instruments.checkpoint_every > 0 {
            assert!(traced.hooks.ckpt_saves > 0);
            assert_eq!(traced.hooks.ckpt_mismatches, 0);
        }
    }
}

#[test]
fn kernel_cells_drain_like_the_ideal_memory_and_its_replay() {
    let kernels = [
        Source::ProducerConsumer {
            tasks: 500,
            work: 4,
        },
        Source::ConflictDensity {
            tasks: 500,
            density: 0.5,
        },
    ];
    for source in kernels {
        let spec = cell(source, SVC, 0, Instruments::default());
        for oracle in [Oracle::Ideal, Oracle::Replay] {
            let outcome = adapter::run(adapter::setup(&spec, false));
            let check = adapter::compare_drained(outcome, oracle);
            assert!(check.addresses > 0);
            assert_eq!(check.mismatches, 0, "{} vs {oracle:?}", spec.name());
        }
    }
}

#[test]
fn perturbed_reference_is_reported_as_a_failure() {
    let text = std::fs::read_to_string(repo_file("results/fig19.json")).expect("fig19.json");
    let spec = CellSpec {
        seed: PAPER_SEED,
        ..cell(Source::Spec("gcc"), ARB, 400_000, Instruments::default())
    };
    let report = adapter::run(adapter::setup(&spec, false)).report;
    let reference = Reference::parse(&text).expect("parses");
    assert_eq!(reference.check(&report, PAPER_SEED), Ok(()));
    assert!(
        reference.check(&report, PAPER_SEED + 1).is_err(),
        "the seed is part of the reference"
    );

    let cycles = report.counts.cycles;
    let perturbed = text.replace(
        &format!("\"cycles\": {cycles},"),
        &format!("\"cycles\": {},", cycles + 1),
    );
    assert_ne!(perturbed, text, "the run's cycle count appears in the file");
    let reference = Reference::parse(&perturbed).expect("parses");
    assert!(reference.check(&report, PAPER_SEED).is_err());
}

/// The `(name, unit)` of each object in the JSON array under `key`.
fn names_under(doc: &str, key: &str) -> Vec<(String, Option<String>)> {
    adapter::manifest_entries(doc)
        .expect("BENCHMARK.json parses")
        .into_iter()
        .find(|(k, _)| k == key)
        .map(|(_, entries)| entries)
        .unwrap_or_default()
}

#[test]
fn names_are_valid_and_match_the_manifest() {
    for w in &WORKLOADS {
        assert!(valid_name(w.name), "{}", w.name);
        assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        assert!(valid_name(name) && valid_unit(unit), "{name} {unit}");
    }

    let manifest = std::fs::read_to_string(repo_file("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names_under(&manifest, "workloads");
    assert!(workloads.len() >= 2);
    for (name, _) in &workloads {
        assert!(by_name(name).is_some(), "{name} is not a workload");
    }
    for (key, defs) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed = names_under(&manifest, key);
        let ours: Vec<(String, Option<String>)> = defs
            .iter()
            .map(|(n, u)| (n.to_string(), Some(u.to_string())))
            .collect();
        assert_eq!(listed, ours, "{key}");
    }
}
