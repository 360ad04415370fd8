//! Concurrent crash-atomic writers: threads of this process and child
//! processes all `write_atomic` one path while a reader polls it. Every
//! read must return one writer's complete payload, every write must
//! succeed, and no temporary file may be left behind.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Barrier;
use std::thread;

use svc_sim::checkpoint::write_atomic;

const WRITERS: usize = 4;
const WRITES: usize = 25;
const BODY: usize = 32 * 1024;

/// Set in a child process: the path it writes and its writer id.
const CHILD_ENV: &str = "WRITE_ATOMIC_RACE_CHILD";

/// Writer `id`'s `k`-th payload: a header, then a body of one repeated
/// byte particular to the writer.
fn payload(id: usize, k: usize) -> Vec<u8> {
    let mut bytes = format!("{id}:{k}:").into_bytes();
    bytes.extend(std::iter::repeat_n(b'a' + id as u8, BODY));
    bytes
}

/// Panics unless `bytes` is exactly some writer's complete payload.
fn check_whole(bytes: &[u8]) {
    let text = std::str::from_utf8(bytes).expect("payload is ASCII");
    let mut parts = text.splitn(3, ':');
    let id: usize = parts.next().unwrap().parse().expect("writer id");
    let k: usize = parts.next().unwrap().parse().expect("write index");
    assert!(id < 2 * WRITERS && k < WRITES, "bad header {id}:{k}");
    assert_eq!(bytes, payload(id, k), "torn payload from writer {id}");
}

fn write_all(path: &Path, id: usize) {
    for k in 0..WRITES {
        write_atomic(path, &payload(id, k)).expect("concurrent write_atomic failed");
    }
}

fn scratch_dir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("svc-write-race-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

/// The child-process side: a no-op unless spawned by the test below.
#[test]
fn child_writer() {
    if let Ok(spec) = std::env::var(CHILD_ENV) {
        let (id, path) = spec.split_once(':').expect("id:path");
        write_all(Path::new(path), id.parse().unwrap());
    }
}

#[test]
fn threads_and_processes_never_tear_a_write() {
    let dir = scratch_dir();
    let path = dir.join("shared.bin");
    write_atomic(&path, &payload(0, 0)).unwrap();
    let exe = std::env::current_exe().unwrap();
    let children: Vec<_> = (WRITERS..2 * WRITERS)
        .map(|id| {
            Command::new(&exe)
                .args(["--exact", "child_writer", "--test-threads=1", "--quiet"])
                .env(CHILD_ENV, format!("{id}:{}", path.display()))
                .stdout(Stdio::piped())
                .spawn()
                .expect("spawn writer process")
        })
        .collect();
    let done = AtomicBool::new(false);
    // The writer threads start together, so their writes overlap.
    let start = Barrier::new(WRITERS);
    let reads = thread::scope(|s| {
        let reader = s.spawn(|| {
            let mut reads = 0;
            while !done.load(Ordering::Relaxed) {
                check_whole(&fs::read(&path).expect("target always exists"));
                reads += 1;
            }
            reads
        });
        let writers: Vec<_> = (0..WRITERS)
            .map(|id| {
                let (path, start) = (&path, &start);
                s.spawn(move || {
                    start.wait();
                    write_all(path, id)
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        for child in children {
            let out = child.wait_with_output().unwrap();
            let log = String::from_utf8_lossy(&out.stdout);
            assert!(out.status.success(), "writer process failed:\n{log}");
        }
        done.store(true, Ordering::Relaxed);
        reader.join().unwrap()
    });
    assert!(reads > 0);
    check_whole(&fs::read(&path).unwrap());
    let left: Vec<_> = fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().file_name())
        .collect();
    assert_eq!(left, [std::ffi::OsString::from("shared.bin")]);
    let _ = fs::remove_dir_all(&dir);
}
