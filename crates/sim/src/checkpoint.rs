//! Crash-safe checkpoint files: a versioned, checksummed container and a
//! bounded on-disk ring of them.
//!
//! A checkpoint file is a single self-describing blob:
//!
//! ```text
//! magic   "svc-checkpoint/v1"          (17 bytes, fixed)
//! kind    u32 length + UTF-8 bytes     (what produced it: "soak", "run", …)
//! payload u64 length + bytes           (a [`CkptWriter`] serialization)
//! trailer u64 FNV-1a over all prior bytes
//! ```
//!
//! The trailer is what makes crash recovery safe: a write torn by a
//! `SIGKILL` (truncated file, half-written payload) fails the checksum and
//! is skipped, so [`CheckpointRing::newest_valid`] falls back to the
//! previous intact checkpoint instead of restoring garbage. Writes go
//! through [`write_atomic`] (temp sibling + fsync + rename), so a reader
//! never observes a partially written file under the final name — the
//! checksum is defense in depth for filesystems that reorder the rename
//! past the data blocks.
//!
//! [`CkptWriter`]: svc_types::CkptWriter

use std::fs;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use svc_types::{CkptError, StateHasher};

/// The container magic; doubles as the schema version.
pub const MAGIC: &[u8; 17] = b"svc-checkpoint/v1";

/// Largest kind tag accepted when decoding (sanity bound).
const MAX_KIND_LEN: usize = 256;

/// Largest payload accepted when decoding (sanity bound; real checkpoints
/// are a few hundred KB).
const MAX_PAYLOAD_LEN: u64 = 1 << 32;

/// FNV-1a over `bytes` (the trailer algorithm).
pub fn checksum(bytes: &[u8]) -> u64 {
    let mut h = StateHasher::new();
    h.write_bytes(bytes);
    h.finish()
}

/// Frames `payload` into a checkpoint file image: magic, kind tag,
/// payload, checksum trailer.
pub fn encode(kind: &str, payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + kind.len() + payload.len() + 32);
    out.extend_from_slice(MAGIC);
    out.extend_from_slice(&(kind.len() as u32).to_le_bytes());
    out.extend_from_slice(kind.as_bytes());
    out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
    out.extend_from_slice(payload);
    let sum = checksum(&out);
    out.extend_from_slice(&sum.to_le_bytes());
    out
}

/// Parses and verifies a checkpoint file image, returning `(kind,
/// payload)`. Truncated, oversized, or checksum-failed images are
/// rejected with a [`CkptError`] describing what was wrong.
pub fn decode(bytes: &[u8]) -> Result<(String, Vec<u8>), CkptError> {
    let mut pos = 0usize;
    let take = |pos: &mut usize, n: usize| -> Result<&[u8], CkptError> {
        let end = pos.checked_add(n).ok_or(CkptError::Truncated)?;
        // The trailer is not part of the framed region.
        if end > bytes.len().saturating_sub(8) {
            return Err(CkptError::Truncated);
        }
        let s = &bytes[*pos..end];
        *pos = end;
        Ok(s)
    };
    if bytes.len() < MAGIC.len() + 4 + 8 + 8 {
        return Err(CkptError::Truncated);
    }
    if take(&mut pos, MAGIC.len())? != MAGIC {
        return Err(CkptError::corrupt("bad magic (not a checkpoint file?)"));
    }
    let kind_len = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
    if kind_len > MAX_KIND_LEN {
        return Err(CkptError::corrupt(format!("kind tag of {kind_len} bytes")));
    }
    let kind = std::str::from_utf8(take(&mut pos, kind_len)?)
        .map_err(|_| CkptError::corrupt("kind tag is not UTF-8"))?
        .to_owned();
    let payload_len = u64::from_le_bytes(take(&mut pos, 8)?.try_into().expect("8 bytes"));
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(CkptError::corrupt(format!(
            "payload of {payload_len} bytes"
        )));
    }
    let payload = take(&mut pos, payload_len as usize)?.to_vec();
    if pos != bytes.len() - 8 {
        return Err(CkptError::corrupt(format!(
            "{} trailing bytes after payload",
            bytes.len() - 8 - pos
        )));
    }
    let stored = u64::from_le_bytes(bytes[pos..].try_into().expect("8 bytes"));
    let actual = checksum(&bytes[..pos]);
    if stored != actual {
        return Err(CkptError::corrupt(format!(
            "checksum mismatch: stored {stored:#018x}, computed {actual:#018x}"
        )));
    }
    Ok((kind, payload))
}

/// Writes `bytes` to `path` crash-atomically: the data lands in a
/// temporary sibling (`<name>.<pid>.<seq>.tmp`, unique per process and
/// call), is fsync'd, and is renamed over the final name, so a reader (or
/// a crash at any point) sees either the old complete file or the new
/// complete file — never a torn mix — however many threads and processes
/// write `path` at once. The parent directory is fsync'd afterwards on a
/// best-effort basis so the rename itself survives power loss, and
/// `<name>.*.tmp` siblings left by writers that have exited are removed.
pub fn write_atomic(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let tmp = unique_sibling(path, "tmp");
    {
        let mut f = fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    if let Err(e) = fs::rename(&tmp, path) {
        let _ = fs::remove_file(&tmp);
        return Err(e);
    }
    let dir = parent_dir(path);
    // Directory fsync is advisory: not all filesystems support opening a
    // directory for sync, and the rename is already atomic.
    if let Ok(d) = fs::File::open(dir) {
        let _ = d.sync_all();
    }
    let name = path.file_name().and_then(|n| n.to_str());
    if let (Ok(entries), Some(name)) = (fs::read_dir(dir), name) {
        for entry in entries.flatten() {
            let stale = entry
                .file_name()
                .to_str()
                .and_then(tmp_writer)
                .is_some_and(|(target, pid)| target == name && !writer_alive(pid));
            if stale {
                let _ = fs::remove_file(entry.path());
            }
        }
    }
    Ok(())
}

/// Checks that `dir` accepts [`write_atomic`] writes by writing and
/// removing a probe file there. The probe's name is unique per process
/// and call, so concurrent probes of one directory never collide.
pub fn probe_writable(dir: &Path) -> io::Result<()> {
    let probe = unique_sibling(&dir.join(".svc-write-probe"), "probe");
    write_atomic(&probe, b"probe")?;
    fs::remove_file(&probe)
}

/// Orders the names [`unique_sibling`] hands out within this process.
static SIBLING_SEQ: AtomicU64 = AtomicU64::new(0);

/// `<name>.<pid>.<seq>.<ext>` next to `path`: no other call, in this
/// process or another, gets the same name.
fn unique_sibling(path: &Path, ext: &str) -> PathBuf {
    let seq = SIBLING_SEQ.fetch_add(1, Ordering::Relaxed);
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    name.push(format!(".{}.{seq}.{ext}", std::process::id()));
    path.with_file_name(name)
}

/// The directory holding `path` (`.` for a bare file name).
pub fn parent_dir(path: &Path) -> &Path {
    match path.parent() {
        Some(d) if !d.as_os_str().is_empty() => d,
        _ => Path::new("."),
    }
}

/// The target name and writer pid of a temporary file named
/// `<target>.<pid>.<seq>.tmp` by [`write_atomic`].
fn tmp_writer(file: &str) -> Option<(&str, u32)> {
    let mut parts = file.strip_suffix(".tmp")?.rsplitn(3, '.');
    let seq = parts.next()?;
    let pid = parts.next()?.parse().ok()?;
    let target = parts.next()?;
    seq.parse::<u64>().ok()?;
    Some((target, pid))
}

/// Whether process `pid` may still be writing. Without `/proc` there is
/// no portable probe, so every writer counts as live.
fn writer_alive(pid: u32) -> bool {
    pid == std::process::id()
        || !Path::new("/proc/self").exists()
        || Path::new("/proc").join(pid.to_string()).exists()
}

/// One decoded checkpoint pulled from a [`CheckpointRing`].
#[derive(Debug, Clone)]
pub struct Checkpoint {
    /// Monotonic sequence number (from the file name).
    pub seq: u64,
    /// The file it was read from.
    pub path: PathBuf,
    /// The producer's kind tag (e.g. `"soak"`).
    pub kind: String,
    /// The serialized state.
    pub payload: Vec<u8>,
}

/// Status of the newest checkpoint file in a ring, decoded for health
/// reporting without keeping the payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RingStatus {
    /// Sequence number of the newest file present.
    pub seq: u64,
    /// Whether it decoded and passed its checksum.
    pub valid: bool,
    /// Its kind tag when valid.
    pub kind: Option<String>,
}

/// A bounded ring of checkpoint files in one directory.
///
/// Files are named `ckpt-NNNNNN.svc` with a monotonically increasing
/// sequence number; writing a new checkpoint prunes the oldest files
/// beyond the retention count. Recovery scans newest-first and returns
/// the first file that decodes cleanly, so a torn newest checkpoint
/// falls back to its predecessor.
#[derive(Debug)]
pub struct CheckpointRing {
    dir: PathBuf,
    keep: usize,
    next_seq: u64,
}

impl CheckpointRing {
    /// Opens (creating if needed) a ring at `dir` retaining `keep`
    /// checkpoints. Stale `.tmp` files from an interrupted writer are
    /// removed (a live writer's are left alone); existing checkpoints are
    /// kept and the sequence continues after the highest one found.
    ///
    /// # Panics
    ///
    /// Panics if `keep` is zero.
    pub fn open(dir: &Path, keep: usize) -> io::Result<CheckpointRing> {
        assert!(keep > 0, "a ring must retain at least one checkpoint");
        fs::create_dir_all(dir)?;
        let mut next_seq = 0;
        for (seq, path) in Self::scan(dir)? {
            next_seq = next_seq.max(seq + 1);
            let _ = path; // existing checkpoints are kept
        }
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(file) = path.file_name().and_then(|f| f.to_str()) else {
                continue;
            };
            // A tmp file without a writer pid predates per-writer names.
            let stale = file.ends_with(".tmp")
                && tmp_writer(file).is_none_or(|(_, pid)| !writer_alive(pid));
            if stale {
                let _ = fs::remove_file(&path);
            }
        }
        Ok(CheckpointRing {
            dir: dir.to_path_buf(),
            keep,
            next_seq,
        })
    }

    /// The ring's directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The sequence number the next write will use.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Frames, checksums, and atomically writes one checkpoint, then
    /// prunes files beyond the retention count. Returns the path written.
    pub fn write(&mut self, kind: &str, payload: &[u8]) -> io::Result<PathBuf> {
        let path = self.path_for(self.next_seq);
        write_atomic(&path, &encode(kind, payload))?;
        self.next_seq += 1;
        self.prune()?;
        Ok(path)
    }

    /// All checkpoint files present, ascending by sequence number.
    pub fn list(&self) -> io::Result<Vec<(u64, PathBuf)>> {
        Self::scan(&self.dir)
    }

    /// The newest checkpoint that decodes cleanly, scanning backwards
    /// over torn or corrupt files. `None` if no valid checkpoint exists.
    pub fn newest_valid(&self) -> io::Result<Option<Checkpoint>> {
        let mut files = Self::scan(&self.dir)?;
        files.reverse();
        for (seq, path) in files {
            let Ok(bytes) = fs::read(&path) else { continue };
            if let Ok((kind, payload)) = decode(&bytes) {
                return Ok(Some(Checkpoint {
                    seq,
                    path,
                    kind,
                    payload,
                }));
            }
        }
        Ok(None)
    }

    /// Decodes just the newest file for health reporting: its sequence
    /// number and whether its checksum holds.
    pub fn status(&self) -> io::Result<Option<RingStatus>> {
        let Some((seq, path)) = Self::scan(&self.dir)?.into_iter().next_back() else {
            return Ok(None);
        };
        let decoded = fs::read(&path).ok().and_then(|b| decode(&b).ok());
        Ok(Some(RingStatus {
            seq,
            valid: decoded.is_some(),
            kind: decoded.map(|(kind, _)| kind),
        }))
    }

    fn path_for(&self, seq: u64) -> PathBuf {
        self.dir.join(format!("ckpt-{seq:06}.svc"))
    }

    fn prune(&self) -> io::Result<()> {
        let files = Self::scan(&self.dir)?;
        if files.len() > self.keep {
            for (_, path) in &files[..files.len() - self.keep] {
                let _ = fs::remove_file(path);
            }
        }
        Ok(())
    }

    fn scan(dir: &Path) -> io::Result<Vec<(u64, PathBuf)>> {
        let mut out = Vec::new();
        for entry in fs::read_dir(dir)? {
            let path = entry?.path();
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let Some(seq) = name
                .strip_prefix("ckpt-")
                .and_then(|s| s.strip_suffix(".svc"))
                .and_then(|s| s.parse::<u64>().ok())
            else {
                continue;
            };
            out.push((seq, path));
        }
        out.sort();
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("svc-ckpt-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    #[test]
    fn encode_decode_round_trip() {
        let img = encode("soak", b"hello state");
        let (kind, payload) = decode(&img).unwrap();
        assert_eq!(kind, "soak");
        assert_eq!(payload, b"hello state");
    }

    #[test]
    fn truncation_fails_cleanly_at_every_length() {
        let img = encode("run", &[7u8; 100]);
        for n in 0..img.len() {
            assert!(decode(&img[..n]).is_err(), "prefix of {n} bytes accepted");
        }
        decode(&img).unwrap();
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let img = encode("run", b"payload bytes");
        for i in 0..img.len() {
            let mut bad = img.clone();
            bad[i] ^= 1;
            assert!(decode(&bad).is_err(), "bit flip at byte {i} accepted");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let mut img = encode("run", b"x");
        img.extend_from_slice(b"junk");
        assert!(decode(&img).is_err());
    }

    #[test]
    fn ring_prunes_to_keep_and_continues_sequence() {
        let dir = scratch("ring");
        let mut ring = CheckpointRing::open(&dir, 3).unwrap();
        for i in 0..5u8 {
            ring.write("t", &[i]).unwrap();
        }
        let files = ring.list().unwrap();
        assert_eq!(
            files.iter().map(|(s, _)| *s).collect::<Vec<_>>(),
            vec![2, 3, 4]
        );
        // Re-opening resumes numbering after the highest survivor.
        drop(ring);
        let mut ring = CheckpointRing::open(&dir, 3).unwrap();
        assert_eq!(ring.next_seq(), 5);
        ring.write("t", &[9]).unwrap();
        assert_eq!(ring.newest_valid().unwrap().unwrap().seq, 5);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn newest_valid_skips_torn_checkpoint() {
        let dir = scratch("torn");
        let mut ring = CheckpointRing::open(&dir, 4).unwrap();
        ring.write("t", b"old good").unwrap();
        let newest = ring.write("t", b"new good").unwrap();
        // Tear the newest file in half, as a SIGKILL mid-write would.
        let bytes = fs::read(&newest).unwrap();
        fs::write(&newest, &bytes[..bytes.len() / 2]).unwrap();
        let got = ring.newest_valid().unwrap().unwrap();
        assert_eq!(got.seq, 0);
        assert_eq!(got.payload, b"old good");
        let status = ring.status().unwrap().unwrap();
        assert_eq!(status.seq, 1);
        assert!(!status.valid);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_tmp_files_are_cleaned_on_open() {
        let dir = scratch("tmp");
        fs::create_dir_all(&dir).unwrap();
        fs::write(dir.join("ckpt-000007.svc.tmp"), b"half").unwrap();
        let ring = CheckpointRing::open(&dir, 2).unwrap();
        assert!(!dir.join("ckpt-000007.svc.tmp").exists());
        assert!(ring.newest_valid().unwrap().is_none());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_atomic_replaces_existing_content() {
        let dir = scratch("atomic");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        write_atomic(&path, b"first").unwrap();
        write_atomic(&path, b"second").unwrap();
        assert_eq!(fs::read(&path).unwrap(), b"second");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 1, "tmp file left");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn tmp_names_are_unique_and_parse_back() {
        let path = Path::new("dir/out.json");
        let (a, b) = (unique_sibling(path, "tmp"), unique_sibling(path, "tmp"));
        assert_ne!(a, b);
        let name = a.file_name().unwrap().to_str().unwrap();
        assert_eq!(tmp_writer(name), Some(("out.json", std::process::id())));
        assert_eq!(tmp_writer("out.json.tmp"), None);
        assert_eq!(tmp_writer("out.json.12.x.tmp"), None);
    }

    /// A pid no process holds: that of a child that has been reaped.
    fn dead_pid() -> u32 {
        let mut child = std::process::Command::new("true").spawn().unwrap();
        let pid = child.id();
        child.wait().unwrap();
        pid
    }

    #[test]
    fn dead_writers_tmp_siblings_are_removed() {
        if !Path::new("/proc/self").exists() {
            return; // no liveness probe: every writer counts as live
        }
        let dir = scratch("stale");
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("out.json");
        let dead = dir.join(format!("out.json.{}.0.tmp", dead_pid()));
        let live = dir.join(format!("out.json.{}.999.tmp", std::process::id()));
        let other = dir.join(format!("other.json.{}.0.tmp", dead_pid()));
        for f in [&dead, &live, &other] {
            fs::write(f, b"half").unwrap();
        }
        write_atomic(&path, b"whole").unwrap();
        assert!(!dead.exists() && live.exists() && other.exists());
        CheckpointRing::open(&dir, 1).unwrap();
        assert!(live.exists() && !other.exists());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn probes_leave_nothing_behind() {
        let dir = scratch("probe");
        fs::create_dir_all(&dir).unwrap();
        probe_writable(&dir).unwrap();
        probe_writable(&dir).unwrap();
        assert_eq!(fs::read_dir(&dir).unwrap().count(), 0);
        assert!(probe_writable(&dir.join("missing")).is_err());
        let _ = fs::remove_dir_all(&dir);
    }
}
