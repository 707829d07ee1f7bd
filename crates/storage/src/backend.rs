//! Storage backends: in-memory, local disk, and bandwidth-throttled.
//!
//! The throttled wrapper accounts the device time a slower store would
//! spend: every write advances a busy-until horizon at the configured
//! bandwidth, and callers read the simulated write time back. It never
//! sleeps, so a write through it returns at the inner backend's speed and
//! causes no bandwidth-bound stall on the writing thread.

use lowdiff_util::units::{Bandwidth, ByteSize, Secs};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

/// Staging key for one range of an in-flight ranged object (the default
/// [`StorageBackend::put_ranged`] path). `.tmp-` prefixed so crash sweeps
/// reclaim orphaned parts the same way they reclaim torn temp files.
const RANGED_PART_PREFIX: &str = ".tmp-part-";

fn ranged_part_key(key: &str, offset: u64) -> String {
    format!("{RANGED_PART_PREFIX}{offset:016x}-{key}")
}

/// A flat key→blob store. Keys are file-name-safe strings. Keys starting
/// with `.tmp-` are reserved for in-flight staging (ranged-write parts,
/// atomic-rename temporaries) and may be reclaimed after a crash.
pub trait StorageBackend: Send + Sync {
    /// Durably store `data` under `key` (atomic: readers never observe a
    /// partial write *unless* the failure injector tears it on purpose).
    ///
    /// Concurrency contract: `put`s of *distinct* keys may run from any
    /// number of threads simultaneously — the striped persist path relies
    /// on it. Concurrent `put`s of the *same* key are last-writer-wins.
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()>;
    /// Fetch a blob.
    fn get(&self, key: &str) -> io::Result<Vec<u8>>;
    /// Size of a blob in bytes, *without* transferring its contents.
    /// Backends override with a metadata-only lookup; the default is the
    /// correct-but-wasteful download-and-measure.
    fn len(&self, key: &str) -> io::Result<u64> {
        self.get(key).map(|v| v.len() as u64)
    }
    /// All keys, sorted.
    fn list(&self) -> io::Result<Vec<String>>;
    /// Remove a blob (idempotent).
    fn delete(&self, key: &str) -> io::Result<()>;
    /// Total bytes written over this backend's lifetime.
    fn bytes_written(&self) -> u64;

    /// Write one byte range of the object `key`, which will be
    /// `total_len` bytes once complete. Ranges of one object may be
    /// written **concurrently, in any order, from multiple threads**;
    /// they must not overlap. The object becomes visible to
    /// `get`/`len`/`list` only after [`finish_ranged`](Self::finish_ranged)
    /// — until then the bytes live in hidden staging space.
    ///
    /// The default implementation stages each range as a `.tmp-part-`
    /// blob via [`put`](Self::put) — correct on any backend, at the cost
    /// of one extra copy at finish time. Backends with real ranged I/O
    /// (positional file writes, multipart uploads) override it.
    fn put_ranged(&self, key: &str, offset: u64, total_len: u64, data: &[u8]) -> io::Result<()> {
        let _ = total_len;
        self.put(&ranged_part_key(key, offset), data)
    }

    /// Seal a ranged object once every byte of `[0, total_len)` has been
    /// written by [`put_ranged`](Self::put_ranged) calls: the object
    /// appears under `key` atomically. Fails with `InvalidData` when the
    /// staged ranges do not cover exactly `total_len` bytes — a crashed
    /// writer's partial set can never be sealed into a visible object.
    /// (Backends whose staging cannot track per-byte coverage, like
    /// positional file writes, verify total size only; the striped store
    /// layer's per-stripe CRCs close that gap.)
    fn finish_ranged(&self, key: &str, total_len: u64) -> io::Result<()> {
        let suffix = format!("-{key}");
        let mut parts: Vec<(u64, String)> = Vec::new();
        for k in self.list()? {
            let Some(body) = k.strip_prefix(RANGED_PART_PREFIX) else {
                continue;
            };
            let Some(hex) = body.strip_suffix(&suffix) else {
                continue;
            };
            let Ok(offset) = u64::from_str_radix(hex, 16) else {
                continue;
            };
            parts.push((offset, k));
        }
        parts.sort_unstable();
        let mut whole = Vec::with_capacity(total_len as usize);
        for (offset, part) in &parts {
            if *offset != whole.len() as u64 {
                return Err(io::Error::new(
                    io::ErrorKind::InvalidData,
                    format!("ranged object {key}: gap or overlap at offset {offset}"),
                ));
            }
            whole.extend_from_slice(&self.get(part)?);
        }
        if whole.len() as u64 != total_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!(
                    "ranged object {key}: staged {} of {total_len} bytes",
                    whole.len()
                ),
            ));
        }
        self.put(key, &whole)?;
        for (_, part) in &parts {
            self.delete(part)?;
        }
        Ok(())
    }
}

/// An in-flight ranged object in [`MemoryBackend`] staging space: the
/// preallocated buffer plus which `(offset, len)` ranges actually landed,
/// so a sealed object is provably gap-free.
struct StagedRanged {
    buf: Vec<u8>,
    ranges: Vec<(u64, u64)>,
}

/// Verify that `(offset, len)` ranges tile `[0, total_len)` exactly —
/// the seal-time coverage check shared by the staging backends.
fn verify_coverage(key: &str, ranges: &mut [(u64, u64)], total_len: u64) -> io::Result<()> {
    ranges.sort_unstable();
    let mut next = 0u64;
    for &(offset, len) in ranges.iter() {
        if offset != next {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ranged object {key}: gap or overlap at offset {offset}"),
            ));
        }
        next = offset + len;
    }
    if next != total_len {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("ranged object {key}: staged {next} of {total_len} bytes"),
        ));
    }
    Ok(())
}

/// In-memory backend for tests and in-memory (Gemini-style) checkpoints.
#[derive(Default)]
pub struct MemoryBackend {
    map: Mutex<BTreeMap<String, Vec<u8>>>,
    staging: Mutex<BTreeMap<String, StagedRanged>>,
    written: AtomicU64,
}

impl MemoryBackend {
    pub fn new() -> Self {
        Self::default()
    }

    /// Corrupt a stored blob by truncating it — the failure injector's
    /// "torn write" primitive used by recovery tests.
    pub fn truncate_blob(&self, key: &str, keep: usize) {
        let mut map = self.map.lock();
        if let Some(v) = map.get_mut(key) {
            v.truncate(keep);
        }
    }
}

impl StorageBackend for MemoryBackend {
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        self.map.lock().insert(key.to_string(), data.to_vec());
        Ok(())
    }

    fn get(&self, key: &str) -> io::Result<Vec<u8>> {
        self.map
            .lock()
            .get(key)
            .cloned()
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, key.to_string()))
    }

    fn len(&self, key: &str) -> io::Result<u64> {
        self.map
            .lock()
            .get(key)
            .map(|v| v.len() as u64)
            .ok_or_else(|| io::Error::new(io::ErrorKind::NotFound, key.to_string()))
    }

    fn list(&self) -> io::Result<Vec<String>> {
        Ok(self.map.lock().keys().cloned().collect())
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        self.map.lock().remove(key);
        Ok(())
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    // Staging lives in a separate map, so in-flight ranged objects are
    // invisible to get/len/list and each range's bytes are counted exactly
    // once (the default impl's reassembly copy would double-count).
    fn put_ranged(&self, key: &str, offset: u64, total_len: u64, data: &[u8]) -> io::Result<()> {
        let end = offset
            .checked_add(data.len() as u64)
            .filter(|&e| e <= total_len)
            .ok_or_else(|| {
                io::Error::new(
                    io::ErrorKind::InvalidInput,
                    format!("range {offset}+{} exceeds total {total_len}", data.len()),
                )
            })?;
        let mut staging = self.staging.lock();
        let staged = staging
            .entry(key.to_string())
            .or_insert_with(|| StagedRanged {
                buf: vec![0; total_len as usize],
                ranges: Vec::new(),
            });
        if staged.buf.len() as u64 != total_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!(
                    "ranged object {key}: total_len changed mid-flight ({} vs {total_len})",
                    staged.buf.len()
                ),
            ));
        }
        staged.buf[offset as usize..end as usize].copy_from_slice(data);
        staged.ranges.push((offset, data.len() as u64));
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn finish_ranged(&self, key: &str, total_len: u64) -> io::Result<()> {
        let Some(mut staged) = self.staging.lock().remove(key) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("ranged object {key}: no staged ranges"),
            ));
        };
        verify_coverage(key, &mut staged.ranges, total_len)?;
        if staged.buf.len() as u64 != total_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("ranged object {key}: total_len changed at seal"),
            ));
        }
        self.map.lock().insert(key.to_string(), staged.buf);
        Ok(())
    }
}

/// Local-disk backend; writes go to a temp file then rename (atomic on
/// POSIX), so a crash mid-write never leaves a half-visible checkpoint.
pub struct DiskBackend {
    dir: PathBuf,
    written: AtomicU64,
    seq: AtomicU64,
    /// Landed `(offset, len)` ranges per in-flight ranged object. The file
    /// is preallocated to `total_len` up front, so seal-time coverage
    /// cannot be read off the file size — it is tracked here. Lost on
    /// crash, like the `.tmp-ranged-` file itself (both are swept).
    ranged: Mutex<BTreeMap<String, Vec<(u64, u64)>>>,
}

impl DiskBackend {
    pub fn new(dir: impl Into<PathBuf>) -> io::Result<Self> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        // Sweep orphaned temp files from a previous crashed process: they
        // were never renamed into place, so they are garbage by definition.
        for entry in std::fs::read_dir(&dir)? {
            let entry = entry?;
            if entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with(".tmp-"))
            {
                let _ = std::fs::remove_file(entry.path());
            }
        }
        Ok(Self {
            dir,
            written: AtomicU64::new(0),
            seq: AtomicU64::new(0),
            ranged: Mutex::new(BTreeMap::new()),
        })
    }

    /// fsync the directory so a completed rename survives power loss.
    fn sync_dir(&self) -> io::Result<()> {
        std::fs::File::open(&self.dir)?.sync_all()
    }

    fn path(&self, key: &str) -> PathBuf {
        assert!(
            !key.contains(['/', '\\', '\0']),
            "key {key:?} is not file-name safe"
        );
        self.dir.join(key)
    }

    /// Deterministic staging path for an in-flight ranged object: every
    /// stripe writer of `key` must land in the same file. `.tmp-` prefixed
    /// so the crash sweep in [`DiskBackend::new`] reclaims it.
    fn ranged_tmp_path(&self, key: &str) -> PathBuf {
        self.path(key); // reuse the file-name-safety assertion
        self.dir.join(format!(".tmp-ranged-{key}"))
    }
}

impl StorageBackend for DiskBackend {
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
        let tmp = self.dir.join(format!(
            ".tmp-{}-{}",
            std::process::id(),
            self.seq.fetch_add(1, Ordering::Relaxed)
        ));
        // write → fsync(file) → rename → fsync(dir): without the first
        // sync the rename can hit disk before the data does (the blob
        // reads back torn after a crash); without the second the rename
        // itself may be lost.
        {
            let mut f = std::fs::File::create(&tmp)?;
            io::Write::write_all(&mut f, data)?;
            f.sync_all()?;
        }
        std::fs::rename(&tmp, self.path(key))?;
        self.sync_dir()?;
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    fn get(&self, key: &str) -> io::Result<Vec<u8>> {
        std::fs::read(self.path(key))
    }

    fn len(&self, key: &str) -> io::Result<u64> {
        std::fs::metadata(self.path(key)).map(|m| m.len())
    }

    fn list(&self) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(&self.dir)? {
            let name = entry?.file_name().to_string_lossy().into_owned();
            if !name.starts_with(".tmp-") {
                out.push(name);
            }
        }
        out.sort();
        Ok(out)
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        match std::fs::remove_file(self.path(key)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn bytes_written(&self) -> u64 {
        self.written.load(Ordering::Relaxed)
    }

    // Real ranged I/O: every stripe pwrite(2)s into one preallocated
    // `.tmp-ranged-` file (each writer opens its own handle; positional
    // writes need no shared cursor), and finish is the usual
    // fsync → rename → fsync(dir) dance, so the object appears atomically.
    #[cfg(unix)]
    fn put_ranged(&self, key: &str, offset: u64, total_len: u64, data: &[u8]) -> io::Result<()> {
        use std::os::unix::fs::FileExt;
        if offset + data.len() as u64 > total_len {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                format!("range {offset}+{} exceeds total {total_len}", data.len()),
            ));
        }
        let f = std::fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.ranged_tmp_path(key))?;
        if f.metadata()?.len() != total_len {
            f.set_len(total_len)?;
        }
        f.write_at(data, offset)?;
        f.sync_all()?;
        self.ranged
            .lock()
            .entry(key.to_string())
            .or_default()
            .push((offset, data.len() as u64));
        self.written.fetch_add(data.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    #[cfg(unix)]
    fn finish_ranged(&self, key: &str, total_len: u64) -> io::Result<()> {
        let Some(mut ranges) = self.ranged.lock().remove(key) else {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("ranged object {key}: no staged ranges"),
            ));
        };
        verify_coverage(key, &mut ranges, total_len)?;
        let tmp = self.ranged_tmp_path(key);
        let f = std::fs::File::open(&tmp)?;
        f.sync_all()?;
        drop(f);
        std::fs::rename(&tmp, self.path(key))?;
        self.sync_dir()
    }
}

/// Bandwidth-throttled wrapper: models a slower device (SSD at ~3 GB/s,
/// 25 Gbps remote store, …) on top of any inner backend.
///
/// The device is modelled as `channels` independent write lanes, each at
/// `bandwidth` — one lane is a single-stream SSD or NIC flow; several
/// lanes are the parallel channels a striped persist path can drive (a
/// multi-queue NVMe namespace, parallel multipart-upload streams). Each
/// successful write charges the *least-busy* lane — a failed write
/// consumes no device time, since nothing durable moved. No real sleeping
/// — the accounting is all it does; [`total_busy`](Self::total_busy) sums
/// device-time across lanes,
/// [`critical_busy`](Self::critical_busy) is the busiest lane, i.e. the
/// simulated wall-clock a perfectly-overlapped writer would observe.
pub struct ThrottledBackend<B> {
    inner: B,
    bandwidth: Bandwidth,
    /// Per-channel cumulative busy nanoseconds.
    channels: Mutex<Vec<u64>>,
}

impl<B: StorageBackend> ThrottledBackend<B> {
    /// Single write channel — the classic one-stream device.
    pub fn new(inner: B, bandwidth: Bandwidth) -> Self {
        Self::with_channels(inner, bandwidth, 1)
    }

    /// A device with `channels` parallel write lanes of `bandwidth` each.
    pub fn with_channels(inner: B, bandwidth: Bandwidth, channels: usize) -> Self {
        assert!(channels > 0, "need at least one write channel");
        Self {
            inner,
            bandwidth,
            channels: Mutex::new(vec![0; channels]),
        }
    }

    /// Device time to write `n` bytes on one channel.
    pub fn write_latency(&self, n: ByteSize) -> Secs {
        n / self.bandwidth
    }

    /// Cumulative device-busy time summed across all channels (total
    /// device work, regardless of overlap).
    pub fn total_busy(&self) -> Secs {
        Secs(self.channels.lock().iter().sum::<u64>() as f64 / 1e9)
    }

    /// Busy time of the busiest channel — the critical path. With writes
    /// spread across N channels this is what a wall clock would show, so
    /// `bytes / critical_busy` is the effective write throughput.
    pub fn critical_busy(&self) -> Secs {
        Secs(*self.channels.lock().iter().max().unwrap() as f64 / 1e9)
    }

    pub fn num_channels(&self) -> usize {
        self.channels.lock().len()
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Charge `n` bytes of write time to the least-busy channel. Called
    /// only after the inner write succeeded: a failed write moved nothing
    /// durable, so it must not inflate simulated device-busy time.
    fn charge(&self, n: usize) {
        let dt = self.write_latency(ByteSize::bytes(n as u64));
        let nanos = (dt.as_f64() * 1e9) as u64;
        let mut lanes = self.channels.lock();
        let min = lanes
            .iter()
            .enumerate()
            .min_by_key(|(_, &busy)| busy)
            .map(|(i, _)| i)
            .unwrap();
        lanes[min] += nanos;
    }
}

impl<B: StorageBackend> StorageBackend for ThrottledBackend<B> {
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.inner.put(key, data)?;
        self.charge(data.len());
        Ok(())
    }

    fn get(&self, key: &str) -> io::Result<Vec<u8>> {
        self.inner.get(key)
    }

    fn len(&self, key: &str) -> io::Result<u64> {
        self.inner.len(key)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.inner.list()
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        self.inner.delete(key)
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn put_ranged(&self, key: &str, offset: u64, total_len: u64, data: &[u8]) -> io::Result<()> {
        self.inner.put_ranged(key, offset, total_len, data)?;
        self.charge(data.len());
        Ok(())
    }

    // finish_ranged is a metadata operation (rename/seal) — no data moves,
    // so it passes through unthrottled.
    fn finish_ranged(&self, key: &str, total_len: u64) -> io::Result<()> {
        self.inner.finish_ranged(key, total_len)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exercise(b: &dyn StorageBackend) {
        b.put("a", b"hello").unwrap();
        b.put("b", b"world!").unwrap();
        assert_eq!(b.get("a").unwrap(), b"hello");
        assert_eq!(b.len("a").unwrap(), 5, "metadata size must match blob");
        assert_eq!(b.len("b").unwrap(), 6);
        assert_eq!(
            b.len("missing").unwrap_err().kind(),
            io::ErrorKind::NotFound
        );
        assert_eq!(b.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        b.put("a", b"overwritten").unwrap();
        assert_eq!(b.get("a").unwrap(), b"overwritten");
        b.delete("a").unwrap();
        assert!(b.get("a").is_err());
        b.delete("a").unwrap(); // idempotent
        assert_eq!(b.bytes_written(), 5 + 6 + 11);
    }

    #[test]
    fn memory_backend_contract() {
        exercise(&MemoryBackend::new());
    }

    #[test]
    fn disk_backend_contract() {
        let dir = std::env::temp_dir().join(format!("lowdiff-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise(&DiskBackend::new(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_backend_hides_temp_files() {
        let dir = std::env::temp_dir().join(format!("lowdiff-tmp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = DiskBackend::new(&dir).unwrap();
        b.put("x", b"1").unwrap();
        std::fs::write(dir.join(".tmp-999-0"), b"junk").unwrap();
        assert_eq!(b.list().unwrap(), vec!["x".to_string()]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn disk_backend_sweeps_orphaned_temp_files_on_open() {
        let dir = std::env::temp_dir().join(format!("lowdiff-sweep-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // Simulate a crash mid-put of a previous process: orphaned temp
        // files left behind, plus one real checkpoint blob.
        std::fs::write(dir.join(".tmp-123-0"), b"half a checkpoint").unwrap();
        std::fs::write(dir.join(".tmp-123-1"), b"junk").unwrap();
        std::fs::write(dir.join("full-0000000001.ckpt"), b"real").unwrap();
        let b = DiskBackend::new(&dir).unwrap();
        assert_eq!(b.list().unwrap(), vec!["full-0000000001.ckpt".to_string()]);
        assert!(
            !dir.join(".tmp-123-0").exists() && !dir.join(".tmp-123-1").exists(),
            "orphaned temp files must be swept on open"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn throttled_accounts_latency() {
        let b = ThrottledBackend::new(MemoryBackend::new(), Bandwidth::gbps_bytes(1.0));
        let data = vec![0u8; 1_000_000]; // 1 MB at 1 GB/s = 1 ms
        b.put("blob", &data).unwrap();
        assert!((b.total_busy().as_f64() - 1e-3).abs() < 1e-6);
        b.put("blob2", &data).unwrap();
        assert!((b.total_busy().as_f64() - 2e-3).abs() < 1e-6);
        // Reads are free.
        b.get("blob").unwrap();
        assert!((b.total_busy().as_f64() - 2e-3).abs() < 1e-6);
    }

    #[test]
    fn throttled_channels_overlap_writes() {
        let b =
            ThrottledBackend::with_channels(MemoryBackend::new(), Bandwidth::gbps_bytes(1.0), 4);
        let data = vec![0u8; 1_000_000]; // 1 MB at 1 GB/s = 1 ms per lane
        for i in 0..4 {
            b.put(&format!("s{i}"), &data).unwrap();
        }
        // Total device work is 4 ms, but spread over 4 lanes the critical
        // path is 1 ms — the 4x overlap the striped persist path banks on.
        assert!((b.total_busy().as_f64() - 4e-3).abs() < 1e-6);
        assert!((b.critical_busy().as_f64() - 1e-3).abs() < 1e-6);
    }

    #[test]
    fn throttled_charges_only_successful_writes() {
        // Regression: a faulted put used to charge device-busy time before
        // the inner write ran, inflating the simulated stall for writes
        // that moved nothing durable.
        let inner = crate::faults::FaultyBackend::new(
            MemoryBackend::new(),
            crate::faults::FaultConfig::default(),
        );
        let b = ThrottledBackend::new(inner, Bandwidth::gbps_bytes(1.0));
        let data = vec![0u8; 1_000_000];
        b.inner().fail_next_puts(3);
        for _ in 0..3 {
            assert!(b.put("blob", &data).is_err());
        }
        assert_eq!(
            b.total_busy().as_f64(),
            0.0,
            "failed writes must not consume device time"
        );
        b.put("blob", &data).unwrap();
        assert!((b.total_busy().as_f64() - 1e-3).abs() < 1e-6);
    }

    /// Ranged-write contract shared by every backend: out-of-order stripes,
    /// invisibility before seal, coverage check at seal.
    fn exercise_ranged(b: &dyn StorageBackend) {
        let blob: Vec<u8> = (0..100u8).collect();
        b.put_ranged("obj", 60, 100, &blob[60..]).unwrap();
        b.put_ranged("obj", 0, 100, &blob[..60]).unwrap();
        assert_eq!(
            b.get("obj").unwrap_err().kind(),
            io::ErrorKind::NotFound,
            "unsealed ranged object must be invisible"
        );
        b.finish_ranged("obj", 100).unwrap();
        assert_eq!(b.get("obj").unwrap(), blob);
        assert_eq!(b.len("obj").unwrap(), 100);

        // A partial set can never seal.
        b.put_ranged("partial", 0, 100, &blob[..60]).unwrap();
        assert!(b.finish_ranged("partial", 100).is_err());
        assert!(b.get("partial").is_err());

        // A range past the end is rejected outright.
        assert!(b.put_ranged("oob", 90, 100, &blob[..20]).is_err());
    }

    #[test]
    fn memory_backend_ranged_contract() {
        let b = MemoryBackend::new();
        exercise_ranged(&b);
        // Staging must be invisible to list() and bytes counted once per
        // range: "obj" (100) + "partial" (60) landed as ranges.
        assert_eq!(b.list().unwrap(), vec!["obj".to_string()]);
        assert_eq!(b.bytes_written(), 160);
    }

    #[test]
    fn disk_backend_ranged_contract() {
        let dir = std::env::temp_dir().join(format!("lowdiff-ranged-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let b = DiskBackend::new(&dir).unwrap();
        exercise_ranged(&b);
        // The partial object's staging file stays `.tmp-`-hidden…
        assert_eq!(b.list().unwrap(), vec!["obj".to_string()]);
        // …and a reopened backend sweeps it, like any orphaned temp file.
        drop(b);
        let b = DiskBackend::new(&dir).unwrap();
        assert!(!dir.join(".tmp-ranged-partial").exists());
        assert_eq!(b.get("obj").unwrap(), (0..100u8).collect::<Vec<u8>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A backend that opts out of the overrides, so the default
    /// staged-parts implementation of put_ranged/finish_ranged is tested.
    struct BareBackend(MemoryBackend);
    impl StorageBackend for BareBackend {
        fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
            self.0.put(key, data)
        }
        fn get(&self, key: &str) -> io::Result<Vec<u8>> {
            self.0.get(key)
        }
        fn list(&self) -> io::Result<Vec<String>> {
            self.0.list()
        }
        fn delete(&self, key: &str) -> io::Result<()> {
            self.0.delete(key)
        }
        fn bytes_written(&self) -> u64 {
            self.0.bytes_written()
        }
    }

    #[test]
    fn default_ranged_impl_stages_and_reassembles() {
        let b = BareBackend(MemoryBackend::new());
        let blob: Vec<u8> = (0..100u8).collect();
        b.put_ranged("obj", 60, 100, &blob[60..]).unwrap();
        b.put_ranged("obj", 0, 100, &blob[..60]).unwrap();
        assert!(b.get("obj").is_err(), "parts stage under hidden keys");
        b.finish_ranged("obj", 100).unwrap();
        assert_eq!(b.get("obj").unwrap(), blob);
        // Parts are cleaned up after reassembly.
        assert_eq!(b.list().unwrap(), vec!["obj".to_string()]);
        // Partial coverage cannot seal.
        b.put_ranged("partial", 10, 100, &blob[10..60]).unwrap();
        assert!(b.finish_ranged("partial", 100).is_err());
    }

    /// The striped persist invariant: concurrent `put`s of distinct keys
    /// and concurrent `put_ranged`s of one object, from many threads.
    fn exercise_concurrent(b: &(dyn StorageBackend + Sync)) {
        const THREADS: usize = 8;
        const STRIPE: usize = 1000;
        let blob: Vec<u8> = (0..(THREADS * STRIPE)).map(|i| (i % 251) as u8).collect();
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let blob = &blob;
                s.spawn(move || {
                    // A whole-object put of a distinct key…
                    b.put(&format!("whole-{t}"), &[t as u8; 64]).unwrap();
                    // …and one stripe of the shared ranged object.
                    let off = t * STRIPE;
                    b.put_ranged(
                        "striped",
                        off as u64,
                        blob.len() as u64,
                        &blob[off..off + STRIPE],
                    )
                    .unwrap();
                });
            }
        });
        b.finish_ranged("striped", blob.len() as u64).unwrap();
        assert_eq!(b.get("striped").unwrap(), blob);
        for t in 0..THREADS {
            assert_eq!(b.get(&format!("whole-{t}")).unwrap(), vec![t as u8; 64]);
        }
    }

    #[test]
    fn memory_backend_concurrent_puts() {
        exercise_concurrent(&MemoryBackend::new());
    }

    #[test]
    fn disk_backend_concurrent_puts() {
        let dir = std::env::temp_dir().join(format!("lowdiff-conc-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        exercise_concurrent(&DiskBackend::new(&dir).unwrap());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn memory_truncate_blob_for_failure_injection() {
        let b = MemoryBackend::new();
        b.put("ckpt", &[1, 2, 3, 4, 5, 6]).unwrap();
        b.truncate_blob("ckpt", 2);
        assert_eq!(b.get("ckpt").unwrap(), vec![1, 2]);
    }

    #[test]
    #[should_panic(expected = "not file-name safe")]
    fn disk_rejects_path_traversal() {
        let dir = std::env::temp_dir().join(format!("lowdiff-sec-{}", std::process::id()));
        let b = DiskBackend::new(&dir).unwrap();
        let _ = b.put("../evil", b"x");
    }
}
