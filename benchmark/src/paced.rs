//! [`PacedBackend`]: the storage layer seen from outside.
//!
//! Wraps any [`StorageBackend`] under the `CheckpointStore`, counts and
//! timestamps every call, and — unlike the repo's `ThrottledBackend`,
//! which only *accounts* bandwidth — really sleeps each `put`/`put_ranged`
//! until `bytes ÷ bandwidth` has passed on a single device lane, so a
//! "80 MB/s" store takes the wall time an 80 MB/s device would. It holds no
//! blob bytes itself: memory stays bounded by what the wrapped backend
//! retains.

use crate::stats::{Cause, Lane, Trace};
use lowdiff_storage::StorageBackend;
use std::collections::BTreeMap;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// One completed write as the wrapper saw it.
#[derive(Clone, Debug)]
pub struct PutRecord {
    pub key: String,
    pub bytes: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

#[derive(Clone, Debug, Default)]
pub struct BackendCounters {
    pub puts: u64,
    pub ranged_puts: u64,
    pub put_bytes: u64,
    pub gets: u64,
    pub get_bytes: u64,
    pub lists: u64,
    pub deletes: u64,
    pub live_bytes: u64,
    pub live_bytes_max: u64,
}

#[derive(Default)]
struct Log {
    counters: BackendCounters,
    /// Whole-object puts and ranged puts, in completion order.
    puts: Vec<PutRecord>,
    /// Size of every visible object, for `live_bytes`.
    live: BTreeMap<String, u64>,
    /// Bytes staged by ranged puts of a not-yet-finished object.
    staged: BTreeMap<String, u64>,
    /// The paced lane is busy until this instant (ns on the trace clock).
    lane_busy_until_ns: u64,
}

pub struct PacedBackend {
    inner: Arc<dyn StorageBackend>,
    /// `None` = unpaced: calls cost what the wrapped backend costs.
    bytes_per_sec: Option<f64>,
    trace: Arc<Trace>,
    log: Mutex<Log>,
}

/// A checkpoint blob named by the store's key scheme.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Blob {
    /// `full-<t>…`: the full checkpoint of `M_t`.
    Full(u64),
    /// `diff-<a>-<b>…`: the reused gradients of iterations `a..=b`.
    Diff(u64, u64),
}

pub fn parse_key(key: &str) -> Option<Blob> {
    let digits = |s: &str| s.get(..10).and_then(|d| d.parse::<u64>().ok());
    if let Some(rest) = key.strip_prefix("full-") {
        return digits(rest).map(Blob::Full);
    }
    let rest = key.strip_prefix("diff-")?;
    Some(Blob::Diff(digits(rest)?, digits(rest.get(11..)?)?))
}

/// The hook call that caused a blob's write, and the iteration its spans
/// share: a full is caused by the `after_update` that left `M_t`, a batch
/// by the `on_synced_gradient` of its last gradient.
fn cause_of_key(key: &str) -> Option<(Cause, u64)> {
    parse_key(key).map(|b| match b {
        Blob::Full(t) => (Cause::AfterUpdate, t),
        Blob::Diff(_, end) => (Cause::Synced, end),
    })
}

/// True for the put that makes a checkpoint visible to recovery: the
/// plain blob, or the stripe manifest (`.sm.ckpt`) — not the `.sd.ckpt`
/// data object, which is invisible until sealed.
pub fn is_visibility_put(key: &str) -> bool {
    key.ends_with(".ckpt") && !key.ends_with(".sd.ckpt")
}

impl PacedBackend {
    pub fn new(inner: Arc<dyn StorageBackend>, mb_per_sec: Option<f64>, trace: Arc<Trace>) -> Self {
        Self {
            inner,
            bytes_per_sec: mb_per_sec.map(|mb| mb * 1e6),
            trace,
            log: Mutex::new(Log::default()),
        }
    }

    pub fn counters(&self) -> BackendCounters {
        self.lock().counters.clone()
    }

    pub fn put_log(&self) -> Vec<PutRecord> {
        self.lock().puts.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Log> {
        self.log.lock().expect("paced backend log lock")
    }

    /// Run one write of `bytes` through the lane: reserve the device from
    /// whenever it is next free, do the real write, then sleep out the
    /// rest of the reservation. Deadlines are absolute, so sleep overshoot
    /// never accumulates while the lane stays busy.
    fn paced_write(
        &self,
        key: &str,
        bytes: u64,
        ranged: bool,
        write: impl FnOnce() -> io::Result<()>,
    ) -> io::Result<()> {
        let start_ns = self.trace.now_ns();
        let deadline_ns = self.bytes_per_sec.map(|bps| {
            let mut g = self.lock();
            let begin = g.lane_busy_until_ns.max(start_ns);
            let deadline = begin + (bytes as f64 / bps * 1e9) as u64;
            g.lane_busy_until_ns = deadline;
            deadline
        });
        let result = write();
        if let Some(deadline) = deadline_ns {
            let now = self.trace.now_ns();
            if deadline > now {
                std::thread::sleep(Duration::from_nanos(deadline - now));
            }
        }
        let end_ns = self.trace.now_ns();
        if result.is_ok() {
            let mut g = self.lock();
            g.counters.put_bytes += bytes;
            if ranged {
                g.counters.ranged_puts += 1;
                *g.staged.entry(key.to_string()).or_default() += bytes;
            } else {
                g.counters.puts += 1;
                g.set_live(key, bytes);
            }
            g.puts.push(PutRecord {
                key: key.to_string(),
                bytes,
                start_ns,
                end_ns,
            });
        }
        if self.trace.enabled() {
            let (parent, id) = match cause_of_key(key) {
                Some((cause, t)) => (self.trace.cause_of(cause, t), t),
                None => (crate::stats::NO_PARENT, 0),
            };
            let name = if ranged {
                "backend.put_ranged"
            } else {
                "backend.put"
            };
            self.trace
                .record(name, start_ns, end_ns, parent, id, Lane::Checkpoint);
        }
        result
    }
}

impl Log {
    fn set_live(&mut self, key: &str, bytes: u64) {
        let old = self.live.insert(key.to_string(), bytes).unwrap_or(0);
        let c = &mut self.counters;
        c.live_bytes = c.live_bytes + bytes - old;
        c.live_bytes_max = c.live_bytes_max.max(c.live_bytes);
    }
}

impl StorageBackend for PacedBackend {
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
        self.paced_write(key, data.len() as u64, false, || self.inner.put(key, data))
    }

    fn get(&self, key: &str) -> io::Result<Vec<u8>> {
        let start_ns = self.trace.now_ns();
        let result = self.inner.get(key);
        let mut g = self.lock();
        g.counters.gets += 1;
        if let Ok(v) = &result {
            g.counters.get_bytes += v.len() as u64;
        }
        drop(g);
        if self.trace.enabled() {
            let id = cause_of_key(key).map_or(0, |(_, t)| t);
            let end_ns = self.trace.now_ns();
            self.trace.record(
                "backend.get",
                start_ns,
                end_ns,
                crate::stats::NO_PARENT,
                id,
                Lane::Main,
            );
        }
        result
    }

    fn len(&self, key: &str) -> io::Result<u64> {
        self.inner.len(key)
    }

    fn list(&self) -> io::Result<Vec<String>> {
        self.lock().counters.lists += 1;
        self.inner.list()
    }

    fn delete(&self, key: &str) -> io::Result<()> {
        let result = self.inner.delete(key);
        let mut g = self.lock();
        g.counters.deletes += 1;
        if result.is_ok() {
            let freed = g.live.remove(key).unwrap_or(0);
            g.counters.live_bytes -= freed;
        }
        result
    }

    fn bytes_written(&self) -> u64 {
        self.inner.bytes_written()
    }

    fn put_ranged(&self, key: &str, offset: u64, total_len: u64, data: &[u8]) -> io::Result<()> {
        self.paced_write(key, data.len() as u64, true, || {
            self.inner.put_ranged(key, offset, total_len, data)
        })
    }

    fn finish_ranged(&self, key: &str, total_len: u64) -> io::Result<()> {
        let result = self.inner.finish_ranged(key, total_len);
        if result.is_ok() {
            let mut g = self.lock();
            let staged = g.staged.remove(key).unwrap_or(total_len);
            g.set_live(key, staged);
        }
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff::{CheckpointStrategy, LowDiffConfig, LowDiffStrategy};
    use lowdiff_compress::{AuxView, Compressor, TopK};
    use lowdiff_optim::{Adam, ModelState};
    use lowdiff_storage::{CheckpointStore, MemoryBackend};
    use std::time::Instant;

    fn paced(mb_per_sec: Option<f64>) -> PacedBackend {
        PacedBackend::new(
            Arc::new(MemoryBackend::new()),
            mb_per_sec,
            Arc::new(Trace::new(false)),
        )
    }

    /// Wall time of `write` against `ideal` seconds. Pacing may never run
    /// fast; it may run late when the host deschedules the sleeper, and
    /// tests run in parallel on two noisy cores, so lateness is judged on
    /// the best of three attempts.
    fn assert_paced(ideal: f64, mut write: impl FnMut()) {
        let took: Vec<f64> = (0..3)
            .map(|_| {
                let t0 = Instant::now();
                write();
                t0.elapsed().as_secs_f64()
            })
            .collect();
        let best = took.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            best >= ideal,
            "ran faster than the device: {took:?} vs {ideal}"
        );
        assert!(
            best / ideal < 1.03,
            "more than 3 % late: {took:?} vs {ideal}"
        );
    }

    #[test]
    fn pacing_is_within_3_percent_over_64_mb() {
        let b = paced(Some(400.0));
        let blob = vec![7u8; 8 << 20];
        assert_paced((64u64 << 20) as f64 / 400e6, || {
            for i in 0..8 {
                b.put(&format!("blob-{i}"), &blob).unwrap();
            }
        });
    }

    #[test]
    fn ranged_puts_are_paced_and_counted_like_whole_puts() {
        let b = paced(Some(200.0));
        let part = vec![1u8; 4 << 20];
        assert_paced((16u64 << 20) as f64 / 200e6, || {
            for i in 0..4u64 {
                b.put_ranged("obj", i * (4 << 20), 16 << 20, &part).unwrap();
            }
            b.finish_ranged("obj", 16 << 20).unwrap();
        });
        let c = b.counters();
        assert_eq!((c.puts, c.ranged_puts), (0, 12));
        assert_eq!(c.put_bytes, 3 * (16 << 20));
        assert_eq!(c.live_bytes, 16 << 20, "sealed object is live, once");
        assert_eq!(b.get("obj").unwrap().len(), 16 << 20);
    }

    #[test]
    fn counters_are_exact_against_a_scripted_sequence() {
        let b = paced(None);
        b.put("a", &[0; 100]).unwrap();
        b.put("b", &[0; 50]).unwrap();
        b.put("a", &[0; 30]).unwrap(); // overwrite shrinks live bytes
        assert_eq!(b.get("a").unwrap().len(), 30);
        assert!(b.get("missing").is_err());
        b.list().unwrap();
        b.delete("b").unwrap();
        b.delete("b").unwrap(); // idempotent: counted, frees nothing
        let c = b.counters();
        assert_eq!(c.puts, 3);
        assert_eq!(c.put_bytes, 180);
        assert_eq!((c.gets, c.get_bytes), (2, 30));
        assert_eq!((c.lists, c.deletes), (1, 2));
        assert_eq!(c.live_bytes, 30);
        assert_eq!(c.live_bytes_max, 150);
        let log = b.put_log();
        assert_eq!(log.len(), 3);
        assert!(log.windows(2).all(|w| w[0].end_ns <= w[1].start_ns));
    }

    #[test]
    fn keys_map_back_to_iterations_and_visibility() {
        let full = CheckpointStore::full_key(40);
        let diff = CheckpointStore::diff_key(35, 39);
        assert_eq!(parse_key(&full), Some(Blob::Full(40)));
        assert_eq!(parse_key(&diff), Some(Blob::Diff(35, 39)));
        assert_eq!(cause_of_key(&diff), Some((Cause::Synced, 39)));
        assert_eq!(parse_key("full-0000000040.sm.ckpt"), Some(Blob::Full(40)));
        assert_eq!(parse_key("meta-engine-health.json"), None);
        assert_eq!(parse_key("diff-12-13.ckpt"), None);
        assert!(is_visibility_put(&full));
        assert!(is_visibility_put("full-0000000040.sm.ckpt"));
        assert!(!is_visibility_put("full-0000000040.sd.ckpt"));
        assert!(!is_visibility_put("meta-engine-health.json"));
    }

    #[test]
    fn retention_bounds_live_bytes_to_three_fulls_and_their_chains() {
        let psi = 20_000;
        let backend = Arc::new(paced(None));
        let store = Arc::new(CheckpointStore::new(
            Arc::clone(&backend) as Arc<dyn StorageBackend>
        ));
        let mut strat = LowDiffStrategy::new(
            Arc::clone(&store),
            LowDiffConfig {
                full_every: 10,
                batch_size: 5,
                keep_fulls: Some(2),
                ..LowDiffConfig::default()
            },
        );
        let adam = Adam::default();
        let mut comp = TopK::new(0.01);
        let mut rng = lowdiff_util::DetRng::new(5);
        let mut state = ModelState::new(vec![0.0; psi]);
        let mut grad = vec![0.0f32; psi];
        for _ in 0..80 {
            rng.fill_normal_f32(&mut grad, 0.1);
            let cg = Arc::new(comp.compress(&grad));
            strat.on_synced_gradient(state.iteration, &cg, &AuxView::NONE);
            state.apply_gradient(&adam, &cg.to_dense());
            strat.after_update(&state, &AuxView::NONE);
        }
        strat.flush();
        let log = backend.put_log();
        let full_bytes = log
            .iter()
            .find(|p| p.key.starts_with("full-"))
            .expect("a full was written")
            .bytes;
        let chain_bytes: u64 = log
            .iter()
            .filter(|p| p.key.starts_with("diff-"))
            .map(|p| p.bytes)
            .max()
            .expect("diff batches were written")
            * 2;
        let c = backend.counters();
        assert_eq!(store.full_iterations().unwrap(), vec![70, 80]);
        // GC runs after the newest full lands: at most 3 fulls (+ their
        // chains, + the small health blob) are ever live at once.
        assert!(
            c.live_bytes_max <= 3 * (full_bytes + chain_bytes) + 4096,
            "live max {} vs full {full_bytes} chain {chain_bytes}",
            c.live_bytes_max
        );
        assert!(c.deletes > 0, "GC went through the wrapper");
    }
}
