//! [`FaultyBackend`] — deterministic, seedable storage-fault injection.
//!
//! The storage analog of the training-failure sweeps in
//! `tests/failure_injection.rs`: wraps any [`StorageBackend`] and injects
//! the fault classes a real checkpoint target exhibits —
//!
//! * **transient errors** — a `put`/`get` fails once (network blip, SSD
//!   queue full) but the next attempt may succeed; retryable;
//! * **persistent errors** — every `put` fails until the backend is
//!   [`heal`](FaultyBackend::heal)ed (volume unmounted, quota exceeded);
//! * **torn writes** — a `put` lands a truncated prefix of the blob and
//!   reports failure (power cut mid-write; the CRC in the codec must catch
//!   the partial blob at load time);
//! * **latency spikes** — a `put` succeeds but only after a stall.
//!
//! All randomness comes from a [`DetRng`] seeded in [`FaultConfig`], so a
//! failing test reproduces from its seed. Deterministic fault windows are
//! also available ([`fail_next_puts`](FaultyBackend::fail_next_puts),
//! [`fail_all_puts`](FaultyBackend::fail_all_puts)) for tests that need a
//! fault at an exact operation rather than a rate.

use crate::backend::StorageBackend;
use lowdiff_util::DetRng;
use parking_lot::Mutex;
use std::io;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;

/// Fault rates and seed for a [`FaultyBackend`]. All rates are
/// probabilities in `[0, 1]`; the default injects nothing.
#[derive(Clone, Copy, Debug)]
pub struct FaultConfig {
    /// Seed for the fault RNG — same seed, same fault sequence.
    pub seed: u64,
    /// Probability a `put` fails with a retryable error (nothing written).
    pub put_transient_rate: f64,
    /// Probability a `put` writes a truncated prefix and reports failure.
    pub put_torn_rate: f64,
    /// Probability a `get` fails with a retryable error.
    pub get_transient_rate: f64,
    /// Probability a `put` stalls for [`latency_spike`](Self::latency_spike)
    /// before succeeding.
    pub latency_spike_rate: f64,
    /// Duration of an injected latency spike.
    pub latency_spike: Duration,
}

impl Default for FaultConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            put_transient_rate: 0.0,
            put_torn_rate: 0.0,
            get_transient_rate: 0.0,
            latency_spike_rate: 0.0,
            latency_spike: Duration::from_millis(5),
        }
    }
}

/// Running totals of injected faults (all monotonically increasing).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FaultCounters {
    pub put_faults: u64,
    pub get_faults: u64,
    pub torn_writes: u64,
    pub latency_spikes: u64,
}

/// A [`StorageBackend`] wrapper that injects seeded faults around an inner
/// backend: construct over any backend, hand the wrapper to the store.
pub struct FaultyBackend<B> {
    inner: B,
    cfg: FaultConfig,
    rng: Mutex<DetRng>,
    /// Deterministic window: the next N `put`s fail regardless of rates.
    forced_put_failures: AtomicU64,
    /// Persistent outage: every `put` fails until [`heal`](Self::heal).
    persistent_outage: AtomicBool,
    put_faults: AtomicU64,
    get_faults: AtomicU64,
    torn_writes: AtomicU64,
    latency_spikes: AtomicU64,
}

impl<B: StorageBackend> FaultyBackend<B> {
    pub fn new(inner: B, cfg: FaultConfig) -> Self {
        Self {
            inner,
            cfg,
            rng: Mutex::new(DetRng::new(cfg.seed ^ 0x000F_A171_7B4C)),
            forced_put_failures: AtomicU64::new(0),
            persistent_outage: AtomicBool::new(false),
            put_faults: AtomicU64::new(0),
            get_faults: AtomicU64::new(0),
            torn_writes: AtomicU64::new(0),
            latency_spikes: AtomicU64::new(0),
        }
    }

    pub fn inner(&self) -> &B {
        &self.inner
    }

    /// Make the next `n` `put` calls fail with a transient error,
    /// regardless of configured rates. Composes: calling again adds to the
    /// remaining window.
    pub fn fail_next_puts(&self, n: u64) {
        self.forced_put_failures.fetch_add(n, Ordering::SeqCst);
    }

    /// Enter a persistent outage: every `put` fails until [`heal`](Self::heal).
    pub fn fail_all_puts(&self) {
        self.persistent_outage.store(true, Ordering::SeqCst);
    }

    /// End a persistent outage and clear any forced-failure window.
    pub fn heal(&self) {
        self.persistent_outage.store(false, Ordering::SeqCst);
        self.forced_put_failures.store(0, Ordering::SeqCst);
    }

    /// Snapshot of the fault totals injected so far.
    pub fn counters(&self) -> FaultCounters {
        FaultCounters {
            put_faults: self.put_faults.load(Ordering::SeqCst),
            get_faults: self.get_faults.load(Ordering::SeqCst),
            torn_writes: self.torn_writes.load(Ordering::SeqCst),
            latency_spikes: self.latency_spikes.load(Ordering::SeqCst),
        }
    }

    fn roll(&self, rate: f64) -> bool {
        rate > 0.0 && self.rng.lock().uniform() < rate
    }

    fn transient(op: &str) -> io::Error {
        io::Error::new(
            io::ErrorKind::Interrupted,
            format!("injected transient {op} failure"),
        )
    }

    /// The write-fault ladder shared by `put` and `put_ranged`: outage →
    /// forced window → torn → transient → latency spike. `Ok(None)` means
    /// the write may proceed; `Ok(Some(cut))` means land only the first
    /// `cut` bytes and then report a torn-write error.
    fn pre_put(&self, data_len: usize) -> io::Result<Option<usize>> {
        if self.persistent_outage.load(Ordering::SeqCst) {
            self.put_faults.fetch_add(1, Ordering::SeqCst);
            return Err(io::Error::other("injected persistent storage outage"));
        }
        if self
            .forced_put_failures
            .fetch_update(Ordering::SeqCst, Ordering::SeqCst, |n| n.checked_sub(1))
            .is_ok()
        {
            self.put_faults.fetch_add(1, Ordering::SeqCst);
            return Err(Self::transient("put"));
        }
        if self.roll(self.cfg.put_torn_rate) {
            self.torn_writes.fetch_add(1, Ordering::SeqCst);
            self.put_faults.fetch_add(1, Ordering::SeqCst);
            return Ok(Some(data_len / 2));
        }
        if self.roll(self.cfg.put_transient_rate) {
            self.put_faults.fetch_add(1, Ordering::SeqCst);
            return Err(Self::transient("put"));
        }
        if self.roll(self.cfg.latency_spike_rate) {
            self.latency_spikes.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(self.cfg.latency_spike);
        }
        Ok(None)
    }
}

impl<B: StorageBackend> StorageBackend for FaultyBackend<B> {
    fn put(&self, key: &str, data: &[u8]) -> io::Result<()> {
        match self.pre_put(data.len())? {
            // Power-cut model: a prefix of the blob lands, the call fails.
            // The codec's CRC must reject the partial blob at load time.
            Some(cut) => {
                let _ = self.inner.put(key, &data[..cut]);
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected torn write",
                ))
            }
            None => self.inner.put(key, data),
        }
    }

    fn put_ranged(&self, key: &str, offset: u64, total_len: u64, data: &[u8]) -> io::Result<()> {
        // Stripe writes climb the same fault ladder as whole-blob puts; a
        // torn stripe lands a prefix of its own range, so the manifest's
        // per-stripe CRC must reject the set at load time.
        match self.pre_put(data.len())? {
            Some(cut) => {
                let _ = self.inner.put_ranged(key, offset, total_len, &data[..cut]);
                Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "injected torn write",
                ))
            }
            None => self.inner.put_ranged(key, offset, total_len, data),
        }
    }

    fn finish_ranged(&self, key: &str, total_len: u64) -> io::Result<()> {
        self.inner.finish_ranged(key, total_len)
    }

    fn get(&self, key: &str) -> io::Result<Vec<u8>> {
        if self.roll(self.cfg.get_transient_rate) {
            self.get_faults.fetch_add(1, Ordering::SeqCst);
            return Err(Self::transient("get"));
        }
        self.inner.get(key)
    }

    fn len(&self, key: &str) -> io::Result<u64> {
        // Metadata reads hit the same path as data reads on a real target
        // (a HEAD against a flaky object store fails just as readily), so
        // they share the get-transient roll and counter.
        if self.roll(self.cfg.get_transient_rate) {
            self.get_faults.fetch_add(1, Ordering::SeqCst);
            return Err(Self::transient("len"));
        }
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::MemoryBackend;

    fn faulty(cfg: FaultConfig) -> FaultyBackend<MemoryBackend> {
        FaultyBackend::new(MemoryBackend::new(), cfg)
    }

    #[test]
    fn default_config_injects_nothing() {
        let b = faulty(FaultConfig::default());
        for i in 0..100 {
            b.put(&format!("k{i}"), b"data").unwrap();
        }
        assert_eq!(b.counters(), FaultCounters::default());
        assert_eq!(b.get("k7").unwrap(), b"data");
    }

    #[test]
    fn same_seed_same_fault_sequence() {
        let run = |seed| {
            let b = faulty(FaultConfig {
                seed,
                put_transient_rate: 0.3,
                ..FaultConfig::default()
            });
            (0..64)
                .map(|i| b.put(&format!("k{i}"), b"x").is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(9), run(9), "same seed must reproduce");
        assert_ne!(run(9), run(10), "different seeds must differ");
    }

    #[test]
    fn forced_window_fails_exactly_n_puts() {
        let b = faulty(FaultConfig::default());
        b.fail_next_puts(3);
        for i in 0..3 {
            assert!(b.put(&format!("k{i}"), b"x").is_err(), "put {i}");
        }
        b.put("k3", b"x").unwrap();
        assert_eq!(b.counters().put_faults, 3);
    }

    #[test]
    fn persistent_outage_until_heal() {
        let b = faulty(FaultConfig::default());
        b.fail_all_puts();
        for _ in 0..5 {
            assert!(b.put("k", b"x").is_err());
        }
        b.heal();
        b.put("k", b"x").unwrap();
        assert_eq!(b.counters().put_faults, 5);
    }

    #[test]
    fn torn_write_leaves_truncated_blob_and_errors() {
        let b = faulty(FaultConfig {
            put_torn_rate: 1.0,
            ..FaultConfig::default()
        });
        let data = vec![0xAB; 100];
        assert!(b.put("k", &data).is_err());
        assert_eq!(b.inner().get("k").unwrap().len(), 50, "prefix landed");
        assert_eq!(b.counters().torn_writes, 1);
    }

    #[test]
    fn get_faults_are_transient() {
        let b = faulty(FaultConfig {
            get_transient_rate: 1.0,
            ..FaultConfig::default()
        });
        b.put("k", b"v").unwrap();
        assert!(b.get("k").is_err());
        assert!(b.counters().get_faults >= 1);
    }

    #[test]
    fn len_shares_the_get_fault_path() {
        let b = faulty(FaultConfig {
            get_transient_rate: 1.0,
            ..FaultConfig::default()
        });
        b.put("k", b"value").unwrap();
        let err = b.len("k").unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::Interrupted);
        assert!(b.counters().get_faults >= 1);
        // With faults off, len passes through to the inner backend.
        let clean = faulty(FaultConfig::default());
        clean.put("k", b"value").unwrap();
        assert_eq!(clean.len("k").unwrap(), 5);
    }

    #[test]
    fn latency_spike_delays_but_succeeds() {
        let b = faulty(FaultConfig {
            latency_spike_rate: 1.0,
            latency_spike: Duration::from_millis(2),
            ..FaultConfig::default()
        });
        let t0 = std::time::Instant::now();
        b.put("k", b"v").unwrap();
        assert!(t0.elapsed() >= Duration::from_millis(2));
        assert_eq!(b.counters().latency_spikes, 1);
        assert_eq!(b.get("k").unwrap(), b"v");
    }

    #[test]
    fn list_and_delete_pass_through() {
        let b = faulty(FaultConfig::default());
        b.put("a", b"1").unwrap();
        b.put("b", b"2").unwrap();
        assert_eq!(b.list().unwrap(), vec!["a".to_string(), "b".to_string()]);
        b.delete("a").unwrap();
        assert_eq!(b.list().unwrap(), vec!["b".to_string()]);
    }
}
