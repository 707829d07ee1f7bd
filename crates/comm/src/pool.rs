//! [`SyncPool`]: the layer-wise communication thread pool of Algorithm 2.
//!
//! During LowDiff+'s backward pass, each layer's gradient is submitted the
//! moment it is produced (`P_g.execute(Sync, g)` in the paper); worker
//! threads process submissions concurrently and completion is awaited with
//! [`SyncPool::wait`] (the paper's `H_g.wait()`). The pool is generic over
//! the job closure so the same machinery serves the snapshot pool `P_s`.

use crossbeam::channel::{unbounded, Receiver, Sender};
use parking_lot::{Condvar, Mutex};
use std::sync::Arc;

type Job = Box<dyn FnOnce() + Send>;

struct Shared {
    pending: Mutex<usize>,
    cond: Condvar,
}

/// Fixed-size thread pool with a completion-tracking job set.
pub struct SyncPool {
    tx: Option<Sender<Job>>,
    shared: Arc<Shared>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl SyncPool {
    /// Spawn a pool with `threads` workers.
    pub fn new(threads: usize) -> Self {
        assert!(threads > 0, "pool needs at least one thread");
        let (tx, rx): (Sender<Job>, Receiver<Job>) = unbounded();
        let shared = Arc::new(Shared {
            pending: Mutex::new(0),
            cond: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|i| {
                let rx = rx.clone();
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("sync-pool-{i}"))
                    .spawn(move || {
                        for job in rx.iter() {
                            job();
                            let mut p = shared.pending.lock();
                            *p -= 1;
                            if *p == 0 {
                                shared.cond.notify_all();
                            }
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Self {
            tx: Some(tx),
            shared,
            workers,
        }
    }

    /// Submit a job; returns immediately. (`H.append(P.execute(...))`.)
    pub fn execute<F: FnOnce() + Send + 'static>(&self, f: F) {
        {
            let mut p = self.shared.pending.lock();
            *p += 1;
        }
        self.tx
            .as_ref()
            .expect("pool shut down")
            .send(Box::new(f))
            .expect("pool workers gone");
    }

    /// Block until every submitted job has completed. (`H.wait()`.)
    pub fn wait(&self) {
        let mut p = self.shared.pending.lock();
        self.shared.cond.wait_while(&mut p, |p| *p > 0);
    }

    /// Jobs submitted but not yet finished.
    pub fn pending(&self) -> usize {
        *self.shared.pending.lock()
    }
}

impl Drop for SyncPool {
    fn drop(&mut self) {
        // Close the channel so workers drain and exit, then join.
        self.tx.take();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn executes_all_jobs() {
        let pool = SyncPool::new(4);
        let counter = Arc::new(AtomicUsize::new(0));
        for _ in 0..100 {
            let c = Arc::clone(&counter);
            pool.execute(move || {
                c.fetch_add(1, Ordering::Relaxed);
            });
        }
        pool.wait();
        assert_eq!(counter.load(Ordering::Relaxed), 100);
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn wait_blocks_until_done() {
        let pool = SyncPool::new(2);
        let done = Arc::new(AtomicUsize::new(0));
        for _ in 0..8 {
            let d = Arc::clone(&done);
            pool.execute(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                d.fetch_add(1, Ordering::SeqCst);
            });
        }
        pool.wait();
        assert_eq!(done.load(Ordering::SeqCst), 8, "wait returned early");
    }

    #[test]
    fn reusable_across_rounds() {
        let pool = SyncPool::new(3);
        let counter = Arc::new(AtomicUsize::new(0));
        for round in 1..=5usize {
            for _ in 0..10 {
                let c = Arc::clone(&counter);
                pool.execute(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
            pool.wait();
            assert_eq!(counter.load(Ordering::Relaxed), round * 10);
        }
    }

    #[test]
    fn jobs_run_concurrently() {
        // With 4 threads and 4 sleeping jobs, total wall time must be far
        // below 4× the per-job sleep.
        let pool = SyncPool::new(4);
        let start = std::time::Instant::now();
        for _ in 0..4 {
            pool.execute(|| std::thread::sleep(std::time::Duration::from_millis(50)));
        }
        pool.wait();
        let elapsed = start.elapsed();
        assert!(
            elapsed < std::time::Duration::from_millis(150),
            "jobs serialized: {elapsed:?}"
        );
    }

    #[test]
    fn drop_joins_cleanly() {
        let pool = SyncPool::new(2);
        pool.execute(|| {});
        drop(pool); // must not hang or panic
    }
}
