//! Generation-counted rendezvous: the all-gather primitive every collective
//! is built from.
//!
//! All `n` ranks call [`Rendezvous::exchange`] with their contribution; every
//! caller blocks until the full set is present and receives a clone of all
//! contributions in rank order. A generation counter makes the structure
//! reusable across iterations without re-allocation races (the classic
//! "reusable barrier" construction, cf. the condition-variable chapter of
//! *Rust Atomics and Locks*).

use parking_lot::{Condvar, Mutex};
use std::collections::HashMap;
use std::sync::Arc;

struct Round<T> {
    slots: Vec<Option<T>>,
    filled: usize,
    /// Completed copies handed out; the round resets when all n are taken.
    taken: usize,
    /// Snapshot all ranks read from once the round is full.
    result: Option<Arc<Vec<T>>>,
}

impl<T> Round<T> {
    fn new(n: usize) -> Self {
        Self {
            slots: (0..n).map(|_| None).collect(),
            filled: 0,
            taken: 0,
            result: None,
        }
    }
}

struct Inner<T> {
    n: usize,
    /// Keyed by generation; entries are removed once fully consumed.
    rounds: Mutex<HashMap<u64, Round<T>>>,
    cond: Condvar,
    /// Per-rank generation counters live in the caller (see
    /// [`Rendezvous::exchange`]'s `gen` parameter) so the structure itself
    /// stays wait-free to clone.
    _marker: std::marker::PhantomData<T>,
}

/// Reusable all-gather point for `n` ranks: one round per generation, to
/// which every rank contributes exactly once.
pub struct Rendezvous<T> {
    inner: Arc<Inner<T>>,
}

impl<T> Clone for Rendezvous<T> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<T: Clone + Send> Rendezvous<T> {
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "rendezvous needs at least one rank");
        Self {
            inner: Arc::new(Inner {
                n,
                rounds: Mutex::new(HashMap::new()),
                cond: Condvar::new(),
                _marker: std::marker::PhantomData,
            }),
        }
    }

    /// Contribute `value` to round `gen` and return every rank's
    /// contribution in rank order. `gen` must increase by one per call per
    /// rank (callers keep a local counter; [`crate::group::WorkerCtx`]
    /// does).
    pub fn exchange(&self, rank: usize, gen: u64, value: T) -> Vec<T> {
        let result = self.exchange_shared(rank, gen, value);
        // Unwrap the Arc if we're the last holder, else clone out.
        match Arc::try_unwrap(result) {
            Ok(v) => v,
            Err(arc) => (*arc).clone(),
        }
    }

    /// Like [`Rendezvous::exchange`], but hands back a shared snapshot
    /// instead of cloning the contributions out for every rank. This is the
    /// zero-copy primitive the chunked collectives build on: `n` ranks
    /// reading `n` contributions through one `Arc` costs no per-rank copy.
    pub fn exchange_shared(&self, rank: usize, gen: u64, value: T) -> Arc<Vec<T>> {
        let inner = &*self.inner;
        assert!(rank < inner.n, "rank {rank} out of range");
        let mut rounds = inner.rounds.lock();
        let round = rounds.entry(gen).or_insert_with(|| Round::new(inner.n));
        assert!(
            round.slots[rank].is_none(),
            "rank {rank} contributed twice to gen {gen}"
        );
        round.slots[rank] = Some(value);
        round.filled += 1;
        if round.filled == inner.n {
            let vals: Vec<T> = round.slots.iter_mut().map(|s| s.take().unwrap()).collect();
            round.result = Some(Arc::new(vals));
            inner.cond.notify_all();
        } else {
            inner.cond.wait_while(&mut rounds, |r| {
                r.get(&gen).is_none_or(|r| r.result.is_none())
            });
        }
        let round = rounds.get_mut(&gen).expect("round vanished");
        let result = Arc::clone(round.result.as_ref().expect("result missing"));
        round.taken += 1;
        if round.taken == inner.n {
            rounds.remove(&gen);
        }
        drop(rounds);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn single_rank_roundtrip() {
        let r: Rendezvous<i32> = Rendezvous::new(1);
        assert_eq!(r.exchange(0, 0, 42), vec![42]);
        assert_eq!(r.exchange(0, 1, 7), vec![7]);
    }

    #[test]
    fn all_ranks_see_all_values_in_rank_order() {
        let n = 4;
        let r: Rendezvous<usize> = Rendezvous::new(n);
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let r = r.clone();
                thread::spawn(move || r.exchange(rank, 0, rank * 10))
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), vec![0, 10, 20, 30]);
        }
    }

    #[test]
    fn generations_are_independent() {
        let n = 2;
        let r: Rendezvous<u64> = Rendezvous::new(n);
        let iters = 50u64;
        let handles: Vec<_> = (0..n)
            .map(|rank| {
                let r = r.clone();
                thread::spawn(move || {
                    for g in 0..iters {
                        let vals = r.exchange(rank, g, g * 100 + rank as u64);
                        assert_eq!(vals, vec![g * 100, g * 100 + 1], "gen {g} corrupted");
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
    }

    #[test]
    fn rounds_map_is_garbage_collected() {
        let n = 3;
        let r: Rendezvous<u8> = Rendezvous::new(n);
        for g in 0..10 {
            let handles: Vec<_> = (0..n)
                .map(|rank| {
                    let r = r.clone();
                    thread::spawn(move || r.exchange(rank, g, rank as u8))
                })
                .collect();
            for h in handles {
                h.join().unwrap();
            }
        }
        assert!(r.inner.rounds.lock().is_empty(), "rounds leaked");
    }
}
