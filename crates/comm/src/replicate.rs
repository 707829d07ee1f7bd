//! Peer-replication fabric — the Checkmate-style network stand-in.
//!
//! Checkmate ("zero-overhead checkpointing via network gradient
//! replication") streams each rank's gradient state to a handful of peer
//! ranks instead of waiting on durable storage; a lost rank is rebuilt
//! from a surviving peer's RAM with no storage round-trip. This module is
//! the transport for that scheme under the repo's substitution rule: what
//! a real cluster does with processes + NICs, we do with threads + shared
//! memory ([`crate::rendezvous::Rendezvous`] makes the same trade for
//! collectives; [`crate::group::WorkerGroup`] drives multi-rank runs over
//! both).
//!
//! [`ReplicaNet`] models `n` hosts, each holding an in-memory mailbox of
//! blobs replicated *to* it, namespaced by source rank. A send to a dead
//! host fails with [`PeerUnreachable`] — the injected peer-loss fault the
//! tier layer must drop, account, and re-replicate around. Killing a host
//! also erases every replica it held (its RAM is gone), which is exactly
//! the whole-rank-loss cell the crash-torture matrix exercises.

use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::fmt;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// A send addressed a host that is down (whole-rank loss). Carries the
/// dead rank so callers can account the dropped replica per peer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PeerUnreachable(pub usize);

impl fmt::Display for PeerUnreachable {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer rank {} is unreachable", self.0)
    }
}

impl std::error::Error for PeerUnreachable {}

/// Replicas held for one source rank, keyed by blob key; `Arc` so
/// recovery readers share the payload without copying.
type ReplicaSet = BTreeMap<String, Arc<Vec<u8>>>;

/// One simulated host: alive flag + the replicas it holds for other ranks,
/// namespaced by source rank.
struct Host {
    alive: AtomicBool,
    replicas: Mutex<HashMap<usize, ReplicaSet>>,
}

/// The shared replication fabric for `n` ranks.
pub struct ReplicaNet {
    hosts: Vec<Host>,
}

impl ReplicaNet {
    pub fn new(num_ranks: usize) -> Arc<Self> {
        assert!(num_ranks >= 1, "a replica net needs at least one rank");
        Arc::new(Self {
            hosts: (0..num_ranks)
                .map(|_| Host {
                    alive: AtomicBool::new(true),
                    replicas: Mutex::new(HashMap::new()),
                })
                .collect(),
        })
    }

    pub fn num_ranks(&self) -> usize {
        self.hosts.len()
    }

    /// Whole-rank loss: the host stops accepting sends and every replica
    /// it held for other ranks is erased with its memory.
    pub fn kill(&self, rank: usize) {
        self.hosts[rank].alive.store(false, Ordering::SeqCst);
        self.hosts[rank].replicas.lock().clear();
    }

    /// The host comes back with fresh, empty memory.
    pub fn revive(&self, rank: usize) {
        self.hosts[rank].alive.store(true, Ordering::SeqCst);
    }

    /// Stream one blob from `src` into `dst`'s replica mailbox.
    /// Last-writer-wins per `(src, key)`, matching the storage backends'
    /// put contract.
    pub fn send(
        &self,
        src: usize,
        dst: usize,
        key: &str,
        bytes: &[u8],
    ) -> Result<(), PeerUnreachable> {
        let host = &self.hosts[dst];
        if !host.alive.load(Ordering::SeqCst) {
            return Err(PeerUnreachable(dst));
        }
        host.replicas
            .lock()
            .entry(src)
            .or_default()
            .insert(key.to_string(), Arc::new(bytes.to_vec()));
        Ok(())
    }

    /// Read `src`'s replica blob held on `host` (recovery path). A dead
    /// host yields nothing — its memory is gone.
    pub fn fetch(&self, host: usize, src: usize, key: &str) -> Option<Arc<Vec<u8>>> {
        let h = &self.hosts[host];
        if !h.alive.load(Ordering::SeqCst) {
            return None;
        }
        h.replicas.lock().get(&src)?.get(key).cloned()
    }

    /// Sorted keys of `src`'s replicas held on `host`.
    pub fn keys(&self, host: usize, src: usize) -> Vec<String> {
        let h = &self.hosts[host];
        if !h.alive.load(Ordering::SeqCst) {
            return Vec::new();
        }
        h.replicas
            .lock()
            .get(&src)
            .map(|m| m.keys().cloned().collect())
            .unwrap_or_default()
    }

    /// Drop one replica blob (idempotent; replica GC).
    pub fn erase(&self, host: usize, src: usize, key: &str) {
        if let Some(m) = self.hosts[host].replicas.lock().get_mut(&src) {
            m.remove(key);
        }
    }

    /// Alive hosts currently holding at least one replica from `src`,
    /// ascending — the candidate set for rebuilding a lost `src`.
    pub fn holders_of(&self, src: usize) -> Vec<usize> {
        (0..self.hosts.len())
            .filter(|&h| {
                self.hosts[h].alive.load(Ordering::SeqCst)
                    && self.hosts[h]
                        .replicas
                        .lock()
                        .get(&src)
                        .is_some_and(|m| !m.is_empty())
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn send_fetch_roundtrip() {
        let net = ReplicaNet::new(3);
        net.send(0, 1, "full-0000000001.ckpt", b"abc").unwrap();
        assert_eq!(*net.fetch(1, 0, "full-0000000001.ckpt").unwrap(), b"abc");
        assert!(net.fetch(2, 0, "full-0000000001.ckpt").is_none());
        assert_eq!(net.holders_of(0), vec![1]);
    }

    #[test]
    fn dead_host_rejects_sends_and_loses_replicas() {
        let net = ReplicaNet::new(2);
        net.send(0, 1, "k", b"x").unwrap();
        net.kill(1);
        assert_eq!(net.send(0, 1, "k2", b"y"), Err(PeerUnreachable(1)));
        assert!(net.fetch(1, 0, "k").is_none(), "dead RAM holds nothing");
        assert!(net.holders_of(0).is_empty());
        // Revival brings fresh, empty memory — the old replica is gone.
        net.revive(1);
        assert!(net.fetch(1, 0, "k").is_none());
        net.send(0, 1, "k", b"x2").unwrap();
        assert_eq!(*net.fetch(1, 0, "k").unwrap(), b"x2");
    }

    #[test]
    fn replicas_namespaced_by_source() {
        let net = ReplicaNet::new(3);
        net.send(0, 2, "k", b"from0").unwrap();
        net.send(1, 2, "k", b"from1").unwrap();
        assert_eq!(*net.fetch(2, 0, "k").unwrap(), b"from0");
        assert_eq!(*net.fetch(2, 1, "k").unwrap(), b"from1");
        assert_eq!(net.keys(2, 0), vec!["k".to_string()]);
    }
}
