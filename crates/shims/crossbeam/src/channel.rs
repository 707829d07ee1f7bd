//! Mpmc channels in the style of `crossbeam::channel`.
//!
//! Semantics kept from the real crate (for the subset we use):
//! - cloneable senders and receivers; a channel disconnects when all
//!   senders or all receivers are dropped;
//! - `bounded(cap)` blocks senders at capacity (`bounded(0)` is not
//!   supported — the workspace never creates rendezvous channels);
//! - receiving drains remaining messages even after disconnect.
//!
//! There is no `Select`: every consumer in the workspace blocks on one
//! channel.

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Errors (shape-compatible with crossbeam's)
// ---------------------------------------------------------------------------

pub struct SendError<T>(pub T);

impl<T> SendError<T> {
    pub fn into_inner(self) -> T {
        self.0
    }
}

impl<T> fmt::Debug for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("SendError(..)")
    }
}

impl<T> fmt::Display for SendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("sending on a disconnected channel")
    }
}

impl<T> std::error::Error for SendError<T> {}

pub enum TrySendError<T> {
    Full(T),
    Disconnected(T),
}

impl<T> TrySendError<T> {
    pub fn into_inner(self) -> T {
        match self {
            TrySendError::Full(t) | TrySendError::Disconnected(t) => t,
        }
    }

    pub fn is_full(&self) -> bool {
        matches!(self, TrySendError::Full(_))
    }

    pub fn is_disconnected(&self) -> bool {
        matches!(self, TrySendError::Disconnected(_))
    }
}

impl<T> fmt::Debug for TrySendError<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TrySendError::Full(_) => f.write_str("Full(..)"),
            TrySendError::Disconnected(_) => f.write_str("Disconnected(..)"),
        }
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvError;

impl fmt::Display for RecvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("receiving on an empty and disconnected channel")
    }
}

impl std::error::Error for RecvError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TryRecvError {
    Empty,
    Disconnected,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    Timeout,
    Disconnected,
}

// ---------------------------------------------------------------------------
// Channel core
// ---------------------------------------------------------------------------

struct Inner<T> {
    queue: VecDeque<T>,
    cap: Option<usize>,
    senders: usize,
    receivers: usize,
}

struct Shared<T> {
    inner: Mutex<Inner<T>>,
    not_empty: Condvar,
    not_full: Condvar,
}

impl<T> Shared<T> {
    fn lock(&self) -> std::sync::MutexGuard<'_, Inner<T>> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

fn new_channel<T>(cap: Option<usize>) -> (Sender<T>, Receiver<T>) {
    if cap == Some(0) {
        panic!("shim channel does not support zero-capacity (rendezvous) channels");
    }
    let shared = Arc::new(Shared {
        inner: Mutex::new(Inner {
            // Bounded queues hold at most `cap` items; reserving up front
            // keeps the send path allocation-free for the channel's whole
            // life (the persist queue's zero-alloc steady state).
            queue: cap.map_or_else(VecDeque::new, VecDeque::with_capacity),
            cap,
            senders: 1,
            receivers: 1,
        }),
        not_empty: Condvar::new(),
        not_full: Condvar::new(),
    });
    (
        Sender {
            shared: Arc::clone(&shared),
        },
        Receiver { shared },
    )
}

/// A channel with capacity `cap` (> 0); senders block when it is full.
pub fn bounded<T>(cap: usize) -> (Sender<T>, Receiver<T>) {
    new_channel(Some(cap))
}

/// A channel with unlimited capacity; `send` never blocks.
pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
    new_channel(None)
}

pub struct Sender<T> {
    shared: Arc<Shared<T>>,
}

pub struct Receiver<T> {
    shared: Arc<Shared<T>>,
}

impl<T> Sender<T> {
    pub fn send(&self, msg: T) -> Result<(), SendError<T>> {
        let mut inner = self.shared.lock();
        loop {
            if inner.receivers == 0 {
                return Err(SendError(msg));
            }
            let full = inner.cap.is_some_and(|c| inner.queue.len() >= c);
            if !full {
                inner.queue.push_back(msg);
                self.shared.not_empty.notify_all();
                return Ok(());
            }
            inner = self
                .shared
                .not_full
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub fn try_send(&self, msg: T) -> Result<(), TrySendError<T>> {
        let mut inner = self.shared.lock();
        if inner.receivers == 0 {
            return Err(TrySendError::Disconnected(msg));
        }
        if inner.cap.is_some_and(|c| inner.queue.len() >= c) {
            return Err(TrySendError::Full(msg));
        }
        inner.queue.push_back(msg);
        self.shared.not_empty.notify_all();
        Ok(())
    }

    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl<T> Clone for Sender<T> {
    fn clone(&self) -> Self {
        self.shared.lock().senders += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Sender<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.senders -= 1;
        if inner.senders == 0 {
            // Disconnect: wake everyone so blocked receivers observe it.
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
    }
}

impl<T> Receiver<T> {
    pub fn recv(&self) -> Result<T, RecvError> {
        let mut inner = self.shared.lock();
        loop {
            if let Some(msg) = inner.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if inner.senders == 0 {
                return Err(RecvError);
            }
            inner = self
                .shared
                .not_empty
                .wait(inner)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }

    pub fn try_recv(&self) -> Result<T, TryRecvError> {
        let mut inner = self.shared.lock();
        if let Some(msg) = inner.queue.pop_front() {
            self.shared.not_full.notify_one();
            return Ok(msg);
        }
        if inner.senders == 0 {
            Err(TryRecvError::Disconnected)
        } else {
            Err(TryRecvError::Empty)
        }
    }

    pub fn recv_timeout(&self, timeout: Duration) -> Result<T, RecvTimeoutError> {
        let deadline = Instant::now() + timeout;
        let mut inner = self.shared.lock();
        loop {
            if let Some(msg) = inner.queue.pop_front() {
                self.shared.not_full.notify_one();
                return Ok(msg);
            }
            if inner.senders == 0 {
                return Err(RecvTimeoutError::Disconnected);
            }
            let now = Instant::now();
            if now >= deadline {
                return Err(RecvTimeoutError::Timeout);
            }
            let (g, _) = self
                .shared
                .not_empty
                .wait_timeout(inner, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            inner = g;
        }
    }

    pub fn len(&self) -> usize {
        self.shared.lock().queue.len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Blocking iterator; ends when the channel is empty and disconnected.
    pub fn iter(&self) -> Iter<'_, T> {
        Iter { rx: self }
    }
}

impl<T> Clone for Receiver<T> {
    fn clone(&self) -> Self {
        self.shared.lock().receivers += 1;
        Self {
            shared: Arc::clone(&self.shared),
        }
    }
}

impl<T> Drop for Receiver<T> {
    fn drop(&mut self) {
        let mut inner = self.shared.lock();
        inner.receivers -= 1;
        if inner.receivers == 0 {
            self.shared.not_full.notify_all();
        }
    }
}

pub struct Iter<'a, T> {
    rx: &'a Receiver<T>,
}

impl<T> Iterator for Iter<'_, T> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        self.rx.recv().ok()
    }
}

impl<'a, T> IntoIterator for &'a Receiver<T> {
    type Item = T;
    type IntoIter = Iter<'a, T>;
    fn into_iter(self) -> Iter<'a, T> {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn unbounded_send_recv() {
        let (tx, rx) = unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.len(), 2);
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
    }

    #[test]
    fn bounded_blocks_then_unblocks() {
        let (tx, rx) = bounded(1);
        tx.send(1).unwrap();
        assert!(matches!(tx.try_send(2), Err(TrySendError::Full(2))));
        let h = thread::spawn(move || tx.send(2));
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.recv(), Ok(2));
        h.join().unwrap().unwrap();
    }

    #[test]
    fn disconnect_semantics() {
        let (tx, rx) = unbounded();
        tx.send(5).unwrap();
        drop(tx);
        assert_eq!(rx.recv(), Ok(5), "drain after disconnect");
        assert_eq!(rx.recv(), Err(RecvError));

        let (tx, rx) = unbounded::<u8>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn recv_timeout_variants() {
        let (tx, rx) = unbounded::<u8>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Timeout)
        );
        tx.send(9).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(5)), Ok(9));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(5)),
            Err(RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn mpmc_clone_senders_receivers() {
        let (tx, rx) = unbounded();
        let tx2 = tx.clone();
        let rx2 = rx.clone();
        tx.send(1).unwrap();
        tx2.send(2).unwrap();
        let a = rx.recv().unwrap();
        let b = rx2.recv().unwrap();
        assert_eq!(a + b, 3);
        drop(tx);
        tx2.send(3).unwrap(); // still connected via tx2
        assert_eq!(rx.recv(), Ok(3));
    }

    #[test]
    fn iter_drains_until_disconnect() {
        let (tx, rx) = unbounded();
        for i in 0..4 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let v: Vec<i32> = rx.iter().collect();
        assert_eq!(v, vec![0, 1, 2, 3]);
    }
}
