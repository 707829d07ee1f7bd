//! [`Timed`]: the engine layer seen from outside, at the
//! [`CheckpointStrategy`] boundary. Every hook call is timestamped into
//! pre-allocated sample vectors (and, on the traced pass, the span ring);
//! the wrapped strategy is otherwise untouched.

use crate::paced::{is_visibility_put, parse_key, Blob, PutRecord};
use crate::stats::{Cause, Lane, Trace, NO_PARENT};
use lowdiff::{CheckpointStrategy, CowTicket, StrategyStats};
use lowdiff_compress::{AuxView, CompressedGrad};
use lowdiff_optim::ModelState;
use lowdiff_util::units::Secs;
use std::collections::BTreeMap;
use std::ops::Range;
use std::sync::Arc;

/// One timed hook call: the iteration it belongs to, when it was entered
/// and how long the training thread spent inside it.
#[derive(Clone, Copy, Debug)]
pub struct HookCall {
    pub iter: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl HookCall {
    pub fn end_ns(&self) -> u64 {
        self.start_ns + self.dur_ns
    }
}

#[derive(Default)]
pub struct HookLog {
    pub prime_ns: u64,
    /// Summed per iteration: the trainer fires one call per layer.
    pub layer_grad: Vec<HookCall>,
    pub synced: Vec<HookCall>,
    /// `iter` is `state.iteration` *after* the update: an anchor iteration
    /// is one where `iter % full_every == 0`.
    pub after_update: Vec<HookCall>,
    pub flush_ns: Vec<u64>,
}

/// Time to durable of the checkpoints in a put log, in ms.
#[derive(Default)]
pub struct Durable {
    /// One sample per full: entering the `after_update` that left `M_t` →
    /// completion of the put that makes the full visible.
    pub full_ms: Vec<f64>,
    /// One sample per differential: entering its own
    /// `on_synced_gradient(t)` → completion of the put of the batch
    /// holding `t`, so batching shows as waiting.
    pub diff_ms: Vec<f64>,
    /// One sample per full: entering `after_update` → start of the first
    /// device write of that full. Everything before the device sees a
    /// byte: snapshot, the queue behind earlier writes, and whatever
    /// encoding is not streamed into the put.
    pub full_wait_ms: Vec<f64>,
}

impl HookLog {
    /// Joins `puts` to the hook calls that caused them through the store's
    /// key scheme.
    pub fn durable(&self, puts: &[&PutRecord]) -> Durable {
        let entered = |calls: &[HookCall], iter: u64| {
            calls.iter().find(|c| c.iter == iter).map(|c| c.start_ns)
        };
        let ms = |from_ns: u64, to_ns: u64| to_ns.saturating_sub(from_ns) as f64 / 1e6;
        let mut out = Durable::default();
        let mut first_write_ns = BTreeMap::new();
        for p in puts {
            match parse_key(&p.key) {
                Some(Blob::Full(t)) => {
                    let first = first_write_ns.entry(t).or_insert(p.start_ns);
                    *first = p.start_ns.min(*first);
                    if is_visibility_put(&p.key) {
                        let e = entered(&self.after_update, t);
                        out.full_ms.extend(e.map(|e| ms(e, p.end_ns)));
                    }
                }
                Some(Blob::Diff(a, b)) if is_visibility_put(&p.key) => {
                    let entries = (a..=b).filter_map(|t| entered(&self.synced, t));
                    out.diff_ms.extend(entries.map(|e| ms(e, p.end_ns)));
                }
                _ => {}
            }
        }
        for (t, start_ns) in first_write_ns {
            let e = entered(&self.after_update, t);
            out.full_wait_ms.extend(e.map(|e| ms(e, start_ns)));
        }
        out
    }
}

pub struct Timed<S> {
    inner: S,
    trace: Arc<Trace>,
    pub log: HookLog,
}

impl<S: CheckpointStrategy> Timed<S> {
    pub fn new(inner: S, trace: Arc<Trace>, expected_iters: usize) -> Self {
        Self {
            inner,
            trace,
            log: HookLog {
                layer_grad: Vec::with_capacity(expected_iters),
                synced: Vec::with_capacity(expected_iters),
                after_update: Vec::with_capacity(expected_iters),
                ..HookLog::default()
            },
        }
    }

    fn span(&self, name: &'static str, call: &HookCall) -> u32 {
        self.trace.record(
            name,
            call.start_ns,
            call.end_ns(),
            NO_PARENT,
            call.iter,
            Lane::Train,
        )
    }
}

impl<S: CheckpointStrategy> CheckpointStrategy for Timed<S> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn prime(&mut self, state: &ModelState, aux: &AuxView<'_>) {
        let start_ns = self.trace.now_ns();
        self.inner.prime(state, aux);
        let end_ns = self.trace.now_ns();
        // Idempotent in the engine: only the first call does the work.
        self.log.prime_ns = self.log.prime_ns.max(end_ns - start_ns);
    }

    fn on_layer_gradient(
        &mut self,
        iteration: u64,
        layer: usize,
        range: Range<usize>,
        grad: &[f32],
    ) -> Secs {
        let start_ns = self.trace.now_ns();
        let stall = self.inner.on_layer_gradient(iteration, layer, range, grad);
        let dur_ns = self.trace.now_ns() - start_ns;
        match self.log.layer_grad.last_mut() {
            Some(c) if c.iter == iteration => c.dur_ns += dur_ns,
            _ => self.log.layer_grad.push(HookCall {
                iter: iteration,
                start_ns,
                dur_ns,
            }),
        }
        stall
    }

    fn on_synced_gradient(
        &mut self,
        iteration: u64,
        grad: &Arc<CompressedGrad>,
        aux: &AuxView<'_>,
    ) -> Secs {
        let start_ns = self.trace.now_ns();
        let stall = self.inner.on_synced_gradient(iteration, grad, aux);
        let call = HookCall {
            iter: iteration,
            start_ns,
            dur_ns: self.trace.now_ns() - start_ns,
        };
        self.log.synced.push(call);
        let idx = self.span("hook.on_synced_gradient", &call);
        self.trace.mark_cause(Cause::Synced, iteration, idx);
        stall
    }

    fn after_update(&mut self, state: &ModelState, aux: &AuxView<'_>) -> Secs {
        let start_ns = self.trace.now_ns();
        let stall = self.inner.after_update(state, aux);
        let call = HookCall {
            iter: state.iteration,
            start_ns,
            dur_ns: self.trace.now_ns() - start_ns,
        };
        self.log.after_update.push(call);
        let idx = self.span("hook.after_update", &call);
        self.trace
            .mark_cause(Cause::AfterUpdate, state.iteration, idx);
        stall
    }

    fn take_pending_capture(&mut self) -> Option<Arc<CowTicket>> {
        self.inner.take_pending_capture()
    }

    fn flush(&mut self) -> Secs {
        let start_ns = self.trace.now_ns();
        let stall = self.inner.flush();
        let end_ns = self.trace.now_ns();
        self.log.flush_ns.push(end_ns - start_ns);
        self.trace
            .record("hook.flush", start_ns, end_ns, NO_PARENT, 0, Lane::Train);
        stall
    }

    fn stats(&self) -> StrategyStats {
        self.inner.stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lowdiff_storage::CheckpointStore;

    fn call(iter: u64, start_ns: u64) -> HookCall {
        HookCall {
            iter,
            start_ns,
            dur_ns: 5,
        }
    }

    fn put(key: &str, start_ns: u64, end_ns: u64) -> PutRecord {
        PutRecord {
            key: key.to_string(),
            bytes: 1,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn durable_joins_puts_to_the_hooks_that_caused_them() {
        let log = HookLog {
            synced: vec![call(8, 100), call(9, 200)],
            after_update: vec![call(10, 1_000), call(20, 5_000)],
            ..HookLog::default()
        };
        // Full 10 is a plain blob; full 20 is striped: two ranged data
        // writes, then the manifest that makes it visible.
        let puts = [
            put(&CheckpointStore::diff_key(8, 9), 300, 1_100),
            put(&CheckpointStore::full_key(10), 1_400, 3_000),
            put("full-0000000020.sd.ckpt", 5_600, 6_000),
            put("full-0000000020.sd.ckpt", 5_500, 6_500),
            put("full-0000000020.sm.ckpt", 6_600, 7_000),
            put("meta-engine-health.json", 7_100, 7_200),
        ];
        let d = log.durable(&puts.iter().collect::<Vec<_>>());
        let ms = |ns: u64| ns as f64 / 1e6;
        assert_eq!(d.diff_ms, vec![ms(1_000), ms(900)]);
        assert_eq!(d.full_ms, vec![ms(2_000), ms(2_000)]);
        assert_eq!(d.full_wait_ms, vec![ms(400), ms(500)]);
    }
}
