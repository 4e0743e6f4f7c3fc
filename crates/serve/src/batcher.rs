//! The length-bucketed dynamic batcher.
//!
//! One bounded FIFO queue per length bucket. A bucket becomes *ready* when
//! it holds a full batch or its head has waited `max_wait_seconds`; a
//! ready bucket is drained front-to-front into a batch, never crossing
//! bucket boundaries. Admission is non-blocking: a full queue rejects.
//!
//! Queued entries carry retry state ([`QueuedRequest`]): a failed batch's
//! requests are [`Batcher::requeue`]d with an `earliest_seconds` backoff
//! gate, and a bucket whose head is still backing off is not ready until
//! the gate passes (FIFO order is preserved — a parked head parks the
//! bucket, and the per-request deadline still bounds the wait).

use crate::bucket::BucketPolicy;
use crate::request::FoldRequest;
use std::collections::VecDeque;

/// Batching and admission parameters.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatcherConfig {
    /// Maximum requests per batch (1 = sequential dispatch).
    pub max_batch: usize,
    /// Maximum seconds the head of a bucket may wait before the bucket is
    /// flushed even when under-full.
    pub max_wait_seconds: f64,
    /// Bounded per-bucket queue depth; offers beyond it are rejected.
    pub queue_capacity: usize,
    /// Service-time budget per batch, virtual seconds: a batch stops
    /// growing once its predicted execution time would exceed this. Keeps
    /// long-sequence buckets from forming minutes-long batches that
    /// serialize one backend while the rest idle (the batch always admits
    /// its head, so no request can be starved by the budget).
    pub max_batch_seconds: f64,
}

impl Default for BatcherConfig {
    fn default() -> Self {
        BatcherConfig {
            max_batch: 8,
            max_wait_seconds: 2.0,
            queue_capacity: 64,
            max_batch_seconds: f64::INFINITY,
        }
    }
}

impl BatcherConfig {
    /// Sequential dispatch: one request per batch, no batching delay.
    pub fn sequential() -> Self {
        BatcherConfig {
            max_batch: 1,
            max_wait_seconds: 0.0,
            ..BatcherConfig::default()
        }
    }
}

/// A queued request plus its retry state.
#[derive(Debug, Clone, PartialEq)]
pub struct QueuedRequest {
    /// The request itself.
    pub request: FoldRequest,
    /// Completed dispatch attempts (0 = never dispatched).
    pub attempt: u32,
    /// Backoff gate: not dispatchable before this virtual time.
    pub earliest_seconds: f64,
}

impl QueuedRequest {
    /// Wraps a freshly admitted request (no attempts, no backoff).
    pub fn fresh(request: FoldRequest) -> Self {
        let earliest_seconds = request.arrival_seconds;
        QueuedRequest {
            request,
            attempt: 0,
            earliest_seconds,
        }
    }
}

/// Per-bucket bounded queues plus the flush policy.
#[derive(Debug, Clone)]
pub struct Batcher {
    policy: BucketPolicy,
    cfg: BatcherConfig,
    queues: Vec<VecDeque<QueuedRequest>>,
}

impl Batcher {
    /// Builds a batcher for a bucket policy.
    pub fn new(policy: BucketPolicy, cfg: BatcherConfig) -> Self {
        let queues = (0..policy.num_buckets()).map(|_| VecDeque::new()).collect();
        Batcher {
            policy,
            cfg,
            queues,
        }
    }

    /// The bucket policy.
    pub fn policy(&self) -> &BucketPolicy {
        &self.policy
    }

    /// The configuration.
    pub fn config(&self) -> &BatcherConfig {
        &self.cfg
    }

    /// Queue depth of one bucket.
    pub fn depth(&self, bucket: usize) -> usize {
        self.queues[bucket].len()
    }

    /// Total queued requests across buckets.
    pub fn total_depth(&self) -> usize {
        self.queues.iter().map(VecDeque::len).sum()
    }

    /// Admits a request into its bucket's queue, or returns it when the
    /// queue is at capacity (the caller turns that into a rejection —
    /// admission never blocks).
    pub fn offer(&mut self, request: FoldRequest) -> Result<usize, FoldRequest> {
        let bucket = self.policy.bucket_of(request.length);
        if self.queues[bucket].len() >= self.cfg.queue_capacity {
            return Err(request);
        }
        self.queues[bucket].push_back(QueuedRequest::fresh(request));
        Ok(bucket)
    }

    /// Re-admits a request after a failed attempt. Unlike [`Batcher::offer`]
    /// this never bounces: a request that was already admitted must reach a
    /// terminal outcome, so retries bypass the capacity bound rather than
    /// silently dropping the request. Returns the bucket.
    pub fn requeue(&mut self, queued: QueuedRequest) -> usize {
        let bucket = self.policy.bucket_of(queued.request.length);
        self.queues[bucket].push_back(queued);
        bucket
    }

    /// Removes and returns every queued request whose dispatch deadline has
    /// passed at virtual time `now`, in id order.
    pub fn expire(&mut self, now: f64) -> Vec<FoldRequest> {
        let mut expired = Vec::new();
        for q in &mut self.queues {
            let mut keep = VecDeque::with_capacity(q.len());
            for entry in std::mem::take(q) {
                if now >= entry.request.deadline() {
                    expired.push(entry.request);
                } else {
                    keep.push_back(entry);
                }
            }
            *q = keep;
        }
        expired.sort_by_key(|r| r.id);
        expired
    }

    /// Wipes one bucket's queue (the injected queue-poison fault) and
    /// returns the victims in queue order for the caller to re-admit or
    /// fail.
    pub fn poison_bucket(&mut self, bucket: usize) -> Vec<QueuedRequest> {
        self.queues
            .get_mut(bucket)
            .map(|q| std::mem::take(q).into())
            .unwrap_or_default()
    }

    /// Removes one queued request by id, wherever it sits (used by the
    /// cluster layer to cancel a hedged attempt whose twin already won).
    pub fn remove(&mut self, id: u64) -> Option<QueuedRequest> {
        for q in &mut self.queues {
            if let Some(pos) = q.iter().position(|e| e.request.id == id) {
                return q.remove(pos);
            }
        }
        None
    }

    /// Steals one request from the **tail** of the deepest bucket whose
    /// tail sequence fits `max_len` (ties break on the lower bucket index).
    /// Tail-first keeps the victim shard's imminent batches intact — the
    /// stolen request is the one that would have waited longest anyway.
    pub fn steal_tail(&mut self, max_len: usize) -> Option<QueuedRequest> {
        let victim = self
            .queues
            .iter()
            .enumerate()
            .filter(|(_, q)| q.back().is_some_and(|e| e.request.length <= max_len))
            .max_by(|(ai, aq), (bi, bq)| aq.len().cmp(&bq.len()).then(bi.cmp(ai)))
            .map(|(b, _)| b)?;
        self.queues[victim].pop_back()
    }

    /// Buckets eligible for flushing at `now`, oldest head first (ties
    /// break on bucket index, keeping the schedule deterministic). A head
    /// still inside its backoff gate parks its bucket.
    pub fn ready_buckets(&self, now: f64) -> Vec<usize> {
        let mut ready: Vec<(f64, u64, usize)> = self
            .queues
            .iter()
            .enumerate()
            .filter_map(|(b, q)| {
                let head = q.front()?;
                if head.earliest_seconds > now {
                    return None;
                }
                let full = q.len() >= self.cfg.max_batch;
                // `now - arrival` can round below `max_wait` at the flush
                // deadline; compare against it as `next_deadline` computes it.
                let waited = now >= head.request.arrival_seconds + self.cfg.max_wait_seconds;
                let retried = head.attempt > 0;
                (full || waited || retried).then_some((
                    head.request.arrival_seconds,
                    head.request.id,
                    b,
                ))
            })
            .collect();
        ready.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        ready.into_iter().map(|(_, _, b)| b).collect()
    }

    /// Sequence length at the head of a bucket.
    pub fn head_length(&self, bucket: usize) -> Option<usize> {
        self.queues[bucket].front().map(|r| r.request.length)
    }

    /// The earliest time strictly after `now` at which anything changes on
    /// its own: a bucket's max-wait flush, a backoff gate opening, or a
    /// request's timeout. Candidates at or before `now` are stale — the
    /// bucket is already ready (or expired) and only a backend becoming
    /// idle can move it — so they are excluded rather than returned as a
    /// zero-length sleep.
    pub fn next_deadline(&self, now: f64) -> Option<f64> {
        let mut t: Option<f64> = None;
        let mut fold = |cand: f64| {
            if cand > now {
                t = Some(t.map_or(cand, |cur: f64| cur.min(cand)));
            }
        };
        for q in &self.queues {
            if let Some(head) = q.front() {
                fold(head.request.arrival_seconds + self.cfg.max_wait_seconds);
                fold(head.earliest_seconds);
            }
            for r in q {
                fold(r.request.deadline());
            }
        }
        t
    }

    /// Pops a batch from the front of a bucket: up to `max_batch` requests,
    /// greedily extended while `fits` accepts the accumulated lengths and
    /// the next entry's backoff gate has opened by `now`.
    ///
    /// The caller must have verified that the head alone fits; buckets are
    /// never mixed, so every returned request maps to `bucket`.
    pub fn take_batch(
        &mut self,
        bucket: usize,
        now: f64,
        fits: impl Fn(&[usize]) -> bool,
    ) -> Vec<QueuedRequest> {
        let q = &mut self.queues[bucket];
        let mut batch: Vec<QueuedRequest> = Vec::new();
        let mut lengths: Vec<usize> = Vec::new();
        while batch.len() < self.cfg.max_batch {
            let Some(next) = q.pop_front() else { break };
            if next.earliest_seconds > now {
                q.push_front(next);
                break;
            }
            lengths.push(next.request.length);
            if !batch.is_empty() && !fits(&lengths) {
                q.push_front(next);
                break;
            }
            batch.push(next);
        }
        batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn req(id: u64, length: usize, arrival: f64) -> FoldRequest {
        FoldRequest {
            id,
            name: format!("r{id}"),
            length,
            arrival_seconds: arrival,
            timeout_seconds: 100.0,
        }
    }

    fn batcher(max_batch: usize, cap: usize) -> Batcher {
        Batcher::new(
            BucketPolicy::fixed(vec![100, 500]),
            BatcherConfig {
                max_batch,
                max_wait_seconds: 2.0,
                queue_capacity: cap,
                ..BatcherConfig::default()
            },
        )
    }

    #[test]
    fn offer_routes_to_length_bucket_and_bounds_depth() {
        let mut b = batcher(4, 2);
        assert_eq!(b.offer(req(1, 50, 0.0)), Ok(0));
        assert_eq!(b.offer(req(2, 300, 0.0)), Ok(1));
        assert_eq!(b.offer(req(3, 80, 0.0)), Ok(0));
        // Bucket 0 is now at capacity 2: the next short request bounces.
        let bounced = b.offer(req(4, 90, 0.0)).expect_err("queue full");
        assert_eq!(bounced.id, 4);
        // Other buckets are unaffected by bucket 0's backpressure.
        assert_eq!(b.offer(req(5, 600, 0.0)), Ok(2));
        assert_eq!(b.total_depth(), 4);
    }

    #[test]
    fn ready_on_full_batch_or_head_wait() {
        let mut b = batcher(2, 10);
        b.offer(req(1, 50, 0.0)).unwrap();
        assert!(
            b.ready_buckets(0.1).is_empty(),
            "single fresh request waits"
        );
        assert_eq!(b.ready_buckets(2.0), vec![0], "head waited max_wait");
        b.offer(req(2, 60, 0.1)).unwrap();
        assert_eq!(
            b.ready_buckets(0.1),
            vec![0],
            "full batch is ready immediately"
        );
    }

    #[test]
    fn ready_exactly_at_the_flush_deadline() {
        // (0.3 + 2.0) - 0.3 rounds below 2.0: the bucket must still be
        // ready at the instant `next_deadline` wakes the scheduler for it.
        let mut b = batcher(8, 10);
        b.offer(req(1, 50, 0.3)).unwrap();
        let flush = b.next_deadline(0.3).expect("flush pending");
        assert_eq!(b.ready_buckets(flush), vec![0]);
    }

    #[test]
    fn ready_order_is_oldest_head_first() {
        let mut b = batcher(1, 10);
        b.offer(req(1, 600, 0.5)).unwrap();
        b.offer(req(2, 50, 0.2)).unwrap();
        b.offer(req(3, 300, 0.2)).unwrap();
        // max_batch = 1: every non-empty bucket is ready; ties break on id.
        assert_eq!(b.ready_buckets(5.0), vec![0, 1, 2]);
    }

    #[test]
    fn take_batch_respects_cap_and_fit() {
        let mut b = batcher(3, 10);
        for i in 0..5 {
            b.offer(req(i, 50 + i as usize, 0.0)).unwrap();
        }
        // Fit closure caps accumulated "memory" at two sequences.
        let batch = b.take_batch(0, 0.0, |lens| lens.len() <= 2);
        assert_eq!(batch.len(), 2);
        assert_eq!(batch[0].request.id, 0);
        assert_eq!(batch[1].request.id, 1);
        let rest = b.take_batch(0, 0.0, |_| true);
        assert_eq!(rest.len(), 3, "max_batch caps the flush");
        assert_eq!(b.depth(0), 0);
    }

    #[test]
    fn expire_removes_past_deadline_in_id_order() {
        let mut b = batcher(8, 10);
        let mut r1 = req(1, 50, 0.0);
        r1.timeout_seconds = 1.0;
        let mut r2 = req(2, 600, 0.0);
        r2.timeout_seconds = 5.0;
        b.offer(r1).unwrap();
        b.offer(r2).unwrap();
        let gone = b.expire(1.0);
        assert_eq!(gone.len(), 1);
        assert_eq!(gone[0].id, 1);
        assert_eq!(b.total_depth(), 1);
        assert!(b.expire(4.9).is_empty());
        assert_eq!(b.expire(5.0).len(), 1);
    }

    #[test]
    fn next_deadline_is_min_of_flush_and_timeout() {
        let mut b = batcher(8, 10);
        assert_eq!(b.next_deadline(0.0), None);
        let mut r = req(1, 50, 1.0);
        r.timeout_seconds = 0.5; // deadline 1.5 < flush 1.0 + 2.0
        b.offer(r).unwrap();
        assert_eq!(b.next_deadline(1.0), Some(1.5));
        b.offer(req(2, 600, 1.2)).unwrap(); // flush at 3.2, timeout at 101.2
        assert_eq!(b.next_deadline(1.2), Some(1.5));
        assert_eq!(b.next_deadline(1.5), Some(3.0), "past candidates excluded");
    }

    #[test]
    fn requeue_bypasses_capacity_and_backoff_parks_the_bucket() {
        let mut b = batcher(8, 1);
        b.offer(req(1, 50, 0.0)).unwrap();
        // Queue is at capacity 1, but the retry must still land.
        let retry = QueuedRequest {
            request: req(2, 60, 0.0),
            attempt: 1,
            earliest_seconds: 5.0,
        };
        assert_eq!(b.requeue(retry), 0);
        assert_eq!(b.depth(0), 2);
        // Head (id 1, fresh) hasn't waited max_wait at t=1.0 → not ready.
        assert!(b.ready_buckets(1.0).is_empty());
        // At t=2.0 it is; the batch stops before the gated retry.
        assert_eq!(b.ready_buckets(2.0), vec![0]);
        let batch = b.take_batch(0, 2.0, |_| true);
        assert_eq!(batch.len(), 1, "gated retry stays queued");
        assert_eq!(batch[0].request.id, 1);
        // Now the retry is the head: parked until its gate opens.
        assert!(b.ready_buckets(4.9).is_empty());
        let ready = b.ready_buckets(5.0);
        assert_eq!(ready, vec![0], "retried head is ready as soon as gated");
        let batch = b.take_batch(0, 5.0, |_| true);
        assert_eq!(batch[0].attempt, 1);
    }

    #[test]
    fn next_deadline_includes_backoff_gates() {
        let mut b = batcher(8, 10);
        b.requeue(QueuedRequest {
            request: req(1, 50, 0.0),
            attempt: 1,
            earliest_seconds: 7.5,
        });
        // Min of flush (0 + 2.0), gate (7.5) and deadline (100): the flush.
        assert_eq!(b.next_deadline(0.0), Some(2.0));
        // Past the stale flush, the backoff gate is the next wake point.
        assert_eq!(b.next_deadline(3.0), Some(7.5));
    }

    #[test]
    fn remove_plucks_by_id_anywhere() {
        let mut b = batcher(8, 10);
        b.offer(req(1, 50, 0.0)).unwrap();
        b.offer(req(2, 60, 0.1)).unwrap();
        b.offer(req(3, 600, 0.0)).unwrap();
        let got = b.remove(2).expect("queued");
        assert_eq!(got.request.id, 2);
        assert_eq!(b.depth(0), 1);
        assert!(b.remove(2).is_none(), "already gone");
        assert!(b.remove(99).is_none());
        assert_eq!(b.total_depth(), 2);
    }

    #[test]
    fn steal_tail_takes_deepest_bucket_newest_entry() {
        let mut b = batcher(8, 10);
        b.offer(req(1, 50, 0.0)).unwrap();
        b.offer(req(2, 60, 0.1)).unwrap();
        b.offer(req(3, 600, 0.0)).unwrap();
        // Bucket 0 is deepest (2 vs 1): steal its tail, not its head.
        let got = b.steal_tail(usize::MAX).expect("stealable");
        assert_eq!(got.request.id, 2);
        // Depths now tie at 1 and 1: the lower bucket index wins.
        let got = b.steal_tail(usize::MAX).expect("stealable");
        assert_eq!(got.request.id, 1);
        // Only the long request remains; a short-only thief gets nothing.
        assert!(b.steal_tail(100).is_none());
        assert_eq!(b.steal_tail(1000).unwrap().request.id, 3);
        assert!(b.steal_tail(usize::MAX).is_none(), "empty batcher");
    }

    #[test]
    fn poison_bucket_returns_victims_in_order() {
        let mut b = batcher(8, 10);
        b.offer(req(1, 50, 0.0)).unwrap();
        b.offer(req(2, 60, 0.1)).unwrap();
        b.offer(req(3, 600, 0.0)).unwrap();
        let victims = b.poison_bucket(0);
        assert_eq!(victims.len(), 2);
        assert_eq!(victims[0].request.id, 1);
        assert_eq!(victims[1].request.id, 2);
        assert_eq!(b.depth(0), 0);
        assert_eq!(b.depth(2), 1, "other buckets untouched");
        assert!(b.poison_bucket(99).is_empty(), "out-of-range is a no-op");
    }
}
