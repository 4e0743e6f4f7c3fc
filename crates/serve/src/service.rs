//! The threaded serving front-end.
//!
//! [`FoldService`] is a wall-clock driver over one [`Engine`]: engine
//! seconds are wall seconds since [`FoldService::start`], so a backend
//! stays busy for its modeled batch time. Batching, routing, retry, the
//! breaker, degradation, poison and timeouts are all the engine's; the
//! service only decides when to step it. One driver thread steps the
//! engine through every event due by wall-now and sleeps until the next
//! one or a submission. `submit` steps the engine to the arrival instant,
//! so the engine's admission verdict returns at once and `submit` never
//! blocks. `shutdown` fast-forwards through the remaining events. Every
//! step lands on an engine event time, so [`Engine::run`] over the requests
//! the service stamped reproduces its statistics exactly.

use crate::backend::Backend;
use crate::batcher::BatcherConfig;
use crate::bucket::BucketPolicy;
use crate::engine::Engine;
use crate::request::{FoldOutcome, FoldRequest, FoldResponse, RejectReason};
use crate::stats::ServeStats;
use ln_fault::{FaultPlan, ResilienceConfig};
use std::collections::HashMap;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Why `submit` refused a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubmitError {
    /// The length bucket's bounded queue is full (backpressure).
    QueueFull,
    /// No backend in the pool can ever fit the sequence.
    TooLong,
    /// Even the fastest fitting backend's service time exceeds the
    /// request's budget: refused at admission instead of burning backend
    /// time on a fold that cannot meet its deadline.
    DeadlineUnmeetable,
    /// The service is shutting down.
    ShuttingDown,
}

impl From<RejectReason> for SubmitError {
    fn from(reason: RejectReason) -> Self {
        match reason {
            RejectReason::QueueFull => SubmitError::QueueFull,
            RejectReason::TooLong => SubmitError::TooLong,
            RejectReason::DeadlineUnmeetable => SubmitError::DeadlineUnmeetable,
        }
    }
}

struct State {
    engine: Engine,
    senders: HashMap<u64, Sender<FoldResponse>>,
    next_id: u64,
    shutdown: bool,
    /// Every request as `submit` stamped it, for the engine-replay test.
    #[cfg(test)]
    stamped: Vec<FoldRequest>,
}

impl State {
    /// Advances the engine through every event due by `now` — never while
    /// it is idle, exactly as [`Engine::run`] stops at idle — and answers
    /// each settled request on its channel. Returns the responses no
    /// channel waits for: the admission verdict of a request mid-`submit`.
    fn step_to(&mut self, now: f64) -> Vec<FoldResponse> {
        let mut orphans = Vec::new();
        while !self.engine.idle() {
            let Some(t) = self.engine.next_event_seconds().filter(|&t| t <= now) else {
                break;
            };
            for resp in self.engine.advance(t) {
                match self.senders.remove(&resp.id) {
                    Some(tx) => {
                        let _ = tx.send(resp);
                    }
                    None => orphans.push(resp),
                }
            }
        }
        orphans
    }
}

const POISONED: &str = "a panic under the service lock left the engine mid-step";

struct Shared {
    state: Mutex<State>,
    wake: Condvar,
    started: Instant,
}

impl Shared {
    fn now(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Locks the state. Faults are modeled, so only a bug panics under the
    /// lock, and it leaves the engine mid-step: poisoning propagates.
    fn lock(&self) -> MutexGuard<'_, State> {
        self.state.lock().expect(POISONED)
    }
}

/// A running folding service: one engine, one driver thread, bounded
/// queues, fast-forward shutdown.
pub struct FoldService {
    shared: Arc<Shared>,
    driver: JoinHandle<()>,
}

impl FoldService {
    /// Starts the service with no injected faults and the default
    /// resilience policy.
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn start(
        policy: BucketPolicy,
        cfg: BatcherConfig,
        backends: Vec<Box<dyn Backend>>,
    ) -> Self {
        FoldService::start_with_resilience(
            policy,
            cfg,
            backends,
            FaultPlan::none(),
            ResilienceConfig::default(),
        )
    }

    /// Starts the service with an explicit fault schedule and resilience
    /// policy (the chaos-testing entry point; fault times are seconds on
    /// the service clock, which starts at zero here).
    ///
    /// # Panics
    ///
    /// Panics if the pool is empty.
    pub fn start_with_resilience(
        policy: BucketPolicy,
        cfg: BatcherConfig,
        backends: Vec<Box<dyn Backend>>,
        plan: FaultPlan,
        resilience: ResilienceConfig,
    ) -> Self {
        let mut engine = Engine::with_resilience(policy, cfg, backends, plan, resilience);
        // The run's trace would only be dropped at shutdown.
        engine.set_tracing(false);
        engine.begin(&[]);
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                engine,
                senders: HashMap::new(),
                next_id: 0,
                shutdown: false,
                #[cfg(test)]
                stamped: Vec::new(),
            }),
            wake: Condvar::new(),
            started: Instant::now(),
        });
        let driver_shared = Arc::clone(&shared);
        let driver = thread::spawn(move || drive(&driver_shared));
        FoldService { shared, driver }
    }

    /// Submits a fold request. Never blocks: a full queue, unroutable
    /// length, or unmeetable deadline returns an error immediately. On
    /// success the returned channel eventually yields exactly one
    /// [`FoldResponse`].
    pub fn submit(
        &self,
        name: &str,
        length: usize,
        timeout_seconds: f64,
    ) -> Result<Receiver<FoldResponse>, SubmitError> {
        let mut st = self.shared.lock();
        if st.shutdown {
            return Err(SubmitError::ShuttingDown);
        }
        // Stamped under the lock, so arrivals reach the engine in time order.
        let now = self.shared.now();
        let id = st.next_id;
        st.next_id += 1;
        let request = FoldRequest {
            id,
            name: name.to_string(),
            length,
            arrival_seconds: now,
            timeout_seconds,
        };
        #[cfg(test)]
        st.stamped.push(request.clone());
        st.engine.inject(request);
        // Admission runs at the arrival instant; only this request can be
        // settled without a channel.
        let (tx, rx) = mpsc::channel();
        match st.step_to(now).pop() {
            Some(FoldResponse {
                outcome: FoldOutcome::Rejected(reason),
                ..
            }) => return Err(reason.into()),
            Some(resp) => {
                let _ = tx.send(resp);
            }
            None => {
                st.senders.insert(id, tx);
            }
        }
        drop(st);
        self.shared.wake.notify_all();
        Ok(rx)
    }

    /// Stops the driver, fast-forwards the engine through every remaining
    /// event (answering each request still owed a response), and returns
    /// the run's statistics.
    pub fn shutdown(self) -> ServeStats {
        self.shared.lock().shutdown = true;
        self.shared.wake.notify_all();
        self.driver.join().expect("the service driver panicked");
        let mut st = self.shared.lock();
        st.step_to(f64::INFINITY);
        st.engine.finish().stats
    }
}

/// The driver loop: step the engine to wall-now, then sleep until its next
/// event or a submission wakes it.
fn drive(shared: &Shared) {
    let mut st = shared.lock();
    while !st.shutdown {
        st.step_to(shared.now());
        let next = (!st.engine.idle())
            .then(|| st.engine.next_event_seconds())
            .flatten();
        // An unrepresentable wait (an infinite deadline) sleeps until woken.
        let timeout =
            next.and_then(|t| Duration::try_from_secs_f64((t - shared.now()).max(0.0)).ok());
        st = match timeout {
            Some(timeout) => shared.wake.wait_timeout(st, timeout).expect(POISONED).0,
            None => shared.wake.wait(st).expect(POISONED),
        };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::{standard_backends, LightNobelBackend};
    use crate::request::FoldError;
    use ln_fault::{PressureWindow, RetryPolicy};
    use ln_quant::ActPrecision;

    fn policy() -> BucketPolicy {
        BucketPolicy::fixed(vec![256, 1024, 4096])
    }

    fn fast_retry(max_attempts: u32) -> ResilienceConfig {
        ResilienceConfig {
            retry: RetryPolicy {
                max_attempts,
                base_seconds: 0.005,
                multiplier: 2.0,
                max_seconds: 0.05,
                jitter: 0.0,
            },
            ..ResilienceConfig::default()
        }
    }

    #[test]
    fn submits_fold_and_shutdown_drains() {
        let svc = FoldService::start(policy(), BatcherConfig::default(), standard_backends());
        let rxs: Vec<_> = (0..6)
            .map(|i| {
                svc.submit(&format!("t{i}"), 200 + i * 150, 60.0)
                    .expect("admitted")
            })
            .collect();
        let stats = svc.shutdown();
        for rx in rxs {
            let resp = rx.recv().expect("response delivered");
            assert!(resp.outcome.is_completed(), "{resp:?}");
        }
        assert_eq!(stats.completed(), 6);
        assert_eq!(stats.rejected() + stats.timed_out() + stats.failed(), 0);
    }

    #[test]
    fn immediate_shutdown_still_answers_every_request() {
        // The shutdown-drain regression: submit a burst and shut down
        // right away — every channel must still yield a definite outcome
        // (drained completion or typed cancellation), never a hang.
        let svc = FoldService::start(policy(), BatcherConfig::default(), standard_backends());
        let rxs: Vec<_> = (0..8)
            .map(|i| {
                svc.submit(&format!("t{i}"), 150 + i * 90, 60.0)
                    .expect("admitted")
            })
            .collect();
        let stats = svc.shutdown();
        let mut definite = 0u64;
        for rx in rxs {
            let resp = rx
                .recv_timeout(Duration::from_secs(30))
                .expect("every request is answered at shutdown");
            match resp.outcome {
                FoldOutcome::Completed { .. } | FoldOutcome::Failed(FoldError::Cancelled) => {
                    definite += 1
                }
                other => panic!("unexpected outcome {other:?}"),
            }
        }
        assert_eq!(definite, 8);
        assert_eq!(stats.completed() + stats.resilience.cancelled, 8);
    }

    #[test]
    fn too_long_is_refused_up_front() {
        let svc = FoldService::start(policy(), BatcherConfig::default(), standard_backends());
        assert_eq!(
            svc.submit("giant", 150_000, 60.0).unwrap_err(),
            SubmitError::TooLong
        );
        let stats = svc.shutdown();
        assert_eq!(stats.rejected(), 1);
    }

    #[test]
    fn unmeetable_deadline_is_refused_before_burning_backend_time() {
        // Far below any backend's modeled service time for 2 000 residues:
        // admission must bounce it, and no batch may ever be dispatched.
        let svc = FoldService::start(policy(), BatcherConfig::default(), standard_backends());
        assert_eq!(
            svc.submit("rush", 2000, 1e-6).unwrap_err(),
            SubmitError::DeadlineUnmeetable
        );
        let stats = svc.shutdown();
        assert_eq!(stats.rejected(), 1);
        assert_eq!(stats.resilience.deadline_unmeetable, 1);
        assert!(
            stats.batch_log.is_empty(),
            "the doomed request never reached a backend"
        );
    }

    #[test]
    fn submit_after_shutdown_fails() {
        let svc = FoldService::start(policy(), BatcherConfig::default(), standard_backends());
        svc.shared.lock().shutdown = true;
        assert_eq!(
            svc.submit("late", 100, 60.0).unwrap_err(),
            SubmitError::ShuttingDown
        );
        assert_eq!(svc.shutdown().rejected(), 0, "refused before admission");
    }

    #[test]
    fn injected_transient_retries_to_completion() {
        // First dispatch on every backend fails transiently; whichever
        // backend picks the retry up, its later sequence numbers are clean.
        let plan = FaultPlan::builder()
            .transient(0, 0)
            .transient(1, 0)
            .transient(2, 0)
            .build();
        let svc = FoldService::start_with_resilience(
            policy(),
            BatcherConfig::default(),
            standard_backends(),
            plan,
            fast_retry(6),
        );
        let rx = svc.submit("retry-me", 500, 60.0).expect("admitted");
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("retried to completion");
        assert!(resp.outcome.is_completed(), "{resp:?}");
        let stats = svc.shutdown();
        assert!(stats.resilience.retries >= 1);
        assert!(stats.resilience.faults() >= 1);
        assert_eq!(stats.completed(), 1);
    }

    #[test]
    fn worker_panic_is_contained_and_the_thread_survives() {
        // Every backend's first dispatch panics its worker. The panic is a
        // typed failure: the same request retries to completion and a
        // follow-up request also completes.
        let plan = FaultPlan::builder()
            .worker_panic(0, 0)
            .worker_panic(1, 0)
            .worker_panic(2, 0)
            .build();
        let svc = FoldService::start_with_resilience(
            policy(),
            BatcherConfig::default(),
            standard_backends(),
            plan,
            fast_retry(6),
        );
        let rx = svc.submit("survivor", 500, 60.0).expect("admitted");
        let resp = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("panic contained, retry completed");
        assert!(resp.outcome.is_completed(), "{resp:?}");
        let rx2 = svc.submit("after-panic", 300, 60.0).expect("admitted");
        let resp2 = rx2
            .recv_timeout(Duration::from_secs(30))
            .expect("workers still serving");
        assert!(resp2.outcome.is_completed(), "{resp2:?}");
        let stats = svc.shutdown();
        assert!(stats.resilience.backends.iter().any(|b| b.panics > 0));
        assert_eq!(stats.completed(), 2);
    }

    #[test]
    fn service_run_replays_exactly_through_the_engine() {
        // A spaced mixed-length burst under transients and a pressure
        // window that degrades the AAQ backend: the service's statistics
        // must be exactly those of the engine run over the requests it
        // stamped — one state machine, driven by two clocks.
        let ln = LightNobelBackend::paper("LightNobel");
        let fraction =
            ln.batch_peak_bytes_at(&[6000], ActPrecision::Int4) * 1.2 / ln.memory_capacity_bytes();
        let plan = FaultPlan::builder()
            .transient(0, 0)
            .transient(1, 0)
            .transient(2, 1)
            .pressure(PressureWindow {
                backend: 0,
                start_seconds: 0.0,
                end_seconds: 1e9,
                available_fraction: fraction,
            })
            .build();
        let cfg = BatcherConfig {
            max_wait_seconds: 0.05,
            ..BatcherConfig::default()
        };
        let svc = FoldService::start_with_resilience(
            policy(),
            cfg,
            standard_backends(),
            plan.clone(),
            fast_retry(4),
        );
        let lengths = [180, 3000, 700, 90, 2200, 400, 6000, 1200, 150, 3500];
        for (i, &len) in lengths.iter().enumerate() {
            // Request 3 is rushed, so admission refuses it.
            let budget = if i == 3 { 1e-6 } else { 1e5 };
            let _ = svc.submit(&format!("r{i}"), len, budget);
            thread::sleep(Duration::from_millis(15));
        }
        let stamped = svc.shared.lock().stamped.clone();
        let stats = svc.shutdown();

        let replay =
            Engine::with_resilience(policy(), cfg, standard_backends(), plan, fast_retry(4))
                .run(&stamped);
        assert_eq!(stats.resilience.deadline_unmeetable, 1);
        assert!(stats.resilience.retries >= 1, "{:?}", stats.resilience);
        assert!(stats.resilience.degraded_batches() >= 1);
        assert_eq!(stats.fingerprint(), replay.stats.fingerprint());
    }
}
