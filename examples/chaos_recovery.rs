//! Fault injection against the live threaded service: a worker panic is
//! contained, a transient error is retried to completion, and memory
//! pressure degrades a long sequence down the AAQ ladder instead of
//! rejecting it.
//!
//! Run with `cargo run --release --example chaos_recovery`.
//!
//! The injected worker panic is modeled, not unwound: the service's engine
//! turns it into a typed `FoldError::WorkerPanic`, retries the batch, and
//! keeps answering — which is the point.

use ln_fault::{FaultPlan, PressureWindow, ResilienceConfig, RetryPolicy};
use ln_quant::ActPrecision;
use ln_serve::{
    standard_backends, Backend, BatcherConfig, BucketPolicy, FoldOutcome, FoldService,
    LightNobelBackend,
};

fn main() {
    let reg = ln_datasets::Registry::standard();
    let policy = BucketPolicy::from_registry(&reg, 4);

    // Squeeze the AAQ backend to ~1.2x the INT4 footprint of its longest
    // routable sequence, panic its first dispatch, and fail the GPUs'
    // first dispatches transiently.
    let ln = LightNobelBackend::paper("LightNobel");
    let giant_len = ln.max_single_length();
    let fraction =
        ln.batch_peak_bytes_at(&[giant_len], ActPrecision::Int4) * 1.2 / ln.memory_capacity_bytes();
    let plan = FaultPlan::builder()
        .worker_panic(1, 0)
        .transient(2, 0)
        .pressure(PressureWindow {
            backend: 0,
            start_seconds: 0.0,
            end_seconds: 1e9,
            available_fraction: fraction,
        })
        .build();
    let resilience = ResilienceConfig {
        retry: RetryPolicy {
            max_attempts: 4,
            base_seconds: 0.01,
            ..RetryPolicy::default()
        },
        ..ResilienceConfig::default()
    };

    let cfg = BatcherConfig {
        max_wait_seconds: 0.05,
        ..BatcherConfig::default()
    };
    let svc =
        FoldService::start_with_resilience(policy, cfg, standard_backends(), plan, resilience);

    let folds = [
        ("CAMEO-ish", 180),
        ("CASP14-ish", 1100),
        ("giant-under-pressure", giant_len),
    ];
    let tickets: Vec<_> = folds
        .iter()
        // A near-capacity fold takes a long virtual time on its own, so
        // budgets are generous: the point here is faults, not deadlines.
        .map(|&(name, len)| (name, svc.submit(name, len, 1e5).expect("admitted")))
        .collect();
    // Shutdown fast-forwards through the modeled device time, so the
    // near-capacity fold does not hold this process for minutes.
    let stats = svc.shutdown();
    for (name, rx) in tickets {
        let resp = rx.recv().expect("every admitted request is answered");
        match resp.outcome {
            FoldOutcome::Completed {
                backend, precision, ..
            } => {
                let note = if precision.is_degraded() {
                    " (degraded under memory pressure)"
                } else {
                    ""
                };
                println!(
                    "{name:>22} ({} aa) -> {backend:<12} at {precision}{note}",
                    resp.length
                );
            }
            other => println!("{name:>22} -> {other:?}"),
        }
    }

    let (per_backend, summary) = stats.resilience_tables();
    println!("\n{}", per_backend.render());
    println!("{}", summary.render());
    println!(
        "injected faults survived: {} faults, {} retries, {} degraded batches, \
         availability {:.1}%",
        stats.resilience.faults(),
        stats.resilience.retries,
        stats.resilience.degraded_batches(),
        stats.availability() * 100.0
    );
}
