//! The serving layer end to end: a deterministic scheduled run through the
//! virtual-time engine, then the same pool behind the threaded service.
//!
//! Run with `cargo run --release --example serving`.

use ln_serve::{
    standard_backends, BatcherConfig, BucketPolicy, Engine, FoldOutcome, FoldService, WorkloadSpec,
};

fn main() {
    let reg = ln_datasets::Registry::standard();
    let policy = BucketPolicy::from_registry(&reg, 4);

    // 1. Deterministic virtual-time run: same seed, same schedule, always.
    let workload = WorkloadSpec::cameo_casp_mix(48, 2.0).synthesize(&reg);
    let mut engine = Engine::new(
        policy.clone(),
        BatcherConfig::default(),
        standard_backends(),
    );
    let out = engine.run(&workload);
    println!("virtual-time engine over {} requests:", workload.len());
    print!(
        "{}",
        out.stats
            .table(&policy, BatcherConfig::default().max_batch)
            .render()
    );
    println!(
        "throughput {:.3} req/s over {:.1}s (virtual), schedule fingerprint {:#018x}\n",
        out.stats.throughput(),
        out.stats.makespan_seconds,
        out.stats.fingerprint()
    );

    // 2. The threaded front-end: submit a few folds, including one only the
    //    AAQ-capable backend can hold, then drain. The service runs the same
    //    engine on the wall clock, where the giant fold would hold its
    //    backend for minutes; shutdown fast-forwards through that, so it
    //    comes before reading the receivers.
    let svc = FoldService::start(policy, BatcherConfig::default(), standard_backends());
    let names = [
        ("CAMEO-ish", 180),
        ("CASP14-ish", 1100),
        ("T1169-scale", 3364),
        ("giant", 8000),
    ];
    let tickets: Vec<_> = names
        .iter()
        // Budgets are generous: an 8000-residue fold's best-case service
        // time alone runs to hundreds of virtual seconds, and admission
        // now refuses deadlines that cannot be met even best-case.
        .map(|&(name, len)| (name, svc.submit(name, len, 1e5).expect("admitted")))
        .collect();
    let stats = svc.shutdown();
    for (name, rx) in tickets {
        let resp = rx.recv().expect("response");
        match resp.outcome {
            FoldOutcome::Completed {
                backend,
                started_seconds,
                finished_seconds,
                batch_size,
                precision,
            } => {
                println!(
                    "{name:>12} ({} aa) -> {backend:<12} batch={batch_size} {precision} \
                     dispatched {started_seconds:.2}s folded in {:.2}s (virtual)",
                    resp.length,
                    finished_seconds - started_seconds
                );
            }
            other => println!("{name:>12} -> {other:?}"),
        }
    }
    println!(
        "service drained: {} completed, {} rejected, {} timed out",
        stats.completed(),
        stats.rejected(),
        stats.timed_out()
    );
}
