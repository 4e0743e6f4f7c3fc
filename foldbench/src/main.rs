//! Wall-clock fold benchmark.
//!
//! ```text
//! cargo run --release --manifest-path foldbench/Cargo.toml -- \
//!     --workload fold_aaq_cameo --seed 1 --seconds 40 --trace 0
//! ```
//!
//! Folds the workload's seeded inputs through
//! `FoldingModel::predict_with_hook` for `--seconds`, checks every output,
//! and prints one JSON result as its last stdout line. With `--trace 1` it
//! alternates untraced folds with folds composed from the layer functions
//! under spans, and reports per-layer metrics instead. See README.md.

mod checks;
mod fold;
mod host;
mod stats;
mod trace;
mod workload;

use checks::{bit_identical, check_fold, digest, fold_digest, Accuracy, Failure, FNV_OFFSET};
use fold::{is_pair_unit, Trunk, EMBED_SPAN, FOLD_SPAN, STRUCTURE_SPAN, UNITS};
use host::Host;
use lightnobel::hook::AaqHook;
use ln_ppm::cost::CostModel;
use ln_ppm::taps::{ActivationHook, NoopHook};
use ln_ppm::{FoldingModel, PpmConfig, PpmError, PredictionOutput};
use stats::median;
use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;
use trace::{TimedHook, Tracer, HOOK_SPAN};
use workload::{Input, Workload};

/// Set-ups (model construction with input synthesis) timed before the
/// first pass and after each pass. Set-up takes about 20 ms, so sampling it
/// across the whole run keeps one burst of host load from setting `setup_s`.
const SETUP_REPS: usize = 5;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut flags = BTreeMap::new();
    let mut it = args;
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        if !["--workload", "--seed", "--seconds", "--trace"].contains(&flag.as_str()) {
            return Err(format!("unknown flag {flag}"));
        }
        flags.insert(flag, value);
    }
    let get = |f: &str| flags.get(f).ok_or(format!("missing {f}"));
    let name = get("--workload")?;
    let workload = Workload::parse(name).ok_or(format!(
        "unknown workload {name}; expected one of {:?}",
        workload::NAMES
    ))?;
    let seed = get("--seed")?.parse().map_err(|e| format!("--seed: {e}"))?;
    let seconds: f64 = get("--seconds")?
        .parse()
        .map_err(|e| format!("--seconds: {e}"))?;
    let trace = match flags.get("--trace").map_or("0", String::as_str) {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace takes 0 or 1, not {t}")),
    };
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("foldbench: {e}");
            return ExitCode::from(2);
        }
    };
    ln_obs::set_level(ln_obs::ObsLevel::Off);
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let pool = ln_par::Pool::new_exact(nproc);
    let host = Host::measure(&pool);
    println!("host {}", host.json());
    let result = ln_par::with_pool(&pool, || run(&args, &host));
    println!("{}", result.json());
    ExitCode::SUCCESS
}

/// Folds attempted and failed.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    failed: u64,
}

impl Tally {
    /// Counts one fold, reporting the first few failures on stderr.
    fn record(&mut self, what: &str, outcome: Result<Accuracy, Failure>) {
        self.attempted += 1;
        if let Err(e) = outcome {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("foldbench: {what}: {e}");
            }
        }
    }
}

struct RunResult {
    tally: Tally,
    metrics: Vec<(String, f64, &'static str)>,
}

impl RunResult {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, value, unit)| {
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        let finite = self.metrics.iter().all(|m| m.1.is_finite());
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.tally.failed == 0 && finite,
            self.tally.attempted,
            self.tally.failed,
            metrics.join(", ")
        )
    }
}

/// State shared by every fold of one run.
struct Bench<'a> {
    workload: &'a Workload,
    model: FoldingModel,
    inputs: Vec<Input>,
    /// FP32 fold of each input, for the quantized workloads.
    references: Vec<Option<PredictionOutput>>,
    /// Digest and accuracy of the first fold of each input.
    firsts: Vec<Option<(u64, Accuracy)>>,
    tally: Tally,
}

impl Bench<'_> {
    /// Checks a fold of input `i` ([`check_fold`], then its digest against
    /// the input's first passing fold) and counts it.
    fn check(&mut self, i: usize, what: &str, out: &Result<PredictionOutput, PpmError>) {
        let outcome = match out {
            Err(e) => Err(Failure::Error(e.to_string())),
            Ok(out) => check_fold(out, &self.inputs[i].native, self.references[i].as_ref())
                .and_then(|acc| {
                    let d = digest(out);
                    match *self.firsts[i].get_or_insert((d, acc)) {
                        (want, _) if want != d => Err(Failure::NotDeterministic),
                        _ => Ok(acc),
                    }
                }),
        };
        let len = self.inputs[i].sequence.len();
        self.tally.record(&format!("{what} L={len}"), outcome);
    }

    /// One untraced pass over the inputs through `predict_with_hook`.
    /// Returns the mean fold seconds and each output.
    fn pass(&mut self) -> (f64, Vec<Result<PredictionOutput, PpmError>>) {
        let mut seconds = 0.0;
        let mut outs = Vec::with_capacity(self.inputs.len());
        for i in 0..self.inputs.len() {
            let input = &self.inputs[i];
            let mut quantizer = self.workload.quantizer();
            let hook: &mut dyn ActivationHook = match quantizer.as_mut() {
                Some(q) => q,
                None => &mut NoopHook,
            };
            let t = Instant::now();
            let out = self
                .model
                .predict_with_hook(&input.sequence, &input.native, hook);
            seconds += t.elapsed().as_secs_f64();
            self.check(i, "fold", &out);
            outs.push(out);
        }
        (seconds / self.inputs.len() as f64, outs)
    }

    /// One traced pass: each input folded by the span-wrapped composition,
    /// checked bit-for-bit against `untraced` (the same pass through
    /// `predict_with_hook`). Returns the mean fold seconds.
    fn traced_pass(
        &mut self,
        trunk: &Trunk,
        tracer: &Tracer,
        untraced: &[Result<PredictionOutput, PpmError>],
        quant: &mut QuantTotals,
        fold_id: &mut u32,
    ) -> f64 {
        let mut seconds = 0.0;
        for (i, want) in untraced.iter().enumerate() {
            let input = &self.inputs[i];
            tracer.set_fold(*fold_id);
            *fold_id += 1;
            let mut timed = self.workload.quantizer().map(|q| TimedHook::new(q, tracer));
            let hook: &mut dyn ActivationHook = match timed.as_mut() {
                Some(q) => q,
                None => &mut NoopHook,
            };
            let t = Instant::now();
            let out = trunk.fold(&input.sequence, &input.native, hook, tracer);
            seconds += t.elapsed().as_secs_f64();
            if let Some(q) = &timed {
                quant.add(q.inner(), q.calls());
            }
            let same = match (&out, want) {
                (Ok(got), Ok(want)) => bit_identical(got, want),
                _ => false,
            };
            if same {
                self.check(i, "traced fold", &out);
            } else {
                let len = input.sequence.len();
                self.tally.record(
                    &format!("traced fold L={len}"),
                    Err(Failure::CompositionMismatch),
                );
            }
        }
        seconds / self.inputs.len() as f64
    }

    /// Mean accuracy over the inputs' first passing folds.
    fn accuracy(&self) -> Accuracy {
        let accs: Vec<Accuracy> = self.firsts.iter().flatten().map(|f| f.1).collect();
        let n = accs.len().max(1) as f64;
        Accuracy {
            tm_vs_fp32: accs.iter().map(|a| a.tm_vs_fp32).sum::<f64>() / n,
            pair_rel_rmse_vs_fp32: accs.iter().map(|a| a.pair_rel_rmse_vs_fp32).sum::<f64>() / n,
        }
    }

    /// Digest of the whole workload: every input's first fold, in order.
    fn digest(&self) -> u64 {
        let firsts = self.firsts.iter().map(|f| f.map_or(0, |f| f.0));
        fold_digest(FNV_OFFSET, firsts)
    }
}

/// Quantizer-hook totals over the traced folds.
#[derive(Debug, Default)]
struct QuantTotals {
    calls: u64,
    tokens: u64,
    encoded_bytes: u64,
    fp16_bytes: u64,
}

impl QuantTotals {
    fn add(&mut self, hook: &AaqHook, calls: u64) {
        self.calls += calls;
        self.tokens += hook.tokens_processed();
        self.encoded_bytes += hook.encoded_bytes();
        self.fp16_bytes += hook.fp16_bytes();
    }
}

fn run(args: &Args, host: &Host) -> RunResult {
    let config = PpmConfig::standard();
    let mut setup_times = Vec::new();
    let (model, inputs) = set_up(&args.workload, args.seed, &mut setup_times);
    let n = inputs.len();
    let mut bench = Bench {
        workload: &args.workload,
        model,
        inputs,
        references: vec![None; n],
        firsts: vec![None; n],
        tally: Tally::default(),
    };

    // FP32 references for the quantized workloads; each must clear the
    // FP32 TM floor like any FP32 fold.
    if args.workload.quantizer().is_some() {
        for i in 0..n {
            let input = &bench.inputs[i];
            let out = bench.model.predict(&input.sequence, &input.native);
            let outcome = match &out {
                Ok(o) => check_fold(o, &input.native, None),
                Err(e) => Err(Failure::Error(e.to_string())),
            };
            let len = input.sequence.len();
            bench
                .tally
                .record(&format!("FP32 reference L={len}"), outcome);
            bench.references[i] = out.ok();
        }
    }

    let metrics = if args.trace {
        traced_run(&mut bench, args.seconds, &config, host)
    } else {
        untraced_run(&mut bench, args.seconds, args.seed, setup_times)
    };
    println!(
        "digest {} seed={} {:016x}",
        args.workload.name,
        args.seed,
        bench.digest()
    );
    RunResult {
        tally: bench.tally,
        metrics,
    }
}

/// Runs passes until another would end past `seconds` (at least one).
fn until_deadline(seconds: f64, mut pass: impl FnMut()) {
    let start = Instant::now();
    let mut passes = 0.0;
    loop {
        pass();
        passes += 1.0;
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / passes > seconds {
            break;
        }
    }
}

/// Times [`SETUP_REPS`] set-ups into `times` and returns the last one.
fn set_up(workload: &Workload, seed: u64, times: &mut Vec<f64>) -> (FoldingModel, Vec<Input>) {
    let mut built = None;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let model = FoldingModel::new(PpmConfig::standard());
        let inputs = workload.inputs(seed);
        times.push(t.elapsed().as_secs_f64());
        built = Some((model, inputs));
    }
    built.expect("SETUP_REPS > 0")
}

fn untraced_run(
    bench: &mut Bench,
    seconds: f64,
    seed: u64,
    mut setup_times: Vec<f64>,
) -> Vec<(String, f64, &'static str)> {
    let mut fold_times = Vec::new();
    until_deadline(seconds, || {
        let s = bench.pass().0;
        eprintln!(
            "foldbench: pass {}: {s:.4} s per fold",
            fold_times.len() + 1
        );
        fold_times.push(s);
        set_up(bench.workload, seed, &mut setup_times);
    });
    let acc = bench.accuracy();
    vec![
        ("fold_s".into(), median(&mut fold_times), "s"),
        ("peak_rss_mib".into(), peak_rss_mib(), "MiB"),
        ("setup_s".into(), median(&mut setup_times), "s"),
        ("tm_vs_fp32".into(), acc.tm_vs_fp32, "TM"),
        (
            "pair_rel_rmse_vs_fp32".into(),
            acc.pair_rel_rmse_vs_fp32,
            "ratio",
        ),
    ]
}

fn traced_run(
    bench: &mut Bench,
    seconds: f64,
    config: &PpmConfig,
    host: &Host,
) -> Vec<(String, f64, &'static str)> {
    let trunk = Trunk::new(config);
    let tracer = Tracer::default();
    let mut quant = QuantTotals::default();
    let (mut untraced_s, mut traced_s) = (Vec::new(), Vec::new());
    let mut fold_id = 0;
    let mut par = [0u64; 3];
    let (mut par_busy, mut alloc_events) = (0.0, 0);
    ln_tensor::microkernel::reset_scratch_hwm();
    until_deadline(seconds, || {
        let (s, outs) = bench.pass();
        untraced_s.push(s);
        // Pool counters only count above `ObsLevel::Off`: enable them for
        // the traced folds alone.
        ln_obs::set_level(ln_obs::ObsLevel::Counters);
        let before = ln_par::metrics::snapshot();
        let allocs = ln_tensor::microkernel::alloc_events();
        traced_s.push(bench.traced_pass(&trunk, &tracer, &outs, &mut quant, &mut fold_id));
        alloc_events += ln_tensor::microkernel::alloc_events() - allocs;
        let after = ln_par::metrics::snapshot();
        ln_obs::set_level(ln_obs::ObsLevel::Off);
        par[0] += after.parallel_dispatches - before.parallel_dispatches;
        par[1] += after.serial_fallbacks - before.serial_fallbacks;
        par[2] += after.chunks_executed - before.chunks_executed;
        par_busy += after.busy_seconds - before.busy_seconds;
    });
    let folds = f64::from(fold_id);
    write_trace(bench.workload.name, &tracer);

    let spans = tracer.spans();
    let total = |name: &str| -> f64 {
        spans
            .iter()
            .filter(|s| s.name == name)
            .fold(0.0, |acc, s| acc + s.seconds())
    };
    let fold_total = total(FOLD_SPAN);
    let cost = &CostModel::new(config.clone());
    let lengths: Vec<usize> = bench.inputs.iter().map(|i| i.sequence.len()).collect();
    let passes = folds / lengths.len() as f64;
    let blocks = config.blocks as f64;

    let mut m: Vec<(String, f64, &'static str)> = Vec::new();
    let mut covered = total(EMBED_SPAN) + total(STRUCTURE_SPAN);
    let mut pair_share = 0.0;
    for (name, stages) in UNITS {
        let s = total(name);
        covered += s;
        let share = s / fold_total;
        if is_pair_unit(name) {
            pair_share += share;
        }
        let macs: f64 = lengths
            .iter()
            .flat_map(|&l| stages.iter().map(move |&st| cost.stage_macs(st, l)))
            .sum::<f64>()
            * blocks;
        let bytes: f64 = lengths
            .iter()
            .flat_map(|&l| {
                stages
                    .iter()
                    .map(move |&st| cost.stage_traffic_bytes(st, l))
            })
            .sum::<f64>()
            * blocks;
        m.push((format!("{name}.s"), s / folds, "s"));
        m.push((
            format!("{name}.gflops"),
            2.0 * macs * passes / s / 1e9,
            "GFLOP/s",
        ));
        m.push((format!("{name}.share"), share, "fraction"));
        m.push((
            format!("{name}.bytes_computed"),
            bytes / lengths.len() as f64,
            "B",
        ));
    }
    let hook_s = total(HOOK_SPAN);
    m.extend([
        (
            EMBED_SPAN.to_string() + ".s",
            total(EMBED_SPAN) / folds,
            "s",
        ),
        (
            STRUCTURE_SPAN.to_string() + ".s",
            total(STRUCTURE_SPAN) / folds,
            "s",
        ),
        ("ppm.pair_units.share".into(), pair_share, "fraction"),
        ("quant.hook_s".into(), hook_s / folds, "s"),
        ("quant.share".into(), hook_s / fold_total, "fraction"),
        ("quant.taps".into(), quant.calls as f64 / folds, "count"),
        ("quant.tokens".into(), quant.tokens as f64 / folds, "count"),
        (
            "quant.encoded_over_fp16".into(),
            if quant.fp16_bytes == 0 {
                0.0
            } else {
                quant.encoded_bytes as f64 / quant.fp16_bytes as f64
            },
            "ratio",
        ),
        (
            "par.parallel_dispatches".into(),
            par[0] as f64 / folds,
            "count",
        ),
        (
            "par.serial_fallbacks".into(),
            par[1] as f64 / folds,
            "count",
        ),
        ("par.chunks".into(), par[2] as f64 / folds, "count"),
        ("par.busy_s".into(), par_busy / folds, "s"),
        (
            "par.occupancy".into(),
            par_busy / (host.pool_threads as f64 * fold_total),
            "fraction",
        ),
        (
            "tensor.scratch_hwm_bytes".into(),
            ln_tensor::microkernel::scratch_hwm_bytes() as f64,
            "B",
        ),
        (
            "tensor.alloc_events".into(),
            alloc_events as f64 / folds,
            "count",
        ),
        ("trace.coverage".into(), covered / fold_total, "fraction"),
        (
            "trace_overhead".into(),
            median(&mut traced_s) / median(&mut untraced_s),
            "ratio",
        ),
        ("host.nproc".into(), host.nproc as f64, "count"),
        (
            "host.pool_threads".into(),
            host.pool_threads as f64,
            "count",
        ),
        ("host.l2_kib".into(), host.l2_kib as f64, "KiB"),
        ("host.l3_kib".into(), host.l3_kib as f64, "KiB"),
        ("host.gemm_gflops".into(), host.gemm_gflops, "GFLOP/s"),
        (
            "host.attainable_parallelism".into(),
            host.attainable_parallelism,
            "ratio",
        ),
    ]);
    m
}

/// Writes the traced run's spans next to the benchmark's sources.
fn write_trace(workload: &str, tracer: &Tracer) {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/out");
    let path = format!("{dir}/trace-{workload}.json");
    let written =
        std::fs::create_dir_all(dir).and_then(|()| std::fs::write(&path, tracer.chrome_json()));
    if let Err(e) = written {
        eprintln!("foldbench: cannot write {path}: {e}");
    }
}

/// Peak resident set size of this process (`VmHWM`), MiB.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn arguments_parse_and_reject_typos() {
        let a = args("--workload fold_aaq_cameo --seed 7 --seconds 3 --trace 1").unwrap();
        assert_eq!((a.seed, a.seconds, a.trace), (7, 3.0, true));
        assert!(args("--workload fold_aaq_cameo --seed 7 --seconds 3 --trace 2").is_err());
        assert!(args("--workload nope --seed 7 --seconds 3").is_err());
        assert!(args("--workload fold_aaq_cameo --seed 7 --secs 3").is_err());
    }

    /// Negative control: a non-finite output counts as a failed fold.
    #[test]
    fn non_finite_output_counts_as_failed() {
        let workload = Workload {
            lengths: vec![32],
            ..Workload::parse("fold_fp32_l192").unwrap()
        };
        let inputs = workload.inputs(1);
        let model = FoldingModel::new(PpmConfig::standard());
        let out = model.predict(&inputs[0].sequence, &inputs[0].native);
        let mut bench = Bench {
            workload: &workload,
            model,
            inputs,
            references: vec![None],
            firsts: vec![None],
            tally: Tally::default(),
        };
        let mut bad = out.clone().unwrap();
        bad.pair_rep.as_mut_slice()[0] = f32::INFINITY;
        bench.check(0, "fold", &Ok(bad));
        assert_eq!((bench.tally.attempted, bench.tally.failed), (1, 1));
        assert!(bench.firsts[0].is_none(), "a failed fold sets no digest");
        bench.check(0, "fold", &out);
        assert_eq!((bench.tally.attempted, bench.tally.failed), (2, 1));
        let result = RunResult {
            tally: bench.tally,
            metrics: vec![],
        };
        assert!(result
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
    }
}
