//! Host descriptor: cores, pool size, SIMD features, cache sizes, and two
//! measured ceilings (GEMM throughput and attainable parallelism).

use ln_par::Pool;
use ln_tensor::Tensor2;
use std::fmt::Write as _;
use std::sync::{Arc, Barrier};
use std::time::Instant;

/// GEMM shape of the ceiling measurement: `(M, K) × (K, N)`, the shape of a
/// pair-token projection at L=64, Hz=128 with a 4× expansion.
pub const CEILING_SHAPE: (usize, usize, usize) = (4096, 128, 512);
const CEILING_REPS: usize = 12;

/// The host a result was measured on.
#[derive(Debug, Clone, PartialEq)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub nproc: usize,
    /// Threads in the ln-par pool the folds ran on.
    pub pool_threads: usize,
    /// SIMD features detected at run time.
    pub simd: Vec<&'static str>,
    /// Per-core L2 size, KiB (0 when unknown).
    pub l2_kib: u64,
    /// Shared L3 size, KiB (0 when unknown).
    pub l3_kib: u64,
    /// Best `Tensor2::matmul` throughput on the fold pool at
    /// [`CEILING_SHAPE`], GFLOP/s.
    pub gemm_gflops: f64,
    /// Summed best throughput of `nproc` concurrent single-thread matmul
    /// copies over the best of one copy alone.
    pub attainable_parallelism: f64,
}

impl Host {
    /// Describes this host, measuring the ceilings on `pool`.
    pub fn measure(pool: &Arc<Pool>) -> Self {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let (a, b) = operands();
        let gemm_s = ln_par::with_pool(pool, || best_matmul_seconds(&a, &b));
        let solo = ln_par::with_pool(&Pool::new_exact(1), || best_matmul_seconds(&a, &b));
        let barrier = Barrier::new(nproc);
        let concurrent: Vec<f64> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..nproc)
                .map(|_| {
                    let (a, b, barrier) = (&a, &b, &barrier);
                    s.spawn(move || {
                        ln_par::with_pool(&Pool::new_exact(1), || {
                            barrier.wait();
                            best_matmul_seconds(a, b)
                        })
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("matmul copy panicked"))
                .collect()
        });
        Host {
            nproc,
            pool_threads: pool.threads(),
            simd: simd_features(),
            l2_kib: cache_kib(2),
            l3_kib: cache_kib(3),
            gemm_gflops: gemm_flops() / gemm_s / 1e9,
            attainable_parallelism: concurrent.iter().map(|t| solo / t).sum(),
        }
    }

    /// The descriptor as one JSON object.
    pub fn json(&self) -> String {
        let simd: Vec<String> = self.simd.iter().map(|f| format!("\"{f}\"")).collect();
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\"nproc\":{},\"pool_threads\":{},\"simd\":[{}],\"l2_kib\":{},\"l3_kib\":{},\
             \"gemm_shape\":[{},{},{}],\"gemm_gflops\":{},\"attainable_parallelism\":{}}}",
            self.nproc,
            self.pool_threads,
            simd.join(","),
            self.l2_kib,
            self.l3_kib,
            CEILING_SHAPE.0,
            CEILING_SHAPE.1,
            CEILING_SHAPE.2,
            self.gemm_gflops,
            self.attainable_parallelism,
        );
        out
    }
}

fn operands() -> (Tensor2, Tensor2) {
    let (m, k, n) = CEILING_SHAPE;
    let fill = |rows: usize, cols: usize, salt: usize| {
        let data = (0..rows * cols)
            .map(|i| ((i * 31 + salt) % 97) as f32 / 97.0 - 0.5)
            .collect();
        Tensor2::from_vec(rows, cols, data).expect("shape matches data")
    };
    (fill(m, k, 1), fill(k, n, 2))
}

fn gemm_flops() -> f64 {
    let (m, k, n) = CEILING_SHAPE;
    2.0 * (m * k * n) as f64
}

/// Fastest of [`CEILING_REPS`] timed matmuls, after one warm-up: a ceiling
/// is the best the kernel reaches, not its typical time.
fn best_matmul_seconds(a: &Tensor2, b: &Tensor2) -> f64 {
    std::hint::black_box(a.matmul(b).expect("shapes agree"));
    (0..CEILING_REPS)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(a.matmul(std::hint::black_box(b)).expect("shapes agree"));
            t.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min)
}

fn simd_features() -> Vec<&'static str> {
    #[cfg(target_arch = "x86_64")]
    {
        [
            ("sse4.2", is_x86_feature_detected!("sse4.2")),
            ("avx", is_x86_feature_detected!("avx")),
            ("avx2", is_x86_feature_detected!("avx2")),
            ("fma", is_x86_feature_detected!("fma")),
            ("avx512f", is_x86_feature_detected!("avx512f")),
        ]
        .into_iter()
        .filter_map(|(name, on)| on.then_some(name))
        .collect()
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        Vec::new()
    }
}

/// Size of the first cache of `level` that CPU 0 reports, KiB.
fn cache_kib(level: u32) -> u64 {
    let base = "/sys/devices/system/cpu/cpu0/cache";
    (0..8)
        .find_map(|i| {
            let read = |f: &str| std::fs::read_to_string(format!("{base}/index{i}/{f}")).ok();
            let lvl: u32 = read("level")?.trim().parse().ok()?;
            let kind = read("type")?;
            (lvl == level && kind.trim() != "Instruction").then(|| read("size"))?
        })
        .and_then(|s| {
            let s = s.trim();
            match s.strip_suffix('M') {
                Some(mib) => mib.parse::<u64>().ok().map(|m| m * 1024),
                None => s.trim_end_matches('K').parse().ok(),
            }
        })
        .unwrap_or(0)
}
