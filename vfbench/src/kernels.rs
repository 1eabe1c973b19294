//! Kernel-level instruments: the machine's FMA peak and streaming
//! bandwidth (the roofline `tensor.gemm_peak_pct` is a share of), and a
//! replay of one training step's GEMM shapes through `vf_tensor::ops`.

use crate::spans::Tracer;
use std::hint::black_box;
use std::sync::Mutex;
use std::time::Instant;
use vf_tensor::{init, ops, pool, Tensor};

/// Independent FMA chains per thread: enough to cover the FMA latency.
const CHAINS: usize = 12;

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn fma_avx512(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let a = _mm512_set1_ps(0.999_999);
    let b = _mm512_set1_ps(1e-7);
    let mut acc = [_mm512_set1_ps(1.0); CHAINS];
    for _ in 0..iters {
        for v in &mut acc {
            *v = _mm512_fmadd_ps(*v, a, b);
        }
    }
    let mut sum = _mm512_setzero_ps();
    for v in acc {
        sum = _mm512_add_ps(sum, v);
    }
    _mm512_reduce_add_ps(sum)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2", enable = "fma")]
unsafe fn fma_avx2(iters: u64) -> f32 {
    use std::arch::x86_64::*;
    let a = _mm256_set1_ps(0.999_999);
    let b = _mm256_set1_ps(1e-7);
    let mut acc = [_mm256_set1_ps(1.0); CHAINS];
    for _ in 0..iters {
        for v in &mut acc {
            *v = _mm256_fmadd_ps(*v, a, b);
        }
    }
    let mut lanes = [0.0f32; 8];
    let mut sum = _mm256_setzero_ps();
    for v in acc {
        sum = _mm256_add_ps(sum, v);
    }
    _mm256_storeu_ps(lanes.as_mut_ptr(), sum);
    lanes.iter().sum()
}

fn fma_scalar(iters: u64) -> f32 {
    let mut acc = [1.0f32; CHAINS];
    for _ in 0..iters {
        for v in &mut acc {
            *v = *v * 0.999_999 + 1e-7;
        }
    }
    acc.iter().sum()
}

/// Runs `iters` iterations of the widest FMA loop this CPU has; returns
/// the FLOPs done and a value that keeps the loop alive.
fn fma_loop(iters: u64) -> (f64, f32) {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            // SAFETY: the CPU supports AVX-512F, checked just above.
            let r = unsafe { fma_avx512(iters) };
            return ((iters as usize * CHAINS * 16 * 2) as f64, r);
        }
        if std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
        {
            // SAFETY: the CPU supports AVX2 and FMA, checked just above.
            let r = unsafe { fma_avx2(iters) };
            return ((iters as usize * CHAINS * 8 * 2) as f64, r);
        }
    }
    ((iters as usize * CHAINS * 2) as f64, fma_scalar(iters))
}

/// Peak FMA GFLOP/s over the tensor pool's threads: the best of `reps`
/// runs of one FMA loop per thread, all running at once.
pub fn fma_gflops(reps: usize) -> f64 {
    let threads = pool::num_threads();
    let mut best = 0.0f64;
    for _ in 0..reps {
        let t = Instant::now();
        let results = pool::parallel_tasks(threads, |_| fma_loop(black_box(4_000_000)));
        let secs = t.elapsed().as_secs_f64();
        let flops: f64 = results.iter().map(|r| r.0).sum();
        black_box(results.iter().map(|r| r.1).sum::<f32>());
        best = best.max(flops / secs / 1e9);
    }
    best
}

/// Streaming bandwidth in GB/s: the best of `reps` triads `a = b + s·c`
/// over arrays far larger than the caches, split across the pool's
/// threads. Counts 12 bytes moved per element (two reads, one write).
pub fn stream_gbps(reps: usize) -> f64 {
    const N: usize = 1 << 23;
    let threads = pool::num_threads();
    let b = vec![1.0f32; N];
    let c = vec![2.0f32; N];
    let mut a = vec![0.0f32; N];
    let chunk = N.div_ceil(threads);
    let mut best = 0.0f64;
    for _ in 0..reps {
        let parts: Vec<Mutex<&mut [f32]>> = a.chunks_mut(chunk).map(Mutex::new).collect();
        let t = Instant::now();
        pool::parallel_tasks(parts.len(), |i| {
            let mut out = parts[i].lock().expect("each chunk is locked by one task");
            let lo = i * chunk;
            for (j, o) in out.iter_mut().enumerate() {
                *o = b[lo + j] + 0.5 * c[lo + j];
            }
        });
        let secs = t.elapsed().as_secs_f64();
        best = best.max((12 * N) as f64 / secs / 1e9);
    }
    black_box(&a);
    best
}

/// Which GEMM variant of `vf_tensor::ops` a shape runs through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `matmul`: a (m×k) · b (k×n) — forward.
    Nn,
    /// `matmul_nt`: a (m×k) · bᵀ, b (n×k) — input gradients.
    Nt,
    /// `matmul_tn`: aᵀ, a (k×m) · b (k×n) — weight gradients.
    Tn,
}

/// The GEMMs one `Mlp::grad` call runs on a micro-batch of `mb` rows, as
/// `(kind, m, k, n)`, for layer widths `dims` (input first).
pub fn mlp_gemm_shapes(dims: &[usize], mb: usize) -> Vec<(Kind, usize, usize, usize)> {
    let mut shapes = Vec::new();
    for w in dims.windows(2) {
        shapes.push((Kind::Nn, mb, w[0], w[1]));
    }
    for (layer, w) in dims.windows(2).enumerate() {
        shapes.push((Kind::Tn, w[0], mb, w[1]));
        // The input features are constants, so the first layer has no dX.
        if layer > 0 {
            shapes.push((Kind::Nt, mb, w[1], w[0]));
        }
    }
    shapes
}

/// Milliseconds and FLOPs per GEMM kind from one replay.
#[derive(Debug, Default, Clone, Copy)]
pub struct GemmReplay {
    pub ms: [f64; 3],
    pub flops: [f64; 3],
}

impl GemmReplay {
    pub fn total_ms(&self) -> f64 {
        self.ms.iter().sum()
    }

    pub fn total_flops(&self) -> f64 {
        self.flops.iter().sum()
    }

    /// GFLOP/s of one kind.
    pub fn gflops(&self, kind: Kind) -> f64 {
        let i = kind as usize;
        self.flops[i] / (self.ms[i] * 1e6)
    }
}

/// Replays a step's GEMMs: every shape of `shapes`, `calls` times each (one
/// per virtual node), through the public `vf_tensor::ops` entry points, on
/// seeded operands. Each call is a span named after its kind.
pub fn replay_gemms(
    shapes: &[(Kind, usize, usize, usize)],
    calls: usize,
    seed: u64,
    tr: &mut Tracer,
) -> GemmReplay {
    let mut rng = init::rng(seed);
    let operands: Vec<(Kind, Tensor, Tensor, f64)> = shapes
        .iter()
        .map(|&(kind, m, k, n)| {
            let (a, b) = match kind {
                Kind::Nn => ([m, k], [k, n]),
                Kind::Nt => ([m, k], [n, k]),
                Kind::Tn => ([k, m], [k, n]),
            };
            let a = init::normal(&mut rng, a, 0.0, 1.0);
            let b = init::normal(&mut rng, b, 0.0, 1.0);
            (kind, a, b, 2.0 * (m * k * n) as f64)
        })
        .collect();
    let mut out = GemmReplay::default();
    for _ in 0..calls {
        for (kind, a, b, flops) in &operands {
            let name = match kind {
                Kind::Nn => "tensor.gemm_nn",
                Kind::Nt => "tensor.gemm_nt",
                Kind::Tn => "tensor.gemm_tn",
            };
            let open = tr.begin(name);
            let t = Instant::now();
            let c = match kind {
                Kind::Nn => ops::matmul(a, b),
                Kind::Nt => ops::matmul_nt(a, b),
                Kind::Tn => ops::matmul_tn(a, b),
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            tr.end(open);
            black_box(c.expect("replayed GEMM shapes are consistent"));
            out.ms[*kind as usize] += ms;
            out.flops[*kind as usize] += flops;
        }
    }
    out
}
