//! A plain f64 forward/backward of the benchmark's MLP, written apart from
//! the program, to check the trainer's step-0 loss and its first update.
//!
//! The model is `x·W1+b1 → relu → ·W2+b2 → relu → ·W3+b3 → softmax
//! cross-entropy`, mean over the batch. The trainer splits the batch into
//! equal virtual-node shards and averages their mean gradients, which is
//! the same mean over the whole batch; only rounding differs.

use vf_tensor::Tensor;

/// `a (m×k) · b (k×n)`.
fn matmul(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        let c_row = &mut c[i * n..(i + 1) * n];
        for p in 0..k {
            let a_ip = a[i * k + p];
            for (c_ij, b_pj) in c_row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                *c_ij += a_ip * b_pj;
            }
        }
    }
    c
}

/// `aᵀ · b` for `a (k×m)`, `b (k×n)`.
fn matmul_tn(a: &[f64], b: &[f64], k: usize, m: usize, n: usize) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for p in 0..k {
        let b_row = &b[p * n..(p + 1) * n];
        for i in 0..m {
            let a_pi = a[p * m + i];
            for (c_ij, b_pj) in c[i * n..(i + 1) * n].iter_mut().zip(b_row) {
                *c_ij += a_pi * b_pj;
            }
        }
    }
    c
}

/// `a · bᵀ` for `a (m×k)`, `b (n×k)`.
fn matmul_nt(a: &[f64], b: &[f64], m: usize, k: usize, n: usize) -> Vec<f64> {
    let mut c = vec![0.0; m * n];
    for i in 0..m {
        let a_row = &a[i * k..(i + 1) * k];
        for j in 0..n {
            c[i * n + j] = a_row
                .iter()
                .zip(&b[j * k..(j + 1) * k])
                .map(|(x, y)| x * y)
                .sum();
        }
    }
    c
}

fn add_bias(z: &mut [f64], b: &[f64]) {
    for row in z.chunks_mut(b.len()) {
        for (v, bi) in row.iter_mut().zip(b) {
            *v += bi;
        }
    }
}

fn col_sums(g: &[f64], n: usize) -> Vec<f64> {
    let mut s = vec![0.0; n];
    for row in g.chunks(n) {
        for (acc, v) in s.iter_mut().zip(row) {
            *acc += v;
        }
    }
    s
}

fn to_f64(t: &Tensor) -> Vec<f64> {
    t.data().iter().map(|&v| f64::from(v)).collect()
}

/// Mean loss and mean gradients (in parameter order) of the MLP with
/// parameters `[W1, b1, W2, b2, W3, b3]` on `features`/`labels`.
pub fn loss_and_grads(
    params: &[Tensor],
    features: &Tensor,
    labels: &[usize],
) -> (f64, Vec<Vec<f64>>) {
    assert_eq!(params.len(), 6, "reference MLP has two hidden layers");
    let (b, d0) = features.shape().as_rows_cols();
    let d1 = params[1].len();
    let d2 = params[3].len();
    let c = params[5].len();
    let x = to_f64(features);
    let p: Vec<Vec<f64>> = params.iter().map(to_f64).collect();

    let mut z1 = matmul(&x, &p[0], b, d0, d1);
    add_bias(&mut z1, &p[1]);
    let h1: Vec<f64> = z1.iter().map(|&v| v.max(0.0)).collect();
    let mut z2 = matmul(&h1, &p[2], b, d1, d2);
    add_bias(&mut z2, &p[3]);
    let h2: Vec<f64> = z2.iter().map(|&v| v.max(0.0)).collect();
    let mut logits = matmul(&h2, &p[4], b, d2, c);
    add_bias(&mut logits, &p[5]);

    // Softmax cross-entropy, mean over the batch.
    let mut loss = 0.0;
    let mut dlogits = vec![0.0; b * c];
    for i in 0..b {
        let row = &logits[i * c..(i + 1) * c];
        let max = row.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = row.iter().map(|&v| (v - max).exp()).sum();
        loss += max + sum.ln() - row[labels[i]];
        for j in 0..c {
            let softmax = (row[j] - max).exp() / sum;
            let target = if j == labels[i] { 1.0 } else { 0.0 };
            dlogits[i * c + j] = (softmax - target) / b as f64;
        }
    }
    loss /= b as f64;

    let dw3 = matmul_tn(&h2, &dlogits, b, d2, c);
    let db3 = col_sums(&dlogits, c);
    let mut dz2 = matmul_nt(&dlogits, &p[4], b, c, d2);
    for (g, z) in dz2.iter_mut().zip(&z2) {
        if *z <= 0.0 {
            *g = 0.0;
        }
    }
    let dw2 = matmul_tn(&h1, &dz2, b, d1, d2);
    let db2 = col_sums(&dz2, d2);
    let mut dz1 = matmul_nt(&dz2, &p[2], b, d2, d1);
    for (g, z) in dz1.iter_mut().zip(&z1) {
        if *z <= 0.0 {
            *g = 0.0;
        }
    }
    let dw1 = matmul_tn(&x, &dz1, b, d0, d1);
    let db1 = col_sums(&dz1, d1);
    (loss, vec![dw1, db1, dw2, db2, dw3, db3])
}

/// Relative tolerance of the loss check: f32 accumulation over a batch of a
/// few hundred rows stays far inside it.
pub const LOSS_RTOL: f64 = 1e-5;

/// Tolerance of the update check, as a share of the largest reference
/// update of the same tensor, plus two f32 ulps of the parameter itself.
pub const UPDATE_RTOL: f64 = 1e-3;

/// Compares the trainer's parameters after one plain-SGD step with the f64
/// reference `p0 - lr·g`, element by element. Returns the worst error as a
/// share of the tolerance (≤ 1 passes) and a description of it.
pub fn check_update(p0: &[Tensor], p1: &[Tensor], grads: &[Vec<f64>], lr: f64) -> (f64, String) {
    let mut worst = (0.0f64, String::new());
    for (t, ((a, b), g)) in p0.iter().zip(p1).zip(grads).enumerate() {
        let max_update = g.iter().fold(0.0f64, |m, v| m.max((lr * v).abs()));
        for (i, ((&x0, &x1), &gi)) in a.data().iter().zip(b.data()).zip(g).enumerate() {
            let want = f64::from(x0) - lr * gi;
            let tol = UPDATE_RTOL * max_update + 2.0 * f64::from(f32::EPSILON) * want.abs();
            let ratio = (f64::from(x1) - want).abs() / tol.max(f64::MIN_POSITIVE);
            if ratio > worst.0 {
                worst = (
                    ratio,
                    format!("param {t}[{i}]: trainer {x1} vs f64 {want} (tolerance {tol:e})"),
                );
            }
        }
    }
    worst
}
