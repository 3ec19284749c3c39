//! Batch normalization over NCHW channels.
//!
//! Running statistics are *state*, not parameters: they ride along in
//! checkpoints (so the corrupter can hit them — they are part of the model
//! file, exactly like in the real frameworks) but the optimizer never
//! touches them.
//!
//! Every per-channel statistic is one f64 chain over that channel's
//! elements in (n, k) order. The reductions advance a group of channels
//! (8, then 4, 2, 1) together, so independent chains overlap instead of
//! waiting on each other's add latency; no chain is reordered, so the bits
//! equal a one-channel-at-a-time loop (DESIGN.md §6).

use super::{Layer, ParamRefMut, StateRefMut};
use sefi_tensor::Tensor;

const EPS: f32 = 1e-5;
const MOMENTUM: f32 = 0.9;

/// Per-channel batch normalization for rank-4 inputs.
///
/// Normalizes in place (the output reuses the input tensor, the input
/// gradient reuses the upstream one) and keeps its backward cache in
/// buffers reused across steps.
pub struct BatchNorm2d {
    name: String,
    gamma: Tensor,
    beta: Tensor,
    dgamma: Tensor,
    dbeta: Tensor,
    running_mean: Tensor,
    running_var: Tensor,
    /// Normalized input of the last training forward.
    xhat: Vec<f32>,
    /// Per-channel `1 / sqrt(var + eps)` of the last training forward.
    inv_std: Vec<f32>,
    /// A training forward filled the cache and no backward consumed it.
    cached: bool,
}

impl BatchNorm2d {
    /// Identity-initialized batch norm over `channels`.
    pub fn new(name: &str, channels: usize) -> Self {
        BatchNorm2d {
            name: name.to_string(),
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            dgamma: Tensor::zeros(&[channels]),
            dbeta: Tensor::zeros(&[channels]),
            running_mean: Tensor::zeros(&[channels]),
            running_var: Tensor::full(&[channels], 1.0),
            xhat: Vec::new(),
            inv_std: Vec::new(),
            cached: false,
        }
    }

    /// Number of channels.
    pub fn channels(&self) -> usize {
        self.gamma.len()
    }
}

/// `(n, c, h·w)` of an NCHW shape.
fn dims(s: &[usize]) -> (usize, usize, usize) {
    assert_eq!(s.len(), 4, "BatchNorm2d expects NCHW");
    (s[0], s[1], s[2] * s[3])
}

/// Per-channel f64 sums over two same-shaped NCHW buffers: for channel
/// `ci`, `sums[ci][r]` is `term(ci, a[i], b[i])[r]` added over the
/// channel's elements `i` in (n, k) order, starting from 0.
fn channel_sums<const R: usize>(
    a: &[f32],
    b: &[f32],
    (n, c, plane): (usize, usize, usize),
    term: impl Fn(usize, f32, f32) -> [f64; R] + Copy,
) -> Vec<[f64; R]> {
    let mut sums = vec![[0.0; R]; c];
    let mut c0 = 0;
    while c - c0 >= 8 {
        group_sums::<8, R>(a, b, (n, c, plane), c0, term, &mut sums);
        c0 += 8;
    }
    if c - c0 >= 4 {
        group_sums::<4, R>(a, b, (n, c, plane), c0, term, &mut sums);
        c0 += 4;
    }
    if c - c0 >= 2 {
        group_sums::<2, R>(a, b, (n, c, plane), c0, term, &mut sums);
        c0 += 2;
    }
    if c - c0 >= 1 {
        group_sums::<1, R>(a, b, (n, c, plane), c0, term, &mut sums);
    }
    sums
}

/// [`channel_sums`] for channels `c0 .. c0 + G`, advanced together: each
/// step adds element `k` of all `G` planes into their own accumulators.
#[inline(always)]
fn group_sums<const G: usize, const R: usize>(
    a: &[f32],
    b: &[f32],
    (n, c, plane): (usize, usize, usize),
    c0: usize,
    term: impl Fn(usize, f32, f32) -> [f64; R],
    sums: &mut [[f64; R]],
) {
    let mut acc = [[0.0f64; R]; G];
    for ni in 0..n {
        let lo = (ni * c + c0) * plane;
        let pa: [&[f32]; G] = std::array::from_fn(|j| &a[lo + j * plane..][..plane]);
        let pb: [&[f32]; G] = std::array::from_fn(|j| &b[lo + j * plane..][..plane]);
        for k in 0..plane {
            for j in 0..G {
                let t = term(c0 + j, pa[j][k], pb[j][k]);
                for r in 0..R {
                    acc[j][r] += t[r];
                }
            }
        }
    }
    sums[c0..c0 + G].copy_from_slice(&acc);
}

impl Layer for BatchNorm2d {
    fn layer_name(&self) -> &str {
        &self.name
    }

    fn forward(&mut self, mut x: Tensor, train: bool) -> Tensor {
        let (n, c, plane) = dims(x.shape());
        assert_eq!(c, self.channels(), "channel mismatch");
        let g = self.gamma.data();
        let b = self.beta.data();

        if !train {
            let (rm, rv) = (self.running_mean.data(), self.running_var.data());
            for (i, chunk) in x.data_mut().chunks_exact_mut(plane).enumerate() {
                let ci = i % c;
                let (mu, is) = (rm[ci], 1.0 / (rv[ci] + EPS).sqrt());
                for v in chunk {
                    *v = g[ci] * ((*v - mu) * is) + b[ci];
                }
            }
            return x;
        }

        let m = (n * plane) as f32;
        let src = x.data();
        let mean: Vec<f32> = channel_sums(src, src, (n, c, plane), |_, v, _| [v as f64])
            .iter()
            .map(|s| (s[0] / m as f64) as f32)
            .collect();
        let var: Vec<f32> = channel_sums(src, src, (n, c, plane), |ci, v, _| {
            let d = v - mean[ci];
            [(d * d) as f64]
        })
        .iter()
        .map(|s| (s[0] / m as f64) as f32)
        .collect();
        // Update running stats.
        for (rm, &mu) in self.running_mean.data_mut().iter_mut().zip(&mean) {
            *rm = MOMENTUM * *rm + (1.0 - MOMENTUM) * mu;
        }
        for (rv, &v) in self.running_var.data_mut().iter_mut().zip(&var) {
            *rv = MOMENTUM * *rv + (1.0 - MOMENTUM) * v;
        }
        self.inv_std.clear();
        self.inv_std.extend(var.iter().map(|&v| 1.0 / (v + EPS).sqrt()));

        self.xhat.resize(x.len(), 0.0);
        let planes = x.data_mut().chunks_exact_mut(plane).zip(self.xhat.chunks_exact_mut(plane));
        for (i, (chunk, xh)) in planes.enumerate() {
            let ci = i % c;
            let (mu, is) = (mean[ci], self.inv_std[ci]);
            for (v, h) in chunk.iter_mut().zip(xh) {
                let nh = (*v - mu) * is;
                *h = nh;
                *v = g[ci] * nh + b[ci];
            }
        }
        self.cached = true;
        x
    }

    fn backward(&mut self, mut dout: Tensor) -> Tensor {
        assert!(std::mem::take(&mut self.cached), "backward before forward(train)");
        let (n, c, plane) = dims(dout.shape());
        assert_eq!(dout.len(), self.xhat.len(), "backward shape differs from forward");
        let m = (n * plane) as f32;

        let sums = channel_sums(dout.data(), &self.xhat, (n, c, plane), |_, d, xh| {
            [d as f64, (d * xh) as f64]
        });
        let (dgamma, dbeta) = (self.dgamma.data_mut(), self.dbeta.data_mut());
        for (ci, s) in sums.iter().enumerate() {
            dbeta[ci] += s[0] as f32;
            dgamma[ci] += s[1] as f32;
        }

        // dx = (gamma * inv_std / m) * (m*dout - sum_d - xhat * sum_d_xhat)
        let g = self.gamma.data();
        let planes = dout.data_mut().chunks_exact_mut(plane).zip(self.xhat.chunks_exact(plane));
        for (i, (chunk, xh)) in planes.enumerate() {
            let ci = i % c;
            let k1 = g[ci] * self.inv_std[ci] / m;
            let (sd, sdx) = (sums[ci][0] as f32, sums[ci][1] as f32);
            for (d, &h) in chunk.iter_mut().zip(xh) {
                *d = k1 * (m * *d - sd - h * sdx);
            }
        }
        dout
    }

    fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
        vec![
            ParamRefMut { name: "gamma".into(), value: &mut self.gamma, grad: &mut self.dgamma },
            ParamRefMut { name: "beta".into(), value: &mut self.beta, grad: &mut self.dbeta },
        ]
    }

    fn state_mut(&mut self) -> Vec<StateRefMut<'_>> {
        vec![
            StateRefMut { name: "running_mean".into(), value: &mut self.running_mean },
            StateRefMut { name: "running_var".into(), value: &mut self.running_var },
        ]
    }

    fn workspace_bytes(&self) -> usize {
        (self.xhat.capacity() + self.inv_std.capacity()) * std::mem::size_of::<f32>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn input() -> Tensor {
        Tensor::from_vec(
            (0..2 * 3 * 2 * 2).map(|i| ((i * 13) % 7) as f32 - 3.0).collect(),
            &[2, 3, 2, 2],
        )
    }

    #[test]
    fn train_output_is_normalized() {
        let mut bn = BatchNorm2d::new("bn", 3);
        let y = bn.forward(input(), true);
        // Per-channel mean ≈ 0, var ≈ 1.
        for ci in 0..3 {
            let mut vals = Vec::new();
            for ni in 0..2 {
                for k in 0..4 {
                    vals.push(y.data()[(ni * 3 + ci) * 4 + k] as f64);
                }
            }
            let mean: f64 = vals.iter().sum::<f64>() / vals.len() as f64;
            let var: f64 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / vals.len() as f64;
            assert!(mean.abs() < 1e-5, "ch {ci} mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "ch {ci} var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new("bn", 3);
        // Run a few training passes to move the running stats.
        for _ in 0..5 {
            let _ = bn.forward(input(), true);
        }
        let y_eval = bn.forward(input(), false);
        let y_train = bn.forward(input(), true);
        assert_ne!(y_eval.data(), y_train.data());
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new("bn", 2);
        let x = Tensor::from_vec((0..16).map(|i| (i as f32 * 0.37).sin()).collect(), &[2, 2, 2, 2]);
        let y = bn.forward(x.clone(), true);
        // Weighted-sum loss so the gradient is not trivially zero
        // (a plain sum-loss has zero input-gradient through normalization).
        let wts: Vec<f32> = (0..16).map(|i| ((i * 7 % 5) as f32) - 2.0).collect();
        let loss =
            |t: &Tensor| -> f64 { t.data().iter().zip(&wts).map(|(&v, &w)| (v * w) as f64).sum() };
        let _ = loss(&y);
        let dout = Tensor::from_vec(wts.clone(), &[2, 2, 2, 2]);
        let dx = bn.backward(dout);

        let eps = 1e-2f32;
        for &flat in &[0usize, 5, 9, 15] {
            let num = {
                let mut bnp = BatchNorm2d::new("bn", 2);
                let mut xp = x.clone();
                xp.data_mut()[flat] += eps;
                let lp = loss(&bnp.forward(xp, true));
                let mut bnm = BatchNorm2d::new("bn", 2);
                let mut xm = x.clone();
                xm.data_mut()[flat] -= eps;
                let lm = loss(&bnm.forward(xm, true));
                (lp - lm) / (2.0 * eps as f64)
            };
            let ana = dx.data()[flat] as f64;
            assert!((num - ana).abs() < 5e-2 * (1.0 + ana.abs()), "dx[{flat}] {num} vs {ana}");
        }
    }

    #[test]
    fn cache_buffers_are_reported_and_reused() {
        let mut bn = BatchNorm2d::new("bn", 3);
        assert_eq!(bn.workspace_bytes(), 0);
        let y = bn.forward(input(), true);
        let _ = bn.backward(y);
        let retained = bn.workspace_bytes();
        // xhat for 2·3·2·2 elements plus one inv_std per channel.
        assert!(retained >= (24 + 3) * 4, "{retained}");
        for _ in 0..3 {
            let y = bn.forward(input(), true);
            let _ = bn.backward(y);
            let _ = bn.forward(input(), false);
        }
        assert_eq!(bn.workspace_bytes(), retained);
    }

    #[test]
    #[should_panic(expected = "backward before forward(train)")]
    fn backward_consumes_the_cache() {
        let mut bn = BatchNorm2d::new("bn", 3);
        let y = bn.forward(input(), true);
        let dx = bn.backward(y);
        let _ = bn.backward(dx);
    }

    #[test]
    fn state_and_params_are_separate() {
        let mut bn = BatchNorm2d::new("bn", 4);
        let pnames: Vec<String> = bn.params_mut().into_iter().map(|p| p.name).collect();
        assert_eq!(pnames, vec!["gamma", "beta"]);
        let snames: Vec<String> = bn.state_mut().into_iter().map(|s| s.name).collect();
        assert_eq!(snames, vec!["running_mean", "running_var"]);
    }
}
