//! The in-place, channel-grouped `BatchNorm2d` against the scalar layer
//! it replaced, bit for bit.
//!
//! `reference` is the previous implementation verbatim: one channel at a
//! time, every per-channel f64 chain in (n, k) order, three freshly
//! allocated output tensors per forward. The current layer keeps those
//! chains and only interleaves independent ones, so every output,
//! gradient and running statistic must carry the same bits. A NaN
//! compares equal to a NaN at the same position: the sign and payload of
//! a NaN produced by an invalid operation (`inf - inf`, `0 * inf`) depend
//! on operand order the compiler may commute, and are outside the
//! contract.

use sefi_data::{DataConfig, SyntheticCifar10};
use sefi_models::{resnet50, ModelConfig};
use sefi_nn::{BatchNorm2d, Layer, TrainConfig, Trainer};
use sefi_rng::DetRng;
use sefi_tensor::Tensor;

mod reference {
    use sefi_nn::{Layer, ParamRefMut, StateRefMut};
    use sefi_tensor::Tensor;

    const EPS: f32 = 1e-5;
    const MOMENTUM: f32 = 0.9;

    /// Per-channel batch normalization for rank-4 inputs.
    pub struct BatchNorm2d {
        name: String,
        gamma: Tensor,
        beta: Tensor,
        dgamma: Tensor,
        dbeta: Tensor,
        running_mean: Tensor,
        running_var: Tensor,
        // Backward cache.
        cache: Option<BnCache>,
    }

    struct BnCache {
        xhat: Tensor,
        inv_std: Vec<f32>,
        centered: Tensor,
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
                cache: None,
            }
        }

        /// Number of channels.
        pub fn channels(&self) -> usize {
            self.gamma.len()
        }
    }

    impl Layer for BatchNorm2d {
        fn layer_name(&self) -> &str {
            &self.name
        }

        fn forward(&mut self, x: Tensor, train: bool) -> Tensor {
            let s = x.shape().to_vec();
            assert_eq!(s.len(), 4, "BatchNorm2d expects NCHW");
            let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
            assert_eq!(c, self.channels(), "channel mismatch");
            let m = (n * h * w) as f32;
            let plane = h * w;
            let src = x.data();

            let (mean, var): (Vec<f32>, Vec<f32>) = if train {
                let mut mean = vec![0.0f32; c];
                let mut var = vec![0.0f32; c];
                for ci in 0..c {
                    let mut acc = 0.0f64;
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        for &v in &src[base..base + plane] {
                            acc += v as f64;
                        }
                    }
                    mean[ci] = (acc / m as f64) as f32;
                    let mut vacc = 0.0f64;
                    for ni in 0..n {
                        let base = (ni * c + ci) * plane;
                        for &v in &src[base..base + plane] {
                            let d = v - mean[ci];
                            vacc += (d * d) as f64;
                        }
                    }
                    var[ci] = (vacc / m as f64) as f32;
                }
                // Update running stats.
                for (rm, &m) in self.running_mean.data_mut().iter_mut().zip(&mean) {
                    *rm = MOMENTUM * *rm + (1.0 - MOMENTUM) * m;
                }
                for (rv, &v) in self.running_var.data_mut().iter_mut().zip(&var) {
                    *rv = MOMENTUM * *rv + (1.0 - MOMENTUM) * v;
                }
                (mean, var)
            } else {
                (self.running_mean.data().to_vec(), self.running_var.data().to_vec())
            };

            let inv_std: Vec<f32> = var.iter().map(|&v| 1.0 / (v + EPS).sqrt()).collect();
            let mut xhat = Tensor::zeros(&s);
            let mut centered = Tensor::zeros(&s);
            let mut out = Tensor::zeros(&s);
            {
                let xh = xhat.data_mut();
                let ce = centered.data_mut();
                let o = out.data_mut();
                let g = self.gamma.data();
                let b = self.beta.data();
                for ni in 0..n {
                    for ci in 0..c {
                        let base = (ni * c + ci) * plane;
                        for k in 0..plane {
                            let idx = base + k;
                            let cent = src[idx] - mean[ci];
                            let nh = cent * inv_std[ci];
                            ce[idx] = cent;
                            xh[idx] = nh;
                            o[idx] = g[ci] * nh + b[ci];
                        }
                    }
                }
            }
            if train {
                self.cache = Some(BnCache { xhat, inv_std, centered });
            }
            out
        }

        fn backward(&mut self, dout: Tensor) -> Tensor {
            let cache = self.cache.take().expect("backward before forward(train)");
            let s = dout.shape().to_vec();
            let (n, c, h, w) = (s[0], s[1], s[2], s[3]);
            let plane = h * w;
            let m = (n * plane) as f32;
            let d = dout.data();
            let xh = cache.xhat.data();
            let cent = cache.centered.data();
            let g = self.gamma.data().to_vec();

            // Per-channel reductions (f64 accumulators).
            let mut sum_d = vec![0.0f64; c];
            let mut sum_d_xhat = vec![0.0f64; c];
            for ni in 0..n {
                for ci in 0..c {
                    let base = (ni * c + ci) * plane;
                    for k in 0..plane {
                        let idx = base + k;
                        sum_d[ci] += d[idx] as f64;
                        sum_d_xhat[ci] += (d[idx] * xh[idx]) as f64;
                    }
                }
            }
            for ci in 0..c {
                self.dbeta.data_mut()[ci] += sum_d[ci] as f32;
                self.dgamma.data_mut()[ci] += sum_d_xhat[ci] as f32;
            }

            // dx = (gamma * inv_std / m) * (m*dout - sum_d - xhat * sum_d_xhat)
            let mut dx = Tensor::zeros(&s);
            {
                let o = dx.data_mut();
                for ni in 0..n {
                    for ci in 0..c {
                        let base = (ni * c + ci) * plane;
                        let k1 = g[ci] * cache.inv_std[ci] / m;
                        for k in 0..plane {
                            let idx = base + k;
                            o[idx] = k1
                                * (m * d[idx] - sum_d[ci] as f32 - xh[idx] * sum_d_xhat[ci] as f32);
                        }
                    }
                }
            }
            let _ = cent;
            dx
        }

        fn params_mut(&mut self) -> Vec<ParamRefMut<'_>> {
            vec![
                ParamRefMut {
                    name: "gamma".into(),
                    value: &mut self.gamma,
                    grad: &mut self.dgamma,
                },
                ParamRefMut { name: "beta".into(), value: &mut self.beta, grad: &mut self.dbeta },
            ]
        }

        fn state_mut(&mut self) -> Vec<StateRefMut<'_>> {
            vec![
                StateRefMut { name: "running_mean".into(), value: &mut self.running_mean },
                StateRefMut { name: "running_var".into(), value: &mut self.running_var },
            ]
        }
    }
}

/// Bitwise equality, except that any NaN matches any NaN.
fn assert_same_bits(what: &str, got: &[f32], want: &[f32]) {
    assert_eq!(got.len(), want.len(), "{what}: length");
    for (i, (&g, &w)) in got.iter().zip(want).enumerate() {
        assert!(
            g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
            "{what}[{i}]: {g:e} ({:#010x}) vs reference {w:e} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
}

/// Kinds of test input.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Values {
    /// Uniform in [-3, 3]. Short chains of such f32 values sum exactly in
    /// f64, so on their own they cannot tell one summation order from
    /// another.
    Typical,
    /// `Typical`, but each channel's chain opens with +2^60 then -2^60.
    /// Added first, the pair cancels exactly and the rest of the chain
    /// survives; added anywhere later, it absorbs everything before it.
    /// Any reordering of a chain therefore changes its sum's bits.
    Cancelling,
    /// `Cancelling` plus what corrupted checkpoints produce: ±Inf, NaN
    /// and ±1e30 in a few channels, and a channel whose squares overflow
    /// f32.
    Corrupted,
}

/// Deterministic NCHW input of the given kind.
fn input(shape: &[usize], seed: u64, kind: Values) -> Tensor {
    let mut rng = DetRng::new(seed);
    let (n, c, plane) = (shape[0], shape[1], shape[2] * shape[3]);
    let mut data: Vec<f32> =
        (0..n * c * plane).map(|_| rng.uniform_range(-3.0, 3.0) as f32).collect();
    if kind != Values::Typical && n * plane >= 2 {
        // Element t of channel ci's (n, k)-ordered chain.
        let at = |ci: usize, t: usize| ((t / plane) * c + ci) * plane + t % plane;
        let big = 2f32.powi(60);
        for ci in 0..c {
            data[at(ci, 0)] = big;
            data[at(ci, 1)] = -big;
        }
    }
    if kind == Values::Corrupted {
        let specials = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN, 1e30, -1e30];
        for (i, &v) in specials.iter().enumerate() {
            // Spread over channels (i·5) and positions; channels past the
            // end wrap, so small channel counts get several specials.
            let idx = ((i * 5) % c) * plane + (i * 3) % plane;
            data[idx] = v;
        }
        // One channel that overflows f32 when squared but stays finite.
        let ci = c / 2;
        for v in &mut data[ci * plane..(ci + 1) * plane] {
            *v *= 1e25;
        }
    }
    Tensor::from_vec(data, shape)
}

/// Non-trivial affine parameters, identical in both layers.
fn set_affine(layer: &mut dyn Layer, channels: usize) {
    for p in layer.params_mut() {
        let base = if p.name == "gamma" { 0.5 } else { -0.25 };
        for (ci, v) in p.value.data_mut().iter_mut().enumerate() {
            *v = base + 0.125 * (ci % 7) as f32 + 1.0 / (channels + ci) as f32;
        }
    }
}

fn grads(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    layer.params_mut().into_iter().map(|p| p.grad.data().to_vec()).collect()
}

fn state(layer: &mut dyn Layer) -> Vec<Vec<f32>> {
    layer.state_mut().into_iter().map(|s| s.value.data().to_vec()).collect()
}

fn check(channels: usize, (n, h, w): (usize, usize, usize), kind: Values) {
    let ctx = format!("c={channels} n={n} {h}x{w} {kind:?}");
    let shape = [n, channels, h, w];
    let mut new = BatchNorm2d::new("bn", channels);
    let mut old = reference::BatchNorm2d::new("bn", channels);
    set_affine(&mut new, channels);
    set_affine(&mut old, channels);
    for step in 0..3u64 {
        let x = input(&shape, 100 + step, kind);
        let y_new = new.forward(x.clone(), true);
        let y_old = old.forward(x, true);
        assert_same_bits(&format!("{ctx} step {step} y"), y_new.data(), y_old.data());
        let dout = input(&shape, 200 + step, Values::Cancelling);
        let dx_new = new.backward(dout.clone());
        let dx_old = old.backward(dout);
        assert_same_bits(&format!("{ctx} step {step} dx"), dx_new.data(), dx_old.data());
        // Gradients accumulate across steps (no zero_grad), as between
        // two optimizer steps of a real run.
        for (i, (g_new, g_old)) in grads(&mut new).iter().zip(&grads(&mut old)).enumerate() {
            assert_same_bits(&format!("{ctx} step {step} grad {i}"), g_new, g_old);
        }
        for (i, (s_new, s_old)) in state(&mut new).iter().zip(&state(&mut old)).enumerate() {
            assert_same_bits(&format!("{ctx} step {step} state {i}"), s_new, s_old);
        }
    }
    let x = input(&shape, 300, kind);
    let y_new = new.forward(x.clone(), false);
    let y_old = old.forward(x, false);
    assert_same_bits(&format!("{ctx} eval y"), y_new.data(), y_old.data());
}

/// Every group width (8, 4, 2, 1) and every remainder after the 8-wide
/// groups, including ResNet50's default-budget widths.
const CHANNELS: [usize; 12] = [1, 3, 4, 7, 8, 9, 15, 16, 17, 31, 60, 124];

/// Shapes (n, h, w): multi-sample planes, 1x1 planes, and one sample.
const GEOMETRIES: [(usize, usize, usize); 4] = [(3, 4, 4), (2, 1, 1), (1, 3, 5), (4, 8, 8)];

#[test]
fn matches_scalar_reference_bit_for_bit() {
    for kind in [Values::Typical, Values::Cancelling] {
        for &c in &CHANNELS {
            for geom in GEOMETRIES {
                check(c, geom, kind);
            }
        }
    }
}

#[test]
fn matches_scalar_reference_on_corrupted_values() {
    for &c in &CHANNELS {
        for geom in GEOMETRIES {
            check(c, geom, Values::Corrupted);
        }
    }
}

#[test]
fn eval_forward_keeps_the_training_cache() {
    // An eval forward between a training forward and its backward must not
    // disturb what backward reads, as with the reference.
    let shape = [2, 9, 3, 3];
    let mut new = BatchNorm2d::new("bn", 9);
    let mut old = reference::BatchNorm2d::new("bn", 9);
    let _ = new.forward(input(&shape, 1, Values::Cancelling), true);
    let _ = old.forward(input(&shape, 1, Values::Cancelling), true);
    let _ = new.forward(input(&[1, 9, 2, 2], 2, Values::Cancelling), false);
    let _ = old.forward(input(&[1, 9, 2, 2], 2, Values::Cancelling), false);
    let dx_new = new.backward(input(&shape, 3, Values::Cancelling));
    let dx_old = old.backward(input(&shape, 3, Values::Cancelling));
    assert_same_bits("dx", dx_new.data(), dx_old.data());
}

/// FNV-1a over every state-dict path and value bit pattern.
fn digest(entries: &[sefi_nn::NamedTensor]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for e in entries {
        eat(e.path.as_bytes());
        for v in e.tensor.data() {
            eat(&v.to_bits().to_le_bytes());
        }
    }
    h
}

/// ResNet50 after one training epoch at the smoke budget's shapes
/// (width 0.03, 16² images, 120 training images). The digest was taken
/// with the scalar layer; any numerics drift in BatchNorm, or anywhere
/// else on ResNet50's training path, fails here rather than only in a
/// table diff.
#[test]
fn resnet50_smoke_epoch_state_dict_is_pinned() {
    let data = SyntheticCifar10::generate(DataConfig {
        train: 120,
        test: 60,
        image_size: 16,
        seed: 0xC1_FA10,
        noise: 0.25,
    });
    let config = ModelConfig { scale: 0.03, input_size: 16, num_classes: 10 };
    let (mut net, _) = resnet50(config, &mut DetRng::new(42));
    let outcome = Trainer::new(TrainConfig::default()).train(&mut net, &data, 0, 1);
    assert_eq!(outcome.history().len(), 1, "the epoch must complete");
    let sd = net.state_dict();
    assert_eq!(digest(sd.entries()), PINNED_DIGEST, "got {:#018x}", digest(sd.entries()));
}

const PINNED_DIGEST: u64 = 0x5ac4_393a_43d3_60be;
