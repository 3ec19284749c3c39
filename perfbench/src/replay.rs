//! Per-kind time of one ResNet50 training epoch, by replay.
//!
//! The network's layers are private to `sefi_nn::Network`, so the
//! benchmark builds standalone `sefi_nn` layer instances with the shapes
//! `sefi_models::resnet50` uses at the `default` budget and replays a few
//! training steps (forward, loss, backward, SGD) and one evaluation batch
//! on real dataset images, timing each call by layer kind. The residual
//! join (input copies, add, final ReLU) is replayed the way `Residual`
//! does it. Times are scaled to one epoch: `train_images / batch_size`
//! steps plus `test_images / 64` evaluation batches. Like the trials, the
//! replay runs on every pool worker at once, so kernels run sequentially
//! inside each worker and the workers share the cores as trials do; the
//! per-kind times are the workers' mean.

use rayon::prelude::*;
use sefi_data::{Split, SyntheticCifar10};
use sefi_experiments::Budget;
use sefi_nn::{
    softmax_cross_entropy, AvgPool2d, BatchNorm2d, Conv2d, Dense, Flatten, Layer, ParamRefMut,
    ReLU, Sgd, SgdConfig,
};
use sefi_rng::DetRng;
use sefi_tensor::Tensor;
use std::collections::BTreeMap;
use std::time::Instant;

/// Layer kinds, in report order.
pub const KINDS: [&str; 7] = ["conv", "batchnorm", "relu", "pool", "dense", "join", "loss_sgd"];

/// Measured training steps (after one warm-up step).
const STEPS: usize = 3;

/// Evaluation batch size of `sefi_nn::evaluate`.
const EVAL_BATCH: usize = 64;

/// One standalone layer with its kind and, for conv and dense layers, the
/// weight geometry the FLOP count needs.
struct Op {
    kind: &'static str,
    layer: Box<dyn Layer>,
    /// (input channels, output channels, kernel extent); dense: k = 1.
    geometry: Option<(usize, usize, usize)>,
    /// Backward FLOPs over forward FLOPs (1 when the input gradient is
    /// skipped, 2 otherwise).
    backward_factor: f64,
    /// Forward multiply-adds per image, known after the first forward.
    macs_per_image: f64,
}

impl Op {
    fn new(kind: &'static str, layer: impl Layer + 'static) -> Self {
        Op {
            kind,
            layer: Box::new(layer),
            geometry: None,
            backward_factor: 0.0,
            macs_per_image: 0.0,
        }
    }

    fn conv(
        name: &str,
        cin: usize,
        cout: usize,
        k: usize,
        stride: usize,
        pad: usize,
        rng: &mut DetRng,
    ) -> Self {
        Op {
            kind: "conv",
            layer: Box::new(Conv2d::new(name, cin, cout, k, stride, pad, rng)),
            geometry: Some((cin, cout, k)),
            backward_factor: 2.0,
            macs_per_image: 0.0,
        }
    }
}

/// A residual bottleneck: main branch, shortcut branch, join.
struct Block {
    main: Vec<Op>,
    shortcut: Vec<Op>,
    join: ReLU,
    cached: Option<Tensor>,
}

enum Stage {
    Op(Op),
    Block(Block),
}

/// Accumulated ms per kind.
#[derive(Default)]
struct Clock {
    ms: BTreeMap<&'static str, f64>,
}

impl Clock {
    fn time<T>(&mut self, kind: &'static str, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        *self.ms.entry(kind).or_default() += t0.elapsed().as_secs_f64() * 1e3;
        out
    }
}

fn forward_op(op: &mut Op, x: Tensor, train: bool, clock: &mut Clock) -> Tensor {
    let y = clock.time(op.kind, || op.layer.forward(x, train));
    if let Some((cin, _, k)) = op.geometry {
        // Output is [n, cout, h, w] for conv and [n, cout] for dense.
        let per_image: usize = y.shape()[1..].iter().product();
        op.macs_per_image = (per_image * cin * k * k) as f64;
    }
    y
}

fn forward(stages: &mut [Stage], mut x: Tensor, train: bool, clock: &mut Clock) -> Tensor {
    for stage in stages {
        x = match stage {
            Stage::Op(op) => forward_op(op, x, train, clock),
            Stage::Block(b) => {
                let mut m = clock.time("join", || {
                    b.cached = Some(x.clone());
                    x.clone()
                });
                for op in &mut b.main {
                    m = forward_op(op, m, train, clock);
                }
                let mut s = x;
                for op in &mut b.shortcut {
                    s = forward_op(op, s, train, clock);
                }
                clock.time("join", || {
                    m.add_assign(&s);
                    b.join.forward(m, train)
                })
            }
        };
    }
    x
}

fn backward(stages: &mut [Stage], mut d: Tensor, clock: &mut Clock) {
    for stage in stages.iter_mut().rev() {
        d = match stage {
            Stage::Op(op) => clock.time(op.kind, || op.layer.backward(d)),
            Stage::Block(b) => {
                let (d, mut dm) = clock.time("join", || {
                    b.cached = None;
                    let d = b.join.backward(d);
                    let dm = d.clone();
                    (d, dm)
                });
                for op in b.main.iter_mut().rev() {
                    dm = clock.time(op.kind, || op.layer.backward(dm));
                }
                let mut ds = d;
                for op in b.shortcut.iter_mut().rev() {
                    ds = clock.time(op.kind, || op.layer.backward(ds));
                }
                clock.time("join", || {
                    dm.add_assign(&ds);
                    dm
                })
            }
        };
    }
}

fn ops_mut(stages: &mut [Stage]) -> Vec<&mut Op> {
    let mut out = Vec::new();
    for stage in stages {
        match stage {
            Stage::Op(op) => out.push(op),
            Stage::Block(b) => out.extend(b.main.iter_mut().chain(b.shortcut.iter_mut())),
        }
    }
    out
}

/// `sefi_models::resnet50`'s layer stack as standalone layers.
fn resnet50(budget: &Budget) -> Vec<Stage> {
    const STAGES: [(usize, usize); 4] = [(64, 3), (128, 4), (256, 6), (512, 3)];
    let cfg = budget.model_config();
    let mut rng = DetRng::new(0x5EF1_2021);
    let stem = cfg.ch(64);
    // The first layer's input gradient is never consumed.
    let stem_conv = Op {
        kind: "conv",
        layer: Box::new(Conv2d::new("conv1", 3, stem, 3, 1, 1, &mut rng).skip_input_grad()),
        geometry: Some((3, stem, 3)),
        backward_factor: 1.0,
        macs_per_image: 0.0,
    };
    let mut stages = vec![
        Stage::Op(stem_conv),
        Stage::Op(Op::new("batchnorm", BatchNorm2d::new("bn1", stem))),
        Stage::Op(Op::new("relu", ReLU::new("relu1"))),
    ];
    let mut in_ch = stem;
    for (s, &(full_base, blocks)) in STAGES.iter().enumerate() {
        let base = cfg.ch(full_base);
        let out_ch = base * 4;
        for b in 0..blocks {
            let stride = if b == 0 && s > 0 { 2 } else { 1 };
            let main = vec![
                Op::conv("conv1", in_ch, base, 1, 1, 0, &mut rng),
                Op::new("batchnorm", BatchNorm2d::new("bn1", base)),
                Op::new("relu", ReLU::new("relu1")),
                Op::conv("conv2", base, base, 3, stride, 1, &mut rng),
                Op::new("batchnorm", BatchNorm2d::new("bn2", base)),
                Op::new("relu", ReLU::new("relu2")),
                Op::conv("conv3", base, out_ch, 1, 1, 0, &mut rng),
                Op::new("batchnorm", BatchNorm2d::new("bn3", out_ch)),
            ];
            let shortcut = if stride != 1 || in_ch != out_ch {
                vec![
                    Op::conv("proj", in_ch, out_ch, 1, stride, 0, &mut rng),
                    Op::new("batchnorm", BatchNorm2d::new("proj_bn", out_ch)),
                ]
            } else {
                vec![]
            };
            stages.push(Stage::Block(Block {
                main,
                shortcut,
                join: ReLU::new("join"),
                cached: None,
            }));
            in_ch = out_ch;
        }
    }
    let spatial = cfg.input_size / 8;
    stages.push(Stage::Op(Op::new("pool", AvgPool2d::new("global_pool", spatial, spatial))));
    stages.push(Stage::Op(Op::new("dense", Flatten::new("flatten"))));
    let mut fc = Op::new("dense", Dense::new("fc", in_ch, cfg.num_classes, &mut rng));
    fc.geometry = Some((in_ch, cfg.num_classes, 1));
    fc.backward_factor = 2.0;
    stages.push(Stage::Op(fc));
    stages
}

/// One ResNet50 epoch at `budget`, replayed on `data`.
pub struct EpochReplay {
    /// Replayed ms per layer kind, scaled to one epoch ([`KINDS`] order).
    pub kind_ms: Vec<(&'static str, f64)>,
    /// Computed FLOPs of one epoch: conv and dense multiply-adds × 2, for
    /// forward and backward of every training step and the forward of
    /// every evaluation batch.
    pub flops: f64,
}

/// Replay one epoch's work per layer kind on each of `workers` pool
/// workers at once, and average.
pub fn resnet50_epoch(budget: &Budget, data: &SyntheticCifar10, workers: usize) -> EpochReplay {
    let runs: Vec<EpochReplay> =
        (0..workers).into_par_iter().map(|_| replay_once(budget, data)).collect();
    let n = runs.len() as f64;
    EpochReplay {
        kind_ms: KINDS
            .iter()
            .enumerate()
            .map(|(i, k)| (*k, runs.iter().map(|r| r.kind_ms[i].1).sum::<f64>() / n))
            .collect(),
        flops: runs[0].flops,
    }
}

fn replay_once(budget: &Budget, data: &SyntheticCifar10) -> EpochReplay {
    let batch = 8.min(budget.train_images.max(1));
    let steps_per_epoch = (budget.train_images / batch) as f64;
    let mut stages = resnet50(budget);
    let mut sgd = Sgd::new(SgdConfig::default());
    let indices: Vec<usize> = (0..batch).collect();
    let (images, labels) = data.gather(Split::Train, &indices);

    let mut clock = Clock::default();
    for step in 0..=STEPS {
        if step == 1 {
            // Step 0 warms workspaces and optimizer state.
            clock = Clock::default();
        }
        let logits = forward(&mut stages, images.clone(), true, &mut clock);
        let (_, dlogits) = clock.time("loss_sgd", || softmax_cross_entropy(&logits, &labels));
        backward(&mut stages, dlogits, &mut clock);
        clock.time("loss_sgd", || {
            let mut ops = ops_mut(&mut stages);
            let mut params: Vec<ParamRefMut<'_>> =
                ops.iter_mut().flat_map(|op| op.layer.params_mut()).collect();
            sgd.step(&mut params);
            drop(params);
            for op in ops {
                op.layer.zero_grad();
            }
        });
    }
    let train_scale = steps_per_epoch / STEPS as f64;
    let mut kind_ms: BTreeMap<&'static str, f64> =
        clock.ms.iter().map(|(k, ms)| (*k, ms * train_scale)).collect();

    let eval_indices: Vec<usize> = (0..EVAL_BATCH.min(budget.test_images)).collect();
    let (eval_images, _) = data.gather(Split::Test, &eval_indices);
    let mut eval = Clock::default();
    forward(&mut stages, eval_images, false, &mut eval);
    let eval_scale = budget.test_images as f64 / eval_indices.len().max(1) as f64;
    for (k, ms) in eval.ms {
        *kind_ms.entry(k).or_default() += ms * eval_scale;
    }

    let mut train_flops = 0.0;
    let mut forward_flops = 0.0;
    for op in ops_mut(&mut stages) {
        let f = 2.0 * op.macs_per_image;
        forward_flops += f;
        train_flops += f * (1.0 + op.backward_factor);
    }
    let flops =
        train_flops * (steps_per_epoch * batch as f64) + forward_flops * budget.test_images as f64;
    EpochReplay {
        kind_ms: KINDS.iter().map(|k| (*k, kind_ms.get(k).copied().unwrap_or(0.0))).collect(),
        flops,
    }
}
