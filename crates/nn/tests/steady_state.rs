//! Steady-state training must not grow any kernel workspace: after the
//! first step has sized every buffer (im2col columns, GEMM pack panels,
//! gradient scratch), subsequent steps reuse them verbatim. This is the
//! "zero per-step kernel allocations" guarantee of the blocked kernel
//! generations (simd and tiled), enforced via the global growth counter.
//!
//! BatchNorm's reused buffers (its backward cache) are reported through
//! `Layer::workspace_bytes` and must stay flat the same way, also inside a
//! `Residual` block, which sums its children. A pointwise-only stack must
//! stay flat too, and retain less than one unfolded column buffer.
//!
//! Kept in its own integration-test binary, with a single test function:
//! the counter is process-global, and tests running concurrently would
//! make it drift.

use sefi_nn::{
    softmax_cross_entropy, BatchNorm2d, Conv2d, Dense, Flatten, MaxPool2d, Network, ReLU, Residual,
};
use sefi_rng::DetRng;
use sefi_tensor::{set_kernel_mode, workspace_alloc_events, KernelMode, Tensor};

/// Warm `net` up with one step, then assert five more steps leave both its
/// retained workspace bytes and the global growth counter unchanged.
/// Returns the retained bytes.
fn assert_steady(net: &mut Network, x: &Tensor, labels: &[u8]) -> usize {
    let step = |net: &mut Network| {
        let logits = net.forward(x.clone(), true);
        let (_, dlogits) = softmax_cross_entropy(&logits, labels);
        net.backward(dlogits);
        net.zero_grad();
    };

    // Warm-up: first step sizes every buffer for this geometry.
    step(net);
    let retained = net.workspace_bytes();

    let settled = workspace_alloc_events();
    for _ in 0..5 {
        step(net);
    }
    assert_eq!(
        workspace_alloc_events(),
        settled,
        "steady-state steps must not grow any kernel workspace"
    );
    assert_eq!(net.workspace_bytes(), retained, "retained bytes must be stable");
    retained
}

fn input(shape: &[usize]) -> Tensor {
    let n: usize = shape.iter().product();
    Tensor::from_vec((0..n).map(|i| ((i * 37 % 100) as f32 - 50.0) / 50.0).collect(), shape)
}

#[test]
fn training_steps_allocate_no_workspace_after_warmup() {
    set_kernel_mode(KernelMode::Simd);
    let labels: Vec<u8> = vec![0, 3, 7, 9];

    // Plain conv stack.
    let mut rng = DetRng::new(7);
    let mut net = Network::new(vec![
        Box::new(Conv2d::new("conv1", 3, 4, 3, 1, 1, &mut rng).skip_input_grad()),
        Box::new(ReLU::new("relu1")),
        Box::new(MaxPool2d::new("pool1", 2, 2)),
        Box::new(Conv2d::new("conv2", 4, 6, 3, 1, 1, &mut rng)),
        Box::new(ReLU::new("relu2")),
        Box::new(Flatten::new("flat")),
        Box::new(Dense::new("fc", 6 * 8 * 8, 10, &mut rng)),
    ]);
    let retained = assert_steady(&mut net, &input(&[4, 3, 16, 16]), &labels);
    assert!(retained > 0, "conv layers should retain workspace");

    // A ResNet-style stem and bottleneck: BatchNorm2d at top level and on
    // both branches of a projecting Residual block.
    let mut rng = DetRng::new(8);
    let block = Residual::new(
        "res2a",
        vec![
            Box::new(Conv2d::new("conv1", 4, 4, 1, 1, 0, &mut rng)),
            Box::new(BatchNorm2d::new("bn1", 4)),
            Box::new(ReLU::new("relu1")),
            Box::new(Conv2d::new("conv2", 4, 8, 3, 1, 1, &mut rng)),
            Box::new(BatchNorm2d::new("bn2", 8)),
        ],
        vec![
            Box::new(Conv2d::new("proj", 4, 8, 1, 1, 0, &mut rng)),
            Box::new(BatchNorm2d::new("proj_bn", 8)),
        ],
    );
    let mut net = Network::new(vec![
        Box::new(Conv2d::new("conv1", 3, 4, 3, 1, 1, &mut rng).skip_input_grad()),
        Box::new(BatchNorm2d::new("bn1", 4)),
        Box::new(ReLU::new("relu1")),
        Box::new(block),
        Box::new(MaxPool2d::new("pool", 2, 2)),
        Box::new(Flatten::new("flat")),
        Box::new(Dense::new("fc", 8 * 8 * 8, 10, &mut rng)),
    ]);
    assert_steady(&mut net, &input(&[4, 3, 16, 16]), &labels);

    // A pointwise-only stack (1×1, stride 1, no padding), the shape of a
    // bottleneck's outer convolutions. These run on the NCHW tensors
    // without unfolding, so the whole network — BatchNorm's cache included
    // — retains less than the single `n·c·h·w` column buffer the first conv
    // alone would need if it unfolded its input.
    let mut rng = DetRng::new(9);
    let (n, c, h, w) = (4, 16, 8, 8);
    let mut net = Network::new(vec![
        Box::new(Conv2d::new("reduce", c, 4, 1, 1, 0, &mut rng)),
        Box::new(BatchNorm2d::new("bn", 4)),
        Box::new(Conv2d::new("expand", 4, c, 1, 1, 0, &mut rng)),
        Box::new(Flatten::new("flat")),
        Box::new(Dense::new("fc", c * h * w, 10, &mut rng)),
    ]);
    let retained = assert_steady(&mut net, &input(&[n, c, h, w]), &labels);
    let cols_bytes = n * c * h * w * std::mem::size_of::<f32>();
    assert!(
        retained < cols_bytes,
        "pointwise stack retains {retained} B, not below one {cols_bytes} B column buffer"
    );
}
