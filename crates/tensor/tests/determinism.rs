//! The determinism contract, tested end to end: all three kernel
//! generations — **simd** (runtime-dispatched AVX-512/AVX2 broadcast-FMA
//! microkernels), **tiled** (the same blocked driver on the scalar
//! lane-emulating microkernels), and **naive** (unblocked triple loops)
//! — must be **bit-identical** for every shape — ragged or
//! blocking-aligned, through every internal fast path (packed, strip,
//! narrow, tiny-k, no-pack vector) — and their results must not depend on
//! how many rayon workers execute them.
//!
//! These tests flip the process-global kernel mode and the
//! `RAYON_NUM_THREADS` variable, so everything that does either runs under
//! one mutex.

use proptest::prelude::*;
use sefi_tensor::{
    conv2d, conv2d_backward, matmul, matmul_a_bt, matmul_at_b, set_kernel_mode, ConvSpec,
    KernelMode, Tensor,
};
use std::sync::Mutex;

static GLOBALS: Mutex<()> = Mutex::new(());

const MODES: [(KernelMode, &str); 3] =
    [(KernelMode::Simd, "simd"), (KernelMode::Tiled, "tiled"), (KernelMode::Naive, "naive")];

/// Run `f` under all three kernel generations and hand back the results
/// in [`MODES`] order (simd, tiled, naive).
fn all_modes<R>(mut f: impl FnMut() -> R) -> [R; 3] {
    let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    let out = MODES.map(|(mode, _)| {
        set_kernel_mode(mode);
        f()
    });
    set_kernel_mode(KernelMode::Simd);
    out
}

/// Assert the three per-mode results of `all_modes` agree bit for bit.
fn assert_all_modes_eq(results: &[Tensor; 3], what: &str) {
    let simd = bits(&results[0]);
    for (i, (_, name)) in MODES.iter().enumerate().skip(1) {
        assert_eq!(simd, bits(&results[i]), "{what}: simd vs {name} diverged");
    }
}

fn bits(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| v.to_bits()).collect()
}

fn filled(shape: &[usize], salt: u32) -> Tensor {
    // Deterministic, sign-mixed, non-representable-sum values so that any
    // reassociation of the accumulation chain actually changes the bits.
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|i| {
            let x = (i as u32).wrapping_mul(2654435761).wrapping_add(salt);
            (x % 2000) as f32 / 300.0 - 3.3
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Shapes that straddle every blocking boundary of the packed path
/// (MR = 8, NR = 32, MC = 64, KC = 256) and the small-problem fast paths:
/// narrow (n ≤ 8), tiny-k (k ≤ 8), strip/no-pack (below the small-GEMM
/// flop cutoff), and true packed (m·n·k above it). Ragged n exercises the
/// masked vector edge kernels; ragged m the partial microtiles.
const GEMM_SHAPES: &[(usize, usize, usize)] = &[
    (1, 1, 1),
    (3, 2, 9),      // narrow
    (27, 300, 2),   // tiny-k
    (67, 29, 33),   // strip, ragged both ways
    (8, 32, 256),   // exactly one block each
    (9, 33, 257),   // one past each boundary (one masked column)
    (65, 33, 257),  // packed path (above the small-GEMM flop cutoff)
    (130, 15, 300), // packed, n narrower than one vector, multiple row blocks
    (7, 77, 1000),  // packed, m smaller than one microtile
];

#[test]
fn gemm_bitwise_identical_across_generations_on_boundary_shapes() {
    for &(m, n, k) in GEMM_SHAPES {
        let a = filled(&[m, k], 1);
        let at = filled(&[k, m], 2);
        let b = filled(&[k, n], 3);
        let bt = filled(&[n, k], 4);
        let cases: [(&str, [Tensor; 3]); 3] = [
            ("matmul", all_modes(|| matmul(&a, &b))),
            ("at_b", all_modes(|| matmul_at_b(&at, &b))),
            ("a_bt", all_modes(|| matmul_a_bt(&a, &bt))),
        ];
        for (name, results) in &cases {
            assert_all_modes_eq(results, &format!("{name} on ({m},{n},{k})"));
        }
    }
}

#[test]
fn results_do_not_depend_on_rayon_thread_count() {
    let _guard = GLOBALS.lock().unwrap_or_else(|e| e.into_inner());
    // The vectorized generation is the one whose parallel row-blocks could
    // plausibly race or resplit chains, so pin it here (tiled shares the
    // same driver; naive has its own test history).
    set_kernel_mode(KernelMode::Simd);
    // Big enough to cross the parallel-dispatch thresholds for GEMM
    // (m·n·k ≥ 72³ and m > MC) and for im2col (≥ 2¹⁶ elements).
    let a = filled(&[130, 64], 5);
    let b = filled(&[64, 64], 6);
    let x = filled(&[4, 3, 32, 32], 7);
    let w = filled(&[5, 3, 3, 3], 8);
    let bias = filled(&[5], 9);
    let spec = ConvSpec { stride: 1, pad: 1 };
    let dout = filled(&[4, 5, 32, 32], 10);

    type Snapshot = (Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>, Vec<u32>);
    let mut reference: Option<Snapshot> = None;
    for threads in ["1", "2", "3", "5"] {
        // The vendored rayon shim reads this per dispatch, so varying it
        // inside one process genuinely changes the fan-out.
        std::env::set_var("RAYON_NUM_THREADS", threads);
        let mm = matmul(&a, &b);
        let y = conv2d(&x, &w, &bias, spec);
        let g = conv2d_backward(&x, &w, &dout, spec);
        let got = (bits(&mm), bits(&y), bits(&g.dx), bits(&g.dw), bits(&g.db));
        match &reference {
            None => reference = Some(got),
            Some(want) => {
                assert_eq!(want, &got, "results changed with RAYON_NUM_THREADS={threads}")
            }
        }
    }
    std::env::remove_var("RAYON_NUM_THREADS");
    set_kernel_mode(KernelMode::Simd);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ragged random shapes sweep the strip/narrow/tiny-k dispatch space.
    #[test]
    fn gemm_bitwise_identical_on_ragged_shapes(
        m in 1usize..40,
        n in 1usize..40,
        k in 1usize..40,
        salt in 0u32..1000,
    ) {
        let a = filled(&[m, k], salt);
        let b = filled(&[k, n], salt.wrapping_add(1));
        let r = all_modes(|| matmul(&a, &b));
        prop_assert_eq!(bits(&r[0]), bits(&r[1]));
        prop_assert_eq!(bits(&r[0]), bits(&r[2]));
        let at = filled(&[k, m], salt.wrapping_add(2));
        let r = all_modes(|| matmul_at_b(&at, &b));
        prop_assert_eq!(bits(&r[0]), bits(&r[1]));
        prop_assert_eq!(bits(&r[0]), bits(&r[2]));
        let bt = filled(&[n, k], salt.wrapping_add(3));
        let r = all_modes(|| matmul_a_bt(&a, &bt));
        prop_assert_eq!(bits(&r[0]), bits(&r[1]));
        prop_assert_eq!(bits(&r[0]), bits(&r[2]));
    }

    /// Long-k products with a handful of output columns — the narrow
    /// transposed-B route (n ≤ 16, k ≥ 64) and its neighbours — under each
    /// operand layout the public API exposes.
    #[test]
    fn gemm_bitwise_identical_on_narrow_long_k(
        m in 1usize..80,
        n in 1usize..17,
        k in 1usize..301,
        salt in 0u32..1000,
    ) {
        let a = filled(&[m, k], salt);
        let at = filled(&[k, m], salt.wrapping_add(1));
        let b = filled(&[k, n], salt.wrapping_add(2));
        let bt = filled(&[n, k], salt.wrapping_add(3));
        let cases: [(&str, [Tensor; 3]); 3] = [
            ("matmul", all_modes(|| matmul(&a, &b))),
            ("at_b", all_modes(|| matmul_at_b(&at, &b))),
            ("a_bt", all_modes(|| matmul_a_bt(&a, &bt))),
        ];
        for (name, r) in &cases {
            prop_assert_eq!(bits(&r[0]), bits(&r[1]), "{}: simd vs tiled", name);
            prop_assert_eq!(bits(&r[0]), bits(&r[2]), "{}: simd vs naive", name);
        }
    }

    /// Convolution forward and backward over 1×1 and 3×3 kernels, strided
    /// and padded (the strided backward takes the canonical col2im path,
    /// stride 1 the tap-inverted one), and in every case also the pointwise
    /// geometry (1×1, stride 1, no padding), which the blocked generations
    /// run without unfolding. Batches reach ≥ 64 patch rows (the narrow
    /// weight-gradient route), feature maps range from 2×2 to 12×12 — both
    /// sides of the 16- and 32-lane vector widths — and up to 20 output
    /// channels cross the narrow kernel's 16-column groups. Every
    /// generation must match bit for bit.
    #[test]
    fn conv_bitwise_identical_across_generations(
        n in 1usize..9,
        c in 1usize..13,
        o in 1usize..21,
        hw in 2usize..13,
        k in prop_oneof![Just(1usize), Just(3usize)],
        stride in 1usize..3,
        pad in 0usize..2,
        salt in 0u32..1000,
    ) {
        let x = filled(&[n, c, hw, hw], salt);
        let bias = filled(&[o], salt.wrapping_add(2));
        // A 2×2 map needs padding to fit a 3×3 kernel.
        let pad = if hw + 2 * pad < k { 1 } else { pad };
        for (k, spec) in [(k, ConvSpec { stride, pad }), (1, ConvSpec { stride: 1, pad: 0 })] {
            let w = filled(&[o, c, k, k], salt.wrapping_add(1));
            let oh = spec.out_extent(hw, k);
            let dout = filled(&[n, o, oh, oh], salt.wrapping_add(3));
            let r = conv_all_modes(&x, &w, &bias, &dout, spec, bits);
            if let Err(e) = r {
                prop_assert!(false, "k={} {:?}: {}", k, spec, e);
            }
        }
    }
}

/// Forward and backward of one convolution under all three generations,
/// compared through `key` (bit patterns, or bit patterns with NaN folded).
fn conv_all_modes(
    x: &Tensor,
    w: &Tensor,
    bias: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
    key: fn(&Tensor) -> Vec<u32>,
) -> Result<(), String> {
    let fwd = all_modes(|| conv2d(x, w, bias, spec));
    let grads = all_modes(|| conv2d_backward(x, w, dout, spec));
    for (i, (_, name)) in MODES.iter().enumerate().skip(1) {
        let pairs = [
            ("y", &fwd[0], &fwd[i]),
            ("dx", &grads[0].dx, &grads[i].dx),
            ("dw", &grads[0].dw, &grads[i].dw),
            ("db", &grads[0].db, &grads[i].db),
        ];
        for (what, simd, other) in pairs {
            if key(simd) != key(other) {
                return Err(format!("{what}: simd vs {name} diverged"));
            }
        }
    }
    Ok(())
}

/// Bit patterns with every NaN folded to one value: which NaN an
/// invalid operation or a NaN operand yields depends on the operand order
/// an instruction was given, which is outside the contract; where NaNs
/// are, and every other bit, is inside it.
fn bits_nan_folded(t: &Tensor) -> Vec<u32> {
    t.data().iter().map(|v| if v.is_nan() { f32::NAN.to_bits() } else { v.to_bits() }).collect()
}

/// Values drawn from `palette` by a fixed hash of the index.
fn from_palette(shape: &[usize], palette: &[f32], salt: u32) -> Tensor {
    let n: usize = shape.iter().product();
    let data = (0..n)
        .map(|i| {
            let h = (i as u32).wrapping_mul(2654435761).wrapping_add(salt.wrapping_mul(40503));
            palette[(h >> 7) as usize % palette.len()]
        })
        .collect();
    Tensor::from_vec(data, shape)
}

/// Signed zeros, infinities, NaN, and operands whose products underflow
/// to ±0.0 through every conv path. A chain of underflowing negative
/// products ends in -0.0; the unfolded paths fold it onto a zeroed
/// gradient (`0.0 + -0.0 = +0.0`), so the pointwise path must land on
/// +0.0 too — y, dx, dw and db all match the naive generation.
#[test]
fn conv_special_values_match_naive() {
    const TINY: [f32; 6] = [1e-30, -1e-30, 3e-31, -2e-31, 0.0, -0.0];
    const WILD: [f32; 12] = [
        1e-30,
        -1e-30,
        0.0,
        -0.0,
        1.5,
        -2.0,
        0.25,
        1e-30,
        -1e-30,
        f32::INFINITY,
        f32::NEG_INFINITY,
        f32::NAN,
    ];
    let geometries = [
        (1, ConvSpec { stride: 1, pad: 0 }),
        (3, ConvSpec { stride: 1, pad: 1 }),
        (3, ConvSpec { stride: 2, pad: 1 }),
        (1, ConvSpec { stride: 2, pad: 0 }),
    ];
    for (salt, (n, c, o, hw)) in
        [(8, 4, 4, 16), (8, 16, 20, 8), (3, 5, 7, 4), (8, 31, 17, 2)].into_iter().enumerate()
    {
        let salt = salt as u32 * 4;
        for &(k, spec) in &geometries {
            let oh = spec.out_extent(hw, k);
            // All-tiny operands: every product underflows, so every chain
            // is a signed zero; the bias and dout keep a zero of each sign.
            let x = from_palette(&[n, c, hw, hw], &TINY, salt);
            let w = from_palette(&[o, c, k, k], &TINY, salt + 1);
            let bias = from_palette(&[o], &[0.0, -0.0], salt + 2);
            let dout = from_palette(&[n, o, oh, oh], &TINY, salt + 3);
            if let Err(e) = conv_all_modes(&x, &w, &bias, &dout, spec, bits) {
                panic!("tiny operands, k={k} {spec:?} n={n} c={c} o={o} hw={hw}: {e}");
            }
            // Mixed specials: infinities and NaN among ordinary values.
            let x = from_palette(&[n, c, hw, hw], &WILD, salt + 4);
            let w = from_palette(&[o, c, k, k], &WILD, salt + 5);
            let bias = from_palette(&[o], &WILD, salt + 6);
            let dout = from_palette(&[n, o, oh, oh], &WILD, salt + 7);
            if let Err(e) = conv_all_modes(&x, &w, &bias, &dout, spec, bits_nan_folded) {
                panic!("special values, k={k} {spec:?} n={n} c={c} o={o} hw={hw}: {e}");
            }
        }
    }
}
