//! Convolution and pooling, NCHW layout.
//!
//! Convolution is im2col + GEMM: unfold every receptive field into a row,
//! multiply by the flattened kernel matrix, fold the result back. Backward
//! reuses the same machinery (col2im scatters gradient patches). A
//! pointwise convolution (1×1, stride 1, no padding) has the input itself
//! as its patch matrix, so the blocked modes run its products straight on
//! the NCHW tensors.
//!
//! Two entry styles exist for convolution:
//!
//! * [`conv2d`] / [`conv2d_backward`] — self-contained, allocate their own
//!   scratch (and, in the backward pass, recompute the forward's im2col).
//! * [`conv2d_ws`] / [`conv2d_backward_ws`] — thread a per-layer
//!   [`ConvWorkspace`] through both passes, so backward *reuses* the
//!   columns forward already unfolded and all intermediates live in
//!   grow-once buffers (zero steady-state kernel allocations).
//!
//! Both styles are bitwise identical: every output element is produced by
//! exactly one task with a fixed accumulation order. The data-parallel
//! paths (im2col over images, col2im per image, pooling per plane) never
//! split any element's accumulation chain — im2col/pool forward are pure
//! writes, and the scatter kernels partition exactly along the boundaries
//! their indices never cross.

use crate::dispatch::{
    kernel_mode, mode_isa, par_enabled, KernelMode, PAR_COL2IM_MIN_ELEMS, PAR_IM2COL_MIN_ELEMS,
    PAR_POOL_MIN_ELEMS,
};
use crate::divmod::FastDivmod;
use crate::kernel::{
    batch_is_narrow, gemm_acc_tb_segs, gemm_batched, gemm_side_by_side, gemm_tiled, Batch, KSegs,
};
use crate::simd;
use crate::workspace::{ensure, ConvKey, ConvWorkspace};
use crate::{matmul, matmul_a_bt, matmul_at_b, Tensor};
use rayon::prelude::*;
use std::cell::RefCell;

/// Stride/padding configuration of a convolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConvSpec {
    /// Step between receptive fields.
    pub stride: usize,
    /// Zero-padding applied to all four borders.
    pub pad: usize,
}

impl ConvSpec {
    /// Output spatial extent for an input extent and kernel extent.
    pub fn out_extent(&self, input: usize, kernel: usize) -> usize {
        assert!(
            input + 2 * self.pad >= kernel,
            "kernel {kernel} larger than padded input {}",
            input + 2 * self.pad
        );
        (input + 2 * self.pad - kernel) / self.stride + 1
    }
}

/// Pooling window configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSpec {
    /// Window edge length.
    pub size: usize,
    /// Step between windows.
    pub stride: usize,
}

/// Unfold one image's receptive fields into patch rows. The block is
/// zeroed once (padding positions stay zero), then each in-bounds kernel
/// tap `(ci, ky, kx)` writes its column of the patch matrix as one strided
/// sweep over the output positions it covers — long loops with no
/// per-position bounds logic, instead of `oh*ow*c*kh` few-float segments.
/// All writes are pure (no accumulation), so the write order is free.
fn im2col_image(
    dst: &mut [f32],
    src: &[f32],
    (c, h, w): (usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let row_len = c * kh * kw;
    let stride = spec.stride;
    let pad = spec.pad;
    dst.fill(0.0);
    for ci in 0..c {
        for ky in 0..kh {
            // Output rows whose input row 0 <= oy*stride + ky - pad < h.
            let oy_lo = pad.saturating_sub(ky).div_ceil(stride).min(oh);
            let oy_hi = match (h + pad).checked_sub(ky + 1) {
                Some(t) => (t / stride + 1).min(oh),
                None => 0,
            };
            for kx in 0..kw {
                let ox_lo = pad.saturating_sub(kx).div_ceil(stride).min(ow);
                let ox_hi = match (w + pad).checked_sub(kx + 1) {
                    Some(t) => (t / stride + 1).min(ow),
                    None => 0,
                };
                if ox_lo >= ox_hi {
                    continue;
                }
                let col = (ci * kh + ky) * kw + kx;
                for oy in oy_lo..oy_hi {
                    let mut si = (ci * h + oy * stride + ky - pad) * w + ox_lo * stride + kx - pad;
                    let mut di = (oy * ow + ox_lo) * row_len + col;
                    for _ in ox_lo..ox_hi {
                        dst[di] = src[si];
                        di += row_len;
                        si += stride;
                    }
                }
            }
        }
    }
}

/// One tap lane of the tap-major im2col: `lane` is row `col` of the
/// `[c*kh*kw, n*oh*ow]` column matrix. For stride 1 both the source run and
/// the destination run are contiguous, so the whole lane is a handful of
/// straight copies per output row.
fn im2col_t_lane(
    lane: &mut [f32],
    src: &[f32],
    col: usize,
    (n, c, h, w): (usize, usize, usize, usize),
    (kh, kw): (usize, usize),
    (dm_khkw, dm_kw): (FastDivmod, FastDivmod),
    spec: ConvSpec,
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let ohw = oh * ow;
    let stride = spec.stride;
    let pad = spec.pad;
    // Magic-number division (the per-lane decomposition runs once per lane
    // here, but the same FastDivmod values serve thousands of lanes, and
    // hardware `div` is ~20x a multiply).
    debug_assert_eq!(dm_khkw.divisor() as usize, kh * kw);
    debug_assert_eq!(dm_kw.divisor() as usize, kw);
    let (ci, rem) = dm_khkw.div_rem(col as u32);
    let (ky, kx) = dm_kw.div_rem(rem);
    let (ci, ky, kx) = (ci as usize, ky as usize, kx as usize);
    let oy_lo = pad.saturating_sub(ky).div_ceil(stride).min(oh);
    let oy_hi = match (h + pad).checked_sub(ky + 1) {
        Some(t) => (t / stride + 1).min(oh),
        None => 0,
    };
    let ox_lo = pad.saturating_sub(kx).div_ceil(stride).min(ow);
    let ox_hi = match (w + pad).checked_sub(kx + 1) {
        Some(t) => (t / stride + 1).min(ow),
        None => 0,
    };
    if stride == 1 && ow == w && kx == pad {
        // A full-width tap (every 1×1 tap, the centre column of a "same"
        // 3×3): rows oy_lo..oy_hi of each image are one contiguous span on
        // both sides, and only the rows padding leaves uncovered get zeros.
        let (lo, hi) = (oy_lo * ow, oy_hi.max(oy_lo) * ow);
        for (ni, dst) in lane.chunks_exact_mut(ohw).enumerate() {
            dst[..lo].fill(0.0);
            dst[hi..].fill(0.0);
            if lo < hi {
                let si = ni * c * h * w + (ci * h + oy_lo + ky - pad) * w;
                dst[lo..hi].copy_from_slice(&src[si..si + hi - lo]);
            }
        }
        return;
    }
    lane.fill(0.0);
    if ox_lo >= ox_hi {
        return;
    }
    let run = ox_hi - ox_lo;
    for ni in 0..n {
        let img = &src[ni * c * h * w..(ni + 1) * c * h * w];
        for oy in oy_lo..oy_hi {
            let si = (ci * h + oy * stride + ky - pad) * w + ox_lo * stride + kx - pad;
            let di = ni * ohw + oy * ow + ox_lo;
            if stride == 1 {
                lane[di..di + run].copy_from_slice(&img[si..si + run]);
            } else {
                let mut si = si;
                for d in lane[di..di + run].iter_mut() {
                    *d = img[si];
                    si += stride;
                }
            }
        }
    }
}

/// Tap-major im2col over a batch: `dst` is `[c*kh*kw, n*oh*ow]` row-major
/// (the transpose of [`im2col`]'s layout). Tap lanes are independent pure
/// writes, so they parallelize without touching any accumulation order.
fn im2col_t_into(
    dst: &mut [f32],
    src: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let rows = n * oh * ow;
    let row_len = c * kh * kw;
    debug_assert_eq!(dst.len(), rows * row_len);
    let dm = (FastDivmod::new((kh * kw) as u32), FastDivmod::new(kw as u32));
    if par_enabled() && dst.len() >= PAR_IM2COL_MIN_ELEMS && row_len > 1 {
        dst.par_chunks_mut(rows).enumerate().for_each(|(col, lane)| {
            im2col_t_lane(lane, src, col, (n, c, h, w), (kh, kw), dm, spec);
        });
    } else {
        for (col, lane) in dst.chunks_mut(rows).enumerate() {
            im2col_t_lane(lane, src, col, (n, c, h, w), (kh, kw), dm, spec);
        }
    }
}

/// Tap-inverted col2im for one image, consuming that image's gradient
/// columns: tap `col`'s run is `src[col*col_step..][..oh*ow]`. Each input
/// pixel receives at most one patch per kernel tap, and the map is
/// monotone: patch row `oy = (iy + pad - ky) / stride` falls as `ky` rises,
/// and within a patch row `ox` falls as `kx` rises. Sweeping taps in
/// descending `(ky, kx)` order therefore replays every pixel's accumulation
/// chain in exactly the canonical `(oy, ox)` patch order of [`col2im`] —
/// same sums, same bits — for any stride, while every source run is
/// contiguous.
fn col2im_t_image(
    dst: &mut [f32],
    src: &[f32],
    col_step: usize,
    (c, h, w): (usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let ohw = oh * ow;
    let (stride, pad) = (spec.stride, spec.pad);
    for ci in 0..c {
        for ky in (0..kh).rev() {
            let oy_lo = pad.saturating_sub(ky).div_ceil(stride).min(oh);
            let oy_hi = match (h + pad).checked_sub(ky + 1) {
                Some(t) => (t / stride + 1).min(oh),
                None => 0,
            };
            for kx in (0..kw).rev() {
                let col = (ci * kh + ky) * kw + kx;
                let lane = &src[col * col_step..][..ohw];
                if stride == 1 && ow == w && kx == pad {
                    // Full-width tap: rows oy_lo..oy_hi are one contiguous
                    // span on both sides, still one add per pixel.
                    if oy_lo < oy_hi {
                        let len = (oy_hi - oy_lo) * w;
                        let di = (ci * h + oy_lo + ky - pad) * w;
                        simd::add_assign(&mut dst[di..di + len], &lane[oy_lo * ow..][..len]);
                    }
                    continue;
                }
                let ox_lo = pad.saturating_sub(kx).div_ceil(stride).min(ow);
                let ox_hi = match (w + pad).checked_sub(kx + 1) {
                    Some(t) => (t / stride + 1).min(ow),
                    None => 0,
                };
                if ox_lo >= ox_hi {
                    continue;
                }
                let run = ox_hi - ox_lo;
                for oy in oy_lo..oy_hi {
                    let di = (ci * h + oy * stride + ky - pad) * w + ox_lo * stride + kx - pad;
                    let src_run = &lane[oy * ow + ox_lo..][..run];
                    if stride == 1 {
                        // Elementwise adds vectorize without touching any
                        // element's chain order (one tap per add).
                        simd::add_assign(&mut dst[di..di + run], src_run);
                    } else {
                        let dst_run = dst[di..].iter_mut().step_by(stride);
                        for (d, &v) in dst_run.zip(src_run) {
                            *d += v;
                        }
                    }
                }
            }
        }
    }
}

/// Batch wrapper over [`col2im_t_image`]. Image `ni`'s tap `col` lane is
/// `src[ni*img_step + col*col_step..][..oh*ow]` — image-major gradient
/// columns `[n, c*kh*kw, oh*ow]` or tap-major ones `[c*kh*kw, n*oh*ow]`.
/// Images are disjoint scatter targets, so they parallelize without
/// reordering any pixel's chain.
#[allow(clippy::too_many_arguments)]
fn col2im_t_into(
    dst: &mut [f32],
    src: &[f32],
    (img_step, col_step): (usize, usize),
    (n, c, h, w): (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) {
    let job = |(ni, img): (usize, &mut [f32])| {
        col2im_t_image(img, &src[ni * img_step..], col_step, (c, h, w), kh, kw, spec);
    };
    if par_enabled() && dst.len() >= PAR_COL2IM_MIN_ELEMS && n > 1 {
        dst.par_chunks_mut(c * h * w).enumerate().for_each(job);
    } else {
        dst.chunks_mut(c * h * w).enumerate().for_each(job);
    }
}

/// Slice-level im2col over a batch: `dst` is `[n*oh*ow, c*kh*kw]` row-major.
/// Images are independent pure writes, so they parallelize without touching
/// any accumulation order.
fn im2col_into(
    dst: &mut [f32],
    src: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let per_img = oh * ow * c * kh * kw;
    debug_assert_eq!(dst.len(), n * per_img);
    if par_enabled() && dst.len() >= PAR_IM2COL_MIN_ELEMS && n > 1 {
        dst.par_chunks_mut(per_img).enumerate().for_each(|(ni, img)| {
            im2col_image(img, &src[ni * c * h * w..(ni + 1) * c * h * w], (c, h, w), kh, kw, spec);
        });
    } else {
        for (ni, img) in dst.chunks_mut(per_img).enumerate() {
            im2col_image(img, &src[ni * c * h * w..(ni + 1) * c * h * w], (c, h, w), kh, kw, spec);
        }
    }
}

/// Unfold `x: [n, c, h, w]` into `[n * oh * ow, c * kh * kw]` patch rows.
pub fn im2col(x: &Tensor, kh: usize, kw: usize, spec: ConvSpec) -> Tensor {
    let [n, c, h, w] = dims4(x);
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let row_len = c * kh * kw;
    let mut out = vec![0.0f32; n * oh * ow * row_len];
    im2col_into(&mut out, x.data(), (n, c, h, w), kh, kw, spec);
    Tensor::from_vec(out, &[n * oh * ow, row_len])
}

/// Fold one image's patch-row gradients back onto its input plane.
/// Overlapping patches accumulate in (oy, ox, ci, ky, kx) order — the same
/// canonical order the original serial kernel used.
fn col2im_image(
    dst: &mut [f32],
    src: &[f32],
    (c, h, w): (usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let row_len = c * kh * kw;
    for oy in 0..oh {
        let y0 = oy * spec.stride;
        let ky_lo = spec.pad.saturating_sub(y0).min(kh);
        let ky_hi = (h + spec.pad).saturating_sub(y0).min(kh).max(ky_lo);
        for ox in 0..ow {
            let row = (oy * ow + ox) * row_len;
            let x0 = ox * spec.stride;
            let kx_lo = spec.pad.saturating_sub(x0).min(kw);
            let kx_hi = (w + spec.pad).saturating_sub(x0).min(kw).max(kx_lo);
            let mut segs = src[row..row + row_len].chunks_exact(kw);
            for ci in 0..c {
                for ky in 0..kh {
                    let s = segs.next().expect("row_len = c*kh segments of kw");
                    if ky < ky_lo || ky >= ky_hi {
                        continue;
                    }
                    let d0 = (ci * h + y0 + ky - spec.pad) * w + x0 + kx_lo - spec.pad;
                    let s = &s[kx_lo..kx_hi];
                    simd::add_assign(&mut dst[d0..d0 + s.len()], s);
                }
            }
        }
    }
}

/// Slice-level col2im: scatter `[n*oh*ow, c*kh*kw]` gradients onto a zeroed
/// `[n, c, h, w]` buffer. The scatter never crosses an image boundary, so
/// per-image parallelism preserves each element's serial accumulation order.
fn col2im_into(
    dst: &mut [f32],
    src: &[f32],
    (n, c, h, w): (usize, usize, usize, usize),
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let per_img_src = oh * ow * c * kh * kw;
    debug_assert_eq!(dst.len(), n * c * h * w);
    if par_enabled() && dst.len() >= PAR_COL2IM_MIN_ELEMS && n > 1 {
        dst.par_chunks_mut(c * h * w).enumerate().for_each(|(ni, img)| {
            col2im_image(
                img,
                &src[ni * per_img_src..(ni + 1) * per_img_src],
                (c, h, w),
                kh,
                kw,
                spec,
            );
        });
    } else {
        for (ni, img) in dst.chunks_mut(c * h * w).enumerate() {
            col2im_image(
                img,
                &src[ni * per_img_src..(ni + 1) * per_img_src],
                (c, h, w),
                kh,
                kw,
                spec,
            );
        }
    }
}

/// Fold patch-row gradients back onto the input: inverse scatter of
/// [`im2col`] (overlapping patches accumulate).
pub fn col2im(
    cols: &Tensor,
    input_shape: &[usize],
    kh: usize,
    kw: usize,
    spec: ConvSpec,
) -> Tensor {
    let [n, c, h, w] = [input_shape[0], input_shape[1], input_shape[2], input_shape[3]];
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let row_len = c * kh * kw;
    assert_eq!(cols.shape(), &[n * oh * ow, row_len], "col2im shape mismatch");
    let mut out = vec![0.0f32; n * c * h * w];
    col2im_into(&mut out, cols.data(), (n, c, h, w), kh, kw, spec);
    Tensor::from_vec(out, input_shape)
}

// Per-thread scratch workspace backing the self-contained [`conv2d`] /
// [`conv2d_backward`] entries: the grow-once buffers are reused across
// calls instead of reallocated, but the geometry key is *invalidated on
// every borrow* so no call ever reuses another call's columns — the
// self-contained entries keep their recompute-everything semantics (and
// their bits) exactly.
thread_local! {
    static SCRATCH_WS: RefCell<ConvWorkspace> = RefCell::new(ConvWorkspace::new());
}

/// Run `f` with the thread's scratch conv workspace, key-invalidated.
/// Falls back to a fresh workspace if the scratch one is already borrowed
/// (re-entrant use through a panic handler or nested call).
fn with_scratch_ws<R>(f: impl FnOnce(&mut ConvWorkspace) -> R) -> R {
    SCRATCH_WS.with(|cell| match cell.try_borrow_mut() {
        Ok(mut ws) => {
            ws.invalidate();
            f(&mut ws)
        }
        Err(_) => f(&mut ConvWorkspace::new()),
    })
}

/// Forward convolution: `x [n,c,h,w]`, `weight [o,c,kh,kw]`, `bias [o]`
/// → `[n,o,oh,ow]`. Self-contained variant of [`conv2d_ws`] (borrows a
/// per-thread scratch workspace whose geometry key is always cleared, so
/// the backward pass will recompute im2col; only the allocations persist).
pub fn conv2d(x: &Tensor, weight: &Tensor, bias: &Tensor, spec: ConvSpec) -> Tensor {
    with_scratch_ws(|ws| conv2d_ws(x, weight, bias, spec, ws))
}

/// Forward convolution through a per-layer workspace: the im2col columns
/// and the pre-permute GEMM product live in `ws` and are reused by the next
/// [`conv2d_backward_ws`] on the same geometry (and by every later step).
pub fn conv2d_ws(
    x: &Tensor,
    weight: &Tensor,
    bias: &Tensor,
    spec: ConvSpec,
    ws: &mut ConvWorkspace,
) -> Tensor {
    let [n, c, h, w] = dims4(x);
    let [o, c2, kh, kw] = dims4(weight);
    assert_eq!(c, c2, "conv2d channel mismatch: input {c}, weight {c2}");
    assert_eq!(bias.shape(), &[o], "bias shape");
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let rows = n * oh * ow;
    let row_len = c * kh * kw;

    let mode = kernel_mode();
    if mode == KernelMode::Naive {
        // Retained pre-overhaul path: fresh tensors each call, transpose
        // materialized inside matmul_a_bt's reference kernel.
        ws.invalidate();
        let cols = im2col(x, kh, kw, spec);
        let w_flat = Tensor::from_vec(weight.data().to_vec(), &[o, row_len]);
        let prod = matmul_a_bt(&cols, &w_flat);
        return permute_bias(prod.data(), bias.data(), n, o, oh, ow);
    }

    let isa = mode_isa(mode);
    let ohw = oh * ow;
    if is_pointwise(kh, kw, spec) {
        // A pointwise conv's patch matrix is the input itself: each image's
        // `[c, h*w]` plane block is B, and its `[o, h*w]` output block is
        // C, so one GEMM per image reads and writes NCHW directly. Per
        // element this is the same ascending-channel chain as the unfolded
        // product (starting from the zeroed output), and the bias add below
        // is the same single `+ b` — same bits, no columns, no permute.
        ws.invalidate();
        let mut out = vec![0.0f32; n * o * ohw];
        let batch = Batch { count: n, b_step: c * ohw, c_step: o * ohw };
        gemm_batched(&mut out, o, ohw, c, weight.data(), false, x.data(), batch, isa);
        for (plane, &bv) in out.chunks_exact_mut(ohw).zip(bias.data().iter().cycle()) {
            for d in plane {
                *d += bv;
            }
        }
        return Tensor::from_vec(out, &[n, o, oh, ow]);
    }

    ensure(&mut ws.cols, rows * row_len);
    im2col_t_into(&mut ws.cols[..rows * row_len], x.data(), (n, c, h, w), kh, kw, spec);
    ws.key = Some(ConvKey { x_shape: [n, c, h, w], kh, kw, spec });

    // prodᵀ = w_flat · colsᵀ -> [o, rows], with w_flat read straight out of
    // the weight tensor (its [o,c,kh,kw] data is already [o, c*kh*kw]
    // row-major) and the columns built tap-major by im2col, so neither GEMM
    // operand needs a transpose pass. The output channel count is typically
    // the *small* dimension, so putting it on m keeps the SIMD lanes running
    // along the thousands of patch rows — and turns the NCHW permute below
    // into contiguous per-plane copies. Per element the product is the same
    // ascending-k chain as `cols · w_flatᵀ`, so the bits match the naive
    // path.
    ensure(&mut ws.prod, o * rows);
    gemm_tiled(
        &mut ws.prod[..o * rows],
        o,
        rows,
        row_len,
        weight.data(),
        false,
        &ws.cols[..rows * row_len],
        false,
        isa,
    );
    let p = &ws.prod[..o * rows];
    let mut out = vec![0.0f32; n * o * ohw];
    for ni in 0..n {
        for oi in 0..o {
            let src = &p[oi * rows + ni * ohw..oi * rows + (ni + 1) * ohw];
            let dst = &mut out[(ni * o + oi) * ohw..(ni * o + oi + 1) * ohw];
            let bv = bias.data()[oi];
            for (d, &s) in dst.iter_mut().zip(src) {
                *d = s + bv;
            }
        }
    }
    Tensor::from_vec(out, &[n, o, oh, ow])
}

/// A 1×1, stride-1, unpadded convolution: its patch matrix is the input
/// itself, so the blocked modes run it without unfolding.
fn is_pointwise(kh: usize, kw: usize, spec: ConvSpec) -> bool {
    kh == 1 && kw == 1 && spec.stride == 1 && spec.pad == 0
}

/// Permute `[n*oh*ow, o]` → `[n, o, oh, ow]` and add the per-channel bias
/// (naive-path layout).
fn permute_bias(p: &[f32], b: &[f32], n: usize, o: usize, oh: usize, ow: usize) -> Tensor {
    let mut out = vec![0.0f32; n * o * oh * ow];
    for ni in 0..n {
        for s in 0..oh * ow {
            let src_row = (ni * oh * ow + s) * o;
            for oi in 0..o {
                out[(ni * o + oi) * oh * ow + s] = p[src_row + oi] + b[oi];
            }
        }
    }
    Tensor::from_vec(out, &[n, o, oh, ow])
}

/// Gradients of a convolution.
#[derive(Debug)]
pub struct Conv2dGrads {
    /// Gradient w.r.t. the input, `[n,c,h,w]`.
    pub dx: Tensor,
    /// Gradient w.r.t. the weights, `[o,c,kh,kw]`.
    pub dw: Tensor,
    /// Gradient w.r.t. the bias, `[o]`.
    pub db: Tensor,
}

/// Backward convolution given upstream gradient `dout [n,o,oh,ow]`.
/// Self-contained variant of [`conv2d_backward_ws`] (recomputes im2col in
/// the per-thread scratch workspace — reused allocations, never reused
/// columns).
pub fn conv2d_backward(x: &Tensor, weight: &Tensor, dout: &Tensor, spec: ConvSpec) -> Conv2dGrads {
    with_scratch_ws(|ws| conv2d_backward_ws(x, weight, dout, spec, ws))
}

/// Backward convolution through a per-layer workspace. When `ws` still
/// holds the columns of a forward pass over the same geometry (the normal
/// training pattern), the im2col recomputation — one of the two big
/// per-step costs of the old kernel — is skipped entirely.
pub fn conv2d_backward_ws(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
    ws: &mut ConvWorkspace,
) -> Conv2dGrads {
    conv2d_backward_ws_ex(x, weight, dout, spec, ws, true)
}

/// Like [`conv2d_backward_ws`], but with `need_dx = false` the input
/// gradient is not computed and `dx` comes back as zeros. The first layer
/// of a network produces an input gradient nobody consumes; skipping it
/// drops the largest GEMM and the whole col2im fold from that layer's
/// backward pass. Both kernel generations honour the flag identically, so
/// training histories stay bit-identical across modes either way.
pub fn conv2d_backward_ws_ex(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
    ws: &mut ConvWorkspace,
    need_dx: bool,
) -> Conv2dGrads {
    let [n, c, h, w] = dims4(x);
    let [o, _c2, kh, kw] = dims4(weight);
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    assert_eq!(dout.shape(), &[n, o, oh, ow], "dout shape");
    let rows = n * oh * ow;
    let row_len = c * kh * kw;

    let mode = kernel_mode();
    if mode == KernelMode::Naive {
        return conv2d_backward_naive(x, weight, dout, spec, (n, c, h, w), (o, kh, kw), need_dx);
    }
    let isa = mode_isa(mode);

    let ohw = oh * ow;
    let d = dout.data();
    // dout's per-channel planes, image by image: patch row `ni*ohw + s` of
    // channel `oi` is `d[(ni*o + oi)*ohw + s]`.
    let planes = |oi: usize| (0..n).map(move |ni| &d[(ni * o + oi) * ohw..(ni * o + oi + 1) * ohw]);

    // db = per-channel sums over ascending patch rows. This is the one
    // genuine reduction in the conv stack, so it runs through the frozen
    // eight-lane tree of [`simd::sum_lanes8`], fed plane by plane — the
    // naive backward replays the *same* tree over the same sequence (via
    // `sum_lanes8_ref`), keeping the generations bit-identical.
    let db: Vec<f32> = (0..o).map(|oi| simd::sum_lanes8(planes(oi))).collect();
    let db = Tensor::from_vec(db, &[o]);

    // dWᵀ [c*kh*kw, o]: each element is the naive `dflatᵀ · cols` chain
    // over ascending patch rows (the two factors per term merely commuted,
    // which is exact), then a tiny transpose into dW. The patch rows are
    // the images' pixels in order, so the chains walk the operands image
    // by image as one long k, reading dout in place.
    let pointwise = is_pointwise(kh, kw, spec);
    let key = ConvKey { x_shape: [n, c, h, w], kh, kw, spec };
    if !pointwise && ws.key != Some(key) {
        ensure(&mut ws.cols, rows * row_len);
        im2col_t_into(&mut ws.cols[..rows * row_len], x.data(), (n, c, h, w), kh, kw, spec);
        ws.key = Some(key);
    }
    // The patches of image `ni` are x's `ni`-th plane block (pointwise) or
    // the `ni`-th column block of the tap-major columns.
    let (a, lda, a_step) =
        if pointwise { (x.data(), ohw, c * ohw) } else { (&ws.cols[..rows * row_len], rows, ohw) };
    let segs = KSegs { count: n, len: ohw, lda, ldb: ohw, a_step, b_step: o * ohw };
    ensure(&mut ws.prod, row_len * o);
    let dwt = &mut ws.prod[..row_len * o];
    dwt.fill(0.0);
    gemm_acc_tb_segs(isa, dwt, row_len, o, a, d, segs);
    let mut dw = vec![0.0f32; o * row_len];
    for (kk, dwt_row) in dwt.chunks_exact(o).enumerate() {
        for (oi, &v) in dwt_row.iter().enumerate() {
            dw[oi * row_len + kk] = v;
        }
    }
    let dw = Tensor::from_vec(dw, &[o, c, kh, kw]);

    let mut dx = vec![0.0f32; n * c * h * w];
    if !need_dx {
        return Conv2dGrads { dx: Tensor::from_vec(dx, x.shape()), dw, db };
    }
    if pointwise {
        // dX = w_flatᵀ · dout per image, written straight into NCHW. The
        // unfolded path lands each chain on col2im's zeroed buffer as
        // `0.0 + v`, which turns a chain that ended in -0.0 into +0.0;
        // adding +0.0 reproduces exactly that and changes nothing else.
        let batch = Batch { count: n, b_step: o * ohw, c_step: c * ohw };
        gemm_batched(&mut dx, c, ohw, o, weight.data(), true, d, batch, isa);
        for v in &mut dx {
            *v += 0.0;
        }
    } else {
        // Gradient columns w_flatᵀ · dout_img straight from the NCHW
        // upstream gradient, folded by the tap-inverted col2im: image by
        // image (`[n, c*kh*kw, oh*ow]`) for wide maps, or tap-major
        // (`[c*kh*kw, n*oh*ow]`, the images side by side) for narrow ones.
        ensure(&mut ws.dcols, rows * row_len);
        let dcols = &mut ws.dcols[..rows * row_len];
        let wt = weight.data();
        let steps = if batch_is_narrow(ohw) {
            gemm_side_by_side(dcols, row_len, ohw, o, wt, true, d, (n, o * ohw), isa);
            (ohw, rows)
        } else {
            let batch = Batch { count: n, b_step: o * ohw, c_step: row_len * ohw };
            gemm_batched(dcols, row_len, ohw, o, wt, true, d, batch, isa);
            (row_len * ohw, ohw)
        };
        col2im_t_into(&mut dx, dcols, steps, (n, c, h, w), kh, kw, spec);
    }
    let dx = Tensor::from_vec(dx, x.shape());

    Conv2dGrads { dx, dw, db }
}

/// The retained pre-overhaul backward path (fresh tensors, explicit
/// transposed copy in `matmul_at_b`, im2col recomputed from scratch).
fn conv2d_backward_naive(
    x: &Tensor,
    weight: &Tensor,
    dout: &Tensor,
    spec: ConvSpec,
    (n, c, h, w): (usize, usize, usize, usize),
    (o, kh, kw): (usize, usize, usize),
    need_dx: bool,
) -> Conv2dGrads {
    let oh = spec.out_extent(h, kh);
    let ow = spec.out_extent(w, kw);
    let mut dflat = vec![0.0f32; n * oh * ow * o];
    let d = dout.data();
    for ni in 0..n {
        for oi in 0..o {
            for s in 0..oh * ow {
                dflat[(ni * oh * ow + s) * o + oi] = d[(ni * o + oi) * oh * ow + s];
            }
        }
    }
    let dflat = Tensor::from_vec(dflat, &[n * oh * ow, o]);

    let cols = im2col(x, kh, kw, spec);
    let dw = matmul_at_b(&dflat, &cols).reshape(&[o, c, kh, kw]);

    // Same per-channel sequence as the workspace path's contiguous dflatᵀ
    // rows (ascending patch row), fed through the same frozen eight-lane
    // tree — strided gather here, vector loads there, identical bits.
    let dflat_data = dflat.data();
    let rows = n * oh * ow;
    let mut db = vec![0.0f32; o];
    for (oi, acc) in db.iter_mut().enumerate() {
        *acc = simd::sum_lanes8_ref((0..rows).map(|r| dflat_data[r * o + oi]));
    }
    let db = Tensor::from_vec(db, &[o]);

    let dx = if need_dx {
        let w_flat = Tensor::from_vec(weight.data().to_vec(), &[o, c * kh * kw]);
        let dcols = matmul(&dflat, &w_flat);
        col2im(&dcols, x.shape(), kh, kw, spec)
    } else {
        Tensor::zeros(x.shape())
    };

    Conv2dGrads { dx, dw, db }
}

/// Max pooling over one `[h, w]` plane.
fn maxpool_plane(
    out: &mut [f32],
    arg: &mut [usize],
    src: &[f32],
    base: usize,
    (h, w): (usize, usize),
    spec: PoolSpec,
) {
    let conv = ConvSpec { stride: spec.stride, pad: 0 };
    let oh = conv.out_extent(h, spec.size);
    let ow = conv.out_extent(w, spec.size);
    for oy in 0..oh {
        for ox in 0..ow {
            let mut best_idx = (oy * spec.stride) * w + ox * spec.stride;
            let mut best = src[best_idx];
            for ky in 0..spec.size {
                for kx in 0..spec.size {
                    let idx = (oy * spec.stride + ky) * w + (ox * spec.stride + kx);
                    if src[idx] > best {
                        best = src[idx];
                        best_idx = idx;
                    }
                }
            }
            out[oy * ow + ox] = best;
            // The argmax table stores *global* flat indices, as before.
            arg[oy * ow + ox] = base + best_idx;
        }
    }
}

/// Max pooling forward. Returns the pooled tensor and the flat source index
/// each output element selected (for the backward scatter).
pub fn maxpool2d(x: &Tensor, spec: PoolSpec) -> (Tensor, Vec<usize>) {
    let [n, c, h, w] = dims4(x);
    let conv = ConvSpec { stride: spec.stride, pad: 0 };
    let oh = conv.out_extent(h, spec.size);
    let ow = conv.out_extent(w, spec.size);
    let src = x.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    let mut arg = vec![0usize; n * c * oh * ow];

    if par_enabled() && x.len() >= PAR_POOL_MIN_ELEMS && n * c > 1 {
        out.par_chunks_mut(oh * ow).zip(arg.par_chunks_mut(oh * ow)).enumerate().for_each(
            |(pi, (op, ap))| {
                let base = pi * h * w;
                maxpool_plane(op, ap, &src[base..base + h * w], base, (h, w), spec);
            },
        );
    } else {
        for (pi, (op, ap)) in out.chunks_mut(oh * ow).zip(arg.chunks_mut(oh * ow)).enumerate() {
            let base = pi * h * w;
            maxpool_plane(op, ap, &src[base..base + h * w], base, (h, w), spec);
        }
    }
    (Tensor::from_vec(out, &[n, c, oh, ow]), arg)
}

/// Max pooling backward: route each output gradient to its argmax source.
///
/// The argmax produced by [`maxpool2d`] never points outside its own
/// `[h, w]` plane, so the scatter partitions exactly per plane and the
/// parallel path preserves every element's serial accumulation order.
pub fn maxpool2d_backward(dout: &Tensor, arg: &[usize], input_shape: &[usize]) -> Tensor {
    assert_eq!(dout.len(), arg.len(), "argmax table length");
    let [n, c, h, w] = [input_shape[0], input_shape[1], input_shape[2], input_shape[3]];
    let plane = h * w;
    let out_plane = dout.len() / (n * c).max(1);
    let mut dx = vec![0.0f32; input_shape.iter().product()];
    if par_enabled() && dx.len() >= PAR_POOL_MIN_ELEMS && n * c > 1 {
        let d = dout.data();
        dx.par_chunks_mut(plane).enumerate().for_each(|(pi, img)| {
            let (g, a) = (
                &d[pi * out_plane..(pi + 1) * out_plane],
                &arg[pi * out_plane..(pi + 1) * out_plane],
            );
            for (&gv, &idx) in g.iter().zip(a) {
                img[idx - pi * plane] += gv;
            }
        });
    } else {
        for (&g, &idx) in dout.data().iter().zip(arg) {
            dx[idx] += g;
        }
    }
    Tensor::from_vec(dx, input_shape)
}

/// Average pooling over one `[h, w]` plane.
fn avgpool_plane(out: &mut [f32], src: &[f32], (h, w): (usize, usize), spec: PoolSpec) {
    let conv = ConvSpec { stride: spec.stride, pad: 0 };
    let oh = conv.out_extent(h, spec.size);
    let ow = conv.out_extent(w, spec.size);
    let norm = 1.0 / (spec.size * spec.size) as f32;
    for oy in 0..oh {
        for ox in 0..ow {
            let mut acc = 0.0f32;
            for ky in 0..spec.size {
                for kx in 0..spec.size {
                    acc += src[(oy * spec.stride + ky) * w + (ox * spec.stride + kx)];
                }
            }
            out[oy * ow + ox] = acc * norm;
        }
    }
}

/// Average pooling forward (used as global average pooling in ResNet50 by
/// setting the window to the full spatial extent).
pub fn avgpool2d(x: &Tensor, spec: PoolSpec) -> Tensor {
    let [n, c, h, w] = dims4(x);
    let conv = ConvSpec { stride: spec.stride, pad: 0 };
    let oh = conv.out_extent(h, spec.size);
    let ow = conv.out_extent(w, spec.size);
    let src = x.data();
    let mut out = vec![0.0f32; n * c * oh * ow];
    if par_enabled() && x.len() >= PAR_POOL_MIN_ELEMS && n * c > 1 {
        out.par_chunks_mut(oh * ow).enumerate().for_each(|(pi, op)| {
            avgpool_plane(op, &src[pi * h * w..(pi + 1) * h * w], (h, w), spec);
        });
    } else {
        for (pi, op) in out.chunks_mut(oh * ow).enumerate() {
            avgpool_plane(op, &src[pi * h * w..(pi + 1) * h * w], (h, w), spec);
        }
    }
    Tensor::from_vec(out, &[n, c, oh, ow])
}

/// Average pooling backward: spread each output gradient uniformly over its
/// window. Windows may overlap (stride < size); accumulation per plane runs
/// in the canonical (oy, ox, ky, kx) order regardless of parallelism.
pub fn avgpool2d_backward(dout: &Tensor, input_shape: &[usize], spec: PoolSpec) -> Tensor {
    let [n, c, h, w] = [input_shape[0], input_shape[1], input_shape[2], input_shape[3]];
    let [n2, c2, oh, ow] = dims4(dout);
    assert_eq!((n, c), (n2, c2), "avgpool2d_backward batch/channel mismatch");
    let norm = 1.0 / (spec.size * spec.size) as f32;
    let mut dx = vec![0.0f32; input_shape.iter().product()];
    let d = dout.data();

    let plane_job = |(pi, img): (usize, &mut [f32])| {
        for oy in 0..oh {
            for ox in 0..ow {
                let g = d[(pi * oh + oy) * ow + ox] * norm;
                for ky in 0..spec.size {
                    for kx in 0..spec.size {
                        img[(oy * spec.stride + ky) * w + (ox * spec.stride + kx)] += g;
                    }
                }
            }
        }
    };

    if par_enabled() && dx.len() >= PAR_POOL_MIN_ELEMS && n * c > 1 {
        dx.par_chunks_mut(h * w).enumerate().for_each(plane_job);
    } else {
        dx.chunks_mut(h * w).enumerate().for_each(plane_job);
    }
    Tensor::from_vec(dx, input_shape)
}

fn dims4(t: &Tensor) -> [usize; 4] {
    let s = t.shape();
    assert_eq!(s.len(), 4, "expected rank-4 tensor, got {s:?}");
    [s[0], s[1], s[2], s[3]]
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Direct (quadruple-loop) convolution as the reference implementation.
    fn conv2d_naive(x: &Tensor, weight: &Tensor, bias: &Tensor, spec: ConvSpec) -> Tensor {
        let [n, c, h, w] = dims4(x);
        let [o, _, kh, kw] = dims4(weight);
        let oh = spec.out_extent(h, kh);
        let ow = spec.out_extent(w, kw);
        let mut out = Tensor::zeros(&[n, o, oh, ow]);
        for ni in 0..n {
            for oi in 0..o {
                for oy in 0..oh {
                    for ox in 0..ow {
                        let mut acc = bias.data()[oi];
                        for ci in 0..c {
                            for ky in 0..kh {
                                for kx in 0..kw {
                                    let iy = (oy * spec.stride + ky) as isize - spec.pad as isize;
                                    let ix = (ox * spec.stride + kx) as isize - spec.pad as isize;
                                    if iy < 0 || ix < 0 || iy >= h as isize || ix >= w as isize {
                                        continue;
                                    }
                                    acc += x.at(&[ni, ci, iy as usize, ix as usize])
                                        * weight.at(&[oi, ci, ky, kx]);
                                }
                            }
                        }
                        *out.at_mut(&[ni, oi, oy, ox]) = acc;
                    }
                }
            }
        }
        out
    }

    fn seq_tensor(shape: &[usize]) -> Tensor {
        let n: usize = shape.iter().product();
        Tensor::from_vec((0..n).map(|i| ((i * 37 % 23) as f32 - 11.0) / 7.0).collect(), shape)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (i, (&x, &y)) in a.data().iter().zip(b.data()).enumerate() {
            assert!((x - y).abs() <= tol, "elem {i}: {x} vs {y}");
        }
    }

    #[test]
    fn conv_matches_naive_no_pad() {
        let x = seq_tensor(&[2, 3, 6, 6]);
        let w = seq_tensor(&[4, 3, 3, 3]);
        let b = seq_tensor(&[4]);
        let spec = ConvSpec { stride: 1, pad: 0 };
        assert_close(&conv2d(&x, &w, &b, spec), &conv2d_naive(&x, &w, &b, spec), 1e-4);
    }

    #[test]
    fn conv_matches_naive_with_pad_and_stride() {
        let x = seq_tensor(&[1, 2, 7, 7]);
        let w = seq_tensor(&[3, 2, 3, 3]);
        let b = seq_tensor(&[3]);
        for spec in [
            ConvSpec { stride: 1, pad: 1 },
            ConvSpec { stride: 2, pad: 1 },
            ConvSpec { stride: 2, pad: 0 },
            ConvSpec { stride: 3, pad: 2 },
        ] {
            assert_close(&conv2d(&x, &w, &b, spec), &conv2d_naive(&x, &w, &b, spec), 1e-4);
        }
    }

    #[test]
    fn conv_1x1_kernel() {
        let x = seq_tensor(&[1, 4, 5, 5]);
        let w = seq_tensor(&[2, 4, 1, 1]);
        let b = Tensor::zeros(&[2]);
        let spec = ConvSpec { stride: 1, pad: 0 };
        assert_close(&conv2d(&x, &w, &b, spec), &conv2d_naive(&x, &w, &b, spec), 1e-4);
    }

    #[test]
    fn conv_backward_matches_numeric_gradient() {
        let x = seq_tensor(&[1, 2, 5, 5]);
        let w = seq_tensor(&[2, 2, 3, 3]);
        let b = seq_tensor(&[2]);
        let spec = ConvSpec { stride: 1, pad: 1 };
        // Loss = sum(conv output); dout = ones.
        let out = conv2d(&x, &w, &b, spec);
        let dout = Tensor::full(out.shape(), 1.0);
        let grads = conv2d_backward(&x, &w, &dout, spec);

        let eps = 1e-2f32;
        // Check a scattering of weight gradients numerically.
        for &flat in &[0usize, 5, 17, 35] {
            let mut wp = w.clone();
            wp.data_mut()[flat] += eps;
            let mut wm = w.clone();
            wm.data_mut()[flat] -= eps;
            let num = (conv2d(&x, &wp, &b, spec).sum() - conv2d(&x, &wm, &b, spec).sum())
                / (2.0 * eps as f64);
            let ana = grads.dw.data()[flat] as f64;
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "dw[{flat}]: {num} vs {ana}");
        }
        // And input gradients.
        for &flat in &[0usize, 12, 24, 49] {
            let mut xp = x.clone();
            xp.data_mut()[flat] += eps;
            let mut xm = x.clone();
            xm.data_mut()[flat] -= eps;
            let num = (conv2d(&xp, &w, &b, spec).sum() - conv2d(&xm, &w, &b, spec).sum())
                / (2.0 * eps as f64);
            let ana = grads.dx.data()[flat] as f64;
            assert!((num - ana).abs() < 2e-2 * (1.0 + ana.abs()), "dx[{flat}]: {num} vs {ana}");
        }
        // Bias gradient of a sum-loss is the number of output positions.
        let per_channel = (out.len() / 2) as f32;
        for &g in grads.db.data() {
            assert!((g - per_channel).abs() < 1e-3);
        }
    }

    #[test]
    fn workspace_path_is_bit_identical_and_reuses_columns() {
        let x = seq_tensor(&[2, 3, 8, 8]);
        let w = seq_tensor(&[4, 3, 3, 3]);
        let b = seq_tensor(&[4]);
        let spec = ConvSpec { stride: 1, pad: 1 };
        let plain_out = conv2d(&x, &w, &b, spec);
        let dout = seq_tensor(plain_out.shape());
        let plain = conv2d_backward(&x, &w, &dout, spec);

        let mut ws = ConvWorkspace::new();
        let ws_out = conv2d_ws(&x, &w, &b, spec, &mut ws);
        assert_eq!(plain_out, ws_out);
        if crate::kernel_mode() != KernelMode::Naive {
            assert!(ws.key.is_some(), "forward must record its geometry");
            // Poison the input: backward must NOT re-read it when the key
            // matches, proving the columns are reused.
            let poisoned = Tensor::full(x.shape(), 1234.5);
            let reused = conv2d_backward_ws(&poisoned, &w, &dout, spec, &mut ws);
            assert_eq!(plain.dw, reused.dw);
            assert_eq!(plain.db, reused.db);
            assert_eq!(plain.dx, reused.dx);
        }
        // And on a cold workspace the backward recomputes columns itself.
        let mut cold = ConvWorkspace::new();
        let fresh = conv2d_backward_ws(&x, &w, &dout, spec, &mut cold);
        assert_eq!(plain.dw, fresh.dw);
        assert_eq!(plain.dx, fresh.dx);
    }

    #[test]
    fn im2col_col2im_adjointness() {
        // <im2col(x), y> == <x, col2im(y)> — the defining property of the
        // scatter/gather pair used by backward.
        let x = seq_tensor(&[1, 2, 5, 5]);
        let spec = ConvSpec { stride: 2, pad: 1 };
        let cols = im2col(&x, 3, 3, spec);
        let y = seq_tensor(cols.shape());
        let lhs: f64 = cols.data().iter().zip(y.data()).map(|(&a, &b)| (a * b) as f64).sum();
        let folded = col2im(&y, x.shape(), 3, 3, spec);
        let rhs: f64 = x.data().iter().zip(folded.data()).map(|(&a, &b)| (a * b) as f64).sum();
        assert!((lhs - rhs).abs() < 1e-3, "{lhs} vs {rhs}");
    }

    #[test]
    fn im2col_handles_pad_wider_than_kernel_step() {
        // pad 2 with a 3-wide kernel: whole rows of some patches are
        // padding; the clipped-copy path must zero them all.
        let x = seq_tensor(&[1, 1, 4, 4]);
        let spec = ConvSpec { stride: 3, pad: 2 };
        let cols = im2col(&x, 3, 3, spec);
        // First patch row: receptive field starts at (-2, -2); only source
        // (0, 0) is inside, at patch position (2, 2).
        let first = &cols.data()[..9];
        assert_eq!(&first[..8], &[0.0; 8]);
        assert_eq!(first[8], x.at(&[0, 0, 0, 0]));
    }

    #[test]
    fn maxpool_forward_and_backward() {
        let x = Tensor::from_vec(
            vec![
                1.0, 2.0, 5.0, 3.0, //
                4.0, 0.0, 1.0, 2.0, //
                7.0, 1.0, 0.0, 1.0, //
                2.0, 3.0, 4.0, 9.0,
            ],
            &[1, 1, 4, 4],
        );
        let (out, arg) = maxpool2d(&x, PoolSpec { size: 2, stride: 2 });
        assert_eq!(out.data(), &[4.0, 5.0, 7.0, 9.0]);
        let dout = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 2, 2]);
        let dx = maxpool2d_backward(&dout, &arg, x.shape());
        assert_eq!(dx.at(&[0, 0, 1, 0]), 1.0); // the 4.0
        assert_eq!(dx.at(&[0, 0, 0, 2]), 2.0); // the 5.0
        assert_eq!(dx.at(&[0, 0, 2, 0]), 3.0); // the 7.0
        assert_eq!(dx.at(&[0, 0, 3, 3]), 4.0); // the 9.0
        assert_eq!(dx.sum(), 10.0);
    }

    #[test]
    fn maxpool_argmax_is_global_across_planes() {
        // Two planes: each argmax must carry its plane's base offset.
        let x = Tensor::from_vec((0..32).map(|v| v as f32).collect(), &[1, 2, 4, 4]);
        let (_, arg) = maxpool2d(&x, PoolSpec { size: 2, stride: 2 });
        assert!(arg[..4].iter().all(|&i| i < 16));
        assert!(arg[4..].iter().all(|&i| (16..32).contains(&i)));
    }

    #[test]
    fn avgpool_global() {
        let x = seq_tensor(&[2, 3, 4, 4]);
        let out = avgpool2d(&x, PoolSpec { size: 4, stride: 4 });
        assert_eq!(out.shape(), &[2, 3, 1, 1]);
        // First channel average.
        let manual: f32 = x.data()[..16].iter().sum::<f32>() / 16.0;
        assert!((out.data()[0] - manual).abs() < 1e-5);
    }

    #[test]
    fn avgpool_backward_spreads_uniformly() {
        let spec = PoolSpec { size: 4, stride: 4 };
        let dout = Tensor::full(&[1, 1, 1, 1], 16.0);
        let dx = avgpool2d_backward(&dout, &[1, 1, 4, 4], spec);
        assert!(dx.data().iter().all(|&g| (g - 1.0).abs() < 1e-6));
        // Overlapping windows accumulate.
        let spec = PoolSpec { size: 2, stride: 1 };
        let dout = Tensor::full(&[1, 1, 3, 3], 4.0);
        let dx = avgpool2d_backward(&dout, &[1, 1, 4, 4], spec);
        // Center cells are covered by 4 windows, corners by 1.
        assert_eq!(dx.at(&[0, 0, 0, 0]), 1.0);
        assert_eq!(dx.at(&[0, 0, 1, 1]), 4.0);
    }

    #[test]
    fn out_extent_formula() {
        let s = ConvSpec { stride: 2, pad: 1 };
        assert_eq!(s.out_extent(32, 3), 16);
        let s1 = ConvSpec { stride: 1, pad: 1 };
        assert_eq!(s1.out_extent(32, 3), 32); // "same" conv
    }

    #[test]
    #[should_panic(expected = "kernel")]
    fn kernel_too_large_panics() {
        ConvSpec { stride: 1, pad: 0 }.out_extent(2, 5);
    }
}
