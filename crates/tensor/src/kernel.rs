//! The blocked, packed, register-tiled GEMM driver and its microkernels.
//!
//! # Determinism contract (lane-stable vectorized order)
//!
//! Every output element is a single fused-multiply-add chain over `k` in
//! canonical ascending order: `c ← fma(a_k, b_k, c)`, never split into
//! partial accumulators. The SIMD microkernels ([`crate::simd`]) are
//! *broadcast-style* — a scalar of A against a vector of B columns — so
//! each output element owns one SIMD lane for its whole chain and the
//! chain never crosses lanes; lane-wise `vfmadd` is IEEE-754-identical to
//! scalar `f32::mul_add`, which is what the scalar kernels in this file
//! use. Hence AVX-512, AVX2, and scalar lane emulation produce the same
//! bits by construction. Blocking only changes *which* elements are in
//! flight together, never the order of any element's own chain:
//!
//! * m/n tiling assigns each element to exactly one microkernel tile;
//! * k blocking (`KC`) pauses a chain by storing the running sum to `C` and
//!   resumes it by reloading — an exact f32 round-trip;
//! * parallelism distributes whole row-blocks; no two tasks touch the same
//!   output element, and no reduction ever crosses a task boundary.
//!
//! Consequently the result is bit-identical for any thread count, any host
//! ISA, and across the `simd`/`tiled`/`naive` kernel modes — enforced by
//! property tests (`tests/determinism.rs`, `tests/proptests.rs`).
//!
//! Problems at or below [`SMALL_GEMM_MAX_FLOPS`] skip packing entirely and
//! run a direct block kernel ([`gemm_small`]) — same per-element chain, so
//! the same bits — because at that size the packing passes dominate.

use crate::dispatch::{par_enabled, PAR_GEMM_MIN_FLOPS, SMALL_GEMM_MAX_FLOPS};
use crate::pack::{pack_a, pack_b, packed_a_len, packed_b_len, KC, MC, MR, NC, NR};
use crate::simd::{self, narrow_tb_avx2, Isa};
use crate::workspace;
use rayon::prelude::*;

/// Full-tile scalar microkernel: resume the MR×NR running sums from `c`,
/// add `kc` fma chain links from the packed panels, store the sums back.
/// This is the lane-emulating reference for the vector tiles in
/// [`crate::simd`] — same loads, same per-element `mul_add` order.
///
/// # Safety
/// `a` must hold `kc*MR` floats, `b` `kc*NR` floats, and `c` must address a
/// full MR×NR tile with row stride `ldc`.
unsafe fn kern_full(a: *const f32, b: *const f32, kc: usize, c: *mut f32, ldc: usize) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, acc_row) in acc.iter_mut().enumerate() {
        acc_row.copy_from_slice(std::slice::from_raw_parts(c.add(i * ldc), NR));
    }
    let mut ap = a;
    let mut bp = b;
    // One k-step: acc[i][j] = fma(a[i], b[j], acc[i][j]). The macro keeps
    // the 4× unroll below as straight-line repetitions of the same
    // accumulator chain (no partial sums).
    macro_rules! step {
        () => {{
            let bv: &[f32; NR] = &*(bp as *const [f32; NR]);
            for (i, acc_row) in acc.iter_mut().enumerate() {
                let av = *ap.add(i);
                for (acc_v, &b_v) in acc_row.iter_mut().zip(bv) {
                    *acc_v = av.mul_add(b_v, *acc_v);
                }
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }};
    }
    let mut rem = kc;
    while rem >= 4 {
        step!();
        step!();
        step!();
        step!();
        rem -= 4;
    }
    while rem > 0 {
        step!();
        rem -= 1;
    }
    for (i, acc_row) in acc.iter().enumerate() {
        std::slice::from_raw_parts_mut(c.add(i * ldc), NR).copy_from_slice(acc_row);
    }
}

/// Edge-tile scalar microkernel: same chain as [`kern_full`] but only the
/// valid `mr_eff×nr_eff` region of `c` is loaded and stored. Padded panel
/// lanes contribute exact zeros and are discarded.
///
/// # Safety
/// `a` must hold `kc*MR` floats, `b` `kc*NR` floats, and `c` must address an
/// `mr_eff×nr_eff` tile with row stride `ldc`.
unsafe fn kern_edge(
    a: *const f32,
    b: *const f32,
    kc: usize,
    c: *mut f32,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[0.0f32; NR]; MR];
    for (i, acc_row) in acc.iter_mut().enumerate().take(mr_eff) {
        for (j, acc_v) in acc_row.iter_mut().enumerate().take(nr_eff) {
            *acc_v = *c.add(i * ldc + j);
        }
    }
    let mut ap = a;
    let mut bp = b;
    for _ in 0..kc {
        let bv: &[f32; NR] = &*(bp as *const [f32; NR]);
        // Only the valid rows — lanes beyond nr_eff still compute (they
        // hold exact zeros from packing and are never stored), but rows
        // beyond mr_eff would be pure waste.
        for (i, acc_row) in acc.iter_mut().enumerate().take(mr_eff) {
            let av = *ap.add(i);
            for (acc_v, &b_v) in acc_row.iter_mut().zip(bv) {
                *acc_v = av.mul_add(b_v, *acc_v);
            }
        }
        ap = ap.add(MR);
        bp = bp.add(NR);
    }
    for (i, acc_row) in acc.iter().enumerate().take(mr_eff) {
        for (j, acc_v) in acc_row.iter().enumerate().take(nr_eff) {
            *c.add(i * ldc + j) = *acc_v;
        }
    }
}

/// Narrow-tile scalar microkernel for `nr_eff` well below [`NR`] (e.g. the
/// first conv layer's 2-channel output, or a classifier head): accumulators
/// are laid out column-major so auto-vectorized lanes run down the [`MR`]
/// *rows* instead of across mostly-padding columns. Per element the chain
/// is the same ascending-k `fma` as every other kernel — the lane-stable
/// contract doesn't care which loop carries it.
///
/// # Safety
/// Same contract as [`kern_edge`].
unsafe fn kern_narrow(
    a: *const f32,
    b: *const f32,
    kc: usize,
    c: *mut f32,
    ldc: usize,
    mr_eff: usize,
    nr_eff: usize,
) {
    let mut acc = [[0.0f32; MR]; NR];
    for (j, acc_col) in acc.iter_mut().enumerate().take(nr_eff) {
        for (i, acc_v) in acc_col.iter_mut().enumerate().take(mr_eff) {
            *acc_v = *c.add(i * ldc + j);
        }
    }
    let mut ap = a;
    let mut bp = b;
    for _ in 0..kc {
        let av: &[f32; MR] = &*(ap as *const [f32; MR]);
        for (j, acc_col) in acc.iter_mut().enumerate().take(nr_eff) {
            let bv = *bp.add(j);
            for (acc_v, &a_v) in acc_col.iter_mut().zip(av) {
                *acc_v = a_v.mul_add(bv, *acc_v);
            }
        }
        ap = ap.add(MR);
        bp = bp.add(NR);
    }
    for (j, acc_col) in acc.iter().enumerate().take(nr_eff) {
        for (i, acc_v) in acc_col.iter().enumerate().take(mr_eff) {
            *c.add(i * ldc + j) = *acc_v;
        }
    }
}

/// Strip width of the scalar no-pack small-problem kernel.
const JB: usize = 16;

/// Scalar direct GEMM for small problems: no packing, no k blocking — each
/// output strip's running sums live in registers for the whole (short) k
/// loop, starting from `out`'s current values (`C += A·B`). The per-element
/// chain is the same ascending-k `fma` as the packed path, so the bits
/// match.
///
/// `b` must already be in `[k, n]` row-major layout (see [`gemm_small`]).
fn gemm_small_rows(out: &mut [f32], m: usize, n: usize, k: usize, a: &[f32], ta: bool, b: &[f32]) {
    // Tiny-k fast path (e.g. gradient columns over a handful of output
    // channels): accumulate whole B rows into the output row, one pass per
    // k. Each chain resumes from C (zero for a fresh product), and an f32
    // accumulator in memory rounds identically to one in a register, so
    // each element still runs its canonical ascending-k chain.
    if k <= NARROW_MAX {
        for i in 0..m {
            let out_row = &mut out[i * n..(i + 1) * n];
            for kk in 0..k {
                let aik = if ta { a[kk * m + i] } else { a[i * k + kk] };
                simd::axpy(Isa::Scalar, out_row, aik, &b[kk * n..(kk + 1) * n]);
            }
        }
        return;
    }
    for i in 0..m {
        let out_row = &mut out[i * n..(i + 1) * n];
        let mut j0 = 0;
        while j0 < n {
            let jb = (n - j0).min(JB);
            // Resume the strip's chains from C (zero for a fresh product).
            let mut acc = [0.0f32; JB];
            acc[..jb].copy_from_slice(&out_row[j0..j0 + jb]);
            // One k loop body per (full-strip?, transposed-A?) combination so
            // the A access pattern and the strip width are both loop-invariant.
            macro_rules! kloop {
                ($aiter:expr) => {
                    if jb == JB {
                        for (aik, brow) in $aiter.zip(b.chunks_exact(n)) {
                            let bv: &[f32; JB] = brow[j0..j0 + JB].try_into().unwrap();
                            for (acc_v, &b_v) in acc.iter_mut().zip(bv) {
                                *acc_v = aik.mul_add(b_v, *acc_v);
                            }
                        }
                    } else {
                        for (aik, brow) in $aiter.zip(b.chunks_exact(n)) {
                            for (acc_v, &b_v) in acc[..jb].iter_mut().zip(&brow[j0..j0 + jb]) {
                                *acc_v = aik.mul_add(b_v, *acc_v);
                            }
                        }
                    }
                };
            }
            if ta {
                kloop!(a[i..].iter().step_by(m).copied());
            } else {
                kloop!(a[i * k..(i + 1) * k].iter().copied());
            }
            out_row[j0..j0 + jb].copy_from_slice(&acc[..jb]);
            j0 += JB;
        }
    }
}

/// Vectorized direct GEMM for small problems: up-to-4-row × vector-width
/// column blocks over the unpacked operands (transposed A is handled with
/// strides, so only a transposed B ever gets materialized). Each element's
/// chain is the same ascending-k fma as everywhere else.
#[allow(clippy::too_many_arguments)]
fn gemm_small_vec(
    isa: Isa,
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
) {
    debug_assert!(isa != Isa::Scalar);
    let cw = match isa {
        Isa::Avx512 => 32,
        _ => 16,
    };
    let (a_rs, a_cs) = if ta { (1, m) } else { (k, 1) };
    let mut i0 = 0;
    while i0 < m {
        let rows = (m - i0).min(4);
        let a_blk = if ta { &a[i0..] } else { &a[i0 * k..] };
        let mut j0 = 0;
        while j0 < n {
            let ncols = (n - j0).min(cw);
            // SAFETY: the block spans rows i0..i0+rows (≤ m) and columns
            // j0..j0+ncols (≤ n) of `out`; A strides address `a_blk[r*a_rs
            // + kk*a_cs]` for r < rows, kk < k, in-bounds for both layouts;
            // `isa` came from runtime feature detection.
            unsafe {
                let o = out.as_mut_ptr().add(i0 * n + j0);
                let bp = b.as_ptr().add(j0);
                match isa {
                    Isa::Avx512 => simd::small_block_avx512(
                        o,
                        n,
                        a_blk.as_ptr(),
                        a_rs,
                        a_cs,
                        bp,
                        n,
                        rows,
                        ncols,
                        k,
                    ),
                    _ => simd::small_block_avx2(
                        o,
                        n,
                        a_blk.as_ptr(),
                        a_rs,
                        a_cs,
                        bp,
                        n,
                        rows,
                        ncols,
                        k,
                    ),
                }
            }
            j0 += cw;
        }
        i0 += 4;
    }
}

/// Widest output the scalar no-pack narrow kernel handles.
const NARROW_MAX: usize = 8;

/// Row-blocked scalar no-pack kernel for very narrow outputs
/// (`n <= NARROW_MAX`, e.g. a weight gradient over a handful of output
/// channels): each block of `IB` A-rows shares the `n`-wide B row loaded
/// per k-step, giving `IB*n` independent accumulation chains of
/// instruction-level parallelism. Monomorphized over `N` so the inner
/// loops fully unroll. Per element the chain is the canonical ascending-k
/// `fma`, resumed from `out` (`C += A·B`).
fn narrow_rows<const N: usize>(out: &mut [f32], m: usize, k: usize, a: &[f32], b: &[f32]) {
    const IB: usize = 4;
    debug_assert_eq!(b.len(), k * N);
    let mut i0 = 0;
    while i0 + IB <= m {
        let mut acc = [[0.0f32; N]; IB];
        for (r, acc_row) in acc.iter_mut().enumerate() {
            acc_row.copy_from_slice(&out[(i0 + r) * N..(i0 + r + 1) * N]);
        }
        let r0 = a[i0 * k..(i0 + 1) * k].iter();
        let r1 = a[(i0 + 1) * k..(i0 + 2) * k].iter();
        let r2 = a[(i0 + 2) * k..(i0 + 3) * k].iter();
        let r3 = a[(i0 + 3) * k..(i0 + 4) * k].iter();
        for ((((brow, &a0), &a1), &a2), &a3) in b.chunks_exact(N).zip(r0).zip(r1).zip(r2).zip(r3) {
            let brow: &[f32; N] = brow.try_into().unwrap();
            for (j, &b_v) in brow.iter().enumerate() {
                acc[0][j] = a0.mul_add(b_v, acc[0][j]);
                acc[1][j] = a1.mul_add(b_v, acc[1][j]);
                acc[2][j] = a2.mul_add(b_v, acc[2][j]);
                acc[3][j] = a3.mul_add(b_v, acc[3][j]);
            }
        }
        for (r, acc_row) in acc.iter().enumerate() {
            out[(i0 + r) * N..(i0 + r + 1) * N].copy_from_slice(acc_row);
        }
        i0 += IB;
    }
    for i in i0..m {
        let mut acc: [f32; N] = out[i * N..(i + 1) * N].try_into().unwrap();
        for (brow, &av) in b.chunks_exact(N).zip(a[i * k..(i + 1) * k].iter()) {
            let brow: &[f32; N] = brow.try_into().unwrap();
            for (acc_v, &b_v) in acc.iter_mut().zip(brow) {
                *acc_v = av.mul_add(b_v, *acc_v);
            }
        }
        out[i * N..(i + 1) * N].copy_from_slice(&acc);
    }
}

/// Small-problem entry: a transposed B would make the k loop stride across
/// rows, so materialize it in `[k, n]` layout into the shared workspace
/// first — `k*n` is tiny for every problem routed here.
#[allow(clippy::too_many_arguments)]
fn gemm_small(
    isa: Isa,
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
) {
    if isa != Isa::Scalar {
        if tb {
            workspace::with_gemm_ws(0, k * n, |_, bt| {
                // Blocked transpose: a TB-row block of B spans few enough
                // cache lines to stay resident while every k reads it.
                const TB: usize = 64;
                let mut j0 = 0;
                while j0 < n {
                    let jl = (n - j0).min(TB);
                    for kk in 0..k {
                        for j in j0..j0 + jl {
                            bt[kk * n + j] = b[j * k + kk];
                        }
                    }
                    j0 += TB;
                }
                gemm_small_vec(isa, out, m, n, k, a, ta, bt);
            });
        } else {
            gemm_small_vec(isa, out, m, n, k, a, ta, b);
        }
        return;
    }
    if n <= NARROW_MAX && !ta {
        let dispatch = |out: &mut [f32], b: &[f32]| match n {
            1 => narrow_rows::<1>(out, m, k, a, b),
            2 => narrow_rows::<2>(out, m, k, a, b),
            3 => narrow_rows::<3>(out, m, k, a, b),
            4 => narrow_rows::<4>(out, m, k, a, b),
            5 => narrow_rows::<5>(out, m, k, a, b),
            6 => narrow_rows::<6>(out, m, k, a, b),
            7 => narrow_rows::<7>(out, m, k, a, b),
            _ => narrow_rows::<8>(out, m, k, a, b),
        };
        if tb {
            workspace::with_gemm_ws(0, k * n, |_, bt| {
                for (j, bcol) in b.chunks_exact(k).enumerate() {
                    for (kk, &v) in bcol.iter().enumerate() {
                        bt[kk * n + j] = v;
                    }
                }
                dispatch(out, bt);
            });
        } else {
            dispatch(out, b);
        }
        return;
    }
    if tb {
        workspace::with_gemm_ws(0, k * n, |_, bt| {
            // Blocked transpose: a TB-row block of B spans few enough cache
            // lines to stay resident while every k reads through it.
            const TB: usize = 64;
            let mut j0 = 0;
            while j0 < n {
                let jl = (n - j0).min(TB);
                for kk in 0..k {
                    for j in j0..j0 + jl {
                        bt[kk * n + j] = b[j * k + kk];
                    }
                }
                j0 += TB;
            }
            gemm_small_rows(out, m, n, k, a, ta, bt);
        });
    } else {
        gemm_small_rows(out, m, n, k, a, ta, b);
    }
}

/// Compute one row-block (`rows = chunk.len() / n` rows starting at global
/// row `ic0`, which must be MR-aligned) of `C += A·B` from the packed
/// operands, walking jc→pc→jr→ir so every element's chain advances in
/// ascending-k order. `isa` picks the microkernel family; all families
/// walk the same panels and extend the same chains.
fn row_block(
    chunk: &mut [f32],
    ic0: usize,
    n: usize,
    k: usize,
    a_pack: &[f32],
    b_pack: &[f32],
    isa: Isa,
) {
    debug_assert_eq!(ic0 % MR, 0);
    let rows = chunk.len() / n;
    let c_ptr = chunk.as_mut_ptr();
    let mut jc = 0;
    while jc < n {
        let nc = (n - jc).min(NC);
        let mut pc = 0;
        while pc < k {
            let kc = (k - pc).min(KC);
            let mut jr = jc;
            while jr < jc + nc {
                let nr_eff = (n - jr).min(NR);
                let q = jr / NR;
                let b_panel = &b_pack[q * k * NR + pc * NR..];
                let mut ir = 0;
                while ir < rows {
                    let mr_eff = (rows - ir).min(MR);
                    let p = (ic0 + ir) / MR;
                    let a_panel = &a_pack[p * k * MR + pc * MR..];
                    // SAFETY: the packed panels hold at least kc full-width
                    // k-steps past these offsets, and the tile written is
                    // `mr_eff×nr_eff` starting at local row `ir`, column
                    // `jr` — inside this task's chunk by construction. The
                    // vector kernels additionally require the runtime
                    // features `isa` attests (checked in `active_isa`) and
                    // 64-byte-aligned B panels (packs live in `AVec`s; the
                    // panel offset is a multiple of NR floats = 128 bytes).
                    unsafe {
                        let c = c_ptr.add(ir * n + jr);
                        let ap = a_panel.as_ptr();
                        let bp = b_panel.as_ptr();
                        let full = mr_eff == MR && nr_eff == NR;
                        match isa {
                            Isa::Avx512 => {
                                if full {
                                    simd::tile_avx512(ap, bp, kc, c, n);
                                } else {
                                    simd::tile_avx512_edge(ap, bp, kc, c, n, mr_eff, nr_eff);
                                }
                            }
                            Isa::Avx2 => {
                                if full {
                                    simd::tile_avx2(ap, bp, kc, c, n);
                                } else {
                                    simd::tile_avx2_edge(ap, bp, kc, c, n, mr_eff, nr_eff);
                                }
                            }
                            Isa::Scalar => {
                                if full {
                                    kern_full(ap, bp, kc, c, n);
                                } else if nr_eff <= NR / 2 && mr_eff > nr_eff {
                                    kern_narrow(ap, bp, kc, c, n, mr_eff, nr_eff);
                                } else {
                                    kern_edge(ap, bp, kc, c, n, mr_eff, nr_eff);
                                }
                            }
                        }
                    }
                    ir += MR;
                }
                jr += NR;
            }
            pc += KC;
        }
        jc += NC;
    }
}

/// Tiled GEMM entry point: `out = op(A)·op(B)` with `out: [m, n]`,
/// `op(A): [m, k]`, `op(B): [k, n]`; `ta`/`tb` mean the buffer stores the
/// operand transposed (folded into packing — nothing is materialized).
/// `isa` selects the microkernel family (see `dispatch::mode_isa`); every
/// family produces identical bits.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_tiled(
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    isa: Isa,
) {
    out.fill(0.0);
    gemm_acc(out, m, n, k, a, ta, b, tb, isa);
}

/// Accumulating GEMM entry point: `out += op(A)·op(B)`, same operand
/// conventions as [`gemm_tiled`]. Every kernel resumes each element's chain
/// from the value already in `out` — the same exact f32 round-trip that
/// `KC` blocking relies on — so `gemm_acc` over k-blocks `k0, k1, …` in
/// ascending order yields the bits of one [`gemm_tiled`] over the whole k
/// range. [`gemm_tiled`] is this entry on a zeroed `out`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_acc(
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    tb: bool,
    isa: Isa,
) {
    debug_assert_eq!(out.len(), m * n);
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    if m == 0 || n == 0 || k == 0 {
        return;
    }
    let flops = m * n * k;
    let go_par = par_enabled() && flops >= PAR_GEMM_MIN_FLOPS && m > MC;
    // Long-k products with a handful of output columns and both operands
    // k-contiguous (the conv weight gradients) vectorize along m instead:
    // no packing, no padding of n up to NR.
    if tb && !ta && n <= NARROW_TB_MAX_N && k >= NARROW_TB_MIN_K {
        let segs = KSegs { count: 1, len: k, lda: k, ldb: k, a_step: 0, b_step: 0 };
        return gemm_narrow_tb(isa, out, m, n, a, b, segs, go_par);
    }
    // The scalar strip kernel vectorizes across columns, so it needs a full
    // strip; narrow outputs go to the ILP row-block kernel instead (which
    // reads A rows directly, so it needs them contiguous — no `ta`). The
    // vector small kernels handle every layout via strides, but the route
    // predicate is shared so mode choice can never change which problems
    // are "small" (bits match either way; this keeps perf behavior legible).
    if flops <= SMALL_GEMM_MAX_FLOPS && (n >= JB || (n <= NARROW_MAX && !ta)) && !go_par {
        return gemm_small(isa, out, m, n, k, a, ta, b, tb);
    }
    workspace::with_gemm_ws(packed_a_len(m, k), packed_b_len(k, n), |a_pack, b_pack| {
        pack_a(a_pack, a, m, k, ta);
        pack_b(b_pack, b, k, n, tb);
        let a_pack: &[f32] = a_pack;
        let b_pack: &[f32] = b_pack;
        if go_par {
            out.par_chunks_mut(MC * n)
                .enumerate()
                .for_each(|(bi, chunk)| row_block(chunk, bi * MC, n, k, a_pack, b_pack, isa));
        } else {
            for (bi, chunk) in out.chunks_mut(MC * n).enumerate() {
                row_block(chunk, bi * MC, n, k, a_pack, b_pack, isa);
            }
        }
    });
}

/// Per-image operand offsets of a batched product ([`gemm_batched`]):
/// image `i`'s B starts at `i * b_step`, its C at `i * c_step`.
#[derive(Clone, Copy, Debug)]
pub(crate) struct Batch {
    pub(crate) count: usize,
    pub(crate) b_step: usize,
    pub(crate) c_step: usize,
}

/// Narrowest per-image output run by one product per image in
/// [`gemm_batched`]; narrower images are laid side by side first.
const BATCH_DIRECT_MIN_N: usize = 32;

/// Whether images `n` wide are too narrow to fill the vector lanes on
/// their own, so a batched product lays them side by side.
pub(crate) fn batch_is_narrow(n: usize) -> bool {
    n < BATCH_DIRECT_MIN_N
}

/// Batched GEMM: `C_i = op(A) · B_i` for every image `i`, with
/// `B_i: [k, n]` and `C_i: [m, n]` row-major at the offsets of `batch` —
/// e.g. one NCHW image's `[channels, h*w]` planes each. Wide images run as
/// one product each, in place. Narrow ones ([`batch_is_narrow`]: a 4×4 or
/// 2×2 feature map would fill a fraction of a vector) run as one
/// side-by-side product ([`gemm_side_by_side`]) in a shared staging buffer
/// and are scattered back. Either way each element is the same ascending-k
/// chain from zero, so the bits do not depend on the route.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_batched(
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    batch: Batch,
    isa: Isa,
) {
    let Batch { count, b_step, c_step } = batch;
    let c_img = |i: usize| i * c_step..i * c_step + m * n;
    if !batch_is_narrow(n) || count <= 1 {
        for i in 0..count {
            let bi = &b[i * b_step..i * b_step + k * n];
            gemm_tiled(&mut out[c_img(i)], m, n, k, a, ta, bi, false, isa);
        }
        return;
    }
    let wide = count * n;
    workspace::with_stage_ws(k * wide, m * wide, |bs, cs| {
        side_by_side(cs, bs, m, n, k, a, ta, b, (count, b_step), isa);
        for i in 0..count {
            for (src, dst) in cs.chunks_exact(wide).zip(out[c_img(i)].chunks_exact_mut(n)) {
                dst.copy_from_slice(&src[i * n..(i + 1) * n]);
            }
        }
    });
}

/// Side-by-side batched GEMM: `out[m, count*n] = op(A) · [B_0 | B_1 | …]`,
/// image `i`'s `B_i: [k, n]` starting at `i * b_step` — the images'
/// products as adjacent column blocks of one wide product, which is what a
/// tap-major conv layout wants. The B blocks are laid side by side in a
/// shared staging buffer first (one image needs no copy).
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_side_by_side(
    out: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    (count, b_step): (usize, usize),
    isa: Isa,
) {
    if count <= 1 {
        return gemm_tiled(out, m, n * count, k, a, ta, &b[..k * n * count], false, isa);
    }
    workspace::with_stage_ws(k * n * count, 0, |bs, _| {
        side_by_side(out, bs, m, n, k, a, ta, b, (count, b_step), isa)
    });
}

/// [`gemm_side_by_side`] with the B staging buffer supplied.
#[allow(clippy::too_many_arguments)]
fn side_by_side(
    out: &mut [f32],
    bs: &mut [f32],
    m: usize,
    n: usize,
    k: usize,
    a: &[f32],
    ta: bool,
    b: &[f32],
    (count, b_step): (usize, usize),
    isa: Isa,
) {
    let wide = count * n;
    for i in 0..count {
        let bi = &b[i * b_step..i * b_step + k * n];
        for (dst, src) in bs.chunks_exact_mut(wide).zip(bi.chunks_exact(n)) {
            dst[i * n..(i + 1) * n].copy_from_slice(src);
        }
    }
    gemm_tiled(out, m, wide, k, a, ta, bs, false, isa);
}

/// Widest output the narrow transposed-B kernel handles (one register
/// accumulator per output column).
const NARROW_TB_MAX_N: usize = 16;

/// Shortest k routed to the narrow transposed-B kernel as a plain product:
/// below this the 8×8 transposes it amortizes over k no longer pay for
/// themselves.
const NARROW_TB_MIN_K: usize = 64;

/// The k extent of a transposed-B product as `count` segments of `len`
/// steps. In segment `s`, `A[i, kk]` lives at `a[s*a_step + i*lda + kk]`
/// and `B[kk, j]` at `b[s*b_step + j*ldb + kk]`. One segment with
/// `lda = ldb = len` is a plain `[m, k] · [n, k]ᵀ` product; several walk a
/// batch of images (an NCHW tensor's per-image planes) as one long k.
#[derive(Clone, Copy, Debug)]
pub(crate) struct KSegs {
    pub(crate) count: usize,
    pub(crate) len: usize,
    pub(crate) lda: usize,
    pub(crate) ldb: usize,
    pub(crate) a_step: usize,
    pub(crate) b_step: usize,
}

impl KSegs {
    /// Total k extent.
    fn k(&self) -> usize {
        self.count * self.len
    }

    /// Whether rows of stride `ld`, segments `step` apart, already form one
    /// row-major `[rows, k]` matrix.
    fn is_plain(&self, ld: usize, step: usize) -> bool {
        ld == self.k() && (self.count == 1 || step == self.len)
    }
}

/// Copy `rows` segmented rows (see [`KSegs`]) into row-major `[rows, k]`.
fn gather_segments(dst: &mut [f32], src: &[f32], rows: usize, s: KSegs, ld: usize, step: usize) {
    for (i, row) in dst.chunks_exact_mut(s.k()).take(rows).enumerate() {
        for (g, seg) in row.chunks_exact_mut(s.len).enumerate() {
            seg.copy_from_slice(&src[g * step + i * ld..][..s.len]);
        }
    }
}

/// Row count up to which [`gemm_acc_tb_segs`] keeps outputs of any width
/// on the narrow kernel, one column group after another: with few rows,
/// laying B out for the packed or no-pack kernels costs more per
/// multiply-add than re-transposing A once per group.
const NARROW_TB_GROUPS_MAX_M: usize = 64;

/// Segmented transposed-B GEMM: `out[m, n] += A · Bᵀ` with k laid out as
/// [`KSegs`] — a conv weight gradient walking the batch image by image.
/// Narrow outputs (`n <=` [`NARROW_TB_MAX_N`]) and short ones (`m <=`
/// [`NARROW_TB_GROUPS_MAX_M`]) run on [`gemm_narrow_tb`] straight from the
/// segments; the rest gather each operand that is not already one plain
/// matrix into the shared staging buffers and run one [`gemm_acc`]. Either
/// way each element is the same ascending-k chain resumed from `out`.
pub(crate) fn gemm_acc_tb_segs(
    isa: Isa,
    out: &mut [f32],
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    segs: KSegs,
) {
    let k = segs.k();
    if n <= NARROW_TB_MAX_N || m <= NARROW_TB_GROUPS_MAX_M {
        let go_par = par_enabled() && m * n * k >= PAR_GEMM_MIN_FLOPS && m > MC;
        return gemm_narrow_tb(isa, out, m, n, a, b, segs, go_par);
    }
    let a_plain = segs.is_plain(segs.lda, segs.a_step);
    let b_plain = segs.is_plain(segs.ldb, segs.b_step);
    let a_need = if a_plain { 0 } else { m * k };
    let b_need = if b_plain { 0 } else { n * k };
    workspace::with_stage_ws(a_need, b_need, |a_buf, b_buf| {
        if !a_plain {
            gather_segments(a_buf, a, m, segs, segs.lda, segs.a_step);
        }
        if !b_plain {
            gather_segments(b_buf, b, n, segs, segs.ldb, segs.b_step);
        }
        let a_mat = if a_plain { &a[..m * k] } else { &a_buf[..] };
        let b_mat = if b_plain { &b[..n * k] } else { &b_buf[..] };
        gemm_acc(out, m, n, k, a_mat, false, b_mat, true, isa);
    });
}

/// Narrow transposed-B GEMM: `out[m, n] += A · Bᵀ` with both operands
/// k-contiguous and k laid out as [`KSegs`]. Rows are taken eight at a
/// time and columns [`NARROW_TB_MAX_N`] at a time; each output column
/// keeps one eight-row accumulator for the whole k sweep, every segment in
/// ascending order, so each element is still one ascending-k fma chain
/// resumed from `out` — the vector kernel ([`simd::narrow_tb_avx2`]) and
/// its scalar twin ([`narrow_tb_scalar`]) agree bit for bit. Packing B
/// instead would pad `n` up to [`NR`] lanes, wasting most of every vector
/// when a conv layer has only a handful of output channels.
#[allow(clippy::too_many_arguments)]
pub(crate) fn gemm_narrow_tb(
    isa: Isa,
    out: &mut [f32],
    m: usize,
    n: usize,
    a: &[f32],
    b: &[f32],
    segs: KSegs,
    go_par: bool,
) {
    debug_assert_eq!(out.len(), m * n);
    if m == 0 || n == 0 || segs.count == 0 || segs.len == 0 {
        return;
    }
    // Every read of the last segment must land inside the operands.
    let last = segs.count - 1;
    assert!(a.len() >= last * segs.a_step + (m - 1) * segs.lda + segs.len, "narrow A extent");
    assert!(b.len() >= last * segs.b_step + (n - 1) * segs.ldb + segs.len, "narrow B extent");
    let block = |(bi, chunk): (usize, &mut [f32])| {
        for (ri, tile) in chunk.chunks_mut(8 * n).enumerate() {
            let a0 = &a[(bi * MC + ri * 8) * segs.lda..];
            let rows = tile.len() / n;
            for j0 in (0..n).step_by(NARROW_TB_MAX_N) {
                let width = (n - j0).min(NARROW_TB_MAX_N);
                let b0 = &b[j0 * segs.ldb..];
                let c0 = &mut tile[j0..];
                match isa {
                    // SAFETY: `c0` starts `rows <= 8` rows of row stride `n`
                    // with `width` columns each; the extent asserts above
                    // keep every A read (row < rows, step < len, segment <
                    // count) and B read (column < width) in bounds; the
                    // vector ISAs come from runtime feature detection and
                    // both imply AVX2+FMA.
                    Isa::Avx512 | Isa::Avx2 => unsafe {
                        let (c, ap, bp) = (c0.as_mut_ptr(), a0.as_ptr(), b0.as_ptr());
                        narrow_tb_by_width!(width, narrow_tb_avx2, c, n, rows, ap, bp, segs)
                    },
                    Isa::Scalar => {
                        narrow_tb_by_width!(width, narrow_tb_scalar, c0, n, rows, a0, b0, segs)
                    }
                }
            }
        }
    };
    if go_par {
        out.par_chunks_mut(MC * n).enumerate().for_each(block);
    } else {
        out.chunks_mut(MC * n).enumerate().for_each(block);
    }
}

/// Call `$call::<W>(args)` for the runtime width `W` in `1..=16`.
macro_rules! narrow_tb_by_width {
    ($n:expr, $call:ident, $($arg:expr),*) => {
        match $n {
            1 => $call::<1>($($arg),*),
            2 => $call::<2>($($arg),*),
            3 => $call::<3>($($arg),*),
            4 => $call::<4>($($arg),*),
            5 => $call::<5>($($arg),*),
            6 => $call::<6>($($arg),*),
            7 => $call::<7>($($arg),*),
            8 => $call::<8>($($arg),*),
            9 => $call::<9>($($arg),*),
            10 => $call::<10>($($arg),*),
            11 => $call::<11>($($arg),*),
            12 => $call::<12>($($arg),*),
            13 => $call::<13>($($arg),*),
            14 => $call::<14>($($arg),*),
            15 => $call::<15>($($arg),*),
            _ => $call::<16>($($arg),*),
        }
    };
}
use narrow_tb_by_width;

/// Scalar twin of [`simd::narrow_tb_avx2`]: one `[f32; 8]` accumulator per
/// output column, eight row lanes each, the same ascending-k `mul_add`
/// chain per element (lanes past `rows` compute on zeros and are dropped).
/// `c` holds `rows` rows of row stride `ldc`, of which the first `N`
/// columns are updated.
fn narrow_tb_scalar<const N: usize>(
    c: &mut [f32],
    ldc: usize,
    rows: usize,
    a: &[f32],
    b: &[f32],
    s: KSegs,
) {
    let mut acc = [[0.0f32; 8]; N];
    for i in 0..rows {
        for (acc_col, &v) in acc.iter_mut().zip(&c[i * ldc..i * ldc + N]) {
            acc_col[i] = v;
        }
    }
    for seg in 0..s.count {
        let a_seg = &a[seg * s.a_step..];
        let b_seg = &b[seg * s.b_step..];
        for kk in 0..s.len {
            let mut col = [0.0f32; 8];
            for (i, v) in col.iter_mut().enumerate().take(rows) {
                *v = a_seg[i * s.lda + kk];
            }
            for (j, acc_col) in acc.iter_mut().enumerate() {
                let bv = b_seg[j * s.ldb + kk];
                for (acc_v, &a_v) in acc_col.iter_mut().zip(&col) {
                    *acc_v = a_v.mul_add(bv, *acc_v);
                }
            }
        }
    }
    for i in 0..rows {
        for (v, acc_col) in c[i * ldc..i * ldc + N].iter_mut().zip(&acc) {
            *v = acc_col[i];
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simd::active_isa;

    fn seq(len: usize, salt: usize) -> Vec<f32> {
        (0..len).map(|i| (((i * 31 + salt * 17) % 23) as f32 - 11.0) / 7.0).collect()
    }

    /// The contract restated as the simplest possible loop: one ascending-k
    /// `mul_add` chain per element.
    fn reference(a: &[f32], b: &[f32], m: usize, n: usize, k: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; m * n];
        for i in 0..m {
            for kk in 0..k {
                let av = a[i * k + kk];
                for j in 0..n {
                    out[i * n + j] = av.mul_add(b[kk * n + j], out[i * n + j]);
                }
            }
        }
        out
    }

    const AWKWARD: &[(usize, usize, usize)] = &[
        (1usize, 1usize, 1usize),
        (MR, NR, 4),
        (MR + 1, NR + 1, KC + 1),
        (MC + 3, NR * 2 + 5, KC - 1),
        (2 * MC, 2 * NR, 2 * KC),
        (3, 70, 129),
        (65, 1, 300),
        (1, 33, 7),
        (17, 19, 23),
    ];

    #[test]
    fn tiled_is_bit_identical_to_reference_on_awkward_shapes() {
        // Shapes straddling MR/NR/KC/MC boundaries, including degenerate 1s,
        // under every ISA the host can run.
        for &isa in &[active_isa(), Isa::Scalar] {
            for &(m, n, k) in AWKWARD {
                let a = seq(m * k, 1);
                let b = seq(k * n, 2);
                let mut out = vec![f32::NAN; m * n]; // must be fully overwritten
                gemm_tiled(&mut out, m, n, k, &a, false, &b, false, isa);
                let want = reference(&a, &b, m, n, k);
                assert_eq!(
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    want.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "mismatch at m={m} n={n} k={k} isa={isa:?}"
                );
            }
        }
    }

    #[test]
    fn vector_and_scalar_isas_are_bit_identical() {
        // The heart of the lane-stable contract: the hand-vectorized tiles
        // and the scalar lane emulation must agree on every bit, for both
        // the packed and the no-pack routes.
        let isa = active_isa();
        for &(m, n, k) in AWKWARD {
            let a = seq(m * k, 7);
            let b = seq(k * n, 8);
            let mut vec_out = vec![0.0f32; m * n];
            gemm_tiled(&mut vec_out, m, n, k, &a, false, &b, false, isa);
            let mut sc_out = vec![0.0f32; m * n];
            gemm_tiled(&mut sc_out, m, n, k, &a, false, &b, false, Isa::Scalar);
            assert_eq!(
                vec_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                sc_out.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                "ISA divergence at m={m} n={n} k={k} (host isa {isa:?})"
            );
        }
    }

    #[test]
    fn transposed_operands_match_materialized_transpose() {
        let (m, n, k) = (13usize, 21usize, 17usize);
        let a = seq(m * k, 3);
        let b = seq(k * n, 4);
        // Store A as [k, m] and B as [n, k].
        let mut at = vec![0.0f32; m * k];
        for i in 0..m {
            for kk in 0..k {
                at[kk * m + i] = a[i * k + kk];
            }
        }
        let mut bt = vec![0.0f32; k * n];
        for kk in 0..k {
            for j in 0..n {
                bt[j * k + kk] = b[kk * n + j];
            }
        }
        for &isa in &[active_isa(), Isa::Scalar] {
            let mut plain = vec![0.0f32; m * n];
            gemm_tiled(&mut plain, m, n, k, &a, false, &b, false, isa);
            let mut via_ta = vec![0.0f32; m * n];
            gemm_tiled(&mut via_ta, m, n, k, &at, true, &b, false, isa);
            let mut via_tb = vec![0.0f32; m * n];
            gemm_tiled(&mut via_tb, m, n, k, &a, false, &bt, true, isa);
            assert_eq!(plain, via_ta, "ta mismatch under {isa:?}");
            assert_eq!(plain, via_tb, "tb mismatch under {isa:?}");
        }
    }

    #[test]
    fn small_and_packed_paths_agree_bitwise() {
        // A shape routed to the no-pack kernel by the dispatcher; drive the
        // packed machinery directly on the same inputs and compare bits,
        // for each ISA and each operand layout.
        let (m, n, k) = (67usize, 29usize, 33usize);
        let a = seq(m * k, 5);
        let b = seq(k * n, 6);
        for &isa in &[active_isa(), Isa::Scalar] {
            for &(ta, tb) in &[(false, false), (true, false), (false, true)] {
                let (a_buf, b_buf) = {
                    let mut at = a.clone();
                    let mut bt = b.clone();
                    if ta {
                        for i in 0..m {
                            for kk in 0..k {
                                at[kk * m + i] = a[i * k + kk];
                            }
                        }
                    }
                    if tb {
                        for kk in 0..k {
                            for j in 0..n {
                                bt[j * k + kk] = b[kk * n + j];
                            }
                        }
                    }
                    (at, bt)
                };
                let mut small = vec![0.0f32; m * n];
                gemm_small(isa, &mut small, m, n, k, &a_buf, ta, &b_buf, tb);
                let mut packed = vec![0.0f32; m * n];
                workspace::with_gemm_ws(packed_a_len(m, k), packed_b_len(k, n), |ap, bp| {
                    pack_a(ap, &a_buf, m, k, ta);
                    pack_b(bp, &b_buf, k, n, tb);
                    for (bi, chunk) in packed.chunks_mut(MC * n).enumerate() {
                        row_block(chunk, bi * MC, n, k, ap, bp, isa);
                    }
                });
                assert_eq!(
                    small.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    packed.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "paths diverge at ta={ta} tb={tb} isa={isa:?}"
                );
            }
        }
    }

    #[test]
    fn zero_k_zeroes_the_output() {
        let mut out = vec![7.0f32; 6];
        gemm_tiled(&mut out, 2, 3, 0, &[], false, &[], false, Isa::Scalar);
        assert_eq!(out, vec![0.0; 6]);
    }

    fn to_bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    /// Columns `k0..k1` of a row-major `[rows, k]` matrix.
    fn k_slice(x: &[f32], rows: usize, k: usize, (k0, k1): (usize, usize)) -> Vec<f32> {
        x.chunks_exact(k).take(rows).flat_map(|r| r[k0..k1].iter().copied()).collect()
    }

    #[test]
    fn accumulate_resumes_every_route_from_c() {
        // One product over k, and the same product as a fresh product over
        // the first k-block followed by `gemm_acc` over the rest: every
        // route (narrow transposed-B, tiny-k, scalar narrow rows, strip,
        // vector no-pack, packed) must resume its chains from C exactly.
        let shapes: &[(usize, usize, usize, bool)] = &[
            (20, 5, 200, true),    // narrow transposed-B
            (27, 40, 8, false),    // tiny-k
            (30, 5, 40, false),    // scalar narrow rows
            (67, 29, 33, false),   // strip / vector no-pack
            (67, 29, 33, true),    // transposed B on the no-pack route
            (130, 40, 300, false), // packed
        ];
        for &isa in &[active_isa(), Isa::Scalar] {
            for &(m, n, k, tb) in shapes {
                let a = seq(m * k, 1);
                // B as [k, n], or as [n, k] when transposed.
                let b = seq(k * n, 2);
                let mut whole = vec![0.0f32; m * n];
                gemm_tiled(&mut whole, m, n, k, &a, false, &b, tb, isa);
                let k1 = k / 3 + 1;
                let b_part = |r: (usize, usize)| {
                    if tb {
                        k_slice(&b, n, k, r)
                    } else {
                        b[r.0 * n..r.1 * n].to_vec()
                    }
                };
                let mut split = vec![f32::NAN; m * n];
                let (a1, b1) = (k_slice(&a, m, k, (0, k1)), b_part((0, k1)));
                gemm_tiled(&mut split, m, n, k1, &a1, false, &b1, tb, isa);
                let (a2, b2) = (k_slice(&a, m, k, (k1, k)), b_part((k1, k)));
                gemm_acc(&mut split, m, n, k - k1, &a2, false, &b2, tb, isa);
                assert_eq!(
                    to_bits(&whole),
                    to_bits(&split),
                    "resume diverged at m={m} n={n} k={k} tb={tb} isa={isa:?}"
                );
            }
        }
    }

    #[test]
    fn segments_walk_images_as_one_k() {
        // [images, m, len] and [images, n, len] blocks, walked as segments
        // (narrow or short outputs in place, the rest gathered first),
        // against the same data gathered into plain [m, k] · [n, k]ᵀ.
        for &isa in &[active_isa(), Isa::Scalar] {
            for &(images, m, n, len) in
                &[(8, 12, 4, 16), (3, 9, 20, 4), (2, 17, 33, 13), (8, 31, 16, 4), (4, 70, 20, 8)]
            {
                let k = images * len;
                let a_img = seq(images * m * len, 3);
                let b_img = seq(images * n * len, 4);
                let gather = |x: &[f32], rows: usize| -> Vec<f32> {
                    let mut out = vec![0.0f32; rows * k];
                    for (r, row) in out.chunks_exact_mut(k).enumerate() {
                        for (i, seg) in row.chunks_exact_mut(len).enumerate() {
                            let src = (i * rows + r) * len;
                            seg.copy_from_slice(&x[src..src + len]);
                        }
                    }
                    out
                };
                let (a, bt) = (gather(&a_img, m), gather(&b_img, n));
                let want = reference(&a, &transpose(&bt, n, k), m, n, k);
                let segs = KSegs {
                    count: images,
                    len,
                    lda: len,
                    ldb: len,
                    a_step: m * len,
                    b_step: n * len,
                };
                let mut fresh = vec![0.0f32; m * n];
                gemm_acc_tb_segs(isa, &mut fresh, m, n, &a_img, &b_img, segs);
                assert_eq!(to_bits(&want), to_bits(&fresh), "segments diverged, isa={isa:?}");
                // Resuming from a nonzero C: the plain narrow route over
                // the gathered operands, started from the same C.
                let mut plain = seq(m * n, 5);
                let mut got = plain.clone();
                let one = KSegs { count: 1, len: k, lda: k, ldb: k, a_step: 0, b_step: 0 };
                gemm_acc_tb_segs(isa, &mut plain, m, n, &a, &bt, one);
                gemm_acc_tb_segs(isa, &mut got, m, n, &a_img, &b_img, segs);
                assert_eq!(to_bits(&plain), to_bits(&got), "resume diverged, isa={isa:?}");
            }
        }
    }

    fn transpose(x: &[f32], rows: usize, cols: usize) -> Vec<f32> {
        let mut out = vec![0.0f32; rows * cols];
        for r in 0..rows {
            for c in 0..cols {
                out[c * rows + r] = x[r * cols + c];
            }
        }
        out
    }

    #[test]
    fn batched_matches_one_product_per_image() {
        // Narrow images are staged side by side, wide ones run in place;
        // both must equal one plain product per image.
        for &isa in &[active_isa(), Isa::Scalar] {
            for &(images, m, n, k, ta) in &[
                (8, 7, 4, 5, false),
                (8, 9, 16, 31, true),
                (3, 5, 64, 12, false),
                (2, 6, 33, 3, true),
            ] {
                let a = seq(m * k, 6);
                let b = seq(images * k * n, 7);
                let batch = Batch { count: images, b_step: k * n, c_step: m * n };
                let mut got = vec![f32::NAN; images * m * n];
                gemm_batched(&mut got, m, n, k, &a, ta, &b, batch, isa);
                let mut want = vec![0.0f32; images * m * n];
                for (c, bi) in want.chunks_exact_mut(m * n).zip(b.chunks_exact(k * n)) {
                    gemm_tiled(c, m, n, k, &a, ta, bi, false, isa);
                }
                assert_eq!(
                    to_bits(&want),
                    to_bits(&got),
                    "batched diverged at images={images} m={m} n={n} k={k} isa={isa:?}"
                );
            }
        }
    }
}
