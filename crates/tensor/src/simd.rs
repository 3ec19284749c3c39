//! Runtime-dispatched SIMD microkernels behind the lane-stable contract.
//!
//! Every kernel here computes each output element as one ascending-k
//! fused multiply-add chain: `c = fma(a_k, b_k, c)` for k = 0, 1, 2, ….
//! Vectorization is *broadcast-style* — a scalar of A is broadcast
//! against a vector of B columns — so each output element is pinned to
//! one SIMD lane for its entire chain and the chain never crosses
//! lanes. IEEE-754 `fmaddps` is lane-wise identical to scalar
//! `f32::mul_add`, which makes the AVX-512, AVX2, and scalar
//! lane-emulating paths bit-identical by construction (see DESIGN.md
//! §6). Genuine cross-element reductions go through [`sum_lanes8`],
//! which fixes an 8-lane k-split and a frozen lane-combination tree.
//!
//! All `unsafe` kernels are gated behind [`Isa`] values returned by
//! [`active_isa`], which only reports instruction sets the host
//! actually supports (`is_x86_feature_detected!`).

use crate::kernel::KSegs;
use crate::pack::{MR, NR};
use std::sync::OnceLock;

/// Instruction set selected for the packed GEMM microkernels.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum Isa {
    /// 512-bit broadcast-FMA kernels (requires `avx512f`).
    Avx512,
    /// 256-bit broadcast-FMA kernels (requires `avx2` + `fma`).
    Avx2,
    /// Scalar lane-emulating kernels (`f32::mul_add` chains).
    Scalar,
}

/// Detects the widest ISA the host supports, once.
pub(crate) fn active_isa() -> Isa {
    static ISA: OnceLock<Isa> = OnceLock::new();
    *ISA.get_or_init(detect)
}

#[cfg(target_arch = "x86_64")]
fn detect() -> Isa {
    if std::arch::is_x86_feature_detected!("avx512f") {
        Isa::Avx512
    } else if std::arch::is_x86_feature_detected!("avx2")
        && std::arch::is_x86_feature_detected!("fma")
    {
        Isa::Avx2
    } else {
        Isa::Scalar
    }
}

#[cfg(not(target_arch = "x86_64"))]
fn detect() -> Isa {
    Isa::Scalar
}

/// Human-readable list of the detected CPU features relevant to the
/// kernels (recorded into bench metadata so numbers are attributable).
pub fn cpu_features() -> &'static str {
    static S: OnceLock<String> = OnceLock::new();
    S.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            let mut feats: Vec<&str> = Vec::new();
            if std::arch::is_x86_feature_detected!("avx512f") {
                feats.push("avx512f");
            }
            if std::arch::is_x86_feature_detected!("avx2") {
                feats.push("avx2");
            }
            if std::arch::is_x86_feature_detected!("fma") {
                feats.push("fma");
            }
            if feats.is_empty() {
                "x86-64-baseline".to_string()
            } else {
                feats.join("+")
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            "non-x86".to_string()
        }
    })
    .as_str()
}

/// Name of the microkernel family the `Simd` mode dispatches to on this
/// host: `"avx512"`, `"avx2"`, or `"scalar"` (recorded into bench
/// metadata alongside [`cpu_features`]).
pub fn active_isa_name() -> &'static str {
    match active_isa() {
        Isa::Avx512 => "avx512",
        Isa::Avx2 => "avx2",
        Isa::Scalar => "scalar",
    }
}

// ---------------------------------------------------------------------------
// Packed-panel microkernels (x86_64).
//
// A panels are MR-major (`MR` consecutive row scalars per k step), B
// panels are NR-major (`NR` consecutive column scalars per k step,
// 64-byte aligned, zero-padded at edges). C tiles accumulate in place:
// the kernel loads C, extends each element's fma chain by `kc` links,
// and stores back — the f32 memory round-trip between KC blocks is
// exact, so blocking never perturbs a chain.
// ---------------------------------------------------------------------------

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{KSegs, MR, NR};
    use core::arch::x86_64::*;

    #[inline(always)]
    fn mask16(w: usize) -> __mmask16 {
        debug_assert!(w <= 16);
        ((1u32 << w) - 1) as __mmask16
    }

    #[inline(always)]
    fn assert_panel_aligned(b: *const f32) {
        debug_assert_eq!(b as usize % 64, 0, "packed B panel lost its 64-byte alignment");
    }

    /// Full MR×NR tile, AVX-512: 16 zmm accumulators, two aligned B
    /// loads + MR broadcasts + 16 FMAs per k step, unrolled by 2.
    ///
    /// # Safety
    /// `a` must point to `MR*kc` packed floats, `b` to `NR*kc` packed
    /// floats (64-byte aligned), and `c` to an MR×NR tile with row
    /// stride `ldc` (at least NR floats per row). Caller must have
    /// verified `avx512f` support.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn tile_avx512(
        a: *const f32,
        b: *const f32,
        kc: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        assert_panel_aligned(b);
        let mut acc0 = [_mm512_setzero_ps(); MR];
        let mut acc1 = [_mm512_setzero_ps(); MR];
        for (i, (a0, a1)) in acc0.iter_mut().zip(acc1.iter_mut()).enumerate() {
            let row = c.add(i * ldc);
            *a0 = _mm512_loadu_ps(row);
            *a1 = _mm512_loadu_ps(row.add(16));
        }
        let mut ap = a;
        let mut bp = b;
        let mut p = 0;
        while p + 2 <= kc {
            let b0 = _mm512_load_ps(bp);
            let b1 = _mm512_load_ps(bp.add(16));
            for i in 0..MR {
                let av = _mm512_set1_ps(*ap.add(i));
                acc0[i] = _mm512_fmadd_ps(av, b0, acc0[i]);
                acc1[i] = _mm512_fmadd_ps(av, b1, acc1[i]);
            }
            let b2 = _mm512_load_ps(bp.add(NR));
            let b3 = _mm512_load_ps(bp.add(NR + 16));
            for i in 0..MR {
                let av = _mm512_set1_ps(*ap.add(MR + i));
                acc0[i] = _mm512_fmadd_ps(av, b2, acc0[i]);
                acc1[i] = _mm512_fmadd_ps(av, b3, acc1[i]);
            }
            ap = ap.add(2 * MR);
            bp = bp.add(2 * NR);
            p += 2;
        }
        if p < kc {
            let b0 = _mm512_load_ps(bp);
            let b1 = _mm512_load_ps(bp.add(16));
            for i in 0..MR {
                let av = _mm512_set1_ps(*ap.add(i));
                acc0[i] = _mm512_fmadd_ps(av, b0, acc0[i]);
                acc1[i] = _mm512_fmadd_ps(av, b1, acc1[i]);
            }
        }
        for (i, (a0, a1)) in acc0.iter().zip(acc1.iter()).enumerate() {
            let row = c.add(i * ldc);
            _mm512_storeu_ps(row, *a0);
            _mm512_storeu_ps(row.add(16), *a1);
        }
    }

    /// Edge tile (`mr_eff`×`nr_eff`), AVX-512 with masked C accesses.
    /// B edge columns are zero-padded in the panel, so masked-off lanes
    /// accumulate exact zeros and never touch memory.
    ///
    /// # Safety
    /// As [`tile_avx512`], with `mr_eff <= MR`, `1 <= nr_eff <= NR`,
    /// and `c` pointing to an `mr_eff`×`nr_eff` region of stride `ldc`.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn tile_avx512_edge(
        a: *const f32,
        b: *const f32,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        mr_eff: usize,
        nr_eff: usize,
    ) {
        assert_panel_aligned(b);
        debug_assert!(mr_eff <= MR && (1..=NR).contains(&nr_eff));
        let m0 = mask16(nr_eff.min(16));
        let m1 = mask16(nr_eff.saturating_sub(16));
        let mut acc0 = [_mm512_setzero_ps(); MR];
        let mut acc1 = [_mm512_setzero_ps(); MR];
        for i in 0..mr_eff {
            let row = c.add(i * ldc);
            acc0[i] = _mm512_maskz_loadu_ps(m0, row);
            acc1[i] = _mm512_maskz_loadu_ps(m1, row.wrapping_add(16));
        }
        let mut ap = a;
        let mut bp = b;
        for _ in 0..kc {
            let b0 = _mm512_load_ps(bp);
            let b1 = _mm512_load_ps(bp.add(16));
            for i in 0..mr_eff {
                let av = _mm512_set1_ps(*ap.add(i));
                acc0[i] = _mm512_fmadd_ps(av, b0, acc0[i]);
                acc1[i] = _mm512_fmadd_ps(av, b1, acc1[i]);
            }
            ap = ap.add(MR);
            bp = bp.add(NR);
        }
        for i in 0..mr_eff {
            let row = c.add(i * ldc);
            _mm512_mask_storeu_ps(row, m0, acc0[i]);
            _mm512_mask_storeu_ps(row.wrapping_add(16), m1, acc1[i]);
        }
    }

    /// Full MR×NR tile, AVX2+FMA: four 4-row × 16-column register
    /// sub-tiles, each sweeping the whole panel depth (the B panel is
    /// L1-resident, so the re-reads are cheap).
    ///
    /// # Safety
    /// As [`tile_avx512`]; caller must have verified `avx2` and `fma`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn tile_avx2(
        a: *const f32,
        b: *const f32,
        kc: usize,
        c: *mut f32,
        ldc: usize,
    ) {
        assert_panel_aligned(b);
        for rh in (0..MR).step_by(4) {
            for cb in (0..NR).step_by(16) {
                let mut acc = [[_mm256_setzero_ps(); 2]; 4];
                for (r, pair) in acc.iter_mut().enumerate() {
                    let row = c.add((rh + r) * ldc + cb);
                    pair[0] = _mm256_loadu_ps(row);
                    pair[1] = _mm256_loadu_ps(row.add(8));
                }
                let mut ap = a;
                let mut bp = b.add(cb);
                for _ in 0..kc {
                    let b0 = _mm256_load_ps(bp);
                    let b1 = _mm256_load_ps(bp.add(8));
                    for (r, pair) in acc.iter_mut().enumerate() {
                        let av = _mm256_set1_ps(*ap.add(rh + r));
                        pair[0] = _mm256_fmadd_ps(av, b0, pair[0]);
                        pair[1] = _mm256_fmadd_ps(av, b1, pair[1]);
                    }
                    ap = ap.add(MR);
                    bp = bp.add(NR);
                }
                for (r, pair) in acc.iter().enumerate() {
                    let row = c.add((rh + r) * ldc + cb);
                    _mm256_storeu_ps(row, pair[0]);
                    _mm256_storeu_ps(row.add(8), pair[1]);
                }
            }
        }
    }

    #[inline(always)]
    unsafe fn lane_mask8(w: usize) -> __m256i {
        debug_assert!(w <= 8);
        let idx = _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7);
        _mm256_cmpgt_epi32(_mm256_set1_epi32(w as i32), idx)
    }

    /// Edge tile, AVX2+FMA: one row at a time, four ymm column slots
    /// with masked C accesses; zero-padded B keeps dead lanes at zero.
    ///
    /// # Safety
    /// As [`tile_avx512_edge`]; caller must have verified `avx2`+`fma`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn tile_avx2_edge(
        a: *const f32,
        b: *const f32,
        kc: usize,
        c: *mut f32,
        ldc: usize,
        mr_eff: usize,
        nr_eff: usize,
    ) {
        assert_panel_aligned(b);
        debug_assert!(mr_eff <= MR && (1..=NR).contains(&nr_eff));
        let masks = [
            lane_mask8(nr_eff.min(8)),
            lane_mask8(nr_eff.saturating_sub(8).min(8)),
            lane_mask8(nr_eff.saturating_sub(16).min(8)),
            lane_mask8(nr_eff.saturating_sub(24).min(8)),
        ];
        for i in 0..mr_eff {
            let row = c.add(i * ldc);
            let mut acc = [_mm256_setzero_ps(); 4];
            for (v, a_v) in acc.iter_mut().enumerate() {
                *a_v = _mm256_maskload_ps(row.wrapping_add(8 * v), masks[v]);
            }
            let mut ap = a.add(i);
            let mut bp = b;
            for _ in 0..kc {
                let av = _mm256_set1_ps(*ap);
                for (v, a_v) in acc.iter_mut().enumerate() {
                    let bv = _mm256_load_ps(bp.add(8 * v));
                    *a_v = _mm256_fmadd_ps(av, bv, *a_v);
                }
                ap = ap.add(MR);
                bp = bp.add(NR);
            }
            for (v, a_v) in acc.iter().enumerate() {
                _mm256_maskstore_ps(row.wrapping_add(8 * v), masks[v], *a_v);
            }
        }
    }

    // -----------------------------------------------------------------------
    // No-pack small-problem block kernels (B walked in place, row-major).
    // `a_rs`/`a_cs` are A's row/k strides so transposed A needs no copy.
    // -----------------------------------------------------------------------

    /// Up-to-4-rows × up-to-32-columns block over unpacked B, AVX-512.
    ///
    /// # Safety
    /// `out` points to the block origin in a row-major matrix of row
    /// stride `ldo`; `b` to B's `(0, j0)` with row stride `ldb`; `a` to
    /// the block's first row with element `(r, kk)` at
    /// `a + r*a_rs + kk*a_cs`. `rows <= 4`, `1 <= ncols <= 32`. Caller
    /// must have verified `avx512f`.
    #[target_feature(enable = "avx512f")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn small_block_avx512(
        out: *mut f32,
        ldo: usize,
        a: *const f32,
        a_rs: usize,
        a_cs: usize,
        b: *const f32,
        ldb: usize,
        rows: usize,
        ncols: usize,
        k: usize,
    ) {
        debug_assert!((1..=4).contains(&rows) && (1..=32).contains(&ncols));
        let m0 = mask16(ncols.min(16));
        let m1 = mask16(ncols.saturating_sub(16));
        let mut acc0 = [_mm512_setzero_ps(); 4];
        let mut acc1 = [_mm512_setzero_ps(); 4];
        for r in 0..rows {
            let row = out.add(r * ldo);
            acc0[r] = _mm512_maskz_loadu_ps(m0, row);
            acc1[r] = _mm512_maskz_loadu_ps(m1, row.wrapping_add(16));
        }
        for kk in 0..k {
            let bp = b.add(kk * ldb);
            let b0 = _mm512_maskz_loadu_ps(m0, bp);
            let b1 = _mm512_maskz_loadu_ps(m1, bp.wrapping_add(16));
            for r in 0..rows {
                let av = _mm512_set1_ps(*a.add(r * a_rs + kk * a_cs));
                acc0[r] = _mm512_fmadd_ps(av, b0, acc0[r]);
                acc1[r] = _mm512_fmadd_ps(av, b1, acc1[r]);
            }
        }
        for r in 0..rows {
            let row = out.add(r * ldo);
            _mm512_mask_storeu_ps(row, m0, acc0[r]);
            _mm512_mask_storeu_ps(row.wrapping_add(16), m1, acc1[r]);
        }
    }

    /// Up-to-4-rows × up-to-16-columns block over unpacked B, AVX2+FMA.
    ///
    /// # Safety
    /// As [`small_block_avx512`] with `ncols <= 16`; caller must have
    /// verified `avx2`+`fma`.
    #[target_feature(enable = "avx2", enable = "fma")]
    #[allow(clippy::too_many_arguments)]
    pub(crate) unsafe fn small_block_avx2(
        out: *mut f32,
        ldo: usize,
        a: *const f32,
        a_rs: usize,
        a_cs: usize,
        b: *const f32,
        ldb: usize,
        rows: usize,
        ncols: usize,
        k: usize,
    ) {
        debug_assert!((1..=4).contains(&rows) && (1..=16).contains(&ncols));
        let m0 = lane_mask8(ncols.min(8));
        let m1 = lane_mask8(ncols.saturating_sub(8));
        let mut acc0 = [_mm256_setzero_ps(); 4];
        let mut acc1 = [_mm256_setzero_ps(); 4];
        for r in 0..rows {
            let row = out.add(r * ldo);
            acc0[r] = _mm256_maskload_ps(row, m0);
            acc1[r] = _mm256_maskload_ps(row.wrapping_add(8), m1);
        }
        for kk in 0..k {
            let bp = b.add(kk * ldb);
            let b0 = _mm256_maskload_ps(bp, m0);
            let b1 = _mm256_maskload_ps(bp.wrapping_add(8), m1);
            for r in 0..rows {
                let av = _mm256_set1_ps(*a.add(r * a_rs + kk * a_cs));
                acc0[r] = _mm256_fmadd_ps(av, b0, acc0[r]);
                acc1[r] = _mm256_fmadd_ps(av, b1, acc1[r]);
            }
        }
        for r in 0..rows {
            let row = out.add(r * ldo);
            _mm256_maskstore_ps(row, m0, acc0[r]);
            _mm256_maskstore_ps(row.wrapping_add(8), m1, acc1[r]);
        }
    }

    /// In-register transpose of an 8×8 block: `r[i]` holds row `i`, the
    /// result's element `q` holds column `q` (pure data movement).
    #[inline(always)]
    unsafe fn transpose8(r: [__m256; 8]) -> [__m256; 8] {
        let t0 = _mm256_unpacklo_ps(r[0], r[1]);
        let t1 = _mm256_unpackhi_ps(r[0], r[1]);
        let t2 = _mm256_unpacklo_ps(r[2], r[3]);
        let t3 = _mm256_unpackhi_ps(r[2], r[3]);
        let t4 = _mm256_unpacklo_ps(r[4], r[5]);
        let t5 = _mm256_unpackhi_ps(r[4], r[5]);
        let t6 = _mm256_unpacklo_ps(r[6], r[7]);
        let t7 = _mm256_unpackhi_ps(r[6], r[7]);
        let s0 = _mm256_shuffle_ps::<0x44>(t0, t2);
        let s1 = _mm256_shuffle_ps::<0xEE>(t0, t2);
        let s2 = _mm256_shuffle_ps::<0x44>(t1, t3);
        let s3 = _mm256_shuffle_ps::<0xEE>(t1, t3);
        let s4 = _mm256_shuffle_ps::<0x44>(t4, t6);
        let s5 = _mm256_shuffle_ps::<0xEE>(t4, t6);
        let s6 = _mm256_shuffle_ps::<0x44>(t5, t7);
        let s7 = _mm256_shuffle_ps::<0xEE>(t5, t7);
        [
            _mm256_permute2f128_ps::<0x20>(s0, s4),
            _mm256_permute2f128_ps::<0x20>(s1, s5),
            _mm256_permute2f128_ps::<0x20>(s2, s6),
            _mm256_permute2f128_ps::<0x20>(s3, s7),
            _mm256_permute2f128_ps::<0x31>(s0, s4),
            _mm256_permute2f128_ps::<0x31>(s1, s5),
            _mm256_permute2f128_ps::<0x31>(s2, s6),
            _mm256_permute2f128_ps::<0x31>(s3, s7),
        ]
    }

    /// Narrow transposed-B tile, AVX2+FMA: `c[rows, N] += A·Bᵀ` (row
    /// stride `ldc`) over the k segments `s`. Lanes run along the (up to eight) rows: each 8×8
    /// block of the k-contiguous A is transposed in registers into eight
    /// k-step vectors, and each B element `B[j, kk]` is broadcast straight
    /// from its k-contiguous row. Column `j` owns accumulator `acc[j]` for
    /// the whole sweep, so every element is one ascending-k fma chain,
    /// resumed from `c`. Lanes past `rows` compute on zeros and are never
    /// stored.
    ///
    /// # Safety
    /// `c` addresses `rows <= 8` rows of `N` floats (row stride `ldc`); for
    /// every segment `g < s.count`, row `i < rows`, column `j < N` and step
    /// `kk < s.len`, `a + g*s.a_step + i*s.lda + kk` and
    /// `b + g*s.b_step + j*s.ldb + kk` are readable. Caller must have
    /// verified `avx2`+`fma`.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn narrow_tb_avx2<const N: usize>(
        c: *mut f32,
        ldc: usize,
        rows: usize,
        a: *const f32,
        b: *const f32,
        s: KSegs,
    ) {
        debug_assert!((1..=8).contains(&rows));
        let mut lanes = [[0.0f32; 8]; N];
        for i in 0..rows {
            for (j, col) in lanes.iter_mut().enumerate() {
                col[i] = *c.add(i * ldc + j);
            }
        }
        let mut acc = [_mm256_setzero_ps(); N];
        for (v, col) in acc.iter_mut().zip(&lanes) {
            *v = _mm256_loadu_ps(col.as_ptr());
        }
        for g in 0..s.count {
            let ap = a.add(g * s.a_step);
            let bp = b.add(g * s.b_step);
            let mut kk = 0;
            while kk + 8 <= s.len {
                let mut r = [_mm256_setzero_ps(); 8];
                for (i, v) in r.iter_mut().enumerate().take(rows) {
                    *v = _mm256_loadu_ps(ap.add(i * s.lda + kk));
                }
                let t = transpose8(r);
                for (q, tq) in t.iter().enumerate() {
                    for (j, v) in acc.iter_mut().enumerate() {
                        let bv = _mm256_set1_ps(*bp.add(j * s.ldb + kk + q));
                        *v = _mm256_fmadd_ps(*tq, bv, *v);
                    }
                }
                kk += 8;
            }
            if kk + 4 <= s.len {
                // A four-step tail (a 2×2 feature map's whole plane): the
                // same transpose on half rows, upper outputs unused.
                let mut r = [_mm256_setzero_ps(); 8];
                for (i, v) in r.iter_mut().enumerate().take(rows) {
                    *v = _mm256_zextps128_ps256(_mm_loadu_ps(ap.add(i * s.lda + kk)));
                }
                let t = transpose8(r);
                for (q, tq) in t.iter().take(4).enumerate() {
                    for (j, v) in acc.iter_mut().enumerate() {
                        let bv = _mm256_set1_ps(*bp.add(j * s.ldb + kk + q));
                        *v = _mm256_fmadd_ps(*tq, bv, *v);
                    }
                }
                kk += 4;
            }
            while kk < s.len {
                let mut col = [0.0f32; 8];
                for (i, v) in col.iter_mut().enumerate().take(rows) {
                    *v = *ap.add(i * s.lda + kk);
                }
                let tq = _mm256_loadu_ps(col.as_ptr());
                for (j, v) in acc.iter_mut().enumerate() {
                    let bv = _mm256_set1_ps(*bp.add(j * s.ldb + kk));
                    *v = _mm256_fmadd_ps(tq, bv, *v);
                }
                kk += 1;
            }
        }
        for (v, col) in acc.iter().zip(lanes.iter_mut()) {
            _mm256_storeu_ps(col.as_mut_ptr(), *v);
        }
        for i in 0..rows {
            for (j, col) in lanes.iter().enumerate() {
                *c.add(i * ldc + j) = col[i];
            }
        }
    }

    /// `dst[j] = fma(s, src[j], dst[j])`, AVX-512.
    ///
    /// # Safety
    /// Caller must have verified `avx512f`; `dst`/`src` same length.
    #[target_feature(enable = "avx512f")]
    pub(crate) unsafe fn axpy_avx512(dst: &mut [f32], s: f32, src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len();
        let sv = _mm512_set1_ps(s);
        let d = dst.as_mut_ptr();
        let x = src.as_ptr();
        let mut j = 0;
        while j + 16 <= n {
            let v = _mm512_fmadd_ps(sv, _mm512_loadu_ps(x.add(j)), _mm512_loadu_ps(d.add(j)));
            _mm512_storeu_ps(d.add(j), v);
            j += 16;
        }
        if j < n {
            let m = mask16(n - j);
            let v = _mm512_fmadd_ps(
                sv,
                _mm512_maskz_loadu_ps(m, x.add(j)),
                _mm512_maskz_loadu_ps(m, d.add(j)),
            );
            _mm512_mask_storeu_ps(d.add(j), m, v);
        }
    }

    /// `dst[j] = fma(s, src[j], dst[j])`, AVX2+FMA (scalar tail).
    ///
    /// # Safety
    /// Caller must have verified `avx2`+`fma`; `dst`/`src` same length.
    #[target_feature(enable = "avx2", enable = "fma")]
    pub(crate) unsafe fn axpy_avx2(dst: &mut [f32], s: f32, src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len();
        let sv = _mm256_set1_ps(s);
        let d = dst.as_mut_ptr();
        let x = src.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_fmadd_ps(sv, _mm256_loadu_ps(x.add(j)), _mm256_loadu_ps(d.add(j)));
            _mm256_storeu_ps(d.add(j), v);
            j += 8;
        }
        while j < n {
            *d.add(j) = s.mul_add(*x.add(j), *d.add(j));
            j += 1;
        }
    }

    /// `dst[j] += src[j]`, AVX2 (plain lane-wise add; bit-equal to the
    /// scalar loop by IEEE-754, so every kernel mode may share it).
    ///
    /// # Safety
    /// Caller must have verified `avx2`; `dst`/`src` same length.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn add_assign_avx2(dst: &mut [f32], src: &[f32]) {
        debug_assert_eq!(dst.len(), src.len());
        let n = dst.len();
        let d = dst.as_mut_ptr();
        let x = src.as_ptr();
        let mut j = 0;
        while j + 8 <= n {
            let v = _mm256_add_ps(_mm256_loadu_ps(d.add(j)), _mm256_loadu_ps(x.add(j)));
            _mm256_storeu_ps(d.add(j), v);
            j += 8;
        }
        while j < n {
            *d.add(j) += *x.add(j);
            j += 1;
        }
    }

    /// 8-lane NaN-aware min/max sweep, AVX2: each lane keeps a running
    /// min and max with `vminps`/`vmaxps` select semantics, NaN inputs
    /// are blended back to the lane's running value (and OR-ed into a
    /// NaN flag), and the eight lanes combine through the same frozen
    /// tree as [`super::minmax_nan_ref`] — bit-identical by construction,
    /// signed zeros included.
    ///
    /// # Safety
    /// Caller must have verified `avx2`.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn minmax_nan_avx2(xs: &[f32]) -> super::MinMax {
        let mut lo = _mm256_set1_ps(f32::INFINITY);
        let mut hi = _mm256_set1_ps(f32::NEG_INFINITY);
        let mut nan = _mm256_setzero_ps();
        let chunks = xs.len() / 8;
        let p = xs.as_ptr();
        for t in 0..chunks {
            let v = _mm256_loadu_ps(p.add(8 * t));
            let unord = _mm256_cmp_ps(v, v, _CMP_UNORD_Q);
            nan = _mm256_or_ps(nan, unord);
            // NaN lanes keep the running value: min/max inputs never see
            // a NaN, so `vminps`'s take-src2-when-unordered rule is moot.
            let keep_lo = _mm256_blendv_ps(v, lo, unord);
            let keep_hi = _mm256_blendv_ps(v, hi, unord);
            lo = _mm256_min_ps(lo, keep_lo);
            hi = _mm256_max_ps(hi, keep_hi);
        }
        let mut lo_l = [0.0f32; 8];
        let mut hi_l = [0.0f32; 8];
        _mm256_storeu_ps(lo_l.as_mut_ptr(), lo);
        _mm256_storeu_ps(hi_l.as_mut_ptr(), hi);
        let mut out = super::MinMax {
            lo: super::tree8(&lo_l, super::min_sel),
            hi: super::tree8(&hi_l, super::max_sel),
            nan: _mm256_movemask_ps(nan) != 0,
        };
        for &x in &xs[8 * chunks..] {
            if x.is_nan() {
                out.nan = true;
            } else {
                out.lo = super::min_sel(out.lo, x);
                out.hi = super::max_sel(out.hi, x);
            }
        }
        out
    }

    /// `lanes[l] += xs[8t + l]` over every 8-element group of `xs`, AVX2
    /// (plain `vaddps`, lane-wise equal to the scalar loop).
    ///
    /// # Safety
    /// Caller must have verified `avx2`; `xs.len()` is a multiple of 8.
    #[target_feature(enable = "avx2")]
    pub(crate) unsafe fn add_lanes8_avx2(lanes: &mut [f32; 8], xs: &[f32]) {
        debug_assert_eq!(xs.len() % 8, 0);
        let mut acc = _mm256_loadu_ps(lanes.as_ptr());
        for group in xs.chunks_exact(8) {
            acc = _mm256_add_ps(acc, _mm256_loadu_ps(group.as_ptr()));
        }
        _mm256_storeu_ps(lanes.as_mut_ptr(), acc);
    }
}

#[cfg(not(target_arch = "x86_64"))]
mod x86 {
    //! Stubs so the dispatch `match` compiles everywhere; `active_isa`
    //! never returns a vector ISA off x86_64, so these are unreachable.
    #![allow(clippy::too_many_arguments)]

    pub(crate) unsafe fn tile_avx512(
        _a: *const f32,
        _b: *const f32,
        _kc: usize,
        _c: *mut f32,
        _ldc: usize,
    ) {
        unreachable!("AVX-512 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn tile_avx512_edge(
        _a: *const f32,
        _b: *const f32,
        _kc: usize,
        _c: *mut f32,
        _ldc: usize,
        _mr_eff: usize,
        _nr_eff: usize,
    ) {
        unreachable!("AVX-512 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn tile_avx2(
        _a: *const f32,
        _b: *const f32,
        _kc: usize,
        _c: *mut f32,
        _ldc: usize,
    ) {
        unreachable!("AVX2 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn tile_avx2_edge(
        _a: *const f32,
        _b: *const f32,
        _kc: usize,
        _c: *mut f32,
        _ldc: usize,
        _mr_eff: usize,
        _nr_eff: usize,
    ) {
        unreachable!("AVX2 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn small_block_avx512(
        _out: *mut f32,
        _ldo: usize,
        _a: *const f32,
        _a_rs: usize,
        _a_cs: usize,
        _b: *const f32,
        _ldb: usize,
        _rows: usize,
        _ncols: usize,
        _k: usize,
    ) {
        unreachable!("AVX-512 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn small_block_avx2(
        _out: *mut f32,
        _ldo: usize,
        _a: *const f32,
        _a_rs: usize,
        _a_cs: usize,
        _b: *const f32,
        _ldb: usize,
        _rows: usize,
        _ncols: usize,
        _k: usize,
    ) {
        unreachable!("AVX2 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn narrow_tb_avx2<const N: usize>(
        _c: *mut f32,
        _ldc: usize,
        _rows: usize,
        _a: *const f32,
        _b: *const f32,
        _s: crate::kernel::KSegs,
    ) {
        unreachable!("AVX2 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn axpy_avx512(_dst: &mut [f32], _s: f32, _src: &[f32]) {
        unreachable!("AVX-512 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn axpy_avx2(_dst: &mut [f32], _s: f32, _src: &[f32]) {
        unreachable!("AVX2 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn add_assign_avx2(_dst: &mut [f32], _src: &[f32]) {
        unreachable!("AVX2 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn add_lanes8_avx2(_lanes: &mut [f32; 8], _xs: &[f32]) {
        unreachable!("AVX2 kernel on non-x86_64 host")
    }

    pub(crate) unsafe fn minmax_nan_avx2(_xs: &[f32]) -> super::MinMax {
        unreachable!("AVX2 kernel on non-x86_64 host")
    }
}

pub(crate) use x86::{
    narrow_tb_avx2, small_block_avx2, small_block_avx512, tile_avx2, tile_avx2_edge, tile_avx512,
    tile_avx512_edge,
};

// ---------------------------------------------------------------------------
// Safe dispatching helpers shared by the tiled drivers and conv lowering.
// These are elementwise or tree-frozen, so every kernel mode may use them
// without perturbing bits.
// ---------------------------------------------------------------------------

/// `dst[j] = fma(s, src[j], dst[j])` — one chain link per element, any
/// vector width, bit-identical to `f32::mul_add` lane-by-lane.
#[inline]
pub(crate) fn axpy(isa: Isa, dst: &mut [f32], s: f32, src: &[f32]) {
    match isa {
        Isa::Avx512 => unsafe { x86::axpy_avx512(dst, s, src) },
        Isa::Avx2 => unsafe { x86::axpy_avx2(dst, s, src) },
        Isa::Scalar => {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d = s.mul_add(x, *d);
            }
        }
    }
}

/// `dst[j] += src[j]` with the widest available ISA (elementwise, so
/// bit-equal to the scalar loop; safe for every kernel mode). Runs shorter
/// than one vector stay inline: the scatter kernels issue thousands of
/// them per call (a 2×2 map's rows, a strided patch's taps), where a call
/// into the vector kernel would cost more than the adds.
#[inline]
pub(crate) fn add_assign(dst: &mut [f32], src: &[f32]) {
    match active_isa() {
        Isa::Avx512 | Isa::Avx2 if dst.len() >= 8 => unsafe { x86::add_assign_avx2(dst, src) },
        _ => {
            for (d, &x) in dst.iter_mut().zip(src) {
                *d += x;
            }
        }
    }
}

/// Sums the concatenation of `planes` with the lane-stable reduction
/// tree: the element stream is split across 8 lanes (`lane l` accumulates
/// element `8t + l` in order), lanes combine as
/// `((l0+l1)+(l2+l3)) + ((l4+l5)+(l6+l7))`, and any tail folds in
/// sequentially. When every plane but the last is a whole number of
/// 8-element groups, the lane sums are carried from plane to plane in
/// vector registers, so the stream is never built; otherwise groups
/// straddle planes and the scalar reference streams them. Vector and
/// scalar paths are bit-identical by construction.
pub(crate) fn sum_lanes8<'a>(planes: impl Iterator<Item = &'a [f32]> + Clone) -> f32 {
    let count = planes.clone().count();
    if planes.clone().take(count.saturating_sub(1)).any(|p| p.len() % 8 != 0) {
        return sum_lanes8_ref(planes.flat_map(|p| p.iter().copied()));
    }
    let mut lanes = [0.0f32; 8];
    let mut tail: &[f32] = &[];
    for p in planes {
        let (groups, rest) = p.split_at(p.len() / 8 * 8);
        match active_isa() {
            Isa::Avx512 | Isa::Avx2 => unsafe { x86::add_lanes8_avx2(&mut lanes, groups) },
            Isa::Scalar => {
                for group in groups.chunks_exact(8) {
                    for (l, &g) in lanes.iter_mut().zip(group) {
                        *l += g;
                    }
                }
            }
        }
        tail = rest;
    }
    let tree = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    tail.iter().fold(tree, |s, &x| s + x)
}

/// Result of a NaN-aware min/max reduction: the extreme finite-or-infinite
/// values observed and whether any NaN appeared.
///
/// Over an empty (or all-NaN) slice `lo` is `+inf` and `hi` is `-inf` —
/// the reduction identities — so range checks against calibrated bounds
/// vacuously pass and only the `nan` flag can trip. When several bitwise
/// representations of the extreme value exist (`-0.0` vs `+0.0`), the
/// frozen 8-lane fold picks one deterministically, and vector and scalar
/// paths pick the *same* one, so the result is bit-stable across ISAs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MinMax {
    /// Smallest non-NaN element (`+inf` if none).
    pub lo: f32,
    /// Largest non-NaN element (`-inf` if none).
    pub hi: f32,
    /// True if any element was NaN.
    pub nan: bool,
}

/// `vminps` select semantics on NaN-free inputs: keep `a` only when it is
/// strictly smaller, otherwise take `b` (ties, including `-0.0` vs `+0.0`,
/// take `b` — exactly what the vector instruction does).
#[inline]
fn min_sel(a: f32, b: f32) -> f32 {
    if a < b {
        a
    } else {
        b
    }
}

/// `vmaxps` select semantics on NaN-free inputs; ties take `b`.
#[inline]
fn max_sel(a: f32, b: f32) -> f32 {
    if a > b {
        a
    } else {
        b
    }
}

/// The frozen lane-combination tree shared by the sum and min/max
/// reductions: `((l0,l1),(l2,l3))` against `((l4,l5),(l6,l7))`.
#[inline]
fn tree8(lanes: &[f32; 8], sel: impl Fn(f32, f32) -> f32) -> f32 {
    sel(
        sel(sel(lanes[0], lanes[1]), sel(lanes[2], lanes[3])),
        sel(sel(lanes[4], lanes[5]), sel(lanes[6], lanes[7])),
    )
}

/// NaN-aware min/max of a slice with the lane-stable 8-lane split: lane
/// `l` reduces `xs[8t + l]`, lanes combine through the frozen tree, and
/// the tail folds in sequentially. NaN elements never enter the extremes;
/// they only set [`MinMax::nan`]. Vector and scalar paths are
/// bit-identical by construction, so every kernel mode may use this (it
/// is the per-batch activation-envelope check of the serving guards).
#[inline]
pub fn minmax_nan(xs: &[f32]) -> MinMax {
    match active_isa() {
        Isa::Avx512 | Isa::Avx2 => unsafe { x86::minmax_nan_avx2(xs) },
        Isa::Scalar => minmax_nan_ref(xs),
    }
}

/// Scalar emulation of [`minmax_nan`] — the reference the vector path
/// must match bit-for-bit.
pub(crate) fn minmax_nan_ref(xs: &[f32]) -> MinMax {
    let mut lo = [f32::INFINITY; 8];
    let mut hi = [f32::NEG_INFINITY; 8];
    let mut nan = false;
    let chunks = xs.len() / 8;
    for t in 0..chunks {
        for l in 0..8 {
            let x = xs[8 * t + l];
            if x.is_nan() {
                nan = true;
            } else {
                lo[l] = min_sel(lo[l], x);
                hi[l] = max_sel(hi[l], x);
            }
        }
    }
    let mut out = MinMax { lo: tree8(&lo, min_sel), hi: tree8(&hi, max_sel), nan };
    for &x in &xs[8 * chunks..] {
        if x.is_nan() {
            out.nan = true;
        } else {
            out.lo = min_sel(out.lo, x);
            out.hi = max_sel(out.hi, x);
        }
    }
    out
}

/// Scalar emulation of [`sum_lanes8`] over any element stream — the
/// reference the vector path must match bit-for-bit, and the form the
/// naive kernel mode uses (including strided streams).
pub(crate) fn sum_lanes8_ref(xs: impl Iterator<Item = f32>) -> f32 {
    let mut lanes = [0.0f32; 8];
    // Stream length is unknown, so buffer one 8-element group at a time;
    // a partial final group becomes the sequential tail.
    let mut group = [0.0f32; 8];
    let mut li = 0usize;
    for x in xs {
        group[li] = x;
        li += 1;
        if li == 8 {
            for (l, &g) in lanes.iter_mut().zip(group.iter()) {
                *l += g;
            }
            li = 0;
        }
    }
    let tree = ((lanes[0] + lanes[1]) + (lanes[2] + lanes[3]))
        + ((lanes[4] + lanes[5]) + (lanes[6] + lanes[7]));
    group[..li].iter().fold(tree, |s, &x| s + x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq(n: usize, salt: u32) -> Vec<f32> {
        // Deterministic awkward values: mixed magnitudes and signs so
        // reassociation would visibly change bits.
        (0..n)
            .map(|i| {
                let h = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(salt);
                let m = (h >> 8) as f32 / (1 << 24) as f32;
                let e = ((h >> 2) % 9) as i32 - 4;
                let s = if h & 1 == 0 { 1.0 } else { -1.0 };
                s * m * (2.0f32).powi(e)
            })
            .collect()
    }

    #[test]
    fn sum_lanes8_vector_matches_scalar_reference() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let xs = seq(n, 0xbeef);
            let v = sum_lanes8(std::iter::once(&xs[..]));
            let s = sum_lanes8_ref(xs.iter().copied());
            assert_eq!(v.to_bits(), s.to_bits(), "tree sum diverged at n={n}: {v} vs {s}");
        }
    }

    #[test]
    fn sum_lanes8_over_planes_matches_the_concatenation() {
        // Planes of 8-multiples carry the lanes across (with a ragged last
        // plane as the tail); a ragged inner plane takes the scalar stream.
        for (planes, len, last) in [(8usize, 16usize, 16usize), (5, 64, 13), (8, 4, 4), (3, 12, 7)]
        {
            let xs = seq((planes - 1) * len + last, 0x5eed);
            let split: Vec<&[f32]> = xs.chunks(len).collect();
            let v = sum_lanes8(split.iter().copied());
            let s = sum_lanes8_ref(xs.iter().copied());
            assert_eq!(v.to_bits(), s.to_bits(), "planes={planes} len={len} last={last}");
        }
    }

    #[test]
    fn sum_lanes8_ref_strided_stream_matches_contiguous() {
        let xs = seq(40, 7);
        let direct = sum_lanes8_ref(xs.iter().copied());
        // Interleave into a stride-3 buffer and stream it back out.
        let mut buf = vec![0.0f32; xs.len() * 3];
        for (i, &x) in xs.iter().enumerate() {
            buf[i * 3] = x;
        }
        let strided = sum_lanes8_ref((0..xs.len()).map(|i| buf[i * 3]));
        assert_eq!(direct.to_bits(), strided.to_bits());
    }

    #[test]
    fn axpy_vector_matches_scalar_bitwise() {
        let isa = active_isa();
        for n in [1usize, 5, 8, 13, 16, 31, 32, 100] {
            let src = seq(n, 3);
            let mut d_vec = seq(n, 9);
            let mut d_ref = d_vec.clone();
            axpy(isa, &mut d_vec, 1.7, &src);
            axpy(Isa::Scalar, &mut d_ref, 1.7, &src);
            for (a, b) in d_vec.iter().zip(d_ref.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "axpy diverged at n={n}");
            }
        }
    }

    #[test]
    fn add_assign_matches_scalar_bitwise() {
        for n in [1usize, 7, 8, 9, 24, 100] {
            let src = seq(n, 11);
            let mut d_vec = seq(n, 13);
            let mut d_ref = d_vec.clone();
            add_assign(&mut d_vec, &src);
            for (d, &x) in d_ref.iter_mut().zip(src.iter()) {
                *d += x;
            }
            for (a, b) in d_vec.iter().zip(d_ref.iter()) {
                assert_eq!(a.to_bits(), b.to_bits(), "add_assign diverged at n={n}");
            }
        }
    }

    #[test]
    fn cpu_features_is_nonempty() {
        assert!(!cpu_features().is_empty());
    }

    #[test]
    fn minmax_vector_matches_scalar_bitwise() {
        for n in [0usize, 1, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000] {
            let xs = seq(n, 0xfeed);
            let v = minmax_nan(&xs);
            let s = minmax_nan_ref(&xs);
            assert_eq!(v.lo.to_bits(), s.lo.to_bits(), "lo diverged at n={n}");
            assert_eq!(v.hi.to_bits(), s.hi.to_bits(), "hi diverged at n={n}");
            assert_eq!(v.nan, s.nan);
        }
    }

    #[test]
    fn minmax_matches_plain_fold_values() {
        let xs = seq(777, 21);
        let m = minmax_nan(&xs);
        let lo = xs.iter().copied().fold(f32::INFINITY, f32::min);
        let hi = xs.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        assert_eq!(m.lo, lo);
        assert_eq!(m.hi, hi);
        assert!(!m.nan);
    }

    #[test]
    fn minmax_skips_nans_but_flags_them() {
        let mut xs = seq(100, 5);
        xs[3] = f32::NAN;
        xs[64] = f32::NAN;
        xs[99] = f32::NAN; // tail position
        let m = minmax_nan(&xs);
        assert!(m.nan);
        assert!(m.lo.is_finite() && m.hi.is_finite(), "NaNs must not poison the extremes");
        let s = minmax_nan_ref(&xs);
        assert_eq!((m.lo.to_bits(), m.hi.to_bits()), (s.lo.to_bits(), s.hi.to_bits()));
    }

    #[test]
    fn minmax_propagates_infinities_as_values() {
        let mut xs = seq(33, 9);
        xs[10] = f32::INFINITY;
        xs[20] = f32::NEG_INFINITY;
        let m = minmax_nan(&xs);
        assert_eq!(m.hi, f32::INFINITY);
        assert_eq!(m.lo, f32::NEG_INFINITY);
        assert!(!m.nan);
    }

    #[test]
    fn minmax_identities_on_empty_and_all_nan() {
        let e = minmax_nan(&[]);
        assert_eq!((e.lo, e.hi, e.nan), (f32::INFINITY, f32::NEG_INFINITY, false));
        let a = minmax_nan(&[f32::NAN; 19]);
        assert_eq!((a.lo, a.hi, a.nan), (f32::INFINITY, f32::NEG_INFINITY, true));
    }

    #[test]
    fn minmax_signed_zero_is_bit_stable_across_paths() {
        // A slice whose minimum is zero with both signs present: whichever
        // representative the frozen fold picks, vector and scalar must
        // agree bit-for-bit.
        for flip in 0..4 {
            let mut xs = vec![1.0f32; 40];
            xs[7] = 0.0;
            xs[23] = -0.0;
            if flip % 2 == 1 {
                xs.swap(7, 23);
            }
            let v = minmax_nan(&xs);
            let s = minmax_nan_ref(&xs);
            assert_eq!(v.lo.to_bits(), s.lo.to_bits());
            assert_eq!(v.hi.to_bits(), s.hi.to_bits());
        }
    }
}
