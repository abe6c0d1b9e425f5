//! Explicit-SIMD microkernels and the backend that picks them.
//!
//! The release profile already pins `x86-64-v3`, so the scalar panels in
//! [`crate::tensor`] autovectorize — but they stream every partial sum
//! through memory (`out[i][j] += a·b` is a load + store per k step).
//! The AVX2 microkernels here hold a register-blocked tile of the output
//! across the whole k loop, cutting the inner-loop memory traffic to the
//! `b`-row loads and `a` broadcasts that feed each step. A tile is 4 rows
//! × 16 columns, narrower at a width's last columns. At widths 4 and 12,
//! where a row's last vector would be half empty, a tile is two pairs of
//! whole rows instead: a pair of 12-wide rows is 24 contiguous floats,
//! three full vectors.
//!
//! **Bitwise parity is structural.** For every output element both
//! backends execute the identical scalar-semantics sequence: ascending-k
//! accumulation, one `mul` + one `add` rounding step per term
//! (`_mm256_mul_ps`/`_mm256_add_ps`, never FMA — Rust never contracts),
//! and the same `a == 0.0` skip the scalar kernel performs. Skipping a
//! ±0 term is the only thing that skip can change, so a skipping tile
//! tests its block of `a` for an exact zero once, before its k loop, and
//! runs without the skip when there is none. A SIMD lane is just eight
//! independent scalar pipelines, so results match the scalar fallback
//! bit for bit; `tests/simd_parity.rs` proves it across odd shapes, every
//! column-tail width, zero-free and zero-laced tiles and thread counts,
//! and the figure binaries' stdout stays byte-identical with SIMD on or
//! off. The one exception is a NaN's payload: when two NaNs meet in an
//! add, Rust leaves the surviving payload unspecified, and the backends
//! can pick differently.
//!
//! **The backend is the only kernel choice.** `matmul_panel`,
//! `dense_panel` and `t_panel` call the AVX2 panel when
//! [`simd_enabled`] and the scalar panel otherwise, for every shape: the
//! AVX2 tiles mask their last vector, so no column width needs the
//! scalar loop. The backend itself is a process-wide cached check,
//! `is_x86_feature_detected!("avx2")` gated by the `MGA_SIMD=0` kill
//! switch, and every run manifest records it (`"simd"`).

/// Cache block edge for the k dimension in the scalar panels (kept from
/// the original kernel; per-element accumulation order is unaffected).
const BLOCK_K: usize = 64;

// ---- backend detection -----------------------------------------------------

use std::sync::atomic::{AtomicU8, Ordering};

/// 0 = undetected, 1 = scalar, 2 = avx2.
static BACKEND: AtomicU8 = AtomicU8::new(0);

fn detect() -> u8 {
    let kill = std::env::var("MGA_SIMD").is_ok_and(|v| v == "0");
    #[cfg(target_arch = "x86_64")]
    let have = std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    let have = false;
    if have && !kill {
        2
    } else {
        1
    }
}

/// Whether the AVX2 backend is active (CPU support present and not
/// disabled via `MGA_SIMD=0`). Read once per process and cached.
#[inline]
pub fn simd_enabled() -> bool {
    let s = BACKEND.load(Ordering::Relaxed);
    if s != 0 {
        return s == 2;
    }
    let d = detect();
    BACKEND.store(d, Ordering::Relaxed);
    d == 2
}

/// Whether the CPU supports the AVX2 kernels at all, ignoring the
/// `MGA_SIMD` kill switch — lets the parity tests run both backends in
/// one process.
pub fn avx2_available() -> bool {
    #[cfg(target_arch = "x86_64")]
    {
        std::arch::is_x86_feature_detected!("avx2")
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        false
    }
}

// ---- entry points: the active backend's panel ------------------------------

/// `out += a(m×k) × b(k×n)` with the zero skip (the forward-path flavor),
/// on the active backend.
#[inline]
pub(crate) fn matmul_panel(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    if simd_enabled() {
        avx2_matmul_panel(out, a, m, k, b, n)
    } else {
        scalar_matmul_panel(out, a, m, k, b, n)
    }
}

/// `out += a(m×k) × b(k×n)` without the zero skip (the backward-path
/// flavor, `G · Wᵀ` against a pre-transposed operand), on the active
/// backend.
#[inline]
pub(crate) fn dense_panel(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    if simd_enabled() {
        avx2_dense_panel(out, a, m, k, b, n)
    } else {
        scalar_dense_panel(out, a, m, k, b, n)
    }
}

/// `out += a(rows×acols)ᵀ × b(rows×n)` (the weight-gradient kernel), on
/// the active backend.
#[inline]
pub(crate) fn t_panel(out: &mut [f32], a: &[f32], b: &[f32], rows: usize, acols: usize, n: usize) {
    if simd_enabled() {
        avx2_t_panel(out, a, b, rows, acols, n)
    } else {
        scalar_t_panel(out, a, b, rows, acols, n)
    }
}

// ---- scalar panels (the portable fallback) ---------------------------------

/// `out += a(m×k) × b(k×n)`, i-k-j order, k-blocked, skipping zero `a`
/// elements. This is the historical kernel every other backend must
/// match bit for bit.
pub fn scalar_matmul_panel(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    for k0 in (0..k).step_by(BLOCK_K) {
        let k1 = (k0 + BLOCK_K).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for kk in k0..k1 {
                let av = arow[kk];
                if av == 0.0 {
                    continue;
                }
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// `out += a(m×k) × b(k×n)` without the zero skip: every product is
/// accumulated, preserving `-0.0` and NaN propagation term for term.
pub fn scalar_dense_panel(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    for k0 in (0..k).step_by(BLOCK_K) {
        let k1 = (k0 + BLOCK_K).min(k);
        for i in 0..m {
            let arow = &a[i * k..(i + 1) * k];
            let orow = &mut out[i * n..(i + 1) * n];
            for kk in k0..k1 {
                let av = arow[kk];
                let brow = &b[kk * n..(kk + 1) * n];
                for (o, &bv) in orow.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
    }
}

/// `out += aᵀ × b` (`a` is `rows × acols`, `b` is `rows × n`, `out` is
/// `acols × n`), accumulating in full ascending-k order with the zero
/// skip — the historical `t_matmul_panel`.
pub fn scalar_t_panel(out: &mut [f32], a: &[f32], b: &[f32], rows: usize, acols: usize, n: usize) {
    for k in 0..rows {
        let arow = &a[k * acols..(k + 1) * acols];
        let brow = &b[k * n..(k + 1) * n];
        for (i, &av) in arow.iter().enumerate() {
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[i * n..(i + 1) * n];
            for (o, &bv) in orow.iter_mut().zip(brow) {
                *o += av * bv;
            }
        }
    }
}

// ---- AVX2 panels -----------------------------------------------------------

// Safe wrappers: the entry points above call these only when
// `simd_enabled` (and tests only after checking `avx2_available`). Each
// one still asserts, in every build, that AVX2 is present and that the
// slice lengths match the shape, because the tiles' pointer arithmetic
// is in bounds only under those conditions. On non-x86_64 they fall
// back to scalar and are never chosen.

/// Panics unless `s` holds exactly `rows × cols` floats.
#[track_caller]
pub(crate) fn assert_len(s: &[f32], rows: usize, cols: usize, what: &str) {
    assert!(
        rows.checked_mul(cols) == Some(s.len()),
        "{what} holds {} floats, not {rows} x {cols}",
        s.len()
    );
}

#[track_caller]
fn assert_avx2() {
    #[cfg(target_arch = "x86_64")]
    assert!(avx2_available(), "AVX2 panel called on a CPU without AVX2");
}

/// The conditions an AVX2 `out += a(m×k) × b(k×n)` panel relies on.
#[track_caller]
fn assert_matmul_panel(out: &[f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    assert_avx2();
    assert_len(out, m, n, "panel output");
    assert_len(a, m, k, "panel a");
    assert_len(b, k, n, "panel b");
}

pub fn avx2_matmul_panel(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    assert_matmul_panel(out, a, m, k, b, n);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 is present and the slices hold m×n, m×k and k×n
    // floats (asserted above).
    unsafe {
        x86::panel::<true, false>(out, a, m, k, b, n)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_matmul_panel(out, a, m, k, b, n)
}

pub fn avx2_dense_panel(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    assert_matmul_panel(out, a, m, k, b, n);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `avx2_matmul_panel`.
    unsafe {
        x86::panel::<false, false>(out, a, m, k, b, n)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_dense_panel(out, a, m, k, b, n)
}

pub fn avx2_t_panel(out: &mut [f32], a: &[f32], b: &[f32], rows: usize, acols: usize, n: usize) {
    assert_avx2();
    assert_len(out, acols, n, "t_panel output");
    assert_len(a, rows, acols, "t_panel a");
    assert_len(b, rows, n, "t_panel b");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 is present, and the slices hold acols×n, rows×acols
    // and rows×n floats (asserted above): the panel's m×n output, its
    // `a` read down columns, and its k×n `b`.
    unsafe {
        x86::panel::<true, true>(out, a, acols, rows, b, n)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_t_panel(out, a, b, rows, acols, n);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    // Index loops over the fixed-size register-accumulator arrays keep
    // the tile structure explicit; iterator rewrites obscure it.
    #![allow(clippy::needless_range_loop)]
    use std::arch::x86_64::*;

    /// `(row, step)`: where output row `i`'s term `kk` sits in `a`, at
    /// `a[i·row + kk·step]`. `a×b` reads the rows of an `m×k` `a`
    /// (`(k, 1)`); `aᵀ×b` (`COLS`) reads the columns of a `k×m` `a`
    /// (`(1, m)`).
    fn strides<const COLS: bool>(m: usize, k: usize) -> (usize, usize) {
        if COLS {
            (1, m)
        } else {
            (k, 1)
        }
    }

    /// Whether any term of output rows `i0..i0 + rows` is an exact zero:
    /// the skip's `av == 0.0` test, done once for a whole tile. For
    /// `a×b` the terms are one flat `rows × k` block of `a`, for `aᵀ×b` a
    /// `k × rows` column block, whose scan ends at the first row holding
    /// a zero. Always inlined, so `rows` is a constant in each tile.
    #[inline(always)]
    fn block_has_zero<const COLS: bool>(
        a: &[f32],
        m: usize,
        k: usize,
        i0: usize,
        rows: usize,
    ) -> bool {
        if COLS {
            a.chunks_exact(m).any(|arow| has_zero(&arow[i0..i0 + rows]))
        } else {
            has_zero(&a[i0 * k..(i0 + rows) * k])
        }
    }

    /// Whether `block` holds an exact zero: `-0.0` counts and NaN does
    /// not, as in `av == 0.0`. A fold rather than `any`, so the compares
    /// vectorize.
    #[inline(always)]
    fn has_zero(block: &[f32]) -> bool {
        block.iter().fold(false, |z, &x| z | (x == 0.0))
    }

    /// Register-blocked `out(m×n) += a×b`, or `aᵀ×b` with `COLS`, for
    /// all three AVX2 panels. Tiles the output as blocks of ymm
    /// accumulators held across the whole k loop; per element the
    /// arithmetic is ascending-k `mul` + `add` with the same `a == 0.0`
    /// skip as the scalar kernel (`SKIP`), so the result is bitwise
    /// identical to it. A skipping tile first tests its block of `a` for
    /// an exact zero and runs without the skip when there is none: a
    /// zero-free block has no term to skip.
    ///
    /// Columns run in 16-wide strips of 4-row tiles; what is left after
    /// them runs as one last strip whose final vector is masked when the
    /// width is not a multiple of 8 (a 16-wide tile for 9–15 columns, an
    /// 8-wide one for 1–7). Masked lanes at or past `n` are neither
    /// loaded nor stored; live lanes do the same arithmetic as in any
    /// other tile. Widths 4 and 12, whose masked vector would be half
    /// empty, run in [`pair_tile`]s of two row pairs instead (then one
    /// pair), and an odd last row takes the masked strip.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and that `out`, `a` and `b`
    /// hold exactly `m×n`, `m×k` (`k×m` with `COLS`) and `k×n` floats.
    /// Under those conditions all pointer arithmetic stays within the
    /// slices, and masked-off lanes touch no memory.
    #[target_feature(enable = "avx2")]
    pub unsafe fn panel<const SKIP: bool, const COLS: bool>(
        out: &mut [f32],
        a: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
    ) {
        if n == 4 || n == 12 {
            let mut i = 0usize;
            while i + 4 <= m {
                if n == 4 {
                    pair_tile::<SKIP, COLS, 2, 1>(out, a, m, k, b, i);
                } else {
                    pair_tile::<SKIP, COLS, 2, 3>(out, a, m, k, b, i);
                }
                i += 4;
            }
            if i + 2 <= m {
                if n == 4 {
                    pair_tile::<SKIP, COLS, 1, 1>(out, a, m, k, b, i);
                } else {
                    pair_tile::<SKIP, COLS, 1, 3>(out, a, m, k, b, i);
                }
                i += 2;
            }
            if i < m {
                if n == 4 {
                    tile::<SKIP, COLS, true, 1, 1>(out, a, m, k, b, n, i, 0);
                } else {
                    tile::<SKIP, COLS, true, 1, 2>(out, a, m, k, b, n, i, 0);
                }
            }
            return;
        }
        let mut j = 0usize;
        while j + 16 <= n {
            let mut i = 0usize;
            while i + 4 <= m {
                tile::<SKIP, COLS, false, 4, 2>(out, a, m, k, b, n, i, j);
                i += 4;
            }
            while i < m {
                tile::<SKIP, COLS, false, 1, 2>(out, a, m, k, b, n, i, j);
                i += 1;
            }
            j += 16;
        }
        if j + 8 < n {
            let mut i = 0usize;
            while i + 4 <= m {
                tile::<SKIP, COLS, true, 4, 2>(out, a, m, k, b, n, i, j);
                i += 4;
            }
            while i < m {
                tile::<SKIP, COLS, true, 1, 2>(out, a, m, k, b, n, i, j);
                i += 1;
            }
        } else if j + 8 == n {
            let mut i = 0usize;
            while i + 4 <= m {
                tile::<SKIP, COLS, false, 4, 1>(out, a, m, k, b, n, i, j);
                i += 4;
            }
            while i < m {
                tile::<SKIP, COLS, false, 1, 1>(out, a, m, k, b, n, i, j);
                i += 1;
            }
        } else if j < n {
            let mut i = 0usize;
            while i + 4 <= m {
                tile::<SKIP, COLS, true, 4, 1>(out, a, m, k, b, n, i, j);
                i += 4;
            }
            while i < m {
                tile::<SKIP, COLS, true, 1, 1>(out, a, m, k, b, n, i, j);
                i += 1;
            }
        }
    }

    /// Lane mask for a column strip with `rem` live columns: lanes
    /// `0..rem` set (all eight when `rem >= 8`), the rest clear.
    #[target_feature(enable = "avx2")]
    fn lanes_below(rem: usize) -> __m256i {
        let live = _mm256_set1_epi32(rem.min(8) as i32);
        _mm256_cmpgt_epi32(live, _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7))
    }

    /// One `MR × (8·NV)` output tile at rows `i0..`, columns `j0..`:
    /// load accumulators, stream k, store. `a` is read at [`strides`],
    /// `b` row-major. In a `MASKED` tile the last vector loads and
    /// stores only its lanes below column `n`.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available; that `out`, `a` and `b`
    /// hold `m×n`, `m×k` (`k×m` with `COLS`) and `k×n` floats with
    /// `i0 + MR <= m`; and that the tile's columns fit: `j0 + 8·NV <= n`,
    /// or with `MASKED`, `j0 + 8·(NV−1) < n`.
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile<
        const SKIP: bool,
        const COLS: bool,
        const MASKED: bool,
        const MR: usize,
        const NV: usize,
    >(
        out: &mut [f32],
        a: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
        i0: usize,
        j0: usize,
    ) {
        if SKIP && !block_has_zero::<COLS>(a, m, k, i0, MR) {
            return tile::<false, COLS, MASKED, MR, NV>(out, a, m, k, b, n, i0, j0);
        }
        let (row, step) = strides::<COLS>(m, k);
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mask = lanes_below(n - j0 - 8 * (NV - 1));
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        for r in 0..MR {
            for v in 0..NV {
                let o = op.add((i0 + r) * n + j0 + 8 * v);
                acc[r][v] = if MASKED && v == NV - 1 {
                    _mm256_maskload_ps(o, mask)
                } else {
                    _mm256_loadu_ps(o)
                };
            }
        }
        for kk in 0..k {
            let brow = bp.add(kk * n + j0);
            let mut bv = [_mm256_setzero_ps(); NV];
            for v in 0..NV {
                let p = brow.add(8 * v);
                bv[v] = if MASKED && v == NV - 1 {
                    _mm256_maskload_ps(p, mask)
                } else {
                    _mm256_loadu_ps(p)
                };
            }
            for r in 0..MR {
                let av = *ap.add((i0 + r) * row + kk * step);
                if SKIP && av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_ps(av);
                for v in 0..NV {
                    // mul + add as two rounding steps — never FMA — to
                    // match the scalar `*o += av * bv` exactly.
                    acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, bv[v]));
                }
            }
        }
        for r in 0..MR {
            for v in 0..NV {
                let o = op.add((i0 + r) * n + j0 + 8 * v);
                if MASKED && v == NV - 1 {
                    _mm256_maskstore_ps(o, mask, acc[r][v]);
                } else {
                    _mm256_storeu_ps(o, acc[r][v]);
                }
            }
        }
    }

    /// `P` pairs of whole output rows from row `i0`, at width `n = 4·NV`
    /// with `NV` odd (`n` is 4 or 12). Two adjacent rows are `8·NV` contiguous
    /// floats, so a pair fills `NV` whole vectors: the ones below the
    /// middle vector hold the first row, the ones above it the second,
    /// and the middle one the first row's last 4 columns in its low
    /// lanes and the second row's first 4 in its high lanes. `a` is read
    /// at [`strides`], so one tile serves `a×b` and `aᵀ×b`. Every lane
    /// does the same ascending-k `mul` + `add` as in [`tile`]. With
    /// `SKIP`, a k whose term is ±0 in both rows is skipped for the pair,
    /// and one whose term is ±0 in one row leaves that row's vectors, and
    /// its lanes of the middle vector, as they were. That measured faster
    /// than sending a block that holds a zero to the masked [`tile`].
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available; that `NV` is odd; and that
    /// `out`, `a` and `b` hold `m×n`, `m×k` (`k×m` with `COLS`) and `k×n`
    /// floats for `n = 4·NV`, with `i0 + 2·P <= m`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn pair_tile<const SKIP: bool, const COLS: bool, const P: usize, const NV: usize>(
        out: &mut [f32],
        a: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        i0: usize,
    ) {
        if SKIP && !block_has_zero::<COLS>(a, m, k, i0, 2 * P) {
            return pair_tile::<false, COLS, P, NV>(out, a, m, k, b, i0);
        }
        let (n, mid) = (4 * NV, NV / 2);
        let (row, step) = strides::<COLS>(m, k);
        let (op, ap, bp) = (out.as_mut_ptr(), a.as_ptr(), b.as_ptr());
        let mut acc = [[_mm256_setzero_ps(); NV]; P];
        for p in 0..P {
            for v in 0..NV {
                acc[p][v] = _mm256_loadu_ps(op.add((i0 + 2 * p) * n + 8 * v));
            }
        }
        for kk in 0..k {
            // Each pair's terms, broadcast: the first row's, the middle
            // vector's mix of both, the second row's.
            let mut va = [[_mm256_setzero_ps(); 3]; P];
            // With SKIP, bit 8·p + lane is set where pair p's mix is ±0
            // (NaN is not: an ordered compare).
            let mut zero = 0i32;
            for p in 0..P {
                let r0 = i0 + 2 * p;
                let a0 = _mm256_set1_ps(*ap.add(r0 * row + kk * step));
                let a1 = _mm256_set1_ps(*ap.add((r0 + 1) * row + kk * step));
                let mix = _mm256_blend_ps::<0xf0>(a0, a1);
                if SKIP {
                    let eq = _mm256_cmp_ps::<_CMP_EQ_OQ>(mix, _mm256_setzero_ps());
                    zero |= _mm256_movemask_ps(eq) << (8 * p);
                }
                va[p] = [a0, mix, a1];
            }
            let brow = bp.add(kk * n);
            let mut bv = [_mm256_setzero_ps(); NV];
            for v in 0..NV {
                bv[v] = match v.cmp(&mid) {
                    std::cmp::Ordering::Less => _mm256_loadu_ps(brow.add(8 * v)),
                    std::cmp::Ordering::Equal => _mm256_loadu2_m128(brow, brow.add(8 * v)),
                    std::cmp::Ordering::Greater => _mm256_loadu_ps(brow.add(8 * v - n)),
                };
            }
            if SKIP && zero != 0 {
                for p in 0..P {
                    let z = (zero >> (8 * p)) & 0xff;
                    if z == 0xff {
                        continue;
                    }
                    let sum = _mm256_add_ps(acc[p][mid], _mm256_mul_ps(va[p][1], bv[mid]));
                    // A row whose term is ±0 keeps its lanes of the
                    // middle vector, and its own vectors, as they were.
                    acc[p][mid] = match z {
                        0x0f => _mm256_blend_ps::<0xf0>(acc[p][mid], sum),
                        0xf0 => _mm256_blend_ps::<0xf0>(sum, acc[p][mid]),
                        _ => sum,
                    };
                    if z != 0x0f {
                        for v in 0..mid {
                            acc[p][v] = _mm256_add_ps(acc[p][v], _mm256_mul_ps(va[p][0], bv[v]));
                        }
                    }
                    if z != 0xf0 {
                        for v in mid + 1..NV {
                            acc[p][v] = _mm256_add_ps(acc[p][v], _mm256_mul_ps(va[p][2], bv[v]));
                        }
                    }
                }
                continue;
            }
            for p in 0..P {
                for v in 0..NV {
                    let x = match v.cmp(&mid) {
                        std::cmp::Ordering::Less => va[p][0],
                        std::cmp::Ordering::Equal => va[p][1],
                        std::cmp::Ordering::Greater => va[p][2],
                    };
                    // mul + add as two rounding steps, as in `tile`.
                    acc[p][v] = _mm256_add_ps(acc[p][v], _mm256_mul_ps(x, bv[v]));
                }
            }
        }
        for p in 0..P {
            for v in 0..NV {
                _mm256_storeu_ps(op.add((i0 + 2 * p) * n + 8 * v), acc[p][v]);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seeded(len: usize, seed: u64, zero_frac: bool) -> Vec<f32> {
        let mut state = seed.wrapping_mul(2654435761).wrapping_add(1);
        (0..len)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5;
                if zero_frac && (state >> 61) == 0 {
                    0.0
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn avx2_matmul_matches_scalar_bitwise() {
        if !avx2_available() {
            return;
        }
        for &(m, k, n) in &[
            (1usize, 13usize, 24usize),
            (4, 64, 16),
            (5, 7, 9),
            (3, 1, 33),
            (7, 0, 12),
            (0, 5, 8),
            (9, 17, 8),
            (2, 3, 7),
        ] {
            let a = seeded(m * k, 1 + (m * 31 + k) as u64, true);
            let b = seeded(k * n, 77 + n as u64, false);
            let mut o1 = seeded(m * n, 5, false);
            let mut o2 = o1.clone();
            scalar_matmul_panel(&mut o1, &a, m, k, &b, n);
            avx2_matmul_panel(&mut o2, &a, m, k, &b, n);
            let w1: Vec<u32> = o1.iter().map(|v| v.to_bits()).collect();
            let w2: Vec<u32> = o2.iter().map(|v| v.to_bits()).collect();
            assert_eq!(w1, w2, "({m},{k},{n}) diverged");
        }
    }
}
