//! Explicit-SIMD microkernels and the backend that picks them.
//!
//! The release profile already pins `x86-64-v3`, so the scalar panels in
//! [`crate::tensor`] autovectorize — but they stream every partial sum
//! through memory (`out[i][j] += a·b` is a load + store per k step).
//! The AVX2 microkernels here hold a register-blocked tile of the output
//! (4 rows × 16 columns) across the whole k loop, cutting the inner-loop
//! memory traffic to the two `b`-row loads and four `a` broadcasts that
//! feed each 16-FLOP step.
//!
//! **Bitwise parity is structural.** For every output element both
//! backends execute the identical scalar-semantics sequence: ascending-k
//! accumulation, one `mul` + one `add` rounding step per term
//! (`_mm256_mul_ps`/`_mm256_add_ps`, never FMA — Rust never contracts),
//! and the same `a == 0.0` skip the scalar kernel performs. A SIMD lane
//! is just eight independent scalar pipelines, so results match the
//! scalar fallback bit for bit; `tests/simd_parity.rs` proves it across
//! odd shapes, every column-tail width and thread counts, and the figure
//! binaries' stdout stays byte-identical with SIMD on or off. The one
//! exception is a NaN's payload: when two NaNs meet in an add, Rust
//! leaves the surviving payload unspecified, and the backends can pick
//! differently.
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

/// Output rows `[lo, hi)` of `a(rows×acols)ᵀ × b(rows×n)` accumulated
/// into `out` (the weight-gradient kernel), on the active backend.
#[inline]
#[allow(clippy::too_many_arguments)]
pub(crate) fn t_panel(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    rows: usize,
    acols: usize,
    n: usize,
    lo: usize,
    hi: usize,
) {
    if simd_enabled() {
        avx2_t_panel(out, a, b, rows, acols, n, lo, hi)
    } else {
        scalar_t_panel(out, a, b, rows, acols, n, lo, hi)
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

/// Output rows `[lo, hi)` of `aᵀ × b` (`a` is `rows × acols`, `b` is
/// `rows × n`), accumulating in full ascending-k order with the zero
/// skip — the historical `t_matmul_panel`.
#[allow(clippy::too_many_arguments)]
pub fn scalar_t_panel(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    rows: usize,
    acols: usize,
    n: usize,
    lo: usize,
    hi: usize,
) {
    for k in 0..rows {
        let arow = &a[k * acols..(k + 1) * acols];
        let brow = &b[k * n..(k + 1) * n];
        for i in lo..hi {
            let av = arow[i];
            if av == 0.0 {
                continue;
            }
            let orow = &mut out[(i - lo) * n..(i - lo + 1) * n];
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
        x86::matmul_panel::<true>(out, a, m, k, b, n)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_matmul_panel(out, a, m, k, b, n)
}

pub fn avx2_dense_panel(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    assert_matmul_panel(out, a, m, k, b, n);
    #[cfg(target_arch = "x86_64")]
    // SAFETY: as in `avx2_matmul_panel`.
    unsafe {
        x86::matmul_panel::<false>(out, a, m, k, b, n)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_dense_panel(out, a, m, k, b, n)
}

#[allow(clippy::too_many_arguments)]
pub fn avx2_t_panel(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    rows: usize,
    acols: usize,
    n: usize,
    lo: usize,
    hi: usize,
) {
    assert_avx2();
    assert!(
        lo <= hi && hi <= acols,
        "t_panel rows {lo}..{hi} are not within 0..{acols}"
    );
    assert_len(out, hi - lo, n, "t_panel output");
    assert_len(a, rows, acols, "t_panel a");
    assert_len(b, rows, n, "t_panel b");
    #[cfg(target_arch = "x86_64")]
    // SAFETY: AVX2 is present, `lo <= hi <= acols`, and the slices hold
    // (hi−lo)×n, rows×acols and rows×n floats (asserted above).
    unsafe {
        x86::t_panel(out, a, b, rows, acols, n, lo, hi)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_t_panel(out, a, b, rows, acols, n, lo, hi);
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    // Index loops over the fixed-size register-accumulator arrays keep
    // the tile structure explicit; iterator rewrites obscure it.
    #![allow(clippy::needless_range_loop)]
    use std::arch::x86_64::*;

    /// Register-blocked `out += a×b` row panel. Tiles the output as
    /// `MR × (8·NV)` blocks of ymm accumulators held across the whole k
    /// loop; per element the arithmetic is ascending-k `mul` + `add`
    /// with the same `a == 0.0` skip as the scalar kernel (`SKIP`), so
    /// the result is bitwise identical to it. Columns run in 16-wide
    /// strips; what is left after them runs as one last strip whose
    /// final vector is masked when the width is not a multiple of 8 (a
    /// 16-wide tile for 9–15 columns, an 8-wide one for 1–7). Masked
    /// lanes at or past `n` are neither loaded nor stored; live lanes
    /// do the same arithmetic as in any other tile.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available and that `out`, `a` and `b`
    /// hold exactly `m×n`, `m×k` and `k×n` floats. Under those
    /// conditions all pointer arithmetic stays within the slices, and
    /// masked-off lanes touch no memory.
    #[target_feature(enable = "avx2")]
    pub unsafe fn matmul_panel<const SKIP: bool>(
        out: &mut [f32],
        a: &[f32],
        m: usize,
        k: usize,
        b: &[f32],
        n: usize,
    ) {
        let op = out.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut j = 0usize;
        while j + 16 <= n {
            let mut i = 0usize;
            while i + 4 <= m {
                tile::<SKIP, false, 4, 2>(op, ap, bp, k, n, i, j);
                i += 4;
            }
            while i < m {
                tile::<SKIP, false, 1, 2>(op, ap, bp, k, n, i, j);
                i += 1;
            }
            j += 16;
        }
        if j + 8 < n {
            let mut i = 0usize;
            while i + 4 <= m {
                tile::<SKIP, true, 4, 2>(op, ap, bp, k, n, i, j);
                i += 4;
            }
            while i < m {
                tile::<SKIP, true, 1, 2>(op, ap, bp, k, n, i, j);
                i += 1;
            }
        } else if j + 8 == n {
            let mut i = 0usize;
            while i + 4 <= m {
                tile::<SKIP, false, 4, 1>(op, ap, bp, k, n, i, j);
                i += 4;
            }
            while i < m {
                tile::<SKIP, false, 1, 1>(op, ap, bp, k, n, i, j);
                i += 1;
            }
        } else if j < n {
            let mut i = 0usize;
            while i + 4 <= m {
                tile::<SKIP, true, 4, 1>(op, ap, bp, k, n, i, j);
                i += 4;
            }
            while i < m {
                tile::<SKIP, true, 1, 1>(op, ap, bp, k, n, i, j);
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

    /// One `MR × (8·NV)` output tile: load accumulators, stream k,
    /// store. `a` is indexed `(i0+r)·k + kk`, `b` row-major. In a
    /// `MASKED` tile the last vector loads and stores only its lanes
    /// below column `n`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile<const SKIP: bool, const MASKED: bool, const MR: usize, const NV: usize>(
        out: *mut f32,
        a: *const f32,
        b: *const f32,
        k: usize,
        n: usize,
        i0: usize,
        j0: usize,
    ) {
        let mask = lanes_below(n - j0 - 8 * (NV - 1));
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        for r in 0..MR {
            for v in 0..NV {
                let o = out.add((i0 + r) * n + j0 + 8 * v);
                acc[r][v] = if MASKED && v == NV - 1 {
                    _mm256_maskload_ps(o, mask)
                } else {
                    _mm256_loadu_ps(o)
                };
            }
        }
        for kk in 0..k {
            let brow = b.add(kk * n + j0);
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
                let av = *a.add((i0 + r) * k + kk);
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
                let o = out.add((i0 + r) * n + j0 + 8 * v);
                if MASKED && v == NV - 1 {
                    _mm256_maskstore_ps(o, mask, acc[r][v]);
                } else {
                    _mm256_storeu_ps(o, acc[r][v]);
                }
            }
        }
    }

    /// Register-blocked `aᵀ×b` panel for output rows `[lo, hi)` — the
    /// weight-gradient kernel. Same strips and masked last strip as
    /// [`matmul_panel`]; `a` is walked down column `i` (stride `acols`)
    /// for the broadcast operand.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available, `lo <= hi <= acols`, and
    /// that `out`, `a` and `b` hold exactly `(hi−lo)×n`, `rows×acols`
    /// and `rows×n` floats.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn t_panel(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        rows: usize,
        acols: usize,
        n: usize,
        lo: usize,
        hi: usize,
    ) {
        let op = out.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut j = 0usize;
        while j + 16 <= n {
            let mut i = lo;
            while i + 4 <= hi {
                t_tile::<false, 4, 2>(op, ap, bp, rows, acols, n, lo, i, j);
                i += 4;
            }
            while i < hi {
                t_tile::<false, 1, 2>(op, ap, bp, rows, acols, n, lo, i, j);
                i += 1;
            }
            j += 16;
        }
        if j + 8 < n {
            let mut i = lo;
            while i + 4 <= hi {
                t_tile::<true, 4, 2>(op, ap, bp, rows, acols, n, lo, i, j);
                i += 4;
            }
            while i < hi {
                t_tile::<true, 1, 2>(op, ap, bp, rows, acols, n, lo, i, j);
                i += 1;
            }
        } else if j + 8 == n {
            let mut i = lo;
            while i + 4 <= hi {
                t_tile::<false, 4, 1>(op, ap, bp, rows, acols, n, lo, i, j);
                i += 4;
            }
            while i < hi {
                t_tile::<false, 1, 1>(op, ap, bp, rows, acols, n, lo, i, j);
                i += 1;
            }
        } else if j < n {
            let mut i = lo;
            while i + 4 <= hi {
                t_tile::<true, 4, 1>(op, ap, bp, rows, acols, n, lo, i, j);
                i += 4;
            }
            while i < hi {
                t_tile::<true, 1, 1>(op, ap, bp, rows, acols, n, lo, i, j);
                i += 1;
            }
        }
    }

    /// One `MR × (8·NV)` tile of `aᵀ×b`; `MASKED` as in [`tile`].
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn t_tile<const MASKED: bool, const MR: usize, const NV: usize>(
        out: *mut f32,
        a: *const f32,
        b: *const f32,
        rows: usize,
        acols: usize,
        n: usize,
        lo: usize,
        i0: usize,
        j0: usize,
    ) {
        let mask = lanes_below(n - j0 - 8 * (NV - 1));
        let mut acc = [[_mm256_setzero_ps(); NV]; MR];
        for r in 0..MR {
            for v in 0..NV {
                let o = out.add((i0 - lo + r) * n + j0 + 8 * v);
                acc[r][v] = if MASKED && v == NV - 1 {
                    _mm256_maskload_ps(o, mask)
                } else {
                    _mm256_loadu_ps(o)
                };
            }
        }
        for kk in 0..rows {
            let brow = b.add(kk * n + j0);
            let mut bv = [_mm256_setzero_ps(); NV];
            for v in 0..NV {
                let p = brow.add(8 * v);
                bv[v] = if MASKED && v == NV - 1 {
                    _mm256_maskload_ps(p, mask)
                } else {
                    _mm256_loadu_ps(p)
                };
            }
            let acol = a.add(kk * acols + i0);
            for r in 0..MR {
                let av = *acol.add(r);
                if av == 0.0 {
                    continue;
                }
                let va = _mm256_set1_ps(av);
                for v in 0..NV {
                    acc[r][v] = _mm256_add_ps(acc[r][v], _mm256_mul_ps(va, bv[v]));
                }
            }
        }
        for r in 0..MR {
            for v in 0..NV {
                let o = out.add((i0 - lo + r) * n + j0 + 8 * v);
                if MASKED && v == NV - 1 {
                    _mm256_maskstore_ps(o, mask, acc[r][v]);
                } else {
                    _mm256_storeu_ps(o, acc[r][v]);
                }
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
