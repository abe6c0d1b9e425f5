//! Explicit-SIMD microkernels with per-shape dispatch.
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
//! Dispatch is resolved *per shape*, once, at plan time: a
//! [`DispatchTable`] memoizes the kernel choice per `(m, k, n)` so the
//! steady-state hot loop calls a cached function pointer — no env reads,
//! no feature detection, no branches. The backend decision itself is a
//! process-wide cached check: `is_x86_feature_detected!("avx2")` gated
//! by the `MGA_SIMD=0` kill switch. Selections are counted in the
//! `kernel.dispatch_avx2` / `kernel.dispatch_scalar` metrics.

/// Cache block edge for the k dimension in the scalar panels (kept from
/// the original kernel; per-element accumulation order is unaffected).
const BLOCK_K: usize = 64;

/// A row-panel matmul kernel: `out(m×n) += a(m×k) × b(k×n)`.
pub type PanelFn = fn(&mut [f32], &[f32], usize, usize, &[f32], usize);

/// A row-panel `aᵀ×b` kernel: output rows `[lo, hi)` of
/// `a(rows×acols)ᵀ × b(rows×n)` accumulated into `out`.
pub type TPanelFn = fn(&mut [f32], &[f32], &[f32], usize, usize, usize, usize, usize);

/// A row-panel `a×bᵀ` kernel: `out(m×n) = a(m×k) × b(n×k)ᵀ`
/// (overwrite), or `out += …` when the final flag is set. Each output
/// element is one full ascending-k dot product followed by a single
/// store or add.
pub type MtPanelFn = fn(&mut [f32], &[f32], &[f32], usize, usize, usize, bool);

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

// ---- selection -------------------------------------------------------------

/// Minimum column count for the vector kernels; below one lane the tile
/// machinery is pure overhead and the scalar panel wins.
const MIN_SIMD_N: usize = 8;

fn count(simd: bool) {
    if simd {
        mga_obs::metrics::counter("kernel.dispatch_avx2").inc();
    } else {
        mga_obs::metrics::counter("kernel.dispatch_scalar").inc();
    }
}

/// Uncounted kernel choice for the self-selecting `tensor::*_into`
/// wrappers — one cached atomic load plus a width check, cheap enough
/// for per-call use in the backward pass. The metric-counting
/// [`select_matmul`] family wraps these for plan-time resolution.
#[inline]
pub fn choose_matmul(n: usize) -> PanelFn {
    if simd_enabled() && n >= MIN_SIMD_N {
        avx2_matmul_panel
    } else {
        scalar_matmul_panel
    }
}

/// Uncounted dense-kernel choice (see [`choose_matmul`]).
#[inline]
pub fn choose_dense(n: usize) -> PanelFn {
    if simd_enabled() && n >= MIN_SIMD_N {
        avx2_dense_panel
    } else {
        scalar_dense_panel
    }
}

/// Uncounted `aᵀ×b` kernel choice (see [`choose_matmul`]).
#[inline]
pub fn choose_t_matmul(n: usize) -> TPanelFn {
    if simd_enabled() && n >= MIN_SIMD_N {
        avx2_t_panel
    } else {
        scalar_t_panel
    }
}

/// Uncounted `a×bᵀ` kernel choice (see [`choose_matmul`]). `n` is the
/// output width — the row count of `b`.
#[inline]
pub fn choose_mt_matmul(n: usize) -> MtPanelFn {
    if simd_enabled() && n >= MIN_SIMD_N {
        avx2_mt_panel
    } else {
        scalar_mt_panel
    }
}

/// Select the `out += a×b` panel kernel (zero-skip semantics, the
/// forward-path flavor) for a `(m, k, n)` problem, counting the decision
/// in the `kernel.dispatch_*` metrics — call this at plan/tape-compile
/// time, once per shape. The choice depends only on `n` and the backend,
/// so a selection made at plan-compile time for one row count stays
/// valid for every micro-batch size.
pub fn select_matmul(_m: usize, _k: usize, n: usize) -> PanelFn {
    let f = choose_matmul(n);
    count(simd_enabled() && n >= MIN_SIMD_N);
    f
}

/// Select the dense (no zero-skip) panel kernel — the backward-path
/// flavor used for `G · Wᵀ` against a pre-transposed operand. Counted;
/// see [`select_matmul`].
pub fn select_dense(_m: usize, _k: usize, n: usize) -> PanelFn {
    let f = choose_dense(n);
    count(simd_enabled() && n >= MIN_SIMD_N);
    f
}

/// Select the `aᵀ×b` panel kernel (weight gradients). Counted; see
/// [`select_matmul`].
pub fn select_t_matmul(_rows: usize, _acols: usize, n: usize) -> TPanelFn {
    let f = choose_t_matmul(n);
    count(simd_enabled() && n >= MIN_SIMD_N);
    f
}

/// Select the `a×bᵀ` dot-product panel kernel. Counted; see
/// [`select_matmul`].
pub fn select_mt_matmul(_m: usize, _k: usize, n: usize) -> MtPanelFn {
    let f = choose_mt_matmul(n);
    count(simd_enabled() && n >= MIN_SIMD_N);
    f
}

/// Per-shape kernel memo: the tape and the inference plan resolve their
/// kernels through one of these, so each distinct `(m, k, n)` pays for
/// selection (and its dispatch counter) exactly once and every replay or
/// request hits a cached function pointer.
#[derive(Default)]
pub struct DispatchTable {
    matmul: Vec<((usize, usize, usize), PanelFn)>,
    dense: Vec<((usize, usize, usize), PanelFn)>,
    mt: Vec<((usize, usize, usize), MtPanelFn)>,
}

impl DispatchTable {
    pub fn new() -> DispatchTable {
        DispatchTable::default()
    }

    pub fn matmul(&mut self, m: usize, k: usize, n: usize) -> PanelFn {
        let key = (m, k, n);
        if let Some(&(_, f)) = self.matmul.iter().find(|(s, _)| *s == key) {
            return f;
        }
        let f = select_matmul(m, k, n);
        self.matmul.push((key, f));
        f
    }

    pub fn dense(&mut self, m: usize, k: usize, n: usize) -> PanelFn {
        let key = (m, k, n);
        if let Some(&(_, f)) = self.dense.iter().find(|(s, _)| *s == key) {
            return f;
        }
        let f = select_dense(m, k, n);
        self.dense.push((key, f));
        f
    }

    pub fn matmul_t(&mut self, m: usize, k: usize, n: usize) -> MtPanelFn {
        let key = (m, k, n);
        if let Some(&(_, f)) = self.mt.iter().find(|(s, _)| *s == key) {
            return f;
        }
        let f = select_mt_matmul(m, k, n);
        self.mt.push((key, f));
        f
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

/// `out = a(m×k) × b(n×k)ᵀ` (or `+=` when `acc`): each output element is
/// one full ascending-k dot product into a fresh accumulator, then a
/// single store or add — the historical `matmul_t_panel` every other
/// backend must match bit for bit. No zero skip: dot products are dense.
pub fn scalar_mt_panel(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    for i in 0..m {
        let arow = &a[i * k..(i + 1) * k];
        let orow = &mut out[i * n..(i + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            let brow = &b[j * k..(j + 1) * k];
            let mut dot = 0.0f32;
            for kk in 0..k {
                dot += arow[kk] * brow[kk];
            }
            if acc {
                *o += dot;
            } else {
                *o = dot;
            }
        }
    }
}

// ---- AVX2 panels -----------------------------------------------------------

// Safe wrappers: selection only returns these when `simd_enabled` (or
// a test checked `avx2_available`), so the target-feature contract
// holds. On non-x86_64 they fall back to scalar and are never selected.

pub fn avx2_matmul_panel(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        x86::matmul_panel::<true>(out, a, m, k, b, n)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_matmul_panel(out, a, m, k, b, n)
}

pub fn avx2_dense_panel(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    #[cfg(target_arch = "x86_64")]
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
    #[cfg(target_arch = "x86_64")]
    unsafe {
        x86::t_panel(out, a, b, rows, acols, n, lo, hi)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_t_panel(out, a, b, rows, acols, n, lo, hi);
}

#[allow(clippy::too_many_arguments)]
pub fn avx2_mt_panel(
    out: &mut [f32],
    a: &[f32],
    b: &[f32],
    m: usize,
    k: usize,
    n: usize,
    acc: bool,
) {
    #[cfg(target_arch = "x86_64")]
    unsafe {
        x86::mt_panel(out, a, b, m, k, n, acc)
    }
    #[cfg(not(target_arch = "x86_64"))]
    scalar_mt_panel(out, a, b, m, k, n, acc);
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
    /// Caller must ensure AVX2 is available. Slice bounds are debug
    /// asserted; all pointer arithmetic stays within the slices, and
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
        debug_assert_eq!(out.len(), m * n);
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), k * n);
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
    /// Caller must ensure AVX2 is available.
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
        debug_assert_eq!(out.len(), (hi - lo) * n);
        debug_assert_eq!(a.len(), rows * acols);
        debug_assert_eq!(b.len(), rows * n);
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

    /// Vectorized `a×bᵀ` panel. Lanes run across eight *output columns*
    /// (rows of `b`); the column's k-strided values come in through
    /// `_mm256_i32gather_ps`, so each lane is a complete ascending-k
    /// scalar dot-product chain (one `mul` + one `add` per term into a
    /// zeroed accumulator) — bitwise identical to [`super::scalar_mt_panel`].
    /// Four `a` rows share each gathered vector to amortize the gather.
    /// The final store is the scalar kernel's single `=` or `+=`.
    ///
    /// # Safety
    /// Caller must ensure AVX2 is available.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn mt_panel(
        out: &mut [f32],
        a: &[f32],
        b: &[f32],
        m: usize,
        k: usize,
        n: usize,
        acc: bool,
    ) {
        debug_assert_eq!(out.len(), m * n);
        debug_assert_eq!(a.len(), m * k);
        debug_assert_eq!(b.len(), n * k);
        // Gather offsets are i32 lane indices relative to `b[j0*k]`; the
        // largest is 8k-1.
        debug_assert!(k <= i32::MAX as usize / 8, "k too large for i32 gather");
        let op = out.as_mut_ptr();
        let ap = a.as_ptr();
        let bp = b.as_ptr();
        let mut j = 0usize;
        while j + 8 <= n {
            let mut i = 0usize;
            while i + 4 <= m {
                mt_tile::<4>(op, ap, bp, k, n, i, j, acc);
                i += 4;
            }
            while i < m {
                mt_tile::<1>(op, ap, bp, k, n, i, j, acc);
                i += 1;
            }
            j += 8;
        }
        if j < n {
            // Scalar tail columns [j, n): the historical per-element dot.
            for i in 0..m {
                let arow = &a[i * k..(i + 1) * k];
                let orow = &mut out[i * n + j..(i + 1) * n];
                for (jj, o) in (j..n).zip(orow.iter_mut()) {
                    let brow = &b[jj * k..(jj + 1) * k];
                    let mut dot = 0.0f32;
                    for kk in 0..k {
                        dot += arow[kk] * brow[kk];
                    }
                    if acc {
                        *o += dot;
                    } else {
                        *o = dot;
                    }
                }
            }
        }
    }

    /// One `MR × 8` tile of `a×bᵀ`: eight columns per gather, `MR` rows
    /// broadcast against it.
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn mt_tile<const MR: usize>(
        out: *mut f32,
        a: *const f32,
        b: *const f32,
        k: usize,
        n: usize,
        i0: usize,
        j0: usize,
        acc: bool,
    ) {
        let ki = k as i32;
        // Lane l reads column j0+l of the output — row j0+l of `b`,
        // which starts l·k floats past `b[j0·k]`.
        let lanes = _mm256_setr_epi32(0, ki, 2 * ki, 3 * ki, 4 * ki, 5 * ki, 6 * ki, 7 * ki);
        let ones = _mm256_set1_epi32(1);
        let bbase = b.add(j0 * k);
        let mut dotv = [_mm256_setzero_ps(); MR];
        let mut idx = lanes;
        for kk in 0..k {
            let bv = _mm256_i32gather_ps::<4>(bbase, idx);
            idx = _mm256_add_epi32(idx, ones);
            for r in 0..MR {
                let va = _mm256_set1_ps(*a.add((i0 + r) * k + kk));
                // mul + add as two rounding steps — never FMA — to match
                // the scalar `dot += a * b` exactly.
                dotv[r] = _mm256_add_ps(dotv[r], _mm256_mul_ps(va, bv));
            }
        }
        for r in 0..MR {
            let o = out.add((i0 + r) * n + j0);
            let v = if acc {
                _mm256_add_ps(_mm256_loadu_ps(o), dotv[r])
            } else {
                dotv[r]
            };
            _mm256_storeu_ps(o, v);
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

    #[test]
    fn avx2_mt_matches_scalar_bitwise() {
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
            (6, 24, 10),
        ] {
            for &acc in &[false, true] {
                let a = seeded(m * k, 1 + (m * 31 + k) as u64, true);
                let b = seeded(n * k, 77 + n as u64, false);
                let mut o1 = seeded(m * n, 5, false);
                let mut o2 = o1.clone();
                scalar_mt_panel(&mut o1, &a, &b, m, k, n, acc);
                avx2_mt_panel(&mut o2, &a, &b, m, k, n, acc);
                let w1: Vec<u32> = o1.iter().map(|v| v.to_bits()).collect();
                let w2: Vec<u32> = o2.iter().map(|v| v.to_bits()).collect();
                assert_eq!(w1, w2, "({m},{k},{n}) acc={acc} diverged");
            }
        }
    }

    #[test]
    fn dispatch_table_memoizes() {
        let mut t = DispatchTable::new();
        let f1 = t.matmul(4, 8, 16);
        let f2 = t.matmul(4, 8, 16);
        assert!(std::ptr::fn_addr_eq(f1, f2));
        assert_eq!(t.matmul.len(), 1);
        let _ = t.matmul(4, 8, 17);
        assert_eq!(t.matmul.len(), 2);
    }

    #[test]
    fn selection_respects_min_width() {
        // n < 8 must always pick the scalar panel, whatever the backend.
        let f = select_matmul(64, 64, 7);
        assert!(std::ptr::fn_addr_eq(f, scalar_matmul_panel as PanelFn));
    }
}
