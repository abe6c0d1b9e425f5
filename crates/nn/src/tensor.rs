//! Dense row-major f32 tensors with cache-blocked matmul.
//!
//! Tensors here are rank-2 matrices `[rows, cols]`; vectors are `[1, n]`
//! rows. That covers everything the MGA models need while keeping the
//! kernels simple enough to optimize properly: the matmul is i-k-j loop
//! ordered (streaming through `b` rows) and blocked for L1/L2 reuse. The
//! kernels run on the calling thread; parallelism lives one level up, in
//! the jobs the worker pool ([`crate::pool`]) runs. Each output row's
//! accumulation order is fixed, so a row computes the same bits in any
//! micro-batch or alone.
//!
//! The inner row-panel kernels live in [`crate::simd`]: an explicit-AVX2
//! register-blocked backend with a portable scalar fallback, both
//! bitwise-identical per element, chosen by the process-wide backend
//! alone. Storage is a plain `Vec<f32>`; the kernels load and store
//! unaligned, so they need no particular base address.

use crate::simd;
use std::fmt;

/// A dense row-major matrix of `f32`.
#[derive(Clone, PartialEq)]
pub struct Tensor {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Tensor {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Tensor[{}x{}]", self.rows, self.cols)?;
        if self.data.len() <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Tensor {
    /// A `rows × cols` tensor of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// A `0 × 0` placeholder that owns no storage (e.g. a grad slot that
    /// has not been touched yet).
    pub fn empty() -> Tensor {
        Tensor {
            rows: 0,
            cols: 0,
            data: Vec::new(),
        }
    }

    /// Reshape in place to `rows × cols`, keeping the existing heap
    /// buffer whenever its capacity suffices. Contents are left
    /// **unspecified** — the caller must fully overwrite them. Returns
    /// the number of bytes newly allocated (0 when the buffer was
    /// reused), which the tape feeds into its allocation accounting.
    pub fn reset_shape(&mut self, rows: usize, cols: usize) -> usize {
        let len = rows * cols;
        let grew = len.saturating_sub(self.data.capacity()) * std::mem::size_of::<f32>();
        // Grow to exactly `len`, so capacity, and with it the byte count
        // above, tracks what was asked for; a plain `resize` may round
        // the capacity up to twice the old one.
        self.data.reserve_exact(len.saturating_sub(self.data.len()));
        self.data.resize(len, 0.0);
        self.rows = rows;
        self.cols = cols;
        grew
    }

    /// Take ownership of the backing buffer, leaving `self` empty. Used
    /// by the tape to return node storage to its arena.
    pub fn take_data(&mut self) -> Vec<f32> {
        self.rows = 0;
        self.cols = 0;
        std::mem::take(&mut self.data)
    }

    /// Adopt `data` as the backing buffer for a `rows × cols` view.
    /// Panics if the length disagrees (the arena hands back exact
    /// size-class matches).
    pub fn adopt(&mut self, rows: usize, cols: usize, data: Vec<f32>) {
        assert_eq!(data.len(), rows * cols, "adopted buffer length mismatch");
        self.rows = rows;
        self.cols = cols;
        self.data = data;
    }

    /// Overwrite `self` with `src`'s contents (shapes must match).
    pub fn copy_from(&mut self, src: &Tensor) {
        assert_eq!(self.shape(), src.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&src.data);
    }

    /// A `rows × cols` tensor filled with `v`.
    pub fn full(rows: usize, cols: usize, v: f32) -> Tensor {
        Tensor {
            rows,
            cols,
            data: vec![v; rows * cols],
        }
    }

    /// Build from a flat row-major buffer, adopting it as storage.
    /// Panics if lengths disagree.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Tensor {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length {} != {rows}x{cols}",
            data.len()
        );
        Tensor { rows, cols, data }
    }

    /// A `1 × n` row vector.
    pub fn row(data: Vec<f32>) -> Tensor {
        Tensor {
            rows: 1,
            cols: data.len(),
            data,
        }
    }

    pub fn rows(&self) -> usize {
        self.rows
    }

    pub fn cols(&self) -> usize {
        self.cols
    }

    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn data(&self) -> &[f32] {
        &self.data
    }

    pub fn data_mut(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Element access.
    #[inline]
    pub fn get(&self, r: usize, c: usize) -> f32 {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c]
    }

    #[inline]
    pub fn set(&mut self, r: usize, c: usize, v: f32) {
        debug_assert!(r < self.rows && c < self.cols);
        self.data[r * self.cols + c] = v;
    }

    /// Borrow row `r` as a slice.
    #[inline]
    pub fn row_slice(&self, r: usize) -> &[f32] {
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    #[inline]
    pub fn row_slice_mut(&mut self, r: usize) -> &mut [f32] {
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Elementwise map into a new tensor.
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Tensor {
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self.data.iter().map(|&x| f(x)).collect(),
        }
    }

    /// Elementwise combine with another tensor of identical shape.
    pub fn zip(&self, other: &Tensor, f: impl Fn(f32, f32) -> f32) -> Tensor {
        assert_eq!(self.shape(), other.shape(), "zip shape mismatch");
        Tensor {
            rows: self.rows,
            cols: self.cols,
            data: self
                .data
                .iter()
                .zip(other.data.iter())
                .map(|(&a, &b)| f(a, b))
                .collect(),
        }
    }

    /// `self += other` elementwise.
    pub fn add_assign(&mut self, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "add_assign shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += b;
        }
    }

    /// `self += alpha * other` elementwise (axpy).
    pub fn axpy(&mut self, alpha: f32, other: &Tensor) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(other.data.iter()) {
            *a += alpha * b;
        }
    }

    /// Scale all elements in place.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in self.data.iter_mut() {
            *a *= alpha;
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Tensor {
        let mut out = Tensor::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                out.data[c * self.rows + r] = self.data[r * self.cols + c];
            }
        }
        out
    }

    /// Sum of all elements.
    pub fn sum(&self) -> f32 {
        self.data.iter().sum()
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f32 {
        self.data.iter().map(|&x| x * x).sum::<f32>().sqrt()
    }

    /// Matrix product `self × other`, cache-blocked.
    pub fn matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.cols, other.rows,
            "matmul inner-dimension mismatch: {}x{} × {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.rows, other.cols);
        matmul_into(
            &mut out.data,
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
        );
        out
    }

    /// `selfᵀ × other` without materializing the transpose.
    pub fn t_matmul(&self, other: &Tensor) -> Tensor {
        assert_eq!(
            self.rows, other.rows,
            "t_matmul row mismatch: {}x{} vs {}x{}",
            self.rows, self.cols, other.rows, other.cols
        );
        let mut out = Tensor::zeros(self.cols, other.cols);
        t_matmul_into(
            &mut out.data,
            &self.data,
            self.rows,
            self.cols,
            &other.data,
            other.cols,
        );
        out
    }
}

/// `out += a(rows×acols)ᵀ × b(rows×n)`; `out` must hold zeros (or a
/// partial result to accumulate onto, but note the per-element rounding
/// then interleaves — the tape only passes zeroed buffers). Output rows
/// are columns of `a`; each runs k in full order.
pub fn t_matmul_into(out: &mut [f32], a: &[f32], rows: usize, acols: usize, b: &[f32], n: usize) {
    simd::assert_len(out, acols, n, "output");
    simd::assert_len(a, rows, acols, "a");
    simd::assert_len(b, rows, n, "b");
    simd::t_panel(out, a, b, rows, acols, n);
}

/// `out += a(m×k) × b(k×n)` with i-k-j ordering and the zero skip. `out`
/// must be zeroed (or hold a partial result to accumulate onto).
pub fn matmul_into(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    simd::assert_len(out, m, n, "output");
    simd::assert_len(a, m, k, "a");
    simd::assert_len(b, k, n, "b");
    simd::matmul_panel(out, a, m, k, b, n);
}

/// `out += a(m×k) × b(k×n)` without the zero-skip fast path: every
/// product is accumulated in k-order, so each output element's rounding
/// (including `-0.0` behavior and NaN propagation) is term-for-term
/// identical to an unskipped sequential dot product. The backward pass
/// uses this against a pre-transposed operand to compute `G · Wᵀ` with
/// a vectorizable row-major inner loop.
pub fn matmul_dense_into(out: &mut [f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) {
    simd::assert_len(out, m, n, "output");
    simd::assert_len(a, m, k, "a");
    simd::assert_len(b, k, n, "b");
    simd::dense_panel(out, a, m, k, b, n);
}

/// `out[c][r] = a[r][c]` — materialize the transpose of a `rows × cols`
/// matrix into `out` (`cols × rows`).
pub fn transpose_into(out: &mut [f32], a: &[f32], rows: usize, cols: usize) {
    debug_assert_eq!(out.len(), rows * cols);
    debug_assert_eq!(a.len(), rows * cols);
    for (r, arow) in a.chunks_exact(cols.max(1)).enumerate() {
        for (c, &v) in arow.iter().enumerate() {
            out[c * rows + r] = v;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn naive_matmul(a: &Tensor, b: &Tensor) -> Tensor {
        let mut out = Tensor::zeros(a.rows(), b.cols());
        for i in 0..a.rows() {
            for j in 0..b.cols() {
                let mut acc = 0.0;
                for k in 0..a.cols() {
                    acc += a.get(i, k) * b.get(k, j);
                }
                out.set(i, j, acc);
            }
        }
        out
    }

    fn seeded(rows: usize, cols: usize, seed: u32) -> Tensor {
        // Simple LCG so the test has no rand dependency path.
        let mut state = seed as u64 * 2654435761 + 1;
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn assert_close(a: &Tensor, b: &Tensor, tol: f32) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.data().iter().zip(b.data()) {
            assert!((x - y).abs() <= tol, "{x} vs {y}");
        }
    }

    #[test]
    fn matmul_matches_naive_small() {
        let a = seeded(7, 5, 1);
        let b = seeded(5, 9, 2);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-4);
    }

    #[test]
    fn matmul_matches_naive_large() {
        let a = seeded(256, 128, 3);
        let b = seeded(128, 96, 4);
        assert_close(&a.matmul(&b), &naive_matmul(&a, &b), 1e-2);
    }

    #[test]
    fn matmul_identity() {
        let a = seeded(4, 4, 5);
        let mut eye = Tensor::zeros(4, 4);
        for i in 0..4 {
            eye.set(i, i, 1.0);
        }
        assert_close(&a.matmul(&eye), &a, 1e-6);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = seeded(6, 4, 6);
        let b = seeded(6, 3, 7);
        assert_close(&a.t_matmul(&b), &a.transpose().matmul(&b), 1e-4);
    }

    #[test]
    fn transpose_involution() {
        let a = seeded(3, 8, 10);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    #[should_panic(expected = "inner-dimension mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Tensor::zeros(2, 3);
        let b = Tensor::zeros(4, 2);
        let _ = a.matmul(&b);
    }

    /// The length checks guard the AVX2 tiles' pointer arithmetic, so
    /// they must fire in release builds too, before any panel runs.
    #[test]
    #[should_panic(expected = "b holds 23 floats, not 4 x 6")]
    fn matmul_into_refuses_a_short_b() {
        let (m, k, n) = (5, 4, 6);
        let mut out = vec![0.0f32; m * n];
        matmul_into(&mut out, &vec![1.0; m * k], m, k, &vec![1.0; k * n - 1], n);
    }

    #[test]
    #[should_panic(expected = "a holds 35 floats, not 9 x 4")]
    fn t_matmul_into_refuses_a_short_a() {
        let (rows, acols, n) = (9, 4, 12);
        let mut out = vec![0.0f32; acols * n];
        t_matmul_into(
            &mut out,
            &vec![1.0; rows * acols - 1],
            rows,
            acols,
            &vec![1.0; rows * n],
            n,
        );
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Tensor::full(2, 2, 1.0);
        let b = Tensor::full(2, 2, 2.0);
        a.axpy(0.5, &b);
        assert_eq!(a.data(), &[2.0; 4]);
        a.scale_assign(0.25);
        assert_eq!(a.data(), &[0.5; 4]);
    }

    #[test]
    fn zip_and_map() {
        let a = Tensor::row(vec![1.0, 2.0, 3.0]);
        let b = Tensor::row(vec![4.0, 5.0, 6.0]);
        let c = a.zip(&b, |x, y| x * y);
        assert_eq!(c.data(), &[4.0, 10.0, 18.0]);
        assert_eq!(c.map(|x| x / 2.0).data(), &[2.0, 5.0, 9.0]);
    }

    #[test]
    fn row_access() {
        let t = Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]);
        assert_eq!(t.row_slice(1), &[4., 5., 6.]);
        assert_eq!(t.get(0, 2), 3.0);
        assert_eq!(t.sum(), 21.0);
    }

    #[test]
    fn matmul_into_accumulates_onto_existing_output() {
        let a = Tensor::from_vec(2, 2, vec![1., 0., 0., 1.]);
        let b = Tensor::from_vec(2, 2, vec![5., 6., 7., 8.]);
        let mut out = vec![100.0f32; 4];
        matmul_into(&mut out, a.data(), 2, 2, b.data(), 2);
        assert_eq!(out, vec![105.0, 106.0, 107.0, 108.0]);
    }

    /// A failing `assert_eq!` on small tensors shows their values.
    #[test]
    fn debug_prints_small_tensor_values() {
        assert_eq!(
            format!("{:?}", Tensor::row(vec![1.0, 2.0])),
            "Tensor[1x2] [1.0, 2.0]"
        );
    }

    /// `reset_shape` reports growth past capacity in bytes, and a shrink
    /// or a regrowth within capacity keeps the buffer.
    #[test]
    fn reset_shape_reports_exact_growth() {
        let mut t = Tensor::zeros(2, 3);
        assert_eq!(t.data.capacity(), 6);
        assert_eq!(t.reset_shape(2, 4), (8 - 6) * 4);
        assert_eq!(t.data.capacity(), 8, "growth allocates exactly");
        let base = t.data().as_ptr();
        assert_eq!(t.reset_shape(1, 3), 0);
        assert_eq!((t.len(), t.data.capacity()), (3, 8));
        assert_eq!(t.data().as_ptr(), base, "a shrink keeps the allocation");
        assert_eq!(t.reset_shape(4, 2), 0);
        assert_eq!(t.data().as_ptr(), base, "a regrowth reuses it");
    }

    #[test]
    fn norm_is_frobenius() {
        let t = Tensor::from_vec(1, 2, vec![3.0, 4.0]);
        assert!((t.norm() - 5.0).abs() < 1e-6);
    }
}
