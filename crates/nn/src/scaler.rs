//! Feature scaling: Gaussian-rank scaling (used before the denoising
//! autoencoder, following the paper's §3.2) and min-max scaling to `[0,1]`
//! (used for performance counters and OpenCL transfer/workgroup sizes
//! before fusion).

/// Inverse CDF (quantile function) of the standard normal distribution,
/// via Acklam's rational approximation (|relative error| < 1.15e-9).
pub fn inverse_normal_cdf(p: f64) -> f64 {
    assert!(p > 0.0 && p < 1.0, "probit domain is (0,1), got {p}");
    const A: [f64; 6] = [
        -3.969683028665376e+01,
        2.209460984245205e+02,
        -2.759285104469687e+02,
        1.383_577_518_672_69e2,
        -3.066479806614716e+01,
        2.506628277459239e+00,
    ];
    const B: [f64; 5] = [
        -5.447609879822406e+01,
        1.615858368580409e+02,
        -1.556989798598866e+02,
        6.680131188771972e+01,
        -1.328068155288572e+01,
    ];
    const C: [f64; 6] = [
        -7.784894002430293e-03,
        -3.223964580411365e-01,
        -2.400758277161838e+00,
        -2.549732539343734e+00,
        4.374664141464968e+00,
        2.938163982698783e+00,
    ];
    const D: [f64; 4] = [
        7.784695709041462e-03,
        3.224671290700398e-01,
        2.445134137142996e+00,
        3.754408661907416e+00,
    ];
    const P_LOW: f64 = 0.02425;
    const P_HIGH: f64 = 1.0 - P_LOW;

    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= P_HIGH {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -(((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    }
}

/// Gaussian-rank scaler: maps each feature column to a standard normal
/// distribution by rank. Fitted on training data; transform of unseen
/// values interpolates between the fitted ranks.
///
/// This is the "Gauss rank" trick from the Porto Seguro Kaggle solution
/// the paper cites: sort the column, assign each value the normal quantile
/// of its (clipped) empirical CDF position.
#[derive(Debug, Clone)]
pub struct GaussRankScaler {
    /// Per column: sorted unique training values and their normal scores.
    columns: Vec<(Vec<f32>, Vec<f32>)>,
}

impl GaussRankScaler {
    /// Fit on rows of `data` (each row one sample, `dims` columns).
    pub fn fit(data: &[Vec<f32>], dims: usize) -> GaussRankScaler {
        mga_obs::span!("scaler.gaussrank.fit");
        assert!(!data.is_empty(), "cannot fit scaler on empty data");
        let mut columns = Vec::with_capacity(dims);
        for c in 0..dims {
            let mut vals: Vec<f32> = data.iter().map(|r| r[c]).collect();
            vals.sort_by(|a, b| a.partial_cmp(b).unwrap());
            vals.dedup();
            let n = vals.len();
            let scores: Vec<f32> = (0..n)
                .map(|i| {
                    // Empirical CDF position, clipped away from {0,1}.
                    let p = if n == 1 {
                        0.5
                    } else {
                        (i as f64 + 0.5) / n as f64
                    };
                    inverse_normal_cdf(p) as f32
                })
                .collect();
            columns.push((vals, scores));
        }
        GaussRankScaler { columns }
    }

    /// Transform one sample in place.
    pub fn transform_row(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.columns.len(), "dimension mismatch");
        for (x, (vals, scores)) in row.iter_mut().zip(&self.columns) {
            *x = interp(vals, scores, *x);
        }
    }

    /// Transform `rows` into one row-major buffer of `rows.len()` ×
    /// [`GaussRankScaler::dims`] values.
    pub fn transform_rows(&self, rows: &[&[f32]]) -> Vec<f32> {
        let mut out = Vec::with_capacity(rows.len() * self.dims());
        for row in rows {
            let at = out.len();
            out.extend_from_slice(row);
            self.transform_row(&mut out[at..]);
        }
        out
    }

    pub fn dims(&self) -> usize {
        self.columns.len()
    }

    /// Export the fitted per-column (values, scores) tables.
    pub fn to_parts(&self) -> &[(Vec<f32>, Vec<f32>)] {
        &self.columns
    }

    /// Rebuild from exported tables.
    pub fn from_parts(columns: Vec<(Vec<f32>, Vec<f32>)>) -> GaussRankScaler {
        assert!(!columns.is_empty());
        GaussRankScaler { columns }
    }
}

/// Piecewise-linear interpolation of `x` in the (sorted) `xs` → `ys` table,
/// clamping outside the fitted range.
fn interp(xs: &[f32], ys: &[f32], x: f32) -> f32 {
    match xs.binary_search_by(|v| v.partial_cmp(&x).unwrap()) {
        Ok(i) => ys[i],
        Err(0) => ys[0],
        Err(i) if i >= xs.len() => *ys.last().unwrap(),
        Err(i) => {
            let (x0, x1) = (xs[i - 1], xs[i]);
            let (y0, y1) = (ys[i - 1], ys[i]);
            if x1 == x0 {
                y0
            } else {
                y0 + (y1 - y0) * (x - x0) / (x1 - x0)
            }
        }
    }
}

/// Min-max scaler to `[0, 1]`, fitted per column. Constant columns map
/// to 0.5.
#[derive(Debug, Clone)]
pub struct MinMaxScaler {
    mins: Vec<f32>,
    maxs: Vec<f32>,
}

impl MinMaxScaler {
    pub fn fit(data: &[Vec<f32>], dims: usize) -> MinMaxScaler {
        mga_obs::span!("scaler.minmax.fit");
        assert!(!data.is_empty(), "cannot fit scaler on empty data");
        let mut mins = vec![f32::INFINITY; dims];
        let mut maxs = vec![f32::NEG_INFINITY; dims];
        for row in data {
            for c in 0..dims {
                mins[c] = mins[c].min(row[c]);
                maxs[c] = maxs[c].max(row[c]);
            }
        }
        MinMaxScaler { mins, maxs }
    }

    /// Transform one sample in place, clamping to `[0, 1]`.
    pub fn transform_row(&self, row: &mut [f32]) {
        assert_eq!(row.len(), self.mins.len(), "dimension mismatch");
        for (c, x) in row.iter_mut().enumerate() {
            let span = self.maxs[c] - self.mins[c];
            *x = if span <= 0.0 {
                0.5
            } else {
                ((*x - self.mins[c]) / span).clamp(0.0, 1.0)
            };
        }
    }

    /// Scale one raw row into `dst` (length [`MinMaxScaler::dims`]) and
    /// return whether it was imputed. A row of the wrong width or with
    /// a non-finite value (missing or corrupt dynamic features) becomes
    /// the scaled mid-range, 0.5, so the static modalities decide; any
    /// other row is [`MinMaxScaler::transform_row`]ed. Training,
    /// prediction and serving all scale aux rows through this one rule.
    pub fn scale_into(&self, dst: &mut [f32], raw: &[f32]) -> bool {
        if raw.len() != self.dims() || raw.iter().any(|x| !x.is_finite()) {
            dst.fill(0.5);
            return true;
        }
        dst.copy_from_slice(raw);
        self.transform_row(dst);
        false
    }

    pub fn dims(&self) -> usize {
        self.mins.len()
    }

    /// Export the fitted (mins, maxs).
    pub fn to_parts(&self) -> (&[f32], &[f32]) {
        (&self.mins, &self.maxs)
    }

    /// Rebuild from exported bounds.
    pub fn from_parts(mins: Vec<f32>, maxs: Vec<f32>) -> MinMaxScaler {
        assert_eq!(mins.len(), maxs.len());
        MinMaxScaler { mins, maxs }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probit_known_values() {
        assert!((inverse_normal_cdf(0.5)).abs() < 1e-9);
        assert!((inverse_normal_cdf(0.975) - 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.025) + 1.959964).abs() < 1e-4);
        assert!((inverse_normal_cdf(0.8413447) - 1.0).abs() < 1e-4);
    }

    #[test]
    fn probit_is_antisymmetric() {
        for &p in &[0.01, 0.1, 0.3, 0.45] {
            let a = inverse_normal_cdf(p);
            let b = inverse_normal_cdf(1.0 - p);
            assert!((a + b).abs() < 1e-7, "asymmetric at {p}");
        }
    }

    #[test]
    #[should_panic(expected = "probit domain")]
    fn probit_rejects_out_of_domain() {
        inverse_normal_cdf(0.0);
    }

    #[test]
    fn gauss_rank_produces_normalish_column() {
        // Heavily skewed input.
        let data: Vec<Vec<f32>> = (0..101).map(|i| vec![(i as f32).exp2() % 977.0]).collect();
        let s = GaussRankScaler::fit(&data, 1);
        let rows: Vec<&[f32]> = data.iter().map(Vec::as_slice).collect();
        let vals = s.transform_rows(&rows);
        let mean = vals.iter().sum::<f32>() / vals.len() as f32;
        let var = vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
        assert!(mean.abs() < 0.2, "mean {mean} too far from 0");
        assert!((var - 1.0).abs() < 0.35, "variance {var} too far from 1");
    }

    #[test]
    fn gauss_rank_is_monotone() {
        let data: Vec<Vec<f32>> = vec![vec![1.0], vec![5.0], vec![2.0], vec![100.0], vec![3.0]];
        let s = GaussRankScaler::fit(&data, 1);
        let mut a = [1.5f32];
        let mut b = [4.0f32];
        s.transform_row(&mut a);
        s.transform_row(&mut b);
        assert!(a[0] < b[0], "monotonicity violated");
    }

    #[test]
    fn gauss_rank_clamps_out_of_range() {
        let data: Vec<Vec<f32>> = vec![vec![0.0], vec![1.0], vec![2.0]];
        let s = GaussRankScaler::fit(&data, 1);
        let mut lo = [-100.0f32];
        let mut hi = [100.0f32];
        s.transform_row(&mut lo);
        s.transform_row(&mut hi);
        let mut min = [0.0f32];
        let mut max = [2.0f32];
        s.transform_row(&mut min);
        s.transform_row(&mut max);
        assert_eq!(lo[0], min[0]);
        assert_eq!(hi[0], max[0]);
    }

    #[test]
    fn minmax_maps_to_unit_interval() {
        let data = vec![vec![10.0, -5.0], vec![20.0, 5.0], vec![15.0, 0.0]];
        let s = MinMaxScaler::fit(&data, 2);
        let mut mid = vec![15.0, 0.0];
        s.transform_row(&mut mid);
        assert!((mid[0] - 0.5).abs() < 1e-6);
        assert!((mid[1] - 0.5).abs() < 1e-6);
        let mut out_of_range = vec![100.0, -100.0];
        s.transform_row(&mut out_of_range);
        assert_eq!(out_of_range, vec![1.0, 0.0]);
    }

    #[test]
    fn scale_into_imputes_short_and_non_finite_rows() {
        let s = MinMaxScaler::fit(&[vec![0.0, 10.0], vec![4.0, 20.0]], 2);
        let mut dst = [9.0f32; 2];
        assert!(!s.scale_into(&mut dst, &[1.0, 15.0]));
        assert_eq!(dst, [0.25, 0.5]);
        for raw in [&[1.0][..], &[1.0, f32::NAN], &[f32::INFINITY, 15.0], &[]] {
            let mut dst = [9.0f32; 2];
            assert!(s.scale_into(&mut dst, raw), "{raw:?} must be imputed");
            assert_eq!(dst, [0.5, 0.5]);
        }
    }

    #[test]
    fn minmax_constant_column_maps_to_half() {
        let data = vec![vec![7.0], vec![7.0]];
        let s = MinMaxScaler::fit(&data, 1);
        let mut row = vec![7.0];
        s.transform_row(&mut row);
        assert_eq!(row[0], 0.5);
    }
}
