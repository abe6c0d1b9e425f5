//! Segment (gather/scatter) row kernels shared by the tape's forward and
//! backward passes. They run on the calling thread.
//!
//! Each output row's bits depend only on its own inputs, taken in index
//! order: a gathered row is a copy (or scaled copy) of one source row,
//! and a scattered row accumulates its contributions in index-list
//! order. So a row computed inside any micro-batch (`GraphBatch::subset`)
//! or alone rounds exactly as in the full batch; the partition-invariance
//! tests in `tests/parallel_parity.rs` pin this.
//!
//! Every kernel asserts its buffer lengths in all builds, and scatter
//! asserts every destination index, before writing.

use crate::simd::assert_len;

/// `out[i] = src[index[i]]` for row vectors of width `cols`.
pub fn gather_rows_into(out: &mut [f32], src: &[f32], cols: usize, index: &[u32]) {
    gather(out, src, cols, index, None, false);
}

/// `out[i] += src[index[i]]` — the scatter-sum backward, accumulate
/// form. Each output row receives exactly one added row, so in-place
/// accumulation rounds identically to materialize-then-`add_assign`.
pub fn gather_rows_acc_into(out: &mut [f32], src: &[f32], cols: usize, index: &[u32]) {
    gather(out, src, cols, index, None, true);
}

/// `out[i] = src[index[i]] * row_scale[index[i]]` — the scatter-mean
/// backward: each gathered row is scaled by its group's 1/count.
pub fn gather_rows_scaled_into(
    out: &mut [f32],
    src: &[f32],
    cols: usize,
    index: &[u32],
    row_scale: &[f32],
) {
    gather(out, src, cols, index, Some(row_scale), false);
}

/// Accumulate form of [`gather_rows_scaled_into`]: `out[i] +=
/// src[index[i]] * row_scale[index[i]]` (one product per element).
pub fn gather_rows_scaled_acc_into(
    out: &mut [f32],
    src: &[f32],
    cols: usize,
    index: &[u32],
    row_scale: &[f32],
) {
    gather(out, src, cols, index, Some(row_scale), true);
}

fn gather(
    out: &mut [f32],
    src: &[f32],
    cols: usize,
    index: &[u32],
    scale: Option<&[f32]>,
    acc: bool,
) {
    assert_len(out, index.len(), cols, "gather output");
    for (i, &s) in index.iter().enumerate() {
        let s = s as usize;
        let orow = &mut out[i * cols..(i + 1) * cols];
        let srow = &src[s * cols..(s + 1) * cols];
        match (scale, acc) {
            (None, false) => orow.copy_from_slice(srow),
            (None, true) => {
                for (o, &x) in orow.iter_mut().zip(srow) {
                    *o += x;
                }
            }
            (Some(sc), false) => {
                let f = sc[s];
                for (o, &x) in orow.iter_mut().zip(srow) {
                    *o = x * f;
                }
            }
            (Some(sc), true) => {
                let f = sc[s];
                for (o, &x) in orow.iter_mut().zip(srow) {
                    *o += x * f;
                }
            }
        }
    }
}

/// `out[index[i]] += src[i]` for row vectors of width `cols`; with
/// `mean`, each touched output row is then divided by its contribution
/// count. Output rows no index entry points at are left untouched —
/// empty groups read back as exact zeros (never `0/0 = NaN`). Panics on
/// an index entry at or past `out_rows`.
pub fn scatter_rows_into(
    out: &mut [f32],
    out_rows: usize,
    src: &[f32],
    cols: usize,
    index: &[u32],
    mean: bool,
) {
    assert_len(out, out_rows, cols, "scatter output");
    assert_len(src, index.len(), cols, "scatter src");
    // The counts are only consumed by the mean pass; skip the
    // allocation entirely for the (hot) sum form.
    let mut counts = if mean {
        vec![0u32; out_rows]
    } else {
        Vec::new()
    };
    for (i, &dst) in index.iter().enumerate() {
        let dst = dst as usize;
        assert!(dst < out_rows, "scatter index {dst} out of {out_rows} rows");
        if mean {
            counts[dst] += 1;
        }
        let srow = &src[i * cols..(i + 1) * cols];
        let orow = &mut out[dst * cols..(dst + 1) * cols];
        for (o, &x) in orow.iter_mut().zip(srow) {
            *o += x;
        }
    }
    if mean {
        for (r, &cnt) in counts.iter().enumerate() {
            // cnt == 0: empty group, row stays zero. cnt == 1: dividing by
            // one would still perturb nothing, skipped to match the
            // historical sequential kernel bit-for-bit.
            if cnt > 1 {
                let inv = 1.0 / cnt as f32;
                for x in &mut out[r * cols..(r + 1) * cols] {
                    *x *= inv;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gather_copies_rows() {
        let src = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]; // 3 rows × 2 cols
        let index = [2u32, 0, 2];
        let mut out = vec![0.0; 6];
        gather_rows_into(&mut out, &src, 2, &index);
        assert_eq!(out, vec![5.0, 6.0, 1.0, 2.0, 5.0, 6.0]);
    }

    #[test]
    fn gather_scaled_applies_per_source_scale() {
        let src = [2.0, 4.0, 10.0, 20.0]; // 2 rows × 2 cols
        let index = [1u32, 0];
        let scale = [0.5, 0.1];
        let mut out = vec![0.0; 4];
        gather_rows_scaled_into(&mut out, &src, 2, &index, &scale);
        assert_eq!(out, vec![1.0, 2.0, 1.0, 2.0]);
    }

    #[test]
    fn scatter_sum_accumulates() {
        let src = [1.0, 10.0, 2.0, 20.0, 3.0, 30.0]; // 3 rows × 2 cols
        let index = [1u32, 1, 0];
        let mut out = vec![0.0; 4];
        scatter_rows_into(&mut out, 2, &src, 2, &index, false);
        assert_eq!(out, vec![3.0, 30.0, 3.0, 30.0]);
    }

    #[test]
    fn scatter_mean_divides_by_count() {
        let src = [2.0, 4.0, 6.0];
        let index = [0u32, 0, 0];
        let mut out = vec![0.0; 1];
        scatter_rows_into(&mut out, 1, &src, 1, &index, true);
        assert_eq!(out, vec![4.0]);
    }

    #[test]
    fn scatter_mean_empty_groups_stay_zero() {
        // Group 1 receives nothing: its row must be exactly 0.0, not NaN.
        let src = [5.0, 5.0, 7.0, 7.0];
        let index = [0u32, 2];
        let mut out = vec![0.0; 6];
        scatter_rows_into(&mut out, 3, &src, 2, &index, true);
        assert_eq!(out, vec![5.0, 5.0, 0.0, 0.0, 7.0, 7.0]);
        assert!(out.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn scatter_with_no_index_entries_is_all_zero() {
        let mut out = vec![0.0; 8];
        scatter_rows_into(&mut out, 4, &[], 2, &[], true);
        assert_eq!(out, vec![0.0; 8]);
    }

    /// The length and index checks guard every write, so they must fire
    /// in release builds too.
    #[test]
    #[should_panic(expected = "scatter output holds 6 floats, not 2 x 2")]
    fn scatter_refuses_an_output_one_row_too_long() {
        let mut out = vec![0.0; 6];
        scatter_rows_into(&mut out, 2, &[1.0, 2.0], 2, &[1], false);
    }

    #[test]
    #[should_panic(expected = "scatter index 2 out of 2 rows")]
    fn scatter_refuses_an_out_of_range_destination() {
        let mut out = vec![0.0; 4];
        scatter_rows_into(&mut out, 2, &[1.0, 2.0, 3.0, 4.0], 2, &[0, 2], false);
    }

    #[test]
    fn gather_acc_adds_onto_existing_output() {
        let src = [1.0, 2.0, 3.0, 4.0]; // 2 rows × 2 cols
        let index = [1u32, 1];
        let mut out = vec![10.0; 4];
        gather_rows_acc_into(&mut out, &src, 2, &index);
        assert_eq!(out, vec![13.0, 14.0, 13.0, 14.0]);
    }

    #[test]
    fn gather_scaled_acc_matches_materialized_add() {
        let src = [2.0, 4.0, 10.0, 20.0];
        let index = [1u32, 0];
        let scale = [0.5, 0.1];
        let mut direct = vec![0.25; 4];
        gather_rows_scaled_acc_into(&mut direct, &src, 2, &index, &scale);
        let mut tmp = vec![0.0; 4];
        gather_rows_scaled_into(&mut tmp, &src, 2, &index, &scale);
        let two_pass: Vec<f32> = tmp.iter().map(|x| 0.25 + x).collect();
        assert!(direct
            .iter()
            .zip(&two_pass)
            .all(|(a, b)| a.to_bits() == b.to_bits()));
    }
}
