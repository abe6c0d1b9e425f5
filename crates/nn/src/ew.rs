//! Chunked elementwise kernels for tape forward/backward passes, and the
//! activation functions they apply.
//!
//! The maps replace the per-element closure dispatch of `Tensor::map`/
//! `zip` with slice loops over fixed-width chunks, which LLVM
//! autovectorizes. Semantics are exactly scalar `f32`: each output
//! element is produced by the same single-expression computation as the
//! old iterator path, in the same order, so results are bit-identical.
//!
//! [`exp`], [`sigmoid`] and [`tanh`] are this crate's own, written in
//! plain `f32` arithmetic (`+ − × ÷`, `clamp`, `abs`, `copysign`, bit
//! casts and selects; no libm call, no `mul_add`, no data-dependent
//! branch), so a chunked map over them vectorizes 8-wide like any other
//! closure. rustc never contracts into FMA, so a vector lane rounds
//! exactly like a scalar call: the bits are the same on both `MGA_SIMD`
//! backends, at any `MGA_THREADS` and under any `target-cpu`, and do not
//! depend on the host's libm. Measured against an f64 reference, `tanh`
//! stays within 2 ulp over the whole f32 range and `sigmoid` within 3
//! wherever its result is at least 1e−37 (`tests/activations.rs` sweeps
//! both).

const CHUNK: usize = 8;

/// `dst[i] = f(a[i])`, fully overwriting `dst`.
#[inline]
pub fn map1_to(dst: &mut [f32], a: &[f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(dst.len(), a.len());
    let mut dc = dst.chunks_exact_mut(CHUNK);
    let mut ac = a.chunks_exact(CHUNK);
    for (d, s) in (&mut dc).zip(&mut ac) {
        for i in 0..CHUNK {
            d[i] = f(s[i]);
        }
    }
    for (d, s) in dc.into_remainder().iter_mut().zip(ac.remainder()) {
        *d = f(*s);
    }
}

/// `dst[i] += f(a[i])`. Bitwise-safe even when `dst` aliases the grad
/// being accumulated: each element adds exactly one product, the same
/// rounding as the old materialize-then-`add_assign` path.
#[inline]
pub fn map1_acc(dst: &mut [f32], a: &[f32], f: impl Fn(f32) -> f32) {
    debug_assert_eq!(dst.len(), a.len());
    let mut dc = dst.chunks_exact_mut(CHUNK);
    let mut ac = a.chunks_exact(CHUNK);
    for (d, s) in (&mut dc).zip(&mut ac) {
        for i in 0..CHUNK {
            d[i] += f(s[i]);
        }
    }
    for (d, s) in dc.into_remainder().iter_mut().zip(ac.remainder()) {
        *d += f(*s);
    }
}

/// `dst[i] = f(a[i], b[i])`, fully overwriting `dst`.
#[inline]
pub fn map2_to(dst: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let mut dc = dst.chunks_exact_mut(CHUNK);
    let mut ac = a.chunks_exact(CHUNK);
    let mut bc = b.chunks_exact(CHUNK);
    for ((d, s), t) in (&mut dc).zip(&mut ac).zip(&mut bc) {
        for i in 0..CHUNK {
            d[i] = f(s[i], t[i]);
        }
    }
    for ((d, s), t) in dc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *d = f(*s, *t);
    }
}

/// `dst[i] += f(a[i], b[i])` (one product per element; see [`map1_acc`]).
#[inline]
pub fn map2_acc(dst: &mut [f32], a: &[f32], b: &[f32], f: impl Fn(f32, f32) -> f32) {
    debug_assert_eq!(dst.len(), a.len());
    debug_assert_eq!(dst.len(), b.len());
    let mut dc = dst.chunks_exact_mut(CHUNK);
    let mut ac = a.chunks_exact(CHUNK);
    let mut bc = b.chunks_exact(CHUNK);
    for ((d, s), t) in (&mut dc).zip(&mut ac).zip(&mut bc) {
        for i in 0..CHUNK {
            d[i] += f(s[i], t[i]);
        }
    }
    for ((d, s), t) in dc
        .into_remainder()
        .iter_mut()
        .zip(ac.remainder())
        .zip(bc.remainder())
    {
        *d += f(*s, *t);
    }
}

/// `dst[i] = f(dst[i])` — [`map1_to`] in place, in the same chunks.
#[inline]
pub fn map1_in_place(dst: &mut [f32], f: impl Fn(f32) -> f32) {
    let mut dc = dst.chunks_exact_mut(CHUNK);
    for d in &mut dc {
        for v in d.iter_mut() {
            *v = f(*v);
        }
    }
    for v in dc.into_remainder() {
        *v = f(*v);
    }
}

/// Row-broadcast bias + activation: for each row of `dst` (row length =
/// `bias.len()`), `dst[r][j] = f(dst[r][j] + bias[j])`. The inner `+` is
/// its own rounding step, matching the unfused `add_bias` op, and `f`
/// then matches the separate activation op.
#[inline]
pub fn bias_act(dst: &mut [f32], bias: &[f32], f: impl Fn(f32) -> f32) {
    debug_assert!(bias.is_empty() || dst.len().is_multiple_of(bias.len()));
    for row in dst.chunks_exact_mut(bias.len().max(1)) {
        for (o, &b) in row.iter_mut().zip(bias) {
            *o = f(*o + b);
        }
    }
}

/// `2^k` for `k` in `[-126, 127]`, built from its exponent bits.
#[inline(always)]
fn pow2i(k: i32) -> f32 {
    f32::from_bits((k.wrapping_add(127) << 23) as u32)
}

/// `e^x`, within 1 ulp over the normal range (Cephes' `expf`).
///
/// `x` is clamped to `[-104, 89]` (beyond it the result is 0 or ∞;
/// `clamp` keeps NaN), `k = round(x·log₂e)` comes from the 1.5·2²³
/// shift trick, and `r = x − k·ln2` is reduced in two steps with a
/// short `ln2_hi`, so `k·ln2_hi` is exact. `e^r` is Cephes' degree-6
/// polynomial; `2^k` is applied as two exponent-bit factors, so an
/// overflow gives ∞ and a subnormal result rounds once.
#[inline(always)]
pub fn exp(x: f32) -> f32 {
    const SHIFT: f32 = 12_582_912.0; // 1.5 · 2^23
    const LN2_HI: f32 = 0.693_359_4; // 355/512
    const LN2_LO: f32 = -2.121_944_4e-4;
    let x = x.clamp(-104.0, 89.0);
    let t = x * std::f32::consts::LOG2_E + SHIFT;
    let k = t - SHIFT;
    let r = x - k * LN2_HI - k * LN2_LO;
    let p = 1.987_569_1e-4 * r + 1.398_199_9e-3;
    let p = p * r + 8.333_452e-3;
    let p = p * r + 4.166_579_6e-2;
    let p = p * r + 1.666_666_6e-1;
    let p = p * r + 0.5;
    let y = p * (r * r) + r + 1.0;
    // `t`'s low mantissa bits hold `k` exactly (|k| ≤ 150 < 2^22).
    let ki = (t.to_bits() as i32).wrapping_sub(SHIFT.to_bits() as i32);
    let k1 = ki >> 1;
    y * pow2i(k1) * pow2i(ki.wrapping_sub(k1))
}

/// `1 / (1 + e^(−z))`, within 3 ulp wherever the result is at least
/// 1e−37; exactly 1 at +∞ and 0 at −∞.
#[inline(always)]
pub fn sigmoid(z: f32) -> f32 {
    1.0 / (1.0 + exp(-z))
}

/// Hyperbolic tangent, within 2 ulp; odd, so `tanh(−0) = −0`.
///
/// Cephes' `tanhf`: an odd polynomial below |x| = 0.625 and
/// `1 − 2/(e^(2|x|) + 1)` above, both on |x| with the sign restored at
/// the end. The branch is a select whose false side takes NaN, and that
/// side returns NaN.
#[inline(always)]
pub fn tanh(x: f32) -> f32 {
    let a = x.abs();
    let z = a * a;
    let p = -5.704_988_7e-3 * z + 2.063_908_8e-2;
    let p = p * z - 5.373_971_5e-2;
    let p = p * z + 1.333_144_2e-1;
    let p = p * z - 3.333_328e-1;
    let small = p * z * a + a;
    let large = 1.0 - 2.0 / (exp(a + a) + 1.0);
    let t = if a < 0.625 { small } else { large };
    t.copysign(x)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn maps_match_scalar_loops() {
        let a: Vec<f32> = (0..19).map(|i| (i as f32) * 0.37 - 3.0).collect();
        let b: Vec<f32> = (0..19).map(|i| (i as f32).sin()).collect();
        let mut d = vec![0.5f32; 19];
        map1_to(&mut d, &a, tanh);
        for (o, x) in d.iter().zip(&a) {
            assert_eq!(o.to_bits(), tanh(*x).to_bits());
        }
        let mut e = a.clone();
        map1_in_place(&mut e, sigmoid);
        for (o, x) in e.iter().zip(&a) {
            assert_eq!(o.to_bits(), sigmoid(*x).to_bits());
        }
        let mut acc = b.clone();
        map1_acc(&mut acc, &a, |x| x * 2.0);
        for ((o, x), y) in acc.iter().zip(&a).zip(&b) {
            assert_eq!(o.to_bits(), (y + x * 2.0).to_bits());
        }
        let mut d2 = vec![0.0f32; 19];
        map2_to(&mut d2, &a, &b, |x, y| x * y);
        for ((o, x), y) in d2.iter().zip(&a).zip(&b) {
            assert_eq!(o.to_bits(), (x * y).to_bits());
        }
        let mut acc2 = a.clone();
        map2_acc(&mut acc2, &a, &b, |x, y| x - y);
        for ((o, x), y) in acc2.iter().zip(&a).zip(&b) {
            assert_eq!(o.to_bits(), (x + (x - y)).to_bits());
        }
    }

    #[test]
    fn bias_act_matches_two_pass() {
        let bias = [0.1f32, -0.2, 0.3];
        let mut d: Vec<f32> = (0..12).map(|i| (i as f32) * 0.21 - 1.0).collect();
        let expect: Vec<f32> = d
            .chunks(3)
            .flat_map(|row| row.iter().zip(&bias).map(|(x, b)| (x + b).max(0.0)))
            .collect();
        bias_act(&mut d, &bias, |z| z.max(0.0));
        for (o, e) in d.iter().zip(&expect) {
            assert_eq!(o.to_bits(), e.to_bits());
        }
    }
}
