//! Accuracy and rounding of the crate's own activation functions.
//!
//! `ew::{exp, sigmoid, tanh}` replace libm in every activation site, so
//! these tests pin what the training and serving paths rely on:
//!
//! * accuracy against an f64 reference over a sweep of f32 bit patterns,
//!   and the exact special values (NaN, ±∞, ±0);
//! * a chunked, vectorized map rounds exactly like one call per element;
//! * the Sigmoid/Tanh bias path of [`FusedAct::bias_act`] (bias pass,
//!   then a flat activation pass) equals the one-pass row loop
//!   `act(o + b)` bit for bit, for every row width up to 33;
//! * the outputs over the sweep match pinned checksums, in debug and
//!   release builds and under any `target-cpu`.
//!
//! A libm call or a width-dependent loop fails the bitwise tests in
//! release builds, where the chunked maps vectorize. A `mul_add` rounds
//! the same in a vector lane as in a scalar call on an FMA target, so
//! the pinned checksums are what catch it.

use mga_nn::ew;
use mga_nn::tape::FusedAct;
use std::hint::black_box;

/// Every `STRIDE`-th f32 bit pattern: about a million inputs.
const STRIDE: usize = 4099;

fn sweep() -> impl Iterator<Item = f32> {
    (0..=u32::MAX).step_by(STRIDE).map(f32::from_bits)
}

/// Distance from `got` to the exact value `want`, in units of the f32
/// ulp at `want` (subnormal spacing below the normal range).
fn ulp_error(got: f32, want: f64) -> f64 {
    let exponent = ((want.abs().to_bits() >> 52) as i32 - 1023).max(-126);
    (got as f64 - want).abs() / 2f64.powi(exponent - 23)
}

/// Largest ulp error of `f` against `reference` over the sweep, counting
/// only finite inputs whose exact result is finite and at least `floor`
/// in magnitude.
fn max_ulp(f: fn(f32) -> f32, reference: fn(f64) -> f64, floor: f64) -> (f64, f32) {
    let mut worst = (0.0, 0.0);
    for x in sweep().filter(|x| x.is_finite()) {
        let want = reference(x as f64);
        if !want.is_finite() || want.abs() < floor || want.abs() > f32::MAX as f64 {
            continue;
        }
        let err = ulp_error(f(x), want);
        if err > worst.0 {
            worst = (err, x);
        }
    }
    worst
}

#[test]
fn tanh_is_within_two_ulp() {
    let (err, at) = max_ulp(ew::tanh, f64::tanh, 0.0);
    assert!(err <= 2.0, "tanh error {err:.3} ulp at {at:e}");
}

#[test]
fn sigmoid_is_within_three_ulp() {
    let (err, at) = max_ulp(ew::sigmoid, |z| 1.0 / (1.0 + (-z).exp()), 1e-37);
    assert!(err <= 3.0, "sigmoid error {err:.3} ulp at {at:e}");
}

#[test]
fn exp_is_within_one_ulp_over_the_normal_range() {
    let (err, at) = max_ulp(ew::exp, f64::exp, f32::MIN_POSITIVE as f64);
    assert!(err <= 1.0, "exp error {err:.3} ulp at {at:e}");
}

#[test]
fn special_values_are_exact() {
    for f in [ew::exp, ew::sigmoid, ew::tanh] {
        assert!(f(f32::NAN).is_nan());
        assert!(f(-f32::NAN).is_nan());
    }
    let bits = |v: f32| v.to_bits();
    assert_eq!(bits(ew::tanh(f32::INFINITY)), bits(1.0));
    assert_eq!(bits(ew::tanh(f32::NEG_INFINITY)), bits(-1.0));
    assert_eq!(bits(ew::tanh(0.0)), bits(0.0));
    assert_eq!(bits(ew::tanh(-0.0)), bits(-0.0));
    assert_eq!(bits(ew::sigmoid(f32::INFINITY)), bits(1.0));
    assert_eq!(bits(ew::sigmoid(f32::NEG_INFINITY)), bits(0.0));
    assert_eq!(bits(ew::exp(f32::NEG_INFINITY)), bits(0.0));
    assert_eq!(bits(ew::exp(f32::INFINITY)), bits(f32::INFINITY));
    assert_eq!(bits(ew::exp(0.0)), bits(1.0));
    // Past the overflow threshold, and on both sides of the subnormal
    // range's end.
    assert_eq!(ew::exp(88.8), f32::INFINITY);
    assert!(ew::exp(-100.0) > 0.0 && ew::exp(-100.0) < f32::MIN_POSITIVE);
    assert_eq!(bits(ew::exp(-104.0)), bits(0.0));
}

/// Bits with every NaN read as one canonical NaN: Rust leaves a NaN's
/// payload unspecified, so parity covers NaN-ness, not the payload.
fn bits_one_nan(data: &[f32]) -> Vec<u32> {
    data.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];

/// Sweep inputs laced with NaN, ±∞ and −0.0.
fn laced_inputs() -> Vec<f32> {
    sweep()
        .enumerate()
        .map(|(i, x)| if i % 61 == 0 { SPECIALS[i / 61 % 4] } else { x })
        .collect()
}

/// `f` over `input` one call at a time (`black_box` keeps each call
/// scalar) must equal the chunked maps bit for bit. Generic, so each
/// function is inlined into the maps and vectorized as in the kernels.
fn assert_chunked_matches_scalar(name: &str, input: &[f32], f: impl Fn(f32) -> f32 + Copy) {
    let one_by_one: Vec<f32> = input.iter().map(|&x| f(black_box(x))).collect();
    let mut chunked = vec![0.0f32; input.len()];
    ew::map1_to(&mut chunked, input, f);
    assert_eq!(
        bits_one_nan(&chunked),
        bits_one_nan(&one_by_one),
        "{name}: map1_to"
    );
    let mut in_place = input.to_vec();
    ew::map1_in_place(&mut in_place, f);
    assert_eq!(
        bits_one_nan(&in_place),
        bits_one_nan(&one_by_one),
        "{name}: map1_in_place"
    );
}

#[test]
fn chunked_map_rounds_like_one_call_per_element() {
    let input = laced_inputs();
    assert_chunked_matches_scalar("exp", &input, ew::exp);
    assert_chunked_matches_scalar("sigmoid", &input, ew::sigmoid);
    assert_chunked_matches_scalar("tanh", &input, ew::tanh);
}

/// FNV-1a over the output bits of `f` across the sweep, NaN payloads
/// aside.
fn output_checksum(f: fn(f32) -> f32) -> u64 {
    let outputs: Vec<f32> = sweep().map(f).collect();
    bits_one_nan(&outputs)
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
        })
}

/// The outputs are pinned bit for bit: they must not depend on the
/// build profile, the host's libm or whether the target has FMA. A
/// `mul_add`, a libm call or a reordered expression changes them.
#[test]
fn outputs_are_pinned() {
    let sums = [ew::exp, ew::sigmoid, ew::tanh].map(output_checksum);
    let pinned = [
        0x67ad_44ee_6fb9_c6e4,
        0xfa8f_8754_b11e_acba,
        0x6097_1a83_3eeb_1000,
    ];
    assert_eq!(sums, pinned, "exp, sigmoid, tanh");
}

#[test]
fn flat_bias_activation_matches_the_row_loop() {
    let mut x = 0x2545_f491_4f6c_dd1du64;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        (x >> 40) as f32 / (1u64 << 24) as f32 * 16.0 - 8.0
    };
    for (act, f) in [
        (FusedAct::Sigmoid, ew::sigmoid as fn(f32) -> f32),
        (FusedAct::Tanh, ew::tanh),
    ] {
        for n in 1..=33usize {
            for rows in [1usize, 3, 7] {
                let mut out: Vec<f32> = (0..rows * n).map(|_| next()).collect();
                let mut bias: Vec<f32> = (0..n).map(|_| next()).collect();
                for (r, row) in out.chunks_exact_mut(n).enumerate() {
                    row[r % n] = SPECIALS[r % 4];
                }
                bias[n - 1] = SPECIALS[n % 4];
                let mut row_loop = out.clone();
                ew::bias_act(&mut row_loop, &bias, |z| f(black_box(z)));
                act.bias_act(&mut out, &bias);
                assert_eq!(
                    bits_one_nan(&out),
                    bits_one_nan(&row_loop),
                    "{act:?} n={n} rows={rows}"
                );
            }
        }
    }
}
