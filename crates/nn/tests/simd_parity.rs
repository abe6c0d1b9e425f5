//! Bitwise parity of the AVX2 microkernels with the scalar fallback.
//!
//! The SIMD kernels are *constructed* to be bit-identical to the scalar
//! panels: ascending-k accumulation per output element, one mul + one
//! add rounding step per term (never FMA), and the same `a == 0.0` skip.
//! These tests pin that contract:
//!
//! * property tests drive each panel pair (zero-skip matmul, dense
//!   matmul, `aᵀ×b`) across odd shapes — non-multiple-of-tile M/N/K,
//!   single rows/columns, empty dims, zero-laced inputs — and require
//!   identical bits;
//! * a deterministic sweep hits every column-tail width (`n % 8`) of
//!   those three panels with non-finite values in the tail and a
//!   sentinel guard past the output, so the masked last strip can
//!   neither diverge nor write out of bounds;
//! * a second sweep checks the per-tile zero test and the row-pair tiles
//!   of widths 4 and 12 with operands that make a missed or misplaced
//!   zero visible: ±∞ and NaN in `b` where `a` is zero, or a −0.0
//!   output;
//! * a subprocess test re-runs a kernel + training battery under every
//!   `MGA_SIMD` × `MGA_THREADS` combination and compares checksums with
//!   the parent (the backend is latched once per process, so the kill
//!   switch needs a child process to exercise).

use mga_nn::simd;
use mga_nn::tape::{FusedAct, Tape};
use mga_nn::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random buffer with a controllable fraction of exact zeros, so the
/// zero-skip path is exercised and not just the dense arithmetic.
fn rand_data(rng: &mut StdRng, len: usize, zero_p: f64) -> Vec<f32> {
    (0..len)
        .map(|_| {
            if rng.gen_bool(zero_p) {
                0.0
            } else {
                rng.gen_range(-2.0f32..2.0)
            }
        })
        .collect()
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Zero-skip matmul panel: scalar and AVX2 agree bitwise on odd
    /// shapes, including dims below one tile and an empty k.
    #[test]
    fn matmul_panels_bitwise_equal(seed in 0u64..10_000) {
        if !simd::avx2_available() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let m = rng.gen_range(0usize..23);
        let k = rng.gen_range(0usize..40);
        let n = rng.gen_range(0usize..50);
        let a = rand_data(&mut rng, m * k, 0.25);
        let b = rand_data(&mut rng, k * n, 0.0);
        // Non-zero initial output: the kernels accumulate.
        let mut scalar = rand_data(&mut rng, m * n, 0.0);
        let mut vector = scalar.clone();
        simd::scalar_matmul_panel(&mut scalar, &a, m, k, &b, n);
        simd::avx2_matmul_panel(&mut vector, &a, m, k, &b, n);
        prop_assert_eq!(bits(&scalar), bits(&vector));
    }

    /// Dense (no zero-skip) panel — the backward-pass flavor.
    #[test]
    fn dense_panels_bitwise_equal(seed in 0u64..10_000) {
        if !simd::avx2_available() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0x5a5a);
        let m = rng.gen_range(0usize..23);
        let k = rng.gen_range(0usize..40);
        let n = rng.gen_range(0usize..50);
        let a = rand_data(&mut rng, m * k, 0.25);
        let b = rand_data(&mut rng, k * n, 0.0);
        let mut scalar = rand_data(&mut rng, m * n, 0.0);
        let mut vector = scalar.clone();
        simd::scalar_dense_panel(&mut scalar, &a, m, k, &b, n);
        simd::avx2_dense_panel(&mut vector, &a, m, k, &b, n);
        prop_assert_eq!(bits(&scalar), bits(&vector));
    }

    /// `aᵀ×b` panel (weight gradients).
    #[test]
    fn t_panels_bitwise_equal(seed in 0u64..10_000) {
        if !simd::avx2_available() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
        let rows = rng.gen_range(1usize..30);
        let acols = rng.gen_range(1usize..23);
        let n = rng.gen_range(0usize..50);
        let a = rand_data(&mut rng, rows * acols, 0.25);
        let b = rand_data(&mut rng, rows * n, 0.0);
        let mut scalar = rand_data(&mut rng, acols * n, 0.0);
        let mut vector = scalar.clone();
        simd::scalar_t_panel(&mut scalar, &a, &b, rows, acols, n);
        simd::avx2_t_panel(&mut vector, &a, &b, rows, acols, n);
        prop_assert_eq!(bits(&scalar), bits(&vector));
    }
}

/// Non-finite propagation must also match: the zero-skip makes
/// `0 × NaN = 0` (skipped) an intentional, shared semantic, and
/// unskipped NaN/Inf terms must poison identically.
#[test]
fn non_finite_inputs_agree_bitwise() {
    if !simd::avx2_available() {
        return;
    }
    let (m, k, n) = (3usize, 5usize, 17usize);
    let mut a = vec![1.0f32; m * k];
    a[2] = f32::NAN;
    a[7] = f32::INFINITY;
    a[11] = 0.0; // skipped even against NaN in b
    let mut b = vec![0.5f32; k * n];
    b[3] = f32::NEG_INFINITY;
    b[20] = f32::NAN;
    let mut scalar = vec![-0.0f32; m * n];
    let mut vector = scalar.clone();
    simd::scalar_matmul_panel(&mut scalar, &a, m, k, &b, n);
    simd::avx2_matmul_panel(&mut vector, &a, m, k, &b, n);
    assert_eq!(bits(&scalar), bits(&vector));
}

/// Bits with every NaN read as one canonical NaN. When two NaNs with
/// different payloads meet in an add, Rust leaves the result's payload
/// unspecified (LLVM may commute either kernel's operands), and the
/// scalar and AVX2 panels do pick differently — already for full
/// 8-column strips. Parity therefore covers NaN-ness, not the payload;
/// every other value, −0.0 included, compares bit for bit.
fn bits_one_nan(data: &[f32]) -> Vec<u32> {
    data.iter()
        .map(|x| if x.is_nan() { f32::NAN } else { *x }.to_bits())
        .collect()
}

/// Run `kernel` on a copy of `out` that is the prefix of a buffer with
/// eight trailing sentinel floats, assert the sentinels survived, and
/// return the output's [`bits_one_nan`]. The sentinel is a signalling
/// NaN, so any arithmetic on it (which quiets it) shows as well as a
/// plain store.
fn run_guarded(case: &str, out: &[f32], kernel: impl FnOnce(&mut [f32])) -> Vec<u32> {
    const SENTINEL: u32 = 0x7f80_1234;
    let mut buf = out.to_vec();
    buf.extend([f32::from_bits(SENTINEL); 8]);
    kernel(&mut buf[..out.len()]);
    assert_eq!(
        bits(&buf[out.len()..]),
        [SENTINEL; 8],
        "{case}: kernel wrote past the output slice"
    );
    bits_one_nan(&buf[..out.len()])
}

/// Every column-tail width, deterministically: the proptests draw `n`
/// at random, so any one `n % 8` is hit only by chance. For `n` in
/// 1..=33 the zero-skip, dense and `aᵀ×b` panels must match scalar
/// bits, NaN payloads aside. Inputs are laced with exact zeros, and the
/// last column of `b` and of the initial output cycles through NaN, ±∞
/// and −0.0.
#[test]
fn every_tail_width_matches_scalar_bitwise() {
    if !simd::avx2_available() {
        return;
    }
    const SPECIALS: [f32; 4] = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
    let mut rng = StdRng::seed_from_u64(0x7a11);
    for n in 1..=33usize {
        for m in [1usize, 3, 4, 5, 9] {
            for k in [0usize, 1, 12, 17] {
                let a = rand_data(&mut rng, m * k, 0.25);
                let mut b = rand_data(&mut rng, k * n, 0.25);
                let mut out = rand_data(&mut rng, m * n, 0.25);
                for (r, row) in b.chunks_exact_mut(n).enumerate() {
                    row[n - 1] = SPECIALS[r % 4];
                }
                for (r, row) in out.chunks_exact_mut(n).enumerate() {
                    row[n - 1] = SPECIALS[(r + 1) % 4];
                }

                let case = format!("zero-skip matmul n={n} m={m} k={k}");
                let s = run_guarded(&case, &out, |o| {
                    simd::scalar_matmul_panel(o, &a, m, k, &b, n)
                });
                let v = run_guarded(&case, &out, |o| simd::avx2_matmul_panel(o, &a, m, k, &b, n));
                assert_eq!(s, v, "{case} diverged");

                let case = format!("dense matmul n={n} m={m} k={k}");
                let s = run_guarded(&case, &out, |o| {
                    simd::scalar_dense_panel(o, &a, m, k, &b, n)
                });
                let v = run_guarded(&case, &out, |o| simd::avx2_dense_panel(o, &a, m, k, &b, n));
                assert_eq!(s, v, "{case} diverged");

                // `a` read as k rows × m columns.
                let case = format!("t_panel n={n} m={m} k={k}");
                let s = run_guarded(&case, &out, |o| simd::scalar_t_panel(o, &a, &b, k, m, n));
                let v = run_guarded(&case, &out, |o| simd::avx2_t_panel(o, &a, &b, k, m, n));
                assert_eq!(s, v, "{case} diverged");
            }
        }
    }
}

/// Where the zero-test sweep puts exact zeros among the terms of `a`,
/// indexed by output row and k step.
#[derive(Clone, Copy, Debug)]
enum Zeros {
    /// None, so every tile runs without the skip.
    Free,
    /// Every third output row is all +0.0: whole zero rows of the
    /// `a×b` operand, as for a node with no in-edge.
    WholeRows,
    /// Every third k step is +0.0 in every output row: whole zero rows
    /// of the `aᵀ×b` operand.
    WholeSteps,
    /// One +0.0 in one row of a pair: rows 1 and 4 at one k step each.
    OneInPair,
    /// −0.0: all of row 2, and one term of row 5.
    NegZero,
}

/// The terms `t[i][kk]` of `m` output rows over `k` steps for one
/// [`Zeros`] case; every term not placed as a zero is nonzero.
fn zero_case_terms(rng: &mut StdRng, m: usize, k: usize, zeros: Zeros) -> Vec<f32> {
    let mut t: Vec<f32> = (0..m * k)
        .map(|_| rng.gen_range(0.25f32..2.0) * if rng.gen_bool(0.5) { -1.0 } else { 1.0 })
        .collect();
    let mut put = |i: usize, kk: usize, v: f32| {
        if i < m && kk < k {
            t[i * k + kk] = v;
        }
    };
    for i in 0..m {
        for kk in 0..k {
            match zeros {
                Zeros::WholeRows if i % 3 == 1 => put(i, kk, 0.0),
                Zeros::WholeSteps if kk % 3 == 1 => put(i, kk, 0.0),
                Zeros::NegZero if i == 2 => put(i, kk, -0.0),
                _ => {}
            }
        }
    }
    match zeros {
        Zeros::OneInPair => {
            put(1, k / 2, 0.0);
            put(4, k.saturating_sub(1), 0.0);
        }
        Zeros::NegZero => put(5, k / 3, -0.0),
        _ => {}
    }
    t
}

/// The per-tile zero test and the row-pair tiles, deterministically.
/// Widths 4 and 12 run in row pairs, 11, 13, 16 and 20 in strips; m
/// (and `aᵀ×b`'s acols) 1..=9 covers every pair and 4-row remainder.
/// Adding `0·b` to a nonzero accumulator changes no bit, so a zero test
/// that read the wrong rows could pass random operands. Here each case
/// either puts ±∞ or NaN in the rows of `b` at the k steps where a term
/// is zero, so a zero term that is not skipped turns its outputs into
/// NaN, or starts the output at −0.0 with a finite `b`, so it turns
/// them into +0.0. The three panels must match scalar bits (NaN
/// payloads aside), and a sentinel past the output must survive.
#[test]
fn zero_tests_and_row_pairs_match_scalar_bitwise() {
    if !simd::avx2_available() {
        return;
    }
    const SPECIALS: [f32; 3] = [f32::INFINITY, f32::NEG_INFINITY, f32::NAN];
    let cases = [
        Zeros::Free,
        Zeros::WholeRows,
        Zeros::WholeSteps,
        Zeros::OneInPair,
        Zeros::NegZero,
    ];
    let mut rng = StdRng::seed_from_u64(0x2e50);
    for n in [4usize, 11, 12, 13, 16, 20] {
        for m in 1..=9usize {
            for k in [0usize, 1, 12, 17] {
                for zeros in cases {
                    for neg_zero_out in [false, true] {
                        let t = zero_case_terms(&mut rng, m, k, zeros);
                        // The same terms as an `aᵀ×b` operand: k rows of m.
                        let mut t_cols = vec![0.0f32; k * m];
                        for i in 0..m {
                            for kk in 0..k {
                                t_cols[kk * m + i] = t[i * k + kk];
                            }
                        }
                        let mut b = rand_data(&mut rng, k * n, 0.0);
                        let out = if neg_zero_out {
                            vec![-0.0f32; m * n]
                        } else {
                            for (kk, brow) in b.chunks_exact_mut(n).enumerate() {
                                if (0..m).any(|i| t[i * k + kk] == 0.0) {
                                    for (j, v) in brow.iter_mut().enumerate() {
                                        *v = SPECIALS[(kk + j) % 3];
                                    }
                                }
                            }
                            rand_data(&mut rng, m * n, 0.0)
                        };

                        let case = format!(
                            "zero-skip matmul n={n} m={m} k={k} {zeros:?} -0 out {neg_zero_out}"
                        );
                        let s = run_guarded(&case, &out, |o| {
                            simd::scalar_matmul_panel(o, &t, m, k, &b, n)
                        });
                        let v = run_guarded(&case, &out, |o| {
                            simd::avx2_matmul_panel(o, &t, m, k, &b, n)
                        });
                        assert_eq!(s, v, "{case} diverged");

                        let case = format!(
                            "dense matmul n={n} m={m} k={k} {zeros:?} -0 out {neg_zero_out}"
                        );
                        let s = run_guarded(&case, &out, |o| {
                            simd::scalar_dense_panel(o, &t, m, k, &b, n)
                        });
                        let v = run_guarded(&case, &out, |o| {
                            simd::avx2_dense_panel(o, &t, m, k, &b, n)
                        });
                        assert_eq!(s, v, "{case} diverged");

                        let case = format!(
                            "t_panel n={n} acols={m} rows={k} {zeros:?} -0 out {neg_zero_out}"
                        );
                        let s = run_guarded(&case, &out, |o| {
                            simd::scalar_t_panel(o, &t_cols, &b, k, m, n)
                        });
                        let v = run_guarded(&case, &out, |o| {
                            simd::avx2_t_panel(o, &t_cols, &b, k, m, n)
                        });
                        assert_eq!(s, v, "{case} diverged");
                    }
                }
            }
        }
    }
}

/// Checksum battery shared between the parent and the env-override
/// child processes: forward and `aᵀ×b` matmuls, and a 3-epoch fused
/// train loop so the tape's replay and in-place backward (the dense
/// `G·Wᵀ` panel) are all part of the checksum.
fn battery() -> Vec<u64> {
    let mut sums = Vec::new();
    let mut push = |data: &[f32]| {
        let mut h = 0xcbf29ce484222325u64;
        for &x in data {
            h = (h ^ (x.to_bits() as u64)).wrapping_mul(0x100000001b3);
        }
        sums.push(h);
    };
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(31337 + seed);
        // (37, 24, 2) and (9, 12, 5) are narrower than one 8-lane vector,
        // so the AVX2 leg runs them in a single masked tile.
        let shapes = [
            (1usize, 13usize, 24usize),
            (17, 40, 33),
            (160, 100, 160),
            (37, 24, 2),
            (9, 12, 5),
        ];
        for (m, k, n) in shapes {
            let a = Tensor::from_vec(m, k, rand_data(&mut rng, m * k, 0.25));
            let b = Tensor::from_vec(k, n, rand_data(&mut rng, k * n, 0.0));
            push(a.matmul(&b).data());
            push(a.t_matmul(&a.matmul(&b)).data());
        }
    }
    let mut rng = StdRng::seed_from_u64(777);
    let x = Tensor::from_vec(96, 64, rand_data(&mut rng, 96 * 64, 0.3));
    let mut w = Tensor::from_vec(64, 48, rand_data(&mut rng, 64 * 48, 0.0));
    let mut b = Tensor::from_vec(1, 48, rand_data(&mut rng, 48, 0.0));
    let targets: Vec<u32> = (0..96).map(|_| rng.gen_range(0u32..48)).collect();
    let mut tape = Tape::new();
    for _ in 0..3 {
        tape.reset();
        let xv = tape.leaf_ref(&x);
        let wv = tape.leaf(w.clone());
        let bv = tape.leaf(b.clone());
        let y = tape.linear(xv, wv, bv, FusedAct::Relu);
        let loss = tape.softmax_cross_entropy(y, &targets);
        tape.backward(loss);
        push(tape.value(y).data());
        let gw = tape.grad(wv).expect("weight grad").clone();
        let gb = tape.grad(bv).expect("bias grad").clone();
        push(gw.data());
        w.axpy(-0.05, &gw);
        b.axpy(-0.05, &gb);
    }
    sums
}

/// End-to-end: `MGA_SIMD=0` (scalar fallback) and the default backend
/// produce bit-identical results at every thread count. The backend and
/// pool size are latched once per process, so the combinations run as
/// child processes that dump checksums for the parent to compare.
#[test]
fn mga_simd_0_matches_default_across_thread_counts() {
    const DUMP: &str = "MGA_SIMD_PARITY_DUMP";
    let sums = battery();
    if let Ok(path) = std::env::var(DUMP) {
        // Child: record and exit.
        let text: Vec<String> = sums.iter().map(|s| s.to_string()).collect();
        std::fs::write(path, text.join("\n")).expect("write parity dump");
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for simd in ["0", "1"] {
        for threads in ["1", "4"] {
            let dump = std::env::temp_dir().join(format!(
                "mga_simd_parity_{}_{simd}_{threads}.txt",
                std::process::id()
            ));
            let status = std::process::Command::new(&exe)
                .args([
                    "--exact",
                    "mga_simd_0_matches_default_across_thread_counts",
                    "--nocapture",
                ])
                .env("MGA_SIMD", simd)
                .env("MGA_THREADS", threads)
                .env(DUMP, &dump)
                .status()
                .expect("spawn backend child");
            assert!(
                status.success(),
                "MGA_SIMD={simd} MGA_THREADS={threads} child run failed"
            );
            let text = std::fs::read_to_string(&dump).expect("read parity dump");
            let _ = std::fs::remove_file(&dump);
            let child_sums: Vec<u64> = text.lines().map(|l| l.parse().unwrap()).collect();
            assert_eq!(
                sums, child_sums,
                "MGA_SIMD={simd} MGA_THREADS={threads} diverged bitwise from this process"
            );
        }
    }
}
