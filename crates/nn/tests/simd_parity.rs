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
//! * a subprocess test re-runs a kernel + training battery under every
//!   `MGA_SIMD` × `MGA_THREADS` combination and compares checksums with
//!   the parent (the backend is latched once per process, so the kill
//!   switch needs a child process to exercise);
//! * alignment spot checks that tensor/arena storage honors the 64-byte
//!   contract the kernels are tuned for.

use mga_nn::aligned;
use mga_nn::arena::Arena;
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

    /// `aᵀ×b` panel (weight gradients), including interior `[lo, hi)`
    /// row ranges as the thread pool would carve them.
    #[test]
    fn t_panels_bitwise_equal(seed in 0u64..10_000) {
        if !simd::avx2_available() {
            return Ok(());
        }
        let mut rng = StdRng::seed_from_u64(seed ^ 0xa5a5);
        let rows = rng.gen_range(1usize..30);
        let acols = rng.gen_range(1usize..23);
        let n = rng.gen_range(0usize..50);
        let lo = rng.gen_range(0usize..acols);
        let hi = rng.gen_range(lo..=acols);
        let a = rand_data(&mut rng, rows * acols, 0.25);
        let b = rand_data(&mut rng, rows * n, 0.0);
        let mut scalar = rand_data(&mut rng, (hi - lo) * n, 0.0);
        let mut vector = scalar.clone();
        simd::scalar_t_panel(&mut scalar, &a, &b, rows, acols, n, lo, hi);
        simd::avx2_t_panel(&mut vector, &a, &b, rows, acols, n, lo, hi);
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
/// 1..=33 the zero-skip, dense and `aᵀ×b` panels (full and interior row
/// ranges) must match scalar bits, NaN payloads aside. Inputs are laced
/// with exact zeros, and the last column of `b` and of the initial
/// output cycles through NaN, ±∞ and −0.0.
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

                // `a` read as k rows × m columns: output rows [lo, hi).
                for (lo, hi) in [(0, m), (m / 3, m - m / 3)] {
                    let case = format!("t_panel n={n} m={m} k={k} rows {lo}..{hi}");
                    let o = &out[..(hi - lo) * n];
                    let s = run_guarded(&case, o, |o| {
                        simd::scalar_t_panel(o, &a, &b, k, m, n, lo, hi)
                    });
                    let v =
                        run_guarded(&case, o, |o| simd::avx2_t_panel(o, &a, &b, k, m, n, lo, hi));
                    assert_eq!(s, v, "{case} diverged");
                }
            }
        }
    }
}

/// Tensor and arena storage all honors the 64-byte alignment contract
/// the microkernels are tuned for.
#[test]
fn tensor_and_arena_buffers_are_aligned() {
    for t in [
        Tensor::zeros(3, 7),
        Tensor::full(5, 5, 1.5),
        Tensor::from_vec(2, 9, (0..18).map(|i| i as f32).collect()),
        Tensor::row(vec![1.0, 2.0, 3.0]),
    ] {
        assert!(aligned::is_aligned(t.data()), "tensor storage misaligned");
    }
    let mut arena = Arena::new();
    for len in [1usize, 9, 31, 100, 4096] {
        let buf = arena.take(len);
        assert!(aligned::is_aligned(&buf), "arena buffer misaligned");
        arena.give(buf);
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
