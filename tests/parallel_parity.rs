//! Bitwise parity of the parallel runtime with the sequential path.
//!
//! The pool-backed kernels (`matmul`, `matmul_dense`, `t_matmul`, the
//! gather/scatter message-passing primitives) and the fold-parallel CV
//! driver all partition work by *output row* while keeping each row's
//! accumulation order fixed, so the result must be bit-identical for any
//! thread count — including `MGA_THREADS=1`, which forces the fully
//! sequential path.
//!
//! Two layers of checks:
//! * property tests that each output row of a (potentially parallel)
//!   kernel call equals the same row computed alone — row computations
//!   are partition-invariant, so no row split can change results;
//! * an end-to-end subprocess test that re-runs a kernel + CV battery
//!   under `MGA_THREADS=1` and compares bit checksums with the parent
//!   process running at the default thread count.

use mga::core::cv::{run_folds, Fold};
use mga::nn::segment;
use mga::nn::tape::{FusedAct, Tape};
use mga::nn::tensor::Tensor;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

fn rand_tensor(rng: &mut StdRng, rows: usize, cols: usize) -> Tensor {
    Tensor::from_vec(
        rows,
        cols,
        (0..rows * cols)
            .map(|_| rng.gen_range(-1.0f32..1.0))
            .collect(),
    )
}

fn bits(data: &[f32]) -> Vec<u32> {
    data.iter().map(|x| x.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Each row of A×B equals the same row computed as a 1×k product:
    /// row panels are independent, so any parallel row partition is
    /// bitwise-identical to the sequential kernel. Shapes straddle the
    /// parallel dispatch threshold (2^21 flops).
    #[test]
    fn matmul_rows_are_partition_invariant(
        seed in 0u64..1000,
        big in proptest::strategy::Just(false),
    ) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (m, k, n) = if big || seed % 4 == 0 {
            (160, 100, 160) // 2.56e6 flops: above threshold, parallel
        } else {
            (
                rng.gen_range(1usize..24),
                rng.gen_range(1usize..24),
                rng.gen_range(1usize..24),
            )
        };
        let a = rand_tensor(&mut rng, m, k);
        let b = rand_tensor(&mut rng, k, n);
        let full = a.matmul(&b);
        for i in (0..m).step_by((m / 4).max(1)) {
            let row = Tensor::from_vec(1, k, a.row_slice(i).to_vec());
            prop_assert_eq!(
                bits(full.row_slice(i)),
                bits(row.matmul(&b).data()),
                "matmul row {} diverges from its standalone computation", i
            );
        }
    }

    /// Aᵀ×B partitions output rows (= columns of A); k scans all of A's
    /// rows in order, so a single extracted column reproduces its row of
    /// the full product bitwise.
    #[test]
    fn t_matmul_rows_are_partition_invariant(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(14000));
        let (rows, acols, n) = if seed % 4 == 0 {
            (100, 160, 160)
        } else {
            (
                rng.gen_range(1usize..24),
                rng.gen_range(1usize..24),
                rng.gen_range(1usize..24),
            )
        };
        let a = rand_tensor(&mut rng, rows, acols);
        let b = rand_tensor(&mut rng, rows, n);
        let full = a.t_matmul(&b);
        for i in (0..acols).step_by((acols / 4).max(1)) {
            let col = Tensor::from_vec(
                rows,
                1,
                (0..rows).map(|r| a.get(r, i)).collect(),
            );
            prop_assert_eq!(
                bits(full.row_slice(i)),
                bits(col.t_matmul(&b).data()),
                "t_matmul row {} diverges", i
            );
        }
    }

    /// Scatter partitions *output* rows; every chunk scans the full index
    /// list in order, so each output row matches a standalone scatter of
    /// just its own contributions. Sizes cross the parallel-elements
    /// threshold (2^16) when seed % 3 == 0.
    #[test]
    fn scatter_rows_are_partition_invariant(
        seed in 0u64..1000,
        mean in proptest::strategy::Just(true),
    ) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(21000));
        let (n_src, cols, out_rows) = if seed % 3 == 0 {
            (1200, 64, 40) // 76800 elements: parallel dispatch
        } else {
            (
                rng.gen_range(1usize..40),
                rng.gen_range(1usize..12),
                rng.gen_range(1usize..10),
            )
        };
        let src = rand_tensor(&mut rng, n_src, cols);
        let index: Vec<u32> =
            (0..n_src).map(|_| rng.gen_range(0u32..out_rows as u32)).collect();
        for &use_mean in &[false, mean] {
            let mut full = vec![0.0f32; out_rows * cols];
            segment::scatter_rows_into(&mut full, out_rows, src.data(), cols, &index, use_mean);
            for r in (0..out_rows).step_by((out_rows / 4).max(1)) {
                // The same row computed alone, from only its contributions
                // (kept in original scan order).
                let mine: Vec<usize> = index
                    .iter()
                    .enumerate()
                    .filter(|(_, &g)| g as usize == r)
                    .map(|(i, _)| i)
                    .collect();
                let sub_src: Vec<f32> = mine
                    .iter()
                    .flat_map(|&i| src.row_slice(i).iter().copied())
                    .collect();
                let sub_index = vec![0u32; mine.len()];
                let mut alone = vec![0.0f32; cols];
                segment::scatter_rows_into(&mut alone, 1, &sub_src, cols, &sub_index, use_mean);
                prop_assert_eq!(
                    bits(&full[r * cols..(r + 1) * cols]),
                    bits(&alone),
                    "scatter(mean={}) row {} diverges", use_mean, r
                );
            }
        }
    }

    /// Gathers are pure row copies — parallel or not, the output must be
    /// exactly the indexed source rows.
    #[test]
    fn gather_rows_copy_exactly(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(28000));
        let (n_src, cols, n_idx) = if seed % 3 == 0 {
            (300, 64, 1100)
        } else {
            (
                rng.gen_range(1usize..40),
                rng.gen_range(1usize..12),
                rng.gen_range(1usize..50),
            )
        };
        let src = rand_tensor(&mut rng, n_src, cols);
        let index: Vec<u32> =
            (0..n_idx).map(|_| rng.gen_range(0u32..n_src as u32)).collect();
        let mut out = vec![0.0f32; n_idx * cols];
        segment::gather_rows_into(&mut out, src.data(), cols, &index);
        for (j, &i) in index.iter().enumerate() {
            prop_assert_eq!(
                bits(&out[j * cols..(j + 1) * cols]),
                bits(src.row_slice(i as usize)),
                "gather row {} diverges", j
            );
        }
    }

    /// The fused `linear` op (matmul → bias → activation in one node)
    /// is bitwise-identical to the unfused three-op sequence, values and
    /// gradients both, at sizes on either side of the parallel matmul
    /// threshold.
    #[test]
    fn fused_linear_matches_unfused_bitwise(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(35000));
        let (m, k, n) = if seed % 4 == 0 {
            (160, 100, 160)
        } else {
            (
                rng.gen_range(1usize..24),
                rng.gen_range(1usize..24),
                rng.gen_range(1usize..24),
            )
        };
        let x = rand_tensor(&mut rng, m, k);
        let w = rand_tensor(&mut rng, k, n);
        let b = rand_tensor(&mut rng, 1, n);
        let tgt = Tensor::zeros(m, n);
        for act in [FusedAct::Identity, FusedAct::Relu, FusedAct::Sigmoid, FusedAct::Tanh] {
            let mut ft = Tape::new();
            let (fx, fw, fb) = (ft.leaf(x.clone()), ft.leaf(w.clone()), ft.leaf(b.clone()));
            let fy = ft.linear(fx, fw, fb, act);
            let fl = ft.mse_loss(fy, &tgt);
            ft.backward(fl);

            let mut ut = Tape::new();
            let (ux, uw, ub) = (ut.leaf(x.clone()), ut.leaf(w.clone()), ut.leaf(b.clone()));
            let h = ut.matmul(ux, uw);
            let h = ut.add_bias(h, ub);
            let uy = match act {
                FusedAct::Identity => h,
                FusedAct::Relu => ut.relu(h),
                FusedAct::Sigmoid => ut.sigmoid(h),
                FusedAct::Tanh => ut.tanh(h),
            };
            let ul = ut.mse_loss(uy, &tgt);
            ut.backward(ul);

            prop_assert_eq!(bits(ft.value(fy).data()), bits(ut.value(uy).data()));
            for (fv, uv) in [(fx, ux), (fw, uw), (fb, ub)] {
                prop_assert_eq!(
                    bits(ft.grad(fv).unwrap().data()),
                    bits(ut.grad(uv).unwrap().data()),
                    "fused linear grad diverges for act {:?}", act
                );
            }
        }
    }

    /// The two-product fused `linear2` (the GRU gate shape,
    /// `act(xW + hU + b)`) against the unfused five-op sequence.
    #[test]
    fn fused_linear2_matches_unfused_bitwise(seed in 0u64..1000) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(42000));
        let (m, k, k2, n) = if seed % 4 == 0 {
            (160, 100, 64, 160)
        } else {
            (
                rng.gen_range(1usize..16),
                rng.gen_range(1usize..16),
                rng.gen_range(1usize..16),
                rng.gen_range(1usize..16),
            )
        };
        let x = rand_tensor(&mut rng, m, k);
        let w = rand_tensor(&mut rng, k, n);
        let h0 = rand_tensor(&mut rng, m, k2);
        let u = rand_tensor(&mut rng, k2, n);
        let b = rand_tensor(&mut rng, 1, n);
        let tgt = Tensor::zeros(m, n);
        for act in [FusedAct::Sigmoid, FusedAct::Tanh] {
            let mut ft = Tape::new();
            let fx = ft.leaf(x.clone());
            let fw = ft.leaf(w.clone());
            let fh = ft.leaf(h0.clone());
            let fu = ft.leaf(u.clone());
            let fb = ft.leaf(b.clone());
            let fy = ft.linear2(fx, fw, fh, fu, fb, act);
            let fl = ft.mse_loss(fy, &tgt);
            ft.backward(fl);

            let mut ut = Tape::new();
            let ux = ut.leaf(x.clone());
            let uw = ut.leaf(w.clone());
            let uh = ut.leaf(h0.clone());
            let uu = ut.leaf(u.clone());
            let ub = ut.leaf(b.clone());
            let xw = ut.matmul(ux, uw);
            let hu = ut.matmul(uh, uu);
            let s = ut.add(xw, hu);
            let s = ut.add_bias(s, ub);
            let uy = match act {
                FusedAct::Sigmoid => ut.sigmoid(s),
                _ => ut.tanh(s),
            };
            let ul = ut.mse_loss(uy, &tgt);
            ut.backward(ul);

            prop_assert_eq!(bits(ft.value(fy).data()), bits(ut.value(uy).data()));
            for (fv, uv) in [(fx, ux), (fw, uw), (fh, uh), (fu, uu), (fb, ub)] {
                prop_assert_eq!(
                    bits(ft.grad(fv).unwrap().data()),
                    bits(ut.grad(uv).unwrap().data()),
                    "fused linear2 grad diverges for act {:?}", act
                );
            }
        }
    }

    /// A replayed epoch (persistent tape, `reset()` + rebuild into
    /// recycled buffers) is bitwise-identical to running that epoch on a
    /// fresh tape — and steady-state replays allocate nothing.
    #[test]
    fn replayed_epoch_matches_fresh_tape_bitwise(seed in 0u64..200) {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_add(49000));
        let x = rand_tensor(&mut rng, 12, 8);
        let w0 = rand_tensor(&mut rng, 8, 6);
        let b0 = rand_tensor(&mut rng, 1, 6);
        let targets: Vec<u32> = (0..12).map(|_| rng.gen_range(0u32..6)).collect();

        let epoch = |tape: &mut Tape, w: &Tensor, b: &Tensor| -> (f32, Tensor, Tensor) {
            let xv = tape.leaf_ref(&x);
            let wv = tape.leaf(w.clone());
            let bv = tape.leaf(b.clone());
            let y = tape.linear(xv, wv, bv, FusedAct::Tanh);
            let loss = tape.softmax_cross_entropy(y, &targets);
            tape.backward(loss);
            let l = tape.value(loss).get(0, 0);
            let gw = tape.grad(wv).unwrap().clone();
            let gb = tape.grad(bv).unwrap().clone();
            (l, gw, gb)
        };
        let step = |w: &mut Tensor, b: &mut Tensor, gw: &Tensor, gb: &Tensor| {
            w.axpy(-0.1, gw);
            b.axpy(-0.1, gb);
        };

        let mut persistent = Tape::new();
        let (mut pw, mut pb) = (w0.clone(), b0.clone());
        let (mut fw, mut fb) = (w0.clone(), b0.clone());
        for e in 0..4 {
            persistent.reset();
            let (pl, pgw, pgb) = epoch(&mut persistent, &pw, &pb);
            if e >= 1 {
                prop_assert_eq!(
                    persistent.pass_alloc_bytes(), 0,
                    "replay epoch {} allocated", e
                );
            }
            let mut fresh = Tape::new();
            let (fl, fgw, fgb) = epoch(&mut fresh, &fw, &fb);
            prop_assert_eq!(pl.to_bits(), fl.to_bits(), "loss diverges at epoch {}", e);
            prop_assert_eq!(bits(pgw.data()), bits(fgw.data()));
            prop_assert_eq!(bits(pgb.data()), bits(fgb.data()));
            step(&mut pw, &mut pb, &pgw, &pgb);
            step(&mut fw, &mut fb, &fgw, &fgb);
        }
    }

    /// Fold-parallel CV returns exactly what the sequential fold loop
    /// returns, in fold order, when the evaluation is fold-seeded.
    #[test]
    fn run_folds_matches_sequential_map(seed in 0u64..1000, k in 2usize..7) {
        let folds: Vec<Fold> = (0..k)
            .map(|f| Fold {
                train: (0..30).filter(|i| i % k != f).collect(),
                val: (0..30).filter(|i| i % k == f).collect(),
            })
            .collect();
        let eval = |fi: usize, fold: &Fold| -> Vec<u32> {
            // Real tensor work, seeded only by (outer seed, fold index).
            let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(31).wrapping_add(fi as u64));
            let a = rand_tensor(&mut rng, fold.train.len().max(1), 8);
            let b = rand_tensor(&mut rng, 8, fold.val.len().max(1));
            a.matmul(&b).data().iter().map(|x| x.to_bits()).collect()
        };
        let sequential: Vec<Vec<u32>> =
            folds.iter().enumerate().map(|(fi, f)| eval(fi, f)).collect();
        let parallel = run_folds(&folds, eval);
        prop_assert_eq!(parallel, sequential);
    }
}

/// Bit checksum battery exercising every pool-backed code path at sizes
/// above the parallel dispatch thresholds, plus a fold-parallel CV run.
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
        let mut rng = StdRng::seed_from_u64(4242 + seed);
        let a = rand_tensor(&mut rng, 160, 100);
        let b = rand_tensor(&mut rng, 100, 160);
        let d = rand_tensor(&mut rng, 160, 160);
        push(a.matmul(&b).data());
        push(d.t_matmul(&b.t_matmul(&b)).data());

        let src = rand_tensor(&mut rng, 1500, 64);
        let index: Vec<u32> = (0..1500).map(|_| rng.gen_range(0u32..37)).collect();
        let mut sum = vec![0.0f32; 40 * 64];
        segment::scatter_rows_into(&mut sum, 40, src.data(), 64, &index, false);
        push(&sum);
        let mut mean = vec![0.0f32; 40 * 64];
        segment::scatter_rows_into(&mut mean, 40, src.data(), 64, &index, true);
        push(&mean);
        let mut gathered = vec![0.0f32; 1500 * 64];
        segment::gather_rows_into(&mut gathered, &mean[..], 64, &index);
        push(&gathered);
    }
    // Fold-parallel CV on top of parallel kernels (nested pool use).
    let folds: Vec<Fold> = (0..5)
        .map(|f| Fold {
            train: (0..60).filter(|i| i % 5 != f).collect(),
            val: (0..60).filter(|i| i % 5 == f).collect(),
        })
        .collect();
    let outs = run_folds(&folds, |fi, fold| {
        let mut rng = StdRng::seed_from_u64(77 + fi as u64);
        let a = rand_tensor(&mut rng, fold.train.len() * 4, 64);
        let b = rand_tensor(&mut rng, 64, 160);
        a.matmul(&b)
    });
    for t in &outs {
        push(t.data());
    }
    // Fused forward + in-place backward above the parallel matmul
    // threshold, run as a 3-epoch persistent-tape training loop so the
    // replay path itself is part of the cross-thread-count checksum.
    let mut rng = StdRng::seed_from_u64(9090);
    let x = rand_tensor(&mut rng, 160, 100);
    let mut w = rand_tensor(&mut rng, 100, 160);
    let mut b = rand_tensor(&mut rng, 1, 160);
    let targets: Vec<u32> = (0..160).map(|_| rng.gen_range(0u32..160)).collect();
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

/// End-to-end check that `MGA_THREADS=1` (fully sequential path) matches
/// the default parallel run bitwise: the test re-executes itself in a
/// child process with the env override and compares checksums, since the
/// pool reads `MGA_THREADS` once per process.
#[test]
fn mga_threads_1_matches_default_bitwise() {
    const DUMP: &str = "MGA_PARITY_DUMP";
    let sums = battery();
    if let Ok(path) = std::env::var(DUMP) {
        // Child: record and exit.
        let text: Vec<String> = sums.iter().map(|s| s.to_string()).collect();
        std::fs::write(path, text.join("\n")).expect("write parity dump");
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "4"] {
        let dump =
            std::env::temp_dir().join(format!("mga_parity_{}_{threads}.txt", std::process::id()));
        let status = std::process::Command::new(&exe)
            .args([
                "--exact",
                "mga_threads_1_matches_default_bitwise",
                "--nocapture",
            ])
            .env("MGA_THREADS", threads)
            .env(DUMP, &dump)
            .status()
            .expect("spawn thread-count child");
        assert!(status.success(), "MGA_THREADS={threads} child run failed");
        let text = std::fs::read_to_string(&dump).expect("read parity dump");
        let _ = std::fs::remove_file(&dump);
        let child_sums: Vec<u64> = text.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(
            sums, child_sums,
            "default and MGA_THREADS={threads} runs disagree bitwise"
        );
    }
}
