//! Machine-readable performance snapshot: times one training epoch and
//! end-to-end inference for the Figure-4 configuration and writes
//! `BENCH_train.json` (one `{name, iters, ns_per_iter}` record per line,
//! stamped with the machine shape by [`mga_bench::bench_record`]) so
//! successive PRs can chart the perf trajectory on the same machine.
//!
//! Usage: `cargo run --release --bin bench_report [--quick] [--seed N]`.
//! Pass `MGA_THREADS=1` to snapshot the sequential baseline.
//!
//! Training scales across threads via micro-batch data parallelism, and
//! the pool is sized once per process — so the `train_epoch_threads_{N}`
//! records come from re-executing this binary with `--epoch-probe` under
//! `MGA_THREADS=N`. `train_scaling_4x` is their 4-thread/1-thread ratio
//! (per-mille, lower is better): a within-run ratio, machine-portable
//! where the absolute records are not, gating the parallel epoch's
//! health — on a multi-core box it shows the real speedup, on a
//! single-core box pure dispatch overhead, and a serialization bug
//! inflates it either way.
//!
//! `matmul_trio_n12` and `matmul_trio_n16` time the three GNN matmul
//! kernels — zero-skip `X·W`, dense `G·Wᵀ` and `Xᵀ·G` — on 512 rows at
//! widths 12 (the model's width: 12-wide rows run in pairs, 24
//! contiguous floats in three vectors) and 16 (one full 16-column
//! strip), with a quarter of `X` and `G` exact zeros. `matmul_tail_ratio`
//! is n12/n16 in per-mille: another within-run ratio, it gates the
//! narrow-width kernels, which no absolute record here can see. With
//! that many zeros nearly every tile of `X·W` and `Xᵀ·G` holds one and
//! takes the skipping path, so `matmul_trio_zero_free_n12` and `_n11`
//! time the same trio on zero-free operands, where every tile runs
//! without the skip, at 92 rows: the per-replica shape of the GNN's
//! products in a training epoch, small enough to stay in L1. Width 11
//! runs each row as a 16-lane strip with a masked last vector, the
//! tiling width 12 gets without row pairs, so `matmul_pair_ratio`,
//! their n12/n11, gates the row-pair tiles: it reads about 830–910 ‰
//! with them and 935–985 ‰ without. Like every kernel, the trios run
//! on the calling thread at any `MGA_THREADS`.
//!
//! `gate_act_trio` times the GRU's three gate activations — the
//! Sigmoid, Sigmoid and Tanh bias+activation passes — over a 512×12
//! buffer, in the same alternation as the matmul trios. `act_ratio` is
//! `gate_act_trio` over `matmul_trio_n12` in per-mille, a within-run
//! ratio that gates the activation functions: an activation that stops
//! vectorizing (a libm call, a row-bound loop) reads several times the
//! committed ratio.

use mga_bench::{bench_record, finish_run, manifest, model_cfg, parse_opts, thread_dataset};
use mga_core::cv::kfold_by_group;
use mga_core::model::{batch_targets, FusionModel, Modality};
use mga_core::omp::OmpTask;
use mga_nn::optim::AdamW;
use mga_nn::tape::FusedAct;
use mga_nn::tensor::{matmul_dense_into, matmul_into, t_matmul_into};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::io::Write as _;
use std::time::{Duration, Instant};

/// Median ns per call over timed batches (~0.5 s measurement per entry).
/// Returns the median so callers can stamp it into the run manifest.
fn time(name: &str, records: &mut Vec<String>, mut f: impl FnMut()) -> f64 {
    time_each(&mut [(name, &mut f)], records)[0]
}

/// [`time`] for several entries at once: their timed calls take turns,
/// so every entry sees the same machine conditions and a ratio of two
/// medians is not skewed by a slow spell that hit only one of them.
fn time_each(entries: &mut [(&str, &mut dyn FnMut())], records: &mut Vec<String>) -> Vec<f64> {
    for (_, f) in entries.iter_mut() {
        f(); // warm-up
    }
    let budget = Duration::from_millis(500) * entries.len() as u32;
    let mut samples = vec![Vec::new(); entries.len()];
    let start = Instant::now();
    while start.elapsed() < budget || samples[0].is_empty() {
        for ((_, f), s) in entries.iter_mut().zip(&mut samples) {
            let t0 = Instant::now();
            f();
            s.push(t0.elapsed().as_nanos() as f64);
        }
    }
    entries
        .iter()
        .zip(samples)
        .map(|((name, _), mut s)| {
            s.sort_by(|a, b| a.total_cmp(b));
            let ns = s[s.len() / 2];
            let iters = s.len();
            println!("{name:<28} {ns:>16.1} ns/iter  ({iters} iters)");
            records.push(bench_record(name, iters as u64, ns));
            ns
        })
        .collect()
}

/// One trio of width-`w` GNN products over `rows` rows, as a closure:
/// the forward `X·W` (zero-skip), the backward `G·Wᵀ` against a
/// pre-transposed weight (dense) and the weight gradient `Xᵀ·G`. Each
/// element of `X`, `G` and `W` is an exact zero with probability
/// `zero_p`, and otherwise uniform in [−1, 1).
fn matmul_trio(w: usize, rows: usize, zero_p: f64) -> impl FnMut() {
    let mut rng = StdRng::seed_from_u64(w as u64);
    let mut data = |len: usize| -> Vec<f32> {
        (0..len)
            .map(|_| {
                if rng.gen_bool(zero_p) {
                    0.0
                } else {
                    rng.gen_range(-1.0f32..1.0)
                }
            })
            .collect()
    };
    let x = data(rows * w);
    let g = data(rows * w);
    let weight = data(w * w);
    assert!(
        zero_p > 0.0 || [&x, &g].iter().all(|d| !d.contains(&0.0)),
        "a zero-free trio drew an exact zero"
    );
    let mut y = vec![0.0f32; rows * w];
    let mut gx = vec![0.0f32; rows * w];
    let mut gw = vec![0.0f32; w * w];
    move || {
        y.fill(0.0);
        gx.fill(0.0);
        gw.fill(0.0);
        matmul_into(&mut y, &x, rows, w, &weight, w);
        matmul_dense_into(&mut gx, &g, rows, w, &weight, w);
        t_matmul_into(&mut gw, &x, rows, w, &g, w);
        std::hint::black_box((&y, &gx, &gw));
    }
}

/// The GRU gates' activations as a closure: the Sigmoid, Sigmoid and
/// Tanh bias+activation passes over a 512×12 buffer, each refilled from
/// the same fixed inputs in [−4, 4] first.
fn gate_act_trio() -> impl FnMut() {
    const LEN: usize = 512 * 12;
    let mut rng = StdRng::seed_from_u64(12);
    let input: Vec<f32> = (0..LEN).map(|_| rng.gen_range(-4.0f32..4.0)).collect();
    let bias: Vec<f32> = (0..12).map(|_| rng.gen_range(-0.25f32..0.25)).collect();
    let mut buf = vec![0.0f32; LEN];
    move || {
        for act in [FusedAct::Sigmoid, FusedAct::Sigmoid, FusedAct::Tanh] {
            buf.copy_from_slice(&input);
            act.bias_act(&mut buf, &bias);
            std::hint::black_box(&buf);
        }
    }
}

/// `--epoch-probe` mode: build the same fold and model as the main run,
/// time `train_epoch`, print one parseable line and exit. Run in a child
/// process per thread count (the pool reads `MGA_THREADS` once).
fn epoch_probe() -> ! {
    let opts = parse_opts();
    let ds = thread_dataset(opts);
    let task = OmpTask::new(&ds);
    let data = task.train_data(&ds);
    let folds = kfold_by_group(&ds.groups(), 5, opts.seed);
    let fold = &folds[0];
    let cfg = model_cfg(opts, Modality::Multimodal, true);
    let mut model = FusionModel::fit(cfg, &data, &fold.train, &task.codec.head_sizes());
    let prep = model.prepare(&data, &fold.train);
    let targets = batch_targets(&data, &fold.train, task.codec.head_sizes().len());
    let mut opt = AdamW::new(0.02).with_weight_decay(0.001);
    let mut records = Vec::new();
    let ns = time("train_epoch_probe", &mut records, || {
        std::hint::black_box(model.train_epoch(&prep, &targets, &mut opt));
    });
    println!("epoch_probe_ns: {ns:.1}");
    std::process::exit(0);
}

/// Re-exec this binary as an epoch probe under `MGA_THREADS=threads`;
/// returns the measured ns/epoch, or `None` if the child failed.
fn probe_threads(threads: usize, quick: bool, seed: u64) -> Option<f64> {
    let exe = std::env::current_exe().ok()?;
    let mut cmd = std::process::Command::new(exe);
    cmd.arg("--epoch-probe").arg("--quiet");
    if quick {
        cmd.arg("--quick");
    }
    cmd.arg("--seed").arg(seed.to_string());
    let out = cmd
        .env("MGA_THREADS", threads.to_string())
        // The probe must not inherit trace/metrics sinks — its child
        // telemetry would interleave with (and corrupt) this run's.
        .env_remove("MGA_TRACE")
        .env_remove("MGA_METRICS_OUT")
        .output()
        .ok()?;
    if !out.status.success() {
        eprintln!("epoch probe (MGA_THREADS={threads}) failed: {}", out.status);
        return None;
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .find_map(|l| l.strip_prefix("epoch_probe_ns: ")?.trim().parse().ok())
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    if args.iter().any(|a| a == "--epoch-probe") {
        epoch_probe();
    }
    let opts = parse_opts();
    let ds = thread_dataset(opts);
    let task = OmpTask::new(&ds);
    let data = task.train_data(&ds);
    let folds = kfold_by_group(&ds.groups(), 5, opts.seed);
    let fold = &folds[0];
    let cfg = model_cfg(opts, Modality::Multimodal, true);

    println!(
        "bench_report: Fig. 4 config, {} train / {} val samples, {} threads",
        fold.train.len(),
        fold.val.len(),
        mga_nn::pool::num_threads()
    );

    let mut man = manifest("bench_report", opts);
    man.set_int("train_samples", fold.train.len() as i64)
        .set_int("val_samples", fold.val.len() as i64);

    let mut records = Vec::new();
    let mut model = FusionModel::fit(cfg, &data, &fold.train, &task.codec.head_sizes());
    let prep = model.prepare(&data, &fold.train);
    let targets = batch_targets(&data, &fold.train, task.codec.head_sizes().len());

    let prep_ns = time("prepare_fold", &mut records, || {
        std::hint::black_box(model.prepare(&data, &fold.train));
    });
    let mut opt = AdamW::new(0.02).with_weight_decay(0.001);
    let epoch_ns = time("train_epoch", &mut records, || {
        std::hint::black_box(model.train_epoch(&prep, &targets, &mut opt));
    });
    let inf_ns = time("inference_fold", &mut records, || {
        std::hint::black_box(model.predict(&data, &fold.val));
    });
    let one_ns = time("inference_one_sample", &mut records, || {
        std::hint::black_box(model.predict(&data, &fold.val[..1]));
    });
    man.set_float("prepare_fold_ns", prep_ns)
        .set_float("train_epoch_ns", epoch_ns)
        .set_float("inference_fold_ns", inf_ns)
        .set_float("inference_one_sample_ns", one_ns);

    // Thread-scaling records for the data-parallel epoch, one probe
    // subprocess per thread count (see the module docs).
    let mut per_thread = Vec::new();
    for threads in [1usize, 2, 4] {
        match probe_threads(threads, opts.quick, opts.seed) {
            Some(ns) => {
                let name = format!("train_epoch_threads_{threads}");
                println!("{name:<28} {ns:>16.1} ns/iter  (probe)");
                records.push(bench_record(&name, 1, ns));
                man.set_float(&format!("{name}_ns"), ns);
                per_thread.push((threads, ns));
            }
            None => eprintln!("bench_report: skipping train_epoch_threads_{threads} record"),
        }
    }
    let t1 = per_thread.iter().find(|(t, _)| *t == 1).map(|&(_, ns)| ns);
    let t4 = per_thread.iter().find(|(t, _)| *t == 4).map(|&(_, ns)| ns);
    if let (Some(t1), Some(t4)) = (t1, t4) {
        if t1 > 0.0 {
            let ratio = (t4 / t1 * 1000.0).round();
            println!("{:<28} {ratio:>16.1} per-mille (4t/1t)", "train_scaling_4x");
            records.push(bench_record("train_scaling_4x", 1, ratio));
            man.set_float("train_scaling_4x_permille", ratio);
        }
    }

    let (mut n12, mut n16) = (matmul_trio(12, 512, 0.25), matmul_trio(16, 512, 0.25));
    let (mut free12, mut free11) = (matmul_trio(12, 92, 0.0), matmul_trio(11, 92, 0.0));
    let mut act = gate_act_trio();
    let trios = time_each(
        &mut [
            ("matmul_trio_n12", &mut n12),
            ("matmul_trio_n16", &mut n16),
            ("matmul_trio_zero_free_n12", &mut free12),
            ("matmul_trio_zero_free_n11", &mut free11),
            ("gate_act_trio", &mut act),
        ],
        &mut records,
    );
    let (n12, n16, free12, free11, act) = (trios[0], trios[1], trios[2], trios[3], trios[4]);
    let tail_ratio = (n12 / n16 * 1000.0).round();
    let pair_ratio = (free12 / free11 * 1000.0).round();
    let act_ratio = (act / n12 * 1000.0).round();
    for (name, ratio, of) in [
        ("matmul_tail_ratio", tail_ratio, "n12/n16"),
        ("matmul_pair_ratio", pair_ratio, "zero-free n12/n11"),
        ("act_ratio", act_ratio, "act/n12"),
    ] {
        println!("{name:<28} {ratio:>16.1} per-mille ({of})");
        records.push(bench_record(name, 1, ratio));
    }
    man.set_float("matmul_trio_n12_ns", n12)
        .set_float("matmul_trio_n16_ns", n16)
        .set_float("matmul_trio_zero_free_n12_ns", free12)
        .set_float("matmul_trio_zero_free_n11_ns", free11)
        .set_float("gate_act_trio_ns", act)
        .set_float("matmul_tail_ratio_permille", tail_ratio)
        .set_float("matmul_pair_ratio_permille", pair_ratio)
        .set_float("act_ratio_permille", act_ratio);

    let path = "BENCH_train.json";
    let write_records = || -> std::io::Result<()> {
        let mut fh = std::fs::File::create(path)?;
        for r in &records {
            writeln!(fh, "{r}")?;
        }
        Ok(())
    };
    match write_records() {
        Ok(()) => println!("\nwrote {} records to {path}", records.len()),
        Err(e) => {
            eprintln!("bench_report: cannot write {path}: {e}");
            std::process::exit(1);
        }
    }
    finish_run(&mut man);
}
