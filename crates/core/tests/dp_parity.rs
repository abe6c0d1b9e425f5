//! Data-parallel training parity.
//!
//! The micro-batch partition and the binary-tree gradient reduction are
//! pure functions of the batch and the width W — never of `MGA_THREADS`
//! — so a trained model must be:
//!
//! * bitwise deterministic for every fixed width (repeat runs agree),
//! * bitwise identical across thread counts for the same width (the
//!   cross-process battery re-executes this binary under
//!   `MGA_THREADS` ∈ {1, 4}),
//! * numerically equivalent across widths (same gradient up to f32
//!   reassociation: the training trajectory and predictions agree), and
//! * *exactly* the W = 1 epoch for degenerate partitions (a batch whose
//!   samples all share one kernel).

use mga_core::cv::kfold_by_group;
use mga_core::model::{batch_targets, FusionModel, Modality, ModelConfig};
use mga_core::omp::OmpTask;
use mga_core::OmpDataset;
use mga_dae::DaeConfig;
use mga_gnn::{GnnConfig, UpdateKind};
use mga_kernels::catalog::openmp_thread_dataset;
use mga_nn::optim::AdamW;
use mga_sim::cpu::CpuSpec;
use mga_sim::openmp::thread_space;
use proptest::prelude::*;

fn small_task() -> (OmpDataset, OmpTask, Vec<usize>, Vec<usize>) {
    let specs: Vec<_> = openmp_thread_dataset().into_iter().step_by(6).collect();
    let cpu = CpuSpec::comet_lake();
    let ds = OmpDataset::build(specs, vec![1e6, 1e8], thread_space(&cpu), cpu, 12, 4);
    let task = OmpTask::new(&ds);
    let folds = kfold_by_group(&ds.groups(), 3, 1);
    (ds, task, folds[0].train.clone(), folds[0].val.clone())
}

fn small_cfg(epochs: usize) -> ModelConfig {
    ModelConfig {
        modality: Modality::Multimodal,
        use_aux: true,
        gnn: GnnConfig {
            dim: 10,
            layers: 1,
            update: UpdateKind::Gru,
            homogeneous: false,
        },
        dae: DaeConfig {
            input_dim: 12,
            hidden_dim: 8,
            code_dim: 4,
            epochs: 10,
            ..DaeConfig::default()
        },
        hidden: 16,
        epochs,
        lr: 0.02,
        seed: 2,
    }
}

/// Outcome of one width-controlled training run: the FNV checksum over
/// every trained parameter, the final epoch's loss, and the validation
/// predictions.
struct Run {
    checksum: u64,
    loss: f32,
    preds: Vec<Vec<usize>>,
}

/// Initialize a model (zero `fit` epochs — DAE pre-training and weight
/// init only), then drive `epochs` epochs at micro-batch width `w`.
/// A fresh `PreparedBatch` per run: a prepared batch caches its
/// micro-batch plan and refuses to train at a second width.
fn train_at_width(w: usize, epochs: usize, idx_override: Option<&[usize]>) -> Run {
    let (ds, task, train, val) = small_task();
    let idx: Vec<usize> = idx_override.map(<[usize]>::to_vec).unwrap_or(train);
    let data = task.train_data(&ds);
    let heads = task.codec.head_sizes();
    let mut m = FusionModel::fit(small_cfg(0), &data, &idx, &heads);
    let prep = m.prepare(&data, &idx);
    let targets = batch_targets(&data, &idx, heads.len());
    let mut opt = AdamW::new(0.02).with_weight_decay(0.001);
    let mut loss = f32::NAN;
    for _ in 0..epochs {
        loss = m.train_epoch_stats_width(&prep, &targets, &mut opt, w).loss;
    }
    Run {
        checksum: m.param_checksum(),
        loss,
        preds: m.predict(&data, &val),
    }
}

/// Every width trains deterministically (repeat runs bitwise equal),
/// and all widths follow the same trajectory: identical predictions and
/// losses equal up to f32 reassociation of the per-micro-batch sums.
#[test]
fn widths_are_deterministic_and_agree() {
    let reference = train_at_width(1, 4, None);
    assert!(reference.loss.is_finite());
    for w in [1usize, 2, 3, 4, 8, 64] {
        let a = train_at_width(w, 4, None);
        let b = train_at_width(w, 4, None);
        assert_eq!(
            a.checksum, b.checksum,
            "width {w}: repeat runs disagree bitwise"
        );
        assert_eq!(
            a.loss.to_bits(),
            b.loss.to_bits(),
            "width {w}: loss drifted"
        );
        let rel = (a.loss - reference.loss).abs() / reference.loss.abs().max(1e-12);
        assert!(
            rel < 5e-3,
            "width {w}: loss {} diverged from W = 1 {} (rel {rel})",
            a.loss,
            reference.loss
        );
        assert_eq!(
            a.preds, reference.preds,
            "width {w}: predictions diverged from the W = 1 run"
        );
    }
}

/// A batch whose samples all come from one kernel cannot be split
/// without tearing a kernel across micro-batches, so every width must
/// collapse to the identical W = 1 epoch — bitwise, not just
/// approximately.
#[test]
fn single_kernel_batch_collapses_to_single_tape() {
    let (ds, _task, _train, _val) = small_task();
    let groups = ds.groups();
    let idx: Vec<usize> = (0..groups.len())
        .filter(|&i| groups[i] == groups[0])
        .collect();
    assert!(!idx.is_empty());
    let one = train_at_width(1, 3, Some(&idx));
    let wide = train_at_width(8, 3, Some(&idx));
    assert_eq!(
        one.checksum, wide.checksum,
        "single-kernel batch must train as W = 1 at any width"
    );
    assert_eq!(one.loss.to_bits(), wide.loss.to_bits());
}

/// A prepared batch caches its micro-batch plan, so training it at a
/// second width must fail loudly instead of silently reusing the first.
#[test]
#[should_panic(expected = "micro-batch width")]
fn a_prepared_batch_refuses_a_second_width() {
    let (ds, task, train, _val) = small_task();
    let data = task.train_data(&ds);
    let heads = task.codec.head_sizes();
    let mut m = FusionModel::fit(small_cfg(0), &data, &train, &heads);
    let prep = m.prepare(&data, &train);
    let targets = batch_targets(&data, &train, heads.len());
    let mut opt = AdamW::new(0.02).with_weight_decay(0.001);
    m.train_epoch_stats_width(&prep, &targets, &mut opt, 2);
    m.train_epoch_stats_width(&prep, &targets, &mut opt, 4);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Partition invariance under fuzzed widths: any W trains
    /// deterministically and lands on the W = 1 trajectory.
    #[test]
    fn fuzzed_width_is_deterministic(w in 1usize..=10) {
        let a = train_at_width(w, 2, None);
        let b = train_at_width(w, 2, None);
        prop_assert_eq!(a.checksum, b.checksum, "width {} not deterministic", w);
        prop_assert!(a.loss.is_finite());
        let r = train_at_width(1, 2, None);
        let rel = (a.loss - r.loss).abs() / r.loss.abs().max(1e-12);
        prop_assert!(rel < 5e-3, "width {} loss {} vs W = 1 {}", w, a.loss, r.loss);
    }
}

/// Cross-process thread-count battery: the trained parameter checksums
/// for several widths must be bitwise identical under `MGA_THREADS=1`
/// (fully sequential) and `MGA_THREADS=4`. The pool reads the env var
/// once per process, so the test re-executes itself with the override
/// and compares dumps — the same harness as `parallel_parity`'s kernel
/// battery, but end-to-end over the data-parallel epoch.
#[test]
fn mga_threads_microbatch_parity_bitwise() {
    const DUMP: &str = "MGA_DP_PARITY_DUMP";
    let sums: Vec<u64> = [1usize, 4, 8]
        .iter()
        .map(|&w| train_at_width(w, 3, None).checksum)
        .collect();
    if let Ok(path) = std::env::var(DUMP) {
        // Child: record and exit.
        let text: Vec<String> = sums.iter().map(|s| s.to_string()).collect();
        std::fs::write(path, text.join("\n")).expect("write parity dump");
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "4"] {
        let dump = std::env::temp_dir().join(format!(
            "mga_dp_parity_{}_{threads}.txt",
            std::process::id()
        ));
        let status = std::process::Command::new(&exe)
            .args([
                "--exact",
                "mga_threads_microbatch_parity_bitwise",
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
            "trained parameters differ under MGA_THREADS={threads}"
        );
    }
}
