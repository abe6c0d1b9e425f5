//! Tracing must be observation-only: enabling the span tracer cannot
//! change a single bit of any computation.
//!
//! The battery runs tensor kernels plus a small end-to-end `FusionModel`
//! fit/predict (exercising the `model.*`, `gnn.*`, `dae.*` and
//! `pool.dispatch` spans), checksummed bitwise. It runs once with
//! tracing disabled and once with in-memory span aggregation enabled;
//! the checksums must be identical, and the second run must actually
//! have recorded the instrumented spans.

use mga::core::model::{FusionModel, Modality, ModelConfig};
use mga::core::omp::OmpTask;
use mga::core::OmpDataset;
use mga::nn::tensor::Tensor;
use mga::sim::cpu::CpuSpec;
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

fn fnv(sums: &mut Vec<u64>, data: &[f32]) {
    let mut h = 0xcbf29ce484222325u64;
    for &x in data {
        h = (h ^ (x.to_bits() as u64)).wrapping_mul(0x100000001b3);
    }
    sums.push(h);
}

fn small_dataset() -> OmpDataset {
    let cpu = CpuSpec::comet_lake();
    let specs: Vec<_> = mga::kernels::catalog::openmp_thread_dataset()
        .into_iter()
        .take(6)
        .collect();
    let sizes: Vec<f64> = mga::kernels::inputs::openmp_input_sizes()
        .into_iter()
        .step_by(10)
        .collect();
    let space = mga::sim::openmp::thread_space(&cpu);
    OmpDataset::build(specs, sizes, space, cpu, 16, 7)
}

fn small_cfg() -> ModelConfig {
    ModelConfig {
        modality: Modality::Multimodal,
        use_aux: true,
        gnn: mga::gnn::GnnConfig {
            dim: 8,
            layers: 2,
            update: mga::gnn::UpdateKind::Gru,
            homogeneous: false,
        },
        dae: mga::dae::DaeConfig {
            input_dim: 16,
            hidden_dim: 10,
            code_dim: 8,
            epochs: 6,
            ..mga::dae::DaeConfig::default()
        },
        hidden: 12,
        epochs: 5,
        lr: 0.02,
        seed: 7,
    }
}

/// Large tensor kernels + a tiny end-to-end model fit/predict, all
/// reduced to bit checksums.
fn battery(ds: &OmpDataset) -> Vec<u64> {
    let mut sums = Vec::new();
    let mut rng = StdRng::seed_from_u64(4242);
    let a = rand_tensor(&mut rng, 160, 100);
    let b = rand_tensor(&mut rng, 100, 160);
    fnv(&mut sums, a.matmul(&b).data());
    fnv(&mut sums, a.t_matmul(&a.matmul(&b)).data());

    let task = OmpTask::new(ds);
    let data = task.train_data(ds);
    let n = ds.samples.len();
    let train: Vec<usize> = (0..n).filter(|i| i % 4 != 0).collect();
    let val: Vec<usize> = (0..n).filter(|i| i % 4 == 0).collect();
    let model = FusionModel::fit(small_cfg(), &data, &train, &task.codec.head_sizes());
    fnv(&mut sums, &[model.final_loss]);
    for head in model.predict(&data, &val) {
        let as_f32: Vec<f32> = head.iter().map(|&p| p as f32).collect();
        fnv(&mut sums, &as_f32);
    }
    sums
}

#[test]
fn tracing_does_not_change_results() {
    let ds = small_dataset();
    mga::obs::trace::set_enabled(false);
    let plain = battery(&ds);

    mga::obs::trace::set_enabled(true);
    mga::obs::trace::reset();
    let traced = battery(&ds);
    mga::obs::trace::set_enabled(false);

    assert_eq!(
        plain, traced,
        "enabling the span tracer changed computed results"
    );

    // The traced run must actually have recorded the instrumented spans.
    let report = mga::obs::trace::report();
    for name in ["model.fit", "train_epoch", "dae.pretrain"] {
        assert!(
            report.iter().any(|s| s.name == name),
            "span {name:?} missing from the aggregated tree: {:?}",
            report.iter().map(|s| s.path.clone()).collect::<Vec<_>>()
        );
    }
    // train_epoch ran once per configured epoch.
    let epochs = report
        .iter()
        .filter(|s| s.name == "train_epoch")
        .map(|s| s.count)
        .sum::<u64>();
    assert_eq!(epochs, small_cfg().epochs as u64);
}
