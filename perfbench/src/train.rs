//! The `train` workload: full-batch training epochs of the Fig. 4
//! thread-prediction model, and the dataset and model configuration it
//! shares with `serve_hot`.

use std::time::Instant;

use mga_core::model::{batch_targets, FusionModel, Modality, ModelConfig};
use mga_core::omp::OmpTask;
use mga_core::OmpDataset;
use mga_dae::DaeConfig;
use mga_gnn::{GnnConfig, UpdateKind};
use mga_nn::optim::AdamW;
use mga_nn::pool;
use mga_sim::cpu::CpuSpec;

use crate::hostspeed::{self, HostSpeed};
use crate::ledger::Ledger;
use crate::{Args, Outcome, SESSION};

/// IR2Vec-style vector width of every workload's kernels.
pub const VEC_DIM: usize = 16;

/// Epochs trained before a round's clock starts: the first epochs
/// record the tape's memory plan and allocate; later ones replay it.
const WARMUP_EPOCHS: usize = 5;

/// Sessions of [`SESSION`] epochs timed per round.
const ROUND_SESSIONS: usize = 8;

/// The quick Fig. 4 dataset: every third loop of the 45-loop OpenMP
/// thread-prediction set (15 loops) × every fifth input size (6 sizes)
/// on Comet Lake, threads 1–8. The seed drives the vector embeddings and
/// the simulated measurements; the kernels, and so the graph sizes that
/// set the GNN's work, are the same for every seed.
pub fn thread_dataset(seed: u64) -> OmpDataset {
    let cpu = CpuSpec::comet_lake();
    let specs = mga_kernels::catalog::openmp_thread_dataset()
        .into_iter()
        .step_by(3)
        .collect();
    let sizes = mga_kernels::inputs::openmp_input_sizes()
        .into_iter()
        .step_by(5)
        .collect();
    let space = mga_sim::openmp::thread_space(&cpu);
    OmpDataset::build(specs, sizes, space, cpu, VEC_DIM, seed)
}

/// The quick multimodal model: 2-layer GRU heterogeneous GNN of width
/// 12, a 16→14→10 DAE and a 24-wide fusion trunk.
pub fn model_cfg(seed: u64, epochs: usize) -> ModelConfig {
    ModelConfig {
        modality: Modality::Multimodal,
        use_aux: true,
        gnn: GnnConfig {
            dim: 12,
            layers: 2,
            update: UpdateKind::Gru,
            homogeneous: false,
        },
        dae: DaeConfig {
            input_dim: VEC_DIM,
            hidden_dim: 14,
            code_dim: 10,
            epochs: 40,
            ..DaeConfig::default()
        },
        hidden: 24,
        epochs,
        lr: 0.02,
        seed,
    }
}

/// Each round sets up afresh, then trains the new model for the same
/// epochs: every round repeats one trajectory from the same weights.
pub fn run(args: &Args) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = args.trace.then(Ledger::default);
    let mut epochs_ns = Vec::with_capacity(SESSION);
    let mut probes = Vec::with_capacity(SESSION + 1);
    let mut host = HostSpeed::new();
    let mut checksums = Vec::new();
    while out.wants_round(args) {
        let before = host.probe();
        let t0 = Instant::now();
        let ds = thread_dataset(args.seed);
        let task = OmpTask::new(&ds);
        let data = task.train_data(&ds);
        let all: Vec<usize> = (0..data.num_samples()).collect();
        let heads = task.codec.head_sizes();
        // One fitted epoch builds the DAE, scalers and tape; the round
        // continues training from there.
        let mut model = FusionModel::fit(model_cfg(args.seed, 1), &data, &all, &heads);
        let prep = model.prepare(&data, &all);
        let targets = batch_targets(&data, &all, heads.len());
        let setup = t0.elapsed().as_secs_f64();
        out.setup_s
            .push(setup * hostspeed::scale(before, host.probe()));
        let set_up = model.param_checksum();

        let mut opt = AdamW::new(model.cfg.lr).with_weight_decay(0.001);
        let (first_loss, last_loss, round_ns) = pool::inline_scope(|| {
            let first_loss = model.train_epoch(&prep, &targets, &mut opt);
            for _ in 1..WARMUP_EPOCHS {
                model.train_epoch(&prep, &targets, &mut opt);
            }
            if let Some(l) = ledger.as_mut() {
                l.open();
            }
            let mut last_loss = first_loss;
            let mut round_ns = 0f64;
            for _ in 0..ROUND_SESSIONS {
                epochs_ns.clear();
                probes.clear();
                let probing_ns = host.spent_ns();
                let start = Instant::now();
                for _ in 0..SESSION {
                    probes.push(host.probe());
                    let t = Instant::now();
                    let loss = model.train_epoch(&prep, &targets, &mut opt);
                    epochs_ns.push(t.elapsed().as_nanos() as f64);
                    if !loss.is_finite() {
                        out.failed += 1;
                    }
                    last_loss = loss;
                }
                let wall_ns = start.elapsed().as_nanos() as f64 - (host.spent_ns() - probing_ns);
                round_ns += wall_ns;
                probes.push(host.probe());
                out.add_session(&mut epochs_ns, &probes, wall_ns);
            }
            if let Some(l) = ledger.as_mut() {
                l.close(round_ns, (ROUND_SESSIONS * SESSION) as u64);
            }
            (first_loss, last_loss, round_ns)
        });

        checksums.push((set_up, model.param_checksum()));

        // The model must have learned: the loss fell, and on its own
        // training set it beats always answering each head's majority
        // class.
        // A NaN loss compares as unordered and fails too.
        if last_loss.partial_cmp(&first_loss) != Some(std::cmp::Ordering::Less) {
            out.problems
                .push(format!("loss did not fall: {first_loss} -> {last_loss}"));
        }
        let preds = model.predict_prepared(&prep);
        let (mut hits, mut majority) = (0usize, 0usize);
        for (pred, target) in preds.iter().zip(&targets) {
            hits += pred
                .iter()
                .zip(target)
                .filter(|(p, t)| **p == **t as usize)
                .count();
            let mut freq = std::collections::BTreeMap::new();
            for t in target {
                *freq.entry(*t).or_insert(0usize) += 1;
            }
            majority += freq.values().copied().max().unwrap_or(0);
        }
        if hits <= majority {
            out.problems.push(format!(
                "training-set predictions: {hits} correct, no better than the majority's {majority}"
            ));
        }
        eprintln!(
            "train: {} samples, loss {first_loss} -> {last_loss}, {:.3} s",
            targets[0].len(),
            round_ns / 1e9
        );
    }
    // Training is deterministic: every round sets up and trains the
    // same weights, bit for bit.
    if checksums.windows(2).any(|w| w[0] != w[1]) {
        out.problems
            .push(format!("rounds trained different models: {checksums:x?}"));
    }
    out.layers = ledger.map_or_else(Vec::new, |l| l.metrics());
    out
}
