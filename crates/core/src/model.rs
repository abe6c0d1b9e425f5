//! The multimodal fusion model (paper Fig. 2).
//!
//! [`FusionModel`] composes, per the configured [`Modality`]:
//!
//! * a **heterogeneous GNN** over the PROGRAML graph (trained jointly
//!   with the classifier),
//! * a **denoising autoencoder** over the IR2Vec vector (pre-trained
//!   self-supervised on the *training* vectors with swap noise, its
//!   frozen encoder providing the code features — §3.2),
//! * **auxiliary dynamic features** (PAPI counters or OpenCL
//!   transfer/work-group sizes) min-max scaled to `[0,1]`,
//!
//! late-fused by concatenation into a one-hidden-layer MLP (the paper
//! deliberately keeps this head shallow). Joint tuning tasks (threads ×
//! schedule × chunk) use one classification head per dimension on the
//! shared hidden layer.

use crate::health::{GuardrailConfig, TrainError, TrainHealth};
use crate::persist;
use mga_dae::{pretrain, DaeConfig, TrainedDae};
use mga_gnn::{GnnConfig, GraphBatch, HeteroGnn};
use mga_graph::ProGraph;
use mga_nn::layers::{Activation, Linear};
use mga_nn::optim::{AdamW, AdamWState};
use mga_nn::params::{tree_sum, GradShard, GradShards};
use mga_nn::pool;
use mga_nn::scaler::{GaussRankScaler, MinMaxScaler};
use mga_nn::tape::{FusedAct, Tape, Var};
use mga_nn::tensor::Tensor;
use mga_nn::ParamSet;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::cell::OnceCell;
use std::path::Path;
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Which static modalities the model uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Modality {
    /// Graph (hetero-GNN) + vector (DAE): the MGA tuner.
    Multimodal,
    /// PROGRAML-only unimodal baseline.
    GraphOnly,
    /// IR2Vec-only unimodal baseline. Follows the IR2Vec paper's own
    /// usage: the raw program vectors (Gaussian-rank scaled) feed the
    /// classifier directly — the DAE compression is the MGA pipeline's
    /// addition.
    VectorOnly,
    /// Dynamic features only (Fig. 5's blue bar).
    AuxOnly,
    /// Early (feature-level) fusion ablation: instead of learned
    /// per-modality encoders whose *outputs* are fused (the paper's late
    /// fusion), the raw representations are flattened into one feature
    /// vector — hand-built graph summary statistics concatenated with the
    /// scaled program vector — and fed to the MLP directly (§2.5's
    /// description of early fusion).
    EarlyFusion,
}

/// Width of [`graph_summary`]'s feature row.
const SUMMARY_WIDTH: usize = 10;

/// Hand-built summary features of a flow graph (for the early-fusion
/// ablation): node/edge-kind counts, log-scaled.
pub fn graph_summary(g: &ProGraph) -> [f32; SUMMARY_WIDTH] {
    let stats = mga_graph::GraphStats::of(g);
    let lg = |x: usize| ((x + 1) as f32).ln();
    let nodes = stats.nodes.max(1) as f32;
    [
        lg(stats.nodes),
        lg(stats.instructions),
        lg(stats.variables),
        lg(stats.constants),
        lg(stats.control_edges),
        lg(stats.data_edges),
        lg(stats.call_edges),
        stats.instructions as f32 / nodes,
        stats.data_edges as f32 / nodes,
        stats.control_edges as f32 / stats.instructions.max(1) as f32,
    ]
}

/// Model hyperparameters.
#[derive(Debug, Clone)]
pub struct ModelConfig {
    pub modality: Modality,
    /// Include the auxiliary (dynamic) features? `false` reproduces the
    /// static-only ablation of Fig. 5.
    pub use_aux: bool,
    pub gnn: GnnConfig,
    pub dae: DaeConfig,
    /// Width of the fused MLP's single hidden layer.
    pub hidden: usize,
    pub epochs: usize,
    pub lr: f32,
    pub seed: u64,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            modality: Modality::Multimodal,
            use_aux: true,
            gnn: GnnConfig::default(),
            dae: DaeConfig::default(),
            hidden: 64,
            epochs: 60,
            lr: 0.01,
            seed: 0,
        }
    }
}

/// Fault-tolerance options for [`FusionModel::try_fit`]: numeric
/// guardrails plus crash-safe checkpointing. The defaults (no checkpoint
/// path, loose guardrails) make `try_fit` behave bitwise identically to
/// the classic [`FusionModel::fit`] on a healthy run.
pub struct FitOptions<'a> {
    /// Guardrail thresholds and the recovery retry budget.
    pub guard: GuardrailConfig,
    /// Where to write the resumable checkpoint; `None` disables
    /// checkpointing entirely.
    pub checkpoint: Option<&'a Path>,
    /// Write the checkpoint every this many completed epochs (a final
    /// one is always written when training finishes). `0` means only the
    /// final checkpoint.
    pub checkpoint_every: usize,
    /// If `checkpoint` already holds a compatible mid-training state,
    /// resume from it instead of training from scratch.
    pub resume: bool,
}

impl Default for FitOptions<'_> {
    fn default() -> Self {
        FitOptions {
            guard: GuardrailConfig::default(),
            checkpoint: None,
            checkpoint_every: 10,
            resume: true,
        }
    }
}

/// Per-epoch diagnostics from [`FusionModel::train_epoch_stats`].
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    /// Total (summed over heads) cross-entropy loss of the epoch.
    pub loss: f32,
    /// Global gradient norm *before* clipping — NaN or huge values here
    /// are the earliest numeric-failure signal.
    pub grad_norm: f32,
}

/// Everything the model consumes, borrowed from a dataset.
pub struct TrainData<'a> {
    /// Per-kernel flow graphs.
    pub graphs: &'a [ProGraph],
    /// Per-kernel IR2Vec program vectors.
    pub vectors: &'a [Vec<f32>],
    /// Kernel index of each sample.
    pub sample_kernel: &'a [usize],
    /// Raw auxiliary (dynamic) features per sample.
    pub aux: &'a [Vec<f32>],
    /// Per head: the label of each sample.
    pub labels: &'a [Vec<usize>],
}

impl TrainData<'_> {
    pub fn num_samples(&self) -> usize {
        self.sample_kernel.len()
    }
}

/// The trained multimodal model.
pub struct FusionModel {
    pub cfg: ModelConfig,
    pub(crate) ps: ParamSet,
    pub(crate) gnn: Option<HeteroGnn>,
    pub(crate) dae: Option<TrainedDae>,
    pub(crate) raw_vec_scaler: Option<GaussRankScaler>,
    pub(crate) aux_scaler: Option<MinMaxScaler>,
    pub(crate) trunk: Linear,
    pub(crate) heads: Vec<Linear>,
    pub head_sizes: Vec<usize>,
    /// Final training loss (diagnostics).
    pub final_loss: f32,
    /// Training state (replica tapes + gradient shards), populated on
    /// the first epoch and replayed by the rest: epoch N ≥ 2 replays
    /// each replica's op sequence into recycled buffers, so the
    /// steady-state epoch loop performs zero tape-tensor heap
    /// allocations.
    pub(crate) dp: DpState,
    /// Scratch tape of every grad-free pass ([`FusionModel::predict_prepared`],
    /// [`FusionModel::static_embeddings`]): repeated evaluation and
    /// serving cache misses replay into recycled buffers instead of
    /// building a fresh tape per call. Replay is bitwise-identical to a
    /// fresh build.
    scratch: Mutex<Tape>,
}

/// Replica tapes and gradient shards of the training epoch, one of each
/// per micro-batch; see [`FusionModel::train_epoch_stats`].
#[derive(Default)]
pub(crate) struct DpState {
    replicas: Vec<Replica>,
    shards: GradShards,
}

/// One micro-batch's persistent training state.
struct Replica {
    tape: Tape,
    /// Scaled loss of the last pass, combined by [`tree_sum`].
    loss: f32,
}

impl FusionModel {
    /// Rebuild the architecture for a checkpoint (`cfg` + `head_sizes` +
    /// `vec_dim`/`aux_dim`/`graph summary width` determine every shape),
    /// with parameters awaiting [`crate::persist`] restoration.
    pub(crate) fn skeleton(
        cfg: ModelConfig,
        head_sizes: &[usize],
        vec_dim: usize,
        aux_dim: usize,
    ) -> FusionModel {
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        Self::assemble(cfg, head_sizes, vec_dim, aux_dim, &mut rng)
    }

    /// Register the trainable architecture — GNN, trunk and heads, drawn
    /// from `rng` in that order — for the trunk input width that `cfg`'s
    /// modalities, `vec_dim` and `aux_dim` imply. The DAE and the scalers
    /// are left empty for the caller to fit or restore.
    fn assemble(
        cfg: ModelConfig,
        head_sizes: &[usize],
        vec_dim: usize,
        aux_dim: usize,
        rng: &mut StdRng,
    ) -> FusionModel {
        let mut ps = ParamSet::new();
        let use_graph = matches!(cfg.modality, Modality::Multimodal | Modality::GraphOnly);
        let gnn = use_graph.then(|| HeteroGnn::new(&mut ps, "gnn", &cfg.gnn, rng));
        let mut in_dim = 0;
        if use_graph {
            in_dim += cfg.gnn.dim;
        }
        if cfg.modality == Modality::Multimodal {
            in_dim += cfg.dae.code_dim;
        }
        if matches!(cfg.modality, Modality::VectorOnly | Modality::EarlyFusion) {
            in_dim += vec_dim;
        }
        if cfg.modality == Modality::EarlyFusion {
            in_dim += SUMMARY_WIDTH;
        }
        if cfg.use_aux && aux_dim > 0 {
            in_dim += aux_dim;
        }
        assert!(in_dim > 0, "model has no input features");
        let trunk = Linear::new(&mut ps, "trunk", in_dim, cfg.hidden, Activation::Relu, rng);
        let heads = head_sizes
            .iter()
            .enumerate()
            .map(|(h, &k)| {
                Linear::new(
                    &mut ps,
                    &format!("head{h}"),
                    cfg.hidden,
                    k,
                    Activation::Identity,
                    rng,
                )
            })
            .collect();
        FusionModel {
            cfg,
            ps,
            gnn,
            dae: None,
            raw_vec_scaler: None,
            aux_scaler: None,
            trunk,
            heads,
            head_sizes: head_sizes.to_vec(),
            final_loss: f32::NAN,
            dp: DpState::default(),
            scratch: Mutex::new(Tape::new()),
        }
    }

    /// The scratch tape, reset for a new grad-free pass. A pass that
    /// panicked poisons the lock, but what it left is only stale slots:
    /// every op reshapes and overwrites its slot on replay, so after
    /// `reset` no later pass reads them and the poison is cleared.
    fn scratch_tape(&self) -> MutexGuard<'_, Tape> {
        let mut tape = self.scratch.lock().unwrap_or_else(PoisonError::into_inner);
        tape.reset();
        tape
    }
}

/// Count the packed graphs that have no instruction node under
/// `model.degraded_graphs`, and warn. The GNN reads such a graph out as
/// an exact zero row, so the other modalities decide for it.
fn note_degenerate(batch: &GraphBatch) {
    let n = batch.spans.iter().filter(|s| s.instrs == 0).count();
    if n > 0 {
        mga_obs::metrics::counter("model.degraded_graphs").add(n as u64);
        mga_obs::warn!(
            "{n}/{} graph(s) have no instruction node; their graph block is zero",
            batch.num_graphs
        );
    }
}

/// The static inputs of a set of kernels, one row per kernel: everything
/// the model reads about a kernel ahead of its dynamic features. Built
/// only by [`FusionModel::kernel_tables`], for training, prediction and
/// serving alike, and joined in one column order by
/// [`FusionModel::static_block`].
struct KernelTables {
    /// Packed flow graphs. A degenerate graph (no nodes, or no
    /// instruction node) is packed like any other and reads out as a
    /// zero row.
    graph: Option<GraphBatch>,
    /// DAE-encoded program vectors.
    codes: Option<Tensor>,
    /// Gaussian-rank-scaled raw vectors.
    raw_vecs: Option<Tensor>,
    /// Hand-built graph summaries (early fusion).
    summaries: Option<Tensor>,
}

impl KernelTables {
    /// The tables of the kernels at ascending `rows`, in that order
    /// (row-stable: each kept kernel gets bitwise the rows it has here).
    fn subset(&self, rows: &[usize]) -> KernelTables {
        KernelTables {
            graph: self.graph.as_ref().map(|g| g.subset(rows)),
            codes: self.codes.as_ref().map(|t| subset_rows(t, rows)),
            raw_vecs: self.raw_vecs.as_ref().map(|t| subset_rows(t, rows)),
            summaries: self.summaries.as_ref().map(|t| subset_rows(t, rows)),
        }
    }
}

/// One forward pass's inputs: its kernels' static tables, each sample's
/// row in them and the samples' scaled aux rows. A [`PreparedBatch`] and
/// each of its [`MicroBatch`]es hold one, so prediction and the training
/// replicas share one forward ([`FusionModel::forward_inputs`]).
struct Inputs {
    tables: KernelTables,
    /// Per sample: its kernel's row in `tables`.
    sample_rows: Vec<u32>,
    /// Min-max-scaled auxiliary features, one row per sample.
    aux: Option<Tensor>,
}

/// Epoch-invariant state of one sample batch, computed once by
/// [`FusionModel::prepare`] and replayed by every epoch's forward pass.
///
/// Everything here is a pure function of the (frozen) preprocessing
/// stages and the dataset — the kernels' static tables and the scaled
/// aux features. Only the GNN and the fused MLP have trainable
/// parameters, so only they re-run per epoch; the rest enters the tape
/// as cached leaves. This is what makes the epoch loop cheap: the
/// per-epoch cost is the differentiable part of the model, not the
/// feature pipeline.
pub struct PreparedBatch {
    /// Distinct kernel ids of the batch, sorted — row `r` of the kernel
    /// tables belongs to `kernels[r]`.
    kernels: Vec<usize>,
    inputs: Inputs,
    /// Lazily built micro-batch plan of the training epoch, with the
    /// width it was built at. Built once per batch: the partition is a
    /// pure function of the batch and the width, so every epoch replays
    /// the same plan.
    micro: OnceCell<(usize, Vec<MicroBatch>)>,
}

/// One micro-batch of the training epoch: a contiguous sample range
/// `[lo, hi)` of its [`PreparedBatch`] with inputs of its own — the
/// kernel tables restricted to the kernels those samples reference, and
/// the range's aux rows — so each replica's forward pass, including the
/// GNN, the dominant epoch cost, runs only on its own slice of the batch.
struct MicroBatch {
    lo: usize,
    hi: usize,
    inputs: Inputs,
}

/// Micro-batch width W of the training epoch. Deliberately *not*
/// derived from `MGA_THREADS`: the partition fixes the gradient
/// summation tree, so it must be identical at every thread count for
/// training to stay bitwise thread-invariant.
const MICROBATCH_WIDTH: usize = 8;

/// Split `[0, n)` into at most `width` contiguous sample ranges of
/// near-equal size, snapping each boundary forward to the next kernel-row
/// change. Samples arrive kernel-sorted (`prepare` maps sorted distinct
/// kernels), so snapping means no kernel's samples straddle two
/// micro-batches — each graph is computed by exactly one replica and the
/// epoch's total GNN work is the full batch's. A batch whose first
/// kernel covers everything collapses to one range: one replica.
fn micro_ranges(sample_rows: &[u32], width: usize) -> Vec<(usize, usize)> {
    let n = sample_rows.len();
    if n == 0 || width <= 1 {
        return vec![(0, n)];
    }
    let per = n.div_ceil(width);
    let mut ranges = Vec::new();
    let mut lo = 0;
    while lo < n {
        let mut hi = (lo + per).min(n);
        while hi < n && sample_rows[hi] == sample_rows[hi - 1] {
            hi += 1;
        }
        ranges.push((lo, hi));
        lo = hi;
    }
    ranges
}

/// Copy the given rows of a table into a dense sub-table.
fn subset_rows(t: &Tensor, rows: &[usize]) -> Tensor {
    let cols = t.cols();
    let mut data: Vec<f32> = Vec::with_capacity(rows.len() * cols);
    for &r in rows {
        data.extend_from_slice(t.row_slice(r));
    }
    Tensor::from_vec(rows.len(), cols, data)
}

impl PreparedBatch {
    /// Distinct kernel ids of the batch, sorted (row order of the
    /// per-kernel tables). Serving uses this to key its embedding cache.
    pub fn kernels(&self) -> &[usize] {
        &self.kernels
    }

    /// Number of samples in the batch.
    pub fn num_samples(&self) -> usize {
        self.inputs.sample_rows.len()
    }

    /// The micro-batch plan at `width`, built on first use and cached.
    /// A batch is planned at one width only: asking for another panics
    /// (tests that vary the width prepare a fresh batch per width).
    fn micro_plan(&self, width: usize) -> &[MicroBatch] {
        let (planned, micros) = self.micro.get_or_init(|| {
            let micros = micro_ranges(&self.inputs.sample_rows, width)
                .into_iter()
                .map(|(lo, hi)| self.build_micro(lo, hi))
                .collect();
            (width, micros)
        });
        assert_eq!(
            *planned, width,
            "prepared batch is planned at micro-batch width {planned}, not {width}"
        );
        micros
    }

    /// Materialize one micro-batch: local kernel tables for the range's
    /// kernels, the remapped sample→row indices and the range's aux rows.
    fn build_micro(&self, lo: usize, hi: usize) -> MicroBatch {
        let ranged = &self.inputs.sample_rows[lo..hi];
        let mut kernel_rows: Vec<u32> = ranged.to_vec();
        kernel_rows.sort_unstable();
        kernel_rows.dedup();
        let sample_rows: Vec<u32> = ranged
            .iter()
            .map(|r| kernel_rows.binary_search(r).unwrap() as u32)
            .collect();
        let rows: Vec<usize> = kernel_rows.iter().map(|&r| r as usize).collect();
        let span: Vec<usize> = (lo..hi).collect();
        MicroBatch {
            lo,
            hi,
            inputs: Inputs {
                tables: self.inputs.tables.subset(&rows),
                sample_rows,
                aux: self.inputs.aux.as_ref().map(|t| subset_rows(t, &span)),
            },
        }
    }
}

/// Borrowed view of the trained classifier that an `mga-serve`
/// inference plan serves from: the trunk/head weights and the
/// dynamic-feature scaler — everything a request needs that is not a
/// per-kernel static embedding.
pub struct ModelExport<'a> {
    /// Trunk weight `[in_dim × hidden]` and bias `[1 × hidden]`.
    pub trunk_w: &'a Tensor,
    pub trunk_b: &'a Tensor,
    /// Per classification head: weight `[hidden × classes]` and bias.
    pub heads: Vec<(&'a Tensor, &'a Tensor)>,
    pub head_sizes: &'a [usize],
    /// Scaler for the dynamic (auxiliary) features; `None` when the
    /// model runs static-only.
    pub aux_scaler: Option<&'a MinMaxScaler>,
    /// Total trunk input width; the per-kernel static prefix occupies
    /// `in_dim - aux_dim` columns, the scaled aux row the rest.
    pub in_dim: usize,
    pub aux_dim: usize,
    pub hidden: usize,
}

impl FusionModel {
    /// Train on `train_idx` of `data`; `head_sizes[h]` is the number of
    /// classes of head `h`. Thin wrapper over [`FusionModel::try_fit`]
    /// with default [`FitOptions`]; panics if training fails numerically
    /// even after the recovery budget (which a healthy run never does).
    pub fn fit(
        cfg: ModelConfig,
        data: &TrainData<'_>,
        train_idx: &[usize],
        head_sizes: &[usize],
    ) -> FusionModel {
        match Self::try_fit(cfg, data, train_idx, head_sizes, &FitOptions::default()) {
            Ok(model) => model,
            Err(e) => panic!("training failed: {e}"),
        }
    }

    /// Fault-tolerant training. Runs the same deterministic loop as the
    /// classic `fit`, but:
    ///
    /// * every epoch's loss and pre-clip gradient norm pass through the
    ///   [`TrainHealth`] guardrails; on a numeric failure the model rolls
    ///   back to the last-good snapshot, halves the learning rate and
    ///   retries, up to `opts.guard.max_retries` times before returning
    ///   the final [`TrainError`];
    /// * with `opts.checkpoint` set, a crash-safe checkpoint (weights +
    ///   optimizer moments + epoch counter + RNG state, atomically
    ///   written) is maintained during training, and an interrupted run
    ///   restarted with the same options resumes from it — bitwise
    ///   identical to a run that was never interrupted.
    ///
    /// When no fault fires and no checkpoint exists, the result is
    /// bitwise identical to `fit`'s.
    pub fn try_fit(
        cfg: ModelConfig,
        data: &TrainData<'_>,
        train_idx: &[usize],
        head_sizes: &[usize],
        opts: &FitOptions<'_>,
    ) -> Result<FusionModel, TrainError> {
        mga_obs::span!("model.fit");
        assert!(!train_idx.is_empty(), "empty training set");
        assert_eq!(data.labels.len(), head_sizes.len());

        // --- Resume from a compatible checkpoint, if asked and present.
        let mut resumed: Option<(FusionModel, persist::TrainState)> = None;
        if opts.resume {
            if let Some(path) = opts.checkpoint {
                if path.exists() {
                    match persist::load_checkpoint_from_file(path) {
                        Ok((m, Some(st)))
                            if format!("{:?}", m.cfg) == format!("{cfg:?}")
                                && m.head_sizes == head_sizes =>
                        {
                            mga_obs::info!(
                                "resuming from checkpoint at epoch {}/{}",
                                st.epoch,
                                cfg.epochs
                            );
                            mga_obs::metrics::counter("train.resumes").inc();
                            resumed = Some((m, st));
                        }
                        Ok(_) => {
                            mga_obs::warn!(
                                "checkpoint incompatible with this run; training from scratch"
                            );
                        }
                        Err(e) => {
                            mga_obs::warn!("checkpoint unusable ({e}); training from scratch");
                        }
                    }
                }
            }
        }

        let (mut model, mut opt, start_epoch, mut health, rng_state) = match resumed {
            Some((m, st)) => {
                if st.epoch >= cfg.epochs {
                    // The checkpointed run already finished.
                    return Ok(m);
                }
                match optimizer_from_state(&m, &st) {
                    Some(opt) => {
                        let mut health = TrainHealth::new(opts.guard.clone());
                        health.set_retries(st.retries);
                        (m, opt, st.epoch, health, st.rng)
                    }
                    None => {
                        mga_obs::warn!(
                            "checkpoint optimizer state mismatched; training from scratch"
                        );
                        let (model, rng_state) = Self::build(&cfg, data, train_idx, head_sizes);
                        let opt = AdamW::new(cfg.lr).with_weight_decay(0.001);
                        (
                            model,
                            opt,
                            0,
                            TrainHealth::new(opts.guard.clone()),
                            rng_state,
                        )
                    }
                }
            }
            None => {
                let (model, rng_state) = Self::build(&cfg, data, train_idx, head_sizes);
                let opt = AdamW::new(cfg.lr).with_weight_decay(0.001);
                (
                    model,
                    opt,
                    0,
                    TrainHealth::new(opts.guard.clone()),
                    rng_state,
                )
            }
        };

        // --- Training loop (full-batch AdamW, as the dataset is small).
        // All epoch-invariant feature work is hoisted into the prepared
        // batch; each epoch only replays the tape over cached leaves. ---
        let prep = model.prepare(data, train_idx);
        let targets = batch_targets(data, train_idx, head_sizes.len());
        let vec_dim = data.vectors[0].len();
        let aux_dim = model.aux_scaler.as_ref().map(|s| s.dims()).unwrap_or(0);

        struct Snapshot {
            values: Vec<Tensor>,
            opt: AdamWState,
            epoch: usize,
        }
        let mut snap = Snapshot {
            values: model.ps.clone_values(),
            opt: opt.state(),
            epoch: start_epoch,
        };
        let mut epoch = start_epoch;
        while epoch < model.cfg.epochs {
            let stats = model.train_epoch_stats(&prep, &targets, &mut opt);
            match health.observe(epoch, stats.loss, stats.grad_norm) {
                Ok(()) => {
                    model.final_loss = stats.loss;
                    epoch += 1;
                    if epoch % opts.guard.snapshot_every == 0 {
                        snap = Snapshot {
                            values: model.ps.clone_values(),
                            opt: opt.state(),
                            epoch,
                        };
                    }
                    if let Some(path) = opts.checkpoint {
                        if opts.checkpoint_every > 0
                            && epoch % opts.checkpoint_every == 0
                            && epoch < model.cfg.epochs
                        {
                            write_checkpoint(
                                &model, &health, &opt, epoch, rng_state, vec_dim, aux_dim, path,
                            );
                        }
                    }
                }
                Err(e) => {
                    if health.retries() >= opts.guard.max_retries {
                        mga_obs::error!("epoch {epoch}: {e}; recovery budget exhausted");
                        return Err(TrainError::RetryBudgetExhausted {
                            retries: health.retries(),
                            last: Box::new(e),
                        });
                    }
                    let lr_next = opt.lr * 0.5;
                    mga_obs::error!(
                        "epoch {epoch}: {e}; rolling back to epoch {} with lr {lr_next}",
                        snap.epoch
                    );
                    model.ps.restore_values(&snap.values);
                    opt.restore(snap.opt.clone());
                    opt.lr = lr_next;
                    model.ps.zero_grads();
                    epoch = snap.epoch;
                    health.note_rollback();
                }
            }
        }
        mga_obs::metrics::gauge("train.final_loss").set(model.final_loss as f64);
        if let Some(path) = opts.checkpoint {
            write_checkpoint(
                &model,
                &health,
                &opt,
                model.cfg.epochs,
                rng_state,
                vec_dim,
                aux_dim,
                path,
            );
        }
        Ok(model)
    }

    /// Build a freshly initialized model (preprocessing stages fitted,
    /// parameters randomly initialized, no gradient steps yet). Returns
    /// the post-initialization RNG state for checkpointing.
    fn build(
        cfg: &ModelConfig,
        data: &TrainData<'_>,
        train_idx: &[usize],
        head_sizes: &[usize],
    ) -> (FusionModel, [u64; 4]) {
        let mut rng = StdRng::seed_from_u64(cfg.seed);

        // --- Vector modality: DAE pre-training (MGA) or raw scaled
        // vectors (the IR2Vec unimodal baseline). ---
        let mut train_kernels: Vec<usize> =
            train_idx.iter().map(|&i| data.sample_kernel[i]).collect();
        train_kernels.sort_unstable();
        train_kernels.dedup();
        let train_vecs: Vec<Vec<f32>> = train_kernels
            .iter()
            .map(|&k| data.vectors[k].clone())
            .collect();
        let vec_dim = data.vectors[0].len();
        let use_raw_vec = matches!(cfg.modality, Modality::VectorOnly | Modality::EarlyFusion);
        let dae = if cfg.modality == Modality::Multimodal {
            let mut dcfg = cfg.dae.clone();
            dcfg.input_dim = vec_dim;
            Some(pretrain(&train_vecs, dcfg, &mut rng))
        } else {
            None
        };
        let raw_vec_scaler = if use_raw_vec {
            Some(GaussRankScaler::fit(&train_vecs, vec_dim))
        } else {
            None
        };

        // --- Aux scaler on training samples. ---
        let aux_dim = data.aux[0].len();
        let aux_scaler = if cfg.use_aux && aux_dim > 0 {
            let train_aux: Vec<Vec<f32>> = train_idx.iter().map(|&i| data.aux[i].clone()).collect();
            Some(MinMaxScaler::fit(&train_aux, aux_dim))
        } else {
            None
        };

        // --- Architecture: drawn after DAE pre-training. ---
        let mut model = Self::assemble(cfg.clone(), head_sizes, vec_dim, aux_dim, &mut rng);
        model.dae = dae;
        model.raw_vec_scaler = raw_vec_scaler;
        model.aux_scaler = aux_scaler;
        model.final_loss = f32::MAX;
        let rng_state = rng.to_state();
        (model, rng_state)
    }

    /// Hoist every epoch-invariant computation for `idx` of `data` into a
    /// reusable [`PreparedBatch`]: kernel dedup + sample-row mapping, the
    /// kernels' static tables (`kernel_tables`) and the scaled aux rows.
    pub fn prepare(&self, data: &TrainData<'_>, idx: &[usize]) -> PreparedBatch {
        mga_obs::span!("model.prepare");
        // Distinct kernels in this batch, and each sample's local row.
        let mut kernels: Vec<usize> = idx.iter().map(|&i| data.sample_kernel[i]).collect();
        kernels.sort_unstable();
        kernels.dedup();
        let local_row = |k: usize| kernels.binary_search(&k).unwrap() as u32;
        let sample_rows: Vec<u32> = idx
            .iter()
            .map(|&i| local_row(data.sample_kernel[i]))
            .collect();

        let empty = ProGraph::default();
        let mut graphs: Vec<&ProGraph> = kernels.iter().map(|&k| &data.graphs[k]).collect();
        if self.gnn.is_some() && mga_obs::fault::armed() {
            // `sample:empty`: one draw per kernel, in kernel order.
            for g in graphs.iter_mut() {
                if let Some(shot) = mga_obs::fault::fire(mga_obs::fault::Site::Sample) {
                    if shot.kind == mga_obs::fault::Kind::Empty {
                        *g = &empty;
                    }
                }
            }
        }
        let vectors: Vec<&[f32]> = kernels.iter().map(|&k| &data.vectors[k][..]).collect();
        let tables = self.kernel_tables(&graphs, &vectors);
        let aux = self.aux_scaler.as_ref().map(|scaler| {
            let dims = scaler.dims();
            let mut degraded = 0u64;
            let mut rows = vec![0.0f32; idx.len() * dims];
            for (j, &i) in idx.iter().enumerate() {
                let dst = &mut rows[j * dims..(j + 1) * dims];
                degraded += u64::from(scaler.scale_into(dst, &data.aux[i]));
            }
            if degraded > 0 {
                mga_obs::metrics::counter("model.degraded_aux").add(degraded);
                mga_obs::warn!("{degraded} aux row(s) missing/non-finite; imputed mid-range");
            }
            Tensor::from_vec(idx.len(), dims, rows)
        });
        PreparedBatch {
            kernels,
            inputs: Inputs {
                tables,
                sample_rows,
                aux,
            },
            micro: OnceCell::new(),
        }
    }

    /// The static tables of the kernels whose flow graphs and program
    /// vectors are `graphs[r]` and `vectors[r]`; row `r` of every table
    /// belongs to kernel `r`. Each table is present when the modality
    /// uses it: the packed graphs (degenerate ones counted by
    /// [`note_degenerate`]), the DAE codes, the Gaussian-rank-scaled raw
    /// vectors and the graph summaries.
    fn kernel_tables(&self, graphs: &[&ProGraph], vectors: &[&[f32]]) -> KernelTables {
        let graph = self.gnn.as_ref().map(|_| {
            let batch = GraphBatch::new(graphs);
            note_degenerate(&batch);
            batch
        });
        let codes = self.dae.as_ref().map(|dae| dae.encode(vectors));
        let raw_vecs = self.raw_vec_scaler.as_ref().map(|scaler| {
            Tensor::from_vec(vectors.len(), scaler.dims(), scaler.transform_rows(vectors))
        });
        let summaries = (self.cfg.modality == Modality::EarlyFusion).then(|| {
            let rows: Vec<f32> = graphs.iter().flat_map(|g| graph_summary(g)).collect();
            Tensor::from_vec(graphs.len(), SUMMARY_WIDTH, rows)
        });
        KernelTables {
            graph,
            codes,
            raw_vecs,
            summaries,
        }
    }

    /// The static block of the trunk input, one row per kernel of
    /// `tables`: GNN readout ⊕ DAE code ⊕ scaled raw vector ⊕ graph
    /// summary, for the parts the modality uses. The one place the part
    /// order lives: the forward pass gathers its sample rows from this
    /// block and serving caches its rows. `None` when the model has no
    /// static modality.
    fn static_block(&self, tape: &mut Tape, tables: &KernelTables) -> Option<Var> {
        let mut parts: Vec<Var> = Vec::with_capacity(4);
        if let (Some(gnn), Some(batch)) = (&self.gnn, &tables.graph) {
            parts.push(gnn.forward(tape, &self.ps, batch));
        }
        for t in [&tables.codes, &tables.raw_vecs, &tables.summaries]
            .into_iter()
            .flatten()
        {
            parts.push(tape.leaf_ref(t));
        }
        match parts.len() {
            0 => None,
            1 => Some(parts[0]),
            _ => Some(tape.concat_cols(&parts)),
        }
    }

    /// Forward pass over a prepared batch; returns one logits tensor per
    /// head. Only the GNN and the fused MLP compute — the static
    /// features enter the tape as cached leaves.
    pub fn forward_prepared(&self, tape: &mut Tape, prep: &PreparedBatch) -> Vec<Var> {
        self.forward_inputs(tape, &prep.inputs)
    }

    /// The one forward implementation behind both the full-batch pass
    /// and the data-parallel micro-batch passes: each sample's row of
    /// the static block, then its aux row, into the trunk and heads.
    fn forward_inputs(&self, tape: &mut Tape, inputs: &Inputs) -> Vec<Var> {
        mga_obs::span!("model.forward");
        let mut parts: Vec<Var> = Vec::with_capacity(2);
        if let Some(block) = self.static_block(tape, &inputs.tables) {
            parts.push(tape.gather_rows(block, &inputs.sample_rows));
        }
        if let Some(aux) = &inputs.aux {
            parts.push(tape.leaf_ref(aux));
        }
        let fused = if parts.len() == 1 {
            parts[0]
        } else {
            tape.concat_cols(&parts)
        };
        let h = self
            .trunk
            .forward_act(tape, &self.ps, fused, FusedAct::Relu);
        self.heads
            .iter()
            .map(|head| head.forward(tape, &self.ps, h))
            .collect()
    }

    /// One full-batch gradient step over a prepared batch (the body of
    /// the `fit` epoch loop); returns the epoch's total loss. Public so
    /// the training benchmarks can time exactly one epoch.
    pub fn train_epoch(
        &mut self,
        prep: &PreparedBatch,
        targets: &[Vec<u32>],
        opt: &mut AdamW,
    ) -> f32 {
        self.train_epoch_stats(prep, targets, opt).loss
    }

    /// [`FusionModel::train_epoch`] plus the pre-clip gradient norm, the
    /// signal the [`TrainHealth`] guardrails watch.
    pub fn train_epoch_stats(
        &mut self,
        prep: &PreparedBatch,
        targets: &[Vec<u32>],
        opt: &mut AdamW,
    ) -> EpochStats {
        self.train_epoch_stats_width(prep, targets, opt, MICROBATCH_WIDTH)
    }

    /// [`FusionModel::train_epoch_stats`] at an explicit micro-batch
    /// width instead of the default W = 8. The parity tests use this to
    /// vary the partition; a prepared batch trains at one width only and
    /// panics when asked for another.
    ///
    /// The batch splits into at most `width` micro-batches; each replica
    /// runs forward/loss/backward on its own persistent tape
    /// concurrently, gradients combine through a fixed-shape binary tree
    /// ([`GradShards`]), and the optimizer step sees exactly one
    /// full-batch gradient. The partition and the tree depend only on
    /// the batch and W — never on `MGA_THREADS` — so the trained
    /// parameters are bitwise identical at any thread count. A
    /// one-range partition (W = 1, or a single-kernel batch) is one
    /// replica, whose one-shard reduction is the plain full-batch step.
    pub fn train_epoch_stats_width(
        &mut self,
        prep: &PreparedBatch,
        targets: &[Vec<u32>],
        opt: &mut AdamW,
        width: usize,
    ) -> EpochStats {
        mga_obs::span!("train_epoch");
        let micros = prep.micro_plan(width);
        let loss = self.epoch_data_parallel(micros, prep, targets);
        if mga_obs::fault::armed() {
            if let Some(shot) = mga_obs::fault::fire(mga_obs::fault::Site::Grad) {
                if shot.kind == mga_obs::fault::Kind::Nan {
                    self.poison_first_grad();
                }
            }
        }
        let grad_norm = {
            mga_obs::span!("optimizer");
            let grad_norm = self.ps.clip_grad_norm(5.0);
            opt.step(&mut self.ps);
            grad_norm
        };
        mga_obs::metrics::counter("train.epochs").inc();
        mga_obs::metrics::gauge("train.loss").set(loss as f64);
        mga_obs::metrics::gauge("train.grad_norm").set(grad_norm as f64);
        mga_obs::metrics::log_histogram("train.batch_rows").observe(prep.num_samples() as u64);
        EpochStats { loss, grad_norm }
    }

    /// The epoch body: one concurrent forward/loss/backward per
    /// micro-batch on persistent replica tapes, then a fixed-shape tree
    /// reduction of the per-replica gradient shards into the shared
    /// `ParamSet`. The summed gradient equals the full batch's (each
    /// replica's mean-CE loss is pre-scaled by its sample fraction), and
    /// its floats are a pure function of the partition — scheduling and
    /// thread count only decide *where* each replica runs.
    fn epoch_data_parallel(
        &mut self,
        micros: &[MicroBatch],
        prep: &PreparedBatch,
        targets: &[Vec<u32>],
    ) -> f32 {
        let w = micros.len();
        let n_total = prep.num_samples();
        let mut dp = std::mem::take(&mut self.dp);
        dp.shards.begin_pass(&self.ps, w);
        dp.replicas.truncate(w);
        while dp.replicas.len() < w {
            dp.replicas.push(Replica {
                tape: Tape::new(),
                loss: 0.0,
            });
        }
        {
            mga_obs::span!("train_epoch.microbatches");
            // Chunk i owns replica i and shard i; the model is only read.
            let mut pairs: Vec<(&mut Replica, &mut GradShard)> =
                dp.replicas.iter_mut().zip(dp.shards.shards_mut()).collect();
            let model = &*self;
            pool::parallel_for_mut(&mut pairs, |i, (rep, shard)| {
                rep.loss =
                    model.micro_batch_pass(&mut rep.tape, shard, &micros[i], targets, n_total);
            });
        }
        let (mut alloc, mut reuse, mut steady) = (0u64, 0u64, 0u64);
        for rep in &dp.replicas {
            alloc += rep.tape.pass_alloc_bytes();
            reuse += rep.tape.pass_reuse_count();
            if rep.tape.replaying() {
                steady += rep.tape.pass_alloc_bytes();
            }
        }
        mga_obs::metrics::counter("tape.alloc_bytes").add(alloc);
        mga_obs::metrics::counter("tape.arena_reuse").add(reuse);
        // Steady state: must stay at zero (asserted by validate_trace);
        // each replica replays its own memory plan.
        mga_obs::metrics::counter("tape.steady_alloc_bytes").add(steady);
        let reduce_start = std::time::Instant::now();
        {
            mga_obs::span!("train_epoch.reduce");
            dp.shards.reduce_into(&mut self.ps);
        }
        mga_obs::metrics::counter("train.microbatch.reduce_ns")
            .add(reduce_start.elapsed().as_nanos() as u64);
        mga_obs::metrics::log_histogram("train.microbatch.width").observe(w as u64);
        let losses: Vec<f32> = dp.replicas.iter().map(|r| r.loss).collect();
        self.dp = dp;
        // Same fixed tree as the gradients, so the reported loss is as
        // thread-count-invariant as the weights.
        tree_sum(&losses)
    }

    /// One replica's share of an epoch: replay-reset its tape, forward
    /// its micro-batch, scale the summed head losses by the replica's
    /// sample fraction (so the shard gradients sum to the full-batch
    /// mean-CE gradient), backpropagate, and flush parameter gradients
    /// into its shard.
    fn micro_batch_pass(
        &self,
        tape: &mut Tape,
        shard: &mut GradShard,
        mb: &MicroBatch,
        targets: &[Vec<u32>],
        n_total: usize,
    ) -> f32 {
        tape.reset();
        let logits = {
            mga_obs::span!("forward");
            self.forward_inputs(tape, &mb.inputs)
        };
        debug_assert_eq!(logits.len(), targets.len());
        let (total, loss) = {
            mga_obs::span!("loss");
            let mut total: Option<Var> = None;
            for (lg, tg) in logits.iter().zip(targets) {
                let loss = tape.softmax_cross_entropy(*lg, &tg[mb.lo..mb.hi]);
                total = Some(match total {
                    None => loss,
                    Some(t) => tape.add(t, loss),
                });
            }
            let total = total.expect("at least one head");
            let total = tape.scale(total, (mb.hi - mb.lo) as f32 / n_total as f32);
            (total, tape.value(total).get(0, 0))
        };
        {
            mga_obs::span!("backward");
            tape.backward(total);
            tape.accumulate_param_grads_shard(shard);
        }
        loss
    }

    /// `grad:nan` fault-injection payload: corrupt one gradient scalar,
    /// the way a bad kernel or memory fault would, and let the guardrails
    /// find it via the NaN-propagating gradient norm.
    #[cold]
    fn poison_first_grad(&mut self) {
        if let Some(id) = self.ps.ids().next() {
            if let Some(g) = self.ps.grad_mut(id).data_mut().first_mut() {
                *g = f32::NAN;
            }
        }
    }

    /// Predict head classes for a set of samples: `out[h][j]` is head
    /// `h`'s class for the j-th index. Builds a fresh [`PreparedBatch`]
    /// per call — repeated evaluation over the same samples should
    /// [`FusionModel::prepare`] once and call
    /// [`FusionModel::predict_prepared`] instead.
    pub fn predict(&self, data: &TrainData<'_>, idx: &[usize]) -> Vec<Vec<usize>> {
        let prep = self.prepare(data, idx);
        self.predict_prepared(&prep)
    }

    /// Predict head classes over an already-prepared batch, skipping the
    /// kernel dedup / graph batching / DAE encoding / scaler work that
    /// [`FusionModel::prepare`] hoists out. Runs on the model's scratch
    /// tape, so repeated evaluation (`evaluate_online`, shadow-eval)
    /// replays into recycled buffers instead of rebuilding a graph per
    /// call.
    pub fn predict_prepared(&self, prep: &PreparedBatch) -> Vec<Vec<usize>> {
        mga_obs::span!("model.predict");
        let mut tape = self.scratch_tape();
        let logits = self.forward_prepared(&mut tape, prep);
        logits
            .iter()
            .map(|lg| {
                let t = tape.value(*lg);
                (0..t.rows())
                    .map(|r| mga_nn::infer::argmax(t.row_slice(r)))
                    .collect()
            })
            .collect()
    }

    /// Borrow the classifier weights and aux scaler for an inference
    /// plan.
    pub fn export(&self) -> ModelExport<'_> {
        let trunk_w = self.ps.value(self.trunk.w);
        ModelExport {
            trunk_w,
            trunk_b: self.ps.value(self.trunk.b),
            heads: self
                .heads
                .iter()
                .map(|h| (self.ps.value(h.w), self.ps.value(h.b)))
                .collect(),
            head_sizes: &self.head_sizes,
            aux_scaler: self.aux_scaler.as_ref(),
            in_dim: trunk_w.rows(),
            aux_dim: self.aux_scaler.as_ref().map(|s| s.dims()).unwrap_or(0),
            hidden: self.cfg.hidden,
        }
    }

    /// The static block of each kernel whose flow graph and program
    /// vector are `graphs[r]` and `vectors[r]`: row `r` is that kernel's
    /// prefix of the trunk input, built by the same `kernel_tables` and
    /// `static_block` the forward pass uses, on the scratch tape. Every
    /// part is row-stable under batching, so a kernel's row is bitwise
    /// the same whichever kernels it is computed with — a degenerate
    /// graph (no instruction node) included, whose graph block is zero.
    /// The serving cache stores these rows.
    pub fn static_embeddings(&self, graphs: &[&ProGraph], vectors: &[&[f32]]) -> Tensor {
        mga_obs::span!("model.static_embedding");
        let tables = self.kernel_tables(graphs, vectors);
        let mut tape = self.scratch_tape();
        match self.static_block(&mut tape, &tables) {
            Some(block) => tape.value(block).clone(),
            None => Tensor::zeros(graphs.len(), 0),
        }
    }

    /// Number of trainable scalar parameters.
    pub fn num_params(&self) -> usize {
        self.ps.num_scalars()
    }

    /// FNV-1a checksum over the exact bit patterns of every parameter,
    /// in registration order. Two models agree here iff their weights
    /// are bitwise identical — the parity tests use this to compare
    /// training runs across partitions, thread counts and processes.
    pub fn param_checksum(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for id in self.ps.ids() {
            for &x in self.ps.value(id).data() {
                h ^= x.to_bits() as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        h
    }

    /// Continue training this model on new samples (§7 transfer
    /// learning): the pre-trained weights, DAE and scalers are kept and
    /// only the gradient steps run — a handful of target-domain samples
    /// go much further than training from scratch.
    pub fn fine_tune(&mut self, data: &TrainData<'_>, train_idx: &[usize], epochs: usize, lr: f32) {
        assert!(!train_idx.is_empty(), "empty fine-tuning set");
        assert_eq!(data.labels.len(), self.head_sizes.len());
        let prep = self.prepare(data, train_idx);
        let targets = batch_targets(data, train_idx, self.head_sizes.len());
        let mut opt = AdamW::new(lr).with_weight_decay(0.001);
        for _epoch in 0..epochs {
            self.final_loss = self.train_epoch(&prep, &targets, &mut opt);
        }
    }
}

/// Rebuild an [`AdamW`] from a checkpoint's [`persist::TrainState`].
/// Returns `None` when the saved moments don't line up with the model's
/// parameters (wrong names, order or shapes) — the caller then trains
/// from scratch rather than resuming with a corrupted optimizer.
fn optimizer_from_state(model: &FusionModel, st: &persist::TrainState) -> Option<AdamW> {
    let mut opt = AdamW::new(st.lr).with_weight_decay(0.001);
    if st.moments.is_empty() {
        // Saved before the first step; lazy init will handle it.
        opt.restore(AdamWState {
            t: st.t,
            lr: st.lr,
            m: Vec::new(),
            v: Vec::new(),
        });
        return Some(opt);
    }
    let params: Vec<(&str, &Tensor)> = model.ps.iter_named().collect();
    if params.len() != st.moments.len() {
        return None;
    }
    let mut m = Vec::with_capacity(params.len());
    let mut v = Vec::with_capacity(params.len());
    for ((pname, pt), (mname, mm, mv)) in params.iter().zip(&st.moments) {
        if *pname != mname.as_str()
            || mm.rows() != pt.rows()
            || mm.cols() != pt.cols()
            || mv.rows() != pt.rows()
            || mv.cols() != pt.cols()
        {
            return None;
        }
        m.push(mm.clone());
        v.push(mv.clone());
    }
    opt.restore(AdamWState {
        t: st.t,
        lr: st.lr,
        m,
        v,
    });
    Some(opt)
}

/// Write the resumable checkpoint. Checkpointing is best-effort: a write
/// failure is logged and counted but never aborts training.
#[allow(clippy::too_many_arguments)]
fn write_checkpoint(
    model: &FusionModel,
    health: &TrainHealth,
    opt: &AdamW,
    epoch: usize,
    rng: [u64; 4],
    vec_dim: usize,
    aux_dim: usize,
    path: &Path,
) {
    let ost = opt.state();
    let moments = if ost.m.is_empty() {
        Vec::new()
    } else {
        model
            .ps
            .iter_named()
            .map(|(n, _)| n.to_string())
            .zip(ost.m)
            .zip(ost.v)
            .map(|((n, m), v)| (n, m, v))
            .collect()
    };
    let st = persist::TrainState {
        epoch,
        retries: health.retries(),
        t: ost.t,
        lr: ost.lr,
        best_loss: health.best_loss(),
        final_loss: model.final_loss,
        moments,
        rng,
    };
    match persist::save_checkpoint_to_file(model, vec_dim, aux_dim, Some(&st), path) {
        Ok(()) => {
            mga_obs::metrics::counter("train.ckpt_writes").inc();
        }
        Err(e) => {
            mga_obs::metrics::counter("train.ckpt_write_failures").inc();
            mga_obs::warn!("checkpoint write failed ({e}); training continues");
        }
    }
}

/// Per-head integer targets of the given samples.
pub fn batch_targets(data: &TrainData<'_>, idx: &[usize], heads: usize) -> Vec<Vec<u32>> {
    (0..heads)
        .map(|h| idx.iter().map(|&i| data.labels[h][i] as u32).collect())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mga_graph::build_module_graph;
    use mga_kernels::archetypes;

    /// A tiny synthetic task: distinguish matmul-family kernels from
    /// streaming-family kernels (2 kernels per class, 4 samples per
    /// kernel with a noisy aux channel).
    type ToyData = (
        Vec<ProGraph>,
        Vec<Vec<f32>>,
        Vec<usize>,
        Vec<Vec<f32>>,
        Vec<usize>,
    );

    fn toy_data() -> ToyData {
        let modules = vec![
            archetypes::matmul("m1", 1).0,
            archetypes::matmul("m2", 2).0,
            archetypes::streaming("s1", 1, 1).0,
            archetypes::streaming("s2", 2, 2).0,
        ];
        let graphs: Vec<ProGraph> = modules.iter().map(build_module_graph).collect();
        let specs_vec: Vec<Vec<f32>> = {
            // Train a tiny seed embedding over the four modules.
            let mut triples = Vec::new();
            for m in &modules {
                triples.extend(mga_vec::extract_triples(m));
            }
            let emb = mga_vec::train_seed_embeddings(
                &triples,
                &mga_vec::TransEConfig {
                    dim: 12,
                    epochs: 15,
                    ..Default::default()
                },
                3,
            );
            modules.iter().map(|m| emb.encode_module(m)).collect()
        };
        let mut sample_kernel = Vec::new();
        let mut aux = Vec::new();
        let mut labels = Vec::new();
        for k in 0..4 {
            for j in 0..4 {
                sample_kernel.push(k);
                aux.push(vec![j as f32, (k * j) as f32]);
                labels.push(usize::from(k >= 2));
            }
        }
        (graphs, specs_vec, sample_kernel, aux, labels)
    }

    fn quick_cfg(modality: Modality) -> ModelConfig {
        ModelConfig {
            modality,
            use_aux: true,
            gnn: GnnConfig {
                dim: 12,
                layers: 2,
                update: mga_gnn::UpdateKind::Gru,
                homogeneous: false,
            },
            dae: DaeConfig {
                input_dim: 12,
                hidden_dim: 8,
                code_dim: 4,
                epochs: 30,
                ..DaeConfig::default()
            },
            hidden: 16,
            epochs: 80,
            lr: 0.02,
            seed: 5,
        }
    }

    #[test]
    fn multimodal_model_learns_toy_task() {
        let (graphs, vectors, sample_kernel, aux, labels) = toy_data();
        let data = TrainData {
            graphs: &graphs,
            vectors: &vectors,
            sample_kernel: &sample_kernel,
            aux: &aux,
            labels: std::slice::from_ref(&labels),
        };
        let train: Vec<usize> = (0..16).collect();
        let model = FusionModel::fit(quick_cfg(Modality::Multimodal), &data, &train, &[2]);
        let preds = model.predict(&data, &train);
        let acc = crate::metrics::accuracy(&preds[0], &labels);
        assert!(acc > 0.9, "training accuracy only {acc}");
        assert!(model.final_loss < 0.5);
        assert!(model.num_params() > 1000);
    }

    #[test]
    fn all_modalities_train_and_predict() {
        let (graphs, vectors, sample_kernel, aux, labels) = toy_data();
        let data = TrainData {
            graphs: &graphs,
            vectors: &vectors,
            sample_kernel: &sample_kernel,
            aux: &aux,
            labels: std::slice::from_ref(&labels),
        };
        let train: Vec<usize> = (0..16).collect();
        for m in [
            Modality::Multimodal,
            Modality::GraphOnly,
            Modality::VectorOnly,
            Modality::AuxOnly,
            Modality::EarlyFusion,
        ] {
            let mut cfg = quick_cfg(m);
            cfg.epochs = 10;
            let model = FusionModel::fit(cfg, &data, &train, &[2]);
            let preds = model.predict(&data, &train);
            assert_eq!(preds.len(), 1);
            assert_eq!(preds[0].len(), 16);
            assert!(preds[0].iter().all(|&p| p < 2));
        }
    }

    #[test]
    fn static_only_ablation_drops_aux() {
        let (graphs, vectors, sample_kernel, aux, labels) = toy_data();
        let data = TrainData {
            graphs: &graphs,
            vectors: &vectors,
            sample_kernel: &sample_kernel,
            aux: &aux,
            labels: &[labels],
        };
        let train: Vec<usize> = (0..16).collect();
        let mut cfg = quick_cfg(Modality::Multimodal);
        cfg.use_aux = false;
        cfg.epochs = 5;
        let model = FusionModel::fit(cfg, &data, &train, &[2]);
        assert!(model.aux_scaler.is_none());
    }

    #[test]
    fn multi_head_prediction_shapes() {
        let (graphs, vectors, sample_kernel, aux, labels) = toy_data();
        // Second head: a 3-way label.
        let labels2: Vec<usize> = sample_kernel.iter().map(|&k| k % 3).collect();
        let data = TrainData {
            graphs: &graphs,
            vectors: &vectors,
            sample_kernel: &sample_kernel,
            aux: &aux,
            labels: &[labels, labels2],
        };
        let train: Vec<usize> = (0..16).collect();
        let mut cfg = quick_cfg(Modality::Multimodal);
        cfg.epochs = 5;
        let model = FusionModel::fit(cfg, &data, &train, &[2, 3]);
        let preds = model.predict(&data, &[0, 5, 10]);
        assert_eq!(preds.len(), 2);
        assert_eq!(preds[0].len(), 3);
        assert!(preds[1].iter().all(|&p| p < 3));
    }

    #[test]
    fn prediction_on_unseen_kernels_works() {
        let (graphs, vectors, sample_kernel, aux, labels) = toy_data();
        let data = TrainData {
            graphs: &graphs,
            vectors: &vectors,
            sample_kernel: &sample_kernel,
            aux: &aux,
            labels: std::slice::from_ref(&labels),
        };
        // Train on kernels 0 and 2, validate on 1 and 3 (unseen graphs).
        let train: Vec<usize> = (0..16).filter(|i| sample_kernel[*i] % 2 == 0).collect();
        let val: Vec<usize> = (0..16).filter(|i| sample_kernel[*i] % 2 == 1).collect();
        let model = FusionModel::fit(quick_cfg(Modality::Multimodal), &data, &train, &[2]);
        let preds = model.predict(&data, &val);
        // Same-family generalization should be learnable on this toy task.
        let truth: Vec<usize> = val.iter().map(|&i| labels[i]).collect();
        let acc = crate::metrics::accuracy(&preds[0], &truth);
        assert!(acc >= 0.5, "unseen-kernel accuracy collapsed: {acc}");
    }

    #[test]
    fn graph_summary_features_are_finite_and_discriminative() {
        let (graphs, ..) = toy_data();
        let a = graph_summary(&graphs[0]);
        let b = graph_summary(&graphs[2]);
        assert_eq!(a.len(), 10);
        assert!(a.iter().all(|x| x.is_finite()));
        assert_ne!(a, b, "matmul and streaming graphs summarized identically");
    }

    #[test]
    fn fine_tuning_improves_fit_on_new_samples() {
        let (graphs, vectors, sample_kernel, aux, labels) = toy_data();
        // Flip the labels of kernel 3's samples so the pre-trained model
        // is wrong there, then fine-tune on exactly those samples.
        let mut flipped = labels.clone();
        for (i, &k) in sample_kernel.iter().enumerate() {
            if k == 3 {
                flipped[i] = 1 - flipped[i];
            }
        }
        let data = TrainData {
            graphs: &graphs,
            vectors: &vectors,
            sample_kernel: &sample_kernel,
            aux: &aux,
            labels: &[flipped.clone()],
        };
        let pretrain_idx: Vec<usize> = (0..16).filter(|i| sample_kernel[*i] != 3).collect();
        let tune_idx: Vec<usize> = (0..16).filter(|i| sample_kernel[*i] == 3).collect();
        let mut model =
            FusionModel::fit(quick_cfg(Modality::Multimodal), &data, &pretrain_idx, &[2]);
        let before = {
            let preds = model.predict(&data, &tune_idx);
            let truth: Vec<usize> = tune_idx.iter().map(|&i| flipped[i]).collect();
            crate::metrics::accuracy(&preds[0], &truth)
        };
        model.fine_tune(&data, &tune_idx, 60, 0.02);
        let after = {
            let preds = model.predict(&data, &tune_idx);
            let truth: Vec<usize> = tune_idx.iter().map(|&i| flipped[i]).collect();
            crate::metrics::accuracy(&preds[0], &truth)
        };
        assert!(
            after >= before && after > 0.9,
            "fine-tuning failed to adapt: {before} -> {after}"
        );
        // The pre-trained knowledge must not be obliterated entirely.
        let keep_idx: Vec<usize> = pretrain_idx.iter().copied().take(8).collect();
        let preds = model.predict(&data, &keep_idx);
        let truth: Vec<usize> = keep_idx.iter().map(|&i| flipped[i]).collect();
        let retained = crate::metrics::accuracy(&preds[0], &truth);
        assert!(retained >= 0.5, "catastrophic forgetting: {retained}");
    }

    /// A one-replica epoch (W = 1) is the plain full-batch step: one
    /// tape over the whole batch, gradients straight into the
    /// `ParamSet`, clip, AdamW — bitwise, epoch after epoch.
    #[test]
    fn one_replica_epoch_is_the_full_batch_step() {
        let (graphs, vectors, sample_kernel, aux, labels) = toy_data();
        let data = TrainData {
            graphs: &graphs,
            vectors: &vectors,
            sample_kernel: &sample_kernel,
            aux: &aux,
            labels: &[labels],
        };
        let train: Vec<usize> = (0..16).collect();
        let mut cfg = quick_cfg(Modality::Multimodal);
        cfg.epochs = 0;
        let mut a = FusionModel::fit(cfg.clone(), &data, &train, &[2]);
        let mut b = FusionModel::fit(cfg, &data, &train, &[2]);
        let prep = a.prepare(&data, &train);
        let targets = batch_targets(&data, &train, 1);
        let mut opt_a = AdamW::new(0.02).with_weight_decay(0.001);
        let mut opt_b = AdamW::new(0.02).with_weight_decay(0.001);
        for epoch in 0..3 {
            let loss_a = a
                .train_epoch_stats_width(&prep, &targets, &mut opt_a, 1)
                .loss;

            let mut tape = Tape::new();
            let logits = b.forward_prepared(&mut tape, &prep);
            let mut total: Option<Var> = None;
            for (lg, tg) in logits.iter().zip(&targets) {
                let loss = tape.softmax_cross_entropy(*lg, tg);
                total = Some(match total {
                    None => loss,
                    Some(t) => tape.add(t, loss),
                });
            }
            let total = total.unwrap();
            let loss_b = tape.value(total).get(0, 0);
            tape.backward(total);
            tape.accumulate_param_grads(&mut b.ps);
            b.ps.clip_grad_norm(5.0);
            opt_b.step(&mut b.ps);

            assert_eq!(loss_a.to_bits(), loss_b.to_bits(), "epoch {epoch}: loss");
            assert_eq!(
                a.param_checksum(),
                b.param_checksum(),
                "epoch {epoch}: parameters"
            );
        }
    }

    /// A kernel whose graph is empty reads out as a zero row inside the
    /// GNN, so the rest of the batch keeps training the GNN: one epoch
    /// over the width-8 plan gives the `gnn.*` parameters a gradient.
    #[test]
    fn empty_graph_leaves_the_gnn_training() {
        let (mut graphs, vectors, sample_kernel, aux, labels) = toy_data();
        graphs[3] = ProGraph::default();
        let data = TrainData {
            graphs: &graphs,
            vectors: &vectors,
            sample_kernel: &sample_kernel,
            aux: &aux,
            labels: &[labels],
        };
        let train: Vec<usize> = (0..16).collect();
        let mut cfg = quick_cfg(Modality::Multimodal);
        cfg.epochs = 0;
        let mut model = FusionModel::fit(cfg, &data, &train, &[2]);
        let prep = model.prepare(&data, &train);
        let targets = batch_targets(&data, &train, 1);
        let loss = model.epoch_data_parallel(prep.micro_plan(MICROBATCH_WIDTH), &prep, &targets);
        assert!(loss.is_finite());
        let gnn_norm: f32 = model
            .ps
            .ids()
            .filter(|&id| model.ps.name(id).starts_with("gnn."))
            .map(|id| model.ps.grad(id).norm())
            .sum();
        assert!(gnn_norm > 0.0, "the GNN got no gradient");
    }

    #[test]
    fn deterministic_given_seed() {
        let (graphs, vectors, sample_kernel, aux, labels) = toy_data();
        let data = TrainData {
            graphs: &graphs,
            vectors: &vectors,
            sample_kernel: &sample_kernel,
            aux: &aux,
            labels: &[labels],
        };
        let train: Vec<usize> = (0..16).collect();
        let mut cfg = quick_cfg(Modality::Multimodal);
        cfg.epochs = 8;
        let m1 = FusionModel::fit(cfg.clone(), &data, &train, &[2]);
        let m2 = FusionModel::fit(cfg, &data, &train, &[2]);
        assert_eq!(m1.predict(&data, &train), m2.predict(&data, &train));
        assert_eq!(m1.final_loss, m2.final_loss);
    }
}
