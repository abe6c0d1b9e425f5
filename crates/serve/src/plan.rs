//! Frozen inference plans: compile-once classifier snapshots.

use mga_core::model::FusionModel;
use mga_nn::infer;
use mga_nn::scaler::MinMaxScaler;
use mga_nn::{FusedAct, Tensor};

/// One fused-linear stage (trunk or head): its weights and bias.
struct Stage {
    w: Tensor,
    b: Tensor,
}

impl Stage {
    fn compile(w: &Tensor, b: &Tensor) -> Stage {
        Stage {
            w: w.clone(),
            b: b.clone(),
        }
    }

    fn forward(&self, out: &mut [f32], x: &[f32], rows: usize, act: FusedAct) {
        infer::fused_linear_into(out, x, rows, &self.w, &self.b, act)
    }
}

/// A compiled, grad-free snapshot of a trained [`FusionModel`]'s
/// classifier. Owns packed copies of the trunk and head weights (the
/// model itself can be dropped or keep training a successor), plus the
/// dynamic-feature scaler. The per-kernel static embedding prefix is
/// *not* here — it lives in the [`crate::EmbeddingCache`], keyed by
/// kernel.
///
/// The forward pass re-enters the exact kernels the training tape's
/// `FusedLinear` op calls (via [`infer::fused_linear_into`], on the
/// process's one SIMD backend), so plan outputs are bitwise-identical to
/// `FusionModel::predict` on the same inputs.
pub struct InferencePlan {
    trunk: Stage,
    heads: Vec<Stage>,
    head_sizes: Vec<usize>,
    aux_scaler: Option<MinMaxScaler>,
    in_dim: usize,
    aux_dim: usize,
    hidden: usize,
}

impl InferencePlan {
    /// Snapshot `model`'s classifier weights into a frozen plan.
    pub fn compile(model: &FusionModel) -> InferencePlan {
        mga_obs::span!("serve.compile");
        let e = model.export();
        InferencePlan {
            trunk: Stage::compile(e.trunk_w, e.trunk_b),
            heads: e.heads.iter().map(|(w, b)| Stage::compile(w, b)).collect(),
            head_sizes: e.head_sizes.to_vec(),
            aux_scaler: e.aux_scaler.cloned(),
            in_dim: e.in_dim,
            aux_dim: e.aux_dim,
            hidden: e.hidden,
        }
    }

    /// Bytes of packed weight storage (excludes biases).
    pub fn weight_bytes(&self) -> usize {
        let stage = |s: &Stage| std::mem::size_of_val(s.w.data());
        stage(&self.trunk) + self.heads.iter().map(stage).sum::<usize>()
    }

    /// Total trunk input width (static prefix + scaled aux).
    pub fn in_dim(&self) -> usize {
        self.in_dim
    }

    /// Width of the scaled dynamic-feature suffix (0 when static-only).
    pub fn aux_dim(&self) -> usize {
        self.aux_dim
    }

    /// Width of the per-kernel static embedding prefix.
    pub fn static_dim(&self) -> usize {
        self.in_dim - self.aux_dim
    }

    /// Trunk hidden width.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Class counts per head.
    pub fn head_sizes(&self) -> &[usize] {
        &self.head_sizes
    }

    /// Number of classification heads.
    pub fn num_heads(&self) -> usize {
        self.heads.len()
    }

    /// Widest head — sizes the shared logits scratch buffer.
    pub fn max_classes(&self) -> usize {
        self.head_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Scale one raw dynamic-feature row into `dst` (length
    /// [`InferencePlan::aux_dim`]) by [`MinMaxScaler::scale_into`], the
    /// rule `FusionModel::prepare` uses too: a wrong-width or non-finite
    /// row is imputed to the scaled mid-range (0.5) and counted under
    /// `serve.degraded_aux`.
    pub fn scale_aux_into(&self, dst: &mut [f32], raw: &[f32]) {
        if let Some(scaler) = &self.aux_scaler {
            if scaler.scale_into(dst, raw) {
                mga_obs::metrics::counter("serve.degraded_aux").inc();
            }
        }
    }

    /// Run `rows` trunk-input rows (`x`, row-major `rows × in_dim`)
    /// through the fused trunk layer into `hidden` (`rows × hidden()`,
    /// caller-recycled scratch; nothing here allocates). The head stage
    /// is [`InferencePlan::heads_into`], a separate call so the serving
    /// engine can time the two stages apart.
    pub fn trunk_into(&self, x: &[f32], rows: usize, hidden: &mut [f32]) {
        debug_assert!(x.len() >= rows * self.in_dim);
        debug_assert!(hidden.len() >= rows * self.hidden);
        let h = &mut hidden[..rows * self.hidden];
        self.trunk
            .forward(h, &x[..rows * self.in_dim], rows, FusedAct::Relu);
    }

    /// Run the trunk's `hidden` activations through every head, writing
    /// the argmax class of head `h` for row `r` into
    /// `classes[r * num_heads + h]`; `logits` (`rows × max_classes()`)
    /// is caller-recycled scratch. When `margins` is provided (same
    /// `rows × num_heads` layout) the top-1 − top-2 decision margin of
    /// each head is recorded alongside — the class decision itself
    /// comes from the same comparator either way
    /// ([`infer::argmax_margin`] is tie-for-tie identical to
    /// [`infer::argmax`]), so telemetry never changes a prediction.
    pub fn heads_into(
        &self,
        hidden: &[f32],
        rows: usize,
        logits: &mut [f32],
        classes: &mut [usize],
        mut margins: Option<&mut [f32]>,
    ) {
        debug_assert!(hidden.len() >= rows * self.hidden);
        debug_assert!(logits.len() >= rows * self.max_classes());
        debug_assert!(classes.len() >= rows * self.heads.len());
        let h = &hidden[..rows * self.hidden];
        let nh = self.heads.len();
        for (hi, stage) in self.heads.iter().enumerate() {
            let nc = self.head_sizes[hi];
            let lg = &mut logits[..rows * nc];
            stage.forward(lg, h, rows, FusedAct::Identity);
            for r in 0..rows {
                let row = &lg[r * nc..(r + 1) * nc];
                match margins.as_deref_mut() {
                    Some(m) => {
                        let (cls, mg) = infer::argmax_margin(row);
                        classes[r * nh + hi] = cls;
                        m[r * nh + hi] = mg;
                    }
                    None => classes[r * nh + hi] = infer::argmax(row),
                }
            }
        }
    }
}
