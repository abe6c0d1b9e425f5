//! Inference plans: a borrowed, grad-free view of a trained classifier.

use mga_core::model::{FusionModel, ModelExport};
use mga_nn::infer;
use mga_nn::FusedAct;

/// A grad-free view of a trained [`FusionModel`]'s classifier: the
/// model's own trunk and head weights and its dynamic-feature scaler,
/// borrowed through [`FusionModel::export`], plus the model itself for
/// the cache-miss path. The per-kernel static embedding prefix is *not*
/// here — it lives in the [`crate::EmbeddingCache`], keyed by kernel.
///
/// The plan copies nothing, so it cannot disagree with the model it
/// serves; the model outlives the plan by its lifetime `'a`.
///
/// The forward pass re-enters the exact kernels the training tape's
/// `FusedLinear` op calls (via [`infer::fused_linear_into`], on the
/// process's one SIMD backend), so plan outputs are bitwise-identical to
/// `FusionModel::predict` on the same inputs.
pub struct InferencePlan<'a> {
    model: &'a FusionModel,
    e: ModelExport<'a>,
}

impl<'a> InferencePlan<'a> {
    /// A plan over `model`'s classifier.
    pub fn new(model: &'a FusionModel) -> InferencePlan<'a> {
        InferencePlan {
            model,
            e: model.export(),
        }
    }

    /// The model this plan serves — its GNN, DAE and scalers compute the
    /// static embedding of a kernel the cache does not hold.
    pub(crate) fn model(&self) -> &'a FusionModel {
        self.model
    }

    /// Total trunk input width (static prefix + scaled aux).
    pub fn in_dim(&self) -> usize {
        self.e.in_dim
    }

    /// Width of the scaled dynamic-feature suffix (0 when static-only).
    pub fn aux_dim(&self) -> usize {
        self.e.aux_dim
    }

    /// Width of the per-kernel static embedding prefix.
    pub fn static_dim(&self) -> usize {
        self.e.in_dim - self.e.aux_dim
    }

    /// Trunk hidden width.
    pub fn hidden(&self) -> usize {
        self.e.hidden
    }

    /// Class counts per head.
    pub fn head_sizes(&self) -> &[usize] {
        self.e.head_sizes
    }

    /// Number of classification heads.
    pub fn num_heads(&self) -> usize {
        self.e.heads.len()
    }

    /// Widest head — sizes the shared logits scratch buffer.
    pub fn max_classes(&self) -> usize {
        self.e.head_sizes.iter().copied().max().unwrap_or(0)
    }

    /// Whether every trunk and head weight and bias is finite.
    pub(crate) fn weights_finite(&self) -> bool {
        let e = &self.e;
        [e.trunk_w, e.trunk_b]
            .into_iter()
            .chain(e.heads.iter().flat_map(|&(w, b)| [w, b]))
            .all(|t| t.data().iter().all(|v| v.is_finite()))
    }

    /// Scale one raw dynamic-feature row into `dst` (length
    /// [`InferencePlan::aux_dim`]) by
    /// [`mga_nn::scaler::MinMaxScaler::scale_into`], the rule
    /// `FusionModel::prepare` uses too: a wrong-width or non-finite row
    /// is imputed to the scaled mid-range (0.5) and counted under
    /// `serve.degraded_aux`.
    pub fn scale_aux_into(&self, dst: &mut [f32], raw: &[f32]) {
        if let Some(scaler) = self.e.aux_scaler {
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
        let (in_dim, width) = (self.e.in_dim, self.e.hidden);
        debug_assert!(x.len() >= rows * in_dim);
        debug_assert!(hidden.len() >= rows * width);
        infer::fused_linear_into(
            &mut hidden[..rows * width],
            &x[..rows * in_dim],
            rows,
            self.e.trunk_w,
            self.e.trunk_b,
            FusedAct::Relu,
        );
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
        let nh = self.e.heads.len();
        debug_assert!(hidden.len() >= rows * self.e.hidden);
        debug_assert!(logits.len() >= rows * self.max_classes());
        debug_assert!(classes.len() >= rows * nh);
        let h = &hidden[..rows * self.e.hidden];
        for (hi, &(w, b)) in self.e.heads.iter().enumerate() {
            let nc = self.e.head_sizes[hi];
            let lg = &mut logits[..rows * nc];
            infer::fused_linear_into(lg, h, rows, w, b, FusedAct::Identity);
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
