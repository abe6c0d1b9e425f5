//! Neural-network layers: `Linear` and the `GruCell` used by gated graph
//! networks.
//!
//! Layers own no tensors — they register parameters in a shared
//! [`ParamSet`] and hold [`ParamId`]s, so one optimizer can drive an
//! arbitrary composition of layers (the whole MGA model trains under a
//! single `AdamW`).

use crate::init;
use crate::params::{ParamId, ParamSet};
use crate::tape::{FusedAct, Tape, Var};
use rand::rngs::StdRng;

/// Activation of a [`Linear`] layer: picks its initializer, and maps to
/// the fused-kernel activation with [`Activation::fused`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    Relu,
    Sigmoid,
    Tanh,
    /// No nonlinearity.
    Identity,
}

impl Activation {
    /// The equivalent fused-kernel activation (see [`Tape::linear`]).
    pub fn fused(self) -> FusedAct {
        match self {
            Activation::Relu => FusedAct::Relu,
            Activation::Sigmoid => FusedAct::Sigmoid,
            Activation::Tanh => FusedAct::Tanh,
            Activation::Identity => FusedAct::Identity,
        }
    }
}

/// A fully connected layer `y = x W + b`.
pub struct Linear {
    pub w: ParamId,
    pub b: ParamId,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Linear {
    /// Register a new layer; Xavier init for saturating activations,
    /// Kaiming otherwise.
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        in_dim: usize,
        out_dim: usize,
        act: Activation,
        rng: &mut StdRng,
    ) -> Linear {
        let w = match act {
            Activation::Relu => init::kaiming_uniform(in_dim, out_dim, rng),
            _ => init::xavier_uniform(in_dim, out_dim, rng),
        };
        let w = ps.add(format!("{name}.w"), w);
        let b = ps.add(
            format!("{name}.b"),
            crate::tensor::Tensor::zeros(1, out_dim),
        );
        Linear {
            w,
            b,
            in_dim,
            out_dim,
        }
    }

    /// Forward: `x [n × in] → [n × out]`.
    pub fn forward(&self, tape: &mut Tape, ps: &ParamSet, x: Var) -> Var {
        self.forward_act(tape, ps, x, FusedAct::Identity)
    }

    /// Forward with a fused activation: `act(x W + b)` in one tape op
    /// (single output buffer, single backward dispatch).
    pub fn forward_act(&self, tape: &mut Tape, ps: &ParamSet, x: Var, act: FusedAct) -> Var {
        let w = tape.param(ps, self.w);
        let b = tape.param(ps, self.b);
        tape.linear(x, w, b, act)
    }
}

/// A gated recurrent unit cell, the update function of gated graph neural
/// networks (Li et al., 2015):
///
/// ```text
/// z = σ(x W_z + h U_z + b_z)
/// r = σ(x W_r + h U_r + b_r)
/// h̃ = tanh(x W_h + (r ⊙ h) U_h + b_h)
/// h' = (1 − z) ⊙ h + z ⊙ h̃
/// ```
pub struct GruCell {
    wz: ParamId,
    uz: ParamId,
    bz: ParamId,
    wr: ParamId,
    ur: ParamId,
    br: ParamId,
    wh: ParamId,
    uh: ParamId,
    bh: ParamId,
    pub input_dim: usize,
    pub hidden_dim: usize,
}

impl GruCell {
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        input_dim: usize,
        hidden_dim: usize,
        rng: &mut StdRng,
    ) -> GruCell {
        let mut mat = |ps: &mut ParamSet, suffix: &str, r: usize, c: usize| {
            ps.add(format!("{name}.{suffix}"), init::xavier_uniform(r, c, rng))
        };
        let wz = mat(ps, "wz", input_dim, hidden_dim);
        let wr = mat(ps, "wr", input_dim, hidden_dim);
        let wh = mat(ps, "wh", input_dim, hidden_dim);
        let uz = mat(ps, "uz", hidden_dim, hidden_dim);
        let ur = mat(ps, "ur", hidden_dim, hidden_dim);
        let uh = mat(ps, "uh", hidden_dim, hidden_dim);
        let zeros = |ps: &mut ParamSet, suffix: &str| {
            ps.add(
                format!("{name}.{suffix}"),
                crate::tensor::Tensor::zeros(1, hidden_dim),
            )
        };
        let bz = zeros(ps, "bz");
        let br = zeros(ps, "br");
        let bh = zeros(ps, "bh");
        GruCell {
            wz,
            uz,
            bz,
            wr,
            ur,
            br,
            wh,
            uh,
            bh,
            input_dim,
            hidden_dim,
        }
    }

    /// One step: `x [n × input_dim]`, `h [n × hidden_dim]` → new hidden
    /// state `[n × hidden_dim]`.
    pub fn forward(&self, tape: &mut Tape, ps: &ParamSet, x: Var, h: Var) -> Var {
        // Each gate is one fused op: act(x W + h U + b).
        let gate =
            |tape: &mut Tape, w: ParamId, u: ParamId, b: ParamId, hin: Var, act: FusedAct| {
                let wv = tape.param(ps, w);
                let uv = tape.param(ps, u);
                let bv = tape.param(ps, b);
                tape.linear2(x, wv, hin, uv, bv, act)
            };
        let z = gate(tape, self.wz, self.uz, self.bz, h, FusedAct::Sigmoid);
        let r = gate(tape, self.wr, self.ur, self.br, h, FusedAct::Sigmoid);
        let rh = tape.mul(r, h);
        let htilde = gate(tape, self.wh, self.uh, self.bh, rh, FusedAct::Tanh);
        // h' = h + z ⊙ (h̃ − h)
        let diff = tape.sub(htilde, h);
        let update = tape.mul(z, diff);
        tape.add(h, update)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optim::AdamW;
    use crate::tensor::Tensor;
    use rand::SeedableRng;

    #[test]
    fn linear_forward_shape_and_bias() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let l = Linear::new(&mut ps, "l", 3, 2, Activation::Identity, &mut rng);
        // Force known weights.
        ps.value_mut(l.w).data_mut().fill(0.0);
        ps.value_mut(l.b).data_mut().copy_from_slice(&[1.0, -1.0]);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::zeros(4, 3));
        let y = l.forward(&mut tape, &ps, x);
        assert_eq!(tape.value(y).shape(), (4, 2));
        assert_eq!(tape.value(y).row_slice(2), &[1.0, -1.0]);
    }

    #[test]
    fn mlp_learns_xor() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let hidden = Linear::new(&mut ps, "xor.0", 2, 8, Activation::Tanh, &mut rng);
        let out = Linear::new(&mut ps, "xor.1", 8, 2, Activation::Identity, &mut rng);
        let mlp = |tape: &mut Tape, ps: &ParamSet, x: Var| {
            let h = hidden.forward_act(tape, ps, x, FusedAct::Tanh);
            out.forward(tape, ps, h)
        };
        let x = Tensor::from_vec(4, 2, vec![0., 0., 0., 1., 1., 0., 1., 1.]);
        let targets = [0u32, 1, 1, 0];
        let mut opt = AdamW::new(0.05).with_weight_decay(0.0);
        let mut final_loss = f32::MAX;
        for _ in 0..400 {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let logits = mlp(&mut tape, &ps, xv);
            let loss = tape.softmax_cross_entropy(logits, &targets);
            final_loss = tape.value(loss).get(0, 0);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut ps);
            opt.step(&mut ps);
        }
        assert!(final_loss < 0.05, "XOR loss stuck at {final_loss}");
        // Check predictions.
        let mut tape = Tape::new();
        let xv = tape.leaf(x.clone());
        let logits = mlp(&mut tape, &ps, xv);
        let out = tape.value(logits);
        for (i, &t) in targets.iter().enumerate() {
            let row = out.row_slice(i);
            let pred = if row[1] > row[0] { 1 } else { 0 };
            assert_eq!(pred, t, "wrong XOR prediction for input {i}");
        }
    }

    #[test]
    fn gru_preserves_state_shape_and_gates() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let gru = GruCell::new(&mut ps, "gru", 4, 6, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(3, 4, 0.1));
        let h = tape.leaf(Tensor::zeros(3, 6));
        let h2 = gru.forward(&mut tape, &ps, x, h);
        assert_eq!(tape.value(h2).shape(), (3, 6));
        // New state must be bounded by tanh range blending.
        assert!(tape.value(h2).data().iter().all(|&v| v.abs() <= 1.0));
    }

    #[test]
    fn gru_with_zero_update_gate_keeps_state() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(8);
        let gru = GruCell::new(&mut ps, "gru", 2, 3, &mut rng);
        // Saturate the z gate to 0 via a huge negative bias.
        ps.value_mut(gru.bz).data_mut().fill(-100.0);
        ps.value_mut(gru.wz).data_mut().fill(0.0);
        ps.value_mut(gru.uz).data_mut().fill(0.0);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(2, 2, 0.7));
        let h0 = Tensor::from_vec(2, 3, vec![0.1, 0.2, 0.3, 0.4, 0.5, 0.6]);
        let h = tape.leaf(h0.clone());
        let h2 = gru.forward(&mut tape, &ps, x, h);
        for (a, b) in tape.value(h2).data().iter().zip(h0.data()) {
            assert!((a - b).abs() < 1e-5, "state leaked through closed gate");
        }
    }

    #[test]
    fn gru_gradients_flow_to_all_parameters() {
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(13);
        let gru = GruCell::new(&mut ps, "gru", 3, 4, &mut rng);
        let mut tape = Tape::new();
        let x = tape.leaf(Tensor::full(2, 3, 0.5));
        let h = tape.leaf(Tensor::full(2, 4, 0.25));
        let h2 = gru.forward(&mut tape, &ps, x, h);
        let loss = tape.mse_loss(h2, &Tensor::zeros(2, 4));
        tape.backward(loss);
        tape.accumulate_param_grads(&mut ps);
        for id in ps.ids() {
            assert!(
                ps.grad(id).norm() > 0.0,
                "no gradient reached {}",
                ps.name(id)
            );
        }
    }
}
