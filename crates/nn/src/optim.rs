//! The AdamW optimizer.
//!
//! The paper trains every model with AdamW (Loshchilov & Hutter), which
//! decouples weight decay from the adaptive moment update.

use crate::params::ParamSet;
use crate::tensor::Tensor;

/// A snapshot of [`AdamW`]'s mutable state (see [`AdamW::state`]).
#[derive(Clone)]
pub struct AdamWState {
    pub t: u64,
    pub lr: f32,
    pub m: Vec<Tensor>,
    pub v: Vec<Tensor>,
}

/// AdamW: Adam with decoupled weight decay.
pub struct AdamW {
    pub lr: f32,
    pub beta1: f32,
    pub beta2: f32,
    pub eps: f32,
    pub weight_decay: f32,
    t: u64,
    m: Vec<Tensor>,
    v: Vec<Tensor>,
}

impl AdamW {
    /// Defaults match the common PyTorch configuration
    /// (`betas=(0.9, 0.999)`, `eps=1e-8`, `weight_decay=0.01`).
    pub fn new(lr: f32) -> AdamW {
        AdamW {
            lr,
            beta1: 0.9,
            beta2: 0.999,
            eps: 1e-8,
            weight_decay: 0.01,
            t: 0,
            m: Vec::new(),
            v: Vec::new(),
        }
    }

    pub fn with_weight_decay(mut self, wd: f32) -> AdamW {
        self.weight_decay = wd;
        self
    }

    /// Snapshot the adaptive state (step count, learning rate, first and
    /// second moments) for epoch rollback and checkpointing. Moments are
    /// empty before the first [`AdamW::step`].
    pub fn state(&self) -> AdamWState {
        AdamWState {
            t: self.t,
            lr: self.lr,
            m: self.m.clone(),
            v: self.v.clone(),
        }
    }

    /// Restore a snapshot taken with [`AdamW::state`]. Together with
    /// restoring the parameter values this makes a later `step` sequence
    /// bitwise identical to one that never left the snapshot.
    pub fn restore(&mut self, state: AdamWState) {
        assert_eq!(
            state.m.len(),
            state.v.len(),
            "AdamW state m/v length mismatch"
        );
        self.t = state.t;
        self.lr = state.lr;
        self.m = state.m;
        self.v = state.v;
    }

    /// Apply one update from the accumulated gradients, then zero them.
    pub fn step(&mut self, ps: &mut ParamSet) {
        if self.m.is_empty() {
            self.m = ps
                .ids()
                .map(|id| Tensor::zeros(ps.value(id).rows(), ps.value(id).cols()))
                .collect();
            self.v = self.m.clone();
        }
        assert_eq!(self.m.len(), ps.len(), "optimizer/param-set mismatch");
        self.t += 1;
        let bc1 = 1.0 - self.beta1.powi(self.t as i32);
        let bc2 = 1.0 - self.beta2.powi(self.t as i32);
        for (k, id) in ps.ids().collect::<Vec<_>>().into_iter().enumerate() {
            let g = ps.grad(id).clone();
            let m = &mut self.m[k];
            let v = &mut self.v[k];
            for ((mi, vi), &gi) in m.data_mut().iter_mut().zip(v.data_mut()).zip(g.data()) {
                *mi = self.beta1 * *mi + (1.0 - self.beta1) * gi;
                *vi = self.beta2 * *vi + (1.0 - self.beta2) * gi * gi;
            }
            let (lr, eps, wd) = (self.lr, self.eps, self.weight_decay);
            let m_snapshot = m.clone();
            let v_snapshot = v.clone();
            let value = ps.value_mut(id);
            for ((x, &mi), &vi) in value
                .data_mut()
                .iter_mut()
                .zip(m_snapshot.data())
                .zip(v_snapshot.data())
            {
                let mhat = mi / bc1;
                let vhat = vi / bc2;
                // Decoupled weight decay, applied directly to the weights.
                *x -= lr * (mhat / (vhat.sqrt() + eps) + wd * *x);
            }
        }
        ps.zero_grads();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tape::Tape;

    /// Minimize ||x W - y||² over W with `step`; returns the first and
    /// last losses.
    fn fit<F: FnMut(&mut ParamSet)>(mut step: F, ps: &mut ParamSet) -> (f32, f32) {
        let w = crate::params::ParamId(0);
        let x = Tensor::from_vec(4, 2, vec![1., 0., 0., 1., 1., 1., 2., -1.]);
        let y = Tensor::from_vec(4, 1, vec![2.0, -1.0, 1.0, 5.0]);
        let mut first = 0.0;
        let mut last = 0.0;
        for it in 0..300 {
            let mut tape = Tape::new();
            let xv = tape.leaf(x.clone());
            let wv = tape.param(ps, w);
            let pred = tape.matmul(xv, wv);
            let loss = tape.mse_loss(pred, &y);
            let lv = tape.value(loss).get(0, 0);
            if it == 0 {
                first = lv;
            }
            last = lv;
            tape.backward(loss);
            tape.accumulate_param_grads(ps);
            step(ps);
        }
        (first, last)
    }

    #[test]
    fn adamw_converges_on_least_squares() {
        let mut ps = ParamSet::new();
        ps.add("w", Tensor::zeros(2, 1));
        let mut opt = AdamW::new(0.05).with_weight_decay(0.0);
        let (first, last) = fit(|ps| opt.step(ps), &mut ps);
        assert!(
            last < first * 0.01,
            "AdamW failed to converge: {first} -> {last}"
        );
    }

    #[test]
    fn adamw_weight_decay_shrinks_weights() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::full(4, 4, 1.0));
        let mut opt = AdamW::new(0.01).with_weight_decay(0.5);
        // No gradient signal at all: decay alone must shrink the weights.
        for _ in 0..50 {
            opt.step(&mut ps);
        }
        assert!(ps.value(w).norm() < Tensor::full(4, 4, 1.0).norm());
    }

    #[test]
    fn adamw_state_roundtrip_is_bitwise_exact() {
        // Two optimizers over identical param sets; snapshot one mid-run,
        // perturb it, restore, and the remaining steps must match the
        // undisturbed twin bit for bit.
        let run = |snapshot_at: Option<usize>| -> Vec<f32> {
            let mut ps = ParamSet::new();
            let w = ps.add("w", Tensor::zeros(2, 1));
            let mut opt = AdamW::new(0.05);
            let x = Tensor::from_vec(4, 2, vec![1., 0., 0., 1., 1., 1., 2., -1.]);
            let y = Tensor::from_vec(4, 1, vec![2.0, -1.0, 1.0, 5.0]);
            for it in 0..20 {
                let mut tape = Tape::new();
                let xv = tape.leaf(x.clone());
                let wv = tape.param(&ps, w);
                let pred = tape.matmul(xv, wv);
                let loss = tape.mse_loss(pred, &y);
                tape.backward(loss);
                tape.accumulate_param_grads(&mut ps);
                opt.step(&mut ps);
                if snapshot_at == Some(it) {
                    let saved_opt = opt.state();
                    let saved_w = ps.value(w).clone();
                    // Wander off for a few steps, then roll back.
                    opt.lr *= 3.0;
                    for _ in 0..5 {
                        ps.grad_mut(w).data_mut().fill(1.0);
                        opt.step(&mut ps);
                    }
                    opt.restore(saved_opt);
                    *ps.value_mut(w) = saved_w;
                    ps.zero_grads();
                }
            }
            ps.value(w).data().to_vec()
        };
        assert_eq!(run(None), run(Some(9)));
    }

    #[test]
    fn step_zeroes_grads() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::zeros(1, 1));
        ps.grad_mut(w).data_mut()[0] = 1.0;
        let mut opt = AdamW::new(0.1);
        opt.step(&mut ps);
        assert_eq!(ps.grad(w).data()[0], 0.0);
    }
}
