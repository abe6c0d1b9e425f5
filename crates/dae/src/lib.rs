//! `mga-dae` — denoising autoencoder for distributed code vectors.
//!
//! The paper models the IR2Vec modality with a denoising autoencoder
//! (§3.2): the training vectors are scaled to a standard normal
//! distribution with Gaussian-rank scaling, corrupted with **swap noise**
//! (for each column, ~10 % of the values are replaced by a value sampled
//! from the *same column* at a random row) and the model is trained to
//! reconstruct the uncorrupted inputs. Sigmoid activations, three hidden
//! layers, self-supervised. After pre-training, the encoder half produces
//! the compressed code features that are late-fused with the GNN output.

use mga_nn::infer;
use mga_nn::layers::{Activation, Linear};
use mga_nn::optim::AdamW;
use mga_nn::scaler::GaussRankScaler;
use mga_nn::tape::{FusedAct, Tape, Var};
use mga_nn::tensor::Tensor;
use mga_nn::ParamSet;
use rand::rngs::StdRng;
use rand::Rng;

/// Configuration of the DAE.
#[derive(Debug, Clone)]
pub struct DaeConfig {
    /// Input dimensionality (the IR2Vec vector width).
    pub input_dim: usize,
    /// Hidden width of encoder/decoder layers.
    pub hidden_dim: usize,
    /// Width of the code (bottleneck) layer — the extracted feature size.
    pub code_dim: usize,
    /// Fraction of entries swapped per column during training.
    pub swap_noise: f32,
    pub epochs: usize,
    pub lr: f32,
}

impl Default for DaeConfig {
    fn default() -> Self {
        DaeConfig {
            input_dim: 64,
            hidden_dim: 48,
            code_dim: 24,
            swap_noise: 0.10,
            epochs: 120,
            lr: 0.005,
        }
    }
}

/// The denoising autoencoder: `input → hidden → code → hidden → input`,
/// three hidden layers total, sigmoid activations (paper §6).
pub struct Dae {
    enc1: Linear,
    enc2: Linear,
    dec1: Linear,
    dec2: Linear,
    pub cfg: DaeConfig,
}

impl Dae {
    pub fn new(ps: &mut ParamSet, name: &str, cfg: DaeConfig, rng: &mut StdRng) -> Dae {
        let enc1 = Linear::new(
            ps,
            &format!("{name}.enc1"),
            cfg.input_dim,
            cfg.hidden_dim,
            Activation::Sigmoid,
            rng,
        );
        let enc2 = Linear::new(
            ps,
            &format!("{name}.enc2"),
            cfg.hidden_dim,
            cfg.code_dim,
            Activation::Sigmoid,
            rng,
        );
        let dec1 = Linear::new(
            ps,
            &format!("{name}.dec1"),
            cfg.code_dim,
            cfg.hidden_dim,
            Activation::Sigmoid,
            rng,
        );
        let dec2 = Linear::new(
            ps,
            &format!("{name}.dec2"),
            cfg.hidden_dim,
            cfg.input_dim,
            Activation::Identity,
            rng,
        );
        Dae {
            enc1,
            enc2,
            dec1,
            dec2,
            cfg,
        }
    }

    /// Encode inputs to the code layer (the features used for fusion).
    pub fn encode(&self, tape: &mut Tape, ps: &ParamSet, x: Var) -> Var {
        let h = self.enc1.forward_act(tape, ps, x, FusedAct::Sigmoid);
        self.enc2.forward_act(tape, ps, h, FusedAct::Sigmoid)
    }

    /// Full reconstruction pass.
    pub fn reconstruct(&self, tape: &mut Tape, ps: &ParamSet, x: Var) -> Var {
        let code = self.encode(tape, ps, x);
        let h = self.dec1.forward_act(tape, ps, code, FusedAct::Sigmoid);
        self.dec2.forward(tape, ps, h)
    }
}

/// Apply swap noise to a batch: for each column, each entry is replaced
/// with probability `p` by the value of the same column at a uniformly
/// random row.
pub fn swap_noise(data: &Tensor, p: f32, rng: &mut StdRng) -> Tensor {
    let (rows, cols) = data.shape();
    let mut out = data.clone();
    for c in 0..cols {
        for r in 0..rows {
            if rng.gen::<f32>() < p {
                let donor = rng.gen_range(0..rows);
                let v = data.get(donor, c);
                out.set(r, c, v);
            }
        }
    }
    out
}

/// Result of DAE pre-training.
pub struct TrainedDae {
    pub dae: Dae,
    pub params: ParamSet,
    pub scaler: GaussRankScaler,
    /// Final training reconstruction loss.
    pub final_loss: f32,
}

/// Pre-train a DAE on raw code vectors (self-supervised). The vectors are
/// Gaussian-rank scaled first; the returned [`TrainedDae`] owns the fitted
/// scaler so inference applies the same transform.
pub fn pretrain(vectors: &[Vec<f32>], cfg: DaeConfig, rng: &mut StdRng) -> TrainedDae {
    mga_obs::span!("dae.pretrain");
    assert!(!vectors.is_empty(), "no vectors to pre-train on");
    let dim = cfg.input_dim;
    assert!(
        vectors.iter().all(|v| v.len() == dim),
        "vector width mismatch"
    );

    let scaler = GaussRankScaler::fit(vectors, dim);
    let rows: Vec<&[f32]> = vectors.iter().map(Vec::as_slice).collect();
    let clean = Tensor::from_vec(vectors.len(), dim, scaler.transform_rows(&rows));

    let mut params = ParamSet::new();
    let dae = Dae::new(&mut params, "dae", cfg, rng);
    let mut opt = AdamW::new(dae.cfg.lr).with_weight_decay(0.0);
    let mut final_loss = f32::MAX;
    let epoch_counter = mga_obs::metrics::counter("dae.epochs");
    for _ in 0..dae.cfg.epochs {
        mga_obs::span!("dae.epoch");
        epoch_counter.inc();
        let noisy = swap_noise(&clean, dae.cfg.swap_noise, rng);
        let mut tape = Tape::new();
        let x = tape.leaf(noisy);
        let rec = dae.reconstruct(&mut tape, &params, x);
        let loss = tape.mse_loss(rec, &clean);
        final_loss = tape.value(loss).get(0, 0);
        tape.backward(loss);
        tape.accumulate_param_grads(&mut params);
        opt.step(&mut params);
    }
    mga_obs::metrics::gauge("dae.final_loss").set(final_loss as f64);
    TrainedDae {
        dae,
        params,
        scaler,
        final_loss,
    }
}

impl TrainedDae {
    /// Rebuild a trained DAE from a checkpoint: the architecture is
    /// reconstructed from `cfg` and the saved parameter values are
    /// restored by name. Errors (instead of panicking) on parameters the
    /// architecture does not declare or whose shapes differ, so corrupt
    /// checkpoints surface as typed load failures.
    pub fn from_parts(
        cfg: DaeConfig,
        named_params: Vec<(String, mga_nn::Tensor)>,
        scaler: GaussRankScaler,
    ) -> Result<TrainedDae, String> {
        let mut params = ParamSet::new();
        let mut rng = rand::SeedableRng::seed_from_u64(0);
        let dae = Dae::new(&mut params, "dae", cfg, &mut rng);
        for (name, value) in named_params {
            params
                .set_by_name(&name, value)
                .map_err(|e| format!("DAE checkpoint parameter {name}: {e}"))?;
        }
        Ok(TrainedDae {
            dae,
            params,
            scaler,
            final_loss: f32::NAN,
        })
    }

    /// Encode raw (unscaled) vectors to code features, one row per
    /// vector. Runs the encoder's two sigmoid layers through the
    /// grad-free [`infer::fused_linear_into`] on the Gaussian-rank-scaled
    /// rows: bitwise what [`Dae::encode`] computes on a tape, without
    /// building one.
    pub fn encode(&self, vectors: &[&[f32]]) -> Tensor {
        mga_obs::span!("dae.encode");
        let n = vectors.len();
        let layer = |x: &[f32], l: &Linear| {
            let mut out = vec![0.0; n * l.out_dim];
            let (w, b) = (self.params.value(l.w), self.params.value(l.b));
            infer::fused_linear_into(&mut out, x, n, w, b, FusedAct::Sigmoid);
            out
        };
        let x = self.scaler.transform_rows(vectors);
        let h = layer(&x, &self.dae.enc1);
        Tensor::from_vec(n, self.dae.cfg.code_dim, layer(&h, &self.dae.enc2))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    /// Synthetic tabular data with columnar structure: col j of row i is
    /// a noisy function of a low-dimensional latent.
    fn synthetic(rows: usize, dim: usize, seed: u64) -> Vec<Vec<f32>> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..rows)
            .map(|_| {
                let z1: f32 = rng.gen_range(-1.0..1.0);
                let z2: f32 = rng.gen_range(-1.0..1.0);
                (0..dim)
                    .map(|j| {
                        let base = if j % 2 == 0 { z1 } else { z2 };
                        base * (1.0 + j as f32 / dim as f32) + rng.gen_range(-0.05..0.05)
                    })
                    .collect()
            })
            .collect()
    }

    fn rows(data: &[Vec<f32>]) -> Vec<&[f32]> {
        data.iter().map(Vec::as_slice).collect()
    }

    fn bits(x: &[f32]) -> Vec<u32> {
        x.iter().map(|v| v.to_bits()).collect()
    }

    /// The grad-free encode is the tape's encoder over the same
    /// Gaussian-rank-scaled rows, bit for bit, and row `r` of a
    /// multi-row encode is the one-row encode of vector `r`.
    #[test]
    fn encode_matches_tape_encoder_bitwise() {
        let data = synthetic(24, 16, 17);
        let cfg = DaeConfig {
            input_dim: 16,
            hidden_dim: 12,
            code_dim: 6,
            epochs: 20,
            ..DaeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(9);
        let trained = pretrain(&data, cfg, &mut rng);
        for n in [1usize, 7] {
            let vectors = rows(&data[..n]);
            let got = trained.encode(&vectors);

            let mut scaled = Vec::new();
            for v in &vectors {
                let mut row = v.to_vec();
                trained.scaler.transform_row(&mut row);
                scaled.extend(row);
            }
            let mut tape = Tape::new();
            let x = tape.leaf(Tensor::from_vec(n, 16, scaled));
            let code = trained.dae.encode(&mut tape, &trained.params, x);
            assert_eq!(
                bits(got.data()),
                bits(tape.value(code).data()),
                "{n} row(s) diverged from the tape encoder"
            );

            for (r, v) in vectors.iter().enumerate() {
                let one = trained.encode(&[v]);
                assert_eq!(
                    bits(one.data()),
                    bits(got.row_slice(r)),
                    "row {r} of {n} differs from its one-row encode"
                );
            }
        }
    }

    #[test]
    fn swap_noise_preserves_column_value_multiset_support() {
        let mut rng = StdRng::seed_from_u64(1);
        let data = Tensor::from_vec(4, 2, vec![1., 10., 2., 20., 3., 30., 4., 40.]);
        let noisy = swap_noise(&data, 0.5, &mut rng);
        // Every noisy value must come from the same column of the original.
        for c in 0..2 {
            let col: Vec<f32> = (0..4).map(|r| data.get(r, c)).collect();
            for r in 0..4 {
                assert!(col.contains(&noisy.get(r, c)), "foreign value injected");
            }
        }
    }

    #[test]
    fn swap_noise_zero_probability_is_identity() {
        let mut rng = StdRng::seed_from_u64(2);
        let data = Tensor::from_vec(3, 3, (0..9).map(|x| x as f32).collect());
        let noisy = swap_noise(&data, 0.0, &mut rng);
        assert_eq!(noisy, data);
    }

    #[test]
    fn swap_noise_rate_is_approximately_p() {
        let mut rng = StdRng::seed_from_u64(3);
        let rows = 500;
        // Distinct values so a swap is (almost always) observable.
        let data = Tensor::from_vec(rows, 1, (0..rows).map(|x| x as f32).collect());
        let noisy = swap_noise(&data, 0.1, &mut rng);
        let changed = (0..rows)
            .filter(|&r| noisy.get(r, 0) != data.get(r, 0))
            .count();
        let rate = changed as f32 / rows as f32;
        assert!(
            (0.05..0.16).contains(&rate),
            "swap rate {rate} far from 10%"
        );
    }

    #[test]
    fn pretraining_reduces_reconstruction_loss() {
        let data = synthetic(64, 16, 7);
        let cfg = DaeConfig {
            input_dim: 16,
            hidden_dim: 12,
            code_dim: 6,
            epochs: 150,
            lr: 0.01,
            ..DaeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(4);
        let trained = pretrain(&data, cfg, &mut rng);
        // The latent is 2-D; a 6-D code must reconstruct well below the
        // variance of the scaled data (~1.0).
        assert!(
            trained.final_loss < 0.5,
            "reconstruction loss too high: {}",
            trained.final_loss
        );
    }

    #[test]
    fn encode_produces_code_dim_features_in_unit_range() {
        let data = synthetic(32, 16, 9);
        let cfg = DaeConfig {
            input_dim: 16,
            hidden_dim: 12,
            code_dim: 5,
            epochs: 20,
            ..DaeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(5);
        let trained = pretrain(&data, cfg, &mut rng);
        let codes = trained.encode(&rows(&data));
        assert_eq!(codes.shape(), (32, 5));
        // Sigmoid code layer: all features in (0, 1).
        assert!(codes.data().iter().all(|&x| (0.0..=1.0).contains(&x)));
        // Codes must not collapse to a constant.
        let first = codes.row_slice(0).to_vec();
        assert!((1..32).any(|r| codes.row_slice(r) != first.as_slice()));
    }

    #[test]
    fn encoding_is_deterministic_after_training() {
        let data = synthetic(16, 8, 11);
        let cfg = DaeConfig {
            input_dim: 8,
            hidden_dim: 6,
            code_dim: 3,
            epochs: 10,
            ..DaeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(6);
        let trained = pretrain(&data, cfg, &mut rng);
        let a = trained.encode(&rows(&data));
        let b = trained.encode(&rows(&data));
        assert_eq!(a, b);
    }

    #[test]
    fn similar_inputs_get_similar_codes() {
        let data = synthetic(64, 16, 13);
        let cfg = DaeConfig {
            input_dim: 16,
            hidden_dim: 12,
            code_dim: 6,
            epochs: 100,
            lr: 0.01,
            ..DaeConfig::default()
        };
        let mut rng = StdRng::seed_from_u64(8);
        let trained = pretrain(&data, cfg, &mut rng);
        // Perturb one sample slightly; its code must stay closer to its
        // own code than to a random other sample's code.
        let mut perturbed = data[0].clone();
        for x in &mut perturbed {
            *x += 0.01;
        }
        let codes = trained.encode(&[&data[0], &perturbed, &data[32]]);
        let d01: f32 = codes
            .row_slice(0)
            .iter()
            .zip(codes.row_slice(1))
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        let d02: f32 = codes
            .row_slice(0)
            .iter()
            .zip(codes.row_slice(2))
            .map(|(a, b)| (a - b) * (a - b))
            .sum();
        assert!(
            d01 < d02,
            "perturbed code ({d01}) not closer than random ({d02})"
        );
    }
}
