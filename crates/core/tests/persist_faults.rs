//! Checkpoint robustness under byte-level corruption.
//!
//! Property: for a valid v2 checkpoint produced by real training, any
//! truncation and any single-byte substitution must surface as a typed
//! [`PersistError::Malformed`] — never a panic, and never a silently
//! accepted load. The file-level FNV-1a seal guarantees this for the
//! sealed body (a single-byte substitution always changes the hash);
//! strict lowercase-hex parsing and the header check cover the few
//! unsealed tail/header bytes.

use std::sync::OnceLock;

use proptest::prelude::*;

use mga_core::cv::kfold_by_group;
use mga_core::model::{FitOptions, FusionModel, Modality, ModelConfig};
use mga_core::omp::OmpTask;
use mga_core::persist::{self, PersistError};
use mga_core::OmpDataset;
use mga_dae::DaeConfig;
use mga_gnn::{GnnConfig, UpdateKind};
use mga_kernels::catalog::openmp_thread_dataset;
use mga_sim::cpu::CpuSpec;
use mga_sim::openmp::thread_space;

/// Train one tiny model with checkpointing on and return the resulting
/// v2 checkpoint file bytes (training state included). Shared across
/// all proptest cases — training once is what makes 100s of corruption
/// cases affordable.
fn checkpoint_bytes() -> &'static [u8] {
    static CKPT: OnceLock<Vec<u8>> = OnceLock::new();
    CKPT.get_or_init(|| {
        let specs: Vec<_> = openmp_thread_dataset().into_iter().step_by(6).collect();
        let cpu = CpuSpec::comet_lake();
        let ds = OmpDataset::build(specs, vec![1e6, 1e8], thread_space(&cpu), cpu, 12, 4);
        let task = OmpTask::new(&ds);
        let folds = kfold_by_group(&ds.groups(), 3, 1);
        let cfg = ModelConfig {
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
            epochs: 8,
            lr: 0.02,
            seed: 2,
        };
        let data = task.train_data(&ds);
        let path = std::env::temp_dir().join("mga_persist_faults.ckpt");
        let _ = std::fs::remove_file(&path);
        let opts = FitOptions {
            checkpoint: Some(&path),
            ..FitOptions::default()
        };
        FusionModel::try_fit(cfg, &data, &folds[0].train, &task.codec.head_sizes(), &opts)
            .expect("tiny training run failed");
        std::fs::read(&path).expect("checkpoint file missing after training")
    })
}

fn describe(res: &Result<(FusionModel, Option<persist::TrainState>), PersistError>) -> String {
    match res {
        Ok(_) => "Ok(model)".to_string(),
        Err(e) => format!("Err({e})"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn truncation_is_typed_malformed(cut in 0..checkpoint_bytes().len()) {
        let bytes = checkpoint_bytes();
        // `cut` is in 0..len, i.e. always a strict prefix.
        let res = persist::load_checkpoint_bytes(&bytes[..cut]);
        prop_assert!(
            matches!(res, Err(PersistError::Malformed(_))),
            "truncation at {}/{} loaded as {}",
            cut,
            bytes.len(),
            describe(&res)
        );
    }

    #[test]
    fn single_byte_mutation_is_typed_malformed(
        pos in 0..checkpoint_bytes().len(),
        raw in 0u8..=255,
    ) {
        let bytes = checkpoint_bytes();
        // Skew away from a no-op substitution (there is no shrinking, so
        // remapping beats discarding the case).
        let byte = if raw == bytes[pos] { raw.wrapping_add(1) } else { raw };
        let mut mutated = bytes.to_vec();
        mutated[pos] = byte;
        let res = persist::load_checkpoint_bytes(&mutated);
        prop_assert!(
            matches!(res, Err(PersistError::Malformed(_))),
            "byte {} ({:#04x} -> {:#04x}) loaded as {}",
            pos,
            bytes[pos],
            byte,
            describe(&res)
        );
    }
}

/// The two corruptions the random sweep is unlikely to hit, pinned
/// deterministically: flipping the header version to `v1` (a format
/// without seals, which no longer loads) and case-flipping a seal hex
/// digit (which `from_str_radix` alone would re-parse to the stored
/// value).
#[test]
fn header_downgrade_and_seal_case_flip_are_rejected() {
    let text = std::str::from_utf8(checkpoint_bytes()).expect("checkpoint is UTF-8");

    let downgraded = text.replacen("mga-model v2", "mga-model v1", 1);
    assert!(
        matches!(
            persist::load_checkpoint(&downgraded),
            Err(PersistError::Malformed(_))
        ),
        "v1-headered file with v2 sections was accepted"
    );

    let seal_at = text.rfind("[crc] ").expect("checkpoint has no seal");
    let hex_pos = text[seal_at + 6..]
        .char_indices()
        .find(|(_, c)| c.is_ascii_lowercase())
        .map(|(i, _)| seal_at + 6 + i)
        .expect("seal hash has no a-f digit to case-flip");
    let mut flipped = text.as_bytes().to_vec();
    flipped[hex_pos] = flipped[hex_pos].to_ascii_uppercase();
    assert!(
        matches!(
            persist::load_checkpoint_bytes(&flipped),
            Err(PersistError::Malformed(_))
        ),
        "seal with an uppercase hex digit was accepted"
    );
}

/// save → load → save must be byte-identical (floats are stored as bit
/// patterns, so serialization is a fixpoint). This is what makes
/// "resumed run == uninterrupted run" checks bitwise meaningful.
#[test]
fn save_load_save_is_a_fixpoint() {
    let bytes = checkpoint_bytes();
    let text = std::str::from_utf8(bytes).expect("checkpoint is UTF-8");
    let (model, state) = persist::load_checkpoint(text).expect("valid checkpoint rejected");
    assert!(state.is_some(), "trained checkpoint lost its TrainState");
    let resaved = persist::save_checkpoint(&model, 12, 5, state.as_ref());
    assert_eq!(text, resaved, "re-serialization is not a fixpoint");
}
