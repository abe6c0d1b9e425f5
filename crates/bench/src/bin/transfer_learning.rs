//! Extension experiment (paper §7: "incorporate transfer … learning"):
//! sample efficiency of fine-tuning a Comet-Lake-trained model on a new
//! µ-architecture (Sandy Bridge) versus training from scratch there.
//!
//! Three regimes per target budget of K loops:
//!   * zero-shot — the source model with §4.1.5 counter rescaling;
//!   * fine-tuned — source model + a few epochs on the K target loops;
//!   * scratch — a fresh model trained only on the K target loops.

use mga_bench::{heading, model_cfg, parse_opts, vec_dim};
use mga_core::cv::kfold_by_group;
use mga_core::metrics::SpeedupPair;
use mga_core::model::{FusionModel, Modality, TrainData};
use mga_core::omp::{portability_features, OmpTask};
use mga_core::OmpDataset;
use mga_kernels::catalog::openmp_thread_dataset;
use mga_kernels::inputs::openmp_input_sizes;
use mga_sim::cpu::CpuSpec;
use mga_sim::openmp::thread_space;

fn main() {
    let opts = parse_opts();
    let source_cpu = CpuSpec::comet_lake();
    let target_cpu = CpuSpec::sandy_bridge_8c();

    let mut specs = openmp_thread_dataset();
    let mut sizes = openmp_input_sizes();
    if opts.quick {
        specs = specs.into_iter().step_by(3).collect();
        sizes = sizes.into_iter().step_by(5).collect();
    } else {
        sizes = sizes.into_iter().step_by(2).collect();
    }

    heading("Transfer learning across µ-architectures (§7 future work)");
    println!(
        "source: {} | target: {} | {} loops x {} inputs\n",
        source_cpu.name,
        target_cpu.name,
        specs.len(),
        sizes.len()
    );

    // Datasets on both machines (same loops, same sizes, same space shape).
    let src_ds = OmpDataset::build(
        specs.clone(),
        sizes.clone(),
        thread_space(&source_cpu),
        source_cpu.clone(),
        vec_dim(opts),
        opts.seed,
    );
    let tgt_ds = OmpDataset::build(
        specs,
        sizes,
        thread_space(&target_cpu),
        target_cpu.clone(),
        vec_dim(opts),
        opts.seed,
    );
    let src_task = OmpTask::new(&src_ds);
    let tgt_task = OmpTask::new(&tgt_ds);

    // Validation loops: one fold of the target dataset, never used for
    // any training below.
    let folds = kfold_by_group(&tgt_ds.groups(), 4, opts.seed.wrapping_add(3));
    let val = folds[0].val.clone();
    let train_pool = folds[0].train.clone();

    // Source model trained on ALL source-machine samples of the training
    // loops (the deployment scenario: the old machine's data is free).
    let src_data = src_task.train_data(&src_ds);
    let src_train: Vec<usize> = train_pool.clone();
    let cfg = model_cfg(opts, Modality::Multimodal, true);
    println!(
        "training the source model on {} Comet Lake samples ...",
        src_train.len()
    );
    let source_model = FusionModel::fit(
        cfg.clone(),
        &src_data,
        &src_train,
        &src_task.codec.head_sizes(),
    );

    // Target-side feature view (rescaled counters per §4.1.5).
    let rescaled_aux: Vec<Vec<f32>> = tgt_ds
        .samples
        .iter()
        .map(|s| portability_features(&s.counters, &source_cpu, &target_cpu))
        .collect();
    let rescaled_data = TrainData {
        graphs: &tgt_ds.graphs,
        vectors: &tgt_ds.vectors,
        sample_kernel: &tgt_task.sample_kernel,
        aux: &rescaled_aux,
        labels: &tgt_task.labels,
    };
    let eval = |model: &FusionModel, data: &TrainData<'_>| -> (f64, f64) {
        let preds = model.predict(data, &val);
        let mut pairs = Vec::new();
        for (j, &i) in val.iter().enumerate() {
            let heads: Vec<usize> = preds.iter().map(|p| p[j]).collect();
            let cfg_idx = tgt_task.codec.decode(&heads);
            let s = &tgt_ds.samples[i];
            pairs.push(SpeedupPair {
                achieved: tgt_ds.achieved_speedup(s, cfg_idx),
                oracle: tgt_ds.oracle_speedup(s),
            });
        }
        let (a, o, _) = mga_core::metrics::summarize(&pairs);
        (a, o)
    };

    let (zero_a, oracle) = eval(&source_model, &rescaled_data);
    println!("\n{:<26} {:>12} {:>12}", "regime", "speedup", "normalized");
    println!(
        "{:<26} {:>11.3}x {:>12.3}",
        "zero-shot (rescaled)",
        zero_a,
        zero_a / oracle
    );

    // Budgets: K target loops' samples for fine-tuning / scratch.
    let loops_in_pool: Vec<usize> = {
        let mut l: Vec<usize> = train_pool
            .iter()
            .map(|&i| tgt_ds.samples[i].kernel)
            .collect();
        l.sort_unstable();
        l.dedup();
        l
    };
    let mut budgets = Vec::new();
    for &k_loops in &[2usize, 5, 10] {
        if k_loops > loops_in_pool.len() {
            continue;
        }
        let chosen: Vec<usize> = loops_in_pool.iter().copied().take(k_loops).collect();
        let subset: Vec<usize> = train_pool
            .iter()
            .copied()
            .filter(|&i| chosen.contains(&tgt_ds.samples[i].kernel))
            .collect();

        let mut warm = match mga_core::persist::load_model(&mga_core::persist::save_model(
            &source_model,
            tgt_ds.vectors[0].len(),
            5,
        )) {
            Ok(m) => m,
            Err(e) => {
                eprintln!("transfer_learning: model clone via checkpoint failed: {e}");
                std::process::exit(1);
            }
        };
        warm.fine_tune(&rescaled_data, &subset, cfg.epochs / 3, cfg.lr * 0.5);
        let (ft_a, _) = eval(&warm, &rescaled_data);

        let scratch = FusionModel::fit(
            cfg.clone(),
            &rescaled_data,
            &subset,
            &tgt_task.codec.head_sizes(),
        );
        let (sc_a, _) = eval(&scratch, &rescaled_data);

        println!(
            "{:<26} {:>11.3}x {:>12.3}   (scratch on same {} loops: {:.3}x / {:.3})",
            format!("fine-tuned ({k_loops} loops)"),
            ft_a,
            ft_a / oracle,
            k_loops,
            sc_a,
            sc_a / oracle
        );
        budgets.push((k_loops, ft_a, sc_a));
    }
    println!("{:<26} {:>11.3}x {:>12.3}", "oracle", oracle, 1.0);
    println!();
    let verb = |wins: bool| if wins { "beats" } else { "does not beat" };
    for (k_loops, ft_a, sc_a) in budgets {
        println!(
            "{k_loops} loops: fine-tuning {} zero-shot ({ft_a:.3}x vs {zero_a:.3}x) \
             and {} scratch ({ft_a:.3}x vs {sc_a:.3}x)",
            verb(ft_a > zero_a),
            verb(ft_a > sc_a)
        );
    }
}
