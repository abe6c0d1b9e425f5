//! Figure 5 — impact of static and dynamic features (thread prediction,
//! randomized 80/20 split).
//!
//! Red bars: static + dynamic features (MGA / IR2Vec / PROGRAML).
//! Green bars: static features only.
//! Blue bar: dynamic features (performance counters) only.
//! Yellow bars: ytopt / OpenTuner / BLISS.
//! Paper: 3.9× / 3.6× / 3.0× with both; 2.8× / 2.5× / 2.5× static-only;
//! 2.1× dynamic-only.

use mga_bench::{bar, geomean, heading, model_cfg, parse_opts, thread_dataset};
use mga_core::cv::{kfold_by_group, Fold};
use mga_core::model::Modality;
use mga_core::omp::{eval_model_fold, eval_tuner_fold, OmpTask};
use mga_tuners::{bliss::BlissLike, opentuner::OpenTunerLike, ytopt::YtoptLike};

fn main() {
    let opts = parse_opts();
    let ds = thread_dataset(opts);
    let task = OmpTask::new(&ds);

    // Randomized 80/20 split by loop (fold 0 of a 5-fold by group).
    let folds = kfold_by_group(&ds.groups(), 5, opts.seed.wrapping_add(99));
    let split: &Fold = &folds[0];

    heading("Figure 5: speedups with static/dynamic feature ablations (80/20 split)");
    let mut results: Vec<(String, f64)> = Vec::new();

    let model_runs = [
        ("MGA (static+dynamic)", Modality::Multimodal, true),
        ("IR2Vec (static+dynamic)", Modality::VectorOnly, true),
        ("PROGRAML (static+dynamic)", Modality::GraphOnly, true),
        ("MGA (static only)", Modality::Multimodal, false),
        ("IR2Vec (static only)", Modality::VectorOnly, false),
        ("PROGRAML (static only)", Modality::GraphOnly, false),
        ("dynamic only (counters)", Modality::AuxOnly, true),
    ];
    for (name, modality, use_aux) in model_runs {
        let cfg = model_cfg(opts, modality, use_aux);
        let e = eval_model_fold(&ds, &task, cfg, split);
        let ach: Vec<f64> = e.pairs.iter().map(|p| p.achieved).collect();
        results.push((name.to_string(), geomean(&ach)));
    }

    let tuner_makers: Vec<(&str, mga_tuners::TunerFactory)> = vec![
        ("ytopt", Box::new(|s| Box::new(YtoptLike::new(s)))),
        ("OpenTuner", Box::new(|s| Box::new(OpenTunerLike::new(s)))),
        ("BLISS", Box::new(|s| Box::new(BlissLike::new(s)))),
    ];
    for (name, mk) in &tuner_makers {
        let mut m = |seed: u64| mk(seed);
        let e = eval_tuner_fold(&ds, &mut m, 4, split);
        let ach: Vec<f64> = e.pairs.iter().map(|p| p.achieved).collect();
        results.push((name.to_string(), geomean(&ach)));
    }

    let max = results.iter().map(|(_, v)| *v).fold(f64::MIN, f64::max);
    for (name, v) in &results {
        println!("{}", bar(name, *v, max, 40));
    }

    let both = results[0].1;
    let static_only = results[3].1;
    let dyn_only = results[6].1;
    println!(
        "\nMGA: both {both:.2}x vs static-only {static_only:.2}x vs dynamic-only {dyn_only:.2}x \
         (paper: 3.9x / 2.8x / 2.1x)"
    );
    let (single_name, single) = if static_only >= dyn_only {
        ("static-only", static_only)
    } else {
        ("dynamic-only", dyn_only)
    };
    println!(
        "static+dynamic {} the better single modality, {single_name} ({both:.3}x vs {single:.3}x)",
        if both > single {
            "beats"
        } else {
            "does not beat"
        }
    );
}
