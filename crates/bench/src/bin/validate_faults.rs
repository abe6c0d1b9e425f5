//! Fault-injection validation harness.
//!
//! Arms each `MGA_FAULT` site in turn and asserts the corresponding
//! recovery path actually engages:
//!
//! * `grad:nan`   — guardrails catch the NaN, training rolls back, halves
//!   the learning rate and still converges;
//! * `pool:panic` — a worker panic surfaces with the failing chunk index
//!   and the pool stays usable;
//! * `ckpt:truncate` / `ckpt:bitflip` — corrupted checkpoints are
//!   rejected with a typed `Malformed` error, never a panic;
//! * `sample:empty` — an empty graph packed in a kernel's slot reads out
//!   as a zero graph embedding, the remaining modalities decide, and
//!   `model.degraded_graphs` counts it;
//! * resume — a run killed mid-training (simulated via an exhausted
//!   retry budget after a mid-run checkpoint) resumes bitwise identical
//!   to an uninterrupted run;
//! * determinism — with no fault armed, fault-tolerant training equals
//!   classic training exactly;
//! * `shard:crash` / `shard:stall` — a serving-cluster shard dies (or
//!   stalls) mid-stream; queued work is evacuated and rerouted, health
//!   flips, and every accepted request is still answered;
//! * `route:misdirect` — the router delivers to the wrong shard; the
//!   cluster absorbs it as a redirect, again with zero loss;
//! * `swap:corrupt` — a hot-swap candidate checkpoint is bit-flipped in
//!   transit; the swap is rejected with a typed error, the serving plan
//!   epoch never moves (instant rollback), and a clean retry succeeds.
//!
//! Exits nonzero if any scenario fails; CI runs this on every push.

use mga_core::cv::kfold_by_group;
use mga_core::model::{FitOptions, FusionModel, Modality, ModelConfig};
use mga_core::omp::OmpTask;
use mga_core::persist;
use mga_core::{GuardrailConfig, OmpDataset, TrainError};
use mga_dae::DaeConfig;
use mga_gnn::GnnConfig;
use mga_kernels::catalog::openmp_thread_dataset;
use mga_obs::fault;
use mga_obs::metrics;
use mga_serve::{load_candidate, Cluster, ClusterConfig, Health, Request, ServeConfig, SwapError};
use mga_sim::cpu::CpuSpec;
use mga_sim::openmp::thread_space;

struct Harness {
    failures: Vec<String>,
}

impl Harness {
    fn check(&mut self, scenario: &str, ok: bool, detail: String) {
        if ok {
            println!("PASS  {scenario}");
        } else {
            println!("FAIL  {scenario}: {detail}");
            self.failures.push(format!("{scenario}: {detail}"));
        }
    }
}

/// Mirror of the fault module's deterministic draw (documented in
/// `mga_obs::fault`), used to pick a seed whose first fire lands on a
/// chosen check ordinal.
fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E3779B97F4A7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

fn first_fire_ordinal(seed: u64, prob: f64, horizon: u64) -> Option<u64> {
    let threshold = (prob * u64::MAX as f64) as u64;
    (0..horizon)
        .find(|&n| splitmix64(seed.wrapping_mul(0x2545F4914F6CDD1D).wrapping_add(n)) <= threshold)
}

fn small_task() -> (OmpDataset, OmpTask, Vec<usize>, Vec<usize>) {
    let specs: Vec<_> = openmp_thread_dataset().into_iter().step_by(6).collect();
    let cpu = CpuSpec::comet_lake();
    let ds = OmpDataset::build(specs, vec![1e6, 1e8], thread_space(&cpu), cpu, 12, 4);
    let task = OmpTask::new(&ds);
    let folds = kfold_by_group(&ds.groups(), 3, 1);
    let (train, val) = (folds[0].train.clone(), folds[0].val.clone());
    (ds, task, train, val)
}

fn small_cfg(epochs: usize) -> ModelConfig {
    ModelConfig {
        modality: Modality::Multimodal,
        use_aux: true,
        gnn: GnnConfig {
            dim: 10,
            layers: 1,
            update: mga_gnn::UpdateKind::Gru,
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
        epochs,
        lr: 0.02,
        seed: 2,
    }
}

fn main() {
    mga_obs::init_from_env();
    // This harness drives injection itself; an inherited spec would
    // corrupt the scenarios.
    fault::clear();
    let mut h = Harness {
        failures: Vec::new(),
    };
    let (ds, task, train, val) = small_task();
    let data = task.train_data(&ds);
    let head_sizes = task.codec.head_sizes();
    let tmp = std::env::temp_dir().join("mga_validate_faults");
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("validate_faults: cannot create {tmp:?}: {e}");
        std::process::exit(1);
    }

    // --- Scenario 1: no faults — try_fit is exactly fit. ---
    let reference = FusionModel::fit(small_cfg(20), &data, &train, &head_sizes);
    let ref_preds = reference.predict(&data, &val);
    {
        let m = FusionModel::try_fit(
            small_cfg(20),
            &data,
            &train,
            &head_sizes,
            &FitOptions::default(),
        );
        match m {
            Ok(m) => h.check(
                "determinism: try_fit == fit (no faults)",
                m.predict(&data, &val) == ref_preds && m.final_loss == reference.final_loss,
                "guarded training diverged from classic training".into(),
            ),
            Err(e) => h.check(
                "determinism: try_fit == fit (no faults)",
                false,
                e.to_string(),
            ),
        }
    }

    // --- Scenario 2: grad:nan — guardrails recover and training
    // converges. ---
    {
        let before_fired = metrics::counter("fault.fired.grad").get();
        let before_rec = metrics::counter("health.recoveries").get();
        // ~10% of epochs poisoned; generous retry budget.
        fault::set_spec("grad:nan:0.1:11").expect("valid spec");
        let opts = FitOptions {
            guard: GuardrailConfig {
                max_retries: 16,
                snapshot_every: 3,
                ..GuardrailConfig::default()
            },
            ..FitOptions::default()
        };
        let res = FusionModel::try_fit(small_cfg(30), &data, &train, &head_sizes, &opts);
        fault::clear();
        let fired = metrics::counter("fault.fired.grad").get() - before_fired;
        let recovered = metrics::counter("health.recoveries").get() - before_rec;
        match res {
            Ok(m) => {
                h.check(
                    "grad:nan: fault fired and recovery engaged",
                    fired >= 1 && recovered >= 1,
                    format!("fired={fired} recoveries={recovered}"),
                );
                h.check(
                    "grad:nan: training still converges",
                    m.final_loss.is_finite() && m.final_loss < 5.0,
                    format!("final_loss={}", m.final_loss),
                );
            }
            Err(e) => {
                h.check("grad:nan: recovery", false, format!("training failed: {e}"));
            }
        }
    }

    // --- Scenario 3: pool:panic — panic carries the chunk index; the
    // pool survives. ---
    {
        let before = metrics::counter("pool.task_panics").get();
        fault::set_spec("pool:panic:1.0:3").expect("valid spec");
        let caught = std::panic::catch_unwind(|| {
            mga_nn::pool::parallel_for(64, |_i| {});
        });
        fault::clear();
        let msg = match &caught {
            Err(p) => p
                .downcast_ref::<String>()
                .cloned()
                .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                .unwrap_or_default(),
            Ok(()) => String::new(),
        };
        let panics = metrics::counter("pool.task_panics").get() - before;
        h.check(
            "pool:panic: panic reports failing chunk",
            caught.is_err() && msg.contains("chunk") && msg.contains("injected pool fault"),
            format!("caught={} msg={msg:?}", caught.is_err()),
        );
        h.check(
            "pool:panic: task_panics counted",
            panics >= 1,
            format!("pool.task_panics delta = {panics}"),
        );
        // The pool must drain cleanly and stay usable.
        let still_works = std::panic::catch_unwind(|| {
            let total = std::sync::atomic::AtomicU64::new(0);
            mga_nn::pool::parallel_for(128, |i| {
                total.fetch_add(i as u64, std::sync::atomic::Ordering::Relaxed);
            });
            total.load(std::sync::atomic::Ordering::Relaxed)
        });
        h.check(
            "pool:panic: pool usable afterwards",
            matches!(still_works, Ok(x) if x == (0..128u64).sum()),
            format!("{:?}", still_works.as_ref().ok()),
        );
    }

    // --- Scenario 4: ckpt corruption — typed rejection, no panic. ---
    for kind in ["truncate", "bitflip"] {
        let path = tmp.join(format!("corrupt_{kind}.ckpt"));
        let _ = std::fs::remove_file(&path);
        fault::set_spec(&format!("ckpt:{kind}:1.0:5")).expect("valid spec");
        let save = persist::save_checkpoint_to_file(&reference, 12, 5, None, &path);
        fault::clear();
        let loaded = persist::load_checkpoint_from_file(&path);
        h.check(
            &format!("ckpt:{kind}: corrupted checkpoint rejected as Malformed"),
            save.is_ok() && matches!(loaded, Err(persist::PersistError::Malformed(_))),
            format!("save={:?} load_ok={}", save.err(), loaded.is_ok()),
        );
        // Clean save/load round-trips once disarmed.
        let save2 = persist::save_checkpoint_to_file(&reference, 12, 5, None, &path);
        let reload = persist::load_from_file(&path);
        h.check(
            &format!("ckpt:{kind}: clean save/load after disarm"),
            save2.is_ok()
                && reload
                    .map(|m| m.predict(&data, &val) == ref_preds)
                    .unwrap_or(false),
            "reloaded model mismatched".into(),
        );
        let _ = std::fs::remove_file(&path);
    }

    // --- Scenario 5: sample:empty — an empty graph reads out as zeros. ---
    {
        let before = metrics::counter("model.degraded_graphs").get();
        fault::set_spec("sample:empty:0.5:9").expect("valid spec");
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            reference.predict(&data, &val)
        }));
        fault::clear();
        let degraded = metrics::counter("model.degraded_graphs").get() - before;
        let shape_ok = caught
            .as_ref()
            .map(|p| p.len() == ref_preds.len() && p[0].len() == val.len())
            .unwrap_or(false);
        h.check(
            "sample:empty: prediction survives degenerate graphs",
            shape_ok && degraded >= 1,
            format!("panicked={} degraded={degraded}", caught.is_err()),
        );
    }

    // --- Scenario 6: mid-training crash + resume is bitwise exact. ---
    {
        let path = tmp.join("resume.ckpt");
        let _ = std::fs::remove_file(&path);
        let epochs = 20usize;
        // Pick a fault seed whose first grad fire lands after the last
        // periodic checkpoint (epoch 14) but before the end of training,
        // so the "crash" interrupts a run that already checkpointed.
        let seed = (0..100_000u64)
            .find(|&s| matches!(first_fire_ordinal(s, 0.05, 64), Some(n) if (15..20).contains(&n)))
            .expect("a seed with first fire in epochs 15..20 exists");
        fault::set_spec(&format!("grad:nan:0.05:{seed}")).expect("valid spec");
        let opts = FitOptions {
            guard: GuardrailConfig {
                max_retries: 0, // crash on first fault, like a SIGKILL
                ..GuardrailConfig::default()
            },
            checkpoint: Some(&path),
            checkpoint_every: 7,
            resume: true,
        };
        let crashed = FusionModel::try_fit(small_cfg(epochs), &data, &train, &head_sizes, &opts);
        fault::clear();
        let interrupted = matches!(crashed, Err(TrainError::RetryBudgetExhausted { .. }));
        let ckpt_exists = path.exists();
        // Restart with identical options and no faults: must resume from
        // the epoch-14 checkpoint and finish identically to `reference`
        // (same config, trained uninterrupted).
        let before_resumes = metrics::counter("train.resumes").get();
        let resumed = FusionModel::try_fit(small_cfg(epochs), &data, &train, &head_sizes, &opts);
        let resumes = metrics::counter("train.resumes").get() - before_resumes;
        match resumed {
            Ok(m) => {
                h.check(
                    "resume: interrupted run left a checkpoint",
                    interrupted && ckpt_exists,
                    format!("interrupted={interrupted} ckpt_exists={ckpt_exists}"),
                );
                h.check(
                    "resume: continuation is bitwise identical",
                    resumes == 1
                        && m.predict(&data, &val) == ref_preds
                        && m.final_loss == reference.final_loss,
                    format!(
                        "resumes={resumes} final_loss {} vs {}",
                        m.final_loss, reference.final_loss
                    ),
                );
            }
            Err(e) => h.check("resume: continuation", false, format!("resume failed: {e}")),
        }
        let _ = std::fs::remove_file(&path);
    }

    // --- Scenario 7: serving cluster under shard crash / stall /
    // misdirect — every accepted request answered, no matter what. ---
    let cluster_cfg = || ClusterConfig {
        shards: 4,
        queue_capacity: 64,
        serve: ServeConfig {
            max_batch: 4,
            max_wait_ticks: 1,
            cache_capacity: 16,
            ..ServeConfig::default()
        },
        ..ClusterConfig::default()
    };
    // Drive a fixed submit/tick script; returns (submitted, cluster
    // accepted/answered totals, surviving shard count).
    let drive = |cluster: &mut Cluster<'_>, steps: usize| -> (u64, u64, u64, usize) {
        let mut out = Vec::new();
        let mut submitted = 0u64;
        for step in 0..steps {
            let i = val[step % val.len()];
            let req = Request {
                id: submitted,
                kernel: data.sample_kernel[i],
                aux: data.aux[i].clone(),
            };
            if cluster.submit(req, None).is_ok() {
                submitted += 1;
            }
            if step % 3 == 2 {
                cluster.tick();
                cluster.drain(&mut out);
            }
        }
        fault::clear(); // flush below must not keep injecting
        cluster.flush();
        cluster.drain(&mut out);
        let live = (0..cluster.shards())
            .filter(|&s| cluster.health(s) != Health::Down)
            .count();
        (
            submitted,
            cluster.accepted_total(),
            cluster.answered_total(),
            live,
        )
    };
    {
        let before = metrics::counter("fault.fired.shard").get();
        fault::set_spec("shard:crash:0.02:21").expect("valid spec");
        let mut cluster = Cluster::new(&reference, data.graphs, data.vectors, cluster_cfg());
        let (submitted, accepted, answered, live) = drive(&mut cluster, 96);
        let fired = metrics::counter("fault.fired.shard").get() - before;
        h.check(
            "shard:crash: fault fired and a shard went down",
            fired >= 1 && live < 4,
            format!("fired={fired} live={live}"),
        );
        h.check(
            "shard:crash: every accepted request answered",
            submitted == accepted && accepted == answered && answered > 0,
            format!("submitted={submitted} accepted={accepted} answered={answered}"),
        );
    }
    {
        let before = metrics::counter("fault.fired.shard").get();
        fault::set_spec("shard:stall:1.0:17").expect("valid spec");
        let mut cluster = Cluster::new(&reference, data.graphs, data.vectors, cluster_cfg());
        let (submitted, accepted, answered, live) = drive(&mut cluster, 48);
        let fired = metrics::counter("fault.fired.shard").get() - before;
        h.check(
            "shard:stall: stalls injected, shards survive",
            fired >= 1 && live == 4,
            format!("fired={fired} live={live}"),
        );
        h.check(
            "shard:stall: every accepted request answered",
            submitted == accepted && accepted == answered && answered > 0,
            format!("submitted={submitted} accepted={accepted} answered={answered}"),
        );
    }
    {
        let before_fired = metrics::counter("fault.fired.route").get();
        let before_redir = metrics::counter("serve.redirect_total").get();
        fault::set_spec("route:misdirect:1.0:13").expect("valid spec");
        let mut cluster = Cluster::new(&reference, data.graphs, data.vectors, cluster_cfg());
        let (submitted, accepted, answered, _) = drive(&mut cluster, 48);
        let fired = metrics::counter("fault.fired.route").get() - before_fired;
        let redirected = metrics::counter("serve.redirect_total").get() - before_redir;
        h.check(
            "route:misdirect: every request misdirected and redirected",
            fired == submitted && redirected == submitted,
            format!("submitted={submitted} fired={fired} redirected={redirected}"),
        );
        h.check(
            "route:misdirect: every accepted request answered",
            submitted == accepted && accepted == answered && answered > 0,
            format!("submitted={submitted} accepted={accepted} answered={answered}"),
        );
    }

    // --- Scenario 8: swap:corrupt — corrupted hot-swap candidate is
    // rejected, the plan epoch never moves, and a clean retry lands. ---
    {
        let v2 = FusionModel::fit(
            ModelConfig {
                seed: 7,
                ..small_cfg(12)
            },
            &data,
            &train,
            &head_sizes,
        );
        let path = tmp.join("swap_candidate.ckpt");
        let _ = std::fs::remove_file(&path);
        let saved = persist::save_checkpoint_to_file(&v2, 12, 5, None, &path);
        let mut cluster = Cluster::new(&reference, data.graphs, data.vectors, cluster_cfg());
        let before = metrics::counter("fault.fired.swap").get();
        fault::set_spec("swap:corrupt:1.0:5").expect("valid spec");
        let corrupted = load_candidate(&path);
        fault::clear();
        let fired = metrics::counter("fault.fired.swap").get() - before;
        h.check(
            "swap:corrupt: corrupted candidate rejected as Load error",
            saved.is_ok() && fired >= 1 && matches!(corrupted, Err(SwapError::Load(_))),
            format!("saved={:?} fired={fired}", saved.err()),
        );
        h.check(
            "swap:corrupt: plan epoch unmoved after rejection",
            cluster.engine(0).plan_epoch() == 0,
            format!("epoch={}", cluster.engine(0).plan_epoch()),
        );
        let clean = load_candidate(&path);
        let swapped = clean.as_ref().map(|m| cluster.swap(0, m)).ok();
        h.check(
            "swap:corrupt: clean retry swaps and bumps the epoch",
            matches!(swapped, Some(Ok(()))) && cluster.engine(0).plan_epoch() == 1,
            format!(
                "load_ok={} epoch={}",
                clean.is_ok(),
                cluster.engine(0).plan_epoch()
            ),
        );
        let _ = std::fs::remove_file(&path);
    }

    // --- Every site must have fired at least once over the run. ---
    for site in ["grad", "pool", "ckpt", "sample", "shard", "route", "swap"] {
        let n = metrics::counter(match site {
            "grad" => "fault.fired.grad",
            "pool" => "fault.fired.pool",
            "ckpt" => "fault.fired.ckpt",
            "sample" => "fault.fired.sample",
            "shard" => "fault.fired.shard",
            "route" => "fault.fired.route",
            _ => "fault.fired.swap",
        })
        .get();
        h.check(
            &format!("coverage: site `{site}` fired"),
            n >= 1,
            format!("fault.fired.{site} = {n}"),
        );
    }

    println!();
    if h.failures.is_empty() {
        println!("validate_faults: all scenarios passed");
    } else {
        println!("validate_faults: {} scenario(s) FAILED", h.failures.len());
        for f in &h.failures {
            println!("  - {f}");
        }
        std::process::exit(1);
    }
}
