//! Cluster chaos suite: the three promises of `mga_serve::cluster`,
//! held under injected failure.
//!
//! 1. Every accepted request is answered — shard crashes evacuate and
//!    reroute, never drop.
//! 2. Every refusal is typed — queue-full, deadline, shard-down,
//!    unknown-kernel/head all come back as [`ServeError`] variants, and
//!    sheds and redirects are counted.
//! 3. Everything replays — a failure scenario (kill shard i at tick t;
//!    probabilistic MGA_FAULT crash/stall/misdirect scripts) re-run from
//!    scratch produces a bitwise-identical response checksum.
//!
//! Plus the routing property the cluster's cache locality rests on: a
//! consistent-hash ring moves only ~K/(N+1) of K keys when a shard is
//! added (proptest), and hot swaps install at an exact batch boundary
//! with validation-gated rollback (shape gate, non-finite weights,
//! health probe).
//!
//! Fault state (`mga_obs::fault`) is process-global, so every test in
//! this binary takes one shared lock — armed specs must never leak into
//! a concurrently running cluster.

use std::sync::{Mutex, MutexGuard, OnceLock};

use mga_core::cv::kfold_by_group;
use mga_core::dataset::OmpDataset;
use mga_core::model::{FusionModel, Modality, ModelConfig, TrainData};
use mga_core::omp::OmpTask;
use mga_core::persist;
use mga_dae::DaeConfig;
use mga_gnn::GnnConfig;
use mga_kernels::catalog::openmp_thread_dataset;
use mga_obs::fault;
use mga_serve::{
    load_candidate, Cluster, ClusterConfig, Health, Response, Router, ServeConfig, ServeError,
    SwapError,
};
use mga_sim::cpu::CpuSpec;
use mga_sim::openmp::thread_space;
use proptest::prelude::*;

fn lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

struct Ctx {
    ds: OmpDataset,
    task: OmpTask,
    /// The serving model (v1) and a same-shape retrain (v2) — the hot
    /// swap candidate.
    model: FusionModel,
    model_v2: FusionModel,
    /// A differently-shaped model (narrower trunk) the swap gate must
    /// reject.
    model_misfit: FusionModel,
    /// Per-sample reference classes under v1 / v2.
    expected: Vec<Vec<usize>>,
    expected_v2: Vec<Vec<usize>>,
}

fn fit(c: &ModelConfig, task: &OmpTask, ds: &OmpDataset) -> FusionModel {
    let data = task.train_data(ds);
    let folds = kfold_by_group(&ds.groups(), 4, 2);
    FusionModel::fit(c.clone(), &data, &folds[0].train, &task.codec.head_sizes())
}

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| {
        let specs: Vec<_> = openmp_thread_dataset().into_iter().step_by(4).collect();
        let cpu = CpuSpec::comet_lake();
        let ds = OmpDataset::build(specs, vec![1e5, 1e7, 3e8], thread_space(&cpu), cpu, 16, 3);
        let task = OmpTask::new(&ds);
        let cfg = ModelConfig {
            modality: Modality::Multimodal,
            use_aux: true,
            gnn: GnnConfig {
                dim: 12,
                layers: 1,
                update: mga_gnn::UpdateKind::Gru,
                homogeneous: false,
            },
            dae: DaeConfig {
                input_dim: 16,
                hidden_dim: 10,
                code_dim: 5,
                epochs: 15,
                ..DaeConfig::default()
            },
            hidden: 24,
            epochs: 20,
            lr: 0.02,
            seed: 5,
        };
        let model = fit(&cfg, &task, &ds);
        let model_v2 = fit(
            &ModelConfig {
                seed: 9,
                epochs: 24,
                ..cfg.clone()
            },
            &task,
            &ds,
        );
        let model_misfit = fit(
            &ModelConfig {
                hidden: 20,
                epochs: 2,
                ..cfg.clone()
            },
            &task,
            &ds,
        );
        let data = task.train_data(&ds);
        let classes_of = |m: &FusionModel| -> Vec<Vec<usize>> {
            (0..ds.samples.len())
                .map(|i| m.predict(&data, &[i]).iter().map(|p| p[0]).collect())
                .collect()
        };
        let expected = classes_of(&model);
        let expected_v2 = classes_of(&model_v2);
        Ctx {
            ds,
            task,
            model,
            model_v2,
            model_misfit,
            expected,
            expected_v2,
        }
    })
}

fn train_data(c: &'static Ctx) -> TrainData<'static> {
    c.task.train_data(&c.ds)
}

fn cluster_cfg(shards: usize, queue_capacity: usize) -> ClusterConfig {
    ClusterConfig {
        shards,
        queue_capacity,
        serve: ServeConfig {
            max_batch: 4,
            max_wait_ticks: 2,
            cache_capacity: 16,
            ..ServeConfig::default()
        },
    }
}

fn fnv(h: &mut u64, v: u64) {
    *h ^= v;
    *h = h.wrapping_mul(0x0000_0100_0000_01b3);
}

/// FNV-1a-32 of `bytes`: a checkpoint section's `crc=`.
fn fnv1a_32(bytes: &[u8]) -> u32 {
    bytes.iter().fold(0x811c_9dc5, |h, &b| {
        (h ^ b as u32).wrapping_mul(0x0100_0193)
    })
}

/// FNV-1a-64 of `bytes`: a checkpoint file's `[crc]` seal.
fn fnv1a_64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Outcome of one scripted chaos run.
struct RunResult {
    checksum: u64,
    accepted: u64,
    answered: u64,
    shed: u64,
    live_shards: usize,
}

/// Drive a fixed submit/tick script through a fresh 4-shard cluster,
/// optionally killing one shard at a given tick, and fold every
/// response (in drain order) into an FNV checksum. Each
/// response is also checked against the v1 sequential reference —
/// rerouting must change *where* a request is served, never *what* it
/// answers.
fn run_script(c: &'static Ctx, kill: Option<(usize, u64)>) -> RunResult {
    let data = train_data(c);
    let n = c.ds.samples.len();
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(4, 16));
    let mut out: Vec<Response> = Vec::new();
    let mut shed = 0u64;
    let mut checksum = 0xcbf2_9ce4_8422_2325u64;
    let mut check = |out: &mut Vec<Response>| {
        for r in out.drain(..) {
            let sample = (r.id as usize) % n;
            assert_eq!(
                r.classes, c.expected[sample],
                "response {} diverged from the sequential reference",
                r.id
            );
            fnv(&mut checksum, r.id);
            for &cl in &r.classes {
                fnv(&mut checksum, cl as u64);
            }
            fnv(&mut checksum, r.enqueued_tick);
            fnv(&mut checksum, r.completed_tick);
        }
    };
    let steps = 2 * n;
    for step in 0..steps {
        let i = step % n;
        match cluster.submit_slice(step as u64, data.sample_kernel[i], &data.aux[i], None) {
            Ok(_) => {}
            Err(_) => shed += 1,
        }
        if step % 3 == 2 {
            if let Some((shard, at)) = kill {
                if cluster.now() + 1 == at {
                    cluster.kill_shard(shard);
                }
            }
            cluster.tick();
            cluster.drain(&mut out);
            check(&mut out);
        }
    }
    cluster.flush();
    cluster.drain(&mut out);
    check(&mut out);
    let live_shards = (0..cluster.shards())
        .filter(|&s| cluster.health(s) != Health::Down)
        .count();
    RunResult {
        checksum,
        accepted: cluster.accepted_total(),
        answered: cluster.answered_total(),
        shed,
        live_shards,
    }
}

/// Kill shard 1 at tick 4 mid-stream: nothing accepted is lost, every
/// response matches the no-failure reference classes, and replaying the
/// identical script gives a bitwise-identical checksum.
#[test]
fn kill_shard_reroutes_without_losing_a_request_and_replays_bitwise() {
    let _g = lock();
    let baseline = run_script(ctx(), None);
    assert_eq!(
        baseline.accepted, baseline.answered,
        "no-failure run answers everything"
    );
    assert_eq!(
        baseline.shed, 0,
        "no-failure run sheds nothing at capacity 16"
    );

    let a = run_script(ctx(), Some((1, 4)));
    let b = run_script(ctx(), Some((1, 4)));
    assert_eq!(
        a.checksum, b.checksum,
        "chaos replay must be bitwise identical"
    );
    assert_eq!(a.accepted, b.accepted);
    assert_eq!(a.shed, b.shed);
    assert_eq!(a.live_shards, 3, "exactly one shard was killed");
    assert_eq!(
        a.accepted, a.answered,
        "every accepted request is answered despite the crash"
    );
    assert_ne!(
        a.checksum, baseline.checksum,
        "the kill visibly changed scheduling (ticks differ), yet answers stayed correct"
    );
}

/// Probabilistic MGA_FAULT scripts (crash, stall, misdirect) replay
/// bitwise and never lose an accepted request; the corrupt-swap site
/// rejects a candidate checkpoint with a typed error and serving state
/// is untouched. One test function: fault state is process-global.
#[test]
fn fault_injected_scenarios_replay_and_never_lose_requests() {
    let _g = lock();
    let c = ctx();

    // shard:crash — low probability so survivors remain; shard:stall —
    // freezes dispatch windows; route:misdirect — wrong-shard admissions
    // (correctness unaffected: every shard serves the full catalog).
    for spec in [
        "shard:crash:0.004:3",
        "shard:stall:0.05:11",
        "route:misdirect:0.3:13",
    ] {
        let run = |spec: &str| {
            fault::set_spec(spec).expect("valid spec");
            let r = run_script(c, None);
            fault::clear();
            r
        };
        let a = run(spec);
        let b = run(spec);
        assert_eq!(
            a.checksum, b.checksum,
            "{spec}: replay must be bitwise identical"
        );
        assert!(a.live_shards >= 1, "{spec}: scenario must leave a survivor");
        assert_eq!(
            a.accepted, a.answered,
            "{spec}: every accepted request is answered"
        );
    }

    // Misdirect must actually misdirect: every admission is a redirect.
    let before = mga_obs::metrics::counter("serve.redirect_total").get();
    fault::set_spec("route:misdirect:1.0:7").expect("valid spec");
    let data = train_data(c);
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(4, 16));
    for i in 0..8usize {
        cluster
            .submit_slice(i as u64, data.sample_kernel[i], &data.aux[i], None)
            .expect("admitted despite misdirect");
    }
    fault::clear();
    assert_eq!(
        mga_obs::metrics::counter("serve.redirect_total").get(),
        before + 8,
        "every misdirected admission counts as one redirect"
    );
    cluster.flush();
    cluster.drain(&mut Vec::new());
    assert_eq!(cluster.accepted_total(), cluster.answered_total());

    // swap:corrupt — a bit-flipped candidate checkpoint is a typed load
    // rejection; with the fault cleared the same file loads fine.
    let path = std::env::temp_dir().join(format!("mga_chaos_swap_{}.ckpt", std::process::id()));
    let aux_dim = data.aux[0].len();
    persist::save_checkpoint_to_file(&c.model_v2, 16, aux_dim, None, &path).expect("clean save");
    fault::set_spec("swap:corrupt:1.0:5").expect("valid spec");
    let fired_before = mga_obs::metrics::counter("fault.fired.swap").get();
    match load_candidate(&path) {
        Err(SwapError::Load(e)) => drop(e),
        Err(other) => panic!("corrupt candidate must be a load rejection, got {other}"),
        Ok(_) => panic!("corrupt candidate must not load"),
    }
    assert_eq!(
        mga_obs::metrics::counter("fault.fired.swap").get(),
        fired_before + 1,
        "the swap fault site fired"
    );
    fault::clear();
    let candidate = load_candidate(&path).expect("clean candidate loads");
    std::fs::remove_file(&path).ok();
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(2, 16));
    cluster
        .swap(0, &candidate)
        .expect("validated candidate installs");
    assert_eq!(
        cluster.engine(0).plan_epoch(),
        1,
        "swap installed on an idle shard"
    );
}

/// Hot swap on a loaded shard: queued requests finish on the old plan,
/// post-swap admissions on the new plan, the install lands exactly at
/// the drain boundary, and a rejected candidate (shape mismatch, bad
/// shard index) changes nothing.
#[test]
fn hot_swap_is_zero_drop_and_rolls_back_on_rejection() {
    let _g = lock();
    let c = ctx();
    let data = train_data(c);
    let n = c.ds.samples.len();
    // One shard: every kernel routes to it, so the swap boundary is the
    // whole queue.
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(1, 64));
    for i in 0..6usize {
        cluster
            .submit_slice(i as u64, data.sample_kernel[i % n], &data.aux[i % n], None)
            .expect("admit");
    }
    assert_eq!(cluster.queue_depth(0), 6);

    // Rejected candidates first: wrong shape, wrong shard. No effect.
    match cluster.swap(0, &c.model_misfit) {
        Err(SwapError::Shape { field, .. }) => assert_eq!(field, "hidden"),
        other => panic!("misfit candidate must fail the shape gate, got {other:?}"),
    }
    match cluster.swap(9, &c.model_v2) {
        Err(SwapError::NoSuchShard {
            shard: 9,
            shards: 1,
        }) => {}
        other => panic!("bad shard index must be typed, got {other:?}"),
    }
    assert_eq!(
        cluster.engine(0).plan_epoch(),
        0,
        "rejections change nothing"
    );
    assert!(!cluster.engine(0).swap_pending());

    // Stage the real candidate: the 6 queued requests still belong to
    // the old plan; 4 more admissions arrive behind the boundary.
    cluster
        .swap(0, &c.model_v2)
        .expect("valid candidate stages");
    assert!(
        cluster.engine(0).swap_pending(),
        "install waits for the backlog"
    );
    for i in 6..10usize {
        cluster
            .submit_slice(i as u64, data.sample_kernel[i % n], &data.aux[i % n], None)
            .expect("admit");
    }
    cluster.flush();
    let mut out = Vec::new();
    cluster.drain(&mut out);
    assert_eq!(out.len(), 10, "zero-drop: all 10 requests answered");
    assert_eq!(cluster.engine(0).plan_epoch(), 1, "exactly one install");
    assert!(!cluster.engine(0).swap_pending());
    out.sort_by_key(|r| r.id);
    for r in &out {
        let sample = (r.id as usize) % n;
        let (reference, plan) = if r.id < 6 {
            (&c.expected[sample], "old")
        } else {
            (&c.expected_v2[sample], "new")
        };
        assert_eq!(
            &r.classes, reference,
            "request {} must be served by the {} plan",
            r.id, plan
        );
    }
}

/// Only sealed checkpoints reach a swap: a v1 file, whose sections
/// carry no `crc=` and which has no `[crc]` seal, is a typed load
/// rejection, whatever bytes it holds.
#[test]
fn load_candidate_rejects_unsealed_v1_checkpoints() {
    let _g = lock();
    let c = ctx();
    let data = train_data(c);
    let v1: String = persist::save_model(&c.model_v2, 16, data.aux[0].len())
        .lines()
        .filter(|l| !l.starts_with("[crc] "))
        .map(|l| {
            let l = l.replace("mga-model v2", "mga-model v1");
            match l.find(" crc=") {
                Some(i) => format!("{}\n", &l[..i]),
                None => format!("{l}\n"),
            }
        })
        .collect();
    let path = std::env::temp_dir().join(format!("mga_chaos_v1_{}.ckpt", std::process::id()));
    std::fs::write(&path, v1).expect("write v1 candidate");
    let loaded = load_candidate(&path);
    std::fs::remove_file(&path).ok();
    match loaded {
        Err(SwapError::Load(_)) => {}
        Err(other) => panic!("a v1 candidate must be a load rejection, got {other}"),
        Ok(_) => panic!("a v1 candidate must not load"),
    }
}

/// A candidate whose trunk or head parameters are NaN is a typed probe
/// rejection, though one probe input alone would not expose it: ReLU
/// maps NaN to 0, the matmul skips weight rows that meet a zero input,
/// and head logits only feed the argmax.
#[test]
fn swap_rejects_candidates_with_non_finite_weights() {
    let _g = lock();
    let c = ctx();
    let data = train_data(c);
    // Poison one parameter line of a checkpoint text, then re-seal it the
    // way the writer does, so the NaNs pass the integrity checks and
    // reach the model: the section's FNV-1a-32 covers its payload lines,
    // each followed by `\n`; the file's FNV-1a-64 covers every byte
    // before the `[crc]` line.
    let saved = persist::save_model(&c.model, 16, data.aux[0].len());
    let poisoned: Vec<(&str, FusionModel)> = ["trunk.w", "trunk.b", "head0.w", "head0.b"]
        .into_iter()
        .map(|param| {
            let mut lines: Vec<String> = saved.lines().map(str::to_string).collect();
            let header = lines
                .iter()
                .position(|l| l.starts_with(&format!("[param] {param} ")))
                .expect("parameter section");
            let nans = vec!["7fc00000"; lines[header + 1].split_whitespace().count()].join(" ");
            let crc = fnv1a_32(format!("{nans}\n").as_bytes());
            let at = lines[header].find(" crc=").expect("section checksum");
            lines[header] = format!("{} crc={crc:08x}", &lines[header][..at]);
            lines[header + 1] = nans;
            let seal = lines
                .iter()
                .position(|l| l.starts_with("[crc] "))
                .expect("file seal");
            let body: String = lines[..seal].iter().map(|l| format!("{l}\n")).collect();
            let text = format!("{body}[crc] {:016x}\nend\n", fnv1a_64(body.as_bytes()));
            let model = persist::load_model(&text).expect("re-sealed text loads");
            (param, model)
        })
        .collect();
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(1, 16));
    for (param, candidate) in &poisoned {
        match cluster.swap(0, candidate) {
            Err(SwapError::Probe { .. }) => {}
            other => panic!("NaN {param} must fail the health probe, got {other:?}"),
        }
        assert_eq!(
            cluster.engine(0).plan_epoch(),
            0,
            "rejecting NaN {param} changes nothing"
        );
        assert!(!cluster.engine(0).swap_pending());
    }
}

/// Overload and malformed requests shed at the door with typed errors,
/// and the shed counter grows. Accepted work is still fully answered.
#[test]
fn typed_sheds_cover_queue_full_deadline_shard_down_and_unknowns() {
    let _g = lock();
    let c = ctx();
    let data = train_data(c);
    let n = c.ds.samples.len();
    let shed_before = mga_obs::metrics::counter("serve.shed_total").get();

    // Queue-full: 2 shards × capacity 2 admits exactly 4 without a tick
    // (redirects soak the overflow), then typed QueueFull.
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(2, 2));
    let mut admitted = 0;
    let mut queue_full = 0;
    for i in 0..6usize {
        match cluster.submit_slice(i as u64, data.sample_kernel[i % n], &data.aux[i % n], None) {
            Ok(_) => admitted += 1,
            Err(ServeError::QueueFull {
                depth, capacity, ..
            }) => {
                assert_eq!((depth, capacity), (2, 2));
                queue_full += 1;
            }
            Err(other) => panic!("expected QueueFull, got {other}"),
        }
    }
    assert_eq!((admitted, queue_full), (4, 2));
    cluster.flush();
    cluster.drain(&mut Vec::new());
    assert_eq!(cluster.accepted_total(), cluster.answered_total());

    // Deadline: an empty partial batch waits max_wait_ticks — a deadline
    // of "now" is unmeetable; "now + 10" is fine.
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(2, 16));
    match cluster.submit_slice(0, data.sample_kernel[0], &data.aux[0], Some(cluster.now())) {
        Err(ServeError::DeadlineExceeded {
            deadline_tick: 0,
            estimated_tick,
        }) => assert!(estimated_tick > 0),
        other => panic!("expected DeadlineExceeded, got {other:?}"),
    }
    cluster
        .submit_slice(
            1,
            data.sample_kernel[0],
            &data.aux[0],
            Some(cluster.now() + 10),
        )
        .expect("slack deadline admits");

    // Shard-down: a fully-dead cluster sheds with the owner named.
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(1, 16));
    cluster.kill_shard(0);
    assert_eq!(cluster.health(0), Health::Down);
    match cluster.submit_slice(0, data.sample_kernel[0], &data.aux[0], None) {
        Err(ServeError::ShardDown { shard: 0 }) => {}
        other => panic!("expected ShardDown, got {other:?}"),
    }

    // Unknown kernel (cluster and engine) and unknown task head.
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(2, 16));
    match cluster.submit_slice(0, data.graphs.len(), &data.aux[0], None) {
        Err(ServeError::UnknownKernel { kernel, catalog }) => {
            assert_eq!(kernel, catalog);
        }
        other => panic!("expected UnknownKernel, got {other:?}"),
    }
    let nh = cluster.engine(0).plan().num_heads();
    let mut wrong = vec![0usize; nh + 1];
    match cluster
        .engine_mut(0)
        .serve_one(data.sample_kernel[0], &data.aux[0], &mut wrong)
    {
        Err(ServeError::UnknownTaskHead { head, num_heads }) => {
            assert_eq!((head, num_heads), (nh + 1, nh));
        }
        other => panic!("expected UnknownTaskHead, got {other:?}"),
    }
    match cluster
        .engine_mut(0)
        .serve_one_head(data.sample_kernel[0], &data.aux[0], nh)
    {
        Err(ServeError::UnknownTaskHead { head, num_heads }) => {
            assert_eq!((head, num_heads), (nh, nh));
        }
        other => panic!("expected UnknownTaskHead, got {other:?}"),
    }
    let class = cluster
        .engine_mut(0)
        .serve_one_head(data.sample_kernel[0], &data.aux[0], 0)
        .expect("valid head serves");
    assert_eq!(class, c.expected[0][0]);

    assert!(
        mga_obs::metrics::counter("serve.shed_total").get() >= shed_before + 4,
        "sheds are counted"
    );
}

/// Health machinery: stalls degrade (and stretch deadline estimates),
/// recovery returns to healthy, crashes stay down, and the per-shard
/// gauges publish.
#[test]
fn stalls_degrade_then_recover_and_gauges_publish() {
    let _g = lock();
    let c = ctx();
    let data = train_data(c);
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(2, 16));
    cluster.stall_shard(0, 2);
    cluster
        .submit_slice(0, data.sample_kernel[0], &data.aux[0], None)
        .ok();
    cluster.tick();
    assert_eq!(
        cluster.health(0),
        Health::Degraded,
        "stalled shard degrades"
    );
    assert_eq!(cluster.health(1), Health::Healthy);
    cluster.tick();
    cluster.tick();
    assert_eq!(cluster.health(0), Health::Healthy, "stall expires");
    cluster.kill_shard(1);
    cluster.publish_metrics();
    assert_eq!(
        mga_obs::metrics::gauge("serve.shard.1.health").get(),
        2.0,
        "down shard publishes health=2"
    );
    assert_eq!(mga_obs::metrics::gauge("serve.cluster.shards").get(), 2.0);
    cluster.flush();
    cluster.drain(&mut Vec::new());
    assert_eq!(cluster.accepted_total(), cluster.answered_total());
}

/// The cluster layer preserves the engine's zero-alloc steady state:
/// after warmup, routing, admission and dispatch leave every shard
/// engine's scratch allocation where it was. The per-shard gauges
/// publish what the shards hold.
#[test]
fn cluster_steady_state_allocates_nothing_and_gauges_publish() {
    let _g = lock();
    let c = ctx();
    let data = train_data(c);
    let n = c.ds.samples.len();
    let mut cluster = Cluster::new(&c.model, data.graphs, data.vectors, cluster_cfg(2, 16));
    // Warmup: every kernel through once so caches fill and scratch
    // high-water marks are reached.
    for pass in 0..3u64 {
        for i in 0..n {
            cluster
                .submit_slice(
                    pass * n as u64 + i as u64,
                    data.sample_kernel[i],
                    &data.aux[i],
                    None,
                )
                .expect("admit");
            if i % 4 == 3 {
                cluster.tick();
            }
        }
        cluster.flush();
        cluster.drain(&mut Vec::new());
    }
    // Steady state: nothing past the prewarm may touch the allocator
    // inside the engines.
    let baseline: Vec<u64> = (0..cluster.shards())
        .map(|s| cluster.engine(s).steady_alloc_bytes())
        .collect();
    for i in 0..2 * n {
        cluster
            .submit_slice(
                1_000_000 + i as u64,
                data.sample_kernel[i % n],
                &data.aux[i % n],
                None,
            )
            .expect("admit");
        if i % 4 == 3 {
            cluster.tick();
        }
    }
    cluster.flush();
    cluster.drain(&mut Vec::new());
    for (s, &base) in baseline.iter().enumerate() {
        assert_eq!(
            cluster.engine(s).steady_alloc_bytes(),
            base,
            "shard {s} allocated scratch in the steady state"
        );
    }
    // Leave a backlog queued so the depth gauges carry real values.
    for i in 0..6usize {
        cluster
            .submit_slice(
                2_000_000 + i as u64,
                data.sample_kernel[i % n],
                &data.aux[i % n],
                None,
            )
            .expect("admit");
    }
    cluster.publish_metrics();
    let gauge = |s: usize, suffix: &str| {
        mga_obs::metrics::gauge_owned(format!("serve.shard.{s}.{suffix}")).get()
    };
    let mut queued = 0.0;
    for s in 0..cluster.shards() {
        assert_eq!(
            gauge(s, "queue_depth"),
            cluster.queue_depth(s) as f64,
            "shard {s} publishes its queue depth"
        );
        assert_eq!(gauge(s, "health"), 0.0, "shard {s} publishes healthy");
        assert_eq!(gauge(s, "plan_epoch"), 0.0, "shard {s} never swapped");
        queued += gauge(s, "queue_depth");
    }
    assert_eq!(queued, 6.0, "the backlog shows up in the shard gauges");
    cluster.flush();
    cluster.drain(&mut Vec::new());
    assert_eq!(cluster.accepted_total(), cluster.answered_total());
}

/// Environment matrix: the chaos script's checksum is invariant across
/// `MGA_THREADS` (pool size is latched per process, so each thread count
/// runs as a child process). One kill-at-tick scenario with a stall
/// fault armed.
#[test]
fn chaos_checksum_invariant_across_threads() {
    const DUMP: &str = "MGA_CLUSTER_CHAOS_DUMP";
    let compute = || {
        let _g = lock();
        fault::set_spec("shard:stall:0.05:11").expect("valid spec");
        let r = run_script(ctx(), Some((1, 4)));
        fault::clear();
        (r.checksum, r.accepted, r.shed)
    };
    if let Ok(path) = std::env::var(DUMP) {
        // Child: record and exit.
        let (sum, accepted, shed) = compute();
        std::fs::write(path, format!("{sum} {accepted} {shed}")).expect("write chaos dump");
        return;
    }
    let reference = compute();
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "4"] {
        let dump = std::env::temp_dir().join(format!(
            "mga_cluster_chaos_{}_{threads}.txt",
            std::process::id()
        ));
        let status = std::process::Command::new(&exe)
            .args([
                "--exact",
                "chaos_checksum_invariant_across_threads",
                "--nocapture",
            ])
            .env("MGA_THREADS", threads)
            .env(DUMP, &dump)
            .status()
            .expect("spawn chaos child");
        assert!(status.success(), "MGA_THREADS={threads} child run failed");
        let text = std::fs::read_to_string(&dump).expect("read chaos dump");
        let _ = std::fs::remove_file(&dump);
        let parts: Vec<u64> = text
            .split_whitespace()
            .map(|p| p.parse().unwrap())
            .collect();
        assert_eq!(
            (parts[0], parts[1], parts[2]),
            reference,
            "MGA_THREADS={threads} diverged bitwise from this process"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Consistent-hash stability: growing the ring from N to N+1 shards
    /// moves only ~K/(N+1) keys (within 2.2×), and every unmoved key
    /// keeps its exact shard — the property that makes scale-ups cheap
    /// for the embedding caches.
    #[test]
    fn ring_growth_moves_about_k_over_n_keys(
        shards in 1usize..8,
        keys in 128usize..768,
        salt in 0usize..1000,
    ) {
        let a = Router::new(shards, 64);
        let b = Router::new(shards + 1, 64);
        let moved = (0..keys)
            .filter(|&k| a.route(k + salt) != b.route(k + salt))
            .count();
        let expected = keys / (shards + 1);
        prop_assert!(
            moved <= (expected * 22).div_ceil(10) + 8,
            "adding shard {} moved {moved} of {keys} keys (expected ~{expected})",
            shards + 1
        );
        prop_assert!(moved > 0, "a new shard must take over some keys");
        // Removal is the mirror image: shrinking back moves the same keys.
        let back = (0..keys)
            .filter(|&k| b.route(k + salt) != a.route(k + salt))
            .count();
        prop_assert_eq!(moved, back);
    }
}
