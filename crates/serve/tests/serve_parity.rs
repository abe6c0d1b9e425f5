//! Serving parity: the engine's predictions must be **bitwise identical**
//! to `FusionModel::predict`, for any request ordering, micro-batch
//! size, wait policy, cache state (cold / warmed / evicting) and thread
//! count. The guarantees are structural — shared matmul/bias kernels,
//! row-stable batching, one argmax comparator — and these tests pin
//! them end to end on a real trained model.

use std::sync::OnceLock;

use mga_core::cv::kfold_by_group;
use mga_core::dataset::OmpDataset;
use mga_core::model::{FusionModel, Modality, ModelConfig, TrainData};
use mga_core::omp::OmpTask;
use mga_dae::DaeConfig;
use mga_gnn::GnnConfig;
use mga_graph::ProGraph;
use mga_kernels::catalog::openmp_thread_dataset;
use mga_serve::{Engine, Request, Response, ServeConfig};
use mga_sim::cpu::CpuSpec;
use mga_sim::openmp::thread_space;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Ctx {
    ds: OmpDataset,
    task: OmpTask,
    model: FusionModel,
    /// `expected[i]` = per-head classes of `model.predict(&data, &[i])` —
    /// the sequential single-sample reference every serving path must hit.
    expected: Vec<Vec<usize>>,
}

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| {
        let specs: Vec<_> = openmp_thread_dataset().into_iter().step_by(4).collect();
        let cpu = CpuSpec::comet_lake();
        let sizes = vec![1e5, 1e7, 3e8];
        let ds = OmpDataset::build(specs, sizes, thread_space(&cpu), cpu, 16, 3);
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
        let data = task.train_data(&ds);
        let folds = kfold_by_group(&ds.groups(), 4, 2);
        let model = FusionModel::fit(cfg, &data, &folds[0].train, &task.codec.head_sizes());
        let expected: Vec<Vec<usize>> = (0..ds.samples.len())
            .map(|i| model.predict(&data, &[i]).iter().map(|p| p[0]).collect())
            .collect();
        Ctx {
            ds,
            task,
            model,
            expected,
        }
    })
}

fn train_data(c: &'static Ctx) -> TrainData<'static> {
    c.task.train_data(&c.ds)
}

fn request(data: &TrainData<'_>, i: usize) -> Request {
    Request {
        id: i as u64,
        kernel: data.sample_kernel[i],
        aux: data.aux[i].clone(),
    }
}

/// Run `idx` through the engine with a submit/tick interleave driven by
/// `rng`, returning responses sorted back into `idx` order by id.
fn serve_all(
    engine: &mut Engine<'_>,
    data: &TrainData<'_>,
    idx: &[usize],
    rng: &mut StdRng,
) -> Vec<Response> {
    let mut out = Vec::with_capacity(idx.len());
    for &i in idx {
        engine.submit(request(data, i)).expect("admit");
        if rng.gen_bool(0.4) {
            engine.tick();
        }
        engine.drain(&mut out);
    }
    for _ in 0..8 {
        engine.tick();
    }
    engine.flush();
    engine.drain(&mut out);
    out.sort_by_key(|r| r.id);
    out
}

/// Cold engine, single-request fast path: every sample's classes match
/// the sequential predict reference.
#[test]
fn serve_one_matches_sequential_predict() {
    let c = ctx();
    let data = train_data(c);
    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, ServeConfig::default());
    let nh = engine.plan().num_heads();
    let mut cls = vec![0usize; nh];
    for i in 0..c.ds.samples.len() {
        engine
            .serve_one(data.sample_kernel[i], &data.aux[i], &mut cls)
            .expect("serve");
        assert_eq!(cls, c.expected[i], "sample {i} diverged on serve_one");
    }
}

/// Cold engine, batched loop: micro-batched requests match the
/// sequential reference, every request is answered exactly once, and
/// batching actually happened.
#[test]
fn batched_engine_matches_sequential_predict() {
    let c = ctx();
    let data = train_data(c);
    let cfg = ServeConfig {
        max_batch: 5,
        max_wait_ticks: 2,
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, cfg);
    let idx: Vec<usize> = (0..c.ds.samples.len()).collect();
    let mut rng = StdRng::seed_from_u64(3);
    let responses = serve_all(&mut engine, &data, &idx, &mut rng);
    assert_eq!(responses.len(), idx.len(), "every request answered once");
    for (r, &i) in responses.iter().zip(&idx) {
        assert_eq!(r.id, i as u64);
        assert_eq!(r.classes, c.expected[i], "sample {i} diverged when batched");
        assert!(r.completed_tick >= r.enqueued_tick);
    }
}

/// Warming from a training `PreparedBatch` must not change a single
/// prediction, and warmed kernels must be served from cache.
#[test]
fn warm_cache_is_bitwise_identical_to_cold() {
    let c = ctx();
    let data = train_data(c);
    let idx: Vec<usize> = (0..c.ds.samples.len()).collect();
    let prep = c.model.prepare(&data, &idx);

    let mut warm = Engine::new(&c.model, data.graphs, data.vectors, ServeConfig::default());
    let inserted = warm.warm(&prep);
    assert_eq!(
        inserted,
        prep.kernels().len(),
        "all distinct kernels should warm"
    );

    let nh = warm.plan().num_heads();
    let mut cls = vec![0usize; nh];
    for &i in &idx {
        warm.serve_one(data.sample_kernel[i], &data.aux[i], &mut cls)
            .expect("serve");
        assert_eq!(cls, c.expected[i], "sample {i} diverged on warm cache");
    }
    let (hits, misses, _) = warm.cache().stats();
    assert_eq!(hits, idx.len() as u64, "warmed kernels must all hit");
    assert_eq!(misses, 0, "no slow-path compute after a full warm");
}

/// A kernel whose graph is empty warms like any other — its graph block
/// is zero whatever batch it was prepared in — and every sample serves
/// the classes `predict_prepared` gives on the batch that warmed it.
#[test]
fn empty_graph_kernel_warms_and_serves_like_predict() {
    let c = ctx();
    let data = train_data(c);
    let mut graphs = data.graphs.to_vec();
    graphs[data.sample_kernel[0]] = ProGraph::default();
    let data = TrainData {
        graphs: &graphs,
        ..data
    };
    let idx: Vec<usize> = (0..c.ds.samples.len()).collect();
    let prep = c.model.prepare(&data, &idx);
    let want = c.model.predict_prepared(&prep);

    let mut engine = Engine::new(&c.model, &graphs, data.vectors, ServeConfig::default());
    assert_eq!(
        engine.warm(&prep),
        prep.kernels().len(),
        "every kernel must warm"
    );
    let mut cls = vec![0usize; engine.plan().num_heads()];
    for (j, &i) in idx.iter().enumerate() {
        engine
            .serve_one(data.sample_kernel[i], &data.aux[i], &mut cls)
            .expect("serve");
        let expected: Vec<usize> = want.iter().map(|head| head[j]).collect();
        assert_eq!(cls, expected, "sample {i} diverged from predict_prepared");
    }
    let (_, misses, _) = engine.cache().stats();
    assert_eq!(misses, 0, "no slow-path compute after a full warm");
}

/// A NaN aux value and a short aux row go through one imputation rule
/// in `predict` and in the engine, so both give the same classes.
#[test]
fn imputed_aux_rows_serve_like_predict() {
    let c = ctx();
    let data = train_data(c);
    let mut aux = data.aux.to_vec();
    aux[0][0] = f32::NAN;
    aux[1].truncate(1);
    let data = TrainData { aux: &aux, ..data };
    let want = c.model.predict(&data, &[0, 1]);

    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, ServeConfig::default());
    assert!(
        aux[1].len() < engine.plan().aux_dim(),
        "row 1 must be short"
    );
    let mut cls = vec![0usize; engine.plan().num_heads()];
    for (j, i) in [0usize, 1].into_iter().enumerate() {
        engine
            .serve_one(data.sample_kernel[i], &aux[i], &mut cls)
            .expect("serve");
        let expected: Vec<usize> = want.iter().map(|head| head[j]).collect();
        assert_eq!(cls, expected, "sample {i} diverged from predict");
    }
}

/// A kernel absent from the warmed set (the paper's unseen-kernel
/// scenario) takes the slow path once — computing and caching its
/// embedding — and still predicts identically.
#[test]
fn unseen_kernel_slow_path_matches_and_caches() {
    let c = ctx();
    let data = train_data(c);
    // Warm from samples of every kernel except the held-out one.
    let held_out_kernel = data.sample_kernel[0];
    let warm_idx: Vec<usize> = (0..c.ds.samples.len())
        .filter(|&i| data.sample_kernel[i] != held_out_kernel)
        .collect();
    assert!(!warm_idx.is_empty());
    let prep = c.model.prepare(&data, &warm_idx);

    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, ServeConfig::default());
    engine.warm(&prep);
    assert!(engine.cache().peek(held_out_kernel).is_none());

    let nh = engine.plan().num_heads();
    let mut cls = vec![0usize; nh];
    engine
        .serve_one(held_out_kernel, &data.aux[0], &mut cls)
        .expect("serve");
    assert_eq!(cls, c.expected[0], "unseen kernel diverged on slow path");
    let (_, misses, _) = engine.cache().stats();
    assert_eq!(misses, 1, "exactly one slow-path compute");

    engine
        .serve_one(held_out_kernel, &data.aux[0], &mut cls)
        .expect("serve");
    assert_eq!(cls, c.expected[0]);
    let (hits, misses, _) = engine.cache().stats();
    assert_eq!((hits, misses), (1, 1), "second request must hit the cache");
}

/// A cache far smaller than the kernel set thrashes (every lookup
/// recomputes under LRU) yet stays bitwise-correct.
#[test]
fn evicting_cache_stays_correct() {
    let c = ctx();
    let data = train_data(c);
    let cfg = ServeConfig {
        max_batch: 3,
        max_wait_ticks: 1,
        cache_capacity: 2,
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, cfg);
    let idx: Vec<usize> = (0..c.ds.samples.len()).collect();
    let mut rng = StdRng::seed_from_u64(11);
    let responses = serve_all(&mut engine, &data, &idx, &mut rng);
    for (r, &i) in responses.iter().zip(&idx) {
        assert_eq!(
            r.classes, c.expected[i],
            "sample {i} diverged under eviction"
        );
    }
    let (_, _, evictions) = engine.cache().stats();
    assert!(evictions > 0, "a 2-slot cache over many kernels must evict");
}

/// Every modality serves the classes `predict` gives: each of the five
/// fits a small model, and every sample is served through a cold engine
/// whose cache is smaller than the catalog (batched, evicting) and
/// through a warmed one (every lookup a hit). This runs each static
/// block layout — graph readout, DAE code, raw vector, graph summary,
/// none — through the serving cache.
#[test]
fn every_modality_serves_like_predict() {
    let c = ctx();
    let data = train_data(c);
    let idx: Vec<usize> = (0..c.ds.samples.len()).collect();
    let kernels = data.graphs.len();
    for modality in [
        Modality::Multimodal,
        Modality::GraphOnly,
        Modality::VectorOnly,
        Modality::AuxOnly,
        Modality::EarlyFusion,
    ] {
        let cfg = ModelConfig {
            modality,
            epochs: 3,
            ..c.model.cfg.clone()
        };
        let model = FusionModel::fit(cfg, &data, &idx, &c.task.codec.head_sizes());
        let want = model.predict(&data, &idx);
        let expected = |j: usize| -> Vec<usize> { want.iter().map(|head| head[j]).collect() };

        let cold_cfg = ServeConfig {
            max_batch: 4,
            max_wait_ticks: 1,
            cache_capacity: kernels / 2,
            ..ServeConfig::default()
        };
        let mut cold = Engine::new(&model, data.graphs, data.vectors, cold_cfg);
        let mut rng = StdRng::seed_from_u64(7);
        let responses = serve_all(&mut cold, &data, &idx, &mut rng);
        assert_eq!(responses.len(), idx.len());
        for (r, j) in responses.iter().zip(0..) {
            assert_eq!(r.classes, expected(j), "{modality:?} cold: sample {j}");
        }
        assert!(
            cold.cache().stats().2 > 0,
            "{modality:?}: the cold cache must evict"
        );

        let mut warm = Engine::new(&model, data.graphs, data.vectors, ServeConfig::default());
        warm.warm(&model.prepare(&data, &idx));
        let mut cls = vec![0usize; warm.plan().num_heads()];
        for (j, &i) in idx.iter().enumerate() {
            warm.serve_one(data.sample_kernel[i], &data.aux[i], &mut cls)
                .expect("serve");
            assert_eq!(cls, expected(j), "{modality:?} warm: sample {i}");
        }
        assert_eq!(
            warm.cache().stats().1,
            0,
            "{modality:?}: a warmed engine never misses"
        );
    }
}

/// The logical-tick batching policy is deterministic: a full batch goes
/// out on the next tick, a partial batch waits exactly `max_wait_ticks`.
#[test]
fn batching_policy_is_tick_deterministic() {
    let c = ctx();
    let data = train_data(c);
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_ticks: 3,
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, cfg);

    // Partial batch: 2 requests at tick 0 wait until tick 3.
    engine.submit(request(&data, 0)).expect("admit");
    engine.submit(request(&data, 1)).expect("admit");
    assert_eq!(engine.tick(), 0, "tick 1: still waiting");
    assert_eq!(engine.tick(), 0, "tick 2: still waiting");
    assert_eq!(engine.tick(), 2, "tick 3: wait policy fires");
    assert_eq!(engine.queue_depth(), 0);

    // Full batch: 4 requests dispatch on the very next tick.
    for i in 0..4 {
        engine.submit(request(&data, i)).expect("admit");
    }
    assert_eq!(engine.tick(), 4, "full batch dispatches immediately");
}

/// After the first batch warms the scratch size classes, serving
/// allocates nothing: the arena recycles every buffer and recycled
/// responses cover the output side.
#[test]
fn steady_state_serving_allocates_zero_arena_bytes() {
    let c = ctx();
    let data = train_data(c);
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_ticks: 1,
        cache_capacity: 64,
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, cfg);
    let idx: Vec<usize> = (0..c.ds.samples.len()).collect();
    let prep = c.model.prepare(&data, &idx);
    engine.warm(&prep);

    let mut out = Vec::new();
    for round in 0..6 {
        for i in 0..4usize {
            engine
                .submit(request(&data, (round * 4 + i) % idx.len()))
                .expect("admit");
        }
        engine.tick();
        engine.flush();
        engine.drain(&mut out);
        for r in out.drain(..) {
            engine.recycle(r);
        }
    }
    assert_eq!(
        engine.steady_alloc_bytes(),
        0,
        "steady-state serving must not touch the allocator for scratch"
    );
    assert!(
        engine.arena_reuse() > 0,
        "scratch must cycle through the arena"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Any request ordering, any micro-batch size, any wait policy, warm
    /// or cold cache: responses are bitwise-identical to the sequential
    /// per-sample predict.
    #[test]
    fn randomized_serving_matches_predict(
        seed in 0u64..1000,
        max_batch in 1usize..7,
        max_wait_ticks in 0u64..4,
        warm_sel in 0u64..2,
    ) {
        let warm_first = warm_sel == 1;
        let c = ctx();
        let data = train_data(c);
        let cfg = ServeConfig { max_batch, max_wait_ticks, cache_capacity: 8, ..ServeConfig::default() };
        let mut engine = Engine::new(&c.model, data.graphs, data.vectors, cfg);

        let mut rng = StdRng::seed_from_u64(seed);
        let mut idx: Vec<usize> = (0..c.ds.samples.len()).collect();
        // Fisher–Yates with the seeded rng: a deterministic shuffle.
        for j in (1..idx.len()).rev() {
            idx.swap(j, rng.gen_range(0..=j));
        }
        idx.truncate(24.min(idx.len()));

        if warm_first {
            let prep = c.model.prepare(&data, &idx);
            engine.warm(&prep);
        }
        let responses = serve_all(&mut engine, &data, &idx, &mut rng);
        prop_assert_eq!(responses.len(), idx.len());
        for r in &responses {
            let i = r.id as usize;
            prop_assert_eq!(
                &r.classes,
                &c.expected[i],
                "sample {} diverged (batch {}, wait {}, warm {})",
                i, max_batch, max_wait_ticks, warm_first
            );
        }
    }
}

/// Serving checksum battery for the cross-thread-count parity check:
/// warm + cold engines over shuffled requests, folded into FNV sums.
fn battery() -> Vec<u64> {
    let c = ctx();
    let data = train_data(c);
    let mut sums = Vec::new();
    let mut push = |classes: &[usize]| {
        let mut h = 0xcbf29ce484222325u64;
        for &x in classes {
            h = (h ^ (x as u64)).wrapping_mul(0x100000001b3);
        }
        sums.push(h);
    };
    for (seed, warm) in [(1u64, false), (2, true)] {
        let cfg = ServeConfig {
            max_batch: 5,
            max_wait_ticks: 2,
            cache_capacity: 16,
            ..ServeConfig::default()
        };
        let mut engine = Engine::new(&c.model, data.graphs, data.vectors, cfg);
        let idx: Vec<usize> = (0..c.ds.samples.len()).collect();
        if warm {
            let prep = c.model.prepare(&data, &idx);
            engine.warm(&prep);
        }
        let mut rng = StdRng::seed_from_u64(seed);
        let responses = serve_all(&mut engine, &data, &idx, &mut rng);
        for r in &responses {
            push(&r.classes);
        }
    }
    // The reference itself is part of the checksum, so the training
    // forward pass is covered by the same cross-thread comparison.
    for e in &c.expected {
        push(e);
    }
    sums
}

/// The whole serving stack is bitwise-invariant across thread counts:
/// re-run the battery in child processes under `MGA_THREADS=1` and `=4`
/// (the pool reads the variable once per process) and compare checksums.
#[test]
fn serving_is_bitwise_identical_across_thread_counts() {
    const DUMP: &str = "MGA_SERVE_PARITY_DUMP";
    let sums = battery();
    if let Ok(path) = std::env::var(DUMP) {
        let text: Vec<String> = sums.iter().map(|s| s.to_string()).collect();
        std::fs::write(path, text.join("\n")).expect("write serve parity dump");
        return;
    }
    let exe = std::env::current_exe().expect("test binary path");
    for threads in ["1", "4"] {
        let dump = std::env::temp_dir().join(format!(
            "mga_serve_parity_{}_{threads}.txt",
            std::process::id()
        ));
        let status = std::process::Command::new(&exe)
            .args([
                "--exact",
                "serving_is_bitwise_identical_across_thread_counts",
                "--nocapture",
            ])
            .env("MGA_THREADS", threads)
            .env(DUMP, &dump)
            .status()
            .expect("spawn thread-count child");
        assert!(status.success(), "MGA_THREADS={threads} child run failed");
        let text = std::fs::read_to_string(&dump).expect("read serve parity dump");
        let _ = std::fs::remove_file(&dump);
        let child_sums: Vec<u64> = text.lines().map(|l| l.parse().unwrap()).collect();
        assert_eq!(
            sums, child_sums,
            "default and MGA_THREADS={threads} serving runs disagree bitwise"
        );
    }
}
