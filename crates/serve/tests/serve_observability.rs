//! Serving observability contracts: telemetry must observe without
//! perturbing. These tests hold the flight recorder, latency histograms
//! and drift monitors to the three promises `DESIGN.md` makes — bitwise
//! neutrality (no served byte changes with telemetry on/off), zero
//! steady-state allocation with the recorder always on, and
//! deterministic drift triggers (exact tick, replayable).

use std::sync::{Mutex, MutexGuard, OnceLock};

use mga_core::cv::kfold_by_group;
use mga_core::dataset::OmpDataset;
use mga_core::model::{FusionModel, Modality, ModelConfig, TrainData};
use mga_core::omp::OmpTask;
use mga_dae::DaeConfig;
use mga_gnn::GnnConfig;
use mga_kernels::catalog::openmp_thread_dataset;
use mga_obs::drift::{DriftConfig, DriftKind};
use mga_obs::metrics;
use mga_serve::flight::FLIGHT_CAPACITY;
use mga_serve::{Engine, FlightRecorder, Response, ServeConfig};
use mga_sim::cpu::CpuSpec;
use mga_sim::openmp::thread_space;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

struct Ctx {
    ds: OmpDataset,
    task: OmpTask,
    model: FusionModel,
}

fn ctx() -> &'static Ctx {
    static CTX: OnceLock<Ctx> = OnceLock::new();
    CTX.get_or_init(|| {
        let specs: Vec<_> = openmp_thread_dataset().into_iter().step_by(4).collect();
        let cpu = CpuSpec::comet_lake();
        let sizes = vec![1e5, 1e7];
        let ds = OmpDataset::build(specs, sizes, thread_space(&cpu), cpu, 16, 3);
        let task = OmpTask::new(&ds);
        let cfg = ModelConfig {
            modality: Modality::Multimodal,
            use_aux: true,
            gnn: GnnConfig {
                dim: 10,
                layers: 1,
                update: mga_gnn::UpdateKind::Gru,
                homogeneous: false,
            },
            dae: DaeConfig {
                input_dim: 16,
                hidden_dim: 10,
                code_dim: 5,
                epochs: 10,
                ..DaeConfig::default()
            },
            hidden: 20,
            epochs: 12,
            lr: 0.02,
            seed: 11,
        };
        let data = task.train_data(&ds);
        let folds = kfold_by_group(&ds.groups(), 4, 2);
        let model = FusionModel::fit(cfg, &data, &folds[0].train, &task.codec.head_sizes());
        Ctx { ds, task, model }
    })
}

fn train_data(c: &'static Ctx) -> TrainData<'static> {
    c.task.train_data(&c.ds)
}

/// Engine telemetry writes process-global metrics (gauges, histogram
/// counts); tests that assert on those must not interleave with other
/// engine-running tests in this binary.
fn engine_lock() -> MutexGuard<'static, ()> {
    static LOCK: OnceLock<Mutex<()>> = OnceLock::new();
    LOCK.get_or_init(|| Mutex::new(()))
        .lock()
        .unwrap_or_else(|e| e.into_inner())
}

/// Submit sample `i` as request `i`.
fn submit(engine: &mut Engine<'_>, data: &TrainData<'_>, i: usize) {
    engine
        .submit_slice(i as u64, data.sample_kernel[i], &data.aux[i])
        .expect("admit");
}

/// FNV-1a over every observable byte of a response stream.
fn checksum(responses: &[Response]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in responses {
        eat(r.id);
        eat(r.enqueued_tick);
        eat(r.completed_tick);
        for &c in &r.classes {
            eat(c as u64);
        }
    }
    h
}

/// Serve a seeded submit/tick script and return the responses in id
/// order.
fn run_script(engine: &mut Engine<'_>, data: &TrainData<'_>, seed: u64) -> Vec<Response> {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = data.sample_kernel.len();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        submit(engine, data, i);
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

/// Telemetry on vs off: identical batches, identical ticks, identical
/// classes — the recorder, histograms and drift monitors observe the
/// serving path without perturbing a single byte of it.
#[test]
fn telemetry_is_bitwise_neutral() {
    let _g = engine_lock();
    let c = ctx();
    let data = train_data(c);
    let mut sums = Vec::new();
    for telemetry in [true, false] {
        let cfg = ServeConfig {
            max_batch: 5,
            max_wait_ticks: 2,
            cache_capacity: 4, // force evictions/misses under telemetry too
            telemetry,
            ..ServeConfig::default()
        };
        let mut engine = Engine::new(&c.model, data.graphs, data.vectors, cfg);
        let responses = run_script(&mut engine, &data, 0xabc);
        assert_eq!(responses.len(), data.sample_kernel.len());
        sums.push(checksum(&responses));
        // The fast path too: same classes either mode.
        let nh = engine.plan().num_heads();
        let mut cls = vec![0usize; nh];
        let mut fast = 0xcbf2_9ce4_8422_2325u64;
        for i in 0..data.sample_kernel.len() {
            engine
                .serve_one(data.sample_kernel[i], &data.aux[i], &mut cls)
                .expect("serve");
            for &cl in &cls {
                fast ^= cl as u64;
                fast = fast.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        sums.push(fast);
    }
    assert_eq!(
        sums[0], sums[2],
        "batched responses must be bitwise identical with telemetry on/off"
    );
    assert_eq!(
        sums[1], sums[3],
        "serve_one classes must be bitwise identical with telemetry on/off"
    );
}

/// The flight recorder captures every served request — ids, batch
/// sizes, per-head classes agreeing with the responses — while the
/// steady state still allocates nothing.
#[test]
fn flight_records_match_responses_and_allocate_nothing() {
    let _g = engine_lock();
    let c = ctx();
    let data = train_data(c);
    let n = data.sample_kernel.len();
    assert!(n <= FLIGHT_CAPACITY, "the ring must hold every request");
    let cfg = ServeConfig {
        max_batch: 4,
        max_wait_ticks: 1,
        ..ServeConfig::default()
    };
    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, cfg);
    let e2e_before = metrics::log_histogram("serve.lat.e2e").snapshot();
    let responses = run_script(&mut engine, &data, 7);
    assert_eq!(
        engine.steady_alloc_bytes(),
        0,
        "recorder + histograms must not break the zero-alloc steady state"
    );
    assert_eq!(engine.flight().total(), n as u64);
    assert_eq!(engine.flight().len(), n);
    let nh = engine.plan().num_heads();
    for rec in engine.flight().iter() {
        let resp = &responses[rec.id as usize];
        assert_eq!(rec.num_heads as usize, nh);
        assert!(rec.batch >= 1 && rec.batch as usize <= 4);
        assert!(rec.served_tick >= rec.submit_tick);
        assert_eq!(
            rec.queue_ticks as u64,
            rec.served_tick - rec.submit_tick,
            "queue ticks must be the submit→served gap"
        );
        assert_eq!(rec.submit_tick, resp.enqueued_tick);
        assert_eq!(rec.served_tick, resp.completed_tick);
        let classes: Vec<usize> = rec.classes[..nh].iter().map(|&c| c as usize).collect();
        assert_eq!(classes, resp.classes, "record {} classes", rec.id);
        assert!((0.5..=1.0).contains(&rec.confidence));
    }
    // The engine-side e2e histogram saw exactly the served requests.
    let e2e = metrics::log_histogram("serve.lat.e2e")
        .snapshot()
        .diff(&e2e_before);
    assert_eq!(e2e.count, n as u64);
    assert!(e2e.percentile(50.0) > 0, "latencies were actually measured");
}

/// The queue-depth gauge tracks submissions and drains on flush — the
/// signal a load-shedding layer would watch.
#[test]
fn queue_depth_gauge_follows_the_queue() {
    let _g = engine_lock();
    let c = ctx();
    let data = train_data(c);
    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, ServeConfig::default());
    let read = || {
        metrics::snapshot()
            .into_iter()
            .find(|(n, _)| *n == "serve.queue_depth")
            .and_then(|(_, v)| match v {
                metrics::MetricValue::Gauge(g) => Some(g),
                _ => None,
            })
            .expect("gauge registered")
    };
    for i in 0..3 {
        submit(&mut engine, &data, i);
        assert_eq!(read(), (i + 1) as f64, "gauge updates on submit");
    }
    engine.flush();
    assert_eq!(read(), 0.0, "gauge drains on flush");
    assert_eq!(engine.queue_depth(), 0);
}

/// Counts and the pool's queue wait register as log₂ histograms: after
/// the context's fit and one served batch the registry holds the
/// serving batch widths, the training batch rows and micro-batch
/// widths, the pool's job sizes, and its queue wait in nanoseconds.
#[test]
fn count_metrics_are_log2_histograms() {
    let _g = engine_lock();
    let c = ctx();
    let data = train_data(c);
    let mut engine = Engine::new(&c.model, data.graphs, data.vectors, ServeConfig::default());
    for i in 0..3 {
        submit(&mut engine, &data, i);
    }
    engine.flush();
    let snap = metrics::snapshot();
    // `MGA_THREADS=1` leaves the pool without workers, so nothing waits.
    for (name, observed) in [
        ("serve.batch.size", true),
        ("train.batch_rows", true),
        ("train.microbatch.width", true),
        ("pool.job_chunks", true),
        ("pool.lat.queue_wait", false),
    ] {
        let value = snap.iter().find(|(n, _)| *n == name).map(|(_, v)| v);
        let Some(metrics::MetricValue::LogHist(h)) = value else {
            panic!("{name} must be a log₂ histogram, found {value:?}");
        };
        assert!(!observed || h.count > 0, "{name} has no observations");
    }
}

/// A scripted new-kernel storm fires the drift detector at an exactly
/// predictable tick: one request per tick, every kernel fresh, window of
/// 2 ticks, warmup of 1 window → the EWMA breaches on the boundary of
/// window 2, tick 4. Replaying the script reproduces the event
/// tick-for-tick.
#[test]
fn drift_replay_fires_at_exact_tick() {
    let _g = engine_lock();
    let c = ctx();
    let data = train_data(c);
    let kernels = data.graphs.len();
    assert!(kernels >= 6, "need distinct kernels for the storm");
    let run = || {
        let cfg = ServeConfig {
            max_batch: 8,
            max_wait_ticks: 1,
            drift: DriftConfig {
                window_ticks: 2,
                alpha: 1.0,
                warmup_windows: 1,
                max_new_kernel_rate: 0.5,
                max_cache_miss_rate: 2.0, // disabled: rates never exceed 2
                min_confidence: 0.0,      // disabled
            },
            ..ServeConfig::default()
        };
        let mut engine = Engine::new(&c.model, data.graphs, data.vectors, cfg);
        // One brand-new kernel per tick: sample index i picked so its
        // kernel id is i (catalog order), guaranteeing first-sight.
        for k in 0..6usize.min(kernels) {
            let i = data.sample_kernel.iter().position(|&sk| sk == k).unwrap();
            submit(&mut engine, &data, i);
            engine.tick();
        }
        engine.drift_events().to_vec()
    };
    let events = run();
    assert_eq!(events.len(), 1, "exactly one trigger: {events:?}");
    assert_eq!(events[0].kind, DriftKind::NewKernelRate);
    assert_eq!(events[0].tick, 4, "window 2 boundary (armed) is tick 4");
    assert!((events[0].value - 1.0).abs() < 1e-12, "every request new");
    // Determinism: the same script fires the same event at the same
    // tick.
    let replay = run();
    assert_eq!(replay.len(), 1);
    assert_eq!(replay[0].tick, events[0].tick);
    assert_eq!(replay[0].value, events[0].value);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Ring wraparound: after any push sequence the recorder holds the
    /// last `min(n, capacity)` records, oldest first, and `total` counts
    /// everything ever pushed.
    #[test]
    fn flight_ring_wraparound(cap in 0usize..33, n in 0usize..200) {
        let mut fr = FlightRecorder::new(cap);
        for id in 0..n as u64 {
            fr.push(mga_serve::FlightRecord { id, ..Default::default() });
        }
        prop_assert_eq!(fr.total(), n as u64);
        prop_assert_eq!(fr.len(), n.min(cap));
        let ids: Vec<u64> = fr.iter().map(|r| r.id).collect();
        let expect: Vec<u64> =
            (n.saturating_sub(n.min(cap)) as u64..n as u64).collect();
        prop_assert_eq!(ids, expect);
    }
}
