//! The serving workloads: `serve_hot` (every cache lookup hits) and
//! `devmap_churn` (a working set eight times the cache, so most lookups
//! miss and take the GNN + DAE slow path).

use std::time::Instant;

use mga_core::dataset::OclDataset;
use mga_core::devmap::DevmapTask;
use mga_core::model::{FusionModel, PreparedBatch, TrainData};
use mga_core::omp::OmpTask;
use mga_graph::ProGraph;
use mga_nn::pool;
use mga_serve::{Engine, Response, ServeConfig};
use mga_sim::gpu::GpuSpec;

use crate::hostspeed::{self, HostSpeed};
use crate::ledger::Ledger;
use crate::train::{model_cfg, thread_dataset, VEC_DIM};
use crate::{Args, Outcome, SplitMix, SESSION};

/// Requests submitted per logical tick, one per client. The next tick
/// starts when the engine's tick returns, so the load is a closed loop
/// paced by the engine.
const CLIENTS: usize = 4;
/// Kernels of the device-mapping catalog the churn traffic spans, and the
/// cache capacity it runs against.
const CHURN_KERNELS: usize = 64;
const CHURN_CACHE: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Traffic {
    Hot,
    Churn,
}

impl Traffic {
    /// Sessions measured per round, about a second of serving: a hit
    /// costs about a microsecond and a miss a sixth of a millisecond.
    fn round_sessions(self) -> usize {
        match self {
            Traffic::Hot => 8000,
            Traffic::Churn => 64,
        }
    }

    /// Bursts between host-speed probes: a whole session of hits (about
    /// 0.6 ms), or two bursts of misses (about 1.3 ms), so a probe costs a
    /// few percent of the time it covers.
    fn probe_every(self) -> usize {
        match self {
            Traffic::Hot => 32,
            Traffic::Churn => 2,
        }
    }
}

/// Everything a serving run owns: the kernel catalog, each sample's
/// request, the trained model and its batch predictions.
struct World {
    graphs: Vec<ProGraph>,
    vectors: Vec<Vec<f32>>,
    sample_kernel: Vec<usize>,
    aux: Vec<Vec<f32>>,
    model: FusionModel,
    /// Per sample, the class of each head from the model's batch pass.
    expect: Vec<Vec<usize>>,
    cfg: ServeConfig,
}

/// Fit on every sample and record the batch predictions the engine must
/// reproduce. Returns the model, the expected classes and the prepared
/// batch (for cache warming).
fn fit_and_predict(
    data: &TrainData<'_>,
    cfg: mga_core::ModelConfig,
    heads: &[usize],
) -> (FusionModel, Vec<Vec<usize>>, PreparedBatch) {
    let all: Vec<usize> = (0..data.num_samples()).collect();
    let model = FusionModel::fit(cfg, data, &all, heads);
    let prep = model.prepare(data, &all);
    let preds = model.predict_prepared(&prep);
    let expect = all
        .iter()
        .map(|&i| preds.iter().map(|head| head[i]).collect())
        .collect();
    (model, expect, prep)
}

impl World {
    /// Build the hot world: the quick thread dataset and model, with a
    /// cache large enough for every kernel. Also returns the prepared
    /// batch that warms it.
    fn hot(seed: u64) -> (World, Option<PreparedBatch>) {
        let ds = thread_dataset(seed);
        let task = OmpTask::new(&ds);
        let (model, expect, prep) = fit_and_predict(
            &task.train_data(&ds),
            model_cfg(seed, 25),
            &task.codec.head_sizes(),
        );
        let cfg = ServeConfig {
            max_batch: 8,
            max_wait_ticks: 2,
            cache_capacity: ds.graphs.len().max(1),
            ..ServeConfig::default()
        };
        let world = World {
            graphs: ds.graphs,
            vectors: ds.vectors,
            sample_kernel: task.sample_kernel,
            aux: task.aux,
            model,
            expect,
            cfg,
        };
        (world, Some(prep))
    }

    /// Build the churn world: CPU/GPU device mapping for the GTX 970
    /// over the first 64 kernels of the OpenCL catalog, served through
    /// an 8-entry cache that starts cold.
    fn churn(seed: u64) -> (World, Option<PreparedBatch>) {
        let mut specs = mga_kernels::catalog::opencl_catalog();
        specs.truncate(CHURN_KERNELS);
        let ds = OclDataset::build(specs, GpuSpec::gtx_970(), VEC_DIM, seed);
        let task = DevmapTask::new(&ds);
        let (model, expect, _) = fit_and_predict(&task.train_data(&ds), model_cfg(seed, 35), &[2]);
        let cfg = ServeConfig {
            max_batch: 8,
            max_wait_ticks: 2,
            cache_capacity: CHURN_CACHE,
            ..ServeConfig::default()
        };
        let world = World {
            graphs: ds.graphs,
            vectors: ds.vectors,
            sample_kernel: task.sample_kernel,
            aux: task.aux,
            model,
            expect,
            cfg,
        };
        (world, None)
    }

    fn engine(&self, warm: Option<&PreparedBatch>) -> Engine<'_> {
        let mut engine = Engine::new(&self.model, &self.graphs, &self.vectors, self.cfg.clone());
        if let Some(prep) = warm {
            engine.warm(prep);
        }
        engine
    }
}

/// Reusable buffers of one session.
struct Session {
    stream: Vec<usize>,
    submit_at: Vec<Instant>,
    probes: Vec<f64>,
    out: Vec<Response>,
    lat: Vec<f64>,
}

impl Session {
    fn new() -> Session {
        Session {
            stream: vec![0; SESSION],
            submit_at: vec![Instant::now(); SESSION],
            probes: Vec::new(),
            out: Vec::with_capacity(4 * CLIENTS),
            lat: Vec::with_capacity(SESSION),
        }
    }

    /// Draw the next `SESSION` requests (uniform over samples).
    fn draw(&mut self, rng: &mut SplitMix, samples: usize) {
        for s in &mut self.stream {
            *s = rng.below(samples);
        }
    }

    /// Serve the drawn stream through `engine`, probing the host's speed
    /// every `probe_every` bursts while the queue is empty, so no request
    /// waits through a probe. Returns how many requests were refused or
    /// answered wrongly. Latencies land in `self.lat`, probes in
    /// `self.probes`.
    fn serve(
        &mut self,
        engine: &mut Engine<'_>,
        world: &World,
        host: &mut HostSpeed,
        probe_every: usize,
    ) -> u64 {
        self.lat.clear();
        self.probes.clear();
        self.probes.push(host.probe());
        let mut failed = 0u64;
        let mut since_probe = 0;
        for burst in (0..self.stream.len()).step_by(CLIENTS) {
            if since_probe >= probe_every && engine.queue_depth() == 0 {
                self.probes.push(host.probe());
                since_probe = 0;
            }
            since_probe += 1;
            for id in burst..(burst + CLIENTS).min(self.stream.len()) {
                let s = self.stream[id];
                self.submit_at[id] = Instant::now();
                if engine
                    .submit_slice(id as u64, world.sample_kernel[s], &world.aux[s])
                    .is_err()
                {
                    failed += 1;
                }
            }
            engine.tick();
            failed += self.complete(engine, world);
        }
        while engine.queue_depth() > 0 {
            engine.tick();
            failed += self.complete(engine, world);
        }
        self.probes.push(host.probe());
        failed
    }

    fn complete(&mut self, engine: &mut Engine<'_>, world: &World) -> u64 {
        engine.drain(&mut self.out);
        let mut wrong = 0u64;
        for r in self.out.drain(..) {
            let id = r.id as usize;
            self.lat
                .push(self.submit_at[id].elapsed().as_nanos() as f64);
            if r.classes != world.expect[self.stream[id]] {
                wrong += 1;
            }
            engine.recycle(r);
        }
        wrong
    }
}

/// Each round sets up afresh, then serves the same request stream from
/// the new engine: every round does the same work.
pub fn run(args: &Args, traffic: Traffic) -> Outcome {
    let mut out = Outcome::default();
    let mut ledger = args.trace.then(Ledger::default);
    let mut checksums = Vec::new();
    let mut host = HostSpeed::new();
    while out.wants_round(args) {
        let before = host.probe();
        let t0 = Instant::now();
        let (world, prep) = match traffic {
            Traffic::Hot => World::hot(args.seed),
            Traffic::Churn => World::churn(args.seed),
        };
        let mut engine = world.engine(prep.as_ref());
        let setup = t0.elapsed().as_secs_f64();
        out.setup_s
            .push(setup * hostspeed::scale(before, host.probe()));
        checksums.push(world.model.param_checksum());

        let samples = world.sample_kernel.len();
        let every = traffic.probe_every();
        let (hits0, misses0, round_ns) = pool::inline_scope(|| {
            let mut rng = SplitMix::new(args.seed);
            let mut session = Session::new();
            session.draw(&mut rng, samples);
            // Warm-up.
            out.failed += session.serve(&mut engine, &world, &mut host, every);
            let (hits0, misses0, _) = engine.cache().stats();
            if let Some(l) = ledger.as_mut() {
                l.open();
            }
            let mut round_ns = 0f64;
            for _ in 0..traffic.round_sessions() {
                session.draw(&mut rng, samples);
                let probing_ns = host.spent_ns();
                let t = Instant::now();
                out.failed += session.serve(&mut engine, &world, &mut host, every);
                let wall_ns = t.elapsed().as_nanos() as f64 - (host.spent_ns() - probing_ns);
                round_ns += wall_ns;
                if session.lat.len() != SESSION {
                    out.problems.push(format!(
                        "a session answered {} of {SESSION} requests",
                        session.lat.len()
                    ));
                    break;
                }
                out.add_session(&mut session.lat, &session.probes, wall_ns);
            }
            if let Some(l) = ledger.as_mut() {
                l.close(round_ns, (traffic.round_sessions() * SESSION) as u64);
            }
            (hits0, misses0, round_ns)
        });
        let (hits, misses, _) = engine.cache().stats();
        let (hits, misses) = (hits - hits0, misses - misses0);
        eprintln!(
            "serve: {samples} samples over {} kernels, {}-entry cache: {hits} hits, {misses} misses, {:.3} s",
            world.graphs.len(),
            engine.cache().capacity(),
            round_ns / 1e9
        );
        // Each workload must exercise the cache path it was chosen for.
        match traffic {
            Traffic::Hot if misses > 0 => out
                .problems
                .push(format!("hot traffic missed the cache {misses} times")),
            Traffic::Churn if misses <= hits => out.problems.push(format!(
                "churn traffic hit the cache more often than it missed: {hits} vs {misses}"
            )),
            _ => {}
        }
    }
    if checksums.windows(2).any(|w| w[0] != w[1]) {
        out.problems
            .push(format!("set-ups trained different models: {checksums:x?}"));
    }
    out.layers = ledger.map_or_else(Vec::new, |l| l.metrics());
    out
}
