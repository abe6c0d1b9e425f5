//! The batched serving loop.

use std::collections::VecDeque;
use std::io::{self, Write};

use mga_core::model::{FusionModel, PreparedBatch};
use mga_graph::ProGraph;
use mga_nn::arena::Arena;
use mga_obs::drift::{DriftConfig, DriftEvent, DriftMonitor, TickStats};
use mga_obs::hist::LogHistogram;
use mga_obs::metrics::{Counter, Gauge};
use mga_obs::{clock, metrics};

use crate::cache::EmbeddingCache;
use crate::error::ServeError;
use crate::flight::{
    drift_event_to_json, FlightRecord, FlightRecorder, FLIGHT_CAPACITY, MAX_FLIGHT_HEADS,
};
use crate::plan::InferencePlan;

/// Batching policy for the serving loop. Time is *logical*: the engine
/// never reads a wall clock on a **decision** path, so a given
/// submit/tick script always forms the same micro-batches — batching
/// decisions are replayable in tests and across machines. (With
/// telemetry on, the engine does read a cheap wall clock to *measure*
/// stage latencies; readings are observation-only and never feed
/// control flow.)
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Dispatch as soon as this many requests are queued.
    pub max_batch: usize,
    /// Dispatch a partial batch once its oldest request has waited this
    /// many ticks (0 = dispatch on the next tick).
    pub max_wait_ticks: u64,
    /// Static-embedding cache capacity (distinct kernels resident).
    pub cache_capacity: usize,
    /// Bounded intake: requests beyond this queue depth are refused with
    /// a typed [`ServeError::QueueFull`] instead of queueing without
    /// limit. `usize::MAX` (the default) keeps the standalone engine
    /// unbounded; the cluster always sets a real bound.
    pub queue_capacity: usize,
    /// Record per-request flight records, stage latency histograms and
    /// drift signals (default on; the recorder is allocation-free, so
    /// production leaves this enabled). Turning it off changes **no**
    /// served byte — `tests/serve_observability.rs` holds the engine to
    /// that.
    pub telemetry: bool,
    /// Drift-monitor tuning (windows, EWMA weight, thresholds).
    pub drift: DriftConfig,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            max_batch: 8,
            max_wait_ticks: 2,
            cache_capacity: 64,
            queue_capacity: usize::MAX,
            telemetry: true,
            drift: DriftConfig::default(),
        }
    }
}

/// Why a micro-batch was cut when it was. Carried on flight records and
/// the `serve.batch.mode.*` counters so tail-latency regressions can be
/// attributed to a batching decision, not guessed at.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchMode {
    /// The queue reached `max_batch` — dispatched at full width.
    Full,
    /// The oldest request aged out (`max_wait_ticks`).
    WaitTimer,
    /// Forced dispatch outside the tick policy (`flush`, shutdown, or a
    /// staged swap draining via a synchronous call).
    Flush,
}

impl BatchMode {
    pub fn tag(self) -> &'static str {
        match self {
            BatchMode::Full => "full",
            BatchMode::WaitTimer => "wait",
            BatchMode::Flush => "flush",
        }
    }
}

/// One inference request: which kernel, and its dynamic (auxiliary)
/// feature row as measured for this input.
#[derive(Debug, Clone)]
pub struct Request {
    pub id: u64,
    /// Kernel id — index into the engine's graph/vector catalog and the
    /// embedding-cache key.
    pub kernel: usize,
    /// Raw dynamic features; scaled (or imputed) by the plan.
    pub aux: Vec<f32>,
}

/// A completed request: the predicted class per head, plus the logical
/// ticks bounding its time in the engine (queue wait + service, in
/// ticks, is `completed_tick - enqueued_tick`).
#[derive(Debug, Clone)]
pub struct Response {
    pub id: u64,
    pub classes: Vec<usize>,
    pub enqueued_tick: u64,
    pub completed_tick: u64,
}

struct Pending {
    req: Request,
    enqueued_tick: u64,
    /// Wall nanoseconds at submit ([`clock::now_ns`]); 0 when telemetry
    /// is off. Measurement only — dispatch decisions never read it.
    submit_ns: u64,
}

/// Interned handles to every metric the per-request paths touch —
/// latency histograms, throughput counters, the queue-depth gauge.
/// Resolved once at engine construction so the hot path never takes the
/// registry lock (a mutex + map lookup per call would dwarf the work
/// being measured). Latency histogram values are nanoseconds.
struct HotMetrics {
    queue_wait: &'static LogHistogram,
    cache: &'static LogHistogram,
    scale: &'static LogHistogram,
    trunk: &'static LogHistogram,
    heads: &'static LogHistogram,
    e2e: &'static LogHistogram,
    requests: &'static Counter,
    batches: &'static Counter,
    batched_requests: &'static Counter,
    queue_depth: &'static Gauge,
    /// Chosen micro-batch widths (a count, not nanoseconds).
    batch_size: &'static LogHistogram,
    /// One counter per [`BatchMode`], indexed by discriminant.
    batch_mode: [&'static Counter; 3],
}

impl HotMetrics {
    fn new() -> HotMetrics {
        HotMetrics {
            queue_wait: metrics::log_histogram("serve.lat.queue_wait"),
            cache: metrics::log_histogram("serve.lat.cache_lookup"),
            scale: metrics::log_histogram("serve.lat.scale_aux"),
            trunk: metrics::log_histogram("serve.lat.trunk"),
            heads: metrics::log_histogram("serve.lat.heads"),
            e2e: metrics::log_histogram("serve.lat.e2e"),
            requests: metrics::counter("serve.requests"),
            batches: metrics::counter("serve.batches"),
            batched_requests: metrics::counter("serve.batched_requests"),
            queue_depth: metrics::gauge("serve.queue_depth"),
            batch_size: metrics::log_histogram("serve.batch.size"),
            batch_mode: [
                metrics::counter("serve.batch.mode.full"),
                metrics::counter("serve.batch.mode.wait"),
                metrics::counter("serve.batch.mode.flush"),
            ],
        }
    }

    #[inline]
    fn note_batch(&self, b: usize, mode: BatchMode) {
        self.batches.inc();
        self.batched_requests.add(b as u64);
        self.batch_size.observe(b as u64);
        self.batch_mode[mode as usize].inc();
    }
}

/// Fast algebraic squash of a decision margin into (0, 1):
/// `0.5 + 0.5·m/(1+|m|)`. Monotonic in the margin, 0.5 at zero margin,
/// ~1 for large margins — the shape the confidence drift detector
/// needs, without the `exp` a true sigmoid would spend on every
/// request. Margins are ≥ 0 (top-1 − top-2), so the result lives in
/// [0.5, 1).
#[inline]
fn margin_confidence(m: f32) -> f32 {
    0.5 + 0.5 * (m / (1.0 + m.abs()))
}

/// The serving engine: a frozen [`InferencePlan`], the per-kernel
/// [`EmbeddingCache`], and a deterministic micro-batching queue.
///
/// The hot path is allocation-free in the steady state: scratch matrices
/// cycle through an [`Arena`] (always sized for `max_batch`, so the
/// size classes never change), responses are recycled via
/// [`Engine::recycle`], and the cache's storage is fixed at
/// construction. Kernels the cache does not hold take a slow path that
/// computes their static embedding with the plan's model on first use
/// and caches it — the paper's unseen-kernel scenario (Fig. 6) costs
/// one GNN+DAE pass, then serves at cached speed.
///
/// With telemetry on (the default) the engine additionally maintains,
/// still without allocating:
///
/// * a [`FlightRecorder`] ring of the last [`FLIGHT_CAPACITY`] requests;
/// * log₂ latency histograms per stage (`serve.lat.queue_wait`,
///   `.cache_lookup`, `.scale_aux`, `.trunk`, `.heads`, `.e2e`) in the
///   process metrics registry;
/// * a [`DriftMonitor`] fed once per logical tick, whose events land in
///   a pre-allocated buffer ([`Engine::drift_events`]) and the
///   `drift.events*` counters.
///
/// Telemetry is observation-only: every served byte is bitwise
/// identical with it on or off.
pub struct Engine<'a> {
    plan: InferencePlan<'a>,
    cache: EmbeddingCache,
    /// Hot-swap staging: `staged` is the next plan, `old_pending` how
    /// many queued requests must still be served by the *current* plan
    /// before it installs. Zero-drop by construction: nothing is ever
    /// removed from the queue except by serving or [`Engine::evacuate`].
    staged: Option<InferencePlan<'a>>,
    old_pending: usize,
    /// Installed-plan generation (bumps once per completed swap).
    plan_epoch: u64,
    graphs: &'a [ProGraph],
    vectors: &'a [Vec<f32>],
    cfg: ServeConfig,
    tick: u64,
    queue: VecDeque<Pending>,
    completed: VecDeque<Response>,
    spare: Vec<Response>,
    /// Recycled aux buffers for [`Engine::submit_slice`], which copies
    /// each request's aux row into one instead of allocating a
    /// `Vec<f32>` per request, keeping steady-state intake
    /// allocation-free.
    spare_aux: Vec<Vec<f32>>,
    arena: Arena,
    /// Reusable class-decision buffer (`max_batch × num_heads`).
    cls: Vec<usize>,
    /// Reusable per-head decision margins (`max_batch × num_heads`).
    margins: Vec<f32>,
    /// Per-row cache-hit flags for the batch being dispatched.
    hits: Vec<bool>,
    /// Which catalog kernels have been served at least once (new-kernel
    /// drift signal).
    seen: Vec<bool>,
    flight: FlightRecorder,
    lat: HotMetrics,
    drift: DriftMonitor,
    /// Drift events buffered for [`Engine::drift_events`] / the flight
    /// dump; pre-allocated, overflow is counted in `drift_dropped`.
    drift_events: Vec<DriftEvent>,
    drift_dropped: u64,
    /// Telemetry accumulated since the last tick, fed to the drift
    /// monitor.
    stats: TickStats,
    /// Arena bytes after construction prewarm; anything above this was
    /// allocated post-warmup and is reported as `serve.steady_alloc_bytes`.
    alloc_baseline: u64,
}

impl<'a> Engine<'a> {
    /// Serve `model` through an [`InferencePlan`] over it and set up
    /// the serving state. `graphs` and `vectors` are the kernel catalog
    /// the slow path consults for cache misses (indexed by
    /// `Request::kernel`).
    pub fn new(
        model: &'a FusionModel,
        graphs: &'a [ProGraph],
        vectors: &'a [Vec<f32>],
        cfg: ServeConfig,
    ) -> Engine<'a> {
        assert!(cfg.max_batch > 0, "max_batch must be positive");
        let plan = InferencePlan::new(model);
        assert!(
            plan.num_heads() <= MAX_FLIGHT_HEADS,
            "flight records hold at most {MAX_FLIGHT_HEADS} heads"
        );
        let cache = EmbeddingCache::new(cfg.cache_capacity, plan.static_dim());
        let mut arena = Arena::new();
        // Prewarm every scratch size class (single-request and batch)
        // so the first dispatch already runs on recycled buffers and the
        // post-baseline allocation count stays at zero. Each path's
        // three buffers are taken *simultaneously* — sizes can collide
        // (e.g. `hidden == max_classes` makes the batch h and logits
        // buffers share a class), and a colliding class needs as many
        // free buffers as the path holds at once.
        let b = cfg.max_batch;
        for trio in [
            [b * plan.in_dim(), b * plan.hidden(), b * plan.max_classes()],
            [plan.in_dim(), plan.hidden(), plan.max_classes()],
        ] {
            let bufs = trio.map(|len| arena.take(len));
            for buf in bufs {
                arena.give(buf);
            }
        }
        let alloc_baseline = arena.alloc_bytes();
        let reserve = 4 * b + 64;
        let cls = vec![0usize; b * plan.num_heads()];
        let margins = vec![0.0f32; b * plan.num_heads()];
        if cfg.telemetry {
            // Pay the one-time clock calibration here, not inside the
            // first measured request.
            clock::init();
        }
        Engine {
            flight: FlightRecorder::new(if cfg.telemetry { FLIGHT_CAPACITY } else { 0 }),
            lat: HotMetrics::new(),
            drift: DriftMonitor::new(cfg.drift.clone()),
            drift_events: Vec::with_capacity(256),
            drift_dropped: 0,
            stats: TickStats::default(),
            plan,
            cache,
            staged: None,
            old_pending: 0,
            plan_epoch: 0,
            graphs,
            vectors,
            cfg,
            tick: 0,
            queue: VecDeque::with_capacity(reserve),
            completed: VecDeque::with_capacity(reserve),
            spare: Vec::with_capacity(reserve),
            spare_aux: Vec::with_capacity(reserve),
            arena,
            cls,
            margins,
            hits: vec![false; b],
            seen: vec![false; graphs.len()],
            alloc_baseline,
        }
    }

    /// The installed plan.
    pub fn plan(&self) -> &InferencePlan<'a> {
        &self.plan
    }

    /// The static-embedding cache (read-only; mutate via [`Engine::warm`]
    /// or by serving).
    pub fn cache(&self) -> &EmbeddingCache {
        &self.cache
    }

    /// Current logical tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Requests queued but not yet dispatched.
    pub fn queue_depth(&self) -> usize {
        self.queue.len()
    }

    /// The flight recorder (last [`FLIGHT_CAPACITY`] served requests).
    pub fn flight(&self) -> &FlightRecorder {
        &self.flight
    }

    /// Drift events fired so far (up to the buffer's capacity; see
    /// [`Engine::drift_events_dropped`]).
    pub fn drift_events(&self) -> &[DriftEvent] {
        &self.drift_events
    }

    /// Events dropped because the drift buffer was full (they still
    /// bumped the `drift.events*` counters).
    pub fn drift_events_dropped(&self) -> u64 {
        self.drift_dropped
    }

    /// The drift monitor (for EWMA / breach inspection).
    pub fn drift(&self) -> &DriftMonitor {
        &self.drift
    }

    /// Warm the cache with the static embedding of every distinct kernel
    /// of `prep`, computed from this engine's catalog in one
    /// [`FusionModel::static_embeddings`] pass, and return how many rows
    /// were inserted. Every row is cacheable: a kernel's row does not
    /// depend on the kernels it is computed with.
    pub fn warm(&mut self, prep: &PreparedBatch) -> usize {
        let kernels = prep.kernels();
        let graphs: Vec<&ProGraph> = kernels.iter().map(|&k| &self.graphs[k]).collect();
        let vectors: Vec<&[f32]> = kernels.iter().map(|&k| &self.vectors[k][..]).collect();
        let rows = self.plan.model().static_embeddings(&graphs, &vectors);
        for (r, &kernel) in kernels.iter().enumerate() {
            self.cache.insert(kernel, rows.row_slice(r));
        }
        kernels.len()
    }

    /// Enqueue request `id` for `kernel` with raw dynamic features
    /// `aux` at the current tick. No `Vec<f32>` is allocated: the aux
    /// row is copied into a recycled buffer from the engine's spare
    /// pool. Typed refusals, never a panic: an out-of-catalog kernel is
    /// [`ServeError::UnknownKernel`] (it would have no graph to compute
    /// an embedding from) and a full bounded queue is
    /// [`ServeError::QueueFull`] (the `shard` field is 0 for a
    /// standalone engine; the cluster does its own admission with real
    /// shard ids before this point).
    pub fn submit_slice(&mut self, id: u64, kernel: usize, aux: &[f32]) -> Result<(), ServeError> {
        if kernel >= self.graphs.len() {
            return Err(ServeError::UnknownKernel {
                kernel,
                catalog: self.graphs.len(),
            });
        }
        if self.queue.len() >= self.cfg.queue_capacity {
            return Err(ServeError::QueueFull {
                shard: 0,
                depth: self.queue.len(),
                capacity: self.cfg.queue_capacity,
            });
        }
        self.lat.requests.inc();
        let submit_ns = if self.cfg.telemetry {
            clock::now_ns()
        } else {
            0
        };
        let mut buf = self.spare_aux.pop().unwrap_or_default();
        buf.clear();
        buf.extend_from_slice(aux);
        self.queue.push_back(Pending {
            req: Request {
                id,
                kernel,
                aux: buf,
            },
            enqueued_tick: self.tick,
            submit_ns,
        });
        self.lat.queue_depth.set(self.queue.len() as f64);
        Ok(())
    }

    /// Stage a hot plan swap. The engine keeps answering: every request
    /// queued *before* this call is served by the current plan, every
    /// later admission by `plan` — the install happens mid-dispatch the
    /// moment the pre-swap backlog hits zero, so not a single request is
    /// dropped or re-queued. Cache misses after the install compute
    /// their embeddings with the plan's own model, and the embedding
    /// cache is cleared at install because the new model's GNN/DAE make
    /// cached rows stale. Shape compatibility is the caller's contract
    /// (`Cluster::swap` validates it; standalone callers get debug
    /// asserts).
    pub fn swap_plan(&mut self, plan: InferencePlan<'a>) {
        debug_assert_eq!(plan.in_dim(), self.plan.in_dim(), "swap changes in_dim");
        debug_assert_eq!(plan.hidden(), self.plan.hidden(), "swap changes hidden");
        debug_assert_eq!(
            plan.head_sizes(),
            self.plan.head_sizes(),
            "swap changes head layout"
        );
        metrics::counter("serve.swap.staged").inc();
        self.old_pending = self.queue.len();
        self.staged = Some(plan);
        if self.old_pending == 0 {
            self.install_staged();
        }
    }

    fn install_staged(&mut self) {
        if let Some(plan) = self.staged.take() {
            self.plan = plan;
            self.cache.clear();
            self.plan_epoch += 1;
            metrics::counter("serve.swap.installed").inc();
        }
    }

    /// Whether a staged swap is still draining the pre-swap queue.
    pub fn swap_pending(&self) -> bool {
        self.staged.is_some()
    }

    /// Completed swaps (installed-plan generation).
    pub fn plan_epoch(&self) -> u64 {
        self.plan_epoch
    }

    /// Pull every queued (not yet dispatched) request back out, oldest
    /// first — the shard-death path: a crashed shard's accepted-but-
    /// unserved requests are evacuated and re-admitted elsewhere instead
    /// of being lost. Returns how many were moved. Any staged swap
    /// installs immediately (its drain barrier is gone).
    pub fn evacuate(&mut self, out: &mut Vec<Request>) -> usize {
        let n = self.queue.len();
        out.extend(self.queue.drain(..).map(|p| p.req));
        self.lat.queue_depth.set(0.0);
        self.old_pending = 0;
        self.install_staged();
        n
    }

    /// Advance logical time by one tick and dispatch every micro-batch
    /// the policy allows: full batches immediately, partial batches once
    /// their oldest request has waited `max_wait_ticks`. Returns the
    /// number of requests completed this tick ([`Engine::drain`] them).
    pub fn tick(&mut self) -> usize {
        self.tick += 1;
        let mut done = 0;
        while let Some(mode) = self.due() {
            done += self.dispatch(mode);
        }
        self.lat.queue_depth.set(self.queue.len() as f64);
        if self.cfg.telemetry {
            let stats = std::mem::take(&mut self.stats);
            let events = &mut self.drift_events;
            let dropped = &mut self.drift_dropped;
            self.drift.on_tick(self.tick, &stats, &mut |e| {
                if events.len() < events.capacity() {
                    events.push(e);
                } else {
                    *dropped += 1;
                }
            });
        }
        done
    }

    /// The batching policy over the queue at the current tick: should a
    /// batch dispatch *now*, and why. A full batch goes immediately; a
    /// partial one once its oldest request has waited `max_wait_ticks`,
    /// and never inside its own submit tick.
    fn due(&self) -> Option<BatchMode> {
        if self.queue.len() >= self.cfg.max_batch {
            return Some(BatchMode::Full);
        }
        let enq = self.queue.front()?.enqueued_tick;
        (self.tick > enq && self.tick - enq >= self.cfg.max_wait_ticks)
            .then_some(BatchMode::WaitTimer)
    }

    /// Dispatch everything still queued, regardless of wait policy
    /// (shutdown / end-of-stream). Does not advance the tick.
    pub fn flush(&mut self) -> usize {
        let mut done = 0;
        while !self.queue.is_empty() {
            done += self.dispatch(BatchMode::Flush);
        }
        self.lat.queue_depth.set(0.0);
        done
    }

    /// Move completed responses (in completion order) into `out`;
    /// returns how many were moved.
    pub fn drain(&mut self, out: &mut Vec<Response>) -> usize {
        let n = self.completed.len();
        out.extend(self.completed.drain(..));
        n
    }

    /// Return a finished [`Response`] so its buffers are reused instead
    /// of reallocated — keeps the steady state allocation-free.
    pub fn recycle(&mut self, resp: Response) {
        if self.spare.len() < self.spare.capacity() {
            self.spare.push(resp);
        }
    }

    /// Ensure `kernel`'s static embedding is resident, taking the slow
    /// path ([`FusionModel::static_embeddings`] over the catalog entry:
    /// GNN, DAE and scalers) on a miss. Returns whether the lookup hit.
    fn ensure_static(&mut self, kernel: usize) -> bool {
        if self.cache.lookup(kernel).is_some() {
            return true;
        }
        let emb = self
            .plan
            .model()
            .static_embeddings(&[&self.graphs[kernel]], &[&self.vectors[kernel]]);
        self.cache.insert(kernel, emb.row_slice(0));
        false
    }

    /// Record one served request: flight ring, per-tick drift stats.
    /// `classes`/`margins` are this request's per-head rows. Called only
    /// with telemetry on.
    #[allow(clippy::too_many_arguments)]
    fn note_served(
        &mut self,
        id: u64,
        kernel: usize,
        submit_tick: u64,
        batch: u16,
        batch_mode: &'static str,
        cache_hit: bool,
        e2e_ns: u64,
        classes: &[usize],
        margins: &[f32],
    ) {
        let nh = classes.len();
        let mut rec = FlightRecord {
            id,
            kernel: kernel as u32,
            submit_tick,
            served_tick: self.tick,
            queue_ticks: (self.tick - submit_tick) as u32,
            batch,
            batch_mode,
            cache_hit,
            e2e_ns,
            num_heads: nh as u8,
            ..FlightRecord::default()
        };
        let mut conf_sum = 0.0f32;
        for hi in 0..nh {
            rec.classes[hi] = classes[hi].min(u16::MAX as usize) as u16;
            rec.margins[hi] = margins[hi];
            conf_sum += if self.plan.head_sizes()[hi] >= 2 {
                margin_confidence(margins[hi])
            } else {
                1.0
            };
        }
        rec.confidence = conf_sum / nh.max(1) as f32;
        self.flight.push(rec);
        self.stats.requests += 1;
        self.stats.cache_lookups += 1;
        if !cache_hit {
            self.stats.cache_misses += 1;
        }
        if kernel < self.seen.len() && !self.seen[kernel] {
            self.seen[kernel] = true;
            self.stats.new_kernels += 1;
        }
        self.stats.confidence_sum += rec.confidence as f64;
    }

    /// Run one micro-batch off the front of the queue. `mode` is why the
    /// policy cut the batch now — recorded on telemetry, never consulted
    /// for compute.
    fn dispatch(&mut self, mode: BatchMode) -> usize {
        let mut b = self.queue.len().min(self.cfg.max_batch);
        if self.staged.is_some() {
            // Swap draining: a micro-batch never straddles the swap
            // boundary, so pre-swap requests all see the old plan and
            // post-swap requests all see the new one.
            b = b.min(self.old_pending);
        }
        debug_assert!(b > 0);
        let telemetry = self.cfg.telemetry;
        let in_dim = self.plan.in_dim();
        let sd = self.plan.static_dim();
        let nh = self.plan.num_heads();
        let mut x = self.arena.take(self.cfg.max_batch * in_dim);
        for r in 0..b {
            let kernel = self.queue[r].req.kernel;
            let t0 = if telemetry { clock::now_ns() } else { 0 };
            let hit = self.ensure_static(kernel);
            let row = &mut x[r * in_dim..(r + 1) * in_dim];
            row[..sd].copy_from_slice(self.cache.peek(kernel).expect("just ensured"));
            let t1 = if telemetry { clock::now_ns() } else { 0 };
            let aux = &self.queue[r].req.aux;
            self.plan.scale_aux_into(&mut row[sd..], aux);
            if telemetry {
                self.lat.cache.observe(t1 - t0);
                self.lat.scale.observe(clock::now_ns() - t1);
                self.lat
                    .queue_wait
                    .observe(t0.saturating_sub(self.queue[r].submit_ns));
                self.hits[r] = hit;
            }
        }
        let mut h = self.arena.take(self.cfg.max_batch * self.plan.hidden());
        let mut lg = self
            .arena
            .take(self.cfg.max_batch * self.plan.max_classes());
        let mut cls = std::mem::take(&mut self.cls);
        let mut margins = std::mem::take(&mut self.margins);
        // The trunk/heads split and the margin-recording argmax are used
        // in *both* telemetry modes — identical compute, identical
        // classes; the flag only gates clock reads and recording.
        let t2 = if telemetry { clock::now_ns() } else { 0 };
        self.plan.trunk_into(&x, b, &mut h);
        let t3 = if telemetry { clock::now_ns() } else { 0 };
        self.plan
            .heads_into(&h, b, &mut lg, &mut cls, Some(&mut margins));
        let end_ns = if telemetry { clock::now_ns() } else { 0 };
        if telemetry {
            self.lat.trunk.observe(t3 - t2);
            self.lat.heads.observe(end_ns - t3);
        }
        for r in 0..b {
            let mut p = self.queue.pop_front().expect("b <= queue.len()");
            if telemetry {
                let e2e = end_ns.saturating_sub(p.submit_ns);
                self.lat.e2e.observe(e2e);
                let hit = self.hits[r];
                self.note_served(
                    p.req.id,
                    p.req.kernel,
                    p.enqueued_tick,
                    b as u16,
                    mode.tag(),
                    hit,
                    e2e,
                    &cls[r * nh..(r + 1) * nh],
                    &margins[r * nh..(r + 1) * nh],
                );
            }
            if self.spare_aux.len() < self.spare_aux.capacity() {
                // Recycle the aux buffer for the next `submit_slice`.
                self.spare_aux.push(std::mem::take(&mut p.req.aux));
            }
            let mut resp = self.spare.pop().unwrap_or_else(|| Response {
                id: 0,
                classes: Vec::with_capacity(nh),
                enqueued_tick: 0,
                completed_tick: 0,
            });
            resp.id = p.req.id;
            resp.enqueued_tick = p.enqueued_tick;
            resp.completed_tick = self.tick;
            resp.classes.clear();
            resp.classes.extend_from_slice(&cls[r * nh..(r + 1) * nh]);
            self.completed.push_back(resp);
        }
        self.cls = cls;
        self.margins = margins;
        self.arena.give(lg);
        self.arena.give(h);
        self.arena.give(x);
        self.lat.note_batch(b, mode);
        if self.staged.is_some() {
            self.old_pending -= b;
            if self.old_pending == 0 {
                self.install_staged();
            }
        }
        b
    }

    /// Synchronous single-request fast path (no queue, no ticks): write
    /// the predicted class of each head into `classes_out` (length
    /// `num_heads`). This is what the `serve_one_request` benchmark
    /// times — cache lookup, aux scaling, trunk and heads. Telemetry
    /// keeps the clock reads to two (start, end — a read costs ~20 ns
    /// under virtualized TSC, real money against a sub-µs request): the
    /// end-to-end histogram plus the flight record, leaving the
    /// per-stage split (cache, scaling, trunk, heads) to the batched
    /// path.
    /// Typed refusals, never a panic: an out-of-catalog kernel returns
    /// [`ServeError::UnknownKernel`]; a `classes_out` buffer that
    /// disagrees with the plan's head count returns
    /// [`ServeError::UnknownTaskHead`]. With a hot swap staged, the
    /// queue is flushed first (a synchronous call is a *new* admission
    /// and must see the new plan; the flush serves the pre-swap backlog
    /// on the old plan, installing at the boundary).
    pub fn serve_one(
        &mut self,
        kernel: usize,
        aux: &[f32],
        classes_out: &mut [usize],
    ) -> Result<(), ServeError> {
        if kernel >= self.graphs.len() {
            return Err(ServeError::UnknownKernel {
                kernel,
                catalog: self.graphs.len(),
            });
        }
        if classes_out.len() != self.plan.num_heads() {
            return Err(ServeError::UnknownTaskHead {
                head: classes_out.len(),
                num_heads: self.plan.num_heads(),
            });
        }
        if self.staged.is_some() {
            self.flush();
        }
        let telemetry = self.cfg.telemetry;
        let in_dim = self.plan.in_dim();
        let sd = self.plan.static_dim();
        let t0 = if telemetry { clock::now_ns() } else { 0 };
        let hit = self.ensure_static(kernel);
        let mut x = self.arena.take(in_dim);
        x[..sd].copy_from_slice(self.cache.peek(kernel).expect("just ensured"));
        self.plan.scale_aux_into(&mut x[sd..], aux);
        let mut h = self.arena.take(self.plan.hidden());
        let mut lg = self.arena.take(self.plan.max_classes());
        let mut margins = std::mem::take(&mut self.margins);
        self.plan.trunk_into(&x, 1, &mut h);
        self.plan
            .heads_into(&h, 1, &mut lg, classes_out, Some(&mut margins));
        self.arena.give(lg);
        self.arena.give(h);
        self.arena.give(x);
        if telemetry {
            let t2 = clock::now_ns();
            self.lat.e2e.observe(t2 - t0);
            let nh = self.plan.num_heads();
            self.note_served(
                0,
                kernel,
                self.tick,
                1,
                "sync",
                hit,
                t2 - t0,
                classes_out,
                &margins[..nh],
            );
        }
        self.margins = margins;
        self.lat.requests.inc();
        Ok(())
    }

    /// Serve one request but answer only task head `head` (the
    /// multi-head deployment view: one service, per-task questions). A
    /// head the plan does not have is a typed
    /// [`ServeError::UnknownTaskHead`] — checked before any compute.
    pub fn serve_one_head(
        &mut self,
        kernel: usize,
        aux: &[f32],
        head: usize,
    ) -> Result<usize, ServeError> {
        let nh = self.plan.num_heads();
        if head >= nh {
            return Err(ServeError::UnknownTaskHead {
                head,
                num_heads: nh,
            });
        }
        // Reuse the batch class scratch (always ≥ num_heads wide).
        let mut cls = std::mem::take(&mut self.cls);
        let res = self.serve_one(kernel, aux, &mut cls[..nh]);
        let class = cls[head];
        self.cls = cls;
        res.map(|()| class)
    }

    /// Arena bytes allocated since the construction prewarm — zero in a
    /// healthy steady state (all scratch recycled).
    pub fn steady_alloc_bytes(&self) -> u64 {
        self.arena.alloc_bytes() - self.alloc_baseline
    }

    /// Times a scratch buffer was served from the arena free lists
    /// instead of the allocator.
    pub fn arena_reuse(&self) -> u64 {
        self.arena.reuse_count()
    }

    /// Write the flight history as JSONL: one `{"type":"request",...}`
    /// line per surviving record (oldest first), then one
    /// `{"type":"drift",...}` line per buffered drift event.
    pub fn dump_flight(&self, w: &mut impl Write) -> io::Result<()> {
        self.flight.dump(w)?;
        for e in &self.drift_events {
            writeln!(w, "{}", drift_event_to_json(e))?;
        }
        Ok(())
    }

    /// [`Engine::dump_flight`] to the path named by `MGA_FLIGHT` (empty
    /// or `0` disables). Serving binaries call this at end of run.
    pub fn dump_flight_if_enabled(&self) {
        if let Ok(path) = std::env::var("MGA_FLIGHT") {
            let path = path.trim();
            if !path.is_empty() && path != "0" {
                let res = std::fs::File::create(path).and_then(|f| {
                    let mut w = io::BufWriter::new(f);
                    self.dump_flight(&mut w)
                });
                match res {
                    Ok(()) => mga_obs::info!("flight records written to {path}"),
                    Err(e) => mga_obs::error!("cannot write flight records {path}: {e}"),
                }
            }
        }
    }

    /// Publish the engine's gauges to the metrics registry:
    /// `serve.steady_alloc_bytes` (arena bytes allocated after the
    /// construction prewarm — zero in a healthy steady state),
    /// `serve.arena_reuse` (scratch recycles), `serve.queue_depth`, the
    /// embedding cache's size (`serve.cache.occupancy` / `.capacity`;
    /// its hits, misses and evictions are the `serve.cache_hits` /
    /// `_misses` / `_evictions` counters the cache keeps itself) and the
    /// flight/drift bookkeeping (`serve.flight.recorded`,
    /// `serve.drift.dropped`).
    pub fn publish_metrics(&self) {
        metrics::gauge("serve.steady_alloc_bytes")
            .set((self.arena.alloc_bytes() - self.alloc_baseline) as f64);
        metrics::gauge("serve.arena_reuse").set(self.arena.reuse_count() as f64);
        self.lat.queue_depth.set(self.queue.len() as f64);
        metrics::gauge("serve.cache.occupancy").set(self.cache.len() as f64);
        metrics::gauge("serve.cache.capacity").set(self.cache.capacity() as f64);
        metrics::gauge("serve.flight.recorded").set(self.flight.total() as f64);
        metrics::gauge("serve.drift.dropped").set(self.drift_dropped as f64);
    }
}
