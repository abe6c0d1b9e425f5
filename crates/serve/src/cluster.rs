//! The sharded serving cluster: N engines, one door.
//!
//! A single [`Engine`] saturates around one core's worth of trunk
//! matmuls; production traffic needs more, and it needs the overload
//! story a lone queue cannot tell. The cluster wraps `shards`
//! independent engines — each with its own [`crate::InferencePlan`],
//! [`crate::EmbeddingCache`] and bounded intake queue — behind a
//! consistent-hash [`Router`] keyed by kernel id, with three promises:
//!
//! 1. **Every accepted request is answered.** Admission
//!    ([`crate::admission`]) is the only gate: once
//!    [`Cluster::submit_slice`] returns `Ok`, the request is served —
//!    if its shard crashes first, the evacuated queue reroutes to
//!    surviving shards (overflowing into a retry buffer when they're
//!    momentarily full) rather than dropping.
//! 2. **Every refusal is typed.** Overload sheds at the door with a
//!    [`ServeError`] naming the reason (queue full, deadline unmeetable,
//!    shard down) — never a panic, never a silent drop. Sheds,
//!    redirects and reroutes are counted in `serve.shed_total` /
//!    `serve.redirect_total` / `serve.reroute_total`.
//! 3. **Everything replays.** Routing, admission, health transitions,
//!    swap install points and fault injection all run on the cluster's
//!    logical tick with zero wall-clock or RNG reads — the chaos suite
//!    (`tests/cluster_chaos.rs`) replays whole failure scenarios and
//!    checksums bitwise-identical responses.
//!
//! Shard dispatch runs on the calling thread: each [`Cluster::tick`]
//! loops over the live, unstalled shards in shard order and ticks their
//! engines one after another. No threads, no rings, no per-tick fork:
//! on a 2-vCPU host serial dispatch measured faster than both a
//! persistent per-shard worker plane and a per-tick fork-join over the
//! worker pool at 2, 4 and 8 shards (DESIGN.md § Cluster dispatch).
//!
//! Failure machinery rides the existing `MGA_FAULT` sites: `shard:crash`
//! kills a shard at a tick boundary (queue evacuated, health `Down`),
//! `shard:stall` freezes its dispatch for [`STALL_TICKS`]
//! (health `Degraded`, admission estimates stretch accordingly),
//! `route:misdirect` sends an admission to the wrong shard (counted as
//! a redirect — correctness is unaffected because every shard serves
//! the full catalog), and `swap:corrupt` flips a bit in a hot-swap
//! candidate checkpoint so [`load_candidate`] must reject it.
//!
//! Hot swap is zero-drop by construction: [`Cluster::swap`] validates a
//! candidate (shape gate, finite-probe health check) *before* staging it
//! on the shard's engine; the engine then drains its pre-swap backlog on
//! the old plan and installs the new one at the exact batch boundary
//! ([`Engine::swap_plan`]). A candidate that fails to load or probe is a
//! typed [`SwapError`] and the shard's serving state is untouched —
//! rollback is the absence of any change.

use std::collections::VecDeque;
use std::path::Path;

use mga_core::model::FusionModel;
use mga_core::persist::{self, PersistError};
use mga_graph::ProGraph;
use mga_obs::fault::{self, Kind, Site};
use mga_obs::metrics::{self, Counter, Gauge};

use crate::admission::{self, Decision, ShardView};
use crate::engine::{Engine, Request, Response, ServeConfig};
use crate::error::{ServeError, SwapError};
use crate::plan::InferencePlan;
use crate::router::{Router, DEFAULT_VNODES};

/// Shard health, as admission sees it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Health {
    /// Serving normally.
    Healthy,
    /// Still serving, but impaired: mid-stall, or the shard's drift
    /// monitor fired on the last tick. Admission still routes here
    /// (deadline estimates absorb the stall); operators get the signal.
    Degraded,
    /// Crashed. Takes no traffic; its keys fail over on the ring.
    Down,
}

impl Health {
    /// Stable lower-snake tag for dashboards.
    pub fn tag(&self) -> &'static str {
        match self {
            Health::Healthy => "healthy",
            Health::Degraded => "degraded",
            Health::Down => "down",
        }
    }

    fn gauge_value(&self) -> f64 {
        match self {
            Health::Healthy => 0.0,
            Health::Degraded => 1.0,
            Health::Down => 2.0,
        }
    }
}

/// How many ticks a `shard:stall` fault freezes a shard's dispatch.
pub const STALL_TICKS: u64 = 3;

/// Cluster shape and per-shard policy. The ring has
/// [`DEFAULT_VNODES`] virtual points per shard.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of engine shards.
    pub shards: usize,
    /// Per-shard bounded intake depth — the backpressure knob. Unlike a
    /// standalone engine, the cluster always runs bounded.
    pub queue_capacity: usize,
    /// Per-shard engine policy (batching, cache, telemetry). Its
    /// `queue_capacity` is overridden by the cluster's.
    pub serve: ServeConfig,
}

impl Default for ClusterConfig {
    fn default() -> ClusterConfig {
        ClusterConfig {
            shards: 4,
            queue_capacity: 64,
            serve: ServeConfig::default(),
        }
    }
}

/// Interned per-shard gauges. Shard names are built at run time and
/// leaked once per process by [`metrics::gauge_owned`] — a few bytes per
/// shard, however many clusters the process builds.
struct ShardMetrics {
    queue_depth: &'static Gauge,
    health: &'static Gauge,
    plan_epoch: &'static Gauge,
}

impl ShardMetrics {
    fn new(shard: usize) -> ShardMetrics {
        let gauge = |suffix: &str| metrics::gauge_owned(format!("serve.shard.{shard}.{suffix}"));
        ShardMetrics {
            queue_depth: gauge("queue_depth"),
            health: gauge("health"),
            plan_epoch: gauge("plan_epoch"),
        }
    }
}

struct Shard<'a> {
    engine: Engine<'a>,
    health: Health,
    /// Ticks dispatch stays frozen (injected stall).
    stall_remaining: u64,
    /// Drift-event count at the last health refresh; growth marks the
    /// shard `Degraded` for a tick.
    drift_seen: usize,
    m: ShardMetrics,
}

/// A cluster of [`Engine`] shards behind consistent-hash admission.
pub struct Cluster<'a> {
    shards: Vec<Shard<'a>>,
    router: Router,
    /// Precomputed kernel → owner shard (the ring walk's first hop),
    /// replacing a per-submit binary search over the vnode ring.
    route_table: Vec<u32>,
    cfg: ClusterConfig,
    graphs: &'a [ProGraph],
    vectors: &'a [Vec<f32>],
    tick: u64,
    /// Accepted-but-unplaceable requests (every live shard full at
    /// reroute time); retried at the start of each tick. Never dropped.
    overflow: VecDeque<Request>,
    shed_total: &'static Counter,
    redirect_total: &'static Counter,
    reroute_total: &'static Counter,
    overflow_depth: &'static Gauge,
    accepted: u64,
    answered: u64,
    /// Scratch for admission views / candidate order / evacuations.
    views: Vec<ShardView>,
    cand: Vec<usize>,
    cand_seen: Vec<bool>,
    evac: Vec<Request>,
}

impl<'a> Cluster<'a> {
    /// Build `cfg.shards` engines over a shared catalog. Each shard
    /// holds its own plan over `model` and owns its own cache and
    /// queue.
    pub fn new(
        model: &'a FusionModel,
        graphs: &'a [ProGraph],
        vectors: &'a [Vec<f32>],
        cfg: ClusterConfig,
    ) -> Cluster<'a> {
        assert!(cfg.shards > 0, "cluster needs at least one shard");
        assert!(
            cfg.queue_capacity > 0,
            "cluster queues must be bounded but nonzero"
        );
        let mut ecfg = cfg.serve.clone();
        ecfg.queue_capacity = cfg.queue_capacity;
        let shards = (0..cfg.shards)
            .map(|i| Shard {
                engine: Engine::new(model, graphs, vectors, ecfg.clone()),
                health: Health::Healthy,
                stall_remaining: 0,
                drift_seen: 0,
                m: ShardMetrics::new(i),
            })
            .collect();
        let router = Router::new(cfg.shards, DEFAULT_VNODES);
        let route_table = (0..graphs.len()).map(|k| router.route(k) as u32).collect();
        Cluster {
            shards,
            router,
            route_table,
            graphs,
            vectors,
            tick: 0,
            overflow: VecDeque::new(),
            shed_total: metrics::counter("serve.shed_total"),
            redirect_total: metrics::counter("serve.redirect_total"),
            reroute_total: metrics::counter("serve.reroute_total"),
            overflow_depth: metrics::gauge("serve.cluster.overflow_depth"),
            accepted: 0,
            answered: 0,
            views: Vec::with_capacity(cfg.shards),
            cand: Vec::with_capacity(cfg.shards),
            cand_seen: vec![false; cfg.shards],
            evac: Vec::new(),
            cfg,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Current cluster tick.
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// The routing ring.
    pub fn router(&self) -> &Router {
        &self.router
    }

    /// A shard's engine (plan, cache, flight ring).
    pub fn engine(&self, shard: usize) -> &Engine<'a> {
        &self.shards[shard].engine
    }

    /// A shard's engine, mutably (cache warming, direct inspection).
    /// Serve-path mutation belongs to [`Cluster::submit_slice`] /
    /// [`Cluster::tick`].
    pub fn engine_mut(&mut self, shard: usize) -> &mut Engine<'a> {
        &mut self.shards[shard].engine
    }

    /// A shard's health.
    pub fn health(&self, shard: usize) -> Health {
        self.shards[shard].health
    }

    /// A shard's queued-but-unserved depth, as admission sees it.
    pub fn queue_depth(&self, shard: usize) -> usize {
        self.shards[shard].engine.queue_depth()
    }

    /// Accepted-but-unplaced requests waiting for queue room.
    pub fn overflow_depth(&self) -> usize {
        self.overflow.len()
    }

    /// Requests accepted (admits + redirects) since construction.
    pub fn accepted_total(&self) -> u64 {
        self.accepted
    }

    /// Responses handed to [`Cluster::drain`] since construction. After
    /// a final [`Cluster::flush`] + drain this equals
    /// [`Cluster::accepted_total`] — the zero-loss invariant the chaos
    /// suite asserts.
    pub fn answered_total(&self) -> u64 {
        self.answered
    }

    fn refresh_views(&mut self) {
        let capacity = self.cfg.queue_capacity;
        self.views.clear();
        self.views.extend(self.shards.iter().map(|s| ShardView {
            depth: s.engine.queue_depth(),
            capacity,
            down: s.health == Health::Down,
            stall_remaining: s.stall_remaining,
        }));
    }

    /// Fill `self.cand` with the failover order for `kernel`, starting
    /// at `owner` then following the ring walk (deduplicated).
    fn build_candidates(&mut self, kernel: usize, owner: usize) {
        self.cand.clear();
        self.cand_seen.fill(false);
        self.cand.push(owner);
        self.cand_seen[owner] = true;
        let cand = &mut self.cand;
        let seen = &mut self.cand_seen;
        self.router.walk(kernel, |s| {
            if !seen[s] {
                seen[s] = true;
                cand.push(s);
            }
        });
    }

    /// Admit request `id` for `kernel` with raw dynamic features `aux`
    /// at the current tick. Returns the shard it was enqueued on, or the
    /// typed refusal. No `Vec<f32>` is allocated: the shard copies the
    /// aux row into a recycled engine buffer ([`Engine::submit_slice`]).
    /// `deadline_tick` (absolute cluster tick) arms deadline-aware
    /// shedding: if no candidate shard can finish by then under the
    /// queue-depth estimate, the request is refused *now* rather than
    /// queued to miss.
    pub fn submit_slice(
        &mut self,
        id: u64,
        kernel: usize,
        aux: &[f32],
        deadline_tick: Option<u64>,
    ) -> Result<usize, ServeError> {
        if kernel >= self.graphs.len() {
            return Err(ServeError::UnknownKernel {
                kernel,
                catalog: self.graphs.len(),
            });
        }
        let n = self.shards.len();
        let hash_owner = self.route_table[kernel] as usize;
        let mut owner = hash_owner;
        if fault::armed() {
            if let Some(shot) = fault::fire(Site::Route) {
                if shot.kind == Kind::Misdirect && n > 1 {
                    owner = (owner + 1 + (shot.draw as usize % (n - 1))) % n;
                }
            }
        }
        // Fast path: the owner is live, has room and meets the deadline
        // — [`admission::decide`] would admit on its first candidate, so
        // skip building the full view snapshot and the ring walk. This
        // is the steady-state door; the slow path below is byte-for-byte
        // the same decision when the owner can't take it.
        {
            let s = &self.shards[owner];
            let depth = s.engine.queue_depth();
            if s.health != Health::Down && depth < self.cfg.queue_capacity {
                let deadline_ok = match deadline_tick {
                    None => true,
                    Some(d) => {
                        admission::estimated_completion_tick(
                            self.tick,
                            depth,
                            self.cfg.serve.max_batch,
                            self.cfg.serve.max_wait_ticks,
                            s.stall_remaining,
                        ) <= d
                    }
                };
                if deadline_ok {
                    self.enqueue_on(owner, id, kernel, aux);
                    self.accepted += 1;
                    if owner != hash_owner {
                        self.redirect_total.inc();
                    }
                    return Ok(owner);
                }
            }
        }
        self.refresh_views();
        self.build_candidates(kernel, owner);
        let decision = admission::decide(
            owner,
            self.cand.iter().copied(),
            &self.views,
            self.tick,
            deadline_tick,
            self.cfg.serve.max_batch,
            self.cfg.serve.max_wait_ticks,
        );
        match decision {
            Decision::Admit { shard } | Decision::Redirect { to: shard, .. } => {
                self.enqueue_on(shard, id, kernel, aux);
                self.accepted += 1;
                if shard != hash_owner {
                    self.redirect_total.inc();
                }
                Ok(shard)
            }
            Decision::Shed { shard, reason } => {
                self.shed_total.inc();
                Err(reason.to_error(shard))
            }
        }
    }

    /// Enqueue an accepted request on `shard`. Room and kernel were
    /// checked by admission.
    fn enqueue_on(&mut self, shard: usize, id: u64, kernel: usize, aux: &[f32]) {
        self.shards[shard]
            .engine
            .submit_slice(id, kernel, aux)
            .expect("admission checked kernel and room");
    }

    /// Place an already-accepted request on any live shard with room
    /// (ring order from its kernel). Used for crash evacuation and
    /// overflow retry — admission (capacity/deadline shedding) does NOT
    /// rerun: acceptance already happened and must be honored. Returns
    /// the request when nowhere can take it right now.
    fn try_place(&mut self, req: Request) -> Option<Request> {
        self.build_candidates(req.kernel, self.route_table[req.kernel] as usize);
        for i in 0..self.cand.len() {
            let shard = self.cand[i];
            let s = &self.shards[shard];
            if s.health == Health::Down || s.engine.queue_depth() >= self.cfg.queue_capacity {
                continue;
            }
            self.enqueue_on(shard, req.id, req.kernel, &req.aux);
            self.reroute_total.inc();
            return None;
        }
        Some(req)
    }

    fn retry_overflow(&mut self) {
        for _ in 0..self.overflow.len() {
            let req = self.overflow.pop_front().expect("len checked");
            if let Some(back) = self.try_place(req) {
                self.overflow.push_back(back);
            }
        }
        self.overflow_depth.set(self.overflow.len() as f64);
    }

    /// Kill a shard: health `Down`, queue evacuated and rerouted to
    /// survivors (overflow buffer when all are full). The `shard:crash`
    /// fault lands here; tests call it directly as a chaos hook. Nothing
    /// accepted is lost.
    pub fn kill_shard(&mut self, shard: usize) {
        if self.shards[shard].health == Health::Down {
            return;
        }
        self.shards[shard].health = Health::Down;
        metrics::counter("serve.shard_down_total").inc();
        let mut evac = std::mem::take(&mut self.evac);
        evac.clear();
        self.shards[shard].engine.evacuate(&mut evac);
        for req in evac.drain(..) {
            if let Some(back) = self.try_place(req) {
                self.overflow.push_back(back);
            }
        }
        self.evac = evac;
    }

    /// Freeze a shard's dispatch for `ticks` cluster ticks (the
    /// `shard:stall` fault / chaos hook). Queued requests wait; health
    /// reads `Degraded`; admission's deadline estimates include the
    /// remaining stall.
    pub fn stall_shard(&mut self, shard: usize, ticks: u64) {
        if self.shards[shard].health == Health::Down {
            return;
        }
        self.shards[shard].stall_remaining = self.shards[shard].stall_remaining.max(ticks);
    }

    /// Advance the cluster one logical tick: fire shard faults, retry
    /// the overflow buffer, dispatch every live unstalled shard, then
    /// refresh health. Returns the number of requests completed this
    /// tick.
    pub fn tick(&mut self) -> usize {
        self.tick += 1;
        if fault::armed() {
            // One deterministic fault check per shard per tick, in shard
            // order, so a given spec always hits the same (shard, tick).
            for i in 0..self.shards.len() {
                if let Some(shot) = fault::fire(Site::Shard) {
                    if self.shards[i].health != Health::Down {
                        match shot.kind {
                            Kind::Crash => self.kill_shard(i),
                            Kind::Stall => self.stall_shard(i, STALL_TICKS),
                            _ => {}
                        }
                    }
                }
            }
        }
        self.retry_overflow();
        let done = self.dispatch_live();
        for s in &mut self.shards {
            if s.health == Health::Down {
                continue;
            }
            if s.stall_remaining > 0 {
                s.stall_remaining -= 1;
            }
            let drift_len = s.engine.drift_events().len();
            let drifted = drift_len > s.drift_seen;
            s.drift_seen = drift_len;
            s.health = if s.stall_remaining > 0 || drifted {
                Health::Degraded
            } else {
                Health::Healthy
            };
        }
        done
    }

    /// Tick every live, unstalled engine, in shard order, on the
    /// calling thread.
    fn dispatch_live(&mut self) -> usize {
        let mut done = 0;
        for s in &mut self.shards {
            if s.health != Health::Down && s.stall_remaining == 0 {
                done += s.engine.tick();
            }
        }
        done
    }

    /// Drain completed responses from every shard, in shard order, into
    /// `out`. Returns how many were moved.
    pub fn drain(&mut self, out: &mut Vec<Response>) -> usize {
        let mut n = 0;
        for s in &mut self.shards {
            n += s.engine.drain(out);
        }
        self.answered += n as u64;
        n
    }

    /// End-of-run: clear stalls, then alternate overflow retries and
    /// full shard flushes until nothing admitted remains queued. Only an
    /// all-shards-down cluster can leave overflow behind (and then only
    /// because there is no engine left to serve it).
    pub fn flush(&mut self) -> usize {
        for s in &mut self.shards {
            s.stall_remaining = 0;
        }
        let mut done = 0;
        loop {
            let overflow_before = self.overflow.len();
            self.retry_overflow();
            let mut moved = 0;
            for s in &mut self.shards {
                if s.health != Health::Down {
                    moved += s.engine.flush();
                }
            }
            done += moved;
            if self.overflow.is_empty() && self.shards.iter().all(|s| s.engine.queue_depth() == 0) {
                break;
            }
            if moved == 0 && self.overflow.len() == overflow_before {
                break;
            }
        }
        done
    }

    /// Hot-swap `shard`'s plan to `candidate`, zero-drop: the request it
    /// is serving and everything already queued finish on the old plan;
    /// admissions from this call on are served by the new one (install
    /// happens at the exact micro-batch boundary — see
    /// [`Engine::swap_plan`]). The candidate is validated *first*:
    ///
    /// * shape gate — input width, static split, hidden width and head
    ///   layout must match the serving plan (the shard's traffic must
    ///   remain servable);
    /// * health probe — every trunk and head weight and bias must be
    ///   finite, then the candidate plan runs end-to-end on a probe
    ///   kernel from the catalog; non-finite activations or an
    ///   out-of-range class decision reject it.
    ///
    /// Any failure is a typed [`SwapError`] and the shard keeps serving
    /// its current plan untouched — rollback is instant because nothing
    /// was changed.
    pub fn swap(&mut self, shard: usize, candidate: &'a FusionModel) -> Result<(), SwapError> {
        let n = self.shards.len();
        if shard >= n {
            return Err(SwapError::NoSuchShard { shard, shards: n });
        }
        let current = self.shards[shard].engine.plan();
        let plan = InferencePlan::new(candidate);
        let gate = [
            ("in_dim", current.in_dim(), plan.in_dim()),
            ("static_dim", current.static_dim(), plan.static_dim()),
            ("hidden", current.hidden(), plan.hidden()),
            ("num_heads", current.num_heads(), plan.num_heads()),
        ];
        for (field, expected, got) in gate {
            if expected != got {
                return Err(SwapError::Shape {
                    field,
                    expected,
                    got,
                });
            }
        }
        for (&expected, &got) in current.head_sizes().iter().zip(plan.head_sizes()) {
            if expected != got {
                return Err(SwapError::Shape {
                    field: "head_sizes",
                    expected,
                    got,
                });
            }
        }
        // Weight scan: a single probe input cannot see every NaN weight
        // (ReLU maps NaN to 0, the matmul skips weight rows that meet a
        // zero input, and head logits only feed the argmax).
        if !plan.weights_finite() {
            return Err(SwapError::Probe {
                detail: "non-finite trunk or head weights".into(),
            });
        }
        // Health probe: candidate embedding + zero aux through the
        // candidate plan; all activations must be finite and every head
        // must decide an in-range class.
        let emb = candidate.static_embeddings(&[&self.graphs[0]], &[&self.vectors[0]]);
        let emb = emb.row_slice(0);
        if emb.len() != plan.static_dim() || emb.iter().any(|v| !v.is_finite()) {
            return Err(SwapError::Probe {
                detail: "non-finite or mis-sized probe embedding".into(),
            });
        }
        let mut x = vec![0.0f32; plan.in_dim()];
        x[..emb.len()].copy_from_slice(emb);
        let zero_aux = vec![0.0f32; plan.in_dim() - plan.static_dim()];
        plan.scale_aux_into(&mut x[plan.static_dim()..], &zero_aux);
        let mut h = vec![0.0f32; plan.hidden()];
        let mut lg = vec![0.0f32; plan.max_classes()];
        let mut cls = vec![0usize; plan.num_heads()];
        plan.trunk_into(&x, 1, &mut h);
        plan.heads_into(&h, 1, &mut lg, &mut cls, None);
        if h.iter().any(|v| !v.is_finite()) {
            return Err(SwapError::Probe {
                detail: "non-finite trunk activations on probe input".into(),
            });
        }
        if cls.iter().zip(plan.head_sizes()).any(|(&c, &sz)| c >= sz) {
            return Err(SwapError::Probe {
                detail: "out-of-range class decision on probe input".into(),
            });
        }
        self.shards[shard].engine.swap_plan(plan);
        Ok(())
    }

    /// Publish cluster gauges: per-shard `serve.shard.<i>.queue_depth` /
    /// `.health` (0 healthy / 1 degraded / 2 down) / `.plan_epoch`, plus
    /// `serve.cluster.shards` and `serve.cluster.overflow_depth`.
    pub fn publish_metrics(&self) {
        for s in &self.shards {
            s.m.queue_depth.set(s.engine.queue_depth() as f64);
            s.m.health.set(s.health.gauge_value());
            s.m.plan_epoch.set(s.engine.plan_epoch() as f64);
        }
        metrics::gauge("serve.cluster.shards").set(self.shards.len() as f64);
        self.overflow_depth.set(self.overflow.len() as f64);
    }
}

/// Load a hot-swap candidate checkpoint from disk. This is the
/// `swap:corrupt` fault site: with it armed, a bit of the just-read
/// bytes is flipped before parsing, and the CRC-sealed loader must
/// reject the file with a typed error — proving a corrupt push can never
/// reach [`Cluster::swap`], let alone a serving plan.
pub fn load_candidate(path: &Path) -> Result<FusionModel, SwapError> {
    let mut bytes = std::fs::read(path).map_err(PersistError::from)?;
    if fault::armed() {
        if let Some(shot) = fault::fire(Site::Swap) {
            if shot.kind == Kind::Corrupt && !bytes.is_empty() {
                let pos = (shot.draw as usize) % bytes.len();
                let bit = ((shot.draw >> 56) % 8) as u8;
                bytes[pos] ^= 1 << bit;
            }
        }
    }
    let (model, _state) = persist::load_checkpoint_bytes(&bytes)?;
    Ok(model)
}
