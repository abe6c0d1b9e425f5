//! `mga-serve` — the high-throughput inference engine.
//!
//! Training amortizes its feature pipeline across epochs; serving must
//! amortize it across *requests*. The paper's deployment story (§5–6:
//! tune once per kernel, reuse the model across applications and inputs)
//! makes the split obvious: everything derived from the *program* —
//! graph readout, DAE code, scaled raw vector, graph summary — is fixed
//! the moment training ends, while only the *dynamic* (auxiliary)
//! features change per request. This crate freezes the former and
//! streams the latter:
//!
//! * [`plan::InferencePlan`] — a grad-free view of the trained
//!   classifier: it borrows the model's own trunk/head weights and
//!   dynamic-feature scaler, copying nothing. A request reduces to one
//!   scaler pass and a two-layer MLP — no tape, no graph batching, no
//!   gradient slots.
//! * [`cache::EmbeddingCache`] — per-kernel fused static embeddings
//!   (GNN readout ⊕ DAE code ⊕ scaled vector ⊕ summary), keyed by
//!   kernel id with a deterministic logical-clock LRU. Warmable from a
//!   training [`mga_core::model::PreparedBatch`]; kernels the cache does
//!   not hold take a slow path through the plan's model that computes
//!   and inserts their embedding on first use (the paper's Fig. 6
//!   unseen-kernel scenario).
//! * [`engine::Engine`] — a batched serving loop: requests enter
//!   through one borrowed intake ([`engine::Engine::submit_slice`]) and
//!   queue, a logical-tick policy forms micro-batches (no wall-clock
//!   reads on the decision path, so batching is deterministic and
//!   testable), and the scratch memory cycles through an `mga-nn` arena
//!   so the steady state allocates nothing.
//!
//! Every prediction is **bitwise identical** to
//! [`mga_core::model::FusionModel::predict`]: the plan re-enters the
//! same matmul / bias-activation kernels the tape uses on the process's
//! one SIMD backend, static embedding rows are row-stable under
//! batching, and class decisions share the training argmax comparator.
//! The property tests in `tests/serve_parity.rs` enforce this across
//! request orderings, batch sizes, thread counts and cache states.

//!
//! Serving is also the layer that must explain itself in production, so
//! the engine carries an always-on, allocation-free observability layer
//! (see `DESIGN.md` § Serving observability):
//!
//! * [`flight::FlightRecorder`] — a fixed-capacity ring of per-request
//!   [`flight::FlightRecord`]s (kernel, ticks, batch size, cache
//!   hit/miss, per-head class + decision margin), dumped as
//!   JSONL on demand or to `MGA_FLIGHT=<path>` at end of run;
//! * per-stage latency histograms (`serve.lat.*`, log₂ ns buckets via
//!   `mga_obs::hist`) measured inside the engine;
//! * tick-driven drift monitors (`mga_obs::drift`) over the new-kernel
//!   rate, cache-miss rate and mean head confidence.
//!
//! All of it is observation-only: served bytes are bitwise identical
//! with telemetry on or off (`tests/serve_observability.rs`).

//!
//! Production traffic runs through the sharded cluster layer (see
//! `DESIGN.md` § Serving cluster & admission control):
//!
//! * [`router::Router`] — a consistent-hash ring (virtual nodes) keying
//!   kernels to shards, stable under shard add/remove and deterministic
//!   under failover;
//! * [`admission`] — explicit [`admission::Decision`]s at the door:
//!   admit, redirect, or shed with a typed reason (queue full, deadline
//!   unmeetable under the queue-depth estimate, shard down);
//! * [`cluster::Cluster`] — N engine shards with bounded intake queues,
//!   ticked one after another on the calling thread, per-shard
//!   [`cluster::Health`], crash/stall fault handling with
//!   queue evacuation (zero accepted requests lost), and zero-drop hot
//!   plan swaps with validation-gated rollback ([`cluster::Cluster::swap`],
//!   [`cluster::load_candidate`]);
//! * [`error::ServeError`] / [`error::SwapError`] — every request-path
//!   refusal and every rejected swap candidate is a typed error, never a
//!   panic.
//!
//! The chaos suite (`tests/cluster_chaos.rs`) injects `shard:crash`,
//! `shard:stall`, `route:misdirect` and `swap:corrupt` faults through
//! `MGA_FAULT` and replays whole failure scenarios to bitwise-identical
//! response checksums.

pub mod admission;
pub mod cache;
pub mod cluster;
pub mod engine;
pub mod error;
pub mod flight;
pub mod plan;
pub mod router;

pub use admission::{Decision, ShardView, ShedReason};
pub use cache::EmbeddingCache;
pub use cluster::{load_candidate, Cluster, ClusterConfig, Health};
pub use engine::{BatchMode, Engine, Request, Response, ServeConfig};
pub use error::{ServeError, SwapError};
pub use flight::{FlightRecord, FlightRecorder};
pub use plan::InferencePlan;
pub use router::Router;
