//! Typed serving errors.
//!
//! Every rejection on the request path is a [`ServeError`] the caller
//! can match on — a shed request gets a reasoned refusal at the door,
//! never a panic and never a hang. Swap failures are a separate
//! [`SwapError`]: they reject a *candidate plan*, not a request, and the
//! shard keeps serving its current plan untouched (instant rollback is
//! the absence of any state change).

use mga_core::persist::PersistError;

/// A request-path rejection. Admission control returns these at submit
/// time (`Cluster::submit_slice` / `Engine::submit_slice`); the
/// synchronous fast path returns them from `Engine::serve_one`.
/// Cluster sheds are also counted in `serve.shed_total`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// The shard's bounded intake queue is full and no healthy shard
    /// had room to redirect to.
    QueueFull {
        shard: usize,
        depth: usize,
        capacity: usize,
    },
    /// The request names a kernel outside the engine's catalog, so no
    /// graph/vector exists to compute its static embedding from.
    UnknownKernel { kernel: usize, catalog: usize },
    /// The request asked for a task head the plan does not have (or the
    /// caller's output buffer disagrees with the plan's head count).
    UnknownTaskHead { head: usize, num_heads: usize },
    /// Under the current queue-depth estimate the request cannot be
    /// served by its deadline tick; shed at the door instead of queueing
    /// work that will miss.
    DeadlineExceeded {
        deadline_tick: u64,
        estimated_tick: u64,
    },
    /// The hash-owning shard is down and no healthy shard could take
    /// the request.
    ShardDown { shard: usize },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::QueueFull {
                shard,
                depth,
                capacity,
            } => write!(
                f,
                "shard {shard} queue full ({depth}/{capacity}) and no redirect target"
            ),
            ServeError::UnknownKernel { kernel, catalog } => {
                write!(f, "unknown kernel {kernel} (catalog has {catalog})")
            }
            ServeError::UnknownTaskHead { head, num_heads } => {
                write!(f, "unknown task head {head} (plan has {num_heads})")
            }
            ServeError::DeadlineExceeded {
                deadline_tick,
                estimated_tick,
            } => write!(
                f,
                "deadline tick {deadline_tick} unmeetable (estimated completion tick {estimated_tick})"
            ),
            ServeError::ShardDown { shard } => {
                write!(f, "shard {shard} is down and no healthy shard can take over")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// A rejected hot-swap candidate. None of these change serving state:
/// the shard's current plan keeps answering requests.
#[derive(Debug)]
pub enum SwapError {
    /// The candidate checkpoint failed to load (corrupt bytes, bad
    /// checksum, I/O) — the typed rejection the `swap:corrupt` fault
    /// site proves.
    Load(PersistError),
    /// The candidate's architecture disagrees with the serving plan
    /// (different input width, hidden width or head layout), so its
    /// weights cannot serve this shard's traffic.
    Shape {
        field: &'static str,
        expected: usize,
        got: usize,
    },
    /// The candidate plan failed the pre-install health probe
    /// (non-finite logits on the probe input).
    Probe { detail: String },
    /// The shard index does not exist in this cluster.
    NoSuchShard { shard: usize, shards: usize },
}

impl std::fmt::Display for SwapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SwapError::Load(e) => write!(f, "candidate checkpoint rejected: {e}"),
            SwapError::Shape {
                field,
                expected,
                got,
            } => write!(
                f,
                "candidate shape mismatch: {field} is {got}, serving plan has {expected}"
            ),
            SwapError::Probe { detail } => write!(f, "candidate failed health probe: {detail}"),
            SwapError::NoSuchShard { shard, shards } => {
                write!(f, "no shard {shard} (cluster has {shards})")
            }
        }
    }
}

impl std::error::Error for SwapError {}

impl From<PersistError> for SwapError {
    fn from(e: PersistError) -> SwapError {
        SwapError::Load(e)
    }
}
