//! The per-layer ledger of a `--trace 1` run.
//!
//! Each layer's busy time is read where the program already measures it:
//! span self time from the `mga-obs` tracer (GNN, DAE, fusion, loss,
//! backward, reduction, optimizer) and the serving engine's stage
//! histograms (cache, aux scaling, trunk, heads). A layer metric is that
//! busy time per operation, in microseconds, so a layer's figure moves
//! only when its own cost does. Measured work runs on one thread, so the
//! layers and `unattributed_us` add up to `traced_op_us`, the wall time
//! per operation with tracing on. Layers a workload never reaches read 0.

use mga_obs::hist::HistSnapshot;
use mga_obs::metrics;

/// Busy-time layers, `<crate>.<stage>_us`, in report order.
const LAYERS: [&str; 16] = [
    "gnn.msg_control_us",
    "gnn.msg_data_us",
    "gnn.msg_call_us",
    "gnn.update_us",
    "gnn.embed_readout_us",
    "dae.encode_us",
    "core.fusion_forward_us",
    "core.glue_us",
    "nn.loss_us",
    "nn.backward_us",
    "nn.reduce_us",
    "nn.optimizer_us",
    "serve.cache_us",
    "serve.scale_us",
    "serve.trunk_us",
    "serve.heads_us",
];

/// The layer a span's self time belongs to.
fn layer_of_span(name: &str) -> usize {
    let layer = match name {
        "gnn.msg.control" => "gnn.msg_control_us",
        "gnn.msg.data" => "gnn.msg_data_us",
        "gnn.msg.call" => "gnn.msg_call_us",
        // A message layer's own time: relation mean and GRU update.
        "gnn.layer" => "gnn.update_us",
        "model.forward" => "core.fusion_forward_us",
        "loss" => "nn.loss_us",
        "backward" => "nn.backward_us",
        "train_epoch.reduce" => "nn.reduce_us",
        "optimizer" => "nn.optimizer_us",
        n if n.starts_with("gnn.") || n == "graph.batch" => "gnn.embed_readout_us",
        // The DAE encodes scaled vectors: its input scaling counts too.
        n if n.starts_with("dae.") || n.starts_with("scaler.") => "dae.encode_us",
        _ => "core.glue_us",
    };
    layer_index(layer)
}

fn layer_index(layer: &str) -> usize {
    LAYERS
        .iter()
        .position(|l| *l == layer)
        .expect("layer is listed")
}

/// Engine stage histograms (nanoseconds) and the layer each one feeds.
/// The cache lookup's time includes the miss slow path.
const STAGES: [(&str, &str); 4] = [
    ("serve.lat.cache_lookup", "serve.cache_us"),
    ("serve.lat.scale_aux", "serve.scale_us"),
    ("serve.lat.trunk", "serve.trunk_us"),
    ("serve.lat.heads", "serve.heads_us"),
];

/// How long each served request waited in the queue, nanoseconds.
const QUEUE_WAIT: &str = "serve.lat.queue_wait";

/// Serving counters, read as differences across each session window.
const COUNTERS: [&str; 4] = [
    "serve.cache_hits",
    "serve.cache_misses",
    "serve.batches",
    "serve.batched_requests",
];

/// Histogram and counter readings at the start of a window.
struct Marks {
    stages: Vec<HistSnapshot>,
    queue_wait: HistSnapshot,
    counters: Vec<u64>,
}

impl Marks {
    fn read() -> Marks {
        Marks {
            stages: STAGES
                .iter()
                .map(|(h, _)| metrics::log_histogram(h).snapshot())
                .collect(),
            queue_wait: metrics::log_histogram(QUEUE_WAIT).snapshot(),
            counters: COUNTERS.iter().map(|c| metrics::counter(c).get()).collect(),
        }
    }
}

/// Busy time and counts summed over the measured windows of a run.
#[derive(Default)]
pub struct Ledger {
    busy_ns: [f64; LAYERS.len()],
    counts: [u64; COUNTERS.len()],
    /// Summed queue wait (ns) and the requests it covers.
    queue_wait: (u64, u64),
    wall_ns: f64,
    ops: u64,
    marks: Option<Marks>,
}

impl Ledger {
    /// Open a measured window: clear the span tree, turn tracing on and
    /// read the histograms and counters.
    pub fn open(&mut self) {
        mga_obs::trace::reset();
        mga_obs::trace::set_enabled(true);
        self.marks = Some(Marks::read());
    }

    /// Close the window opened last, in which `ops` operations ran in
    /// `wall_ns`, and book its busy time per layer.
    pub fn close(&mut self, wall_ns: f64, ops: u64) {
        mga_obs::trace::set_enabled(false);
        let marks = self.marks.take().expect("close follows open");
        self.wall_ns += wall_ns;
        self.ops += ops;

        // Span self time: a span's total minus its direct children's.
        let spans = mga_obs::trace::report();
        let mut slow_path_ns = 0f64;
        for s in &spans {
            let prefix = format!("{}/", s.path);
            let children: u64 = spans
                .iter()
                .filter(|c| c.depth == s.depth + 1 && c.path.starts_with(&prefix))
                .map(|c| c.total_ns)
                .sum();
            self.busy_ns[layer_of_span(&s.name)] += s.total_ns.saturating_sub(children) as f64;
            if s.name == "model.static_embedding" {
                slow_path_ns += s.total_ns as f64;
            }
        }

        // The slow path's spans are already booked to the GNN, DAE and
        // core layers; the cache keeps only the rest of the lookup.
        for ((name, layer), before) in STAGES.iter().zip(&marks.stages) {
            let mut ns = metrics::log_histogram(name).snapshot().diff(before).sum as f64;
            if *layer == "serve.cache_us" {
                ns = (ns - slow_path_ns).max(0.0);
            }
            self.busy_ns[layer_index(layer)] += ns;
        }
        let waited = metrics::log_histogram(QUEUE_WAIT)
            .snapshot()
            .diff(&marks.queue_wait);
        self.queue_wait.0 += waited.sum;
        self.queue_wait.1 += waited.count;
        for ((count, name), before) in self.counts.iter_mut().zip(COUNTERS).zip(marks.counters) {
            *count += metrics::counter(name).get() - before;
        }
    }

    /// The per-layer metrics: `(name, value, unit)`.
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let ops = self.ops.max(1) as f64;
        let per_op_us = |ns: f64| ns / ops / 1e3;
        let mut out: Vec<(&'static str, f64, &'static str)> = LAYERS
            .iter()
            .zip(self.busy_ns)
            .map(|(name, ns)| (*name, per_op_us(ns), "us"))
            .collect();
        let attributed: f64 = self.busy_ns.iter().sum();
        let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
        let [hits, misses, batches, batched] = self.counts.map(|c| c as f64);
        out.extend([
            (
                "unattributed_us",
                per_op_us((self.wall_ns - attributed).max(0.0)),
                "us",
            ),
            ("traced_op_us", per_op_us(self.wall_ns), "us"),
            (
                "serve.cache_hit_pct",
                100.0 * ratio(hits, hits + misses),
                "%",
            ),
            ("serve.batch_rows", ratio(batched, batches), "count"),
            (
                "serve.queue_wait_us",
                ratio(self.queue_wait.0 as f64, self.queue_wait.1 as f64) / 1e3,
                "us",
            ),
        ]);
        out
    }
}
