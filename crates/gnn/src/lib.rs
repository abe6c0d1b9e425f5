//! `mga-gnn` — gated and heterogeneous graph neural networks over
//! PROGRAML-style multi-graphs.
//!
//! The paper's graph modality is modeled by a **heterogeneous GNN**: "an
//! agglomeration of three different GNNs to model each flow graph (data
//! flow, control flow, and call flow). Each of these three sub-networks
//! are homogeneous … a Gated Graph Convolutional Network with a 'mean'
//! aggregation scheme" (§3.2). This crate implements:
//!
//! * [`NodeEmbedding`] — a learned lookup table from
//!   [`mga_graph::Node::vocab_index`] to the initial node feature vector;
//! * [`MessageLayer`] — one message-passing layer per relation
//!   (`W_r · h_src`, mean-aggregated over incoming edges), with a choice
//!   of update function: GRU (GGNN, the paper's pick), plain GCN-style
//!   linear+tanh, or GraphSAGE-style concat+linear (for the ablation
//!   benches);
//! * [`HeteroGnn`] — per-relation sub-networks whose aggregated messages
//!   are averaged across relations and fed to a single shared update,
//!   stacked for a configurable number of layers (paper: 2);
//! * [`GraphBatch`] — block-diagonal batching of several graphs with a
//!   segment-mean readout over instruction nodes per graph.

use mga_graph::{Node, ProGraph, Relation};
use mga_nn::layers::GruCell;
use mga_nn::tape::{FusedAct, Tape, Var};
use mga_nn::tensor::Tensor;
use mga_nn::{init, ParamId, ParamSet};
use rand::rngs::StdRng;

/// Span names for per-relation message passing, indexed by
/// [`Relation::index`] (span names must be `&'static str`).
const REL_SPAN: [&str; 3] = ["gnn.msg.control", "gnn.msg.data", "gnn.msg.call"];

/// Update function used after message aggregation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UpdateKind {
    /// Gated update (GGNN, Li et al. 2015) — the paper's configuration.
    Gru,
    /// `tanh(W [h ‖ m] + b)`-style GraphSAGE update.
    SageConcat,
    /// `tanh(m + h W_self)` GCN-ish update.
    Gcn,
    /// GAT-style attention: per-edge gates `σ(m_e · a_r)` weight the
    /// aggregation (normalized per destination), GCN-style update.
    Gat,
}

/// A learned embedding table for node vocabulary indices.
pub struct NodeEmbedding {
    table: ParamId,
    pub dim: usize,
}

impl NodeEmbedding {
    pub fn new(ps: &mut ParamSet, name: &str, dim: usize, rng: &mut StdRng) -> NodeEmbedding {
        let table = ps.add(
            format!("{name}.embed"),
            init::uniform(Node::VOCAB_SIZE, dim, 0.5, rng),
        );
        NodeEmbedding { table, dim }
    }

    /// Initial node features `[num_nodes × dim]` for a batch of vocab ids.
    pub fn forward(&self, tape: &mut Tape, ps: &ParamSet, vocab_ids: &[u32]) -> Var {
        let t = tape.param(ps, self.table);
        tape.gather_rows(t, vocab_ids)
    }
}

/// One relation's message transform: `m_v = mean_{u→v} (W_r h_u + b_r)`,
/// or attention-weighted when the layer uses [`UpdateKind::Gat`].
struct RelationMessage {
    w: ParamId,
    b: ParamId,
    /// Attention vector `a_r` (GAT layers only).
    att: Option<ParamId>,
}

impl RelationMessage {
    fn new(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        attention: bool,
        rng: &mut StdRng,
    ) -> RelationMessage {
        RelationMessage {
            w: ps.add(format!("{name}.w"), init::xavier_uniform(dim, dim, rng)),
            b: ps.add(format!("{name}.b"), Tensor::zeros(1, dim)),
            att: attention
                .then(|| ps.add(format!("{name}.att"), init::xavier_uniform(dim, 1, rng))),
        }
    }

    /// Aggregate messages for one relation given its edge endpoints.
    fn forward(
        &self,
        tape: &mut Tape,
        ps: &ParamSet,
        h: Var,
        srcs: &[u32],
        dsts: &[u32],
        num_nodes: usize,
    ) -> Var {
        if srcs.is_empty() {
            let dim = tape.value(h).cols();
            return tape.leaf_zeros(num_nodes, dim);
        }
        let hs = tape.gather_rows(h, srcs);
        let w = tape.param(ps, self.w);
        let b = tape.param(ps, self.b);
        let msg = tape.linear(hs, w, b, FusedAct::Identity);
        match self.att {
            None => tape.scatter_mean_rows(msg, dsts, num_nodes),
            Some(att) => {
                // Per-edge gate σ(m_e · a_r); normalized weighted sum per
                // destination (a sigmoid-gated softening of GAT's softmax
                // that our scatter primitives express exactly).
                let a = tape.param(ps, att);
                let scores = tape.matmul(msg, a);
                let gates = tape.sigmoid(scores);
                let weighted = tape.mul_row_scale(msg, gates);
                let num = tape.scatter_sum_rows(weighted, dsts, num_nodes);
                let den = tape.scatter_sum_rows(gates, dsts, num_nodes);
                let den = tape.add_scalar(den, 1e-6);
                tape.div_row_scale(num, den)
            }
        }
    }
}

/// One heterogeneous message-passing layer: per-relation messages, mean
/// across relations, one shared update.
pub struct MessageLayer {
    relations: Vec<RelationMessage>,
    update: Update,
    homogeneous: bool,
    pub dim: usize,
}

enum Update {
    Gru(GruCell),
    SageConcat { w: ParamId, b: ParamId },
    Gcn { w_self: ParamId },
}

impl MessageLayer {
    pub fn new(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        update: UpdateKind,
        rng: &mut StdRng,
    ) -> MessageLayer {
        Self::with_homogeneous(ps, name, dim, update, false, rng)
    }

    /// Like [`MessageLayer::new`], optionally homogeneous (single shared
    /// relation transform over the union of all edges).
    pub fn with_homogeneous(
        ps: &mut ParamSet,
        name: &str,
        dim: usize,
        update: UpdateKind,
        homogeneous: bool,
        rng: &mut StdRng,
    ) -> MessageLayer {
        let attention = update == UpdateKind::Gat;
        let relations = if homogeneous {
            vec![RelationMessage::new(
                ps,
                &format!("{name}.union"),
                dim,
                attention,
                rng,
            )]
        } else {
            Relation::ALL
                .iter()
                .map(|r| RelationMessage::new(ps, &format!("{name}.{r:?}"), dim, attention, rng))
                .collect()
        };
        let update = match update {
            UpdateKind::Gru => Update::Gru(GruCell::new(ps, &format!("{name}.gru"), dim, dim, rng)),
            UpdateKind::SageConcat => Update::SageConcat {
                w: ps.add(
                    format!("{name}.sage.w"),
                    init::xavier_uniform(2 * dim, dim, rng),
                ),
                b: ps.add(format!("{name}.sage.b"), Tensor::zeros(1, dim)),
            },
            UpdateKind::Gcn | UpdateKind::Gat => Update::Gcn {
                w_self: ps.add(format!("{name}.gcn.w"), init::xavier_uniform(dim, dim, rng)),
            },
        };
        MessageLayer {
            relations,
            update,
            homogeneous,
            dim,
        }
    }

    /// One round of message passing over a batch's edges.
    pub fn forward(&self, tape: &mut Tape, ps: &ParamSet, h: Var, batch: &GraphBatch) -> Var {
        mga_obs::span!("gnn.layer");
        let n = batch.num_nodes;
        let msg = if self.homogeneous {
            // Union of all edges through the single shared transform: the
            // relation identity is erased.
            mga_obs::span!("gnn.msg.union");
            let mut src = Vec::new();
            let mut dst = Vec::new();
            for r in 0..3 {
                src.extend_from_slice(&batch.edge_src[r]);
                dst.extend_from_slice(&batch.edge_dst[r]);
            }
            self.relations[0].forward(tape, ps, h, &src, &dst, n)
        } else {
            // Mean of the per-relation aggregated messages.
            let mut acc: Option<Var> = None;
            for (r, rel) in self.relations.iter().enumerate() {
                let _rel_span = mga_obs::trace::span(REL_SPAN[r]);
                let m = rel.forward(tape, ps, h, &batch.edge_src[r], &batch.edge_dst[r], n);
                drop(_rel_span);
                acc = Some(match acc {
                    None => m,
                    Some(a) => tape.add(a, m),
                });
            }
            let acc = acc.expect("at least one relation");
            tape.scale(acc, 1.0 / self.relations.len() as f32)
        };
        match &self.update {
            Update::Gru(gru) => gru.forward(tape, ps, msg, h),
            Update::SageConcat { w, b } => {
                let cat = tape.concat_cols(&[h, msg]);
                let wv = tape.param(ps, *w);
                let bv = tape.param(ps, *b);
                tape.linear(cat, wv, bv, FusedAct::Tanh)
            }
            Update::Gcn { w_self } => {
                let wv = tape.param(ps, *w_self);
                let hw = tape.matmul(h, wv);
                let s = tape.add(hw, msg);
                tape.tanh(s)
            }
        }
    }
}

/// The full heterogeneous GNN: embedding, stacked message layers, and a
/// per-graph mean readout over instruction nodes.
pub struct HeteroGnn {
    pub embedding: NodeEmbedding,
    pub layers: Vec<MessageLayer>,
}

/// Configuration for [`HeteroGnn`].
#[derive(Debug, Clone)]
pub struct GnnConfig {
    pub dim: usize,
    /// Number of message-passing layers (paper: 2).
    pub layers: usize,
    pub update: UpdateKind,
    /// Ablation: collapse the three flow relations into one homogeneous
    /// edge set with a single shared message transform (§3.2 argues a
    /// homogeneous network cannot fully model the multi-graph).
    pub homogeneous: bool,
}

impl Default for GnnConfig {
    fn default() -> Self {
        GnnConfig {
            dim: 32,
            layers: 2,
            update: UpdateKind::Gru,
            homogeneous: false,
        }
    }
}

impl HeteroGnn {
    pub fn new(ps: &mut ParamSet, name: &str, cfg: &GnnConfig, rng: &mut StdRng) -> HeteroGnn {
        let embedding = NodeEmbedding::new(ps, name, cfg.dim, rng);
        let layers = (0..cfg.layers)
            .map(|i| {
                MessageLayer::with_homogeneous(
                    ps,
                    &format!("{name}.layer{i}"),
                    cfg.dim,
                    cfg.update,
                    cfg.homogeneous,
                    rng,
                )
            })
            .collect();
        HeteroGnn { embedding, layers }
    }

    /// Forward over a batch; returns per-graph embeddings
    /// `[num_graphs × dim]`.
    pub fn forward(&self, tape: &mut Tape, ps: &ParamSet, batch: &GraphBatch) -> Var {
        mga_obs::span!("gnn.forward");
        let mut h = self.embedding.forward(tape, ps, &batch.vocab_ids);
        for layer in &self.layers {
            h = layer.forward(tape, ps, h, batch);
        }
        // Readout: mean over instruction nodes, per graph.
        mga_obs::span!("gnn.readout");
        let hi = tape.gather_rows(h, &batch.instr_nodes);
        tape.scatter_mean_rows(hi, &batch.instr_graph, batch.num_graphs)
    }
}

/// Per-graph extent bookkeeping inside a [`GraphBatch`] — how many
/// nodes, edges (per relation) and instruction nodes one graph
/// contributed. Recorded at pack time so a batch can later be re-sliced
/// into sub-batches ([`GraphBatch::subset`]) without the source
/// [`ProGraph`]s, which prepared training batches no longer hold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GraphSpan {
    pub nodes: u32,
    pub edges: [u32; 3],
    pub instrs: u32,
}

/// Several graphs packed block-diagonally for one forward pass.
pub struct GraphBatch {
    pub num_nodes: usize,
    pub num_graphs: usize,
    /// Vocabulary index of each node.
    pub vocab_ids: Vec<u32>,
    /// Per relation: edge sources/destinations (node-indexed).
    pub edge_src: [Vec<u32>; 3],
    pub edge_dst: [Vec<u32>; 3],
    /// Instruction-node indices (for readout)...
    pub instr_nodes: Vec<u32>,
    /// ...and which graph each instruction node belongs to.
    pub instr_graph: Vec<u32>,
    /// Extent of each packed graph, in pack order.
    pub spans: Vec<GraphSpan>,
}

impl GraphBatch {
    /// Pack a set of graphs into one batch.
    pub fn new(graphs: &[&ProGraph]) -> GraphBatch {
        mga_obs::span!("graph.batch");
        assert!(!graphs.is_empty(), "empty graph batch");
        let mut batch = GraphBatch {
            num_nodes: 0,
            num_graphs: graphs.len(),
            vocab_ids: Vec::new(),
            edge_src: [Vec::new(), Vec::new(), Vec::new()],
            edge_dst: [Vec::new(), Vec::new(), Vec::new()],
            instr_nodes: Vec::new(),
            instr_graph: Vec::new(),
            spans: Vec::with_capacity(graphs.len()),
        };
        for (gi, g) in graphs.iter().enumerate() {
            let base = batch.num_nodes as u32;
            for n in &g.nodes {
                batch.vocab_ids.push(n.vocab_index() as u32);
            }
            let mut edges = [0u32; 3];
            for r in Relation::ALL {
                // The graph's cached endpoint lists (shared with CSR
                // construction) — only the base offset is batch-specific.
                let (srcs, dsts) = g.edge_endpoints(r);
                batch.edge_src[r.index()].extend(srcs.iter().map(|&s| base + s));
                batch.edge_dst[r.index()].extend(dsts.iter().map(|&d| base + d));
                edges[r.index()] = srcs.len() as u32;
            }
            for &i in g.instruction_node_ids() {
                batch.instr_nodes.push(base + i);
                batch.instr_graph.push(gi as u32);
            }
            batch.spans.push(GraphSpan {
                nodes: g.num_nodes() as u32,
                edges,
                instrs: g.instruction_node_ids().len() as u32,
            });
            batch.num_nodes += g.num_nodes();
        }
        batch
    }

    /// Batch of one.
    pub fn single(g: &ProGraph) -> GraphBatch {
        GraphBatch::new(&[g])
    }

    /// Re-pack a subset of this batch's graphs (by ascending pack index)
    /// into a new block-diagonal batch, rebasing node indices.
    ///
    /// Row-stable by the same argument as batching itself: graph
    /// `keep[j]` occupies block `j` of the sub-batch with exactly the
    /// nodes, edges and instruction readout it had in the full batch, so
    /// a forward over the subset produces bitwise the rows the full
    /// batch produced for those graphs. The data-parallel trainer uses
    /// this to hand each micro-batch only the graphs its samples touch.
    pub fn subset(&self, keep: &[usize]) -> GraphBatch {
        assert!(!keep.is_empty(), "empty graph subset");
        // Prefix offsets of every graph's block in the packed arrays.
        let mut node_off = Vec::with_capacity(self.num_graphs);
        let mut edge_off = [
            Vec::with_capacity(self.num_graphs),
            Vec::with_capacity(self.num_graphs),
            Vec::with_capacity(self.num_graphs),
        ];
        let mut instr_off = Vec::with_capacity(self.num_graphs);
        let (mut n, mut e, mut i) = (0u32, [0u32; 3], 0u32);
        for span in &self.spans {
            node_off.push(n);
            instr_off.push(i);
            n += span.nodes;
            i += span.instrs;
            for r in 0..3 {
                edge_off[r].push(e[r]);
                e[r] += span.edges[r];
            }
        }
        let mut sub = GraphBatch {
            num_nodes: 0,
            num_graphs: keep.len(),
            vocab_ids: Vec::new(),
            edge_src: [Vec::new(), Vec::new(), Vec::new()],
            edge_dst: [Vec::new(), Vec::new(), Vec::new()],
            instr_nodes: Vec::new(),
            instr_graph: Vec::new(),
            spans: Vec::with_capacity(keep.len()),
        };
        let mut prev = None;
        for (j, &gi) in keep.iter().enumerate() {
            assert!(prev.is_none_or(|p| p < gi), "subset must be ascending");
            prev = Some(gi);
            let span = self.spans[gi];
            let old_base = node_off[gi];
            let new_base = sub.num_nodes as u32;
            let nodes = old_base as usize..(old_base + span.nodes) as usize;
            sub.vocab_ids.extend_from_slice(&self.vocab_ids[nodes]);
            for (r, off) in edge_off.iter().enumerate() {
                let lo = off[gi] as usize;
                let hi = lo + span.edges[r] as usize;
                sub.edge_src[r].extend(
                    self.edge_src[r][lo..hi]
                        .iter()
                        .map(|&s| s - old_base + new_base),
                );
                sub.edge_dst[r].extend(
                    self.edge_dst[r][lo..hi]
                        .iter()
                        .map(|&d| d - old_base + new_base),
                );
            }
            let lo = instr_off[gi] as usize;
            let hi = lo + span.instrs as usize;
            sub.instr_nodes.extend(
                self.instr_nodes[lo..hi]
                    .iter()
                    .map(|&x| x - old_base + new_base),
            );
            sub.instr_graph.extend((lo..hi).map(|_| j as u32));
            sub.spans.push(span);
            sub.num_nodes += span.nodes as usize;
        }
        sub
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mga_graph::build_function_graph;
    use mga_ir::builder::FunctionBuilder;
    use mga_ir::instr::CmpPred;
    use mga_ir::{Module, Param, Type};
    use mga_nn::optim::AdamW;
    use rand::SeedableRng;

    fn kernel(with_float: bool, nloads: usize) -> ProGraph {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(
            "k",
            vec![
                Param {
                    name: "n".into(),
                    ty: Type::I64,
                },
                Param {
                    name: "a".into(),
                    ty: if with_float {
                        Type::F64.ptr()
                    } else {
                        Type::I64.ptr()
                    },
                },
            ],
            Type::Void,
        );
        let entry = b.current_block();
        let header = b.create_block("header");
        let body = b.create_block("body");
        let exit = b.create_block("exit");
        let zero = b.const_i64(0);
        b.br(header);
        b.switch_to(header);
        let (i, ip) = b.phi_begin(Type::I64);
        let c = b.icmp(CmpPred::Lt, i, b.param(0));
        b.cond_br(c, body, exit);
        b.switch_to(body);
        for _ in 0..nloads {
            let p = b.gep(b.param(1), i);
            let v = b.load(p);
            let v2 = if with_float {
                let two = b.const_f64(2.0);
                b.fmul(v, two)
            } else {
                let two = b.const_i64(2);
                b.mul(v, two)
            };
            b.store(v2, p);
        }
        let one = b.const_i64(1);
        let ix = b.add(i, one);
        b.br(header);
        b.phi_finish(ip, vec![(entry, zero), (body, ix)]);
        b.switch_to(exit);
        b.ret_void();
        let f = b.finish();
        m.add_function(f);
        build_function_graph(&m, &m.functions[0])
    }

    #[test]
    fn forward_produces_graph_embeddings() {
        let g1 = kernel(true, 1);
        let g2 = kernel(false, 3);
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(1);
        let gnn = HeteroGnn::new(&mut ps, "g", &GnnConfig::default(), &mut rng);
        let batch = GraphBatch::new(&[&g1, &g2]);
        let mut tape = Tape::new();
        let out = gnn.forward(&mut tape, &ps, &batch);
        assert_eq!(tape.value(out).shape(), (2, 32));
        // Different graphs produce different embeddings.
        let a = tape.value(out).row_slice(0).to_vec();
        let b = tape.value(out).row_slice(1).to_vec();
        assert_ne!(a, b);
    }

    #[test]
    fn batched_forward_matches_individual_forward() {
        let g1 = kernel(true, 2);
        let g2 = kernel(false, 1);
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(2);
        let gnn = HeteroGnn::new(&mut ps, "g", &GnnConfig::default(), &mut rng);

        let batch = GraphBatch::new(&[&g1, &g2]);
        let mut tape = Tape::new();
        let out = gnn.forward(&mut tape, &ps, &batch);
        let batched0 = tape.value(out).row_slice(0).to_vec();
        let batched1 = tape.value(out).row_slice(1).to_vec();

        let mut t1 = Tape::new();
        let o1 = gnn.forward(&mut t1, &ps, &GraphBatch::single(&g1));
        let solo0 = t1.value(o1).row_slice(0).to_vec();
        let mut t2 = Tape::new();
        let o2 = gnn.forward(&mut t2, &ps, &GraphBatch::single(&g2));
        let solo1 = t2.value(o2).row_slice(0).to_vec();

        for (a, b) in batched0.iter().zip(&solo0) {
            assert!((a - b).abs() < 1e-5, "batching changed graph 0: {a} vs {b}");
        }
        for (a, b) in batched1.iter().zip(&solo1) {
            assert!((a - b).abs() < 1e-5, "batching changed graph 1: {a} vs {b}");
        }
    }

    /// `subset` must reproduce the full batch's readout rows *bitwise*:
    /// the data-parallel trainer leans on this to split an epoch's graph
    /// work across micro-batches without changing any float.
    #[test]
    fn subset_forward_is_bitwise_row_stable() {
        let graphs: Vec<ProGraph> = (1..=4)
            .flat_map(|n| [kernel(true, n), kernel(false, n)])
            .collect();
        let refs: Vec<&ProGraph> = graphs.iter().collect();
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let gnn = HeteroGnn::new(&mut ps, "g", &GnnConfig::default(), &mut rng);

        let full = GraphBatch::new(&refs);
        let mut tape = Tape::new();
        let out = gnn.forward(&mut tape, &ps, &full);
        let full_rows: Vec<Vec<f32>> = (0..full.num_graphs)
            .map(|g| tape.value(out).row_slice(g).to_vec())
            .collect();

        for keep in [
            vec![0],
            vec![3, 7],
            vec![1, 2, 5],
            vec![0, 1, 2, 3, 4, 5, 6, 7],
        ] {
            let sub = full.subset(&keep);
            assert_eq!(sub.num_graphs, keep.len());
            let mut t = Tape::new();
            let o = gnn.forward(&mut t, &ps, &sub);
            for (j, &gi) in keep.iter().enumerate() {
                assert_eq!(
                    t.value(o).row_slice(j),
                    full_rows[gi].as_slice(),
                    "subset {keep:?} row {j} (graph {gi}) must be bitwise identical"
                );
            }
        }
    }

    /// Spans recorded at pack time describe exactly the packed extents.
    #[test]
    fn spans_account_for_every_packed_element() {
        let g1 = kernel(true, 2);
        let g2 = kernel(false, 3);
        let batch = GraphBatch::new(&[&g1, &g2]);
        assert_eq!(batch.spans.len(), 2);
        let nodes: u32 = batch.spans.iter().map(|s| s.nodes).sum();
        assert_eq!(nodes as usize, batch.num_nodes);
        for r in 0..3 {
            let edges: u32 = batch.spans.iter().map(|s| s.edges[r]).sum();
            assert_eq!(edges as usize, batch.edge_src[r].len());
        }
        let instrs: u32 = batch.spans.iter().map(|s| s.instrs).sum();
        assert_eq!(instrs as usize, batch.instr_nodes.len());
    }

    #[test]
    fn gnn_learns_to_separate_two_classes() {
        // Float kernels are class 1, int kernels class 0; the GNN must
        // learn this from node vocabularies/structure alone.
        let graphs: Vec<ProGraph> = (1..=4)
            .flat_map(|n| [kernel(true, n), kernel(false, n)])
            .collect();
        let labels: Vec<u32> = (0..graphs.len() as u32).map(|i| 1 - (i % 2)).collect();
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(3);
        let cfg = GnnConfig {
            dim: 16,
            layers: 2,
            update: UpdateKind::Gru,
            homogeneous: false,
        };
        let gnn = HeteroGnn::new(&mut ps, "g", &cfg, &mut rng);
        let head_w = ps.add("head.w", init::xavier_uniform(16, 2, &mut rng));
        let head_b = ps.add("head.b", Tensor::zeros(1, 2));
        let mut opt = AdamW::new(0.02).with_weight_decay(0.0);
        let refs: Vec<&ProGraph> = graphs.iter().collect();
        let batch = GraphBatch::new(&refs);
        let mut last = f32::MAX;
        for _ in 0..60 {
            let mut tape = Tape::new();
            let emb = gnn.forward(&mut tape, &ps, &batch);
            let w = tape.param(&ps, head_w);
            let b = tape.param(&ps, head_b);
            let logits = tape.matmul(emb, w);
            let logits = tape.add_bias(logits, b);
            let loss = tape.softmax_cross_entropy(logits, &labels);
            last = tape.value(loss).get(0, 0);
            tape.backward(loss);
            tape.accumulate_param_grads(&mut ps);
            opt.step(&mut ps);
        }
        assert!(last < 0.1, "GNN failed to fit simple classes: loss {last}");
    }

    #[test]
    fn all_update_kinds_run_and_differ() {
        let g = kernel(true, 2);
        let batch = GraphBatch::single(&g);
        let mut outs = Vec::new();
        for (i, kind) in [
            UpdateKind::Gru,
            UpdateKind::SageConcat,
            UpdateKind::Gcn,
            UpdateKind::Gat,
        ]
        .into_iter()
        .enumerate()
        {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(100 + i as u64);
            let cfg = GnnConfig {
                dim: 8,
                layers: 2,
                update: kind,
                homogeneous: false,
            };
            let gnn = HeteroGnn::new(&mut ps, "g", &cfg, &mut rng);
            let mut tape = Tape::new();
            let out = gnn.forward(&mut tape, &ps, &batch);
            assert_eq!(tape.value(out).shape(), (1, 8));
            outs.push(tape.value(out).row_slice(0).to_vec());
        }
        assert_ne!(outs[0], outs[1]);
        assert_ne!(outs[1], outs[2]);
        assert_ne!(outs[2], outs[3], "GAT must differ from plain GCN");
    }

    #[test]
    fn gat_attention_params_receive_gradient() {
        let g = kernel(true, 2);
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(23);
        let cfg = GnnConfig {
            dim: 8,
            layers: 1,
            update: UpdateKind::Gat,
            homogeneous: false,
        };
        let gnn = HeteroGnn::new(&mut ps, "g", &cfg, &mut rng);
        let batch = GraphBatch::single(&g);
        let mut tape = Tape::new();
        let out = gnn.forward(&mut tape, &ps, &batch);
        let loss = tape.mse_loss(out, &Tensor::zeros(1, 8));
        tape.backward(loss);
        tape.accumulate_param_grads(&mut ps);
        let att_params: Vec<_> = ps
            .ids()
            .filter(|&id| ps.name(id).contains(".att"))
            .collect();
        assert_eq!(att_params.len(), 3, "one attention vector per relation");
        assert!(
            att_params.iter().any(|&id| ps.grad(id).norm() > 0.0),
            "no gradient reached any attention vector"
        );
    }

    #[test]
    fn homogeneous_ablation_differs_and_trains() {
        let g = kernel(true, 2);
        let batch = GraphBatch::single(&g);
        let make = |homogeneous: bool| {
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(77);
            let cfg = GnnConfig {
                dim: 8,
                layers: 2,
                update: UpdateKind::Gru,
                homogeneous,
            };
            let gnn = HeteroGnn::new(&mut ps, "g", &cfg, &mut rng);
            let mut tape = Tape::new();
            let out = gnn.forward(&mut tape, &ps, &batch);
            (tape.value(out).row_slice(0).to_vec(), ps.len())
        };
        let (het, het_params) = make(false);
        let (hom, hom_params) = make(true);
        assert_ne!(het, hom, "homogeneous collapse changed nothing");
        assert!(
            hom_params < het_params,
            "homogeneous model must have fewer parameter tensors"
        );
    }

    fn bits(xs: &[f32]) -> Vec<u32> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// A graph with no instruction node — no nodes at all, or variables
    /// and constants only — reads out as an exact `+0.0` row under every
    /// update kind, homogeneous too; the other rows of its batch keep
    /// their single-graph bits, and backward runs through the batch.
    /// `FusionModel` packs such graphs like any other and relies on this.
    #[test]
    fn graphs_without_instructions_read_out_as_zero_rows() {
        use mga_graph::{Edge, NodeKind};
        let g = kernel(true, 2);
        let empty = ProGraph::default();
        let mut no_instr = ProGraph::default();
        no_instr.nodes = [
            NodeKind::Variable(0),
            NodeKind::Constant(1),
            NodeKind::ExternalEntry,
        ]
        .map(|kind| Node { kind })
        .to_vec();
        no_instr.edges[Relation::Data.index()] = vec![Edge {
            src: 1,
            dst: 0,
            pos: 0,
        }];
        no_instr.edges[Relation::Call.index()] = vec![Edge {
            src: 2,
            dst: 0,
            pos: 0,
        }];
        let configs = [
            (UpdateKind::Gru, false),
            (UpdateKind::SageConcat, false),
            (UpdateKind::Gcn, false),
            (UpdateKind::Gat, false),
            (UpdateKind::Gru, true),
        ];
        for (i, (update, homogeneous)) in configs.into_iter().enumerate() {
            let what = format!("{update:?}, homogeneous {homogeneous}");
            let mut ps = ParamSet::new();
            let mut rng = StdRng::seed_from_u64(40 + i as u64);
            let cfg = GnnConfig {
                dim: 8,
                layers: 2,
                update,
                homogeneous,
            };
            let gnn = HeteroGnn::new(&mut ps, "g", &cfg, &mut rng);

            let mut solo = Tape::new();
            let o = gnn.forward(&mut solo, &ps, &GraphBatch::single(&g));
            let want = bits(solo.value(o).row_slice(0));

            let mut tape = Tape::new();
            let batch = GraphBatch::new(&[&empty, &g, &no_instr]);
            let out = gnn.forward(&mut tape, &ps, &batch);
            let rows = tape.value(out);
            assert_eq!(rows.shape(), (3, 8), "{what}");
            for r in [0, 2] {
                assert_eq!(bits(rows.row_slice(r)), [0; 8], "{what}: row {r}");
            }
            assert_eq!(bits(rows.row_slice(1)), want, "{what}: row 1");
            let loss = tape.mse_loss(out, &Tensor::full(3, 8, 1.0));
            tape.backward(loss);
            tape.accumulate_param_grads(&mut ps);
            assert!(
                ps.ids().any(|id| ps.grad(id).norm() > 0.0),
                "{what}: the real graph must send gradient"
            );

            let mut tape = Tape::new();
            let out = gnn.forward(&mut tape, &ps, &GraphBatch::new(&[&empty, &no_instr]));
            assert_eq!(
                bits(tape.value(out).data()),
                [0; 16],
                "{what}: all degenerate"
            );
            let loss = tape.mse_loss(out, &Tensor::full(2, 8, 1.0));
            tape.backward(loss);
        }
    }

    #[test]
    fn gradients_reach_embedding_table() {
        let g = kernel(true, 1);
        let mut ps = ParamSet::new();
        let mut rng = StdRng::seed_from_u64(5);
        let gnn = HeteroGnn::new(&mut ps, "g", &GnnConfig::default(), &mut rng);
        let batch = GraphBatch::single(&g);
        let mut tape = Tape::new();
        let out = gnn.forward(&mut tape, &ps, &batch);
        let loss = tape.mse_loss(out, &Tensor::zeros(1, 32));
        tape.backward(loss);
        tape.accumulate_param_grads(&mut ps);
        let emb_grad = ps.grad(gnn.embedding.table);
        assert!(emb_grad.norm() > 0.0, "no gradient into embedding table");
    }
}
