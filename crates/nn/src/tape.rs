//! Reverse-mode automatic differentiation over an explicit op tape,
//! with a reset-and-replay memory plan.
//!
//! A [`Tape`] records leaves (data tensors or parameter snapshots tagged
//! with their [`ParamId`]) and interior nodes (op + operands);
//! [`Tape::backward`] walks the tape in reverse accumulating gradients
//! in place, and [`Tape::accumulate_param_grads`] flushes leaf gradients
//! into the shared [`ParamSet`] for the optimizer.
//!
//! Instead of being rebuilt from scratch every forward pass, a tape can
//! be [`Tape::reset`] and replayed: the node list keeps its buffers, and
//! when the next pass records the same op sequence with the same shapes
//! (the steady state of epoch training over a fixed `PreparedBatch`),
//! every value/grad/aux tensor and every boxed index list is reused —
//! zero heap allocation. Shape or op mismatches fall back to
//! reallocation (counted by the [`crate::arena::Arena`]), so replay is a
//! best-effort optimization, never a correctness requirement. Replay is
//! bitwise-safe because every builder fully overwrites its output
//! buffer (or zero-fills before accumulating) with the exact same
//! kernels and accumulation order as a fresh tape.
//!
//! Besides the dense ops, the tape has the segment ops graph networks
//! need: [`Tape::gather_rows`] (edge-source lookup) and
//! [`Tape::scatter_mean_rows`] (mean aggregation of messages per target
//! node), both differentiable — plus fused linear ops
//! ([`Tape::linear`], [`Tape::linear2`]) that evaluate
//! `act(x·w [+ x2·w2] + bias)` as one op while keeping gradients and
//! rounding bitwise-identical to the unfused op sequence.

use crate::aligned::AlignedVec;
use crate::arena::Arena;
use crate::ew;
use crate::params::{ParamId, ParamSet};
use crate::segment;
use crate::tensor::{self, Tensor};

/// Handle to a node on the tape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Var(usize);

/// Activation fused into [`Tape::linear`] / [`Tape::linear2`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedAct {
    Identity,
    Relu,
    Sigmoid,
    Tanh,
}

impl FusedAct {
    /// `out[r][j] = act(out[r][j] + bias[j])` for each row of `out` (row
    /// length `bias.len()`): the bias+activation tail of the fused linear
    /// kernel, shared by the tape and the grad-free serving kernels.
    ///
    /// Identity and Relu run one row loop. Sigmoid and Tanh add the bias
    /// row by row and then apply the activation over the whole buffer in
    /// flat chunks, so a narrow row does not block vectorization; each
    /// element still computes `act(o + b)` with the same roundings.
    pub fn bias_act(self, out: &mut [f32], bias: &[f32]) {
        match self {
            FusedAct::Identity => ew::bias_act(out, bias, |z| z),
            FusedAct::Relu => ew::bias_act(out, bias, |z| z.max(0.0)),
            FusedAct::Sigmoid => {
                ew::bias_act(out, bias, |z| z);
                ew::map1_in_place(out, ew::sigmoid);
            }
            FusedAct::Tanh => {
                ew::bias_act(out, bias, |z| z);
                ew::map1_in_place(out, ew::tanh);
            }
        }
    }
}

enum Op {
    Leaf {
        param: Option<ParamId>,
    },
    Add(Var, Var),
    Sub(Var, Var),
    Mul(Var, Var),
    Scale(Var, f32),
    MatMul(Var, Var),
    /// Add a `[1 × c]` bias row to every row of `a`.
    AddBias(Var, Var),
    Sigmoid(Var),
    Tanh(Var),
    Relu(Var),
    /// Column-wise concatenation.
    ConcatCols(Vec<Var>),
    /// out[i] = a[index[i]] (row gather).
    GatherRows(Var, Box<[u32]>),
    /// out[index[i]] += a[i] (row scatter-add).
    ScatterSumRows {
        src: Var,
        index: Box<[u32]>,
    },
    /// Like scatter-sum but divides each output row by its in-degree
    /// (rows with no contributions stay zero). `aux` caches the per-row
    /// 1/count scale so the backward gather never recomputes it.
    ScatterMeanRows {
        src: Var,
        index: Box<[u32]>,
        out_rows: usize,
    },
    /// Scalar mean softmax cross-entropy against integer class targets.
    /// `aux` caches the softmax probabilities.
    SoftmaxCrossEntropy {
        logits: Var,
        targets: Box<[u32]>,
    },
    /// Scalar mean squared error against a constant target tensor (stored
    /// in `aux`).
    MseLoss(Var),
    /// Multiply by a cached 0/1-scaled mask (inverted dropout); the mask
    /// lives in `aux`.
    Dropout(Var),
    /// `out[i][j] = a[i][j] * s[i][0]` — scale each row of `a` by the
    /// matching entry of the column vector `s` (attention weights).
    MulRowScale(Var, Var),
    /// `out[i][j] = a[i][j] / s[i][0]` — per-row division (attention
    /// normalization).
    DivRowScale(Var, Var),
    /// `act((x·w [+ x2·w2]) + bias)` as one op. Each `+` is its own
    /// rounding step in the forward kernel, and the backward dispatches
    /// in the unfused reverse-tape order (bias, then the x2/w2 pair,
    /// then x/w; input-grad before weight-grad), so both directions are
    /// bit-identical to the separate ops.
    FusedLinear {
        x: Var,
        w: Var,
        x2w2: Option<(Var, Var)>,
        bias: Var,
        act: FusedAct,
    },
}

struct Node {
    op: Op,
    value: Tensor,
    /// Gradient buffer; meaningful only when `has_grad` (stale contents
    /// from a previous pass otherwise — never read, fully overwritten on
    /// the first contribution).
    grad: Tensor,
    has_grad: bool,
    /// Op-specific cache (softmax probs, dropout mask, mse target,
    /// scatter-mean inverse counts); rewritten by each forward pass.
    aux: Tensor,
}

impl Node {
    fn fresh(value: Tensor) -> Node {
        Node {
            op: Op::Leaf { param: None },
            value,
            grad: Tensor::empty(),
            has_grad: false,
            aux: Tensor::empty(),
        }
    }
}

/// The autograd tape.
#[derive(Default)]
pub struct Tape {
    nodes: Vec<Node>,
    /// Nodes `[0, live)` belong to the current pass; anything beyond is
    /// retained storage from a longer previous pass.
    live: usize,
    /// True when this pass runs over a previously recorded node list.
    replaying: bool,
    arena: Arena,
    pass_alloc_start: u64,
    pass_reuse_start: u64,
}

impl Tape {
    pub fn new() -> Tape {
        Tape::default()
    }

    /// Start a new pass, keeping every node buffer for replay. Must be
    /// called between forward passes on a persistent tape.
    pub fn reset(&mut self) {
        self.replaying = !self.nodes.is_empty();
        self.live = 0;
        for n in &mut self.nodes {
            n.has_grad = false;
        }
        self.pass_alloc_start = self.arena.alloc_bytes();
        self.pass_reuse_start = self.arena.reuse_count();
    }

    /// Whether the current pass replays a previously recorded one.
    pub fn replaying(&self) -> bool {
        self.replaying
    }

    /// Total bytes of tape-tensor heap allocation since creation.
    pub fn alloc_bytes(&self) -> u64 {
        self.arena.alloc_bytes()
    }

    /// Total buffer reuses since creation.
    pub fn arena_reuse(&self) -> u64 {
        self.arena.reuse_count()
    }

    /// Bytes allocated during the current pass (since [`Tape::reset`]).
    /// Zero in the steady state.
    pub fn pass_alloc_bytes(&self) -> u64 {
        self.arena.alloc_bytes() - self.pass_alloc_start
    }

    /// Buffer reuses during the current pass (since [`Tape::reset`]).
    pub fn pass_reuse_count(&self) -> u64 {
        self.arena.reuse_count() - self.pass_reuse_start
    }

    /// Number of nodes recorded by the current pass.
    pub fn len(&self) -> usize {
        self.live
    }

    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The value of a node.
    pub fn value(&self, v: Var) -> &Tensor {
        &self.nodes[v.0].value
    }

    /// The gradient of a node after [`Tape::backward`], or `None` if it
    /// never received one.
    pub fn grad(&self, v: Var) -> Option<&Tensor> {
        let n = &self.nodes[v.0];
        if n.has_grad {
            Some(&n.grad)
        } else {
            None
        }
    }

    // ---- node lifecycle ----------------------------------------------------

    /// Claim the next node slot with a `rows × cols` value buffer whose
    /// contents are unspecified (the builder must fully overwrite or
    /// zero-fill it). On replay with a matching shape this is free.
    fn begin(&mut self, rows: usize, cols: usize) -> usize {
        let id = self.live;
        if id < self.nodes.len() {
            let n = &mut self.nodes[id];
            if n.value.shape() == (rows, cols) {
                self.arena.note_reuse();
            } else {
                let grew = n.value.reset_shape(rows, cols);
                if grew > 0 {
                    self.arena.note_alloc(grew);
                } else {
                    self.arena.note_reuse();
                }
            }
        } else {
            self.nodes.push(Node::fresh(Tensor::zeros(rows, cols)));
            self.arena
                .note_alloc(rows * cols * std::mem::size_of::<f32>());
        }
        id
    }

    fn seal(&mut self, id: usize) -> Var {
        self.live = id + 1;
        Var(id)
    }

    fn finish(&mut self, id: usize, op: Op) -> Var {
        self.nodes[id].op = op;
        self.seal(id)
    }

    /// Make `nodes[id].aux` a `rows × cols` buffer (unspecified
    /// contents), recycling through the arena on shape change.
    fn ensure_aux(&mut self, id: usize, rows: usize, cols: usize) {
        let Tape { nodes, arena, .. } = self;
        let n = &mut nodes[id];
        if n.aux.shape() != (rows, cols) {
            arena.give(n.aux.take_data());
            let buf = arena.take_persistent(rows * cols);
            n.aux.adopt(rows, cols, buf);
        }
    }

    // ---- graph construction ------------------------------------------------

    /// A constant/input leaf (takes ownership; on replay the stored
    /// buffer is reused and `value`'s buffer is dropped — prefer
    /// [`Tape::leaf_ref`] on hot paths to avoid the caller-side
    /// allocation entirely).
    pub fn leaf(&mut self, value: Tensor) -> Var {
        let id = self.live;
        if id < self.nodes.len() && self.nodes[id].value.shape() == value.shape() {
            self.nodes[id].value.copy_from(&value);
            self.arena.note_reuse();
        } else {
            self.arena
                .note_alloc(value.len() * std::mem::size_of::<f32>());
            if id < self.nodes.len() {
                self.nodes[id].value = value;
            } else {
                self.nodes.push(Node::fresh(value));
            }
        }
        self.finish(id, Op::Leaf { param: None })
    }

    /// A constant/input leaf copied from a borrowed tensor — the
    /// zero-allocation path on replay.
    pub fn leaf_ref(&mut self, value: &Tensor) -> Var {
        let id = self.live;
        if id < self.nodes.len() && self.nodes[id].value.shape() == value.shape() {
            self.nodes[id].value.copy_from(value);
            self.arena.note_reuse();
        } else {
            self.arena
                .note_alloc(value.len() * std::mem::size_of::<f32>());
            let t = value.clone();
            if id < self.nodes.len() {
                self.nodes[id].value = t;
            } else {
                self.nodes.push(Node::fresh(t));
            }
        }
        self.finish(id, Op::Leaf { param: None })
    }

    /// A constant/input leaf copied from a contiguous row range
    /// `[lo, hi)` of a borrowed tensor — lets micro-batches feed
    /// per-sample tables (aux features, targets) without materializing
    /// the slice, with the same zero-allocation replay as
    /// [`Tape::leaf_ref`].
    pub fn leaf_rows(&mut self, value: &Tensor, lo: usize, hi: usize) -> Var {
        assert!(lo <= hi && hi <= value.rows(), "leaf_rows out of range");
        let cols = value.cols();
        let id = self.begin(hi - lo, cols);
        self.nodes[id]
            .value
            .data_mut()
            .copy_from_slice(&value.data()[lo * cols..hi * cols]);
        self.finish(id, Op::Leaf { param: None })
    }

    /// An all-zeros leaf (recycles its buffer on replay).
    pub fn leaf_zeros(&mut self, rows: usize, cols: usize) -> Var {
        let id = self.begin(rows, cols);
        self.nodes[id].value.data_mut().fill(0.0);
        self.finish(id, Op::Leaf { param: None })
    }

    /// A parameter leaf: snapshots the current parameter value and tags
    /// the node so [`Tape::accumulate_param_grads`] can route its gradient.
    pub fn param(&mut self, ps: &ParamSet, id: ParamId) -> Var {
        let value = ps.value(id);
        let slot = self.live;
        if slot < self.nodes.len() && self.nodes[slot].value.shape() == value.shape() {
            self.nodes[slot].value.copy_from(value);
            self.arena.note_reuse();
        } else {
            self.arena
                .note_alloc(value.len() * std::mem::size_of::<f32>());
            let t = value.clone();
            if slot < self.nodes.len() {
                self.nodes[slot].value = t;
            } else {
                self.nodes.push(Node::fresh(t));
            }
        }
        self.finish(slot, Op::Leaf { param: Some(id) })
    }

    pub fn add(&mut self, a: Var, b: Var) -> Var {
        let shape = self.value(a).shape();
        assert_eq!(shape, self.value(b).shape(), "zip shape mismatch");
        let id = self.begin(shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        ew::map2_to(
            node.value.data_mut(),
            prev[a.0].value.data(),
            prev[b.0].value.data(),
            |x, y| x + y,
        );
        self.finish(id, Op::Add(a, b))
    }

    pub fn sub(&mut self, a: Var, b: Var) -> Var {
        let shape = self.value(a).shape();
        assert_eq!(shape, self.value(b).shape(), "zip shape mismatch");
        let id = self.begin(shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        ew::map2_to(
            node.value.data_mut(),
            prev[a.0].value.data(),
            prev[b.0].value.data(),
            |x, y| x - y,
        );
        self.finish(id, Op::Sub(a, b))
    }

    pub fn mul(&mut self, a: Var, b: Var) -> Var {
        let shape = self.value(a).shape();
        assert_eq!(shape, self.value(b).shape(), "zip shape mismatch");
        let id = self.begin(shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        ew::map2_to(
            node.value.data_mut(),
            prev[a.0].value.data(),
            prev[b.0].value.data(),
            |x, y| x * y,
        );
        self.finish(id, Op::Mul(a, b))
    }

    pub fn scale(&mut self, a: Var, alpha: f32) -> Var {
        let shape = self.value(a).shape();
        let id = self.begin(shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        ew::map1_to(node.value.data_mut(), prev[a.0].value.data(), |x| x * alpha);
        self.finish(id, Op::Scale(a, alpha))
    }

    pub fn matmul(&mut self, a: Var, b: Var) -> Var {
        let (m, k) = self.value(a).shape();
        let (k2, n) = self.value(b).shape();
        assert_eq!(k, k2, "matmul inner-dimension mismatch: {m}x{k} × {k2}x{n}");
        let id = self.begin(m, n);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        let out = node.value.data_mut();
        out.fill(0.0);
        tensor::matmul_into(out, prev[a.0].value.data(), m, k, prev[b.0].value.data(), n);
        self.finish(id, Op::MatMul(a, b))
    }

    /// `a + bias` where `bias` is `[1 × cols]`, broadcast over rows.
    pub fn add_bias(&mut self, a: Var, bias: Var) -> Var {
        let (r, c) = self.value(a).shape();
        assert_eq!(self.value(bias).shape(), (1, c), "bias must be [1 x cols]");
        let id = self.begin(r, c);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        node.value
            .data_mut()
            .copy_from_slice(prev[a.0].value.data());
        ew::bias_act(
            node.value.data_mut(),
            prev[bias.0].value.row_slice(0),
            |z| z,
        );
        self.finish(id, Op::AddBias(a, bias))
    }

    pub fn sigmoid(&mut self, a: Var) -> Var {
        let shape = self.value(a).shape();
        let id = self.begin(shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        ew::map1_to(node.value.data_mut(), prev[a.0].value.data(), ew::sigmoid);
        self.finish(id, Op::Sigmoid(a))
    }

    pub fn tanh(&mut self, a: Var) -> Var {
        let shape = self.value(a).shape();
        let id = self.begin(shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        ew::map1_to(node.value.data_mut(), prev[a.0].value.data(), ew::tanh);
        self.finish(id, Op::Tanh(a))
    }

    pub fn relu(&mut self, a: Var) -> Var {
        let shape = self.value(a).shape();
        let id = self.begin(shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        ew::map1_to(node.value.data_mut(), prev[a.0].value.data(), |x| {
            x.max(0.0)
        });
        self.finish(id, Op::Relu(a))
    }

    /// Concatenate along columns (all inputs must have equal row counts).
    pub fn concat_cols(&mut self, parts: &[Var]) -> Var {
        assert!(!parts.is_empty(), "concat of nothing");
        let rows = self.value(parts[0]).rows();
        let total: usize = parts.iter().map(|&p| self.value(p).cols()).sum();
        let id = self.begin(rows, total);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        let mut off = 0;
        for &p in parts {
            let t = &prev[p.0].value;
            assert_eq!(t.rows(), rows, "concat_cols row mismatch");
            let c = t.cols();
            for r in 0..rows {
                node.value.row_slice_mut(r)[off..off + c].copy_from_slice(t.row_slice(r));
            }
            off += c;
        }
        let keep = matches!(&self.nodes[id].op, Op::ConcatCols(pv) if pv.as_slice() == parts);
        if !keep {
            self.arena.note_alloc(std::mem::size_of_val(parts));
            self.nodes[id].op = Op::ConcatCols(parts.to_vec());
        }
        self.seal(id)
    }

    /// Row gather: `out[i] = a[index[i]]`.
    pub fn gather_rows(&mut self, a: Var, index: &[u32]) -> Var {
        let cols = self.value(a).cols();
        let id = self.begin(index.len(), cols);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        segment::gather_rows_into(node.value.data_mut(), prev[a.0].value.data(), cols, index);
        let keep = matches!(&self.nodes[id].op,
            Op::GatherRows(pa, pidx) if *pa == a && pidx.as_ref() == index);
        if !keep {
            self.arena.note_alloc(std::mem::size_of_val(index));
            self.nodes[id].op = Op::GatherRows(a, index.into());
        }
        self.seal(id)
    }

    /// Row scatter-add: `out[index[i]] += a[i]`, output has `out_rows` rows.
    pub fn scatter_sum_rows(&mut self, src: Var, index: &[u32], out_rows: usize) -> Var {
        let t = self.value(src);
        assert_eq!(t.rows(), index.len(), "scatter index length mismatch");
        let cols = t.cols();
        let id = self.begin(out_rows, cols);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        let out = node.value.data_mut();
        out.fill(0.0);
        segment::scatter_rows_into(out, out_rows, prev[src.0].value.data(), cols, index, false);
        let keep = matches!(&self.nodes[id].op,
            Op::ScatterSumRows { src: ps, index: pidx } if *ps == src && pidx.as_ref() == index);
        if !keep {
            self.arena.note_alloc(std::mem::size_of_val(index));
            self.nodes[id].op = Op::ScatterSumRows {
                src,
                index: index.into(),
            };
        }
        self.seal(id)
    }

    /// Row scatter-mean: like scatter-add but each output row is divided by
    /// the number of contributions it received (untouched rows stay zero).
    pub fn scatter_mean_rows(&mut self, src: Var, index: &[u32], out_rows: usize) -> Var {
        let t = self.value(src);
        assert_eq!(t.rows(), index.len(), "scatter index length mismatch");
        let cols = t.cols();
        let id = self.begin(out_rows, cols);
        self.ensure_aux(id, 1, out_rows);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        let out = node.value.data_mut();
        out.fill(0.0);
        segment::scatter_rows_into(out, out_rows, prev[src.0].value.data(), cols, index, true);
        // Cache the backward's per-row 1/count scale (counts are small
        // integers, exact in f32, so counting in the f32 buffer is
        // bit-identical to the u32 path).
        let inv = node.aux.data_mut();
        inv.fill(0.0);
        for &d in index {
            inv[d as usize] += 1.0;
        }
        for x in inv.iter_mut() {
            *x = 1.0 / x.max(1.0);
        }
        let keep = matches!(&self.nodes[id].op,
            Op::ScatterMeanRows { src: ps, index: pidx, out_rows: pr }
                if *ps == src && pidx.as_ref() == index && *pr == out_rows);
        if !keep {
            self.arena.note_alloc(std::mem::size_of_val(index));
            self.nodes[id].op = Op::ScatterMeanRows {
                src,
                index: index.into(),
                out_rows,
            };
        }
        self.seal(id)
    }

    /// Mean softmax cross-entropy of `logits` `[n × k]` against integer
    /// targets `[n]`; returns a `[1 × 1]` loss.
    pub fn softmax_cross_entropy(&mut self, logits: Var, targets: &[u32]) -> Var {
        let (n, k) = self.value(logits).shape();
        assert_eq!(n, targets.len(), "target length mismatch");
        let id = self.begin(1, 1);
        self.ensure_aux(id, n, k);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        let t = &prev[logits.0].value;
        let probs = &mut node.aux;
        let mut loss = 0.0f64;
        #[allow(clippy::needless_range_loop)] // row-major softmax is clearest indexed
        for i in 0..n {
            let row = t.row_slice(i);
            let max = row.iter().cloned().fold(f32::NEG_INFINITY, f32::max);
            let mut denom = 0.0f32;
            for (j, &x) in row.iter().enumerate() {
                let e = (x - max).exp();
                probs.set(i, j, e);
                denom += e;
            }
            for j in 0..k {
                let p = probs.get(i, j) / denom;
                probs.set(i, j, p);
            }
            let target = targets[i] as usize;
            assert!(target < k, "target class {target} out of range");
            loss -= (probs.get(i, target).max(1e-12) as f64).ln();
        }
        node.value.data_mut()[0] = (loss / n as f64) as f32;
        let keep = matches!(&self.nodes[id].op,
            Op::SoftmaxCrossEntropy { logits: pl, targets: pt }
                if *pl == logits && pt.as_ref() == targets);
        if !keep {
            self.arena.note_alloc(std::mem::size_of_val(targets));
            self.nodes[id].op = Op::SoftmaxCrossEntropy {
                logits,
                targets: targets.into(),
            };
        }
        self.seal(id)
    }

    /// Mean squared error of `pred` against a constant `target` tensor;
    /// returns a `[1 × 1]` loss.
    pub fn mse_loss(&mut self, pred: Var, target: &Tensor) -> Var {
        let shape = self.value(pred).shape();
        assert_eq!(shape, target.shape(), "mse shape mismatch");
        let id = self.begin(1, 1);
        self.ensure_aux(id, shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        node.aux.data_mut().copy_from_slice(target.data());
        let p = &prev[pred.0].value;
        let n = p.len() as f32;
        let loss: f32 = p
            .data()
            .iter()
            .zip(target.data())
            .map(|(&a, &b)| (a - b) * (a - b))
            .sum::<f32>()
            / n;
        node.value.data_mut()[0] = loss;
        self.finish(id, Op::MseLoss(pred))
    }

    /// Row-wise scaling: `out[i][·] = a[i][·] * s[i][0]` for a column
    /// vector `s` of shape `[rows × 1]`.
    pub fn mul_row_scale(&mut self, a: Var, s: Var) -> Var {
        let (r, c) = self.value(a).shape();
        assert_eq!(self.value(s).shape(), (r, 1), "scale must be [rows x 1]");
        let id = self.begin(r, c);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        for i in 0..r {
            let f = prev[s.0].value.get(i, 0);
            let src = prev[a.0].value.row_slice(i);
            for (o, &x) in node.value.row_slice_mut(i).iter_mut().zip(src) {
                *o = x * f;
            }
        }
        self.finish(id, Op::MulRowScale(a, s))
    }

    /// Row-wise division: `out[i][·] = a[i][·] / s[i][0]`. The caller is
    /// responsible for keeping `s` away from zero (add an epsilon).
    pub fn div_row_scale(&mut self, a: Var, s: Var) -> Var {
        let (r, c) = self.value(a).shape();
        assert_eq!(self.value(s).shape(), (r, 1), "scale must be [rows x 1]");
        let id = self.begin(r, c);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        for i in 0..r {
            let f = prev[s.0].value.get(i, 0);
            let src = prev[a.0].value.row_slice(i);
            for (o, &x) in node.value.row_slice_mut(i).iter_mut().zip(src) {
                *o = x / f;
            }
        }
        self.finish(id, Op::DivRowScale(a, s))
    }

    /// `x + c` for a scalar constant (no gradient to the constant).
    pub fn add_scalar(&mut self, a: Var, c: f32) -> Var {
        let shape = self.value(a).shape();
        let id = self.begin(shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        ew::map1_to(node.value.data_mut(), prev[a.0].value.data(), |x| x + c);
        self.finish(id, Op::Scale(a, 1.0))
    }

    /// Inverted dropout with an explicit pre-sampled mask whose entries are
    /// `0.0` (dropped) or `1/(1-p)` (kept). Pass-through when training is
    /// off by simply not calling this.
    pub fn dropout(&mut self, a: Var, mask: Tensor) -> Var {
        let shape = self.value(a).shape();
        assert_eq!(shape, mask.shape(), "dropout mask shape");
        let id = self.begin(shape.0, shape.1);
        self.ensure_aux(id, shape.0, shape.1);
        let (prev, node) = split_nodes(&mut self.nodes, id);
        node.aux.data_mut().copy_from_slice(mask.data());
        ew::map2_to(
            node.value.data_mut(),
            prev[a.0].value.data(),
            node.aux.data(),
            |x, m| x * m,
        );
        self.finish(id, Op::Dropout(a))
    }

    /// Fused `act(x·w + bias)` — one output buffer, bias and activation
    /// applied in place by [`FusedAct::bias_act`], bitwise-identical to
    /// `matmul` → `add_bias` → activation.
    pub fn linear(&mut self, x: Var, w: Var, bias: Var, act: FusedAct) -> Var {
        self.linear_impl(x, w, None, bias, act)
    }

    /// Fused `act(x·w + x2·w2 + bias)` (the GRU gate shape). The second
    /// product lands in an arena scratch buffer and is added elementwise,
    /// preserving the unfused `add(xw, hu)` rounding.
    pub fn linear2(&mut self, x: Var, w: Var, x2: Var, w2: Var, bias: Var, act: FusedAct) -> Var {
        self.linear_impl(x, w, Some((x2, w2)), bias, act)
    }

    fn linear_impl(
        &mut self,
        x: Var,
        w: Var,
        x2w2: Option<(Var, Var)>,
        bias: Var,
        act: FusedAct,
    ) -> Var {
        let (m, k) = self.value(x).shape();
        let (kw, n) = self.value(w).shape();
        assert_eq!(k, kw, "matmul inner-dimension mismatch: {m}x{k} × {kw}x{n}");
        assert_eq!(self.value(bias).shape(), (1, n), "bias must be [1 x cols]");
        if let Some((x2, w2)) = x2w2 {
            let (m2, k2) = self.value(x2).shape();
            let (kw2, n2) = self.value(w2).shape();
            assert_eq!(
                k2, kw2,
                "matmul inner-dimension mismatch: {m2}x{k2} × {kw2}x{n2}"
            );
            assert_eq!((m2, n2), (m, n), "linear2 operand shape mismatch");
        }
        let id = self.begin(m, n);
        let mut scratch = if x2w2.is_some() {
            self.arena.take(m * n)
        } else {
            AlignedVec::new()
        };
        let (prev, node) = split_nodes(&mut self.nodes, id);
        let out = node.value.data_mut();
        out.fill(0.0);
        tensor::matmul_into(out, prev[x.0].value.data(), m, k, prev[w.0].value.data(), n);
        if let Some((x2, w2)) = x2w2 {
            let k2 = prev[x2.0].value.cols();
            scratch.fill(0.0);
            tensor::matmul_into(
                &mut scratch,
                prev[x2.0].value.data(),
                m,
                k2,
                prev[w2.0].value.data(),
                n,
            );
            for (o, &s) in out.iter_mut().zip(scratch.iter()) {
                *o += s;
            }
        }
        act.bias_act(out, prev[bias.0].value.row_slice(0));
        if !scratch.is_empty() {
            self.arena.give(scratch);
        }
        self.finish(
            id,
            Op::FusedLinear {
                x,
                w,
                x2w2,
                bias,
                act,
            },
        )
    }

    // ---- backward ----------------------------------------------------------

    /// Run reverse-mode differentiation from a scalar `root`, accumulating
    /// gradients in place (no per-op tensor clones).
    pub fn backward(&mut self, root: Var) {
        assert_eq!(
            self.value(root).shape(),
            (1, 1),
            "backward root must be a scalar"
        );
        let Tape { nodes, arena, .. } = self;
        prepare_slot(&mut nodes[root.0], arena);
        nodes[root.0].grad.data_mut()[0] = 1.0;
        for i in (0..=root.0).rev() {
            if !nodes[i].has_grad {
                continue;
            }
            let (prev, rest) = nodes.split_at_mut(i);
            let node = &rest[0];
            let g = &node.grad;
            match &node.op {
                Op::Leaf { .. } => {}
                &Op::Add(a, b) => {
                    for v in [a, b] {
                        let (t, was) = target(prev, v, arena);
                        if was {
                            ew::map1_acc(t.data_mut(), g.data(), |x| x);
                        } else {
                            t.data_mut().copy_from_slice(g.data());
                        }
                    }
                }
                &Op::Sub(a, b) => {
                    let (t, was) = target(prev, a, arena);
                    if was {
                        ew::map1_acc(t.data_mut(), g.data(), |x| x);
                    } else {
                        t.data_mut().copy_from_slice(g.data());
                    }
                    let (t, was) = target(prev, b, arena);
                    if was {
                        ew::map1_acc(t.data_mut(), g.data(), |x| -x);
                    } else {
                        ew::map1_to(t.data_mut(), g.data(), |x| -x);
                    }
                }
                &Op::Mul(a, b) => {
                    let (t, was, bv) = target_and_val(prev, a, b, arena);
                    if was {
                        ew::map2_acc(t.data_mut(), g.data(), bv.data(), |gg, y| gg * y);
                    } else {
                        ew::map2_to(t.data_mut(), g.data(), bv.data(), |gg, y| gg * y);
                    }
                    let (t, was, av) = target_and_val(prev, b, a, arena);
                    if was {
                        ew::map2_acc(t.data_mut(), g.data(), av.data(), |gg, x| gg * x);
                    } else {
                        ew::map2_to(t.data_mut(), g.data(), av.data(), |gg, x| gg * x);
                    }
                }
                &Op::Scale(a, alpha) => {
                    let (t, was) = target(prev, a, arena);
                    if was {
                        ew::map1_acc(t.data_mut(), g.data(), |x| x * alpha);
                    } else {
                        ew::map1_to(t.data_mut(), g.data(), |x| x * alpha);
                    }
                }
                &Op::MatMul(a, b) => {
                    // dA = G Bᵀ ; dB = Aᵀ G
                    let (m, n) = g.shape();
                    {
                        let (t, was, bv) = target_and_val(prev, a, b, arena);
                        matmul_grad_a(t, was, g.data(), m, n, bv, arena);
                    }
                    let (t, was, av) = target_and_val(prev, b, a, arena);
                    let (ar, ac) = av.shape();
                    if was {
                        // Multi-term reduction: a fresh zeroed scratch keeps
                        // the rounding of the old materialize-then-add path.
                        let mut s = arena.take_zeroed(ac * n);
                        tensor::t_matmul_into(&mut s, av.data(), ar, ac, g.data(), n);
                        add_from(t, &s);
                        arena.give(s);
                    } else {
                        t.data_mut().fill(0.0);
                        tensor::t_matmul_into(t.data_mut(), av.data(), ar, ac, g.data(), n);
                    }
                }
                &Op::AddBias(a, bias) => {
                    let (t, was) = target(prev, a, arena);
                    if was {
                        ew::map1_acc(t.data_mut(), g.data(), |x| x);
                    } else {
                        t.data_mut().copy_from_slice(g.data());
                    }
                    let cols = g.cols();
                    let (t, was) = target(prev, bias, arena);
                    if was {
                        let mut s = arena.take_zeroed(cols);
                        col_sum(&mut s, g.data(), g.rows(), cols);
                        add_from(t, &s);
                        arena.give(s);
                    } else {
                        t.data_mut().fill(0.0);
                        col_sum(t.data_mut(), g.data(), g.rows(), cols);
                    }
                }
                &Op::Sigmoid(a) => {
                    let y = &node.value;
                    let (t, was) = target(prev, a, arena);
                    if was {
                        ew::map2_acc(t.data_mut(), g.data(), y.data(), |gg, yv| {
                            gg * yv * (1.0 - yv)
                        });
                    } else {
                        ew::map2_to(t.data_mut(), g.data(), y.data(), |gg, yv| {
                            gg * yv * (1.0 - yv)
                        });
                    }
                }
                &Op::Tanh(a) => {
                    let y = &node.value;
                    let (t, was) = target(prev, a, arena);
                    if was {
                        ew::map2_acc(t.data_mut(), g.data(), y.data(), |gg, yv| {
                            gg * (1.0 - yv * yv)
                        });
                    } else {
                        ew::map2_to(t.data_mut(), g.data(), y.data(), |gg, yv| {
                            gg * (1.0 - yv * yv)
                        });
                    }
                }
                &Op::Relu(a) => {
                    let y = &node.value;
                    let (t, was) = target(prev, a, arena);
                    if was {
                        ew::map2_acc(t.data_mut(), g.data(), y.data(), |gg, yv| {
                            if yv > 0.0 {
                                gg
                            } else {
                                0.0
                            }
                        });
                    } else {
                        ew::map2_to(t.data_mut(), g.data(), y.data(), |gg, yv| {
                            if yv > 0.0 {
                                gg
                            } else {
                                0.0
                            }
                        });
                    }
                }
                Op::ConcatCols(parts) => {
                    let mut off = 0;
                    for &p in parts {
                        let (t, was) = target(prev, p, arena);
                        let c = t.cols();
                        for row in 0..t.rows() {
                            let src = &g.row_slice(row)[off..off + c];
                            let dst = t.row_slice_mut(row);
                            if was {
                                for (o, &v) in dst.iter_mut().zip(src) {
                                    *o += v;
                                }
                            } else {
                                dst.copy_from_slice(src);
                            }
                        }
                        off += c;
                    }
                }
                Op::GatherRows(a, index) => {
                    // Gather backward is a scatter-add of the output grads.
                    let (t, was) = target(prev, *a, arena);
                    let (r, c) = t.shape();
                    if was {
                        let mut s = arena.take_zeroed(r * c);
                        segment::scatter_rows_into(&mut s, r, g.data(), c, index, false);
                        add_from(t, &s);
                        arena.give(s);
                    } else {
                        t.data_mut().fill(0.0);
                        segment::scatter_rows_into(t.data_mut(), r, g.data(), c, index, false);
                    }
                }
                Op::ScatterSumRows { src, index } => {
                    // Scatter-sum backward is a gather of the output grads.
                    let c = g.cols();
                    let (t, was) = target(prev, *src, arena);
                    if was {
                        segment::gather_rows_acc_into(t.data_mut(), g.data(), c, index);
                    } else {
                        segment::gather_rows_into(t.data_mut(), g.data(), c, index);
                    }
                }
                Op::ScatterMeanRows { src, index, .. } => {
                    let c = g.cols();
                    let inv = node.aux.data();
                    let (t, was) = target(prev, *src, arena);
                    if was {
                        segment::gather_rows_scaled_acc_into(t.data_mut(), g.data(), c, index, inv);
                    } else {
                        segment::gather_rows_scaled_into(t.data_mut(), g.data(), c, index, inv);
                    }
                }
                Op::SoftmaxCrossEntropy { logits, targets } => {
                    let probs = &node.aux;
                    let (n, k) = probs.shape();
                    let scale = g.get(0, 0) / n as f32;
                    let (t, was) = target(prev, *logits, arena);
                    for (r, &target) in targets.iter().enumerate().take(n) {
                        let tc = target as usize;
                        for j in 0..k {
                            let indicator = if j == tc { 1.0 } else { 0.0 };
                            let v = (probs.get(r, j) - indicator) * scale;
                            if was {
                                t.set(r, j, t.get(r, j) + v);
                            } else {
                                t.set(r, j, v);
                            }
                        }
                    }
                }
                &Op::MseLoss(pred) => {
                    let aux = &node.aux;
                    let (t, was, p) = target_and_val(prev, pred, pred, arena);
                    let n = p.len() as f32;
                    let scale = 2.0 * g.get(0, 0) / n;
                    if was {
                        ew::map2_acc(t.data_mut(), p.data(), aux.data(), |a, b| (a - b) * scale);
                    } else {
                        ew::map2_to(t.data_mut(), p.data(), aux.data(), |a, b| (a - b) * scale);
                    }
                }
                &Op::Dropout(a) => {
                    let mask = &node.aux;
                    let (t, was) = target(prev, a, arena);
                    if was {
                        ew::map2_acc(t.data_mut(), g.data(), mask.data(), |gg, m| gg * m);
                    } else {
                        ew::map2_to(t.data_mut(), g.data(), mask.data(), |gg, m| gg * m);
                    }
                }
                &Op::MulRowScale(a, s) => {
                    let (r, c) = g.shape();
                    {
                        let (t, was, sval) = target_and_val(prev, a, s, arena);
                        for row in 0..r {
                            let f = sval.get(row, 0);
                            let dst = t.row_slice_mut(row);
                            for (o, &gv) in dst.iter_mut().zip(g.row_slice(row)) {
                                if was {
                                    *o += gv * f;
                                } else {
                                    *o = gv * f;
                                }
                            }
                        }
                    }
                    let (t, was, aval) = target_and_val(prev, s, a, arena);
                    for row in 0..r {
                        let mut acc = 0.0;
                        for col in 0..c {
                            acc += g.get(row, col) * aval.get(row, col);
                        }
                        if was {
                            t.set(row, 0, t.get(row, 0) + acc);
                        } else {
                            t.set(row, 0, acc);
                        }
                    }
                }
                &Op::DivRowScale(a, s) => {
                    let (r, c) = g.shape();
                    {
                        let (t, was, sval) = target_and_val(prev, a, s, arena);
                        for row in 0..r {
                            let f = sval.get(row, 0);
                            let dst = t.row_slice_mut(row);
                            for (o, &gv) in dst.iter_mut().zip(g.row_slice(row)) {
                                if was {
                                    *o += gv / f;
                                } else {
                                    *o = gv / f;
                                }
                            }
                        }
                    }
                    let (t, was, sval, aval) = target_val_and_other(prev, s, a, arena);
                    for row in 0..r {
                        let f = sval.get(row, 0);
                        let mut acc = 0.0;
                        for col in 0..c {
                            acc += g.get(row, col) * aval.get(row, col);
                        }
                        let v = -acc / (f * f);
                        if was {
                            t.set(row, 0, t.get(row, 0) + v);
                        } else {
                            t.set(row, 0, v);
                        }
                    }
                }
                &Op::FusedLinear {
                    x,
                    w,
                    x2w2,
                    bias,
                    act,
                } => {
                    let y = &node.value;
                    let (m, n) = y.shape();
                    // gz = gout ⊙ act'(y); for Identity, gz IS gout.
                    let gz_buf = match act {
                        FusedAct::Identity => None,
                        FusedAct::Relu => {
                            let mut b = arena.take(m * n);
                            ew::map2_to(&mut b, g.data(), y.data(), |gg, yv| {
                                if yv > 0.0 {
                                    gg
                                } else {
                                    0.0
                                }
                            });
                            Some(b)
                        }
                        FusedAct::Sigmoid => {
                            let mut b = arena.take(m * n);
                            ew::map2_to(&mut b, g.data(), y.data(), |gg, yv| gg * yv * (1.0 - yv));
                            Some(b)
                        }
                        FusedAct::Tanh => {
                            let mut b = arena.take(m * n);
                            ew::map2_to(&mut b, g.data(), y.data(), |gg, yv| gg * (1.0 - yv * yv));
                            Some(b)
                        }
                    };
                    let gz: &[f32] = gz_buf.as_deref().unwrap_or(g.data());
                    // Unfused reverse-tape order: bias, then the second
                    // (later-recorded) product pair, then the first;
                    // input-grad before weight-grad within each pair.
                    {
                        let (t, was) = target(prev, bias, arena);
                        if was {
                            let mut s = arena.take_zeroed(n);
                            col_sum(&mut s, gz, m, n);
                            add_from(t, &s);
                            arena.give(s);
                        } else {
                            t.data_mut().fill(0.0);
                            col_sum(t.data_mut(), gz, m, n);
                        }
                    }
                    for (xi, wi) in x2w2.into_iter().chain(std::iter::once((x, w))) {
                        {
                            let (t, was, wv) = target_and_val(prev, xi, wi, arena);
                            matmul_grad_a(t, was, gz, m, n, wv, arena);
                        }
                        let (t, was, xv) = target_and_val(prev, wi, xi, arena);
                        let (xr, xc) = xv.shape();
                        if was {
                            let mut s = arena.take_zeroed(xc * n);
                            tensor::t_matmul_into(&mut s, xv.data(), xr, xc, gz, n);
                            add_from(t, &s);
                            arena.give(s);
                        } else {
                            t.data_mut().fill(0.0);
                            tensor::t_matmul_into(t.data_mut(), xv.data(), xr, xc, gz, n);
                        }
                    }
                    if let Some(b) = gz_buf {
                        arena.give(b);
                    }
                }
            }
        }
    }

    /// Flush gradients of parameter leaves into the parameter set
    /// (accumulating, so multiple tapes per step compose).
    pub fn accumulate_param_grads(&self, ps: &mut ParamSet) {
        for node in &self.nodes[..self.live] {
            if let Op::Leaf { param: Some(id) } = node.op {
                if node.has_grad {
                    ps.grad_mut(id).add_assign(&node.grad);
                }
            }
        }
    }

    /// Flush gradients of parameter leaves into a per-micro-batch
    /// [`GradShard`] instead of the shared set — the data-parallel
    /// epoch's replica tapes each write their own shard concurrently,
    /// then the shards tree-reduce into the `ParamSet` in a fixed order.
    /// A parameter snapshotted by several leaves on one tape (GRU reuse)
    /// accumulates within the shard exactly as it would in the set.
    pub fn accumulate_param_grads_shard(&self, shard: &mut crate::params::GradShard) {
        for node in &self.nodes[..self.live] {
            if let Op::Leaf { param: Some(id) } = node.op {
                if node.has_grad {
                    shard.accumulate(id, &node.grad);
                }
            }
        }
    }
}

/// Split the node list at `id`: everything before (operand reads and
/// grad writes) and the node being built/differentiated.
fn split_nodes(nodes: &mut [Node], id: usize) -> (&mut [Node], &mut Node) {
    let (prev, rest) = nodes.split_at_mut(id);
    (prev, &mut rest[0])
}

/// Make the node's grad buffer match its value shape (recycling through
/// the arena) and mark it live. Returns whether it already held a
/// gradient this pass (accumulate vs first-write).
fn prepare_slot(n: &mut Node, arena: &mut Arena) -> bool {
    let was = n.has_grad;
    n.has_grad = true;
    let (r, c) = n.value.shape();
    if n.grad.shape() != (r, c) {
        arena.give(n.grad.take_data());
        let buf = arena.take_persistent(r * c);
        n.grad.adopt(r, c, buf);
    }
    was
}

/// Gradient accumulator for `v`.
fn target<'p>(prev: &'p mut [Node], v: Var, arena: &mut Arena) -> (&'p mut Tensor, bool) {
    let n = &mut prev[v.0];
    let was = prepare_slot(n, arena);
    (&mut n.grad, was)
}

/// Gradient accumulator for `t` plus the (shared) value of `s`. Handles
/// `t == s` by splitting fields of the same node.
fn target_and_val<'p>(
    prev: &'p mut [Node],
    t: Var,
    s: Var,
    arena: &mut Arena,
) -> (&'p mut Tensor, bool, &'p Tensor) {
    use std::cmp::Ordering;
    match t.0.cmp(&s.0) {
        Ordering::Equal => {
            let n = &mut prev[t.0];
            let was = prepare_slot(n, arena);
            let Node { value, grad, .. } = n;
            (grad, was, &*value)
        }
        Ordering::Less => {
            let (left, right) = prev.split_at_mut(s.0);
            let n = &mut left[t.0];
            let was = prepare_slot(n, arena);
            (&mut n.grad, was, &right[0].value)
        }
        Ordering::Greater => {
            let (left, right) = prev.split_at_mut(t.0);
            let n = &mut right[0];
            let was = prepare_slot(n, arena);
            (&mut n.grad, was, &left[s.0].value)
        }
    }
}

/// Gradient accumulator for `tv` plus `tv`'s own value and the value of
/// `ov` (the DivRowScale backward needs all three at once).
fn target_val_and_other<'p>(
    prev: &'p mut [Node],
    tv: Var,
    ov: Var,
    arena: &mut Arena,
) -> (&'p mut Tensor, bool, &'p Tensor, &'p Tensor) {
    use std::cmp::Ordering;
    match tv.0.cmp(&ov.0) {
        Ordering::Equal => {
            let n = &mut prev[tv.0];
            let was = prepare_slot(n, arena);
            let Node { value, grad, .. } = n;
            (grad, was, &*value, &*value)
        }
        Ordering::Less => {
            let (left, right) = prev.split_at_mut(ov.0);
            let n = &mut left[tv.0];
            let was = prepare_slot(n, arena);
            let Node { value, grad, .. } = n;
            (grad, was, &*value, &right[0].value)
        }
        Ordering::Greater => {
            let (left, right) = prev.split_at_mut(tv.0);
            let n = &mut right[0];
            let was = prepare_slot(n, arena);
            let Node { value, grad, .. } = n;
            (grad, was, &*value, &left[ov.0].value)
        }
    }
}

/// Input gradient of a product: `t (+)= g (m×n) × bvᵀ`. Computed as a
/// row-major multiply against a transposed copy of `bv` (arena scratch)
/// so the inner loop vectorizes; each element still sums its terms in
/// ascending order without a zero skip, so the bits equal a plain
/// `g · bvᵀ` dot product's.
fn matmul_grad_a(
    t: &mut Tensor,
    was: bool,
    g: &[f32],
    m: usize,
    n: usize,
    bv: &Tensor,
    arena: &mut Arena,
) {
    let (bk, bn) = bv.shape();
    debug_assert_eq!(bn, n);
    let mut bt = arena.take(bk * bn);
    tensor::transpose_into(&mut bt, bv.data(), bk, bn);
    if was {
        // Multi-term reduction: a fresh zeroed scratch keeps the
        // rounding of the old materialize-then-add path.
        let mut s = arena.take_zeroed(m * bk);
        tensor::matmul_dense_into(&mut s, g, m, n, &bt, bk);
        add_from(t, &s);
        arena.give(s);
    } else {
        t.data_mut().fill(0.0);
        tensor::matmul_dense_into(t.data_mut(), g, m, n, &bt, bk);
    }
    arena.give(bt);
}

/// `t += scratch` — same per-element rounding as `Tensor::add_assign`.
fn add_from(t: &mut Tensor, scratch: &[f32]) {
    for (o, &s) in t.data_mut().iter_mut().zip(scratch) {
        *o += s;
    }
}

/// Accumulate each row of `g` (`rows × cols`) into `dst` in row order —
/// the bias gradient's column sum, matching the historical loop.
fn col_sum(dst: &mut [f32], g: &[f32], rows: usize, cols: usize) {
    for r in 0..rows {
        for (o, &gv) in dst.iter_mut().zip(&g[r * cols..(r + 1) * cols]) {
            *o += gv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Finite-difference check: for scalar-output graphs built by `build`,
    /// compare analytic input gradient against central differences.
    fn check_grad(input: Tensor, build: impl Fn(&mut Tape, Var) -> Var, tol: f32) {
        let mut tape = Tape::new();
        let x = tape.leaf(input.clone());
        let loss = build(&mut tape, x);
        tape.backward(loss);
        let analytic = tape.grad(x).expect("input grad").clone();

        let eps = 1e-3;
        for idx in 0..input.len() {
            let mut plus = input.clone();
            plus.data_mut()[idx] += eps;
            let mut tp = Tape::new();
            let xp = tp.leaf(plus);
            let lp = build(&mut tp, xp);
            let fplus = tp.value(lp).get(0, 0);

            let mut minus = input.clone();
            minus.data_mut()[idx] -= eps;
            let mut tm = Tape::new();
            let xm = tm.leaf(minus);
            let lm = build(&mut tm, xm);
            let fminus = tm.value(lm).get(0, 0);

            let numeric = (fplus - fminus) / (2.0 * eps);
            let a = analytic.data()[idx];
            assert!(
                (a - numeric).abs() <= tol * (1.0 + numeric.abs()),
                "index {idx}: analytic {a} vs numeric {numeric}"
            );
        }
    }

    fn seeded(rows: usize, cols: usize, seed: u64) -> Tensor {
        let mut state = seed.wrapping_mul(0x9E3779B97F4A7C15).wrapping_add(1);
        let data = (0..rows * cols)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 33) as f32 / (1u64 << 31) as f32) - 0.5
            })
            .collect();
        Tensor::from_vec(rows, cols, data)
    }

    fn bits_eq(a: &Tensor, b: &Tensor) -> bool {
        a.shape() == b.shape()
            && a.data()
                .iter()
                .zip(b.data())
                .all(|(x, y)| x.to_bits() == y.to_bits())
    }

    #[test]
    fn grad_of_matmul_chain() {
        let w = seeded(4, 3, 7);
        check_grad(
            seeded(2, 4, 1),
            move |t, x| {
                let wv = t.leaf(w.clone());
                let h = t.matmul(x, wv);
                let s = t.sigmoid(h);
                t.mse_loss(s, &Tensor::full(2, 3, 0.3))
            },
            2e-2,
        );
    }

    #[test]
    fn grad_of_elementwise_ops() {
        let b = seeded(3, 3, 9);
        check_grad(
            seeded(3, 3, 2),
            move |t, x| {
                let bv = t.leaf(b.clone());
                let m = t.mul(x, bv);
                let s = t.sub(m, x);
                let a = t.add(s, x);
                let h = t.tanh(a);
                t.mse_loss(h, &Tensor::zeros(3, 3))
            },
            2e-2,
        );
    }

    #[test]
    fn grad_of_relu_and_scale() {
        check_grad(
            seeded(2, 5, 3),
            |t, x| {
                let r = t.relu(x);
                let s = t.scale(r, 1.5);
                t.mse_loss(s, &Tensor::full(2, 5, 0.1))
            },
            2e-2,
        );
    }

    #[test]
    fn grad_of_bias_and_concat() {
        let bias = seeded(1, 3, 11);
        check_grad(
            seeded(4, 3, 4),
            move |t, x| {
                let bv = t.leaf(bias.clone());
                let h = t.add_bias(x, bv);
                let c = t.concat_cols(&[h, x]);
                t.mse_loss(c, &Tensor::full(4, 6, 0.05))
            },
            2e-2,
        );
    }

    #[test]
    fn grad_of_gather_scatter() {
        let index = vec![0u32, 2, 1, 2, 0];
        let scatter_to = vec![1u32, 0, 1, 2, 2];
        check_grad(
            seeded(3, 4, 5),
            move |t, x| {
                let g = t.gather_rows(x, &index);
                let s = t.scatter_mean_rows(g, &scatter_to, 3);
                t.mse_loss(s, &Tensor::full(3, 4, 0.2))
            },
            2e-2,
        );
    }

    #[test]
    fn grad_of_scatter_sum() {
        let scatter_to = vec![1u32, 1, 0];
        check_grad(
            seeded(3, 2, 6),
            move |t, x| {
                let s = t.scatter_sum_rows(x, &scatter_to, 2);
                t.mse_loss(s, &Tensor::full(2, 2, 0.0))
            },
            2e-2,
        );
    }

    #[test]
    fn grad_of_softmax_cross_entropy() {
        let targets = vec![0u32, 2, 1];
        check_grad(
            seeded(3, 3, 8),
            move |t, x| t.softmax_cross_entropy(x, &targets),
            2e-2,
        );
    }

    #[test]
    fn grad_of_fused_linear() {
        let w = seeded(4, 3, 7);
        let b = seeded(1, 3, 17);
        check_grad(
            seeded(2, 4, 1),
            move |t, x| {
                let wv = t.leaf(w.clone());
                let bv = t.leaf(b.clone());
                let h = t.linear(x, wv, bv, FusedAct::Sigmoid);
                t.mse_loss(h, &Tensor::full(2, 3, 0.3))
            },
            2e-2,
        );
    }

    #[test]
    fn grad_of_fused_linear2_shared_input() {
        // Both products derive from x, so its grad accumulates through
        // both paths of the fused backward.
        let w1 = seeded(4, 3, 41);
        let w2 = seeded(4, 3, 42);
        let b = seeded(1, 3, 43);
        check_grad(
            seeded(2, 4, 44),
            move |t, x| {
                let w1v = t.leaf(w1.clone());
                let w2v = t.leaf(w2.clone());
                let bv = t.leaf(b.clone());
                let x2 = t.tanh(x);
                let h = t.linear2(x, w1v, x2, w2v, bv, FusedAct::Tanh);
                t.mse_loss(h, &Tensor::full(2, 3, 0.1))
            },
            2e-2,
        );
    }

    #[test]
    fn fused_linear_matches_unfused_bitwise() {
        for act in [
            FusedAct::Identity,
            FusedAct::Relu,
            FusedAct::Sigmoid,
            FusedAct::Tanh,
        ] {
            let x = seeded(5, 4, 31);
            let w = seeded(4, 3, 32);
            let b = seeded(1, 3, 33);
            let target = Tensor::full(5, 3, 0.2);

            let mut t1 = Tape::new();
            let (x1, w1, b1) = (t1.leaf(x.clone()), t1.leaf(w.clone()), t1.leaf(b.clone()));
            let mm = t1.matmul(x1, w1);
            let ab = t1.add_bias(mm, b1);
            let out1 = match act {
                FusedAct::Identity => ab,
                FusedAct::Relu => t1.relu(ab),
                FusedAct::Sigmoid => t1.sigmoid(ab),
                FusedAct::Tanh => t1.tanh(ab),
            };
            let l1 = t1.mse_loss(out1, &target);
            t1.backward(l1);

            let mut t2 = Tape::new();
            let (x2, w2, b2) = (t2.leaf(x.clone()), t2.leaf(w.clone()), t2.leaf(b.clone()));
            let out2 = t2.linear(x2, w2, b2, act);
            let l2 = t2.mse_loss(out2, &target);
            t2.backward(l2);

            assert!(bits_eq(t1.value(out1), t2.value(out2)), "{act:?} forward");
            for (va, vb, name) in [(x1, x2, "x"), (w1, w2, "w"), (b1, b2, "bias")] {
                assert!(
                    bits_eq(t1.grad(va).unwrap(), t2.grad(vb).unwrap()),
                    "{act:?} grad {name}"
                );
            }
        }
    }

    #[test]
    fn fused_linear2_matches_gru_gate_sequence_bitwise() {
        // The exact op sequence GruCell::gate used to record:
        // matmul, matmul, add, add_bias, activation.
        let x = seeded(6, 5, 51);
        let h = seeded(6, 4, 52);
        let wv = seeded(5, 3, 53);
        let uv = seeded(4, 3, 54);
        let b = seeded(1, 3, 55);
        let target = Tensor::full(6, 3, 0.1);

        let mut t1 = Tape::new();
        let xs = t1.leaf(x.clone());
        let hs = t1.leaf(h.clone());
        let ws = t1.leaf(wv.clone());
        let us = t1.leaf(uv.clone());
        let bs = t1.leaf(b.clone());
        let xw = t1.matmul(xs, ws);
        let hu = t1.matmul(hs, us);
        let s = t1.add(xw, hu);
        let sb = t1.add_bias(s, bs);
        let out1 = t1.sigmoid(sb);
        let l1 = t1.mse_loss(out1, &target);
        t1.backward(l1);

        let mut t2 = Tape::new();
        let xs2 = t2.leaf(x.clone());
        let hs2 = t2.leaf(h.clone());
        let ws2 = t2.leaf(wv.clone());
        let us2 = t2.leaf(uv.clone());
        let bs2 = t2.leaf(b.clone());
        let out2 = t2.linear2(xs2, ws2, hs2, us2, bs2, FusedAct::Sigmoid);
        let l2 = t2.mse_loss(out2, &target);
        t2.backward(l2);

        assert!(bits_eq(t1.value(out1), t2.value(out2)), "forward");
        for (va, vb, name) in [
            (xs, xs2, "x"),
            (hs, hs2, "h"),
            (ws, ws2, "w"),
            (us, us2, "u"),
            (bs, bs2, "bias"),
        ] {
            assert!(
                bits_eq(t1.grad(va).unwrap(), t2.grad(vb).unwrap()),
                "grad {name}"
            );
        }
    }

    #[test]
    fn replay_is_bitwise_identical_and_allocation_free() {
        // A training-shaped loop over a fixed graph: params updated after
        // each epoch so values genuinely change, one persistent tape vs a
        // fresh tape per epoch.
        let index = vec![0u32, 2, 1, 2, 0, 1];
        let scatter_to = vec![1u32, 0, 1, 2, 2, 0];
        let targets = vec![0u32, 2, 1];
        let mut ps1 = ParamSet::new();
        let w1 = ps1.add("w", seeded(4, 3, 61));
        let b1 = ps1.add("b", seeded(1, 3, 62));
        let mut ps2 = ParamSet::new();
        let w2 = ps2.add("w", seeded(4, 3, 61));
        let b2 = ps2.add("b", seeded(1, 3, 62));
        let data = seeded(3, 4, 63);

        let run = |tape: &mut Tape, ps: &ParamSet, w: ParamId, b: ParamId| -> (f32, Tensor) {
            let x = tape.leaf_ref(&data);
            let wv = tape.param(ps, w);
            let bv = tape.param(ps, b);
            let g = tape.gather_rows(x, &index);
            let s = tape.scatter_mean_rows(g, &scatter_to, 3);
            let c = tape.concat_cols(&[s, x]);
            let pre = tape.tanh(c);
            let two = tape.scale(pre, 2.0);
            let half = tape.mul(two, pre);
            let skinny = tape.gather_rows(x, &[0, 1, 2]);
            let lin = tape.linear2(skinny, wv, skinny, wv, bv, FusedAct::Relu);
            let _ = half;
            let loss = tape.softmax_cross_entropy(lin, &targets);
            tape.backward(loss);
            (
                tape.value(loss).get(0, 0),
                tape.grad(wv).expect("w grad").clone(),
            )
        };

        let mut persistent = Tape::new();
        for epoch in 0..4 {
            persistent.reset();
            let (loss_p, gw_p) = run(&mut persistent, &ps1, w1, b1);
            persistent.accumulate_param_grads(&mut ps1);

            let mut fresh = Tape::new();
            let (loss_f, gw_f) = run(&mut fresh, &ps2, w2, b2);
            fresh.accumulate_param_grads(&mut ps2);

            assert_eq!(
                loss_p.to_bits(),
                loss_f.to_bits(),
                "epoch {epoch} loss differs"
            );
            assert!(bits_eq(&gw_p, &gw_f), "epoch {epoch} grad differs");

            if epoch >= 1 {
                assert!(persistent.replaying(), "epoch {epoch} should replay");
                assert_eq!(
                    persistent.pass_alloc_bytes(),
                    0,
                    "epoch {epoch} replay must not allocate"
                );
                assert!(persistent.pass_reuse_count() > 0);
            }

            // Identical parameter updates on both sides.
            for (ps, w, b) in [(&mut ps1, w1, b1), (&mut ps2, w2, b2)] {
                for id in [w, b] {
                    let g = ps.grad(id).clone();
                    ps.value_mut(id).axpy(-0.05, &g);
                }
                ps.zero_grads();
            }
        }
    }

    #[test]
    fn grad_is_none_for_untouched_nodes() {
        let mut t = Tape::new();
        let unused = t.leaf(Tensor::full(2, 2, 1.0));
        let x = t.leaf(Tensor::row(vec![1.0, 2.0]));
        let loss = t.mse_loss(x, &Tensor::row(vec![0.0, 0.0]));
        t.backward(loss);
        assert!(t.grad(unused).is_none());
        assert!(t.grad(x).is_some());
    }

    #[test]
    fn softmax_ce_value_matches_manual() {
        let mut t = Tape::new();
        let logits = t.leaf(Tensor::from_vec(1, 2, vec![0.0, 0.0]));
        let loss = t.softmax_cross_entropy(logits, &[0]);
        // Uniform over two classes: loss = ln 2.
        assert!((t.value(loss).get(0, 0) - (2.0f32).ln()).abs() < 1e-5);
    }

    #[test]
    fn dropout_scales_and_masks() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::row(vec![1.0, 2.0, 3.0, 4.0]));
        let mask = Tensor::row(vec![2.0, 0.0, 2.0, 0.0]); // p = 0.5 inverted
        let d = t.dropout(x, mask);
        assert_eq!(t.value(d).data(), &[2.0, 0.0, 6.0, 0.0]);
        let loss = t.mse_loss(d, &Tensor::row(vec![0.0; 4]));
        t.backward(loss);
        let g = t.grad(x).expect("dropout grad");
        assert_eq!(g.data()[1], 0.0);
        assert_eq!(g.data()[3], 0.0);
        assert!(g.data()[0] != 0.0);
    }

    #[test]
    fn param_grads_accumulate_into_set() {
        let mut ps = ParamSet::new();
        let w = ps.add("w", Tensor::full(2, 2, 0.5));
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let wv = t.param(&ps, w);
        let h = t.matmul(x, wv);
        let loss = t.mse_loss(h, &Tensor::from_vec(1, 2, vec![0.0, 0.0]));
        t.backward(loss);
        t.accumulate_param_grads(&mut ps);
        assert!(ps.grad(w).norm() > 0.0);
        // Second tape accumulates (not overwrites).
        let before = ps.grad(w).clone();
        let mut t2 = Tape::new();
        let x2 = t2.leaf(Tensor::from_vec(1, 2, vec![1.0, 2.0]));
        let wv2 = t2.param(&ps, w);
        let h2 = t2.matmul(x2, wv2);
        let loss2 = t2.mse_loss(h2, &Tensor::from_vec(1, 2, vec![0.0, 0.0]));
        t2.backward(loss2);
        t2.accumulate_param_grads(&mut ps);
        assert!((ps.grad(w).norm() - 2.0 * before.norm()).abs() < 1e-5);
    }

    #[test]
    fn scatter_mean_averages() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::from_vec(3, 1, vec![1.0, 3.0, 10.0]));
        let s = t.scatter_mean_rows(x, &[0, 0, 1], 3);
        assert_eq!(t.value(s).data(), &[2.0, 10.0, 0.0]);
    }

    #[test]
    fn grad_of_row_scale_ops() {
        let scale_src = seeded(4, 1, 21).map(|x| x.abs() + 0.5);
        check_grad(
            seeded(4, 3, 20),
            move |t, x| {
                let s = t.leaf(scale_src.clone());
                let m = t.mul_row_scale(x, s);
                let d = t.div_row_scale(m, s);
                let m2 = t.mul_row_scale(d, s);
                t.mse_loss(m2, &Tensor::full(4, 3, 0.1))
            },
            3e-2,
        );
    }

    #[test]
    fn grad_flows_into_row_scale_vector() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::from_vec(2, 2, vec![1.0, 2.0, 3.0, 4.0]));
        let s = t.leaf(Tensor::from_vec(2, 1, vec![2.0, 0.5]));
        let m = t.mul_row_scale(a, s);
        assert_eq!(t.value(m).data(), &[2.0, 4.0, 1.5, 2.0]);
        let loss = t.mse_loss(m, &Tensor::zeros(2, 2));
        t.backward(loss);
        assert!(t.grad(s).expect("s grad").norm() > 0.0);
        assert!(t.grad(a).expect("a grad").norm() > 0.0);
    }

    #[test]
    fn div_row_scale_inverts_mul() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::from_vec(2, 3, vec![1., 2., 3., 4., 5., 6.]));
        let s = t.leaf(Tensor::from_vec(2, 1, vec![4.0, 0.25]));
        let m = t.mul_row_scale(a, s);
        let d = t.div_row_scale(m, s);
        for (x, y) in t.value(d).data().iter().zip(t.value(a).data()) {
            assert!((x - y).abs() < 1e-6);
        }
    }

    #[test]
    fn add_scalar_shifts_values_with_identity_grad() {
        let mut t = Tape::new();
        let a = t.leaf(Tensor::row(vec![1.0, 2.0]));
        let b = t.add_scalar(a, 1e-3);
        assert!((t.value(b).get(0, 0) - 1.001).abs() < 1e-6);
        let loss = t.mse_loss(b, &Tensor::row(vec![0.0, 0.0]));
        t.backward(loss);
        assert!(t.grad(a).expect("grad").norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "backward root must be a scalar")]
    fn backward_requires_scalar() {
        let mut t = Tape::new();
        let x = t.leaf(Tensor::zeros(2, 2));
        t.backward(x);
    }
}
