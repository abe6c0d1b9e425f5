//! `mga-graph` — PROGRAML-style flow multi-graphs over `mga-ir`.
//!
//! PROGRAML (Cummins et al., 2021) represents a program as a directed
//! multi-graph with one vertex per *instruction* plus separate vertices for
//! *variables* and *constants*, connected by three edge relations:
//!
//! * **control** — instruction → instruction, following block layout and
//!   branch targets;
//! * **data** — definition → variable → use (operand positions recorded on
//!   the edges), constants → uses;
//! * **call** — call site → callee entry instruction, callee returns →
//!   call site.
//!
//! This crate builds exactly that structure from an [`mga_ir::Module`]
//! ([`build_module_graph`] / [`build_function_graph`]) and stores each
//! relation both as an edge list (for gather/scatter message passing) and
//! as a CSR adjacency ([`Csr`], for analyses and tests). Downstream,
//! `mga-gnn` embeds [`Node::vocab_index`] values and runs one gated GNN
//! per relation — the heterogeneous GNN of the paper.

use mga_ir::{Function, FunctionId, Module, Opcode, Operand, Type};

/// Edge relations of the multi-graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Relation {
    Control = 0,
    Data = 1,
    Call = 2,
}

impl Relation {
    pub const ALL: [Relation; 3] = [Relation::Control, Relation::Data, Relation::Call];

    pub fn index(self) -> usize {
        self as usize
    }
}

/// The kind of a graph vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    /// An IR instruction, tagged with its opcode feature class.
    Instruction(usize),
    /// An SSA value (instruction result or function parameter), tagged
    /// with its type feature class.
    Variable(usize),
    /// A constant operand, tagged with its type feature class.
    Constant(usize),
    /// Entry placeholder for an external function (no body).
    ExternalEntry,
}

/// One graph vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Node {
    pub kind: NodeKind,
}

impl Node {
    /// Index into the embedding vocabulary:
    /// `[0, NUM_OPCODES)` instructions, then variables by type class, then
    /// constants by type class, then the external-entry token.
    pub fn vocab_index(&self) -> usize {
        match self.kind {
            NodeKind::Instruction(op) => op,
            NodeKind::Variable(t) => Opcode::NUM_FEATURE_CLASSES + t,
            NodeKind::Constant(t) => Opcode::NUM_FEATURE_CLASSES + Type::NUM_FEATURE_CLASSES + t,
            NodeKind::ExternalEntry => Opcode::NUM_FEATURE_CLASSES + 2 * Type::NUM_FEATURE_CLASSES,
        }
    }

    /// Total size of the vocabulary [`Node::vocab_index`] draws from.
    pub const VOCAB_SIZE: usize = Opcode::NUM_FEATURE_CLASSES + 2 * Type::NUM_FEATURE_CLASSES + 1;

    pub fn is_instruction(&self) -> bool {
        matches!(self.kind, NodeKind::Instruction(_))
    }
}

/// A directed edge with an operand/successor position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Edge {
    pub src: u32,
    pub dst: u32,
    /// Operand position (data), successor index (control), or 0 (call).
    pub pos: u32,
}

/// The flow multi-graph.
#[derive(Debug, Clone, Default)]
pub struct ProGraph {
    pub nodes: Vec<Node>,
    /// Edge lists per relation, indexed by [`Relation::index`].
    pub edges: [Vec<Edge>; 3],
    /// Lazily derived per-relation endpoint lists (parallel `src`/`dst`
    /// vectors in edge order) — the single edge-list pass shared by
    /// message-passing batch packing and CSR construction. Built on first
    /// query; `edges` must not be mutated afterwards.
    endpoints: [std::sync::OnceLock<(Vec<u32>, Vec<u32>)>; 3],
    /// Lazily derived instruction-node index list (readout pooling).
    instr_nodes: std::sync::OnceLock<Vec<u32>>,
}

impl ProGraph {
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    pub fn num_edges(&self, r: Relation) -> usize {
        self.edges[r.index()].len()
    }

    /// Indices of instruction nodes (used for readout pooling).
    pub fn instruction_nodes(&self) -> Vec<u32> {
        self.instruction_node_ids().to_vec()
    }

    /// Cached instruction-node index list: derived once, shared by every
    /// packing of this graph into a batch (`mga_gnn::GraphBatch`). The
    /// node list must not be mutated after the first call.
    pub fn instruction_node_ids(&self) -> &[u32] {
        self.instr_nodes.get_or_init(|| {
            self.nodes
                .iter()
                .enumerate()
                .filter(|(_, n)| n.is_instruction())
                .map(|(i, _)| i as u32)
                .collect()
        })
    }

    /// Per-relation edge endpoints as parallel `(src, dst)` vectors in
    /// edge order — the layout message passing consumes. Derived by one
    /// edge-list pass on first use and cached, so repeated graph batching
    /// and CSR construction share the same pass instead of re-walking
    /// `edges` each time. `edges` must not be mutated after the first
    /// call.
    pub fn edge_endpoints(&self, r: Relation) -> (&[u32], &[u32]) {
        let (src, dst) = self.endpoints[r.index()].get_or_init(|| {
            let es = &self.edges[r.index()];
            let mut src = Vec::with_capacity(es.len());
            let mut dst = Vec::with_capacity(es.len());
            for e in es {
                src.push(e.src);
                dst.push(e.dst);
            }
            (src, dst)
        });
        (src, dst)
    }

    /// Build the CSR adjacency of one relation, grouped by destination
    /// (incoming edges per node), as message-passing consumes it. Shares
    /// the cached [`ProGraph::edge_endpoints`] pass.
    pub fn csr_in(&self, r: Relation) -> Csr {
        let (src, dst) = self.edge_endpoints(r);
        Csr::from_endpoints(self.num_nodes(), src, dst, true)
    }

    /// CSR grouped by source (outgoing edges per node).
    pub fn csr_out(&self, r: Relation) -> Csr {
        let (src, dst) = self.edge_endpoints(r);
        Csr::from_endpoints(self.num_nodes(), src, dst, false)
    }

    /// Check structural invariants (all endpoints in range, no self loops
    /// in the data relation).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes() as u32;
        for r in Relation::ALL {
            for e in &self.edges[r.index()] {
                if e.src >= n || e.dst >= n {
                    return Err(format!(
                        "{r:?} edge {}→{} out of range ({n} nodes)",
                        e.src, e.dst
                    ));
                }
            }
        }
        for e in &self.edges[Relation::Data.index()] {
            if e.src == e.dst {
                return Err(format!("data self-loop at node {}", e.src));
            }
        }
        Ok(())
    }
}

/// Compressed sparse row adjacency over one relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Csr {
    /// `offsets[i]..offsets[i+1]` indexes `neighbors` for node `i`.
    pub offsets: Vec<u32>,
    /// Neighbor node ids, ordered by the grouping node.
    pub neighbors: Vec<u32>,
}

impl Csr {
    /// Build from an edge list; `by_dst` groups incoming edges by
    /// destination, otherwise outgoing edges by source.
    pub fn from_edges(num_nodes: usize, edges: &[Edge], by_dst: bool) -> Csr {
        let mut src = Vec::with_capacity(edges.len());
        let mut dst = Vec::with_capacity(edges.len());
        for e in edges {
            src.push(e.src);
            dst.push(e.dst);
        }
        Csr::from_endpoints(num_nodes, &src, &dst, by_dst)
    }

    /// Build from parallel endpoint lists (the cached
    /// [`ProGraph::edge_endpoints`] form), preserving edge order within
    /// each group exactly as [`Csr::from_edges`] does.
    pub fn from_endpoints(num_nodes: usize, src: &[u32], dst: &[u32], by_dst: bool) -> Csr {
        assert_eq!(src.len(), dst.len(), "endpoint list length mismatch");
        let (keys, vals) = if by_dst { (dst, src) } else { (src, dst) };
        let mut counts = vec![0u32; num_nodes + 1];
        for &k in keys {
            counts[k as usize + 1] += 1;
        }
        for i in 0..num_nodes {
            counts[i + 1] += counts[i];
        }
        let offsets = counts.clone();
        let mut cursor = counts;
        let mut neighbors = vec![0u32; keys.len()];
        for (&k, &v) in keys.iter().zip(vals) {
            neighbors[cursor[k as usize] as usize] = v;
            cursor[k as usize] += 1;
        }
        Csr { offsets, neighbors }
    }

    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn degree(&self, node: usize) -> usize {
        (self.offsets[node + 1] - self.offsets[node]) as usize
    }

    pub fn neighbors(&self, node: usize) -> &[u32] {
        &self.neighbors[self.offsets[node] as usize..self.offsets[node + 1] as usize]
    }

    pub fn num_edges(&self) -> usize {
        self.neighbors.len()
    }
}

/// Build the multi-graph of a single function within its module. Call
/// edges attach to a synthetic [`NodeKind::ExternalEntry`] node per callee
/// (callee bodies are not part of this graph).
pub fn build_function_graph(m: &Module, f: &Function) -> ProGraph {
    let mut g = ProGraph::default();
    let mut builder = GraphBuilder::new(&mut g);
    builder.add_function(m, f, None);
    builder.finish_intra_function_calls(m);
    g
}

/// Build one multi-graph covering every function in the module, with call
/// edges connecting call sites to callee entry instructions.
pub fn build_module_graph(m: &Module) -> ProGraph {
    let mut g = ProGraph::default();
    let mut builder = GraphBuilder::new(&mut g);
    for (fi, f) in m.functions.iter().enumerate() {
        builder.add_function(m, f, Some(FunctionId(fi as u32)));
    }
    builder.finish_inter_function_calls(m);
    g
}

struct FuncNodes {
    /// node id of each instruction (by arena index), u32::MAX for none.
    instr_node: Vec<u32>,
    /// node id of each instruction's result variable (if it has one).
    result_var: Vec<u32>,
    /// node id of each parameter variable.
    param_var: Vec<u32>,
    /// node id of each constant.
    const_node: Vec<u32>,
    /// first instruction node of the entry block, if any.
    entry_instr: Option<u32>,
    /// instruction nodes of `ret` instructions.
    ret_instrs: Vec<u32>,
    /// (call instruction node, callee name) pairs awaiting resolution.
    calls: Vec<(u32, String)>,
}

struct GraphBuilder<'g> {
    g: &'g mut ProGraph,
    funcs: Vec<FuncNodes>,
    externals: std::collections::HashMap<String, u32>,
}

impl<'g> GraphBuilder<'g> {
    fn new(g: &'g mut ProGraph) -> Self {
        GraphBuilder {
            g,
            funcs: Vec::new(),
            externals: std::collections::HashMap::new(),
        }
    }

    fn add_node(&mut self, kind: NodeKind) -> u32 {
        let id = self.g.nodes.len() as u32;
        self.g.nodes.push(Node { kind });
        id
    }

    fn add_edge(&mut self, r: Relation, src: u32, dst: u32, pos: u32) {
        self.g.edges[r.index()].push(Edge { src, dst, pos });
    }

    fn add_function(&mut self, m: &Module, f: &Function, _id: Option<FunctionId>) {
        if f.attrs.external {
            self.funcs.push(FuncNodes {
                instr_node: Vec::new(),
                result_var: Vec::new(),
                param_var: Vec::new(),
                const_node: Vec::new(),
                entry_instr: None,
                ret_instrs: Vec::new(),
                calls: Vec::new(),
            });
            return;
        }
        let mut fn_nodes = FuncNodes {
            instr_node: vec![u32::MAX; f.instrs.len()],
            result_var: vec![u32::MAX; f.instrs.len()],
            param_var: Vec::with_capacity(f.params.len()),
            const_node: Vec::with_capacity(f.consts.len()),
            entry_instr: None,
            ret_instrs: Vec::new(),
            calls: Vec::new(),
        };

        // Parameter variable nodes.
        for p in &f.params {
            let id = self.add_node(NodeKind::Variable(p.ty.feature_class()));
            fn_nodes.param_var.push(id);
        }
        // Constant nodes.
        for c in &f.consts {
            let id = self.add_node(NodeKind::Constant(c.ty().feature_class()));
            fn_nodes.const_node.push(id);
        }
        // Instruction nodes + result variables.
        for (_b, iid) in f.iter_instrs() {
            let instr = f.instr(iid);
            let node = self.add_node(NodeKind::Instruction(instr.op.feature_class()));
            fn_nodes.instr_node[iid.index()] = node;
            if instr.has_result() {
                let var = self.add_node(NodeKind::Variable(instr.ty.feature_class()));
                fn_nodes.result_var[iid.index()] = var;
                // def edge: instruction → its result variable.
                self.add_edge(Relation::Data, node, var, 0);
            }
            if instr.op == Opcode::Ret {
                fn_nodes.ret_instrs.push(node);
            }
            if instr.op == Opcode::Call {
                let name = instr.callee_name.clone().unwrap_or_default();
                fn_nodes.calls.push((node, name));
            }
        }
        // Entry instruction.
        if let Some(b0) = f.blocks.first() {
            if let Some(&first) = b0.instrs.first() {
                fn_nodes.entry_instr = Some(fn_nodes.instr_node[first.index()]);
            }
        }

        // Control edges: consecutive instructions in a block, then block
        // terminator → successor's first instruction.
        for b in &f.blocks {
            for w in b.instrs.windows(2) {
                let a = fn_nodes.instr_node[w[0].index()];
                let c = fn_nodes.instr_node[w[1].index()];
                self.add_edge(Relation::Control, a, c, 0);
            }
            if let Some(&last) = b.instrs.last() {
                let from = fn_nodes.instr_node[last.index()];
                for (pos, &succ) in f.instr(last).succs.iter().enumerate() {
                    if let Some(&first) = f.blocks[succ.index()].instrs.first() {
                        let to = fn_nodes.instr_node[first.index()];
                        self.add_edge(Relation::Control, from, to, pos as u32);
                    }
                }
            }
        }

        // Data edges: operand → using instruction, with positions.
        for (_b, iid) in f.iter_instrs() {
            let instr = f.instr(iid);
            let use_node = fn_nodes.instr_node[iid.index()];
            for (pos, &arg) in instr.args.iter().enumerate() {
                let src = match arg {
                    Operand::Instr(d) => fn_nodes.result_var[d.index()],
                    Operand::Param(i) => fn_nodes.param_var[i as usize],
                    Operand::Const(i) => fn_nodes.const_node[i as usize],
                    Operand::Global(gi) => {
                        // Globals get one shared variable node, lazily.
                        let key = format!("@global{gi}");
                        if let Some(&n) = self.externals.get(&key) {
                            n
                        } else {
                            let ty = m.globals[gi as usize].ty.clone().ptr();
                            let n = self.add_node(NodeKind::Variable(ty.feature_class()));
                            self.externals.insert(key, n);
                            n
                        }
                    }
                };
                if src != u32::MAX {
                    self.add_edge(Relation::Data, src, use_node, pos as u32);
                }
            }
        }

        self.funcs.push(fn_nodes);
    }

    /// Resolve call edges when only one function's graph was built: every
    /// callee becomes an external-entry node.
    fn finish_intra_function_calls(&mut self, _m: &Module) {
        let calls: Vec<(u32, String)> = self
            .funcs
            .iter()
            .flat_map(|fnodes| fnodes.calls.clone())
            .collect();
        for (call_node, name) in calls {
            let entry = self.external_entry(&name);
            self.add_edge(Relation::Call, call_node, entry, 0);
            self.add_edge(Relation::Call, entry, call_node, 0);
        }
    }

    /// Resolve call edges across the whole module: call → callee entry
    /// instruction and callee rets → call.
    fn finish_inter_function_calls(&mut self, m: &Module) {
        let mut pending = Vec::new();
        for fnodes in &self.funcs {
            for (call_node, name) in &fnodes.calls {
                pending.push((*call_node, name.clone()));
            }
        }
        for (call_node, name) in pending {
            match m.function_by_name(&name) {
                Some((fid, callee)) if !callee.attrs.external => {
                    let entry = self.funcs[fid.index()].entry_instr;
                    let rets = self.funcs[fid.index()].ret_instrs.clone();
                    if let Some(entry) = entry {
                        self.add_edge(Relation::Call, call_node, entry, 0);
                    }
                    for ret in rets {
                        self.add_edge(Relation::Call, ret, call_node, 0);
                    }
                }
                _ => {
                    let entry = self.external_entry(&name);
                    self.add_edge(Relation::Call, call_node, entry, 0);
                    self.add_edge(Relation::Call, entry, call_node, 0);
                }
            }
        }
    }

    fn external_entry(&mut self, name: &str) -> u32 {
        if let Some(&n) = self.externals.get(name) {
            return n;
        }
        let n = self.add_node(NodeKind::ExternalEntry);
        self.externals.insert(name.to_string(), n);
        n
    }
}

/// Summary statistics of a graph (used in benches and EXPERIMENTS.md).
#[derive(Debug, Clone, PartialEq)]
pub struct GraphStats {
    pub nodes: usize,
    pub instructions: usize,
    pub variables: usize,
    pub constants: usize,
    pub control_edges: usize,
    pub data_edges: usize,
    pub call_edges: usize,
}

impl GraphStats {
    pub fn of(g: &ProGraph) -> GraphStats {
        GraphStats {
            nodes: g.num_nodes(),
            instructions: g
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, NodeKind::Instruction(_)))
                .count(),
            variables: g
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, NodeKind::Variable(_)))
                .count(),
            constants: g
                .nodes
                .iter()
                .filter(|n| matches!(n.kind, NodeKind::Constant(_)))
                .count(),
            control_edges: g.num_edges(Relation::Control),
            data_edges: g.num_edges(Relation::Data),
            call_edges: g.num_edges(Relation::Call),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mga_ir::builder::FunctionBuilder;
    use mga_ir::instr::CmpPred;
    use mga_ir::{Param, Type};

    fn loop_module() -> Module {
        let mut m = Module::new("m");
        let mut b = FunctionBuilder::new(
            "scale",
            vec![
                Param {
                    name: "n".into(),
                    ty: Type::I64,
                },
                Param {
                    name: "a".into(),
                    ty: Type::F64.ptr(),
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
        let p = b.gep(b.param(1), i);
        let v = b.load(p);
        let s = b.call("helper", vec![v], Type::F64);
        b.store(s, p);
        let one = b.const_i64(1);
        let ix = b.add(i, one);
        b.br(header);
        b.phi_finish(ip, vec![(entry, zero), (body, ix)]);
        b.switch_to(exit);
        b.ret_void();
        m.add_function(b.finish());

        let mut h = FunctionBuilder::new(
            "helper",
            vec![Param {
                name: "x".into(),
                ty: Type::F64,
            }],
            Type::F64,
        );
        let two = h.const_f64(2.0);
        let r = h.fmul(h.param(0), two);
        h.ret(r);
        m.add_function(h.finish());
        m.resolve_calls();
        m
    }

    #[test]
    fn function_graph_shape() {
        let m = loop_module();
        let g = build_function_graph(&m, &m.functions[0]);
        g.validate().unwrap();
        let stats = GraphStats::of(&g);
        // 11 instructions in `scale`.
        assert_eq!(stats.instructions, 11);
        // 2 params + result vars.
        assert!(stats.variables >= 2);
        assert!(stats.constants >= 2);
        // Control: intra-block + branch edges, all present.
        assert!(stats.control_edges >= 10);
        // Call relation: call↔external entry.
        assert_eq!(stats.call_edges, 2);
    }

    #[test]
    fn module_graph_wires_call_to_callee_entry() {
        let m = loop_module();
        let g = build_module_graph(&m);
        g.validate().unwrap();
        // Call edges: call→callee entry, callee ret→call. No externals.
        assert_eq!(g.num_edges(Relation::Call), 2);
        assert!(g.nodes.iter().all(|n| n.kind != NodeKind::ExternalEntry));
        // Both call edges connect instruction nodes.
        for e in &g.edges[Relation::Call.index()] {
            assert!(g.nodes[e.src as usize].is_instruction());
            assert!(g.nodes[e.dst as usize].is_instruction());
        }
    }

    #[test]
    fn data_edges_have_positions() {
        let m = loop_module();
        let g = build_function_graph(&m, &m.functions[0]);
        // store has two operands: positions 0 and 1 must both appear.
        let positions: std::collections::HashSet<u32> = g.edges[Relation::Data.index()]
            .iter()
            .map(|e| e.pos)
            .collect();
        assert!(positions.contains(&0));
        assert!(positions.contains(&1));
    }

    #[test]
    fn def_use_chains_route_through_variables() {
        let m = loop_module();
        let g = build_function_graph(&m, &m.functions[0]);
        // PROGRAML's schema has no instruction→instruction data edges:
        // values route through variable/constant nodes.
        for e in &g.edges[Relation::Data.index()] {
            let s = &g.nodes[e.src as usize];
            let d = &g.nodes[e.dst as usize];
            assert!(
                !(s.is_instruction() && d.is_instruction()),
                "data edge between two instructions"
            );
        }
    }

    #[test]
    fn vocab_indices_in_range_and_distinct_by_kind() {
        let m = loop_module();
        let g = build_module_graph(&m);
        for n in &g.nodes {
            assert!(n.vocab_index() < Node::VOCAB_SIZE);
        }
        let instr = Node {
            kind: NodeKind::Instruction(0),
        };
        let var = Node {
            kind: NodeKind::Variable(0),
        };
        let cst = Node {
            kind: NodeKind::Constant(0),
        };
        let ext = Node {
            kind: NodeKind::ExternalEntry,
        };
        let set: std::collections::HashSet<usize> = [instr, var, cst, ext]
            .iter()
            .map(Node::vocab_index)
            .collect();
        assert_eq!(set.len(), 4);
        assert_eq!(ext.vocab_index(), Node::VOCAB_SIZE - 1);
    }

    #[test]
    fn csr_matches_edge_list() {
        let m = loop_module();
        let g = build_module_graph(&m);
        for r in Relation::ALL {
            let csr_in = g.csr_in(r);
            let csr_out = g.csr_out(r);
            assert_eq!(csr_in.num_edges(), g.num_edges(r));
            assert_eq!(csr_out.num_edges(), g.num_edges(r));
            assert_eq!(csr_in.num_nodes(), g.num_nodes());
            // Total degree equals edge count.
            let in_deg: usize = (0..g.num_nodes()).map(|i| csr_in.degree(i)).sum();
            assert_eq!(in_deg, g.num_edges(r));
            // Every incoming neighbor relationship appears in the edge list.
            for node in 0..g.num_nodes() {
                for &nb in csr_in.neighbors(node) {
                    assert!(g.edges[r.index()]
                        .iter()
                        .any(|e| e.src == nb && e.dst == node as u32));
                }
            }
        }
    }

    #[test]
    fn phi_back_edge_creates_control_cycle() {
        let m = loop_module();
        let g = build_function_graph(&m, &m.functions[0]);
        // The latch branch must produce a control edge back to the header's
        // first instruction (the phi), i.e. some control edge goes
        // "backwards" in node-id order.
        assert!(g.edges[Relation::Control.index()]
            .iter()
            .any(|e| e.dst < e.src));
    }

    #[test]
    fn module_graph_with_external_callee_gets_entry_node() {
        let mut m = loop_module();
        // Make the helper external (drop its body).
        let helper = m.functions.iter_mut().find(|f| f.name == "helper").unwrap();
        helper.blocks.clear();
        helper.instrs.clear();
        helper.consts.clear();
        helper.attrs.external = true;
        m.resolve_calls();
        let g = build_module_graph(&m);
        g.validate().unwrap();
        assert!(
            g.nodes.iter().any(|n| n.kind == NodeKind::ExternalEntry),
            "external callee must appear as an entry placeholder"
        );
        // Call edges attach to that placeholder in both directions.
        assert_eq!(g.num_edges(Relation::Call), 2);
    }

    #[test]
    fn empty_relation_yields_empty_csr() {
        // A straight-line function has no call edges.
        let mut m = Module::new("m");
        let mut b = mga_ir::builder::FunctionBuilder::new("f", vec![], Type::I64);
        let one = b.const_i64(1);
        let two = b.add(one, one);
        b.ret(two);
        m.add_function(b.finish());
        let g = build_module_graph(&m);
        let csr = g.csr_in(Relation::Call);
        assert_eq!(csr.num_edges(), 0);
        assert_eq!(csr.num_nodes(), g.num_nodes());
        for i in 0..g.num_nodes() {
            assert_eq!(csr.degree(i), 0);
        }
    }

    #[test]
    fn instruction_nodes_listed() {
        let m = loop_module();
        let g = build_function_graph(&m, &m.functions[0]);
        let instrs = g.instruction_nodes();
        assert_eq!(instrs.len(), GraphStats::of(&g).instructions);
        for &i in &instrs {
            assert!(g.nodes[i as usize].is_instruction());
        }
    }

    /// The cached endpoint lists and the CSR adjacencies are two views of
    /// the same edge-list pass: on a graph exercising every relation they
    /// must agree edge-for-edge, in both groupings.
    #[test]
    fn csr_and_endpoint_lists_agree() {
        let m = loop_module();
        let g = build_module_graph(&m);
        g.validate().unwrap();
        for r in Relation::ALL {
            let (src, dst) = g.edge_endpoints(r);
            assert_eq!(src.len(), g.num_edges(r));
            assert_eq!(dst.len(), g.num_edges(r));
            // Endpoint lists preserve raw edge order.
            for (i, e) in g.edges[r.index()].iter().enumerate() {
                assert_eq!((src[i], dst[i]), (e.src, e.dst));
            }
            let csr_in = g.csr_in(r);
            let csr_out = g.csr_out(r);
            assert_eq!(csr_in.num_edges(), src.len());
            assert_eq!(csr_out.num_edges(), src.len());
            // Each edge appears under its destination (incoming) and its
            // source (outgoing), with in-group order following edge order.
            let mut seen_in = vec![0usize; g.num_nodes()];
            let mut seen_out = vec![0usize; g.num_nodes()];
            for (&s, &d) in src.iter().zip(dst) {
                assert_eq!(csr_in.neighbors(d as usize)[seen_in[d as usize]], s);
                assert_eq!(csr_out.neighbors(s as usize)[seen_out[s as usize]], d);
                seen_in[d as usize] += 1;
                seen_out[s as usize] += 1;
            }
            // And the legacy edge-list constructor builds the same CSR.
            assert_eq!(
                csr_in,
                Csr::from_edges(g.num_nodes(), &g.edges[r.index()], true)
            );
        }
        // At least two relations must actually carry edges for this test
        // to mean anything.
        let populated = Relation::ALL
            .iter()
            .filter(|&&r| g.num_edges(r) > 0)
            .count();
        assert!(populated >= 2, "test graph must be multi-relation");
    }
}
