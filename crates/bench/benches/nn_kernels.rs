//! Microbenchmarks of the NN substrate: blocked matmul, GNN
//! forward and forward+backward over a batch of real kernel graphs, and
//! one DAE training epoch.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use mga_dae::{pretrain, DaeConfig};
use mga_gnn::{GnnConfig, GraphBatch, HeteroGnn};
use mga_graph::build_module_graph;
use mga_kernels::catalog::openmp_catalog;
use mga_nn::tape::Tape;
use mga_nn::tensor::Tensor;
use mga_nn::ParamSet;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::hint::black_box;

fn rand_tensor(r: usize, c: usize, rng: &mut StdRng) -> Tensor {
    Tensor::from_vec(r, c, (0..r * c).map(|_| rng.gen_range(-1.0..1.0)).collect())
}

fn bench_matmul(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(1);
    let mut g = c.benchmark_group("matmul");
    g.sample_size(20);
    for &n in &[64usize, 256, 512] {
        let a = rand_tensor(n, n, &mut rng);
        let b = rand_tensor(n, n, &mut rng);
        g.bench_with_input(BenchmarkId::new("square", n), &n, |bench, _| {
            bench.iter(|| black_box(a.matmul(&b)))
        });
    }
    // The GNN's typical shape: tall-skinny times small square.
    let a = rand_tensor(8192, 32, &mut rng);
    let b = rand_tensor(32, 32, &mut rng);
    g.bench_function("gnn_shape_8192x32x32", |bench| {
        bench.iter(|| black_box(a.matmul(&b)))
    });
    g.finish();
}

fn bench_gnn(c: &mut Criterion) {
    let cat: Vec<_> = openmp_catalog().into_iter().take(24).collect();
    let graphs: Vec<_> = cat.iter().map(|s| build_module_graph(&s.module)).collect();
    let refs: Vec<&_> = graphs.iter().collect();
    let batch = GraphBatch::new(&refs);
    let mut rng = StdRng::seed_from_u64(2);
    let mut ps = ParamSet::new();
    let gnn = HeteroGnn::new(
        &mut ps,
        "g",
        &GnnConfig {
            dim: 32,
            layers: 2,
            update: mga_gnn::UpdateKind::Gru,
            homogeneous: false,
        },
        &mut rng,
    );
    let mut g = c.benchmark_group("hetero_gnn");
    g.sample_size(20);
    g.bench_function("forward_24_graphs", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            black_box(gnn.forward(&mut tape, &ps, &batch))
        })
    });
    g.bench_function("forward_backward_24_graphs", |b| {
        b.iter(|| {
            let mut tape = Tape::new();
            let out = gnn.forward(&mut tape, &ps, &batch);
            let loss = tape.mse_loss(out, &Tensor::zeros(24, 32));
            tape.backward(loss);
            black_box(tape.grad(out).map(|g| g.get(0, 0)))
        })
    });
    g.finish();
}

fn bench_dae(c: &mut Criterion) {
    let mut rng = StdRng::seed_from_u64(3);
    let data: Vec<Vec<f32>> = (0..64)
        .map(|_| (0..48).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
        .collect();
    let mut g = c.benchmark_group("dae");
    g.sample_size(15);
    g.bench_function("pretrain_10_epochs_64x48", |b| {
        b.iter(|| {
            let mut r = StdRng::seed_from_u64(4);
            let cfg = DaeConfig {
                input_dim: 48,
                hidden_dim: 32,
                code_dim: 16,
                epochs: 10,
                ..DaeConfig::default()
            };
            black_box(pretrain(&data, cfg, &mut r).final_loss)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_matmul, bench_gnn, bench_dae);
criterion_main!(benches);
