//! `mga-nn` — a from-scratch neural-network substrate.
//!
//! The paper builds its models with PyTorch and PyTorch Geometric. No
//! comparable Rust stack exists (the calibration note's "heavy
//! reimplementation"), so this crate provides exactly the pieces the MGA
//! pipeline needs:
//!
//! * [`tensor::Tensor`] — a dense row-major f32 tensor with blocked,
//!   thread-parallel matrix multiplication,
//! * [`pool`] — the persistent worker pool behind every parallel kernel
//!   (sized by `available_parallelism`, overridable with `MGA_THREADS`;
//!   all kernels are bitwise deterministic across thread counts),
//! * [`tape`] — reverse-mode automatic differentiation over an explicit
//!   op tape, including the `gather`/`scatter` segment ops that make
//!   message passing and whole-graph readout differentiable,
//! * [`segment`] — the parallel gather/scatter row kernels those ops and
//!   their backward passes share,
//! * [`arena`] — the size-class buffer free list behind the tape's
//!   reset-and-replay memory plan (steady-state epochs allocate nothing),
//! * [`aligned`] — the 64-byte-aligned `f32` buffers every tape/arena/
//!   plan allocation is backed by (the microkernel alignment contract),
//! * [`simd`] — register-blocked AVX2 microkernels with a bitwise-
//!   identical scalar fallback; the process's backend is the only
//!   kernel choice (`MGA_SIMD=0` kill switch),
//! * [`ew`] — chunked elementwise kernels the tape's fused forward and
//!   in-place backward passes are built from,
//! * [`params`] — parameter storage shared between layers and optimizers,
//! * [`layers`] — `Linear`, `Mlp` and the `GruCell` used by gated graph
//!   networks,
//! * [`optim`] — SGD with momentum and the AdamW optimizer the paper
//!   trains with,
//! * [`init`] — seeded Xavier/Kaiming initializers, and
//! * [`scaler`] — the Gaussian-rank scaler the paper applies before the
//!   denoising autoencoder, plus min-max scaling for performance counters.
//!
//! Everything is deterministic given a seed; gradients are validated
//! against finite differences in the test suite.

pub mod aligned;
pub mod arena;
pub mod ew;
pub mod infer;
pub mod init;
pub mod layers;
pub mod optim;
pub mod params;
pub mod pool;
pub mod scaler;
pub mod segment;
pub mod simd;
pub mod tape;
pub mod tensor;

pub use params::{GradShard, GradShards, ParamId, ParamSet};
pub use tape::{FusedAct, Tape, Var};
pub use tensor::Tensor;
