//! # benchtemp-tensor
//!
//! A self-contained CPU tensor library with reverse-mode automatic
//! differentiation — the substrate every TGNN in the BenchTemp reproduction
//! trains on. The paper ran on PyTorch + CUDA; this crate supplies the same
//! semantics (dense f32 math, tape autograd, Adam, BCE/CE losses, the layer
//! set the seven models need) in pure Rust with zero native dependencies.
//!
//! ## Quick tour
//!
//! ```
//! use benchtemp_tensor::{Matrix, ParamStore, Graph, Adam, nn::Mlp, init};
//!
//! let mut store = ParamStore::new();
//! let mut rng = init::rng(0);
//! let mlp = Mlp::new(&mut store, &mut rng, "demo", 2, 8, 1);
//! let mut adam = Adam::paper_default();
//!
//! let mut g = Graph::new(&store);
//! let x = g.input(Matrix::from_rows(&[&[0.0, 1.0]]));
//! let logits = mlp.forward(&mut g, x);
//! let loss = g.bce_with_logits(logits, &[1.0]);
//! let grads = g.backward(loss);
//! adam.step(&mut store, &grads);
//! ```

pub mod checkpoint;
pub mod init;
pub mod matrix;
pub mod nn;
pub mod optim;
pub mod params;
pub mod pool;
pub mod rng;
pub mod sanitize;
pub mod tape;

pub use checkpoint::{load_checkpoint, save_checkpoint};
pub use matrix::{kernel_isa, Matrix};
pub use optim::{Adam, Sgd};
pub use params::{Graph, ParamId, ParamStore};
pub use pool::{pool, ThreadPool};
pub use rng::{Pcg32, SplitMix64};
pub use tape::{Activation, Gradients, Tape, Var};
