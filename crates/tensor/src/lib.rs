//! # mg-tensor
//!
//! A small, dependable reverse-mode autograd engine over dense `f64`
//! matrices with first-class CSR sparse support, built as the substrate
//! for the AdamGNN reproduction (no mature GNN/autograd stack exists in
//! Rust, so this crate provides one).
//!
//! ## Highlights
//! * [`Matrix`] — row-major dense matrix with cache-aware matmuls.
//! * [`Csr`] — sparsity structure separated from values, so sparse values
//!   can be learnable tape variables (AdamGNN's `S_k` needs this).
//! * [`SparseMatrix`] — a `Csr` with its values, the one form node
//!   features are stored in.
//! * [`Tape`] / [`Var`] — eager-forward, arena-based autograd with an
//!   op set tailored to graph neural networks: `spmm`, segment softmax,
//!   gather/scatter, pairwise BCE decoders and the DEC Student-t KL loss.
//! * [`ParamStore`] / [`AdamConfig`] — Adam optimizer with gradient
//!   clipping and checkpointing.
//! * [`gradcheck`] — central-difference validation used by the test
//!   suite to verify every op's backward implementation.
//!
//! ## Example
//! ```
//! use mg_tensor::{Matrix, Tape};
//!
//! let tape = Tape::new();
//! let x = tape.leaf(Matrix::from_vec(1, 2, vec![3.0, -1.0]), true);
//! let y = tape.mul_elem(x, x);
//! let loss = tape.sum_all(y);
//! let grads = tape.backward(loss);
//! // d/dx sum(x^2) = 2x
//! assert_eq!(grads.get(x).unwrap().data(), &[6.0, -2.0]);
//! ```

mod backward;
mod checkpoint;
mod csr;
mod error;
pub mod gradcheck;
#[cfg(test)]
mod kl_oracle;
mod matrix;
mod ops;
mod optim;
mod par;
mod sparse;
mod tape;
mod tile;

pub use checkpoint::{CheckpointScope, KeepVars};
pub use csr::Csr;
pub use error::MgError;
pub use gradcheck::{check_gradients, check_gradients_sampled, GradCheckReport};
pub use matrix::Matrix;
pub use ops::{sigmoid, softmax_rows, student_t_target};
pub use optim::{AdamConfig, Binding, ParamId, ParamSnapshot, ParamStore};
pub use sparse::SparseMatrix;
pub use tape::{Gradients, Tape, Var};
#[doc(hidden)]
pub use tile::Isa;
