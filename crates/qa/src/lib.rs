//! # qa
//!
//! The Quantum Module of the MSA, simulated. The paper's remote-sensing
//! study (\[11\], Cavallaro et al.) trains **ensembles of SVMs on a D-Wave
//! quantum annealer** (2000Q, later the 5000-qubit Advantage via JUNIQ /
//! D-Wave Leap), limited to binary classification and sub-sampled
//! training sets. The classical surrogate for a quantum annealer is
//! simulated annealing on the same QUBO — identical problem encoding and
//! result decoding, different sampling physics — so every code path
//! around the annealer (QUBO construction, qubit/coupler budgets,
//! subsample ensembling) is exercised faithfully.
//!
//! * [`qubo`] — QUBO problems and annealer capacity specs (2000Q vs
//!   Advantage);
//! * [`anneal`](mod@anneal) — parallel simulated-annealing sampler with incremental
//!   energy evaluation, plus exact brute force for testing;
//! * [`qsvm`] — the Willsch et al. kernel-SVM-as-QUBO encoding;
//! * [`ensemble`] — subsample ensembles that respect a device budget.

pub mod anneal;
pub mod ensemble;
pub mod qsvm;
pub mod qubo;

pub use anneal::{anneal, brute_force, SaParams, Sample};
pub use ensemble::{train_ensemble, QsvmEnsemble};
pub use qsvm::{QsvmConfig, QsvmModel};
pub use qubo::{AnnealerSpec, Qubo};
