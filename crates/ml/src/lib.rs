//! # ml
//!
//! The classical (non-deep) parallel ML toolkit of the reproduction:
//!
//! * [`svm`] — a kernel SVM trained with SMO, and the **parallel cascade
//!   SVM** of the paper's remote-sensing study (\[16\], Cavallaro et al.):
//!   partitions train in parallel, only support vectors are merged up a
//!   binary tree — the open-source MPI SVM package the paper describes,
//!   rebuilt on rayon;
//! * [`metrics`] — confusion matrices and accuracy.

pub mod metrics;
pub mod svm;

pub use metrics::{accuracy, confusion_matrix};
pub use svm::{cascade_svm, CascadeReport, Kernel, Svm, SvmConfig};
