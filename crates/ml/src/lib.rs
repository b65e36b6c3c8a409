//! # ml
//!
//! The classical (non-deep) parallel ML toolkit of the reproduction:
//!
//! * [`svm`] — a kernel SVM trained with SMO, and the **parallel cascade
//!   SVM** of the paper's remote-sensing study (\[16\], Cavallaro et al.):
//!   partitions train in parallel, only support vectors are merged up a
//!   binary tree — the open-source MPI SVM package the paper describes,
//!   rebuilt on rayon;
//! * [`forest`] — a random forest (the Spark MLlib classifier the DAM
//!   case study uses), trees trained in parallel;
//! * [`autoencoder`] — dense autoencoder for non-linear RS data
//!   compression (the Haut et al. cloud AE study);
//! * [`metrics`] — confusion matrices, accuracy, macro-F1.

pub mod autoencoder;
pub mod forest;
pub mod gbdt;
pub mod kmeans;
pub mod metrics;
pub mod multiclass;
pub mod preprocess;
pub mod svm;

pub use forest::{RandomForest, RandomForestConfig};
pub use gbdt::{Gbdt, GbdtConfig};
pub use kmeans::{kmeans, KMeansConfig, KMeansModel};
pub use metrics::{accuracy, confusion_matrix};
pub use multiclass::OneVsRestSvm;
pub use preprocess::StandardScaler;
pub use svm::{cascade_svm, CascadeReport, Kernel, Svm, SvmConfig};
