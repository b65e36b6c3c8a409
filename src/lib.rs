//! # msa-suite
//!
//! Facade crate for the Modular Supercomputing Architecture (MSA)
//! reproduction: re-exports every subsystem so examples, integration
//! tests and downstream users need a single dependency.
//!
//! See the repository `README.md` for the architecture overview,
//! `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for the
//! paper-vs-measured record.

pub use data;
pub use distrib;
pub use hpda;
pub use ml;
pub use msa_core;
pub use msa_net;
pub use msa_obs;
pub use msa_sched;
pub use msa_serve;
pub use msa_storage;
pub use msa_verify;
pub use nn;
pub use qa;
pub use tensor;

/// Workspace version.
pub const VERSION: &str = env!("CARGO_PKG_VERSION");

#[cfg(test)]
mod tests {
    #[test]
    fn facade_exposes_all_subsystems() {
        // Touch one symbol from each crate so a broken re-export fails
        // this build.
        let _ = crate::msa_core::system::presets::deep();
        let _ = crate::msa_net::LinkParams::infiniband_edr();
        let _ = crate::msa_obs::MetricsRegistry::new();
        let _ = crate::msa_storage::Nam::deep_prototype();
        let _ = crate::msa_sched::TraceConfig::default();
        let _ = crate::msa_serve::BatchPolicy::none();
        let _ = crate::msa_verify::Profile::strict();
        let _ = crate::tensor::Tensor::zeros(&[1]);
        let _ = crate::nn::Adam::new(1e-4);
        let _ = crate::distrib::TrainConfig::default();
        let _ = crate::ml::SvmConfig::default();
        let _ = crate::qa::AnnealerSpec::dwave_advantage();
        let _ = crate::hpda::Pdata::from_vec(vec![1], 1);
        let _ = crate::data::bigearth::BigEarthConfig::default();
        assert!(!crate::VERSION.is_empty());
    }
}
