//! Modular ML workflows across MSA modules.
//!
//! Paper §II-A: "One use case for ML is typically that compute-intensive
//! training can be performed on the CM module while inference and
//! testing (i.e., both less compute-intensive) can be scaled-out on the
//! ESB." This module prices that split: train on one module, ship the
//! model over the network federation, fan the inference sweep out on
//! another module — versus doing everything on the training module.

use crate::perf::{sustained_flops, BIGEARTH_SAMPLES, RESNET50_GRAD_BYTES, RESNET50_TRAIN_FLOPS};
use msa_core::module::Module;
use msa_core::system::FederationLink;
use msa_core::SimTime;

/// An ML campaign: a training phase followed by a large inference/test
/// sweep (e.g. classifying a continental archive with the new model).
#[derive(Debug, Clone)]
pub struct MlCampaign {
    /// Total training compute in FLOPs (epochs × samples × flops/sample).
    pub train_flops: f64,
    /// Inference sweep size in samples.
    pub inference_samples: u64,
    /// Forward-pass FLOPs per sample.
    pub inference_flops_per_sample: f64,
    /// Model size in bytes (what must cross the federation).
    pub model_bytes: f64,
}

impl MlCampaign {
    /// The ResNet-50 land-cover campaign: 20 epochs of training, then
    /// classify a 10-million-patch archive.
    pub fn resnet50_landcover() -> Self {
        MlCampaign {
            train_flops: 20.0 * BIGEARTH_SAMPLES as f64 * RESNET50_TRAIN_FLOPS,
            inference_samples: 10_000_000,
            inference_flops_per_sample: RESNET50_TRAIN_FLOPS / 3.0,
            model_bytes: RESNET50_GRAD_BYTES,
        }
    }

    /// Training time on `nodes` nodes of `module` (data-parallel, ideal).
    pub fn train_time(&self, module: &Module, nodes: usize) -> SimTime {
        assert!(nodes >= 1 && nodes <= module.node_count);
        let rate = sustained_flops(module.node.dl_tflops()) * nodes as f64;
        SimTime::from_secs(self.train_flops / rate)
    }

    /// Inference sweep time on `nodes` nodes of `module` (embarrassingly
    /// parallel).
    pub fn inference_time(&self, module: &Module, nodes: usize) -> SimTime {
        assert!(nodes >= 1 && nodes <= module.node_count);
        let flops = self.inference_samples as f64 * self.inference_flops_per_sample;
        let rate = sustained_flops(module.node.dl_tflops()) * nodes as f64;
        SimTime::from_secs(flops / rate)
    }

    /// Model transfer time across a federation link.
    pub fn transfer_time(&self, link: &FederationLink) -> SimTime {
        link.link.p2p(self.model_bytes)
    }

    /// Everything on the training module with `nodes` nodes.
    pub fn colocated(&self, module: &Module, nodes: usize) -> WorkflowCost {
        let train = self.train_time(module, nodes);
        let infer = self.inference_time(module, nodes);
        WorkflowCost {
            train,
            transfer: SimTime::ZERO,
            inference: infer,
            total: train + infer,
        }
    }

    /// Modular split: train on `(train_module, train_nodes)`, transfer
    /// over `link`, infer on `(infer_module, infer_nodes)`.
    pub fn modular(
        &self,
        train_module: &Module,
        train_nodes: usize,
        link: &FederationLink,
        infer_module: &Module,
        infer_nodes: usize,
    ) -> WorkflowCost {
        let train = self.train_time(train_module, train_nodes);
        let transfer = self.transfer_time(link);
        let inference = self.inference_time(infer_module, infer_nodes);
        WorkflowCost {
            train,
            transfer,
            inference,
            total: train + transfer + inference,
        }
    }
}

/// Phase breakdown of one workflow variant.
#[derive(Debug, Clone)]
pub struct WorkflowCost {
    pub train: SimTime,
    pub transfer: SimTime,
    pub inference: SimTime,
    pub total: SimTime,
}

#[cfg(test)]
mod tests {
    use super::*;
    use msa_core::system::presets;
    use msa_core::ModuleKind;

    #[test]
    fn scaling_inference_out_on_the_booster_wins() {
        // The §II-A use case on DEEP: train on the 16-node DAM (V100s),
        // but fan the archive sweep out over the 75-node ESB.
        let deep = presets::deep();
        let dam = deep.module_of_kind(ModuleKind::DataAnalytics).unwrap();
        let esb = deep.module_of_kind(ModuleKind::Booster).unwrap();
        let link = deep.link(dam.id, esb.id).unwrap();
        let campaign = MlCampaign::resnet50_landcover();

        let colocated = campaign.colocated(dam, 16);
        let modular = campaign.modular(dam, 16, link, esb, 75);
        assert!(
            modular.total < colocated.total,
            "modular {} should beat colocated {}",
            modular.total,
            colocated.total
        );
        // The win comes from the inference phase, not the training.
        assert_eq!(modular.train, colocated.train);
        assert!(modular.inference < colocated.inference / 3.0);
        // And the model transfer is negligible against either phase.
        assert!(modular.transfer.as_secs() < 0.01 * modular.total.as_secs());
    }

    #[test]
    fn transfer_cost_scales_with_model_size() {
        let deep = presets::deep();
        let dam = deep.module_of_kind(ModuleKind::DataAnalytics).unwrap();
        let esb = deep.module_of_kind(ModuleKind::Booster).unwrap();
        let link = deep.link(dam.id, esb.id).unwrap();
        let mut small = MlCampaign::resnet50_landcover();
        let mut big = small.clone();
        small.model_bytes = 1e6;
        big.model_bytes = 1e10;
        assert!(big.transfer_time(link) > small.transfer_time(link) * 100.0);
    }

    #[test]
    fn inference_time_inversely_proportional_to_nodes() {
        let deep = presets::deep();
        let esb = deep.module_of_kind(ModuleKind::Booster).unwrap();
        let c = MlCampaign::resnet50_landcover();
        let t1 = c.inference_time(esb, 1);
        let t75 = c.inference_time(esb, 75);
        assert!((t1.as_secs() / t75.as_secs() - 75.0).abs() < 1e-6);
    }

    #[test]
    fn campaign_phases_sum_to_total() {
        let deep = presets::deep();
        let dam = deep.module_of_kind(ModuleKind::DataAnalytics).unwrap();
        let c = MlCampaign::resnet50_landcover();
        let w = c.colocated(dam, 8);
        assert_eq!(
            w.total.as_secs(),
            (w.train + w.transfer + w.inference).as_secs()
        );
    }
}
