//! Deterministic mixed-workload trace generation.

use crate::job::JobSpec;
use msa_core::workload::WorkloadClass;
use msa_core::{SimTime, XorShift};

/// Trace shape.
#[derive(Debug, Clone)]
pub struct TraceConfig {
    pub jobs: usize,
    /// Mean inter-arrival time in seconds.
    pub mean_interarrival_s: f64,
    /// Max nodes per job.
    pub max_nodes: usize,
    /// Work scale-down factor (larger = shorter jobs).
    pub scale: f64,
    pub seed: u64,
    /// Class mix as weights (Simulation, HighlyScalable, DataAnalytics,
    /// DlTraining, DlInference).
    pub mix: [f64; 5],
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            jobs: 40,
            mean_interarrival_s: 20.0,
            max_nodes: 12,
            scale: 200.0,
            seed: 2021,
            mix: [0.3, 0.2, 0.2, 0.2, 0.1],
        }
    }
}

const CLASSES: [WorkloadClass; 5] = [
    WorkloadClass::Simulation,
    WorkloadClass::HighlyScalable,
    WorkloadClass::DataAnalytics,
    WorkloadClass::DlTraining,
    WorkloadClass::DlInference,
];

/// Generates a trace with exponential inter-arrivals and the configured
/// class mix.
pub fn generate_trace(cfg: &TraceConfig) -> Vec<JobSpec> {
    assert!(cfg.jobs >= 1 && cfg.max_nodes >= 1);
    let total: f64 = cfg.mix.iter().sum();
    assert!(total > 0.0, "class mix must have positive weight");
    let mut rng = XorShift(cfg.seed | 1);
    let mut t = 0.0f64;
    (0..cfg.jobs)
        .map(|id| {
            // Exponential inter-arrival.
            let u = rng.unit().max(1e-12);
            t += -cfg.mean_interarrival_s * u.ln();
            // Weighted class draw.
            let mut pick = rng.unit() * total;
            let mut class = CLASSES[0];
            for (c, w) in CLASSES.iter().zip(&cfg.mix) {
                if pick < *w {
                    class = *c;
                    break;
                }
                pick -= w;
            }
            let nodes = 1 + (rng.next_u64() % cfg.max_nodes as u64) as usize;
            JobSpec::scaled(id, class, nodes, SimTime::from_secs(t), cfg.scale)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_has_requested_length_and_order() {
        let trace = generate_trace(&TraceConfig::default());
        assert_eq!(trace.len(), 40);
        for w in trace.windows(2) {
            assert!(w[0].submit <= w[1].submit, "arrivals must be ordered");
        }
        for (i, j) in trace.iter().enumerate() {
            assert_eq!(j.id, i);
            assert!(j.nodes >= 1 && j.nodes <= 12);
        }
    }

    #[test]
    fn deterministic_per_seed() {
        let a = generate_trace(&TraceConfig::default());
        let b = generate_trace(&TraceConfig::default());
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.submit, y.submit);
            assert_eq!(x.class, y.class);
            assert_eq!(x.nodes, y.nodes);
        }
        let c = generate_trace(&TraceConfig {
            seed: 999,
            ..Default::default()
        });
        assert!(a.iter().zip(&c).any(|(x, y)| x.submit != y.submit));
    }

    #[test]
    fn class_mix_respected() {
        let cfg = TraceConfig {
            jobs: 500,
            mix: [1.0, 0.0, 0.0, 0.0, 0.0],
            ..Default::default()
        };
        let trace = generate_trace(&cfg);
        assert!(trace
            .iter()
            .all(|j| j.class == WorkloadClass::Simulation));
    }

    #[test]
    fn mean_interarrival_roughly_matches() {
        let cfg = TraceConfig {
            jobs: 2000,
            mean_interarrival_s: 10.0,
            ..Default::default()
        };
        let trace = generate_trace(&cfg);
        let last = trace.last().unwrap().submit.as_secs();
        let mean = last / 2000.0;
        assert!((mean - 10.0).abs() < 1.0, "empirical mean {mean}");
    }
}
