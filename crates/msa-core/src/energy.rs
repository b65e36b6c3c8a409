//! Energy accounting.
//!
//! The MSA's headline claim is that running each application part on an
//! *exactly matching* module improves both time-to-solution and energy.
//! [`PowerModel`] turns a node spec + utilisation into watts, and
//! [`PowerModel::energy_j`] prices an interval of virtual time in joules.

use crate::hw::NodeSpec;
use crate::simtime::SimTime;

/// Linear idle/peak power model for one node.
///
/// `P(u) = idle + u · (peak − idle)` with utilisation `u ∈ [0, 1]`.
#[derive(Debug, Clone, Copy)]
pub struct PowerModel {
    pub idle_w: f64,
    pub peak_w: f64,
}

impl PowerModel {
    /// Derives a model from a node spec: idle is taken as 30% of peak,
    /// which matches typical HPC node measurements.
    pub fn for_node(node: &NodeSpec) -> Self {
        let peak = node.peak_power_w();
        PowerModel {
            idle_w: 0.3 * peak,
            peak_w: peak,
        }
    }

    /// Power draw at the given utilisation (clamped to [0, 1]).
    pub fn power_w(&self, utilization: f64) -> f64 {
        let u = utilization.clamp(0.0, 1.0);
        self.idle_w + u * (self.peak_w - self.idle_w)
    }

    /// Energy in joules for running `nodes` nodes at `utilization` for `dt`.
    pub fn energy_j(&self, nodes: usize, utilization: f64, dt: SimTime) -> f64 {
        self.power_w(utilization) * nodes as f64 * dt.as_secs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn power_interpolates_idle_to_peak() {
        let m = PowerModel {
            idle_w: 100.0,
            peak_w: 500.0,
        };
        assert_eq!(m.power_w(0.0), 100.0);
        assert_eq!(m.power_w(1.0), 500.0);
        assert_eq!(m.power_w(0.5), 300.0);
        // clamping
        assert_eq!(m.power_w(-1.0), 100.0);
        assert_eq!(m.power_w(2.0), 500.0);
    }

    #[test]
    fn energy_scales_linearly() {
        let m = PowerModel {
            idle_w: 0.0,
            peak_w: 1000.0,
        };
        let e1 = m.energy_j(1, 1.0, SimTime::from_secs(10.0));
        let e2 = m.energy_j(2, 1.0, SimTime::from_secs(10.0));
        assert_eq!(e1, 10_000.0);
        assert_eq!(e2, 2.0 * e1);
    }
}
