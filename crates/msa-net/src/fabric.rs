//! Message-level fabric simulation.
//!
//! The α–β models in [`crate::cost`] price one collective in isolation;
//! real module fabrics carry *competing* traffic. This module simulates a
//! two-level fat-tree (nodes → leaf switches → spine) at flow granularity
//! with **max-min fair** bandwidth sharing and progressive filling: at
//! any instant every active flow gets its fair share of its bottleneck
//! link; the simulation advances from flow completion to flow completion.
//!
//! Used to study congestion effects the closed-form models cannot see:
//! incast into one node, oversubscribed uplinks, and how a second job's
//! traffic degrades an allreduce.

use msa_core::SimTime;
use std::collections::HashMap;

/// A two-level fat-tree topology.
#[derive(Debug, Clone)]
pub struct FatTree {
    /// Compute nodes per leaf switch.
    pub nodes_per_leaf: usize,
    /// Number of leaf switches.
    pub leaves: usize,
    /// Node NIC bandwidth (each direction), GB/s.
    pub nic_bw_gbs: f64,
    /// Leaf-to-spine uplink bandwidth (each direction, aggregate per
    /// leaf), GB/s. `nodes_per_leaf × nic < uplink` means no
    /// oversubscription.
    pub uplink_bw_gbs: f64,
}

impl FatTree {
    /// A JUWELS-booster-like fabric: 4-node leaves, full bisection.
    pub fn full_bisection(nodes_per_leaf: usize, leaves: usize, nic_bw_gbs: f64) -> Self {
        FatTree {
            nodes_per_leaf,
            leaves,
            nic_bw_gbs,
            uplink_bw_gbs: nic_bw_gbs * nodes_per_leaf as f64,
        }
    }

    /// Total compute nodes.
    pub fn nodes(&self) -> usize {
        self.nodes_per_leaf * self.leaves
    }

    fn leaf_of(&self, node: usize) -> usize {
        node / self.nodes_per_leaf
    }

    /// Directed links on the path `src → dst`.
    fn path(&self, src: usize, dst: usize) -> Vec<Link> {
        assert!(src < self.nodes() && dst < self.nodes() && src != dst);
        let (ls, ld) = (self.leaf_of(src), self.leaf_of(dst));
        let mut p = vec![Link::NicUp(src)];
        if ls != ld {
            p.push(Link::LeafUp(ls));
            p.push(Link::LeafDown(ld));
        }
        p.push(Link::NicDown(dst));
        p
    }

    fn capacity(&self, link: Link) -> f64 {
        match link {
            Link::NicUp(_) | Link::NicDown(_) => self.nic_bw_gbs * 1e9,
            Link::LeafUp(_) | Link::LeafDown(_) => self.uplink_bw_gbs * 1e9,
        }
    }
}

/// A directed fabric link.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Link {
    NicUp(usize),
    NicDown(usize),
    LeafUp(usize),
    LeafDown(usize),
}

/// One flow to simulate.
#[derive(Debug, Clone)]
pub struct Flow {
    pub src: usize,
    pub dst: usize,
    pub bytes: f64,
    /// Start time.
    pub start: SimTime,
}

/// Result for one flow.
#[derive(Debug, Clone)]
pub struct FlowResult {
    pub finish: SimTime,
    /// Mean achieved throughput in GB/s.
    pub mean_gbs: f64,
}

struct ActiveFlow {
    idx: usize,
    remaining: f64,
    path: Vec<Link>,
}

/// Max-min fair rates for the active flows (progressive filling).
fn max_min_rates(tree: &FatTree, flows: &[ActiveFlow]) -> Vec<f64> {
    let mut rates = vec![0.0f64; flows.len()];
    let mut frozen = vec![false; flows.len()];
    // Remaining capacity and unfrozen flow count per link.
    let mut cap: HashMap<Link, f64> = HashMap::new();
    let mut count: HashMap<Link, usize> = HashMap::new();
    for f in flows {
        for &l in &f.path {
            cap.entry(l).or_insert_with(|| tree.capacity(l));
            *count.entry(l).or_insert(0) += 1;
        }
    }
    let mut remaining = flows.len();
    while remaining > 0 {
        // Bottleneck link: smallest fair share among links with unfrozen
        // flows.
        let (&bottleneck, _) = match cap
            .iter()
            .filter(|(l, _)| count.get(l).copied().unwrap_or(0) > 0)
            .min_by(|(la, ca), (lb, cb)| {
                let fa = **ca / count[la] as f64;
                let fb = **cb / count[lb] as f64;
                fa.total_cmp(&fb)
            }) {
            Some(x) => x,
            None => break,
        };
        let share = cap[&bottleneck] / count[&bottleneck] as f64;
        // Freeze every unfrozen flow crossing the bottleneck at `share`.
        for (i, f) in flows.iter().enumerate() {
            if frozen[i] || !f.path.contains(&bottleneck) {
                continue;
            }
            frozen[i] = true;
            rates[i] = share;
            remaining -= 1;
            for &l in &f.path {
                *cap.get_mut(&l).expect("path link seeded at setup") -= share; // lint: allow(unwrap) -- every path link is seeded into cap/count at setup
                *count.get_mut(&l).expect("path link seeded at setup") -= 1;
            }
        }
    }
    rates
}

/// Simulates all flows to completion; returns per-flow results in input
/// order.
pub fn simulate(tree: &FatTree, flows: &[Flow]) -> Vec<FlowResult> {
    let mut results: Vec<Option<FlowResult>> = vec![None; flows.len()];
    let mut pending: Vec<(usize, &Flow)> = flows.iter().enumerate().collect();
    pending.sort_by_key(|a| a.1.start);
    let mut pending = pending.into_iter().peekable();
    let mut active: Vec<ActiveFlow> = Vec::new();
    let mut now = SimTime::ZERO;

    loop {
        // Admit flows that have started.
        while let Some(&(idx, f)) = pending.peek() {
            if f.start <= now || active.is_empty() {
                now = now.max(f.start);
                active.push(ActiveFlow {
                    idx,
                    remaining: f.bytes,
                    path: tree.path(f.src, f.dst),
                });
                pending.next();
            } else {
                break;
            }
        }
        if active.is_empty() {
            break;
        }

        let rates = max_min_rates(tree, &active);
        // Time to the next event: earliest completion or next admission.
        let mut dt = f64::INFINITY;
        for (f, &r) in active.iter().zip(&rates) {
            if r > 0.0 {
                dt = dt.min(f.remaining / r);
            }
        }
        if let Some(&(_, f)) = pending.peek() {
            dt = dt.min((f.start - now).as_secs());
        }
        assert!(dt.is_finite(), "simulation stalled");
        now += SimTime::from_secs(dt);

        // Progress and retire completed flows.
        let mut still_active = Vec::with_capacity(active.len());
        for (mut f, r) in active.into_iter().zip(rates) {
            f.remaining -= r * dt;
            if f.remaining <= 1e-6 {
                let flow = &flows[f.idx];
                let dur = (now - flow.start).as_secs().max(1e-12);
                results[f.idx] = Some(FlowResult {
                    finish: now,
                    mean_gbs: flow.bytes / dur / 1e9,
                });
            } else {
                still_active.push(f);
            }
        }
        active = still_active;
    }

    results
        .into_iter()
        // lint: allow(unwrap) -- the waterfilling loop terminates only when every flow has a rate
        .map(|r| r.expect("every flow completes"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tree() -> FatTree {
        FatTree::full_bisection(4, 4, 10.0) // 16 nodes, 10 GB/s NICs
    }

    /// [`tree`] with 4:1 oversubscribed uplinks.
    fn oversubscribed() -> FatTree {
        FatTree {
            uplink_bw_gbs: 10.0,
            ..tree()
        }
    }

    fn flow(src: usize, dst: usize, gb: f64, start: f64) -> Flow {
        Flow {
            src,
            dst,
            bytes: gb * 1e9,
            start: SimTime::from_secs(start),
        }
    }

    #[test]
    fn single_flow_runs_at_nic_speed() {
        let r = simulate(&tree(), &[flow(0, 5, 10.0, 0.0)]);
        assert!((r[0].finish.as_secs() - 1.0).abs() < 1e-9);
        assert!((r[0].mean_gbs - 10.0).abs() < 1e-6);
    }

    #[test]
    fn incast_shares_the_destination_nic() {
        // Two sources into one destination: each gets half the dst NIC.
        let r = simulate(
            &tree(),
            &[flow(0, 8, 10.0, 0.0), flow(4, 8, 10.0, 0.0)],
        );
        for fr in &r {
            assert!((fr.finish.as_secs() - 2.0).abs() < 1e-6, "{fr:?}");
        }
    }

    #[test]
    fn disjoint_flows_do_not_interfere() {
        let r = simulate(
            &tree(),
            &[flow(0, 5, 10.0, 0.0), flow(1, 6, 10.0, 0.0)],
        );
        for fr in &r {
            assert!((fr.finish.as_secs() - 1.0).abs() < 1e-6);
        }
    }

    #[test]
    fn early_finisher_frees_bandwidth_for_the_rest() {
        // A short and a long flow share a NIC: after the short one ends,
        // the long one speeds up. Total: phase1 1 GB each @5 ⇒ 0.2 s;
        // then 9 GB @10 ⇒ 0.9 s ⇒ finish at 1.1 s.
        let r = simulate(
            &tree(),
            &[flow(0, 8, 10.0, 0.0), flow(4, 8, 1.0, 0.0)],
        );
        assert!((r[1].finish.as_secs() - 0.2).abs() < 1e-6, "{:?}", r[1]);
        assert!((r[0].finish.as_secs() - 1.1).abs() < 1e-6, "{:?}", r[0]);
    }

    #[test]
    fn oversubscription_throttles_cross_leaf_traffic() {
        // 4 nodes of leaf 0 each send to a distinct node of leaf 1.
        // Full bisection: all at NIC speed. 4:1 oversubscribed: uplink
        // 10 GB/s shared by 4 flows ⇒ 2.5 GB/s each.
        let flows: Vec<Flow> = (0..4).map(|i| flow(i, 4 + i, 10.0, 0.0)).collect();
        let full = simulate(&tree(), &flows);
        let over = simulate(&oversubscribed(), &flows);
        for fr in &full {
            assert!((fr.finish.as_secs() - 1.0).abs() < 1e-6);
        }
        for fr in &over {
            assert!((fr.finish.as_secs() - 4.0).abs() < 1e-6, "{fr:?}");
        }
    }

    #[test]
    fn same_leaf_traffic_avoids_the_uplink() {
        // Intra-leaf flows are unaffected by a saturated uplink.
        let mut flows: Vec<Flow> = (0..4).map(|i| flow(i, 4 + i, 50.0, 0.0)).collect();
        flows.push(flow(4, 5, 10.0, 0.0)); // wait, 4 and 5 are leaf-1 nodes
        let over = oversubscribed();
        let r = simulate(&over, &flows);
        // The intra-leaf flow (index 4) shares only its NICs... its dst 5
        // also receives a cross-leaf flow (1→5), so it shares the dst NIC.
        assert!(
            r[4].finish.as_secs() < 2.1,
            "intra-leaf flow should stay fast: {:?}",
            r[4]
        );
    }

    #[test]
    fn ring_exchange_matches_alpha_beta_bandwidth_term() {
        // A ring neighbour exchange (each node sends `m` to the next):
        // all NICs carry exactly one flow ⇒ time = m / nic_bw, matching
        // the per-step bandwidth term of the ring allreduce model.
        let t = tree();
        let n = t.nodes();
        let m = 2.0; // GB
        let flows: Vec<Flow> = (0..n).map(|i| flow(i, (i + 1) % n, m, 0.0)).collect();
        let r = simulate(&t, &flows);
        for fr in &r {
            assert!((fr.finish.as_secs() - m / 10.0).abs() < 1e-6, "{fr:?}");
        }
    }

    #[test]
    fn staggered_starts_are_respected() {
        let r = simulate(
            &tree(),
            &[flow(0, 8, 10.0, 0.0), flow(4, 8, 10.0, 5.0)],
        );
        // First flow finishes before the second even starts.
        assert!((r[0].finish.as_secs() - 1.0).abs() < 1e-6);
        assert!((r[1].finish.as_secs() - 6.0).abs() < 1e-6);
    }

    #[test]
    fn max_min_never_oversubscribes_a_link() {
        // Property: for a busy random pattern, the finish time of every
        // flow is at least bytes / nic_bw (no flow exceeds line rate).
        let t = tree();
        let flows: Vec<Flow> = (0..12)
            .map(|i| flow(i, (i * 7 + 3) % 16, 1.0 + (i % 4) as f64, 0.0))
            .collect();
        let r = simulate(&t, &flows);
        for (f, fr) in flows.iter().zip(&r) {
            let min_time = f.bytes / (t.nic_bw_gbs * 1e9);
            assert!(
                fr.finish.as_secs() >= min_time - 1e-9,
                "flow beat line rate: {fr:?}"
            );
        }
    }
}
