//! Deterministic open-loop arrival processes.
//!
//! The serving tier is driven by a Poisson arrival stream: millions of
//! simulated users issue requests independently of how fast the server
//! answers (open loop — the paper's interactive health-campaign users do
//! not wait for one another). The stream is generated by msa-core's
//! xorshift64* PRNG with exponential inter-arrival gaps, so one
//! `(seed, rps, duration)` triple always produces the same sequence of
//! integer-picosecond timestamps: replaying a load twice is bit-exact,
//! which is what lets CI byte-compare serving artifacts.

use msa_core::{SimTime, XorShift};

/// An open-loop offered load: `rps` requests/s sustained for `duration`,
/// drawn from a population of `users` simulated clients.
#[derive(Debug, Clone, PartialEq)]
pub struct OfferedLoad {
    /// Mean arrival rate in requests per second.
    pub rps: f64,
    /// How long the arrival process runs (simulated time).
    pub duration: SimTime,
    /// Size of the simulated user population; each request is tagged
    /// with a user id in `0..users`.
    pub users: u64,
    /// PRNG seed; the whole stream is a pure function of this config.
    pub seed: u64,
}

impl OfferedLoad {
    /// A load of `rps` requests/s for `duration`, with a million-user
    /// population and a fixed default seed.
    pub fn new(rps: f64, duration: SimTime) -> Self {
        OfferedLoad {
            rps,
            duration,
            users: 1_000_000,
            seed: 0x5e7e_2021,
        }
    }

    /// Replaces the user population size.
    pub fn users(mut self, users: u64) -> Self {
        self.users = users;
        self
    }

    /// Replaces the seed.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// One request arrival: absolute timestamp (integer picoseconds from the
/// start of the load) plus the issuing user.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    /// Arrival time in picoseconds since t=0.
    pub at_ps: u64,
    /// Issuing user id, `< OfferedLoad::users`.
    pub user: u64,
}

/// Generates the full arrival stream for an offered load.
///
/// Timestamps are strictly computed in sequence (`t += -ln(u)/rps`),
/// rounded once to integer picoseconds, and non-decreasing; every
/// downstream latency number derives from these integers, so the stream
/// is the single source of simulated time.
pub fn open_loop(load: &OfferedLoad) -> Vec<Arrival> {
    assert!(
        load.rps > 0.0 && load.rps.is_finite(),
        "offered load wants a positive finite rps, got {}",
        load.rps
    );
    assert!(load.users > 0, "offered load wants at least one user");
    let horizon_s = load.duration.as_secs();
    assert!(horizon_s > 0.0, "offered load wants a positive duration");

    let mean_gap_s = 1.0 / load.rps;
    // Scramble the seed with one splitmix64 step before seeding the
    // generator: xorshift needs a non-zero state, and a plain `| 1`
    // (the trace-generator idiom) would collapse seeds differing only
    // in the lowest bit into the same stream.
    let mut s = load.seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    s = (s ^ (s >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    s = (s ^ (s >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    s ^= s >> 31;
    let mut rng = XorShift(s | 1);
    let mut t = 0.0f64;
    let mut out = Vec::with_capacity((load.rps * horizon_s) as usize + 16);
    loop {
        let u = rng.unit().max(1e-12);
        t += -mean_gap_s * u.ln();
        if t > horizon_s {
            return out;
        }
        out.push(Arrival {
            at_ps: SimTime::from_secs(t).as_ps(),
            user: rng.next_u64() % load.users,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_is_deterministic_in_the_seed() {
        let load = OfferedLoad::new(500.0, SimTime::from_secs(10.0)).seed(7);
        let a = open_loop(&load);
        let b = open_loop(&load);
        assert_eq!(a, b);
        let c = open_loop(&load.clone().seed(8));
        assert_ne!(a, c);
    }

    #[test]
    fn open_loop_matches_the_offered_rate() {
        let load = OfferedLoad::new(1000.0, SimTime::from_secs(20.0));
        let arrivals = open_loop(&load);
        // 20k expected; Poisson fluctuation is ~sqrt(20k) ≈ 141.
        let n = arrivals.len() as f64;
        assert!((19_000.0..21_000.0).contains(&n), "got {n} arrivals");
        // Timestamps are non-decreasing and inside the horizon.
        let horizon_ps = SimTime::from_secs(20.0).as_ps();
        let mut prev = 0u64;
        for a in &arrivals {
            assert!(a.at_ps >= prev && a.at_ps <= horizon_ps);
            assert!(a.user < load.users);
            prev = a.at_ps;
        }
    }

    #[test]
    fn open_loop_users_bound_the_user_ids() {
        let load = OfferedLoad::new(200.0, SimTime::from_secs(5.0)).users(3);
        let arrivals = open_loop(&load);
        assert!(arrivals.iter().all(|a| a.user < 3));
        // All three users show up in a thousand requests.
        for want in 0..3 {
            assert!(arrivals.iter().any(|a| a.user == want));
        }
    }
}
