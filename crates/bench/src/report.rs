//! The [`Report`] each report subcommand (`experiments kernels`, `comm`,
//! `tune`, `serve`, `codec`, `pipeline`) returns, its files written
//! through [`msa_obs::json::Obj`] and its flags recorded in [`Contracts`].

use msa_obs::json::Contracts;

/// What one report subcommand produces.
#[derive(Debug)]
pub struct Report {
    /// One body per file the subcommand writes.
    pub bodies: Vec<String>,
    /// The deterministic part alone (`--counters`), for a report whose
    /// body also carries wall-clock readings.
    pub counters: Option<String>,
    /// Every contract the report checked: the flags in its bodies, and
    /// checks on numbers it writes.
    pub contracts: Contracts,
}

/// The two-section file of the kernel and comm reports: the
/// deterministic `counters` document, then the `timings` document.
pub(crate) fn counters_and_timings(counters: &str, timings: &str) -> String {
    format!("{{\n\"counters\": {counters},\n\"timings\": {timings}\n}}")
}

/// Every contract of `report` holds, except the wall-clock ones named in
/// `except`, which a loaded test machine cannot vouch for.
#[cfg(test)]
pub(crate) fn assert_contracts_hold(report: &Report, except: &[&str]) {
    for (name, ok) in &report.contracts {
        assert!(*ok || except.contains(name), "contract {name} is false");
    }
}
