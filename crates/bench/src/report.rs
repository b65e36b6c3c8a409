//! The one JSON writer of the report subcommands (`experiments kernels`,
//! `comm`, `tune`, `serve`, `codec`, `pipeline`), and the [`Report`]
//! each of them returns.
//!
//! A report writes each row where it computes it, so every field is named
//! once, in an [`Obj`] call. Every pass/fail flag goes through
//! [`Obj::flag`], which writes it *and* records it in the report's
//! contract list: the file and the exit status cannot disagree.
//!
//! Layout: a document ([`Obj::doc`]) has one field per line, indented two
//! spaces per level; [`Obj::rows`] puts one object per line one level
//! deeper; every other value stays on its line. Values are written as
//! they display, so a caller keeps its own precision (`format_args!`).
//! Strings are not escaped: the reports write identifiers only.

use std::fmt::{self, Display};

/// Named pass/fail checks, one entry per name.
pub type Contracts = Vec<(&'static str, bool)>;

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

/// Records `ok` under `name` and returns it. A name checked several
/// times (one flag per row) holds only if it held every time.
pub(crate) fn check(contracts: &mut Contracts, name: &'static str, ok: bool) -> bool {
    match contracts.iter_mut().find(|(n, _)| *n == name) {
        Some((_, held)) => *held &= ok,
        None => contracts.push((name, ok)),
    }
    ok
}

/// A JSON object under construction, each field already written as
/// `"key": value`.
#[derive(Debug, Default, Clone)]
pub(crate) struct Obj(Vec<String>);

impl Obj {
    pub(crate) fn new() -> Obj {
        Obj::default()
    }

    /// `"key": value`, the value written as it displays (numbers, bools,
    /// nested objects, documents).
    pub(crate) fn field(mut self, key: impl Display, value: impl Display) -> Obj {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    pub(crate) fn text(self, key: impl Display, value: impl Display) -> Obj {
        self.field(key, format_args!("\"{value}\""))
    }

    /// A 64-bit checksum as sixteen hex digits.
    pub(crate) fn hash(self, key: impl Display, hash: u64) -> Obj {
        self.field(key, format_args!("\"{hash:016x}\""))
    }

    /// A contract flag: written as `ok` and recorded under `name`.
    pub(crate) fn flag(self, contracts: &mut Contracts, name: &'static str, ok: bool) -> Obj {
        self.field(name, check(contracts, name, ok))
    }

    /// `[a, b, …]` on one line.
    pub(crate) fn list<T: Display>(
        self,
        key: impl Display,
        items: impl IntoIterator<Item = T>,
    ) -> Obj {
        let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
        self.field(key, format_args!("[{}]", items.join(", ")))
    }

    /// An array with one object per line.
    pub(crate) fn rows(self, key: impl Display, rows: impl IntoIterator<Item = Obj>) -> Obj {
        let rows: Vec<String> = rows.into_iter().map(|r| r.to_string()).collect();
        self.field(key, lines('[', &rows, ']'))
    }

    /// The object as a document: one field per line.
    pub(crate) fn doc(&self) -> String {
        lines('{', &self.0, '}')
    }
}

/// The object on one line.
impl Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0.join(", "))
    }
}

/// `items` one per line between `open` and `close`, each (and each line
/// of a multi-line item) indented one level.
fn lines(open: char, items: &[String], close: char) -> String {
    let items: Vec<String> = items
        .iter()
        .map(|i| format!("  {}", i.replace('\n', "\n  ")))
        .collect();
    format!("{open}\n{}\n{close}", items.join(",\n"))
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
