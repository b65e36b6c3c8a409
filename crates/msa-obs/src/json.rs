//! The one JSON writer of the workspace: the metrics snapshot
//! ([`crate::Snapshot::to_json`]) and every `bench` report subcommand
//! write through [`Obj`], which names each field once. [`Obj::flag`]
//! writes a pass/fail flag *and* records it in a [`Contracts`] list, so a
//! report file and its exit status cannot disagree.
//!
//! Layout: a document ([`Obj::doc`]) has one field per line, indented two
//! spaces per level; [`Obj::rows`] puts one object per line one level
//! deeper; every other value stays on its line. Values are written as
//! they display, so a caller keeps its own precision (`format_args!`);
//! only [`Obj::text`] quotes and escapes.

use std::fmt::{self, Display, Write as _};

/// Named pass/fail checks, one entry per name.
pub type Contracts = Vec<(&'static str, bool)>;

/// Records `ok` under `name` and returns it. A name checked several
/// times (one flag per row) holds only if it held every time.
pub fn check(contracts: &mut Contracts, name: &'static str, ok: bool) -> bool {
    match contracts.iter_mut().find(|(n, _)| *n == name) {
        Some((_, held)) => *held &= ok,
        None => contracts.push((name, ok)),
    }
    ok
}

/// A JSON object under construction, each field already written as
/// `"key": value`. Keys are written as they display, unescaped.
#[derive(Debug, Default, Clone)]
pub struct Obj(Vec<String>);

impl Obj {
    /// An object with no fields.
    pub fn new() -> Obj {
        Obj::default()
    }

    /// `"key": value`, the value written as it displays (numbers, bools,
    /// nested objects, documents).
    pub fn field(mut self, key: impl Display, value: impl Display) -> Obj {
        self.0.push(format!("\"{key}\": {value}"));
        self
    }

    /// `"key": "value"`, the value a JSON string: quotes, backslashes
    /// and control characters escaped.
    pub fn text(self, key: impl Display, value: impl Display) -> Obj {
        let mut quoted = String::new();
        json_string(&mut quoted, &value.to_string());
        self.field(key, quoted)
    }

    /// A 64-bit checksum or bit pattern as sixteen hex digits.
    pub fn hash(self, key: impl Display, hash: u64) -> Obj {
        self.field(key, format_args!("\"{hash:016x}\""))
    }

    /// A contract flag: written as `ok` and recorded under `name`.
    pub fn flag(self, contracts: &mut Contracts, name: &'static str, ok: bool) -> Obj {
        self.field(name, check(contracts, name, ok))
    }

    /// `[a, b, …]` on one line.
    pub fn list<T: Display>(self, key: impl Display, items: impl IntoIterator<Item = T>) -> Obj {
        let items: Vec<String> = items.into_iter().map(|i| i.to_string()).collect();
        self.field(key, format_args!("[{}]", items.join(", ")))
    }

    /// An array with one object per line.
    pub fn rows(self, key: impl Display, rows: impl IntoIterator<Item = Obj>) -> Obj {
        self.field(key, lines('[', rows, ']'))
    }

    /// The object as a document: one field per line.
    pub fn doc(&self) -> String {
        lines('{', &self.0, '}')
    }
}

/// The object on one line.
impl Display for Obj {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{{}}}", self.0.join(", "))
    }
}

/// Appends `s` as a JSON string literal.
fn json_string(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            '\r' => out.push_str("\\r"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// `items` one per line between `open` and `close`, each (and each line
/// of a multi-line item) indented one level; no items puts `close` on
/// the line after `open`.
fn lines(open: char, items: impl IntoIterator<Item = impl Display>, close: char) -> String {
    let mut out = String::from(open);
    for (i, item) in items.into_iter().enumerate() {
        out.push_str(if i == 0 { "\n  " } else { ",\n  " });
        out.push_str(&item.to_string().replace('\n', "\n  "));
    }
    out.push('\n');
    out.push(close);
    out
}
