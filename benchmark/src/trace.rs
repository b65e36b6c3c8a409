//! In-memory spans recorded by the harness around its calls into each
//! layer. Nothing is written while a rep runs; the spans are summed (and
//! optionally dumped) after it ends.

use std::time::Instant;

/// One timed interval on one lane (a rank, or a serving endpoint).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-level name, e.g. `nn.backward`.
    pub name: &'static str,
    /// Suffix for spans that share a name, e.g. the layer kind under
    /// `nn.backward.`; empty otherwise.
    pub detail: &'static str,
    /// Nanoseconds since the tracer's origin.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span on the same lane.
    pub parent: Option<usize>,
    /// Which rep the span belongs to.
    pub rep: u32,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// Span recorder for one lane. `enter`/`exit` nest; `record` adds an
/// already-measured interval under the innermost open span.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    rep: u32,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    /// `origin` is shared by all lanes of a rep so their spans line up.
    pub fn new(origin: Instant, rep: u32) -> Self {
        Tracer {
            origin,
            rep,
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str) -> usize {
        let id = self.push(name, "", self.now_ns(), 0);
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let top = self.open.pop();
        assert_eq!(top, Some(id), "spans must close innermost first");
        self.spans[id].end_ns = self.now_ns();
    }

    pub fn record(&mut self, name: &'static str, detail: &'static str, start_ns: u64, end_ns: u64) {
        self.push(name, detail, start_ns, end_ns);
    }

    fn push(
        &mut self,
        name: &'static str,
        detail: &'static str,
        start_ns: u64,
        end_ns: u64,
    ) -> usize {
        self.spans.push(Span {
            name,
            detail,
            start_ns,
            end_ns,
            parent: self.open.last().copied(),
            rep: self.rep,
        });
        self.spans.len() - 1
    }

    pub fn finish(self) -> Vec<Span> {
        assert!(self.open.is_empty(), "unclosed span at end of rep");
        self.spans
    }
}

/// Self time of every span: its duration minus the part of its interval
/// that its direct children cover. Overlapping children are merged
/// first, so a nanosecond covered by two children is subtracted once.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            let lo = s.start_ns.max(spans[p].start_ns);
            let hi = s.end_ns.min(spans[p].end_ns);
            if hi > lo {
                children[p].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = 0;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            s.dur_ns() - covered
        })
        .collect()
}

/// Total duration of the spans called exactly `name` (no `detail`
/// suffix), in ms.
pub fn total_ms(spans: &[Span], name: &str) -> f64 {
    spans
        .iter()
        .filter(|s| s.name == name && s.detail.is_empty())
        .map(Span::dur_ns)
        .sum::<u64>() as f64
        / 1e6
}

/// Share of the root spans' wall time that named layer spans account
/// for: Σ self time of non-root spans / Σ root duration. What is left is
/// harness glue between the calls.
pub fn coverage(spans: &[Span]) -> f64 {
    let own = self_times(spans);
    let (mut root, mut layers) = (0u64, 0u64);
    for (s, own) in spans.iter().zip(own) {
        match s.parent {
            None => root += s.dur_ns(),
            Some(_) => layers += own,
        }
    }
    layers as f64 / root.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name: "s",
            detail: "",
            start_ns,
            end_ns,
            parent,
            rep: 0,
        }
    }

    #[test]
    fn overlapping_children_are_subtracted_once() {
        // Root 0..100 with children 10..40, 30..60 (overlap 30..40) and
        // 80..90; the grandchild must not count against the root.
        let spans = vec![
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(30, 60, Some(0)),
            span(80, 90, Some(0)),
            span(12, 20, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 30 - 8, 30, 10, 8]);
    }

    #[test]
    fn coverage_is_layer_self_time_over_root_wall() {
        let spans = vec![
            span(0, 100, None),
            span(0, 60, Some(0)),
            span(10, 30, Some(1)),
            span(70, 95, Some(0)),
        ];
        // Layers: (60 - 20) + 20 + 25 = 85 of a 100 ns root.
        assert!((coverage(&spans) - 0.85).abs() < 1e-12);
    }

    #[test]
    fn tracer_nests_and_stamps_parents() {
        let mut t = Tracer::new(Instant::now(), 7);
        let a = t.enter("a");
        let b = t.enter("b");
        t.record("c", "x", 1, 2);
        t.exit(b);
        t.exit(a);
        let spans = t.finish();
        assert_eq!(spans[0].parent, None);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[2].parent, Some(1));
        assert_eq!((spans[2].detail, spans[2].rep), ("x", 7));
        assert!(spans[0].end_ns >= spans[1].end_ns);
    }
}
