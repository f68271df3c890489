//! A std-only span recorder for the traced run.
//!
//! Spans are recorded around the benchmark's calls into each layer and
//! kept in memory; [`Tracer::write_tsv`] writes them out at exit. A
//! span names its parent explicitly (spans opened on executor threads
//! belong to a parent opened elsewhere) and carries a group id: the
//! repetition or job it belongs to.

use std::io::Write;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a span in its tracer.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.engine.run`.
    pub name: String,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch (equal to the start
    /// while the span is open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Repetition or job id.
    pub group: u64,
}

impl Span {
    /// Length of the span.
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }
}

impl Tracer {
    fn now_ns(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&self, name: &str, group: u64, parent: Option<SpanId>) -> SpanId {
        let start_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent,
            group,
        });
        spans.len() - 1
    }

    /// Closes span `id` and returns its duration in nanoseconds.
    pub fn exit(&self, id: SpanId) -> u64 {
        let end_ns = self.now_ns();
        let mut spans = self.spans.lock().expect("span recorder poisoned");
        spans[id].end_ns = end_ns;
        spans[id].duration_ns()
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in nanoseconds.
    pub fn time<R>(
        &self,
        name: &str,
        group: u64,
        parent: Option<SpanId>,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.enter(name, group, parent);
        let out = f();
        (out, self.exit(id))
    }

    /// A copy of every span recorded so far.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span recorder poisoned").clone()
    }

    /// Writes every span as tab-separated values (id, parent, group,
    /// name, start, end, self time).
    pub fn write_tsv(&self, path: &std::path::Path) -> std::io::Result<()> {
        let spans = self.spans();
        let selves = self_times(&spans);
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tparent\tgroup\tname\tstart_ns\tend_ns\tself_ns")?;
        for (id, (span, self_ns)) in spans.iter().zip(selves).enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{parent}\t{}\t{}\t{}\t{}\t{self_ns}",
                span.group, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }
}

/// Self time of every span: its duration minus the part of its
/// interval covered by its children. Children may nest, overlap each
/// other (run on parallel threads) or stick out of the parent; only the
/// union of their intervals clipped to the parent is taken away.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent.filter(|&p| p < spans.len()) {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.max(reach);
                let end = end.min(span.end_ns);
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            span.duration_ns() - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s".into(),
            start_ns,
            end_ns,
            parent,
            group: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        let spans = [
            span(0, 100, None),
            span(10, 40, Some(0)),
            span(15, 30, Some(1)), // grandchild: charged to span 1 only
            span(50, 70, Some(0)),
        ];
        assert_eq!(self_times(&spans), vec![50, 15, 15, 20]);
    }

    #[test]
    fn self_time_takes_the_union_of_overlapping_children() {
        let spans = [
            span(0, 100, None),
            span(10, 60, Some(0)), // two threads working side by side
            span(30, 80, Some(0)),
            span(35, 45, Some(0)), // inside both
        ];
        assert_eq!(self_times(&spans)[0], 100 - 70);
    }

    #[test]
    fn self_time_clips_children_to_the_parent() {
        let spans = [
            span(100, 200, None),
            span(50, 150, Some(0)),
            span(180, 260, Some(0)),
        ];
        assert_eq!(self_times(&spans)[0], 100 - 50 - 20);
    }

    #[test]
    fn tracer_records_parents_and_groups() {
        let tracer = Tracer::default();
        let (value, outer_ns) = tracer.time("outer", 7, None, || {
            let inner = tracer.enter("inner", 7, Some(0));
            tracer.exit(inner);
            42
        });
        assert_eq!(value, 42);
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert_eq!(spans[0].duration_ns(), outer_ns);
        assert!(spans.iter().all(|s| s.group == 7 && s.end_ns >= s.start_ns));
        assert!(spans[0].start_ns <= spans[1].start_ns && spans[1].end_ns <= spans[0].end_ns);
    }
}
