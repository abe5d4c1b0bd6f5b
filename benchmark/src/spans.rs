//! In-memory spans: name, start, end, parent and the request that caused
//! them. Recorded from this package only, around the calls into each layer;
//! kept in memory during the run and written out when it ends.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its [`Spans`] store.
pub type SpanId = u32;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the store was created.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    /// Index of the schedule entry that caused the span; spans of one
    /// request share it. Set-up spans carry [`NO_REQUEST`].
    pub request: u32,
}

pub const NO_REQUEST: u32 = u32::MAX;

impl Span {
    pub fn duration(&self) -> u64 {
        self.end - self.start
    }
}

pub struct Spans {
    t0: Instant,
    spans: Vec<Span>,
}

impl Spans {
    /// A store with room for `capacity` spans, so recording one never
    /// reallocates inside a timed window.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            t0: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>, request: u32) -> SpanId {
        self.spans.push(Span {
            name,
            start: 0,
            end: 0,
            parent,
            request,
        });
        let id = self.spans.len() - 1;
        self.spans[id].start = self.now();
        id as SpanId
    }

    pub fn close(&mut self, id: SpanId) {
        let now = self.now();
        self.spans[id as usize].end = now;
    }

    /// Times `work` as one span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u32,
        work: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, parent, request);
        let out = work();
        self.close(id);
        out
    }

    pub fn iter(&self) -> impl Iterator<Item = &Span> {
        self.spans.iter()
    }

    /// Every span's self time: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        self_times(&self.spans)
    }

    /// Writes one tab-separated line per span: name, start, end, self time,
    /// parent (or `-`), request (or `-`).
    pub fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "name\tstart_ns\tend_ns\tself_ns\tparent\trequest")?;
        for (span, own) in self.spans.iter().zip(self.self_times()) {
            let parent = span.parent.map_or("-".into(), |p| p.to_string());
            let request = match span.request {
                NO_REQUEST => "-".into(),
                r => r.to_string(),
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{own}\t{parent}\t{request}",
                span.name, span.start, span.end
            )?;
        }
        out.flush()
    }
}

fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::duration).collect();
    for span in spans {
        if let Some(parent) = span.parent {
            own[parent as usize] = own[parent as usize].saturating_sub(span.duration());
        }
    }
    own
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name: "s",
            start,
            end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = [
            span(0, 100, None),    // root: children cover 30 + 50
            span(10, 40, Some(0)), // child with a grandchild of 10
            span(15, 25, Some(1)), // grandchild
            span(45, 95, Some(0)), // second child, no children
            span(200, 260, None),  // unrelated root
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 10, 50, 60]);
        // Self times of a tree add up to the root's duration.
        assert_eq!(self_times(&spans)[..4].iter().sum::<u64>(), 100);
    }

    #[test]
    fn nested_recording_links_parents() {
        let mut spans = Spans::with_capacity(4);
        let root = spans.open("root", None, 7);
        let inner = spans.time("inner", Some(root), 7, || 5);
        spans.close(root);
        assert_eq!(inner, 5);
        let recorded: Vec<&Span> = spans.iter().collect();
        assert_eq!(recorded[1].parent, Some(root));
        assert!(recorded[0].start <= recorded[1].start && recorded[1].end <= recorded[0].end);
        assert!(spans.self_times()[0] <= recorded[0].duration());
    }
}
