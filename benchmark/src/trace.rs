//! In-memory spans around the benchmark's own calls into each layer:
//! `(name, start_ns, end_ns, parent)`, written out once when the run ends.
//! Spans inside the program are a later change.

use crate::json::Json;
use std::time::Instant;

pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
}

pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Spans {
        Spans { origin: Instant::now(), spans: Vec::new(), open: Vec::new() }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`, child of the span that is open
    /// now. Returns `f`'s result and the span's duration in nanoseconds.
    pub fn time<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> (T, u64) {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.spans[id].end_ns = end_ns;
        (out, end_ns - start_ns)
    }

    /// [`Spans::time`] for callers that only want the result.
    pub fn span<T>(&mut self, name: &str, f: impl FnOnce(&mut Spans) -> T) -> T {
        self.time(name, f).0
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// A span's self time: its duration minus what its children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let children: u64 =
            self.spans.iter().filter(|s| s.parent == Some(id)).map(|s| s.end_ns - s.start_ns).sum();
        (self.spans[id].end_ns - self.spans[id].start_ns).saturating_sub(children)
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::Str(s.name.clone())),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        ("self_ns", Json::Num(self.self_ns(id) as f64)),
                        ("parent", s.parent.map_or(Json::Null, |p| Json::Num(p as f64))),
                    ])
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut spans = Spans::new();
        let (answer, outer_ns) = spans.time("outer", |s| {
            s.span("inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
            s.span("inner", |_| ());
            42
        });
        assert_eq!(answer, 42);
        let all = spans.spans();
        assert_eq!(all.len(), 3);
        assert_eq!((all[0].parent, all[1].parent, all[2].parent), (None, Some(0), Some(0)));
        assert!(all[1].start_ns >= all[0].start_ns && all[2].end_ns <= all[0].end_ns);
        assert_eq!(outer_ns, all[0].end_ns - all[0].start_ns);
        assert!(all[1].end_ns - all[1].start_ns >= 2_000_000);
        assert!(spans.self_ns(0) <= outer_ns - 2_000_000);
    }
}
