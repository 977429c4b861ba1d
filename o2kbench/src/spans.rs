//! In-memory spans recorded by the benchmark around its own calls into the
//! simulator's layers, written out once when the benchmark ends.

use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One closed span: a name, host start and end relative to the recorder's
/// origin, and the span that was open when it started.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// A span recorder. A disabled recorder runs the wrapped calls and records
/// nothing, so untraced passes go through the same code.
#[derive(Debug)]
pub struct Spans {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            on: false,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    pub fn on() -> Spans {
        Spans {
            on: true,
            ..Spans::off()
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Run `f` inside a span named `name`; spans `f` opens become its
    /// children.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        let id = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Number of spans recorded so far; a mark for [`Spans::total_s`].
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Host seconds inside spans named `name` recorded since `mark`.
    pub fn total_s(&self, mark: usize, name: &str) -> f64 {
        self.spans[mark..]
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 * 1e-9)
            .sum()
    }

    /// Write the spans as a Chrome/Perfetto trace (`"ph":"X"` slices, µs).
    pub fn write_json(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "{{\"traceEvents\":[")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"name\":\"{}\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":{:.3},\"dur\":{:.3},\
                 \"args\":{{\"id\":{i},\"parent\":{parent}}}}}{}",
                s.name,
                s.start_ns as f64 / 1e3,
                (s.end_ns - s.start_ns) as f64 / 1e3,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        writeln!(out, "]}}")?;
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spans_nest_and_total() {
        let mut s = Spans::on();
        s.span("outer", |s| {
            s.span("inner", |_| ());
            s.span("inner", |_| ());
        });
        assert_eq!(s.len(), 3);
        assert_eq!(s.spans[1].parent, Some(0));
        assert_eq!(s.spans[0].parent, None);
        assert!(s.total_s(0, "outer") >= s.total_s(0, "inner"));
        assert_eq!(s.total_s(1, "outer"), 0.0);
    }

    #[test]
    fn a_disabled_recorder_records_nothing() {
        let mut s = Spans::off();
        assert_eq!(s.span("x", |_| 7), 7);
        assert_eq!(s.len(), 0);
    }
}
