//! Wall-clock spans recorded by the benchmark around its calls into each
//! layer. Spans stay in memory and are written once, when the run ends.

use std::io::Write;
use std::time::Instant;

/// One closed span: name, start and end in ns since the recorder's origin,
/// and the index of the span that was open when it began.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

/// An in-memory span recorder. Spans nest: `enter` opens a child of the
/// innermost open span, `exit` closes it.
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Spans {
    pub fn new() -> Self {
        Spans {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open one.
    pub fn enter(&mut self, name: impl Into<String>) {
        let ix = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name: name.into(),
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
        });
        self.open.push(ix);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let ix = self.open.pop().expect("exit matches an enter");
        self.spans[ix].end_ns = self.now_ns();
    }

    /// Writes every span as a JSON array of
    /// `{"name", "start_ns", "end_ns", "parent"}` objects.
    pub fn write_json(&self, path: &str) -> std::io::Result<()> {
        if let Some(dir) = std::path::Path::new(path).parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "[")?;
        for (ix, span) in self.spans.iter().enumerate() {
            let parent = span
                .parent
                .map_or_else(|| "null".to_string(), |p| p.to_string());
            let comma = if ix + 1 == self.spans.len() { "" } else { "," };
            writeln!(
                out,
                "  {{\"id\": {ix}, \"name\": {:?}, \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}}}{comma}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        writeln!(out, "]")?;
        out.flush()
    }
}
