//! In-memory spans recorded by the benchmark around its calls into the
//! library's layers. Spans are kept in memory and written out once, when
//! the run ends; nothing here runs inside the library.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    req: u64,
}

/// One thread's span recorder. Spans nest: a span entered while another is
/// open becomes its child.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
}

/// Aggregate of every span of one name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Totals {
    pub count: u64,
    pub total_ns: u64,
    /// Duration minus the time covered by child spans.
    pub self_ns: u64,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Self {
            epoch,
            spans: Vec::with_capacity(1 << 16),
            open: Vec::with_capacity(16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`Tracer::exit`].
    pub fn enter(&mut self, name: &'static str, req: u64) {
        let parent = self.open.last().copied().unwrap_or(NO_PARENT);
        let idx = self.spans.len() as u32;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            req,
        });
        self.open.push(idx);
    }

    /// Closes the innermost open span.
    pub fn exit(&mut self) {
        let end = self.now_ns();
        let idx = self.open.pop().expect("exit without a matching enter");
        self.spans[idx as usize].end_ns = end;
    }

    /// Runs `f` inside a span of its own; returns `f`'s result and the
    /// span's duration in ns.
    pub fn leaf<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce() -> T) -> (T, u64) {
        let idx = self.spans.len();
        self.enter(name, req);
        let out = f();
        self.exit();
        let s = &self.spans[idx];
        (out, s.end_ns - s.start_ns)
    }

    /// Appends another thread's spans (after it finished), re-basing their
    /// parent indices.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            if s.parent != NO_PARENT {
                s.parent += base;
            }
            s
        }));
    }

    /// Count, total and self time per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                child_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, child) in self.spans.iter().zip(child_ns) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(child);
        }
        out
    }

    /// Writes the spans to `perfbench/out/trace-<workload>.ndjson` (the
    /// last traced run of a workload wins) and names the file in the
    /// run's detail line.
    pub fn save(&self, workload: &str, run: &mut crate::report::Run) {
        let path = std::path::Path::new("perfbench/out").join(format!("trace-{workload}.ndjson"));
        match self.write(&path) {
            Ok(()) => run.detail("trace_file", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }

    /// Writes every span as one NDJSON line (`name`, `start_ns`, `end_ns`,
    /// `parent` index or -1, `req`).
    fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut text = String::with_capacity(self.spans.len() * 80);
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                -1
            } else {
                i64::from(s.parent)
            };
            let _ = writeln!(
                text,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{},\"req\":{}}}",
                s.name, s.start_ns, s.end_ns, parent, s.req
            );
        }
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, text)
    }
}
