//! In-memory spans recorded around calls into the library's public
//! functions. Nothing inside the library is instrumented: every span
//! starts and ends in the benchmark's own code.
//!
//! A span has a name, start, end, parent span and request id. Spans stay
//! in memory while the run measures and are written out when it ends.
//! A span's self time is its duration minus the part of it that its
//! child spans cover.

use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Parent index of a root span.
pub const ROOT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: u32,
    pub request: u32,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(capacity: usize) -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: u32, request: u32) -> u32 {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    pub fn end(&mut self, span: u32) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[span as usize];
        s.end_ns = now;
        s.duration_ns()
    }

    /// Record `f` as one span; returns its result and duration.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: u32,
        request: u32,
        f: impl FnOnce() -> R,
    ) -> (R, u64) {
        let id = self.begin(name, parent, request);
        let out = f();
        let ns = self.end(id);
        (out, ns)
    }

    /// Record a span measured elsewhere (e.g. across threads).
    pub fn record(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: u32,
        request: u32,
    ) -> u32 {
        let base = self.epoch;
        let to_ns = |t: Instant| t.saturating_duration_since(base).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: to_ns(start),
            end_ns: to_ns(end),
            parent,
            request,
        });
        (self.spans.len() - 1) as u32
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if s.parent != ROOT {
                children[s.parent as usize].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut cursor = s.start_ns;
                for &(a, b) in kids.iter() {
                    let a = a.max(cursor).max(s.start_ns);
                    let b = b.min(s.end_ns);
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
                s.duration_ns().saturating_sub(covered)
            })
            .collect()
    }

    /// Sum of layer (non-root) self times over the summed duration of
    /// root spans: how much of the traced request time the layer spans
    /// account for.
    pub fn coverage(&self) -> f64 {
        let selfs = self.self_times();
        let mut roots = 0u64;
        let mut layers = 0u64;
        for (s, self_ns) in self.spans.iter().zip(selfs) {
            if s.parent == ROOT {
                roots += s.duration_ns();
            } else {
                layers += self_ns;
            }
        }
        layers as f64 / roots.max(1) as f64
    }

    /// Write every span to `.bench_work/<workload>.trace.tsv`, one
    /// tab-separated line each: `request  span  parent  name  start_ns
    /// end_ns`.
    pub fn save(&self, workload: &str) -> std::io::Result<()> {
        let dir = Path::new(".bench_work");
        std::fs::create_dir_all(dir)?;
        let file = std::fs::File::create(dir.join(format!("{workload}.trace.tsv")))?;
        let mut w = std::io::BufWriter::new(file);
        writeln!(w, "request\tspan\tparent\tname\tstart_ns\tend_ns")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = if s.parent == ROOT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.request, i, parent, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}
