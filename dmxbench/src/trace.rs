//! In-memory spans around the calls the benchmark makes into the
//! program. Spans are only ever recorded by the traced run; they stay
//! in memory until the run ends and are then written as one JSON file.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// One timed interval. `parent` is the span that caused this one (0 =
/// none); `count` is how many calls the interval covers — kernels time
/// calls in batches so that the clock is not the measurement.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub id: u32,
    pub parent: u32,
    pub start_ns: u64,
    pub end_ns: u64,
    pub count: u32,
}

pub struct Tracer {
    epoch: Instant,
    /// Off, spans are timed but not kept: the untraced run uses the
    /// same call sites and pays two clock reads per span, no more.
    pub keep: bool,
    spans: Vec<Span>,
    next_id: u32,
}

/// One row of [`Tracer::summary`]: every span of one name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NameTotals {
    pub name: &'static str,
    pub spans: u64,
    /// Calls the spans cover (a batch span covers many).
    pub calls: u64,
    pub total_ns: u64,
    /// Total minus the part the spans' children cover.
    pub self_ns: u64,
}

/// A span that has started; [`Tracer::close`] records it.
#[must_use]
pub struct Open {
    name: &'static str,
    pub id: u32,
    parent: u32,
    start_ns: u64,
}

impl Tracer {
    pub fn new(epoch: Instant, keep: bool) -> Self {
        Tracer {
            epoch,
            keep,
            spans: Vec::with_capacity(if keep { 1 << 16 } else { 0 }),
            next_id: 1,
        }
    }

    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn open(&mut self, name: &'static str, parent: u32) -> Open {
        let id = self.next_id;
        self.next_id += 1;
        Open {
            name,
            id,
            parent,
            start_ns: self.now_ns(),
        }
    }

    /// Ends `open`, covering `count` calls; returns its length in ns.
    pub fn close(&mut self, open: Open, count: u32) -> u64 {
        let end_ns = self.now_ns();
        if self.keep {
            self.spans.push(Span {
                name: open.name,
                id: open.id,
                parent: open.parent,
                start_ns: open.start_ns,
                end_ns,
                count,
            });
        }
        end_ns - open.start_ns
    }

    /// Times `f` as one span of `count` calls under `parent`.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        parent: u32,
        count: u32,
        f: impl FnOnce() -> T,
    ) -> (T, u64) {
        let open = self.open(name, parent);
        let out = f();
        let ns = self.close(open, count);
        (out, ns)
    }

    /// Reserves `len` ids for a thread that records its own spans.
    pub fn reserve_ids(&mut self, len: u32) -> u32 {
        let base = self.next_id;
        self.next_id += len;
        base
    }

    pub fn absorb(&mut self, spans: Vec<Span>) {
        self.spans.extend(spans);
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Totals per span name, in first-seen order. A span's self time is
    /// its length minus the part of it its children cover.
    pub fn summary(&self) -> Vec<NameTotals> {
        let by_id: HashMap<u32, usize> = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| (s.id, i))
            .collect();
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(&p) = by_id.get(&s.parent) {
                let parent = &self.spans[p];
                let lo = s.start_ns.max(parent.start_ns);
                let hi = s.end_ns.min(parent.end_ns);
                covered[p] += hi.saturating_sub(lo);
            }
        }
        let mut rows: Vec<NameTotals> = Vec::new();
        for (s, cov) in self.spans.iter().zip(&covered) {
            let len = s.end_ns - s.start_ns;
            let at = rows
                .iter()
                .position(|r| r.name == s.name)
                .unwrap_or_else(|| {
                    rows.push(NameTotals {
                        name: s.name,
                        spans: 0,
                        calls: 0,
                        total_ns: 0,
                        self_ns: 0,
                    });
                    rows.len() - 1
                });
            rows[at].spans += 1;
            rows[at].calls += u64::from(s.count);
            rows[at].total_ns += len;
            rows[at].self_ns += len.saturating_sub(*cov);
        }
        rows
    }

    /// Writes `{"workload", "summary": [...], "spans": [[name, id,
    /// parent, start_ns, end_ns, count], ...]}` and returns the path.
    pub fn write(
        &self,
        dir: &Path,
        workload: &str,
        summary: &[NameTotals],
    ) -> std::io::Result<PathBuf> {
        std::fs::create_dir_all(dir)?;
        let path = dir.join(format!("trace-{workload}.json"));
        let mut out = String::with_capacity(64 + self.spans.len() * 56);
        let _ = writeln!(out, "{{\"workload\": \"{workload}\",");
        out.push_str(
            "\"summary_columns\": [\"name\", \"spans\", \"calls\", \"total_ns\", \"self_ns\"],\n\"summary\": [\n",
        );
        for (i, row) in summary.iter().enumerate() {
            let comma = if i + 1 == summary.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "[\"{}\", {}, {}, {}, {}]{comma}",
                row.name, row.spans, row.calls, row.total_ns, row.self_ns
            );
        }
        out.push_str(
            "],\n\"span_columns\": [\"name\", \"id\", \"parent\", \"start_ns\", \"end_ns\", \"count\"],\n\"spans\": [\n",
        );
        for (i, s) in self.spans.iter().enumerate() {
            let comma = if i + 1 == self.spans.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "[\"{}\", {}, {}, {}, {}, {}]{comma}",
                s.name, s.id, s.parent, s.start_ns, s.end_ns, s.count
            );
        }
        out.push_str("]}\n");
        std::fs::write(&path, out)?;
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_length_minus_children() {
        let mut t = Tracer::new(Instant::now(), true);
        let span = |name, id, parent, start_ns, end_ns| Span {
            name,
            id,
            parent,
            start_ns,
            end_ns,
            count: 1,
        };
        t.absorb(vec![
            span("outer", 1, 0, 0, 100),
            span("inner", 2, 1, 10, 40),
            span("inner", 3, 1, 90, 130), // only 10 ns inside its parent
        ]);
        let rows = t.summary();
        let totals = |name, spans, total_ns, self_ns| NameTotals {
            name,
            spans,
            calls: spans,
            total_ns,
            self_ns,
        };
        assert_eq!(
            rows,
            [totals("outer", 1, 100, 60), totals("inner", 2, 70, 70)]
        );
    }
}
