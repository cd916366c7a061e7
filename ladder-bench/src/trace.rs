//! In-memory spans for the traced run.
//!
//! A span records one call from the benchmark into a layer: its name,
//! start, end, parent span and request id. A request's spans are
//! recorded together as a root and its children, so each span's self
//! time (its duration minus the time its children cover) is summed as
//! it is recorded, for every request. The spans themselves stay in
//! memory up to a cap per tracer and are written out as JSON when the
//! run ends.

use std::io::{self, Write};
use std::path::Path;
use std::time::Instant;

/// Spans one tracer keeps for the JSON; self times cover all of them.
const CAP: usize = 20_000;

#[derive(Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    /// Index + 1 of the parent span in the same tracer; 0 for a root.
    pub parent: u32,
    pub req: u64,
}

/// (name, start ns, end ns) of a span about to be recorded.
pub type Interval = (&'static str, u64, u64);

pub struct Tracer {
    pub label: String,
    epoch: Instant,
    spans: Vec<Span>,
    /// Per name: spans seen and their summed self time.
    totals: Vec<(&'static str, u64, u128)>,
    unstored: u64,
}

impl Tracer {
    pub fn new(label: impl Into<String>, epoch: Instant) -> Tracer {
        Tracer { label: label.into(), epoch, spans: Vec::new(), totals: Vec::new(), unstored: 0 }
    }

    /// Nanoseconds of `t` since the tracer's epoch.
    pub fn at(&self, t: Instant) -> u64 {
        t.saturating_duration_since(self.epoch).as_nanos() as u64
    }

    fn add(&mut self, name: &'static str, self_ns: u64) {
        match self.totals.iter_mut().find(|t| std::ptr::eq(t.0, name) || t.0 == name) {
            Some(t) => {
                t.1 += 1;
                t.2 += self_ns as u128;
            }
            None => self.totals.push((name, 1, self_ns as u128)),
        }
    }

    /// Record one request: a root span and its direct children.
    pub fn record(&mut self, root: Interval, children: &[Interval], req: u64) {
        let dur = |i: &Interval| i.2.saturating_sub(i.1);
        let covered: u64 = children.iter().map(dur).sum();
        self.add(root.0, dur(&root).saturating_sub(covered));
        for c in children {
            self.add(c.0, dur(c));
        }
        if self.spans.len() + 1 + children.len() > CAP {
            self.unstored += 1 + children.len() as u64;
            return;
        }
        self.spans.push(Span { name: root.0, start: root.1, end: root.2, parent: 0, req });
        let parent = self.spans.len() as u32;
        for c in children {
            self.spans.push(Span { name: c.0, start: c.1, end: c.2, parent, req });
        }
    }

    /// Spans recorded under `name` and their mean self time in ns.
    pub fn self_time(&self, name: &str) -> (u64, f64) {
        self.totals
            .iter()
            .find(|t| t.0 == name)
            .map_or((0, 0.0), |t| (t.1, t.2 as f64 / t.1.max(1) as f64))
    }
}

/// Mean self time of spans named `name` over several tracers (0 when
/// there are none).
pub fn mean_self(tracers: &[Tracer], name: &str) -> f64 {
    let (n, total) = tracers
        .iter()
        .map(|t| t.self_time(name))
        .fold((0u64, 0.0), |(n, s), (c, m)| (n + c, s + m * c as f64));
    if n == 0 {
        0.0
    } else {
        total / n as f64
    }
}

/// Write every tracer's stored spans as one JSON document.
pub fn write_json(path: &Path, workload: &str, tracers: &[Tracer]) -> io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = io::BufWriter::new(std::fs::File::create(path)?);
    write!(w, "{{\"workload\":\"{workload}\",\"unit\":\"ns\",\"tracers\":[")?;
    for (i, tr) in tracers.iter().enumerate() {
        if i > 0 {
            w.write_all(b",")?;
        }
        write!(w, "{{\"label\":\"{}\",\"unstored\":{},\"self_time\":{{", tr.label, tr.unstored)?;
        for (j, t) in tr.totals.iter().enumerate() {
            let sep = if j > 0 { "," } else { "" };
            write!(
                w,
                "{sep}\"{}\":{{\"spans\":{},\"mean_ns\":{}}}",
                t.0,
                t.1,
                t.2 as f64 / t.1.max(1) as f64
            )?;
        }
        w.write_all(b"},\"spans\":[")?;
        for (j, s) in tr.spans.iter().enumerate() {
            if j > 0 {
                w.write_all(b",")?;
            }
            write!(
                w,
                "{{\"id\":{},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":{},\"req\":{}}}",
                j + 1,
                s.name,
                s.start,
                s.end,
                s.parent,
                s.req
            )?;
        }
        w.write_all(b"]}")?;
    }
    w.write_all(b"]}\n")?;
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_children() {
        let mut tr = Tracer::new("t", Instant::now());
        tr.record(("op", 0, 100), &[("layer.get", 10, 70)], 1);
        tr.record(("op", 200, 230), &[("layer.get", 200, 230)], 2);
        assert_eq!(tr.self_time("op"), (2, 20.0));
        assert_eq!(tr.self_time("layer.get"), (2, 45.0));
        assert_eq!(tr.spans[1].parent, 1);
        assert_eq!(mean_self(&[tr], "layer.get"), 45.0);
    }
}
