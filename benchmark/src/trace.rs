//! Spans recorded by the benchmark around its calls into each layer.
//!
//! The chain is run → workload → pass → op → call (→ probe spans after
//! the window). Spans live in a buffer allocated before the window and
//! are written out when the run ends; tracing inside the crates is a
//! later issue. Both clocks are stamped on every span.

use std::io::Write;
use std::time::Instant;

/// The layer a span belongs to: the crates, plus the harness itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The benchmark's own structure: run, workload, pass, op, probe.
    Harness,
    /// `cffs-disksim::Disk`.
    Disksim,
    /// `cffs-disksim::Driver`.
    Driver,
    /// `cffs-cache`.
    Cache,
    /// `cffs-core`.
    Core,
    /// `cffs-dcache`.
    Dcache,
    /// `cffs-volume`.
    Volume,
    /// `cffs-regroup`.
    Regroup,
    /// `cffs-obs`.
    Obs,
}

impl Layer {
    /// Name used in the span file.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Harness => "harness",
            Layer::Disksim => "disksim",
            Layer::Driver => "driver",
            Layer::Cache => "cache",
            Layer::Core => "core",
            Layer::Dcache => "dcache",
            Layer::Volume => "volume",
            Layer::Regroup => "regroup",
            Layer::Obs => "obs",
        }
    }
}

/// One span. `id` is 1-based; `parent` 0 means the root.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Identifier, unique within the run.
    pub id: u32,
    /// The span that caused this one.
    pub parent: u32,
    /// Layer called.
    pub layer: Layer,
    /// Function or stage name.
    pub name: &'static str,
    /// Host clock at entry, ns since the tracer was made.
    pub host_start_ns: u64,
    /// Host clock at exit.
    pub host_end_ns: u64,
    /// Simulated clock at entry, ns.
    pub sim_start_ns: u64,
    /// Simulated clock at exit.
    pub sim_end_ns: u64,
}

impl Span {
    /// Host duration.
    pub fn host_ns(&self) -> u64 {
        self.host_end_ns - self.host_start_ns
    }

    /// Simulated duration.
    pub fn sim_ns(&self) -> u64 {
        self.sim_end_ns.saturating_sub(self.sim_start_ns)
    }
}

/// Stack marker of a span that did not fit the buffer.
const DROPPED: u32 = u32::MAX;

/// The span recorder. `on == false` makes every call a single branch, so
/// the untraced run pays nothing measurable for sharing the workload
/// code with the traced one.
pub struct Tracer {
    /// Recording right now (the traced run switches this off for its
    /// untraced comparison passes).
    pub on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    dropped: u64,
    ops: u64,
    /// Count snapshots taken at span boundaries: `(span id, json object)`.
    counts: Vec<(u32, String)>,
}

impl Tracer {
    /// A tracer that records nothing.
    pub fn off() -> Tracer {
        Tracer::with_capacity(0)
    }

    /// A tracer with room for `cap` spans (0 = off).
    pub fn with_capacity(cap: usize) -> Tracer {
        Tracer {
            on: cap > 0,
            epoch: Instant::now(),
            spans: Vec::with_capacity(cap),
            stack: Vec::with_capacity(16),
            dropped: 0,
            ops: 0,
            counts: Vec::new(),
        }
    }

    /// Enter a span. A span that does not fit the preallocated buffer is
    /// counted, not stored (the buffer never grows inside the window).
    #[inline]
    pub fn open(&mut self, layer: Layer, name: &'static str, sim_ns: u64) {
        if !self.on {
            return;
        }
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            self.stack.push(DROPPED);
            return;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = match self.stack.last() {
            Some(&i) if i != DROPPED => self.spans[i as usize].id,
            _ => 0,
        };
        let now = self.epoch.elapsed().as_nanos() as u64;
        self.stack.push(id - 1);
        self.spans.push(Span {
            id,
            parent,
            layer,
            name,
            host_start_ns: now,
            host_end_ns: now,
            sim_start_ns: sim_ns,
            sim_end_ns: sim_ns,
        });
    }

    /// Enter the span of one op (harness layer); stored ones are counted.
    #[inline]
    pub fn open_op(&mut self, name: &'static str, sim_ns: u64) {
        let stored = self.spans.len();
        self.open(Layer::Harness, name, sim_ns);
        self.ops += (self.spans.len() - stored) as u64;
    }

    /// Op spans stored.
    pub fn ops(&self) -> u64 {
        self.ops
    }

    /// Leave the innermost open span.
    #[inline]
    pub fn close(&mut self, sim_ns: u64) {
        if !self.on {
            return;
        }
        let now = self.epoch.elapsed().as_nanos() as u64;
        match self.stack.pop() {
            Some(DROPPED) | None => {}
            Some(i) => {
                let s = &mut self.spans[i as usize];
                s.host_end_ns = now;
                s.sim_end_ns = sim_ns;
            }
        }
    }

    /// Attach a counter snapshot (a rendered JSON object) to the innermost
    /// open span, so ratios are measured where the work happens.
    pub fn counts(&mut self, json: String) {
        if let (true, Some(&i)) = (self.on, self.stack.last()) {
            if i != DROPPED {
                self.counts.push((self.spans[i as usize].id, json));
            }
        }
    }

    /// Every stored span, in entry order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Spans the buffer still has room for.
    pub fn room(&self) -> usize {
        self.spans.capacity() - self.spans.len()
    }

    /// Spans that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Host durations of every stored span of `layer` named `name`.
    pub fn host_durations(&self, layer: Layer, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
            .map(Span::host_ns)
            .collect()
    }

    /// Mean simulated duration (ns) of stored spans of `layer` / `name`.
    pub fn sim_mean_ns(&self, layer: Layer, name: &str) -> f64 {
        let (mut sum, mut n) = (0u64, 0u64);
        for s in self
            .spans
            .iter()
            .filter(|s| s.layer == layer && s.name == name)
        {
            sum += s.sim_ns();
            n += 1;
        }
        if n == 0 {
            0.0
        } else {
            sum as f64 / n as f64
        }
    }

    /// Total host time of the spans of `layer`, and the part of it not
    /// covered by their child spans (self time).
    pub fn host_total_and_self(&self, layer: Layer) -> (u64, u64) {
        let mut child_ns = vec![0u64; self.spans.len() + 1];
        for s in &self.spans {
            child_ns[s.parent as usize] += s.host_ns();
        }
        let (mut total, mut own) = (0u64, 0u64);
        for s in self.spans.iter().filter(|s| s.layer == layer) {
            total += s.host_ns();
            own += s.host_ns().saturating_sub(child_ns[s.id as usize]);
        }
        (total, own)
    }

    /// Write the span file: one JSON object per span, then one per count
    /// snapshot, then a trailer with the number of spans dropped.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                w,
                "{{\"id\":{},\"parent\":{},\"layer\":\"{}\",\"name\":\"{}\",\"host_start_ns\":{},\"host_end_ns\":{},\"sim_start_ns\":{},\"sim_end_ns\":{}}}",
                s.id,
                s.parent,
                s.layer.name(),
                s.name,
                s.host_start_ns,
                s.host_end_ns,
                s.sim_start_ns,
                s.sim_end_ns
            )?;
        }
        for (id, json) in &self.counts {
            writeln!(w, "{{\"counts_at_span\":{id},\"counts\":{json}}}")?;
        }
        writeln!(
            w,
            "{{\"spans\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.dropped
        )?;
        w.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parents_follow_the_stack_and_self_time_excludes_children() {
        let mut t = Tracer::with_capacity(8);
        t.open(Layer::Harness, "pass", 0);
        t.open(Layer::Core, "lookup", 10);
        t.close(20);
        t.open(Layer::Core, "read", 20);
        t.close(50);
        t.close(60);
        let s = t.spans();
        assert_eq!((s[0].id, s[0].parent), (1, 0));
        assert_eq!((s[1].parent, s[2].parent), (1, 1));
        assert_eq!(s[2].sim_ns(), 30);
        let (total, own) = t.host_total_and_self(Layer::Harness);
        let (core_total, core_own) = t.host_total_and_self(Layer::Core);
        assert_eq!(core_total, core_own);
        assert_eq!(own, total - core_total);
    }

    #[test]
    fn a_full_buffer_drops_and_counts_without_growing() {
        let mut t = Tracer::with_capacity(2);
        for _ in 0..5 {
            t.open(Layer::Core, "x", 0);
            t.close(0);
        }
        assert_eq!(t.spans().len(), 2);
        assert_eq!(t.dropped(), 3);
        assert_eq!(t.spans.capacity(), 2);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::off();
        t.open(Layer::Core, "x", 0);
        t.close(0);
        assert!(t.spans().is_empty());
        assert_eq!(t.dropped(), 0);
    }
}
