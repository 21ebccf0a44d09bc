//! Spans recorded by the benchmark's own code around each call it makes
//! into a layer.
//!
//! Each recording thread owns a [`Spans`] (no lock on the measured path)
//! and the threads' buffers are merged when the phase ends. Every span
//! adds to its name's running total; the first [`Spans::CAP`] spans are
//! also kept whole (name, start, end, parent) and written out as Chrome
//! trace-event JSON when the run ends.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// `layer.call`, e.g. `router.lookup`.
    pub name: &'static str,
    /// Unique within the run: the recording lane in the top byte.
    pub id: u32,
    /// The span that caused this one (0 for a root).
    pub parent: u32,
    /// Start, ns after the run's epoch.
    pub start_ns: u64,
    /// Duration, ns.
    pub dur_ns: u64,
    /// Units of work inside (keys, ops, slots).
    pub units: u64,
}

/// Running total of one span name.
#[derive(Debug, Clone, Copy, Default)]
pub struct Total {
    /// Spans recorded.
    pub calls: u64,
    /// Units of work covered.
    pub units: u64,
    /// Time covered, ns.
    pub ns: u64,
}

impl Total {
    /// ns per unit of work (0 when none was recorded).
    pub fn ns_per_unit(&self) -> f64 {
        if self.units == 0 {
            0.0
        } else {
            self.ns as f64 / self.units as f64
        }
    }
}

/// A span buffer for one lane (thread) of a run.
#[derive(Debug)]
pub struct Spans {
    epoch: Instant,
    lane: u32,
    next: u32,
    cap: usize,
    kept: Vec<Span>,
    totals: BTreeMap<&'static str, Total>,
}

impl Spans {
    /// Whole spans kept per run; beyond this only totals grow.
    pub const CAP: usize = 200_000;

    /// An empty buffer on `lane`, timing from `epoch`.
    pub fn new(epoch: Instant, lane: u32) -> Self {
        Self {
            epoch,
            lane,
            next: 0,
            cap: Self::CAP,
            kept: Vec::new(),
            totals: BTreeMap::new(),
        }
    }

    /// Allocates the id of a span about to open, so its children can name
    /// it as their parent before it closes.
    pub fn open(&mut self) -> u32 {
        self.next += 1;
        (self.lane << 24) | (self.next & 0x00ff_ffff)
    }

    /// Closes span `id`, started at `start`, now.
    pub fn close(&mut self, id: u32, name: &'static str, parent: u32, start: Instant, units: u64) {
        let end = Instant::now();
        let dur_ns = end.duration_since(start).as_nanos() as u64;
        let t = self.totals.entry(name).or_default();
        t.calls += 1;
        t.units += units;
        t.ns += dur_ns;
        if self.kept.len() < self.cap {
            self.kept.push(Span {
                name,
                id,
                parent,
                start_ns: start.saturating_duration_since(self.epoch).as_nanos() as u64,
                dur_ns,
                units,
            });
        }
    }

    /// Opens and closes a span in one call, for a leaf measured by the
    /// caller from `start` to now.
    pub fn leaf(&mut self, name: &'static str, parent: u32, start: Instant, units: u64) {
        let id = self.open();
        self.close(id, name, parent, start, units);
    }

    /// Folds `other` (another lane of the same run) into this buffer.
    pub fn merge(&mut self, other: Spans) {
        for (name, t) in other.totals {
            let mine = self.totals.entry(name).or_default();
            mine.calls += t.calls;
            mine.units += t.units;
            mine.ns += t.ns;
        }
        let room = self.cap.saturating_sub(self.kept.len());
        self.kept.extend(other.kept.into_iter().take(room));
    }

    /// The running total of `name`.
    pub fn total(&self, name: &str) -> Total {
        self.totals.get(name).copied().unwrap_or_default()
    }

    /// The kept spans as Chrome trace-event JSON (one lane per thread;
    /// the category is the layer, i.e. the name up to its last dot).
    pub fn chrome_json(&self) -> String {
        let mut out = String::from("{\"traceEvents\":[");
        for (i, s) in self.kept.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let cat = s.name.rsplit_once('.').map_or(s.name, |(layer, _)| layer);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"{cat}\",\"ph\":\"X\",\"pid\":1,\"tid\":{},\
                 \"ts\":{:.3},\"dur\":{:.3},\"args\":{{\"id\":{},\"parent\":{},\"units\":{}}}}}",
                s.name,
                s.id >> 24,
                s.start_ns as f64 / 1e3,
                s.dur_ns as f64 / 1e3,
                s.id,
                s.parent,
                s.units
            );
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_survive_the_cap_and_merge() {
        let epoch = Instant::now();
        let mut a = Spans::new(epoch, 1);
        a.cap = 2;
        let root = a.open();
        for _ in 0..5 {
            a.leaf("router.lookup", root, Instant::now(), 32);
        }
        a.close(root, "client.batch", 0, epoch, 32);
        let mut b = Spans::new(epoch, 2);
        b.leaf("router.lookup", 0, Instant::now(), 8);
        a.merge(b);
        let t = a.total("router.lookup");
        assert_eq!((t.calls, t.units), (6, 168));
        assert_eq!(a.total("client.batch").calls, 1);
        assert_eq!(a.kept.len(), 2);
        assert!(a.kept.iter().all(|s| s.parent == root));
        assert_eq!(root >> 24, 1);
        let json = a.chrome_json();
        assert!(
            json.starts_with("{\"traceEvents\":[{\"name\":\"router.lookup\",\"cat\":\"router\"")
        );
    }
}
