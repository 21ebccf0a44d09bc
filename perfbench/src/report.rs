//! The metric tables and the result a run prints.
//!
//! [`END_TO_END`] and [`PER_LAYER`] are the lists `BENCHMARK.json`
//! declares (a test keeps the two in step). A run prints a readable
//! report first (host, run quality, the workload's own results with their
//! sample counts) and, as its last line, one JSON object with `correct`,
//! `attempted`, `failed` and every end-to-end metric (`--trace 0`) or
//! every per-layer metric (`--trace 1`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::host::{Host, Usage};

/// One declared metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// `higher` or `lower`.
    pub better: &'static str,
}

const fn def(name: &'static str, unit: &'static str, better: &'static str) -> Def {
    Def { name, unit, better }
}

/// What a user of the system sees, on every workload.
pub const END_TO_END: &[Def] = &[
    def("setup_s", "s", "lower"),
    def("ops_s", "ops/s", "higher"),
    def("latency_p50_us", "us", "lower"),
    def("peak_rss_mb", "MB", "lower"),
];

/// Single layers, from the traced run. A layer a workload bypasses
/// reports 0.
pub const PER_LAYER: &[Def] = &[
    def("workload.gen_s", "s", "lower"),
    def("router.lookup_ns", "ns", "lower"),
    def("cache.store.get_ns", "ns", "lower"),
    def("cache.store.set_ns", "ns", "lower"),
    def("cache.store.flush_ns", "ns", "lower"),
    def("cache.store.evictions", "count", "lower"),
    def("cache.store.bytes_per_item", "B", "lower"),
    def("cache.hit_ratio", "ratio", "higher"),
    def("cache.protocol.parse_ns", "ns", "lower"),
    def("cache.protocol.serve_ns", "ns", "lower"),
    def("cache.protocol.serve_observed_ns", "ns", "lower"),
    def("cache.server.net_ns", "ns", "lower"),
    def("cache.server.stage_ready_p50_us", "us", "lower"),
    def("cache.server.stage_read_p50_us", "us", "lower"),
    def("cache.server.stage_write_p50_us", "us", "lower"),
    def("cache.server.stage_parse_p50_us", "us", "lower"),
    def("cache.server.stage_lock_p50_us", "us", "lower"),
    def("cache.server.stage_execute_p50_us", "us", "lower"),
    def("cache.server.stage_serialize_p50_us", "us", "lower"),
    def("cache.server.stage_write_p99_us", "us", "lower"),
    def("cache.server.epoll_waits_per_kop", "1/kop", "lower"),
    def("cache.server.epoll_events_per_kop", "1/kop", "lower"),
    def("cache.replication.enqueued", "count", "higher"),
    def("cache.replication.shipped", "count", "higher"),
    def("cache.replication.dropped", "count", "lower"),
    def("cache.replication.shipped_ratio", "ratio", "higher"),
    def("cache.replication.link_errors", "count", "lower"),
    def("cache.replication.lag_items", "count", "lower"),
    def("recovery.restore_s", "s", "lower"),
    def("recovery.fresh_ratio", "ratio", "higher"),
    def("recovery.ckpt_cut_ms", "ms", "lower"),
    def("recovery.ckpt_bytes", "B", "lower"),
    def("recovery.ckpt_restore_ms", "ms", "lower"),
    def("recovery.items_restored", "count", "higher"),
    def("recovery.restore_items_per_s", "1/s", "higher"),
    def("obs.journal_dropped", "count", "lower"),
    def("obs.scrape_ms", "ms", "lower"),
    def("cloud.tracegen_ms", "ms", "lower"),
    def("spotmodel.build_offers_ms", "ms", "lower"),
    def("spotmodel.offers_per_slot", "count", "higher"),
    def("optimizer.solve_ms", "ms", "lower"),
    def("optimizer.solve_p99_ms", "ms", "lower"),
    def("optimizer.infeasible_slots", "count", "lower"),
    def("sim.slot_ms", "ms", "lower"),
    def("sim.cost_usd", "USD", "lower"),
    def("sim.violated_day_frac", "ratio", "lower"),
    def("proc.ctx_switches_per_op", "1/op", "lower"),
    def("proc.cpu_util", "ratio", "higher"),
    def("host.steal_frac", "ratio", "lower"),
    def("bench.latency_p99_us", "us", "lower"),
    def("bench.trace_overhead_frac", "ratio", "lower"),
];

/// Everything one run found.
#[derive(Debug)]
pub struct Report {
    /// The workload's name.
    pub workload: &'static str,
    /// Whether this is the traced run.
    pub traced: bool,
    /// Requests (or slots) attempted.
    pub attempted: u64,
    /// Requests (or slots) that failed, were refused or were wrong.
    pub failed: u64,
    /// Host and timed-phase usage.
    pub usage: Usage,
    problems: Vec<String>,
    values: BTreeMap<&'static str, f64>,
    results: Vec<(&'static str, f64, &'static str, u64)>,
}

impl Report {
    /// An empty report.
    pub fn new(workload: &'static str, traced: bool) -> Self {
        Self {
            workload,
            traced,
            attempted: 0,
            failed: 0,
            usage: Usage::default(),
            problems: Vec::new(),
            values: BTreeMap::new(),
            results: Vec::new(),
        }
    }

    /// Sets metric `name` (end-to-end or per-layer).
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Records one of the workload's own results, printed by name with
    /// its unit and sample count.
    pub fn result(&mut self, name: &'static str, value: f64, unit: &'static str, samples: u64) {
        self.results.push((name, value, unit, samples));
    }

    /// Records a failed check; the run is then not correct.
    pub fn problem(&mut self, msg: impl Into<String>) {
        self.problems.push(msg.into());
    }

    /// Prints the report and, last, the result line; returns whether the
    /// run was correct.
    pub fn print(mut self, host: &Host) -> bool {
        println!(
            "host nproc={} kernel={} cpu=\"{}\"",
            host.nproc, host.kernel, host.cpu_model
        );
        println!(
            "run workload={} trace={} timed_s={:.3} cpu_util={:.4} steal_frac={:.4} \
             error_ratio={} ({} failed of {})",
            self.workload,
            u8::from(self.traced),
            self.usage.wall_s,
            self.usage.cpu_util,
            self.usage.steal_frac,
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        for (name, value, unit, n) in &self.results {
            println!("result {name} {value} {unit} n={n}");
        }
        let defs = if self.traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for (i, d) in defs.iter().enumerate() {
            let value = match self.values.get(d.name) {
                Some(v) if v.is_finite() => *v,
                Some(v) => {
                    self.problems.push(format!("{} is {v}", d.name));
                    0.0
                }
                // A per-layer metric of a layer this workload bypasses.
                None if self.traced => 0.0,
                None => {
                    self.problems.push(format!("{} was not measured", d.name));
                    0.0
                }
            };
            if self.traced {
                println!(
                    "layer {} {value} {} ({} is better)",
                    d.name, d.unit, d.better
                );
            }
            if i > 0 {
                metrics.push(',');
            }
            let _ = write!(
                metrics,
                "\"{}\":{{\"value\":{value},\"unit\":\"{}\"}}",
                d.name, d.unit
            );
        }
        if self.attempted == 0 {
            self.problems.push("nothing was attempted".into());
        }
        for p in &self.problems {
            println!("problem {p}");
        }
        let correct = self.problems.is_empty() && self.failed == 0;
        println!(
            "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
            self.attempted.max(1),
            self.failed
        );
        correct
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `BENCHMARK.json` at the repository root declares exactly these
    /// tables, in this order.
    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json");
        for (section, defs) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let start = json.find(&format!("\"{section}\"")).expect(section);
            let body = &json[start..];
            let body = &body[..body.find(']').expect("list end")];
            let declared: Vec<&str> = body
                .split("\"name\": \"")
                .skip(1)
                .map(|s| &s[..s.find('"').expect("name end")])
                .collect();
            let names: Vec<&str> = defs.iter().map(|d| d.name).collect();
            assert_eq!(declared, names, "{section}");
            for d in defs {
                let entry = format!(
                    "\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"",
                    d.name, d.unit, d.better
                );
                assert!(body.contains(&entry), "{section}: {entry}");
            }
        }
    }

    #[test]
    fn names_and_units_keep_the_format() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER) {
            assert!(seen.insert(d.name), "{} used twice", d.name);
            assert!(d.name.len() <= 64);
            assert!(d.name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(d
                .name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.len() <= 16);
            assert!(d
                .unit
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
            assert!(d.better == "higher" || d.better == "lower");
        }
        assert_eq!(END_TO_END[0].name, "setup_s");
        assert!(PER_LAYER.len() <= 128);
    }
}
