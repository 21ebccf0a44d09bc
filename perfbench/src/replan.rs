//! The paper's online controller, measured layer by layer inside the
//! traced `etc` run.
//!
//! `core::simulation::simulate` runs the `Prop` approach hourly over
//! `cloud::tracegen::paper_traces` for [`DAYS`] days at one workload
//! point, then the harness drives `GlobalController::plan` slot by slot
//! over the same traces and demand, timing `build_offers` (spotmodel) and
//! the rest of each decision (optimizer). The controller is pure CPU and
//! bit-deterministic, so its bill is also an output check: the program's
//! own instrumented `simulate_traced` must bill exactly the same dollars.
//!
//! It is not a workload of its own: on a shared 2-vCPU host its timings
//! moved by half between sets of runs minutes apart (the host's cache and
//! clock, not the code), more than any bound the benchmark may set.

use std::sync::Arc;
use std::time::Instant;

use spotcache_cloud::tracegen::paper_traces;
use spotcache_cloud::SpotTrace;
use spotcache_core::simulation::{simulate, simulate_traced, SimConfig};
use spotcache_core::{Approach, GlobalController};
use spotcache_obs::{Obs, Tracer, DEFAULT_TRACE_CAPACITY};
use spotcache_workload::WikipediaTrace;

use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{percentile, tail_percentile};

/// Simulated days: 7 of predictor training, then 30 billed (720 slots).
const DAYS: u64 = 37;
/// Days that only train the predictors.
const TRAINING_DAYS: u64 = 7;
/// Billed hourly slots.
const SLOTS: u64 = (DAYS - TRAINING_DAYS) * 24;
/// The workload point: peak arrival rate (ops/s), maximum working set
/// (GiB) and Zipf skew, one cell of the paper's Figure 13 grid.
const PEAK_RATE: f64 = 500_000.0;
const MAX_WSS_GB: f64 = 100.0;
const THETA: f64 = 0.99;
/// Planning passes: two give the 1,440 timings a 99th percentile needs.
const PLAN_PASSES: usize = 2;
const HOUR: u64 = 3_600;

/// One slot-by-slot planning pass; returns per-slot `build_offers` time
/// (ns) and offer count, per-slot `plan` time (ns), and the slots that
/// failed to solve.
fn plan_pass(
    traces: &[SpotTrace],
    cfg: &SimConfig,
    demand: &WikipediaTrace,
    spans: &mut Spans,
) -> (Vec<(f64, usize)>, Vec<f64>, u64) {
    let refs: Vec<&SpotTrace> = traces.iter().collect();
    let mut ctl = GlobalController::new(cfg.controller.clone());
    let start = TRAINING_DAYS * 24;
    for h in 0..start {
        ctl.observe(demand.rate_at(h * HOUR), demand.wss_at(h * HOUR));
    }
    let mut offers = Vec::with_capacity(SLOTS as usize);
    let mut plan_ns = Vec::with_capacity(SLOTS as usize);
    let mut failed = 0u64;
    for slot in 0..SLOTS {
        let t = (start + slot) * HOUR;
        let actual = (demand.rate_at(t), demand.wss_at(t));
        let (rate, wss) = ctl.forecast().unwrap_or(actual);
        let root = spans.open();
        let slot_start = Instant::now();
        // `plan` builds the same offers first; timing them apart splits a
        // planning decision into spotmodel and optimizer.
        let b = Instant::now();
        let n = ctl.build_offers(&refs, t).len();
        offers.push((b.elapsed().as_nanos() as f64, n));
        spans.leaf("spotmodel.build_offers", root, b, 1);
        let p = Instant::now();
        let solved = ctl.plan(&refs, t, THETA, rate, wss).is_ok();
        plan_ns.push(p.elapsed().as_nanos() as f64);
        spans.leaf("optimizer.plan", root, p, 1);
        spans.close(root, "core.plan_slot", 0, slot_start, 1);
        failed += u64::from(!solved);
        ctl.observe(actual.0, actual.1);
    }
    (offers, plan_ns, failed)
}

/// Measures the controller's layers for seed `seed` into `rep`.
pub fn layers(seed: u64, rep: &mut Report, spans: &mut Spans) {
    let t = Instant::now();
    let traces = paper_traces(DAYS);
    rep.set("cloud.tracegen_ms", t.elapsed().as_secs_f64() * 1e3);
    spans.leaf("cloud.tracegen", 0, t, 1);
    let mut cfg = SimConfig::paper_default(Approach::Prop, PEAK_RATE, MAX_WSS_GB, THETA);
    cfg.days = DAYS;
    cfg.training_days = TRAINING_DAYS;
    cfg.seed = seed;
    let demand = WikipediaTrace::generate(DAYS, PEAK_RATE, MAX_WSS_GB, seed);

    let t = Instant::now();
    let sim = simulate(&cfg, &traces);
    let secs = t.elapsed().as_secs_f64();
    spans.leaf("core.simulate", 0, t, SLOTS);
    rep.attempted += SLOTS;
    let bill = match sim {
        Ok(r) => (r.total_cost(), r.violated_day_frac()),
        Err(e) => {
            rep.failed += SLOTS;
            rep.problem(format!("simulation failed: {e:?}"));
            return;
        }
    };
    rep.set("sim.slot_ms", secs * 1e3 / SLOTS as f64);
    rep.set("sim.cost_usd", bill.0);
    rep.set("sim.violated_day_frac", bill.1);
    rep.result("cost_usd", bill.0, "USD", 1);
    rep.result("violated_day_frac", bill.1, "ratio", 1);

    // The program's own instrumentation must not change what it bills.
    let t = Instant::now();
    let obs = Arc::new(Obs::new());
    match simulate_traced(
        &cfg,
        &traces,
        Some(obs),
        Some(Tracer::all(DEFAULT_TRACE_CAPACITY)),
    ) {
        Ok(r) if r.total_cost().to_bits() == bill.0.to_bits() => {}
        Ok(r) => rep.problem(format!(
            "instrumented simulation billed {} USD, plain {} USD",
            r.total_cost(),
            bill.0
        )),
        Err(e) => rep.problem(format!("instrumented simulation failed: {e:?}")),
    }
    spans.leaf("core.simulate_instrumented", 0, t, SLOTS);

    let (mut offers, mut plan_ns, mut failed) = (Vec::new(), Vec::new(), 0u64);
    for _ in 0..PLAN_PASSES {
        let (o, p, f) = plan_pass(&traces, &cfg, &demand, spans);
        offers.extend(o);
        plan_ns.extend(p);
        failed += f;
    }
    rep.attempted += PLAN_PASSES as u64 * SLOTS;
    rep.failed += failed;
    let mut solve_ms: Vec<f64> = plan_ns
        .iter()
        .zip(&offers)
        .map(|(plan, (build, _))| (plan - build).max(0.0) / 1e6)
        .collect();
    solve_ms.sort_by(f64::total_cmp);
    let mut plan_ms: Vec<f64> = plan_ns.iter().map(|ns| ns / 1e6).collect();
    plan_ms.sort_by(f64::total_cmp);
    let tail = tail_percentile(plan_ms.len()).unwrap_or(50.0).min(99.0);
    let count = offers.len().max(1) as f64;
    rep.set(
        "spotmodel.build_offers_ms",
        offers.iter().map(|(ns, _)| ns / 1e6).sum::<f64>() / count,
    );
    rep.set(
        "spotmodel.offers_per_slot",
        offers.iter().map(|(_, n)| *n as f64).sum::<f64>() / count,
    );
    rep.set("optimizer.solve_ms", percentile(&solve_ms, 50.0));
    rep.set("optimizer.solve_p99_ms", percentile(&solve_ms, tail));
    rep.set("optimizer.infeasible_slots", failed as f64);
    rep.result(
        "plan_p50_ms",
        percentile(&plan_ms, 50.0),
        "ms",
        plan_ms.len() as u64,
    );
    rep.result(
        "plan_p99_ms",
        percentile(&plan_ms, tail),
        "ms",
        plan_ms.len() as u64,
    );
    rep.result("sim_hours_s", SLOTS as f64 / secs, "1/s", 1);
}
