//! The `usr` and `etc` workloads: a reactor `CacheServer` on loopback,
//! driven closed loop by `nproc` client connections.
//!
//! * `usr` runs the server observed, with `/metrics` scraped on a fixed
//!   cadence, over a prefilled key space that fits in the store.
//! * `etc` runs it bare and look-aside over a store far smaller than the
//!   working set; the primary replicates its hot writes to a backup
//!   server, and the run ends with an unwarned revocation of the primary
//!   and a checkpoint restore from the backup.
//!
//! The traced run adds spans around every call into a layer, alternates
//! traced with untraced rounds to price the spans, and replays the exact
//! request bytes of its first traced round in process: parse, then the
//! store, then `serve_into`, then `serve_observed_into`. The traced `etc`
//! run also measures the controller that re-plans the fleet
//! ([`crate::replan`]).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use bytes::Bytes;
use spotcache_cache::protocol::{
    decode_value, encode_value, parse_request, request_keys, serve_into, serve_observed_into,
    ProtocolObs, Request,
};
use spotcache_cache::replication::{ReplicationConfig, ReplicationQueue, Replicator};
use spotcache_cache::server::{CacheServer, LogicalClock, ServerConfig};
use spotcache_cache::store::{Store, StoreConfig};
use spotcache_obs::http::http_get;
use spotcache_obs::Obs;
use spotcache_recovery::checkpoint::CheckpointConfig;
use spotcache_recovery::{RecoveryStrategy, RestoreContext, RestoreReport};
use spotcache_router::HashRing;

use crate::client::{Conn, RoundCtx, RoundOut, Tally};
use crate::gen::{conn_seed, digest, generate, render_into, ConnStream, Keys, Spec, Values};
use crate::host::{Sample, Usage};
use crate::report::Report;
use crate::spans::Spans;
use crate::stats::{median, Timing};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 3;
/// Timed rounds per run, at least.
const MIN_ROUNDS: usize = 4;
/// Cadence of the production-style `/metrics` scrape (`usr`).
const SCRAPE_EVERY: Duration = Duration::from_millis(250);
/// Request bytes each connection keeps for the in-process ladder.
const CAPTURE_BYTES: usize = 16 << 20;
/// Passes over the captured bytes per ladder rung; each rung reports the
/// median pass.
const LADDER_PASSES: usize = 3;
/// Replacements brought up from the backup after the revocation;
/// `restore_s` is their median.
const RESTORES: usize = 3;
/// Shards of every store.
const SHARDS: usize = 8;
/// Per-layer metric, reactor stage histogram and quantile read from the
/// server's `/metrics`.
const STAGES: [(&str, &str, &str); 8] = [
    ("cache.server.stage_ready_p50_us", "stage_ready_us", "0.5"),
    ("cache.server.stage_read_p50_us", "stage_read_us", "0.5"),
    ("cache.server.stage_write_p50_us", "stage_write_us", "0.5"),
    ("cache.server.stage_parse_p50_us", "stage_parse_us", "0.5"),
    ("cache.server.stage_lock_p50_us", "stage_lock_us", "0.5"),
    (
        "cache.server.stage_execute_p50_us",
        "stage_execute_us",
        "0.5",
    ),
    (
        "cache.server.stage_serialize_p50_us",
        "stage_serialize_us",
        "0.5",
    ),
    ("cache.server.stage_write_p99_us", "stage_write_us", "0.99"),
];

/// Which data-plane workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Facebook USR, observed server, everything fits.
    Usr,
    /// Facebook ETC, bare server, look-aside, replication, revocation.
    Etc,
}

/// The shape of a workload.
struct Params {
    spec: Spec,
    /// Requests per pipelined batch.
    depth: usize,
    /// Primary store budget.
    store_bytes: usize,
    /// Requests per connection per round: at least 1,000 batches, so
    /// every round has a 99th percentile even with one connection.
    ops_per_conn: usize,
    /// Untimed rounds at the end of set-up.
    warmup_rounds: usize,
    /// Production-style observed server with a `/metrics` scraper.
    observed: bool,
    /// Hot writes replicated to a backup; revocation at the end.
    replicate: bool,
    /// Every key written once before the run.
    prefill: bool,
}

impl Params {
    fn of(kind: Kind) -> Self {
        match kind {
            Kind::Usr => Self {
                spec: Spec::usr(),
                depth: 64,
                store_bytes: 64 << 20,
                ops_per_conn: 64_000,
                warmup_rounds: 1,
                observed: true,
                replicate: false,
                prefill: true,
            },
            Kind::Etc => Self {
                spec: Spec::etc(),
                depth: 64,
                store_bytes: 32 << 20,
                ops_per_conn: 120_000,
                warmup_rounds: 2,
                observed: false,
                replicate: true,
                prefill: false,
            },
        }
    }

    fn store_config(&self) -> StoreConfig {
        StoreConfig {
            capacity_bytes: self.store_bytes,
            shards: SHARDS,
        }
    }
}

/// Polls `/metrics` on a fixed cadence, as a production scraper does.
struct Scraper {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<(Vec<f64>, u64)>,
}

impl Scraper {
    fn start(admin: SocketAddr) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let (mut ms, mut failed) = (Vec::new(), 0u64);
            let mut next = Instant::now();
            while !flag.load(Ordering::Relaxed) {
                if Instant::now() >= next {
                    next += SCRAPE_EVERY;
                    let (took, ok) = scrape(admin);
                    ms.push(took);
                    failed += u64::from(ok.is_none());
                }
                std::thread::sleep(Duration::from_millis(5));
            }
            (ms, failed)
        });
        Self { stop, handle }
    }

    /// Stops and joins the scraper; returns each scrape's round trip (ms)
    /// and the number that failed.
    fn stop(self) -> (Vec<f64>, u64) {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().expect("scraper thread panicked")
    }
}

/// One `/metrics` round trip: its duration (ms) and the body on success.
fn scrape(admin: SocketAddr) -> (f64, Option<String>) {
    let t = Instant::now();
    let got = http_get(admin, "/metrics", Duration::from_secs(2));
    let ms = t.elapsed().as_secs_f64() * 1e3;
    match got {
        Ok((200, body)) => (ms, Some(body)),
        _ => (ms, None),
    }
}

/// A sample value of the Prometheus text `body`, by exact series name.
fn prom(body: &str, series: &str) -> Option<f64> {
    body.lines()
        .find_map(|l| l.strip_prefix(series)?.strip_prefix(' '))
        .and_then(|v| v.trim().parse().ok())
}

/// The burstable backup of the `etc` primary.
struct Backup {
    store: Arc<Store>,
    server: CacheServer,
    queue: Arc<ReplicationQueue>,
    repl: Replicator,
}

/// One set-up: a server, its clients and their request streams.
struct Plane {
    store: Arc<Store>,
    server: CacheServer,
    admin: Option<SocketAddr>,
    scraper: Option<Scraper>,
    backup: Option<Backup>,
    /// The run's seed, and rounds sent so far (warm-up included).
    seed: u64,
    rounds: usize,
    streams: Vec<ConnStream>,
    conns: Vec<Conn>,
    digest: u64,
    gen_s: f64,
    setup_s: f64,
    warmup: Tally,
}

impl Plane {
    fn stop(mut self) {
        if let Some(s) = self.scraper.take() {
            s.stop();
        }
        self.conns.clear();
        self.server.stop();
        if let Some(mut b) = self.backup.take() {
            b.repl.stop();
            b.server.stop();
        }
    }
}

fn setup(
    p: &Params,
    keys: &Keys,
    values: &Values,
    ring: &HashRing,
    seed: u64,
    conns: usize,
    traced: bool,
) -> Result<Plane, String> {
    let t0 = Instant::now();
    let io = |e: std::io::Error| format!("server: {e}");
    let store = Arc::new(Store::new(p.store_config()));
    let backup = if p.replicate {
        let bstore = Arc::new(Store::new(StoreConfig {
            capacity_bytes: 2 * p.store_bytes,
            shards: SHARDS,
        }));
        // The backup is a small burstable instance: one event loop.
        let server = CacheServer::start_with(
            Arc::clone(&bstore),
            LogicalClock::new(),
            "127.0.0.1:0",
            ServerConfig {
                workers: 1,
                ..ServerConfig::default()
            },
            None,
        )
        .map_err(io)?;
        let queue = ReplicationQueue::new(16_384, Some(vec![crate::gen::HOT_PREFIX]));
        store.set_mutation_sink(Some(queue.clone()));
        let repl = Replicator::start(
            server.addr(),
            Arc::clone(&queue),
            ReplicationConfig::default(),
            None,
            None,
        );
        Some(Backup {
            store: bstore,
            server,
            queue,
            repl,
        })
    } else {
        None
    };
    // The traced run observes the server on both workloads, so the
    // reactor's stage histograms exist to be read.
    let observed = p.observed || traced;
    let obs = observed.then(|| Arc::new(Obs::new()));
    let mut server = CacheServer::start_full(
        Arc::clone(&store),
        LogicalClock::new(),
        "127.0.0.1:0",
        ServerConfig::default(),
        obs,
        None,
    )
    .map_err(io)?;
    let admin = if observed {
        Some(server.start_admin("127.0.0.1:0").map_err(io)?)
    } else {
        None
    };
    if p.prefill {
        let mut key = Vec::with_capacity(48);
        for id in 0..p.spec.keys as u32 {
            key.clear();
            keys.push(id, &mut key);
            let value = encode_value(0, values.pattern(&key, 2));
            store.set_at(key.clone(), value, 0, None);
        }
    }

    let g = Instant::now();
    let mut streams: Vec<ConnStream> = (0..conns).map(|_| ConnStream::default()).collect();
    let dig = draw_streams(p, keys, values, seed, 0, &mut streams);
    let gen_s = g.elapsed().as_secs_f64();

    let conns = (0..conns)
        .map(|_| Conn::connect(server.addr(), 0))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| format!("connect: {e}"))?;
    let scraper = match (p.observed, admin) {
        (true, Some(a)) => Some(Scraper::start(a)),
        _ => None,
    };
    let mut plane = Plane {
        store,
        server,
        admin,
        scraper,
        backup,
        seed,
        rounds: 0,
        streams,
        conns,
        digest: dig,
        gen_s,
        setup_s: 0.0,
        warmup: Tally::default(),
    };
    let ctx = RoundCtx {
        keys,
        values,
        ring,
        depth: p.depth,
        look_aside: !p.prefill,
    };
    for _ in 0..p.warmup_rounds {
        let (outs, _, _) = round(&mut plane, p, &ctx, None)?;
        for o in &outs {
            plane.warmup.add(&o.tally);
        }
    }
    plane.setup_s = t0.elapsed().as_secs_f64();
    Ok(plane)
}

/// Draws the request streams of round `index` of a run seeded `seed` into
/// `out`, one per connection, reusing their buffers; returns their digest.
/// Round 0's are drawn in set-up.
fn draw_streams(
    p: &Params,
    keys: &Keys,
    values: &Values,
    seed: u64,
    index: usize,
    out: &mut [ConnStream],
) -> u64 {
    let conns = out.len();
    let mut dig = 0u64;
    for (c, stream) in out.iter_mut().enumerate() {
        let ops = generate(&p.spec, conn_seed(seed, index * conns + c), p.ops_per_conn);
        dig = dig.rotate_left(1) ^ digest(&ops);
        render_into(keys, values, &ops, stream);
    }
    dig
}

/// Runs one round on every connection at once; returns each
/// connection's result, the round's wall time and, when traced, the
/// merged spans.
///
/// Every round after the first draws fresh streams, untimed. An ETC
/// stream's bytes hang on a few draws (the value sizes of the hottest
/// keys): a run replaying one stream would measure its seed, while fresh
/// rounds average those draws out.
fn round(
    plane: &mut Plane,
    p: &Params,
    ctx: &RoundCtx<'_>,
    epoch: Option<Instant>,
) -> Result<(Vec<RoundOut>, f64, Option<Spans>), String> {
    if plane.rounds > 0 {
        draw_streams(
            p,
            ctx.keys,
            ctx.values,
            plane.seed,
            plane.rounds,
            &mut plane.streams,
        );
    }
    plane.rounds += 1;
    let t = Instant::now();
    let results: Vec<(Result<RoundOut, String>, Option<Spans>)> = std::thread::scope(|s| {
        let handles: Vec<_> = plane
            .conns
            .iter_mut()
            .zip(&plane.streams)
            .enumerate()
            .map(|(i, (conn, stream))| {
                s.spawn(move || {
                    let mut spans = epoch.map(|e| Spans::new(e, i as u32 + 1));
                    (conn.round(ctx, stream, spans.as_mut()), spans)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let secs = t.elapsed().as_secs_f64();
    let mut outs = Vec::with_capacity(results.len());
    let mut merged: Option<Spans> = None;
    for (r, spans) in results {
        outs.push(r?);
        if let Some(sp) = spans {
            match merged.as_mut() {
                Some(m) => m.merge(sp),
                None => merged = Some(sp),
            }
        }
    }
    Ok((outs, secs, merged))
}

/// The timed phase's findings.
struct Timed {
    /// ops/s of each untraced round.
    ops_s: Vec<f64>,
    /// ops/s of each traced round.
    traced_ops_s: Vec<f64>,
    /// Batch round-trip median and 99th percentile of each untraced
    /// round, µs.
    latency: Vec<Timing>,
    /// Batch round trips of the untraced rounds: count and sum (µs).
    rtt_n: u64,
    rtt_sum_us: f64,
    tally: Tally,
    usage: Usage,
    /// Store contents before the first traced round (the ladder's
    /// starting state).
    snapshot: Vec<(Bytes, Bytes, Option<u64>)>,
    evictions: u64,
}

fn timed(
    plane: &mut Plane,
    p: &Params,
    ctx: &RoundCtx<'_>,
    seconds: f64,
    spans: &mut Option<Spans>,
    epoch: Instant,
) -> Result<Timed, String> {
    let traced = spans.is_some();
    let evictions_before = plane.store.snapshot().stats.evictions;
    let before = Sample::now();
    let t0 = Instant::now();
    let mut out = Timed {
        ops_s: Vec::new(),
        traced_ops_s: Vec::new(),
        latency: Vec::new(),
        rtt_n: 0,
        rtt_sum_us: 0.0,
        tally: Tally::default(),
        usage: Usage::default(),
        snapshot: Vec::new(),
        evictions: 0,
    };
    let mut rounds = 0usize;
    loop {
        let traced_round = traced && rounds % 2 == 1;
        if traced_round && rounds == 1 {
            for s in 0..plane.store.shard_count() {
                out.snapshot.extend(plane.store.shard_snapshot_at(s, 0));
            }
            for c in &mut plane.conns {
                c.capture(CAPTURE_BYTES);
            }
        }
        let (outs, secs, round_spans) = round(plane, p, ctx, traced_round.then_some(epoch))?;
        let mut ops = 0u64;
        for o in &outs {
            out.tally.add(&o.tally);
            ops += o.tally.ops;
        }
        if traced_round {
            out.traced_ops_s.push(ops as f64 / secs);
            if let (Some(all), Some(r)) = (spans.as_mut(), round_spans) {
                all.merge(r);
            }
        } else {
            out.ops_s.push(ops as f64 / secs);
            let mut rtts: Vec<f64> = outs.into_iter().flat_map(|o| o.rtts_us).collect();
            out.rtt_n += rtts.len() as u64;
            out.rtt_sum_us += rtts.iter().sum::<f64>();
            out.latency.push(Timing::of(&mut rtts)?);
        }
        rounds += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        let per_round = elapsed / rounds as f64;
        let enough = out.ops_s.len() >= MIN_ROUNDS;
        if (enough && elapsed + per_round > seconds) || elapsed > 3.0 * seconds.max(1.0) {
            break;
        }
    }
    out.usage = Usage::between(&before, &Sample::now());
    out.evictions = plane.store.snapshot().stats.evictions - evictions_before;
    Ok(out)
}

/// What the revocation and restore found.
struct Revocation {
    restore_s: Vec<f64>,
    fresh: u64,
    acked: u64,
    lag_items: u64,
    enqueued: u64,
    shipped: u64,
    dropped: u64,
    link_errors: u64,
    report: Option<RestoreReport>,
}

/// Kills the primary without warning, then brings up replacements from
/// the backup with a checkpoint restore, checks that each took the whole
/// cut, and checks the last against the last value the clients saw
/// acknowledged for every hot key.
fn revoke(
    plane: &mut Plane,
    p: &Params,
    keys: &Keys,
    values: &Values,
    rep: &mut Report,
) -> Result<Revocation, String> {
    let mut backup = plane.backup.take().expect("etc has a backup");
    // The last acknowledged value of every hot key, across connections.
    let mut acked: HashMap<u32, (Instant, u32)> = HashMap::new();
    for c in &plane.conns {
        for (&id, &(at, len)) in &c.acked {
            let e = acked.entry(id).or_insert((at, len));
            if at > e.0 {
                *e = (at, len);
            }
        }
    }
    // Unwarned: the primary and its shipper die with whatever is queued.
    let lag_items = backup.queue.len() as u64;
    plane.conns.clear();
    plane.server.stop();
    backup.repl.stop();
    let stats = backup.repl.stats();
    let enqueued = backup.queue.enqueued();

    let mut out = Revocation {
        restore_s: Vec::new(),
        fresh: 0,
        acked: acked.len() as u64,
        lag_items,
        enqueued,
        shipped: stats.shipped,
        dropped: stats.queue_dropped + stats.batch_dropped,
        link_errors: stats.link_errors,
        report: None,
    };
    let strategy = RecoveryStrategy::Checkpoint(CheckpointConfig::default());
    for i in 0..RESTORES {
        let killed = Instant::now();
        let store = Arc::new(Store::new(StoreConfig {
            capacity_bytes: 2 * p.store_bytes,
            shards: SHARDS,
        }));
        let mut server = CacheServer::start(Arc::clone(&store), LogicalClock::new(), "127.0.0.1:0")
            .map_err(|e| format!("replacement: {e}"))?;
        let report = strategy
            .restore(&RestoreContext {
                backup: &backup.store,
                target_addr: server.addr(),
                target_store: &store,
                checkpoint: None,
                tail: &[],
                now: 0,
                obs: None,
                tracer: None,
            })
            .map_err(|e| format!("restore: {e}"))?;
        out.restore_s.push(killed.elapsed().as_secs_f64());
        server.stop();
        let cut = report.ckpt_cut.as_ref().map_or(0, |c| c.items);
        if report.items_restored != cut || cut != backup.store.len() as u64 {
            rep.problem(format!(
                "restore {i}: backup held {} items, the cut {cut}, the replacement took {}",
                backup.store.len(),
                report.items_restored
            ));
        }
        if i + 1 == RESTORES {
            let mut key = Vec::with_capacity(48);
            for (&id, &(_, len)) in &acked {
                key.clear();
                keys.push(id, &mut key);
                let fresh = store.get(&key).is_some_and(|raw| {
                    decode_value(&raw)
                        .is_some_and(|(_, data)| data == values.pattern(&key, len as usize))
                });
                out.fresh += u64::from(fresh);
            }
            out.report = Some(report);
        }
    }
    backup.server.stop();
    Ok(out)
}

/// Per-op costs of the in-process rungs, ns.
#[derive(Debug, Default)]
struct Ladder {
    ops: u64,
    parse_ns: f64,
    get_ns: f64,
    set_ns: f64,
    flush_ns: f64,
    serve_ns: f64,
    serve_observed_ns: f64,
}

/// One pre-parsed request group of the store rung.
enum StoreOp<'a> {
    /// A run of consecutive GETs, served as one `get_many_into`, as the
    /// protocol layer batches them.
    Gets(Vec<&'a [u8]>),
    /// A SET, with its key and stored (flag-prefixed) value.
    Set(Bytes, Bytes),
}

/// Replays the captured request bytes through parse, the store,
/// `serve_into` and `serve_observed_into`, each on a store holding the
/// same items the loopback server held when the bytes were sent.
fn ladder(
    snapshot: &[(Bytes, Bytes, Option<u64>)],
    cfg: StoreConfig,
    batches: &[&[u8]],
    keys: &Keys,
    values: &Values,
    spans: &mut Spans,
    rep: &mut Report,
) -> Result<Ladder, String> {
    let fresh = || {
        let s = Store::new(cfg);
        s.set_many_at(snapshot.to_vec(), 0);
        s
    };
    let mut plan: Vec<Vec<StoreOp<'_>>> = Vec::with_capacity(batches.len());
    let mut per_batch = Vec::with_capacity(batches.len());
    let mut ops = 0u64;
    for b in batches {
        let mut group = Vec::new();
        let mut pos = 0usize;
        let mut n = 0u64;
        while pos < b.len() {
            let (req, used) =
                parse_request(&b[pos..]).map_err(|e| format!("captured bytes: {e:?}"))?;
            match req {
                Request::Get { keys } => match group.last_mut() {
                    Some(StoreOp::Gets(run)) => run.extend(request_keys(keys)),
                    _ => group.push(StoreOp::Gets(request_keys(keys).collect())),
                },
                Request::Store {
                    key, flags, data, ..
                } => group.push(StoreOp::Set(
                    Bytes::copy_from_slice(key),
                    Bytes::from(encode_value(flags, data)),
                )),
                other => return Err(format!("unexpected captured request {other:?}")),
            }
            pos += used;
            n += 1;
        }
        ops += n;
        per_batch.push(n);
        plan.push(group);
    }
    let spec = *keys.spec();
    let mut l = Ladder {
        ops,
        ..Ladder::default()
    };
    let (mut parse, mut get, mut set, mut flush, mut serve, mut observed) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let mut out = Vec::new();
    let mut hits = Vec::new();
    for _ in 0..LADDER_PASSES {
        // Rung 0: parse only.
        let root = spans.open();
        let t = Instant::now();
        for b in batches {
            let mut pos = 0usize;
            while pos < b.len() {
                let (_, used) = parse_request(&b[pos..]).map_err(|e| format!("{e:?}"))?;
                pos += used;
            }
        }
        parse.push(t.elapsed().as_nanos() as f64 / ops as f64);
        spans.close(root, "cache.protocol.parse", 0, t, ops);

        // Rung 1: the store, call by call.
        let store = fresh();
        let root = spans.open();
        let pass = Instant::now();
        let (mut get_ns, mut get_keys, mut set_ns, mut sets, mut flush_ns) =
            (0u128, 0u64, 0u128, 0u64, 0u128);
        for group in &plan {
            for op in group {
                match op {
                    StoreOp::Gets(run) => {
                        let t = Instant::now();
                        store.get_many_into(run.iter().copied(), 0, &mut out);
                        get_ns += t.elapsed().as_nanos();
                        get_keys += run.len() as u64;
                        spans.leaf("cache.store.get_many", root, t, run.len() as u64);
                        hits.clear();
                        hits.extend(
                            out.iter()
                                .zip(run)
                                .filter_map(|(v, k)| v.clone().map(|v| (*k, v))),
                        );
                        for (k, raw) in &hits {
                            let ok =
                                decode_value(raw).is_some_and(|(_, d)| values.check(&spec, k, d));
                            if !ok {
                                rep.problem(format!(
                                    "ladder store holds a wrong value for {:?}",
                                    String::from_utf8_lossy(k)
                                ));
                            }
                        }
                    }
                    StoreOp::Set(k, v) => {
                        let t = Instant::now();
                        store.set_at(k.clone(), v.clone(), 0, None);
                        set_ns += t.elapsed().as_nanos();
                        sets += 1;
                        spans.leaf("cache.store.set", root, t, 1);
                    }
                }
            }
            let t = Instant::now();
            store.flush_touches(0);
            flush_ns += t.elapsed().as_nanos();
            spans.leaf("cache.store.flush_touches", root, t, 1);
        }
        spans.close(root, "cache.store.replay", 0, pass, ops);
        get.push(get_ns as f64 / get_keys.max(1) as f64);
        if sets > 0 {
            set.push(set_ns as f64 / sets as f64);
        }
        flush.push(flush_ns as f64 / plan.len().max(1) as f64);
        drop(store);

        // Rungs 2 and 3: the protocol's serve entry points, bare then
        // observed.
        let po = ProtocolObs::new(Arc::new(Obs::new()));
        for (rung, name, obs) in [
            (&mut serve, "cache.protocol.serve", None),
            (&mut observed, "cache.protocol.serve_observed", Some(&po)),
        ] {
            let store = fresh();
            let root = spans.open();
            let pass = Instant::now();
            let mut ns = 0u128;
            let mut resp = Vec::with_capacity(1 << 20);
            for (b, &n) in batches.iter().zip(&per_batch) {
                let t = Instant::now();
                let used = match obs {
                    None => serve_into(&store, b, 0, &mut resp),
                    Some(po) => serve_observed_into(&store, b, 0, Some(po), &mut resp),
                };
                ns += t.elapsed().as_nanos();
                spans.leaf(name, root, t, n);
                if used != b.len() {
                    return Err(format!("{name} consumed {used} of {} bytes", b.len()));
                }
                resp.clear();
                store.flush_touches(0);
            }
            spans.close(root, "cache.protocol.replay", 0, pass, ops);
            rung.push(ns as f64 / ops as f64);
        }
    }
    l.parse_ns = median(&mut parse);
    l.get_ns = median(&mut get);
    l.set_ns = if set.is_empty() {
        0.0
    } else {
        median(&mut set)
    };
    l.flush_ns = median(&mut flush);
    l.serve_ns = median(&mut serve);
    l.serve_observed_ns = median(&mut observed);
    Ok(l)
}

/// Runs workload `kind` and fills `rep`.
pub fn run(
    kind: Kind,
    seed: u64,
    seconds: f64,
    traced: bool,
    rep: &mut Report,
) -> Result<(), String> {
    let p = Params::of(kind);
    let epoch = Instant::now();
    // One client per core, at most one per shard (the server's own
    // worker clamp).
    let conns = std::thread::available_parallelism().map_or(1, |n| n.get().min(SHARDS));
    let keys = Keys::new(&p.spec);
    let values = Values::new();
    // One server, so the ring has one node; every key routes to it.
    let ring = HashRing::build(&[(0, 1.0)]);

    // The measured set-up comes first; the others follow the run, so the
    // memory they leave behind does not count in `peak_rss_mb`.
    let mut plane = setup(&p, &keys, &values, &ring, seed, conns, traced)?;
    let digest0 = plane.digest;
    let mut setup_s = vec![plane.setup_s];
    let mut gen_s = vec![plane.gen_s];
    rep.attempted += plane.warmup.ops;
    rep.failed += plane.warmup.failed;

    let ctx = RoundCtx {
        keys: &keys,
        values: &values,
        ring: &ring,
        depth: p.depth,
        look_aside: !p.prefill,
    };
    let before = plane.admin.map(scrape);
    let mut spans = traced.then(|| Spans::new(epoch, 0));
    let t = timed(&mut plane, &p, &ctx, seconds, &mut spans, epoch)?;
    let after = plane.admin.map(scrape);
    // The serving node's peak: set-up and the timed phase, not the
    // revocation drill's replacements.
    let peak_rss_mb = crate::host::peak_rss_mb();
    rep.attempted += t.tally.ops;
    rep.failed += t.tally.failed;
    rep.usage = t.usage;
    let snap = plane.store.snapshot();

    // Each round's latency percentiles, then their median over rounds: a
    // burst of stolen time spoils one round, not the run.
    let p50 = median(&mut t.latency.iter().map(|l| l.p50).collect::<Vec<_>>());
    let p99 = median(&mut t.latency.iter().map(|l| l.p99).collect::<Vec<_>>());
    let mut ops_s = t.ops_s.clone();
    let hit_ratio = t.tally.hits as f64 / t.tally.gets.max(1) as f64;
    rep.set("ops_s", median(&mut ops_s));
    rep.set("latency_p50_us", p50);
    rep.set("bench.latency_p99_us", p99);
    rep.result("ops_s", median(&mut ops_s), "ops/s", ops_s.len() as u64);
    rep.result("batch_p50_us", p50, "us", t.rtt_n);
    rep.result("batch_p99_us", p99, "us", t.rtt_n);
    rep.result("hit_ratio", hit_ratio, "ratio", t.tally.gets);
    if kind == Kind::Usr && t.tally.hits != t.tally.gets {
        rep.problem(format!(
            "usr prefills every key, yet {} GETs missed",
            t.tally.gets - t.tally.hits
        ));
    }

    let scrapes = plane.scraper.take().map(Scraper::stop);
    if let Some((_, failed)) = &scrapes {
        if *failed > 0 {
            rep.problem(format!("{failed} /metrics scrapes failed"));
        }
    }

    // Only the traced run captures request bytes.
    let ladder_in: Vec<Vec<Vec<u8>>> = plane
        .conns
        .iter_mut()
        .map(|c| std::mem::take(&mut c.captured))
        .collect();

    if p.replicate {
        let r = revoke(&mut plane, &p, &keys, &values, rep)?;
        let fresh_ratio = r.fresh as f64 / r.acked.max(1) as f64;
        let mut restore = r.restore_s.clone();
        let restore_s = median(&mut restore);
        rep.result("restore_s", restore_s, "s", RESTORES as u64);
        rep.result("restore_fresh_ratio", fresh_ratio, "ratio", r.acked);
        rep.set("recovery.restore_s", restore_s);
        rep.set("recovery.fresh_ratio", fresh_ratio);
        rep.set("cache.replication.enqueued", r.enqueued as f64);
        rep.set("cache.replication.shipped", r.shipped as f64);
        rep.set("cache.replication.dropped", r.dropped as f64);
        rep.set(
            "cache.replication.shipped_ratio",
            r.shipped as f64 / r.enqueued.max(1) as f64,
        );
        rep.set("cache.replication.link_errors", r.link_errors as f64);
        rep.set("cache.replication.lag_items", r.lag_items as f64);
        if let Some(report) = &r.report {
            let cut_ms = report
                .ckpt_cut
                .as_ref()
                .map_or(0.0, |c| c.elapsed.as_secs_f64() * 1e3);
            let bytes = report.ckpt_cut.as_ref().map_or(0, |c| c.bytes);
            let load = report.ckpt.as_ref().map_or(Duration::ZERO, |c| c.elapsed);
            rep.set("recovery.ckpt_cut_ms", cut_ms);
            rep.set("recovery.ckpt_bytes", bytes as f64);
            rep.set("recovery.ckpt_restore_ms", load.as_secs_f64() * 1e3);
            rep.set("recovery.items_restored", report.items_restored as f64);
            rep.set(
                "recovery.restore_items_per_s",
                report.items_restored as f64 / load.as_secs_f64().max(1e-9),
            );
        }
    }

    if let Some(mut spans) = spans {
        let batches: Vec<&[u8]> = interleave(&ladder_in);
        let l = ladder(
            &t.snapshot,
            p.store_config(),
            &batches,
            &keys,
            &values,
            &mut spans,
            rep,
        )?;
        rep.set(
            "router.lookup_ns",
            spans.total("router.lookup").ns_per_unit(),
        );
        rep.set("cache.store.get_ns", l.get_ns);
        rep.set("cache.store.set_ns", l.set_ns);
        rep.set("cache.store.flush_ns", l.flush_ns);
        rep.set("cache.store.evictions", t.evictions as f64);
        rep.set(
            "cache.store.bytes_per_item",
            snap.used_bytes as f64 / snap.items.max(1) as f64,
        );
        rep.set("cache.hit_ratio", hit_ratio);
        rep.set("cache.protocol.parse_ns", l.parse_ns);
        rep.set("cache.protocol.serve_ns", l.serve_ns);
        rep.set("cache.protocol.serve_observed_ns", l.serve_observed_ns);
        let mean_rtt = t.rtt_sum_us / t.rtt_n.max(1) as f64;
        rep.set(
            "cache.server.net_ns",
            mean_rtt * 1e3 / p.depth as f64 - l.serve_ns,
        );
        if let (Some((_, Some(a))), Some((_, Some(b)))) = (&before, &after) {
            for (metric, hist, q) in STAGES {
                let series = format!("{hist}{{quantile=\"{q}\"}}");
                match prom(b, &series) {
                    Some(v) => rep.set(metric, v),
                    None => rep.problem(format!("/metrics has no {series}")),
                }
            }
            let kops = t.tally.ops.max(1) as f64 / 1e3;
            let delta = |series| prom(b, series).unwrap_or(0.0) - prom(a, series).unwrap_or(0.0);
            rep.set(
                "cache.server.epoll_waits_per_kop",
                delta("reactor_epoll_waits_total") / kops,
            );
            rep.set(
                "cache.server.epoll_events_per_kop",
                delta("reactor_events_total") / kops,
            );
            rep.set(
                "obs.journal_dropped",
                prom(b, "journal_dropped_total").unwrap_or(0.0),
            );
        } else {
            rep.problem("the traced run could not scrape /metrics");
        }
        let mut scrape_ms: Vec<f64> = match &scrapes {
            Some((ms, _)) if !ms.is_empty() => ms.clone(),
            _ => [&before, &after]
                .iter()
                .filter_map(|s| s.as_ref().map(|s| s.0))
                .collect(),
        };
        rep.set("obs.scrape_ms", median(&mut scrape_ms));
        let ops = t.tally.ops.max(1) as f64;
        rep.set(
            "proc.ctx_switches_per_op",
            t.usage.ctx_switches as f64 / ops,
        );
        rep.set("proc.cpu_util", t.usage.cpu_util);
        rep.set("host.steal_frac", t.usage.steal_frac);
        let (mut plain, mut with_spans) = (t.ops_s.clone(), t.traced_ops_s.clone());
        rep.set(
            "bench.trace_overhead_frac",
            median(&mut plain) / median(&mut with_spans) - 1.0,
        );
        rep.result("ladder_ops", l.ops as f64, "ops", l.ops);
        if kind == Kind::Etc {
            // The controller that re-plans the spot fleet, layer by layer.
            crate::replan::layers(seed, rep, &mut spans);
        }
        crate::write_trace(rep.workload, &spans);
    }
    Plane::stop(plane);
    for _ in 1..SETUPS {
        let pl = setup(&p, &keys, &values, &ring, seed, conns, traced)?;
        if pl.digest != digest0 {
            rep.problem("the same seed generated two different op streams");
        }
        rep.attempted += pl.warmup.ops;
        rep.failed += pl.warmup.failed;
        setup_s.push(pl.setup_s);
        gen_s.push(pl.gen_s);
        Plane::stop(pl);
    }
    rep.set("setup_s", median(&mut setup_s));
    rep.result("setup_s", median(&mut setup_s), "s", SETUPS as u64);
    if traced {
        rep.set("workload.gen_s", median(&mut gen_s));
    }
    rep.set("peak_rss_mb", peak_rss_mb);
    Ok(())
}

/// The captured batches of every connection, interleaved batch by batch
/// (the order the server saw them in, near enough).
fn interleave(per_conn: &[Vec<Vec<u8>>]) -> Vec<&[u8]> {
    let longest = per_conn.iter().map(Vec::len).max().unwrap_or(0);
    let mut out = Vec::new();
    for i in 0..longest {
        for c in per_conn {
            if let Some(b) = c.get(i) {
                out.push(b.as_slice());
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_round_draws_its_own_streams_from_the_seed() {
        let p = Params::of(Kind::Etc);
        let (keys, values) = (Keys::new(&p.spec), Values::new());
        let mut out = [ConnStream::default(), ConnStream::default()];
        let mut digest_of = |seed, index| draw_streams(&p, &keys, &values, seed, index, &mut out);
        assert_eq!(digest_of(7, 3), digest_of(7, 3));
        assert_ne!(digest_of(7, 0), digest_of(7, 1));
        assert_ne!(digest_of(7, 1), digest_of(8, 1));
    }
}
