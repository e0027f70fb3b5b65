//! The four workloads' untraced pass: set-up (timed, repeated), the timed
//! load phase, and the correctness checks on what was served.
//!
//! Sized for a two-core box: never more than two load-generating threads,
//! and every engine's worker pool pinned to two threads.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

use qec_engine::{
    DocumentSpec, EngineBuilder, EngineError, ExpandRequest, ExpandResponse, QecEngine,
    ShardedEngine, ShardedEngineBuilder,
};
use qec_index::{Corpus, CorpusBuilder};
use qec_ingress::{Ingress, IngressBuilder, IngressRequest, Ticket};

use crate::check::{combine, served};
use crate::gen::{self, Inputs, Request};
use crate::metrics::{self, median, percentile, END_TO_END};

pub const POOL_THREADS: usize = 2;
pub const SHARDS: usize = 2;
const REPLICAS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;
/// Every run's digest covers exactly the first this-many slots of its
/// request list, so digests compare across runs however far each got.
pub const DIGEST_SLOTS: usize = 512;
/// Open-loop arrival rate, and how many requests fall due together. About a
/// sixth of what the front door sustained for this mix on the two-core box
/// where the benchmark was calibrated: low enough that the generator sleeps
/// between bursts rather than spin on a core the program needs.
pub const INGRESS_RATE_RPS: f64 = 2_000.0;
pub const INGRESS_BURST: usize = 4;
/// Every `ingress_open` request's budget, so overload shows as typed
/// failures rather than as an unbounded queue. A thousand times the median
/// latency: a stall of the sandbox must not fail requests.
pub const INGRESS_TIMEOUT: Duration = Duration::from_secs(1);
/// More queued requests than this when the schedule ends means the queue
/// was still growing: the rate was above capacity and the run is void.
const INGRESS_DEPTH_LIMIT: usize = 256;
/// A generator whose *median* lateness exceeds this is itself the
/// bottleneck. (Latency runs from the due time, so lateness is counted, not
/// lost; its p99 is a per-layer metric. On a busy two-core box the tail is
/// the scheduler's: a thread waking from sleep waits out a running
/// thread's slice, a few milliseconds.)
const GENERATOR_LATENESS_LIMIT: Duration = Duration::from_millis(1);

/// What one invocation was asked to do.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub scale: gen::Scale,
    /// Scratch space inside the checkout (snapshots, trace files).
    pub out_dir: PathBuf,
}

/// What a pass hands back to `main`.
#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Every failed check, in words; empty means correct.
    pub notes: Vec<String>,
    /// Combined digest of the first [`DIGEST_SLOTS`] responses.
    pub digest: u64,
    /// Latency samples behind the percentiles.
    pub samples: usize,
    /// `(name, value, unit)` in declaration order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
}

/// The one call every deployment serves.
pub trait Server: Sync {
    fn serve(&self, req: &ExpandRequest<'_>) -> Result<ExpandResponse, EngineError>;
    fn recycle(&self, resp: ExpandResponse);
}

impl Server for QecEngine {
    fn serve(&self, req: &ExpandRequest<'_>) -> Result<ExpandResponse, EngineError> {
        self.try_expand(req)
    }
    fn recycle(&self, resp: ExpandResponse) {
        QecEngine::recycle(self, resp);
    }
}

impl Server for ShardedEngine {
    fn serve(&self, req: &ExpandRequest<'_>) -> Result<ExpandResponse, EngineError> {
        self.try_expand(req)
    }
    fn recycle(&self, resp: ExpandResponse) {
        ShardedEngine::recycle(self, resp);
    }
}

pub fn build_corpus(docs: Vec<DocumentSpec>) -> Corpus {
    let mut builder = CorpusBuilder::new();
    for doc in docs {
        builder.add_document(doc);
    }
    builder.build()
}

fn flat_engine(docs: Vec<DocumentSpec>) -> QecEngine {
    EngineBuilder::new()
        .documents(docs)
        .pool_threads(POOL_THREADS)
        .build()
}

pub fn sharded_builder(builder: ShardedEngineBuilder) -> ShardedEngineBuilder {
    builder
        .num_shards(SHARDS)
        .replicas(REPLICAS)
        .pool_threads(POOL_THREADS)
}

/// Boots the sharded deployment from the snapshot set in `dir`. A silent
/// fallback to rebuilding would falsify `setup_s`, so the boot statistics
/// are checked.
fn boot_sharded(dir: &Path, notes: &mut Vec<String>) -> ShardedEngine {
    let engine = sharded_builder(ShardedEngineBuilder::new().load_snapshots(dir)).build();
    let boot = engine.boot_stats();
    if boot.snapshots_loaded != SHARDS + 1 || boot.snapshot_fallbacks != 0 || boot.rebuilt_cold != 0
    {
        notes.push(format!(
            "sharded boot did not come from snapshots: {boot:?}"
        ));
    }
    engine
}

/// Serves every key `warm_zipf` can ask for, so the timed phase only hits.
fn warm_up(server: &impl Server, inputs: &Inputs) {
    for r in gen::warm_keys(inputs) {
        let resp = server
            .serve(&r.expand(&inputs.warm))
            .expect("warm-up requests carry no deadline and cannot be refused");
        server.recycle(resp);
    }
}

/// Times `build` [`SETUP_REPEATS`] times, each on a fresh `input` (a copy
/// of the records, where the set-up consumes them), keeping the last
/// product. Copying and dropping stay outside the timer.
fn timed_setups<I, T>(mut input: impl FnMut() -> I, mut build: impl FnMut(I) -> T) -> (T, f64) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut product = None;
    for _ in 0..SETUP_REPEATS {
        drop(product.take());
        let input = input();
        let start = Instant::now();
        product = Some(build(input));
        times.push(start.elapsed().as_secs_f64());
    }
    (product.expect("SETUP_REPEATS > 0"), median(&mut times))
}

/// A list of distinct keys longer than the cache must never hit.
fn note_hits_on_cold_list(tally: &Tally, notes: &mut Vec<String>) {
    if tally.cache_hits > 0 {
        notes.push(format!(
            "{} cache hits on a list of distinct keys",
            tally.cache_hits
        ));
    }
}

/// A warmed engine must not miss in the timed phase.
fn note_misses_on_warm_list(engine: &QecEngine, misses_before: u64, notes: &mut Vec<String>) {
    let misses = engine.cache_stats().misses - misses_before;
    if misses > 0 {
        notes.push(format!("{misses} cache misses in the warmed timed phase"));
    }
}

/// One served request: when it started (closed loop) or was due (open
/// loop), as nanoseconds into the timed phase, and how long it took.
#[derive(Debug, Clone, Copy)]
struct Sample {
    at_ns: u64,
    latency_ns: u64,
}

/// Tallies of a timed phase, before they become metrics.
#[derive(Debug, Default)]
struct Tally {
    samples: Vec<Sample>,
    attempted: u64,
    /// Refused or failed outright.
    errors: u64,
    /// Served degraded or partial.
    flawed: u64,
    /// Served something else than the same request's reference.
    mismatched: u64,
    cache_hits: u64,
    f_sum: f64,
    clusters: u64,
    /// First digest seen per slot of the request list; 0 = not served.
    digests: Vec<u64>,
    cpu_s: f64,
}

impl Tally {
    fn with_slots(slots: usize) -> Self {
        Self {
            digests: vec![0; slots],
            ..Self::default()
        }
    }

    /// Books one served response against `slot`, checking it against the
    /// reference when there is one and against the slot's first response
    /// otherwise.
    fn book(&mut self, slot: usize, resp: &ExpandResponse, reference: Option<&[u64]>) -> u64 {
        let s = served(resp);
        self.flawed += u64::from(s.flawed);
        self.cache_hits += u64::from(s.cache_hit);
        self.f_sum += s.f_sum;
        self.clusters += u64::from(s.clusters);
        let expected = match reference {
            Some(r) => r[slot],
            None => self.digests[slot],
        };
        if expected != 0 && expected != s.digest {
            self.mismatched += 1;
        }
        if self.digests[slot] == 0 {
            self.digests[slot] = s.digest;
        }
        s.digest
    }

    fn absorb(&mut self, other: Tally) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.errors += other.errors;
        self.flawed += other.flawed;
        self.mismatched += other.mismatched;
        self.cache_hits += other.cache_hits;
        self.f_sum += other.f_sum;
        self.clusters += other.clusters;
        for (mine, theirs) in self.digests.iter_mut().zip(other.digests) {
            if *mine == 0 {
                *mine = theirs;
            } else if theirs != 0 && theirs != *mine {
                // Two clients served the same slot and got different bits.
                self.mismatched += 1;
            }
        }
    }
}

/// Closed loop: each of `clients` threads sends its next request only when
/// the previous one has been answered, until `seconds` is up. The clients
/// draw from one counter, so the `slots` requests are started in list order
/// (cycling) however the clients' speeds differ: a list of distinct keys
/// longer than the cache then misses on every request, by construction.
fn closed_loop<'q>(
    server: &impl Server,
    clients: usize,
    seconds: f64,
    slots: usize,
    request: &(dyn Fn(usize) -> ExpandRequest<'q> + Sync),
    reference: Option<&[u64]>,
) -> Tally {
    let barrier = Barrier::new(clients + 1);
    let next = AtomicUsize::new(0);
    let cpu_before = metrics::process_cpu_seconds();
    let mut total = Tally::with_slots(slots);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                let (barrier, next) = (&barrier, &next);
                scope.spawn(move || {
                    let mut tally = Tally::with_slots(slots);
                    tally.samples.reserve(1 << 20);
                    barrier.wait();
                    let begin = Instant::now();
                    let deadline = begin + Duration::from_secs_f64(seconds);
                    loop {
                        let slot = next.fetch_add(1, Ordering::Relaxed) % slots;
                        let req = request(slot);
                        let start = Instant::now();
                        if start >= deadline {
                            break;
                        }
                        tally.attempted += 1;
                        match server.serve(&req) {
                            Ok(resp) => {
                                tally.samples.push(Sample {
                                    at_ns: (start - begin).as_nanos() as u64,
                                    latency_ns: start.elapsed().as_nanos() as u64,
                                });
                                tally.book(slot, &resp, reference);
                                server.recycle(resp);
                            }
                            Err(_) => tally.errors += 1,
                        }
                    }
                    tally
                })
            })
            .collect();
        barrier.wait();
        for h in handles {
            total.absorb(h.join().expect("client thread panicked"));
        }
    });
    total.cpu_s = metrics::process_cpu_seconds() - cpu_before;
    total
}

/// Serves, untimed, whichever of the first [`DIGEST_SLOTS`] slots the timed
/// phase did not reach, and folds the digest over exactly those slots.
fn prefix_digest<'q>(
    server: &impl Server,
    tally: &mut Tally,
    request: &dyn Fn(usize) -> ExpandRequest<'q>,
) -> u64 {
    let n = DIGEST_SLOTS.min(tally.digests.len());
    for slot in 0..n {
        if tally.digests[slot] == 0 {
            if let Ok(resp) = server.serve(&request(slot)) {
                tally.digests[slot] = served(&resp).digest;
                server.recycle(resp);
            }
        }
    }
    combine(tally.digests[..n].iter().copied().enumerate())
}

/// Latency percentiles and throughput are taken per window of this length
/// and the median window is reported: the sandbox stalls a process for
/// 100 ms and more now and then, and one such stall would otherwise set a
/// whole run's tail.
///
/// The tail percentile is the 95th, not the 99th. With more runnable
/// threads than cores (the front door's collector, two pool workers, the
/// generator and the reaper on two cores), one to three requests in a
/// hundred wait out another thread's scheduler slice (up to 4 ms here), so
/// the 99th sits on the knee between the program's latency and the
/// kernel's: its spread over ten seeds was 29 % on `ingress_open` against
/// 7 % for the median.
const WINDOW: Duration = Duration::from_secs(2);

/// Median over the timed phase's full windows of each window's p50 (ms),
/// p95 (ms) and completion rate (successes per second, over the span from
/// the window's first completion to its last). A phase shorter than one
/// window is one window.
fn windowed(samples: &[Sample], seconds: f64) -> (f64, f64, f64) {
    let windows = ((seconds / WINDOW.as_secs_f64()) as usize).max(1);
    let length_ns = WINDOW.as_secs_f64().min(seconds) * 1e9;
    let mut buckets: Vec<Vec<&Sample>> = vec![Vec::new(); windows];
    for s in samples {
        if let Some(bucket) = buckets.get_mut((s.at_ns as f64 / length_ns) as usize) {
            bucket.push(s);
        }
    }
    let (mut p50, mut p95, mut rps) = (Vec::new(), Vec::new(), Vec::new());
    for bucket in buckets.iter().filter(|b| b.len() > 1) {
        let mut latencies: Vec<u64> = bucket.iter().map(|s| s.latency_ns).collect();
        latencies.sort_unstable();
        p50.push(percentile(&latencies, 0.50) as f64 / 1e6);
        p95.push(percentile(&latencies, 0.95) as f64 / 1e6);
        let done = bucket.iter().map(|s| s.at_ns + s.latency_ns);
        let span_ns = done.clone().max().expect("non-empty") - done.min().expect("non-empty");
        rps.push((bucket.len() - 1) as f64 / (span_ns.max(1) as f64 / 1e9));
    }
    (median(&mut p50), median(&mut p95), median(&mut rps))
}

/// Turns a tally into the outcome: the failure count, the notes and the
/// end-to-end metrics in declaration order.
fn outcome(
    tally: Tally,
    seconds: f64,
    setup_s: f64,
    digest: u64,
    mut notes: Vec<String>,
) -> Outcome {
    if tally.samples.is_empty() {
        notes.push("no request succeeded".into());
    }
    if tally.mismatched > 0 {
        notes.push(format!(
            "{} responses differ from the same request's reference",
            tally.mismatched
        ));
    }
    if tally.flawed > 0 {
        notes.push(format!(
            "{} responses were degraded or partial",
            tally.flawed
        ));
    }
    if tally.errors > 0 {
        notes.push(format!("{} requests were refused or failed", tally.errors));
    }
    let (p50_ms, p95_ms, rps) = windowed(&tally.samples, seconds);
    let values = [
        setup_s,
        p50_ms,
        p95_ms,
        rps,
        tally.cpu_s * 1e3 / tally.attempted.max(1) as f64,
        metrics::peak_rss_mb(),
        tally.f_sum / tally.clusters.max(1) as f64,
    ];
    Outcome {
        attempted: tally.attempted.max(1),
        failed: tally.errors + tally.flawed,
        notes,
        digest,
        samples: tally.samples.len(),
        metrics: END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, v, m.unit))
            .collect(),
    }
}

pub fn cold_flat(cfg: &Config, inputs: &Inputs) -> Outcome {
    let (engine, setup_s) = timed_setups(|| inputs.docs.clone(), flat_engine);
    let request = |slot: usize| Request::cold(slot).expand(&inputs.cold);
    let mut tally = closed_loop(&engine, 2, cfg.seconds, inputs.cold.len(), &request, None);
    let mut notes = Vec::new();
    note_hits_on_cold_list(&tally, &mut notes);
    let digest = prefix_digest(&engine, &mut tally, &request);
    outcome(tally, cfg.seconds, setup_s, digest, notes)
}

/// Reference digest of every request of the warm list, from one sequential
/// pass over its distinct requests on the freshly warmed engine.
fn warm_references(server: &impl Server, inputs: &Inputs) -> Vec<u64> {
    let mut by_request = std::collections::HashMap::new();
    inputs
        .warm_requests
        .iter()
        .map(|r| {
            *by_request
                .entry((r.query, r.strategy, r.member_offset, r.member_limit))
                .or_insert_with(|| {
                    let resp = server
                        .serve(&r.expand(&inputs.warm))
                        .expect("reference requests carry no deadline");
                    let digest = served(&resp).digest;
                    server.recycle(resp);
                    digest
                })
        })
        .collect()
}

pub fn warm_zipf(cfg: &Config, inputs: &Inputs) -> Outcome {
    let (engine, setup_s) = timed_setups(
        || inputs.docs.clone(),
        |docs| {
            let engine = flat_engine(docs);
            warm_up(&engine, inputs);
            engine
        },
    );
    let reference = warm_references(&engine, inputs);
    let misses_before = engine.cache_stats().misses;
    let request = |slot: usize| inputs.warm_requests[slot].expand(&inputs.warm);
    let mut tally = closed_loop(
        &engine,
        2,
        cfg.seconds,
        inputs.warm_requests.len(),
        &request,
        Some(&reference),
    );
    let mut notes = Vec::new();
    note_misses_on_warm_list(&engine, misses_before, &mut notes);
    let digest = prefix_digest(&engine, &mut tally, &request);
    outcome(tally, cfg.seconds, setup_s, digest, notes)
}

/// A directory for this process's snapshot set, removed on drop.
pub struct ScratchDir(pub PathBuf);

impl ScratchDir {
    pub fn new(cfg: &Config, name: &str) -> Self {
        let dir = cfg.out_dir.join(format!("{name}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        Self(dir)
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

pub fn sharded_cold(cfg: &Config, inputs: &Inputs) -> Outcome {
    // Untimed preparation: the snapshot set the deployment boots from, and
    // a flat engine over the same corpus to check responses against.
    let dir = ScratchDir::new(cfg, "snap");
    let corpus = build_corpus(inputs.docs.clone());
    ShardedEngineBuilder::from_corpus(corpus.clone())
        .num_shards(SHARDS)
        .pool_threads(POOL_THREADS)
        .build()
        .save_snapshot(&dir.0)
        .unwrap_or_else(|e| panic!("save snapshots to {}: {e}", dir.0.display()));
    let flat = EngineBuilder::from_corpus(corpus)
        .pool_threads(POOL_THREADS)
        .build();

    let mut notes = Vec::new();
    let (engine, setup_s) = timed_setups(|| (), |()| boot_sharded(&dir.0, &mut notes));
    let request = |slot: usize| Request::cold(slot).expand(&inputs.cold);
    let mut tally = closed_loop(&engine, 1, cfg.seconds, inputs.cold.len(), &request, None);
    note_hits_on_cold_list(&tally, &mut notes);
    let digest = prefix_digest(&engine, &mut tally, &request);

    // The same requests through the flat engine: the other ranker, no
    // scatter, no merge; the answers must be the same bits.
    let n = DIGEST_SLOTS.min(tally.digests.len());
    let differing = (0..n)
        .filter(|&slot| {
            let resp = flat.expand(&request(slot));
            let same = served(&resp).digest == tally.digests[slot];
            flat.recycle(resp);
            !same
        })
        .count();
    if differing > 0 {
        notes.push(format!(
            "{differing} of {n} sharded responses differ from the flat engine's"
        ));
    }
    let omissions: u64 = engine.stats().shards.iter().map(|s| s.omissions).sum();
    if omissions > 0 {
        notes.push(format!("{omissions} shard omissions"));
    }
    outcome(tally, cfg.seconds, setup_s, digest, notes)
}

/// What the open-loop generator hands the reaper for each accepted request.
struct InFlight {
    /// Index into the arrival schedule.
    index: usize,
    due: Instant,
    ticket: Ticket,
}

/// One request the open loop served.
#[derive(Debug, Clone, Copy)]
pub struct ServedAt {
    /// Index into the arrival schedule.
    pub index: usize,
    pub due: Instant,
    pub done: Instant,
    pub digest: u64,
}

/// The warm list's request at `slot`, as the front door takes it.
fn ingress_request(inputs: &Inputs, slot: usize) -> IngressRequest {
    IngressRequest {
        timeout: Some(INGRESS_TIMEOUT),
        ..IngressRequest::from(&inputs.warm_requests[slot].expand(&inputs.warm))
    }
}

/// Sleeps most of the way to `due` and spins the rest: a plain sleep
/// overshoots by tens of microseconds, and yielding instead of spinning
/// hands a busy core away for a whole time slice.
fn wait_until(due: Instant) {
    loop {
        let now = Instant::now();
        if now >= due {
            return;
        }
        let left = due - now;
        if left > Duration::from_micros(150) {
            std::thread::sleep(left - Duration::from_micros(100));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Result of an open-loop phase.
pub struct OpenLoop {
    tally: Tally,
    /// Refused at submission or failed in flight.
    pub errors: u64,
    pub lateness_ns: Vec<u64>,
    pub depth_end: usize,
    /// Every served request, for the traced pass.
    pub served: Vec<ServedAt>,
}

/// Open loop: one generator thread submits each arrival when it is due,
/// however the earlier ones fare; one reaper thread waits on the tickets
/// in order. Latency runs from the instant a request was due, so a stall
/// costs every request it delays.
pub fn open_loop(
    ingress: &Ingress,
    inputs: &Inputs,
    arrivals: &[gen::Arrival],
    reference: Option<&[u64]>,
) -> OpenLoop {
    let (tx, rx) = mpsc::channel::<InFlight>();
    let slots = inputs.warm_requests.len();
    let cpu_before = metrics::process_cpu_seconds();
    let begin = Instant::now();
    let (generator, reaper) = std::thread::scope(|scope| {
        let generator = scope.spawn(move || {
            let mut lateness_ns = Vec::with_capacity(arrivals.len());
            let mut refused = 0u64;
            for (index, a) in arrivals.iter().enumerate() {
                let due = begin + Duration::from_nanos(a.due_ns);
                let req = ingress_request(inputs, a.slot as usize);
                wait_until(due);
                lateness_ns.push((Instant::now() - due).as_nanos() as u64);
                match ingress.submit(req) {
                    Ok(ticket) => tx
                        .send(InFlight { index, due, ticket })
                        .expect("reaper is alive"),
                    Err(_) => refused += 1,
                }
            }
            let depth_end = ingress.stats().queue_depth;
            drop(tx);
            (
                lateness_ns,
                refused,
                depth_end,
                metrics::thread_cpu_seconds(),
            )
        });
        let reaper = scope.spawn(move || {
            let mut tally = Tally::with_slots(slots);
            let mut served_at = Vec::with_capacity(arrivals.len());
            for InFlight { index, due, ticket } in rx {
                match ticket.wait() {
                    Ok(resp) => {
                        let done = Instant::now();
                        tally.samples.push(Sample {
                            at_ns: (due - begin).as_nanos() as u64,
                            latency_ns: (done - due).as_nanos() as u64,
                        });
                        let slot = arrivals[index].slot as usize;
                        let digest = tally.book(slot, &resp, reference);
                        served_at.push(ServedAt {
                            index,
                            due,
                            done,
                            digest,
                        });
                        ingress.engine().recycle(resp);
                    }
                    Err(_) => tally.errors += 1,
                }
            }
            (tally, served_at, metrics::thread_cpu_seconds())
        });
        (
            generator.join().expect("generator thread panicked"),
            reaper.join().expect("reaper thread panicked"),
        )
    });
    let (lateness_ns, refused, depth_end, generator_cpu) = generator;
    let (mut tally, served, reaper_cpu) = reaper;
    // The load generator's own CPU is not the program's.
    tally.cpu_s = metrics::process_cpu_seconds() - cpu_before - generator_cpu - reaper_cpu;
    tally.attempted = arrivals.len() as u64;
    tally.errors += refused;
    OpenLoop {
        errors: tally.errors,
        tally,
        lateness_ns,
        depth_end,
        served,
    }
}

pub fn ingress_open(cfg: &Config, inputs: &Inputs) -> Outcome {
    let (ingress, setup_s) = timed_setups(
        || inputs.docs.clone(),
        |docs| {
            let engine = flat_engine(docs);
            warm_up(&engine, inputs);
            IngressBuilder::new(Arc::new(engine)).spawn()
        },
    );
    let engine = Arc::clone(ingress.engine());
    let reference = warm_references(&*engine, inputs);
    let misses_before = engine.cache_stats().misses;
    let arrivals = gen::arrivals(inputs, INGRESS_RATE_RPS, INGRESS_BURST, cfg.seconds);
    let OpenLoop {
        mut tally,
        mut lateness_ns,
        depth_end,
        ..
    } = open_loop(&ingress, inputs, &arrivals, Some(&reference));
    let mut notes = Vec::new();
    note_misses_on_warm_list(&engine, misses_before, &mut notes);
    if depth_end > INGRESS_DEPTH_LIMIT {
        notes.push(format!(
            "{depth_end} requests queued when the schedule ended: the queue was still growing"
        ));
    }
    lateness_ns.sort_unstable();
    let late = Duration::from_nanos(percentile(&lateness_ns, 0.50));
    if late > GENERATOR_LATENESS_LIMIT {
        notes.push(format!("the generator ran {late:?} late at the median"));
    }
    let request = |slot: usize| inputs.warm_requests[slot].expand(&inputs.warm);
    let digest = prefix_digest(&*engine, &mut tally, &request);
    outcome(tally, cfg.seconds, setup_s, digest, notes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windowed_reports_the_median_window_and_ignores_a_stalled_one() {
        // Three 2 s windows at 100 requests each: latencies 1 ms, except a
        // stalled middle window at 50 ms; a partial fourth window is dropped.
        let mut samples = Vec::new();
        for w in 0..3u64 {
            for i in 0..100u64 {
                samples.push(Sample {
                    at_ns: w * 2_000_000_000 + i * 1_000_000,
                    latency_ns: if w == 1 { 50_000_000 } else { 1_000_000 + i },
                });
            }
        }
        samples.push(Sample {
            at_ns: 6_100_000_000,
            latency_ns: 900_000_000,
        });
        let (p50, p95, rps) = windowed(&samples, 6.5);
        assert!((p50 - 1.0).abs() < 0.001, "{p50}");
        assert!((p95 - 1.0).abs() < 0.001, "{p95}");
        // 100 completions, 1 ms apart: 99 intervals in 99 ms.
        assert!((rps - 1_000.0).abs() < 0.01, "{rps}");
        // Shorter than a window: one window of the whole phase.
        let (_, _, rps) = windowed(&samples[..100], 0.05);
        assert!((rps - 1_000.0).abs() < 0.01, "{rps}");
    }
}
