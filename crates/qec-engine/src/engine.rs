//! The engine facade: corpus + configuration + shared cache + pooled
//! per-chunk scratch.
//!
//! [`QecEngine`] owns everything a serving process needs — the frozen
//! [`Corpus`], an [`EngineConfig`], one instance of each [`Expander`]
//! strategy, a boxed [`Clusterer`], the cross-session
//! [`SharedArenaCache`], the persistent [`WorkerPool`] — plus pools of
//! chunk scratches and responses so concurrent serves never contend on
//! working buffers.
//!
//! One serving path
//! ----------------
//! The paper generates one expanded query per cluster, so a request is a
//! flat set of independent per-cluster expansions over one cached
//! pipeline, and a batch is the same set over a few pipelines. The engine
//! serves that shape **once**, in `serve_chunk`: preflight → analyse → group
//! by cache key → probe → build and publish (or abandon) the cold keys →
//! expand every live cluster as one flat, cancellable task set behind a
//! panic boundary → fill the responses in request order.
//! [`try_expand`](QecEngine::try_expand) is a chunk of one;
//! [`try_expand_batch_into`](QecEngine::try_expand_batch_into) feeds it
//! at most `CHUNK_MAX` (64) requests at a time.
//! Where the expansions run is decided in one place from the chunk's task
//! count: a small set on the caller's thread with one scratch, a large one
//! across the worker pool — bit-identical either way.
//!
//! Hot-path discipline
//! -------------------
//! Every request analyses its query into **sorted term ids** (through
//! reusable session buffers — no allocation once warm) and probes the
//! shared cache with that key. A hit anywhere in the process — same
//! session, another session, another thread — clones the `Arc`d
//! [`CachedPipeline`] (immutable [`ExpansionArena`], per-cluster `(C, U)`
//! bitsets, member lists) and re-runs only the expansion kernel through
//! borrowing [`QecInstance`]s; for the ISKR and PEBC strategies on warmed
//! scratch this performs **zero heap allocations** end to end (responses
//! recycle their buffers through [`QecEngine::recycle`]; the
//! `zero_alloc_engine` and `zero_alloc_batch` integration tests arm a
//! counting allocator around exactly these loops, on both sides of the
//! task-count threshold). A miss pays the full retrieve → rank → cluster →
//! arena rebuild and publishes the result for every other session.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use qec_cluster::{Clusterer, KMeansClusterer};
use qec_core::{
    default_parallelism, CancelToken, DisjointSlots, ExactDeltaF, ExpandedQuery, Expander,
    ExpansionArena, Iskr, IskrScratch, Pebc, QecInstance, ResultSet, ScratchPool, WorkerPool,
};
use qec_index::{
    Corpus, CorpusBuilder, DocId, DocumentSpec, Hit, SearchScratch, Searcher, TermMatrix,
};
use qec_snapshot::{SnapshotError, SnapshotSummary};
use qec_text::TermId;

use crate::api::{
    ClusterExpansion, EngineError, ExpandRequest, ExpandResponse, ExpandStats, ExpandStrategy,
};
use crate::boot::BootStats;
use crate::cache::{
    BuildTicket, CacheProbe, CacheStats, CachedCluster, CachedPipeline, KeyRef, SharedArenaCache,
};
use crate::config::EngineConfig;
use crate::shard::{retrieve_ranked, ShardSet};

/// Flat-task outcome markers (see [`BatchScratch::task_state`]).
const TASK_CANCELLED: u8 = 0;
const TASK_OK: u8 = 1;
const TASK_PANICKED: u8 = 2;

/// A chunk whose flat (request, cluster) task set has fewer tasks than
/// this expands them on the caller's thread with one scratch; from here up
/// they are spread across the worker pool. A dispatch costs a few idle
/// worker wake-ups, each about as long as several warm per-cluster
/// expansions, so the pool only pays once the set is a few requests' worth:
/// a lone request at the paper's granularity (`k_clusters` ≤ 5–6) stays
/// inline, and so does the front door's usual chunk of one on a door that
/// keeps up; the chunk queued behind it (two or more requests) is pooled.
const POOLED_MIN_TASKS: usize = 8;

/// Most requests one `serve_chunk` call takes: longer
/// [`try_expand_batch_into`](QecEngine::try_expand_batch_into) slices are
/// served in chunks of this many, bounding the working state (sessions,
/// flat task set) one chunk pins. The front door's default chunk
/// (`IngressConfig::batch_max` = 32) is served whole.
const CHUNK_MAX: usize = 64;

/// Upper bound applied to [`ExpandRequest::k_clusters`] before anything
/// reads it. `k` is the user-facing granularity — one expanded query per
/// cluster — and arrives with the request, while k-means over more results
/// than `k` holds two dense `k × D` `f64` buffers (`D` = distinct terms of
/// the results): unclamped, one request asking for thousands of clusters
/// over a large `top_k` allocates gigabytes.
const MAX_K_CLUSTERS: usize = 64;

/// The shared-cache key of `req` over its analysed, sorted `terms` — also
/// everything a pipeline build reads of the request, so key, pipeline and
/// response agree on the clamped `k_clusters`. Pagination fields shape the
/// response only and deliberately stay out.
fn key_of<'t>(req: &ExpandRequest<'_>, terms: &'t [TermId]) -> KeyRef<'t> {
    KeyRef {
        terms,
        semantics: req.semantics,
        k_clusters: req.k_clusters.min(MAX_K_CLUSTERS),
        top_k: req.top_k,
        strategy: req.strategy,
    }
}

/// One request slot's reusable analysis buffers.
#[derive(Debug, Default)]
struct SessionScratch {
    /// Analysed, sorted query terms — the body of the shared-cache key.
    terms: Vec<TermId>,
    /// Per-keyword token/stem buffer of the alloc-free analysis path.
    keyword_buf: String,
}

/// One distinct analysed key of a chunk: its member requests, the
/// pipeline serving the whole group, and the probe outcome.
#[derive(Debug, Default)]
struct GroupSlot {
    /// Index of the first request with this key (the one whose probe /
    /// build the group rides on).
    rep: usize,
    /// Index of the latest request with this key: its arrival stamp is
    /// the recency the group's probe or published build takes, as if the
    /// members had been served one after another.
    last: usize,
    /// The shared pipeline; cleared before the scratch returns to its
    /// pool so pooled chunk state never pins cache memory.
    pipeline: Option<Arc<CachedPipeline>>,
    /// Whether the group's probe hit the shared cache.
    hit: bool,
    /// Post-probe cache snapshot for the group.
    stats: CacheStats,
    /// Why the group has no pipeline (build failed / deadline tripped
    /// waiting on a peer's build): every member request reports this
    /// error and contributes no expansion tasks.
    error: Option<EngineError>,
}

/// One cold group's build work, extracted from the probe loop so builds
/// can run **through the pool** — one slow cold key then overlaps its
/// siblings instead of serializing the chunk behind `build_pipeline`.
struct ColdBuild<'c> {
    /// Index into `BatchScratch::groups`.
    group: usize,
    /// The group's representative request index.
    rep: usize,
    /// The single-flight build ticket (`None` when caching is off).
    ticket: Option<BuildTicket<'c>>,
    /// Filled by the build task: the pipeline + post-publish stats, or
    /// why the build failed.
    built: Option<Result<(Arc<CachedPipeline>, CacheStats), EngineError>>,
}

/// Reusable working state of one in-flight chunk; pooled by the engine.
/// Everything mutable a chunk touches lives here or in the responses —
/// the pipelines are shared immutably through the cache. Every vector
/// only grows, so a warmed serving loop of stable shape performs no heap
/// allocation.
#[derive(Debug, Default)]
struct BatchScratch {
    /// One session per request slot (analysis buffers).
    sessions: Vec<SessionScratch>,
    /// Request index → index into `groups`.
    group_of: Vec<usize>,
    /// One slot per distinct analysed key in the chunk.
    groups: Vec<GroupSlot>,
    /// Request index → offset of its first task in `outs`.
    offsets: Vec<usize>,
    /// Flat task index → owning request index.
    task_req: Vec<u32>,
    /// Flat per-(request, cluster) expansion outputs.
    outs: Vec<ExpandedQuery>,
    /// Request index → preflight refusal (deadline expired before
    /// dispatch); such requests form no group and no tasks.
    admit_err: Vec<Option<EngineError>>,
    /// Request index → merged cancellation token (request token +
    /// effective deadline), polled by the request's expansion tasks.
    tokens: Vec<CancelToken>,
    /// Flat task index → outcome ([`TASK_OK`] / [`TASK_CANCELLED`] /
    /// [`TASK_PANICKED`]), written by exactly the task that owns the
    /// index. A panicked task fails only its own request at fill time.
    task_state: Vec<u8>,
    /// The caller's own retrieval and expansion scratches, for the work
    /// that stays on its thread (cold builds that are not dispatched to
    /// the pool, an inline task set). They travel with the chunk scratch
    /// — handed back last, taken first — so a serving thread keeps
    /// meeting the buffers its core already has in cache; the shared
    /// [`ScratchPool`]s are released mid-request and would hand them to
    /// whichever thread asks next.
    search: SearchScratch,
    iskr: IskrScratch,
}

/// The unified serving facade over retrieve → rank → cluster → expand.
///
/// Shared by reference across threads: serving takes `&self`; chunk
/// scratches and responses come from internal pools, and built pipelines
/// are shared across all sessions through the [`SharedArenaCache`].
pub struct QecEngine {
    /// The one corpus; a gather engine lends it to every scatter, whose
    /// shards are document ranges of it.
    pub(crate) corpus: Arc<Corpus>,
    config: EngineConfig,
    clusterer: Box<dyn Clusterer>,
    iskr: Iskr,
    exact: ExactDeltaF,
    pebc: Pebc,
    cache: SharedArenaCache,
    /// The persistent worker pool serving pooled chunks and — on a gather
    /// engine — every scattered shard retrieval.
    pub(crate) pool: WorkerPool,
    /// Doc-partitioned shard set — present only on the **gather** engine
    /// assembled by `ShardedEngineBuilder`. When set, cold pipeline builds
    /// scatter retrieval + ranking across the shards' document ranges of
    /// this engine's corpus and merge the per-shard top-k lists;
    /// everything downstream (clustering, arena, expansion) runs on the
    /// gather side against the same corpus.
    shards: Option<ShardSet>,
    /// Shared expansion scratches for pool tasks.
    scratches: ScratchPool,
    /// Shared retrieval scratches for **pooled cold builds**: when a
    /// chunk holds two or more cold keys, their pipeline builds run as
    /// pool tasks, each on its own pooled [`SearchScratch`].
    build_scratches: ScratchPool<SearchScratch>,
    /// How the corpus came up (snapshot restore, cold rebuild, or
    /// fallback); see [`boot_stats`](Self::boot_stats).
    boot: BootStats,
    responses: ScratchPool<ExpandResponse>,
    batches: ScratchPool<BatchScratch>,
}

impl std::fmt::Debug for QecEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QecEngine")
            .field("docs", &self.corpus.num_docs())
            .field("vocab", &self.corpus.vocab_size())
            .field("clusterer", &self.clusterer.name())
            .field("cache", &self.cache.stats())
            .finish_non_exhaustive()
    }
}

impl QecEngine {
    /// The engine's frozen corpus (for term/doc display, direct search,
    /// corpus statistics).
    pub fn corpus(&self) -> &Corpus {
        &self.corpus
    }

    /// The engine's configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.config
    }

    /// Cumulative shared-cache statistics (each response also carries a
    /// snapshot in [`ExpandStats::cache`]).
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// How this engine's corpus came up: restored from a snapshot, rebuilt
    /// cold, or fell back to the rebuild after a snapshot failed to load
    /// (the [`BootStats::errors`] lines say why). On a sharded
    /// deployment's gather engine the snapshot set's doc store and each
    /// shard's segment count once.
    pub fn boot_stats(&self) -> &BootStats {
        &self.boot
    }

    /// Writes the engine's frozen corpus to `path` as a crash-safe
    /// snapshot (see [`qec_snapshot::save_corpus`]): temp file → fsync →
    /// atomic rename, so the previous snapshot is never clobbered. An
    /// engine booted from the resulting file serves responses
    /// bit-identical to this one.
    pub fn save_snapshot(&self, path: impl AsRef<Path>) -> Result<SnapshotSummary, SnapshotError> {
        qec_snapshot::save_corpus(&self.corpus, path.as_ref())
    }

    /// Serves one expansion request, panicking where
    /// [`try_expand`](Self::try_expand) returns an error.
    ///
    /// # Panics
    /// When serving fails with an [`EngineError`] — the request's
    /// deadline expired before a pipeline was available, or the
    /// build/expansion itself failed. With no deadline set this only
    /// happens if the pipeline genuinely cannot be built.
    pub fn expand(&self, req: &ExpandRequest<'_>) -> ExpandResponse {
        self.try_expand(req)
            .unwrap_or_else(|e| panic!("QecEngine::expand failed ({e}); use try_expand"))
    }

    /// Serves one expansion request — a chunk of one — reporting refusals
    /// and failures as [`EngineError`] values.
    ///
    /// Returns a response drawn from the engine's recycle pool; hand it
    /// back with [`recycle`](Self::recycle) to keep a serving loop
    /// allocation-free. Dropping it instead is always safe — the next
    /// request simply starts from fresh buffers.
    ///
    /// The full failure semantics:
    ///
    /// * **Deadline** ([`ExpandRequest::deadline`] / [`ExpandRequest::timeout`]):
    ///   already expired when the request arrives, or expires while waiting on a
    ///   concurrent build of the same key → [`EngineError::DeadlineExceeded`].
    ///   Expires *after* the pipeline is available → `Ok` with
    ///   [`ExpandStats::degraded`] set and the finished prefix of cluster
    ///   expansions intact (never a torn result).
    /// * **Faults**: a panicking pipeline build → [`EngineError::BuildFailed`]
    ///   (memoized briefly so the key's waiters don't stampede); a
    ///   panicking expansion kernel → [`EngineError::ExpansionFailed`].
    ///   The engine stays serviceable either way.
    ///
    /// The engine never sheds load: [`EngineError::Overloaded`] comes only
    /// from a front door (`qec-ingress`) whose queue is full.
    #[must_use = "dropping the Result silently discards refusals and failures; handle the EngineError"]
    pub fn try_expand(&self, req: &ExpandRequest<'_>) -> Result<ExpandResponse, EngineError> {
        let mut result = None;
        self.serve_chunk(std::slice::from_ref(req), &mut |r| result = Some(r));
        result.expect("a chunk answers every request")
    }

    /// Returns a response's buffers to the pool for reuse by later serves.
    pub fn recycle(&self, resp: ExpandResponse) {
        self.responses.release(resp);
    }

    /// Worker threads of the persistent pool (at least one).
    pub fn pool_threads(&self) -> usize {
        self.pool.threads()
    }

    /// The shard set when this is the gather engine of a sharded
    /// deployment (see [`crate::shard::ShardedEngine`]).
    pub(crate) fn shard_set(&self) -> Option<&ShardSet> {
        self.shards.as_ref()
    }

    /// Serves a batch of expansion requests into `out` (cleared first),
    /// one `Result` per request in request order, each bit-identical to
    /// serving the same requests through sequential
    /// [`try_expand`](Self::try_expand) calls. A degraded response
    /// (deadline tripped mid-expansion) is still `Ok` — see
    /// [`ExpandStats::degraded`].
    ///
    /// Batching is where the persistent pool pays off:
    ///
    /// * requests are **grouped by analysed cache key**, so `N` identical
    ///   cold queries trigger **one** pipeline build (the single-flight
    ///   latch extends the same guarantee across concurrent batches);
    /// * every group's per-cluster expansions are scheduled as **one flat
    ///   task set** across the pool — one queue entry and one round of
    ///   wake-ups for the whole batch instead of one per request;
    /// * per-request state comes from recycled pools, so a warmed batch
    ///   loop (stable shape, cache-hit keys, responses handed back
    ///   through [`recycle`](Self::recycle)) performs **zero heap
    ///   allocations** — the `zero_alloc_batch` test arms a counting
    ///   allocator around exactly this loop.
    ///
    /// Slices longer than 64 requests are served in chunks of 64.
    ///
    /// Isolation guarantees, proven by the `chaos` test suite:
    ///
    /// * a request whose pipeline build panics (or hits an injected
    ///   fault) fails **alone** — sibling requests of the same chunk are
    ///   served bit-identical to a clean run;
    /// * a request whose expansion task panics fails alone the same way;
    /// * a request whose deadline has already expired is refused
    ///   individually: it forms no group, triggers no build, and occupies
    ///   no pool task.
    ///
    /// Responses come back **in request order** regardless of how the
    /// members fare individually — refused, degraded and served requests
    /// keep their slots:
    ///
    /// ```
    /// use std::time::{Duration, Instant};
    /// use qec_engine::{DocumentSpec, EngineBuilder, EngineError, ExpandRequest};
    ///
    /// let engine = EngineBuilder::new()
    ///     .document(DocumentSpec::text("pie", "apple fruit pie baking recipe"))
    ///     .document(DocumentSpec::text("inc", "apple iphone store cupertino"))
    ///     .build();
    /// let reqs = [
    ///     ExpandRequest { k_clusters: 2, ..ExpandRequest::new("apple") },
    ///     // This member is refused (deadline lapsed before dispatch)…
    ///     ExpandRequest {
    ///         deadline: Some(Instant::now() - Duration::from_millis(1)),
    ///         ..ExpandRequest::new("apple")
    ///     },
    ///     ExpandRequest { k_clusters: 2, ..ExpandRequest::new("pie") },
    /// ];
    /// let mut results = Vec::new();
    /// engine.try_expand_batch_into(&reqs, &mut results);
    /// // …but slot `i` still answers request `i`.
    /// assert_eq!(results.len(), 3);
    /// assert_eq!(results[0].as_ref().unwrap().clusters().len(), 2);
    /// assert_eq!(results[1].as_ref().unwrap_err(), &EngineError::DeadlineExceeded);
    /// assert!(results[2].is_ok());
    /// ```
    pub fn try_expand_batch_into(
        &self,
        reqs: &[ExpandRequest<'_>],
        out: &mut Vec<Result<ExpandResponse, EngineError>>,
    ) {
        out.clear();
        for chunk in reqs.chunks(CHUNK_MAX) {
            self.serve_chunk(chunk, &mut |r| out.push(r));
        }
    }

    /// The one serving path: preflight → analyse → group by key → acquire one
    /// pipeline per group (single-flight; two or more cold builds run
    /// through the pool) → expand all live clusters as one flat task set →
    /// hand `sink` one `Result` per request, in request order.
    fn serve_chunk(
        &self,
        reqs: &[ExpandRequest<'_>],
        sink: &mut dyn FnMut(Result<ExpandResponse, EngineError>),
    ) {
        // Stamped before anything that can wait (pool locks, analysis, the
        // builds): the cache evicts by the order requests came in, not by
        // the order their threads were scheduled in. Request `i` holds
        // stamp `first_arrival + i`.
        let first_arrival = self.cache.arrivals(reqs.len());

        let mut batch = self.batches.acquire();
        let b = &mut batch;
        if b.sessions.len() < reqs.len() {
            b.sessions.resize_with(reqs.len(), SessionScratch::default);
        }

        // Preflight every request: resolve its deadline/timeout into a
        // merged cancellation token. A request whose deadline has already
        // expired is refused here — it forms no group, builds nothing and
        // occupies no task.
        let now = Instant::now();
        b.admit_err.clear();
        b.tokens.clear();
        for req in reqs {
            let deadline = req.effective_deadline(now);
            let refused = deadline
                .is_some_and(|d| d <= now)
                .then_some(EngineError::DeadlineExceeded);
            b.admit_err.push(refused);
            b.tokens.push(req.cancel.with_deadline(deadline));
        }

        // Analyse and canonicalise every admitted query. Retrieval,
        // ranking, clustering and arena construction are all
        // term-order-invariant (ranking is a per-term sum), so sorted
        // terms are both a safe pipeline input and the canonical cache
        // key: "apples store" and "store apple" share one entry.
        // Multiplicity is preserved — duplicate terms change tf·idf
        // scores, so they stay distinct keys.
        for (i, req) in reqs.iter().enumerate() {
            if b.admit_err[i].is_some() {
                continue;
            }
            let s = &mut b.sessions[i];
            self.corpus
                .query_terms_into(req.query, &mut s.terms, &mut s.keyword_buf);
            s.terms.sort_unstable();
        }

        // Group identical keys. With the cache off (capacity 0) every
        // request forms its own group — "rebuilds every request" is the
        // documented contract, and collapsing duplicates would diverge
        // from what the same stream reports through sequential serves.
        let caching = self.cache.capacity() > 0;
        b.group_of.clear();
        b.groups.clear();
        for (i, req) in reqs.iter().enumerate() {
            if b.admit_err[i].is_some() {
                b.group_of.push(usize::MAX);
                continue;
            }
            let key = key_of(req, &b.sessions[i].terms);
            let found = if caching {
                b.groups
                    .iter()
                    .position(|g| key == key_of(&reqs[g.rep], &b.sessions[g.rep].terms))
            } else {
                None
            };
            b.group_of.push(match found {
                Some(g) => {
                    b.groups[g].last = i;
                    g
                }
                None => {
                    b.groups.push(GroupSlot {
                        rep: i,
                        last: i,
                        ..GroupSlot::default()
                    });
                    b.groups.len() - 1
                }
            });
        }

        // One pipeline per distinct key. Duplicates of a cold key share
        // the representative's build — within this chunk by construction,
        // across concurrent chunks through the cache's single-flight
        // latch: the first prober holds the key's build ticket, the others
        // wait on its latch and hit the published entry, so a cold-start
        // stampede builds exactly once. Probes only wait on concurrent
        // builds here; the chunk's own cold builds are collected and run
        // below, outside the cache lock.
        let mut cold: Vec<ColdBuild<'_>> = Vec::new();
        for gi in 0..b.groups.len() {
            let (rep, last) = (b.groups[gi].rep, b.groups[gi].last);
            if !caching {
                cold.push(ColdBuild {
                    group: gi,
                    rep,
                    ticket: None,
                    built: None,
                });
                continue;
            }
            // A group's single-flight wait is bounded by its most patient
            // member: the earliest deadlines may lapse into degraded
            // responses, but the group doesn't time out while a member
            // could still be served whole.
            let mut wait = reqs[rep].effective_deadline(now);
            if wait.is_some() {
                for (i, member) in reqs.iter().enumerate() {
                    if b.group_of[i] != gi {
                        continue;
                    }
                    match member.effective_deadline(now) {
                        None => {
                            wait = None;
                            break;
                        }
                        Some(d) => wait = wait.map(|w| w.max(d)),
                    }
                }
            }
            let key = key_of(&reqs[rep], &b.sessions[rep].terms);
            let arrival = first_arrival + last as u64;
            match self.cache.get_or_build_arrived(key, wait, arrival) {
                (CacheProbe::Hit(p), stats) => {
                    let g = &mut b.groups[gi];
                    g.pipeline = Some(p);
                    g.hit = true;
                    g.stats = stats;
                }
                (CacheProbe::Miss(ticket), _) => cold.push(ColdBuild {
                    group: gi,
                    rep,
                    ticket: Some(ticket),
                    built: None,
                }),
                (CacheProbe::TimedOut, stats) => {
                    let g = &mut b.groups[gi];
                    g.error = Some(EngineError::DeadlineExceeded);
                    g.stats = stats;
                }
                (CacheProbe::Failed, stats) => {
                    let g = &mut b.groups[gi];
                    g.error = Some(EngineError::BuildFailed);
                    g.stats = stats;
                }
            }
        }

        // Cold builds run through the pool when there are two or more, so
        // one slow cold key overlaps its siblings instead of serializing
        // the whole chunk behind `build_pipeline`. A failed build fails
        // its ticket (memoized by the cache, so waiters resolve as
        // `BuildFailed` off the memo instead of stampeding) and errors
        // only its own group.
        if !cold.is_empty() {
            let sessions: &[SessionScratch] = &b.sessions;
            let do_build = |cb: &mut ColdBuild<'_>, search: &mut SearchScratch| {
                let req = &reqs[cb.rep];
                let key = key_of(req, &sessions[cb.rep].terms);
                let deadline = req.effective_deadline(Instant::now());
                match self.build_guarded(key, deadline, search) {
                    Ok(pipeline) => {
                        let built = Arc::new(pipeline);
                        let stats = match cb.ticket.take() {
                            // An explicitly partial pipeline (omitted
                            // shards) serves only the chunk that built it:
                            // dropping its ticket is a voluntary
                            // abandonment (no failure memo), so the next
                            // request rebuilds — and heals — the moment
                            // the shard recovers.
                            Some(ticket) if built.omitted_shards.is_empty() => {
                                ticket.publish(key, Arc::clone(&built))
                            }
                            Some(ticket) => {
                                drop(ticket);
                                self.cache.stats()
                            }
                            None => CacheStats::default(),
                        };
                        cb.built = Some(Ok((built, stats)));
                    }
                    Err(e) => {
                        // The scratch may hold half-written retrieval
                        // state after a panic — replace it.
                        *search = SearchScratch::default();
                        if let Some(ticket) = cb.ticket.take() {
                            ticket.fail();
                        }
                        cb.built = Some(Err(e));
                    }
                }
            };
            // Sharded cold builds must stay on the submitter: each one
            // scatters its shard attempts as a `run_indexed` batch, and a
            // pool task must not wait on its own pool (every worker
            // waiting, none left to run the attempts).
            if cold.len() >= 2 && self.shards.is_none() {
                let n = cold.len();
                let slots = DisjointSlots::new(&mut cold[..]);
                self.pool.run_indexed(n, &|i| {
                    // SAFETY: `run_indexed` hands each index to exactly
                    // one task, so slot `i` is never aliased.
                    let cb = unsafe { slots.get(i) };
                    let mut search = self.build_scratches.acquire();
                    do_build(cb, &mut search);
                    self.build_scratches.release(search);
                });
            } else {
                for cb in cold.iter_mut() {
                    do_build(cb, &mut b.search);
                }
            }
            for cb in cold.drain(..) {
                let g = &mut b.groups[cb.group];
                match cb.built.expect("cold build ran") {
                    Ok((p, stats)) => {
                        g.pipeline = Some(p);
                        g.stats = stats;
                    }
                    Err(e) => {
                        g.error = Some(e);
                        g.stats = if caching {
                            self.cache.stats()
                        } else {
                            CacheStats::default()
                        };
                    }
                }
            }
        }

        // Lay out the flat task set: task t expands cluster
        // `t - offsets[r]` of request `r = task_req[t]`. Refused requests
        // and errored groups contribute no tasks.
        b.offsets.clear();
        b.task_req.clear();
        let mut total = 0usize;
        for i in 0..reqs.len() {
            b.offsets.push(total);
            if b.admit_err[i].is_some() {
                continue;
            }
            let g = &b.groups[b.group_of[i]];
            if g.error.is_some() {
                continue;
            }
            let k = g
                .pipeline
                .as_ref()
                .expect("live group has a pipeline")
                .clusters
                .len();
            for _ in 0..k {
                b.task_req.push(i as u32);
            }
            total += k;
        }
        if b.outs.len() < total {
            b.outs.resize_with(total, ExpandedQuery::default);
        }
        b.task_state.clear();
        b.task_state.resize(total, TASK_CANCELLED);

        {
            // From here on every live request has its pipeline, so a
            // tripping deadline (or the request's own token) degrades
            // rather than errors. Each task polls its request's token and
            // records its outcome behind a panic boundary, so one tripped
            // deadline degrades one request and one panicking kernel fails
            // one request — siblings stay bit-identical to a clean run.
            let BatchScratch {
                groups,
                group_of,
                offsets,
                task_req,
                outs,
                tokens,
                task_state,
                iskr,
                ..
            } = b;
            let (groups, group_of): (&[GroupSlot], &[usize]) = (groups, group_of);
            let (offsets, task_req): (&[usize], &[u32]) = (offsets, task_req);
            let tokens: &[CancelToken] = tokens;
            let slots = DisjointSlots::new(&mut outs[..total]);
            let states = DisjointSlots::new(&mut task_state[..total]);
            let expand = |t: usize, scratch: &mut IskrScratch| {
                let r = task_req[t] as usize;
                // SAFETY: each index runs exactly once (`run_indexed`'s
                // contract; one pass of the inline loop below), so slots
                // `t` are never aliased.
                let (slot, state) = unsafe { (slots.get(t), states.get(t)) };
                let token = &tokens[r];
                if token.is_cancelled() {
                    *state = TASK_CANCELLED;
                    return;
                }
                let p = pipeline_of(groups, group_of, r);
                let cc = &p.clusters[t - offsets[r]];
                let inst = QecInstance::from_shared_parts(&p.arena, &cc.cluster, &cc.universe);
                let expander = self.expander_for(reqs[r].strategy);
                let finished = catch_unwind(AssertUnwindSafe(|| {
                    #[cfg(feature = "failpoints")]
                    if qec_failpoint::check("engine.expand_task").is_err() {
                        panic!("injected expand-task fault");
                    }
                    expander.expand_cancellable(&inst, scratch, slot, token)
                }));
                *state = match finished {
                    Ok(true) => TASK_OK,
                    // Cancelled clusters are dropped whole, never
                    // half-refined.
                    Ok(false) => TASK_CANCELLED,
                    Err(_) => {
                        // The scratch is suspect mid-unwind: replace it;
                        // the slot is ignored at fill time.
                        *scratch = IskrScratch::default();
                        TASK_PANICKED
                    }
                };
            };
            // The one inline-or-pooled decision, on the task count alone.
            if total >= POOLED_MIN_TASKS {
                self.pool.run_indexed(total, &|t| {
                    let mut scratch = self.scratches.acquire();
                    expand(t, &mut scratch);
                    self.scratches.release(scratch);
                });
            } else {
                for t in 0..total {
                    expand(t, iskr);
                }
            }
        }

        // Fill per-request results in request order (cheap copies; done on
        // the submitting thread so slot buffers stay session-free). A
        // degraded request keeps the leading run of finished clusters —
        // always a prefix of the undegraded response.
        for (i, req) in reqs.iter().enumerate() {
            if let Some(e) = b.admit_err[i] {
                sink(Err(e));
                continue;
            }
            let g = &b.groups[b.group_of[i]];
            if let Some(e) = g.error {
                sink(Err(e));
                continue;
            }
            let p = g.pipeline.as_ref().expect("live group has a pipeline");
            let k = p.clusters.len();
            let base = b.offsets[i];
            let states = &b.task_state[base..base + k];
            if states.contains(&TASK_PANICKED) {
                sink(Err(EngineError::ExpansionFailed));
                continue;
            }
            let completed = states.iter().take_while(|&&st| st == TASK_OK).count();
            let mut resp = self.responses.acquire();
            resp.begin(k);
            for c in 0..completed {
                fill_slot(resp.slot(c), &p.clusters[c], p, &b.outs[base + c], req);
            }
            resp.retain_live(completed);
            resp.set_omitted(&p.omitted_shards);
            resp.stats = ExpandStats {
                results: p.arena.size(),
                candidates: p.arena.num_candidates(),
                clusters: completed,
                // Duplicates of a cold representative are served from the
                // freshly shared build — a hit, exactly as the same
                // request sequence would report served one by one.
                arena_cache_hit: g.hit || i != g.rep,
                strategy: self.expander_for(req.strategy).name(),
                degraded: completed < k,
                shards_omitted: p.omitted_shards.len(),
                cache: g.stats,
            };
            sink(Ok(resp));
        }

        // Drop the pipeline Arcs before pooling the scratch: cached
        // entries must be evictable, not pinned by idle chunk state.
        for g in batch.groups.iter_mut() {
            g.pipeline = None;
        }
        self.batches.release(batch);
    }

    /// The strategy instance serving `strategy`.
    fn expander_for(&self, strategy: ExpandStrategy) -> &dyn Expander {
        match strategy {
            ExpandStrategy::Iskr => &self.iskr,
            ExpandStrategy::ExactDeltaF => &self.exact,
            ExpandStrategy::Pebc => &self.pebc,
        }
    }

    /// Runs [`build_pipeline`](Self::build_pipeline) behind a panic
    /// boundary (and the `engine.build_pipeline` failpoint): a panicking
    /// build becomes [`EngineError::BuildFailed`] instead of tearing down
    /// the caller, so one poisoned key cannot take the serving loop with
    /// it.
    fn build_guarded(
        &self,
        key: KeyRef<'_>,
        deadline: Option<Instant>,
        search: &mut SearchScratch,
    ) -> Result<CachedPipeline, EngineError> {
        let result = catch_unwind(AssertUnwindSafe(|| {
            #[cfg(feature = "failpoints")]
            if qec_failpoint::check("engine.build_pipeline").is_err() {
                return Err(EngineError::BuildFailed);
            }
            self.build_pipeline(key, deadline, search)
        }));
        match result {
            Ok(built) => built,
            Err(_) => Err(EngineError::BuildFailed),
        }
    }

    /// The cold path: retrieve, rank, cluster, and build the expansion
    /// arena for `key` — a function of the cache key alone, so whatever
    /// is published under a key is what any request with that key would
    /// have built. Everything returned is immutable; the caller wraps it
    /// in an `Arc` and (when caching) publishes it to the shared cache.
    /// All miss-path allocations happen here and in the cache insert.
    ///
    /// Retrieval + ranking is one kernel ([`retrieve_ranked`]) scored with
    /// this corpus's idfs: run here over the range `0..N` of the corpus,
    /// or — when this engine gathers a [`ShardSet`] — scattered over the
    /// shards' ranges of it and merged ([`ShardSet::retrieve`], its retry
    /// scheduling bounded by the building request's `deadline`). Either
    /// way the hits carry the corpus's own [`DocId`]s, and the downstream
    /// pipeline — term gather, clustering, arena — runs on the same
    /// corpus. A scatter that had to
    /// give up on some shards builds an explicitly partial pipeline (its
    /// `omitted_shards` name them); one that lost **every** shard returns
    /// [`EngineError::BuildFailed`] — nothing was retrieved, and an empty
    /// "partial" would be indistinguishable from a no-match query.
    fn build_pipeline(
        &self,
        key: KeyRef<'_>,
        deadline: Option<Instant>,
        search: &mut SearchScratch,
    ) -> Result<CachedPipeline, EngineError> {
        let corpus = &*self.corpus;
        let terms = key.terms;
        let idfs: Vec<f64> = terms.iter().map(|&t| corpus.index().idf(t)).collect();
        let (hits, omitted_shards): (Vec<Hit>, Vec<u32>) = match &self.shards {
            Some(shard_set) => {
                let (hits, omitted) =
                    shard_set.retrieve(&self.corpus, &self.pool, key, &idfs, deadline);
                if omitted.len() == shard_set.num_shards() {
                    return Err(EngineError::BuildFailed);
                }
                (hits, omitted)
            }
            None => {
                let mut hits = Vec::new();
                retrieve_ranked(
                    Searcher::new(corpus),
                    terms,
                    &idfs,
                    key.semantics,
                    key.top_k,
                    search,
                    &mut hits,
                );
                (hits, Vec::new())
            }
        };
        let result_docs: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
        let weights: Vec<f64> = hits.iter().map(|h| h.score).collect();

        // The results' term occurrences, gathered once for both readers:
        // the clusterer takes them by result, the arena by term.
        let matrix = TermMatrix::gather(corpus, &result_docs);
        let assignment = self.clusterer.cluster_matrix(&matrix, key.k_clusters);

        let arena = ExpansionArena::from_matrix(
            corpus,
            &matrix,
            &result_docs,
            Some(&weights),
            terms,
            &self.config.arena,
        );
        let n = arena.size();
        let full = ResultSet::full(n);
        let clusters: Vec<CachedCluster> = (0..assignment.num_clusters())
            .map(|c| {
                let members = assignment.members(c);
                CachedCluster::new(
                    ResultSet::from_indices(n, members.iter().map(|&m| m as usize)),
                    &full,
                )
            })
            .collect();

        Ok(CachedPipeline {
            arena,
            docs: result_docs,
            clusters,
            omitted_shards,
        })
    }
}

/// Resolves request `req`'s shared pipeline out of a batch's group table.
fn pipeline_of<'g>(groups: &'g [GroupSlot], group_of: &[usize], req: usize) -> &'g CachedPipeline {
    groups[group_of[req]]
        .pipeline
        .as_deref()
        .expect("group pipeline acquired")
}

/// Copies one cluster's (possibly paginated) member page and expansion
/// output into a response slot, reusing the slot's buffers. Member docs
/// are sliced out of the pipeline-wide doc list through the cluster
/// bitset; a non-zero `member_offset` jumps straight to the page's first
/// member through the cluster's `RankIndex` sidecar (`select(offset)`)
/// instead of scanning the prefix.
fn fill_slot(
    slot: &mut ClusterExpansion,
    cc: &CachedCluster,
    pipeline: &CachedPipeline,
    out: &ExpandedQuery,
    req: &ExpandRequest<'_>,
) {
    let limit = match req.member_limit {
        0 => usize::MAX,
        l => l,
    };
    slot.docs.clear();
    if req.member_offset == 0 {
        slot.docs
            .extend(cc.cluster.iter().take(limit).map(|j| pipeline.docs[j]));
    } else if let Some(first) = cc.rank.select(&cc.cluster, req.member_offset) {
        // A page beyond the member count stays empty.
        slot.docs.extend(
            cc.cluster
                .iter_from(first)
                .take(limit)
                .map(|j| pipeline.docs[j]),
        );
    }
    slot.added.clear();
    slot.added
        .extend(out.added.iter().map(|&k| pipeline.arena.candidate(k).term));
    slot.quality = out.quality;
}

/// Builds a [`QecEngine`] from documents or a prebuilt [`Corpus`].
///
/// The `#[must_use]` on the type makes every chained setter warn when its
/// return value is dropped — an unfinished builder (`.cache_capacity(8);`
/// without rebinding) silently configures nothing.
#[must_use = "builder setters return the updated builder; finish with build() or build_shared()"]
pub struct EngineBuilder {
    pub(crate) source: Source,
    pub(crate) config: EngineConfig,
    pub(crate) clusterer: Option<Box<dyn Clusterer>>,
    /// Shards for this engine to gather (set only on a
    /// [`ShardedEngine`](crate::ShardedEngine)'s gather engine).
    pub(crate) shards: Option<ShardSet>,
    /// Snapshot to restore the corpus from at [`build`](Self::build);
    /// any load failure falls back to `source`.
    pub(crate) snapshot: Option<PathBuf>,
    /// Pre-computed boot accounting (sharded construction only): when
    /// set, [`build`](Self::build) adopts it verbatim instead of counting
    /// its own corpus — the sharded builder already counted the gather
    /// corpus and every shard.
    pub(crate) boot_seed: Option<BootStats>,
}

/// Where a builder's corpus comes from.
pub(crate) enum Source {
    Building(CorpusBuilder),
    Prebuilt(Corpus),
}

impl Source {
    /// The frozen corpus (built now if still building).
    pub(crate) fn into_corpus(self) -> Corpus {
        match self {
            Source::Building(b) => b.build(),
            Source::Prebuilt(c) => c,
        }
    }
}

impl Default for EngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl EngineBuilder {
    /// Builder over an empty corpus; add documents with
    /// [`document`](Self::document).
    pub fn new() -> Self {
        Self::over(Source::Building(CorpusBuilder::new()))
    }

    /// Builder over an already-built corpus (e.g. a loaded snapshot or a
    /// synthetic benchmark corpus).
    pub fn from_corpus(corpus: Corpus) -> Self {
        Self::over(Source::Prebuilt(corpus))
    }

    fn over(source: Source) -> Self {
        Self {
            source,
            config: EngineConfig::default(),
            clusterer: None,
            shards: None,
            snapshot: None,
            boot_seed: None,
        }
    }

    /// Adds one document. It is analysed here, through buffers the
    /// builder reuses, so term ids are assigned in first-occurrence order
    /// and the builder keeps no document body.
    ///
    /// # Panics
    /// When the builder was created with [`from_corpus`](Self::from_corpus)
    /// — a frozen corpus cannot take documents.
    pub fn document(mut self, spec: DocumentSpec) -> Self {
        match &mut self.source {
            Source::Building(b) => {
                b.add_document(spec);
            }
            Source::Prebuilt(_) => {
                panic!("EngineBuilder::document: corpus is prebuilt and frozen")
            }
        }
        self
    }

    /// Adds many documents (see [`document`](Self::document)), analysing
    /// each as the iterator yields it.
    pub fn documents(mut self, specs: impl IntoIterator<Item = DocumentSpec>) -> Self {
        for spec in specs {
            self = self.document(spec);
        }
        self
    }

    /// Replaces the whole pipeline configuration.
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets the shared arena cache's capacity (entries before LRU
    /// eviction; `0` turns the cache off — every request rebuilds its
    /// pipeline).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.config.cache.capacity = capacity;
        self
    }

    /// Sets the shared arena cache's byte budget: entries are weighed by
    /// their pipeline heap footprint and evicted from the LRU tail when
    /// the total exceeds `max_bytes` — whichever of the byte and entry
    /// bounds trips first wins. `0` (the default) disables the byte bound.
    pub fn cache_max_bytes(mut self, max_bytes: usize) -> Self {
        self.config.cache.max_bytes = max_bytes;
        self
    }

    /// Sets how long a failed pipeline build is memoized: within the
    /// window, requests for the poisoned key fail fast with
    /// [`EngineError::BuildFailed`] instead of stampeding rebuilds.
    /// `Duration::ZERO` disables memoization.
    pub fn cache_failure_ttl(mut self, ttl: std::time::Duration) -> Self {
        self.config.cache.failure_ttl = ttl;
        self
    }

    /// Replaces the clusterer (default: cosine k-means configured by
    /// [`EngineConfig::kmeans`]).
    pub fn clusterer(mut self, clusterer: Box<dyn Clusterer>) -> Self {
        self.clusterer = Some(clusterer);
        self
    }

    /// Sets the persistent worker pool's thread count (`0`, the default,
    /// resolves the machine's parallelism once at build).
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.config.pool.threads = threads;
        self
    }

    /// Registers a snapshot to restore the corpus from at
    /// [`build`](Self::build). On a successful load the snapshot **wins**
    /// — any documents added to this builder (or a
    /// [`from_corpus`](Self::from_corpus) corpus) are ignored. On **any**
    /// load failure — missing file, corruption, truncation, version skew,
    /// an injected IO fault — the build falls back to the in-memory
    /// source and the engine comes up anyway; the outcome either way is
    /// recorded in [`QecEngine::boot_stats`].
    pub fn load_snapshot(mut self, path: impl Into<PathBuf>) -> Self {
        self.snapshot = Some(path.into());
        self
    }

    /// Freezes the corpus now (if still building) and writes it to `path`
    /// as a crash-safe snapshot, returning the builder — now over the
    /// frozen corpus — for chaining into [`build`](Self::build). The
    /// write is atomic: on error the previous snapshot at `path` is
    /// untouched and the builder (with its frozen corpus) is lost with
    /// the error, so nothing half-written can be loaded later.
    pub fn save_snapshot(mut self, path: impl AsRef<Path>) -> Result<Self, SnapshotError> {
        let corpus = self.source.into_corpus();
        qec_snapshot::save_corpus(&corpus, path.as_ref())?;
        self.source = Source::Prebuilt(corpus);
        Ok(self)
    }

    /// Freezes the corpus (if building) and assembles the engine,
    /// spawning its worker pool.
    pub fn build(self) -> QecEngine {
        // Resolve the corpus: a registered snapshot is tried first; any
        // failure falls back to the in-memory source. A seeded BootStats
        // (sharded construction) is adopted verbatim — the sharded
        // builder already counted every corpus of the deployment.
        let seeded = self.boot_seed.is_some();
        let mut boot = self.boot_seed.unwrap_or_default();
        let source = self.source;
        let corpus = match &self.snapshot {
            Some(path) => match qec_snapshot::load_corpus(path) {
                Ok(c) => {
                    boot.loaded();
                    c
                }
                Err(e) => {
                    boot.fallback(path, e);
                    source.into_corpus()
                }
            },
            None => {
                if !seeded {
                    boot.cold();
                }
                source.into_corpus()
            }
        };
        let config = self.config;
        let clusterer = self
            .clusterer
            .unwrap_or_else(|| Box::new(KMeansClusterer(config.kmeans.clone())));
        let pool = WorkerPool::new(match config.pool.threads {
            0 => default_parallelism(),
            t => t,
        });
        QecEngine {
            iskr: Iskr(config.iskr.clone()),
            exact: ExactDeltaF(config.exact.clone()),
            pebc: Pebc(config.pebc.clone()),
            cache: SharedArenaCache::with_budget(config.cache.capacity, config.cache.max_bytes)
                .with_failure_ttl(config.cache.failure_ttl),
            pool,
            shards: self.shards,
            scratches: ScratchPool::new(),
            build_scratches: ScratchPool::new(),
            boot,
            corpus: Arc::new(corpus),
            config,
            clusterer,
            responses: ScratchPool::new(),
            batches: ScratchPool::new(),
        }
    }

    /// [`build`](Self::build), shared: returns the engine behind an
    /// [`Arc`] so long-lived serving layers — the `qec-ingress` front
    /// door, per-connection handler threads — can hold the same engine
    /// without a scoped borrow.
    pub fn build_shared(self) -> Arc<QecEngine> {
        Arc::new(self.build())
    }
}
