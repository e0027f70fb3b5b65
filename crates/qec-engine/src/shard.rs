//! Doc-partitioned scatter/gather serving.
//!
//! A [`ShardedEngine`] splits one corpus into `N` contiguous-
//! [`DocId`] shards and serves the same request/response API as a single
//! [`QecEngine`], bit-identically. Internally it is one **gather engine**
//! over the full corpus whose cold retrieval path scatters one
//! retrieve+rank task per shard across the engine's
//! [`WorkerPool`] — the same kernel the flat engine runs over its whole
//! corpus — then k-way merges the per-shard top-K lists into the global
//! ranking:
//!
//! ```text
//!                 ┌────────────────────────────┐
//!   request ────▶ │ gather engine (full corpus)│
//!                 │  deadline · cache · batch  │
//!                 └─────┬──────────────────────┘
//!            cold miss  │ scatter (the engine's WorkerPool)
//!          ┌────────────┼────────────┐
//!          ▼            ▼            ▼
//!     ┌─────────┐  ┌─────────┐  ┌─────────┐
//!     │ shard 0 │  │ shard 1 │  │ shard 2 │   retrieve + rank top-K
//!     │docs 0..a│  │docs a..b│  │docs b..n│   with **global** idf
//!     └────┬────┘  └────┬────┘  └────┬────┘
//!          └────────────┼────────────┘
//!                       ▼ k-way merge (score desc, DocId asc)
//!            cluster → arena → expand  (gather engine, global DocIds)
//! ```
//!
//! Everything above the retrieval stage — deadline refusal, the shared
//! arena cache, single-flight builds, batching, deadlines, cancellation,
//! degraded responses — is the gather engine's existing machinery,
//! unchanged. Parity with the single-engine path is exact (not
//! approximate) because every shard scores with the gather corpus's
//! global document frequencies and the ranking comparator is a total
//! order; `tests/sharding_parity.rs` asserts bit-identity across shard
//! counts, strategies, and pagination.
//!
//! Replication and failover
//! ------------------------
//! A shard is one `Arc`-shared corpus slice plus warmed retrieval
//! scratches; [`replicas(n)`](ShardedEngineBuilder::replicas) points `n`
//! interchangeable replica slots (latency EWMA, counters) at that one
//! slice, so replication copies no corpus and builds no engine. Scatter
//! rotates across the replicas, and failures meet two escalating
//! defenses — **retry** on the next replica with deadline-aware capped
//! exponential backoff, and a **hedged** duplicate dispatched on an
//! untried replica when a task outlives its replica's expected latency
//! (first completion wins, bit-identical either way). Every replica runs
//! the same code over the same slice, so none is singled out as sick:
//! each first attempt and retry simply takes the rotation's next one. A
//! shard whose retries are spent is **omitted explicitly**: the response
//! stays `Ok` with [`ExpandStats::shards_omitted`](crate::ExpandStats::shards_omitted)
//! set and the merged ranking over the surviving shards intact — never a
//! silently wrong ranking. `tests/replication_chaos.rs` drives fail-over,
//! explicit omission and hedging through injected faults.

use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

use qec_core::{Backoff, CancelSignal, CancelToken, MergeScratch, ScratchPool, WorkerPool};
use qec_index::{
    Corpus, DocId, DocumentSpec, Hit, QuerySemantics, SearchScratch, Searcher, TfIdfRanker,
};
use qec_snapshot::{SnapshotError, SnapshotSummary};
use qec_text::TermId;

use crate::api::ExpandResponse;
use crate::boot::{expected_shard_len, shard_snapshot_name, BootStats, FULL_SNAPSHOT};
use crate::cache::CacheStats;
use crate::engine::{EngineBuilder, QecEngine, Source};

/// A doc-partitioned [`QecEngine`]: same API, same responses, with cold
/// retrieval scattered across shards. Build with
/// [`ShardedEngineBuilder`]; the `shard` module docs (`src/shard.rs`)
/// draw the architecture.
///
/// It derefs to its gather engine, so serving
/// ([`try_expand`](QecEngine::try_expand),
/// [`try_expand_batch_into`](QecEngine::try_expand_batch_into)), the full
/// [`corpus`](QecEngine::corpus), [`cache_stats`](QecEngine::cache_stats)
/// and [`boot_stats`](QecEngine::boot_stats) (the gather corpus and every
/// shard sub-corpus each count once) are the gather engine's own — sharding
/// changes none of them. Deadlines, cancellation and
/// degraded responses behave exactly as on a single engine; a fault inside
/// one shard's scatter task fails only the requests sharing that pipeline
/// build. Only what a shard set adds is defined here.
pub struct ShardedEngine {
    /// The gather engine; holds the [`ShardSet`] when `num_shards > 1`
    /// or replication is on (one unreplicated shard is the plain
    /// single-engine path — no shard set is attached).
    inner: QecEngine,
}

impl std::ops::Deref for ShardedEngine {
    type Target = QecEngine;

    fn deref(&self) -> &QecEngine {
        &self.inner
    }
}

impl ShardedEngine {
    /// Number of shards serving the scatter stage (`1` when sharding is
    /// effectively disabled and requests take the single-engine path).
    pub fn num_shards(&self) -> usize {
        self.inner.shard_set().map_or(1, ShardSet::num_shards)
    }

    /// Writes the deployment's snapshot set into `dir` (created if
    /// missing): `full.qsnap` for the gather corpus plus one
    /// `shard-{i}-of-{n}.qsnap` per shard, each written crash-safely (see
    /// [`qec_snapshot::save_corpus`]). Returns the summaries in that
    /// order. A later
    /// [`ShardedEngineBuilder::load_snapshots`] boot from this directory
    /// serves bit-identical responses; every shard file carries the full
    /// snapshot's dictionary fingerprint, which the loader verifies
    /// before trusting it.
    pub fn save_snapshot(
        &self,
        dir: impl AsRef<Path>,
    ) -> Result<Vec<SnapshotSummary>, SnapshotError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        let mut summaries = vec![self.inner.save_snapshot(dir.join(FULL_SNAPSHOT))?];
        if let Some(set) = self.inner.shard_set() {
            let n = set.num_shards();
            for i in 0..n {
                summaries.push(qec_snapshot::save_corpus(
                    set.corpus(i),
                    &dir.join(shard_snapshot_name(i, n)),
                )?);
            }
        }
        Ok(summaries)
    }

    /// Rolled-up serving statistics: the gather cache snapshot plus one
    /// [`ShardStats`] per shard (each carrying one [`ReplicaStats`] per
    /// replica).
    pub fn stats(&self) -> ShardedStats {
        let shards = match self.inner.shard_set() {
            Some(set) => set.stats(),
            None => vec![ShardStats {
                docs: self.inner.corpus().num_docs(),
                scattered_retrievals: 0,
                hedges: 0,
                omissions: 0,
                replicas: Vec::new(),
            }],
        };
        ShardedStats {
            gather_cache: self.inner.cache_stats(),
            shards,
        }
    }

    /// Consumes the wrapper and returns the gather [`QecEngine`] — the
    /// exact engine serving dispatches to, shard set attached. Useful for
    /// mounting a sharded engine behind layers that take a `QecEngine`
    /// (e.g. an ingress front door).
    pub fn into_engine(self) -> QecEngine {
        self.inner
    }

    /// See [`QecEngine::recycle`] (spelled out here so the path
    /// `ShardedEngine::recycle` names it, which deref does not cover).
    pub fn recycle(&self, resp: ExpandResponse) {
        self.inner.recycle(resp);
    }
}

/// One shard's share of [`ShardedStats`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Documents resident on this shard.
    pub docs: usize,
    /// Scattered retrievals this shard has **resolved** (one per cold
    /// pipeline build of the gather engine, counted on the first replica
    /// success — retries and hedges never double-count).
    pub scattered_retrievals: u64,
    /// Hedged duplicates this shard has dispatched (a second replica
    /// racing a slow first attempt).
    pub hedges: u64,
    /// Scatters that omitted this shard because its retries were spent —
    /// each one produced an explicitly partial response.
    pub omissions: u64,
    /// Per-replica health, in rotation order.
    pub replicas: Vec<ReplicaStats>,
}

/// One replica's health within a [`ShardStats`] entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplicaStats {
    /// Successful retrieval attempts served by this replica (including
    /// late hedge losers that completed after the shard resolved).
    pub retrievals: u64,
    /// Failed attempts (panics and injected errors; cancelled hedges are
    /// neither success nor failure).
    pub failures: u64,
    /// EWMA of this replica's attempt latency (`ZERO` before the first
    /// sample); the adaptive hedge delay derives from it.
    pub mean_latency: Duration,
}

/// Rolled-up statistics of a [`ShardedEngine`]: the gather engine's cache
/// counters plus per-shard placement and retrieval counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// The gather engine's shared-cache snapshot ([`CacheStats`]).
    pub gather_cache: CacheStats,
    /// One entry per shard, in [`DocId`] order (shard 0
    /// holds the lowest global doc ids).
    pub shards: Vec<ShardStats>,
}

/// Why [`ShardedEngineBuilder::try_build`] refused the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardedBuildError {
    /// `num_shards(0)` — zero partitions cannot hold a corpus. (Use `1`
    /// for the explicit single-engine path.)
    ZeroShards,
    /// More shards than documents: at least one shard would be empty and
    /// contribute nothing but scatter overhead, which is never what the
    /// caller meant. Shrink the shard count or grow the corpus.
    TooManyShards {
        /// The requested shard count.
        shards: usize,
        /// Documents actually in the corpus.
        docs: usize,
    },
}

impl fmt::Display for ShardedBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::ZeroShards => {
                write!(f, "num_shards(0): zero partitions cannot hold a corpus")
            }
            Self::TooManyShards { shards, docs } => write!(
                f,
                "num_shards({shards}) exceeds the corpus ({docs} docs): at least one shard would be empty"
            ),
        }
    }
}

impl std::error::Error for ShardedBuildError {}

/// Builds a [`ShardedEngine`]: an [`EngineBuilder`] for the gather engine
/// plus the shard topology (shard and replica counts) and the snapshot
/// directory; the other setters below are the gather builder's own,
/// forwarded.
///
/// | knob | default | effect |
/// |------|---------|--------|
/// | [`num_shards`](Self::num_shards) | `1` | contiguous doc-id partitions; `1` serves the plain single-engine path |
/// | [`replicas`](Self::replicas) | `1` | interchangeable replica slots per shard, all over the shard's one corpus slice; `>1` enables failover |
/// | [`cache_capacity`](Self::cache_capacity) | `128` | the **gather** cache — pipelines are cached once, after the merge (`0` = off) |
/// | [`pool_threads`](Self::pool_threads) | `0` (auto) | size of the gather engine's [`WorkerPool`], which all scatter tasks run on |
///
/// A failed shard attempt is retried twice on the next replica (capped
/// exponential backoff from 500 µs) before the shard is omitted, and an
/// attempt that outlives ~3× its replica's mean latency (EWMA, clamped to
/// 200 µs–100 ms; 2 ms before the first sample) is hedged on an untried
/// one. Clustering and expansion run on the gather side (shards only
/// retrieve and rank).
#[must_use = "builder setters return the updated builder; finish with build()"]
pub struct ShardedEngineBuilder {
    gather: EngineBuilder,
    num_shards: usize,
    replicas: usize,
    /// Snapshot directory to restore from at build; see
    /// [`load_snapshots`](Self::load_snapshots).
    snapshot_dir: Option<PathBuf>,
}

impl Default for ShardedEngineBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ShardedEngineBuilder {
    /// Builder over an empty corpus; add documents with
    /// [`documents`](Self::documents).
    pub fn new() -> Self {
        Self::over(EngineBuilder::new())
    }

    /// Builder over an already-built corpus.
    pub fn from_corpus(corpus: Corpus) -> Self {
        Self::over(EngineBuilder::from_corpus(corpus))
    }

    fn over(gather: EngineBuilder) -> Self {
        Self {
            gather,
            num_shards: 1,
            replicas: 1,
            snapshot_dir: None,
        }
    }

    /// Registers a snapshot directory (as written by
    /// [`ShardedEngine::save_snapshot`]) to restore from at build:
    /// `full.qsnap` boots the gather corpus and each
    /// `shard-{i}-of-{n}.qsnap` boots that shard's sub-corpus directly,
    /// skipping both the full rebuild and the split.
    ///
    /// Restoration is strictly best-effort, shard by shard. A shard file
    /// that is missing, corrupt, from another snapshot generation (its
    /// dictionary fingerprint disagrees with `full.qsnap`'s), or the
    /// wrong size for this shard count falls back to re-splitting the
    /// gather corpus — only that shard pays the rebuild. If `full.qsnap`
    /// itself fails to load, the gather corpus falls back to the
    /// in-memory source and **no** shard file is trusted (there is no
    /// fingerprint left to check them against). Every outcome is counted
    /// in [`boot_stats`](QecEngine::boot_stats).
    pub fn load_snapshots(mut self, dir: impl Into<PathBuf>) -> Self {
        self.snapshot_dir = Some(dir.into());
        self
    }

    /// Sets the shard count. Documents are partitioned contiguously and
    /// near-evenly (first `total % n` shards hold one extra document);
    /// `1` means "no sharding" and serves the plain single-engine path.
    /// `0` or a count exceeding the corpus is a build-time
    /// [`ShardedBuildError`] — the builder validates, it never silently
    /// clamps.
    pub fn num_shards(mut self, n: usize) -> Self {
        self.num_shards = n;
        self
    }

    /// Sets the replica count per shard (`0` is treated as `1`): `n`
    /// interchangeable replica slots over the shard's one corpus slice,
    /// so adding replicas copies no corpus. `1` means no replication — a
    /// shard whose only replica spends its retries is omitted from the
    /// response. See "Replication and failover" in the `shard` module docs
    /// (`src/shard.rs`).
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n.max(1);
        self
    }

    /// Adds documents (see [`EngineBuilder::documents`]). They are
    /// analysed as they arrive, with term ids in first-occurrence order;
    /// [`build`](Self::build) cuts the shards from that one corpus.
    pub fn documents(mut self, specs: impl IntoIterator<Item = DocumentSpec>) -> Self {
        self.gather = self.gather.documents(specs);
        self
    }

    /// Sets the gather cache's capacity (see
    /// [`EngineBuilder::cache_capacity`]).
    pub fn cache_capacity(mut self, capacity: usize) -> Self {
        self.gather = self.gather.cache_capacity(capacity);
        self
    }

    /// Sets the pool's thread count (see
    /// [`EngineBuilder::pool_threads`]).
    pub fn pool_threads(mut self, threads: usize) -> Self {
        self.gather = self.gather.pool_threads(threads);
        self
    }

    /// [`try_build`](Self::try_build), panicking on an invalid topology.
    ///
    /// # Panics
    /// On a [`ShardedBuildError`] (zero shards, or more shards than
    /// documents).
    pub fn build(self) -> ShardedEngine {
        self.try_build()
            .unwrap_or_else(|e| panic!("ShardedEngineBuilder::build: {e}"))
    }

    /// Freezes the corpus, validates the topology, cuts one corpus slice
    /// per shard (each behind [`replicas`](Self::replicas) replica slots),
    /// and moves the full corpus into the gather engine — no corpus is
    /// deep-cloned along the way.
    ///
    /// # Errors
    /// [`ShardedBuildError::ZeroShards`] for `num_shards(0)`;
    /// [`ShardedBuildError::TooManyShards`] when the corpus holds fewer
    /// documents than shards were requested (an empty corpus still admits
    /// the `num_shards(1)` single-engine path).
    pub fn try_build(self) -> Result<ShardedEngine, ShardedBuildError> {
        let mut boot = BootStats::default();
        // Gather corpus: the registered full snapshot first, the
        // in-memory source on any load failure.
        let mut full_summary = None;
        let source = self.gather.source;
        let corpus = match &self.snapshot_dir {
            Some(dir) => {
                let path = dir.join(FULL_SNAPSHOT);
                match qec_snapshot::load_corpus_with_summary(&path) {
                    Ok((c, summary)) => {
                        boot.loaded();
                        full_summary = Some(summary);
                        c
                    }
                    Err(e) => {
                        boot.fallback(&path, e);
                        source.into_corpus()
                    }
                }
            }
            None => {
                boot.cold();
                source.into_corpus()
            }
        };
        let num_shards = self.num_shards;
        if num_shards == 0 {
            return Err(ShardedBuildError::ZeroShards);
        }
        if num_shards > corpus.num_docs().max(1) {
            return Err(ShardedBuildError::TooManyShards {
                shards: num_shards,
                docs: corpus.num_docs(),
            });
        }
        // The slices are cut from `&corpus` first; the corpus itself then
        // moves into the gather engine.
        let replicas = self.replicas;
        let shards = (num_shards > 1 || replicas > 1).then(|| {
            // Shard sub-corpora: per-shard snapshot files when a loaded
            // full snapshot vouches for their generation, the gather
            // corpus's split otherwise (and for every shard whose file
            // was refused).
            let slices = match (&self.snapshot_dir, &full_summary) {
                (Some(dir), Some(full)) => {
                    load_shard_corpora(dir, full, &corpus, num_shards, &mut boot)
                }
                _ => {
                    boot.rebuilt_cold += num_shards;
                    corpus.split(num_shards)
                }
            };
            ShardSet::new(slices, replicas)
        });
        let gather = EngineBuilder {
            source: Source::Prebuilt(corpus),
            shards,
            boot_seed: Some(boot),
            ..self.gather
        };
        Ok(ShardedEngine {
            inner: gather.build(),
        })
    }
}

/// Restores the `n` shard sub-corpora from their snapshot files, falling
/// back to re-splitting `corpus` for every shard whose file is missing,
/// corrupt, from another generation, or the wrong size. A shard file is
/// only trusted when its dictionary fingerprint (`dict_crc` + vocab size)
/// matches the loaded full snapshot's — equal fingerprints mean the two
/// interned the same terms in the same order, so shard-local postings
/// speak the gather corpus's `TermId`s — and its document count matches
/// what the contiguous split places on that shard (anything else would
/// shift every later shard's global doc-id base).
fn load_shard_corpora(
    dir: &Path,
    full: &SnapshotSummary,
    corpus: &Corpus,
    n: usize,
    boot: &mut BootStats,
) -> Vec<Corpus> {
    let total = corpus.num_docs();
    let mut subs: Vec<Option<Corpus>> = Vec::with_capacity(n);
    for i in 0..n {
        let path = dir.join(shard_snapshot_name(i, n));
        match qec_snapshot::load_corpus_with_summary(&path) {
            Ok((c, s)) => {
                let expected = expected_shard_len(total, n, i);
                if s.dict_crc != full.dict_crc || s.vocab != full.vocab {
                    boot.fallback(
                        &path,
                        "dictionary fingerprint disagrees with full.qsnap \
                         (mixed snapshot generations)",
                    );
                    subs.push(None);
                } else if c.num_docs() != expected {
                    boot.fallback(
                        &path,
                        format!(
                            "holds {} docs where the {n}-way split of {total} places {expected}",
                            c.num_docs()
                        ),
                    );
                    subs.push(None);
                } else {
                    boot.loaded();
                    subs.push(Some(c));
                }
            }
            Err(e) => {
                boot.fallback(&path, e);
                subs.push(None);
            }
        }
    }
    if subs.iter().all(Option::is_some) {
        subs.into_iter().flatten().collect()
    } else {
        // At least one shard fell back: split once and patch the holes;
        // shards whose files loaded keep their restored corpora.
        let split = corpus.split(n);
        subs.into_iter()
            .zip(split)
            .map(|(restored, fresh)| restored.unwrap_or(fresh))
            .collect()
    }
}

/// The scatter half of a sharded deployment: N doc-partitioned shard
/// groups (each one corpus slice behind a set of interchangeable replica
/// slots) plus the counters the gather side needs.
/// Held by the gather [`QecEngine`]; assembled by [`ShardedEngineBuilder`].
pub(crate) struct ShardSet {
    /// One replica group per contiguous-`DocId` shard, in shard order.
    shards: Vec<ShardReplicas>,
    /// Global `DocId` of each shard's local doc 0 (`bases[i] =
    /// Σ len(shard < i)`): the offset translation applied to scattered
    /// hits before the merge.
    bases: Vec<u32>,
}

/// What a shard *is*: its slice of the corpus plus warmed retrieval
/// scratches. One per shard, however many replicas point at it.
struct ShardSlice {
    corpus: Corpus,
    scratches: ScratchPool<SearchScratch>,
}

/// One shard's interchangeable replicas plus its rotation cursor and
/// shard-level counters.
struct ShardReplicas {
    replicas: Vec<ReplicaSlot>,
    /// Rotation cursor: each scatter starts its replica selection at the
    /// next position, spreading load across the replicas.
    rotation: AtomicUsize,
    /// Scattered retrievals resolved by this shard (one per request that
    /// got this shard's list, however many attempts that took).
    retrievals: AtomicU64,
    /// Hedged duplicate tasks dispatched for this shard.
    hedges: AtomicU64,
    /// Requests that gave up on this shard (retries spent, or the next
    /// backoff would outlive the deadline) and served partial.
    omissions: AtomicU64,
}

/// One replica: a pointer at its shard's slice plus its own latency EWMA
/// (feeds the adaptive hedge delay) and attempt counters.
struct ReplicaSlot {
    /// The shard's one slice, shared by every replica of the shard.
    /// `Arc`d because hedged/retried attempts run as fire-and-forget pool
    /// jobs that may outlive the request that spawned them.
    slice: Arc<ShardSlice>,
    /// EWMA of successful attempt latency, stored as `f64` bits (`0.0` =
    /// no samples yet).
    ewma_nanos: AtomicU64,
    /// Successful retrieval attempts served by this replica.
    retrievals: AtomicU64,
    /// Failed retrieval attempts (panics and injected faults).
    failures: AtomicU64,
}

/// EWMA smoothing factor for per-replica latency.
const EWMA_ALPHA: f64 = 0.2;
/// Bounds of the adaptive hedge delay (≈3× EWMA mean, clamped).
const MIN_HEDGE: Duration = Duration::from_micros(200);
const MAX_HEDGE: Duration = Duration::from_millis(100);
/// Hedge delay before any latency sample exists.
const DEFAULT_HEDGE: Duration = Duration::from_millis(2);
/// Retries after a shard task's first failed attempt before the shard is
/// omitted. Each retry waits a capped-exponential [`Backoff`] step and
/// targets the rotation's next replica; a retry whose wait alone
/// would outlive the request's effective deadline is skipped (the shard is
/// omitted instead — backoff never sleeps into a guaranteed miss).
const RETRY_MAX: usize = 2;
/// First backoff step (doubles per retry, jittered into `[step/2, step]`).
const RETRY_BASE: Duration = Duration::from_micros(500);
/// Backoff delays double per retry up to `RETRY_BASE ×` this cap.
const BACKOFF_CAP_FACTOR: u32 = 16;

impl ReplicaSlot {
    fn new(slice: Arc<ShardSlice>) -> Self {
        Self {
            slice,
            ewma_nanos: AtomicU64::new(0),
            retrievals: AtomicU64::new(0),
            failures: AtomicU64::new(0),
        }
    }

    /// Folds a successful attempt's latency into the EWMA (CAS loop —
    /// concurrent observers both land, last writer's blend wins the race
    /// harmlessly).
    fn observe_latency(&self, nanos: u64) {
        let mut cur = self.ewma_nanos.load(Ordering::Relaxed);
        loop {
            let old = f64::from_bits(cur);
            let new = if old == 0.0 {
                nanos as f64
            } else {
                old + EWMA_ALPHA * (nanos as f64 - old)
            };
            match self.ewma_nanos.compare_exchange_weak(
                cur,
                new.to_bits(),
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// The replica's observed mean attempt latency (zero before any
    /// sample).
    fn mean_latency(&self) -> Duration {
        Duration::from_nanos(f64::from_bits(self.ewma_nanos.load(Ordering::Relaxed)) as u64)
    }

    /// How long a task on this replica may run before a hedged duplicate
    /// is dispatched: ~3× the replica's EWMA mean — roughly the tail
    /// beyond p95 for well-behaved latency distributions — clamped to sane
    /// bounds.
    fn hedge_delay(&self) -> Duration {
        let mean = self.mean_latency();
        if mean.is_zero() {
            DEFAULT_HEDGE
        } else {
            (mean * 3).clamp(MIN_HEDGE, MAX_HEDGE)
        }
    }
}

impl ShardSet {
    /// Wraps the per-shard corpus slices (in shard order) behind
    /// `replicas` replica slots each, deriving every shard's global
    /// `DocId` base from the cumulative slice sizes.
    fn new(slices: Vec<Corpus>, replicas: usize) -> Self {
        let mut bases = Vec::with_capacity(slices.len());
        let mut base = 0u32;
        let shards = slices
            .into_iter()
            .map(|corpus| {
                bases.push(base);
                base += corpus.num_docs() as u32;
                let slice = Arc::new(ShardSlice {
                    corpus,
                    scratches: ScratchPool::new(),
                });
                ShardReplicas {
                    replicas: (0..replicas.max(1))
                        .map(|_| ReplicaSlot::new(Arc::clone(&slice)))
                        .collect(),
                    rotation: AtomicUsize::new(0),
                    retrievals: AtomicU64::new(0),
                    hedges: AtomicU64::new(0),
                    omissions: AtomicU64::new(0),
                }
            })
            .collect();
        Self { shards, bases }
    }

    /// Number of shards in the set.
    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Shard `i`'s corpus slice.
    fn corpus(&self, i: usize) -> &Corpus {
        &self.shards[i].replicas[0].slice.corpus
    }

    /// Per-shard placement, retrieval and replica-health counters.
    fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .enumerate()
            .map(|(i, shard)| ShardStats {
                docs: self.corpus(i).num_docs(),
                scattered_retrievals: shard.retrievals.load(Ordering::Relaxed),
                hedges: shard.hedges.load(Ordering::Relaxed),
                omissions: shard.omissions.load(Ordering::Relaxed),
                replicas: shard
                    .replicas
                    .iter()
                    .map(|slot| ReplicaStats {
                        retrievals: slot.retrievals.load(Ordering::Relaxed),
                        failures: slot.failures.load(Ordering::Relaxed),
                        mean_latency: slot.mean_latency(),
                    })
                    .collect(),
            })
            .collect()
    }
}

/// Failpoint site covering one shard's retrieval attempts regardless of
/// replica — how a chaos test takes a *whole shard* down.
#[cfg(feature = "failpoints")]
fn shard_site(shard: usize) -> &'static str {
    const SITES: [&str; 8] = [
        "shard.retrieve.0",
        "shard.retrieve.1",
        "shard.retrieve.2",
        "shard.retrieve.3",
        "shard.retrieve.4",
        "shard.retrieve.5",
        "shard.retrieve.6",
        "shard.retrieve.7",
    ];
    SITES.get(shard).copied().unwrap_or("shard.retrieve.rest")
}

/// Failpoint site covering one replica *position* across all shards —
/// how a chaos test kills or stalls "replica 0 of every shard" (the
/// moral equivalent of one failed machine in a striped deployment).
#[cfg(feature = "failpoints")]
fn replica_site(replica: usize) -> &'static str {
    const SITES: [&str; 4] = [
        "shard.replica.retrieve.0",
        "shard.replica.retrieve.1",
        "shard.replica.retrieve.2",
        "shard.replica.retrieve.3",
    ];
    SITES
        .get(replica)
        .copied()
        .unwrap_or("shard.replica.retrieve.rest")
}

/// The read-only half of one scatter, shared by every attempt job of the
/// request: owned copies of the query (pool jobs are `'static` — they may
/// outlive the request as cancelled losers) plus the completion channel
/// back to the coordinator.
struct ScatterShared {
    terms: Vec<TermId>,
    idfs: Vec<f64>,
    semantics: QuerySemantics,
    top_k: usize,
    completions: Mutex<Vec<Completion>>,
    arrived: Condvar,
}

/// One attempt's report back to the scatter coordinator.
struct Completion {
    shard: u32,
    replica: u32,
    /// `Ok(hits)` on success; `Err(true)` when the attempt was cancelled
    /// before it started (its shard already resolved); `Err(false)` on
    /// failure (panic or injected fault).
    outcome: Result<Vec<Hit>, bool>,
    /// Wall-clock nanoseconds the successful attempt took (EWMA input).
    nanos: u64,
}

/// The coordinator's per-shard progress while a scatter is in flight.
struct ShardProgress {
    /// The shard's globally-offset top-K list once a replica delivered it.
    done: Option<Vec<Hit>>,
    /// The shard gave up: its retries were spent, or the next backoff
    /// would outlive the deadline.
    omitted: bool,
    /// Attempts currently dispatched and unreported.
    in_flight: u32,
    /// Retries dispatched so far (hedges don't count).
    retries: usize,
    /// A hedged duplicate was dispatched (at most one per shard).
    hedged: bool,
    /// Bitmask of replica indices already attempted — the hedge target
    /// must be an *untried* replica. (Indices ≥ 64 never mark the mask;
    /// hedging may then re-pick a tried replica, which is harmless.)
    tried: u64,
    /// Next replica index the selection scan starts from.
    cursor: usize,
    /// When to dispatch the hedged duplicate (set at dispatch; `None`
    /// when hedging is off, spent, or moot).
    hedge_at: Option<Instant>,
    /// When to dispatch the next retry (set when all attempts failed).
    retry_at: Option<Instant>,
    backoff: Backoff,
    /// Cancellation handles of the shard's outstanding attempts; fired
    /// when the shard resolves so queued losers bail without running.
    cancels: Vec<CancelSignal>,
}

fn replica_bit(replica: usize) -> u64 {
    1u64.checked_shl(replica as u32).unwrap_or(0)
}

impl ShardProgress {
    /// The hedge target among `n` replicas: the first one in rotation
    /// order from the cursor that no attempt of this scatter has tried.
    fn untried_replica(&self, n: usize) -> Option<usize> {
        (0..n)
            .map(|off| (self.cursor + off) % n)
            .find(|&ri| self.tried & replica_bit(ri) == 0)
    }
}

/// The one retrieve + rank kernel of every serving path: evaluates `terms`
/// under `semantics` over `corpus` into `search`, scores the matches with
/// the **caller-supplied** `idfs` (one per term) and writes the best
/// `top_k` hits (`0` = all) into `out`, ordered by [`hit_before`]. The
/// flat engine calls it over its whole corpus with that corpus's own idfs;
/// a shard replica calls it over its slice with the gather corpus's — the
/// flat engine is the one-shard case of the same code.
pub(crate) fn retrieve_ranked(
    corpus: &Corpus,
    terms: &[TermId],
    idfs: &[f64],
    semantics: QuerySemantics,
    top_k: usize,
    search: &mut SearchScratch,
    out: &mut Vec<Hit>,
) {
    let searcher = Searcher::new(corpus);
    match semantics {
        QuerySemantics::And => searcher.and_query_into(terms, search),
        QuerySemantics::Or => searcher.or_query_into(terms, search),
    }
    TfIdfRanker::new(corpus).rank_with_idf_into(search.results(), terms, idfs, top_k, out);
}

/// One retrieval attempt against one replica, behind a panic boundary so
/// a poisoned replica reports `Err` instead of tearing down its worker.
/// Checks the legacy whole-scatter site, the per-shard site, and the
/// per-replica site (in that order) so chaos tests can target any
/// granularity. Scores with the **gather** corpus's idf (`idfs`), which is
/// what keeps merged rankings bit-identical to the flat engine regardless
/// of which replica answers.
fn replica_attempt(
    slice: &ShardSlice,
    base: u32,
    shard: usize,
    replica: usize,
    query: &ScatterShared,
) -> Result<Vec<Hit>, ()> {
    #[cfg(not(feature = "failpoints"))]
    let _ = (shard, replica);
    catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "failpoints")]
        {
            if qec_failpoint::check("shard.retrieve").is_err()
                || qec_failpoint::check(shard_site(shard)).is_err()
                || qec_failpoint::check(replica_site(replica)).is_err()
            {
                return Err(());
            }
        }
        let mut search = slice.scratches.acquire();
        let mut hits = Vec::new();
        retrieve_ranked(
            &slice.corpus,
            &query.terms,
            &query.idfs,
            query.semantics,
            query.top_k,
            &mut search,
            &mut hits,
        );
        slice.scratches.release(search);
        for hit in hits.iter_mut() {
            hit.doc = DocId(hit.doc.0 + base);
        }
        Ok(hits)
    }))
    .unwrap_or(Err(()))
}

impl ShardSet {
    /// Dispatches one attempt of shard `si` against replica `ri` as a
    /// fire-and-forget pool job and moves the rotation cursor past it. A
    /// first attempt or a retry takes the replica at `sp.cursor`; a hedge
    /// takes [`ShardProgress::untried_replica`].
    fn dispatch_attempt(
        &self,
        pool: &WorkerPool,
        shared: &Arc<ScatterShared>,
        si: usize,
        sp: &mut ShardProgress,
        ri: usize,
    ) {
        let shard = &self.shards[si];
        let n = shard.replicas.len();
        sp.cursor = (ri + 1) % n;
        sp.tried |= replica_bit(ri);
        sp.in_flight += 1;
        sp.hedge_at =
            (!sp.hedged && n > 1).then(|| Instant::now() + shard.replicas[ri].hedge_delay());
        let (token, signal) = CancelToken::manual();
        sp.cancels.push(signal);
        let slice = Arc::clone(&shard.replicas[ri].slice);
        let base = self.bases[si];
        let sh = Arc::clone(shared);
        pool.spawn(Box::new(move || {
            // A queued loser whose shard already resolved bails here; an
            // attempt already *running* when its shard resolves runs to
            // completion and reports as a late duplicate instead (the
            // retrieval kernels are not interruptible mid-flight).
            let (outcome, nanos) = if token.is_cancelled() {
                (Err(true), 0)
            } else {
                let t0 = Instant::now();
                let result = replica_attempt(&slice, base, si, ri, &sh);
                let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                (result.map_err(|()| false), nanos)
            };
            let mut queue = sh.completions.lock().unwrap_or_else(|e| e.into_inner());
            queue.push(Completion {
                shard: si as u32,
                replica: ri as u32,
                outcome,
                nanos,
            });
            drop(queue);
            sh.arrived.notify_all();
        }));
    }

    /// Sharded retrieval + ranking with failover: scatters one
    /// [`retrieve_ranked`] attempt per shard (each against a
    /// rotation-picked replica), retries, hedges or omits as the `shard`
    /// module docs describe, and k-way merges the delivered per-shard
    /// top-K lists into one globally ranked prefix. The second return
    /// value names the shards that had to be given up (ascending).
    ///
    /// Bit-parity with the flat path holds over the delivered shards
    /// because (a) every replica scores with the caller's `idfs` — the
    /// **gather** corpus's global document frequencies — in the same
    /// terms-slice order; (b) [`hit_before`] is a total order, so per-shard
    /// exact top-K plus a k-way merge reproduces the global sort's prefix
    /// exactly; and (c) shard-local doc ids translate to global ones by
    /// adding the shard's base offset, which preserves each shard's
    /// ascending order. Replicas of one shard read the same slice, so
    /// *which* replica answers cannot change the bits.
    ///
    /// The coordinator runs on the submitting thread: it dispatches one
    /// attempt per shard, then reacts to completions and timers (retry
    /// backoff, hedge delays) until every shard either delivered its list
    /// or was explicitly omitted. Attempts are fire-and-forget pool jobs,
    /// so a stalled replica never wedges a worker the coordinator is
    /// waiting on.
    ///
    /// The request's `deadline` bounds retry *scheduling* (a backoff wait
    /// that would outlive it omits the shard instead), but never truncates
    /// an attempt already in flight — a deadline-shaped result here would
    /// get cached and served to requests with laxer deadlines.
    pub(crate) fn retrieve(
        &self,
        pool: &WorkerPool,
        terms: &[TermId],
        idfs: &[f64],
        semantics: QuerySemantics,
        top_k: usize,
        deadline: Option<Instant>,
    ) -> (Vec<Hit>, Vec<u32>) {
        let n = self.shards.len();
        let shared = Arc::new(ScatterShared {
            terms: terms.to_vec(),
            idfs: idfs.to_vec(),
            semantics,
            top_k,
            completions: Mutex::new(Vec::new()),
            arrived: Condvar::new(),
        });
        let mut progress: Vec<ShardProgress> = (0..n)
            .map(|si| {
                let replicas = self.shards[si].replicas.len();
                ShardProgress {
                    done: None,
                    omitted: false,
                    in_flight: 0,
                    retries: 0,
                    hedged: false,
                    tried: 0,
                    cursor: self.shards[si].rotation.fetch_add(1, Ordering::Relaxed) % replicas,
                    hedge_at: None,
                    retry_at: None,
                    backoff: Backoff::new(
                        RETRY_BASE,
                        RETRY_BASE.saturating_mul(BACKOFF_CAP_FACTOR),
                        0x9E37_79B9_7F4A_7C15u64.wrapping_mul(si as u64 + 1),
                    ),
                    cancels: Vec::new(),
                }
            })
            .collect();
        let mut unresolved = n;
        for (si, sp) in progress.iter_mut().enumerate() {
            let ri = sp.cursor;
            self.dispatch_attempt(pool, &shared, si, sp, ri);
        }
        while unresolved > 0 {
            // Fire due timers and find the earliest pending one.
            let now = Instant::now();
            let mut wake: Option<Instant> = None;
            for (si, sp) in progress.iter_mut().enumerate() {
                if sp.done.is_some() || sp.omitted {
                    continue;
                }
                if let Some(at) = sp.retry_at {
                    if at <= now {
                        sp.retry_at = None;
                        sp.retries += 1;
                        let ri = sp.cursor;
                        self.dispatch_attempt(pool, &shared, si, sp, ri);
                    } else {
                        wake = Some(wake.map_or(at, |w: Instant| w.min(at)));
                    }
                }
                if let Some(at) = sp.hedge_at {
                    if sp.hedged || sp.in_flight != 1 {
                        sp.hedge_at = None;
                    } else if at <= now {
                        sp.hedge_at = None;
                        if let Some(ri) = sp.untried_replica(self.shards[si].replicas.len()) {
                            self.dispatch_attempt(pool, &shared, si, sp, ri);
                            sp.hedged = true;
                            self.shards[si].hedges.fetch_add(1, Ordering::Relaxed);
                        }
                    } else {
                        wake = Some(wake.map_or(at, |w: Instant| w.min(at)));
                    }
                }
            }
            if unresolved == 0 {
                break;
            }
            // Wait for completions (or the next timer). The lock is held
            // from the emptiness check into the wait, so a completion
            // arriving in between cannot be missed.
            let mut queue = shared.completions.lock().unwrap_or_else(|e| e.into_inner());
            if queue.is_empty() {
                queue = match wake {
                    Some(at) if at > now => {
                        shared
                            .arrived
                            .wait_timeout(queue, at - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0
                    }
                    // A timer is already due: loop back and fire it.
                    Some(_) => queue,
                    None => shared
                        .arrived
                        .wait(queue)
                        .unwrap_or_else(|e| e.into_inner()),
                };
            }
            let batch = std::mem::take(&mut *queue);
            drop(queue);
            for c in batch {
                self.absorb_completion(c, &mut progress, &mut unresolved, deadline);
            }
        }
        let mut lists: Vec<&[Hit]> = Vec::new();
        let mut omitted = Vec::new();
        for (si, sp) in progress.iter().enumerate() {
            match &sp.done {
                Some(hits) => lists.push(hits),
                None => {
                    debug_assert!(sp.omitted);
                    omitted.push(si as u32);
                }
            }
        }
        let mut merged = Vec::new();
        MergeScratch::new().merge_into(&lists, hit_before, top_k, &mut merged);
        (merged, omitted)
    }

    /// Folds one attempt report into the coordinator state: updates the
    /// replica's EWMA and counters, resolves the shard on first
    /// success (late duplicates are checked for bit-parity and dropped),
    /// and schedules a retry — or omits the shard — when its last
    /// in-flight attempt failed.
    fn absorb_completion(
        &self,
        c: Completion,
        progress: &mut [ShardProgress],
        unresolved: &mut usize,
        deadline: Option<Instant>,
    ) {
        let si = c.shard as usize;
        let sp = &mut progress[si];
        let shard = &self.shards[si];
        let slot = &shard.replicas[c.replica as usize];
        sp.in_flight -= 1;
        match c.outcome {
            Ok(hits) => {
                slot.observe_latency(c.nanos);
                slot.retrievals.fetch_add(1, Ordering::Relaxed);
                if let Some(first) = &sp.done {
                    // A hedge's loser finished anyway: both replicas hold
                    // the same corpus slice and scored with the same
                    // global idf, so their lists must agree bit for bit.
                    debug_assert_eq!(
                        first, &hits,
                        "replicas of one shard returned diverging rankings"
                    );
                } else if !sp.omitted {
                    sp.done = Some(hits);
                    shard.retrievals.fetch_add(1, Ordering::Relaxed);
                    *unresolved -= 1;
                    for sig in sp.cancels.drain(..) {
                        sig.cancel();
                    }
                }
            }
            Err(skipped) => {
                if !skipped {
                    slot.failures.fetch_add(1, Ordering::Relaxed);
                }
                if sp.done.is_none() && !sp.omitted && sp.in_flight == 0 && sp.retry_at.is_none() {
                    if sp.retries >= RETRY_MAX {
                        Self::omit(shard, sp, unresolved);
                    } else {
                        let now = Instant::now();
                        match sp.backoff.next_before(now, deadline) {
                            Some(delay) => sp.retry_at = Some(now + delay),
                            // The backoff wait alone would outlive the
                            // request's deadline: give the shard up now
                            // instead of sleeping into a guaranteed miss.
                            None => Self::omit(shard, sp, unresolved),
                        }
                    }
                }
            }
        }
    }

    fn omit(shard: &ShardReplicas, sp: &mut ShardProgress, unresolved: &mut usize) {
        sp.omitted = true;
        shard.omissions.fetch_add(1, Ordering::Relaxed);
        *unresolved -= 1;
        for sig in sp.cancels.drain(..) {
            sig.cancel();
        }
    }
}

/// Strict total order of the global ranking: score descending, `DocId`
/// ascending on ties (scores are finite, doc ids unique). The k-way gather
/// merge and the shard-side selection both order by exactly this, which is
/// what makes merged shard rankings bit-identical to the reference full
/// sort, [`TfIdfRanker::rank`].
fn hit_before(a: &Hit, b: &Hit) -> bool {
    a.score > b.score || (a.score == b.score && a.doc < b.doc)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replicas_of_a_shard_share_one_corpus_slice() {
        let engine = ShardedEngineBuilder::new()
            .documents((0..12).map(|i| DocumentSpec::text("", format!("apple w{i}"))))
            .num_shards(2)
            .replicas(3)
            .build();
        let set = engine.inner.shard_set().expect("sharded build");
        assert_eq!(set.num_shards(), 2);
        for shard in &set.shards {
            assert_eq!(shard.replicas.len(), 3);
            let first = &shard.replicas[0].slice;
            assert!(shard.replicas.iter().all(|r| Arc::ptr_eq(&r.slice, first)));
            // The replicas are the slice's only holders at rest: `replicas(3)`
            // built one slice per shard, not one per replica.
            assert_eq!(Arc::strong_count(first), 3);
        }
        assert_eq!((0..2).map(|i| set.corpus(i).num_docs()).sum::<usize>(), 12);
    }
}
