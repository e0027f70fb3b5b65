//! Doc-partitioned scatter/gather serving.
//!
//! A [`ShardedEngine`] serves one corpus as `N` shards behind the same
//! request/response API as a single [`QecEngine`], bit-identically. A
//! shard holds no corpus of its own: shard `i` is the contiguous
//! [`DocId`](qec_index::DocId) range `[lo_i, hi_i)` of the gather engine's one
//! `Arc<Corpus>` ([`doc_ranges`], the first `N % shards` ranges one
//! document longer). The gather engine's cold retrieval path scatters
//! one retrieve+rank task per shard across the engine's [`WorkerPool`] —
//! the kernel the flat engine runs over the range `0..N` — each walking
//! only its range's run of every posting list, as one
//! [`run_indexed`](WorkerPool::run_indexed) batch, then k-way merges the
//! per-shard top-K lists into the global ranking:
//!
//! ```text
//!                 ┌──────────────────────────────────┐
//!   request ────▶ │ gather engine — one Arc<Corpus>  │
//!                 │  deadline · cache · batch        │
//!                 └─────┬────────────────────────────┘
//!            cold miss  │ scatter (the engine's WorkerPool)
//!          ┌────────────┼────────────┐
//!          ▼            ▼            ▼
//!     ┌─────────┐  ┌─────────┐  ┌─────────┐
//!     │ shard 0 │  │ shard 1 │  │ shard 2 │   retrieve + rank top-K over
//!     │docs 0..a│  │docs a..b│  │docs b..n│   the range's run of each list:
//!     └────┬────┘  └────┬────┘  └────┬────┘   global idf, global DocIds
//!          └────────────┼────────────┘
//!                       ▼ k-way merge (score desc, DocId asc)
//!            cluster → arena → expand  (gather engine, same corpus)
//! ```
//!
//! Everything above the retrieval stage — deadline refusal, the shared
//! arena cache, single-flight builds, batching, deadlines, cancellation,
//! degraded responses — is the gather engine's existing machinery,
//! unchanged. Parity with the single-engine path is exact (not
//! approximate) because every shard reads the gather corpus's own lists
//! and global document frequencies and the ranking comparator is a total
//! order; `tests/sharding_parity.rs` asserts bit-identity across shard
//! counts, strategies, and pagination.
//!
//! Replication and failover
//! ------------------------
//! A shard is its document range plus warmed retrieval scratches;
//! [`replicas(n)`](ShardedEngineBuilder::replicas) gives that one shard
//! `n` interchangeable replica slots (attempt counters), so replication
//! copies no corpus and builds no engine. Scatter rotates across the
//! replicas, and a failed attempt meets one defense: **retry**. A scatter
//! runs in rounds, each one pool batch over the shards that have no list
//! yet; a shard that failed moves to its next replica, and the next round
//! starts after a deadline-aware capped exponential backoff step. Every
//! replica runs the same code over the same range on the same pool, so
//! none is singled out as sick or slow, and a slow attempt is waited out,
//! never duplicated. A shard whose retries are spent is **omitted
//! explicitly**: the response stays `Ok` with
//! [`ExpandStats::shards_omitted`](crate::ExpandStats::shards_omitted)
//! set and the merged ranking over the surviving shards intact — never a
//! silently wrong ranking. `tests/replication_chaos.rs` drives fail-over,
//! explicit omission and a slow replica through injected faults.

use std::fmt;
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use qec_core::{Backoff, DisjointSlots, MergeScratch, ScratchPool, WorkerPool};
use qec_index::{
    doc_ranges, Corpus, DocumentSpec, Hit, QuerySemantics, SearchScratch, Searcher, TfIdfRanker,
};
use qec_snapshot::{SnapshotError, SnapshotSummary, FULL_SNAPSHOT};
use qec_text::TermId;

use crate::api::ExpandResponse;
use crate::boot::BootStats;
use crate::cache::{CacheStats, KeyRef};
use crate::engine::{EngineBuilder, QecEngine, Source};

/// A doc-partitioned [`QecEngine`]: same API, same responses, with cold
/// retrieval scattered across shards. Build with
/// [`ShardedEngineBuilder`]; the `shard` module docs (`src/shard.rs`)
/// draw the architecture.
///
/// It derefs to its gather engine, so serving
/// ([`try_expand`](QecEngine::try_expand),
/// [`try_expand_batch_into`](QecEngine::try_expand_batch_into)), the full
/// [`corpus`](QecEngine::corpus) — the one corpus its shards are ranges
/// of — [`cache_stats`](QecEngine::cache_stats) and
/// [`boot_stats`](QecEngine::boot_stats) are the gather engine's own —
/// sharding changes none of them. Deadlines, cancellation and
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

    /// Writes the deployment's snapshot into `dir` (created if missing)
    /// and returns one summary per file written. A sharded deployment
    /// (more than one shard, or replicas) writes its one corpus as a
    /// snapshot set ([`qec_snapshot::save_corpus_set`]): the doc store
    /// `full.qsnap` — dictionary and documents, no postings — and one
    /// `shard-{i}-of-{n}.qsnap` per shard holding that shard's range of
    /// the posting lists, so every document and posting is stored once.
    /// A single unreplicated shard writes the single-file `full.qsnap`
    /// ([`qec_snapshot::save_corpus`]). Every file is written crash-safely,
    /// and a [`ShardedEngineBuilder::load_snapshots`] boot from this
    /// directory serves bit-identical responses. The set has no per-shard
    /// fallback: its files load together or not at all.
    pub fn save_snapshot(
        &self,
        dir: impl AsRef<Path>,
    ) -> Result<Vec<SnapshotSummary>, SnapshotError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir)?;
        match self.inner.shard_set() {
            Some(set) => qec_snapshot::save_corpus_set(self.inner.corpus(), dir, set.num_shards()),
            None => Ok(vec![self.inner.save_snapshot(dir.join(FULL_SNAPSHOT))?]),
        }
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
    /// Documents in this shard's range of the corpus.
    pub docs: usize,
    /// Scattered retrievals this shard has **resolved** (one per cold
    /// pipeline build of the gather engine, counted on the replica
    /// success — retries never double-count).
    pub scattered_retrievals: u64,
    /// Always `0`: the scatter no longer hedges. Kept because the
    /// benchmark reads it, until the benchmark stops mirroring these
    /// stats.
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
    /// Successful retrieval attempts served by this replica.
    pub retrievals: u64,
    /// Failed attempts (panics and injected errors).
    pub failures: u64,
    /// Mean wall-clock time of this replica's successful attempts
    /// (`ZERO` before the first).
    pub mean_latency: Duration,
}

/// Rolled-up statistics of a [`ShardedEngine`]: the gather engine's cache
/// counters plus per-shard placement and retrieval counters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardedStats {
    /// The gather engine's shared-cache snapshot ([`CacheStats`]).
    pub gather_cache: CacheStats,
    /// One entry per shard, in [`DocId`](qec_index::DocId) order (shard 0
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
/// | [`replicas`](Self::replicas) | `1` | interchangeable replica slots per shard, all over the shard's one document range; `>1` enables failover |
/// | [`cache_capacity`](Self::cache_capacity) | `128` | the **gather** cache — pipelines are cached once, after the merge (`0` = off) |
/// | [`pool_threads`](Self::pool_threads) | `0` (auto) | size of the gather engine's [`WorkerPool`], which all scatter tasks run on |
///
/// A failed shard attempt is retried twice on the next replica (capped
/// exponential backoff from 500 µs) before the shard is omitted; a slow
/// attempt is waited out. Clustering and expansion run on the gather side
/// (shards only retrieve and rank).
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
    /// [`ShardedEngine::save_snapshot`]) to restore from at build. A
    /// sharded deployment (more than one shard, or replicas) loads the
    /// snapshot set ([`qec_snapshot::load_corpus_set`]) — the doc store
    /// `full.qsnap` and each shard's posting segment
    /// `shard-{i}-of-{n}.qsnap` — into its one corpus, skipping the
    /// rebuild; a single unreplicated shard loads the single-file
    /// `full.qsnap`.
    ///
    /// Restoration is all or nothing, and there is no per-shard
    /// fallback: no second copy of the corpus exists to re-split a shard
    /// from. A file that is missing, corrupt, of another format version,
    /// from another snapshot generation (its dictionary fingerprint
    /// disagrees with the doc store's), or holding another range than
    /// this shard count gives its shard refuses the whole set, and the
    /// corpus is rebuilt from the builder's documents. Every outcome is
    /// counted in [`boot_stats`](QecEngine::boot_stats), whose error
    /// line names the refused file.
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
    /// interchangeable replica slots over the shard's one document
    /// range, so adding replicas copies no corpus. `1` means no replication — a
    /// shard whose only replica spends its retries is omitted from the
    /// response. See "Replication and failover" in the `shard` module docs
    /// (`src/shard.rs`).
    pub fn replicas(mut self, n: usize) -> Self {
        self.replicas = n.max(1);
        self
    }

    /// Adds documents (see [`EngineBuilder::documents`]). They are
    /// analysed as they arrive, with term ids in first-occurrence order;
    /// [`build`](Self::build) serves the shards as ranges of that one
    /// corpus.
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

    /// Freezes (or loads) the corpus, validates the topology, and moves
    /// the corpus into the gather engine with one document range per
    /// shard (each behind [`replicas`](Self::replicas) replica slots) —
    /// no part of the corpus is copied along the way.
    ///
    /// # Errors
    /// [`ShardedBuildError::ZeroShards`] for `num_shards(0)`;
    /// [`ShardedBuildError::TooManyShards`] when the corpus holds fewer
    /// documents than shards were requested (an empty corpus still admits
    /// the `num_shards(1)` single-engine path).
    pub fn try_build(self) -> Result<ShardedEngine, ShardedBuildError> {
        let num_shards = self.num_shards;
        if num_shards == 0 {
            return Err(ShardedBuildError::ZeroShards);
        }
        if num_shards == 1 && self.replicas == 1 {
            // The single-engine path: no shard set, a single-file
            // snapshot counted by the engine's own boot.
            let gather = EngineBuilder {
                snapshot: self.snapshot_dir.map(|dir| dir.join(FULL_SNAPSHOT)),
                ..self.gather
            };
            return Ok(ShardedEngine {
                inner: gather.build(),
            });
        }
        // The doc store and each segment count once: loaded together, or
        // rebuilt together from the builder's documents.
        let mut boot = BootStats::default();
        let source = self.gather.source;
        let corpus = match &self.snapshot_dir {
            Some(dir) => match qec_snapshot::load_corpus_set(dir, num_shards) {
                Ok(corpus) => {
                    boot.snapshots_loaded += 1 + num_shards;
                    corpus
                }
                Err((path, e)) => {
                    boot.fallback(&path, e);
                    boot.rebuilt_cold += num_shards;
                    source.into_corpus()
                }
            },
            None => {
                boot.rebuilt_cold += 1 + num_shards;
                source.into_corpus()
            }
        };
        if num_shards > corpus.num_docs().max(1) {
            return Err(ShardedBuildError::TooManyShards {
                shards: num_shards,
                docs: corpus.num_docs(),
            });
        }
        let gather = EngineBuilder {
            shards: Some(ShardSet::new(corpus.num_docs(), num_shards, self.replicas)),
            source: Source::Prebuilt(corpus),
            boot_seed: Some(boot),
            ..self.gather
        };
        Ok(ShardedEngine {
            inner: gather.build(),
        })
    }
}

/// The scatter half of a sharded deployment: N shards, each a document
/// range of the gather engine's corpus behind a set of interchangeable
/// replica slots. It holds no corpus: the gather engine lends its own to
/// every scatter ([`ShardSet::retrieve`]).
/// Held by the gather [`QecEngine`]; assembled by [`ShardedEngineBuilder`].
pub(crate) struct ShardSet {
    /// One entry per shard, in document order.
    shards: Vec<Shard>,
}

/// What a shard *is* — its document range of the gather corpus plus
/// warmed retrieval scratches — and the replica slots every attempt on it
/// is counted against, with its rotation cursor and shard-level counters.
/// However many replicas a shard has, it holds its range once.
struct Shard {
    docs: Range<u32>,
    scratches: ScratchPool<SearchScratch>,
    replicas: Vec<ReplicaSlot>,
    /// Rotation cursor: each scatter starts its replica selection at the
    /// next position, spreading load across the replicas.
    rotation: AtomicUsize,
    /// Scattered retrievals resolved by this shard (one per request that
    /// got this shard's list, however many attempts that took).
    retrievals: AtomicU64,
    /// Requests that gave up on this shard (retries spent, or the next
    /// backoff would outlive the deadline) and served partial.
    omissions: AtomicU64,
}

/// One replica position of a shard: its attempt counters.
#[derive(Default)]
struct ReplicaSlot {
    /// Successful retrieval attempts served by this replica.
    retrievals: AtomicU64,
    /// Wall-clock nanoseconds of those successful attempts, summed.
    nanos: AtomicU64,
    /// Failed retrieval attempts (panics and injected faults).
    failures: AtomicU64,
}

/// Retry rounds after a scatter's first before its still-failing shards
/// are omitted. Each round waits one capped-exponential [`Backoff`] step
/// and sends every failed shard to the rotation's next replica; a round
/// whose wait alone would outlive the request's effective deadline is
/// skipped (its shards are omitted instead — backoff never sleeps into a
/// guaranteed miss).
const RETRY_MAX: usize = 2;
/// First backoff step (doubles per round, jittered into `[step/2, step]`).
const RETRY_BASE: Duration = Duration::from_micros(500);
/// Backoff delays double per round up to `RETRY_BASE ×` this cap.
const BACKOFF_CAP_FACTOR: u32 = 16;

impl ReplicaSlot {
    /// The replica's mean successful-attempt latency (zero before the
    /// first success).
    fn mean_latency(&self) -> Duration {
        let retrievals = self.retrievals.load(Ordering::Relaxed);
        Duration::from_nanos(self.nanos.load(Ordering::Relaxed) / retrievals.max(1))
    }
}

impl ShardSet {
    /// `n` shards over the [`doc_ranges`] of `num_docs` documents, each
    /// behind `replicas` replica slots.
    fn new(num_docs: usize, n: usize, replicas: usize) -> Self {
        let shards = doc_ranges(num_docs, n)
            .into_iter()
            .map(|docs| Shard {
                docs,
                scratches: ScratchPool::new(),
                replicas: (0..replicas.max(1))
                    .map(|_| ReplicaSlot::default())
                    .collect(),
                rotation: AtomicUsize::new(0),
                retrievals: AtomicU64::new(0),
                omissions: AtomicU64::new(0),
            })
            .collect();
        Self { shards }
    }

    /// Number of shards in the set.
    pub(crate) fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Per-shard placement, retrieval and replica-health counters.
    fn stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|shard| ShardStats {
                docs: shard.docs.len(),
                scattered_retrievals: shard.retrievals.load(Ordering::Relaxed),
                hedges: 0,
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

/// The one retrieve + rank kernel of every serving path: evaluates `terms`
/// under `semantics` over the document range of `searcher` into `search`,
/// scores the matches with the **caller-supplied** `idfs` (one per term)
/// and writes the best `top_k` hits (`0` = all) into `out`, ordered by
/// [`hit_before`]. The flat engine passes the range `0..N` of its corpus
/// ([`Searcher::new`]); a shard replica its shard's range of the same
/// corpus ([`Searcher::within`]) — the flat engine is the one-shard case
/// of the same code. Hits carry the corpus's own (global) document ids
/// either way.
pub(crate) fn retrieve_ranked(
    searcher: Searcher<'_>,
    terms: &[TermId],
    idfs: &[f64],
    semantics: QuerySemantics,
    top_k: usize,
    search: &mut SearchScratch,
    out: &mut Vec<Hit>,
) {
    match semantics {
        QuerySemantics::And => searcher.and_query_into(terms, search),
        QuerySemantics::Or => searcher.or_query_into(terms, search),
    }
    TfIdfRanker::new(searcher.corpus()).rank_with_idf_into(
        search.results(),
        terms,
        idfs,
        top_k,
        out,
    );
}

/// One retrieval attempt against one replica, behind a panic boundary so
/// a poisoned replica reports `Err` instead of failing the scatter's
/// batch. Checks the legacy whole-scatter site, the per-shard site, and
/// the per-replica site (in that order) so chaos tests can target any
/// granularity. Scores with the **gather** corpus's idf (`idfs`), which is
/// what keeps merged rankings bit-identical to the flat engine regardless
/// of which replica answers.
fn replica_attempt(
    corpus: &Corpus,
    shard: &Shard,
    si: usize,
    replica: usize,
    key: KeyRef<'_>,
    idfs: &[f64],
) -> Result<Vec<Hit>, ()> {
    #[cfg(not(feature = "failpoints"))]
    let _ = (si, replica);
    catch_unwind(AssertUnwindSafe(|| {
        #[cfg(feature = "failpoints")]
        {
            if qec_failpoint::check("shard.retrieve").is_err()
                || qec_failpoint::check(shard_site(si)).is_err()
                || qec_failpoint::check(replica_site(replica)).is_err()
            {
                return Err(());
            }
        }
        let mut search = shard.scratches.acquire();
        let mut hits = Vec::new();
        retrieve_ranked(
            Searcher::within(corpus, shard.docs.clone()),
            key.terms,
            idfs,
            key.semantics,
            key.top_k,
            &mut search,
            &mut hits,
        );
        shard.scratches.release(search);
        Ok(hits)
    }))
    .unwrap_or(Err(()))
}

impl ShardSet {
    /// Sharded retrieval + ranking of `key`'s terms over `corpus` — the
    /// gather engine's own, lent to every attempt — with failover, in
    /// rounds. Each round is one [`WorkerPool::run_indexed`] batch of one
    /// [`retrieve_ranked`] attempt per shard that has no list yet, each on
    /// its shard's rotation replica. A failed shard moves to the next
    /// replica, the submitter waits one [`Backoff`] step and runs the next
    /// round; a shard still failing after [`RETRY_MAX`] retries, or when
    /// the next step would outlive `deadline`, is omitted. The delivered
    /// per-shard top-K lists are then k-way merged into one globally
    /// ranked prefix. The second return value names the omitted shards
    /// (ascending).
    ///
    /// Bit-parity with the flat path holds over the delivered shards
    /// because (a) every replica reads `corpus` — the gather engine's own
    /// — and scores with the caller's `idfs`, its global document
    /// frequencies, in the same terms-slice order; (b) [`hit_before`] is a
    /// total order, so per-shard exact top-K plus a k-way merge
    /// reproduces the global sort's prefix exactly; and (c) a shard's
    /// hits are the flat retrieval's hits inside its range, with the same
    /// global doc ids. Replicas of one shard read the same range, so
    /// *which* replica answers cannot change the bits.
    ///
    /// The request's `deadline` bounds retry *scheduling* (a backoff wait
    /// that would outlive it omits the shard instead), but never truncates
    /// an attempt already in flight — a deadline-shaped result here would
    /// get cached and served to requests with laxer deadlines. Runs on
    /// the submitting thread, never inside a pool task: a round waits on
    /// the pool.
    pub(crate) fn retrieve(
        &self,
        corpus: &Corpus,
        pool: &WorkerPool,
        key: KeyRef<'_>,
        idfs: &[f64],
        deadline: Option<Instant>,
    ) -> (Vec<Hit>, Vec<u32>) {
        let n = self.shards.len();
        let mut lists: Vec<Option<Vec<Hit>>> = vec![None; n];
        let mut cursors: Vec<usize> = self
            .shards
            .iter()
            .map(|shard| shard.rotation.fetch_add(1, Ordering::Relaxed) % shard.replicas.len())
            .collect();
        let mut pending: Vec<usize> = (0..n).collect();
        let mut backoff = Backoff::new(
            RETRY_BASE,
            RETRY_BASE.saturating_mul(BACKOFF_CAP_FACTOR),
            0x9E37_79B9_7F4A_7C15,
        );
        for round in 0..=RETRY_MAX {
            let slots = DisjointSlots::new(&mut lists);
            pool.run_indexed(pending.len(), &|i| {
                let si = pending[i];
                let shard = &self.shards[si];
                let slot = &shard.replicas[cursors[si]];
                let t0 = Instant::now();
                match replica_attempt(corpus, shard, si, cursors[si], key, idfs) {
                    Ok(hits) => {
                        let nanos = t0.elapsed().as_nanos().min(u64::MAX as u128) as u64;
                        slot.nanos.fetch_add(nanos, Ordering::Relaxed);
                        slot.retrievals.fetch_add(1, Ordering::Relaxed);
                        shard.retrievals.fetch_add(1, Ordering::Relaxed);
                        // SAFETY: `pending` holds distinct shard indices, so
                        // slot `si` belongs to this task alone.
                        *unsafe { slots.get(si) } = Some(hits);
                    }
                    Err(()) => {
                        slot.failures.fetch_add(1, Ordering::Relaxed);
                    }
                }
            });
            pending.retain(|&si| lists[si].is_none());
            if pending.is_empty() {
                break;
            }
            for &si in &pending {
                cursors[si] = (cursors[si] + 1) % self.shards[si].replicas.len();
            }
            // Retries spent, or the wait alone would outlive the request's
            // deadline: give the shards up now instead of sleeping into a
            // guaranteed miss.
            if round == RETRY_MAX {
                break;
            }
            let Some(delay) = backoff.next_before(Instant::now(), deadline) else {
                break;
            };
            std::thread::sleep(delay);
        }
        for &si in &pending {
            self.shards[si].omissions.fetch_add(1, Ordering::Relaxed);
        }
        let delivered: Vec<&[Hit]> = lists.iter().flatten().map(Vec::as_slice).collect();
        let mut merged = Vec::new();
        MergeScratch::new().merge_into(&delivered, hit_before, key.top_k, &mut merged);
        (merged, pending.into_iter().map(|si| si as u32).collect())
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
    use std::sync::Arc;

    #[test]
    fn replicas_of_a_shard_share_one_corpus_slice() {
        let engine = ShardedEngineBuilder::new()
            .documents((0..12).map(|i| DocumentSpec::text("", format!("apple w{i}"))))
            .num_shards(2)
            .replicas(3)
            .build();
        let set = engine.inner.shard_set().expect("sharded build");
        assert_eq!(set.num_shards(), 2);
        let mut next = 0;
        for shard in &set.shards {
            // `replicas(3)` gave the shard three replica slots over its one
            // range, not three copies of it.
            assert_eq!(shard.replicas.len(), 3);
            // A shard is a document range of the gather corpus, and the
            // ranges tile it in order.
            assert_eq!(shard.docs.start, next);
            next = shard.docs.end;
        }
        assert_eq!(next as usize, engine.corpus().num_docs());
        // The deployment holds one corpus: at rest the gather engine's
        // `Arc` is its only handle, so no shard or replica keeps a copy.
        assert_eq!(Arc::strong_count(&engine.inner.corpus), 1);

        // A scatter lends that one corpus to every shard and replica: the
        // merged hits are the flat kernel's over it, global ids and all.
        let corpus = &engine.inner.corpus;
        let terms = corpus.query_terms("apple");
        let idfs: Vec<f64> = terms.iter().map(|&t| corpus.index().idf(t)).collect();
        let key = KeyRef {
            terms: &terms,
            semantics: QuerySemantics::And,
            k_clusters: 2,
            top_k: 5,
            strategy: crate::ExpandStrategy::Iskr,
        };
        let (hits, omitted) = set.retrieve(corpus, &engine.inner.pool, key, &idfs, None);
        assert!(omitted.is_empty());
        let mut flat = Vec::new();
        retrieve_ranked(
            Searcher::new(corpus),
            &terms,
            &idfs,
            QuerySemantics::And,
            5,
            &mut SearchScratch::new(),
            &mut flat,
        );
        assert_eq!(hits, flat);
    }
}
