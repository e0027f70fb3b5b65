//! The serving facade of the QEC reproduction.
//!
//! The paper's end-to-end loop — retrieve the user query, cluster the
//! results by sense, expand one query per cluster (Defs 2.1/2.2,
//! Algorithm 1) — behind **one request/response API**. Callers no longer
//! thread `Analyzer → Corpus → Searcher → kmeans → ExpansionArena →
//! QecInstance → iskr` by hand; they build a [`QecEngine`] once and call
//! [`expand`](QecEngine::expand) per request, choosing a pluggable
//! [`Expander`] strategy per call (ISKR, exact-ΔF, or the PEBC
//! partial-elimination baseline) and a pluggable [`Clusterer`] per
//! engine.
//!
//! # Quickstart
//!
//! ```
//! use qec_engine::{DocumentSpec, EngineBuilder, ExpandRequest};
//!
//! let engine = EngineBuilder::new()
//!     .document(DocumentSpec::text("Apple pie", "apple fruit pie baking recipe"))
//!     .document(DocumentSpec::text("Apple Inc", "apple iphone store cupertino"))
//!     .build();
//! let response = engine.expand(&ExpandRequest { k_clusters: 2, ..ExpandRequest::new("apple") });
//! assert_eq!(response.clusters().len(), 2);
//! ```
//!
//! # Serving model
//!
//! The engine is shared by reference across threads ([`expand`] takes
//! `&self`); per-request working state comes from an internal pool of
//! chunk scratches, and **built pipelines are shared across all
//! sessions** through the [`cache::SharedArenaCache`] — a cross-session
//! LRU keyed on the *analysed* query terms, so `"apples"` and `"apple"`
//! (or any case/whitespace variant) share one entry. A hit anywhere in the
//! process clones the `Arc`d pipeline and re-runs only the expansion
//! kernel; with the ISKR or PEBC strategy a warmed request/[`recycle`]
//! loop performs zero heap allocations (see `tests/zero_alloc_engine.rs`).
//! Cold misses are **single-flight**: concurrent requests for one key wait
//! on a per-key latch while exactly one session builds and publishes the
//! pipeline. Eviction is bounded by entry count *and* an optional byte
//! budget weighing entries by pipeline heap footprint
//! ([`EngineBuilder::cache_max_bytes`]). Cache knobs and
//! hit/miss/eviction/byte statistics are exposed through [`EngineConfig`],
//! [`EngineBuilder::cache_capacity`] (`0` turns the cache off), and
//! [`ExpandStats::cache`].
//!
//! # One serving path, pooled and batched
//!
//! The paper generates one expanded query per cluster, so a request is a
//! flat set of independent per-cluster expansions and a batch is the same
//! set over more pipelines: the engine serves both through **one** path.
//! [`try_expand`] is a chunk of one; [`try_expand_batch_into`] serves many
//! requests per call, **grouped by analysed cache key** (N identical cold
//! queries build one pipeline), every group's per-cluster expansions laid
//! out as **one flat task set**. The task count alone decides where the
//! set runs: a handful of tasks (a lone request at the paper's
//! granularity) on the caller's thread, more across the **persistent
//! [`WorkerPool`](qec_core::WorkerPool)** (one shared queue) spawned once at
//! engine build ([`EngineBuilder::pool_threads`], default: the machine's
//! parallelism probed once per process) — bit-identical either way, and a
//! warmed serve/[`recycle`] loop is allocation-free on both sides (see
//! `tests/zero_alloc_engine.rs`, `tests/zero_alloc_batch.rs`). Member
//! lists are served through each cached cluster's `RankIndex` sidecar, so
//! rank-paginated requests ([`ExpandRequest::member_offset`] /
//! [`ExpandRequest::member_limit`]) jump straight to the requested page.
//!
//! # Sharded serving
//!
//! [`ShardedEngine`] (built with [`ShardedEngineBuilder`]) partitions the
//! corpus into N contiguous-doc-id shards behind the **same API, served
//! bit-identically**: cold retrieval scatters the flat engine's own
//! retrieve + rank kernel (global idf, exact top-K) over the shards'
//! corpus slices on the engine's pool and k-way merges the global
//! ranking; everything else — cache, batching, deadlines, degradation —
//! is the single engine's machinery. With
//! [`replicas(n)`](ShardedEngineBuilder::replicas) each shard's one slice
//! sits behind `n` interchangeable replica slots and the scatter path
//! adds retry on a sibling replica and hedging. The `shard`
//! module docs (`src/shard.rs`) draw the architecture.
//!
//! # Snapshot boot
//!
//! Booting no longer has to rebuild the index in memory:
//! [`QecEngine::save_snapshot`] persists the frozen corpus crash-safely
//! through [`qec-snapshot`](qec_snapshot) (temp file → fsync → atomic
//! rename — the previous snapshot is never clobbered), and
//! [`EngineBuilder::load_snapshot`] restores it at build. Restoration is
//! strictly an optimization: **any** load failure — missing file,
//! corruption, truncation, version skew — falls back to the in-memory
//! rebuild and the engine comes up regardless, with the outcome counted
//! in [`QecEngine::boot_stats`] ([`BootStats`]). A sharded deployment
//! saves `full.qsnap` plus one file per shard
//! ([`ShardedEngine::save_snapshot`]) and restores shard-by-shard with
//! per-shard fallback ([`ShardedEngineBuilder::load_snapshots`]);
//! generation skew is caught by the dictionary fingerprint every shard
//! file carries. A snapshot-booted engine serves responses bit-identical
//! to a fresh-built one (`tests/snapshot_parity.rs`), and
//! `tests/snapshot_chaos.rs` drives crash-mid-save and corrupted-load
//! faults through the `snapshot.*` failpoints.
//!
//! # Failure semantics
//!
//! The serving path is deadline-aware and fault-isolated. Each
//! [`ExpandRequest`] may carry an absolute [`deadline`] and/or a relative
//! [`timeout`] (merged by taking the earlier) plus an external
//! [`CancelToken`]. The fallible entry points [`try_expand`] /
//! [`try_expand_batch_into`] report refusals and faults as typed
//! [`EngineError`]s — deadline expired before a pipeline existed
//! (`DeadlineExceeded`), build panicked
//! (`BuildFailed`, memoized briefly so a poisoned key doesn't trigger a
//! rebuild stampede), expansion panicked (`ExpansionFailed`). A deadline
//! that trips *after* the pipeline is available instead **degrades** the
//! response: `Ok` with [`ExpandStats::degraded`] set and the finished
//! prefix of cluster expansions intact, never a torn result. Batch
//! requests fail individually — siblings of a faulted request are served
//! bit-identical to a clean run (see `tests/chaos.rs`, which drives these
//! paths through the `qec-failpoint` crate). The engine never sheds load:
//! it serves every request it is handed, and the one load shedder of the
//! stack is the `qec-ingress` front door's bounded queue, whose refusal is
//! [`EngineError::Overloaded`].
//!
//! On the replicated scatter path a failed shard attempt is retried
//! (sibling replica, deadline-aware backoff) and a slow one is hedged;
//! only when a shard's retries are spent does the response go
//! explicitly **partial** — `Ok` with
//! [`ExpandStats::shards_omitted`] counting the missing shards,
//! [`ExpandResponse::omitted_shards`] naming them, and the merged ranking
//! over the surviving shards intact. Partial pipelines are served but
//! never cached, so one healthy rebuild heals the key. When *all* shards
//! are out the request fails (`BuildFailed`) — an empty "ranking" is an
//! error, not a result (see `tests/replication_chaos.rs`).
//!
//! [`expand`]: QecEngine::expand
//! [`try_expand`]: QecEngine::try_expand
//! [`try_expand_batch_into`]: QecEngine::try_expand_batch_into
//! [`recycle`]: QecEngine::recycle
//! [`deadline`]: ExpandRequest::deadline
//! [`timeout`]: ExpandRequest::timeout

mod api;
mod boot;
pub mod cache;
mod config;
mod engine;
mod shard;

pub use api::{
    ClusterExpansion, EngineError, ExpandRequest, ExpandResponse, ExpandStats, ExpandStrategy,
};
pub use boot::BootStats;
pub use cache::{BuildTicket, CacheProbe, CacheStats, SharedArenaCache};
pub use config::{CacheConfig, EngineConfig, PoolConfig};
pub use engine::{EngineBuilder, QecEngine};
pub use shard::{
    ReplicaStats, ShardStats, ShardedBuildError, ShardedEngine, ShardedEngineBuilder, ShardedStats,
};

// Re-export the vocabulary types a facade caller needs, so simple servers
// depend on `qec-engine` alone.
pub use qec_cluster::{Clusterer, KMeansClusterer};
pub use qec_core::{CancelSignal, CancelToken, Expander, QueryQuality};
pub use qec_index::{Corpus, DocId, DocumentSpec, QuerySemantics};
pub use qec_snapshot::{SnapshotError, SnapshotSummary};
pub use qec_text::TermId;
