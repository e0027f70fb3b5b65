//! Unified engine configuration.
//!
//! One [`EngineConfig`] gathers every stage's knobs — arena candidate
//! selection, clustering, all three expansion strategies, the shared arena
//! cache and the big-`k` fan-out — so a caller configures the whole
//! pipeline in one place instead of threading config structs through five
//! crates by hand.

use std::time::Duration;

use qec_cluster::KMeansConfig;
use qec_core::{ArenaConfig, FMeasureConfig, IskrConfig, PebcConfig};

/// Knobs of the cross-session shared arena cache
/// ([`SharedArenaCache`](crate::cache::SharedArenaCache)).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Probe and publish the shared cache at all. `false` makes every
    /// request rebuild its pipeline — the cold-path baseline
    /// `bench_scalability` measures against.
    pub enabled: bool,
    /// Maximum cached pipelines before LRU eviction (`0` behaves like
    /// `enabled: false` but is still constructed, so stats read as empty).
    pub capacity: usize,
    /// Byte budget over all cached pipelines' heap footprints
    /// (`CachedPipeline::heap_bytes`): eviction runs from the LRU tail
    /// when **either** this or `capacity` trips. `0` disables the byte
    /// bound. This is what keeps memory bounded under mixed `top_k`
    /// workloads, where a top-500 entry weighs ~100× a top-30 one.
    pub max_bytes: usize,
    /// How long a failed pipeline build is memoized. Within the window,
    /// further requests for the same key fail fast with
    /// [`EngineError::BuildFailed`](crate::EngineError::BuildFailed)
    /// instead of stampeding rebuilds of a key that just proved poisonous;
    /// after it, the next request retries the build. `Duration::ZERO`
    /// disables memoization (every caller retries).
    pub failure_ttl: Duration,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            enabled: true,
            capacity: 128,
            max_bytes: 0,
            failure_ttl: Duration::from_millis(250),
        }
    }
}

/// Admission-control knobs: how the engine sheds load instead of queueing
/// itself to death.
#[derive(Debug, Clone, Default)]
pub struct AdmissionConfig {
    /// Maximum requests the engine serves concurrently. A request arriving
    /// while this many are in flight is refused immediately with
    /// [`EngineError::Overloaded`](crate::EngineError::Overloaded) —
    /// batches count each admitted request. `0` disables admission control
    /// (never sheds), which also keeps the no-deadline batch fast path
    /// completely free of admission bookkeeping.
    pub max_in_flight: usize,
}

/// Knobs of the persistent work-stealing worker pool
/// ([`qec_core::WorkerPool`]) and the batched serving path
/// ([`QecEngine::expand_batch`](crate::QecEngine::expand_batch)).
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads; `0` resolves
    /// [`qec_core::default_parallelism`] once at engine build.
    pub threads: usize,
    /// Maximum requests scheduled per inner batch: longer `expand_batch`
    /// slices are served in chunks of this many requests, bounding the
    /// working state (sessions, flat task set) a single batch pins. `0`
    /// means unbounded.
    pub batch_max: usize,
}

impl Default for PoolConfig {
    fn default() -> Self {
        Self {
            threads: 0,
            batch_max: 64,
        }
    }
}

/// Replication + failover knobs of the sharded scatter path
/// ([`ShardedEngine`](crate::ShardedEngine)). Only consulted when the
/// engine carries a shard set; the flat path ignores it entirely.
#[derive(Debug, Clone)]
pub struct ReplicationConfig {
    /// Interchangeable replicas per shard. A replica is a health slot
    /// (breaker, latency EWMA, counters) over the shard's one `Arc`-shared
    /// corpus slice — adding replicas copies no corpus — and scatter
    /// rotates across the healthy ones. `1` means no replication: a shard
    /// whose only replica exhausts its retries is omitted from the
    /// response.
    pub replicas: usize,
    /// Retries after a shard task's first failed attempt before the shard
    /// is omitted. Each retry waits a capped-exponential
    /// [`Backoff`](qec_core::Backoff) step and targets the rotation's next
    /// admitted replica; a retry whose wait alone would outlive the
    /// request's effective deadline is skipped (the shard is omitted
    /// instead — backoff never sleeps into a guaranteed miss). `0`
    /// disables retries.
    pub retry_max: usize,
    /// First backoff step (doubles per retry, jittered into
    /// `[step/2, step]`, capped at 16× the base).
    pub retry_base: Duration,
    /// How long a shard's task may run before a hedged duplicate is
    /// dispatched to another replica (first completion wins; results are
    /// bit-identical regardless of winner). `None` adapts per replica to
    /// ~3× its observed mean latency (EWMA), i.e. roughly the tail beyond
    /// p95 for well-behaved latency distributions.
    pub hedge_after: Option<Duration>,
    /// Consecutive failures that open a replica's circuit breaker (the
    /// replica is skipped by selection until a half-open probe succeeds).
    /// `0` disables breakers.
    pub breaker_threshold: u32,
    /// How long an open breaker refuses everything before admitting one
    /// half-open probe.
    pub breaker_cooldown: Duration,
}

impl Default for ReplicationConfig {
    fn default() -> Self {
        Self {
            replicas: 1,
            retry_max: 2,
            retry_base: Duration::from_micros(500),
            hedge_after: None,
            breaker_threshold: 3,
            breaker_cooldown: Duration::from_millis(250),
        }
    }
}

/// Configuration for every stage behind [`QecEngine`](crate::QecEngine).
///
/// The defaults are the paper's: top-20% tf·idf candidate pruning, cosine
/// k-means with k-means++ seeding, value>1 greedy expansion with removals
/// and affected-only maintenance — plus a 128-entry shared arena cache, a
/// machine-sized persistent worker pool serving batches of up to 64
/// requests, and
/// sequential per-cluster expansion below 8 clusters.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Candidate-keyword selection for the expansion arena (Defs 2.1/2.2,
    /// §C pruning).
    pub arena: ArenaConfig,
    /// Default clusterer parameters (`k` itself comes from each request's
    /// `k_clusters`).
    pub kmeans: KMeansConfig,
    /// ISKR (Algorithm 1) parameters.
    pub iskr: IskrConfig,
    /// Exact-ΔF baseline parameters.
    pub exact: FMeasureConfig,
    /// Partial-elimination baseline parameters.
    pub pebc: PebcConfig,
    /// Shared cross-session arena cache.
    pub cache: CacheConfig,
    /// Persistent worker pool + batched serving.
    pub pool: PoolConfig,
    /// Admission control / load shedding.
    pub admission: AdmissionConfig,
    /// Replication + failover of the sharded scatter path.
    pub replication: ReplicationConfig,
    /// A single request asking for at least this many clusters
    /// (`k_clusters`) is served as a batch of one: its per-cluster
    /// expansions run as one flat task set on the worker pool — the same
    /// allocation-free, cancellable path
    /// [`expand_batch`](crate::QecEngine::expand_batch) takes — instead of
    /// the sequential loop on the calling thread. Parallelism wins at big
    /// `k` on cache hits, where expansion is the whole request; responses
    /// are bit-identical either way. `usize::MAX` keeps every single
    /// request sequential.
    pub fanout_min_clusters: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            arena: ArenaConfig::default(),
            kmeans: KMeansConfig::default(),
            iskr: IskrConfig::default(),
            exact: FMeasureConfig::default(),
            pebc: PebcConfig::default(),
            cache: CacheConfig::default(),
            pool: PoolConfig::default(),
            admission: AdmissionConfig::default(),
            replication: ReplicationConfig::default(),
            fanout_min_clusters: 8,
        }
    }
}
