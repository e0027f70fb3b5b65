//! Unified engine configuration.
//!
//! One [`EngineConfig`] gathers every stage's knobs — arena candidate
//! selection, clustering, all three expansion strategies, the shared arena
//! cache, the worker pool and admission — so a caller
//! configures the whole pipeline in one place instead of threading config
//! structs through five crates by hand. A value no caller varies is a
//! private constant beside the code that reads it, not a field here.

use std::time::Duration;

use qec_cluster::KMeansConfig;
use qec_core::{ArenaConfig, FMeasureConfig, IskrConfig, PebcConfig};

/// Knobs of the cross-session shared arena cache
/// ([`SharedArenaCache`](crate::cache::SharedArenaCache)).
#[derive(Debug, Clone)]
pub struct CacheConfig {
    /// Maximum cached pipelines before LRU eviction. `0` turns the cache
    /// off: nothing is probed or published, every request rebuilds its
    /// pipeline and responses carry an empty
    /// [`CacheStats`](crate::CacheStats).
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

/// Knobs of the persistent worker pool
/// ([`qec_core::WorkerPool`]) and the batched serving path
/// ([`QecEngine::try_expand_batch_into`](crate::QecEngine::try_expand_batch_into)).
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads; `0` resolves
    /// [`qec_core::default_parallelism`] once at engine build.
    pub threads: usize,
    /// Maximum requests scheduled per inner batch: longer batch slices
    /// are served in chunks of this many requests, bounding the
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

/// Configuration for every stage behind [`QecEngine`](crate::QecEngine).
///
/// The defaults are the paper's: top-20% tf·idf candidate pruning, cosine
/// k-means with k-means++ seeding, value>1 greedy expansion with removals
/// — plus a 128-entry shared arena cache and a machine-sized persistent
/// worker pool serving batches of up to 64 requests.
#[derive(Debug, Clone, Default)]
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
}
