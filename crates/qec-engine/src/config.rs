//! Unified engine configuration.
//!
//! One [`EngineConfig`] gathers every stage's knobs — arena candidate
//! selection, clustering, all three expansion strategies, the shared arena
//! cache and the worker pool — so a caller
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

/// Knobs of the persistent worker pool ([`qec_core::WorkerPool`]).
#[derive(Debug, Clone, Default)]
pub struct PoolConfig {
    /// Worker threads; `0` resolves
    /// [`qec_core::default_parallelism`] once at engine build.
    pub threads: usize,
}

/// Configuration for every stage behind [`QecEngine`](crate::QecEngine).
///
/// The defaults are the paper's: top-20% tf·idf candidate pruning, cosine
/// k-means with k-means++ seeding, value>1 greedy expansion with removals
/// — plus a 128-entry shared arena cache and a machine-sized persistent
/// worker pool.
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
    /// Persistent worker pool.
    pub pool: PoolConfig,
}
