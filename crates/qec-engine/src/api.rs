//! The request/response types of the serving API.
//!
//! One request describes the whole paper pipeline for one user query —
//! retrieve, rank, cluster by sense, expand one query per cluster — and
//! one response carries the per-cluster expansions plus serving stats.
//! Responses are designed for **buffer recycling**: every collection they
//! hold is reused across requests when handed back through
//! [`QecEngine::recycle`](crate::QecEngine::recycle), which is what lets a
//! warmed [`expand`](crate::QecEngine::expand) run without heap
//! allocation.

use std::time::{Duration, Instant};

use qec_core::{CancelToken, QueryQuality};
use qec_index::{DocId, QuerySemantics};
use qec_text::TermId;

use crate::cache::CacheStats;

/// Why the engine refused or could not finish a request. Returned by the
/// fallible serving entry points
/// ([`try_expand`](crate::QecEngine::try_expand) /
/// [`try_expand_batch_into`](crate::QecEngine::try_expand_batch_into)).
///
/// The split between *errors* and *degradation* is deliberate: a request
/// whose pipeline was available but whose deadline tripped mid-expansion
/// still returns `Ok` with [`ExpandStats::degraded`] set and the finished
/// clusters intact; an error means **nothing** was produced for the
/// request — a front door refused it, its deadline expired before a
/// pipeline existed, or its pipeline build/expansion failed outright.
/// The engine itself never sheds load: only the `qec-ingress` front door
/// refuses a request for being one too many.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineError {
    /// Load shedding at the front door: the `qec-ingress` queue already
    /// held `queue_cap` requests when this one was submitted. Retry later
    /// (or against another replica); the request never reached the
    /// engine.
    Overloaded {
        /// Requests queued at the door when this one was refused.
        queue_depth: usize,
        /// The door's configured queue bound (`IngressConfig::queue_cap`).
        queue_cap: usize,
    },
    /// The request's deadline expired before a pipeline was available —
    /// before dispatch, or while waiting on another request's in-flight build
    /// of the same cache key. (A deadline tripping *after* the pipeline is
    /// available degrades the response instead; see [`ExpandStats::degraded`].)
    DeadlineExceeded,
    /// Building the pipeline (retrieve → rank → cluster → arena) for this
    /// request's cache key panicked or hit an injected fault. Recent
    /// failures are memoized briefly, so a poisoned key degrades to fast
    /// per-caller errors instead of a rebuild stampede.
    BuildFailed,
    /// A per-cluster expansion task panicked. Sibling requests of the same
    /// batch are unaffected.
    ExpansionFailed,
    /// The request's external [`CancelToken`] was tripped **manually**
    /// (client disconnect, shutdown) while the request was still queued in
    /// a front door — before the engine ever saw it. The engine's own
    /// entry points never produce this: once a pipeline exists, a tripped
    /// token *degrades* the response instead (see
    /// [`ExpandStats::degraded`]). Produced by
    /// `qec-ingress` when a queued request's token fires before its chunk
    /// is dispatched.
    Cancelled,
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::Overloaded {
                queue_depth,
                queue_cap,
            } => write!(
                f,
                "front door queue full: {queue_depth} requests queued (cap {queue_cap})"
            ),
            Self::DeadlineExceeded => {
                write!(f, "deadline expired before a pipeline was available")
            }
            Self::BuildFailed => write!(f, "pipeline build failed"),
            Self::ExpansionFailed => write!(f, "cluster expansion failed"),
            Self::Cancelled => write!(f, "request cancelled while queued, before dispatch"),
        }
    }
}

impl std::error::Error for EngineError {}

/// Which [`Expander`](qec_core::Expander) strategy serves a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum ExpandStrategy {
    /// Iterative Single-Keyword Refinement (the paper's Algorithm 1) —
    /// the default serving strategy, allocation-free when warmed.
    #[default]
    Iskr,
    /// Exact-ΔF greedy refinement (§5's "F-measure" baseline). Highest
    /// quality, 1–2 orders slower (full revaluation per iteration);
    /// allocation-free when warmed, like the others.
    ExactDeltaF,
    /// The partial-elimination baseline: one-shot static valuation with no
    /// maintenance and no removals. Cheapest, lowest quality;
    /// allocation-free when warmed.
    Pebc,
}

/// One expansion request: the user query plus pipeline knobs.
///
/// Construct with [`ExpandRequest::new`] and override fields with struct
/// update syntax:
///
/// ```
/// use qec_engine::{ExpandRequest, ExpandStrategy};
/// let req = ExpandRequest {
///     k_clusters: 3,
///     strategy: ExpandStrategy::Pebc,
///     ..ExpandRequest::new("apple")
/// };
/// assert_eq!(req.query, "apple");
/// ```
#[derive(Debug, Clone)]
pub struct ExpandRequest<'q> {
    /// The raw user query (analysed through the corpus analyzer:
    /// tokenized, stopword-filtered, stemmed).
    pub query: &'q str,
    /// Upper bound on the number of sense clusters (the paper's
    /// user-chosen granularity `k`). The engine clamps it to 64 before
    /// anything reads it — cache key, clustering and response all see the
    /// clamped value — because k-means working memory grows with `k` and
    /// this field arrives with the request.
    pub k_clusters: usize,
    /// Keep only the `top_k` ranked results as the expansion arena
    /// (the paper works on top-30/100/500); `0` keeps every result.
    pub top_k: usize,
    /// Boolean semantics of the user query (the paper's default is AND).
    pub semantics: QuerySemantics,
    /// Expansion strategy serving this request.
    pub strategy: ExpandStrategy,
    /// Rank-based pagination: skip this many member documents of every
    /// cluster before filling [`ClusterExpansion::docs`]. Served through
    /// each cached cluster's `RankIndex` sidecar (`select(offset)` jumps
    /// straight to the page), so deep pages cost a cached-block lookup,
    /// not a prefix scan. Pagination shapes the response only — it is
    /// **not** part of the cache key, so every page of a query shares one
    /// pipeline entry.
    pub member_offset: usize,
    /// Rank-based pagination: keep at most this many member documents per
    /// cluster (`0` keeps every member from `member_offset` on).
    pub member_limit: usize,
    /// Absolute deadline for this request. Once it passes, un-started
    /// cluster expansions are skipped and the response is returned
    /// **degraded** (finished clusters only, [`ExpandStats::degraded`]
    /// set); a request whose deadline has already expired when it reaches the engine —
    /// or expires while waiting on another caller's in-flight build — is
    /// refused with [`EngineError::DeadlineExceeded`]. `None` means no
    /// deadline. Combined with [`timeout`](Self::timeout) by taking the
    /// earlier of the two.
    pub deadline: Option<Instant>,
    /// Relative cost budget: resolved to `now + timeout` when the request reaches the engine and
    /// then behaves exactly like [`deadline`](Self::deadline). `None`
    /// means no budget.
    pub timeout: Option<Duration>,
    /// External cancellation (client disconnect, shutdown): a tripped
    /// token degrades the response the same way a passed deadline does.
    /// Defaults to the inert token.
    pub cancel: CancelToken,
}

impl<'q> ExpandRequest<'q> {
    /// A request for `query` with the paper's defaults: AND semantics,
    /// ISKR expansion, up to 5 clusters, no result truncation, no member
    /// pagination.
    pub fn new(query: &'q str) -> Self {
        Self {
            query,
            k_clusters: 5,
            top_k: 0,
            semantics: QuerySemantics::And,
            strategy: ExpandStrategy::Iskr,
            member_offset: 0,
            member_limit: 0,
            deadline: None,
            timeout: None,
            cancel: CancelToken::none(),
        }
    }

    /// The effective deadline as of `now`: the earliest of
    /// [`deadline`](Self::deadline), `now + timeout`, and the
    /// [`cancel`](Self::cancel) token's own deadline component. Folding
    /// the token's deadline in means a token built with
    /// [`CancelToken::until`] behaves exactly like a request deadline
    /// everywhere a deadline is consulted — refused before dispatch once
    /// expired, bounding single-flight cache waits — instead of only
    /// tripping mid-expansion (manual token *flags* still degrade rather
    /// than refuse; only the clock component is merged here).
    pub(crate) fn effective_deadline(&self, now: Instant) -> Option<Instant> {
        let merged = match (self.deadline, self.timeout.map(|t| now + t)) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        match (merged, self.cancel.deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        }
    }
}

/// One cluster's share of a response: its members and its expanded query.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ClusterExpansion {
    /// The cluster's documents, in arena (rank) order — restricted to the
    /// requested page when the request set
    /// [`member_offset`](ExpandRequest::member_offset) /
    /// [`member_limit`](ExpandRequest::member_limit).
    pub docs: Vec<DocId>,
    /// Terms added to the user query, in ascending candidate order —
    /// resolve to strings with
    /// [`Corpus::term_name`](qec_index::Corpus::term_name).
    pub added: Vec<TermId>,
    /// Weighted precision/recall/F of the expanded query against the
    /// cluster.
    pub quality: QueryQuality,
}

/// Serving statistics of one [`expand`](crate::QecEngine::expand) call.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExpandStats {
    /// Results in the expansion arena (after `top_k` truncation).
    pub results: usize,
    /// Candidate keywords considered for expansion.
    pub candidates: usize,
    /// Non-empty sense clusters expanded.
    pub clusters: usize,
    /// Whether this request was served from the engine's shared arena
    /// cache (another request — any session, any thread — already built
    /// the pipeline for the same analysed terms, semantics, `k`, `top_k`,
    /// strategy)
    /// instead of re-running retrieval + clustering.
    pub arena_cache_hit: bool,
    /// [`Expander::name`](qec_core::Expander::name) of the serving
    /// strategy.
    pub strategy: &'static str,
    /// `true` when the request's deadline (or cancellation token) tripped
    /// mid-expansion: [`clusters`](ExpandResponse::clusters) holds only
    /// the expansions that finished in time — a **prefix** of what the
    /// undegraded response would contain, each entry bit-identical to its
    /// undegraded counterpart (cancelled clusters are dropped whole, never
    /// half-refined). [`clusters`](ExpandStats::clusters) counts the kept
    /// prefix.
    pub degraded: bool,
    /// Shards given up when this request's pipeline was built (every
    /// attempt failed until the retries were spent, or the next backoff
    /// would outlive the deadline):
    /// the response is **explicitly partial** — the merged ranking over
    /// the surviving shards is intact and bit-identical to what a
    /// healthy engine restricted to those shards would produce, but the
    /// omitted shards' documents are absent (never a silently wrong
    /// ranking). `0` on the flat (unsharded) path and on fully healthy
    /// scatters. [`ExpandResponse::omitted_shards`] lists which shards.
    pub shards_omitted: usize,
    /// Snapshot of the shared cache's cumulative hit/miss/eviction
    /// counters and occupancy, taken after this request's probe.
    pub cache: CacheStats,
}

/// Response to one [`expand`](crate::QecEngine::expand) call.
///
/// Slot storage is recycled: the engine keeps more [`ClusterExpansion`]
/// slots allocated than the current request used, so `clusters()` exposes
/// only the live prefix.
#[derive(Debug, Default)]
pub struct ExpandResponse {
    slots: Vec<ClusterExpansion>,
    used: usize,
    omitted: Vec<u32>,
    /// Serving statistics for this request.
    pub stats: ExpandStats,
}

impl ExpandResponse {
    /// The per-cluster expansions, one entry per non-empty cluster.
    pub fn clusters(&self) -> &[ClusterExpansion] {
        &self.slots[..self.used]
    }

    /// Indices of the shards omitted from this response (ascending; see
    /// [`ExpandStats::shards_omitted`]). Empty on the flat path and on
    /// fully healthy scatters.
    pub fn omitted_shards(&self) -> &[u32] {
        &self.omitted
    }

    /// Marks `n` slots live, growing the slot pool if needed. Stale slots
    /// beyond `n` keep their buffers for future reuse.
    pub(crate) fn begin(&mut self, n: usize) {
        if self.slots.len() < n {
            self.slots.resize_with(n, ClusterExpansion::default);
        }
        self.used = n;
        self.omitted.clear();
    }

    /// Records the shards this response is missing (recycles the
    /// response's own buffer; the warmed all-healthy path copies nothing).
    pub(crate) fn set_omitted(&mut self, shards: &[u32]) {
        self.omitted.clear();
        self.omitted.extend_from_slice(shards);
    }

    /// Mutable access to live slot `i` for the engine to fill.
    pub(crate) fn slot(&mut self, i: usize) -> &mut ClusterExpansion {
        debug_assert!(i < self.used);
        &mut self.slots[i]
    }

    /// Shrinks the live prefix to `n` slots — how a degraded response
    /// drops the clusters its deadline cut off. The truncated slots keep
    /// their buffers (recycling discipline unchanged).
    pub(crate) fn retain_live(&mut self, n: usize) {
        debug_assert!(n <= self.used);
        self.used = n;
    }
}
