//! The owned request type of the front door.
//!
//! [`ExpandRequest`] borrows its query string — the right shape for a
//! caller that blocks through the whole call, the wrong one for a request
//! that must outlive its submitter's stack frame inside a queue. An
//! [`IngressRequest`] owns the query and copies every pipeline knob, so
//! the collector can hold it for as long as it waits behind the chunk in
//! flight (or the engine needs it).

use std::time::{Duration, Instant};

use qec_core::CancelToken;
use qec_engine::{ExpandRequest, ExpandStrategy};
use qec_index::QuerySemantics;

/// One queued expansion request: an owned [`ExpandRequest`], field for
/// field. See [`ExpandRequest`] for the semantics of each knob; the
/// front-door additions are only about *time spent queued* — the
/// `deadline`/`timeout`/`cancel` trio is honoured from the moment
/// [`submit`](crate::Ingress::submit) accepts the request, not from the
/// moment the engine first sees it.
///
/// Construct with [`IngressRequest::new`] and override fields with struct
/// update syntax, exactly like `ExpandRequest`:
///
/// ```
/// use qec_ingress::{ExpandStrategy, IngressRequest};
/// let req = IngressRequest {
///     k_clusters: 3,
///     strategy: ExpandStrategy::Pebc,
///     ..IngressRequest::new("apple")
/// };
/// assert_eq!(req.query, "apple");
/// ```
#[derive(Debug, Clone)]
pub struct IngressRequest {
    /// The raw user query (owned; analysed by the engine at dispatch).
    pub query: String,
    /// Upper bound on the number of sense clusters.
    pub k_clusters: usize,
    /// Keep only the `top_k` ranked results as the expansion arena
    /// (`0` keeps every result).
    pub top_k: usize,
    /// Boolean semantics of the user query.
    pub semantics: QuerySemantics,
    /// Expansion strategy serving this request.
    pub strategy: ExpandStrategy,
    /// Rank-based pagination: first member document of each cluster.
    pub member_offset: usize,
    /// Rank-based pagination: members per cluster (`0` = all).
    pub member_limit: usize,
    /// Absolute deadline, honoured **while queued**: expiry before
    /// dispatch completes the request with
    /// [`EngineError::DeadlineExceeded`](qec_engine::EngineError::DeadlineExceeded)
    /// without reaching the engine; after dispatch the engine's own
    /// refuse-or-degrade semantics take over unchanged.
    pub deadline: Option<Instant>,
    /// Relative budget, resolved to `submit time + timeout` — queueing
    /// time counts against it, as a caller would expect of a front door.
    pub timeout: Option<Duration>,
    /// External cancellation. A manual trip while queued completes the
    /// request with
    /// [`EngineError::Cancelled`](qec_engine::EngineError::Cancelled);
    /// the token's deadline component merges with
    /// [`deadline`](Self::deadline)/[`timeout`](Self::timeout) to the
    /// earliest.
    pub cancel: CancelToken,
}

impl IngressRequest {
    /// A request for `query` with the same defaults as
    /// [`ExpandRequest::new`]: AND semantics, ISKR expansion, up to 5
    /// clusters, no truncation, no pagination, no deadline.
    pub fn new(query: impl Into<String>) -> Self {
        Self {
            query: query.into(),
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
    /// [`deadline`](Self::deadline), `now + timeout`, and the cancel
    /// token's own deadline — the same merge the engine applies at
    /// admission, pulled forward to submission time so the queue can
    /// honour it.
    pub(crate) fn effective_deadline(&self, now: Instant) -> Option<Instant> {
        [
            self.deadline,
            self.timeout.map(|t| now + t),
            self.cancel.deadline(),
        ]
        .into_iter()
        .flatten()
        .min()
    }

    /// The borrowed engine-facing view of this request, with the queue's
    /// already-resolved effective `deadline` (the `timeout` was folded in
    /// at submission — queueing time counts against the budget).
    pub(crate) fn as_expand(&self, deadline: Option<Instant>) -> ExpandRequest<'_> {
        ExpandRequest {
            query: &self.query,
            k_clusters: self.k_clusters,
            top_k: self.top_k,
            semantics: self.semantics,
            strategy: self.strategy,
            member_offset: self.member_offset,
            member_limit: self.member_limit,
            deadline,
            timeout: None,
            cancel: self.cancel.clone(),
        }
    }
}

impl From<&ExpandRequest<'_>> for IngressRequest {
    /// Copies a borrowed engine request into its owned front-door form.
    fn from(req: &ExpandRequest<'_>) -> Self {
        Self {
            query: req.query.to_string(),
            k_clusters: req.k_clusters,
            top_k: req.top_k,
            semantics: req.semantics,
            strategy: req.strategy,
            member_offset: req.member_offset,
            member_limit: req.member_limit,
            deadline: req.deadline,
            timeout: req.timeout,
            cancel: req.cancel.clone(),
        }
    }
}
