//! Expansion algorithms for the QEC reproduction (the paper's core).
//!
//! Built on the retrieval substrate of `qec-index`, this crate contains
//! everything downstream of "the user query has been run and clustered":
//!
//! * [`ResultSet`] — dense fixed-universe bitsets over the result arena
//!   (re-exported from the shared `qec-bitset` foundation crate), with the
//!   fused counting kernels ISKR's inner loop runs on.
//! * [`query_quality`] / [`overall_score`] — weighted precision/recall/
//!   F-measure and the overall harmonic-mean score (§2, Eq. 1).
//! * the [`ExpansionArena`] / [`QecInstance`] problem model
//!   (Definitions 2.1/2.2), built from a request's gathered term
//!   occurrences (`qec_index::TermMatrix`).
//! * [`iskr()`](crate::iskr()) — Iterative Single-Keyword Refinement
//!   (Algorithm 1), with a reusable [`IskrScratch`] making every move
//!   valuation allocation-free.
//! * [`fmeasure_refine`] — the exact-ΔF greedy baseline (§5's "F-measure"
//!   method).
//! * [`pebc()`](crate::pebc()) — the partial-elimination baseline:
//!   one-shot static valuation, no maintenance, no removals.
//! * the [`Expander`] strategy trait unifying the three algorithms behind
//!   one interface (what `qec-engine` serves through).
//! * [`CancelToken`] — cooperative cancellation threaded through the
//!   kernels' `*_cancellable` entry points; a tripped deadline yields
//!   `None` rather than a torn result, which is what lets the serving
//!   layer degrade a response to its finished prefix.
//! * the shared state a pooled fan-out of independent per-cluster
//!   expansions needs: [`ScratchPool`] (warmed per-task scratches) and
//!   [`DisjointSlots`] (one output slot per task index).
//! * the long-lived [`WorkerPool`] every fan-out runs on (the
//!   offline-build substitute for rayon): fixed workers over one shared
//!   FIFO queue of indexed batches, whose indices are claimed under the
//!   queue lock; scheduling a batch allocates nothing.
//! * [`MergeScratch`] — the gather primitive of shard-partitioned
//!   serving: a reusable k-way merge scratch for per-shard sorted lists.
//! * [`Backoff`] — deadline-aware capped exponential backoff with
//!   seeded jitter, the wait policy behind replica failover retries.

mod bitset;
mod cancel;
mod expander;
mod fmeasure;
mod iskr;
mod metrics;
mod parallel;
mod pebc;
mod pool;
mod problem;
mod retry;
mod scatter;

pub use bitset::ResultSet;
pub use cancel::{CancelSignal, CancelToken};
pub use expander::{ExactDeltaF, Expander, Iskr, Pebc};
pub use fmeasure::{
    fmeasure_refine, fmeasure_refine_into, fmeasure_refine_into_cancellable, FMeasureConfig,
};
pub use iskr::{iskr, iskr_into, iskr_into_cancellable, ExpandedQuery, IskrConfig, IskrScratch};
pub use metrics::{fmeasure, overall_score, query_quality, uniform_weights, QueryQuality};
pub use parallel::{DisjointSlots, ScratchPool};
pub use pebc::{pebc, pebc_into, pebc_into_cancellable, PebcConfig};
pub use pool::{default_parallelism, WorkerPool};
pub use problem::{ArenaConfig, CandId, Candidate, ExpansionArena, QecInstance, SetSlot};
// The shared kernel crate's own names, for callers that want the
// positional-query sidecar or to name the type universe-neutrally.
pub use qec_bitset::{Bitset, RankIndex};
pub use retry::Backoff;
pub use scatter::MergeScratch;
