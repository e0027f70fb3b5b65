//! The async front door of the QEC serving stack: load shedding, queueing and
//! **deadline-aware batch collection** in front of [`QecEngine`].
//!
//! [`QecEngine::try_expand_batch_into`] amortises dispatch beautifully — but only
//! for callers that already *have* a batch in hand. A real service has
//! the opposite shape: thousands of independent connections, each holding
//! one request and blocking on its answer. This crate is the
//! owners/workers split that bridges the two (Helland's "Scalable OLTP in
//! the Cloud" framing): the **front door owns load shedding, queueing and
//! batch formation**; the engine's persistent
//! [`WorkerPool`](qec_core::WorkerPool) owns compute. Any number of
//! producer threads [`submit`](Ingress::submit) requests into one
//! multi-producer queue; a work-conserving collector thread takes
//! whatever is queued (up to [`batch_max`](IngressConfig::batch_max))
//! the moment it is free and dispatches it as one chunk through
//! [`QecEngine::try_expand_batch_into`]. Each submitter parks on a
//! per-request completion slot ([`Ticket`]) and wakes with exactly its
//! own `Result`. No async runtime: the whole crate is std-only
//! (`Mutex`/`Condvar`), like the rest of the workspace.
//!
//! The collector never holds a chunk open to fill it: a lone request on
//! an idle door is dispatched at once as a chunk of one, and requests
//! that arrive while a chunk is being served leave together as the next
//! chunk. Batches therefore form under load, where they amortise
//! dispatch, and add no latency anywhere else. The repo benchmark's
//! `ingress_open` workload measures the front door (`ingress.*` rows).
//!
//! # Quickstart
//!
//! ```
//! use qec_engine::{DocumentSpec, EngineBuilder};
//! use qec_ingress::{IngressBuilder, IngressRequest};
//!
//! let engine = EngineBuilder::new()
//!     .document(DocumentSpec::text("pie", "apple fruit pie baking recipe"))
//!     .document(DocumentSpec::text("inc", "apple iphone store cupertino"))
//!     .build_shared();
//! let ingress = IngressBuilder::new(engine).spawn();
//!
//! // Any thread may submit; each gets back its own completion ticket.
//! let ticket = ingress
//!     .submit(IngressRequest {
//!         k_clusters: 2,
//!         ..IngressRequest::new("apple")
//!     })
//!     .expect("queue has room");
//! let response = ticket.wait().expect("served");
//! assert_eq!(response.clusters().len(), 2);
//! ```
//!
//! # Queued-request semantics
//!
//! The front door reuses the engine's deadline/cancellation semantics
//! wholesale and extends them to time spent **in the queue**:
//!
//! * a request whose effective deadline (request `deadline`, `timeout`,
//!   or the [`CancelToken`]'s own deadline — merged to the earliest)
//!   expires while queued is completed with
//!   [`EngineError::DeadlineExceeded`] without ever reaching the engine;
//! * a request whose token is **manually tripped** while queued is
//!   completed with [`EngineError::Cancelled`], again without reaching
//!   the engine (once its chunk has been dispatched, a later trip
//!   resolves through the engine's degradation path instead — `Ok` with
//!   a finished-prefix response, exactly as a direct `try_expand` would);
//! * a queued request is only ever waiting behind the chunk in flight, so
//!   both refusals above are issued when that chunk returns and the
//!   collector sweeps the queue, not at the instant of expiry or trip;
//! * a submission arriving while
//!   [`queue_cap`](IngressConfig::queue_cap) requests are already queued
//!   is refused on the spot with [`EngineError::Overloaded`]. This
//!   bounded queue is the stack's only load shedder: the engine serves
//!   every request a chunk hands it.
//!
//! [`IngressStats`] snapshots the queue depth, batch-fill histogram,
//! close counts (queue emptied vs `batch_max` reached) and shed/expiry
//! tallies.
//!
//! [`QecEngine`]: qec_engine::QecEngine
//! [`QecEngine::try_expand_batch_into`]: qec_engine::QecEngine::try_expand_batch_into
//! [`CancelToken`]: qec_core::CancelToken
//! [`EngineError::DeadlineExceeded`]: qec_engine::EngineError::DeadlineExceeded
//! [`EngineError::Cancelled`]: qec_engine::EngineError::Cancelled
//! [`EngineError::Overloaded`]: qec_engine::EngineError::Overloaded

mod config;
mod door;
mod request;
mod stats;

pub use config::{IngressBuilder, IngressConfig};
pub use door::{Ingress, Ticket};
pub use request::IngressRequest;
pub use stats::{IngressStats, FILL_BUCKET_LABELS};

// The vocabulary a front-door caller needs, so simple servers can depend
// on `qec-ingress` alone.
pub use qec_core::{CancelSignal, CancelToken};
pub use qec_engine::{EngineBuilder, EngineError, ExpandResponse, ExpandStrategy, QecEngine};
pub use qec_index::QuerySemantics;
