//! The front door itself: submission queue, collector thread, and
//! per-request completion slots.
//!
//! Concurrency shape
//! -----------------
//! One `Mutex<VecDeque<Pending>>` is the multi-producer submission queue;
//! submitters push under the lock and notify the collector's `Condvar`.
//! The collector is the queue's **single consumer** and is
//! work-conserving: it sleeps only while the queue is empty, and once it
//! is free it drains whatever is queued (up to `batch_max` requests) and
//! dispatches it at once through [`QecEngine::try_expand_batch_into`]
//! **outside the lock** — submitters are never blocked behind engine
//! work. A chunk is therefore what arrived while the previous one was
//! being served: a lone request on an idle door is a chunk of one, and
//! batches form under load and nowhere else. Completion travels back
//! through a per-request slot (`Mutex<Option<…>>` + `Condvar`), so each
//! submitter wakes with exactly its own result and nothing is ever handed
//! to the wrong caller.
//!
//! While a request is queued its deadline and cancel token stay live. A
//! queued request can only be waiting behind an in-flight chunk (or for
//! the collector to wake): the collector sweeps the queue when that chunk
//! returns and checks each request once more just before dispatch, so a
//! request that died in the queue is completed with the right typed error
//! without ever reaching the engine.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Instant;

use qec_core::CancelToken;
use qec_engine::{EngineError, ExpandRequest, ExpandResponse, QecEngine};

use crate::config::IngressConfig;
use crate::request::IngressRequest;
use crate::stats::{IngressStats, StatsCells};

/// One request in flight through the front door.
struct Pending {
    req: IngressRequest,
    /// Effective deadline resolved at submission (request deadline,
    /// timeout from submit time, token deadline — whichever is earliest).
    deadline: Option<Instant>,
    /// The request token with `deadline` merged in — what the queue
    /// polls, and exactly what the engine will poll after dispatch.
    token: CancelToken,
    slot: Arc<Slot>,
}

impl Pending {
    /// The typed error a still-queued request dies with, if its token
    /// says it should: a manual trip beats a lapsed deadline (matching
    /// `CancelToken::is_cancelled`'s check order).
    fn queue_error(&self, now: Instant) -> Option<EngineError> {
        if self.token.flag_tripped() {
            Some(EngineError::Cancelled)
        } else if self.deadline.is_some_and(|d| d <= now) {
            Some(EngineError::DeadlineExceeded)
        } else {
            None
        }
    }
}

/// The write-once completion cell a submitter parks on.
#[derive(Default)]
struct Slot {
    result: Mutex<Option<Result<ExpandResponse, EngineError>>>,
    ready: Condvar,
}

impl Slot {
    fn complete(&self, result: Result<ExpandResponse, EngineError>) {
        let mut cell = lock(&self.result);
        debug_assert!(cell.is_none(), "a slot completes exactly once");
        *cell = Some(result);
        self.ready.notify_all();
    }

    fn wait(&self) -> Result<ExpandResponse, EngineError> {
        let mut cell = lock(&self.result);
        loop {
            if let Some(result) = cell.take() {
                return result;
            }
            cell = self
                .ready
                .wait(cell)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    fn try_take(&self) -> Option<Result<ExpandResponse, EngineError>> {
        lock(&self.result).take()
    }

    fn is_done(&self) -> bool {
        lock(&self.result).is_some()
    }
}

/// A claim on one submitted request's eventual completion. Obtained from
/// [`Ingress::submit`]; redeem with [`wait`](Self::wait).
///
/// Dropping a ticket abandons the response (the request is still served —
/// or refused — and the result is discarded), which is the right shape
/// for a disconnected client; pair the drop with a
/// [`CancelSignal`](qec_core::CancelSignal) trip to stop paying for the
/// request too.
#[must_use = "a dropped Ticket abandons its response; call wait() (or keep it and poll try_take)"]
pub struct Ticket {
    slot: Arc<Slot>,
}

impl Ticket {
    /// Blocks until the request completes and returns its result: the
    /// engine's `Result`, or the queue's own typed refusal
    /// (`DeadlineExceeded` / `Cancelled`) if the request died before
    /// dispatch.
    pub fn wait(self) -> Result<ExpandResponse, EngineError> {
        self.slot.wait()
    }

    /// Non-blocking poll: the result if the request has completed,
    /// `None` if it is still queued or in flight. A taken result cannot
    /// be taken twice; call [`wait`](Self::wait) instead when blocking is
    /// acceptable.
    pub fn try_take(&self) -> Option<Result<ExpandResponse, EngineError>> {
        self.slot.try_take()
    }

    /// Whether the request has completed (its result is ready to take).
    pub fn is_done(&self) -> bool {
        self.slot.is_done()
    }
}

/// Queue state behind the mutex.
struct State {
    queue: VecDeque<Pending>,
    shutdown: bool,
}

/// Everything the collector thread and the submitters share.
struct Shared {
    engine: Arc<QecEngine>,
    config: IngressConfig,
    state: Mutex<State>,
    /// Signalled on every push and on shutdown; only the collector waits.
    arrived: Condvar,
    stats: StatsCells,
}

/// The front door: a handle owning the collector thread. Shared across
/// submitter threads by reference (or `Arc`); dropping it drains the
/// queue (every queued request is still dispatched or refused — no
/// submitter is left parked) and joins the collector.
pub struct Ingress {
    shared: Arc<Shared>,
    collector: Option<JoinHandle<()>>,
}

impl std::fmt::Debug for Ingress {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Ingress")
            .field("config", &self.shared.config)
            .field("stats", &self.stats())
            .finish_non_exhaustive()
    }
}

impl Ingress {
    /// Opens the front door over `engine` (use
    /// [`IngressBuilder`](crate::IngressBuilder) for the ergonomic form).
    pub(crate) fn spawn(engine: Arc<QecEngine>, config: IngressConfig) -> Self {
        let shared = Arc::new(Shared {
            engine,
            config,
            state: Mutex::new(State {
                queue: VecDeque::new(),
                shutdown: false,
            }),
            arrived: Condvar::new(),
            stats: StatsCells::default(),
        });
        let for_collector = Arc::clone(&shared);
        let collector = std::thread::Builder::new()
            .name("qec-ingress".into())
            .spawn(move || collect(&for_collector))
            .expect("spawn qec-ingress collector thread");
        Self {
            shared,
            collector: Some(collector),
        }
    }

    /// Submits one request and returns its completion [`Ticket`].
    ///
    /// Refusals are immediate and typed:
    ///
    /// * queue already at [`queue_cap`](IngressConfig::queue_cap) →
    ///   [`EngineError::Overloaded`] with the current `queue_depth` and
    ///   the `queue_cap` it hit — the only place in the stack that sheds
    ///   load;
    /// * effective deadline already lapsed →
    ///   [`EngineError::DeadlineExceeded`];
    /// * cancel token already tripped → [`EngineError::Cancelled`].
    ///
    /// An accepted request is queued until the collector is free (at
    /// once on an idle door, else when the chunk in flight returns; up to
    /// [`batch_max`](IngressConfig::batch_max) queued requests leave
    /// together) and completes with whatever the engine answered — or
    /// with the queue's own refusal if its deadline or token tripped
    /// while it was still queued.
    #[must_use = "dropping the Result discards the shed/refusal; handle the EngineError"]
    pub fn submit(&self, req: IngressRequest) -> Result<Ticket, EngineError> {
        let now = Instant::now();
        let deadline = req.effective_deadline(now);
        if req.cancel.flag_tripped() {
            StatsCells::bump(&self.shared.stats.cancelled_in_queue);
            return Err(EngineError::Cancelled);
        }
        if deadline.is_some_and(|d| d <= now) {
            StatsCells::bump(&self.shared.stats.expired_in_queue);
            return Err(EngineError::DeadlineExceeded);
        }
        let token = req.cancel.with_deadline(deadline);
        let slot = Arc::new(Slot::default());
        let ticket = Ticket {
            slot: Arc::clone(&slot),
        };
        {
            let mut st = lock(&self.shared.state);
            let cap = self.shared.config.queue_cap;
            if st.shutdown || (cap > 0 && st.queue.len() >= cap) {
                let depth = st.queue.len();
                drop(st);
                StatsCells::bump(&self.shared.stats.queue_sheds);
                return Err(EngineError::Overloaded {
                    queue_depth: depth,
                    queue_cap: cap,
                });
            }
            st.queue.push_back(Pending {
                req,
                deadline,
                token,
                slot,
            });
        }
        StatsCells::bump(&self.shared.stats.submitted);
        self.shared.arrived.notify_one();
        Ok(ticket)
    }

    /// Submit-and-wait convenience: blocks the calling thread through
    /// queueing and dispatch, like a per-connection handler would.
    pub fn expand(&self, req: IngressRequest) -> Result<ExpandResponse, EngineError> {
        self.submit(req)?.wait()
    }

    /// The engine behind the front door (e.g. to
    /// [`recycle`](QecEngine::recycle) responses back into its pools).
    pub fn engine(&self) -> &Arc<QecEngine> {
        &self.shared.engine
    }

    /// The collector's configuration.
    pub fn config(&self) -> &IngressConfig {
        &self.shared.config
    }

    /// A snapshot of the front door's counters.
    pub fn stats(&self) -> IngressStats {
        let depth = lock(&self.shared.state).queue.len();
        self.shared.stats.snapshot(depth)
    }
}

impl Drop for Ingress {
    /// Graceful shutdown: refuses new submissions, lets the collector
    /// drain and dispatch everything still queued (so no submitter is
    /// left parked on a slot), then joins it.
    fn drop(&mut self) {
        lock(&self.shared.state).shutdown = true;
        self.shared.arrived.notify_all();
        if let Some(collector) = self.collector.take() {
            let _ = collector.join();
        }
    }
}

/// The collector loop. See the module docs for the phase structure.
fn collect(shared: &Shared) {
    let engine = &shared.engine;
    let fill_max = match shared.config.batch_max {
        0 => usize::MAX,
        n => n,
    };
    let mut chunk: Vec<Pending> = Vec::new();
    let mut results: Vec<Result<ExpandResponse, EngineError>> = Vec::new();

    loop {
        let mut st = lock(&shared.state);
        // Phase 1: wait for work, and only while there is none (or for
        // shutdown with an empty queue). The sweep refuses whatever died
        // while the previous chunk was in flight.
        loop {
            sweep(&mut st.queue, &shared.stats);
            if !st.queue.is_empty() {
                break;
            }
            if st.shutdown {
                return;
            }
            st = shared
                .arrived
                .wait(st)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }

        // Phase 2: drain up to a chunk at once, applying the
        // authoritative per-request check at the last moment before
        // dispatch. The close is counted as a shutdown drain, as full
        // (`batch_max` reached) or, in `linger_closes`, as emptying the
        // queue below `batch_max`.
        let closes = if st.shutdown {
            &shared.stats.drain_closes
        } else if st.queue.len() >= fill_max {
            &shared.stats.full_closes
        } else {
            &shared.stats.linger_closes
        };
        let now = Instant::now();
        chunk.clear();
        while chunk.len() < fill_max {
            let Some(p) = st.queue.pop_front() else { break };
            match p.queue_error(now) {
                Some(EngineError::Cancelled) => {
                    StatsCells::bump(&shared.stats.cancelled_in_queue);
                    p.slot.complete(Err(EngineError::Cancelled));
                }
                Some(e) => {
                    StatsCells::bump(&shared.stats.expired_in_queue);
                    p.slot.complete(Err(e));
                }
                None => chunk.push(p),
            }
        }
        drop(st);
        if chunk.is_empty() {
            continue;
        }
        StatsCells::bump(closes);
        shared.stats.record_batch(chunk.len());

        // Phase 3: dispatch outside the lock. The engine's own panic
        // boundaries turn faults into per-request errors; the extra
        // catch_unwind here is the last line of defence keeping the
        // collector alive (a dead collector would strand every parked
        // submitter forever).
        let dispatched = catch_unwind(AssertUnwindSafe(|| {
            let reqs: Vec<ExpandRequest<'_>> =
                chunk.iter().map(|p| p.req.as_expand(p.deadline)).collect();
            results.clear();
            engine.try_expand_batch_into(&reqs, &mut results);
        }));
        match dispatched {
            Ok(()) => {
                debug_assert_eq!(results.len(), chunk.len());
                for (p, result) in chunk.drain(..).zip(results.drain(..)) {
                    // Not-quite-whole completions are worth counting at
                    // the front door: `Ok` responses that a deadline
                    // degraded or a shard outage made partial.
                    if let Ok(resp) = &result {
                        if resp.stats.degraded {
                            StatsCells::bump(&shared.stats.degraded);
                        }
                        if resp.stats.shards_omitted > 0 {
                            StatsCells::bump(&shared.stats.partial);
                        }
                    }
                    p.slot.complete(result);
                }
            }
            Err(_) => {
                // `results` may hold stale entries from the unwound call;
                // every chunk member fails, none is left unanswered.
                results.clear();
                for p in chunk.drain(..) {
                    p.slot.complete(Err(EngineError::ExpansionFailed));
                }
            }
        }
    }
}

/// Completes and removes every queued request whose deadline or token has
/// tripped — the "honoured while queued" half of the front-door contract.
fn sweep(queue: &mut VecDeque<Pending>, stats: &StatsCells) {
    let now = Instant::now();
    queue.retain(|p| match p.queue_error(now) {
        None => true,
        Some(EngineError::Cancelled) => {
            StatsCells::bump(&stats.cancelled_in_queue);
            p.slot.complete(Err(EngineError::Cancelled));
            false
        }
        Some(e) => {
            StatsCells::bump(&stats.expired_in_queue);
            p.slot.complete(Err(e));
            false
        }
    });
}

/// Locks a mutex, recovering from poisoning (state is plain data; a
/// panicked peer cannot leave it logically torn — completions are
/// write-once and the queue is drained defensively).
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|poisoned| poisoned.into_inner())
}
