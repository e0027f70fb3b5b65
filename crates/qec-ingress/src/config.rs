//! Front-door configuration and builder.

use std::sync::Arc;
use std::time::Duration;

use qec_engine::QecEngine;

use crate::door::Ingress;

/// Knobs of the batch collector. Three numbers describe the whole
/// latency-vs-throughput trade:
///
/// | knob | closes a chunk when… | default |
/// |---|---|---|
/// | [`batch_max`](Self::batch_max) | this many requests are queued | 32 |
/// | [`linger`](Self::linger) | the oldest queued request has waited this long | 200µs |
/// | [`queue_cap`](Self::queue_cap) | *(admission)* refuses submissions beyond this depth | 4096 |
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// Maximum requests per dispatched chunk: the collector closes a
    /// chunk the moment the queue reaches this depth, without waiting
    /// out the linger. `0` means no fill bound (chunks close on linger
    /// alone). Values above the engine's own
    /// [`PoolConfig::batch_max`](qec_engine::PoolConfig::batch_max) are
    /// legal — the engine re-chunks internally.
    pub batch_max: usize,
    /// How long the oldest queued request may wait before its chunk is
    /// closed anyway. This is the latency the front door is willing to
    /// *add* in exchange for fuller batches. `Duration::ZERO` dispatches
    /// whatever is queued the moment the collector sees it ("natural
    /// batching": a chunk is then what arrived while the previous one was
    /// being served, and a lone request never waits). It is not the
    /// default because which requests of a burst share a chunk then
    /// depends on how fast the collector thread wakes, and the two
    /// outcomes differ in latency; a linger longer than a burst takes to
    /// submit makes the chunk, and so the latency, the same every time.
    pub linger: Duration,
    /// Queue-depth backstop: a submission arriving when this many
    /// requests are already queued is refused with
    /// [`EngineError::Overloaded`](qec_engine::EngineError::Overloaded)
    /// (`in_flight` = queue depth, `max_in_flight` = this cap). `0`
    /// means unbounded. This bounds front-door memory and queueing delay;
    /// the engine's own `max_in_flight` admission still applies to each
    /// dispatched chunk member.
    pub queue_cap: usize,
}

impl Default for IngressConfig {
    fn default() -> Self {
        Self {
            batch_max: 32,
            linger: Duration::from_micros(200),
            queue_cap: 4096,
        }
    }
}

/// Builds an [`Ingress`] over a shared [`QecEngine`]
/// (see [`EngineBuilder::build_shared`](qec_engine::EngineBuilder::build_shared)).
///
/// The `#[must_use]` on the type makes every chained setter warn when its
/// return value is dropped — an unfinished builder configures nothing.
#[must_use = "builder setters return the updated builder; finish with spawn()"]
pub struct IngressBuilder {
    engine: Arc<QecEngine>,
    config: IngressConfig,
}

impl IngressBuilder {
    /// Builder over `engine` with default knobs.
    pub fn new(engine: Arc<QecEngine>) -> Self {
        Self {
            engine,
            config: IngressConfig::default(),
        }
    }

    /// Replaces the whole configuration.
    pub fn config(mut self, config: IngressConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets [`IngressConfig::batch_max`].
    pub fn batch_max(mut self, batch_max: usize) -> Self {
        self.config.batch_max = batch_max;
        self
    }

    /// Sets [`IngressConfig::linger`].
    pub fn linger(mut self, linger: Duration) -> Self {
        self.config.linger = linger;
        self
    }

    /// Sets [`IngressConfig::queue_cap`].
    pub fn queue_cap(mut self, queue_cap: usize) -> Self {
        self.config.queue_cap = queue_cap;
        self
    }

    /// Spawns the collector thread and opens the front door.
    pub fn spawn(self) -> Ingress {
        Ingress::spawn(self.engine, self.config)
    }
}
