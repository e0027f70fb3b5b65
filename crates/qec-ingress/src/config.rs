//! Front-door configuration and builder.

use std::sync::Arc;

use qec_engine::QecEngine;

use crate::door::Ingress;

/// Knobs of the batch collector. The collector never waits to fill a
/// chunk: once it is free it dispatches whatever is queued, so a chunk is
/// what arrived while the previous one was being served. Two numbers bound
/// it:
///
/// | knob | bounds… | default |
/// |---|---|---|
/// | [`batch_max`](Self::batch_max) | the requests one chunk takes from the queue | 32 |
/// | [`queue_cap`](Self::queue_cap) | *(admission)* refuses submissions beyond this depth | 4096 |
#[derive(Debug, Clone)]
pub struct IngressConfig {
    /// Maximum requests per dispatched chunk: a collector that finds more
    /// queued takes this many and leaves the rest for the next chunk. `0`
    /// means no fill bound (a chunk takes the whole queue). Values above
    /// the engine's own
    /// [`PoolConfig::batch_max`](qec_engine::PoolConfig::batch_max) are
    /// legal — the engine re-chunks internally.
    pub batch_max: usize,
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
