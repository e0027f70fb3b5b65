//! The cross-session shared arena cache: an LRU of `Arc`-shared pipeline
//! state keyed on **analysed query terms**.
//!
//! Why analysed terms
//! ------------------
//! A raw-string key treats `"apples"`, `"apple"` and `"  APPLE ,"` as three
//! different queries although every pipeline stage downstream of the
//! analyzer sees the identical term list. Keying on the analysed terms —
//! sorted, because retrieval, ranking, clustering and arena construction
//! are all term-order-invariant — means the Nth user of a hot query pays
//! only expansion cost no matter how they spelled it. Distinct analyses
//! never collide: the full key (terms with multiplicity, semantics,
//! `k_clusters`, `top_k`, strategy) is compared on every probe, not just
//! its hash. The strategy is part of the key so requests served by
//! different [`ExpandStrategy`]s never share a pipeline entry — each
//! strategy's responses stay attributable to its own build.
//!
//! Sharing model
//! -------------
//! Entries are `Arc<CachedPipeline>`: the immutable expansion arena, the
//! result-doc list, and each cluster's `(C, U)` bitsets plus rank
//! sidecar. A hit clones the `Arc`
//! and the session expands through borrowing instances
//! ([`qec_core::QecInstance::from_shared_parts`]); all mutable state (ISKR
//! scratch, expansion output, response buffers) stays session-local. An
//! entry evicted while a request still holds its `Arc` stays fully valid
//! until that last holder drops — eviction only severs the cache's
//! reference.
//!
//! Single-flight builds
//! --------------------
//! A cold-start stampede on one hot key used to make every racing session
//! build the (deterministic, identical) pipeline. The cache now keeps a
//! per-key **in-progress latch**: the first miss returns a
//! [`BuildTicket`] and registers the key as building; every other session
//! probing the same key blocks on the latch until the builder
//! [`publish`](BuildTicket::publish)es, then resolves as a hit on the
//! freshly inserted `Arc`. Exactly one build runs per key per cold start
//! (`misses == 1` however many sessions race — asserted by the stampede
//! test). A builder that dies without publishing abandons the latch and
//! wakes the waiters; the next one becomes the builder.
//!
//! Recency is arrival order
//! ------------------------
//! The recency list is ordered by the **arrival stamp**
//! ([`SharedArenaCache::arrival`]) of each key's latest request, not by
//! the moment a probe or a publish happened to take the lock. The engine
//! stamps every request of a chunk as the chunk enters serving (a single
//! `try_expand` is a chunk of one); a hit moves the entry to
//! that stamp's place and a published build is linked in at the place of
//! the request that took its ticket — behind every entry requested while
//! it was building. What is evicted is therefore a function of the order
//! requests came in and never of how long a build ran or how long its
//! thread sat descheduled: a stalled builder does not re-enter as the
//! hottest entry, and cycling through more distinct keys than the cache
//! holds misses every time however the serving threads interleave. (Were
//! recency the publish time, a build that outlasts `keys − capacity`
//! sibling requests would still be cached one cycle later — and at ~50 µs
//! a cold request, one lost scheduler slice is that long.) A build
//! overtaken by a whole cache's worth of requests is past the capacity
//! when it publishes and is not retained; its waiters build for themselves
//! (the `Uncacheable` latch state).
//!
//! Eviction bounds
//! ---------------
//! Two limits, evicting from the LRU tail when **either** trips: an entry
//! count (`capacity`) and an optional byte budget (`max_bytes`, `0` =
//! unbounded) weighing each entry by its pipeline's heap footprint
//! ([`CachedPipeline::heap_bytes`]: arena + result-doc list + per-cluster
//! bitsets + rank sidecars). The byte budget is what keeps memory bounded under mixed
//! `top_k` workloads, where a top-500 entry costs ~100× a top-30 one and
//! an entry count alone says nothing about bytes. Occupancy is surfaced
//! as [`CacheStats::bytes_in_use`].
//!
//! Allocation discipline
//! ---------------------
//! A **probe hit is allocation-free**: hashing the borrowed key, the bucket
//! lookup, the recency-list relink and the `Arc` clone all stay off the
//! heap. The **miss path is allowed to allocate** exactly: the owned copy
//! of the key, the in-progress latch, the new entry (slab slot + bucket
//! vector growth), and the `CachedPipeline` itself — which the engine
//! builds outside the cache lock. Eviction frees memory but allocates
//! nothing.
//!
//! Structure: a slab of entries carrying an intrusive doubly-linked
//! recency list (MRU at head, descending by arrival stamp), plus hash
//! buckets (`FxHashMap<u64, Vec<slot>>`) resolving full-key equality per
//! bucket entry. Every operation is O(1) amortised in the entry count,
//! plus one list step per request that overtook the one being placed.

use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::{Duration, Instant};

use qec_core::{ExpansionArena, RankIndex, ResultSet};
use qec_index::{DocId, QuerySemantics};
use qec_text::fxhash::{FxHashMap, FxHasher};
use qec_text::TermId;

use crate::api::ExpandStrategy;

/// One cluster's cached expansion inputs (immutable once cached). Member
/// documents are **not** duplicated per cluster: the cluster bitset plus
/// the pipeline-wide [`CachedPipeline::docs`] list resolve any member, and
/// the [`RankIndex`] sidecar answers positional queries — the `n`-th
/// member of the page a paginated request asks for — in one cached-block
/// jump instead of a prefix scan.
#[derive(Debug)]
pub struct CachedCluster {
    /// The cluster bitset `C` over the arena.
    pub cluster: ResultSet,
    /// The out-of-cluster universe `U` (arena complement of `C`).
    pub universe: ResultSet,
    /// Cached-popcount sidecar over `cluster`, built once at pipeline
    /// construction (the set is frozen, the sidecar's ideal contract) —
    /// backs `select`-based member pagination on the serving path.
    pub rank: RankIndex,
}

impl CachedCluster {
    /// Builds a cached cluster from its bitset over the arena, deriving
    /// the universe complement and the rank sidecar.
    pub fn new(cluster: ResultSet, full: &ResultSet) -> Self {
        Self {
            universe: full.and_not(&cluster),
            rank: RankIndex::build(&cluster),
            cluster,
        }
    }
}

/// Everything the retrieve → rank → cluster → arena pipeline built for one
/// analysed query: the shared, immutable half of a request. Sessions keep
/// only mutable scratch local.
#[derive(Debug)]
pub struct CachedPipeline {
    /// The expansion arena (results, weights, candidates).
    pub arena: ExpansionArena,
    /// Every retrieved document in arena (rank) order: arena index `j` is
    /// document `docs[j]`. Shared by all clusters — member lists are
    /// sliced out of this through each cluster's bitset instead of being
    /// stored per cluster.
    pub docs: Vec<DocId>,
    /// Per-cluster `(C, U)` pairs and rank sidecars.
    pub clusters: Vec<CachedCluster>,
    /// Shards whose every replica was unavailable during the scatter this
    /// pipeline was built from (ascending shard indices; empty on the
    /// flat path and on healthy scatters). A pipeline with omissions is
    /// **never published** to the shared cache — it serves only the
    /// request that built it, so the cache heals for free once the
    /// shard recovers.
    pub omitted_shards: Vec<u32>,
}

impl CachedPipeline {
    /// Heap footprint of the cached state in bytes — the weight the
    /// byte-budget eviction bound charges this entry.
    pub fn heap_bytes(&self) -> usize {
        use std::mem::size_of;
        self.arena.heap_bytes()
            + self.docs.capacity() * size_of::<DocId>()
            + self.omitted_shards.capacity() * size_of::<u32>()
            + self
                .clusters
                .iter()
                .map(|c| {
                    size_of::<CachedCluster>()
                        + c.cluster.heap_bytes()
                        + c.universe.heap_bytes()
                        + c.rank.heap_bytes()
                })
                .sum::<usize>()
    }
}

#[cfg(test)]
thread_local! {
    /// Test hook: taken and run by the next [`CachedPipeline`] dropped on
    /// this thread, so a test can act while an eviction's free is under way.
    static ON_PIPELINE_DROP: std::cell::RefCell<Option<Box<dyn FnOnce()>>> =
        const { std::cell::RefCell::new(None) };
}

#[cfg(test)]
impl Drop for CachedPipeline {
    fn drop(&mut self) {
        if let Some(hook) = ON_PIPELINE_DROP.with(|h| h.borrow_mut().take()) {
            hook();
        }
    }
}

/// A borrowed cache key, for probing and inserting without building an
/// owned key first (the hit path never allocates one).
///
/// `terms` must be the analysed query terms in **sorted** order (duplicates
/// preserved — term multiplicity affects tf·idf ranking, so `"java java"`
/// and `"java"` are genuinely different pipelines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KeyRef<'a> {
    /// Sorted analysed terms, with multiplicity.
    pub terms: &'a [TermId],
    /// Boolean semantics of the query.
    pub semantics: QuerySemantics,
    /// Requested cluster granularity.
    pub k_clusters: usize,
    /// Arena truncation.
    pub top_k: usize,
    /// Serving strategy. Identical terms served by different strategies
    /// must not share a pipeline entry.
    pub strategy: ExpandStrategy,
}

impl KeyRef<'_> {
    fn hash64(&self) -> u64 {
        debug_assert!(self.terms.is_sorted(), "cache keys use sorted terms");
        let mut h = FxHasher::default();
        self.terms.hash(&mut h);
        self.semantics.hash(&mut h);
        self.k_clusters.hash(&mut h);
        self.top_k.hash(&mut h);
        self.strategy.hash(&mut h);
        h.finish()
    }

    fn matches(&self, owned: &OwnedKey) -> bool {
        self.semantics == owned.semantics
            && self.k_clusters == owned.k_clusters
            && self.top_k == owned.top_k
            && self.strategy == owned.strategy
            && self.terms == &owned.terms[..]
    }

    fn to_owned_key(self) -> OwnedKey {
        OwnedKey {
            terms: self.terms.into(),
            semantics: self.semantics,
            k_clusters: self.k_clusters,
            top_k: self.top_k,
            strategy: self.strategy,
        }
    }
}

#[derive(Debug)]
struct OwnedKey {
    terms: Box<[TermId]>,
    semantics: QuerySemantics,
    k_clusters: usize,
    top_k: usize,
    strategy: ExpandStrategy,
}

/// Snapshot of the cache's cumulative counters and occupancy.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Probes served from cache.
    pub hits: u64,
    /// Probes that found no entry.
    pub misses: u64,
    /// Entries dropped to make room (each freed the pipeline memory unless
    /// a request still held the `Arc`).
    pub evictions: u64,
    /// Live entries.
    pub entries: usize,
    /// Maximum entries before LRU eviction.
    pub capacity: usize,
    /// Total heap footprint of the live entries' pipelines.
    pub bytes_in_use: usize,
    /// Byte budget before LRU eviction (`0` = unbounded).
    pub max_bytes: usize,
    /// Pipeline builds that failed (panicked builder, injected fault) and
    /// were memoized so concurrent and near-future requests for the same
    /// key fail fast instead of stampeding rebuilds.
    pub build_failures: u64,
}

/// Sentinel for "no slot" in the intrusive recency list.
const NIL: usize = usize::MAX;

#[derive(Debug)]
struct Entry {
    hash: u64,
    key: OwnedKey,
    value: Arc<CachedPipeline>,
    /// The pipeline's heap footprint, charged against the byte budget.
    bytes: usize,
    /// Arrival stamp ([`SharedArenaCache::arrival`]) of the latest request
    /// for this key. The recency list is kept descending by it.
    stamp: u64,
    /// Towards the MRU end.
    prev: usize,
    /// Towards the LRU end.
    next: usize,
}

/// How far a single-flight build has progressed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BuildState {
    /// The ticket holder is still building.
    Building,
    /// The build was published and retained; waiters re-probe and hit.
    Done,
    /// The ticket was dropped without publishing (builder panicked or
    /// bailed); waiters re-probe and the first becomes the new builder.
    Abandoned,
    /// The build was published but the cache could not retain it (entry
    /// bigger than the byte budget, zero capacity, or every retained entry
    /// requested after it). Waiters each build
    /// for themselves — without registering — so a never-cacheable hot
    /// key runs its builds in parallel instead of convoying behind one
    /// latch after another.
    Uncacheable,
}

/// The per-key in-progress latch waiters block on.
#[derive(Debug)]
struct BuildLatch {
    state: Mutex<BuildState>,
    cv: Condvar,
}

impl BuildLatch {
    fn new() -> Self {
        Self {
            state: Mutex::new(BuildState::Building),
            cv: Condvar::new(),
        }
    }

    /// Resolves the latch and wakes every waiter.
    fn complete(&self, state: BuildState) {
        *self.state.lock().unwrap_or_else(|e| e.into_inner()) = state;
        self.cv.notify_all();
    }

    /// Blocks until the builder publishes or abandons, bounded by an
    /// optional deadline: `None` means the deadline passed while the
    /// builder was still building (the waiter gives up; the build itself
    /// continues unaffected).
    fn wait_deadline(&self, deadline: Option<Instant>) -> Option<BuildState> {
        let mut st = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while *st == BuildState::Building {
            match deadline {
                None => st = self.cv.wait(st).unwrap_or_else(|e| e.into_inner()),
                Some(d) => {
                    let remaining = d.checked_duration_since(Instant::now())?;
                    st = self
                        .cv
                        .wait_timeout(st, remaining)
                        .unwrap_or_else(|e| e.into_inner())
                        .0;
                }
            }
        }
        Some(*st)
    }
}

/// One registered in-flight build.
#[derive(Debug)]
struct Building {
    hash: u64,
    key: OwnedKey,
    latch: Arc<BuildLatch>,
}

/// One memoized build failure: probes for `key` before `until` fail fast
/// with [`CacheProbe::Failed`] instead of re-running a build that just
/// proved poisonous. A successful publish for the key clears the memo.
#[derive(Debug)]
struct FailedBuild {
    hash: u64,
    key: OwnedKey,
    until: Instant,
}

#[derive(Debug, Default)]
struct Lru {
    slots: Vec<Option<Entry>>,
    free: Vec<usize>,
    buckets: FxHashMap<u64, Vec<usize>>,
    /// Keys with a build in flight (single-flight registry; a handful at
    /// most, so a linear scan beats bucket bookkeeping).
    building: Vec<Building>,
    /// Recently failed builds (failure memos; pruned lazily on probe).
    failed: Vec<FailedBuild>,
    head: usize,
    tail: usize,
    len: usize,
    bytes_in_use: usize,
    hits: u64,
    misses: u64,
    evictions: u64,
    build_failures: u64,
}

/// The engine-wide, thread-safe arena cache. See the module docs for the
/// keying, sharing and allocation contracts.
#[derive(Debug)]
pub struct SharedArenaCache {
    capacity: usize,
    /// Byte budget over all entries' pipeline footprints; `0` = unbounded.
    max_bytes: usize,
    /// How long a failed build is memoized (`ZERO` = not at all).
    failure_ttl: Duration,
    /// Arrival stamps handed out so far.
    arrivals: AtomicU64,
    inner: Mutex<Lru>,
}

impl SharedArenaCache {
    /// An empty cache holding at most `capacity` pipelines (`0` never
    /// stores anything; every probe is then a counted miss), with no byte
    /// budget.
    pub fn new(capacity: usize) -> Self {
        Self::with_budget(capacity, 0)
    }

    /// An empty cache bounded by `capacity` entries **and** `max_bytes` of
    /// pipeline heap footprint (`0` = no byte bound). Eviction runs from
    /// the LRU tail whenever either bound trips.
    pub fn with_budget(capacity: usize, max_bytes: usize) -> Self {
        Self {
            capacity,
            max_bytes,
            failure_ttl: Duration::from_millis(250),
            arrivals: AtomicU64::new(0),
            inner: Mutex::new(Lru {
                head: NIL,
                tail: NIL,
                ..Lru::default()
            }),
        }
    }

    /// Sets how long a failed build is memoized (builder-style). Within
    /// the window, probes for the failed key resolve as
    /// [`CacheProbe::Failed`] without waiting or building; after it, the
    /// next probe retries. `Duration::ZERO` disables memoization.
    pub fn with_failure_ttl(mut self, ttl: Duration) -> Self {
        self.failure_ttl = ttl;
        self
    }

    /// Maximum number of cached pipelines.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Stamps a request's arrival: each call returns a stamp newer than
    /// every earlier one. Recency is the arrival order of each key's latest
    /// request, so a request stamped where it enters the engine keeps its
    /// place in the eviction order however long its thread then takes to
    /// reach the probe or to publish its build.
    pub fn arrival(&self) -> u64 {
        self.arrivals(1)
    }

    /// Stamps `n` requests arriving together, in order: returns the first
    /// one's stamp, the rest follow it consecutively.
    pub(crate) fn arrivals(&self, n: usize) -> u64 {
        self.arrivals.fetch_add(n as u64, Ordering::Relaxed) + 1
    }

    /// Probes for `key` with the single-flight contract: a cached entry is
    /// a [`CacheProbe::Hit`]; a cold key with **no build in flight**
    /// counts one miss, registers the key as building, and hands this
    /// caller the [`BuildTicket`] (build the pipeline, then
    /// [`publish`](BuildTicket::publish)); a cold key **with** a build in
    /// flight blocks on the builder's latch — off the cache lock — and
    /// resolves as a hit on the published entry, so a cold-start stampede
    /// on one hot key runs exactly one build.
    ///
    /// The wait is bounded by the optional `deadline`, with failure
    /// fast-paths:
    ///
    /// * a key whose build recently **failed** (within the window set by
    ///   [`with_failure_ttl`](Self::with_failure_ttl)) resolves as
    ///   [`CacheProbe::Failed`] immediately — no wait, no rebuild — so a
    ///   poisoned hot key degrades to per-caller errors instead of a
    ///   rebuild stampede;
    /// * a caller whose deadline passes while **waiting on another
    ///   request's in-flight build** resolves as [`CacheProbe::TimedOut`]
    ///   (the build itself continues; later probes can still hit it).
    ///
    /// A ticket holder is never timed out by this method — once a caller
    /// owns the build it runs it to publication or failure.
    pub fn get_or_build_deadline(
        &self,
        key: KeyRef<'_>,
        deadline: Option<Instant>,
    ) -> (CacheProbe<'_>, CacheStats) {
        self.get_or_build_arrived(key, deadline, self.arrival())
    }

    /// [`get_or_build_deadline`](Self::get_or_build_deadline) for a request
    /// stamped earlier by [`arrival`](Self::arrival): a hit, or the entry
    /// its ticket publishes, takes the recency of that stamp instead of
    /// the moment of this call.
    pub fn get_or_build_arrived(
        &self,
        key: KeyRef<'_>,
        deadline: Option<Instant>,
        arrival: u64,
    ) -> (CacheProbe<'_>, CacheStats) {
        let hash = key.hash64();
        loop {
            let in_flight = {
                let mut g = self.lock();
                if let Some(i) = find(&g, hash, key) {
                    g.hits += 1;
                    touch(&mut g, i, arrival);
                    let value = Arc::clone(&g.slots[i].as_ref().expect("live slot").value);
                    let stats = self.snapshot(&g);
                    return (CacheProbe::Hit(value), stats);
                }
                if !g.failed.is_empty() {
                    let now = Instant::now();
                    g.failed.retain(|f| f.until > now);
                    if g.failed
                        .iter()
                        .any(|f| f.hash == hash && key.matches(&f.key))
                    {
                        let stats = self.snapshot(&g);
                        return (CacheProbe::Failed, stats);
                    }
                }
                match g
                    .building
                    .iter()
                    .find(|b| b.hash == hash && key.matches(&b.key))
                {
                    Some(b) => Arc::clone(&b.latch),
                    None => {
                        g.misses += 1;
                        let latch = Arc::new(BuildLatch::new());
                        g.building.push(Building {
                            hash,
                            key: key.to_owned_key(),
                            latch: Arc::clone(&latch),
                        });
                        let stats = self.snapshot(&g);
                        let ticket = BuildTicket {
                            cache: self,
                            latch,
                            stamp: arrival,
                            published: false,
                        };
                        return (CacheProbe::Miss(ticket), stats);
                    }
                }
            };
            // Someone else is building this key: wait outside the cache
            // lock. Done → re-probe and hit the published entry;
            // Abandoned (or published-then-evicted) → re-probe and become
            // the next builder (or fail fast on a fresh failure memo).
            // Uncacheable (the cache cannot retain this key) → build for
            // ourselves, unregistered, so every released waiter builds in
            // parallel instead of convoying one latch at a time. A waiter
            // whose deadline passes first gives up without disturbing the
            // build.
            let Some(state) = in_flight.wait_deadline(deadline) else {
                let stats = self.stats();
                return (CacheProbe::TimedOut, stats);
            };
            if state == BuildState::Uncacheable {
                let mut g = self.lock();
                if let Some(i) = find(&g, hash, key) {
                    // Someone cached it after all (e.g. budget freed up).
                    g.hits += 1;
                    touch(&mut g, i, arrival);
                    let value = Arc::clone(&g.slots[i].as_ref().expect("live slot").value);
                    let stats = self.snapshot(&g);
                    return (CacheProbe::Hit(value), stats);
                }
                g.misses += 1;
                let stats = self.snapshot(&g);
                let ticket = BuildTicket {
                    cache: self,
                    // Orphan latch, never registered: publish/drop resolve
                    // it without waking (or blocking) anyone.
                    latch: Arc::new(BuildLatch::new()),
                    stamp: arrival,
                    published: false,
                };
                return (CacheProbe::Miss(ticket), stats);
            }
        }
    }

    /// Inserts (or replaces) `key`'s entry at the recency position of
    /// `stamp` — the arrival of the request the value was built for, which
    /// for a published build is older than every request that arrived
    /// while it ran — then evicts from the LRU tail while the entry count
    /// exceeds `capacity` or the byte budget is exceeded.
    ///
    /// Returns the pipelines this pushed out (evicted entries, a replaced
    /// value) for the caller to drop **after it unlocks**: the cache's
    /// reference is usually the last, and freeing a pipeline is hundreds of
    /// deallocations no probe should wait behind.
    #[must_use = "drop the displaced pipelines after releasing the cache lock"]
    fn insert_locked(
        &self,
        g: &mut Lru,
        hash: u64,
        key: KeyRef<'_>,
        value: Arc<CachedPipeline>,
        bytes: usize,
        stamp: u64,
    ) -> Vec<Arc<CachedPipeline>> {
        let mut displaced = Vec::new();
        if self.capacity == 0 {
            displaced.push(value);
            return displaced;
        }
        if let Some(i) = find(g, hash, key) {
            let e = g.slots[i].as_mut().expect("live slot");
            let old_bytes = e.bytes;
            displaced.push(std::mem::replace(&mut e.value, value));
            e.bytes = bytes;
            g.bytes_in_use = g.bytes_in_use + bytes - old_bytes;
            touch(g, i, stamp);
        } else {
            let slot = match g.free.pop() {
                Some(s) => s,
                None => {
                    g.slots.push(None);
                    g.slots.len() - 1
                }
            };
            g.slots[slot] = Some(Entry {
                hash,
                key: key.to_owned_key(),
                value,
                bytes,
                stamp,
                prev: NIL,
                next: NIL,
            });
            g.buckets.entry(hash).or_default().push(slot);
            link_by_stamp(g, slot);
            g.len += 1;
            g.bytes_in_use += bytes;
        }
        // Evict by whichever bound trips: entry count, or — when a byte
        // budget is set — total pipeline footprint. The byte bound is
        // strict: an entry bigger than the whole budget is evicted
        // immediately (memory stays bounded; that key just never caches).
        while g.len > self.capacity
            || (self.max_bytes > 0 && g.bytes_in_use > self.max_bytes && g.len > 0)
        {
            displaced.push(evict_tail(g));
        }
        displaced
    }

    /// Cumulative counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        let g = self.lock();
        self.snapshot(&g)
    }

    fn snapshot(&self, g: &Lru) -> CacheStats {
        CacheStats {
            hits: g.hits,
            misses: g.misses,
            evictions: g.evictions,
            entries: g.len,
            capacity: self.capacity,
            bytes_in_use: g.bytes_in_use,
            max_bytes: self.max_bytes,
            build_failures: g.build_failures,
        }
    }

    /// Locks the state, recovering from poisoning (the structure is fixed
    /// up before any panic-free section ends, and a poisoned recency order
    /// at worst evicts a suboptimal entry).
    fn lock(&self) -> MutexGuard<'_, Lru> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

fn find(g: &Lru, hash: u64, key: KeyRef<'_>) -> Option<usize> {
    g.buckets.get(&hash)?.iter().copied().find(|&i| {
        let e = g.slots[i].as_ref().expect("bucket points at live slot");
        e.hash == hash && key.matches(&e.key)
    })
}

/// A request stamped `arrival` asked for `i`: moves it to that stamp's
/// place in the recency order, unless a later arrival already asked.
fn touch(g: &mut Lru, i: usize, arrival: u64) {
    let e = g.slots[i].as_mut().expect("live slot");
    if arrival < e.stamp {
        return;
    }
    e.stamp = arrival;
    if g.head == i {
        return;
    }
    unlink(g, i);
    link_by_stamp(g, i);
}

fn unlink(g: &mut Lru, i: usize) {
    let (prev, next) = {
        let e = g.slots[i].as_ref().expect("live slot");
        (e.prev, e.next)
    };
    match prev {
        NIL => g.head = next,
        p => g.slots[p].as_mut().expect("live slot").next = next,
    }
    match next {
        NIL => g.tail = prev,
        n => g.slots[n].as_mut().expect("live slot").prev = prev,
    }
}

fn link_front(g: &mut Lru, i: usize) {
    let old = g.head;
    {
        let e = g.slots[i].as_mut().expect("live slot");
        e.prev = NIL;
        e.next = old;
    }
    match old {
        NIL => g.tail = i,
        o => g.slots[o].as_mut().expect("live slot").prev = i,
    }
    g.head = i;
}

/// Links the unlinked slot `i` in front of the first entry with an older
/// stamp, keeping the list descending by stamp. The walk passes only
/// entries requested after `i`'s stamp was taken: the requests that
/// overtook this one on the way to the probe or arrived while its build
/// ran — usually none, at most the whole cache.
fn link_by_stamp(g: &mut Lru, i: usize) {
    let stamp = g.slots[i].as_ref().expect("live slot").stamp;
    let (mut newer, mut older) = (NIL, g.head);
    while older != NIL {
        let e = g.slots[older].as_ref().expect("live slot");
        if e.stamp < stamp {
            break;
        }
        (newer, older) = (older, e.next);
    }
    if newer == NIL {
        return link_front(g, i);
    }
    {
        let e = g.slots[i].as_mut().expect("live slot");
        e.prev = newer;
        e.next = older;
    }
    g.slots[newer].as_mut().expect("live slot").next = i;
    match older {
        NIL => g.tail = i,
        o => g.slots[o].as_mut().expect("live slot").prev = i,
    }
}

/// Unlinks the least recently requested entry and returns its pipeline
/// (the cache's reference to it; any request still holding a clone keeps
/// the pipeline alive).
fn evict_tail(g: &mut Lru) -> Arc<CachedPipeline> {
    let i = g.tail;
    debug_assert_ne!(i, NIL, "evict on empty cache");
    unlink(g, i);
    let e = g.slots[i].take().expect("live slot");
    let bucket = g.buckets.get_mut(&e.hash).expect("entry has a bucket");
    bucket.retain(|&s| s != i);
    if bucket.is_empty() {
        g.buckets.remove(&e.hash);
    }
    g.free.push(i);
    g.len -= 1;
    g.bytes_in_use -= e.bytes;
    g.evictions += 1;
    e.value
}

/// Drops the single-flight registration whose latch is `latch` (matched by
/// pointer identity — keys can be re-registered while an abandoned build's
/// ticket is still alive), returning it so a failing ticket can memoize
/// its key. `None` for orphan (never-registered) tickets.
fn remove_building(g: &mut Lru, latch: &Arc<BuildLatch>) -> Option<Building> {
    let i = g
        .building
        .iter()
        .position(|b| Arc::ptr_eq(&b.latch, latch))?;
    Some(g.building.swap_remove(i))
}

/// Outcome of a single-flight probe
/// ([`SharedArenaCache::get_or_build_deadline`]).
#[derive(Debug)]
pub enum CacheProbe<'c> {
    /// The pipeline was cached (or a concurrent builder published it while
    /// this caller waited on the latch).
    Hit(Arc<CachedPipeline>),
    /// This caller owns the build for the key: build the pipeline, then
    /// [`publish`](BuildTicket::publish) through the ticket (or
    /// [`fail`](BuildTicket::fail) it).
    Miss(BuildTicket<'c>),
    /// The caller's deadline passed while another request's build of this
    /// key was still in flight. Nothing was built for this caller; the
    /// in-flight build continues and later probes can hit it. Only
    /// returned by [`SharedArenaCache::get_or_build_deadline`] with a
    /// deadline set.
    TimedOut,
    /// The key's build failed recently (within the cache's
    /// [failure TTL](SharedArenaCache::with_failure_ttl)); the caller should
    /// error out instead of rebuilding.
    Failed,
}

/// Exclusive permission to build one key's pipeline, handed to exactly one
/// caller per cold key. [`publish`](Self::publish) inserts the built
/// pipeline and releases every waiter onto it; dropping the ticket without
/// publishing (builder panicked or bailed) wakes the waiters so the next
/// one takes over the build.
#[derive(Debug)]
pub struct BuildTicket<'c> {
    cache: &'c SharedArenaCache,
    latch: Arc<BuildLatch>,
    /// Arrival stamp of the request this ticket was issued to: the recency
    /// the published entry gets.
    stamp: u64,
    published: bool,
}

impl BuildTicket<'_> {
    /// Publishes the built pipeline under `key` (which must be the key the
    /// ticket was issued for), deregisters the in-flight build, wakes the
    /// waiters, and returns a post-insert stats snapshot. The entry takes
    /// the recency of the request the ticket was issued to. When the cache
    /// could not retain the entry (bigger than the byte budget, zero
    /// capacity, or overtaken by a cache's worth of later requests),
    /// waiters are released to build for themselves in parallel rather
    /// than re-serializing behind each other's latches.
    pub fn publish(mut self, key: KeyRef<'_>, value: Arc<CachedPipeline>) -> CacheStats {
        let bytes = value.heap_bytes();
        let hash = key.hash64();
        let (stats, retained, displaced) = {
            let mut g = self.cache.lock();
            remove_building(&mut g, &self.latch);
            // A successful build supersedes any (stale) failure memo.
            g.failed
                .retain(|f| !(f.hash == hash && key.matches(&f.key)));
            let displaced = self
                .cache
                .insert_locked(&mut g, hash, key, value, bytes, self.stamp);
            let retained = find(&g, hash, key).is_some();
            (self.cache.snapshot(&g), retained, displaced)
        };
        drop(displaced);
        self.published = true;
        self.latch.complete(if retained {
            BuildState::Done
        } else {
            BuildState::Uncacheable
        });
        stats
    }

    /// Reports that the build failed: deregisters it, **memoizes the
    /// failure** for the cache's
    /// [failure TTL](SharedArenaCache::with_failure_ttl) (waiters and
    /// near-future probes of the key resolve as [`CacheProbe::Failed`]
    /// instead of stampeding rebuilds of a key that just proved
    /// poisonous), and wakes the waiters. After the window, the next probe
    /// retries the build.
    pub fn fail(mut self) {
        self.abandon(true);
        self.published = true; // Drop must not re-abandon
    }

    /// Shared abandon plumbing of [`fail`](Self::fail) and `Drop`.
    fn abandon(&mut self, memoize: bool) {
        {
            let mut g = self.cache.lock();
            let registration = remove_building(&mut g, &self.latch);
            if memoize {
                g.build_failures += 1;
                // Orphan (uncacheable-path) tickets carry no registration
                // and thus no key: their failure stays per-caller.
                if let Some(b) = registration {
                    if self.cache.failure_ttl > Duration::ZERO {
                        g.failed.push(FailedBuild {
                            hash: b.hash,
                            key: b.key,
                            until: Instant::now() + self.cache.failure_ttl,
                        });
                    }
                }
            }
        }
        self.latch.complete(BuildState::Abandoned);
    }
}

impl Drop for BuildTicket<'_> {
    fn drop(&mut self) {
        if self.published {
            return;
        }
        // A ticket dropped by an unwinding builder is a failed build —
        // memoize it like `fail()` so the waiters it wakes don't stampede
        // onto the same poisoned key. A voluntary bail (no panic, no
        // `fail()`) stays a plain abandonment: the next prober simply
        // takes over the build.
        self.abandon(std::thread::panicking());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// What the unit tests say instead of a probe / ticket / publish
    /// round: the serving API, spelled short.
    impl SharedArenaCache {
        /// A counted probe; a miss's ticket is dropped unpublished (a plain
        /// abandonment — no failure memo).
        fn get(&self, key: KeyRef<'_>) -> Option<Arc<CachedPipeline>> {
            match self.get_or_build_deadline(key, None).0 {
                CacheProbe::Hit(p) => Some(p),
                _ => None,
            }
        }

        /// Publishes `value` under `key` for a request arriving now,
        /// through an unregistered ticket — what a waiter released from an
        /// `Uncacheable` build holds — so a cached key can be republished.
        fn insert(&self, key: KeyRef<'_>, value: Arc<CachedPipeline>) -> CacheStats {
            let ticket = BuildTicket {
                cache: self,
                latch: Arc::new(BuildLatch::new()),
                stamp: self.arrival(),
                published: false,
            };
            ticket.publish(key, value)
        }

        /// Looks `key` up without refreshing recency or counting stats.
        fn peek(&self, key: KeyRef<'_>) -> Option<Arc<CachedPipeline>> {
            let g = self.lock();
            find(&g, key.hash64(), key)
                .map(|i| Arc::clone(&g.slots[i].as_ref().expect("live slot").value))
        }

        /// The cached pipelines from most- to least-recently used.
        fn entries_mru(&self) -> Vec<Arc<CachedPipeline>> {
            let g = self.lock();
            let mut out = Vec::with_capacity(g.len);
            let mut i = g.head;
            while i != NIL {
                let e = g.slots[i].as_ref().expect("live slot");
                out.push(Arc::clone(&e.value));
                i = e.next;
            }
            out
        }
    }

    /// A distinguishable dummy pipeline: `tag` is recoverable as
    /// `arena.size() - 1`.
    fn pipe(tag: usize) -> Arc<CachedPipeline> {
        Arc::new(CachedPipeline {
            arena: ExpansionArena::from_parts(vec![1.0; tag + 1], Vec::new()),
            docs: Vec::new(),
            clusters: Vec::new(),
            omitted_shards: Vec::new(),
        })
    }

    fn tag_of(p: &CachedPipeline) -> usize {
        p.arena.size() - 1
    }

    fn terms(ids: &[u32]) -> Vec<TermId> {
        ids.iter().map(|&i| TermId(i)).collect()
    }

    fn keyed(terms: &[TermId]) -> KeyRef<'_> {
        KeyRef {
            terms,
            semantics: QuerySemantics::And,
            k_clusters: 5,
            top_k: 0,
            strategy: ExpandStrategy::Iskr,
        }
    }

    #[test]
    fn hit_returns_value_and_counts() {
        let cache = SharedArenaCache::new(4);
        let t = terms(&[1, 2]);
        assert!(cache.get(keyed(&t)).is_none());
        cache.insert(keyed(&t), pipe(7));
        let got = cache.get(keyed(&t)).expect("cached");
        assert_eq!(tag_of(&got), 7);
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
    }

    #[test]
    fn capacity_respecting_eviction_in_lru_order() {
        let cache = SharedArenaCache::new(3);
        let all: Vec<Vec<TermId>> = (0..5).map(|i| terms(&[i])).collect();
        for (i, t) in all.iter().enumerate().take(3) {
            cache.insert(keyed(t), pipe(i));
        }
        assert_eq!(cache.stats().entries, 3);
        // Inserting a 4th evicts the oldest (key 0), a 5th evicts key 1.
        cache.insert(keyed(&all[3]), pipe(3));
        assert!(cache.peek(keyed(&all[0])).is_none(), "LRU entry evicted");
        assert!(cache.peek(keyed(&all[1])).is_some());
        cache.insert(keyed(&all[4]), pipe(4));
        assert!(cache.peek(keyed(&all[1])).is_none());
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (3, 2));
        let tags: Vec<usize> = cache.entries_mru().iter().map(|p| tag_of(p)).collect();
        assert_eq!(tags, vec![4, 3, 2], "MRU → LRU order");
    }

    #[test]
    fn reaccess_refreshes_recency() {
        let cache = SharedArenaCache::new(3);
        let all: Vec<Vec<TermId>> = (0..4).map(|i| terms(&[i])).collect();
        for (i, t) in all.iter().enumerate().take(3) {
            cache.insert(keyed(t), pipe(i));
        }
        // Touch key 0: key 1 becomes the LRU and is evicted by key 3.
        assert!(cache.get(keyed(&all[0])).is_some());
        cache.insert(keyed(&all[3]), pipe(3));
        assert!(cache.peek(keyed(&all[0])).is_some(), "refreshed entry kept");
        assert!(cache.peek(keyed(&all[1])).is_none(), "stale entry evicted");
        // peek must NOT refresh: peeking key 2 then inserting evicts key 2.
        assert!(cache.peek(keyed(&all[2])).is_some());
        let t4 = terms(&[9]);
        cache.insert(keyed(&t4), pipe(9));
        assert!(
            cache.peek(keyed(&all[2])).is_none(),
            "peek is recency-neutral"
        );
    }

    /// The evicted pipeline is freed after `publish` has unlocked the
    /// cache: while its drop is held open, a probe from another thread goes
    /// through. (Dropped under the lock, the probe would block until the
    /// drop's wait gives up.)
    #[test]
    fn evicted_pipeline_drops_after_the_lock_is_released() {
        use std::sync::mpsc;
        let cache = SharedArenaCache::new(1);
        let (old, new) = (terms(&[1]), terms(&[2]));
        cache.insert(keyed(&old), pipe(1));
        let (CacheProbe::Miss(ticket), _) = cache.get_or_build_deadline(keyed(&new), None) else {
            panic!("cold key");
        };
        let (drop_began, began) = mpsc::channel::<()>();
        let (probed, probe_done) = mpsc::channel::<(bool, CacheStats)>();
        let seen_during_drop = std::rc::Rc::new(std::cell::RefCell::new(None));
        let seen = std::rc::Rc::clone(&seen_during_drop);
        std::thread::scope(|scope| {
            let (cache, new) = (&cache, &new);
            scope.spawn(move || {
                began.recv().expect("the eviction drops a pipeline");
                let hit = cache.get(keyed(new)).is_some();
                // The dropper has given up waiting if this probe blocked.
                let _ = probed.send((hit, cache.stats()));
            });
            ON_PIPELINE_DROP.with(|h| {
                *h.borrow_mut() = Some(Box::new(move || {
                    drop_began.send(()).expect("prober waits");
                    *seen.borrow_mut() = Some(probe_done.recv_timeout(Duration::from_secs(10)));
                }));
            });
            let published = ticket.publish(keyed(new), pipe(2));
            assert_eq!((published.entries, published.evictions), (1, 1));
            assert_eq!(published.bytes_in_use, pipe(2).heap_bytes());
        });
        let (hit, stats) = seen_during_drop
            .borrow_mut()
            .take()
            .expect("the evicted pipeline was dropped on the publishing thread")
            .expect("a probe completes while the evicted pipeline is being dropped");
        assert!(hit, "the new entry was already visible");
        assert_eq!((stats.entries, stats.evictions, stats.hits), (1, 1, 1));
    }

    fn mru_tags(cache: &SharedArenaCache) -> Vec<usize> {
        cache.entries_mru().iter().map(|p| tag_of(p)).collect()
    }

    /// A build that publishes after later requests' entries went in takes
    /// the place of the request it was issued to, not the MRU head — and
    /// when that place is already past the capacity, it is not retained.
    #[test]
    fn published_build_takes_its_requests_place() {
        let cache = SharedArenaCache::new(3);
        let all: Vec<Vec<TermId>> = (0..5).map(|i| terms(&[i])).collect();
        let (CacheProbe::Miss(slow), _) = cache.get_or_build_deadline(keyed(&all[0]), None) else {
            panic!("cold key");
        };
        cache.insert(keyed(&all[1]), pipe(1));
        cache.insert(keyed(&all[2]), pipe(2));
        slow.publish(keyed(&all[0]), pipe(0));
        assert_eq!(mru_tags(&cache), vec![2, 1, 0], "oldest request last");
        cache.insert(keyed(&all[3]), pipe(3));
        assert!(cache.peek(keyed(&all[0])).is_none(), "evicted first");
        assert_eq!(mru_tags(&cache), vec![3, 2, 1]);

        // Three requests overtake the build: nothing of it stays, and a
        // request that waited on its latch builds for itself.
        let (CacheProbe::Miss(slow), _) = cache.get_or_build_deadline(keyed(&all[0]), None) else {
            panic!("evicted key");
        };
        for i in [1, 2, 4] {
            cache.insert(keyed(&all[i]), pipe(i));
        }
        std::thread::scope(|scope| {
            let waiter = scope.spawn(|| cache.get_or_build_deadline(keyed(&all[0]), None).0);
            while Arc::strong_count(&slow.latch) < 3 {
                std::thread::yield_now(); // registry + ticket + waiter
            }
            slow.publish(keyed(&all[0]), pipe(0));
            assert!(matches!(waiter.join().unwrap(), CacheProbe::Miss(_)));
        });
        assert_eq!(mru_tags(&cache), vec![4, 2, 1]);
    }

    /// Recency follows the stamps requests took on arrival, whichever
    /// order they reach the cache in.
    #[test]
    fn recency_follows_arrival_stamps() {
        let cache = SharedArenaCache::new(4);
        let all: Vec<Vec<TermId>> = (0..3).map(|i| terms(&[i])).collect();
        cache.insert(keyed(&all[0]), pipe(0));
        let early = cache.arrival();
        cache.insert(keyed(&all[1]), pipe(1));
        // The early request's hit on key 0 lands behind key 1…
        let (probe, _) = cache.get_or_build_arrived(keyed(&all[0]), None, early);
        assert!(matches!(probe, CacheProbe::Hit(_)));
        assert_eq!(mru_tags(&cache), vec![1, 0]);
        // …and cannot age an entry a later arrival already asked for.
        let early = cache.arrival();
        assert!(cache.get(keyed(&all[0])).is_some());
        let (probe, _) = cache.get_or_build_arrived(keyed(&all[0]), None, early);
        assert!(matches!(probe, CacheProbe::Hit(_)));
        assert_eq!(mru_tags(&cache), vec![0, 1]);
        // A miss stamped before two hits publishes behind both.
        let early = cache.arrival();
        assert!(cache.get(keyed(&all[1])).is_some());
        assert!(cache.get(keyed(&all[0])).is_some());
        let (CacheProbe::Miss(ticket), _) = cache.get_or_build_arrived(keyed(&all[2]), None, early)
        else {
            panic!("cold key");
        };
        ticket.publish(keyed(&all[2]), pipe(2));
        assert_eq!(mru_tags(&cache), vec![0, 1, 2]);
    }

    #[test]
    fn evicted_entry_stays_valid_for_holders() {
        let cache = SharedArenaCache::new(1);
        let a = terms(&[1]);
        let b = terms(&[2]);
        cache.insert(keyed(&a), pipe(10));
        let held = cache.get(keyed(&a)).expect("cached");
        assert_eq!(Arc::strong_count(&held), 2, "cache + holder");
        cache.insert(keyed(&b), pipe(20)); // evicts `a` while `held` lives
        assert!(cache.peek(keyed(&a)).is_none());
        assert_eq!(tag_of(&held), 10, "evicted pipeline still readable");
        assert_eq!(Arc::strong_count(&held), 1, "cache reference severed");
    }

    #[test]
    fn distinct_keys_never_collide() {
        let cache = SharedArenaCache::new(16);
        let t12 = terms(&[1, 2]);
        let t1 = terms(&[1]);
        let t112 = terms(&[1, 1, 2]);
        cache.insert(keyed(&t12), pipe(0));
        assert!(cache.peek(keyed(&t1)).is_none(), "subset of terms");
        assert!(cache.peek(keyed(&t112)).is_none(), "multiplicity differs");
        assert!(
            cache
                .peek(KeyRef {
                    k_clusters: 4,
                    ..keyed(&t12)
                })
                .is_none(),
            "k differs"
        );
        assert!(
            cache
                .peek(KeyRef {
                    top_k: 30,
                    ..keyed(&t12)
                })
                .is_none(),
            "top_k differs"
        );
        assert!(
            cache
                .peek(KeyRef {
                    semantics: QuerySemantics::Or,
                    ..keyed(&t12)
                })
                .is_none(),
            "semantics differ"
        );
        assert!(
            cache
                .peek(KeyRef {
                    strategy: ExpandStrategy::Pebc,
                    ..keyed(&t12)
                })
                .is_none(),
            "strategy differs"
        );
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn reinsert_replaces_and_refreshes() {
        let cache = SharedArenaCache::new(2);
        let a = terms(&[1]);
        let b = terms(&[2]);
        cache.insert(keyed(&a), pipe(1));
        cache.insert(keyed(&b), pipe(2));
        cache.insert(keyed(&a), pipe(3)); // replace, no eviction
        let s = cache.stats();
        assert_eq!((s.entries, s.evictions), (2, 0));
        assert_eq!(tag_of(&cache.peek(keyed(&a)).unwrap()), 3);
        // `a` is now MRU, so a new key evicts `b`.
        let c = terms(&[3]);
        cache.insert(keyed(&c), pipe(4));
        assert!(cache.peek(keyed(&b)).is_none());
        assert!(cache.peek(keyed(&a)).is_some());
    }

    #[test]
    fn zero_capacity_never_stores() {
        let cache = SharedArenaCache::new(0);
        let t = terms(&[1]);
        cache.insert(keyed(&t), pipe(0));
        assert!(cache.get(keyed(&t)).is_none());
        let s = cache.stats();
        assert_eq!((s.entries, s.misses, s.evictions), (0, 1, 0));
    }

    #[test]
    fn single_flight_stampede_builds_once() {
        let cache = SharedArenaCache::new(8);
        let t = terms(&[1]);
        const N: usize = 6;
        let barrier = std::sync::Barrier::new(N);
        let builders = std::sync::atomic::AtomicUsize::new(0);
        std::thread::scope(|scope| {
            for _ in 0..N {
                scope.spawn(|| {
                    barrier.wait();
                    match cache.get_or_build_deadline(keyed(&t), None).0 {
                        CacheProbe::Miss(ticket) => {
                            builders.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                            // Hold the ticket long enough that the other
                            // racers reach the latch, then publish.
                            std::thread::sleep(std::time::Duration::from_millis(30));
                            ticket.publish(keyed(&t), pipe(7));
                        }
                        CacheProbe::Hit(p) => {
                            assert_eq!(tag_of(&p), 7, "waiters see the published build")
                        }
                        other => panic!("unexpected probe outcome {other:?}"),
                    }
                });
            }
        });
        assert_eq!(builders.load(std::sync::atomic::Ordering::SeqCst), 1);
        let s = cache.stats();
        assert_eq!(s.misses, 1, "one build per hot key");
        assert_eq!(s.hits, N as u64 - 1, "every racer but the builder hits");
        assert_eq!(s.entries, 1);
    }

    #[test]
    fn abandoned_ticket_passes_the_build_to_the_next_prober() {
        let cache = SharedArenaCache::new(8);
        let t = terms(&[1]);
        let (probe, _) = cache.get_or_build_deadline(keyed(&t), None);
        let CacheProbe::Miss(ticket) = probe else {
            panic!("cold key must hand out the build")
        };
        drop(ticket); // builder bails (e.g. panicked) without publishing
        let (probe2, stats) = cache.get_or_build_deadline(keyed(&t), None);
        assert!(
            matches!(probe2, CacheProbe::Miss(_)),
            "the next prober takes over the build"
        );
        assert_eq!(stats.misses, 2);
        assert_eq!(stats.entries, 0, "nothing was published");
    }

    #[test]
    fn waiter_takes_over_after_abandoned_build() {
        let cache = &SharedArenaCache::new(8);
        let t = terms(&[1]);
        let t = &t;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let (probe, _) = cache.get_or_build_deadline(keyed(t), None);
                assert!(matches!(&probe, CacheProbe::Miss(_)), "first prober builds");
                std::thread::sleep(std::time::Duration::from_millis(20));
                drop(probe); // unpublished → waiters wake on Abandoned
            });
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                match cache.get_or_build_deadline(keyed(t), None).0 {
                    CacheProbe::Miss(ticket) => {
                        ticket.publish(keyed(t), pipe(3));
                    }
                    other => panic!("abandoned build cannot produce {other:?}"),
                }
            });
        });
        assert_eq!(tag_of(&cache.peek(keyed(t)).expect("published")), 3);
        assert_eq!(cache.stats().misses, 2);
    }

    #[test]
    fn uncacheable_key_releases_waiters_to_build_in_parallel() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        // Budget smaller than any entry: the key can never be retained.
        let cache = SharedArenaCache::with_budget(8, 1);
        let t = terms(&[1]);
        let (cache, t) = (&cache, &t);
        const N: usize = 3;
        let barrier = std::sync::Barrier::new(N);
        let concurrent = AtomicUsize::new(0);
        let peak = AtomicUsize::new(0);
        let (barrier, concurrent, peak) = (&barrier, &concurrent, &peak);
        std::thread::scope(|scope| {
            for _ in 0..N {
                scope.spawn(move || {
                    barrier.wait();
                    match cache.get_or_build_deadline(keyed(t), None).0 {
                        CacheProbe::Miss(ticket) => {
                            let now = concurrent.fetch_add(1, Ordering::SeqCst) + 1;
                            peak.fetch_max(now, Ordering::SeqCst);
                            std::thread::sleep(std::time::Duration::from_millis(50));
                            ticket.publish(keyed(t), pipe(63));
                            concurrent.fetch_sub(1, Ordering::SeqCst);
                        }
                        other => panic!("budget 1 byte can never produce {other:?}"),
                    }
                });
            }
        });
        // The first publish resolves Uncacheable and must release both
        // waiters at once: their (sleep-padded) builds overlap. A convoy —
        // waiters re-registering one behind another — would cap the
        // concurrency at 1.
        assert!(
            peak.load(Ordering::SeqCst) >= 2,
            "released waiters must build in parallel, peak {}",
            peak.load(Ordering::SeqCst)
        );
        let s = cache.stats();
        assert_eq!(s.misses, N as u64, "every thread built for itself");
        assert_eq!(s.entries, 0, "nothing retained");
    }

    #[test]
    fn failed_build_is_memoized_then_expires() {
        let cache = SharedArenaCache::new(8).with_failure_ttl(std::time::Duration::from_millis(40));
        let t = terms(&[1]);
        let (probe, _) = cache.get_or_build_deadline(keyed(&t), None);
        let CacheProbe::Miss(ticket) = probe else {
            panic!("cold key must hand out the build")
        };
        ticket.fail();
        // Within the TTL: fail fast, no new build, no wait.
        let (probe2, stats) = cache.get_or_build_deadline(keyed(&t), None);
        assert!(
            matches!(probe2, CacheProbe::Failed),
            "fresh memo fails fast"
        );
        assert_eq!(stats.build_failures, 1);
        // After the TTL: the next prober retries the build, and a
        // successful publish serves hits again.
        std::thread::sleep(std::time::Duration::from_millis(60));
        let (probe3, _) = cache.get_or_build_deadline(keyed(&t), None);
        let CacheProbe::Miss(ticket) = probe3 else {
            panic!("expired memo must allow a retry")
        };
        ticket.publish(keyed(&t), pipe(5));
        let (probe4, _) = cache.get_or_build_deadline(keyed(&t), None);
        match probe4 {
            CacheProbe::Hit(p) => assert_eq!(tag_of(&p), 5),
            other => panic!("published key must hit, got {other:?}"),
        }
    }

    #[test]
    fn failing_builder_releases_waiters_onto_the_memo() {
        let cache =
            &SharedArenaCache::new(8).with_failure_ttl(std::time::Duration::from_secs(3600));
        let t = terms(&[1]);
        let t = &t;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let (probe, _) = cache.get_or_build_deadline(keyed(t), None);
                let CacheProbe::Miss(ticket) = probe else {
                    panic!("first prober builds")
                };
                std::thread::sleep(std::time::Duration::from_millis(30));
                ticket.fail();
            });
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let (probe, _) = cache.get_or_build_deadline(keyed(t), None);
                assert!(
                    matches!(probe, CacheProbe::Failed),
                    "waiter woken by a failed build resolves to the memo, not a rebuild"
                );
            });
        });
    }

    #[test]
    fn voluntary_ticket_drop_does_not_memoize() {
        let cache = SharedArenaCache::new(8).with_failure_ttl(std::time::Duration::from_secs(3600));
        let t = terms(&[1]);
        let (probe, _) = cache.get_or_build_deadline(keyed(&t), None);
        drop(probe); // bail without fail(): no memo
        let (probe2, stats) = cache.get_or_build_deadline(keyed(&t), None);
        assert!(
            matches!(probe2, CacheProbe::Miss(_)),
            "plain abandonment hands the build to the next prober"
        );
        assert_eq!(stats.build_failures, 0);
    }

    #[test]
    fn waiter_deadline_times_out_without_disturbing_the_build() {
        let cache = &SharedArenaCache::new(8);
        let t = terms(&[1]);
        let t = &t;
        std::thread::scope(|scope| {
            scope.spawn(move || {
                let (probe, _) = cache.get_or_build_deadline(keyed(t), None);
                let CacheProbe::Miss(ticket) = probe else {
                    panic!("first prober builds")
                };
                std::thread::sleep(std::time::Duration::from_millis(60));
                ticket.publish(keyed(t), pipe(9));
            });
            scope.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(5));
                let deadline = Some(Instant::now() + Duration::from_millis(10));
                let (probe, _) = cache.get_or_build_deadline(keyed(t), deadline);
                assert!(
                    matches!(probe, CacheProbe::TimedOut),
                    "impatient waiter gives up"
                );
            });
        });
        // The build completed untouched.
        assert_eq!(tag_of(&cache.peek(keyed(t)).expect("published")), 9);
    }

    #[test]
    fn byte_budget_evicts_by_footprint() {
        let unit = pipe(63).heap_bytes();
        assert!(unit > 0);
        // Room for two unit-sized entries but not three; generous entry
        // count so only the byte bound can trip.
        let cache = SharedArenaCache::with_budget(100, unit * 2 + unit / 2);
        for i in 0..3u32 {
            let t = terms(&[i]);
            cache.insert(keyed(&t), pipe(63));
            let s = cache.stats();
            assert!(s.bytes_in_use <= s.max_bytes, "bounded after every insert");
        }
        let s = cache.stats();
        assert_eq!(s.entries, 2);
        assert_eq!(s.evictions, 1);
        assert_eq!(s.bytes_in_use, unit * 2);
        assert!(cache.peek(keyed(&terms(&[0]))).is_none(), "LRU went first");
        assert!(cache.peek(keyed(&terms(&[2]))).is_some());

        // Replacing a key re-weighs it.
        let small = pipe(7).heap_bytes();
        cache.insert(keyed(&terms(&[2])), pipe(7));
        assert_eq!(cache.stats().bytes_in_use, unit + small);

        // An entry bigger than the whole budget never sticks: the bound is
        // strict, that key just never caches.
        let big = pipe(2047);
        assert!(big.heap_bytes() > cache.stats().max_bytes);
        cache.insert(keyed(&terms(&[9])), big);
        let s = cache.stats();
        assert!(s.bytes_in_use <= s.max_bytes);
        assert!(
            cache.peek(keyed(&terms(&[9]))).is_none(),
            "oversized entry evicted immediately"
        );
    }

    #[test]
    fn slab_slots_are_reused_after_eviction() {
        let cache = SharedArenaCache::new(2);
        for i in 0..10u32 {
            let t = terms(&[i]);
            cache.insert(keyed(&t), pipe(i as usize));
        }
        let g = cache.lock();
        assert!(
            g.slots.len() <= 3,
            "slab bounded near capacity: {}",
            g.slots.len()
        );
    }
}
