//! The traced pass: where a request's time goes, layer by layer.
//!
//! A workload's leading requests are replayed four ways. *Staged*: the
//! request's pipeline rebuilt here, call by call through each layer's
//! public API, with a span around every call. Then through each deployment
//! (flat engine, sharded engine, front door) with one span around the whole
//! request. All four must produce the same bits, or the pass fails: a
//! decomposition that computes something else explains nothing. Self time
//! of a deployment is its span minus the staged spans of the same request.
//!
//! Spans are recorded in memory from this file only (spans inside the
//! program are a later change) and written out when the pass ends.
//! End-to-end metrics never come from this pass.

use std::collections::HashMap;
use std::hint::black_box;
use std::io::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

use qec_bitset::Bitset;
use qec_cluster::{doc_tf_vector, Clusterer, KMeansClusterer, SparseVec};
use qec_core::{
    Candidate, ExactDeltaF, ExpandedQuery, Expander, ExpansionArena, Iskr, IskrScratch,
    MergeScratch, Pebc, QecInstance, ResultSet, WorkerPool,
};
use qec_engine::cache::{CachedCluster, CachedPipeline, KeyRef};
use qec_engine::{
    CacheProbe, ClusterExpansion, EngineBuilder, EngineConfig, EngineError, ExpandRequest,
    ExpandResponse, ExpandStrategy, QecEngine, QuerySemantics, ShardStats, ShardedEngine,
    ShardedEngineBuilder, ShardedStats, SharedArenaCache,
};
use qec_index::{Corpus, DocId, Hit, SearchScratch, Searcher, TfIdfRanker};
use qec_ingress::{Ingress, IngressBuilder, IngressRequest};
use qec_text::TermId;

use crate::check::{clusters_digest, combine, served};
use crate::gen::{self, Inputs, Request};
use crate::metrics::{median, median_ns, percentile, PER_LAYER};
use crate::workloads::{
    self, build_corpus, sharded_builder, Config, Outcome, ScratchDir, Server, DIGEST_SLOTS,
    INGRESS_BURST, INGRESS_RATE_RPS, INGRESS_TIMEOUT, POOL_THREADS, SHARDS,
};

/// Requests replayed per workload at the benchmark's `run_seconds`; scaled
/// with `--seconds`, so the same arguments always replay the same requests
/// and every count repeats exactly.
const COLD_PREFIX: usize = 1_000;
const WARM_PREFIX: usize = 4_000;
const INGRESS_PREFIX_SECONDS: f64 = 2.0;
/// Built pipelines kept for the kernel probes.
const CAPTURED_PIPELINES: usize = 64;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    /// The request this span belongs to; spans of one request share it.
    request: u32,
    /// The span that caused this one.
    parent: u32,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span log.
struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Recorder {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        (t - self.epoch).as_nanos() as u64
    }

    fn open(&mut self, name: &'static str, request: u32, parent: u32) -> u32 {
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: 0,
            end_ns: 0,
        });
        // The clock is read last on open and first on close, so the
        // bookkeeping stays outside the span.
        self.spans[id as usize].start_ns = self.at(Instant::now());
        id
    }

    fn close(&mut self, id: u32) {
        let now = Instant::now();
        self.spans[id as usize].end_ns = self.at(now);
    }

    /// A span whose ends were observed elsewhere (another thread), or
    /// that sums pieces interleaved with another span's.
    fn record(
        &mut self,
        name: &'static str,
        request: u32,
        parent: u32,
        start: Instant,
        end: Instant,
    ) {
        self.spans.push(Span {
            name,
            request,
            parent,
            start_ns: self.at(start),
            end_ns: self.at(end),
        });
    }

    fn durations(&self, name: &str) -> Vec<u64> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .collect()
    }

    /// One JSON object per line: name, request, parent, start, end, and the
    /// span's self time (its duration minus its children's).
    fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut children_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                children_ns[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"request\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{}}}",
                s.name,
                s.request,
                s.start_ns,
                s.end_ns,
                (s.end_ns - s.start_ns).saturating_sub(children_ns[id]),
            )?;
        }
        out.flush()
    }
}

/// Staged stages that only one deployment runs: the flat engine retrieves
/// from the whole corpus and ranks with the full sort; the sharded engine
/// retrieves per slice, ranks per slice with the top-K kernel, and merges.
const FLAT_ONLY: [&str; 2] = ["index.retrieve", "index.rank_full"];
const SHARDED_ONLY: [&str; 3] = ["index.retrieve_slice", "index.rank_topk", "core.merge"];

/// The engine's ranking order: score descending, then `DocId` ascending.
fn hit_before(a: &Hit, b: &Hit) -> bool {
    a.score > b.score || (a.score == b.score && a.doc < b.doc)
}

/// The request pipeline rebuilt from the layers' public calls, with the
/// engine's default configuration. The caller lends it a cache that mirrors
/// the engine's (same capacity, same order of probes, so the same hits).
struct Stager<'c> {
    corpus: &'c Corpus,
    slices: Vec<Corpus>,
    bases: Vec<u32>,
    config: EngineConfig,
    clusterer: KMeansClusterer,
    iskr: Iskr,
    pebc: Pebc,
    exact: ExactDeltaF,
    terms: Vec<TermId>,
    keyword_buf: String,
    search: SearchScratch,
    scratch: IskrScratch,
    expanded: ExpandedQuery,
    merge: MergeScratch,
    /// The first pipelines built, for the kernel probes.
    captured: Vec<Arc<CachedPipeline>>,
    matches: Vec<f64>,
    nonempty: Vec<f64>,
    candidates: Vec<f64>,
    added_terms: u64,
    /// Rankings on which the two rankers disagreed (must stay 0).
    ranker_disagreements: u64,
}

impl<'c> Stager<'c> {
    fn new(corpus: &'c Corpus) -> Self {
        let config = EngineConfig::default();
        let slices = corpus.split(SHARDS);
        let mut bases = Vec::with_capacity(slices.len());
        let mut base = 0u32;
        for s in &slices {
            bases.push(base);
            base += s.num_docs() as u32;
        }
        Self {
            corpus,
            slices,
            bases,
            clusterer: KMeansClusterer(config.kmeans.clone()),
            iskr: Iskr(config.iskr.clone()),
            pebc: Pebc(config.pebc.clone()),
            exact: ExactDeltaF(config.exact.clone()),
            config,
            terms: Vec::new(),
            keyword_buf: String::new(),
            search: SearchScratch::new(),
            scratch: IskrScratch::new(),
            expanded: ExpandedQuery::default(),
            merge: MergeScratch::new(),
            captured: Vec::new(),
            matches: Vec::new(),
            nonempty: Vec::new(),
            candidates: Vec::new(),
            added_terms: 0,
            ranker_disagreements: 0,
        }
    }

    /// A cache configured as the engine configures its own.
    fn mirror_cache(&self) -> SharedArenaCache {
        let c = &self.config.cache;
        SharedArenaCache::with_budget(c.capacity, c.max_bytes).with_failure_ttl(c.failure_ttl)
    }

    /// The cold path: retrieve, rank (both ways), cluster, build the arena,
    /// assemble the cacheable pipeline.
    fn build(
        &mut self,
        rec: &mut Recorder,
        id: u32,
        root: u32,
        req: &ExpandRequest<'_>,
        terms: &[TermId],
    ) -> CachedPipeline {
        let corpus = self.corpus;

        let span = rec.open("index.retrieve", id, root);
        let searcher = Searcher::new(corpus);
        match req.semantics {
            QuerySemantics::And => searcher.and_query_into(terms, &mut self.search),
            QuerySemantics::Or => searcher.or_query_into(terms, &mut self.search),
        }
        rec.close(span);
        self.matches.push(self.search.results().len() as f64);

        let span = rec.open("index.rank_full", id, root);
        let mut hits = TfIdfRanker::new(corpus).rank(self.search.results(), terms);
        if req.top_k > 0 {
            hits.truncate(req.top_k);
        }
        rec.close(span);

        // The sharded deployment's way to the same ranking: per slice,
        // retrieve and rank the top K with the whole corpus's idf, shift to
        // global ids; then merge.
        let idfs: Vec<f64> = terms.iter().map(|&t| corpus.index().idf(t)).collect();
        let mut lists: Vec<Vec<Hit>> = Vec::with_capacity(self.slices.len());
        for (slice, &base) in self.slices.iter().zip(&self.bases) {
            let span = rec.open("index.retrieve_slice", id, root);
            let searcher = Searcher::new(slice);
            match req.semantics {
                QuerySemantics::And => searcher.and_query_into(terms, &mut self.search),
                QuerySemantics::Or => searcher.or_query_into(terms, &mut self.search),
            }
            rec.close(span);
            let span = rec.open("index.rank_topk", id, root);
            let mut list = Vec::new();
            TfIdfRanker::new(slice).rank_with_idf_into(
                self.search.results(),
                terms,
                &idfs,
                req.top_k,
                &mut list,
            );
            for hit in &mut list {
                hit.doc = DocId(hit.doc.0 + base);
            }
            rec.close(span);
            lists.push(list);
        }
        let span = rec.open("core.merge", id, root);
        let mut merged = Vec::new();
        {
            let lists: Vec<&[Hit]> = lists.iter().map(Vec::as_slice).collect();
            self.merge
                .merge_into(&lists, hit_before, req.top_k, &mut merged);
        }
        rec.close(span);
        let same = merged.len() == hits.len()
            && merged
                .iter()
                .zip(&hits)
                .all(|(a, b)| a.doc == b.doc && a.score.to_bits() == b.score.to_bits());
        self.ranker_disagreements += u64::from(!same);

        let result_docs: Vec<DocId> = hits.iter().map(|h| h.doc).collect();
        let weights: Vec<f64> = hits.iter().map(|h| h.score).collect();

        let span = rec.open("cluster.vectors", id, root);
        let vectors: Vec<SparseVec> = result_docs
            .iter()
            .map(|&d| doc_tf_vector(corpus, d))
            .collect();
        rec.close(span);

        let span = rec.open("cluster.kmeans", id, root);
        let assignment = self.clusterer.cluster(&vectors, req.k_clusters);
        rec.close(span);
        self.nonempty.push(assignment.num_clusters() as f64);

        let span = rec.open("core.arena_build", id, root);
        let arena = ExpansionArena::build(
            corpus,
            &result_docs,
            Some(&weights),
            terms,
            &self.config.arena,
        );
        rec.close(span);
        self.candidates.push(arena.num_candidates() as f64);

        let span = rec.open("engine.assemble", id, root);
        let n = arena.size();
        let full = ResultSet::full(n);
        let clusters: Vec<CachedCluster> = (0..assignment.num_clusters())
            .map(|c| {
                let members = assignment.members(c).iter().map(|&m| m as usize);
                CachedCluster::new(ResultSet::from_indices(n, members), &full)
            })
            .collect();
        rec.close(span);

        CachedPipeline {
            arena,
            docs: result_docs,
            clusters,
            omitted_shards: Vec::new(),
        }
    }

    /// One request, stage by stage: what the engine would answer.
    fn replay(
        &mut self,
        cache: &SharedArenaCache,
        rec: &mut Recorder,
        id: u32,
        req: &ExpandRequest<'_>,
    ) -> Vec<ClusterExpansion> {
        let root = rec.open("staged", id, NO_PARENT);

        let mut terms = std::mem::take(&mut self.terms);
        let span = rec.open("text.analyse", id, root);
        self.corpus
            .query_terms_into(req.query, &mut terms, &mut self.keyword_buf);
        terms.sort_unstable();
        rec.close(span);

        let key = KeyRef {
            terms: &terms,
            semantics: req.semantics,
            k_clusters: req.k_clusters,
            top_k: req.top_k,
            strategy: req.strategy,
        };
        let span = rec.open("engine.cache_probe", id, root);
        let (probe, _) = cache.get_or_build_deadline(key, None);
        rec.close(span);
        let pipeline = match probe {
            CacheProbe::Hit(p) => p,
            CacheProbe::Miss(ticket) => {
                let built = Arc::new(self.build(rec, id, root, req, &terms));
                let span = rec.open("engine.cache_publish", id, root);
                ticket.publish(key, Arc::clone(&built));
                rec.close(span);
                if self.captured.len() < CAPTURED_PIPELINES {
                    self.captured.push(Arc::clone(&built));
                }
                built
            }
            CacheProbe::TimedOut | CacheProbe::Failed => {
                unreachable!("the staged replay sets no deadline and fails no build")
            }
        };
        self.terms = terms;

        // Expansion and page fill run per cluster, interleaved; one span
        // each per request sums the pieces.
        let expander: &dyn Expander = match req.strategy {
            ExpandStrategy::Iskr => &self.iskr,
            ExpandStrategy::ExactDeltaF => &self.exact,
            ExpandStrategy::Pebc => &self.pebc,
        };
        let expand_name = match req.strategy {
            ExpandStrategy::Iskr => "core.expand_iskr",
            ExpandStrategy::ExactDeltaF => "core.expand_exact",
            ExpandStrategy::Pebc => "core.expand_pebc",
        };
        let mut out = vec![ClusterExpansion::default(); pipeline.clusters.len()];
        let mut expand_ns = 0u64;
        let mut fill_ns = 0u64;
        let begin = Instant::now();
        for (slot, cc) in out.iter_mut().zip(&pipeline.clusters) {
            let t0 = Instant::now();
            let inst = QecInstance::from_shared_parts(&pipeline.arena, &cc.cluster, &cc.universe);
            expander.expand_into(&inst, &mut self.scratch, &mut self.expanded);
            let t1 = Instant::now();
            fill_page(slot, cc, &pipeline, &self.expanded, req);
            let t2 = Instant::now();
            expand_ns += (t1 - t0).as_nanos() as u64;
            fill_ns += (t2 - t1).as_nanos() as u64;
            self.added_terms += self.expanded.added.len() as u64;
        }
        let mid = begin + Duration::from_nanos(expand_ns);
        rec.record(expand_name, id, root, begin, mid);
        rec.record(
            "engine.page_fill",
            id,
            root,
            mid,
            mid + Duration::from_nanos(fill_ns),
        );
        rec.close(root);
        out
    }
}

/// The engine's response assembly for one cluster: the member page (a
/// non-zero offset jumps through the rank sidecar) and the added terms.
fn fill_page(
    slot: &mut ClusterExpansion,
    cc: &CachedCluster,
    pipeline: &CachedPipeline,
    out: &ExpandedQuery,
    req: &ExpandRequest<'_>,
) {
    let limit = match req.member_limit {
        0 => usize::MAX,
        l => l,
    };
    slot.docs.clear();
    if req.member_offset == 0 {
        slot.docs
            .extend(cc.cluster.iter().take(limit).map(|j| pipeline.docs[j]));
    } else if let Some(first) = cc.rank.select(&cc.cluster, req.member_offset) {
        slot.docs.extend(
            cc.cluster
                .iter_from(first)
                .take(limit)
                .map(|j| pipeline.docs[j]),
        );
    }
    slot.added.clear();
    slot.added
        .extend(out.added.iter().map(|&k| pipeline.arena.candidate(k).term));
    slot.quality = out.quality;
}

/// What the traced pass replays for one workload.
struct Plan<'i> {
    pool: &'i [gen::Query],
    requests: Vec<Request>,
    /// The open-loop schedule of the trailing requests, when the workload
    /// has one; the rest (or all) go through the front door closed-loop,
    /// one request in flight.
    arrivals: Option<Vec<gen::Arrival>>,
    /// Whether the workload's own deployment is the sharded one.
    own_sharded: bool,
}

impl<'i> Plan<'i> {
    fn of(workload: &str, cfg: &Config, inputs: &'i Inputs) -> Self {
        let share = cfg.seconds / crate::report::RUN_SECONDS as f64;
        let scaled = |n: usize| ((n as f64 * share) as usize).max(32);
        let cold = |n: usize| (0..n.min(inputs.cold.len())).map(Request::cold).collect();
        match workload {
            "cold_flat" | "sharded_cold" => Plan {
                pool: &inputs.cold,
                requests: cold(scaled(COLD_PREFIX)),
                arrivals: None,
                own_sharded: workload == "sharded_cold",
            },
            // The set-up's warm-up is part of the replay, so the cold
            // stages have samples here too; then the timed list's head.
            "warm_zipf" => Plan {
                pool: &inputs.warm,
                requests: gen::warm_keys(inputs)
                    .chain(
                        inputs
                            .warm_requests
                            .iter()
                            .copied()
                            .cycle()
                            .take(scaled(WARM_PREFIX)),
                    )
                    .collect(),
                arrivals: None,
                own_sharded: false,
            },
            // The same, with the timed list's head on its schedule.
            "ingress_open" => {
                let arrivals = gen::arrivals(
                    inputs,
                    INGRESS_RATE_RPS,
                    INGRESS_BURST,
                    INGRESS_PREFIX_SECONDS * share,
                );
                Plan {
                    pool: &inputs.warm,
                    requests: gen::warm_keys(inputs)
                        .chain(
                            arrivals
                                .iter()
                                .map(|a| inputs.warm_requests[a.slot as usize]),
                        )
                        .collect(),
                    arrivals: Some(arrivals),
                    own_sharded: false,
                }
            }
            other => unreachable!("unknown workload {other:?}"),
        }
    }
}

/// What the stages of a traced pass share: the requests, the span log, the
/// running checks, the metrics measured so far, and what the staged replay
/// found out about each request.
struct Pass<'r> {
    requests: &'r [ExpandRequest<'r>],
    rec: Recorder,
    values: HashMap<&'static str, f64>,
    notes: Vec<String>,
    attempted: u64,
    errors: u64,
    flawed: u64,
    /// Responses whose bits differ from the staged replay's.
    differing: u64,
    /// The staged replay's response digest per request.
    staged: Vec<u64>,
    /// Per request: staged time every deployment spends, and the parts
    /// only the flat or only the sharded deployment spends.
    common: Vec<u64>,
    flat_only: Vec<u64>,
    sharded_only: Vec<u64>,
}

/// One trip of the requests through a deployment.
struct Trip {
    ns: Vec<u64>,
    /// Response digests, 0 for a failed request.
    digests: Vec<u64>,
}

impl<'r> Pass<'r> {
    fn new(requests: &'r [ExpandRequest<'r>]) -> Self {
        Self {
            requests,
            rec: Recorder::new(),
            values: HashMap::new(),
            notes: Vec::new(),
            attempted: 0,
            errors: 0,
            flawed: 0,
            differing: 0,
            staged: Vec::new(),
            common: Vec::new(),
            flat_only: Vec::new(),
            sharded_only: Vec::new(),
        }
    }

    fn set(&mut self, metric: &'static str, value: f64) {
        self.values.insert(metric, value);
    }

    /// Books one response: flaws counted, the digest returned.
    fn book(
        &mut self,
        result: Result<ExpandResponse, EngineError>,
        recycle: impl FnOnce(ExpandResponse),
    ) -> u64 {
        self.attempted += 1;
        match result {
            Ok(resp) => {
                let s = served(&resp);
                self.flawed += u64::from(s.flawed);
                recycle(resp);
                s.digest
            }
            Err(_) => {
                self.errors += 1;
                0
            }
        }
    }

    /// Counts the served responses that are not the staged replay's bits.
    fn check_against_staged(&mut self, digests: &[u64]) {
        self.differing += digests
            .iter()
            .zip(&self.staged)
            .filter(|&(&d, &s)| d != 0 && d != s)
            .count() as u64;
    }

    /// The requests through one deployment, one at a time. With a span
    /// name, each request gets a root span.
    fn through(&mut self, server: &impl Server, span: Option<&'static str>) -> Trip {
        let n = self.requests.len();
        let mut trip = Trip {
            ns: Vec::with_capacity(n),
            digests: Vec::with_capacity(n),
        };
        for (i, req) in self.requests.iter().enumerate() {
            let start = Instant::now();
            let result = server.serve(req);
            let end = Instant::now();
            trip.ns.push((end - start).as_nanos() as u64);
            if let Some(name) = span {
                self.rec.record(name, i as u32, NO_PARENT, start, end);
            }
            let digest = self.book(result, |resp| server.recycle(resp));
            trip.digests.push(digest);
        }
        if !self.staged.is_empty() {
            self.check_against_staged(&trip.digests);
        }
        trip
    }

    /// The layers that are built once, each timed once: the index and a
    /// snapshot round trip of it.
    fn layer_builds(&mut self, cfg: &Config, inputs: &Inputs) -> Corpus {
        let docs = inputs.docs.clone();
        let start = Instant::now();
        let corpus = build_corpus(docs);
        self.set("index.build_s", start.elapsed().as_secs_f64());

        let dir = ScratchDir::new(cfg, "trace");
        let file = dir.0.join("full.qsnap");
        let start = Instant::now();
        let summary = qec_snapshot::save_corpus(&corpus, &file)
            .unwrap_or_else(|e| panic!("save {}: {e}", file.display()));
        self.set("snapshot.save_s", start.elapsed().as_secs_f64());
        self.set(
            "snapshot.bytes_per_doc",
            summary.bytes as f64 / summary.num_docs.max(1) as f64,
        );
        let start = Instant::now();
        let loaded = qec_snapshot::load_corpus(&file)
            .unwrap_or_else(|e| panic!("load {}: {e}", file.display()));
        self.set("snapshot.load_s", start.elapsed().as_secs_f64());
        if loaded.num_docs() != corpus.num_docs() || loaded.vocab_size() != corpus.vocab_size() {
            self.notes
                .push("the loaded snapshot is not the saved corpus".into());
        }
        corpus
    }

    /// Every request stage by stage; then the medians of the stages.
    fn staged_replay(&mut self, stager: &mut Stager<'_>) {
        let n = self.requests.len();
        let cache = stager.mirror_cache();
        for (i, req) in self.requests.iter().enumerate() {
            let clusters = stager.replay(&cache, &mut self.rec, i as u32, req);
            self.staged.push(clusters_digest(&clusters));
        }
        if stager.ranker_disagreements > 0 {
            self.notes.push(format!(
                "{} rankings differ between rank and per-slice rank_with_idf_into + merge",
                stager.ranker_disagreements
            ));
        }
        (self.common, self.flat_only, self.sharded_only) = (vec![0; n], vec![0; n], vec![0; n]);
        for s in self.rec.spans.iter().filter(|s| s.parent != NO_PARENT) {
            let bucket = if FLAT_ONLY.contains(&s.name) {
                &mut self.flat_only
            } else if SHARDED_ONLY.contains(&s.name) {
                &mut self.sharded_only
            } else {
                &mut self.common
            };
            bucket[s.request as usize] += s.end_ns - s.start_ns;
        }
        for (metric, span) in [
            ("text.analyse_us", "text.analyse"),
            ("index.retrieve_us", "index.retrieve"),
            ("index.retrieve_slice_us", "index.retrieve_slice"),
            ("index.rank_full_us", "index.rank_full"),
            ("index.rank_topk_us", "index.rank_topk"),
            ("cluster.vectors_us", "cluster.vectors"),
            ("cluster.kmeans_us", "cluster.kmeans"),
            ("core.arena_build_us", "core.arena_build"),
            ("core.merge_us", "core.merge"),
            ("engine.cache_probe_us", "engine.cache_probe"),
            ("engine.cache_publish_us", "engine.cache_publish"),
            ("engine.assemble_us", "engine.assemble"),
            ("engine.page_fill_us", "engine.page_fill"),
        ] {
            let ns = self.rec.durations(span);
            self.set(metric, us(median_ns(&ns)));
        }
        self.set("index.matches", median(&mut stager.matches));
        self.set("cluster.nonempty", median(&mut stager.nonempty));
        self.set("core.candidates", median(&mut stager.candidates));
        self.set("core.added_terms", stager.added_terms as f64);
    }

    /// The flat engine, traced: its cache's view of the requests, its span
    /// against the staged spans, and a cached batch.
    fn flat_deployment(&mut self, flat: &QecEngine) -> Trip {
        let before = flat.cache_stats();
        let trip = self.through(flat, Some("engine.expand"));
        let after = flat.cache_stats();
        let (hits, misses) = (after.hits - before.hits, after.misses - before.misses);
        self.set(
            "engine.cache_hit_ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        );
        self.set(
            "engine.cache_evictions",
            (after.evictions - before.evictions) as f64,
        );
        self.set("engine.expand_us", us(median_ns(&trip.ns)));
        let mut self_ns: Vec<f64> = (0..trip.ns.len())
            .map(|i| trip.ns[i] as f64 - (self.common[i] + self.flat_only[i]) as f64)
            .collect();
        self.set("engine.self_us", us(median(&mut self_ns)));

        // A batch of the 16 most recent requests, all cached by now.
        let tail = &self.requests[self.requests.len().saturating_sub(16)..];
        let mut out = Vec::new();
        let batch_ns: Vec<u64> = (0..200)
            .map(|_| {
                let start = Instant::now();
                flat.try_expand_batch_into(tail, &mut out);
                let ns = start.elapsed().as_nanos() as u64;
                for resp in out.drain(..).flatten() {
                    flat.recycle(resp);
                }
                ns
            })
            .collect();
        self.set(
            "engine.batch_us_per_req",
            us(median_ns(&batch_ns)) / tail.len() as f64,
        );
        trip
    }

    /// The sharded engine, traced: the scatter's counters, and its span
    /// against the gather-side staged spans.
    fn sharded_deployment(&mut self, sharded: &ShardedEngine) -> Trip {
        let before = sharded.stats();
        let trip = self.through(sharded, Some("shard.expand"));
        let after = sharded.stats();
        let total = |stats: &ShardedStats, f: &dyn Fn(&ShardStats) -> u64| -> f64 {
            stats.shards.iter().map(f).sum::<u64>() as f64
        };
        let delta = |f: &dyn Fn(&ShardStats) -> u64| total(&after, f) - total(&before, f);
        let retrievals = delta(&|s| s.scattered_retrievals);
        let hedges = delta(&|s| s.hedges);
        self.set("shard.retrievals", retrievals);
        self.set("shard.hedges", hedges);
        self.set("shard.hedge_ratio", hedges / retrievals.max(1.0));
        self.set("shard.omissions", delta(&|s| s.omissions));
        self.set(
            "shard.replica_failures",
            delta(&|s| s.replicas.iter().map(|r| r.failures).sum()),
        );
        let mut replica_ns: Vec<f64> = after
            .shards
            .iter()
            .flat_map(|s| s.replicas.iter().map(|r| r.mean_latency.as_nanos() as f64))
            .collect();
        self.set("shard.replica_mean_latency_us", us(median(&mut replica_ns)));
        self.set("shard.expand_us", us(median_ns(&trip.ns)));
        // Scatter time: what the sharded request took beyond the stages the
        // gather side runs itself, on the requests that scattered at all.
        let mut scatter_ns: Vec<f64> = (0..trip.ns.len())
            .filter(|&i| self.sharded_only[i] > 0)
            .map(|i| trip.ns[i] as f64 - self.common[i] as f64)
            .collect();
        self.set("shard.scatter_us", us(median(&mut scatter_ns)));
        trip
    }

    /// The front door: the leading requests one in flight at a time (what
    /// linger and dispatch cost a lone caller), the `scheduled` rest on
    /// their schedule. `direct_ns` is the same requests' latency served
    /// directly, in the same order and so with the same hits and misses:
    /// a ticket's latency beyond it is queue wait.
    fn front_door(
        &mut self,
        ingress: &Ingress,
        inputs: &Inputs,
        scheduled: &[gen::Arrival],
        direct_ns: &[u64],
    ) {
        let n = self.requests.len();
        let lead = n - scheduled.len();
        let mut ticket_ns = Vec::with_capacity(n);
        let mut lateness_ns = Vec::with_capacity(n);
        let mut digests = Vec::with_capacity(n);
        for (i, req) in self.requests[..lead].iter().enumerate() {
            let owned = IngressRequest {
                timeout: Some(INGRESS_TIMEOUT),
                ..IngressRequest::from(req)
            };
            let due = Instant::now();
            let submitted = ingress.submit(owned);
            lateness_ns.push(due.elapsed().as_nanos() as u64);
            let result = submitted.and_then(|ticket| ticket.wait());
            let done = Instant::now();
            ticket_ns.push((done - due).as_nanos() as u64);
            self.rec
                .record("ingress.ticket", i as u32, NO_PARENT, due, done);
            digests.push(self.book(result, |resp| ingress.engine().recycle(resp)));
        }
        let mut depth_end = ingress.stats().queue_depth;
        if !scheduled.is_empty() {
            let open = workloads::open_loop(ingress, inputs, scheduled, None);
            self.attempted += scheduled.len() as u64;
            self.errors += open.errors;
            // A request that failed keeps a zero wait: it is counted as a
            // failure, not as fast.
            ticket_ns.resize(n, 0);
            digests.resize(n, 0);
            for s in &open.served {
                let i = lead + s.index;
                ticket_ns[i] = (s.done - s.due).as_nanos() as u64;
                digests[i] = s.digest;
                self.rec
                    .record("ingress.ticket", i as u32, NO_PARENT, s.due, s.done);
            }
            lateness_ns = open.lateness_ns;
            depth_end = open.depth_end;
        }
        self.check_against_staged(&digests);
        let stats = ingress.stats();
        self.flawed += stats.degraded + stats.partial;
        self.set("ingress.ticket_us", us(median_ns(&ticket_ns)));
        let mut wait_ns: Vec<u64> = (0..n)
            .map(|i| ticket_ns[i].saturating_sub(direct_ns[i]))
            .collect();
        wait_ns.sort_unstable();
        self.set(
            "ingress.queue_wait_p50_us",
            us(percentile(&wait_ns, 0.50) as f64),
        );
        self.set(
            "ingress.queue_wait_p99_us",
            us(percentile(&wait_ns, 0.99) as f64),
        );
        self.set("ingress.mean_fill", stats.mean_fill());
        self.set("ingress.full_closes", stats.full_closes as f64);
        self.set("ingress.linger_closes", stats.linger_closes as f64);
        self.set("ingress.queue_sheds", stats.queue_sheds as f64);
        self.set("ingress.expired_in_queue", stats.expired_in_queue as f64);
        self.set("ingress.queue_depth_end", depth_end as f64);
        lateness_ns.sort_unstable();
        self.set(
            "ingress.gen_lateness_p99_us",
            us(percentile(&lateness_ns, 0.99) as f64),
        );
    }

    /// The kernels under expansion, on the pipelines the replay built, and
    /// the pool's dispatch cost.
    fn kernel_probes(&mut self, stager: &Stager<'_>) {
        let expanders: [(&'static str, &dyn Expander); 3] = [
            ("core.expand_iskr_us", &stager.iskr),
            ("core.expand_pebc_us", &stager.pebc),
            ("core.expand_exact_us", &stager.exact),
        ];
        let mut scratch = IskrScratch::new();
        for (metric, expander) in expanders {
            let ns: Vec<u64> = stager
                .captured
                .iter()
                .map(|p| expand_probe(p, expander, &mut scratch))
                .collect();
            self.set(metric, us(median_ns(&ns)));
        }
        let probes: Vec<[f64; 4]> = stager
            .captured
            .iter()
            .filter_map(|p| bitset_probe(p))
            .collect();
        for (k, metric) in [
            "bitset.and_not_count_into_ns",
            "bitset.weighted_sum_and_ns",
            "bitset.weighted_sum_split_ns",
            "bitset.select_ns",
        ]
        .into_iter()
        .enumerate()
        {
            let mut column: Vec<f64> = probes.iter().map(|p| p[k]).collect();
            self.set(metric, median(&mut column));
        }
        let pool = WorkerPool::new(POOL_THREADS);
        self.set("core.pool_dispatch_n2_us", pool_probe(&pool, 2));
        self.set("core.pool_dispatch_n16_us", pool_probe(&pool, 16));
    }
}

/// Nanoseconds per call of the four bitset kernels expansion leans on, on
/// one real pipeline's cluster and candidate sets.
fn bitset_probe(p: &CachedPipeline) -> Option<[f64; 4]> {
    const REPEATS: usize = 20;
    let weights = &p.arena.weights;
    let pairs = p.clusters.len() * p.arena.candidates.len();
    let members: usize = p.clusters.iter().map(|c| c.cluster.len()).sum();
    if pairs == 0 || members == 0 {
        return None;
    }
    // One kernel over every (cluster, candidate) pair, REPEATS times.
    let per_pair = |call: &mut dyn FnMut(&CachedCluster, &Candidate)| -> f64 {
        let start = Instant::now();
        for _ in 0..REPEATS {
            for cc in &p.clusters {
                for cand in &p.arena.candidates {
                    call(cc, black_box(cand));
                }
            }
        }
        start.elapsed().as_nanos() as f64 / (pairs * REPEATS) as f64
    };
    let mut out = Bitset::empty(p.arena.size());
    let and_not = per_pair(&mut |cc, cand| {
        black_box(cc.cluster.and_not_count_into(&cand.contains, &mut out));
    });
    let sum_and = per_pair(&mut |cc, cand| {
        black_box(cc.cluster.weighted_sum_and(&cand.contains, weights));
    });
    let sum_split = per_pair(&mut |cc, cand| {
        black_box(cand.contains.weighted_sum_split(&cc.cluster, weights));
    });

    let start = Instant::now();
    for _ in 0..REPEATS {
        for cc in &p.clusters {
            for n in 0..cc.cluster.len() {
                black_box(cc.rank.select(&cc.cluster, black_box(n)));
            }
        }
    }
    let select = start.elapsed().as_nanos() as f64 / (members * REPEATS) as f64;
    Some([and_not, sum_and, sum_split, select])
}

/// One request's expansion (all its clusters) under `expander`, warmed.
fn expand_probe(p: &CachedPipeline, expander: &dyn Expander, scratch: &mut IskrScratch) -> u64 {
    let mut out = ExpandedQuery::default();
    let mut run = |scratch: &mut IskrScratch| {
        let start = Instant::now();
        for cc in &p.clusters {
            let inst = QecInstance::from_shared_parts(&p.arena, &cc.cluster, &cc.universe);
            expander.expand_into(&inst, scratch, &mut out);
            black_box(&out);
        }
        start.elapsed().as_nanos() as u64
    };
    run(scratch);
    run(scratch)
}

/// Median cost of handing `n` no-op tasks to the pool and waiting for them.
fn pool_probe(pool: &WorkerPool, n: usize) -> f64 {
    let noop = |i: usize| {
        black_box(i);
    };
    for _ in 0..200 {
        pool.run_indexed(n, &noop);
    }
    let ns: Vec<u64> = (0..2_000)
        .map(|_| {
            let start = Instant::now();
            pool.run_indexed(n, &noop);
            start.elapsed().as_nanos() as u64
        })
        .collect();
    median_ns(&ns) / 1e3
}

fn us(ns: f64) -> f64 {
    ns / 1e3
}

pub fn run(workload: &str, cfg: &Config, inputs: &Inputs) -> Outcome {
    let plan = Plan::of(workload, cfg, inputs);
    let requests: Vec<ExpandRequest<'_>> =
        plan.requests.iter().map(|r| r.expand(plan.pool)).collect();
    let n = requests.len();
    let mut pass = Pass::new(&requests);
    let corpus = pass.layer_builds(cfg, inputs);

    // The workload's own deployment runs untraced, traced, untraced, so
    // that warm-up drift cancels out of the overhead figure; the staged
    // replay runs after the first untraced trip, as warm as the traced one.
    // A cold list longer than the cache misses on every trip; a warm list
    // hits on every trip after its first.
    let clone = corpus.clone();
    let start = Instant::now();
    let flat = EngineBuilder::from_corpus(clone)
        .pool_threads(POOL_THREADS)
        .build();
    pass.set("engine.build_s", start.elapsed().as_secs_f64());
    let flat_first = pass.through(&flat, None);

    let mut stager = Stager::new(&corpus);
    pass.staged_replay(&mut stager);
    pass.check_against_staged(&flat_first.digests);

    let flat_trip = pass.flat_deployment(&flat);
    let flat_untraced = (!plan.own_sharded).then(|| {
        let last = pass.through(&flat, None);
        (median_ns(&flat_first.ns) + median_ns(&last.ns)) / 2.0
    });
    drop(flat);

    let clone = corpus.clone();
    let start = Instant::now();
    let sharded = sharded_builder(ShardedEngineBuilder::from_corpus(clone)).build();
    pass.set("shard.build_s", start.elapsed().as_secs_f64());
    let sharded_first = plan.own_sharded.then(|| pass.through(&sharded, None));
    let sharded_trip = pass.sharded_deployment(&sharded);
    let sharded_untraced = sharded_first.map(|first| {
        let last = pass.through(&sharded, None);
        (median_ns(&first.ns) + median_ns(&last.ns)) / 2.0
    });
    drop(sharded);

    let ingress = IngressBuilder::new(Arc::new(
        EngineBuilder::from_corpus(corpus.clone())
            .pool_threads(POOL_THREADS)
            .build(),
    ))
    .spawn();
    let scheduled = plan.arrivals.as_deref().unwrap_or(&[]);
    pass.front_door(&ingress, inputs, scheduled, &flat_trip.ns);
    drop(ingress);

    pass.kernel_probes(&stager);

    // How much of the workload's own deployment the staged spans explain,
    // and what recording cost it. Medians of per-request figures: a stall
    // in either execution of one request must not tilt the whole table.
    // (The sharded deployment runs its slices in parallel, the replay in
    // sequence: coverage may exceed 1 there.)
    let (own, own_only, own_untraced) = match (flat_untraced, sharded_untraced) {
        (Some(untraced), _) => (&flat_trip, &pass.flat_only, untraced),
        (None, Some(untraced)) => (&sharded_trip, &pass.sharded_only, untraced),
        (None, None) => unreachable!("one deployment is the workload's own"),
    };
    let mut explained: Vec<f64> = (0..n)
        .map(|i| (pass.common[i] + own_only[i]) as f64 / own.ns[i].max(1) as f64)
        .collect();
    pass.set("trace.coverage", median(&mut explained));
    pass.set(
        "trace.overhead_pct",
        (median_ns(&own.ns) / own_untraced - 1.0) * 100.0,
    );
    pass.set("trace.requests", n as f64);
    pass.set("trace.spans", pass.rec.spans.len() as f64);

    let trace_file = cfg.out_dir.join(format!("trace-{workload}.jsonl"));
    if let Err(e) = pass.rec.write_jsonl(&trace_file) {
        pass.notes
            .push(format!("write {}: {e}", trace_file.display()));
    }
    if pass.differing > 0 {
        pass.notes.push(format!(
            "{} deployment responses differ from the staged replay's",
            pass.differing
        ));
    }
    if pass.flawed > 0 {
        pass.notes.push(format!(
            "{} responses were degraded or partial",
            pass.flawed
        ));
    }
    if pass.errors > 0 {
        pass.notes
            .push(format!("{} requests were refused or failed", pass.errors));
    }
    Outcome {
        attempted: pass.attempted,
        failed: pass.errors + pass.flawed,
        digest: combine(pass.staged.iter().copied().take(DIGEST_SLOTS).enumerate()),
        samples: n,
        metrics: PER_LAYER
            .iter()
            .map(|&(name, unit, _)| {
                let value = *pass
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("the traced pass did not measure {name}"));
                (name, value, unit)
            })
            .collect(),
        notes: pass.notes,
    }
}
