//! Iterative Single-Keyword Refinement (paper §3, Algorithm 1).
//!
//! ISKR starts from the user query (which retrieves the whole arena) and
//! greedily adds or removes one keyword per iteration:
//!
//! * the **value** of a move is its benefit/cost ratio —
//!   for an *add* of `k`: `benefit = S(R(q) ∩ U ∩ E(k))`,
//!   `cost = S(R(q) ∩ C ∩ E(k))` (precision gained vs recall lost);
//!   for a *remove* of `k ∈ q`: with `D(k) = R(q\k) \ R(q)`,
//!   `benefit = S(D ∩ C)`, `cost = S(D ∩ U)` (recall regained vs precision
//!   lost);
//! * the move with the highest value is applied while that value exceeds 1
//!   (benefit strictly greater than cost);
//! * after a move every add value is recomputed by one **lane pass** over
//!   the new `R(q)` (below), and the handful of in-query keywords are
//!   revalued as removals.
//!
//! The lane pass
//! -------------
//! An add value sums over the keyword's *elimination* set, and for the
//! candidates the paper selects ("top-20 % words in the results in terms of
//! tfidf") that set is nearly the whole arena: on the repo benchmark's
//! arenas (mean 67 results × 134 candidates) a candidate is in 6.4 % of
//! the results. Valuing candidates one at a time therefore walks ~94 % of
//! `R(q)` bit by bit, one dependent `f64` add per bit, twice per candidate.
//! `add_values` turns that inside out: it walks the members of `R(q)`
//! once and keeps one running sum per candidate — a *lane* — on each side
//! (benefit for a result in `U`, cost for one in `C`). The arena's lane
//! index (`crate::problem::ExpansionArena`) says, per result, which lanes
//! are the exception: for a result few candidates contain, the listed
//! lanes are set aside, the result's weight is added to **all** lanes in
//! one vectorisable loop, and the listed lanes are put back; for a result
//! most candidates contain (a *flipped* row) the weight is added to the
//! listed lanes only.
//!
//! Exactness. `Bitset::weighted_sum_and_not_and`, which the per-candidate
//! valuation ran on, sums each 64-result word from `0.0` in ascending bit
//! order and adds the words' sums in word order. The pass does the same
//! per lane: per word two partial arrays start at `0.0`, members are
//! visited in ascending order and a lane receives exactly the weights of
//! the results it eliminates, then the partials are added to the totals.
//! A word with no member of `R(q)` is skipped — it would add `0.0` to sums
//! that are never `-0.0`. Every lane thus performs the additions of its own
//! walk in its own order, so benefits, costs, values, the moves chosen on
//! them and the reported quality are the same bits (the `reference`
//! module keeps the per-candidate walk, and the differential tests compare
//! `to_bits`); only the adds of *different* lanes no longer wait on each
//! other. Subtracting a keyword's kept weight from `S(R(q) ∩ U)` would be
//! cheaper still and is **not** used: it rounds differently, and equal
//! weights (every single-term query with tf 1) make `benefit == cost` ties
//! real, so moves would change.
//!
//! Maintenance. The paper's §3 rule ("Identifying Keywords with Affected
//! Values": after a move with delta results `D` only a keyword with
//! `E(k) ∩ D ≠ ∅` can have changed value) used to pick the candidates to
//! revalue, by one subset test each. A whole lane pass over the shrunken
//! `R(q)` costs less than revaluing that affected set one walk at a time,
//! on both density regimes (`bench_iskr` on the 2-core box, parent →
//! this kernel): candidates in ~7 % of the results, the serving shape,
//! `iskr/sparse100` 23.7 → 8.7 µs; candidates in ~89 % of them,
//! `iskr/arena100` 8.8 → 8.5 µs and `iskr/arena500` 103 → 114 µs — without
//! the shorter-side rows that dense regime was several times slower, which
//! is why the index stores them. So there is one maintenance path, a full
//! pass, and the §3 rule lives on in the `reference` module as the oracle
//! it is checked against (both must land on the same expansion).
//!
//! Dispatched compilations. The workspace is built for the target's
//! baseline — on x86-64 that is SSE2, two `f64` adds per instruction — and
//! nothing in the build raises it. So the pass has one body, `lane_pass`
//! (`#[inline(always)]`), compiled three times: as is, under
//! `#[target_feature(enable = "avx2")]` and under
//! `#[target_feature(enable = "avx512f")]` (x86-64 only; every other target
//! gets the baseline alone). `add_values` is the dispatcher: each call
//! runs the widest compilation `std::arch::is_x86_feature_detected!`
//! reports (`Level::chosen`, a cached bit test that allocates nothing;
//! there is no option to set). The level cannot change a bit. A wider
//! vector adds the same weight to more *lanes* at once, and each lane is
//! still one memory slot receiving its own additions in its own order; no
//! lane's sum gains, loses or reorders a term. Rust neither reassociates
//! float adds nor contracts them into fused multiply-adds, whatever the
//! target features. The differential tests below run at every level the
//! host has. `kmeans.rs`' rule "no SIMD horizontal sums" concerns a
//! different property, reassociating the terms *within* one sum, and
//! still holds: this pass has no horizontal sum.
//!
//! Keyword *removal* matters (paper Example 3.2): a keyword that was the
//! best first move can become strictly dominated once later keywords have
//! taken over its eliminations; removing it then recovers recall for free.
//!
//! A value of ∞ (cost = 0, benefit > 0) is a free win and always taken
//! first. Ties break on lower candidate id, making runs deterministic.
//!
//! Allocation discipline
//! ---------------------
//! The hot loop is allocation-free. All working state — current results,
//! the lane sums, the per-candidate value cache, the query itself — lives
//! in an [`IskrScratch`] that [`iskr_into`] reuses across calls; removal
//! valuations run on the fused three-operand bitset kernel
//! (`weighted_sum_and_not_and`), so no temporary `ResultSet` is ever
//! materialised. After one warm-up call on a given arena shape,
//! subsequent calls perform **zero** heap allocations (enforced by the
//! `zero_alloc` integration test).

use crate::bitset::ResultSet;
use crate::cancel::CancelToken;
use crate::metrics::QueryQuality;
use crate::problem::{CandId, QecInstance};

/// Configuration for [`iskr`].
#[derive(Debug, Clone)]
pub struct IskrConfig {
    /// Hard cap on iterations (defensive; the value>1 rule terminates in
    /// practice, but add/remove interplay has no formal termination proof).
    pub max_iters: usize,
    /// Allow removal moves (paper Example 3.2). Disabling this is the
    /// "add-only" ablation.
    pub allow_removal: bool,
}

impl Default for IskrConfig {
    fn default() -> Self {
        Self {
            max_iters: 200,
            allow_removal: true,
        }
    }
}

/// An expanded query: the candidates added to the user query, plus its
/// quality against the instance's cluster.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ExpandedQuery {
    /// Added candidate keywords, in ascending id order.
    pub added: Vec<CandId>,
    /// Precision/recall/F against the cluster.
    pub quality: QueryQuality,
}

/// Per-candidate cached move valuation.
#[derive(Debug, Clone, Copy)]
pub(crate) struct MoveValue {
    pub(crate) value: f64,
}

impl MoveValue {
    fn from_benefit_cost(benefit: f64, cost: f64) -> Self {
        let value = if cost <= 0.0 {
            if benefit > 0.0 {
                f64::INFINITY
            } else {
                0.0
            }
        } else {
            benefit / cost
        };
        Self { value }
    }
}

/// Reusable working state for [`iskr_into`]. Construct once, feed to any
/// number of runs. Candidate-indexed buffers grow to the largest count
/// seen; the bitset buffers are retargeted in place whenever the arena
/// universe differs from the previous run's, keeping their capacity, so
/// runs stay allocation-free across arena sizes once the largest has been
/// seen.
#[derive(Debug, Default)]
pub struct IskrScratch {
    pub(crate) values: Vec<MoveValue>,
    pub(crate) in_query: Vec<bool>,
    pub(crate) query: Vec<CandId>,
    /// `R(q)` for the current query.
    pub(crate) r: ResultSet,
    /// `R(q \ k)` workspace for removal valuations.
    pub(crate) r_without: ResultSet,
    /// The accumulators of [`add_values`]: five runs of one `f64` per
    /// candidate lane — benefit and cost totals, benefit and cost sums over
    /// the result word being walked, and the lanes a result's row lists,
    /// set aside while its weight goes to all the others.
    pub(crate) lanes: Vec<f64>,
    /// Candidate ordering buffer (PEBC's one-shot static ranking).
    pub(crate) order: Vec<u32>,
    /// Output: the added keywords of the last run, ascending.
    pub(crate) added: Vec<CandId>,
}

impl IskrScratch {
    /// Fresh scratch; buffers are sized lazily on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Added keywords of the most recent [`iskr_into`] run (ascending ids).
    pub fn added(&self) -> &[CandId] {
        &self.added
    }

    /// Grows every buffer for an arena of `universe` results and `n_cands`
    /// candidates. No-op (and allocation-free) when already large enough.
    pub(crate) fn ensure(&mut self, universe: usize, n_cands: usize) {
        if self.r.universe() != universe {
            self.r.reset(universe);
            self.r_without.reset(universe);
        }
        if self.values.len() < n_cands {
            self.values.resize(n_cands, MoveValue { value: 0.0 });
            self.in_query.resize(n_cands, false);
            self.lanes.resize(5 * n_cands, 0.0);
        }
        self.query.clear();
        if self.query.capacity() < n_cands {
            self.query.reserve(n_cands);
        }
        if self.added.capacity() < n_cands {
            self.added.reserve(n_cands);
        }
        self.order.clear();
        if self.order.capacity() < n_cands {
            self.order.reserve(n_cands);
        }
    }
}

/// Runs ISKR on one cluster instance with a fresh scratch.
pub fn iskr(inst: &QecInstance<'_>, config: &IskrConfig) -> ExpandedQuery {
    let mut scratch = IskrScratch::new();
    let quality = iskr_into(inst, config, &mut scratch);
    ExpandedQuery {
        added: scratch.added.clone(),
        quality,
    }
}

/// Runs ISKR on one cluster instance, reusing `scratch` for all working
/// state. The added keywords land in [`IskrScratch::added`]; the returned
/// quality is computed from the final result set. After one warm-up call on
/// an arena of the same shape, this performs no heap allocation.
pub fn iskr_into(
    inst: &QecInstance<'_>,
    config: &IskrConfig,
    scratch: &mut IskrScratch,
) -> QueryQuality {
    iskr_into_cancellable(inst, config, scratch, &CancelToken::none())
        .expect("inert token never cancels")
}

/// [`iskr_into`] with cooperative cancellation: `cancel` is polled once
/// per greedy iteration (before the move search) and once per 64-result
/// word of every lane pass, and a tripped token returns `None` with the
/// scratch in a valid-but-unspecified state — the no-torn-results contract
/// of [`CancelToken`]. An untripped run is bit-identical to
/// [`iskr_into`] (the poll does not affect the refinement), and the inert
/// token adds only two branch tests per poll, preserving the
/// zero-allocation discipline.
pub fn iskr_into_cancellable(
    inst: &QecInstance<'_>,
    config: &IskrConfig,
    scratch: &mut IskrScratch,
    cancel: &CancelToken,
) -> Option<QueryQuality> {
    let arena = inst.arena;
    let n_cands = arena.num_candidates();
    scratch.ensure(arena.size(), n_cands);
    let IskrScratch {
        values,
        in_query,
        query,
        r,
        r_without,
        lanes,
        added,
        ..
    } = scratch;
    let values = &mut values[..n_cands];
    in_query[..n_cands].fill(false);
    r.set_full();

    // Initial valuation of every candidate (all are add moves).
    if !add_values(inst, r, lanes, values, cancel) {
        return None;
    }

    for _ in 0..config.max_iters {
        if cancel.is_cancelled() {
            return None;
        }
        // Best move by value; ties on lower id.
        let mut best: Option<(usize, f64)> = None;
        for (i, mv) in values.iter().enumerate() {
            if !config.allow_removal && in_query[i] {
                continue;
            }
            match best {
                Some((_, bv)) if mv.value <= bv => {}
                _ => {
                    if mv.value > 1.0 {
                        best = Some((i, mv.value));
                    }
                }
            }
        }
        let Some((best_idx, _)) = best else { break };
        let k = CandId(best_idx as u32);

        // Apply the move.
        if in_query[best_idx] {
            // Remove k: results gained back. R(q \ k) re-derives from the
            // remaining keywords' containment sets.
            results_without(inst, query, Some(k), r_without);
            std::mem::swap(r, r_without);
            query.retain(|&c| c != k);
            in_query[best_idx] = false;
        } else {
            // Add k: results eliminated.
            let contains = &arena.candidate(k).contains;
            let eliminated = r.and_not_count(contains);
            r.and_assign(contains);
            query.push(k);
            in_query[best_idx] = true;
            if eliminated == 0 {
                // The keyword changed nothing (can only happen with a stale
                // value); fix its value and continue.
                values[best_idx] = MoveValue::from_benefit_cost(0.0, 0.0);
                continue;
            }
        }

        // Maintenance: one lane pass over the new `R(q)` revalues every
        // add move. Removal values of in-query keywords depend on the
        // whole query, not just the delta (the paper's own Example 3.2
        // requires the removal value of "job" to refresh after a move whose
        // delta "job" contains), so the handful of in-query keywords are
        // always recomputed exactly.
        if !add_values(inst, r, lanes, values, cancel) {
            return None;
        }
        for &id in query.iter() {
            values[id.index()] = remove_value(inst, r, query, id, r_without);
        }
    }

    added.clear();
    added.extend_from_slice(query);
    added.sort_unstable();
    Some(inst.quality_of(r))
}

/// Writes `R(uq ∪ query \ skip)` into `out` without allocating.
pub(crate) fn results_without(
    inst: &QecInstance<'_>,
    query: &[CandId],
    skip: Option<CandId>,
    out: &mut ResultSet,
) {
    out.set_full();
    for &c in query {
        if Some(c) != skip {
            out.and_assign(&inst.arena.candidate(c).contains);
        }
    }
}

/// The lane pass: values adding each candidate to the query whose result
/// set is `r` — `benefit = S(r ∩ E(k) ∩ U)`, `cost = S(r ∩ E(k) ∩ C)` for
/// every lane `k` of `values` — in one walk over the members of `r` (see
/// the module docs for why each lane's sum keeps its bits). Polls `cancel`
/// once per result word and returns `false` when it has tripped, with
/// `values` unspecified.
///
/// Runs the widest compilation of [`lane_pass`] this CPU has the features
/// for (module docs, "Dispatched compilations").
pub(crate) fn add_values(
    inst: &QecInstance<'_>,
    r: &ResultSet,
    lanes: &mut [f64],
    values: &mut [MoveValue],
    cancel: &CancelToken,
) -> bool {
    match Level::chosen() {
        #[cfg(target_arch = "x86_64")]
        // SAFETY: `Level::chosen` returns `Avx512f` only when this CPU has
        // `avx512f`, the one feature the function enables.
        Level::Avx512f => unsafe { lane_pass_avx512f(inst, r, lanes, values, cancel) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: likewise, `Avx2` only when this CPU has `avx2`.
        Level::Avx2 => unsafe { lane_pass_avx2(inst, r, lanes, values, cancel) },
        _ => lane_pass(inst, r, lanes, values, cancel),
    }
}

/// A compilation of the lane pass: the instructions [`add_values`] runs
/// [`lane_pass`] with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Level {
    /// The target's baseline (SSE2 on x86-64): two `f64` per vector add.
    Baseline,
    /// AVX2: four.
    Avx2,
    /// AVX-512F: eight.
    Avx512f,
}

impl Level {
    /// Every level, narrowest first.
    const ALL: [Level; 3] = [Level::Baseline, Level::Avx2, Level::Avx512f];

    /// Whether this CPU has the level's target features. Detection is
    /// std's: a `cpuid` read once per process, then a cached bit.
    fn runs_here(self) -> bool {
        match self {
            Level::Baseline => true,
            #[cfg(target_arch = "x86_64")]
            Level::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(target_arch = "x86_64")]
            Level::Avx512f => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(not(target_arch = "x86_64"))]
            _ => false,
        }
    }

    /// The widest level this CPU runs.
    fn detected() -> Level {
        Level::ALL
            .into_iter()
            .rev()
            .find(|level| level.runs_here())
            .unwrap_or(Level::Baseline)
    }

    /// The level [`add_values`] runs: the detected one, unless a test has
    /// pinned its thread to another this CPU runs.
    fn chosen() -> Level {
        #[cfg(test)]
        if let Some(level) = PINNED.get() {
            return level;
        }
        Level::detected()
    }
}

#[cfg(test)]
thread_local! {
    /// The level the tests run [`add_values`] at on this thread; set only
    /// to a level that [`Level::runs_here`].
    static PINNED: std::cell::Cell<Option<Level>> = const { std::cell::Cell::new(None) };
}

/// [`lane_pass`] compiled for AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn lane_pass_avx2(
    inst: &QecInstance<'_>,
    r: &ResultSet,
    lanes: &mut [f64],
    values: &mut [MoveValue],
    cancel: &CancelToken,
) -> bool {
    lane_pass(inst, r, lanes, values, cancel)
}

/// [`lane_pass`] compiled for AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn lane_pass_avx512f(
    inst: &QecInstance<'_>,
    r: &ResultSet,
    lanes: &mut [f64],
    values: &mut [MoveValue],
    cancel: &CancelToken,
) -> bool {
    lane_pass(inst, r, lanes, values, cancel)
}

/// The one body of [`add_values`], inlined into each compilation.
#[inline(always)]
fn lane_pass(
    inst: &QecInstance<'_>,
    r: &ResultSet,
    lanes: &mut [f64],
    values: &mut [MoveValue],
    cancel: &CancelToken,
) -> bool {
    let arena = inst.arena;
    let n = values.len();
    let (totals, rest) = lanes[..5 * n].split_at_mut(2 * n);
    let (total_b, total_c) = totals.split_at_mut(n);
    let (partials, aside) = rest.split_at_mut(2 * n);
    let (partial_b, partial_c) = partials.split_at_mut(n);
    let partials = [partial_b, partial_c];
    total_b.fill(0.0);
    total_c.fill(0.0);

    let words = r.as_words().iter().zip(inst.cluster.as_words());
    let words = words.zip(arena.flipped_rows().as_words());
    for (wi, ((&members, &in_cluster), &flipped)) in words.enumerate() {
        if members == 0 {
            // Every lane's partial sum would be `0.0`, which changes no
            // total.
            continue;
        }
        if cancel.is_cancelled() {
            return false;
        }
        partials[0].fill(0.0);
        partials[1].fill(0.0);
        let mut remaining = members;
        while remaining != 0 {
            let bit = remaining.trailing_zeros();
            remaining &= remaining - 1;
            let i = wi * 64 + bit as usize;
            let weight = arena.weights[i];
            let side = &mut *partials[(in_cluster >> bit & 1) as usize];
            let row = arena.lane_row(i);
            if flipped >> bit & 1 != 0 {
                // The row lists the candidates that eliminate `i`.
                for &k in row {
                    side[k as usize] += weight;
                }
            } else {
                // The row lists the ones that keep it: everyone else gets
                // the weight.
                for (slot, &k) in aside.iter_mut().zip(row) {
                    *slot = side[k as usize];
                }
                for sum in side.iter_mut() {
                    *sum += weight;
                }
                for (&slot, &k) in aside.iter().zip(row) {
                    side[k as usize] = slot;
                }
            }
        }
        for (total, partial) in total_b.iter_mut().zip(&*partials[0]) {
            *total += partial;
        }
        for (total, partial) in total_c.iter_mut().zip(&*partials[1]) {
            *total += partial;
        }
    }

    for ((value, &benefit), &cost) in values.iter_mut().zip(&*total_b).zip(&*total_c) {
        *value = MoveValue::from_benefit_cost(benefit, cost);
    }
    true
}

/// Valuation of removing `k` (currently in `query`) from the query with
/// result set `r`. `D = R(q\k) \ R(q)`; `r_without` is scratch space.
fn remove_value(
    inst: &QecInstance<'_>,
    r: &ResultSet,
    query: &[CandId],
    k: CandId,
    r_without: &mut ResultSet,
) -> MoveValue {
    results_without(inst, query, Some(k), r_without);
    let w = &inst.arena.weights;
    let benefit = r_without.weighted_sum_and_not_and(r, &inst.cluster, w);
    let cost = r_without.weighted_sum_and_not_and(r, &inst.universe_set, w);
    MoveValue::from_benefit_cost(benefit, cost)
}

#[cfg(test)]
pub(crate) mod reference;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pebc::{pebc, PebcConfig};
    use crate::problem::{Candidate, ExpansionArena};
    use qec_text::TermId;

    /// The paper's Example 3.1 arena (see `problem::tests::example_3_1` —
    /// duplicated here because test modules are private per-module).
    fn example_3_1() -> (ExpansionArena, ResultSet) {
        let n = 18;
        let r = |i: usize| i - 1;
        let u = |i: usize| 7 + i;
        let elim = |ce: &[usize], ue: &[usize]| -> ResultSet {
            let mut e = ResultSet::empty(n);
            for &i in ce {
                e.insert(r(i));
            }
            for &i in ue {
                e.insert(u(i));
            }
            e
        };
        let job = elim(&[1, 2, 3, 4, 5, 6], &[1, 2, 3, 4, 5, 6, 7, 8]);
        let store = elim(&[1, 2, 3, 4], &[1, 2, 3, 4, 9]);
        let location = elim(&[2, 3, 4, 5], &[5, 6, 7, 8, 10]);
        let fruit = elim(&[1, 2, 3], &[2, 3, 4]);
        let full = ResultSet::full(n);
        let candidates = vec![
            Candidate {
                term: TermId(0),
                contains: full.and_not(&job),
            },
            Candidate {
                term: TermId(1),
                contains: full.and_not(&store),
            },
            Candidate {
                term: TermId(2),
                contains: full.and_not(&location),
            },
            Candidate {
                term: TermId(3),
                contains: full.and_not(&fruit),
            },
        ];
        let arena = ExpansionArena::from_parts(vec![1.0; n], candidates);
        let cluster = ResultSet::from_indices(n, 0..8);
        (arena, cluster)
    }

    #[test]
    fn reproduces_paper_examples_3_1_and_3_2() {
        // The paper walks ISKR to q = {apple, store, location}: after
        // adding job, store, location, the removal of job becomes
        // beneficial (Example 3.2); the final query retrieves
        // C: {R6, R7, R8}, U: ∅ (precision 1, recall 3/8).
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        let out = iskr(&inst, &IskrConfig::default());
        // store = cand 1, location = cand 2.
        assert_eq!(out.added, vec![CandId(1), CandId(2)]);
        assert_eq!(out.quality.precision, 1.0);
        assert!((out.quality.recall - 3.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn without_removal_job_stays() {
        // The add-only ablation cannot drop "job", ending at
        // q = {job, store, location} with recall 2/8.
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        let out = iskr(
            &inst,
            &IskrConfig {
                allow_removal: false,
                ..Default::default()
            },
        );
        assert!(out.added.contains(&CandId(0)), "job kept: {:?}", out.added);
        assert_eq!(out.quality.precision, 1.0);
        assert!((out.quality.recall - 2.0 / 8.0).abs() < 1e-12);
        // Removal strictly improves the F-measure here.
        let with_removal = iskr(&inst, &IskrConfig::default());
        assert!(with_removal.quality.fmeasure > out.quality.fmeasure);
    }

    /// How much of the arena a candidate holds: a few results each (what
    /// the tf·idf cut leaves of real result lists: no lane-index row
    /// flipped), most of them (every row flipped), or anything in between
    /// (both kinds of row in one arena).
    #[derive(Debug, Clone, Copy)]
    enum Density {
        Sparse,
        Dense,
        Mixed,
    }

    #[derive(Debug, Clone, Copy)]
    enum Weights {
        Uniform,
        Random,
        /// Three values only, so sums tie.
        Repeated,
        /// Half the results weigh nothing.
        Zeros,
    }

    fn random_arena(
        n: usize,
        n_cands: usize,
        density: Density,
        weights: Weights,
        rng: &mut qec_cluster::SplitMix64,
    ) -> ExpansionArena {
        let result_pull: Vec<f64> = (0..n).map(|_| rng.f64()).collect();
        let candidates = (0..n_cands)
            .map(|i| {
                let pull = rng.f64();
                let members = (0..n).filter(|&d| {
                    let keep = match density {
                        Density::Sparse => 0.02 + 0.1 * pull,
                        Density::Dense => 0.98 - 0.2 * pull,
                        Density::Mixed => (pull + result_pull[d]) / 2.0,
                    };
                    rng.f64() < keep
                });
                Candidate {
                    term: TermId(i as u32),
                    contains: ResultSet::from_indices(n, members.collect::<Vec<_>>()),
                }
            })
            .collect();
        let weights = (0..n)
            .map(|_| match weights {
                Weights::Uniform => 1.0,
                Weights::Random => rng.f64_below(4.0),
                Weights::Repeated => [0.5, 1.0, 2.5][rng.below(3)],
                Weights::Zeros => [0.0, rng.f64_below(4.0)][rng.below(2)],
            })
            .collect();
        ExpansionArena::from_parts(weights, candidates)
    }

    const UNIVERSES: [usize; 7] = [1, 63, 64, 65, 100, 129, 500];
    const DENSITIES: [Density; 3] = [Density::Sparse, Density::Dense, Density::Mixed];
    const WEIGHTS: [Weights; 4] = [
        Weights::Uniform,
        Weights::Random,
        Weights::Repeated,
        Weights::Zeros,
    ];

    fn quality_bits(q: &QueryQuality) -> [u64; 3] {
        [q.precision, q.recall, q.fmeasure].map(f64::to_bits)
    }

    /// Runs `check` once per compilation of the lane pass this CPU has,
    /// baseline first, with [`add_values`] pinned to it on this thread. A
    /// level the CPU lacks is printed as skipped.
    fn at_every_level(mut check: impl FnMut(Level)) {
        for level in Level::ALL {
            if !level.runs_here() {
                println!("lane pass level {level:?}: skipped, this CPU lacks it");
                continue;
            }
            PINNED.set(Some(level));
            check(level);
            PINNED.set(None);
        }
    }

    #[test]
    fn the_dispatcher_picks_the_widest_level_the_cpu_reports() {
        // The kernel's flag list, not std's detection, says what the CPU
        // has, so a detection bug that serves the baseline on AVX hardware
        // fails here.
        let Ok(cpuinfo) = std::fs::read_to_string("/proc/cpuinfo") else {
            println!("skipped: no /proc/cpuinfo to check against");
            return;
        };
        let flags = cpuinfo.lines().find(|line| line.starts_with("flags"));
        let flags: Vec<&str> = flags.map_or(Vec::new(), |f| f.split_whitespace().collect());
        let reported = |level: &Level| match level {
            Level::Baseline => true,
            Level::Avx2 => flags.contains(&"avx2"),
            Level::Avx512f => flags.contains(&"avx512f"),
        };
        let widest = Level::ALL.into_iter().rev().find(reported);
        let avx: Vec<_> = flags.iter().filter(|f| f.starts_with("avx")).collect();
        assert_eq!(Some(Level::detected()), widest, "avx flags: {avx:?}");
        assert_eq!(Some(Level::chosen()), widest, "no test pins this thread");
    }

    #[test]
    fn lane_pass_sums_the_bits_of_the_per_candidate_walks() {
        at_every_level(lane_pass_sums_at);
    }

    fn lane_pass_sums_at(level: Level) {
        let mut rng = qec_cluster::SplitMix64::seed_from_u64(0x17_1a9e5);
        let mut scratch = IskrScratch::new();
        for n in UNIVERSES {
            for density in DENSITIES {
                for weights in WEIGHTS {
                    let n_cands = 1 + rng.below(150);
                    let arena = random_arena(n, n_cands, density, weights, &mut rng);
                    let cluster = (0..n).filter(|_| rng.below(3) == 0);
                    let inst = QecInstance::from_members(&arena, cluster.collect::<Vec<_>>());
                    scratch.ensure(n, n_cands);
                    // Result sets from the whole arena down to nothing,
                    // the way a run shrinks them.
                    let mut r = ResultSet::full(n);
                    for step in 0..5 {
                        let label = format!("{level:?}: {n} {density:?} {weights:?} step {step}");
                        let values = &mut scratch.values[..n_cands];
                        let inert = CancelToken::none();
                        assert!(add_values(&inst, &r, &mut scratch.lanes, values, &inert));
                        for (k, value) in values.iter().enumerate() {
                            let id = CandId(k as u32);
                            let contains = &arena.candidate(id).contains;
                            let w = &arena.weights;
                            let [benefit, cost] = [&inst.universe_set, &inst.cluster]
                                .map(|side| r.weighted_sum_and_not_and(contains, side, w));
                            let totals = &scratch.lanes[..2 * n_cands];
                            assert_eq!(totals[k].to_bits(), benefit.to_bits(), "{label}");
                            assert_eq!(totals[n_cands + k].to_bits(), cost.to_bits(), "{label}");
                            assert_eq!(
                                value.value.to_bits(),
                                reference::add_value(&inst, &r, id).value.to_bits(),
                                "{label}"
                            );
                        }
                        let thinned = (0..n).filter(|&i| r.contains(i) && rng.below(3) != 0);
                        r = ResultSet::from_indices(n, thinned.collect::<Vec<_>>());
                        if step == 3 {
                            r.clear();
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn runs_match_the_reference() {
        // The lane pass with a full revaluation after every move against
        // the per-candidate walks under the paper's §3 affected-only
        // maintenance — and that against its own full rescan: the rule is
        // an optimisation, not an approximation, so all land on the same
        // query. PEBC's one-shot valuation and pruned ranking likewise.
        at_every_level(runs_match_the_reference_at);
    }

    fn runs_match_the_reference_at(level: Level) {
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        let config = IskrConfig::default();
        let label = format!("{level:?}: example 3.1");
        assert_eq!(
            iskr(&inst, &config),
            reference::iskr(&inst, &config, true),
            "{label}"
        );
        assert_eq!(
            iskr(&inst, &config),
            reference::iskr(&inst, &config, false),
            "{label}"
        );

        let mut rng = qec_cluster::SplitMix64::seed_from_u64(0x15_5ca9);
        let (mut moves, mut pebc_adds) = (0, 0);
        let same = |got: &ExpandedQuery, want: &ExpandedQuery, label: &str| {
            assert_eq!(got.added, want.added, "{label}");
            assert_eq!(
                quality_bits(&got.quality),
                quality_bits(&want.quality),
                "{label}"
            );
        };
        for n in UNIVERSES {
            for density in DENSITIES {
                for weights in WEIGHTS {
                    let label = format!("{level:?}: {n} {density:?} {weights:?}");
                    let arena = random_arena(n, 10 + rng.below(140), density, weights, &mut rng);
                    let cluster = (0..n).filter(|_| rng.below(3) == 0);
                    let inst = QecInstance::from_members(&arena, cluster.collect::<Vec<_>>());
                    for allow_removal in [true, false] {
                        let config = IskrConfig {
                            allow_removal,
                            ..Default::default()
                        };
                        let fast = iskr(&inst, &config);
                        same(&fast, &reference::iskr(&inst, &config, true), &label);
                        same(&fast, &reference::iskr(&inst, &config, false), &label);
                        moves += fast.added.len();
                    }
                    for (max_keywords, min_value) in [(200, 1.0), (2, 1.0), (200, 0.0)] {
                        let config = PebcConfig {
                            max_keywords,
                            min_value,
                        };
                        let fast = pebc(&inst, &config);
                        same(&fast, &reference::pebc(&inst, &config), &label);
                        pebc_adds += fast.added.len();
                    }
                }
            }
        }
        assert!(
            moves >= 72,
            "{level:?}: the random arenas make ISKR move: {moves}"
        );
        assert!(pebc_adds >= 72, "{level:?}: and PEBC add: {pebc_adds}");
    }

    #[test]
    fn a_token_tripped_mid_valuation_cancels_without_a_torn_result() {
        // An arena big enough that one valuation pass takes milliseconds:
        // 300 result words, so 300 polls.
        let mut rng = qec_cluster::SplitMix64::seed_from_u64(0x17_ca9ce1);
        let n = 64 * 300;
        let arena = random_arena(n, 48, Density::Sparse, Weights::Random, &mut rng);
        let inst = QecInstance::from_members(&arena, (0..n).filter(|i| i % 3 == 0));
        let iskr = crate::Iskr(IskrConfig::default());
        // No candidate qualifies, so PEBC's sweep never polls: a cancelled
        // run was cancelled inside the lane pass.
        let pebc = crate::Pebc(PebcConfig {
            min_value: f64::INFINITY,
            ..Default::default()
        });
        let strategies: [&dyn crate::Expander; 2] = [&iskr, &pebc];
        let mut scratch = IskrScratch::new();
        let sentinel = ExpandedQuery {
            added: vec![CandId(7)],
            quality: QueryQuality::default(),
        };
        for strategy in strategies {
            let whole = strategy.expand(&inst);
            let mut out = ExpandedQuery::default();
            strategy.expand_into(&inst, &mut scratch, &mut out); // warm
            let start = std::time::Instant::now();
            strategy.expand_into(&inst, &mut scratch, &mut out);
            let budget = start.elapsed() / 4;

            let (flagged, trip) = CancelToken::manual();
            trip.cancel();
            let deadline = CancelToken::until(std::time::Instant::now() + budget);
            assert!(!deadline.is_cancelled(), "still live on entry");
            for token in [deadline, flagged] {
                let mut out = sentinel.clone();
                let done = strategy.expand_cancellable(&inst, &mut scratch, &mut out, &token);
                assert!(
                    !done,
                    "{}: a quarter of a run is not a run",
                    strategy.name()
                );
                assert_eq!(out, sentinel, "{}: output untouched", strategy.name());
            }
            // The abandoned scratch serves the next run whole.
            strategy.expand_into(&inst, &mut scratch, &mut out);
            assert_eq!(out, whole, "{}", strategy.name());
        }
    }

    #[test]
    fn scratch_reuse_is_deterministic_across_instances() {
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        let mut scratch = IskrScratch::new();
        let q1 = iskr_into(&inst, &IskrConfig::default(), &mut scratch);
        let added1: Vec<CandId> = scratch.added().to_vec();
        // A different instance in between must not contaminate the next run.
        let other = QecInstance::from_members(&arena, [0, 1]);
        let _ = iskr_into(&other, &IskrConfig::default(), &mut scratch);
        let q2 = iskr_into(&inst, &IskrConfig::default(), &mut scratch);
        assert_eq!(q1, q2);
        assert_eq!(added1, scratch.added());
        assert_eq!(q1, iskr(&inst, &IskrConfig::default()).quality);
    }

    #[test]
    fn no_candidates_returns_original_query() {
        let arena = ExpansionArena::from_parts(vec![1.0; 4], vec![]);
        let inst = QecInstance::from_members(&arena, [0, 1]);
        let out = iskr(&inst, &IskrConfig::default());
        assert!(out.added.is_empty());
        // R = everything: precision 1/2, recall 1.
        assert!((out.quality.precision - 0.5).abs() < 1e-12);
        assert_eq!(out.quality.recall, 1.0);
    }

    #[test]
    fn perfectly_separating_keyword_is_found() {
        // One candidate exactly selects the cluster.
        let n = 10;
        let cluster: Vec<usize> = (0..4).collect();
        let contains = ResultSet::from_indices(n, cluster.iter().copied());
        let arena = ExpansionArena::from_parts(
            vec![1.0; n],
            vec![Candidate {
                term: TermId(0),
                contains,
            }],
        );
        let inst = QecInstance::from_members(&arena, cluster);
        let out = iskr(&inst, &IskrConfig::default());
        assert_eq!(out.added, vec![CandId(0)]);
        assert_eq!(out.quality.fmeasure, 1.0);
    }

    #[test]
    fn harmful_keywords_are_not_added() {
        // A keyword that only eliminates cluster results (benefit 0).
        let n = 6;
        let contains = ResultSet::from_indices(n, [3, 4, 5]); // eliminates C = {0,1,2}
        let arena = ExpansionArena::from_parts(
            vec![1.0; n],
            vec![Candidate {
                term: TermId(0),
                contains,
            }],
        );
        let inst = QecInstance::from_members(&arena, [0, 1, 2]);
        let out = iskr(&inst, &IskrConfig::default());
        assert!(out.added.is_empty());
    }

    #[test]
    fn weighted_instance_prefers_high_rank_results() {
        // Two candidates each keep half of C and kill all of U; C's first
        // result is heavily weighted, so the winner is whichever keeps it.
        let n = 6; // C = {0,1}, U = {2..6}
        let keep0 = ResultSet::from_indices(n, [0]);
        let keep1 = ResultSet::from_indices(n, [1]);
        let weights = vec![10.0, 1.0, 1.0, 1.0, 1.0, 1.0];
        let arena = ExpansionArena::from_parts(
            weights,
            vec![
                Candidate {
                    term: TermId(0),
                    contains: keep0,
                },
                Candidate {
                    term: TermId(1),
                    contains: keep1,
                },
            ],
        );
        let inst = QecInstance::from_members(&arena, [0, 1]);
        let out = iskr(&inst, &IskrConfig::default());
        assert_eq!(out.added, vec![CandId(0)], "keeps the heavy result");
    }

    #[test]
    fn terminates_under_iteration_cap() {
        // Adversarial-ish instance with many overlapping candidates.
        let n = 64;
        let mut candidates = Vec::new();
        for i in 0..32u32 {
            let members: Vec<usize> = (0..n)
                .filter(|&j| !(j + i as usize).is_multiple_of(3))
                .collect();
            candidates.push(Candidate {
                term: TermId(i),
                contains: ResultSet::from_indices(n, members),
            });
        }
        let arena = ExpansionArena::from_parts(vec![1.0; n], candidates);
        let inst = QecInstance::from_members(&arena, (0..20).collect::<Vec<_>>());
        let out = iskr(
            &inst,
            &IskrConfig {
                max_iters: 50,
                ..Default::default()
            },
        );
        // Sanity: produced a valid quality.
        assert!(out.quality.fmeasure >= 0.0 && out.quality.fmeasure <= 1.0);
    }

    #[test]
    fn result_set_consistency() {
        // The reported quality must equal re-evaluating the added set.
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        let out = iskr(&inst, &IskrConfig::default());
        let q = inst.quality_of_added(&out.added);
        assert_eq!(q, out.quality);
    }
}
