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
//! * after a move with delta results `D`, only keywords that are absent
//!   from at least one result of `D` can have changed value (§3,
//!   "Identifying Keywords with Affected Values"), i.e. keywords `k'` with
//!   `E(k') ∩ D ≠ ∅`. `E(k')` is the complement of `contains(k')`, so that
//!   is `D ⊄ contains(k')`: one early-exit word-parallel subset test per
//!   candidate (`|arena| / 64` words each, ~300 word operations at the
//!   serving shape) finds exactly the §3 affected set, and only those
//!   candidates are revalued. This maintenance rule is the efficiency
//!   difference between ISKR and the exact ΔF baseline (`crate::fmeasure`),
//!   and `bench_ablation` measures it against a full rescan.
//!
//!   The arena used to carry the inverted form as well — per result, the
//!   list of candidates eliminating it — and ISKR walked `D`'s members
//!   through it whenever `|D| · mean list length` undercut the scan. That
//!   cost model picked the map in 5.0 % of maintenance steps on the
//!   benchmark's cold workload (9,983 of 200,000) and 3.4 % on its warm
//!   one, while building the map was a quarter of every arena build (one
//!   allocation per result, ~52 KB per cached arena). The scan alone
//!   marks the same set, so the map is gone.
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
//! the delta set, the per-candidate value cache, the query itself — lives
//! in an [`IskrScratch`] that [`iskr_into`] reuses across calls; every per-move valuation runs on the fused three-operand
//! bitset kernels (`weighted_sum_and_not_and`), so no temporary `ResultSet`
//! is ever materialised. After one warm-up call on a given arena shape,
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
    /// Use the §3 affected-keywords maintenance rule. Disabling it revalues
    /// every candidate after every move — the full-rescan ablation that
    /// `bench_ablation` compares against. Results are identical either way.
    pub affected_only: bool,
}

impl Default for IskrConfig {
    fn default() -> Self {
        Self {
            max_iters: 200,
            allow_removal: true,
            affected_only: true,
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
/// seen; the bitset buffers are retargeted (reallocated) whenever the
/// arena universe differs from the previous run's, so the zero-allocation
/// guarantee holds for runs of the same arena size — alternate sizes and
/// you pay a retarget per switch.
#[derive(Debug, Default)]
pub struct IskrScratch {
    pub(crate) values: Vec<MoveValue>,
    pub(crate) in_query: Vec<bool>,
    pub(crate) query: Vec<CandId>,
    /// `R(q)` for the current query.
    pub(crate) r: ResultSet,
    /// `R(q \ k)` workspace for removal valuations.
    pub(crate) r_without: ResultSet,
    /// Delta results of the last applied move.
    delta: ResultSet,
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
            self.r = ResultSet::empty(universe);
            self.r_without = ResultSet::empty(universe);
            self.delta = ResultSet::empty(universe);
        }
        if self.values.len() < n_cands {
            self.values.resize(n_cands, MoveValue { value: 0.0 });
            self.in_query.resize(n_cands, false);
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
/// per greedy iteration (before the move search), and a tripped token
/// returns `None` with the scratch in a valid-but-unspecified state — the
/// no-torn-results contract of [`crate::cancel`]. An untripped run is
/// bit-identical to [`iskr_into`] (the poll does not affect the
/// refinement), and the inert token adds only two branch tests per
/// iteration, preserving the zero-allocation discipline.
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
        delta,
        added,
        ..
    } = scratch;
    in_query[..n_cands].fill(false);
    r.set_full();

    // Initial valuation of every candidate (all are add moves).
    for (i, v) in values[..n_cands].iter_mut().enumerate() {
        *v = add_value(inst, r, CandId(i as u32));
    }

    for _ in 0..config.max_iters {
        if cancel.is_cancelled() {
            return None;
        }
        // Best move by value; ties on lower id.
        let mut best: Option<(usize, f64)> = None;
        for (i, mv) in values[..n_cands].iter().enumerate() {
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

        // Apply the move and compute its delta results into `delta`.
        if in_query[best_idx] {
            // Remove k: results gained back. R(q \ k) re-derives from the
            // remaining keywords' containment sets.
            results_without(inst, query, Some(k), r_without);
            r_without.and_not_count_into(r, delta);
            std::mem::swap(r, r_without);
            query.retain(|&c| c != k);
            in_query[best_idx] = false;
        } else {
            // Add k: results eliminated.
            let contains = &arena.candidate(k).contains;
            let delta_len = r.and_not_count_into(contains, delta);
            r.and_assign(contains);
            query.push(k);
            in_query[best_idx] = true;
            if delta_len == 0 {
                // The keyword changed nothing (can only happen with a stale
                // value); fix its value and continue.
                values[best_idx] = MoveValue::from_benefit_cost(0.0, 0.0);
                continue;
            }
        }

        // Maintenance (§3): an *add* value can only change if the keyword
        // eliminates at least one delta result, i.e. `delta` is not a
        // subset of its `contains` (the moved keyword itself always
        // revalues). Removal values of in-query keywords depend on the
        // whole query, not just the delta (the paper's own Example 3.2
        // requires the removal value of "job" to refresh after a move whose
        // delta "job" contains), so the handful of in-query keywords are
        // always recomputed exactly.
        for i in 0..n_cands {
            let id = CandId(i as u32);
            if in_query[i] {
                values[i] = remove_value(inst, r, query, id, r_without);
            } else if !config.affected_only
                || i == best_idx
                || !delta.is_subset_of(&arena.candidate(id).contains)
            {
                values[i] = add_value(inst, r, id);
            }
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

/// Valuation of adding `k` to the current query with result set `r`.
/// `D = R(q) ∩ E(k)`; both weighted sums run fused, with no temporary set.
pub(crate) fn add_value(inst: &QecInstance<'_>, r: &ResultSet, k: CandId) -> MoveValue {
    let contains = &inst.arena.candidate(k).contains;
    let w = &inst.arena.weights;
    let benefit = r.weighted_sum_and_not_and(contains, &inst.universe_set, w);
    let cost = r.weighted_sum_and_not_and(contains, &inst.cluster, w);
    MoveValue::from_benefit_cost(benefit, cost)
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
mod tests {
    use super::*;
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

    #[test]
    fn affected_only_matches_full_rescan() {
        // The §3 maintenance rule is an optimisation, not an approximation:
        // both maintenance modes must land on the same query.
        let full_rescan = IskrConfig {
            affected_only: false,
            ..Default::default()
        };
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        assert_eq!(
            iskr(&inst, &IskrConfig::default()),
            iskr(&inst, &full_rescan)
        );

        // Seeded random arenas, universes straddling the word boundaries
        // the subset scan walks.
        let mut rng = qec_cluster::SplitMix64::seed_from_u64(0x15_5ca9);
        let mut moves = 0;
        for n in [63, 64, 65, 100, 129, 500] {
            for _ in 0..12 {
                // A cluster, and candidates that mostly keep it and mostly
                // drop the rest, with noise both ways.
                let cluster: Vec<usize> = (0..n).filter(|_| rng.below(3) == 0).collect();
                let in_cluster = ResultSet::from_indices(n, cluster.iter().copied());
                let candidates = (0..10 + rng.below(140))
                    .map(|i| {
                        let (keep_c, keep_u) = (rng.f64(), rng.f64() * rng.f64());
                        let members = (0..n).filter(|&d| {
                            rng.f64()
                                < if in_cluster.contains(d) {
                                    keep_c
                                } else {
                                    keep_u
                                }
                        });
                        Candidate {
                            term: TermId(i as u32),
                            contains: ResultSet::from_indices(n, members.collect::<Vec<_>>()),
                        }
                    })
                    .collect();
                let weights = if rng.below(2) == 0 {
                    vec![1.0; n]
                } else {
                    (0..n).map(|_| rng.f64_below(4.0)).collect()
                };
                let arena = ExpansionArena::from_parts(weights, candidates);
                let inst = QecInstance::from_members(&arena, cluster);
                let fast = iskr(&inst, &IskrConfig::default());
                assert_eq!(fast, iskr(&inst, &full_rescan), "universe {n}");
                moves += fast.added.len();
            }
        }
        assert!(moves >= 72, "the random arenas make ISKR move: {moves}");
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
