//! The exact-ΔF refinement baseline ("F-measure" in the paper's §5).
//!
//! Identical greedy loop to ISKR, but the value of a move is the *exact
//! change in F-measure* it would cause. This is the more accurate — and
//! much slower — valuation: after every accepted move the value of **every**
//! keyword must be recomputed from scratch, which is precisely the cost the
//! benefit/cost ratio and its maintenance rule avoid. The paper reports
//! this baseline matching or slightly beating ISKR on quality while being
//! 1–2 orders of magnitude slower (QS8 takes >30 s on their hardware); the
//! benches reproduce the relationship.
//!
//! Allocation discipline
//! ---------------------
//! The slowness is *algorithmic* (full revaluation per iteration), not
//! allocator-driven: [`fmeasure_refine_into`] runs on a reusable
//! [`IskrScratch`] and values every *add* move in **one** fused word
//! sweep (`weighted_sum_and_split` yields `S(R ∩ k)` and `S(R ∩ k ∩ C)`
//! together) without materialising a candidate result set; only
//! *removal* valuations rebuild `R(q\k)` — into the scratch's one
//! reusable buffer. A warmed scratch makes the whole refinement
//! allocation-free (asserted by the `zero_alloc` integration test), so
//! the ISKR-vs-exact gap `bench_pebc` measures is pure algorithmic cost,
//! not allocator noise.

use crate::cancel::CancelToken;
use crate::iskr::{results_without, ExpandedQuery, IskrScratch};
use crate::metrics::{fmeasure, QueryQuality};
use crate::problem::{CandId, QecInstance};

/// Configuration for [`fmeasure_refine`].
#[derive(Debug, Clone)]
pub struct FMeasureConfig {
    /// Hard iteration cap. ΔF > 0 acceptance strictly increases a bounded
    /// objective, so this is purely defensive.
    pub max_iters: usize,
    /// Allow removal moves.
    pub allow_removal: bool,
}

impl Default for FMeasureConfig {
    fn default() -> Self {
        Self {
            max_iters: 200,
            allow_removal: true,
        }
    }
}

/// Greedy refinement by exact ΔF-measure with a fresh scratch.
pub fn fmeasure_refine(inst: &QecInstance<'_>, config: &FMeasureConfig) -> ExpandedQuery {
    let mut scratch = IskrScratch::new();
    let quality = fmeasure_refine_into(inst, config, &mut scratch);
    ExpandedQuery {
        added: scratch.added().to_vec(),
        quality,
    }
}

/// Greedy refinement by exact ΔF-measure, reusing `scratch` for all
/// working state; added keywords land in [`IskrScratch::added`].
///
/// Add moves are valued without materialising the candidate result set:
/// `F(R ∩ contains(k))` needs only `S(R ∩ contains(k))`,
/// `S(R ∩ contains(k) ∩ C)` and `S(C)` — the first two come out of one
/// `weighted_sum_and_split` word sweep. Removal moves rebuild `R(q\k)`
/// into the scratch's single reusable buffer. After one warm-up call on an arena of the same shape,
/// this performs no heap allocation.
pub fn fmeasure_refine_into(
    inst: &QecInstance<'_>,
    config: &FMeasureConfig,
    scratch: &mut IskrScratch,
) -> QueryQuality {
    fmeasure_refine_into_cancellable(inst, config, scratch, &CancelToken::none())
        .expect("inert token never cancels")
}

/// [`fmeasure_refine_into`] with cooperative cancellation: `cancel` is
/// polled once per greedy iteration (each of which revalues every
/// candidate — the natural granularity for the exact baseline); a
/// tripped token returns `None` (no torn result — see [`CancelToken`]).
/// An untripped run is bit-identical to [`fmeasure_refine_into`].
pub fn fmeasure_refine_into_cancellable(
    inst: &QecInstance<'_>,
    config: &FMeasureConfig,
    scratch: &mut IskrScratch,
    cancel: &CancelToken,
) -> Option<QueryQuality> {
    let arena = inst.arena;
    let n_cands = arena.num_candidates();
    scratch.ensure(arena.size(), n_cands);
    let IskrScratch {
        in_query,
        query,
        r,
        r_without,
        added,
        ..
    } = scratch;
    in_query[..n_cands].fill(false);
    r.set_full();

    let w = &arena.weights;
    let s_c = inst.cluster.weighted_sum(w);
    let f_of = |s_rc: f64, s_r: f64| {
        let precision = if s_r > 0.0 { s_rc / s_r } else { 0.0 };
        let recall = if s_c > 0.0 { s_rc / s_c } else { 0.0 };
        fmeasure(precision, recall)
    };
    let (s_r0, s_rc0) = r.weighted_sum_split(&inst.cluster, w);
    let mut current_f = f_of(s_rc0, s_r0);

    for _ in 0..config.max_iters {
        if cancel.is_cancelled() {
            return None;
        }
        // Evaluate every candidate move exactly; each valuation is a
        // single fused sweep yielding S(R') and S(R' ∩ C) together.
        let mut best: Option<(usize, f64)> = None;
        for (i, &in_q) in in_query.iter().enumerate().take(n_cands) {
            let id = CandId(i as u32);
            let f = if in_q {
                if !config.allow_removal {
                    continue;
                }
                results_without(inst, query, Some(id), r_without);
                let (s_r, s_rc) = r_without.weighted_sum_split(&inst.cluster, w);
                f_of(s_rc, s_r)
            } else {
                let contains = &arena.candidate(id).contains;
                let (s_r, s_rc) = r.weighted_sum_and_split(contains, &inst.cluster, w);
                f_of(s_rc, s_r)
            };
            if f - current_f > 1e-12 {
                match &best {
                    Some((_, best_f)) if f <= *best_f => {}
                    _ => best = Some((i, f)),
                }
            }
        }
        let Some((best_idx, new_f)) = best else { break };
        let id = CandId(best_idx as u32);
        if in_query[best_idx] {
            results_without(inst, query, Some(id), r_without);
            std::mem::swap(r, r_without);
            query.retain(|&c| c != id);
            in_query[best_idx] = false;
        } else {
            r.and_assign(&arena.candidate(id).contains);
            query.push(id);
            in_query[best_idx] = true;
        }
        current_f = new_f;
    }

    added.clear();
    added.extend_from_slice(query);
    added.sort_unstable();
    Some(inst.quality_of(r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::ResultSet;
    use crate::iskr::{iskr, IskrConfig};
    use crate::problem::{Candidate, ExpansionArena};
    use qec_text::TermId;

    fn simple_arena() -> (ExpansionArena, Vec<usize>) {
        // C = {0..4}, U = {5..12}. Candidate 0 keeps {0,1,2,3} (good),
        // candidate 1 keeps {0..7} (mediocre), candidate 2 keeps U only
        // (harmful).
        let n = 13;
        let candidates = vec![
            Candidate {
                term: TermId(0),
                contains: ResultSet::from_indices(n, 0..4),
            },
            Candidate {
                term: TermId(1),
                contains: ResultSet::from_indices(n, 0..8),
            },
            Candidate {
                term: TermId(2),
                contains: ResultSet::from_indices(n, 5..13),
            },
        ];
        (
            ExpansionArena::from_parts(vec![1.0; n], candidates),
            (0..5).collect(),
        )
    }

    #[test]
    fn picks_the_fmeasure_optimal_single_keyword() {
        let (arena, cluster) = simple_arena();
        let inst = QecInstance::from_members(&arena, cluster);
        let out = fmeasure_refine(&inst, &FMeasureConfig::default());
        // Baseline F (no addition): p = 5/13, r = 1 → F ≈ 0.5556.
        // cand0: p = 1, r = 4/5 → F ≈ 0.888. cand1: p = 5/8, r = 1 → 0.769.
        assert_eq!(out.added, vec![CandId(0)]);
        assert!((out.quality.fmeasure - 8.0 / 9.0).abs() < 1e-9);
    }

    #[test]
    fn fmeasure_never_below_iskr_stopping_point_on_example() {
        // On the paper's Example 3.1 structure, the exact-ΔF method must do
        // at least as well as ISKR's benefit/cost heuristic.
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
        let full = ResultSet::full(n);
        let arena = ExpansionArena::from_parts(
            vec![1.0; n],
            vec![
                Candidate {
                    term: TermId(0),
                    contains: full.and_not(&elim(&[1, 2, 3, 4, 5, 6], &[1, 2, 3, 4, 5, 6, 7, 8])),
                },
                Candidate {
                    term: TermId(1),
                    contains: full.and_not(&elim(&[1, 2, 3, 4], &[1, 2, 3, 4, 9])),
                },
                Candidate {
                    term: TermId(2),
                    contains: full.and_not(&elim(&[2, 3, 4, 5], &[5, 6, 7, 8, 10])),
                },
                Candidate {
                    term: TermId(3),
                    contains: full.and_not(&elim(&[1, 2, 3], &[2, 3, 4])),
                },
            ],
        );
        let inst = QecInstance::from_members(&arena, 0..8);
        let exact = fmeasure_refine(&inst, &FMeasureConfig::default());
        let heuristic = iskr(&inst, &IskrConfig::default());
        assert!(exact.quality.fmeasure >= heuristic.quality.fmeasure - 1e-12);
    }

    #[test]
    fn monotone_f_and_termination() {
        // ΔF acceptance is strictly positive, so F at the end ≥ F at start.
        let (arena, cluster) = simple_arena();
        let inst = QecInstance::from_members(&arena, cluster);
        let start_f = inst.quality_of_added(&[]).fmeasure;
        let out = fmeasure_refine(
            &inst,
            &FMeasureConfig {
                max_iters: 3,
                ..Default::default()
            },
        );
        assert!(out.quality.fmeasure >= start_f);
    }

    #[test]
    fn empty_candidates() {
        let arena = ExpansionArena::from_parts(vec![1.0; 5], vec![]);
        let inst = QecInstance::from_members(&arena, [0, 1, 2]);
        let out = fmeasure_refine(&inst, &FMeasureConfig::default());
        assert!(out.added.is_empty());
    }

    #[test]
    fn removal_can_fire_in_exact_variant() {
        // Construct: adding k0 first is greedy-best, but after k1 and k2
        // arrive, dropping k0 strictly improves F.
        // C = {0,1,2,3}, U = {4..14}.
        let n = 14;
        // k0 kills most of U but also results 2,3 of C.
        let k0 = ResultSet::from_indices(n, [0, 1, 4]);
        // k1 and k2 together kill all of U while keeping C intact.
        let k1 = ResultSet::from_indices(n, [0, 1, 2, 3, 9, 10, 11, 12, 13]);
        let k2 = ResultSet::from_indices(n, [0, 1, 2, 3, 4, 5, 6, 7, 8]);
        let arena = ExpansionArena::from_parts(
            vec![1.0; n],
            vec![
                Candidate {
                    term: TermId(0),
                    contains: k0,
                },
                Candidate {
                    term: TermId(1),
                    contains: k1,
                },
                Candidate {
                    term: TermId(2),
                    contains: k2,
                },
            ],
        );
        let inst = QecInstance::from_members(&arena, 0..4);
        let out = fmeasure_refine(&inst, &FMeasureConfig::default());
        // Optimal is {k1, k2}: retrieves exactly C → F = 1.
        assert_eq!(out.added, vec![CandId(1), CandId(2)]);
        assert!((out.quality.fmeasure - 1.0).abs() < 1e-12);
    }
}
