//! PEBC — the Partial-Elimination Baseline by Confidence (the paper's §5
//! cheap baseline for contrast with ISKR).
//!
//! Where ISKR re-values candidates after every accepted move (and may
//! *remove* keywords whose contribution later moves dominate), PEBC commits
//! to the **one-shot static valuation**: every candidate is valued exactly
//! once against the initial result set (the whole arena), candidates are
//! ranked by that static benefit/cost ratio, and the ranked list is walked
//! top-down adding every keyword whose static value clears the threshold
//! and that still eliminates at least one *remaining* out-of-cluster
//! result. Elimination of `U` is therefore only **partial**:
//!
//! * stale values are never refreshed — a keyword that looked good against
//!   the full arena is added even when earlier additions already changed
//!   the trade-off (precision can be overpaid for);
//! * keywords are never removed — the recovery of Example 3.2 cannot
//!   happen;
//! * the walk ends with the last candidate above the threshold (only
//!   those are ranked), at the keyword budget, or as soon as no
//!   out-of-cluster result survives.
//!
//! The payoff is cost: one valuation pass (ISKR's lane pass, run once),
//! one in-place sort of the qualifying candidates, and one application
//! sweep — no per-move maintenance at all. `bench_pebc` measures the gap
//! against ISKR and the exact-ΔF baseline; the quality loss is the price
//! of skipping maintenance.
//!
//! Like ISKR, PEBC runs entirely inside an [`IskrScratch`]: a warmed
//! scratch makes [`pebc_into`] allocation-free (the ranking sort is an
//! in-place `sort_unstable_by` over the reusable order buffer).

use crate::cancel::CancelToken;
use crate::iskr::{add_values, ExpandedQuery, IskrScratch};
use crate::metrics::QueryQuality;
use crate::problem::{CandId, QecInstance};

/// Configuration for [`pebc`].
#[derive(Debug, Clone)]
pub struct PebcConfig {
    /// Hard cap on added keywords — PEBC's analogue of
    /// [`crate::IskrConfig::max_iters`] (every iteration adds one keyword).
    pub max_keywords: usize,
    /// A candidate qualifies while its static value (benefit/cost against
    /// the *initial* arena) strictly exceeds this. The paper's value>1 rule.
    pub min_value: f64,
}

impl Default for PebcConfig {
    fn default() -> Self {
        Self {
            max_keywords: 200,
            min_value: 1.0,
        }
    }
}

/// Runs PEBC on one cluster instance with a fresh scratch.
pub fn pebc(inst: &QecInstance<'_>, config: &PebcConfig) -> ExpandedQuery {
    let mut scratch = IskrScratch::new();
    let quality = pebc_into(inst, config, &mut scratch);
    ExpandedQuery {
        added: scratch.added().to_vec(),
        quality,
    }
}

/// Runs PEBC reusing `scratch`; added keywords land in
/// [`IskrScratch::added`]. Allocation-free once the scratch has warmed to
/// the arena shape (same contract as [`crate::iskr_into`]).
pub fn pebc_into(
    inst: &QecInstance<'_>,
    config: &PebcConfig,
    scratch: &mut IskrScratch,
) -> QueryQuality {
    pebc_into_cancellable(inst, config, scratch, &CancelToken::none())
        .expect("inert token never cancels")
}

/// [`pebc_into`] with cooperative cancellation: `cancel` is polled once per
/// 64-result word of the valuation pass (the bulk of a run, so a big arena
/// stays cancellable) and once per ranked keyword of the application
/// sweep; a tripped token returns `None` (no torn result — see
/// [`CancelToken`]). An untripped run is bit-identical to [`pebc_into`].
pub fn pebc_into_cancellable(
    inst: &QecInstance<'_>,
    config: &PebcConfig,
    scratch: &mut IskrScratch,
    cancel: &CancelToken,
) -> Option<QueryQuality> {
    let arena = inst.arena;
    let n_cands = arena.num_candidates();
    scratch.ensure(arena.size(), n_cands);
    scratch.r.set_full();

    // One-shot static valuation: identical to ISKR's initial pass, never
    // refreshed afterwards.
    let values = &mut scratch.values[..n_cands];
    if !add_values(inst, &scratch.r, &mut scratch.lanes, values, cancel) {
        return None;
    }

    // Rank the candidates that qualify — static value above the threshold;
    // the sweep could add no other — by descending value; ties break on
    // lower id so runs are deterministic. `sort_unstable_by` keeps the sort
    // in place (the stable sort would allocate its merge buffer).
    let qualifies = |&i: &u32| values[i as usize].value > config.min_value;
    scratch.order.extend((0..n_cands as u32).filter(qualifies));
    scratch.order.sort_unstable_by(|&a, &b| {
        values[b as usize]
            .value
            .partial_cmp(&values[a as usize].value)
            .expect("values are never NaN")
            .then_with(|| a.cmp(&b))
    });

    // Application sweep down the ranked list.
    scratch.added.clear();
    let weights = &arena.weights;
    for &i in &scratch.order {
        if cancel.is_cancelled() {
            return None;
        }
        if scratch.added.len() >= config.max_keywords {
            break;
        }
        let k = CandId(i);
        let contains = &arena.candidate(k).contains;
        // Partial-elimination guard: skip keywords whose elimination set no
        // longer touches a surviving out-of-cluster result (adding them
        // could only cost cluster recall). This is the only place PEBC
        // looks at the current result set.
        let live_benefit =
            scratch
                .r
                .weighted_sum_and_not_and(contains, &inst.universe_set, weights);
        if live_benefit <= 0.0 {
            continue;
        }
        scratch.r.and_assign(contains);
        scratch.added.push(k);
        if !scratch.r.intersects(&inst.universe_set) {
            break; // U fully eliminated — the goal state
        }
    }

    scratch.added.sort_unstable();
    Some(inst.quality_of(&scratch.r))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::ResultSet;
    use crate::iskr::{iskr, IskrConfig};
    use crate::problem::{Candidate, ExpansionArena};
    use qec_text::TermId;

    /// The paper's Example 3.1 arena (duplicated per-module like the other
    /// algorithm test suites; test modules are private).
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
    fn keeps_job_where_iskr_removes_it() {
        // PEBC's defining weakness on the paper's own example: "job" has
        // the best static value, gets added first, and — with no removal
        // moves — stays, even though ISKR ends without it (Example 3.2).
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        let out = pebc(&inst, &PebcConfig::default());
        assert!(out.added.contains(&CandId(0)), "job kept: {:?}", out.added);
        let refined = iskr(&inst, &IskrConfig::default());
        assert!(!refined.added.contains(&CandId(0)), "ISKR drops job");
        assert!(
            out.quality.fmeasure <= refined.quality.fmeasure + 1e-12,
            "partial elimination cannot beat full refinement here"
        );
    }

    #[test]
    fn stops_when_universe_is_eliminated() {
        // One candidate exactly selects the cluster; nothing else should be
        // added once U is empty.
        let n = 12;
        let cluster: Vec<usize> = (0..5).collect();
        let exact = ResultSet::from_indices(n, cluster.iter().copied());
        let decoy = ResultSet::from_indices(n, 0..10);
        let arena = ExpansionArena::from_parts(
            vec![1.0; n],
            vec![
                Candidate {
                    term: TermId(0),
                    contains: exact,
                },
                Candidate {
                    term: TermId(1),
                    contains: decoy,
                },
            ],
        );
        let inst = QecInstance::from_members(&arena, cluster);
        let out = pebc(&inst, &PebcConfig::default());
        assert_eq!(out.added, vec![CandId(0)]);
        assert_eq!(out.quality.fmeasure, 1.0);
    }

    #[test]
    fn harmful_keywords_are_not_added() {
        let n = 6;
        let contains = ResultSet::from_indices(n, [3, 4, 5]); // kills C
        let arena = ExpansionArena::from_parts(
            vec![1.0; n],
            vec![Candidate {
                term: TermId(0),
                contains,
            }],
        );
        let inst = QecInstance::from_members(&arena, [0, 1, 2]);
        let out = pebc(&inst, &PebcConfig::default());
        assert!(out.added.is_empty());
    }

    #[test]
    fn respects_keyword_budget() {
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        for budget in 0..4 {
            let out = pebc(
                &inst,
                &PebcConfig {
                    max_keywords: budget,
                    ..Default::default()
                },
            );
            assert!(
                out.added.len() <= budget,
                "budget {budget}: {:?}",
                out.added
            );
        }
    }

    #[test]
    fn stale_keywords_are_skipped_not_terminal() {
        // k0 and k1 both statically qualify and eliminate the same U
        // results; k2 (ranked below) eliminates the rest. After k0, k1 is
        // stale (no live benefit) and must be skipped so k2 still applies.
        let n = 10; // C = {0..4}, U = {4..10}
        let k0 = ResultSet::from_indices(n, [0, 1, 2, 3, 7, 8, 9]);
        let k1 = ResultSet::from_indices(n, [0, 1, 2, 3, 7, 8, 9]);
        let k2 = ResultSet::from_indices(n, [0, 1, 2, 3, 4, 5, 6]);
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
        let out = pebc(&inst, &PebcConfig::default());
        assert_eq!(out.added, vec![CandId(0), CandId(2)]);
        assert_eq!(out.quality.precision, 1.0);
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let (arena, cluster) = example_3_1();
        let inst = QecInstance::new(&arena, cluster);
        let mut scratch = IskrScratch::new();
        let config = PebcConfig::default();
        let q1 = pebc_into(&inst, &config, &mut scratch);
        let added1 = scratch.added().to_vec();
        // An ISKR run in between must not contaminate the next PEBC run.
        let _ = crate::iskr::iskr_into(&inst, &IskrConfig::default(), &mut scratch);
        let q2 = pebc_into(&inst, &config, &mut scratch);
        assert_eq!(q1, q2);
        assert_eq!(added1, scratch.added());
        assert_eq!(q1, pebc(&inst, &config).quality);
    }

    #[test]
    fn empty_candidates() {
        let arena = ExpansionArena::from_parts(vec![1.0; 5], vec![]);
        let inst = QecInstance::from_members(&arena, [0, 1, 2]);
        let out = pebc(&inst, &PebcConfig::default());
        assert!(out.added.is_empty());
        assert_eq!(out.quality.recall, 1.0);
    }
}
