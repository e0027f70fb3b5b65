//! ISKR and PEBC as they ran before the lane pass, kept as the oracle of
//! the differential tests: every add valuation is its own pair of fused
//! bitset walks over the candidate's elimination set, ISKR maintains values
//! by the paper's §3 rule ("Identifying Keywords with Affected Values" —
//! after a move with delta results `D`, only a keyword that eliminates a
//! member of `D`, i.e. `D ⊄ contains(k)`, is revalued), and PEBC ranks
//! every candidate before its sweep.

use super::{remove_value, results_without, ExpandedQuery, IskrConfig, MoveValue};
use crate::bitset::ResultSet;
use crate::pebc::PebcConfig;
use crate::problem::{CandId, QecInstance};

/// Valuation of adding `k` to the current query with result set `r`.
/// `D = R(q) ∩ E(k)`; both weighted sums run fused, with no temporary set.
pub(crate) fn add_value(inst: &QecInstance<'_>, r: &ResultSet, k: CandId) -> MoveValue {
    let contains = &inst.arena.candidate(k).contains;
    let w = &inst.arena.weights;
    let benefit = r.weighted_sum_and_not_and(contains, &inst.universe_set, w);
    let cost = r.weighted_sum_and_not_and(contains, &inst.cluster, w);
    MoveValue::from_benefit_cost(benefit, cost)
}

/// [`super::iskr`] as it was. `affected_only: false` revalues every
/// candidate after every move instead of the §3 affected set; both must
/// land on the same expansion.
pub(crate) fn iskr(
    inst: &QecInstance<'_>,
    config: &IskrConfig,
    affected_only: bool,
) -> ExpandedQuery {
    let arena = inst.arena;
    let n_cands = arena.num_candidates();
    let mut in_query = vec![false; n_cands];
    let mut query: Vec<CandId> = Vec::new();
    let mut r = ResultSet::full(arena.size());
    let mut r_without = ResultSet::empty(arena.size());
    let mut delta = ResultSet::empty(arena.size());

    // Initial valuation of every candidate (all are add moves).
    let mut values: Vec<MoveValue> = (0..n_cands as u32)
        .map(|i| add_value(inst, &r, CandId(i)))
        .collect();

    for _ in 0..config.max_iters {
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

        // Apply the move and compute its delta results into `delta`.
        if in_query[best_idx] {
            results_without(inst, &query, Some(k), &mut r_without);
            r_without.and_not_count_into(&r, &mut delta);
            std::mem::swap(&mut r, &mut r_without);
            query.retain(|&c| c != k);
            in_query[best_idx] = false;
        } else {
            let contains = &arena.candidate(k).contains;
            let delta_len = r.and_not_count_into(contains, &mut delta);
            r.and_assign(contains);
            query.push(k);
            in_query[best_idx] = true;
            if delta_len == 0 {
                values[best_idx] = MoveValue::from_benefit_cost(0.0, 0.0);
                continue;
            }
        }

        // Maintenance (§3): an *add* value can only change if the keyword
        // eliminates at least one delta result (the moved keyword itself
        // always revalues); in-query keywords are recomputed exactly.
        for i in 0..n_cands {
            let id = CandId(i as u32);
            if in_query[i] {
                values[i] = remove_value(inst, &r, &query, id, &mut r_without);
            } else if !affected_only
                || i == best_idx
                || delta.and_not_count(&arena.candidate(id).contains) != 0
            {
                values[i] = add_value(inst, &r, id);
            }
        }
    }

    query.sort_unstable();
    ExpandedQuery {
        added: query,
        quality: inst.quality_of(&r),
    }
}

/// [`crate::pebc::pebc`] as it was: one `add_value` per candidate, every
/// candidate ranked, the sweep stopping at the first one below the
/// threshold.
pub(crate) fn pebc(inst: &QecInstance<'_>, config: &PebcConfig) -> ExpandedQuery {
    let arena = inst.arena;
    let mut r = ResultSet::full(arena.size());
    let values: Vec<MoveValue> = (0..arena.num_candidates() as u32)
        .map(|i| add_value(inst, &r, CandId(i)))
        .collect();
    let mut order: Vec<u32> = (0..values.len() as u32).collect();
    order.sort_unstable_by(|&a, &b| {
        values[b as usize]
            .value
            .partial_cmp(&values[a as usize].value)
            .expect("values are never NaN")
            .then_with(|| a.cmp(&b))
    });

    let mut added = Vec::new();
    for &i in &order {
        if added.len() >= config.max_keywords || values[i as usize].value <= config.min_value {
            break;
        }
        let contains = &arena.candidate(CandId(i)).contains;
        let live_benefit = r.weighted_sum_and_not_and(contains, &inst.universe_set, &arena.weights);
        if live_benefit <= 0.0 {
            continue;
        }
        r.and_assign(contains);
        added.push(CandId(i));
        if !r.intersects(&inst.universe_set) {
            break;
        }
    }
    added.sort_unstable();
    ExpandedQuery {
        added,
        quality: inst.quality_of(&r),
    }
}
