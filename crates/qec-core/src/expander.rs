//! The [`Expander`] strategy trait: one interface over every per-cluster
//! expansion algorithm.
//!
//! The serving facade (`qec-engine`), the parallel fan-out
//! ([`crate::parallel`]) and the benchmarks all drive expansion through
//! this trait, so algorithms are interchangeable at every layer:
//!
//! * [`Iskr`] — Iterative Single-Keyword Refinement (Algorithm 1), the
//!   paper's method and the default. Allocation-free on a warmed scratch.
//! * [`Pebc`] — the partial-elimination baseline: one-shot static
//!   valuation, no maintenance, no removals. Cheapest; lowest quality.
//!   Also allocation-free on a warmed scratch.
//! * [`ExactDeltaF`] — greedy refinement by exact ΔF-measure (§5's
//!   "F-measure" baseline). Highest quality; 1–2 orders slower because it
//!   revalues every candidate every iteration. Like the others it runs on
//!   the caller's scratch and is allocation-free once warmed — the cost
//!   gap the benches measure is algorithmic, not allocator noise.
//!
//! Every implementation writes its result into a caller-owned
//! [`ExpandedQuery`] and uses a caller-owned [`IskrScratch`] for working
//! state, so a serving loop that reuses both stays on the zero-allocation
//! discipline of the underlying kernels.

use crate::cancel::CancelToken;
use crate::fmeasure::{fmeasure_refine_into_cancellable, FMeasureConfig};
use crate::iskr::{iskr_into_cancellable, ExpandedQuery, IskrConfig, IskrScratch};
use crate::pebc::{pebc_into_cancellable, PebcConfig};
use crate::problem::QecInstance;

/// A pluggable per-cluster expansion strategy.
///
/// `Sync` is a supertrait so trait objects can be shared across the
/// tasks of a [`WorkerPool`](crate::pool::WorkerPool) fan-out; strategies
/// are plain configuration data, so this costs nothing.
pub trait Expander: Sync {
    /// Short stable identifier (used in benchmark case names and serving
    /// stats).
    fn name(&self) -> &'static str;

    /// Expands one cluster instance into `out`, reusing `scratch` for all
    /// working state, with cooperative cancellation: returns `true` when
    /// the expansion ran to completion — `out` is then overwritten
    /// completely (cleared `added`, fresh `quality`), reusing its capacity
    /// — and `false` when `cancel` tripped mid-run — `out` is then
    /// unspecified and must be discarded (the no-torn-results contract of
    /// [`CancelToken`]). A strategy that never polls the token is simply
    /// uncancellable, not wrong.
    fn expand_cancellable(
        &self,
        inst: &QecInstance<'_>,
        scratch: &mut IskrScratch,
        out: &mut ExpandedQuery,
        cancel: &CancelToken,
    ) -> bool;

    /// [`expand_cancellable`](Self::expand_cancellable) under a token that
    /// never trips: always runs to completion.
    fn expand_into(
        &self,
        inst: &QecInstance<'_>,
        scratch: &mut IskrScratch,
        out: &mut ExpandedQuery,
    ) {
        let done = self.expand_cancellable(inst, scratch, out, &CancelToken::none());
        debug_assert!(done, "inert token never cancels");
    }

    /// Convenience: expands with a fresh scratch into a fresh output.
    fn expand(&self, inst: &QecInstance<'_>) -> ExpandedQuery {
        let mut scratch = IskrScratch::new();
        let mut out = ExpandedQuery::default();
        self.expand_into(inst, &mut scratch, &mut out);
        out
    }
}

/// Shared completion plumbing of the built-in strategies'
/// `expand_cancellable`: a finished kernel run copies quality + added
/// keywords into `out`, a cancelled one leaves `out` untouched and reports
/// `false`.
fn finish_cancellable(
    quality: Option<crate::QueryQuality>,
    scratch: &IskrScratch,
    out: &mut ExpandedQuery,
) -> bool {
    match quality {
        Some(q) => {
            out.quality = q;
            out.added.clear();
            out.added.extend_from_slice(scratch.added());
            true
        }
        None => false,
    }
}

/// [`Expander`] wrapping ISKR ([`iskr()`](crate::iskr())).
#[derive(Debug, Clone, Default)]
pub struct Iskr(pub IskrConfig);

impl Expander for Iskr {
    fn name(&self) -> &'static str {
        "iskr"
    }

    fn expand_cancellable(
        &self,
        inst: &QecInstance<'_>,
        scratch: &mut IskrScratch,
        out: &mut ExpandedQuery,
        cancel: &CancelToken,
    ) -> bool {
        let q = iskr_into_cancellable(inst, &self.0, scratch, cancel);
        finish_cancellable(q, scratch, out)
    }
}

/// [`Expander`] wrapping the exact-ΔF baseline
/// ([`fmeasure_refine`](crate::fmeasure_refine)).
#[derive(Debug, Clone, Default)]
pub struct ExactDeltaF(pub FMeasureConfig);

impl Expander for ExactDeltaF {
    fn name(&self) -> &'static str {
        "exact-df"
    }

    fn expand_cancellable(
        &self,
        inst: &QecInstance<'_>,
        scratch: &mut IskrScratch,
        out: &mut ExpandedQuery,
        cancel: &CancelToken,
    ) -> bool {
        let q = fmeasure_refine_into_cancellable(inst, &self.0, scratch, cancel);
        finish_cancellable(q, scratch, out)
    }
}

/// [`Expander`] wrapping the partial-elimination baseline
/// ([`pebc()`](crate::pebc())).
#[derive(Debug, Clone, Default)]
pub struct Pebc(pub PebcConfig);

impl Expander for Pebc {
    fn name(&self) -> &'static str {
        "pebc"
    }

    fn expand_cancellable(
        &self,
        inst: &QecInstance<'_>,
        scratch: &mut IskrScratch,
        out: &mut ExpandedQuery,
        cancel: &CancelToken,
    ) -> bool {
        let q = pebc_into_cancellable(inst, &self.0, scratch, cancel);
        finish_cancellable(q, scratch, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bitset::ResultSet;
    use crate::fmeasure::fmeasure_refine;
    use crate::iskr::iskr;
    use crate::pebc::pebc;
    use crate::problem::{Candidate, ExpansionArena};
    use qec_text::TermId;

    fn arena() -> (ExpansionArena, Vec<usize>) {
        let n = 16;
        let candidates: Vec<Candidate> = (0..8u32)
            .map(|i| Candidate {
                term: TermId(i),
                contains: ResultSet::from_indices(
                    n,
                    (0..n).filter(|&j| !(j + i as usize).is_multiple_of(3 + i as usize % 3)),
                ),
            })
            .collect();
        (
            ExpansionArena::from_parts(vec![1.0; n], candidates),
            (0..6).collect(),
        )
    }

    #[test]
    fn trait_objects_match_direct_calls() {
        let (arena, cluster) = arena();
        let inst = QecInstance::from_members(&arena, cluster);
        let strategies: [&dyn Expander; 3] = [
            &Iskr(IskrConfig::default()),
            &ExactDeltaF(FMeasureConfig::default()),
            &Pebc(PebcConfig::default()),
        ];
        let direct = [
            iskr(&inst, &IskrConfig::default()),
            fmeasure_refine(&inst, &FMeasureConfig::default()),
            pebc(&inst, &PebcConfig::default()),
        ];
        for (s, d) in strategies.iter().zip(&direct) {
            assert_eq!(&s.expand(&inst), d, "{}", s.name());
        }
    }

    #[test]
    fn expand_into_overwrites_stale_output() {
        let (arena, cluster) = arena();
        let inst = QecInstance::from_members(&arena, cluster);
        let mut scratch = IskrScratch::new();
        let mut out = ExpandedQuery {
            added: vec![crate::problem::CandId(999)],
            quality: Default::default(),
        };
        Iskr(IskrConfig::default()).expand_into(&inst, &mut scratch, &mut out);
        assert!(!out.added.contains(&crate::problem::CandId(999)));
        assert_eq!(out, iskr(&inst, &IskrConfig::default()));
    }

    #[test]
    fn names_are_distinct() {
        let names = [
            Iskr::default().name(),
            ExactDeltaF::default().name(),
            Pebc::default().name(),
        ];
        assert_eq!(names.len(), {
            let mut n = names.to_vec();
            n.sort_unstable();
            n.dedup();
            n.len()
        });
    }
}
