//! End-to-end expansion benchmarks at the paper's workload sizes
//! (top-30/100/500, candidates that hold most of the arena) and at the
//! serving shape (`sparse100`: candidates that hold a few results each),
//! driven through the [`Expander`] trait the serving facade dispatches on,
//! plus the exact-ΔF baseline for contrast and a whole-query (every
//! cluster) expansion.

use qec_bench::{synth_arena, ArenaSpec, Harness};
use qec_core::{
    ExactDeltaF, ExpandedQuery, Expander, FMeasureConfig, Iskr, IskrConfig, IskrScratch,
    QecInstance,
};
use std::hint::black_box;

fn main() {
    let mut h = Harness::new("iskr");
    let iskr = Iskr(IskrConfig::default());

    let shapes = [
        ("arena30", ArenaSpec::top(30, 11)),
        ("arena100", ArenaSpec::top(100, 11)),
        ("arena500", ArenaSpec::top(500, 11)),
        ("sparse100", ArenaSpec::sparse(100, 11)),
    ];
    for (shape, spec) in shapes {
        let (arena, clusters) = synth_arena(&spec);
        let inst = QecInstance::new(&arena, clusters[0].clone());
        let mut scratch = IskrScratch::new();
        let mut out = ExpandedQuery::default();
        iskr.expand_into(&inst, &mut scratch, &mut out); // warm the buffers
        h.bench(&format!("iskr/{shape}"), || {
            iskr.expand_into(black_box(&inst), &mut scratch, &mut out);
            black_box(out.quality)
        });
    }

    // The exact-ΔF baseline the paper reports as 1–2 orders slower.
    let (arena, clusters) = synth_arena(&ArenaSpec::top(100, 11));
    let inst = QecInstance::new(&arena, clusters[0].clone());
    let exact = ExactDeltaF(FMeasureConfig::default());
    h.bench("fmeasure_baseline/arena100", || {
        black_box(exact.expand(black_box(&inst)))
    });

    // Whole-query expansion: every cluster of a top-500 arena, one after
    // another on one warmed scratch (the pooled fan-out of the same loop
    // is timed by the repo benchmark's `core.pool_dispatch_*` rows).
    let (arena, clusters) = synth_arena(&ArenaSpec::top(500, 11));
    let (mut scratch, mut out) = (IskrScratch::new(), ExpandedQuery::default());
    h.bench("expand_all/arena500/sequential", || {
        for c in &clusters {
            iskr.expand_into(&QecInstance::new(&arena, c.clone()), &mut scratch, &mut out);
        }
        black_box(out.quality)
    });

    h.finish();
}
