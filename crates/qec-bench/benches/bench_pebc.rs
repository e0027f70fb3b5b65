//! The partial-elimination baseline (PEBC) at the paper's workload sizes
//! and at the serving shape (`sparse100`, see `bench_iskr`), measured
//! against ISKR through the shared [`Expander`] trait.
//!
//! PEBC values every candidate once and never maintains values, so it must
//! sit strictly below the exact-ΔF baseline in cost; the suite asserts
//! that relationship at arena 100 (where both run) and prints the
//! PEBC-vs-ISKR ratio for the ablation picture. It also sanity-checks the
//! quality ordering the paper's §5 comparison implies: exact ΔF ≥ PEBC on
//! the seeded synthetic senses.

use qec_bench::{synth_arena, ArenaSpec, Harness};
use qec_core::{
    ExactDeltaF, ExpandedQuery, Expander, FMeasureConfig, Iskr, IskrConfig, IskrScratch, Pebc,
    PebcConfig, QecInstance,
};
use std::hint::black_box;

fn main() {
    let mut h = Harness::new("pebc");
    let pebc = Pebc(PebcConfig::default());
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
        pebc.expand_into(&inst, &mut scratch, &mut out); // warm the buffers
        h.bench(&format!("pebc/{shape}"), || {
            pebc.expand_into(black_box(&inst), &mut scratch, &mut out);
            black_box(out.quality)
        });
        h.bench(&format!("iskr/{shape}"), || {
            iskr.expand_into(black_box(&inst), &mut scratch, &mut out);
            black_box(out.quality)
        });
    }

    // Cost and quality against the exact-ΔF baseline at arena 100.
    let (arena, clusters) = synth_arena(&ArenaSpec::top(100, 11));
    let inst = QecInstance::new(&arena, clusters[0].clone());
    let exact = ExactDeltaF(FMeasureConfig::default());
    h.bench("exact_df/arena100", || {
        black_box(exact.expand(black_box(&inst)))
    });

    let q_pebc = pebc.expand(&inst);
    let q_exact = exact.expand(&inst);
    println!(
        "# arena100 quality: pebc F {:.3} vs exact-dF F {:.3}",
        q_pebc.quality.fmeasure, q_exact.quality.fmeasure
    );
    assert!(
        q_exact.quality.fmeasure >= q_pebc.quality.fmeasure - 1e-12,
        "exact refinement must not lose to the partial-elimination baseline"
    );

    if !h.test_mode() {
        // The cost guard needs both medians; a substring filter can
        // legitimately exclude them, but that skip must be visible, not
        // silent. The iskr median is printing-only and stays optional.
        match (
            h.median_of("pebc/arena100"),
            h.median_of("exact_df/arena100"),
        ) {
            (Some(p), Some(e)) => {
                let iskr_part = h
                    .median_of("iskr/arena100")
                    .map(|i| format!(", iskr {} ns ({:.2}x)", i as u64, i / p))
                    .unwrap_or_default();
                println!(
                    "# arena100 cost: pebc {} ns{iskr_part}, exact-dF {} ns ({:.1}x)",
                    p as u64,
                    e as u64,
                    e / p
                );
                assert!(
                    p < e,
                    "one-shot valuation must be cheaper than exact refinement \
                     (pebc {p} vs exact {e} ns)"
                );
            }
            _ => println!("# arena100 cost guard skipped (cases filtered out)"),
        }
    }

    h.finish();
}
