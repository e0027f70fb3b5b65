//! Microbenchmarks for the `qec-bitset` kernels, in two parts.
//!
//! * The kernels ISKR's inner loop runs on, at the paper's largest arena
//!   (500 results): allocating set ops vs their in-place / counting
//!   twins, and the fused weighted kernels vs materialising the
//!   intermediate sets they replace.
//! * The chunked/fused kernels measured directly against a **scalar
//!   reference** — the word-at-a-time loops `ResultSet` and the index's
//!   bitmaps ran before extraction, plus the two-pass combine-then-recount pattern
//!   call sites used to emulate the fused kernel — across a density ×
//!   universe-size grid, with a rank/select microbench on top.
//!
//! Modes:
//!
//! * **smoke** (`cargo bench -- --test`, what CI runs): every grid kernel
//!   is parity-asserted bit-identical to the scalar reference over the
//!   whole grid; timing is skipped.
//! * **timed**: medians are measured, the dense-input speedups are
//!   reported, and the fused kernels are asserted no slower than the
//!   two-pass scalar pattern they replaced.

use qec_bench::Harness;
use qec_bitset::{Bitset, RankIndex};
use qec_cluster::SplitMix64;
use std::hint::black_box;

/// The scalar reference implementations (pre-extraction idiom: plain
/// per-word zips, no chunking, counts as separate sweeps).
mod scalar {
    pub fn count(a: &[u64]) -> usize {
        a.iter().map(|w| w.count_ones() as usize).sum()
    }

    pub fn and_count(a: &[u64], b: &[u64]) -> usize {
        a.iter()
            .zip(b)
            .map(|(x, y)| (x & y).count_ones() as usize)
            .sum()
    }

    /// The old call-site emulation of a fused `and_not_count_into`:
    /// copy, subtract in place, then recount — three sweeps.
    pub fn and_not_into_then_count(a: &[u64], b: &[u64], out: &mut [u64]) -> usize {
        out.copy_from_slice(a);
        for (o, y) in out.iter_mut().zip(b) {
            *o &= !y;
        }
        count(out)
    }

    /// Scalar prefix-popcount rank.
    pub fn rank(words: &[u64], i: usize) -> usize {
        let full = i / 64;
        let mut c = words[..full].iter().map(|w| w.count_ones() as usize).sum();
        let rem = i % 64;
        if rem != 0 {
            c += (words[full] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        c
    }

    /// Scalar word-scan select.
    pub fn select(words: &[u64], n: usize) -> Option<usize> {
        let mut remaining = n;
        for (wi, &word) in words.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if remaining < ones {
                let mut w = word;
                for _ in 0..remaining {
                    w &= w - 1;
                }
                return Some(wi * 64 + w.trailing_zeros() as usize);
            }
            remaining -= ones;
        }
        None
    }
}

fn random_set(rng: &mut SplitMix64, universe: usize, density_pct: usize) -> Bitset {
    Bitset::from_indices(
        universe,
        (0..universe).filter(|_| rng.below(100) < density_pct),
    )
}

/// One grid cell's operand pair.
struct Cell {
    label: String,
    a: Bitset,
    b: Bitset,
}

fn grid(rng: &mut SplitMix64) -> Vec<Cell> {
    let mut cells = Vec::new();
    for universe in [512usize, 4096, 65536] {
        for (density, da, db) in [("dense", 55, 45), ("sparse", 2, 2), ("mixed", 60, 4)] {
            cells.push(Cell {
                label: format!("u{universe}_{density}"),
                a: random_set(rng, universe, da),
                b: random_set(rng, universe, db),
            });
        }
    }
    cells
}

/// Bit-identical parity of every chunked/fused kernel against the scalar
/// reference — runs in every mode, and is the whole point of the CI smoke
/// step.
fn assert_parity(cells: &[Cell]) {
    for Cell { label, a, b } in cells {
        let (aw, bw) = (a.as_words(), b.as_words());
        let mut scalar_out = vec![0u64; aw.len()];
        let mut out = Bitset::empty(a.universe());

        assert_eq!(a.len(), scalar::count(aw), "len: {label}");
        assert_eq!(
            a.intersect_count(b),
            scalar::and_count(aw, bw),
            "and_count: {label}"
        );
        let fused = a.and_not_count_into(b, &mut out);
        let two_pass = scalar::and_not_into_then_count(aw, bw, &mut scalar_out);
        assert_eq!(fused, two_pass, "and_not count: {label}");
        assert_eq!(out.as_words(), &scalar_out[..], "and_not words: {label}");

        let sidecar = RankIndex::build(a);
        for i in (0..=a.universe()).step_by((a.universe() / 17).max(1)) {
            let want = scalar::rank(aw, i);
            assert_eq!(a.rank(i), want, "rank({i}): {label}");
            assert_eq!(sidecar.rank(a, i), want, "sidecar rank({i}): {label}");
        }
        let ones = a.len();
        for n in (0..ones).step_by((ones / 17).max(1)) {
            let want = scalar::select(aw, n);
            assert_eq!(a.select(n), want, "select({n}): {label}");
            assert_eq!(sidecar.select(a, n), want, "sidecar select({n}): {label}");
        }
        assert_eq!(a.select(ones), None, "select past end: {label}");
    }
    println!("# kernel parity: chunked/fused == scalar reference over the whole grid");
}

/// The ISKR inner-loop kernels at the paper's largest arena.
fn bench_arena_kernels(h: &mut Harness) {
    let universe = 500;
    let mut rng = SplitMix64::seed_from_u64(2024);
    let a = random_set(&mut rng, universe, 60);
    let b = random_set(&mut rng, universe, 40);
    let c = random_set(&mut rng, universe, 30);
    let weights: Vec<f64> = (0..universe).map(|i| 1.0 / (1.0 + i as f64)).collect();

    h.bench("and/alloc", || black_box(&a).and(black_box(&b)));
    let mut buf = a.clone();
    h.bench("and/in_place", || {
        buf.copy_from(black_box(&a));
        buf.and_assign(black_box(&b));
    });
    h.bench("intersect_count", || {
        black_box(&a).intersect_count(black_box(&b))
    });
    h.bench("and_not_count", || {
        black_box(&a).and_not_count(black_box(&b))
    });

    h.bench("weighted_sum_and/fused", || {
        black_box(&a).weighted_sum_and(black_box(&b), black_box(&weights))
    });
    h.bench("weighted_sum_and/materialised", || {
        black_box(&a)
            .and(black_box(&b))
            .weighted_sum(black_box(&weights))
    });
    h.bench("weighted_sum_and_not_and/fused", || {
        black_box(&a).weighted_sum_and_not_and(black_box(&b), black_box(&c), black_box(&weights))
    });
    h.bench("weighted_sum_and_not_and/materialised", || {
        black_box(&a)
            .and_not(black_box(&b))
            .and(black_box(&c))
            .weighted_sum(black_box(&weights))
    });
}

fn main() {
    let mut h = Harness::new("bitset");
    bench_arena_kernels(&mut h);

    let mut rng = SplitMix64::seed_from_u64(777);
    let cells = grid(&mut rng);
    assert_parity(&cells);

    for Cell { label, a, b } in &cells {
        let (aw, bw) = (a.as_words(), b.as_words());
        let mut scalar_out = vec![0u64; aw.len()];
        let mut out = Bitset::empty(a.universe());

        h.bench(&format!("and_count/scalar/{label}"), || {
            scalar::and_count(black_box(aw), black_box(bw))
        });
        h.bench(&format!("and_count/chunked/{label}"), || {
            black_box(a).intersect_count(black_box(b))
        });
        h.bench(&format!("and_not_count/scalar_two_pass/{label}"), || {
            scalar::and_not_into_then_count(black_box(aw), black_box(bw), &mut scalar_out)
        });
        h.bench(&format!("and_not_count/fused_chunked/{label}"), || {
            black_box(a).and_not_count_into(black_box(b), &mut out)
        });
    }

    // Rank/select microbench on the largest dense set: 64 strided probes
    // per iteration, through the scalar scan, the chunked direct queries,
    // and the cached-popcount sidecar.
    let big = cells
        .iter()
        .find(|c| c.label == "u65536_dense")
        .expect("grid has the big dense cell");
    let a = &big.a;
    let aw = a.as_words();
    let sidecar = RankIndex::build(a);
    let probes: Vec<usize> = (0..64).map(|i| i * (a.universe() / 64)).collect();
    let ones = a.len();
    let selects: Vec<usize> = (0..64).map(|i| i * (ones / 64)).collect();

    h.bench("rank/scalar/u65536_dense", || {
        probes
            .iter()
            .map(|&i| scalar::rank(black_box(aw), i))
            .sum::<usize>()
    });
    h.bench("rank/chunked/u65536_dense", || {
        probes.iter().map(|&i| black_box(a).rank(i)).sum::<usize>()
    });
    h.bench("rank/sidecar/u65536_dense", || {
        probes
            .iter()
            .map(|&i| black_box(&sidecar).rank(black_box(a), i))
            .sum::<usize>()
    });
    h.bench("select/scalar/u65536_dense", || {
        selects
            .iter()
            .filter_map(|&n| scalar::select(black_box(aw), n))
            .sum::<usize>()
    });
    h.bench("select/sidecar/u65536_dense", || {
        selects
            .iter()
            .filter_map(|&n| black_box(&sidecar).select(black_box(a), n))
            .sum::<usize>()
    });

    // Timed mode only: report the dense-input speedups and assert the
    // fused/chunked kernels are no slower than the scalar reference they
    // replaced (the structural wins — fewer passes, cached blocks — leave
    // real margin; a regression here means the chunking broke).
    if !h.test_mode() {
        // (scalar case, kernel case, tolerated slowdown factor). The fused
        // and sidecar kernels win structurally (one pass instead of three /
        // cached blocks instead of a full scan) and must be no slower on
        // the big dense cell, where a median is stable. The pure counting
        // sweep compiles to the same vector loop as the reference — that
        // comparison documents parity, so it gets a 5% measurement-noise
        // band instead of a coin-flip strict check — and the 64-word cell
        // is pure loop overhead at ~50 ns/op, so it only backstops gross
        // regressions (25%).
        let mut checks = vec![];
        for (label, strict, parity) in [("u4096_dense", 1.25, 1.25), ("u65536_dense", 1.0, 1.05)] {
            checks.push((
                format!("and_not_count/scalar_two_pass/{label}"),
                format!("and_not_count/fused_chunked/{label}"),
                strict,
            ));
            checks.push((
                format!("and_count/scalar/{label}"),
                format!("and_count/chunked/{label}"),
                parity,
            ));
        }
        checks.push((
            "select/scalar/u65536_dense".into(),
            "select/sidecar/u65536_dense".into(),
            1.0,
        ));
        checks.push((
            "rank/scalar/u65536_dense".into(),
            "rank/sidecar/u65536_dense".into(),
            1.0,
        ));
        for (scalar_case, kernel_case, tolerance) in checks {
            let (Some(s), Some(k)) = (h.median_of(&scalar_case), h.median_of(&kernel_case)) else {
                continue; // a substring filter excluded one side
            };
            println!("# speedup {kernel_case}: {:.2}x vs {scalar_case}", s / k);
            assert!(
                k <= s * tolerance,
                "{kernel_case} must be no slower than {scalar_case} on dense \
                 inputs (got {k} vs {s} ns, tolerance {tolerance})"
            );
        }
    }

    h.finish();
}
