//! Property tests: every `ResultSet` operation cross-checked against a
//! naive `BTreeSet<usize>` model under seeded-random workloads.
//!
//! The universes deliberately include word-boundary shapes — multiples of
//! 64 (no tail word), one-past and one-short of a boundary, the empty
//! universe — because the tail-masking invariant ("no stray bits past the
//! universe") is where bit-parallel set code historically breaks.

use qec_cluster::SplitMix64;
use qec_core::ResultSet;
use std::collections::BTreeSet;

/// The universe sizes exercised; chosen to cover `universe % 64 == 0`,
/// off-by-one tails, a single word, and the degenerate empty universe.
const UNIVERSES: &[usize] = &[0, 1, 63, 64, 65, 127, 128, 192, 100, 500];

fn random_set(rng: &mut SplitMix64, universe: usize, density_pct: usize) -> BTreeSet<usize> {
    (0..universe)
        .filter(|_| rng.below(100) < density_pct)
        .collect()
}

fn materialise(universe: usize, model: &BTreeSet<usize>) -> ResultSet {
    ResultSet::from_indices(universe, model.iter().copied())
}

fn assert_matches(set: &ResultSet, model: &BTreeSet<usize>, what: &str) {
    assert_eq!(set.len(), model.len(), "{what}: len");
    assert_eq!(set.is_empty(), model.is_empty(), "{what}: is_empty");
    let got: Vec<usize> = set.iter().collect();
    let want: Vec<usize> = model.iter().copied().collect();
    assert_eq!(got, want, "{what}: members");
}

#[test]
fn binary_ops_match_btreeset_model() {
    let mut rng = SplitMix64::seed_from_u64(0xC0FFEE);
    for &universe in UNIVERSES {
        for density in [0, 10, 50, 90, 100] {
            let ma = random_set(&mut rng, universe, density);
            let mb = random_set(&mut rng, universe, 100 - density);
            let a = materialise(universe, &ma);
            let b = materialise(universe, &mb);
            let tag = format!("u={universe} d={density}");

            assert_matches(&a, &ma, &tag);
            assert_matches(&a.and(&b), &(&ma & &mb), &format!("{tag} and"));
            assert_matches(&a.or(&b), &(&ma | &mb), &format!("{tag} or"));
            assert_matches(&a.and_not(&b), &(&ma - &mb), &format!("{tag} and_not"));

            // Counting ops against the materialised model ops.
            assert_eq!(
                a.intersect_count(&b),
                (&ma & &mb).len(),
                "{tag} intersect_count"
            );
            assert_eq!(
                a.and_not_count(&b),
                (&ma - &mb).len(),
                "{tag} and_not_count"
            );
            assert_eq!(
                a.intersects(&b),
                !(&ma & &mb).is_empty(),
                "{tag} intersects"
            );
        }
    }
}

#[test]
fn in_place_and_into_ops_match_model() {
    let mut rng = SplitMix64::seed_from_u64(0xBEEF);
    for &universe in UNIVERSES {
        for _round in 0..4 {
            let ma = random_set(&mut rng, universe, 40);
            let mb = random_set(&mut rng, universe, 40);
            let a = materialise(universe, &ma);
            let b = materialise(universe, &mb);
            let tag = format!("u={universe}");

            let mut x = a.clone();
            x.and_assign(&b);
            assert_matches(&x, &(&ma & &mb), &format!("{tag} and_assign"));

            let mut x = a.clone();
            x.or_assign(&b);
            assert_matches(&x, &(&ma | &mb), &format!("{tag} or_assign"));

            let mut x = a.clone();
            x.and_not_assign(&b);
            assert_matches(&x, &(&ma - &mb), &format!("{tag} and_not_assign"));

            let mut x = ResultSet::full(universe);
            x.copy_from(&a);
            assert_matches(&x, &ma, &format!("{tag} copy_from"));

            let mut x = a.clone();
            x.clear();
            assert!(x.is_empty(), "{tag} clear");
            x.set_full();
            assert_matches(&x, &(0..universe).collect(), &format!("{tag} set_full"));
        }
    }
}

#[test]
fn weighted_kernels_match_model() {
    let mut rng = SplitMix64::seed_from_u64(0xFEED);
    for &universe in UNIVERSES {
        let weights: Vec<f64> = (0..universe).map(|i| (i % 17) as f64 + 0.5).collect();
        for _round in 0..4 {
            let ma = random_set(&mut rng, universe, 45);
            let mb = random_set(&mut rng, universe, 45);
            let mc = random_set(&mut rng, universe, 45);
            let a = materialise(universe, &ma);
            let b = materialise(universe, &mb);
            let c = materialise(universe, &mc);

            let naive_sum: f64 = ma.iter().map(|&i| weights[i]).sum();
            assert!((a.weighted_sum(&weights) - naive_sum).abs() < 1e-9);

            let naive_and: f64 = ma.intersection(&mb).map(|&i| weights[i]).sum();
            assert!((a.weighted_sum_and(&b, &weights) - naive_and).abs() < 1e-9);

            let naive_fused: f64 = ma
                .iter()
                .filter(|i| !mb.contains(i) && mc.contains(i))
                .map(|&i| weights[i])
                .sum();
            assert!(
                (a.weighted_sum_and_not_and(&b, &c, &weights) - naive_fused).abs() < 1e-9,
                "u={universe}"
            );
        }
    }
}

#[test]
fn full_set_complement_edge_cases() {
    for &universe in UNIVERSES {
        let full = ResultSet::full(universe);
        let empty = ResultSet::empty(universe);
        // ¬full = ∅ and ¬∅ = full, via and_not against full.
        assert!(full.and_not(&full).is_empty(), "u={universe}");
        assert_eq!(full.and_not(&empty), full, "u={universe}");
        assert_eq!(full.and_not_count(&empty), universe);
        assert_eq!(full.intersect_count(&full), universe);
        // The complement of a set plus the set is the full universe.
        let mut rng = SplitMix64::seed_from_u64(universe as u64 + 7);
        let model = random_set(&mut rng, universe, 30);
        let s = materialise(universe, &model);
        let complement = full.and_not(&s);
        let mut reunion = s.clone();
        reunion.or_assign(&complement);
        assert_eq!(reunion, full, "u={universe} reunion");
        assert_eq!(s.intersect_count(&complement), 0);
        // No bits may leak past the universe even after set_full on the
        // complement's buffer.
        if universe > 0 {
            assert!(reunion.iter().all(|i| i < universe));
        }
    }
}

#[test]
fn random_mutation_walk_matches_model() {
    // A longer adversarial walk: random insert/remove interleaved with
    // whole-set ops, checking membership against the model each step.
    let mut rng = SplitMix64::seed_from_u64(0xDADA);
    for &universe in &[64usize, 100, 256] {
        let mut model: BTreeSet<usize> = BTreeSet::new();
        let mut set = ResultSet::empty(universe);
        for step in 0..2000 {
            let i = rng.below(universe);
            if rng.below(2) == 0 {
                set.insert(i);
                model.insert(i);
            } else {
                set.remove(i);
                model.remove(&i);
            }
            assert_eq!(set.contains(i), model.contains(&i));
            if step % 257 == 0 {
                assert_matches(&set, &model, &format!("u={universe} step={step}"));
            }
        }
    }
}
