//! Property tests: every fused/chunked kernel must be bit-identical to a
//! naive `BTreeSet` reference, across random densities and universe sizes
//! — including the word-boundary sizes 63/64/65 where chunk/tail splits
//! and tail-bit masking go wrong first — plus rank/select round-trips.

use qec_bitset::{Bitset, RankIndex};
use std::collections::BTreeSet;

/// Local splitmix64 (the workspace's `rand` substitute lives in
/// `qec-cluster`, which sits *above* this crate — a 7-line copy beats a
/// dev-dependency cycle).
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

fn random_members(rng: &mut SplitMix64, universe: usize, density_pct: u64) -> BTreeSet<usize> {
    (0..universe)
        .filter(|_| rng.below(100) < density_pct)
        .collect()
}

fn bitset_of(universe: usize, members: &BTreeSet<usize>) -> Bitset {
    Bitset::from_indices(universe, members.iter().copied())
}

const UNIVERSES: [usize; 9] = [0, 1, 63, 64, 65, 127, 200, 513, 2048];
const DENSITIES: [u64; 4] = [0, 5, 50, 95];

#[test]
fn kernels_match_btreeset_reference() {
    let mut rng = SplitMix64(0x5EED);
    for universe in UNIVERSES {
        for da in DENSITIES {
            for db in DENSITIES {
                let ma = random_members(&mut rng, universe, da);
                let mb = random_members(&mut rng, universe, db);
                let a = bitset_of(universe, &ma);
                let b = bitset_of(universe, &mb);
                let ctx = format!("universe {universe}, densities {da}/{db}");

                let and: Vec<usize> = ma.intersection(&mb).copied().collect();
                let or: Vec<usize> = ma.union(&mb).copied().collect();
                let diff: Vec<usize> = ma.difference(&mb).copied().collect();

                assert_eq!(a.and(&b).to_vec(), and, "and: {ctx}");
                assert_eq!(a.or(&b).to_vec(), or, "or: {ctx}");
                assert_eq!(a.and_not(&b).to_vec(), diff, "and_not: {ctx}");
                assert_eq!(a.len(), ma.len(), "len: {ctx}");
                assert_eq!(a.intersect_count(&b), and.len(), "intersect_count: {ctx}");
                assert_eq!(a.and_not_count(&b), diff.len(), "and_not_count: {ctx}");
                assert_eq!(a.intersects(&b), !and.is_empty(), "intersects: {ctx}");

                let mut out = Bitset::empty(universe);
                assert_eq!(
                    a.and_not_count_into(&b, &mut out),
                    diff.len(),
                    "and_not_count_into: {ctx}"
                );
                assert_eq!(out.to_vec(), diff, "and_not_count_into set: {ctx}");

                // In-place variants against the same reference.
                let mut x = a.clone();
                x.and_assign(&b);
                assert_eq!(x.to_vec(), and, "and_assign: {ctx}");
                let mut y = a.clone();
                y.or_assign(&b);
                assert_eq!(y.to_vec(), or, "or_assign: {ctx}");
                let mut z = a.clone();
                z.and_not_assign(&b);
                assert_eq!(z.to_vec(), diff, "and_not_assign: {ctx}");
            }
        }
    }
}

#[test]
fn weighted_kernels_match_reference_sums() {
    let mut rng = SplitMix64(0xF00D);
    for universe in [63usize, 64, 65, 200, 777] {
        let weights: Vec<f64> = (0..universe)
            .map(|i| ((i * 37) % 101) as f64 * 0.25)
            .collect();
        for _ in 0..4 {
            let ma = random_members(&mut rng, universe, 40);
            let mb = random_members(&mut rng, universe, 40);
            let mc = random_members(&mut rng, universe, 60);
            let a = bitset_of(universe, &ma);
            let b = bitset_of(universe, &mb);
            let c = bitset_of(universe, &mc);

            let sum = |it: &mut dyn Iterator<Item = usize>| -> f64 { it.map(|i| weights[i]).sum() };
            let w1 = sum(&mut ma.iter().copied());
            assert!((a.weighted_sum(&weights) - w1).abs() < 1e-9);
            let w2 = sum(&mut ma.intersection(&mb).copied());
            assert!((a.weighted_sum_and(&b, &weights) - w2).abs() < 1e-9);
            let w3 = sum(&mut ma
                .iter()
                .copied()
                .filter(|i| mb.contains(i) && mc.contains(i)));
            let (ab, abc) = a.weighted_sum_and_split(&b, &c, &weights);
            assert!((ab - w2).abs() < 1e-9);
            assert!((abc - w3).abs() < 1e-9);
            let wc = sum(&mut ma.iter().copied().filter(|i| mc.contains(i)));
            let (total, inter) = a.weighted_sum_split(&c, &weights);
            assert!((total - w1).abs() < 1e-9);
            assert!((inter - wc).abs() < 1e-9);
            let w4 = sum(&mut ma
                .iter()
                .copied()
                .filter(|i| !mb.contains(i) && mc.contains(i)));
            assert!((a.weighted_sum_and_not_and(&b, &c, &weights) - w4).abs() < 1e-9);
        }
    }
}

#[test]
fn rank_select_roundtrip_over_random_sets() {
    let mut rng = SplitMix64(0xCAFE);
    for universe in UNIVERSES {
        for density in DENSITIES {
            let members = random_members(&mut rng, universe, density);
            let s = bitset_of(universe, &members);
            let idx = RankIndex::build(&s);
            let ctx = format!("universe {universe}, density {density}");

            assert_eq!(idx.ones(), members.len(), "ones: {ctx}");
            // rank(i) == members below i, at every boundary-ish probe.
            for i in (0..=universe).step_by((universe / 13).max(1)) {
                let want = members.range(..i).count();
                assert_eq!(s.rank(i), want, "rank({i}): {ctx}");
                assert_eq!(idx.rank(&s, i), want, "idx.rank({i}): {ctx}");
            }
            // select(n) enumerates the members in order; rank inverts it.
            for (n, &m) in members.iter().enumerate() {
                assert_eq!(s.select(n), Some(m), "select({n}): {ctx}");
                assert_eq!(idx.select(&s, n), Some(m), "idx.select({n}): {ctx}");
                assert_eq!(s.rank(m), n, "rank∘select: {ctx}");
            }
            assert_eq!(s.select(members.len()), None, "select past end: {ctx}");
            assert_eq!(idx.select(&s, members.len()), None, "idx past end: {ctx}");
        }
    }
}

/// Members read off a word slice: element `i` is bit `i % 64` of word
/// `i / 64`.
fn members_of_words(words: &[u64]) -> BTreeSet<usize> {
    (0..words.len() * 64)
        .filter(|&i| words[i / 64] >> (i % 64) & 1 == 1)
        .collect()
}

#[test]
fn word_slice_roundtrip_matches_btreeset_reference() {
    // The layout `as_words` promises its readers (the cold-build
    // differential tests compare arenas through it): exactly
    // `universe.div_ceil(64)` words, LSB-first, and no bit set at or past
    // the universe — so the members read off the words are the set's, and
    // rebuilding from them gives the same words back.
    let mut rng = SplitMix64(0xD15C);
    for universe in UNIVERSES {
        for density in DENSITIES {
            let members = random_members(&mut rng, universe, density);
            let s = bitset_of(universe, &members);
            let ctx = format!("universe {universe}, density {density}");

            let words = s.as_words();
            assert_eq!(words.len(), universe.div_ceil(64), "word count: {ctx}");
            let read = members_of_words(words);
            assert_eq!(read, members, "members read off the words: {ctx}");
            assert_eq!(bitset_of(universe, &read), s, "round-trip equality: {ctx}");
        }
        // `full` sets every element and nothing past the universe.
        let full = Bitset::full(universe);
        assert_eq!(
            members_of_words(full.as_words()),
            (0..universe).collect::<BTreeSet<_>>(),
            "full tail: universe {universe}"
        );
    }
}
