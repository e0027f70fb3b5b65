//! Shared word-bitset kernels for the QEC reproduction.
//!
//! One dense, fixed-universe bitset ([`Bitset`]) backs `qec_core`'s
//! `ResultSet` (result sets over the expansion arena), on whose kernels
//! every strategy (ISKR, exact-ΔF, PEBC) runs, and `qec_index`'s
//! membership probe of a dense term (a document set over the corpus
//! universe, read one bit at a time by AND retrieval).
//!
//! Kernel discipline
//! -----------------
//! The kernels are written for speed, not just reuse:
//!
//! * **Chunked word loops** — binary set operations process words in
//!   fixed-width chunks of [`CHUNK`] `u64`s (via `slice::as_chunks`, with
//!   the chunk body manually unrolled) so LLVM autovectorizes them,
//!   std-only, no intrinsics. Scalar tails handle the last `< CHUNK`
//!   words. The workspace is compiled for the target's baseline and
//!   nothing raises it, so on x86-64 that means SSE2: two words per
//!   vector op, and `count_ones` is a software popcount (the `popcnt`
//!   instruction is not enabled). No kernel here is dispatched by CPU
//!   feature; only `qec-core`'s lane pass is, and another kernel joins
//!   that mechanism only with a bench row showing it wins.
//! * **Fused counting** — [`Bitset::and_not_count_into`] produces the
//!   combined set *and* its population count in one pass, replacing the
//!   combine-then-recount pattern call sites used to emulate it
//!   (`bench_bitset` measures both against the scalar reference).
//! * **Short-circuiting predicate** — [`Bitset::intersects`] bails out
//!   at the first deciding chunk.
//! * **Rank/select** — positional queries directly on the words
//!   ([`Bitset::rank`] / [`Bitset::select`]), plus a [`RankIndex`] sidecar
//!   caching per-block popcounts for repeated queries against a frozen
//!   set (the top-k / member-list access pattern).
//!
//! Invariants
//! ----------
//! Bits at positions `>= universe` are always zero (every constructor and
//! mutator preserves this), so popcounts and iteration never need tail
//! masking. All binary operations require both operands to share one
//! universe size and panic otherwise.

/// Words per unrolled chunk in the binary kernels: 4 × `u64` = 256 bits,
/// which the baseline x86-64 build runs as 128-bit SSE2 ops, two words at
/// a time.
pub const CHUNK: usize = 4;

/// Words per cached popcount block in a [`RankIndex`] (512 bits / block).
pub const RANK_BLOCK_WORDS: usize = 8;

/// A dense bitset over a fixed universe `{0, …, universe-1}`.
///
/// All operands of a binary operation must share the same universe size.
#[derive(Debug, Default, PartialEq, Eq, Hash)]
pub struct Bitset {
    words: Vec<u64>,
    /// Size of the universe (number of addressable bits).
    universe: usize,
}

impl Clone for Bitset {
    fn clone(&self) -> Self {
        Self {
            words: self.words.clone(),
            universe: self.universe,
        }
    }

    /// Manual impl because the derive would fall back to the default
    /// `*self = source.clone()`, re-allocating the word buffer on every
    /// call — `Vec::clone_from` reuses it, which the warmed
    /// allocation-free search and serving paths rely on.
    fn clone_from(&mut self, source: &Self) {
        self.words.clone_from(&source.words);
        self.universe = source.universe;
    }
}

impl Bitset {
    /// The empty set over a universe of `universe` elements.
    pub fn empty(universe: usize) -> Self {
        Self {
            words: vec![0; universe.div_ceil(64)],
            universe,
        }
    }

    /// The full set `{0, …, universe-1}`.
    pub fn full(universe: usize) -> Self {
        let mut s = Self::empty(universe);
        s.set_full();
        s
    }

    /// Builds from explicit member indices (must be `< universe`).
    pub fn from_indices(universe: usize, indices: impl IntoIterator<Item = usize>) -> Self {
        let mut s = Self::empty(universe);
        for i in indices {
            s.insert(i);
        }
        s
    }

    /// Universe size.
    #[inline]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// The backing words, least-significant bit of word 0 = element 0.
    /// Bits beyond the universe are guaranteed zero.
    #[inline]
    pub fn as_words(&self) -> &[u64] {
        &self.words
    }

    /// Heap footprint of the backing buffer in bytes — the unit the
    /// byte-budget caches weigh entries in.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.words.capacity() * std::mem::size_of::<u64>()
    }

    /// Adds `i` to the set.
    #[inline]
    pub fn insert(&mut self, i: usize) {
        debug_assert!(
            i < self.universe,
            "index {i} out of universe {}",
            self.universe
        );
        self.words[i / 64] |= 1u64 << (i % 64);
    }

    /// Removes `i` from the set.
    #[inline]
    pub fn remove(&mut self, i: usize) {
        debug_assert!(i < self.universe);
        self.words[i / 64] &= !(1u64 << (i % 64));
    }

    /// Membership test.
    #[inline]
    pub fn contains(&self, i: usize) -> bool {
        debug_assert!(i < self.universe);
        self.words[i / 64] & (1u64 << (i % 64)) != 0
    }

    /// Number of members (vectorized popcount sweep).
    pub fn len(&self) -> usize {
        self.words.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.words.iter().all(|&w| w == 0)
    }

    /// Empties the set in place.
    pub fn clear(&mut self) {
        self.words.fill(0);
    }

    /// Fills the set with the whole universe in place (tail bits beyond
    /// the universe stay zero, preserving the `len`/`iter` invariants).
    pub fn set_full(&mut self) {
        let universe = self.universe;
        for (i, w) in self.words.iter_mut().enumerate() {
            let remaining = universe - i * 64;
            *w = if remaining >= 64 {
                u64::MAX
            } else {
                (1u64 << remaining) - 1
            };
        }
    }

    /// Overwrites `self` with `other`'s members without allocating.
    pub fn copy_from(&mut self, other: &Bitset) {
        self.check(other);
        self.words.copy_from_slice(&other.words);
    }

    /// Empties the set and re-targets it to a `universe`-element universe,
    /// reusing the word buffer when the size allows.
    pub fn reset(&mut self, universe: usize) {
        self.universe = universe;
        self.words.clear();
        self.words.resize(universe.div_ceil(64), 0);
    }

    /// `self ∩ other` as a new set.
    pub fn and(&self, other: &Bitset) -> Bitset {
        let mut out = self.clone();
        out.and_assign(other);
        out
    }

    /// `self ∪ other` as a new set.
    pub fn or(&self, other: &Bitset) -> Bitset {
        let mut out = self.clone();
        out.or_assign(other);
        out
    }

    /// `self \ other` as a new set.
    pub fn and_not(&self, other: &Bitset) -> Bitset {
        let mut out = self.clone();
        out.and_not_assign(other);
        out
    }

    /// In-place `self ∩= other`.
    pub fn and_assign(&mut self, other: &Bitset) {
        self.check(other);
        combine_assign(&mut self.words, &other.words, |a, b| a & b);
    }

    /// In-place `self ∪= other`.
    pub fn or_assign(&mut self, other: &Bitset) {
        self.check(other);
        combine_assign(&mut self.words, &other.words, |a, b| a | b);
    }

    /// In-place `self \= other`.
    pub fn and_not_assign(&mut self, other: &Bitset) {
        self.check(other);
        combine_assign(&mut self.words, &other.words, |a, b| a & !b);
    }

    /// Writes `self \ other` into `out` and returns `|self \ other|`, in
    /// one pass — ISKR's delta-set computation, which previously copied,
    /// subtracted and then re-counted in three sweeps.
    pub fn and_not_count_into(&self, other: &Bitset, out: &mut Bitset) -> usize {
        self.check(other);
        self.check(out);
        combine_count_into(&self.words, &other.words, &mut out.words, |a, b| a & !b)
    }

    /// `|self ∩ other|` without materialising the intersection.
    pub fn intersect_count(&self, other: &Bitset) -> usize {
        self.check(other);
        combine_count(&self.words, &other.words, |a, b| a & b)
    }

    /// `|self \ other|` without materialising the difference.
    pub fn and_not_count(&self, other: &Bitset) -> usize {
        self.check(other);
        combine_count(&self.words, &other.words, |a, b| a & !b)
    }

    /// Whether `self ∩ other` is non-empty, short-circuiting at the first
    /// deciding chunk.
    pub fn intersects(&self, other: &Bitset) -> bool {
        self.check(other);
        combine_any(&self.words, &other.words, |a, b| a & b)
    }

    /// Sum of `weights[i]` over members `i`. `weights.len()` must equal
    /// the universe size. This is the paper's `S(·)` on a result set.
    pub fn weighted_sum(&self, weights: &[f64]) -> f64 {
        debug_assert_eq!(weights.len(), self.universe);
        let mut acc = 0.0;
        for (wi, &word) in self.words.iter().enumerate() {
            acc += weigh_word(word, wi, weights);
        }
        acc
    }

    /// Sum of `weights[i]` over members of `self ∩ other`, fused to avoid
    /// a temporary (ISKR's hottest operation shape).
    pub fn weighted_sum_and(&self, other: &Bitset, weights: &[f64]) -> f64 {
        self.check(other);
        debug_assert_eq!(weights.len(), self.universe);
        let mut acc = 0.0;
        for (wi, (&a, &b)) in self.words.iter().zip(&other.words).enumerate() {
            acc += weigh_word(a & b, wi, weights);
        }
        acc
    }

    /// `(S(self), S(self ∩ c))` in one pass over the words — a quality
    /// valuation (`S(R)` and `S(R ∩ C)` feed precision and recall) costs
    /// one sweep instead of two.
    pub fn weighted_sum_split(&self, c: &Bitset, weights: &[f64]) -> (f64, f64) {
        self.check(c);
        debug_assert_eq!(weights.len(), self.universe);
        let (mut total, mut inter) = (0.0, 0.0);
        for (wi, (&x, &z)) in self.words.iter().zip(&c.words).enumerate() {
            let mut w = x;
            while w != 0 {
                let bit = w.trailing_zeros();
                let wt = weights[wi * 64 + bit as usize];
                total += wt;
                if z & (1u64 << bit) != 0 {
                    inter += wt;
                }
                w &= w - 1;
            }
        }
        (total, inter)
    }

    /// `(S(self ∩ b), S(self ∩ b ∩ c))` in one pass — the exact-ΔF add
    /// valuation (`S(R ∩ contains(k))` and `S(R ∩ contains(k) ∩ C)`) with
    /// no candidate result set materialised and no second word sweep.
    pub fn weighted_sum_and_split(&self, b: &Bitset, c: &Bitset, weights: &[f64]) -> (f64, f64) {
        self.check(b);
        self.check(c);
        debug_assert_eq!(weights.len(), self.universe);
        let (mut total, mut inter) = (0.0, 0.0);
        for (wi, ((&x, &y), &z)) in self.words.iter().zip(&b.words).zip(&c.words).enumerate() {
            let mut w = x & y;
            while w != 0 {
                let bit = w.trailing_zeros();
                let wt = weights[wi * 64 + bit as usize];
                total += wt;
                if z & (1u64 << bit) != 0 {
                    inter += wt;
                }
                w &= w - 1;
            }
        }
        (total, inter)
    }

    /// Sum of `weights[i]` over members of `self ∩ ¬minus ∩ and` — the
    /// three-operand fusion behind every ISKR move valuation:
    /// `S(R(q) ∩ E(k) ∩ C)` is `r.weighted_sum_and_not_and(contains, c, w)`,
    /// with no delta set ever materialised.
    pub fn weighted_sum_and_not_and(&self, minus: &Bitset, and: &Bitset, weights: &[f64]) -> f64 {
        self.check(minus);
        self.check(and);
        debug_assert_eq!(weights.len(), self.universe);
        let mut acc = 0.0;
        for (wi, ((&a, &m), &c)) in self
            .words
            .iter()
            .zip(&minus.words)
            .zip(&and.words)
            .enumerate()
        {
            acc += weigh_word(a & !m & c, wi, weights);
        }
        acc
    }

    /// Number of members strictly below `i` (the classic `rank` query;
    /// `i` may equal the universe size, giving `len()`). Chunked popcount
    /// over the whole prefix — use a [`RankIndex`] for repeated queries
    /// against a set that is not changing.
    pub fn rank(&self, i: usize) -> usize {
        assert!(
            i <= self.universe,
            "rank({i}) beyond universe {}",
            self.universe
        );
        let full_words = i / 64;
        let mut count: usize = self.words[..full_words]
            .iter()
            .map(|w| w.count_ones() as usize)
            .sum();
        let rem = i % 64;
        if rem != 0 {
            count += (self.words[full_words] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        count
    }

    /// Index of the `n`-th member in ascending order (0-based), or `None`
    /// when the set has `≤ n` members. The inverse of [`rank`](Self::rank):
    /// `select(rank(m)) == Some(m)` for every member `m`.
    pub fn select(&self, n: usize) -> Option<usize> {
        let mut remaining = n;
        for (wi, &word) in self.words.iter().enumerate() {
            let ones = word.count_ones() as usize;
            if remaining < ones {
                return Some(wi * 64 + select_in_word(word, remaining as u32) as usize);
            }
            remaining -= ones;
        }
        None
    }

    /// Iterates over member indices in ascending order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words
            .iter()
            .enumerate()
            .flat_map(|(wi, &word)| BitIter {
                word,
                base: wi * 64,
            })
    }

    /// Iterates over member indices `≥ start` in ascending order — the
    /// pagination companion of [`select`](Self::select): jump to a page's
    /// first member with `select(offset)` (or a [`RankIndex`]), then
    /// stream the page from there without rescanning the prefix.
    pub fn iter_from(&self, start: usize) -> impl Iterator<Item = usize> + '_ {
        let first = (start / 64).min(self.words.len());
        let mask = match start % 64 {
            0 => !0u64,
            rem => !((1u64 << rem) - 1),
        };
        self.words[first..]
            .iter()
            .enumerate()
            .flat_map(move |(wi, &word)| {
                let word = if wi == 0 { word & mask } else { word };
                BitIter {
                    word,
                    base: (first + wi) * 64,
                }
            })
    }

    /// Members collected into a vector.
    pub fn to_vec(&self) -> Vec<usize> {
        self.iter().collect()
    }

    #[inline]
    fn check(&self, other: &Bitset) {
        assert_eq!(
            self.universe, other.universe,
            "bitset universe mismatch: {} vs {}",
            self.universe, other.universe
        );
    }
}

/// Sum of `weights` over the set bits of one word.
#[inline(always)]
fn weigh_word(word: u64, wi: usize, weights: &[f64]) -> f64 {
    let mut w = word;
    let mut acc = 0.0;
    while w != 0 {
        let bit = w.trailing_zeros() as usize;
        acc += weights[wi * 64 + bit];
        w &= w - 1;
    }
    acc
}

/// Position (0–63) of the `n`-th set bit of `w`; `n` must be below
/// `w.count_ones()`.
#[inline(always)]
fn select_in_word(mut w: u64, n: u32) -> u32 {
    debug_assert!(n < w.count_ones());
    for _ in 0..n {
        w &= w - 1;
    }
    w.trailing_zeros()
}

/// `a[i] = op(a[i], b[i])`, chunk-unrolled.
#[inline(always)]
fn combine_assign(a: &mut [u64], b: &[u64], op: impl Fn(u64, u64) -> u64 + Copy) {
    debug_assert_eq!(a.len(), b.len());
    let (ac, at) = a.as_chunks_mut::<CHUNK>();
    let (bc, bt) = b.as_chunks::<CHUNK>();
    for (x, y) in ac.iter_mut().zip(bc) {
        x[0] = op(x[0], y[0]);
        x[1] = op(x[1], y[1]);
        x[2] = op(x[2], y[2]);
        x[3] = op(x[3], y[3]);
    }
    for (x, &y) in at.iter_mut().zip(bt) {
        *x = op(*x, y);
    }
}

/// `out[i] = op(a[i], b[i])` plus the total popcount, in one fused pass
/// (the reference pattern it replaces is combine, then a second counting
/// sweep). The single flat loop both autovectorizes and keeps one memory
/// pass instead of two.
#[inline(always)]
fn combine_count_into(
    a: &[u64],
    b: &[u64],
    out: &mut [u64],
    op: impl Fn(u64, u64) -> u64 + Copy,
) -> usize {
    debug_assert!(a.len() == b.len() && a.len() == out.len());
    let mut count = 0usize;
    for ((o, &x), &y) in out.iter_mut().zip(a).zip(b) {
        let w = op(x, y);
        *o = w;
        count += w.count_ones() as usize;
    }
    count
}

/// Total popcount of `op(a[i], b[i])` without writing the result. A flat
/// zip autovectorizes best here (LLVM builds its own vector partial-sum
/// accumulators; a manual chunk/accumulator split measured *slower* —
/// `bench_bitset` guards the choice).
#[inline(always)]
fn combine_count(a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64 + Copy) -> usize {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| op(x, y).count_ones() as usize)
        .sum()
}

/// Whether any `op(a[i], b[i])` is non-zero, short-circuiting per chunk.
#[inline(always)]
fn combine_any(a: &[u64], b: &[u64], op: impl Fn(u64, u64) -> u64 + Copy) -> bool {
    debug_assert_eq!(a.len(), b.len());
    let (ac, at) = a.as_chunks::<CHUNK>();
    let (bc, bt) = b.as_chunks::<CHUNK>();
    for (x, y) in ac.iter().zip(bc) {
        if op(x[0], y[0]) | op(x[1], y[1]) | op(x[2], y[2]) | op(x[3], y[3]) != 0 {
            return true;
        }
    }
    at.iter().zip(bt).any(|(&x, &y)| op(x, y) != 0)
}

/// Iterator over the set bits of one word.
struct BitIter {
    word: u64,
    base: usize,
}

impl Iterator for BitIter {
    type Item = usize;

    #[inline]
    fn next(&mut self) -> Option<usize> {
        if self.word == 0 {
            return None;
        }
        let bit = self.word.trailing_zeros() as usize;
        self.word &= self.word - 1;
        Some(self.base + bit)
    }
}

/// A cached-popcount sidecar accelerating repeated [`Bitset::rank`] /
/// [`Bitset::select`] queries against a set that is **not changing**
/// between queries (the top-k and member-list access pattern: freeze the
/// set once, answer many positional queries).
///
/// The sidecar stores the cumulative popcount before every
/// [`RANK_BLOCK_WORDS`]-word block, so a rank touches at most one block of
/// words and a select binary-searches the block table then scans one
/// block. It does **not** borrow the bitset: callers pass the same set to
/// every query and must [`rebuild`](Self::rebuild) after **any** mutation.
/// Debug builds cheaply cross-check the total popcounts as a tripwire,
/// but a count-preserving mutation (remove one bit, insert another)
/// evades it — staying rebuilt is the caller's contract, not something
/// the sidecar can fully verify.
#[derive(Debug, Clone, Default)]
pub struct RankIndex {
    /// `blocks[k]` = number of members before word `k · RANK_BLOCK_WORDS`;
    /// the last entry is the total population count.
    blocks: Vec<u32>,
}

impl RankIndex {
    /// An empty sidecar; feed it a set with [`rebuild`](Self::rebuild).
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the sidecar for `bits`.
    pub fn build(bits: &Bitset) -> Self {
        let mut s = Self::new();
        s.rebuild(bits);
        s
    }

    /// Recomputes the block table for `bits`, reusing the buffer — the
    /// allocation-free refresh path for reused sidecars.
    pub fn rebuild(&mut self, bits: &Bitset) {
        let words = bits.as_words();
        self.blocks.clear();
        self.blocks.reserve(words.len() / RANK_BLOCK_WORDS + 2);
        let mut cum = 0u32;
        self.blocks.push(0);
        for block in words.chunks(RANK_BLOCK_WORDS) {
            cum += block.iter().map(|w| w.count_ones()).sum::<u32>();
            self.blocks.push(cum);
        }
    }

    /// Total members of the indexed set.
    pub fn ones(&self) -> usize {
        self.blocks.last().copied().unwrap_or(0) as usize
    }

    /// Heap footprint of the block table in bytes.
    pub fn heap_bytes(&self) -> usize {
        self.blocks.capacity() * std::mem::size_of::<u32>()
    }

    /// [`Bitset::rank`] through the cached blocks: `O(RANK_BLOCK_WORDS)`
    /// instead of a full prefix scan. `bits` must be the set the sidecar
    /// was (re)built for.
    pub fn rank(&self, bits: &Bitset, i: usize) -> usize {
        debug_assert_eq!(self.ones(), bits.len(), "RankIndex out of sync");
        assert!(
            i <= bits.universe(),
            "rank({i}) beyond universe {}",
            bits.universe()
        );
        let words = bits.as_words();
        let full_words = i / 64;
        let block = full_words / RANK_BLOCK_WORDS;
        let mut count = self.blocks[block] as usize;
        for &w in &words[block * RANK_BLOCK_WORDS..full_words] {
            count += w.count_ones() as usize;
        }
        let rem = i % 64;
        if rem != 0 {
            count += (words[full_words] & ((1u64 << rem) - 1)).count_ones() as usize;
        }
        count
    }

    /// [`Bitset::select`] through the cached blocks: binary search over the
    /// block table, then a scan of at most one block. `bits` must be the
    /// set the sidecar was (re)built for.
    pub fn select(&self, bits: &Bitset, n: usize) -> Option<usize> {
        debug_assert_eq!(self.ones(), bits.len(), "RankIndex out of sync");
        if n >= self.ones() {
            return None;
        }
        // Last block whose cumulative count is ≤ n holds the n-th member.
        let block = self.blocks.partition_point(|&c| c as usize <= n) - 1;
        let words = bits.as_words();
        let mut remaining = n - self.blocks[block] as usize;
        let start = block * RANK_BLOCK_WORDS;
        for (wi, &word) in words[start..].iter().enumerate() {
            let ones = word.count_ones() as usize;
            if remaining < ones {
                return Some((start + wi) * 64 + select_in_word(word, remaining as u32) as usize);
            }
            remaining -= ones;
        }
        unreachable!("n < ones() guarantees a member in range")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_full() {
        let e = Bitset::empty(70);
        assert_eq!(e.len(), 0);
        assert!(e.is_empty());
        let f = Bitset::full(70);
        assert_eq!(f.len(), 70);
        assert!(f.contains(0) && f.contains(69));
        // No stray bits beyond the universe.
        assert_eq!(f.iter().max(), Some(69));
    }

    #[test]
    fn full_at_word_boundaries() {
        for n in [0, 1, 63, 64, 65, 127, 128, 129, 255, 256, 257] {
            let f = Bitset::full(n);
            assert_eq!(f.len(), n, "universe {n}");
            assert_eq!(f.iter().count(), n);
        }
    }

    #[test]
    fn insert_remove_contains() {
        let mut s = Bitset::empty(100);
        s.insert(0);
        s.insert(64);
        s.insert(99);
        assert!(s.contains(0) && s.contains(64) && s.contains(99));
        assert!(!s.contains(1));
        s.remove(64);
        assert!(!s.contains(64));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn set_algebra() {
        let a = Bitset::from_indices(10, [1, 2, 3, 7]);
        let b = Bitset::from_indices(10, [2, 3, 4]);
        assert_eq!(a.and(&b).to_vec(), vec![2, 3]);
        assert_eq!(a.or(&b).to_vec(), vec![1, 2, 3, 4, 7]);
        assert_eq!(a.and_not(&b).to_vec(), vec![1, 7]);
        assert_eq!(a.intersect_count(&b), 2);
        assert!(a.intersects(&b));
    }

    #[test]
    fn in_place_variants_match_pure_ones() {
        let a = Bitset::from_indices(300, (0..300).step_by(3));
        let b = Bitset::from_indices(300, (0..300).step_by(5));
        let mut x = a.clone();
        x.and_assign(&b);
        assert_eq!(x, a.and(&b));
        let mut y = a.clone();
        y.or_assign(&b);
        assert_eq!(y, a.or(&b));
        let mut z = a.clone();
        z.and_not_assign(&b);
        assert_eq!(z, a.and_not(&b));
    }

    #[test]
    fn fused_count_into_matches_two_pass() {
        let a = Bitset::from_indices(517, (0..517).step_by(2));
        let b = Bitset::from_indices(517, (0..517).step_by(3));
        let mut out = Bitset::empty(517);
        assert_eq!(a.and_not_count_into(&b, &mut out), a.and_not(&b).len());
        assert_eq!(out, a.and_not(&b));
    }

    #[test]
    fn counting_ops_match_materialised_sets() {
        let a = Bitset::from_indices(130, [0, 5, 64, 100, 129]);
        let b = Bitset::from_indices(130, [5, 64, 128]);
        assert_eq!(a.intersect_count(&b), a.and(&b).len());
        assert_eq!(a.and_not_count(&b), a.and_not(&b).len());
    }

    #[test]
    fn weighted_sum_matches_naive() {
        let weights: Vec<f64> = (0..100).map(|i| i as f64 * 0.5).collect();
        let s = Bitset::from_indices(100, [0, 10, 63, 64, 99]);
        let naive: f64 = s.iter().map(|i| weights[i]).sum();
        assert!((s.weighted_sum(&weights) - naive).abs() < 1e-12);
    }

    #[test]
    fn weighted_fusions_match_unfused() {
        let weights: Vec<f64> = (0..200).map(|i| (i % 13) as f64 + 0.25).collect();
        let a = Bitset::from_indices(200, (0..200).step_by(3));
        let m = Bitset::from_indices(200, (0..200).step_by(5));
        let c = Bitset::from_indices(200, (0..200).step_by(2));
        let two = a.weighted_sum_and(&m, &weights);
        assert!((two - a.and(&m).weighted_sum(&weights)).abs() < 1e-12);
        let (total, inter) = a.weighted_sum_split(&c, &weights);
        assert!((total - a.weighted_sum(&weights)).abs() < 1e-12);
        assert!((inter - a.and(&c).weighted_sum(&weights)).abs() < 1e-12);
        let (total, inter) = a.weighted_sum_and_split(&m, &c, &weights);
        assert!((total - a.and(&m).weighted_sum(&weights)).abs() < 1e-12);
        assert!((inter - a.and(&m).and(&c).weighted_sum(&weights)).abs() < 1e-12);
        let fused = a.weighted_sum_and_not_and(&m, &c, &weights);
        assert!((fused - a.and_not(&m).and(&c).weighted_sum(&weights)).abs() < 1e-12);
    }

    #[test]
    fn iter_from_matches_filtered_iter() {
        let s = Bitset::from_indices(200, (0..200).filter(|i| i % 7 == 3 || i % 31 == 0));
        for start in [0, 1, 3, 63, 64, 65, 128, 199, 200] {
            let want: Vec<usize> = s.iter().filter(|&i| i >= start).collect();
            let got: Vec<usize> = s.iter_from(start).collect();
            assert_eq!(got, want, "start = {start}");
        }
        assert_eq!(Bitset::empty(64).iter_from(10).count(), 0);
    }

    #[test]
    fn rank_select_roundtrip() {
        let s = Bitset::from_indices(300, [0, 1, 63, 64, 65, 128, 200, 299]);
        assert_eq!(s.rank(0), 0);
        assert_eq!(s.rank(1), 1);
        assert_eq!(s.rank(64), 3);
        assert_eq!(s.rank(300), s.len());
        for (n, m) in s.iter().enumerate() {
            assert_eq!(s.select(n), Some(m), "select({n})");
            assert_eq!(s.rank(m), n, "rank({m})");
        }
        assert_eq!(s.select(s.len()), None);
        assert_eq!(Bitset::empty(10).select(0), None);
    }

    #[test]
    fn rank_index_agrees_with_direct_queries() {
        let s = Bitset::from_indices(3000, (0..3000).filter(|i| i % 7 == 0 || i % 11 == 3));
        let idx = RankIndex::build(&s);
        assert_eq!(idx.ones(), s.len());
        for i in (0..=3000).step_by(13) {
            assert_eq!(idx.rank(&s, i), s.rank(i), "rank({i})");
        }
        for n in (0..s.len()).step_by(17) {
            assert_eq!(idx.select(&s, n), s.select(n), "select({n})");
        }
        assert_eq!(idx.select(&s, s.len()), None);
    }

    #[test]
    fn rank_index_rebuild_reuses_buffer() {
        let a = Bitset::from_indices(1000, (0..1000).step_by(2));
        let b = Bitset::from_indices(1000, (0..1000).step_by(9));
        let mut idx = RankIndex::build(&a);
        assert_eq!(idx.ones(), 500);
        idx.rebuild(&b);
        assert_eq!(idx.ones(), b.len());
        assert_eq!(idx.select(&b, 3), Some(27));
        assert!(idx.heap_bytes() > 0);
    }

    #[test]
    fn copy_clear_set_full_reset_in_place() {
        let a = Bitset::from_indices(70, [1, 69]);
        let mut s = Bitset::empty(70);
        s.copy_from(&a);
        assert_eq!(s, a);
        s.set_full();
        assert_eq!(s, Bitset::full(70));
        assert_eq!(s.iter().max(), Some(69), "no tail bits past the universe");
        s.clear();
        assert!(s.is_empty());
        s.reset(40);
        assert_eq!(s.universe(), 40);
        assert!(s.is_empty());
        s.insert(39);
        s.reset(70);
        assert!(s.is_empty(), "reset clears previous members");
    }

    #[test]
    fn clone_from_reuses_and_matches() {
        let a = Bitset::from_indices(500, (0..500).step_by(4));
        let mut s = Bitset::empty(500);
        s.clone_from(&a);
        assert_eq!(s, a);
        assert!(s.heap_bytes() >= 500usize.div_ceil(64) * 8);
    }

    #[test]
    fn iter_is_ascending() {
        let s = Bitset::from_indices(200, [150, 3, 64, 199, 0]);
        assert_eq!(s.to_vec(), vec![0, 3, 64, 150, 199]);
    }

    #[test]
    #[should_panic(expected = "universe mismatch")]
    fn mismatched_universes_panic() {
        let a = Bitset::empty(10);
        let b = Bitset::empty(11);
        let _ = a.and(&b);
    }

    #[test]
    fn zero_universe() {
        let s = Bitset::empty(0);
        assert_eq!(s.len(), 0);
        assert_eq!(Bitset::full(0).len(), 0);
        assert_eq!(s.weighted_sum(&[]), 0.0);
        assert_eq!(s.rank(0), 0);
        assert_eq!(s.select(0), None);
        let idx = RankIndex::build(&s);
        assert_eq!(idx.ones(), 0);
        assert_eq!(idx.select(&s, 0), None);
    }
}
