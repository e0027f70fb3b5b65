//! Hybrid posting representations and the set kernels over them.
//!
//! A term's posting list is stored in one of two document-id
//! representations, chosen by density at freeze time:
//!
//! * **sorted ids** (`Vec<DocId>`) for low-df terms — compact, cache-dense
//!   (no interleaved term frequencies), and gallopable;
//! * **dense bitmap** ([`DocBitmap`] over the document universe) for terms
//!   whose document frequency exceeds one id per machine word
//!   (`df · 64 ≥ N`) — at that density the bitmap is no larger than the id
//!   vector and every set operation becomes word-parallel.
//!
//! The crossover follows the classic hybrid-index rule (and NeedleTail's
//! observation that representation, not algorithm, dominates retrieval
//! latency once lists are dense): a bitmap costs `N/64` words regardless of
//! df, so it wins exactly when `df ≥ N/64`.
//!
//! Three intersection kernels cover the cases an AND query meets:
//!
//! * sorted ∧ sorted — **adaptive**: a linear merge when the lengths are
//!   within [`GALLOP_RATIO`] of each other, an exponential-probe gallop
//!   driven by the shorter list when they are not (the gallop is
//!   `O(m · log(n/m))`, which beats `O(m + n)` precisely when `n ≫ m`);
//! * sorted ∧ bitmap — one `O(1)` bitmap probe per id;
//! * bitmap ∧ bitmap — word-wise AND.
//!
//! All kernels write into caller-supplied buffers so query loops can run
//! allocation-free.

use crate::doc::DocId;
use qec_bitset::Bitset;

/// Length ratio above which the sorted∧sorted kernel switches from the
/// linear merge to galloping. 8 is the empirical crossover for u32 keys:
/// below it the branch-predictable merge wins, above it the probe count
/// `m·log₂(n/m)` undercuts `m + n`.
pub const GALLOP_RATIO: usize = 8;

/// A dense bitmap over the corpus document universe: a [`DocId`]-typed
/// view over the shared [`qec_bitset::Bitset`] kernels (the same chunked,
/// autovectorizable word ops `qec-core`'s `ResultSet` runs on — the
/// word-loop duplication the ROADMAP tracked is gone).
#[derive(Debug, PartialEq, Eq)]
pub struct DocBitmap(Bitset);

impl Clone for DocBitmap {
    fn clone(&self) -> Self {
        Self(self.0.clone())
    }

    /// Manual impl because the derive would not forward `clone_from`, and
    /// the default `*self = source.clone()` re-allocates the word buffer —
    /// `Bitset::clone_from` reuses it, which the warmed allocation-free
    /// search paths rely on.
    fn clone_from(&mut self, source: &Self) {
        self.0.clone_from(&source.0);
    }
}

impl DocBitmap {
    /// An empty bitmap over `num_docs` documents.
    pub fn empty(num_docs: usize) -> Self {
        Self(Bitset::empty(num_docs))
    }

    /// Builds from ascending doc ids (each `< num_docs`).
    #[cfg(test)]
    fn from_sorted_ids(num_docs: usize, ids: &[DocId]) -> Self {
        let mut b = Self::empty(num_docs);
        for &d in ids {
            b.insert(d);
        }
        b
    }

    /// The underlying universe bitset.
    #[inline]
    pub fn as_bitset(&self) -> &Bitset {
        &self.0
    }

    /// Adds a document.
    #[inline]
    pub fn insert(&mut self, doc: DocId) {
        self.0.insert(doc.index());
    }

    /// Membership probe (out-of-universe ids read as absent).
    #[inline]
    pub fn contains(&self, doc: DocId) -> bool {
        let i = doc.index();
        i < self.0.universe() && self.0.contains(i)
    }

    /// Number of documents in the bitmap.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether no document is set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Size of the document universe.
    #[inline]
    pub fn num_docs(&self) -> usize {
        self.0.universe()
    }

    /// Heap footprint of the word buffer in bytes.
    #[inline]
    pub fn heap_bytes(&self) -> usize {
        self.0.heap_bytes()
    }

    /// In-place `self ∩= other` (must share the universe).
    pub fn and_assign(&mut self, other: &DocBitmap) {
        self.0.and_assign(&other.0);
    }

    /// Empties the bitmap and re-targets it to a `num_docs` universe,
    /// reusing the word buffer when the size allows.
    pub fn reset(&mut self, num_docs: usize) {
        self.0.reset(num_docs);
    }

    /// In-place `self ∪= other` (must share the universe).
    pub fn or_assign(&mut self, other: &DocBitmap) {
        self.0.or_assign(&other.0);
    }

    /// Appends the members in ascending order to `out`.
    pub fn decode_into(&self, out: &mut Vec<DocId>) {
        out.extend(self.0.iter().map(|i| DocId(i as u32)));
    }
}

/// Borrowed view of one term's document set, in whichever representation
/// the index froze it to.
#[derive(Debug, Clone, Copy)]
pub enum PostingsView<'a> {
    /// Sorted ascending doc ids (low-df representation).
    Sorted(&'a [DocId]),
    /// Dense bitmap (high-df representation).
    Bitmap(&'a DocBitmap),
}

impl PostingsView<'_> {
    /// Document frequency of the viewed term.
    pub fn len(&self) -> usize {
        match self {
            PostingsView::Sorted(ids) => ids.len(),
            PostingsView::Bitmap(b) => b.len(),
        }
    }

    /// Whether the term occurs nowhere.
    pub fn is_empty(&self) -> bool {
        match self {
            PostingsView::Sorted(ids) => ids.is_empty(),
            PostingsView::Bitmap(b) => b.is_empty(),
        }
    }
}

/// Sorted∧sorted intersection, adaptive between linear merge and galloping.
/// Appends `a ∩ b` to `out` (which is cleared first). Either order of
/// arguments gives identical output.
pub fn intersect_sorted_into(a: &[DocId], b: &[DocId], out: &mut Vec<DocId>) {
    out.clear();
    // Drive from the shorter list.
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if small.is_empty() {
        return;
    }
    if large.len() / small.len() < GALLOP_RATIO {
        linear_intersect(small, large, out);
    } else {
        gallop_intersect(small, large, out);
    }
}

/// Classic two-pointer merge intersection — optimal when lengths are close.
fn linear_intersect(a: &[DocId], b: &[DocId], out: &mut Vec<DocId>) {
    let (mut i, mut j) = (0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
}

/// Galloping intersection: for each id of the short list, exponential-probe
/// the long list from the last match position, then binary-search inside
/// the bracketed window. `O(|small| · log(|large|/|small|))`.
fn gallop_intersect(small: &[DocId], large: &[DocId], out: &mut Vec<DocId>) {
    let mut base = 0;
    for &x in small {
        base += gallop_seek(&large[base..], x);
        if base == large.len() {
            return;
        }
        if large[base] == x {
            out.push(x);
            base += 1;
        }
    }
}

/// Index of the first element of `list` that is `≥ x` (i.e. `list.len()`
/// when all are smaller), found by doubling probes then binary search.
fn gallop_seek(list: &[DocId], x: DocId) -> usize {
    if list.first().is_none_or(|&f| f >= x) {
        return 0;
    }
    // Invariant: list[lo] < x. Double until list[hi] >= x or off the end.
    let mut lo = 0;
    let mut step = 1;
    loop {
        let hi = lo + step;
        if hi >= list.len() {
            return lo + 1 + partition_point_ge(&list[lo + 1..], x);
        }
        if list[hi] >= x {
            return lo + 1 + partition_point_ge(&list[lo + 1..hi + 1], x);
        }
        lo = hi;
        step *= 2;
    }
}

/// First index of `window` whose value is `≥ x` (binary search).
#[inline]
fn partition_point_ge(window: &[DocId], x: DocId) -> usize {
    window.partition_point(|&v| v < x)
}

/// Sorted∧bitmap intersection: filters `ids` in place, keeping only
/// members of `bitmap` (one probe per id, no allocation).
pub fn retain_in_bitmap(ids: &mut Vec<DocId>, bitmap: &DocBitmap) {
    ids.retain(|&d| bitmap.contains(d));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<DocId> {
        v.iter().map(|&i| DocId(i)).collect()
    }

    fn naive(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    #[test]
    fn bitmap_roundtrip() {
        let members = ids(&[0, 63, 64, 100, 199]);
        let b = DocBitmap::from_sorted_ids(200, &members);
        assert_eq!(b.len(), 5);
        assert!(b.contains(DocId(64)));
        assert!(!b.contains(DocId(65)));
        assert!(!b.contains(DocId(10_000)), "out-of-universe probe is false");
        let mut out = Vec::new();
        b.decode_into(&mut out);
        assert_eq!(out, members);
    }

    #[test]
    fn bitmap_and_assign() {
        let a = DocBitmap::from_sorted_ids(130, &ids(&[1, 64, 128, 129]));
        let b = DocBitmap::from_sorted_ids(130, &ids(&[64, 100, 129]));
        let mut x = a.clone();
        x.and_assign(&b);
        let mut out = Vec::new();
        x.decode_into(&mut out);
        assert_eq!(out, ids(&[64, 129]));
    }

    #[test]
    fn linear_and_gallop_agree_with_naive() {
        // Short list vs variously skewed long lists so both kernels fire.
        let small = ids(&[3, 40, 41, 900, 5000, 5001]);
        for stride in [1usize, 2, 7, 13] {
            let large: Vec<DocId> = (0..6000).step_by(stride).map(|i| DocId(i as u32)).collect();
            let mut out = Vec::new();
            intersect_sorted_into(&small, &large, &mut out);
            assert_eq!(out, naive(&small, &large), "stride {stride}");
            // Argument order must not matter.
            let mut flipped = Vec::new();
            intersect_sorted_into(&large, &small, &mut flipped);
            assert_eq!(flipped, out);
        }
    }

    #[test]
    fn gallop_handles_boundaries() {
        // Matches at the very start, very end, and past-the-end seeks.
        let small = ids(&[0, 999]);
        let large: Vec<DocId> = (0..1000).map(DocId).collect();
        let mut out = Vec::new();
        intersect_sorted_into(&small, &large, &mut out);
        assert_eq!(out, ids(&[0, 999]));

        let nothing = ids(&[2000, 3000]);
        intersect_sorted_into(&nothing, &large, &mut out);
        assert!(out.is_empty());

        intersect_sorted_into(&[], &large, &mut out);
        assert!(out.is_empty());
    }

    #[test]
    fn gallop_seek_points_at_first_ge() {
        let list = ids(&[10, 20, 30, 40, 50, 60, 70, 80, 90]);
        assert_eq!(gallop_seek(&list, DocId(5)), 0);
        assert_eq!(gallop_seek(&list, DocId(10)), 0);
        assert_eq!(gallop_seek(&list, DocId(11)), 1);
        assert_eq!(gallop_seek(&list, DocId(55)), 5);
        assert_eq!(gallop_seek(&list, DocId(90)), 8);
        assert_eq!(gallop_seek(&list, DocId(91)), 9);
    }

    #[test]
    fn sorted_bitmap_intersection() {
        let list = ids(&[1, 5, 64, 70, 129]);
        let bitmap = DocBitmap::from_sorted_ids(130, &ids(&[5, 64, 128, 129]));
        let mut retained = list.clone();
        retain_in_bitmap(&mut retained, &bitmap);
        assert_eq!(retained, ids(&[5, 64, 129]));
    }
}
