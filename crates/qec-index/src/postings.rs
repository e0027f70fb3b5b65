//! The merge-join retrieval and ranking share, and the density rule.
//!
//! A term's posting list (`&[Posting]`, strictly ascending by document)
//! is its one document-id representation. AND retrieval narrows a
//! running result by it, OR retrieval merges it, and
//! `TfIdfRanker::rank_with_idf_into` scores through it. [`join`] is the
//! one kernel AND narrowing and ranking run: it pairs every element of an
//! ascending left side with the posting of the same document, choosing
//!
//! * a **linear** two-pointer merge when the lengths are within
//!   [`GALLOP_RATIO`] of each other;
//! * an exponential-probe **gallop** driven by the shorter side when they
//!   are not (`O(m · log(n/m))`, which beats `O(m + n)` precisely when
//!   `n ≫ m`): through the list when the left side is short, through the
//!   left side when the list is.
//!
//! Dense terms
//! -----------
//! A term whose df reaches one document per bitmap word (`df · 64 ≥ N`)
//! also carries a membership [`Bitset`] over the document universe
//! ([`dense_probe`]). AND retrieval narrows by it with one `O(1)` probe
//! per running id instead of walking the long list; nothing else reads
//! it. The probe is memory on top of the list: it costs `N/8` bytes
//! whatever the df, so at `df = N/64` it is as large as the 8-byte
//! postings and twice a `u32` id vector, and it shrinks relative to them
//! only as the term gets denser. It earns its place in the AND that
//! touches a dense term, where a join would walk a long list for a short
//! running result.
//!
//! The join writes nothing itself: its callback does, into
//! caller-supplied buffers, so query loops run allocation-free.
//!
//! Document ranges
//! ---------------
//! A posting list is sorted by document, so the postings of a document
//! range `[lo, hi)` are one contiguous run of it, found by two binary
//! searches ([`posting_span`]). A shard's retrieval joins and merges those runs
//! of the one global list; ranking joins only the run between its first
//! and last result.

use std::ops::Range;

use crate::doc::DocId;
use crate::inverted::Posting;
use crate::rank::Hit;
use qec_bitset::Bitset;

/// Length ratio above which retrieval's and ranking's merge-join
/// switches from the linear merge to galloping. 8 is the empirical crossover for u32 keys: below it the
/// branch-predictable merge wins, above it the probe count
/// `m·log₂(n/m)` undercuts `m + n`.
pub const GALLOP_RATIO: usize = 8;

/// An element keyed by the document it names: the left side of a
/// [`join`] (running result ids, ranked hits) and its right side
/// (postings).
pub(crate) trait ByDoc {
    /// The document this element names.
    fn doc(&self) -> DocId;
}

impl ByDoc for DocId {
    #[inline]
    fn doc(&self) -> DocId {
        *self
    }
}

impl ByDoc for Posting {
    #[inline]
    fn doc(&self) -> DocId {
        self.doc
    }
}

impl ByDoc for Hit {
    #[inline]
    fn doc(&self) -> DocId {
        self.doc
    }
}

/// The membership probe of a term with posting list `list` over
/// `num_docs` documents: `Some` exactly when the term is dense
/// (`df · 64 ≥ num_docs`).
pub(crate) fn dense_probe(num_docs: usize, list: &[Posting]) -> Option<Bitset> {
    (num_docs > 0 && list.len() * 64 >= num_docs)
        .then(|| Bitset::from_indices(num_docs, list.iter().map(|p| p.doc.index())))
}

/// The positions in `list` of the postings whose documents lie in
/// `docs`: the one definition of a document range's run of a list, for
/// retrieval, ranking and the snapshot writer.
pub fn posting_span(list: &[Posting], docs: Range<u32>) -> Range<usize> {
    let lo = list.partition_point(|p| p.doc.0 < docs.start);
    lo..lo + list[lo..].partition_point(|p| p.doc.0 < docs.end)
}

/// Calls `on_match(x, p)` for every `x` of `left` whose document has a
/// posting `p` in `list`, in ascending document order. Both sides must
/// ascend strictly by document. Each `x` is matched at most once, so a
/// caller that accumulates into `x` adds in the order it calls `join`.
pub(crate) fn join<T: ByDoc>(
    left: &mut [T],
    list: &[Posting],
    mut on_match: impl FnMut(&mut T, &Posting),
) {
    let (m, n) = (left.len(), list.len());
    if m == 0 || n == 0 {
        return;
    }
    if m.max(n) / m.min(n) < GALLOP_RATIO {
        let (mut i, mut j) = (0, 0);
        while i < m && j < n {
            match left[i].doc().cmp(&list[j].doc) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    on_match(&mut left[i], &list[j]);
                    i += 1;
                    j += 1;
                }
            }
        }
    } else if m < n {
        let mut base = 0;
        for x in left.iter_mut() {
            base += gallop_seek(&list[base..], x.doc());
            if base == n {
                return;
            }
            if list[base].doc == x.doc() {
                on_match(x, &list[base]);
                base += 1;
            }
        }
    } else {
        let mut base = 0;
        for p in list {
            base += gallop_seek(&left[base..], p.doc);
            if base == m {
                return;
            }
            if left[base].doc() == p.doc {
                on_match(&mut left[base], p);
                base += 1;
            }
        }
    }
}

/// Index of the first element of `list` whose document is `≥ x` (i.e.
/// `list.len()` when all are smaller), found by doubling probes then
/// binary search.
fn gallop_seek<T: ByDoc>(list: &[T], x: DocId) -> usize {
    if list.first().is_none_or(|f| f.doc() >= x) {
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
        if list[hi].doc() >= x {
            return lo + 1 + partition_point_ge(&list[lo + 1..hi + 1], x);
        }
        lo = hi;
        step *= 2;
    }
}

/// First index of `window` whose document is `≥ x` (binary search).
#[inline]
fn partition_point_ge<T: ByDoc>(window: &[T], x: DocId) -> usize {
    window.partition_point(|v| v.doc() < x)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u32]) -> Vec<DocId> {
        v.iter().map(|&i| DocId(i)).collect()
    }

    fn postings(docs: &[DocId]) -> Vec<Posting> {
        docs.iter().map(|&doc| Posting { doc, tf: 1 }).collect()
    }

    /// The ids of `left` that `list` also holds, through [`join`].
    fn join_ids(left: &[DocId], list: &[DocId]) -> Vec<DocId> {
        let mut left = left.to_vec();
        let mut out = Vec::new();
        join(&mut left, &postings(list), |&mut d, p| {
            assert_eq!(d, p.doc);
            out.push(d);
        });
        out
    }

    fn naive(a: &[DocId], b: &[DocId]) -> Vec<DocId> {
        a.iter().filter(|x| b.contains(x)).copied().collect()
    }

    #[test]
    fn posting_span_cuts_the_run_of_a_document_range() {
        let list = postings(&ids(&[2, 5, 9, 11, 30]));
        assert_eq!(posting_span(&list, 0..100), 0..5);
        assert_eq!(
            posting_span(&list, 5..11),
            1..3,
            "lo inclusive, hi exclusive"
        );
        assert_eq!(posting_span(&list, 6..9), 2..2, "no posting in range");
        assert_eq!(posting_span(&list, 31..40), 5..5);
        assert_eq!(posting_span(&[], 0..10), 0..0);
    }

    #[test]
    fn bitmap_roundtrip() {
        let members = ids(&[0, 63, 64, 100, 199]);
        let probe = dense_probe(200, &postings(&members)).expect("5 · 64 ≥ 200");
        assert_eq!(probe.len(), 5);
        assert!(probe.contains(64));
        assert!(!probe.contains(65));
        let read_back: Vec<DocId> = probe.iter().map(|i| DocId(i as u32)).collect();
        assert_eq!(read_back, members);
    }

    #[test]
    fn linear_and_gallop_agree_with_naive() {
        // Short list vs variously skewed long lists so every arm fires,
        // with each side as the left one.
        let small = ids(&[3, 40, 41, 900, 5000, 5001]);
        for stride in [1usize, 2, 7, 13, 900] {
            let large: Vec<DocId> = (0..6000).step_by(stride).map(|i| DocId(i as u32)).collect();
            let out = join_ids(&small, &large);
            assert_eq!(out, naive(&small, &large), "stride {stride}");
            assert_eq!(join_ids(&large, &small), out, "stride {stride}, flipped");
        }
    }

    #[test]
    fn gallop_handles_boundaries() {
        // Matches at the very start, very end, and past-the-end seeks.
        let small = ids(&[0, 999]);
        let large: Vec<DocId> = (0..1000).map(DocId).collect();
        assert_eq!(join_ids(&small, &large), ids(&[0, 999]));
        assert_eq!(join_ids(&large, &small), ids(&[0, 999]));

        let nothing = ids(&[2000, 3000]);
        assert!(join_ids(&nothing, &large).is_empty());
        assert!(join_ids(&large, &nothing).is_empty());
        assert!(join_ids(&[], &large).is_empty());
        assert!(join_ids(&large, &[]).is_empty());
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
        // The same seek over postings.
        assert_eq!(gallop_seek(&postings(&list), DocId(55)), 5);
    }

    #[test]
    fn sorted_bitmap_intersection() {
        let mut list = ids(&[1, 5, 64, 70, 129]);
        let probe = dense_probe(130, &postings(&ids(&[5, 64, 128, 129]))).expect("4 · 64 ≥ 130");
        list.retain(|d| probe.contains(d.index()));
        assert_eq!(list, ids(&[5, 64, 129]));
        // The rule's boundary: df · 64 = num_docs is dense, one fewer
        // document in the list is not.
        assert!(dense_probe(128, &postings(&ids(&[0, 127]))).is_some());
        assert!(dense_probe(129, &postings(&ids(&[0, 128]))).is_none());
        assert!(dense_probe(0, &[]).is_none(), "no documents, no probe");
    }
}
