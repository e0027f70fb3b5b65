//! The gather primitive of shard-partitioned serving:
//! [`MergeScratch`] / [`MergeScratch::merge_into`], a k-way merge of
//! per-shard sorted lists into one globally sorted prefix, with a reusable
//! cursor frontier so warmed gather paths stay allocation-free. (The
//! scatter itself is the sharded engine's own: per-replica tasks spawned
//! on the [`WorkerPool`](crate::pool::WorkerPool).)

/// Reusable cursor frontier for [`merge_into`](Self::merge_into). One
/// `usize` cursor per input list; the buffer is kept across calls so a
/// warmed gather path merges without allocating.
#[derive(Debug, Default)]
pub struct MergeScratch {
    cursors: Vec<usize>,
}

impl MergeScratch {
    /// An empty scratch (cursors grow on first use).
    pub fn new() -> Self {
        Self::default()
    }

    /// K-way merges the sorted `lists` into `out` (cleared first), keeping
    /// at most `limit` elements (`0` means all). `before(a, b)` must be a
    /// strict total order returning whether `a` sorts before `b`, and each
    /// input list must already be sorted by it.
    ///
    /// The merge is a linear frontier scan — O(k) per emitted element with
    /// zero allocations once warm — which beats a binary heap for the
    /// shard counts this system targets (k ≤ a few dozen). Ties cannot
    /// arise under a strict total order, but the scan breaks exact
    /// duplicates toward the lower list index, keeping the merge fully
    /// deterministic for any comparator.
    pub fn merge_into<T, F>(&mut self, lists: &[&[T]], before: F, limit: usize, out: &mut Vec<T>)
    where
        T: Copy,
        F: Fn(&T, &T) -> bool,
    {
        out.clear();
        self.cursors.clear();
        self.cursors.resize(lists.len(), 0);
        let limit = if limit == 0 { usize::MAX } else { limit };
        while out.len() < limit {
            let mut best: Option<(usize, T)> = None;
            for (i, list) in lists.iter().enumerate() {
                let Some(&candidate) = list.get(self.cursors[i]) else {
                    continue;
                };
                match best {
                    Some((_, incumbent)) if !before(&candidate, &incumbent) => {}
                    _ => best = Some((i, candidate)),
                }
            }
            let Some((i, winner)) = best else { break };
            self.cursors[i] += 1;
            out.push(winner);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ascending(a: &u32, b: &u32) -> bool {
        a < b
    }

    #[test]
    fn merge_matches_sorted_concatenation() {
        let lists: [&[u32]; 3] = [&[1, 4, 7, 9], &[2, 3, 8], &[5, 6]];
        let mut scratch = MergeScratch::new();
        let mut out = Vec::new();
        scratch.merge_into(&lists, ascending, 0, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4, 5, 6, 7, 8, 9]);
    }

    #[test]
    fn merge_respects_limit_and_zero_means_all() {
        let lists: [&[u32]; 2] = [&[1, 3], &[2, 4]];
        let mut scratch = MergeScratch::new();
        let mut out = Vec::new();
        scratch.merge_into(&lists, ascending, 3, &mut out);
        assert_eq!(out, vec![1, 2, 3]);
        scratch.merge_into(&lists, ascending, 0, &mut out);
        assert_eq!(out, vec![1, 2, 3, 4]);
    }

    #[test]
    fn merge_handles_empty_inputs_and_reuse() {
        let mut scratch = MergeScratch::new();
        let mut out = vec![99];
        scratch.merge_into(&[] as &[&[u32]], ascending, 0, &mut out);
        assert!(out.is_empty());
        let lists: [&[u32]; 3] = [&[], &[5], &[]];
        scratch.merge_into(&lists, ascending, 0, &mut out);
        assert_eq!(out, vec![5]);
    }

    #[test]
    fn merge_duplicates_break_toward_lower_list_index() {
        // A non-strict comparator (duplicates across lists) still merges
        // deterministically: ties emit from the lower list first.
        let lists: [&[(u32, u32)]; 2] = [&[(1, 10)], &[(1, 20), (2, 21)]];
        let mut scratch = MergeScratch::new();
        let mut out = Vec::new();
        scratch.merge_into(&lists, |a, b| a.0 < b.0, 0, &mut out);
        assert_eq!(out, vec![(1, 10), (1, 20), (2, 21)]);
    }
}
