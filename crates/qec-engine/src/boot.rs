//! Snapshot-backed boot accounting.
//!
//! An engine can boot two ways: restore its frozen corpus from a
//! [`qec-snapshot`](qec_snapshot) file, or rebuild it in memory from the
//! builder's documents. Loading is strictly an optimization — **any**
//! snapshot failure (missing file, corruption, version skew, injected
//! fault) falls back to the in-memory rebuild, and the engine comes up
//! either way. [`BootStats`] records which path each corpus took so
//! operators can tell a warm boot from a silent cold one.

use std::path::Path;

/// How the engine's corpus came up: restored from snapshots, rebuilt in
/// memory, or fell back after a snapshot failed to load. Exposed through
/// `QecEngine::boot_stats` / `ShardedEngine::boot_stats`.
///
/// For a plain engine there is exactly one snapshot file, so the counters
/// sum to one. A sharded engine (more than one shard, or replicas) still
/// holds one corpus, stored as a snapshot set: its doc store and each
/// shard's posting segment count once each (replicas share their shard
/// and are not counted separately), so `snapshots_loaded + rebuilt_cold`
/// = 1 + shards. A set loads whole or not at all: when any file of it is
/// refused there is no per-shard fallback — the whole corpus is rebuilt
/// from the builder's documents, every part counts in `rebuilt_cold`,
/// and the one fallback's error names the refused file.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BootStats {
    /// Corpora restored from a snapshot file.
    pub snapshots_loaded: usize,
    /// Corpora rebuilt in memory (no snapshot registered, or fallback).
    pub rebuilt_cold: usize,
    /// Registered snapshots that failed to load; each also counts in
    /// [`rebuilt_cold`](Self::rebuilt_cold) because the fallback rebuilt
    /// the corpus.
    pub snapshot_fallbacks: usize,
    /// One line per fallback: the path and the typed
    /// [`SnapshotError`](qec_snapshot::SnapshotError) that rejected it.
    pub errors: Vec<String>,
}

impl BootStats {
    pub(crate) fn loaded(&mut self) {
        self.snapshots_loaded += 1;
    }

    pub(crate) fn cold(&mut self) {
        self.rebuilt_cold += 1;
    }

    pub(crate) fn fallback(&mut self, path: &Path, why: impl std::fmt::Display) {
        self.snapshot_fallbacks += 1;
        self.rebuilt_cold += 1;
        self.errors.push(format!("{}: {why}", path.display()));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_counts_both_ways_and_keeps_the_reason() {
        let mut boot = BootStats::default();
        boot.loaded();
        boot.fallback(Path::new("/tmp/x.qsnap"), "bad magic");
        assert_eq!(boot.snapshots_loaded, 1);
        assert_eq!(boot.rebuilt_cold, 1);
        assert_eq!(boot.snapshot_fallbacks, 1);
        assert!(boot.errors[0].contains("/tmp/x.qsnap"));
        assert!(boot.errors[0].contains("bad magic"));
    }
}
