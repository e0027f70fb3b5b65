//! Response digests: what "the same answer" means to every check here.

use qec_engine::{ClusterExpansion, ExpandResponse};

/// FNV-1a, 64 bit.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    pub fn finish(self) -> u64 {
        self.0
    }
}

/// Digest of everything a client can see in one response: per cluster the
/// member page, the added terms and the quality bits, in order.
pub fn clusters_digest(clusters: &[ClusterExpansion]) -> u64 {
    let mut h = Fnv::new();
    h.u64(clusters.len() as u64);
    for c in clusters {
        h.u64(c.docs.len() as u64);
        for d in &c.docs {
            h.u64(u64::from(d.0));
        }
        h.u64(c.added.len() as u64);
        for t in &c.added {
            h.u64(u64::from(t.0));
        }
        h.u64(c.quality.precision.to_bits());
        h.u64(c.quality.recall.to_bits());
        h.u64(c.quality.fmeasure.to_bits());
    }
    h.finish()
}

/// What a run keeps of one served response.
#[derive(Debug, Clone, Copy, Default)]
pub struct Served {
    pub digest: u64,
    /// Sum of `quality.fmeasure` over the response's clusters.
    pub f_sum: f64,
    pub clusters: u32,
    /// Degraded or partial: served, but not what was asked for.
    pub flawed: bool,
    pub cache_hit: bool,
}

pub fn served(resp: &ExpandResponse) -> Served {
    let clusters = resp.clusters();
    Served {
        digest: clusters_digest(clusters),
        f_sum: clusters.iter().map(|c| c.quality.fmeasure).sum(),
        clusters: clusters.len() as u32,
        flawed: resp.stats.degraded || resp.stats.shards_omitted > 0,
        cache_hit: resp.stats.arena_cache_hit,
    }
}

/// Order-independent fold of `(request index, digest)` pairs: the one
/// number printed so that two commits can be compared on the same seed.
pub fn combine(digests: impl IntoIterator<Item = (usize, u64)>) -> u64 {
    let mut acc = 0u64;
    let mut n = 0u64;
    for (i, d) in digests {
        let mut h = Fnv::new();
        h.u64(i as u64);
        h.u64(d);
        acc = acc.wrapping_add(h.finish());
        n += 1;
    }
    let mut h = Fnv::new();
    h.u64(n);
    h.u64(acc);
    h.finish()
}
