//! The metric tables (the code's copy of `BENCHMARK.json`, checked against
//! it by a test), order statistics, and the process's own CPU and memory
//! counters.

use crate::json::Json;

/// The workloads, each with the one line on why it is there.
pub const WORKLOADS: [(&str, &str); 4] = [
    (
        "cold_flat",
        "closed loop, 2 clients, flat engine, every key distinct: all misses, so retrieval, full-sort ranking, clustering and arena build do the work and expansion under a tenth",
    ),
    (
        "warm_zipf",
        "closed loop, 2 clients, 96 pre-warmed keys, Zipf picks, half paged: all hits, so analysis, cache probe, ISKR/PEBC, bitset kernels and page fill do the work; control for cold-path changes",
    ),
    (
        "sharded_cold",
        "closed loop, 1 client, cold_flat's list through 2 shards x 2 replicas booted from snapshots: the other ranker (per-shard top-K + merge), scatter, pool, hedging; set-up is snapshot load",
    ),
    (
        "ingress_open",
        "open loop, warm_zipf's list through the front door, 4 requests due every 2 ms, 1 s budgets: the only workload where requests wait in a queue (linger, batch fill, collector, batched dispatch)",
    ),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: reported for every workload, with the share of
/// the parent's median by which it may worsen before it is a regression.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p95_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_req",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.05,
    },
    EndToEnd {
        name: "quality_f",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.2,
    },
];

/// Per-layer metrics of the traced pass, `(name, unit, better)`. A name's
/// suffix is its unit; a bare name is a count or a ratio.
pub const PER_LAYER: [(&str, &str, Better); 59] = {
    use Better::{Higher, Lower};
    [
        ("text.analyse_us", "us", Lower),
        ("index.retrieve_us", "us", Lower),
        ("index.retrieve_slice_us", "us", Lower),
        ("index.matches", "count", Lower),
        ("index.rank_full_us", "us", Lower),
        ("index.rank_topk_us", "us", Lower),
        ("index.build_s", "s", Lower),
        ("cluster.vectors_us", "us", Lower),
        ("cluster.kmeans_us", "us", Lower),
        ("cluster.nonempty", "count", Higher),
        ("core.arena_build_us", "us", Lower),
        ("core.candidates", "count", Lower),
        ("core.expand_iskr_us", "us", Lower),
        ("core.expand_pebc_us", "us", Lower),
        ("core.expand_exact_us", "us", Lower),
        ("core.added_terms", "count", Lower),
        ("bitset.and_not_count_into_ns", "ns", Lower),
        ("bitset.weighted_sum_and_ns", "ns", Lower),
        ("bitset.weighted_sum_split_ns", "ns", Lower),
        ("bitset.select_ns", "ns", Lower),
        ("core.merge_us", "us", Lower),
        ("core.pool_dispatch_n2_us", "us", Lower),
        ("core.pool_dispatch_n16_us", "us", Lower),
        ("engine.cache_probe_us", "us", Lower),
        ("engine.cache_publish_us", "us", Lower),
        ("engine.cache_hit_ratio", "ratio", Higher),
        ("engine.cache_evictions", "count", Lower),
        ("engine.build_s", "s", Lower),
        ("engine.assemble_us", "us", Lower),
        ("engine.self_us", "us", Lower),
        ("engine.page_fill_us", "us", Lower),
        ("engine.batch_us_per_req", "us", Lower),
        ("engine.expand_us", "us", Lower),
        ("shard.build_s", "s", Lower),
        ("shard.expand_us", "us", Lower),
        ("shard.scatter_us", "us", Lower),
        ("shard.retrievals", "count", Lower),
        ("shard.hedges", "count", Lower),
        ("shard.hedge_ratio", "ratio", Lower),
        ("shard.omissions", "count", Lower),
        ("shard.replica_failures", "count", Lower),
        ("shard.replica_mean_latency_us", "us", Lower),
        ("ingress.ticket_us", "us", Lower),
        ("ingress.queue_wait_p50_us", "us", Lower),
        ("ingress.queue_wait_p99_us", "us", Lower),
        ("ingress.mean_fill", "count", Higher),
        ("ingress.full_closes", "count", Higher),
        ("ingress.linger_closes", "count", Lower),
        ("ingress.queue_sheds", "count", Lower),
        ("ingress.expired_in_queue", "count", Lower),
        ("ingress.queue_depth_end", "count", Lower),
        ("ingress.gen_lateness_p99_us", "us", Lower),
        ("snapshot.save_s", "s", Lower),
        ("snapshot.load_s", "s", Lower),
        ("snapshot.bytes_per_doc", "count", Lower),
        ("trace.requests", "count", Higher),
        ("trace.spans", "count", Lower),
        ("trace.coverage", "ratio", Higher),
        ("trace.overhead_pct", "%", Lower),
    ]
};

/// `{"value": v, "unit": u}`, the shape of every reported metric.
pub fn metric(value: f64, unit: &str) -> Json {
    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))])
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of nothing");
    let rank = (p * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of the values (0 when there are none: a count that did not occur).
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let mid = values.len() / 2;
    if values.len() % 2 == 1 {
        values[mid]
    } else {
        (values[mid - 1] + values[mid]) / 2.0
    }
}

pub fn median_ns(values: &[u64]) -> f64 {
    let mut v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median(&mut v)
}

/// Linux reports process times in clock ticks; `USER_HZ` has been 100 on
/// every architecture this runs on since 2.6.
const TICKS_PER_SECOND: f64 = 100.0;

/// utime + stime out of a `/proc/.../stat` line, in seconds.
fn stat_cpu_seconds(path: &str) -> f64 {
    let stat = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    // The command name (field 2) may hold spaces; fields count from the
    // closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a command name") + 1..];
    let mut fields = rest.split_ascii_whitespace().skip(11);
    let mut ticks = || -> f64 {
        fields
            .next()
            .and_then(|f| f.parse().ok())
            .expect("stat has utime and stime")
    };
    (ticks() + ticks()) / TICKS_PER_SECOND
}

/// CPU time the whole process has used, exited threads included.
pub fn process_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/self/stat")
}

/// CPU time the calling thread has used.
pub fn thread_cpu_seconds() -> f64 {
    stat_cpu_seconds("/proc/thread-self/stat")
}

/// `VmHWM`: the most memory the process has ever had resident.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("status has VmHWM");
    kb / 1024.0
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&[7], 0.99), 7);
        assert_eq!(median(&mut [3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&mut [4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    #[test]
    fn process_counters_read() {
        assert!(peak_rss_mb() > 1.0);
        // Burn CPU on this thread until both counters have seen it.
        let before = (process_cpu_seconds(), thread_cpu_seconds());
        let mut x = 0u64;
        while process_cpu_seconds() == before.0 || thread_cpu_seconds() == before.1 {
            x = std::hint::black_box(x.wrapping_add(1));
        }
    }
}
