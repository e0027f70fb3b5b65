//! Synthetic workloads and the timing harness for the QEC benchmarks.
//!
//! * [`synth`] — seeded generators: Zipfian text corpora for the retrieval
//!   benches and clustered expansion arenas in the paper's top-30/100/500
//!   workload shapes.
//! * [`harness`] — the offline substitute for criterion: warmup,
//!   median-of-samples timing, `cargo bench -- --test` smoke mode, and
//!   JSON emission in the one schema of `BENCH_kernels.jsonl`.

pub mod harness;
pub mod synth;

pub use harness::Harness;
pub use synth::{synth_arena, synth_corpus, synth_term, ArenaSpec, CorpusSpec};
