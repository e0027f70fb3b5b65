//! Dense bitsets over the result arena.
//!
//! Every set the expansion algorithms manipulate — the cluster `C`, the
//! universe `U`, a query's result set `R(q)`, a keyword's elimination set
//! `E(k)`, delta results — is a subset of the *arena*: the (≤ a few hundred,
//! per the paper's top-30/top-500 workloads) results of the original user
//! query. A fixed-width bitset makes applying a move and valuing a removal
//! (intersections and weighted sums over these sets) word-parallel.
//!
//! The implementation lives in the shared foundation crate
//! [`qec_bitset`], whose `Bitset` is also the membership probe
//! `qec_index` keeps for each dense term. `ResultSet` is the
//! arena-flavoured name this crate has always
//! exported; see [`qec_bitset::Bitset`] for the full kernel surface
//! (fused `*_count_into` ops, `rank`/`select`, `heap_bytes`, the
//! [`qec_bitset::RankIndex`] sidecar).

pub use qec_bitset::Bitset as ResultSet;
