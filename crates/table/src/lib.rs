//! # moma-table — relational mapping-table engine
//!
//! MOMA represents every instance mapping "by a mapping table with three
//! columns. Each row represents a correspondence consisting of the ids of
//! the domain and range objects and the corresponding similarity value"
//! (paper Definition 1). The paper further notes that mapping composition
//! "can be computed very efficiently in our implementation by joining the
//! mapping tables" (Section 5.3).
//!
//! This crate is that storage and join engine:
//!
//! * [`MappingTable`] — a dense vector of [`Correspondence`] rows
//!   (`u32` domain index, `u32` range index, `f64` similarity),
//! * [`Adjacency`] — a CSR-style index over either column, providing both
//!   neighbor lookup and the *degree* counts `n(a)` / `n(b)` needed by the
//!   paper's Relative similarity functions (Figure 5),
//! * [`join`] — hash, sort-merge and nested-loop join strategies, each
//!   with a sharded parallel variant producing bit-identical output,
//! * [`exec`] — the deterministic sharded-execution layer
//!   ([`Parallelism`]) behind the parallel joins and matchers,
//! * [`agg`] — grouped path aggregation for the compose operator,
//! * [`size_index`] — the gram posting store: an incrementally
//!   maintainable (tombstoned removal + amortized compaction),
//!   size-bucketed inverted gram index with CPMerge-style count-filtered
//!   candidate merging, backing every q-gram blocking plan of
//!   `moma-core` (prefix-filtered and threshold-exact) and its delta
//!   maintenance,
//! * [`postings`] — the sorted posting lists the gram store and the
//!   TF-IDF blocking index keep their ids in,
//! * [`tsv`] — plain-text persistence of mapping tables,
//! * [`hash`] — a fast FxHash-style hasher used for all internal maps
//!   (integer-keyed hashing is on the hot path of every join).
//!
//! Object ids are *local instance indexes* of the owning logical data
//! source (see `moma-model`); a row is therefore 16 bytes and tables with
//! millions of correspondences stay cache-friendly.

pub mod agg;
pub mod exec;
pub mod hash;
pub mod index;
pub mod interner;
pub mod join;
pub mod mapping_table;
pub mod postings;
pub mod size_index;
pub mod stats;
pub mod tsv;

pub use exec::Parallelism;
pub use hash::{FxHashMap, FxHashSet};
pub use index::Adjacency;
pub use interner::StringInterner;
pub use mapping_table::{Correspondence, MappingTable};
pub use postings::PostingList;
pub use size_index::SizeBucketedIndex;
pub use stats::TableStats;
