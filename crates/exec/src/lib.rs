//! # pathix-exec
//!
//! Volcano-style streaming physical operators over node-pair streams.
//!
//! Every operator produces a stream of `(source, target)` pairs — a partial
//! RPQ result where `source` is the start of the matched path prefix and
//! `target` its current frontier — together with a [`Sortedness`] describing
//! the order the pairs are emitted in. The planner (in `pathix-plan`) wires
//! these operators into trees that follow the paper's physical plans:
//!
//! * [`IndexScanOp`] — a prefix scan of the k-path index, either in its
//!   natural `(source, target)` order or over the *inverse* path so the pairs
//!   arrive sorted by target;
//! * [`JoinOp`] — composition of a source-ordered stream with any stream,
//!   emitting each source's targets once, in order;
//! * [`UnionOp`] — the set union of the disjuncts' streams, as one merge;
//! * [`EpsilonScanOp`] / [`MaterializedOp`] — the identity relation and
//!   pre-materialized inputs.
//!
//! Forward scans, ε, joins and unions all emit their pairs strictly
//! ascending in `(source, target)` ([`PairStream::is_distinct`] declares the
//! "strictly"), so a plan's root stream is already the sorted,
//! duplicate-free answer.
//!
//! Operators move data batch-at-a-time: [`PairStream::next_batch`] fills a
//! reusable structure-of-arrays [`PairBatch`] per virtual call, while
//! [`PairStream::next_pair`] remains available for cursor streaming and
//! `limit`/`exists` early termination.

pub mod cancel;
pub mod join;
pub mod operator;
pub mod scan;
pub mod union;

pub use cancel::{CancelGuard, CancelToken, CANCEL_BACKEND};
pub use join::JoinOp;
pub use operator::{collect_pairs, BoxedPairStream, Pair, PairStream, Sortedness};
pub use pathix_index::backend::{PairBatch, BATCH_CAPACITY};
pub use scan::{EpsilonScanOp, IndexScanOp, MaterializedOp, ScanOrientation};
pub use union::UnionOp;
