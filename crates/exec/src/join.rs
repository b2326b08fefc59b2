//! The composition join.
//!
//! [`JoinOp`] computes the composition of two pair relations
//! `L ∘ R = {(x, z) | (x, y) ∈ L, (y, z) ∈ R}` — the physical counterpart of
//! the `◦` operator after a disjunct has been cut into index-sized pieces.
//!
//! The k-path index stores every path relation sorted by `(source, target)`
//! (§5 of the paper), and every plan node keeps that order: forward scans,
//! ε, joins and unions all emit source-major. The join uses it on its left
//! input: all pairs of one source arrive together, so the set of targets
//! reachable from that source is complete as soon as the source changes.
//! The join gathers that set without duplicates, sorts it and emits it — so
//! its output is strictly ascending in `(source, target)`, duplicate-free and
//! in the order the next join up consumes. Duplicates are dropped as early as
//! they appear, below every join, instead of by a sort and dedup of the
//! whole answer (eager duplicate elimination, Yan & Larson, VLDB 1995).

use crate::operator::{order_error, BoxedPairStream, Pair, PairStream, Sortedness};
use pathix_graph::NodeId;
use pathix_index::backend::{BackendError, BackendResult, PairBatch};

/// A flat open-addressing hash table mapping middle nodes to contiguous
/// ranges of right-side targets.
///
/// All values live in one `vals` array grouped by key (a stable sort keeps
/// each key's stream order); `slots` is a power-of-two open-addressing array
/// probed by fibonacci hashing with linear stepping, holding group indices.
/// Probing touches two flat arrays instead of chasing `HashMap` buckets and
/// per-key `Vec` allocations.
#[derive(Default)]
struct FlatTable {
    /// Group index + 1 per slot; 0 marks an empty slot. Load factor ≤ ½.
    slots: Vec<u32>,
    /// `(key, start, len)` ranges into `vals`, one per distinct key.
    groups: Vec<(NodeId, u32, u32)>,
    /// All right-side targets, grouped by key, stream order within a key.
    vals: Vec<NodeId>,
}

impl FlatTable {
    fn build(mut pairs: Vec<Pair>) -> FlatTable {
        // Stable: within-key order stays the build stream's order.
        pairs.sort_by_key(|&(k, _)| k);
        let mut vals = Vec::with_capacity(pairs.len());
        let mut groups: Vec<(NodeId, u32, u32)> = Vec::new();
        for (k, v) in pairs {
            match groups.last_mut() {
                Some(g) if g.0 == k => g.2 += 1,
                _ => groups.push((k, vals.len() as u32, 1)),
            }
            vals.push(v);
        }
        let cap = (groups.len() * 2).next_power_of_two().max(8);
        let mut slots = vec![0u32; cap];
        for (i, g) in groups.iter().enumerate() {
            let mut slot = Self::hash(g.0) & (cap - 1);
            while slots[slot] != 0 {
                slot = (slot + 1) & (cap - 1);
            }
            slots[slot] = i as u32 + 1;
        }
        FlatTable {
            slots,
            groups,
            vals,
        }
    }

    fn hash(key: NodeId) -> usize {
        ((key.0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 32) as usize
    }

    /// The targets joined to `key` (empty if none).
    fn probe(&self, key: NodeId) -> &[NodeId] {
        if self.groups.is_empty() {
            return &[];
        }
        let mask = self.slots.len() - 1;
        let mut slot = Self::hash(key) & mask;
        loop {
            match self.slots[slot] {
                0 => return &[],
                g => {
                    let (k, start, len) = self.groups[(g - 1) as usize];
                    if k == key {
                        return &self.vals[start as usize..(start + len) as usize];
                    }
                }
            }
            slot = (slot + 1) & mask;
        }
    }
}

/// Composition join over the shared middle node.
///
/// The right input is drained once into a flat hash table keyed by its
/// source. The left input must arrive ordered by source (any order within a
/// source): for each source group the join marks the matched targets in a
/// bitset over the target nodes, remembering which words of it it touched.
/// When the group ends it sorts that short word list and reads each word's
/// bits out in order, clearing them. The output is strictly ascending in
/// `(source, target)`. Sorting words instead of targets bounds the sort by
/// both the group's size and the bitset's: a hub source that reaches most of
/// the graph sorts one entry per 64 nodes.
///
/// A left input that does not declare source order fails on the first pull;
/// one that declares it but breaks it mid-stream fails when the break is
/// seen. Either way the join reports a [`BackendError`] instead of wrong
/// pairs.
pub struct JoinOp<'a> {
    left: BoxedPairStream<'a>,
    right: Option<BoxedPairStream<'a>>,
    table: FlatTable,
    /// The left batch being consumed and the position in it.
    buf: PairBatch,
    pos: usize,
    left_done: bool,
    /// The left source whose targets `marks` collects.
    group: Option<NodeId>,
    /// One bit per target node, set while the node is in the group.
    marks: Vec<u64>,
    /// The indices of the nonzero words of `marks`.
    touched: Vec<u32>,
    /// A completed group, sorted, emitted from `emitted` on.
    out_source: NodeId,
    out: Vec<NodeId>,
    emitted: usize,
    // A backend error is latched: polling again after an error must re-raise
    // it, never resume from a half-consumed input or a partial hash table.
    poisoned: Option<BackendError>,
}

impl<'a> JoinOp<'a> {
    /// Creates a join of `left ∘ right`; the right side is built into the
    /// hash table on first use.
    pub fn new(left: BoxedPairStream<'a>, right: BoxedPairStream<'a>) -> Self {
        let poisoned = (!left.sortedness().is_by_source()).then(|| order_error("join left input"));
        JoinOp {
            left,
            right: Some(right),
            table: FlatTable::default(),
            buf: PairBatch::new(),
            pos: 0,
            left_done: false,
            group: None,
            marks: Vec::new(),
            touched: Vec::new(),
            out_source: NodeId(0),
            out: Vec::new(),
            emitted: 0,
            poisoned,
        }
    }

    fn ensure_built(&mut self) -> BackendResult<()> {
        if let Some(mut right) = self.right.take() {
            let mut batch = PairBatch::new();
            let mut pairs = Vec::new();
            while right.next_batch(&mut batch)? > 0 {
                pairs.extend(batch.iter());
            }
            let max_target = pairs.iter().map(|&(_, z)| z.0 as usize + 1).max();
            self.marks = vec![0; max_target.unwrap_or(0).div_ceil(64)];
            self.table = FlatTable::build(pairs);
        }
        Ok(())
    }

    /// Completes the current group: reads its targets into `out` in order
    /// and clears their marks. Returns `false` if there was no group or it
    /// matched nothing.
    fn finish_group(&mut self) -> bool {
        let Some(source) = self.group.take() else {
            return false;
        };
        if self.touched.is_empty() {
            return false;
        }
        self.touched.sort_unstable();
        self.out.clear();
        for &w in &self.touched {
            let mut bits = std::mem::take(&mut self.marks[w as usize]);
            while bits != 0 {
                self.out.push(NodeId(w * 64 + bits.trailing_zeros()));
                bits &= bits - 1;
            }
        }
        self.touched.clear();
        self.out_source = source;
        self.emitted = 0;
        true
    }

    /// Makes sure `out` holds pairs still to emit. Returns `false` once the
    /// join is exhausted.
    fn fill(&mut self) -> BackendResult<bool> {
        if self.emitted < self.out.len() {
            return Ok(true);
        }
        self.ensure_built()?;
        loop {
            if self.pos == self.buf.len() {
                self.pos = 0;
                if self.left_done || self.left.next_batch(&mut self.buf)? == 0 {
                    self.left_done = true;
                    self.buf.clear();
                    return Ok(self.finish_group());
                }
            }
            let source = self.buf.sources()[self.pos];
            if let Some(group) = self.group {
                if source < group {
                    return Err(order_error("join left input"));
                }
                if source != group && self.finish_group() {
                    return Ok(true);
                }
            }
            self.group = Some(source);
            let sources = &self.buf.sources()[self.pos..];
            let run = sources
                .iter()
                .position(|&s| s != source)
                .unwrap_or(sources.len());
            for &middle in &self.buf.targets()[self.pos..self.pos + run] {
                for &z in self.table.probe(middle) {
                    let word = z.0 as usize / 64;
                    if self.marks[word] == 0 {
                        self.touched.push(word as u32);
                    }
                    self.marks[word] |= 1 << (z.0 % 64);
                }
            }
            self.pos += run;
        }
    }

    fn next_pair_inner(&mut self) -> BackendResult<Option<Pair>> {
        if !self.fill()? {
            return Ok(None);
        }
        let pair = (self.out_source, self.out[self.emitted]);
        self.emitted += 1;
        Ok(Some(pair))
    }

    fn next_batch_inner(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        batch.clear();
        while !batch.is_full() && self.fill()? {
            let take = (self.out.len() - self.emitted).min(batch.remaining_capacity());
            batch.extend_from_targets(
                self.out_source,
                &self.out[self.emitted..self.emitted + take],
            );
            self.emitted += take;
        }
        Ok(batch.len())
    }

    /// Runs one pull, latching its error.
    fn guarded<T>(&mut self, pull: impl FnOnce(&mut Self) -> BackendResult<T>) -> BackendResult<T> {
        if let Some(e) = &self.poisoned {
            return Err(e.clone());
        }
        pull(self).inspect_err(|e| self.poisoned = Some(e.clone()))
    }
}

impl PairStream for JoinOp<'_> {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        self.guarded(Self::next_pair_inner)
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        self.guarded(|join| join.next_batch_inner(batch))
    }

    fn sortedness(&self) -> Sortedness {
        Sortedness::BySource
    }

    fn is_distinct(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operator::collect_pairs;
    use crate::scan::{EpsilonScanOp, MaterializedOp};

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    /// Reference composition for cross-checking.
    fn compose(left: &[Pair], right: &[Pair]) -> Vec<Pair> {
        let mut out = Vec::new();
        for &(x, y) in left {
            for &(y2, z) in right {
                if y == y2 {
                    out.push((x, z));
                }
            }
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    fn by_source(mut pairs: Vec<Pair>) -> MaterializedOp {
        pairs.sort_unstable();
        MaterializedOp::new(pairs, Sortedness::BySource)
    }

    fn join(left: Vec<Pair>, right: Vec<Pair>) -> JoinOp<'static> {
        JoinOp::new(Box::new(by_source(left)), Box::new(by_source(right)))
    }

    #[test]
    fn hash_join_composes_relations() {
        // The right side is hashed and may arrive in any order.
        let left = vec![(n(1), n(10)), (n(2), n(10)), (n(3), n(11)), (n(4), n(12))];
        let right = vec![
            (n(13), n(23)),
            (n(10), n(21)),
            (n(12), n(22)),
            (n(10), n(20)),
        ];
        let join = JoinOp::new(
            Box::new(by_source(left.clone())),
            Box::new(MaterializedOp::new(right.clone(), Sortedness::Unsorted)),
        );
        assert!(join.is_distinct());
        assert_eq!(join.sortedness(), Sortedness::BySource);
        assert_eq!(collect_pairs(join).unwrap(), compose(&left, &right));
    }

    #[test]
    fn joins_agree_on_duplicate_heavy_inputs() {
        // Many pairs sharing the same middle node exercise group handling,
        // and every source reaches each target through several middles.
        let left: Vec<Pair> = (0..60).map(|i| (n(i / 3), n(100 + i % 3))).collect();
        let right: Vec<Pair> = (0..15).map(|i| (n(100 + i % 3), n(200 + i % 5))).collect();
        let expected = compose(&left, &right);
        assert_eq!(expected.len(), 20 * 5);
        assert_eq!(collect_pairs(join(left, right)).unwrap(), expected);
    }

    #[test]
    fn groups_straddling_batches_stay_one_group() {
        // One source with far more middles than a batch holds: its targets
        // must be gathered across batches and emitted once, in order.
        let left: Vec<Pair> = (0..3000).map(|i| (n(7), n(i))).collect();
        let right: Vec<Pair> = (0..3000).map(|i| (n(i), n(i % 1500))).collect();
        let out = collect_pairs(join(left.clone(), right.clone())).unwrap();
        assert_eq!(out, compose(&left, &right));
        assert_eq!(out.len(), 1500);
    }

    #[test]
    fn epsilon_composes_on_either_side() {
        let rel = vec![(n(0), n(2)), (n(1), n(0)), (n(2), n(2))];
        let eps = |len| -> BoxedPairStream<'static> { Box::new(EpsilonScanOp::new(len)) };
        let left = JoinOp::new(eps(3), Box::new(by_source(rel.clone())));
        assert_eq!(collect_pairs(left).unwrap(), rel);
        let right = JoinOp::new(Box::new(by_source(rel.clone())), eps(3));
        assert_eq!(collect_pairs(right).unwrap(), rel);
    }

    #[test]
    fn joins_drain_identically_pair_and_batch_wise() {
        let left: Vec<Pair> = (0..900).map(|i| (n(i / 4), n(i % 7))).collect();
        let right: Vec<Pair> = (0..300).map(|i| (n(i % 7), n(i))).collect();
        let pair_wise = {
            let mut join = join(left.clone(), right.clone());
            let mut out = Vec::new();
            while let Some(p) = join.next_pair().unwrap() {
                out.push(p);
            }
            out
        };
        let batch_wise = {
            let mut join = join(left.clone(), right.clone());
            let mut out = Vec::new();
            let mut batch = PairBatch::with_capacity(100);
            while join.next_batch(&mut batch).unwrap() > 0 {
                out.extend(batch.iter());
            }
            out
        };
        assert_eq!(pair_wise, batch_wise);
        assert_eq!(pair_wise, compose(&left, &right));
    }

    #[test]
    fn empty_inputs_produce_empty_output() {
        let some = vec![(n(1), n(2))];
        assert!(collect_pairs(join(vec![], some.clone()))
            .unwrap()
            .is_empty());
        assert!(collect_pairs(join(some, vec![])).unwrap().is_empty());
    }

    #[test]
    fn disjoint_keys_produce_empty_output() {
        let left = vec![(n(1), n(5)), (n(2), n(6))];
        let right = vec![(n(7), n(1)), (n(8), n(2))];
        assert!(collect_pairs(join(left, right)).unwrap().is_empty());
    }

    /// A stream that yields one pair, then an error, then (wrongly, like a
    /// drained backend scan would) a clean end — the shape that could trick a
    /// join into returning silently partial results on re-poll.
    struct FailingOp {
        yielded: bool,
        errored: bool,
    }

    impl FailingOp {
        fn new() -> Self {
            FailingOp {
                yielded: false,
                errored: false,
            }
        }
    }

    impl PairStream for FailingOp {
        fn next_pair(&mut self) -> pathix_index::BackendResult<Option<Pair>> {
            if !self.yielded {
                self.yielded = true;
                return Ok(Some((n(1), n(10))));
            }
            if !self.errored {
                self.errored = true;
                return Err(pathix_index::BackendError::new("test", "page torn"));
            }
            Ok(None)
        }

        fn sortedness(&self) -> Sortedness {
            Sortedness::BySource
        }
    }

    #[test]
    fn joins_stay_poisoned_after_a_backend_error() {
        // The error hits while building the right side; polling again must
        // re-raise it, not answer from a partial hash table.
        let mut build_side = JoinOp::new(
            Box::new(by_source(vec![(n(1), n(10)), (n(2), n(10))])),
            Box::new(FailingOp::new()),
        );
        let first = build_side.next_pair();
        assert!(first.is_err(), "build-side error must surface");
        assert_eq!(first.unwrap_err(), build_side.next_pair().unwrap_err());

        // The error hits while batching up the left input (the operator
        // buffers ahead of the first emitted pair).
        let mut probe_side = JoinOp::new(
            Box::new(FailingOp::new()),
            Box::new(by_source(vec![(n(10), n(20)), (n(10), n(21))])),
        );
        let first = probe_side.next_pair();
        assert!(first.is_err(), "input error must surface");
        assert_eq!(first.unwrap_err(), probe_side.next_pair().unwrap_err());
    }

    #[test]
    fn join_rejects_unsorted_left() {
        // A left input that does not declare source order fails on the first
        // pull …
        let mut undeclared = JoinOp::new(
            Box::new(MaterializedOp::new(
                vec![(n(1), n(10))],
                Sortedness::Unsorted,
            )),
            Box::new(by_source(vec![(n(10), n(20))])),
        );
        let err = undeclared.next_pair().unwrap_err();
        assert!(err.message().contains("not ordered by source"), "{err}");
        // … and one that declares it falsely fails when the break is seen,
        // never emitting a source twice.
        let mut lying = JoinOp::new(
            Box::new(MaterializedOp::new(
                vec![(n(2), n(10)), (n(1), n(10)), (n(2), n(10))],
                Sortedness::BySource,
            )),
            Box::new(by_source(vec![(n(10), n(20))])),
        );
        let mut batch = PairBatch::new();
        assert!(lying.next_batch(&mut batch).is_err());
        assert!(lying.next_batch(&mut batch).is_err(), "stays poisoned");
    }

    #[test]
    fn inverse_ordered_left_is_rejected() {
        let mut join = JoinOp::new(
            Box::new(MaterializedOp::new(vec![], Sortedness::ByTarget)),
            Box::new(by_source(vec![])),
        );
        assert!(join.next_pair().is_err());
    }
}
