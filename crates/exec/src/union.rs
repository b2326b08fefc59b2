//! Union of disjuncts.

use crate::operator::{order_error, BoxedPairStream, Pair, PairStream, Sortedness};
use pathix_index::backend::{BackendError, BackendResult, PairBatch};

/// One union input with its buffered batch.
struct Input<'a> {
    stream: BoxedPairStream<'a>,
    buf: PairBatch,
    pos: usize,
    done: bool,
}

impl Input<'_> {
    /// The next unconsumed pair, pulling a batch when the buffer is spent.
    fn head(&mut self) -> BackendResult<Option<Pair>> {
        while !self.done && self.pos == self.buf.len() {
            self.pos = 0;
            self.done = self.stream.next_batch(&mut self.buf)? == 0;
        }
        Ok((!self.done).then(|| self.buf.get(self.pos)))
    }
}

/// Set union of source-ordered streams, as one k-way merge.
///
/// The paper's complete physical plan is "formed as a union of the sub-plans"
/// for the individual disjuncts. Every sub-plan emits its pairs ascending in
/// `(source, target)`, so the union merges them: it takes the input with the
/// smallest head, copies that input's run up to the next-smallest head of
/// the others, and drops any pair equal to the last one it emitted. The
/// output is strictly ascending — the set union, with no hash set and no
/// final sort.
///
/// An input that does not declare source order fails the first pull; one
/// that breaks the order mid-stream fails when the break is seen.
pub struct UnionOp<'a> {
    inputs: Vec<Input<'a>>,
    last: Option<Pair>,
    /// Merged pairs serving pair-at-a-time pulls; batch pulls drain any
    /// remainder first so mixed pulls stay in order.
    pending: PairBatch,
    pending_pos: usize,
    // A backend error is latched: polling again after an error must re-raise
    // it, never resume from half-advanced inputs.
    poisoned: Option<BackendError>,
}

impl<'a> UnionOp<'a> {
    /// Creates the union of `inputs`.
    pub fn new(inputs: Vec<BoxedPairStream<'a>>) -> Self {
        let poisoned = inputs
            .iter()
            .any(|input| !input.sortedness().is_by_source())
            .then(|| order_error("union input"));
        UnionOp {
            inputs: inputs
                .into_iter()
                .map(|stream| Input {
                    stream,
                    buf: PairBatch::new(),
                    pos: 0,
                    done: false,
                })
                .collect(),
            last: None,
            pending: PairBatch::new(),
            pending_pos: 0,
            poisoned,
        }
    }

    /// Clears `batch` and fills it with the next merged pairs.
    fn merge_into(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        batch.clear();
        while !batch.is_full() {
            // The input with the smallest head, and the smallest head of the
            // others: everything up to it can be copied without comparing.
            let mut min: Option<(Pair, usize)> = None;
            let mut bound: Option<Pair> = None;
            for (i, input) in self.inputs.iter_mut().enumerate() {
                let Some(head) = input.head()? else {
                    continue;
                };
                match min {
                    Some((m, _)) if head >= m => bound = Some(bound.map_or(head, |b| b.min(head))),
                    _ => {
                        bound = min.map(|(m, _)| m);
                        min = Some((head, i));
                    }
                }
            }
            let Some((_, i)) = min else {
                break;
            };
            let input = &mut self.inputs[i];
            while input.pos < input.buf.len() && !batch.is_full() {
                let pair = input.buf.get(input.pos);
                if bound.is_some_and(|b| pair > b) {
                    break;
                }
                match self.last {
                    Some(last) if pair < last => return Err(order_error("union input")),
                    Some(last) if pair == last => {}
                    _ => {
                        batch.push(pair);
                        self.last = Some(pair);
                    }
                }
                input.pos += 1;
            }
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

impl PairStream for UnionOp<'_> {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        self.guarded(|union| {
            if union.pending_pos == union.pending.len() {
                union.pending_pos = 0;
                let mut pending = std::mem::take(&mut union.pending);
                let merged = union.merge_into(&mut pending);
                union.pending = pending;
                if merged? == 0 {
                    return Ok(None);
                }
            }
            union.pending_pos += 1;
            Ok(Some(union.pending.get(union.pending_pos - 1)))
        })
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        self.guarded(|union| {
            if union.pending_pos < union.pending.len() {
                batch.clear();
                while union.pending_pos < union.pending.len() && !batch.is_full() {
                    batch.push(union.pending.get(union.pending_pos));
                    union.pending_pos += 1;
                }
                return Ok(batch.len());
            }
            union.merge_into(batch)
        })
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
    use pathix_graph::NodeId;

    fn n(v: u32) -> NodeId {
        NodeId(v)
    }

    fn sorted(mut pairs: Vec<Pair>) -> BoxedPairStream<'static> {
        pairs.sort_unstable();
        Box::new(MaterializedOp::new(pairs, Sortedness::BySource))
    }

    #[test]
    fn union_merges_all_inputs() {
        let union = UnionOp::new(vec![
            sorted(vec![(n(1), n(2)), (n(4), n(0))]),
            sorted(vec![]),
            sorted(vec![(n(3), n(4)), (n(1), n(2)), (n(1), n(5))]),
            Box::new(EpsilonScanOp::new(2)),
        ]);
        assert!(union.is_distinct());
        assert_eq!(
            collect_pairs(union).unwrap(),
            vec![
                (n(0), n(0)),
                (n(1), n(1)),
                (n(1), n(2)),
                (n(1), n(5)),
                (n(3), n(4)),
                (n(4), n(0)),
            ]
        );
    }

    #[test]
    fn union_of_nothing_is_empty() {
        let union = UnionOp::new(vec![]);
        assert!(collect_pairs(union).unwrap().is_empty());
    }

    #[test]
    fn union_batches_cross_input_boundaries() {
        // Duplicates of one pair straddle the batch capacity in both inputs.
        let mut a = vec![(n(0), n(1)); 1200];
        a.push((n(3), n(0)));
        let b = vec![(n(0), n(1)); 700];
        let mut union = UnionOp::new(vec![sorted(a), sorted(b)]);
        let mut batch = PairBatch::with_capacity(8);
        let mut out = Vec::new();
        while union.next_batch(&mut batch).unwrap() > 0 {
            out.extend(batch.iter());
        }
        assert_eq!(out, vec![(n(0), n(1)), (n(3), n(0))]);
    }

    /// The union is the plan's only distinct: over a single sorted input it
    /// drops repeats by comparing each pair with the last one emitted.
    #[test]
    fn distinct_on_sorted_input_needs_no_side_set() {
        let pairs = vec![
            (n(1), n(2)),
            (n(1), n(2)),
            (n(1), n(3)),
            (n(2), n(0)),
            (n(2), n(0)),
            (n(2), n(0)),
        ];
        let mut union = UnionOp::new(vec![sorted(pairs)]);
        let mut out = Vec::new();
        let mut batch = PairBatch::with_capacity(4);
        while union.next_batch(&mut batch).unwrap() > 0 {
            out.extend(batch.iter());
        }
        assert_eq!(out, vec![(n(1), n(2)), (n(1), n(3)), (n(2), n(0))]);
    }

    #[test]
    fn distinct_dedups_across_batch_boundaries_when_sorted() {
        // 1200 copies of one pair straddle the default batch capacity.
        let mut pairs = vec![(n(0), n(1)); 1200];
        pairs.extend(vec![(n(3), n(0)); 700]);
        let union = UnionOp::new(vec![sorted(pairs)]);
        assert_eq!(
            collect_pairs(union).unwrap(),
            vec![(n(0), n(1)), (n(3), n(0))]
        );
    }

    #[test]
    fn mixed_pair_and_batch_pulls_observe_each_pair_once() {
        let inputs = || {
            vec![
                sorted((0..50).map(|i| (n(i), n(i))).collect()),
                sorted((0..50).map(|i| (n(i), n(i + 1))).collect()),
            ]
        };
        let reference = collect_pairs(UnionOp::new(inputs())).unwrap();
        let mut union = UnionOp::new(inputs());
        let mut mixed = vec![union.next_pair().unwrap().unwrap()];
        let mut batch = PairBatch::with_capacity(7);
        while union.next_batch(&mut batch).unwrap() > 0 {
            mixed.extend(batch.iter());
        }
        assert_eq!(mixed, reference);
        assert_eq!(mixed.len(), 100);
    }

    #[test]
    fn unordered_inputs_are_rejected() {
        let undeclared: BoxedPairStream<'static> =
            Box::new(MaterializedOp::new(vec![], Sortedness::Unsorted));
        assert!(UnionOp::new(vec![undeclared]).next_pair().is_err());
        let lying: BoxedPairStream<'static> = Box::new(MaterializedOp::new(
            vec![(n(2), n(0)), (n(1), n(0))],
            Sortedness::BySource,
        ));
        let mut union = UnionOp::new(vec![lying, sorted(vec![(n(5), n(5))])]);
        let mut batch = PairBatch::new();
        assert!(union.next_batch(&mut batch).is_err());
        assert!(union.next_pair().is_err(), "stays poisoned");
    }
}
