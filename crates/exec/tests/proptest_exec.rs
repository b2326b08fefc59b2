//! Randomized property tests for the physical pair operators: the join must
//! compute exactly the relational composition, strictly ascending, and the
//! union must merge its inputs into exactly their sorted set union.
//!
//! Driven by the vendored deterministic PRNG (the environment is offline, so
//! no proptest); every case is seeded and reproduces exactly.

use pathix_exec::{
    collect_pairs, BoxedPairStream, EpsilonScanOp, JoinOp, MaterializedOp, Pair, PairBatch,
    PairStream, Sortedness, UnionOp,
};
use pathix_graph::NodeId;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// A small random pair relation over node ids `0..domain`, with duplicate
/// pairs. In about half the cases a hub source owns half of the pairs.
fn relation(rng: &mut StdRng, domain: u32, max_len: usize) -> Vec<Pair> {
    let len = rng.gen_range(0..=max_len);
    let hub = rng.gen_bool(0.5).then(|| NodeId(rng.gen_range(0..domain)));
    (0..len)
        .map(|_| {
            let source = match hub {
                Some(hub) if rng.gen_bool(0.5) => hub,
                _ => NodeId(rng.gen_range(0..domain)),
            };
            (source, NodeId(rng.gen_range(0..domain)))
        })
        .collect()
}

/// Reference composition `L ∘ R` with set semantics.
fn compose_reference(left: &[Pair], right: &[Pair]) -> Vec<Pair> {
    let mut out: BTreeSet<Pair> = BTreeSet::new();
    for &(x, y) in left {
        for &(y2, z) in right {
            if y == y2 {
                out.insert((x, z));
            }
        }
    }
    out.into_iter().collect()
}

/// Wraps a pair list as a stream ordered by source only — the order a
/// join's left input needs; middles stay in generation order.
fn by_source(mut pairs: Vec<Pair>) -> BoxedPairStream<'static> {
    pairs.sort_by_key(|&(s, _)| s);
    Box::new(MaterializedOp::new(pairs, Sortedness::BySource))
}

/// Wraps a pair list as a stream in no particular order.
fn unsorted(pairs: Vec<Pair>) -> BoxedPairStream<'static> {
    Box::new(MaterializedOp::new(pairs, Sortedness::Unsorted))
}

fn join(
    left: BoxedPairStream<'static>,
    right: BoxedPairStream<'static>,
) -> BoxedPairStream<'static> {
    Box::new(JoinOp::new(left, right))
}

fn assert_strictly_ascending(pairs: &[Pair], case: u64) {
    assert!(
        pairs.windows(2).all(|w| w[0] < w[1]),
        "case {case}: output not strictly ascending"
    );
}

/// The join agrees with the nested-loop reference on any input relations,
/// regardless of duplicates, hub sources or the right side's order, and
/// emits its answer strictly ascending.
#[test]
fn joins_compute_relational_composition() {
    for case in 0..300u64 {
        let mut rng = StdRng::seed_from_u64(0x101 + case);
        let domain = rng.gen_range(1..16u32);
        let left = relation(&mut rng, domain, 80);
        let right = relation(&mut rng, domain, 80);
        let expected = compose_reference(&left, &right);
        let join = JoinOp::new(by_source(left), unsorted(right));
        assert!(join.is_distinct() && join.sortedness().is_by_source());
        let out = collect_pairs(join).unwrap();
        assert_strictly_ascending(&out, case);
        assert_eq!(out, expected, "case {case}");
    }
}

/// Composition with the empty relation is empty on either side.
#[test]
fn joining_with_the_empty_relation_is_empty() {
    for case in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(0xE019 + case);
        let rel = relation(&mut rng, 10, 40);
        assert!(
            collect_pairs(JoinOp::new(by_source(rel.clone()), by_source(Vec::new())))
                .unwrap()
                .is_empty(),
            "case {case}"
        );
        assert!(
            collect_pairs(JoinOp::new(by_source(Vec::new()), by_source(rel)))
                .unwrap()
                .is_empty(),
            "case {case}"
        );
    }
}

/// ε is the identity of composition on either side.
#[test]
fn epsilon_is_the_identity_on_either_side() {
    for case in 0..100u64 {
        let mut rng = StdRng::seed_from_u64(0xE95 + case);
        let domain = rng.gen_range(1..12u32);
        let rel = relation(&mut rng, domain, 50);
        let set: Vec<Pair> = rel
            .iter()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();
        let eps = || -> BoxedPairStream<'static> { Box::new(EpsilonScanOp::new(domain as usize)) };
        let left_eps = collect_pairs(JoinOp::new(eps(), unsorted(rel.clone()))).unwrap();
        assert_eq!(left_eps, set, "ε ∘ R, case {case}");
        let right_eps = collect_pairs(JoinOp::new(by_source(rel), eps())).unwrap();
        assert_eq!(right_eps, set, "R ∘ ε, case {case}");
    }
}

/// Joins are associative on the final answer sets, and three-level chains
/// of join operators reproduce the reference whichever way they nest:
/// (L ∘ M) ∘ R = L ∘ (M ∘ R).
#[test]
fn composition_is_associative() {
    for case in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(0xA550 + case);
        let domain = rng.gen_range(1..10u32);
        let left = relation(&mut rng, domain, 30);
        let middle = relation(&mut rng, domain, 30);
        let right = relation(&mut rng, domain, 30);
        let lm_r = compose_reference(&compose_reference(&left, &middle), &right);
        let l_mr = compose_reference(&left, &compose_reference(&middle, &right));
        assert_eq!(lm_r, l_mr, "case {case}");

        let left_deep = join(
            join(by_source(left.clone()), unsorted(middle.clone())),
            unsorted(right.clone()),
        );
        let out = collect_pairs(left_deep).unwrap();
        assert_strictly_ascending(&out, case);
        assert_eq!(out, lm_r, "left-deep, case {case}");

        let right_deep = join(by_source(left), join(by_source(middle), unsorted(right)));
        assert_eq!(
            collect_pairs(right_deep).unwrap(),
            lm_r,
            "right-deep, case {case}"
        );
    }
}

/// A left input out of source order is an error, never a wrong answer: an
/// undeclared order fails at once, and a declared order that the pairs break
/// fails when the break is reached.
#[test]
fn unordered_left_inputs_fail_instead_of_answering_wrongly() {
    for case in 0..200u64 {
        let mut rng = StdRng::seed_from_u64(0x0DD + case);
        let left = relation(&mut rng, 8, 40);
        let right = relation(&mut rng, 8, 40);
        let undeclared = JoinOp::new(unsorted(left.clone()), unsorted(right.clone()));
        let err = collect_pairs(undeclared).unwrap_err();
        assert!(err.message().contains("not ordered by source"), "{err}");

        // Claim source order for pairs in generation order.
        let in_order = left.windows(2).all(|w| w[0].0 <= w[1].0);
        let lying = JoinOp::new(
            Box::new(MaterializedOp::new(left.clone(), Sortedness::BySource)),
            unsorted(right.clone()),
        );
        match collect_pairs(lying) {
            Ok(out) => {
                assert!(in_order, "case {case}: unordered left answered");
                assert_eq!(out, compose_reference(&left, &right), "case {case}");
            }
            Err(err) => {
                assert!(!in_order, "case {case}: ordered left failed: {err}");
                assert!(err.message().contains("not ordered by source"), "{err}");
            }
        }
    }
}

/// The union merges sorted inputs — with duplicates within and across them —
/// into exactly their sorted set union, identically by pairs and by batches.
#[test]
fn union_merges_to_the_sorted_set_union() {
    for case in 0..150u64 {
        let mut rng = StdRng::seed_from_u64(0xC0C0 + case);
        let parts: Vec<Vec<Pair>> = (0..rng.gen_range(0..6usize))
            .map(|_| {
                let mut part = relation(&mut rng, 10, 60);
                part.sort_unstable();
                part
            })
            .collect();
        let inputs = || -> Vec<BoxedPairStream<'static>> {
            parts
                .iter()
                .map(|p| {
                    Box::new(MaterializedOp::new(p.clone(), Sortedness::BySource))
                        as BoxedPairStream<'static>
                })
                .collect()
        };
        let expected: Vec<Pair> = parts
            .iter()
            .flatten()
            .copied()
            .collect::<BTreeSet<_>>()
            .into_iter()
            .collect();

        assert_eq!(
            collect_pairs(UnionOp::new(inputs())).unwrap(),
            expected,
            "case {case}"
        );
        let mut union = UnionOp::new(inputs());
        let mut by_pair = Vec::new();
        while let Some(pair) = union.next_pair().unwrap() {
            by_pair.push(pair);
        }
        assert_eq!(by_pair, expected, "pair-wise, case {case}");
        let mut union = UnionOp::new(inputs());
        let mut batch = PairBatch::with_capacity(rng.gen_range(1..8usize));
        let mut by_batch = Vec::new();
        while union.next_batch(&mut batch).unwrap() > 0 {
            by_batch.extend(batch.iter());
        }
        assert_eq!(by_batch, expected, "small batches, case {case}");
    }
}
