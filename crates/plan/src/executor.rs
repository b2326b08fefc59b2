//! Turning physical plans into `pathix-exec` operator trees and running them.
//!
//! Execution is generic over the [`PathIndexBackend`], so the same physical
//! plan runs unchanged against the in-memory, paged or compressed index.
//! Every entry point returns a `Result`: disk-resident backends surface I/O
//! failures as [`pathix_index::BackendError`]s instead of panicking.

use crate::plan::PhysicalPlan;
use pathix_exec::{
    collect_pairs, BoxedPairStream, CancelGuard, CancelToken, EpsilonScanOp, IndexScanOp, JoinOp,
    Pair, PairBatch, PairStream, UnionOp,
};
use pathix_index::{BackendError, BackendResult, PathIndexBackend};
use std::time::{Duration, Instant};

/// Executes `plan` against `index`, returning the answer as a sorted,
/// duplicate-free pair list (the paper's set semantics). The operator tree
/// emits exactly that, so nothing is sorted or deduplicated afterwards.
pub fn execute<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    index: &B,
) -> BackendResult<Vec<Pair>> {
    collect_pairs(open_answer(plan, index)?)
}

/// Opens the root of `plan` for a drain that returns it as the answer. The
/// answer is not sorted or deduplicated afterwards, so a root that does not
/// declare itself distinct and source-ordered — strictly ascending — is an
/// error instead of a wrong answer.
fn open_answer<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
) -> BackendResult<BoxedPairStream<'a>> {
    let stream = open_stream(plan, index)?;
    if !(stream.is_distinct() && stream.sortedness().is_by_source()) {
        return Err(BackendError::new(
            "exec",
            "plan root is not strictly ascending in (source, target)",
        ));
    }
    Ok(stream)
}

/// Timing and size information recorded by [`execute_with_stats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecutionStats {
    /// Wall-clock time spent in the operator tree.
    pub elapsed: Duration,
    /// Number of distinct result pairs.
    pub result_pairs: usize,
    /// Number of pairs pulled from the root of the operator tree. Every
    /// operator emits its pairs strictly ascending and duplicate-free, so a
    /// full drain pulls exactly `result_pairs`. A cursor can pull a
    /// different number: it stops early at a `limit`, and its bindings
    /// filter pairs after they are pulled. That makes early termination
    /// observable.
    pub pairs_pulled: usize,
    /// Number of joins in the executed plan.
    pub joins: usize,
    /// Always 0: the engine has one join operator, which hashes its right
    /// input and reads its left input in source order; no merge join is
    /// left. Kept so existing readers of the statistics still compile.
    pub merge_joins: usize,
}

/// Executes `plan` and reports execution statistics along with the result.
pub fn execute_with_stats<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    index: &B,
) -> BackendResult<(Vec<Pair>, ExecutionStats)> {
    let start = Instant::now();
    let mut stream = open_answer(plan, index)?;
    let mut result = Vec::new();
    let mut batch = PairBatch::new();
    while stream.next_batch(&mut batch)? > 0 {
        result.extend(batch.iter());
    }
    debug_assert!(
        result.windows(2).all(|w| w[0] < w[1]),
        "the operator tree must emit strictly ascending pairs"
    );
    let stats = ExecutionStats {
        elapsed: start.elapsed(),
        result_pairs: result.len(),
        pairs_pulled: result.len(),
        joins: plan.join_count(),
        merge_joins: 0,
    };
    Ok((result, stats))
}

/// Executes `plan` pair-at-a-time (no batching anywhere above the backend),
/// returning the answer: every pair pulled from the root.
///
/// This is the pre-vectorization execution mode, kept as the reference for
/// differential tests and as the baseline the `scan_join` experiment
/// measures the batched engine against.
pub fn execute_pairwise<B: PathIndexBackend + ?Sized>(
    plan: &PhysicalPlan,
    index: &B,
) -> BackendResult<Vec<Pair>> {
    let mut stream = open_answer(plan, index)?;
    let mut result = Vec::new();
    while let Some(pair) = stream.next_pair()? {
        result.push(pair);
    }
    Ok(result)
}

/// Recursively builds the operator tree for a plan and returns its root as a
/// pull-based pair stream.
///
/// This is the streaming entry point: callers that want incremental results
/// (cursors, `limit`, `exists`) pull pairs one at a time instead of
/// materializing the whole answer via [`execute`]. The stream borrows both
/// the plan and the index.
pub fn open_stream<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
) -> BackendResult<BoxedPairStream<'a>> {
    build_stream(plan, index, None)
}

/// [`open_stream`] with cooperative cancellation: every operator in the tree
/// is wrapped in a [`CancelGuard`] sharing `token`, so a tripped token (or an
/// expired deadline) interrupts the stream at the next batch boundary — even
/// deep inside a selective join that pulls many child batches per output
/// pair. The cancellation surfaces as a backend error whose backend name is
/// [`pathix_exec::CANCEL_BACKEND`].
pub fn open_stream_cancellable<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
    token: &CancelToken,
) -> BackendResult<BoxedPairStream<'a>> {
    build_stream(plan, index, Some(token))
}

fn build_stream<'a, B: PathIndexBackend + ?Sized>(
    plan: &'a PhysicalPlan,
    index: &'a B,
    token: Option<&CancelToken>,
) -> BackendResult<BoxedPairStream<'a>> {
    let stream: BoxedPairStream<'a> = match plan {
        PhysicalPlan::IndexScan { path, orientation } => {
            Box::new(IndexScanOp::new(index, path, *orientation)?)
        }
        PhysicalPlan::Epsilon => Box::new(EpsilonScanOp::new(index.node_count())),
        PhysicalPlan::Join { left, right } => Box::new(JoinOp::new(
            build_stream(left, index, token)?,
            build_stream(right, index, token)?,
        )),
        PhysicalPlan::Union(children) => {
            let streams: Vec<BoxedPairStream<'a>> = children
                .iter()
                .map(|child| build_stream(child, index, token))
                .collect::<BackendResult<_>>()?;
            Box::new(UnionOp::new(streams))
        }
    };
    Ok(match token {
        Some(token) => Box::new(CancelGuard::new(stream, token.clone())),
        None => stream,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::planner::{plan_query, PlannerContext, Strategy};
    use pathix_datagen::paper_example_graph;
    use pathix_graph::{Graph, NodeId};
    use pathix_index::{naive_path_eval, EstimationMode, PathHistogram, SharedKPathIndex};
    use pathix_rpq::{parse, to_disjuncts, RewriteOptions};

    fn fixture(k: usize) -> (Graph, SharedKPathIndex, PathHistogram) {
        let g = paper_example_graph();
        let index = SharedKPathIndex::build(&g, k);
        let hist = PathHistogram::build(
            index.per_path_counts(),
            index.paths_k_size(),
            k,
            EstimationMode::default(),
        );
        (g, index, hist)
    }

    /// Reference answer: union of the per-disjunct reference evaluations.
    fn reference(g: &Graph, query: &str, star_bound: u32) -> Vec<Pair> {
        let expr = parse(query).unwrap().bind(g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::with_star_bound(star_bound)).unwrap();
        let mut out = Vec::new();
        for d in disjuncts {
            out.extend(naive_path_eval(g, &d));
        }
        out.sort_unstable();
        out.dedup();
        out
    }

    #[test]
    fn all_strategies_agree_with_the_reference_on_paper_queries() {
        let queries = [
            "knows",
            "knows/worksFor",
            "supervisor/worksFor-",
            "knows/(knows/worksFor){2,4}/worksFor",
            "(supervisor|worksFor|worksFor-){4,5}",
            "knows-/knows",
            "worksFor?",
            "knows{0,3}",
        ];
        for k in 1..=3 {
            let (g, index, hist) = fixture(k);
            let ctx = PlannerContext::new(&index, &hist);
            for query in queries {
                let expected = reference(&g, query, 4);
                let expr = parse(query).unwrap().bind(&g).unwrap();
                let disjuncts = to_disjuncts(&expr, RewriteOptions::with_star_bound(4)).unwrap();
                for strategy in Strategy::all() {
                    let plan = plan_query(strategy, &disjuncts, &ctx);
                    let result = execute(&plan, &index).unwrap();
                    assert_eq!(
                        result, expected,
                        "strategy {strategy} disagrees on {query:?} with k={k}"
                    );
                }
            }
        }
    }

    #[test]
    fn paper_worked_example_supervisor_works_for_inverse() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("supervisor/worksFor-").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::MinSupport, &disjuncts, &ctx);
        let result = execute(&plan, &index).unwrap();
        let kim = g.node_id("kim").unwrap();
        let sue = g.node_id("sue").unwrap();
        assert_eq!(result, vec![(kim, sue)]);
    }

    #[test]
    fn epsilon_query_returns_identity() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("()").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::SemiNaive, &disjuncts, &ctx);
        let result = execute(&plan, &index).unwrap();
        assert_eq!(result.len(), g.node_count());
        assert!(result.iter().all(|&(a, b)| a == b));
    }

    #[test]
    fn execute_with_stats_reports_plan_shape() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("knows/worksFor/knows/worksFor")
            .unwrap()
            .bind(&g)
            .unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::SemiNaive, &disjuncts, &ctx);
        let (result, stats) = execute_with_stats(&plan, &index).unwrap();
        assert_eq!(stats.result_pairs, result.len());
        assert_eq!(stats.joins, 1);
        assert_eq!(stats.merge_joins, 0);
    }

    #[test]
    fn a_root_out_of_source_order_is_an_error() {
        // An inverse scan is target-ordered; its drain is not the answer, so
        // every draining entry point refuses it instead of returning it.
        let (g, index, _) = fixture(2);
        let path = parse("knows").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&path, RewriteOptions::default()).unwrap();
        let plan = PhysicalPlan::IndexScan {
            path: disjuncts[0].clone(),
            orientation: pathix_exec::ScanOrientation::Inverse,
        };
        assert!(execute(&plan, &index).is_err());
        assert!(execute_with_stats(&plan, &index).is_err());
        assert!(execute_pairwise(&plan, &index).is_err());
    }

    #[test]
    fn queries_with_no_matches_return_empty() {
        let (g, index, hist) = fixture(2);
        let ctx = PlannerContext::new(&index, &hist);
        // supervisor/supervisor has no 2-path in the example graph (only one
        // supervisor edge exists).
        let expr = parse("supervisor/supervisor").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        for strategy in Strategy::all() {
            let plan = plan_query(strategy, &disjuncts, &ctx);
            assert!(
                execute(&plan, &index).unwrap().is_empty(),
                "strategy {strategy}"
            );
        }
    }

    #[test]
    fn execution_works_through_a_trait_object() {
        let (g, index, hist) = fixture(2);
        let dyn_index: &dyn PathIndexBackend = &index;
        let ctx = PlannerContext::new(dyn_index, &hist);
        let expr = parse("knows/worksFor").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::MinJoin, &disjuncts, &ctx);
        let via_dyn = execute(&plan, dyn_index).unwrap();
        let via_concrete = execute(&plan, &index).unwrap();
        assert_eq!(via_dyn, via_concrete);
    }

    #[test]
    fn results_are_sorted_and_unique() {
        let (g, index, hist) = fixture(3);
        let ctx = PlannerContext::new(&index, &hist);
        let expr = parse("(knows|worksFor){1,3}").unwrap().bind(&g).unwrap();
        let disjuncts = to_disjuncts(&expr, RewriteOptions::default()).unwrap();
        let plan = plan_query(Strategy::MinJoin, &disjuncts, &ctx);
        let result = execute(&plan, &index).unwrap();
        assert!(result.windows(2).all(|w| w[0] < w[1]));
        assert!(result
            .iter()
            .all(|&(a, b)| a.0 < g.node_count() as u32 && b.0 < g.node_count() as u32));
        let _ = NodeId(0); // silence unused import lint paths in some cfgs
    }
}
