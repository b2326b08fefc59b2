//! The cost model driving the histogram-guided strategies.
//!
//! Costs are expressed in "pairs touched": an index scan costs its estimated
//! cardinality, a join costs its inputs (building the right one into a hash
//! table, probing with the left one) plus its estimated output, and a union
//! costs its children plus the merge over their output.
//! Cardinalities come from the k-path histogram via
//! [`pathix_index::CardinalityEstimator`].

use crate::plan::PhysicalPlan;
use pathix_index::CardinalityEstimator;

/// Estimated cardinality and cumulative cost of a plan.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlanCost {
    /// Estimated number of distinct output pairs.
    pub cardinality: f64,
    /// Estimated total work to produce them.
    pub cost: f64,
}

/// Costs a physical plan bottom-up.
pub fn cost_plan(plan: &PhysicalPlan, estimator: &CardinalityEstimator<'_>) -> PlanCost {
    match plan {
        PhysicalPlan::IndexScan { path, .. } => {
            let cardinality = estimator.path_cardinality(path);
            PlanCost {
                cardinality,
                cost: cardinality,
            }
        }
        PhysicalPlan::Epsilon => {
            let n = estimator.node_count() as f64;
            PlanCost {
                cardinality: n,
                cost: n,
            }
        }
        PhysicalPlan::Join { left, right } => {
            let l = cost_plan(left, estimator);
            let r = cost_plan(right, estimator);
            let cardinality = estimator.join_cardinality(l.cardinality, r.cardinality);
            let cost = l.cost + r.cost + l.cardinality + r.cardinality + cardinality;
            PlanCost { cardinality, cost }
        }
        PhysicalPlan::Union(children) => {
            let mut cardinality = 0.0;
            let mut cost = 0.0;
            for child in children {
                let c = cost_plan(child, estimator);
                cardinality += c.cardinality;
                cost += c.cost;
            }
            // The merge touches every produced pair.
            PlanCost {
                cardinality,
                cost: cost + cardinality,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_graph::SignedLabel;
    use pathix_index::{EstimationMode, PathHistogram};

    fn sl(code: u16) -> SignedLabel {
        SignedLabel::from_code(code)
    }

    fn estimator_fixture() -> (PathHistogram, usize) {
        let counts = vec![
            (vec![sl(0)], 100),
            (vec![sl(2)], 10),
            (vec![sl(0), sl(2)], 50),
            (vec![sl(2), sl(0)], 40),
        ];
        (
            PathHistogram::build(&counts, 1000, 2, EstimationMode::Exact),
            100,
        )
    }

    #[test]
    fn scan_cost_is_its_cardinality() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let c = cost_plan(&PhysicalPlan::scan(vec![sl(0)]), &est);
        assert_eq!(c.cardinality, 100.0);
        assert_eq!(c.cost, 100.0);
    }

    #[test]
    fn join_cost_counts_inputs_and_output() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let join = PhysicalPlan::compose(
            PhysicalPlan::scan(vec![sl(0)]),
            PhysicalPlan::scan(vec![sl(2)]),
        );
        let c = cost_plan(&join, &est);
        // Both scans (100 + 10), read again by the join, plus the output.
        assert!((c.cost - (2.0 * (100.0 + 10.0) + c.cardinality)).abs() < 1e-9);
    }

    #[test]
    fn join_cardinality_uses_independence_assumption() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let plan = PhysicalPlan::compose(
            PhysicalPlan::scan(vec![sl(0)]),
            PhysicalPlan::scan(vec![sl(2)]),
        );
        let c = cost_plan(&plan, &est);
        assert!((c.cardinality - 100.0 * 10.0 / 100.0).abs() < 1e-9);
    }

    #[test]
    fn selective_scans_produce_cheaper_plans() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let cheap = cost_plan(&PhysicalPlan::scan(vec![sl(2)]), &est);
        let pricey = cost_plan(&PhysicalPlan::scan(vec![sl(0)]), &est);
        assert!(cheap.cost < pricey.cost);
    }

    #[test]
    fn union_cost_sums_children_plus_dedup() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let union = PhysicalPlan::Union(vec![
            PhysicalPlan::scan(vec![sl(0)]),
            PhysicalPlan::scan(vec![sl(2)]),
        ]);
        let c = cost_plan(&union, &est);
        assert_eq!(c.cardinality, 110.0);
        assert_eq!(c.cost, 100.0 + 10.0 + 110.0);
    }

    /// Regression test for the zero-estimate degeneration: a label path
    /// absent from the histogram used to estimate 0, so every plan containing
    /// it cost ~0 and the `minSupport`/`minJoin` cost comparison could not
    /// tell candidates apart. With the floor of 1 the ordering stays strict.
    #[test]
    fn absent_paths_floor_at_one_so_cost_ordering_never_degenerates() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        // sl(9) is absent from the histogram.
        let absent = PhysicalPlan::scan(vec![sl(9)]);
        let c = cost_plan(&absent, &est);
        assert_eq!(c.cardinality, 1.0, "absent paths estimate the floor");
        assert!(c.cost >= 1.0);

        // A join involving the absent path still costs strictly more than the
        // bare scans it contains — zero estimates used to collapse this sum.
        let join = PhysicalPlan::compose(
            PhysicalPlan::scan(vec![sl(0)]),
            PhysicalPlan::scan(vec![sl(9)]),
        );
        let cj = cost_plan(&join, &est);
        let scan0 = cost_plan(&PhysicalPlan::scan(vec![sl(0)]), &est);
        assert!(cj.cost > scan0.cost, "{cj:?} vs {scan0:?}");
        assert!(cj.cardinality > 0.0);

        // And two candidates that differ only in a known sub-path keep their
        // strict cost order even when both contain the absent path.
        let cheap = PhysicalPlan::compose(
            PhysicalPlan::scan(vec![sl(2)]),
            PhysicalPlan::scan(vec![sl(9)]),
        );
        let pricey = PhysicalPlan::compose(
            PhysicalPlan::scan(vec![sl(0)]),
            PhysicalPlan::scan(vec![sl(9)]),
        );
        assert!(
            cost_plan(&cheap, &est).cost < cost_plan(&pricey, &est).cost,
            "cost ordering must not degenerate on paths with no statistics"
        );
    }

    #[test]
    fn epsilon_costs_node_count() {
        let (h, n) = estimator_fixture();
        let est = CardinalityEstimator::new(&h, n);
        let c = cost_plan(&PhysicalPlan::Epsilon, &est);
        assert_eq!(c.cardinality, n as f64);
    }
}
