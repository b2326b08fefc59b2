//! Physical plan representation.

use pathix_exec::ScanOrientation;
use pathix_rpq::LabelPath;

/// A physical execution plan for an RPQ (or one of its disjuncts).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PhysicalPlan {
    /// A prefix scan of the k-path index for one label path of length ≤ k.
    IndexScan {
        /// The label path to scan (in its semantic, non-inverted form).
        path: LabelPath,
        /// Whether the scan reads `p` or `p⁻` (target-sorted).
        orientation: ScanOrientation,
    },
    /// The identity relation ε.
    Epsilon,
    /// Composition of two sub-plans on their shared middle node.
    Join {
        /// Producer of the path prefix; read in source order.
        left: Box<PhysicalPlan>,
        /// Producer of the path suffix.
        right: Box<PhysicalPlan>,
    },
    /// Union of the plans of all disjuncts, merged into their set union.
    Union(Vec<PhysicalPlan>),
}

impl PhysicalPlan {
    /// A forward index scan leaf.
    pub fn scan(path: LabelPath) -> PhysicalPlan {
        PhysicalPlan::IndexScan {
            path,
            orientation: ScanOrientation::Forward,
        }
    }

    /// Composes two plans on their shared middle node.
    ///
    /// Every plan node emits its pairs in `(source, target)` order, which is
    /// the order the join reads its left input in, so leaf scans stay
    /// forward: the index's own sort order (§5) serves every join.
    pub fn compose(left: PhysicalPlan, right: PhysicalPlan) -> PhysicalPlan {
        PhysicalPlan::Join {
            left: Box::new(left),
            right: Box::new(right),
        }
    }

    /// Total number of joins in the plan.
    pub fn join_count(&self) -> usize {
        match self {
            PhysicalPlan::IndexScan { .. } | PhysicalPlan::Epsilon => 0,
            PhysicalPlan::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            PhysicalPlan::Union(children) => children.iter().map(PhysicalPlan::join_count).sum(),
        }
    }

    /// Number of index-scan leaves in the plan.
    pub fn scan_count(&self) -> usize {
        match self {
            PhysicalPlan::IndexScan { .. } => 1,
            PhysicalPlan::Epsilon => 0,
            PhysicalPlan::Join { left, right, .. } => left.scan_count() + right.scan_count(),
            PhysicalPlan::Union(children) => children.iter().map(PhysicalPlan::scan_count).sum(),
        }
    }

    /// Length of the longest label path scanned by any leaf.
    pub fn max_scanned_path_len(&self) -> usize {
        match self {
            PhysicalPlan::IndexScan { path, .. } => path.len(),
            PhysicalPlan::Epsilon => 0,
            PhysicalPlan::Join { left, right, .. } => left
                .max_scanned_path_len()
                .max(right.max_scanned_path_len()),
            PhysicalPlan::Union(children) => children
                .iter()
                .map(PhysicalPlan::max_scanned_path_len)
                .max()
                .unwrap_or(0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathix_graph::SignedLabel;

    fn p(codes: &[u16]) -> LabelPath {
        codes.iter().map(|&c| SignedLabel::from_code(c)).collect()
    }

    #[test]
    fn compose_keeps_scans_forward() {
        let inner = PhysicalPlan::compose(PhysicalPlan::scan(p(&[0])), PhysicalPlan::scan(p(&[2])));
        assert_eq!(
            inner,
            PhysicalPlan::Join {
                left: Box::new(PhysicalPlan::scan(p(&[0]))),
                right: Box::new(PhysicalPlan::scan(p(&[2]))),
            }
        );
        let outer = PhysicalPlan::compose(inner, PhysicalPlan::scan(p(&[4])));
        assert_eq!(outer.join_count(), 2);
        assert_eq!(outer.scan_count(), 3);
        let with_epsilon =
            PhysicalPlan::compose(PhysicalPlan::Epsilon, PhysicalPlan::scan(p(&[0])));
        assert_eq!(with_epsilon.join_count(), 1);
        assert_eq!(with_epsilon.scan_count(), 1);
    }

    #[test]
    fn counters_on_union_plans() {
        let d1 = PhysicalPlan::compose(PhysicalPlan::scan(p(&[0, 2])), PhysicalPlan::scan(p(&[4])));
        let d2 = PhysicalPlan::scan(p(&[0]));
        let union = PhysicalPlan::Union(vec![d1, d2, PhysicalPlan::Epsilon]);
        assert_eq!(union.join_count(), 1);
        assert_eq!(union.scan_count(), 3);
        assert_eq!(union.max_scanned_path_len(), 2);
    }
}
