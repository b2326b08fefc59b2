//! Counting maintenance of the k-path index under batches of edge updates.
//!
//! The paper builds `I_{G,k}` once over a static graph; keeping the index
//! consistent while the graph changes is the natural follow-up. This module
//! keeps, next to the published graph epochs, one **walk-count table**: every
//! `⟨p, a, b⟩` entry carries the number of distinct walks of shape `p` from
//! `a` to `b`, plus the per-path cardinalities and the `|paths_k(G)|`
//! bookkeeping derived from it.
//!
//! A batch is absorbed with the counting view-maintenance rule (Gupta,
//! Mumick & Subrahmanian, SIGMOD 1993). Write `R₁⋯Rₙ` for the walk-count
//! matrix of a path of length n, `Rᵢ` for the old epoch's adjacency of step
//! i, `Rᵢ'` for the new epoch's and `ΔRᵢ = Rᵢ' − Rᵢ`. Then
//!
//! ```text
//! R₁'⋯Rₙ' − R₁⋯Rₙ = Σᵢ R₁⋯Rᵢ₋₁ · ΔRᵢ · Rᵢ₊₁'⋯Rₙ'
//! ```
//!
//! so one pass over the batch's net change set — each changed edge signed
//! ±1, prefix walks counted on the old epoch and suffix walks on the new one
//! — yields every entry's exact walk-count delta. An entry appears when its
//! count leaves zero and disappears exactly when its last walk dies. The
//! prefix and suffix walks stay inside the k-neighborhood of the changed
//! edges, so a batch touches only that neighborhood rather than the whole
//! index.
//!
//! The graph epochs ([`Graph::commit_net`]) are the only adjacency: the
//! table never stores edges of its own.

use crate::backend::{DeltaBatch, EntryChange, EntryDeltas};
use crate::pathkey::{decode_entry, encode_entry, encode_path_prefix, prefix_successor};
use pathix_audit::{AuditReport, StructuralAudit};
use pathix_graph::{EdgeOp, Graph, LabelId, NodeId, SignedLabel, VocabBatch};
use pathix_rpq::ast::inverse_path;
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::ops::Bound;

/// An edge update handed to `PathDb::apply`: by interned ids, or by external
/// names that the database interns on the fly (streaming ingest).
///
/// A batch of updates has **net** semantics per `(label, src, dst)` key (see
/// [`Graph::commit_net`]): only the first and last update of a key matter,
/// and the key changes only when both agree and differ from the graph. An
/// insert and a delete of the same edge in one batch therefore cancel out.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphUpdate {
    /// Insert the edge `src --label--> dst` (no-op if already present).
    InsertEdge {
        /// Source node.
        src: NodeId,
        /// Edge label.
        label: LabelId,
        /// Target node.
        dst: NodeId,
    },
    /// Delete the edge `src --label--> dst` (no-op if absent).
    DeleteEdge {
        /// Source node.
        src: NodeId,
        /// Edge label.
        label: LabelId,
        /// Target node.
        dst: NodeId,
    },
    /// Insert an edge by external names, interning any unseen node or label
    /// name into the database's live vocabulary (streaming ingest).
    InsertEdgeNamed {
        /// Source node name.
        src: String,
        /// Edge label name.
        label: String,
        /// Target node name.
        dst: String,
    },
    /// Delete an edge by external names. Unknown names make this a no-op
    /// (nothing is interned: a deletion cannot create vocabulary).
    DeleteEdgeNamed {
        /// Source node name.
        src: String,
        /// Edge label name.
        label: String,
        /// Target node name.
        dst: String,
    },
}

impl GraphUpdate {
    /// Shorthand for an id-based insertion.
    pub fn insert(src: NodeId, label: LabelId, dst: NodeId) -> Self {
        GraphUpdate::InsertEdge { src, label, dst }
    }

    /// Shorthand for an id-based deletion.
    pub fn delete(src: NodeId, label: LabelId, dst: NodeId) -> Self {
        GraphUpdate::DeleteEdge { src, label, dst }
    }

    /// Shorthand for a name-based insertion.
    pub fn insert_named(
        src: impl Into<String>,
        label: impl Into<String>,
        dst: impl Into<String>,
    ) -> Self {
        GraphUpdate::InsertEdgeNamed {
            src: src.into(),
            label: label.into(),
            dst: dst.into(),
        }
    }

    /// Shorthand for a name-based deletion.
    pub fn delete_named(
        src: impl Into<String>,
        label: impl Into<String>,
        dst: impl Into<String>,
    ) -> Self {
        GraphUpdate::DeleteEdgeNamed {
            src: src.into(),
            label: label.into(),
            dst: dst.into(),
        }
    }

    /// The already-resolved edge operation, or `None` for the named variants
    /// (which need a vocabulary to resolve against).
    pub fn as_op(&self) -> Option<EdgeOp> {
        match *self {
            GraphUpdate::InsertEdge { src, label, dst } => Some(EdgeOp::insert(src, label, dst)),
            GraphUpdate::DeleteEdge { src, label, dst } => Some(EdgeOp::delete(src, label, dst)),
            GraphUpdate::InsertEdgeNamed { .. } | GraphUpdate::DeleteEdgeNamed { .. } => None,
        }
    }
}

/// Packs a node pair into one map key.
#[inline]
fn pack_pair(a: NodeId, b: NodeId) -> u64 {
    ((a.0 as u64) << 32) | b.0 as u64
}

/// Walk counts per far endpoint, for each label path anchored at one node.
type WalksByPath = Vec<(Vec<SignedLabel>, HashMap<NodeId, u64>)>;

/// The writer's walk-count table of the k-path index.
///
/// It maps every `⟨p, a, b⟩` entry to its number of walks and keeps the
/// per-path cardinalities and the `|paths_k(G)|` refcounts that the
/// histogram and the backends need. [`IncrementalKPathIndex::apply_batch`]
/// commits a batch to the graph and absorbs its net change set, so the
/// visible pair sets always equal what a full rebuild over the new epoch
/// would produce.
///
/// ```
/// use pathix_graph::{EdgeOp, GraphBuilder, SignedLabel};
/// use pathix_index::{EntryDeltas, IncrementalKPathIndex};
///
/// let mut b = GraphBuilder::new();
/// b.add_edge_named("ada", "knows", "jan");
/// let graph = b.build();
/// let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 2);
///
/// let mut batch = graph.vocab_batch();
/// let (jan, zoe) = (batch.intern_node("jan"), batch.intern_node("zoe"));
/// let knows = batch.label_id("knows").unwrap();
/// let mut log = EntryDeltas::new();
/// let (next, changes) = index
///     .apply_batch(&graph, batch, &[EdgeOp::insert(jan, knows, zoe)], &mut log)
///     .unwrap();
/// assert_eq!(changes.len(), 1);
/// let kk = [SignedLabel::forward(knows); 2];
/// let ada = next.node_id("ada").unwrap();
/// assert_eq!(index.scan_path(&kk), vec![(ada, zoe)]);
/// ```
#[derive(Debug, Clone)]
pub struct IncrementalKPathIndex {
    k: usize,
    /// `⟨p, a, b⟩ → walk count`; every stored count is positive.
    counts: BTreeMap<Vec<u8>, u64>,
    /// Distinct pair count per indexed path (only non-empty paths), sorted by
    /// `(length, path)`.
    per_path: Vec<(Vec<SignedLabel>, u64)>,
    /// `packed (a, b) → number of label paths currently realizing the pair`:
    /// the bookkeeping behind the `|paths_k(G)|` selectivity denominator.
    pair_refs: HashMap<u64, u32>,
    /// Distinct non-identity pairs currently referenced (cached so
    /// [`IncrementalKPathIndex::paths_k_size`] is O(1)).
    linked_pairs: u64,
    /// Number of nodes of the graph epoch the table describes.
    node_count: usize,
}

impl IncrementalKPathIndex {
    /// Creates an empty table with locality parameter `k ≥ 1` — the table of
    /// [`Graph::empty`].
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "the k-path index requires k ≥ 1");
        IncrementalKPathIndex {
            k,
            counts: BTreeMap::new(),
            per_path: Vec::new(),
            pair_refs: HashMap::new(),
            linked_pairs: 0,
            node_count: 0,
        }
    }

    /// Builds the table over an existing graph with bulk counted path
    /// enumeration ([`enumerate_counted_paths`]) and one sorted bulk load.
    pub fn bulk_from_graph(graph: &Graph, k: usize) -> Self {
        let mut index = Self::new(k);
        index.node_count = graph.node_count();
        let mut entries: Vec<(Vec<u8>, u64)> = Vec::new();
        for (path, pairs) in enumerate_counted_paths(graph, k) {
            index.per_path.push((path.clone(), pairs.len() as u64));
            for ((a, b), walks) in pairs {
                entries.push((encode_entry(&path, a, b), walks));
                index.add_pair_ref(a, b);
            }
        }
        entries.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        index.counts = entries.into_iter().collect();
        index
    }

    /// Rebuilds the table from persisted `(entry key, walk count)` pairs —
    /// the values a durable backend (the paged B+tree) stores on disk — for
    /// the graph epoch they were computed over.
    ///
    /// This is the restart path: instead of re-enumerating every counted path
    /// relation of the graph ([`IncrementalKPathIndex::bulk_from_graph`]),
    /// the entries stream straight into the table while one linear pass
    /// recounts the per-path cardinalities and the `|paths_k(G)|`
    /// bookkeeping. `entries` must arrive in ascending key order (the order
    /// any tree scan yields) with strictly positive counts.
    ///
    /// Fails (with a description, to be wrapped by the caller) when a key is
    /// not a well-formed `⟨p, a, b⟩` entry of this graph (a path longer than
    /// k, or a label or node the graph never interned), when a count is
    /// zero, or when the keys are out of order — all symptoms of a corrupt
    /// persisted tree.
    pub fn from_persisted_entries(
        graph: &Graph,
        k: usize,
        entries: impl IntoIterator<Item = (Vec<u8>, u64)>,
    ) -> Result<Self, String> {
        if k < 1 {
            return Err("the k-path index requires k ≥ 1".to_string());
        }
        let mut index = Self::new(k);
        index.node_count = graph.node_count();
        let mut loaded: Vec<(Vec<u8>, u64)> = Vec::new();
        for (key, count) in entries {
            let Some((path, a, b)) = decode_entry(&key) else {
                return Err(format!(
                    "persisted key of {} byte(s) is not a well-formed index entry",
                    key.len()
                ));
            };
            let foreign = path.is_empty()
                || path.len() > k
                || path
                    .iter()
                    .any(|sl| sl.label.index() >= graph.label_count())
                || a.index() >= graph.node_count()
                || b.index() >= graph.node_count();
            if foreign {
                return Err(format!(
                    "persisted entry for path {path:?} pair ({a:?}, {b:?}) does not belong to \
                     the recovered graph ({} nodes, {} labels, k = {k})",
                    graph.node_count(),
                    graph.label_count()
                ));
            }
            if count == 0 {
                return Err(format!(
                    "persisted entry for path {path:?} pair ({a:?}, {b:?}) has a zero walk count"
                ));
            }
            if loaded.last().is_some_and(|(prev, _)| *prev >= key) {
                return Err("persisted entries are not in ascending key order".to_string());
            }
            match index.per_path.last_mut() {
                Some((p, n)) if *p == path => *n += 1,
                _ => index.per_path.push((path, 1)),
            }
            index.add_pair_ref(a, b);
            loaded.push((key, count));
        }
        // Key order is `(length, path, a, b)` order, so `per_path` came out
        // sorted by `(length, path)` already.
        index.counts = loaded.into_iter().collect();
        Ok(index)
    }

    /// The locality parameter k.
    pub fn k(&self) -> usize {
        self.k
    }

    /// Number of `⟨p, a, b⟩` entries currently stored.
    pub fn entry_count(&self) -> usize {
        self.counts.len()
    }

    /// Number of distinct non-empty label paths with at least one pair.
    pub fn distinct_paths(&self) -> usize {
        self.per_path.len()
    }

    /// Number of nodes of the graph epoch the table describes (ids stay
    /// interned, so deletions never shrink it).
    pub fn node_count(&self) -> usize {
        self.node_count
    }

    /// `|paths_k(G)|`: distinct node pairs connected by some path of length
    /// ≤ k, including the `node_count` zero-length identity pairs — the
    /// paper's selectivity denominator, maintained incrementally.
    pub fn paths_k_size(&self) -> u64 {
        self.node_count as u64 + self.linked_pairs
    }

    /// Exact distinct-pair cardinalities `(p, |p(G)|)` sorted by
    /// `(length, path)`, the raw material for rebuilding a
    /// [`crate::PathHistogram`] after a batch of updates.
    pub fn per_path_counts(&self) -> &[(Vec<SignedLabel>, u64)] {
        &self.per_path
    }

    /// Every stored `(entry key, walk count)` pair in key order — the same
    /// shape a paged backend's `counted_entries` yields, so the two copies
    /// can be compared.
    pub fn entries(&self) -> impl Iterator<Item = (&[u8], u64)> + '_ {
        self.counts
            .iter()
            .map(|(key, &count)| (key.as_slice(), count))
    }

    /// `I_{G,k}(⟨p⟩)`: the current pairs of `p(G)` in `(source, target)`
    /// order.
    ///
    /// Panics if `path` is empty or longer than k.
    pub fn scan_path(&self, path: &[SignedLabel]) -> Vec<(NodeId, NodeId)> {
        assert!(
            !path.is_empty() && path.len() <= self.k,
            "scan_path expects a path of length 1..=k"
        );
        let prefix = encode_path_prefix(path);
        let end = prefix_successor(&prefix).map_or(Bound::Unbounded, Bound::Excluded);
        self.counts
            .range::<[u8], _>((
                Bound::Included(prefix.as_slice()),
                end.as_ref().map(Vec::as_slice),
            ))
            .filter_map(|(key, _)| decode_entry(key).map(|(_, a, b)| (a, b)))
            .collect()
    }

    /// Membership test for `⟨p, a, b⟩`.
    pub fn contains(&self, path: &[SignedLabel], source: NodeId, target: NodeId) -> bool {
        self.counts
            .contains_key(&encode_entry(path, source, target))
    }

    /// Number of distinct walks of shape `path` from `source` to `target`
    /// (zero if the pair is not in the index).
    pub fn walk_count(&self, path: &[SignedLabel], source: NodeId, target: NodeId) -> u64 {
        self.counts
            .get(&encode_entry(path, source, target))
            .copied()
            .unwrap_or(0)
    }

    /// Commits `ops` to `graph` as one batch and absorbs it: the graph decides
    /// which ops take effect ([`Graph::commit_net`]), then one counting pass
    /// over that net change set writes one absolute walk count per touched
    /// key into `log` (0 = the key disappeared) together with the key's
    /// existence transition, if any. Returns the next epoch and the net
    /// change set.
    ///
    /// Fails — leaving the table untouched — when a count would drop below
    /// zero, which means the table no longer describes `graph` (for example,
    /// it was seeded from corrupt persisted entries).
    pub fn apply_batch(
        &mut self,
        graph: &Graph,
        batch: VocabBatch,
        ops: &[EdgeOp],
        log: &mut EntryDeltas,
    ) -> Result<(Graph, Vec<EdgeOp>), String> {
        let (next, changes) = graph.commit_net(batch, ops);
        let mut writes: Vec<(Vec<u8>, u64, u64)> = Vec::new();
        for (key, delta) in self.count_deltas(graph, &next, &changes) {
            let old = self.counts.get(&key).copied().unwrap_or(0);
            let new = old as i64 + delta;
            if new < 0 {
                let entry = decode_entry(&key);
                return Err(format!(
                    "walk count of {entry:?} would drop from {old} to {new}: the count table \
                     does not describe the graph it is applied to"
                ));
            }
            writes.push((key, old, new as u64));
        }
        self.node_count = next.node_count();
        for (key, old, new) in writes {
            log.record_count(&key, new);
            if old == 0 {
                log.record(&key, EntryChange::Added);
                self.entry_added(&key);
            } else if new == 0 {
                log.record(&key, EntryChange::Removed);
                self.entry_removed(&key);
            }
            if new == 0 {
                self.counts.remove(&key);
            } else {
                self.counts.insert(key, new);
            }
        }
        Ok((next, changes))
    }

    /// The [`DeltaBatch`] a backend absorbs for the batch that logged
    /// `deltas` and changed `changes`, carrying this table's fresh
    /// statistics and the commit sequence number `seq`.
    pub fn delta_batch<'a>(
        &'a self,
        deltas: &'a EntryDeltas,
        changes: &[EdgeOp],
        seq: u64,
    ) -> DeltaBatch<'a> {
        let inserted = changes.iter().filter(|op| op.insert).count() as u64;
        DeltaBatch {
            deltas,
            per_path_counts: &self.per_path,
            paths_k_size: self.paths_k_size(),
            node_count: self.node_count,
            inserted_edges: inserted,
            deleted_edges: changes.len() as u64 - inserted,
            seq,
        }
    }

    /// The signed walk-count delta of every entry the net change set
    /// touches, in key order, zero deltas dropped: for each changed edge
    /// (signed +1 inserted, −1 deleted) and each of the two orientations in
    /// which it can realize a path step, the product of the prefix walks
    /// ending at the step on `old` and the suffix walks leaving it on `new`.
    fn count_deltas(&self, old: &Graph, new: &Graph, changes: &[EdgeOp]) -> Vec<(Vec<u8>, i64)> {
        let k = self.k;
        let mut delta: HashMap<Vec<SignedLabel>, HashMap<(NodeId, NodeId), i64>> = HashMap::new();
        let mut path: Vec<SignedLabel> = Vec::with_capacity(k);
        for op in changes {
            let sign: i64 = if op.insert { 1 } else { -1 };
            // A `+ℓ` step gains the pair (src, dst), a `ℓ⁻` step gains
            // (dst, src). Every (path, position) combination is covered by
            // exactly one of them, so there is no double counting (including
            // self-loops).
            for (step, from, to) in [
                (SignedLabel::forward(op.label), op.src, op.dst),
                (SignedLabel::backward(op.label), op.dst, op.src),
            ] {
                let prefixes = walks_by_path(old, from, k - 1, true);
                let suffixes = walks_by_path(new, to, k - 1, false);
                for (prefix, sources) in &prefixes {
                    for (suffix, targets) in &suffixes {
                        if prefix.len() + 1 + suffix.len() > k {
                            continue;
                        }
                        path.clear();
                        path.extend_from_slice(prefix);
                        path.push(step);
                        path.extend_from_slice(suffix);
                        let pairs = delta.entry(path.clone()).or_default();
                        for (&a, &ca) in sources {
                            for (&b, &cb) in targets {
                                *pairs.entry((a, b)).or_insert(0) += sign * (ca * cb) as i64;
                            }
                        }
                    }
                }
            }
        }
        let mut out: Vec<(Vec<u8>, i64)> = delta
            .into_iter()
            .flat_map(|(path, pairs)| {
                pairs
                    .into_iter()
                    .filter(|&(_, d)| d != 0)
                    .map(move |((a, b), d)| (encode_entry(&path, a, b), d))
            })
            .collect();
        out.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        out
    }

    fn entry_added(&mut self, key: &[u8]) {
        let Some((path, a, b)) = decode_entry(key) else {
            return;
        };
        match self.path_slot(&path) {
            Ok(i) => self.per_path[i].1 += 1,
            Err(i) => self.per_path.insert(i, (path, 1)),
        }
        self.add_pair_ref(a, b);
    }

    fn entry_removed(&mut self, key: &[u8]) {
        let Some((path, a, b)) = decode_entry(key) else {
            return;
        };
        if let Ok(i) = self.path_slot(&path) {
            self.per_path[i].1 -= 1;
            if self.per_path[i].1 == 0 {
                self.per_path.remove(i);
            }
        }
        let packed = pack_pair(a, b);
        if let Some(refs) = self.pair_refs.get_mut(&packed) {
            *refs -= 1;
            if *refs == 0 {
                self.pair_refs.remove(&packed);
                if a != b {
                    self.linked_pairs -= 1;
                }
            }
        }
    }

    fn add_pair_ref(&mut self, a: NodeId, b: NodeId) {
        let refs = self.pair_refs.entry(pack_pair(a, b)).or_insert(0);
        *refs += 1;
        if *refs == 1 && a != b {
            self.linked_pairs += 1;
        }
    }

    /// Position of `path` in the `(length, path)`-sorted per-path vector.
    fn path_slot(&self, path: &[SignedLabel]) -> Result<usize, usize> {
        self.per_path
            .binary_search_by(|(p, _)| (p.len(), p.as_slice()).cmp(&(path.len(), path)))
    }
}

/// Enumerates, on `graph`, for every label path `q` with `|q| ≤ max_len`,
/// the walk counts between `anchor` and the far endpoint.
///
/// With `toward_anchor = false` the result maps `q → {end ↦ #walks of q from
/// anchor to end}`; with `toward_anchor = true` it maps `q → {start ↦ #walks
/// of q from start to anchor}`. Paths without a walk are left out.
fn walks_by_path(
    graph: &Graph,
    anchor: NodeId,
    max_len: usize,
    toward_anchor: bool,
) -> WalksByPath {
    let mut result: WalksByPath = vec![(Vec::new(), HashMap::from([(anchor, 1u64)]))];
    let mut frontier = 0;
    while frontier < result.len() {
        let (path, counts) = &result[frontier];
        frontier += 1;
        if path.len() == max_len {
            continue;
        }
        let mut grown: WalksByPath = Vec::new();
        for sl in graph.signed_labels() {
            // Walking *toward* the anchor extends the path on the left and
            // traverses the new first step backwards; walking away extends
            // on the right and traverses it forwards.
            let traverse = if toward_anchor { sl.inverse() } else { sl };
            let mut next: HashMap<NodeId, u64> = HashMap::new();
            for (&node, &count) in counts {
                for to in graph.neighbors(node, traverse) {
                    *next.entry(to).or_insert(0) += count;
                }
            }
            if next.is_empty() {
                continue;
            }
            let mut next_path = Vec::with_capacity(path.len() + 1);
            if toward_anchor {
                next_path.push(sl);
                next_path.extend_from_slice(path);
            } else {
                next_path.extend_from_slice(path);
                next_path.push(sl);
            }
            grown.push((next_path, next));
        }
        result.append(&mut grown);
    }
    result
}

/// A label path with its walk-counted pair relation, sorted by `(a, b)`.
pub type CountedRelation = (Vec<SignedLabel>, Vec<((NodeId, NodeId), u64)>);

/// Computes, level by level, the counted relation of every label path of
/// length ≤ k: `path → sorted [((a, b), #walks)]`. The mirror-path trick of
/// [`crate::enumerate_paths`] applies unchanged because walk counts are
/// converse-symmetric. The result is ordered by `(length, path)`.
///
/// Public so durable backends (the paged B+tree) can bulk-build the same
/// counted entries [`IncrementalKPathIndex::bulk_from_graph`] seeds from.
pub fn enumerate_counted_paths(graph: &Graph, k: usize) -> Vec<CountedRelation> {
    let mut result: Vec<CountedRelation> = Vec::new();
    let mut prev: Vec<CountedRelation> = graph
        .signed_labels()
        .filter_map(|sl| {
            let pairs: Vec<((NodeId, NodeId), u64)> = graph
                .signed_pairs(sl)
                .into_iter()
                .map(|pair| (pair, 1))
                .collect();
            (!pairs.is_empty()).then(|| (vec![sl], pairs))
        })
        .collect();
    for _level in 2..=k {
        let mut next: Vec<CountedRelation> = Vec::new();
        for (path, pairs) in &prev {
            for sl in graph.signed_labels() {
                let mut extended = path.clone();
                extended.push(sl);
                let inv = inverse_path(&extended);
                if extended.cmp(&inv) == Ordering::Greater {
                    continue;
                }
                let mut counted: HashMap<(NodeId, NodeId), u64> = HashMap::new();
                for &((a, b), walks) in pairs {
                    for c in graph.neighbors(b, sl) {
                        *counted.entry((a, c)).or_insert(0) += walks;
                    }
                }
                if counted.is_empty() {
                    continue;
                }
                let mut sorted: Vec<_> = counted.into_iter().collect();
                sorted.sort_unstable_by_key(|&(pair, _)| pair);
                if extended != inv {
                    let mut mirror: Vec<_> = sorted
                        .iter()
                        .map(|&((a, b), walks)| ((b, a), walks))
                        .collect();
                    mirror.sort_unstable_by_key(|&(pair, _)| pair);
                    next.push((inv, mirror));
                }
                next.push((extended, sorted));
            }
        }
        result.append(&mut prev);
        prev = next;
    }
    result.append(&mut prev);
    result.sort_by(|a, b| (a.0.len(), &a.0).cmp(&(b.0.len(), &b.0)));
    result
}

impl StructuralAudit for IncrementalKPathIndex {
    /// Recomputes the table's derived state from the stored entries and
    /// compares it with the maintained copies:
    ///
    /// * `entry-decodable` — every stored key is a well-formed `⟨p, a, b⟩`
    ///   entry;
    /// * `walk-count-positive` — no entry survives at a zero walk count (the
    ///   counting rule must remove a pair exactly when its last walk dies);
    /// * `counts-consistent` — the maintained per-path cardinalities equal a
    ///   recount of the stored entries, in `(length, path)` order;
    /// * `pair-refs-consistent` / `linked-pairs` / `paths-k-size` — the
    ///   `|paths_k(G)|` bookkeeping (paths per pair, distinct non-identity
    ///   pairs) equals a recount, so the paper's selectivity denominator
    ///   cannot drift under churn.
    fn audit(&self, report: &mut AuditReport) {
        let mut per_path: Vec<(Vec<SignedLabel>, u64)> = Vec::new();
        let mut refs: HashMap<u64, u32> = HashMap::new();
        let mut undecodable = 0u64;
        let mut zero_count = 0u64;
        let mut first_zero = String::new();
        for (key, &count) in &self.counts {
            let Some((path, a, b)) = decode_entry(key) else {
                undecodable += 1;
                continue;
            };
            if count == 0 {
                zero_count += 1;
                if first_zero.is_empty() {
                    first_zero = format!("path {path:?} pair ({a:?}, {b:?})");
                }
            }
            match per_path.last_mut() {
                Some((p, n)) if *p == path => *n += 1,
                _ => per_path.push((path, 1)),
            }
            *refs.entry(pack_pair(a, b)).or_insert(0) += 1;
        }
        report.check("entry-decodable", "table", undecodable == 0, || {
            format!("{undecodable} stored key(s) are not well-formed index entries")
        });
        report.check("walk-count-positive", "table", zero_count == 0, || {
            format!("{zero_count} entry(ies) stored with a zero walk count, first at {first_zero}")
        });
        report.check(
            "counts-consistent",
            "per-path counts",
            per_path == self.per_path,
            || {
                format!(
                    "maintained {} path cardinalities diverge from a recount of {} stored paths",
                    self.per_path.len(),
                    per_path.len()
                )
            },
        );
        report.check(
            "pair-refs-consistent",
            "pair refs",
            refs == self.pair_refs,
            || {
                format!(
                    "maintained {} pair refcounts diverge from a recount of {}",
                    self.pair_refs.len(),
                    refs.len()
                )
            },
        );
        let linked = refs
            .keys()
            .filter(|&&packed| (packed >> 32) != (packed & u32::MAX as u64))
            .count() as u64;
        report.check(
            "linked-pairs",
            "paths_k bookkeeping",
            self.linked_pairs == linked,
            || {
                format!(
                    "maintained linked_pairs = {} but {linked} distinct non-identity pairs are \
                     stored",
                    self.linked_pairs
                )
            },
        );
        report.check(
            "paths-k-size",
            "paths_k bookkeeping",
            self.paths_k_size() == self.node_count as u64 + linked,
            || {
                format!(
                    "|paths_k(G)| = {} but node_count {} + linked pairs {linked} disagree",
                    self.paths_k_size(),
                    self.node_count
                )
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::naive_path_eval;
    use pathix_datagen::paper_example_graph;
    use pathix_graph::GraphBuilder;

    /// A graph with nodes `n0..` and labels `l0..` interned and no edges.
    fn vocab_graph(nodes: u32, labels: u16) -> Graph {
        let mut b = GraphBuilder::new();
        for n in 0..nodes {
            b.add_node(&format!("n{n}"));
        }
        for l in 0..labels {
            b.add_label(&format!("l{l}"));
        }
        b.build()
    }

    /// Commits `ops` as one batch, returning its log.
    fn step(index: &mut IncrementalKPathIndex, graph: &mut Graph, ops: &[EdgeOp]) -> EntryDeltas {
        let mut log = EntryDeltas::new();
        let (next, _) = index
            .apply_batch(graph, graph.vocab_batch(), ops, &mut log)
            .unwrap();
        *graph = next;
        log
    }

    /// All signed paths of length 1..=k over labels `0..labels`.
    fn all_paths(labels: u16, k: usize) -> Vec<Vec<SignedLabel>> {
        let alphabet: Vec<SignedLabel> = (0..labels)
            .flat_map(|l| {
                [
                    SignedLabel::forward(LabelId(l)),
                    SignedLabel::backward(LabelId(l)),
                ]
            })
            .collect();
        let mut result: Vec<Vec<SignedLabel>> = Vec::new();
        let mut level: Vec<Vec<SignedLabel>> = vec![Vec::new()];
        for _ in 0..k {
            let mut next = Vec::new();
            for p in &level {
                for &sl in &alphabet {
                    let mut q = p.clone();
                    q.push(sl);
                    next.push(q);
                }
            }
            result.extend(next.iter().cloned());
            level = next;
        }
        result
    }

    /// The table equals a bulk rebuild over `graph` — every key and walk
    /// count, the per-path cardinalities and `|paths_k(G)|` — and every
    /// path's pairs equal the independent [`naive_path_eval`] oracle.
    fn assert_matches_rebuild(index: &IncrementalKPathIndex, graph: &Graph, context: &str) {
        let bulk = IncrementalKPathIndex::bulk_from_graph(graph, index.k());
        assert!(
            index.entries().eq(bulk.entries()),
            "walk counts diverge from a rebuild: {context}"
        );
        assert_eq!(index.per_path_counts(), bulk.per_path_counts(), "{context}");
        assert_eq!(index.paths_k_size(), bulk.paths_k_size(), "{context}");
        for path in all_paths(graph.label_count() as u16, index.k()) {
            assert_eq!(
                index.scan_path(&path),
                naive_path_eval(graph, &path),
                "pair set mismatch for path {path:?}: {context}"
            );
        }
        let mut report = AuditReport::new();
        report.run("table", index);
        report.assert_clean(context);
    }

    fn edges_of(graph: &Graph) -> Vec<EdgeOp> {
        graph
            .labels()
            .flat_map(|l| graph.edges(l).map(move |(s, d)| EdgeOp::insert(s, l, d)))
            .collect()
    }

    #[test]
    fn insertions_match_rebuild_after_every_step() {
        let mut graph = vocab_graph(4, 2);
        let (knows, likes) = (LabelId(0), LabelId(1));
        let script = [
            (NodeId(0), knows, NodeId(1)),
            (NodeId(1), knows, NodeId(2)),
            (NodeId(2), likes, NodeId(0)),
            (NodeId(0), likes, NodeId(3)),
            (NodeId(3), knows, NodeId(0)),
            (NodeId(2), knows, NodeId(2)),
            (NodeId(1), likes, NodeId(3)),
        ];
        let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 3);
        for (s, l, d) in script {
            step(&mut index, &mut graph, &[EdgeOp::insert(s, l, d)]);
            assert_matches_rebuild(&index, &graph, &format!("after inserting {s:?}"));
        }
    }

    #[test]
    fn deletions_match_rebuild_after_every_step() {
        let mut graph = paper_example_graph();
        let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 2);
        for op in edges_of(&graph).into_iter().step_by(3) {
            step(
                &mut index,
                &mut graph,
                &[EdgeOp {
                    insert: false,
                    ..op
                }],
            );
            assert_matches_rebuild(&index, &graph, &format!("after deleting {op:?}"));
        }
    }

    #[test]
    fn deleting_everything_empties_the_index() {
        let mut graph = paper_example_graph();
        let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 3);
        let deletes: Vec<EdgeOp> = edges_of(&graph)
            .into_iter()
            .map(|op| EdgeOp {
                insert: false,
                ..op
            })
            .collect();
        let log = step(&mut index, &mut graph, &deletes);
        assert_eq!(index.entry_count(), 0);
        assert_eq!(index.distinct_paths(), 0);
        assert_eq!(index.paths_k_size(), graph.node_count() as u64);
        assert_eq!(graph.edge_count(), 0);
        assert!(log.counts().iter().all(|(_, c)| *c == 0));
    }

    #[test]
    fn insert_then_delete_restores_previous_state() {
        let mut graph = paper_example_graph();
        let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 2);
        let before = index.clone();
        let knows = graph.label_id("knows").unwrap();
        let sue = graph.node_id("sue").unwrap();
        let tim = graph.node_id("tim").unwrap();
        assert!(!graph.has_edge(sue, knows, tim));
        step(&mut index, &mut graph, &[EdgeOp::insert(sue, knows, tim)]);
        assert_ne!(index.entry_count(), before.entry_count());
        step(&mut index, &mut graph, &[EdgeOp::delete(sue, knows, tim)]);
        assert!(index.entries().eq(before.entries()));
        assert_eq!(index.per_path_counts(), before.per_path_counts());
    }

    #[test]
    fn duplicate_insert_and_absent_delete_are_noops() {
        let mut graph = vocab_graph(7, 1);
        let knows = LabelId(0);
        let mut index = IncrementalKPathIndex::new(2);
        step(
            &mut index,
            &mut graph,
            &[EdgeOp::insert(NodeId(0), knows, NodeId(1))],
        );
        let entries = index.entry_count();
        let log = step(
            &mut index,
            &mut graph,
            &[
                EdgeOp::insert(NodeId(0), knows, NodeId(1)),
                EdgeOp::delete(NodeId(5), knows, NodeId(6)),
            ],
        );
        assert!(log.is_empty());
        assert_eq!(index.entry_count(), entries);
    }

    #[test]
    fn pair_survives_while_an_alternative_walk_exists() {
        // Two length-2 walks from 0 to 3: via 1 and via 2. Deleting one leg
        // must keep (0, 3) in the k=2 relation; deleting both removes it.
        let mut graph = vocab_graph(4, 1);
        let l = LabelId(0);
        let mut index = IncrementalKPathIndex::new(2);
        step(
            &mut index,
            &mut graph,
            &[
                EdgeOp::insert(NodeId(0), l, NodeId(1)),
                EdgeOp::insert(NodeId(1), l, NodeId(3)),
                EdgeOp::insert(NodeId(0), l, NodeId(2)),
                EdgeOp::insert(NodeId(2), l, NodeId(3)),
            ],
        );
        let ll = [SignedLabel::forward(l), SignedLabel::forward(l)];
        assert_eq!(index.walk_count(&ll, NodeId(0), NodeId(3)), 2);
        step(
            &mut index,
            &mut graph,
            &[EdgeOp::delete(NodeId(1), l, NodeId(3))],
        );
        assert!(index.contains(&ll, NodeId(0), NodeId(3)));
        assert_eq!(index.walk_count(&ll, NodeId(0), NodeId(3)), 1);
        step(
            &mut index,
            &mut graph,
            &[EdgeOp::delete(NodeId(2), l, NodeId(3))],
        );
        assert!(!index.contains(&ll, NodeId(0), NodeId(3)));
    }

    #[test]
    fn self_loops_are_counted_once_per_walk() {
        let mut graph = vocab_graph(8, 1);
        let l = LabelId(0);
        let mut index = IncrementalKPathIndex::new(3);
        step(
            &mut index,
            &mut graph,
            &[EdgeOp::insert(NodeId(7), l, NodeId(7))],
        );
        assert_matches_rebuild(&index, &graph, "one self-loop");
        // One loop edge yields exactly one walk of each length n: the loop
        // traversed n times (forwards or backwards per step).
        let p = [SignedLabel::forward(l), SignedLabel::backward(l)];
        assert_eq!(index.walk_count(&p, NodeId(7), NodeId(7)), 1);
        step(
            &mut index,
            &mut graph,
            &[EdgeOp::delete(NodeId(7), l, NodeId(7))],
        );
        assert_eq!(index.entry_count(), 0);
    }

    #[test]
    fn scan_output_is_sorted_by_source_then_target() {
        let g = paper_example_graph();
        let index = IncrementalKPathIndex::bulk_from_graph(&g, 2);
        let knows = SignedLabel::forward(g.label_id("knows").unwrap());
        let pairs = index.scan_path(&[knows, knows]);
        assert!(!pairs.is_empty());
        assert!(pairs.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn bulk_build_matches_replayed_insertions() {
        let g = paper_example_graph();
        let empty = g.commit_batch(
            g.vocab_batch(),
            &edges_of(&g)
                .into_iter()
                .map(|op| EdgeOp {
                    insert: false,
                    ..op
                })
                .collect::<Vec<_>>(),
        );
        for k in 1..=3 {
            let mut graph = empty.clone();
            let mut replayed = IncrementalKPathIndex::bulk_from_graph(&graph, k);
            assert_eq!(replayed.entry_count(), 0);
            step(&mut replayed, &mut graph, &edges_of(&g));
            assert_matches_rebuild(&replayed, &graph, &format!("k = {k}"));
        }
    }

    #[test]
    fn bulk_build_stays_consistent_under_further_updates() {
        let mut graph = paper_example_graph();
        let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 2);
        let removed: Vec<EdgeOp> = edges_of(&graph)
            .into_iter()
            .step_by(2)
            .map(|op| EdgeOp {
                insert: false,
                ..op
            })
            .collect();
        step(&mut index, &mut graph, &removed);
        assert_matches_rebuild(&index, &graph, "after a delete batch");
    }

    /// The batch shapes the net rule must get right, for k = 1..3: an insert
    /// and a delete of the same edge in one batch, a re-insert of an edge an
    /// earlier batch deleted, self-loops, an edge whose inverse path is the
    /// canonical one, and vocabulary growth.
    #[test]
    fn mixed_batches_match_a_bulk_rebuild_for_every_k() {
        for k in 1..=3 {
            let mut graph = paper_example_graph();
            let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, k);
            let knows = graph.label_id("knows").unwrap();
            let works = graph.label_id("worksFor").unwrap();
            let sue = graph.node_id("sue").unwrap();
            let tim = graph.node_id("tim").unwrap();
            let kim = graph.node_id("kim").unwrap();
            let existing = edges_of(&graph)[0];
            let removed = EdgeOp {
                insert: false,
                ..existing
            };
            // Insert-and-delete of a fresh edge cancels; deleting an
            // existing edge, a self-loop and a backwards-only edge take
            // effect.
            step(
                &mut index,
                &mut graph,
                &[
                    EdgeOp::insert(sue, knows, tim),
                    removed,
                    EdgeOp::delete(sue, knows, tim),
                    EdgeOp::insert(kim, knows, kim),
                    EdgeOp::insert(tim, works, sue),
                ],
            );
            assert!(!graph.has_edge(sue, knows, tim));
            assert_matches_rebuild(&index, &graph, &format!("k = {k}, batch 1"));
            // Re-insert what the last batch deleted, delete-then-reinsert an
            // existing edge (a no-op) and remove the self-loop again.
            step(
                &mut index,
                &mut graph,
                &[
                    existing,
                    EdgeOp::delete(tim, works, sue),
                    EdgeOp::insert(tim, works, sue),
                    EdgeOp::delete(kim, knows, kim),
                ],
            );
            assert!(graph.has_edge(tim, works, sue));
            assert_matches_rebuild(&index, &graph, &format!("k = {k}, batch 2"));
            // Grow the vocabulary: a new label and new nodes in one batch.
            let mut vocab = graph.vocab_batch();
            let (ann, bob) = (vocab.intern_node("ann"), vocab.intern_node("bob"));
            let mentors = vocab.intern_label("mentors");
            let mut log = EntryDeltas::new();
            let (next, changes) = index
                .apply_batch(
                    &graph,
                    vocab,
                    &[
                        EdgeOp::insert(ann, mentors, bob),
                        EdgeOp::insert(bob, mentors, sue),
                        EdgeOp::insert(sue, knows, ann),
                    ],
                    &mut log,
                )
                .unwrap();
            assert_eq!(changes.len(), 3);
            graph = next;
            assert_matches_rebuild(&index, &graph, &format!("k = {k}, batch 3"));
        }
    }

    #[test]
    fn paths_k_size_matches_the_enumeration_denominator() {
        let g = paper_example_graph();
        for k in 1..=3 {
            let expected = crate::paths_k_cardinality(&g, &crate::enumerate_paths(&g, k));
            assert_eq!(
                IncrementalKPathIndex::bulk_from_graph(&g, k).paths_k_size(),
                expected,
                "k = {k}"
            );
        }
    }

    #[test]
    fn apply_batch_records_key_transitions() {
        let mut graph = vocab_graph(2, 1);
        let knows = LabelId(0);
        let mut index = IncrementalKPathIndex::new(2);

        // A fresh edge creates entries: every logged op is an Added key that
        // the index now contains, with one absolute count per key.
        let log = step(
            &mut index,
            &mut graph,
            &[EdgeOp::insert(NodeId(0), knows, NodeId(1))],
        );
        assert_eq!(log.len(), index.entry_count());
        assert_eq!(log.counts().len(), index.entry_count());
        for (key, change) in log.ops() {
            assert_eq!(*change, EntryChange::Added);
            let (path, a, b) = decode_entry(key).unwrap();
            assert!(index.contains(&path, a, b));
        }

        // Deleting the edge reverses every transition.
        let log = step(
            &mut index,
            &mut graph,
            &[EdgeOp::delete(NodeId(0), knows, NodeId(1))],
        );
        assert!(log.ops().iter().all(|(_, c)| *c == EntryChange::Removed));
        assert_eq!(index.entry_count(), 0);

        // A no-op batch logs nothing.
        let log = step(
            &mut index,
            &mut graph,
            &[EdgeOp::delete(NodeId(0), knows, NodeId(1))],
        );
        assert!(log.is_empty());
    }

    #[test]
    fn replaying_the_log_reproduces_the_key_set() {
        use std::collections::BTreeSet;
        let mut graph = paper_example_graph();
        let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 2);
        let mut shadow: BTreeSet<Vec<u8>> = index.entries().map(|(k, _)| k.to_vec()).collect();

        let mut edges = edges_of(&graph);
        edges.truncate(6);
        let deletes: Vec<EdgeOp> = edges
            .iter()
            .map(|&op| EdgeOp {
                insert: false,
                ..op
            })
            .collect();
        for batch in [deletes, edges] {
            let log = step(&mut index, &mut graph, &batch);
            for (key, change) in log.ops() {
                match change {
                    EntryChange::Added => assert!(shadow.insert(key.clone()), "double add"),
                    EntryChange::Removed => assert!(shadow.remove(key), "remove of absent key"),
                }
            }
        }
        let live: BTreeSet<Vec<u8>> = index.entries().map(|(k, _)| k.to_vec()).collect();
        assert_eq!(shadow, live, "log replay diverged from the index");
    }

    #[test]
    fn a_table_that_does_not_describe_the_graph_is_rejected() {
        // A table seeded from the wrong graph would drive counts negative on
        // a delete; the batch fails and leaves the table untouched.
        let mut graph = paper_example_graph();
        let mut index = IncrementalKPathIndex::new(2);
        let op = edges_of(&graph)[0];
        let mut log = EntryDeltas::new();
        let result = index.apply_batch(
            &graph,
            graph.vocab_batch(),
            &[EdgeOp {
                insert: false,
                ..op
            }],
            &mut log,
        );
        assert!(result.is_err());
        assert_eq!(index.entry_count(), 0);
        assert!(log.is_empty());
        // The same batch on a faithful table succeeds.
        let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 2);
        step(
            &mut index,
            &mut graph,
            &[EdgeOp {
                insert: false,
                ..op
            }],
        );
        assert_matches_rebuild(&index, &graph, "after the delete");
    }

    #[test]
    fn persisted_entries_must_belong_to_the_graph() {
        let g = paper_example_graph();
        let clean = IncrementalKPathIndex::bulk_from_graph(&g, 2);
        let entries = || clean.entries().map(|(k, c)| (k.to_vec(), c));
        let reseeded = IncrementalKPathIndex::from_persisted_entries(&g, 2, entries()).unwrap();
        assert!(reseeded.entries().eq(clean.entries()));
        assert_eq!(reseeded.per_path_counts(), clean.per_path_counts());
        assert_eq!(reseeded.paths_k_size(), clean.paths_k_size());

        let knows = SignedLabel::forward(g.label_id("knows").unwrap());
        let foreign = (encode_entry(&[knows], NodeId(9_999), NodeId(0)), 3);
        let zero = (encode_entry(&[knows], NodeId(0), NodeId(1)), 0);
        let malformed = (vec![1u8, 2, 3], 3);
        for bad in [foreign, zero, malformed] {
            let mut all: Vec<(Vec<u8>, u64)> = entries().collect();
            all.push(bad);
            all.sort();
            assert!(IncrementalKPathIndex::from_persisted_entries(&g, 2, all).is_err());
        }
        let mut unordered: Vec<(Vec<u8>, u64)> = entries().collect();
        unordered.reverse();
        assert!(IncrementalKPathIndex::from_persisted_entries(&g, 2, unordered).is_err());
    }

    #[test]
    #[should_panic(expected = "length 1..=k")]
    fn scanning_longer_than_k_panics() {
        let index = IncrementalKPathIndex::new(1);
        let l = SignedLabel::forward(LabelId(0));
        let _ = index.scan_path(&[l, l]);
    }

    #[test]
    #[should_panic(expected = "k ≥ 1")]
    fn k_zero_is_rejected() {
        let _ = IncrementalKPathIndex::new(0);
    }

    mod property {
        use super::*;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        /// A random update over ≤ 5 nodes and 2 labels; deletions pick
        /// arbitrary edges, so batches freely mix effective and no-op
        /// updates, and repeat keys.
        fn random_op(rng: &mut StdRng) -> EdgeOp {
            let src = NodeId(rng.gen_range(0..5u32));
            let label = LabelId(rng.gen_range(0..2u32) as u16);
            let dst = NodeId(rng.gen_range(0..5u32));
            if rng.gen_bool(0.5) {
                EdgeOp::insert(src, label, dst)
            } else {
                EdgeOp::delete(src, label, dst)
            }
        }

        /// After any script of random batches, the table equals a rebuild
        /// over the graph epoch and every path's pairs equal the oracle.
        #[test]
        fn random_update_scripts_match_oracle() {
            for case in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(0x0AC1E + case);
                let k = rng.gen_range(1..=3usize);
                let mut graph = vocab_graph(5, 2);
                let mut index = IncrementalKPathIndex::new(k);
                for batch in 0..rng.gen_range(1..12usize) {
                    let ops: Vec<EdgeOp> = (0..rng.gen_range(1..8usize))
                        .map(|_| random_op(&mut rng))
                        .collect();
                    step(&mut index, &mut graph, &ops);
                    assert_matches_rebuild(&index, &graph, &format!("case {case}, batch {batch}"));
                }
            }
        }

        /// Walk counts are symmetric under path inversion: the number of
        /// p-walks a→b equals the number of p⁻-walks b→a.
        #[test]
        fn walk_counts_are_converse_symmetric() {
            for case in 0..64u64 {
                let mut rng = StdRng::seed_from_u64(0xC0A0E + case);
                let mut graph = vocab_graph(5, 2);
                let mut index = IncrementalKPathIndex::new(2);
                let ops: Vec<EdgeOp> = (0..rng.gen_range(1..25usize))
                    .map(|_| random_op(&mut rng))
                    .collect();
                for batch in ops.chunks(3) {
                    step(&mut index, &mut graph, batch);
                }
                for path in all_paths(2, 2) {
                    let inv = pathix_rpq::ast::inverse_path(&path);
                    for (a, b) in index.scan_path(&path) {
                        assert_eq!(
                            index.walk_count(&path, a, b),
                            index.walk_count(&inv, b, a),
                            "case {case}"
                        );
                    }
                }
            }
        }
    }

    /// The invariant names the audit reports for `index`, in discovery order.
    fn violated(index: &IncrementalKPathIndex) -> Vec<&'static str> {
        let mut report = AuditReport::new();
        report.run("incremental", index);
        report.violations().iter().map(|v| v.invariant).collect()
    }

    #[test]
    fn audit_is_clean_on_a_maintained_index() {
        let mut graph = paper_example_graph();
        let mut index = IncrementalKPathIndex::bulk_from_graph(&graph, 2);
        assert_eq!(violated(&index), Vec::<&str>::new(), "after bulk seed");
        let knows = graph.label_id("knows").unwrap();
        let sue = graph.node_id("sue").unwrap();
        let tim = graph.node_id("tim").unwrap();
        step(&mut index, &mut graph, &[EdgeOp::insert(sue, knows, tim)]);
        assert_eq!(violated(&index), Vec::<&str>::new(), "after insert");
        step(&mut index, &mut graph, &[EdgeOp::delete(sue, knows, tim)]);
        assert_eq!(violated(&index), Vec::<&str>::new(), "after delete");
    }

    #[test]
    fn seeded_corruption_trips_the_counting_auditor() {
        let g = paper_example_graph();
        let clean = IncrementalKPathIndex::bulk_from_graph(&g, 2);

        // A zero walk count left behind in the table (the counting rule must
        // delete the key instead).
        let mut corrupt = clean.clone();
        let key = corrupt
            .counts
            .keys()
            .next()
            .cloned()
            .expect("non-empty index");
        corrupt.counts.insert(key, 0);
        assert!(
            violated(&corrupt).contains(&"walk-count-positive"),
            "a zero-count entry must trip the auditor"
        );

        // A per-path cardinality that drifted from the stored entries.
        let mut corrupt = clean.clone();
        corrupt.per_path[0].1 += 1;
        assert!(
            violated(&corrupt).contains(&"counts-consistent"),
            "a drifted cardinality must trip the auditor"
        );

        // |paths_k(G)| bookkeeping off by one.
        let mut corrupt = clean.clone();
        corrupt.linked_pairs += 1;
        assert!(
            violated(&corrupt).contains(&"linked-pairs"),
            "a drifted linked-pair count must trip the auditor"
        );

        // A pair refcount that no longer matches the stored paths.
        let mut corrupt = clean.clone();
        let packed = *corrupt.pair_refs.keys().next().expect("non-empty refs");
        *corrupt.pair_refs.get_mut(&packed).unwrap() += 1;
        assert!(
            violated(&corrupt).contains(&"pair-refs-consistent"),
            "a drifted pair refcount must trip the auditor"
        );
    }
}
