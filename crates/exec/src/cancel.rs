//! Cooperative cancellation and deadlines for streaming execution.
//!
//! A serving tier cannot afford a query that hogs a worker forever: an
//! unbound scan over a large index can pull millions of pairs. The exec layer
//! is pull-based, so cancellation is cooperative — a [`CancelToken`] is
//! shared between the request handler and the operator tree, and a
//! [`CancelGuard`] wrapped around every operator checks it at batch
//! boundaries. When the token is cancelled (explicitly, or because its
//! deadline passed), the next pull returns a [`BackendError`] whose backend
//! name is [`CANCEL_BACKEND`]; upper layers translate that marker into their
//! own cancellation/deadline error variants.
//!
//! The check is engineered to be cheap enough to sit on the per-pair path:
//! one relaxed atomic load per pull, with the (vDSO, but still pricier)
//! deadline clock read amortized to every `DEADLINE_STRIDE`-th pair pull.
//! Batch pulls always take the full check — a batch is already hundreds of
//! pairs of work.

use crate::operator::{BoxedPairStream, Pair, PairStream, Sortedness};
use pathix_index::backend::{BackendResult, PairBatch};
use pathix_index::BackendError;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The `BackendError::backend()` marker of an injected cancellation error.
/// Upper layers match on this to distinguish "the consumer gave up" from a
/// real storage failure.
pub const CANCEL_BACKEND: &str = "cancelled";

/// How many pair-at-a-time pulls may pass between deadline clock reads.
const DEADLINE_STRIDE: u64 = 64;

#[derive(Debug)]
struct Inner {
    cancelled: AtomicBool,
    deadline: Option<Instant>,
}

/// A shared, clonable cancellation handle with an optional deadline.
///
/// Cloning is cheap (one `Arc` bump); all clones observe the same state.
/// Equality is identity: two tokens compare equal iff they are clones of the
/// same allocation, which keeps `QueryOptions` comparable without pretending
/// two independent tokens with the same deadline are interchangeable.
#[derive(Debug, Clone)]
pub struct CancelToken {
    inner: Arc<Inner>,
}

impl CancelToken {
    /// A token that never expires on its own; only [`CancelToken::cancel`]
    /// trips it.
    pub fn new() -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: None,
            }),
        }
    }

    /// A token that expires at `deadline` (and can still be cancelled
    /// earlier).
    pub fn with_deadline(deadline: Instant) -> Self {
        CancelToken {
            inner: Arc::new(Inner {
                cancelled: AtomicBool::new(false),
                deadline: Some(deadline),
            }),
        }
    }

    /// A token that expires `budget` from now.
    pub fn with_budget(budget: Duration) -> Self {
        Self::with_deadline(Instant::now() + budget)
    }

    /// Requests cancellation. Idempotent; takes effect at the stream's next
    /// cancellation check.
    pub fn cancel(&self) {
        self.inner.cancelled.store(true, Ordering::Release);
    }

    /// `true` once [`CancelToken::cancel`] has been called (deadline expiry
    /// does not set this flag — see [`CancelToken::is_cancelled`]).
    pub fn cancel_requested(&self) -> bool {
        self.inner.cancelled.load(Ordering::Acquire)
    }

    /// The deadline, if the token carries one.
    pub fn deadline(&self) -> Option<Instant> {
        self.inner.deadline
    }

    /// `true` once the deadline (if any) has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.inner
            .deadline
            .is_some_and(|deadline| Instant::now() >= deadline)
    }

    /// `true` once the token is tripped for either reason: explicit
    /// cancellation or deadline expiry.
    pub fn is_cancelled(&self) -> bool {
        self.cancel_requested() || self.deadline_exceeded()
    }

    /// The full check: errors with a [`CANCEL_BACKEND`] marker when the token
    /// is tripped for either reason.
    pub fn check(&self) -> BackendResult<()> {
        if self.cancel_requested() {
            return Err(cancel_error("query cancelled"));
        }
        if self.deadline_exceeded() {
            return Err(cancel_error("deadline exceeded"));
        }
        Ok(())
    }
}

impl Default for CancelToken {
    fn default() -> Self {
        Self::new()
    }
}

impl PartialEq for CancelToken {
    fn eq(&self, other: &Self) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }
}

impl Eq for CancelToken {}

fn cancel_error(message: &str) -> BackendError {
    BackendError::new(CANCEL_BACKEND, message)
}

/// A [`PairStream`] wrapper that checks a [`CancelToken`] on every pull.
///
/// The planner wraps *every* operator in the tree, not just the root: a
/// single root-level `next_batch` on a selective join can pull thousands of
/// child batches before producing output, so a root-only check could overrun
/// a deadline by an unbounded amount. With every node guarded, the work
/// between two checks is bounded by one leaf batch.
pub struct CancelGuard<'a> {
    inner: BoxedPairStream<'a>,
    token: CancelToken,
    /// Pair pulls since the guard was created, for deadline-check striding.
    pulls: u64,
}

impl<'a> CancelGuard<'a> {
    pub fn new(inner: BoxedPairStream<'a>, token: CancelToken) -> Self {
        CancelGuard {
            inner,
            token,
            pulls: 0,
        }
    }
}

impl PairStream for CancelGuard<'_> {
    fn next_pair(&mut self) -> BackendResult<Option<Pair>> {
        if self.token.cancel_requested() {
            return Err(cancel_error("query cancelled"));
        }
        self.pulls += 1;
        if self.pulls.is_multiple_of(DEADLINE_STRIDE) && self.token.deadline_exceeded() {
            return Err(cancel_error("deadline exceeded"));
        }
        self.inner.next_pair()
    }

    fn next_batch(&mut self, batch: &mut PairBatch) -> BackendResult<usize> {
        self.token.check()?;
        self.inner.next_batch(batch)
    }

    fn sortedness(&self) -> Sortedness {
        self.inner.sortedness()
    }

    fn is_distinct(&self) -> bool {
        self.inner.is_distinct()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scan::MaterializedOp;
    use pathix_graph::NodeId;

    fn pairs(n: u32) -> Vec<Pair> {
        (0..n).map(|i| (NodeId(i), NodeId(i + 1))).collect()
    }

    fn guarded(n: u32, token: &CancelToken) -> CancelGuard<'static> {
        CancelGuard::new(
            Box::new(MaterializedOp::new(pairs(n), Sortedness::BySource)),
            token.clone(),
        )
    }

    #[test]
    fn untripped_token_is_transparent() {
        let token = CancelToken::new();
        let mut stream = guarded(3, &token);
        assert_eq!(stream.sortedness(), Sortedness::BySource);
        let mut seen = 0;
        while stream.next_pair().unwrap().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 3);
    }

    #[test]
    fn cancel_interrupts_both_pull_shapes() {
        let token = CancelToken::new();
        let mut stream = guarded(10, &token);
        assert!(stream.next_pair().unwrap().is_some());
        token.cancel();
        let err = stream.next_pair().expect_err("cancel must interrupt");
        assert_eq!(err.backend(), CANCEL_BACKEND);

        let token = CancelToken::new();
        let mut stream = guarded(10, &token);
        token.cancel();
        let mut batch = PairBatch::new();
        let err = stream
            .next_batch(&mut batch)
            .expect_err("cancel must interrupt");
        assert_eq!(err.backend(), CANCEL_BACKEND);
    }

    #[test]
    fn expired_deadline_interrupts_batches_immediately() {
        let token = CancelToken::with_budget(Duration::ZERO);
        assert!(token.deadline_exceeded());
        assert!(!token.cancel_requested());
        assert!(token.is_cancelled());
        let mut stream = guarded(10, &token);
        let mut batch = PairBatch::new();
        let err = stream
            .next_batch(&mut batch)
            .expect_err("expired deadline must interrupt");
        assert_eq!(err.backend(), CANCEL_BACKEND);
        assert!(err.to_string().contains("deadline"));
    }

    #[test]
    fn expired_deadline_interrupts_pair_pulls_within_one_stride() {
        let token = CancelToken::with_budget(Duration::ZERO);
        let n = DEADLINE_STRIDE as u32 * 2;
        let mut stream = guarded(n, &token);
        let mut pulled = 0u64;
        let err = loop {
            match stream.next_pair() {
                Ok(Some(_)) => pulled += 1,
                Ok(None) => panic!("stream must be interrupted before exhaustion"),
                Err(e) => break e,
            }
        };
        assert_eq!(err.backend(), CANCEL_BACKEND);
        assert!(pulled < DEADLINE_STRIDE, "checked within one stride");
    }

    #[test]
    fn clones_share_state_and_compare_by_identity() {
        let token = CancelToken::new();
        let clone = token.clone();
        assert_eq!(token, clone);
        assert_ne!(token, CancelToken::new());
        clone.cancel();
        assert!(token.cancel_requested());
        assert!(token.check().is_err());
        assert!(CancelToken::default().check().is_ok());
        assert!(CancelToken::new().deadline().is_none());
        assert!(CancelToken::with_budget(Duration::from_secs(3600))
            .deadline()
            .is_some());
    }
}
