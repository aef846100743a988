//! Protocol outcomes and errors.

use triad_comm::{CommStats, FaultStats, RunError, Tally, Transcript};
use triad_graph::Triangle;

/// The verdict of a one-sided triangle-freeness test.
///
/// All protocols in this crate have one-sided error: a returned triangle
/// always exists in the input graph, so `TriangleFound` is a certificate.
/// `NoTriangleFound` means "accept as triangle-free", which is wrong with
/// probability at most δ when the input is ε-far.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TestOutcome {
    /// A witness triangle was exposed.
    TriangleFound(Triangle),
    /// No triangle surfaced; the tester accepts.
    NoTriangleFound,
}

impl TestOutcome {
    /// `true` if a witness triangle was found.
    pub fn found_triangle(&self) -> bool {
        matches!(self, TestOutcome::TriangleFound(_))
    }

    /// The witness triangle, if any.
    pub fn triangle(&self) -> Option<Triangle> {
        match self {
            TestOutcome::TriangleFound(t) => Some(*t),
            TestOutcome::NoTriangleFound => None,
        }
    }

    /// `true` if the tester accepts the graph as triangle-free.
    pub fn accepts(&self) -> bool {
        !self.found_triangle()
    }
}

impl From<Option<Triangle>> for TestOutcome {
    fn from(t: Option<Triangle>) -> Self {
        match t {
            Some(t) => TestOutcome::TriangleFound(t),
            None => TestOutcome::NoTriangleFound,
        }
    }
}

/// A completed protocol execution: verdict plus communication
/// statistics, generic over the cost recorder. The default
/// (`R = Transcript`) carries the full event log behind `triad report`;
/// amplified sweeps use [`TallyRun`], which carries only counters (see
/// `docs/RUNTIME.md`).
#[derive(Debug, Clone)]
pub struct ProtocolRun<R = Transcript> {
    /// The tester's verdict.
    pub outcome: TestOutcome,
    /// Bits, rounds and message counts of the run.
    pub stats: CommStats,
    /// The recorder: the full per-phase event log by default, or a
    /// [`Tally`] of the same charges.
    pub transcript: R,
}

/// A run recorded by the zero-allocation [`Tally`] — what amplified
/// sweeps return.
pub type TallyRun = ProtocolRun<Tally>;

impl<R> ProtocolRun<R> {
    /// The verdict as the stable string used in exported reports.
    pub fn outcome_str(&self) -> &'static str {
        if self.outcome.found_triangle() {
            "triangle-found"
        } else {
            "accepted"
        }
    }
}

/// One repetition, as [`Repeatable::run_prepared`] returns it: the run,
/// the unrecovered fault that ended it, and the faults injected along
/// the way. Without a fault plan, `fault` is `None` and nothing is
/// injected.
///
/// A repetition a fault killed keeps every bit it spent in `run`; its
/// verdict is only trustworthy when it is a witness (see
/// [`single_run_verdict`](crate::chaos::single_run_verdict)).
///
/// [`Repeatable::run_prepared`]: crate::amplify::Repeatable::run_prepared
#[derive(Debug, Clone)]
pub struct Rep<R = Tally> {
    /// Verdict, statistics and recorder of the repetition.
    pub run: ProtocolRun<R>,
    /// The first unrecovered fault, if any.
    pub fault: Option<RunError>,
    /// Faults injected during the repetition, recovered ones included.
    pub injected: FaultStats,
}

/// Errors raised before or during a protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ProtocolError {
    /// The player shares or parameters are malformed.
    InvalidInput(String),
}

impl std::fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProtocolError::InvalidInput(msg) => write!(f, "invalid input: {msg}"),
        }
    }
}

impl std::error::Error for ProtocolError {}

/// Validates that every share edge fits the graph's vertex range — the
/// common precondition of every protocol runner.
pub(crate) fn validate_shares(
    g: &triad_graph::Graph,
    partition: &triad_graph::partition::Partition,
) -> Result<(), ProtocolError> {
    validate_shares_n(g.vertex_count(), partition)
}

/// [`validate_shares`] against a bare vertex count — what graph-free
/// prepared inputs (shares partitioned off an out-of-core store) use. A
/// scheme-built partition is in range by construction and is not
/// scanned.
pub(crate) fn validate_shares_n(
    n: usize,
    partition: &triad_graph::partition::Partition,
) -> Result<(), ProtocolError> {
    if partition.canonical_below(n) {
        return Ok(());
    }
    for share in partition.shares() {
        for e in share {
            if e.v().index() >= n {
                return Err(ProtocolError::InvalidInput(format!(
                    "edge {e} outside graph on {n} vertices"
                )));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use triad_graph::VertexId;

    #[test]
    fn outcome_accessors() {
        let t = Triangle::new(VertexId(0), VertexId(1), VertexId(2));
        let found = TestOutcome::TriangleFound(t);
        assert!(found.found_triangle());
        assert!(!found.accepts());
        assert_eq!(found.triangle(), Some(t));
        let none = TestOutcome::NoTriangleFound;
        assert!(none.accepts());
        assert_eq!(none.triangle(), None);
        assert_eq!(TestOutcome::from(Some(t)), found);
        assert_eq!(TestOutcome::from(None), none);
    }

    #[test]
    fn error_display_and_traits() {
        let e = ProtocolError::InvalidInput("k must be positive".into());
        assert!(e.to_string().contains("k must be positive"));
        fn assert_send_sync<T: Send + Sync + std::error::Error>() {}
        assert_send_sync::<ProtocolError>();
    }
}
