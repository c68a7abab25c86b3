//! Typed communication errors and the stall watchdog's report format.
//!
//! Every fallible point-to-point operation of `Comm` (`isend`, `recv`,
//! `wait`, `waitall`, …) returns `Result<_, CommError>`, so callers that
//! must survive adversity (the engine, the chaos suite, resilient solvers)
//! get a typed error instead of a dead thread or a parked-forever wait.
//! `barrier` and the collectives panic with the same `Display` text.

use crate::world::Tag;
use std::fmt;
use std::sync::Arc;
use std::time::Duration;

/// A failed communication operation: returned by the point-to-point
/// [`Comm`] API, and the panic text of `barrier` and the collectives.
///
/// [`Comm`]: crate::Comm
#[derive(Debug, Clone, PartialEq, Eq)]
#[must_use = "a CommError reports lost or undeliverable messages and must be handled"]
pub enum CommError {
    /// The matched message's size differs from the posted receive buffer.
    /// The message is consumed and discarded; the sender is released.
    Truncated {
        src: usize,
        tag: Tag,
        /// Bytes the receive buffer expected.
        expected: usize,
        /// Bytes the message actually carried.
        got: usize,
    },
    /// The peer rank was killed by the fault plan: the operation can never
    /// complete. When `peer` equals the calling rank, the caller itself is
    /// the injected casualty and must stop communicating.
    PeerDead { peer: usize },
    /// The stall watchdog declared the whole world wedged and poisoned it.
    /// Every subsequent operation on any rank fails fast with the same
    /// report instead of blocking.
    Poisoned { report: Arc<StallReport> },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Truncated {
                src,
                tag,
                expected,
                got,
            } => write!(
                f,
                "truncated: message from rank {src} (tag {tag}) has {got} bytes, \
                 receive buffer expects {expected}"
            ),
            CommError::PeerDead { peer } => write!(f, "peer dead: rank {peer} was killed"),
            CommError::Poisoned { report } => {
                write!(f, "world poisoned by stall watchdog\n{report}")
            }
        }
    }
}

impl std::error::Error for CommError {}

/// What a blocked rank was doing when the watchdog sampled it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PendingKind {
    /// Blocked in a receive (or a wait on a receive request).
    Recv,
    /// Blocked waiting for a rendezvous send buffer to be consumed.
    SendWait,
    /// Blocked in `barrier`.
    Barrier,
    /// Parked by an injected stall (`FaultPlan::stall_rank`).
    Stalled,
}

impl fmt::Display for PendingKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            PendingKind::Recv => "recv",
            PendingKind::SendWait => "send-wait",
            PendingKind::Barrier => "barrier",
            PendingKind::Stalled => "stalled (injected)",
        };
        f.write_str(s)
    }
}

/// One rank's pending operation at stall-detection time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PendingOp {
    pub kind: PendingKind,
    /// Peer rank the operation is waiting on, when the kind has one.
    pub peer: Option<usize>,
    /// Message tag being matched, when the kind has one.
    pub tag: Option<Tag>,
    /// Byte count of the expected message, when known at post time.
    pub bytes: Option<usize>,
    /// How long the operation had been blocked when sampled.
    pub blocked: Duration,
}

/// The watchdog's dump of a quiesced-but-incomplete world: per rank, who
/// waits on whom, on which tag, for how many bytes. This is what CI prints
/// instead of hanging.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StallReport {
    /// The configured watchdog timeout that expired.
    pub timeout: Duration,
    /// Value of the global progress counter when the stall was declared.
    pub progress: u64,
    /// One entry per rank; `None` means the rank was not blocked inside
    /// the communication layer (computing, exited, or stuck elsewhere).
    pub ranks: Vec<Option<PendingOp>>,
}

impl StallReport {
    /// Number of ranks blocked inside the communication layer.
    #[must_use]
    pub fn blocked_ranks(&self) -> usize {
        self.ranks.iter().filter(|r| r.is_some()).count()
    }
}

impl fmt::Display for StallReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "stall: no progress for {:.0} ms with {} of {} ranks blocked \
             (progress counter {})",
            self.timeout.as_secs_f64() * 1e3,
            self.blocked_ranks(),
            self.ranks.len(),
            self.progress
        )?;
        for (rank, op) in self.ranks.iter().enumerate() {
            match op {
                None => writeln!(f, "  rank {rank}: not blocked in comm")?,
                Some(op) => {
                    write!(f, "  rank {rank}: {}", op.kind)?;
                    if let Some(peer) = op.peer {
                        write!(f, " on rank {peer}")?;
                    }
                    if let Some(tag) = op.tag {
                        write!(f, " tag {tag}")?;
                    }
                    if let Some(bytes) = op.bytes {
                        write!(f, " ({bytes} bytes)")?;
                    }
                    writeln!(f, ", blocked {:.1} ms", op.blocked.as_secs_f64() * 1e3)?;
                }
            }
        }
        Ok(())
    }
}
