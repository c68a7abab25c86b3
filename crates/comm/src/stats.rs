//! Per-world traffic statistics.
//!
//! The paper attributes part of the hybrid modes' scalability advantage to
//! "the smaller number of messages in the hybrid case (message
//! aggregation)" (§4). These counters make that claim measurable on our
//! substrate: the ablation bench compares message counts and volumes across
//! the per-core / per-LD / per-node layouts.

use std::sync::atomic::{AtomicU64, Ordering};

/// A point-in-time copy of a world's traffic counters, split by whether
/// each message stayed within a node or crossed the network — the
/// quantity node-aware aggregation (Bienz et al.) optimizes. Without a
/// node mapping ([`crate::CommWorld::create_with_nodes`]) every rank
/// counts as its own node, so all non-self traffic is "inter-node".
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CommStats {
    /// Total point-to-point messages.
    pub messages: u64,
    /// Total point-to-point payload bytes.
    pub bytes: u64,
    /// Largest single message.
    pub max_message_bytes: u64,
    /// Messages between ranks sharing a node.
    pub intra_messages: u64,
    /// Payload bytes between ranks sharing a node.
    pub intra_bytes: u64,
    /// Messages crossing a node boundary.
    pub inter_messages: u64,
    /// Payload bytes crossing a node boundary.
    pub inter_bytes: u64,
}

impl CommStats {
    /// Counter-wise difference (`self` minus an earlier `baseline`) —
    /// isolates the traffic of one measured phase.
    pub fn since(&self, baseline: &CommStats) -> CommStats {
        CommStats {
            messages: self.messages - baseline.messages,
            bytes: self.bytes - baseline.bytes,
            max_message_bytes: self.max_message_bytes,
            intra_messages: self.intra_messages - baseline.intra_messages,
            intra_bytes: self.intra_bytes - baseline.intra_bytes,
            inter_messages: self.inter_messages - baseline.inter_messages,
            inter_bytes: self.inter_bytes - baseline.inter_bytes,
        }
    }
}

/// Aggregate point-to-point traffic counters for one communication world.
#[derive(Debug, Default)]
pub struct WorldStats {
    messages: AtomicU64,
    bytes: AtomicU64,
    max_message_bytes: AtomicU64,
    intra_messages: AtomicU64,
    intra_bytes: AtomicU64,
}

impl WorldStats {
    pub(crate) fn record_message(&self, bytes: usize, inter_node: bool) {
        self.messages.fetch_add(1, Ordering::Relaxed);
        self.bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        self.max_message_bytes
            .fetch_max(bytes as u64, Ordering::Relaxed);
        if !inter_node {
            self.intra_messages.fetch_add(1, Ordering::Relaxed);
            self.intra_bytes.fetch_add(bytes as u64, Ordering::Relaxed);
        }
    }

    /// Total point-to-point messages sent since creation (collectives and
    /// self-messages excluded).
    pub fn messages(&self) -> u64 {
        self.messages.load(Ordering::Relaxed)
    }

    /// Total point-to-point payload bytes.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Largest single message seen.
    pub fn max_message_bytes(&self) -> u64 {
        self.max_message_bytes.load(Ordering::Relaxed)
    }

    /// Messages between ranks sharing a node.
    pub fn intra_messages(&self) -> u64 {
        self.intra_messages.load(Ordering::Relaxed)
    }

    /// Messages crossing a node boundary.
    pub fn inter_messages(&self) -> u64 {
        self.messages() - self.intra_messages()
    }

    /// Payload bytes between ranks sharing a node.
    pub fn intra_bytes(&self) -> u64 {
        self.intra_bytes.load(Ordering::Relaxed)
    }

    /// Payload bytes crossing a node boundary.
    pub fn inter_bytes(&self) -> u64 {
        self.bytes() - self.intra_bytes()
    }

    /// A point-in-time copy of all counters. Consistent only when no rank
    /// is mid-send (e.g. after a barrier).
    pub fn snapshot(&self) -> CommStats {
        let (messages, bytes) = (self.messages(), self.bytes());
        let (intra_messages, intra_bytes) = (self.intra_messages(), self.intra_bytes());
        CommStats {
            messages,
            bytes,
            max_message_bytes: self.max_message_bytes(),
            intra_messages,
            intra_bytes,
            inter_messages: messages - intra_messages,
            inter_bytes: bytes - intra_bytes,
        }
    }

    /// Counter deltas accumulated since `baseline` — the snapshot-diffing
    /// idiom (`stats().snapshot()` before, `phase_delta` after) every
    /// bench used to hand-roll. Meaningful only when both ends sit
    /// outside in-flight traffic, e.g. bracketed by barriers; the
    /// engine's `RankEngine::phase_delta` wraps exactly that dance.
    pub fn phase_delta(&self, baseline: &CommStats) -> CommStats {
        self.snapshot().since(baseline)
    }

    /// Resets all counters (e.g. after warm-up iterations).
    pub fn reset(&self) {
        self.messages.store(0, Ordering::Relaxed);
        self.bytes.store(0, Ordering::Relaxed);
        self.max_message_bytes.store(0, Ordering::Relaxed);
        self.intra_messages.store(0, Ordering::Relaxed);
        self.intra_bytes.store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let s = WorldStats::default();
        s.record_message(100, true);
        s.record_message(50, false);
        assert_eq!(s.messages(), 2);
        assert_eq!(s.bytes(), 150);
        assert_eq!(s.max_message_bytes(), 100);
        assert_eq!(s.intra_messages(), 1);
        assert_eq!(s.intra_bytes(), 50);
        assert_eq!(s.inter_messages(), 1);
        assert_eq!(s.inter_bytes(), 100);
    }

    #[test]
    fn snapshot_and_since() {
        let s = WorldStats::default();
        s.record_message(100, true);
        let base = s.snapshot();
        s.record_message(30, false);
        s.record_message(70, true);
        let delta = s.snapshot().since(&base);
        assert_eq!(delta.messages, 2);
        assert_eq!(delta.bytes, 100);
        assert_eq!(delta.intra_messages, 1);
        assert_eq!(delta.intra_bytes, 30);
        assert_eq!(delta.inter_messages, 1);
        assert_eq!(delta.inter_bytes, 70);
    }

    #[test]
    fn phase_delta_matches_snapshot_since() {
        let s = WorldStats::default();
        s.record_message(40, true);
        let base = s.snapshot();
        s.record_message(60, false);
        let delta = s.phase_delta(&base);
        assert_eq!(delta, s.snapshot().since(&base));
        assert_eq!(delta.messages, 1);
        assert_eq!(delta.bytes, 60);
        assert_eq!(delta.intra_messages, 1);
    }

    #[test]
    fn reset_zeroes_everything() {
        let s = WorldStats::default();
        s.record_message(10, false);
        s.reset();
        assert_eq!(s.messages(), 0);
        assert_eq!(s.bytes(), 0);
        assert_eq!(s.snapshot(), CommStats::default());
    }
}
