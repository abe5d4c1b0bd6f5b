//! Service-level gauges: lock-free counters a serving layer hangs off the
//! engine it fronts.
//!
//! The engine itself never sheds or queues — sessions are `&mut`-driven and
//! apply exactly what they are handed. Admission control lives above it (the
//! `scout-server` crate), but the *numbers* belong down here: every handle
//! cloned from the same engine shares one [`ServiceGauges`], so a fleet of
//! server threads fronting one engine reports one coherent admitted / queued
//! / shed picture, and operators can read it from any handle without knowing
//! the serving topology.
//!
//! All counters are relaxed atomics: they are monitoring data, not
//! synchronization. A reader may observe a momentarily stale snapshot during
//! concurrent updates; it never observes a torn one.
//!
//! # Example
//!
//! ```
//! use scout_core::ScoutEngine;
//!
//! let engine = ScoutEngine::new();
//! engine.gauges().record_admitted();
//! engine.gauges().record_queued();
//! engine.gauges().record_dequeued();
//! engine.gauges().record_shed();
//!
//! let stats = engine.clone().gauges().snapshot();
//! assert_eq!(stats.admitted, 1);
//! assert_eq!(stats.queued, 0);
//! assert_eq!(stats.queue_peak, 1);
//! assert_eq!(stats.shed, 1);
//! ```

use std::sync::atomic::{AtomicU64, Ordering};

/// Shared admission counters for every serving thread fronting one engine.
///
/// See the [module docs](self) for the design; obtain the instance via
/// [`ScoutEngine::gauges`](crate::ScoutEngine::gauges).
#[derive(Debug, Default)]
pub struct ServiceGauges {
    /// Batches accepted straight into a session.
    admitted: AtomicU64,
    /// Batches currently parked in per-tenant queues (a depth, not a total).
    queued: AtomicU64,
    /// High-water mark of `queued`.
    queue_peak: AtomicU64,
    /// Batches refused with a shed error.
    shed: AtomicU64,
}

impl ServiceGauges {
    /// Fresh gauges, all zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Counts one batch admitted directly (no queueing).
    pub fn record_admitted(&self) {
        self.admitted.fetch_add(1, Ordering::Relaxed);
    }

    /// Counts one batch parked in a tenant queue, maintaining the peak.
    pub fn record_queued(&self) {
        let depth = self.queued.fetch_add(1, Ordering::Relaxed) + 1;
        self.queue_peak.fetch_max(depth, Ordering::Relaxed);
    }

    /// Counts one parked batch leaving its queue (drained into a session or
    /// dropped with its tenant). Saturates at zero rather than wrapping, so
    /// a double-drain bug shows up as a stuck-low gauge instead of a 2^64
    /// queue depth.
    pub fn record_dequeued(&self) {
        let _ = self
            .queued
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |depth| {
                depth.checked_sub(1)
            });
    }

    /// Counts one batch refused under overload.
    pub fn record_shed(&self) {
        self.shed.fetch_add(1, Ordering::Relaxed);
    }

    /// A coherent-enough point-in-time copy of all four counters.
    pub fn snapshot(&self) -> ServiceStats {
        ServiceStats {
            admitted: self.admitted.load(Ordering::Relaxed),
            queued: self.queued.load(Ordering::Relaxed),
            queue_peak: self.queue_peak.load(Ordering::Relaxed),
            shed: self.shed.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of [`ServiceGauges`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ServiceStats {
    /// Batches accepted straight into a session.
    pub admitted: u64,
    /// Batches parked in per-tenant queues at snapshot time.
    pub queued: u64,
    /// High-water mark of the queue depth.
    pub queue_peak: u64,
    /// Batches refused with a shed error.
    pub shed: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate_and_track_peak() {
        let gauges = ServiceGauges::new();
        for _ in 0..3 {
            gauges.record_queued();
        }
        gauges.record_dequeued();
        gauges.record_queued();
        gauges.record_admitted();
        gauges.record_shed();

        let stats = gauges.snapshot();
        assert_eq!(stats.admitted, 1);
        assert_eq!(stats.queued, 3);
        assert_eq!(stats.queue_peak, 3);
        assert_eq!(stats.shed, 1);
    }

    #[test]
    fn dequeue_saturates_at_zero() {
        let gauges = ServiceGauges::new();
        gauges.record_dequeued();
        assert_eq!(gauges.snapshot().queued, 0);
        gauges.record_queued();
        gauges.record_dequeued();
        gauges.record_dequeued();
        assert_eq!(gauges.snapshot().queued, 0);
        assert_eq!(gauges.snapshot().queue_peak, 1);
    }

    #[test]
    fn gauges_are_shared_across_engine_handles() {
        let engine = crate::ScoutEngine::new();
        let clone = engine.clone();
        engine.gauges().record_shed();
        clone.gauges().record_admitted();
        let stats = engine.gauges().snapshot();
        assert_eq!((stats.admitted, stats.shed), (1, 1));
    }
}
