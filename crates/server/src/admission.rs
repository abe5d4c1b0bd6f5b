//! Per-tenant admission control: token quotas and bounded FIFO queues (a
//! queue capacity of 0 makes admission shed-only).
//!
//! The controller is **pure bookkeeping** — it never touches an engine or a
//! session, which is what makes it property-testable in isolation (see the
//! tests at the bottom). The server composes it in front of the ingest path:
//!
//! ```text
//!            ┌───────────────────────────────────────────────┐
//!            │                 offer(tenant, batch)          │
//!            └───────────────────────────────────────────────┘
//!                                  │
//!                tokens > 0 and queue empty?
//!                  │ yes                     │ no
//!                  ▼                         ▼
//!             Admit(batch)              queue has room?
//!         (caller ingests now)        │ yes              │ no
//!                                     ▼                  ▼
//!                              Queued { depth }   Shed { retry_hint }
//!                            (drained by tick())  (batch NOT accepted)
//! ```
//!
//! Two invariants the property tests pin:
//!
//! * **Order**: a tenant's batches are applied in offer order. That is why
//!   `Admit` requires an *empty* queue — once anything is parked, later
//!   arrivals park behind it even if tokens are available, otherwise a
//!   drained queue would replay epochs behind an already-applied one.
//! * **Shed is stateless**: a shed offer changes nothing — not the queue,
//!   not the tokens — so a retrying client observes the same controller it
//!   first hit.
//!
//! Token accounting is saturating `u64` arithmetic: a quota can never go
//! negative, and a refill can never exceed the configured burst capacity.

use scout_fabric::EventBatch;
use std::collections::{BTreeMap, VecDeque};

use crate::messages::TenantId;

/// Tuning for one [`AdmissionController`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdmissionConfig {
    /// Token-bucket burst capacity (and the opening balance of a fresh
    /// lane). One batch costs one token.
    pub quota_tokens: u64,
    /// Tokens granted back per [`AdmissionController::tick`], capped at
    /// `quota_tokens`.
    pub refill_per_tick: u64,
    /// Bounded per-tenant queue length: a batch that arrives while the
    /// tenant is out of tokens parks here, and is shed once the queue is
    /// full. `0` sheds immediately and never queues.
    pub queue_capacity: usize,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        Self {
            quota_tokens: 8,
            refill_per_tick: 4,
            queue_capacity: 16,
        }
    }
}

/// The controller's verdict on one offered batch.
#[derive(Debug, PartialEq)]
pub enum Admission {
    /// Under quota: the batch is handed back for immediate application.
    Admit(EventBatch),
    /// Over quota but within the queue bound: the controller now owns the
    /// batch and will release it from [`AdmissionController::tick`].
    Queued {
        /// The tenant's queue depth including this batch.
        depth: usize,
    },
    /// Refused. The controller owns nothing; the caller must resend after
    /// roughly `retry_hint` ticks.
    Shed {
        /// Ticks until the backlog can have drained at the refill rate.
        retry_hint: u64,
    },
}

/// One tenant's admission lane.
#[derive(Debug)]
struct Lane {
    tokens: u64,
    queue: VecDeque<EventBatch>,
}

/// Token quotas and bounded queues for every registered tenant.
///
/// See the [module docs](self) for the admission state machine.
#[derive(Debug)]
pub struct AdmissionController {
    config: AdmissionConfig,
    lanes: BTreeMap<TenantId, Lane>,
}

impl AdmissionController {
    /// A controller with no registered tenants.
    pub fn new(config: AdmissionConfig) -> Self {
        Self {
            config,
            lanes: BTreeMap::new(),
        }
    }

    /// Opens a lane for `tenant` with a full token bucket. Idempotent: an
    /// existing lane (and anything queued in it) is left untouched.
    pub fn register(&mut self, tenant: TenantId) {
        self.lanes.entry(tenant).or_insert_with(|| Lane {
            tokens: self.config.quota_tokens,
            queue: VecDeque::new(),
        });
    }

    /// Drops `tenant`'s lane, returning any still-queued batches so the
    /// caller can account for them (a closing server drains them into the
    /// session before answering; a dying one loses only what was never
    /// durably accepted).
    pub fn deregister(&mut self, tenant: TenantId) -> Vec<EventBatch> {
        self.lanes
            .remove(&tenant)
            .map(|lane| lane.queue.into())
            .unwrap_or_default()
    }

    /// `tenant`'s current token balance (0 for unknown tenants).
    pub fn tokens(&self, tenant: TenantId) -> u64 {
        self.lanes.get(&tenant).map_or(0, |lane| lane.tokens)
    }

    /// `tenant`'s current queue depth (0 for unknown tenants).
    pub fn queue_depth(&self, tenant: TenantId) -> usize {
        self.lanes.get(&tenant).map_or(0, |lane| lane.queue.len())
    }

    /// The batch at the head of `tenant`'s queue, if any.
    pub fn peek_queued(&self, tenant: TenantId) -> Option<&EventBatch> {
        self.lanes.get(&tenant).and_then(|lane| lane.queue.front())
    }

    /// Pops the head of `tenant`'s queue without a token charge — the close
    /// path's drain, where quota no longer matters but the pop must happen
    /// only after the batch was durably applied.
    pub fn pop_queued(&mut self, tenant: TenantId) -> Option<EventBatch> {
        self.lanes
            .get_mut(&tenant)
            .and_then(|lane| lane.queue.pop_front())
    }

    /// Returns one token to `tenant`'s lane (capped at the burst capacity).
    /// The server refunds an admitted batch its backend failed to apply:
    /// the batch was not consumed, the client must resend the same epoch,
    /// and a storage-stressed tenant must not be double-billed for it.
    pub fn refund(&mut self, tenant: TenantId) {
        if let Some(lane) = self.lanes.get_mut(&tenant) {
            lane.tokens = lane.tokens.saturating_add(1).min(self.config.quota_tokens);
        }
    }

    /// Puts `batches` — released by one [`AdmissionController::tick`] and
    /// not applied — back at the head of `tenant`'s queue in their order,
    /// refunding the token each one was released with.
    pub fn requeue(&mut self, tenant: TenantId, batches: Vec<EventBatch>) {
        for _ in &batches {
            self.refund(tenant);
        }
        if let Some(lane) = self.lanes.get_mut(&tenant) {
            for batch in batches.into_iter().rev() {
                lane.queue.push_front(batch);
            }
        }
    }

    /// Batches parked across all lanes.
    pub fn total_queued(&self) -> usize {
        self.lanes.values().map(|lane| lane.queue.len()).sum()
    }

    /// Offers one batch for `tenant`. The tenant must be registered — an
    /// unknown tenant is shed with a zero hint (the server layers its own
    /// `UnknownTenant` error above this).
    pub fn offer(&mut self, tenant: TenantId, batch: EventBatch) -> Admission {
        let config = self.config;
        let Some(lane) = self.lanes.get_mut(&tenant) else {
            return Admission::Shed { retry_hint: 0 };
        };
        if lane.tokens > 0 && lane.queue.is_empty() {
            lane.tokens -= 1;
            return Admission::Admit(batch);
        }
        if lane.queue.len() < config.queue_capacity {
            lane.queue.push_back(batch);
            return Admission::Queued {
                depth: lane.queue.len(),
            };
        }
        Admission::Shed {
            retry_hint: Self::retry_hint(lane.queue.len(), &config),
        }
    }

    /// How many ticks until a lane with `backlog` queued batches can have
    /// drained at the refill rate — what a shed client is told.
    fn retry_hint(backlog: usize, config: &AdmissionConfig) -> u64 {
        let refill = config.refill_per_tick.max(1);
        (backlog as u64 + 1).div_ceil(refill)
    }

    /// One scheduling round: refill every lane's tokens (capped at the
    /// burst capacity), then drain queued batches in FIFO order while
    /// tokens last. Lanes drain in ascending tenant order, so the whole
    /// controller is deterministic given the same offer history.
    pub fn tick(&mut self) -> Vec<(TenantId, EventBatch)> {
        let mut released = Vec::new();
        for (&tenant, lane) in &mut self.lanes {
            lane.tokens = lane
                .tokens
                .saturating_add(self.config.refill_per_tick)
                .min(self.config.quota_tokens);
            while lane.tokens > 0 {
                let Some(batch) = lane.queue.pop_front() else {
                    break;
                };
                lane.tokens -= 1;
                released.push((tenant, batch));
            }
        }
        released
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn batch(epoch: u64) -> EventBatch {
        EventBatch::empty(epoch)
    }

    #[test]
    fn admits_until_quota_then_queues_then_sheds() {
        let config = AdmissionConfig {
            quota_tokens: 2,
            refill_per_tick: 1,
            queue_capacity: 2,
        };
        let mut ctl = AdmissionController::new(config);
        ctl.register(7);

        assert!(matches!(ctl.offer(7, batch(1)), Admission::Admit(_)));
        assert!(matches!(ctl.offer(7, batch(2)), Admission::Admit(_)));
        assert_eq!(ctl.offer(7, batch(3)), Admission::Queued { depth: 1 });
        assert_eq!(ctl.offer(7, batch(4)), Admission::Queued { depth: 2 });
        let shed = ctl.offer(7, batch(5));
        assert_eq!(shed, Admission::Shed { retry_hint: 3 });
        assert_eq!(ctl.tokens(7), 0);
        assert_eq!(ctl.queue_depth(7), 2);

        // One tick refills one token and releases the head of the queue.
        let released = ctl.tick();
        assert_eq!(released.len(), 1);
        assert_eq!(released[0].1.epoch, 3);
    }

    #[test]
    fn shed_policy_never_queues() {
        let config = AdmissionConfig {
            quota_tokens: 1,
            refill_per_tick: 1,
            queue_capacity: 0,
        };
        let mut ctl = AdmissionController::new(config);
        ctl.register(1);
        assert!(matches!(ctl.offer(1, batch(1)), Admission::Admit(_)));
        assert!(matches!(ctl.offer(1, batch(2)), Admission::Shed { .. }));
        assert_eq!(ctl.queue_depth(1), 0);
    }

    #[test]
    fn unknown_tenants_are_shed_without_side_effects() {
        let mut ctl = AdmissionController::new(AdmissionConfig::default());
        assert_eq!(ctl.offer(9, batch(1)), Admission::Shed { retry_hint: 0 });
        assert_eq!((ctl.tokens(9), ctl.queue_depth(9)), (0, 0));
        assert_eq!(ctl.total_queued(), 0);
    }

    #[test]
    fn deregister_returns_the_parked_batches_in_order() {
        let config = AdmissionConfig {
            quota_tokens: 0,
            ..AdmissionConfig::default()
        };
        let mut ctl = AdmissionController::new(config);
        ctl.register(3);
        for epoch in 1..=4 {
            assert!(matches!(
                ctl.offer(3, batch(epoch)),
                Admission::Queued { .. }
            ));
        }
        let parked = ctl.deregister(3);
        assert_eq!(
            parked.iter().map(|b| b.epoch).collect::<Vec<_>>(),
            vec![1, 2, 3, 4]
        );
        // The lane is gone: an offer is shed the way an unknown tenant's is.
        assert_eq!(ctl.offer(3, batch(5)), Admission::Shed { retry_hint: 0 });
    }

    /// Property: over a long random interleaving of offers and ticks,
    /// token balances never exceed the burst capacity (they are unsigned,
    /// so "never negative" is a type-level fact — the interesting bound is
    /// the cap), queue depths never exceed the configured capacity, and
    /// the number of released-plus-admitted batches never exceeds the
    /// number accepted.
    #[test]
    fn quota_accounting_stays_within_bounds_under_random_interleaving() {
        let mut rng = StdRng::seed_from_u64(0x5EED_AD31);
        for round in 0..20 {
            let config = AdmissionConfig {
                quota_tokens: rng.gen_range(1..6),
                refill_per_tick: rng.gen_range(1..4),
                queue_capacity: rng.gen_range(1..5) as usize,
            };
            let mut ctl = AdmissionController::new(config);
            let tenants: Vec<TenantId> = (0..rng.gen_range(1..5)).collect();
            for &t in &tenants {
                ctl.register(t);
            }
            let mut accepted = 0u64;
            let mut applied = 0u64;
            let mut epoch = 0u64;
            for _ in 0..400 {
                if rng.gen_range(0..4) == 0 {
                    applied += ctl.tick().len() as u64;
                } else {
                    epoch += 1;
                    let tenant = tenants[rng.gen_range(0..tenants.len() as u64) as usize];
                    match ctl.offer(tenant, batch(epoch)) {
                        Admission::Admit(_) => {
                            accepted += 1;
                            applied += 1;
                        }
                        Admission::Queued { depth } => {
                            accepted += 1;
                            assert!(depth <= config.queue_capacity, "round {round}");
                        }
                        Admission::Shed { .. } => {}
                    }
                }
                for &t in &tenants {
                    assert!(ctl.tokens(t) <= config.quota_tokens, "round {round}");
                    assert!(ctl.queue_depth(t) <= config.queue_capacity, "round {round}");
                }
            }
            applied += ctl.tick().len() as u64;
            assert!(
                applied <= accepted,
                "round {round}: released more than accepted"
            );
            assert_eq!(
                accepted - applied,
                ctl.total_queued() as u64,
                "round {round}: accepted batches neither applied nor parked"
            );
        }
    }

    /// Property: a shed offer is a pure refusal — tokens, queue contents
    /// and queue order are exactly what they were before the offer.
    #[test]
    fn shed_leaves_all_lane_state_untouched() {
        let mut rng = StdRng::seed_from_u64(0x5EED_5EED);
        let config = AdmissionConfig {
            quota_tokens: 2,
            refill_per_tick: 1,
            queue_capacity: 3,
        };
        let mut ctl = AdmissionController::new(config);
        ctl.register(1);
        // Exhaust tokens and fill the queue.
        let mut epoch = 0;
        loop {
            epoch += 1;
            if matches!(ctl.offer(1, batch(epoch)), Admission::Shed { .. }) {
                break;
            }
        }
        let tokens_before = ctl.tokens(1);
        let depth_before = ctl.queue_depth(1);
        for _ in 0..50 {
            epoch += 1;
            let verdict = ctl.offer(1, batch(rng.gen_range(0..epoch)));
            assert!(matches!(verdict, Admission::Shed { .. }));
            assert_eq!(ctl.tokens(1), tokens_before);
            assert_eq!(ctl.queue_depth(1), depth_before);
        }
        // The parked batches still drain in their original FIFO order.
        let mut drained = Vec::new();
        for _ in 0..10 {
            drained.extend(ctl.tick().into_iter().map(|(_, b)| b.epoch));
        }
        let sorted = {
            let mut s = drained.clone();
            s.sort_unstable();
            s
        };
        assert_eq!(drained, sorted);
        assert_eq!(drained.len(), depth_before);
    }

    /// Property: per tenant, batches come back out of `tick` in exactly
    /// the order they were accepted, under a random interleaving of
    /// accepts, sheds and ticks across several tenants.
    #[test]
    fn fifo_order_is_preserved_under_interleaved_accept_and_shed() {
        let mut rng = StdRng::seed_from_u64(0xF1F0_0D4E);
        let config = AdmissionConfig {
            quota_tokens: 1,
            refill_per_tick: 1,
            queue_capacity: 4,
        };
        let mut ctl = AdmissionController::new(config);
        let tenants: Vec<TenantId> = vec![1, 2, 3];
        for &t in &tenants {
            ctl.register(t);
        }
        let mut accepted: BTreeMap<TenantId, Vec<u64>> = BTreeMap::new();
        let mut applied: BTreeMap<TenantId, Vec<u64>> = BTreeMap::new();
        let mut epoch = 0u64;
        for _ in 0..600 {
            if rng.gen_range(0..5) == 0 {
                for (tenant, batch) in ctl.tick() {
                    applied.entry(tenant).or_default().push(batch.epoch);
                }
            } else {
                epoch += 1;
                let tenant = tenants[rng.gen_range(0..3) as usize];
                match ctl.offer(tenant, batch(epoch)) {
                    Admission::Admit(b) => {
                        accepted.entry(tenant).or_default().push(b.epoch);
                        applied.entry(tenant).or_default().push(b.epoch);
                    }
                    Admission::Queued { .. } => {
                        accepted.entry(tenant).or_default().push(epoch);
                    }
                    Admission::Shed { .. } => {}
                }
            }
        }
        for _ in 0..10 {
            for (tenant, batch) in ctl.tick() {
                applied.entry(tenant).or_default().push(batch.epoch);
            }
        }
        assert_eq!(accepted, applied, "acceptance order == application order");
    }
}
