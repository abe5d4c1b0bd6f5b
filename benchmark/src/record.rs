//! Workload definitions and the recorder: everything a run replays is
//! generated here, from `--seed`, before the first timed request.
//!
//! A tenant's stream is recorded by churning a private [`Fabric`] under a
//! [`FabricProbe`]; the server later rebuilds the same pristine fabric from
//! the universe carried in `OpenSession`, so the recorded batches apply to it
//! exactly. Requests are encoded once, here, so no client cost lands in the
//! timed window.

use std::collections::VecDeque;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scout::fabric::wire::to_bytes;
use scout::fabric::{EventBatch, Fabric, FabricEvent, FabricProbe};
use scout::policy::{ContractId, FilterId, ObjectId, PolicyUniverse, SwitchId};
use scout::server::{ServerRequest, TenantId};
use scout::store::digest::Sha256;
use scout::workload::{
    add_filter_to_contract, next_filter_id, remove_filter_from_contract, ClusterSpec, ScaleSpec,
    TestbedSpec,
};

/// Which generator a workload's universes come from.
#[derive(Debug, Clone, Copy)]
pub enum FabricSpec {
    Testbed(TestbedSpec),
    Cluster(ClusterSpec),
    Scale(ScaleSpec),
}

impl FabricSpec {
    fn generate(&self, seed: u64) -> PolicyUniverse {
        match self {
            FabricSpec::Testbed(spec) => spec.generate(seed),
            FabricSpec::Cluster(spec) => spec.generate(seed),
            FabricSpec::Scale(spec) => spec.generate(seed),
        }
    }
}

/// What one recorded epoch turned out to be. Drawn from the workload's
/// [`Mix`], then adjusted by the damage cap (see [`Recorder::step`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EpochKind {
    /// One switch loses TCAM rules.
    Single,
    /// The oldest damaged switch is repaired.
    Repair,
    /// `front_size` healthy switches flap (lose rules and are repaired) within
    /// the epoch: the monitor must re-check all of them, the damage level is
    /// unchanged.
    Front,
    /// One filter is added to or removed from a contract.
    Policy,
    /// Nothing happened: a heartbeat batch.
    Empty,
}

/// Epoch-kind weights, in percent.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    pub single: u32,
    pub repair: u32,
    pub front: u32,
    pub policy: u32,
    pub empty: u32,
}

impl Mix {
    /// How many epochs of each kind a run of `epochs` holds: the weights'
    /// shares, rounded by largest remainder. The composition of a run is a
    /// function of its length alone, so sum-based metrics (`capacity_rps`)
    /// do not move with the seed; the seed only orders the epochs.
    fn counts(&self, epochs: u64) -> [(EpochKind, u64); 5] {
        let weights = [
            (EpochKind::Single, self.single),
            (EpochKind::Repair, self.repair),
            (EpochKind::Front, self.front),
            (EpochKind::Policy, self.policy),
            (EpochKind::Empty, self.empty),
        ];
        let total: u64 = weights.iter().map(|w| u64::from(w.1)).sum();
        let mut counts = weights.map(|(kind, weight)| (kind, epochs * u64::from(weight) / total));
        let mut by_remainder: Vec<usize> = (0..weights.len()).collect();
        by_remainder.sort_by_key(|&i| std::cmp::Reverse(epochs * u64::from(weights[i].1) % total));
        let assigned: u64 = counts.iter().map(|c| c.1).sum();
        for &i in by_remainder.iter().take((epochs - assigned) as usize) {
            counts[i].1 += 1;
        }
        counts
    }
}

/// One benchmark workload. The names and `why` lines live in
/// `BENCHMARK.json`; the sizing constants live here because that file's
/// schema has no room for them. Rates are frozen: they were calibrated once so
/// that one serving thread runs at 0.25–0.5 utilisation on the builder's
/// host, and response latency scales with 1/(1 − utilisation).
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub spec: FabricSpec,
    pub tenants: usize,
    /// Tenants at or past this index deploy tenant 0's universe (with their
    /// own churn).
    pub distinct_universes: usize,
    pub mix: Mix,
    pub front_size: usize,
    /// At most this many switches are damaged at once.
    pub damage_cap: usize,
    /// Single-switch drifts hit only this many switches, evenly spaced over
    /// the fabric (0: any switch). On the paper cluster a re-check costs up to
    /// three times more on a deep switch than on a shallow one and a run
    /// affords ten drifts, which cannot average thirty switches: with the
    /// targets drawn from all of them `ingest_p50_ms` ranged 178–255 ms across
    /// seeds. The seed still orders the drifts and picks the rules lost.
    pub drift_pool: usize,
    /// A `Checkpoint` follows every this-many-th ingest (0: never).
    pub checkpoint_every: u64,
    /// Tenants with `id % 8 == 0` send their ingests in bursts of this many
    /// (0: nobody bursts).
    pub burst: u64,
    /// Offered load, requests per second.
    pub rate: f64,
    /// `ScoutServer::tick` runs after every this-many-th request.
    pub tick_every: usize,
    pub durable: bool,
}

/// A `Query` follows every fourth ingest.
const QUERY_EVERY: u64 = 4;

const FLEET_MIX: Mix = Mix {
    single: 45,
    repair: 20,
    front: 10,
    policy: 10,
    empty: 15,
};

/// The `BENCH_server.json` testbed spec (see `crates/bench/benches/server.rs`).
const FLEET_SPEC: TestbedSpec = TestbedSpec {
    epgs: 24,
    contracts: 14,
    filters: 6,
    target_pairs: 48,
    switches: 6,
    tcam_capacity: 2048,
};

const FLEET: Workload = Workload {
    name: "fleet_mem",
    spec: FabricSpec::Testbed(FLEET_SPEC),
    tenants: 64,
    distinct_universes: 32,
    mix: FLEET_MIX,
    front_size: 3,
    damage_cap: 2,
    drift_pool: 0,
    checkpoint_every: 24,
    burst: 12,
    rate: 250.0,
    tick_every: 32,
    durable: false,
};

/// The four workloads, in `BENCHMARK.json` order.
pub fn workloads() -> [Workload; 4] {
    [
        FLEET,
        Workload {
            name: "fleet_durable",
            durable: true,
            ..FLEET
        },
        Workload {
            name: "paper_cluster",
            spec: FabricSpec::Cluster(ClusterSpec::paper()),
            tenants: 1,
            distinct_universes: 1,
            mix: Mix {
                single: 50,
                repair: 35,
                front: 0,
                policy: 25,
                empty: 15,
            },
            front_size: 0,
            damage_cap: 4,
            drift_pool: 10,
            checkpoint_every: 0,
            burst: 0,
            rate: 2.5,
            tick_every: 1,
            ..FLEET
        },
        Workload {
            name: "fabric_1k",
            spec: FabricSpec::Scale(ScaleSpec::large_1k()),
            tenants: 1,
            distinct_universes: 1,
            mix: Mix {
                single: 45,
                repair: 25,
                front: 12,
                policy: 5,
                empty: 13,
            },
            front_size: 50,
            damage_cap: 8,
            checkpoint_every: 0,
            burst: 0,
            rate: 20.0,
            tick_every: 1,
            ..FLEET
        },
    ]
}

/// Churns one private fabric, one epoch at a time.
pub struct Recorder {
    fabric: Fabric,
    probe: FabricProbe,
    rng: StdRng,
    /// Damaged switches, oldest first.
    damaged: VecDeque<SwitchId>,
    damage_cap: usize,
    front_size: usize,
    /// The switches single-switch drifts may hit.
    drift_pool: Vec<SwitchId>,
    /// The contract policy edits touch, and the filter the last edit added
    /// to it (the next edit removes it again).
    edited: ContractId,
    added: Option<FilterId>,
}

/// The contract every policy edit of a tenant touches: the lowest-numbered
/// one among those deployed on the fewest switches. An edit costs a fixed
/// part — wire decode of the universe, `FabricView::apply`'s recompile, the
/// risk-model rebuild — plus a re-check of every switch the contract lives
/// on. Re-checks are what every other ingest measures; a narrow contract
/// keeps `policy_p50_ms` on the part only edits pay. It also makes edits
/// cheap enough for a run to afford several: on the paper cluster contracts
/// span 2–30 switches, an edit of a uniformly drawn one ranged 1.2–3.9 s, and
/// a run affords one of those, whose single sample moved ±25 % between runs
/// of one seed. The seed still decides when edits land and what they add.
fn narrow_contract(universe: &PolicyUniverse) -> ContractId {
    universe
        .contracts()
        .map(|c| {
            let switches = universe.switches_for_object(ObjectId::Contract(c.id));
            (switches.len(), c.id)
        })
        .filter(|(footprint, _)| *footprint > 0)
        .min()
        .expect("some contract is deployed")
        .1
}

impl Recorder {
    pub fn new(universe: PolicyUniverse, churn_seed: u64, workload: &Workload) -> Self {
        let mut fabric = Fabric::new(universe);
        fabric.deploy();
        let probe = FabricProbe::new(&fabric);
        let switches = fabric.universe().switch_ids();
        let pool = match workload.drift_pool {
            0 => switches.len(),
            pool => pool.min(switches.len()),
        };
        Self {
            drift_pool: (0..pool)
                .map(|i| switches[i * switches.len() / pool])
                .collect(),
            edited: narrow_contract(fabric.universe()),
            added: None,
            fabric,
            probe,
            rng: StdRng::seed_from_u64(churn_seed),
            damaged: VecDeque::new(),
            damage_cap: workload.damage_cap,
            front_size: workload.front_size,
        }
    }

    #[cfg(test)]
    pub fn fabric(&self) -> &Fabric {
        &self.fabric
    }

    #[cfg(test)]
    pub fn damaged(&self) -> usize {
        self.damaged.len()
    }

    /// Removes rules from `switch`; `true` if its TCAM changed.
    fn damage(&mut self, switch: SwitchId) -> bool {
        let port = self.rng.gen_range(0u16..7);
        let removed = self
            .fabric
            .remove_tcam_rules_where(switch, |r| r.matcher.ports.start % 7 == port);
        !removed.is_empty() || !self.fabric.evict_tcam(switch, 2, true).is_empty()
    }

    /// Those of `switches` that are not damaged.
    fn healthy(&self, mut switches: Vec<SwitchId>) -> Vec<SwitchId> {
        switches.retain(|s| !self.damaged.contains(s));
        switches
    }

    /// Whether an epoch of `kind` can be recorded as such right now.
    pub fn feasible(&self, kind: EpochKind) -> bool {
        match kind {
            EpochKind::Single => self.damaged.len() < self.damage_cap,
            EpochKind::Repair => !self.damaged.is_empty(),
            _ => true,
        }
    }

    /// Records one epoch of the wanted kind and returns what it became. The
    /// damage cap keeps service time stationary over a run of any length: a
    /// drift at the cap becomes a repair of the oldest damaged switch, and a
    /// repair with nothing damaged becomes a drift.
    pub fn step(&mut self, epoch: u64, wanted: EpochKind) -> (EpochKind, EventBatch) {
        let kind = match wanted {
            EpochKind::Single if self.damaged.len() >= self.damage_cap => EpochKind::Repair,
            EpochKind::Repair if self.damaged.is_empty() => EpochKind::Single,
            other => other,
        };
        match kind {
            EpochKind::Single => {
                let healthy = self.healthy(self.drift_pool.clone());
                let &switch = healthy.choose(&mut self.rng).expect("cap < pool size");
                if self.damage(switch) {
                    self.damaged.push_back(switch);
                }
            }
            EpochKind::Repair => {
                let switch = self.damaged.pop_front().expect("checked above");
                self.fabric.repair_switch(switch);
            }
            EpochKind::Front => {
                let mut healthy = self.healthy(self.fabric.universe().switch_ids());
                healthy.shuffle(&mut self.rng);
                for switch in healthy.into_iter().take(self.front_size) {
                    if self.damage(switch) {
                        self.fabric.repair_switch(switch);
                    }
                }
            }
            EpochKind::Policy => {
                // Edits alternate between adding a filter to the contract and
                // removing it again, so the policy keeps its size and the
                // first edit of every tenant is the same kind of work.
                let universe = self.fabric.universe();
                let edited = match self.added.take() {
                    Some(filter) => remove_filter_from_contract(universe, self.edited, filter),
                    None => {
                        let filter = next_filter_id(universe);
                        let port = self.rng.gen_range(20_000u16..60_000);
                        self.added = Some(filter);
                        add_filter_to_contract(universe, self.edited, filter, port)
                    }
                };
                self.fabric
                    .update_policy(edited.expect("the contract exists and the filter is its own"));
            }
            EpochKind::Empty => {}
        }
        (
            kind,
            EventBatch::new(epoch, self.probe.observe(&self.fabric)),
        )
    }
}

/// One recorded epoch of one tenant.
pub struct RecordedEpoch {
    pub kind: EpochKind,
    pub batch: EventBatch,
}

/// Everything recorded for one tenant.
pub struct TenantTape {
    pub universe: PolicyUniverse,
    pub epochs: Vec<RecordedEpoch>,
    /// The recorder's fabric after the last epoch: the from-scratch oracle
    /// analyzes it.
    pub final_fabric: Fabric,
}

/// What a request asks for, as the driver needs to know it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RequestKind {
    Ingest {
        kind: EpochKind,
        empty: bool,
        policy: bool,
    },
    Query,
    Checkpoint,
}

/// One pre-encoded request of the paced schedule.
pub struct Request {
    pub tenant: TenantId,
    /// The epoch the request ingests, or follows.
    pub epoch: u64,
    pub kind: RequestKind,
    pub bytes: Vec<u8>,
}

impl Request {
    /// An ingest whose batch carries events.
    pub fn non_empty(&self) -> bool {
        matches!(self.kind, RequestKind::Ingest { empty: false, .. })
    }

    /// An ingest of a heartbeat batch.
    pub fn empty_ingest(&self) -> bool {
        matches!(self.kind, RequestKind::Ingest { empty: true, .. })
    }

    /// An ingest whose batch carries a `PolicyUpdate`.
    pub fn policy(&self) -> bool {
        matches!(self.kind, RequestKind::Ingest { policy: true, .. })
    }

    /// An ingest of one of the recorded epoch `kinds`.
    pub fn of_kind(&self, kinds: &[EpochKind]) -> bool {
        matches!(self.kind, RequestKind::Ingest { kind, .. } if kinds.contains(&kind))
    }
}

/// A whole run's inputs.
pub struct Tape {
    pub tenants: Vec<TenantTape>,
    /// One encoded `OpenSession` per tenant.
    pub opens: Vec<Vec<u8>>,
    /// The paced schedule: request `i` is due at `t0 + i / rate`.
    pub schedule: Vec<Request>,
    /// SHA-256 over every request's bytes, opens first, in schedule order.
    pub digest: String,
}

fn mix64(mut x: u64) -> u64 {
    // splitmix64 finalizer: decorrelates the per-tenant seeds.
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Requests one tenant sends for `epochs` epochs.
fn requests_per_tenant(workload: &Workload, epochs: u64) -> u64 {
    let checkpoints = match workload.checkpoint_every {
        0 => 0,
        every => epochs / every,
    };
    epochs + epochs / QUERY_EVERY + checkpoints
}

/// The most epochs per tenant whose requests fit `seconds` at the workload's
/// rate — the run length is a function of `--seconds` alone.
pub fn epochs_for(workload: &Workload, seconds: u64) -> u64 {
    let budget = (workload.rate * seconds as f64).round() as u64 / workload.tenants as u64;
    let mut epochs = 0;
    while requests_per_tenant(workload, epochs + 1) <= budget {
        epochs += 1;
    }
    epochs
}

/// Draws the next epoch kind from what is left of the run's composition,
/// among the kinds the recorder can record now; when none of the remaining
/// kinds is feasible, [`Recorder::step`] converts the draw.
fn draw_kind(
    remaining: &mut [(EpochKind, u64); 5],
    rng: &mut StdRng,
    recorder: &Recorder,
) -> EpochKind {
    let feasible: u64 = remaining
        .iter()
        .filter(|(kind, _)| recorder.feasible(*kind))
        .map(|r| r.1)
        .sum();
    let restrict = feasible > 0;
    let pool = if restrict {
        feasible
    } else {
        remaining.iter().map(|r| r.1).sum()
    };
    let mut roll = rng.gen_range(0..pool);
    for (kind, count) in remaining.iter_mut() {
        if restrict && !recorder.feasible(*kind) {
            continue;
        }
        if roll < *count {
            *count -= 1;
            return *kind;
        }
        roll -= *count;
    }
    unreachable!("roll is below the pool size")
}

/// The policy is the workload's, the churn is the seed's: universes come
/// from this fixed base, because per-request cost follows the generated
/// policy's rule depth (paper-cluster opens ranged 3.5–4.5 s and policy edits
/// 1.1–2.9 s across universe seeds) and a metric that moves that much with
/// the seed resolves no regression. `--seed` decides which switches drift,
/// which rules they lose, which contracts are edited, and every ordering.
const UNIVERSE_SEED: u64 = 1;

fn record_tenant(workload: &Workload, seed: u64, index: usize, epochs: u64) -> TenantTape {
    let universe_index = if index < workload.distinct_universes {
        index
    } else {
        0
    };
    let universe = workload
        .spec
        .generate(UNIVERSE_SEED + universe_index as u64);
    let churn_seed = mix64(seed ^ (index as u64) << 32);
    let mut recorder = Recorder::new(universe.clone(), churn_seed, workload);
    let mut plan_rng = StdRng::seed_from_u64(mix64(churn_seed));
    let mut remaining = workload.mix.counts(epochs);
    let recorded = (1..=epochs)
        .map(|epoch| {
            let wanted = draw_kind(&mut remaining, &mut plan_rng, &recorder);
            let (kind, batch) = recorder.step(epoch, wanted);
            RecordedEpoch { kind, batch }
        })
        .collect();
    TenantTape {
        universe,
        epochs: recorded,
        final_fabric: recorder.fabric,
    }
}

/// One tenant's requests in send order, grouped into the chunks the
/// interleaver keeps together (a burst, or one ingest with its followers).
fn tenant_chunks(workload: &Workload, tenant: usize, tape: &TenantTape) -> Vec<Vec<Request>> {
    let id = tenant as TenantId;
    let chunk_epochs = if workload.burst > 0 && tenant.is_multiple_of(8) {
        workload.burst
    } else {
        1
    };
    let mut chunks: Vec<Vec<Request>> = Vec::new();
    for (i, recorded) in tape.epochs.iter().enumerate() {
        let epoch = i as u64 + 1;
        if (epoch - 1).is_multiple_of(chunk_epochs) {
            chunks.push(Vec::new());
        }
        let chunk = chunks.last_mut().expect("pushed above");
        chunk.push(Request {
            tenant: id,
            epoch,
            kind: RequestKind::Ingest {
                kind: recorded.kind,
                empty: recorded.batch.is_empty(),
                policy: recorded
                    .batch
                    .events
                    .iter()
                    .any(|e| matches!(e, FabricEvent::PolicyUpdate { .. })),
            },
            bytes: to_bytes(&ServerRequest::Ingest {
                tenant: id,
                batch: recorded.batch.clone(),
            }),
        });
        if epoch.is_multiple_of(QUERY_EVERY) {
            chunk.push(Request {
                tenant: id,
                epoch,
                kind: RequestKind::Query,
                bytes: to_bytes(&ServerRequest::Query { tenant: id }),
            });
        }
        if workload.checkpoint_every > 0 && epoch.is_multiple_of(workload.checkpoint_every) {
            chunk.push(Request {
                tenant: id,
                epoch,
                kind: RequestKind::Checkpoint,
                bytes: to_bytes(&ServerRequest::Checkpoint { tenant: id }),
            });
        }
    }
    chunks
}

/// Merges the tenants' chunk streams into one schedule. Each tenant sends its
/// `k`-th of `n` chunks at virtual time `(k + jitter) / n`, jitter seeded in
/// `[0, 0.5)`: every tenant progresses evenly through the run, the order is a
/// pure function of the seed, and two bursts of one tenant are at least half
/// a period apart — so the default admission queue (16) never overflows and
/// no request is shed.
fn interleave(per_tenant: Vec<Vec<Vec<Request>>>, seed: u64) -> Vec<Request> {
    let mut rng = StdRng::seed_from_u64(mix64(seed ^ 0x5C_4ED0));
    let mut slots: Vec<(f64, usize, usize, Vec<Request>)> = Vec::new();
    for (tenant, chunks) in per_tenant.into_iter().enumerate() {
        let n = chunks.len() as f64;
        for (k, chunk) in chunks.into_iter().enumerate() {
            let jitter = rng.gen_range(0.0..0.5);
            slots.push(((k as f64 + jitter) / n, tenant, k, chunk));
        }
    }
    slots.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)));
    slots.into_iter().flat_map(|slot| slot.3).collect()
}

/// Records a whole run: universes, churn, encoded requests, schedule, digest.
pub fn record(workload: &Workload, seed: u64, seconds: u64) -> Tape {
    let epochs = epochs_for(workload, seconds);
    assert!(
        epochs > 0,
        "--seconds {seconds} is too short for {}",
        workload.name
    );
    let tenants: Vec<TenantTape> = (0..workload.tenants)
        .map(|index| record_tenant(workload, seed, index, epochs))
        .collect();
    let opens: Vec<Vec<u8>> = tenants
        .iter()
        .enumerate()
        .map(|(index, tape)| {
            to_bytes(&ServerRequest::OpenSession {
                tenant: index as TenantId,
                universe: tape.universe.clone(),
            })
        })
        .collect();
    let per_tenant = tenants
        .iter()
        .enumerate()
        .map(|(index, tape)| tenant_chunks(workload, index, tape))
        .collect();
    let schedule = interleave(per_tenant, seed);

    let mut hasher = Sha256::new();
    for bytes in opens.iter().chain(schedule.iter().map(|r| &r.bytes)) {
        hasher.update(bytes);
    }
    let digest = hasher
        .finalize()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    Tape {
        tenants,
        opens,
        schedule,
        digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout::core::ScoutEngine;

    fn small_fleet() -> Workload {
        Workload {
            tenants: 16,
            distinct_universes: 8,
            ..workloads()[0]
        }
    }

    /// Two tapes carry the same requests. `PolicyUpdate` events embed the
    /// fabric's universe version, which counts universes installed in this
    /// *process*, so within one test process a second recording differs in
    /// exactly those bytes; across processes (the real use) the digests are
    /// equal, which `run_all.sh`'s output shows for the two fleets.
    fn same_requests(a: &Tape, b: &Tape) -> bool {
        a.schedule.len() == b.schedule.len()
            && a.opens == b.opens
            && a.schedule.iter().zip(&b.schedule).all(|(x, y)| {
                let policy = x.policy();
                (x.tenant, x.epoch, x.kind) == (y.tenant, y.epoch, y.kind)
                    && x.bytes.len() == y.bytes.len()
                    && (policy || x.bytes == y.bytes)
            })
    }

    #[test]
    fn same_seed_same_schedule_other_seed_other_digest() {
        let workload = small_fleet();
        let a = record(&workload, 7, 2);
        assert!(same_requests(&a, &record(&workload, 7, 2)));
        let other = record(&workload, 8, 2);
        assert!(!same_requests(&a, &other));
        assert_ne!(a.digest, other.digest);
    }

    #[test]
    fn durable_and_memory_fleets_share_their_inputs() {
        let [mem, durable, ..] = workloads();
        let mem = Workload { tenants: 8, ..mem };
        let durable = Workload {
            tenants: 8,
            ..durable
        };
        assert!(same_requests(&record(&mem, 3, 1), &record(&durable, 3, 1)));
    }

    #[test]
    fn schedule_keeps_tenant_order_and_bursts_together() {
        let workload = small_fleet();
        let tape = record(&workload, 11, 4);
        let mut next_epoch = vec![1u64; workload.tenants];
        for request in &tape.schedule {
            let next = &mut next_epoch[request.tenant as usize];
            match request.kind {
                RequestKind::Ingest { .. } => {
                    assert_eq!(request.epoch, *next);
                    *next += 1;
                }
                _ => assert_eq!(request.epoch, *next - 1),
            }
        }
        // Tenant 0 bursts: its first `burst` ingests are consecutive in the
        // schedule but for its own queries.
        let first = tape.schedule.iter().position(|r| r.tenant == 0).unwrap();
        let run: Vec<&Request> = tape.schedule[first..]
            .iter()
            .take_while(|r| r.tenant == 0)
            .collect();
        let ingests = run
            .iter()
            .filter(|r| matches!(r.kind, RequestKind::Ingest { .. }))
            .count() as u64;
        assert_eq!(ingests, workload.burst.min(epochs_for(&workload, 4)));
    }

    #[test]
    fn damage_never_exceeds_the_cap() {
        let workload = workloads()[0];
        let universe = workload.spec.generate(5);
        let engine = ScoutEngine::new();
        let mut recorder = Recorder::new(universe, 9, &workload);
        let mut plan = StdRng::seed_from_u64(1);
        let mut remaining = workload.mix.counts(150);
        let mut kinds = std::collections::BTreeSet::new();
        for epoch in 1..=150 {
            let wanted = draw_kind(&mut remaining, &mut plan, &recorder);
            let (kind, _) = recorder.step(epoch, wanted);
            kinds.insert(kind);
            assert!(recorder.damaged() <= workload.damage_cap);
            let inconsistent = engine
                .analyze(recorder.fabric())
                .check
                .inconsistent_switches();
            assert!(
                inconsistent.len() <= workload.damage_cap,
                "epoch {epoch}: {inconsistent:?} damaged past the cap"
            );
        }
        assert_eq!(kinds.len(), 5, "every epoch kind occurs: {kinds:?}");
    }
}
