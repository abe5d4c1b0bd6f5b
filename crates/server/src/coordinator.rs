//! The simulated multi-node cluster: N serving nodes, one shared store
//! root, heartbeat-driven death detection, leader-driven failover.
//!
//! The design follows the cathedral pattern — a distributed scheduler over
//! a replicated, hash-chained log with replay-driven recovery:
//!
//! * every node is a full [`ScoutServer`] with its **own engine** (analysis
//!   results are engine-independent, which is what node-count determinism
//!   rests on);
//! * every tenant session is **durable**, journaled under
//!   `<root>/tenant_<id>` before any batch or resync is acknowledged, so a
//!   tenant that lost a batch resyncs and still fails over intact;
//! * a [`Membership`] view turns missed heartbeats into death verdicts, the
//!   [`leader`](crate::leader) module turns the alive set into a leader and
//!   a reassignment plan, and [`ScoutServer::adopt`] replays the orphan's
//!   journal on the survivor — landing **bit-identical** to the session the
//!   dead node held (`tests/server.rs` kills the leader and an owner
//!   mid-soak and pins the final reports against an uninterrupted run).
//!
//! Failure timeline for one kill:
//!
//! ```text
//!   kill_node(n)      tick()+1 … tick()+T        tick()+T+1
//!   ────────────►  heartbeats stop  ────────►  membership declares n dead
//!                                              leader plans reassignment
//!                                              survivors adopt ───────► tenants
//!                                              (journal replay)         serve again
//! ```
//!
//! Between the kill and the adoption, requests routed to the dead owner are
//! shed with `retry_hint: 1` — the same typed backpressure an overloaded
//! tenant sees, so clients need one retry loop, not two.

use scout_core::ScoutEngine;
use scout_fabric::wire::{from_bytes, to_bytes};
use scout_store::store::StoreConfig;
use std::collections::BTreeMap;
use std::path::Path;

use crate::admission::AdmissionConfig;
use crate::leader::{elect, plan_reassignment, Reassignment};
use crate::membership::{Membership, NodeId};
use crate::messages::{ServerError, ServerRequest, ServerResponse, TenantId};
use crate::server::{ScoutServer, ServerConfig};

/// Tuning for a [`Cluster`].
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of serving nodes.
    pub nodes: u64,
    /// Missed ticks tolerated before a node is declared dead.
    pub heartbeat_timeout: u64,
    /// Admission policy applied on every node.
    pub admission: AdmissionConfig,
    /// Store tuning for the per-tenant journals.
    pub store: StoreConfig,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        Self {
            nodes: 3,
            heartbeat_timeout: 2,
            admission: AdmissionConfig::default(),
            store: StoreConfig::default(),
        }
    }
}

/// What one [`Cluster::tick`] did.
#[derive(Debug, Default)]
pub struct TickReport {
    /// Nodes newly declared dead this tick.
    pub newly_dead: Vec<NodeId>,
    /// Failover moves executed this tick (in plan order).
    pub failed_over: Vec<Reassignment>,
    /// Responses for queued batches drained on any node this tick,
    /// in node order then drain order.
    pub drained: Vec<ServerResponse>,
}

/// N simulated serving nodes behind one routing coordinator.
///
/// See the [module docs](self) for the failure model.
pub struct Cluster {
    membership: Membership,
    /// The live nodes. A killed node is removed outright — its engine,
    /// sessions and queues die with it; only the journals under `root`
    /// survive.
    nodes: BTreeMap<NodeId, ScoutServer>,
    /// tenant → owning node. Updated only by open and failover, so a
    /// dead owner stays visible here until the leader reassigns.
    assignment: BTreeMap<TenantId, NodeId>,
    leader: Option<NodeId>,
}

impl Cluster {
    /// A cluster of `config.nodes` fresh nodes journaling under `root`.
    pub fn new(root: &Path, config: ClusterConfig) -> Self {
        assert!(config.nodes > 0, "a cluster needs at least one node");
        let mut membership = Membership::new(config.heartbeat_timeout);
        let mut nodes = BTreeMap::new();
        for node in 0..config.nodes {
            membership.join(node);
            let server_config =
                ServerConfig::durable(config.admission, root.to_path_buf(), config.store);
            nodes.insert(node, ScoutServer::new(ScoutEngine::new(), server_config));
        }
        let leader = elect(&membership.alive());
        Self {
            membership,
            nodes,
            assignment: BTreeMap::new(),
            leader,
        }
    }

    /// The current leader (None once every node is dead).
    pub fn leader(&self) -> Option<NodeId> {
        self.leader
    }

    /// The node currently assigned to `tenant`.
    pub fn owner(&self, tenant: TenantId) -> Option<NodeId> {
        self.assignment.get(&tenant).copied()
    }

    /// The alive node ids, ascending.
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes.keys().copied().collect()
    }

    /// Read access to a live node's server (None for dead/unknown nodes).
    pub fn node(&self, node: NodeId) -> Option<&ScoutServer> {
        self.nodes.get(&node)
    }

    /// Routes one typed request to the owning node.
    ///
    /// `OpenSession` picks the owner deterministically: the least-loaded
    /// alive node, lowest id winning ties. Requests — opens included — for
    /// tenants whose owner is dead but not yet failed over are shed with
    /// `retry_hint: 1`: re-placing a tenant while failover is pending would
    /// strand its durable session (the replacement open collides with the
    /// on-disk journal, and the orphan scan keys off dead owners).
    pub fn handle(&mut self, request: ServerRequest) -> ServerResponse {
        let tenant = request.tenant();
        let node = match &request {
            ServerRequest::OpenSession { .. } => {
                if let Some(&owner) = self.assignment.get(&tenant) {
                    if self.nodes.contains_key(&owner) {
                        return ServerResponse::Error(ServerError::TenantExists { tenant });
                    }
                    // Dead owner, failover pending: shed the retry and let
                    // the leader fail the session over intact.
                    return ServerResponse::Error(ServerError::Shed {
                        tenant,
                        retry_hint: 1,
                    });
                }
                let Some(node) = self.least_loaded_node() else {
                    return ServerResponse::Error(ServerError::Shed {
                        tenant,
                        retry_hint: 1,
                    });
                };
                node
            }
            _ => match self.assignment.get(&tenant) {
                None => return ServerResponse::Error(ServerError::UnknownTenant { tenant }),
                Some(&owner) => {
                    if !self.nodes.contains_key(&owner) {
                        // Dead owner, failover pending: typed backpressure.
                        return ServerResponse::Error(ServerError::Shed {
                            tenant,
                            retry_hint: 1,
                        });
                    }
                    owner
                }
            },
        };
        let response = self
            .nodes
            .get_mut(&node)
            .expect("routed to a live node")
            .handle(request);
        // Routing state mutates only on success, in both directions: a
        // failed open must not leave the tenant pointing at a node with no
        // session, and only a confirmed close releases the tenant.
        match &response {
            ServerResponse::Opened { .. } => {
                self.assignment.insert(tenant, node);
            }
            ServerResponse::Closed { .. } => {
                self.assignment.remove(&tenant);
            }
            _ => {}
        }
        response
    }

    /// Routes one wire-encoded request, answering in wire form — the
    /// cluster-level twin of [`ScoutServer::handle_bytes`].
    pub fn handle_bytes(&mut self, bytes: &[u8]) -> Vec<u8> {
        match from_bytes::<ServerRequest>(bytes) {
            Ok(request) => to_bytes(&self.handle(request)),
            Err(error) => to_bytes(&ServerResponse::Error(ServerError::BadRequest {
                reason: format!("undecodable request: {error}"),
            })),
        }
    }

    /// Kills `node` instantly: its engine, sessions and queues are gone,
    /// its heartbeats stop, and its tenants' journals wait under the store
    /// root for failover. Killing an already-dead node is a no-op.
    pub fn kill_node(&mut self, node: NodeId) {
        self.nodes.remove(&node);
        // Routing state intentionally keeps pointing at the dead node until
        // membership catches up — that window is part of the failure model.
    }

    /// One coordinator round:
    ///
    /// 1. every live node heartbeats;
    /// 2. the membership clock advances, possibly declaring deaths;
    /// 3. the (possibly new) leader plans reassignment of orphaned tenants
    ///    and the survivors adopt them by journal replay;
    /// 4. every live node runs one admission tick, draining queues.
    pub fn tick(&mut self) -> TickReport {
        let mut report = TickReport::default();
        for &node in self.nodes.keys() {
            self.membership.heartbeat(node);
        }
        report.newly_dead = self.membership.tick();
        let alive = self.membership.alive();
        self.leader = elect(&alive);

        // The leader reassigns every tenant whose owner is gone — not just
        // this tick's casualties, so a leaderless interregnum (all nodes
        // briefly dead-ish) heals as soon as anyone can lead again.
        if self.leader.is_some() {
            let orphans: Vec<(TenantId, NodeId)> = self
                .assignment
                .iter()
                .filter(|(_, owner)| !self.nodes.contains_key(owner))
                .map(|(&tenant, &owner)| (tenant, owner))
                .collect();
            for reassignment in plan_reassignment(&orphans, &alive) {
                let Some(server) = self.nodes.get_mut(&reassignment.to) else {
                    continue;
                };
                match server.adopt(reassignment.tenant) {
                    Ok(_) => {
                        self.assignment.insert(reassignment.tenant, reassignment.to);
                        report.failed_over.push(reassignment);
                    }
                    Err(error) => {
                        // Surfaced, not swallowed: a failed adoption leaves
                        // the tenant orphaned for the next tick.
                        report.drained.push(ServerResponse::Error(error));
                    }
                }
            }
        }

        for server in self.nodes.values_mut() {
            report.drained.extend(server.tick());
        }
        report
    }
}

impl Cluster {
    /// The alive node with the fewest owned tenants, lowest id on ties —
    /// deterministic placement for `OpenSession`.
    fn least_loaded_node(&self) -> Option<NodeId> {
        self.nodes
            .iter()
            .map(|(&node, server)| (server.tenant_count(), node))
            .min()
            .map(|(_, node)| node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_fabric::{EventBatch, Fabric, FabricProbe};
    use scout_policy::sample;
    use scout_store::test_dir::TestDir;

    fn timeline(epochs: u64) -> (scout_policy::PolicyUniverse, Vec<EventBatch>) {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let mut probe = FabricProbe::new(&fabric);
        let mut batches = Vec::new();
        for epoch in 1..=epochs {
            if epoch % 2 == 1 {
                fabric.evict_tcam(sample::S2, 1, false);
            }
            batches.push(EventBatch::new(epoch, probe.observe(&fabric)));
        }
        (sample::three_tier(), batches)
    }

    #[test]
    fn opens_spread_across_nodes_deterministically() {
        let dir = TestDir::new("cluster-spread");
        let mut cluster = Cluster::new(dir.path(), ClusterConfig::default());
        for tenant in 0..6 {
            match cluster.handle(ServerRequest::OpenSession {
                tenant,
                universe: sample::three_tier(),
            }) {
                ServerResponse::Opened { .. } => {}
                other => panic!("open failed: {other:?}"),
            }
        }
        // 6 tenants over 3 nodes, least-loaded placement: 2 each.
        for node in 0..3 {
            assert_eq!(cluster.node(node).unwrap().tenant_count(), 2);
        }
        assert_eq!(cluster.leader(), Some(0));
    }

    #[test]
    fn killing_an_owner_shed_then_failover_then_serve() {
        let dir = TestDir::new("cluster-failover");
        let config = ClusterConfig {
            nodes: 3,
            heartbeat_timeout: 1,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(dir.path(), config);
        let (universe, batches) = timeline(6);
        cluster.handle(ServerRequest::OpenSession {
            tenant: 42,
            universe,
        });
        let owner = cluster.owner(42).unwrap();
        for batch in &batches[..3] {
            match cluster.handle(ServerRequest::Ingest {
                tenant: 42,
                batch: batch.clone(),
            }) {
                ServerResponse::Ingested { .. } => {}
                other => panic!("ingest failed: {other:?}"),
            }
        }

        cluster.kill_node(owner);
        // The dead-owner window: typed backpressure, not a hang or a panic.
        assert_eq!(
            cluster.handle(ServerRequest::Query { tenant: 42 }),
            ServerResponse::Error(ServerError::Shed {
                tenant: 42,
                retry_hint: 1
            })
        );

        // Tick until membership catches up and the leader reassigns.
        let mut moved = Vec::new();
        for _ in 0..4 {
            moved.extend(cluster.tick().failed_over);
        }
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].tenant, 42);
        assert_ne!(moved[0].to, owner);
        assert_eq!(cluster.owner(42), Some(moved[0].to));

        // The survivor serves the tail as if nothing happened.
        for batch in &batches[3..] {
            match cluster.handle(ServerRequest::Ingest {
                tenant: 42,
                batch: batch.clone(),
            }) {
                ServerResponse::Ingested { .. } => {}
                other => panic!("post-failover ingest failed: {other:?}"),
            }
        }

        // And if the leader was the casualty, a new one was elected.
        assert!(cluster.leader().is_some());
        assert_ne!(cluster.leader(), Some(owner));
    }

    #[test]
    fn reopen_during_failover_window_is_shed_not_replaced() {
        let dir = TestDir::new("cluster-reopen-window");
        let config = ClusterConfig {
            nodes: 3,
            heartbeat_timeout: 1,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(dir.path(), config);
        let (universe, batches) = timeline(6);
        cluster.handle(ServerRequest::OpenSession {
            tenant: 42,
            universe: universe.clone(),
        });
        let owner = cluster.owner(42).unwrap();
        for batch in &batches[..3] {
            assert!(matches!(
                cluster.handle(ServerRequest::Ingest {
                    tenant: 42,
                    batch: batch.clone(),
                }),
                ServerResponse::Ingested { .. }
            ));
        }
        cluster.kill_node(owner);

        // A client retrying OpenSession inside the shed-and-retry window
        // must be shed, not re-placed: re-placing would clobber the
        // dead-owner assignment the orphan scan keys off.
        assert_eq!(
            cluster.handle(ServerRequest::OpenSession {
                tenant: 42,
                universe
            }),
            ServerResponse::Error(ServerError::Shed {
                tenant: 42,
                retry_hint: 1
            })
        );
        assert_eq!(cluster.owner(42), Some(owner));

        // Failover still happens, and the survivor serves the tail.
        let mut moved = Vec::new();
        for _ in 0..6 {
            moved.extend(cluster.tick().failed_over);
        }
        assert_eq!(moved.len(), 1);
        assert_eq!(moved[0].tenant, 42);
        assert_ne!(moved[0].to, owner);
        for batch in &batches[3..] {
            assert!(matches!(
                cluster.handle(ServerRequest::Ingest {
                    tenant: 42,
                    batch: batch.clone(),
                }),
                ServerResponse::Ingested { .. }
            ));
        }
    }

    #[test]
    fn failed_open_leaves_no_routing_state() {
        let dir = TestDir::new("cluster-open-fail");
        let mut cluster = Cluster::new(dir.path(), ClusterConfig::default());
        cluster.handle(ServerRequest::OpenSession {
            tenant: 7,
            universe: sample::three_tier(),
        });
        assert!(matches!(
            cluster.handle(ServerRequest::CloseSession { tenant: 7 }),
            ServerResponse::Closed { .. }
        ));
        assert_eq!(cluster.owner(7), None);

        // The closed tenant's journal is still under the store root, so a
        // second open fails in storage (open refuses to clobber a store) …
        match cluster.handle(ServerRequest::OpenSession {
            tenant: 7,
            universe: sample::three_tier(),
        }) {
            ServerResponse::Error(ServerError::Storage { .. }) => {}
            other => panic!("expected a storage failure, got {other:?}"),
        }
        // … and must not leave the tenant assigned to a node that has no
        // session for it: no assignment, no phantom owner, no wedge.
        assert_eq!(cluster.owner(7), None);
        assert_eq!(
            cluster.handle(ServerRequest::Query { tenant: 7 }),
            ServerResponse::Error(ServerError::UnknownTenant { tenant: 7 })
        );
    }

    #[test]
    fn all_nodes_dead_sheds_opens_until_none_lead() {
        let dir = TestDir::new("cluster-dead");
        let config = ClusterConfig {
            nodes: 2,
            heartbeat_timeout: 0,
            ..ClusterConfig::default()
        };
        let mut cluster = Cluster::new(dir.path(), config);
        cluster.kill_node(0);
        cluster.kill_node(1);
        let mut newly_dead = Vec::new();
        for _ in 0..3 {
            newly_dead.extend(cluster.tick().newly_dead);
        }
        assert_eq!(newly_dead, vec![0, 1]);
        assert_eq!(cluster.leader(), None);
        assert_eq!(
            cluster.handle(ServerRequest::OpenSession {
                tenant: 1,
                universe: sample::three_tier(),
            }),
            ServerResponse::Error(ServerError::Shed {
                tenant: 1,
                retry_hint: 1
            })
        );
    }
}
