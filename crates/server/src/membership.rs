//! Heartbeat-based membership: who is alive, and when did we decide they
//! were not.
//!
//! The cluster runs on a logical clock — one [`Membership::tick`] per
//! coordinator round. A node is **suspected dead** once it has missed more
//! than `heartbeat_timeout` consecutive ticks, and death is *sticky*: a
//! partitioned node that comes back is not re-admitted with its old
//! identity, because its sessions may already have been reassigned (the
//! classic split-brain hazard; a real deployment would rejoin it under a
//! fresh node id). Everything is deterministic — given the same join /
//! heartbeat / tick history, every observer derives the same alive set, so
//! leader election needs no extra consensus round.

use std::collections::{BTreeMap, BTreeSet};

/// A cluster node identifier.
pub type NodeId = u64;

/// Liveness bookkeeping for one node.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct NodeHealth {
    last_heartbeat: u64,
    alive: bool,
}

/// The cluster's view of which nodes are alive, driven by heartbeats and a
/// logical tick clock.
#[derive(Debug, Clone)]
pub struct Membership {
    /// Missed ticks tolerated before a node is declared dead.
    timeout: u64,
    nodes: BTreeMap<NodeId, NodeHealth>,
    now: u64,
}

impl Membership {
    /// A membership view tolerating `timeout` missed ticks.
    pub fn new(timeout: u64) -> Self {
        Self {
            timeout,
            nodes: BTreeMap::new(),
            now: 0,
        }
    }

    /// The current logical time (ticks elapsed).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Admits `node` as alive with a fresh heartbeat. Re-joining a dead
    /// node id is ignored (death is sticky — see the module docs).
    pub fn join(&mut self, node: NodeId) {
        let covers = self.now + 1;
        self.nodes.entry(node).or_insert(NodeHealth {
            last_heartbeat: covers,
            alive: true,
        });
    }

    /// Records a heartbeat from `node`. A heartbeat covers the *upcoming*
    /// tick (a node that beats every round shows zero lag, so even
    /// `timeout == 0` keeps a healthy node alive). Heartbeats from unknown
    /// or dead nodes are ignored.
    pub fn heartbeat(&mut self, node: NodeId) {
        let covers = self.now + 1;
        if let Some(health) = self.nodes.get_mut(&node) {
            if health.alive {
                health.last_heartbeat = covers;
            }
        }
    }

    /// Advances the clock one tick and returns the nodes **newly** declared
    /// dead this tick, ascending.
    pub fn tick(&mut self) -> Vec<NodeId> {
        self.now += 1;
        let mut newly_dead = Vec::new();
        for (&node, health) in &mut self.nodes {
            if health.alive && self.now - health.last_heartbeat > self.timeout {
                health.alive = false;
                newly_dead.push(node);
            }
        }
        newly_dead
    }

    /// Whether `node` is currently considered alive.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.get(&node).is_some_and(|health| health.alive)
    }

    /// The alive nodes, ascending.
    pub fn alive(&self) -> BTreeSet<NodeId> {
        self.nodes
            .iter()
            .filter(|(_, health)| health.alive)
            .map(|(&node, _)| node)
            .collect()
    }

    /// Every node ever admitted, alive or dead, ascending.
    pub fn members(&self) -> BTreeSet<NodeId> {
        self.nodes.keys().copied().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn silence_past_the_timeout_is_death_and_death_is_sticky() {
        let mut m = Membership::new(2);
        m.join(1);
        m.join(2);

        // Node 2 heartbeats every tick; node 1 goes silent.
        assert!(m.tick().is_empty()); // join covers this tick
        m.heartbeat(2);
        assert!(m.tick().is_empty()); // 1 has missed 1 tick
        m.heartbeat(2);
        assert!(m.tick().is_empty()); // 1 has missed 2 ticks: at the limit
        m.heartbeat(2);
        assert_eq!(m.tick(), vec![1]); // past the limit: newly dead
        m.heartbeat(2);
        assert!(m.tick().is_empty()); // reported dead exactly once

        assert!(!m.is_alive(1));
        assert!(m.is_alive(2));

        // A late heartbeat or rejoin does not resurrect the old identity.
        m.heartbeat(1);
        m.join(1);
        assert!(!m.is_alive(1));
        assert_eq!(m.alive(), BTreeSet::from([2]));
        assert_eq!(m.members(), BTreeSet::from([1, 2]));
    }

    // A plain fn kept out of line: as a closure inlined at its three call
    // sites, rustc 1.95 miscompiles this at opt-level >= 2 (double free).
    #[inline(never)]
    fn drive(mut m: Membership) -> BTreeSet<NodeId> {
        m.join(1);
        m.join(2);
        m.join(3);
        for round in 0..6 {
            if round % 2 == 0 {
                m.heartbeat(1);
            }
            m.heartbeat(3);
            m.tick();
        }
        m.alive()
    }

    #[test]
    fn identical_histories_derive_identical_views() {
        assert_eq!(drive(Membership::new(2)), drive(Membership::new(2)));
        assert_eq!(drive(Membership::new(2)), BTreeSet::from([1, 3]));
    }
}
