//! Deterministic streaming-scenario generator for SLUGGER.
//!
//! A [`Scenario`] composes a [`Topology`] (the initial graph family) with a
//! [`ChurnProgram`] (how the delta stream evolves it) under one name, e.g.
//! `powerlaw-hub-death`.  [`Scenario::instantiate`] yields a
//! [`ScenarioInstance`]: the initial [`Graph`] plus an
//! `Iterator<Item = GraphDelta>` that generates **one batch at a time** against
//! a live [`DynamicGraph`] mirror — a scenario's
//! total stream is never materialized, so instances can exceed RAM.
//!
//! The [`registry`] names the scenarios the tier-1 `scenario_matrix` test
//! re-proves the whole invariance lattice on.
//!
//! Everything is a pure function of `(scenario, scale, num_batches, seed)`:
//! two instantiations with equal arguments produce byte-identical streams.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod churn;
pub mod strategy;
mod topology;

pub use churn::{ChurnProgram, ChurnState};
pub use topology::Topology;

use rand::rngs::StdRng;
use rand::SeedableRng;
use slugger_graph::{DynamicGraph, Graph, GraphDelta};

/// A named, reproducible streaming workload: topology × churn program.
#[derive(Clone, Debug)]
pub struct Scenario {
    /// Stable scenario name (`--scenario NAME`, history/gate key component).
    pub name: &'static str,
    /// One-line human description.
    pub description: &'static str,
    /// Which invariance-lattice properties this scenario is designed to
    /// stress hardest (documentation, surfaced by `--scenario list`).
    pub stresses: &'static str,
    /// Initial graph family.
    pub topology: Topology,
    /// Delta-stream generator.
    pub churn: ChurnProgram,
}

impl Scenario {
    /// Builds the initial graph and a streaming delta iterator.
    ///
    /// `scale` linearly multiplies the topology's base size, `num_batches`
    /// bounds the iterator's length, and `seed` drives both the topology build
    /// and the churn stream.  Deterministic: equal arguments yield
    /// byte-identical initial graphs and delta sequences.
    pub fn instantiate(&self, scale: f64, num_batches: usize, seed: u64) -> ScenarioInstance {
        // Mix the scenario name into the seed so same-seed scenarios diverge.
        let mixed = self
            .name
            .bytes()
            .fold(seed ^ 0xcbf2_9ce4_8422_2325, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        let initial = self.topology.build(scale, mixed);
        let mirror = DynamicGraph::from_graph(&initial);
        // Per-batch ops budget: ~1% of the initial edges, floored so smoke
        // instances still produce meaningful deltas.
        let base_ops = (initial.num_edges() / 100).max(8);
        ScenarioInstance {
            initial,
            mirror,
            churn: self.churn,
            state: ChurnState::default(),
            rng: StdRng::seed_from_u64(mixed.wrapping_mul(0x2545_f491_4f6c_dd1d)),
            base_ops,
            next_batch: 0,
            num_batches,
        }
    }
}

/// A live instantiation of a [`Scenario`]: the initial graph plus a streaming
/// delta generator.  Iterating yields `num_batches` [`GraphDelta`]s; each is
/// generated against (and then applied to) an internal [`DynamicGraph`]
/// mirror, so memory stays O(graph + one batch).
pub struct ScenarioInstance {
    initial: Graph,
    mirror: DynamicGraph,
    churn: ChurnProgram,
    state: ChurnState,
    rng: StdRng,
    base_ops: usize,
    next_batch: usize,
    num_batches: usize,
}

impl ScenarioInstance {
    /// The initial snapshot the delta stream starts from.
    pub fn initial(&self) -> &Graph {
        &self.initial
    }

    /// Number of nodes in the scenario's (fixed) node universe.
    pub fn num_nodes(&self) -> usize {
        self.mirror.num_nodes()
    }

    /// The graph state after every delta yielded so far.
    pub fn current(&self) -> &DynamicGraph {
        &self.mirror
    }

    /// Total batches the iterator will yield.
    pub fn num_batches(&self) -> usize {
        self.num_batches
    }

    /// Drains the stream into memory (initial + all batches + final state).
    /// Convenience for tests at smoke scale; defeats the
    /// streaming property, so avoid it for very long scenarios.
    pub fn collect_stream(mut self) -> CollectedScenario {
        let initial = self.initial.clone();
        let num_nodes = self.num_nodes();
        let batches: Vec<GraphDelta> = self.by_ref().collect();
        CollectedScenario {
            initial,
            batches,
            num_nodes,
            final_edges: self.mirror.num_edges(),
        }
    }
}

impl Iterator for ScenarioInstance {
    type Item = GraphDelta;

    fn next(&mut self) -> Option<GraphDelta> {
        if self.next_batch >= self.num_batches {
            return None;
        }
        let delta = self.churn.next_batch(
            self.next_batch,
            self.base_ops,
            &self.mirror,
            &mut self.state,
            &mut self.rng,
        );
        // Keep the mirror in lock-step with what a consumer applying this
        // delta (deletions first, then insertions, idempotently) would hold.
        delta.apply_to(&mut self.mirror);
        self.next_batch += 1;
        Some(delta)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.num_batches - self.next_batch;
        (left, Some(left))
    }
}

/// A fully materialized scenario stream (see
/// [`ScenarioInstance::collect_stream`]).
pub struct CollectedScenario {
    /// The initial snapshot.
    pub initial: Graph,
    /// Every delta batch, in order.
    pub batches: Vec<GraphDelta>,
    /// Node-universe size.
    pub num_nodes: usize,
    /// Edge count after the final batch.
    pub final_edges: usize,
}

/// All registered scenarios, in stable order.
pub fn registry() -> Vec<Scenario> {
    vec![
        Scenario {
            name: "rmat-temporal",
            description: "RMAT graph under a drifting hot-window of inserts and deletes",
            stresses: "region localization under temporal locality; steady mixed churn",
            topology: Topology::Rmat {
                base_edges: 120_000,
            },
            churn: ChurnProgram::TemporalLocality {
                window_fraction: 0.08,
                delete_share: 0.35,
            },
        },
        Scenario {
            name: "caveman-community-merge",
            description: "caveman cliques repeatedly merged by cross edges and split again",
            stresses: "supernode merge/dissolve decisions at community granularity",
            topology: Topology::Caveman { base_nodes: 24_000 },
            churn: ChurnProgram::CommunityCycle {
                block_fraction: 0.06,
            },
        },
        Scenario {
            name: "powerlaw-hub-death",
            description:
                "Barabási–Albert graph whose top hub dies (all edges at once) and is reborn",
            stresses: "partial dissolution and region pruning when a dense neighborhood vanishes",
            topology: Topology::PowerLaw {
                base_nodes: 20_000,
                attach: 4,
            },
            churn: ChurnProgram::HubUpheaval { period: 3 },
        },
        Scenario {
            name: "caveman-hub-death",
            description: "caveman cliques with periodic death/rebirth of the densest node",
            stresses: "dissolution inside near-cliques; candidate-index retirement",
            topology: Topology::Caveman { base_nodes: 16_000 },
            churn: ChurnProgram::HubUpheaval { period: 4 },
        },
        Scenario {
            name: "grid-burst",
            description: "grid+shortcuts under Pareto-sized batches (mostly tiny, rarely 40x)",
            stresses: "batch-size robustness; breadth-driven (hub-free) region growth",
            topology: Topology::GridShortcuts {
                base_side: 160,
                shortcut_fraction: 0.05,
            },
            churn: ChurnProgram::Burst {
                alpha: 1.8,
                delete_share: 0.3,
            },
        },
        Scenario {
            name: "bipartite-delete-heavy",
            description: "skewed bipartite graph through alternating demolition/rebuild phases",
            stresses: "dead-slot growth, compaction triggers, shared-neighborhood supernodes",
            topology: Topology::Bipartite {
                base_hubs: 400,
                base_leaves: 20_000,
                attach: 3,
            },
            churn: ChurnProgram::DeleteHeavy { period: 2 },
        },
        Scenario {
            name: "rmat-noop-storm",
            description: "RMAT graph under deltas dominated by duplicate and no-op operations",
            stresses: "idempotence of apply/dissolve paths; empty-batch handling",
            topology: Topology::Rmat { base_edges: 80_000 },
            churn: ChurnProgram::NoopStorm,
        },
    ]
}

/// Looks a scenario up by name.
pub fn find(name: &str) -> Option<Scenario> {
    registry().into_iter().find(|s| s.name == name)
}

/// The registered scenario names, in registry order.
pub fn names() -> Vec<&'static str> {
    registry().iter().map(|s| s.name).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use slugger_graph::NodeId;

    #[test]
    fn registry_names_are_stable_and_cover_required_classes() {
        let names = names();
        assert!(names.len() >= 6);
        for required in [
            "hub-death",
            "community-merge",
            "delete-heavy",
            "burst",
            "noop",
            "temporal",
        ] {
            assert!(
                names.iter().any(|n| n.contains(required)),
                "no scenario name contains {required:?}: {names:?}"
            );
        }
        let mut sorted = names.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len(), "duplicate scenario names");
        assert!(find("powerlaw-hub-death").is_some());
        assert!(find("nonexistent").is_none());
    }

    #[test]
    fn instances_are_deterministic_and_stay_in_bounds() {
        for scenario in registry() {
            let a = scenario.instantiate(0.02, 5, 11).collect_stream();
            let b = scenario.instantiate(0.02, 5, 11).collect_stream();
            assert_eq!(
                a.initial.edge_set(),
                b.initial.edge_set(),
                "{}: initial graph must be deterministic",
                scenario.name
            );
            assert_eq!(
                a.batches, b.batches,
                "{}: stream must be deterministic",
                scenario.name
            );
            assert_eq!(a.batches.len(), 5);
            let n = a.num_nodes;
            for delta in &a.batches {
                for &(u, v) in delta.deletions.iter().chain(delta.insertions.iter()) {
                    assert!(
                        (u as usize) < n && (v as usize) < n,
                        "{}: op ({u}, {v}) outside universe {n}",
                        scenario.name
                    );
                }
            }
            let c = scenario.instantiate(0.02, 5, 12).collect_stream();
            assert!(
                a.initial.edge_set() != c.initial.edge_set() || a.batches != c.batches,
                "{}: seed must matter",
                scenario.name
            );
        }
    }

    #[test]
    fn mirror_tracks_consumer_application_exactly() {
        for scenario in registry() {
            let mut instance = scenario.instantiate(0.02, 6, 3);
            let mut consumer = DynamicGraph::from_graph(instance.initial());
            while let Some(delta) = instance.next() {
                delta.apply_to(&mut consumer);
                assert_eq!(
                    consumer.num_edges(),
                    instance.current().num_edges(),
                    "{}: mirror diverged from consumer",
                    scenario.name
                );
            }
            let a: Vec<(NodeId, NodeId)> = consumer.edges().collect();
            let b: Vec<(NodeId, NodeId)> = instance.current().edges().collect();
            assert_eq!(a, b, "{}: final edge sets differ", scenario.name);
        }
    }

    #[test]
    fn streams_produce_real_change() {
        for scenario in registry() {
            let collected = scenario.instantiate(0.02, 6, 7).collect_stream();
            let ops: usize = collected.batches.iter().map(|d| d.len()).sum();
            assert!(ops > 0, "{}: stream is entirely empty", scenario.name);
            assert!(
                collected.final_edges > 0,
                "{}: scenario emptied the graph",
                scenario.name
            );
        }
    }
}
