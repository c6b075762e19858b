//! The Algorithm 1 driver: metrics → tree → ordered transfers → plan.

use crate::balance::policy::LbNetwork;
use crate::balance::power::LoadMetrics;
use crate::balance::score::{MoveScore, MoveWeights};
use crate::balance::tree::build_forest_weighted;
use crate::ownership::{NodeId, Ownership};
use nlheat_mesh::SdId;
use nlheat_netmodel::N_LINK_CLASSES;

/// One SD migration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Move {
    /// The migrating sub-domain.
    pub sd: SdId,
    /// Current owner.
    pub from: NodeId,
    /// New owner.
    pub to: NodeId,
}

/// Communication summary of a [`MigrationPlan`]: what shipping it costs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PlanComm {
    /// Total migration payload bytes.
    pub total_bytes: u64,
    /// Migration bytes by [`nlheat_netmodel::LinkClass`] (indexed by the
    /// enum discriminant: intra-node, intra-rack, inter-rack).
    pub bytes_by_class: [u64; N_LINK_CLASSES],
}

impl PlanComm {
    /// Bytes crossing rack boundaries — the traffic cost-aware planning
    /// exists to shrink.
    pub fn inter_rack_bytes(&self) -> u64 {
        self.bytes_by_class[nlheat_netmodel::LinkClass::InterRack as usize]
    }
}

/// The outcome of one load-balancing iteration.
#[derive(Debug, Clone)]
pub struct MigrationPlan {
    /// SD migrations in application order.
    pub moves: Vec<Move>,
    /// The metrics (eqs. 8–10) the plan was derived from.
    pub metrics: LoadMetrics,
    /// The ownership after applying `moves`.
    pub new_ownership: Ownership,
    /// Migration traffic summary (all zero when planned over
    /// [`LbNetwork::free`], whose `sd_bytes` is 0).
    pub comm: PlanComm,
    /// Estimated seconds to ship the plan's tiles, per
    /// [`nlheat_netmodel::CommCost`].
    pub est_migration_seconds: f64,
}

impl MigrationPlan {
    /// True when the iteration found nothing to move.
    pub fn is_noop(&self) -> bool {
        self.moves.is_empty()
    }
}

/// What [`settle`] asks of the planner it walks for: how to order links,
/// who borders whom, and how to realize a transfer.
pub(crate) trait Settlement {
    /// Ordering weight of the `u`–`v` link (cheapest first).
    fn edge_weight(&self, u: NodeId, v: NodeId) -> f64;

    /// The nodes `i` can exchange SDs with when its turn comes.
    fn adjacent(&self, i: NodeId) -> Vec<NodeId>;

    /// Realize up to `amount` SD moves `src` → `dst`; returns how many
    /// actually moved.
    fn transfer(&mut self, src: NodeId, dst: NodeId, amount: usize) -> i64;
}

/// The settlement walk of Algorithm 1 over one node graph.
///
/// Sign conventions follow eq. 9 (`imbalance = expected − count`, positive
/// = node should *gain* SDs). The dependency forest over `adjacency` is
/// rooted at the minimum imbalance; each node in topological order settles
/// its imbalance against its not-yet-visited adjacent nodes, `imbalance/L`
/// each with the remainder spread deterministically over the cheapest
/// links. Transfers are realized immediately, and what a transfer could
/// not realize (exhausted frontier, gated move, full memory) simply stays
/// in `imbalance` for the next iteration — the algorithm is iterative by
/// design (the paper's Fig. 14 converges in three iterations).
///
/// At uniform weights every ordering falls back to node ids: the
/// count-based paper algorithm.
pub(crate) fn settle(adjacency: &[Vec<NodeId>], imbalance: &mut [i64], s: &mut impl Settlement) {
    let forest = build_forest_weighted(adjacency, imbalance, |u, v| s.edge_weight(u, v));
    let mut visited = vec![false; adjacency.len()];
    for tree in &forest {
        for &i in &tree.order {
            visited[i as usize] = true;
            if imbalance[i as usize] == 0 {
                continue;
            }
            // graph adjacency; the tree only fixes the ordering
            let mut neighbors = s.adjacent(i);
            neighbors.retain(|&m| !visited[m as usize]);
            neighbors.sort_by(|&a, &b| {
                s.edge_weight(i, a)
                    .total_cmp(&s.edge_weight(i, b))
                    .then(a.cmp(&b))
            });
            let l = neighbors.len() as i64;
            if l == 0 {
                continue;
            }
            let want = imbalance[i as usize];
            let base = want / l;
            let mut rem = want - base * l;
            for &m in &neighbors {
                let mut x = base;
                if rem != 0 {
                    x += rem.signum();
                    rem -= rem.signum();
                }
                if x == 0 {
                    continue;
                }
                let (src, dst, amount) = if x > 0 {
                    (m, i, x as usize) // i borrows from m
                } else {
                    (i, m, (-x) as usize) // i lends to m
                };
                let realized = s.transfer(src, dst, amount);
                // bookkeeping: dst gained `realized`, src lost them
                imbalance[dst as usize] -= realized;
                imbalance[src as usize] += realized;
            }
        }
    }
}

/// The rank-level [`Settlement`]: ranks are the nodes, transfers grow
/// rings along the shared frontier.
struct RankSettlement<'a> {
    score: MoveScore<'a>,
    working: Ownership,
    /// Raw transfers in tree order; may route one SD through several owners.
    raw: Vec<Move>,
}

impl Settlement for RankSettlement<'_> {
    fn edge_weight(&self, u: NodeId, v: NodeId) -> f64 {
        self.score.edge_weight(u, v)
    }

    /// Recomputed from the *working* ownership: earlier transfers may
    /// have created or removed borders.
    fn adjacent(&self, i: NodeId) -> Vec<NodeId> {
        self.working.node_adjacency().swap_remove(i as usize)
    }

    fn transfer(&mut self, src: NodeId, dst: NodeId, amount: usize) -> i64 {
        self.score
            .realize(&mut self.working, &mut self.raw, src, dst, amount)
    }
}

/// One iteration of Algorithm 1 over the ranks of `own`.
///
/// `metrics` are eqs. 8–10 computed from the per-rank busy times
/// accumulated since the previous iteration's counter reset (seconds, when
/// `weights` are non-zero — see [`MoveScore`]). Over [`LbNetwork::free`]
/// with zero weights this is the paper's count-based planner; with a
/// priced network the weights enter at three points of the `settle` walk,
/// all through the one [`MoveScore`] and all degenerating byte-identically
/// at `λ = μ = 0`:
/// * the dependency forest expands cheap links first, so the topological
///   order settles imbalance within racks before crossing them;
/// * within one node's settlement, the remainder of `imbalance/L` is
///   given to the cheapest-linked neighbours first;
/// * a transfer is realized only while its score stays non-negative
///   ([`MoveScore::realize`]). Gated imbalance stays put and is settled
///   over cheaper links on later iterations.
pub fn plan_rebalance(
    own: &Ownership,
    metrics: &LoadMetrics,
    net: &LbNetwork,
    weights: MoveWeights,
) -> MigrationPlan {
    let n = own.n_nodes() as usize;
    assert_eq!(metrics.counts.len(), n, "metrics cover every node");
    let score = MoveScore::new(weights, metrics, net);
    let mut imbalance = metrics.imbalance.clone();
    let mut ranks = RankSettlement {
        score,
        working: own.clone(),
        raw: Vec::new(),
    };
    settle(&own.node_adjacency(), &mut imbalance, &mut ranks);
    finish_plan(metrics.clone(), ranks.working, ranks.raw, net)
}

/// Turn a policy's raw transfer trace into the emitted [`MigrationPlan`]:
/// collapse per-SD chains (A→B, then B→C later in the same plan) into net
/// single-hop moves (A→C) and summarize the migration traffic. The runtime
/// ships each migrating tile exactly once per epoch, directly from the
/// owner that actually holds it; a chained plan would ask the intermediate
/// owner to forward a tile it never received. Collapsing also drops
/// A→…→A round trips — this is where *every* [`crate::balance::policy`]
/// implementation earns the single-hop invariant the fabric relies on.
pub(crate) fn finish_plan(
    metrics: LoadMetrics,
    working: Ownership,
    raw: Vec<Move>,
    net: &LbNetwork,
) -> MigrationPlan {
    // One past where each SD's first move sits in `moves`, 0 = not moved
    // yet: a dense table over the SDs (a repartition plan moves most of
    // them), zero-initialised so a plan of few moves touches few pages.
    let mut slot = vec![0usize; working.owners().len()];
    let mut moves: Vec<Move> = Vec::with_capacity(raw.len());
    for mv in raw {
        let at = &mut slot[mv.sd as usize];
        if *at == 0 {
            moves.push(mv);
            *at = moves.len();
        } else {
            moves[*at - 1].to = mv.to;
        }
    }
    moves.retain(|m| m.from != m.to);

    // Traffic summary over the collapsed (actually shipped) moves.
    let mut comm = PlanComm::default();
    let mut est_migration_seconds = 0.0;
    for m in &moves {
        comm.total_bytes += net.sd_bytes;
        comm.bytes_by_class[net.comm.link_class(m.from, m.to) as usize] += net.sd_bytes;
        est_migration_seconds += net.comm.seconds(m.from, m.to, net.sd_bytes);
    }

    MigrationPlan {
        moves,
        metrics,
        new_ownership: working,
        comm,
        est_migration_seconds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::power::compute_metrics;
    use nlheat_mesh::SdGrid;

    /// The paper's count-based planner: free network, zero weights.
    fn count_based(own: &Ownership, busy: &[f64]) -> MigrationPlan {
        cost_aware(own, busy, &LbNetwork::free(), 0.0)
    }

    /// The cost-aware planner over `net` at weight `lambda`, ghost-blind.
    fn cost_aware(own: &Ownership, busy: &[f64], net: &LbNetwork, lambda: f64) -> MigrationPlan {
        let metrics = compute_metrics(&own.counts(), busy);
        plan_rebalance(own, &metrics, net, MoveWeights::new(lambda, 0.0))
    }

    /// Replan (count-based) up to `max_iters` times with busy times from
    /// `busy_model`; the ownership history including the initial state.
    fn iterate(
        own: &Ownership,
        max_iters: usize,
        mut busy_model: impl FnMut(&Ownership) -> Vec<f64>,
    ) -> Vec<Ownership> {
        let mut history = vec![own.clone()];
        for _ in 0..max_iters {
            let current = history.last().unwrap();
            let plan = count_based(current, &busy_model(current));
            if plan.is_noop() {
                break;
            }
            history.push(plan.new_ownership);
        }
        history
    }

    /// Busy time proportional to SD count over identical nodes.
    fn symmetric_busy(own: &Ownership) -> Vec<f64> {
        own.counts().iter().map(|&c| c.max(1) as f64).collect()
    }

    /// Busy time for nodes with given speeds: count / speed.
    fn busy_for_speeds(own: &Ownership, speeds: &[f64]) -> Vec<f64> {
        own.counts()
            .iter()
            .zip(speeds)
            .map(|(&c, &s)| c as f64 / s)
            .collect()
    }

    /// The paper's Fig. 14 initial state: 5x5 SDs, 4 symmetric nodes,
    /// highly imbalanced — node 0 owns almost everything.
    fn fig14_initial() -> Ownership {
        let sds = SdGrid::new(5, 5, 4);
        let mut owners = vec![0u32; 25];
        owners[sds.id(4, 0) as usize] = 1;
        owners[sds.id(4, 4) as usize] = 3;
        owners[sds.id(0, 4) as usize] = 2;
        Ownership::new(sds, owners, 4)
    }

    #[test]
    fn balanced_input_is_noop() {
        let sds = SdGrid::new(4, 4, 5);
        let mut owners = vec![0u32; 16];
        for sd in 0..16 {
            let (sx, sy) = sds.coords(sd);
            owners[sd as usize] = (sy / 2 * 2 + sx / 2) as u32;
        }
        let own = Ownership::new(sds, owners, 4);
        let plan = count_based(&own, &symmetric_busy(&own));
        assert!(plan.is_noop(), "already balanced quadrants");
    }

    #[test]
    fn moves_preserve_sd_conservation() {
        let own = fig14_initial();
        let plan = count_based(&own, &symmetric_busy(&own));
        let before: usize = own.counts().iter().sum();
        let after: usize = plan.new_ownership.counts().iter().sum();
        assert_eq!(before, after);
        // every move's `from` owned the SD at its time of application
        let mut check = own.clone();
        for m in &plan.moves {
            assert_eq!(check.owner(m.sd), m.from, "stale move source");
            check.set_owner(m.sd, m.to);
        }
        assert_eq!(check, plan.new_ownership);
    }

    #[test]
    fn fig14_converges_within_three_iterations() {
        // The paper's validation: highly imbalanced start, symmetric
        // nodes; within 3 iterations the distribution is near-balanced.
        let own = fig14_initial();
        let history = iterate(&own, 3, symmetric_busy);
        let final_counts = history.last().unwrap().counts();
        let max = *final_counts.iter().max().unwrap();
        let min = *final_counts.iter().min().unwrap();
        assert!(
            max - min <= 2,
            "counts after 3 iterations too uneven: {final_counts:?}"
        );
    }

    #[test]
    fn heterogeneous_speeds_get_proportional_shares() {
        // Node 0 twice as fast as the others: it should end up with about
        // twice the SDs.
        let sds = SdGrid::new(6, 6, 4);
        let mut owners = vec![0u32; 36];
        for sd in 0..36u32 {
            let (sx, _) = sds.coords(sd);
            owners[sd as usize] = (sx / 2) as u32; // vertical thirds
        }
        let own = Ownership::new(sds, owners, 3);
        let speeds = [2.0, 1.0, 1.0];
        let history = iterate(&own, 5, |o| busy_for_speeds(o, &speeds));
        let counts = history.last().unwrap().counts();
        // expectation: 36 * 2/4 = 18 vs 9 and 9
        assert!(
            (16..=20).contains(&counts[0]),
            "fast node share: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 36);
    }

    #[test]
    fn contiguity_preserved_through_iterations() {
        let own = fig14_initial();
        let history = iterate(&own, 3, symmetric_busy);
        for (it, state) in history.iter().enumerate() {
            for node in 0..4 {
                assert!(
                    state.is_contiguous(node),
                    "node {node} fragmented at iteration {it}:\n{}",
                    state.render()
                );
            }
        }
    }

    #[test]
    fn single_node_cluster_is_trivially_balanced() {
        let own = Ownership::new(SdGrid::new(4, 4, 5), vec![0; 16], 1);
        let plan = count_based(&own, &[1.0]);
        assert!(plan.is_noop());
    }

    #[test]
    fn two_nodes_direct_exchange() {
        // 1x6 row: node 0 owns 5, node 1 owns 1; symmetric busy.
        let sds = SdGrid::new(6, 1, 4);
        let own = Ownership::new(sds, vec![0, 0, 0, 0, 0, 1], 2);
        let plan = count_based(&own, &symmetric_busy(&own));
        let counts = plan.new_ownership.counts();
        assert_eq!(counts, vec![3, 3]);
        // the moved SDs are the ones bordering node 1 (ids 4 then 3)
        let moved: Vec<SdId> = plan.moves.iter().map(|m| m.sd).collect();
        assert_eq!(moved, vec![4, 3]);
    }

    #[test]
    fn moves_are_single_hop_per_sd() {
        // Regression: a plan may internally route an SD through several
        // owners (node i borrows X from m, a later node borrows X from i).
        // The emitted plan must collapse that to one move per SD whose
        // `from` is the SD's owner *before* the epoch — the distributed
        // driver ships every migrating tile concurrently and would panic
        // ("migrating unowned SD") on a chained plan. Sweep skewed busy
        // vectors over several imbalanced ownerships to cover many tree
        // shapes and transfer orders.
        let sds = SdGrid::new(6, 6, 4);
        for pattern in 0..16u32 {
            let owners: Vec<u32> = (0..36u32)
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                })
                .collect();
            let own = Ownership::new(sds, owners, 4);
            for skew in 0..8 {
                let busy: Vec<f64> = (0..4)
                    .map(|n| 1.0 + ((n + skew) % 4) as f64 * 1.7)
                    .collect();
                let plan = count_based(&own, &busy);
                let mut seen = std::collections::HashSet::new();
                for m in &plan.moves {
                    assert!(seen.insert(m.sd), "SD {} moved twice", m.sd);
                    assert_ne!(m.from, m.to, "no-op move for SD {}", m.sd);
                    assert_eq!(
                        own.owner(m.sd),
                        m.from,
                        "move source must be the pre-epoch owner"
                    );
                }
                // net moves still land exactly on the claimed ownership
                let mut check = own.clone();
                for m in &plan.moves {
                    check.set_owner(m.sd, m.to);
                }
                assert_eq!(check, plan.new_ownership);
            }
        }
    }

    #[test]
    fn ghost_aware_plan_without_mu_is_byte_identical() {
        // a plan with a graph attached but μ = 0 must take the ghost-blind
        // path exactly
        let sds = SdGrid::new(6, 6, 4);
        let graph = std::sync::Arc::new(nlheat_partition::SdGraph::build(&sds, 2));
        let blind_net = harsh_two_rack_net(5024);
        let ghosted_net = blind_net.clone().with_sd_graph(graph);
        for pattern in 0..4u32 {
            let owners: Vec<u32> = (0..36u32)
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                })
                .collect();
            let own = Ownership::new(sds, owners, 4);
            let busy: Vec<f64> = (0..4).map(|n| 1.0 + (n % 4) as f64 * 2.3).collect();
            let blind = cost_aware(&own, &busy, &blind_net, 1.0);
            let ghosted = cost_aware(&own, &busy, &ghosted_net, 1.0);
            assert_eq!(blind.moves, ghosted.moves, "pattern {pattern}");
            assert_eq!(blind.new_ownership, ghosted.new_ownership);
        }
    }

    #[test]
    fn plan_records_metrics() {
        let own = fig14_initial();
        let plan = count_based(&own, &symmetric_busy(&own));
        assert_eq!(plan.metrics.counts, vec![22, 1, 1, 1]);
        assert_eq!(plan.metrics.imbalance.iter().sum::<i64>(), 0);
    }

    use nlheat_netmodel::{LinkSpec, NetSpec, TopologySpec};

    /// A 2-rack network where crossing racks is brutally expensive and
    /// staying inside a rack is nearly free, shipping `sd_bytes` tiles.
    fn harsh_two_rack_net(sd_bytes: u64) -> LbNetwork {
        LbNetwork::from_spec(
            &NetSpec::Topology(TopologySpec {
                ranks_per_node: 1,
                nodes_per_rack: 2,
                intra_node: LinkSpec::new(0.0, f64::INFINITY),
                intra_rack: LinkSpec::new(1e-9, f64::INFINITY),
                inter_rack: LinkSpec::new(10.0, 1.0),
            }),
            sd_bytes,
        )
    }

    #[test]
    fn lambda_zero_with_real_network_is_byte_identical() {
        // The acceptance criterion: cost-aware planning at λ = 0 must not
        // perturb the count-based plans, even with a non-trivial CommCost
        // and tile size attached. Sweep the same ownership/busy space as
        // `moves_are_single_hop_per_sd`.
        let net = harsh_two_rack_net(1 << 20);
        let sds = SdGrid::new(6, 6, 4);
        for pattern in 0..16u32 {
            let owners: Vec<u32> = (0..36u32)
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                })
                .collect();
            let own = Ownership::new(sds, owners, 4);
            for skew in 0..8 {
                let busy: Vec<f64> = (0..4)
                    .map(|n| 1.0 + ((n + skew) % 4) as f64 * 1.7)
                    .collect();
                let seed = count_based(&own, &busy);
                let priced = cost_aware(&own, &busy, &net, 0.0);
                assert_eq!(seed.moves, priced.moves, "pattern {pattern} skew {skew}");
                assert_eq!(seed.new_ownership, priced.new_ownership);
            }
        }
    }

    #[test]
    fn lambda_gates_inter_rack_migrations() {
        // 8x1 row; racks {0,1} and {2,3}. Node 1 is overloaded and would
        // settle toward both node 0 (intra-rack) and node 2 (inter-rack).
        let sds = SdGrid::new(8, 1, 4);
        let owners = vec![0, 0, 1, 1, 1, 1, 2, 3];
        let own = Ownership::new(sds, owners, 4);
        let busy = symmetric_busy(&own);
        let net = harsh_two_rack_net(1000);

        let free = cost_aware(&own, &busy, &net, 0.0);
        assert!(
            free.comm.inter_rack_bytes() > 0,
            "λ=0 must cross racks here: {:?}",
            free.moves
        );
        // relief ≈ 1 s/SD, inter-rack cost = 10 + 2·1000/1 = 2010 s ≫ it
        let gated = cost_aware(&own, &busy, &net, 1.0);
        assert_eq!(
            gated.comm.inter_rack_bytes(),
            0,
            "λ=1 must gate the inter-rack move: {:?}",
            gated.moves
        );
        assert!(!gated.is_noop(), "intra-rack settlement must still happen");
        assert!(gated
            .moves
            .iter()
            .all(|m| net.comm.link_class(m.from, m.to) != nlheat_netmodel::LinkClass::InterRack),);
    }

    #[test]
    fn plan_comm_classifies_bytes_per_link() {
        let sds = SdGrid::new(8, 1, 4);
        let owners = vec![0, 0, 1, 1, 1, 1, 2, 3];
        let own = Ownership::new(sds, owners, 4);
        let plan = cost_aware(&own, &symmetric_busy(&own), &harsh_two_rack_net(64), 0.0);
        let by_class: u64 = plan.comm.bytes_by_class.iter().sum();
        assert_eq!(plan.comm.total_bytes, by_class);
        assert_eq!(plan.comm.total_bytes, 64 * plan.moves.len() as u64);
        assert!(plan.est_migration_seconds > 0.0);
        // the free-network spelling reports zero traffic
        let free = count_based(&own, &symmetric_busy(&own));
        assert_eq!(free.comm, PlanComm::default());
        assert_eq!(free.est_migration_seconds, 0.0);
    }

    #[test]
    fn gated_plans_keep_single_hop_invariant() {
        // The single-hop collapse must survive cost-aware gating: sweep
        // λ over skewed busy vectors on a 2-rack layout and assert no SD
        // moves twice and every `from` is the pre-epoch owner.
        let sds = SdGrid::new(6, 6, 4);
        let net = harsh_two_rack_net(5024);
        for pattern in 0..8u32 {
            let owners: Vec<u32> = (0..36u32)
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                })
                .collect();
            let own = Ownership::new(sds, owners, 4);
            for lambda in [0.0, 1e-4, 0.5, 1.0, 100.0] {
                let busy: Vec<f64> = (0..4).map(|n| 1.0 + (n % 4) as f64 * 2.3).collect();
                let plan = cost_aware(&own, &busy, &net, lambda);
                let mut seen = std::collections::HashSet::new();
                for m in &plan.moves {
                    assert!(seen.insert(m.sd), "SD {} moved twice (λ={lambda})", m.sd);
                    assert_eq!(own.owner(m.sd), m.from, "stale source (λ={lambda})");
                    assert_ne!(m.from, m.to);
                }
                let mut check = own.clone();
                for m in &plan.moves {
                    check.set_owner(m.sd, m.to);
                }
                assert_eq!(check, plan.new_ownership);
            }
        }
    }
}
