//! The hierarchical, memory-aware planner: settle load imbalance between
//! racks first, then between the nodes of each rack, then between the
//! ranks of each node — each level over its own coarse group graph — so a
//! 10k-rank cluster plans in near-linear time where the flat planner's
//! per-node `node_adjacency()` recomputation and `owned_by()` frontier
//! scans go superlinear.
//!
//! Each level runs the same Algorithm-1 walk the flat planner uses
//! (`algorithm::settle`: power-proportional expected shares, dependency forest
//! rooted at the minimum imbalance, topological `imbalance/L`
//! settlement), but over *groups* (racks, nodes, ranks) instead of ranks,
//! with transfers realized along the SD frontier between the two groups:
//!
//! 1. one O(`n_sds`) boundary pass builds the group adjacency and the
//!    per-ordered-pair frontier SD sets;
//! 2. group power is the sum of the member ranks' measured power
//!    (eq. 8), so expected shares (eq. 10) aggregate consistently;
//! 3. a transfer `src → dst` pops frontier SDs in id order, assigns each
//!    to the lowest-id adjacent rank of the destination group, and grows
//!    the frontier incrementally as territory recedes — no per-move
//!    rescans.
//!
//! The planner is **memory-aware** end to end: when the [`LbNetwork`]
//! carries per-rank capacities and per-SD resident footprints, every
//! level rejects a destination whose memory the move would overflow, and
//! the running usage advances with each realized move. Every move is
//! gated by the same [`MoveScore`] the flat planner uses (λ prices its
//! migration, μ its recurring ghost-traffic delta); residual imbalance
//! that the frontier, the gate, or the capacities refuse simply stays for
//! the next epoch — the algorithm is iterative by design.
//!
//! The rank → node → rack hierarchy comes from the
//! [`TopologySpec`](nlheat_netmodel::TopologySpec) behind the active
//! [`CommCost`]; on a degenerate hierarchy (no topology, or a single
//! rack of single-rank nodes) a hierarchical [`LbSpec`] has its leaf plan
//! the epoch — byte-identical plans by construction — unless memory
//! capacities are attached, in which case the capacity-gated machinery
//! runs even flat.
//!
//! [`LbSpec`]: crate::balance::LbSpec

use crate::balance::algorithm::{finish_plan, settle, MigrationPlan, Move, Settlement};
use crate::balance::policy::LbNetwork;
use crate::balance::power::{largest_remainder_round, LoadMetrics};
use crate::balance::score::{MoveScore, MoveWeights};
use crate::ownership::{NodeId, Ownership};
use nlheat_mesh::SdId;
use nlheat_netmodel::CommCost;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Arc;

/// One granularity of the hierarchy: ranks aggregated into groups
/// (racks, nodes, or the ranks themselves), groups partitioned into
/// scopes balanced independently (the whole cluster, one rack, one
/// node).
struct Level {
    /// Group of each rank (indexed by rank id).
    group_of: Vec<u32>,
    /// Scope of each group (indexed by group id). Imbalance settles only
    /// between groups of the same scope — cross-scope imbalance belongs
    /// to the coarser level.
    scope_of: Vec<u32>,
    n_groups: usize,
}

/// Per-rank memory bookkeeping: capacities, per-SD resident footprints,
/// and the running usage the plan's realized moves advance.
struct MemoryState {
    caps: Arc<Vec<u64>>,
    footprints: Arc<Vec<u64>>,
    usage: Vec<u64>,
}

impl MemoryState {
    /// Whether `rank` can host `sd` without overflowing its capacity.
    fn fits(&self, rank: NodeId, sd: SdId) -> bool {
        let cap = self.caps.get(rank as usize).copied().unwrap_or(u64::MAX);
        self.usage[rank as usize].saturating_add(self.footprints[sd as usize]) <= cap
    }

    fn apply(&mut self, sd: SdId, from: NodeId, to: NodeId) {
        let fp = self.footprints[sd as usize];
        self.usage[from as usize] -= fp;
        self.usage[to as usize] += fp;
    }
}

/// True when the comm hierarchy offers nothing coarser than ranks: no
/// topology at all, or a single rack of single-rank nodes. A hierarchical
/// spec's leaf then plans the epoch (byte-identical plans) unless memory
/// capacities force the gated machinery to run anyway.
pub fn hierarchy_is_degenerate(n_ranks: u32, comm: &CommCost) -> bool {
    match comm.topology_spec() {
        None => true,
        Some(t) => t.ranks_per_node <= 1 && (n_ranks == 0 || t.rack_of(n_ranks - 1) == 0),
    }
}

/// Plan one epoch hierarchically: racks, then nodes within each rack,
/// then ranks within each node (a flat single level when the network has
/// no [`TopologySpec`](nlheat_netmodel::TopologySpec)). Emits the same
/// single-hop [`MigrationPlan`] contract as every other policy, via the
/// shared `finish_plan` collapse.
pub fn plan_hierarchical(
    own: &Ownership,
    metrics: &LoadMetrics,
    net: &LbNetwork,
    weights: MoveWeights,
) -> MigrationPlan {
    let n_ranks = own.n_nodes() as usize;
    assert_eq!(metrics.counts.len(), n_ranks, "metrics cover every rank");
    let score = MoveScore::new(weights, metrics, net);

    let levels: Vec<Level> = match net.comm.topology_spec() {
        Some(t) => {
            let node_of: Vec<u32> = (0..n_ranks).map(|r| t.node_of(r as u32) as u32).collect();
            let rack_of: Vec<u32> = (0..n_ranks).map(|r| t.rack_of(r as u32) as u32).collect();
            // node/rack ids are monotone in the rank id
            let n_nodes = node_of.last().map_or(0, |&v| v as usize + 1);
            let n_racks = rack_of.last().map_or(0, |&v| v as usize + 1);
            let node_scope: Vec<u32> = (0..n_nodes)
                .map(|nd| (nd / t.nodes_per_rack) as u32)
                .collect();
            vec![
                Level {
                    group_of: rack_of,
                    scope_of: vec![0; n_racks],
                    n_groups: n_racks,
                },
                Level {
                    group_of: node_of.clone(),
                    scope_of: node_scope,
                    n_groups: n_nodes,
                },
                Level {
                    group_of: (0..n_ranks as u32).collect(),
                    scope_of: node_of,
                    n_groups: n_ranks,
                },
            ]
        }
        // no hierarchy: one flat level (reached when memory capacities
        // demand the gated machinery on a topology-less network)
        None => vec![Level {
            group_of: (0..n_ranks as u32).collect(),
            scope_of: vec![0; n_ranks],
            n_groups: n_ranks,
        }],
    };

    let mut mem = match (&net.memory_bytes, &net.sd_footprint) {
        (Some(caps), Some(fps)) => {
            assert_eq!(fps.len(), own.sds().count(), "one footprint per SD");
            let mut usage = vec![0u64; n_ranks];
            for (sd, &o) in own.owners().iter().enumerate() {
                usage[o as usize] += fps[sd];
            }
            Some(MemoryState {
                caps: caps.clone(),
                footprints: fps.clone(),
                usage,
            })
        }
        _ => None,
    };

    let mut working = own.clone();
    let mut raw: Vec<Move> = Vec::new();
    for level in &levels {
        balance_level(&score, metrics, &mut working, &mut raw, &mut mem, level);
    }
    finish_plan(metrics.clone(), working, raw, net)
}

/// Settle the imbalance between the groups of one level, scope by scope.
fn balance_level(
    score: &MoveScore<'_>,
    metrics: &LoadMetrics,
    working: &mut Ownership,
    raw: &mut Vec<Move>,
    mem: &mut Option<MemoryState>,
    level: &Level,
) {
    let n_groups = level.n_groups;
    if n_groups <= 1 {
        return;
    }
    let n_scopes = level
        .scope_of
        .iter()
        .copied()
        .max()
        .map_or(0, |m| m as usize + 1);
    if n_scopes == n_groups {
        // every scope is a singleton (e.g. the rank level of single-rank
        // nodes): nothing can settle here
        return;
    }

    let n_ranks = working.n_nodes() as usize;
    // Current group counts (earlier levels moved SDs), aggregate measured
    // power (eq. 8 is per rank; powers of parallel workers add), and the
    // representative (lowest) rank of each group for link-class lookups.
    let mut counts = vec![0usize; n_groups];
    for &o in working.owners() {
        counts[level.group_of[o as usize] as usize] += 1;
    }
    let mut power = vec![0.0f64; n_groups];
    let mut rep = vec![u32::MAX; n_groups];
    for rank in 0..n_ranks {
        let g = level.group_of[rank] as usize;
        power[g] += metrics.power[rank];
        if rep[g] == u32::MAX {
            rep[g] = rank as u32;
        }
    }

    // One boundary pass: group adjacency (within scopes) plus the frontier
    // SD set of every ordered adjacent group pair.
    let sds = *working.sds();
    let (nsx, nsy) = (sds.nsx, sds.nsy);
    let mut adjacency: Vec<BTreeSet<u32>> = vec![BTreeSet::new(); n_groups];
    let mut frontier: HashMap<(u32, u32), BTreeSet<SdId>> = HashMap::new();
    {
        let owners = working.owners();
        for sd in 0..owners.len() as SdId {
            let ga = level.group_of[owners[sd as usize] as usize];
            let (sx, sy) = sds.coords(sd);
            // east and north suffice: each adjacent pair is seen once
            for (nx, ny) in [(sx + 1, sy), (sx, sy + 1)] {
                if nx >= nsx || ny >= nsy {
                    continue;
                }
                let nb = sds.id(nx, ny);
                let gb = level.group_of[owners[nb as usize] as usize];
                if ga == gb || level.scope_of[ga as usize] != level.scope_of[gb as usize] {
                    continue;
                }
                adjacency[ga as usize].insert(gb);
                adjacency[gb as usize].insert(ga);
                frontier.entry((ga, gb)).or_default().insert(sd);
                frontier.entry((gb, ga)).or_default().insert(nb);
            }
        }
    }

    // Groups of each scope, ascending (so local ids preserve group order
    // and the uniform-weight tie-breaks match the flat planner's).
    let mut scope_groups: BTreeMap<u32, Vec<u32>> = BTreeMap::new();
    for g in 0..n_groups as u32 {
        scope_groups
            .entry(level.scope_of[g as usize])
            .or_default()
            .push(g);
    }

    // A group that owns nothing has no boundary and would never appear in
    // the adjacency: wire it to every peer of its scope so settlement can
    // bootstrap-seed it (cf. `LbNetwork::neighbour_graph`'s
    // empty-territory handling).
    for g in 0..n_groups as u32 {
        if counts[g as usize] > 0 {
            continue;
        }
        for &h in &scope_groups[&level.scope_of[g as usize]] {
            if h != g {
                adjacency[g as usize].insert(h);
                adjacency[h as usize].insert(g);
            }
        }
    }

    for groups in scope_groups.values() {
        if groups.len() < 2 {
            continue;
        }
        let local_counts: Vec<usize> = groups.iter().map(|&g| counts[g as usize]).collect();
        let total: usize = local_counts.iter().sum();
        if total == 0 {
            continue;
        }
        // Expected shares (eq. 10) from aggregated power, rounded to sum
        // exactly; imbalance (eq. 9) against the current counts.
        let local_power: Vec<f64> = groups.iter().map(|&g| power[g as usize]).collect();
        let sum_power: f64 = local_power.iter().sum();
        let shares: Vec<f64> = local_power
            .iter()
            .map(|p| total as f64 * p / sum_power)
            .collect();
        let expected = largest_remainder_round(&shares, total as i64);
        let mut imbalance: Vec<i64> = expected
            .iter()
            .zip(&local_counts)
            .map(|(&e, &c)| e - c as i64)
            .collect();
        if imbalance.iter().all(|&v| v == 0) {
            continue;
        }

        let local_adj: Vec<Vec<NodeId>> = {
            let lidx: HashMap<u32, NodeId> = groups
                .iter()
                .enumerate()
                .map(|(i, &g)| (g, i as NodeId))
                .collect();
            groups
                .iter()
                .map(|&g| adjacency[g as usize].iter().map(|n| lidx[n]).collect())
                .collect()
        };
        // The level-start adjacency is kept static — near-linearity — so
        // adjacency created mid-level waits an epoch.
        let mut scope = ScopeSettlement {
            score,
            working: &mut *working,
            raw: &mut *raw,
            mem: &mut *mem,
            level,
            rep: &rep,
            groups,
            local_adj: &local_adj,
            counts: &mut counts,
            frontier: &mut frontier,
        };
        settle(&local_adj, &mut imbalance, &mut scope);
    }
}

/// The group-level [`Settlement`] of one scope: its groups are the nodes
/// (local ids index `groups`), links are priced between the groups'
/// representative ranks, and transfers pop the precomputed frontier sets.
struct ScopeSettlement<'a> {
    score: &'a MoveScore<'a>,
    working: &'a mut Ownership,
    raw: &'a mut Vec<Move>,
    mem: &'a mut Option<MemoryState>,
    level: &'a Level,
    /// Representative (lowest) rank of each group of the level.
    rep: &'a [u32],
    /// The scope's groups, ascending: local node id → group id.
    groups: &'a [u32],
    local_adj: &'a [Vec<NodeId>],
    /// Current SD count of each group of the level.
    counts: &'a mut [usize],
    frontier: &'a mut HashMap<(u32, u32), BTreeSet<SdId>>,
}

impl Settlement for ScopeSettlement<'_> {
    fn edge_weight(&self, u: NodeId, v: NodeId) -> f64 {
        let rep = |local: NodeId| self.rep[self.groups[local as usize] as usize];
        self.score.edge_weight(rep(u), rep(v))
    }

    fn adjacent(&self, i: NodeId) -> Vec<NodeId> {
        self.local_adj[i as usize].clone()
    }

    fn transfer(&mut self, src: NodeId, dst: NodeId, amount: usize) -> i64 {
        let (src_g, dst_g) = (self.groups[src as usize], self.groups[dst as usize]);
        let realized = self.realize_group_transfer(src_g, dst_g, amount);
        self.counts[src_g as usize] -= realized as usize;
        self.counts[dst_g as usize] += realized as usize;
        realized
    }
}

impl ScopeSettlement<'_> {
    /// Realize up to `amount` SD moves from `src_g` to `dst_g` along their
    /// shared frontier, in ascending SD id order, growing the frontier
    /// incrementally as the source territory recedes. Every candidate
    /// passes the [`MoveScore`] gate and (when attached) the destination's
    /// memory capacity; a refused candidate is dropped, not retried —
    /// residuals wait for the next epoch. Returns the number of SDs
    /// actually moved.
    fn realize_group_transfer(&mut self, src_g: u32, dst_g: u32, amount: usize) -> i64 {
        let level = self.level;
        let dst_empty = self.counts[dst_g as usize] == 0;
        // Each ordered pair settles at most once per level, so consuming
        // the set is safe.
        let mut set = self.frontier.remove(&(src_g, dst_g)).unwrap_or_default();
        let sds = *self.working.sds();
        let (nsx, nsy) = (sds.nsx, sds.nsy);
        if set.is_empty() && dst_empty && amount > 0 {
            // The destination owns nothing, so no shared frontier exists:
            // seed its territory with the source's most peripheral SD (the
            // flat planner's empty-borrower seeding), then grow normally.
            let owners = self.working.owners();
            let mut seed: Option<(usize, SdId)> = None;
            for sd in 0..owners.len() as SdId {
                if level.group_of[owners[sd as usize] as usize] != src_g {
                    continue;
                }
                let (sx, sy) = sds.coords(sd);
                let mut same = 0usize;
                for (nx, ny) in [(sx - 1, sy), (sx + 1, sy), (sx, sy - 1), (sx, sy + 1)] {
                    if nx >= 0
                        && ny >= 0
                        && nx < nsx
                        && ny < nsy
                        && level.group_of[owners[sds.id(nx, ny) as usize] as usize] == src_g
                    {
                        same += 1;
                    }
                }
                if seed.is_none_or(|best| (same, sd) < best) {
                    seed = Some((same, sd));
                }
            }
            if let Some((_, sd)) = seed {
                set.insert(sd);
            }
        }
        let mut realized = 0i64;
        while realized < amount as i64 {
            let Some(&sd) = set.iter().next() else { break };
            set.remove(&sd);
            let src_rank = self.working.owner(sd);
            if level.group_of[src_rank as usize] != src_g {
                continue; // stale: an earlier transfer took this SD
            }
            // Destination rank: the lowest-id adjacent rank of the target
            // group whose memory can host the SD.
            let fits = |r: NodeId| self.mem.as_ref().is_none_or(|m| m.fits(r, sd));
            let (sx, sy) = sds.coords(sd);
            let mut dst_rank: Option<NodeId> = None;
            for (nx, ny) in [(sx - 1, sy), (sx + 1, sy), (sx, sy - 1), (sx, sy + 1)] {
                if nx < 0 || ny < 0 || nx >= nsx || ny >= nsy {
                    continue;
                }
                let r = self.working.owner(sds.id(nx, ny));
                if level.group_of[r as usize] == dst_g && fits(r) {
                    dst_rank = Some(dst_rank.map_or(r, |cur| cur.min(r)));
                }
            }
            if dst_rank.is_none() && dst_empty {
                // bootstrap: no destination territory to be adjacent to —
                // the lowest member rank of the group with room hosts the
                // seed
                let mut r = self.rep[dst_g as usize];
                while (r as usize) < level.group_of.len() && level.group_of[r as usize] == dst_g {
                    if fits(r) {
                        dst_rank = Some(r);
                        break;
                    }
                    r += 1;
                }
            }
            let Some(dst_rank) = dst_rank else { continue };
            // the move's busy-time relief must cover its one-off migration
            // cost and its recurring ghost delta
            if self
                .score
                .score(self.working.owners(), sd, src_rank, dst_rank)
                < 0.0
            {
                continue;
            }
            self.working.set_owner(sd, dst_rank);
            self.raw.push(Move {
                sd,
                from: src_rank,
                to: dst_rank,
            });
            if let Some(m) = self.mem.as_mut() {
                m.apply(sd, src_rank, dst_rank);
            }
            realized += 1;
            // the frontier recedes: the moved SD's still-src neighbours are
            // now boundary candidates
            for (nx, ny) in [(sx - 1, sy), (sx + 1, sy), (sx, sy - 1), (sx, sy + 1)] {
                if nx < 0 || ny < 0 || nx >= nsx || ny >= nsy {
                    continue;
                }
                let nb = sds.id(nx, ny);
                if level.group_of[self.working.owner(nb) as usize] == src_g {
                    set.insert(nb);
                }
            }
        }
        realized
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::policy::LbSpec;
    use crate::balance::power::compute_metrics;
    use nlheat_mesh::SdGrid;
    use nlheat_netmodel::{LinkSpec, NetSpec, TopologySpec};
    use nlheat_partition::SdGraph;

    fn three_tier_net(ranks_per_node: usize, nodes_per_rack: usize) -> LbNetwork {
        LbNetwork::from_spec(
            &NetSpec::Topology(TopologySpec {
                ranks_per_node,
                nodes_per_rack,
                intra_node: LinkSpec::new(1e-7, f64::INFINITY),
                intra_rack: LinkSpec::new(1e-6, 1e10),
                inter_rack: LinkSpec::new(1e-4, 1e9),
            }),
            1000,
        )
    }

    fn metrics_for(own: &Ownership, busy: &[f64]) -> LoadMetrics {
        compute_metrics(&own.counts(), busy)
    }

    /// 8x8 grid over 8 ranks (2 per node, 2 nodes per rack = 2 racks),
    /// striped so rank 0 owns far more than its share.
    fn skewed_eight_ranks() -> (Ownership, Vec<f64>) {
        let sds = SdGrid::new(8, 8, 4);
        let mut owners = vec![0u32; 64];
        for sd in 0..64u32 {
            let (sx, _) = sds.coords(sd);
            // columns 0..4 -> rank 0; remaining columns one rank each
            owners[sd as usize] = if sx < 4 { 0 } else { (sx - 3) as u32 * 2 - 1 };
        }
        let own = Ownership::new(sds, owners, 8);
        let busy: Vec<f64> = own.counts().iter().map(|&c| c.max(1) as f64).collect();
        (own, busy)
    }

    #[test]
    fn hierarchical_plan_is_single_hop_and_balances() {
        let (own, busy) = skewed_eight_ranks();
        let net = three_tier_net(2, 2);
        let metrics = metrics_for(&own, &busy);
        let plan = plan_hierarchical(&own, &metrics, &net, MoveWeights::default());
        assert!(!plan.is_noop(), "the 32/…/0 skew must move work");
        let mut seen = std::collections::HashSet::new();
        let mut check = own.clone();
        for m in &plan.moves {
            assert!(seen.insert(m.sd), "SD {} moved twice", m.sd);
            assert_eq!(own.owner(m.sd), m.from, "stale source");
            assert_ne!(m.from, m.to);
            check.set_owner(m.sd, m.to);
        }
        assert_eq!(check, plan.new_ownership);
        let before: usize = own.counts().iter().max().copied().unwrap();
        let after: usize = plan.new_ownership.counts().iter().max().copied().unwrap();
        assert!(
            after < before,
            "worst rank must shrink: {before} -> {after}"
        );
    }

    #[test]
    fn iterated_hierarchical_converges_near_balance() {
        let (own, _) = skewed_eight_ranks();
        let net = three_tier_net(2, 2);
        let mut current = own;
        for _ in 0..8 {
            let busy: Vec<f64> = current.counts().iter().map(|&c| c.max(1) as f64).collect();
            let metrics = metrics_for(&current, &busy);
            let plan = plan_hierarchical(&current, &metrics, &net, MoveWeights::default());
            if plan.is_noop() {
                break;
            }
            current = plan.new_ownership;
        }
        let counts = current.counts();
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        assert!(
            spread <= 3,
            "64 SDs over 8 ranks must settle near 8 each: {counts:?}"
        );
    }

    #[test]
    fn degenerate_hierarchy_detection() {
        // no topology at all
        assert!(hierarchy_is_degenerate(4, &CommCost::free()));
        // one rack of single-rank nodes
        let flat = NetSpec::Topology(TopologySpec {
            ranks_per_node: 1,
            nodes_per_rack: 8,
            intra_node: LinkSpec::new(0.0, f64::INFINITY),
            intra_rack: LinkSpec::new(1e-6, f64::INFINITY),
            inter_rack: LinkSpec::new(1e-3, 1e8),
        });
        assert!(hierarchy_is_degenerate(4, &flat.comm_cost()));
        // two racks: the rack level is real
        assert!(!hierarchy_is_degenerate(4, &three_tier_net(1, 2).comm));
        // multi-rank nodes: the rank level is real even in one rack
        assert!(!hierarchy_is_degenerate(4, &three_tier_net(2, 4).comm));
    }

    #[test]
    fn degenerate_policy_delegates_byte_identically() {
        // single rack, one rank per node: a hierarchical spec must produce
        // its tree leaf's plans exactly, at λ = 0 and λ > 0 alike.
        let sds = SdGrid::new(6, 6, 4);
        let flat = LbNetwork::from_spec(
            &NetSpec::Topology(TopologySpec {
                ranks_per_node: 1,
                nodes_per_rack: 4,
                intra_node: LinkSpec::new(0.0, f64::INFINITY),
                intra_rack: LinkSpec::new(1e-6, 1e9),
                inter_rack: LinkSpec::new(1e-3, 1e8),
            }),
            1000,
        );
        for lambda in [0.0, 1.0] {
            let mut hier = LbSpec::hierarchical(LbSpec::tree(0.0), lambda).build();
            let mut tree = LbSpec::tree(lambda).build();
            for pattern in 0..4u32 {
                let owners: Vec<u32> = (0..36u32)
                    .map(|sd| {
                        let (sx, sy) = sds.coords(sd);
                        ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                    })
                    .collect();
                let own = Ownership::new(sds, owners, 4);
                let busy: Vec<f64> = (0..4).map(|n| 1.0 + (n % 4) as f64 * 1.7).collect();
                let m = metrics_for(&own, &busy);
                let a = hier.plan(&own, &m, &flat);
                let b = tree.plan(&own, &m, &flat);
                assert_eq!(a.moves, b.moves, "λ={lambda} pattern {pattern}");
                assert_eq!(a.new_ownership, b.new_ownership);
            }
        }
    }

    #[test]
    fn memory_gate_refuses_overflowing_destinations() {
        // 1x6 row, two ranks (one node each, one rack — degenerate
        // hierarchy, but capacities force the gated machinery): rank 1
        // owns one SD and is far too slow, so work should flow to rank 0 —
        // but rank 0's capacity only fits one more footprint.
        let sds = SdGrid::new(6, 1, 4);
        let own = Ownership::new(sds, vec![0, 0, 1, 1, 1, 1], 2);
        let fp = vec![100u64; 6];
        let net = three_tier_net(1, 1).with_memory(Arc::new(vec![300, 10_000]), Arc::new(fp));
        let busy = vec![1.0, 20.0];
        let metrics = metrics_for(&own, &busy);
        let plan = plan_hierarchical(&own, &metrics, &net, MoveWeights::default());
        // rank 0 would take 2-3 SDs unconstrained; the cap admits one
        assert_eq!(
            plan.moves.len(),
            1,
            "capacity admits one move: {:?}",
            plan.moves
        );
        let mut usage = vec![0u64; 2];
        for (sd, &o) in plan.new_ownership.owners().iter().enumerate() {
            usage[o as usize] += 100;
            let _ = sd;
        }
        assert!(usage[0] <= 300, "rank 0 overflowed: {usage:?}");
    }

    #[test]
    fn unbounded_capacities_change_nothing() {
        let (own, busy) = skewed_eight_ranks();
        let net = three_tier_net(2, 2);
        let roomy = net
            .clone()
            .with_memory(Arc::new(vec![u64::MAX; 8]), Arc::new(vec![1u64; 64]));
        let metrics = metrics_for(&own, &busy);
        let a = plan_hierarchical(&own, &metrics, &net, MoveWeights::default());
        let b = plan_hierarchical(&own, &metrics, &roomy, MoveWeights::default());
        assert_eq!(a.moves, b.moves, "unbounded caps must be inert");
        assert_eq!(a.new_ownership, b.new_ownership);
    }

    #[test]
    fn lambda_gates_expensive_transfers() {
        // with a brutal inter-rack link and λ engaged, the rack level must
        // refuse to cross racks while intra-rack settlement survives
        let (own, busy) = skewed_eight_ranks();
        let net = LbNetwork::from_spec(
            &NetSpec::Topology(TopologySpec {
                ranks_per_node: 2,
                nodes_per_rack: 2,
                intra_node: LinkSpec::new(0.0, f64::INFINITY),
                intra_rack: LinkSpec::new(1e-9, f64::INFINITY),
                inter_rack: LinkSpec::new(10.0, 1.0),
            }),
            1000,
        );
        let metrics = metrics_for(&own, &busy);
        let free = plan_hierarchical(&own, &metrics, &net, MoveWeights::default());
        assert!(
            free.comm.inter_rack_bytes() > 0,
            "λ=0 must cross racks here: {:?}",
            free.moves
        );
        let gated = plan_hierarchical(&own, &metrics, &net, MoveWeights::new(1.0, 0.0));
        assert_eq!(
            gated.comm.inter_rack_bytes(),
            0,
            "λ=1 must gate the uplink: {:?}",
            gated.moves
        );
        assert!(!gated.is_noop(), "intra-rack settlement must survive");
    }

    #[test]
    fn huge_mu_gates_cut_worsening_moves() {
        // 6x6 halves over 2 ranks in 2 racks: every borrowing move
        // roughens the straight boundary; an enormous μ refuses the plan
        let sds = SdGrid::new(6, 6, 4);
        let owners: Vec<u32> = (0..36).map(|sd| u32::from(sds.coords(sd).0 >= 3)).collect();
        let own = Ownership::new(sds, owners, 2);
        let busy = vec![9.0, 1.0];
        let graph = Arc::new(SdGraph::build(&sds, 1));
        let net = three_tier_net(1, 1).with_sd_graph(graph);
        let metrics = metrics_for(&own, &busy);
        let plain = plan_hierarchical(&own, &metrics, &net, MoveWeights::default());
        assert!(!plain.is_noop(), "μ=0 must balance the skew");
        let gated = plan_hierarchical(&own, &metrics, &net, MoveWeights::new(0.0, 1e12));
        assert!(gated.is_noop(), "huge μ must refuse cut-worsening moves");
    }
}
