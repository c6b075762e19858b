//! The one move objective: does moving this SD from `src` to `dst` pay?
//!
//! Every planner in [`crate::balance`] — the Algorithm-1 tree walk,
//! diffusion, greedy stealing and each level of the hierarchical planner —
//! asks that question through one [`MoveScore`]:
//!
//! ```text
//! score = relief − λ·migration_seconds − μ·ghost_delta_seconds
//! ```
//!
//! * `relief` is the per-SD busy time of the source rank
//!   ([`LoadMetrics::relief_per_sd`], seconds): what shedding one SD buys.
//! * `migration_seconds` is the **one-off** cost of shipping the tile over
//!   the `src → dst` link ([`CommCost::seconds`] of
//!   [`LbNetwork::sd_bytes`]); λ weighs it.
//! * `ghost_delta_seconds` is the **recurring** cost: the change in
//!   steady-state ghost-exchange seconds per timestep the reassignment
//!   causes ([`ghost_delta_seconds`], the [`SdGraph`] edge-cut delta priced
//!   by link class); μ weighs it. Negative for a move that heals the cut.
//!
//! A move is admitted while its score is non-negative, and within one
//! frontier higher scores go first. Busy times must be in **seconds** for
//! the three terms to be commensurable (cf. Lifflander et al.,
//! arXiv:2404.16793: load + α·comm under a memory constraint — the memory
//! constraint is the hierarchical planner's capacity gate).
//!
//! Whether a term *can* matter is decided once per plan, in
//! [`MoveScore::new`]: the λ term needs `λ > 0` over a non-free network,
//! the μ term additionally an attached [`SdGraph`]. An inactive term is
//! **absent** — never a weight multiplied by zero — so `λ = 0`, `μ = 0`,
//! a free network or a missing graph each take exactly the code path of
//! the paper's count-based planner, and the byte-identity pins hold by
//! construction rather than by float luck.

use crate::balance::algorithm::Move;
use crate::balance::policy::LbNetwork;
use crate::balance::power::LoadMetrics;
use crate::balance::transfer::select_transfer_scored;
use crate::ownership::{NodeId, Ownership};
use nlheat_mesh::SdId;
use nlheat_netmodel::CommCost;
use nlheat_partition::SdGraph;

/// The two weights of the move objective — the one pair an
/// [`LbSpec`](crate::balance::LbSpec) holds and its
/// [`Planner`](crate::balance::Planner) plans with.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct MoveWeights {
    /// λ: weight of the one-off migration seconds against busy-time
    /// relief; 0 is the paper's count-based Algorithm 1.
    pub lambda: f64,
    /// μ: weight of the recurring ghost-traffic delta; 0 is ghost-blind.
    pub mu: f64,
}

impl MoveWeights {
    /// # Panics
    /// Panics on an invalid weight — see [`MoveWeights::validate`].
    pub fn new(lambda: f64, mu: f64) -> Self {
        let weights = MoveWeights { lambda, mu };
        weights.validate();
        weights
    }

    /// The one copy of the weight invariant (the fields are public so
    /// sweeps can set them in place; every consumer validates here).
    ///
    /// # Panics
    /// Panics on a negative or non-finite `lambda` or `mu`.
    pub fn validate(&self) {
        let MoveWeights { lambda, mu } = *self;
        assert!(
            lambda >= 0.0 && lambda.is_finite(),
            "lambda must be finite and non-negative, got {lambda}"
        );
        assert!(
            mu >= 0.0 && mu.is_finite(),
            "mu must be finite and non-negative, got {mu}"
        );
    }
}

/// Change in steady-state ghost-exchange seconds per timestep if `sd`
/// were reassigned from its current owner to `to` — the [`SdGraph`]
/// edge-cut delta of the move, each affected edge priced by the link
/// class of its (new or vanished) owner pair. Same-node exchanges cost
/// nothing: no message is sent, exactly as both substrates behave.
/// Positive: the move adds recurring traffic; negative: the move heals
/// the partition (the SD moves toward its ghost neighbours).
pub fn ghost_delta_seconds(
    comm: &CommCost,
    graph: &SdGraph,
    owners: &[NodeId],
    sd: SdId,
    to: NodeId,
) -> f64 {
    let from = owners[sd as usize];
    if from == to {
        return 0.0;
    }
    let mut delta = 0.0;
    for (nb, bytes) in graph.neighbours(sd) {
        let o = owners[nb as usize];
        if o != from {
            delta -= comm.seconds(from, o, bytes); // this cut edge vanishes
        }
        if o != to {
            delta += comm.seconds(to, o, bytes); // this cut edge appears
        }
    }
    delta
}

/// One plan's move objective: the weights resolved against the epoch's
/// metrics and network view.
pub struct MoveScore<'a> {
    metrics: &'a LoadMetrics,
    comm: &'a CommCost,
    sd_bytes: u64,
    /// λ, iff the migration term can affect this plan.
    lambda: Option<f64>,
    /// μ and the graph it prices, iff the ghost term can affect this plan.
    ghost: Option<(f64, &'a SdGraph)>,
}

impl<'a> MoveScore<'a> {
    /// # Panics
    /// Panics on invalid `weights` ([`MoveWeights::validate`]), or when
    /// the μ term is active over a graph of another grid than the one
    /// `metrics` counted.
    pub fn new(weights: MoveWeights, metrics: &'a LoadMetrics, net: &'a LbNetwork) -> Self {
        weights.validate();
        let priced = !net.comm.is_free();
        let ghost = net
            .sd_graph
            .as_deref()
            .filter(|_| priced && weights.mu > 0.0)
            .map(|graph| (weights.mu, graph));
        if let Some((_, graph)) = ghost {
            let n_sds: usize = metrics.counts.iter().sum();
            assert_eq!(graph.n_sds(), n_sds, "ghost graph covers the grid");
        }
        MoveScore {
            metrics,
            comm: &net.comm,
            sd_bytes: net.sd_bytes,
            lambda: (priced && weights.lambda > 0.0).then_some(weights.lambda),
            ghost,
        }
    }

    /// The ghost graph iff the μ term is active — what decides between
    /// the real exchange adjacency and the complete link-class graph in
    /// [`LbNetwork::neighbour_graph`].
    pub fn ghost_graph(&self) -> Option<&'a SdGraph> {
        self.ghost.map(|(_, graph)| graph)
    }

    /// λ-weighted seconds of migrating one SD tile `src` → `dst`: the
    /// ordering weight of forest growth and neighbour sorts. Exactly `0.0`
    /// when the λ term is inactive, so every cost-aware ordering falls
    /// back to the count-based id tie-breaks.
    pub fn edge_weight(&self, src: NodeId, dst: NodeId) -> f64 {
        match self.lambda {
            Some(lambda) => lambda * self.comm.seconds(src, dst, self.sd_bytes),
            None => 0.0,
        }
    }

    /// The objective for moving `sd` from rank `src` to rank `dst` under
    /// the ownership `owners` (which the ghost term is exact against).
    /// Finite as long as the weighted link seconds are (any bandwidth a
    /// real `NetSpec` names), so the two comparators in use — ring growth
    /// admits `score >= 0.0`, the hierarchical realizer skips on
    /// `score < 0.0` — are exact complements: no NaN can split them.
    pub fn score(&self, owners: &[NodeId], sd: SdId, src: NodeId, dst: NodeId) -> f64 {
        // an inactive λ term subtracts an exact 0.0: bit-equal to relief
        let mut score = self.metrics.relief_per_sd(src as usize) - self.edge_weight(src, dst);
        if let Some((mu, graph)) = self.ghost {
            score -= mu * ghost_delta_seconds(self.comm, graph, owners, sd, dst);
        }
        score
    }

    /// Realize a transfer of up to `amount` SDs `src` → `dst` by frontier
    /// ring growth, advancing `working` and appending to `raw`; returns
    /// the number of SDs moved.
    ///
    /// Without an active μ the score is the same for every SD of the
    /// frontier, so one batch selection settles the transfer. With μ
    /// active it goes **one SD at a time**: after every pick the working
    /// ownership advances, so the next SD's ghost delta is exact — a batch
    /// would price every ring SD as if its ring-mates stayed behind,
    /// overcharging contiguous block moves (the common case) and
    /// mis-ordering partial rings.
    pub fn realize(
        &self,
        working: &mut Ownership,
        raw: &mut Vec<Move>,
        src: NodeId,
        dst: NodeId,
        amount: usize,
    ) -> i64 {
        let batch = if self.ghost.is_some() { 1 } else { amount };
        let mut realized = 0;
        while realized < amount {
            let chosen = select_transfer_scored(working, src, dst, batch, |sd| {
                self.score(working.owners(), sd, src, dst)
            });
            for &sd in &chosen {
                working.set_owner(sd, dst);
                raw.push(Move {
                    sd,
                    from: src,
                    to: dst,
                });
            }
            realized += chosen.len();
            if chosen.len() < batch {
                break; // frontier exhausted or gated
            }
        }
        realized as i64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::power::compute_metrics;
    use crate::scenarios::two_rack_net;
    use nlheat_mesh::SdGrid;
    use nlheat_netmodel::{LinkSpec, NetSpec, TopologySpec};
    use std::sync::Arc;

    /// 6x6 SDs: columns 0..3 on rank 0, columns 3..6 on rank 2 (the other
    /// rack of `two_rack_net`), except an intruder of rank 2 at (2, 0) and
    /// one SD of rank 1 (rank 0's rack peer) at (0, 5).
    fn fixture() -> (SdGrid, Vec<NodeId>, LoadMetrics, Arc<SdGraph>) {
        let sds = SdGrid::new(6, 6, 4);
        let mut owners: Vec<NodeId> = (0..36)
            .map(|sd| if sds.coords(sd).0 >= 3 { 2 } else { 0 })
            .collect();
        owners[sds.id(2, 0) as usize] = 2;
        owners[sds.id(0, 5) as usize] = 1;
        let own = Ownership::new(sds, owners.clone(), 4);
        let metrics = compute_metrics(&own.counts(), &[3.4, 0.5, 1.9, 1e-12]);
        (sds, owners, metrics, Arc::new(SdGraph::build(&sds, 1)))
    }

    fn priced_net(graph: &Arc<SdGraph>) -> LbNetwork {
        LbNetwork::for_sd_tiles(&two_rack_net(), 16).with_sd_graph(graph.clone())
    }

    #[test]
    fn an_inactive_lambda_term_leaves_relief_bit_equal() {
        let (sds, owners, metrics, graph) = fixture();
        let sd = sds.id(2, 3);
        let relief = metrics.relief_per_sd(0);
        let free = LbNetwork::free().with_sd_graph(graph.clone());
        let priced = priced_net(&graph);
        for (weights, net) in [
            (MoveWeights::new(0.0, 0.0), &priced), // λ = 0 over real links
            (MoveWeights::new(7.5, 0.0), &free),   // any λ over a free network
            (MoveWeights::new(1e9, 3.0), &free),   // ... and any μ
        ] {
            let score = MoveScore::new(weights, &metrics, net);
            assert_eq!(score.edge_weight(0, 2).to_bits(), 0.0f64.to_bits());
            assert_eq!(
                score.score(&owners, sd, 0, 2).to_bits(),
                relief.to_bits(),
                "{weights:?}"
            );
        }
    }

    #[test]
    fn the_ghost_term_needs_mu_a_priced_network_and_a_graph() {
        let (sds, owners, metrics, graph) = fixture();
        let sd = sds.id(2, 3); // roughens the boundary: a non-zero delta
        let priced = priced_net(&graph);
        let no_graph = LbNetwork::for_sd_tiles(&two_rack_net(), 16);
        let free = LbNetwork::free().with_sd_graph(graph.clone());
        let lambda_only =
            MoveScore::new(MoveWeights::new(0.5, 0.0), &metrics, &priced).score(&owners, sd, 0, 2);
        for (mu, net) in [(0.0, &priced), (2.0, &no_graph), (2.0, &free)] {
            let score = MoveScore::new(MoveWeights::new(0.5, mu), &metrics, net);
            assert!(score.ghost_graph().is_none(), "μ={mu}");
            if !net.comm.is_free() {
                assert_eq!(
                    score.score(&owners, sd, 0, 2).to_bits(),
                    lambda_only.to_bits()
                );
            }
        }
        let active = MoveScore::new(MoveWeights::new(0.5, 2.0), &metrics, &priced);
        assert!(active.ghost_graph().is_some());
        assert!(active.score(&owners, sd, 0, 2) < lambda_only);
    }

    #[test]
    fn score_is_the_hand_formula_on_the_two_rack_net() {
        let (sds, owners, metrics, graph) = fixture();
        let net = priced_net(&graph);
        let (lambda, mu) = (0.5, 2.0);
        let score = MoveScore::new(MoveWeights::new(lambda, mu), &metrics, &net);
        // rank 0 → rank 1 stays in the rack, rank 0 → rank 2 crosses it
        let intra = net.comm.seconds(0, 1, net.sd_bytes);
        let inter = net.comm.seconds(0, 2, net.sd_bytes);
        assert!(inter > intra && intra > 0.0);
        assert_eq!(score.edge_weight(0, 1), lambda * intra);
        assert_eq!(score.edge_weight(0, 2), lambda * inter);
        for (sd, dst, link) in [(sds.id(0, 4), 1, intra), (sds.id(2, 3), 2, inter)] {
            let delta = ghost_delta_seconds(&net.comm, &graph, &owners, sd, dst);
            assert_eq!(
                score.score(&owners, sd, 0, dst),
                metrics.relief_per_sd(0) - lambda * link - mu * delta,
                "SD {sd} → rank {dst}"
            );
        }
        // μ·Δghost rewards the intruder going home and charges the SD that
        // would roughen the straight boundary
        let ghost_blind = MoveScore::new(MoveWeights::new(lambda, 0.0), &metrics, &net);
        let term = |sd, src, dst| {
            ghost_blind.score(&owners, sd, src, dst) - score.score(&owners, sd, src, dst)
        };
        assert!(term(sds.id(2, 0), 2, 0) < 0.0, "cut-healing move");
        assert!(term(sds.id(3, 3), 2, 0) > 0.0, "cut-worsening move");
    }

    #[test]
    fn score_is_finite_over_the_admitted_extremes() {
        // Ring growth admits `score >= 0.0`, the hierarchical realizer
        // skips on `score < 0.0`: complements unless the score is NaN.
        // Sweep the corners of what `NetSpec::validate`, the weight clamp
        // of the adaptive controllers (1e9) and the busy clamp of the
        // epoch driver (1e-12) admit.
        let (sds, owners, _, graph) = fixture();
        let own = Ownership::new(sds, owners.clone(), 4);
        for latency in [0.0, 1e-9, 1e3] {
            for bandwidth in [1e-3, 1e12, f64::INFINITY] {
                let link = LinkSpec::new(latency, bandwidth);
                let spec = NetSpec::Topology(TopologySpec {
                    ranks_per_node: 1,
                    nodes_per_rack: 2,
                    intra_node: link,
                    intra_rack: link,
                    inter_rack: link,
                });
                spec.validate();
                let net = LbNetwork::from_spec(&spec, 1 << 40).with_sd_graph(graph.clone());
                for busy in [1e-12, 1e6] {
                    let metrics = compute_metrics(&own.counts(), &[busy; 4]);
                    for w in [0.0, 1e-6, 1e9] {
                        let score = MoveScore::new(MoveWeights::new(w, w), &metrics, &net);
                        for sd in [sds.id(2, 0), sds.id(3, 3)] {
                            let s = score.score(&owners, sd, 2, 0);
                            assert!(s.is_finite(), "{latency} {bandwidth} {busy} {w}: {s}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mu must be finite")]
    fn weights_are_validated_where_they_are_consumed() {
        // built by literal, so only the consumer can catch it
        let (_, _, metrics, _) = fixture();
        let weights = MoveWeights {
            lambda: 0.0,
            mu: f64::NAN,
        };
        let _ = MoveScore::new(weights, &metrics, &LbNetwork::free());
    }

    #[test]
    fn ghost_delta_signs_track_the_cut() {
        // 6x6 halves with one node-1 intrusion at (2, 0): sending the
        // intruder home heals the cut (negative delta), roughening the
        // straight boundary costs (positive delta), and the priced delta
        // agrees in sign with the pure byte-cut delta of the graph.
        let sds = SdGrid::new(6, 6, 4);
        let mut owners: Vec<u32> = (0..36).map(|sd| u32::from(sds.coords(sd).0 >= 3)).collect();
        owners[sds.id(2, 0) as usize] = 1;
        let graph = nlheat_partition::SdGraph::build(&sds, 1);
        let comm = CommCost::from_spec(&NetSpec::cluster());
        let heal = ghost_delta_seconds(&comm, &graph, &owners, sds.id(2, 0), 0);
        assert!(heal < 0.0, "sending the intruder home must heal: {heal}");
        let worsen = ghost_delta_seconds(&comm, &graph, &owners, sds.id(3, 3), 0);
        assert!(worsen > 0.0, "roughening the boundary must cost: {worsen}");
        for (sd, to) in [(sds.id(2, 0), 0u32), (sds.id(3, 3), 0), (sds.id(0, 0), 1)] {
            let secs = ghost_delta_seconds(&comm, &graph, &owners, sd, to);
            let bytes = graph.cut_delta_bytes(&owners, sd, to);
            assert_eq!(
                secs > 0.0,
                bytes > 0,
                "sign must match the byte cut: sd {sd} -> {to}"
            );
        }
        // no-op move, free network: exactly zero
        assert_eq!(
            ghost_delta_seconds(&comm, &graph, &owners, sds.id(0, 0), 0),
            0.0
        );
        assert_eq!(
            ghost_delta_seconds(&CommCost::free(), &graph, &owners, sds.id(3, 3), 0),
            0.0
        );
    }
}
