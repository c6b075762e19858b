//! The pluggable load-balancing policy layer.
//!
//! The paper contributes *one* rebalancing strategy — the Algorithm-1
//! dependency-tree planner — but which strategy wins depends on the
//! workload and the interconnect, so both execution substrates select the
//! strategy through the same seam they already use for network models
//! (`NetSpec`): an [`LbSpec`] configuration enum instantiating an
//! [`LbPolicy`] trait object. A policy maps one epoch's measured state
//! ([`LoadMetrics`] + [`Ownership`] + the planning-grade network view in
//! [`LbNetwork`]) to a [`MigrationPlan`]; stateful policies (adaptive λ)
//! additionally receive post-epoch feedback through
//! [`LbPolicy::observe_stall`].
//!
//! Every policy emits **single-hop plans**: within one plan no SD appears
//! twice and every move's `from` is the SD's pre-epoch owner. The
//! distributed fabric ships all migrating tiles concurrently and would
//! deadlock on a chained plan, so every implementation routes its raw
//! transfer trace through the same collapse
//! (`balance::algorithm::finish_plan`) the tree planner uses — the
//! invariant is earned structurally, not per policy, and is property-tested
//! over every variant.
//!
//! Shipped policies:
//!
//! * [`LbSpec::Tree`] — the paper's Algorithm 1 with the λ-weighted
//!   communication-cost gate of `plan_rebalance_with_cost`; byte-identical
//!   to the pre-policy-layer planner by construction (it delegates to it).
//! * [`LbSpec::Diffusion`] — first-order pairwise load exchange
//!   (dimension-exchange diffusion, cf. Cybenko 1989 and Demirel &
//!   Sbalzarini, arXiv:1308.0148) over the neighbour graph induced by the
//!   link classes, cheap links swept first.
//! * [`LbSpec::GreedySteal`] — work-stealing-style greedy offload
//!   (cf. Fernandes et al., arXiv:2401.04494): the most overloaded rank
//!   repeatedly sheds one SD to its cheapest underloaded neighbour.
//! * [`LbSpec::AdaptiveLambda`] — a decorator closing the "λ adapts
//!   online" loop: wraps any inner policy and nudges its cost weight from
//!   the measured migration-stall fraction of previous epochs.
//! * [`LbSpec::AdaptiveMu`] — the μ analogue: nudges the inner policy's
//!   ghost weight from the measured ghost-stall fraction
//!   ([`LbPolicy::observe_ghost_stall`]), so the recurring-traffic gate is
//!   steered online instead of hand-picked.
//! * [`LbSpec::Hierarchical`] — the three-level (racks → nodes → ranks)
//!   memory-aware planner of [`crate::balance::hier`], near-linear plan
//!   time at 10k-rank scale; on a degenerate hierarchy without memory
//!   capacities it delegates wholesale to its inner leaf policy.

use crate::balance::algorithm::{
    finish_plan, ghost_delta_seconds, mu_active, plan_rebalance_ghost_aware, realize_ghost_aware,
    CostParams, MigrationPlan, Move, SdBytes,
};
use crate::balance::power::LoadMetrics;
use crate::balance::transfer::select_transfer_scored;
use crate::ownership::{NodeId, Ownership};
use nlheat_netmodel::{CommCost, NetSpec};
use nlheat_partition::SdGraph;
use std::sync::Arc;

/// The planning-grade network view handed to every policy: the same
/// [`CommCost`] the tree planner already consumed, the wire size of one
/// migrating SD tile, and (when the substrate attaches it) the SD
/// adjacency / halo-volume graph whose ownership edge cut is the
/// recurring ghost traffic a plan leaves behind. Derived from the active
/// [`NetSpec`] and halo geometry by both substrates, so planner and
/// transport agree on what the network looks like by construction.
#[derive(Debug, Clone, PartialEq)]
pub struct LbNetwork {
    /// Transfer-cost estimate derived from the active network spec.
    pub comm: CommCost,
    /// Wire bytes of each migrating SD tile (payload + framing). The
    /// [`SdBytes::Uniform`] case is the historical scalar.
    pub sd_bytes: SdBytes,
    /// The SD adjacency / halo-volume graph ([`SdGraph`]), shared with
    /// the substrate that built it. `None` = ghost-blind planning (every
    /// μ term is inert), the pre-ghost-aware behaviour.
    pub sd_graph: Option<Arc<SdGraph>>,
    /// Per-rank memory capacity in bytes (`u64::MAX` = unbounded), the
    /// `VirtualNode::memory_bytes` knob. `None` = memory-blind planning:
    /// capacity gates are inert everywhere.
    pub memory_bytes: Option<Arc<Vec<u64>>>,
    /// Per-SD resident footprint in bytes (tile + incident ghost
    /// buffers), what a destination's memory actually pays to host the
    /// SD. Required whenever `memory_bytes` is set.
    pub sd_footprint: Option<Arc<Vec<u64>>>,
    /// Elastic-membership mask: `active[r]` is false once rank `r` has
    /// drained, failed, or not yet joined ([`crate::scenario::ClusterEvent`]
    /// timeline). `None` = every rank is a legal destination, the
    /// fixed-membership behaviour. Only [`LbSpec::Repartition`] evacuates
    /// inactive ranks; for every other policy the mask merely filters
    /// destinations.
    pub active: Option<Arc<Vec<bool>>>,
}

impl LbNetwork {
    pub fn new(comm: CommCost, sd_bytes: impl Into<SdBytes>) -> Self {
        LbNetwork {
            comm,
            sd_bytes: sd_bytes.into(),
            sd_graph: None,
            memory_bytes: None,
            sd_footprint: None,
            active: None,
        }
    }

    /// Free network: every cost term vanishes, λ/μ gates are inert.
    pub fn free() -> Self {
        LbNetwork::new(CommCost::free(), 0u64)
    }

    /// Attach the SD adjacency / halo-volume graph, enabling μ-weighted
    /// ghost-traffic terms in every policy.
    pub fn with_sd_graph(mut self, graph: Arc<SdGraph>) -> Self {
        self.sd_graph = Some(graph);
        self
    }

    /// Attach per-rank memory capacities (`u64::MAX` = unbounded) and the
    /// per-SD resident footprints they are balanced against, enabling the
    /// capacity gate in memory-aware policies.
    ///
    /// # Panics
    /// Panics on a zero capacity — a rank that can hold nothing cannot
    /// host the partition it already owns ([`crate::scenario::ClusterSpec`]
    /// validation rejects it at config time; this is the planner-side
    /// backstop).
    pub fn with_memory(mut self, capacities: Arc<Vec<u64>>, footprints: Arc<Vec<u64>>) -> Self {
        assert!(
            capacities.iter().all(|&c| c > 0),
            "memory capacities must be positive"
        );
        self.memory_bytes = Some(capacities);
        self.sd_footprint = Some(footprints);
        self
    }

    /// Derive the view from a network spec (what the epoch driver does
    /// with a run's configured `net`).
    pub fn from_spec(spec: &NetSpec, sd_bytes: impl Into<SdBytes>) -> Self {
        LbNetwork::new(spec.comm_cost(), sd_bytes)
    }

    /// The view for migrating SD tiles of `cells_per_sd` cells: the wire
    /// size both substrates actually ship per tile (8-byte f64 payload per
    /// cell plus the codec's length/framing overhead). `core::dist` and
    /// `sim::engine` both call it, and it shares the per-message formula
    /// with the [`SdGraph`] edge weights
    /// ([`nlheat_partition::patch_wire_bytes`]), so their planners can
    /// never disagree on `sd_bytes`.
    pub fn for_sd_tiles(spec: &NetSpec, cells_per_sd: usize) -> Self {
        LbNetwork::from_spec(
            spec,
            nlheat_partition::patch_wire_bytes(cells_per_sd as i64),
        )
    }

    /// The ghost graph iff a μ term of weight `mu` can affect plans
    /// (graph attached, `mu > 0`, non-free network — the same
    /// `mu_active` predicate the tree planner's [`CostParams`] gates on)
    /// — `None` otherwise, so degenerate cases take exactly the
    /// ghost-blind code path.
    pub fn ghost_graph(&self, mu: f64) -> Option<&SdGraph> {
        if mu_active(mu, &self.comm) {
            self.sd_graph.as_deref()
        } else {
            None
        }
    }

    /// The node neighbour graph a policy exchanges load over, each list
    /// ordered cheapest link class first (ties by id).
    ///
    /// With an active ghost term (`mu > 0` and an attached [`SdGraph`])
    /// this is the *real* exchange adjacency: node pairs whose
    /// territories trade ghost patches under `own`, projected from the SD
    /// graph — the same adjacency the partitioner's edge cut counts — plus
    /// every pair involving an empty territory (which has no ghost edges
    /// but still needs bootstrap seeding). Ghost-blind (`mu = 0` or no
    /// graph) it falls back to [`CommCost::neighbour_graph`]'s complete
    /// graph, keeping μ = 0 plans byte-identical to the pre-ghost-aware
    /// planner: a policy may discover mid-plan that two initially
    /// non-adjacent territories became adjacent, which a fixed projected
    /// adjacency cannot represent, so the degenerate case must not use it.
    /// For μ > 0 that mid-plan emergence is deliberately ignored — a
    /// transfer between non-adjacent territories cannot be realized
    /// anyway (no shared frontier), and any adjacency a plan creates is
    /// in the projection of the *next* epoch, so restricting the edge set
    /// costs at most extra epochs, never reachability.
    pub fn neighbour_graph(&self, own: &Ownership, mu: f64) -> Vec<Vec<NodeId>> {
        let Some(graph) = self.ghost_graph(mu) else {
            return self.comm.neighbour_graph(own.n_nodes());
        };
        let n = own.n_nodes() as usize;
        let owners = own.owners();
        let counts = own.counts();
        let mut adj = vec![std::collections::BTreeSet::new(); n];
        for sd in 0..graph.n_sds() as u32 {
            let a = owners[sd as usize];
            for (nb, _) in graph.neighbours(sd) {
                let b = owners[nb as usize];
                if a != b {
                    adj[a as usize].insert(b);
                    adj[b as usize].insert(a);
                }
            }
        }
        for i in 0..n {
            if counts[i] == 0 {
                for j in 0..n {
                    if i != j {
                        adj[i].insert(j as NodeId);
                        adj[j].insert(i as NodeId);
                    }
                }
            }
        }
        adj.into_iter()
            .enumerate()
            .map(|(i, set)| {
                let mut list: Vec<NodeId> = set.into_iter().collect();
                list.sort_by(|&a, &b| {
                    self.comm
                        .link_class(i as NodeId, a)
                        .cmp(&self.comm.link_class(i as NodeId, b))
                        .then(a.cmp(&b))
                });
                list
            })
            .collect()
    }
}

/// A load-balancing policy: one epoch's measured state in, a single-hop
/// [`MigrationPlan`] out.
///
/// Policies may be stateful across epochs (the adaptive-λ decorator is),
/// so the substrate builds one instance per run via [`LbSpec::build`] and
/// keeps it alive between epochs.
pub trait LbPolicy: Send {
    /// Short label for ablation tables and logs.
    fn name(&self) -> &'static str;

    /// Plan one epoch. `metrics` are the eqs. 8–10 metrics computed from
    /// the measured busy times (seconds, so relief is commensurable with
    /// the [`LbNetwork`] transfer estimates); `own` is the pre-epoch
    /// ownership the emitted moves' `from` fields must match.
    fn plan(&mut self, own: &Ownership, metrics: &LoadMetrics, net: &LbNetwork) -> MigrationPlan;

    /// Post-epoch feedback: the fraction of the last balancing window the
    /// substrate spent stalled on migration traffic (0 when the plan was
    /// empty). Default: ignored.
    fn observe_stall(&mut self, stall_frac: f64) {
        let _ = stall_frac;
    }

    /// Pre-plan feedback: the fraction of the last balancing window the
    /// substrate spent stalled waiting for ghost-zone arrivals (the
    /// recurring cost an ownership's edge cut causes, as actually
    /// experienced by the runtime). Default: ignored — the adaptive-μ
    /// decorator is the consumer.
    fn observe_ghost_stall(&mut self, ghost_frac: f64) {
        let _ = ghost_frac;
    }

    /// Override the policy's communication-cost weight λ (used by the
    /// adaptive-λ decorator to steer its inner policy). Default: ignored —
    /// a policy without a cost gate has nothing to set.
    fn set_cost_weight(&mut self, lambda: f64) {
        let _ = lambda;
    }

    /// The policy's current communication-cost weight λ (0 for policies
    /// without a cost gate).
    fn cost_weight(&self) -> f64 {
        0.0
    }

    /// Override the policy's ghost-traffic weight μ. Default: ignored — a
    /// policy without a ghost gate has nothing to set.
    fn set_ghost_weight(&mut self, mu: f64) {
        let _ = mu;
    }

    /// The policy's current ghost-traffic weight μ (0 for policies
    /// without a ghost gate).
    fn ghost_weight(&self) -> f64 {
        0.0
    }

    /// What the cut-drift monitor saw at the last epoch. `None` for every
    /// policy without one — only [`LbSpec::Repartition`] (and decorators
    /// forwarding to it) reports, and the substrates copy it into
    /// [`EpochTrace`](crate::balance::EpochTrace) for the A12 plots.
    fn drift_info(&self) -> Option<crate::balance::repart::DriftInfo> {
        None
    }
}

/// Serde-free policy selection shared by `Scenario` and `DistConfig`
/// (via [`LbSchedule`]), mirroring how `NetSpec` selects a `NetModel`.
#[derive(Debug, Clone, PartialEq)]
pub enum LbSpec {
    /// The paper's Algorithm-1 dependency-tree planner with the λ-weighted
    /// communication-cost gate and the μ-weighted ghost-traffic gate;
    /// `lambda = mu = 0` is the count-based paper algorithm,
    /// byte-identical to the pre-policy-layer planner.
    Tree { lambda: f64, mu: f64 },
    /// First-order diffusion: sweep the neighbour graph (cheap edges
    /// first) and settle half of each pair's imbalance difference, for at
    /// most `max_rounds` rounds or until every node is within `tolerance`
    /// SDs of its expected share. `mu > 0` additionally charges each
    /// candidate SD its ghost-traffic delta.
    Diffusion {
        tolerance: f64,
        max_rounds: usize,
        mu: f64,
    },
    /// Greedy offload: while some rank's overload is at least `threshold`
    /// SDs, the most overloaded rank sheds one SD to its cheapest
    /// underloaded neighbour. `mu > 0` additionally charges each candidate
    /// SD its ghost-traffic delta.
    GreedySteal { threshold: usize, mu: f64 },
    /// Decorator: run `inner`, and after each epoch nudge its cost weight
    /// λ so the measured migration-stall fraction approaches
    /// `target_stall_frac` (doubling λ when migrations stall more than
    /// the target, halving it when they stall less than half of it).
    AdaptiveLambda {
        inner: Box<LbSpec>,
        target_stall_frac: f64,
    },
    /// Decorator: run `inner`, and before each epoch nudge its ghost
    /// weight μ so the measured ghost-stall fraction approaches
    /// `target_ghost_frac` — the μ analogue of [`LbSpec::AdaptiveLambda`],
    /// driving the [`LbPolicy::set_ghost_weight`] hook from the substrate's
    /// [`LbPolicy::observe_ghost_stall`] feedback instead of hand-picking
    /// a constant.
    AdaptiveMu {
        inner: Box<LbSpec>,
        target_ghost_frac: f64,
    },
    /// The hierarchical, memory-aware planner
    /// ([`crate::balance::hier::plan_hierarchical`]): settle imbalance
    /// between racks, then between the nodes of each rack, then between
    /// the ranks of each node, each level over its own coarse group
    /// graph — near-linear plan time where the flat planner goes
    /// superlinear. When the [`LbNetwork`] carries memory capacities,
    /// every level refuses destination-overflowing moves. On a
    /// degenerate hierarchy (no [`nlheat_netmodel::TopologySpec`], or a
    /// single rack of single-rank nodes) without capacities it delegates
    /// wholesale to `inner` — a concrete leaf policy, not a decorator —
    /// with its λ/μ synced, so plans are byte-identical to running the
    /// leaf standalone.
    Hierarchical {
        inner: Box<LbSpec>,
        lambda: f64,
        mu: f64,
    },
    /// Decorator: run `inner` while the live ownership's ghost cut stays
    /// within `drift_threshold` of a freshly computed capacity-aware
    /// k-way cut (recomputed every `period` balancing epochs); past the
    /// threshold — or on any [`crate::scenario::ClusterEvent`] membership
    /// change — globally repartition the live [`SdGraph`] and stage the
    /// old→new diff as single-hop plans under `max_bytes_per_epoch`
    /// migration bytes per epoch ([`crate::balance::repart`]).
    Repartition {
        inner: Box<LbSpec>,
        /// Replan once `live_cut / fresh_cut` exceeds this (`f64::INFINITY`
        /// = never: the decorator is transparent absent membership events).
        drift_threshold: f64,
        /// Recompute the fresh cut every this many balancing epochs.
        period: usize,
        /// Per-epoch migration-payload budget for staged diffs
        /// (`u64::MAX` = ship the whole diff at once).
        max_bytes_per_epoch: u64,
    },
}

impl Default for LbSpec {
    /// The paper's count-based Algorithm 1.
    fn default() -> Self {
        LbSpec::Tree {
            lambda: 0.0,
            mu: 0.0,
        }
    }
}

impl LbSpec {
    /// Algorithm 1 weighing migration traffic by `lambda` (ghost-blind:
    /// `mu = 0`).
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn tree(lambda: f64) -> Self {
        let spec = LbSpec::Tree { lambda, mu: 0.0 };
        spec.validate();
        spec
    }

    /// Diffusion with the given stop condition (ghost-blind: `mu = 0`).
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn diffusion(tolerance: f64, max_rounds: usize) -> Self {
        let spec = LbSpec::Diffusion {
            tolerance,
            max_rounds,
            mu: 0.0,
        };
        spec.validate();
        spec
    }

    /// Greedy stealing with the given overload threshold (ghost-blind:
    /// `mu = 0`).
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn greedy_steal(threshold: usize) -> Self {
        let spec = LbSpec::GreedySteal { threshold, mu: 0.0 };
        spec.validate();
        spec
    }

    /// Weigh each candidate move's recurring ghost-traffic delta by `mu`
    /// (applied to the inner policy of an adaptive decorator). The term
    /// only bites when the substrate attaches an [`SdGraph`] to its
    /// [`LbNetwork`]; both execution substrates always do.
    ///
    /// # Panics
    /// Panics on negative or non-finite `mu`.
    pub fn with_mu(mut self, mu: f64) -> Self {
        crate::balance::algorithm::validate_mu(mu);
        match &mut self {
            LbSpec::Tree { mu: m, .. }
            | LbSpec::Diffusion { mu: m, .. }
            | LbSpec::GreedySteal { mu: m, .. } => *m = mu,
            LbSpec::AdaptiveLambda { inner, .. }
            | LbSpec::AdaptiveMu { inner, .. }
            | LbSpec::Repartition { inner, .. } => {
                let updated = std::mem::take(inner.as_mut()).with_mu(mu);
                **inner = updated;
            }
            // the hierarchical machinery has its own μ AND keeps the
            // degenerate-case delegate in lockstep
            LbSpec::Hierarchical { inner, mu: m, .. } => {
                *m = mu;
                let updated = std::mem::take(inner.as_mut()).with_mu(mu);
                **inner = updated;
            }
        }
        self
    }

    /// The hierarchical planner, weighing migration traffic by `lambda`
    /// (ghost-blind: `mu = 0` — add it via [`LbSpec::with_mu`]). `inner`
    /// is the leaf policy the degenerate case delegates to.
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn hierarchical(inner: LbSpec, lambda: f64) -> Self {
        let spec = LbSpec::Hierarchical {
            inner: Box::new(inner),
            lambda,
            mu: 0.0,
        };
        spec.validate();
        spec
    }

    /// Wrap `inner` in the adaptive-λ decorator.
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn adaptive(inner: LbSpec, target_stall_frac: f64) -> Self {
        let spec = LbSpec::AdaptiveLambda {
            inner: Box::new(inner),
            target_stall_frac,
        };
        spec.validate();
        spec
    }

    /// Wrap `inner` in the adaptive-μ decorator.
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn adaptive_mu(inner: LbSpec, target_ghost_frac: f64) -> Self {
        let spec = LbSpec::AdaptiveMu {
            inner: Box::new(inner),
            target_ghost_frac,
        };
        spec.validate();
        spec
    }

    /// Wrap `inner` in the cut-aware repartitioning decorator
    /// ([`crate::balance::repart::RepartitionPolicy`]).
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn repartition(
        inner: LbSpec,
        drift_threshold: f64,
        period: usize,
        max_bytes_per_epoch: u64,
    ) -> Self {
        let spec = LbSpec::Repartition {
            inner: Box::new(inner),
            drift_threshold,
            period,
            max_bytes_per_epoch,
        };
        spec.validate();
        spec
    }

    /// True when the spec's decorator chain contains an adaptive-λ
    /// decorator (used to reject silently-inert nesting).
    fn chain_has_adaptive_lambda(&self) -> bool {
        match self {
            LbSpec::AdaptiveLambda { .. } => true,
            LbSpec::AdaptiveMu { inner, .. }
            | LbSpec::Hierarchical { inner, .. }
            | LbSpec::Repartition { inner, .. } => inner.chain_has_adaptive_lambda(),
            _ => false,
        }
    }

    /// True when the spec's decorator chain contains an adaptive-μ
    /// decorator.
    fn chain_has_adaptive_mu(&self) -> bool {
        match self {
            LbSpec::AdaptiveMu { .. } => true,
            LbSpec::AdaptiveLambda { inner, .. }
            | LbSpec::Hierarchical { inner, .. }
            | LbSpec::Repartition { inner, .. } => inner.chain_has_adaptive_mu(),
            _ => false,
        }
    }

    /// True when the spec's decorator chain contains a repartition
    /// decorator (nesting one would double-replan the same drift;
    /// elastic-membership scenarios *require* one — see
    /// [`crate::scenario::Scenario::validate`]).
    pub(crate) fn chain_has_repartition(&self) -> bool {
        match self {
            LbSpec::Repartition { .. } => true,
            LbSpec::AdaptiveLambda { inner, .. }
            | LbSpec::AdaptiveMu { inner, .. }
            | LbSpec::Hierarchical { inner, .. } => inner.chain_has_repartition(),
            _ => false,
        }
    }

    /// The policy's ablation label.
    pub fn name(&self) -> &'static str {
        match self {
            LbSpec::Tree { .. } => "tree",
            LbSpec::Diffusion { .. } => "diffusion",
            LbSpec::GreedySteal { .. } => "greedy-steal",
            LbSpec::AdaptiveLambda { .. } => "adaptive-lambda",
            LbSpec::AdaptiveMu { .. } => "adaptive-mu",
            LbSpec::Hierarchical { .. } => "hierarchical",
            LbSpec::Repartition { .. } => "repartition",
        }
    }

    /// Reject degenerate parameters at configuration time — like a bad
    /// `NetSpec`, a bad policy parameter must fail on the caller's thread,
    /// not on a driver thread mid-run (where a panic at the first LB epoch
    /// deadlocks the cluster).
    ///
    /// # Panics
    /// Panics on: non-finite or negative `lambda` or `mu`; non-finite or
    /// non-positive `tolerance`; `max_rounds` of 0; `threshold` of 0;
    /// `target_stall_frac` outside `(0, 1)`; or an invalid inner spec.
    pub fn validate(&self) {
        let check_mu = |mu: &f64| crate::balance::algorithm::validate_mu(*mu);
        match self {
            LbSpec::Tree { lambda, mu } => {
                assert!(
                    *lambda >= 0.0 && lambda.is_finite(),
                    "lambda must be finite and non-negative, got {lambda}"
                );
                check_mu(mu);
            }
            LbSpec::Diffusion {
                tolerance,
                max_rounds,
                mu,
            } => {
                assert!(
                    *tolerance > 0.0 && tolerance.is_finite(),
                    "diffusion tolerance must be finite and positive, got {tolerance}"
                );
                assert!(*max_rounds >= 1, "diffusion max_rounds must be at least 1");
                check_mu(mu);
            }
            LbSpec::GreedySteal { threshold, mu } => {
                assert!(*threshold >= 1, "greedy-steal threshold must be at least 1");
                check_mu(mu);
            }
            LbSpec::AdaptiveLambda {
                inner,
                target_stall_frac,
            } => {
                assert!(
                    *target_stall_frac > 0.0
                        && *target_stall_frac < 1.0
                        && target_stall_frac.is_finite(),
                    "target_stall_frac must be in (0, 1), got {target_stall_frac}"
                );
                // A nested same-kind decorator would be silently inert:
                // the outer one keeps the feedback to itself and clobbers
                // the inner's weight every epoch — anywhere in the chain,
                // including through an adaptive-μ layer in between.
                assert!(
                    !inner.chain_has_adaptive_lambda(),
                    "AdaptiveLambda cannot wrap another AdaptiveLambda"
                );
                inner.validate();
            }
            LbSpec::AdaptiveMu {
                inner,
                target_ghost_frac,
            } => {
                assert!(
                    *target_ghost_frac > 0.0
                        && *target_ghost_frac < 1.0
                        && target_ghost_frac.is_finite(),
                    "target_ghost_frac must be in (0, 1), got {target_ghost_frac}"
                );
                assert!(
                    !inner.chain_has_adaptive_mu(),
                    "AdaptiveMu cannot wrap another AdaptiveMu"
                );
                inner.validate();
            }
            LbSpec::Hierarchical { inner, lambda, mu } => {
                assert!(
                    *lambda >= 0.0 && lambda.is_finite(),
                    "lambda must be finite and non-negative, got {lambda}"
                );
                check_mu(mu);
                // The inner spec is the degenerate-case delegate, planning
                // whole epochs on its own: a decorator there would never
                // receive the substrate feedback it adapts on, and a
                // nested hierarchy is meaningless — demand a leaf.
                assert!(
                    matches!(
                        **inner,
                        LbSpec::Tree { .. } | LbSpec::Diffusion { .. } | LbSpec::GreedySteal { .. }
                    ),
                    "Hierarchical requires a leaf policy (tree, diffusion, greedy-steal) as inner"
                );
                inner.validate();
            }
            LbSpec::Repartition {
                inner,
                drift_threshold,
                period,
                max_bytes_per_epoch,
            } => {
                assert!(
                    *drift_threshold > 0.0 && !drift_threshold.is_nan(),
                    "drift_threshold must be positive (infinity = never replan), \
                     got {drift_threshold}"
                );
                assert!(*period >= 1, "repartition period must be at least 1 epoch");
                assert!(
                    *max_bytes_per_epoch >= 1,
                    "max_bytes_per_epoch must be positive (u64::MAX = unbounded)"
                );
                assert!(
                    !inner.chain_has_repartition(),
                    "Repartition cannot wrap another Repartition"
                );
                inner.validate();
            }
        }
    }

    /// Instantiate the policy object for one run.
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn build(&self) -> Box<dyn LbPolicy> {
        self.validate();
        match self {
            LbSpec::Tree { lambda, mu } => Box::new(TreePolicy {
                lambda: *lambda,
                mu: *mu,
            }),
            LbSpec::Diffusion {
                tolerance,
                max_rounds,
                mu,
            } => Box::new(DiffusionPolicy {
                tolerance: *tolerance,
                max_rounds: *max_rounds,
                cost_weight: 0.0,
                ghost_weight: *mu,
            }),
            LbSpec::GreedySteal { threshold, mu } => Box::new(GreedyStealPolicy {
                threshold: *threshold,
                cost_weight: 0.0,
                ghost_weight: *mu,
            }),
            LbSpec::AdaptiveLambda {
                inner,
                target_stall_frac,
            } => {
                let inner = inner.build();
                // start from the inner policy's configured weight so the
                // decorator nudges rather than resets
                let lambda = inner.cost_weight();
                Box::new(AdaptiveLambdaPolicy {
                    inner,
                    target_stall_frac: *target_stall_frac,
                    lambda,
                })
            }
            LbSpec::AdaptiveMu {
                inner,
                target_ghost_frac,
            } => {
                let inner = inner.build();
                let mu = inner.ghost_weight();
                Box::new(AdaptiveMuPolicy {
                    inner,
                    target_ghost_frac: *target_ghost_frac,
                    mu,
                })
            }
            LbSpec::Hierarchical { inner, lambda, mu } => {
                let mut leaf = inner.build();
                // keep the delegate's gates in lockstep from the start
                leaf.set_cost_weight(*lambda);
                leaf.set_ghost_weight(*mu);
                Box::new(crate::balance::hier::HierPolicy::new(leaf, *lambda, *mu))
            }
            LbSpec::Repartition {
                inner,
                drift_threshold,
                period,
                max_bytes_per_epoch,
            } => Box::new(crate::balance::repart::RepartitionPolicy::new(
                inner.build(),
                *drift_threshold,
                *period,
                *max_bytes_per_epoch,
            )),
        }
    }
}

/// When to balance and how — the one load-balancing configuration, read
/// by every substrate through `Scenario` (or the real runtime's low-level
/// `DistConfig`).
#[derive(Debug, Clone, PartialEq)]
pub struct LbSchedule {
    /// Run the policy every `period` (simulated or real) timesteps.
    pub period: usize,
    /// Which policy plans the epochs.
    pub spec: LbSpec,
}

impl LbSchedule {
    /// The paper's count-based Algorithm 1 every `period` timesteps.
    ///
    /// # Panics
    /// Panics on a zero period.
    pub fn every(period: usize) -> Self {
        assert!(period >= 1, "LB period must be at least 1 step");
        LbSchedule {
            period,
            spec: LbSpec::default(),
        }
    }

    /// Select the balancing policy.
    ///
    /// # Panics
    /// Panics on invalid policy parameters — see [`LbSpec::validate`].
    pub fn with_spec(mut self, spec: LbSpec) -> Self {
        spec.validate();
        self.spec = spec;
        self
    }

    /// True when a balancing epoch follows timestep `step` of an
    /// `n_steps` run: the period divides the steps completed, except after
    /// the last step (nothing is left to balance for). The one schedule
    /// predicate every substrate asks.
    pub fn due(&self, step: usize, n_steps: usize) -> bool {
        (step + 1).is_multiple_of(self.period) && step + 1 < n_steps
    }

    /// Validate the whole schedule (covers direct field assignment that
    /// bypassed the builders).
    ///
    /// # Panics
    /// Panics on a zero period or invalid policy parameters.
    pub fn validate(&self) {
        assert!(self.period >= 1, "LB period must be at least 1 step");
        self.spec.validate();
    }
}

// ---------------------------------------------------------------------
// Policy implementations
// ---------------------------------------------------------------------

/// [`LbSpec::Tree`]: delegates to the Algorithm-1 planner.
pub struct TreePolicy {
    lambda: f64,
    mu: f64,
}

impl LbPolicy for TreePolicy {
    fn name(&self) -> &'static str {
        "tree"
    }

    fn plan(&mut self, own: &Ownership, metrics: &LoadMetrics, net: &LbNetwork) -> MigrationPlan {
        let cost = CostParams::new(net.comm, self.lambda, net.sd_bytes.clone()).with_mu(self.mu);
        plan_rebalance_ghost_aware(own, metrics.clone(), &cost, net.sd_graph.as_deref())
    }

    fn set_cost_weight(&mut self, lambda: f64) {
        self.lambda = lambda;
    }

    fn cost_weight(&self) -> f64 {
        self.lambda
    }

    fn set_ghost_weight(&mut self, mu: f64) {
        self.mu = mu;
    }

    fn ghost_weight(&self) -> f64 {
        self.mu
    }
}

/// [`LbSpec::Diffusion`]: first-order pairwise load exchange.
pub struct DiffusionPolicy {
    tolerance: f64,
    max_rounds: usize,
    /// λ gate on realizations; 0 unless set by the adaptive decorator.
    cost_weight: f64,
    /// μ gate on each candidate SD's ghost-traffic delta.
    ghost_weight: f64,
}

impl LbPolicy for DiffusionPolicy {
    fn name(&self) -> &'static str {
        "diffusion"
    }

    fn plan(&mut self, own: &Ownership, metrics: &LoadMetrics, net: &LbNetwork) -> MigrationPlan {
        let mut imbalance = metrics.imbalance.clone();
        let mut working = own.clone();
        let mut raw: Vec<Move> = Vec::new();
        let ghost = net.ghost_graph(self.ghost_weight);
        // Undirected exchange edges from the neighbour graph (the real
        // ghost-exchange adjacency when μ is active, the complete
        // link-class graph otherwise), cheapest class first (ties by ids)
        // so imbalance settles within racks before any of it crosses them.
        let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
        for (i, nbs) in net
            .neighbour_graph(own, self.ghost_weight)
            .iter()
            .enumerate()
        {
            for &j in nbs {
                if (j as usize) > i {
                    edges.push((i as NodeId, j));
                }
            }
        }
        edges.sort_by(|&(a, b), &(c, d)| {
            net.comm
                .link_class(a, b)
                .cmp(&net.comm.link_class(c, d))
                .then(a.cmp(&c))
                .then(b.cmp(&d))
        });
        for _round in 0..self.max_rounds {
            let worst = imbalance.iter().map(|v| v.abs()).max().unwrap_or(0);
            if (worst as f64) <= self.tolerance {
                break;
            }
            let mut progressed = false;
            for &(i, j) in &edges {
                // settle half the pair's difference toward the needier end
                let flow = (imbalance[j as usize] - imbalance[i as usize]) / 2;
                if flow == 0 {
                    continue;
                }
                let (src, dst, amount) = if flow > 0 {
                    (i, j, flow as usize)
                } else {
                    (j, i, (-flow) as usize)
                };
                let relief = metrics.relief_per_sd(src as usize);
                let gain = |sd| {
                    relief - self.cost_weight * net.comm.seconds(src, dst, net.sd_bytes.get(sd))
                };
                let realized = match ghost {
                    Some(g) => {
                        // one SD at a time so every delta is exact against
                        // the evolving ownership (see realize_ghost_aware)
                        realize_ghost_aware(&mut working, &mut raw, src, dst, amount, |o, sd| {
                            gain(sd)
                                - self.ghost_weight * ghost_delta_seconds(&net.comm, g, o, sd, dst)
                        })
                    }
                    None => {
                        let chosen = select_transfer_scored(&working, src, dst, amount, gain);
                        for &sd in &chosen {
                            working.set_owner(sd, dst);
                            raw.push(Move {
                                sd,
                                from: src,
                                to: dst,
                            });
                        }
                        chosen.len() as i64
                    }
                };
                if realized == 0 {
                    continue;
                }
                imbalance[dst as usize] -= realized;
                imbalance[src as usize] += realized;
                progressed = true;
            }
            // exhausted frontiers or fully gated: residual imbalance stays
            // for the next epoch, like the tree planner's residuals
            if !progressed {
                break;
            }
        }
        finish_plan(metrics.clone(), working, raw, &net.comm, &net.sd_bytes)
    }

    fn set_cost_weight(&mut self, lambda: f64) {
        self.cost_weight = lambda;
    }

    fn cost_weight(&self) -> f64 {
        self.cost_weight
    }

    fn set_ghost_weight(&mut self, mu: f64) {
        self.ghost_weight = mu;
    }

    fn ghost_weight(&self) -> f64 {
        self.ghost_weight
    }
}

/// [`LbSpec::GreedySteal`]: max-loaded rank sheds to its cheapest
/// underloaded neighbour, one SD at a time.
pub struct GreedyStealPolicy {
    threshold: usize,
    /// λ gate on steals; 0 unless set by the adaptive decorator.
    cost_weight: f64,
    /// μ gate on each candidate SD's ghost-traffic delta.
    ghost_weight: f64,
}

impl LbPolicy for GreedyStealPolicy {
    fn name(&self) -> &'static str {
        "greedy-steal"
    }

    fn plan(&mut self, own: &Ownership, metrics: &LoadMetrics, net: &LbNetwork) -> MigrationPlan {
        let n = own.n_nodes() as usize;
        let mut imbalance = metrics.imbalance.clone();
        let mut working = own.clone();
        let mut raw: Vec<Move> = Vec::new();
        let ghost = net.ghost_graph(self.ghost_weight);
        let graph = net.neighbour_graph(own, self.ghost_weight);
        // A rank whose every candidate fails (no reachable frontier, or
        // fully λ-gated) is parked so the loop always terminates: each
        // iteration either realizes a move (shrinking Σ|imbalance|) or
        // parks one rank.
        let mut parked = vec![false; n];
        while let Some(src) = (0..n)
            .filter(|&i| !parked[i] && -imbalance[i] >= self.threshold as i64)
            .min_by_key(|&i| (imbalance[i], i))
        {
            let mut moved = false;
            for &dst in &graph[src] {
                if imbalance[dst as usize] <= 0 {
                    continue;
                }
                let relief = metrics.relief_per_sd(src);
                let gain = |sd| {
                    relief
                        - self.cost_weight
                            * net.comm.seconds(src as NodeId, dst, net.sd_bytes.get(sd))
                };
                let chosen = match ghost {
                    Some(g) => select_transfer_scored(&working, src as NodeId, dst, 1, |sd| {
                        gain(sd)
                            - self.ghost_weight
                                * ghost_delta_seconds(&net.comm, g, working.owners(), sd, dst)
                    }),
                    None => select_transfer_scored(&working, src as NodeId, dst, 1, gain),
                };
                if let Some(&sd) = chosen.first() {
                    working.set_owner(sd, dst);
                    raw.push(Move {
                        sd,
                        from: src as NodeId,
                        to: dst,
                    });
                    imbalance[dst as usize] -= 1;
                    imbalance[src] += 1;
                    moved = true;
                    break;
                }
            }
            if !moved {
                parked[src] = true;
            }
        }
        finish_plan(metrics.clone(), working, raw, &net.comm, &net.sd_bytes)
    }

    fn set_cost_weight(&mut self, lambda: f64) {
        self.cost_weight = lambda;
    }

    fn cost_weight(&self) -> f64 {
        self.cost_weight
    }

    fn set_ghost_weight(&mut self, mu: f64) {
        self.ghost_weight = mu;
    }

    fn ghost_weight(&self) -> f64 {
        self.ghost_weight
    }
}

/// [`LbSpec::AdaptiveLambda`]: closes the λ feedback loop. Doubles the
/// inner policy's cost weight when migrations stalled the last window more
/// than the target fraction, halves it when they stalled less than half
/// the target (the dead band in between holds λ steady, avoiding
/// oscillation around the setpoint).
pub struct AdaptiveLambdaPolicy {
    inner: Box<dyn LbPolicy>,
    target_stall_frac: f64,
    lambda: f64,
}

impl AdaptiveLambdaPolicy {
    /// λ is clamped here so `CostParams::new` can never see a non-finite
    /// weight, no matter how many stalled epochs pile up.
    const LAMBDA_MAX: f64 = 1e9;
    /// Below this, λ snaps to exactly 0 so the inner policy degenerates to
    /// its count-based behaviour instead of carrying float dust.
    const LAMBDA_MIN: f64 = 1e-6;
}

impl LbPolicy for AdaptiveLambdaPolicy {
    fn name(&self) -> &'static str {
        "adaptive-lambda"
    }

    fn plan(&mut self, own: &Ownership, metrics: &LoadMetrics, net: &LbNetwork) -> MigrationPlan {
        self.inner.set_cost_weight(self.lambda);
        self.inner.plan(own, metrics, net)
    }

    fn observe_stall(&mut self, stall_frac: f64) {
        if !stall_frac.is_finite() || stall_frac < 0.0 {
            return;
        }
        if stall_frac > self.target_stall_frac {
            self.lambda = if self.lambda <= 0.0 {
                1.0
            } else {
                (self.lambda * 2.0).min(Self::LAMBDA_MAX)
            };
        } else if stall_frac < self.target_stall_frac * 0.5 {
            self.lambda *= 0.5;
            if self.lambda < Self::LAMBDA_MIN {
                self.lambda = 0.0;
            }
        }
    }

    fn set_cost_weight(&mut self, lambda: f64) {
        self.lambda = lambda;
    }

    fn cost_weight(&self) -> f64 {
        self.lambda
    }

    /// The ghost gate is orthogonal to the adapted λ: forward it to the
    /// inner policy untouched.
    fn set_ghost_weight(&mut self, mu: f64) {
        self.inner.set_ghost_weight(mu);
    }

    fn ghost_weight(&self) -> f64 {
        self.inner.ghost_weight()
    }

    /// Ghost-stall feedback is the μ decorator's signal: forward it so an
    /// inner adaptive-μ layer keeps learning through this decorator.
    fn observe_ghost_stall(&mut self, ghost_frac: f64) {
        self.inner.observe_ghost_stall(ghost_frac);
    }

    fn drift_info(&self) -> Option<crate::balance::repart::DriftInfo> {
        self.inner.drift_info()
    }
}

/// [`LbSpec::AdaptiveMu`]: closes the μ feedback loop. Doubles the inner
/// policy's ghost weight when the measured ghost-stall fraction of the
/// last window exceeded the target, halves it when it stayed under half
/// the target (the dead band in between holds μ steady). The engaged
/// weight starts at the bottom of the shaping band (≈ 0.05 with
/// seconds-scaled busy times) so the first correction shapes plans
/// instead of freezing them.
pub struct AdaptiveMuPolicy {
    inner: Box<dyn LbPolicy>,
    target_ghost_frac: f64,
    mu: f64,
}

impl AdaptiveMuPolicy {
    /// μ is clamped so `CostParams` can never see a non-finite weight.
    const MU_MAX: f64 = 1e9;
    /// Below this, μ snaps to exactly 0 so the inner policy degenerates to
    /// its ghost-blind behaviour instead of carrying float dust.
    const MU_MIN: f64 = 1e-6;
    /// The weight the first engagement starts from — the bottom of the
    /// A9 shaping band.
    const MU_ENGAGE: f64 = 0.05;
}

impl LbPolicy for AdaptiveMuPolicy {
    fn name(&self) -> &'static str {
        "adaptive-mu"
    }

    fn plan(&mut self, own: &Ownership, metrics: &LoadMetrics, net: &LbNetwork) -> MigrationPlan {
        self.inner.set_ghost_weight(self.mu);
        self.inner.plan(own, metrics, net)
    }

    fn observe_ghost_stall(&mut self, ghost_frac: f64) {
        if !ghost_frac.is_finite() || ghost_frac < 0.0 {
            return;
        }
        if ghost_frac > self.target_ghost_frac {
            self.mu = if self.mu <= 0.0 {
                Self::MU_ENGAGE
            } else {
                (self.mu * 2.0).min(Self::MU_MAX)
            };
        } else if ghost_frac < self.target_ghost_frac * 0.5 {
            self.mu *= 0.5;
            if self.mu < Self::MU_MIN {
                self.mu = 0.0;
            }
        }
    }

    /// The migration-stall signal belongs to an inner λ decorator (if
    /// any): forward it untouched.
    fn observe_stall(&mut self, stall_frac: f64) {
        self.inner.observe_stall(stall_frac);
    }

    /// The cost gate is orthogonal to the adapted μ: forward it.
    fn set_cost_weight(&mut self, lambda: f64) {
        self.inner.set_cost_weight(lambda);
    }

    fn cost_weight(&self) -> f64 {
        self.inner.cost_weight()
    }

    fn set_ghost_weight(&mut self, mu: f64) {
        self.mu = mu;
    }

    fn ghost_weight(&self) -> f64 {
        self.mu
    }

    fn drift_info(&self) -> Option<crate::balance::repart::DriftInfo> {
        self.inner.drift_info()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::balance::algorithm::{plan_rebalance, plan_rebalance_with_cost};
    use crate::balance::power::compute_metrics;
    use nlheat_mesh::{SdGrid, SdId};
    use nlheat_netmodel::{LinkSpec, TopologySpec};

    fn symmetric_busy(own: &Ownership) -> Vec<f64> {
        own.counts().iter().map(|&c| c.max(1) as f64).collect()
    }

    fn metrics_for(own: &Ownership, busy: &[f64]) -> LoadMetrics {
        compute_metrics(&own.counts(), busy)
    }

    /// The Fig. 14 imbalanced start: 5x5 SDs, 4 symmetric nodes.
    fn fig14_initial() -> Ownership {
        let sds = SdGrid::new(5, 5, 4);
        let mut owners = vec![0u32; 25];
        owners[sds.id(4, 0) as usize] = 1;
        owners[sds.id(4, 4) as usize] = 3;
        owners[sds.id(0, 4) as usize] = 2;
        Ownership::new(sds, owners, 4)
    }

    fn two_rack_net(sd_bytes: u64) -> LbNetwork {
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

    /// Sweep of skewed ownerships/busy vectors shared by the invariant
    /// tests (same family as `moves_are_single_hop_per_sd`).
    fn sweep(mut check: impl FnMut(&Ownership, &[f64])) {
        let sds = SdGrid::new(6, 6, 4);
        for pattern in 0..8u32 {
            let owners: Vec<u32> = (0..36u32)
                .map(|sd| {
                    let (sx, sy) = sds.coords(sd);
                    ((sx as u32 + pattern) / 2 + 2 * (sy as u32 / 3)) % 4
                })
                .collect();
            let own = Ownership::new(sds, owners, 4);
            for skew in 0..4 {
                let busy: Vec<f64> = (0..4)
                    .map(|n| 1.0 + ((n + skew) % 4) as f64 * 1.7)
                    .collect();
                check(&own, &busy);
            }
        }
    }

    fn all_specs() -> Vec<LbSpec> {
        vec![
            LbSpec::tree(0.0),
            LbSpec::tree(1.0),
            LbSpec::diffusion(1.0, 8),
            LbSpec::greedy_steal(1),
            LbSpec::adaptive(LbSpec::tree(0.5), 0.1),
            LbSpec::adaptive(LbSpec::greedy_steal(1), 0.1),
            LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.2),
            LbSpec::adaptive_mu(LbSpec::diffusion(1.0, 8), 0.2),
            LbSpec::hierarchical(LbSpec::tree(0.0), 0.0),
            LbSpec::hierarchical(LbSpec::greedy_steal(1), 0.5).with_mu(0.25),
            // ∞ threshold: the decorator is transparent, so it satisfies
            // the roster's "graph attachment changes nothing at μ=0"
            // pins; active repartitioning is pinned in `repart::tests`
            // and `tests/properties.rs`.
            LbSpec::repartition(LbSpec::tree(0.0), f64::INFINITY, 1, u64::MAX),
            LbSpec::repartition(
                LbSpec::hierarchical(LbSpec::tree(0.0), 0.0),
                f64::INFINITY,
                2,
                1 << 20,
            ),
        ]
    }

    #[test]
    fn tree_policy_is_byte_identical_to_planner() {
        // The tentpole acceptance criterion: routing Algorithm 1 through
        // the policy layer must not change a single move, at λ = 0 and
        // λ > 0 alike.
        let net = two_rack_net(1 << 12);
        for lambda in [0.0, 0.5, 2.0] {
            let mut policy = LbSpec::tree(lambda).build();
            sweep(|own, busy| {
                let direct = plan_rebalance_with_cost(
                    own,
                    busy,
                    &CostParams::new(net.comm, lambda, net.sd_bytes.clone()),
                );
                let via_policy = policy.plan(own, &metrics_for(own, busy), &net);
                assert_eq!(direct.moves, via_policy.moves, "λ={lambda}");
                assert_eq!(direct.new_ownership, via_policy.new_ownership);
                assert_eq!(direct.comm, via_policy.comm);
            });
        }
        // and with a free network the λ=0 tree matches the seed planner
        let mut policy = LbSpec::tree(0.0).build();
        sweep(|own, busy| {
            let seed = plan_rebalance(own, busy);
            let via_policy = policy.plan(own, &metrics_for(own, busy), &LbNetwork::free());
            assert_eq!(seed.moves, via_policy.moves);
        });
    }

    #[test]
    fn every_policy_emits_single_hop_plans() {
        // No SD moves twice, no move targets the SD's current owner, and
        // the moves land exactly on the claimed ownership — for every
        // variant over the skewed sweep.
        let net = two_rack_net(4 * 4 * 8 + 24);
        for spec in all_specs() {
            let mut policy = spec.build();
            sweep(|own, busy| {
                let plan = policy.plan(own, &metrics_for(own, busy), &net);
                let mut seen = std::collections::HashSet::new();
                for m in &plan.moves {
                    assert!(
                        seen.insert(m.sd),
                        "{}: SD {} moved twice",
                        spec.name(),
                        m.sd
                    );
                    assert_eq!(own.owner(m.sd), m.from, "{}: stale source", spec.name());
                    assert_ne!(m.from, m.to, "{}: no-op move", spec.name());
                }
                let mut check = own.clone();
                for m in &plan.moves {
                    check.set_owner(m.sd, m.to);
                }
                assert_eq!(check, plan.new_ownership, "{}", spec.name());
            });
        }
    }

    #[test]
    fn diffusion_balances_fig14() {
        let own = fig14_initial();
        let mut policy = LbSpec::diffusion(1.0, 16).build();
        let plan = policy.plan(
            &own,
            &metrics_for(&own, &symmetric_busy(&own)),
            &LbNetwork::free(),
        );
        assert!(!plan.is_noop());
        let counts = plan.new_ownership.counts();
        let spread = counts.iter().max().unwrap() - counts.iter().min().unwrap();
        assert!(
            spread < 21,
            "diffusion must shrink the 22/1/1/1 spread: {counts:?}"
        );
        assert_eq!(counts.iter().sum::<usize>(), 25);
    }

    #[test]
    fn diffusion_tolerance_gates_small_imbalance() {
        // 13/12 split on two nodes: |imbalance| <= 1, within tolerance 1.
        let sds = SdGrid::new(5, 5, 4);
        let owners: Vec<u32> = (0..25).map(|i| u32::from(i >= 13)).collect();
        let own = Ownership::new(sds, owners, 2);
        let mut policy = LbSpec::diffusion(1.0, 8).build();
        let plan = policy.plan(
            &own,
            &metrics_for(&own, &symmetric_busy(&own)),
            &LbNetwork::free(),
        );
        assert!(plan.is_noop(), "within tolerance: {:?}", plan.moves);
    }

    #[test]
    fn greedy_steal_balances_two_nodes() {
        // 1x6 row, 5/1 split: greedy sheds frontier SDs one at a time.
        let sds = SdGrid::new(6, 1, 4);
        let own = Ownership::new(sds, vec![0, 0, 0, 0, 0, 1], 2);
        let mut policy = LbSpec::greedy_steal(1).build();
        let plan = policy.plan(
            &own,
            &metrics_for(&own, &symmetric_busy(&own)),
            &LbNetwork::free(),
        );
        assert_eq!(plan.new_ownership.counts(), vec![3, 3]);
        let moved: Vec<SdId> = plan.moves.iter().map(|m| m.sd).collect();
        assert_eq!(moved, vec![4, 3], "frontier first, ring by ring");
    }

    #[test]
    fn greedy_steal_threshold_parks_small_overloads() {
        let sds = SdGrid::new(6, 1, 4);
        let own = Ownership::new(sds, vec![0, 0, 0, 0, 1, 1], 2);
        // overload is 1; threshold 2 must not act
        let mut policy = LbSpec::greedy_steal(2).build();
        let plan = policy.plan(
            &own,
            &metrics_for(&own, &symmetric_busy(&own)),
            &LbNetwork::free(),
        );
        assert!(plan.is_noop(), "{:?}", plan.moves);
    }

    #[test]
    fn greedy_steal_prefers_cheap_neighbours() {
        // 8x1 row, racks {0,1} and {2,3}: node 1 holds 5 of 8 SDs while
        // its rack peer 0 and the inter-rack nodes 2, 3 are each one SD
        // under their share. Greedy must satisfy the rack peer first, even
        // though the inter-rack candidates are equally underloaded.
        let sds = SdGrid::new(8, 1, 4);
        let own = Ownership::new(sds, vec![0, 1, 1, 1, 1, 1, 2, 3], 4);
        let net = two_rack_net(1000);
        let mut policy = LbSpec::greedy_steal(1).build();
        let plan = policy.plan(&own, &metrics_for(&own, &symmetric_busy(&own)), &net);
        assert!(!plan.is_noop());
        let first = plan.moves[0];
        assert_eq!(
            (first.from, first.to),
            (1, 0),
            "rack peer must be served first: {:?}",
            plan.moves
        );
        assert_eq!(plan.new_ownership.counts()[0], 2, "peer topped up");
    }

    #[test]
    fn adaptive_lambda_tracks_stall_feedback() {
        let mut policy = LbSpec::adaptive(LbSpec::tree(0.0), 0.1).build();
        assert_eq!(policy.cost_weight(), 0.0, "starts from the inner λ");
        policy.observe_stall(0.5); // stalled well above target: engage gate
        assert_eq!(policy.cost_weight(), 1.0);
        policy.observe_stall(0.5);
        assert_eq!(policy.cost_weight(), 2.0, "doubles while stalling");
        policy.observe_stall(0.07); // inside the dead band: hold
        assert_eq!(policy.cost_weight(), 2.0);
        policy.observe_stall(0.01); // below half target: relax
        assert_eq!(policy.cost_weight(), 1.0);
        for _ in 0..40 {
            policy.observe_stall(0.0);
        }
        assert_eq!(policy.cost_weight(), 0.0, "λ decays to exactly 0");
        // garbage feedback is ignored
        policy.observe_stall(f64::NAN);
        policy.observe_stall(-1.0);
        assert_eq!(policy.cost_weight(), 0.0);
    }

    #[test]
    fn adaptive_lambda_steers_its_inner_tree() {
        // Same 8x1 two-rack fixture as the planner's gating test: with a
        // raised λ the wrapped tree must stop crossing racks.
        let sds = SdGrid::new(8, 1, 4);
        let own = Ownership::new(sds, vec![0, 0, 1, 1, 1, 1, 2, 3], 4);
        let busy = symmetric_busy(&own);
        let net = two_rack_net(1000);
        let mut policy = LbSpec::adaptive(LbSpec::tree(0.0), 0.05).build();
        let free_plan = policy.plan(&own, &metrics_for(&own, &busy), &net);
        assert!(
            free_plan.comm.inter_rack_bytes() > 0,
            "λ=0 must cross racks: {:?}",
            free_plan.moves
        );
        policy.observe_stall(0.9); // λ -> 1: inter-rack cost >> relief
        let gated = policy.plan(&own, &metrics_for(&own, &busy), &net);
        assert_eq!(
            gated.comm.inter_rack_bytes(),
            0,
            "raised λ must gate the uplink: {:?}",
            gated.moves
        );
        assert!(!gated.is_noop(), "intra-rack settlement must survive");
    }

    #[test]
    fn schedule_builders() {
        let sched = LbSchedule::every(4).with_spec(LbSpec::greedy_steal(2));
        assert_eq!(sched.period, 4);
        assert_eq!(
            sched.spec,
            LbSpec::GreedySteal {
                threshold: 2,
                mu: 0.0
            }
        );
        assert_eq!(
            LbSchedule::every(3).spec,
            LbSpec::Tree {
                lambda: 0.0,
                mu: 0.0
            }
        );
        // with_mu reaches the variant's μ field, through decorators too
        assert_eq!(
            LbSpec::tree(1.0).with_mu(0.5),
            LbSpec::Tree {
                lambda: 1.0,
                mu: 0.5
            }
        );
        match LbSpec::adaptive(LbSpec::greedy_steal(1), 0.1).with_mu(2.0) {
            LbSpec::AdaptiveLambda { inner, .. } => {
                assert_eq!(
                    *inner,
                    LbSpec::GreedySteal {
                        threshold: 1,
                        mu: 2.0
                    }
                );
            }
            other => panic!("decorator shape lost: {other:?}"),
        }
    }

    #[test]
    fn spec_names_are_stable() {
        assert_eq!(LbSpec::tree(0.0).name(), "tree");
        assert_eq!(LbSpec::diffusion(1.0, 4).name(), "diffusion");
        assert_eq!(LbSpec::greedy_steal(1).name(), "greedy-steal");
        let spec = LbSpec::adaptive(LbSpec::diffusion(1.0, 4), 0.2);
        assert_eq!(spec.name(), "adaptive-lambda");
        assert_eq!(spec.build().name(), "adaptive-lambda");
        let spec = LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.2);
        assert_eq!(spec.name(), "adaptive-mu");
        assert_eq!(spec.build().name(), "adaptive-mu");
        let spec = LbSpec::hierarchical(LbSpec::tree(0.0), 0.0);
        assert_eq!(spec.name(), "hierarchical");
        assert_eq!(spec.build().name(), "hierarchical");
        let spec = LbSpec::repartition(LbSpec::tree(0.0), 2.0, 4, u64::MAX);
        assert_eq!(spec.name(), "repartition");
        assert_eq!(spec.build().name(), "repartition");
    }

    #[test]
    #[should_panic(expected = "Repartition cannot wrap another Repartition")]
    fn nested_repartition_is_rejected() {
        LbSpec::repartition(
            LbSpec::adaptive_mu(
                LbSpec::repartition(LbSpec::tree(0.0), 2.0, 1, u64::MAX),
                0.2,
            ),
            2.0,
            1,
            u64::MAX,
        );
    }

    #[test]
    fn repartition_forwards_weights_and_drift_through_decorators() {
        let spec = LbSpec::repartition(LbSpec::tree(0.5), 2.0, 1, u64::MAX).with_mu(0.25);
        match &spec {
            LbSpec::Repartition { inner, .. } => {
                assert_eq!(
                    **inner,
                    LbSpec::Tree {
                        lambda: 0.5,
                        mu: 0.25
                    }
                );
            }
            other => panic!("shape lost: {other:?}"),
        }
        let policy = spec.build();
        assert_eq!(policy.cost_weight(), 0.5);
        assert_eq!(policy.ghost_weight(), 0.25);
        assert!(policy.drift_info().is_some(), "monitor must report");
        // an adaptive decorator over Repartition surfaces the drift info
        let wrapped = LbSpec::adaptive(
            LbSpec::repartition(LbSpec::tree(0.0), 2.0, 1, u64::MAX),
            0.1,
        )
        .build();
        assert!(wrapped.drift_info().is_some());
        // …and plain policies report none
        assert!(LbSpec::tree(0.0).build().drift_info().is_none());
    }

    #[test]
    fn hierarchical_spec_round_trips_weights() {
        // with_mu reaches both the machinery's μ and the delegate's
        let spec = LbSpec::hierarchical(LbSpec::tree(0.0), 2.0).with_mu(0.5);
        match &spec {
            LbSpec::Hierarchical { inner, lambda, mu } => {
                assert_eq!((*lambda, *mu), (2.0, 0.5));
                assert_eq!(
                    **inner,
                    LbSpec::Tree {
                        lambda: 0.0,
                        mu: 0.5
                    }
                );
            }
            other => panic!("shape lost: {other:?}"),
        }
        let policy = spec.build();
        assert_eq!(policy.cost_weight(), 2.0);
        assert_eq!(policy.ghost_weight(), 0.5);
    }

    #[test]
    #[should_panic(expected = "requires a leaf policy")]
    fn hierarchical_rejects_decorator_inner() {
        let _ = LbSpec::hierarchical(LbSpec::adaptive(LbSpec::tree(0.0), 0.1), 0.0);
    }

    #[test]
    #[should_panic(expected = "requires a leaf policy")]
    fn hierarchical_rejects_nested_hierarchy() {
        let _ = LbSpec::hierarchical(LbSpec::hierarchical(LbSpec::tree(0.0), 0.0), 0.0);
    }

    #[test]
    fn adaptive_decorator_can_wrap_hierarchical() {
        // the decorators adapt λ/μ through set_*_weight, which the
        // hierarchical policy forwards — wrapping it IS allowed
        let spec = LbSpec::adaptive(LbSpec::hierarchical(LbSpec::tree(0.0), 0.0), 0.1);
        spec.validate();
        let mut policy = spec.build();
        policy.observe_stall(0.9);
        assert_eq!(policy.cost_weight(), 1.0, "outer λ engaged");
    }

    #[test]
    fn adaptive_mu_tracks_ghost_stall_feedback() {
        let mut policy = LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.2).build();
        assert_eq!(policy.ghost_weight(), 0.0, "starts from the inner μ");
        policy.observe_ghost_stall(0.5); // well above target: engage gate
        assert_eq!(policy.ghost_weight(), 0.05, "engages at the shaping band");
        policy.observe_ghost_stall(0.5);
        assert_eq!(policy.ghost_weight(), 0.1, "doubles while stalling");
        policy.observe_ghost_stall(0.15); // inside the dead band: hold
        assert_eq!(policy.ghost_weight(), 0.1);
        policy.observe_ghost_stall(0.05); // below half target: relax
        assert_eq!(policy.ghost_weight(), 0.05);
        for _ in 0..40 {
            policy.observe_ghost_stall(0.0);
        }
        assert_eq!(policy.ghost_weight(), 0.0, "μ decays to exactly 0");
        // garbage feedback is ignored
        policy.observe_ghost_stall(f64::NAN);
        policy.observe_ghost_stall(-1.0);
        assert_eq!(policy.ghost_weight(), 0.0);
    }

    #[test]
    fn adaptive_mu_steers_its_inner_tree() {
        // The huge-μ gating fixture, but with μ learned from feedback
        // instead of configured: after enough ghost-stalled windows the
        // decorator's μ must gate the cut-worsening plan.
        let sds = SdGrid::new(6, 6, 4);
        let owners: Vec<u32> = (0..36).map(|sd| u32::from(sds.coords(sd).0 >= 3)).collect();
        let own = Ownership::new(sds, owners, 2);
        let busy = vec![9.0, 1.0];
        let graph = std::sync::Arc::new(nlheat_partition::SdGraph::build(&sds, 1));
        let net = LbNetwork::from_spec(&NetSpec::cluster(), 1000).with_sd_graph(graph);
        let mut policy = LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.05).build();
        assert!(
            !policy.plan(&own, &metrics_for(&own, &busy), &net).is_noop(),
            "μ=0 must balance the skew"
        );
        for _ in 0..60 {
            policy.observe_ghost_stall(1.0); // every window fully stalled
        }
        assert!(
            policy.plan(&own, &metrics_for(&own, &busy), &net).is_noop(),
            "learned μ={} must refuse cut-worsening moves",
            policy.ghost_weight()
        );
    }

    #[test]
    fn adaptive_decorators_compose_both_ways() {
        // λ(μ(tree)) and μ(λ(tree)) both validate, build, and route each
        // feedback signal to its owning layer.
        let both = LbSpec::adaptive(LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.2), 0.1);
        both.validate();
        let mut policy = both.build();
        policy.observe_stall(0.9);
        policy.observe_ghost_stall(0.9);
        assert_eq!(policy.cost_weight(), 1.0, "outer λ engaged");
        assert_eq!(policy.ghost_weight(), 0.05, "inner μ engaged through λ");
        let other = LbSpec::adaptive_mu(LbSpec::adaptive(LbSpec::tree(0.0), 0.1), 0.2);
        other.validate();
        let mut policy = other.build();
        policy.observe_stall(0.9);
        policy.observe_ghost_stall(0.9);
        assert_eq!(policy.cost_weight(), 1.0, "inner λ engaged through μ");
        assert_eq!(policy.ghost_weight(), 0.05, "outer μ engaged");
    }

    #[test]
    #[should_panic(expected = "AdaptiveMu cannot wrap another AdaptiveMu")]
    fn nested_adaptive_mu_rejected() {
        let _ = LbSpec::adaptive_mu(LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.1), 0.1);
    }

    #[test]
    #[should_panic(expected = "AdaptiveLambda cannot wrap another AdaptiveLambda")]
    fn nested_adaptive_lambda_through_mu_rejected() {
        // the inert nesting must be caught through an interposed μ layer
        let _ = LbSpec::adaptive(
            LbSpec::adaptive_mu(LbSpec::adaptive(LbSpec::tree(0.0), 0.1), 0.2),
            0.1,
        );
    }

    #[test]
    #[should_panic(expected = "target_ghost_frac must be in (0, 1)")]
    fn adaptive_mu_rejects_bad_target() {
        let _ = LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn tree_rejects_negative_lambda() {
        let _ = LbSpec::tree(-1.0);
    }

    #[test]
    #[should_panic(expected = "tolerance must be finite and positive")]
    fn diffusion_rejects_zero_tolerance() {
        let _ = LbSpec::diffusion(0.0, 4);
    }

    #[test]
    #[should_panic(expected = "max_rounds must be at least 1")]
    fn diffusion_rejects_zero_rounds() {
        let _ = LbSpec::diffusion(1.0, 0);
    }

    #[test]
    #[should_panic(expected = "threshold must be at least 1")]
    fn greedy_rejects_zero_threshold() {
        let _ = LbSpec::greedy_steal(0);
    }

    #[test]
    #[should_panic(expected = "target_stall_frac must be in (0, 1)")]
    fn adaptive_rejects_bad_target() {
        let _ = LbSpec::adaptive(LbSpec::tree(0.0), 1.5);
    }

    #[test]
    #[should_panic(expected = "cannot wrap another AdaptiveLambda")]
    fn nested_adaptive_rejected() {
        // would be silently inert (outer λ clobbers inner every epoch)
        let _ = LbSpec::adaptive(LbSpec::adaptive(LbSpec::tree(0.0), 0.1), 0.1);
    }

    #[test]
    fn mu_zero_with_graph_attached_is_byte_identical() {
        // The tentpole acceptance criterion at unit scale: attaching the
        // SdGraph must not change a single move while μ = 0, for every
        // policy variant — the ghost machinery is pinned inert.
        let sds = SdGrid::new(6, 6, 4);
        let graph = std::sync::Arc::new(nlheat_partition::SdGraph::build(&sds, 2));
        let plain = two_rack_net(4 * 4 * 8 + 24);
        let with_graph = plain.clone().with_sd_graph(graph);
        for spec in all_specs() {
            let mut a = spec.build();
            let mut b = spec.build();
            sweep(|own, busy| {
                let m = metrics_for(own, busy);
                let pa = a.plan(own, &m, &plain);
                let pb = b.plan(own, &m, &with_graph);
                assert_eq!(pa.moves, pb.moves, "{}", spec.name());
                assert_eq!(pa.new_ownership, pb.new_ownership, "{}", spec.name());
            });
        }
    }

    #[test]
    fn huge_mu_gates_cut_worsening_moves() {
        // 6x6 halves: every borrowing move roughens the straight column
        // boundary, i.e. adds recurring ghost traffic. An enormous μ must
        // therefore gate the whole plan; μ = 0 keeps balancing.
        let sds = SdGrid::new(6, 6, 4);
        let owners: Vec<u32> = (0..36).map(|sd| u32::from(sds.coords(sd).0 >= 3)).collect();
        let own = Ownership::new(sds, owners, 2);
        let busy = vec![9.0, 1.0];
        let graph = std::sync::Arc::new(nlheat_partition::SdGraph::build(&sds, 1));
        let net = LbNetwork::from_spec(&NetSpec::cluster(), 1000).with_sd_graph(graph);
        let mut free = LbSpec::tree(0.0).build();
        assert!(
            !free.plan(&own, &metrics_for(&own, &busy), &net).is_noop(),
            "μ=0 must balance the skew"
        );
        let mut gated = LbSpec::tree(0.0).with_mu(1e12).build();
        assert!(
            gated.plan(&own, &metrics_for(&own, &busy), &net).is_noop(),
            "huge μ must refuse cut-worsening moves"
        );
    }

    #[test]
    fn ghost_weight_hooks_round_trip_and_steer_plans() {
        // The μ feedback seam (the future AdaptiveMu decorator's handle):
        // every concrete policy round-trips set_ghost_weight, the
        // decorator forwards to its inner policy, and a raised μ actually
        // changes planning — the same gate as the spec-level field.
        for spec in [
            LbSpec::tree(0.0),
            LbSpec::diffusion(1.0, 8),
            LbSpec::greedy_steal(1),
            LbSpec::adaptive(LbSpec::tree(0.0), 0.1),
            LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.1),
        ] {
            let mut policy = spec.with_mu(0.75).build();
            assert_eq!(policy.ghost_weight(), 0.75, "{}: spec μ", policy.name());
            policy.set_ghost_weight(2.5);
            assert_eq!(policy.ghost_weight(), 2.5, "{}: round trip", policy.name());
        }
        // steering: the huge_mu fixture, but with μ injected through the
        // hook after build instead of the spec
        let sds = SdGrid::new(6, 6, 4);
        let owners: Vec<u32> = (0..36).map(|sd| u32::from(sds.coords(sd).0 >= 3)).collect();
        let own = Ownership::new(sds, owners, 2);
        let busy = vec![9.0, 1.0];
        let graph = std::sync::Arc::new(nlheat_partition::SdGraph::build(&sds, 1));
        let net = LbNetwork::from_spec(&NetSpec::cluster(), 1000).with_sd_graph(graph);
        let mut policy = LbSpec::tree(0.0).build();
        assert!(!policy.plan(&own, &metrics_for(&own, &busy), &net).is_noop());
        policy.set_ghost_weight(1e12);
        assert!(
            policy.plan(&own, &metrics_for(&own, &busy), &net).is_noop(),
            "hook-injected μ must gate like the spec field"
        );
    }

    #[test]
    fn neighbour_graph_projects_real_adjacency_when_ghost_active() {
        // 8x1 row over 4 nodes in 2 racks: territory adjacency is the
        // chain 0-1-2-3. Ghost-active policies see exactly that chain
        // (cheapest class first); ghost-blind ones see the complete graph.
        let sds = SdGrid::new(8, 1, 4);
        let own = Ownership::new(sds, vec![0, 0, 1, 1, 2, 2, 3, 3], 4);
        let graph = std::sync::Arc::new(nlheat_partition::SdGraph::build(&sds, 1));
        let net = two_rack_net(1000).with_sd_graph(graph);
        let projected = net.neighbour_graph(&own, 1.0);
        assert_eq!(projected[0], vec![1]);
        assert_eq!(projected[1], vec![0, 2], "intra-rack peer first");
        assert_eq!(projected[2], vec![3, 1]);
        assert_eq!(projected[3], vec![2]);
        // μ = 0 falls back to the complete link-class graph
        assert_eq!(
            net.neighbour_graph(&own, 0.0),
            net.comm.neighbour_graph(4),
            "ghost-blind path must stay the PR-3 complete graph"
        );
        // an empty territory keeps every partner (bootstrap seeding)
        let lopsided = Ownership::new(sds, vec![0, 0, 0, 0, 0, 0, 1, 1], 3);
        let boot = net.neighbour_graph(&lopsided, 1.0);
        assert_eq!(boot[2], vec![0, 1], "empty node 2 reaches everyone");
        assert!(boot[0].contains(&2) && boot[1].contains(&2));
    }

    #[test]
    fn sd_tile_view_is_the_shared_wire_formula() {
        // both substrates derive sd_bytes through this one constructor
        let net = LbNetwork::for_sd_tiles(&NetSpec::cluster(), 25 * 25);
        assert_eq!(net.sd_bytes, SdBytes::Uniform(25 * 25 * 8 + 24));
        assert_eq!(net.sd_bytes.get(0), 25 * 25 * 8 + 24);
        assert!(!net.comm.is_free());
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn adaptive_validates_its_inner_spec() {
        // constructed via the struct literal so only validate() can catch it
        let spec = LbSpec::AdaptiveLambda {
            inner: Box::new(LbSpec::Tree {
                lambda: f64::NAN,
                mu: 0.0,
            }),
            target_stall_frac: 0.1,
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "mu must be finite")]
    fn negative_mu_rejected() {
        let _ = LbSpec::tree(0.0).with_mu(-0.5);
    }

    #[test]
    #[should_panic(expected = "mu must be finite")]
    fn nan_mu_rejected_by_validate() {
        let spec = LbSpec::GreedySteal {
            threshold: 1,
            mu: f64::NAN,
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "period must be at least 1")]
    fn zero_period_rejected() {
        let _ = LbSchedule::every(0);
    }
}
