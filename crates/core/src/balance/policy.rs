//! The load-balancing policy layer: one record, one planner.
//!
//! The paper contributes *one* rebalancing strategy — the Algorithm-1
//! dependency-tree planner — but which strategy wins depends on the
//! workload and the interconnect, so both execution substrates select the
//! strategy through the same seam they already use for network models
//! (`NetSpec`): an [`LbSpec`] record instantiating one [`Planner`]. The
//! planner maps one epoch's measured state ([`LoadMetrics`] +
//! [`Ownership`] + the planning-grade network view in [`LbNetwork`]) to a
//! [`MigrationPlan`] and takes the substrate's stall feedback through
//! [`LbPolicy::observe_stall`] / [`LbPolicy::observe_ghost_stall`].
//!
//! Every plan is **single-hop**: within one plan no SD appears twice and
//! every move's `from` is the SD's pre-epoch owner. The distributed fabric
//! ships all migrating tiles concurrently and would deadlock on a chained
//! plan, so every planner routes its raw transfer trace through the same
//! collapse (`balance::algorithm::finish_plan`) the tree planner uses —
//! the invariant is earned structurally and property-tested over the
//! whole roster.
//!
//! An [`LbSpec`] is a [`Leaf`] × the one [`MoveWeights`] × four options,
//! each a field — so it is held at most once, and the order its
//! constructors were applied in is not part of the value:
//!
//! * [`Leaf::Tree`] — the paper's Algorithm 1 ([`plan_rebalance`]).
//! * [`Leaf::Diffusion`] — first-order pairwise load exchange
//!   (dimension-exchange diffusion, cf. Cybenko 1989 and Demirel &
//!   Sbalzarini, arXiv:1308.0148) over the neighbour graph induced by the
//!   link classes, cheap links swept first.
//! * [`Leaf::GreedySteal`] — work-stealing-style greedy offload
//!   (cf. Fernandes et al., arXiv:2401.04494): the most overloaded rank
//!   repeatedly sheds one SD to its cheapest underloaded neighbour.
//! * [`LbSpec::adaptive`] — closes the "λ adapts online" loop: λ is
//!   nudged from the measured migration-stall fraction of previous epochs.
//! * [`LbSpec::adaptive_mu`] — the μ analogue: the same controller
//!   steering μ from the measured ghost-stall fraction, so the
//!   recurring-traffic gate is steered online instead of hand-picked.
//! * [`LbSpec::hierarchical`] — the three-level (racks → nodes → ranks)
//!   memory-aware planner of [`crate::balance::hier`], near-linear plan
//!   time at 10k-rank scale; on a degenerate hierarchy without memory
//!   capacities the leaf plans the epoch.
//! * [`LbSpec::repartition`] — the cut-drift monitor of
//!   [`crate::balance::repart`] in front of all of the above.
//!
//! Every candidate move is scored through the one [`MoveScore`] at the
//! record's [`MoveWeights`]; the planner owns the live pair and the two
//! controllers nudge it in place.

use crate::balance::algorithm::{finish_plan, plan_rebalance, MigrationPlan, Move};
use crate::balance::hier::{hierarchy_is_degenerate, plan_hierarchical};
use crate::balance::power::LoadMetrics;
use crate::balance::repart::{drop_moves_onto_inactive, DriftInfo, Monitor};
use crate::balance::score::{MoveScore, MoveWeights};
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
    /// Wire bytes of each migrating SD tile (payload + framing).
    pub sd_bytes: u64,
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
    /// fixed-membership behaviour. Only the monitor of
    /// [`LbSpec::repartition`] reads it: it evacuates inactive ranks and
    /// drops moves onto them from the incremental plans. Every incremental
    /// planner is membership-blind, which is why elastic scenarios require
    /// the monitor.
    pub active: Option<Arc<Vec<bool>>>,
}

impl LbNetwork {
    pub fn new(comm: CommCost, sd_bytes: u64) -> Self {
        LbNetwork {
            comm,
            sd_bytes,
            sd_graph: None,
            memory_bytes: None,
            sd_footprint: None,
            active: None,
        }
    }

    /// Free network: every cost term vanishes, λ/μ gates are inert.
    pub fn free() -> Self {
        LbNetwork::new(CommCost::free(), 0)
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
    pub fn from_spec(spec: &NetSpec, sd_bytes: u64) -> Self {
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

    /// The node neighbour graph a policy exchanges load over, each list
    /// ordered cheapest link class first (ties by id).
    ///
    /// With an active ghost term (`ghost` is [`MoveScore::ghost_graph`]:
    /// `Some` iff μ can affect the plan) this is the *real* exchange
    /// adjacency: node pairs whose
    /// territories trade ghost patches under `own`, projected from the SD
    /// graph — the same adjacency the partitioner's edge cut counts — plus
    /// every pair involving an empty territory (which has no ghost edges
    /// but still needs bootstrap seeding). Ghost-blind (`None`) it falls
    /// back to [`CommCost::neighbour_graph`]'s complete
    /// graph, keeping μ = 0 plans byte-identical to the pre-ghost-aware
    /// planner: a policy may discover mid-plan that two initially
    /// non-adjacent territories became adjacent, which a fixed projected
    /// adjacency cannot represent, so the degenerate case must not use it.
    /// For μ > 0 that mid-plan emergence is deliberately ignored — a
    /// transfer between non-adjacent territories cannot be realized
    /// anyway (no shared frontier), and any adjacency a plan creates is
    /// in the projection of the *next* epoch, so restricting the edge set
    /// costs at most extra epochs, never reachability.
    pub fn neighbour_graph(&self, own: &Ownership, ghost: Option<&SdGraph>) -> Vec<Vec<NodeId>> {
        let Some(graph) = ghost else {
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
/// [`MigrationPlan`] out — what [`LbEpoch`](crate::balance::LbEpoch)
/// calls. [`Planner`] is the one production implementor; the trait is the
/// seam the epoch driver's unit tests script a fake through.
///
/// A policy is stateful across epochs (the steered weights, the monitor),
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
    /// empty) — what the λ controller steers on.
    fn observe_stall(&mut self, stall_frac: f64);

    /// Pre-plan feedback: the fraction of the last balancing window the
    /// substrate spent stalled waiting for ghost-zone arrivals (the
    /// recurring cost an ownership's edge cut causes, as actually
    /// experienced by the runtime) — what the μ controller steers on.
    fn observe_ghost_stall(&mut self, ghost_frac: f64);

    /// What the cut-drift monitor saw at the last epoch; `None` without
    /// one ([`LbSpec::repartition`]). The substrates copy it into
    /// [`EpochTrace`](crate::balance::EpochTrace) for the A12 plots.
    fn drift_info(&self) -> Option<DriftInfo>;
}

/// The incremental planner at the bottom of an [`LbSpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Leaf {
    /// The paper's Algorithm-1 dependency-tree planner with the λ-weighted
    /// communication-cost gate and the μ-weighted ghost-traffic gate;
    /// zero weights are the count-based paper algorithm.
    Tree,
    /// First-order diffusion: sweep the neighbour graph (cheap edges
    /// first) and settle half of each pair's imbalance difference, for at
    /// most `max_rounds` rounds or until every node is within `tolerance`
    /// SDs of its expected share.
    Diffusion { tolerance: f64, max_rounds: usize },
    /// Greedy offload: while some rank's overload is at least `threshold`
    /// SDs, the most overloaded rank sheds one SD to its cheapest
    /// underloaded neighbour.
    GreedySteal { threshold: usize },
}

/// The parameters of the cut-drift monitor ([`LbSpec::repartition`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RepartitionSpec {
    /// Replan once `live_cut / fresh_cut` exceeds this (`f64::INFINITY`
    /// = never: the monitor is transparent absent membership events).
    pub drift_threshold: f64,
    /// Recompute the fresh cut every this many balancing epochs.
    pub period: usize,
    /// Per-epoch migration-payload budget for staged diffs
    /// (`u64::MAX` = ship the whole diff at once).
    pub max_bytes_per_epoch: u64,
}

/// Serde-free policy selection of a `Scenario` (via [`LbSchedule`]),
/// mirroring how `NetSpec` selects a network rung: a plain record, so
/// constructor orders that plan identically compare equal. Build it with
/// the constructors below; a hand-written literal is checked by
/// [`LbSpec::validate`] like everything else.
#[derive(Debug, Clone, PartialEq)]
pub struct LbSpec {
    /// The incremental planner.
    pub leaf: Leaf,
    /// The λ/μ every candidate move is scored with — where the two
    /// controllers below start from.
    pub weights: MoveWeights,
    /// Plan through [`plan_hierarchical`]: settle imbalance between racks,
    /// then between the nodes of each rack, then between the ranks of each
    /// node, each level over its own coarse group graph — near-linear plan
    /// time where the flat planner goes superlinear. When the
    /// [`LbNetwork`] carries memory capacities, every level refuses
    /// destination-overflowing moves. On a degenerate hierarchy (no
    /// [`nlheat_netmodel::TopologySpec`], or a single rack of single-rank
    /// nodes) without capacities `leaf` plans the epoch instead; both plan
    /// at `weights`, so the two paths cannot drift apart.
    pub hierarchical: bool,
    /// The λ controller's target: after each epoch nudge λ so the measured
    /// migration-stall fraction approaches it (doubling λ when migrations
    /// stall more than the target, halving it when they stall less than
    /// half of it). `None` = λ stays as configured.
    pub adaptive_lambda: Option<f64>,
    /// The μ controller's target, the same loop on the measured
    /// ghost-stall fraction. `None` = μ stays as configured.
    pub adaptive_mu: Option<f64>,
    /// The cut-drift monitor ([`crate::balance::repart`]): plan as above
    /// while the live ownership's ghost cut stays within `drift_threshold`
    /// of a freshly computed capacity-aware k-way cut; past the threshold
    /// — or on any [`crate::scenario::ClusterEvent`] membership change —
    /// globally repartition the live [`SdGraph`] and stage the old→new
    /// diff as budgeted single-hop plans.
    pub repartition: Option<RepartitionSpec>,
}

impl Default for LbSpec {
    /// The paper's count-based Algorithm 1.
    fn default() -> Self {
        LbSpec {
            leaf: Leaf::Tree,
            weights: MoveWeights::default(),
            hierarchical: false,
            adaptive_lambda: None,
            adaptive_mu: None,
            repartition: None,
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
        LbSpec {
            weights: MoveWeights::new(lambda, 0.0),
            ..LbSpec::default()
        }
    }

    /// Diffusion with the given stop condition (`lambda = mu = 0`).
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn diffusion(tolerance: f64, max_rounds: usize) -> Self {
        LbSpec {
            leaf: Leaf::Diffusion {
                tolerance,
                max_rounds,
            },
            ..LbSpec::default()
        }
        .validated()
    }

    /// Greedy stealing with the given overload threshold
    /// (`lambda = mu = 0`).
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn greedy_steal(threshold: usize) -> Self {
        LbSpec {
            leaf: Leaf::GreedySteal { threshold },
            ..LbSpec::default()
        }
        .validated()
    }

    /// Weigh each candidate move's recurring ghost-traffic delta by `mu`.
    /// The term only bites when the substrate attaches an [`SdGraph`] to
    /// its [`LbNetwork`]; both execution substrates always do.
    ///
    /// # Panics
    /// Panics on negative or non-finite `mu`.
    pub fn with_mu(mut self, mu: f64) -> Self {
        self.weights.mu = mu;
        self.validated()
    }

    /// `inner` planned hierarchically, weighing migration traffic by
    /// `lambda` and ghost-blind: the weights become `(lambda, 0)` — add μ
    /// via [`LbSpec::with_mu`].
    ///
    /// # Panics
    /// Panics when `inner` is hierarchical already, and on invalid
    /// parameters — see [`LbSpec::validate`].
    pub fn hierarchical(mut inner: LbSpec, lambda: f64) -> Self {
        assert!(!inner.hierarchical, "the spec is hierarchical already");
        inner.hierarchical = true;
        inner.weights = MoveWeights { lambda, mu: 0.0 };
        inner.validated()
    }

    /// `inner` with the λ controller on.
    ///
    /// # Panics
    /// Panics when `inner` has one already (the second target would
    /// silently replace the first), and on invalid parameters — see
    /// [`LbSpec::validate`].
    pub fn adaptive(mut inner: LbSpec, target_stall_frac: f64) -> Self {
        assert!(
            inner.adaptive_lambda.is_none(),
            "AdaptiveLambda cannot wrap another AdaptiveLambda"
        );
        inner.adaptive_lambda = Some(target_stall_frac);
        inner.validated()
    }

    /// `inner` with the μ controller on.
    ///
    /// # Panics
    /// Panics when `inner` has one already, and on invalid parameters —
    /// see [`LbSpec::validate`].
    pub fn adaptive_mu(mut inner: LbSpec, target_ghost_frac: f64) -> Self {
        assert!(
            inner.adaptive_mu.is_none(),
            "AdaptiveMu cannot wrap another AdaptiveMu"
        );
        inner.adaptive_mu = Some(target_ghost_frac);
        inner.validated()
    }

    /// `inner` behind the cut-drift monitor.
    ///
    /// # Panics
    /// Panics when `inner` has one already, and on invalid parameters —
    /// see [`LbSpec::validate`].
    pub fn repartition(
        mut inner: LbSpec,
        drift_threshold: f64,
        period: usize,
        max_bytes_per_epoch: u64,
    ) -> Self {
        assert!(
            inner.repartition.is_none(),
            "Repartition cannot wrap another Repartition"
        );
        inner.repartition = Some(RepartitionSpec {
            drift_threshold,
            period,
            max_bytes_per_epoch,
        });
        inner.validated()
    }

    fn validated(self) -> Self {
        self.validate();
        self
    }

    /// The policy's ablation label: the outermost thing it does.
    pub fn name(&self) -> &'static str {
        match self.leaf {
            _ if self.repartition.is_some() => "repartition",
            _ if self.adaptive_lambda.is_some() => "adaptive-lambda",
            _ if self.adaptive_mu.is_some() => "adaptive-mu",
            _ if self.hierarchical => "hierarchical",
            Leaf::Tree => "tree",
            Leaf::Diffusion { .. } => "diffusion",
            Leaf::GreedySteal { .. } => "greedy-steal",
        }
    }

    /// Reject degenerate parameters at configuration time — like a bad
    /// `NetSpec`, a bad policy parameter must fail on the caller's thread,
    /// not on a driver thread mid-run (where a panic at the first LB epoch
    /// deadlocks the cluster).
    ///
    /// # Panics
    /// Panics on: non-finite or negative `lambda` or `mu`
    /// ([`MoveWeights::validate`]); non-finite or non-positive
    /// `tolerance`; `max_rounds` of 0; `threshold` of 0;
    /// `target_stall_frac` or `target_ghost_frac` outside `(0, 1)`; a NaN
    /// or non-positive `drift_threshold`; a repartition `period` of 0; or
    /// `max_bytes_per_epoch` of 0.
    pub fn validate(&self) {
        self.weights.validate();
        match self.leaf {
            Leaf::Tree => {}
            Leaf::Diffusion {
                tolerance,
                max_rounds,
            } => {
                assert!(
                    tolerance > 0.0 && tolerance.is_finite(),
                    "diffusion tolerance must be finite and positive, got {tolerance}"
                );
                assert!(max_rounds >= 1, "diffusion max_rounds must be at least 1");
            }
            Leaf::GreedySteal { threshold } => {
                assert!(threshold >= 1, "greedy-steal threshold must be at least 1");
            }
        }
        for (what, target) in [
            ("target_stall_frac", self.adaptive_lambda),
            ("target_ghost_frac", self.adaptive_mu),
        ] {
            if let Some(t) = target {
                assert!(t > 0.0 && t < 1.0, "{what} must be in (0, 1), got {t}");
            }
        }
        if let Some(monitor) = self.repartition {
            assert!(
                monitor.drift_threshold > 0.0,
                "drift_threshold must be positive (infinity = never replan), got {}",
                monitor.drift_threshold
            );
            assert!(
                monitor.period >= 1,
                "repartition period must be at least 1 epoch"
            );
            assert!(
                monitor.max_bytes_per_epoch >= 1,
                "max_bytes_per_epoch must be positive (u64::MAX = unbounded)"
            );
        }
    }

    /// Instantiate the planner for one run.
    ///
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn build(&self) -> Box<dyn LbPolicy> {
        Box::new(Planner::new(self))
    }
}

/// When to balance and how — the one load-balancing configuration, read
/// by every substrate through `Scenario`.
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
// The planner
// ---------------------------------------------------------------------

/// What an [`LbSpec`] builds — the one production [`LbPolicy`]. An epoch
/// is the monitor's staged replan when it has one, else the incremental
/// plan: hierarchical where asked for and meaningful, else the leaf's.
pub struct Planner {
    /// The record; its `weights` are the live pair the controllers nudge.
    spec: LbSpec,
    /// The cut-drift monitor's state, when the record asks for one.
    pub(super) monitor: Option<Monitor>,
}

impl Planner {
    /// # Panics
    /// Panics on invalid parameters — see [`LbSpec::validate`].
    pub fn new(spec: &LbSpec) -> Self {
        spec.validate();
        Planner {
            spec: spec.clone(),
            monitor: spec.repartition.map(Monitor::new),
        }
    }

    /// The λ/μ the next plan scores moves with.
    pub fn weights(&self) -> MoveWeights {
        self.spec.weights
    }

    fn incremental(
        &self,
        own: &Ownership,
        metrics: &LoadMetrics,
        net: &LbNetwork,
    ) -> MigrationPlan {
        let weights = self.spec.weights;
        // a hierarchy with nothing coarser than ranks is the leaf's to
        // plan, unless memory capacities need the gated level machinery
        let flat =
            || hierarchy_is_degenerate(own.n_nodes(), &net.comm) && net.memory_bytes.is_none();
        if self.spec.hierarchical && !flat() {
            return plan_hierarchical(own, metrics, net, weights);
        }
        match self.spec.leaf {
            Leaf::Tree => plan_rebalance(own, metrics, net, weights),
            Leaf::Diffusion {
                tolerance,
                max_rounds,
            } => plan_diffusion(own, metrics, net, weights, tolerance, max_rounds),
            Leaf::GreedySteal { threshold } => {
                plan_greedy_steal(own, metrics, net, weights, threshold)
            }
        }
    }
}

impl LbPolicy for Planner {
    fn name(&self) -> &'static str {
        self.spec.name()
    }

    fn plan(&mut self, own: &Ownership, metrics: &LoadMetrics, net: &LbNetwork) -> MigrationPlan {
        let Some(monitor) = &mut self.monitor else {
            return self.incremental(own, metrics, net);
        };
        if let Some(staged) = monitor.replan(own, metrics, net) {
            return staged;
        }
        // the incremental planners are membership-blind
        drop_moves_onto_inactive(self.incremental(own, metrics, net), own, metrics, net)
    }

    fn observe_stall(&mut self, stall_frac: f64) {
        if let Some(target) = self.spec.adaptive_lambda {
            nudge(&mut self.spec.weights.lambda, 1.0, target, stall_frac);
        }
    }

    fn observe_ghost_stall(&mut self, ghost_frac: f64) {
        if let Some(target) = self.spec.adaptive_mu {
            nudge(&mut self.spec.weights.mu, 0.05, target, ghost_frac);
        }
    }

    fn drift_info(&self) -> Option<DriftInfo> {
        self.monitor.as_ref().map(Monitor::drift_info)
    }
}

/// A steered weight is clamped here so [`MoveWeights::validate`] can never
/// see a non-finite one, no matter how many stalled epochs pile up.
const WEIGHT_MAX: f64 = 1e9;
/// Below this, a steered weight snaps to exactly 0 so the planner
/// degenerates to its count-based / ghost-blind behaviour instead of
/// carrying float dust.
const WEIGHT_MIN: f64 = 1e-6;

/// The one feedback controller, on one of the [`MoveWeights`]: doubles
/// `weight` when its stall signal exceeded the target fraction over the
/// last window, halves it when the signal stayed under half the target;
/// the dead band in between holds the weight steady, avoiding oscillation
/// around the setpoint. A disengaged weight restarts at `engage`, where it
/// shapes plans instead of freezing them: λ at 1 (seconds against
/// seconds), μ at 0.05, the bottom of the A9 shaping band.
fn nudge(weight: &mut f64, engage: f64, target_frac: f64, stall_frac: f64) {
    if !stall_frac.is_finite() || stall_frac < 0.0 {
        return;
    }
    if stall_frac > target_frac {
        *weight = if *weight <= 0.0 {
            engage
        } else {
            (*weight * 2.0).min(WEIGHT_MAX)
        };
    } else if stall_frac < target_frac * 0.5 {
        *weight *= 0.5;
        if *weight < WEIGHT_MIN {
            *weight = 0.0;
        }
    }
}

/// [`Leaf::Diffusion`]: first-order pairwise load exchange.
fn plan_diffusion(
    own: &Ownership,
    metrics: &LoadMetrics,
    net: &LbNetwork,
    weights: MoveWeights,
    tolerance: f64,
    max_rounds: usize,
) -> MigrationPlan {
    let score = MoveScore::new(weights, metrics, net);
    let mut imbalance = metrics.imbalance.clone();
    let mut working = own.clone();
    let mut raw: Vec<Move> = Vec::new();
    // Undirected exchange edges from the neighbour graph (the real
    // ghost-exchange adjacency when μ is active, the complete
    // link-class graph otherwise), cheapest class first (ties by ids)
    // so imbalance settles within racks before any of it crosses them.
    let mut edges: Vec<(NodeId, NodeId)> = Vec::new();
    for (i, nbs) in net
        .neighbour_graph(own, score.ghost_graph())
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
    for _round in 0..max_rounds {
        let worst = imbalance.iter().map(|v| v.abs()).max().unwrap_or(0);
        if (worst as f64) <= tolerance {
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
            let realized = score.realize(&mut working, &mut raw, src, dst, amount);
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
    finish_plan(metrics.clone(), working, raw, net)
}

/// [`Leaf::GreedySteal`]: max-loaded rank sheds to its cheapest
/// underloaded neighbour, one SD at a time.
fn plan_greedy_steal(
    own: &Ownership,
    metrics: &LoadMetrics,
    net: &LbNetwork,
    weights: MoveWeights,
    threshold: usize,
) -> MigrationPlan {
    let n = own.n_nodes() as usize;
    // no overload reaches a threshold past `i64::MAX`: never steal
    let threshold = i64::try_from(threshold).unwrap_or(i64::MAX);
    let score = MoveScore::new(weights, metrics, net);
    let mut imbalance = metrics.imbalance.clone();
    let mut working = own.clone();
    let mut raw: Vec<Move> = Vec::new();
    let graph = net.neighbour_graph(own, score.ghost_graph());
    // A rank whose every candidate fails (no reachable frontier, or
    // fully gated) is parked so the loop always terminates: each
    // iteration either realizes a move (shrinking Σ|imbalance|) or
    // parks one rank.
    let mut parked = vec![false; n];
    while let Some(src) = (0..n)
        .filter(|&i| !parked[i] && -imbalance[i] >= threshold)
        .min_by_key(|&i| (imbalance[i], i))
    {
        let mut moved = false;
        for &dst in &graph[src] {
            if imbalance[dst as usize] > 0
                && score.realize(&mut working, &mut raw, src as NodeId, dst, 1) == 1
            {
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
    finish_plan(metrics.clone(), working, raw, net)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        // The policy glue must hand the planner exactly the spec's weights
        // and the epoch's network: `LbSpec::tree(λ)` through the policy
        // layer is `plan_rebalance` at `(λ, 0)`, move for move, at λ = 0
        // and λ > 0 alike.
        let net = two_rack_net(1 << 12);
        for lambda in [0.0, 0.5, 2.0] {
            let mut policy = LbSpec::tree(lambda).build();
            sweep(|own, busy| {
                let metrics = metrics_for(own, busy);
                let direct = plan_rebalance(own, &metrics, &net, MoveWeights::new(lambda, 0.0));
                let via_policy = policy.plan(own, &metrics, &net);
                assert_eq!(direct.moves, via_policy.moves, "λ={lambda}");
                assert_eq!(direct.new_ownership, via_policy.new_ownership);
                assert_eq!(direct.comm, via_policy.comm);
            });
        }
        // and over a free network the λ=0 tree is the count-based planner
        let mut policy = LbSpec::tree(0.0).build();
        sweep(|own, busy| {
            let metrics = metrics_for(own, busy);
            let seed = plan_rebalance(own, &metrics, &LbNetwork::free(), MoveWeights::default());
            let via_policy = policy.plan(own, &metrics, &LbNetwork::free());
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
    fn greedy_steal_threshold_above_i64_max_never_steals() {
        // 9/7 split of 16 SDs, imbalance −1/+1: `usize::MAX as i64` is −1,
        // which every rank's overload reaches
        let sds = SdGrid::new(16, 1, 4);
        let owners: Vec<u32> = (0..16).map(|i| u32::from(i >= 9)).collect();
        let own = Ownership::new(sds, owners, 2);
        let metrics = metrics_for(&own, &symmetric_busy(&own));
        for (threshold, moved) in [(1, 1), (5, 0), (usize::MAX, 0)] {
            let mut policy = LbSpec::greedy_steal(threshold).build();
            let plan = policy.plan(&own, &metrics, &LbNetwork::free());
            assert_eq!(plan.moves.len(), moved, "threshold {threshold}");
        }
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
        let mut policy = Planner::new(&LbSpec::adaptive(LbSpec::tree(0.0), 0.1));
        assert_eq!(policy.weights().lambda, 0.0, "starts from the spec's λ");
        policy.observe_stall(0.5); // stalled well above target: engage gate
        assert_eq!(policy.weights().lambda, 1.0);
        policy.observe_stall(0.5);
        assert_eq!(policy.weights().lambda, 2.0, "doubles while stalling");
        policy.observe_stall(0.07); // inside the dead band: hold
        assert_eq!(policy.weights().lambda, 2.0);
        policy.observe_stall(0.01); // below half target: relax
        assert_eq!(policy.weights().lambda, 1.0);
        for _ in 0..40 {
            policy.observe_stall(0.0);
        }
        assert_eq!(policy.weights().lambda, 0.0, "λ decays to exactly 0");
        // garbage feedback is ignored
        policy.observe_stall(f64::NAN);
        policy.observe_stall(-1.0);
        assert_eq!(policy.weights().lambda, 0.0);
        // the ghost-stall signal is the other controller's, and a spec
        // without a controller keeps its weights whatever it is told
        policy.observe_ghost_stall(0.9);
        assert_eq!(policy.weights(), MoveWeights::default());
        let mut fixed = Planner::new(&LbSpec::tree(0.5).with_mu(0.25));
        fixed.observe_stall(0.9);
        fixed.observe_ghost_stall(0.9);
        assert_eq!(fixed.weights(), MoveWeights::new(0.5, 0.25));
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
            LbSpec {
                leaf: Leaf::GreedySteal { threshold: 2 },
                ..LbSpec::default()
            }
        );
        assert_eq!(LbSchedule::every(3).spec, LbSpec::tree(0.0));
        assert_eq!(LbSpec::default().leaf, Leaf::Tree);
        // with_mu writes the one pair, whatever else the record holds
        assert_eq!(
            LbSpec::tree(1.0).with_mu(0.5).weights,
            MoveWeights::new(1.0, 0.5)
        );
        assert_eq!(
            LbSpec::adaptive(LbSpec::greedy_steal(1), 0.1).with_mu(2.0),
            LbSpec {
                leaf: Leaf::GreedySteal { threshold: 1 },
                weights: MoveWeights::new(0.0, 2.0),
                adaptive_lambda: Some(0.1),
                ..LbSpec::default()
            }
        );
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
        // with several options on, a fixed precedence: repartition,
        // adaptive-lambda, adaptive-mu, hierarchical, leaf
        let spec = LbSpec::hierarchical(LbSpec::greedy_steal(1), 0.0);
        assert_eq!(LbSpec::adaptive_mu(spec.clone(), 0.2).name(), "adaptive-mu");
        let spec = LbSpec::adaptive(LbSpec::adaptive_mu(spec, 0.2), 0.1);
        assert_eq!(spec.name(), "adaptive-lambda");
        let spec = LbSpec::repartition(spec, 2.0, 4, u64::MAX);
        assert_eq!(spec.name(), "repartition");
        assert_eq!(spec.build().name(), "repartition");
    }

    #[test]
    fn constructor_order_is_not_part_of_the_value() {
        let x = || LbSpec::diffusion(1.0, 8).with_mu(0.25);
        let a = LbSpec::adaptive(LbSpec::adaptive_mu(x(), 0.2), 0.1);
        let b = LbSpec::adaptive_mu(LbSpec::adaptive(x(), 0.1), 0.2);
        assert_eq!(a, b);
        assert_eq!(a.name(), b.name());
        let a = LbSpec::repartition(LbSpec::adaptive(x(), 0.1), 2.0, 4, 1 << 20);
        let b = LbSpec::adaptive(LbSpec::repartition(x(), 2.0, 4, 1 << 20), 0.1);
        assert_eq!(a, b);
        assert_eq!(a.name(), b.name());
        // the hierarchy used to demand a bare leaf below it
        let a = LbSpec::hierarchical(LbSpec::adaptive(LbSpec::tree(0.0), 0.1), 0.5);
        let b = LbSpec::adaptive(LbSpec::hierarchical(LbSpec::tree(0.0), 0.5), 0.1);
        assert_eq!(a, b);
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
        assert_eq!(spec.leaf, Leaf::Tree);
        assert_eq!(spec.weights, MoveWeights::new(0.5, 0.25));
        assert_eq!(
            spec.repartition,
            Some(RepartitionSpec {
                drift_threshold: 2.0,
                period: 1,
                max_bytes_per_epoch: u64::MAX
            })
        );
        let policy = Planner::new(&spec);
        assert_eq!(policy.weights(), MoveWeights::new(0.5, 0.25));
        assert!(policy.drift_info().is_some(), "monitor must report");
        // a controller beside the monitor does not hide the drift info
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
        // the hierarchy has no weights of its own: its λ and with_mu's μ
        // land in the record's one pair — replacing whatever the leaf was
        // built with — which the level machinery and the leaf both read
        let spec = LbSpec::hierarchical(LbSpec::tree(0.7).with_mu(0.1), 2.0);
        assert!(spec.hierarchical);
        assert_eq!(spec.leaf, Leaf::Tree);
        assert_eq!(spec.weights, MoveWeights::new(2.0, 0.0));
        let spec = spec.with_mu(0.5);
        assert_eq!(spec.weights, MoveWeights::new(2.0, 0.5));
        assert_eq!(Planner::new(&spec).weights(), MoveWeights::new(2.0, 0.5));
    }

    #[test]
    #[should_panic(expected = "the spec is hierarchical already")]
    fn hierarchical_rejects_nested_hierarchy() {
        let _ = LbSpec::hierarchical(LbSpec::hierarchical(LbSpec::tree(0.0), 0.0), 0.0);
    }

    #[test]
    fn adaptive_decorator_can_wrap_hierarchical() {
        // the controller steers the pair the level machinery plans at
        let spec = LbSpec::adaptive(LbSpec::hierarchical(LbSpec::tree(0.0), 0.0), 0.1);
        spec.validate();
        let mut policy = Planner::new(&spec);
        policy.observe_stall(0.9);
        assert_eq!(policy.weights().lambda, 1.0, "λ engaged");
    }

    #[test]
    fn adaptive_mu_tracks_ghost_stall_feedback() {
        let mut policy = Planner::new(&LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.2));
        assert_eq!(policy.weights().mu, 0.0, "starts from the spec's μ");
        policy.observe_ghost_stall(0.5); // well above target: engage gate
        assert_eq!(policy.weights().mu, 0.05, "engages at the shaping band");
        policy.observe_ghost_stall(0.5);
        assert_eq!(policy.weights().mu, 0.1, "doubles while stalling");
        policy.observe_ghost_stall(0.15); // inside the dead band: hold
        assert_eq!(policy.weights().mu, 0.1);
        policy.observe_ghost_stall(0.05); // below half target: relax
        assert_eq!(policy.weights().mu, 0.05);
        for _ in 0..40 {
            policy.observe_ghost_stall(0.0);
        }
        assert_eq!(policy.weights().mu, 0.0, "μ decays to exactly 0");
        // garbage feedback is ignored
        policy.observe_ghost_stall(f64::NAN);
        policy.observe_ghost_stall(-1.0);
        assert_eq!(policy.weights().mu, 0.0);
        // the migration-stall signal is the other controller's
        policy.observe_stall(0.9);
        assert_eq!(policy.weights(), MoveWeights::default());
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
        let mut policy = Planner::new(&LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.05));
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
            policy.weights().mu
        );
    }

    #[test]
    fn adaptive_decorators_compose_both_ways() {
        // λ(μ(tree)) — the same record as μ(λ(tree)), see
        // `constructor_order_is_not_part_of_the_value` — holds both
        // targets, and each feedback signal reaches its own controller.
        let both = LbSpec::adaptive(LbSpec::adaptive_mu(LbSpec::tree(0.0), 0.2), 0.1);
        both.validate();
        assert_eq!(
            (both.adaptive_lambda, both.adaptive_mu),
            (Some(0.1), Some(0.2))
        );
        let mut policy = Planner::new(&both);
        policy.observe_stall(0.9);
        assert_eq!(policy.weights(), MoveWeights::new(1.0, 0.0), "λ engaged");
        policy.observe_ghost_stall(0.9);
        assert_eq!(policy.weights(), MoveWeights::new(1.0, 0.05), "μ engaged");
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
    fn with_mu_reaches_the_planner_through_every_option() {
        // one pair per record: whatever options are on, the planner scores
        // moves at the μ `with_mu` wrote (its gate is pinned by
        // `huge_mu_gates_cut_worsening_moves`)
        for spec in all_specs() {
            let lambda = spec.weights.lambda;
            let planner = Planner::new(&spec.with_mu(0.75));
            assert_eq!(planner.weights(), MoveWeights::new(lambda, 0.75));
        }
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
        let ghost = net.sd_graph.as_deref();
        let projected = net.neighbour_graph(&own, ghost);
        assert_eq!(projected[0], vec![1]);
        assert_eq!(projected[1], vec![0, 2], "intra-rack peer first");
        assert_eq!(projected[2], vec![3, 1]);
        assert_eq!(projected[3], vec![2]);
        // ghost-blind falls back to the complete link-class graph
        assert_eq!(
            net.neighbour_graph(&own, None),
            net.comm.neighbour_graph(4),
            "ghost-blind path must stay the PR-3 complete graph"
        );
        // an empty territory keeps every partner (bootstrap seeding)
        let lopsided = Ownership::new(sds, vec![0, 0, 0, 0, 0, 0, 1, 1], 3);
        let boot = net.neighbour_graph(&lopsided, ghost);
        assert_eq!(boot[2], vec![0, 1], "empty node 2 reaches everyone");
        assert!(boot[0].contains(&2) && boot[1].contains(&2));
    }

    #[test]
    fn sd_tile_view_is_the_shared_wire_formula() {
        // both substrates derive sd_bytes through this one constructor
        let net = LbNetwork::for_sd_tiles(&NetSpec::cluster(), 25 * 25);
        assert_eq!(net.sd_bytes, 25 * 25 * 8 + 24);
        assert!(!net.comm.is_free());
    }

    #[test]
    #[should_panic(expected = "lambda must be finite")]
    fn adaptive_validates_its_inner_spec() {
        // constructed via the struct literal so only validate() can catch it
        let spec = LbSpec {
            weights: MoveWeights {
                lambda: f64::NAN,
                mu: 0.0,
            },
            adaptive_lambda: Some(0.1),
            ..LbSpec::default()
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
        let spec = LbSpec {
            leaf: Leaf::GreedySteal { threshold: 1 },
            weights: MoveWeights {
                lambda: 0.0,
                mu: f64::NAN,
            },
            ..LbSpec::default()
        };
        spec.validate();
    }

    #[test]
    #[should_panic(expected = "period must be at least 1")]
    fn zero_period_rejected() {
        let _ = LbSchedule::every(0);
    }
}
