//! Per-layer probes of the `dist_*` workloads: timed calls into each
//! layer's public functions on the workload's own shapes, scaled by the
//! per-step counts the last run reported. Each `est_ms_per_step` is what
//! that layer would cost a step with nothing else contending.

use super::ns_per_call;
use crate::metrics::LayerMetrics;
use crate::trace::Tracer;
use bytes::BytesMut;
use nonlocalheat::amt::codec::{decode_f64_rows, encode_f64_rows};
use nonlocalheat::amt::future::{ready, when_all};
use nonlocalheat::amt::parcel::tag;
use nonlocalheat::amt::pool::ThreadPool;
use nonlocalheat::core::balance::{compute_metrics, LbNetwork, LbSpec, SdGraph};
use nonlocalheat::core::scenario::{modeled_busy, ClusterSpec, DistExtras, RunReport, Scenario};
use nonlocalheat::core::{scenarios, Ownership};
use nonlocalheat::mesh::{build_halo_plan, HaloPlan, PatchSource, Rect, SdGrid, Tile};
use nonlocalheat::model::ProblemParts;
use nonlocalheat::netmodel::{Msg, NetSpec};
use nonlocalheat::partition::{
    balance, part_mesh_dual, repartition_capacitated, sd_dual_graph, PartitionConfig,
};
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

/// Run `f` inside span `span` and record its milliseconds as `metric`.
fn timed_span<T>(
    tr: &mut Tracer,
    layers: &mut LayerMetrics,
    span: &'static str,
    metric: &'static str,
    f: impl FnOnce() -> T,
) -> T {
    let t0 = Instant::now();
    let out = tr.span(span, |_| f());
    layers.set(metric, t0.elapsed().as_secs_f64() * 1e3);
    out
}

/// The workload's shapes, rebuilt one public call at a time, and the
/// counts of its last run.
pub struct Shape<'a> {
    sc: &'a Scenario,
    last: &'a RunReport,
    extras: &'a DistExtras,
    seed: u64,
    parts: ProblemParts,
    sds: SdGrid,
    plans: Vec<HaloPlan>,
    graph: Arc<SdGraph>,
    owners: Vec<u32>,
    n_nodes: u32,
    n_steps: f64,
}

impl<'a> Shape<'a> {
    /// Build the shapes, timing each set-up piece on the way.
    pub fn set_up(
        sc: &'a Scenario,
        last: &'a RunReport,
        seed: u64,
        tr: &mut Tracer,
        layers: &mut LayerMetrics,
    ) -> Self {
        let n_nodes = sc.cluster.len() as u32;
        timed_span(
            tr,
            layers,
            "Scenario::validate",
            "core.scenario.validate_ms",
            || {
                sc.validate();
            },
        );
        let parts = timed_span(
            tr,
            layers,
            "ProblemSpec::build",
            "model.problem.build_ms",
            || sc.problem.build(),
        );
        let sds = tr.span("Scenario::sd_grid", |_| sc.sd_grid());
        let halo = parts.grid.halo;
        let plans = timed_span(
            tr,
            layers,
            "build_halo_plan (all SDs)",
            "mesh.halo.plan_build_ms",
            || {
                sds.ids()
                    .map(|id| build_halo_plan(&sds, halo, id))
                    .collect()
            },
        );
        let graph = timed_span(
            tr,
            layers,
            "Scenario::sd_graph",
            "partition.sdgraph_build_ms",
            || Arc::new(sc.sd_graph()),
        );
        let owners = tr.span("PartitionSpec::initial_owners", |_| {
            sc.partition.initial_owners(&sds, n_nodes)
        });
        timed_span(
            tr,
            layers,
            "Scenario::build_cluster + drop",
            "amt.cluster.build_ms",
            || drop(sc.build_cluster()),
        );
        Shape {
            sc,
            last,
            extras: last.dist_extras().expect("dist extras"),
            seed,
            parts,
            sds,
            plans,
            graph,
            owners,
            n_nodes,
            n_steps: sc.steps as f64,
        }
    }

    /// A tile of the workload's SD shape with a non-trivial field.
    fn tile(&self) -> Tile {
        let mut tile = Tile::new(self.sds.sd, self.parts.grid.halo);
        for (i, (x, y)) in tile.padded_rect().cells().enumerate() {
            tile.set(x, y, (i % 13) as f64 * 0.1);
        }
        tile
    }

    /// model: the kernel on one SD tile. Returns its `est_ms_per_step`.
    pub fn kernel(&self, tr: &mut Tracer, layers: &mut LayerMetrics) -> f64 {
        let (sc, sds, parts) = (self.sc, &self.sds, &self.parts);
        let id = tr.begin("probe: kernel");
        let kernel = &parts.kernel;
        let curr = self.tile();
        let mut next = Tile::new(sds.sd, parts.grid.halo);
        let region = curr.interior_rect();
        let src = parts.manufactured.source_fn();
        let kplan = kernel.plan(curr.stride());
        let blocked_ns = ns_per_call(20.0, || {
            kernel.apply_region_blocked(
                black_box(&curr),
                &mut next,
                &region,
                &kplan,
                (0, 0),
                0.0,
                parts.dt,
                &src,
                1,
            );
        });
        let offsets = kernel.storage_offsets(curr.stride());
        let scalar_ns = ns_per_call(20.0, || {
            kernel.apply_region(
                black_box(&curr),
                &mut next,
                &region,
                &offsets,
                (0, 0),
                0.0,
                parts.dt,
                &src,
                1,
            );
        });
        tr.end(id);
        let cells = sds.cells_per_sd() as f64;
        let ns_per_dp = blocked_ns / cells;
        // Computed, not counted: one multiply-add per stencil point plus
        // the update, and the tile's padded read plus its interior write.
        let flops_per_dp = 2.0 * kernel.stencil.len() as f64 + 4.0;
        let tile_bytes = 8.0 * (curr.stride().pow(2) + sds.sd.pow(2)) as f64;
        layers.set("model.kernel.ns_per_dp", ns_per_dp);
        layers.set("model.kernel.gflops", flops_per_dp / ns_per_dp);
        layers.set(
            "model.kernel.ops_per_byte",
            flops_per_dp * cells / tile_bytes,
        );
        layers.set("model.kernel.blocked_over_scalar", blocked_ns / scalar_ns);
        // The step ends when the most loaded rank finishes: its DP-repeats
        // spread over its cores, under the ownership the run ended with.
        let speeds = sc.cluster.speed_factors();
        let mut load = vec![0.0f64; self.n_nodes as usize];
        for sd in sds.ids() {
            let rank = self.last.final_ownership.owner(sd) as usize;
            load[rank] += cells * f64::from(sc.work.repeats(sds, sd, speeds[rank]));
        }
        for (l, node) in load.iter_mut().zip(&sc.cluster.nodes) {
            *l /= node.cores as f64;
        }
        let critical = load.iter().copied().fold(0.0, f64::max);
        let mean = load.iter().sum::<f64>() / load.len() as f64;
        let est_ms = critical * ns_per_dp / 1e6;
        layers.set("model.kernel.est_ms_per_step", est_ms);
        layers.set("core.balance.imbalance_final", critical / mean);
        est_ms
    }

    /// mesh + codec: pack and unpack of the median foreign patch. Returns
    /// the halo `est_ms_per_step`.
    pub fn halo(&self, tr: &mut Tracer, layers: &mut LayerMetrics) -> f64 {
        let mut foreign: Vec<(Rect, Rect)> = Vec::new();
        for plan in &self.plans {
            for patch in &plan.patches {
                if let PatchSource::Sd(from) = patch.source {
                    if self.owners[from as usize] != self.owners[plan.sd as usize] {
                        foreign.push((patch.src_rect, patch.dst_rect));
                    }
                }
            }
        }
        foreign.sort_by_key(|(s, _)| s.area());
        layers.set("mesh.halo.patches_per_step", foreign.len() as f64);
        layers.set(
            "amt.codec.bytes_per_step",
            self.extras.wire_cross_bytes as f64 / self.n_steps,
        );
        let mut est_ms = 0.0;
        if let Some(&(src_rect, dst_rect)) = foreign.get(foreign.len() / 2) {
            let id = tr.begin("probe: halo pack/unpack");
            let src = self.tile();
            let area = src_rect.area() as usize;
            let pack = || {
                let mut buf = BytesMut::with_capacity(area * 8 + 8);
                encode_f64_rows(area, src.rect_rows(&src_rect), &mut buf);
                buf.freeze()
            };
            let pack_ns = ns_per_call(10.0, || {
                black_box(pack());
            });
            let payload = pack();
            let mut dst = Tile::new(self.sds.sd, self.parts.grid.halo);
            let unpack_ns = ns_per_call(10.0, || {
                let mut p = payload.clone();
                decode_f64_rows(&mut p, dst.rect_rows_mut(&dst_rect)).expect("round trip");
            });
            tr.count(id, "patch_cells", area as f64);
            tr.end(id);
            layers.set("mesh.halo.pack_ns_per_patch", pack_ns);
            layers.set("mesh.halo.unpack_ns_per_patch", unpack_ns);
            // the ranks pack and unpack their shares concurrently
            est_ms = foreign.len() as f64 / f64::from(self.n_nodes) * (pack_ns + unpack_ns) / 1e6;
        }
        layers.set("mesh.halo.est_ms_per_step", est_ms);
        est_ms
    }

    /// Fabric and network model. Returns the network `est_ms_per_step`.
    pub fn network(&self, tr: &mut Tracer, layers: &mut LayerMetrics) -> f64 {
        let sc = self.sc;
        let msgs_per_step = self.extras.wire_messages as f64 / self.n_steps;
        layers.set("amt.network.msgs_per_step", msgs_per_step);
        layers.set(
            "amt.network.cross_bytes_per_step",
            self.extras.wire_cross_bytes as f64 / self.n_steps,
        );
        let ghost_payload = {
            let mut buf = BytesMut::with_capacity(8 * 64 + 8);
            encode_f64_rows(64, std::iter::once(&[0.5f64; 64][..]), &mut buf);
            buf.freeze()
        };
        let modeled_net = if sc.net.is_instant() {
            scenarios::two_rack_net()
        } else {
            sc.net
        };
        // Latency of one parcel (send, then wait for it) on both delivery
        // paths, and the cost of one parcel among many in flight on the
        // workload's own path: a step's parcels are sent back to back, so
        // the step pays the pipelined cost per parcel plus one latency.
        let mut rtt_us = [0.0; 2];
        let mut pipelined_ns = 0.0;
        for (slot, (span, net, min_ms)) in [
            ("probe: parcel rtt (instant)", NetSpec::Instant, 20.0),
            ("probe: parcel rtt (modeled)", modeled_net, 40.0),
        ]
        .into_iter()
        .enumerate()
        {
            let id = tr.begin(span);
            let cluster = ClusterSpec::uniform(2, 1).builder(net).build();
            let (a, b) = (cluster.locality(0).clone(), cluster.locality(1).clone());
            let mut seq = 0u64;
            let mut next_tag = || {
                seq += 1;
                tag(1, seq & 0xff_ffff, 0, 0)
            };
            rtt_us[slot] = ns_per_call(min_ms, || {
                let t = next_tag();
                let arrival = b.expect(t);
                a.send(1, t, ghost_payload.clone());
                black_box(arrival.get());
            }) / 1e3;
            if net.is_instant() == sc.net.is_instant() {
                const BATCH: usize = 256;
                pipelined_ns = ns_per_call(min_ms, || {
                    let tags: Vec<_> = (0..BATCH).map(|_| next_tag()).collect();
                    let arrivals: Vec<_> = tags.iter().map(|&t| b.expect(t)).collect();
                    for &t in &tags {
                        a.send(1, t, ghost_payload.clone());
                    }
                    for arrival in arrivals {
                        black_box(arrival.get());
                    }
                }) / BATCH as f64;
            }
            tr.end(id);
        }
        layers.set("amt.network.rtt_us_instant", rtt_us[0]);
        layers.set("amt.network.rtt_us_modeled", rtt_us[1]);
        layers.set("amt.network.pipelined_ns_per_msg", pipelined_ns);
        let own_rtt_us = rtt_us[usize::from(!sc.net.is_instant())];
        // each rank sends its share of the parcels back to back
        let est_ms = if msgs_per_step > 0.0 {
            msgs_per_step / f64::from(self.n_nodes) * pipelined_ns / 1e6 + own_rtt_us / 1e3
        } else {
            0.0
        };
        layers.set("amt.network.est_ms_per_step", est_ms);
        let mut model = modeled_net.build(2);
        let mut now = 0.0;
        let msg = Msg {
            src: 0,
            dst: 1,
            bytes: 520,
        };
        layers.set(
            "netmodel.cost_ns_per_msg",
            ns_per_call(5.0, || now = black_box(model.arrival(now, &msg))),
        );
        est_ms
    }

    /// Pool and futures, at the workload's worker count.
    pub fn pool(&self, tr: &mut Tracer, layers: &mut LayerMetrics) {
        let id = tr.begin("probe: pool + futures");
        let pool = ThreadPool::new(self.sc.cluster.nodes[0].cores, "probe");
        layers.set(
            "amt.pool.task_ns",
            ns_per_call(20.0, || {
                for _ in 0..1024 {
                    pool.spawn(|| {});
                }
                pool.wait_idle();
            }) / 1024.0,
        );
        let handle = pool.handle();
        layers.set(
            "amt.future.then_ns",
            ns_per_call(10.0, || {
                let all = when_all((0..8).map(ready).collect());
                black_box(all.then(&handle, |v| v.len()).get());
            }),
        );
        drop(pool);
        tr.end(id);
        let steals: u64 = self.extras.pool_steals.iter().sum();
        let fails: u64 = self.extras.pool_steal_fails.iter().sum();
        layers.set("amt.pool.steals_per_step", steals as f64 / self.n_steps);
        layers.set(
            "amt.pool.steal_fail_ratio",
            fails as f64 / ((steals + fails) as f64).max(1.0),
        );
        layers.set(
            "amt.pool.parks_per_step",
            self.extras.pool_parks.iter().sum::<u64>() as f64 / self.n_steps,
        );
    }

    /// Balancing: one planning call at the workload's shape, and what the
    /// run's epochs did. Returns the planner's `est_ms_per_step`.
    pub fn balance(&self, tr: &mut Tracer, layers: &mut LayerMetrics) -> f64 {
        let (sc, last) = (self.sc, self.last);
        let spec = sc
            .lb
            .as_ref()
            .map_or(LbSpec::tree(0.0), |lb| lb.spec.clone());
        let busy = modeled_busy(
            &self.sds,
            &self.owners,
            self.n_nodes,
            &sc.work,
            &sc.cluster.speed_factors(),
            sc.sec_per_dp(),
        );
        let ownership = Ownership::new(self.sds, self.owners.clone(), self.n_nodes);
        let lb_net = LbNetwork::for_sd_tiles(&sc.net, self.sds.cells_per_sd())
            .with_sd_graph(self.graph.clone());
        let id = tr.begin("probe: compute_metrics + plan");
        let t0 = Instant::now();
        let metrics = compute_metrics(&ownership.counts(), &busy);
        let plan = spec.build().plan(&ownership, &metrics, &lb_net);
        let plan_ms = t0.elapsed().as_secs_f64() * 1e3;
        tr.count(id, "moves", plan.moves.len() as f64);
        tr.end(id);
        layers.set("core.balance.plan_ms", plan_ms);
        layers.set("core.balance.epochs", last.epoch_traces.len() as f64);
        layers.set("core.balance.moves", last.migrations as f64);
        layers.set("core.balance.migration_bytes", last.migration_bytes as f64);
        let cut_before = self.graph.cut_bytes(&self.owners) as f64;
        layers.set(
            "core.balance.cut_ratio",
            self.graph.cut_bytes(last.final_ownership.owners()) as f64 / cut_before.max(1.0),
        );
        if sc.lb.is_some() {
            plan_ms * last.epoch_traces.len() as f64 / self.n_steps
        } else {
            0.0
        }
    }

    /// The partitioner on the workload's SD grid.
    pub fn partition(&self, tr: &mut Tracer, layers: &mut LayerMetrics) {
        let id = tr.begin("probe: partitioner");
        let t0 = Instant::now();
        let part = part_mesh_dual(&self.sds, self.n_nodes.max(2), self.seed);
        layers.set("partition.part_ms", t0.elapsed().as_secs_f64() * 1e3);
        layers.set("partition.edge_cut", part.edgecut as f64);
        layers.set(
            "partition.balance",
            balance(&sd_dual_graph(&self.sds), &part.parts, part.k),
        );
        let t0 = Instant::now();
        black_box(repartition_capacitated(
            self.graph.csr(),
            &self.graph.footprints(),
            &vec![u64::MAX; part.k as usize],
            &PartitionConfig::new(part.k).with_seed(self.seed),
        ));
        layers.set("partition.repart_ms", t0.elapsed().as_secs_f64() * 1e3);
        tr.end(id);
    }
}
