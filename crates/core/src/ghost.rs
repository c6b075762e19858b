//! The halo-exchange schedule of one locality: which ghost patches travel
//! in which rank-to-rank bundle.
//!
//! A nonlocal halo is many small patches — an SD with `eps = 4h` on a
//! 5-cell tiling reads 8 of them, one per neighbour of its ring (the halo
//! of 4 is narrower than an SD), of 16 to 20 cells each — and a parcel
//! costs far more than the bytes of one patch. So the real runtime ships **one bundle per step and
//! ordered rank pair**: every patch this locality's SDs feed into SDs of
//! rank `r` travels in the single parcel to `r`. Sender and receiver each
//! derive the bundle's record list from the ownership map and the halo
//! plans alone and both order it by `(destination SD, patch index)`, so the
//! two sides agree by construction and the parcel needs no per-patch tag;
//! the record headers on the wire (see
//! [`nlheat_amt::codec::GhostRecordHeader`]) are there to *verify* that
//! agreement, not to establish it.
//!
//! A bundle is packed and scattered row by row through the one run codec
//! ([`nlheat_amt::codec`]): [`RankBundle::pack`] streams each record's
//! rows — four or five cells each on a small SD — straight off the source
//! tile, and the receiver decodes them straight into the destination halo,
//! after comparing the record's header, where it lies in the bundle, with
//! the one its own schedule expects. `pack` takes its tile table
//! exclusively (`&mut`): the driver packs before it opens the step's
//! scope, so the locks a table keeps for the tasks of that scope are
//! passed here through `get_mut`, lock-free.
//! A bundle that does not come out at its scheduled size panics at the
//! sender, not as a `Truncated` a rank away.
//!
//! Everything else a step does to the halos and interiors is a function of
//! the ownership map too, so [`StepLayout`] derives it in the same pass and
//! the driver replays it every step of the ownership epoch: the local halo
//! fill as a flat copy list, and each owned SD's interior cut into the
//! [`Region`]s its compute tasks run — which [`group_by_work`] then deals
//! into tasks that are worth scheduling.

use crate::scenario::Scenario;
use bytes::{Bytes, BytesMut};
use nlheat_amt::codec::{encode_ghost_record, GhostRecordHeader};
use nlheat_mesh::{build_halo_plan, split_cases, HaloPlan, Rect, SdGrid, SdId, Tile};

/// One halo patch as a record of a bundle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PatchRecord {
    /// The SD whose halo the patch fills.
    pub dst_sd: SdId,
    /// Patch index within `dst_sd`'s halo plan.
    pub pidx: u16,
    /// Index into [`GhostSchedule::owned`] of the local tile the record
    /// touches: the source SD in a send bundle, `dst_sd` itself in a
    /// receive bundle.
    pub tile: u32,
    /// The patch in that tile's local coordinates: the interior cells read
    /// (send) or the halo cells written (receive). Both have the same area.
    pub rect: Rect,
}

impl PatchRecord {
    /// The header this record carries on the wire.
    pub fn header(&self) -> GhostRecordHeader {
        GhostRecordHeader {
            dst_sd: self.dst_sd as u64,
            pidx: self.pidx as u64,
            cells: self.rect.area() as u64,
        }
    }
}

/// Everything exchanged with one neighbour rank in one direction per step.
#[derive(Debug, Clone)]
pub struct RankBundle {
    /// The rank at the other end.
    pub peer: u32,
    /// The records in wire order: ascending `(dst_sd, pidx)`.
    pub records: Vec<PatchRecord>,
    /// Payload bytes of the bundle: the summed record sizes, which is the
    /// planner-grade `patch_wire_bytes` of every patch in it.
    pub wire_bytes: usize,
}

impl RankBundle {
    fn new(peer: u32, records: Vec<PatchRecord>) -> Self {
        let wire_bytes = records.iter().map(|r| r.header().wire_bytes()).sum();
        RankBundle {
            peer,
            records,
            wire_bytes,
        }
    }

    /// Pack a send bundle straight from the source tiles into one buffer
    /// allocated at its final size. `slots[i]` holds the tile of
    /// [`GhostSchedule::owned`]`[i]` and `tile_of` reaches it through the
    /// exclusive borrow — a slot that keeps its tile behind a lock for the
    /// phases that share it hands it out here without taking the lock.
    ///
    /// # Panics
    /// If the records do not fill [`wire_bytes`](Self::wire_bytes) exactly
    /// (the schedule and the tiles disagree): better here, at the sender,
    /// than as the receiver's `Truncated` a rank away.
    pub fn pack<S>(
        &self,
        slots: &mut [S],
        tile_of: impl for<'a> Fn(&'a mut S) -> &'a Tile,
    ) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_bytes);
        for rec in &self.records {
            let rows = tile_of(&mut slots[rec.tile as usize]).rect_rows(&rec.rect);
            encode_ghost_record(rec.header(), rows, &mut buf);
        }
        assert_eq!(
            buf.len(),
            self.wire_bytes,
            "the bundle to rank {} packed to {} bytes where its schedule says {}",
            self.peer,
            buf.len(),
            self.wire_bytes
        );
        buf.freeze()
    }
}

/// The complete ghost exchange of locality `me` under one ownership map.
/// Rebuilt only when ownership changes.
#[derive(Debug, Clone)]
pub struct GhostSchedule {
    /// The SDs `me` owns, ascending.
    pub owned: Vec<SdId>,
    /// One outgoing bundle per neighbour rank that reads from `me`,
    /// ascending by rank.
    pub sends: Vec<RankBundle>,
    /// One incoming bundle per neighbour rank `me` reads from, ascending
    /// by rank; the mirror image of that rank's send bundle to `me`.
    pub recvs: Vec<RankBundle>,
    /// Per owned SD (parallel to `owned`): how many incoming bundles carry
    /// records for it — the source ranks its case-1 region waits on each
    /// step. Zero for an SD whose whole halo is local.
    pub awaited: Vec<u32>,
}

/// A rectangle of one local tile, in the tile's interior coordinates: the
/// unit of compute work.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Region {
    /// Index into [`GhostSchedule::owned`] of the tile.
    pub tile: u32,
    /// The cells to update.
    pub rect: Rect,
    /// Its index in the tile's write list: the tile's at-spawn regions,
    /// then its gated ones ([`StepLayout`]).
    pub write: u32,
}

/// One same-locality halo copy: `src_rect` of tile `src_tile`'s interior
/// into `dst_rect` of tile `dst_tile`'s halo (tiles index
/// [`GhostSchedule::owned`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LocalFill {
    /// The tile whose halo is filled.
    pub dst_tile: u32,
    /// The tile whose interior is read.
    pub src_tile: u32,
    /// The cells read, in `src_tile`'s coordinates.
    pub src_rect: Rect,
    /// The cells written, in `dst_tile`'s coordinates; same shape.
    pub dst_rect: Rect,
}

/// One region list per owned SD, stored flat in tile order.
#[derive(Debug, Clone, Default)]
pub struct RegionLists {
    regions: Vec<Region>,
    /// `ends[i]` is where tile `i`'s list ends in `regions` (and tile
    /// `i + 1`'s begins).
    ends: Vec<u32>,
}

impl RegionLists {
    /// Append the list of the next tile: the non-empty `rects`, each cut
    /// into row bands of height ≤ `band` when one is given, written from
    /// index `first_write` on.
    pub(crate) fn push_tile(&mut self, rects: &[Rect], band: Option<i64>, first_write: u32) {
        let tile = self.ends.len() as u32;
        let start = self.regions.len();
        for &rect in rects.iter().filter(|r| !r.is_empty()) {
            let region = |rect| Region {
                tile,
                rect,
                write: 0,
            };
            match band {
                None => self.regions.push(region(rect)),
                Some(band) => self.regions.extend(row_bands(&rect, band).map(region)),
            }
        }
        for (write, region) in (first_write..).zip(&mut self.regions[start..]) {
            region.write = write;
        }
        self.ends.push(self.regions.len() as u32);
    }

    /// The region list of tile `tile` (empty when it has nothing to do in
    /// this class).
    pub fn of(&self, tile: u32) -> &[Region] {
        let tile = tile as usize;
        let start = if tile == 0 { 0 } else { self.ends[tile - 1] };
        &self.regions[start as usize..self.ends[tile] as usize]
    }

    /// The non-empty lists, in tile order.
    pub fn lists(&self) -> impl Iterator<Item = &[Region]> {
        self.regions.chunk_by(|a, b| a.tile == b.tile)
    }
}

/// How an SD's interior is cut into regions: the tile geometry, whether
/// the foreign-independent part runs ahead of the ghosts (§6.3), and the
/// row-band height intra-step stealing cuts every region into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RegionCut {
    /// SD side length in cells.
    pub sd: i64,
    /// Ghost-ring width in cells.
    pub halo: i64,
    /// Case-2 cells run at spawn (`true`) or every SD with a foreign ghost
    /// waits for its halo before computing anything (ablation A2).
    pub overlap: bool,
    /// `Some(h)`: every region is cut into row bands of height ≤ `h`, each
    /// its own task — the piece an idle worker steals within a step.
    pub band: Option<i64>,
}

impl RegionCut {
    /// The cut `sc`'s steps are made with on a node of `workers` cores
    /// whose SDs carry a ghost ring of `halo` cells — the one the driver
    /// replays and the simulator charges. With intra-step stealing every
    /// region is cut into row bands of height `sd / (2 · workers)`: a
    /// function of the scenario alone, never of timing.
    pub fn new(sc: &Scenario, halo: i64, workers: usize) -> Self {
        let sd = sc.sd_size as i64;
        RegionCut {
            sd,
            halo,
            overlap: sc.overlap,
            band: sc
                .intra_step_stealing
                .then(|| (sd / (2 * workers as i64)).max(1)),
        }
    }
}

/// Split `rect` into horizontal bands of height ≤ `band`, top to bottom.
/// Deterministic in the inputs and an exact cover of `rect`, so banded
/// execution visits every cell exactly once in a schedule-independent
/// decomposition.
pub fn row_bands(rect: &Rect, band: i64) -> impl Iterator<Item = Rect> {
    assert!(band >= 1, "a row band has at least one row");
    let rect = *rect;
    (rect.y0..rect.y1())
        .step_by(band as usize)
        .map(move |y| Rect::new(rect.x0, y, rect.w, band.min(rect.y1() - y)))
}

/// The least work — cells × kernel repeats × stencil points — a compute
/// task carries unless the step has no more to give it. Measured on the
/// reference 2-vCPU VM, handing a task to the pool cost ≈ 0.4–1 µs when
/// each task also had a promise (its boxes, the injector push, the
/// worker's two busy-time `Instant`s, the tile lock), while the kernel
/// retires a stencil point in ≈ 0.23 ns at its baseline vector level and
/// ≈ 0.13–0.15 ns at AVX2 (45 and 25–31 ns per DP over 196 points, on
/// full 8-wide blocks; the 4- and 1-wide bodies a 5-cell row runs are
/// about half as fast). A 25-cell SD at ε = 4h (1 200 points) is thus
/// ≈ 0.2–0.5 µs of kernel, less than the cost of scheduling it, and 2¹⁶
/// points are ≈ 15 µs at baseline, ≈ 9–10 µs at AVX2: the scheduling cost
/// is 3–7 % of such a task, or 4–10 %. The faster level did not move the
/// floor: `dist_ghost_heavy` (1 600 such SDs) at 2¹⁷ against 2¹⁶ read
/// `unit_rel` 0.1098 against 0.1092 in eight alternating pairs, ahead in
/// three — unresolved, so the smaller task, which leaves more to balance,
/// stays. A constant, not an option: it prices this runtime's task, not a
/// workload — every 625-cell SD at ε = 8h (123 k points) is above it and
/// keeps a task of its own.
pub const TASK_WORK_FLOOR: u64 = 1 << 16;

/// Deal region lists into compute tasks. `lists` yields, per SD, one of its
/// region lists and the SD's work per cell (kernel repeats × stencil
/// points); `task` sees the regions of each task.
///
/// - With [`RegionCut::band`] set every region — a row band — is a task of
///   its own: it is the thief's unit and never merged.
/// - Otherwise a list of an SD whose whole interior is at or above
///   [`TASK_WORK_FLOOR`] is one task by itself, and the lists of smaller
///   SDs are merged, in order, until the task holds at least the floor.
///
/// Every region lands in exactly one task and no region is split, so the
/// cells computed do not depend on the grouping.
pub fn group_by_work<'a>(
    lists: impl IntoIterator<Item = (&'a [Region], u64)>,
    cut: &RegionCut,
    mut task: impl FnMut(&[Region]),
) {
    let sd_cells = (cut.sd * cut.sd) as u64;
    let (mut open, mut open_work) = (Vec::new(), 0u64);
    for (list, work_per_cell) in lists {
        if list.is_empty() {
            continue;
        }
        if cut.band.is_some() {
            list.chunks(1).for_each(&mut task);
        } else if sd_cells * work_per_cell >= TASK_WORK_FLOOR {
            task(list);
        } else {
            open.extend_from_slice(list);
            open_work += list.iter().map(|r| r.rect.area() as u64).sum::<u64>() * work_per_cell;
            if open_work >= TASK_WORK_FLOOR {
                task(&open);
                open.clear();
                open_work = 0;
            }
        }
    }
    if !open.is_empty() {
        task(&open);
    }
}

/// Everything a step of locality `me` does that follows from the ownership
/// map alone — built once per ownership epoch and replayed every step.
#[derive(Debug, Clone)]
pub struct StepLayout {
    /// The cut the region lists were made with.
    pub cut: RegionCut,
    /// The ghost exchange with the other ranks; its `owned` list is the
    /// tile order every index below refers to.
    pub schedule: GhostSchedule,
    /// The same-locality halo copies, ascending by destination tile (then
    /// in halo-plan order), so a step visits each destination once.
    pub fills: Vec<LocalFill>,
    /// Per owned SD the regions that read no foreign ghost and run when the
    /// step starts.
    pub at_spawn: RegionLists,
    /// Per owned SD the regions that wait for the SD's halo: released when
    /// the last of its [`GhostSchedule::awaited`] bundles has been
    /// scattered. Together with `at_spawn` they tile the SD's interior.
    pub gated: RegionLists,
}

impl StepLayout {
    /// Derive `me`'s step from the halo plans (`plans[i]` is SD `i`'s),
    /// their [`reverse_index`], the ownership map and the region cut.
    pub fn build(
        plans: &[HaloPlan],
        reverse: &[Vec<(SdId, u16)>],
        owners: &[u32],
        me: u32,
        cut: &RegionCut,
    ) -> Self {
        let schedule = GhostSchedule::build(plans, reverse, owners, me);
        let mut tile_of = vec![u32::MAX; owners.len()];
        for (tile, &sd) in schedule.owned.iter().enumerate() {
            tile_of[sd as usize] = tile as u32;
        }
        let is_foreign = |sd: SdId| owners[sd as usize] != me;
        let full = Rect::new(0, 0, cut.sd, cut.sd);
        let owned = &schedule.owned;
        let patches = owned.iter().map(|&sd| plans[sd as usize].patches.len());
        let mut fills = Vec::with_capacity(patches.sum());
        let lists = || RegionLists {
            regions: Vec::with_capacity(owned.len()),
            ends: Vec::with_capacity(owned.len()),
        };
        let (mut at_spawn, mut gated) = (lists(), lists());
        for (tile, &sd) in owned.iter().enumerate() {
            let tile = tile as u32;
            let plan = &plans[sd as usize];
            for (_, src, patch) in plan.sd_patches() {
                if !is_foreign(src) {
                    fills.push(LocalFill {
                        dst_tile: tile,
                        src_tile: tile_of[src as usize],
                        src_rect: patch.src_rect,
                        dst_rect: patch.dst_rect,
                    });
                }
            }
            // case 2 at spawn, case 1 when the halo is complete; a fully
            // local SD is all case 2. Without overlap an SD with foreign
            // ghosts waits for them before computing anything.
            let split = split_cases(cut.sd, cut.halo, plan, is_foreign);
            let (now, later) = if cut.overlap || split.is_all_case2() {
                (split.case2, split.case1())
            } else {
                (Rect::empty(), std::slice::from_ref(&full))
            };
            at_spawn.push_tile(&[now], cut.band, 0);
            gated.push_tile(later, cut.band, at_spawn.of(tile).len() as u32);
        }
        StepLayout {
            cut: *cut,
            schedule,
            fills,
            at_spawn,
            gated,
        }
    }
}

/// The halo plan of every SD of `sds` under a ghost ring of `halo` cells
/// (`plans[i]` is SD `i`'s) and their [`reverse_index`]: the
/// ownership-free half of every [`StepLayout`], built once per run.
pub fn halo_plans(sds: &SdGrid, halo: i64) -> (Vec<HaloPlan>, Vec<Vec<(SdId, u16)>>) {
    let plans: Vec<HaloPlan> = sds.ids().map(|id| build_halo_plan(sds, halo, id)).collect();
    let reverse = reverse_index(&plans);
    (plans, reverse)
}

/// The record list of the bundle to or from `peer` in `bundles`, opened if
/// there is none yet.
fn records_to(bundles: &mut Vec<(u32, Vec<PatchRecord>)>, peer: u32) -> &mut Vec<PatchRecord> {
    let at = match bundles.iter().position(|&(p, _)| p == peer) {
        Some(at) => at,
        None => {
            bundles.push((peer, Vec::new()));
            bundles.len() - 1
        }
    };
    &mut bundles[at].1
}

/// For each source SD, the `(destination SD, patch index)` pairs that read
/// from it — the halo plans turned around.
pub fn reverse_index(plans: &[HaloPlan]) -> Vec<Vec<(SdId, u16)>> {
    // sized first, so the lists are allocated once each, in SD order
    let mut readers = vec![0usize; plans.len()];
    for (_, src, _) in plans.iter().flat_map(HaloPlan::sd_patches) {
        readers[src as usize] += 1;
    }
    let mut reverse: Vec<Vec<(SdId, u16)>> = readers.into_iter().map(Vec::with_capacity).collect();
    for plan in plans {
        for (idx, src, _) in plan.sd_patches() {
            reverse[src as usize].push((plan.sd, idx as u16));
        }
    }
    reverse
}

impl GhostSchedule {
    /// Derive `me`'s schedule from the halo plans (`plans[i]` is SD `i`'s),
    /// their [`reverse_index`] and the ownership map.
    pub fn build(
        plans: &[HaloPlan],
        reverse: &[Vec<(SdId, u16)>],
        owners: &[u32],
        me: u32,
    ) -> Self {
        let owner = |sd: SdId| owners[sd as usize];
        let owned: Vec<SdId> = (0..owners.len() as SdId)
            .filter(|&sd| owner(sd) == me)
            .collect();
        // `(peer, records)`: a rank has few neighbours, so a list beats a map
        let mut sends: Vec<(u32, Vec<PatchRecord>)> = Vec::new();
        let mut recvs: Vec<(u32, Vec<PatchRecord>)> = Vec::new();
        let mut awaited = vec![0u32; owned.len()];
        for (tile, &sd) in owned.iter().enumerate() {
            let tile = tile as u32;
            for &(dst_sd, pidx) in &reverse[sd as usize] {
                if owner(dst_sd) != me {
                    let patch = &plans[dst_sd as usize].patches[pidx as usize];
                    records_to(&mut sends, owner(dst_sd)).push(PatchRecord {
                        dst_sd,
                        pidx,
                        tile,
                        rect: patch.src_rect,
                    });
                }
            }
            for (pidx, src, patch) in plans[sd as usize].sd_patches() {
                if owner(src) != me {
                    let bundle = records_to(&mut recvs, owner(src));
                    if bundle.last().is_none_or(|r| r.dst_sd != sd) {
                        awaited[tile as usize] += 1;
                    }
                    bundle.push(PatchRecord {
                        dst_sd: sd,
                        pidx: pidx as u16,
                        tile,
                        rect: patch.dst_rect,
                    });
                }
            }
        }
        // Receive lists come out in wire order (SDs ascending, patches in
        // plan order); send lists were gathered by *source* SD and need
        // the sort.
        for (_, records) in &mut sends {
            records.sort_unstable_by_key(|r| (r.dst_sd, r.pidx));
        }
        let bundles = |mut peers: Vec<(u32, Vec<PatchRecord>)>| {
            peers.sort_unstable_by_key(|&(peer, _)| peer);
            peers
                .into_iter()
                .map(|(peer, records)| RankBundle::new(peer, records))
                .collect()
        };
        GhostSchedule {
            owned,
            sends: bundles(sends),
            recvs: bundles(recvs),
            awaited,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nlheat_mesh::{build_halo_plan, SdGrid};
    use nlheat_partition::patch_wire_bytes;

    #[test]
    fn a_record_is_exactly_the_planner_grade_patch() {
        for cells in [1i64, 7, 40, 2500] {
            let rec = PatchRecord {
                dst_sd: 3,
                pidx: 1,
                tile: 0,
                rect: Rect::new(0, 0, cells, 1),
            };
            assert_eq!(rec.header().wire_bytes() as u64, patch_wire_bytes(cells));
        }
    }

    #[test]
    fn strip_halves_mirror_each_other() {
        // 4x4 SDs, two-ring halo, left/right halves on ranks 0 and 1.
        let sds = SdGrid::new(4, 4, 4);
        let plans: Vec<HaloPlan> = sds.ids().map(|id| build_halo_plan(&sds, 6, id)).collect();
        let reverse = reverse_index(&plans);
        let owners: Vec<u32> = sds
            .ids()
            .map(|id| u32::from(sds.coords(id).0 >= 2))
            .collect();
        let a = GhostSchedule::build(&plans, &reverse, &owners, 0);
        let b = GhostSchedule::build(&plans, &reverse, &owners, 1);
        assert_eq!(a.owned.len(), 8);
        assert_eq!((a.sends.len(), a.recvs.len()), (1, 1));
        let keys = |bundle: &RankBundle| -> Vec<GhostRecordHeader> {
            bundle.records.iter().map(PatchRecord::header).collect()
        };
        assert_eq!(keys(&a.sends[0]), keys(&b.recvs[0]));
        assert_eq!(keys(&b.sends[0]), keys(&a.recvs[0]));
        assert_eq!(a.sends[0].wire_bytes, b.recvs[0].wire_bytes);
        // a two-ring halo reaches every SD of the other half: all 8 await
        // exactly the one neighbour rank
        assert_eq!(a.awaited, vec![1; 8]);
        // wire order
        assert!(a.sends[0]
            .records
            .windows(2)
            .all(|w| (w[0].dst_sd, w[0].pidx) < (w[1].dst_sd, w[1].pidx)));
    }

    #[test]
    #[should_panic(expected = "the bundle to rank 1 packed to 88 bytes where its schedule says 80")]
    fn a_bundle_that_disagrees_with_its_size_fails_at_the_sender() {
        let sds = SdGrid::new(2, 1, 4);
        let plans: Vec<HaloPlan> = sds.ids().map(|id| build_halo_plan(&sds, 2, id)).collect();
        let schedule = GhostSchedule::build(&plans, &reverse_index(&plans), &[0, 1], 0);
        let mut bundle = schedule.sends[0].clone();
        bundle.wire_bytes -= 8;
        bundle.pack(&mut [Tile::new(4, 2)], |tile| tile);
    }

    #[test]
    fn pack_fills_the_buffer_exactly() {
        let sds = SdGrid::new(2, 1, 4);
        let plans: Vec<HaloPlan> = sds.ids().map(|id| build_halo_plan(&sds, 2, id)).collect();
        let reverse = reverse_index(&plans);
        let schedule = GhostSchedule::build(&plans, &reverse, &[0, 1], 0);
        let mut tile = Tile::new(4, 2);
        for (i, (x, y)) in tile.interior_rect().cells().enumerate() {
            tile.set(x, y, i as f64);
        }
        let bundle = &schedule.sends[0];
        let payload = bundle.pack(&mut [tile], |tile| tile);
        assert_eq!(payload.len(), bundle.wire_bytes);
        // one 2x4 patch: 3 header words + 8 values
        assert_eq!(bundle.wire_bytes, 24 + 8 * 8);
    }
}
