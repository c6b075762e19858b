//! The halo-exchange schedule of one locality: which ghost patches travel
//! in which rank-to-rank bundle.
//!
//! A nonlocal halo is many small patches — an SD with `eps = 4h` on a
//! 5-cell tiling reads 24 of them — and a parcel costs far more than the
//! bytes of one patch. So the real runtime ships **one bundle per step and
//! ordered rank pair**: every patch this locality's SDs feed into SDs of
//! rank `r` travels in the single parcel to `r`. Sender and receiver each
//! derive the bundle's record list from the ownership map and the halo
//! plans alone and both order it by `(destination SD, patch index)`, so the
//! two sides agree by construction and the parcel needs no per-patch tag;
//! the record headers on the wire (see
//! [`nlheat_amt::codec::GhostRecordHeader`]) are there to *verify* that
//! agreement, not to establish it.

use bytes::{Bytes, BytesMut};
use nlheat_amt::codec::{encode_ghost_record, GhostRecordHeader};
use nlheat_mesh::{HaloPlan, Rect, SdId, Tile};
use std::collections::BTreeMap;
use std::ops::Deref;

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

    /// Pack a send bundle straight from the source tiles (`tiles[i]` is the
    /// tile of [`GhostSchedule::owned`]`[i]`) into one buffer allocated at
    /// its final size.
    pub fn pack<T: Deref<Target = Tile>>(&self, tiles: &[T]) -> Bytes {
        let mut buf = BytesMut::with_capacity(self.wire_bytes);
        for rec in &self.records {
            let rows = tiles[rec.tile as usize].rect_rows(&rec.rect);
            encode_ghost_record(rec.header(), rows, &mut buf);
        }
        debug_assert_eq!(buf.len(), self.wire_bytes);
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

/// For each source SD, the `(destination SD, patch index)` pairs that read
/// from it — the halo plans turned around.
pub fn reverse_index(plans: &[HaloPlan]) -> Vec<Vec<(SdId, u16)>> {
    let mut reverse = vec![Vec::new(); plans.len()];
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
        let mut sends: BTreeMap<u32, Vec<PatchRecord>> = BTreeMap::new();
        let mut recvs: BTreeMap<u32, Vec<PatchRecord>> = BTreeMap::new();
        let mut awaited = vec![0u32; owned.len()];
        for (tile, &sd) in owned.iter().enumerate() {
            let tile = tile as u32;
            for &(dst_sd, pidx) in &reverse[sd as usize] {
                if owner(dst_sd) != me {
                    let patch = &plans[dst_sd as usize].patches[pidx as usize];
                    sends.entry(owner(dst_sd)).or_default().push(PatchRecord {
                        dst_sd,
                        pidx,
                        tile,
                        rect: patch.src_rect,
                    });
                }
            }
            for (pidx, src, patch) in plans[sd as usize].sd_patches() {
                if owner(src) != me {
                    let bundle = recvs.entry(owner(src)).or_default();
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
        for records in sends.values_mut() {
            records.sort_unstable_by_key(|r| (r.dst_sd, r.pidx));
        }
        let bundles = |map: BTreeMap<u32, Vec<PatchRecord>>| {
            map.into_iter()
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
        let payload = bundle.pack(&[&tile]);
        assert_eq!(payload.len(), bundle.wire_bytes);
        // one 2x4 patch: 3 header words + 8 values
        assert_eq!(bundle.wire_bytes, 24 + 8 * 8);
    }
}
