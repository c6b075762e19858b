//! The discrete nonlocal operator (paper eq. 5).
//!
//! For every DP i the forward-Euler update is
//!
//! ```text
//! û_i^{k+1} = û_i^k + Δt [ b(t_k, x_i) + c Σ_j J(|x_j−x_i|/ε) (û_j − û_i) V_j ]
//! ```
//!
//! [`NonlocalKernel`] pre-pairs each stencil offset with its quadrature
//! weight `J(r/ε)·h²` and applies the update over a rectangular region of a
//! [`Tile`] — the same code path serves the serial solver (one tile = the
//! whole grid), the shared-memory solver and the distributed solver.
//!
//! # The interaction sum
//!
//! At ε = 8h the sum has 196 terms per DP and is ≈ 85 % of a time step.
//! Summed one DP at a time it is a single `acc += w·(u_j − u_i)` chain:
//! every add waits for the one before it, so the loop runs at
//! floating-point *latency* however its operands are addressed. The one
//! production implementation (`NonlocalKernel::interaction_sums`) instead
//! accumulates `W` = 8 adjacent cells of a row together — for each stencil
//! weight, `acc[k] += w·(u[idx+k] − u_i[k])` for k in 0..W — which gives the
//! core eight independent chains and turns the loop throughput-bound.
//! Row remainders run the same const-generic body at widths 4, 2 and 1.
//!
//! Each cell still meets its neighbours in [`Stencil`] order, with a
//! separate multiply and add (no `mul_add`, no reassociation), starting
//! from `0.0`: the cells of a block never mix, so every cell's sum is the
//! one the scalar reference [`NonlocalKernel::apply_region`] computes,
//! bit for bit, at every width. The step update and the manufactured
//! solution's precompute ([`crate::manufactured`]) both go through it.
//!
//! # Vector width
//!
//! The workspace builds for baseline x86-64, where an 8-cell block is four
//! 128-bit vectors. The block is the unit of independence, not the vector,
//! so the same source compiled for 256-bit registers is two vectors per
//! block at half the instructions per cell. [`NonlocalKernel::plan`]
//! therefore records a [`VectorLevel`] — the widest one the CPU reports —
//! and `interaction_sums` dispatches on it once per call into the *same*
//! `#[inline(always)]` body, instantiated a second time under
//! `#[target_feature(enable = "avx2")]`. There is one body because there is
//! one arithmetic: a level changes how many cells share an instruction,
//! never which operations a cell sees or in what order, so the bit-equality
//! argument above holds at every level unchanged. The baseline
//! instantiation stays because it is the only one a CPU without AVX2 runs.
//!
//! `fma` is deliberately absent from the feature list. A fused
//! `w·(u_j − u_i) + acc` rounds once where the reference rounds twice: the
//! sums would differ from the scalar oracle, and from a peer rank whose CPU
//! lacks FMA. Rust never contracts a separate multiply and add on its own —
//! not even when the whole build enables FMA (`-C target-cpu=native`), which
//! CI pins by running the bit-identity tests under `x86-64-v3`.

use crate::influence::{conductivity_constant_2d, Influence};
use nlheat_mesh::{Grid, Rect, RectMut, Stencil, Tile};
use std::sync::Arc;

/// External heat source b(t, x_i) addressed by global cell index. Every
/// `Fn(t, gi, gj) -> f64` closure is one.
pub trait Source: Send + Sync {
    /// b(t, x_i) at global cell `(gi, gj)`.
    fn at(&self, t: f64, gi: i64, gj: i64) -> f64;

    /// The source at a fixed time, as a row evaluator: `(gi0, gj, out)`
    /// sets `out[k]` to the bits of `at(t, gi0 + k, gj)`. The step kernel
    /// asks for it once per call, so a source whose time dependence
    /// factors out overrides this to pay for those factors once per call
    /// rather than once per cell.
    fn at_time<'a>(&'a self, t: f64) -> RowSource<'a> {
        Box::new(move |gi0, gj, out| {
            for (gi, b) in (gi0..).zip(out) {
                *b = self.at(t, gi, gj);
            }
        })
    }
}

/// What [`Source::at_time`] returns.
pub type RowSource<'a> = Box<dyn Fn(i64, i64, &mut [f64]) + 'a>;

impl<F: Fn(f64, i64, i64) -> f64 + Send + Sync> Source for F {
    fn at(&self, t: f64, gi: i64, gj: i64) -> f64 {
        self(t, gi, gj)
    }
}

/// A shareable [`Source`].
pub type SourceFn = Arc<dyn Source>;

/// Output cells of a row whose interaction sums are accumulated together.
/// Eight independent chains cover a 4-cycle add latency at two adds per
/// cycle. Registers, per [`VectorLevel`]: at baseline the block is four
/// 128-bit accumulators, four centre vectors and one broadcast weight —
/// nine of the sixteen `xmm`; at AVX2 two 256-bit accumulators, two
/// centres and the weight — five of the sixteen `ymm`.
///
/// Measured on the 2-vCPU AVX-512 Xeon the snapshots come from, and not
/// built (ns per DP at ε = 8h):
/// - a 16-wide top segment at AVX2 (four `ymm` chains): within 6 % on 25-
///   and 100-wide rows (29.4 / 24.6 against 31.3 / 24.6), ≈ 10 % ahead on
///   the bench suite's 50- and 200-wide tiles (26 / 23 against 29 / 26) —
///   and not resolvable where it counts: the repository benchmark's
///   `unit_ms` read 0–8 % lower and its `unit_rel` 0–8 % higher, on SDs of
///   25 cells whose regions the driver cuts narrower still;
/// - an AVX-512 instantiation: 37.3 / 31.7 on 25- / 100-wide rows against
///   AVX2's 30.0 / 23.7 (35 / 33 against 29 / 26 on the bench suite's
///   tiles) — eight lanes are a single `zmm` chain, so the sum is
///   latency-bound again;
/// - an overlapped 8-wide block in place of the 1-wide row remainder: the
///   lone cell costs ≈ 137 ns, a block ≈ 200 ns.
const W: usize = 8;

/// The instruction-set level an interaction sum is compiled for — see the
/// module docs. Part of a [`KernelPlan`]; the production path
/// ([`NonlocalKernel::plan`]) always takes [`VectorLevel::detect`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum VectorLevel {
    /// What the build targets (SSE2 on x86-64): runs everywhere.
    Baseline,
    /// 256-bit vectors. The payload has no public constructor: only
    /// [`detect`](Self::detect) and [`available`](Self::available) hand
    /// the variant out, and only on a CPU that reports AVX2.
    #[cfg(target_arch = "x86_64")]
    Avx2(Avx2),
}

/// Proof that the running CPU reports AVX2 (see [`VectorLevel::Avx2`]).
#[cfg(target_arch = "x86_64")]
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Avx2(());

impl VectorLevel {
    /// Every level this CPU can run, narrowest first — so the pins and the
    /// bench suite can cover each instantiation on one machine.
    pub fn available() -> Vec<VectorLevel> {
        let mut levels = vec![VectorLevel::Baseline];
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx2") {
            levels.push(VectorLevel::Avx2(Avx2(())));
        }
        levels
    }

    /// The widest level this CPU can run.
    pub fn detect() -> VectorLevel {
        *Self::available().last().expect("baseline is always there")
    }

    /// The level as a counter value: 0 = baseline, 1 = AVX2.
    pub fn index(self) -> u64 {
        match self {
            VectorLevel::Baseline => 0,
            #[cfg(target_arch = "x86_64")]
            VectorLevel::Avx2(_) => 1,
        }
    }
}

/// Stencil + weights + conductivity for one grid resolution.
#[derive(Debug, Clone)]
pub struct NonlocalKernel {
    /// Geometric ε-ball stencil.
    pub stencil: Stencil,
    /// Quadrature weight `J(|x_j−x_i|/ε)·V_j` per stencil offset.
    pub weights: Vec<f64>,
    /// Conductivity constant c (paper eq. 2).
    pub c: f64,
    /// Σ_j weights — governs the forward-Euler stability bound.
    pub sum_w: f64,
    /// Grid spacing (cached for coordinate-free callers).
    pub h: f64,
}

impl NonlocalKernel {
    /// Build the kernel for `grid` with conductivity `k` and influence `j`.
    pub(crate) fn new(grid: &Grid, k: f64, j: Influence) -> Self {
        let stencil = Stencil::build(grid.h, grid.eps);
        let vol = grid.cell_volume();
        let weights: Vec<f64> = stencil
            .dists
            .iter()
            // clamped: float noise can push d/eps marginally past 1,
            // which would wrongly zero the outermost ring of weights
            .map(|&d| j.eval((d / grid.eps).min(1.0)) * vol)
            .collect();
        let sum_w = weights.iter().sum();
        NonlocalKernel {
            stencil,
            weights,
            c: conductivity_constant_2d(k, grid.eps, j),
            sum_w,
            h: grid.h,
        }
    }

    /// Largest stable forward-Euler timestep scaled by `safety ∈ (0, 1]`.
    ///
    /// The stiffest mode of `du_i/dt = c Σ w (u_j − u_i)` has rate
    /// `λ ≤ 2·c·Σw`, so Δt ≤ 2/λ = 1/(c·Σw) keeps |1 − Δt·λ| ≤ 1.
    pub(crate) fn stable_dt(&self, safety: f64) -> f64 {
        assert!(safety > 0.0 && safety <= 1.0);
        safety / (self.c * self.sum_w)
    }

    /// Storage-index offsets of the stencil for a tile of row stride
    /// `stride` — the addressing of the scalar reference
    /// [`apply_region`](Self::apply_region).
    pub fn storage_offsets(&self, stride: i64) -> Vec<isize> {
        self.stencil
            .offsets
            .iter()
            .map(|&(di, dj)| (dj * stride + di) as isize)
            .collect()
    }

    /// Precompute the execution plan for tiles of row stride `stride`;
    /// build once per tile shape, reuse across steps with
    /// [`apply_region_blocked`](Self::apply_region_blocked).
    ///
    /// [`Stencil::build`] emits offsets dj-major with di ascending, so the
    /// ε-disk decomposes into runs of consecutive storage indices (one per
    /// stencil row; the dj = 0 row splits in two around the excluded
    /// center). Each run pairs a contiguous weight slice with a contiguous
    /// span of tile storage — the inner loop streams both.
    ///
    /// The plan runs at the widest [`VectorLevel`] the CPU reports.
    pub fn plan(&self, stride: i64) -> KernelPlan {
        self.plan_at(stride, VectorLevel::detect())
    }

    /// [`plan`](Self::plan) at a stated level — for the bit-identity pins
    /// and the bench suite, which run every [`VectorLevel::available`]
    /// level on one machine. Solvers call `plan`.
    pub fn plan_at(&self, stride: i64, level: VectorLevel) -> KernelPlan {
        let mut runs: Vec<WeightRun> = Vec::new();
        let mut prev: Option<(i64, i64)> = None;
        for (idx, &(di, dj)) in self.stencil.offsets.iter().enumerate() {
            let contiguous = prev == Some((di - 1, dj));
            if contiguous {
                runs.last_mut().unwrap().len += 1;
            } else {
                runs.push(WeightRun {
                    w0: idx,
                    len: 1,
                    off0: (dj * stride + di) as isize,
                });
            }
            prev = Some((di, dj));
        }
        KernelPlan {
            stride,
            runs,
            level,
        }
    }

    /// The scalar reference: one forward-Euler step over `region` (local
    /// coordinates of the tiles, which must share shape), one DP and one
    /// accumulator at a time. `origin` is the global cell index of the
    /// tiles' local (0,0); `repeats ≥ 1` re-executes the interaction sum
    /// to emulate a slower node (the heterogeneity knob of §7).
    ///
    /// Reads `curr` (interior + halo), writes `next` in `region` only.
    /// No solver runs this; it is the oracle the production kernel
    /// [`apply_region_blocked`](Self::apply_region_blocked) is pinned
    /// against, bit for bit.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_region(
        &self,
        curr: &Tile,
        next: &mut Tile,
        region: &Rect,
        offsets: &[isize],
        origin: (i64, i64),
        t: f64,
        dt: f64,
        source: &SourceFn,
        repeats: u32,
    ) {
        debug_assert_eq!(curr.stride(), next.stride());
        debug_assert!(curr.interior_rect().contains_rect(region));
        debug_assert!(self.stencil.reach <= curr.halo());
        debug_assert_eq!(offsets.len(), self.weights.len());
        let data = curr.data();
        let weights = &self.weights;
        let repeats = repeats.max(1);
        for lj in region.y0..region.y1() {
            let gj = origin.1 + lj;
            for li in region.x0..region.x1() {
                let gi = origin.0 + li;
                let base = curr.storage_index(li, lj);
                let ui = data[base];
                let mut interaction = 0.0;
                for _rep in 0..repeats {
                    let mut acc = 0.0;
                    for (w, off) in weights.iter().zip(offsets) {
                        // In-bounds: region ⊆ interior and |offset| ≤ halo,
                        // so base+off stays inside the padded tile.
                        let uj = data[(base as isize + off) as usize];
                        acc += w * (uj - ui);
                    }
                    // Prevent the optimizer from collapsing the repeats.
                    interaction = std::hint::black_box(acc);
                }
                let rhs = source.at(t, gi, gj) + self.c * interaction;
                next.set(li, lj, ui + dt * rhs);
            }
        }
    }

    /// The interaction sum `Σ_j w_j (u_j − u_i)` for every cell i of
    /// `region` (local coordinates of `field`), handed to `emit` one row
    /// segment of `W`, 4, 2 or 1 cells at a time as `(li, lj, u, sums)`:
    /// the local coordinates of the segment's first cell, then the
    /// segment's centre values and its sums. See the module docs for why
    /// segments, and why the sums are bit-equal to the scalar reference.
    ///
    /// # Panics
    /// Unless `plan` was built for `field`'s stride, the stencil fits the
    /// halo and `region` lies within the interior — so every cell `emit`
    /// sees is an interior cell of a tile of `field`'s shape.
    pub(crate) fn interaction_sums(
        &self,
        field: &Tile,
        region: &Rect,
        plan: &KernelPlan,
        repeats: u32,
        emit: impl FnMut(i64, i64, &[f64], &[f64]),
    ) {
        match plan.level {
            VectorLevel::Baseline => self.interaction_sums_body(field, region, plan, repeats, emit),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: the callee requires a CPU with AVX2. `plan.level` is
            // private and only `plan_at` sets it, from a caller's
            // `VectorLevel`; the `Avx2` payload has no constructor outside
            // this module, where `VectorLevel::available` builds it behind
            // `is_x86_feature_detected!("avx2")` and nowhere else. A
            // `VectorLevel::Avx2` in hand is therefore proof that this
            // process's CPU reports the feature.
            VectorLevel::Avx2(_) => unsafe {
                self.interaction_sums_avx2(field, region, plan, repeats, emit)
            },
        }
    }

    /// The body of [`interaction_sums`](Self::interaction_sums) compiled
    /// for 256-bit vectors: the same source, inlined with `emit` into a
    /// function the code generator may use AVX2 in. No `fma` — see the
    /// module docs.
    #[cfg(target_arch = "x86_64")]
    #[target_feature(enable = "avx2")]
    fn interaction_sums_avx2(
        &self,
        field: &Tile,
        region: &Rect,
        plan: &KernelPlan,
        repeats: u32,
        emit: impl FnMut(i64, i64, &[f64], &[f64]),
    ) {
        self.interaction_sums_body(field, region, plan, repeats, emit)
    }

    /// The one interaction-sum loop; `#[inline(always)]` so each
    /// [`VectorLevel`]'s entry compiles its own copy under its own target
    /// features.
    #[inline(always)]
    fn interaction_sums_body(
        &self,
        field: &Tile,
        region: &Rect,
        plan: &KernelPlan,
        repeats: u32,
        mut emit: impl FnMut(i64, i64, &[f64], &[f64]),
    ) {
        assert_eq!(
            plan.stride,
            field.stride(),
            "kernel plan was built for another tile stride"
        );
        assert!(
            self.stencil.reach <= field.halo(),
            "stencil reach {} exceeds the tile halo {}",
            self.stencil.reach,
            field.halo()
        );
        assert!(
            field.interior_rect().contains_rect(region),
            "region {region:?} leaves the tile interior"
        );
        debug_assert_eq!(
            plan.runs.iter().map(|r| r.len).sum::<usize>(),
            self.weights.len(),
            "plan does not cover this kernel's stencil"
        );
        let data = field.data();
        let repeats = repeats.max(1);
        let width = region.w as usize;
        for lj in region.y0..region.y1() {
            let row = field.storage_index(region.x0, lj);
            let mut x = 0;
            macro_rules! segments {
                ($n:expr) => {
                    while width - x >= $n {
                        let (u, sums) = self.segment_sums::<{ $n }>(data, plan, row + x, repeats);
                        emit(region.x0 + x as i64, lj, &u, &sums);
                        x += $n;
                    }
                };
            }
            segments!(W);
            // the narrower instances cover every remainder below W = 8
            segments!(4);
            segments!(2);
            segments!(1);
        }
    }

    /// Centre values and interaction sums of the `N` cells stored from
    /// `base`: run-outer, weight-middle, cell-inner.
    #[inline(always)]
    fn segment_sums<const N: usize>(
        &self,
        data: &[f64],
        plan: &KernelPlan,
        base: usize,
        repeats: u32,
    ) -> ([f64; N], [f64; N]) {
        let u: [f64; N] = data[base..base + N].try_into().expect("N cells");
        let mut sums = [0.0; N];
        for _rep in 0..repeats {
            let mut acc = [0.0; N];
            for run in &plan.runs {
                let ws = &self.weights[run.w0..run.w0 + run.len];
                let start = (base as isize + run.off0) as usize;
                // the N cells' neighbours under one weight are adjacent
                let us = &data[start..start + run.len + N - 1];
                for (w, uj) in ws.iter().zip(us.windows(N)) {
                    for k in 0..N {
                        acc[k] += w * (uj[k] - u[k]);
                    }
                }
            }
            // Prevent the optimizer from collapsing the repeats.
            sums = std::hint::black_box(acc);
        }
        (u, sums)
    }

    /// One forward-Euler step over `region` — the production kernel, with
    /// the arguments of [`apply_region`](Self::apply_region) except that a
    /// [`KernelPlan`] built for the tiles' stride replaces the offset
    /// table. Bit-identical to `apply_region`: the interaction sums match
    /// (see the module docs), [`Source::at_time`] returns the bits of
    /// [`Source::at`], and the update keeps the reference's association
    /// `u + Δt·(b + c·Σ)`.
    ///
    /// # Panics
    /// On the conditions of [`apply_into`](Self::apply_into).
    #[allow(clippy::too_many_arguments)]
    pub fn apply_region_blocked(
        &self,
        curr: &Tile,
        next: &mut Tile,
        region: &Rect,
        plan: &KernelPlan,
        origin: (i64, i64),
        t: f64,
        dt: f64,
        source: &SourceFn,
        repeats: u32,
    ) {
        let out = next.rect_mut(region);
        self.apply_into(curr, out, plan, origin, t, dt, source, repeats);
    }

    /// [`Self::apply_region_blocked`] over the rect of `out`, written
    /// through it: with [`TileWriter`](nlheat_mesh::TileWriter) rects,
    /// several workers update disjoint regions of one tile at once, and as
    /// a cell's value does not depend on the region it falls in, any
    /// disjoint decomposition gives a bit-identical tile.
    ///
    /// # Panics
    /// If `out`'s tile differs from `curr` in stride or halo, `plan` was
    /// built for another stride, the stencil reaches past `curr`'s halo,
    /// or the rect leaves its interior.
    #[allow(clippy::too_many_arguments)]
    pub fn apply_into(
        &self,
        curr: &Tile,
        mut out: RectMut<'_>,
        plan: &KernelPlan,
        origin: (i64, i64),
        t: f64,
        dt: f64,
        source: &SourceFn,
        repeats: u32,
    ) {
        assert!(
            out.geometry() == (curr.stride(), curr.halo()),
            "the written tile differs from the read one in geometry: stride or halo"
        );
        let region = out.rect();
        let source_row = source.at_time(t);
        let mut b = [0.0; W];
        self.interaction_sums(curr, &region, plan, repeats, |li, lj, u, sums| {
            let b = &mut b[..u.len()];
            source_row(origin.0 + li, origin.1 + lj, b);
            let cells = out.cells(li, lj, u.len());
            for k in 0..u.len() {
                let rhs = b[k] + self.c * sums[k];
                cells[k] = u[k] + dt * rhs;
            }
        });
    }
}

/// One maximal run of stencil offsets that are consecutive in tile storage:
/// `len` weights starting at `weights[w0]`, paired with the field values at
/// storage offsets `off0, off0+1, …` relative to the center cell.
#[derive(Debug, Clone, Copy)]
struct WeightRun {
    w0: usize,
    len: usize,
    off0: isize,
}

/// Stride-specific execution plan for
/// [`apply_region_blocked`](NonlocalKernel::apply_region_blocked), produced
/// by [`NonlocalKernel::plan`]. The kernel refuses tiles of any other
/// stride than the one recorded here.
#[derive(Debug, Clone)]
pub struct KernelPlan {
    stride: i64,
    runs: Vec<WeightRun>,
    /// Private: the kernel's `unsafe` dispatch trusts it.
    level: VectorLevel,
}

impl KernelPlan {
    /// The instantiation of the interaction sum this plan runs.
    pub fn level(&self) -> VectorLevel {
        self.level
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    impl VectorLevel {
        /// Stable lower-case name.
        fn name(self) -> &'static str {
            match self {
                VectorLevel::Baseline => "baseline",
                #[cfg(target_arch = "x86_64")]
                VectorLevel::Avx2(_) => "avx2",
            }
        }
    }
    use nlheat_mesh::{DisjointRects, TileWriter};

    /// A source that is identically zero.
    pub(crate) fn zero_source() -> SourceFn {
        Arc::new(|_: f64, _: i64, _: i64| 0.0)
    }

    fn grid_kernel(n: usize, eps_mult: f64) -> (Grid, NonlocalKernel) {
        let grid = Grid::square(n, eps_mult);
        let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Constant);
        (grid, kernel)
    }

    #[test]
    fn weights_are_volume_for_constant_j() {
        let (grid, kernel) = grid_kernel(20, 2.0);
        for &w in &kernel.weights {
            assert!((w - grid.cell_volume()).abs() < 1e-18);
        }
        let expected = kernel.stencil.len() as f64 * grid.cell_volume();
        assert!((kernel.sum_w - expected).abs() < 1e-15);
    }

    #[test]
    fn sum_w_approximates_disk_area() {
        // Σ w ≈ area of the ε-disk = π ε².
        let (grid, kernel) = grid_kernel(400, 8.0);
        let disk = std::f64::consts::PI * grid.eps * grid.eps;
        assert!(
            (kernel.sum_w - disk).abs() / disk < 0.05,
            "sum_w {} vs disk {}",
            kernel.sum_w,
            disk
        );
    }

    #[test]
    fn stable_dt_positive_and_scales() {
        let (_, kernel) = grid_kernel(50, 4.0);
        let dt1 = kernel.stable_dt(1.0);
        let dt_half = kernel.stable_dt(0.5);
        assert!(dt1 > 0.0);
        assert!((dt_half / dt1 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn constant_field_stays_constant_without_source() {
        // Σ w (u_j − u_i) = 0 for constant u; with b = 0 nothing changes.
        let (grid, kernel) = grid_kernel(12, 2.0);
        let halo = grid.halo;
        let mut curr = Tile::new(12, halo);
        // constant over interior AND halo so every stencil read sees 5.0
        curr.data_mut().fill(5.0);
        let mut next = Tile::new(12, halo);
        let offsets = kernel.storage_offsets(curr.stride());
        let region = curr.interior_rect();
        kernel.apply_region(
            &curr,
            &mut next,
            &region,
            &offsets,
            (0, 0),
            0.0,
            kernel.stable_dt(0.5),
            &zero_source(),
            1,
        );
        for (x, y) in region.cells() {
            assert!((next.get(x, y) - 5.0).abs() < 1e-14);
        }
    }

    #[test]
    fn source_only_integration() {
        // u = 0 everywhere, b = 3: after one step u = dt·3.
        let (grid, kernel) = grid_kernel(8, 2.0);
        let curr = Tile::new(8, grid.halo);
        let mut next = Tile::new(8, grid.halo);
        let offsets = kernel.storage_offsets(curr.stride());
        let dt = 0.01;
        let src: SourceFn = Arc::new(|_: f64, _: i64, _: i64| 3.0);
        let region = curr.interior_rect();
        kernel.apply_region(
            &curr,
            &mut next,
            &region,
            &offsets,
            (0, 0),
            0.0,
            dt,
            &src,
            1,
        );
        assert!((next.get(4, 4) - 0.03).abs() < 1e-15);
    }

    #[test]
    fn heat_flows_from_hot_to_cold() {
        let (grid, kernel) = grid_kernel(16, 2.0);
        let mut curr = Tile::new(16, grid.halo);
        // hot square in the middle
        Rect::new(6, 6, 4, 4)
            .cells()
            .for_each(|(x, y)| curr.set(x, y, 1.0));
        let mut next = Tile::new(16, grid.halo);
        let offsets = kernel.storage_offsets(curr.stride());
        let dt = kernel.stable_dt(0.5);
        let region = curr.interior_rect();
        kernel.apply_region(
            &curr,
            &mut next,
            &region,
            &offsets,
            (0, 0),
            0.0,
            dt,
            &zero_source(),
            1,
        );
        // center of the hot square cools, cold cell next to it warms
        assert!(next.get(7, 7) < 1.0);
        assert!(next.get(5, 7) > 0.0);
        // far away stays cold
        assert_eq!(next.get(0, 0), 0.0);
    }

    #[test]
    fn repeats_do_not_change_result() {
        let (grid, kernel) = grid_kernel(10, 2.0);
        let mut curr = Tile::new(10, grid.halo);
        for (i, (x, y)) in curr.interior_rect().cells().enumerate() {
            curr.set(x, y, (i % 7) as f64 * 0.1);
        }
        let offsets = kernel.storage_offsets(curr.stride());
        let dt = kernel.stable_dt(0.4);
        let region = curr.interior_rect();
        let mut next1 = Tile::new(10, grid.halo);
        let mut next3 = Tile::new(10, grid.halo);
        kernel.apply_region(
            &curr,
            &mut next1,
            &region,
            &offsets,
            (0, 0),
            0.0,
            dt,
            &zero_source(),
            1,
        );
        kernel.apply_region(
            &curr,
            &mut next3,
            &region,
            &offsets,
            (0, 0),
            0.0,
            dt,
            &zero_source(),
            3,
        );
        for (x, y) in region.cells() {
            assert_eq!(next1.get(x, y), next3.get(x, y));
        }
    }

    /// A tile whose every padded cell holds an irregular, sign-mixed value
    /// (exercises cancellation), and a source that varies in time and space.
    fn irregular_tile(n: i64, halo: i64) -> (Tile, SourceFn) {
        let mut curr = Tile::new(n, halo);
        for (i, (x, y)) in curr.padded_rect().cells().enumerate() {
            curr.set(x, y, ((i * 2654435761) % 1000) as f64 * 1e-3 - 0.5);
        }
        let src: SourceFn =
            Arc::new(|t: f64, gi: i64, gj: i64| (3.0 * t).sin() + 0.01 * (gi - gj) as f64);
        (curr, src)
    }

    /// The scalar kernel and the blocked one at every level this CPU runs,
    /// over `region`; panics unless they agree bit for bit.
    fn assert_blocked_matches_scalar(
        kernel: &NonlocalKernel,
        curr: &Tile,
        src: &SourceFn,
        region: &Rect,
        repeats: u32,
    ) {
        let offsets = kernel.storage_offsets(curr.stride());
        let dt = kernel.stable_dt(0.5);
        let mut next_s = Tile::new(curr.sd(), curr.halo());
        kernel.apply_region(
            curr,
            &mut next_s,
            region,
            &offsets,
            (7, -3),
            0.25,
            dt,
            src,
            repeats,
        );
        for level in VectorLevel::available() {
            let plan = kernel.plan_at(curr.stride(), level);
            assert!(plan.runs.len() < offsets.len(), "runs must coalesce");
            let mut next_b = Tile::new(curr.sd(), curr.halo());
            kernel.apply_region_blocked(
                curr,
                &mut next_b,
                region,
                &plan,
                (7, -3),
                0.25,
                dt,
                src,
                repeats,
            );
            // whole tiles: cells outside the region must stay untouched too
            for (x, y) in curr.padded_rect().cells() {
                assert_eq!(
                    next_s.get(x, y).to_bits(),
                    next_b.get(x, y).to_bits(),
                    "mismatch at ({x},{y}) region={region:?} repeats={repeats} level={level:?}"
                );
            }
        }
    }

    #[test]
    fn blocked_matches_scalar_bitwise() {
        // The W-wide kernel must reproduce the flat scalar loop bit for bit,
        // at every vector level: every cell keeps its accumulation order
        // whichever segment width it lands in. Widths 1..=4W+1 at x-offsets
        // 0..W reach every mix of the 8/4/2/1 bodies at every alignment;
        // Triangular makes the weights non-uniform, so a misplaced weight
        // cannot cancel out.
        for influence in [Influence::Constant, Influence::Triangular] {
            for (n, eps_mult) in [(12usize, 2.0), (30, 4.0), (50, 8.0)] {
                let grid = Grid::square(n, eps_mult);
                let kernel = NonlocalKernel::new(&grid, 1.0, influence);
                let n = n as i64;
                let (curr, src) = irregular_tile(n, grid.halo);
                assert_blocked_matches_scalar(&kernel, &curr, &src, &curr.interior_rect(), 1);
                for x0 in 0..W as i64 {
                    for w in 1..=(4 * W as i64 + 1).min(n - x0) {
                        let region = Rect::new(x0, 1, w, 3);
                        let repeats = if (x0 + w) % 2 == 0 { 1 } else { 3 };
                        assert_blocked_matches_scalar(&kernel, &curr, &src, &region, repeats);
                    }
                }
            }
        }
    }

    #[test]
    fn every_term_rounds_its_product_before_the_add() {
        // The pins above compare two kernels of one binary, which a build
        // that fuses multiply and add everywhere (`-C target-cpu=native`
        // on an FMA machine, if the compiler ever contracted) would pass
        // while disagreeing with every other build. This one has a fixed
        // answer. A cell at 0 between neighbours at +d and −d sums
        // `0 + w·d` and then `+ w·(−d)`: rounded separately the two
        // products cancel exactly; a fused second term keeps the rounding
        // error of `w·d` instead.
        let (grid, kernel) = grid_kernel(12, 2.0);
        let (w, d) = (kernel.weights[0], 0.3);
        assert_ne!(w.mul_add(d, -(w * d)), 0.0, "w·d must be inexact");
        let mut curr = Tile::new(12, grid.halo);
        curr.set(5, 6, d);
        curr.set(7, 6, -d);
        let region = Rect::new(6, 6, 1, 1);
        let dt = kernel.stable_dt(0.5);
        let mut next = Tile::new(12, grid.halo);
        next.set(6, 6, f64::NAN);
        let offsets = kernel.storage_offsets(curr.stride());
        kernel.apply_region(
            &curr,
            &mut next,
            &region,
            &offsets,
            (0, 0),
            0.0,
            dt,
            &zero_source(),
            1,
        );
        assert_eq!(next.get(6, 6).to_bits(), 0.0f64.to_bits(), "scalar");
        // rows that put the cell in the 8-, 4-, 2- and 1-wide bodies
        for (level, (x0, width)) in VectorLevel::available()
            .into_iter()
            .flat_map(|l| [(0, 12), (4, 4), (6, 2), (6, 1)].map(|row| (l, row)))
        {
            next.set(6, 6, f64::NAN);
            let plan = kernel.plan_at(curr.stride(), level);
            kernel.apply_region_blocked(
                &curr,
                &mut next,
                &Rect::new(x0, 6, width, 1),
                &plan,
                (0, 0),
                0.0,
                dt,
                &zero_source(),
                1,
            );
            assert_eq!(
                next.get(6, 6).to_bits(),
                0.0f64.to_bits(),
                "{level:?}, a row of {width} from {x0}"
            );
        }
    }

    #[test]
    fn row_bands_through_the_writer_match_scalar_bitwise() {
        // Intra-step stealing covers a region with disjoint row bands, each
        // claimed from one `TileWriter` and written by its own thread; the
        // tile must equal the scalar reference's whatever the band height.
        let grid = Grid::square(27, 4.0);
        let kernel = NonlocalKernel::new(&grid, 1.0, Influence::Triangular);
        let (curr, src) = irregular_tile(27, grid.halo);
        let dt = kernel.stable_dt(0.5);
        let region = Rect::new(2, 1, 23, 25);
        let mut reference = Tile::new(27, grid.halo);
        kernel.apply_region(
            &curr,
            &mut reference,
            &region,
            &kernel.storage_offsets(curr.stride()),
            (0, 0),
            0.5,
            dt,
            &src,
            3,
        );
        let bands = [1, 4, 25];
        let levels = VectorLevel::available();
        for (band, level) in bands
            .into_iter()
            .flat_map(|b| levels.iter().map(move |&l| (b, l)))
        {
            let plan = kernel.plan_at(curr.stride(), level);
            let rows = (region.y0..region.y1()).step_by(band).map(|y0| {
                let h = (band as i64).min(region.y1() - y0);
                Rect::new(region.x0, y0, region.w, h)
            });
            let mut next = Tile::new(27, grid.halo);
            let mut bands = DisjointRects::new(&curr, rows.clone());
            let writer = TileWriter::new(&mut next, &mut bands);
            std::thread::scope(|s| {
                for band_no in 0..rows.count() {
                    let (kernel, curr, plan, src, writer) = (&kernel, &curr, &plan, &src, &writer);
                    s.spawn(move || {
                        let out = writer.claim(band_no);
                        kernel.apply_into(curr, out, plan, (0, 0), 0.5, dt, src, 3);
                    });
                }
            });
            assert_eq!(next, reference, "band height {band}, {level:?}");
        }
    }

    #[test]
    fn plan_runs_at_the_widest_level_the_cpu_reports() {
        let (_, kernel) = grid_kernel(12, 2.0);
        let level = kernel.plan(16).level();
        #[cfg(target_arch = "x86_64")]
        assert_eq!(
            level.name() == "avx2",
            std::arch::is_x86_feature_detected!("avx2")
        );
        #[cfg(not(target_arch = "x86_64"))]
        assert_eq!(level, VectorLevel::Baseline);
        let available = VectorLevel::available();
        assert_eq!(available[0], VectorLevel::Baseline);
        assert_eq!(available.last(), Some(&level));
        for (i, l) in available.into_iter().enumerate() {
            assert_eq!(l.index(), i as u64);
            assert_eq!(kernel.plan_at(16, l).level(), l);
        }
    }

    /// One blocked step on a 12-cell tile with a geometry error: a plan
    /// built `stride_off` off the tile's stride, `halo_cut` cells taken
    /// off the halo the stencil needs, over `region`.
    fn refused(level: VectorLevel, stride_off: i64, halo_cut: i64, region: Rect) {
        let (grid, kernel) = grid_kernel(12, 2.0);
        let curr = Tile::new(12, grid.halo - halo_cut);
        let mut next = Tile::new(12, grid.halo - halo_cut);
        let plan = kernel.plan_at(curr.stride() + stride_off, level);
        kernel.apply_region_blocked(
            &curr,
            &mut next,
            &region,
            &plan,
            (0, 0),
            0.0,
            0.001,
            &zero_source(),
            1,
        );
    }

    /// The three geometry `assert!`s keep every read inside `curr` and
    /// every write inside the region, so a level must refuse everything
    /// the baseline refuses: each of them fires at each level.
    macro_rules! refusals {
        ($($module:ident = $level:expr;)*) => {$(
            mod $module {
                use super::*;

                #[test]
                #[should_panic(expected = "another tile stride")]
                fn plan_for_another_stride_is_refused() {
                    refused($level, 1, 0, Rect::new(0, 0, 12, 12));
                }

                #[test]
                #[should_panic(expected = "exceeds the tile halo")]
                fn stencil_reaching_past_the_halo_is_refused() {
                    refused($level, 0, 1, Rect::new(0, 0, 12, 12));
                }

                #[test]
                #[should_panic(expected = "leaves the tile interior")]
                fn region_outside_the_interior_is_refused() {
                    // one column into the halo: a write there would still
                    // be in bounds of the storage, but it is not a cell
                    // this kernel may update
                    refused($level, 0, 0, Rect::new(1, 0, 12, 12));
                }
            }
        )*};
    }
    refusals! {
        at_baseline = VectorLevel::Baseline;
        at_the_detected_level = VectorLevel::detect();
    }

    #[test]
    fn partial_region_leaves_rest_untouched() {
        let (grid, kernel) = grid_kernel(10, 2.0);
        let mut curr = Tile::new(10, grid.halo);
        Rect::new(0, 0, 10, 10)
            .cells()
            .for_each(|(x, y)| curr.set(x, y, 1.0));
        let mut next = Tile::new(10, grid.halo);
        let offsets = kernel.storage_offsets(curr.stride());
        let region = Rect::new(0, 0, 5, 10); // left half only
        kernel.apply_region(
            &curr,
            &mut next,
            &region,
            &offsets,
            (0, 0),
            0.0,
            0.001,
            &zero_source(),
            1,
        );
        assert_ne!(next.get(0, 0), 0.0);
        assert_eq!(next.get(7, 5), 0.0, "right half must stay untouched");
    }
}
