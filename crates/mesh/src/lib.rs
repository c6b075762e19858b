//! # nlheat-mesh — discretization substrate for the nonlocal solver
//!
//! Implements §3.1 and §6.1 of Gadikar, Diehl & Jha 2021: the uniform grid
//! over the unit square with its nonlocal collar, the ε-ball interaction
//! stencil, the decomposition into square sub-domains (SDs), per-SD padded
//! tiles with halo storage and a writer that lends disjoint rects of a
//! tile to concurrent tasks, halo exchange plans (one translation-invariant
//! template per grid, instantiated per SD), and the case-1/case-2
//! classification of discretized points (DPs) that lets computation overlap
//! communication (§6.3, Fig. 5).
//!
//! Coordinate frames (all cell indices, `i64`):
//! * **global** — cell `(gi, gj)` of the full mesh; the domain D is
//!   `[0, nx) × [0, ny)`, the collar D_c is the surrounding ring of width
//!   `halo` cells where the temperature is pinned to zero.
//! * **SD-local** — relative to an SD's origin; the SD interior is
//!   `[0, sd) × [0, sd)` and its halo extends to `[-halo, sd + halo)`.
//! * **tile storage** — SD-local shifted by `+halo`, used only inside
//!   [`tile::Tile`].

mod cases;
mod grid;
mod halo;
mod rect;
mod stencil;
mod subdomain;
mod tile;

pub use cases::{split_cases, CaseSplit};
pub use grid::Grid;
pub use halo::{build_halo_plan, HaloPatch, HaloPlan, HaloTemplate, PatchSource, TemplatePatch};
pub use rect::Rect;
pub use stencil::Stencil;
pub use subdomain::{SdGrid, SdId};
pub use tile::{DisjointRects, RectMut, Tile, TileWriter};
