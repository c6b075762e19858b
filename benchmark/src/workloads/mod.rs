//! The six workloads. Each is a closed loop of one run at a time: an
//! *on* leg (the workload as its users run it, which `unit_rel` times)
//! and an *off* leg (the same work with the workload's mechanism switched
//! off, which `mech_gain` compares against).

mod dist;
mod dist_probes;
mod plan_scale;
mod sim_sweep;

use crate::calib::Reference;
use crate::metrics::LayerMetrics;
use crate::runner::Ctx;
use crate::stats::Summary;

/// The timed outcome of an on leg.
pub struct Leg {
    /// Time of one unit of work (a time step, a sweep pass, a planning
    /// pass), in milliseconds, excluding set-up.
    pub unit_ms: f64,
    /// The same time in units of the calibration sweep that bracketed it
    /// ([`Ctx::timed`]).
    pub unit_rel: f64,
    /// Set-up time the leg paid before its timed section, in seconds.
    pub setup_s: f64,
}

/// The outcome of an off leg.
#[derive(Debug, Clone, Copy)]
pub enum Off {
    /// A timed leg: milliseconds per unit of work, raw and in units of
    /// the calibration sweep, to be compared with the on leg.
    Leg { unit_ms: f64, unit_rel: f64 },
    /// The gain itself, for mechanisms that are not a second timed run.
    Gain(f64),
}

pub trait Workload {
    /// The reference loop this workload's times are divided by — the one
    /// of its own character — and on how many threads: the compute threads
    /// the workload keeps busy.
    fn reference(&self) -> (Reference, usize);

    /// Run the workload once and check its outputs.
    fn on_leg(&mut self, ctx: &mut Ctx) -> Leg;

    /// Run the mechanism-off counterpart once and check its outputs.
    fn off_leg(&mut self, ctx: &mut Ctx) -> Off;

    /// Traced run only: timed calls into each layer's public functions on
    /// this workload's shapes. `unit` summarises the untraced unit times
    /// in milliseconds.
    fn probes(&mut self, ctx: &mut Ctx, layers: &mut LayerMetrics, unit: &Summary);
}

/// Build workload `name` with inputs generated from `seed`; `smoke`
/// shrinks it so the runner itself can be exercised in seconds.
pub fn build(name: &str, seed: u64, smoke: bool, ctx: &mut Ctx) -> Box<dyn Workload> {
    match name {
        "sim_sweep" => Box::new(sim_sweep::SimSweep::new(seed, smoke, ctx)),
        "plan_scale" => Box::new(plan_scale::PlanScale::new(seed, smoke)),
        _ => Box::new(dist::Dist::new(name, seed, smoke, ctx)),
    }
}

/// `n` rank speeds: the ladder 1.0, 1.25, … 2.5 repeated, rotated by the
/// seed, so every seed has the same capacity mix in another arrangement.
pub fn speed_ladder(n: usize, seed: u64) -> Vec<f64> {
    (0..n as u64)
        .map(|i| 1.0 + ((i + seed) % 7) as f64 * 0.25)
        .collect()
}

/// Time `f` repeatedly for at least `min_ms` milliseconds and return
/// nanoseconds per call.
pub fn ns_per_call(min_ms: f64, mut f: impl FnMut()) -> f64 {
    let t0 = std::time::Instant::now();
    let mut calls = 0u64;
    loop {
        f();
        calls += 1;
        let elapsed = t0.elapsed().as_secs_f64();
        if elapsed * 1e3 >= min_ms {
            return elapsed * 1e9 / calls as f64;
        }
    }
}
