//! The frozen reference loops every timing is divided by.
//!
//! Raw wall-clock on a small shared box drifts by tens of percent over
//! seconds; the same drift hits these loops, so the ratio repeats where the
//! raw number does not. They call **no repository code** — no optimisation
//! of the workspace can move them, so a change in `unit_rel` is a change in
//! the program.
//!
//! There are two because contention does not slow all code alike. On the
//! reference VM one kind of busy hour slowed the floating-point stencil by
//! 1.6–2× but the planners and the parcel path by 1.3–1.4×: divided by the
//! stencil, `plan_scale` moved 14 % and `dist_ghost_heavy` 28 % between a
//! calm and a noisy hour. Another kind slowed pointer-heavy code more than
//! the stencil. No single loop tracks every workload, so each workload
//! names the loop that, measured, left it the smallest run-to-run spread:
//!
//! * [`Reference::Stencil`] — a plain radius-8 disc stencil over a 400×400
//!   `f64` interior: the kernel-bound `dist_*` workloads and `sim_sweep`;
//! * [`Reference::General`] — ordered-map churn with small allocations:
//!   `dist_ghost_heavy` and `plan_scale`.
//!
//! The N-thread form runs on two long-lived threads (the stencil splits its
//! rows between them, the general loop runs once on each). Fresh threads
//! would measure the guest scheduler instead of the machine: on the
//! reference VM two newly spawned threads share one vCPU for up to a second
//! before one is migrated.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::Instant;

/// Interior side of the reference mesh.
const N: usize = 400;
/// Stencil radius in cells.
const R: usize = 8;
/// Row stride of the padded source array.
const STRIDE: usize = N + 2 * R;
/// Diffusion weight; small enough that the output stays bounded.
const C: f64 = 1e-3;
/// Keys one pass of the general loop files.
const KEYS: usize = 100_000;
/// Buckets the general loop's map holds at most.
const BUCKETS: u64 = 4096;
/// Threads of the N-thread form: the compute threads every workload uses.
pub const THREADS: usize = 2;

/// Which reference loop a timing is divided by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reference {
    Stencil,
    General,
}

/// The inputs of both loops.
struct Loops {
    /// The padded source mesh and the disc stencil's flat offsets.
    src: Vec<f64>,
    offsets: Vec<isize>,
    /// The pseudo-random keys the general loop files.
    keys: Vec<u64>,
}

impl Loops {
    fn new() -> Self {
        let src = (0..STRIDE * STRIDE)
            .map(|i| (i % 17) as f64 * 0.25)
            .collect();
        let r = R as isize;
        let mut offsets = Vec::new();
        for dy in -r..=r {
            for dx in -r..=r {
                if dx * dx + dy * dy <= r * r {
                    offsets.push(dy * STRIDE as isize + dx);
                }
            }
        }
        let keys = (0..KEYS as u64)
            .map(|i| i.wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 11)
            .collect();
        Loops { src, offsets, keys }
    }

    /// Sweep interior rows `rows` into `out` (row-major, `N` per row).
    fn sweep_rows(&self, rows: std::ops::Range<usize>, out: &mut [f64]) {
        let src = black_box(&self.src[..]);
        for (y, out_row) in rows.zip(out.chunks_mut(N)) {
            for (x, cell) in out_row.iter_mut().enumerate() {
                let centre = (y + R) * STRIDE + x + R;
                let u = src[centre];
                let mut acc = 0.0;
                for &off in &self.offsets {
                    acc += src[(centre as isize + off) as usize] - u;
                }
                *cell = u + C * acc;
            }
        }
        black_box(out);
    }

    /// One pass of the general loop: file every key into a bucket of an
    /// ordered map, flush full buckets, drop a bucket now and then.
    fn general_pass(&self) -> u64 {
        let mut map: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
        let mut sum = 0u64;
        for (i, &key) in black_box(&self.keys[..]).iter().enumerate() {
            let bucket = map.entry(key % BUCKETS).or_default();
            bucket.push(key);
            if bucket.len() > 8 {
                sum = sum.wrapping_add(bucket.iter().sum::<u64>());
                bucket.clear();
            }
            if i % 7 == 0 {
                if let Some(dropped) = map.remove(&((key >> 7) % BUCKETS)) {
                    sum = sum.wrapping_add(dropped.len() as u64);
                }
            }
        }
        black_box(sum.wrapping_add(map.len() as u64))
    }

    /// One pass of `reference` as band `band` of `bands` threads.
    fn pass(&self, reference: Reference, band: usize, bands: usize, out: &mut [f64]) {
        match reference {
            Reference::Stencil => {
                let rows = N / bands;
                self.sweep_rows(band * rows..(band + 1) * rows, &mut out[..rows * N]);
            }
            Reference::General => {
                self.general_pass();
            }
        }
    }
}

/// State shared between the calibrator and its band threads.
struct Shared {
    loops: Loops,
    start: Barrier,
    end: Barrier,
    /// What the next round runs: the loop and how many passes of it.
    general: AtomicBool,
    passes: AtomicUsize,
    stop: AtomicBool,
}

/// The reference loops with their two parked band threads.
pub struct Calib {
    shared: Arc<Shared>,
    out: Vec<f64>,
    bands: Vec<JoinHandle<()>>,
}

impl Calib {
    pub fn new() -> Self {
        let shared = Arc::new(Shared {
            loops: Loops::new(),
            start: Barrier::new(THREADS + 1),
            end: Barrier::new(THREADS + 1),
            general: AtomicBool::new(false),
            passes: AtomicUsize::new(0),
            stop: AtomicBool::new(false),
        });
        let bands = (0..THREADS)
            .map(|band| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("calib-{band}"))
                    .spawn(move || {
                        let mut out = vec![0.0; N / THREADS * N];
                        loop {
                            shared.start.wait();
                            // SeqCst pairs with the stores in `time_ms` and
                            // `drop`; the barrier already orders them.
                            if shared.stop.load(Ordering::SeqCst) {
                                return;
                            }
                            let reference = if shared.general.load(Ordering::SeqCst) {
                                Reference::General
                            } else {
                                Reference::Stencil
                            };
                            for _ in 0..shared.passes.load(Ordering::SeqCst) {
                                shared.loops.pass(reference, band, THREADS, &mut out);
                            }
                            shared.end.wait();
                        }
                    })
                    .expect("spawn calibration thread")
            })
            .collect();
        Calib {
            shared,
            out: vec![0.0; N * N],
            bands,
        }
    }

    /// Milliseconds per pass of `reference`, averaged over `passes` passes:
    /// on the calling thread when `threads` is 1, on the [`THREADS`] band
    /// threads otherwise.
    pub fn time_ms(&mut self, reference: Reference, threads: usize, passes: usize) -> f64 {
        let t0 = Instant::now();
        if threads == 1 {
            for _ in 0..passes {
                self.shared.loops.pass(reference, 0, 1, &mut self.out);
            }
        } else {
            self.shared
                .general
                .store(reference == Reference::General, Ordering::SeqCst);
            self.shared.passes.store(passes, Ordering::SeqCst);
            self.shared.start.wait();
            self.shared.end.wait();
        }
        t0.elapsed().as_secs_f64() * 1e3 / passes as f64
    }
}

impl Drop for Calib {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        self.shared.start.wait();
        for band in self.bands.drain(..) {
            // a band thread only panics on an internal bug; nothing to
            // recover while dropping
            let _ = band.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disc_has_197_points() {
        assert_eq!(Loops::new().offsets.len(), 197);
    }

    #[test]
    fn banded_rows_equal_the_full_sweep() {
        let loops = Loops::new();
        let mut full = vec![0.0; N * N];
        loops.pass(Reference::Stencil, 0, 1, &mut full);
        let mut lower = vec![0.0; N / 2 * N];
        loops.pass(Reference::Stencil, 1, 2, &mut lower);
        assert_eq!(&full[N / 2 * N..], &lower[..]);
    }

    #[test]
    fn the_general_pass_is_deterministic() {
        let loops = Loops::new();
        assert_eq!(loops.general_pass(), loops.general_pass());
    }

    #[test]
    fn every_form_times_and_the_threads_stop() {
        let mut c = Calib::new();
        for reference in [Reference::Stencil, Reference::General] {
            assert!(c.time_ms(reference, 1, 1) > 0.0);
            assert!(c.time_ms(reference, THREADS, 1) > 0.0);
        }
        drop(c);
    }
}
