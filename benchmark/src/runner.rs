//! Runs one workload in one process: warm-up, calibration-bracketed
//! repetitions, checks, aggregation, and the result lines.
//!
//! The last line of standard output is the result object the driver
//! reads; the line before it (`{"detail": …}`) carries the quartiles,
//! samples and flags the `run` subcommand stores in result files.

use crate::calib::{self, Calib, Reference};
use crate::json::Json;
use crate::machine;
use crate::metrics::{self, LayerMetrics, MetricDef, END_TO_END, PER_LAYER};
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use crate::workloads::{self, Off, Workload};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Passes per calibration sample: long enough to time, short enough to
/// stay inside the machine phase the neighbouring leg ran in.
const CALIB_PASSES: usize = 2;
/// Sustained two-thread load before the first timed rep; the reference
/// VM's guest scheduler keeps fresh threads on one vCPU for about that long.
const WARM_UP: Duration = Duration::from_millis(1000);
/// Reps run and thrown away before measuring (page faults, lazy set-up).
const DISCARDED_REPS: usize = 2;
/// Reps of a smoke run and the least a full run makes; a traced run makes
/// as many traced as untraced.
const FIXED_REPS: usize = 3;
/// `calib_nt_ms` above this share of `calib_1t_ms` means the two compute
/// threads are not getting two cores.
const RAMP_LIMIT: f64 = 0.65;
/// `setup_s` is this quantile of the per-rep set-up times. Set-up is
/// single-threaded, deterministic work that contention only ever adds to,
/// so the lower decile estimates the uncontended set-up: over ten runs on
/// the reference VM it repeated within 3-12 % where the median moved
/// 23-41 %.
const SETUP_QUANTILE: f64 = 0.1;

/// Command-line options of one workload process.
#[derive(Debug, Clone)]
pub struct Opts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    pub trace_file: Option<PathBuf>,
}

/// Output checks: attempted and failed counts feed the result line.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
    failures: Vec<String>,
}

impl Checks {
    /// Record one check; a failure keeps its description for the report.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.fail(what.to_string());
        }
    }

    fn fail(&mut self, what: String) {
        self.failed += 1;
        // keep the report readable when every rep fails the same way
        if self.failures.len() < 16 {
            self.failures.push(what);
        }
    }

    /// Run `f` as a check: a panic (a refused configuration, a violated
    /// report invariant) counts as one failed check instead of ending the
    /// process.
    pub fn guard<T>(&mut self, what: &str, f: impl FnOnce() -> T) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(v) => Some(v),
            Err(payload) => {
                self.fail(format!("{what}: {}", panic_message(payload.as_ref())));
                None
            }
        }
    }
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<String>()
        .map(String::as_str)
        .or_else(|| payload.downcast_ref::<&str>().copied())
        .unwrap_or("panic")
}

/// What a workload's legs and probes get to work with.
pub struct Ctx {
    pub tracer: Tracer,
    pub checks: Checks,
    calib: Calib,
    /// The reference loop timings are divided by, and on how many threads
    /// (the workload's character and its compute threads).
    reference: (Reference, usize),
    /// The latest calibration sample and when it ended.
    last_calib: Option<(f64, Instant)>,
    calib_samples: Vec<f64>,
}

/// One measured repetition.
struct Rep {
    on_ms: f64,
    on_rel: f64,
    setup_s: f64,
    off: Off,
}

/// Ends the process if it outlives its deadline (a panicking driver
/// thread can leave a cluster parked forever), so the caller always gets
/// an exit code in bounded time.
struct Watchdog {
    disarm: Option<std::sync::mpsc::Sender<()>>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Watchdog {
    fn arm(limit: Duration) -> Self {
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            if rx.recv_timeout(limit) == Err(std::sync::mpsc::RecvTimeoutError::Timeout) {
                eprintln!("benchmark: still running after {limit:?}; giving up");
                std::process::exit(3);
            }
        });
        Watchdog {
            disarm: Some(tx),
            thread: Some(thread),
        }
    }
}

impl Drop for Watchdog {
    fn drop(&mut self) {
        drop(self.disarm.take());
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// A calibration sample may close one timed section and open the next
/// only if nothing else ran in between.
const CALIB_REUSE: Duration = Duration::from_millis(2);

impl Ctx {
    fn calibrate(&mut self) -> f64 {
        let (reference, threads) = self.reference;
        let ms = self.calib.time_ms(reference, threads, CALIB_PASSES);
        self.calib_samples.push(ms);
        self.last_calib = Some((ms, Instant::now()));
        ms
    }

    /// Run `f` with a calibration sweep immediately before and after it.
    /// Returns `f`'s value, its wall milliseconds, and the mean of the two
    /// calibration samples: the reference the caller divides its time by.
    /// Long legs call this once per chunk of work, so every chunk is
    /// compared with the machine as it was while the chunk ran.
    pub fn timed<T>(&mut self, f: impl FnOnce(&mut Ctx) -> T) -> (T, f64, f64) {
        let before = match self.last_calib {
            Some((ms, at)) if at.elapsed() < CALIB_REUSE => ms,
            _ => self.calibrate(),
        };
        let t0 = Instant::now();
        let out = f(self);
        let ms = t0.elapsed().as_secs_f64() * 1e3;
        let after = self.calibrate();
        (out, ms, (before + after) / 2.0)
    }

    /// [`Checks::guard`] for a closure that itself needs the context.
    fn checks_guard<T>(&mut self, what: &str, f: impl FnOnce(&mut Ctx) -> T) -> Option<T> {
        self.checks.attempted += 1;
        match catch_unwind(AssertUnwindSafe(|| f(self))) {
            Ok(v) => Some(v),
            Err(payload) => {
                self.checks
                    .fail(format!("{what}: {}", panic_message(payload.as_ref())));
                // a span the leg left open would poison every later one
                self.tracer = Tracer::new(self.tracer.enabled(), self.tracer.workload());
                None
            }
        }
    }
}

/// Keep both calibration threads busy for [`WARM_UP`], then check with the
/// stencil that two threads really get two cores; re-warm up to three times
/// before flagging the run degraded. Returns `(calib_1t_ms, calib_nt_ms,
/// degraded)`.
fn warm_up(calib: &mut Calib) -> (f64, f64, bool) {
    let stencil_ms = |calib: &mut Calib, threads| {
        stats::median(&[0; 3].map(|_| calib.time_ms(Reference::Stencil, threads, CALIB_PASSES)))
    };
    let mut last = (0.0, 0.0);
    for _attempt in 0..=3 {
        let t0 = Instant::now();
        while t0.elapsed() < WARM_UP {
            calib.time_ms(Reference::Stencil, calib::THREADS, CALIB_PASSES);
        }
        last = (stencil_ms(calib, 1), stencil_ms(calib, calib::THREADS));
        if last.1 <= RAMP_LIMIT * last.0 {
            return (last.0, last.1, false);
        }
    }
    (last.0, last.1, true)
}

fn run_rep(w: &mut dyn Workload, ctx: &mut Ctx) -> Option<Rep> {
    let on = ctx.checks_guard("on leg", |ctx| w.on_leg(ctx))?;
    let off = ctx.checks_guard("off leg", |ctx| w.off_leg(ctx))?;
    Some(Rep {
        on_ms: on.unit_ms,
        on_rel: on.unit_rel,
        setup_s: on.setup_s,
        off,
    })
}

/// One end-to-end metric of a finished run: its reported value and the
/// per-rep samples behind it.
struct EndToEnd {
    def: MetricDef,
    value: f64,
    samples: Summary,
}

/// The off legs' raw unit times, for workloads whose off leg is timed.
fn off_unit_ms(reps: &[Rep]) -> Vec<f64> {
    reps.iter()
        .filter_map(|r| match r.off {
            Off::Leg { unit_ms, .. } => Some(unit_ms),
            Off::Gain(_) => None,
        })
        .collect()
}

/// The end-to-end metrics of `reps`, in [`END_TO_END`] order.
fn end_to_end(reps: &[Rep]) -> Vec<EndToEnd> {
    let on_rel: Vec<f64> = reps.iter().map(|r| r.on_rel).collect();
    let setup: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    // A timed off leg is compared with the on leg it followed: the two ran
    // back to back, so machine drift mostly cancels in their ratio. A
    // workload that states its gain directly (a count, or a ratio timed
    // inside one leg) has it taken as is.
    let gains: Vec<f64> = reps
        .iter()
        .map(|r| match r.off {
            Off::Leg { unit_rel, .. } => unit_rel / r.on_rel,
            Off::Gain(gain) => gain,
        })
        .collect();
    let rss = machine::peak_rss_mb().unwrap_or(0.0);
    END_TO_END
        .iter()
        .map(|&(def, _)| {
            let (value, samples) = match def.name {
                "setup_s" => (stats::quantile(&setup, SETUP_QUANTILE), &setup[..]),
                "unit_rel" => (stats::median(&on_rel), &on_rel[..]),
                "mech_gain" => (stats::median(&gains), &gains[..]),
                "peak_rss_mb" => (rss, std::slice::from_ref(&rss)),
                other => unreachable!("no rule for end-to-end metric {other}"),
            };
            EndToEnd {
                def,
                value,
                samples: Summary::of(samples),
            }
        })
        .collect()
}

fn nums(values: impl IntoIterator<Item = f64>) -> Json {
    Json::Arr(values.into_iter().map(Json::Num).collect())
}

fn summary_json(value: f64, unit: &str, s: &Summary) -> Json {
    let mut members = vec![
        ("value".to_string(), Json::Num(value)),
        ("unit".to_string(), Json::str(unit)),
        ("n".to_string(), Json::Num(s.n as f64)),
        ("min".to_string(), Json::Num(s.min)),
        ("p25".to_string(), Json::Num(s.p25)),
        ("median".to_string(), Json::Num(s.median)),
        ("p75".to_string(), Json::Num(s.p75)),
        ("p90".to_string(), Json::Num(s.p90)),
    ];
    if let Some((q, v)) = s.tail {
        members.push(("tail_q".to_string(), Json::Num(q)));
        members.push(("tail".to_string(), Json::Num(v)));
    }
    Json::Obj(members)
}

fn print_summary(name: &str, unit: &str, value: f64, s: &Summary) {
    let tail = s
        .tail
        .map(|(q, v)| format!("  p{:.0}={v:.4}", q * 100.0))
        .unwrap_or_default();
    println!(
        "  {name:<34} {value:>12.4} {unit:<8} n={:<3} min={:.4} p25={:.4} med={:.4} p75={:.4} p90={:.4}{tail}",
        s.n, s.min, s.p25, s.median, s.p75, s.p90
    );
}

/// `{name: {"value": v, "unit": u}}` for the result line.
fn metric_values<'a>(metrics: impl IntoIterator<Item = (&'a str, f64, &'a str)>) -> Json {
    Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                let entry = Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]);
                (name.to_string(), entry)
            })
            .collect(),
    )
}

/// The untraced reps and, in a traced run, the traced reps that
/// alternated with them.
struct Measured {
    reps: Vec<Rep>,
    traced_reps: Vec<Rep>,
}

/// Run reps back to back until `opts.seconds` have passed (a smoke run
/// stops at [`FIXED_REPS`]). A traced run alternates untraced and traced
/// reps so both see the same machine; their ratio is the tracing overhead.
fn measure(w: &mut dyn Workload, ctx: &mut Ctx, opts: &Opts) -> Measured {
    let mut m = Measured {
        reps: Vec::new(),
        traced_reps: Vec::new(),
    };
    let t0 = Instant::now();
    for i in 0usize.. {
        let elapsed = t0.elapsed().as_secs_f64();
        let enough = m.reps.len() >= FIXED_REPS
            && (!opts.trace || m.traced_reps.len() >= FIXED_REPS)
            && (opts.smoke || elapsed >= opts.seconds);
        // a workload that fails every rep must still end
        if enough || elapsed >= opts.seconds + 60.0 {
            break;
        }
        let traced = opts.trace && i % 2 == 1;
        ctx.tracer.set_enabled(traced);
        ctx.tracer.set_rep(if opts.trace { i / 2 } else { i });
        let span = ctx.tracer.begin("rep");
        if let Some(rep) = run_rep(w, ctx) {
            // (a leg that panicked took its open spans, this one included,
            // with it)
            ctx.tracer.end(span);
            if traced {
                &mut m.traced_reps
            } else {
                &mut m.reps
            }
            .push(rep);
        }
    }
    m
}

/// Run `opts.workload` and print its result. Returns the process exit
/// code: 0 once a result line was printed.
pub fn run(opts: &Opts) -> i32 {
    let Some(&(name, _)) = metrics::WORKLOADS.iter().find(|w| w.0 == opts.workload) else {
        eprintln!(
            "benchmark: unknown workload '{}'; one of: {}",
            opts.workload,
            metrics::WORKLOADS.map(|w| w.0).join(", ")
        );
        return 2;
    };
    if metrics::needs_two_threads(name) && machine::nproc() < calib::THREADS {
        eprintln!(
            "benchmark: {name} runs two compute threads but this machine offers {}; \
             refusing to publish oversubscribed numbers",
            machine::nproc()
        );
        return 2;
    }
    let _watchdog = Watchdog::arm(Duration::from_secs_f64(opts.seconds + 150.0));
    let mut calib = Calib::new();
    let (calib_1t, calib_nt, degraded) = warm_up(&mut calib);
    println!(
        "{name}: seed {} | {} s | nproc {} | calib_1t {calib_1t:.2} ms, calib_nt {calib_nt:.2} ms{}",
        opts.seed,
        opts.seconds,
        machine::nproc(),
        if degraded { " | DEGRADED: two threads are not getting two cores" } else { "" }
    );
    let mut ctx = Ctx {
        tracer: Tracer::new(opts.trace, name),
        checks: Checks::default(),
        calib,
        reference: (Reference::Stencil, calib::THREADS),
        last_calib: None,
        calib_samples: Vec::new(),
    };
    let built = ctx.checks_guard("build workload", |ctx| {
        workloads::build(name, opts.seed, opts.smoke, ctx)
    });
    let Some(mut w) = built else {
        eprintln!(
            "benchmark: {name} could not be built: {:?}",
            ctx.checks.failures
        );
        return 1;
    };
    ctx.reference = w.reference();

    // Throw-away reps, untraced.
    ctx.tracer.set_enabled(false);
    for _ in 0..if opts.smoke { 1 } else { DISCARDED_REPS } {
        run_rep(w.as_mut(), &mut ctx);
    }
    let warm_attempted = ctx.checks.attempted;
    ctx.calib_samples.clear();

    let Measured { reps, traced_reps } = measure(w.as_mut(), &mut ctx, opts);
    if reps.is_empty() {
        eprintln!(
            "benchmark: {name} completed no repetition: {:?}",
            ctx.checks.failures
        );
        return 1;
    }
    let e2e = end_to_end(&reps);
    let unit_ms = Summary::of(&reps.iter().map(|r| r.on_ms).collect::<Vec<_>>());
    let off_ms = off_unit_ms(&reps);
    let off_unit_ms = (!off_ms.is_empty()).then(|| Summary::of(&off_ms));
    let calib_ms = Summary::of(&ctx.calib_samples);
    let calib_name = format!("calibration ({:?} x{})", ctx.reference.0, ctx.reference.1);

    let mut layers = LayerMetrics::new();
    if opts.trace {
        ctx.tracer.set_enabled(true);
        ctx.tracer.set_rep(traced_reps.len());
        if ctx
            .checks_guard("probes", |ctx| w.probes(ctx, &mut layers, &unit_ms))
            .is_none()
        {
            eprintln!("benchmark: {name} probes failed: {:?}", ctx.checks.failures);
        }
        layers.set("bench.calib_1t_ms", calib_1t);
        layers.set("bench.calib_nt_ms", calib_nt);
        layers.set("bench.calib_ref_ms", calib_ms.median);
        layers.set("bench.unit_ms", unit_ms.median);
        layers.set("bench.unit_ms_p90", unit_ms.p90);
        layers.set(
            "bench.off_unit_ms",
            off_unit_ms.as_ref().map_or(0.0, |s| s.median),
        );
        layers.set("bench.reps", (reps.len() + traced_reps.len()) as f64);
        layers.set("bench.degraded", f64::from(u8::from(degraded)));
        let rel = |reps: &[Rep]| stats::median(&reps.iter().map(|r| r.on_rel).collect::<Vec<_>>());
        layers.set(
            "bench.trace_overhead_frac",
            rel(&traced_reps) / rel(&reps) - 1.0,
        );
    }
    drop(w);

    // Human-readable report.
    println!(
        "  checks: {} attempted ({} while warming up), {} failed",
        ctx.checks.attempted, warm_attempted, ctx.checks.failed
    );
    for f in &ctx.checks.failures {
        println!("  FAILED: {f}");
    }
    print_summary(&calib_name, "ms", calib_ms.median, &calib_ms);
    print_summary("unit_ms (raw, not gated)", "ms", unit_ms.median, &unit_ms);
    if let Some(s) = &off_unit_ms {
        print_summary("off_unit_ms (raw, not gated)", "ms", s.median, s);
    }
    for m in &e2e {
        print_summary(m.def.name, m.def.unit, m.value, &m.samples);
    }
    if opts.trace {
        println!("  per-layer metrics:");
        for m in PER_LAYER {
            println!("    {:<40} {:>16.4} {}", m.name, layers.get(m.name), m.unit);
        }
        println!("  span self times (calls, total ms, self ms):");
        for (span, (calls, total, own)) in ctx.tracer.self_times() {
            println!("    {span:<40} {calls:>5} {total:>12.3} {own:>12.3}");
        }
        if let Some(path) = &opts.trace_file {
            if let Err(e) = std::fs::write(path, ctx.tracer.chrome_json().to_string()) {
                eprintln!("benchmark: cannot write trace {}: {e}", path.display());
                return 1;
            }
        }
    }

    // Machine-readable lines: detail first, the driver's result last.
    let layer_values = metric_values(
        PER_LAYER
            .iter()
            .map(|m| (m.name, layers.get(m.name), m.unit)),
    );
    let samples = Json::obj([
        ("on_ms", nums(reps.iter().map(|r| r.on_ms))),
        ("on_rel", nums(reps.iter().map(|r| r.on_rel))),
        ("setup_s", nums(reps.iter().map(|r| r.setup_s))),
        ("off_ms", nums(off_ms)),
        (
            "off_rel_or_gain",
            nums(reps.iter().map(|r| match r.off {
                Off::Leg { unit_rel, .. } => unit_rel,
                Off::Gain(gain) => gain,
            })),
        ),
        ("calib_ms", nums(ctx.calib_samples.iter().copied())),
    ]);
    let detail = Json::obj([
        ("workload", Json::str(name)),
        ("seed", Json::Num(opts.seed as f64)),
        ("seconds", Json::Num(opts.seconds)),
        ("smoke", Json::Bool(opts.smoke)),
        ("traced", Json::Bool(opts.trace)),
        ("degraded", Json::Bool(degraded)),
        ("attempted", Json::Num(ctx.checks.attempted as f64)),
        ("failed", Json::Num(ctx.checks.failed as f64)),
        ("calib_1t_ms", Json::Num(calib_1t)),
        ("calib_nt_ms", Json::Num(calib_nt)),
        ("calib_reference", Json::str(calib_name)),
        ("calib", summary_json(calib_ms.median, "ms", &calib_ms)),
        ("unit_ms", summary_json(unit_ms.median, "ms", &unit_ms)),
        (
            "end_to_end",
            Json::Obj(
                e2e.iter()
                    .map(|m| {
                        (
                            m.def.name.to_string(),
                            summary_json(m.value, m.def.unit, &m.samples),
                        )
                    })
                    .collect(),
            ),
        ),
        (
            "per_layer",
            if opts.trace {
                layer_values.clone()
            } else {
                Json::Null
            },
        ),
        ("samples", samples),
    ]);
    println!("{}", Json::obj([("detail", detail)]));
    let result_metrics = if opts.trace {
        layer_values
    } else {
        metric_values(e2e.iter().map(|m| (m.def.name, m.value, m.def.unit)))
    };
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(ctx.checks.failed == 0)),
            ("attempted", Json::Num(ctx.checks.attempted as f64)),
            ("failed", Json::Num(ctx.checks.failed as f64)),
            ("metrics", result_metrics),
        ])
    );
    0
}
