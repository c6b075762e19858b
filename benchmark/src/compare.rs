//! `benchmark compare A.json B.json`: one row per (workload, end-to-end
//! metric) of two result files, A the baseline and B the candidate.

use crate::json::{self, Json};
use crate::metrics::{Better, END_TO_END};
use std::path::Path;

/// What the two runs say about one metric on one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// B is better by more than either run's own spread.
    Better,
    /// No worse than the bound allows, and the spread is narrow enough to
    /// say so.
    WithinBound,
    /// B is worse by more than the bound and the quartile ranges are apart.
    WorseBeyondBound,
    /// The runs' own spread is wider than the bound, or B looks worse than
    /// the bound allows but the quartile ranges overlap: not a finding
    /// either way.
    Unresolved,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within-bound",
            Verdict::WorseBeyondBound => "WORSE-BEYOND-BOUND",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// A metric's value and the quartiles of the samples behind it.
#[derive(Debug, Clone, Copy)]
pub struct Measured {
    pub value: f64,
    pub p25: f64,
    pub p75: f64,
}

pub fn verdict(a: Measured, b: Measured, better: Better, bound: f64) -> Verdict {
    let scale = a.value.abs().max(f64::MIN_POSITIVE);
    // flip higher-is-better metrics so that "larger" always means "worse"
    let flip = |m: Measured| match better {
        Better::Lower => m,
        Better::Higher => Measured {
            value: -m.value,
            p25: -m.p75,
            p75: -m.p25,
        },
    };
    let (a, b) = (flip(a), flip(b));
    let worsening = (b.value - a.value) / scale;
    let spread = (a.p75 - a.p25).max(b.p75 - b.p25) / scale;
    if worsening > bound {
        if b.p25 > a.p75 {
            Verdict::WorseBeyondBound
        } else {
            Verdict::Unresolved
        }
    } else if -worsening > spread && b.p75 < a.p25 {
        Verdict::Better
    } else if spread > bound {
        Verdict::Unresolved
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    if doc.get("smoke").and_then(Json::as_bool) != Some(false) {
        return Err(format!(
            "{} is a smoke run (or not a result file); smoke numbers are not comparable",
            path.display()
        ));
    }
    Ok(doc)
}

fn measured(entry: &Json, metric: &str) -> Option<Measured> {
    let m = entry.get("end_to_end")?.get(metric)?;
    Some(Measured {
        value: m.get("value")?.as_f64()?,
        p25: m.get("p25")?.as_f64()?,
        p75: m.get("p75")?.as_f64()?,
    })
}

fn fail_frac(entry: &Json) -> Option<f64> {
    Some(entry.get("failed")?.as_f64()? / entry.get("attempted")?.as_f64()?.max(1.0))
}

/// Print the comparison; exit code 1 on any regression or any workload
/// whose share of failed checks rose.
pub fn run(a_path: &Path, b_path: &Path) -> Result<i32, String> {
    let (a, b) = (load(a_path)?, load(b_path)?);
    let a_workloads = a
        .get("workloads")
        .and_then(Json::as_object)
        .ok_or("baseline has no workloads")?;
    let mut regressions = 0;
    println!(
        "{:<22} {:<12} {:>12} {:>12} {:>8} {:>6}  verdict",
        "workload", "metric", "A", "B", "change", "bound"
    );
    for (workload, a_entry) in a_workloads {
        let Some(b_entry) = b.get("workloads").and_then(|w| w.get(workload)) else {
            println!("{workload:<22} missing from the candidate");
            continue;
        };
        let degraded = [a_entry, b_entry]
            .iter()
            .any(|e| e.get("degraded").and_then(Json::as_bool) == Some(true));
        for (def, bound) in END_TO_END {
            let (Some(ma), Some(mb)) = (measured(a_entry, def.name), measured(b_entry, def.name))
            else {
                return Err(format!(
                    "{workload}: {} missing from a result file",
                    def.name
                ));
            };
            let v = verdict(ma, mb, def.better, bound);
            regressions += usize::from(v == Verdict::WorseBeyondBound);
            println!(
                "{workload:<22} {:<12} {:>12.4} {:>12.4} {:>+7.1}% {:>5.0}%  {}{}",
                def.name,
                ma.value,
                mb.value,
                (mb.value - ma.value) / ma.value.abs().max(f64::MIN_POSITIVE) * 100.0,
                bound * 100.0,
                v.as_str(),
                if degraded { " (degraded run)" } else { "" }
            );
        }
        let (fa, fb) = (fail_frac(a_entry), fail_frac(b_entry));
        let more_failures = match (fa, fb) {
            (Some(fa), Some(fb)) => fb > fa,
            _ => {
                return Err(format!(
                    "{workload}: check counts missing from a result file"
                ))
            }
        };
        regressions += usize::from(more_failures);
        println!(
            "{workload:<22} {:<12} {:>12.4} {:>12.4} {:>8} {:>6}  {}",
            "fail_frac",
            fa.unwrap_or(0.0),
            fb.unwrap_or(0.0),
            "",
            "0",
            if more_failures {
                "MORE-FAILED-CHECKS"
            } else {
                "ok"
            }
        );
    }
    println!("{regressions} regression(s)");
    Ok(i32::from(regressions > 0))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(value: f64, p25: f64, p75: f64) -> Measured {
        Measured { value, p25, p75 }
    }

    #[test]
    fn tight_equal_runs_are_within_bound() {
        let v = verdict(m(1.0, 0.99, 1.01), m(1.02, 1.01, 1.03), Better::Lower, 0.1);
        assert_eq!(v, Verdict::WithinBound);
    }

    #[test]
    fn a_clear_slowdown_is_a_regression_and_a_clear_speedup_is_better() {
        let base = m(1.0, 0.98, 1.02);
        assert_eq!(
            verdict(base, m(1.3, 1.25, 1.35), Better::Lower, 0.1),
            Verdict::WorseBeyondBound
        );
        assert_eq!(
            verdict(base, m(0.8, 0.78, 0.82), Better::Lower, 0.1),
            Verdict::Better
        );
    }

    #[test]
    fn overlapping_quartiles_or_wide_spread_stay_unresolved() {
        // worse by 15% but the ranges overlap
        assert_eq!(
            verdict(m(1.0, 0.9, 1.2), m(1.15, 1.0, 1.3), Better::Lower, 0.1),
            Verdict::Unresolved
        );
        // same value, spread three times the bound
        assert_eq!(
            verdict(m(1.0, 0.8, 1.1), m(1.0, 0.85, 1.15), Better::Lower, 0.1),
            Verdict::Unresolved
        );
    }

    #[test]
    fn higher_is_better_metrics_flip() {
        let base = m(1.3, 1.28, 1.32);
        assert_eq!(
            verdict(base, m(1.0, 0.98, 1.02), Better::Higher, 0.1),
            Verdict::WorseBeyondBound
        );
        assert_eq!(
            verdict(base, m(1.6, 1.55, 1.65), Better::Higher, 0.1),
            Verdict::Better
        );
        assert_eq!(
            verdict(base, m(1.28, 1.26, 1.3), Better::Higher, 0.1),
            Verdict::WithinBound
        );
    }

    #[test]
    fn smoke_results_are_refused() {
        let dir = std::env::temp_dir().join(format!("nlheat-compare-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("smoke.json");
        std::fs::write(&path, r#"{"smoke": true, "workloads": {}}"#).unwrap();
        assert!(load(&path).unwrap_err().contains("smoke"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
