//! Compare mode: reads the `RUN` records of two result sets and prints,
//! per workload and metric, each side's median and quartiles, the ratio
//! with its base, and a verdict against the `BENCHMARK.json` bound.

use crate::json::Json;
use crate::stats::{median, quartiles};
use std::collections::BTreeMap;

/// workload -> metric -> values, plus each metric's unit.
type RunSet = BTreeMap<String, BTreeMap<String, (Vec<f64>, String)>>;

/// Reads every `RUN {...}` line of a file.
pub fn read_runs(text: &str) -> Result<RunSet, String> {
    let mut out = RunSet::new();
    for line in text.lines() {
        let Some(body) = line.strip_prefix("RUN ") else { continue };
        let run = Json::parse(body)?;
        let workload = run.get("workload").and_then(Json::str).ok_or("RUN without workload")?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else { continue };
        let per = out.entry(workload.to_string()).or_default();
        for (name, m) in metrics {
            let value = m.get("value").and_then(Json::num).ok_or("metric without value")?;
            let unit = m.get("unit").and_then(Json::str).unwrap_or("").to_string();
            let e = per.entry(name.clone()).or_insert_with(|| (Vec::new(), unit));
            e.0.push(value);
        }
    }
    Ok(out)
}

/// Direction and bound of each metric named in `BENCHMARK.json`.
pub fn read_bounds(bench: &Json) -> BTreeMap<String, (bool, Option<f64>)> {
    let mut out = BTreeMap::new();
    for list in ["end_to_end", "per_layer"] {
        for m in bench.get(list).map(Json::arr).unwrap_or(&[]) {
            if let Some(name) = m.get("name").and_then(Json::str) {
                let lower = m.get("better").and_then(Json::str) != Some("higher");
                out.insert(name.to_string(), (lower, m.get("bound").and_then(Json::num)));
            }
        }
    }
    out
}

/// The verdict for one metric (`lower`: lower is better).
pub fn verdict(base: &[f64], new: &[f64], lower: bool, bound: Option<f64>) -> &'static str {
    let (Some(bm), Some(nm)) = (median(base), median(new)) else { return "no data" };
    let ((b1, b3), (n1, n3)) = match (quartiles(base), quartiles(new)) {
        (Some(b), Some(n)) => (b, n),
        _ => ((bm, bm), (nm, nm)),
    };
    if bm == nm {
        return "same";
    }
    // Positive: the new side is worse, as a share of the base median.
    let worse = if lower { nm - bm } else { bm - nm } / bm.abs().max(f64::MIN_POSITIVE);
    let spread = (b3 - b1).abs() / bm.abs().max(f64::MIN_POSITIVE);
    let overlap = n1 <= b3 && b1 <= n3;
    let all_better = new.iter().all(|&n| base.iter().all(|&b| if lower { n < b } else { n > b }));
    match bound {
        Some(bound) if spread > bound => {
            if all_better {
                "better"
            } else {
                "unresolved (spread wider than bound)"
            }
        }
        Some(bound) if worse > bound => {
            if overlap {
                "unresolved (spreads overlap)"
            } else {
                "REGRESSION (beyond bound)"
            }
        }
        Some(_) if worse < -spread && !overlap => "better",
        Some(_) => "within bound",
        None if overlap => "unresolved (spreads overlap)",
        None if worse > 0.0 => "worse",
        None => "better",
    }
}

/// `compare BASE NEW [--bench BENCHMARK.json]`.
pub fn main(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut bench_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        if a == "--bench" {
            bench_path = it.next().ok_or("--bench needs a path")?.clone();
        } else {
            files.push(a.clone());
        }
    }
    let [base_path, new_path] = files.as_slice() else {
        return Err("usage: bench_e2e compare BASE NEW [--bench BENCHMARK.json]".into());
    };
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let bench = Json::parse(&read(&bench_path)?)?;
    let bounds = read_bounds(&bench);
    let (base, new) = (read_runs(&read(base_path)?)?, read_runs(&read(new_path)?)?);
    let mut regressions = 0;
    println!(
        "{:<12} {:<28} {:>10} {:>22} {:>10} {:>22} {:>8}  verdict",
        "workload", "metric", "base med", "base [q1, q3]", "new med", "new [q1, q3]", "new/base"
    );
    for (workload, metrics) in &base {
        let Some(other) = new.get(workload) else {
            println!("{workload:<12} (no runs in {new_path})");
            continue;
        };
        for (name, (b, unit)) in metrics {
            let Some((n, _)) = other.get(name) else { continue };
            let (lower, bound) = bounds.get(name).copied().unwrap_or((true, None));
            let v = verdict(b, n, lower, bound);
            regressions += usize::from(v.starts_with("REGRESSION"));
            let q = |x: &[f64]| {
                quartiles(x).map_or("-".to_string(), |(a, c)| format!("[{a:.4}, {c:.4}]"))
            };
            let (bm, nm) = (median(b).unwrap_or(0.0), median(n).unwrap_or(0.0));
            let ratio = if bm != 0.0 { format!("{:.4}", nm / bm) } else { "-".into() };
            println!(
                "{workload:<12} {:<28} {bm:>10.4} {:>22} {nm:>10.4} {:>22} {ratio:>8}  {v}{}",
                format!("{name} ({unit})"),
                q(b),
                q(n),
                bound.map_or(String::new(), |b| format!(" (bound {b})"))
            );
        }
    }
    println!("{regressions} regression(s) beyond bound; runs: base {base_path}, new {new_path}");
    Ok(regressions == 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [10.0, 10.1, 9.9, 10.0, 10.05];
        // Clearly slower by 30% with tight spreads: a regression.
        let slow = [13.0, 13.1, 12.9, 13.0, 13.05];
        assert!(verdict(&base, &slow, true, Some(0.1)).starts_with("REGRESSION"));
        // Same data read as a higher-is-better metric: an improvement.
        assert_eq!(verdict(&base, &slow, false, Some(0.1)), "better");
        // Small change inside the bound.
        let close = [10.2, 10.3, 10.1, 10.2, 10.25];
        assert_eq!(verdict(&base, &close, true, Some(0.1)), "within bound");
        // A wide base spread cannot resolve a small change.
        let wide = [5.0, 15.0, 10.0, 6.0, 14.0];
        assert!(verdict(&wide, &close, true, Some(0.1)).starts_with("unresolved"));
        // Without a bound, overlapping spreads are unresolved.
        assert!(
            verdict(&base, &close, true, None).starts_with("unresolved")
                || verdict(&base, &close, true, None) == "worse"
        );
        assert_eq!(verdict(&base, &base, true, None), "same");
    }

    #[test]
    fn reads_run_records_and_bounds() {
        let runs = "noise\nRUN {\"workload\":\"browse\",\"metrics\":{\"ops_per_s\":{\"value\":5,\"unit\":\"1/s\"}}}\nRUN {\"workload\":\"browse\",\"metrics\":{\"ops_per_s\":{\"value\":7,\"unit\":\"1/s\"}}}\n";
        let set = read_runs(runs).unwrap();
        assert_eq!(set["browse"]["ops_per_s"].0, vec![5.0, 7.0]);
        let bench = Json::parse(
            "{\"end_to_end\":[{\"name\":\"ops_per_s\",\"unit\":\"1/s\",\"better\":\"higher\",\"bound\":0.1}],\"per_layer\":[{\"name\":\"x\",\"unit\":\"ms\",\"better\":\"lower\"}]}",
        )
        .unwrap();
        let b = read_bounds(&bench);
        assert_eq!(b["ops_per_s"], (false, Some(0.1)));
        assert_eq!(b["x"], (true, None));
    }
}
