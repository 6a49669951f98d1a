//! `--compare A.json B.json`: per (workload, metric) both medians, both
//! inter-quartile ranges, the bound and the verdict. Non-zero exit on any
//! `worse`, on any difference in a simulated statistic, count or digest,
//! and on any failed trial.

use crate::json::{parse, Value};
use crate::metrics;
use crate::run::Record;
use crate::stats::{judge, Bound, Verdict};

fn load(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
    let doc = parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("runs")
        .and_then(Value::as_arr)
        .ok_or_else(|| format!("{path}: no \"runs\" array"))?
        .iter()
        .map(|r| Record::from_json(r).ok_or_else(|| format!("{path}: malformed run record")))
        .collect()
}

fn bound_label(bound: Bound) -> String {
    match bound {
        Bound::Exact => "exact".to_string(),
        Bound::None => "-".to_string(),
        Bound::Share { share, floor } if floor > 0.0 => {
            format!("max({:.0}%, {floor})", share * 100.0)
        }
        Bound::Share { share, .. } => format!("{:.0}%", share * 100.0),
    }
}

/// One comparison row; `fails` is whether it makes the exit code non-zero.
struct Row {
    text: String,
    verdict: Verdict,
    fails: bool,
}

fn compare_runs(a: &Record, b: &Record) -> Vec<Row> {
    let mut rows = Vec::new();
    for (name, sa) in &a.metrics {
        let (Some(sb), Some(def)) = (b.metric(name), metrics::find(name)) else {
            continue;
        };
        let verdict = judge(sa, sb, def.better, def.bound);
        let fails =
            verdict == Verdict::Worse || (def.bound == Bound::Exact && verdict != Verdict::Same);
        rows.push(Row {
            text: format!(
                "{:<16} {:<38} {:>15.6} {:>15.6} {:>11.6} {:>11.6} {:<14} {}",
                a.workload,
                name,
                sa.median,
                sb.median,
                sa.q3 - sa.q1,
                sb.q3 - sb.q1,
                bound_label(def.bound),
                verdict.label()
            ),
            verdict,
            fails,
        });
    }
    rows
}

/// Prints the comparison; `Ok(true)` when B is no worse than A anywhere.
pub fn run(path_a: &str, path_b: &str) -> Result<bool, String> {
    let (a, b) = (load(path_a)?, load(path_b)?);
    println!(
        "{:<16} {:<38} {:>15} {:>15} {:>11} {:>11} {:<14} verdict",
        "workload", "metric", "median A", "median B", "iqr A", "iqr B", "bound"
    );
    let mut ok = true;
    let mut counts = [0usize; 4];
    for ra in &a {
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.trace == ra.trace)
        else {
            println!(
                "{}: trace {} run missing from {path_b}",
                ra.workload, ra.trace
            );
            ok = false;
            continue;
        };
        for row in compare_runs(ra, rb) {
            println!("{}", row.text);
            counts[row.verdict as usize] += 1;
            ok &= !row.fails;
        }
        if ra.seed == rb.seed && ra.digest != rb.digest {
            println!(
                "{}: digest {:016x} != {:016x} — the simulation changed",
                ra.workload, ra.digest, rb.digest
            );
            ok = false;
        }
        for (side, r) in [("A", ra), ("B", rb)] {
            if r.failed != 0 {
                println!(
                    "{}: {side} has {} failed of {}",
                    r.workload, r.failed, r.attempted
                );
                ok = false;
            }
        }
    }
    println!(
        "same {} better {} worse {} unresolved {}",
        counts[Verdict::Same as usize],
        counts[Verdict::Better as usize],
        counts[Verdict::Worse as usize],
        counts[Verdict::Unresolved as usize]
    );
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Summary;

    fn record(wall: &[f64], goodput: f64) -> Record {
        Record {
            workload: "pod_clean_rxl".to_string(),
            unit: String::new(),
            seed: 1,
            trace: false,
            attempted: 10,
            failed: 0,
            problems: Vec::new(),
            digest: 7,
            metrics: vec![
                ("wall_s".to_string(), Summary::of(wall.to_vec())),
                (
                    "goodput_flits_per_slot".to_string(),
                    Summary::single(goodput),
                ),
            ],
            spans: Vec::new(),
        }
    }

    #[test]
    fn a_slower_wall_fails_and_a_noisy_one_is_unresolved() {
        let a = record(&[2.00, 2.01, 2.02], 5.0);
        let slower = compare_runs(&a, &record(&[2.40, 2.41, 2.42], 5.0));
        assert_eq!(slower[0].verdict, Verdict::Worse);
        assert!(slower[0].fails && !slower[1].fails);
        let noisy = compare_runs(&a, &record(&[1.5, 2.1, 2.9], 5.0));
        assert_eq!(noisy[0].verdict, Verdict::Unresolved);
        assert!(!noisy[0].fails);
    }

    #[test]
    fn any_simulated_difference_fails_even_when_it_reads_better() {
        let rows = compare_runs(&record(&[2.0], 5.0), &record(&[2.0], 5.5));
        assert_eq!(rows[1].verdict, Verdict::Better);
        assert!(rows[1].fails);
    }

    #[test]
    fn records_survive_the_result_file_round_trip() {
        let r = record(&[2.0, 2.1, 2.2], 5.25);
        let back = Record::from_json(&parse(&r.to_json().pretty()).unwrap()).unwrap();
        assert_eq!(back.metrics, r.metrics);
        assert_eq!((back.digest, back.seed, back.trace), (7, 1, false));
    }
}
