//! The ledger invocation: every selected workload in a child process of its
//! own (so `peak_rss_mb` is per workload), untraced then traced, one at a
//! time; the records, a provenance manifest and the chrome trace are
//! written under `--out`.

use std::path::{Path, PathBuf};
use std::process::Command;

use crate::json::{parse, Value};
use crate::run::Record;
use crate::spans::chrome_events;
use crate::workloads::{DEFAULT_SEED, SPECS};

pub struct LedgerOptions {
    /// Workload names; empty means all six.
    pub workloads: Vec<String>,
    pub reps: usize,
    pub seed: u64,
    pub out: PathBuf,
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Enough provenance to reproduce a number or discard it.
fn manifest(opts: &LedgerOptions, records: &[Record]) -> Value {
    let git_rev = command_line("git", &["rev-parse", "HEAD"]);
    let dirty = command_line("git", &["status", "--porcelain"]).map(|s| !s.is_empty());
    let cpu_model = std::fs::read_to_string("/proc/cpuinfo").ok().and_then(|s| {
        s.lines()
            .find(|l| l.starts_with("model name"))
            .and_then(|l| l.split(':').nth(1))
            .map(|m| m.trim().to_string())
    });
    let text = |s: Option<String>| s.map_or(Value::Null, Value::from);
    // One untraced record per selected workload carries its unit sizes.
    let selected = || {
        records.iter().filter(|r| !r.trace).filter_map(|r| {
            let spec = SPECS.iter().find(|s| s.name == r.workload)?;
            Some((spec, r.unit.as_str()))
        })
    };
    Value::obj([
        ("git_rev", text(git_rev)),
        ("git_dirty", dirty.map_or(Value::Null, Value::from)),
        ("rustc", text(command_line("rustc", &["-V"]))),
        (
            "nproc",
            std::thread::available_parallelism()
                .map_or(Value::Null, |n| Value::from(n.get() as f64)),
        ),
        ("cpu_model", text(cpu_model)),
        ("threads", Value::from(1.0)),
        ("seed", Value::from(opts.seed as f64)),
        ("default_seed", Value::from(DEFAULT_SEED as f64)),
        ("repetitions", Value::from(opts.reps as f64)),
        (
            "workloads",
            Value::obj(selected().map(|(s, unit)| {
                let fields = [("unit", Value::from(unit)), ("why", Value::from(s.why))];
                (s.name, Value::obj(fields))
            })),
        ),
        // The RNG-contract stamp: the digests pinned for the default seed.
        (
            "default_seed_digests",
            Value::obj(
                selected().map(|(s, _)| (s.name, Value::from(format!("{:016x}", s.digest)))),
            ),
        ),
    ])
}

fn run_child(
    name: &str,
    trace: bool,
    opts: &LedgerOptions,
    record: &Path,
) -> Result<Record, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot find own executable: {e}"))?;
    let status = Command::new(exe)
        .args(["--workload", name])
        .args(["--seed", &opts.seed.to_string()])
        .args(["--reps", &opts.reps.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .arg("--record")
        .arg(record)
        .status()
        .map_err(|e| format!("{name}: cannot start child: {e}"))?;
    let text = std::fs::read_to_string(record)
        .map_err(|e| format!("{name}: child ({status}) left no record: {e}"))?;
    parse(&text)
        .ok()
        .and_then(|v| Record::from_json(&v))
        .ok_or_else(|| format!("{name}: unreadable record {}", record.display()))
}

/// Runs the ledger; returns `Ok(true)` when every run was correct.
pub fn run(opts: &LedgerOptions) -> Result<bool, String> {
    let names: Vec<&str> = if opts.workloads.is_empty() {
        SPECS.iter().map(|s| s.name).collect()
    } else {
        opts.workloads.iter().map(String::as_str).collect()
    };
    if let Some(unknown) = names.iter().find(|n| SPECS.iter().all(|s| s.name != **n)) {
        return Err(format!(
            "unknown workload {unknown:?}; expected one of {:?}",
            SPECS.map(|s| s.name)
        ));
    }
    let records_dir = opts.out.join("records");
    std::fs::create_dir_all(&records_dir)
        .map_err(|e| format!("cannot create {}: {e}", records_dir.display()))?;

    let mut records = Vec::new();
    for name in &names {
        for trace in [false, true] {
            let path = records_dir.join(format!("{name}.trace{}.json", u8::from(trace)));
            records.push(run_child(name, trace, opts, &path)?);
        }
    }

    let mut events = Vec::new();
    for (pid, r) in records.iter().enumerate() {
        let label = format!("{} trace {}", r.workload, u8::from(r.trace));
        events.extend(chrome_events(&r.spans, pid, &label));
    }
    let runs: Vec<Value> = records
        .iter_mut()
        .map(|r| {
            // Spans live in trace.json; the result file stays small.
            r.spans.clear();
            r.to_json()
        })
        .collect();
    let result = Value::obj([
        ("manifest", manifest(opts, &records)),
        ("runs", Value::Arr(runs)),
    ]);
    let write = |file: &str, text: String| {
        let path = opts.out.join(file);
        std::fs::write(&path, text).map_err(|e| format!("cannot write {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok::<(), String>(())
    };
    write("result.json", result.pretty())?;
    write(
        "trace.json",
        Value::obj([("traceEvents", Value::Arr(events))]).to_string(),
    )?;
    Ok(records.iter().all(|r| r.failed == 0))
}
