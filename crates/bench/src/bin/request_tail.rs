//! Request-scale serving mode: fanout tail amplification and the
//! operating-point recommendation.
//!
//! Runs the open-system request sweep twice: a uniform fanout ladder at a
//! fixed per-message load (request p99 vs fanout `k`, CXL vs RXL) and the
//! incast operating-point ladder on the shallow leaf–spine pod (max safe
//! offered load under the request SLO, binding bottleneck link).
//!
//! Usage:
//! ```text
//! cargo run -p rxl-bench --bin request_tail --release -- \
//!     [--json] [--out DIR] [--spans FILE]
//! ```
//!
//! * `--json` writes the rows to `BENCH_requests.json` at the repository
//!   root (override the directory with `--out DIR`; schema: see
//!   [`rxl_bench::requests_json`]).
//!   The committed file is what this bin writes: `cargo test -p rxl-bench
//!   --test artifacts` checks it byte for byte.
//! * `--spans FILE` additionally writes the binding rung's per-shard span
//!   trace as JSONL (with its dropped-span meta line).

fn main() {
    let cli = rxl_bench::cli::Cli::parse(&["--json", "--out", "--spans"], 0);
    let report = rxl_bench::run_requests();
    println!("{}", rxl_bench::requests_table(&report));
    println!(
        "span trace: {} spans retained, {} dropped",
        report.trace_spans, report.dropped_spans
    );
    if let Some(path) = cli.spans {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)
                .unwrap_or_else(|e| panic!("creating {}: {e}", dir.display()));
        }
        std::fs::write(&path, &report.trace_jsonl)
            .unwrap_or_else(|e| panic!("writing {}: {e}", path.display()));
        println!("wrote {}", path.display());
    }
    if cli.json {
        println!(
            "wrote {}",
            rxl_bench::write_requests_json(&report, cli.out.as_deref()).display()
        );
    }
}
