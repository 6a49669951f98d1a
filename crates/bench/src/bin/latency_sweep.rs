//! Latency vs offered load on the canonical leaf–spine pod.
//!
//! Paces open-loop traffic through the `rxl-load` subsystem across an
//! offered-load ladder for both protocols and prints one row per ladder
//! point (latency percentiles in flit slots, delivered throughput,
//! detected saturation knee).
//!
//! Usage:
//! ```text
//! cargo run -p rxl-bench --bin latency_sweep --release -- \
//!     [--json] [--small] [--out DIR]
//! ```
//!
//! * `--small` shrinks the ladder to a CI-sized smoke run.
//! * `--json` writes the rows to `BENCH_latency.json` at the
//!   repository root (override the directory with `--out DIR`) (schema: see [`rxl_bench::latency_json`]).

fn main() {
    let cli = rxl_bench::cli::Cli::parse(&["--json", "--small", "--out"], 0);
    let rows = rxl_bench::run_latency_sweep(cli.small);
    println!("{}", rxl_bench::latency_table(&rows));
    if cli.json {
        println!(
            "wrote {}",
            rxl_bench::write_latency_json(&rows, cli.out.as_deref()).display()
        );
    }
}
