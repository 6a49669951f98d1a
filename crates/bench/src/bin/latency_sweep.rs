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
//!     [--json] [--out DIR]
//! ```
//!
//! * `--json` writes the rows to `BENCH_latency.json` at the repository
//!   root (override the directory with `--out DIR`; schema: see
//!   [`rxl_bench::latency_json`]).
//!   The committed file is what this bin writes: `cargo test -p rxl-bench
//!   --test artifacts` checks it byte for byte.

fn main() {
    let cli = rxl_bench::cli::Cli::parse(&["--json", "--out"], 0);
    let rows = rxl_bench::run_latency_sweep();
    println!("{}", rxl_bench::latency_table(&rows));
    if cli.json {
        println!(
            "wrote {}",
            rxl_bench::write_latency_json(&rows, cli.out.as_deref()).display()
        );
    }
}
