//! Chaos scenario sweep: BER storms and spine failover, CXL vs RXL.
//!
//! Runs the `rxl-chaos` scenario Monte-Carlo over a leaf–spine pod — a BER
//! storm of several accelerations on one uplink, plus a spine failure — and
//! tabulates per-epoch `Fail_order` counts, availability, and
//! time-to-first-failure for both protocol variants.
//!
//! Usage:
//! ```text
//! cargo run -p rxl-bench --bin chaos_sweep --release -- \
//!     [--json] [--small] [--out DIR]
//! ```
//!
//! * `--small` shrinks the sweep to a CI-sized smoke run.
//! * `--json` writes the rows to `BENCH_chaos.json` at the
//!   repository root (override the directory with `--out DIR`) (schema: see [`rxl_bench::chaos_json`]).

fn main() {
    let cli = rxl_bench::cli::Cli::parse(&["--json", "--small", "--out"], 0);
    let rows = rxl_bench::run_chaos_sweep(cli.small);
    println!("{}", rxl_bench::chaos_table(&rows));
    if cli.json {
        println!(
            "wrote {}",
            rxl_bench::write_chaos_json(&rows, cli.out.as_deref()).display()
        );
    }
}
