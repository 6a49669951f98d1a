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
//!     [--json] [--out DIR]
//! ```
//!
//! * `--json` writes the rows to `BENCH_chaos.json` at the repository root
//!   (override the directory with `--out DIR`; schema: see
//!   [`rxl_bench::chaos_json`]).
//!   The committed file is what this bin writes: `cargo test -p rxl-bench
//!   --test artifacts` checks it byte for byte.

fn main() {
    let cli = rxl_bench::cli::Cli::parse(&["--json", "--out"], 0);
    let rows = rxl_bench::run_chaos_sweep();
    println!("{}", rxl_bench::chaos_table(&rows));
    if cli.json {
        println!(
            "wrote {}",
            rxl_bench::write_chaos_json(&rows, cli.out.as_deref()).display()
        );
    }
}
