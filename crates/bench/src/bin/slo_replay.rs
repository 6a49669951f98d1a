//! SLO incident replays: chaos scenarios scored as error-budget burn.
//!
//! Replays the chaos sweep's uplink BER storm and spine failover with paced
//! injection and a per-trial `SloProbe`, then prints each incident's burn
//! scorecard: burn during vs after the fault, peak burn, time to recovery,
//! and how many windows the fast/slow multi-window burn-rate alerts covered.
//!
//! Usage:
//! ```text
//! cargo run -p rxl-bench --bin slo_replay --release -- \
//!     [--json] [--out DIR]
//! ```
//!
//! * `--json` writes summary + per-window rows to `BENCH_slo.json` at the
//!   repository root (override the directory with `--out DIR`; schema: see
//!   [`rxl_bench::slo_json`]).
//!   The committed file is what this bin writes: `cargo test -p rxl-bench
//!   --test artifacts` checks it byte for byte.

fn main() {
    let cli = rxl_bench::cli::Cli::parse(&["--json", "--out"], 0);
    let measurements = rxl_bench::run_slo_replay();
    println!("{}", rxl_bench::slo_table(&measurements));
    if cli.json {
        println!(
            "wrote {}",
            rxl_bench::write_slo_json(&measurements, cli.out.as_deref()).display()
        );
    }
}
