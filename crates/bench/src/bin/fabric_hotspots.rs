//! Spatial congestion attribution: per-link heatmaps and bottleneck ranking.
//!
//! Runs the incast load sweep on the leaf–spine pod with a metrics probe on
//! every trial and prints per-rung bottleneck attribution (which link is
//! saturated, how hard, and with what congestion signature) and the knee
//! sentence naming the saturated uplink.
//!
//! Usage:
//! ```text
//! cargo run -p rxl-bench --bin fabric_hotspots --release -- \
//!     [--json] [--out DIR]
//! ```
//!
//! * `--json` writes link / attribution / heat rows to
//!   `BENCH_hotspots.json` at the repository root (override the directory
//!   with `--out DIR`; schema: see [`rxl_bench::hotspots_json`]).
//!   The committed file is what this bin writes: `cargo test -p rxl-bench
//!   --test artifacts` checks it byte for byte.

fn main() {
    let cli = rxl_bench::cli::Cli::parse(&["--json", "--out"], 0);
    let report = rxl_bench::run_hotspots();
    println!("{}", rxl_bench::hotspots_table(&report));
    if cli.json {
        println!(
            "wrote {}",
            rxl_bench::write_hotspots_json(&report, cli.out.as_deref()).display()
        );
    }
}
