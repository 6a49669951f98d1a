//! Fabric-scale Monte-Carlo cross-check of the analytic FIT projection.
//!
//! Usage:
//! ```text
//! cargo run -p rxl-bench --bin fabric_fit_crosscheck --release -- \
//!     [--json] [--out DIR] [devices] [levels] [ber] [trials] [messages]
//! ```
//!
//! `--json` additionally writes machine-readable results to
//! `BENCH_fabric.json` at the repository root (override the directory with
//! `--out DIR`).

use rxl_core::FabricSimOptions;

fn main() {
    let cli = rxl_bench::cli::Cli::parse(&["--json", "--out"], 5);
    let number = |idx: usize, default: f64| -> f64 {
        cli.positional
            .get(idx)
            .and_then(|a| a.parse().ok())
            .unwrap_or(default)
    };
    let devices = number(0, 16_384.0) as u64;
    let levels = number(1, 2.0) as u32;
    let opts = FabricSimOptions {
        ber: number(2, 1e-4),
        trials: number(3, 8.0) as u64,
        messages_per_session: number(4, 600.0) as usize,
        ..FabricSimOptions::default()
    };

    let rows = rxl_bench::run_fabric_crosscheck(devices, levels, &opts);
    println!("{}", rxl_bench::fabric_crosscheck_table(&rows, &opts));
    if cli.json {
        println!(
            "wrote {}",
            rxl_bench::write_fabric_json(&rows, &opts, cli.out.as_deref()).display()
        );
    }
}
