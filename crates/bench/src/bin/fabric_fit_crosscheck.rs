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
//! `--out DIR`). The committed file is what this bin writes without
//! positionals: `cargo test -p rxl-bench --test artifacts` checks it byte
//! for byte. A positional that is not a number is a usage error.

use rxl_bench::cli::{usage_error, Cli};
use rxl_bench::fabriccheck::{DEVICES, LEVELS};
use rxl_core::FabricSimOptions;

fn main() {
    let cli = Cli::parse(&["--json", "--out"], 5);
    let number = |idx: usize, default: f64| -> f64 {
        cli.number(idx, default).unwrap_or_else(|e| usage_error(&e))
    };
    let defaults = FabricSimOptions::default();
    let devices = number(0, DEVICES as f64) as u64;
    let levels = number(1, LEVELS as f64) as u32;
    let opts = FabricSimOptions {
        ber: number(2, defaults.ber),
        trials: number(3, defaults.trials as f64) as u64,
        messages_per_session: number(4, defaults.messages_per_session as f64) as usize,
        ..defaults
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
