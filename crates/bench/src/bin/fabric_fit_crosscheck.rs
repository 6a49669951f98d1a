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
//! for byte. A positional that is not a number, or a count that is not
//! whole, is a usage error.

use rxl_bench::cli::{usage_error, Cli};
use rxl_bench::fabriccheck::{DEVICES, LEVELS};
use rxl_core::FabricSimOptions;

fn main() {
    let cli = Cli::parse(&["--json", "--out"], 5);
    let defaults = FabricSimOptions::default();
    let devices = cli.count(0, DEVICES).unwrap_or_else(|e| usage_error(&e));
    let levels = cli.count(1, LEVELS).unwrap_or_else(|e| usage_error(&e));
    let opts = FabricSimOptions {
        ber: cli
            .number(2, defaults.ber)
            .unwrap_or_else(|e| usage_error(&e)),
        trials: cli
            .count(3, defaults.trials)
            .unwrap_or_else(|e| usage_error(&e)),
        messages_per_session: cli
            .count(4, defaults.messages_per_session)
            .unwrap_or_else(|e| usage_error(&e)),
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
