//! Regenerates Fig. 8: FIT_device of CXL and RXL versus switching levels.
//!
//! Usage: `fig8_fit_vs_levels [MAX_LEVELS]` (default 4); a malformed
//! argument is a usage error (exit status 2).
use rxl_bench::cli::{usage_error, Cli};

fn main() {
    let cli = Cli::parse(&[], 1);
    let max_levels = cli.count(0, 4).unwrap_or_else(|e| usage_error(&e));
    println!("{}", rxl_bench::fig8_table(max_levels));
}
