//! Accelerated-BER Monte-Carlo cross-check of the analytic failure model:
//! CXL (piggybacked ACKs) versus RXL through one switch level.
//!
//! Usage: `sim_crosscheck [BER] [TRIALS] [MESSAGES]` (defaults 2e-4, 8,
//! 2000); a malformed argument is a usage error (exit status 2).
use rxl_bench::cli::{usage_error, Cli};

fn main() {
    let cli = Cli::parse(&[], 3);
    let ber = cli.number(0, 2e-4).unwrap_or_else(|e| usage_error(&e));
    let trials = cli.count(1, 8).unwrap_or_else(|e| usage_error(&e));
    let messages = cli.count(2, 2_000).unwrap_or_else(|e| usage_error(&e));
    println!("{}", rxl_bench::sim_crosscheck_table(ber, trials, messages));
}
