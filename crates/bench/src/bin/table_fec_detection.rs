//! Regenerates the Section 2.5 FEC burst-detection fractions by measuring the
//! real shortened Reed–Solomon decoder.
//!
//! Usage: `table_fec_detection [TRIALS]` (default 2000); a malformed
//! argument is a usage error (exit status 2).
use rxl_bench::cli::{usage_error, Cli};

fn main() {
    let cli = Cli::parse(&[], 1);
    let trials = cli.count(0, 2_000).unwrap_or_else(|e| usage_error(&e));
    println!("{}", rxl_bench::fec_detection_table(trials));
}
