//! Regenerates every table and figure of the paper's evaluation in one run.
//! The output of this binary is the basis of EXPERIMENTS.md.
//!
//! Every sweep prints its one, committed configuration. Pass `--json` to
//! additionally write the fabric cross-check results to `BENCH_fabric.json`
//! at the repository root; `--out DIR` redirects the artifact directory.

use rxl_bench::fabriccheck::{DEVICES, LEVELS};
use rxl_core::FabricSimOptions;

fn main() {
    let cli = rxl_bench::cli::Cli::parse(&["--json", "--out"], 0);

    // Which codec kernels this CPU runs: provenance for the host, not part of
    // any table (every number below is bit-identical on either kernel).
    println!(
        "rxl run_all: crc kernel {}, fec kernel {}",
        rxl_crc::kernel(),
        rxl_fec::kernel()
    );

    println!("{}", rxl_bench::reliability_table());
    println!("{}", rxl_bench::fig8_table(4));
    println!("{}", rxl_bench::bandwidth_table());
    println!("{}", rxl_bench::buffering_table());
    println!("{}", rxl_bench::hw_overhead_table());
    println!("{}", rxl_bench::header_overhead_table());
    println!("{}", rxl_bench::crc_detection_table());
    println!("{}", rxl_bench::fec_detection_table(2_000));
    println!("--- Fig. 4 scenario (baseline CXL) ---");
    println!("{}", rxl_bench::fig4_scenario().trace);
    println!("--- Fig. 5b scenario (baseline CXL, same-CQID data) ---");
    println!("{}", rxl_bench::fig5b_scenario().trace);
    println!("--- Fig. 6c scenario (RXL / ISN) ---");
    println!("{}", rxl_bench::fig6_isn_scenario().trace);
    println!("{}", rxl_bench::sim_crosscheck_table(2e-4, 8, 2_000));

    let opts = FabricSimOptions::default();
    let rows = rxl_bench::run_fabric_crosscheck(DEVICES, LEVELS, &opts);
    println!("{}", rxl_bench::fabric_crosscheck_table(&rows, &opts));
    if cli.json {
        println!(
            "wrote {}",
            rxl_bench::write_fabric_json(&rows, &opts, cli.out.as_deref()).display()
        );
    }

    // The sweeps behind the other `BENCH_*.json` files; their `--json`
    // lives on the dedicated bins.
    println!("{}", rxl_bench::chaos_table(&rxl_bench::run_chaos_sweep()));
    println!(
        "{}",
        rxl_bench::latency_table(&rxl_bench::run_latency_sweep())
    );
    println!("{}", rxl_bench::hotspots_table(&rxl_bench::run_hotspots()));
    println!("{}", rxl_bench::requests_table(&rxl_bench::run_requests()));
}
