//! Fleet-level reliability projection for a large training job.
//!
//! The paper motivates RXL with the Llama-3.1 training run (16K accelerators,
//! 54 days) and the Delta system's 6.9-hour NVLink mean time between errors.
//! This example projects the paper's per-device FIT analysis (Section 7.1)
//! onto such a fleet: how often would silent ordering failures interrupt the
//! job under baseline CXL, and what does RXL buy?
//!
//! Run with:
//! ```text
//! cargo run --example llm_training_reliability [devices] [days] [levels]
//! ```
//!
//! A malformed argument (not a non-negative number, or a fractional
//! device or level count) is a usage error (exit status 2), never silently
//! the default.

use rxl::analysis::ReliabilityModel;
use rxl::core::{FabricSpec, ProtocolKind};
use rxl_bench::cli::{usage_error, Cli};

fn main() {
    let cli = Cli::parse(&[], 3);
    let devices = cli.count(0, 16_384).unwrap_or_else(|e| usage_error(&e));
    let days = cli.number(1, 54.0).unwrap_or_else(|e| usage_error(&e));
    let levels = cli.count(2, 1).unwrap_or_else(|e| usage_error(&e));
    let job_hours = days * 24.0;

    println!(
        "training fleet: {devices} accelerators, {days} day job ({job_hours:.0} h), {levels} switch level(s)\n"
    );
    let model = ReliabilityModel::cxl3_x16();
    println!(
        "per-link operating point: BER {:.0e}, FER_UC {:.0e}, 500M flits/s per device\n",
        model.ber, model.fer_uc
    );

    for kind in [ProtocolKind::Cxl, ProtocolKind::Rxl] {
        let spec = FabricSpec::new(kind, devices, levels);
        let projection = spec.project(job_hours);
        println!("--- {} ---", kind.name());
        println!(
            "  per-device FIT                 : {:.3e}",
            projection.per_device_fit
        );
        println!(
            "  fleet FIT                      : {:.3e}",
            projection.fabric_fit
        );
        if projection.fabric_mtbf_hours.is_finite() {
            println!(
                "  fleet MTBF                     : {:.3e} hours",
                projection.fabric_mtbf_hours
            );
        }
        println!(
            "  expected failures during the job: {:.3e}",
            projection.failures_per_job
        );
        let verdict = if projection.failures_per_job > 1.0 {
            "the job cannot complete without hitting this failure mode"
        } else if projection.failures_per_job > 1e-3 {
            "marginal: occasional interruptions expected"
        } else {
            "effectively immune to this failure mode"
        };
        println!("  verdict                        : {verdict}\n");
    }

    // Sensitivity: how the CXL exposure grows with switching depth while RXL
    // stays flat (the Fig. 8 story told at fleet scale).
    println!("expected interruptions during the job vs switching depth:");
    println!("  levels |        CXL |        RXL");
    for l in 0..=4u32 {
        let cxl = FabricSpec::new(ProtocolKind::Cxl, devices, l).project(job_hours);
        let rxl = FabricSpec::new(ProtocolKind::Rxl, devices, l).project(job_hours);
        println!(
            "  {l:>6} | {:>10.3e} | {:>10.3e}",
            cxl.failures_per_job, rxl.failures_per_job
        );
    }
}
