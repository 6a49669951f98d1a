//! The one artifact gate: every committed `BENCH_*.json` at the repository
//! root is byte for byte what the code writes.
//!
//! Each document is built by the `run_*` + `*_json` pair its bin calls, in
//! the bin's one configuration, and compared with the committed file. All
//! six are fixed-seed simulated numbers (no host timings), so any
//! difference means the engine, a sweep's configuration or a writer's
//! schema changed without the artifact being regenerated — rerun the bin
//! with `--json` and commit the result, or find the regression.

use rxl_bench::fabriccheck::{DEVICES, LEVELS};
use rxl_core::FabricSimOptions;

macro_rules! committed {
    ($name:literal) => {
        ($name, include_str!(concat!("../../../", $name)))
    };
}

#[test]
fn committed_artifacts_are_what_the_code_writes() {
    let fabric_opts = FabricSimOptions::default();
    let artifacts = [
        (
            committed!("BENCH_fabric.json"),
            rxl_bench::fabric_crosscheck_json(
                &rxl_bench::run_fabric_crosscheck(DEVICES, LEVELS, &fabric_opts),
                &fabric_opts,
            ),
        ),
        (
            committed!("BENCH_chaos.json"),
            rxl_bench::chaos_json(&rxl_bench::run_chaos_sweep()),
        ),
        (
            committed!("BENCH_latency.json"),
            rxl_bench::latency_json(&rxl_bench::run_latency_sweep()),
        ),
        (
            committed!("BENCH_slo.json"),
            rxl_bench::slo_json(&rxl_bench::run_slo_replay()),
        ),
        (
            committed!("BENCH_hotspots.json"),
            rxl_bench::hotspots_json(&rxl_bench::run_hotspots()),
        ),
        (
            committed!("BENCH_requests.json"),
            rxl_bench::requests_json(&rxl_bench::run_requests()),
        ),
    ];
    for ((name, committed), written) in artifacts {
        if written == committed {
            continue;
        }
        let line = committed
            .lines()
            .zip(written.lines())
            .position(|(c, w)| c != w)
            .unwrap_or_else(|| committed.lines().count().min(written.lines().count()));
        panic!(
            "{name} differs from what the code writes, first at line {}:\n committed: {}\n written:   {}",
            line + 1,
            committed.lines().nth(line).unwrap_or("<end of file>"),
            written.lines().nth(line).unwrap_or("<end of file>"),
        );
    }
}
