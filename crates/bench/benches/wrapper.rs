//! Timing benches for wrapper design (the `Combine` procedure) and the
//! per-SOC time table.
//!
//! Pass `--json <path>` to additionally write the results as a JSON
//! report.

#![allow(clippy::unwrap_used, clippy::expect_used)]

use soctam::{Benchmark, TimeTable, WrapperDesign};
use soctam_bench::harness::{samples, Session};

fn main() {
    let mut session = Session::from_args();
    let soc = Benchmark::P93791.soc();
    // The scan-heaviest core dominates wrapper-design cost.
    let core = soc
        .cores()
        .iter()
        .max_by_key(|core| core.scan_cells())
        .expect("cores exist");
    let samples = samples(50);
    for width in [1u32, 8, 32, 64] {
        session.bench(&format!("wrapper_design/{width}"), samples, || {
            WrapperDesign::design(core, width).expect("width >= 1")
        });
    }
    // One table per evaluator: the unsuffixed labels are W_max = 64.
    for benchmark in [Benchmark::D695, Benchmark::P93791] {
        let soc = benchmark.soc();
        session.bench(&format!("time_table/{}", benchmark.name()), samples, || {
            TimeTable::new(&soc, 64)
        });
    }
    for benchmark in [Benchmark::P34392, Benchmark::P93791] {
        let soc = benchmark.soc();
        for width in [32u32, 64] {
            session.bench(
                &format!("time_table/{}/{width}", benchmark.name()),
                samples,
                || TimeTable::new(&soc, width),
            );
        }
    }
    session.finish();
}
