//! Ablation: data packing (§III-C2) — packed `(u16, f16)` 4-byte matrix
//! elements vs. unpacked wider layouts, measured as memory traffic and
//! modeled V100 kernel time.

use xct_bench::hilbert_ordered_operator;
use xct_cluster::{kernel_time, GpuSpec};
use xct_fp16::{Precision, F16};
use xct_spmm::{packed_element_bytes, LANE_GROUP, WARP_SIZE};

fn main() {
    let gpu = GpuSpec::v100();
    let op = hilbert_ordered_operator(96, 96, 128);

    println!("ABLATION: matrix-element packing (III-C2)");
    println!();
    // The GPU shape the paper reports in (a warp's elements fill one
    // cache line) beside the shape this executor stores: lane-group
    // rounds, indices then lengths, no alignment padding at any width.
    println!(
        "Element sizes: half-packed {} B ({WARP_SIZE}-lane warp = {} B cache line; \
         stored as {LANE_GROUP}-lane rounds of {} B), single {} B, double {} B",
        packed_element_bytes::<F16>(),
        WARP_SIZE * packed_element_bytes::<F16>(),
        LANE_GROUP * packed_element_bytes::<F16>(),
        packed_element_bytes::<f32>(),
        packed_element_bytes::<f64>(),
    );
    println!();
    let header = format!(
        "{:<22} {:>14} {:>16} {:>12}",
        "layout", "bytes moved", "AI (flops/B)", "model time"
    );
    println!("{header}");
    println!("{}", "-".repeat(header.len()));

    let fusing = 16;
    let half = op.pack::<F16>(128, 96 * 1024, fusing);
    let single = op.pack::<f32>(128, 96 * 1024, fusing);
    let double = op.pack::<f64>(128, 96 * 1024, fusing);

    let mut times = Vec::new();
    for (name, metrics, stages, precision) in [
        (
            "packed u16+f16 (4 B)",
            half.kernel_metrics(),
            half.total_stages(),
            Precision::Mixed,
        ),
        (
            "u16+f32 (6 B)",
            single.kernel_metrics(),
            single.total_stages(),
            Precision::Single,
        ),
        (
            "u16+f64 (10 B)",
            double.kernel_metrics(),
            double.total_stages(),
            Precision::Double,
        ),
    ] {
        let time = kernel_time(&gpu, &metrics, stages, fusing, precision);
        println!(
            "{:<22} {:>14} {:>16.2} {:>10.2}ms",
            name,
            metrics.bytes(),
            metrics.arithmetic_intensity(),
            time * 1e3
        );
        times.push(time);
    }

    println!();
    assert!(times[0] < times[1] && times[1] < times[2]);
    println!(
        "Narrower lengths cut traffic at each step: mixed is {:.2}x faster than single, \
         {:.2}x than double (bandwidth-bound regime).",
        times[1] / times[0],
        times[2] / times[0],
    );
}
