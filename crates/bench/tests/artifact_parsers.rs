//! Hostile-input tests for the artifact parsers: `petaxct-profile-v1`
//! ([`ProfileReport::parse`]), `petaxct-tune-v1` ([`TuneReport::parse`]),
//! `petaxct-bench-v2` ([`BenchReport::parse`]) and the [`Json::parse`]
//! they share. A must-reject table pins the documents each parser has to
//! refuse (with the field named), and a seeded mutation test — truncate,
//! flip a byte, replace a number token — asserts that whatever the bytes
//! are, parsing returns `Ok` or `Err` and never panics.

use proptest::prelude::*;
use xct_bench::perf::BenchReport;
use xct_plan::{ProfileReport, TuneReport};
use xct_telemetry::Json;

/// One committed document per schema, as the writers emit them (modulo
/// line breaks).
const PROFILE: &str = r#"{"schema":"petaxct-profile-v1","precision":"mixed","n":8,"slices":2,
"angles":24,"topology":"1x2x2","tile_size":4,"tiles_x":2,"tiles_y":2,"tile_costs_ns":[0,100,200,300],
"ranks":[{"rank":0,"busy_ns":1000,"on_path_ns":300,"slack_ns":700,"wire_ns":50,"components":
{"spmm.compute":400,"gather.convert":100,"reduce.socket":100,"reduce.node":100,"reduce.global":100,
"comm.wait":150,"io.stall":50}},{"rank":1,"busy_ns":800,"on_path_ns":300,"slack_ns":500,"wire_ns":0,
"components":{"spmm.compute":300,"gather.convert":100,"reduce.socket":100,"reduce.node":100,
"reduce.global":100,"comm.wait":100,"io.stall":0}}],"drift":[{"component":"spmm.compute",
"measured_ns":700,"measured_share":0.4375,"predicted_share":0.125,"drift":0.3125},
{"component":"comm.wait","measured_ns":250,"measured_share":0.15625,"predicted_share":0.5,
"drift":-0.34375}],"skew":{"max_tile_ns":300,"mean_tile_ns":150,"max_over_mean":2,
"critical_path_ns":1300,"max_rank_slack_ns":700,"zero_slack_ranks":[0]}}"#;
const TUNE: &str = r#"{"schema":"petaxct-tune-v1","precision":"half","n":64,"angles":48,"points":[
{"block_size":32,"shared_bytes":4096,"fusing":4,"wall_ns":120000,"flops":9000000},
{"block_size":64,"shared_bytes":8192,"fusing":8,"wall_ns":90000,"flops":9000000}]}"#;
const BENCH: &str = r#"{"schema":"petaxct-bench-v2","scenarios":[{"name":"dist_sync",
"allocations":4271,"flops":123456789,"padded_flops":130000000,"kernel_launches":488,
"kernel_bytes":303472,"comm_bytes":{"socket":1303936},"comm_msgs":{"node":108}}]}"#;

/// Applies each `from => to => names` row of `table` to `doc` (the
/// pattern must be present, so a stale row cannot pass by leaving the
/// document valid) and checks that `parse` refuses the result with an
/// error containing `names`. Lines starting with `#` are comments.
fn must_reject<T: std::fmt::Debug>(
    parse: impl Fn(&str) -> Result<T, String>,
    doc: &str,
    table: &str,
) {
    parse(doc).expect("the unedited document is valid");
    for row in table
        .lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
    {
        let [from, to, names] = row.split(" => ").collect::<Vec<_>>()[..] else {
            panic!("malformed row {row:?}");
        };
        assert!(doc.contains(from), "fixture has no {from:?}");
        let err = parse(&doc.replacen(from, to, 1)).expect_err(row);
        assert!(err.contains(names), "{row}: {err}");
    }
}

#[test]
fn profile_parser_rejects_hostile_artifacts() {
    let table = r#"
        # A zero factor used to reach Topology::new's assert.
        "1x2x2" => "0x2x2" => 0x2x2
        "1x2x2" => "1x2" => 1x2
        "1x2x2" => "-1x2x2" => -1x2x2
        "topology":"1x2x2" => "topology":4 => topology
        # Negative, fractional and huge counts used to saturate.
        "tiles_x":2 => "tiles_x":-1 => tiles_x
        "n":8 => "n":2.5 => "n"
        "slices":2 => "slices":1e300 => slices
        "angles":24 => "angles":9007199254740994 => angles
        "tile_size":4 => "tile_size":"4" => tile_size
        "busy_ns":1000 => "busy_ns":-7 => busy_ns
        "comm.wait":150 => "comm.wait":0.5 => comm.wait
        "measured_ns":700 => "measured_ns":1e999 => bad number
        "max_tile_ns":300 => "max_tile_ns":-0.5 => max_tile_ns
        "zero_slack_ranks":[0] => "zero_slack_ranks":[-1] => zero-slack
        "rank":1, => "rank":4294967296, => rank
        [0,100, => [-100,100, => tile cost
        # Tile table vs grid, including a product that overflows.
        "tiles_y":2 => "tiles_y":3 => 4 entries
        [0,100, => [100, => 3 entries
        "tiles_x":2,"tiles_y":2 => "tiles_x":9007199254740992,"tiles_y":9007199254740992 => 4 entries
        # Schema tag, missing keys, unknown names, rank order.
        petaxct-profile-v1 => petaxct-profile-v2 => petaxct-profile-v2
        "schema": => "scheme": => schema
        "mixed" => "quad" => precision
        "tile_size": => "tile": => tile_size
        "skew": => "skewed": => skew
        "wire_ns": => "wire": => wire_ns
        "io.stall":50 => "io.stalled":50 => io.stall
        "component":"comm.wait" => "component":"comm.nap" => comm.nap
        "rank":0, => "rank":1, => out of order
    "#;
    must_reject(ProfileReport::parse, PROFILE, table);
}

#[test]
fn tune_parser_rejects_hostile_artifacts() {
    let table = r#"
        "n":64 => "n":-64 => "n"
        "angles":48 => "angles":48.5 => angles
        "block_size":32 => "block_size":1e300 => block_size
        "fusing":4 => "fusing":null => fusing
        "wall_ns":120000 => "wall_ns":-1 => wall_ns
        "flops": => "flop": => flops
        "points": => "pints": => points
        petaxct-tune-v1 => petaxct-profile-v1 => petaxct-profile-v1
        "schema": => "scheme": => schema
        "half" => "quarter" => precision
    "#;
    must_reject(TuneReport::parse, TUNE, table);
}

#[test]
fn bench_parser_rejects_hostile_artifacts() {
    let table = r#"
        "allocations":4271 => "allocations":4271.5 => allocations
        "flops":123456789 => "flops":1e300 => flops
        "padded_flops":130000000 => "padded_flops":-1 => padded_flops
        "kernel_launches":488 => "kernel_launches":"488" => kernel_launches
        "kernel_bytes": => "kernel_byte": => kernel_bytes
        "socket":1303936 => "socket":0.25 => socket
        "comm_bytes": => "comm_byte": => comm_bytes
        "node":108 => "node":-108 => node
        "comm_msgs": => "comm_msg": => comm_msgs
        "name":"dist_sync" => "name":7 => name
        "scenarios": => "scenario": => scenarios
        # The wall-time schema is history: its documents are refused.
        petaxct-bench-v2 => petaxct-bench-v1 => petaxct-bench-v1
        "schema": => "scheme": => schema
    "#;
    must_reject(BenchReport::parse, BENCH, table);
}

/// Number tokens a mutation may substitute (comma-separated, the last
/// one empty): counts that are not counts, numbers JSON does not have,
/// and a few that stay valid.
const NUMBERS: &str =
    "-1,2.5,1e300,1e999,-1e999,9007199254740993,18446744073709551616,0,-0,1e-7,00,1e,--1,";

/// One seeded mutation of `doc`: truncate at a byte, flip one bit of a
/// byte, or replace the first number token at or after a byte (wrapping
/// around). Lossy UTF-8 decoding keeps the result a `&str` whatever the
/// flip produced.
fn mutate(doc: &str, kind: u8, at: usize, pick: usize) -> String {
    let mut bytes = doc.as_bytes().to_vec();
    let at = at % bytes.len();
    match kind % 3 {
        0 => bytes.truncate(at),
        1 => bytes[at] ^= 1 << (pick % 8),
        _ => {
            let number = |b: &u8| b.is_ascii_digit() || b"-+.eE".contains(b);
            let start = (at..bytes.len())
                .chain(0..at)
                .find(|&i| bytes[i].is_ascii_digit() && (i == 0 || !number(&bytes[i - 1])))
                .expect("every fixture holds a number");
            let len = bytes[start..].iter().take_while(|b| number(b)).count();
            let token = NUMBERS.split(',').cycle().nth(pick).unwrap_or_default();
            bytes.splice(start..start + len, token.bytes());
        }
    }
    String::from_utf8_lossy(&bytes).into_owned()
}

/// `parse` on the mutated document returns — `Ok` or `Err`; the harness
/// turns a panic into a failure — and whatever it accepts survives its
/// own writer.
fn survives<T: PartialEq + std::fmt::Debug>(
    parse: impl Fn(&str) -> Result<T, String>,
    write: impl Fn(&T) -> String,
    mutated: &str,
) {
    if let Ok(accepted) = parse(mutated) {
        assert_eq!(parse(&write(&accepted)).as_ref(), Ok(&accepted));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12_000))]

    #[test]
    fn mutated_artifacts_never_panic(kind in 0u8..3, at in 0usize..1 << 20, pick in 0usize..1 << 10) {
        survives(ProfileReport::parse, |r| r.to_json().to_string(), &mutate(PROFILE, kind, at, pick));
        survives(TuneReport::parse, |r| r.to_json().to_string(), &mutate(TUNE, kind, at, pick));
        survives(BenchReport::parse, |r| r.to_json().to_string(), &mutate(BENCH, kind, at, pick));
        for doc in [PROFILE, TUNE, BENCH] {
            survives(Json::parse, Json::to_string, &mutate(doc, kind, at, pick));
        }
    }
}
