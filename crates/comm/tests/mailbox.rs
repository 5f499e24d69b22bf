//! Property test of the keyed mailbox: whatever the interleaving of
//! sends across `(src, tag)` keys, the wire and chaos hold-backs, and the
//! order the receiver drains keys in, every key yields its payloads in
//! send order, exactly once, and the mailbox ends empty.

use proptest::prelude::*;
use std::time::Duration;
use xct_comm::{run_ranks_with, ChaosSchedule, RankOptions, WireModel};
use xct_telemetry::{MetricId, Telemetry};

const TAGS: u64 = 3;

/// Two senders (ranks 1 and 2) × [`TAGS`] tags = six keys into rank 0.
fn sends() -> impl Strategy<Value = Vec<(usize, u64)>> {
    prop::collection::vec((1usize..3, 0u64..TAGS), 1..24)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_key_is_fifo_lossless_and_drains_to_zero(
        sends in sends(),
        latency_us in 0u64..300,
        ranks_per_node in 0usize..4,
        seed in any::<u64>(),
    ) {
        // The receiver asks for keys in a shuffled order of the sends.
        let mut drain = sends.clone();
        let mut rng = TestRng::from_seed(seed);
        for i in (1..drain.len()).rev() {
            drain.swap(i, (rng.next_u64() % (i as u64 + 1)) as usize);
        }
        let telemetry = Telemetry::enabled();
        let opts = RankOptions {
            timeout: Duration::from_secs(20),
            telemetry: telemetry.clone(),
            wire: Some(WireModel {
                latency: Duration::from_micros(latency_us),
                bytes_per_sec: 1e6,
                ranks_per_node,
            }),
            chaos: Some(ChaosSchedule::jitter(seed)),
        };
        let got = run_ranks_with(3, &opts, |comm| {
            if comm.rank() != 0 {
                // The payload is the message's position in `sends`.
                for (at, &(src, tag)) in sends.iter().enumerate() {
                    if src == comm.rank() {
                        comm.send_vals::<f32>(0, tag, &[at as f32]).unwrap();
                    }
                }
                return Vec::new();
            }
            let got: Vec<(usize, u64, f32)> = drain
                .iter()
                .map(|&(src, tag)| (src, tag, comm.recv_vals::<f32>(src, tag).unwrap()[0]))
                .collect();
            for src in 1..3 {
                for tag in 0..TAGS {
                    let extra = comm.try_recv(src, tag).unwrap();
                    assert!(extra.is_none(), "duplicate at {src}/{tag}");
                }
            }
            got
        });
        prop_assert_eq!(got[0].len(), sends.len());
        for src in 1..3 {
            for tag in 0..TAGS {
                let sent: Vec<f32> = (0..sends.len())
                    .filter(|&at| sends[at] == (src, tag))
                    .map(|at| at as f32)
                    .collect();
                let received: Vec<f32> = got[0]
                    .iter()
                    .filter(|m| (m.0, m.1) == (src, tag))
                    .map(|m| m.2)
                    .collect();
                prop_assert_eq!(received, sent, "key {}/{}", src, tag);
            }
        }
        let depth = telemetry
            .metrics_snapshot()
            .track(0)
            .and_then(|t| t.gauge(MetricId::CommMailboxDepth));
        prop_assert_eq!(depth, Some(0.0));
    }
}
