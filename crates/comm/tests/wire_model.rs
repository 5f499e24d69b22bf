//! A wire model built by a library caller, not parsed from `--wire`, is
//! checked once, before any rank starts. This binary holds one test, so
//! its panic hook counts that test's panics alone.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;
use xct_comm::{run_ranks_with, RankOptions, Topology, WireModel};

#[test]
fn a_wire_no_rank_can_run_on_is_refused_once_naming_the_field() {
    let panics = Arc::new(AtomicUsize::new(0));
    let counted = Arc::clone(&panics);
    let prev = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        counted.fetch_add(1, Ordering::SeqCst);
        prev(info);
    }));
    let topology = Topology::new(2, 2, 2);
    let wire = WireModel {
        latency: Duration::from_micros(600),
        bytes_per_sec: 50e6,
        ranks_per_node: topology.gpus_per_node(),
    };
    let started = AtomicUsize::new(0);
    for (wire, field) in [
        (
            WireModel {
                bytes_per_sec: 1e-300,
                ..wire
            },
            "bytes_per_sec",
        ),
        (
            WireModel {
                latency: Duration::MAX,
                ..wire
            },
            "latency",
        ),
    ] {
        let opts = RankOptions {
            wire: Some(wire),
            ..RankOptions::default()
        };
        let before = panics.load(Ordering::SeqCst);
        let refused = catch_unwind(AssertUnwindSafe(|| {
            run_ranks_with(topology.size(), &opts, |_| {
                started.fetch_add(1, Ordering::SeqCst);
            })
        }))
        .expect_err("the wire is refused");
        let message = refused.downcast_ref::<String>().expect("a message");
        assert!(message.contains(field), "{message}");
        assert_eq!(
            panics.load(Ordering::SeqCst) - before,
            1,
            "{field}: one refusal"
        );
    }
    assert_eq!(started.load(Ordering::SeqCst), 0, "no rank started");

    // The model's own arithmetic saturates instead of panicking.
    let endless = WireModel {
        latency: Duration::MAX,
        bytes_per_sec: 1e-300,
        ranks_per_node: 1,
    };
    assert_eq!(endless.wire_time(0, 1, 1 << 20), Some(Duration::MAX));
    // A model that passes the check still runs.
    let opts = RankOptions {
        wire: Some(wire),
        ..RankOptions::default()
    };
    assert_eq!(run_ranks_with(2, &opts, |comm| comm.rank()), [0, 1]);
}
