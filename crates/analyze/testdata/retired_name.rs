//! Seeded violations: the retired exchange schedule iterator coming
//! back in place of the op list `protocol::apply` builds, and the three
//! per-view run artifacts the one run document replaced. Each line must
//! be rejected by `retired-name`.

fn main() {
    for step in exchange_schedule(3, true) {
        println!("{step:?}");
    }
    let telemetry = "petaxct-telemetry-v1";
    let profile = "petaxct-profile-v1";
    let flight = "petaxct-flightrec-v1";
}
