//! Seeded violation: the retired exchange schedule iterator coming
//! back in place of the op list `protocol::apply` builds. Must be
//! rejected by `retired-name`.

fn main() {
    for step in exchange_schedule(3, true) {
        println!("{step:?}");
    }
}
