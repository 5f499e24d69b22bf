//! Seeded violation: a library layer that picks its own worker count
//! from the machine instead of taking its caller's `Executor`. Must be
//! rejected by `machine-width`.

use xct_exec::Executor;

pub struct Tracer {
    executor: Executor,
}

impl Tracer {
    pub fn new() -> Self {
        Tracer {
            executor: Executor::parallel(),
        }
    }

    pub fn parts(&self, items: usize) -> usize {
        self.executor.partitions(items)
    }
}
