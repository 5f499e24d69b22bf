//! Parallel-execution policy.

use std::num::NonZeroUsize;

/// How kernels distribute their thread blocks over CPU threads.
///
/// This is the policy object that used to be rayon hard-wired inside the
/// spmm crate. Kernels ask it how many partitions to cut their work into
/// and run one scoped thread per partition ([`Executor::Threads`]) or a
/// plain loop ([`Executor::Serial`]). `Serial` is the allocation-free
/// path; `Threads` spawns scoped worker threads per launch, which is
/// worthwhile for production-scale volumes and irrelevant for the tiny
/// matrices in tests. Later backends (persistent pools, GPUs) add
/// variants here without touching any call site.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
#[non_exhaustive]
pub enum Executor {
    /// Run everything on the calling thread. Deterministic and
    /// allocation-free.
    #[default]
    Serial,
    /// Split work across up to this many scoped threads per launch.
    Threads(NonZeroUsize),
}

impl Executor {
    /// A threaded executor sized to the machine.
    pub fn parallel() -> Self {
        Executor::Threads(std::thread::available_parallelism().unwrap_or(NonZeroUsize::MIN))
    }

    /// A threaded executor with an explicit thread count (minimum 1).
    pub fn threads(n: usize) -> Self {
        match NonZeroUsize::new(n) {
            Some(n) => Executor::Threads(n),
            None => Executor::Serial,
        }
    }

    /// Upper bound on concurrently running worker threads.
    pub fn thread_count(&self) -> usize {
        match self {
            Executor::Serial => 1,
            Executor::Threads(n) => n.get(),
        }
    }

    /// How many partitions to cut `items` work units into.
    pub fn partitions(&self, items: usize) -> usize {
        self.thread_count().min(items).max(1)
    }

    /// Whether launches may run work off the calling thread.
    pub fn is_parallel(&self) -> bool {
        self.thread_count() > 1
    }

    /// Elementwise work over two equal-length slices: cuts both into the
    /// same contiguous chunks, one per partition, and runs
    /// `f(input_chunk, output_chunk)` on each — on scoped threads when
    /// there is more than one. Every partition gets at least
    /// [`Self::MIN_CHUNK`] elements, so short vectors stay on the calling
    /// thread. `f` must not depend on where the cuts fall.
    ///
    /// # Panics
    /// Panics on length mismatch.
    pub fn zip_chunks<A: Sync, B: Send>(
        &self,
        input: &[A],
        output: &mut [B],
        f: impl Fn(&[A], &mut [B]) + Sync,
    ) {
        assert_eq!(input.len(), output.len(), "zip_chunks length mismatch");
        let parts = self.partitions(input.len() / Self::MIN_CHUNK);
        if parts <= 1 {
            return f(input, output);
        }
        let per_part = input.len().div_ceil(parts);
        let f = &f;
        std::thread::scope(|scope| {
            let mut chunks = input.chunks(per_part).zip(output.chunks_mut(per_part));
            // The calling thread takes the first chunk itself: one spawn
            // fewer, and it would otherwise only wait.
            let own = chunks.next();
            for (i, o) in chunks {
                scope.spawn(move || f(i, o));
            }
            if let Some((i, o)) = own {
                f(i, o);
            }
        });
    }

    /// Fewest elements [`Self::zip_chunks`] hands one thread: a spawn
    /// costs tens of microseconds, about what a conversion of this many
    /// elements takes, so smaller chunks cannot pay for their thread.
    pub const MIN_CHUNK: usize = 1 << 15;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_is_one_partition() {
        assert_eq!(Executor::Serial.partitions(100), 1);
        assert_eq!(Executor::Serial.thread_count(), 1);
        assert!(!Executor::Serial.is_parallel());
    }

    #[test]
    fn partitions_never_exceed_items_or_threads() {
        let e = Executor::threads(4);
        assert_eq!(e.partitions(100), 4);
        assert_eq!(e.partitions(3), 3);
        assert_eq!(e.partitions(0), 1);
    }

    #[test]
    fn zip_chunks_covers_every_element_once_on_any_executor() {
        let input: Vec<u32> = (0..3 * Executor::MIN_CHUNK as u32 + 17).collect();
        for executor in [Executor::Serial, Executor::threads(2), Executor::threads(7)] {
            let mut output = vec![0u64; input.len()];
            executor.zip_chunks(&input, &mut output, |i, o| {
                for (o, &i) in o.iter_mut().zip(i) {
                    *o += u64::from(i) + 1;
                }
            });
            assert!(
                output
                    .iter()
                    .zip(&input)
                    .all(|(&o, &i)| o == u64::from(i) + 1),
                "{executor:?}"
            );
        }
        // Short vectors are not worth a spawn: one call, whole slices.
        let calls = std::sync::atomic::AtomicUsize::new(0);
        Executor::threads(4).zip_chunks(&input[..100], &mut [0u64; 100], |i, _| {
            assert_eq!(i.len(), 100);
            calls.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert_eq!(calls.into_inner(), 1);
    }

    #[test]
    fn zero_threads_degrades_to_serial() {
        assert_eq!(Executor::threads(0), Executor::Serial);
    }

    #[test]
    fn parallel_reflects_the_machine() {
        assert!(Executor::parallel().thread_count() >= 1);
    }
}
