//! Parallel-execution policy.

use std::num::NonZeroUsize;

/// How kernels distribute their thread blocks over CPU threads.
///
/// This is the policy object that used to be rayon hard-wired inside the
/// spmm crate. Kernels ask it how many partitions to cut their work into
/// and hand the parts to [`Executor::for_each_part`]: scoped threads
/// ([`Executor::Threads`]) or a plain loop ([`Executor::Serial`]).
/// `Serial` is the allocation-free path; `Threads` spawns scoped worker
/// threads per launch, which is worthwhile for production-scale volumes
/// and irrelevant for the tiny matrices in tests. Later backends
/// (persistent pools, GPUs) add variants here without touching any call
/// site.
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
    /// `f(input_chunk, output_chunk)` on each through
    /// [`Self::for_each_part`]. Every partition gets at least
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
        let chunks = input.chunks(per_part).zip(output.chunks_mut(per_part));
        self.for_each_part(chunks, |(i, o)| f(i, o));
    }

    /// The one place a launch fans out: runs `f` once per part, the
    /// first part on the calling thread — one spawn fewer, and it would
    /// otherwise only wait — and every other part on a scoped thread of
    /// its own, joined before this returns. Callers cut at most
    /// [`Self::partitions`] parts; a single part (and every part of a
    /// [`Executor::Serial`] launch) runs in place, without a scope.
    pub fn for_each_part<T: Send>(&self, parts: impl IntoIterator<Item = T>, f: impl Fn(T) + Sync) {
        let mut parts = parts.into_iter().peekable();
        let Some(own) = parts.next() else { return };
        if !self.is_parallel() || parts.peek().is_none() {
            f(own);
            return parts.for_each(f);
        }
        let f = &f;
        std::thread::scope(|scope| {
            for part in parts {
                scope.spawn(move || f(part));
            }
            f(own);
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
    fn for_each_part_runs_every_part_once_and_the_first_on_the_caller() {
        use std::sync::Mutex;
        let caller = std::thread::current().id();
        for executor in [Executor::Serial, Executor::threads(3)] {
            let seen = Mutex::new(Vec::new());
            executor.for_each_part(0..3usize, |part| {
                seen.lock()
                    .unwrap()
                    .push((part, std::thread::current().id()));
            });
            let mut seen = seen.into_inner().unwrap();
            seen.sort_by_key(|&(part, _)| part);
            assert_eq!(seen.iter().map(|&(p, _)| p).collect::<Vec<_>>(), [0, 1, 2]);
            assert_eq!(seen[0].1, caller, "{executor:?}");
            let off_caller = seen[1..].iter().filter(|&&(_, id)| id != caller).count();
            assert_eq!(off_caller, if executor.is_parallel() { 2 } else { 0 });
        }
        Executor::threads(3).for_each_part(std::iter::empty::<()>(), |()| unreachable!());
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
