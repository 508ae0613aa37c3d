//! A fixed in-process reference kernel, run before and after every run
//! (`bench.calib_ms` of a traced run, the `# calib_ms` line of any): when
//! it moves between two runs, the machine drifted; when it holds and a
//! metric moves, the code did. `aa.sh` repeats a run around which it read
//! high.

use crate::stats::median;
use spider_snapshot::xxh::xxh64;
use std::time::Instant;

const HASH_BYTES: usize = 64 << 20;
const CHASE_SLOTS: usize = (16 << 20) / std::mem::size_of::<u32>();
const CHASE_HOPS: usize = 1 << 21;

/// Scratch memory of the kernel, allocated once per run.
pub struct Calib {
    bytes: Vec<u8>,
    next: Vec<u32>,
}

impl Calib {
    /// Allocates and fills the buffers (not timed).
    pub fn new() -> Calib {
        let bytes: Vec<u8> = (0..HASH_BYTES).map(|i| ((i * 31) >> 3) as u8).collect();
        // One cycle through every slot with a stride co-prime to the
        // slot count, far enough apart to defeat the prefetcher.
        let stride = 1_000_003 % CHASE_SLOTS;
        let mut next = vec![0u32; CHASE_SLOTS];
        for (i, slot) in next.iter_mut().enumerate() {
            *slot = ((i + stride) % CHASE_SLOTS) as u32;
        }
        Calib { bytes, next }
    }

    /// One reading: the median of three passes, in milliseconds. A single
    /// pass also reads high in a burst too short to touch a run's numbers.
    pub fn run_ms(&self) -> f64 {
        median(&[self.pass_ms(), self.pass_ms(), self.pass_ms()])
    }

    /// One pass: xxh64 over 64 MiB (streaming bandwidth) plus a pointer
    /// chase through 16 MiB (memory latency).
    fn pass_ms(&self) -> f64 {
        let started = Instant::now();
        let mut acc = xxh64(std::hint::black_box(&self.bytes), 0);
        let mut at = (acc % CHASE_SLOTS as u64) as usize;
        for _ in 0..CHASE_HOPS {
            at = self.next[at] as usize;
        }
        acc ^= at as u64;
        std::hint::black_box(acc);
        started.elapsed().as_secs_f64() * 1e3
    }
}

impl Default for Calib {
    fn default() -> Self {
        Calib::new()
    }
}
