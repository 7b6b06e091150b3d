//! Kernels must not strand arena buffers on pool workers.
//!
//! A parallel kernel's job closure can be dropped last on a worker thread.
//! Any arena [`dance_backend::Storage`] it captured is then recycled into
//! that worker's thread-local free list, where the calling thread never
//! finds it again: every such call strands one more buffer, and resident
//! memory creeps towards the arena budget. This binary holds a single test
//! so no other test shares the pool while it measures.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use dance_backend::storage::retained_bytes;
use dance_backend::{Data, Kernels, ParallelKernels, Storage};

/// Bytes retained by the arenas of every pool thread, the caller included.
///
/// Runs one chunk per thread, and each chunk waits (up to a deadline, so a
/// missing worker cannot hang the test) until all are claimed: a thread
/// parked in a chunk cannot claim a second one, so each chunk reports a
/// distinct thread.
fn pool_retained_bytes() -> usize {
    let threads = dance_backend::threads();
    let arrived = Arc::new(AtomicUsize::new(0));
    let seen = arrived.clone();
    let reports = dance_backend::run(threads, move |_| {
        seen.fetch_add(1, Ordering::SeqCst);
        let deadline = Instant::now() + Duration::from_secs(5);
        while seen.load(Ordering::SeqCst) < threads && Instant::now() < deadline {
            thread::sleep(Duration::from_millis(1));
        }
        (thread::current().id(), retained_bytes())
    });
    let per_thread: HashMap<_, _> = reports.into_iter().collect();
    assert_eq!(per_thread.len(), threads, "every pool thread reports once");
    per_thread.values().sum()
}

/// Busy-spins one thread per core until dropped. Which thread drops a job
/// last is a race the worker usually wins; preempting workers between
/// finishing their chunk and releasing the job makes the losing order —
/// the one that strands a captured buffer — common enough to observe.
struct CpuContention {
    stop: Arc<AtomicBool>,
    spinners: Vec<thread::JoinHandle<()>>,
}

impl CpuContention {
    fn start() -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let cores = thread::available_parallelism()
            .map_or(2, usize::from)
            .min(8);
        let spinners = (0..cores)
            .map(|_| {
                let stop = stop.clone();
                thread::spawn(move || {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                })
            })
            .collect();
        Self { stop, spinners }
    }
}

impl Drop for CpuContention {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        for s in self.spinners.drain(..) {
            s.join().expect("spinner thread exits cleanly");
        }
    }
}

#[test]
fn parallel_matmul_bt_does_not_strand_buffers_on_workers() {
    dance_backend::set_threads(8);
    let (m, n, kdim) = (256, 128, 128);
    let g: Data = Arc::new(Storage::from_slice(
        &(0..m * n)
            .map(|i| (i as f32 * 0.37).sin())
            .collect::<Vec<_>>(),
    ));
    let w: Data = Arc::new(Storage::from_slice(
        &(0..kdim * n)
            .map(|i| (i as f32 * 0.11).cos())
            .collect::<Vec<_>>(),
    ));
    let calls = |count: usize| {
        for _ in 0..count {
            drop(ParallelKernels.matmul_bt(&g, &w, m, n, kdim));
        }
    };
    calls(20);
    let warm = pool_retained_bytes();
    {
        let _contention = CpuContention::start();
        calls(1000);
    }
    let after = pool_retained_bytes();
    assert!(
        after <= warm,
        "pool threads retain {after} bytes after 1020 matmul_bt calls vs {warm} after 20"
    );
}
