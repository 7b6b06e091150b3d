//! A fixed reference kernel that reads the machine's current speed.
//!
//! On a shared host the same binary runs 20–40% slower for minutes at a
//! time while neighbours load the cores and caches. The workloads sample
//! this kernel between their operations, and the headline time is the
//! operation's time in units of the kernel's time measured over the same
//! stretch of the run. The kernel is the benchmark's own code, not the
//! program's, so no change to the program moves it.

use std::hint::black_box;
use std::time::Instant;

/// Matrix side: three f32 matrices of this side stay in a core's L2.
const N: usize = 128;
/// Matmuls per pass.
const MATMULS: usize = 4;
/// Streamed buffers, in f32s: 4 MiB each, past L2.
const STREAM: usize = 1 << 20;
/// Passes per block; a sample runs one block on this thread alone and one
/// on two threads at once, like the program's own pool of two.
const PASSES: usize = 20;

/// One thread's buffers.
struct Lane {
    a: Vec<f32>,
    b: Vec<f32>,
    c: Vec<f32>,
    stream: Vec<f32>,
    src: Vec<f32>,
}

impl Lane {
    fn new(salt: u32) -> Self {
        let fill = |n: usize, k: u32| -> Vec<f32> {
            (0..n)
                .map(|i| {
                    let h = (i as u32).wrapping_mul(2_654_435_761).wrapping_add(k);
                    (h >> 16) as f32 / 65536.0
                })
                .collect()
        };
        Self {
            a: fill(N * N, salt),
            b: fill(N * N, salt + 1),
            c: vec![0.0; N * N],
            stream: fill(STREAM, salt + 2),
            src: fill(STREAM, salt + 3),
        }
    }

    /// One pass: dense matmuls in L2, then a scaled add streamed past it.
    fn pass(&mut self) -> f32 {
        let (a, b, c) = (&self.a, &self.b, &mut self.c);
        for _ in 0..MATMULS {
            c.fill(0.0);
            for i in 0..N {
                for k in 0..N {
                    let aik = a[i * N + k];
                    let row = &b[k * N..(k + 1) * N];
                    for (cj, bj) in c[i * N..(i + 1) * N].iter_mut().zip(row) {
                        *cj += aik * bj;
                    }
                }
            }
        }
        for (y, x) in self.stream.iter_mut().zip(&self.src) {
            *y = 0.5 * *y + x;
        }
        c[N + 1] + self.stream[STREAM / 2]
    }

    fn block(&mut self) {
        for _ in 0..PASSES {
            black_box(self.pass());
        }
    }
}

/// The reference kernel with its buffers.
pub struct Reference {
    lanes: [Lane; 2],
}

impl Reference {
    pub fn new() -> Self {
        Self {
            lanes: [Lane::new(1), Lane::new(11)],
        }
    }

    /// Wall time of one sample, ms: a block on this thread alone, then a
    /// block on each of two threads at once.
    pub fn sample_ms(&mut self) -> f64 {
        let t = Instant::now();
        let [own, other] = &mut self.lanes;
        own.block();
        std::thread::scope(|s| {
            s.spawn(|| other.block());
            own.block();
        });
        t.elapsed().as_secs_f64() * 1e3
    }
}
