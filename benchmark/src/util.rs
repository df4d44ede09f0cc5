//! Small shared pieces: the seeded request RNG, a Zipf sampler, FNV-1a,
//! and the one percentile routine every metric goes through.

use std::time::Duration;

/// xorshift64* seeded through splitmix64, so nearby seeds diverge at once.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    pub fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// How a closed-loop client picks its next target.
pub enum Popularity {
    Uniform(usize),
    /// Rank `r` (0-based) is drawn with weight `1 / (r + 1)`.
    Zipf(Vec<f64>),
}

impl Popularity {
    pub fn new(skewed: bool, n: usize) -> Popularity {
        if skewed {
            Popularity::zipf(n)
        } else {
            Popularity::Uniform(n)
        }
    }

    fn zipf(n: usize) -> Popularity {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for r in 0..n {
            acc += 1.0 / (r + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Popularity::Zipf(cdf)
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        match self {
            Popularity::Uniform(n) => rng.below(*n),
            Popularity::Zipf(cdf) => {
                let u = rng.unit();
                cdf.partition_point(|&c| c <= u).min(cdf.len() - 1)
            }
        }
    }
}

pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Nearest-rank percentile of an ascending slice; 0 for an empty one.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

pub fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    percentile(&values, 0.5)
}

pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

pub fn rss_mb() -> f64 {
    flowcube_obs::rss::current_rss_bytes().unwrap_or(0) as f64 / 1e6
}

pub fn peak_rss_mb() -> f64 {
    flowcube_obs::rss::peak_rss_bytes().unwrap_or(0) as f64 / 1e6
}

#[cfg(target_os = "linux")]
extern "C" {
    // libc, which std already links.
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

/// A CPU affinity mask, as `sched_getaffinity` fills it in.
pub struct Affinity([u64; 16]);

/// Restrict the calling thread, and every thread or process it starts
/// from here on, to one of the CPUs it is allowed (the highest-numbered,
/// which takes the fewest device interrupts). Returns the mask it had, for
/// [`restore_cpus`], or `None` where the platform has no such call.
///
/// The serving phases of the read workloads run under this. On the 2-vCPU
/// reference box a request hops client → acceptor → worker → client;
/// whether each wake-up lands on the waker's CPU or crosses to the other
/// (an IPI, and a VM exit when that vCPU was halted) is the scheduler's
/// choice, and it settles into a fast or a ~20 % slower pattern for 20 to
/// 60 s at a time — longer than a run. On one CPU no wake-up crosses, the
/// same binary answers ~25 % *faster*, and what remains is the program's
/// own work per request.
pub fn pin_to_one_cpu() -> Option<Affinity> {
    #[cfg(target_os = "linux")]
    {
        let mut mask = [0u64; 16];
        let size = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of `size` bytes.
        if unsafe { sched_getaffinity(0, size, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().rposition(|w| *w != 0)?;
        let mut one = [0u64; 16];
        one[word] = 1 << (63 - mask[word].leading_zeros());
        // SAFETY: `one` is a live buffer of `size` bytes.
        (unsafe { sched_setaffinity(0, size, one.as_ptr()) } == 0).then_some(Affinity(mask))
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Give the calling thread back the CPUs it had before [`pin_to_one_cpu`].
pub fn restore_cpus(previous: Option<Affinity>) {
    #[cfg(target_os = "linux")]
    if let Some(Affinity(mask)) = previous {
        // SAFETY: `mask` is a live buffer of the size passed.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }
    #[cfg(not(target_os = "linux"))]
    let _ = previous;
}
