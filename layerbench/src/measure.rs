//! Sample handling: guarded percentiles, seeded shuffles, the timed
//! window's rounds, and process facts (CPU affinity, steal, peak RSS).

use std::time::{Duration, Instant};

use bsched_stats::Pcg32;

/// Samples that must lie strictly beyond a percentile before it may be
/// reported: with fewer, the "p99" of a short run is just its maximum.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p < 1) of `sorted`, refused unless
/// at least [`MIN_BEYOND`] samples lie beyond it. A p99 therefore needs
/// at least 1000 samples.
pub fn percentile(sorted: &[f64], p: f64) -> Result<f64, String> {
    let n = sorted.len();
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let rank = ((p * n as f64).ceil() as usize).max(1);
    if n < rank + MIN_BEYOND {
        return Err(format!(
            "p{} needs {MIN_BEYOND} samples beyond it, have {} of {n}",
            p * 100.0,
            n.saturating_sub(rank)
        ));
    }
    Ok(sorted[rank - 1])
}

/// Latency samples in milliseconds with their percentile summary.
#[derive(Debug, Default, Clone)]
pub struct Latencies {
    ms: Vec<f64>,
}

impl Latencies {
    pub fn push(&mut self, d: Duration) {
        self.ms.push(d.as_secs_f64() * 1e3);
    }

    pub fn len(&self) -> usize {
        self.ms.len()
    }

    pub fn mean_ms(&self) -> f64 {
        self.ms.iter().sum::<f64>() / self.ms.len().max(1) as f64
    }

    /// Percentile `p` in ms, refused when it is not supported.
    pub fn percentile(&self, p: f64) -> Result<f64, String> {
        let mut sorted = self.ms.clone();
        sorted.sort_by(f64::total_cmp);
        percentile(&sorted, p)
    }

    /// (p50, p99) in ms, refused when the p99 is not supported.
    pub fn p50_p99(&self) -> Result<(f64, f64), String> {
        Ok((self.percentile(0.50)?, self.percentile(0.99)?))
    }
}

/// Samples a p99 needs: [`MIN_BEYOND`] beyond the 99th percentile.
pub const P99_SAMPLES: usize = 100 * MIN_BEYOND;

/// Wall-clock ceiling on one timed window, far below the 180 s a run
/// may take: a window that cannot gather [`P99_SAMPLES`] by then fails.
const WINDOW_CAP: Duration = Duration::from_secs(100);

/// One timed phase: the ops attempted, the ones whose output was right,
/// their latencies, and the op time spent.
#[derive(Debug, Default)]
pub struct Phase {
    pub attempted: u64,
    pub correct: u64,
    pub lat: Latencies,
    pub spent: Duration,
}

impl Phase {
    /// Correct ops per second of op time.
    pub fn throughput(&self) -> f64 {
        self.correct as f64 / self.spent.as_secs_f64()
    }
}

/// Runs whole rounds until `budget` of op time is spent and the sample
/// guard is met, so every run does whole rounds and the seed never
/// changes the mix of work. `round` runs one round into the phase it is
/// given and returns the op time it spent (checks between ops excluded)
/// and the smallest population a p99 of that phase will rest on.
///
/// With `traced`, rounds alternate between an untraced phase (`[0]`)
/// and a traced one (`[1]`), so both see the same conditions on the
/// host; otherwise every round goes to `[0]`.
pub fn rounds<F>(budget: Duration, traced: bool, mut round: F) -> Result<[Phase; 2], String>
where
    F: FnMut(&mut Phase, bool) -> Result<(Duration, usize), String>,
{
    let started = Instant::now();
    let mut phases = [Phase::default(), Phase::default()];
    let mut population = [0usize; 2];
    for r in 0.. {
        let samples = if traced {
            population[0].min(population[1])
        } else {
            population[0]
        };
        let spent = phases[0].spent + phases[1].spent;
        if spent >= budget && samples >= P99_SAMPLES {
            break;
        }
        if started.elapsed() > WINDOW_CAP {
            return Err(format!(
                "window hit its {WINDOW_CAP:?} cap with {samples} samples (need {P99_SAMPLES})"
            ));
        }
        let k = usize::from(traced && r % 2 == 1);
        let (took, pop) = round(&mut phases[k], k == 1)?;
        phases[k].spent += took;
        population[k] = pop;
    }
    Ok(phases)
}

/// Deterministic Fisher–Yates shuffle from the benchmark's stream.
pub fn shuffle<T>(items: &mut [T], rng: &mut Pcg32) {
    for i in (1..items.len()).rev() {
        let j = rng.next_index(i + 1);
        items.swap(i, j);
    }
}

/// Median of a non-empty slice (mean of the middle pair when even).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// Restricts the calling thread, and every thread it spawns afterwards,
/// to the lowest CPU it may run on; returns that CPU.
///
/// On a shared virtual machine a run that keeps two CPUs busy loses a
/// share of them to other tenants (30% steal, measured) that changes
/// from minute to minute, and every cross-CPU hand-off (a serve request
/// passing from client to IO thread to worker, a parallel map waking a
/// pool worker) is the wake-up of an idle virtual CPU, whose cost is
/// set by the host rather than by this code. On one CPU those hand-offs
/// are context switches and the load from outside shows as steal in the
/// run's provenance.
pub fn pin_to_one_cpu() -> Option<usize> {
    let mut mask = [0u64; 16];
    // SAFETY: `mask` is writable and exactly `size_of_val(&mask)` bytes
    // long, as the call requires; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) } != 0 {
        return None;
    }
    let cpu = (0..mask.len() * 64).find(|&c| mask[c / 64] >> (c % 64) & 1 == 1)?;
    let mut one = [0u64; 16];
    one[cpu / 64] = 1 << (cpu % 64);
    // SAFETY: `one` is readable and exactly the stated size; pid 0 names
    // the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&one), one.as_ptr()) };
    (rc == 0).then_some(cpu)
}

/// Cumulative (steal, total) CPU ticks of the whole machine, from
/// `/proc/stat`: time the hypervisor gave this machine's CPUs to others.
pub fn cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn p99_is_refused_below_1000_samples() {
        let sorted: Vec<f64> = (1..=999).map(f64::from).collect();
        assert!(percentile(&sorted, 0.99).is_err());
        let sorted: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(percentile(&sorted, 0.99), Ok(990.0));
        assert_eq!(percentile(&sorted, 0.50), Ok(500.0));
        // A median needs only 20 samples.
        let few: Vec<f64> = (1..=19).map(f64::from).collect();
        assert!(percentile(&few, 0.50).is_err());
        let mut lat = Latencies::default();
        for _ in 0..999 {
            lat.push(Duration::from_micros(5));
        }
        assert!(lat.p50_p99().is_err());
        lat.push(Duration::from_micros(5));
        assert!(lat.p50_p99().is_ok());
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..50).collect();
        let mut b = a.clone();
        shuffle(&mut a, &mut Pcg32::seed_from_u64(7));
        shuffle(&mut b, &mut Pcg32::seed_from_u64(7));
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn median_of_even_and_odd() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }
}
