//! Host-speed calibration for CPU-bound times.
//!
//! The benchmark host is shared: for seconds at a time its CPU runs up to
//! 1.5× slower, in user time, not in page faults or preemption, far more
//! than the regressions the bounds must catch. A fixed probe workload,
//! independent of the program under test, is timed around each CPU-bound
//! measurement, and the measurement is scaled by `REF_MS / probe`: the
//! time it would have taken on a host where the probe takes [`REF_MS`].
//! Raw times go to the result's context.
//!
//! The probe builds a hash map and sorts a vector, so it allocates,
//! branches and misses the caches like an interpreter's inserts do. A
//! pure ALU loop over a 512 KiB table slowed only 1.2× in the host's slow
//! phases while fixpoints slowed 1.5×; in a 150 s trial on a 2-core Xeon
//! vCPU, scaling by this probe instead cut the spread of 25-sample
//! medians of three instances' fixpoint times from 0.11–0.23 of their
//! median to 0.05–0.07. Latencies dominated by timers and sockets are not
//! scaled.

use std::collections::HashMap;
use std::time::Instant;

/// The probe's median time on a 2-core Xeon vCPU, in ms.
pub const REF_MS: f64 = 25.0;

/// Keys the probe inserts into its hash map.
const MAP_INSERTS: u64 = 200_000;
/// Values the probe sorts.
const SORTED: u64 = 300_000;

/// A linear congruential step.
fn lcg(x: &mut u64, i: u64) -> u64 {
    *x = x
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(i | 1);
    *x
}

/// Times the probe once, in ms: counts pseudo-random keys in a hash map
/// that grows from empty, then sorts freshly allocated pseudo-random
/// values.
pub fn probe_ms() -> f64 {
    let started = Instant::now();
    let mut x = 1u64;
    let mut counts: HashMap<u64, u64> = HashMap::new();
    for i in 0..MAP_INSERTS {
        *counts.entry(lcg(&mut x, i) >> 46).or_insert(0) += 1;
    }
    let mut values: Vec<u64> = (0..SORTED).map(|i| lcg(&mut x, i)).collect();
    values.sort_unstable();
    std::hint::black_box((counts.len(), values[7]));
    started.elapsed().as_secs_f64() * 1e3
}

/// The factor that scales a time measured between two probes, taking
/// `before_ms` and `after_ms`, to the reference host: the reference time
/// over their geometric mean.
pub fn bracketed(before_ms: f64, after_ms: f64) -> f64 {
    REF_MS / (before_ms * after_ms).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_takes_measurable_time() {
        let ms = probe_ms();
        assert!(ms > 1.0 && ms < 1000.0, "probe took {ms} ms");
    }

    #[test]
    fn bracketed_factor_is_the_geometric_mean() {
        assert!((bracketed(REF_MS, REF_MS) - 1.0).abs() < 1e-12);
        assert!((bracketed(REF_MS / 2.0, REF_MS * 2.0) - 1.0).abs() < 1e-12);
        assert!((bracketed(2.0 * REF_MS, 2.0 * REF_MS) - 0.5).abs() < 1e-12);
    }
}
