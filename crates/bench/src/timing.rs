//! Wall-clock measurement helpers.

use std::time::{Duration, Instant};

/// Runs `f`, returning its result and the elapsed wall time.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed())
}

/// Runs `f` `n` times and returns the median duration with the last
/// result. `n` is clamped to at least 1.
pub fn median_of<T>(n: usize, mut f: impl FnMut() -> T) -> (T, Duration) {
    let n = n.max(1);
    let mut durations = Vec::with_capacity(n);
    let mut last = None;
    for _ in 0..n {
        let (out, d) = time(&mut f);
        durations.push(d);
        last = Some(out);
    }
    (last.expect("n >= 1"), median(durations))
}

/// The median of a non-empty set of durations (the upper middle one for
/// an even count).
pub fn median(mut durations: Vec<Duration>) -> Duration {
    durations.sort_unstable();
    durations[durations.len() / 2]
}

/// Formats a duration in adaptive units (µs / ms / s).
pub fn fmt_duration(d: Duration) -> String {
    let us = d.as_secs_f64() * 1e6;
    if us < 1000.0 {
        format!("{us:.0} µs")
    } else if us < 1_000_000.0 {
        format!("{:.2} ms", us / 1000.0)
    } else {
        format!("{:.3} s", us / 1_000_000.0)
    }
}

/// Mean of a duration slice (zero for empty input).
pub fn mean(durations: &[Duration]) -> Duration {
    if durations.is_empty() {
        return Duration::ZERO;
    }
    let total: Duration = durations.iter().sum();
    total / durations.len() as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_measures_something() {
        let (value, d) = time(|| 21 * 2);
        assert_eq!(value, 42);
        assert!(d < Duration::from_secs(1));
    }

    #[test]
    fn median_is_stable() {
        let (_, d) = median_of(5, || std::hint::black_box(1 + 1));
        assert!(d < Duration::from_millis(100));
    }

    #[test]
    fn formatting_units() {
        assert!(fmt_duration(Duration::from_micros(12)).contains("µs"));
        assert!(fmt_duration(Duration::from_millis(12)).contains("ms"));
        assert!(fmt_duration(Duration::from_secs(2)).ends_with("s"));
    }

    #[test]
    fn mean_of_durations() {
        assert_eq!(mean(&[]), Duration::ZERO);
        let m = mean(&[Duration::from_millis(10), Duration::from_millis(20)]);
        assert_eq!(m, Duration::from_millis(15));
    }
}
