//! PCG-XSH-RR 64/32 pseudo-random number generator.
//!
//! A small, fast, statistically solid generator (O'Neill, 2014). Using our own
//! implementation rather than the `rand` crate keeps every experiment in the
//! workspace bit-reproducible regardless of dependency versions.

/// Deterministic pseudo-random number generator (PCG-XSH-RR 64/32).
///
/// Seeding is via SplitMix64 so that nearby integer seeds produce unrelated
/// streams. All higher-level sampling (floats, ranges, shuffles, Gaussians,
/// Dirichlet draws) is layered on the raw 32-bit output.
#[derive(Clone, Debug)]
pub struct Rng {
    state: u64,
    inc: u64,
}

const PCG_MULT: u64 = 6364136223846793005;

fn splitmix64(x: &mut u64) -> u64 {
    *x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = *x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

impl Rng {
    /// Create a generator from a 64-bit seed.
    pub fn new(seed: u64) -> Self {
        let mut s = seed;
        let state = splitmix64(&mut s);
        let inc = splitmix64(&mut s) | 1;
        let mut rng = Rng { state, inc };
        // Advance once so that state reflects the increment.
        rng.next_u32();
        rng
    }

    /// Derive an independent child stream; useful for giving each component
    /// (data generator, model init, augmentation) its own sequence.
    pub fn fork(&mut self, tag: u64) -> Rng {
        Rng::new(self.next_u64() ^ tag.wrapping_mul(0x9E3779B97F4A7C15))
    }

    /// Raw generator state `(state, inc)` for checkpointing. Together with
    /// [`Rng::from_state_parts`] this makes a training run's random stream
    /// resumable mid-sequence: the restored generator continues bit-for-bit
    /// where the saved one stopped.
    pub fn state_parts(&self) -> (u64, u64) {
        (self.state, self.inc)
    }

    /// Reconstruct a generator from [`Rng::state_parts`] output, without
    /// advancing it. `inc` must be odd (every generator constructed by
    /// [`Rng::new`] has an odd increment); callers restoring from untrusted
    /// bytes validate that before calling.
    pub fn from_state_parts(state: u64, inc: u64) -> Rng {
        debug_assert!(inc & 1 == 1, "PCG increment must be odd");
        Rng { state, inc }
    }

    /// Next raw 32-bit output.
    #[inline]
    pub fn next_u32(&mut self) -> u32 {
        let old = self.state;
        self.state = old.wrapping_mul(PCG_MULT).wrapping_add(self.inc);
        let xorshifted = (((old >> 18) ^ old) >> 27) as u32;
        let rot = (old >> 59) as u32;
        xorshifted.rotate_right(rot)
    }

    /// Next raw 64-bit output.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        ((self.next_u32() as u64) << 32) | self.next_u32() as u64
    }

    /// Uniform float in `[0, 1)`.
    #[inline]
    pub fn f32(&mut self) -> f32 {
        // 24 significant bits, exactly representable.
        (self.next_u32() >> 8) as f32 * (1.0 / (1u32 << 24) as f32)
    }

    /// Uniform double in `[0, 1)`.
    #[inline]
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, bound)` using Lemire's unbiased method.
    #[inline]
    pub fn below(&mut self, bound: usize) -> usize {
        assert!(bound > 0, "below(0) is meaningless");
        let bound = bound as u64;
        // 64-bit multiply-shift; bias is < 2^-64 * bound, negligible and
        // removed by the rejection step.
        let threshold = bound.wrapping_neg() % bound;
        loop {
            let x = self.next_u64();
            let (hi, lo) = {
                let wide = (x as u128) * (bound as u128);
                ((wide >> 64) as u64, wide as u64)
            };
            if lo >= threshold {
                return hi as usize;
            }
        }
    }

    /// Uniform integer in `[lo, hi)`.
    #[inline]
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + self.below(hi - lo)
    }

    /// Uniform float in `[lo, hi)`.
    #[inline]
    pub fn uniform(&mut self, lo: f32, hi: f32) -> f32 {
        lo + (hi - lo) * self.f32()
    }

    /// Bernoulli draw with probability `p`.
    #[inline]
    pub fn bool(&mut self, p: f64) -> bool {
        self.f64() < p
    }

    /// Standard normal via Box–Muller (cached second value is deliberately
    /// not kept: simplicity and statelessness beat the factor-2 saving here).
    pub fn normal(&mut self) -> f32 {
        let u1 = (1.0 - self.f64()) as f32; // avoid ln(0)
        let u2 = self.f32();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    }

    /// Normal with the given mean and standard deviation.
    pub fn normal_ms(&mut self, mean: f32, std: f32) -> f32 {
        mean + std * self.normal()
    }

    /// Gamma(shape, 1) via Marsaglia–Tsang; used by the Dirichlet sampler.
    pub fn gamma(&mut self, shape: f64) -> f64 {
        if shape < 1.0 {
            // Boost trick: Gamma(a) = Gamma(a+1) * U^{1/a}.
            let g = self.gamma(shape + 1.0);
            let u = self.f64().max(1e-300);
            return g * u.powf(1.0 / shape);
        }
        let d = shape - 1.0 / 3.0;
        let c = 1.0 / (9.0 * d).sqrt();
        loop {
            let x = self.normal() as f64;
            let v = (1.0 + c * x).powi(3);
            if v <= 0.0 {
                continue;
            }
            let u = self.f64();
            if u < 1.0 - 0.0331 * x.powi(4) {
                return d * v;
            }
            if u.max(1e-300).ln() < 0.5 * x * x + d * (1.0 - v + v.ln()) {
                return d * v;
            }
        }
    }

    /// Symmetric Dirichlet draw of dimension `k` and concentration `alpha`.
    pub fn dirichlet(&mut self, k: usize, alpha: f64) -> Vec<f64> {
        let mut draws: Vec<f64> = (0..k).map(|_| self.gamma(alpha).max(1e-12)).collect();
        let sum: f64 = draws.iter().sum();
        for d in &mut draws {
            *d /= sum;
        }
        draws
    }

    /// In-place Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, xs: &mut [T]) {
        for i in (1..xs.len()).rev() {
            let j = self.below(i + 1);
            xs.swap(i, j);
        }
    }

    /// Sample `k` distinct indices from `[0, n)` (Floyd's algorithm would be
    /// fancier; partial Fisher–Yates is plenty at our scales).
    pub fn sample_indices(&mut self, n: usize, k: usize) -> Vec<usize> {
        assert!(k <= n, "cannot sample {k} distinct from {n}");
        let mut idx: Vec<usize> = (0..n).collect();
        for i in 0..k {
            let j = self.range(i, n);
            idx.swap(i, j);
        }
        idx.truncate(k);
        idx
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_across_instances() {
        let mut a = Rng::new(42);
        let mut b = Rng::new(42);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = Rng::new(1);
        let mut b = Rng::new(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4, "streams from different seeds look identical");
    }

    #[test]
    fn f32_in_unit_interval() {
        let mut r = Rng::new(7);
        for _ in 0..10_000 {
            let x = r.f32();
            assert!((0.0..1.0).contains(&x));
        }
    }

    #[test]
    fn uniform_mean_close_to_half() {
        let mut r = Rng::new(3);
        let n = 100_000;
        let s: f64 = (0..n).map(|_| r.f64()).sum();
        let m = s / n as f64;
        assert!((m - 0.5).abs() < 0.01, "mean {m} too far from 0.5");
    }

    #[test]
    fn below_is_in_range_and_covers() {
        let mut r = Rng::new(11);
        let mut seen = [false; 10];
        for _ in 0..1000 {
            let x = r.below(10);
            assert!(x < 10);
            seen[x] = true;
        }
        assert!(seen.iter().all(|&s| s), "not all buckets hit");
    }

    #[test]
    fn normal_moments() {
        let mut r = Rng::new(5);
        let n = 200_000;
        let xs: Vec<f64> = (0..n).map(|_| r.normal() as f64).collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(mean.abs() < 0.02, "normal mean {mean}");
        assert!((var - 1.0).abs() < 0.05, "normal var {var}");
    }

    #[test]
    fn gamma_mean_matches_shape() {
        let mut r = Rng::new(9);
        for &shape in &[0.5, 1.0, 3.0, 8.0] {
            let n = 50_000;
            let m: f64 = (0..n).map(|_| r.gamma(shape)).sum::<f64>() / n as f64;
            assert!(
                (m - shape).abs() / shape < 0.06,
                "gamma({shape}) mean {m}"
            );
        }
    }

    #[test]
    fn dirichlet_sums_to_one() {
        let mut r = Rng::new(13);
        for _ in 0..100 {
            let d = r.dirichlet(6, 0.3);
            let s: f64 = d.iter().sum();
            assert!((s - 1.0).abs() < 1e-9);
            assert!(d.iter().all(|&x| x > 0.0));
        }
    }

    #[test]
    fn shuffle_is_permutation() {
        let mut r = Rng::new(17);
        let mut xs: Vec<usize> = (0..50).collect();
        r.shuffle(&mut xs);
        let mut sorted = xs.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert_ne!(xs, (0..50).collect::<Vec<_>>(), "shuffle did nothing");
    }

    #[test]
    fn sample_indices_distinct() {
        let mut r = Rng::new(19);
        let s = r.sample_indices(100, 20);
        assert_eq!(s.len(), 20);
        let mut t = s.clone();
        t.sort_unstable();
        t.dedup();
        assert_eq!(t.len(), 20);
    }

    #[test]
    fn state_roundtrip_resumes_mid_stream() {
        let mut a = Rng::new(77);
        for _ in 0..100 {
            a.next_u64();
        }
        let (state, inc) = a.state_parts();
        let mut b = Rng::from_state_parts(state, inc);
        for _ in 0..1000 {
            assert_eq!(a.next_u64(), b.next_u64(), "restored stream diverged");
        }
    }

    #[test]
    fn fork_streams_are_independent() {
        let mut root = Rng::new(23);
        let mut a = root.fork(1);
        let mut b = root.fork(2);
        let same = (0..64).filter(|_| a.next_u32() == b.next_u32()).count();
        assert!(same < 4);
    }
}
