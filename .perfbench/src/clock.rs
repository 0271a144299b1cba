//! Open-loop arrivals replayed on a virtual clock.
//!
//! Arrivals follow a seeded Poisson process at a fixed absolute rate. One
//! dispatcher keeps a virtual time `now`: when the server is free it takes
//! every request that has arrived by `now` (jumping `now` to the next
//! arrival when none has), times the scoring call on the wall clock and
//! advances `now` by that duration. A request's sojourn is its completion
//! time minus its scheduled arrival. The benchmark never sleeps, so the
//! generator is never late and idle time costs no wall time.

use miss::util::Rng;

/// Seeded Poisson arrival times in seconds, starting after 0.
pub struct Poisson {
    rng: Rng,
    rate: f64,
    t: f64,
}

impl Poisson {
    /// Arrivals at `rate` per second, reproducible from `seed`.
    pub fn new(rate: f64, seed: u64) -> Poisson {
        assert!(rate > 0.0, "arrival rate must be positive");
        Poisson {
            rng: Rng::new(seed ^ 0xA771_7A15),
            rate,
            t: 0.0,
        }
    }

    /// The next arrival time.
    pub fn next_arrival(&mut self) -> f64 {
        // Inverse-CDF exponential gap; 1 - u lies in (0, 1].
        self.t += -(1.0 - self.rng.f64()).ln() / self.rate;
        self.t
    }
}

/// One dispatch decision: start the server at `now` (jumping ahead to the
/// arrival of request `next` if it is still to come) and return the end of
/// the run of requests `[next, end)` that have arrived by then.
/// `arrival(i)` may generate arrivals lazily; they must be non-decreasing.
pub fn take(now: &mut f64, next: usize, mut arrival: impl FnMut(usize) -> f64) -> usize {
    *now = now.max(arrival(next));
    let mut end = next + 1;
    while arrival(end) <= *now {
        end += 1;
    }
    end
}

/// Replay a finite schedule against a service-time function and return
/// every request's sojourn, in arrival order. `service(first, end)` is the
/// time the server needs for requests `[first, end)`.
#[cfg(test)]
pub fn replay(arrivals: &[f64], mut service: impl FnMut(usize, usize) -> f64) -> Vec<f64> {
    let mut now = 0.0;
    let mut next = 0;
    let mut sojourns = Vec::with_capacity(arrivals.len());
    let at = |i: usize| arrivals.get(i).copied().unwrap_or(f64::INFINITY);
    while next < arrivals.len() {
        let end = take(&mut now, next, at);
        now += service(next, end);
        sojourns.extend(arrivals[next..end].iter().map(|a| now - a));
        next = end;
    }
    sojourns
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule(seed: u64) -> Vec<f64> {
        let mut p = Poisson::new(300.0, seed);
        (0..1000).map(|_| p.next_arrival()).collect()
    }

    #[test]
    fn poisson_schedule_is_seeded() {
        let a = schedule(7);
        assert_eq!(a, schedule(7));
        assert_ne!(a, schedule(8));
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        // 1000 arrivals at 300/s span about 3.3 s.
        let span = a[999];
        assert!((2.8..3.9).contains(&span), "span {span}");
    }

    #[test]
    fn sojourns_match_a_hand_worked_trace() {
        // Arrivals at 0, 1 and 1.5; every dispatch takes 2 regardless of
        // how many requests it holds.
        //  - t=0: server idle, takes request 0 alone, done at 2.
        //  - t=2: requests 1 and 2 have both arrived; one dispatch, done at 4.
        let s = replay(&[0.0, 1.0, 1.5], |_, _| 2.0);
        assert_eq!(s, vec![2.0, 3.0, 2.5]);
        // With service 0.5 each request runs alone; request 2 arrives just
        // as request 1's dispatch (1.0 to 1.5) ends, so nothing waits.
        let s = replay(&[0.0, 1.0, 1.5], |_, _| 0.5);
        assert_eq!(s, vec![0.5, 0.5, 0.5]);
        // Service 0.75: request 1 runs 1.0–1.75, request 2 arrived at 1.5
        // and waits 0.25 before its own 0.75.
        let s = replay(&[0.0, 1.0, 1.5], |_, _| 0.75);
        assert_eq!(s, vec![0.75, 0.75, 1.0]);
    }

    #[test]
    fn idle_server_jumps_to_next_arrival() {
        let mut now = 0.0;
        let arr = [5.0, 5.0, 9.0];
        let at = |i: usize| arr.get(i).copied().unwrap_or(f64::INFINITY);
        assert_eq!(take(&mut now, 0, at), 2);
        assert_eq!(now, 5.0);
    }
}
