//! The precomputed [`Zipf`] table must draw exactly the ranks of the
//! per-draw inverse transform it replaced, from the same random stream.

use gnf_sim::{Rng, Zipf};

/// The per-draw formula: recompute the harmonic sum, then subtract the
/// weights in rank order until the scaled uniform variate is used up.
fn zipf_per_draw(rng: &mut Rng, n: usize, s: f64) -> usize {
    if n <= 1 {
        return 0;
    }
    let harmonic: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
    let mut target = rng.next_f64() * harmonic;
    for k in 1..=n {
        target -= 1.0 / (k as f64).powf(s);
        if target <= 0.0 {
            return k - 1;
        }
    }
    n - 1
}

#[test]
fn table_draws_match_the_per_draw_formula() {
    for n in [1usize, 2, 8, 20, 500] {
        for s in [1.0, 1.1, 1.2] {
            let table = Zipf::new(n, s);
            let mut a = Rng::new(0xC0FFEE ^ n as u64);
            let mut b = a.clone();
            for draw in 0..20_000 {
                assert_eq!(
                    table.sample(&mut a),
                    zipf_per_draw(&mut b, n, s),
                    "n={n} s={s} draw {draw}"
                );
            }
            // Both paths consumed the same number of variates.
            assert_eq!(a.next_u64(), b.next_u64(), "n={n} s={s}");
        }
    }
}
