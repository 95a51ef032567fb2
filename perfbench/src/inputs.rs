//! Seeded inputs: the generator behind schedules and circuit variants,
//! and the relabeling that turns one network into a new input of the
//! same size.

use aig::graph::Node;
use aig::{Aig, Lit};

/// The seeded generator behind every workload input (splitmix64).
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// Shuffles in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, v: &mut [T]) {
        for i in (1..v.len()).rev() {
            v.swap(i, self.below(i + 1));
        }
    }
}

/// `aig` with its primary inputs in a seeded order: a different circuit
/// (new bytes, new simulation signatures, a miss in any content-keyed
/// cache) with the same structure, so synthesizing and mapping it costs
/// the same work. Reseeding a random generator instead changes how much
/// of the network synthesis removes — over five seeds the 50 k-AND
/// random workload synthesized to between 26 k and 59 k ANDs — which
/// would make runs on different seeds incomparable. (Complementing
/// inputs as well split the mapped size of that workload between two
/// values, 21 029 and 23 858 gates.)
pub fn relabel(aig: &Aig, seed: u64) -> Aig {
    let mut rng = Rng(seed);
    let mut slots: Vec<usize> = (0..aig.input_count()).collect();
    rng.shuffle(&mut slots);
    let mut out = Aig::new();
    let inputs: Vec<Lit> = slots.iter().map(|_| out.input()).collect();
    let mut map = vec![Lit::new(0, false); aig.len()];
    let image = |map: &[Lit], l: Lit| {
        let x = map[l.node() as usize];
        if l.is_complement() {
            x.not()
        } else {
            x
        }
    };
    for (i, node) in aig.nodes().enumerate() {
        map[i] = match node {
            Node::Const => Lit::new(0, false),
            Node::Input(k) => inputs[slots[k as usize]],
            Node::And(a, b) => {
                let (a, b) = (image(&map, a), image(&map, b));
                out.and(a, b)
            }
        };
    }
    for &o in aig.output_lits() {
        out.output(image(&map, o));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relabeling_is_seeded_and_keeps_size_and_function() {
        let base = bench_circuits::scale::random_kregular(2_000, 0x5CA1_AB1E);
        let a = relabel(&base, 1);
        assert!(
            a.same_structure(&relabel(&base, 1)),
            "same seed, same circuit"
        );
        assert!(
            !a.same_structure(&relabel(&base, 2)),
            "another seed, another circuit"
        );
        assert!(!a.same_structure(&base));
        assert_eq!(
            (a.and_count(), a.input_count(), a.output_count()),
            (base.and_count(), base.input_count(), base.output_count())
        );
        // Replay the relabeling's shuffle to learn where each base input
        // went, then check that the relabeled circuit computes the base
        // function on random words.
        let n = base.input_count();
        let mut rng = Rng(3);
        let words: Vec<u64> = (0..n).map(|_| rng.next()).collect();
        let mut slots = (0..n).collect::<Vec<_>>();
        Rng(1).shuffle(&mut slots);
        let mut fed = vec![0u64; n];
        for (k, &slot) in slots.iter().enumerate() {
            fed[slot] = words[k];
        }
        assert_eq!(aig::simulate64(&a, &fed), aig::simulate64(&base, &words));
    }

    #[test]
    fn shuffles_and_draws_deterministically() {
        let mut a = Rng(9);
        let mut b = Rng(9);
        let mut v: Vec<u32> = (0..50).collect();
        let mut w = v.clone();
        a.shuffle(&mut v);
        b.shuffle(&mut w);
        assert_eq!(v, w);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..50).collect::<Vec<_>>());
        assert!((0..1000).all(|_| (0.0..1.0).contains(&a.unit())));
        assert!((0..1000).all(|_| a.below(7) < 7));
    }
}
