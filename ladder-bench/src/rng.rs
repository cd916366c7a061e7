//! Seeded generator for every input the benchmark makes.

/// SplitMix64: small, fast, and the same stream for the same seed.
#[derive(Clone)]
pub struct Rng(u64);

impl Rng {
    /// A stream for `seed`, kept apart from other streams by `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xD1B5_4A32_D192_ED03));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        ((self.next() as u128 * n as u128) >> 64) as u64
    }
}

/// A fixed hash of (seed, key): decides which keys a store starts with.
pub fn mix(seed: u64, key: u64) -> u64 {
    Rng::new(seed, key).next()
}
