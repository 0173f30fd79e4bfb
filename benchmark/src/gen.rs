//! The benchmark's own input generators: PRNG, names, payload tape, Zipf.
//! Nothing here depends on `cffs-workloads` or `rand`, so a refactor of
//! those cannot change the load. The program under test sees only what
//! these produce from `--seed`.

/// xorshift64* (Vigna). Small, fast, and ours.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Seeded generator; the seed is scrambled (splitmix64) so small
    /// seeds do not start in a low-entropy state, and never zero.
    pub fn new(seed: u64) -> Rng {
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        Rng((z ^ (z >> 31)) | 1)
    }

    /// Next 64 random bits.
    #[inline]
    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    /// Uniform in `[0, n)` (`n > 0`; the modulo bias is below 2^-40 for
    /// every `n` used here).
    #[inline]
    pub fn below(&mut self, n: u64) -> u64 {
        (self.next_u64() >> 11) % n
    }

    /// Uniform in `[lo, hi]`.
    #[inline]
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.below(hi - lo + 1)
    }

    /// Uniform in `[0, 1)`.
    #[inline]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An independent generator for a sub-stream.
    pub fn fork(&mut self) -> Rng {
        Rng::new(self.next_u64())
    }
}

/// A unique name: `<prefix><index in base 36>_<seeded letters>`. The
/// seeded tail is 1 to 32 characters long: an embedded entry is 8 + name
/// (padded to 8) + 128 bytes and may not cross a 512-byte sector, so the
/// mix of lengths decides whether two or three entries share a sector.
/// That is how the seed reaches directory sizes, the layout and with it
/// the simulated numbers, as well as the host ones.
pub fn name(rng: &mut Rng, prefix: char, index: usize) -> String {
    const ALPHABET: &[u8] = b"abcdefghijklmnopqrstuvwxyz0123456789";
    let mut s = String::with_capacity(40);
    s.push(prefix);
    let mut digits = [0u8; 13];
    let mut n = index;
    let mut len = 0;
    loop {
        digits[len] = ALPHABET[n % 36];
        n /= 36;
        len += 1;
        if n == 0 {
            break;
        }
    }
    s.extend(digits[..len].iter().rev().map(|&b| b as char));
    s.push('_');
    for _ in 0..rng.range(1, 32) {
        s.push(ALPHABET[rng.below(36) as usize] as char);
    }
    s
}

/// `n` unique names with one prefix.
pub fn names(rng: &mut Rng, prefix: char, n: usize) -> Vec<String> {
    (0..n).map(|i| name(rng, prefix, i)).collect()
}

/// Largest single file any workload writes (`volume_stripe`'s `big`).
pub const MAX_FILE: usize = 256 * 1024;
/// File contents start at tape offsets below this.
pub const TAPE_STARTS: usize = 1 << 20;

/// One seeded byte tape. The content of (file, version) is the slice
/// `tape[off..off + len]` for a seeded `off`, so expected bytes are a
/// borrow — nothing is generated or allocated inside the window — and an
/// append is the next bytes of the same slice.
pub struct Tape(Vec<u8>);

impl Tape {
    /// Generate the tape.
    pub fn new(rng: &mut Rng) -> Tape {
        let mut bytes = vec![0u8; TAPE_STARTS + MAX_FILE];
        for chunk in bytes.chunks_exact_mut(8) {
            chunk.copy_from_slice(&rng.next_u64().to_le_bytes());
        }
        Tape(bytes)
    }

    /// A seeded start offset for a new (file, version).
    pub fn start(rng: &mut Rng) -> u32 {
        rng.below(TAPE_STARTS as u64) as u32
    }

    /// The bytes of a file whose content starts at `off`.
    #[inline]
    pub fn slice(&self, off: u32, len: usize) -> &[u8] {
        &self.0[off as usize..off as usize + len]
    }
}

/// FNV-1a over the generated inputs: the fingerprint the determinism
/// tests compare.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold bytes in.
    pub fn bytes(&mut self, b: &[u8]) -> &mut Self {
        for &x in b {
            self.0 = (self.0 ^ x as u64).wrapping_mul(0x100_0000_01b3);
        }
        self
    }

    /// Fold names in (with a terminator, so boundaries count).
    pub fn strs(&mut self, names: &[String]) -> &mut Self {
        for n in names {
            self.bytes(n.as_bytes()).bytes(&[0]);
        }
        self
    }

    /// Fold numbers in.
    pub fn nums(&mut self, nums: impl IntoIterator<Item = u64>) -> &mut Self {
        for n in nums {
            self.bytes(&n.to_le_bytes());
        }
        self
    }
}

/// Zipf(s) over `0..n` by inverse-CDF table lookup.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Rank `k` (0-based) has weight `1 / (k + 1)^s`.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / ((k + 1) as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// Draw a rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let draw = |seed| {
            let mut r = Rng::new(seed);
            (0..64).map(|_| r.next_u64()).collect::<Vec<_>>()
        };
        assert_eq!(draw(1997), draw(1997));
        assert_ne!(draw(1997), draw(2718));
    }

    #[test]
    fn names_are_unique_and_legal() {
        let mut r = Rng::new(7);
        let v = names(&mut r, 'f', 5000);
        let set: std::collections::HashSet<_> = v.iter().collect();
        assert_eq!(set.len(), v.len());
        assert!(v
            .iter()
            .all(|n| (4..=40).contains(&n.len()) && !n.contains('/')));
    }

    #[test]
    fn zipf_prefers_low_ranks_and_stays_in_range() {
        let z = Zipf::new(64, 0.9);
        let mut r = Rng::new(3);
        let mut hits = [0u32; 64];
        for _ in 0..20_000 {
            hits[z.sample(&mut r)] += 1;
        }
        assert!(hits[0] > hits[8] && hits[8] > hits[63]);
    }

    #[test]
    fn tape_slices_cover_the_largest_file() {
        let mut r = Rng::new(1);
        let t = Tape::new(&mut r);
        assert_eq!(t.slice((TAPE_STARTS - 1) as u32, MAX_FILE).len(), MAX_FILE);
    }
}
