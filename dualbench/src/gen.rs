//! Seeded content and the checksums the output checks compare.
//!
//! Every byte a workload feeds the system, and every value it expects
//! back, is a pure function of the seed and a stream id. The checkers
//! derive expectations from these functions alone, never from what the
//! system returned.

/// SplitMix64's finalizer: a bijective 64-bit mix.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Word `idx` of stream `stream` under `seed`.
pub fn word(seed: u64, stream: u64, idx: u64) -> u64 {
    mix(seed
        ^ mix(stream.wrapping_add(0x9E37_79B9_7F4A_7C15))
        ^ idx.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// A generator for the decisions of one op or client, keyed by seed.
pub fn rng(seed: u64, stream: u64) -> machsim::SplitMix64 {
    machsim::SplitMix64::new(word(seed, stream, 0))
}

/// Fills `buf` with stream `stream`'s bytes, none of them zero (a zero
/// page read back from an unwritten file must not pass as content).
pub fn fill_nonzero(seed: u64, stream: u64, buf: &mut [u8]) {
    for (i, chunk) in buf.chunks_mut(8).enumerate() {
        let bytes = word(seed, stream, i as u64).to_le_bytes();
        for (dst, b) in chunk.iter_mut().zip(bytes) {
            *dst = if b == 0 { 0x5A } else { b };
        }
    }
}

/// Stream `stream`'s first `len` nonzero bytes.
pub fn bytes_nonzero(seed: u64, stream: u64, len: usize) -> Vec<u8> {
    let mut v = vec![0u8; len];
    fill_nonzero(seed, stream, &mut v);
    v
}

/// An order-sensitive 64-bit fold over 8-byte words.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fold(u64);

impl Default for Fold {
    fn default() -> Self {
        Fold(0xCBF2_9CE4_8422_2325)
    }
}

impl Fold {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        self.0 = (self.0.rotate_left(23) ^ w).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    }

    /// Folds `bytes` in; its length must be a multiple of 8, so a file
    /// folds to the same value however its reads are chunked.
    pub fn bytes(&mut self, bytes: &[u8]) {
        assert!(
            bytes.len().is_multiple_of(8),
            "fold input must be whole words"
        );
        for w in bytes.chunks_exact(8) {
            self.word(u64::from_le_bytes(w.try_into().expect("8-byte chunk")));
        }
    }

    /// The folded value.
    pub fn value(self) -> u64 {
        mix(self.0)
    }

    /// The fold of one buffer.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut f = Fold::default();
        f.bytes(bytes);
        f.value()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_ignores_chunking_and_sees_order() {
        let data = bytes_nonzero(7, 1, 4096);
        let mut chunked = Fold::default();
        for c in data.chunks(512) {
            chunked.bytes(c);
        }
        assert_eq!(chunked.value(), Fold::of(&data));
        let mut swapped = data.clone();
        swapped.swap(0, 8);
        assert_ne!(Fold::of(&swapped), Fold::of(&data));
    }

    #[test]
    fn content_is_seeded_and_nonzero() {
        let a = bytes_nonzero(1, 2, 1024);
        assert_eq!(a, bytes_nonzero(1, 2, 1024));
        assert_ne!(a, bytes_nonzero(2, 2, 1024));
        assert!(a.iter().all(|&b| b != 0));
    }
}
