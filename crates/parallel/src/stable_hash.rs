//! A hash that every process and every toolchain computes alike.
//!
//! `std::collections::hash_map::DefaultHasher` runs SipHash-1-3 with zero
//! keys today, but the standard library reserves the right to change its
//! algorithm in any release. Hashes that feed persisted or compared state
//! (semantic fingerprints, the snapshot's last-delivery key, experiment
//! buckets) use [`StableHasher`] instead: the same SipHash-1-3 with zero
//! keys, written out here, so today's values hold on every later
//! toolchain.

use std::hash::Hasher;

/// Streaming SipHash-1-3 with both keys zero: one compression round per
/// 8-byte word, three finalization rounds.
///
/// For every `Hash` input it returns what `DefaultHasher::new()` returned
/// on the toolchains this workspace was built with. Integers reach
/// [`Hasher::write`] as native-endian bytes, as they do for
/// `DefaultHasher`.
#[derive(Debug, Clone)]
pub struct StableHasher {
    v0: u64,
    v1: u64,
    v2: u64,
    v3: u64,
    /// Bytes not yet compressed, little-endian, low bytes first.
    tail: u64,
    /// How many bytes of `tail` are filled (0-7).
    ntail: usize,
    /// Total bytes written (only its low byte enters the hash).
    length: usize,
}

impl Default for StableHasher {
    fn default() -> Self {
        Self::new()
    }
}

impl StableHasher {
    /// A hasher with both SipHash keys zero.
    pub fn new() -> Self {
        Self {
            v0: 0x736f_6d65_7073_6575,
            v1: 0x646f_7261_6e64_6f6d,
            v2: 0x6c79_6765_6e65_7261,
            v3: 0x7465_6462_7974_6573,
            tail: 0,
            ntail: 0,
            length: 0,
        }
    }

    /// The hash of one value.
    pub fn hash_one<T: std::hash::Hash + ?Sized>(value: &T) -> u64 {
        let mut h = Self::new();
        value.hash(&mut h);
        h.finish()
    }

    #[inline]
    fn round(&mut self) {
        self.v0 = self.v0.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(13) ^ self.v0;
        self.v0 = self.v0.rotate_left(32);
        self.v2 = self.v2.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(16) ^ self.v2;
        self.v0 = self.v0.wrapping_add(self.v3);
        self.v3 = self.v3.rotate_left(21) ^ self.v0;
        self.v2 = self.v2.wrapping_add(self.v1);
        self.v1 = self.v1.rotate_left(17) ^ self.v2;
        self.v2 = self.v2.rotate_left(32);
    }

    #[inline]
    fn compress(&mut self, m: u64) {
        self.v3 ^= m;
        self.round();
        self.v0 ^= m;
    }
}

/// Little-endian value of up to eight bytes.
#[inline]
fn le_word(bytes: &[u8]) -> u64 {
    bytes.iter().rev().fold(0, |w, &b| (w << 8) | u64::from(b))
}

impl Hasher for StableHasher {
    fn write(&mut self, mut msg: &[u8]) {
        self.length = self.length.wrapping_add(msg.len());
        if self.ntail != 0 {
            let fill = (8 - self.ntail).min(msg.len());
            self.tail |= le_word(&msg[..fill]) << (8 * self.ntail);
            self.ntail += fill;
            msg = &msg[fill..];
            if self.ntail < 8 {
                return;
            }
            self.compress(self.tail);
            self.tail = 0;
            self.ntail = 0;
        }
        let words = msg.chunks_exact(8);
        let rest = words.remainder();
        for w in words {
            self.compress(u64::from_le_bytes(w.try_into().expect("8 bytes")));
        }
        self.tail = le_word(rest);
        self.ntail = rest.len();
    }

    fn finish(&self) -> u64 {
        let mut s = self.clone();
        let b = ((self.length as u64 & 0xff) << 56) | self.tail;
        s.compress(b);
        s.v2 ^= 0xff;
        s.round();
        s.round();
        s.round();
        s.v0 ^ s.v1 ^ s.v2 ^ s.v3
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Values `DefaultHasher` gave on `str::hash` (the bytes, then 0xff)
    /// when this hasher replaced it. A toolchain that changes
    /// `DefaultHasher` changes none of them.
    #[test]
    fn str_hashes_are_pinned() {
        assert_eq!(StableHasher::hash_one("applications"), 0xac2c_909f_937d_9fe3);
        assert_eq!(StableHasher::hash_one("student_id"), 0x5928_5a29_d2c8_dca5);
        assert_eq!(StableHasher::hash_one(""), 0x3040_6ea5_23c5_3def);
    }

    /// The shapes a semantic fingerprint hashes: sorted name lists (each
    /// with its length prefix), flags and counts. Also `DefaultHasher`'s
    /// value when this hasher replaced it.
    #[test]
    fn fingerprint_shaped_values_are_pinned() {
        let v = (vec!["students".to_string(), "applications".to_string()], true, 3usize);
        assert_eq!(StableHasher::hash_one(&v), 0x2525_ca30_b37c_3af2);
    }

    /// The published SipHash-1-3 vectors have non-zero keys; with zero
    /// keys the empty message still pins the finalization alone.
    #[test]
    fn empty_input_is_the_keyless_finalization() {
        assert_eq!(StableHasher::new().finish(), 0xd1fb_a762_150c_532c);
    }

    /// Splitting a message across `write` calls at any point gives the
    /// hash of the whole message.
    #[test]
    fn streaming_is_split_invariant() {
        let msg: Vec<u8> = (0u8..40).map(|b| b.wrapping_mul(37)).collect();
        let whole = {
            let mut h = StableHasher::new();
            h.write(&msg);
            h.finish()
        };
        for a in 0..=msg.len() {
            for b in a..=msg.len() {
                let mut h = StableHasher::new();
                h.write(&msg[..a]);
                h.write(&msg[a..b]);
                h.write(&msg[b..]);
                assert_eq!(h.finish(), whole, "split at {a}, {b}");
            }
        }
    }
}
