//! Little-endian byte codec shared by the WAL and snapshot formats.
//!
//! Deliberately boring: explicit writes and reads of primitives with
//! length-prefixed containers, no reflection, no derive machinery. Every
//! versioned record in the workspace is encoded by hand against this pair
//! so the on-disk layout is auditable line by line. Floats travel as raw
//! IEEE-754 bits ([`Enc::f64`]), so NaN payloads and negative zero
//! round-trip bit-exactly — required for the pipeline's bit-identical
//! recovery contract.
//!
//! Beside the fixed-width primitives there are three compact forms for
//! the bulk of a snapshot: LEB128 varints ([`Enc::var_u64`], and
//! [`Enc::var_i64`] with zigzag so small negatives stay short),
//! varint-prefixed sequences ([`Enc::var_seq`]), and strings front-coded
//! against the previous entry of a sorted table ([`Enc::front_str`]). Their
//! decoders treat the input as hostile: an over-long varint, a length past
//! the end of the input, a shared prefix longer than the previous entry or
//! invalid UTF-8 is a [`CodecError`], never a panic or an allocation sized
//! by an unchecked prefix.

use std::collections::BTreeMap;

/// Decode failure: structurally invalid bytes for the expected schema.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// Input ended before the expected field.
    UnexpectedEnd { wanted: usize, remaining: usize },
    /// A length prefix exceeds the plausibility bound.
    ImplausibleLength { what: &'static str, len: u64 },
    /// A discriminant byte had no mapped variant.
    BadTag { what: &'static str, tag: u8 },
    /// A string field held invalid UTF-8.
    BadUtf8,
    /// Trailing bytes remained after the final field.
    TrailingBytes(usize),
    /// A varint ran past 10 bytes or set bits beyond the 64th.
    BadVarint,
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::UnexpectedEnd { wanted, remaining } => {
                write!(f, "unexpected end of input: wanted {wanted} bytes, {remaining} remain")
            }
            CodecError::ImplausibleLength { what, len } => {
                write!(f, "implausible length for {what}: {len}")
            }
            CodecError::BadTag { what, tag } => write!(f, "bad tag {tag} for {what}"),
            CodecError::BadUtf8 => write!(f, "invalid utf-8 in string field"),
            CodecError::TrailingBytes(n) => write!(f, "{n} trailing bytes after final field"),
            CodecError::BadVarint => write!(f, "varint longer than 10 bytes or above u64::MAX"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Upper bound on any single length prefix. Far above any real pipeline
/// state, far below anything that could OOM a decoder fed garbage.
pub const MAX_LEN: u64 = 64 * 1024 * 1024;

/// Streaming encoder into an owned byte buffer.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    pub fn new() -> Self {
        Self::default()
    }

    /// The encoded bytes.
    pub fn finish(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }

    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// `usize` always travels as 8 bytes so 32- and 64-bit encoders agree.
    pub fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }

    /// Raw IEEE-754 bits: NaNs and signed zeros round-trip exactly.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Length-prefixed raw bytes.
    pub fn bytes(&mut self, v: &[u8]) {
        self.usize(v.len());
        self.buf.extend_from_slice(v);
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self, v: &str) {
        self.bytes(v.as_bytes());
    }

    /// `Option<T>`: presence byte then the value.
    pub fn option<T>(&mut self, v: Option<&T>, mut f: impl FnMut(&mut Self, &T)) {
        match v {
            None => self.u8(0),
            Some(x) => {
                self.u8(1);
                f(self, x);
            }
        }
    }

    /// Length-prefixed sequence.
    pub fn seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.usize(items.len());
        for item in items {
            f(self, item);
        }
    }

    /// A `BTreeMap` as a length-prefixed (key, value) sequence — already
    /// sorted, so identical maps encode to identical bytes.
    pub fn map<K, V>(&mut self, m: &BTreeMap<K, V>, mut f: impl FnMut(&mut Self, &K, &V)) {
        self.usize(m.len());
        for (k, v) in m {
            f(self, k, v);
        }
    }

    /// LEB128: seven bits per byte, low group first, the high bit set on
    /// every byte but the last. One byte below 128, ten for `u64::MAX`.
    pub fn var_u64(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
    }

    /// Zigzag (`0, -1, 1, -2, …` → `0, 1, 2, 3, …`), then LEB128.
    pub fn var_i64(&mut self, v: i64) {
        self.var_u64(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Sequence with a varint length prefix.
    pub fn var_seq<T>(&mut self, items: &[T], mut f: impl FnMut(&mut Self, &T)) {
        self.var_u64(items.len() as u64);
        for item in items {
            f(self, item);
        }
    }

    /// `v` front-coded against `prev`: varint length of the byte prefix
    /// the two share, varint length of the rest of `v`, the rest's bytes.
    pub fn front_str(&mut self, prev: &str, v: &str) {
        let shared = prev.bytes().zip(v.bytes()).take_while(|(a, b)| a == b).count();
        let rest = &v.as_bytes()[shared..];
        self.var_u64(shared as u64);
        self.var_u64(rest.len() as u64);
        self.buf.extend_from_slice(rest);
    }
}

/// Positional decoder over a byte slice.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Fails unless every byte was consumed — catches schema drift where a
    /// decoder silently reads less than the encoder wrote.
    pub fn finish(self) -> Result<(), CodecError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(CodecError::TrailingBytes(self.remaining()))
        }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < n {
            return Err(CodecError::UnexpectedEnd { wanted: n, remaining: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.take(1)?[0])
    }

    pub fn bool(&mut self) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(CodecError::BadTag { what: "bool", tag }),
        }
    }

    pub fn u16(&mut self) -> Result<u16, CodecError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().expect("2 bytes")))
    }

    pub fn u32(&mut self) -> Result<u32, CodecError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    pub fn u64(&mut self) -> Result<u64, CodecError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn i64(&mut self) -> Result<i64, CodecError> {
        Ok(i64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    pub fn usize(&mut self) -> Result<usize, CodecError> {
        let v = self.u64()?;
        if v > MAX_LEN {
            return Err(CodecError::ImplausibleLength { what: "usize", len: v });
        }
        Ok(v as usize)
    }

    pub fn f64(&mut self) -> Result<f64, CodecError> {
        Ok(f64::from_bits(self.u64()?))
    }

    pub fn bytes(&mut self) -> Result<Vec<u8>, CodecError> {
        let n = self.usize()?;
        Ok(self.take(n)?.to_vec())
    }

    pub fn str(&mut self) -> Result<String, CodecError> {
        String::from_utf8(self.bytes()?).map_err(|_| CodecError::BadUtf8)
    }

    pub fn option<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Option<T>, CodecError> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(f(self)?)),
            tag => Err(CodecError::BadTag { what: "option", tag }),
        }
    }

    pub fn seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.usize()?;
        // A length prefix can never promise more items than bytes remain:
        // each item costs at least one byte, so bound allocation by that.
        if n > self.remaining() {
            return Err(CodecError::ImplausibleLength { what: "seq", len: n as u64 });
        }
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Inverse of [`Enc::var_u64`]. The tenth byte may only carry bit 63,
    /// so a varint never runs longer or overflows.
    pub fn var_u64(&mut self) -> Result<u64, CodecError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let b = self.u8()?;
            if shift == 63 && b > 1 {
                return Err(CodecError::BadVarint);
            }
            v |= u64::from(b & 0x7F) << shift;
            if b & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(CodecError::BadVarint)
    }

    /// Inverse of [`Enc::var_i64`].
    pub fn var_i64(&mut self) -> Result<i64, CodecError> {
        let u = self.var_u64()?;
        Ok((u >> 1) as i64 ^ -((u & 1) as i64))
    }

    /// A varint length, refused when it promises more items than bytes
    /// remain (every item costs at least one byte).
    fn var_len(&mut self, what: &'static str) -> Result<usize, CodecError> {
        let n = self.var_u64()?;
        if n > self.remaining() as u64 {
            return Err(CodecError::ImplausibleLength { what, len: n });
        }
        Ok(n as usize)
    }

    /// Inverse of [`Enc::var_seq`].
    pub fn var_seq<T>(
        &mut self,
        mut f: impl FnMut(&mut Self) -> Result<T, CodecError>,
    ) -> Result<Vec<T>, CodecError> {
        let n = self.var_len("var_seq")?;
        let mut out = Vec::with_capacity(n);
        for _ in 0..n {
            out.push(f(self)?);
        }
        Ok(out)
    }

    /// Inverse of [`Enc::front_str`] against the same `prev`.
    pub fn front_str(&mut self, prev: &str) -> Result<String, CodecError> {
        let shared = self.var_u64()?;
        if shared > prev.len() as u64 {
            return Err(CodecError::ImplausibleLength { what: "front-coded prefix", len: shared });
        }
        let rest = self.var_len("front-coded suffix")?;
        let rest = self.take(rest)?;
        let mut bytes = Vec::with_capacity(shared as usize + rest.len());
        bytes.extend_from_slice(&prev.as_bytes()[..shared as usize]);
        bytes.extend_from_slice(rest);
        String::from_utf8(bytes).map_err(|_| CodecError::BadUtf8)
    }
}

/// CRC-32 (IEEE 802.3, reflected) over `bytes`. Table-driven, built once.
pub fn crc32(bytes: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = !0u32;
    for &b in bytes {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_round_trip() {
        let mut e = Enc::new();
        e.u8(7);
        e.bool(true);
        e.u16(65_535);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX);
        e.i64(-42);
        e.usize(12_345);
        e.f64(-0.0);
        e.f64(f64::NAN);
        e.str("durable ✓");
        e.bytes(&[1, 2, 3]);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert!(d.bool().unwrap());
        assert_eq!(d.u16().unwrap(), 65_535);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(d.i64().unwrap(), -42);
        assert_eq!(d.usize().unwrap(), 12_345);
        assert_eq!(d.f64().unwrap().to_bits(), (-0.0f64).to_bits());
        assert!(d.f64().unwrap().is_nan());
        assert_eq!(d.str().unwrap(), "durable ✓");
        assert_eq!(d.bytes().unwrap(), vec![1, 2, 3]);
        d.finish().unwrap();
    }

    #[test]
    fn containers_round_trip() {
        let mut e = Enc::new();
        e.option(Some(&9u64), |e, v| e.u64(*v));
        e.option::<u64>(None, |e, v| e.u64(*v));
        e.seq(&[1i64, -2, 3], |e, v| e.i64(*v));
        let mut m = BTreeMap::new();
        m.insert("a".to_string(), 1u64);
        m.insert("b".to_string(), 2u64);
        e.map(&m, |e, k, v| {
            e.str(k);
            e.u64(*v);
        });
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.option(|d| d.u64()).unwrap(), Some(9));
        assert_eq!(d.option(|d| d.u64()).unwrap(), None);
        assert_eq!(d.seq(|d| d.i64()).unwrap(), vec![1, -2, 3]);
        let n = d.usize().unwrap();
        let pairs: Vec<(String, u64)> =
            (0..n).map(|_| (d.str().unwrap(), d.u64().unwrap())).collect();
        assert_eq!(pairs, vec![("a".into(), 1), ("b".into(), 2)]);
        d.finish().unwrap();
    }

    #[test]
    fn truncated_input_errors_without_panic() {
        let mut e = Enc::new();
        e.str("hello");
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            let mut d = Dec::new(&bytes[..cut]);
            assert!(d.str().is_err(), "cut at {cut} must fail");
        }
    }

    #[test]
    fn hostile_length_prefix_rejected() {
        let mut e = Enc::new();
        e.u64(u64::MAX); // absurd length prefix
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.bytes(), Err(CodecError::ImplausibleLength { .. })));
        // A merely-too-large seq count is also rejected before allocating.
        let mut e = Enc::new();
        e.u64(1_000);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert!(matches!(d.seq(|d| d.u8()), Err(CodecError::ImplausibleLength { .. })));
    }

    #[test]
    fn trailing_bytes_detected() {
        let mut e = Enc::new();
        e.u8(1);
        e.u8(2);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        d.u8().unwrap();
        assert_eq!(d.finish(), Err(CodecError::TrailingBytes(1)));
    }

    fn var_u64_bytes(v: u64) -> Vec<u8> {
        let mut e = Enc::new();
        e.var_u64(v);
        e.finish()
    }

    #[test]
    fn varint_lengths_at_the_group_edges() {
        for (v, len) in [(0, 1), (127, 1), (128, 2), (16_383, 2), (16_384, 3), (u64::MAX, 10)] {
            assert_eq!(var_u64_bytes(v).len(), len, "{v}");
        }
        assert_eq!(var_u64_bytes(300), vec![0xAC, 0x02]);
        let mut e = Enc::new();
        for v in [0i64, -1, 1, -64, 63, -65] {
            e.var_i64(v);
        }
        // Zigzag keeps small magnitudes of either sign in one byte.
        assert_eq!(e.finish(), vec![0, 1, 2, 127, 126, 0x81, 0x01]);
    }

    #[test]
    fn hostile_varints_are_errors() {
        // Eleven bytes: ten continuation bytes, then a terminator.
        let mut long = vec![0x80; 10];
        long.push(0x00);
        assert_eq!(Dec::new(&long).var_u64(), Err(CodecError::BadVarint));
        // Ten bytes whose last sets bit 64.
        let mut over = vec![0xFF; 9];
        over.push(0x02);
        assert_eq!(Dec::new(&over).var_u64(), Err(CodecError::BadVarint));
        over[9] = 0x01;
        assert_eq!(Dec::new(&over).var_u64(), Ok(u64::MAX));
        // Truncated: the continuation bit promises a byte that is not there.
        for bytes in [&[][..], &[0x80u8][..], &[0xFF, 0xFF][..]] {
            assert!(matches!(Dec::new(bytes).var_u64(), Err(CodecError::UnexpectedEnd { .. })));
            assert!(Dec::new(bytes).var_i64().is_err());
        }
    }

    #[test]
    fn hostile_counts_and_front_codes_are_errors() {
        // A varint count larger than the bytes left is refused before
        // anything is allocated.
        let mut e = Enc::new();
        e.var_u64(1_000_000);
        e.u8(0);
        let bytes = e.finish();
        assert!(matches!(
            Dec::new(&bytes).var_seq(Dec::u8),
            Err(CodecError::ImplausibleLength { what: "var_seq", len: 1_000_000 })
        ));
        // The shared prefix cannot be longer than the previous entry.
        let mut e = Enc::new();
        e.var_u64(4);
        e.var_u64(0);
        let bytes = e.finish();
        assert!(matches!(
            Dec::new(&bytes).front_str("abc"),
            Err(CodecError::ImplausibleLength { what: "front-coded prefix", len: 4 })
        ));
        assert_eq!(Dec::new(&bytes).front_str("abcd").unwrap(), "abcd");
        // A suffix length past the end of the input.
        let mut e = Enc::new();
        e.var_u64(0);
        e.var_u64(9);
        e.u8(b'x');
        let bytes = e.finish();
        assert!(matches!(
            Dec::new(&bytes).front_str(""),
            Err(CodecError::ImplausibleLength { what: "front-coded suffix", .. })
        ));
        // A prefix cut inside a multi-byte character, completed by bytes
        // that do not continue it, is invalid UTF-8.
        let mut e = Enc::new();
        e.var_u64(1);
        e.var_u64(1);
        e.u8(b'x');
        let bytes = e.finish();
        assert_eq!(Dec::new(&bytes).front_str("é"), Err(CodecError::BadUtf8));
        // Every truncation of a valid front-coded entry is an error.
        let mut e = Enc::new();
        e.front_str("SELECT a FROM t", "SELECT b FROM t");
        let bytes = e.finish();
        for cut in 0..bytes.len() {
            assert!(Dec::new(&bytes[..cut]).front_str("SELECT a FROM t").is_err(), "cut {cut}");
        }
    }

    #[test]
    fn front_coding_shares_sorted_prefixes() {
        let table = ["SELECT * FROM stops WHERE id = 1", "SELECT * FROM stops WHERE id = 17"];
        let mut e = Enc::new();
        e.front_str("", table[0]);
        let first = e.len();
        e.front_str(table[0], table[1]);
        // Shared 32 bytes, 1-byte suffix: three bytes for the second row.
        assert_eq!(e.len() - first, 3);
        let bytes = e.finish();
        let mut d = Dec::new(&bytes);
        assert_eq!(d.front_str("").unwrap(), table[0]);
        assert_eq!(d.front_str(table[0]).unwrap(), table[1]);
        d.finish().unwrap();
    }

    mod props {
        use super::super::*;
        use proptest::prelude::*;

        fn edge_u64() -> impl Strategy<Value = u64> {
            prop_oneof![
                Just(0u64),
                Just(127),
                Just(128),
                Just(16_383),
                Just(16_384),
                Just(u64::MAX),
                Just(u64::MAX - 1),
                0u64..300,
                any::<u64>(),
            ]
        }

        fn edge_i64() -> impl Strategy<Value = i64> {
            prop_oneof![
                Just(0i64),
                Just(-1),
                Just(1),
                Just(-64),
                Just(-65),
                Just(i64::MIN),
                Just(i64::MAX),
                -300i64..300,
                any::<i64>(),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 256 })]

            /// Varints round-trip whatever the values, and the minute
            /// deltas a history writes round-trip in any order — negative,
            /// unsorted and wrapping past either end of `i64`.
            #[test]
            fn varints_and_deltas_round_trip(
                us in proptest::collection::vec(edge_u64(), 0..24),
                is in proptest::collection::vec(edge_i64(), 0..24),
            ) {
                let mut e = Enc::new();
                e.var_seq(&us, |e, v| e.var_u64(*v));
                e.var_seq(&is, |e, v| e.var_i64(*v));
                let mut prev = 0i64;
                for &m in &is {
                    e.var_i64(m.wrapping_sub(prev));
                    prev = m;
                }
                let bytes = e.finish();
                let mut d = Dec::new(&bytes);
                prop_assert_eq!(d.var_seq(Dec::var_u64).unwrap(), us);
                prop_assert_eq!(d.var_seq(Dec::var_i64).unwrap(), is.clone());
                let mut prev = 0i64;
                for &m in &is {
                    prev = prev.wrapping_add(d.var_i64().unwrap());
                    prop_assert_eq!(prev, m);
                }
                prop_assert!(d.finish().is_ok());
            }

            /// Front-coded tables round-trip sorted or not, including
            /// shared prefixes that end inside a multi-byte character.
            #[test]
            fn front_coded_tables_round_trip(
                rows in proptest::collection::vec("[ab]{0,3}.{0,6}", 0..16),
                sorted in any::<bool>(),
            ) {
                let mut rows = rows;
                if sorted {
                    rows.sort();
                }
                let mut e = Enc::new();
                let mut prev = "";
                for row in &rows {
                    e.front_str(prev, row);
                    prev = row;
                }
                let bytes = e.finish();
                let mut d = Dec::new(&bytes);
                let mut prev = String::new();
                for row in &rows {
                    let back = d.front_str(&prev).unwrap();
                    prop_assert_eq!(&back, row);
                    prev = back;
                }
                prop_assert!(d.finish().is_ok());
            }
        }
    }

    #[test]
    fn crc32_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"a"), crc32(b"b"));
    }
}
