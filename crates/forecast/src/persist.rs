//! Model serialization.
//!
//! Table 4 accounts for each model's storage footprint: "LR Model: ... the
//! size of the learned weights. RNN Model: ... the size of the serialized
//! model object ..., which contains both the model parameters and network
//! structure." This module writes that serialization as a small
//! self-describing binary format (magic, version, shape header, little-
//! endian `f64` payload), whose length Table 4 reports. Only tests read a
//! model back, to check the bytes carry everything a prediction needs.

use crate::dataset::WindowSpec;

/// Little-endian byte sink.
pub(crate) struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    pub fn new(magic: &[u8; 4], version: u16) -> Self {
        let mut buf = Vec::with_capacity(64);
        buf.extend_from_slice(magic);
        buf.extend_from_slice(&version.to_le_bytes());
        Self { buf }
    }

    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub fn f64s(&mut self, vs: &[f64]) {
        self.u64(vs.len() as u64);
        for &v in vs {
            self.f64(v);
        }
    }

    pub fn spec(&mut self, s: WindowSpec) {
        self.u64(s.window as u64);
        self.u64(s.horizon as u64);
    }

    pub fn finish(self) -> Vec<u8> {
        self.buf
    }
}

/// Little-endian byte source for tests that decode what [`Writer`] wrote,
/// to check the serialization carries everything a prediction needs.
#[cfg(test)]
pub(crate) struct TestCursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

#[cfg(test)]
impl<'a> TestCursor<'a> {
    /// Starts after the magic and version, which must match.
    pub fn new(bytes: &'a [u8], magic: &[u8; 4], version: u16) -> Self {
        assert_eq!(&bytes[..4], magic);
        assert_eq!(u16::from_le_bytes([bytes[4], bytes[5]]), version);
        Self { bytes, pos: 6 }
    }

    fn word(&mut self) -> [u8; 8] {
        let w = self.bytes[self.pos..self.pos + 8].try_into().unwrap();
        self.pos += 8;
        w
    }

    pub fn u64(&mut self) -> u64 {
        u64::from_le_bytes(self.word())
    }

    pub fn f64(&mut self) -> f64 {
        f64::from_le_bytes(self.word())
    }

    pub fn f64s(&mut self) -> Vec<f64> {
        let n = self.u64() as usize;
        (0..n).map(|_| self.f64()).collect()
    }

    pub fn spec(&mut self) -> WindowSpec {
        WindowSpec { window: self.u64() as usize, horizon: self.u64() as usize }
    }

    /// Asserts every byte was read.
    pub fn finish(self) {
        assert_eq!(self.pos, self.bytes.len(), "trailing bytes");
    }
}
