//! Offline stand-in for the `bytes` crate.
//!
//! Provides the [`Buf`]/[`BufMut`] method surface the `.pbit` serializer
//! uses: little-endian scalar get/put, `put_slice`, `remaining` and
//! `advance` — implemented for `&[u8]` (reading consumes the slice) and
//! `Vec<u8>` (writing appends).

#![forbid(unsafe_code)]

/// Sequential little-endian reader over a byte source.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// Skips `n` bytes.
    ///
    /// # Panics
    ///
    /// Panics if fewer than `n` bytes remain.
    fn advance(&mut self, n: usize);

    /// Copies out the next `dst.len()` bytes.
    fn copy_to_slice(&mut self, dst: &mut [u8]);

    /// Reads one byte.
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    /// Reads a little-endian `u16`.
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    /// Reads a little-endian `u32`.
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    /// Reads a little-endian `u64`.
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    /// Reads a little-endian `f32`.
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        *self = &self[n..];
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(dst.len() <= self.len(), "read past end of buffer");
        dst.copy_from_slice(&self[..dst.len()]);
        *self = &self[dst.len()..];
    }
}

/// Sequential little-endian writer into a growable byte sink.
pub trait BufMut {
    /// Appends raw bytes.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends one byte.
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    /// Appends a little-endian `u16`.
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u32`.
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `f32`.
    fn put_f32_le(&mut self, v: f32) {
        self.put_slice(&v.to_bits().to_le_bytes());
    }
}

impl BufMut for Vec<u8> {
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trip_scalars() {
        let mut out: Vec<u8> = Vec::new();
        out.put_u8(7);
        out.put_u16_le(0xBEEF);
        out.put_u32_le(0xDEADBEEF);
        out.put_u64_le(0x0123456789ABCDEF);
        out.put_f32_le(-1.5);
        out.put_slice(b"hi");
        let mut r: &[u8] = &out;
        assert_eq!(r.remaining(), 1 + 2 + 4 + 8 + 4 + 2);
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16_le(), 0xBEEF);
        assert_eq!(r.get_u32_le(), 0xDEADBEEF);
        assert_eq!(r.get_u64_le(), 0x0123456789ABCDEF);
        assert_eq!(r.get_f32_le(), -1.5);
        let mut s = [0u8; 2];
        r.copy_to_slice(&mut s);
        assert_eq!(&s, b"hi");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn advance_consumes() {
        let data = [1u8, 2, 3, 4];
        let mut r: &[u8] = &data;
        r.advance(3);
        assert_eq!(r.remaining(), 1);
        assert_eq!(r.get_u8(), 4);
    }

    #[test]
    #[should_panic(expected = "advance past end")]
    fn advance_past_end_panics() {
        let mut r: &[u8] = &[1, 2];
        r.advance(3);
    }
}
