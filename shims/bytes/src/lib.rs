//! Minimal std-backed stand-in for the `bytes` crate.
//!
//! `Bytes` is a cheaply-cloneable immutable byte buffer (an `Arc<Vec<u8>>`
//! plus a view range), `BytesMut` a growable builder that freezes into
//! `Bytes`, and `Buf`/`BufMut` provide the little-endian cursor methods the
//! workspace codec uses. Only the API surface exercised here is provided.
//!
//! The accessors and cursor methods are `#[inline]`, as they are in the
//! real crate: they are one or two instructions each, the codec calls
//! several per 32-byte halo row, and without the attribute a non-generic
//! method of another crate is an out-of-line call.

use std::fmt;
use std::ops::{Deref, DerefMut, Range};
use std::sync::Arc;

/// A cheaply-cloneable, sliceable, immutable byte buffer.
#[derive(Clone, Default)]
pub struct Bytes {
    data: Arc<Vec<u8>>,
    start: usize,
    end: usize,
}

impl Bytes {
    /// An empty buffer.
    pub fn new() -> Self {
        Bytes::from(Vec::new())
    }

    /// A buffer copied from a static slice (the real crate borrows it; the
    /// one-time copy is irrelevant at this workspace's message sizes).
    pub fn from_static(data: &'static [u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    /// Copy an arbitrary slice into a new buffer.
    pub fn copy_from_slice(data: &[u8]) -> Self {
        Bytes::from(data.to_vec())
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.end - self.start
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.start == self.end
    }

    /// A zero-copy sub-view of this buffer.
    ///
    /// # Panics
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: Range<usize>) -> Bytes {
        assert!(range.start <= range.end && range.end <= self.len());
        Bytes {
            data: self.data.clone(),
            start: self.start + range.start,
            end: self.start + range.end,
        }
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(v: Vec<u8>) -> Self {
        let end = v.len();
        Bytes {
            data: Arc::new(v),
            start: 0,
            end,
        }
    }
}

impl Deref for Bytes {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.data[self.start..self.end]
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Self) -> bool {
        self[..] == other[..]
    }
}

impl Eq for Bytes {}

impl PartialEq<[u8]> for Bytes {
    fn eq(&self, other: &[u8]) -> bool {
        &self[..] == other
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Bytes({} bytes)", self.len())
    }
}

/// Read cursor over a byte buffer; all multi-byte reads are little-endian
/// (`_le`) to match the workspace wire format.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn chunk(&self) -> &[u8];
    fn advance(&mut self, n: usize);

    #[inline]
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    #[inline]
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::from(self.chunk()[..len].to_vec());
        self.advance(len);
        out
    }

    #[inline]
    fn get_u8(&mut self) -> u8 {
        let mut b = [0u8; 1];
        self.copy_to_slice(&mut b);
        b[0]
    }

    #[inline]
    fn get_u16_le(&mut self) -> u16 {
        let mut b = [0u8; 2];
        self.copy_to_slice(&mut b);
        u16::from_le_bytes(b)
    }

    #[inline]
    fn get_u32_le(&mut self) -> u32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        u32::from_le_bytes(b)
    }

    #[inline]
    fn get_u64_le(&mut self) -> u64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        u64::from_le_bytes(b)
    }

    #[inline]
    fn get_i32_le(&mut self) -> i32 {
        let mut b = [0u8; 4];
        self.copy_to_slice(&mut b);
        i32::from_le_bytes(b)
    }

    #[inline]
    fn get_i64_le(&mut self) -> i64 {
        let mut b = [0u8; 8];
        self.copy_to_slice(&mut b);
        i64::from_le_bytes(b)
    }

    #[inline]
    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    #[inline]
    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }
}

impl Buf for Bytes {
    #[inline]
    fn remaining(&self) -> usize {
        self.len()
    }

    #[inline]
    fn chunk(&self) -> &[u8] {
        self
    }

    #[inline]
    fn advance(&mut self, n: usize) {
        assert!(n <= self.len(), "advance past end of buffer");
        self.start += n;
    }
}

/// A growable byte builder; freeze into [`Bytes`] when done.
#[derive(Debug, Clone, Default)]
pub struct BytesMut {
    vec: Vec<u8>,
}

impl BytesMut {
    pub fn new() -> Self {
        BytesMut { vec: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        BytesMut {
            vec: Vec::with_capacity(cap),
        }
    }

    #[inline]
    pub fn reserve(&mut self, additional: usize) {
        self.vec.reserve(additional);
    }

    #[inline]
    pub fn len(&self) -> usize {
        self.vec.len()
    }

    #[inline]
    pub fn is_empty(&self) -> bool {
        self.vec.is_empty()
    }

    #[inline]
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.vec.extend_from_slice(data);
    }

    /// Grow (zero-filling with `value`) or shrink to `new_len` bytes —
    /// lets bulk encoders allocate once and write through `DerefMut`.
    #[inline]
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.vec.resize(new_len, value);
    }

    pub fn freeze(self) -> Bytes {
        Bytes::from(self.vec)
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    #[inline]
    fn deref(&self) -> &[u8] {
        &self.vec
    }
}

impl DerefMut for BytesMut {
    #[inline]
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.vec
    }
}

/// Write cursor; little-endian (`_le`) multi-byte writes.
pub trait BufMut {
    fn put_slice(&mut self, src: &[u8]);

    #[inline]
    fn put_u8(&mut self, v: u8) {
        self.put_slice(&[v]);
    }

    #[inline]
    fn put_u16_le(&mut self, v: u16) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u32_le(&mut self, v: u32) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_u64_le(&mut self, v: u64) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i32_le(&mut self, v: i32) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_i64_le(&mut self, v: i64) {
        self.put_slice(&v.to_le_bytes());
    }

    #[inline]
    fn put_f32_le(&mut self, v: f32) {
        self.put_u32_le(v.to_bits());
    }

    #[inline]
    fn put_f64_le(&mut self, v: f64) {
        self.put_u64_le(v.to_bits());
    }
}

impl BufMut for BytesMut {
    #[inline]
    fn put_slice(&mut self, src: &[u8]) {
        self.vec.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_little_endian() {
        let mut w = BytesMut::new();
        w.put_u8(7);
        w.put_u32_le(0xDEADBEEF);
        w.put_f64_le(-2.5);
        let mut b = w.freeze();
        assert_eq!(b.remaining(), 13);
        assert_eq!(b.get_u8(), 7);
        assert_eq!(b.get_u32_le(), 0xDEADBEEF);
        assert_eq!(b.get_f64_le(), -2.5);
        assert!(!b.has_remaining());
    }

    #[test]
    fn slice_is_a_view() {
        let b = Bytes::from(vec![1, 2, 3, 4, 5]);
        let s = b.slice(1..4);
        assert_eq!(&s[..], &[2, 3, 4]);
        assert_eq!(b.len(), 5, "slicing must not consume the parent");
    }

    #[test]
    fn clone_shares_storage() {
        let b = Bytes::from(vec![0u8; 1024]);
        let c = b.clone();
        assert_eq!(c.len(), 1024);
        assert!(Arc::ptr_eq(&b.data, &c.data));
    }

    #[test]
    #[should_panic(expected = "buffer underflow")]
    fn overread_panics() {
        let mut b = Bytes::from(vec![1u8]);
        let _ = b.get_u32_le();
    }

    #[test]
    fn copy_to_bytes_advances() {
        let mut b = Bytes::from(vec![1, 2, 3, 4]);
        let head = b.copy_to_bytes(2);
        assert_eq!(&head[..], &[1, 2]);
        assert_eq!(b.remaining(), 2);
    }
}
