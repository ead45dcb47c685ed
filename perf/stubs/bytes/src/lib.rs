//! Offline stand-in for the `bytes` crate, used only to build the
//! benchmark where no crate registry is reachable. It implements the
//! part of the API the mpquic workspace calls, with the same semantics
//! and the same asymptotic costs where they matter to the datapath:
//! `Bytes::clone`, `slice`, `split_to` and `split_off` share one
//! reference-counted allocation and copy nothing. `BytesMut` is a plain
//! growable vector, so its `split_to`/`split_off` copy.

#![forbid(unsafe_code)]

use std::borrow::Borrow;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Bound, Deref, DerefMut, RangeBounds};
use std::sync::Arc;

#[derive(Clone)]
enum Repr {
    Static(&'static [u8]),
    Shared(Arc<Vec<u8>>),
}

/// A cheaply cloneable, sliceable, immutable byte buffer.
#[derive(Clone)]
pub struct Bytes {
    repr: Repr,
    off: usize,
    len: usize,
}

impl Bytes {
    /// An empty buffer.
    pub const fn new() -> Bytes {
        Bytes::from_static(&[])
    }

    /// Wraps a static slice without copying.
    pub const fn from_static(bytes: &'static [u8]) -> Bytes {
        Bytes {
            repr: Repr::Static(bytes),
            off: 0,
            len: bytes.len(),
        }
    }

    /// Copies `data` into a fresh buffer.
    pub fn copy_from_slice(data: &[u8]) -> Bytes {
        Bytes::from(data.to_vec())
    }

    /// Bytes in view.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the view is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// A sub-view sharing the same allocation.
    pub fn slice(&self, range: impl RangeBounds<usize>) -> Bytes {
        let start = match range.start_bound() {
            Bound::Included(&n) => n,
            Bound::Excluded(&n) => n + 1,
            Bound::Unbounded => 0,
        };
        let end = match range.end_bound() {
            Bound::Included(&n) => n + 1,
            Bound::Excluded(&n) => n,
            Bound::Unbounded => self.len,
        };
        assert!(
            start <= end && end <= self.len,
            "slice {start}..{end} out of range for length {}",
            self.len
        );
        Bytes {
            repr: self.repr.clone(),
            off: self.off + start,
            len: end - start,
        }
    }

    /// Splits off and returns the first `at` bytes; `self` keeps the rest.
    pub fn split_to(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len, "split_to out of bounds");
        let head = Bytes {
            repr: self.repr.clone(),
            off: self.off,
            len: at,
        };
        self.off += at;
        self.len -= at;
        head
    }

    /// Splits off and returns the bytes from `at` on; `self` keeps the head.
    pub fn split_off(&mut self, at: usize) -> Bytes {
        assert!(at <= self.len, "split_off out of bounds");
        let tail = Bytes {
            repr: self.repr.clone(),
            off: self.off + at,
            len: self.len - at,
        };
        self.len = at;
        tail
    }

    /// Shortens the view to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.len = self.len.min(len);
    }

    /// Empties the view.
    pub fn clear(&mut self) {
        self.len = 0;
    }

    fn as_slice(&self) -> &[u8] {
        let whole: &[u8] = match &self.repr {
            Repr::Static(s) => s,
            Repr::Shared(v) => v,
        };
        &whole[self.off..self.off + self.len]
    }
}

impl Default for Bytes {
    fn default() -> Bytes {
        Bytes::new()
    }
}

impl Deref for Bytes {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Bytes {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Borrow<[u8]> for Bytes {
    fn borrow(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for Bytes {
    fn from(vec: Vec<u8>) -> Bytes {
        let len = vec.len();
        Bytes {
            repr: Repr::Shared(Arc::new(vec)),
            off: 0,
            len,
        }
    }
}

impl From<&'static [u8]> for Bytes {
    fn from(s: &'static [u8]) -> Bytes {
        Bytes::from_static(s)
    }
}

impl From<BytesMut> for Bytes {
    fn from(b: BytesMut) -> Bytes {
        b.freeze()
    }
}

impl From<Bytes> for Vec<u8> {
    fn from(b: Bytes) -> Vec<u8> {
        b.as_slice().to_vec()
    }
}

impl fmt::Debug for Bytes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes(self.as_slice(), f)
    }
}

fn fmt_bytes(bytes: &[u8], f: &mut fmt::Formatter<'_>) -> fmt::Result {
    f.write_str("b\"")?;
    for &b in bytes {
        for c in std::ascii::escape_default(b) {
            fmt::Write::write_char(f, c as char)?;
        }
    }
    f.write_str("\"")
}

impl Hash for Bytes {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl PartialEq for Bytes {
    fn eq(&self, other: &Bytes) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for Bytes {}

macro_rules! eq_with {
    ($ty:ty, $other:ty) => {
        impl PartialEq<$other> for $ty {
            fn eq(&self, other: &$other) -> bool {
                let rhs: &[u8] = other.as_ref();
                &self[..] == rhs
            }
        }
        impl PartialEq<$ty> for $other {
            fn eq(&self, other: &$ty) -> bool {
                let lhs: &[u8] = self.as_ref();
                lhs == &other[..]
            }
        }
    };
}

eq_with!(Bytes, [u8]);
eq_with!(Bytes, Vec<u8>);
eq_with!(Bytes, &[u8]);
eq_with!(BytesMut, [u8]);
eq_with!(BytesMut, Vec<u8>);
eq_with!(BytesMut, &[u8]);
eq_with!(BytesMut, Bytes);

impl<const N: usize> PartialEq<[u8; N]> for Bytes {
    fn eq(&self, other: &[u8; N]) -> bool {
        self.as_slice() == other
    }
}

impl<const N: usize> PartialEq<&[u8; N]> for Bytes {
    fn eq(&self, other: &&[u8; N]) -> bool {
        self.as_slice() == *other
    }
}

/// A growable, uniquely owned byte buffer.
#[derive(Clone, Default, PartialEq, Eq, Hash)]
pub struct BytesMut {
    buf: Vec<u8>,
}

impl BytesMut {
    /// An empty buffer.
    pub fn new() -> BytesMut {
        BytesMut::default()
    }

    /// An empty buffer with room for `capacity` bytes.
    pub fn with_capacity(capacity: usize) -> BytesMut {
        BytesMut {
            buf: Vec::with_capacity(capacity),
        }
    }

    /// Bytes written.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Bytes the buffer can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Makes room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    /// Appends `data`.
    pub fn extend_from_slice(&mut self, data: &[u8]) {
        self.buf.extend_from_slice(data);
    }

    /// Converts into an immutable [`Bytes`] without copying.
    pub fn freeze(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Removes and returns the first `at` bytes.
    pub fn split_to(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.buf.len(), "split_to out of bounds");
        let tail = self.buf.split_off(at);
        BytesMut {
            buf: std::mem::replace(&mut self.buf, tail),
        }
    }

    /// Removes and returns the bytes from `at` on.
    pub fn split_off(&mut self, at: usize) -> BytesMut {
        assert!(at <= self.buf.len(), "split_off out of bounds");
        BytesMut {
            buf: self.buf.split_off(at),
        }
    }

    /// Removes and returns everything written so far.
    pub fn split(&mut self) -> BytesMut {
        BytesMut {
            buf: std::mem::take(&mut self.buf),
        }
    }

    /// Shortens to `len` bytes (no-op if already shorter).
    pub fn truncate(&mut self, len: usize) {
        self.buf.truncate(len);
    }

    /// Empties the buffer, keeping its capacity.
    pub fn clear(&mut self) {
        self.buf.clear();
    }

    /// Resizes to `new_len`, filling with `value`.
    pub fn resize(&mut self, new_len: usize, value: u8) {
        self.buf.resize(new_len, value);
    }
}

impl Deref for BytesMut {
    type Target = [u8];
    fn deref(&self) -> &[u8] {
        &self.buf
    }
}

impl DerefMut for BytesMut {
    fn deref_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl AsRef<[u8]> for BytesMut {
    fn as_ref(&self) -> &[u8] {
        &self.buf
    }
}

impl AsMut<[u8]> for BytesMut {
    fn as_mut(&mut self) -> &mut [u8] {
        &mut self.buf
    }
}

impl Borrow<[u8]> for BytesMut {
    fn borrow(&self) -> &[u8] {
        &self.buf
    }
}

impl From<&[u8]> for BytesMut {
    fn from(data: &[u8]) -> BytesMut {
        BytesMut { buf: data.to_vec() }
    }
}

impl From<Vec<u8>> for BytesMut {
    fn from(buf: Vec<u8>) -> BytesMut {
        BytesMut { buf }
    }
}

impl From<BytesMut> for Vec<u8> {
    fn from(b: BytesMut) -> Vec<u8> {
        b.buf
    }
}

impl fmt::Debug for BytesMut {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt_bytes(&self.buf, f)
    }
}

macro_rules! buf_get {
    ($name:ident, $ty:ty) => {
        /// Reads one big-endian integer and advances past it.
        fn $name(&mut self) -> $ty {
            let mut raw = [0u8; std::mem::size_of::<$ty>()];
            self.copy_to_slice(&mut raw);
            <$ty>::from_be_bytes(raw)
        }
    };
}

/// A cursor over readable bytes.
pub trait Buf {
    /// Bytes left to read.
    fn remaining(&self) -> usize;

    /// The unread bytes (this stand-in's buffers are all contiguous).
    fn chunk(&self) -> &[u8];

    /// Skips `cnt` bytes.
    fn advance(&mut self, cnt: usize);

    /// True while bytes remain.
    fn has_remaining(&self) -> bool {
        self.remaining() > 0
    }

    /// Fills `dst` from the cursor; panics if too few bytes remain.
    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        assert!(self.remaining() >= dst.len(), "buffer underflow");
        dst.copy_from_slice(&self.chunk()[..dst.len()]);
        self.advance(dst.len());
    }

    /// Takes the next `len` bytes as a [`Bytes`].
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        assert!(self.remaining() >= len, "buffer underflow");
        let out = Bytes::copy_from_slice(&self.chunk()[..len]);
        self.advance(len);
        out
    }

    buf_get!(get_u8, u8);
    buf_get!(get_u16, u16);
    buf_get!(get_u32, u32);
    buf_get!(get_u64, u64);
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }
    fn chunk(&self) -> &[u8] {
        self
    }
    fn advance(&mut self, cnt: usize) {
        *self = &self[cnt..];
    }
}

impl Buf for Bytes {
    fn remaining(&self) -> usize {
        self.len
    }
    fn chunk(&self) -> &[u8] {
        self.as_slice()
    }
    fn advance(&mut self, cnt: usize) {
        assert!(cnt <= self.len, "advance out of bounds");
        self.off += cnt;
        self.len -= cnt;
    }
    fn copy_to_bytes(&mut self, len: usize) -> Bytes {
        self.split_to(len)
    }
}

impl Buf for BytesMut {
    fn remaining(&self) -> usize {
        self.buf.len()
    }
    fn chunk(&self) -> &[u8] {
        &self.buf
    }
    fn advance(&mut self, cnt: usize) {
        self.buf.drain(..cnt);
    }
}

impl<T: Buf + ?Sized> Buf for &mut T {
    fn remaining(&self) -> usize {
        (**self).remaining()
    }
    fn chunk(&self) -> &[u8] {
        (**self).chunk()
    }
    fn advance(&mut self, cnt: usize) {
        (**self).advance(cnt);
    }
}

macro_rules! buf_put {
    ($name:ident, $ty:ty) => {
        /// Appends one big-endian integer.
        fn $name(&mut self, n: $ty) {
            self.put_slice(&n.to_be_bytes());
        }
    };
}

/// A sink for written bytes.
pub trait BufMut {
    /// Bytes that can still be written.
    fn remaining_mut(&self) -> usize;

    /// Appends `src`.
    fn put_slice(&mut self, src: &[u8]);

    /// Appends `cnt` copies of `val`.
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        for _ in 0..cnt {
            self.put_slice(&[val]);
        }
    }

    buf_put!(put_u8, u8);
    buf_put!(put_u16, u16);
    buf_put!(put_u32, u32);
    buf_put!(put_u64, u64);
}

impl BufMut for Vec<u8> {
    fn remaining_mut(&self) -> usize {
        isize::MAX as usize - self.len()
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.resize(self.len() + cnt, val);
    }
}

impl BufMut for BytesMut {
    fn remaining_mut(&self) -> usize {
        self.buf.remaining_mut()
    }
    fn put_slice(&mut self, src: &[u8]) {
        self.buf.extend_from_slice(src);
    }
    fn put_bytes(&mut self, val: u8, cnt: usize) {
        self.buf.put_bytes(val, cnt);
    }
}

impl BufMut for &mut [u8] {
    fn remaining_mut(&self) -> usize {
        self.len()
    }
    fn put_slice(&mut self, src: &[u8]) {
        assert!(self.len() >= src.len(), "buffer overflow");
        let (head, tail) = std::mem::take(self).split_at_mut(src.len());
        head.copy_from_slice(src);
        *self = tail;
    }
}

impl<T: BufMut + ?Sized> BufMut for &mut T {
    fn remaining_mut(&self) -> usize {
        (**self).remaining_mut()
    }
    fn put_slice(&mut self, src: &[u8]) {
        (**self).put_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bytes_views_share_and_split() {
        let mut b = Bytes::from(vec![1, 2, 3, 4, 5, 6]);
        let mid = b.slice(1..4);
        assert_eq!(mid, [2u8, 3, 4]);
        let head = b.split_to(2);
        assert_eq!(&head[..], &[1, 2]);
        let tail = b.split_off(3);
        assert_eq!(&b[..], &[3, 4, 5]);
        assert_eq!(&tail[..], &[6]);
        b.advance(1);
        assert_eq!(b.get_u16(), 0x0405);
        assert!(!b.has_remaining());
    }

    #[test]
    fn mut_round_trips_integers() {
        let mut m = BytesMut::with_capacity(16);
        m.put_u8(7);
        m.put_u16(0x0102);
        m.put_u32(0x0a0b_0c0d);
        m.put_u64(u64::MAX - 1);
        m.put_slice(b"xy");
        let mut r = m.freeze();
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u16(), 0x0102);
        assert_eq!(r.get_u32(), 0x0a0b_0c0d);
        assert_eq!(r.get_u64(), u64::MAX - 1);
        assert_eq!(r.copy_to_bytes(2), Bytes::from_static(b"xy"));
    }

    #[test]
    fn slice_cursor_and_mut_slice_sink() {
        let mut read: &[u8] = &[0, 1, 2, 3];
        let mut two = [0u8; 2];
        read.copy_to_slice(&mut two);
        assert_eq!(two, [0, 1]);
        assert_eq!(read.remaining(), 2);
        let mut raw = [0u8; 4];
        let mut sink: &mut [u8] = &mut raw;
        sink.put_u16(0xbeef);
        assert_eq!(sink.remaining_mut(), 2);
        assert_eq!(raw, [0xbe, 0xef, 0, 0]);
    }
}
