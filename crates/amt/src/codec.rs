//! Hand-rolled binary wire format.
//!
//! Parcels between localities carry serialized payloads. The offline crate
//! allowlist has no serde *format* crate, so this module provides a small
//! explicit little-endian codec: the [`Wire`] trait plus implementations for
//! the primitives and containers the solver's messages are built from.
//! Everything round-trips exactly (floats bit-for-bit), and decoding is
//! length-checked so truncated messages surface as [`WireError`] rather than
//! panics.
//!
//! # The halo run and its rows
//!
//! The dominant payload is the ghost exchange: a nonlocal halo on small
//! SDs is thousands of records of four or five rows of four or five `f64`s
//! each (`dist_ghost_heavy`: 4 602 records of 16–20 cells per rank and
//! step). [`encode_f64_rows`] / [`decode_f64_rows`] are the only code that
//! knows the layout of a run, and the **row is their unit**:
//!
//! - the buffer grows once per run (`reserve`) and rows are appended into
//!   the room — nothing zero-fills bytes the copy then overwrites;
//! - a row of up to eight values goes through an arm of its own width
//!   (`put_f64_row_le` / `get_f64_row_le`): the length is a constant there,
//!   so 32–40 bytes move as a few straight-line loads and stores where a
//!   `memcpy` call of run-time length costs more than the copy; longer
//!   rows (a migrating SD's 25- or 50-cell rows, a top or bottom halo
//!   strip) are one bulk copy, as before;
//! - decode checks the run's bounds once, cuts each row off the front of
//!   what is left and advances the cursor once.
//!
//! [`encode_ghost_record`] appends its three header words as one 24-byte
//! store, and [`decode_ghost_record`] reads them **in place** — no handle
//! on the buffer is cloned to peek (that was two atomic read-modify-writes
//! on the `Arc` per record) and no word is copied out through the cursor —
//! and still compares them with the expected header *before* a single
//! value is written. All of this is safe code: every slice is bounds
//! checked, and the one `unsafe` left in the module is the byte view of an
//! `&[f64]` in `put_f64_slice_le`.

use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Decoding failure: message too short or a malformed field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// Fewer bytes remained than the field required.
    Truncated { needed: usize, remaining: usize },
    /// An enum discriminant or flag byte had an invalid value.
    BadTag(u8),
    /// A string field was not valid UTF-8.
    BadUtf8,
    /// Trailing bytes after a complete top-level decode.
    TrailingBytes(usize),
    /// A ghost record's header disagrees with the record the receiver's
    /// exchange schedule expects at this position of the bundle.
    RecordMismatch {
        expected: GhostRecordHeader,
        found: GhostRecordHeader,
    },
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, remaining } => {
                write!(
                    f,
                    "truncated message: needed {needed} bytes, {remaining} remain"
                )
            }
            WireError::BadTag(t) => write!(f, "invalid discriminant byte {t}"),
            WireError::BadUtf8 => write!(f, "string field is not valid UTF-8"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes after decode"),
            WireError::RecordMismatch { expected, found } => {
                write!(
                    f,
                    "ghost record mismatch: expected {expected}, found {found}"
                )
            }
        }
    }
}

impl std::error::Error for WireError {}

fn need(buf: &impl Buf, n: usize) -> Result<(), WireError> {
    if buf.remaining() < n {
        Err(WireError::Truncated {
            needed: n,
            remaining: buf.remaining(),
        })
    } else {
        Ok(())
    }
}

/// Types that can be serialized to / deserialized from the wire format.
pub trait Wire: Sized {
    /// Append this value's encoding to `buf`.
    fn encode(&self, buf: &mut BytesMut);
    /// Decode a value, advancing `buf` past it.
    fn decode(buf: &mut Bytes) -> Result<Self, WireError>;

    /// Encode into a fresh buffer.
    fn to_bytes(&self) -> Bytes {
        let mut buf = BytesMut::new();
        self.encode(&mut buf);
        buf.freeze()
    }

    /// Decode from a complete message, rejecting trailing bytes.
    fn from_bytes(bytes: Bytes) -> Result<Self, WireError> {
        let mut b = bytes;
        let v = Self::decode(&mut b)?;
        if b.has_remaining() {
            return Err(WireError::TrailingBytes(b.remaining()));
        }
        Ok(v)
    }
}

macro_rules! impl_wire_int {
    ($($t:ty => $put:ident / $get:ident / $n:expr),* $(,)?) => {
        $(impl Wire for $t {
            fn encode(&self, buf: &mut BytesMut) {
                buf.$put(*self);
            }
            fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
                need(buf, $n)?;
                Ok(buf.$get())
            }
        })*
    };
}

impl_wire_int! {
    u8 => put_u8 / get_u8 / 1,
    u16 => put_u16_le / get_u16_le / 2,
    u32 => put_u32_le / get_u32_le / 4,
    u64 => put_u64_le / get_u64_le / 8,
    i32 => put_i32_le / get_i32_le / 4,
    i64 => put_i64_le / get_i64_le / 8,
    f32 => put_f32_le / get_f32_le / 4,
    f64 => put_f64_le / get_f64_le / 8,
}

impl Wire for usize {
    fn encode(&self, buf: &mut BytesMut) {
        (*self as u64).encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok(u64::decode(buf)? as usize)
    }
}

impl Wire for bool {
    fn encode(&self, buf: &mut BytesMut) {
        buf.put_u8(u8::from(*self));
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(false),
            1 => Ok(true),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Wire for String {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u64).encode(buf);
        buf.put_slice(self.as_bytes());
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = u64::decode(buf)? as usize;
        need(buf, len)?;
        let raw = buf.copy_to_bytes(len);
        String::from_utf8(raw.to_vec()).map_err(|_| WireError::BadUtf8)
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, buf: &mut BytesMut) {
        (self.len() as u64).encode(buf);
        for item in self {
            item.encode(buf);
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        let len = u64::decode(buf)? as usize;
        // Guard absurd lengths before reserving (truncation would fail anyway,
        // but this avoids a huge allocation on corrupt input).
        if len > buf.remaining() {
            return Err(WireError::Truncated {
                needed: len,
                remaining: buf.remaining(),
            });
        }
        let mut out = Vec::with_capacity(len);
        for _ in 0..len {
            out.push(T::decode(buf)?);
        }
        Ok(out)
    }
}

impl<T: Wire> Wire for Option<T> {
    fn encode(&self, buf: &mut BytesMut) {
        match self {
            None => buf.put_u8(0),
            Some(v) => {
                buf.put_u8(1);
                v.encode(buf);
            }
        }
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        need(buf, 1)?;
        match buf.get_u8() {
            0 => Ok(None),
            1 => Ok(Some(T::decode(buf)?)),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire> Wire for (A, B, C) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((A::decode(buf)?, B::decode(buf)?, C::decode(buf)?))
    }
}

impl<A: Wire, B: Wire, C: Wire, D: Wire> Wire for (A, B, C, D) {
    fn encode(&self, buf: &mut BytesMut) {
        self.0.encode(buf);
        self.1.encode(buf);
        self.2.encode(buf);
        self.3.encode(buf);
    }
    fn decode(buf: &mut Bytes) -> Result<Self, WireError> {
        Ok((
            A::decode(buf)?,
            B::decode(buf)?,
            C::decode(buf)?,
            D::decode(buf)?,
        ))
    }
}

/// Append `values` as raw little-endian words. On little-endian targets
/// this is one `memcpy` — `f64` has no padding bytes, so reinterpreting the
/// slice as bytes is sound and already produces the wire's LE words.
/// Big-endian targets take the per-element swap path. Either way the bytes
/// written are identical.
#[inline]
fn put_f64_slice_le(values: &[f64], buf: &mut BytesMut) {
    #[cfg(target_endian = "little")]
    {
        // SAFETY: `values` is a live `&[f64]`, so its `size_of_val` bytes
        // are readable for the borrow; `f64` has no padding and every bit
        // pattern is a valid `u8`; `u8` has alignment 1.
        let bytes = unsafe {
            std::slice::from_raw_parts(values.as_ptr().cast::<u8>(), std::mem::size_of_val(values))
        };
        buf.put_slice(bytes);
    }
    #[cfg(not(target_endian = "little"))]
    for v in values {
        buf.put_f64_le(*v);
    }
}

/// Fill `dst` from the little-endian words of `src`, which must hold
/// exactly `dst.len()` of them. Word by word in the source; on a
/// little-endian target `from_le_bytes` is a plain load and the `&mut`
/// rules out overlap, so the optimiser makes it a vector copy loop.
#[inline]
fn get_f64_slice_le(src: &[u8], dst: &mut [f64]) {
    let (words, rest) = src.as_chunks::<8>();
    assert!(
        words.len() == dst.len() && rest.is_empty(),
        "get_f64_slice_le: {} source bytes for {} values",
        src.len(),
        dst.len()
    );
    for (v, word) in dst.iter_mut().zip(words) {
        *v = f64::from_le_bytes(*word);
    }
}

/// The widest row that is copied through an arm of its own width (see
/// [`put_f64_row_le`]). A halo patch is at most `halo = ε/h` cells wide on
/// its short side, and that is 4 or 8 in every workload of this repository.
const FIXED_ROW_MAX: usize = 8;

/// Append one row of a run. A row of up to [`FIXED_ROW_MAX`] values — the
/// halo patch of a small SD is a handful of them, four or five values each
/// — goes through the arm of its width: the length is a constant there, so
/// the copy is a few straight-line moves instead of a `memcpy` call that
/// costs more than the 32–40 bytes it moves. Longer rows are one bulk copy.
#[inline(always)]
fn put_f64_row_le(row: &[f64], buf: &mut BytesMut) {
    #[inline(always)]
    fn fixed<const N: usize>(row: &[f64], buf: &mut BytesMut) {
        let row: &[f64; N] = row.try_into().expect("the arm of the row's length");
        buf.put_slice(row.map(f64::to_le_bytes).as_flattened());
    }
    match row.len() {
        1 => fixed::<1>(row, buf),
        2 => fixed::<2>(row, buf),
        3 => fixed::<3>(row, buf),
        4 => fixed::<4>(row, buf),
        5 => fixed::<5>(row, buf),
        6 => fixed::<6>(row, buf),
        7 => fixed::<7>(row, buf),
        FIXED_ROW_MAX => fixed::<FIXED_ROW_MAX>(row, buf),
        _ => put_f64_slice_le(row, buf),
    }
}

/// Counterpart of [`put_f64_row_le`]: fill `row` from `src`, which must
/// hold exactly its `row.len()` little-endian words.
#[inline(always)]
fn get_f64_row_le(src: &[u8], row: &mut [f64]) {
    #[inline(always)]
    fn fixed<const N: usize>(src: &[u8], row: &mut [f64]) {
        let row: &mut [f64; N] = row.try_into().expect("the arm of the row's length");
        let words: &[[u8; 8]; N] = src
            .as_chunks::<8>()
            .0
            .try_into()
            .expect("the caller cut `src` to the row's length");
        *row = words.map(f64::from_le_bytes);
    }
    match row.len() {
        1 => fixed::<1>(src, row),
        2 => fixed::<2>(src, row),
        3 => fixed::<3>(src, row),
        4 => fixed::<4>(src, row),
        5 => fixed::<5>(src, row),
        6 => fixed::<6>(src, row),
        7 => fixed::<7>(src, row),
        FIXED_ROW_MAX => fixed::<FIXED_ROW_MAX>(src, row),
        _ => get_f64_slice_le(src, row),
    }
}

/// Append the `total` values of a run supplied as strided `rows`, without
/// a length prefix. The caller has reserved the room, so no row grows the
/// buffer — and nothing zero-fills bytes the copy is about to overwrite.
///
/// # Panics
/// If `rows` do not hold exactly `total` values: the prefix that announced
/// them is already on the wire.
#[inline(always)]
fn put_f64_run<'a>(total: usize, rows: impl Iterator<Item = &'a [f64]>, buf: &mut BytesMut) {
    let start = buf.len();
    for row in rows {
        put_f64_row_le(row, buf);
    }
    let written = (buf.len() - start) / 8;
    assert_eq!(
        written, total,
        "encode_f64_rows: the rows hold {written} values where the length prefix says {total}"
    );
}

/// Decode the `len` values of a run (its length prefix already consumed)
/// straight into the strided `rows`.
#[inline(always)]
fn get_f64_run<'a>(
    buf: &mut Bytes,
    len: usize,
    rows: impl Iterator<Item = &'a mut [f64]>,
) -> Result<(), WireError> {
    need(buf, len.saturating_mul(8))?;
    // The run's bounds are checked once, here; every row is then cut off
    // the front of what is left, and the cursor advances once at the end.
    let mut run = &buf.chunk()[..len * 8];
    let mut taken = 0usize;
    for row in rows {
        let Some((src, rest)) = run.split_at_checked(row.len() * 8) else {
            return Err(WireError::Truncated {
                needed: (taken + row.len()) * 8,
                remaining: len * 8,
            });
        };
        get_f64_row_le(src, row);
        run = rest;
        taken += row.len();
    }
    buf.advance(taken * 8);
    if taken != len {
        return Err(WireError::TrailingBytes((len - taken) * 8));
    }
    Ok(())
}

/// Encode a logically contiguous `f64` run supplied as strided `rows`
/// (e.g. the rows of a tile rectangle) without materializing an
/// intermediate `Vec<f64>`. Wire-identical to `Vec<f64>`'s [`Wire`]
/// encoding of the concatenation of `rows`: the length as a `u64`, then
/// the little-endian words.
///
/// # Panics
/// If the summed row lengths differ from `total`, which the length prefix
/// has announced by then.
pub fn encode_f64_rows<'a>(
    total: usize,
    rows: impl Iterator<Item = &'a [f64]>,
    buf: &mut BytesMut,
) {
    buf.reserve(8 + total * 8);
    (total as u64).encode(buf);
    put_f64_run(total, rows, buf);
}

/// Decode a length-prefixed `f64` run straight into the strided mutable
/// `rows` (e.g. a tile rectangle's rows), without an intermediate
/// `Vec<f64>`. The payload length must match the summed row lengths
/// exactly: short payloads surface as [`WireError::Truncated`], long ones
/// as [`WireError::TrailingBytes`].
pub fn decode_f64_rows<'a>(
    buf: &mut Bytes,
    rows: impl Iterator<Item = &'a mut [f64]>,
) -> Result<(), WireError> {
    let len = u64::decode(buf)? as usize;
    get_f64_run(buf, len, rows)
}

/// Header of one record of a ghost bundle: which halo patch of which
/// destination sub-domain the following `f64` run fills, and how many
/// cells it carries.
///
/// A bundle is the concatenation of its records, nothing else. One record
/// on the wire is `dst_sd: u64 | pidx: u64 | cells: u64 | cells × f64`,
/// all little-endian — the two header words followed by exactly the
/// length-prefixed run [`encode_f64_rows`] writes. This type and the two
/// functions below are the only code that knows that layout.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GhostRecordHeader {
    /// Destination sub-domain.
    pub dst_sd: u64,
    /// Patch index within the destination's halo plan.
    pub pidx: u64,
    /// Cells in the patch.
    pub cells: u64,
}

impl GhostRecordHeader {
    /// Bytes of the three header words.
    const BYTES: usize = 24;

    /// The header as it stands on the wire.
    #[inline]
    fn to_le_bytes(self) -> [[u8; 8]; 3] {
        [self.dst_sd, self.pidx, self.cells].map(u64::to_le_bytes)
    }

    /// The header at the front of `wire`, if `wire` is long enough to hold
    /// one.
    #[inline]
    fn read(wire: &[u8]) -> Option<Self> {
        let (head, _) = wire.split_first_chunk::<{ Self::BYTES }>()?;
        let [dst_sd, pidx, cells] = head.as_chunks::<8>().0 else {
            unreachable!("24 bytes are three words")
        };
        Some(GhostRecordHeader {
            dst_sd: u64::from_le_bytes(*dst_sd),
            pidx: u64::from_le_bytes(*pidx),
            cells: u64::from_le_bytes(*cells),
        })
    }

    /// Bytes the whole record (header and run) occupies in a bundle.
    pub const fn wire_bytes(&self) -> usize {
        Self::BYTES + 8 * self.cells as usize
    }
}

impl std::fmt::Display for GhostRecordHeader {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "(dst_sd {}, patch {}, {} cells)",
            self.dst_sd, self.pidx, self.cells
        )
    }
}

/// Append one ghost record: `header` followed by the run supplied as
/// strided `rows`. Grows `buf` by exactly
/// [`GhostRecordHeader::wire_bytes`]; the header is one 24-byte append.
///
/// # Panics
/// If `rows` do not hold exactly `header.cells` values.
pub fn encode_ghost_record<'a>(
    header: GhostRecordHeader,
    rows: impl Iterator<Item = &'a [f64]>,
    buf: &mut BytesMut,
) {
    buf.reserve(header.wire_bytes());
    buf.put_slice(header.to_le_bytes().as_flattened());
    put_f64_run(header.cells as usize, rows, buf);
}

/// Decode the next record of a bundle straight into the strided `rows`
/// (which must hold `expected.cells` values in total). The record's
/// header is compared with `expected` where it lies, *before* anything is
/// written: a record for another patch, or one with a different cell
/// count, is a [`WireError::RecordMismatch`] naming both sides and leaves
/// `rows` untouched; a bundle that ends early is [`WireError::Truncated`].
pub fn decode_ghost_record<'a>(
    buf: &mut Bytes,
    expected: GhostRecordHeader,
    rows: impl Iterator<Item = &'a mut [f64]>,
) -> Result<(), WireError> {
    let Some(found) = GhostRecordHeader::read(buf.chunk()) else {
        return Err(WireError::Truncated {
            needed: GhostRecordHeader::BYTES,
            remaining: buf.remaining(),
        });
    };
    if found != expected {
        return Err(WireError::RecordMismatch { expected, found });
    }
    buf.advance(GhostRecordHeader::BYTES);
    get_f64_run(buf, found.cells as usize, rows)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Wire + PartialEq + std::fmt::Debug>(v: T) {
        let bytes = v.to_bytes();
        let back = T::from_bytes(bytes).expect("decode");
        assert_eq!(back, v);
    }

    #[test]
    fn primitives_roundtrip() {
        roundtrip(0u8);
        roundtrip(255u8);
        roundtrip(u16::MAX);
        roundtrip(123456789u32);
        roundtrip(u64::MAX);
        roundtrip(-42i32);
        roundtrip(i64::MIN);
        roundtrip(0.57721f32);
        roundtrip(-1.25e-7f64);
        roundtrip(f64::INFINITY);
        roundtrip(true);
        roundtrip(false);
        roundtrip(usize::MAX / 2);
    }

    #[test]
    fn nan_roundtrips_bitwise() {
        let bytes = f64::NAN.to_bytes();
        let back = f64::from_bytes(bytes).unwrap();
        assert_eq!(back.to_bits(), f64::NAN.to_bits());
    }

    #[test]
    fn containers_roundtrip() {
        roundtrip(String::from("nonlocal ♨"));
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<f64>::new());
        roundtrip(Some(9u64));
        roundtrip(Option::<u64>::None);
        roundtrip((1u32, 2.5f64));
        roundtrip((1u8, String::from("x"), vec![true, false]));
        roundtrip(vec![vec![1u8], vec![], vec![2, 3]]);
    }

    #[test]
    fn truncated_input_errors() {
        let bytes = 12345u64.to_bytes();
        let short = bytes.slice(0..4);
        assert!(matches!(
            u64::from_bytes(short),
            Err(WireError::Truncated { .. })
        ));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut buf = BytesMut::new();
        7u32.encode(&mut buf);
        buf.put_u8(0xFF);
        assert!(matches!(
            u32::from_bytes(buf.freeze()),
            Err(WireError::TrailingBytes(1))
        ));
    }

    #[test]
    fn bad_bool_tag_rejected() {
        let mut buf = BytesMut::new();
        buf.put_u8(7);
        assert_eq!(bool::from_bytes(buf.freeze()), Err(WireError::BadTag(7)));
    }

    #[test]
    fn corrupt_vec_length_is_safe() {
        let mut buf = BytesMut::new();
        (u64::MAX).encode(&mut buf); // absurd element count
        let res = Vec::<u8>::from_bytes(buf.freeze());
        assert!(matches!(res, Err(WireError::Truncated { .. })));
    }

    #[test]
    fn f64_rows_wire_identical_to_slice() {
        // The zero-copy strided encoder must produce byte-identical wire
        // output to the element-wise encoder over the concatenated rows.
        let flat: Vec<f64> = (0..24).map(|i| (i as f64) * 1.5 - 7.0).collect();
        let mut a = BytesMut::new();
        flat.encode(&mut a);
        let mut b = BytesMut::new();
        encode_f64_rows(flat.len(), flat.chunks(8), &mut b);
        assert_eq!(&a[..], &b[..]);
        // and decode_f64_rows reads it back into strided destinations
        let mut bytes = b.freeze();
        let mut out = vec![0.0f64; 24];
        decode_f64_rows(&mut bytes, out.chunks_mut(6)).unwrap();
        assert_eq!(out, flat);
        assert!(!bytes.has_remaining());
    }

    #[test]
    fn f64_rows_length_mismatches_error() {
        let payload = vec![1.0f64, 2.0, 3.0, 4.0].to_bytes();
        // destination larger than the payload: truncated
        let mut dst = [0.0f64; 6];
        let mut b = payload.clone();
        assert!(matches!(
            decode_f64_rows(&mut b, dst.chunks_mut(3)),
            Err(WireError::Truncated { .. })
        ));
        // destination smaller than the payload: trailing bytes
        let mut small = [0.0f64; 2];
        let mut b = payload.clone();
        assert!(matches!(
            decode_f64_rows(&mut b, small.chunks_mut(2)),
            Err(WireError::TrailingBytes(16))
        ));
    }

    fn header(dst_sd: u64, pidx: u64, cells: u64) -> GhostRecordHeader {
        GhostRecordHeader {
            dst_sd,
            pidx,
            cells,
        }
    }

    /// A two-record bundle: (sd 7, patch 3, 6 cells) then (sd 9, patch 0,
    /// 2 cells), with values 0.5, 1.5, ...
    fn two_record_bundle() -> Bytes {
        let values: Vec<f64> = (0..8).map(|i| i as f64 + 0.5).collect();
        let mut buf = BytesMut::new();
        encode_ghost_record(header(7, 3, 6), values[..6].chunks(3), &mut buf);
        encode_ghost_record(header(9, 0, 2), values[6..].chunks(2), &mut buf);
        assert_eq!(
            buf.len(),
            header(7, 3, 6).wire_bytes() + header(9, 0, 2).wire_bytes()
        );
        buf.freeze()
    }

    #[test]
    fn ghost_records_roundtrip_and_size_exactly() {
        let mut bundle = two_record_bundle();
        let mut a = [0.0f64; 6];
        decode_ghost_record(&mut bundle, header(7, 3, 6), a.chunks_mut(2)).unwrap();
        assert_eq!(a, [0.5, 1.5, 2.5, 3.5, 4.5, 5.5]);
        // a record consumes exactly its own bytes: the next one follows
        assert_eq!(bundle.remaining(), header(9, 0, 2).wire_bytes());
        let mut b = [0.0f64; 2];
        decode_ghost_record(&mut bundle, header(9, 0, 2), b.chunks_mut(2)).unwrap();
        assert_eq!(b, [6.5, 7.5]);
        assert!(!bundle.has_remaining());
    }

    #[test]
    fn ghost_record_for_another_patch_is_rejected_before_any_write() {
        for expected in [header(8, 3, 6), header(7, 4, 6)] {
            let mut bundle = two_record_bundle();
            let mut dst = [-1.0f64; 6];
            let err = decode_ghost_record(&mut bundle, expected, dst.chunks_mut(3)).unwrap_err();
            assert_eq!(
                err,
                WireError::RecordMismatch {
                    expected,
                    found: header(7, 3, 6)
                }
            );
            assert_eq!(dst, [-1.0; 6], "a rejected record must not scatter");
            let text = err.to_string();
            assert!(
                text.contains(&expected.to_string())
                    && text.contains("(dst_sd 7, patch 3, 6 cells)"),
                "the error names both sides: {text}"
            );
        }
    }

    #[test]
    fn ghost_record_with_a_short_run_is_rejected() {
        // the sender packed 6 cells where the schedule expects 8
        let mut bundle = two_record_bundle();
        let mut dst = [0.0f64; 8];
        assert_eq!(
            decode_ghost_record(&mut bundle, header(7, 3, 8), dst.chunks_mut(4)),
            Err(WireError::RecordMismatch {
                expected: header(7, 3, 8),
                found: header(7, 3, 6)
            })
        );
        // the bundle itself cut short, mid-run and mid-header
        for keep in [24 + 5 * 8, 20] {
            let mut cut = two_record_bundle().slice(0..keep);
            let mut dst = [0.0f64; 6];
            assert!(matches!(
                decode_ghost_record(&mut cut, header(7, 3, 6), dst.chunks_mut(3)),
                Err(WireError::Truncated { .. })
            ));
        }
    }

    /// Row-major storage of `rows` rows of `stride` values, every value
    /// distinct, with a NaN that carries a payload and a `-0.0` among them.
    fn storage(stride: usize, rows: usize) -> Vec<f64> {
        let mut data: Vec<f64> = (0..stride * rows).map(|i| i as f64 * 0.25 - 3.0).collect();
        data[0] = f64::from_bits(0x7ff8_dead_beef_0001);
        let last = data.len() - 1;
        data[last] = -0.0;
        data
    }

    /// The `h` rows of `w` values at `(x0, y0)` of `data` — what
    /// `Tile::rect_rows` hands the codec.
    fn rect_rows(
        data: &[f64],
        stride: usize,
        (x0, y0, w, h): (usize, usize, usize, usize),
    ) -> impl Iterator<Item = &[f64]> {
        data[y0 * stride..]
            .chunks(stride)
            .take(h)
            .map(move |row| &row[x0..x0 + w])
    }

    fn rect_rows_mut(
        data: &mut [f64],
        stride: usize,
        (x0, y0, w, h): (usize, usize, usize, usize),
    ) -> impl Iterator<Item = &mut [f64]> {
        data[y0 * stride..]
            .chunks_mut(stride)
            .take(h)
            .map(move |row| &mut row[x0..x0 + w])
    }

    fn bits(values: &[f64]) -> Vec<u64> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn every_row_width_keeps_the_wire_format_and_every_check() {
        // every fixed-width arm, the first width past them, and two long rows
        let widths = (1..=FIXED_ROW_MAX + 1).chain([25, 41]);
        for (w, h) in widths.flat_map(|w| [(w, 1), (w, 3)]) {
            // the rect flush with each edge of the storage, and clear of all
            let placements = [
                (w, 0, 0),     // as wide as the storage: the rows are adjacent
                (w + 3, 0, 0), // left and top
                (w + 3, 3, 0), // right and top
                (w + 3, 0, 2), // left and bottom
                (w + 3, 3, 2), // right and bottom
                (w + 4, 2, 1), // inside
            ];
            for (stride, x0, y0) in placements {
                let what = format!("{w}x{h} at ({x0}, {y0}) of stride {stride}");
                let rect = (x0, y0, w, h);
                let src = storage(stride, h + 2);
                let head = header(41, 7, (w * h) as u64);

                // the wire-format pin: the reference is built a value at a time
                let mut want = BytesMut::new();
                head.dst_sd.encode(&mut want);
                head.pidx.encode(&mut want);
                head.cells.encode(&mut want);
                for v in rect_rows(&src, stride, rect).flatten() {
                    v.encode(&mut want);
                }
                let mut record = BytesMut::new();
                encode_ghost_record(head, rect_rows(&src, stride, rect), &mut record);
                assert_eq!(&record[..], &want[..], "{what}");
                assert_eq!(record.len(), head.wire_bytes(), "{what}");
                let mut run = BytesMut::new();
                encode_f64_rows(w * h, rect_rows(&src, stride, rect), &mut run);
                assert_eq!(&run[..], &want[16..], "{what}");
                let record = record.freeze();

                // decode: bit-exact in the rect, nothing outside it
                let blank = vec![-7.5f64; stride * (h + 2)];
                let mut dst = blank.clone();
                let mut wire = record.clone();
                decode_ghost_record(&mut wire, head, rect_rows_mut(&mut dst, stride, rect))
                    .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert!(!wire.has_remaining(), "{what}");
                let got: Vec<f64> = rect_rows(&dst, stride, rect).flatten().copied().collect();
                let sent: Vec<f64> = rect_rows(&src, stride, rect).flatten().copied().collect();
                assert_eq!(bits(&got), bits(&sent), "{what}");
                let mut outside = dst.clone();
                rect_rows_mut(&mut outside, stride, rect).for_each(|row| row.fill(-7.5));
                assert_eq!(bits(&outside), bits(&blank), "{what}");
                let mut via_rows = blank.clone();
                decode_f64_rows(
                    &mut record.slice(16..record.len()),
                    rect_rows_mut(&mut via_rows, stride, rect),
                )
                .unwrap_or_else(|e| panic!("{what}: {e}"));
                assert_eq!(bits(&via_rows), bits(&dst), "{what}");

                // cut inside the header, at every row boundary and mid-row
                let run_cuts = (0..h).flat_map(|row| [row * w * 8, row * w * 8 + 4]);
                for keep in [0, 23].into_iter().chain(run_cuts.map(|cut| 24 + cut)) {
                    let mut dst = blank.clone();
                    let mut cut = record.slice(0..keep);
                    let needed = if keep < 24 { 24 } else { w * h * 8 };
                    let remaining = if keep < 24 { keep } else { keep - 24 };
                    assert_eq!(
                        decode_ghost_record(&mut cut, head, rect_rows_mut(&mut dst, stride, rect)),
                        Err(WireError::Truncated { needed, remaining }),
                        "{what}, {keep} bytes kept"
                    );
                    assert_eq!(bits(&dst), bits(&blank), "{what}, {keep} bytes kept");
                }

                // a header that disagrees in any word: refused before any write
                for expected in [
                    header(40, 7, head.cells),
                    header(41, 8, head.cells),
                    header(41, 7, head.cells + 1),
                ] {
                    let mut dst = blank.clone();
                    assert_eq!(
                        decode_ghost_record(
                            &mut record.clone(),
                            expected,
                            rect_rows_mut(&mut dst, stride, rect)
                        ),
                        Err(WireError::RecordMismatch {
                            expected,
                            found: head
                        }),
                        "{what}"
                    );
                    assert_eq!(bits(&dst), bits(&blank), "{what}");
                }

                // a run longer than the rows it is decoded into
                let mut dst = blank.clone();
                let short = (x0, y0, w, h - 1);
                assert_eq!(
                    decode_ghost_record(
                        &mut record.clone(),
                        head,
                        rect_rows_mut(&mut dst, stride, short)
                    ),
                    Err(WireError::TrailingBytes(w * 8)),
                    "{what}"
                );
                // ... and one shorter
                let mut dst = vec![0.0; stride * (h + 3)];
                let tall = (x0, y0, w, h + 1);
                assert_eq!(
                    decode_ghost_record(
                        &mut record.clone(),
                        head,
                        rect_rows_mut(&mut dst, stride, tall)
                    ),
                    Err(WireError::Truncated {
                        needed: w * (h + 1) * 8,
                        remaining: w * h * 8
                    }),
                    "{what}"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "the rows hold 6 values where the length prefix says 8")]
    fn rows_that_disagree_with_the_announced_total_fail_at_the_encoder() {
        let values = [0.0f64; 6];
        encode_ghost_record(header(1, 2, 8), values.chunks(3), &mut BytesMut::new());
    }

    #[test]
    fn f64_rows_nan_and_negzero_bit_exact() {
        let values = [f64::NAN, -0.0, f64::NEG_INFINITY, 1.0e-308];
        let mut buf = BytesMut::new();
        encode_f64_rows(4, values.chunks(2), &mut buf);
        let mut back = [0.0f64; 4];
        decode_f64_rows(&mut buf.freeze(), back.chunks_mut(2)).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
