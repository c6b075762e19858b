//! Hand-rolled binary wire format.
//!
//! Parcels between localities carry serialized payloads. The offline crate
//! allowlist has no serde *format* crate, so this module provides a small
//! explicit little-endian codec: the [`Wire`] trait plus implementations for
//! the primitives and containers the solver's messages are built from.
//! Everything round-trips exactly (floats bit-for-bit), and decoding is
//! length-checked so truncated messages surface as [`WireError`] rather than
//! panics.

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

/// Copy `dst.len()` little-endian words out of `buf` into `dst`. The
/// caller must have length-checked `buf` (see [`need`]). One `memcpy` on
/// little-endian targets, per-element swaps otherwise.
#[inline]
fn get_f64_slice_le(buf: &mut Bytes, dst: &mut [f64]) {
    #[cfg(target_endian = "little")]
    {
        let n = std::mem::size_of_val(dst);
        unsafe {
            std::ptr::copy_nonoverlapping(buf.chunk().as_ptr(), dst.as_mut_ptr().cast::<u8>(), n);
        }
        buf.advance(n);
    }
    #[cfg(not(target_endian = "little"))]
    for v in dst.iter_mut() {
        *v = buf.get_f64_le();
    }
}

/// Fast bulk encoding for `f64` fields — the dominant payload (ghost-zone
/// temperature values). Writes the length then raw little-endian words.
pub fn encode_f64_slice(values: &[f64], buf: &mut BytesMut) {
    (values.len() as u64).encode(buf);
    buf.reserve(values.len() * 8);
    put_f64_slice_le(values, buf);
}

/// Encode a logically contiguous `f64` run supplied as strided `rows`
/// (e.g. the rows of a tile rectangle) without materializing an
/// intermediate `Vec<f64>`. Wire-identical to [`encode_f64_slice`] over
/// the concatenation of `rows`; `total` must equal the summed row lengths
/// (debug-asserted) because the length prefix is written first.
pub fn encode_f64_rows<'a>(
    total: usize,
    rows: impl Iterator<Item = &'a [f64]>,
    buf: &mut BytesMut,
) {
    (total as u64).encode(buf);
    let mut written = 0usize;
    #[cfg(target_endian = "little")]
    {
        // One growth for the whole run, then raw row copies into the
        // already-sized tail — no per-row capacity checks.
        let start = buf.len();
        buf.resize(start + total * 8, 0);
        let dst = buf[start..].as_mut_ptr();
        for row in rows {
            debug_assert!(written + row.len() <= total);
            unsafe {
                std::ptr::copy_nonoverlapping(
                    row.as_ptr().cast::<u8>(),
                    dst.add(written * 8),
                    std::mem::size_of_val(row),
                );
            }
            written += row.len();
        }
    }
    #[cfg(not(target_endian = "little"))]
    {
        buf.reserve(total * 8);
        for row in rows {
            put_f64_slice_le(row, buf);
            written += row.len();
        }
    }
    debug_assert_eq!(written, total, "encode_f64_rows: rows disagree with total");
}

/// Counterpart to [`encode_f64_slice`].
pub fn decode_f64_vec(buf: &mut Bytes) -> Result<Vec<f64>, WireError> {
    let len = u64::decode(buf)? as usize;
    need(buf, len.saturating_mul(8))?;
    let mut out = vec![0.0f64; len];
    get_f64_slice_le(buf, &mut out);
    Ok(out)
}

/// Decode a length-prefixed `f64` run straight into the strided mutable
/// `rows` (e.g. a tile rectangle's rows), skipping the intermediate
/// `Vec<f64>` of [`decode_f64_vec`]. The payload length must match the
/// summed row lengths exactly: short payloads surface as
/// [`WireError::Truncated`], long ones as [`WireError::TrailingBytes`]
/// (mirroring `Tile::unpack`'s size check on the copying path).
pub fn decode_f64_rows<'a>(
    buf: &mut Bytes,
    rows: impl Iterator<Item = &'a mut [f64]>,
) -> Result<(), WireError> {
    let len = u64::decode(buf)? as usize;
    need(buf, len.saturating_mul(8))?;
    let mut taken = 0usize;
    #[cfg(target_endian = "little")]
    {
        // One cursor advance for the whole run: `need` has verified the
        // payload is contiguous in `chunk()`, so each row is a raw copy
        // from a running source offset.
        let src = buf.chunk().as_ptr();
        for row in rows {
            if taken + row.len() > len {
                return Err(WireError::Truncated {
                    needed: (taken + row.len()) * 8,
                    remaining: len * 8,
                });
            }
            unsafe {
                std::ptr::copy_nonoverlapping(
                    src.add(taken * 8),
                    row.as_mut_ptr().cast::<u8>(),
                    std::mem::size_of_val(row),
                );
            }
            taken += row.len();
        }
        buf.advance(taken * 8);
    }
    #[cfg(not(target_endian = "little"))]
    for row in rows {
        if taken + row.len() > len {
            return Err(WireError::Truncated {
                needed: (taken + row.len()) * 8,
                remaining: len * 8,
            });
        }
        get_f64_slice_le(buf, row);
        taken += row.len();
    }
    if taken != len {
        return Err(WireError::TrailingBytes((len - taken) * 8));
    }
    Ok(())
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
    /// Bytes the whole record (header and run) occupies in a bundle.
    pub const fn wire_bytes(&self) -> usize {
        24 + 8 * self.cells as usize
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
/// strided `rows`, which must hold `header.cells` values in total. Grows
/// `buf` by exactly [`GhostRecordHeader::wire_bytes`].
pub fn encode_ghost_record<'a>(
    header: GhostRecordHeader,
    rows: impl Iterator<Item = &'a [f64]>,
    buf: &mut BytesMut,
) {
    header.dst_sd.encode(buf);
    header.pidx.encode(buf);
    encode_f64_rows(header.cells as usize, rows, buf);
}

/// Decode the next record of a bundle straight into the strided `rows`
/// (which must hold `expected.cells` values in total). The record's
/// header is compared with `expected` *before* anything is written: a
/// record for another patch, or one with a different cell count, is a
/// [`WireError::RecordMismatch`] naming both sides and leaves `rows`
/// untouched; a bundle that ends early is [`WireError::Truncated`].
pub fn decode_ghost_record<'a>(
    buf: &mut Bytes,
    expected: GhostRecordHeader,
    rows: impl Iterator<Item = &'a mut [f64]>,
) -> Result<(), WireError> {
    need(buf, 24)?;
    // Peek at the length prefix through a cheap handle so the run decoder
    // below still finds it in place.
    let mut head = buf.clone();
    let found = GhostRecordHeader {
        dst_sd: head.get_u64_le(),
        pidx: head.get_u64_le(),
        cells: head.get_u64_le(),
    };
    if found != expected {
        return Err(WireError::RecordMismatch { expected, found });
    }
    buf.advance(16);
    decode_f64_rows(buf, rows)
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
        // output to the flat encoder over the concatenated rows.
        let flat: Vec<f64> = (0..24).map(|i| (i as f64) * 1.5 - 7.0).collect();
        let mut a = BytesMut::new();
        encode_f64_slice(&flat, &mut a);
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
        let flat = [1.0f64, 2.0, 3.0, 4.0];
        let mut buf = BytesMut::new();
        encode_f64_slice(&flat, &mut buf);
        let payload = buf.freeze();
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

    #[test]
    fn f64_slice_nan_and_negzero_bit_exact() {
        let values = [f64::NAN, -0.0, f64::NEG_INFINITY, 1.0e-308];
        let mut buf = BytesMut::new();
        encode_f64_slice(&values, &mut buf);
        let mut bytes = buf.freeze();
        let back = decode_f64_vec(&mut bytes).unwrap();
        for (a, b) in values.iter().zip(&back) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn f64_slice_fast_path_roundtrips() {
        let values: Vec<f64> = (0..100).map(|i| (i as f64).sqrt()).collect();
        let mut buf = BytesMut::new();
        encode_f64_slice(&values, &mut buf);
        let mut bytes = buf.freeze();
        let back = decode_f64_vec(&mut bytes).unwrap();
        assert_eq!(back, values);
        assert!(!bytes.has_remaining());
    }
}
