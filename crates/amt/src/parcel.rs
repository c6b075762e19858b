//! Parcels: tagged, addressed messages between localities.
//!
//! A `Parcel` is the only way data moves between localities, mirroring
//! HPX's parcel transport. The 64-bit [`Tag`] keys the destination's
//! rendezvous table for point-to-point matching (protocol class, step,
//! sender).

use bytes::Bytes;

/// Identifier of a locality (simulated compute node) within a cluster.
pub type LocalityId = u32;

/// Message tag: `class (8 bits) | a (24 bits) | b (20 bits) | c (12 bits)`.
///
/// The solver uses `a` for the timestep (or LB epoch) and `b` for the
/// sending locality (ghost bundles, LB statistics) or the sub-domain
/// (migrations); other protocols use the fields freely.
pub type Tag = u64;

const A_BITS: u32 = 24;
const B_BITS: u32 = 20;
const C_BITS: u32 = 12;

/// Maximum value of the `a` field (timestep).
pub const TAG_A_MAX: u64 = (1 << A_BITS) - 1;
/// Maximum value of the `b` field (sub-domain id).
pub const TAG_B_MAX: u64 = (1 << B_BITS) - 1;
/// Maximum value of the `c` field (patch index).
pub(crate) const TAG_C_MAX: u64 = (1 << C_BITS) - 1;

/// Build a tag from its four fields.
///
/// # Panics
/// Panics — in every build profile — if a field exceeds its bit budget: an
/// oversized field would spill into its neighbour and alias another
/// parcel's tag, and the rendezvous table would then match the wrong
/// payload silently.
pub fn tag(class: u8, a: u64, b: u64, c: u64) -> Tag {
    assert!(a <= TAG_A_MAX, "tag field a={a} exceeds {TAG_A_MAX}");
    assert!(b <= TAG_B_MAX, "tag field b={b} exceeds {TAG_B_MAX}");
    assert!(c <= TAG_C_MAX, "tag field c={c} exceeds {TAG_C_MAX}");
    ((class as u64) << (A_BITS + B_BITS + C_BITS)) | (a << (B_BITS + C_BITS)) | (b << C_BITS) | c
}

/// An addressed message with an opaque serialized payload.
#[derive(Debug, Clone)]
pub(crate) struct Parcel {
    /// Sending locality.
    pub src: LocalityId,
    /// Destination locality.
    pub dst: LocalityId,
    /// Routing/matching tag.
    pub tag: Tag,
    /// Serialized payload.
    pub payload: Bytes,
}

impl Parcel {
    /// Total wire size (payload plus a nominal fixed header), used by the
    /// network model to compute transfer time.
    pub(crate) fn wire_size(&self) -> usize {
        self.payload.len() + 24
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl Parcel {
        pub(crate) fn new(src: LocalityId, dst: LocalityId, tag: Tag, payload: Bytes) -> Self {
            Parcel {
                src,
                dst,
                tag,
                payload,
            }
        }
    }

    /// Extract the class byte of a tag.
    fn tag_class(t: Tag) -> u8 {
        (t >> (A_BITS + B_BITS + C_BITS)) as u8
    }

    /// The `a`, `b` and `c` fields of a tag.
    fn tag_abc(t: Tag) -> (u64, u64, u64) {
        let a = (t >> (B_BITS + C_BITS)) & TAG_A_MAX;
        (a, (t >> C_BITS) & TAG_B_MAX, t & TAG_C_MAX)
    }

    #[test]
    fn tag_fields_roundtrip() {
        let t = tag(3, 12345, 678, 90);
        assert_eq!(tag_class(t), 3);
        assert_eq!(tag_abc(t), (12345, 678, 90));
    }

    #[test]
    fn tag_fields_at_limits() {
        let t = tag(u8::MAX, TAG_A_MAX, TAG_B_MAX, TAG_C_MAX);
        assert_eq!(tag_class(t), u8::MAX);
        assert_eq!(tag_abc(t), (TAG_A_MAX, TAG_B_MAX, TAG_C_MAX));
    }

    #[test]
    #[should_panic(expected = "tag field a=16777216 exceeds 16777215")]
    fn step_field_over_limit_is_rejected() {
        let _ = tag(1, TAG_A_MAX + 1, 0, 0);
    }

    #[test]
    #[should_panic(expected = "tag field b=1048576 exceeds 1048575")]
    fn sd_field_over_limit_is_rejected() {
        let _ = tag(1, 0, TAG_B_MAX + 1, 0);
    }

    #[test]
    #[should_panic(expected = "tag field c=4096 exceeds 4095")]
    fn patch_field_over_limit_is_rejected() {
        let _ = tag(1, 0, 0, TAG_C_MAX + 1);
    }

    #[test]
    fn distinct_fields_give_distinct_tags() {
        let a = tag(1, 5, 6, 7);
        let b = tag(1, 5, 7, 6);
        let c = tag(2, 5, 6, 7);
        assert_ne!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn wire_size_includes_header() {
        let p = Parcel::new(0, 1, 0, Bytes::from_static(&[0u8; 100]));
        assert_eq!(p.wire_size(), 124);
    }
}
