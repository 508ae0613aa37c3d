//! LEB128 variable-length integers over [`bytes`] buffers.
//!
//! The `colf` columnar format stores every integer column as varints
//! (usually min-anchored deltas), which is where its footprint advantage
//! over PSV text comes from. Kept as its own module so the encoding is
//! testable in isolation.

use bytes::{Buf, BufMut};

/// Maximum encoded length of a `u64` varint.
pub const MAX_VARINT_LEN: usize = 10;

/// Encodes `value` as an unsigned LEB128 varint.
pub fn put_uvarint(buf: &mut impl BufMut, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

/// Decodes an unsigned LEB128 varint. Returns `None` on truncated or
/// over-long (> 10 byte) input.
#[inline]
pub fn get_uvarint(buf: &mut impl Buf) -> Option<u64> {
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for _ in 0..MAX_VARINT_LEN {
        if !buf.has_remaining() {
            return None;
        }
        let byte = buf.get_u8();
        let low = (byte & 0x7f) as u64;
        value |= low.checked_shl(shift)?;
        if byte & 0x80 == 0 {
            // Reject non-canonical encodings that would overflow u64.
            if shift == 63 && low > 1 {
                return None;
            }
            return Some(value);
        }
        shift += 7;
    }
    None
}

/// ZigZag-encodes a signed value so small magnitudes stay small.
pub fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Inverse of [`zigzag`].
pub fn unzigzag(v: u64) -> i64 {
    ((v >> 1) as i64) ^ -((v & 1) as i64)
}

/// Encodes a signed value as a zigzag varint.
pub fn put_ivarint(buf: &mut impl BufMut, value: i64) {
    put_uvarint(buf, zigzag(value));
}

/// Decodes a zigzag varint.
pub fn get_ivarint(buf: &mut impl Buf) -> Option<i64> {
    get_uvarint(buf).map(unzigzag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::BytesMut;

    #[test]
    fn roundtrip_representative_values() {
        let values = [
            0u64,
            1,
            127,
            128,
            300,
            16_383,
            16_384,
            1_478_274_632, // the paper's example ATIME
            u32::MAX as u64,
            u64::MAX,
        ];
        for &v in &values {
            let mut buf = BytesMut::new();
            put_uvarint(&mut buf, v);
            let mut r = buf.freeze();
            assert_eq!(get_uvarint(&mut r), Some(v), "value {v}");
            assert!(!r.has_remaining());
        }
    }

    #[test]
    fn encoded_lengths() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 0);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_uvarint(&mut buf, 127);
        assert_eq!(buf.len(), 1);
        buf.clear();
        put_uvarint(&mut buf, 128);
        assert_eq!(buf.len(), 2);
        buf.clear();
        put_uvarint(&mut buf, u64::MAX);
        assert_eq!(buf.len(), 10);
    }

    #[test]
    fn truncated_input_is_detected() {
        let mut buf = BytesMut::new();
        put_uvarint(&mut buf, 1_000_000);
        let bytes = buf.freeze();
        for cut in 0..bytes.len() - 1 {
            let mut r = bytes.slice(..cut);
            assert_eq!(get_uvarint(&mut r), None, "cut at {cut}");
        }
    }

    #[test]
    fn overlong_encoding_rejected() {
        // Eleven continuation bytes can never be a valid u64 varint.
        let mut r: &[u8] = &[0x80; 11];
        assert_eq!(get_uvarint(&mut r), None);
    }

    #[test]
    fn zigzag_pairs() {
        for (signed, unsigned) in [(0i64, 0u64), (-1, 1), (1, 2), (-2, 3), (2, 4)] {
            assert_eq!(zigzag(signed), unsigned);
            assert_eq!(unzigzag(unsigned), signed);
        }
        assert_eq!(unzigzag(zigzag(i64::MIN)), i64::MIN);
        assert_eq!(unzigzag(zigzag(i64::MAX)), i64::MAX);
    }

    #[test]
    fn signed_roundtrip() {
        for v in [-1_000_000i64, -1, 0, 1, 1_000_000, i64::MIN, i64::MAX] {
            let mut buf = BytesMut::new();
            put_ivarint(&mut buf, v);
            let mut r = buf.freeze();
            assert_eq!(get_ivarint(&mut r), Some(v));
        }
    }
}
