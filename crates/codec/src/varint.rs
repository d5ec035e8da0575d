//! LEB128-style unsigned varints, used for self-framing codec headers and by
//! the wire formats of the other crates.

/// Appends `value` to `out` as an unsigned LEB128 varint (1–10 bytes).
pub fn put_uvarint(out: &mut Vec<u8>, mut value: u64) {
    loop {
        let byte = (value & 0x7f) as u8;
        value >>= 7;
        if value == 0 {
            out.push(byte);
            return;
        }
        out.push(byte | 0x80);
    }
}

/// Reads an unsigned LEB128 varint from the front of `input`.
///
/// Returns `(value, bytes_consumed)`, or `None` if the input is truncated or
/// the varint overflows 64 bits.
pub fn get_uvarint(input: &[u8]) -> Option<(u64, usize)> {
    // Most wire varints are one byte: return those before the loop.
    if let Some(&byte) = input.first() {
        if byte < 0x80 {
            return Some((u64::from(byte), 1));
        }
    }
    let mut value: u64 = 0;
    let mut shift = 0u32;
    for (i, &byte) in input.iter().enumerate() {
        if shift >= 64 {
            return None;
        }
        let chunk = (byte & 0x7f) as u64;
        // Reject bits that would be shifted out of range.
        if shift == 63 && chunk > 1 {
            return None;
        }
        value |= chunk << shift;
        if byte & 0x80 == 0 {
            return Some((value, i + 1));
        }
        shift += 7;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_edge_values() {
        for v in [
            0u64,
            1,
            127,
            128,
            255,
            256,
            16383,
            16384,
            u32::MAX as u64,
            u64::MAX - 1,
            u64::MAX,
        ] {
            let mut buf = Vec::new();
            put_uvarint(&mut buf, v);
            let (got, n) = get_uvarint(&buf).unwrap();
            assert_eq!(got, v);
            assert_eq!(n, buf.len());
        }
    }

    #[test]
    fn truncated_input_is_rejected() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 300);
        assert!(get_uvarint(&buf[..1]).is_none());
        assert!(get_uvarint(&[]).is_none());
    }

    #[test]
    fn overlong_input_is_rejected() {
        // Eleven continuation bytes can never be a valid u64 varint.
        let buf = [0xffu8; 11];
        assert!(get_uvarint(&buf).is_none());
    }

    #[test]
    fn trailing_bytes_are_not_consumed() {
        let mut buf = Vec::new();
        put_uvarint(&mut buf, 5);
        buf.push(0xaa);
        let (v, n) = get_uvarint(&buf).unwrap();
        assert_eq!(v, 5);
        assert_eq!(n, 1);
    }
}
