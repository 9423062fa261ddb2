//! Minimal little-endian byte codec shared by the checkpoint/restore
//! stack.
//!
//! The serving layers (`mla-graph` state, `mla-core` policy snapshots,
//! `mla-sim` session checkpoints) all serialize through these helpers so
//! that every decoder is bounds-checked and returns a structured
//! [`CodecError`] instead of panicking on malformed bytes — the
//! corruption-fuzz suite feeds arbitrary mutations of valid checkpoints
//! through every decode path.
//!
//! The format is deliberately boring: fixed-width little-endian integers
//! and length-prefixed sequences, no varints, no alignment. Versioning,
//! magic headers and checksums live one layer up, in
//! `mla-sim`'s checkpoint container.

use std::fmt;

/// Structured decoding failure. Decoders never panic on malformed input;
/// they return one of these.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CodecError {
    /// The input ended before a fixed-width read could complete.
    Truncated {
        /// Bytes the read needed.
        needed: usize,
        /// Bytes that remained.
        remaining: usize,
    },
    /// The bytes decoded, but the value they encode is inconsistent
    /// (out-of-range index, duplicate node, bad tag, ...).
    Invalid {
        /// What was being decoded and why it was rejected.
        context: String,
    },
}

impl CodecError {
    /// Convenience constructor for [`CodecError::Invalid`].
    #[must_use]
    pub fn invalid(context: impl Into<String>) -> Self {
        CodecError::Invalid {
            context: context.into(),
        }
    }
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::Truncated { needed, remaining } => {
                write!(f, "input truncated: needed {needed} bytes, had {remaining}")
            }
            CodecError::Invalid { context } => write!(f, "invalid encoding: {context}"),
        }
    }
}

impl std::error::Error for CodecError {}

/// Bounds-checked cursor over a byte slice.
#[derive(Debug)]
pub struct ByteReader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `bytes`, positioned at the start.
    #[must_use]
    pub fn new(bytes: &'a [u8]) -> Self {
        ByteReader { bytes, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.bytes.len() - self.pos
    }

    /// Takes the next `len` bytes.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than `len` bytes remain.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], CodecError> {
        if self.remaining() < len {
            return Err(CodecError::Truncated {
                needed: len,
                remaining: self.remaining(),
            });
        }
        let out = &self.bytes[self.pos..self.pos + len];
        self.pos += len;
        Ok(out)
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input.
    pub fn u8(&mut self) -> Result<u8, CodecError> {
        Ok(self.bytes(1)?[0])
    }

    /// Reads a little-endian `u32`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 4 bytes remain.
    pub fn u32(&mut self) -> Result<u32, CodecError> {
        let b = self.bytes(4)?;
        // mla-lint: allow(panic-safety): bytes() returned exactly 4 bytes
        Ok(u32::from_le_bytes(b.try_into().expect("4-byte slice")))
    }

    /// Reads a little-endian `u64`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 8 bytes remain.
    pub fn u64(&mut self) -> Result<u64, CodecError> {
        let b = self.bytes(8)?;
        // mla-lint: allow(panic-safety): bytes() returned exactly 8 bytes
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian `u128`.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] if fewer than 16 bytes remain.
    pub fn u128(&mut self) -> Result<u128, CodecError> {
        let b = self.bytes(16)?;
        // mla-lint: allow(panic-safety): bytes() returned exactly 16 bytes
        Ok(u128::from_le_bytes(b.try_into().expect("16-byte slice")))
    }

    /// Reads a `u64` length/count and checks it against a ceiling before
    /// any allocation sized by it.
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] on short input, [`CodecError::Invalid`]
    /// if the count exceeds `max` (the standard guard against
    /// length-bomb payloads).
    pub fn count(&mut self, max: usize, what: &str) -> Result<usize, CodecError> {
        let raw = self.u64()?;
        let n = usize::try_from(raw)
            .map_err(|_| CodecError::invalid(format!("{what} count {raw} overflows usize")))?;
        if n > max {
            return Err(CodecError::invalid(format!(
                "{what} count {n} exceeds bound {max}"
            )));
        }
        Ok(n)
    }

    /// Reads a `bool` encoded as one byte (`0` or `1`).
    ///
    /// # Errors
    ///
    /// [`CodecError::Truncated`] at end of input, [`CodecError::Invalid`]
    /// for any byte other than `0`/`1`.
    pub fn bool(&mut self, what: &str) -> Result<bool, CodecError> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(CodecError::invalid(format!(
                "{what} flag must be 0 or 1, got {other}"
            ))),
        }
    }

    /// Succeeds only if every byte has been consumed.
    ///
    /// # Errors
    ///
    /// [`CodecError::Invalid`] if trailing bytes remain.
    pub fn finish(&self) -> Result<(), CodecError> {
        if self.remaining() != 0 {
            return Err(CodecError::invalid(format!(
                "{} trailing bytes after decode",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// Appends one byte.
pub fn put_u8(out: &mut Vec<u8>, value: u8) {
    out.push(value);
}

/// Appends a `bool` as one byte.
pub fn put_bool(out: &mut Vec<u8>, value: bool) {
    out.push(u8::from(value));
}

/// Appends a little-endian `u32`.
pub fn put_u32(out: &mut Vec<u8>, value: u32) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(out: &mut Vec<u8>, value: u64) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a little-endian `u128`.
pub fn put_u128(out: &mut Vec<u8>, value: u128) {
    out.extend_from_slice(&value.to_le_bytes());
}

/// Appends a `usize` as a little-endian `u64` (lossless: the workspace
/// only targets 64-bit-or-smaller platforms).
pub fn put_len(out: &mut Vec<u8>, value: usize) {
    // mla-lint: allow(cast-hygiene): usize -> u64 is lossless on every supported (<= 64-bit) target
    put_u64(out, value as u64);
}

/// The ECMA-182 polynomial, bit-reflected.
const CRC64_POLY: u64 = 0xC96C_5795_D787_0F42;

/// Slicing-by-8 tables: `CRC64_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through eight bit steps, and `CRC64_TABLES[k][b]`
/// is that register after `k` further zero bytes, so eight input bytes
/// fold into the register with eight independent lookups.
const CRC64_TABLES: [[u64; 256]; 8] = {
    let mut tables = [[0u64; 256]; 8];
    let mut byte = 0;
    while byte < 256 {
        let mut crc = byte as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = (crc >> 1) ^ (CRC64_POLY & 0u64.wrapping_sub(crc & 1));
            bit += 1;
        }
        tables[0][byte] = crc;
        byte += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut byte = 0;
        while byte < 256 {
            let prev = tables[k - 1][byte];
            tables[k][byte] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            byte += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-64/XZ (the ECMA-182 polynomial, reflected, init and xorout all
/// ones), the checksum the checkpoint container uses to reject
/// bit-flipped payloads. Table-driven, eight bytes per step.
#[must_use]
pub fn crc64(bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let (words, tail) = bytes.as_chunks::<8>();
    let mut crc = !0u64;
    for word in words {
        // The first input byte sits lowest and has the most bytes still
        // to pass through, so it takes the table eight steps deep.
        let b = (crc ^ u64::from_le_bytes(*word)).to_le_bytes();
        crc = t[7][usize::from(b[0])]
            ^ t[6][usize::from(b[1])]
            ^ t[5][usize::from(b[2])]
            ^ t[4][usize::from(b[3])]
            ^ t[3][usize::from(b[4])]
            ^ t[2][usize::from(b[5])]
            ^ t[1][usize::from(b[6])]
            ^ t[0][usize::from(b[7])];
    }
    for &byte in tail {
        crc = (crc >> 8) ^ t[0][usize::from(crc.to_le_bytes()[0] ^ byte)];
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitives_roundtrip() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_bool(&mut buf, true);
        put_u32(&mut buf, 0xDEAD_BEEF);
        put_u64(&mut buf, u64::MAX - 1);
        put_u128(&mut buf, u128::MAX / 3);
        put_len(&mut buf, 42);
        let mut r = ByteReader::new(&buf);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool("flag").unwrap());
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.u128().unwrap(), u128::MAX / 3);
        assert_eq!(r.count(100, "answer").unwrap(), 42);
        r.finish().unwrap();
    }

    #[test]
    fn truncation_and_trailing_bytes_are_structured_errors() {
        let mut r = ByteReader::new(&[1, 2]);
        assert!(matches!(
            r.u32(),
            Err(CodecError::Truncated {
                needed: 4,
                remaining: 2
            })
        ));
        let mut r = ByteReader::new(&[1, 2]);
        r.u8().unwrap();
        assert!(r.finish().is_err());
    }

    #[test]
    fn counts_and_flags_are_validated() {
        let mut buf = Vec::new();
        put_u64(&mut buf, 10);
        let mut r = ByteReader::new(&buf);
        assert!(matches!(r.count(9, "seg"), Err(CodecError::Invalid { .. })));
        let mut r = ByteReader::new(&[2]);
        assert!(matches!(r.bool("rev"), Err(CodecError::Invalid { .. })));
    }

    /// The bitwise definition the table-driven [`crc64`] must match.
    fn crc64_bitwise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &byte in bytes {
            crc ^= u64::from(byte);
            for _ in 0..8 {
                let mask = 0u64.wrapping_sub(crc & 1);
                crc = (crc >> 1) ^ (CRC64_POLY & mask);
            }
        }
        !crc
    }

    /// Deterministic filler bytes (xorshift64).
    fn noise(len: usize, mut state: u64) -> Vec<u8> {
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state.to_le_bytes()[0]
            })
            .collect()
    }

    #[test]
    fn crc64_is_crc64_xz() {
        // The published CRC-64/XZ check value.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
    }

    #[test]
    fn crc64_table_matches_bitwise_reference() {
        let buf = noise(72, 0x9E37_79B9_7F4A_7C15);
        for start in 0..8 {
            for len in 0..=64 {
                let slice = &buf[start..start + len];
                assert_eq!(crc64(slice), crc64_bitwise(slice), "{start}+{len}");
            }
        }
        let big = noise((3 << 20) + 5, 7);
        assert_eq!(crc64(&big), crc64_bitwise(&big));
    }

    #[test]
    fn crc64_detects_any_single_bit_flip() {
        let base: Vec<u8> = (0u8..64).collect();
        let reference = crc64(&base);
        assert_eq!(crc64(&base), reference);
        for byte in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[byte] ^= 1 << bit;
                assert_ne!(crc64(&flipped), reference, "flip at {byte}:{bit}");
            }
        }
    }
}
