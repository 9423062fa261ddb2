//! The checkpoint container: a magic/version/checksum envelope around an
//! opaque body.
//!
//! Every durable artifact of the serving stack — a single session
//! checkpoint ([`crate::session::encode_session`]) or a whole-server
//! snapshot (`mla-serve --checkpoint`) — is sealed in this envelope, so
//! one `open` call authenticates the bytes before any structural decode
//! runs. Corrupt input of any kind (truncation, bit flips, foreign files,
//! future versions) yields a structured [`CheckpointError`], never a
//! panic and never a silently-wrong restore.
//!
//! Layout (all integers little-endian):
//!
//! ```text
//! offset  size  field
//!      0     8  magic  b"MLACKPT\n"
//!      8     4  format version (currently 3; 1 and 2 are still read)
//!     12     8  body length in bytes
//!     20     8  CRC-64/XZ of the body
//!     28     …  body
//! ```

use std::fmt;

use mla_permutation::codec::{crc64, CodecError};

/// The 8-byte file magic. The trailing newline makes an accidental
/// text-mode mangling (`\n` → `\r\n`) fail loudly at the magic check.
pub const MAGIC: [u8; 8] = *b"MLACKPT\n";

/// The container format version this build writes; [`open`] also reads
/// versions 1 and 2, whose bodies the session and server decoders still
/// parse.
pub const VERSION: u32 = 3;

/// The oldest container format version this build reads.
const OLDEST_VERSION: u32 = 1;

/// Size of the fixed header preceding the body.
const HEADER_LEN: usize = 8 + 4 + 8 + 8;

/// Why a checkpoint failed to open or decode. Ordered by how early the
/// container validation detects each condition.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// The input ended before the header or the declared body.
    Truncated,
    /// The first 8 bytes are not the checkpoint magic — this is not a
    /// checkpoint file at all.
    BadMagic,
    /// The container declares a format version this build cannot read.
    UnsupportedVersion {
        /// The version the container declared.
        found: u32,
    },
    /// The body does not match its recorded CRC-64 — bit rot or
    /// tampering.
    ChecksumMismatch,
    /// The envelope validated but the body's structural decode failed.
    Malformed {
        /// What the body decoder rejected.
        context: String,
    },
}

impl CheckpointError {
    /// Convenience constructor for [`CheckpointError::Malformed`].
    #[must_use]
    pub fn malformed(context: impl Into<String>) -> Self {
        CheckpointError::Malformed {
            context: context.into(),
        }
    }
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Truncated => write!(f, "checkpoint truncated"),
            CheckpointError::BadMagic => write!(f, "not a checkpoint (bad magic)"),
            CheckpointError::UnsupportedVersion { found } => {
                write!(
                    f,
                    "unsupported checkpoint version {found} \
                     (this build reads {OLDEST_VERSION} to {VERSION})"
                )
            }
            CheckpointError::ChecksumMismatch => {
                write!(f, "checkpoint checksum mismatch (corrupted body)")
            }
            CheckpointError::Malformed { context } => {
                write!(f, "malformed checkpoint body: {context}")
            }
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<CodecError> for CheckpointError {
    fn from(err: CodecError) -> Self {
        match err {
            // A body that ends mid-field is indistinguishable from a
            // truncated file to the caller; report it as such.
            CodecError::Truncated { .. } => CheckpointError::Truncated,
            other => CheckpointError::malformed(other.to_string()),
        }
    }
}

/// Seals `body` in the container envelope: magic, version, length,
/// CRC-64, body.
#[must_use]
pub fn seal(body: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + body.len());
    out.extend_from_slice(&MAGIC);
    out.extend_from_slice(&VERSION.to_le_bytes());
    out.extend_from_slice(&(body.len() as u64).to_le_bytes());
    out.extend_from_slice(&crc64(body).to_le_bytes());
    out.extend_from_slice(body);
    out
}

/// Validates the envelope and returns its format version and body slice.
///
/// Checks run in a fixed order so each corruption class maps to one
/// error: length of the header ([`CheckpointError::Truncated`]), magic
/// ([`CheckpointError::BadMagic`]), version
/// ([`CheckpointError::UnsupportedVersion`]), body length (truncated or
/// trailing garbage), CRC ([`CheckpointError::ChecksumMismatch`]).
///
/// # Errors
///
/// Any [`CheckpointError`] except `Malformed` — structural validation of
/// the body is the caller's concern.
pub fn open(bytes: &[u8]) -> Result<(u32, &[u8]), CheckpointError> {
    if bytes.len() < HEADER_LEN {
        // Magic outranks length for clearly-foreign input: a short file
        // that does not even start with the magic is "not a checkpoint",
        // not "a truncated one".
        if bytes.len() >= MAGIC.len() && bytes[..MAGIC.len()] != MAGIC {
            return Err(CheckpointError::BadMagic);
        }
        return Err(CheckpointError::Truncated);
    }
    if bytes[..8] != MAGIC {
        return Err(CheckpointError::BadMagic);
    }
    // mla-lint: allow(panic-safety): slice bounds checked above (len >= HEADER_LEN)
    let version = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
    if !(OLDEST_VERSION..=VERSION).contains(&version) {
        return Err(CheckpointError::UnsupportedVersion { found: version });
    }
    // mla-lint: allow(panic-safety): slice bounds checked above (len >= HEADER_LEN)
    let body_len = u64::from_le_bytes(bytes[12..20].try_into().expect("8-byte slice"));
    // mla-lint: allow(panic-safety): slice bounds checked above (len >= HEADER_LEN)
    let expect_crc = u64::from_le_bytes(bytes[20..28].try_into().expect("8-byte slice"));
    let Ok(body_len) = usize::try_from(body_len) else {
        return Err(CheckpointError::Truncated);
    };
    let body = &bytes[HEADER_LEN..];
    if body.len() < body_len {
        return Err(CheckpointError::Truncated);
    }
    if body.len() > body_len {
        // Trailing bytes past the declared body: the file was appended
        // to or mis-spliced; the checksum only covers the declared
        // prefix, so refuse rather than silently ignore the tail.
        return Err(CheckpointError::malformed(format!(
            "{} bytes past the declared body",
            body.len() - body_len
        )));
    }
    if crc64(body) != expect_crc {
        return Err(CheckpointError::ChecksumMismatch);
    }
    Ok((version, body))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_open_roundtrips() {
        let body = b"session bytes".to_vec();
        let sealed = seal(&body);
        assert_eq!(open(&sealed).unwrap(), (VERSION, &body[..]));
        // Empty bodies are legal.
        let sealed = seal(&[]);
        assert_eq!(open(&sealed).unwrap(), (VERSION, &[] as &[u8]));
        // A version-1 envelope still opens and says so.
        let mut v1 = seal(&body);
        v1[8..12].copy_from_slice(&1u32.to_le_bytes());
        assert_eq!(open(&v1).unwrap(), (1, &body[..]));
    }

    #[test]
    fn every_corruption_class_maps_to_its_error() {
        let sealed = seal(b"payload");

        // Truncation at every prefix length: Truncated (or BadMagic once
        // the magic itself is cut short — never a panic).
        for len in 0..sealed.len() {
            let err = open(&sealed[..len]).unwrap_err();
            assert!(
                matches!(
                    err,
                    CheckpointError::Truncated | CheckpointError::ChecksumMismatch
                ),
                "prefix {len}: {err}"
            );
        }

        let mut bad_magic = sealed.clone();
        bad_magic[0] ^= 0xFF;
        assert_eq!(open(&bad_magic).unwrap_err(), CheckpointError::BadMagic);

        for found in [0u32, 4, 99] {
            let mut unsupported = sealed.clone();
            unsupported[8..12].copy_from_slice(&found.to_le_bytes());
            let err = open(&unsupported).unwrap_err();
            assert_eq!(err, CheckpointError::UnsupportedVersion { found });
            assert!(
                err.to_string().ends_with("(this build reads 1 to 3)"),
                "{err}"
            );
        }

        let mut flipped = sealed.clone();
        let last = flipped.len() - 1;
        flipped[last] ^= 0x01;
        assert_eq!(
            open(&flipped).unwrap_err(),
            CheckpointError::ChecksumMismatch
        );

        let mut trailing = sealed;
        trailing.push(0);
        assert!(matches!(
            open(&trailing).unwrap_err(),
            CheckpointError::Malformed { .. }
        ));

        assert_eq!(open(b"MLAC").unwrap_err(), CheckpointError::Truncated);
        assert_eq!(
            open(b"not a checkpoint").unwrap_err(),
            CheckpointError::BadMagic
        );
    }
}
