//! Length-prefixed JSON framing for the serving wire protocol.
//!
//! One frame is an ASCII decimal byte length, a newline, exactly that
//! many payload bytes (a JSON document), and a trailing newline:
//!
//! ```text
//! 21\n{"op":"open","n":64}\n
//! ```
//!
//! The explicit length makes framing independent of the payload (JSON
//! may contain escaped newlines; pretty-printed documents span many),
//! while the two newlines keep the stream greppable and hand-typeable.
//! Readers are bounds-checked everywhere: oversized declarations,
//! truncated payloads and malformed JSON all surface as structured
//! [`WireError`]s, never panics or unbounded allocations.

use std::fmt;
use std::io::{BufRead, Read, Write};

use crate::json::{Json, JsonError};

/// Frames larger than this are rejected before any payload allocation —
/// the length header is attacker-controlled input.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Longest accepted length header, newline included. The decimal length
/// of any frame up to [`MAX_FRAME_LEN`] fits with room to spare, so a
/// longer header is malformed and is rejected without being buffered.
const MAX_HEADER_LEN: u64 = 32;

/// A framing or payload failure on the wire.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The length header was not a newline-terminated decimal integer
    /// of at most 32 bytes, or exceeded [`MAX_FRAME_LEN`].
    BadHeader(String),
    /// The stream ended inside a declared payload.
    Truncated,
    /// The payload was not valid JSON.
    Json(JsonError),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(err) => write!(f, "wire i/o error: {err}"),
            WireError::BadHeader(context) => write!(f, "bad frame header: {context}"),
            WireError::Truncated => write!(f, "frame truncated mid-payload"),
            WireError::Json(err) => write!(f, "frame payload: {err}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(err: std::io::Error) -> Self {
        WireError::Io(err)
    }
}

impl From<JsonError> for WireError {
    fn from(err: JsonError) -> Self {
        WireError::Json(err)
    }
}

/// Writes one frame and flushes the stream.
///
/// # Errors
///
/// [`WireError::Io`] if the stream fails.
pub fn write_frame(w: &mut impl Write, message: &Json) -> Result<(), WireError> {
    let payload = message.render_compact();
    write!(w, "{}\n{}\n", payload.len(), payload)?;
    w.flush()?;
    Ok(())
}

/// Reads one frame; `Ok(None)` on a clean end of stream (EOF before any
/// header byte).
///
/// # Errors
///
/// [`WireError`] on malformed headers, truncated payloads, stream
/// failures or invalid JSON.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Json>, WireError> {
    let mut header = String::new();
    if Read::take(&mut *r, MAX_HEADER_LEN).read_line(&mut header)? == 0 {
        return Ok(None);
    }
    if !header.ends_with('\n') {
        return Err(WireError::BadHeader(format!(
            "length header unterminated within {MAX_HEADER_LEN} bytes"
        )));
    }
    let trimmed = header.trim();
    if trimmed.is_empty() {
        return Err(WireError::BadHeader("empty length header".to_owned()));
    }
    let len: usize = trimmed
        .parse()
        .map_err(|_| WireError::BadHeader(format!("non-numeric length {trimmed:?}")))?;
    if len > MAX_FRAME_LEN {
        return Err(WireError::BadHeader(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME_LEN}-byte cap"
        )));
    }
    // +1 for the trailing newline after the payload.
    let mut payload = vec![0u8; len + 1];
    let mut read = 0;
    while read < payload.len() {
        let got = r.read(&mut payload[read..])?;
        if got == 0 {
            return Err(WireError::Truncated);
        }
        read += got;
    }
    if payload[len] != b'\n' {
        return Err(WireError::BadHeader(
            "payload not terminated by a newline".to_owned(),
        ));
    }
    let text = std::str::from_utf8(&payload[..len]).map_err(|_| {
        WireError::Json(JsonError {
            offset: 0,
            message: "payload is not UTF-8".to_owned(),
        })
    })?;
    Ok(Some(Json::parse(text)?))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn frames_roundtrip() {
        let messages = [
            Json::object().field("op", "open").field("n", 64u64),
            Json::Null,
            Json::Array(vec![Json::UInt(1), Json::Str("x\ny".to_owned())]),
        ];
        let mut buf = Vec::new();
        for m in &messages {
            write_frame(&mut buf, m).unwrap();
        }
        let mut r = Cursor::new(buf);
        for m in &messages {
            assert_eq!(read_frame(&mut r).unwrap().as_ref(), Some(m));
        }
        assert!(read_frame(&mut r).unwrap().is_none());
    }

    type ErrCheck = fn(&WireError) -> bool;

    #[test]
    fn malformed_frames_are_structured_errors() {
        let cases: [(&[u8], ErrCheck); 7] = [
            (b"abc\n{}\n", |e| matches!(e, WireError::BadHeader(_))),
            (b"\n", |e| matches!(e, WireError::BadHeader(_))),
            (b"10\n{}\n", |e| matches!(e, WireError::Truncated)),
            (b"2\n{]\n", |e| matches!(e, WireError::Json(_))),
            (b"999999999999999999\n", |e| {
                matches!(e, WireError::BadHeader(_))
            }),
            // Digits past the header cap, and a header cut off by EOF.
            (b"000000000000000000000000000000002\n{}\n", |e| {
                matches!(e, WireError::BadHeader(_))
            }),
            (b"2", |e| matches!(e, WireError::BadHeader(_))),
        ];
        for (bytes, check) in cases {
            let err = read_frame(&mut Cursor::new(bytes.to_vec())).unwrap_err();
            assert!(check(&err), "{bytes:?} -> {err}");
        }
    }

    #[test]
    fn missing_terminator_is_rejected() {
        // Correct length, but the byte after the payload is not '\n'.
        let err = read_frame(&mut Cursor::new(b"2\n{}X".to_vec())).unwrap_err();
        assert!(matches!(err, WireError::BadHeader(_)), "{err}");
    }
}
