//! Length-prefixed JSON framing for the serving wire protocol.
//!
//! One frame is a length header, a newline, exactly that many payload
//! bytes (a JSON document), and a trailing newline:
//!
//! ```text
//! 21\n{"op":"open","n":64}\n
//! ```
//!
//! The header is one or more ASCII decimal digits (leading zeros
//! allowed) and nothing else: no sign, whitespace or `\r`. With its
//! newline it spans at most 32 bytes, and it declares at most
//! [`MAX_FRAME_LEN`] bytes. Any other header is [`WireError::BadHeader`].
//!
//! The explicit length makes framing independent of the payload (JSON
//! may contain escaped newlines; pretty-printed documents span many),
//! while the two newlines keep the stream greppable and hand-typeable.
//! Readers are bounds-checked everywhere: oversized declarations,
//! truncated payloads and malformed JSON all surface as structured
//! [`WireError`]s, never panics or unbounded allocations.
//!
//! [`read_frame_with`] reads every frame, handing its payload to the
//! caller in place when the reader's buffer holds all of it, and
//! [`read_frame`] is that plus [`parse_payload`]. [`buffered_frame`]
//! tells a server whether the next frame is buffered, so reading it
//! cannot block.

use std::fmt;
use std::io::{self, BufRead, Read, Write};

use crate::json::{Json, JsonError};

/// Frames larger than this are rejected before any payload allocation —
/// the length header is attacker-controlled input.
pub const MAX_FRAME_LEN: usize = 64 * 1024 * 1024;

/// Longest accepted length header, newline included. The decimal length
/// of any frame up to [`MAX_FRAME_LEN`] fits with room to spare, so a
/// longer header is malformed and is rejected without being buffered.
const MAX_HEADER_LEN: usize = 32;

/// A framing or payload failure on the wire.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// The underlying stream failed.
    Io(std::io::Error),
    /// The length header was outside the grammar of the module docs,
    /// or the byte after the payload was not a newline.
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

/// Writes one frame without flushing, so a server can hold responses
/// in a buffered writer; [`write_frame`] is this plus the flush.
///
/// # Errors
///
/// [`WireError::Io`] if the stream fails.
pub fn put_frame(w: &mut impl Write, message: &Json) -> Result<(), WireError> {
    let payload = message.render_compact();
    write!(w, "{}\n{}\n", payload.len(), payload)?;
    Ok(())
}

/// Writes one frame and flushes the stream.
///
/// # Errors
///
/// [`WireError::Io`] if the stream fails.
pub fn write_frame(w: &mut impl Write, message: &Json) -> Result<(), WireError> {
    put_frame(w, message)?;
    w.flush()?;
    Ok(())
}

/// The frame at the start of `buf`, a reader's buffered bytes, when
/// `buf` holds all of it: `Some((header_len, payload_len))`, the header's
/// newline counted in `header_len`, so the frame spans
/// `header_len + payload_len + 1` bytes. `None` while the frame runs
/// past the end of `buf`, and for a header outside the grammar.
#[must_use]
pub fn buffered_frame(buf: &[u8]) -> Option<(usize, usize)> {
    let newline = buf
        .iter()
        .take(MAX_HEADER_LEN)
        .position(|&byte| byte == b'\n')?;
    let len = declared_len(&buf[..newline]).ok()?;
    (buf.len() > newline + 1 + len).then_some((newline + 1, len))
}

/// The payload length that a header declares, its newline left off.
fn declared_len(digits: &[u8]) -> Result<usize, WireError> {
    let header = || String::from_utf8_lossy(digits);
    if digits.is_empty() {
        return Err(WireError::BadHeader("empty length header".to_owned()));
    }
    if !digits.iter().all(u8::is_ascii_digit) {
        return Err(WireError::BadHeader(format!(
            "non-numeric length \"{}\"",
            header()
        )));
    }
    let len = digits.iter().fold(0usize, |len, &digit| {
        len.saturating_mul(10)
            .saturating_add(usize::from(digit - b'0'))
    });
    if len > MAX_FRAME_LEN {
        return Err(WireError::BadHeader(format!(
            "frame of {} bytes exceeds the {MAX_FRAME_LEN}-byte cap",
            header()
        )));
    }
    Ok(len)
}

/// `f` of the payload that ends `frame`, once the byte after it is
/// checked to be the frame's closing newline.
fn terminated<T>(frame: &[u8], f: impl FnOnce(&[u8]) -> T) -> Result<T, WireError> {
    match frame.split_last() {
        Some((b'\n', payload)) => Ok(f(payload)),
        _ => Err(WireError::BadHeader(
            "payload not terminated by a newline".to_owned(),
        )),
    }
}

/// Reads one frame and returns what `f` makes of its payload bytes;
/// `Ok(None)` on a clean end of stream (EOF before any header byte).
///
/// Interrupted reads are retried. A frame that `r`'s buffer holds whole
/// is handed to `f` where it lies and then consumed; any other frame is
/// copied out first. Either way the payload is consumed or dropped
/// before this returns.
///
/// # Errors
///
/// [`WireError`] on malformed headers, truncated payloads or stream
/// failures.
pub fn read_frame_with<R, T>(r: &mut R, f: impl FnOnce(&[u8]) -> T) -> Result<Option<T>, WireError>
where
    R: BufRead + ?Sized,
{
    let buf = loop {
        match r.fill_buf() {
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            filled => break filled?,
        }
    };
    if buf.is_empty() {
        return Ok(None);
    }
    if let Some((header, len)) = buffered_frame(buf) {
        let value = terminated(&buf[header..=header + len], f)?;
        r.consume(header + len + 1);
        return Ok(Some(value));
    }
    let mut header = Vec::new();
    Read::take(&mut *r, MAX_HEADER_LEN as u64).read_until(b'\n', &mut header)?;
    let Some(digits) = header.strip_suffix(b"\n") else {
        return Err(WireError::BadHeader(format!(
            "length header unterminated within {MAX_HEADER_LEN} bytes"
        )));
    };
    // +1 for the trailing newline after the payload.
    let mut frame = vec![0u8; declared_len(digits)? + 1];
    r.read_exact(&mut frame).map_err(|err| match err.kind() {
        io::ErrorKind::UnexpectedEof => WireError::Truncated,
        _ => WireError::Io(err),
    })?;
    terminated(&frame, f).map(Some)
}

/// Reads one frame and parses its payload; `Ok(None)` on a clean end of
/// stream (EOF before any header byte).
///
/// # Errors
///
/// [`WireError`] on malformed headers, truncated payloads, stream
/// failures or invalid JSON.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Json>, WireError> {
    read_frame_with(r, parse_payload)?.transpose()
}

/// Parses a frame's payload bytes as one JSON document.
///
/// # Errors
///
/// [`WireError::Json`] if the bytes are not UTF-8 or not one JSON
/// document.
pub fn parse_payload(payload: &[u8]) -> Result<Json, WireError> {
    let text = std::str::from_utf8(payload).map_err(|_| {
        WireError::Json(JsonError {
            offset: 0,
            message: "payload is not UTF-8".to_owned(),
        })
    })?;
    Ok(Json::parse(text)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    /// `bytes` behind readers of every shape: a slice, which holds each
    /// frame whole and so takes the in-place path, and `BufReader`s so
    /// small that frames straddle their refills (`Some(capacity)`).
    fn readers(bytes: &[u8]) -> Vec<(Option<usize>, Box<dyn BufRead + '_>)> {
        let mut readers: Vec<(Option<usize>, Box<dyn BufRead + '_>)> =
            vec![(None, Box::new(bytes))];
        for capacity in [1, 2, 7, 64] {
            readers.push((
                Some(capacity),
                Box::new(BufReader::with_capacity(capacity, bytes)),
            ));
        }
        readers
    }

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
        for (capacity, mut r) in readers(&buf) {
            for m in &messages {
                assert_eq!(
                    read_frame(&mut r).unwrap().as_ref(),
                    Some(m),
                    "{capacity:?}"
                );
            }
            assert!(read_frame(&mut r).unwrap().is_none(), "{capacity:?}");
        }
    }

    type ErrCheck = fn(&WireError) -> bool;

    #[test]
    fn malformed_frames_are_structured_errors() {
        let cases: [(&[u8], ErrCheck); 13] = [
            (b"abc\n{}\n", |e| matches!(e, WireError::BadHeader(_))),
            (b"\n", |e| matches!(e, WireError::BadHeader(_))),
            // A sign, a space or a carriage return: digits only.
            (b"+2\n{}\n", |e| matches!(e, WireError::BadHeader(_))),
            (b" 2\n{}\n", |e| matches!(e, WireError::BadHeader(_))),
            (b"2\r\n{}\n", |e| matches!(e, WireError::BadHeader(_))),
            // Header bytes that are not UTF-8.
            (b"\xff\n{}\n", |e| matches!(e, WireError::BadHeader(_))),
            (b"2\xff\n{}\n", |e| matches!(e, WireError::BadHeader(_))),
            (b"10\n{}\n", |e| matches!(e, WireError::Truncated)),
            (b"2\n{]\n", |e| matches!(e, WireError::Json(_))),
            (b"2\n\xff\xfe\n", |e| matches!(e, WireError::Json(_))),
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
            for (capacity, mut r) in readers(bytes) {
                let err = read_frame(&mut r).unwrap_err();
                assert!(check(&err), "{bytes:?} via {capacity:?} -> {err}");
            }
        }
    }

    #[test]
    fn a_non_numeric_length_is_quoted_as_sent() {
        // A zero-width space between the digits: the message quotes the
        // header's characters, not their Rust escapes.
        for (capacity, mut r) in readers("1\u{200b}2\n{}\n".as_bytes()) {
            let err = read_frame(&mut r).unwrap_err();
            assert_eq!(
                err.to_string(),
                "bad frame header: non-numeric length \"1\u{200b}2\"",
                "{capacity:?}"
            );
        }
    }

    #[test]
    fn missing_terminator_is_rejected() {
        // Correct length, but the byte after the payload is not '\n'.
        for (capacity, mut r) in readers(b"2\n{}X") {
            let err = read_frame(&mut r).unwrap_err();
            assert!(
                matches!(err, WireError::BadHeader(_)),
                "{capacity:?}: {err}"
            );
        }
    }

    #[test]
    fn a_bad_json_frame_leaves_the_next_frame_readable() {
        let mut bytes = b"2\n{]\n".to_vec();
        write_frame(&mut bytes, &Json::UInt(7)).unwrap();
        for (capacity, mut r) in readers(&bytes) {
            let err = read_frame(&mut r).unwrap_err();
            assert!(matches!(err, WireError::Json(_)), "{capacity:?}: {err}");
            assert_eq!(
                read_frame(&mut r).unwrap(),
                Some(Json::UInt(7)),
                "{capacity:?}"
            );
            assert!(read_frame(&mut r).unwrap().is_none(), "{capacity:?}");
        }
    }

    #[test]
    fn buffered_frame_needs_the_whole_frame() {
        assert_eq!(buffered_frame(b"2\n{}\n"), Some((2, 2)));
        assert_eq!(buffered_frame(b"02\n{}\n7\n"), Some((3, 2)));
        assert_eq!(buffered_frame(b"0\n\n"), Some((2, 0)));
        // Cut off inside the header, the payload or before the terminator.
        for partial in [&b""[..], b"2", b"2\n", b"2\n{}"] {
            assert_eq!(buffered_frame(partial), None, "{partial:?}");
        }
    }
}
