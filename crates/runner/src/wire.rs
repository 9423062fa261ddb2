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
//!
//! A frame that a reader already holds whole in its buffer is parsed
//! where it lies; [`buffered_frame`] tells a server whether the next
//! frame is there, so reading it cannot block, and [`fill_payload`]
//! hands out such a frame's payload bytes for a server to read itself.

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
    /// The length header was not a newline-terminated decimal integer
    /// of at most 32 bytes (non-UTF-8 bytes included), or exceeded
    /// [`MAX_FRAME_LEN`].
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
/// past the end of `buf`, and for a header that is not plain decimal
/// digits within the caps; [`read_frame`] judges those.
#[must_use]
pub fn buffered_frame(buf: &[u8]) -> Option<(usize, usize)> {
    let newline = buf
        .iter()
        .take(MAX_HEADER_LEN)
        .position(|&byte| byte == b'\n')?;
    let digits = &buf[..newline];
    if digits.is_empty() || !digits.iter().all(u8::is_ascii_digit) {
        return None;
    }
    let len = digits.iter().try_fold(0usize, |len, &digit| {
        len.checked_mul(10)?.checked_add(usize::from(digit - b'0'))
    })?;
    (len <= MAX_FRAME_LEN && buf.len() > newline + 1 + len).then_some((newline + 1, len))
}

/// Fills `r`'s buffer if it is empty, retrying interrupted reads, and
/// returns the payload of the frame at its start when the buffer holds
/// that whole frame and its terminating newline: `Some((payload,
/// frame_len))`, where `frame_len` is what to [`BufRead::consume`] once
/// the payload has been read. `None` when the frame runs past the
/// buffer, its header is not one [`buffered_frame`] accepts, or its
/// terminator is wrong; [`read_frame`] reads those and judges them.
///
/// # Errors
///
/// The stream's error if filling the buffer fails.
pub fn fill_payload<R: BufRead + ?Sized>(r: &mut R) -> io::Result<Option<(&[u8], usize)>> {
    loop {
        match r.fill_buf() {
            Ok([]) => return Ok(None),
            Ok(_) => break,
            Err(err) if err.kind() == io::ErrorKind::Interrupted => {}
            Err(err) => return Err(err),
        }
    }
    // The buffer is not empty, so this hands it out without reading.
    let buf = r.fill_buf()?;
    Ok(buffered_frame(buf).and_then(|(header, len)| {
        let end = header + len;
        (buf.get(end) == Some(&b'\n')).then(|| (&buf[header..end], end + 1))
    }))
}

/// Reads one frame; `Ok(None)` on a clean end of stream (EOF before any
/// header byte).
///
/// A frame the reader holds whole in its buffer ([`fill_payload`]) is
/// parsed in place. One that straddles a refill, exceeds the buffer or
/// is malformed is read by copying its header and payload out, which
/// reports every error.
///
/// # Errors
///
/// [`WireError`] on malformed headers, truncated payloads, stream
/// failures or invalid JSON.
pub fn read_frame(r: &mut impl BufRead) -> Result<Option<Json>, WireError> {
    if let Some((payload, frame_len)) = fill_payload(r)? {
        let parsed = parse_payload(payload);
        r.consume(frame_len);
        return parsed.map(Some);
    }
    let mut header = Vec::new();
    if Read::take(&mut *r, MAX_HEADER_LEN as u64).read_until(b'\n', &mut header)? == 0 {
        return Ok(None);
    }
    if header.last() != Some(&b'\n') {
        return Err(WireError::BadHeader(format!(
            "length header unterminated within {MAX_HEADER_LEN} bytes"
        )));
    }
    let header = String::from_utf8_lossy(&header);
    let trimmed = header.trim();
    if trimmed.is_empty() {
        return Err(WireError::BadHeader("empty length header".to_owned()));
    }
    let len: usize = trimmed
        .parse()
        .map_err(|_| WireError::BadHeader(format!("non-numeric length \"{trimmed}\"")))?;
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
    Ok(Some(parse_payload(&payload[..len])?))
}

/// Parses a frame's payload bytes as one JSON document.
fn parse_payload(payload: &[u8]) -> Result<Json, WireError> {
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
        let cases: [(&[u8], ErrCheck); 10] = [
            (b"abc\n{}\n", |e| matches!(e, WireError::BadHeader(_))),
            (b"\n", |e| matches!(e, WireError::BadHeader(_))),
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
        // Headers that are not plain digits are left to `read_frame`.
        for odd in [
            &b"+2\n{}\n"[..],
            b" 2\n{}\n",
            b"\n{}\n",
            b"99999999999999999999999\n",
        ] {
            assert_eq!(buffered_frame(odd), None, "{odd:?}");
        }
    }
}
