//! A minimal HTTP/1.1 layer over `std::net` — just enough protocol for
//! the simulation service and its load generator.
//!
//! The build environment has no registry access, so instead of a web
//! framework the service speaks a deliberately small, strictly validated
//! subset of HTTP/1.1: `GET`/`POST`, `Content-Length` bodies on both
//! sides, persistent connections by default, and `chunked`
//! transfer-encoding for the one endpoint that streams (`/stream/<job>`).
//! Requests that exceed the hard limits below are rejected rather than
//! buffered — the daemon is meant to sit under sustained load.

use std::io::{self, BufRead, Read, Write};

/// Upper bound on a start line or any single header line, bytes.
pub const MAX_LINE: usize = 8 * 1024;

/// Upper bound on the number of headers in a request or response.
pub const MAX_HEADERS: usize = 64;

/// Upper bound on a `Content-Length` body (specs and summaries are tiny).
pub const MAX_BODY: usize = 1024 * 1024;

/// One parsed request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// Request method, uppercase as received (`GET`, `POST`).
    pub method: String,
    /// Request target as received (`/status/3`).
    pub target: String,
    /// Header name/value pairs; names lowercased, values trimmed.
    pub headers: Vec<(String, String)>,
    /// Request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
}

impl Request {
    /// First header value for `name` (lowercase), if present.
    pub fn header(&self, name: &str) -> Option<&str> {
        header(&self.headers, name)
    }

    /// Whether the client asked to drop the connection after this
    /// exchange.
    pub fn wants_close(&self) -> bool {
        self.header("connection")
            .is_some_and(|v| v.eq_ignore_ascii_case("close"))
    }
}

/// An `InvalidData` error: the peer broke the protocol.
pub(crate) fn invalid(message: impl std::fmt::Display) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Reads one CRLF- (or bare-LF-) terminated line, enforcing [`MAX_LINE`];
/// EOF before any byte is an `UnexpectedEof` error.
pub(crate) fn read_line<R: BufRead>(reader: &mut R) -> io::Result<String> {
    let mut line = Vec::new();
    // One byte past the bound tells a line of MAX_LINE bytes from a longer one.
    let limit = MAX_LINE as u64 + 1;
    if reader.by_ref().take(limit).read_until(b'\n', &mut line)? == 0 {
        return Err(io::ErrorKind::UnexpectedEof.into());
    }
    if line.last() == Some(&b'\n') {
        line.pop();
    } else if line.len() > MAX_LINE {
        return Err(invalid("header line too long"));
    }
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    String::from_utf8(line).map_err(|_| invalid("non-UTF-8 header line"))
}

/// Reads a header block through its blank line, enforcing [`MAX_LINE`]
/// and [`MAX_HEADERS`]; names are lowercased and values trimmed.
pub(crate) fn read_headers<R: BufRead>(reader: &mut R) -> io::Result<Vec<(String, String)>> {
    let mut headers = Vec::new();
    loop {
        let line = read_line(reader)?;
        if line.is_empty() {
            return Ok(headers);
        }
        if headers.len() >= MAX_HEADERS {
            return Err(invalid("too many headers"));
        }
        let (name, value) = line
            .split_once(':')
            .ok_or_else(|| invalid(format!("malformed header: {line:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
}

/// First value of header `name` (lowercase) in a parsed block.
pub(crate) fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}

/// Reads the `Content-Length` body after a header block (none without
/// the header), enforcing [`MAX_BODY`].
pub(crate) fn read_body<R: BufRead>(
    reader: &mut R,
    headers: &[(String, String)],
) -> io::Result<Vec<u8>> {
    let length = header(headers, "content-length").map_or(Ok(0), |v| {
        v.parse().map_err(|_| invalid("bad content-length"))
    })?;
    if length > MAX_BODY {
        return Err(invalid("body too large"));
    }
    let mut body = vec![0; length];
    reader.read_exact(&mut body)?;
    Ok(body)
}

/// Parses one request off the connection. `Ok(None)` means the peer
/// closed cleanly between requests (the keep-alive loop's exit).
///
/// # Errors
///
/// I/O failures, malformed request lines/headers, and requests exceeding
/// [`MAX_LINE`] / [`MAX_HEADERS`] / [`MAX_BODY`] all surface as
/// [`io::Error`]; the caller drops the connection.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<Option<Request>> {
    if reader.fill_buf()?.is_empty() {
        return Ok(None);
    }
    let request_line = read_line(reader)?;
    let mut parts = request_line.split_ascii_whitespace();
    let (method, target, version) = match (parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(t), Some(v)) if parts.next().is_none() => (m, t, v),
        _ => return Err(invalid(format!("malformed request line: {request_line:?}"))),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(invalid(format!("unsupported protocol version: {version}")));
    }
    let headers = read_headers(reader)?;
    let body = read_body(reader, &headers)?;
    Ok(Some(Request {
        method: method.to_string(),
        target: target.to_string(),
        headers,
        body,
    }))
}

/// Canonical reason phrase for the status codes the service emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

/// How one response goes out on its connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reply {
    /// Close the connection after this response.
    pub close: bool,
    /// The request was a `HEAD`: the reply is the status line and headers
    /// only, since a client reads no body after a `HEAD`.
    pub head: bool,
}

/// Writes a complete `Content-Length` response and flushes. A reply to a
/// `HEAD` keeps the `Content-Length` of `body` but leaves the body out.
///
/// # Errors
///
/// Propagates socket write failures.
pub fn write_response<W: Write>(
    writer: &mut W,
    status: u16,
    content_type: &str,
    body: &[u8],
    reply: Reply,
) -> io::Result<()> {
    let connection = if reply.close { "close" } else { "keep-alive" };
    write!(
        writer,
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {connection}\r\n\r\n",
        reason(status),
        body.len(),
    )?;
    if !reply.head {
        writer.write_all(body)?;
    }
    writer.flush()
}

/// Incremental writer for one `Transfer-Encoding: chunked` response body.
///
/// Construction writes the response head; [`ChunkedWriter::finish`]
/// writes the terminating zero-length chunk. Each chunk is flushed
/// immediately — the stream endpoint's whole point is that rows arrive
/// while the simulation is still running.
pub struct ChunkedWriter<'a, W: Write> {
    writer: &'a mut W,
}

impl<'a, W: Write> ChunkedWriter<'a, W> {
    /// Starts a chunked response with status 200.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn start(writer: &'a mut W, content_type: &str, close: bool) -> io::Result<Self> {
        let connection = if close { "close" } else { "keep-alive" };
        write!(
            writer,
            "HTTP/1.1 200 OK\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: {connection}\r\n\r\n",
        )?;
        writer.flush()?;
        Ok(Self { writer })
    }

    /// Writes one non-empty chunk and flushes it to the peer.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.writer, "{:x}\r\n", data.len())?;
        self.writer.write_all(data)?;
        self.writer.write_all(b"\r\n")?;
        self.writer.flush()
    }

    /// Terminates the chunked body.
    ///
    /// # Errors
    ///
    /// Propagates socket write failures.
    pub fn finish(self) -> io::Result<()> {
        self.writer.write_all(b"0\r\n\r\n")?;
        self.writer.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufReader, Read};

    #[test]
    fn parses_a_post_with_body_and_headers() {
        let raw = b"POST /submit HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"a\"GET /next";
        let mut reader = BufReader::new(&raw[..]);
        let req = read_request(&mut reader).unwrap().unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.target, "/submit");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"{\"a\"");
        assert!(!req.wants_close());
        // The next request's bytes are still in the reader (keep-alive).
        let mut rest = Vec::new();
        reader.read_to_end(&mut rest).unwrap();
        assert_eq!(rest, b"GET /next");
    }

    #[test]
    fn clean_eof_between_requests_is_none() {
        let mut reader = BufReader::new(&b""[..]);
        assert!(read_request(&mut reader).unwrap().is_none());
    }

    #[test]
    fn rejects_malformed_and_oversized_requests() {
        for raw in [
            &b"GARBAGE\r\n\r\n"[..],
            &b"GET /x SPDY/3\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nno-colon-here\r\n\r\n"[..],
            &b"GET /x HTTP/1.1\r\nContent-Length: nope\r\n\r\n"[..],
            &b"POST /x HTTP/1.1\r\nContent-Length: 999999999\r\n\r\n"[..],
        ] {
            let mut reader = BufReader::new(raw);
            assert!(read_request(&mut reader).is_err(), "{raw:?}");
        }
    }

    #[test]
    fn response_and_chunked_wire_formats() {
        let mut out = Vec::new();
        let reply = Reply {
            close: true,
            head: false,
        };
        write_response(&mut out, 404, "text/plain", b"nope", reply).unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.starts_with("HTTP/1.1 404 Not Found\r\n"));
        assert!(text.contains("Content-Length: 4\r\n"));
        assert!(text.contains("Connection: close\r\n"));
        assert!(text.ends_with("\r\n\r\nnope"));

        let mut out = Vec::new();
        let mut chunked = ChunkedWriter::start(&mut out, "text/csv", false).unwrap();
        chunked.write_chunk(b"row1\n").unwrap();
        chunked.write_chunk(b"").unwrap();
        chunked.write_chunk(b"row2\n").unwrap();
        chunked.finish().unwrap();
        let text = String::from_utf8(out).unwrap();
        assert!(text.contains("Transfer-Encoding: chunked\r\n"));
        assert!(text.ends_with("5\r\nrow1\n\r\n5\r\nrow2\n\r\n0\r\n\r\n"));
    }
}
