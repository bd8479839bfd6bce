//! A minimal blocking HTTP/1.1 client for the service's own tests, CI
//! smoke checks and perfbench's `serve_mixed` workload.
//!
//! Speaks exactly the subset the server does: keep-alive connections,
//! `Content-Length` bodies, and `chunked` decoding for `/stream`. One
//! reconnect is attempted per request so a server-side `Connection:
//! close` (e.g. the `/shutdown` acknowledgement) does not strand the
//! client.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use crate::http::{header, invalid, read_body, read_headers, read_line};

/// One parsed response.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response {
    /// Status code.
    pub status: u16,
    /// Header name/value pairs; names lowercased.
    pub headers: Vec<(String, String)>,
    /// Decoded body (chunked bodies are reassembled).
    pub body: Vec<u8>,
}

impl Response {
    /// The body as UTF-8 (lossy).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }

    /// The value of top-level field `key` of a JSON object body (the
    /// service's responses are all single-level objects).
    fn json_field(&self, key: &str) -> Option<serde::Value> {
        match serde_json::from_str(self.text().trim()).ok()? {
            serde::Value::Object(fields) => fields
                .into_iter()
                .find(|(name, _)| name == key)
                .map(|(_, value)| value),
            _ => None,
        }
    }

    /// Extracts a string field from a flat JSON object body.
    pub fn json_str(&self, key: &str) -> Option<String> {
        match self.json_field(key)? {
            serde::Value::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Extracts an unsigned integer field from a flat JSON object body.
    pub fn json_u64(&self, key: &str) -> Option<u64> {
        match self.json_field(key)? {
            serde::Value::UInt(n) => Some(n),
            serde::Value::Int(n) => u64::try_from(n).ok(),
            _ => None,
        }
    }

    /// Extracts a boolean field from a flat JSON object body.
    pub fn json_bool(&self, key: &str) -> Option<bool> {
        match self.json_field(key)? {
            serde::Value::Bool(b) => Some(b),
            _ => None,
        }
    }
}

/// A keep-alive connection to one server.
pub struct Client {
    addr: SocketAddr,
    timeout: Duration,
    reader: Option<BufReader<TcpStream>>,
}

impl Client {
    /// A client for `addr` with the default 300 s per-request timeout
    /// (results block until the simulation finishes).
    pub fn new(addr: SocketAddr) -> Self {
        Self::with_timeout(addr, Duration::from_secs(300))
    }

    /// A client with an explicit per-read timeout.
    pub fn with_timeout(addr: SocketAddr, timeout: Duration) -> Self {
        Self {
            addr,
            timeout,
            reader: None,
        }
    }

    fn connect(&mut self) -> io::Result<&mut BufReader<TcpStream>> {
        if self.reader.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_read_timeout(Some(self.timeout))?;
            stream.set_nodelay(true)?;
            self.reader = Some(BufReader::new(stream));
        }
        Ok(self.reader.as_mut().expect("just connected"))
    }

    /// Sends one request and reads the full response. Reconnects and
    /// retries once if the pooled connection had gone stale.
    ///
    /// # Errors
    ///
    /// Propagates connect/read/write failures after the one retry.
    pub fn request(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        self.request_once(method, path, body).or_else(|_| {
            // The server may have closed the pooled connection
            // (idle timeout, Connection: close); one fresh attempt.
            self.reader = None;
            self.request_once(method, path, body)
        })
    }

    fn request_once(&mut self, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
        let reader = self.connect()?;
        let length = body.len();
        let head = format!(
            "{method} {path} HTTP/1.1\r\nHost: fairswap\r\nContent-Length: {length}\r\n\r\n"
        );
        let stream = reader.get_mut();
        stream.write_all(head.as_bytes())?;
        stream.write_all(body)?;
        let response = read_response(reader)?;
        let closing = header(&response.headers, "connection");
        if closing.is_some_and(|v| v.eq_ignore_ascii_case("close")) {
            self.reader = None;
        }
        Ok(response)
    }
}

/// Parses one response (status line, headers, `Content-Length` or
/// chunked body) off the connection.
///
/// # Errors
///
/// I/O failures and protocol violations surface as [`io::Error`].
pub fn read_response<R: BufRead>(reader: &mut R) -> io::Result<Response> {
    let status_line = read_line(reader)?;
    let status = status_line
        .split_ascii_whitespace()
        .nth(1)
        .and_then(|code| code.parse::<u16>().ok())
        .ok_or_else(|| invalid(format!("malformed status line: {status_line:?}")))?;
    let headers = read_headers(reader)?;
    let encoding = header(&headers, "transfer-encoding");
    let body = if encoding.is_some_and(|v| v.eq_ignore_ascii_case("chunked")) {
        read_chunked(reader)?
    } else {
        read_body(reader, &headers)?
    };
    Ok(Response {
        status,
        headers,
        body,
    })
}

fn read_chunked<R: BufRead>(reader: &mut R) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    loop {
        let size_line = read_line(reader)?;
        let size = usize::from_str_radix(size_line.trim(), 16)
            .map_err(|_| invalid(format!("bad chunk size: {size_line:?}")))?;
        if size == 0 {
            // Trailing CRLF after the last-chunk marker.
            read_line(reader)?;
            return Ok(body);
        }
        let start = body.len();
        body.resize(start + size, 0);
        reader.read_exact(&mut body[start..])?;
        // Chunk-terminating CRLF.
        read_line(reader)?;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_content_length_and_chunked_responses() {
        let raw = b"HTTP/1.1 200 OK\r\nContent-Type: text/csv\r\nContent-Length: 5\r\n\r\nhello";
        let response = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(response.status, 200);
        assert_eq!(response.body, b"hello");

        let raw = b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n";
        let response = read_response(&mut BufReader::new(&raw[..])).unwrap();
        assert_eq!(response.body, b"abcde");
        assert_eq!(response.text(), "abcde");
    }

    #[test]
    fn json_field_helpers_read_flat_objects() {
        let response = Response {
            status: 200,
            headers: Vec::new(),
            body: b"{\"job\":\"12\",\"cached\":true,\"queued\":3}\n".to_vec(),
        };
        assert_eq!(response.json_str("job").as_deref(), Some("12"));
        assert_eq!(response.json_bool("cached"), Some(true));
        assert_eq!(response.json_u64("queued"), Some(3));
        assert_eq!(response.json_str("missing"), None);
    }

    #[test]
    fn malformed_responses_error() {
        assert!(read_response(&mut BufReader::new(&b""[..])).is_err());
        assert!(read_response(&mut BufReader::new(&b"HTTP/1.1 huh\r\n\r\n"[..])).is_err());
        let colonless = b"HTTP/1.1 200 OK\r\nno-colon-here\r\n\r\n";
        assert!(read_response(&mut BufReader::new(&colonless[..])).is_err());
        // One header past MAX_HEADERS.
        let crowded = format!("HTTP/1.1 200 OK\r\n{}\r\n", "X-Pad: 1\r\n".repeat(65));
        assert!(read_response(&mut BufReader::new(crowded.as_bytes())).is_err());
        // MAX_HEADERS itself still parses.
        let full = format!("HTTP/1.1 200 OK\r\n{}\r\n", "X-Pad: 1\r\n".repeat(64));
        assert!(read_response(&mut BufReader::new(full.as_bytes())).is_ok());
    }
}
