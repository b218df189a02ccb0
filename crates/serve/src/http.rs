//! Minimal HTTP/1.1 framing: enough protocol to serve and consume the
//! daemon's JSON API, nothing more.
//!
//! One request per connection (`Connection: close`), bounded header and
//! body sizes, read timeouts on every socket — a misbehaving peer gets
//! a structured error or a closed socket, never a hung thread.

use std::fmt;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Upper bound on the request line plus headers.
pub const MAX_HEAD_BYTES: usize = 16 * 1024;
/// Upper bound on a request body (inline `.soc` texts are ~100 KB for
/// the largest ITC'02 benchmarks; 4 MB leaves generous headroom).
pub const MAX_BODY_BYTES: usize = 4 * 1024 * 1024;
/// Per-socket read/write timeout.
pub const IO_TIMEOUT: Duration = Duration::from_secs(30);

/// A parsed HTTP request.
#[derive(Clone, Debug)]
pub struct Request {
    /// Method verb (`GET`, `POST`, ...), uppercase as received.
    pub method: String,
    /// Request target path, query string included verbatim.
    pub path: String,
    /// Decoded body (empty when none was sent).
    pub body: String,
}

/// A framing failure while reading a request.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HttpError {
    /// Human-readable description.
    pub message: String,
}

impl HttpError {
    fn new(message: impl Into<String>) -> Self {
        HttpError {
            message: message.into(),
        }
    }
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::new(format!("socket error: {e}"))
    }
}

/// Reads one request from `stream`.
///
/// # Errors
///
/// [`HttpError`] on malformed framing, oversized input or socket
/// failure (including the read timeout).
pub fn read_request(stream: &mut TcpStream) -> Result<Request, HttpError> {
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    let mut reader = BufReader::new(stream);

    let mut head_bytes = 0usize;
    let mut line = String::new();
    reader.read_line(&mut line)?;
    head_bytes += line.len();
    let mut parts = line.split_whitespace();
    let method = parts
        .next()
        .ok_or_else(|| HttpError::new("empty request line"))?
        .to_owned();
    let path = parts
        .next()
        .ok_or_else(|| HttpError::new("request line has no path"))?
        .to_owned();
    if !matches!(parts.next(), Some(v) if v.starts_with("HTTP/1.")) {
        return Err(HttpError::new("unsupported protocol version"));
    }

    let mut content_length = 0usize;
    loop {
        let mut header = String::new();
        let n = reader.read_line(&mut header)?;
        if n == 0 {
            return Err(HttpError::new("connection closed inside headers"));
        }
        head_bytes += n;
        if head_bytes > MAX_HEAD_BYTES {
            return Err(HttpError::new("request head too large"));
        }
        let header = header.trim_end();
        if header.is_empty() {
            break;
        }
        if let Some((name, value)) = header.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value
                    .trim()
                    .parse()
                    .map_err(|_| HttpError::new("invalid Content-Length"))?;
            }
        }
    }
    if content_length > MAX_BODY_BYTES {
        return Err(HttpError::new("request body too large"));
    }

    let mut body = vec![0u8; content_length];
    reader.read_exact(&mut body)?;
    let body = String::from_utf8(body).map_err(|_| HttpError::new("request body is not UTF-8"))?;
    Ok(Request { method, path, body })
}

/// Writes a JSON response and flushes; the caller closes the stream.
///
/// # Errors
///
/// Forwards socket failures.
pub fn write_response(stream: &mut impl Write, status: u16, body: &str) -> std::io::Result<()> {
    write_response_with(stream, status, body, &[])
}

/// [`write_response`] with extra response headers (e.g. `Retry-After`).
/// Header names and values must be ASCII without CR/LF. Head and body
/// go out in one write: one syscall, and no small head segment sent
/// ahead of the body.
///
/// # Errors
///
/// Forwards socket failures.
pub fn write_response_with(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    headers: &[(&str, String)],
) -> std::io::Result<()> {
    let mut out = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n",
        reason(status),
        body.len()
    );
    for (name, value) in headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

/// The canonical reason phrase for the statuses the daemon emits.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        202 => "Accepted",
        400 => "Bad Request",
        409 => "Conflict",
        404 => "Not Found",
        405 => "Method Not Allowed",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "Unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    fn roundtrip(raw: &str) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let raw = raw.to_owned();
        let writer = std::thread::spawn(move || {
            let mut out = TcpStream::connect(addr).unwrap();
            out.write_all(raw.as_bytes()).unwrap();
        });
        let (mut stream, _) = listener.accept().unwrap();
        let result = read_request(&mut stream);
        writer.join().unwrap();
        result
    }

    #[test]
    fn parses_a_post_with_body() {
        let req =
            roundtrip("POST /v1/tools/info HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\n{\"\"}")
                .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/tools/info");
        assert_eq!(req.body, "{\"\"}");
    }

    #[test]
    fn parses_a_get_without_body() {
        let req = roundtrip("GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n").unwrap();
        assert_eq!(req.method, "GET");
        assert_eq!(req.body, "");
    }

    /// Records every `write` call it receives.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_response_is_one_write_of_head_and_body() {
        let mut out = Writes::default();
        let body = r#"{"error":{"kind":"rejected"}}"#;
        write_response_with(&mut out, 429, body, &[("Retry-After", "1".to_owned())]).unwrap();
        assert_eq!(out.0.len(), 1, "head and body go out in one write");
        assert_eq!(
            String::from_utf8(out.0.concat()).unwrap(),
            "HTTP/1.1 429 Too Many Requests\r\n\
             Content-Type: application/json\r\n\
             Content-Length: 29\r\n\
             Connection: close\r\n\
             Retry-After: 1\r\n\
             \r\n\
             {\"error\":{\"kind\":\"rejected\"}}"
        );
    }

    #[test]
    fn rejects_bad_framing() {
        assert!(roundtrip("\r\n\r\n").is_err());
        assert!(roundtrip("GET\r\n\r\n").is_err());
        assert!(roundtrip("GET / SPDY/3\r\n\r\n").is_err());
        assert!(roundtrip("GET / HTTP/1.1\r\nContent-Length: nope\r\n\r\n").is_err());
        let oversized = format!(
            "GET / HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert!(roundtrip(&oversized).is_err());
    }
}
