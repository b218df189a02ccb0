//! A minimal HTTP/1.1 client for the daemon: one request per
//! connection (`Connection: close`), the response body framed by its
//! `Content-Length`.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest wait for any single socket read or write. Generous: a table
/// request runs for about a second.
const IO_TIMEOUT: Duration = Duration::from_secs(60);
/// Bound on a response head, and on a body (a job listing can be large).
const MAX_HEAD: usize = 16 * 1024;
const MAX_BODY: usize = 64 * 1024 * 1024;

#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

fn invalid(message: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.into())
}

/// Sends `method path` with `body` (JSON) and returns the response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(IO_TIMEOUT))?;
    stream.set_write_timeout(Some(IO_TIMEOUT))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()?;
    read_response(&mut stream)
}

/// Reads one response: the head up to the blank line, then exactly
/// `Content-Length` body bytes. It does not wait for the peer to close.
fn read_response(stream: &mut impl Read) -> io::Result<Response> {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 8192];
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        if buf.len() > MAX_HEAD {
            return Err(invalid("response head too large"));
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed inside the response head"));
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let head = std::str::from_utf8(&buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap_or_default();
    let mut parts = status_line.split(' ');
    if !parts.next().is_some_and(|v| v.starts_with("HTTP/1.")) {
        return Err(invalid(format!("bad status line `{status_line}`")));
    }
    let status: u16 = parts
        .next()
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line `{status_line}`")))?;
    let length: usize = lines
        .filter_map(|line| line.split_once(':'))
        .find(|(name, _)| name.trim().eq_ignore_ascii_case("content-length"))
        .and_then(|(_, value)| value.trim().parse().ok())
        .ok_or_else(|| invalid("response has no Content-Length"))?;
    if length > MAX_BODY {
        return Err(invalid("response body too large"));
    }
    let body_start = head_end + 4;
    while buf.len() < body_start + length {
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(invalid("connection closed inside the response body"));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
    let body = String::from_utf8(buf[body_start..body_start + length].to_vec())
        .map_err(|_| invalid("non-UTF-8 body"))?;
    Ok(Response { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};
    use std::net::TcpListener;
    use std::sync::mpsc;

    /// Serves one connection: records the request, answers with
    /// `reply`, then holds the socket open until the test says so, which
    /// proves the client frames by `Content-Length` rather than by EOF.
    fn serve_once(reply: &'static str) -> (SocketAddr, std::thread::JoinHandle<String>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().unwrap();
            let mut reader = BufReader::new(stream.try_clone().unwrap());
            let mut head = String::new();
            let mut length = 0usize;
            loop {
                let mut line = String::new();
                reader.read_line(&mut line).unwrap();
                if let Some(v) = line.strip_prefix("Content-Length:") {
                    length = v.trim().parse().unwrap();
                }
                head.push_str(&line);
                if line == "\r\n" {
                    break;
                }
            }
            let mut body = vec![0u8; length];
            reader.read_exact(&mut body).unwrap();
            stream.write_all(reply.as_bytes()).unwrap();
            // Keep the connection open until the client has returned.
            let mut rest = Vec::new();
            let _ = stream.read_to_end(&mut rest);
            head + &String::from_utf8(body).unwrap()
        });
        (addr, handle)
    }

    #[test]
    fn round_trips_against_a_local_listener() {
        let (addr, server) = serve_once(
            "HTTP/1.1 202 Accepted\r\nContent-Type: application/json\r\n\
             Content-Length: 12\r\nConnection: close\r\n\r\n{\"job\":\"j1\"}EXTRA",
        );
        let (tx, rx) = mpsc::channel();
        let client = std::thread::spawn(move || {
            let response = request(addr, "POST", "/v1/jobs", r#"{"tool":"info"}"#);
            tx.send(()).unwrap();
            response
        });
        // The client returns while the server still holds the socket.
        rx.recv_timeout(Duration::from_secs(10))
            .expect("client framed the body by Content-Length");
        let response = client.join().unwrap().unwrap();
        assert_eq!(response.status, 202);
        assert_eq!(response.body, "{\"job\":\"j1\"}");
        let seen = server.join().unwrap();
        assert!(seen.starts_with("POST /v1/jobs HTTP/1.1\r\n"), "{seen}");
        assert!(seen.contains("Content-Length: 15\r\n"));
        assert!(seen.contains("Connection: close\r\n"));
        assert!(seen.ends_with("\r\n\r\n{\"tool\":\"info\"}"));
    }

    #[test]
    fn truncated_and_unframed_responses_are_errors() {
        let short = "HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nabc";
        assert!(read_response(&mut short.as_bytes()).is_err());
        let unframed = "HTTP/1.1 200 OK\r\n\r\nabc";
        assert!(read_response(&mut unframed.as_bytes()).is_err());
        let garbage = "SMTP ready\r\n\r\n";
        assert!(read_response(&mut garbage.as_bytes()).is_err());
        let ok = "HTTP/1.1 404 Not Found\r\ncontent-length: 2\r\n\r\n{}";
        assert_eq!(
            read_response(&mut ok.as_bytes()).unwrap(),
            Response {
                status: 404,
                body: "{}".to_owned()
            }
        );
    }
}
