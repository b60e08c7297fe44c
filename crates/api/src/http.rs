//! A deliberately small HTTP/1.1 implementation: parse requests off a
//! [`TcpStream`], write responses. No pipelining, no TLS — the edge
//! sits next to its clients (CI, a lab submit script, a load balancer
//! that terminates everything fancier). Keep-alive is supported but
//! the *server* stays in charge: every response carries an explicit
//! `Connection:` header chosen by the caller, and the server bounds a
//! persistent connection with a request cap and an idle timeout so a
//! connection can never hold a worker thread hostage.
//!
//! Robustness is in the limits, not the feature set: the head (request
//! line + headers) is capped, the body is capped by the server's
//! configured maximum, and both directions run under socket timeouts
//! set by the caller, so a slow-loris client costs one worker thread
//! for at most the read timeout.

use std::io::{self, Read, Write};
use std::net::TcpStream;

/// Cap on the request head (request line + headers). 8 KiB matches the
/// conventional default of the big servers and is ~40x what our own
/// clients send.
pub const MAX_HEAD_BYTES: usize = 8 * 1024;

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Upper-cased method token (`GET`, `POST`, `DELETE`, …).
    pub method: String,
    /// Percent-decoded-as-is path component, without the query string.
    pub path: String,
    /// Raw query string (no leading `?`; empty when absent).
    pub query: String,
    /// Headers with lower-cased names, in arrival order.
    pub headers: Vec<(String, String)>,
    /// The request body (empty unless `Content-Length` said otherwise).
    pub body: Vec<u8>,
    /// Whether the client allows the connection to persist after the
    /// response: HTTP/1.1 unless `Connection: close`, HTTP/1.0 only
    /// with an explicit `Connection: keep-alive`.
    pub keep_alive: bool,
}

impl Request {
    /// The first value of a header, by lower-case name.
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }
}

/// The `Connection:` token a request's version + header imply.
fn wants_keep_alive(version: &str, headers: &[(String, String)]) -> bool {
    let conn = headers
        .iter()
        .find(|(k, _)| k == "connection")
        .map(|(_, v)| v.to_ascii_lowercase())
        .unwrap_or_default();
    let has = |token: &str| conn.split(',').any(|t| t.trim() == token);
    if version == "HTTP/1.0" {
        has("keep-alive")
    } else {
        !has("close")
    }
}

/// Why a request could not be read. Each maps to exactly one response
/// status so the server can answer malformed input instead of silently
/// dropping the connection.
#[derive(Debug)]
pub enum HttpError {
    /// Malformed request line/headers/body → 400.
    BadRequest(String),
    /// Head or body over the configured cap → 431 / 413.
    HeadTooLarge,
    /// Body over the configured cap → 413.
    BodyTooLarge(usize),
    /// A `Transfer-Encoding` header → 411. Only `Content-Length`
    /// framing is read, so a chunked body would otherwise be left on
    /// the connection and parsed as the next request.
    LengthRequired,
    /// Socket error or timeout; nothing sensible to answer.
    Io(io::Error),
}

impl From<io::Error> for HttpError {
    fn from(e: io::Error) -> Self {
        HttpError::Io(e)
    }
}

/// Reads and parses one request. `max_body` bounds the accepted
/// `Content-Length`; the caller sets socket timeouts beforehand.
///
/// # Errors
///
/// [`HttpError`] describing the malformation or the socket failure.
pub fn read_request(stream: &mut TcpStream, max_body: usize) -> Result<Request, HttpError> {
    let (head, mut leftover) = read_head(stream)?;
    let mut lines = head.split("\r\n");
    let request_line = lines.next().unwrap_or("");
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return Err(HttpError::BadRequest(format!(
            "malformed request line `{request_line}`"
        )));
    };
    if parts.next().is_some() || !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequest(format!(
            "malformed request line `{request_line}`"
        )));
    }
    let mut headers = Vec::new();
    for line in lines.filter(|l| !l.is_empty()) {
        let Some((name, value)) = line.split_once(':') else {
            return Err(HttpError::BadRequest(format!(
                "malformed header line `{line}`"
            )));
        };
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let (path, query) = match target.split_once('?') {
        Some((p, q)) => (p.to_string(), q.to_string()),
        None => (target.to_string(), String::new()),
    };

    // Framing (RFC 9112 §6.3): a body must be delimited by exactly one
    // Content-Length value. Anything else is answered and the
    // connection closed, so no unread body bytes can be taken for the
    // next request.
    if headers.iter().any(|(k, _)| k == "transfer-encoding") {
        return Err(HttpError::LengthRequired);
    }
    let mut content_length = None;
    for (_, v) in headers.iter().filter(|(k, _)| k == "content-length") {
        let n = v
            .parse::<usize>()
            .map_err(|_| HttpError::BadRequest(format!("unparseable Content-Length `{v}`")))?;
        if content_length.is_some_and(|m| m != n) {
            return Err(HttpError::BadRequest(
                "conflicting Content-Length values".into(),
            ));
        }
        content_length = Some(n);
    }
    let content_length = content_length.unwrap_or(0);
    if content_length > max_body {
        return Err(HttpError::BodyTooLarge(content_length));
    }
    let mut body = std::mem::take(&mut leftover);
    if body.len() > content_length {
        return Err(HttpError::BadRequest(
            "body longer than Content-Length".into(),
        ));
    }
    let mut remaining = content_length - body.len();
    body.reserve(remaining);
    let mut chunk = [0u8; 4096];
    while remaining > 0 {
        let n = stream.read(&mut chunk[..remaining.min(4096)])?;
        if n == 0 {
            return Err(HttpError::BadRequest(format!(
                "body truncated: got {} of {content_length} bytes",
                body.len()
            )));
        }
        body.extend_from_slice(&chunk[..n]);
        remaining -= n;
    }
    Ok(Request {
        method: method.to_string(),
        path,
        query,
        keep_alive: wants_keep_alive(version, &headers),
        headers,
        body,
    })
}

/// Reads until the `\r\n\r\n` head terminator (the head, terminator
/// included, capped at [`MAX_HEAD_BYTES`]); returns the head text and
/// any body bytes that arrived in the same reads.
fn read_head(stream: &mut TcpStream) -> Result<(String, Vec<u8>), HttpError> {
    let mut buf: Vec<u8> = Vec::with_capacity(1024);
    let mut chunk = [0u8; 1024];
    loop {
        if let Some(end) = find_head_end(&buf) {
            // The cap counts the terminator and holds however the bytes
            // arrived: a read may carry the head past the cap.
            if end + 4 > MAX_HEAD_BYTES {
                return Err(HttpError::HeadTooLarge);
            }
            let head = std::str::from_utf8(&buf[..end])
                .map_err(|_| HttpError::BadRequest("head is not UTF-8".into()))?
                .to_string();
            let leftover = buf[end + 4..].to_vec();
            return Ok((head, leftover));
        }
        if buf.len() >= MAX_HEAD_BYTES {
            return Err(HttpError::HeadTooLarge);
        }
        let n = stream.read(&mut chunk)?;
        if n == 0 {
            return Err(HttpError::BadRequest("connection closed mid-head".into()));
        }
        buf.extend_from_slice(&chunk[..n]);
    }
}

fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// The canonical reason phrase for the handful of statuses we emit.
pub fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        409 => "Conflict",
        411 => "Length Required",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        429 => "Too Many Requests",
        431 => "Request Header Fields Too Large",
        500 => "Internal Server Error",
        503 => "Service Unavailable",
        _ => "",
    }
}

/// Writes a complete response (status, headers, body) and flushes.
/// The `Connection:` header states `keep_alive` explicitly, so the
/// client always knows whether the server will honor another request.
///
/// # Errors
///
/// Propagates socket write errors (the peer may already be gone).
pub fn respond(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &[u8],
    keep_alive: bool,
) -> io::Result<()> {
    let conn = if keep_alive { "keep-alive" } else { "close" };
    let head = format!(
        "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: {conn}\r\n\r\n",
        reason(status),
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()
}

/// Writes a JSON response.
///
/// # Errors
///
/// Propagates socket write errors.
pub fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    body: &str,
    keep_alive: bool,
) -> io::Result<()> {
    respond(
        stream,
        status,
        "application/json",
        body.as_bytes(),
        keep_alive,
    )
}

/// A `Transfer-Encoding: chunked` response writer for the event-stream
/// endpoint: the head goes out on construction, each `write_chunk` is
/// one HTTP chunk (so the client sees whole JSONL lines as they land),
/// and `finish` writes the zero-length terminator.
pub struct ChunkedWriter<'a> {
    stream: &'a mut TcpStream,
}

impl<'a> ChunkedWriter<'a> {
    /// Starts a chunked response.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn start(
        stream: &'a mut TcpStream,
        status: u16,
        content_type: &str,
    ) -> io::Result<ChunkedWriter<'a>> {
        // A chunked stream runs until the job is terminal and may span
        // minutes; the connection always closes behind it rather than
        // tracking stream state across requests.
        let head = format!(
            "HTTP/1.1 {status} {}\r\nContent-Type: {content_type}\r\nTransfer-Encoding: chunked\r\nConnection: close\r\n\r\n",
            reason(status)
        );
        stream.write_all(head.as_bytes())?;
        stream.flush()?;
        Ok(ChunkedWriter { stream })
    }

    /// Writes one chunk; empty input is skipped (a zero-length chunk
    /// would terminate the stream).
    ///
    /// # Errors
    ///
    /// Propagates socket write errors — the caller treats any failure
    /// as "client went away" and stops streaming.
    pub fn write_chunk(&mut self, data: &[u8]) -> io::Result<()> {
        if data.is_empty() {
            return Ok(());
        }
        write!(self.stream, "{:x}\r\n", data.len())?;
        self.stream.write_all(data)?;
        self.stream.write_all(b"\r\n")?;
        self.stream.flush()
    }

    /// Terminates the chunked stream.
    ///
    /// # Errors
    ///
    /// Propagates socket write errors.
    pub fn finish(self) -> io::Result<()> {
        self.stream.write_all(b"0\r\n\r\n")?;
        self.stream.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::{TcpListener, TcpStream};

    /// Runs `read_request` against raw bytes pushed through a real
    /// socket pair — the same I/O path production takes.
    fn parse_bytes(bytes: &[u8], max_body: usize) -> Result<Request, HttpError> {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let bytes = bytes.to_vec();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(&bytes).unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        let req = read_request(&mut conn, max_body);
        writer.join().unwrap();
        req
    }

    #[test]
    fn parses_a_post_with_body_and_query() {
        let req = parse_bytes(
            b"POST /v1/jobs?dry=1 HTTP/1.1\r\nHost: x\r\nContent-Length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/v1/jobs");
        assert_eq!(req.query, "dry=1");
        assert_eq!(req.header("host"), Some("x"));
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn rejects_oversized_bodies_without_reading_them() {
        let err =
            parse_bytes(b"POST / HTTP/1.1\r\nContent-Length: 999999\r\n\r\n", 1024).unwrap_err();
        assert!(matches!(err, HttpError::BodyTooLarge(999999)));
    }

    #[test]
    fn rejects_malformed_request_lines() {
        for raw in [
            &b"GET\r\n\r\n"[..],
            &b"GET /x SPAM/9 extra\r\n\r\n"[..],
            &b"GET /x FTP/1.0\r\n\r\n"[..],
        ] {
            assert!(matches!(
                parse_bytes(raw, 1024).unwrap_err(),
                HttpError::BadRequest(_)
            ));
        }
    }

    #[test]
    fn keep_alive_follows_version_defaults_and_connection_header() {
        let ka = |raw: &[u8]| parse_bytes(raw, 1024).unwrap().keep_alive;
        assert!(ka(b"GET / HTTP/1.1\r\n\r\n"), "1.1 defaults to keep-alive");
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: close\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.0\r\n\r\n"), "1.0 defaults to close");
        assert!(ka(b"GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n"));
        assert!(!ka(b"GET / HTTP/1.1\r\nConnection: Close\r\n\r\n"));
    }

    /// A chunked request whose body has not arrived yet is answered at
    /// once: it used to parse as a body-less request on a kept-alive
    /// connection, so the chunk-size line became the next request line.
    #[test]
    fn transfer_encoding_is_length_required_without_waiting_for_the_body() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let (done_tx, done_rx) = std::sync::mpsc::channel::<()>();
        let writer = std::thread::spawn(move || {
            let mut s = TcpStream::connect(addr).unwrap();
            s.write_all(b"POST /v1/jobs HTTP/1.1\r\nHost: x\r\nTransfer-Encoding: chunked\r\n\r\n")
                .unwrap();
            // Hold the socket open, body unsent, until the parse is done.
            done_rx.recv().unwrap();
        });
        let (mut conn, _) = listener.accept().unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let outcome = read_request(&mut conn, 1024);
        done_tx.send(()).unwrap();
        writer.join().unwrap();
        assert!(
            matches!(outcome, Err(HttpError::LengthRequired)),
            "{outcome:?}"
        );
    }

    #[test]
    fn conflicting_content_lengths_are_rejected_and_equal_ones_accepted() {
        let err = parse_bytes(
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\nContent-Length: 2\r\n\r\nabcd",
            1024,
        )
        .unwrap_err();
        assert!(matches!(err, HttpError::BadRequest(ref m) if m.contains("conflicting")));
        let req = parse_bytes(
            b"POST / HTTP/1.1\r\nContent-Length: 4\r\ncontent-length: 4\r\n\r\nabcd",
            1024,
        )
        .unwrap();
        assert_eq!(req.body, b"abcd");
    }

    #[test]
    fn caps_the_request_head() {
        let mut raw = b"GET / HTTP/1.1\r\n".to_vec();
        raw.extend(std::iter::repeat_n(b'a', MAX_HEAD_BYTES + 16));
        assert!(matches!(
            parse_bytes(&raw, 1024).unwrap_err(),
            HttpError::HeadTooLarge
        ));
    }
}
