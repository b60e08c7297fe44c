//! A minimal keep-alive HTTP/1.1 client for the load generator.
//!
//! One [`Client`] holds at most one connection. The server closes a
//! keep-alive connection after its per-connection request cap, after an
//! idle timeout, and after every event stream; the client then connects
//! again on the next request. A reconnect is counted, never a failure.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One response: status code and body bytes (chunked bodies decoded).
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body.
    pub body: Vec<u8>,
}

impl Response {
    /// The body as text (lossy UTF-8).
    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// A keep-alive client for one server address.
#[derive(Debug)]
pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Connections opened after the first one.
    pub reconnects: usize,
    opened: usize,
}

impl Client {
    /// A client that connects lazily on its first request.
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            reconnects: 0,
            opened: 0,
        }
    }

    /// Sends one request and reads one response. A request on a reused
    /// connection that the server had already closed is retried once on
    /// a fresh connection: the server only closes between requests, so
    /// the first attempt was never processed.
    ///
    /// # Errors
    ///
    /// Connect, send or receive failures on a fresh connection.
    pub fn request(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        let reused = self.stream.is_some();
        match self.attempt(method, path, body) {
            Err(e) if reused && e.kind() != io::ErrorKind::InvalidData => {
                self.stream = None;
                self.attempt(method, path, body)
            }
            other => other,
        }
    }

    fn attempt(&mut self, method: &str, path: &str, body: &str) -> io::Result<Response> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(Duration::from_secs(30)))?;
            stream.set_write_timeout(Some(Duration::from_secs(30)))?;
            if self.opened > 0 {
                self.reconnects += 1;
            }
            self.opened += 1;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        let raw = format!(
            "{method} {path} HTTP/1.1\r\nHost: oblx-e2e\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n{body}",
            body.len()
        );
        let outcome = stream
            .write_all(raw.as_bytes())
            .and_then(|()| read_response(stream));
        match outcome {
            Ok((response, keep)) => {
                if !keep {
                    self.stream = None;
                }
                Ok(response)
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Reads one response; returns it with whether the connection persists.
fn read_response(stream: &mut TcpStream) -> io::Result<(Response, bool)> {
    let mut buf = Vec::with_capacity(4096);
    let head_end = loop {
        if let Some(i) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
            break i;
        }
        fill(stream, &mut buf)?;
    };
    let head = String::from_utf8_lossy(&buf[..head_end]).to_ascii_lowercase();
    let mut rest = buf.split_off(head_end + 4);
    let status: u16 = head
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("response has no status code"))?;
    let header = |name: &str| {
        head.lines()
            .skip(1)
            .find_map(|l| l.strip_prefix(name))
            .map(|v| v.trim().to_string())
    };
    let keep = header("connection:").as_deref() != Some("close");
    let body = if header("transfer-encoding:").as_deref() == Some("chunked") {
        read_chunked(stream, rest)?
    } else {
        let len: usize = header("content-length:")
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| bad("response has neither Content-Length nor chunked framing"))?;
        while rest.len() < len {
            fill(stream, &mut rest)?;
        }
        rest.truncate(len);
        rest
    };
    Ok((Response { status, body }, keep))
}

/// Decodes a chunked body; `buf` holds the bytes already read past the
/// head.
fn read_chunked(stream: &mut TcpStream, mut buf: Vec<u8>) -> io::Result<Vec<u8>> {
    let mut body = Vec::new();
    let mut pos = 0;
    loop {
        let line_end = loop {
            if let Some(i) = buf[pos..].windows(2).position(|w| w == b"\r\n") {
                break pos + i;
            }
            fill(stream, &mut buf)?;
        };
        let size_text = String::from_utf8_lossy(&buf[pos..line_end]).into_owned();
        let size = usize::from_str_radix(size_text.split(';').next().unwrap_or("").trim(), 16)
            .map_err(|_| bad("bad chunk size"))?;
        let data_start = line_end + 2;
        while buf.len() < data_start + size + 2 {
            fill(stream, &mut buf)?;
        }
        if size == 0 {
            return Ok(body);
        }
        body.extend_from_slice(&buf[data_start..data_start + size]);
        pos = data_start + size + 2;
    }
}

fn fill(stream: &mut TcpStream, buf: &mut Vec<u8>) -> io::Result<()> {
    let mut chunk = [0u8; 8192];
    let n = stream.read(&mut chunk)?;
    if n == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}
