//! Raw-socket HTTP client helpers for the API integration tests. The
//! tests talk to the server exactly the way `curl` would — bytes on a
//! `TcpStream` — so the hand-rolled parser and writer are exercised
//! from the wire side, not through their own types.
//!
//! (Each integration-test binary compiles its own copy and uses a
//! different subset of the helpers, hence the dead_code allow.)
#![allow(dead_code)]

use astrx_oblx::json::Value;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::time::Duration;

/// A parsed response: status code, raw headers, decoded body.
pub struct Response {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn json(&self) -> Value {
        astrx_oblx::json::parse(std::str::from_utf8(&self.body).expect("body is UTF-8"))
            .expect("body is JSON")
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// Sends one request with `Connection: close` and reads the response
/// to EOF. Chunked bodies are decoded.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: Option<&str>) -> Response {
    let mut stream = TcpStream::connect(addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .unwrap();
    let body = body.unwrap_or("");
    let raw = format!(
        "{method} {path} HTTP/1.1\r\nHost: test\r\nConnection: close\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut bytes = Vec::new();
    stream.read_to_end(&mut bytes).expect("read response");
    parse_response(&bytes)
}

/// Sends one request on an already-open keep-alive connection and
/// reads exactly one `Content-Length`-framed response off it, leaving
/// the connection usable for the next request.
pub fn request_on(stream: &mut TcpStream, method: &str, path: &str) -> Response {
    let raw = format!("{method} {path} HTTP/1.1\r\nHost: test\r\nContent-Length: 0\r\n\r\n");
    stream.write_all(raw.as_bytes()).expect("send request");
    let mut bytes = Vec::new();
    let mut chunk = [0u8; 4096];
    loop {
        // Head first, then exactly Content-Length body bytes.
        if let Some(head_end) = bytes.windows(4).position(|w| w == b"\r\n\r\n") {
            let head = String::from_utf8_lossy(&bytes[..head_end]).to_ascii_lowercase();
            let need: usize = head
                .lines()
                .find_map(|l| l.strip_prefix("content-length:"))
                .and_then(|v| v.trim().parse().ok())
                .expect("keep-alive response has Content-Length");
            if bytes.len() >= head_end + 4 + need {
                bytes.truncate(head_end + 4 + need);
                return parse_response(&bytes);
            }
        }
        let n = stream.read(&mut chunk).expect("read response");
        assert!(n > 0, "server closed mid-response");
        bytes.extend_from_slice(&chunk[..n]);
    }
}

pub fn get(addr: SocketAddr, path: &str) -> Response {
    request(addr, "GET", path, None)
}

pub fn post(addr: SocketAddr, path: &str, body: &str) -> Response {
    request(addr, "POST", path, Some(body))
}

/// Parses one raw response off the wire, decoding a chunked body.
pub fn parse_response(bytes: &[u8]) -> Response {
    let head_end = bytes
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .expect("response has a head terminator");
    let head = std::str::from_utf8(&bytes[..head_end]).expect("head is UTF-8");
    let mut lines = head.split("\r\n");
    let status_line = lines.next().unwrap();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status line has a code")
        .parse()
        .expect("status code parses");
    let headers: Vec<(String, String)> = lines
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    let raw_body = &bytes[head_end + 4..];
    let chunked = headers
        .iter()
        .any(|(k, v)| k == "transfer-encoding" && v == "chunked");
    let body = if chunked {
        dechunk(raw_body)
    } else {
        raw_body.to_vec()
    };
    Response {
        status,
        headers,
        body,
    }
}

/// Decodes a `Transfer-Encoding: chunked` body.
fn dechunk(mut raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::new();
    while let Some(line_end) = raw.windows(2).position(|w| w == b"\r\n") {
        let size_line = std::str::from_utf8(&raw[..line_end]).expect("chunk size is UTF-8");
        let size = usize::from_str_radix(size_line.trim(), 16).expect("chunk size is hex");
        raw = &raw[line_end + 2..];
        if size == 0 {
            break;
        }
        out.extend_from_slice(&raw[..size]);
        raw = &raw[size + 2..]; // chunk data + trailing \r\n
    }
    out
}

/// A fresh temp directory for one test.
pub fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("oblx-api-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// A submit body for the Simple OTA benchmark with `seeds` seeds and a
/// small move budget, as a client would POST it.
pub fn ota_submit_body(name: &str, seeds: usize, moves: usize) -> String {
    let b = astrx_oblx::bench_suite::by_name("Simple OTA").expect("benchmark exists");
    astrx_oblx::json::ObjBuilder::new()
        .field("name", name)
        .field("source", b.source)
        .field("deck", b.deck.label())
        .field("seeds", i64::try_from(seeds).unwrap())
        .field("moves", i64::try_from(moves).unwrap())
        .build()
        .to_json()
}

/// Polls `GET /v1/jobs/:id` until its `state` is one of `states` (or
/// panics after `secs` seconds), returning the final state object.
pub fn wait_for_state(addr: SocketAddr, id: &str, states: &[&str], secs: u64) -> Value {
    let deadline = std::time::Instant::now() + Duration::from_secs(secs);
    loop {
        let resp = get(addr, &format!("/v1/jobs/{id}"));
        if resp.status == 200 {
            let v = resp.json();
            let state = v.get("state").and_then(Value::as_str).unwrap_or("");
            if states.contains(&state) {
                return v;
            }
        }
        assert!(
            std::time::Instant::now() < deadline,
            "job {id} did not reach {states:?} within {secs}s"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
}
