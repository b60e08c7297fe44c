//! Property tests for the HTTP/1.1 request parser, from the wire: the
//! head cap, the body cap, and independence from how the bytes are
//! split across writes. Every case runs `read_request` on a real socket
//! pair, the writer pausing between pieces so that they arrive as
//! separate reads. The properties assert the outcome class and that
//! nothing panics.

use oblx_api::http::{read_request, HttpError, Request, MAX_HEAD_BYTES};
use proptest::prelude::*;
use std::io::Write;
use std::net::{TcpListener, TcpStream};
use std::time::Duration;

/// The outcome of one parse, by response class.
#[derive(Debug, PartialEq)]
enum Class {
    Ok,
    BadRequest,
    HeadTooLarge,
    BodyTooLarge,
    LengthRequired,
    Io,
}

fn class(r: &Result<Request, HttpError>) -> Class {
    match r {
        Ok(_) => Class::Ok,
        Err(HttpError::BadRequest(_)) => Class::BadRequest,
        Err(HttpError::HeadTooLarge) => Class::HeadTooLarge,
        Err(HttpError::BodyTooLarge(_)) => Class::BodyTooLarge,
        Err(HttpError::LengthRequired) => Class::LengthRequired,
        Err(HttpError::Io(_)) => Class::Io,
    }
}

/// Sends `bytes` cut at `cuts` (positions, any order), then closes the
/// socket, and parses one request off the other end.
fn parse_split(bytes: &[u8], cuts: &[usize], max_body: usize) -> Result<Request, HttpError> {
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let mut bounds: Vec<usize> = cuts.iter().map(|&c| c.min(bytes.len())).collect();
    bounds.extend([0, bytes.len()]);
    bounds.sort_unstable();
    bounds.dedup();
    let bytes = bytes.to_vec();
    let writer = std::thread::spawn(move || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_nodelay(true).unwrap();
        for w in bounds.windows(2) {
            // The reader may answer and hang up before the last piece
            // (an oversized head): a failed write is expected then.
            if s.write_all(&bytes[w[0]..w[1]]).is_err() {
                return;
            }
            std::thread::sleep(Duration::from_micros(300));
        }
    });
    let (mut conn, _) = listener.accept().unwrap();
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let parsed = read_request(&mut conn, max_body);
    drop(conn);
    writer.join().unwrap();
    parsed
}

/// A deterministic generator for request parts.
struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        ((self.0 >> 33) as usize) % n.max(1)
    }

    fn token(&mut self, len: usize) -> String {
        (0..len)
            .map(|_| (b'a' + self.below(26) as u8) as char)
            .collect()
    }

    fn cuts(&mut self, len: usize) -> Vec<usize> {
        (0..self.below(4)).map(|_| self.below(len + 1)).collect()
    }
}

/// A `GET` whose head, terminator included, is exactly `len` bytes.
fn head_of_len(len: usize) -> Vec<u8> {
    let fixed = "GET / HTTP/1.1\r\nX-Pad: \r\n\r\n".len();
    format!(
        "GET / HTTP/1.1\r\nX-Pad: {}\r\n\r\n",
        "p".repeat(len - fixed)
    )
    .into_bytes()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A head up to `MAX_HEAD_BYTES` (terminator included) parses and a
    /// longer one is 431, wherever the writes split it.
    #[test]
    fn prop_head_cap_holds_for_any_split(seed in 0u64..u64::MAX) {
        let mut g = Lcg(seed);
        let len = MAX_HEAD_BYTES - 40 + g.below(80);
        let raw = head_of_len(len);
        prop_assert_eq!(raw.len(), len);
        let cuts = g.cuts(raw.len());
        let expect = if len <= MAX_HEAD_BYTES { Class::Ok } else { Class::HeadTooLarge };
        let got = class(&parse_split(&raw, &cuts, 1024));
        prop_assert!(got == expect, "head of {} bytes cut at {:?}: {:?}", len, cuts, got);
    }

    /// `Content-Length` around the body cap: over the cap is 413 before
    /// any body is read; an exact body parses whole; a short body (the
    /// client hangs up) is 400.
    #[test]
    fn prop_body_cap_and_short_bodies(seed in 0u64..u64::MAX) {
        let mut g = Lcg(seed);
        let max_body = 64;
        let declared = max_body - 2 + g.below(5);
        let short = g.below(3);
        let body = g.token(declared.saturating_sub(short));
        let mut raw = format!("POST /x HTTP/1.1\r\nContent-Length: {declared}\r\n\r\n").into_bytes();
        raw.extend_from_slice(body.as_bytes());
        let cuts = g.cuts(raw.len());
        let parsed = parse_split(&raw, &cuts, max_body);
        let expect = if declared > max_body {
            Class::BodyTooLarge
        } else if short > 0 {
            Class::BadRequest
        } else {
            Class::Ok
        };
        let got = class(&parsed);
        prop_assert!(
            got == expect,
            "declared {}, sent {}, cuts {:?}: {:?}", declared, body.len(), cuts, got
        );
        if let Ok(req) = parsed {
            prop_assert_eq!(req.body, body.into_bytes());
        }
    }

    /// A well-formed request parses the same however its bytes are
    /// split across writes.
    #[test]
    fn prop_split_does_not_change_the_parse(seed in 0u64..u64::MAX) {
        let mut g = Lcg(seed);
        let method = ["GET", "POST", "DELETE"][g.below(3)];
        let n = 1 + g.below(12);
        let path = format!("/v1/{}", g.token(n));
        let query = if g.below(2) == 0 { String::new() } else { format!("?{}={}", g.token(3), g.token(4)) };
        let version = ["HTTP/1.1", "HTTP/1.0"][g.below(2)];
        let mut head = format!("{method} {path}{query} {version}\r\n");
        for _ in 0..g.below(5) {
            let (name, n) = (g.token(4), g.below(40));
            head.push_str(&format!("X-{name}: {}\r\n", g.token(n)));
        }
        if g.below(3) == 0 {
            head.push_str(["Connection: close\r\n", "Connection: keep-alive\r\n"][g.below(2)]);
        }
        let n = g.below(200);
        let body = g.token(n);
        head.push_str(&format!("Content-Length: {}\r\n\r\n", body.len()));
        let mut raw = head.into_bytes();
        raw.extend_from_slice(body.as_bytes());

        let whole = parse_split(&raw, &[], 1024).unwrap();
        let cuts = g.cuts(raw.len());
        let split = parse_split(&raw, &cuts, 1024);
        prop_assert!(split.is_ok(), "cuts {:?}: {:?}", cuts, split);
        let split = split.unwrap();
        let parts = |r: &Request| {
            (r.method.clone(), r.path.clone(), r.query.clone(), r.headers.clone(), r.body.clone(), r.keep_alive)
        };
        prop_assert!(parts(&split) == parts(&whole), "cuts {:?}: {:?} vs {:?}", cuts, split, whole);
    }
}
