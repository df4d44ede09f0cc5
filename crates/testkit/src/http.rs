//! The raw HTTP/1.1 clients of the integration suites, over a plain
//! `TcpStream`, so a test sees exactly the bytes a server wrote — status
//! line, headers, body — or the hangup. The one-shot helpers ([`get`],
//! [`request`]) send `Connection: close` and read to the end of the
//! stream: one request per connection, whatever the server would have
//! allowed. [`Persistent`] is the other kind of client: it keeps its
//! connection, frames every response by `Content-Length`, and counts
//! how often it had to connect. Std only: the servers under test depend
//! on this crate, not the other way round.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Status (0 when the peer hung up without a status line), response
/// headers with lowercased names, and body.
pub type Response = (u16, Vec<(String, String)>, String);

/// Send raw bytes, half-close, and return everything the peer wrote
/// back (empty on hangup).
pub fn raw_roundtrip(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut s = TcpStream::connect(addr).expect("connect");
    s.set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set read timeout");
    s.write_all(bytes).expect("write");
    s.shutdown(std::net::Shutdown::Write).ok();
    let mut out = Vec::new();
    let _ = s.read_to_end(&mut out);
    out
}

/// Split raw response bytes into status, headers and body.
pub fn parse_response(raw: &[u8]) -> Response {
    let text = String::from_utf8_lossy(raw);
    let (head, body) = text.split_once("\r\n\r\n").unwrap_or((&*text, ""));
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0);
    let headers = head
        .lines()
        .skip(1)
        .filter_map(|l| l.split_once(':'))
        .map(|(k, v)| (k.trim().to_ascii_lowercase(), v.trim().to_string()))
        .collect();
    (status, headers, body.to_string())
}

/// One request with extra request headers and a body (`Content-Length`
/// is added when the body is not empty).
pub fn request(
    addr: SocketAddr,
    method: &str,
    target: &str,
    headers: &[(&str, &str)],
    body: &str,
) -> Response {
    let mut req = format!("{method} {target} HTTP/1.1\r\nHost: t\r\nConnection: close\r\n");
    for (k, v) in headers {
        req.push_str(&format!("{k}: {v}\r\n"));
    }
    if !body.is_empty() {
        req.push_str(&format!("Content-Length: {}\r\n", body.len()));
    }
    req.push_str("\r\n");
    req.push_str(body);
    parse_response(&raw_roundtrip(addr, req.as_bytes()))
}

/// A client that keeps its connection between requests.
pub struct Persistent {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    /// Bytes read past the last response.
    carry: Vec<u8>,
    /// Connections opened so far.
    pub connects: u64,
}

impl Persistent {
    pub fn new(addr: SocketAddr) -> Persistent {
        Persistent {
            addr,
            stream: None,
            carry: Vec::new(),
            connects: 0,
        }
    }

    /// Write raw bytes — one request, several pipelined, or a fragment —
    /// connecting first if there is no connection.
    pub fn send(&mut self, bytes: &[u8]) {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr).expect("connect");
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("set read timeout");
            stream.set_nodelay(true).expect("set nodelay");
            self.connects += 1;
            self.carry.clear();
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(bytes).expect("write");
    }

    /// Read one response, framed by its `Content-Length`. `None` when
    /// the server closed (or reset) the connection before a whole
    /// response arrived; the next [`Self::send`] reconnects.
    pub fn recv(&mut self) -> Option<Response> {
        let stream = self.stream.as_mut()?;
        let mut chunk = [0u8; 4096];
        loop {
            if let Some(head_end) = self.carry.windows(4).position(|w| w == b"\r\n\r\n") {
                let (_, headers, _) = parse_response(&self.carry[..head_end + 4]);
                let len: usize = header(&headers, "content-length")
                    .expect("every response carries Content-Length")
                    .parse()
                    .expect("Content-Length is a number");
                let total = head_end + 4 + len;
                if self.carry.len() >= total {
                    let response = parse_response(&self.carry[..total]);
                    self.carry.drain(..total);
                    return Some(response);
                }
            }
            match stream.read(&mut chunk) {
                Ok(n) if n > 0 => self.carry.extend_from_slice(&chunk[..n]),
                _ => {
                    self.stream = None;
                    return None;
                }
            }
        }
    }

    /// `GET target` on the kept connection, with no `Connection` header.
    pub fn get(&mut self, target: &str) -> Option<Response> {
        self.send(format!("GET {target} HTTP/1.1\r\nHost: t\r\n\r\n").as_bytes());
        self.recv()
    }

    /// Has the server closed the connection? Waits up to `within` for
    /// the end of the stream; bytes that arrive instead are kept.
    pub fn closed_by_server(&mut self, within: Duration) -> bool {
        let Some(stream) = self.stream.as_mut() else {
            return true;
        };
        stream.set_read_timeout(Some(within)).expect("set timeout");
        let mut chunk = [0u8; 4096];
        let closed = loop {
            match stream.read(&mut chunk) {
                Ok(0) => break true,
                Ok(n) => self.carry.extend_from_slice(&chunk[..n]),
                Err(e) => {
                    break !matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock | std::io::ErrorKind::TimedOut
                    )
                }
            }
        };
        if closed {
            self.stream = None;
        } else {
            stream
                .set_read_timeout(Some(Duration::from_secs(10)))
                .expect("set timeout");
        }
        closed
    }
}

/// Requests no server may answer with anything but a JSON error body:
/// raw bytes and the status they must draw. Quotes, backslashes and a
/// control byte ride in the request line and in a header line, where a
/// hand-escaped error body would break. The last rows are requests whose
/// body length cannot be known for certain; a server that guessed would
/// read the rest of a persistent connection out of step.
pub fn hostile_requests() -> Vec<(Vec<u8>, u16)> {
    let mut oversized = b"GET /healthz HTTP/1.1\r\nX-Pad: ".to_vec();
    oversized.resize(oversized.len() + 20 * 1024, b'a');
    oversized.extend_from_slice(b"\r\n\r\n");
    vec![
        (b"TOTAL GARBAGE\r\n\r\n".to_vec(), 400),
        (b"GET /healthz SPDY/9\r\n\r\n".to_vec(), 400),
        (b"GET /cell?cell=%zz HTTP/1.1\r\n\r\n".to_vec(), 400),
        (b"GET /a\"b HTTP/1.1 x\r\n\r\n".to_vec(), 400),
        (b"GET /a\\b\x01c SPDY/\"9\\\r\n\r\n".to_vec(), 400),
        (
            b"GET /healthz HTTP/1.1\r\nno \"colon\" \\ \x01 here\r\n\r\n".to_vec(),
            400,
        ),
        (oversized, 431),
        (
            b"POST /healthz HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n".to_vec(),
            400,
        ),
        (
            b"POST /healthz HTTP/1.1\r\nContent-Length: 2\r\nContent-Length: 2\r\n\r\nhi".to_vec(),
            400,
        ),
        (
            b"POST /healthz HTTP/1.1\r\nContent-Length: +2\r\n\r\nhi".to_vec(),
            400,
        ),
        (
            b"POST /healthz HTTP/1.1\r\nContent-Length: 2, 2\r\n\r\nhi".to_vec(),
            400,
        ),
        (
            b"POST /healthz HTTP/1.1\r\nContent-Length: 2x\r\n\r\nhi".to_vec(),
            400,
        ),
    ]
}

/// Fill a server running one worker over a queue of one — a silent
/// fresh connection occupies the worker (it blocks in read until the
/// socket timeout: only a connection that has been answered is parked
/// off the workers), a second fills the queue — and return what the
/// third connection, shed at the door, reads.
pub fn third_connection(addr: SocketAddr) -> Response {
    let hold_worker = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200));
    let hold_queue = TcpStream::connect(addr).expect("connect");
    std::thread::sleep(Duration::from_millis(200));
    let shed = parse_response(&raw_roundtrip(addr, b""));
    drop((hold_worker, hold_queue));
    shed
}

/// `GET target` with extra request headers.
pub fn get(addr: SocketAddr, target: &str, headers: &[(&str, &str)]) -> Response {
    request(addr, "GET", target, headers, "")
}

/// First value of a response header, by lowercased name.
pub fn header<'a>(headers: &'a [(String, String)], name: &str) -> Option<&'a str> {
    headers
        .iter()
        .find(|(k, _)| k == name)
        .map(|(_, v)| v.as_str())
}
