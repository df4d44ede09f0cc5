//! The load generator's HTTP/1.1 client.
//!
//! It never sends `Connection: close`, and keeps its connection open
//! whenever the server's response allows that. Today's server answers
//! every request with `Connection: close`, so every request reconnects
//! (`connects == requests`); a keep-alive server shows its gain here
//! without an edit to the benchmark.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

const IO_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Client {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    body_start: usize,
    pub connects: u64,
    pub requests: u64,
    pub response_bytes: u64,
}

impl Client {
    pub fn new(addr: SocketAddr) -> Client {
        Client {
            addr,
            stream: None,
            buf: Vec::with_capacity(16 * 1024),
            body_start: 0,
            connects: 0,
            requests: 0,
            response_bytes: 0,
        }
    }

    /// `GET target`; `request_id`, when non-zero, travels as
    /// `X-Request-Id` so a traced request can be joined to the server's
    /// flight recorder. Returns the status; the body is in [`Self::body`].
    pub fn get(&mut self, target: &str, request_id: u64) -> io::Result<u16> {
        let mut head = format!("GET {target} HTTP/1.1\r\nHost: bench\r\n");
        if request_id != 0 {
            head.push_str(&format!("X-Request-Id: {request_id:016x}\r\n"));
        }
        head.push_str("\r\n");
        // A server may close an idle kept-alive connection at any time;
        // an idempotent GET that dies before the first response byte on a
        // reused connection is resent once on a fresh one.
        self.requests += 1;
        let reused = self.stream.is_some();
        match self.exchange(head.as_bytes(), &[]) {
            Err(_) if reused && self.buf.is_empty() => self.exchange(head.as_bytes(), &[]),
            other => other,
        }
    }

    /// `POST target` with a JSON body, always on a fresh connection: an
    /// ingest is not idempotent, so it is never resent.
    pub fn post(&mut self, target: &str, body: &[u8]) -> io::Result<u16> {
        self.requests += 1;
        self.stream = None;
        let head = format!(
            "POST {target} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
             Content-Length: {}\r\n\r\n",
            body.len()
        );
        self.exchange(head.as_bytes(), body)
    }

    /// The body of the last response.
    pub fn body(&self) -> &[u8] {
        &self.buf[self.body_start..]
    }

    fn exchange(&mut self, head: &[u8], body: &[u8]) -> io::Result<u16> {
        self.buf.clear();
        self.body_start = 0;
        let result = self.exchange_inner(head, body);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange_inner(&mut self, head: &[u8], body: &[u8]) -> io::Result<u16> {
        if self.stream.is_none() {
            let stream = TcpStream::connect(self.addr)?;
            stream.set_nodelay(true)?;
            stream.set_read_timeout(Some(IO_TIMEOUT))?;
            stream.set_write_timeout(Some(IO_TIMEOUT))?;
            self.connects += 1;
            self.stream = Some(stream);
        }
        let stream = self.stream.as_mut().expect("connected above");
        stream.write_all(head)?;
        stream.write_all(body)?;

        let mut chunk = [0u8; 16 * 1024];
        let head_end = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break pos;
            }
            match stream.read(&mut chunk)? {
                0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                n => self.buf.extend_from_slice(&chunk[..n]),
            }
        };
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let head_text =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| bad("head is not UTF-8"))?;
        let mut lines = head_text.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("no status code"))?;
        let mut content_length: Option<usize> = None;
        let mut keep_alive = status_line.starts_with("HTTP/1.1");
        for line in lines {
            let Some((name, value)) = line.split_once(':') else {
                continue;
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = Some(value.parse().map_err(|_| bad("bad content-length"))?);
            } else if name.eq_ignore_ascii_case("connection") {
                keep_alive = value.eq_ignore_ascii_case("keep-alive");
            }
        }
        self.body_start = head_end + 4;
        match content_length {
            Some(len) => {
                let total = self.body_start + len;
                while self.buf.len() < total {
                    match stream.read(&mut chunk)? {
                        0 => return Err(io::ErrorKind::UnexpectedEof.into()),
                        n => self.buf.extend_from_slice(&chunk[..n]),
                    }
                }
                self.buf.truncate(total);
            }
            None => {
                // Unframed body: it ends when the server closes.
                keep_alive = false;
                stream.read_to_end(&mut self.buf)?;
            }
        }
        if !keep_alive {
            // Let the server close first, as a client of a
            // `Connection: close` server does: the side that closes first
            // keeps the socket in TIME_WAIT, and on the client side that
            // exhausts the ephemeral ports within seconds at this rate.
            let total = self.buf.len();
            while matches!(stream.read(&mut chunk), Ok(n) if n > 0) {}
            self.buf.truncate(total);
            self.stream = None;
        }
        self.response_bytes += (self.buf.len() - self.body_start) as u64;
        Ok(status)
    }
}
