//! A minimal HTTP/1.1 client: keep-alive connections, `Content-Length`
//! and chunked bodies (one JSON document per chunk, as `X-Progress:
//! stream` sends them). It only has to speak to `repro serve` and
//! `repro router`.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

#[derive(Debug, Default)]
pub struct Resp {
    pub status: u16,
    pub headers: Vec<(String, String)>,
    /// The body; for a chunked response, the last non-empty chunk (the
    /// report that ends a progress stream).
    pub body: Vec<u8>,
}

impl Resp {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(k, _)| k.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    pub fn ok(&self) -> bool {
        (200..300).contains(&self.status)
    }

    pub fn text(&self) -> &str {
        std::str::from_utf8(&self.body).unwrap_or("")
    }
}

pub struct Conn {
    stream: TcpStream,
    buf: Vec<u8>,
    addr: String,
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.to_string())
}

impl Conn {
    pub fn open(addr: &str) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(120)))?;
        stream.set_write_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            stream,
            buf: Vec::with_capacity(16 * 1024),
            addr: addr.to_string(),
        })
    }

    /// Sends one request on this connection and reads the whole response.
    pub fn send(
        &mut self,
        method: &str,
        path: &str,
        headers: &[(&str, &str)],
        body: &[u8],
    ) -> io::Result<Resp> {
        let mut head = format!(
            "{method} {path} HTTP/1.1\r\nHost: {}\r\nContent-Length: {}\r\n",
            self.addr,
            body.len()
        );
        if !body.is_empty() {
            head.push_str("Content-Type: application/json\r\n");
        }
        for (k, v) in headers {
            head.push_str(k);
            head.push_str(": ");
            head.push_str(v);
            head.push_str("\r\n");
        }
        head.push_str("\r\n");
        let mut msg = head.into_bytes();
        msg.extend_from_slice(body);
        self.stream.write_all(&msg)?;
        self.read_response()
    }

    fn fill(&mut self) -> io::Result<()> {
        let mut tmp = [0u8; 16 * 1024];
        let n = self.stream.read(&mut tmp)?;
        if n == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed mid-response",
            ));
        }
        self.buf.extend_from_slice(&tmp[..n]);
        Ok(())
    }

    /// Consumes bytes up to and including the next CRLF.
    fn line(&mut self) -> io::Result<String> {
        loop {
            if let Some(at) = self.buf.windows(2).position(|w| w == b"\r\n") {
                let line = String::from_utf8_lossy(&self.buf[..at]).into_owned();
                self.buf.drain(..at + 2);
                return Ok(line);
            }
            self.fill()?;
        }
    }

    fn take(&mut self, n: usize) -> io::Result<Vec<u8>> {
        while self.buf.len() < n {
            self.fill()?;
        }
        Ok(self.buf.drain(..n).collect())
    }

    fn read_response(&mut self) -> io::Result<Resp> {
        let status_line = self.line()?;
        let status = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse::<u16>().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut resp = Resp {
            status,
            ..Resp::default()
        };
        loop {
            let line = self.line()?;
            if line.is_empty() {
                break;
            }
            if let Some((k, v)) = line.split_once(':') {
                resp.headers
                    .push((k.trim().to_string(), v.trim().to_string()));
            }
        }
        if status == 100 {
            return self.read_response();
        }
        let chunked = resp
            .header("Transfer-Encoding")
            .is_some_and(|v| v.eq_ignore_ascii_case("chunked"));
        if chunked {
            loop {
                let size_line = self.line()?;
                let size = usize::from_str_radix(size_line.trim(), 16)
                    .map_err(|_| bad("bad chunk size"))?;
                if size == 0 {
                    self.line()?;
                    break;
                }
                let data = self.take(size)?;
                self.take(2)?;
                resp.body = data;
            }
        } else if let Some(len) = resp.header("Content-Length") {
            let len: usize = len.parse().map_err(|_| bad("bad Content-Length"))?;
            resp.body = self.take(len)?;
        } else {
            let mut rest = std::mem::take(&mut self.buf);
            self.stream.read_to_end(&mut rest)?;
            resp.body = rest;
        }
        Ok(resp)
    }
}

/// One request on a fresh connection that closes afterwards.
pub fn once(
    addr: &str,
    method: &str,
    path: &str,
    headers: &[(&str, &str)],
    body: &[u8],
) -> io::Result<Resp> {
    let mut h: Vec<(&str, &str)> = headers.to_vec();
    h.push(("Connection", "close"));
    Conn::open(addr)?.send(method, path, &h, body)
}
