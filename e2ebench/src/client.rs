//! The load client's HTTP/1.1 dialect: one request per connection (`Connection: close`),
//! `Content-Length` bodies out, read-to-EOF responses in, chunked bodies de-chunked.
//!
//! Every connection the client opens is counted, so the benchmark can check that it never held
//! more connections at once than the host has hardware threads.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Duration;

static OPEN: AtomicUsize = AtomicUsize::new(0);
static PEAK: AtomicUsize = AtomicUsize::new(0);

/// The most connections the client held open at the same time so far.
pub fn peak_connections() -> usize {
    PEAK.load(Ordering::SeqCst)
}

/// The exact bytes of one request. The `Host` header is fixed so that the bytes do not depend
/// on the port the server bound, which lets the in-process replay feed the same bytes.
pub fn request_bytes(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nContent-Length: {}\r\n\
         Connection: close\r\n\r\n",
        body.len()
    )
    .into_bytes();
    out.extend_from_slice(body.as_bytes());
    out
}

/// One answered request.
pub struct Reply {
    /// The HTTP status code.
    pub status: u16,
    /// The body, de-chunked when the server streamed it.
    pub body: String,
    /// Bytes received on the wire, head included.
    pub received: usize,
}

struct Counted(TcpStream);

impl Counted {
    fn connect(addr: SocketAddr) -> io::Result<Counted> {
        let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
        let open = OPEN.fetch_add(1, Ordering::SeqCst) + 1;
        PEAK.fetch_max(open, Ordering::SeqCst);
        Ok(Counted(stream))
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        OPEN.fetch_sub(1, Ordering::SeqCst);
    }
}

/// Sends `bytes` on a fresh connection and reads the whole response.
pub fn exchange(addr: SocketAddr, bytes: &[u8]) -> io::Result<Reply> {
    let mut conn = Counted::connect(addr)?;
    let stream = &mut conn.0;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    stream.set_write_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    stream.write_all(bytes)?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    drop(conn);
    parse_reply(&raw).ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "bad response"))
}

fn parse_reply(raw: &[u8]) -> Option<Reply> {
    let split = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = std::str::from_utf8(&raw[..split]).ok()?;
    let status = head.split_whitespace().nth(1)?.parse().ok()?;
    let rest = &raw[split + 4..];
    let body = if head.to_ascii_lowercase().contains("transfer-encoding: chunked") {
        dechunk(rest)?
    } else {
        rest.to_vec()
    };
    Some(Reply { status, body: String::from_utf8(body).ok()?, received: raw.len() })
}

fn dechunk(mut rest: &[u8]) -> Option<Vec<u8>> {
    let mut out = Vec::new();
    loop {
        let line_end = rest.windows(2).position(|w| w == b"\r\n")?;
        let size =
            usize::from_str_radix(std::str::from_utf8(&rest[..line_end]).ok()?.trim(), 16).ok()?;
        rest = &rest[line_end + 2..];
        if size == 0 {
            return Some(out);
        }
        if rest.len() < size + 2 {
            return None;
        }
        out.extend_from_slice(&rest[..size]);
        rest = &rest[size + 2..];
    }
}
