//! A minimal HTTP/1.1 client: one request per connection, as the
//! daemon speaks it, with the connect time measured apart from the rest.

use std::io::{Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// How long any single request may take before it counts as failed.
pub const TIMEOUT: Duration = Duration::from_secs(30);

/// One answered request.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Response body.
    pub body: String,
    /// Seconds spent in `connect`.
    pub connect_s: f64,
    /// Seconds from before `connect` until the body was read.
    pub total_s: f64,
}

/// Sends `method path` with an optional JSON `body` to `addr`.
pub fn request(addr: &str, method: &str, path: &str, body: Option<&str>) -> Result<Reply, String> {
    let t0 = Instant::now();
    let sock = addr
        .parse()
        .map_err(|e| format!("bad address {addr}: {e}"))?;
    let mut stream =
        TcpStream::connect_timeout(&sock, TIMEOUT).map_err(|e| format!("connect: {e}"))?;
    let connect_s = t0.elapsed().as_secs_f64();
    stream
        .set_read_timeout(Some(TIMEOUT))
        .and_then(|()| stream.set_write_timeout(Some(TIMEOUT)))
        .map_err(|e| format!("socket: {e}"))?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream
        .write_all(head.as_bytes())
        .and_then(|()| stream.write_all(body.as_bytes()))
        .map_err(|e| format!("send: {e}"))?;
    let mut raw = Vec::new();
    stream
        .read_to_end(&mut raw)
        .map_err(|e| format!("receive: {e}"))?;
    let total_s = t0.elapsed().as_secs_f64();
    let text = String::from_utf8(raw).map_err(|_| "response is not UTF-8".to_string())?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or("response has no header end")?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or("response has no status code")?;
    Ok(Reply {
        status,
        body: body.to_string(),
        connect_s,
        total_s,
    })
}

/// The raw text of `"key": value` in a flat JSON document (string values
/// without their quotes). Enough for the daemon's status and stats
/// documents, whose keys are unique.
pub fn field<'a>(doc: &'a str, key: &str) -> Option<&'a str> {
    let at = doc.find(&format!("\"{key}\""))? + key.len() + 2;
    let rest = doc[at..].trim_start().strip_prefix(':')?.trim_start();
    if let Some(s) = rest.strip_prefix('"') {
        return s.split('"').next();
    }
    let end = rest
        .find(|c: char| c == ',' || c == '}' || c.is_whitespace())
        .unwrap_or(rest.len());
    Some(&rest[..end])
}

/// A numeric field of a flat JSON document.
pub fn number(doc: &str, key: &str) -> Option<u64> {
    field(doc, key)?.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fields_are_extracted() {
        let doc = "{\n  \"id\": 12,\n  \"status\": \"completed\",\n  \"cache_hit\": true}";
        assert_eq!(number(doc, "id"), Some(12));
        assert_eq!(field(doc, "status"), Some("completed"));
        assert_eq!(field(doc, "cache_hit"), Some("true"));
        assert_eq!(field(doc, "missing"), None);
    }
}
