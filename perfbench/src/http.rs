//! A minimal keep-alive HTTP/1.1 client for driving popgamed, plus a
//! `/metrics` scrape.

use popgame_obs::metrics::{parse_exposition, Sample};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// One reply: status, the `x-popgame-cache` header, and the body.
#[derive(Debug)]
pub struct Reply {
    /// HTTP status code.
    pub status: u16,
    /// Value of `x-popgame-cache` (`hit`/`miss`), if present.
    pub cache: Option<String>,
    /// Response body.
    pub body: String,
}

/// One persistent connection.
pub struct Client {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Client {
    /// Connects with Nagle off and a 30 s read timeout.
    ///
    /// # Errors
    ///
    /// The connect or socket-option failure.
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        let reader = BufReader::new(stream.try_clone()?);
        Ok(Client { stream, reader })
    }

    /// POSTs `body` to `path` and reads the whole reply.
    ///
    /// # Errors
    ///
    /// Any I/O failure or a malformed reply; the connection is then
    /// unusable and the caller should reconnect.
    pub fn post(&mut self, path: &str, body: &str) -> io::Result<Reply> {
        let head = format!(
            "POST {path} HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            body.len()
        );
        self.stream.write_all(head.as_bytes())?;
        self.stream.write_all(body.as_bytes())?;
        self.stream.flush()?;
        let mut line = String::new();
        self.reader.read_line(&mut line)?;
        let status = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        let mut content_length = 0usize;
        let mut cache = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(invalid("truncated headers"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            let Some((name, value)) = header.split_once(':') else {
                return Err(invalid("malformed header"));
            };
            let value = value.trim();
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.parse().map_err(|_| invalid("bad content-length"))?;
            } else if name.eq_ignore_ascii_case("x-popgame-cache") {
                cache = Some(value.to_string());
            }
        }
        let mut body = vec![0u8; content_length];
        self.reader.read_exact(&mut body)?;
        let body = String::from_utf8(body).map_err(|_| invalid("non-utf8 body"))?;
        Ok(Reply {
            status,
            cache,
            body,
        })
    }
}

fn invalid(message: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, message.to_string())
}

/// Scrapes `GET /metrics` on a fresh connection.
///
/// # Errors
///
/// I/O failures, or an exposition that does not parse.
pub fn scrape(addr: SocketAddr) -> io::Result<Vec<Sample>> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(30)))?;
    stream.write_all(b"GET /metrics HTTP/1.1\r\nconnection: close\r\n\r\n")?;
    let mut reply = String::new();
    stream.read_to_string(&mut reply)?;
    let (_, body) = reply
        .split_once("\r\n\r\n")
        .ok_or_else(|| invalid("no body"))?;
    parse_exposition(body).map_err(|e| invalid(&e))
}

/// Sum of every series named `name` whose labels include all of `labels`
/// (0 when absent: counters register lazily on first use).
pub fn series_sum(samples: &[Sample], name: &str, labels: &[(&str, &str)]) -> f64 {
    samples
        .iter()
        .filter(|s| s.name == name && labels.iter().all(|(k, v)| s.label(k) == Some(*v)))
        .map(|s| s.value)
        .sum()
}
