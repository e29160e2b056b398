//! Hand-rolled HTTP/1.1 framing for the ingest front-end.
//!
//! The workspace vendors every dependency, so the wire layer is a
//! deliberately minimal subset of RFC 9112: request line + headers +
//! `Content-Length`-delimited bodies, persistent connections by
//! default, `Connection: close` honoured, no chunked transfer coding.
//! Every limit is explicit (header block and body byte caps) and every
//! parse failure maps to a concrete status code so malformed input is
//! rejected rather than panicking the acceptor.
//!
//! A keep-alive connection reads every request into the same buffers
//! ([`read_request`]) and renders every answer into one output buffer
//! ([`Response::write_to`] on a `Vec<u8>`), so once those have grown to
//! the connection's requests, framing allocates nothing.

use std::borrow::Cow;
use std::io::{BufRead, Read, Write};

/// Longest accepted request body, in bytes.
pub const MAX_BODY_BYTES: usize = 4096;
/// Longest accepted header block (request line included), in bytes.
pub const MAX_HEADER_BYTES: usize = 8192;

/// One parsed HTTP/1.1 request.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Request {
    /// Request method, as written (`GET`, `POST`, …).
    pub method: String,
    /// Request target path, e.g. `/tasks/17`.
    pub path: String,
    /// The request body (empty when no `Content-Length` was sent).
    pub body: Vec<u8>,
    /// True when the client asked for `Connection: close`.
    pub close: bool,
}

/// Why a request could not be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// The connection closed (or stalled past its read timeout) in the
    /// middle of a request.
    Truncated,
    /// The request line was not `METHOD SP TARGET SP HTTP/1.x`.
    BadRequestLine,
    /// The header block exceeded [`MAX_HEADER_BYTES`].
    HeadersTooLarge,
    /// A header line had no `:` separator.
    BadHeader,
    /// `Content-Length` was not a non-negative integer.
    BadContentLength,
    /// The declared body length exceeded [`MAX_BODY_BYTES`].
    BodyTooLarge,
    /// The request used framing this subset does not speak
    /// (`Transfer-Encoding`).
    Unsupported,
}

impl HttpError {
    /// The status line to answer this error with. Truncated requests
    /// get no response (there is no well-formed request to answer).
    pub fn status(&self) -> Option<(u16, &'static str)> {
        match self {
            HttpError::Truncated => None,
            HttpError::BadRequestLine | HttpError::BadHeader | HttpError::BadContentLength => {
                Some((400, "Bad Request"))
            }
            HttpError::HeadersTooLarge => Some((431, "Request Header Fields Too Large")),
            HttpError::BodyTooLarge => Some((413, "Payload Too Large")),
            HttpError::Unsupported => Some((501, "Not Implemented")),
        }
    }
}

/// Reads one request off `reader`.
///
/// Returns `Ok(None)` on a clean end-of-stream before any byte of a
/// next request (normal keep-alive teardown). I/O errors — including
/// read timeouts on an idle persistent connection — surface as
/// [`HttpError::Truncated`]; the caller closes the connection either
/// way.
pub fn parse_request<R: BufRead>(reader: &mut R) -> Result<Option<Request>, HttpError> {
    let mut request = Request::default();
    Ok(read_request(reader, &mut Vec::new(), &mut request)?.then_some(request))
}

/// Reads the next request off `reader` into `request`, reusing its
/// strings and body and `line` (the connection's line buffer) instead of
/// allocating. Same outcomes as [`parse_request`], with `Ok(false)` for
/// its `Ok(None)`; after an error `request` holds no meaningful request.
pub fn read_request<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    request: &mut Request,
) -> Result<bool, HttpError> {
    let mut header_bytes = 0usize;
    if !read_line(reader, line, &mut header_bytes)? {
        return Ok(false);
    }
    let request_line = std::str::from_utf8(line).map_err(|_| HttpError::BadHeader)?;
    let mut parts = request_line.split(' ');
    let (method, path, version) = match (parts.next(), parts.next(), parts.next(), parts.next()) {
        (Some(m), Some(p), Some(v), None) if !m.is_empty() && p.starts_with('/') => (m, p, v),
        _ => return Err(HttpError::BadRequestLine),
    };
    if !version.starts_with("HTTP/1.") {
        return Err(HttpError::BadRequestLine);
    }
    if !method.chars().all(|c| c.is_ascii_uppercase()) {
        return Err(HttpError::BadRequestLine);
    }
    request.method.clear();
    request.method.push_str(method);
    request.path.clear();
    request.path.push_str(path);
    request.close = false;

    let mut content_length = 0usize;
    loop {
        if !read_line(reader, line, &mut header_bytes)? {
            return Err(HttpError::Truncated);
        }
        if line.is_empty() {
            break;
        }
        let header = std::str::from_utf8(line).map_err(|_| HttpError::BadHeader)?;
        let (name, value) = header.split_once(':').ok_or(HttpError::BadHeader)?;
        let (name, value) = (name.trim(), value.trim());
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().map_err(|_| HttpError::BadContentLength)?;
            if content_length > MAX_BODY_BYTES {
                return Err(HttpError::BodyTooLarge);
            }
        } else if name.eq_ignore_ascii_case("transfer-encoding") {
            return Err(HttpError::Unsupported);
        } else if name.eq_ignore_ascii_case("connection") && value.eq_ignore_ascii_case("close") {
            request.close = true;
        }
    }

    request.body.clear();
    request.body.resize(content_length, 0);
    reader
        .read_exact(&mut request.body)
        .map_err(|_| HttpError::Truncated)?;
    Ok(true)
}

/// Reads one CRLF (or bare LF) terminated line into `line`, without its
/// terminator, charging its bytes against the header budget. At most the
/// budget's remainder plus one byte is read, so a peer that streams
/// header bytes without a newline gets a bounded buffer and
/// [`HttpError::HeadersTooLarge`]. `false` = end of stream at a line
/// start.
fn read_line<R: BufRead>(
    reader: &mut R,
    line: &mut Vec<u8>,
    header_bytes: &mut usize,
) -> Result<bool, HttpError> {
    line.clear();
    let budget = (MAX_HEADER_BYTES - *header_bytes) as u64 + 1;
    let n = reader
        .by_ref()
        .take(budget)
        .read_until(b'\n', line)
        .map_err(|_| HttpError::Truncated)?;
    if n == 0 {
        return Ok(false);
    }
    *header_bytes += n;
    if *header_bytes > MAX_HEADER_BYTES {
        return Err(HttpError::HeadersTooLarge);
    }
    if line.last() != Some(&b'\n') {
        // Stream ended mid-line.
        return Err(HttpError::Truncated);
    }
    line.pop();
    if line.last() == Some(&b'\r') {
        line.pop();
    }
    Ok(true)
}

/// One response, always `Content-Length`-framed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Response<'a> {
    /// Status code.
    pub status: u16,
    /// Reason phrase.
    pub reason: &'static str,
    /// JSON body text: a fixed text, or one the endpoint wrote into its
    /// connection's body buffer.
    pub body: Cow<'a, str>,
    /// `Retry-After` header value, for 429 shed responses.
    pub retry_after: Option<u32>,
    /// Whether the server will close the connection after this
    /// response (`Connection: close`).
    pub close: bool,
}

impl<'a> Response<'a> {
    /// A JSON response with the given status.
    pub fn json(status: u16, reason: &'static str, body: impl Into<Cow<'a, str>>) -> Self {
        Response {
            status,
            reason,
            body: body.into(),
            retry_after: None,
            close: false,
        }
    }

    /// Marks the response as connection-closing.
    pub fn closing(mut self) -> Self {
        self.close = true;
        self
    }

    /// Attaches a `Retry-After` header (seconds).
    pub fn with_retry_after(mut self, seconds: u32) -> Self {
        self.retry_after = Some(seconds);
        self
    }

    /// Serialises the response onto `w`. It writes in pieces, so a socket
    /// should get it rendered into a `Vec<u8>` first (which allocates
    /// nothing once it has grown) and sent with one write.
    pub fn write_to<W: Write>(&self, w: &mut W) -> std::io::Result<()> {
        write!(
            w,
            "HTTP/1.1 {} {}\r\ncontent-type: application/json\r\ncontent-length: {}\r\n",
            self.status,
            self.reason,
            self.body.len()
        )?;
        if let Some(secs) = self.retry_after {
            write!(w, "retry-after: {secs}\r\n")?;
        }
        w.write_all(if self.close {
            b"connection: close\r\n\r\n"
        } else {
            b"connection: keep-alive\r\n\r\n"
        })?;
        w.write_all(self.body.as_bytes())?;
        w.flush()
    }
}

/// Fields a `POST /tasks` body may carry. Absent fields fall back to
/// the front-end's configured defaults.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct SubmitBody {
    /// Soft deadline in crowd seconds from submission.
    pub deadline: Option<f64>,
    /// Reward offered for the task.
    pub reward: Option<f64>,
    /// Task latitude.
    pub lat: Option<f64>,
    /// Task longitude.
    pub lon: Option<f64>,
    /// Task category index.
    pub category: Option<u32>,
}

/// Parses the flat-JSON submission body: an object of known numeric
/// fields, e.g. `{"deadline":90.0,"reward":0.05,"lat":37.9,"lon":23.7}`.
/// An empty body means "all defaults". Unknown keys, non-numeric
/// values, or trailing garbage are rejected with `None` (the caller
/// answers 400).
pub fn parse_submit_body(bytes: &[u8]) -> Option<SubmitBody> {
    let text = std::str::from_utf8(bytes).ok()?.trim();
    let mut out = SubmitBody::default();
    if text.is_empty() {
        return Some(out);
    }
    let inner = text.strip_prefix('{')?.strip_suffix('}')?.trim();
    if inner.is_empty() {
        return Some(out);
    }
    for pair in inner.split(',') {
        let (key, value) = pair.split_once(':')?;
        let key = key.trim().strip_prefix('"')?.strip_suffix('"')?;
        let value = value.trim();
        let number: f64 = value.parse().ok()?;
        if !number.is_finite() {
            return None;
        }
        match key {
            "deadline" => out.deadline = Some(number),
            "reward" => out.reward = Some(number),
            "lat" => out.lat = Some(number),
            "lon" => out.lon = Some(number),
            "category" => {
                // Exact comparison on purpose: a category id must be an exact integer.
                if number < 0.0 || number.fract() != 0.0 || number > u32::MAX as f64 {
                    return None;
                }
                out.category = Some(number as u32);
            }
            _ => return None,
        }
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufReader;

    fn parse(bytes: &[u8]) -> Result<Option<Request>, HttpError> {
        parse_request(&mut BufReader::new(bytes))
    }

    #[test]
    fn parses_a_post_with_body() {
        let req = parse(b"POST /tasks HTTP/1.1\r\ncontent-length: 4\r\n\r\nabcd")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "POST");
        assert_eq!(req.path, "/tasks");
        assert_eq!(req.body, b"abcd");
        assert!(!req.close);
    }

    #[test]
    fn parses_bare_lf_and_connection_close() {
        let req = parse(b"GET /report HTTP/1.1\nConnection: close\n\n")
            .unwrap()
            .unwrap();
        assert_eq!(req.method, "GET");
        assert!(req.close);
        assert!(req.body.is_empty());
    }

    #[test]
    fn clean_eof_is_none_but_midstream_eof_is_truncated() {
        assert_eq!(parse(b""), Ok(None));
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nhost: x"),
            Err(HttpError::Truncated)
        );
        assert_eq!(
            parse(b"POST /tasks HTTP/1.1\r\ncontent-length: 9\r\n\r\nabc"),
            Err(HttpError::Truncated)
        );
    }

    #[test]
    fn rejects_malformed_request_lines() {
        assert_eq!(parse(b"NONSENSE\r\n\r\n"), Err(HttpError::BadRequestLine));
        assert_eq!(
            parse(b"GET /x HTTP/1.1 extra\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
        assert_eq!(
            parse(b"get /x HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
        assert_eq!(
            parse(b"GET x HTTP/1.1\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
        assert_eq!(
            parse(b"GET /x SPDY/3\r\n\r\n"),
            Err(HttpError::BadRequestLine)
        );
    }

    #[test]
    fn rejects_bad_headers_and_bad_lengths() {
        assert_eq!(
            parse(b"GET / HTTP/1.1\r\nno separator\r\n\r\n"),
            Err(HttpError::BadHeader)
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: nope\r\n\r\n"),
            Err(HttpError::BadContentLength)
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\ncontent-length: -4\r\n\r\n"),
            Err(HttpError::BadContentLength)
        );
        assert_eq!(
            parse(b"POST / HTTP/1.1\r\ntransfer-encoding: chunked\r\n\r\n"),
            Err(HttpError::Unsupported)
        );
    }

    #[test]
    fn enforces_body_and_header_caps() {
        let oversized = format!(
            "POST /tasks HTTP/1.1\r\ncontent-length: {}\r\n\r\n",
            MAX_BODY_BYTES + 1
        );
        assert_eq!(parse(oversized.as_bytes()), Err(HttpError::BodyTooLarge));

        let mut huge = String::from("GET / HTTP/1.1\r\n");
        while huge.len() <= MAX_HEADER_BYTES {
            huge.push_str("x-pad: aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n");
        }
        huge.push_str("\r\n");
        assert_eq!(parse(huge.as_bytes()), Err(HttpError::HeadersTooLarge));
    }

    /// Counts the bytes taken from the reader it wraps.
    struct Counting<R> {
        inner: R,
        consumed: usize,
    }

    impl<R: Read> Read for Counting<R> {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            let n = self.inner.read(buf)?;
            self.consumed += n;
            Ok(n)
        }
    }

    impl<R: BufRead> BufRead for Counting<R> {
        fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
            self.inner.fill_buf()
        }

        fn consume(&mut self, n: usize) {
            self.consumed += n;
            self.inner.consume(n);
        }
    }

    #[test]
    fn an_endless_header_line_is_read_only_up_to_the_budget() {
        let endless = std::io::Cursor::new(b"GET / HTTP/1.1\r\nx-pad: ".to_vec())
            .chain(BufReader::new(std::io::repeat(b'a')));
        let mut reader = Counting {
            inner: endless,
            consumed: 0,
        };
        assert_eq!(parse_request(&mut reader), Err(HttpError::HeadersTooLarge));
        assert!(
            reader.consumed <= MAX_HEADER_BYTES + 1,
            "{} bytes consumed",
            reader.consumed
        );
    }

    #[test]
    fn read_request_refills_one_request_per_call() {
        let mut stream = BufReader::new(
            &b"POST /tasks HTTP/1.1\r\nConnection: close\r\ncontent-length: 4\r\n\r\nabcd\
               GET /tasks/7 HTTP/1.1\r\n\r\n"[..],
        );
        let (mut line, mut request) = (Vec::new(), Request::default());
        assert_eq!(read_request(&mut stream, &mut line, &mut request), Ok(true));
        assert_eq!(
            (request.method.as_str(), request.path.as_str()),
            ("POST", "/tasks")
        );
        assert_eq!(
            (request.body.as_slice(), request.close),
            (&b"abcd"[..], true)
        );
        assert_eq!(read_request(&mut stream, &mut line, &mut request), Ok(true));
        assert_eq!(
            request,
            Request {
                method: "GET".into(),
                path: "/tasks/7".into(),
                body: Vec::new(),
                close: false,
            }
        );
        assert_eq!(
            read_request(&mut stream, &mut line, &mut request),
            Ok(false)
        );
    }

    #[test]
    fn response_serialises_with_retry_after() {
        let mut buf = Vec::new();
        Response::json(429, "Too Many Requests", "{\"state\":\"shed\"}")
            .with_retry_after(1)
            .write_to(&mut buf)
            .unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert!(
            text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"),
            "{text}"
        );
        assert!(text.contains("retry-after: 1\r\n"), "{text}");
        assert!(text.contains("content-length: 16\r\n"), "{text}");
        assert!(text.ends_with("\r\n\r\n{\"state\":\"shed\"}"), "{text}");
    }

    #[test]
    fn submit_body_parses_fields_and_rejects_garbage() {
        let body = parse_submit_body(
            b"{\"deadline\":90.5,\"reward\":0.05,\"lat\":37.9,\"lon\":23.7,\"category\":2}",
        )
        .unwrap();
        assert_eq!(body.deadline, Some(90.5));
        assert_eq!(body.reward, Some(0.05));
        assert_eq!(body.category, Some(2));
        assert_eq!(parse_submit_body(b""), Some(SubmitBody::default()));
        assert_eq!(parse_submit_body(b"{}"), Some(SubmitBody::default()));
        assert!(parse_submit_body(b"{\"deadline\":}").is_none());
        assert!(parse_submit_body(b"{\"unknown\":1}").is_none());
        assert!(parse_submit_body(b"{\"deadline\":\"soon\"}").is_none());
        assert!(parse_submit_body(b"{\"category\":1.5}").is_none());
        assert!(parse_submit_body(b"not json").is_none());
        assert!(parse_submit_body(b"{\"deadline\":inf}").is_none());
    }
}
