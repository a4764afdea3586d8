//! Core HTTP types: methods, status codes, headers, request/response.

use std::fmt;

/// Errors across the HTTP stack.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HttpError {
    /// Wire data that does not parse as HTTP.
    Malformed(String),
    /// Underlying socket failure.
    Io(String),
    /// URL that does not parse or has an unsupported scheme.
    BadUrl(String),
    /// `mem://` host that is not registered on the network.
    UnknownHost(String),
    /// The peer closed before a full message arrived.
    UnexpectedEof,
    /// Body larger than the configured limit.
    BodyTooLarge {
        /// The limit that was exceeded.
        limit: usize,
    },
    /// A per-request deadline expired before the response arrived.
    DeadlineExceeded,
    /// Placeholder a transport returns when it parked the exchange at
    /// its [`send_until`](crate::send_until) yield point; the exchange
    /// itself is still in flight and finishes through the parked
    /// [`Rest`](crate::Rest). Never an I/O failure.
    Parked,
}

impl fmt::Display for HttpError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HttpError::Malformed(d) => write!(f, "malformed HTTP: {d}"),
            HttpError::Io(d) => write!(f, "io error: {d}"),
            HttpError::BadUrl(d) => write!(f, "bad url: {d}"),
            HttpError::UnknownHost(h) => write!(f, "unknown in-memory host: {h}"),
            HttpError::UnexpectedEof => write!(f, "connection closed mid-message"),
            HttpError::BodyTooLarge { limit } => write!(f, "body exceeds {limit} bytes"),
            HttpError::DeadlineExceeded => write!(f, "request deadline exceeded"),
            HttpError::Parked => write!(f, "exchange parked at its yield point"),
        }
    }
}

impl std::error::Error for HttpError {}

impl From<std::io::Error> for HttpError {
    fn from(e: std::io::Error) -> Self {
        HttpError::Io(e.to_string())
    }
}

/// Result alias for this crate.
pub type HttpResult<T> = Result<T, HttpError>;

/// HTTP protocol version from the request line. The stack speaks
/// HTTP/1.1 but must understand HTTP/1.0 peers, whose connections
/// default to *close* instead of keep-alive.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Version {
    /// `HTTP/1.0`: no persistent connections unless explicitly
    /// negotiated via `Connection: keep-alive`.
    Http10,
    /// `HTTP/1.1` (and any other `HTTP/1.x`): persistent by default.
    Http11,
}

impl Version {
    /// Parse the version token from a request or status line. Any
    /// `HTTP/1.x` other than 1.0 is treated as 1.1; everything else is
    /// unsupported.
    pub fn parse(s: &str) -> Option<Version> {
        match s {
            "HTTP/1.0" => Some(Version::Http10),
            _ if s.starts_with("HTTP/1.") => Some(Version::Http11),
            _ => None,
        }
    }

    /// Canonical wire token.
    pub fn as_str(self) -> &'static str {
        match self {
            Version::Http10 => "HTTP/1.0",
            Version::Http11 => "HTTP/1.1",
        }
    }

    /// Does this version keep the connection open by default?
    pub fn persistent_by_default(self) -> bool {
        matches!(self, Version::Http11)
    }
}

impl fmt::Display for Version {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Request methods (the REST verbs the course teaches, plus the rest of
/// the RFC 9110 set we need).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[allow(missing_docs)]
pub enum Method {
    Get,
    Post,
    Put,
    Delete,
    Head,
    Options,
    Patch,
}

impl Method {
    /// Parse from the uppercase token.
    pub fn parse(s: &str) -> Option<Method> {
        Some(match s {
            "GET" => Method::Get,
            "POST" => Method::Post,
            "PUT" => Method::Put,
            "DELETE" => Method::Delete,
            "HEAD" => Method::Head,
            "OPTIONS" => Method::Options,
            "PATCH" => Method::Patch,
            _ => return None,
        })
    }

    /// Canonical uppercase token.
    pub fn as_str(self) -> &'static str {
        match self {
            Method::Get => "GET",
            Method::Post => "POST",
            Method::Put => "PUT",
            Method::Delete => "DELETE",
            Method::Head => "HEAD",
            Method::Options => "OPTIONS",
            Method::Patch => "PATCH",
        }
    }

    /// Safe methods have no side effects (RFC 9110 §9.2.1).
    pub fn is_safe(self) -> bool {
        matches!(self, Method::Get | Method::Head | Method::Options)
    }

    /// Idempotent methods may be retried blindly.
    pub fn is_idempotent(self) -> bool {
        self.is_safe() || matches!(self, Method::Put | Method::Delete)
    }
}

impl fmt::Display for Method {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Status codes used by the stack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Status(pub u16);

#[allow(missing_docs)]
impl Status {
    pub const OK: Status = Status(200);
    pub const CREATED: Status = Status(201);
    pub const ACCEPTED: Status = Status(202);
    pub const NO_CONTENT: Status = Status(204);
    pub const MOVED_PERMANENTLY: Status = Status(301);
    pub const FOUND: Status = Status(302);
    pub const NOT_MODIFIED: Status = Status(304);
    pub const BAD_REQUEST: Status = Status(400);
    pub const UNAUTHORIZED: Status = Status(401);
    pub const FORBIDDEN: Status = Status(403);
    pub const NOT_FOUND: Status = Status(404);
    pub const METHOD_NOT_ALLOWED: Status = Status(405);
    pub const CONFLICT: Status = Status(409);
    pub const PAYLOAD_TOO_LARGE: Status = Status(413);
    pub const UNSUPPORTED_MEDIA_TYPE: Status = Status(415);
    pub const UNPROCESSABLE: Status = Status(422);
    pub const TOO_MANY_REQUESTS: Status = Status(429);
    pub const INTERNAL_SERVER_ERROR: Status = Status(500);
    pub const NOT_IMPLEMENTED: Status = Status(501);
    pub const SERVICE_UNAVAILABLE: Status = Status(503);
    pub const GATEWAY_TIMEOUT: Status = Status(504);

    /// Standard reason phrase.
    pub fn reason(self) -> &'static str {
        match self.0 {
            200 => "OK",
            201 => "Created",
            202 => "Accepted",
            204 => "No Content",
            301 => "Moved Permanently",
            302 => "Found",
            304 => "Not Modified",
            400 => "Bad Request",
            401 => "Unauthorized",
            403 => "Forbidden",
            404 => "Not Found",
            405 => "Method Not Allowed",
            409 => "Conflict",
            413 => "Payload Too Large",
            415 => "Unsupported Media Type",
            422 => "Unprocessable Entity",
            429 => "Too Many Requests",
            500 => "Internal Server Error",
            501 => "Not Implemented",
            503 => "Service Unavailable",
            504 => "Gateway Timeout",
            _ => "Unknown",
        }
    }

    /// 2xx?
    pub fn is_success(self) -> bool {
        (200..300).contains(&self.0)
    }

    /// 4xx or 5xx?
    pub fn is_error(self) -> bool {
        self.0 >= 400
    }
}

impl fmt::Display for Status {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.0, self.reason())
    }
}

/// Case-insensitive header multimap preserving insertion order.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Headers {
    entries: Vec<(String, String)>,
}

impl Headers {
    /// Empty header set.
    pub fn new() -> Self {
        Headers::default()
    }

    /// Append a header (does not replace existing values).
    pub fn add(&mut self, name: impl Into<String>, value: impl Into<String>) {
        self.entries.push((name.into(), value.into()));
    }

    /// Replace all values of `name` with one value.
    pub fn set(&mut self, name: impl Into<String>, value: impl Into<String>) {
        let name = name.into();
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(&name));
        self.entries.push((name, value.into()));
    }

    /// First value of `name`, case-insensitive.
    pub fn get(&self, name: &str) -> Option<&str> {
        self.entries.iter().find(|(n, _)| n.eq_ignore_ascii_case(name)).map(|(_, v)| v.as_str())
    }

    /// All values of `name`.
    pub fn get_all<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a str> + 'a {
        self.entries
            .iter()
            .filter(move |(n, _)| n.eq_ignore_ascii_case(name))
            .map(|(_, v)| v.as_str())
    }

    /// Remove all values of `name`.
    pub fn remove(&mut self, name: &str) {
        self.entries.retain(|(n, _)| !n.eq_ignore_ascii_case(name));
    }

    /// Does the header exist?
    pub fn contains(&self, name: &str) -> bool {
        self.get(name).is_some()
    }

    /// True when any value of `name`, read as a comma-separated token
    /// list, contains `token` (ASCII case-insensitive). Connection
    /// options arrive this way — `Connection: close, TE` means close —
    /// so comparing a whole header value against one token misreads
    /// legal messages.
    pub fn has_token(&self, name: &str, token: &str) -> bool {
        self.get_all(name).flat_map(|v| v.split(',')).any(|t| t.trim().eq_ignore_ascii_case(token))
    }

    /// Iterate all `(name, value)` pairs in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &str)> {
        self.entries.iter().map(|(n, v)| (n.as_str(), v.as_str()))
    }

    /// Number of header lines.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// No headers at all?
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Header marking a non-idempotent request as safe to replay: the
/// origin deduplicates on the key, so gateways may retry/hedge the
/// POST without double-executing its side effect.
pub const IDEMPOTENCY_KEY: &str = "Idempotency-Key";

/// A process-unique idempotency key: one value per *logical* request.
/// Attach it with [`Request::with_idempotency_key`]; every transport
/// retry of that request must reuse the same key.
pub fn fresh_idempotency_key() -> String {
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::OnceLock;
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    static BASE: OnceLock<u64> = OnceLock::new();
    let base = *BASE.get_or_init(|| {
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        t ^ (&COUNTER as *const _ as u64).rotate_left(32)
    });
    let n = COUNTER.fetch_add(1, Ordering::Relaxed) + 1;
    format!("{base:016x}-{n:012x}")
}

/// An HTTP request.
#[derive(Debug, Clone)]
pub struct Request {
    /// Request method.
    pub method: Method,
    /// Target: for server-side requests the path + query (`/a/b?x=1`);
    /// for client-side the full URL (`http://h:1/a`, `mem://svc/a`).
    pub target: String,
    /// Header lines.
    pub headers: Headers,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Request {
    /// Build a request with an empty body.
    pub fn new(method: Method, target: impl Into<String>) -> Self {
        Request { method, target: target.into(), headers: Headers::new(), body: Vec::new() }
    }

    /// GET convenience.
    pub fn get(target: impl Into<String>) -> Self {
        Request::new(Method::Get, target)
    }

    /// POST with a body.
    pub fn post(target: impl Into<String>, body: Vec<u8>) -> Self {
        Request::new(Method::Post, target).with_body_bytes(body)
    }

    /// PUT with a body.
    pub fn put(target: impl Into<String>, body: Vec<u8>) -> Self {
        Request::new(Method::Put, target).with_body_bytes(body)
    }

    /// DELETE convenience.
    pub fn delete(target: impl Into<String>) -> Self {
        Request::new(Method::Delete, target)
    }

    /// Builder: add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.add(name, value);
        self
    }

    /// Builder: mark this request replay-safe under `key` (see
    /// [`IDEMPOTENCY_KEY`]).
    pub fn with_idempotency_key(mut self, key: &str) -> Self {
        self.headers.set(IDEMPOTENCY_KEY, key);
        self
    }

    /// The request's idempotency key, if it carries one.
    pub fn idempotency_key(&self) -> Option<&str> {
        self.headers.get(IDEMPOTENCY_KEY)
    }

    /// Whether a gateway may retry or hedge this request without
    /// risking a duplicated side effect: the method is idempotent by
    /// definition, or the caller attached an idempotency key the
    /// origin deduplicates on.
    pub fn is_replay_safe(&self) -> bool {
        self.method.is_idempotent() || self.idempotency_key().is_some()
    }

    /// Builder: set the raw body.
    pub fn with_body_bytes(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Builder: set a text body and content type.
    pub fn with_text(mut self, content_type: &str, text: &str) -> Self {
        self.headers.set("Content-Type", content_type);
        self.body = text.as_bytes().to_vec();
        self
    }

    /// Body as UTF-8 (lossless; errors on invalid bytes).
    pub fn text(&self) -> HttpResult<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))
    }

    /// Parse the body as JSON, borrowing escape-free strings straight
    /// from the body bytes the transport read off the socket — no
    /// intermediate copy between the wire and the value.
    pub fn json(&self) -> HttpResult<soc_json::ValueRef<'_>> {
        soc_json::parse_ref(self.text()?)
            .map_err(|e| HttpError::Malformed(format!("bad JSON body: {e}")))
    }

    /// The path component of [`Request::target`] (before `?`).
    pub fn path(&self) -> &str {
        let t = &self.target;
        // Strip scheme://host for absolute-form targets.
        let after_scheme = match t.find("://") {
            Some(i) => {
                let rest = &t[i + 3..];
                match rest.find('/') {
                    Some(j) => &rest[j..],
                    None => "/",
                }
            }
            None => t.as_str(),
        };
        after_scheme.split('?').next().unwrap_or("/")
    }

    /// Parse the query string into decoded pairs.
    pub fn query_pairs(&self) -> Vec<(String, String)> {
        match self.target.split_once('?') {
            Some((_, q)) => crate::url::parse_form(q),
            None => Vec::new(),
        }
    }

    /// First query parameter named `key`.
    pub fn query(&self, key: &str) -> Option<String> {
        self.query_pairs().into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    /// Parse an `application/x-www-form-urlencoded` body.
    pub fn form_pairs(&self) -> Vec<(String, String)> {
        self.text().map(crate::url::parse_form).unwrap_or_default()
    }

    /// First form field named `key`.
    pub fn form(&self, key: &str) -> Option<String> {
        self.form_pairs().into_iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }
}

/// An HTTP response.
#[derive(Debug, Clone)]
pub struct Response {
    /// Status code.
    pub status: Status,
    /// Header lines.
    pub headers: Headers,
    /// Raw body bytes.
    pub body: Vec<u8>,
}

impl Response {
    /// Empty response with the given status.
    pub fn new(status: Status) -> Self {
        Response { status, headers: Headers::new(), body: Vec::new() }
    }

    /// 200 with a `text/plain` body.
    pub fn text(body: impl Into<String>) -> Self {
        Response::new(Status::OK).with_text("text/plain; charset=utf-8", &body.into())
    }

    /// 200 with an `application/json` body.
    pub fn json(body: &str) -> Self {
        Response::new(Status::OK).with_text("application/json", body)
    }

    /// 200 with a `text/xml` body.
    pub fn xml(body: &str) -> Self {
        Response::new(Status::OK).with_text("text/xml; charset=utf-8", body)
    }

    /// 200 with an `application/json` body, taking ownership of an
    /// already-built buffer (pair with `Value::write_into` to render
    /// into a reused allocation and move it here without copying).
    pub fn json_owned(body: String) -> Self {
        let mut resp = Response::new(Status::OK);
        resp.headers.set("Content-Type", "application/json");
        resp.body = body.into_bytes();
        resp
    }

    /// 200 with a `text/xml` body, taking ownership of an already-built
    /// buffer. Unlike [`Response::xml`] the body bytes are moved, not
    /// copied — pair with the zero-copy serializers in `soc-xml`.
    pub fn xml_owned(body: String) -> Self {
        let mut resp = Response::new(Status::OK);
        resp.headers.set("Content-Type", "text/xml; charset=utf-8");
        resp.body = body.into_bytes();
        resp
    }

    /// 200 with a `text/html` body.
    pub fn html(body: &str) -> Self {
        Response::new(Status::OK).with_text("text/html; charset=utf-8", body)
    }

    /// An error response with a plain-text explanation.
    pub fn error(status: Status, detail: &str) -> Self {
        Response::new(status).with_text("text/plain; charset=utf-8", detail)
    }

    /// 302 redirect.
    pub fn redirect(location: &str) -> Self {
        let mut r = Response::new(Status::FOUND);
        r.headers.set("Location", location);
        r
    }

    /// Builder: add a header.
    pub fn with_header(mut self, name: &str, value: &str) -> Self {
        self.headers.add(name, value);
        self
    }

    /// Builder: set the raw body.
    pub fn with_body_bytes(mut self, body: Vec<u8>) -> Self {
        self.body = body;
        self
    }

    /// Builder: set a text body and content type.
    pub fn with_text(mut self, content_type: &str, text: &str) -> Self {
        self.headers.set("Content-Type", content_type);
        self.body = text.as_bytes().to_vec();
        self
    }

    /// Body as UTF-8.
    pub fn text_body(&self) -> HttpResult<&str> {
        std::str::from_utf8(&self.body)
            .map_err(|_| HttpError::Malformed("body is not UTF-8".into()))
    }

    /// `Content-Type` header, if present.
    pub fn content_type(&self) -> Option<&str> {
        self.headers.get("Content-Type")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_json_parses_borrowed_from_the_body() {
        let req = Request::post("/svc", br#"{"name":"echo","n":1}"#.to_vec());
        let v = req.json().unwrap();
        assert_eq!(v.get("name").and_then(|v| v.as_str()), Some("echo"));
        assert_eq!(v.get("n").and_then(|v| v.as_i64()), Some(1));
        assert!(Request::post("/svc", b"{oops".to_vec()).json().is_err());
        assert!(Request::post("/svc", vec![0xff, 0xfe]).json().is_err());
    }

    #[test]
    fn json_owned_moves_the_buffer() {
        let resp = Response::json_owned("{\"a\":1}".to_string());
        assert_eq!(resp.content_type(), Some("application/json"));
        assert_eq!(resp.body, b"{\"a\":1}");
    }

    #[test]
    fn method_parse_and_properties() {
        assert_eq!(Method::parse("GET"), Some(Method::Get));
        assert_eq!(Method::parse("get"), None);
        assert_eq!(Method::parse("BREW"), None);
        assert!(Method::Get.is_safe());
        assert!(!Method::Post.is_idempotent());
        assert!(Method::Put.is_idempotent());
        assert_eq!(Method::Delete.to_string(), "DELETE");
    }

    #[test]
    fn status_classes() {
        assert!(Status::OK.is_success());
        assert!(!Status::NOT_FOUND.is_success());
        assert!(Status::NOT_FOUND.is_error());
        assert_eq!(Status::NOT_FOUND.to_string(), "404 Not Found");
        assert_eq!(Status(299).reason(), "Unknown");
    }

    #[test]
    fn headers_case_insensitive_multimap() {
        let mut h = Headers::new();
        h.add("Content-Type", "a");
        h.add("content-type", "b");
        assert_eq!(h.get("CONTENT-TYPE"), Some("a"));
        assert_eq!(h.get_all("Content-Type").count(), 2);
        h.set("Content-Type", "c");
        assert_eq!(h.get_all("content-type").count(), 1);
        assert_eq!(h.get("content-type"), Some("c"));
        h.remove("CONTENT-type");
        assert!(h.is_empty());
    }

    #[test]
    fn request_path_and_query() {
        let r = Request::get("/svc/echo?msg=hi%20there&n=2");
        assert_eq!(r.path(), "/svc/echo");
        assert_eq!(r.query("msg").as_deref(), Some("hi there"));
        assert_eq!(r.query("n").as_deref(), Some("2"));
        assert_eq!(r.query("absent"), None);
    }

    #[test]
    fn absolute_form_target_path() {
        let r = Request::get("http://host:8080/a/b?x=1");
        assert_eq!(r.path(), "/a/b");
        let r = Request::get("mem://svc");
        assert_eq!(r.path(), "/");
    }

    #[test]
    fn form_body_parsing() {
        let r = Request::post("/login", Vec::new())
            .with_text("application/x-www-form-urlencoded", "user=ann&pass=a%26b");
        assert_eq!(r.form("user").as_deref(), Some("ann"));
        assert_eq!(r.form("pass").as_deref(), Some("a&b"));
    }

    #[test]
    fn response_builders() {
        let r = Response::json("{\"ok\":true}");
        assert_eq!(r.content_type(), Some("application/json"));
        assert_eq!(r.text_body().unwrap(), "{\"ok\":true}");
        let r = Response::redirect("/next");
        assert_eq!(r.status, Status::FOUND);
        assert_eq!(r.headers.get("Location"), Some("/next"));
    }

    #[test]
    fn non_utf8_body_is_error_not_panic() {
        let r = Response::new(Status::OK).with_body_bytes(vec![0xff, 0xfe]);
        assert!(r.text_body().is_err());
    }
}
