//! The live scrape endpoint: a hand-rolled, blocking HTTP/1.1 server on
//! `std::net::TcpListener`.
//!
//! One thread accepts connections and answers `GET /metrics`,
//! `GET /health`, `GET /alerts`, and `GET /dashboard` from the most
//! recently published [`MonitorState`]. Publication reuses the qb-serve
//! [`Swap`]: the monitor publishes an immutable state per round and the
//! serving thread holds whichever state is current for exactly the
//! duration of one response — a scrape can never observe a half-written
//! snapshot, and a long slow scrape never blocks the pipeline's next
//! publication.

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use qb_serve::{ReadHandle, Swap, Versioned};

/// One immutable, epoch-numbered publication of everything the endpoint
/// serves. Built once per controller round by the monitor.
#[derive(Debug, Clone, Default)]
pub struct MonitorState {
    /// Publication sequence number (0 = nothing observed yet).
    pub epoch: u64,
    /// Latest observed round.
    pub round: u64,
    /// `/metrics` body (Prometheus text exposition).
    pub metrics: String,
    /// `/health` body (JSON).
    pub health: String,
    /// `/alerts` body (JSON).
    pub alerts: String,
    /// `/dashboard` body (deterministic text dashboard).
    pub dashboard: String,
}

impl Versioned for MonitorState {
    fn version(&self) -> u64 {
        self.epoch
    }
}

/// The blocking scrape server. Dropping it shuts the serving thread down.
#[derive(Debug)]
pub struct MonitorServer {
    addr: SocketAddr,
    shutdown: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

impl MonitorServer {
    /// Binds `127.0.0.1:port` (0 picks an ephemeral port) and starts the
    /// serving thread over `state`.
    pub fn start(port: u16, state: Arc<Swap<MonitorState>>) -> std::io::Result<Self> {
        let listener = TcpListener::bind(("127.0.0.1", port))?;
        let addr = listener.local_addr()?;
        let shutdown = Arc::new(AtomicBool::new(false));
        let thread_shutdown = Arc::clone(&shutdown);
        let handle = std::thread::Builder::new()
            .name("qb-monitor-http".into())
            .spawn(move || serve(listener, state, thread_shutdown))?;
        Ok(Self { addr, shutdown, handle: Some(handle) })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops the serving thread and joins it.
    pub fn shutdown(&mut self) {
        if self.handle.is_none() {
            return;
        }
        self.shutdown.store(true, Ordering::SeqCst);
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for MonitorServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn serve(listener: TcpListener, state: Arc<Swap<MonitorState>>, shutdown: Arc<AtomicBool>) {
    let reader = ReadHandle::new(state);
    for conn in listener.incoming() {
        if shutdown.load(Ordering::SeqCst) {
            break;
        }
        let Ok(mut stream) = conn else { continue };
        let _ = stream.set_read_timeout(Some(Duration::from_secs(2)));
        let _ = stream.set_write_timeout(Some(Duration::from_secs(2)));
        let _ = respond(&mut stream, &reader);
    }
}

/// Reads the request head (enough of it for the request line) and writes
/// one response. Connection: close — scrapers reconnect per scrape.
fn respond(stream: &mut TcpStream, reader: &ReadHandle<MonitorState>) -> std::io::Result<()> {
    let mut buf = [0u8; 2048];
    let mut read = 0;
    // Read until the header terminator or the buffer fills; the request
    // line is all that matters.
    while read < buf.len() {
        let n = stream.read(&mut buf[read..])?;
        if n == 0 {
            break;
        }
        read += n;
        if buf[..read].windows(4).any(|w| w == b"\r\n\r\n") {
            break;
        }
    }
    let head = String::from_utf8_lossy(&buf[..read]);
    let mut parts = head.lines().next().unwrap_or("").split_whitespace();
    let (method, path) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
    if method != "GET" {
        return write_response(stream, 405, "text/plain; charset=utf-8", "method not allowed\n");
    }
    // Pin the current state for exactly one response.
    let (status, content_type, body) = reader.with(|state| match path {
        "/metrics" => (200, "text/plain; version=0.0.4; charset=utf-8", state.metrics.clone()),
        "/health" => (200, "application/json", state.health.clone()),
        "/alerts" => (200, "application/json", state.alerts.clone()),
        "/dashboard" => (200, "text/plain; charset=utf-8", state.dashboard.clone()),
        _ => (404, "text/plain; charset=utf-8", "not found\n".to_string()),
    });
    write_response(stream, status, content_type, &body)
}

fn write_response(
    stream: &mut TcpStream,
    status: u16,
    content_type: &str,
    body: &str,
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        404 => "Not Found",
        405 => "Method Not Allowed",
        _ => "Error",
    };
    let head = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: {content_type}\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    fn get(addr: SocketAddr, path: &str) -> (u16, String, String) {
        let mut stream = TcpStream::connect(addr).expect("connect");
        write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("request");
        let mut reader = BufReader::new(stream);
        let mut status_line = String::new();
        reader.read_line(&mut status_line).expect("status line");
        let status: u16 = status_line.split_whitespace().nth(1).unwrap().parse().unwrap();
        let mut content_type = String::new();
        let mut line = String::new();
        loop {
            line.clear();
            reader.read_line(&mut line).expect("header");
            if line == "\r\n" || line.is_empty() {
                break;
            }
            if let Some(v) = line.strip_prefix("Content-Type: ") {
                content_type = v.trim().to_string();
            }
        }
        let mut body = String::new();
        reader.read_to_string(&mut body).expect("body");
        (status, content_type, body)
    }

    #[test]
    fn serves_pinned_state_and_404s_unknown_paths() {
        let swap = Arc::new(Swap::new(Arc::new(MonitorState {
            epoch: 1,
            round: 7,
            metrics: "# TYPE x counter\nx 1\n".into(),
            health: "{\"status\":\"ok\"}".into(),
            alerts: "[]".into(),
            dashboard: "== dash ==\n".into(),
        })));
        let mut server = MonitorServer::start(0, Arc::clone(&swap)).expect("bind");
        let addr = server.addr();

        let (status, ct, body) = get(addr, "/metrics");
        assert_eq!(status, 200);
        assert!(ct.starts_with("text/plain"));
        assert_eq!(body, "# TYPE x counter\nx 1\n");
        assert_eq!(get(addr, "/health"), (200, "application/json".into(), "{\"status\":\"ok\"}".into()));
        assert_eq!(get(addr, "/alerts").2, "[]");
        assert_eq!(get(addr, "/dashboard").0, 200);
        assert_eq!(get(addr, "/nope").0, 404);

        // A publication between scrapes is visible to the next scrape.
        swap.publish(Arc::new(MonitorState {
            epoch: 2,
            round: 8,
            metrics: "# TYPE x counter\nx 2\n".into(),
            ..MonitorState::default()
        }));
        assert_eq!(get(addr, "/metrics").2, "# TYPE x counter\nx 2\n");

        server.shutdown();
        // After shutdown the port stops answering.
        assert!(TcpStream::connect_timeout(&addr, Duration::from_millis(200)).is_err());
    }
}
