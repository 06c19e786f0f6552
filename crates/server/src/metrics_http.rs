//! A minimal HTTP/1.1 scrape endpoint for an [`Observer`]'s metrics.
//!
//! Prometheus (and `curl`) speak a tiny, fixed slice of HTTP: one `GET`,
//! one `200 OK` with a `text/plain` body, `Connection: close`.  Hand-rolling
//! that slice keeps the endpoint dependency-free — the scraper never needs
//! more than [`MetricsSnapshot::render_prometheus`] behind a socket.
//!
//! The endpoint answers **every** request path with the full registry dump
//! (scrapers conventionally hit `/metrics`, but there is nothing else to
//! serve), and each connection is one request–response exchange.
//!
//! [`MetricsSnapshot::render_prometheus`]: ws_obs::MetricsSnapshot::render_prometheus

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use ws_obs::Observer;

/// A running scrape endpoint: its address, its stop flag, and the accept
/// thread.  Dropping the handle shuts the endpoint down.
#[derive(Debug)]
pub struct MetricsHandle {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    join: Option<JoinHandle<()>>,
}

impl MetricsHandle {
    /// The bound address (resolves an ephemeral port request).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop accepting scrapes and join the accept thread.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.stop()
    }

    fn stop(&mut self) -> io::Result<()> {
        self.stop.store(true, Ordering::SeqCst);
        // A throwaway connection unblocks the blocking accept.
        let _ = TcpStream::connect(self.addr);
        match self.join.take() {
            Some(join) => join
                .join()
                .map_err(|_| io::Error::other("the metrics accept thread panicked")),
            None => Ok(()),
        }
    }
}

impl Drop for MetricsHandle {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// Bind `addr` (port 0 for an ephemeral port) and serve `observer`'s metrics
/// registry as Prometheus text on a background thread.
pub fn serve_metrics(
    addr: impl ToSocketAddrs,
    observer: Arc<Observer>,
) -> io::Result<MetricsHandle> {
    let listener = TcpListener::bind(addr)?;
    let local = listener.local_addr()?;
    let stop = Arc::new(AtomicBool::new(false));
    let accept_stop = Arc::clone(&stop);
    let join = std::thread::Builder::new()
        .name("ws-metrics-accept".into())
        .spawn(move || {
            for conn in listener.incoming() {
                if accept_stop.load(Ordering::SeqCst) {
                    break;
                }
                let stream = match conn {
                    Ok(s) => s,
                    Err(_) => continue,
                };
                // Scrapes are rare (seconds apart) and the body is small, so
                // answering inline on the accept thread is plenty.
                let _ = answer_scrape(stream, &observer);
            }
        })?;
    Ok(MetricsHandle {
        addr: local,
        stop,
        join: Some(join),
    })
}

/// Read one request head, write one `200 OK` with the registry dump.
fn answer_scrape(mut stream: TcpStream, observer: &Arc<Observer>) -> io::Result<()> {
    drain_request_head(&mut stream)?;
    let body = observer.metrics().snapshot().render_prometheus();
    let response = format!(
        "HTTP/1.1 200 OK\r\n\
         Content-Type: text/plain; version=0.0.4; charset=utf-8\r\n\
         Content-Length: {}\r\n\
         Connection: close\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(response.as_bytes())?;
    stream.flush()
}

/// Consume the request line and headers (up to the blank line).  The method
/// and path are deliberately ignored — every request gets the dump — but the
/// head must be drained so the client does not see a reset before reading
/// our response.  Bounded so a garbage peer cannot hold the thread.
fn drain_request_head(stream: &mut TcpStream) -> io::Result<()> {
    const HEAD_LIMIT: usize = 8 * 1024;
    let mut head = Vec::new();
    let mut byte = [0u8; 1];
    while head.len() < HEAD_LIMIT {
        match stream.read(&mut byte)? {
            0 => break, // peer closed before a full head; answer anyway
            _ => head.push(byte[0]),
        }
        if head.ends_with(b"\r\n\r\n") || head.ends_with(b"\n\n") {
            break;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scrape(addr: SocketAddr) -> String {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .write_all(b"GET /metrics HTTP/1.1\r\nHost: x\r\n\r\n")
            .unwrap();
        let mut response = String::new();
        stream.read_to_string(&mut response).unwrap();
        response
    }

    #[test]
    fn scrape_round_trip() {
        let observer = Arc::new(Observer::new());
        observer.metrics().counter("wal.fsync").add(3);
        observer.metrics().histogram("exec.op.select.ns").record(17);
        let handle = serve_metrics("127.0.0.1:0", Arc::clone(&observer)).unwrap();

        let response = scrape(handle.addr());
        assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
        assert!(response.contains("Content-Type: text/plain"), "{response}");
        let body = response.split("\r\n\r\n").nth(1).unwrap();
        assert!(body.contains("ws_wal_fsync 3"), "{body}");
        assert!(body.contains("ws_exec_op_select_ns_count 1"), "{body}");
        // Content-Length must match the body exactly.
        let length: usize = response
            .lines()
            .find_map(|l| l.strip_prefix("Content-Length: "))
            .unwrap()
            .trim()
            .parse()
            .unwrap();
        assert_eq!(length, body.len());

        // A second scrape sees fresh values.
        observer.metrics().counter("wal.fsync").inc();
        assert!(scrape(handle.addr()).contains("ws_wal_fsync 4"));

        handle.shutdown().unwrap();
    }
}
