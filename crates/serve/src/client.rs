//! The client side: one-request connections, a frame iterator, and demo
//! request builders shared by the `scal_client` binary, the CI smoke job,
//! and the soak test.

use crate::proto::{JobSpec, PROTOCOL_VERSION};
use scal_obs::json::{self, JsonValue};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::OnceLock;
use std::time::Duration;

/// A campaign-service client bound to one server address.
#[derive(Debug, Clone)]
pub struct Client {
    addr: String,
}

/// One response frame: the line as received, checked to be one JSON value.
///
/// The top-level `"frame"` member (the frame's kind) is read while the line
/// is checked; the whole [`JsonValue`] tree is built only on the first read
/// of any other member, so a client that looks only at kinds (an event
/// stream followed to its `result`) builds no tree per frame.
#[derive(Debug, Clone)]
pub struct Frame {
    line: String,
    kind: Option<JsonValue>,
    tree: OnceLock<JsonValue>,
}

impl Frame {
    /// Checks `line` as one JSON value and keeps it as a frame.
    ///
    /// # Errors
    ///
    /// The message [`json::parse`] returns for the same line.
    pub fn from_line(line: String) -> Result<Frame, String> {
        let kind = json::validate_member(&line, "frame")?;
        Ok(Frame {
            line,
            kind,
            tree: OnceLock::new(),
        })
    }

    /// The frame as received, without its newline.
    #[must_use]
    pub fn line(&self) -> &str {
        &self.line
    }

    /// The frame's kind: its `"frame"` member, if that is a string.
    #[must_use]
    pub fn kind(&self) -> Option<&str> {
        self.kind.as_ref().and_then(JsonValue::as_str)
    }

    /// Top-level member `key` (the last one, if repeated). `"frame"` is
    /// answered from the member read while checking; any other key builds
    /// the tree on its first read.
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        if key == "frame" {
            self.kind.as_ref()
        } else {
            self.value().get(key)
        }
    }

    /// The whole frame as a tree, built on the first call. The parse
    /// cannot fail: [`Frame::from_line`] checked the line by its grammar.
    #[must_use]
    pub fn value(&self) -> &JsonValue {
        self.tree
            .get_or_init(|| json::parse(&self.line).expect("a checked line parses"))
    }
}

/// Iterates the frames of one request's response stream.
#[derive(Debug)]
pub struct FrameStream {
    reader: BufReader<TcpStream>,
}

impl Iterator for FrameStream {
    type Item = std::io::Result<Frame>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut line = String::new();
        // Blank lines carry no frame; skip them in a loop, so a peer that
        // sends any number of them cannot exhaust the stack.
        loop {
            line.clear();
            match self.reader.read_line(&mut line) {
                Ok(0) => return None,
                Ok(_) if line.trim_end().is_empty() => {}
                Ok(_) => {
                    line.truncate(line.trim_end().len());
                    return Some(Frame::from_line(line).map_err(|e| {
                        std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("bad frame: {e}"),
                        )
                    }));
                }
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

impl Client {
    /// A client for the server at `addr` (e.g. `"127.0.0.1:7444"`).
    #[must_use]
    pub fn new(addr: impl Into<String>) -> Self {
        Client { addr: addr.into() }
    }

    /// Sends one raw request line and returns the response frame stream.
    ///
    /// # Errors
    ///
    /// Propagates connection and write failures.
    pub fn request(&self, line: &str) -> std::io::Result<FrameStream> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.write_all(line.as_bytes())?;
        stream.write_all(b"\n")?;
        stream.flush()?;
        Ok(FrameStream {
            reader: BufReader::new(stream),
        })
    }

    /// Submits a job and returns the frame stream (`accepted`, `event`…,
    /// then a terminal `result` or `error`).
    ///
    /// # Errors
    ///
    /// Propagates connection and write failures.
    pub fn submit(&self, spec: &JobSpec) -> std::io::Result<FrameStream> {
        self.request(&spec.to_request_line())
    }

    /// Cancels job `id`. Returns whether the server still knew the job.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a non-`cancel_ack` response.
    pub fn cancel(&self, id: u64) -> std::io::Result<bool> {
        let line = format!("{{\"cmd\":\"cancel\",\"v\":{PROTOCOL_VERSION},\"id\":{id}}}");
        let frame = self.single_frame(&line)?;
        match frame.get("found") {
            Some(JsonValue::Bool(found)) => Ok(*found),
            _ => Err(bad_frame("cancel_ack without \"found\"")),
        }
    }

    /// Fetches scheduler counters `(queued, running, done)`.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a non-`status` response.
    pub fn status(&self) -> std::io::Result<(u64, u64, u64)> {
        let line = format!("{{\"cmd\":\"status\",\"v\":{PROTOCOL_VERSION}}}");
        let frame = self.single_frame(&line)?;
        let num = |k: &str| {
            frame
                .get(k)
                .and_then(JsonValue::as_f64)
                .map(|n| n as u64)
                .ok_or_else(|| bad_frame("status frame missing counters"))
        };
        Ok((num("queued")?, num("running")?, num("done")?))
    }

    /// Fetches the full status frame, extended counters (uptime,
    /// per-priority queue depths, cumulative job outcomes) included.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a missing response frame.
    pub fn status_frame(&self) -> std::io::Result<Frame> {
        let line = format!("{{\"cmd\":\"status\",\"v\":{PROTOCOL_VERSION}}}");
        self.single_frame(&line)
    }

    /// Fetches the flight-recorder dump: the most recent job lifecycle
    /// events as parsed JSON objects, oldest → newest. They are values
    /// inside the one `dump` frame, not frames of their own.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a non-`dump` response.
    pub fn dump(&self) -> std::io::Result<Vec<JsonValue>> {
        let line = format!("{{\"cmd\":\"dump\",\"v\":{PROTOCOL_VERSION}}}");
        let frame = self.single_frame(&line)?;
        match frame.get("events").and_then(JsonValue::as_array) {
            Some(events) => Ok(events.to_vec()),
            None => Err(bad_frame("dump frame without \"events\"")),
        }
    }

    /// Asks the server to drain and exit.
    ///
    /// # Errors
    ///
    /// Fails on connection errors or a missing ack.
    pub fn shutdown(&self) -> std::io::Result<()> {
        let line = format!("{{\"cmd\":\"shutdown\",\"v\":{PROTOCOL_VERSION}}}");
        let frame = self.single_frame(&line)?;
        match frame.kind() {
            Some("shutdown_ack") => Ok(()),
            _ => Err(bad_frame("expected shutdown_ack")),
        }
    }

    fn single_frame(&self, line: &str) -> std::io::Result<Frame> {
        self.request(line)?
            .next()
            .ok_or_else(|| bad_frame("connection closed without a frame"))?
    }

    /// Polls until the server accepts connections (handy right after
    /// spawning it). Returns `false` on timeout.
    #[must_use]
    pub fn wait_ready(&self, timeout: Duration) -> bool {
        let start = std::time::Instant::now();
        while start.elapsed() < timeout {
            if self.status().is_ok() {
                return true;
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        false
    }
}

fn bad_frame(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// Fetches `path` (e.g. `"/metrics"`, `"/healthz"`) from the server's
/// metrics listener at `addr` over HTTP/1.1 and returns the response body.
/// The minimal consumer-side counterpart of the server's minimal
/// responder, used by `scal_top` and the tests; a real deployment points a
/// real Prometheus scraper at the same endpoint.
///
/// # Errors
///
/// Fails on connection errors or a non-`200` status line.
pub fn http_get(addr: &str, path: &str) -> std::io::Result<String> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(5)))?;
    let request = format!("GET {path} HTTP/1.1\r\nHost: {addr}\r\nConnection: close\r\n\r\n");
    stream.write_all(request.as_bytes())?;
    stream.flush()?;
    let mut reader = BufReader::new(stream);
    let mut status = String::new();
    reader.read_line(&mut status)?;
    if !status.contains("200") {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            format!("http status: {}", status.trim()),
        ));
    }
    // Skip headers (Connection: close lets us read the body to EOF).
    let mut line = String::new();
    loop {
        line.clear();
        let n = reader.read_line(&mut line)?;
        if n == 0 || line == "\r\n" || line == "\n" {
            break;
        }
    }
    let mut body = String::new();
    std::io::Read::read_to_string(&mut reader, &mut body)?;
    Ok(body)
}

/// Ready-made job specs over the workspace's own circuits — the demo/smoke
/// request vocabulary.
pub mod demo {
    use crate::proto::{FaultSpec, JobKind, JobSpec};
    use scal_engine::EvalMode;
    use scal_netlist::{Circuit, GateKind, NetlistFormat};
    use scal_seq::SeqBackend;
    use scal_system::campaign::CpuUnit;

    /// A 3-input XOR tree — self-dual, so a valid alternating network.
    #[must_use]
    pub fn xor3() -> Circuit {
        let mut c = Circuit::new();
        let a = c.input("a");
        let b = c.input("b");
        let d = c.input("c");
        let ab = c.gate(GateKind::Xor, &[a, b]);
        let x = c.gate(GateKind::Xor, &[ab, d]);
        c.mark_output("f", x);
        c
    }

    /// A pair-campaign spec over [`xor3`].
    #[must_use]
    pub fn pair_spec(priority: u8, scalar: bool) -> JobSpec {
        JobSpec {
            kind: JobKind::Pair {
                circuit: xor3(),
                faults: FaultSpec::All,
                drop_after_detection: false,
                eval_mode: EvalMode::Cone,
                scalar,
            },
            priority,
            timeout_ms: None,
            threads: 1,
            stream: true,
            fault_collapse: None,
            netlist_format: NetlistFormat::ScalText,
        }
    }

    /// The driven word sequence used by the seq demos: every length-`n`
    /// prefix pattern of alternating 0/1 plus a 0101 burst, exercising the
    /// Kohavi detector's accept path.
    #[must_use]
    pub fn demo_words(n: usize) -> Vec<Vec<bool>> {
        (0..n).map(|i| vec![matches!(i % 4, 1 | 3)]).collect()
    }

    /// A seq-campaign spec over the Reynolds dual flip-flop Kohavi machine.
    #[must_use]
    pub fn seq_spec(priority: u8, backend: SeqBackend, words: usize) -> JobSpec {
        JobSpec {
            kind: JobKind::Seq {
                machine: scal_seq::kohavi::reynolds_circuit(),
                words: demo_words(words),
                backend,
            },
            priority,
            timeout_ms: None,
            threads: 1,
            stream: true,
            fault_collapse: None,
            netlist_format: NetlistFormat::ScalText,
        }
    }

    /// A CPU-campaign spec over the logic unit with one workload (the
    /// cheapest CPU campaign — CPU jobs are the service's heavyweights).
    #[must_use]
    pub fn cpu_spec(priority: u8) -> JobSpec {
        JobSpec {
            kind: JobKind::Cpu {
                unit: CpuUnit::Logic,
                budget: 50_000,
                workloads: Some(vec!["popcount(0xB7)".to_owned()]),
            },
            priority,
            timeout_ms: None,
            threads: 1,
            stream: true,
            fault_collapse: None,
            netlist_format: NetlistFormat::ScalText,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// A one-connection peer that reads the request line, sends `reply`
    /// and closes.
    fn peer(reply: Vec<u8>) -> (String, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr").to_string();
        let peer = std::thread::spawn(move || {
            let (mut stream, _) = listener.accept().expect("accept");
            // Read the whole request line: closing with unread bytes would
            // reset the connection under the client.
            let mut request = String::new();
            BufReader::new(&stream)
                .read_line(&mut request)
                .expect("request");
            stream.write_all(&reply).expect("reply");
        });
        (addr, peer)
    }

    #[test]
    fn long_runs_of_blank_lines_are_skipped_without_recursion() {
        // A million blank lines — far past what one stack frame per line
        // could survive — then one frame, then EOF.
        const BLANK: usize = 1_000_000;
        let mut reply = "\n \r\n\t\n".repeat(BLANK / 3).into_bytes();
        reply.extend_from_slice(b"{\"frame\":\"status\"}\n\n");
        let (addr, peer) = peer(reply);
        let mut frames = Client::new(addr).request("{}").expect("request");
        let frame = frames.next().expect("one frame").expect("valid frame");
        assert_eq!(frame.kind(), Some("status"));
        assert_eq!(frame.line(), "{\"frame\":\"status\"}");
        assert!(frames.next().is_none(), "trailing blank line, then EOF");
        peer.join().expect("peer");
    }

    #[test]
    fn a_malformed_line_is_rejected_when_read() {
        let bad = "{\"frame\":\"event\",\"id\":}";
        let (addr, peer) = peer(format!("{bad}\r\n{{\"frame\":\"result\"}}\n").into_bytes());
        let mut frames = Client::new(addr).request("{}").expect("request");
        let err = frames.next().expect("a line").expect_err("malformed");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        let want = json::parse(bad).expect_err("malformed");
        assert_eq!(err.to_string(), format!("bad frame: {want}"));
        let next = frames.next().expect("next line").expect("valid frame");
        assert_eq!(next.kind(), Some("result"));
        peer.join().expect("peer");
    }
}
