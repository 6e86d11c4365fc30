//! Wire load: `BATCH` requests pipelined over one loopback connection to a
//! `priosched-serve` server, on a schedule or back to back.
//!
//! The calling thread writes requests; one reader thread matches the
//! replies in order (the server answers one request at a time, in order).
//! Every pass ends with a `PING` sentinel so the reader knows the last
//! reply without knowing in advance how many requests were sent.

use crate::openloop::{generate, latency_ns, Clock, RealClock, Schedule};
use crate::stream::draw_value;
use crate::SplitMix64;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Instant;

/// One client connection.
pub struct NetConn {
    writer: TcpStream,
    reader: BufReader<TcpStream>,
}

/// What one pass over the wire produced.
#[derive(Debug, Default)]
pub struct NetPass {
    /// Due-to-reply latency of every request, ns, in request order
    /// (scheduled passes only).
    pub latency_ns: Vec<u64>,
    /// Writer lateness (send − due), ns, ascending (scheduled passes only).
    pub lateness_ns: Vec<u64>,
    /// Requests sent.
    pub requests: u64,
    /// Replies that were not `OK <batch>`, plus requests never answered.
    pub bad_replies: u64,
    /// Executions the countdown oracle expects from the accepted jobs.
    pub expected_executions: u64,
}

/// A pre-rendered `BATCH` request and the executions it accounts for.
pub struct Request {
    line: String,
    executions: u64,
}

/// Renders `count` requests of `batch` jobs each, drawn from `rng`.
pub fn render(
    count: usize,
    batch: usize,
    max_value: u32,
    k: usize,
    rng: &mut SplitMix64,
) -> Vec<Request> {
    (0..count)
        .map(|_| {
            let mut line = format!("BATCH {k}");
            let mut executions = 0;
            for _ in 0..batch {
                let value = draw_value(rng, max_value);
                let prio = rng.next_u64() >> 44;
                line.push_str(&format!(" {prio}:{value}"));
                executions += value as u64 + 1;
            }
            line.push('\n');
            Request { line, executions }
        })
        .collect()
}

impl NetConn {
    /// Connects to `addr` with Nagle's algorithm off.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetConn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
        })
    }

    /// Sends one line and returns the reply line, trimmed.
    pub fn call(&mut self, line: &str) -> std::io::Result<String> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        let mut reply = String::new();
        if self.reader.read_line(&mut reply)? == 0 {
            return Err(std::io::ErrorKind::UnexpectedEof.into());
        }
        Ok(reply.trim_end().to_string())
    }

    /// `PING` round trips on an otherwise idle connection, ns each.
    pub fn ping(&mut self, n: usize) -> std::io::Result<Vec<u64>> {
        let mut rtts = Vec::with_capacity(n);
        for _ in 0..n {
            let t0 = Instant::now();
            let reply = self.call("PING")?;
            rtts.push(t0.elapsed().as_nanos() as u64);
            if reply != "PONG" {
                return Err(std::io::Error::other(format!("PING got {reply:?}")));
            }
        }
        Ok(rtts)
    }

    /// `JOIN`: waits for the server to drain and returns its `DONE` count.
    pub fn join(&mut self) -> std::io::Result<u64> {
        let reply = self.call("JOIN")?;
        reply
            .strip_prefix("DONE ")
            .and_then(|n| n.parse().ok())
            .ok_or_else(|| std::io::Error::other(format!("JOIN got {reply:?}")))
    }

    /// Sends `requests` on `schedule` (or, when `schedule` is `None`,
    /// `count` of them back to back, cycling through `requests`) while a
    /// reader thread matches the in-order replies.
    pub fn pass(
        &mut self,
        clock: &RealClock,
        requests: &[Request],
        batch: usize,
        schedule: Option<&Schedule>,
        count: usize,
    ) -> NetPass {
        let expect = format!("OK {batch}");
        let mut out = NetPass::default();
        let reader = &mut self.reader;
        let writer = &mut self.writer;
        std::thread::scope(|s| {
            let reply_thread = s.spawn(|| {
                // (latency per scheduled request, bad replies, replies,
                // whether the sentinel's reply arrived)
                let mut latency = Vec::new();
                let mut bad = 0u64;
                let mut line = String::new();
                let mut i = 0usize;
                loop {
                    line.clear();
                    match reader.read_line(&mut line) {
                        Ok(0) | Err(_) => return (latency, bad, i, false),
                        Ok(_) => {}
                    }
                    let now = clock.now_ns();
                    let got = line.trim_end();
                    if got == "PONG" {
                        return (latency, bad, i, true);
                    }
                    if got != expect {
                        bad += 1;
                    }
                    if let Some(sched) = schedule {
                        latency.push(latency_ns(sched.due(i), now));
                    }
                    i += 1;
                }
            });
            let mut sent = 0u64;
            let mut executions = 0u64;
            let mut write_ok = true;
            match schedule {
                Some(sched) => {
                    let lateness = generate(clock, sched, |i, _due| {
                        let req = &requests[i % requests.len()];
                        write_ok = writer.write_all(req.line.as_bytes()).is_ok();
                        if write_ok {
                            sent += 1;
                            executions += req.executions;
                        }
                        write_ok
                    });
                    out.lateness_ns = lateness;
                }
                None => {
                    for req in requests.iter().cycle().take(count) {
                        write_ok = writer.write_all(req.line.as_bytes()).is_ok();
                        if !write_ok {
                            break;
                        }
                        sent += 1;
                        executions += req.executions;
                    }
                }
            }
            if !write_ok || writer.write_all(b"PING\n").is_err() {
                // A broken connection: make sure the reader sees EOF.
                let _ = writer.shutdown(std::net::Shutdown::Both);
            }
            let (latency, bad, answered, sentinel) =
                reply_thread.join().expect("reply reader must not panic");
            out.requests = sent;
            out.expected_executions = executions;
            out.bad_replies = bad + sent.saturating_sub(answered as u64);
            if !sentinel {
                out.bad_replies = out.bad_replies.max(1);
            }
            out.latency_ns = latency;
        });
        out.lateness_ns.sort_unstable();
        out
    }
}
