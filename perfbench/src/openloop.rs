//! Load generation over pre-encoded request lines.
//!
//! The open loop sends each request at its due time whether or not earlier
//! replies have arrived, pipelined on its connection, and times each request
//! from when it was due: a stall delays every request due during it, and
//! the generator's own lateness (start of the send minus due time) is
//! recorded to judge whether a run's latencies are valid. The closed loop
//! sends a connection's next request only after the previous reply.
//!
//! One thread per connection both sends and reads: between sends it waits
//! for replies with a read timeout set to the next due time.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A request unanswered this long counts as failed.
const REPLY_TIMEOUT: Duration = Duration::from_secs(60);

/// One planned `preprocess` request.
#[derive(Clone)]
pub struct Planned {
    pub id: u64,
    /// Offset from the phase start at which the request is due (open loop).
    pub due: Duration,
    /// Pre-encoded `MatrixPayload` JSON.
    pub payload: Arc<str>,
}

impl Planned {
    /// The request line, without its newline.
    pub fn line(&self) -> String {
        format!("{}{}}}", self.prefix(), self.payload)
    }

    fn prefix(&self) -> String {
        format!("{{\"id\":{},\"op\":\"preprocess\",\"matrix\":", self.id)
    }

    /// Bytes on the wire, newline included.
    pub fn wire_bytes(&self) -> usize {
        self.prefix().len() + self.payload.len() + 2
    }

    fn send(&self, w: &mut UnixStream) -> io::Result<()> {
        w.write_all(self.prefix().as_bytes())?;
        w.write_all(self.payload.as_bytes())?;
        w.write_all(b"}\n")
    }
}

/// What happened to one request; times are offsets from the phase start.
#[derive(Debug, Clone)]
pub struct Outcome {
    pub id: u64,
    pub due: Duration,
    /// Start of the send.
    pub sent: Option<Duration>,
    /// Reply read.
    pub done: Option<Duration>,
    /// The reply line.
    pub reply: Option<String>,
}

impl Outcome {
    fn planned(p: &Planned) -> Self {
        Outcome {
            id: p.id,
            due: p.due,
            sent: None,
            done: None,
            reply: None,
        }
    }

    /// Reply time minus due time in ms; infinite without a reply.
    pub fn latency_from_due_ms(&self) -> f64 {
        self.done.map_or(f64::INFINITY, |d| {
            d.saturating_sub(self.due).as_secs_f64() * 1e3
        })
    }

    /// Start of the send minus due time in ms.
    pub fn late_ms(&self) -> Option<f64> {
        self.sent
            .map(|s| s.saturating_sub(self.due).as_secs_f64() * 1e3)
    }
}

/// Runs one thread per connection over its plan; returns every outcome in
/// id order and the phase's wall time.
fn drive(
    conns: Vec<UnixStream>,
    plans: Vec<Vec<Planned>>,
    each: impl Fn(UnixStream, &[Planned], Instant) -> Vec<Outcome> + Sync,
) -> (Vec<Outcome>, Duration) {
    let t0 = Instant::now();
    let mut all: Vec<Outcome> = std::thread::scope(|s| {
        let handles: Vec<_> = conns
            .into_iter()
            .zip(&plans)
            .map(|(c, plan)| {
                let each = &each;
                s.spawn(move || each(c, plan, t0))
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("a load thread panicked"))
            .collect()
    });
    let wall = t0.elapsed();
    all.sort_by_key(|o| o.id);
    (all, wall)
}

/// Open loop: request `p` is sent on its connection at `p.due`.
pub fn open_loop(conns: Vec<UnixStream>, plans: Vec<Vec<Planned>>) -> (Vec<Outcome>, Duration) {
    drive(conns, plans, open_conn)
}

/// Closed loop: each connection sends its next request once the previous
/// reply arrived, until `window` has passed.
pub fn closed_loop(
    conns: Vec<UnixStream>,
    plans: Vec<Vec<Planned>>,
    window: Duration,
) -> (Vec<Outcome>, Duration) {
    drive(conns, plans, |c, plan, t0| {
        closed_conn(c, plan, t0, t0 + window)
    })
}

fn read_reply(reader: &mut BufReader<UnixStream>, buf: &mut Vec<u8>) -> io::Result<bool> {
    // On a timeout the bytes read so far stay in `buf` for the next call.
    reader.read_until(b'\n', buf)?;
    Ok(buf.last() == Some(&b'\n'))
}

fn take_line(buf: &mut Vec<u8>) -> String {
    let line = String::from_utf8_lossy(buf).trim_end().to_string();
    buf.clear();
    line
}

fn open_conn(stream: UnixStream, plan: &[Planned], t0: Instant) -> Vec<Outcome> {
    let mut out: Vec<Outcome> = plan.iter().map(Outcome::planned).collect();
    let Ok(mut writer) = stream.try_clone() else {
        return out;
    };
    let mut reader = BufReader::new(stream);
    let mut inflight = VecDeque::new();
    let mut buf = Vec::new();
    let mut next = 0;
    loop {
        let now = Instant::now();
        let next_due = plan.get(next).map(|p| t0 + p.due);
        if next_due.is_some_and(|d| now >= d) {
            out[next].sent = Some(now - t0);
            if plan[next].send(&mut writer).is_err() {
                break;
            }
            inflight.push_back(next);
            next += 1;
            continue;
        }
        let Some(&waiting) = inflight.front() else {
            match next_due {
                Some(due) => std::thread::sleep(due - now),
                None => break,
            }
            continue;
        };
        let wait = next_due.map_or(REPLY_TIMEOUT, |d| (d - now).max(Duration::from_micros(100)));
        if reader.get_ref().set_read_timeout(Some(wait)).is_err() {
            break;
        }
        match read_reply(&mut reader, &mut buf) {
            Ok(true) => {
                out[waiting].done = Some(t0.elapsed());
                out[waiting].reply = Some(take_line(&mut buf));
                inflight.pop_front();
            }
            // End of stream: the server closed the connection.
            Ok(false) => break,
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                ) =>
            {
                if next_due.is_none() {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    out
}

/// One connection used closed-loop: send a request, wait for its reply.
pub struct Conn {
    writer: UnixStream,
    reader: BufReader<UnixStream>,
    buf: Vec<u8>,
}

impl Conn {
    pub fn new(stream: UnixStream) -> io::Result<Conn> {
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            writer: stream.try_clone()?,
            reader: BufReader::new(stream),
            buf: Vec::new(),
        })
    }

    /// Sends `p` and waits for its reply; returns the start of the send,
    /// the moment the reply was read, and the reply line.
    pub fn round_trip(&mut self, p: &Planned) -> io::Result<(Instant, Instant, String)> {
        let sent = Instant::now();
        p.send(&mut self.writer)?;
        if !read_reply(&mut self.reader, &mut self.buf)? {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed",
            ));
        }
        Ok((sent, Instant::now(), take_line(&mut self.buf)))
    }
}

fn closed_conn(stream: UnixStream, plan: &[Planned], t0: Instant, end: Instant) -> Vec<Outcome> {
    let mut out = Vec::new();
    let Ok(mut conn) = Conn::new(stream) else {
        return out;
    };
    for p in plan {
        if Instant::now() >= end {
            break;
        }
        let mut o = Outcome::planned(p);
        let result = conn.round_trip(p);
        let failed = result.is_err();
        match result {
            Ok((sent, done, reply)) => {
                o.sent = Some(sent - t0);
                o.done = Some(done - t0);
                o.reply = Some(reply);
            }
            Err(_) => o.sent = Some(t0.elapsed()),
        }
        o.due = o.sent.unwrap_or_default();
        out.push(o);
        if failed {
            break;
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::percentile;
    use std::os::linux::net::SocketAddrExt;
    use std::os::unix::net::{SocketAddr, UnixListener};

    /// A stub daemon: answers each request line with `{"id":N,"ok":true}`,
    /// sleeping `stall` before answering request `stall_id`.
    fn stub(name: &str, conns: usize, stall_id: u64, stall: Duration) -> SocketAddr {
        let addr = SocketAddr::from_abstract_name(name).expect("abstract name");
        let listener = UnixListener::bind_addr(&addr).expect("bind stub");
        std::thread::spawn(move || {
            for _ in 0..conns {
                let (stream, _) = listener.accept().expect("accept");
                std::thread::spawn(move || {
                    let mut writer = stream.try_clone().expect("clone");
                    for line in BufReader::new(stream).lines() {
                        let Ok(line) = line else { break };
                        let id: u64 = line["{\"id\":".len()..]
                            .split(',')
                            .next()
                            .and_then(|s| s.parse().ok())
                            .expect("id");
                        if id == stall_id {
                            std::thread::sleep(stall);
                        }
                        if writeln!(writer, "{{\"id\":{id},\"ok\":true}}").is_err() {
                            break;
                        }
                    }
                });
            }
        });
        addr
    }

    /// 60 requests of 1 MB each, 10 ms apart, alternating over 2 connections.
    fn run_against(name: &str, stall_id: u64, stall: Duration) -> Vec<Outcome> {
        let addr = stub(name, 2, stall_id, stall);
        let payload: Arc<str> = format!("\"{}\"", "x".repeat(1 << 20)).into();
        let mut plans = vec![Vec::new(), Vec::new()];
        for id in 0..60u64 {
            plans[id as usize % 2].push(Planned {
                id,
                due: Duration::from_millis(10 * id),
                payload: payload.clone(),
            });
        }
        let conns = (0..2)
            .map(|_| UnixStream::connect_addr(&addr).expect("connect"))
            .collect();
        let (outcomes, _) = open_loop(conns, plans);
        assert_eq!(outcomes.len(), 60);
        assert!(
            outcomes.iter().all(|o| o.reply.is_some()),
            "every request answered"
        );
        outcomes
    }

    fn late_p90(outcomes: &[Outcome]) -> f64 {
        let late: Vec<f64> = outcomes.iter().filter_map(Outcome::late_ms).collect();
        percentile(&late, 0.9).expect("samples")
    }

    #[test]
    fn one_stall_raises_later_latencies_and_generator_lateness() {
        let pid = std::process::id();
        let calm = run_against(&format!("perfbench-calm-{pid}"), u64::MAX, Duration::ZERO);
        let stalled = run_against(
            &format!("perfbench-stall-{pid}"),
            20,
            Duration::from_millis(400),
        );
        // Request 22 shares request 20's connection and was due 20 ms after
        // it: timed from its due time, it carries most of the stall.
        assert!(
            stalled[22].latency_from_due_ms() > 250.0,
            "latency of the request behind the stall: {}",
            stalled[22].latency_from_due_ms()
        );
        let calm_max = calm
            .iter()
            .map(Outcome::latency_from_due_ms)
            .fold(0.0, f64::max);
        assert!(stalled[22].latency_from_due_ms() > calm_max);
        // The 1 MB line behind the stall cannot be written while the server
        // does not read, so the requests due after it leave late.
        assert!(
            late_p90(&stalled) > 100.0,
            "gen_late p90 {}",
            late_p90(&stalled)
        );
        assert!(late_p90(&stalled) > late_p90(&calm));
    }
}
