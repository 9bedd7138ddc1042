//! The load generator: one client thread driving a few keep-alive
//! connections, either on a fixed schedule (open loop) or one request
//! in flight per connection (closed loop).
//!
//! Waiting uses `ppoll(2)` with a nanosecond timeout and the thread's
//! timer slack set to 1 ns, so a keystroke due in 300 µs is sent then
//! and not up to a millisecond later; a response wakes the thread as
//! soon as it is readable.

use crate::gen::{Request, Slot};
use lotusx_serve::client::parse_response;
use std::collections::{HashMap, VecDeque};
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::os::raw::{c_int, c_short, c_ulong};
use std::time::{Duration, Instant};

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

const POLLIN: c_short = 0x001;
const POLLOUT: c_short = 0x004;
const PR_SET_TIMERSLACK: c_int = 29;

extern "C" {
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const std::ffi::c_void,
    ) -> c_int;
    fn prctl(option: c_int, ...) -> c_int;
}

/// Waits until one of `fds` is ready or `timeout` passes.
fn wait(fds: &mut [PollFd], timeout: Duration) {
    let ts = Timespec {
        tv_sec: timeout.as_secs() as i64,
        tv_nsec: i64::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fds` is a valid, exclusively borrowed array of `fds.len()`
    // pollfd structs, `ts` outlives the call, and a null sigmask means
    // "leave the signal mask alone".
    let rc = unsafe {
        ppoll(
            fds.as_mut_ptr(),
            fds.len() as c_ulong,
            &ts,
            std::ptr::null(),
        )
    };
    // EINTR and friends surface as a spurious wake-up; the caller loops.
    let _ = rc;
}

/// Lets sub-millisecond `ppoll` timeouts fire on time (the default
/// slack of 50 µs would make every scheduled send that much late).
fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long argument and
    // only changes this thread's timer slack.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1 as c_ulong);
    }
}

/// One request as the client saw it. Times are nanoseconds since the
/// start of the run; `recv_ns == 0` means no response arrived.
#[derive(Clone, Copy, Debug)]
pub struct Record {
    pub req: usize,
    pub conn: usize,
    pub due_ns: u64,
    pub send_ns: u64,
    pub recv_ns: u64,
    /// HTTP status; 0 for an I/O error or a timeout.
    pub status: u16,
    pub body_len: usize,
}

impl Record {
    pub fn ok(&self) -> bool {
        self.status == 200
    }

    /// Latency from when the request was due (the open-loop definition;
    /// equal to the send time in a closed loop).
    pub fn latency_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.due_ns)
    }

    /// Latency from when the request was actually written.
    pub fn service_ns(&self) -> u64 {
        self.recv_ns.saturating_sub(self.send_ns)
    }
}

/// How requests are issued.
pub enum Mode<'a> {
    /// Each slot is sent at its due time on its connection, whether or
    /// not earlier responses have arrived.
    Open(&'a [Slot]),
    /// Each connection sends the stream's next request as soon as its
    /// previous one is answered, until `seconds` have passed and at least
    /// `min_answered` requests were answered (so a tail percentile has
    /// enough samples), but for no longer than `4 * seconds`.
    Closed { seconds: u64, min_answered: usize },
}

/// Response bodies, kept once per distinct request for the oracle.
#[derive(Default)]
pub struct Bodies {
    /// First body seen per request key.
    pub first: HashMap<(usize, String), Vec<u8>>,
    /// Responses whose bytes differ from an earlier response to the same
    /// request.
    pub repeat_mismatches: usize,
}

pub struct Outcome {
    pub records: Vec<Record>,
    pub bodies: Bodies,
    /// Wall time from the first send to the last response.
    pub elapsed_ns: u64,
    /// Open loop: requests outstanding over all connections, sampled at
    /// each scheduled send.
    pub backlog: Vec<usize>,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    written: usize,
    inbuf: Vec<u8>,
    /// Indexes into `records` of requests awaiting a response, in order.
    inflight: VecDeque<usize>,
    dead: bool,
}

/// How long responses may trail the last send before they count as
/// timed out.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(10);

pub fn connect(addr: SocketAddr, n: usize) -> std::io::Result<Vec<TcpStream>> {
    (0..n)
        .map(|_| {
            let s = TcpStream::connect(addr)?;
            s.set_nodelay(true)?;
            s.set_nonblocking(true)?;
            Ok(s)
        })
        .collect()
}

/// Drives `requests` over `streams` and records every answer.
pub fn drive(streams: Vec<TcpStream>, requests: &[Request], mode: Mode<'_>) -> Outcome {
    tighten_timer_slack();
    let mut conns: Vec<Conn> = streams
        .into_iter()
        .map(|stream| Conn {
            stream,
            out: Vec::new(),
            written: 0,
            inbuf: Vec::new(),
            inflight: VecDeque::new(),
            dead: false,
        })
        .collect();
    let mut records: Vec<Record> = Vec::with_capacity(match &mode {
        Mode::Open(s) => s.len(),
        Mode::Closed { .. } => 4096,
    });
    let mut bodies = Bodies::default();
    let mut backlog = Vec::new();
    let mut outstanding = 0usize;
    let mut next = 0usize;
    let mut chunk = vec![0u8; 64 * 1024];
    let mut fds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let (horizon_ns, min_answered) = match &mode {
        Mode::Closed {
            seconds,
            min_answered,
        } => (seconds * 1_000_000_000, *min_answered),
        Mode::Open(_) => (u64::MAX, 0),
    };
    let mut answered = 0usize;
    let mut drain_since: Option<Instant> = None;
    let t0 = Instant::now();
    let now_ns = || t0.elapsed().as_nanos() as u64;

    loop {
        // Issue whatever is due.
        let now = now_ns();
        let mut issue = |c: usize, req: usize, due: u64, conns: &mut Vec<Conn>| {
            let idx = records.len();
            records.push(Record {
                req,
                conn: c,
                due_ns: due,
                send_ns: now_ns(),
                recv_ns: 0,
                status: 0,
                body_len: 0,
            });
            let conn = &mut conns[c];
            if !conn.dead {
                conn.out.extend_from_slice(&requests[req].wire);
                conn.inflight.push_back(idx);
            }
        };
        let sending_done = match &mode {
            Mode::Open(schedule) => {
                while next < schedule.len() && schedule[next].due_ns <= now {
                    let slot = schedule[next];
                    issue(slot.conn, slot.req, slot.due_ns, &mut conns);
                    backlog.push(outstanding);
                    outstanding += 1;
                    next += 1;
                }
                next == schedule.len()
            }
            Mode::Closed { .. } => {
                let more = now < horizon_ns
                    || (answered < min_answered && now < horizon_ns.saturating_mul(4));
                if more {
                    for c in 0..conns.len() {
                        if conns[c].inflight.is_empty() && !conns[c].dead && next < requests.len() {
                            issue(c, next, now, &mut conns);
                            outstanding += 1;
                            next += 1;
                        }
                    }
                }
                !more || next == requests.len()
            }
        };
        for conn in conns.iter_mut().filter(|c| !c.dead) {
            flush(conn);
        }
        if sending_done {
            if outstanding == 0 || conns.iter().all(|c| c.dead || c.inflight.is_empty()) {
                break;
            }
            let since = *drain_since.get_or_insert_with(Instant::now);
            if since.elapsed() > DRAIN_TIMEOUT {
                break;
            }
        }

        // Wait for a response or the next due send.
        let timeout = match &mode {
            Mode::Open(schedule) if next < schedule.len() => {
                Duration::from_nanos(schedule[next].due_ns.saturating_sub(now_ns()))
            }
            Mode::Closed { .. } if !sending_done => {
                Duration::from_nanos(horizon_ns.saturating_sub(now_ns()))
                    .max(Duration::from_millis(1))
            }
            _ => Duration::from_millis(100),
        }
        .min(Duration::from_millis(100));
        fds.clear();
        fds.extend(conns.iter().map(|c| PollFd {
            fd: c.stream.as_raw_fd(),
            events: if c.dead {
                0
            } else if c.written < c.out.len() {
                POLLIN | POLLOUT
            } else {
                POLLIN
            },
            revents: 0,
        }));
        if !timeout.is_zero() {
            wait(&mut fds, timeout);
        }

        // Read and match responses in order.
        for (c, conn) in conns.iter_mut().enumerate() {
            if conn.dead {
                continue;
            }
            let closed = loop {
                match conn.stream.read(&mut chunk) {
                    Ok(0) => break true,
                    Ok(n) => conn.inbuf.extend_from_slice(&chunk[..n]),
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break false,
                    Err(e) if e.kind() == ErrorKind::Interrupted => {}
                    Err(_) => break true,
                }
            };
            let recv = now_ns();
            let mut used_total = 0;
            loop {
                match parse_response(&conn.inbuf[used_total..]) {
                    Ok(Some((response, used))) => {
                        used_total += used;
                        let Some(idx) = conn.inflight.pop_front() else {
                            // A response nobody asked for: the stream is
                            // out of step, so nothing more on it counts.
                            conn.dead = true;
                            break;
                        };
                        outstanding -= 1;
                        answered += 1;
                        let rec = &mut records[idx];
                        rec.recv_ns = recv;
                        rec.status = response.status;
                        rec.body_len = response.body.len();
                        keep_body(&mut bodies, &requests[rec.req], response.body);
                    }
                    Ok(None) => break,
                    Err(_) => {
                        conn.dead = true;
                        break;
                    }
                }
            }
            conn.inbuf.drain(..used_total);
            if closed || conn.dead {
                // Whatever was still owed on this connection fails.
                outstanding -= conn.inflight.len();
                conn.inflight.clear();
                conn.dead = true;
            }
            let _ = c;
        }
    }
    // Requests issued on dead connections never left; anything left in
    // flight timed out. Both keep status 0 and count as failed.
    let elapsed_ns = records
        .iter()
        .map(|r| r.recv_ns)
        .max()
        .unwrap_or(0)
        .saturating_sub(records.first().map_or(0, |r| r.send_ns))
        .max(1);
    Outcome {
        records,
        bodies,
        elapsed_ns,
        backlog,
    }
}

fn flush(conn: &mut Conn) {
    while conn.written < conn.out.len() {
        match conn.stream.write(&conn.out[conn.written..]) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(n) => conn.written += n,
            Err(e) if e.kind() == ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
    conn.out.clear();
    conn.written = 0;
}

fn keep_body(bodies: &mut Bodies, request: &Request, body: Vec<u8>) {
    // Scrape bodies change with every call; only their status counts.
    if request.is_scrape() {
        return;
    }
    match bodies.first.get(&(request.tenant, request.body.clone())) {
        Some(first) => {
            if *first != body {
                bodies.repeat_mismatches += 1;
            }
        }
        None => {
            bodies
                .first
                .insert((request.tenant, request.body.clone()), body);
        }
    }
}

/// Open-loop validity: did the generator keep to its schedule and did
/// the backlog stay flat? Returns the reasons a run is invalid.
pub fn open_loop_violations(records: &[Record], backlog: &[usize]) -> Vec<String> {
    let mut out = Vec::new();
    let late = crate::stats::summarize(
        &records
            .iter()
            .map(|r| r.send_ns.saturating_sub(r.due_ns) as f64)
            .collect::<Vec<_>>(),
    );
    let behind = records
        .iter()
        .filter(|r| r.send_ns.saturating_sub(r.due_ns) > 1_000_000)
        .count();
    // A shared host stalls the client thread now and then; falling
    // behind means late as a rule, not late now and then.
    if late.median() > 200e3 || behind * 5 > records.len() {
        out.push(format!(
            "generator fell behind: median send {:.0} us late, {behind} of {} sends \
             more than 1 ms late",
            late.median() / 1e3,
            records.len()
        ));
    }
    if backlog.len() >= 8 {
        // Medians, so one stall's burst does not read as growth.
        let q = backlog.len() / 4;
        let median = |s: &[usize]| {
            let mut v = s.to_vec();
            v.sort_unstable();
            v[v.len() / 2]
        };
        let (first, last) = (median(&backlog[..q]), median(&backlog[backlog.len() - q..]));
        if last > first + 2 {
            out.push(format!(
                "backlog grew from {first} to {last} requests outstanding (quartile medians)"
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(due: u64, send: u64) -> Record {
        Record {
            req: 0,
            conn: 0,
            due_ns: due,
            send_ns: send,
            recv_ns: send + 50_000,
            status: 200,
            body_len: 1,
        }
    }

    #[test]
    fn on_schedule_with_flat_backlog_is_valid() {
        let records: Vec<Record> = (0..1000)
            .map(|i| rec(i * 1000, i * 1000 + 20_000))
            .collect();
        let backlog = vec![0usize, 1, 0, 1, 0, 0, 1, 0, 1, 0, 0, 1];
        assert!(open_loop_violations(&records, &backlog).is_empty());
        // One late burst, as a stalled host produces, is not growth.
        let mut burst = vec![0usize; 40];
        burst[34..38].copy_from_slice(&[40, 60, 80, 100]);
        assert!(open_loop_violations(&records, &burst).is_empty());
        assert_eq!(records[0].latency_ns(), 70_000);
        assert_eq!(records[0].service_ns(), 50_000);
    }

    #[test]
    fn late_generator_or_growing_backlog_is_invalid() {
        let mut records: Vec<Record> = (0..1000).map(|i| rec(i, i)).collect();
        for r in records.iter_mut().take(150) {
            r.send_ns += 2_000_000;
        }
        // A few late sends are scheduling noise, not falling behind.
        assert!(open_loop_violations(&records, &[0; 8]).is_empty());
        for r in records.iter_mut().take(250) {
            r.send_ns += 2_000_000;
        }
        let v = open_loop_violations(&records, &[0; 8]);
        assert_eq!(v.len(), 1, "{v:?}");
        let growing: Vec<usize> = (0..40).collect();
        let v = open_loop_violations(&records[250..], &growing);
        assert_eq!(v.len(), 1, "{v:?}");
        assert!(v[0].contains("backlog"));
    }

    /// Drives the open-loop scheduler against a local echo server that
    /// answers each request with a fixed response, and checks that every
    /// request is sent on time, on its connection, and answered in order.
    #[test]
    fn open_loop_scheduler_keeps_time_and_order() {
        use crate::gen::{Op, Request};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let mut handles = Vec::new();
            for _ in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                handles.push(std::thread::spawn(move || {
                    let mut buf = Vec::new();
                    let mut chunk = [0u8; 4096];
                    let mut served = 0;
                    loop {
                        let n = s.read(&mut chunk).unwrap();
                        if n == 0 {
                            return served;
                        }
                        buf.extend_from_slice(&chunk[..n]);
                        while let Some(end) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                            buf.drain(..end + 4);
                            served += 1;
                            s.write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                                .unwrap();
                        }
                    }
                }));
            }
            handles
                .into_iter()
                .map(|h| h.join().unwrap())
                .sum::<usize>()
        });
        let requests: Vec<Request> = (0..2)
            .map(|i| Request {
                op: if i == 0 { Op::Metrics } else { Op::Stats },
                tenant: 0,
                body: String::new(),
                wire: b"GET /x HTTP/1.1\r\n\r\n".to_vec(),
            })
            .collect();
        let schedule: Vec<Slot> = (0..200u64)
            .map(|i| Slot {
                due_ns: i * 1_000_000,
                conn: (i % 2) as usize,
                req: (i % 2) as usize,
            })
            .collect();
        let streams = connect(addr, 2).unwrap();
        let out = drive(streams, &requests, Mode::Open(&schedule));
        assert_eq!(out.records.len(), 200);
        assert!(out.records.iter().all(|r| r.ok() && r.body_len == 2));
        assert!(out
            .records
            .iter()
            .zip(&schedule)
            .all(|(r, s)| r.due_ns == s.due_ns && r.conn == s.conn && r.send_ns >= r.due_ns));
        assert_eq!(out.backlog.len(), 200);
        // Loose: a shared test host may stall a few sends.
        let late = out
            .records
            .iter()
            .filter(|r| r.send_ns - r.due_ns > 5_000_000)
            .count();
        assert!(late < 20, "{late} sends more than 5 ms late");
        assert!(out.elapsed_ns >= 199_000_000);
        assert_eq!(server.join().unwrap(), 200);
    }
}
