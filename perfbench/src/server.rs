//! The server under test as a child process: spawn, wait for health,
//! scrape, read its memory, stop. Plus the access-log join.

use crate::net::Record;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::time::{Duration, Instant};

pub struct Server {
    child: Child,
    stdin: Option<ChildStdin>,
    pub addr: SocketAddr,
    /// Spawn to first `/healthz` 200.
    pub setup: Duration,
}

/// How long a boot may take before the run is abandoned.
const BOOT_TIMEOUT: Duration = Duration::from_secs(60);

impl Server {
    /// Starts `lotusx-serve --routes` and waits until `/healthz` answers.
    pub fn start(
        binary: &Path,
        routes: &Path,
        threads: usize,
        access_log: Option<&Path>,
    ) -> Result<Server, String> {
        let mut cmd = Command::new(binary);
        cmd.arg("--routes")
            .arg(routes)
            .args(["--addr", "127.0.0.1:0", "--threads", &threads.to_string()])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null());
        if let Some(log) = access_log {
            cmd.arg("--access-log").arg(log);
        }
        let started = Instant::now();
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", binary.display()))?;
        let stdout = child.stdout.take().expect("stdout is piped");
        let stdin = child.stdin.take();
        let mut server = Server {
            child,
            stdin,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            setup: Duration::ZERO,
        };
        // The server prints `listening on ADDR` once every tenant is open
        // and the socket is bound.
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("reading server stdout: {e}"))?;
        server.addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok())
            .ok_or_else(|| format!("server did not start (stdout: {line:?})"))?;
        loop {
            if let Ok((200, _)) = http_get(server.addr, "/healthz") {
                break;
            }
            if started.elapsed() > BOOT_TIMEOUT {
                return Err("server never answered /healthz".to_string());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        server.setup = started.elapsed();
        Ok(server)
    }

    /// Resident memory of the server process, in MB (from VmRSS).
    pub fn rss_mb(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading server status: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmRSS:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| "no VmRSS in server status".to_string())
    }

    /// Graceful stop (`quit` on stdin), so the access log is flushed;
    /// killed if it does not exit in time.
    pub fn stop(mut self) -> Result<(), String> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> Result<(), String> {
        if let Some(mut stdin) = self.stdin.take() {
            let _ = stdin.write_all(b"quit\n");
        }
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            match self.child.try_wait() {
                Ok(Some(_)) => return Ok(()),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(5))
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("server did not stop within 20 s".to_string());
                }
            }
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One blocking `GET` on a fresh connection: status and body.
pub fn http_get(addr: SocketAddr, path: &str) -> Result<(u16, Vec<u8>), String> {
    let mut s = TcpStream::connect(addr).map_err(|e| e.to_string())?;
    s.set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    s.write_all(
        format!("GET {path} HTTP/1.1\r\nHost: lotusx\r\nConnection: close\r\n\r\n").as_bytes(),
    )
    .map_err(|e| e.to_string())?;
    let mut buf = Vec::new();
    loop {
        if let Some((r, _)) =
            lotusx_serve::client::parse_response(&buf).map_err(|e| e.to_string())?
        {
            return Ok((r.status, r.body));
        }
        let mut chunk = [0u8; 16384];
        match s.read(&mut chunk) {
            Ok(0) => return Err("connection closed before a response".to_string()),
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
            Err(e) => return Err(e.to_string()),
        }
    }
}

/// `(count, sum_ns)` of one stage histogram in a `/stats` body.
pub fn stats_stage(body: &[u8], stage: &str) -> Option<(f64, f64)> {
    let text = std::str::from_utf8(body).ok()?;
    let v = lotusx_obs::parse_json(text).ok()?;
    let s = v.get("metrics")?.get("stages")?.get(stage)?;
    Some((s.get("count")?.as_f64()?, s.get("sum_ns")?.as_f64()?))
}

/// Mean of a stage over the interval between two `/stats` bodies, in µs.
pub fn stage_mean_us(before: &[u8], after: &[u8], stage: &str) -> Option<f64> {
    let (c0, s0) = stats_stage(before, stage)?;
    let (c1, s1) = stats_stage(after, stage)?;
    (c1 > c0).then(|| (s1 - s0) / (c1 - c0) / 1e3)
}

/// One access-log line's fields the join uses.
#[derive(Clone, Debug, PartialEq)]
pub struct LogLine {
    pub conn: u64,
    pub path: String,
    pub status: u16,
    pub bytes: usize,
    pub parse_ns: u64,
    pub queue_ns: u64,
    pub compute_ns: u64,
    pub flush_ns: u64,
}

impl LogLine {
    pub fn stages_ns(&self) -> u64 {
        self.parse_ns + self.queue_ns + self.compute_ns + self.flush_ns
    }
}

pub fn parse_access_log(text: &str) -> Result<Vec<LogLine>, String> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| {
            let v = lotusx_obs::parse_json(l).map_err(|e| format!("access log: {e}"))?;
            let num = |k: &str| {
                v.get(k)
                    .and_then(|x| x.as_f64())
                    .ok_or_else(|| format!("access log line without {k}: {l}"))
            };
            Ok(LogLine {
                conn: num("conn")? as u64,
                path: v
                    .get("path")
                    .and_then(|p| p.as_str())
                    .unwrap_or_default()
                    .to_string(),
                status: num("status")? as u16,
                bytes: num("bytes")? as usize,
                parse_ns: num("parse_ns")? as u64,
                queue_ns: num("queue_ns")? as u64,
                compute_ns: num("compute_ns")? as u64,
                flush_ns: num("flush_ns")? as u64,
            })
        })
        .collect()
}

/// Joins client records to access-log lines by connection and order.
///
/// Server connection ids are handed out in accept order and the client
/// opens its connections one after another, so the i-th workload
/// connection is the i-th lowest id among connections that carried a
/// `/query` or `/complete` request.
/// Each pair is then checked request by request (path, status and body
/// size must agree), so a wrong pairing fails instead of mis-attributing
/// time. Returns, per record index, its log line.
pub fn join_access_log<'a>(
    records: &[Record],
    conns: usize,
    lines: &'a [LogLine],
) -> Result<Vec<&'a LogLine>, String> {
    if records.iter().any(|r| r.recv_ns == 0) {
        return Err("cannot join a run with unanswered requests".to_string());
    }
    let mut ids: Vec<u64> = lines
        .iter()
        .filter(|l| l.path.ends_with("/query") || l.path.ends_with("/complete"))
        .map(|l| l.conn)
        .collect();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != conns {
        return Err(format!(
            "access log shows {} workload connections, the client opened {conns}",
            ids.len()
        ));
    }
    let mut joined: Vec<Option<&LogLine>> = vec![None; records.len()];
    for (c, id) in ids.iter().enumerate() {
        let server_side: Vec<&LogLine> = lines.iter().filter(|l| l.conn == *id).collect();
        let client_side: Vec<usize> = (0..records.len())
            .filter(|&i| records[i].conn == c && records[i].recv_ns > 0)
            .collect();
        if server_side.len() != client_side.len() {
            return Err(format!(
                "connection {c}: {} answered requests, {} access-log lines",
                client_side.len(),
                server_side.len()
            ));
        }
        for (&i, line) in client_side.iter().zip(server_side) {
            if records[i].status != line.status || records[i].body_len > line.bytes {
                return Err(format!(
                    "connection {c}: request {i} answered {} with {} body bytes, \
                     logged {} with {} bytes",
                    records[i].status, records[i].body_len, line.status, line.bytes
                ));
            }
            joined[i] = Some(line);
        }
    }
    joined
        .into_iter()
        .enumerate()
        .map(|(i, l)| l.ok_or_else(|| format!("request {i} has no access-log line")))
        .collect()
}

/// The routes file: two tenants routed by `/t/<tenant>/` prefix.
pub fn write_routes(dir: &Path, corpora: &[(String, PathBuf)]) -> Result<PathBuf, String> {
    let tenants: Vec<String> = corpora
        .iter()
        .map(|(name, path)| {
            format!(
                "{{\"name\":{},\"corpus\":{}}}",
                lotusx_obs::json_string(name),
                lotusx_obs::json_string(&path.display().to_string())
            )
        })
        .collect();
    let text = format!(
        "{{\"tenants\":[{}],\"rules\":[{{\"when\":{{\"path_prefix\":\"/t/\"}},\
         \"tenant\":{{\"from_path\":true}}}}]}}\n",
        tenants.join(",")
    );
    let path = dir.join("routes.json");
    std::fs::write(&path, text).map_err(|e| format!("writing routes: {e}"))?;
    Ok(path)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(conn: usize, status: u16, body_len: usize) -> Record {
        Record {
            req: 0,
            conn,
            due_ns: 0,
            send_ns: 0,
            recv_ns: 1,
            status,
            body_len,
        }
    }

    fn line(conn: u64, path: &str, bytes: usize) -> String {
        format!(
            "{{\"ts_ms\":1,\"conn\":{conn},\"tenant\":\"dblp\",\"method\":\"POST\",\
             \"path\":\"{path}\",\"status\":200,\"bytes\":{bytes},\"close\":\"keep-alive\",\
             \"parse_ns\":1,\"queue_ns\":2,\"compute_ns\":3,\"flush_ns\":{bytes}}}"
        )
    }

    #[test]
    fn access_log_join_pairs_by_connection_and_order() {
        // Connection 3 is a health probe; 7 and 9 are the workload's.
        let log = [
            line(3, "/healthz", 3),
            line(7, "/t/dblp/query", 10),
            line(9, "/t/dblp/query", 20),
            line(7, "/t/dblp/query", 11),
            line(9, "/stats", 21),
        ]
        .join("\n");
        let lines = parse_access_log(&log).unwrap();
        assert_eq!(lines[1].stages_ns(), 16);
        // Records in send order: conn 0, 1, 0, 1.
        let records = [
            rec(0, 200, 10),
            rec(1, 200, 20),
            rec(0, 200, 11),
            rec(1, 200, 21),
        ];
        let joined = join_access_log(&records, 2, &lines).unwrap();
        let flushes: Vec<u64> = joined.iter().map(|l| l.flush_ns).collect();
        assert_eq!(flushes, vec![10, 20, 11, 21]);
    }

    #[test]
    fn access_log_join_rejects_a_mismatch() {
        let log = [line(7, "/t/dblp/query", 10), line(7, "/t/dblp/query", 11)].join("\n");
        let lines = parse_access_log(&log).unwrap();
        let records = [rec(0, 200, 10), rec(0, 200, 99)];
        assert!(join_access_log(&records, 1, &lines).is_err());
        let records = [rec(0, 200, 10)];
        assert!(join_access_log(&records, 1, &lines).is_err());
        assert!(join_access_log(&records, 2, &lines).is_err());
    }

    #[test]
    fn stage_means_come_from_stats_deltas() {
        let body = |count: u64, sum: u64| {
            format!(
                "{{\"metrics\":{{\"stages\":{{\"http_loop_lag\":\
                 {{\"count\":{count},\"sum_ns\":{sum}}}}}}}}}"
            )
        };
        let (a, b) = (body(10, 10_000), body(30, 70_000));
        assert_eq!(
            stage_mean_us(a.as_bytes(), b.as_bytes(), "http_loop_lag"),
            Some(3.0)
        );
        assert_eq!(
            stage_mean_us(a.as_bytes(), a.as_bytes(), "http_loop_lag"),
            None
        );
    }
}
