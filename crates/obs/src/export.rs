//! Trace exporters: Chrome trace-event JSON (loadable in
//! `chrome://tracing` and Perfetto) and a line-per-event JSONL log.
//!
//! The Chrome format is the "JSON Array Format" with duration (`B`/`E`)
//! and instant (`i`) phases: engine events sit on the `main` lane
//! (`tid` 0), query and stage events nest into slices there, and point
//! events (cache accesses, budget trips, rewrites, panics) render as
//! instants.
//! Timestamps are microseconds since the trace epoch, with sub-µs
//! precision kept as fractions.
//!
//! Connection-lifecycle events from the serving layer live on their own
//! lane namespace ([`crate::event::CONN_LANE_BASE`], labeled `conn-N`):
//! accept/close bracket one `conn#N` slice per connection, and the
//! READING→PENDING→FLUSH→IDLE phase events are converted into
//! back-to-back nested slices (entering a phase ends the previous one),
//! so HTTP stage slices attributed to the connection nest inside the
//! phase that produced them. [`chrome_trace_json_with`] can additionally
//! embed the trace ring's produced/dropped/exported counters as a
//! metadata record so validators can re-check the exact accounting.

use crate::event::{EventKind, TraceEvent, CONN_LANE_BASE};
use crate::json::json_string;
use crate::ring::RingCounters;
use std::collections::HashMap;

/// Timestamp in fractional microseconds, as Chrome expects.
fn ts_us(ts_ns: u64) -> String {
    format!("{:.3}", ts_ns as f64 / 1_000.0)
}

/// One Chrome trace-event object.
fn chrome_event(e: &TraceEvent) -> String {
    let (ph, name, args) = match e.kind {
        EventKind::QueryBegin => ("B", format!("query#{}", e.query.0), String::new()),
        EventKind::QueryEnd {
            cache_hit,
            truncated,
            results,
        } => (
            "E",
            format!("query#{}", e.query.0),
            format!("\"cache_hit\":{cache_hit},\"truncated\":{truncated},\"results\":{results}"),
        ),
        EventKind::StageBegin { stage } => ("B", stage.to_string(), String::new()),
        EventKind::StageEnd { stage } => ("E", stage.to_string(), String::new()),
        EventKind::CacheAccess { shard, hit } => (
            "i",
            format!("cache_{}", if hit { "hit" } else { "miss" }),
            format!("\"shard\":{shard}"),
        ),
        EventKind::BudgetTrip { reason } => ("i", format!("budget_trip:{reason}"), String::new()),
        EventKind::WorkerPanicked => ("i", "worker_panic".to_string(), String::new()),
        EventKind::Rewrite { accepted } => (
            "i",
            "rewrite".to_string(),
            format!("\"accepted\":{accepted}"),
        ),
        EventKind::AlgoChosen { algorithm } => (
            "i",
            format!("algo_chosen:{algorithm}"),
            format!("\"algorithm\":{}", json_string(algorithm)),
        ),
        EventKind::ConnAccept { conn, admitted } => (
            "B",
            format!("conn#{conn}"),
            format!("\"admitted\":{admitted}"),
        ),
        EventKind::ConnClose { conn, reason } => (
            "E",
            format!("conn#{conn}"),
            format!("\"reason\":{}", json_string(reason.name())),
        ),
        // Phase begin/end pairs are synthesized by `chrome_trace_json`
        // (ending a phase needs the previous event's name); a bare
        // phase event renders as an instant.
        EventKind::ConnPhase { phase, .. } => ("i", phase.name().to_string(), String::new()),
        EventKind::ConnDeadline { kind, .. } => {
            ("i", format!("deadline:{}", kind.name()), String::new())
        }
        EventKind::ConnReuse { .. } => ("i", "keepalive_reuse".to_string(), String::new()),
        EventKind::AdmissionReject { .. } => ("i", "admission_reject".to_string(), String::new()),
    };
    let mut out = format!(
        "{{\"name\":{},\"cat\":{},\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}",
        json_string(&name),
        json_string(e.kind.name()),
        ph,
        ts_us(e.ts_ns),
        e.lane
    );
    if ph == "i" {
        // Thread-scoped instants render as small markers on the lane.
        out.push_str(",\"s\":\"t\"");
    }
    let mut args = args;
    if e.query.0 != 0 && !matches!(e.kind, EventKind::QueryBegin | EventKind::QueryEnd { .. }) {
        if !args.is_empty() {
            args.push(',');
        }
        args.push_str(&format!("\"query\":{}", e.query.0));
    }
    if !args.is_empty() {
        out.push_str(&format!(",\"args\":{{{args}}}"));
    }
    out.push('}');
    out
}

/// One synthesized phase begin/end slice on a connection lane.
fn phase_event(ph: &str, name: &str, lane: u32, ts_ns: u64) -> String {
    format!(
        "{{\"name\":{},\"cat\":\"conn_phase\",\"ph\":\"{}\",\"ts\":{},\"pid\":1,\"tid\":{}}}",
        json_string(name),
        ph,
        ts_us(ts_ns),
        lane
    )
}

/// Renders events as a complete Chrome trace-event JSON document
/// (`{"traceEvents":[...]}`) with the `main` engine lane and one named
/// lane per connection.
pub fn chrome_trace_json(events: &[TraceEvent]) -> String {
    chrome_trace_json_with(events, None)
}

/// [`chrome_trace_json`], optionally embedding the trace ring's
/// counters as a `trace_accounting` metadata record (`trace-check`
/// re-verifies `produced == exported + dropped` from it).
pub fn chrome_trace_json_with(events: &[TraceEvent], counters: Option<RingCounters>) -> String {
    let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
    lanes.sort_unstable();
    lanes.dedup();
    let mut out = String::from("{\"traceEvents\":[\n");
    let mut first = true;
    let mut push = |line: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&line);
    };
    // Metadata: name the process and each lane so Perfetto labels them.
    push(
        "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"args\":{\"name\":\"lotusx\"}}"
            .to_string(),
        &mut out,
    );
    if let Some(c) = counters {
        push(
            format!(
                "{{\"name\":\"trace_accounting\",\"ph\":\"M\",\"pid\":1,\"args\":{{\"produced\":{},\"dropped\":{},\"exported\":{}}}}}",
                c.produced, c.dropped, c.exported
            ),
            &mut out,
        );
    }
    for lane in &lanes {
        let label = if *lane >= CONN_LANE_BASE {
            format!("conn-{}", lane - CONN_LANE_BASE)
        } else {
            "main".to_string()
        };
        push(
            format!(
                "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\"args\":{{\"name\":{}}}}}",
                lane,
                json_string(&label)
            ),
            &mut out,
        );
    }
    // Drain order is per-producer FIFO, not globally time-ordered: a
    // worker's stage slice on a connection lane can drain before the
    // loop-thread phase event that precedes it. Stable-sort by
    // timestamp so per-lane slices are monotone and phase synthesis
    // sees events in wall-clock order.
    let mut ordered: Vec<TraceEvent> = events.to_vec();
    ordered.sort_by_key(|e| e.ts_ns);
    // Phase events become back-to-back slices: entering a phase closes
    // the previous one on the same lane, and close ends any open phase
    // before the `conn#N` slice itself ends.
    let mut open_phase: HashMap<u32, &'static str> = HashMap::new();
    for e in &ordered {
        match e.kind {
            EventKind::ConnPhase { phase, .. } => {
                if let Some(prev) = open_phase.insert(e.lane, phase.name()) {
                    push(phase_event("E", prev, e.lane, e.ts_ns), &mut out);
                }
                push(phase_event("B", phase.name(), e.lane, e.ts_ns), &mut out);
                continue;
            }
            EventKind::ConnClose { .. } => {
                if let Some(prev) = open_phase.remove(&e.lane) {
                    push(phase_event("E", prev, e.lane, e.ts_ns), &mut out);
                }
            }
            _ => {}
        }
        push(chrome_event(e), &mut out);
    }
    out.push_str("\n]}\n");
    out
}

/// One JSONL line per event: flat objects with `ts_ns`, `lane`, `query`,
/// `kind` and the kind-specific fields.
pub fn jsonl_log(events: &[TraceEvent]) -> String {
    let mut out = String::new();
    for e in events {
        let mut line = format!(
            "{{\"ts_ns\":{},\"lane\":{},\"query\":{},\"kind\":{}",
            e.ts_ns,
            e.lane,
            e.query.0,
            json_string(e.kind.name())
        );
        match e.kind {
            EventKind::QueryEnd {
                cache_hit,
                truncated,
                results,
            } => line.push_str(&format!(
                ",\"cache_hit\":{cache_hit},\"truncated\":{truncated},\"results\":{results}"
            )),
            EventKind::StageBegin { stage } | EventKind::StageEnd { stage } => {
                line.push_str(&format!(",\"stage\":{}", json_string(stage)));
            }
            EventKind::CacheAccess { shard, hit } => {
                line.push_str(&format!(",\"shard\":{shard},\"hit\":{hit}"));
            }
            EventKind::BudgetTrip { reason } => {
                line.push_str(&format!(",\"reason\":{}", json_string(reason)));
            }
            EventKind::AlgoChosen { algorithm } => {
                line.push_str(&format!(",\"algorithm\":{}", json_string(algorithm)));
            }
            EventKind::ConnAccept { conn, admitted } => {
                line.push_str(&format!(",\"conn\":{conn},\"admitted\":{admitted}"));
            }
            EventKind::ConnClose { conn, reason } => {
                line.push_str(&format!(
                    ",\"conn\":{conn},\"reason\":{}",
                    json_string(reason.name())
                ));
            }
            EventKind::ConnPhase { conn, phase } => {
                line.push_str(&format!(
                    ",\"conn\":{conn},\"phase\":{}",
                    json_string(phase.name())
                ));
            }
            EventKind::ConnDeadline { conn, kind } => {
                line.push_str(&format!(
                    ",\"conn\":{conn},\"deadline\":{}",
                    json_string(kind.name())
                ));
            }
            EventKind::ConnReuse { conn } | EventKind::AdmissionReject { conn } => {
                line.push_str(&format!(",\"conn\":{conn}"));
            }
            EventKind::QueryBegin | EventKind::WorkerPanicked | EventKind::Rewrite { .. } => {}
        }
        if let EventKind::Rewrite { accepted } = e.kind {
            line.push_str(&format!(",\"accepted\":{accepted}"));
        }
        line.push_str("}\n");
        out.push_str(&line);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::QueryId;

    fn sample_events() -> Vec<TraceEvent> {
        let q = QueryId(7);
        vec![
            TraceEvent {
                ts_ns: 1_000,
                lane: 0,
                query: q,
                kind: EventKind::QueryBegin,
            },
            TraceEvent {
                ts_ns: 1_500,
                lane: 0,
                query: q,
                kind: EventKind::StageBegin { stage: "match" },
            },
            TraceEvent {
                ts_ns: 2_500,
                lane: 0,
                query: q,
                kind: EventKind::BudgetTrip {
                    reason: "deadline_exceeded",
                },
            },
            TraceEvent {
                ts_ns: 3_000,
                lane: 0,
                query: q,
                kind: EventKind::StageEnd { stage: "match" },
            },
            TraceEvent {
                ts_ns: 4_000,
                lane: 0,
                query: q,
                kind: EventKind::QueryEnd {
                    cache_hit: false,
                    truncated: true,
                    results: 3,
                },
            },
        ]
    }

    #[test]
    fn chrome_trace_has_lanes_and_balanced_spans() {
        let json = chrome_trace_json(&sample_events());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.contains("\"name\":\"process_name\""));
        assert!(json.contains("{\"name\":\"main\"}"));
        assert!(json.contains("\"name\":\"query#7\",\"cat\":\"query_begin\",\"ph\":\"B\""));
        assert!(json.contains("\"name\":\"match\""));
        assert!(json.contains("budget_trip:deadline_exceeded"));
        assert!(json.contains("\"truncated\":true"));
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count(),
            "every B has an E"
        );
        // Timestamps are µs: 1_500ns → 1.500.
        assert!(json.contains("\"ts\":1.500"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn jsonl_is_one_object_per_line() {
        let log = jsonl_log(&sample_events());
        let lines: Vec<&str> = log.lines().collect();
        assert_eq!(lines.len(), 5);
        assert!(lines[0].contains("\"kind\":\"query_begin\""));
        assert!(lines[1].contains("\"stage\":\"match\""));
        assert!(lines[2].contains("\"reason\":\"deadline_exceeded\""));
        assert!(lines[4].contains("\"results\":3"));
        for line in lines {
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }

    #[test]
    fn conn_events_render_as_their_own_lane_with_phase_slices() {
        use crate::event::{conn_lane, CloseReason, ConnPhase};
        let lane = conn_lane(3);
        let conn = 3u32;
        let events = vec![
            TraceEvent {
                ts_ns: 1_000,
                lane,
                query: QueryId::NONE,
                kind: EventKind::ConnAccept {
                    conn,
                    admitted: true,
                },
            },
            TraceEvent {
                ts_ns: 1_100,
                lane,
                query: QueryId::NONE,
                kind: EventKind::ConnPhase {
                    conn,
                    phase: ConnPhase::Reading,
                },
            },
            TraceEvent {
                ts_ns: 2_000,
                lane,
                query: QueryId::NONE,
                kind: EventKind::ConnPhase {
                    conn,
                    phase: ConnPhase::Pending,
                },
            },
            TraceEvent {
                ts_ns: 2_500,
                lane,
                query: QueryId::NONE,
                kind: EventKind::StageBegin {
                    stage: "http_query",
                },
            },
            TraceEvent {
                ts_ns: 3_000,
                lane,
                query: QueryId::NONE,
                kind: EventKind::StageEnd {
                    stage: "http_query",
                },
            },
            TraceEvent {
                ts_ns: 3_500,
                lane,
                query: QueryId::NONE,
                kind: EventKind::ConnPhase {
                    conn,
                    phase: ConnPhase::Flush,
                },
            },
            TraceEvent {
                ts_ns: 4_000,
                lane,
                query: QueryId::NONE,
                kind: EventKind::ConnClose {
                    conn,
                    reason: CloseReason::ClientClose,
                },
            },
        ];
        let json = chrome_trace_json_with(
            &events,
            Some(crate::ring::RingCounters {
                produced: 7,
                dropped: 0,
                exported: 7,
            }),
        );
        assert!(json.contains("{\"name\":\"conn-3\"}"), "lane is labeled");
        assert!(json.contains("\"name\":\"conn#3\",\"cat\":\"conn_accept\",\"ph\":\"B\""));
        assert!(json.contains("\"name\":\"conn#3\",\"cat\":\"conn_close\",\"ph\":\"E\""));
        assert!(json.contains("\"reason\":\"client_close\""));
        assert!(json.contains("\"name\":\"trace_accounting\""));
        assert!(json.contains("\"produced\":7"));
        // Every phase B has a matching E (entering the next phase or
        // closing ends the previous slice), so the document balances.
        assert_eq!(
            json.matches("\"ph\":\"B\"").count(),
            json.matches("\"ph\":\"E\"").count(),
            "every B has an E"
        );
        // The stage slice is inside the pending phase slice.
        let pending_b = json.find("\"name\":\"pending\",\"cat\":\"conn_phase\",\"ph\":\"B\"");
        let stage_b = json.find("\"name\":\"http_query\"");
        let pending_e = json.find("\"name\":\"pending\",\"cat\":\"conn_phase\",\"ph\":\"E\"");
        assert!(pending_b.unwrap() < stage_b.unwrap());
        assert!(stage_b.unwrap() < pending_e.unwrap());
        let log = jsonl_log(&events);
        assert!(log.contains("\"kind\":\"conn_accept\",\"conn\":3,\"admitted\":true"));
        assert!(log.contains("\"kind\":\"conn_phase\",\"conn\":3,\"phase\":\"pending\""));
        assert!(log.contains("\"kind\":\"conn_close\",\"conn\":3,\"reason\":\"client_close\""));
    }

    #[test]
    fn empty_trace_is_still_wellformed() {
        let json = chrome_trace_json(&[]);
        assert!(json.contains("process_name"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(jsonl_log(&[]), "");
    }
}
