//! Chrome/Perfetto trace-event export: completed `sim-obs` spans written
//! as a JSON array of `B`/`E` duration events with one lane per thread,
//! so a whole sweep or fleet run opens directly in `chrome://tracing`,
//! Perfetto, or Speedscope.
//!
//! Activated by `RAMP_TRACE_OUT=<path.json>` on the CLI and bench
//! drivers. The sink buffers completed spans (they arrive at *close*
//! time, i.e. out of start order) and materializes the file on flush:
//!
//! * spans are grouped per thread (`tid` = the dense `sim-obs` thread
//!   id) and replayed through each thread's parent links, so every `B`
//!   has a balanced `E` and timestamps are non-decreasing per lane;
//! * each lane carries a `thread_name` metadata event — worker threads
//!   (`drm-worker-N`, `fleet-worker-N`, `sim-server-worker-N`) name
//!   their lanes, which is what makes a fleet run readable;
//! * timestamps are microseconds since the process epoch (the
//!   trace-event clock), floats, shortest-round-trip formatting.
//!
//! Every flush rewrites the whole file, so the export is valid JSON at
//! any point after the first flush, not only at exit.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

use crate::json::JsonObject;
use crate::sink::{Sink, SpanEvent};

/// The synthetic process id every event carries (one process per trace).
const PID: u64 = 1;

struct TraceState {
    path: PathBuf,
    spans: Vec<SpanEvent>,
    /// First-seen OS thread name per dense sim-obs thread id.
    lane_names: BTreeMap<u64, String>,
}

/// A [`Sink`] exporting spans in the Chrome trace-event format. Install
/// with [`crate::install_sink`]; the file is (re)written on every
/// [`crate::flush`].
pub struct TraceEventSink {
    state: Mutex<TraceState>,
}

impl TraceEventSink {
    /// Creates the sink and eagerly writes an empty trace to `path`, so
    /// an unwritable destination fails the run at setup time.
    pub fn create(path: &Path) -> std::io::Result<TraceEventSink> {
        let sink = TraceEventSink {
            state: Mutex::new(TraceState {
                path: path.to_path_buf(),
                spans: Vec::new(),
                lane_names: BTreeMap::new(),
            }),
        };
        sink.write_file()?;
        Ok(sink)
    }

    /// Serializes all buffered spans into trace-event JSON lines (one
    /// event per line, inside a top-level array).
    fn render(state: &TraceState) -> String {
        // Group spans per lane; within a lane sort by (start, id): span
        // ids are allocated at open, so id order refines equal starts
        // with creation order (parents before children).
        let mut lanes: BTreeMap<u64, Vec<&SpanEvent>> = BTreeMap::new();
        for s in &state.spans {
            lanes.entry(s.thread).or_default().push(s);
        }
        let mut out = String::from("[\n");
        let mut first = true;
        let push = |line: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push_str(",\n");
            }
            *first = false;
            out.push_str(&line);
        };
        for (&tid, spans) in &mut lanes {
            let name = state
                .lane_names
                .get(&tid)
                .cloned()
                .unwrap_or_else(|| format!("thread-{tid}"));
            // `thread_name` metadata needs nested `args`, which the flat
            // builder cannot express; compose it from an escaped inner
            // object instead.
            let mut inner = JsonObject::new();
            inner.str("name", &name);
            push(
                format!(
                    "{{\"ph\":\"M\",\"name\":\"thread_name\",\"pid\":{PID},\"tid\":{tid},\"args\":{}}}",
                    inner.finish()
                ),
                &mut out,
                &mut first,
            );

            spans.sort_by_key(|s| (s.start_ns, s.id));
            // Replay the lane with its parent links: close every span
            // that is not the next span's ancestor before opening it.
            // Per-thread RAII guarantees proper nesting; `last_us` clamps
            // away sub-microsecond measurement skew between a child's
            // computed end and its parent's.
            let mut stack: Vec<&SpanEvent> = Vec::new();
            let mut last_us = 0.0f64;
            let mut event = |ph: &str, name: &str, ts_ns: u64| {
                let mut o = JsonObject::new();
                o.str("ph", ph);
                o.str("name", name);
                o.str("cat", "ramp");
                last_us = last_us.max(ts_ns as f64 / 1e3);
                o.f64("ts", last_us);
                o.u64("pid", PID);
                o.u64("tid", tid);
                o.finish()
            };
            for s in spans.iter() {
                while let Some(top) = stack.last() {
                    if top.id == s.parent {
                        break;
                    }
                    let line = event("E", &top.name, top.start_ns + top.duration_ns);
                    push(line, &mut out, &mut first);
                    stack.pop();
                }
                let line = event("B", &s.name, s.start_ns);
                push(line, &mut out, &mut first);
                stack.push(s);
            }
            while let Some(top) = stack.pop() {
                let line = event("E", &top.name, top.start_ns + top.duration_ns);
                push(line, &mut out, &mut first);
            }
        }
        out.push_str("\n]\n");
        out
    }

    fn write_file(&self) -> std::io::Result<()> {
        let state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let mut out = BufWriter::new(File::create(&state.path)?);
        out.write_all(Self::render(&state).as_bytes())?;
        out.flush()
    }
}

impl Sink for TraceEventSink {
    fn on_span(&self, event: &SpanEvent) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        // `on_span` runs on the thread that owned the span, so the OS
        // thread name seen here names the lane.
        state.lane_names.entry(event.thread).or_insert_with(|| {
            std::thread::current()
                .name()
                .map(str::to_owned)
                .unwrap_or_else(|| format!("thread-{}", event.thread))
        });
        state.spans.push(event.clone());
    }

    fn on_flush(&self) {
        // Tracing must never take the run down with it.
        let _ = self.write_file();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse_object;

    fn span(id: u64, parent: u64, thread: u64, name: &str, start: u64, dur: u64) -> SpanEvent {
        SpanEvent {
            id,
            parent,
            thread,
            name: name.to_owned(),
            start_ns: start,
            duration_ns: dur,
        }
    }

    /// Parses a rendered trace back into per-event flat objects,
    /// tolerating the array wrapper.
    fn parse_events(text: &str) -> Vec<crate::json::ParsedObject> {
        let body = text
            .trim()
            .strip_prefix('[')
            .and_then(|t| t.strip_suffix(']'))
            .expect("array wrapper");
        body.split(",\n")
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .map(|l| {
                // The flat parser cannot read the nested `args` of
                // `thread_name` metadata events; drop that (final) field.
                let flat = match l.find(",\"args\":") {
                    Some(i) => format!("{}}}", &l[..i]),
                    None => l.to_owned(),
                };
                parse_object(&flat).unwrap_or_else(|| panic!("bad event line: {l}"))
            })
            .collect()
    }

    #[test]
    fn export_is_balanced_and_sorted_per_lane() {
        let path = std::env::temp_dir().join(format!("ramp-te-test-{}.json", std::process::id()));
        let sink = TraceEventSink::create(&path).unwrap();
        // Spans arrive in completion order (children first), across two
        // lanes, with a sibling after a nested pair.
        sink.on_span(&span(2, 1, 1, "child", 120, 50));
        sink.on_span(&span(3, 1, 1, "sibling", 200, 30));
        sink.on_span(&span(1, 0, 1, "root", 100, 400));
        sink.on_span(&span(4, 0, 2, "worker", 90, 600));
        sink.on_flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();

        let events = parse_events(&text);
        // Per lane: balanced B/E with stack discipline, ts non-decreasing.
        let mut stacks: BTreeMap<u64, Vec<String>> = BTreeMap::new();
        let mut last_ts: BTreeMap<u64, f64> = BTreeMap::new();
        let mut b = 0;
        let mut e = 0;
        for ev in &events {
            let tid = ev.get_u64("tid").expect("tid");
            match ev.get_str("ph").expect("ph") {
                "M" => continue,
                ph @ ("B" | "E") => {
                    let ts = ev.get_f64("ts").expect("ts");
                    let prev = last_ts.entry(tid).or_insert(0.0);
                    assert!(ts >= *prev, "lane {tid}: ts regressed {ts} < {prev}");
                    *prev = ts;
                    let name = ev.get_str("name").expect("name").to_owned();
                    let stack = stacks.entry(tid).or_default();
                    if ph == "B" {
                        b += 1;
                        stack.push(name);
                    } else {
                        e += 1;
                        let open = stack.pop().expect("E without open B");
                        assert_eq!(open, name, "E closes the innermost open span");
                    }
                }
                other => panic!("unexpected phase {other}"),
            }
        }
        assert_eq!(b, 4, "one B per span");
        assert_eq!(b, e, "balanced B/E");
        assert!(stacks.values().all(Vec::is_empty), "all spans closed");
        // Both lanes got a thread_name metadata event.
        let lanes: Vec<u64> = events
            .iter()
            .filter(|ev| ev.get_str("ph") == Some("M"))
            .map(|ev| ev.get_u64("tid").unwrap())
            .collect();
        assert_eq!(lanes, vec![1, 2]);
    }

    #[test]
    fn clock_skew_between_parent_and_child_is_clamped() {
        let path = std::env::temp_dir().join(format!("ramp-te-skew-{}.json", std::process::id()));
        let sink = TraceEventSink::create(&path).unwrap();
        // Child's computed end (3000) overshoots its parent's (2900) —
        // the measurement-skew case the renderer must clamp.
        sink.on_span(&span(2, 1, 1, "child", 1500, 1500));
        sink.on_span(&span(1, 0, 1, "parent", 1000, 1900));
        sink.on_flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        let mut last = 0.0;
        for ev in parse_events(&text) {
            if let Some(ts) = ev.get_f64("ts") {
                assert!(ts >= last, "ts regressed: {ts} < {last}");
                last = ts;
            }
        }
    }

    #[test]
    fn empty_trace_is_still_valid() {
        let path = std::env::temp_dir().join(format!("ramp-te-empty-{}.json", std::process::id()));
        let sink = TraceEventSink::create(&path).unwrap();
        sink.on_flush();
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(parse_events(&text).is_empty());
    }
}
