//! Self time per span name from the traced run.
//!
//! `sim-obs` links a span to its parent on the same thread only. Work the
//! library hands to its own threads (batch-engine workers, fleet workers,
//! server drain workers) therefore records root spans with no parent.
//! Before computing self time, each such root is linked to the innermost
//! span on another thread whose interval contains it — the benchmark's
//! own `bench.*` spans and everything already linked under them — so a
//! span's self time is its duration minus the time its children, on any
//! thread, cover.

use std::collections::{BTreeMap, HashMap};

use sim_obs::report::{stage_summary, StageRow};
use sim_obs::SpanEvent;

/// Spans the benchmark opens around each public call it makes.
const BENCH_PREFIX: &str = "bench.";

/// Scanning further back than this many earlier spans for a container
/// is not worth it: containers start just before the work they spawn.
const MAX_SCAN: usize = 4_096;

/// Links parentless spans on library threads to the span that caused
/// them (see the module docs). Spans that no span contains stay roots.
pub fn adopt_cross_thread(spans: &mut [SpanEvent]) {
    let index: HashMap<u64, usize> = spans.iter().enumerate().map(|(i, s)| (s.id, i)).collect();
    let mut children: HashMap<u64, Vec<usize>> = HashMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent != 0 {
            children.entry(s.parent).or_default().push(i);
        }
    }
    // Attached spans, keyed by (start, id) → (end, thread, index of the
    // root of the tree they belong to).
    let mut attached: BTreeMap<(u64, u64), (u64, u64, usize)> = BTreeMap::new();
    let attach_tree = |root: usize, attached: &mut BTreeMap<_, _>| {
        let mut stack = vec![root];
        while let Some(i) = stack.pop() {
            let s = &spans[i];
            attached.insert(
                (s.start_ns, s.id),
                (s.start_ns + s.duration_ns, s.thread, root),
            );
            if let Some(kids) = children.get(&s.id) {
                stack.extend(kids.iter().copied());
            }
        }
    };
    let mut orphans = Vec::new();
    for (i, s) in spans.iter().enumerate() {
        if s.parent == 0 || !index.contains_key(&s.parent) {
            if s.name.starts_with(BENCH_PREFIX) {
                attach_tree(i, &mut attached);
            } else {
                orphans.push(i);
            }
        }
    }
    orphans.sort_by_key(|&i| (spans[i].start_ns, spans[i].id));
    let mut links = Vec::new();
    for i in orphans {
        let s = &spans[i];
        let end = s.start_ns + s.duration_ns;
        // Parallel workers of one pool run side by side, so one may cover
        // another's interval: a tree rooted at a span of the same name is
        // a sibling, never a container.
        let container = attached
            .range(..=(s.start_ns, u64::MAX))
            .rev()
            .take(MAX_SCAN)
            .find(|(_, &(c_end, thread, root))| {
                thread != s.thread && c_end >= end && spans[root].name != s.name
            })
            .map(|(&(_, id), _)| id);
        if let Some(id) = container {
            links.push((i, id));
            attach_tree(i, &mut attached);
        }
    }
    for (i, parent) in links {
        spans[i].parent = parent;
    }
}

/// The per-name self-time table, shares in percent of all self time.
/// Request spans are named per verb (`bench.request.<verb>`).
#[must_use]
pub fn self_time(mut spans: Vec<SpanEvent>) -> Vec<StageRow> {
    adopt_cross_thread(&mut spans);
    stage_summary(&spans)
}

/// Self-time share of `name`; `bench.request` sums its per-verb rows.
#[must_use]
pub fn share_pct(rows: &[StageRow], name: &str) -> f64 {
    let verb_row = |row: &str| name == "bench.request" && row.starts_with("bench.request.");
    rows.iter()
        .filter(|r| r.name == name || verb_row(&r.name))
        .fold(0.0, |sum, r| sum + r.share_pct)
}

#[cfg(test)]
mod tests {
    use super::*;

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

    #[test]
    fn worker_roots_nest_under_the_span_that_spawned_them() {
        let spans = vec![
            span(1, 0, 1, "bench.decision", 0, 1_000),
            span(2, 1, 1, "drm.batch", 10, 980),
            // Two workers cover the batch in parallel.
            span(3, 0, 2, "drm.worker", 20, 960),
            span(4, 3, 2, "eval.timing", 30, 900),
            span(5, 0, 3, "drm.worker", 20, 960),
            span(6, 5, 3, "eval.timing", 30, 900),
            // Outside every bench span: stays a root.
            span(7, 0, 4, "server.batch", 5_000, 10),
        ];
        let mut linked = spans.clone();
        adopt_cross_thread(&mut linked);
        assert_eq!(linked[2].parent, 2);
        assert_eq!(linked[4].parent, 2);
        assert_eq!(linked[6].parent, 0);
        let rows = self_time(spans);
        let row = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(row("eval.timing").self_ns, 1_800);
        // The batch is fully covered by its workers.
        assert_eq!(row("drm.batch").self_ns, 0);
        assert_eq!(row("bench.decision").self_ns, 20);
        let total: f64 = rows.iter().map(|r| r.share_pct).sum();
        assert!((total - 100.0).abs() < 1e-9);
    }

    #[test]
    fn request_share_sums_verbs() {
        let rows = self_time(vec![
            span(1, 0, 1, "bench.request.eval", 0, 300),
            span(2, 0, 2, "bench.request.fit", 0, 100),
            span(3, 0, 3, "bench.requests", 0, 100),
        ]);
        assert!((share_pct(&rows, "bench.request") - 80.0).abs() < 1e-9);
        assert!((share_pct(&rows, "bench.requests") - 20.0).abs() < 1e-9);
    }
}
