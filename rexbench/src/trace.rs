//! In-memory spans around the benchmark's calls into each layer.
//!
//! A span records its name, the request it served, its parent span, its
//! start and end (ns since the run began) and the counters the call
//! returned. Spans stay in memory and are written out when the run ends.
//! A layer's self time is its span minus the part covered by its child
//! spans. Each thread records into its own [`Recorder`]; span ids are
//! unique per thread and parents never cross threads.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::time::Instant;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub thread: u32,
    pub id: u32,
    pub parent: Option<u32>,
    pub request: u64,
    /// Whether the span lies in the measured region (not set-up).
    pub measured: bool,
    pub start_ns: u64,
    pub end_ns: u64,
    pub counters: Vec<(&'static str, u64)>,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }

    pub fn counter(&self, name: &str) -> u64 {
        self.counters.iter().find(|(n, _)| *n == name).map_or(0, |(_, v)| *v)
    }
}

/// An open span: close it with [`Recorder::close`].
#[must_use]
pub struct Open(Option<(u32, u64)>);

/// One thread's span recorder. A disabled recorder records nothing and
/// costs one branch per call.
#[derive(Debug)]
pub struct Recorder {
    enabled: bool,
    epoch: Instant,
    thread: u32,
    measured: bool,
    next: u32,
    stack: Vec<(u32, &'static str, u64)>,
    spans: Vec<Span>,
}

impl Recorder {
    pub fn new(enabled: bool, epoch: Instant, thread: u32) -> Recorder {
        Recorder {
            enabled,
            epoch,
            thread,
            measured: false,
            next: 0,
            stack: Vec::new(),
            spans: Vec::new(),
        }
    }

    /// Marks the spans opened from now on as measured (or set-up).
    pub fn set_measured(&mut self, measured: bool) {
        self.measured = measured;
    }

    pub fn open(&mut self, name: &'static str, request: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.next;
        self.next += 1;
        self.stack.push((id, name, request));
        Open(Some((id, self.epoch.elapsed().as_nanos() as u64)))
    }

    /// Closes `open`; `counters` runs only when tracing is on.
    pub fn close(&mut self, open: Open, counters: impl FnOnce() -> Vec<(&'static str, u64)>) {
        let Some((id, start_ns)) = open.0 else { return };
        let end_ns = self.epoch.elapsed().as_nanos() as u64;
        let (top, name, request) = self.stack.pop().expect("spans close in order");
        assert_eq!(top, id, "spans close in the reverse order they opened");
        self.spans.push(Span {
            name,
            thread: self.thread,
            id,
            parent: self.stack.last().map(|&(p, _, _)| p),
            request,
            measured: self.measured,
            start_ns,
            end_ns,
            counters: counters(),
        });
    }

    pub fn into_spans(self) -> Vec<Span> {
        self.spans
    }
}

/// The cost of recording one span with `counters` counters, measured on
/// this machine by recording many throw-away spans. Tracing overhead is
/// this cost times the spans a thread recorded, over that thread's wall.
pub fn span_cost_s(counters: usize) -> f64 {
    const N: u32 = 20_000;
    let mut scratch = Recorder::new(true, Instant::now(), 0);
    let names = ["a", "b", "c", "d", "e", "f", "g", "h"];
    let t = Instant::now();
    for i in 0..N {
        let open = scratch.open("calibrate", u64::from(i));
        let picked = &names[..counters.min(names.len())];
        scratch.close(open, || picked.iter().map(|&n| (n, u64::from(i))).collect());
    }
    let cost = t.elapsed().as_secs_f64() / f64::from(N);
    std::hint::black_box(scratch.into_spans());
    cost
}

/// Self time of every span (aligned with `spans`): its duration minus
/// the union of its direct children's intervals, clipped to the span.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<(u32, u32), Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry((s.thread, p)).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut kids = children.get(&(s.thread, s.id)).cloned().unwrap_or_default();
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for (a, b) in kids {
                let (a, b) = (a.max(reach), b.min(s.end_ns));
                if b > a {
                    covered += b - a;
                    reach = b;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// The spans as a JSON array, one span per line.
pub fn to_json(spans: &[Span]) -> String {
    let self_ns = self_times_ns(spans);
    let mut out = String::from("[\n");
    for (i, (s, own)) in spans.iter().zip(&self_ns).enumerate() {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        let counters: Vec<String> =
            s.counters.iter().map(|(n, v)| format!("\"{n}\": {v}")).collect();
        let _ = writeln!(
            out,
            "  {{\"name\": \"{}\", \"thread\": {}, \"id\": {}, \"parent\": {parent}, \
             \"request\": {}, \"measured\": {}, \"start_ns\": {}, \"end_ns\": {}, \
             \"self_ns\": {own}, \"counters\": {{{}}}}}{}",
            s.name,
            s.thread,
            s.id,
            s.request,
            s.measured,
            s.start_ns,
            s.end_ns,
            counters.join(", "),
            if i + 1 < spans.len() { "," } else { "" }
        );
    }
    out.push_str("]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            name: "s",
            thread: 0,
            id,
            parent,
            request: 0,
            measured: true,
            start_ns,
            end_ns,
            counters: Vec::new(),
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let spans = vec![
            span(0, None, 0, 100),
            // Two overlapping children cover 10..50 once, not twice.
            span(1, Some(0), 10, 30),
            span(2, Some(0), 20, 50),
            span(3, Some(0), 60, 70),
            // A grandchild is covered by its parent, not by the root.
            span(4, Some(3), 62, 68),
            // A child running past its parent only counts up to the end.
            span(5, Some(0), 90, 120),
        ];
        let own = self_times_ns(&spans);
        assert_eq!(own[0], 100 - 40 - 10 - 10);
        assert_eq!(own[1], 20);
        assert_eq!(own[2], 30);
        assert_eq!(own[3], 10 - 6);
        assert_eq!(own[4], 6);
        assert_eq!(own[5], 30);
    }

    #[test]
    fn same_ids_on_other_threads_are_not_children() {
        let mut other = span(1, Some(0), 10, 90);
        other.thread = 1;
        let spans = vec![span(0, None, 0, 100), other];
        assert_eq!(self_times_ns(&spans)[0], 100);
    }

    #[test]
    fn recorder_nests_and_disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(true, Instant::now(), 0);
        let outer = rec.open("request", 7);
        let inner = rec.open("enumerate", 7);
        rec.close(inner, || vec![("explanations", 3)]);
        rec.close(outer, Vec::new);
        let spans = rec.into_spans();
        assert_eq!(spans.len(), 2);
        assert_eq!((spans[0].name, spans[0].parent), ("enumerate", Some(0)));
        assert_eq!((spans[1].name, spans[1].parent), ("request", None));
        assert_eq!(spans[0].counter("explanations"), 3);
        assert!(spans[1].start_ns <= spans[0].start_ns && spans[0].end_ns <= spans[1].end_ns);

        let mut off = Recorder::new(false, Instant::now(), 0);
        let open = off.open("request", 0);
        off.close(open, || panic!("counters are not computed when tracing is off"));
        assert!(off.into_spans().is_empty());
    }
}
