//! In-memory spans recorded by the benchmark around its calls into each
//! layer. A span has a name, a start, an end and the span that caused it;
//! a layer's self time is its span's duration minus the part of that
//! interval its child spans cover. Spans stay in memory until the run
//! ends. A disabled tracer records nothing and reads no clock.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span; times are nanoseconds since the tracer started.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Unique within the tracer, never 0.
    pub id: u64,
    /// The enclosing span, if any.
    pub parent: Option<u64>,
    /// Layer-qualified name, e.g. `resident.insert`.
    pub name: &'static str,
    /// Start offset.
    pub start: u64,
    /// End offset (≥ `start`).
    pub end: u64,
}

/// Collects spans from any number of threads.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    next: AtomicU64,
    spans: Mutex<Vec<Span>>,
}

impl Tracer {
    /// A tracer that records spans when `enabled`.
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            epoch: Instant::now(),
            next: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
        }
    }

    /// Whether spans are recorded.
    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// Opens a span that ends when the guard drops.
    pub fn span(&self, name: &'static str, parent: Option<u64>) -> Guard<'_> {
        if !self.enabled {
            return Guard(None);
        }
        let id = self.next.fetch_add(1, Ordering::Relaxed);
        let start = self.now();
        Guard(Some(Open {
            tracer: self,
            id,
            parent,
            name,
            start,
        }))
    }

    fn now(&self) -> u64 {
        u64::try_from(self.epoch.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Every finished span, in completion order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list lock").clone()
    }
}

struct Open<'t> {
    tracer: &'t Tracer,
    id: u64,
    parent: Option<u64>,
    name: &'static str,
    start: u64,
}

/// An open span; recorded on drop.
pub struct Guard<'t>(Option<Open<'t>>);

impl Guard<'_> {
    /// The span's id, for use as a child's parent (`None` when disabled).
    pub fn id(&self) -> Option<u64> {
        self.0.as_ref().map(|o| o.id)
    }
}

impl Drop for Guard<'_> {
    fn drop(&mut self) {
        if let Some(o) = self.0.take() {
            let span = Span {
                id: o.id,
                parent: o.parent,
                name: o.name,
                start: o.start,
                end: o.tracer.now().max(o.start),
            };
            if let Ok(mut spans) = o.tracer.spans.lock() {
                spans.push(span);
            }
        }
    }
}

/// Self time of every span, as `(span, self_ns)`: its duration minus the
/// union of its children's intervals clipped to it.
pub fn self_times(spans: &[Span]) -> Vec<(&Span, u64)> {
    let mut children: std::collections::HashMap<u64, Vec<(u64, u64)>> =
        std::collections::HashMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start, s.end));
        }
    }
    spans
        .iter()
        .map(|s| {
            let mut covered = 0;
            if let Some(kids) = children.get_mut(&s.id) {
                kids.sort_unstable();
                let mut cursor = s.start;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(cursor), b.min(s.end));
                    if b > a {
                        covered += b - a;
                        cursor = b;
                    }
                }
            }
            (s, s.end - s.start - covered)
        })
        .collect()
}

/// Self times in milliseconds of every span named `name`.
pub fn self_ms(spans: &[Span], name: &str) -> Vec<f64> {
    self_times(spans)
        .into_iter()
        .filter(|(s, _)| s.name == name)
        .map(|(_, ns)| ns as f64 / 1e6)
        .collect()
}

/// Total self time in milliseconds over spans named `name`.
pub fn total_self_ms(spans: &[Span], name: &str) -> f64 {
    self_ms(spans, name).iter().sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: Option<u64>, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            name: "x",
            start,
            end,
        }
    }

    #[test]
    fn self_time_is_span_minus_children() {
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 30),
            span(3, Some(1), 50, 60),
            span(4, Some(2), 12, 20),
        ];
        let got: Vec<u64> = self_times(&spans).into_iter().map(|(_, t)| t).collect();
        assert_eq!(got, vec![70, 12, 10, 8]);
    }

    #[test]
    fn overlapping_and_overhanging_children_count_once() {
        // Children from two threads overlap; one outlives its parent.
        let spans = vec![
            span(1, None, 0, 100),
            span(2, Some(1), 10, 50),
            span(3, Some(1), 40, 70),
            span(4, Some(1), 90, 130),
        ];
        let got: Vec<u64> = self_times(&spans).into_iter().map(|(_, t)| t).collect();
        assert_eq!(got[0], 100 - 60 - 10);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let off = Tracer::new(false);
        let g = off.span("a", None);
        assert_eq!(g.id(), None);
        drop(g);
        assert!(off.spans().is_empty());
        let on = Tracer::new(true);
        {
            let outer = on.span("outer", None);
            let _inner = on.span("inner", outer.id());
        }
        let spans = on.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].name, "inner");
        assert_eq!(spans[0].parent, Some(spans[1].id));
        assert!(total_self_ms(&spans, "outer") >= 0.0);
    }
}
