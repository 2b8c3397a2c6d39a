//! In-memory spans recorded by the benchmark around each layer call
//! (traced runs only), written out when the run ends.

use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::io::{self, Write};
use std::time::Instant;

/// One timed interval. `parent` 0 marks a root span; spans of one
/// request share `group`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Span id (1-based, unique within a run).
    pub id: u64,
    /// Id of the span that caused this one, or 0.
    pub parent: u64,
    /// Request or week this span belongs to.
    pub group: u64,
    /// Layer call name, e.g. `cloud.replay` or `proto.connect`.
    pub name: Cow<'static, str>,
    /// Start, nanoseconds since the recorder was made.
    pub start_ns: u64,
    /// End, nanoseconds since the recorder was made.
    pub end_ns: u64,
}

impl Span {
    /// Duration in seconds.
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

/// The run's span store.
#[derive(Debug)]
pub struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Spans {
    fn default() -> Self {
        Spans { origin: Instant::now(), spans: Vec::new() }
    }
}

impl Spans {
    /// An empty store whose clock starts now.
    pub fn new() -> Spans {
        Spans::default()
    }

    /// Nanoseconds of `at` since the store's origin.
    pub fn ns(&self, at: Instant) -> u64 {
        at.saturating_duration_since(self.origin).as_nanos() as u64
    }

    /// Record a finished span and return its id.
    pub fn record(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        group: u64,
        start: Instant,
        end: Instant,
    ) -> u64 {
        let (start_ns, end_ns) = (self.ns(start), self.ns(end));
        self.record_ns(name, parent, group, start_ns, end_ns)
    }

    /// Record a finished span given in store nanoseconds.
    pub fn record_ns(
        &mut self,
        name: impl Into<Cow<'static, str>>,
        parent: u64,
        group: u64,
        start_ns: u64,
        end_ns: u64,
    ) -> u64 {
        let id = self.spans.len() as u64 + 1;
        self.spans.push(Span { id, parent, group, name: name.into(), start_ns, end_ns });
        id
    }

    /// All spans, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Total self time per span name, in seconds, over the spans named
    /// `root` and their descendants: each span's duration minus the part
    /// of it its children cover.
    pub fn self_secs_under(&self, root: &str) -> BTreeMap<String, f64> {
        let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        let mut in_tree = vec![false; self.spans.len() + 1];
        for s in &self.spans {
            // Parents are recorded before their children, so one pass
            // marks the tree.
            in_tree[s.id as usize] = s.name == root || in_tree[s.parent as usize];
            if s.parent != 0 {
                children.entry(s.parent).or_default().push((s.start_ns, s.end_ns));
            }
        }
        let mut out = BTreeMap::new();
        for s in self.spans.iter().filter(|s| in_tree[s.id as usize]) {
            let covered = children.get(&s.id).map_or(0, |c| covered_ns(s.start_ns, s.end_ns, c));
            let own = (s.end_ns - s.start_ns).saturating_sub(covered) as f64 * 1e-9;
            *out.entry(s.name.to_string()).or_insert(0.0) += own;
        }
        out
    }

    /// Write the spans as TSV: id, parent, group, name, start_ns, end_ns.
    pub fn write_tsv(&self, mut w: impl Write) -> io::Result<()> {
        writeln!(w, "id\tparent\tgroup\tname\tstart_ns\tend_ns")?;
        for s in &self.spans {
            writeln!(
                w,
                "{}\t{}\t{}\t{}\t{}\t{}",
                s.id, s.parent, s.group, s.name, s.start_ns, s.end_ns
            )?;
        }
        w.flush()
    }
}

/// Length of the union of `intervals` clipped to `[start, end]`.
fn covered_ns(start: u64, end: u64, intervals: &[(u64, u64)]) -> u64 {
    let mut clipped: Vec<(u64, u64)> = intervals
        .iter()
        .map(|&(s, e)| (s.max(start), e.min(end)))
        .filter(|&(s, e)| s < e)
        .collect();
    clipped.sort_unstable();
    let mut total = 0;
    let mut cursor = start;
    for (s, e) in clipped {
        let s = s.max(cursor);
        if e > s {
            total += e - s;
            cursor = e;
        }
    }
    total
}
