//! In-memory span recording for the traced run.
//!
//! The benchmark wraps a span around each call it makes into a crate's
//! public functions (trace synthesis, assembly, machine build and run,
//! canonical JSON, snapshot capture/encode/decode/resume, service round
//! trips, oracle checks). Spans are kept in memory, written out as JSON
//! lines when the benchmark ends, and folded into a per-layer table: a
//! span's self time is its duration minus the part of it its child spans
//! cover. Nothing is recorded inside the program itself.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// One finished span. `parent` 0 marks a root; spans of one request
/// (a batch, a point, a verification task) share `req`.
#[derive(Debug, Clone, Copy)]
pub struct Rec {
    pub id: u32,
    pub parent: u32,
    pub req: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The span store of one traced run.
pub struct Spans {
    t0: Instant,
    next: AtomicU32,
    recs: Mutex<Vec<Rec>>,
}

/// Where a call records its span: `None` in untraced runs, which then
/// pay nothing beyond one branch per call.
pub type Tr<'a> = Option<&'a Spans>;

impl Spans {
    pub fn new() -> Spans {
        Spans {
            t0: Instant::now(),
            next: AtomicU32::new(1),
            recs: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Every span recorded so far.
    pub fn records(&self) -> Vec<Rec> {
        self.recs.lock().expect("span store poisoned").clone()
    }

    /// Writes the spans as JSON lines to `path`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for r in self.records() {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"req\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                r.id, r.parent, r.req, r.name, r.start_ns, r.end_ns
            )?;
        }
        out.flush()
    }
}

/// Runs `f` inside a span named `name` under `parent`; `f` receives the
/// new span's id so it can parent its own calls. Untraced (`tr` is
/// `None`), it is a plain call with id 0.
pub fn span<R>(tr: Tr, name: &'static str, parent: u32, req: u64, f: impl FnOnce(u32) -> R) -> R {
    let Some(s) = tr else { return f(0) };
    let id = s.next.fetch_add(1, Ordering::Relaxed);
    let start_ns = s.now_ns();
    let out = f(id);
    let end_ns = s.now_ns();
    s.recs.lock().expect("span store poisoned").push(Rec {
        id,
        parent,
        req,
        name,
        start_ns,
        end_ns,
    });
    out
}

/// Per-name aggregate of a span set.
#[derive(Debug, Clone, Copy, Default)]
pub struct Layer {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

impl Layer {
    /// Mean self time per span, milliseconds (0 when no span).
    pub fn mean_self_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.self_ns as f64 / self.count as f64 / 1e6
        }
    }
}

/// Folds spans into per-name totals with self times: each span's
/// duration minus the union of its children's intervals (clipped to
/// the parent).
pub fn layers(recs: &[Rec]) -> BTreeMap<&'static str, Layer> {
    let mut children: BTreeMap<u32, Vec<(u64, u64)>> = BTreeMap::new();
    for r in recs.iter().filter(|r| r.parent != 0) {
        children
            .entry(r.parent)
            .or_default()
            .push((r.start_ns, r.end_ns));
    }
    let mut out: BTreeMap<&'static str, Layer> = BTreeMap::new();
    for r in recs {
        let mut covered = 0u64;
        if let Some(kids) = children.get_mut(&r.id) {
            kids.sort_unstable();
            let mut cur: Option<(u64, u64)> = None;
            for &(s, e) in kids.iter() {
                let (s, e) = (s.max(r.start_ns), e.min(r.end_ns));
                if e <= s {
                    continue;
                }
                cur = match cur {
                    Some((cs, ce)) if s <= ce => Some((cs, ce.max(e))),
                    Some((cs, ce)) => {
                        covered += ce - cs;
                        Some((s, e))
                    }
                    None => Some((s, e)),
                };
            }
            if let Some((cs, ce)) = cur {
                covered += ce - cs;
            }
        }
        let dur = r.end_ns.saturating_sub(r.start_ns);
        let l = out.entry(r.name).or_default();
        l.count += 1;
        l.total_ns += dur;
        l.self_ns += dur.saturating_sub(covered);
    }
    out
}

/// Renders the per-layer table: spans, total and self time, mean self
/// time and self share of `wall_ns`.
pub fn table(layers: &BTreeMap<&'static str, Layer>, wall_ns: u64) -> Vec<String> {
    let mut rows = vec![format!(
        "{:<26} {:>7} {:>11} {:>11} {:>11} {:>7}",
        "span", "count", "total_ms", "self_ms", "mean_self", "self%"
    )];
    let mut sorted: Vec<_> = layers.iter().collect();
    sorted.sort_by_key(|(_, l)| std::cmp::Reverse(l.self_ns));
    for (name, l) in sorted {
        rows.push(format!(
            "{:<26} {:>7} {:>11.3} {:>11.3} {:>11.4} {:>6.2}%",
            name,
            l.count,
            l.total_ns as f64 / 1e6,
            l.self_ns as f64 / 1e6,
            l.mean_self_ms(),
            100.0 * l.self_ns as f64 / wall_ns.max(1) as f64
        ));
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(id: u32, parent: u32, start_ns: u64, end_ns: u64) -> Rec {
        Rec {
            id,
            parent,
            req: 0,
            name: if parent == 0 { "root" } else { "child" },
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Children [10,30) and [20,40) overlap: they cover 30 ns of the
        // root's 100, and [120,150) is clipped away entirely.
        let recs = [
            rec(1, 0, 0, 100),
            rec(2, 1, 10, 30),
            rec(3, 1, 20, 40),
            rec(4, 1, 120, 150),
        ];
        let l = layers(&recs);
        assert_eq!(l["root"].self_ns, 70);
        assert_eq!(l["child"].count, 3);
        assert_eq!(l["child"].self_ns, 20 + 20 + 30);
    }
}
