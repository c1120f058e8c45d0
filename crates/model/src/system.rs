//! Systems: sets of runs, with an index for indistinguishability.
//!
//! A *system* `R` is a set of runs (§2.1); knowledge is defined relative to a
//! system: `(R, r, m) ⊨ K_p φ` iff `φ` holds at **every** point `(r′, m′)` of
//! `R` with `r′_p(m′) = r_p(m)`. Evaluating `K_p` therefore needs, given a
//! local history, all points of the system sharing it.
//!
//! [`System`] resolves the whole `~_p` relation at construction, in one pass
//! per process over a *history trie*. The root is the empty history, and the
//! child of a node by event `e` is that node's history extended by `e`; each
//! node is one equivalence class. Walking a run's `p`-history down the trie
//! visits the classes of its prefixes in order, and because a process's
//! event ticks strictly increase (R2), each prefix holds on one contiguous
//! block of ticks, which joins that class. A child is keyed by the event
//! itself, so two histories reach the same node iff they are equal, with no
//! history hashed or compared as a whole. Class ids are node ids, assigned
//! in first-encounter order over (process, run, tick), so they are
//! deterministic for a given run list.
//!
//! A query is then the run's own binary search for the prefix length plus a
//! slice borrow: no hashing, no history comparison, no allocation. The
//! epistemic checker leans on this heavily — it evaluates `K_p` once per
//! class instead of once per point.

use crate::{Event, Point, ProcessId, Run, Time};
use std::collections::HashMap;
use std::hash::Hash;
use std::ops::Range;

/// A contiguous block of points of one run sharing a local history for some
/// process: ticks `from ..= to` of run `run`, at which the process's history
/// prefix has length `len`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct IndistinguishableBlock {
    /// Run index within the system.
    pub run: usize,
    /// First tick of the block.
    pub from: Time,
    /// Last tick of the block (inclusive).
    pub to: Time,
    /// Length of the local history prefix throughout the block.
    pub len: usize,
}

impl IndistinguishableBlock {
    /// Iterates the points of the block.
    pub fn points(self) -> impl Iterator<Item = Point> {
        (self.from..=self.to).map(move |t| Point::new(self.run, t))
    }

    /// Number of points in the block.
    #[must_use]
    pub fn point_count(self) -> usize {
        (self.to - self.from) as usize + 1
    }
}

/// A finite system of runs over a common process set, indexed for the
/// indistinguishability relation `~_p`.
///
/// # Example
///
/// ```
/// use ktudc_model::{Event, ProcessId, RunBuilder, System};
///
/// let p0 = ProcessId::new(0);
/// let p1 = ProcessId::new(1);
/// let mut b = RunBuilder::<&str>::new(2);
/// b.append(p0, 1, Event::Send { to: p1, msg: "m" })?;
/// let r0 = b.finish(3);
///
/// let mut b = RunBuilder::<&str>::new(2);
/// b.append(p0, 2, Event::Send { to: p1, msg: "m" })?;
/// b.append(p1, 3, Event::Recv { from: p0, msg: "m" })?;
/// let r1 = b.finish(3);
///
/// let sys = System::new(vec![r0, r1]);
/// // After sending, p0 cannot tell the two runs apart at any tick:
/// let blocks = sys.indistinguishable_blocks(p0, 0, 1);
/// assert_eq!(blocks.iter().map(|b| b.run).collect::<Vec<_>>(), vec![0, 1]);
/// # Ok::<(), ktudc_model::ModelError>(())
/// ```
#[derive(Clone, Debug)]
pub struct System<M> {
    runs: Vec<Run<M>>,
    n: usize,
    /// `classes[cid]` = the blocks of one `~_p` equivalence class, in run
    /// order. Class ids are grouped by process (see `class_offsets`) and
    /// assigned in first-encounter order over (process, run, tick).
    classes: Vec<Vec<IndistinguishableBlock>>,
    /// `class_offsets[p] .. class_offsets[p + 1]` is the id range of
    /// process `p`'s classes. Length `n + 1`.
    class_offsets: Vec<usize>,
    /// `prefix_classes[prefix_offsets[p · runs + ri] + len]` = the class of
    /// `p`'s history prefix of length `len` in run `ri`, for `len` in
    /// `0 ..= events`. A point's prefix length is the run's own binary
    /// search, so the block start ticks are not stored again.
    prefix_classes: Vec<u32>,
    /// Start of each (process, run) segment of `prefix_classes`, plus a
    /// final entry = its length.
    prefix_offsets: Vec<u32>,
}

impl<M: Eq + Hash> System<M> {
    /// Builds a system from runs, resolving the full indistinguishability
    /// relation up front.
    ///
    /// # Panics
    ///
    /// Panics if the runs disagree on the number of processes, or if `runs`
    /// is empty (a system must be nonempty for knowledge to be well
    /// defined).
    #[must_use]
    pub fn new(runs: Vec<Run<M>>) -> Self {
        assert!(!runs.is_empty(), "a system must contain at least one run");
        let n = runs[0].n();
        assert!(
            runs.iter().all(|r| r.n() == n),
            "all runs of a system must share the same process set"
        );
        let id = |x: usize| u32::try_from(x).expect("a system index beyond u32::MAX");
        // One entry per history prefix: `events + 1` per (process, run).
        let prefixes = runs.iter().map(Run::event_count).sum::<usize>() + n * runs.len();
        let mut prefix_classes = Vec::with_capacity(prefixes);
        let mut prefix_offsets = Vec::with_capacity(n * runs.len() + 1);
        let mut classes: Vec<Vec<IndistinguishableBlock>> = Vec::new();
        let mut class_offsets = Vec::with_capacity(n + 1);
        class_offsets.push(0);
        // `p`'s history trie, whose nodes are the classes: the child of
        // class `c` by event `e` is the class of `c`'s history extended by
        // `e`. Keyed by the event itself, so no two histories share a node.
        let mut trie: HashMap<(u32, &Event<M>), u32> = HashMap::new();
        let mut last_child: Vec<Option<(&Event<M>, u32)>> = Vec::new();
        for p in ProcessId::all(n) {
            trie.clear();
            let root = id(classes.len());
            classes.push(Vec::new());
            last_child.push(None);
            for (ri, run) in runs.iter().enumerate() {
                prefix_offsets.push(id(prefix_classes.len()));
                let (mut class, mut from) = (root, 0);
                // Event ticks partition [0, horizon] into blocks of constant
                // history, one block per prefix.
                let ends = run.timed_history(p).map(|(t, e)| (t, Some(e)));
                for (len, (end, event)) in ends.chain([(run.horizon() + 1, None)]).enumerate() {
                    if end > from {
                        classes[class as usize].push(IndistinguishableBlock {
                            run: ri,
                            from,
                            to: end - 1,
                            len,
                        });
                    }
                    prefix_classes.push(class);
                    if let Some(event) = event {
                        // Runs that share a prefix mostly take the same
                        // child again: compare before hashing.
                        class = match last_child[class as usize] {
                            Some((e, c)) if e == event => c,
                            _ => {
                                let c = *trie.entry((class, event)).or_insert_with(|| {
                                    classes.push(Vec::new());
                                    last_child.push(None);
                                    id(classes.len() - 1)
                                });
                                last_child[class as usize] = Some((event, c));
                                c
                            }
                        };
                    }
                    from = end;
                }
            }
            class_offsets.push(classes.len());
        }
        prefix_offsets.push(id(prefix_classes.len()));
        System {
            runs,
            n,
            classes,
            class_offsets,
            prefix_classes,
            prefix_offsets,
        }
    }
}

impl<M> System<M> {
    /// All blocks of points of the system whose `p`-history equals the
    /// `p`-history at `(run, m)` — i.e. the equivalence class of `(run, m)`
    /// under `~_p`, as contiguous blocks in run order. Always includes a
    /// block containing `(run, m)` itself (reflexivity).
    ///
    /// # Panics
    ///
    /// Panics if `run` is out of range or `m` exceeds that run's horizon.
    #[must_use]
    pub fn indistinguishable_blocks(
        &self,
        p: ProcessId,
        run: usize,
        m: Time,
    ) -> &[IndistinguishableBlock] {
        &self.classes[self.class_id(p, run, m) as usize]
    }

    /// The equivalence-class id of point `(run, m)` under `~_p`. Ids are
    /// global across processes; use [`System::class_range`] for a process's
    /// id range.
    ///
    /// # Panics
    ///
    /// Panics if `run` is out of range or `m` exceeds that run's horizon.
    #[must_use]
    pub fn class_id(&self, p: ProcessId, run: usize, m: Time) -> u32 {
        let r = &self.runs[run];
        assert!(m <= r.horizon(), "tick {m} beyond horizon {}", r.horizon());
        let len = r.history_at(p, m).len();
        self.prefix_classes[self.prefix_offsets[p.index() * self.runs.len() + run] as usize + len]
    }

    /// The blocks of equivalence class `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is not a class id of this system.
    #[must_use]
    pub fn class_blocks(&self, id: u32) -> &[IndistinguishableBlock] {
        &self.classes[id as usize]
    }

    /// The id range of process `p`'s equivalence classes; together with
    /// [`System::class_blocks`] this iterates the whole `~_p` partition
    /// without touching individual points.
    #[must_use]
    pub fn class_range(&self, p: ProcessId) -> Range<u32> {
        let lo = self.class_offsets[p.index()] as u32;
        let hi = self.class_offsets[p.index() + 1] as u32;
        lo..hi
    }

    /// Total number of equivalence classes over all processes.
    #[must_use]
    pub fn class_count(&self) -> usize {
        self.classes.len()
    }

    /// The number of processes shared by every run.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The runs of the system.
    #[must_use]
    pub fn runs(&self) -> &[Run<M>] {
        &self.runs
    }

    /// The run at `index`.
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    #[must_use]
    pub fn run(&self, index: usize) -> &Run<M> {
        &self.runs[index]
    }

    /// Number of runs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.runs.len()
    }

    /// Always `false`: systems are nonempty by construction. Provided for
    /// API completeness alongside [`System::len`].
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.runs.is_empty()
    }

    /// Iterates over every point `(r, m)` of the system, `m` ranging over
    /// `0 ..= horizon` of each run.
    pub fn points(&self) -> impl Iterator<Item = Point> + '_ {
        self.runs
            .iter()
            .enumerate()
            .flat_map(|(ri, r)| (0..=r.horizon()).map(move |m| Point::new(ri, m)))
    }

    /// Total number of points.
    #[must_use]
    pub fn point_count(&self) -> usize {
        self.runs.iter().map(|r| r.horizon() as usize + 1).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, RunBuilder};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn send_run(tick: Time, horizon: Time) -> Run<&'static str> {
        let mut b = RunBuilder::new(2);
        b.append(p(0), tick, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        b.finish(horizon)
    }

    #[test]
    fn blocks_partition_the_timeline() {
        let sys = System::new(vec![send_run(2, 5)]);
        // p0's history is empty on [0,1] and has one event on [2,5].
        let empty_blocks = sys.indistinguishable_blocks(p(0), 0, 0);
        assert_eq!(empty_blocks.len(), 1);
        assert_eq!((empty_blocks[0].from, empty_blocks[0].to), (0, 1));
        assert_eq!(empty_blocks[0].len, 0);
        let sent_blocks = sys.indistinguishable_blocks(p(0), 0, 3);
        assert_eq!(sent_blocks.len(), 1);
        assert_eq!((sent_blocks[0].from, sent_blocks[0].to), (2, 5));
        // p1 never observes anything: one block covering everything.
        let p1_blocks = sys.indistinguishable_blocks(p(1), 0, 4);
        assert_eq!((p1_blocks[0].from, p1_blocks[0].to), (0, 5));
    }

    #[test]
    fn cross_run_indistinguishability() {
        // Two runs where p0 sends at different ticks: after the send the
        // histories coincide, so the classes span both runs.
        let sys = System::new(vec![send_run(1, 4), send_run(3, 4)]);
        let blocks = sys.indistinguishable_blocks(p(0), 0, 2);
        let runs: Vec<usize> = blocks.iter().map(|b| b.run).collect();
        assert_eq!(runs, vec![0, 1]);
        // Point expansion covers the right ticks.
        let pts: Vec<Point> = blocks.iter().flat_map(|b| b.points()).collect();
        assert!(pts.contains(&Point::new(0, 1)));
        assert!(pts.contains(&Point::new(1, 3)));
        assert!(!pts.contains(&Point::new(1, 2))); // history still empty there
    }

    #[test]
    fn reflexivity() {
        let sys = System::new(vec![send_run(1, 3)]);
        for pt in sys.points() {
            for q in ProcessId::all(2) {
                let blocks = sys.indistinguishable_blocks(q, pt.run, pt.time);
                assert!(
                    blocks
                        .iter()
                        .any(|b| b.run == pt.run && b.from <= pt.time && pt.time <= b.to),
                    "point {pt} missing from its own ~_{q} class"
                );
            }
        }
    }

    #[test]
    fn distinguishable_histories_are_separated() {
        let mut b = RunBuilder::<&str>::new(2);
        b.append(p(0), 1, Event::Send { to: p(1), msg: "x" })
            .unwrap();
        let rx = b.finish(3);
        let sys = System::new(vec![send_run(1, 3), rx]);
        // At tick 1, p0 sent "m" in run 0 and "x" in run 1: different classes.
        let blocks = sys.indistinguishable_blocks(p(0), 0, 1);
        assert!(blocks.iter().all(|b| b.run == 0));
        // p1 saw nothing in either: same class.
        let blocks = sys.indistinguishable_blocks(p(1), 0, 1);
        assert_eq!(blocks.len(), 2);
    }

    #[test]
    fn points_enumeration_and_count() {
        let sys = System::new(vec![send_run(1, 2), send_run(1, 4)]);
        assert_eq!(sys.point_count(), 3 + 5);
        assert_eq!(sys.points().count(), 8);
        assert_eq!(sys.len(), 2);
        assert!(!sys.is_empty());
        assert_eq!(sys.n(), 2);
        assert_eq!(sys.run(1).horizon(), 4);
    }

    #[test]
    fn class_index_is_consistent() {
        let sys = System::new(vec![send_run(1, 4), send_run(3, 4), send_run(1, 4)]);
        for q in ProcessId::all(2) {
            let range = sys.class_range(q);
            // Every point's class id is in its process's range, and the
            // class's blocks contain the point.
            for pt in sys.points() {
                let cid = sys.class_id(q, pt.run, pt.time);
                assert!(range.contains(&cid));
                assert!(sys
                    .class_blocks(cid)
                    .iter()
                    .any(|b| b.run == pt.run && b.from <= pt.time && pt.time <= b.to));
                assert_eq!(
                    sys.class_blocks(cid),
                    sys.indistinguishable_blocks(q, pt.run, pt.time)
                );
            }
            // Each class's blocks are disjoint, in run order, and their
            // union over the range partitions all points.
            let mut covered = 0;
            for cid in range {
                let blocks = sys.class_blocks(cid);
                assert!(!blocks.is_empty());
                for w in blocks.windows(2) {
                    assert!(w[0].run < w[1].run || (w[0].run == w[1].run && w[0].to < w[1].from));
                }
                covered += blocks.iter().map(|b| b.point_count()).sum::<usize>();
            }
            assert_eq!(covered, sys.point_count());
        }
        assert_eq!(
            sys.class_count(),
            (0..2).map(|q| sys.class_range(p(q)).len()).sum::<usize>()
        );
    }

    #[test]
    fn class_ids_are_deterministic() {
        let build = || System::new(vec![send_run(1, 4), send_run(3, 4)]);
        let a = build();
        let b = build();
        for pt in a.points() {
            for q in ProcessId::all(2) {
                assert_eq!(
                    a.class_id(q, pt.run, pt.time),
                    b.class_id(q, pt.run, pt.time)
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one run")]
    fn empty_system_panics() {
        let _ = System::<u8>::new(vec![]);
    }

    #[test]
    #[should_panic(expected = "same process set")]
    fn mismatched_process_counts_panic() {
        let r2 = send_run(1, 2);
        let mut b = RunBuilder::<&str>::new(3);
        b.append(p(0), 1, Event::Crash).unwrap();
        let r3 = b.finish(2);
        let _ = System::new(vec![r2, r3]);
    }
}
