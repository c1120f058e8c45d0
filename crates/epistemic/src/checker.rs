//! The model checker: global evaluation of epistemic-temporal formulas.
//!
//! [`ModelChecker`] evaluates each distinct subformula to a packed truth
//! table ([`BitTable`]) over *every* point of the system (global model
//! checking). Distinct subformulas are hash-consed to small integer ids and
//! their tables memoized behind `Arc`, so a subformula shared between
//! queries is computed once and its table shared without copying.
//!
//! The `K_p` clause is computed exactly, and *per equivalence class* rather
//! than per point: the system's precomputed `~_p` partition
//! ([`System::class_range`]/[`System::class_blocks`]) gives each class as a
//! handful of contiguous tick ranges. On first use of `p` the checker
//! flattens them into one table of global bit spans in class order
//! (`ClassSpans`); the subformula table is AND-reduced over a class's
//! spans word-wise, and the verdict is written back to the whole class
//! with range fills. Temporal operators are one word-level range scan and
//! one range fill per run. Primitive tables are built from per-run event
//! scans (cheap, `O(events)`) followed by word-wise range fills. Every
//! pass is sequential: the tables are small enough that a fork/join costs
//! more than it saves.
//!
//! The previous per-point scalar evaluator is preserved unchanged in
//! [`crate::reference`] as the differential-testing baseline.

use crate::bittable::{BitTable, Layout};
use crate::formula::{Formula, Prim};
use ktudc_model::budget::{AbortReason, Budget};
use ktudc_model::{Event, Point, ProcSet, ProcessId, SuspectReport, System, Time};
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Arc;

/// An epistemic-temporal model checker over one system.
///
/// # Example
///
/// ```
/// use ktudc_epistemic::{Formula, ModelChecker};
/// use ktudc_model::{Event, Point, ProcessId, RunBuilder, System};
///
/// let p0 = ProcessId::new(0);
/// let p1 = ProcessId::new(1);
///
/// // Run A: p1 crashes at tick 1. Run B: nothing happens.
/// let mut b = RunBuilder::<u8>::new(2);
/// b.append(p1, 1, Event::Crash)?;
/// let run_a = b.finish(3);
/// let run_b = RunBuilder::<u8>::new(2).finish(3);
/// let system = System::new(vec![run_a, run_b]);
/// let mut mc = ModelChecker::new(&system);
///
/// // p1 has crashed at (A, 2) — but p0 cannot know it: (B, 2) looks the same.
/// assert!(mc.eval(&Formula::crashed(p1), Point::new(0, 2)));
/// assert!(!mc.eval(&Formula::knows(p0, Formula::crashed(p1)), Point::new(0, 2)));
/// # Ok::<(), ktudc_model::ModelError>(())
/// ```
pub struct ModelChecker<'a, M> {
    system: &'a System<M>,
    layout: Arc<Layout>,
    /// Hash-consing: each distinct subformula gets a dense id on first
    /// sight; `tables[id]` memoizes its truth table.
    ids: HashMap<Formula<M>, u32>,
    tables: Vec<Option<Arc<BitTable>>>,
    /// Per-process `~_p` class structure as global bit spans, flattened
    /// once on first use.
    class_spans: Vec<Option<ClassSpans>>,
}

/// One process's `~_p` partition as a flat table of global bit spans, in
/// class order: class `c` owns `spans[bounds[c]..bounds[c + 1]]`.
struct ClassSpans {
    /// Inclusive global bit ranges `(from, to)`, one per block.
    spans: Vec<(u32, u32)>,
    /// Span offset of each class, plus a final entry = `spans.len()`.
    bounds: Vec<u32>,
}

impl ClassSpans {
    fn new<M>(system: &System<M>, layout: &Layout, p: ProcessId) -> Self {
        let index = |x: usize| u32::try_from(x).expect("a span index beyond u32::MAX");
        let classes = system.class_range(p);
        let mut spans = Vec::new();
        let mut bounds = Vec::with_capacity(classes.len() + 1);
        bounds.push(0);
        for cid in classes {
            for b in system.class_blocks(cid) {
                spans.push((
                    index(layout.bit(b.run, b.from)),
                    index(layout.bit(b.run, b.to)),
                ));
            }
            bounds.push(index(spans.len()));
        }
        ClassSpans { spans, bounds }
    }

    /// The spans of each class, in class order.
    fn classes(&self) -> impl Iterator<Item = &[(u32, u32)]> {
        self.bounds
            .windows(2)
            .map(|b| &self.spans[b[0] as usize..b[1] as usize])
    }
}

impl<'a, M: Clone + Eq + Hash> ModelChecker<'a, M> {
    /// Creates a checker over `system`.
    #[must_use]
    pub fn new(system: &'a System<M>) -> Self {
        let n = system.n();
        ModelChecker {
            system,
            layout: Arc::new(Layout::for_system(system)),
            ids: HashMap::new(),
            tables: Vec::new(),
            class_spans: (0..n).map(|_| None).collect(),
        }
    }

    /// The system under analysis.
    #[must_use]
    pub fn system(&self) -> &'a System<M> {
        self.system
    }

    /// The `~_p` classes of `p` as spans, flattened once and reused by
    /// every `K_p` evaluation.
    fn class_spans_for(&mut self, p: ProcessId) -> &ClassSpans {
        let (system, layout) = (self.system, &self.layout);
        self.class_spans[p.index()].get_or_insert_with(|| ClassSpans::new(system, layout, p))
    }

    /// Evaluates `(R, r, m) ⊨ φ`.
    ///
    /// # Panics
    ///
    /// Panics if the point is out of range for the system.
    pub fn eval(&mut self, formula: &Formula<M>, pt: Point) -> bool {
        self.table(formula).get(pt.run, pt.time)
    }

    /// Checks validity `R ⊨ φ`; on failure returns the first counterexample
    /// point.
    ///
    /// # Errors
    ///
    /// Returns the earliest point (in run order, then time) where `φ` is
    /// false.
    pub fn valid(&mut self, formula: &Formula<M>) -> Result<(), Point> {
        let table = self.table(formula);
        match table.first_zero() {
            None => Ok(()),
            Some((ri, m)) => Err(Point::new(ri, m)),
        }
    }

    /// [`valid`](Self::valid) under a [`Budget`]: table construction polls
    /// the budget (per class for `K_p`, per run for primitives, once per
    /// table for everything else) and memoized table bytes are charged against
    /// its memory cap. Tables whose construction the budget interrupted
    /// are **not** memoized — a partially evaluated `K_p` table is
    /// garbage, and caching it would silently corrupt every later query
    /// on this checker.
    ///
    /// # Errors
    ///
    /// The outer error is the budget trip; the inner result is the usual
    /// validity verdict with counterexample.
    pub fn valid_budgeted(
        &mut self,
        formula: &Formula<M>,
        budget: &Budget,
    ) -> Result<Result<(), Point>, AbortReason> {
        let table = self.table_budgeted(formula, Some(budget))?;
        Ok(match table.first_zero() {
            None => Ok(()),
            Some((ri, m)) => Err(Point::new(ri, m)),
        })
    }

    /// All points satisfying `φ`.
    pub fn satisfying_points(&mut self, formula: &Formula<M>) -> Vec<Point> {
        let table = self.table(formula);
        let mut out = Vec::with_capacity(table.count_ones());
        for (ri, run) in self.system.runs().iter().enumerate() {
            for m in 0..=run.horizon() {
                if table.get(ri, m) {
                    out.push(Point::new(ri, m));
                }
            }
        }
        out
    }

    /// Whether `φ` is **local to** `p` (§2.3): at every point, `p` knows
    /// whether `φ` holds, i.e. `K_p φ ∨ K_p ¬φ` is valid.
    pub fn is_local(&mut self, formula: &Formula<M>, p: ProcessId) -> bool {
        let f = Formula::or(vec![
            Formula::knows(p, formula.clone()),
            Formula::knows(p, Formula::not(formula.clone())),
        ]);
        self.valid(&f).is_ok()
    }

    /// Whether `φ` is **stable** (§2.3): `φ ⇒ ✷φ` is valid.
    pub fn is_stable(&mut self, formula: &Formula<M>) -> bool {
        let f = Formula::implies(formula.clone(), Formula::always(formula.clone()));
        self.valid(&f).is_ok()
    }

    /// Whether `φ` (local to `q`) is **insensitive to failure by** `q`
    /// (Definition 3.3): whenever `r′_q(m′) = r_q(m) · crash_q`, `φ` has the
    /// same truth value at `(r, m)` and `(r′, m′)`.
    ///
    /// Checked exactly over the system: for each crash event of `q`, the
    /// class of points whose `q`-history is the pre-crash prefix and the
    /// class whose `q`-history is that prefix plus `crash_q` must agree on
    /// `φ`.
    pub fn is_insensitive_to_failure(&mut self, formula: &Formula<M>, q: ProcessId) -> bool {
        let table = self.table(formula);
        for (ri, run) in self.system.runs().iter().enumerate() {
            let Some(crash_tick) = run.crash_time(q) else {
                continue;
            };
            let before = self.system.indistinguishable_blocks(q, ri, crash_tick - 1);
            let after = self.system.indistinguishable_blocks(q, ri, crash_tick);
            let mut values = before
                .iter()
                .chain(after.iter())
                .flat_map(|b| b.points())
                .map(|pt| table.get(pt.run, pt.time));
            let Some(first) = values.next() else { continue };
            if values.any(|v| v != first) {
                return false;
            }
        }
        true
    }

    /// `{q : (R, r, m) ⊨ K_p crash(q)}` — the set used by the paper's
    /// `f(r)` construction (P3 of §3) to define the simulated perfect
    /// detector's reports.
    pub fn knowledge_of_crashes(&mut self, p: ProcessId, pt: Point) -> ProcSet {
        ProcessId::all(self.system.n())
            .filter(|&q| self.eval(&Formula::knows(p, Formula::crashed(q)), pt))
            .collect()
    }

    /// The largest `k` such that `p` *knows* at `pt` that at least `k`
    /// processes of `set` have crashed — i.e. the minimum of
    /// `|crashed ∩ set|` over `pt`'s `~_p`-class. Used by the `f′(r)`
    /// construction (P3′ of §4).
    pub fn max_known_crashed_in(&mut self, p: ProcessId, set: ProcSet, pt: Point) -> usize {
        self.system
            .indistinguishable_blocks(p, pt.run, pt.time)
            .iter()
            .flat_map(|b| b.points())
            .map(|q_pt| {
                self.system
                    .run(q_pt.run)
                    .crashed_by(q_pt.time)
                    .intersection(set)
                    .len()
            })
            .min()
            .unwrap_or(0)
    }

    /// Number of distinct subformula tables memoized so far.
    #[must_use]
    pub fn cached_table_count(&self) -> usize {
        self.tables.iter().filter(|t| t.is_some()).count()
    }

    /// Total bytes of memoized truth tables — the checker's dominant memory
    /// cost. Tables are `Arc`-shared, so this is also the peak: tables are
    /// never copied, only borrowed.
    #[must_use]
    pub fn table_bytes(&self) -> usize {
        self.tables.iter().flatten().map(|t| t.byte_size()).sum()
    }

    /// Computes (or fetches) the truth table of `formula` over all points.
    fn table(&mut self, formula: &Formula<M>) -> Arc<BitTable> {
        match self.table_budgeted(formula, None) {
            Ok(t) => t,
            Err(_) => unreachable!("an unbudgeted evaluation cannot abort"),
        }
    }

    /// [`table`](Self::table) with optional budget polling. A tripped
    /// budget propagates as `Err` *before* the offending table is
    /// memoized: `self.tables` only ever holds fully computed tables.
    fn table_budgeted(
        &mut self,
        formula: &Formula<M>,
        budget: Option<&Budget>,
    ) -> Result<Arc<BitTable>, AbortReason> {
        let id = match self.ids.get(formula) {
            Some(&id) => id as usize,
            None => {
                let id = self.tables.len();
                self.ids.insert(
                    formula.clone(),
                    u32::try_from(id).expect("more than u32::MAX distinct subformulas"),
                );
                self.tables.push(None);
                id
            }
        };
        if let Some(t) = &self.tables[id] {
            return Ok(Arc::clone(t));
        }
        if let Some(b) = budget {
            b.check()?;
        }
        let table = match formula {
            Formula::True => BitTable::filled(Arc::clone(&self.layout), true),
            Formula::Prim(prim) => self.prim_table(prim, budget)?,
            Formula::Not(inner) => {
                let mut t = (*self.table_budgeted(inner, budget)?).clone();
                t.not_inplace();
                t
            }
            Formula::And(parts) => {
                let mut acc = BitTable::filled(Arc::clone(&self.layout), true);
                for part in parts {
                    let t = self.table_budgeted(part, budget)?;
                    acc.and_inplace(&t);
                }
                acc
            }
            Formula::Or(parts) => {
                let mut acc = BitTable::filled(Arc::clone(&self.layout), false);
                for part in parts {
                    let t = self.table_budgeted(part, budget)?;
                    acc.or_inplace(&t);
                }
                acc
            }
            Formula::Always(inner) => self.table_budgeted(inner, budget)?.always(),
            Formula::Eventually(inner) => self.table_budgeted(inner, budget)?.eventually(),
            Formula::Knows(p, inner) => {
                let t = self.table_budgeted(inner, budget)?;
                let layout = Arc::clone(&self.layout);
                knows_table(self.class_spans_for(*p), layout, &t, budget)?
            }
        };
        if let Some(b) = budget {
            // The table is the checker's dominant memory cost; charge it
            // before memoizing so the cap bounds the cache, and re-check
            // the latch so a trip during construction (e.g. a concurrent
            // cancel) never publishes a suspect table.
            b.charge_memory(table.byte_size() as u64)?;
        }
        let table = Arc::new(table);
        self.tables[id] = Some(Arc::clone(&table));
        Ok(table)
    }

    /// Evaluates a primitive over every point: per run, a cheap event scan
    /// finds where the primitive's value changes, then word-wise fills
    /// paint the ranges. Polls the budget once per run.
    fn prim_table(&self, prim: &Prim<M>, budget: Option<&Budget>) -> Result<BitTable, AbortReason> {
        let mut acc = BitTable::zeros(Arc::clone(&self.layout));
        for (ri, run) in self.system.runs().iter().enumerate() {
            if let Some(b) = budget {
                b.poll()?;
            }
            let horizon = run.horizon();
            match prim {
                Prim::Crashed(p) => {
                    if let Some(c) = run.crash_time(*p) {
                        acc.fill_range(ri, c, horizon, true);
                    }
                }
                Prim::Initiated(action) => {
                    if let Some(t) = first_event_tick(
                        run,
                        action.initiator(),
                        |e| matches!(e, Event::Init { action: a } if a == action),
                    ) {
                        acc.fill_range(ri, t, horizon, true);
                    }
                }
                Prim::Did { p, action } => {
                    if let Some(t) = first_event_tick(
                        run,
                        *p,
                        |e| matches!(e, Event::Do { action: a } if a == action),
                    ) {
                        acc.fill_range(ri, t, horizon, true);
                    }
                }
                Prim::Sent { from, to, msg } => {
                    if let Some(t) = first_event_tick(
                        run,
                        *from,
                        |e| matches!(e, Event::Send { to: q, msg: m } if q == to && m == msg),
                    ) {
                        acc.fill_range(ri, t, horizon, true);
                    }
                }
                Prim::Received { by, from, msg } => {
                    if let Some(t) = first_event_tick(
                        run,
                        *by,
                        |e| matches!(e, Event::Recv { from: q, msg: m } if q == from && m == msg),
                    ) {
                        acc.fill_range(ri, t, horizon, true);
                    }
                }
                Prim::Suspects { p, q } => {
                    // Non-stable: value steps at each standard report. Paint
                    // each maximal true interval.
                    let mut current = false;
                    let mut start: Time = 0;
                    for (t, e) in run.timed_history(*p) {
                        if let Event::Suspect(SuspectReport::Standard(s)) = e {
                            let next = s.contains(*q);
                            if next != current {
                                if current && t > start {
                                    acc.fill_range(ri, start, t - 1, true);
                                }
                                current = next;
                                start = t;
                            }
                        }
                    }
                    if current {
                        acc.fill_range(ri, start, horizon, true);
                    }
                }
            }
        }
        Ok(acc)
    }
}

/// The `K_p` table: for each `~_p` equivalence class, AND the subformula
/// table over the class's spans (word-wise), then paint the verdict over
/// the class. The budget is polled once per class; a trip returns the
/// error and drops the half-painted table.
fn knows_table(
    classes: &ClassSpans,
    layout: Arc<Layout>,
    inner: &BitTable,
    budget: Option<&Budget>,
) -> Result<BitTable, AbortReason> {
    let mut out = BitTable::zeros(layout);
    for spans in classes.classes() {
        if let Some(b) = budget {
            b.poll()?;
        }
        if spans
            .iter()
            .all(|&(from, to)| inner.all_ones_bits(from as usize, to as usize))
        {
            for &(from, to) in spans {
                out.set_bits(from as usize, to as usize);
            }
        }
    }
    Ok(out)
}

fn first_event_tick<M>(
    run: &ktudc_model::Run<M>,
    p: ProcessId,
    mut pred: impl FnMut(&Event<M>) -> bool,
) -> Option<Time> {
    run.timed_history(p).find_map(|(t, e)| pred(e).then_some(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bittable::spare_bytes;
    use ktudc_model::{ActionId, RunBuilder};

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    /// System of two runs over 2 processes:
    /// * run 0: p0 sends "m" at 1; p1 receives at 2; p1 crashes at 3.
    /// * run 1: p0 sends "m" at 1; nothing else (message lost).
    fn lost_message_system() -> System<&'static str> {
        let mut b = RunBuilder::new(2);
        b.append(p(0), 1, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        b.append(
            p(1),
            2,
            Event::Recv {
                from: p(0),
                msg: "m",
            },
        )
        .unwrap();
        b.append(p(1), 3, Event::Crash).unwrap();
        let r0 = b.finish(4);
        let mut b = RunBuilder::new(2);
        b.append(p(0), 1, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        let r1 = b.finish(4);
        System::new(vec![r0, r1])
    }

    #[test]
    fn primitives_track_events() {
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        let sent = Formula::sent(p(0), p(1), "m");
        assert!(!mc.eval(&sent, Point::new(0, 0)));
        assert!(mc.eval(&sent, Point::new(0, 1)));
        assert!(mc.eval(&sent, Point::new(1, 4)));
        let recv = Formula::received(p(1), p(0), "m");
        assert!(mc.eval(&recv, Point::new(0, 2)));
        assert!(!mc.eval(&recv, Point::new(1, 4)));
        let crash = Formula::crashed(p(1));
        assert!(!mc.eval(&crash, Point::new(0, 2)));
        assert!(mc.eval(&crash, Point::new(0, 3)));
    }

    #[test]
    fn temporal_operators() {
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        let crash = Formula::crashed(p(1));
        // ✸crash(p1) true from the start of run 0, never in run 1.
        assert!(mc.eval(&Formula::eventually(crash.clone()), Point::new(0, 0)));
        assert!(!mc.eval(&Formula::eventually(crash.clone()), Point::new(1, 0)));
        // ✷crash(p1): only from tick 3 of run 0.
        assert!(mc.eval(&Formula::always(crash.clone()), Point::new(0, 3)));
        assert!(!mc.eval(&Formula::always(crash.clone()), Point::new(0, 2)));
        // ✷¬crash(p1) holds everywhere in run 1.
        assert!(mc.eval(&Formula::always(Formula::not(crash)), Point::new(1, 0)));
    }

    #[test]
    fn knowledge_requires_distinguishing_evidence() {
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        let k_crash = Formula::knows(p(0), Formula::crashed(p(1)));
        // p0's history is identical in both runs — it can never know.
        for m in 0..=4 {
            assert!(!mc.eval(&k_crash, Point::new(0, m)), "tick {m}");
        }
        // p1 knows its own receive.
        let k_recv = Formula::knows(p(1), Formula::received(p(1), p(0), "m"));
        assert!(mc.eval(&k_recv, Point::new(0, 2)));
        assert!(!mc.eval(&k_recv, Point::new(1, 2)));
    }

    #[test]
    fn knowledge_axioms_hold() {
        // Veridicality (K_p φ ⇒ φ) and positive introspection
        // (K_p φ ⇒ K_p K_p φ) are validities of the S5-style semantics.
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        let phi = Formula::received(p(1), p(0), "m");
        let k = Formula::knows(p(1), phi.clone());
        mc.valid(&Formula::implies(k.clone(), phi)).unwrap();
        mc.valid(&Formula::implies(
            k.clone(),
            Formula::knows(p(1), k.clone()),
        ))
        .unwrap();
        // Negative introspection: ¬K_p φ ⇒ K_p ¬K_p φ.
        mc.valid(&Formula::implies(
            Formula::not(k.clone()),
            Formula::knows(p(1), Formula::not(k)),
        ))
        .unwrap();
    }

    #[test]
    fn validity_returns_counterexample() {
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        let crash = Formula::crashed(p(1));
        let err = mc.valid(&crash).unwrap_err();
        assert_eq!(err, Point::new(0, 0));
        let sat = mc.satisfying_points(&crash);
        assert_eq!(sat, vec![Point::new(0, 3), Point::new(0, 4)]);
    }

    #[test]
    fn locality_and_stability() {
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        // recv_p1 is local to p1, not to p0.
        let recv = Formula::received(p(1), p(0), "m");
        assert!(mc.is_local(&recv, p(1)));
        assert!(!mc.is_local(&recv, p(0)));
        // K_p φ formulas are local to p (standard property).
        let kf = Formula::knows(p(0), Formula::crashed(p(1)));
        assert!(mc.is_local(&kf, p(0)));
        // Event-existence primitives are stable; Suspects is not in general.
        assert!(mc.is_stable(&recv));
        assert!(mc.is_stable(&Formula::crashed(p(1))));
        assert!(mc.is_stable(&Formula::sent(p(0), p(1), "m")));
    }

    #[test]
    fn suspects_primitive_is_not_stable() {
        let mut b = RunBuilder::<u8>::new(2);
        b.append_suspect(p(0), 1, SuspectReport::Standard(ProcSet::singleton(p(1))))
            .unwrap();
        b.append_suspect(p(0), 3, SuspectReport::Standard(ProcSet::new()))
            .unwrap();
        let sys = System::new(vec![b.finish(5)]);
        let mut mc = ModelChecker::new(&sys);
        let susp = Formula::suspects(p(0), p(1));
        assert!(mc.eval(&susp, Point::new(0, 1)));
        assert!(mc.eval(&susp, Point::new(0, 2)));
        assert!(!mc.eval(&susp, Point::new(0, 3)));
        assert!(!mc.is_stable(&susp));
    }

    #[test]
    fn insensitivity_to_failure() {
        // K_q(recv) is insensitive to q's crash: crashing doesn't teach q
        // anything. Build runs where q receives then crashes vs receives
        // and survives.
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        let k_recv = Formula::knows(p(1), Formula::received(p(1), p(0), "m"));
        assert!(mc.is_insensitive_to_failure(&k_recv, p(1)));
        // crash(p1) itself is maximally *sensitive* to failure by p1.
        assert!(!mc.is_insensitive_to_failure(&Formula::crashed(p(1)), p(1)));
    }

    #[test]
    fn knowledge_of_crashes_and_counting() {
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        // p1 (before crashing) knows nothing about crashes; p0 never does.
        assert!(mc.knowledge_of_crashes(p(0), Point::new(0, 4)).is_empty());
        // p1 at (0,3) has crashed; its class is just itself (a crash event
        // is visible in its own history), so K_p1 crash(p1) holds there.
        assert_eq!(
            mc.knowledge_of_crashes(p(1), Point::new(0, 3)),
            ProcSet::singleton(p(1))
        );
        // Counting: in p0's class at (0,4) there are points with 0 crashes.
        assert_eq!(
            mc.max_known_crashed_in(p(0), ProcSet::full(2), Point::new(0, 4)),
            0
        );
        assert_eq!(
            mc.max_known_crashed_in(p(1), ProcSet::full(2), Point::new(0, 3)),
            1
        );
    }

    #[test]
    fn initiated_and_did_primitives() {
        let alpha = ActionId::new(p(0), 0);
        let mut b = RunBuilder::<u8>::new(2);
        b.append(p(0), 1, Event::Init { action: alpha }).unwrap();
        b.append(p(0), 2, Event::Do { action: alpha }).unwrap();
        let sys = System::new(vec![b.finish(4)]);
        let mut mc = ModelChecker::new(&sys);
        assert!(!mc.eval(&Formula::initiated(alpha), Point::new(0, 0)));
        assert!(mc.eval(&Formula::initiated(alpha), Point::new(0, 1)));
        assert!(!mc.eval(&Formula::did(p(0), alpha), Point::new(0, 1)));
        assert!(mc.eval(&Formula::did(p(0), alpha), Point::new(0, 2)));
        // The initiator knows it initiated.
        assert!(mc.eval(
            &Formula::knows(p(0), Formula::initiated(alpha)),
            Point::new(0, 1)
        ));
    }

    #[test]
    fn caching_is_shared_across_eval_calls() {
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        let f = Formula::knows(p(0), Formula::eventually(Formula::crashed(p(1))));
        let a = mc.eval(&f, Point::new(0, 0));
        let b = mc.eval(&f, Point::new(0, 0));
        assert_eq!(a, b);
        assert!(mc.cached_table_count() >= 3, "subformulas should be cached");
        assert!(mc.table_bytes() > 0);
    }

    #[test]
    fn budgeted_validity_matches_unbudgeted_and_charges_memory() {
        let sys = lost_message_system();
        let mut plain = ModelChecker::new(&sys);
        let mut budgeted = ModelChecker::new(&sys);
        let f = Formula::implies(
            Formula::knows(p(1), Formula::received(p(1), p(0), "m")),
            Formula::received(p(1), p(0), "m"),
        );
        let budget = Budget::unlimited();
        assert_eq!(
            budgeted.valid_budgeted(&f, &budget).unwrap(),
            plain.valid(&f)
        );
        assert!(budget.steps() > 0, "evaluation must poll");
        assert_eq!(
            budget.memory_charged(),
            budgeted.table_bytes() as u64,
            "every memoized table is charged"
        );
    }

    #[test]
    fn tripped_budget_aborts_without_poisoning_the_cache() {
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        let f = Formula::knows(p(0), Formula::eventually(Formula::crashed(p(1))));
        let budget = Budget::unlimited();
        budget.cancel_token().cancel();
        let reason = mc.valid_budgeted(&f, &budget).unwrap_err();
        assert_eq!(reason, AbortReason::Cancelled);
        assert_eq!(
            mc.cached_table_count(),
            0,
            "no table from the aborted evaluation may be memoized"
        );
        // The checker remains fully usable: a fresh budget answers the
        // same query, identically to an untouched checker.
        let fresh = Budget::unlimited();
        let verdict = mc.valid_budgeted(&f, &fresh).unwrap();
        let mut control = ModelChecker::new(&sys);
        assert_eq!(verdict, control.valid(&f));
    }

    #[test]
    fn memory_cap_aborts_table_construction() {
        let sys = lost_message_system();
        let mut mc = ModelChecker::new(&sys);
        let f = Formula::knows(p(0), Formula::eventually(Formula::crashed(p(1))));
        let budget = Budget::unlimited().with_memory_cap(1);
        let reason = mc.valid_budgeted(&f, &budget).unwrap_err();
        assert_eq!(reason, AbortReason::MemoryLimit);
        assert_eq!(mc.cached_table_count(), 0);
    }

    #[test]
    fn suspects_toggling_paints_correct_intervals() {
        // On-off-on pattern exercises the interval painter.
        let mut b = RunBuilder::<u8>::new(2);
        let q1 = ProcSet::singleton(p(1));
        b.append_suspect(p(0), 1, SuspectReport::Standard(q1))
            .unwrap();
        b.append_suspect(p(0), 2, SuspectReport::Standard(ProcSet::new()))
            .unwrap();
        b.append_suspect(p(0), 4, SuspectReport::Standard(q1))
            .unwrap();
        let sys = System::new(vec![b.finish(6)]);
        let mut mc = ModelChecker::new(&sys);
        let susp = Formula::suspects(p(0), p(1));
        let expected = [false, true, false, false, true, true, true];
        for (m, &want) in expected.iter().enumerate() {
            assert_eq!(mc.eval(&susp, Point::new(0, m as Time)), want, "tick {m}");
        }
    }

    /// A second checker over the same system, on the same thread, builds
    /// every table in a buffer the first checker left behind.
    #[test]
    fn a_second_checker_takes_every_table_from_the_spares() {
        std::thread::spawn(|| {
            let sys = lost_message_system();
            let crash = Formula::crashed(p(1));
            let sent = Formula::sent(p(0), p(1), "m");
            let battery = [
                Formula::knows(p(0), crash.clone()),
                Formula::not(Formula::knows(p(1), sent.clone())),
                Formula::always(Formula::or(vec![crash.clone(), sent.clone()])),
                Formula::eventually(Formula::and(vec![crash, Formula::True])),
                Formula::suspects(p(0), p(1)),
            ];
            let run = |mc: &mut ModelChecker<'_, &str>| -> Vec<Result<(), Point>> {
                battery.iter().map(|f| mc.valid(f)).collect()
            };
            let mut first = ModelChecker::new(&sys);
            let verdicts = run(&mut first);
            let bytes = first.table_bytes();
            drop(first);
            assert_eq!(spare_bytes(), bytes, "every table buffer is kept");
            let mut second = ModelChecker::new(&sys);
            assert_eq!(run(&mut second), verdicts);
            assert_eq!(second.table_bytes(), bytes);
            assert_eq!(
                spare_bytes(),
                0,
                "a table was allocated while a spare was left"
            );
        })
        .join()
        .unwrap();
    }
}
