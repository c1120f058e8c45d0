//! The reference scalar evaluator — the pre-optimization model checker,
//! kept verbatim as a differential-testing and benchmarking baseline.
//!
//! [`ReferenceChecker`] evaluates each subformula to a plain `Vec<bool>`
//! truth table, one bool per point, with the `K_p` clause computed per point
//! by walking the point's `~_p`-class. It is deliberately *not* optimized:
//! the packed, class-wise [`crate::ModelChecker`] must produce
//! bit-identical verdicts to this one (see the workspace's differential
//! property tests), and the benchmark's `check` workload uses it as its
//! oracle.

use crate::formula::{Formula, Prim};
use ktudc_model::{Event, Point, ProcessId, Run, SuspectReport, System, Time};
use std::collections::HashMap;
use std::hash::Hash;
use std::rc::Rc;

/// The scalar (per-point) epistemic model checker. Same verdict semantics as
/// [`crate::ModelChecker`], one bool at a time.
pub struct ReferenceChecker<'a, M> {
    system: &'a System<M>,
    /// Global point index offsets: point `(r, m)` lives at
    /// `offsets[r] + m`.
    offsets: Vec<usize>,
    total: usize,
    cache: HashMap<Formula<M>, Rc<Vec<bool>>>,
}

impl<'a, M: Clone + Eq + Hash> ReferenceChecker<'a, M> {
    /// Creates a checker over `system`.
    #[must_use]
    pub fn new(system: &'a System<M>) -> Self {
        let mut offsets = Vec::with_capacity(system.len());
        let mut total = 0usize;
        for run in system.runs() {
            offsets.push(total);
            total += run.horizon() as usize + 1;
        }
        ReferenceChecker {
            system,
            offsets,
            total,
            cache: HashMap::new(),
        }
    }

    /// The system under analysis.
    #[must_use]
    pub fn system(&self) -> &'a System<M> {
        self.system
    }

    fn index(&self, pt: Point) -> usize {
        self.offsets[pt.run] + pt.time as usize
    }

    /// Evaluates `(R, r, m) ⊨ φ`.
    ///
    /// # Panics
    ///
    /// Panics if the point is out of range for the system.
    pub fn eval(&mut self, formula: &Formula<M>, pt: Point) -> bool {
        let table = self.table(formula);
        table[self.index(pt)]
    }

    /// Checks validity `R ⊨ φ`; on failure returns the earliest
    /// counterexample point (run order, then time).
    ///
    /// # Errors
    ///
    /// Returns the earliest point where `φ` is false.
    pub fn valid(&mut self, formula: &Formula<M>) -> Result<(), Point> {
        let table = self.table(formula);
        for (ri, run) in self.system.runs().iter().enumerate() {
            for m in 0..=run.horizon() {
                if !table[self.offsets[ri] + m as usize] {
                    return Err(Point::new(ri, m));
                }
            }
        }
        Ok(())
    }

    /// All points satisfying `φ`, in run order then time.
    pub fn satisfying_points(&mut self, formula: &Formula<M>) -> Vec<Point> {
        let table = self.table(formula);
        let mut out = Vec::new();
        for (ri, run) in self.system.runs().iter().enumerate() {
            for m in 0..=run.horizon() {
                if table[self.offsets[ri] + m as usize] {
                    out.push(Point::new(ri, m));
                }
            }
        }
        out
    }

    /// Computes (or fetches) the truth table of `formula` over all points.
    fn table(&mut self, formula: &Formula<M>) -> Rc<Vec<bool>> {
        if let Some(t) = self.cache.get(formula) {
            return Rc::clone(t);
        }
        let table = match formula {
            Formula::True => Rc::new(vec![true; self.total]),
            Formula::Prim(prim) => Rc::new(self.prim_table(prim)),
            Formula::Not(inner) => {
                let t = self.table(inner);
                Rc::new(t.iter().map(|&b| !b).collect())
            }
            Formula::And(parts) => {
                let mut acc = vec![true; self.total];
                for part in parts {
                    let t = self.table(part);
                    for (a, &b) in acc.iter_mut().zip(t.iter()) {
                        *a &= b;
                    }
                }
                Rc::new(acc)
            }
            Formula::Or(parts) => {
                let mut acc = vec![false; self.total];
                for part in parts {
                    let t = self.table(part);
                    for (a, &b) in acc.iter_mut().zip(t.iter()) {
                        *a |= b;
                    }
                }
                Rc::new(acc)
            }
            Formula::Always(inner) => {
                let t = self.table(inner);
                let mut acc = vec![false; self.total];
                for (ri, run) in self.system.runs().iter().enumerate() {
                    let off = self.offsets[ri];
                    let mut suffix = true;
                    for m in (0..=run.horizon() as usize).rev() {
                        suffix &= t[off + m];
                        acc[off + m] = suffix;
                    }
                }
                Rc::new(acc)
            }
            Formula::Eventually(inner) => {
                let t = self.table(inner);
                let mut acc = vec![false; self.total];
                for (ri, run) in self.system.runs().iter().enumerate() {
                    let off = self.offsets[ri];
                    let mut suffix = false;
                    for m in (0..=run.horizon() as usize).rev() {
                        suffix |= t[off + m];
                        acc[off + m] = suffix;
                    }
                }
                Rc::new(acc)
            }
            Formula::Knows(p, inner) => {
                let t = self.table(inner);
                let mut acc = vec![false; self.total];
                let mut visited = vec![false; self.total];
                for (ri, run) in self.system.runs().iter().enumerate() {
                    for m in 0..=run.horizon() {
                        let idx = self.offsets[ri] + m as usize;
                        if visited[idx] {
                            continue;
                        }
                        let blocks = self.system.indistinguishable_blocks(*p, ri, m);
                        let value = blocks
                            .iter()
                            .flat_map(|b| b.points())
                            .all(|pt| t[self.index(pt)]);
                        for pt in blocks.iter().flat_map(|b| b.points()) {
                            let i = self.index(pt);
                            acc[i] = value;
                            visited[i] = true;
                        }
                    }
                }
                Rc::new(acc)
            }
        };
        self.cache.insert(formula.clone(), Rc::clone(&table));
        table
    }

    /// Evaluates a primitive over every point, run by run.
    fn prim_table(&self, prim: &Prim<M>) -> Vec<bool> {
        let mut acc = vec![false; self.total];
        for (ri, run) in self.system.runs().iter().enumerate() {
            let off = self.offsets[ri];
            match prim {
                Prim::Crashed(p) => {
                    if let Some(c) = run.crash_time(*p) {
                        fill_from(&mut acc, off, run, c);
                    }
                }
                Prim::Initiated(action) => {
                    if let Some(t) = first_event_tick(
                        run,
                        action.initiator(),
                        |e| matches!(e, Event::Init { action: a } if a == action),
                    ) {
                        fill_from(&mut acc, off, run, t);
                    }
                }
                Prim::Did { p, action } => {
                    if let Some(t) = first_event_tick(
                        run,
                        *p,
                        |e| matches!(e, Event::Do { action: a } if a == action),
                    ) {
                        fill_from(&mut acc, off, run, t);
                    }
                }
                Prim::Sent { from, to, msg } => {
                    if let Some(t) = first_event_tick(
                        run,
                        *from,
                        |e| matches!(e, Event::Send { to: q, msg: m } if q == to && m == msg),
                    ) {
                        fill_from(&mut acc, off, run, t);
                    }
                }
                Prim::Received { by, from, msg } => {
                    if let Some(t) = first_event_tick(
                        run,
                        *by,
                        |e| matches!(e, Event::Recv { from: q, msg: m } if q == from && m == msg),
                    ) {
                        fill_from(&mut acc, off, run, t);
                    }
                }
                Prim::Suspects { p, q } => {
                    // Non-stable: value steps at each standard report.
                    let mut current = false;
                    let mut change_ticks: Vec<(Time, bool)> = Vec::new();
                    for (t, e) in run.timed_history(*p) {
                        if let Event::Suspect(SuspectReport::Standard(s)) = e {
                            change_ticks.push((t, s.contains(*q)));
                        }
                    }
                    let mut iter = change_ticks.into_iter().peekable();
                    for m in 0..=run.horizon() {
                        while matches!(iter.peek(), Some(&(t, _)) if t <= m) {
                            current = iter.next().expect("peeked").1;
                        }
                        acc[off + m as usize] = current;
                    }
                }
            }
        }
        acc
    }
}

fn fill_from<M>(acc: &mut [bool], off: usize, run: &Run<M>, from_tick: Time) {
    for m in from_tick..=run.horizon() {
        acc[off + m as usize] = true;
    }
}

fn first_event_tick<M>(
    run: &Run<M>,
    p: ProcessId,
    mut pred: impl FnMut(&Event<M>) -> bool,
) -> Option<Time> {
    run.timed_history(p).find_map(|(t, e)| pred(e).then_some(t))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ModelChecker;
    use ktudc_model::RunBuilder;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

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
    fn reference_agrees_with_fast_checker_on_fixture() {
        let sys = lost_message_system();
        let mut slow = ReferenceChecker::new(&sys);
        let mut fast = ModelChecker::new(&sys);
        let formulas: Vec<Formula<&'static str>> = vec![
            Formula::crashed(p(1)),
            Formula::knows(p(0), Formula::crashed(p(1))),
            Formula::knows(p(1), Formula::received(p(1), p(0), "m")),
            Formula::eventually(Formula::crashed(p(1))),
            Formula::always(Formula::not(Formula::crashed(p(1)))),
            Formula::knows(p(0), Formula::eventually(Formula::crashed(p(1)))),
            Formula::suspects(p(0), p(1)),
            Formula::implies(
                Formula::received(p(1), p(0), "m"),
                Formula::eventually(Formula::or(vec![
                    Formula::crashed(p(1)),
                    Formula::knows(p(1), Formula::sent(p(0), p(1), "m")),
                ])),
            ),
        ];
        for f in &formulas {
            assert_eq!(
                slow.satisfying_points(f),
                fast.satisfying_points(f),
                "disagreement on {f}"
            );
            assert_eq!(slow.valid(f), fast.valid(f), "validity disagreement on {f}");
        }
    }
}
