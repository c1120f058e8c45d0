//! Runs, run construction, and the conditions R1–R5.
//!
//! A run `r` is a function from time to cuts; equivalently a time-stamped
//! event log per process, from which the cut at any tick is a derived view.
//!
//! That is how we store it, flat: a [`Run`] keeps every event in one boxed
//! slice and every tick in another, process after process, so a run costs
//! at most two allocations whatever `n` is, and a local history is still a
//! plain `&[Event<M>]`. A [`RunBuilder`] keeps one growable log per process
//! instead, so that an append and an undo are a push and a pop, and lays
//! the logs out flat in [`RunBuilder::finish`] and [`RunBuilder::snapshot`].
//! The builder enforces the *structural* conditions at append time:
//!
//! * **R1** — histories start empty (trivially true of an empty log);
//! * **R2** — per process, at most one event per tick, appended in strictly
//!   increasing tick order;
//! * **R3** — a `recv_q(p, msg)` is only accepted if the number of matching
//!   `send_p(q, msg)` events already appended (at a tick ≤ the receive's) is
//!   strictly greater than the number of matching receives already accepted,
//!   i.e. channels neither corrupt nor duplicate;
//! * **R4** — nothing may follow `crash_p`;
//! * plus the §2.4 initiation constraints: `init_p(α)` only by
//!   `α.initiator()`, at most once per run.
//!
//! **R5** (fairness) is a liveness property of infinite runs; on a finite
//! prefix it is checked by [`Run::check_conditions`] under the documented
//! finite-horizon reading (a message sent at least `threshold` times to a
//! never-crashing process must have been received at least once).

use crate::{ActionId, Event, HistoryView, ModelError, ProcSet, ProcessId, SuspectReport, Time};
use serde::{DeError, Deserialize, Serialize, Value};
use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

/// A point `(r, m)`: a run index paired with a time, relative to some
/// [`System`](crate::System).
///
/// The paper works with pairs of a run and a time; since our systems are
/// vectors of runs, a point names the run by index.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Serialize, Deserialize)]
pub struct Point {
    /// Index of the run within its system.
    pub run: usize,
    /// The time `m`.
    pub time: Time,
}

impl Point {
    /// Creates the point `(run, time)`.
    #[must_use]
    pub fn new(run: usize, time: Time) -> Self {
        Point { run, time }
    }
}

impl fmt::Display for Point {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(r{}, {})", self.run, self.time)
    }
}

/// Number of events in a tick-sorted log with tick ≤ `m` (valid because a
/// process's ticks strictly increase, R2).
fn prefix_len(times: &[Time], m: Time) -> usize {
    times.partition_point(|&t| t <= m)
}

/// A finite run prefix: per-process time-stamped histories up to a horizon.
///
/// The run covers ticks `0 ..= horizon()`; by R1 every history is empty at
/// tick 0, and events carry ticks in `1 ..= horizon()`.
///
/// Stored flat (see the module docs): every event of the run in
/// one boxed slice, process-major, and their ticks in step with them in
/// another. The tick slice starts with `n` segment ends: process `p`'s
/// events are `events[ends[p - 1] .. ends[p]]` (from 0 for `p = 0`).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Run<M> {
    n: usize,
    horizon: Time,
    /// The `n` segment ends, then every event's tick, process-major.
    ticks: Box<[Time]>,
    /// Every event, process-major, in step with `ticks[n..]`.
    events: Box<[Event<M>]>,
}

impl<M> Run<M> {
    /// Lays `logs` (each process's ticks and events, in process order, of
    /// `total` events in all) out flat.
    fn flatten<T, E>(
        n: usize,
        horizon: Time,
        total: usize,
        logs: impl IntoIterator<Item = (T, E)>,
    ) -> Self
    where
        T: IntoIterator<Item = Time>,
        E: IntoIterator<Item = Event<M>>,
    {
        let mut ticks = Vec::with_capacity(n + total);
        ticks.resize(n, 0);
        let mut events = Vec::with_capacity(total);
        let mut logs = logs.into_iter();
        for p in 0..n {
            let (times, log) = logs.next().expect("one log per process");
            ticks.extend(times);
            events.extend(log);
            assert_eq!(
                ticks.len() - n,
                events.len(),
                "a log's ticks and events differ in length"
            );
            ticks[p] = events.len() as Time;
        }
        assert!(logs.next().is_none(), "more logs than processes");
        assert_eq!(
            events.len(),
            total,
            "the logs hold {} events, not {total}",
            events.len()
        );
        Run {
            n,
            horizon,
            ticks: ticks.into_boxed_slice(),
            events: events.into_boxed_slice(),
        }
    }

    /// `p`'s ticks and events.
    fn log(&self, p: ProcessId) -> (&[Time], &[Event<M>]) {
        let ends = &self.ticks[..self.n];
        let i = p.index();
        let end = ends[i] as usize;
        let start = if i == 0 { 0 } else { ends[i - 1] as usize };
        (
            &self.ticks[self.n + start..self.n + end],
            &self.events[start..end],
        )
    }

    /// The number of processes `n = |Proc|`.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The last tick covered by this finite prefix.
    #[must_use]
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// The full local history of `p` (i.e. `r_p(horizon)`).
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for this run's system size.
    #[must_use]
    pub fn history(&self, p: ProcessId) -> &[Event<M>] {
        self.log(p).1
    }

    /// The local history prefix `r_p(m)`: all events of `p` with tick ≤ `m`.
    ///
    /// # Panics
    ///
    /// Panics if `p` is out of range for this run's system size.
    #[must_use]
    pub fn history_at(&self, p: ProcessId, m: Time) -> &[Event<M>] {
        let (times, events) = self.log(p);
        &events[..prefix_len(times, m)]
    }

    /// [`HistoryView`] over `r_p(m)`.
    #[must_use]
    pub fn view_at(&self, p: ProcessId, m: Time) -> HistoryView<'_, M> {
        HistoryView::new(self.history_at(p, m))
    }

    /// Iterates over `p`'s events together with their ticks.
    pub fn timed_history(&self, p: ProcessId) -> impl Iterator<Item = (Time, &Event<M>)> {
        let (times, events) = self.log(p);
        times.iter().copied().zip(events)
    }

    /// The tick at which `p` crashed, if it is faulty in this run.
    #[must_use]
    pub fn crash_time(&self, p: ProcessId) -> Option<Time> {
        let (times, events) = self.log(p);
        match events.last() {
            Some(Event::Crash) => times.last().copied(),
            _ => None,
        }
    }

    /// `F(r)`: the set of faulty processes (those whose history contains
    /// `crash_p`).
    #[must_use]
    pub fn faulty(&self) -> ProcSet {
        ProcessId::all(self.n)
            .filter(|&p| self.crash_time(p).is_some())
            .collect()
    }

    /// `Proc − F(r)`: the correct processes of this run.
    #[must_use]
    pub fn correct(&self) -> ProcSet {
        self.faulty().complement(self.n)
    }

    /// The set of processes that have crashed by tick `m` inclusive.
    #[must_use]
    pub fn crashed_by(&self, m: Time) -> ProcSet {
        ProcessId::all(self.n)
            .filter(|&p| matches!(self.crash_time(p), Some(t) if t <= m))
            .collect()
    }

    /// `Suspects_p(r,m)` of §2.2.
    #[must_use]
    pub fn suspects_at(&self, p: ProcessId, m: Time) -> ProcSet {
        self.view_at(p, m).suspects()
    }

    /// The smallest tick `m` at which `p`'s history equals its history at
    /// `at`, i.e. the tick of `p`'s latest event in `r_p(at)` (0 for an empty
    /// prefix). Useful when reasoning about when knowledge was acquired.
    #[must_use]
    pub fn last_event_time(&self, p: ProcessId, at: Time) -> Time {
        let times = self.log(p).0;
        match prefix_len(times, at) {
            0 => 0,
            len => times[len - 1],
        }
    }

    /// Total number of events in the run, across all processes.
    #[must_use]
    pub fn event_count(&self) -> usize {
        self.events.len()
    }

    /// Number of `Send` events in the run (a message-complexity measure).
    #[must_use]
    pub fn send_count_total(&self) -> usize {
        self.events
            .iter()
            .filter(|e| matches!(e, Event::Send { .. }))
            .count()
    }

    /// Every action initiated anywhere in the run, with its initiation tick.
    pub fn initiations(&self) -> impl Iterator<Item = (Time, ActionId)> + '_ {
        ProcessId::all(self.n).flat_map(move |p| {
            self.timed_history(p).filter_map(|(t, e)| match e {
                Event::Init { action } => Some((t, *action)),
                _ => None,
            })
        })
    }

    /// Maps the message payload type of every event.
    pub fn map_msg<N>(self, mut f: impl FnMut(M) -> N) -> Run<N> {
        Run {
            n: self.n,
            horizon: self.horizon,
            ticks: self.ticks,
            events: self
                .events
                .into_vec()
                .into_iter()
                .map(|e| e.map_msg(&mut f))
                .collect(),
        }
    }

    /// Returns the prefix of this run up to (and including) tick `m` as a
    /// run with horizon `min(m, horizon)`. The paper writes this as the
    /// requirement "`r′` extends `(r, m)`" in reverse: `r.prefix(m)` is the
    /// common part.
    #[must_use]
    pub fn prefix(&self, m: Time) -> Run<M>
    where
        M: Clone,
    {
        let horizon = m.min(self.horizon);
        let logs = ProcessId::all(self.n).map(|p| {
            let (times, events) = self.log(p);
            let len = prefix_len(times, horizon);
            (&times[..len], &events[..len])
        });
        let total = logs.clone().map(|(times, _)| times.len()).sum();
        Run::flatten(
            self.n,
            horizon,
            total,
            logs.map(|(times, events)| (times.iter().copied(), events.iter().cloned())),
        )
    }
}

/// The JSON shape of a [`Run`]: `{n, horizon, logs: [{times, events}]}`,
/// one log per process, so that a serialized run does not depend on how
/// [`Run`] is laid out in memory.
#[derive(Serialize, Deserialize)]
struct RunRepr<L> {
    n: usize,
    horizon: Time,
    logs: Vec<L>,
}

/// One process's log within a [`RunRepr`]: its ticks, and its events.
#[derive(Serialize, Deserialize)]
struct LogRepr<T, E> {
    times: T,
    events: E,
}

impl<M: Serialize> Serialize for Run<M> {
    fn to_value(&self) -> Value {
        RunRepr {
            n: self.n,
            horizon: self.horizon,
            logs: ProcessId::all(self.n)
                .map(|p| {
                    let (times, events) = self.log(p);
                    LogRepr { times, events }
                })
                .collect(),
        }
        .to_value()
    }
}

impl<M: Deserialize> Deserialize for Run<M> {
    fn from_value(v: &Value) -> Result<Self, DeError> {
        let repr = RunRepr::<LogRepr<Vec<Time>, Vec<Event<M>>>>::from_value(v)?;
        if repr.logs.len() != repr.n {
            return Err(DeError(format!(
                "a run of {} processes with {} logs",
                repr.n,
                repr.logs.len()
            )));
        }
        if let Some(p) = repr
            .logs
            .iter()
            .position(|log| log.times.len() != log.events.len())
        {
            return Err(DeError(format!(
                "process {p}'s log has {} ticks for {} events",
                repr.logs[p].times.len(),
                repr.logs[p].events.len()
            )));
        }
        let total = repr.logs.iter().map(|log| log.events.len()).sum();
        Ok(Run::flatten(
            repr.n,
            repr.horizon,
            total,
            repr.logs.into_iter().map(|log| (log.times, log.events)),
        ))
    }
}

impl<M: Eq> Run<M> {
    /// The indistinguishability relation `(r, m) ~_p (r′, m′)`: true iff
    /// `r_p(m) = r′_p(m′)` *as event sequences*. Ticks are global-clock data
    /// an asynchronous process cannot observe, so they do not participate.
    #[must_use]
    pub fn indistinguishable(&self, m: Time, other: &Run<M>, m2: Time, p: ProcessId) -> bool {
        self.history_at(p, m) == other.history_at(p, m2)
    }

    /// Returns `true` if `other` extends `(self, m)`: both runs agree on
    /// every cut up to tick `m` (the paper's `r′(m′) = r(m′)` for all
    /// `m′ ≤ m`).
    #[must_use]
    pub fn is_extended_by(&self, m: Time, other: &Run<M>) -> bool {
        if self.n != other.n || other.horizon < m {
            return false;
        }
        ProcessId::all(self.n).all(|p| {
            let (a_times, a_events) = self.log(p);
            let (b_times, b_events) = other.log(p);
            let len = prefix_len(a_times, m);
            prefix_len(b_times, m) == len
                && a_events[..len] == b_events[..len]
                && a_times[..len] == b_times[..len]
        })
    }
}

impl<M: Eq + Hash + Clone> Run<M> {
    /// Checks R1–R5 and the §2.4 initiation constraints on a completed run.
    ///
    /// R1–R4 and the initiation constraints are exact. R5 (fairness) uses
    /// the finite-horizon reading: for every sender `p`, receiver `q`, and
    /// payload `msg`, if `send_p(q, msg)` occurs at least
    /// `fairness_threshold` times and `q` never crashes in the run, then
    /// `recv_q(p, msg)` must occur at least once. Pass `0` to skip the R5
    /// check (e.g. for adversarial schedules that are deliberately unfair).
    ///
    /// # Errors
    ///
    /// Returns the first violation found.
    pub fn check_conditions(&self, fairness_threshold: usize) -> Result<(), ModelError> {
        // R2 + R4 + horizon bounds + init constraints, per process.
        let mut inits: HashMap<ActionId, ProcessId> = HashMap::new();
        for p in ProcessId::all(self.n) {
            let mut last: Option<Time> = None;
            let mut crashed = false;
            for (t, e) in self.timed_history(p) {
                if t == 0 || t > self.horizon {
                    return Err(ModelError::BeyondHorizon {
                        time: t,
                        horizon: self.horizon,
                    });
                }
                if let Some(last) = last {
                    if t <= last {
                        return Err(ModelError::NonMonotonicTime {
                            process: p,
                            last,
                            attempted: t,
                        });
                    }
                }
                last = Some(t);
                if crashed {
                    return Err(ModelError::EventAfterCrash {
                        process: p,
                        time: t,
                    });
                }
                match e {
                    Event::Crash => crashed = true,
                    Event::Init { action } => {
                        if action.initiator() != p {
                            return Err(ModelError::ForeignInit { process: p });
                        }
                        if inits.insert(*action, p).is_some() {
                            return Err(ModelError::DuplicateInit {
                                process: p,
                                time: t,
                            });
                        }
                    }
                    _ => {}
                }
            }
        }

        // R3: every receive is matched, count-wise, by earlier-or-equal sends.
        // Build per-(sender, receiver, msg) send tick lists, then check each
        // receive against them.
        let mut send_ticks: HashMap<(ProcessId, ProcessId, &M), Vec<Time>> = HashMap::new();
        for p in ProcessId::all(self.n) {
            for (t, e) in self.timed_history(p) {
                if let Event::Send { to, msg } = e {
                    send_ticks.entry((p, *to, msg)).or_default().push(t);
                }
            }
        }
        for q in ProcessId::all(self.n) {
            // Receives appear in tick order within a history, and send tick
            // lists are in tick order, so a counting scan suffices.
            let mut consumed: HashMap<(ProcessId, &M), usize> = HashMap::new();
            for (t, e) in self.timed_history(q) {
                if let Event::Recv { from, msg } = e {
                    let ticks = send_ticks.get(&(*from, q, msg));
                    let used = consumed.entry((*from, msg)).or_insert(0);
                    let available = ticks
                        .map(|ts| ts.partition_point(|&st| st <= t))
                        .unwrap_or(0);
                    if *used >= available {
                        return Err(ModelError::ReceiveWithoutSend {
                            receiver: q,
                            sender: *from,
                            time: t,
                        });
                    }
                    *used += 1;
                }
            }
        }

        // R5, finite-horizon reading.
        if fairness_threshold > 0 {
            for ((sender, receiver, msg), ticks) in &send_ticks {
                if ticks.len() >= fairness_threshold
                    && self.crash_time(*receiver).is_none()
                    && self
                        .view_at(*receiver, self.horizon)
                        .recv_count(*sender, msg)
                        == 0
                {
                    return Err(ModelError::UnfairChannel {
                        sender: *sender,
                        receiver: *receiver,
                        sent: ticks.len(),
                        threshold: fairness_threshold,
                    });
                }
            }
        }
        Ok(())
    }
}

/// One process's log within a [`RunBuilder`]: times and events in two
/// parallel vectors, so appending and undoing are a push and a pop.
#[derive(Clone, Debug)]
struct ProcessLog<M> {
    times: Vec<Time>,
    events: Vec<Event<M>>,
}

impl<M> Default for ProcessLog<M> {
    fn default() -> Self {
        ProcessLog {
            times: Vec::new(),
            events: Vec::new(),
        }
    }
}

/// Incremental run constructor enforcing R1–R4 and the §2.4 initiation
/// constraints at append time.
///
/// The simulator drives a `RunBuilder`; tests may also build runs by hand.
/// Call [`RunBuilder::finish`] to freeze the run at a horizon.
#[derive(Clone, Debug)]
pub struct RunBuilder<M> {
    n: usize,
    logs: Vec<ProcessLog<M>>,
    crashed: ProcSet,
    inits: HashMap<ActionId, Time>,
    /// R3 accounting, one ledger per ordered pair: `channels[from · n + to]`
    /// holds a [`Traffic`] per distinct payload sent on that channel.
    channels: Vec<Vec<Traffic<M>>>,
}

/// What R3 needs to know about one `(sender, receiver, payload)`.
#[derive(Clone, Debug)]
struct Traffic<M> {
    msg: M,
    /// Ticks of the sends appended so far — ascending, since they all
    /// come from one sender's history (R2).
    send_ticks: Vec<Time>,
    /// Receives accepted so far.
    received: usize,
}

/// `msg`'s entry in one channel's ledger. A linear scan: a channel carries
/// a handful of distinct payloads (a protocol's message kinds × its live
/// actions), too few to repay hashing one on every send and receive.
fn traffic_of<'a, M: Eq>(ledger: &'a mut [Traffic<M>], msg: &M) -> Option<&'a mut Traffic<M>> {
    ledger.iter_mut().find(|t| t.msg == *msg)
}

impl<M: Eq + Hash + Clone> RunBuilder<M> {
    /// Creates a builder for an `n`-process run with all histories empty
    /// (R1).
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or exceeds [`ProcessId::MAX_PROCESSES`].
    #[must_use]
    pub fn new(n: usize) -> Self {
        assert!(n >= 1, "a system needs at least one process");
        assert!(n <= ProcessId::MAX_PROCESSES);
        RunBuilder {
            n,
            logs: (0..n).map(|_| ProcessLog::default()).collect(),
            crashed: ProcSet::new(),
            inits: HashMap::new(),
            channels: (0..n * n).map(|_| Vec::new()).collect(),
        }
    }

    /// The number of processes.
    #[must_use]
    pub fn n(&self) -> usize {
        self.n
    }

    /// The set of processes that have crashed so far.
    #[must_use]
    pub fn crashed(&self) -> ProcSet {
        self.crashed
    }

    /// The current local history of `p`.
    #[must_use]
    pub fn history(&self, p: ProcessId) -> &[Event<M>] {
        &self.logs[p.index()].events
    }

    /// Appends `event` to `p`'s history at tick `time`, enforcing R2–R4 and
    /// the initiation constraints.
    ///
    /// # Errors
    ///
    /// Returns a [`ModelError`] and leaves the builder unchanged if the
    /// append would violate a condition:
    ///
    /// * [`ModelError::UnknownProcess`] — `p` out of range;
    /// * [`ModelError::NonMonotonicTime`] — tick not strictly after `p`'s
    ///   previous event, or tick 0 (R2);
    /// * [`ModelError::EventAfterCrash`] — `p` already crashed (R4);
    /// * [`ModelError::ReceiveWithoutSend`] — unmatched receive (R3);
    /// * [`ModelError::ForeignInit`] / [`ModelError::DuplicateInit`] — §2.4.
    pub fn append(&mut self, p: ProcessId, time: Time, event: Event<M>) -> Result<(), ModelError> {
        self.commit(p, time, event, true)
    }

    /// Appends `event` like [`RunBuilder::append`] but *without* the R3
    /// receive-matching check: a `Recv` is committed even when every
    /// matching send has already been consumed.
    ///
    /// This exists for **fault injection**: a simulator delivering a
    /// duplicated copy of a message must be able to record what actually
    /// happened on the wire, producing a deliberately ill-formed run that
    /// [`Run::check_conditions`] then flags with
    /// [`ModelError::ReceiveWithoutSend`] — the detection signal. Channel
    /// accounting is still updated (the extra receive is counted), and
    /// every other constraint (process range, R2 monotonicity, R4
    /// post-crash silence, §2.4 initiation) is still enforced, so the
    /// *only* way a force-appended run can be ill-formed is the R3
    /// violation deliberately introduced.
    ///
    /// # Errors
    ///
    /// Same as [`RunBuilder::append`] minus
    /// [`ModelError::ReceiveWithoutSend`].
    pub fn force_append(
        &mut self,
        p: ProcessId,
        time: Time,
        event: Event<M>,
    ) -> Result<(), ModelError> {
        self.commit(p, time, event, false)
    }

    /// The one validate-then-commit body behind [`RunBuilder::append`] and
    /// [`RunBuilder::force_append`]; `enforce_r3` is the only difference
    /// between them. Every check precedes every mutation, so an `Err`
    /// leaves the builder unchanged.
    fn commit(
        &mut self,
        p: ProcessId,
        time: Time,
        event: Event<M>,
        enforce_r3: bool,
    ) -> Result<(), ModelError> {
        let n = self.n;
        let unknown = |process: ProcessId| ModelError::UnknownProcess { process, n };
        if p.index() >= n {
            return Err(unknown(p));
        }
        let last = self.last_time(p);
        if time <= last || time == 0 {
            return Err(ModelError::NonMonotonicTime {
                process: p,
                last,
                attempted: time,
            });
        }
        if self.crashed.contains(p) {
            return Err(ModelError::EventAfterCrash { process: p, time });
        }
        match &event {
            Event::Crash => {
                self.crashed.insert(p);
            }
            Event::Init { action } => {
                if action.initiator() != p {
                    return Err(ModelError::ForeignInit { process: p });
                }
                if self.inits.contains_key(action) {
                    return Err(ModelError::DuplicateInit { process: p, time });
                }
                self.inits.insert(*action, time);
            }
            Event::Send { to, msg } => {
                if to.index() >= n {
                    return Err(unknown(*to));
                }
                let ledger = &mut self.channels[p.index() * n + to.index()];
                match traffic_of(ledger, msg) {
                    Some(traffic) => traffic.send_ticks.push(time),
                    None => ledger.push(Traffic {
                        msg: msg.clone(),
                        send_ticks: vec![time],
                        received: 0,
                    }),
                }
            }
            Event::Recv { from, msg } => {
                if from.index() >= n {
                    return Err(unknown(*from));
                }
                let ledger = &mut self.channels[from.index() * n + p.index()];
                // R3: strictly more matching sends at a tick ≤ this one
                // than receives already accepted.
                let unmatched = ModelError::ReceiveWithoutSend {
                    receiver: p,
                    sender: *from,
                    time,
                };
                match traffic_of(ledger, msg) {
                    Some(traffic) => {
                        let available = traffic.send_ticks.partition_point(|&st| st <= time);
                        if enforce_r3 && traffic.received >= available {
                            return Err(unmatched);
                        }
                        traffic.received += 1;
                    }
                    None if enforce_r3 => return Err(unmatched),
                    None => ledger.push(Traffic {
                        msg: msg.clone(),
                        send_ticks: Vec::new(),
                        received: 1,
                    }),
                }
            }
            _ => {}
        }
        let log = &mut self.logs[p.index()];
        log.times.push(time);
        log.events.push(event);
        Ok(())
    }

    /// Convenience: append a `suspect` event.
    ///
    /// # Errors
    ///
    /// Same as [`RunBuilder::append`].
    pub fn append_suspect(
        &mut self,
        p: ProcessId,
        time: Time,
        report: SuspectReport,
    ) -> Result<(), ModelError> {
        self.append(p, time, Event::Suspect(report))
    }

    /// The tick of the latest event appended to `p`, or 0.
    #[must_use]
    pub fn last_time(&self, p: ProcessId) -> Time {
        self.logs[p.index()].times.last().copied().unwrap_or(0)
    }

    /// Iterates over `p`'s events so far together with their ticks — the
    /// builder analogue of [`Run::timed_history`], for callers (like the
    /// explorer's symmetry canonicalizer) that need the timed prefix of a
    /// run still under construction without snapshotting it.
    pub fn timed_history(&self, p: ProcessId) -> impl Iterator<Item = (Time, &Event<M>)> {
        let log = &self.logs[p.index()];
        log.times.iter().copied().zip(log.events.iter())
    }

    /// Removes and returns `p`'s most recent event, reversing every side
    /// effect of the [`RunBuilder::append`] that added it (crash flag, init
    /// registry, channel send/receive accounting). This is the backbone of
    /// the explorer's undo log: branches share one builder and rewind it
    /// instead of cloning it.
    ///
    /// Undos must be performed in reverse append order *across the whole
    /// builder* (strict LIFO), not just per process — e.g. un-appending a
    /// send while a later receive of that message is still present would
    /// corrupt the R3 accounting. The explorer's depth-first structure
    /// guarantees this discipline.
    pub fn unappend(&mut self, p: ProcessId) -> Option<Event<M>> {
        let log = &mut self.logs[p.index()];
        let time = log.times.pop()?;
        let event = log.events.pop().expect("times and events move in lockstep");
        match &event {
            Event::Crash => {
                self.crashed.remove(p);
            }
            Event::Init { action } => {
                self.inits.remove(action);
            }
            Event::Send { to, msg } => {
                let ledger = &mut self.channels[p.index() * self.n + to.index()];
                let popped = traffic_of(ledger, msg)
                    .expect("send was recorded at append time")
                    .send_ticks
                    .pop();
                debug_assert_eq!(popped, Some(time), "sends must be unappended LIFO");
            }
            Event::Recv { from, msg } => {
                let ledger = &mut self.channels[from.index() * self.n + p.index()];
                traffic_of(ledger, msg)
                    .expect("receive was recorded at append time")
                    .received -= 1;
            }
            _ => {}
        }
        Some(event)
    }

    /// Freezes the run at `horizon` (which must be at least the tick of the
    /// latest appended event).
    ///
    /// # Panics
    ///
    /// Panics if an appended event lies beyond `horizon`.
    #[must_use]
    pub fn finish(self, horizon: Time) -> Run<M> {
        self.assert_horizon(horizon);
        let total = self.event_count();
        Run::flatten(
            self.n,
            horizon,
            total,
            self.logs.into_iter().map(|log| (log.times, log.events)),
        )
    }

    /// Like [`RunBuilder::finish`], but leaves the builder usable: only the
    /// event logs are copied out. Used by the copy-light explorer, which
    /// snapshots a run at each leaf and then rewinds the shared builder.
    ///
    /// # Panics
    ///
    /// Panics if an appended event lies beyond `horizon`.
    #[must_use]
    pub fn snapshot(&self, horizon: Time) -> Run<M> {
        self.assert_horizon(horizon);
        Run::flatten(
            self.n,
            horizon,
            self.event_count(),
            self.logs
                .iter()
                .map(|log| (log.times.iter().copied(), log.events.iter().cloned())),
        )
    }

    fn event_count(&self) -> usize {
        self.logs.iter().map(|log| log.events.len()).sum()
    }

    fn assert_horizon(&self, horizon: Time) {
        let max = self
            .logs
            .iter()
            .filter_map(|l| l.times.last().copied())
            .max()
            .unwrap_or(0);
        assert!(
            horizon >= max,
            "horizon {horizon} precedes an appended event at tick {max}"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn p(i: usize) -> ProcessId {
        ProcessId::new(i)
    }

    fn two_proc_run() -> Run<&'static str> {
        let alpha = ActionId::new(p(0), 0);
        let mut b = RunBuilder::new(2);
        b.append(p(0), 1, Event::Init { action: alpha }).unwrap();
        b.append(p(0), 2, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        b.append(
            p(1),
            3,
            Event::Recv {
                from: p(0),
                msg: "m",
            },
        )
        .unwrap();
        b.append(p(0), 3, Event::Do { action: alpha }).unwrap();
        b.append(p(1), 4, Event::Do { action: alpha }).unwrap();
        b.finish(6)
    }

    #[test]
    fn histories_and_prefixes() {
        let r = two_proc_run();
        assert_eq!(r.n(), 2);
        assert_eq!(r.horizon(), 6);
        assert_eq!(r.history(p(0)).len(), 3);
        assert_eq!(r.history_at(p(0), 0).len(), 0); // R1
        assert_eq!(r.history_at(p(0), 1).len(), 1);
        assert_eq!(r.history_at(p(0), 2).len(), 2);
        assert_eq!(r.history_at(p(1), 2).len(), 0);
        assert_eq!(r.history_at(p(1), 6).len(), 2);
        assert_eq!(r.event_count(), 5);
        assert_eq!(r.send_count_total(), 1);
    }

    #[test]
    fn faulty_and_crash_time() {
        let mut b = RunBuilder::<u8>::new(3);
        b.append(p(1), 2, Event::Crash).unwrap();
        let r = b.finish(5);
        assert_eq!(r.faulty(), ProcSet::singleton(p(1)));
        assert_eq!(r.correct(), [p(0), p(2)].into_iter().collect());
        assert_eq!(r.crash_time(p(1)), Some(2));
        assert_eq!(r.crash_time(p(0)), None);
        assert!(r.crashed_by(1).is_empty());
        assert_eq!(r.crashed_by(2), ProcSet::singleton(p(1)));
    }

    #[test]
    fn r2_rejects_same_tick_and_zero() {
        let mut b = RunBuilder::<u8>::new(1);
        assert!(matches!(
            b.append(p(0), 0, Event::Crash),
            Err(ModelError::NonMonotonicTime { .. })
        ));
        b.append(p(0), 5, Event::Send { to: p(0), msg: 1 }).unwrap();
        assert!(matches!(
            b.append(p(0), 5, Event::Crash),
            Err(ModelError::NonMonotonicTime { .. })
        ));
        assert!(matches!(
            b.append(p(0), 3, Event::Crash),
            Err(ModelError::NonMonotonicTime { .. })
        ));
    }

    #[test]
    fn r3_rejects_unmatched_receive() {
        let mut b = RunBuilder::<&str>::new(2);
        assert!(matches!(
            b.append(
                p(1),
                1,
                Event::Recv {
                    from: p(0),
                    msg: "m"
                }
            ),
            Err(ModelError::ReceiveWithoutSend { .. })
        ));
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
        // No duplication: a second receive of a once-sent message is refused.
        assert!(matches!(
            b.append(
                p(1),
                3,
                Event::Recv {
                    from: p(0),
                    msg: "m"
                }
            ),
            Err(ModelError::ReceiveWithoutSend { .. })
        ));
        // But a second send enables a second receive.
        b.append(p(0), 3, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        b.append(
            p(1),
            4,
            Event::Recv {
                from: p(0),
                msg: "m",
            },
        )
        .unwrap();
    }

    #[test]
    fn r3_receive_not_before_send() {
        // A receive at tick 1 cannot consume a send at tick 2; the builder
        // only sees events in order, so simulate via check_conditions on a
        // hand-built run: builder appends sends then receives, so craft the
        // receive first at a later process... Builder-order already prevents
        // out-of-order appends per process; cross-process the tick check in
        // append covers it.
        let mut b = RunBuilder::<&str>::new(2);
        b.append(p(0), 5, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        // Receive at tick 3 < send tick 5 is refused even though the send is
        // already in the builder.
        assert!(matches!(
            b.append(
                p(1),
                3,
                Event::Recv {
                    from: p(0),
                    msg: "m"
                }
            ),
            Err(ModelError::ReceiveWithoutSend { .. })
        ));
        // Same tick as the send is allowed (R3 says "in r_p(m)", inclusive).
        b.append(
            p(1),
            5,
            Event::Recv {
                from: p(0),
                msg: "m",
            },
        )
        .unwrap();
    }

    #[test]
    fn r4_rejects_events_after_crash() {
        let mut b = RunBuilder::<u8>::new(1);
        b.append(p(0), 1, Event::Crash).unwrap();
        assert!(matches!(
            b.append(p(0), 2, Event::Send { to: p(0), msg: 0 }),
            Err(ModelError::EventAfterCrash { .. })
        ));
    }

    #[test]
    fn init_constraints() {
        let alpha = ActionId::new(p(0), 0);
        let mut b = RunBuilder::<u8>::new(2);
        assert!(matches!(
            b.append(p(1), 1, Event::Init { action: alpha }),
            Err(ModelError::ForeignInit { .. })
        ));
        b.append(p(0), 1, Event::Init { action: alpha }).unwrap();
        assert!(matches!(
            b.append(p(0), 2, Event::Init { action: alpha }),
            Err(ModelError::DuplicateInit { .. })
        ));
    }

    #[test]
    fn unknown_process_errors() {
        let mut b = RunBuilder::<u8>::new(2);
        assert!(matches!(
            b.append(p(5), 1, Event::Crash),
            Err(ModelError::UnknownProcess { .. })
        ));
        assert!(matches!(
            b.append(p(0), 1, Event::Send { to: p(9), msg: 0 }),
            Err(ModelError::UnknownProcess { .. })
        ));
    }

    #[test]
    fn check_conditions_accepts_wellformed() {
        let r = two_proc_run();
        r.check_conditions(1).unwrap();
    }

    #[test]
    fn check_conditions_flags_unfairness() {
        let mut b = RunBuilder::<&str>::new(2);
        for t in 1..=10 {
            b.append(
                p(0),
                t,
                Event::Send {
                    to: p(1),
                    msg: "lost",
                },
            )
            .unwrap();
        }
        let r = b.finish(12);
        assert!(matches!(
            r.check_conditions(10),
            Err(ModelError::UnfairChannel { sent: 10, .. })
        ));
        // Below threshold: fine.
        r.check_conditions(11).unwrap();
        // Threshold 0 disables the fairness check.
        r.check_conditions(0).unwrap();
    }

    #[test]
    fn unfairness_excused_by_receiver_crash() {
        let mut b = RunBuilder::<&str>::new(2);
        for t in 1..=10 {
            b.append(
                p(0),
                t,
                Event::Send {
                    to: p(1),
                    msg: "lost",
                },
            )
            .unwrap();
        }
        b.append(p(1), 11, Event::Crash).unwrap();
        let r = b.finish(12);
        r.check_conditions(5).unwrap();
    }

    #[test]
    fn indistinguishability_ignores_ticks() {
        // Same event sequence at different ticks ⇒ indistinguishable.
        let mut b1 = RunBuilder::<&str>::new(2);
        b1.append(p(0), 1, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        let r1 = b1.finish(4);
        let mut b2 = RunBuilder::<&str>::new(2);
        b2.append(p(0), 3, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        let r2 = b2.finish(4);
        assert!(r1.indistinguishable(1, &r2, 3, p(0)));
        assert!(r1.indistinguishable(2, &r2, 4, p(0)));
        assert!(!r1.indistinguishable(1, &r2, 2, p(0))); // r2_p0(2) is empty
        assert!(r1.indistinguishable(0, &r2, 0, p(1))); // both empty
    }

    #[test]
    fn extension_relation() {
        let r = two_proc_run();
        assert!(r.is_extended_by(3, &r));
        let pref = r.prefix(3);
        assert_eq!(pref.horizon(), 3);
        assert!(pref.is_extended_by(3, &r));
        assert!(pref.is_extended_by(2, &r));
        // A different run does not extend it.
        let mut b = RunBuilder::<&str>::new(2);
        b.append(p(0), 1, Event::Send { to: p(1), msg: "x" })
            .unwrap();
        let other = b.finish(6);
        assert!(!pref.is_extended_by(1, &other));
    }

    #[test]
    fn prefix_truncates_histories() {
        let r = two_proc_run();
        let pre = r.prefix(2);
        assert_eq!(pre.history(p(0)).len(), 2);
        assert_eq!(pre.history(p(1)).len(), 0);
        pre.check_conditions(0).unwrap();
    }

    #[test]
    fn map_msg_rewrites_payloads() {
        let r = two_proc_run();
        let r2 = r.map_msg(|s| s.len());
        assert_eq!(r2.history(p(1))[0], Event::Recv { from: p(0), msg: 1 });
        assert_eq!(r2.event_count(), 5);
    }

    #[test]
    fn finish_horizon_must_cover_events() {
        let mut b = RunBuilder::<u8>::new(1);
        b.append(p(0), 7, Event::Crash).unwrap();
        let result = std::panic::catch_unwind(move || b.finish(5));
        assert!(result.is_err());
    }

    #[test]
    fn last_event_time_and_suspects() {
        let mut b = RunBuilder::<u8>::new(2);
        b.append_suspect(p(0), 4, SuspectReport::Standard(ProcSet::singleton(p(1))))
            .unwrap();
        let r = b.finish(8);
        assert_eq!(r.last_event_time(p(0), 3), 0);
        assert_eq!(r.last_event_time(p(0), 8), 4);
        assert!(r.suspects_at(p(0), 3).is_empty());
        assert_eq!(r.suspects_at(p(0), 4), ProcSet::singleton(p(1)));
    }

    #[test]
    fn unappend_reverses_every_side_effect() {
        let alpha = ActionId::new(p(0), 0);
        let mut b = RunBuilder::<&str>::new(2);
        b.append(p(0), 1, Event::Init { action: alpha }).unwrap();
        b.append(p(0), 2, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        b.append(
            p(1),
            3,
            Event::Recv {
                from: p(0),
                msg: "m",
            },
        )
        .unwrap();
        b.append(p(1), 4, Event::Crash).unwrap();

        // Rewind everything, strictly LIFO.
        assert!(matches!(b.unappend(p(1)), Some(Event::Crash)));
        assert!(!b.crashed().contains(p(1)));
        assert!(matches!(b.unappend(p(1)), Some(Event::Recv { .. })));
        assert!(matches!(b.unappend(p(0)), Some(Event::Send { .. })));
        assert!(matches!(b.unappend(p(0)), Some(Event::Init { .. })));
        assert!(b.unappend(p(0)).is_none());

        // The builder is as-new: the receive is unmatched again, the init is
        // re-appendable, and a crashed process may act.
        assert!(matches!(
            b.append(
                p(1),
                1,
                Event::Recv {
                    from: p(0),
                    msg: "m"
                }
            ),
            Err(ModelError::ReceiveWithoutSend { .. })
        ));
        b.append(p(0), 1, Event::Init { action: alpha }).unwrap();
        b.append(p(1), 1, Event::Send { to: p(0), msg: "x" })
            .unwrap();
        assert_eq!(b.finish(2).event_count(), 2);
    }

    #[test]
    fn snapshot_leaves_builder_usable() {
        let mut b = RunBuilder::<&str>::new(2);
        b.append(p(0), 1, Event::Send { to: p(1), msg: "m" })
            .unwrap();
        let r1 = b.snapshot(3);
        b.append(
            p(1),
            2,
            Event::Recv {
                from: p(0),
                msg: "m",
            },
        )
        .unwrap();
        let r2 = b.snapshot(3);
        assert_eq!(r1.event_count(), 1);
        assert_eq!(r2.event_count(), 2);
        assert_eq!(b.finish(3), r2);
    }

    #[test]
    fn serde_roundtrip() {
        let r = two_proc_run();
        let json = serde_json::to_string(&r).unwrap();
        let back: Run<&str> = serde_json::from_str(&json).unwrap();
        // &str deserializes as borrowed; compare structurally via event count
        // and a spot check.
        assert_eq!(back.event_count(), r.event_count());
        assert_eq!(back.horizon(), r.horizon());
    }

    /// The JSON shape is one `{times, events}` log per process, byte for
    /// byte, whatever the in-memory layout.
    #[test]
    fn json_shape_is_pinned() {
        const JSON: &str = concat!(
            r#"{"n":2,"horizon":6,"logs":["#,
            r#"{"times":[1,2,3],"events":[{"Init":{"action":{"initiator":0,"seq":0}}},"#,
            r#"{"Send":{"to":1,"msg":"m"}},{"Do":{"action":{"initiator":0,"seq":0}}}]},"#,
            r#"{"times":[3,4],"events":[{"Recv":{"from":0,"msg":"m"}},"#,
            r#"{"Do":{"action":{"initiator":0,"seq":0}}}]}]}"#,
        );
        let r = two_proc_run();
        assert_eq!(serde_json::to_string(&r).unwrap(), JSON);
        assert_eq!(serde_json::from_str::<Run<&str>>(JSON).unwrap(), r);
    }

    /// The flat layout needs one log per process, and a tick per event.
    #[test]
    fn malformed_json_logs_are_refused() {
        let crashed = r#"{"n":1,"horizon":6,"logs":[{"times":[2],"events":["Crash"]}]}"#;
        let run = serde_json::from_str::<Run<u8>>(crashed).unwrap();
        assert_eq!(run.crash_time(p(0)), Some(2));
        for json in [
            r#"{"n":2,"horizon":6,"logs":[{"times":[],"events":[]}]}"#,
            r#"{"n":1,"horizon":6,"logs":[{"times":[1,2],"events":["Crash"]}]}"#,
        ] {
            assert!(serde_json::from_str::<Run<u8>>(json).is_err(), "{json}");
        }
    }

    #[test]
    fn initiations_enumerates_all() {
        let r = two_proc_run();
        let inits: Vec<_> = r.initiations().collect();
        assert_eq!(inits, vec![(1, ActionId::new(p(0), 0))]);
    }
}
