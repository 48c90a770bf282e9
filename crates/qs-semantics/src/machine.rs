//! Configurations and transition rules of the SCOOP/Qs operational semantics
//! (Fig. 3 of the paper, plus the generalised `separate` rule of §2.4).
//!
//! A configuration is a parallel composition of handler triples
//! `(h, q_h, s)`: the handler's name, its *request queue* (a queue of
//! handler-tagged private queues — the queue-of-queues) and the program it is
//! currently executing.  The transition rules are implemented as an
//! `enabled_transitions` / `apply` pair so that schedulers (deterministic,
//! random, exhaustive) can drive the system and properties can be checked on
//! the produced traces.

use std::collections::{BTreeMap, VecDeque};

use crate::ast::{HandlerName, Method, Program, Stmt};
use crate::trace::Event;

/// The reserved method name that models the `end` feature sent by the
/// `separate` rule (`call(x, end)` in the paper).
pub const END_METHOD: &str = "end";

/// Entries of a private queue: the actions a client logs on a handler.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Action {
    /// A logged feature call.
    Invoke(Method),
    /// The END marker terminating the client's group of requests.
    End,
    /// `release h`: the second half of a query's wait/release pair.
    Release(HandlerName),
}

/// One handler triple `(h, q_h, s)`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct HandlerState {
    /// The handler's name.
    pub name: HandlerName,
    /// The request queue: a FIFO of `(client, private queue)` pairs.  Lookup
    /// and update act on the *last* occurrence of a client, insertion and
    /// removal are FIFO (a queue of queues, §2.3).
    pub queue: Vec<(HandlerName, VecDeque<Action>)>,
    /// The program being executed; the front element is the current
    /// statement (sequential composition is kept flattened).
    pub program: VecDeque<Stmt>,
}

impl HandlerState {
    fn new(program: Program) -> Self {
        HandlerState {
            name: program.handler,
            program: program.body.into(),
            queue: Vec::new(),
        }
    }

    /// Appends an action to the *last* private queue belonging to `client`,
    /// which is the one that client is currently filling (§2.3: "both lookup
    /// and updating work on the last occurrence").
    fn log_for_client(&mut self, client: &str, action: Action) -> bool {
        if let Some((_, private)) = self
            .queue
            .iter_mut()
            .rev()
            .find(|(owner, _)| owner == client)
        {
            private.push_back(action);
            true
        } else {
            false
        }
    }

    /// Registers a fresh, empty private queue for `client` (the `separate`
    /// rule's `q_x + [h ↦ []]`).
    fn register_client(&mut self, client: &str) {
        self.queue.push((client.to_string(), VecDeque::new()));
    }

    /// Returns `true` if this handler is idle (no program to execute).
    pub fn is_idle(&self) -> bool {
        self.program.is_empty()
    }
}

/// A transition of the system; one application of an inference rule.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Transition {
    /// The handler executes the statement at the front of its program
    /// (covers the `separate`, `call`, `query`, `seqSkip` rules as well as
    /// executing dequeued actions and the `end` rule).
    Execute(HandlerName),
    /// The `run` rule: an idle handler dequeues the next action from the
    /// private queue at the head of its request queue.
    Run(HandlerName),
    /// The `sync` rule: `waiter` is blocked on `wait releaser` and
    /// `releaser`'s current statement is `release waiter`; both step.
    Sync {
        /// Handler executing `wait`.
        waiter: HandlerName,
        /// Handler executing `release`.
        releaser: HandlerName,
    },
}

/// Result of asking the configuration for a step.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StepResult {
    /// A transition was applied; the events it produced.
    Stepped(Vec<Event>),
    /// No transition is enabled and every program has terminated.
    Finished,
    /// No transition is enabled but some handler still has work: a deadlock.
    Deadlock(Vec<HandlerName>),
}

/// A parallel composition of handlers.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Configuration {
    /// Handlers by name (ordered map so configurations hash deterministically).
    pub handlers: BTreeMap<HandlerName, HandlerState>,
}

impl Configuration {
    /// Builds the initial configuration from a set of programs.
    pub fn new(programs: Vec<Program>) -> Self {
        let mut handlers = BTreeMap::new();
        for program in programs {
            let state = HandlerState::new(program);
            handlers.insert(state.name.clone(), state);
        }
        Configuration { handlers }
    }

    /// Returns every transition currently enabled.
    pub fn enabled_transitions(&self) -> Vec<Transition> {
        let mut enabled = Vec::new();
        for (name, handler) in &self.handlers {
            match handler.program.front() {
                None => {
                    // run rule: idle handler with a non-empty private queue at
                    // the head of its request queue.
                    if let Some((_, private)) = handler.queue.first() {
                        if !private.is_empty() {
                            enabled.push(Transition::Run(name.clone()));
                        }
                    }
                }
                Some(Stmt::Wait(target)) => {
                    // sync rule: the target's current statement must be
                    // `release <us>`.
                    if let Some(target_state) = self.handlers.get(target) {
                        if matches!(target_state.program.front(),
                            Some(Stmt::Release(who)) if who == name)
                        {
                            enabled.push(Transition::Sync {
                                waiter: name.clone(),
                                releaser: target.clone(),
                            });
                        }
                    }
                }
                Some(Stmt::Release(_)) => {
                    // Only progresses jointly through a Sync transition, which
                    // is generated from the waiter's side above.
                }
                Some(Stmt::End) => {
                    // end rule: requires the head of the request queue to be
                    // an (exhausted) empty private queue.
                    if matches!(handler.queue.first(), Some((_, private)) if private.is_empty()) {
                        enabled.push(Transition::Execute(name.clone()));
                    }
                }
                Some(Stmt::Separate { targets, .. }) | Some(Stmt::SeparateRead { targets, .. }) => {
                    // separate rule: purely asynchronous, always enabled as
                    // long as all targets exist.  The shared-read variant is
                    // modelled conservatively as an exclusive registration:
                    // the abstract machine over-approximates the schedules of
                    // the runtime's reader gate (a reader admits strictly
                    // more interleavings, never fewer orderings per queue).
                    if targets.iter().all(|t| self.handlers.contains_key(t)) {
                        enabled.push(Transition::Execute(name.clone()));
                    }
                }
                Some(Stmt::Call { target, .. }) | Some(Stmt::Query { target, .. }) => {
                    // call/query rules: the client must have a registered
                    // private queue on the target.
                    if self
                        .handlers
                        .get(target)
                        .map(|t| t.queue.iter().any(|(owner, _)| owner == name))
                        .unwrap_or(false)
                    {
                        enabled.push(Transition::Execute(name.clone()));
                    }
                }
                Some(Stmt::Local { .. }) | Some(Stmt::Skip) => {
                    enabled.push(Transition::Execute(name.clone()));
                }
            }
        }
        enabled
    }

    /// Applies `transition`, returning the events it produced.
    ///
    /// Panics if the transition is not currently enabled (schedulers must
    /// only apply transitions obtained from [`enabled_transitions`](Self::enabled_transitions)).
    pub fn apply(&mut self, transition: &Transition) -> Vec<Event> {
        match transition {
            Transition::Run(handler) => self.apply_run(handler),
            Transition::Sync { waiter, releaser } => self.apply_sync(waiter, releaser),
            Transition::Execute(handler) => self.apply_execute(handler),
        }
    }

    fn apply_run(&mut self, name: &str) -> Vec<Event> {
        let handler = self.handlers.get_mut(name).expect("handler exists");
        assert!(handler.is_idle(), "run rule requires an idle handler");
        let (client, private) = handler.queue.first_mut().expect("non-empty request queue");
        let client = client.clone();
        let action = private.pop_front().expect("non-empty private queue");
        let event = Event::Dequeued {
            handler: name.to_string(),
            client: client.clone(),
            action: format!("{action:?}"),
        };
        let stmt = match action {
            Action::Invoke(method) => Stmt::Local { label: method },
            Action::End => Stmt::End,
            Action::Release(h) => Stmt::Release(h),
        };
        handler.program.push_front(stmt);
        let mut events = vec![event];
        // Executing the dequeued Invoke immediately would be a separate
        // Execute step; keep it separate so schedulers control interleaving,
        // but record the dequeue now.
        if let Some(Stmt::Local { label }) = handler.program.front() {
            events.push(Event::Scheduled {
                handler: name.to_string(),
                client,
                method: label.clone(),
            });
        }
        events
    }

    fn apply_sync(&mut self, waiter: &str, releaser: &str) -> Vec<Event> {
        {
            let w = self.handlers.get_mut(waiter).expect("waiter exists");
            assert!(matches!(w.program.front(), Some(Stmt::Wait(t)) if t == releaser));
            w.program.pop_front();
        }
        {
            let r = self.handlers.get_mut(releaser).expect("releaser exists");
            assert!(matches!(r.program.front(), Some(Stmt::Release(t)) if t == waiter));
            r.program.pop_front();
        }
        vec![Event::Synced {
            client: waiter.to_string(),
            handler: releaser.to_string(),
        }]
    }

    fn apply_execute(&mut self, name: &str) -> Vec<Event> {
        // Take the current statement out first to appease the borrow checker;
        // effects on *other* handlers are applied afterwards.
        let stmt = {
            let handler = self.handlers.get_mut(name).expect("handler exists");
            handler.program.pop_front().expect("non-empty program")
        };
        match stmt {
            Stmt::Skip => vec![],
            Stmt::Local { label } => {
                // Executed immediately and synchronously (guarantee 1, §2.2).
                vec![Event::Executed {
                    handler: name.to_string(),
                    method: label,
                }]
            }
            Stmt::Separate { targets, body } | Stmt::SeparateRead { targets, body } => {
                // Generalised separate rule: register with every target
                // atomically, then run the body followed by `call(t, end)`
                // for each target.  `separate read` shares this rule: the
                // machine keeps the per-queue orderings and lets the
                // deadlock analysis distinguish the gate semantics.
                for target in &targets {
                    self.handlers
                        .get_mut(target)
                        .expect("target exists")
                        .register_client(name);
                }
                let handler = self.handlers.get_mut(name).expect("handler exists");
                for target in targets.iter().rev() {
                    handler.program.push_front(Stmt::Call {
                        target: target.clone(),
                        method: END_METHOD.to_string(),
                    });
                }
                for stmt in body.into_iter().rev() {
                    handler.program.push_front(stmt);
                }
                vec![Event::Reserved {
                    client: name.to_string(),
                    handlers: targets,
                }]
            }
            Stmt::Call { target, method } => {
                let action = if method == END_METHOD {
                    Action::End
                } else {
                    Action::Invoke(method.clone())
                };
                let logged = self
                    .handlers
                    .get_mut(&target)
                    .expect("target exists")
                    .log_for_client(name, action);
                assert!(logged, "call without a registered private queue");
                vec![Event::Logged {
                    client: name.to_string(),
                    handler: target,
                    method,
                }]
            }
            Stmt::Query { target, method } => {
                // query rule: log the feature plus `release <us>`, then wait.
                let target_state = self.handlers.get_mut(&target).expect("target exists");
                let ok1 = target_state.log_for_client(name, Action::Invoke(method.clone()));
                let ok2 = target_state.log_for_client(name, Action::Release(name.to_string()));
                assert!(ok1 && ok2, "query without a registered private queue");
                let handler = self.handlers.get_mut(name).expect("handler exists");
                handler.program.push_front(Stmt::Wait(target.clone()));
                vec![Event::Logged {
                    client: name.to_string(),
                    handler: target,
                    method,
                }]
            }
            Stmt::End => {
                // end rule: retire the exhausted private queue at the head of
                // the request queue.
                let handler = self.handlers.get_mut(name).expect("handler exists");
                let (client, private) = handler.queue.remove(0);
                assert!(
                    private.is_empty(),
                    "end rule requires an empty private queue"
                );
                vec![Event::QueueRetired {
                    handler: name.to_string(),
                    client,
                }]
            }
            Stmt::Wait(_) | Stmt::Release(_) => {
                unreachable!("wait/release only step through the sync rule")
            }
        }
    }

    /// Attempts one step using the scheduler-chosen index into the enabled
    /// transitions; returns what happened.
    pub fn step_with<F>(&mut self, mut choose: F) -> StepResult
    where
        F: FnMut(&[Transition]) -> usize,
    {
        let enabled = self.enabled_transitions();
        if enabled.is_empty() {
            let stuck: Vec<_> = self
                .handlers
                .values()
                .filter(|h| !h.program.is_empty())
                .map(|h| h.name.clone())
                .collect();
            return if stuck.is_empty() {
                StepResult::Finished
            } else {
                StepResult::Deadlock(stuck)
            };
        }
        let index = choose(&enabled).min(enabled.len() - 1);
        StepResult::Stepped(self.apply(&enabled[index]))
    }

    /// Returns `true` if every handler has an empty program (all client code
    /// has run to completion).
    pub fn all_programs_finished(&self) -> bool {
        self.handlers.values().all(|h| h.program.is_empty())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::{fig1_program, Program, Stmt};

    fn run_to_completion(mut config: Configuration) -> (Configuration, Vec<Event>) {
        let mut events = Vec::new();
        loop {
            match config.step_with(|_| 0) {
                StepResult::Stepped(mut e) => events.append(&mut e),
                StepResult::Finished => return (config, events),
                StepResult::Deadlock(stuck) => panic!("unexpected deadlock: {stuck:?}"),
            }
        }
    }

    #[test]
    fn single_client_logs_and_handler_executes() {
        let programs = vec![
            Program::passive("x"),
            Program::new(
                "c",
                vec![Stmt::separate(
                    "x",
                    vec![Stmt::call("x", "foo"), Stmt::call("x", "bar")],
                )],
            ),
        ];
        let (config, events) = run_to_completion(Configuration::new(programs));
        let executed: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Executed { handler, method } if handler == "x" => Some(method.clone()),
                _ => None,
            })
            .collect();
        assert_eq!(executed, vec!["foo", "bar"]);
        // The private queue was retired by the end rule.
        assert!(config.handlers["x"].queue.is_empty());
    }

    #[test]
    fn query_synchronises_client_and_handler() {
        let programs = vec![
            Program::passive("x"),
            Program::new(
                "c",
                vec![Stmt::separate(
                    "x",
                    vec![Stmt::call("x", "put"), Stmt::query("x", "get")],
                )],
            ),
        ];
        let (_, events) = run_to_completion(Configuration::new(programs));
        assert!(events.iter().any(|e| matches!(e, Event::Synced { .. })));
        // The query's feature executes on the handler before the sync.
        let exec_pos = events
            .iter()
            .position(|e| matches!(e, Event::Executed { method, .. } if method == "get"))
            .expect("query feature executed");
        let sync_pos = events
            .iter()
            .position(|e| matches!(e, Event::Synced { .. }))
            .unwrap();
        assert!(exec_pos < sync_pos);
    }

    #[test]
    fn fig1_first_come_first_served_schedule() {
        let (_, events) = run_to_completion(Configuration::new(fig1_program()));
        let on_x: Vec<_> = events
            .iter()
            .filter_map(|e| match e {
                Event::Executed { handler, method } if handler == "x" => Some(method.as_str()),
                _ => None,
            })
            .collect();
        // Under any schedule the projection on x must be one of the two
        // allowed interleavings of §2.1.
        assert!(
            on_x == ["foo", "bar", "bar", "baz"] || on_x == ["bar", "baz", "foo", "bar"],
            "disallowed interleaving {on_x:?}"
        );
    }

    #[test]
    fn calls_without_reservation_are_not_enabled() {
        let programs = vec![
            Program::passive("x"),
            Program::new("c", vec![Stmt::call("x", "foo")]),
        ];
        let config = Configuration::new(programs);
        // The only handler with a program is `c`, but its call is not enabled
        // because it never reserved `x`.
        assert!(config.enabled_transitions().is_empty());
    }

    #[test]
    fn deadlock_is_reported_for_unmatched_wait() {
        let programs = vec![
            Program::passive("x"),
            Program::new("c", vec![Stmt::Wait("x".to_string())]),
        ];
        let mut config = Configuration::new(programs);
        match config.step_with(|_| 0) {
            StepResult::Deadlock(stuck) => assert_eq!(stuck, vec!["c".to_string()]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }
}
