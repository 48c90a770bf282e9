//! Contracts on separate objects: wait conditions and postconditions.
//!
//! The paper's motivation for SCOOP is that concurrent code should keep the
//! pre/postcondition reasoning of sequential code (§1, §2.2).  On a
//! *separate* target a precondition cannot simply fail — whether it holds
//! depends on what other clients have done — so SCOOP turns it into a **wait
//! condition**: the reservation is retried until the condition holds, and
//! once the body runs the condition is guaranteed because no other client's
//! requests can be interleaved with the block's (guarantee 2 of §2.2).
//!
//! Wait conditions are expressed through the unified reservation builder:
//! `reserve(set).when(condition)` — see [`crate::reserve`].  This module
//! provides the retry policy ([`WaitConfig`]), the timeout error
//! ([`WaitTimeout`]), and postcondition evaluation at the end of a block
//! ([`check_postcondition`] / [`assert_postcondition`]).
//!
//! A wait condition must be placed on the *reservation*, not inside an open
//! separate block: while a client's block is open the handler does not
//! process any other client, so a condition that depends on other clients'
//! progress could never become true — the classic way to build a deadlock
//! out of condition synchronisation.  The API makes the correct structure
//! the easy one: the condition is evaluated and the block body runs under
//! the same reservation, and between retries the reservation is released so
//! other clients can make the condition true.

use std::sync::Arc;
use std::time::Duration;

use crate::separate::Separate;
use crate::stats::RuntimeStats;

/// Retry policy for wait conditions.
#[derive(Debug, Clone, Copy)]
pub struct WaitConfig {
    /// An attempt budget: the condition is evaluated at most this many
    /// times, back to back without parking (a parked client makes no
    /// attempts), and the wait fails when the budget is spent.  `None`
    /// retries forever (the SCOOP semantics), parking between attempts.
    pub max_retries: Option<usize>,
    /// Maximum wall-clock time to keep retrying; `None` never expires.
    pub max_wait: Option<Duration>,
    /// Without an attempt budget: after this many back-to-back attempts the
    /// client parks until a handler of the set finishes a block.
    pub spin_retries: usize,
}

impl Default for WaitConfig {
    fn default() -> Self {
        WaitConfig {
            max_retries: None,
            max_wait: None,
            spin_retries: 8,
        }
    }
}

impl WaitConfig {
    /// A policy that gives up after `max_retries` failed evaluations, made
    /// eagerly one after the other.
    pub fn bounded(max_retries: usize) -> Self {
        WaitConfig {
            max_retries: Some(max_retries),
            ..Default::default()
        }
    }

    /// A policy that gives up once `max_wait` wall-clock time has elapsed.
    pub fn wall_clock(max_wait: Duration) -> Self {
        WaitConfig {
            max_wait: Some(max_wait),
            ..Default::default()
        }
    }
}

/// Returned by a bounded reservation (`reserve(...).timeout(...)`) when the
/// wait condition did not hold within the configured budget.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WaitTimeout {
    /// How many times the condition was evaluated.
    pub attempts: usize,
}

impl std::fmt::Display for WaitTimeout {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "wait condition still false after {} attempts",
            self.attempts
        )
    }
}

impl std::error::Error for WaitTimeout {}

/// Evaluates a postcondition at the current point of a separate block and
/// returns whether it holds.  All calls logged earlier in the block are
/// applied before the predicate runs (it is a query).
pub fn check_postcondition<T: Send + 'static>(
    guard: &mut Separate<'_, T>,
    predicate: impl Fn(&T) -> bool + Send + 'static,
) -> bool {
    let stats = Arc::clone(guard.stats());
    RuntimeStats::bump(&stats.postcondition_checks);
    let holds = guard.query(move |object| predicate(object));
    if !holds {
        RuntimeStats::bump(&stats.postcondition_failures);
    }
    holds
}

/// Like [`check_postcondition`] but panics with `message` when the
/// postcondition does not hold.
pub fn assert_postcondition<T: Send + 'static>(
    guard: &mut Separate<'_, T>,
    message: &str,
    predicate: impl Fn(&T) -> bool + Send + 'static,
) {
    assert!(
        check_postcondition(guard, predicate),
        "postcondition violated: {message}"
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{OptimizationLevel, RuntimeConfig};
    use crate::reserve::reserve;
    use crate::runtime::Runtime;

    #[derive(Default)]
    struct Buffer {
        items: Vec<u64>,
        capacity: usize,
    }

    #[test]
    fn producer_consumer_with_wait_conditions() {
        for level in [OptimizationLevel::All, OptimizationLevel::None] {
            let rt = Runtime::new(level.config());
            let buffer = rt.spawn_handler(Buffer {
                items: Vec::new(),
                capacity: 4,
            });
            let total_items = 200u64;

            let producer = {
                let buffer = buffer.clone();
                std::thread::spawn(move || {
                    for i in 0..total_items {
                        // Wait until there is room (bounded buffer).
                        reserve(&buffer)
                            .when(|b: &Buffer| b.items.len() < b.capacity)
                            .run(|guard| guard.call(move |b| b.items.push(i)));
                    }
                })
            };
            let consumer = {
                let buffer = buffer.clone();
                std::thread::spawn(move || {
                    let mut received = Vec::new();
                    while received.len() < total_items as usize {
                        // Wait until the buffer is non-empty, then drain it.
                        let batch = reserve(&buffer)
                            .when(|b: &Buffer| !b.items.is_empty())
                            .run(|guard| guard.query(|b| std::mem::take(&mut b.items)));
                        received.extend(batch);
                    }
                    received
                })
            };

            producer.join().unwrap();
            let received = consumer.join().unwrap();
            assert_eq!(
                received,
                (0..total_items).collect::<Vec<_>>(),
                "level {level}"
            );
            let snap = rt.stats_snapshot();
            // The producer alone evaluates the condition once per item; the
            // consumer adds at least one check per drained batch (how many
            // depends on scheduling, so no exact bound).
            assert!(snap.wait_condition_checks > total_items);
        }
    }

    #[test]
    fn condition_already_true_runs_immediately() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let cell = rt.spawn_handler(10u32);
        let doubled = reserve(&cell)
            .when(|n: &u32| *n >= 10)
            .run(|guard| guard.query(|n| *n * 2));
        assert_eq!(doubled, 20);
        let snap = rt.stats_snapshot();
        assert_eq!(snap.wait_condition_retries, 0);
        assert_eq!(snap.wait_condition_checks, 1);
    }

    #[test]
    fn bounded_wait_times_out_when_nobody_helps() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let cell = rt.spawn_handler(0u32);
        let result = reserve(&cell)
            .when(|n: &u32| *n > 0)
            .timeout(WaitConfig::bounded(5))
            .try_run(|guard| guard.query(|n| *n));
        assert_eq!(result, Err(WaitTimeout { attempts: 5 }));
        assert!(rt.stats_snapshot().wait_condition_retries >= 5);
        assert!(WaitTimeout { attempts: 5 }
            .to_string()
            .contains("5 attempts"));
    }

    #[test]
    fn wait_condition_released_between_retries_lets_others_progress() {
        // A waiter needs the flag to become true; a helper sets it after a
        // while.  If the waiter held its reservation while waiting this would
        // deadlock — the test passing is evidence the reservation is released
        // between attempts.
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let flag = rt.spawn_handler(false);
        let helper = {
            let flag = flag.clone();
            std::thread::spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(20));
                flag.call_detached(|f| *f = true);
            })
        };
        let observed = reserve(&flag)
            .when(|f: &bool| *f)
            .run(|guard| guard.query(|f| *f));
        assert!(observed);
        helper.join().unwrap();
    }

    #[test]
    fn two_handler_wait_condition_sees_consistent_pair() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let source = rt.spawn_handler(100i64);
        let target = rt.spawn_handler(0i64);

        // Move money only when the source can afford it.
        let mover = {
            let (source, target) = (source.clone(), target.clone());
            std::thread::spawn(move || {
                for _ in 0..10 {
                    reserve((&source, &target))
                        .when(|s: &i64, _t: &i64| *s >= 10)
                        .run(|(ss, st)| {
                            ss.call(|s| *s -= 10);
                            st.call(|t| *t += 10);
                        });
                }
            })
        };
        mover.join().unwrap();
        let total = reserve((&source, &target)).run(|(ss, st)| ss.query(|s| *s) + st.query(|t| *t));
        assert_eq!(total, 100);
        assert_eq!(target.query_detached(|t| *t), 100);
    }

    #[test]
    fn postconditions_are_counted_and_asserted() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let account = rt.spawn_handler(50i64);
        account.separate(|guard| {
            guard.call(|balance| *balance += 25);
            assert!(check_postcondition(guard, |balance| *balance == 75));
            assert!(!check_postcondition(guard, |balance| *balance < 0));
            assert_postcondition(guard, "balance stays positive", |balance| *balance > 0);
        });
        let snap = rt.stats_snapshot();
        assert_eq!(snap.postcondition_checks, 3);
        assert_eq!(snap.postcondition_failures, 1);
    }

    #[test]
    #[should_panic(expected = "postcondition violated: never negative")]
    fn failed_assert_postcondition_panics() {
        let rt = Runtime::new(RuntimeConfig::all_optimizations());
        let cell = rt.spawn_handler(-1i32);
        cell.separate(|guard| {
            assert_postcondition(guard, "never negative", |n| *n >= 0);
        });
    }

    #[test]
    fn wait_conditions_work_on_every_optimization_level() {
        for level in [
            OptimizationLevel::None,
            OptimizationLevel::Dynamic,
            OptimizationLevel::Static,
            OptimizationLevel::QoQ,
            OptimizationLevel::All,
        ] {
            let rt = Runtime::new(level.config());
            let counter = rt.spawn_handler(0u32);
            let adder = {
                let counter = counter.clone();
                std::thread::spawn(move || {
                    for _ in 0..50 {
                        counter.call_detached(|n| *n += 1);
                    }
                })
            };
            let observed = reserve(&counter)
                .when(|n: &u32| *n >= 50)
                .run(|guard| guard.query(|n| *n));
            assert!(observed >= 50, "level {level}");
            adder.join().unwrap();
        }
    }
}
