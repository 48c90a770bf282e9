//! Differential corpus test for the effect-inference auto-read downgrade.
//!
//! Every corpus program runs at all five optimization levels with the
//! `auto_read` knob forced on and forced off, on a 2-worker pool.  The
//! printed output must be identical everywhere — the downgrade is an
//! optimisation, never a behaviour change — and the read-mostly program must
//! actually take shared-read reservations when (and only when) the knob is
//! on.

use qs_lang::programs::{
    bank_transfer_expected, copy_loop, copy_loop_expected, counter_expected, hot_reads_expected,
    two_stage_pipeline_expected, BANK_TRANSFER, COUNTER, HOT_READS, TWO_STAGE_PIPELINE,
};
use qs_lang::{compile, run_compiled, Compiled, QueryStrategy};
use qs_runtime::{OptimizationLevel, Runtime};

fn corpus() -> Vec<(&'static str, Compiled, Vec<String>)> {
    let copy = copy_loop(64);
    vec![
        ("counter", compile(COUNTER).unwrap(), counter_expected()),
        (
            "bank_transfer",
            compile(BANK_TRANSFER).unwrap(),
            bank_transfer_expected(),
        ),
        ("copy_loop", compile(&copy).unwrap(), copy_loop_expected(64)),
        (
            "pipeline",
            compile(TWO_STAGE_PIPELINE).unwrap(),
            two_stage_pipeline_expected(),
        ),
        (
            "hot_reads",
            compile(HOT_READS).unwrap(),
            hot_reads_expected(),
        ),
    ]
}

#[test]
fn corpus_is_invariant_under_auto_read_at_every_level() {
    for (name, compiled, expected) in corpus() {
        for level in OptimizationLevel::ALL {
            for auto_read in [false, true] {
                let config = level.config().with_auto_read(auto_read).with_workers(2);
                let runtime = Runtime::new(config);
                let strategy = if level == OptimizationLevel::Static {
                    compiled.static_strategy()
                } else {
                    QueryStrategy::RuntimeManaged
                };
                let output = run_compiled(&compiled, &runtime, strategy).unwrap_or_else(|e| {
                    panic!("{name} failed at {level} auto_read={auto_read}: {e}")
                });
                assert_eq!(
                    output.printed, expected,
                    "{name} diverged at {level} auto_read={auto_read}"
                );
            }
        }
    }
}

#[test]
fn hot_reads_takes_read_reservations_only_under_auto_read() {
    let compiled = compile(HOT_READS).unwrap();
    assert_eq!(
        compiled.checked.inferred_read_blocks.len(),
        1,
        "the query-only block must be proven read-only"
    );

    let on = Runtime::new(OptimizationLevel::All.config());
    let with_auto = run_compiled(&compiled, &on, QueryStrategy::RuntimeManaged).unwrap();
    assert!(
        with_auto.stats.read_reservations > 0,
        "auto_read on: the inferred block must reserve in read mode"
    );

    let off = Runtime::new(OptimizationLevel::All.config().with_auto_read(false));
    let without = run_compiled(&compiled, &off, QueryStrategy::RuntimeManaged).unwrap();
    assert_eq!(
        without.stats.read_reservations, 0,
        "auto_read off: the undowngraded baseline must stay exclusive"
    );
    assert_eq!(with_auto.printed, without.printed);
}
