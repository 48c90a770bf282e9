//! A two-node pipeline over serialized private queues (qs-remote): the §7
//! "sockets as the underlying implementation" direction of the paper,
//! simulated with in-process byte channels plus injected latency.
//!
//! A `source` node owns a block of data; a `sink` node folds whatever it is
//! sent.  The client pulls rows from the source with queries and pushes them
//! to the sink with asynchronous calls — the same pull idiom as §3.4, except
//! every call now crosses a wire format instead of a shared-memory queue.
//!
//! Run with `cargo run --example remote_pipeline`.

use std::time::Duration;

use scoop_qs::remote::{ChannelConfig, MethodRegistry, RemoteNode, RemoteObject, WireValue};

/// State of the source node: a matrix of integers, row-major.
struct Source {
    rows: Vec<Vec<i64>>,
}

/// State of the sink node: a running checksum and row count.
#[derive(Default)]
struct Sink {
    checksum: i64,
    rows_received: i64,
}

fn source_registry() -> MethodRegistry<Source> {
    MethodRegistry::new()
        .with("generate", |source: &mut Source, args| {
            let rows = args[0].as_int()?;
            let cols = args[1].as_int()?;
            source.rows = (0..rows)
                .map(|r| (0..cols).map(|c| r * cols + c).collect())
                .collect();
            Ok(WireValue::Unit)
        })
        .with("row_count", |source: &mut Source, _| {
            Ok(WireValue::Int(source.rows.len() as i64))
        })
        .with("row", |source: &mut Source, args| {
            let index = args[0].as_int()? as usize;
            let row = source
                .rows
                .get(index)
                .ok_or_else(|| format!("row {index} out of range"))?;
            Ok(WireValue::List(
                row.iter().map(|&v| WireValue::Int(v)).collect(),
            ))
        })
}

fn sink_registry() -> MethodRegistry<Sink> {
    MethodRegistry::new()
        .with("accept_row", |sink: &mut Sink, args| {
            let row = args[0].as_list()?;
            for value in row {
                sink.checksum = sink.checksum.wrapping_add(value.as_int()?);
            }
            sink.rows_received += 1;
            Ok(WireValue::Unit)
        })
        .with("checksum", |sink: &mut Sink, _| {
            Ok(WireValue::Int(sink.checksum))
        })
        .with("rows_received", |sink: &mut Sink, _| {
            Ok(WireValue::Int(sink.rows_received))
        })
}

fn main() {
    const ROWS: i64 = 64;
    const COLS: i64 = 32;

    // A little per-write latency makes the "remote" aspect visible without a
    // network; set it to zero to measure pure protocol overhead.
    let wire = ChannelConfig::with_latency(Duration::from_micros(50));

    let source = RemoteNode::spawn(
        "source",
        RemoteObject::new(Source { rows: Vec::new() }, source_registry()),
        wire,
    );
    let sink = RemoteNode::spawn(
        "sink",
        RemoteObject::new(Sink::default(), sink_registry()),
        wire,
    );

    let source_proxy = source.proxy("pipeline-driver");
    let sink_proxy = sink.proxy("pipeline-driver");

    // One separate block per node: within each block our frames are applied
    // in order with nothing interleaved, so the checksum the sink computes is
    // exactly the checksum of what the source handed out.
    let (rows_moved, checksum) = source_proxy.separate(|src| {
        src.call("generate", vec![WireValue::Int(ROWS), WireValue::Int(COLS)])
            .expect("generate");
        let row_count = src
            .query("row_count", vec![])
            .expect("row_count")
            .as_int()
            .unwrap();

        sink_proxy.separate(|dst| {
            for index in 0..row_count {
                let row = src.query("row", vec![WireValue::Int(index)]).expect("row");
                dst.call("accept_row", vec![row]).expect("accept_row");
            }
            let checksum = dst
                .query("checksum", vec![])
                .expect("checksum")
                .as_int()
                .unwrap();
            (row_count, checksum)
        })
    });

    let expected: i64 = (0..ROWS * COLS).sum();
    assert_eq!(rows_moved, ROWS);
    assert_eq!(checksum, expected, "checksum must match the generated data");

    println!("moved {rows_moved} rows of {COLS} integers between two remote nodes");
    println!("sink checksum {checksum} (expected {expected})");
    println!("source node stats: {:?}", source.stats());
    println!("sink node stats:   {:?}", sink.stats());

    assert_eq!(
        source.shutdown_and_take().map(|s| s.rows.len()),
        Some(ROWS as usize)
    );
    let final_sink = sink.shutdown_and_take().expect("sink state");
    assert_eq!(final_sink.rows_received, ROWS);
    println!("pipeline complete; both nodes shut down cleanly");
}
