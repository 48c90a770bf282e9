//! A guided tour of the observability layer: run a small workload under
//! `ObservabilityMode::Full`, then walk every exposition surface —
//!
//! 1. the per-thread trace rings (event counts per category),
//! 2. the Chrome `trace_event` export (written next to the temp dir; open
//!    it in `chrome://tracing` or Perfetto),
//! 3. the metrics registry as JSON and as Prometheus text,
//! 4. a live cluster node scraped over its plain-HTTP metrics endpoint and
//!    queried through the `metrics` control op.
//!
//! Every step is asserted, so CI can run this as a smoke test:
//! `cargo run --example trace_tour` (pass `smoke` for the CI-sized run).

use std::collections::BTreeMap;
use std::io::{Read as _, Write as _};

use scoop_qs::cluster::{bank_service, ClusterClient, NodeConfig, NodeServer};
use scoop_qs::obs;
use scoop_qs::prelude::*;
use scoop_qs::remote::{NodeAddr, WireValue};

fn main() {
    let smoke = std::env::args().nth(1).as_deref() == Some("smoke");
    let (handlers, calls_per_handler) = if smoke { (32, 50) } else { (128, 200) };
    println!(
        "== trace_tour: {handlers} handlers x {calls_per_handler} calls under Full tracing ==\n"
    );

    // A clean slate: Full mode arms both counters and the trace rings.
    obs::set_mode(ObservabilityMode::Full);
    obs::reset_trace();
    obs::registry().reset();

    run_workload(handlers, calls_per_handler);
    let by_category = dump_ring_summary();
    export_chrome_trace();
    dump_registry();
    scrape_live_node();

    // The tour is a smoke test: the workload must have left tracks on every
    // instrumented mechanism it exercised.
    for category in ["handler", "mailbox", "reserve", "read", "guard"] {
        assert!(
            by_category.get(category).copied().unwrap_or(0) > 0,
            "no `{category}.*` events recorded"
        );
    }
    obs::set_mode(ObservabilityMode::Off);
    println!("\ntrace_tour OK");
}

/// The traced workload: a fan-out/fan-in over a small fleet, one guarded
/// wait (exercising guard signal/wakeup parking) and one shared-read block
/// (exercising the read gate).
fn run_workload(handlers: usize, calls_per_handler: usize) {
    let rt = Runtime::new(
        RuntimeConfig::all_optimizations()
            .with_workers(4)
            .with_observability(ObservabilityMode::Full),
    );
    let fleet: Vec<_> = (0..handlers).map(|_| rt.spawn_handler(0u64)).collect();

    std::thread::scope(|scope| {
        let clients = 4;
        for client in 0..clients {
            let fleet = &fleet;
            scope.spawn(move || {
                for handler in fleet.iter().skip(client).step_by(clients) {
                    handler.separate(|s| {
                        for _ in 0..calls_per_handler {
                            s.call(|n| *n += 1);
                        }
                    });
                }
            });
        }
    });

    // A guarded wait: the waiter parks on a fresh gate handler; the signal
    // arrives only after the waiter has had ample time to register, so the
    // park/signal/wakeup path is actually exercised (an already-true
    // condition would short-circuit it).
    let gate = rt.spawn_handler(0u64);
    std::thread::scope(|scope| {
        let gate = &gate;
        scope.spawn(move || {
            let seen = reserve(gate)
                .when(|n: &u64| *n >= 1)
                .run(|g| g.query(|n| *n));
            assert!(seen >= 1);
        });
        std::thread::sleep(std::time::Duration::from_millis(100));
        gate.separate(|s| s.call(|n| *n += 1));
    });

    // A shared-read block: queries execute on this thread through the gate.
    let total: u64 = fleet
        .iter()
        .map(|h| reserve(h).read().run(|g| g.query(|n| *n)))
        .sum();
    assert_eq!(total, (handlers * calls_per_handler) as u64);
    drop(fleet);
}

/// Prints how many events each category left in the rings and returns the
/// tally.
fn dump_ring_summary() -> BTreeMap<&'static str, usize> {
    let events = obs::trace_events();
    let mut by_category: BTreeMap<&'static str, usize> = BTreeMap::new();
    for event in &events {
        *by_category.entry(event.kind.category()).or_default() += 1;
    }
    println!("trace rings hold {} events:", events.len());
    for (category, count) in &by_category {
        println!("  {category:<10} {count:>7}");
    }
    by_category
}

/// Exports the rings as Chrome `trace_event` JSON, validates it with the
/// crate's own parser and writes it for `chrome://tracing` / Perfetto.
fn export_chrome_trace() {
    let chrome = obs::chrome_trace_json();
    let doc = obs::parse_json(&chrome).expect("chrome trace JSON parses");
    assert!(
        doc.get("traceEvents").is_some(),
        "chrome export missing traceEvents"
    );
    let path = std::env::temp_dir().join("qs_trace_tour.json");
    std::fs::write(&path, &chrome).expect("write chrome trace");
    println!(
        "\nchrome trace: {} bytes -> {} (load in chrome://tracing)",
        chrome.len(),
        path.display()
    );
}

/// Prints the metrics registry in both exposition formats and checks the
/// latency histograms the workload should have fed.
fn dump_registry() {
    let json = obs::registry().to_json();
    let doc = obs::parse_json(&json).expect("registry JSON parses");
    let histograms = doc.get("histograms").expect("histograms section");
    assert!(
        histograms.get("request.enqueue_to_execute_ns").is_some(),
        "fan-out left no request latency samples: {json}"
    );

    println!("\nprometheus exposition (request + reserve lines):");
    for line in obs::registry().to_prometheus_text().lines() {
        if line.contains("request_") || line.contains("reserve_") {
            println!("  {line}");
        }
    }
}

/// Starts one cluster node with a metrics endpoint, drives a query through
/// it, then reads the registry back over the control op and a raw HTTP
/// scrape.
fn scrape_live_node() {
    let config = NodeConfig::at(NodeAddr::parse("tcp:127.0.0.1:0").unwrap())
        .with_metrics_listen("127.0.0.1:0");
    let node = NodeServer::start(bank_service(), config).expect("start node");
    let name = node.name().to_string();
    let client = ClusterClient::new("trace-tour", &[node.addr().clone()])
        .with_response_timeout(std::time::Duration::from_secs(10));
    client
        .separate(1, |s| {
            s.call("deposit", vec![WireValue::Int(5)]).unwrap();
            assert_eq!(s.query("balance", vec![]).unwrap(), WireValue::Int(5));
        })
        .unwrap();

    let WireValue::Str(metrics) = client.control(&name, "metrics", vec![]).unwrap() else {
        panic!("metrics control op must answer a string");
    };
    obs::parse_json(&metrics).expect("node registry JSON parses");

    let addr = node.metrics_addr().expect("metrics endpoint bound");
    let mut stream = std::net::TcpStream::connect(addr).expect("dial metrics endpoint");
    // One write for the whole request: the one-shot server answers (and
    // closes) as soon as it has read a first segment.
    stream
        .write_all(format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
        .unwrap();
    let mut response = String::new();
    stream.read_to_string(&mut response).unwrap();
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("query_round_trip_ns_count"), "{response}");
    println!(
        "\nlive node {name}: control op returned {} bytes of registry JSON, \
         http://{addr}/metrics scrape OK",
        metrics.len()
    );
    client.shutdown_cluster();
}
