//! End-to-end cluster tests: several in-process node servers over real
//! loopback sockets, one routing client.  (The multi-OS-process variant of
//! the same flow lives in `examples/bank_cluster.rs` and CI's cluster smoke
//! job; here the nodes share the test process so failures carry stack
//! traces.)

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use qs_cluster::{bank_service, ClusterClient, ClusterService, NodeConfig, NodeServer};
use qs_remote::{Frame, NodeAddr, RemoteError, WireValue, WIRE_VERSION};

fn tcp_node() -> NodeServer<qs_cluster::Account> {
    NodeServer::start(
        bank_service(),
        NodeConfig::at(NodeAddr::parse("tcp:127.0.0.1:0").unwrap()),
    )
    .unwrap()
}

fn unix_node(tag: &str) -> NodeServer<qs_cluster::Account> {
    let path = std::env::temp_dir().join(format!("qs-cluster-{tag}-{}.sock", std::process::id()));
    NodeServer::start(bank_service(), NodeConfig::at(NodeAddr::Unix(path))).unwrap()
}

#[test]
fn users_shard_across_nodes_and_balances_are_exact() {
    let nodes = [tcp_node(), tcp_node(), tcp_node()];
    let addrs: Vec<NodeAddr> = nodes.iter().map(|n| n.addr().clone()).collect();
    let client =
        ClusterClient::new("sharding-test", &[]).with_response_timeout(Duration::from_secs(10));
    client.set_ring(&addrs).unwrap();

    let users = 300u64;
    for user in 0..users {
        client
            .separate(user, |s| {
                s.call("deposit", vec![WireValue::Int(10)]).unwrap();
                s.call("deposit", vec![WireValue::Int(user as i64)])
                    .unwrap();
                s.call("withdraw", vec![WireValue::Int(5)]).unwrap();
            })
            .unwrap();
    }
    for user in 0..users {
        let balance = client.query(user, "balance", vec![]).unwrap();
        assert_eq!(balance, WireValue::Int(5 + user as i64), "user {user}");
    }

    // Every node must actually host a share of the users.
    for node in &nodes {
        let hosted = node.handlers_live();
        assert!(
            hosted > users as usize / 10,
            "node {} hosts only {hosted} of {users} users",
            node.name()
        );
    }
    client.shutdown_cluster();
}

#[test]
fn unix_and_tcp_nodes_mix_in_one_ring() {
    let a = tcp_node();
    let b = unix_node("mixed");
    let client =
        ClusterClient::new("mixed-transport", &[]).with_response_timeout(Duration::from_secs(10));
    client
        .set_ring(&[a.addr().clone(), b.addr().clone()])
        .unwrap();

    let mut unix_routed = 0;
    for user in 0..100u64 {
        client
            .separate(user, |s| {
                s.call("deposit", vec![WireValue::Int(7)]).unwrap();
                assert_eq!(s.query("balance", vec![]).unwrap(), WireValue::Int(7));
            })
            .unwrap();
        if client.route(user).unwrap().starts_with("unix:") {
            unix_routed += 1;
        }
    }
    assert!(unix_routed > 0, "no user routed over the Unix socket");
    assert!(unix_routed < 100, "no user routed over TCP");
    client.shutdown_cluster();
}

#[test]
fn pings_and_stats_report_per_node_activity() {
    let node = tcp_node();
    let name = node.name().to_string();
    let client = ClusterClient::new("控制", &[node.addr().clone()]);
    let pong = client.control(&name, "ping", vec![]).unwrap();
    assert_eq!(pong, WireValue::Str(format!("bank@{name}")));

    client.query(1, "balance", vec![]).unwrap();
    client.query(2, "balance", vec![]).unwrap();
    let stats = client.control(&name, "stats", vec![]).unwrap();
    let rendered = format!("{stats:?}");
    assert!(rendered.contains("blocks"), "{rendered}");
    assert_eq!(
        client.control(&name, "handlers", vec![]).unwrap(),
        WireValue::Int(2)
    );
    let err = client.control(&name, "no-such-op", vec![]).unwrap_err();
    assert!(matches!(err, RemoteError::Application(_)));
    client.shutdown_cluster();
}

#[test]
fn metrics_ops_and_http_endpoint_expose_the_registry() {
    let mut config = NodeConfig::at(NodeAddr::parse("tcp:127.0.0.1:0").unwrap())
        .with_metrics_listen("127.0.0.1:0");
    config.runtime = config
        .runtime
        .with_observability(qs_runtime::ObservabilityMode::Counters);
    let node = NodeServer::start(bank_service(), config).unwrap();
    let name = node.name().to_string();
    let client = ClusterClient::new("metrics", &[node.addr().clone()])
        .with_response_timeout(Duration::from_secs(10));
    client.query(1, "balance", vec![]).unwrap();

    // Control{op:"metrics"}: the whole registry as parseable JSON.
    let WireValue::Str(json) = client.control(&name, "metrics", vec![]).unwrap() else {
        panic!("metrics must answer a string");
    };
    let doc = qs_obs::parse_json(&json).expect("registry JSON parses");
    let histograms = doc.get("histograms").expect("histograms section");
    assert!(
        histograms.get("query.round_trip_ns").is_some(),
        "the served query left a round-trip histogram: {json}"
    );

    // Control{op:"metrics_text"}: the same registry as Prometheus text.
    let WireValue::Str(text) = client.control(&name, "metrics_text", vec![]).unwrap() else {
        panic!("metrics_text must answer a string");
    };
    assert!(
        text.contains("# TYPE query_round_trip_ns summary"),
        "{text}"
    );

    // The HTTP endpoint serves the exposition format to a raw scrape.
    let addr = node.metrics_addr().expect("metrics endpoint bound");
    let mut stream = std::net::TcpStream::connect(addr).unwrap();
    {
        use std::io::Write;
        // One write for the whole request: the one-shot server answers (and
        // closes) after its first successful read, so a fragmented request
        // races EPIPE against the response.
        stream
            .write_all(format!("GET /metrics HTTP/1.1\r\nHost: {addr}\r\n\r\n").as_bytes())
            .unwrap();
    }
    let mut response = String::new();
    {
        use std::io::Read;
        stream.read_to_string(&mut response).unwrap();
    }
    assert!(response.starts_with("HTTP/1.1 200 OK\r\n"), "{response}");
    assert!(response.contains("text/plain"), "{response}");
    assert!(response.contains("query_round_trip_ns_count"), "{response}");
    client.shutdown_cluster();
}

#[test]
fn misrouted_blocks_are_refused_loudly() {
    let a = tcp_node();
    let b = tcp_node();
    let addrs = [a.addr().clone(), b.addr().clone()];
    let cluster = ClusterClient::new("router", &[]).with_response_timeout(Duration::from_secs(10));
    cluster.set_ring(&addrs).unwrap();

    // A client whose ring only knows node `a` sends every block there; the
    // users owned by `b` must be refused, not silently absorbed into the
    // wrong shard.
    let confused =
        ClusterClient::new("confused", &addrs[..1]).with_response_timeout(Duration::from_secs(10));
    let stray = (0..u64::MAX)
        .find(|u| cluster.route(*u).unwrap() != a.addr().to_string())
        .unwrap();
    let err = confused.query(stray, "balance", vec![]).unwrap_err();
    match err {
        RemoteError::Protocol(message) => {
            assert!(message.contains("block refused"), "{message}")
        }
        other => panic!("expected a refusal, got {other:?}"),
    }
    // The correctly routed client is untouched by the stray attempt.
    assert_eq!(
        cluster.query(stray, "balance", vec![]).unwrap(),
        WireValue::Int(0)
    );
    cluster.shutdown_cluster();
}

#[test]
fn a_dead_node_surfaces_an_error_not_a_hang() {
    let a = tcp_node();
    let b = tcp_node();
    let client =
        ClusterClient::new("mourner", &[]).with_response_timeout(Duration::from_millis(500));
    client
        .set_ring(&[a.addr().clone(), b.addr().clone()])
        .unwrap();

    let on_b = (0..u64::MAX)
        .find(|u| client.route(*u).unwrap() == b.addr().to_string())
        .unwrap();
    client.query(on_b, "balance", vec![]).unwrap();

    b.shutdown();
    // The pooled connection died with the node and fresh dials are refused:
    // the client must fail fast, with one of the peer-death errors.
    let err = client.query(on_b, "balance", vec![]).unwrap_err();
    assert!(
        matches!(err, RemoteError::Disconnected | RemoteError::Timeout),
        "unexpected error for a dead node: {err:?}"
    );
    // Other shards keep working.
    let on_a = (0..u64::MAX)
        .find(|u| client.route(*u).unwrap() == a.addr().to_string())
        .unwrap();
    client.query(on_a, "balance", vec![]).unwrap();
    client.shutdown_cluster();
}

#[test]
fn nodes_join_and_leave_the_ring() {
    let a = tcp_node();
    let b = tcp_node();
    let client =
        ClusterClient::new("membership", &[]).with_response_timeout(Duration::from_secs(10));
    client
        .set_ring(&[a.addr().clone(), b.addr().clone()])
        .unwrap();

    // A third node joins; every member learns the new membership, so all
    // traffic keeps flowing without refusals.
    let c = tcp_node();
    client.add_node(c.addr()).unwrap();
    assert_eq!(client.nodes().len(), 3);
    for user in 1000..1200u64 {
        client
            .separate(user, |s| {
                s.call("deposit", vec![WireValue::Int(1)]).unwrap();
                assert_eq!(s.query("balance", vec![]).unwrap(), WireValue::Int(1));
            })
            .unwrap();
    }
    assert!(
        c.handlers_live() > 0,
        "the joined node received no handlers"
    );

    // It leaves again; its handlers are re-routed to survivors (state is
    // not migrated — accounts restart fresh, which is the documented
    // non-goal) and traffic still flows.
    client.remove_node(c.addr()).unwrap();
    c.shutdown();
    assert_eq!(client.nodes().len(), 2);
    for user in 1000..1200u64 {
        client.query(user, "balance", vec![]).unwrap();
    }
    client.shutdown_cluster();
}

/// A node's `stats` control op, as counter name → value.
fn stats(client: &ClusterClient, node: &str) -> BTreeMap<String, i64> {
    let stats = client.control(node, "stats", vec![]).unwrap();
    let mut counters = BTreeMap::new();
    for pair in stats.as_list().unwrap() {
        if let [key, value] = pair.as_list().unwrap() {
            counters.insert(key.as_str().unwrap().to_string(), value.as_int().unwrap());
        }
    }
    counters
}

fn stat(client: &ClusterClient, node: &str, name: &str) -> i64 {
    stats(client, node)[name]
}

/// The node runtime's enqueued calls and handler wake-ups, read together.
fn runtime_counts(client: &ClusterClient, node: &str) -> (i64, i64) {
    let stats = stats(client, node);
    (
        stats["runtime_calls_enqueued"],
        stats["runtime_handler_wakeups"],
    )
}

#[test]
fn calls_sent_with_their_query_run_at_its_sync_without_a_worker() {
    let node = tcp_node();
    let name = node.name().to_string();
    let client = ClusterClient::new("fold", &[node.addr().clone()])
        .with_response_timeout(Duration::from_secs(10));
    let users = 0..8u64;
    for user in users.clone() {
        client.query(user, "balance", vec![]).unwrap();
    }
    let mut tally = [0i64; 8];

    // Open, three deposits and the balance go out in one write; the node
    // applies the deposits inside the query's sync on its connection
    // thread, so the runtime neither enqueues a call nor wakes a worker.
    let before = runtime_counts(&client, &name);
    for block in 0..200usize {
        let user = block % 8;
        let balance = client
            .separate(user as u64, |s| {
                for amount in 1..=3 {
                    s.call("deposit", vec![WireValue::Int(amount)]).unwrap();
                }
                s.query("balance", vec![]).unwrap()
            })
            .unwrap();
        tally[user] += 6;
        assert_eq!(balance, WireValue::Int(tally[user]), "block {block}");
    }
    assert_eq!(runtime_counts(&client, &name), before);

    // Without a query the deposits arrive with `End` and are logged as
    // calls, as before: every one reaches the handler through the pool.
    let (calls_before, _) = runtime_counts(&client, &name);
    for block in 0..200usize {
        client
            .separate((block % 8) as u64, |s| {
                for amount in 1..=3 {
                    s.call("deposit", vec![WireValue::Int(amount)]).unwrap();
                }
            })
            .unwrap();
        tally[block % 8] += 6;
    }
    let (calls_after, _) = runtime_counts(&client, &name);
    assert_eq!(calls_after - calls_before, 600);
    for user in users {
        assert_eq!(
            client.query(user, "balance", vec![]).unwrap(),
            WireValue::Int(tally[user as usize]),
            "user {user}"
        );
    }
    assert_eq!(stat(&client, &name, "calls"), 1200);
    assert_eq!(stat(&client, &name, "queries"), 8 + 200 + 8);
    assert_eq!(stat(&client, &name, "blocks"), 8 + 400 + 8);
    client.shutdown_cluster();
}

/// The bank, plus a method that panics.
fn fragile_bank_node() -> NodeServer<qs_cluster::Account> {
    let registry = qs_cluster::bank_registry().with("explode", |_, _| panic!("explode called"));
    let service = ClusterService::new("fragile-bank", registry, |_| qs_cluster::Account::default());
    NodeServer::start(
        service,
        NodeConfig::at(NodeAddr::parse("tcp:127.0.0.1:0").unwrap()),
    )
    .unwrap()
}

#[test]
fn held_calls_keep_call_semantics_inside_the_query() {
    let node = fragile_bank_node();
    let name = node.name().to_string();
    let client = ClusterClient::new("fold-semantics", &[node.addr().clone()])
        .with_response_timeout(Duration::from_secs(10));
    client.query(1, "balance", vec![]).unwrap();
    let before = runtime_counts(&client, &name);
    let panics_before = stat(&client, &name, "call_panics");

    // One write: an overdraft (an `Err`, dropped), a panic (caught), and
    // the deposits around them, answered by the balance in the same write.
    let balance = client
        .separate(1, |s| {
            s.call("deposit", vec![WireValue::Int(10)]).unwrap();
            s.call("withdraw", vec![WireValue::Int(1000)]).unwrap();
            s.call("explode", vec![]).unwrap();
            s.call("deposit", vec![WireValue::Int(5)]).unwrap();
            s.query("balance", vec![]).unwrap()
        })
        .unwrap();
    assert_eq!(balance, WireValue::Int(15));
    assert_eq!(runtime_counts(&client, &name), before);
    assert_eq!(stat(&client, &name, "call_panics"), panics_before + 1);

    // A sync after held calls applies them the same way.
    client
        .separate(1, |s| {
            s.call("explode", vec![]).unwrap();
            s.call("deposit", vec![WireValue::Int(1)]).unwrap();
            s.sync().unwrap();
        })
        .unwrap();
    assert_eq!(runtime_counts(&client, &name), before);
    assert_eq!(stat(&client, &name, "call_panics"), panics_before + 2);

    // The connection survived both and serves the next block.
    assert_eq!(
        client.query(1, "balance", vec![]).unwrap(),
        WireValue::Int(16)
    );
    assert_eq!(stat(&client, &name, "connections"), 1);
    client.shutdown_cluster();
}

#[test]
fn a_panicking_method_leaves_the_node_serving() {
    let node = fragile_bank_node();
    let name = node.name().to_string();
    let client = ClusterClient::new("fragile", &[node.addr().clone()])
        .with_response_timeout(Duration::from_secs(2));
    let started = Instant::now();
    client.call(1, "deposit", vec![WireValue::Int(4)]).unwrap();
    client.call(1, "explode", vec![]).unwrap();
    let err = client.query(1, "explode", vec![]).unwrap_err();
    assert_eq!(
        err,
        RemoteError::Application("method `explode` panicked".into())
    );
    assert_eq!(
        client.query(1, "balance", vec![]).unwrap(),
        WireValue::Int(4)
    );
    assert!(started.elapsed() < Duration::from_secs(2), "a reply waited");
    assert_eq!(stat(&client, &name, "call_panics"), 1);
    assert_eq!(stat(&client, &name, "application_errors"), 2);
    assert_eq!(stat(&client, &name, "connections"), 1);
    client.shutdown_cluster();
}

#[test]
fn a_client_sending_frame_by_frame_is_served_as_before() {
    let node = fragile_bank_node();
    let name = node.name().to_string();
    let control = ClusterClient::new("observer", &[node.addr().clone()])
        .with_response_timeout(Duration::from_secs(10));
    control.query(1, "balance", vec![]).unwrap();
    let (calls_before, _) = runtime_counts(&control, &name);
    let panics_before = stat(&control, &name, "call_panics");

    let (requests, responses) = node.addr().connect().unwrap();
    requests
        .send_frame(&Frame::Hello {
            version: WIRE_VERSION,
            client: "frame-by-frame".into(),
        })
        .unwrap();
    requests.send_frame(&Frame::Open { handler: 1 }).unwrap();
    let calls = [
        ("deposit", vec![WireValue::Int(10)]),
        ("withdraw", vec![WireValue::Int(1000)]),
        ("explode", vec![]),
        ("deposit", vec![WireValue::Int(5)]),
    ];
    for (sent, (method, args)) in calls.into_iter().enumerate() {
        requests
            .send_frame(&Frame::Call {
                method: method.into(),
                args,
            })
            .unwrap();
        // Nothing follows the call until the node has logged it on the
        // handler: it took the path a call sent alone takes.
        let deadline = Instant::now() + Duration::from_secs(10);
        while runtime_counts(&control, &name).0 < calls_before + sent as i64 + 1 {
            assert!(Instant::now() < deadline, "call {sent} was not logged");
        }
    }
    requests
        .send_frame(&Frame::Query {
            method: "balance".into(),
            args: vec![],
        })
        .unwrap();
    assert_eq!(
        responses.recv_frame_timeout(Some(Duration::from_secs(10))),
        Ok(Frame::QueryResult {
            result: Ok(WireValue::Int(15))
        })
    );
    requests.send_frame(&Frame::End).unwrap();
    assert_eq!(
        control.query(1, "balance", vec![]).unwrap(),
        WireValue::Int(15)
    );
    assert_eq!(runtime_counts(&control, &name).0, calls_before + 4);
    // The runtime counted the panic of the logged call.
    assert_eq!(stat(&control, &name, "call_panics"), panics_before + 1);
    control.shutdown_cluster();
}

#[test]
fn a_long_block_is_applied_while_the_client_is_still_sending_it() {
    let node = tcp_node();
    let name = node.name().to_string();
    let client = ClusterClient::new("long-block", &[node.addr().clone()])
        .with_response_timeout(Duration::from_secs(10));
    let observer = ClusterClient::new("observer", &[node.addr().clone()])
        .with_response_timeout(Duration::from_secs(10));
    client.query(1, "balance", vec![]).unwrap();
    let (calls_before, _) = runtime_counts(&observer, &name);

    let calls = 100_000;
    client
        .separate(1, |s| {
            for _ in 0..calls {
                s.call("deposit", vec![WireValue::Int(1)]).unwrap();
            }
            // No `End` yet: the client wrote the calls in 16 KiB pieces as
            // it logged them, and the node logs each piece on the handler
            // as it arrives.  Only the last partial piece is still buffered.
            let deadline = Instant::now() + Duration::from_secs(30);
            while runtime_counts(&observer, &name).0 < calls_before + calls - 1_000 {
                assert!(
                    Instant::now() < deadline,
                    "the node held the block's calls until its end"
                );
                std::thread::sleep(Duration::from_millis(1));
            }
        })
        .unwrap();
    assert_eq!(
        client.query(1, "balance", vec![]).unwrap(),
        WireValue::Int(calls)
    );
    assert_eq!(runtime_counts(&observer, &name).0, calls_before + calls);
    observer.shutdown_cluster();
}

#[test]
fn a_call_to_a_gone_node_fails_when_its_pooled_connection_cannot_be_redialled() {
    // A one-block "node" on a Unix socket: it answers one query, then
    // closes the connection and its listener, so the client's pooled
    // connection is dead (a write to it fails at once) and a redial finds
    // nothing listening.
    let path = std::env::temp_dir().join(format!("qs-cluster-gone-{}.sock", std::process::id()));
    let addr = NodeAddr::Unix(path);
    let listener = qs_remote::NodeListener::bind(&addr).unwrap();
    let node = std::thread::spawn(move || {
        let (responses, requests) = listener.accept().unwrap();
        assert!(matches!(requests.recv_frame(), Ok(Frame::Hello { .. })));
        assert_eq!(requests.recv_frame(), Ok(Frame::Open { handler: 1 }));
        assert!(matches!(requests.recv_frame(), Ok(Frame::Query { .. })));
        responses
            .send_frame(&Frame::QueryResult {
                result: Ok(WireValue::Int(0)),
            })
            .unwrap();
        assert_eq!(requests.recv_frame(), Ok(Frame::End));
    });
    let client = ClusterClient::new("bereaved", std::slice::from_ref(&addr))
        .with_response_timeout(Duration::from_secs(10));
    assert_eq!(
        client.query(1, "balance", vec![]).unwrap(),
        WireValue::Int(0)
    );
    node.join().unwrap();

    assert_eq!(
        client.call(1, "deposit", vec![WireValue::Int(1)]),
        Err(RemoteError::Disconnected)
    );
}
