//! Loopback TCP round trips must not pay a delayed-ACK floor.
//!
//! A frame written in several small pieces, on a socket with Nagle's
//! algorithm on, has its last segment held until the peer's delayed
//! ACK, about 40 ms on Linux. Every hop of the tier here is TCP: a
//! client, a router and two shards, so a regression on any of the
//! four sockets puts the median round trip at 40 ms or more.

use linguist_serve::client::Client;
use linguist_serve::router::{Router, RouterConfig, ShardAddr};
use linguist_serve::server::{Server, ServerConfig};
use linguist_support::json::Json;
use std::time::{Duration, Instant};

const ROUND_TRIPS: usize = 40;

/// A quarter of the old floor.
const MEDIAN_BOUND: Duration = Duration::from_millis(10);

#[test]
fn translate_round_trips_through_the_router_stay_under_the_delayed_ack_floor() {
    let shard = || {
        Server::start(ServerConfig {
            tcp_addr: Some("127.0.0.1:0".to_string()),
            workers: 1,
            ..ServerConfig::default()
        })
        .expect("shard starts")
    };
    let shards = [shard(), shard()];
    let router = Router::start(RouterConfig {
        tcp_addr: Some("127.0.0.1:0".to_string()),
        shards: shards
            .iter()
            .map(|s| ShardAddr::Tcp(s.tcp_addr().expect("shard tcp bound").to_string()))
            .collect(),
        ..RouterConfig::default()
    })
    .expect("router starts");
    let mut client = Client::connect_tcp(router.tcp_addr().expect("router tcp bound"))
        .expect("connect to router");
    client
        .set_timeouts(Some(Duration::from_secs(10)))
        .expect("timeouts");

    let loaded = client
        .load_grammar(linguist_grammars::calc_source(), Some("calc"), None)
        .expect("load");
    assert_eq!(
        loaded.get("ok").and_then(Json::as_bool),
        Some(true),
        "{}",
        loaded
    );
    let handle = loaded
        .get("grammar")
        .and_then(Json::as_str)
        .expect("handle")
        .to_string();

    let mut samples: Vec<Duration> = (0..ROUND_TRIPS)
        .map(|i| {
            let started = Instant::now();
            let reply = client
                .translate_input(&handle, &format!("{} + 2 * 3", i), None)
                .expect("translate");
            let took = started.elapsed();
            assert_eq!(
                reply.get("ok").and_then(Json::as_bool),
                Some(true),
                "{}",
                reply
            );
            took
        })
        .collect();
    samples.sort();
    let median = samples[ROUND_TRIPS / 2];
    assert!(
        median < MEDIAN_BOUND,
        "median translate round trip {:?} (min {:?}, max {:?}); the delayed-ACK floor is back",
        median,
        samples[0],
        samples[ROUND_TRIPS - 1]
    );
    router.shutdown();
    for s in shards {
        s.shutdown();
    }
}
