//! `ingress_open`: an open loop from one generator thread sends
//! pre-encoded trap `submit` frames over two persistent connections to an
//! `IngressServer`, first at a `nominal` rate below the ingress thread's
//! saturation, then at an `overload` rate above it. The token bucket is
//! set above the offered rate and the queue holds everything offered, so
//! any shed is a failure, not policy. The admitted submissions are then
//! checked against what was sent and mixed in small in-memory rounds.

use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::derive_setup;
use atom_net::evloop::{CLIENT_HEADER_LEN, CLIENT_MAGIC, CLIENT_VERSION};
use atom_net::{EvloopOptions, InMemoryNetwork, LatencyModel};
use atom_runtime::wire::{self, ClientSubmission, Frame, SubmitFrame};
use atom_runtime::{
    Engine, EngineOptions, EngineRole, IngressOptions, IngressServer, RoundJob, RoundSubmissions,
    SubmissionBlock, SubmissionSource,
};
use atom_workload::{TrafficPattern, WorkloadSource, WorkloadSpec};

use crate::layers::{self, LayerShape};
use crate::mix::build_submissions;
use crate::trace::{self, Metered, NetStats, Prebuilt, PrebuiltSubs};
use crate::util::{
    median, ms, normalized, peak_rss_mb, percentile, self_cpu_secs, task_ids, thread_cpu_secs,
    Metrics,
};
use crate::{Outcome, SETUP_REPS};

const APP: u16 = 7;
/// Persistent client connections (≤ nproc).
const CONNECTIONS: usize = 2;
/// Distinct pre-built submissions; frame `i` carries submission
/// `i % POOL` under client id `i`.
const POOL: usize = 384;
/// Correctness rounds over the first `POOL` admitted submissions.
const CHECK_ROUNDS: usize = 16;
/// Nominal-rate frames per latency window: `admit_p95_ms` and
/// `admit_p99_ms` are medians of the windows' percentiles; a window's p99
/// has ten samples beyond it.
const TAIL_WINDOW: usize = 1000;
/// Offered rates (submissions per second).
pub const NOMINAL_RATE: f64 = 640.0;
pub const OVERLOAD_RATE: f64 = 2600.0;

fn config(seed: u64) -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.defense = Defense::Trap;
    config.num_groups = 2;
    config.group_size = 3;
    config.num_servers = 6;
    config.iterations = 2;
    config.message_len = 160;
    config.beacon_seed = atom_workload::index_seed(seed, 0xD1);
    config
}

/// One connection's state in the open loop.
struct Conn {
    stream: TcpStream,
    /// Frames assigned but not fully written: (frame index, bytes written).
    unsent: VecDeque<(usize, usize)>,
    /// Frames fully written, awaiting their ack in order.
    inflight: VecDeque<usize>,
    inbuf: Vec<u8>,
}

/// What one offered-rate phase measured.
struct Phase {
    /// Due → ack decoded, per admitted submission: (frame index, ms).
    latencies: Vec<(usize, f64)>,
    /// How late the generator took up each frame (ms).
    lags: Vec<f64>,
    /// Phase start to the last ack.
    elapsed: Duration,
    admitted: usize,
    shed: usize,
    lost: usize,
    malformed: usize,
    queue_depth_max: usize,
}

/// Offers frames `begin..end` at `rate`, frame `i` due at
/// `start + (i − begin) / rate`, and collects every ack.
fn run_phase(
    conns: &mut [Conn],
    frames: &[Vec<u8>],
    (begin, end): (usize, usize),
    rate: f64,
    server: &IngressServer,
    sample_queue: bool,
) -> Phase {
    let start = Instant::now();
    let due = |i: usize| start + Duration::from_secs_f64((i - begin) as f64 / rate);
    let deadline = due(end) + Duration::from_secs(30);
    let mut phase = Phase {
        latencies: Vec::with_capacity(end - begin),
        lags: Vec::with_capacity(end - begin),
        elapsed: Duration::ZERO,
        admitted: 0,
        shed: 0,
        lost: 0,
        malformed: 0,
        queue_depth_max: 0,
    };
    let mut next = begin;
    let mut last_sample = start;
    let mut last_ack = start;
    let mut buf = vec![0u8; 64 << 10];
    loop {
        let now = Instant::now();
        while next < end && due(next) <= now {
            phase.lags.push(ms(now - due(next)));
            conns[next % conns.len()].unsent.push_back((next, 0));
            next += 1;
        }
        let mut moved = false;
        for conn in conns.iter_mut() {
            // Write what is assigned, as far as the socket takes it.
            while let Some((index, written)) = conn.unsent.front_mut() {
                let frame = &frames[*index];
                match conn.stream.write(&frame[*written..]) {
                    Ok(n) if n > 0 => {
                        moved = true;
                        *written += n;
                        if *written == frame.len() {
                            conn.inflight.push_back(*index);
                            conn.unsent.pop_front();
                        }
                    }
                    Ok(_) => break,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => break,
                }
            }
            // Read and decode every complete ack.
            match conn.stream.read(&mut buf) {
                Ok(n) if n > 0 => {
                    moved = true;
                    conn.inbuf.extend_from_slice(&buf[..n]);
                }
                _ => {}
            }
            let mut at = 0;
            while conn.inbuf.len() - at >= CLIENT_HEADER_LEN {
                let head = &conn.inbuf[at..];
                let magic = u32::from_le_bytes(head[0..4].try_into().unwrap());
                let len = u32::from_le_bytes(head[5..9].try_into().unwrap()) as usize;
                if magic != CLIENT_MAGIC || head[4] != CLIENT_VERSION {
                    phase.malformed += 1;
                    conn.inbuf.clear();
                    at = 0;
                    break;
                }
                if head.len() < CLIENT_HEADER_LEN + len {
                    break;
                }
                let payload = &head[CLIENT_HEADER_LEN..CLIENT_HEADER_LEN + len];
                let acked_at = Instant::now();
                match (wire::decode(payload), conn.inflight.pop_front()) {
                    (Ok(Frame::SubmitAck(ack)), Some(index)) => {
                        if ack.shed {
                            phase.shed += 1;
                        } else {
                            phase.admitted += 1;
                            phase
                                .latencies
                                .push((index, ms(acked_at.saturating_duration_since(due(index)))));
                        }
                        last_ack = acked_at;
                    }
                    _ => phase.malformed += 1,
                }
                at += CLIENT_HEADER_LEN + len;
            }
            conn.inbuf.drain(..at);
        }
        if sample_queue && now - last_sample >= Duration::from_millis(1) {
            phase.queue_depth_max = phase.queue_depth_max.max(server.queued());
            last_sample = now;
        }
        let outstanding: usize = conns
            .iter()
            .map(|c| c.unsent.len() + c.inflight.len())
            .sum();
        if next == end && outstanding == 0 {
            break;
        }
        if Instant::now() > deadline {
            phase.lost = outstanding + (end - next);
            break;
        }
        if !moved {
            let wait = if next < end {
                due(next).saturating_duration_since(Instant::now())
            } else {
                Duration::from_micros(50)
            };
            std::thread::sleep(wait.min(Duration::from_micros(50)));
        }
    }
    phase.elapsed = last_ack - start;
    phase
}

fn connect(addr: std::net::SocketAddr) -> Result<Conn, String> {
    let stream = TcpStream::connect(addr).map_err(|e| format!("connect ingress: {e}"))?;
    stream
        .set_nonblocking(true)
        .map_err(|e| format!("nonblocking: {e}"))?;
    let _ = stream.set_nodelay(true);
    Ok(Conn {
        stream,
        unsent: VecDeque::new(),
        inflight: VecDeque::new(),
        inbuf: Vec::new(),
    })
}

pub fn run(seed: u64, seconds: f64, traced: bool) -> Result<Outcome, String> {
    let config = config(seed);
    let nominal = ((seconds * 0.6) * NOMINAL_RATE).round() as usize;
    let overload = ((seconds * 0.15) * OVERLOAD_RATE).round() as usize;
    let total = nominal + overload;
    let options = IngressOptions {
        round: config.round as usize,
        defense: Defense::Trap,
        app: APP,
        // Above the offered rate per connection: the bucket never sheds.
        rate: OVERLOAD_RATE * 4.0,
        burst: OVERLOAD_RATE * 4.0,
        // Holds everything offered: the queue never sheds.
        queue_capacity: total + 1,
        retry_after: Duration::from_millis(100),
        evloop: EvloopOptions {
            idle_timeout: Duration::from_secs(120),
            ..EvloopOptions::default()
        },
    };

    // Set-up, repeated: the directory plus `IngressServer::bind`.
    let mut setup_times = Vec::new();
    let mut server: Option<IngressServer> = None;
    let mut setup = None;
    let mut ingress_tid = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = server.take() {
            previous.shutdown();
        }
        let before = task_ids();
        let start = Instant::now();
        setup = Some(derive_setup(&config).map_err(|e| format!("derive setup: {e}"))?);
        server = Some(
            IngressServer::bind("127.0.0.1:0", options.clone())
                .map_err(|e| format!("bind ingress: {e}"))?,
        );
        setup_times.push(start.elapsed().as_secs_f64());
        ingress_tid = task_ids().into_iter().find(|t| !before.contains(t));
    }
    let server = server.expect("bound");
    let setup = setup.expect("derived");
    let ingress_tid = ingress_tid.ok_or("could not find the ingress thread")?;

    // Client side, off the clock: the submission pool and every frame.
    let source = WorkloadSource::new(
        Arc::new(setup.clone()),
        WorkloadSpec {
            pattern: TrafficPattern::ZipfMicroblog {
                users: 1_000_000,
                exponent: 1.0,
            },
            defense: Defense::Trap,
            submissions: POOL,
            seed: atom_workload::index_seed(seed, 0x1A),
        },
    )
    .map_err(|e| format!("workload source: {e}"))?;
    let PrebuiltSubs::Trap(pool) = build_submissions(&source, POOL) else {
        unreachable!("trap workload");
    };
    let payloads: Vec<Vec<u8>> = pool
        .iter()
        .map(|s| {
            wire::encode_submit(&SubmitFrame {
                round: config.round as usize,
                client: 0,
                app: APP,
                submission: ClientSubmission::Trap(s.clone()),
            })
        })
        .collect();
    let frames: Vec<Vec<u8>> = (0..total)
        .map(|i| {
            let mut payload = payloads[i % POOL].clone();
            payload[5..13].copy_from_slice(&(i as u64).to_le_bytes());
            atom_net::client_frame(&payload)
        })
        .collect();
    let mut conns = (0..CONNECTIONS)
        .map(|_| connect(server.local_addr()))
        .collect::<Result<Vec<_>, _>>()?;

    // Timed region: nominal, then overload.
    trace::set_tracing(traced);
    let pid = std::process::id();
    let thread_cpu0 = thread_cpu_secs(ingress_tid);
    let proc_cpu0 = self_cpu_secs();
    let t0 = Instant::now();
    let low = run_phase(
        &mut conns,
        &frames,
        (0, nominal),
        NOMINAL_RATE,
        &server,
        traced,
    );
    let t1 = Instant::now();
    let high = run_phase(
        &mut conns,
        &frames,
        (nominal, total),
        OVERLOAD_RATE,
        &server,
        traced,
    );
    let t2 = Instant::now();
    let thread_cpu = thread_cpu_secs(ingress_tid) - thread_cpu0;
    let proc_cpu = self_cpu_secs() - proc_cpu0;
    let region_id = trace::new_id();
    trace::record("ingress.open_loop", region_id, 0, t0, t2);
    trace::record("ingress.nominal", trace::new_id(), region_id, t0, t1);
    trace::record("ingress.overload", trace::new_id(), region_id, t1, t2);
    drop(conns);

    let stats = server.stats();
    let source_start = Instant::now();
    let admitted_source = server
        .source(stats.admitted as usize, Duration::from_secs(10))
        .map_err(|e| format!("drain ingress: {e}"))?;
    let source_ms = ms(source_start.elapsed());
    trace::record(
        "ingress.source",
        trace::new_id(),
        0,
        source_start,
        Instant::now(),
    );
    server.shutdown();
    trace::set_tracing(false);

    // Every admitted submission must be the one its client sent.
    let SubmissionBlock::Trap(admitted) = admitted_source
        .generate((0, admitted_source.total()))
        .map_err(|e| format!("admitted submissions: {e}"))?
    else {
        return Err("ingress admitted non-trap submissions".into());
    };
    // Frame i carried pool[i % POOL] under client id i, and the source
    // is sorted by client id.
    let intact = admitted
        .iter()
        .enumerate()
        .filter(|(i, s)| **s == pool[i % POOL])
        .count();
    let acked = low.admitted + high.admitted;
    let mut failed = total - intact.min(acked);
    if failed > 0 {
        eprintln!("ingress: {intact} of {total} sent submissions admitted intact, {acked} acked as admitted; {stats:?}");
    }

    // The first POOL admitted submissions (client ids 0..POOL, all
    // distinct) mixed in CHECK_ROUNDS rounds; a traced run also mixes them
    // once more with the instruments on.
    let mut round_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let net = NetStats::default();
    let per = POOL / CHECK_ROUNDS;
    let mut setup_latencies = Vec::new();
    let mut intake_spans = Vec::new();
    let (mut envelopes, mut bytes, mut delivered_traced) = (0u64, 0u64, 0usize);
    let passes = if traced { 2 } else { 1 };
    for pass in 0..passes {
        let instrumented = pass == 1;
        for c in 0..CHECK_ROUNDS {
            let range = c * per..(c + 1) * per;
            let subs = admitted.get(range.clone()).unwrap_or(&[]).to_vec();
            let prebuilt = Arc::new(Prebuilt::new(PrebuiltSubs::Trap(subs), instrumented));
            let round_id = trace::new_id();
            prebuilt.arm(round_id);
            let mut options = EngineOptions::with_workers(2);
            options.latency = LatencyModel::Zero;
            assert!(options.stragglers.is_empty());
            let network =
                InMemoryNetwork::new(config.num_groups + 1, LatencyModel::Zero, Vec::new());
            let role = EngineRole::standalone(config.num_groups);
            let job = RoundJob::new(
                setup.clone(),
                RoundSubmissions::Stream(Arc::clone(&prebuilt) as _),
                atom_workload::index_seed(seed ^ 0xC4EC, c as u64),
            );
            trace::set_tracing(instrumented);
            let started = Instant::now();
            let result = if instrumented {
                let metered = Metered {
                    inner: &network,
                    stats: &net,
                    parent: round_id,
                    peer: None,
                };
                Engine::new(options).run_rounds_on(vec![job], &metered, &role)
            } else {
                Engine::new(options).run_rounds_on(vec![job], &network, &role)
            }
            .pop()
            .expect("one result");
            trace::record(
                format!("check round {c}"),
                round_id,
                0,
                started,
                Instant::now(),
            );
            trace::set_tracing(false);
            let expected = normalized(
                &range
                    .map(|i| source.text_at(i).into_bytes())
                    .collect::<Vec<_>>(),
            );
            match result {
                Ok(report) if normalized(&report.output.plaintexts) == expected => {
                    if instrumented {
                        traced_walls.push(ms(report.wall_clock));
                        setup_latencies.push(ms(report.setup_latency));
                        envelopes += report.mix_messages;
                        bytes += report.mix_bytes;
                        delivered_traced += report.output.plaintexts.len();
                        if let Some(span) = prebuilt.intake_span() {
                            intake_spans.push(ms(span));
                        }
                    } else {
                        round_walls.push(ms(report.wall_clock));
                    }
                }
                Ok(_) => {
                    eprintln!("check round {c}: delivered plaintexts differ from the sent texts");
                    failed += per;
                }
                Err(error) => {
                    eprintln!("check round {c} failed: {error}");
                    failed += per;
                }
            }
        }
    }
    failed = failed.min(total);
    let rss = peak_rss_mb(pid);

    let admitted_total = low.admitted + high.admitted;
    let mut metrics = Metrics::default();
    metrics.one(
        "msgs_per_s",
        "1/s",
        high.admitted as f64 / high.elapsed.as_secs_f64(),
    );
    metrics.one(
        "cpu_ms_per_msg",
        "ms",
        thread_cpu * 1e3 / admitted_total.max(1) as f64,
    );
    metrics.put("round_p50_ms", "ms", "round", round_walls);
    // Tail percentiles within each window of TAIL_WINDOW consecutive due
    // frames (a short last window is dropped), reported as the median
    // over windows.
    let mut windows: Vec<Vec<f64>> = vec![Vec::new(); (nominal / TAIL_WINDOW).max(1)];
    for &(index, latency) in &low.latencies {
        if let Some(window) = windows.get_mut(index / TAIL_WINDOW) {
            window.push(latency);
        }
    }
    let tail = |p: f64| windows.iter().map(|w| percentile(w, p)).collect::<Vec<_>>();
    metrics.put("admit_p95_ms", "ms", "window", tail(0.95));
    metrics.put("admit_p99_ms", "ms", "window", tail(0.99));
    metrics.put(
        "admit_p50_ms",
        "ms",
        "message",
        low.latencies.iter().map(|&(_, l)| l).collect(),
    );
    metrics.put("setup_s", "s", "setup", setup_times);
    metrics.one("peak_rss_mb", "MiB", rss);
    metrics.one("ok_ratio", "ratio", (total - failed) as f64 / total as f64);
    let notes = vec![
        ("nominal_rate".to_string(), NOMINAL_RATE.to_string()),
        ("overload_rate".to_string(), OVERLOAD_RATE.to_string()),
        ("nominal_offered".to_string(), nominal.to_string()),
        ("overload_offered".to_string(), overload.to_string()),
        ("connections".to_string(), CONNECTIONS.to_string()),
        ("admit_samples".to_string(), low.latencies.len().to_string()),
    ];
    if !traced {
        return Ok(Outcome {
            attempted: total,
            failed,
            metrics,
            notes,
        });
    }

    let wall = (t2 - t0).as_secs_f64();
    let mut layer = Metrics::default();
    layer.one("fail_ratio", "ratio", failed as f64 / total as f64);
    layer.one(
        "proc.cpu_util",
        "ratio",
        proc_cpu / (wall * crate::cores() as f64),
    );
    layer.put("engine.setup_latency_ms", "ms", "round", setup_latencies);
    layer.put("engine.intake_span_ms", "ms", "round", intake_spans);
    layer.one(
        "engine.mix_envelopes_per_msg",
        "count",
        envelopes as f64 / delivered_traced.max(1) as f64,
    );
    layer.one(
        "engine.mix_bytes_per_msg",
        "B",
        bytes as f64 / delivered_traced.max(1) as f64,
    );
    layers::net_metrics(&mut layer, &net);
    layer.one(
        "trace_overhead_pct",
        "%",
        100.0 * (median(&traced_walls) / metrics.value("round_p50_ms") - 1.0),
    );
    layer.map.insert(
        "admit_p99_ms".to_string(),
        metrics.map["admit_p99_ms"].clone(),
    );
    layer.one("ingress.offered", "count", stats.offered as f64);
    layer.one("ingress.admitted", "count", stats.admitted as f64);
    layer.one("ingress.shed_rate", "count", stats.shed_rate as f64);
    layer.one("ingress.shed_queue", "count", stats.shed_queue as f64);
    layer.one("ingress.malformed", "count", stats.malformed as f64);
    layer.one(
        "ingress.queue_depth_max",
        "count",
        low.queue_depth_max.max(high.queue_depth_max) as f64,
    );
    layer.one("ingress.source_ms", "ms", source_ms);
    layer.one("ingress.gen_lag_p99_ms", "ms", percentile(&low.lags, 0.99));
    layer.one(
        "ingress.overload_gen_lag_p99_ms",
        "ms",
        percentile(&high.lags, 0.99),
    );
    let sample = PrebuiltSubs::Trap(pool);
    let layer_shape = LayerShape {
        batch: 2 * per / config.num_groups,
        setup,
        sample: &sample,
        mix_frame: layers::median_mix_frame(&net),
    };
    layers::measure(&mut layer, &layer_shape);
    // Ledger: the ingress thread's CPU per admitted submission against
    // the cost of decoding its frame.
    let measured_us = metrics.value("cpu_ms_per_msg") * 1e3;
    let predicted = layer.value("wire.decode_submit_us");
    layer.one("ladder.predicted_us_per_msg", "us", predicted);
    layer.one(
        "ladder.residual_pct",
        "%",
        100.0 * (1.0 - predicted / measured_us),
    );
    Ok(Outcome {
        attempted: total,
        failed,
        metrics: layer,
        notes,
    })
}
