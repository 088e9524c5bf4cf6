//! The two mixing workloads: `microblog_trap` (one process, in-memory
//! transport, prebuilt directories) and `dialing_nizk_tcp` (coordinator
//! plus one member OS process over TCP loopback, directories derived
//! inside each round).
//!
//! Both pre-build every client submission before the clock starts, then
//! run batches — each one `run_rounds_on` call with all of the batch's
//! rounds in flight — until the run's time is up. Every batch's delivered
//! plaintexts are checked against the generator's texts.

use std::io::{BufRead, BufReader, Write};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::{derive_setup, RoundSetup};
use atom_net::{InMemoryNetwork, LatencyModel, TcpOptions, TcpTransport, Transport};
use atom_runtime::{
    Engine, EngineOptions, EngineRole, RoundJob, RoundReport, RoundSubmissions, SubmissionBlock,
    SubmissionSource,
};
use atom_workload::{TrafficPattern, WorkloadSource, WorkloadSpec};

use crate::layers::{self, LayerShape};
use crate::trace::{self, Metered, NetStats, Prebuilt, PrebuiltSubs};
use crate::util::{median, ms, normalized, peak_rss_mb, percentile, self_cpu_secs, Metrics};
use crate::{Outcome, SETUP_REPS};

/// The fixed shape of a mixing workload.
#[derive(Clone, Debug)]
pub struct Shape {
    pub defense: Defense,
    pub groups: usize,
    pub group_size: usize,
    pub iterations: usize,
    pub message_len: usize,
    /// Submissions per round.
    pub per_round: usize,
    /// Rounds per batch, all in flight in one engine run.
    pub rounds: usize,
    pub pattern: TrafficPattern,
    /// OS processes (coordinator first) and engine workers per process.
    pub processes: usize,
    pub workers: usize,
    /// Directory derived inside each round (`RoundDirectory::Sharded`).
    pub sharded: bool,
}

pub fn microblog_trap() -> Shape {
    Shape {
        defense: Defense::Trap,
        groups: 2,
        group_size: 3,
        iterations: 3,
        message_len: 160,
        per_round: 96,
        rounds: 4,
        pattern: TrafficPattern::ZipfMicroblog {
            users: 1_000_000,
            exponent: 1.0,
        },
        processes: 1,
        workers: 2,
        sharded: false,
    }
}

pub fn dialing_nizk_tcp() -> Shape {
    Shape {
        defense: Defense::Nizk,
        groups: 8,
        group_size: 3,
        iterations: 2,
        message_len: 80,
        per_round: 128,
        rounds: 2,
        pattern: TrafficPattern::Dialing { users: 1_000_000 },
        processes: 2,
        workers: 1,
        sharded: true,
    }
}

/// Round `round`'s deployment configuration; equal in every process.
pub fn round_config(shape: &Shape, seed: u64, round: usize) -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.defense = shape.defense;
    config.num_groups = shape.groups;
    config.group_size = shape.group_size;
    config.num_servers = shape.groups * shape.group_size;
    config.iterations = shape.iterations;
    config.message_len = shape.message_len;
    config.round = round as u64;
    config.beacon_seed = atom_workload::index_seed(seed, round as u64);
    config
}

fn job_seed(seed: u64, round: usize) -> u64 {
    atom_workload::index_seed(seed ^ 0x5EED, round as u64)
}

/// Node → process map: groups round-robin over the processes, the
/// orchestrator (last node) on the coordinator.
fn owner_map(shape: &Shape) -> Vec<usize> {
    let mut owner: Vec<usize> = (0..shape.groups).map(|g| g % shape.processes).collect();
    owner.push(0);
    owner
}

fn role(shape: &Shape, index: usize) -> EngineRole {
    let hosted = (0..shape.groups)
        .filter(|g| g % shape.processes == index)
        .collect();
    if index == 0 {
        EngineRole::coordinator(hosted)
    } else {
        EngineRole::member(hosted)
    }
}

fn engine_options(shape: &Shape, offset: usize) -> EngineOptions {
    let mut options = EngineOptions::with_workers(shape.workers);
    options.round_offset = offset;
    options.stall_timeout = Duration::from_secs(60);
    options.latency = LatencyModel::Zero;
    // Real compute only: no emulated per-group delay.
    assert!(options.stragglers.is_empty());
    options
}

/// One round's client side: its prebuilt submissions and the texts the
/// round must deliver.
struct RoundPlan {
    setup: RoundSetup,
    source: Arc<Prebuilt>,
    expected: Vec<Vec<u8>>,
}

/// Builds every submission of round `round` (off the clock) on up to two
/// threads, plus the generator's texts.
fn plan_round(
    shape: &Shape,
    seed: u64,
    round: usize,
    setup: &RoundSetup,
    timed: bool,
) -> RoundPlan {
    let source = WorkloadSource::new(
        Arc::new(setup.clone()),
        WorkloadSpec {
            pattern: shape.pattern.clone(),
            defense: shape.defense,
            submissions: shape.per_round,
            seed: atom_workload::index_seed(seed ^ 0xC11E, round as u64),
        },
    )
    .expect("workload source");
    let subs = build_submissions(&source, shape.per_round);
    let expected = normalized(
        &(0..shape.per_round)
            .map(|i| source.text_at(i).into_bytes())
            .collect::<Vec<_>>(),
    );
    RoundPlan {
        setup: setup.clone(),
        source: Arc::new(Prebuilt::new(subs, timed)),
        expected,
    }
}

/// `source.generate(0..n)` split over two threads (client work, off the
/// clock), concatenated in index order.
pub fn build_submissions(source: &WorkloadSource, n: usize) -> PrebuiltSubs {
    let half = n / 2;
    let (a, b) = std::thread::scope(|scope| {
        let first = scope.spawn(|| source.generate((0, half)).expect("build submissions"));
        let second = source.generate((half, n)).expect("build submissions");
        (first.join().expect("builder thread"), second)
    });
    match (a, b) {
        (SubmissionBlock::Nizk(mut x), SubmissionBlock::Nizk(y)) => {
            x.extend(y);
            PrebuiltSubs::Nizk(x)
        }
        (SubmissionBlock::Trap(mut x), SubmissionBlock::Trap(y)) => {
            x.extend(y);
            PrebuiltSubs::Trap(x)
        }
        _ => unreachable!("one defense per source"),
    }
}

/// What one batch measured.
struct Batch {
    traced: bool,
    wall: Duration,
    cpu: f64,
    delivered: usize,
    /// Per round: wall clock, completion since batch start, setup latency.
    round_walls: Vec<Duration>,
    completions: Vec<Duration>,
    setup_latencies: Vec<Duration>,
    intake_spans: Vec<Duration>,
    mix_messages: u64,
    mix_bytes: u64,
}

/// The member process of `dialing_nizk_tcp`, driven over its stdin.
struct MemberProc {
    child: Child,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
    /// The member's own CPU seconds as of its last report.
    cpu: f64,
}

impl MemberProc {
    fn pid(&self) -> u32 {
        self.child.id()
    }

    fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.stdin, "{line}")
            .and_then(|_| self.stdin.flush())
            .map_err(|e| format!("member stdin: {e}"))
    }

    fn expect(&mut self, prefix: &str) -> Result<String, String> {
        let mut line = String::new();
        loop {
            line.clear();
            let n = self
                .stdout
                .read_line(&mut line)
                .map_err(|e| format!("member stdout: {e}"))?;
            if n == 0 {
                return Err(format!("member exited before `{prefix}`"));
            }
            if let Some(rest) = line.trim_end().strip_prefix(prefix) {
                return Ok(rest.trim().to_string());
            }
        }
    }

    fn quit(mut self) {
        let _ = self.send("quit");
        let _ = self.child.wait();
    }
}

impl Drop for MemberProc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// Coordinator-side deployment: the transport plus (for TCP) the member.
struct Deployment {
    memory: Option<InMemoryNetwork>,
    tcp: Option<TcpTransport>,
    member: Option<MemberProc>,
}

impl Deployment {
    fn transport(&self) -> &dyn Transport {
        match (&self.memory, &self.tcp) {
            (Some(memory), _) => memory,
            (None, Some(tcp)) => tcp,
            _ => unreachable!("a deployment has a transport"),
        }
    }

    fn close(mut self) {
        if let Some(member) = self.member.take() {
            member.quit();
        }
        if let Some(tcp) = &self.tcp {
            tcp.shutdown();
        }
    }
}

/// Brings up the system up to the point where it can take its first round:
/// for TCP, member spawn, bind and `connect_peers` on both sides up to the
/// member's ready line.
fn deploy(shape: &Shape, seed: u64, workload: &str) -> Result<Deployment, String> {
    if shape.processes == 1 {
        return Ok(Deployment {
            memory: Some(InMemoryNetwork::new(
                shape.groups + 1,
                LatencyModel::Zero,
                Vec::new(),
            )),
            tcp: None,
            member: None,
        });
    }
    let tcp = TcpTransport::bind_any(2, owner_map(shape), 0, TcpOptions::default())
        .map_err(|e| format!("bind coordinator: {e}"))?;
    let exe = std::env::current_exe().map_err(|e| format!("current exe: {e}"))?;
    let mut child = Command::new(exe)
        .args([
            "member",
            "--workload",
            workload,
            "--seed",
            &seed.to_string(),
            "--coordinator",
            &tcp.local_addr().to_string(),
        ])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("spawn member: {e}"))?;
    let mut member = MemberProc {
        stdin: child.stdin.take().expect("piped stdin"),
        stdout: BufReader::new(child.stdout.take().expect("piped stdout")),
        child,
        cpu: 0.0,
    };
    let addr = member.expect("addr")?;
    tcp.set_peer_addr(1, addr);
    tcp.connect_peers()
        .map_err(|e| format!("coordinator connect: {e}"))?;
    member.cpu = member
        .expect("ready")?
        .parse()
        .map_err(|e| format!("member cpu: {e}"))?;
    Ok(Deployment {
        memory: None,
        tcp: Some(tcp),
        member: Some(member),
    })
}

/// The member process's main loop: bind, connect, then run batch `b` on
/// each `run <b>` line until `quit`.
pub fn member_main(shape: &Shape, seed: u64, coordinator: &str) -> Result<(), String> {
    let tcp = TcpTransport::bind_any(2, owner_map(shape), 1, TcpOptions::default())
        .map_err(|e| format!("bind member: {e}"))?;
    let mut out = std::io::stdout();
    let say = |out: &mut std::io::Stdout, line: String| {
        let _ = writeln!(out, "{line}");
        let _ = out.flush();
    };
    say(&mut out, format!("addr {}", tcp.local_addr()));
    tcp.set_peer_addr(0, coordinator.to_string());
    tcp.connect_peers()
        .map_err(|e| format!("member connect: {e}"))?;
    say(&mut out, format!("ready {}", self_cpu_secs()));
    let role = role(shape, 1);
    for line in std::io::stdin().lock().lines() {
        let line = line.map_err(|e| format!("member stdin: {e}"))?;
        let mut words = line.split_whitespace();
        match words.next() {
            Some("run") => {
                let batch: usize = words
                    .next()
                    .and_then(|w| w.parse().ok())
                    .ok_or("run needs a batch index")?;
                let jobs = (0..shape.rounds)
                    .map(|r| {
                        RoundJob::sharded(
                            round_config(shape, seed, r),
                            RoundSubmissions::Nizk(Vec::new()),
                            job_seed(seed, r),
                        )
                    })
                    .collect();
                let results = Engine::new(engine_options(shape, batch * shape.rounds))
                    .run_rounds_on(jobs, &tcp, &role);
                let failed = results.iter().filter(|r| r.is_err()).count();
                say(
                    &mut out,
                    format!("done {batch} {failed} {}", self_cpu_secs()),
                );
            }
            Some("quit") | None => break,
            Some(other) => return Err(format!("member: unknown command {other}")),
        }
    }
    tcp.shutdown();
    Ok(())
}

/// Runs one batch on the coordinator and checks its outputs.
fn run_batch(
    shape: &Shape,
    seed: u64,
    plans: &[RoundPlan],
    deployment: &mut Deployment,
    index: usize,
    traced: bool,
    net: &NetStats,
) -> Result<Batch, String> {
    let rounds = plans.len();
    let offset = index * rounds;
    let completed: Arc<Mutex<Vec<Option<Instant>>>> = Arc::new(Mutex::new(vec![None; rounds]));
    let mut options = engine_options(shape, offset);
    let hook_times = Arc::clone(&completed);
    options.on_round_complete = Some(Arc::new(move |round: usize| {
        let now = Instant::now();
        let local = if round >= rounds {
            round - offset
        } else {
            round
        };
        if let Some(slot) = hook_times.lock().expect("completion lock").get_mut(local) {
            *slot = Some(now);
        }
    }));
    let batch_id = trace::new_id();
    let round_ids: Vec<u64> = (0..rounds).map(|_| trace::new_id()).collect();
    let jobs: Vec<RoundJob> = plans
        .iter()
        .zip(&round_ids)
        .enumerate()
        .map(|(r, (plan, &id))| {
            plan.source.arm(id);
            let submissions = RoundSubmissions::Stream(Arc::clone(&plan.source) as _);
            if shape.sharded {
                RoundJob::sharded(plan.setup.config.clone(), submissions, job_seed(seed, r))
            } else {
                RoundJob::new(plan.setup.clone(), submissions, job_seed(seed, r))
            }
        })
        .collect();
    let member_pid = deployment.member.as_ref().map(MemberProc::pid);
    if let Some(member) = deployment.member.as_mut() {
        member.send(&format!("run {index}"))?;
    }
    trace::set_tracing(traced);
    let role = role(shape, 0);
    let cpu0 = self_cpu_secs();
    let t0 = Instant::now();
    let results = {
        let engine = Engine::new(options);
        if traced {
            let metered = Metered {
                inner: deployment.transport(),
                stats: net,
                parent: batch_id,
                peer: member_pid,
            };
            engine.run_rounds_on(jobs, &metered, &role)
        } else {
            engine.run_rounds_on(jobs, deployment.transport(), &role)
        }
    };
    let t1 = Instant::now();
    let mut cpu = self_cpu_secs() - cpu0;
    if let Some(member) = deployment.member.as_mut() {
        let done = member.expect(&format!("done {index}"))?;
        let (failed, member_cpu) = done.split_once(' ').ok_or("malformed done line")?;
        if failed != "0" {
            return Err(format!("member failed {failed} rounds of batch {index}"));
        }
        let member_cpu: f64 = member_cpu.parse().map_err(|e| format!("member cpu: {e}"))?;
        cpu += member_cpu - member.cpu;
        member.cpu = member_cpu;
    }
    let times = completed.lock().expect("completion lock").clone();
    trace::record("batch", batch_id, 0, t0, t1);
    for (r, &id) in round_ids.iter().enumerate() {
        trace::record(
            format!("round {r}"),
            id,
            batch_id,
            t0,
            times[r].unwrap_or(t1),
        );
    }
    trace::set_tracing(false);

    let mut batch = Batch {
        traced,
        wall: t1 - t0,
        cpu,
        delivered: 0,
        round_walls: Vec::new(),
        completions: Vec::new(),
        setup_latencies: Vec::new(),
        intake_spans: Vec::new(),
        mix_messages: 0,
        mix_bytes: 0,
    };
    for (r, (plan, result)) in plans.iter().zip(results).enumerate() {
        match result {
            Ok(report) if delivered_ok(&report, &plan.expected) => {
                batch.delivered += report.output.plaintexts.len();
                batch.round_walls.push(report.wall_clock);
                batch
                    .completions
                    .push(times[r].unwrap_or(t1).saturating_duration_since(t0));
                batch.setup_latencies.push(report.setup_latency);
                batch.mix_messages += report.mix_messages;
                batch.mix_bytes += report.mix_bytes;
                if let Some(span) = plan.source.intake_span() {
                    batch.intake_spans.push(span);
                }
            }
            Ok(_) => {
                eprintln!("batch {index} round {r}: delivered plaintexts differ from the generator's texts")
            }
            Err(error) => eprintln!("batch {index} round {r} failed: {error}"),
        }
    }
    Ok(batch)
}

fn delivered_ok(report: &RoundReport, expected: &[Vec<u8>]) -> bool {
    normalized(&report.output.plaintexts) == expected
}

/// Runs a mixing workload for `seconds` and returns its outcome.
pub fn run(
    workload: &str,
    shape: &Shape,
    seed: u64,
    seconds: f64,
    traced: bool,
) -> Result<Outcome, String> {
    let configs: Vec<AtomConfig> = (0..shape.rounds)
        .map(|r| round_config(shape, seed, r))
        .collect();

    // Set-up, repeated: for prebuilt directories, `derive_setup` of every
    // round plus engine construction; for TCP, member spawn, bind and
    // connect up to the ready signal (the directories are derived inside
    // each round there).
    let mut setup_times = Vec::new();
    let mut setups: Vec<RoundSetup> = Vec::new();
    let mut deployment = None;
    for _ in 0..SETUP_REPS {
        if let Some(previous) = deployment.take() {
            Deployment::close(previous);
        }
        let start = Instant::now();
        if !shape.sharded {
            setups = configs
                .iter()
                .map(|c| derive_setup(c).map_err(|e| format!("derive setup: {e}")))
                .collect::<Result<_, _>>()?;
        }
        deployment = Some(deploy(shape, seed, workload)?);
        let _engine = Engine::new(engine_options(shape, 0));
        setup_times.push(start.elapsed().as_secs_f64());
    }
    let mut deployment = deployment.expect("deployed");

    // Client side, off the clock: the published directories (derived
    // locally for the sharded workload, as clients would read them) and
    // every submission.
    if shape.sharded {
        setups = configs
            .iter()
            .map(|c| derive_setup(c).map_err(|e| format!("derive setup: {e}")))
            .collect::<Result<_, _>>()?;
    }
    let plans: Vec<RoundPlan> = setups
        .iter()
        .enumerate()
        .map(|(r, setup)| plan_round(shape, seed, r, setup, traced))
        .collect();

    // Timed region: whole batches until the time is up. A traced run
    // alternates untraced and traced batches so the two can be compared.
    let net = NetStats::default();
    let mut batches = Vec::new();
    let start = Instant::now();
    let min_batches = if traced { 2 } else { 1 };
    loop {
        let index = batches.len();
        let batch_traced = traced && index % 2 == 1;
        batches.push(run_batch(
            shape,
            seed,
            &plans,
            &mut deployment,
            index,
            batch_traced,
            &net,
        )?);
        if start.elapsed().as_secs_f64() >= seconds && batches.len() >= min_batches {
            break;
        }
    }
    let mut rss = peak_rss_mb(std::process::id());
    if let Some(member) = &deployment.member {
        rss += peak_rss_mb(member.pid());
    }
    deployment.close();

    let attempted = batches.len() * shape.rounds * shape.per_round;
    let delivered: usize = batches.iter().map(|b| b.delivered).sum();
    let failed = attempted - delivered;
    let mut metrics = Metrics::default();
    let plain: Vec<&Batch> = batches.iter().filter(|b| !b.traced).collect();
    let traced_batches: Vec<&Batch> = batches.iter().filter(|b| b.traced).collect();
    let per_batch = |f: &dyn Fn(&Batch) -> f64| plain.iter().map(|b| f(b)).collect::<Vec<_>>();
    metrics.put(
        "msgs_per_s",
        "1/s",
        "batch",
        per_batch(&|b| b.delivered as f64 / b.wall.as_secs_f64()),
    );
    metrics.put(
        "cpu_ms_per_msg",
        "ms",
        "batch",
        per_batch(&|b| b.cpu * 1e3 / b.delivered.max(1) as f64),
    );
    metrics.put(
        "round_p50_ms",
        "ms",
        "round",
        plain
            .iter()
            .flat_map(|b| b.round_walls.iter().map(|d| ms(*d)))
            .collect(),
    );
    // Every submission of a batch is due at the batch start; it is
    // acknowledged when its round's output is returned. Tail percentiles
    // are taken within each batch and reported as the median over batches.
    let batch_latencies = |b: &Batch| -> Vec<f64> {
        b.completions
            .iter()
            .flat_map(|d| std::iter::repeat_n(ms(*d), shape.per_round))
            .collect()
    };
    metrics.put(
        "admit_p95_ms",
        "ms",
        "batch",
        per_batch(&|b| percentile(&batch_latencies(b), 0.95)),
    );
    metrics.put(
        "admit_p99_ms",
        "ms",
        "batch",
        per_batch(&|b| percentile(&batch_latencies(b), 0.99)),
    );
    metrics.put(
        "admit_p50_ms",
        "ms",
        "message",
        plain.iter().flat_map(|b| batch_latencies(b)).collect(),
    );
    metrics.put("setup_s", "s", "setup", setup_times);
    metrics.one("peak_rss_mb", "MiB", rss);
    metrics.one("ok_ratio", "ratio", delivered as f64 / attempted as f64);

    let cores = crate::cores() as f64;
    let busy: f64 = plain.iter().map(|b| b.cpu).sum();
    let wall: f64 = plain.iter().map(|b| b.wall.as_secs_f64()).sum();
    let mut notes = vec![
        ("batches".to_string(), batches.len().to_string()),
        ("rounds_per_batch".to_string(), shape.rounds.to_string()),
        (
            "submissions_per_round".to_string(),
            shape.per_round.to_string(),
        ),
    ];
    if traced {
        let tb = &traced_batches;
        let mut layer = Metrics::default();
        layer.one("fail_ratio", "ratio", failed as f64 / attempted as f64);
        layer.map.insert(
            "admit_p99_ms".to_string(),
            metrics.map["admit_p99_ms"].clone(),
        );
        layer.one("proc.cpu_util", "ratio", busy / (wall * cores));
        layer.put(
            "engine.setup_latency_ms",
            "ms",
            "round",
            tb.iter()
                .flat_map(|b| b.setup_latencies.iter().map(|d| ms(*d)))
                .collect(),
        );
        layer.put(
            "engine.intake_span_ms",
            "ms",
            "round",
            tb.iter()
                .flat_map(|b| b.intake_spans.iter().map(|d| ms(*d)))
                .collect(),
        );
        let tb_delivered: usize = tb.iter().map(|b| b.delivered).sum::<usize>().max(1);
        let envelopes: u64 = tb.iter().map(|b| b.mix_messages).sum();
        let bytes: u64 = tb.iter().map(|b| b.mix_bytes).sum();
        layer.one(
            "engine.mix_envelopes_per_msg",
            "count",
            envelopes as f64 / tb_delivered as f64,
        );
        layer.one(
            "engine.mix_bytes_per_msg",
            "B",
            bytes as f64 / tb_delivered as f64,
        );
        layers::net_metrics(&mut layer, &net);
        let untraced_rate = metrics.value("msgs_per_s");
        let traced_rate = median(
            &tb.iter()
                .map(|b| b.delivered as f64 / b.wall.as_secs_f64())
                .collect::<Vec<_>>(),
        );
        layer.one(
            "trace_overhead_pct",
            "%",
            100.0 * (untraced_rate / traced_rate - 1.0),
        );
        let frame = layers::median_mix_frame(&net);
        let layer_shape = LayerShape {
            setup: setups[0].clone(),
            batch: shape.per_round * ciphertexts_per_msg(shape.defense) / shape.groups,
            sample: &plans[0].source.subs,
            mix_frame: frame,
        };
        layers::measure(&mut layer, &layer_shape);
        layers::ladder_mixing(
            &mut layer,
            shape,
            metrics.value("cpu_ms_per_msg") * 1e3,
            ciphertexts_per_msg(shape.defense),
        );
        layers::zero_ingress(&mut layer);
        notes.push(("traced_batches".to_string(), tb.len().to_string()));
        return Ok(Outcome {
            attempted,
            failed,
            metrics: layer,
            notes,
        });
    }
    Ok(Outcome {
        attempted,
        failed,
        metrics,
        notes,
    })
}

/// Mixing ciphertexts per delivered message: a trap submission routes its
/// inner ciphertext and its trap.
pub fn ciphertexts_per_msg(defense: Defense) -> usize {
    match defense {
        Defense::Trap => 2,
        Defense::Nizk => 1,
    }
}
