//! Sustained-throughput benchmark of the parallel runtime.
//!
//! Runs an 8-group trap-variant deployment at 1/2/4/8 worker threads and
//! reports sustained messages/sec plus the speedup over the single-worker
//! configuration. Two compute models:
//!
//! * **Emulated server compute** (default): every group charges a fixed
//!   per-iteration compute delay, standing in for the per-group hardware of
//!   a real deployment (in the paper each group runs on its own machines).
//!   Engine scheduling, pipelining and message passing are measured for
//!   real; group compute overlaps across workers exactly as it would across
//!   machines, so the scaling shape is visible even on a single-core host.
//! * **`--real`**: no emulation — raw curve arithmetic on the host. The
//!   scaling then tracks the machine's physical core count.
//!
//! Two transports:
//!
//! * **`--transport mem`** (default): every group in this process over
//!   `InMemoryNetwork`.
//! * **`--transport tcp`**: the same deployment split across **OS processes
//!   on loopback** (coordinator + a [`netbench::ProcessFleet`] of members,
//!   groups round-robin; each member is this binary re-executed with the
//!   internal `--tcp-member` flag), exchanging frames through
//!   `TcpTransport`. Defaults to 2 processes.
//!
//! With `--sharded`, round setup runs *inside* the engine as a distributed
//! phase — each process derives only the DKGs of the groups it hosts (see
//! `atom_runtime::RoundDirectory::Sharded`) — and the sweep reports a
//! per-round setup-latency column next to the throughput numbers.
//!
//! **`--processes 1,2,3,4`** switches to the horizontal-scaling sweep: for
//! every (processes, workers-per-process) cell it runs the TCP deployment
//! twice — prebuilt directory and `--sharded` — and reports msgs/sec for
//! both plus the sharded run's setup latency. With `--out PATH` the sweep
//! is recorded as `BENCH_scale.json` (schema: `docs/benchmarks.md`), which
//! the `fig_scale` bin renders as the throughput-vs-processes curve.
//!
//! Without `--processes`, `--out PATH` keeps its historical meaning: run
//! both transports at 1/2/4 workers under thread parity and write
//! `BENCH_net.json` recording in-memory vs. TCP-loopback msgs/sec — the
//! transport's overhead, kept on record next to `BENCH_crypto.json`.
//!
//! **`--trace PATH`** enables `atom-obs` recording fleet-wide: every
//! process records spans and counters, members ship them to the
//! coordinator in telemetry frames at round end, and the merged fleet
//! trace is written to PATH as Chrome trace-event JSON (load it in
//! Perfetto / `chrome://tracing`, or render it with the `fig_trace` bin).
//! A human-readable span summary prints alongside, and `--metrics-out
//! PATH` additionally writes the merged counter snapshots as JSON.
//! Recording is observational: round outputs are byte-identical with and
//! without it (CI asserts this).
//!
//! Usage: `cargo run --release -p atom-bench --bin throughput --
//! [--real] [--rounds N] [--messages M] [--delay-ms D] [--transport mem|tcp]
//! [--processes 1,2,..] [--sharded] [--stall-timeout-ms S] [--out PATH]
//! [--trace PATH] [--metrics-out PATH]`

use std::process::Command;
use std::time::{Duration, Instant};

use atom_bench::netbench::{self, NetSpec, ProcessFleet};
use atom_bench::scale::{ScaleBaseline, ScaleCell};
use atom_runtime::{Engine, RoundReport};

const GROUPS: usize = 8;
const ITERATIONS: usize = 3;
const WORKER_SWEEP: [usize; 4] = [1, 2, 4, 8];
const JSON_SWEEP: [usize; 3] = [1, 2, 4];
/// How long to wait for fleet readiness / teardown before declaring a
/// member lost. Generous: members compile nothing, but CI machines crawl.
const FLEET_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Clone, Copy, PartialEq, Eq)]
enum TransportKind {
    Mem,
    Tcp,
}

struct Args {
    real: bool,
    rounds: usize,
    messages: usize,
    delay: Duration,
    transport: TransportKind,
    sharded: bool,
    stall_timeout: Duration,
    /// Process counts of the horizontal-scaling sweep (empty = no sweep).
    processes: Vec<usize>,
    out: Option<String>,
    /// Write the merged fleet Chrome trace (trace-event JSON) here and
    /// enable span/counter recording in every process of the deployment.
    trace: Option<String>,
    /// Write the merged counter snapshots as JSON here (requires tracing).
    metrics_out: Option<String>,
    /// Internal (member mode): recording is on fleet-wide, but this process
    /// only ships its snapshots to the coordinator and writes no files.
    traced: bool,
    /// Internal: run as a member process of a TCP sweep.
    member: Option<MemberArgs>,
}

struct MemberArgs {
    index: usize,
    addrs: Vec<String>,
    workers: usize,
    seed: u64,
}

fn parse_args() -> Args {
    // 64 messages/round keeps submission-proof verification (the part the
    // batched crypto engine and chunked intake accelerate) on the measured
    // path instead of hiding it under the emulated compute delay.
    let mut args = Args {
        real: false,
        rounds: 2,
        messages: 64,
        delay: Duration::from_millis(10),
        transport: TransportKind::Mem,
        sharded: false,
        stall_timeout: Duration::from_secs(120),
        processes: Vec::new(),
        out: None,
        trace: None,
        metrics_out: None,
        traced: false,
        member: None,
    };
    let mut member = MemberArgs {
        index: 0,
        addrs: Vec::new(),
        workers: 1,
        seed: 0xBE_AC0,
    };
    let mut is_member = false;
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut grab_str = |name: &str| -> String {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs an argument"))
        };
        let grab = |name: &str, value: String| -> u64 {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--real" => args.real = true,
            "--rounds" => args.rounds = grab("--rounds", grab_str("--rounds")) as usize,
            "--messages" => args.messages = grab("--messages", grab_str("--messages")) as usize,
            "--delay-ms" => {
                args.delay = Duration::from_millis(grab("--delay-ms", grab_str("--delay-ms")))
            }
            "--transport" => {
                args.transport = match grab_str("--transport").as_str() {
                    "mem" => TransportKind::Mem,
                    "tcp" => TransportKind::Tcp,
                    other => panic!("unknown transport {other} (expected mem or tcp)"),
                }
            }
            "--processes" => {
                args.processes = grab_str("--processes")
                    .split(',')
                    .map(|count| {
                        count
                            .trim()
                            .parse::<usize>()
                            .unwrap_or_else(|_| panic!("--processes wants counts, got {count}"))
                    })
                    .collect();
                assert!(
                    args.processes.iter().all(|&count| count >= 1),
                    "--processes counts must be >= 1"
                );
            }
            "--sharded" => args.sharded = true,
            "--stall-timeout-ms" => {
                args.stall_timeout = Duration::from_millis(grab(
                    "--stall-timeout-ms",
                    grab_str("--stall-timeout-ms"),
                ))
            }
            "--out" => args.out = Some(grab_str("--out")),
            "--trace" => args.trace = Some(grab_str("--trace")),
            "--metrics-out" => args.metrics_out = Some(grab_str("--metrics-out")),
            "--traced" => args.traced = true,
            "--tcp-member" => is_member = true,
            "--index" => member.index = grab("--index", grab_str("--index")) as usize,
            "--addrs" => {
                member.addrs = grab_str("--addrs").split(',').map(str::to_string).collect()
            }
            "--workers" => member.workers = grab("--workers", grab_str("--workers")) as usize,
            "--seed" => member.seed = grab("--seed", grab_str("--seed")),
            other => panic!("unknown flag {other}"),
        }
    }
    if is_member {
        args.member = Some(member);
    }
    args
}

fn spec(args: &Args, seed: u64) -> NetSpec {
    NetSpec {
        groups: GROUPS,
        rounds: args.rounds,
        messages: args.messages,
        iterations: ITERATIONS,
        seed,
        delay: if args.real {
            Duration::ZERO
        } else {
            args.delay
        },
        sharded: args.sharded,
        stall_timeout: args.stall_timeout,
        trace: args.trace.is_some() || args.traced,
        honest: 1,
        ..NetSpec::default()
    }
}

/// One in-memory run; returns (wall, delivered, max per-round setup
/// latency). Under `NetSpec::sharded` the jobs derive their directory
/// inside the engine (single-process sharding: every group is hosted
/// here), so the setup column measures the same code path the TCP mode
/// distributes.
fn run_memory(spec: &NetSpec, workers: usize) -> (Duration, usize, Duration, Vec<RoundReport>) {
    if spec.trace {
        // The harness process persists across sweep cells while round
        // numbers repeat, so each traced run starts from a clean recorder.
        atom_obs::reset();
        atom_obs::set_process(0);
        atom_obs::set_enabled(true);
    }
    let jobs = (0..spec.rounds)
        .map(|round| netbench::round_job(spec, round, &[], &[], true))
        .collect();
    let engine = Engine::new(netbench::engine_options(spec, workers, 0));
    let start = Instant::now();
    let reports = engine.run_rounds(jobs);
    let wall = start.elapsed();
    let reports: Vec<_> = reports.into_iter().map(|r| r.expect("round")).collect();
    let delivered: usize = reports.iter().map(|r| r.output.plaintexts.len()).sum();
    let setup = reports
        .iter()
        .map(|r| r.setup_latency)
        .max()
        .unwrap_or_default();
    (wall, delivered, setup, reports)
}

/// The command line of the `--tcp-member` child hosting process `index`.
fn member_command(spec: &NetSpec, addrs: &[String], index: usize, workers: usize) -> Command {
    let mut command = Command::new(std::env::current_exe().expect("own binary path"));
    command
        .arg("--tcp-member")
        .arg("--index")
        .arg(index.to_string())
        .arg("--addrs")
        .arg(addrs.join(","))
        .arg("--workers")
        .arg(workers.to_string())
        .arg("--seed")
        .arg(spec.seed.to_string())
        .arg("--rounds")
        .arg(spec.rounds.to_string())
        .arg("--messages")
        .arg(spec.messages.to_string())
        .arg("--delay-ms")
        .arg(spec.delay.as_millis().to_string())
        .arg("--stall-timeout-ms")
        .arg(spec.stall_timeout.as_millis().to_string());
    if spec.sharded {
        command.arg("--sharded");
    }
    if spec.trace {
        command.arg("--traced");
    }
    command
}

/// One TCP-loopback run split across `processes` OS processes: this
/// process coordinates, a [`ProcessFleet`] of freshly spawned children
/// hosts the rest of the groups (with `processes == 1`, nobody else).
/// Every round runs in one fleet batch. Returns (wall, delivered, max
/// setup latency). The timed region covers the fleet's single plan/ack/go
/// handshake and the engine run — job derivation, binds and the connect
/// retry loop happen before the clock starts on every side (each member
/// signals readiness over its stdout) — mirroring `run_memory`, which also
/// derives jobs untimed. What remains in the TCP column is the genuine
/// transport cost: frame encode/decode, socket hops, the process split.
///
/// A member that dies fails the run loudly — the fleet reports what it
/// could not recover from, and the [`ProcessFleet`] kills and reaps every
/// child on all exit paths — never a hang, never an orphan.
fn run_tcp(
    spec: &NetSpec,
    processes: usize,
    workers: usize,
) -> (Duration, usize, Duration, Vec<RoundReport>) {
    assert!(processes >= 1, "at least the coordinator process");
    if spec.trace {
        // Members are fresh processes, but this coordinator process runs
        // every cell of a sweep with repeating round numbers: reset so the
        // merged trace of each run covers only that run.
        atom_obs::reset();
    }
    let addrs = netbench::free_addrs(processes);
    let commands = (1..processes)
        .map(|index| member_command(spec, &addrs, index, workers))
        .collect();
    let mut fleet = ProcessFleet::spawn(commands);
    // Coordinator setup overlaps the members'; member listeners may come up
    // after this bind, but connecting retries, so start order does not
    // matter.
    let coordinator = netbench::connect_coordinator(spec, spec.rounds.max(1), addrs)
        .unwrap_or_else(|error| panic!("coordinator setup: {error}"));
    fleet
        .await_ready(FLEET_TIMEOUT)
        .unwrap_or_else(|error| panic!("fleet readiness: {error}"));
    let start = Instant::now();
    let outcome = coordinator.run(netbench::engine_options(spec, workers, 0));
    let wall = start.elapsed();
    let reports = match outcome {
        Ok(outcome) => outcome.reports,
        Err(error) => {
            fleet.kill_all();
            panic!("tcp run failed: {error}");
        }
    };
    let delivered: usize = reports.iter().map(|r| r.output.plaintexts.len()).sum();
    let setup = reports
        .iter()
        .map(|r| r.setup_latency)
        .max()
        .unwrap_or_default();
    fleet
        .finish(FLEET_TIMEOUT)
        .unwrap_or_else(|error| panic!("fleet teardown: {error}"));
    (wall, delivered, setup, reports)
}

/// Appends every per-round fleet snapshot of `reports` to `sink` — the
/// accumulator behind `--trace` / `--metrics-out`.
fn collect_telemetry(reports: &[RoundReport], sink: &mut Vec<atom_obs::Snapshot>) {
    for report in reports {
        sink.extend(report.telemetry.iter().cloned());
    }
}

fn print_sweep(args: &Args, telemetry: &mut Vec<atom_obs::Snapshot>) {
    let spec = spec(args, 0xBE_AC0);
    let total_messages = args.rounds * args.messages;
    println!(
        "throughput: {GROUPS}-group trap deployment, {} rounds x {} messages, {}, {} transport",
        args.rounds,
        args.messages,
        if args.real {
            "real host compute".to_string()
        } else {
            format!("emulated {:?}/iteration group compute", args.delay)
        },
        match args.transport {
            TransportKind::Mem => "in-memory".to_string(),
            TransportKind::Tcp => "tcp-loopback (2 processes)".to_string(),
        }
    );
    println!(
        "{:>8} {:>10} {:>12} {:>9} {:>11}",
        "workers", "wall", "msgs/sec", "speedup", "setup"
    );

    let mut baseline: Option<f64> = None;
    for workers in WORKER_SWEEP {
        let (wall, delivered, setup, reports) = match args.transport {
            TransportKind::Mem => run_memory(&spec, workers),
            TransportKind::Tcp => run_tcp(&spec, 2, workers),
        };
        collect_telemetry(&reports, telemetry);
        assert_eq!(delivered, total_messages, "no message may be lost");
        let rate = delivered as f64 / wall.as_secs_f64();
        let speedup = rate / *baseline.get_or_insert(rate);
        println!(
            "{workers:>8} {:>10.2?} {rate:>12.1} {speedup:>8.2}x {:>11.2?}",
            wall, setup
        );
    }
}

/// The horizontal-scaling sweep: every process count of `--processes`
/// crossed with 1/2/4 workers per process, each cell measured over TCP
/// loopback twice — prebuilt directory and `--sharded` — so the recorded
/// baseline carries both curves plus the sharded setup latency. This is
/// the measured form of the paper's throughput-vs-servers figure; real
/// multi-machine numbers are the same engine with `--addrs` pointed at
/// real NICs (see `docs/operations.md`).
fn run_scale_sweep(args: &Args, telemetry: &mut Vec<atom_obs::Snapshot>) -> ScaleBaseline {
    let total_messages = args.rounds * args.messages;
    println!(
        "scale sweep: {GROUPS}-group trap deployment, {} rounds x {} messages, \
         processes {:?} x workers {JSON_SWEEP:?}",
        args.rounds, args.messages, args.processes
    );
    println!(
        "{:>10} {:>9} {:>12} {:>14} {:>10}",
        "processes", "workers", "msgs/sec", "sharded msgs/s", "setup"
    );
    let mut cells = Vec::new();
    for &processes in &args.processes {
        for workers in JSON_SWEEP {
            let mut normal = spec(args, 0xBE_AC0);
            normal.sharded = false;
            let (wall, delivered, _, reports) = run_tcp(&normal, processes, workers);
            assert_eq!(delivered, total_messages, "no message may be lost");
            let rate = delivered as f64 / wall.as_secs_f64();
            collect_telemetry(&reports, telemetry);

            let mut sharded = spec(args, 0xBE_AC0);
            sharded.sharded = true;
            let (sharded_wall, sharded_delivered, setup, sharded_reports) =
                run_tcp(&sharded, processes, workers);
            assert_eq!(sharded_delivered, total_messages, "no message may be lost");
            let sharded_rate = sharded_delivered as f64 / sharded_wall.as_secs_f64();
            collect_telemetry(&sharded_reports, telemetry);

            // Per-phase medians come from both instrumented runs of this
            // cell — the sharded one is the only one that records `setup`
            // spans (all zeros when the sweep runs untraced).
            let cell_snaps: Vec<atom_obs::Snapshot> = reports
                .iter()
                .chain(sharded_reports.iter())
                .flat_map(|report| report.telemetry.iter().cloned())
                .collect();

            let setup_ms = setup.as_secs_f64() * 1e3;
            println!(
                "{processes:>10} {workers:>9} {rate:>12.1} {sharded_rate:>14.1} {setup_ms:>7.1} ms"
            );
            cells.push(ScaleCell {
                processes,
                workers_per_process: workers,
                msgs_per_sec: rate,
                sharded_msgs_per_sec: sharded_rate,
                setup_ms,
                setup_p50_ms: atom_obs::phase_median_ms(&cell_snaps, "setup"),
                intake_p50_ms: atom_obs::phase_median_ms(&cell_snaps, "intake"),
                mix_p50_ms: atom_obs::phase_median_ms(&cell_snaps, "mix"),
                verify_p50_ms: atom_obs::phase_median_ms(&cell_snaps, "verify"),
            });
        }
    }
    ScaleBaseline {
        groups: GROUPS,
        rounds: args.rounds,
        messages: args.messages,
        iterations: ITERATIONS,
        delay_ms: if args.real {
            0
        } else {
            args.delay.as_millis() as u64
        },
        cells,
    }
}

/// Runs both transports at 1/2/4 workers-per-process and writes
/// `BENCH_net.json`. Thread parity: the TCP run spreads the deployment
/// over 2 processes of `workers` engine threads each, so the in-memory
/// run gets the combined `2 * workers` threads — both sides spend the
/// same compute, and the recorded gap is the transport's genuine cost
/// (frame encode/decode, socket hops, the process split).
fn write_net_baseline(args: &Args, path: &str, telemetry: &mut Vec<atom_obs::Snapshot>) {
    let spec = spec(args, 0xBE_AC0);
    let total_messages = args.rounds * args.messages;
    let mut rows = Vec::new();
    println!(
        "net baseline: {GROUPS}-group trap deployment, {} rounds x {} messages",
        args.rounds, args.messages
    );
    println!(
        "{:>8} {:>14} {:>14} {:>10}",
        "workers", "mem msgs/s", "tcp msgs/s", "overhead"
    );
    for workers in JSON_SWEEP {
        let (mem_wall, mem_delivered, _, mem_reports) = run_memory(&spec, 2 * workers);
        collect_telemetry(&mem_reports, telemetry);
        let (tcp_wall, tcp_delivered, tcp_setup, tcp_reports) = run_tcp(&spec, 2, workers);
        collect_telemetry(&tcp_reports, telemetry);
        assert_eq!(mem_delivered, total_messages);
        assert_eq!(tcp_delivered, total_messages);
        let mem_rate = mem_delivered as f64 / mem_wall.as_secs_f64();
        let tcp_rate = tcp_delivered as f64 / tcp_wall.as_secs_f64();
        let overhead = (mem_rate / tcp_rate - 1.0) * 100.0;
        let setup_ms = tcp_setup.as_secs_f64() * 1e3;
        println!("{workers:>8} {mem_rate:>14.1} {tcp_rate:>14.1} {overhead:>9.1}%");
        rows.push(format!(
            "    {{\"workers_per_process\": {workers}, \"in_memory_msgs_per_sec\": {mem_rate:.1}, \
             \"tcp_msgs_per_sec\": {tcp_rate:.1}, \"tcp_overhead_pct\": {overhead:.1}, \
             \"tcp_setup_ms\": {setup_ms:.1}}}"
        ));
    }
    let json = format!(
        "{{\n  \"groups\": {GROUPS},\n  \"rounds\": {},\n  \"messages\": {},\n  \
         \"iterations\": {ITERATIONS},\n  \"delay_ms\": {},\n  \"tcp_processes\": 2,\n  \
         \"sharded_setup\": {},\n  \
         \"thread_parity\": \"in-memory runs 2x workers_per_process\",\n  \
         \"sweep\": [\n{}\n  ]\n}}\n",
        args.rounds,
        args.messages,
        spec.delay.as_millis(),
        args.sharded,
        rows.join(",\n")
    );
    std::fs::write(path, &json).expect("write BENCH_net.json");
    println!("wrote {path}");
}

/// Writes the `--trace` / `--metrics-out` artifacts from the accumulated
/// fleet snapshots and prints the human span summary.
fn write_telemetry(args: &Args, telemetry: &[atom_obs::Snapshot]) {
    if let Some(path) = &args.trace {
        std::fs::write(path, atom_obs::chrome_trace_json(telemetry))
            .expect("write fleet trace JSON");
        println!("wrote {path} ({} snapshots)", telemetry.len());
        print!("{}", atom_obs::text_summary(telemetry));
    }
    if let Some(path) = &args.metrics_out {
        assert!(
            args.trace.is_some(),
            "--metrics-out needs --trace (recording is off otherwise)"
        );
        std::fs::write(path, atom_obs::metrics_json(telemetry)).expect("write metrics JSON");
        println!("wrote {path}");
    }
}

fn main() {
    let args = parse_args();
    if let Some(member) = &args.member {
        // Internal mode: one member process of a TCP sweep. Setup runs
        // before the readiness signal so the parent's timed region starts
        // with both engines ready.
        let spec = spec(&args, member.seed);
        let process = netbench::connect_member(
            &spec,
            spec.rounds.max(1),
            member.addrs.clone(),
            member.index,
            false,
        )
        .unwrap_or_else(|error| panic!("member setup: {error}"));
        println!("{}", netbench::READY_LINE);
        use std::io::Write;
        std::io::stdout().flush().expect("flush readiness signal");
        process
            .run(netbench::engine_options(
                &spec,
                member.workers,
                member.index,
            ))
            .unwrap_or_else(|error| panic!("member run: {error}"));
        return;
    }
    let mut telemetry: Vec<atom_obs::Snapshot> = Vec::new();
    if !args.processes.is_empty() {
        assert!(
            args.transport == TransportKind::Tcp,
            "--processes sweeps OS processes; add --transport tcp"
        );
        let baseline = run_scale_sweep(&args, &mut telemetry);
        if let Some(path) = &args.out {
            std::fs::write(path, baseline.to_json()).expect("write BENCH_scale.json");
            println!("wrote {path}");
        }
        write_telemetry(&args, &telemetry);
        return;
    }
    match &args.out {
        Some(path) => write_net_baseline(&args, path, &mut telemetry),
        None => print_sweep(&args, &mut telemetry),
    }
    write_telemetry(&args, &telemetry);
}
