//! `atom-node` — one process of a multi-process Atom deployment.
//!
//! Each invocation hosts a subset of the anytrust groups of a
//! deterministically derived workload (see `atom_bench::netbench`) and
//! talks to its peers over `TcpTransport`. Process 0 is the coordinator:
//! it runs the fleet's control plane (`atom_runtime::fleet`), verifies
//! submission intake, injects the iteration-0 batches, collects every
//! group's exit frame and reports the round outputs. Groups are assigned
//! round-robin over all processes (coordinator included).
//!
//! A two-process loopback run:
//!
//! ```text
//! cargo run --release -p atom-bench --bin atom-node -- \
//!     --index 1 --addrs 127.0.0.1:7401,127.0.0.1:7402 --groups 4 &
//! cargo run --release -p atom-bench --bin atom-node -- \
//!     --index 0 --addrs 127.0.0.1:7401,127.0.0.1:7402 --groups 4 \
//!     --out /tmp/atom_node_output.bin
//! ```
//!
//! Every process must receive the same `--addrs`, `--groups`, `--rounds`,
//! `--messages`, `--iterations`, `--seed`, `--sharded`, `--honest` and
//! `--batch`; the workload derivation is a pure function of those, which
//! is what makes the run coordination-free (the full operator guide,
//! including N-process and multi-machine invocations, is
//! `docs/operations.md`). With `--out`, the coordinator writes the
//! canonical serialization of the round outputs — the TCP equivalence
//! tests diff it byte-for-byte against an in-memory run of the same spec.
//!
//! Once its setup (bind, connect, job derivation) is done, every process
//! prints `atom-process-ready` on stdout — the readiness handshake
//! orchestrators (`netbench::ProcessFleet`) wait on. `--stall-timeout-ms`
//! bounds how long the engine waits with no progress before declaring a
//! silent peer dead.
//!
//! Every deployment *heals*: rounds run in batches of `--batch` (default:
//! all rounds in one batch), separated by a membership handshake, and a
//! vanished process is evicted — the survivors re-form its groups and keep
//! delivering — rather than fatal. A fault-free run is one handshake and
//! one pipelined engine run. `--honest` sets the per-group honest-member
//! assumption `h` (losses up to `h − 1` per group heal by Lagrange
//! reweighting, deeper ones via buddy escrow). A member restarted after a
//! crash passes `--rejoin`: it announces itself to the coordinator with a
//! catch-up handshake and is readmitted at the next healthy batch
//! boundary. A smaller `--batch` gives more such boundaries.
//!
//! With `--sharded`, round setup itself is distributed: each process runs
//! only the DKGs of the groups it hosts and ships the public keys to its
//! peers as `setup` frames, instead of every process re-deriving the full
//! directory before the engine starts. The coordinator reports the
//! measured per-round setup latency.
//!
//! With `--trace PATH` on **every** process, each one records `atom-obs`
//! spans and counters while it runs; members ship their snapshots to the
//! coordinator as `telemetry` wire frames at round end (their PATH is
//! ignored), and the coordinator writes the merged fleet trace to its PATH
//! as Chrome trace-event JSON — one Perfetto process track per OS process.
//! `--metrics-out PATH` (coordinator, with `--trace`) additionally writes
//! the merged counters. Recording never changes round outputs; see
//! `docs/observability.md` for the schemas.

use std::io::Write;
use std::time::Duration;

use atom_bench::netbench::{self, NetSpec};

struct Args {
    spec: NetSpec,
    addrs: Vec<String>,
    index: usize,
    workers: usize,
    out: Option<String>,
    /// Member only: announce as a restarted process (rejoin handshake)
    /// instead of expecting to be part of the fleet from round 0.
    rejoin: bool,
    /// Rounds per batch (the re-formation / readmission boundary spacing);
    /// defaults to every round in one batch.
    batch: Option<usize>,
    /// Coordinator: write the merged fleet Chrome trace here. Members pass
    /// the flag with any path to turn recording on (their snapshots travel
    /// to the coordinator as telemetry frames; the path is ignored).
    trace: Option<String>,
    /// Coordinator: write the merged counter snapshots as JSON here.
    metrics_out: Option<String>,
}

fn parse_args() -> Args {
    let mut args = Args {
        spec: NetSpec::default(),
        addrs: Vec::new(),
        index: 0,
        workers: 2,
        out: None,
        rejoin: false,
        batch: None,
        trace: None,
        metrics_out: None,
    };
    let mut iter = std::env::args().skip(1);
    while let Some(flag) = iter.next() {
        let mut grab = |name: &str| -> String {
            iter.next()
                .unwrap_or_else(|| panic!("{name} needs an argument"))
        };
        let num = |name: &str, value: String| -> u64 {
            value
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} needs a numeric argument"))
        };
        match flag.as_str() {
            "--index" => args.index = num("--index", grab("--index")) as usize,
            "--addrs" => {
                args.addrs = grab("--addrs")
                    .split(',')
                    .map(|addr| addr.trim().to_string())
                    .filter(|addr| !addr.is_empty())
                    .collect()
            }
            "--groups" => args.spec.groups = num("--groups", grab("--groups")) as usize,
            "--rounds" => args.spec.rounds = num("--rounds", grab("--rounds")) as usize,
            "--messages" => args.spec.messages = num("--messages", grab("--messages")) as usize,
            "--iterations" => {
                args.spec.iterations = num("--iterations", grab("--iterations")) as usize
            }
            "--seed" => args.spec.seed = num("--seed", grab("--seed")),
            "--delay-ms" => {
                args.spec.delay = Duration::from_millis(num("--delay-ms", grab("--delay-ms")))
            }
            "--workers" => args.workers = num("--workers", grab("--workers")) as usize,
            "--sharded" => args.spec.sharded = true,
            "--stall-timeout-ms" => {
                args.spec.stall_timeout =
                    Duration::from_millis(num("--stall-timeout-ms", grab("--stall-timeout-ms")))
            }
            "--honest" => args.spec.honest = num("--honest", grab("--honest")) as usize,
            "--rejoin" => args.rejoin = true,
            "--batch" => args.batch = Some(num("--batch", grab("--batch")) as usize),
            "--out" => args.out = Some(grab("--out")),
            "--trace" => args.trace = Some(grab("--trace")),
            "--metrics-out" => args.metrics_out = Some(grab("--metrics-out")),
            other => panic!("unknown flag {other}"),
        }
    }
    args.spec.trace = args.trace.is_some();
    assert!(
        args.addrs.len() >= 2,
        "--addrs needs at least coordinator + one member (got {})",
        args.addrs.len()
    );
    assert!(
        args.index < args.addrs.len(),
        "--index {} out of range for {} addresses",
        args.index,
        args.addrs.len()
    );
    assert!(
        args.trace.is_some() || args.metrics_out.is_none(),
        "--metrics-out needs --trace (recording is off otherwise)"
    );
    args
}

/// Prints the readiness line an orchestrator (`netbench::ProcessFleet`)
/// waits for: setup is done and this engine is about to run.
fn signal_ready() {
    println!("{}", netbench::READY_LINE);
    std::io::stdout().flush().expect("flush readiness signal");
}

fn fail(role: &str, error: String) -> ! {
    eprintln!("atom-node {role}: {error}");
    std::process::exit(1);
}

/// Process 0: runs the fleet to completion and reports the outputs. Exits
/// non-zero on an unrecoverable failure.
fn run_coordinator(args: &Args, batch: usize) {
    let spec = &args.spec;
    let coordinator = netbench::connect_coordinator(spec, batch, args.addrs.clone())
        .unwrap_or_else(|error| fail("coordinator", error));
    signal_ready();
    let outcome = coordinator
        .run(netbench::engine_options(spec, args.workers, 0))
        .unwrap_or_else(|error| fail("coordinator", format!("recovery failed: {error}")));
    let reports = &outcome.reports;
    let delivered: usize = reports.iter().map(|r| r.output.plaintexts.len()).sum();
    assert_eq!(
        delivered,
        spec.rounds * spec.messages,
        "no message may be lost"
    );
    let wall = outcome.wall;
    let rate = delivered as f64 / wall.as_secs_f64();
    println!(
        "atom-node coordinator: {} processes, {} groups, {} rounds x {} messages \
         -> {delivered} delivered in {wall:.2?} ({rate:.1} msgs/sec); {} epoch(s), \
         {} eviction(s), {} rejoin(s)",
        args.addrs.len(),
        spec.groups,
        spec.rounds,
        spec.messages,
        outcome.epochs,
        outcome.evictions.len(),
        outcome.rejoins.len(),
    );
    if let Some(latency) = outcome.healed_latency {
        println!("atom-node coordinator: detection -> first healed round in {latency:.2?}");
    }
    if spec.sharded {
        let setup_max = reports
            .iter()
            .map(|r| r.setup_latency)
            .max()
            .unwrap_or_default();
        println!(
            "atom-node coordinator: sharded directory — max per-round setup latency \
             {setup_max:.2?} (overlapped across rounds, not additive)"
        );
    }
    if let Some(path) = &args.out {
        std::fs::write(path, netbench::serialize_reports(reports)).expect("write round outputs");
        println!("atom-node coordinator: outputs written to {path}");
    }
    if let Some(path) = &args.trace {
        let telemetry: Vec<atom_obs::Snapshot> = reports
            .iter()
            .flat_map(|report| report.telemetry.iter().cloned())
            .collect();
        std::fs::write(path, atom_obs::chrome_trace_json(&telemetry))
            .expect("write fleet trace JSON");
        println!(
            "atom-node coordinator: fleet trace written to {path} ({} snapshots)",
            telemetry.len()
        );
        print!("{}", atom_obs::text_summary(&telemetry));
        if let Some(metrics_path) = &args.metrics_out {
            std::fs::write(metrics_path, atom_obs::metrics_json(&telemetry))
                .expect("write metrics JSON");
            println!("atom-node coordinator: metrics written to {metrics_path}");
        }
    }
}

/// Process `index > 0`: follows the coordinator's plans until its done
/// sentinel. Member-side round failures during churn are expected and do
/// not fail the process (the coordinator owns the diagnosis).
fn run_member(args: &Args, batch: usize) {
    let role = format!("member {}", args.index);
    let spec = &args.spec;
    let member = netbench::connect_member(spec, batch, args.addrs.clone(), args.index, args.rejoin)
        .unwrap_or_else(|error| fail(&role, error));
    signal_ready();
    member
        .run(netbench::engine_options(spec, args.workers, args.index))
        .unwrap_or_else(|error| fail(&role, error));
    println!("atom-node {role}: left the deployment cleanly");
}

fn main() {
    let args = parse_args();
    let batch = args.batch.unwrap_or(args.spec.rounds).max(1);
    if args.index == 0 {
        run_coordinator(&args, batch);
    } else {
        run_member(&args, batch);
    }
}
