//! Workload derivation and process orchestration for multi-process (TCP
//! transport) runs.
//!
//! A multi-process run has no shared memory, so every process derives the
//! *same* rounds — setups, submissions, seeds — from a [`NetSpec`] it was
//! handed on the command line. [`round_job`] is that derivation, a pure
//! function of the spec, the round and the membership the fleet agreed on;
//! it is the [`JobBuilder`](atom_runtime::fleet::JobBuilder) this module
//! hands to the control plane in [`atom_runtime::fleet`], which runs every
//! multi-process deployment, faulty or not. This module also owns a
//! canonical byte serialization of round outputs, which the TCP
//! equivalence tests compare against the in-memory [`build_reference`] —
//! byte-for-byte, not just set-equal — and [`ProcessFleet`], which spawns
//! and reaps the member processes of a local deployment.

use std::io::{BufRead, BufReader};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::SeedableRng;

use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::{derive_setup, RoundSetup};
use atom_core::message::{make_trap_submission, TrapSubmission};
use atom_runtime::fleet::{self, FleetShape, JobBuilder};
use atom_runtime::{Engine, EngineOptions, RoundJob, RoundReport, RoundSubmissions};

/// Everything a process needs to derive a multi-process workload
/// deterministically.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct NetSpec {
    /// Anytrust groups in the deployment.
    pub groups: usize,
    /// Rounds of the run.
    pub rounds: usize,
    /// Submissions per round.
    pub messages: usize,
    /// Mixing iterations.
    pub iterations: usize,
    /// Deterministic seed for setup, submissions and mixing.
    pub seed: u64,
    /// Per-iteration emulated group compute (zero = real compute only);
    /// stands in for each group's own hardware, as in the throughput bin.
    pub delay: Duration,
    /// Sharded directory mode: each engine process derives only the DKGs of
    /// its hosted groups inside the run (`RoundJob::sharded`) instead of
    /// every process re-deriving the full directory up front. Members skip
    /// submission generation entirely; the coordinator still derives the
    /// full directory *outside* the engine to play the users (submissions
    /// must encrypt to the entry groups' keys), mirroring a real
    /// deployment where clients read the published directory.
    pub sharded: bool,
    /// Engine stall detector (`EngineOptions::stall_timeout`): how long a
    /// process waits with no task progress before failing its unresolved
    /// rounds — the budget for declaring a silent peer dead. Operational,
    /// not part of the workload derivation, but carried here so every
    /// process of a deployment agrees on it like on every other knob.
    pub stall_timeout: Duration,
    /// Enables `atom-obs` span/counter recording in every process of the
    /// deployment. Members then ship telemetry frames to the coordinator at
    /// round end, so it must be on fleet-wide or not at all — which is why
    /// it lives in the spec rather than in a per-process flag. Recording is
    /// observational only: round outputs are byte-identical either way.
    pub trace: bool,
    /// Coordinator round clock (`EngineOptions::round_deadline`; zero =
    /// disabled): the wall-clock budget a round gets before the coordinator
    /// fails it even though progress keeps trickling in. The slow-loris
    /// countermeasure — a peer dripping one frame per stall window resets
    /// the stall detector forever, but cannot stop the round clock. Armed
    /// on the coordinator only: it owns the diagnosis, and a member that
    /// also deadlined would race its `abort` against the coordinator's
    /// verdict and turn a `Slow` conviction into a `Blamed` one.
    pub round_deadline: Duration,
    /// Slow-loris drip (zero = none): member process 1 delays each mixing
    /// iteration of its hosted groups by this, while everyone else runs at
    /// full speed. Combined with `round_deadline` this is the chaos-drill
    /// knob: the drip defeats the stall detector, the round clock catches
    /// it anyway.
    pub loris: Duration,
    /// Honest members assumed per group (`h`): the DKG threshold becomes
    /// `k − (h − 1)`, so `h − 1` member losses per group heal by Lagrange
    /// reweighting alone and only deeper losses need the buddy escrow. The
    /// default (1) keeps the historical all-shares threshold; the recovery
    /// harness runs with 2 so evictions exercise both healing paths.
    pub honest: usize,
}

impl Default for NetSpec {
    fn default() -> Self {
        Self {
            groups: 4,
            rounds: 2,
            messages: 16,
            iterations: 2,
            seed: 0xA70,
            delay: Duration::ZERO,
            sharded: false,
            stall_timeout: Duration::from_secs(120),
            round_deadline: Duration::ZERO,
            loris: Duration::ZERO,
            trace: false,
            honest: 1,
        }
    }
}

/// The deployment configuration of round `round` under `spec`.
fn round_config(spec: &NetSpec, round: usize) -> AtomConfig {
    let mut config = AtomConfig::test_default();
    config.defense = Defense::Trap;
    config.num_groups = spec.groups;
    config.num_servers = (spec.groups * 3).max(config.group_size);
    config.required_honest = spec.honest;
    config.iterations = spec.iterations;
    config.message_len = 32;
    config.round = round as u64;
    config.beacon_seed = spec.seed ^ round as u64;
    config
}

/// The spec's submissions for one round, encrypted to the given directory,
/// from a stream keyed on `(seed, round)` alone — so any single round can
/// be re-derived in isolation. They encrypt to the entry groups' DKG keys,
/// which derive from the beacon and not from membership, so the same
/// submission bytes stay valid under any eviction.
fn round_submissions(spec: &NetSpec, round: usize, setup: &RoundSetup) -> Vec<TrapSubmission> {
    let mut rng = StdRng::seed_from_u64(
        spec.seed ^ (round as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0x4845_414C,
    );
    (0..spec.messages)
        .map(|i| {
            let gid = i % spec.groups;
            make_trap_submission(
                gid,
                &setup.groups[gid].public_key,
                &setup.trustees.public_key,
                setup.config.round,
                format!("net r{round} m{i}").as_bytes(),
                setup.config.message_len,
                &mut rng,
            )
            .expect("derive submission")
            .0
        })
        .collect()
}

/// Round `round` of the spec: a trap-variant deployment with fixed-length
/// messages whose directory excludes the `evicted` servers and heals around
/// the mid-flight `failed` ones — identical in every process for equal
/// arguments. Under [`NetSpec::sharded`] the directory is derived inside
/// the engine run, and a process that needs no submissions (a member)
/// derives nothing up front; otherwise the directory is prebuilt. Only
/// `with_submissions` callers (the coordinator, the in-memory reference)
/// get the round's submissions.
pub fn round_job(
    spec: &NetSpec,
    round: usize,
    evicted: &[usize],
    failed: &[usize],
    with_submissions: bool,
) -> RoundJob {
    let mut config = round_config(spec, round);
    config.evicted_servers = evicted.to_vec();
    let seed = spec.seed.wrapping_add(round as u64);
    let setup = (with_submissions || !spec.sharded)
        .then(|| derive_setup(&config).expect("derive round directory"));
    let submissions = match (&setup, with_submissions) {
        (Some(setup), true) => round_submissions(spec, round, setup),
        _ => Vec::new(),
    };
    let submissions = RoundSubmissions::Trap(submissions);
    let mut job = match setup {
        Some(setup) if !spec.sharded => RoundJob::new(setup, submissions, seed),
        _ => RoundJob::sharded(config, submissions, seed),
    };
    job.failed_servers = failed.to_vec();
    job
}

/// The in-memory reference for a fleet run: every round rebuilt with the
/// membership (`round_evicted`) and mid-flight failure set (`round_failed`)
/// the fleet settled on, with a prebuilt directory, run on one in-process
/// engine. A round missing from either slice ran with the full membership,
/// so a fault-free run's reference is `build_reference(spec, &[], &[])`.
/// `serialize_reports` of this must equal the fleet's — sharded or not,
/// healed or not: recovery is re-derivation, not improvisation.
pub fn build_reference(
    spec: &NetSpec,
    round_evicted: &[Vec<usize>],
    round_failed: &[Vec<usize>],
) -> Vec<RoundReport> {
    let prebuilt = NetSpec {
        sharded: false,
        ..spec.clone()
    };
    let none = Vec::new();
    let jobs: Vec<RoundJob> = (0..spec.rounds)
        .map(|round| {
            let evicted = round_evicted.get(round).unwrap_or(&none);
            let failed = round_failed.get(round).unwrap_or(&none);
            round_job(&prebuilt, round, evicted, failed, true)
        })
        .collect();
    Engine::with_workers(2)
        .run_rounds(jobs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
        .expect("in-memory reference run")
}

/// Canonical bytes of the deterministic fields of round outputs
/// (`plaintexts`, `per_group`, `routed_ciphertexts`). Two runs of the same
/// spec — whatever the transport, worker count or process layout — must
/// serialize identically; timings and traffic are excluded because wall
/// clocks are not reproducible.
pub fn serialize_reports(reports: &[RoundReport]) -> Vec<u8> {
    let mut out = Vec::new();
    let put_bytes = |out: &mut Vec<u8>, bytes: &[u8]| {
        out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
        out.extend_from_slice(bytes);
    };
    out.extend_from_slice(&(reports.len() as u32).to_le_bytes());
    for report in reports {
        let output = &report.output;
        out.extend_from_slice(&(output.routed_ciphertexts as u32).to_le_bytes());
        out.extend_from_slice(&(output.per_group.len() as u32).to_le_bytes());
        for group in &output.per_group {
            out.extend_from_slice(&(group.len() as u32).to_le_bytes());
            for payload in group {
                put_bytes(&mut out, payload);
            }
        }
        out.extend_from_slice(&(output.plaintexts.len() as u32).to_le_bytes());
        for payload in &output.plaintexts {
            put_bytes(&mut out, payload);
        }
    }
    out
}

/// The engine options of fleet process `process` under `spec`: the stall
/// budget and emulated compute everywhere, the round clock on the
/// coordinator only (it owns the diagnosis; a member that also deadlined
/// would race its abort against the coordinator's verdict and turn `Slow`
/// into `Blamed`), and the slow-loris drip on member process 1.
pub fn engine_options(spec: &NetSpec, workers: usize, process: usize) -> EngineOptions {
    let mut options = EngineOptions::with_workers(workers);
    options.stall_timeout = spec.stall_timeout;
    let drip = if process == 1 && !spec.loris.is_zero() {
        spec.loris
    } else {
        spec.delay
    };
    if !drip.is_zero() {
        options.stragglers = (0..spec.groups).map(|gid| (gid, drip)).collect();
    }
    if process == 0 {
        options.round_deadline = spec.round_deadline;
    }
    options
}

/// The fleet shape of `spec` run in batches of `batch` rounds.
fn fleet_shape(spec: &NetSpec, batch: usize) -> FleetShape {
    let config = round_config(spec, 0);
    FleetShape {
        groups: spec.groups,
        rounds: spec.rounds,
        batch,
        num_servers: config.num_servers,
        group_size: config.group_size,
    }
}

/// [`round_job`] over `spec`, as the fleet's job builder.
fn job_builder(spec: &NetSpec) -> JobBuilder {
    let spec = spec.clone();
    Box::new(move |round, evicted, failed, with_submissions| {
        round_job(&spec, round, evicted, failed, with_submissions)
    })
}

/// Turns on fleet-wide recording in this process if the spec asks for it.
fn start_tracing(spec: &NetSpec, process: usize) {
    if spec.trace {
        atom_obs::set_process(process as u32);
        atom_obs::set_enabled(true);
    }
}

/// Connects the coordinator (process 0, address 0 of `addrs`) of a fleet
/// running `spec` in batches of `batch` rounds, and derives the first
/// batch's jobs. Nothing here is timed work of the run itself.
pub fn connect_coordinator(
    spec: &NetSpec,
    batch: usize,
    addrs: Vec<String>,
) -> Result<fleet::Coordinator, String> {
    start_tracing(spec, 0);
    fleet::Coordinator::connect(fleet_shape(spec, batch), addrs, job_builder(spec))
}

/// Connects member `index` of a fleet running `spec` in batches of `batch`
/// rounds. With `rejoin` it announces itself as a restarted process.
pub fn connect_member(
    spec: &NetSpec,
    batch: usize,
    addrs: Vec<String>,
    index: usize,
    rejoin: bool,
) -> Result<fleet::Member, String> {
    start_tracing(spec, index);
    fleet::Member::connect(
        fleet_shape(spec, batch),
        addrs,
        index,
        rejoin,
        job_builder(spec),
    )
}

/// Reserves `count` distinct loopback addresses by briefly binding port-0
/// listeners. Racy in principle — the listeners are dropped before the
/// processes rebind — but the window is milliseconds, a collision fails
/// loudly, and addresses must be known *before* the child processes spawn
/// (the race-free `TcpTransport::bind_any` + `set_peer_addr` dance only
/// works within one process).
pub fn free_addrs(count: usize) -> Vec<String> {
    let listeners: Vec<std::net::TcpListener> = (0..count)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve loopback port"))
        .collect();
    listeners
        .iter()
        .map(|listener| listener.local_addr().expect("resolve port").to_string())
        .collect()
}

/// The readiness line a non-coordinator process of an orchestrated
/// deployment prints on stdout once its setup (job derivation, bind,
/// connect) is done and its engine is about to run. [`ProcessFleet`] waits
/// for it, so a benchmark's timed region starts with every engine ready —
/// and so a child that dies during setup is caught immediately.
pub const READY_LINE: &str = "atom-process-ready";

enum FleetEvent {
    /// The member printed [`READY_LINE`]. Carries the member's spawn
    /// generation so a restarted member's readiness is never confused with
    /// its predecessor's.
    Ready(usize, u64),
    /// The member's stdout hit EOF — it exited (or crashed).
    Eof(usize, u64),
}

struct FleetMember {
    /// Process index in the deployment (the spawning process is 0, so
    /// members are indices `1..processes`).
    index: usize,
    child: Child,
    ready: bool,
    reaped: Option<ExitStatus>,
    reader: Option<std::thread::JoinHandle<()>>,
    /// Bumped by [`ProcessFleet::restart_member`]; events from a previous
    /// child of this slot carry an older generation and are ignored.
    generation: u64,
}

/// Human-readable exit description, including the fatal signal on Unix —
/// a SIGKILLed member reads `signal 9`, not an opaque failure.
#[cfg(unix)]
fn describe_exit(status: &ExitStatus) -> String {
    use std::os::unix::process::ExitStatusExt;
    match (status.code(), status.signal()) {
        (Some(code), _) => format!("exit code {code}"),
        (None, Some(signal)) => {
            let core = if status.core_dumped() {
                " (core dumped)"
            } else {
                ""
            };
            format!("signal {signal}{core}")
        }
        _ => format!("{status}"),
    }
}

#[cfg(not(unix))]
fn describe_exit(status: &ExitStatus) -> String {
    format!("{status}")
}

/// One timestamped, attributed line on stderr when a member is reaped, so
/// a churn post-mortem shows *how* each process died alongside its output.
fn record_exit(index: usize, epoch: Instant, status: &ExitStatus) {
    eprintln!(
        "[p{index} +{}ms] exited ({})",
        epoch.elapsed().as_millis(),
        describe_exit(status)
    );
}

fn spawn_reader(
    index: usize,
    generation: u64,
    stdout: std::process::ChildStdout,
    tx: mpsc::Sender<FleetEvent>,
    epoch: Instant,
) -> std::thread::JoinHandle<()> {
    std::thread::spawn(move || {
        let mut lines = BufReader::new(stdout).lines();
        while let Some(Ok(line)) = lines.next() {
            if line == READY_LINE {
                let _ = tx.send(FleetEvent::Ready(index, generation));
            } else {
                let ms = epoch.elapsed().as_millis();
                eprintln!("[p{index} +{ms}ms] {line}");
            }
        }
        let _ = tx.send(FleetEvent::Eof(index, generation));
    })
}

/// The member processes of one N-process deployment: spawned together,
/// readiness-handshaked, monitored, and — on **every** exit path, including
/// a panicking or early-returning caller — killed and reaped (`Drop`), so
/// no fleet ever leaks an orphan child.
///
/// The coordinator (process 0) is the caller itself and never part of the
/// fleet; `commands[i]` must launch process index `i + 1` of the deployment
/// and print [`READY_LINE`] on stdout once its engine is ready.
pub struct ProcessFleet {
    members: Vec<FleetMember>,
    events: mpsc::Receiver<FleetEvent>,
    events_tx: mpsc::Sender<FleetEvent>,
    epoch: Instant,
}

impl ProcessFleet {
    /// Spawns one member per command. Each child's stdout is piped through
    /// a monitor thread that watches for [`READY_LINE`] and forwards every
    /// other line to this process's stderr, prefixed with the member's
    /// process index and the milliseconds elapsed since the fleet spawned —
    /// so an operator watching the coordinator sees the whole fleet's
    /// output, attributed and ordered in time (interleaving across members
    /// is otherwise unreadable during a stall post-mortem).
    pub fn spawn(commands: Vec<Command>) -> Self {
        let (events_tx, events) = mpsc::channel();
        let epoch = Instant::now();
        let members = commands
            .into_iter()
            .enumerate()
            .map(|(i, mut command)| {
                let index = i + 1;
                let mut child = command
                    .stdout(Stdio::piped())
                    .stderr(Stdio::inherit())
                    .spawn()
                    .expect("spawn fleet member process");
                let stdout = child.stdout.take().expect("fleet member stdout piped");
                let reader = spawn_reader(index, 0, stdout, events_tx.clone(), epoch);
                FleetMember {
                    index,
                    child,
                    ready: false,
                    reaped: None,
                    reader: Some(reader),
                    generation: 0,
                }
            })
            .collect();
        Self {
            members,
            events,
            events_tx,
            epoch,
        }
    }

    /// Number of member processes (the deployment has one more: the caller).
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// Whether the fleet has no members (a single-process deployment).
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Blocks until every member signalled readiness. A member that exits
    /// first, or a deadline overrun, kills the whole fleet and reports
    /// which member failed — setup problems surface as errors, not hangs.
    pub fn await_ready(&mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        while self.members.iter().any(|member| !member.ready) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let waiting = self.not_ready();
                self.kill_all();
                return Err(format!(
                    "fleet members {waiting:?} not ready after {timeout:?}"
                ));
            }
            match self.events.recv_timeout(left) {
                Ok(FleetEvent::Ready(index, generation)) => {
                    if let Some(member) = self
                        .members
                        .iter_mut()
                        .find(|m| m.index == index && m.generation == generation)
                    {
                        member.ready = true;
                    }
                }
                Ok(FleetEvent::Eof(index, generation)) => {
                    let premature = self
                        .members
                        .iter()
                        .any(|m| m.index == index && m.generation == generation && !m.ready);
                    if premature {
                        self.kill_all();
                        return Err(format!(
                            "fleet member process {index} exited before signalling readiness"
                        ));
                    }
                }
                Err(_) => {
                    let waiting = self.not_ready();
                    self.kill_all();
                    return Err(format!(
                        "fleet members {waiting:?} not ready after {timeout:?}"
                    ));
                }
            }
        }
        Ok(())
    }

    fn not_ready(&self) -> Vec<usize> {
        self.members
            .iter()
            .filter(|member| !member.ready)
            .map(|member| member.index)
            .collect()
    }

    /// Waits (bounded) for every member to exit, then checks the statuses.
    /// A member still running at the deadline is killed; any non-success
    /// status is reported. Either way every child is reaped before this
    /// returns.
    pub fn finish(mut self, timeout: Duration) -> Result<(), String> {
        let deadline = Instant::now() + timeout;
        loop {
            for member in &mut self.members {
                if member.reaped.is_none() {
                    if let Some(status) = member.child.try_wait().expect("wait on fleet member") {
                        record_exit(member.index, self.epoch, &status);
                        member.reaped = Some(status);
                    }
                }
            }
            if self.members.iter().all(|member| member.reaped.is_some()) {
                break;
            }
            if Instant::now() > deadline {
                let laggards: Vec<usize> = self
                    .members
                    .iter()
                    .filter(|member| member.reaped.is_none())
                    .map(|member| member.index)
                    .collect();
                self.kill_all();
                return Err(format!(
                    "fleet members {laggards:?} still running {timeout:?} after the \
                     coordinator finished; killed"
                ));
            }
            std::thread::sleep(Duration::from_millis(20));
        }
        // Children are reaped; this only joins the monitor threads.
        self.kill_all();
        let failures: Vec<String> = self
            .members
            .iter()
            .filter_map(|member| match member.reaped {
                Some(status) if !status.success() => Some(format!(
                    "fleet member process {} exited with {}",
                    member.index,
                    describe_exit(&status)
                )),
                _ => None,
            })
            .collect();
        if failures.is_empty() {
            Ok(())
        } else {
            Err(failures.join("; "))
        }
    }

    /// Kills one member by its deployment process index (fault injection:
    /// the chaos tests kill a member mid-round and assert the coordinator
    /// evicts it and the surviving fleet heals).
    pub fn kill_member(&mut self, index: usize) {
        let epoch = self.epoch;
        if let Some(member) = self.members.iter_mut().find(|m| m.index == index) {
            if member.reaped.is_none() {
                let _ = member.child.kill();
                if let Ok(status) = member.child.wait() {
                    record_exit(index, epoch, &status);
                    member.reaped = Some(status);
                }
            }
        }
    }

    /// The exit status of member `index`, if it has been reaped — on Unix
    /// the status carries the fatal signal, so a chaos test can assert the
    /// member died of SIGKILL rather than of its own accord.
    pub fn member_status(&self, index: usize) -> Option<ExitStatus> {
        self.members
            .iter()
            .find(|m| m.index == index)
            .and_then(|m| m.reaped)
    }

    /// Restarts a dead member slot with a fresh command (same deployment
    /// index — rejoin drills restart the killed process on its old
    /// address). Errors if the old child is still running. The new child
    /// gets a fresh generation, so stale events from its predecessor are
    /// ignored; wait for it with [`ProcessFleet::await_ready`].
    pub fn restart_member(&mut self, index: usize, mut command: Command) -> Result<(), String> {
        let epoch = self.epoch;
        let tx = self.events_tx.clone();
        let member = self
            .members
            .iter_mut()
            .find(|m| m.index == index)
            .ok_or_else(|| format!("no fleet member with process index {index}"))?;
        if member.reaped.is_none() {
            match member.child.try_wait() {
                Ok(Some(status)) => {
                    record_exit(index, epoch, &status);
                    member.reaped = Some(status);
                }
                Ok(None) => return Err(format!("fleet member {index} is still running")),
                Err(error) => return Err(format!("wait on fleet member {index}: {error}")),
            }
        }
        if let Some(reader) = member.reader.take() {
            let _ = reader.join();
        }
        let mut child = command
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|error| format!("respawn fleet member {index}: {error}"))?;
        let stdout = child.stdout.take().expect("fleet member stdout piped");
        member.generation += 1;
        member.reader = Some(spawn_reader(index, member.generation, stdout, tx, epoch));
        member.child = child;
        member.ready = false;
        member.reaped = None;
        eprintln!("[p{index} +{}ms] restarted", epoch.elapsed().as_millis());
        Ok(())
    }

    /// Kills and reaps every still-running member and joins the monitor
    /// threads. Idempotent; also what `Drop` runs, so no exit path —
    /// including a caller panic — orphans a child process.
    pub fn kill_all(&mut self) {
        for member in &mut self.members {
            if member.reaped.is_none() {
                let _ = member.child.kill();
                if let Ok(status) = member.child.wait() {
                    member.reaped = Some(status);
                }
            }
            if let Some(reader) = member.reader.take() {
                let _ = reader.join();
            }
        }
    }
}

impl Drop for ProcessFleet {
    fn drop(&mut self) {
        self.kill_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_runtime::fleet::process_servers;

    #[test]
    fn job_derivation_is_deterministic() {
        let spec = NetSpec::default();
        for round in 0..spec.rounds {
            let a = round_job(&spec, round, &[], &[], true);
            let b = round_job(&spec, round, &[], &[], true);
            assert_eq!(a.seed, b.seed);
            assert_eq!(
                a.full_setup().unwrap().groups[0].public_key.0,
                b.full_setup().unwrap().groups[0].public_key.0
            );
        }
    }

    #[test]
    fn sharded_jobs_match_the_derived_reference_byte_for_byte() {
        let spec = NetSpec {
            groups: 2,
            rounds: 2,
            messages: 4,
            sharded: true,
            ..NetSpec::default()
        };
        let sharded: Vec<_> = Engine::with_workers(2)
            .run_rounds(
                (0..spec.rounds)
                    .map(|round| round_job(&spec, round, &[], &[], true))
                    .collect(),
            )
            .into_iter()
            .collect::<Result<_, _>>()
            .unwrap();
        assert_eq!(
            serialize_reports(&build_reference(&spec, &[], &[])),
            serialize_reports(&sharded),
            "sharded derivation must not change a single output byte"
        );
        assert!(sharded
            .iter()
            .all(|r| r.setup_latency > Duration::from_nanos(0)));
    }

    #[test]
    fn memberless_sharded_jobs_skip_submission_generation() {
        let spec = NetSpec {
            sharded: true,
            ..NetSpec::default()
        };
        for round in 0..spec.rounds {
            let job = round_job(&spec, round, &[], &[], false);
            match &job.submissions {
                RoundSubmissions::Trap(subs) => assert!(subs.is_empty()),
                other => panic!("expected trap submissions, got {other:?}"),
            }
            assert!(job.full_setup().is_none(), "no prebuilt directory");
        }
    }

    #[test]
    fn serialization_covers_every_deterministic_field() {
        let spec = NetSpec {
            groups: 2,
            rounds: 1,
            messages: 4,
            ..NetSpec::default()
        };
        let reports = build_reference(&spec, &[], &[]);
        let bytes = serialize_reports(&reports);
        let again = serialize_reports(&reports);
        assert_eq!(bytes, again);
        assert!(bytes.len() > 4, "serialization must not be empty");
    }

    #[test]
    fn reference_is_deterministic() {
        let spec = NetSpec {
            groups: 3,
            rounds: 2,
            messages: 6,
            iterations: 2,
            honest: 2,
            ..NetSpec::default()
        };
        let evicted = vec![Vec::new(), process_servers(9, 3, 2)];
        let failed = vec![Vec::new(), Vec::new()];
        let once = serialize_reports(&build_reference(&spec, &evicted, &failed));
        let twice = serialize_reports(&build_reference(&spec, &evicted, &failed));
        assert_eq!(once, twice);
        // The intact fleet's reference delivers every message too: empty
        // logs are the fault-free case.
        let intact = build_reference(&spec, &[], &[]);
        assert_eq!(
            intact
                .iter()
                .map(|r| r.output.plaintexts.len())
                .sum::<usize>(),
            spec.rounds * spec.messages
        );
    }

    /// The zero-fault case of the fleet loop over several epochs: batches
    /// smaller than the run, so later batches run behind a non-zero epoch
    /// fence with a fresh handshake each — and the outputs still match the
    /// in-memory reference byte for byte, with nothing evicted.
    #[test]
    fn fault_free_multi_epoch_fleet_matches_the_reference() {
        let spec = NetSpec {
            groups: 3,
            rounds: 4,
            messages: 6,
            seed: 0xE90C,
            stall_timeout: Duration::from_secs(10),
            ..NetSpec::default()
        };
        let batch = 1;
        let addrs = free_addrs(2);
        let member = {
            let (spec, addrs) = (spec.clone(), addrs.clone());
            std::thread::spawn(move || {
                connect_member(&spec, batch, addrs, 1, false)?.run(engine_options(&spec, 2, 1))
            })
        };
        let outcome = connect_coordinator(&spec, batch, addrs)
            .and_then(|coordinator| coordinator.run(engine_options(&spec, 2, 0)))
            .expect("fault-free fleet run");
        member.join().unwrap().expect("member exits cleanly");

        assert_eq!(outcome.epochs, spec.rounds, "one epoch per batch");
        assert!(outcome.evictions.is_empty() && outcome.rejoins.is_empty());
        assert!(outcome.detected_at.is_none());
        assert!(outcome.round_evicted.iter().all(Vec::is_empty));
        assert!(outcome.round_failed.iter().all(Vec::is_empty));
        assert_eq!(
            serialize_reports(&outcome.reports),
            serialize_reports(&build_reference(&spec, &[], &[]))
        );
    }
}
