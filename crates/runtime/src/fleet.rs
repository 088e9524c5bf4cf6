//! The multi-process control plane: membership, eviction and round
//! recovery for a fleet of engine processes over [`TcpTransport`].
//!
//! This is the one multi-process run loop. The coordinator (process 0)
//! runs rounds in batches; before each batch the fleet passes a two-phase
//! membership handshake, so every process agrees — before any protocol
//! frame of the batch is sent — on who is dead, which rounds are being
//! retried, and which wire-round namespace (epoch) the batch runs in. A
//! fault-free run is the zero-fault case of the same loop: an empty
//! eviction log, one handshake per batch, and — with one batch spanning
//! every round — all rounds pipelined in a single engine call.
//!
//! This module is the one place that knows the semantics of the `rejoin`
//! and `evict` wire frames. It never sees a workload: every process hands
//! it a [`JobBuilder`] that derives round `r` for a given eviction set,
//! mid-flight failure set and submission need, and the loop calls it with
//! whatever membership the fleet agreed on.
//!
//! ## The recovery loop
//!
//! ```text
//!            ┌────────────────────────────────────────────────────┐
//!            ▼                                                    │
//!   plan ──▶ ack ──▶ drain ──▶ go ──▶ run batch ──▶ ok? ── yes ──▶ advance,
//!   (evictions,      (purge    (commit)             │              readmit
//!    retry round,     stale                         no             rejoiners
//!    epoch, digest)   frames)                       │
//!                                                   ▼
//!                      diagnose lowest failed round → FaultVerdict
//!                      gossip `evict` frame, extend the eviction log,
//!                      re-plan from that round (new epoch)
//! ```
//!
//! **Detection.** A dead process surfaces either as an engine failure
//! (send-failure containment → `TransportLost`, or the stall detector) that
//! [`FaultVerdict::diagnose`] pins on a process, or as a handshake timeout
//! (a member that never acks a plan). Either way the coordinator convicts,
//! gossips the structured verdict to the survivors in a kind-tagged `evict`
//! frame, and re-plans.
//!
//! **Healing.** The retried detection round keeps the membership its
//! directory was built with (frozen in the [`RecoveryLedger`]) and instead
//! marks the evicted servers *failed*, so groups heal by Lagrange
//! reweighting where `k − (h−1)` members remain and by buddy-group escrow
//! reconstruction below that — the paper's §4.5 fault path. Rounds after
//! the detection round re-derive their directories with the evicted servers
//! excluded (the beacon remaps each group onto survivors), which is the
//! re-formation path. Both derivations are pure functions of the workload
//! and the eviction log, so every process computes identical directories
//! and round outputs stay byte-deterministic given the log.
//!
//! **Epoch fencing.** Each batch attempt runs with a disjoint wire-round
//! range (`EngineOptions::round_offset = epoch × EPOCH_STRIDE`). A frame
//! straggling in from a failed attempt therefore cannot alias a retried
//! round — the engine drops it as stale — which makes the retry loop safe
//! even though TCP ordering guarantees nothing across connections.
//!
//! **Rejoin.** A restarted process binds its old address, sends a `rejoin`
//! request carrying its (empty) log digest, and waits. The coordinator
//! collects requests whenever it reads control traffic and readmits at the
//! next *successful* batch boundary: the rejoiner's verdicts are pruned
//! from the log, the node→process map re-includes it, and the next plan —
//! which doubles as the catch-up reply, carrying the authoritative eviction
//! log and current round — puts it back to work hosting groups.
//!
//! **Connect, then run.** Both sides split into [`Coordinator::connect`] /
//! [`Member::connect`] — bind, connect to every peer, derive the first
//! batch's jobs — and `run`, so a benchmark can time the engine without
//! charging it for connection churn or workload derivation.

use std::borrow::Cow;
use std::collections::{BTreeMap, BTreeSet};
use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use atom_net::{TcpOptions, TcpTransport, Transport};

use crate::engine::{
    new_control_sink, ControlSink, Engine, EngineOptions, EngineRole, RoundJob, RoundReport,
    EVICT_LABEL, REJOIN_LABEL,
};
use crate::fault::{FaultKind, FaultVerdict};
use crate::wire::{self, EvictFrame, Frame, RejoinFrame};

/// Wire-round ids per epoch: batch attempt `e` runs rounds
/// `e × EPOCH_STRIDE ..`, so a straggler frame from attempt `e − 1` can
/// never decode to a round of attempt `e`. A u32 wire round holds 4096
/// epochs of this stride — far beyond the epoch cap of any recovery run.
pub const EPOCH_STRIDE: usize = 1 << 20;

/// How long either side polls between control-frame reads.
const CONTROL_POLL: Duration = Duration::from_millis(2);

/// Bounded retries of one batch when a failure yields no actionable
/// verdict (e.g. a protocol abort that implicates no process).
const MAX_STUCK_RETRIES: usize = 3;

/// `(global round, completion instant)` for every round the coordinator
/// completed — the raw data of the healing-latency measurement.
type CompletionLog = Arc<Mutex<Vec<(usize, Instant)>>>;

/// Derives round `round`'s job: `(round, evicted servers, mid-flight failed
/// servers, with_submissions) -> RoundJob`. Must be a pure function of its
/// arguments, identical in every process. The coordinator asks for
/// submissions; members do not (they never run intake), so a sharded
/// member can skip directory derivation entirely.
pub type JobBuilder = Box<dyn FnMut(usize, &[usize], &[usize], bool) -> RoundJob>;

/// The deployment shape every process of a fleet must agree on, beyond the
/// jobs themselves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FleetShape {
    /// Anytrust groups per round.
    pub groups: usize,
    /// Rounds of the run.
    pub rounds: usize,
    /// Rounds per batch: the spacing of re-formation and readmission
    /// boundaries. `rounds` pipelines the whole run in one engine call.
    pub batch: usize,
    /// Servers in the deployment (server `s` lives on process
    /// `s mod processes`).
    pub num_servers: usize,
    /// Servers per group: no eviction may leave fewer survivors.
    pub group_size: usize,
}

/// The servers hosted by fleet process `process`: server `s` lives on
/// process `s mod processes`, so the partition is a pure function every
/// process computes identically — and the conversion from a dead process
/// to its lost servers needs no directory lookup.
pub fn process_servers(num_servers: usize, processes: usize, process: usize) -> Vec<usize> {
    (0..num_servers)
        .filter(|s| s % processes == process)
        .collect()
}

/// The node→process map with `dead` processes excluded: group `gid` lives
/// on process `gid mod processes` while that owner lives, and is otherwise
/// reassigned round-robin over the survivors. The orchestrator node
/// (always last) stays on the coordinator, which never appears in `dead`.
pub fn owner_map_excluding(groups: usize, processes: usize, dead: &[usize]) -> Vec<usize> {
    assert!(!dead.contains(&0), "the coordinator cannot be evicted");
    let live: Vec<usize> = (0..processes).filter(|p| !dead.contains(p)).collect();
    assert!(!live.is_empty(), "no live process left");
    let mut owner: Vec<usize> = (0..groups)
        .map(|gid| {
            let preferred = gid % processes;
            if dead.contains(&preferred) {
                live[gid % live.len()]
            } else {
                preferred
            }
        })
        .collect();
    owner.push(0);
    owner
}

/// The group ids process `index` hosts under the node→process map `owner`.
pub fn hosted_groups(owner: &[usize], index: usize) -> Vec<usize> {
    let groups = owner.len() - 1; // last node is the orchestrator
    (0..groups).filter(|&gid| owner[gid] == index).collect()
}

/// The exclusive end of the batch containing `round`: batches are aligned
/// to multiples of `batch`, capped at `rounds`. Re-formation and
/// readmission happen only at these boundaries.
pub fn batch_end(round: usize, batch: usize, rounds: usize) -> usize {
    assert!(batch >= 1, "batch must be at least one round");
    (((round / batch) + 1) * batch).min(rounds)
}

/// A 32-byte integrity digest of an eviction log: four independent FNV-64
/// lanes over the canonical `evict`-frame encoding of each verdict, in log
/// order. Good enough to catch divergence between the coordinator's log
/// and a member's mirror (its only job — this is not an adversarial hash).
pub fn eviction_log_digest(log: &[FaultVerdict]) -> [u8; 32] {
    let mut bytes = Vec::new();
    for verdict in log {
        bytes.extend_from_slice(&wire::encode_evict(&EvictFrame {
            verdict: verdict.clone(),
        }));
    }
    let mut digest = [0u8; 32];
    for lane in 0..4u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325 ^ lane.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for &byte in &bytes {
            hash ^= byte as u64;
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        digest[lane as usize * 8..][..8].copy_from_slice(&hash.to_le_bytes());
    }
    digest
}

/// Both sides' view of who has been evicted and how each round heals.
/// The coordinator mutates it via [`RecoveryLedger::evict`] /
/// [`RecoveryLedger::readmit`]; members mirror it from plans via
/// [`RecoveryLedger::apply_plan`]. Given the same eviction history both
/// paths freeze identical memberships — asserted by unit test.
#[derive(Clone, Debug, Default)]
pub struct RecoveryLedger {
    /// Standing verdicts: one entry per conviction whose process is still
    /// out. This is the log plans and digests cover.
    active: Vec<FaultVerdict>,
    /// round → evicted-server set its directory was built with. Frozen at
    /// first build so a *retried* detection round keeps the membership its
    /// submissions and peers' directories were derived under — it heals by
    /// Lagrange/escrow instead of re-forming.
    frozen: BTreeMap<usize, Vec<usize>>,
    /// round → servers that failed mid-flight for that round (the frozen
    /// detection round's Lagrange/escrow set).
    failed: BTreeMap<usize, Vec<usize>>,
}

impl RecoveryLedger {
    /// The standing eviction log, in conviction order.
    pub fn active(&self) -> &[FaultVerdict] {
        &self.active
    }

    /// The processes currently evicted, ascending.
    pub fn dead_processes(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self.active.iter().map(|v| v.process).collect();
        set.into_iter().collect()
    }

    /// The servers currently evicted, ascending and deduplicated.
    pub fn active_servers(&self) -> Vec<usize> {
        let set: BTreeSet<usize> = self
            .active
            .iter()
            .flat_map(|v| v.servers.iter().copied())
            .collect();
        set.into_iter().collect()
    }

    /// The digest members must echo in their acks.
    pub fn digest(&self) -> [u8; 32] {
        eviction_log_digest(&self.active)
    }

    /// The evicted-server set round `round`'s directory was (or will be)
    /// built with.
    pub fn evicted_for(&self, round: usize) -> Vec<usize> {
        self.frozen
            .get(&round)
            .cloned()
            .unwrap_or_else(|| self.active_servers())
    }

    /// The mid-flight failure set of round `round`.
    pub fn failed_for(&self, round: usize) -> Vec<usize> {
        self.failed.get(&round).cloned().unwrap_or_default()
    }

    /// Freezes round `round`'s membership under the current log on first
    /// call and returns its evicted-server set — what the round's job is
    /// built with.
    pub fn freeze(&mut self, round: usize) -> Vec<usize> {
        let fallback = self.active_servers();
        self.frozen.entry(round).or_insert(fallback).clone()
    }

    fn note_failures(&mut self, round: usize, fresh: &[usize]) {
        // Only a frozen round (one whose directory already exists with the
        // old membership) heals in place; unfrozen rounds re-form instead.
        if fresh.is_empty() || !self.frozen.contains_key(&round) {
            return;
        }
        let failed = self.failed.entry(round).or_default();
        for &server in fresh {
            if !failed.contains(&server) {
                failed.push(server);
            }
        }
        failed.sort_unstable();
    }

    /// Coordinator side: convict `verdict`, retrying from `retry_round`.
    /// The retried round keeps its frozen membership and gains the newly
    /// lost servers as mid-flight failures; every later round is unfrozen
    /// so its directory re-forms over the survivors.
    pub fn evict(&mut self, verdict: FaultVerdict, retry_round: usize) {
        let known = self.active_servers();
        let fresh: Vec<usize> = verdict
            .servers
            .iter()
            .copied()
            .filter(|s| !known.contains(s))
            .collect();
        self.active.push(verdict);
        self.note_failures(retry_round, &fresh);
        self.frozen.retain(|&round, _| round <= retry_round);
        self.failed.retain(|&round, _| round <= retry_round);
    }

    /// Coordinator side: welcome `process` back. Its standing verdicts are
    /// pruned; rounds planned from now on include it again.
    pub fn readmit(&mut self, process: usize) {
        self.active.retain(|v| v.process != process);
    }

    /// Member side: adopt the coordinator's authoritative plan for a batch
    /// starting at `plan_round`. Mirrors [`RecoveryLedger::evict`] exactly
    /// — new servers relative to our log become mid-flight failures of the
    /// retried round (if we had frozen it), later rounds unfreeze.
    pub fn apply_plan(&mut self, evictions: &[FaultVerdict], plan_round: usize) {
        let known = self.active_servers();
        let mut fresh: Vec<usize> = evictions
            .iter()
            .flat_map(|v| v.servers.iter().copied())
            .filter(|s| !known.contains(s))
            .collect();
        fresh.sort_unstable();
        fresh.dedup();
        self.active = evictions.to_vec();
        self.note_failures(plan_round, &fresh);
        self.frozen.retain(|&round, _| round <= plan_round);
        self.failed.retain(|&round, _| round <= plan_round);
    }
}

/// What a fleet run produced, beyond the round outputs: the full
/// eviction/rejoin history and the latency of the healing path. A
/// fault-free run has empty histories.
pub struct RecoveryOutcome {
    /// One authoritative report per round.
    pub reports: Vec<RoundReport>,
    /// Every conviction, in order (including convictions of processes that
    /// later rejoined).
    pub evictions: Vec<FaultVerdict>,
    /// `(process, round)` for each readmission: the first round of the
    /// batch the process re-entered at.
    pub rejoins: Vec<(usize, usize)>,
    /// Per round: the evicted-server set its final directory was built
    /// with — with `round_failed`, what an in-memory rebuild needs.
    pub round_evicted: Vec<Vec<usize>>,
    /// Per round: the mid-flight failure set it finally healed around.
    pub round_failed: Vec<Vec<usize>>,
    /// Batch attempts (plan/ack/go handshakes) the run took.
    pub epochs: usize,
    /// When the first fault was detected, relative to run start.
    pub detected_at: Option<Duration>,
    /// Detection → completion of the first round finished after detection:
    /// the paper-facing recovery latency.
    pub healed_latency: Option<Duration>,
    /// Global rounds completed after the first detection, ascending.
    pub healed_rounds: Vec<usize>,
    /// Wall clock of the whole run (connection setup excluded).
    pub wall: Duration,
}

/// One connected fleet process: its transport, the workload's job builder
/// and the jobs of the first batch, derived at connect time under the
/// empty eviction log.
struct FleetNode {
    shape: FleetShape,
    index: usize,
    processes: usize,
    transport: TcpTransport,
    /// The orchestrator node id (always the last node).
    orch: usize,
    sink: ControlSink,
    inbox: Vec<Frame>,
    build: JobBuilder,
    prebuilt: BTreeMap<usize, RoundJob>,
}

impl FleetNode {
    fn connect(
        shape: FleetShape,
        addrs: Vec<String>,
        index: usize,
        mut build: JobBuilder,
        prebuild: bool,
    ) -> Result<Self, String> {
        let processes = addrs.len();
        assert!(index < processes, "process index out of range");
        let transport = TcpTransport::bind(
            addrs,
            owner_map_excluding(shape.groups, processes, &[]),
            index,
            TcpOptions::default(),
        )
        .map_err(|error| format!("bind process {index} transport: {error}"))?;
        transport
            .connect_peers()
            .map_err(|error| format!("connect to fleet: {error}"))?;
        let prebuilt = if prebuild {
            (0..batch_end(0, shape.batch, shape.rounds))
                .map(|round| (round, build(round, &[], &[], index == 0)))
                .collect()
        } else {
            BTreeMap::new()
        };
        Ok(Self {
            shape,
            index,
            processes,
            transport,
            orch: shape.groups,
            sink: new_control_sink(),
            inbox: Vec::new(),
            build,
            prebuilt,
        })
    }

    /// The jobs of `rounds` under the ledger, freezing each round's
    /// membership. A prebuilt job is used while its round still runs with
    /// the empty eviction log it was derived under.
    fn batch_jobs(&mut self, ledger: &mut RecoveryLedger, rounds: Range<usize>) -> Vec<RoundJob> {
        let with_submissions = self.index == 0;
        rounds
            .map(|round| {
                let evicted = ledger.freeze(round);
                let failed = ledger.failed_for(round);
                match self.prebuilt.remove(&round) {
                    Some(job) if evicted.is_empty() && failed.is_empty() => job,
                    _ => (self.build)(round, &evicted, &failed, with_submissions),
                }
            })
            .collect()
    }

    /// Points every node at its process under the agreed membership and
    /// returns the owner map.
    fn adopt_membership(&self, dead: &[usize]) -> Vec<usize> {
        let owner = owner_map_excluding(self.shape.groups, self.processes, dead);
        for (node, &process) in owner.iter().enumerate() {
            self.transport.set_owner(node, process);
        }
        owner
    }

    fn send_control(&self, process: usize, frame: &RejoinFrame) -> Result<(), String> {
        self.send_labelled(process, REJOIN_LABEL, wire::encode_rejoin(frame))
    }

    fn send_labelled(
        &self,
        process: usize,
        label: &'static str,
        payload: Vec<u8>,
    ) -> Result<(), String> {
        // Sends to a vanished peer panic by design (after one reconnect
        // attempt); at a handshake site that panic *is* the detection signal.
        catch_unwind(AssertUnwindSafe(|| {
            self.transport.send_to_process(
                process,
                self.orch,
                self.orch,
                Cow::Borrowed(label),
                payload,
            );
        }))
        .map_err(|_| format!("process {process} unreachable"))
    }

    /// Pulls every control frame available right now into the inbox: the
    /// engine's control sink (frames that arrived mid-run) plus the
    /// orchestrator mailbox (frames that arrived between runs). Non-control
    /// traffic in the mailbox is dropped — it is by definition stale
    /// protocol residue.
    fn collect_control(&mut self) {
        self.inbox.extend(std::mem::take(&mut *self.sink.lock()));
        for envelope in Transport::drain(&self.transport, self.orch) {
            if let Ok(frame) = wire::decode(&envelope.payload) {
                if matches!(frame, Frame::Evict(_) | Frame::Rejoin(_)) {
                    self.inbox.push(frame);
                }
            }
        }
    }

    /// Purges every mailbox of frames from dead epochs. Safe on the
    /// coordinator once all acks are in (per-connection ordering puts any
    /// member's protocol frames before its ack) and on a member before it
    /// acks; the epoch fence backstops whatever arrives later.
    fn purge_mailboxes(&mut self) {
        self.collect_control();
        for node in 0..Transport::nodes(&self.transport) {
            if node != self.orch {
                let _ = Transport::drain(&self.transport, node);
            }
        }
    }

    /// The engine options of one batch attempt: the caller's template plus
    /// the control sink, the epoch fence and a completion hook that
    /// reports global round numbers (`base + job index`).
    fn epoch_options(
        &self,
        template: &EngineOptions,
        epoch: usize,
        base: usize,
        tap: Option<CompletionLog>,
    ) -> EngineOptions {
        let mut options = template.clone();
        options.control_sink = Some(self.sink.clone());
        options.round_offset = epoch * EPOCH_STRIDE;
        let user_hook = template.on_round_complete.clone();
        if tap.is_some() || user_hook.is_some() {
            options.on_round_complete = Some(Arc::new(move |index: usize| {
                let global = base + index;
                if let Some(tap) = &tap {
                    tap.lock()
                        .unwrap_or_else(|poison| poison.into_inner())
                        .push((global, Instant::now()));
                }
                if let Some(hook) = &user_hook {
                    hook(global);
                }
            }));
        }
        options
    }
}

/// How long the coordinator waits for plan acks before convicting the
/// silent members as dead.
fn ack_deadline(options: &EngineOptions) -> Duration {
    options.stall_timeout.max(Duration::from_millis(500)) * 2
}

/// How long a member waits for the next plan (or go) before concluding the
/// coordinator itself is gone. Generous: it must outlast a full batch run
/// plus the coordinator's own ack timeout.
fn plan_deadline(options: &EngineOptions) -> Duration {
    options.stall_timeout.max(Duration::from_secs(1)) * 8 + Duration::from_secs(10)
}

/// The coordinator's membership state across epochs.
struct Membership {
    ledger: RecoveryLedger,
    live: Vec<bool>,
    pending_rejoin: BTreeSet<usize>,
    evictions: Vec<FaultVerdict>,
    rejoins: Vec<(usize, usize)>,
    detected: Option<Instant>,
}

impl Membership {
    /// Convicts a process: capacity check, gossip the verdict to the
    /// survivors in an `evict` frame, extend the log, mark dead.
    fn convict(
        &mut self,
        node: &FleetNode,
        verdict: FaultVerdict,
        retry_round: usize,
    ) -> Result<(), String> {
        let (num_servers, group_size) = (node.shape.num_servers, node.shape.group_size);
        let mut lost: BTreeSet<usize> = self.ledger.active_servers().into_iter().collect();
        lost.extend(verdict.servers.iter().copied());
        if num_servers - lost.len() < group_size {
            return Err(format!(
                "evicting process {} would leave {} servers, fewer than one group ({group_size})",
                verdict.process,
                num_servers - lost.len()
            ));
        }
        self.detected.get_or_insert_with(Instant::now);
        atom_obs::count("fleet.evictions", 1);
        println!(
            "recovery: evicting process {} ({}) at round {}: {}",
            verdict.process, verdict.kind, retry_round, verdict.reason
        );
        let frame = wire::encode_evict(&EvictFrame {
            verdict: verdict.clone(),
        });
        self.live[verdict.process] = false;
        for (process, alive) in self.live.iter().enumerate().skip(1) {
            if *alive {
                let _ = node.send_labelled(process, EVICT_LABEL, frame.clone());
            }
        }
        self.ledger.evict(verdict.clone(), retry_round);
        self.evictions.push(verdict);
        Ok(())
    }

    /// Convicts `process` as dead for `reason` at round `round`.
    fn convict_dead(
        &mut self,
        node: &FleetNode,
        process: usize,
        round: usize,
        reason: String,
    ) -> Result<(), String> {
        let verdict = FaultVerdict {
            round,
            process,
            kind: FaultKind::Dead,
            servers: process_servers(node.shape.num_servers, node.processes, process),
            reason,
        };
        self.convict(node, verdict, round)
    }

    /// Records a rejoin request from a convicted process.
    fn note_rejoin_request(&mut self, frame: &RejoinFrame) -> bool {
        if frame.process < self.live.len()
            && !self.live[frame.process]
            && self.pending_rejoin.insert(frame.process)
        {
            atom_obs::count("fleet.rejoin.requests", 1);
            return true;
        }
        false
    }
}

/// Process 0 of a fleet, connected and ready to run.
pub struct Coordinator {
    node: FleetNode,
}

impl Coordinator {
    /// Binds address 0 of `addrs`, connects to every member (retrying
    /// while they start up) and derives the first batch's jobs. A fleet of
    /// one (`addrs.len() == 1`) has no members and an empty handshake.
    pub fn connect(
        shape: FleetShape,
        addrs: Vec<String>,
        build: JobBuilder,
    ) -> Result<Self, String> {
        Ok(Self {
            node: FleetNode::connect(shape, addrs, 0, build, true)?,
        })
    }

    /// Runs the recovery loop from the module docs until every round has
    /// an authoritative report. `options` is the engine template for every
    /// batch; its `on_round_complete` hook fires with each *global* round
    /// as it completes — the chaos drills use it to schedule kills and
    /// restarts mid-run.
    pub fn run(self, options: EngineOptions) -> Result<RecoveryOutcome, String> {
        let mut node = self.node;
        let shape = node.shape;
        let processes = node.processes;
        let start = Instant::now();
        let completions: CompletionLog = Arc::new(Mutex::new(Vec::new()));
        let mut state = Membership {
            ledger: RecoveryLedger::default(),
            live: vec![true; processes],
            pending_rejoin: BTreeSet::new(),
            evictions: Vec::new(),
            rejoins: Vec::new(),
            detected: None,
        };
        let mut reports: Vec<Option<RoundReport>> = (0..shape.rounds).map(|_| None).collect();
        let mut round_evicted = vec![Vec::new(); shape.rounds];
        let mut round_failed = vec![Vec::new(); shape.rounds];
        let mut next = 0usize;
        let mut epoch = 0usize;
        let mut stuck = 0usize;
        let max_epochs = shape.rounds * 3 + 24;

        let run: Result<(), String> = 'epochs: loop {
            if next >= shape.rounds {
                break Ok(());
            }
            epoch += 1;
            if epoch > max_epochs {
                break Err(format!(
                    "recovery made no progress within {max_epochs} epochs"
                ));
            }
            let end = batch_end(next, shape.batch, shape.rounds);

            // Phase 1: the plan — retry round, eviction log, epoch, digest.
            let plan = RejoinFrame {
                round: next,
                process: 0,
                epoch,
                response: true,
                commit: false,
                digest: state.ledger.digest(),
                evictions: state.ledger.active().to_vec(),
            };
            atom_obs::count("fleet.handshake.plans", 1);
            let mut awaiting: BTreeSet<usize> = BTreeSet::new();
            for process in 1..processes {
                if !state.live[process] {
                    // A convicted process may be gone — or merely slow and
                    // still listening (a slow-loris eviction). Courtesy-copy
                    // it the plan over any still-open stream, without
                    // awaiting an ack: seeing itself on the dead list is
                    // what prompts its rejoin request. Best-effort by design
                    // — a crashed peer must not cost a connect-timeout stall
                    // per epoch.
                    node.transport.try_send_to_process(
                        process,
                        node.orch,
                        node.orch,
                        Cow::Borrowed(REJOIN_LABEL),
                        wire::encode_rejoin(&plan),
                    );
                    continue;
                }
                match node.send_control(process, &plan) {
                    Ok(()) => {
                        awaiting.insert(process);
                    }
                    Err(reason) => {
                        let reason = format!("unreachable during handshake: {reason}");
                        if let Err(error) = state.convict_dead(&node, process, next, reason) {
                            break 'epochs Err(error);
                        }
                        stuck = 0;
                        continue 'epochs;
                    }
                }
            }

            // Collect acks; anything else that shows up is a rejoin request.
            let deadline = Instant::now() + ack_deadline(&options);
            let mut acked: BTreeSet<usize> = BTreeSet::new();
            while acked.len() < awaiting.len() {
                node.collect_control();
                for frame in std::mem::take(&mut node.inbox) {
                    let Frame::Rejoin(frame) = frame else {
                        continue;
                    };
                    if frame.response || frame.commit || frame.process >= processes {
                        continue;
                    }
                    if awaiting.contains(&frame.process) && frame.epoch == epoch {
                        if frame.digest != plan.digest {
                            break 'epochs Err(format!(
                                "process {} acked with a divergent eviction-log digest",
                                frame.process
                            ));
                        }
                        acked.insert(frame.process);
                    } else if state.note_rejoin_request(&frame) {
                        println!(
                            "recovery: process {} requests rejoin (last round {})",
                            frame.process, frame.round
                        );
                    }
                }
                if Instant::now() > deadline {
                    break;
                }
                std::thread::sleep(CONTROL_POLL);
            }
            let silent: Vec<usize> = awaiting.difference(&acked).copied().collect();
            if !silent.is_empty() {
                for process in silent {
                    let reason = "no handshake ack".to_string();
                    if let Err(error) = state.convict_dead(&node, process, next, reason) {
                        break 'epochs Err(error);
                    }
                }
                stuck = 0;
                continue 'epochs;
            }

            // Barrier: with all acks in, every member frame of dead epochs
            // has been delivered (per-connection ordering) — purge, then
            // commit.
            node.purge_mailboxes();
            for frame in std::mem::take(&mut node.inbox) {
                if let Frame::Rejoin(frame) = frame {
                    if !frame.response && !frame.commit {
                        state.note_rejoin_request(&frame);
                    }
                }
            }
            // Build (and thereby freeze) the batch's jobs *before*
            // committing: members freeze on receiving the go, so freezing
            // must be part of the committed protocol on this side too — an
            // epoch abandoned before its commit must leave no membership
            // frozen anywhere.
            let jobs = node.batch_jobs(&mut state.ledger, next..end);
            for round in next..end {
                round_evicted[round] = state.ledger.evicted_for(round);
                round_failed[round] = state.ledger.failed_for(round);
            }
            let go = RejoinFrame {
                commit: true,
                ..plan.clone()
            };
            // Attempt the commit to *every* member before reacting to
            // failures: members freeze the batch's membership on receiving
            // the go, so all live members must see it — aborting at the
            // first dead peer would leave the survivors frozen on an epoch
            // the coordinator abandoned.
            let unreachable: Vec<(usize, String)> = awaiting
                .iter()
                .filter_map(|&process| {
                    node.send_control(process, &go)
                        .err()
                        .map(|reason| (process, reason))
                })
                .collect();
            if !unreachable.is_empty() {
                // The epoch committed for everyone reachable (they and we
                // have frozen these rounds); convict the dead and retry the
                // batch with their shares marked failed under the frozen
                // membership.
                for (process, reason) in unreachable {
                    let reason = format!("unreachable at commit: {reason}");
                    if let Err(error) = state.convict_dead(&node, process, next, reason) {
                        break 'epochs Err(error);
                    }
                }
                stuck = 0;
                continue 'epochs;
            }

            // Run the batch under the agreed membership and epoch fence.
            let owner = node.adopt_membership(&state.ledger.dead_processes());
            let role = EngineRole::coordinator(hosted_groups(&owner, 0));
            let batch_options =
                node.epoch_options(&options, epoch, next, Some(completions.clone()));
            let results = Engine::new(batch_options).run_rounds_on(jobs, &node.transport, &role);

            let mut failed: Option<(usize, atom_core::error::AtomError)> = None;
            for (index, result) in results.into_iter().enumerate() {
                let global = next + index;
                match result {
                    Ok(report) => reports[global] = Some(report),
                    Err(error) => {
                        if failed.as_ref().map(|(r, _)| global < *r).unwrap_or(true) {
                            failed = Some((global, error));
                        }
                    }
                }
            }
            let Some((failed_round, error)) = failed else {
                // Batch done: advance, and readmit at this healed boundary.
                stuck = 0;
                next = end;
                if next < shape.rounds {
                    for process in std::mem::take(&mut state.pending_rejoin) {
                        // The restarted peer listens on its old address but
                        // our outbound stream still points at the dead
                        // incarnation; drop it so the readmission plan
                        // reconnects fresh.
                        node.transport.reset_peer(process);
                        state.ledger.readmit(process);
                        state.live[process] = true;
                        state.rejoins.push((process, next));
                        atom_obs::count("fleet.rejoin.readmissions", 1);
                        println!("recovery: process {process} readmitted from round {next}");
                    }
                }
                continue 'epochs;
            };

            // Failure: everything below `failed_round` completed; diagnose
            // it and retry from there.
            next = failed_round;
            let verdict = FaultVerdict::diagnose(failed_round, &error, &owner, 0, |process| {
                process_servers(shape.num_servers, processes, process)
            });
            match verdict {
                Some(verdict) if verdict.process != 0 && state.live[verdict.process] => {
                    if let Err(error) = state.convict(&node, verdict, failed_round) {
                        break 'epochs Err(error);
                    }
                    stuck = 0;
                }
                _ => {
                    stuck += 1;
                    if stuck >= MAX_STUCK_RETRIES {
                        break 'epochs Err(format!(
                            "round {failed_round} failed {stuck} times with no actionable \
                             verdict: {error:?}"
                        ));
                    }
                    println!(
                        "recovery: round {failed_round} failed without a verdict (attempt \
                         {stuck}), retrying: {error:?}"
                    );
                }
            }
        };

        // Tell everyone — members, and any rejoiner still waiting — that
        // the run is over (round == rounds is the done sentinel), whether we
        // succeeded or gave up.
        let done = RejoinFrame {
            round: shape.rounds,
            process: 0,
            epoch: epoch + 1,
            response: true,
            commit: false,
            digest: state.ledger.digest(),
            evictions: state.ledger.active().to_vec(),
        };
        for process in 1..processes {
            let _ = node.send_control(process, &done);
        }
        node.transport.shutdown();
        run?;

        let reports: Vec<RoundReport> = reports
            .into_iter()
            .map(|report| report.expect("every round resolved"))
            .collect();
        let completions = completions
            .lock()
            .unwrap_or_else(|poison| poison.into_inner());
        let after_detection: Vec<(usize, Instant)> = state
            .detected
            .map(|detected| {
                completions
                    .iter()
                    .copied()
                    .filter(|(_, at)| *at > detected)
                    .collect()
            })
            .unwrap_or_default();
        let healed_latency = state
            .detected
            .and_then(|detected| after_detection.iter().map(|(_, at)| *at - detected).min());
        let healed_rounds: Vec<usize> = after_detection
            .iter()
            .map(|(round, _)| *round)
            .collect::<BTreeSet<usize>>()
            .into_iter()
            .collect();
        Ok(RecoveryOutcome {
            reports,
            evictions: state.evictions,
            rejoins: state.rejoins,
            round_evicted,
            round_failed,
            epochs: epoch,
            detected_at: state.detected.map(|instant| instant - start),
            healed_latency,
            healed_rounds,
            wall: start.elapsed(),
        })
    }
}

/// What a member is waiting for after acking a plan.
enum GoOrPlan {
    Go,
    Plan(RejoinFrame),
}

/// A member (process `index > 0`) of a fleet, connected and ready to run.
pub struct Member {
    node: FleetNode,
    rejoin: bool,
}

impl Member {
    /// Binds address `index` of `addrs` and connects to every peer. A
    /// member starting with the fleet derives the first batch's jobs here;
    /// with `rejoin` it announces itself as a restarted process instead
    /// (the catch-up handshake) and derives whatever its readmitting plan
    /// asks for.
    pub fn connect(
        shape: FleetShape,
        addrs: Vec<String>,
        index: usize,
        rejoin: bool,
        build: JobBuilder,
    ) -> Result<Self, String> {
        assert!(index > 0, "process 0 is the coordinator");
        Ok(Self {
            node: FleetNode::connect(shape, addrs, index, build, !rejoin)?,
            rejoin,
        })
    }

    /// Waits for each plan, mirrors the eviction log, acks, waits for the
    /// commit and runs its share of the batch — until the coordinator's
    /// done sentinel. Round failures during churn are expected and do not
    /// fail the member: the coordinator owns the diagnosis.
    pub fn run(self, options: EngineOptions) -> Result<(), String> {
        let Self { mut node, rejoin } = self;
        let index = node.index;
        let shape = node.shape;
        let mut ledger = RecoveryLedger::default();
        let mut epoch = 0usize;
        let mut requested_rejoin = false;
        if rejoin {
            atom_obs::count("fleet.rejoin.handshakes", 1);
            node.send_control(0, &rejoin_request(0, index, &ledger))
                .map_err(|reason| format!("rejoin request failed: {reason}"))?;
            requested_rejoin = true;
        }

        let mut carried: Option<RejoinFrame> = None;
        let mut known_dead: Vec<usize> = Vec::new();
        let result: Result<(), String> = loop {
            let plan = match carried.take() {
                Some(plan) => plan,
                None => {
                    let deadline = Instant::now() + plan_deadline(&options);
                    match wait_for_plan(&mut node, epoch, deadline) {
                        Ok(plan) => plan,
                        Err(error) => break Err(error),
                    }
                }
            };
            if plan.round >= shape.rounds {
                break Ok(());
            }
            epoch = plan.epoch;
            ledger.apply_plan(&plan.evictions, plan.round);
            if ledger.digest() != plan.digest {
                break Err("eviction-log digest diverged from the coordinator".into());
            }
            // A process that left the dead list was readmitted after a
            // restart: our outbound stream still points at its dead
            // incarnation, so drop it before this epoch's mixing frames are
            // lost into it.
            let now_dead = ledger.dead_processes();
            for &process in &known_dead {
                if !now_dead.contains(&process) && process != index {
                    node.transport.reset_peer(process);
                }
            }
            known_dead = now_dead;
            if known_dead.contains(&index) {
                // We are on the plan's dead list (evicted while alive, e.g.
                // convicted as slow). Ask back in once and wait for a plan
                // that readmits us.
                if !requested_rejoin {
                    atom_obs::count("fleet.rejoin.handshakes", 1);
                    if let Err(reason) =
                        node.send_control(0, &rejoin_request(plan.round, index, &ledger))
                    {
                        break Err(format!("rejoin request failed: {reason}"));
                    }
                    requested_rejoin = true;
                }
                continue;
            }
            requested_rejoin = false;

            // Mirror the agreed membership.
            let owner = node.adopt_membership(&known_dead);
            let end = batch_end(plan.round, shape.batch, shape.rounds);

            // Purge dead-epoch residue *before* acking: new-epoch frames
            // can only be sent after the coordinator has our ack.
            node.purge_mailboxes();
            node.inbox.clear();
            let ack = RejoinFrame {
                round: plan.round,
                process: index,
                epoch,
                response: false,
                commit: false,
                digest: ledger.digest(),
                evictions: Vec::new(),
            };
            atom_obs::count("fleet.handshake.acks", 1);
            if let Err(reason) = node.send_control(0, &ack) {
                break Err(format!("coordinator unreachable at ack: {reason}"));
            }
            let deadline = Instant::now() + plan_deadline(&options);
            match wait_for_go(&mut node, epoch, deadline) {
                Ok(GoOrPlan::Plan(newer)) => {
                    carried = Some(newer);
                    continue;
                }
                Ok(GoOrPlan::Go) => {}
                Err(error) => break Err(error),
            }

            // Build (and freeze) the batch only now that the epoch
            // committed: a plan abandoned before its go must leave nothing
            // frozen, or a later retry of the same rounds would heal them
            // under a membership the coordinator never agreed to.
            let jobs = node.batch_jobs(&mut ledger, plan.round..end);
            let batch_options = node.epoch_options(&options, epoch, plan.round, None);
            let role = EngineRole::member(hosted_groups(&owner, index));
            let total = jobs.len();
            let results = Engine::new(batch_options).run_rounds_on(jobs, &node.transport, &role);
            let resolved = results.iter().filter(|result| result.is_ok()).count();
            // Failures here are expected during churn — the coordinator
            // owns the diagnosis; we just report in and wait for the next
            // plan.
            println!(
                "fleet member {index}: epoch {epoch} rounds {}..{end} → {resolved}/{total} resolved",
                plan.round
            );
        };
        node.transport.shutdown();
        result
    }
}

/// A member's request to be (re)admitted, sent on restart or on finding
/// itself on a plan's dead list.
fn rejoin_request(round: usize, process: usize, ledger: &RecoveryLedger) -> RejoinFrame {
    RejoinFrame {
        round,
        process,
        epoch: 0,
        response: false,
        commit: false,
        digest: ledger.digest(),
        evictions: Vec::new(),
    }
}

/// Drops gossiped `evict` frames from the inbox (members learn evictions
/// from the next plan, which is authoritative), counting them.
fn drop_gossip(frame: &Frame) -> bool {
    if matches!(frame, Frame::Evict(_)) {
        atom_obs::count("fleet.evict.gossip_received", 1);
    }
    false
}

fn wait_for_plan(
    node: &mut FleetNode,
    after_epoch: usize,
    deadline: Instant,
) -> Result<RejoinFrame, String> {
    loop {
        let mut best: Option<RejoinFrame> = None;
        node.inbox.retain(|frame| match frame {
            Frame::Rejoin(frame) if frame.response && !frame.commit => {
                if frame.epoch > after_epoch
                    && best.as_ref().map(|b| frame.epoch > b.epoch).unwrap_or(true)
                {
                    best = Some(frame.clone());
                }
                false
            }
            other => drop_gossip(other),
        });
        if let Some(plan) = best {
            return Ok(plan);
        }
        if Instant::now() > deadline {
            return Err("no plan from the coordinator before the deadline".into());
        }
        node.collect_control();
        if node.inbox.is_empty() {
            std::thread::sleep(CONTROL_POLL);
        }
    }
}

fn wait_for_go(node: &mut FleetNode, epoch: usize, deadline: Instant) -> Result<GoOrPlan, String> {
    loop {
        let mut outcome: Option<GoOrPlan> = None;
        node.inbox.retain(|frame| match frame {
            Frame::Rejoin(frame) if frame.response && frame.commit && frame.epoch == epoch => {
                if outcome.is_none() {
                    outcome = Some(GoOrPlan::Go);
                }
                false
            }
            Frame::Rejoin(frame) if frame.response && !frame.commit && frame.epoch > epoch => {
                // The coordinator re-planned underneath us (another member
                // died between our ack and its commit).
                outcome = Some(GoOrPlan::Plan(frame.clone()));
                false
            }
            other => drop_gossip(other),
        });
        if let Some(outcome) = outcome {
            return Ok(outcome);
        }
        if Instant::now() > deadline {
            return Err(format!("no commit for epoch {epoch} before the deadline"));
        }
        node.collect_control();
        if node.inbox.is_empty() {
            std::thread::sleep(CONTROL_POLL);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{RoundCompleteHook, RoundDirectory, RoundSubmissions};
    use atom_core::config::{AtomConfig, Defense};
    use atom_core::directory::derive_setup;
    use atom_core::message::make_trap_submission;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn verdict(process: usize, servers: Vec<usize>, round: usize) -> FaultVerdict {
        FaultVerdict {
            round,
            process,
            kind: FaultKind::Dead,
            servers,
            reason: "test".into(),
        }
    }

    /// A small trap workload: the drills' stand-in for a benchmark's job
    /// builder. Every round derives from `(seed, round)` and the eviction
    /// and failure sets alone.
    #[derive(Clone, Copy)]
    struct Drill {
        groups: usize,
        rounds: usize,
        messages: usize,
        seed: u64,
    }

    impl Drill {
        fn config(&self, round: usize) -> AtomConfig {
            let mut config = AtomConfig::test_default();
            config.defense = Defense::Trap;
            config.num_groups = self.groups;
            config.num_servers = (self.groups * 3).max(config.group_size);
            config.required_honest = 2;
            config.iterations = 2;
            config.message_len = 32;
            config.round = round as u64;
            config.beacon_seed = self.seed ^ round as u64;
            config
        }

        fn shape(&self, batch: usize) -> FleetShape {
            let config = self.config(0);
            FleetShape {
                groups: self.groups,
                rounds: self.rounds,
                batch,
                num_servers: config.num_servers,
                group_size: config.group_size,
            }
        }

        fn job(&self, round: usize, evicted: &[usize], failed: &[usize], subs: bool) -> RoundJob {
            let mut config = self.config(round);
            config.evicted_servers = evicted.to_vec();
            let setup = derive_setup(&config).expect("derive drill directory");
            let mut rng = StdRng::seed_from_u64(self.seed ^ round as u64);
            let submissions = (0..if subs { self.messages } else { 0 })
                .map(|i| {
                    let gid = i % self.groups;
                    make_trap_submission(
                        gid,
                        &setup.groups[gid].public_key,
                        &setup.trustees.public_key,
                        config.round,
                        format!("drill r{round} m{i}").as_bytes(),
                        config.message_len,
                        &mut rng,
                    )
                    .expect("drill submission")
                    .0
                })
                .collect();
            let seed = self.seed.wrapping_add(round as u64);
            let mut job = RoundJob::new(setup, RoundSubmissions::Trap(submissions), seed);
            job.failed_servers = failed.to_vec();
            job
        }

        fn builder(self) -> JobBuilder {
            Box::new(move |round, evicted, failed, subs| self.job(round, evicted, failed, subs))
        }

        /// The in-memory rebuild of a fleet run from its recorded
        /// per-round membership, as comparable output bytes.
        fn reference(&self, evicted: &[Vec<usize>], failed: &[Vec<usize>]) -> Vec<OutputBytes> {
            let jobs = (0..self.rounds)
                .map(|round| self.job(round, &evicted[round], &failed[round], true))
                .collect();
            let reports: Vec<RoundReport> = Engine::with_workers(2)
                .run_rounds(jobs)
                .into_iter()
                .collect::<Result<_, _>>()
                .expect("drill reference run");
            output_bytes(&reports)
        }
    }

    type OutputBytes = (usize, Vec<Vec<Vec<u8>>>, Vec<Vec<u8>>);

    /// The deterministic fields of each round's output.
    fn output_bytes(reports: &[RoundReport]) -> Vec<OutputBytes> {
        reports
            .iter()
            .map(|report| {
                let output = &report.output;
                (
                    output.routed_ciphertexts,
                    output.per_group.clone(),
                    output.plaintexts.clone(),
                )
            })
            .collect()
    }

    fn drill_options(stall_timeout: Duration, delay: Duration, groups: usize) -> EngineOptions {
        let mut options = EngineOptions::with_workers(2);
        options.stall_timeout = stall_timeout;
        options.stragglers = (0..groups).map(|gid| (gid, delay)).collect();
        options
    }

    fn free_addrs(count: usize) -> Vec<String> {
        let listeners: Vec<std::net::TcpListener> = (0..count)
            .map(|_| std::net::TcpListener::bind("127.0.0.1:0").expect("reserve port"))
            .collect();
        listeners
            .iter()
            .map(|listener| listener.local_addr().expect("port").to_string())
            .collect()
    }

    type MemberHandle = std::thread::JoinHandle<Result<(), String>>;

    fn spawn_member(
        shape: FleetShape,
        drill: Drill,
        addrs: &[String],
        index: usize,
        rejoin: bool,
        options: EngineOptions,
    ) -> MemberHandle {
        let addrs = addrs.to_vec();
        std::thread::spawn(move || {
            Member::connect(shape, addrs, index, rejoin, drill.builder())?.run(options)
        })
    }

    #[test]
    fn batch_end_aligns_and_caps() {
        assert_eq!(batch_end(0, 2, 7), 2);
        assert_eq!(batch_end(1, 2, 7), 2);
        assert_eq!(batch_end(2, 2, 7), 4);
        assert_eq!(batch_end(6, 2, 7), 7);
        assert_eq!(batch_end(0, 10, 3), 3);
    }

    #[test]
    fn process_servers_partition_the_server_set() {
        let (num_servers, processes) = (11, 3);
        let mut seen = Vec::new();
        for process in 0..processes {
            seen.extend(process_servers(num_servers, processes, process));
        }
        seen.sort_unstable();
        assert_eq!(seen, (0..num_servers).collect::<Vec<_>>());
    }

    #[test]
    fn owner_map_round_robins_groups_and_pins_the_orchestrator() {
        assert_eq!(owner_map_excluding(4, 2, &[]), vec![0, 1, 0, 1, 0]);
        assert_eq!(owner_map_excluding(3, 1, &[]), vec![0, 0, 0, 0]);
        assert_eq!(
            hosted_groups(&owner_map_excluding(4, 2, &[]), 0),
            vec![0, 2]
        );
        assert_eq!(
            hosted_groups(&owner_map_excluding(4, 2, &[]), 1),
            vec![1, 3]
        );
        assert_eq!(hosted_groups(&owner_map_excluding(4, 3, &[]), 2), vec![2]);
    }

    #[test]
    fn owner_map_excluding_reassigns_dead_owners_to_survivors() {
        let owner = owner_map_excluding(5, 3, &[1]);
        // gid % 3 == 1 groups move to a survivor; everyone else stays.
        assert_eq!(owner[0], 0);
        assert_ne!(owner[1], 1);
        assert_eq!(owner[2], 2);
        assert_eq!(owner[3], 0);
        assert_ne!(owner[4], 1);
        // Orchestrator pinned to the coordinator.
        assert_eq!(owner[5], 0);
        // No evictions reproduces the plain round-robin map.
        assert_eq!(owner_map_excluding(5, 3, &[]), vec![0, 1, 2, 0, 1, 0]);
    }

    #[test]
    fn eviction_log_digest_tracks_content() {
        let empty = eviction_log_digest(&[]);
        let one = eviction_log_digest(&[verdict(1, vec![1, 4], 0)]);
        let other = eviction_log_digest(&[verdict(2, vec![2, 5], 0)]);
        assert_ne!(empty, one);
        assert_ne!(one, other);
        assert_eq!(one, eviction_log_digest(&[verdict(1, vec![1, 4], 0)]));
    }

    /// Round `round`'s job under `ledger`, freezing its membership — what
    /// a fleet process builds at a batch boundary.
    fn ledger_job(drill: &Drill, ledger: &mut RecoveryLedger, round: usize) -> RoundJob {
        let evicted = ledger.freeze(round);
        drill.job(round, &evicted, &ledger.failed_for(round), true)
    }

    fn job_fingerprint(job: &RoundJob) -> (Vec<usize>, Vec<usize>, Vec<[u8; 32]>) {
        let RoundDirectory::Full(setup) = &job.directory else {
            panic!("prebuilt directory expected");
        };
        (
            setup.config.evicted_servers.clone(),
            job.failed_servers.clone(),
            setup
                .groups
                .iter()
                .map(|group| group.public_key.0.compress().to_bytes())
                .collect(),
        )
    }

    #[test]
    fn member_mirror_matches_coordinator_ledger() {
        let drill = Drill {
            groups: 3,
            rounds: 3,
            messages: 6,
            seed: 0xA70,
        };
        let victims = process_servers(9, 3, 2);

        // Coordinator: build round 0, observe the failure, retry round 0
        // and move on to round 1.
        let mut coordinator = RecoveryLedger::default();
        let before = ledger_job(&drill, &mut coordinator, 0);
        coordinator.evict(verdict(2, victims.clone(), 0), 0);
        let retried = ledger_job(&drill, &mut coordinator, 0);
        let reformed = ledger_job(&drill, &mut coordinator, 1);

        // Member: built round 0 too, then mirrors the plan.
        let mut member = RecoveryLedger::default();
        let _ = ledger_job(&drill, &mut member, 0);
        member.apply_plan(coordinator.active(), 0);
        assert_eq!(member.digest(), coordinator.digest());
        assert_eq!(member.dead_processes(), vec![2]);
        let member_retried = ledger_job(&drill, &mut member, 0);
        let member_reformed = ledger_job(&drill, &mut member, 1);

        // The retried detection round keeps its membership (same DKG keys
        // as the pre-failure build) and heals the victims mid-flight; the
        // next round re-forms without them. Coordinator and member agree
        // byte-for-byte on both.
        let original = job_fingerprint(&before);
        let retried = job_fingerprint(&retried);
        assert_eq!(retried.0, original.0);
        assert_eq!(retried.2, original.2);
        assert_eq!(retried.1, victims);
        assert_eq!(retried, job_fingerprint(&member_retried));
        let reformed = job_fingerprint(&reformed);
        assert_eq!(reformed.0, victims);
        assert!(reformed.1.is_empty());
        assert_eq!(reformed, job_fingerprint(&member_reformed));
    }

    #[test]
    fn rejoined_member_rebuilds_identical_fresh_rounds() {
        let drill = Drill {
            groups: 3,
            rounds: 4,
            messages: 6,
            seed: 0xA70,
        };
        let mut coordinator = RecoveryLedger::default();
        let _ = ledger_job(&drill, &mut coordinator, 1);
        coordinator.evict(verdict(2, process_servers(9, 3, 2), 1), 1);
        let _ = ledger_job(&drill, &mut coordinator, 1);
        let _ = ledger_job(&drill, &mut coordinator, 2);
        coordinator.readmit(2);
        assert!(coordinator.active().is_empty());
        let fresh = ledger_job(&drill, &mut coordinator, 3);

        // The restarted process starts from an empty ledger plus the plan.
        let mut rejoiner = RecoveryLedger::default();
        rejoiner.apply_plan(coordinator.active(), 3);
        let mirrored = ledger_job(&drill, &mut rejoiner, 3);
        assert_eq!(job_fingerprint(&fresh), job_fingerprint(&mirrored));
        assert!(job_fingerprint(&fresh).0.is_empty());
    }

    /// The zero-fault case with no members at all: a fleet of one runs its
    /// rounds with an empty handshake and matches the in-memory run.
    #[test]
    fn single_process_fleet_needs_no_handshake() {
        let drill = Drill {
            groups: 2,
            rounds: 2,
            messages: 4,
            seed: 0x1F1,
        };
        let options = drill_options(Duration::from_secs(10), Duration::ZERO, drill.groups);
        let outcome = Coordinator::connect(drill.shape(1), free_addrs(1), drill.builder())
            .and_then(|coordinator| coordinator.run(options))
            .expect("a fleet of one completes");
        assert!(outcome.evictions.is_empty() && outcome.rejoins.is_empty());
        assert_eq!(outcome.epochs, drill.rounds);
        let none = vec![Vec::new(); drill.rounds];
        assert_eq!(
            output_bytes(&outcome.reports),
            drill.reference(&none, &none)
        );
    }

    /// The whole recovery loop in one process: a three-"process" fleet
    /// (threads with real TCP transports) loses member 2 between batches,
    /// the coordinator convicts it on the handshake timeout and gossips the
    /// verdict, the survivors re-form its groups and keep delivering, a
    /// restarted member 2 rejoins on the same address mid-run — and the
    /// final outputs are byte-identical to an in-memory rebuild from the
    /// eviction log.
    #[test]
    fn fleet_evicts_dead_member_heals_and_readmits_rejoiner() {
        let drill = Drill {
            groups: 3,
            rounds: 6,
            messages: 6,
            seed: 0x4EA1,
        };
        let shape = drill.shape(1);
        let options = drill_options(
            Duration::from_secs(1),
            Duration::from_millis(25),
            drill.groups,
        );
        let addrs = free_addrs(3);

        let m1 = spawn_member(shape, drill, &addrs, 1, false, options.clone());
        // Process 2's first incarnation believes the workload is one round
        // long: it completes round 0, then exits and shuts its transport
        // down when the round-1 plan arrives — an abrupt disappearance as
        // far as the rest of the fleet is concerned.
        let short = FleetShape { rounds: 1, ..shape };
        let m2a = spawn_member(short, drill, &addrs, 2, false, options.clone());
        // Its second incarnation restarts on the same address once the
        // fleet has demonstrably healed (first post-eviction round done)
        // and asks to rejoin.
        let restarted: Arc<Mutex<Option<MemberHandle>>> = Arc::new(Mutex::new(None));
        let hook: RoundCompleteHook = {
            let restarted = restarted.clone();
            let (addrs, options) = (addrs.clone(), options.clone());
            Arc::new(move |round| {
                if round == 1 {
                    let handle = spawn_member(shape, drill, &addrs, 2, true, options.clone());
                    restarted
                        .lock()
                        .unwrap_or_else(|poison| poison.into_inner())
                        .replace(handle);
                }
            })
        };
        let mut coordinator_options = options;
        coordinator_options.on_round_complete = Some(hook);

        let outcome = Coordinator::connect(shape, addrs, drill.builder())
            .and_then(|coordinator| coordinator.run(coordinator_options))
            .expect("recovery completes every round");

        assert!(
            m2a.join().unwrap().is_ok(),
            "first incarnation exits cleanly"
        );
        assert!(m1.join().unwrap().is_ok(), "surviving member exits cleanly");
        let m2b = restarted
            .lock()
            .unwrap_or_else(|poison| poison.into_inner())
            .take()
            .expect("restart scheduled at the first healed round");
        assert!(m2b.join().unwrap().is_ok(), "rejoiner exits cleanly");

        // Exactly process 2 was convicted, as dead, and later readmitted.
        let convicted: Vec<usize> = outcome.evictions.iter().map(|v| v.process).collect();
        assert_eq!(convicted, vec![2]);
        assert!(matches!(outcome.evictions[0].kind, FaultKind::Dead));
        assert_eq!(outcome.rejoins.len(), 1);
        let (process, round) = outcome.rejoins[0];
        assert_eq!(process, 2);
        assert!(
            round > 1 && round < drill.rounds,
            "readmitted mid-run, not at the end (round {round})"
        );
        // The rejoined process hosts groups again from that round on.
        assert!(!hosted_groups(&owner_map_excluding(drill.groups, 3, &[]), 2).is_empty());

        // Every round delivered despite the churn, and the healing
        // latency was measured.
        let delivered: usize = outcome
            .reports
            .iter()
            .map(|r| r.output.plaintexts.len())
            .sum();
        assert_eq!(delivered, drill.rounds * drill.messages);
        assert!(outcome.detected_at.is_some());
        assert!(outcome.healed_latency.is_some());
        assert!(!outcome.healed_rounds.is_empty());

        // Byte-determinism given the eviction log: an in-memory rebuild
        // from the recorded per-round membership matches the fleet.
        assert_eq!(
            output_bytes(&outcome.reports),
            drill.reference(&outcome.round_evicted, &outcome.round_failed)
        );
        // Round 0 ran with full membership, the rounds after the death
        // re-formed without process 2's servers, and the rounds after
        // readmission include them again.
        assert!(outcome.round_evicted[0].is_empty());
        assert_eq!(outcome.round_evicted[1], process_servers(9, 3, 2));
        assert!(outcome.round_evicted[round].is_empty());
    }

    /// Slow-loris chaos drill: process 1 drips frames slowly enough to keep
    /// the stall detector happy forever, so only the coordinator's round
    /// clock can catch it. The drill asserts the full arc — `Slow`
    /// conviction, the courtesy plan reaching the evicted-but-alive member,
    /// its rejoin and readmission, a fresh conviction after every
    /// readmission — and that the healed rounds are byte-identical to an
    /// in-memory rebuild from the recorded per-round membership.
    #[test]
    fn fleet_convicts_slow_loris_member_and_heals() {
        let loris = Duration::from_secs(5);
        let drill = Drill {
            groups: 3,
            rounds: 3,
            messages: 6,
            seed: 0x510E,
        };
        let shape = drill.shape(1);
        // The drip (one 5 s straggle per iteration) never leaves a 20 s
        // progress gap; the 5 s round clock fires long before the member's
        // ~10 s round could finish.
        let honest = drill_options(Duration::from_secs(20), Duration::ZERO, drill.groups);
        let addrs = free_addrs(3);

        let m1 = spawn_member(
            shape,
            drill,
            &addrs,
            1,
            false,
            drill_options(Duration::from_secs(20), loris, drill.groups),
        );
        let m2 = spawn_member(shape, drill, &addrs, 2, false, honest.clone());
        // Gate: hold the coordinator at the first healed round until the
        // convicted member has certainly woken from its drip sleep and sent
        // its rejoin request (bounded by one residual drip plus slack), so
        // at least one readmission happens before the final batch boundary.
        // WHICH boundary collects the request still races the member's
        // wake-up, so the assertions below are boundary-agnostic.
        let mut coordinator_options = honest;
        coordinator_options.round_deadline = Duration::from_secs(5);
        coordinator_options.on_round_complete = Some(Arc::new(move |round| {
            if round == 0 {
                std::thread::sleep(loris + Duration::from_secs(2));
            }
        }));

        let outcome = Coordinator::connect(shape, addrs, drill.builder())
            .and_then(|coordinator| coordinator.run(coordinator_options))
            .expect("recovery completes every round");
        assert!(
            m1.join().unwrap().is_ok(),
            "loris member exits cleanly on the done sentinel"
        );
        assert!(m2.join().unwrap().is_ok(), "honest member exits cleanly");

        // Convicted as slow (not dead, not blamed) every time it was
        // admitted: once in the original membership, once more after every
        // readmission — the drip always outlives the round clock.
        assert_eq!(
            outcome.evictions.len(),
            outcome.rejoins.len() + 1,
            "one conviction per admission: {:?} vs {:?}",
            outcome.evictions,
            outcome.rejoins
        );
        for verdict in &outcome.evictions {
            assert_eq!(verdict.process, 1);
            assert!(
                matches!(verdict.kind, FaultKind::Slow),
                "expected a Slow verdict: {verdict:?}"
            );
        }
        // The courtesy plan told the evicted-but-alive member about its
        // eviction; it asked back in and was readmitted at a later batch
        // boundary (which one depends on when its wake-up races the epoch
        // purge — any admitted round except the first qualifies).
        assert!(!outcome.rejoins.is_empty(), "never readmitted");
        for &(process, round) in &outcome.rejoins {
            assert_eq!(process, 1);
            assert!((1..drill.rounds).contains(&round), "rejoin at {round}");
        }

        // Liveness floor: every round delivered despite repeated evictions.
        let delivered: usize = outcome
            .reports
            .iter()
            .map(|r| r.output.plaintexts.len())
            .sum();
        assert_eq!(delivered, drill.rounds * drill.messages);
        assert!(outcome.detected_at.is_some());

        // Byte-determinism given the eviction log: an in-memory rebuild
        // from the recorded per-round membership matches the fleet.
        assert_eq!(
            output_bytes(&outcome.reports),
            drill.reference(&outcome.round_evicted, &outcome.round_failed)
        );
    }
}
