//! The parallel group-actor execution engine.
//!
//! [`Engine::run_rounds`] executes one or more Atom rounds over a scoped
//! worker pool. Each anytrust group of each round is a
//! [`GroupActor`] behind a mutex; workers pull
//! tasks from a shared queue and exchange serialized sub-batches through a
//! [`Transport`] mailbox per group — an [`InMemoryNetwork`] by default, or
//! any other backend (e.g. [`atom_net::TcpTransport`]) via
//! [`Engine::run_rounds_on`], which also lets one engine instance host only
//! a *subset* of the groups so a round spans several OS processes (see
//! [`EngineRole`]). There is no barrier anywhere:
//!
//! * **Within a round**, a group steps mixing iteration `i + 1` as soon as
//!   all of its inbound sub-batches for `i + 1` have arrived, so fast groups
//!   pipeline ahead of stragglers.
//! * **Across rounds**, every round's submission intake is a set of queue
//!   tasks like any other, so round `r + 1`'s proof verification and entry
//!   mixing overlap round `r`'s tail.
//! * **Within an intake**, a round's submissions split into
//!   [`IntakeChunk`](EngineOptions::intake_chunk)-sized verification tasks,
//!   so proof checking parallelizes across workers inside a single round;
//!   chunk results merge deterministically (in submission order, first
//!   failure wins) before the iteration-0 batches are released.
//! * **Before a round**, a [`RoundDirectory::Sharded`] job's directory —
//!   group formation and the per-group DKGs — is itself a set of queue
//!   tasks: each process derives only the DKGs of its hosted groups and
//!   ships the public results to its peers as `setup` wire frames, so round
//!   `r + 1`'s directory work overlaps round `r`'s mixing tail, and adding
//!   processes divides the DKG work instead of replicating it.
//!
//! Determinism: all randomness of round `r` derives from
//! `RoundJob::seed` — the master draw mirrors the sequential
//! [`RoundDriver`](atom_core::round::RoundDriver) consuming the first
//! `next_u64` of `StdRng::seed_from_u64(seed)`, and each group actor owns the
//! stream `group_stream_seed(master, round, gid)`. Scheduling therefore
//! cannot influence any byte produced; for equal seeds the engine's
//! [`RoundOutput`] is identical to the sequential driver's.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, PoisonError};
use std::time::{Duration, Instant};

use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use atom_core::actor::{ActorConfig, ActorOutput, GroupActor, SOURCE};
use atom_core::adversary::AdversaryPlan;
use atom_core::config::{AtomConfig, Defense};
use atom_core::directory::{
    derive_buddies, derive_group, derive_members, derive_trustees, GroupContext, RoundSetup,
    TrusteeContext,
};
use atom_core::error::{AtomError, AtomResult, EngineErrorKind};
use atom_core::group::GroupStepOptions;
use atom_core::message::{NizkSubmission, TrapSubmission};
use atom_core::round::{
    collect_round_timings, finish_nizk_round, finish_trap_round, hop_latency,
    verify_nizk_submissions_range, verify_trap_submissions_range, RoundOutput, RoundTimings,
};
use atom_crypto::commit::Commitment;
use atom_crypto::elgamal::{MessageCiphertext, PublicKey};
use atom_crypto::RistrettoPoint;
use curve25519_dalek::traits::Identity;

use atom_net::{InMemoryNetwork, LatencyModel, TrafficStats, Transport};

use crate::wire;
use crate::wire::{ExitFrame, Frame, SetupFrame, TelemetryFrame};

/// Envelope label of serialized mixing sub-batches (static: no per-message
/// allocation on the hot path).
pub const MIX_LABEL: &str = "atom/mix";

/// Envelope label of exit frames (group → orchestrator).
pub const EXIT_LABEL: &str = "atom/exit";

/// Envelope label of abort notifications.
pub const ABORT_LABEL: &str = "atom/abort";

/// Envelope label of sharded-setup directory frames (group → peers).
pub const SETUP_LABEL: &str = "atom/setup";

/// Envelope label of telemetry snapshots (member → orchestrator). Purely
/// observational: only sent while [`atom_obs`] recording is enabled, and
/// never able to alter a round's protocol output.
pub const TELEMETRY_LABEL: &str = "atom/telemetry";

/// Envelope label of eviction verdicts (coordinator → members).
pub const EVICT_LABEL: &str = "atom/evict";

/// Envelope label of rejoin/catch-up handshake frames.
pub const REJOIN_LABEL: &str = "atom/rejoin";

/// Callback invoked with a round index each time that round resolves
/// *successfully* in this process (see
/// [`EngineOptions::on_round_complete`]).
pub type RoundCompleteHook = Arc<dyn Fn(usize) + Send + Sync>;

/// Shared stash for membership-control frames (`evict`, `rejoin`) observed
/// while an engine run is active (see [`EngineOptions::control_sink`]).
pub type ControlSink = Arc<Mutex<Vec<wire::Frame>>>;

/// A fresh, empty [`ControlSink`] — the constructor crates without a
/// `parking_lot` dependency use.
pub fn new_control_sink() -> ControlSink {
    Arc::new(Mutex::new(Vec::new()))
}

/// Engine-wide execution options.
#[derive(Clone)]
pub struct EngineOptions {
    /// Worker threads driving group actors.
    pub workers: usize,
    /// Latency model for inter-group hops (virtual-clock accounting).
    pub latency: LatencyModel,
    /// Intra-group re-encryption threads (see `GroupStepOptions`).
    pub parallelism: usize,
    /// Artificial per-iteration compute delay per group id, used to emulate
    /// slow groups (stragglers) and per-group server hardware.
    pub stragglers: Vec<(usize, Duration)>,
    /// Submissions per intake-verification chunk. A round's intake splits
    /// into `⌈n / intake_chunk⌉` independent queue tasks so proof
    /// verification parallelizes across workers *within* a round; chunk
    /// results merge deterministically before batch release, so the
    /// produced `RoundOutput` is byte-identical for any chunking. `0`
    /// (default) auto-sizes to spread one round's intake evenly across the
    /// worker pool.
    pub intake_chunk: usize,
    /// Stall detector: if rounds are pending, no task is executing and no
    /// task has *finished* for this long, the engine fails every
    /// unresolved round instead of waiting forever. In a single process a
    /// stall is a bug; in a multi-process run it is how a peer process
    /// dying without a word (crash, OOM-kill) surfaces — TCP gives the
    /// survivor no abort frame, only silence. Default 120 s.
    pub stall_timeout: Duration,
    /// Invoked each time a round resolves successfully in this process
    /// (coordinator: the full report is finalized; member: the local stub
    /// resolved). Recovery orchestration uses it for round-indexed fault
    /// scheduling and detection-to-healed-round latency without polling.
    /// Called from worker threads; must not call back into the engine.
    pub on_round_complete: Option<RoundCompleteHook>,
    /// Where `evict`/`rejoin` frames that race into an *active* engine run
    /// are stashed. Membership control is an orchestration-layer concern
    /// that happens *between* engine runs; a control frame arriving mid-run
    /// (e.g. an eviction broadcast overtaking a member's own stall
    /// detection) must neither fail a round as malformed traffic nor be
    /// silently eaten. With no sink configured such frames are counted and
    /// dropped.
    pub control_sink: Option<ControlSink>,
    /// Epoch fence: the wire round id of this run's first job. Protocol
    /// frames go out as `round_offset + job_index` and inbound frames below
    /// the offset are dropped as stale. Recovery orchestration gives each
    /// engine run (epoch) a disjoint id range, so a straggler frame from a
    /// failed epoch can never alias the retry of the same round. `0`
    /// (default) reproduces the historical wire bytes exactly.
    pub round_offset: usize,
    /// Streaming-intake window: at most this many intake chunks are
    /// scheduled (and therefore materialized) at once per round, so a
    /// 10M-submission round holds only `intake_window × intake_chunk`
    /// submissions in memory. Each finishing chunk releases the next, and
    /// chunk results still merge in chunk order, so the produced
    /// `RoundOutput` is byte-identical for any window. `0` (default)
    /// schedules every chunk up front (the historical behaviour).
    pub intake_window: usize,
    /// Hard cap on a round's offered submissions. A round offering more
    /// fails closed at admission — before a single submission is
    /// materialized or verified — with a `ProtocolAbort` diagnosis naming
    /// the flood. `0` (default) disables the cap.
    pub intake_cap: usize,
    /// Wall-clock deadline per round, measured from the coordinator's first
    /// intake work for that round. The stall detector only catches total
    /// silence; a slow-loris peer dripping one frame per stall window keeps
    /// it quiet forever. When a round outlives this deadline it fails with
    /// [`EngineErrorKind::Deadline`] and the usual named stall diagnosis, so
    /// recovery can convict the slow peer. `Duration::ZERO` (default)
    /// disables the deadline.
    pub round_deadline: Duration,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            latency: LatencyModel::Zero,
            parallelism: 1,
            stragglers: Vec::new(),
            intake_chunk: 0,
            stall_timeout: Duration::from_secs(120),
            on_round_complete: None,
            control_sink: None,
            round_offset: 0,
            intake_window: 0,
            intake_cap: 0,
            round_deadline: Duration::ZERO,
        }
    }
}

impl std::fmt::Debug for EngineOptions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EngineOptions")
            .field("workers", &self.workers)
            .field("latency", &self.latency)
            .field("parallelism", &self.parallelism)
            .field("stragglers", &self.stragglers)
            .field("intake_chunk", &self.intake_chunk)
            .field("stall_timeout", &self.stall_timeout)
            .field("on_round_complete", &self.on_round_complete.is_some())
            .field("control_sink", &self.control_sink.is_some())
            .field("round_offset", &self.round_offset)
            .field("intake_window", &self.intake_window)
            .field("intake_cap", &self.intake_cap)
            .field("round_deadline", &self.round_deadline)
            .finish()
    }
}

impl EngineOptions {
    /// Options with an explicit worker count.
    pub fn with_workers(workers: usize) -> Self {
        Self {
            workers: workers.max(1),
            ..Self::default()
        }
    }
}

/// What part a process plays in a (possibly multi-process) engine run.
///
/// Node-id convention on the transport: group `g` owns mailbox `g`, and the
/// round orchestrator owns the transport's **last** node
/// (`transport.nodes() - 1`). The orchestrator's process — the
/// *coordinator* — verifies submission intake, injects the iteration-0
/// batches, collects every group's exit frame and produces the round's
/// [`RoundReport`]. Every process hosts the actors of its `hosted` group
/// ids; a group's mailbox must be local to the process hosting its actor.
#[derive(Clone, Debug)]
pub struct EngineRole {
    /// Group ids whose actors run in this process.
    pub hosted: Vec<usize>,
    /// Whether this process is the coordinator (runs intake, collects
    /// exits, reports results).
    pub coordinator: bool,
}

impl EngineRole {
    /// The classic single-process role: coordinator hosting every group.
    pub fn standalone(num_groups: usize) -> Self {
        Self {
            hosted: (0..num_groups).collect(),
            coordinator: true,
        }
    }

    /// A coordinator hosting `hosted` groups (possibly none).
    pub fn coordinator(hosted: Vec<usize>) -> Self {
        Self {
            hosted,
            coordinator: true,
        }
    }

    /// A non-coordinator member hosting `hosted` groups.
    pub fn member(hosted: Vec<usize>) -> Self {
        Self {
            hosted,
            coordinator: false,
        }
    }

    fn hosts(&self, gid: usize) -> bool {
        self.hosted.contains(&gid)
    }

    /// How many of this role's groups participate in a round of
    /// `num_groups` groups.
    fn hosted_in_round(&self, num_groups: usize) -> usize {
        self.hosted.iter().filter(|&&g| g < num_groups).count()
    }
}

/// A materialized block of submissions, as produced by a
/// [`SubmissionSource`] for one intake chunk.
#[derive(Clone, Debug)]
pub enum SubmissionBlock {
    /// NIZK-variant submissions (§4.3).
    Nizk(Vec<NizkSubmission>),
    /// Trap-variant submissions (§4.4).
    Trap(Vec<TrapSubmission>),
}

impl SubmissionBlock {
    /// Number of submissions in the block.
    pub fn len(&self) -> usize {
        match self {
            SubmissionBlock::Nizk(subs) => subs.len(),
            SubmissionBlock::Trap(subs) => subs.len(),
        }
    }

    /// Whether the block is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A deterministic, range-addressable stream of round submissions.
///
/// The engine never materializes the whole stream: intake pulls one
/// [`SubmissionBlock`] per chunk via [`generate`](Self::generate), bounded
/// by [`EngineOptions::intake_window`], so a 10M-submission round holds
/// only a window in memory. Implementations must be **pure in the range**:
/// `generate(a..b)` followed by `generate(b..c)` yields exactly the
/// submissions `generate(a..c)` would — typically by seeding a per-index
/// RNG from a hash of `(seed, index)` — so the round output is
/// byte-identical to materializing the stream up front, whatever the
/// window or chunking.
pub trait SubmissionSource: Send + Sync {
    /// Total submissions the stream offers this round.
    fn total(&self) -> usize;
    /// Which protocol variant the submissions belong to.
    fn defense(&self) -> Defense;
    /// Materialize the half-open index range `range.0 .. range.1`. The
    /// returned block must match [`defense`](Self::defense) and hold
    /// exactly `range.1 - range.0` submissions.
    fn generate(&self, range: (usize, usize)) -> AtomResult<SubmissionBlock>;
}

/// The submissions of one round.
#[derive(Clone)]
pub enum RoundSubmissions {
    /// NIZK-variant submissions (§4.3), materialized up front.
    Nizk(Vec<NizkSubmission>),
    /// Trap-variant submissions (§4.4), materialized up front.
    Trap(Vec<TrapSubmission>),
    /// A deterministic stream materialized chunk-by-chunk during intake
    /// (see [`SubmissionSource`]).
    Stream(Arc<dyn SubmissionSource>),
}

impl std::fmt::Debug for RoundSubmissions {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoundSubmissions::Nizk(subs) => f.debug_tuple("Nizk").field(&subs.len()).finish(),
            RoundSubmissions::Trap(subs) => f.debug_tuple("Trap").field(&subs.len()).finish(),
            RoundSubmissions::Stream(source) => f
                .debug_struct("Stream")
                .field("total", &source.total())
                .field("defense", &source.defense())
                .finish(),
        }
    }
}

impl RoundSubmissions {
    /// Number of submissions the round offers (streams report their total
    /// without materializing anything).
    pub fn len(&self) -> usize {
        match self {
            RoundSubmissions::Nizk(subs) => subs.len(),
            RoundSubmissions::Trap(subs) => subs.len(),
            RoundSubmissions::Stream(source) => source.total(),
        }
    }

    /// Whether the round offers no submissions.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The protocol variant of the submissions.
    pub fn defense(&self) -> Defense {
        match self {
            RoundSubmissions::Nizk(_) => Defense::Nizk,
            RoundSubmissions::Trap(_) => Defense::Trap,
            RoundSubmissions::Stream(source) => source.defense(),
        }
    }
}

/// How a round's directory ([`RoundSetup`]) comes to exist in this process.
#[derive(Clone, Debug)]
pub enum RoundDirectory {
    /// The full directory — every group's DKG — was derived (or loaded)
    /// ahead of time, e.g. via [`atom_core::directory::setup_round`] or
    /// [`atom_core::directory::derive_setup`].
    Full(RoundSetup),
    /// Sharded: this process derives **only the DKGs of the groups it
    /// hosts** ([`atom_core::directory::derive_group`], one queue task per
    /// hosted group), ships the public half of each result to its peers as
    /// `setup` wire frames, and assembles the round's directory from its
    /// peers' frames before any of its actors mix. The coordinator
    /// additionally derives the trustee DKG. Because each group's DKG draws
    /// from its own beacon-derived stream, the assembled directory — and
    /// therefore the round's [`RoundOutput`] — is byte-identical to the
    /// monolithic [`derive_setup`](atom_core::directory::derive_setup) of
    /// the same config, whatever the process layout.
    Sharded(AtomConfig),
}

impl RoundDirectory {
    /// The deployment configuration of either variant.
    pub fn config(&self) -> &AtomConfig {
        match self {
            RoundDirectory::Full(setup) => &setup.config,
            RoundDirectory::Sharded(config) => config,
        }
    }
}

/// One round to execute.
#[derive(Clone)]
pub struct RoundJob {
    /// Where the round's directory comes from (prebuilt or sharded).
    pub directory: RoundDirectory,
    /// User submissions.
    pub submissions: RoundSubmissions,
    /// Seed of all round randomness (equal seeds ⇒ byte-identical output to
    /// `RoundDriver` with `StdRng::seed_from_u64(seed)`).
    pub seed: u64,
    /// Optional active adversary.
    pub adversary: Option<AdversaryPlan>,
    /// Servers failed before the round starts.
    pub failed_servers: Vec<usize>,
    /// Mid-round churn: `(iteration, server)` failures applied as groups
    /// reach `iteration`.
    pub churn: Vec<(usize, usize)>,
}

impl RoundJob {
    /// A job with a prebuilt directory and no adversary, failures or churn.
    pub fn new(setup: RoundSetup, submissions: RoundSubmissions, seed: u64) -> Self {
        Self::with_directory(RoundDirectory::Full(setup), submissions, seed)
    }

    /// A job whose directory is derived *inside* the engine run, sharded
    /// across the participating processes (see [`RoundDirectory::Sharded`]).
    /// Only the coordinator's `submissions` are consulted; members may pass
    /// an empty vector of the matching variant.
    pub fn sharded(config: AtomConfig, submissions: RoundSubmissions, seed: u64) -> Self {
        Self::with_directory(RoundDirectory::Sharded(config), submissions, seed)
    }

    fn with_directory(directory: RoundDirectory, submissions: RoundSubmissions, seed: u64) -> Self {
        Self {
            directory,
            submissions,
            seed,
            adversary: None,
            failed_servers: Vec::new(),
            churn: Vec::new(),
        }
    }

    /// The deployment configuration of the round.
    pub fn config(&self) -> &AtomConfig {
        self.directory.config()
    }

    /// The prebuilt directory, if this job carries one.
    pub fn full_setup(&self) -> Option<&RoundSetup> {
        match &self.directory {
            RoundDirectory::Full(setup) => Some(setup),
            RoundDirectory::Sharded(_) => None,
        }
    }
}

/// The result of one engine-executed round.
///
/// The coordinator's report is authoritative: its `output` is the round's
/// protocol output and its traffic counters cover the whole round (intake
/// injections plus every group's forwards, reported in the groups' exit
/// frames). A non-coordinator member resolves each round with a *stub*
/// report — empty `output`, traffic counters covering only its local groups
/// — since the protocol result lives with the coordinator.
#[derive(Clone, Debug)]
pub struct RoundReport {
    /// The protocol output, byte-identical to the sequential driver's.
    pub output: RoundOutput,
    /// Pipelined end-to-end latency: the latest group exit on the virtual
    /// clock (arrival-gated, no per-iteration barrier). Compare with
    /// `output.timings.end_to_end()`, the barrier model.
    pub pipelined_latency: Duration,
    /// Wall-clock time from intake to the last exit.
    pub wall_clock: Duration,
    /// Wall-clock time from engine start until this round's directory was
    /// ready in this process — local DKGs run, every peer's setup frame
    /// received, actors constructed. Always zero for
    /// [`RoundDirectory::Full`] jobs, whose directory predates the engine.
    /// Because setup runs as ordinary queue tasks, later rounds' directory
    /// work overlaps earlier rounds' mixing, so per-round setup latencies
    /// of one run are *not* additive.
    pub setup_latency: Duration,
    /// Mixing messages this round pushed through the transport.
    pub mix_messages: u64,
    /// Mixing bytes this round pushed through the transport.
    pub mix_bytes: u64,
    /// Fleet-wide telemetry for this round, one snapshot per process
    /// (sorted by process index): the coordinator's own spans/counters plus
    /// every member's `telemetry` wire frame. Empty unless
    /// [`atom_obs`] recording was enabled for the run.
    pub telemetry: Vec<atom_obs::Snapshot>,
}

enum Task {
    IntakeChunk {
        round: usize,
        chunk: usize,
    },
    Deliver {
        node: usize,
    },
    /// Derive the DKG of one locally hosted group of a sharded round and
    /// broadcast its public half to every remote mailbox.
    SetupGroup {
        round: usize,
        gid: usize,
    },
    /// Derive the trustee DKG of a sharded round (coordinator only).
    SetupTrustees {
        round: usize,
    },
}

/// Verified intake of one submission chunk: per-entry-group sub-batches and
/// (trap variant) commitments, covering `IntakeChunk`'s submission range.
struct ChunkIntake {
    batches: Vec<Vec<MessageCiphertext>>,
    commitments: Vec<Vec<Commitment>>,
}

struct IntakeState {
    /// Chunks not yet verified; the worker that takes this to zero merges
    /// and releases the round's iteration-0 batches.
    pending: usize,
    /// Per-chunk verification results, merged in chunk order (so the first
    /// failing submission wins, exactly like the sequential driver).
    results: Vec<Option<AtomResult<ChunkIntake>>>,
}

struct ExitState {
    payloads: Vec<Option<Vec<Vec<u8>>>>,
    /// Exit frames the coordinator has collected (counts every group of the
    /// round, local and remote).
    exits_done: usize,
    /// Local actors that reached their exit layer (what a member resolves
    /// its rounds on).
    local_exits: usize,
    routed: usize,
    commitments: Vec<Vec<Commitment>>,
    /// Per-group measured compute times, as reported in exit frames.
    computes: Vec<Vec<Duration>>,
    started: Option<Instant>,
    pipelined: Duration,
    /// Mixing traffic accumulated from the groups' exit frames.
    group_mix_messages: u64,
    group_mix_bytes: u64,
    /// Member telemetry snapshots collected at the orchestrator, at most
    /// one per sending process (duplicates are benign no-ops). While
    /// recording is enabled the round finalizes only once these cover
    /// every remotely hosted group, so the merged report and fleet trace
    /// span all processes.
    telemetry: Vec<TelemetryFrame>,
    /// Set by [`claim_finalization`] when one handler takes ownership of
    /// the round's finalization.
    finalizing: bool,
}

/// What actor construction needs from a [`RoundJob`], retained per round so
/// sharded rounds can build their actors once the directory is assembled.
struct ActorSpec {
    master_seed: u64,
    defense: Defense,
    adversary: Option<AdversaryPlan>,
    failed_servers: Vec<usize>,
    churn: Vec<(usize, usize)>,
}

/// In-flight state of a sharded round's distributed directory derivation.
/// Absent for [`RoundDirectory::Full`] jobs.
struct SetupPhase {
    /// When this process started working toward the round's directory
    /// (engine start; feeds [`RoundReport::setup_latency`]).
    started: Instant,
    /// Hosted groups whose local DKG has not finished yet.
    pending_local: usize,
    /// Remote groups whose setup frame has not arrived yet.
    remote_missing: usize,
    /// Collected contexts: full (with shares) for hosted groups, public-only
    /// for remote ones.
    groups: Vec<Option<GroupContext>>,
    /// The trustee context (coordinator only; derived locally).
    trustees: Option<TrusteeContext>,
    /// Whether completion requires the trustee DKG (iff coordinator).
    need_trustees: bool,
    /// Mix envelopes that arrived before the directory was ready, replayed
    /// in arrival order by `finish_setup`. `(destination gid, envelope)`.
    buffered: Vec<(usize, wire::MixEnvelope)>,
    /// Hard cap on `buffered`: a legitimate round delivers at most
    /// `groups × (1 + groups × iterations)` mix frames in total, so growth
    /// past that is a hostile or broken peer streaming frames while
    /// withholding its setup frames — fail the round instead of buffering
    /// without bound.
    buffer_cap: usize,
    /// Set once `finish_setup` has taken ownership of the collected
    /// contexts: no further frame may mutate this state.
    sealed: bool,
    /// The group public keys the directory was assembled with, recorded at
    /// seal time. Late setup frames are cross-checked against these: an
    /// equivocating peer that lands its forged frame first must still be
    /// caught — and the round killed with the conflict named — when its
    /// genuine frame (or a second forged story) arrives after sealing.
    sealed_keys: Vec<PublicKey>,
    /// Set once actors exist and mixing may proceed.
    ready: bool,
}

impl SetupPhase {
    fn complete(&self) -> bool {
        self.pending_local == 0
            && self.remote_missing == 0
            && (!self.need_trustees || self.trustees.is_some())
    }
}

struct JobState {
    config: AtomConfig,
    /// The round's directory. Set at construction for prebuilt jobs, by
    /// `finish_setup` for sharded ones; reads outside the setup phase go
    /// through [`JobState::round_setup`].
    setup: OnceLock<RoundSetup>,
    /// Sharded-setup progress (`None` for prebuilt directories).
    phase: Option<Mutex<SetupPhase>>,
    /// Wall-clock cost of the setup phase, for the round report.
    setup_latency: Mutex<Duration>,
    actor_spec: ActorSpec,
    submissions: RoundSubmissions,
    /// One lazily initialized slot per group id; never set for groups
    /// hosted by another process.
    actors: Vec<OnceLock<Mutex<GroupActor>>>,
    /// Submission index ranges of the intake chunks.
    chunks: Vec<(usize, usize)>,
    intake: Mutex<IntakeState>,
    /// Next intake chunk index to schedule under the streaming window
    /// ([`EngineOptions::intake_window`]): each finishing chunk fetch-adds
    /// here and enqueues the claimed index, keeping at most `window` chunks
    /// in flight. Starts at `chunks.len()` when the window is unbounded so
    /// the fetch-add finds nothing left to schedule.
    next_chunk: AtomicUsize,
    /// Submissions currently materialized by in-flight streaming chunks
    /// (feeds the `engine.intake.peak_in_flight` gauge).
    stream_in_flight: AtomicUsize,
    exit: Mutex<ExitState>,
    result: Mutex<Option<AtomResult<RoundReport>>>,
    /// Iteration-0 injections by the local intake (coordinator only).
    intake_mix_messages: AtomicU64,
    intake_mix_bytes: AtomicU64,
    /// Forward traffic per locally hosted group, shipped to the
    /// coordinator in the group's exit frame.
    group_mix: Vec<(AtomicU64, AtomicU64)>,
}

impl JobState {
    fn num_groups(&self) -> usize {
        self.config.num_groups
    }

    /// The assembled directory. Panics if called before the setup phase
    /// completed — callers are only reachable once `SetupPhase::ready`
    /// (or for prebuilt jobs, always).
    fn round_setup(&self) -> &RoundSetup {
        self.setup.get().expect("round directory not assembled yet")
    }

    fn failed(&self) -> bool {
        matches!(*self.result.lock(), Some(Err(_)))
    }

    fn finalized(&self) -> bool {
        self.result.lock().is_some()
    }
}

/// The queue/condvar trio workers and the transport delivery hook share.
/// `Arc`ed (not borrowed) because the hook handed to the transport must be
/// `'static`. Uses `std::sync` directly: parking_lot's `Condvar::wait` has
/// a different signature, and keeping the vendored stand-in
/// drop-in-replaceable by the real crate matters more than the fairness
/// benefits here.
struct Scheduler {
    queue: std::sync::Mutex<VecDeque<Task>>,
    ready: std::sync::Condvar,
    pending_jobs: AtomicUsize,
    /// Tasks currently being executed by a worker. Feeds the stall
    /// detector: a long-running healthy task must not look like a stall to
    /// the idle workers.
    executing: AtomicUsize,
    /// When a worker last finished a task (stall detector's clock).
    last_progress: Mutex<Instant>,
}

impl Scheduler {
    fn queue_lock(&self) -> std::sync::MutexGuard<'_, VecDeque<Task>> {
        self.queue.lock().unwrap_or_else(PoisonError::into_inner)
    }

    fn push_task(&self, task: Task) {
        self.queue_lock().push_back(task);
        self.ready.notify_one();
    }
}

struct Shared<'a> {
    jobs: &'a [JobState],
    sched: Arc<Scheduler>,
    transport: &'a dyn Transport,
    latency: LatencyModel,
    orchestrator: usize,
    role: &'a EngineRole,
    options: &'a EngineOptions,
}

impl Shared<'_> {
    /// The wire round id of local job index `round` (see
    /// [`EngineOptions::round_offset`]).
    fn wire_round(&self, round: usize) -> usize {
        round + self.options.round_offset
    }

    /// Maps an inbound wire round id back to a local job index. `None`
    /// means the frame predates this run's id range — a stale frame from an
    /// earlier recovery epoch, to be fenced off rather than misdelivered to
    /// whatever round currently reuses the low indices.
    fn job_index(&self, wire_round: usize) -> Option<usize> {
        wire_round.checked_sub(self.options.round_offset)
    }

    fn job_done(&self) {
        if self.sched.pending_jobs.fetch_sub(1, Ordering::SeqCst) == 1 {
            // Hold the queue lock while notifying: a worker that observed
            // the old pending count cannot slip into its wait between the
            // decrement and this notification.
            let _guard = self.sched.queue_lock();
            self.sched.ready.notify_all();
        }
    }

    fn fail_job(&self, round: usize, error: AtomError) {
        let reason = format!("{error:?}");
        let job = &self.jobs[round];
        let newly_failed = {
            let mut result = job.result.lock();
            if result.is_none() {
                *result = Some(Err(error));
                true
            } else {
                false
            }
        };
        if newly_failed {
            self.job_done();
            self.broadcast_abort(round, &reason);
        }
    }

    /// Tells the other processes of a multi-process run that `round` died,
    /// so none of them waits forever on batches that will never come. The
    /// coordinator fans out to every remote group; a member informs the
    /// coordinator (which then fans out). Single-process runs have no
    /// remote nodes and send nothing. Best-effort: a peer that already
    /// vanished must not take down our remaining rounds.
    fn broadcast_abort(&self, round: usize, reason: &str) {
        let targets: Vec<usize> = if self.role.coordinator {
            (0..self.orchestrator)
                .filter(|&node| !self.transport.is_local(node))
                .collect()
        } else if !self.transport.is_local(self.orchestrator) {
            vec![self.orchestrator]
        } else {
            Vec::new()
        };
        if targets.is_empty() {
            return;
        }
        let from = if self.role.coordinator {
            self.orchestrator
        } else {
            self.role.hosted.first().copied().unwrap_or(0)
        };
        let payload = wire::encode_abort(self.wire_round(round), reason);
        for node in targets {
            let send = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.transport
                    .send(from, node, ABORT_LABEL.into(), payload.clone());
            }));
            if send.is_err() {
                eprintln!("atom-runtime: abort notification to node {node} failed");
            }
        }
    }

    /// Fails every unresolved round. Used when a worker panics or an
    /// envelope cannot even name its round: continuing would leave waiters
    /// blocked forever, so convert the hang into per-round errors.
    fn fail_all(&self, reason: &str) {
        for round in 0..self.jobs.len() {
            self.fail_job(round, AtomError::Malformed(reason.to_string()));
        }
    }

    /// Sends a protocol frame on behalf of `round`, converting a transport
    /// panic — an unreachable or vanished peer process: connect failure,
    /// reset stream — into a failure of that round instead of letting the
    /// panic tear down the whole engine scope. With several remote peers,
    /// one dead process must surface as per-round errors on the survivors,
    /// not as a crash. Returns whether the send succeeded.
    fn send_for_round(
        &self,
        round: usize,
        from: usize,
        to: usize,
        label: &'static str,
        payload: Vec<u8>,
    ) -> bool {
        let send = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.transport.send(from, to, label.into(), payload);
        }));
        if send.is_ok() {
            return true;
        }
        self.fail_job(
            round,
            AtomError::Engine {
                kind: EngineErrorKind::TransportLost,
                reason: format!("send {from} -> {to} ({label}) failed: peer process unreachable"),
                nodes: vec![to],
            },
        );
        false
    }

    /// Fails every unresolved round with a stall diagnosis naming exactly
    /// what the round is still waiting for. With more than one remote peer,
    /// "which groups never reported" is what maps a silent stall back to
    /// the process (and machine) that died.
    fn fail_stalled(&self, elapsed: Duration) {
        for (round, job) in self.jobs.iter().enumerate() {
            if job.finalized() {
                continue;
            }
            let (detail, missing) = self.stall_detail(job);
            // The diagnosis goes into the trace timeline too, so a traced
            // run shows *where* the round was stuck next to the spans of
            // the work that did complete — not only on stderr.
            atom_obs::note("stall", round as u32, &detail);
            self.fail_job(
                round,
                AtomError::Engine {
                    kind: EngineErrorKind::Stall,
                    reason: format!(
                        "engine stalled: no task progress for {elapsed:?} (remote peer \
                         lost?); round {round} {detail}"
                    ),
                    nodes: missing,
                },
            );
        }
    }

    /// Remaining time until the earliest round-deadline expiry among
    /// unresolved rounds whose clock is running, or `None` when nothing has
    /// started yet. `Some(ZERO)` means a deadline already passed.
    fn nearest_deadline(&self, deadline: Duration) -> Option<Duration> {
        self.jobs
            .iter()
            .filter(|job| !job.finalized())
            .filter_map(|job| job.exit.lock().started)
            .map(|started| deadline.saturating_sub(started.elapsed()))
            .min()
    }

    /// Fails every unresolved round whose wall clock outlived the
    /// configured per-round deadline, with the same named diagnosis a
    /// stall would get. This is the slow-loris countermeasure: a peer
    /// dripping one frame per stall window resets the stall detector
    /// forever, but it cannot stop the round clock.
    fn fail_deadlined(&self, deadline: Duration) {
        for (round, job) in self.jobs.iter().enumerate() {
            if job.finalized() {
                continue;
            }
            let Some(started) = job.exit.lock().started else {
                continue;
            };
            let elapsed = started.elapsed();
            if elapsed < deadline {
                continue;
            }
            let (detail, missing) = self.stall_detail(job);
            atom_obs::note("deadline", round as u32, &detail);
            self.fail_job(
                round,
                AtomError::Engine {
                    kind: EngineErrorKind::Deadline,
                    reason: format!(
                        "round {round} outlived its {deadline:?} deadline ({elapsed:?} \
                         elapsed): progress kept trickling in — slow-loris peer? — but \
                         the round never finished; {detail}"
                    ),
                    nodes: missing,
                },
            );
        }
    }

    /// What an unresolved round is waiting for, phase by phase, with each
    /// outstanding group tagged local/remote (a remote tag names a peer
    /// process as the likely casualty). Besides the human-readable
    /// diagnosis, returns the outstanding *remote* group nodes as data: the
    /// structured half that a [`FaultVerdict`](crate::fault::FaultVerdict)
    /// maps back to the dead process without parsing the string.
    fn stall_detail(&self, job: &JobState) -> (String, Vec<usize>) {
        let locality = |gid: usize| {
            if self.transport.is_local(gid) {
                format!("{gid} (local)")
            } else {
                format!("{gid} (remote)")
            }
        };
        let remote_only = |gids: &[usize]| -> Vec<usize> {
            gids.iter()
                .copied()
                .filter(|&gid| !self.transport.is_local(gid))
                .collect()
        };
        if let Some(phase_lock) = &job.phase {
            let phase = phase_lock.lock();
            if !phase.ready {
                let waiting: Vec<usize> = phase
                    .groups
                    .iter()
                    .enumerate()
                    .filter(|(_, slot)| slot.is_none())
                    .map(|(gid, _)| gid)
                    .collect();
                let trustees = if phase.need_trustees && phase.trustees.is_none() {
                    " and the trustee DKG"
                } else {
                    ""
                };
                let named: Vec<String> = waiting.iter().map(|&gid| locality(gid)).collect();
                return (
                    format!(
                        "stuck in sharded setup, waiting on group directories [{}]{trustees}",
                        named.join(", ")
                    ),
                    remote_only(&waiting),
                );
            }
        }
        if self.role.coordinator {
            let pending_chunks = job.intake.lock().pending;
            if pending_chunks > 0 {
                return (
                    format!(
                        "stuck before batch release: {pending_chunks} intake chunk(s) unverified"
                    ),
                    Vec::new(),
                );
            }
            let exit = job.exit.lock();
            let missing: Vec<usize> = exit
                .payloads
                .iter()
                .enumerate()
                .filter(|(_, slot)| slot.is_none())
                .map(|(gid, _)| gid)
                .collect();
            let named: Vec<String> = missing.iter().map(|&gid| locality(gid)).collect();
            (
                format!("waiting on exit frames from groups [{}]", named.join(", ")),
                remote_only(&missing),
            )
        } else {
            let exit = job.exit.lock();
            (
                format!(
                    "member still mixing: {}/{} hosted groups exited",
                    exit.local_exits,
                    self.role.hosted_in_round(job.num_groups())
                ),
                Vec::new(),
            )
        }
    }

    /// Fires the configured round-completion hook, if any.
    fn notify_round_complete(&self, round: usize) {
        if let Some(hook) = &self.options.on_round_complete {
            hook(round);
        }
    }
}

/// The parallel execution engine. See the module docs.
pub struct Engine {
    options: EngineOptions,
}

impl Engine {
    /// An engine with the given options.
    pub fn new(options: EngineOptions) -> Self {
        Self { options }
    }

    /// An engine with default options and `workers` threads.
    pub fn with_workers(workers: usize) -> Self {
        Self::new(EngineOptions::with_workers(workers))
    }

    /// The configured options.
    pub fn options(&self) -> &EngineOptions {
        &self.options
    }

    /// Runs a single round.
    pub fn run_round(&self, job: RoundJob) -> AtomResult<RoundReport> {
        self.run_rounds(vec![job])
            .pop()
            .expect("one result per job")
    }

    /// Runs `jobs` with all rounds in flight at once, returning one result
    /// per job in order. Single-process convenience: builds an
    /// [`InMemoryNetwork`] and runs as the standalone coordinator.
    pub fn run_rounds(&self, jobs: Vec<RoundJob>) -> Vec<AtomResult<RoundReport>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let max_groups = jobs
            .iter()
            .map(|job| job.config().num_groups)
            .max()
            .unwrap_or(1);
        // One mailbox per group id plus the orchestrator; rounds share
        // mailboxes and are distinguished by the wire header.
        let network = InMemoryNetwork::new(max_groups + 1, LatencyModel::Zero, Vec::new());
        self.run_rounds_on(jobs, &network, &EngineRole::standalone(max_groups))
    }

    /// Runs `jobs` over an explicit [`Transport`], playing `role`.
    ///
    /// The transport must expose one node per group id (of the widest
    /// round) plus the orchestrator as its **last** node, and `role` must
    /// agree with the transport's locality: this process must host exactly
    /// the mailboxes of its `hosted` groups (plus the orchestrator's iff
    /// coordinator). Every participating process derives the same `jobs`
    /// (identical directories, submissions and seeds — except that under
    /// [`RoundDirectory::Sharded`] only the coordinator needs submissions,
    /// and each process derives only its hosted groups' DKGs) and calls
    /// this concurrently; the coordinator's returned reports carry the
    /// round outputs, byte-identical to a single-process run of the same
    /// jobs.
    pub fn run_rounds_on(
        &self,
        jobs: Vec<RoundJob>,
        transport: &dyn Transport,
        role: &EngineRole,
    ) -> Vec<AtomResult<RoundReport>> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let max_groups = jobs
            .iter()
            .map(|job| job.config().num_groups)
            .max()
            .unwrap_or(1);
        assert!(
            transport.nodes() > max_groups,
            "transport exposes {} nodes; the deployment needs {} groups + orchestrator",
            transport.nodes(),
            max_groups
        );
        let orchestrator = transport.nodes() - 1;
        assert_eq!(
            transport.is_local(orchestrator),
            role.coordinator,
            "the orchestrator mailbox must be local exactly on the coordinator"
        );
        for &gid in &role.hosted {
            assert!(
                transport.is_local(gid),
                "hosted group {gid}'s mailbox is not local to this process"
            );
        }

        let workers = self.options.workers.max(1);
        // Build per-job state up front; actor construction failures (e.g.
        // too many pre-failed servers) resolve the job immediately.
        let mut states: Vec<JobState> = Vec::with_capacity(jobs.len());
        let mut construction_failures: Vec<(usize, String)> = Vec::new();
        for (round, job) in jobs.into_iter().enumerate() {
            // The master draw mirrors RoundDriver::run_mixing's first use of
            // the caller RNG, keeping seed semantics identical across
            // drivers.
            let master_seed = StdRng::seed_from_u64(job.seed).next_u64();
            let config = job.config().clone();
            let num_groups = config.num_groups;
            let actor_spec = ActorSpec {
                master_seed,
                defense: job.submissions.defense(),
                adversary: job.adversary,
                failed_servers: job.failed_servers,
                churn: job.churn,
            };
            let actors: Vec<OnceLock<Mutex<GroupActor>>> =
                (0..num_groups).map(|_| OnceLock::new()).collect();
            let setup_cell: OnceLock<RoundSetup> = OnceLock::new();
            let mut construction_error = None;
            let mut phase = None;
            match job.directory {
                // Prebuilt directory: actors exist before the workers start.
                RoundDirectory::Full(setup) => {
                    for gid in (0..num_groups).filter(|&gid| role.hosts(gid)) {
                        match build_actor(&setup, gid, &actor_spec, &self.options) {
                            Ok(actor) => {
                                let _ = actors[gid].set(Mutex::new(actor));
                            }
                            Err(error) => {
                                construction_error = Some(error);
                                break;
                            }
                        }
                    }
                    let _ = setup_cell.set(setup);
                }
                // Sharded directory: derivation happens on the task queue;
                // here we only validate the config and set up the phase
                // bookkeeping.
                RoundDirectory::Sharded(config) => match config.validate() {
                    Ok(()) => {
                        let hosted = role.hosted_in_round(num_groups);
                        let iterations = config.topology().iterations();
                        phase = Some(Mutex::new(SetupPhase {
                            started: Instant::now(),
                            pending_local: hosted,
                            remote_missing: num_groups - hosted,
                            groups: vec![None; num_groups],
                            trustees: None,
                            need_trustees: role.coordinator,
                            buffered: Vec::new(),
                            buffer_cap: num_groups
                                .saturating_mul(1 + num_groups.saturating_mul(iterations)),
                            sealed: false,
                            sealed_keys: Vec::new(),
                            ready: false,
                        }));
                    }
                    Err(error) => construction_error = Some(error),
                },
            }
            let submissions_len = job.submissions.len();
            let chunks = chunk_ranges(submissions_len, self.options.intake_chunk, workers);
            // The intake cap fails a flood closed *here*, at admission:
            // not one of the flood's submissions gets materialized or
            // verified, so an attacker can spend our memory only up to the
            // cap, never up to their offer.
            if construction_error.is_none()
                && role.coordinator
                && self.options.intake_cap > 0
                && submissions_len > self.options.intake_cap
            {
                construction_error = Some(AtomError::Engine {
                    kind: EngineErrorKind::ProtocolAbort,
                    reason: format!(
                        "submission flood: round {round} offers {submissions_len} submissions, \
                         over the intake cap of {}; failing closed without buffering the flood",
                        self.options.intake_cap
                    ),
                    nodes: Vec::new(),
                });
            }
            if let Some(error) = &construction_error {
                construction_failures.push((round, format!("{error:?}")));
            }
            // A member whose groups all sit outside this round has nothing
            // to do for it: resolve immediately with an empty stub.
            let result = match construction_error {
                Some(error) => Some(Err(error)),
                None if !role.coordinator && role.hosted_in_round(num_groups) == 0 => Some(Ok(
                    member_stub_report(Duration::ZERO, 0, 0, Duration::ZERO, Duration::ZERO),
                )),
                None => None,
            };
            let state = JobState {
                intake: Mutex::new(IntakeState {
                    pending: chunks.len(),
                    results: (0..chunks.len()).map(|_| None).collect(),
                }),
                next_chunk: AtomicUsize::new(intake_window(&self.options, chunks.len())),
                stream_in_flight: AtomicUsize::new(0),
                exit: Mutex::new(ExitState {
                    payloads: vec![None; num_groups],
                    exits_done: 0,
                    local_exits: 0,
                    routed: 0,
                    commitments: Vec::new(),
                    computes: vec![Vec::new(); num_groups],
                    started: None,
                    pipelined: Duration::ZERO,
                    group_mix_messages: 0,
                    group_mix_bytes: 0,
                    telemetry: Vec::new(),
                    finalizing: false,
                }),
                result: Mutex::new(result),
                intake_mix_messages: AtomicU64::new(0),
                intake_mix_bytes: AtomicU64::new(0),
                group_mix: (0..num_groups)
                    .map(|_| (AtomicU64::new(0), AtomicU64::new(0)))
                    .collect(),
                config,
                setup: setup_cell,
                phase,
                setup_latency: Mutex::new(Duration::ZERO),
                actor_spec,
                submissions: job.submissions,
                actors,
                chunks,
            };
            states.push(state);
        }

        let pending = states.iter().filter(|s| !s.finalized()).count();
        let sched = Arc::new(Scheduler {
            queue: std::sync::Mutex::new(VecDeque::new()),
            ready: std::sync::Condvar::new(),
            pending_jobs: AtomicUsize::new(pending),
            executing: AtomicUsize::new(0),
            last_progress: Mutex::new(Instant::now()),
        });
        let shared = Shared {
            jobs: &states,
            sched: Arc::clone(&sched),
            transport,
            latency: self.options.latency,
            orchestrator,
            role,
            options: &self.options,
        };

        // A round this process cannot even set up must not leave the other
        // processes waiting on its groups.
        for (round, reason) in &construction_failures {
            shared.broadcast_abort(*round, reason);
        }

        // Seed the queue. Prebuilt rounds start at intake (coordinator);
        // sharded rounds start at their directory derivation — one task per
        // hosted group, plus the trustee DKG on the coordinator. All rounds'
        // tasks coexist on the one queue, which is what overlaps round
        // `r + 1`'s directory work with round `r`'s mixing tail: workers
        // interleave `SetupGroup` tasks with `Deliver` wake-ups as both
        // become available.
        {
            let mut queue = sched.queue_lock();
            for (round, state) in states.iter().enumerate() {
                if state.finalized() {
                    continue;
                }
                if state.phase.is_some() {
                    for &gid in role.hosted.iter().filter(|&&g| g < state.num_groups()) {
                        queue.push_back(Task::SetupGroup { round, gid });
                    }
                    if role.coordinator {
                        queue.push_back(Task::SetupTrustees { round });
                    }
                } else if role.coordinator {
                    for chunk in 0..intake_window(&self.options, state.chunks.len()) {
                        queue.push_back(Task::IntakeChunk { round, chunk });
                    }
                }
            }
        }

        // Arrivals wake the pool through the delivery hook; a sweep over
        // already-queued mailboxes covers envelopes that raced in between
        // transport setup and this point.
        let hook_sched = Arc::clone(&sched);
        transport.set_delivery_hook(Some(Arc::new(move |node| {
            hook_sched.push_task(Task::Deliver { node });
        })));
        for node in 0..transport.nodes() {
            if transport.is_local(node) && transport.pending(node) > 0 {
                sched.push_task(Task::Deliver { node });
            }
        }

        if sched.pending_jobs.load(Ordering::SeqCst) > 0 {
            let stall_timeout = self.options.stall_timeout.max(Duration::from_millis(10));
            std::thread::scope(|scope| {
                for _ in 0..workers {
                    scope.spawn(|| worker_loop(&shared, stall_timeout));
                }
            });
        }
        // Detach the hook: late arrivals (e.g. duplicate aborts) still land
        // in mailboxes but no longer reach this run's queue.
        transport.set_delivery_hook(None);

        states
            .into_iter()
            .map(|state| {
                state
                    .result
                    .into_inner()
                    .unwrap_or_else(|| Err(AtomError::Malformed("round never completed".into())))
            })
            .collect()
    }
}

/// The resolution a non-coordinator member records for a round once all of
/// its local groups have exited: local traffic and latency only, empty
/// protocol output (the coordinator holds the authoritative report).
fn member_stub_report(
    pipelined: Duration,
    mix_messages: u64,
    mix_bytes: u64,
    wall_clock: Duration,
    setup_latency: Duration,
) -> RoundReport {
    RoundReport {
        output: RoundOutput {
            per_group: Vec::new(),
            plaintexts: Vec::new(),
            routed_ciphertexts: 0,
            timings: RoundTimings::default(),
        },
        pipelined_latency: pipelined,
        wall_clock,
        setup_latency,
        mix_messages,
        mix_bytes,
        telemetry: Vec::new(),
    }
}

/// Builds the actor of group `gid` from the assembled directory and the
/// job's retained [`ActorSpec`]. Used both at engine start (prebuilt
/// directories) and at the end of a sharded setup phase.
fn build_actor(
    setup: &RoundSetup,
    gid: usize,
    spec: &ActorSpec,
    options: &EngineOptions,
) -> AtomResult<GroupActor> {
    let mut config = ActorConfig::new(GroupStepOptions {
        defense: spec.defense,
        parallelism: options.parallelism.max(1),
    });
    config.adversary = spec.adversary;
    config.failed_servers = spec.failed_servers.clone();
    config.churn = spec.churn.clone();
    config.compute_delay = options
        .stragglers
        .iter()
        .find(|(slow, _)| *slow == gid)
        .map(|(_, delay)| *delay)
        .unwrap_or(Duration::ZERO);
    // A group that lost more members than its DKG threshold tolerates
    // cannot run threshold decryption with Lagrange reweighting alone; fall
    // back to the buddy-group escrow (§4.5), which deterministically
    // reconstructs the missing shares onto replacement servers drawn from
    // the buddy group. The group public key is unchanged, so already
    // collected submissions stay decryptable.
    let healed;
    let setup = if !spec.failed_servers.is_empty()
        && setup.groups[gid]
            .participating(&spec.failed_servers)
            .is_err()
    {
        let group = atom_core::faults::heal_group_via_escrow(setup, gid, &spec.failed_servers)?;
        atom_obs::count("engine.escrow.reconstructions", 1);
        let mut patched = setup.clone();
        patched.groups[gid] = group;
        healed = patched;
        &healed
    } else {
        setup
    };
    GroupActor::new(setup, gid, spec.master_seed, config)
}

/// The trustee context a non-coordinator member records in its assembled
/// directory. Members never consult the trustees — group actors only read
/// `setup.groups` and `setup.config`, and the trap-variant exit phase runs
/// on the coordinator — so an empty placeholder keeps the trustee DKG off
/// every member's setup path.
fn member_trustee_placeholder() -> TrusteeContext {
    TrusteeContext {
        members: Vec::new(),
        shares: Vec::new(),
        public_key: PublicKey(RistrettoPoint::identity()),
    }
}

fn worker_loop(shared: &Shared<'_>, stall_timeout: Duration) {
    let round_deadline = shared.options.round_deadline;
    loop {
        let task = {
            let mut queue = shared.sched.queue_lock();
            loop {
                if let Some(task) = queue.pop_front() {
                    break task;
                }
                if shared.sched.pending_jobs.load(Ordering::SeqCst) == 0 {
                    return;
                }
                // Stall detector: rounds pending, queue empty, nobody
                // executing, and nothing has finished for stall_timeout —
                // a remote peer died silently (or a local bug lost a
                // wake-up). Fail the unresolved rounds rather than wait
                // forever; resolved rounds keep their results.
                let idle = shared.sched.executing.load(Ordering::SeqCst) == 0;
                let elapsed = shared.sched.last_progress.lock().elapsed();
                if idle && elapsed >= stall_timeout {
                    drop(queue);
                    shared.fail_stalled(elapsed);
                    return;
                }
                let mut wait = if idle {
                    stall_timeout - elapsed
                } else {
                    stall_timeout
                };
                // Round-deadline enforcement. Like the stall path, failing
                // rounds re-acquires the queue lock (`job_done` notifies
                // under it), so the lock must be dropped first.
                if !round_deadline.is_zero() {
                    match shared.nearest_deadline(round_deadline) {
                        Some(remaining) if remaining.is_zero() => {
                            drop(queue);
                            shared.fail_deadlined(round_deadline);
                            queue = shared.sched.queue_lock();
                            continue;
                        }
                        Some(remaining) => wait = wait.min(remaining),
                        None => {}
                    }
                }
                let (guard, _) = shared
                    .sched
                    .ready
                    .wait_timeout(queue, wait)
                    .unwrap_or_else(PoisonError::into_inner);
                queue = guard;
            }
        };
        // A panicking task (e.g. a poisoned intra-group re-encryption
        // worker) must not strand the other workers in their condvar wait:
        // resolve every open round with an error, then re-raise the panic so
        // the scope surfaces it.
        shared.sched.executing.fetch_add(1, Ordering::SeqCst);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| match task {
            Task::IntakeChunk { round, chunk } => run_intake_chunk(shared, round, chunk),
            Task::Deliver { node } => run_deliver(shared, node),
            Task::SetupGroup { round, gid } => run_setup_group(shared, round, gid),
            Task::SetupTrustees { round } => run_setup_trustees(shared, round),
        }));
        *shared.sched.last_progress.lock() = Instant::now();
        shared.sched.executing.fetch_sub(1, Ordering::SeqCst);
        if let Err(panic) = result {
            shared.fail_all("engine worker panicked; round abandoned");
            std::panic::resume_unwind(panic);
        }
    }
}

/// How many of a round's `chunks` intake chunks may be scheduled — and
/// therefore materialized — at once (see [`EngineOptions::intake_window`];
/// `0` = all of them).
fn intake_window(options: &EngineOptions, chunks: usize) -> usize {
    if options.intake_window == 0 {
        chunks
    } else {
        options.intake_window.min(chunks).max(1)
    }
}

/// The submission ranges of a round's intake chunks. `chunk` is the
/// configured submissions-per-chunk (`0` = auto: spread the round evenly
/// over the worker pool). A round with no submissions still gets one
/// (empty) chunk so the release path runs.
fn chunk_ranges(submissions: usize, chunk: usize, workers: usize) -> Vec<(usize, usize)> {
    if submissions == 0 {
        return vec![(0, 0)];
    }
    let size = if chunk > 0 {
        chunk
    } else {
        submissions.div_ceil(workers)
    }
    .max(1);
    (0..submissions)
        .step_by(size)
        .map(|start| (start, start.saturating_add(size).min(submissions)))
        .collect()
}

/// Derives the DKG of locally hosted group `gid` of a sharded round from
/// its beacon stream, broadcasts the public half to every remote mailbox
/// (each peer process needs every group's public key before its actors can
/// mix; the coordinator additionally needs it for intake verification), and
/// records the full context locally. The worker completing the round's last
/// missing piece assembles the directory ([`finish_setup`]).
fn run_setup_group(shared: &Shared<'_>, round: usize, gid: usize) {
    let _span = atom_obs::span("setup", round as u32, gid as u32);
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    let Some(phase_lock) = &job.phase else {
        shared.fail_job(
            round,
            AtomError::Malformed("setup task for a round with a prebuilt directory".into()),
        );
        return;
    };
    let context = match derive_group(&job.config, gid) {
        Ok(context) => context,
        Err(error) => {
            shared.fail_job(round, error);
            return;
        }
    };
    // Ship the public half to every remote mailbox. A peer process hosting
    // several groups receives one copy per mailbox; `on_setup_frame` treats
    // the duplicates idempotently. `public_only` is the contract for what
    // may leave this process: secret shares stay behind.
    let public = context.public_only();
    let frame = SetupFrame {
        round: shared.wire_round(round),
        gid,
        members: public.members,
        threshold: public.threshold,
        public_key: public.public_key,
    };
    let payload = wire::encode_setup(&frame);
    for node in 0..shared.transport.nodes() {
        if !shared.transport.is_local(node)
            && !shared.send_for_round(round, gid, node, SETUP_LABEL, payload.clone())
        {
            return;
        }
    }
    let complete = {
        let mut phase = phase_lock.lock();
        if phase.sealed {
            false
        } else {
            phase.groups[gid] = Some(context);
            phase.pending_local -= 1;
            phase.complete()
        }
    };
    if complete {
        finish_setup(shared, round);
    }
}

/// Derives the trustee DKG of a sharded round (coordinator only; members
/// record a placeholder — see [`member_trustee_placeholder`]).
fn run_setup_trustees(shared: &Shared<'_>, round: usize) {
    let _span = atom_obs::span("setup", round as u32, atom_obs::GID_NONE);
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    let Some(phase_lock) = &job.phase else {
        shared.fail_job(
            round,
            AtomError::Malformed("trustee setup task for a prebuilt directory".into()),
        );
        return;
    };
    let trustees = match derive_trustees(&job.config) {
        Ok(trustees) => trustees,
        Err(error) => {
            shared.fail_job(round, error);
            return;
        }
    };
    let complete = {
        let mut phase = phase_lock.lock();
        if phase.sealed {
            false
        } else {
            phase.trustees = Some(trustees);
            phase.complete()
        }
    };
    if complete {
        finish_setup(shared, round);
    }
}

/// Records one remote group's public directory entry. Duplicate frames for
/// the same group are expected — a peer broadcasts once per remote mailbox,
/// and this process may own several — and must agree with the first copy;
/// a conflicting frame is a hostile or broken peer and fails the round.
fn on_setup_frame(shared: &Shared<'_>, frame: SetupFrame) {
    let round = frame.round;
    let Some(job) = shared.jobs.get(round) else {
        shared.fail_all("setup frame names an unknown round");
        return;
    };
    if job.failed() {
        return;
    }
    let Some(phase_lock) = &job.phase else {
        shared.fail_job(
            round,
            AtomError::Malformed("setup frame for a round with a prebuilt directory".into()),
        );
        return;
    };
    if frame.gid >= job.num_groups() {
        shared.fail_job(
            round,
            AtomError::Malformed(format!("setup frame for unknown group {}", frame.gid)),
        );
        return;
    }
    if shared.role.hosts(frame.gid) {
        shared.fail_job(
            round,
            AtomError::Malformed(format!(
                "setup frame for group {}, which this process derives itself",
                frame.gid
            )),
        );
        return;
    }
    // Duplicate broadcast copies (the sender fans one frame out to every
    // local mailbox) take a fast path: compare against the already-stored,
    // already-validated context instead of re-deriving the membership
    // below — O(members) instead of replaying the beacon stream per copy.
    // Any deviation from the stored context is still a conflict that fails
    // the round.
    {
        let phase = phase_lock.lock();
        if phase.sealed {
            // The directory is already assembled. Benign duplicate copies
            // are dropped, but a frame disagreeing with the key the round
            // is mixing under is an equivocation — name it, even though the
            // first (possibly forged) story already won the slot.
            let benign = phase
                .sealed_keys
                .get(frame.gid)
                .is_none_or(|key| *key == frame.public_key);
            drop(phase);
            if !benign {
                shared.fail_job(
                    round,
                    AtomError::Malformed(format!(
                        "conflicting setup frames for group {}",
                        frame.gid
                    )),
                );
            }
            return;
        }
        if let Some(existing) = &phase.groups[frame.gid] {
            let benign = existing.public_key == frame.public_key
                && existing.threshold == frame.threshold
                && existing.members == frame.members;
            drop(phase);
            if !benign {
                shared.fail_job(
                    round,
                    AtomError::Malformed(format!(
                        "conflicting setup frames for group {}",
                        frame.gid
                    )),
                );
            }
            return;
        }
    }
    // Everything in the frame except the DKG public key is a pure function
    // of the shared configuration — recompute and reject rather than trust.
    // A hostile peer can therefore only influence the public keys of the
    // groups it hosts, which it controls anyway by running their DKGs.
    if frame.threshold != job.config.group_threshold() {
        shared.fail_job(
            round,
            AtomError::Malformed(format!(
                "setup frame for group {} claims threshold {} (expected {})",
                frame.gid,
                frame.threshold,
                job.config.group_threshold()
            )),
        );
        return;
    }
    match derive_members(&job.config, frame.gid) {
        Ok(expected) if expected == frame.members => {}
        Ok(_) => {
            shared.fail_job(
                round,
                AtomError::Malformed(format!(
                    "setup frame for group {} claims a membership that does not \
                     match the beacon derivation",
                    frame.gid
                )),
            );
            return;
        }
        Err(error) => {
            shared.fail_job(round, error);
            return;
        }
    }
    let verdict = {
        let mut phase = phase_lock.lock();
        if phase.sealed {
            // Sealed while this frame was being validated: cross-check the
            // key it carries against the one the round is mixing under.
            if phase
                .sealed_keys
                .get(frame.gid)
                .is_none_or(|key| *key == frame.public_key)
            {
                Ok(false)
            } else {
                Err(AtomError::Malformed(format!(
                    "conflicting setup frames for group {}",
                    frame.gid
                )))
            }
        } else if let Some(existing) = &phase.groups[frame.gid] {
            if existing.public_key == frame.public_key {
                Ok(false) // benign duplicate via another local mailbox
            } else {
                Err(AtomError::Malformed(format!(
                    "conflicting setup frames for group {}",
                    frame.gid
                )))
            }
        } else {
            phase.groups[frame.gid] = Some(GroupContext {
                id: frame.gid,
                members: frame.members,
                shares: Vec::new(),
                public_key: frame.public_key,
                threshold: frame.threshold,
            });
            phase.remote_missing -= 1;
            Ok(phase.complete())
        }
    };
    match verdict {
        Ok(true) => finish_setup(shared, round),
        Ok(false) => {}
        Err(error) => shared.fail_job(round, error),
    }
}

/// Assembles the round's directory once every piece exists — hosted DKGs
/// run, every remote frame received, trustees derived (coordinator) —
/// constructs the hosted actors, releases the coordinator's intake tasks
/// and replays mix envelopes that raced ahead of the directory.
fn finish_setup(shared: &Shared<'_>, round: usize) {
    let job = &shared.jobs[round];
    let phase_lock = job.phase.as_ref().expect("sharded round");
    let (groups, trustees, started) = {
        let mut phase = phase_lock.lock();
        debug_assert!(phase.complete() && !phase.sealed);
        phase.sealed = true;
        let groups: Vec<GroupContext> = phase
            .groups
            .iter_mut()
            .map(|slot| slot.take().expect("setup phase complete"))
            .collect();
        phase.sealed_keys = groups.iter().map(|group| group.public_key).collect();
        (groups, phase.trustees.take(), phase.started)
    };
    let setup = RoundSetup {
        config: job.config.clone(),
        groups,
        trustees: trustees.unwrap_or_else(member_trustee_placeholder),
        buddies: derive_buddies(&job.config),
    };
    for gid in (0..job.num_groups()).filter(|&gid| shared.role.hosts(gid)) {
        match build_actor(&setup, gid, &job.actor_spec, shared.options) {
            Ok(actor) => {
                let _ = job.actors[gid].set(Mutex::new(actor));
            }
            Err(error) => {
                shared.fail_job(round, error);
                return;
            }
        }
    }
    let _ = job.setup.set(setup);
    *job.setup_latency.lock() = started.elapsed();
    let buffered = {
        let mut phase = phase_lock.lock();
        phase.ready = true;
        std::mem::take(&mut phase.buffered)
    };
    // Intake could not run before the directory existed (submission proofs
    // verify against the group and trustee keys); release it now, bounded
    // by the same streaming window as the prebuilt path. `next_chunk` was
    // preset to the window size at construction, so the finishing chunks
    // continue from there.
    if shared.role.coordinator && !job.finalized() {
        for chunk in 0..intake_window(shared.options, job.chunks.len()) {
            shared.sched.push_task(Task::IntakeChunk { round, chunk });
        }
    }
    for (gid, mix) in buffered {
        on_mix_frame(shared, gid, mix);
    }
}

/// Verifies one intake chunk of a round's submissions; the worker that
/// completes the round's last chunk merges the results and releases the
/// iteration-0 batches ([`finish_intake`]).
fn run_intake_chunk(shared: &Shared<'_>, round: usize, chunk: usize) {
    let _span = atom_obs::span("intake", round as u32, atom_obs::GID_NONE);
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    {
        let mut exit = job.exit.lock();
        if exit.started.is_none() {
            exit.started = Some(Instant::now());
        }
    }

    let (start, end) = job.chunks[chunk];
    let setup = job.round_setup();
    let result = {
        // Proof verification dominates intake; give it its own phase so the
        // trace separates crypto cost from chunk bookkeeping.
        let _verify_span = atom_obs::span("verify", round as u32, atom_obs::GID_NONE);
        match &job.submissions {
            RoundSubmissions::Nizk(submissions) => {
                verify_nizk_submissions_range(setup, &submissions[start..end], start).map(
                    |batches| ChunkIntake {
                        batches,
                        commitments: Vec::new(),
                    },
                )
            }
            RoundSubmissions::Trap(submissions) => {
                verify_trap_submissions_range(setup, &submissions[start..end], start).map(
                    |intake| ChunkIntake {
                        batches: intake.batches,
                        commitments: intake.commitments,
                    },
                )
            }
            // Streaming intake: materialize exactly this chunk's range, feed
            // it through the same range verifiers, and drop it again. The
            // in-flight accounting brackets the verify so the peak gauge
            // reflects what was actually resident at once.
            RoundSubmissions::Stream(source) => {
                let span = end - start;
                let in_flight = job.stream_in_flight.fetch_add(span, Ordering::SeqCst) + span;
                atom_obs::gauge_max("engine.intake.peak_in_flight", in_flight as u64);
                atom_obs::count("engine.intake.streamed", span as u64);
                let verified = source.generate((start, end)).and_then(|block| {
                    if block.len() != span {
                        return Err(AtomError::Malformed(format!(
                            "submission source returned {} submissions for range \
                             {start}..{end}",
                            block.len()
                        )));
                    }
                    match block {
                        SubmissionBlock::Nizk(submissions) => {
                            verify_nizk_submissions_range(setup, &submissions, start).map(
                                |batches| ChunkIntake {
                                    batches,
                                    commitments: Vec::new(),
                                },
                            )
                        }
                        SubmissionBlock::Trap(submissions) => {
                            verify_trap_submissions_range(setup, &submissions, start).map(
                                |intake| ChunkIntake {
                                    batches: intake.batches,
                                    commitments: intake.commitments,
                                },
                            )
                        }
                    }
                });
                job.stream_in_flight.fetch_sub(span, Ordering::SeqCst);
                verified
            }
        }
    };

    // Under a bounded window, a finishing chunk releases the next unclaimed
    // one. This also runs for failed chunks: the release path needs every
    // chunk's slot filled before it can diagnose the round.
    let next = job.next_chunk.fetch_add(1, Ordering::SeqCst);
    if next < job.chunks.len() {
        shared
            .sched
            .push_task(Task::IntakeChunk { round, chunk: next });
    }

    let release = {
        let mut intake = job.intake.lock();
        intake.results[chunk] = Some(result);
        intake.pending -= 1;
        intake.pending == 0
    };
    if release {
        finish_intake(shared, round);
    }
}

/// Merges the verified intake chunks in chunk order and injects the
/// iteration-0 batches. Ranges are contiguous and ascending, so the merged
/// per-group batches equal the single-task (and sequential-driver)
/// bucketing byte for byte; the first failed chunk — which contains the
/// lowest-indexed rejected submission — decides the round's error.
fn finish_intake(shared: &Shared<'_>, round: usize) {
    let job = &shared.jobs[round];
    if job.failed() {
        return;
    }
    let results: Vec<AtomResult<ChunkIntake>> = {
        let mut intake = job.intake.lock();
        intake
            .results
            .iter_mut()
            .map(|slot| slot.take().expect("every chunk recorded a result"))
            .collect()
    };

    let num_groups = job.num_groups();
    let mut batches: Vec<Vec<MessageCiphertext>> = vec![Vec::new(); num_groups];
    let mut commitments: Vec<Vec<Commitment>> = vec![Vec::new(); num_groups];
    for result in results {
        match result {
            Ok(chunk) => {
                for (gid, mut sub) in chunk.batches.into_iter().enumerate() {
                    batches[gid].append(&mut sub);
                }
                for (gid, mut sub) in chunk.commitments.into_iter().enumerate() {
                    commitments[gid].append(&mut sub);
                }
            }
            Err(error) => return shared.fail_job(round, error),
        }
    }

    {
        let mut exit = job.exit.lock();
        exit.routed = batches.iter().map(Vec::len).sum();
        exit.commitments = commitments;
    }

    for (gid, batch) in batches.into_iter().enumerate() {
        let payload = wire::encode_mix(shared.wire_round(round), 0, SOURCE, Duration::ZERO, &batch);
        job.intake_mix_messages.fetch_add(1, Ordering::Relaxed);
        job.intake_mix_bytes
            .fetch_add(payload.len() as u64, Ordering::Relaxed);
        // The transport's delivery hook wakes the pool for local
        // destinations; remote ones wake their own process.
        if !shared.send_for_round(round, shared.orchestrator, gid, MIX_LABEL, payload) {
            return;
        }
    }
}

/// The simulated latency of one inter-group hop (shared accounting from
/// `atom_core::round::hop_latency`). Orchestrator injections are free: the
/// submission phase is accounted separately in the paper's figures.
fn inbound_hop(shared: &Shared<'_>, setup: &RoundSetup, from: usize, to: usize) -> Duration {
    if from == SOURCE {
        return Duration::ZERO;
    }
    hop_latency(setup, &shared.latency, from, to)
}

/// Drains a local mailbox and dispatches its frames: mix batches feed the
/// node's group actor, exit frames accumulate at the orchestrator, abort
/// frames fail their round.
fn run_deliver(shared: &Shared<'_>, node: usize) {
    for envelope in shared.transport.drain(node) {
        let mut decoded = match wire::decode(&envelope.payload) {
            Ok(decoded) => decoded,
            Err(error) => {
                // Within one process every envelope is engine-generated, so
                // a decode failure means format skew; over TCP it means a
                // corrupt or hostile peer. Either way, dropping it would
                // strand the receiving actor forever: fail the named round
                // (the header's round field survives most corruptions) or,
                // failing that, everything.
                match wire::decode_round(&envelope.payload).and_then(|r| shared.job_index(r)) {
                    Some(round) if round < shared.jobs.len() => shared.fail_job(round, error),
                    // An undecodable frame from before this run's id range
                    // is a stale-epoch leftover: fence it off.
                    None => atom_obs::count("engine.stale.frames", 1),
                    _ => shared.fail_all("undecodable protocol frame"),
                }
                continue;
            }
        };
        // Translate the wire round id into this run's job index; a frame
        // below the epoch fence is a straggler from an earlier epoch and
        // must never be misdelivered to the round reusing its index.
        let round_slot = match &mut decoded {
            Frame::Mix(frame) => Some(&mut frame.round),
            Frame::Exit(frame) => Some(&mut frame.round),
            Frame::Abort(frame) => Some(&mut frame.round),
            Frame::Setup(frame) => Some(&mut frame.round),
            Frame::Telemetry(frame) => Some(&mut frame.round),
            // Control frames carry *global* round numbers for the
            // orchestration layer; the engine never indexes jobs by them.
            // Client frames (submit/ack) never belong on the mesh at all
            // and are dropped below.
            Frame::Evict(_) | Frame::Rejoin(_) | Frame::Submit(_) | Frame::SubmitAck(_) => None,
        };
        if let Some(slot) = round_slot {
            match shared.job_index(*slot) {
                Some(index) => *slot = index,
                None => {
                    atom_obs::count("engine.stale.frames", 1);
                    continue;
                }
            }
        }
        match decoded {
            Frame::Mix(mix) => on_mix_frame(shared, node, mix),
            Frame::Exit(exit) => on_exit_frame(shared, node, exit),
            Frame::Setup(setup) => on_setup_frame(shared, setup),
            Frame::Telemetry(telemetry) => on_telemetry_frame(shared, node, telemetry),
            Frame::Abort(abort) => {
                let Some(_job) = shared.jobs.get(abort.round) else {
                    shared.fail_all("abort frame names an unknown round");
                    continue;
                };
                shared.fail_job(
                    abort.round,
                    AtomError::Engine {
                        kind: EngineErrorKind::ProtocolAbort,
                        reason: format!("round aborted by a peer: {}", abort.reason),
                        nodes: Vec::new(),
                    },
                );
            }
            // Membership control (evict / rejoin) is handled by the
            // recovery orchestration *between* engine runs; a control frame
            // overtaking this run is stashed for it, never a round failure.
            Frame::Evict(_) | Frame::Rejoin(_) => {
                atom_obs::count("engine.control.frames_in_run", 1);
                if let Some(sink) = &shared.options.control_sink {
                    sink.lock().push(decoded);
                }
            }
            // Client traffic terminates at the ingress tier; a submit or
            // ack frame on the server mesh is misdirected and ignored.
            Frame::Submit(_) | Frame::SubmitAck(_) => {
                atom_obs::count("engine.client.frames_on_mesh", 1);
            }
        }
    }
}

/// Feeds one mixing sub-batch to the local actor of group `gid` and routes
/// whatever the actor emits.
fn on_mix_frame(shared: &Shared<'_>, gid: usize, mix: wire::MixEnvelope) {
    let round = mix.round;
    let Some(job) = shared.jobs.get(round) else {
        shared.fail_all("mix envelope names an unknown round");
        return;
    };
    if job.failed() {
        return;
    }
    // A sharded round's actors do not exist until the directory is
    // assembled; park early arrivals (a fast peer may start mixing while we
    // are still collecting setup frames) and let `finish_setup` replay
    // them. Bounded: a peer streaming mix frames while withholding its
    // setup frames must fail the round, not exhaust memory.
    if let Some(phase_lock) = &job.phase {
        let mut phase = phase_lock.lock();
        if !phase.ready {
            if phase.buffered.len() >= phase.buffer_cap {
                let cap = phase.buffer_cap;
                drop(phase);
                shared.fail_job(
                    round,
                    AtomError::Malformed(format!(
                        "more than {cap} mix envelopes buffered before the \
                         round's directory was assembled"
                    )),
                );
                return;
            }
            phase.buffered.push((gid, mix));
            return;
        }
    }
    {
        // Members start their round clock at the first local delivery (the
        // coordinator starts it at intake).
        let mut exit = job.exit.lock();
        if exit.started.is_none() {
            exit.started = Some(Instant::now());
        }
    }
    let Some(actor_slot) = job.actors.get(gid).and_then(OnceLock::get) else {
        shared.fail_job(
            round,
            AtomError::Malformed(format!(
                "mix envelope for group {gid}, which this process does not host"
            )),
        );
        return;
    };

    let arrival = mix.sent_virtual + inbound_hop(shared, job.round_setup(), mix.from, gid);
    // Frames are encoded and traffic counters updated while the actor lock
    // is held: the lock serializes the group's iterations, so by the time
    // the exit frame snapshots the group's counters every earlier forward
    // of this group has been counted — another worker draining a later
    // batch cannot observe a partial count. Only the sends happen outside
    // the lock.
    let mut sends: Vec<(usize, Vec<u8>)> = Vec::new();
    let mut exit_send: Option<(Vec<u8>, Duration)> = None;
    {
        // One span per hop. Scoped to the actor section (not the sends), so
        // a member's final hop is recorded before `note_local_exit` builds
        // the round's telemetry snapshot.
        let _span = atom_obs::span("mix", round as u32, gid as u32);
        let mut actor = actor_slot.lock();
        actor.note_arrival(mix.iteration, arrival);
        let outputs = match actor.on_batch(mix.iteration, mix.from, mix.batch) {
            Ok(outputs) => outputs,
            Err(error) => {
                drop(actor);
                shared.fail_job(round, error);
                return;
            }
        };
        for output in outputs {
            match output {
                ActorOutput::Forward {
                    iteration,
                    to,
                    batch,
                    sent_virtual,
                } => {
                    let payload = wire::encode_mix(
                        shared.wire_round(round),
                        iteration,
                        gid,
                        sent_virtual,
                        &batch,
                    );
                    let (messages, bytes) = &job.group_mix[gid];
                    messages.fetch_add(1, Ordering::Relaxed);
                    bytes.fetch_add(payload.len() as u64, Ordering::Relaxed);
                    sends.push((to, payload));
                }
                ActorOutput::Exit {
                    plaintexts,
                    finished_virtual,
                } => {
                    // The group's final products travel to the orchestrator
                    // as an exit frame — across the loopback in a
                    // single-process run, across TCP when the coordinator
                    // is remote.
                    let (messages, bytes) = &job.group_mix[gid];
                    let frame = ExitFrame {
                        round: shared.wire_round(round),
                        gid,
                        finished_virtual,
                        mix_messages: messages.load(Ordering::Relaxed),
                        mix_bytes: bytes.load(Ordering::Relaxed),
                        compute: actor.compute_times().to_vec(),
                        payloads: plaintexts,
                    };
                    exit_send = Some((wire::encode_exit(&frame), finished_virtual));
                }
            }
        }
    }

    for (to, payload) in sends {
        if !shared.send_for_round(round, gid, to, MIX_LABEL, payload) {
            return;
        }
    }
    if let Some((payload, finished_virtual)) = exit_send {
        if !shared.send_for_round(round, gid, shared.orchestrator, EXIT_LABEL, payload) {
            return;
        }
        note_local_exit(shared, round, finished_virtual);
    }
}

/// Member-side bookkeeping of a local group reaching its exit layer: once
/// every locally hosted group of the round is done, a non-coordinator has
/// nothing left to compute and resolves the round with a stub report.
fn note_local_exit(shared: &Shared<'_>, round: usize, finished_virtual: Duration) {
    let job = &shared.jobs[round];
    let all_local_done = {
        let mut exit = job.exit.lock();
        exit.local_exits += 1;
        exit.pipelined = exit.pipelined.max(finished_virtual);
        exit.local_exits == shared.role.hosted_in_round(job.num_groups())
    };
    if shared.role.coordinator || !all_local_done {
        return;
    }
    // All local groups are done: ship this process's span/counter snapshot
    // to the orchestrator so the coordinator's merged report and fleet
    // trace cover this process. Observational only — sent exclusively when
    // recording is enabled, after the last local exit frame (ordered
    // delivery per peer means it cannot overtake the exits).
    if atom_obs::enabled() {
        let hosted: Vec<usize> = shared
            .role
            .hosted
            .iter()
            .copied()
            .filter(|&gid| gid < job.num_groups())
            .collect();
        let from = hosted.first().copied().unwrap_or(0);
        let snapshot = atom_obs::local_snapshot(Some(round as u32));
        let frame = TelemetryFrame {
            round: shared.wire_round(round),
            process: snapshot.process,
            gids: hosted,
            counters: snapshot.counters,
            spans: snapshot.spans,
        };
        if !shared.send_for_round(
            round,
            from,
            shared.orchestrator,
            TELEMETRY_LABEL,
            wire::encode_telemetry(&frame),
        ) {
            return;
        }
    }
    let (pipelined, wall_clock) = {
        let exit = job.exit.lock();
        (
            exit.pipelined,
            exit.started.map(|at| at.elapsed()).unwrap_or_default(),
        )
    };
    let mix_messages: u64 = job
        .group_mix
        .iter()
        .map(|(m, _)| m.load(Ordering::Relaxed))
        .sum();
    let mix_bytes: u64 = job
        .group_mix
        .iter()
        .map(|(_, b)| b.load(Ordering::Relaxed))
        .sum();
    let setup_latency = *job.setup_latency.lock();
    let mut result = job.result.lock();
    if result.is_none() {
        *result = Some(Ok(member_stub_report(
            pipelined,
            mix_messages,
            mix_bytes,
            wall_clock,
            setup_latency,
        )));
        drop(result);
        shared.notify_round_complete(round);
        shared.job_done();
    }
}

/// Collects one group's exit frame at the orchestrator; the frame carrying
/// the round's last outstanding group triggers finalization.
fn on_exit_frame(shared: &Shared<'_>, node: usize, frame: ExitFrame) {
    if node != shared.orchestrator || !shared.role.coordinator {
        shared.fail_all("exit frame delivered to a non-orchestrator node");
        return;
    }
    let round = frame.round;
    let Some(job) = shared.jobs.get(round) else {
        shared.fail_all("exit frame names an unknown round");
        return;
    };
    if job.failed() {
        return;
    }
    if frame.gid >= job.num_groups() {
        shared.fail_job(
            round,
            AtomError::Malformed(format!("exit frame from unknown group {}", frame.gid)),
        );
        return;
    }
    // No group can legitimately exit before the coordinator's directory is
    // assembled: every mix batch descends from the local intake, which only
    // runs post-assembly. An early exit frame is therefore forged or
    // broken — fail the round rather than let finalization read an
    // unassembled directory (a panic that would take down the whole scope).
    if job.setup.get().is_none() {
        shared.fail_job(
            round,
            AtomError::Malformed(format!(
                "exit frame from group {} before the round directory was assembled",
                frame.gid
            )),
        );
        return;
    }
    let complete = {
        let mut exit = job.exit.lock();
        if exit.payloads[frame.gid].is_some() {
            drop(exit);
            shared.fail_job(
                round,
                AtomError::Malformed(format!("duplicate exit frame from group {}", frame.gid)),
            );
            return;
        }
        exit.payloads[frame.gid] = Some(frame.payloads);
        exit.computes[frame.gid] = frame.compute;
        exit.group_mix_messages += frame.mix_messages;
        exit.group_mix_bytes += frame.mix_bytes;
        exit.exits_done += 1;
        exit.pipelined = exit.pipelined.max(frame.finished_virtual);
        claim_finalization(shared, job, &mut exit)
    };
    if complete {
        finalize_round(shared, round);
    }
}

/// Claims the round's finalization under its exit lock: true exactly once,
/// for the first caller that sees every exit frame and all awaited
/// telemetry in. The exit and telemetry handlers race to complete a round
/// on different workers; without the claim both could run
/// [`finalize_round`], and the second would find the collected state
/// already taken.
fn claim_finalization(shared: &Shared<'_>, job: &JobState, exit: &mut ExitState) -> bool {
    if exit.finalizing
        || exit.exits_done != job.num_groups()
        || !telemetry_complete(shared, job, exit)
    {
        return false;
    }
    exit.finalizing = true;
    true
}

/// Whether the orchestrator holds all the telemetry it is waiting for:
/// trivially true while recording is disabled; otherwise every remotely
/// hosted group must be covered by some member's snapshot, so the merged
/// report and fleet trace span every process. Members send their snapshot
/// after their last exit frame on the same ordered channel, so this always
/// resolves shortly after the exits do.
fn telemetry_complete(shared: &Shared<'_>, job: &JobState, exit: &ExitState) -> bool {
    if !atom_obs::enabled() {
        return true;
    }
    (0..job.num_groups())
        .filter(|&gid| !shared.role.hosts(gid))
        .all(|gid| exit.telemetry.iter().any(|frame| frame.gids.contains(&gid)))
}

/// Collects one member process's telemetry snapshot at the orchestrator.
/// Observational traffic: a duplicate from the same process is a benign
/// no-op (idempotent), and a misrouted or unattributable frame is dropped
/// rather than failing anything — telemetry must never be able to abort a
/// round.
fn on_telemetry_frame(shared: &Shared<'_>, node: usize, frame: TelemetryFrame) {
    if node != shared.orchestrator || !shared.role.coordinator {
        return;
    }
    let round = frame.round;
    let Some(job) = shared.jobs.get(round) else {
        return;
    };
    if job.failed() {
        return;
    }
    let complete = {
        let mut exit = job.exit.lock();
        if exit
            .telemetry
            .iter()
            .any(|existing| existing.process == frame.process)
        {
            return; // duplicate snapshot from a process we already heard
        }
        exit.telemetry.push(frame);
        claim_finalization(shared, job, &mut exit)
    };
    if complete {
        finalize_round(shared, round);
    }
}

/// Collects timings, runs the variant-specific exit phase and resolves the
/// job (coordinator only; members resolve through [`note_local_exit`]).
fn finalize_round(shared: &Shared<'_>, round: usize) {
    let job = &shared.jobs[round];

    let (payloads, routed, commitments, computes, started, pipelined, group_mix, member_telemetry) = {
        let mut exit = job.exit.lock();
        let payloads: Vec<Vec<Vec<u8>>> = exit
            .payloads
            .iter_mut()
            .map(|slot| slot.take().unwrap_or_default())
            .collect();
        (
            payloads,
            exit.routed,
            std::mem::take(&mut exit.commitments),
            std::mem::take(&mut exit.computes),
            exit.started,
            exit.pipelined,
            (exit.group_mix_messages, exit.group_mix_bytes),
            std::mem::take(&mut exit.telemetry),
        )
    };
    let (output, wall_clock) = {
        let _span = atom_obs::span("exit", round as u32, atom_obs::GID_NONE);
        // Per-iteration compute critical path as reported in the groups'
        // exit frames, plus the analytic barrier-model network critical
        // path, via the accounting helper shared with the sequential driver.
        let setup = job.round_setup();
        let mut timings = collect_round_timings(setup, &shared.latency, &computes);
        // Same field semantics as the sequential driver: end-to-end wall
        // time of the round in the coordinator process.
        let wall_clock = started.map(|at| at.elapsed()).unwrap_or_default();
        timings.wall_clock = wall_clock;

        let output = match job.submissions.defense() {
            Defense::Nizk => finish_nizk_round(payloads, routed, timings),
            Defense::Trap => finish_trap_round(setup, &commitments, payloads, routed, timings),
        };
        (output, wall_clock)
    };

    let report = output.map(|output| {
        // Merge the fleet's telemetry: this process's snapshot — taken
        // *after* the exit span above closed — plus every member frame, one
        // Perfetto process track each, in process order.
        let mut telemetry: Vec<atom_obs::Snapshot> = Vec::new();
        if atom_obs::enabled() {
            telemetry.push(atom_obs::local_snapshot(Some(round as u32)));
            for frame in &member_telemetry {
                telemetry.push(atom_obs::Snapshot {
                    process: frame.process,
                    counters: frame.counters.clone(),
                    spans: frame.spans.clone(),
                });
            }
            telemetry.sort_by_key(|snapshot| snapshot.process);
        }
        RoundReport {
            pipelined_latency: pipelined,
            wall_clock,
            setup_latency: *job.setup_latency.lock(),
            mix_messages: job.intake_mix_messages.load(Ordering::Relaxed) + group_mix.0,
            mix_bytes: job.intake_mix_bytes.load(Ordering::Relaxed) + group_mix.1,
            output,
            telemetry,
        }
    });

    // The exit phase itself can reject a round (trap-check failure,
    // malformed payloads). Remote members have usually resolved the round
    // locally by then, but a stray notification is harmless and a member
    // still mixing must not be left waiting.
    let exit_failure = match &report {
        Err(error) => Some(format!("{error:?}")),
        Ok(_) => None,
    };
    let mut result = job.result.lock();
    if result.is_none() {
        *result = Some(report);
        drop(result);
        match exit_failure {
            Some(reason) => shared.broadcast_abort(round, &reason),
            None => shared.notify_round_complete(round),
        }
        shared.job_done();
    }
}

/// Aggregate transport statistics helper for reports and scenarios.
pub fn total_traffic(reports: &[AtomResult<RoundReport>]) -> TrafficStats {
    let mut total = TrafficStats::default();
    for report in reports.iter().flatten() {
        total.messages += report.mix_messages;
        total.bytes += report.mix_bytes;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use atom_core::config::AtomConfig;
    use atom_core::directory::setup_round;
    use atom_core::message::make_trap_submission;
    use atom_core::round::RoundDriver;

    fn trap_jobs(rounds: usize, seed: u64) -> (Vec<RoundJob>, Vec<Vec<String>>) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut jobs = Vec::new();
        let mut expected = Vec::new();
        for round in 0..rounds {
            let mut config = AtomConfig::test_default();
            config.num_groups = 3;
            config.iterations = 2;
            config.message_len = 24;
            config.round = round as u64;
            let setup = setup_round(&config, &mut rng).unwrap();
            let messages: Vec<String> = (0..4).map(|i| format!("round {round} msg {i}")).collect();
            let submissions: Vec<TrapSubmission> = messages
                .iter()
                .enumerate()
                .map(|(i, message)| {
                    let gid = i % config.num_groups;
                    make_trap_submission(
                        gid,
                        &setup.groups[gid].public_key,
                        &setup.trustees.public_key,
                        config.round,
                        message.as_bytes(),
                        config.message_len,
                        &mut rng,
                    )
                    .unwrap()
                    .0
                })
                .collect();
            jobs.push(RoundJob::new(
                setup,
                RoundSubmissions::Trap(submissions),
                seed + round as u64,
            ));
            expected.push(messages);
        }
        (jobs, expected)
    }

    fn recovered(output: &RoundOutput) -> Vec<String> {
        let mut messages: Vec<String> = output
            .plaintexts
            .iter()
            .map(|p| {
                String::from_utf8(p.iter().copied().take_while(|&b| b != 0).collect()).unwrap()
            })
            .collect();
        messages.sort();
        messages
    }

    #[test]
    fn single_round_delivers_and_matches_sequential_driver() {
        let (jobs, expected) = trap_jobs(1, 1000);
        let sequential = RoundDriver::new(jobs[0].full_setup().unwrap().clone());
        let submissions = match &jobs[0].submissions {
            RoundSubmissions::Trap(s) => s.clone(),
            _ => unreachable!(),
        };
        let mut driver_rng = StdRng::seed_from_u64(jobs[0].seed);
        let sequential_output = sequential
            .run_trap_round(&submissions, &mut driver_rng)
            .unwrap();

        let engine = Engine::with_workers(3);
        let report = engine.run_round(jobs.into_iter().next().unwrap()).unwrap();

        let mut want = expected[0].clone();
        want.sort();
        assert_eq!(recovered(&report.output), want);
        // Byte equivalence, not just set equivalence.
        assert_eq!(report.output.plaintexts, sequential_output.plaintexts);
        assert_eq!(report.output.per_group, sequential_output.per_group);
        assert_eq!(
            report.output.routed_ciphertexts,
            sequential_output.routed_ciphertexts
        );
        assert!(report.mix_messages > 0);
        assert!(report.mix_bytes > 0);
    }

    #[test]
    fn multiple_rounds_pipeline_in_one_run() {
        let (jobs, expected) = trap_jobs(3, 2000);
        let engine = Engine::with_workers(4);
        let reports = engine.run_rounds(jobs);
        assert_eq!(reports.len(), 3);
        for (report, want) in reports.into_iter().zip(expected) {
            let report = report.unwrap();
            let mut want = want;
            want.sort();
            assert_eq!(recovered(&report.output), want);
        }
    }

    #[test]
    fn engine_reports_per_round_failures_without_poisoning_others() {
        let (mut jobs, expected) = trap_jobs(2, 3000);
        jobs[0].adversary = Some(AdversaryPlan {
            group: 1,
            member: 1,
            iteration: 0,
            action: atom_core::adversary::Misbehavior::DropMessage { slot: 0 },
        });
        let engine = Engine::with_workers(2);
        let reports = engine.run_rounds(jobs);
        assert!(matches!(reports[0], Err(AtomError::TrapCheckFailed(_))));
        let ok = reports[1].as_ref().unwrap();
        let mut want = expected[1].clone();
        want.sort();
        assert_eq!(recovered(&ok.output), want);
    }

    #[test]
    fn escrow_reconstruction_heals_a_group_past_its_tolerance() {
        // h = 2: Lagrange reweighting covers one failure per group. Killing
        // TWO members of group 0 exceeds that, so building its actor must
        // take the buddy-escrow fallback (§4.5) — and the round still
        // delivers every message, because the reconstructed shares belong
        // to the same group key the submissions were encrypted under.
        let mut rng = StdRng::seed_from_u64(44);
        let mut config = AtomConfig::test_default();
        config.num_servers = 16;
        config.required_honest = 2;
        config.message_len = 24;
        let setup = setup_round(&config, &mut rng).unwrap();
        let victims = vec![setup.groups[0].members[0], setup.groups[0].members[1]];
        assert!(
            setup.groups[0].participating(&victims).is_err(),
            "two failures must exceed the Lagrange path's tolerance"
        );
        let messages: Vec<String> = (0..4).map(|i| format!("escrow msg {i}")).collect();
        let submissions: Vec<TrapSubmission> = messages
            .iter()
            .enumerate()
            .map(|(i, message)| {
                let gid = i % config.num_groups;
                make_trap_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    &setup.trustees.public_key,
                    config.round,
                    message.as_bytes(),
                    config.message_len,
                    &mut rng,
                )
                .unwrap()
                .0
            })
            .collect();
        let mut job = RoundJob::new(setup, RoundSubmissions::Trap(submissions), 4100);
        job.failed_servers = victims;
        let report = Engine::with_workers(3).run_round(job).unwrap();
        let mut want = messages;
        want.sort();
        assert_eq!(recovered(&report.output), want);
    }

    #[test]
    fn epoch_fence_drops_stale_frames_but_maps_current_ones() {
        // A stale abort from an earlier epoch (wire round id below the
        // fence) must be dropped, not misdelivered to the retried round
        // that reuses job index 0.
        let (jobs, expected) = trap_jobs(1, 9100);
        let groups = jobs[0].config().num_groups;
        let network = InMemoryNetwork::new(groups + 1, LatencyModel::Zero, Vec::new());
        Transport::send(
            &network,
            0,
            groups,
            ABORT_LABEL.into(),
            wire::encode_abort(2, "stale"),
        );
        let mut options = EngineOptions::with_workers(2);
        options.round_offset = 7;
        let report = Engine::new(options.clone())
            .run_rounds_on(jobs, &network, &EngineRole::standalone(groups))
            .pop()
            .unwrap()
            .unwrap();
        let mut want = expected[0].clone();
        want.sort();
        assert_eq!(recovered(&report.output), want);

        // An abort in the current epoch's id range still maps back onto
        // the job it names and fails it, exactly as without the fence.
        let (jobs, _) = trap_jobs(1, 9100);
        let network = InMemoryNetwork::new(groups + 1, LatencyModel::Zero, Vec::new());
        Transport::send(
            &network,
            0,
            groups,
            ABORT_LABEL.into(),
            wire::encode_abort(7, "current"),
        );
        let result = Engine::new(options)
            .run_rounds_on(jobs, &network, &EngineRole::standalone(groups))
            .pop()
            .unwrap();
        match result {
            Err(AtomError::Engine {
                kind: EngineErrorKind::ProtocolAbort,
                ..
            }) => {}
            other => panic!("want a ProtocolAbort failure, got {other:?}"),
        }
    }

    #[test]
    fn chunk_ranges_cover_contiguously() {
        assert_eq!(chunk_ranges(0, 0, 4), vec![(0, 0)]);
        assert_eq!(chunk_ranges(7, 2, 4), vec![(0, 2), (2, 4), (4, 6), (6, 7)]);
        assert_eq!(chunk_ranges(7, usize::MAX, 4), vec![(0, 7)]);
        // Auto sizing spreads across the worker pool.
        assert_eq!(chunk_ranges(8, 0, 4), vec![(0, 2), (2, 4), (4, 6), (6, 8)]);
        assert_eq!(chunk_ranges(3, 0, 8), vec![(0, 1), (1, 2), (2, 3)]);
    }

    #[test]
    fn chunked_intake_output_is_byte_identical_across_chunkings() {
        let (jobs, _) = trap_jobs(1, 6000);
        let job = jobs.into_iter().next().unwrap();
        let mut reference: Option<RoundOutput> = None;
        for chunk in [1usize, 2, 3, usize::MAX] {
            let mut options = EngineOptions::with_workers(3);
            options.intake_chunk = chunk;
            let report = Engine::new(options).run_round(job.clone()).unwrap();
            match &reference {
                None => reference = Some(report.output),
                Some(want) => {
                    assert_eq!(report.output.plaintexts, want.plaintexts, "chunk={chunk}");
                    assert_eq!(report.output.per_group, want.per_group, "chunk={chunk}");
                    assert_eq!(
                        report.output.routed_ciphertexts, want.routed_ciphertexts,
                        "chunk={chunk}"
                    );
                }
            }
        }
    }

    /// A [`SubmissionSource`] over a prebuilt vector that counts how many
    /// submissions it actually materialized — the streaming tests' probe
    /// for "the flood was never buffered" and "only a window was resident".
    struct SlicedSource {
        submissions: Vec<TrapSubmission>,
        generated: AtomicUsize,
    }

    impl SlicedSource {
        fn new(submissions: Vec<TrapSubmission>) -> Self {
            Self {
                submissions,
                generated: AtomicUsize::new(0),
            }
        }
    }

    impl SubmissionSource for SlicedSource {
        fn total(&self) -> usize {
            self.submissions.len()
        }

        fn defense(&self) -> Defense {
            Defense::Trap
        }

        fn generate(&self, (start, end): (usize, usize)) -> AtomResult<SubmissionBlock> {
            self.generated.fetch_add(end - start, Ordering::SeqCst);
            Ok(SubmissionBlock::Trap(self.submissions[start..end].to_vec()))
        }
    }

    fn trap_submissions_of(job: &RoundJob) -> Vec<TrapSubmission> {
        match &job.submissions {
            RoundSubmissions::Trap(s) => s.clone(),
            _ => unreachable!(),
        }
    }

    #[test]
    fn streaming_intake_is_byte_identical_across_windows() {
        let (jobs, _) = trap_jobs(1, 8200);
        let job = jobs.into_iter().next().unwrap();
        let submissions = trap_submissions_of(&job);
        let reference = Engine::with_workers(3).run_round(job.clone()).unwrap();

        for (window, chunk) in [(1usize, 1usize), (1, 2), (2, 1), (3, 3), (0, 1)] {
            let source = Arc::new(SlicedSource::new(submissions.clone()));
            let mut streamed = job.clone();
            streamed.submissions = RoundSubmissions::Stream(Arc::clone(&source) as _);
            let mut options = EngineOptions::with_workers(3);
            options.intake_chunk = chunk;
            options.intake_window = window;
            let report = Engine::new(options).run_round(streamed).unwrap();
            assert_eq!(
                report.output.plaintexts, reference.output.plaintexts,
                "window={window} chunk={chunk}"
            );
            assert_eq!(report.output.per_group, reference.output.per_group);
            assert_eq!(
                report.output.routed_ciphertexts,
                reference.output.routed_ciphertexts
            );
            assert_eq!(
                source.generated.load(Ordering::SeqCst),
                submissions.len(),
                "every submission must stream through exactly once"
            );
        }
    }

    #[test]
    fn bounded_window_keeps_only_a_window_resident() {
        let (jobs, _) = trap_jobs(1, 8300);
        let job = jobs.into_iter().next().unwrap();
        let submissions = trap_submissions_of(&job);
        let total = submissions.len();
        let mut streamed = job;
        streamed.submissions = RoundSubmissions::Stream(Arc::new(SlicedSource::new(submissions)));
        let mut options = EngineOptions::with_workers(3);
        options.intake_chunk = 1;
        options.intake_window = 1;

        atom_obs::reset();
        atom_obs::set_enabled(true);
        let report = Engine::new(options).run_round(streamed);
        let peak = atom_obs::gauge_peak("engine.intake.peak_in_flight");
        atom_obs::set_enabled(false);
        atom_obs::reset();

        report.unwrap();
        let peak = peak.expect("streaming intake records its peak");
        assert!(
            peak >= 1 && peak < total as u64,
            "window of 1 chunk x 1 submission must keep fewer than all \
             {total} submissions resident, saw peak {peak}"
        );
    }

    #[test]
    fn intake_cap_rejects_a_flood_without_materializing_it() {
        let (jobs, _) = trap_jobs(1, 8400);
        let job = jobs.into_iter().next().unwrap();
        let submissions = trap_submissions_of(&job);
        let total = submissions.len();
        let source = Arc::new(SlicedSource::new(submissions));
        let mut flooded = job;
        flooded.submissions = RoundSubmissions::Stream(Arc::clone(&source) as _);
        let mut options = EngineOptions::with_workers(2);
        options.intake_cap = total - 1;

        let err = Engine::new(options).run_round(flooded).unwrap_err();
        match &err {
            AtomError::Engine { kind, reason, .. } => {
                assert_eq!(*kind, EngineErrorKind::ProtocolAbort);
                assert!(
                    reason.contains("submission flood") && reason.contains("intake cap"),
                    "diagnosis must name the flood: {reason}"
                );
            }
            other => panic!("expected an engine abort, got {other:?}"),
        }
        assert_eq!(
            source.generated.load(Ordering::SeqCst),
            0,
            "a capped flood must fail closed before materializing anything"
        );
    }

    #[test]
    fn chunked_intake_reports_the_same_rejection_as_the_sequential_driver() {
        let (mut jobs, _) = trap_jobs(1, 7000);
        // Rebind submission 2 to another entry group without re-proving: the
        // batch check must fail, fall back, and name submission 2.
        if let RoundSubmissions::Trap(subs) = &mut jobs[0].submissions {
            subs[2].entry_group = (subs[2].entry_group + 1) % 3;
        }
        let submissions = match &jobs[0].submissions {
            RoundSubmissions::Trap(s) => s.clone(),
            _ => unreachable!(),
        };
        let driver = RoundDriver::new(jobs[0].full_setup().unwrap().clone());
        let mut driver_rng = StdRng::seed_from_u64(jobs[0].seed);
        let sequential_err = driver
            .run_trap_round(&submissions, &mut driver_rng)
            .unwrap_err();

        for chunk in [1usize, 2, usize::MAX] {
            let mut options = EngineOptions::with_workers(3);
            options.intake_chunk = chunk;
            let err = Engine::new(options).run_round(jobs[0].clone()).unwrap_err();
            assert_eq!(
                format!("{err:?}"),
                format!("{sequential_err:?}"),
                "chunk={chunk}"
            );
        }
    }

    #[test]
    fn nizk_adversary_verdict_matches_sequential_driver() {
        use atom_core::message::make_nizk_submission;

        let mut rng = StdRng::seed_from_u64(88);
        let mut config = AtomConfig::test_default();
        config.defense = atom_core::config::Defense::Nizk;
        config.num_groups = 3;
        config.iterations = 2;
        config.message_len = 24;
        let setup = setup_round(&config, &mut rng).unwrap();
        let submissions: Vec<_> = (0..6)
            .map(|i| {
                let gid = i % config.num_groups;
                make_nizk_submission(
                    gid,
                    &setup.groups[gid].public_key,
                    format!("msg {i}").as_bytes(),
                    config.message_len,
                    &mut rng,
                )
                .unwrap()
                .0
            })
            .collect();
        let plan = AdversaryPlan {
            group: 2,
            member: 3,
            iteration: 1,
            action: atom_core::adversary::Misbehavior::ReplaceMessage { slot: 0 },
        };

        let driver = RoundDriver::new(setup.clone()).with_adversary(plan);
        let mut driver_rng = StdRng::seed_from_u64(4321);
        let sequential_err = driver
            .run_nizk_round(&submissions, &mut driver_rng)
            .unwrap_err();

        let mut job = RoundJob::new(setup, RoundSubmissions::Nizk(submissions), 4321);
        job.adversary = Some(plan);
        let mut options = EngineOptions::with_workers(3);
        options.intake_chunk = 2;
        let engine_err = Engine::new(options).run_round(job).unwrap_err();

        // Batched re-encryption verification must fall back and blame the
        // exact same server for the exact same reason.
        match (&engine_err, &sequential_err) {
            (
                AtomError::ProtocolViolation {
                    group: g1,
                    member: m1,
                    reason: r1,
                },
                AtomError::ProtocolViolation {
                    group: g2,
                    member: m2,
                    reason: r2,
                },
            ) => {
                assert_eq!((g1, m1), (g2, m2));
                assert_eq!(r1, r2);
                assert_eq!(*g1, 2);
                assert_eq!(*m1, Some(3));
            }
            other => panic!("expected matching protocol violations, got {other:?}"),
        }
    }

    fn sharded_pair(rounds: usize, seed: u64) -> (Vec<RoundJob>, Vec<RoundJob>) {
        use atom_core::directory::derive_setup;
        let mut rng = StdRng::seed_from_u64(91);
        let mut full = Vec::new();
        let mut sharded = Vec::new();
        for round in 0..rounds {
            let mut config = AtomConfig::test_default();
            config.num_groups = 3;
            config.iterations = 2;
            config.message_len = 24;
            config.round = round as u64;
            config.beacon_seed = 0xD1CE ^ round as u64;
            let setup = derive_setup(&config).unwrap();
            let submissions: Vec<TrapSubmission> = (0..4)
                .map(|i| {
                    let gid = i % config.num_groups;
                    make_trap_submission(
                        gid,
                        &setup.groups[gid].public_key,
                        &setup.trustees.public_key,
                        config.round,
                        format!("sharded r{round} m{i}").as_bytes(),
                        config.message_len,
                        &mut rng,
                    )
                    .unwrap()
                    .0
                })
                .collect();
            full.push(RoundJob::new(
                setup,
                RoundSubmissions::Trap(submissions.clone()),
                seed + round as u64,
            ));
            sharded.push(RoundJob::sharded(
                config,
                RoundSubmissions::Trap(submissions),
                seed + round as u64,
            ));
        }
        (full, sharded)
    }

    #[test]
    fn sharded_setup_matches_prebuilt_derivation_byte_for_byte() {
        let (full, sharded) = sharded_pair(2, 42_000);
        let engine = Engine::with_workers(3);
        let reference = engine.run_rounds(full);
        let derived = engine.run_rounds(sharded);
        assert_eq!(reference.len(), derived.len());
        for (round, (want, got)) in reference.iter().zip(&derived).enumerate() {
            let want = want.as_ref().unwrap();
            let got = got.as_ref().unwrap();
            assert_eq!(
                got.output.plaintexts, want.output.plaintexts,
                "round {round} plaintexts diverge"
            );
            assert_eq!(got.output.per_group, want.output.per_group);
            assert_eq!(
                got.output.routed_ciphertexts,
                want.output.routed_ciphertexts
            );
            assert_eq!(got.mix_messages, want.mix_messages);
            assert_eq!(got.mix_bytes, want.mix_bytes);
            // The prebuilt directory predates the engine; the sharded one
            // was derived inside the run and must report its cost.
            assert_eq!(want.setup_latency, Duration::ZERO);
            assert!(got.setup_latency > Duration::ZERO);
        }
    }

    #[test]
    fn sharded_round_reports_failures_like_a_prebuilt_one() {
        let (_, mut sharded) = sharded_pair(2, 43_000);
        sharded[0].adversary = Some(AdversaryPlan {
            group: 1,
            member: 1,
            iteration: 0,
            action: atom_core::adversary::Misbehavior::DropMessage { slot: 0 },
        });
        let reports = Engine::with_workers(2).run_rounds(sharded);
        assert!(matches!(reports[0], Err(AtomError::TrapCheckFailed(_))));
        assert!(reports[1].is_ok(), "round 1 must survive round 0's failure");
    }

    #[test]
    fn sharded_round_rejects_invalid_config_up_front() {
        let mut config = AtomConfig::test_default();
        config.group_size = 0;
        let job = RoundJob::sharded(config, RoundSubmissions::Trap(Vec::new()), 1);
        let report = Engine::with_workers(1).run_round(job);
        assert!(matches!(report, Err(AtomError::Config(_))));
    }

    #[test]
    fn straggler_group_does_not_block_others() {
        let (jobs, expected) = trap_jobs(1, 4000);
        let mut options = EngineOptions::with_workers(3);
        options.stragglers = vec![(0, Duration::from_millis(30))];
        let engine = Engine::new(options);
        let report = engine.run_round(jobs.into_iter().next().unwrap()).unwrap();
        let mut want = expected[0].clone();
        want.sort();
        assert_eq!(recovered(&report.output), want);
        // The straggler inflates its own iterations; the pipelined latency
        // must track it.
        assert!(report.pipelined_latency >= Duration::from_millis(60));
    }

    #[test]
    fn latency_model_produces_pipelined_latency() {
        let (jobs, _) = trap_jobs(1, 5000);
        let mut options = EngineOptions::with_workers(2);
        options.latency = LatencyModel::Fixed { millis: 40 };
        let engine = Engine::new(options);
        let report = engine.run_round(jobs.into_iter().next().unwrap()).unwrap();
        // Two iterations ⇒ one charged hop layer.
        assert!(report.pipelined_latency >= Duration::from_millis(40));
        assert!(report.output.timings.network_critical_path >= Duration::from_millis(40));
    }
}
