//! The alternating-pass evaluation machine.
//!
//! This is the Figure-3 paradigm as an interpreter of the analysis plans:
//! each pass streams the APT from one intermediate file to another,
//! keeping only the current spine of the tree on the stack. "When an APT
//! node, N, is encountered … it is read from the intermediate file onto a
//! stack in memory. N is kept on the stack while the sub-tree descended
//! from N is visited … When the evaluation pass over N's subtree is
//! finished node N is written to the intermediate file."
//!
//! The machine also *executes the static-subsumption protocol* alongside
//! reference evaluation: it maintains the global variables, performs the
//! save/set/restore dance around child visits for non-subsumed definitions
//! of static attributes, and — for every subsumed copy-rule — **checks**
//! that the value already sitting in the global equals the reference
//! value. [`EvalStats::globals_checked`] counts those verifications;
//! [`EvalStats::globals_repaired`] counts the places where a clobbered
//! global had to be re-captured (the paper's `POST2_ZQP`-style temporaries
//! pay for exactly these sites in generated code).

use crate::aptfile::{
    boundary_path, file_summary, AptError, AptReader, AptWriter, FaultSpec, FaultTarget,
    FileSummary, MemFile, ReadDir, Record, RecordBody, TempAptDir,
};
use crate::funcs::{ExternalFn, FuncError, Funcs};
use crate::manifest::{Manifest, ManifestError, PassEntry};
use crate::metrics::{EvalMetrics, PassProbe};
use crate::tree::{PTree, TreeError};
use crate::value::Value;
use linguist_ag::analysis::Analysis;
use linguist_ag::expr::{BinOp, Expr};
use linguist_ag::grammar::AttrClass;
use linguist_ag::ids::{AttrId, AttrOcc, OccPos, ProdId, RuleId, SymbolId};
use linguist_ag::lifetime::Lifetimes;
use linguist_ag::passes::Direction;
use linguist_ag::plan::Step;
use linguist_ag::subsumption::{GroupId, SiteAt};
use linguist_support::intern::Name;
use linguist_support::size::Meter;
use std::cell::RefCell;
use std::collections::HashMap;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// How the initial linearized APT file is produced (§II).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Strategy {
    /// Bottom-up (shift/reduce) emission; first pass is right-to-left.
    /// "LINGUIST-86 itself uses the first method."
    BottomUp,
    /// Prefix (recursive-descent) emission; first pass is left-to-right.
    Prefix,
}

/// Where the intermediate APT lives.
///
/// [`Backing::Disk`] is the paper's configuration (real temporary files);
/// [`Backing::Memory`] answers its closing question — "would some form of
/// virtual memory system significantly speed up the evaluators?" — by
/// backing the identical record format with RAM.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Backing {
    /// Temporary files on disk (the paper's paradigm).
    #[default]
    Disk,
    /// RAM-resident buffers with the same record format, owned by the
    /// evaluation: writes append to a plain `Vec<u8>`, completed
    /// boundaries are sealed into immutable `Arc<Vec<u8>>`s, and no
    /// mutex is taken anywhere on the read/write path. This is the
    /// shared-nothing batch hot path.
    Memory,
    /// The legacy mutex-guarded RAM store (`Arc<Mutex<Vec<u8>>>` per
    /// boundary): every record read and write pays a lock acquisition.
    /// Kept as an ablation so the contention the shared-nothing refactor
    /// removed stays measurable — its lock traffic is reported through
    /// [`EvalStats::lock_acquisitions`].
    SharedMemory,
}

/// Evaluation options.
#[derive(Clone, Debug)]
pub struct EvalOptions {
    /// Initial-file strategy; must match the pass analysis's first
    /// direction.
    pub strategy: Strategy,
    /// Run the static-subsumption global-variable protocol and verify it
    /// against reference values.
    pub check_globals: bool,
    /// Dynamic-memory budget in bytes (the paper's machine allows 48 KB);
    /// exceeding it is recorded, not fatal.
    pub budget: Option<usize>,
    /// Disk files (default, as in the paper) or RAM buffers.
    pub backing: Backing,
    /// Collect the pass-level [`EvalMetrics`] profile (per-pass file
    /// traffic, attribute and semantic-function work). Off by default.
    /// The counters behind it are kept either way (plain adds, and the
    /// file layer's own tallies), so this only decides whether the rows
    /// are assembled.
    pub profile: bool,
    /// Inject an I/O failure (test support); see [`FaultSpec`].
    pub fault: Option<FaultSpec>,
    /// Transient-failure policy: how many times a failed *pass* is re-run
    /// from its preceding boundary file, and with what backoff. The
    /// default makes a single attempt (no retries).
    pub retry: RetryPolicy,
    /// Optional wall-clock ceiling for the whole evaluation, checked
    /// cooperatively at every pass boundary (and before each retry):
    /// exceeding it fails the run with [`EvalError::Deadline`] instead of
    /// letting one pathological job hold a batch worker forever.
    pub deadline: Option<Duration>,
}

impl Default for EvalOptions {
    fn default() -> EvalOptions {
        EvalOptions {
            strategy: Strategy::BottomUp,
            check_globals: true,
            budget: Some(48 * 1024),
            backing: Backing::Disk,
            profile: false,
            fault: None,
            retry: RetryPolicy::default(),
            deadline: None,
        }
    }
}

/// How failed passes are retried.
///
/// A pass that fails with a *transient* error (an I/O-rooted
/// [`AptError`]) is re-run from its preceding boundary file — the APT on
/// secondary storage makes the pass a natural retry unit, since its
/// input file is immutable while it runs. Backoff is deterministic
/// exponential: after the `n`-th failed attempt the machine sleeps
/// `backoff × 2ⁿ⁻¹`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts per pass (1 = no retries).
    pub max_attempts: u32,
    /// Sleep after the first failed attempt; doubles each further attempt.
    pub backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::ZERO,
        }
    }
}

impl RetryPolicy {
    /// A policy allowing `n` retries (so `n + 1` attempts) with a small
    /// default backoff — what the CLI's `--retries N` maps to.
    pub fn retries(n: u32) -> RetryPolicy {
        RetryPolicy {
            max_attempts: n.saturating_add(1),
            backoff: Duration::from_millis(10),
        }
    }

    /// Deterministic exponential delay after failed attempt `attempt`
    /// (1-based): `backoff × 2^(attempt-1)`, saturating.
    pub fn delay(&self, attempt: u32) -> Duration {
        let shift = attempt.saturating_sub(1).min(16);
        self.backoff.saturating_mul(1u32 << shift)
    }
}

/// Per-pass measurements.
#[derive(Clone, Debug, Default)]
pub struct PassStats {
    /// Wall-clock time of the pass.
    pub duration: Duration,
    /// Bytes read from the input intermediate file.
    pub bytes_read: u64,
    /// Bytes written to the output intermediate file.
    pub bytes_written: u64,
    /// Records read.
    pub records_read: u64,
    /// Records written.
    pub records_written: u64,
    /// Semantic functions evaluated.
    pub rules_evaluated: u64,
}

/// Whole-evaluation measurements.
#[derive(Clone, Debug, Default)]
pub struct EvalStats {
    /// Per-pass breakdown.
    pub passes: Vec<PassStats>,
    /// Stack-residency meter (peak is what must fit in the 48 KB window).
    pub meter: Meter,
    /// Deepest production-procedure recursion reached.
    pub max_depth: usize,
    /// Subsumption verifications performed.
    pub globals_checked: u64,
    /// Subsumption verifications that found a clobbered global and
    /// repaired it (capture sites).
    pub globals_repaired: u64,
    /// Pass attempts that failed transiently and were re-run under the
    /// [`RetryPolicy`].
    pub retries: u64,
    /// When the evaluation resumed from a checkpoint, the boundary it
    /// restarted after (passes `1..=resumed_from` were *not* re-run).
    pub resumed_from: Option<u16>,
    /// Mutex acquisitions the intermediate store performed. Zero for
    /// [`Backing::Disk`] and the owned [`Backing::Memory`] path; counts
    /// every lock (per-record and per-boundary) under the legacy
    /// [`Backing::SharedMemory`] ablation. The scaling tests assert this
    /// is zero on the batch hot path.
    pub lock_acquisitions: u64,
}

impl EvalStats {
    /// Total bytes moved through intermediate files.
    pub fn total_io_bytes(&self) -> u64 {
        self.passes
            .iter()
            .map(|p| p.bytes_read + p.bytes_written)
            .sum()
    }

    /// Total semantic functions evaluated.
    pub fn total_rules(&self) -> u64 {
        self.passes.iter().map(|p| p.rules_evaluated).sum()
    }
}

/// The result of an evaluation.
#[derive(Clone, Debug)]
pub struct Evaluation {
    /// Values of the root's synthesized attributes — "the result of the
    /// translation" (§I).
    pub outputs: Vec<(AttrId, Value)>,
    /// Measurements.
    pub stats: EvalStats,
    /// The pass-level profile, present when
    /// [`EvalOptions::profile`] was set.
    pub metrics: Option<EvalMetrics>,
}

impl Evaluation {
    /// Output value by attribute name.
    pub fn output(&self, analysis: &Analysis, name: &str) -> Option<&Value> {
        self.outputs
            .iter()
            .find(|(a, _)| analysis.grammar.attr_name(*a) == name)
            .map(|(_, v)| v)
    }

    /// Resume a checkpointed evaluation from `checkpoint_dir` alone — no
    /// parse tree needed, because boundary 0 (the parser's output) is
    /// itself a checkpoint. Restarts after the newest boundary whose
    /// file validates against the manifest and finishes the remaining
    /// passes.
    ///
    /// # Errors
    ///
    /// Fails with [`EvalError::Manifest`] when the directory holds no
    /// readable manifest, and [`EvalError::Corrupt`] when the manifest
    /// belongs to a different strategy/pass configuration or no boundary
    /// file validates (callers with the tree at hand should fall back to
    /// [`evaluate_resumable`], which restarts from scratch instead).
    pub fn resume(
        analysis: &Analysis,
        funcs: &Funcs,
        opts: &EvalOptions,
        checkpoint_dir: &Path,
    ) -> Result<Evaluation, EvalError> {
        evaluate_inner(analysis, funcs, None, opts, Some(checkpoint_dir), true)
    }
}

/// An evaluation failure.
#[derive(Debug)]
pub enum EvalError {
    /// Intermediate-file failure.
    Apt(AptError),
    /// Semantic-function failure.
    Func(FuncError),
    /// The input tree does not fit the grammar.
    Tree(TreeError),
    /// The strategy's first direction disagrees with the pass analysis.
    StrategyMismatch {
        /// The strategy requested.
        strategy: Strategy,
        /// The analysis's first direction.
        first_direction: Direction,
    },
    /// The file stream disagrees with the grammar (wrong record kind or
    /// symbol).
    Corrupt(String),
    /// A needed attribute instance was absent (indicates an analysis or
    /// interpreter bug).
    Missing(String),
    /// The job's code panicked; the batch supervisor caught the unwind
    /// and converted it into this typed failure so one bad semantic
    /// function cannot take down the coordinator.
    Panicked(String),
    /// The evaluation exceeded its [`EvalOptions::deadline`].
    Deadline {
        /// The configured wall-clock ceiling.
        limit: Duration,
    },
    /// The checkpoint manifest could not be read or written.
    Manifest(ManifestError),
}

impl fmt::Display for EvalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvalError::Apt(e) => write!(f, "{}", e),
            EvalError::Func(e) => write!(f, "{}", e),
            EvalError::Tree(e) => write!(f, "{}", e),
            EvalError::StrategyMismatch {
                strategy,
                first_direction,
            } => write!(
                f,
                "strategy {:?} incompatible with first pass direction {}",
                strategy, first_direction
            ),
            EvalError::Corrupt(m) => write!(f, "APT stream corrupt: {}", m),
            EvalError::Missing(m) => write!(f, "missing attribute instance: {}", m),
            EvalError::Panicked(m) => write!(f, "evaluation panicked: {}", m),
            EvalError::Deadline { limit } => {
                write!(f, "evaluation exceeded its {:?} deadline", limit)
            }
            EvalError::Manifest(e) => write!(f, "{}", e),
        }
    }
}

impl std::error::Error for EvalError {}

impl From<AptError> for EvalError {
    fn from(e: AptError) -> EvalError {
        EvalError::Apt(e)
    }
}
impl From<ManifestError> for EvalError {
    fn from(e: ManifestError) -> EvalError {
        EvalError::Manifest(e)
    }
}
impl From<FuncError> for EvalError {
    fn from(e: FuncError) -> EvalError {
        EvalError::Func(e)
    }
}
impl From<TreeError> for EvalError {
    fn from(e: TreeError) -> EvalError {
        EvalError::Tree(e)
    }
}

/// Evaluate `tree` under `analysis` with the external functions in
/// `funcs`.
///
/// # Errors
///
/// See [`EvalError`].
///
/// # Example
///
/// See the crate-level documentation for a complete walk-through.
pub fn evaluate(
    analysis: &Analysis,
    funcs: &Funcs,
    tree: &PTree,
    opts: &EvalOptions,
) -> Result<Evaluation, EvalError> {
    evaluate_inner(analysis, funcs, Some(tree), opts, None, false)
}

/// Evaluate `tree` with pass-boundary checkpointing into `checkpoint_dir`.
///
/// Each boundary file is fsynced and recorded (totals + CRC) in an
/// atomically rewritten [`Manifest`] before the next pass starts. If the
/// directory already holds a valid manifest for the same strategy and
/// pass count — this evaluation was started before and died — the run
/// *resumes* after the newest boundary whose file still matches its
/// manifest entry, instead of starting from pass 0. A checkpoint whose
/// file fails validation silently degrades to the previous one.
///
/// The caller owns `checkpoint_dir`: it is created if absent and left in
/// place on success (so the outputs can be audited), never deleted.
///
/// # Errors
///
/// See [`EvalError`]. Manifest I/O failures surface as
/// [`EvalError::Manifest`].
pub fn evaluate_resumable(
    analysis: &Analysis,
    funcs: &Funcs,
    tree: &PTree,
    opts: &EvalOptions,
    checkpoint_dir: &Path,
) -> Result<Evaluation, EvalError> {
    evaluate_inner(
        analysis,
        funcs,
        Some(tree),
        opts,
        Some(checkpoint_dir),
        false,
    )
}

fn strategy_name(s: Strategy) -> &'static str {
    match s {
        Strategy::BottomUp => "BottomUp",
        Strategy::Prefix => "Prefix",
    }
}

fn tag_pass(e: EvalError, k: u16) -> EvalError {
    match e {
        EvalError::Apt(a) => EvalError::Apt(a.at_pass(k)),
        other => other,
    }
}

/// Only I/O-rooted failures are transient; corrupt streams, semantic
/// errors, and deadline overruns would fail identically on every retry.
fn is_retryable(e: &EvalError) -> bool {
    matches!(e, EvalError::Apt(a) if matches!(a.root(), AptError::Io(_)))
}

fn evaluate_inner(
    analysis: &Analysis,
    funcs: &Funcs,
    tree: Option<&PTree>,
    opts: &EvalOptions,
    checkpoint: Option<&Path>,
    require_manifest: bool,
) -> Result<Evaluation, EvalError> {
    if let Some(t) = tree {
        t.validate(&analysis.grammar)?;
    }
    let first = analysis.passes.direction(1);
    let compatible = matches!(
        (opts.strategy, first),
        (Strategy::BottomUp, Direction::RightToLeft) | (Strategy::Prefix, Direction::LeftToRight)
    );
    if !compatible {
        return Err(EvalError::StrategyMismatch {
            strategy: opts.strategy,
            first_direction: first,
        });
    }

    let started = Instant::now();
    let num_passes = analysis.passes.num_passes() as u16;
    let store = match checkpoint {
        Some(dir) => {
            std::fs::create_dir_all(dir)
                .map_err(|e| EvalError::Apt(AptError::Io(e).in_file(dir)))?;
            Store::Dir(dir.to_path_buf())
        }
        None => Store::new(opts.backing)?,
    };

    // Resume detection: trust the newest manifest boundary (below the
    // final pass, whose root outputs are not on disk) whose file still
    // matches its recorded summary; walk back past corrupted ones.
    let mut manifest: Option<Manifest> = None;
    let mut resume_boundary: Option<u16> = None;
    if let Some(dir) = checkpoint {
        match Manifest::load(dir) {
            Ok(m) if m.strategy == strategy_name(opts.strategy) && m.num_passes == num_passes => {
                for e in m.entries.iter().rev() {
                    if e.pass >= num_passes {
                        continue;
                    }
                    let recorded = FileSummary {
                        records: e.records,
                        bytes: e.bytes,
                        crc: e.crc,
                    };
                    if file_summary(&boundary_path(dir, e.pass)).is_ok_and(|s| s == recorded) {
                        resume_boundary = Some(e.pass);
                        break;
                    }
                }
                let mut m = m;
                match resume_boundary {
                    // Later boundaries are now unproven; they will be
                    // re-recorded as their passes re-run.
                    Some(b) => m.entries.retain(|e| e.pass <= b),
                    None => m.entries.clear(),
                }
                manifest = Some(m);
            }
            Ok(m) if require_manifest => {
                return Err(EvalError::Corrupt(format!(
                    "checkpoint in {} is for a different configuration \
                     ({} × {} passes; this run needs {} × {})",
                    dir.display(),
                    m.strategy,
                    m.num_passes,
                    strategy_name(opts.strategy),
                    num_passes
                )));
            }
            Ok(_) => {}
            Err(e) if require_manifest => return Err(EvalError::Manifest(e)),
            Err(_) => {}
        }
        if require_manifest && resume_boundary.is_none() {
            return Err(EvalError::Corrupt(format!(
                "no valid checkpoint boundary to resume from in {}",
                dir.display()
            )));
        }
        if manifest.is_none() {
            manifest = Some(Manifest::new(strategy_name(opts.strategy), num_passes));
        }
    }
    let start_pass = resume_boundary.map_or(1, |b| b + 1);

    let mut metrics = opts.profile.then(EvalMetrics::default);
    let mut machine = Machine::new(
        analysis,
        funcs,
        opts.check_globals,
        EvalStats {
            meter: Meter::with_budget(opts.budget),
            resumed_from: resume_boundary,
            ..EvalStats::default()
        },
    );
    let check_deadline = || -> Result<(), EvalError> {
        match opts.deadline {
            Some(limit) if started.elapsed() >= limit => Err(EvalError::Deadline { limit }),
            _ => Ok(()),
        }
    };

    // Boundary 0: the parser-built file (skipped entirely on resume —
    // the checkpointed copy *is* the parser's output).
    if resume_boundary.is_none() {
        let tree = tree.ok_or_else(|| {
            EvalError::Corrupt(
                "nothing to resume and no parse tree supplied to rebuild boundary 0".to_owned(),
            )
        })?;
        let mut attempt = 1u32;
        let summary = loop {
            check_deadline()?;
            let result = (|| -> Result<FileSummary, EvalError> {
                let mut w = store.writer(0)?;
                if checkpoint.is_some() {
                    w.set_sync(true);
                }
                if let Some(f) = &opts.fault {
                    if f.pass == 0 && f.target == FaultTarget::Write {
                        w.set_fault(f.clone());
                    }
                }
                match opts.strategy {
                    Strategy::BottomUp => {
                        tree.write_postfix(&analysis.grammar, &analysis.lifetimes, &mut w)?
                    }
                    Strategy::Prefix => {
                        tree.write_prefix(&analysis.grammar, &analysis.lifetimes, &mut w)?
                    }
                }
                Ok(store.finish(0, w)?)
            })();
            match result {
                Ok(s) => break s,
                Err(e) => {
                    let e = tag_pass(e, 0);
                    if attempt >= opts.retry.max_attempts || !is_retryable(&e) {
                        return Err(e);
                    }
                    machine.stats.retries += 1;
                    std::thread::sleep(opts.retry.delay(attempt));
                    attempt += 1;
                }
            }
        };
        if let Some(m) = &mut metrics {
            m.initial_bytes = summary.bytes;
            m.initial_records = summary.records;
        }
        if let (Some(m), Some(dir)) = (&mut manifest, checkpoint) {
            m.record(PassEntry {
                pass: 0,
                records: summary.records,
                bytes: summary.bytes,
                crc: summary.crc,
            });
            m.save(dir)?;
        }
    }

    let mut root_state: Option<NodeState> = None;
    for k in start_pass..=num_passes {
        let read_dir = match (k, opts.strategy) {
            (1, Strategy::Prefix) => ReadDir::Forward,
            _ => ReadDir::Backward,
        };
        let mut attempt = 1u32;
        // Each attempt re-runs the whole pass from the (immutable)
        // boundary k-1 file; a clean attempt breaks with the pass result.
        let (root, pass_stats, summary) = loop {
            check_deadline()?;
            let pass_started = Instant::now();
            machine.pass = k;
            machine.depth = 0;
            machine.globals.fill(None);
            machine.saves.clear();
            machine.args.clear();
            machine.rules_this_pass = 0;
            machine.probe = PassProbe::default();
            let mem_before = machine.stats.meter.current();
            let result = (|| -> Result<(NodeState, u64, u64, FileSummary), EvalError> {
                let mut reader = store.reader(k - 1, read_dir)?;
                let mut writer = store.writer(k)?;
                if checkpoint.is_some() {
                    writer.set_sync(true);
                }
                if let Some(f) = &opts.fault {
                    if f.pass == k {
                        match f.target {
                            FaultTarget::Read => reader.set_fault(f.clone()),
                            FaultTarget::Write => writer.set_fault(f.clone()),
                        }
                    }
                }
                let root = machine.run_pass(&mut reader, &mut writer)?;
                let bytes_read = reader.bytes_read();
                let records_read = reader.records_read();
                let summary = store.finish(k, writer)?;
                Ok((root, bytes_read, records_read, summary))
            })();
            match result {
                Ok((root, bytes_read, records_read, summary)) => {
                    break (
                        root,
                        PassStats {
                            duration: pass_started.elapsed(),
                            bytes_read,
                            bytes_written: summary.bytes,
                            records_read,
                            records_written: summary.records,
                            rules_evaluated: machine.rules_this_pass,
                        },
                        summary,
                    );
                }
                Err(e) => {
                    let e = tag_pass(e, k);
                    if attempt >= opts.retry.max_attempts || !is_retryable(&e) {
                        return Err(e);
                    }
                    machine.stats.retries += 1;
                    // The aborted attempt left its spine charges on the
                    // meter; release them so retries don't compound
                    // (peak stays — that memory really was used).
                    let leaked = machine.stats.meter.current().saturating_sub(mem_before);
                    machine.stats.meter.release(leaked);
                    std::thread::sleep(opts.retry.delay(attempt));
                    attempt += 1;
                }
            }
        };
        if let Some(m) = &mut metrics {
            m.passes
                .push(machine.probe.finish(k, read_dir, &pass_stats));
        }
        machine.stats.passes.push(pass_stats);
        // Pass-boundary heartbeat: keep the scratch dir's lock fresh so
        // a sweeping daemon in another process never reaps a long
        // evaluation's intermediates mid-run.
        if let Store::Disk(dir) = &store {
            dir.refresh_lock();
        }
        if let (Some(m), Some(dir)) = (&mut manifest, checkpoint) {
            m.record(PassEntry {
                pass: k,
                records: summary.records,
                bytes: summary.bytes,
                crc: summary.crc,
            });
            m.save(dir)?;
        }
        root_state = Some(root);
    }

    let root = root_state.ok_or_else(|| {
        EvalError::Corrupt("grammar evaluates in zero passes; nothing to do".to_owned())
    })?;
    let g = &analysis.grammar;
    let mut outputs = Vec::new();
    for &a in &g.symbol(g.start()).attrs {
        if g.attr(a).class == AttrClass::Synthesized {
            let v = root
                .values
                .get(a)
                .ok_or_else(|| EvalError::Missing(format!("root output {}", g.attr_name(a))))?;
            outputs.push((a, v.clone()));
        }
    }
    machine.stats.lock_acquisitions = store.lock_acquisitions();
    if let Some(m) = &mut metrics {
        m.lock_acquisitions = machine.stats.lock_acquisitions;
    }
    Ok(Evaluation {
        outputs,
        stats: machine.stats,
        metrics,
    })
}

/// A small map kept as a vector sorted by key: the node frames, limb
/// values and rule locals of the machine each hold a handful of entries,
/// where a binary search beats hashing and the vector is the record's own
/// value list, taken over without rebuilding.
#[derive(Clone, Debug)]
struct VecMap<K, V>(Vec<(K, V)>);

impl<K: Ord + Copy, V> VecMap<K, V> {
    fn new() -> VecMap<K, V> {
        VecMap(Vec::new())
    }

    /// Take over `entries`. A record's values arrive sorted and unique;
    /// anything else is normalized as a map would have it, the last
    /// entry for a key winning.
    fn from_vec(mut entries: Vec<(K, V)>) -> VecMap<K, V> {
        if !entries.windows(2).all(|w| w[0].0 < w[1].0) {
            entries.reverse();
            entries.sort_by_key(|e| e.0);
            entries.dedup_by_key(|e| e.0);
        }
        VecMap(entries)
    }

    fn get(&self, k: K) -> Option<&V> {
        self.0
            .binary_search_by_key(&k, |e| e.0)
            .ok()
            .map(|i| &self.0[i].1)
    }

    fn insert(&mut self, k: K, v: V) {
        match self.0.binary_search_by_key(&k, |e| e.0) {
            Ok(i) => self.0[i].1 = v,
            Err(i) => self.0.insert(i, (k, v)),
        }
    }

    fn iter(&self) -> impl Iterator<Item = (K, &V)> {
        self.0.iter().map(|(k, v)| (*k, v))
    }
}

/// A node frame: attribute instances by attribute.
type Frame = VecMap<AttrId, Value>;

/// An APT node held on the stack: its symbol plus every attribute instance
/// currently materialized. The frame is the record's sorted value list.
#[derive(Clone, Debug)]
struct NodeState {
    sym: SymbolId,
    values: Frame,
    charged: usize,
}

impl NodeState {
    fn from_record(rec: Record) -> Result<NodeState, EvalError> {
        let charged = rec.byte_size();
        match rec.body {
            RecordBody::Sym(sym) => Ok(NodeState {
                sym,
                values: VecMap::from_vec(rec.values),
                charged,
            }),
            RecordBody::Prod(p) => Err(EvalError::Corrupt(format!(
                "expected a symbol record, found production {}",
                p.0
            ))),
        }
    }
}

/// The instances of `frame` that travel in the boundary-`pass` file: the
/// attributes of `attrs` alive across it, in ascending order.
fn alive<'f>(
    frame: &'f Frame,
    attrs: &'f [AttrId],
    lt: &'f Lifetimes,
    pass: u16,
) -> impl Iterator<Item = (AttrId, &'f Value)> {
    frame
        .iter()
        .filter(move |(a, _)| attrs.contains(a) && lt.alive_across(*a, pass))
}

/// What a production procedure's rules can read: its own node, its
/// children, its limb record and the definitions made so far.
#[derive(Clone, Copy)]
struct Scope<'s> {
    lhs: &'s Frame,
    children: &'s [Option<NodeState>],
    limb: &'s Frame,
    locals: &'s VecMap<AttrOcc, Value>,
}

impl Scope<'_> {
    fn get(&self, occ: AttrOcc) -> Option<&Value> {
        self.locals.get(occ).or_else(|| match occ.pos {
            OccPos::Lhs => self.lhs.get(occ.attr),
            OccPos::Rhs(i) => self
                .children
                .get(i as usize)
                .and_then(|c| c.as_ref())
                .and_then(|c| c.values.get(occ.attr)),
            OccPos::Limb => self.limb.get(occ.attr),
        })
    }
}

struct Machine<'a> {
    analysis: &'a Analysis,
    funcs: &'a Funcs,
    /// External functions by `Name::index()`, each looked up in `funcs`
    /// on its first call of this evaluation (`Some(None)`: unregistered).
    fns: Vec<Option<Option<&'a ExternalFn>>>,
    /// Argument stack of the calls being evaluated.
    args: Vec<Value>,
    /// The global variables, by `GroupId`.
    globals: Vec<Option<Value>>,
    /// Globals saved around the child visits in progress, innermost last.
    saves: Vec<(GroupId, Option<Value>)>,
    stats: EvalStats,
    check_globals: bool,
    pass: u16,
    depth: usize,
    rules_this_pass: u64,
    probe: PassProbe,
}

impl<'a> Machine<'a> {
    fn new(
        analysis: &'a Analysis,
        funcs: &'a Funcs,
        check_globals: bool,
        stats: EvalStats,
    ) -> Machine<'a> {
        Machine {
            analysis,
            funcs,
            fns: Vec::new(),
            args: Vec::new(),
            globals: vec![None; analysis.subsumption.num_groups()],
            saves: Vec::new(),
            stats,
            check_globals,
            pass: 0,
            depth: 0,
            rules_this_pass: 0,
            probe: PassProbe::default(),
        }
    }

    fn run_pass(
        &mut self,
        reader: &mut AptReader,
        writer: &mut AptWriter,
    ) -> Result<NodeState, EvalError> {
        let g = &self.analysis.grammar;
        let rec = reader
            .next()?
            .ok_or_else(|| EvalError::Corrupt("empty APT file".to_owned()))?;
        let mut root = NodeState::from_record(rec)?;
        if root.sym != g.start() {
            return Err(EvalError::Corrupt(format!(
                "root record is {}, expected start symbol {}",
                g.symbol_name(root.sym),
                g.symbol_name(g.start())
            )));
        }
        self.stats.meter.charge(root.charged);
        self.visit(&mut root, reader, writer)?;
        self.write_node(&root, writer)?;
        self.stats.meter.release(root.charged);
        Ok(root)
    }

    /// Write `node`'s record to the boundary file of this pass.
    fn write_node(&self, node: &NodeState, writer: &mut AptWriter) -> Result<(), AptError> {
        let g = &self.analysis.grammar;
        writer.write_values(
            RecordBody::Sym(node.sym),
            alive(
                &node.values,
                &g.symbol(node.sym).attrs,
                &self.analysis.lifetimes,
                self.pass,
            ),
        )
    }

    fn visit(
        &mut self,
        state: &mut NodeState,
        reader: &mut AptReader,
        writer: &mut AptWriter,
    ) -> Result<(), EvalError> {
        self.depth += 1;
        if self.depth > self.stats.max_depth {
            self.stats.max_depth = self.depth;
        }
        let g = &self.analysis.grammar;
        let lt = &self.analysis.lifetimes;

        // The production record drives dispatch (the limb's role of
        // "synchronizing the identification of productions").
        let prod_rec = reader
            .next()?
            .ok_or_else(|| EvalError::Corrupt("APT file ended inside a visit".to_owned()))?;
        let (prod, mut limb_vals, prod_charged) = match prod_rec.body {
            RecordBody::Prod(p) => {
                let charged = prod_rec.byte_size();
                (p, VecMap::from_vec(prod_rec.values), charged)
            }
            RecordBody::Sym(s) => {
                return Err(EvalError::Corrupt(format!(
                    "expected a production record, found symbol {}",
                    g.symbol_name(s)
                )))
            }
        };
        if g.production(prod).lhs != state.sym {
            return Err(EvalError::Corrupt(format!(
                "production {} does not derive {}",
                prod.0,
                g.symbol_name(state.sym)
            )));
        }
        self.stats.meter.charge(prod_charged);

        let rhs_len = g.production(prod).rhs.len();
        let mut children: Vec<Option<NodeState>> = (0..rhs_len).map(|_| None).collect();
        let mut locals: VecMap<AttrOcc, Value> = VecMap::new();
        let plan = self.analysis.plans.plan(self.pass, prod);
        let mut charged_children = 0usize;

        for step in &plan.steps {
            match *step {
                Step::Get(i) => {
                    let want = g.production(prod).rhs[i as usize];
                    // An elided terminal has no record in the input
                    // file: materialize its (empty) state directly.
                    if lt.elides(g, want, self.pass - 1) {
                        children[i as usize] = Some(NodeState {
                            sym: want,
                            values: VecMap::new(),
                            charged: 0,
                        });
                        continue;
                    }
                    let rec = reader.next()?.ok_or_else(|| {
                        EvalError::Corrupt("APT file ended before child record".to_owned())
                    })?;
                    let child = NodeState::from_record(rec)?;
                    if child.sym != want {
                        return Err(EvalError::Corrupt(format!(
                            "child {} of production {}: expected {}, found {}",
                            i,
                            prod.0,
                            g.symbol_name(want),
                            g.symbol_name(child.sym)
                        )));
                    }
                    self.stats.meter.charge(child.charged);
                    charged_children += child.charged;
                    children[i as usize] = Some(child);
                }
                Step::Eval(r) => {
                    self.eval_rule(r, &state.values, &children, &limb_vals, &mut locals)?;
                }
                Step::Visit(i) => {
                    let saved = self.saves.len();
                    if self.check_globals {
                        let scope = Scope {
                            lhs: &state.values,
                            children: &children,
                            limb: &limb_vals,
                            locals: &locals,
                        };
                        self.pre_visit_globals(prod, i, scope)?;
                    }
                    let mut child = children[i as usize]
                        .take()
                        .ok_or_else(|| EvalError::Missing(format!("child {} state", i)))?;
                    // This-pass inherited definitions must be visible to
                    // the child's procedure (the paradigm's "eval inherited
                    // attribs of Xi" happens before the visit).
                    merge_into_child(&mut child, i, &locals);
                    self.visit(&mut child, reader, writer)?;
                    children[i as usize] = Some(child);
                    if self.check_globals {
                        self.post_visit_globals(prod, i, &children, saved);
                    }
                }
                Step::Put(i) => {
                    let child = children[i as usize]
                        .as_mut()
                        .ok_or_else(|| EvalError::Missing(format!("child {} state", i)))?;
                    // Symmetric with Get: the next pass will not look
                    // for this record, so don't write it.
                    if lt.elides(g, child.sym, self.pass) {
                        continue;
                    }
                    // Merge this frame's definitions for the child into its
                    // record before writing.
                    merge_into_child(child, i, &locals);
                    self.write_node(child, writer)?;
                }
            }
        }

        // End zone: merge LHS and limb definitions, run the synthesized
        // global protocol, write the production record. `locals` is dead
        // after this merge, so the values *move* into their destination
        // frames — no clone, which for list-valued attributes means no
        // refcount churn on the cons spine.
        for (occ, v) in locals.0 {
            match occ.pos {
                OccPos::Lhs => state.values.insert(occ.attr, v),
                OccPos::Limb => limb_vals.insert(occ.attr, v),
                OccPos::Rhs(_) => {}
            }
        }
        if self.check_globals {
            self.end_globals(prod, state);
        }
        let limb_attrs = g
            .production(prod)
            .limb
            .map_or(&[][..], |l| &g.symbol(l).attrs[..]);
        writer.write_values(
            RecordBody::Prod(prod),
            alive(&limb_vals, limb_attrs, lt, self.pass),
        )?;

        self.stats.meter.release(charged_children + prod_charged);
        self.depth -= 1;
        Ok(())
    }

    fn resolve(&self, occ: AttrOcc, scope: Scope<'_>) -> Result<Value, EvalError> {
        scope.get(occ).cloned().ok_or_else(|| {
            EvalError::Missing(format!(
                "{} at {} (pass {})",
                self.analysis.grammar.attr_name(occ.attr),
                occ.pos,
                self.pass
            ))
        })
    }

    /// Evaluate rule `rule` and define its targets in `locals`.
    fn eval_rule(
        &mut self,
        rule: RuleId,
        lhs: &Frame,
        children: &[Option<NodeState>],
        limb: &Frame,
        locals: &mut VecMap<AttrOcc, Value>,
    ) -> Result<(), EvalError> {
        let r = self.analysis.grammar.rule(rule);
        let width = r.targets.len();
        let scope = Scope {
            lhs,
            children,
            limb,
            locals,
        };
        match &r.expr {
            Expr::If {
                branches,
                otherwise,
            } if width > 1 => {
                let arm = self.select_arm(branches, otherwise, scope)?;
                let mut vals = Vec::with_capacity(width);
                for e in arm {
                    vals.push(self.eval_expr(e, scope)?);
                }
                for (t, v) in r.targets.iter().zip(vals) {
                    locals.insert(*t, v);
                }
            }
            expr => {
                let v = self.eval_expr(expr, scope)?;
                // Only the extra targets of a multi-target rule clone.
                if let Some((last, rest)) = r.targets.split_last() {
                    for t in rest {
                        locals.insert(*t, v.clone());
                    }
                    locals.insert(*last, v);
                }
            }
        }
        self.rules_this_pass += 1;
        self.probe.attrs_evaluated += width as u64;
        Ok(())
    }

    fn select_arm<'e>(
        &mut self,
        branches: &'e [(Expr, Vec<Expr>)],
        otherwise: &'e [Expr],
        scope: Scope<'_>,
    ) -> Result<&'e [Expr], EvalError> {
        for (cond, arm) in branches {
            let c = self.eval_expr(cond, scope)?;
            match c {
                Value::Bool(true) => return Ok(arm),
                Value::Bool(false) => continue,
                other => {
                    return Err(EvalError::Func(FuncError::Type {
                        name: "if".to_owned(),
                        expected: "bool",
                        got: other.type_name(),
                    }))
                }
            }
        }
        Ok(otherwise)
    }

    fn eval_expr(&mut self, expr: &Expr, scope: Scope<'_>) -> Result<Value, EvalError> {
        match expr {
            Expr::Occ(o) => self.resolve(*o, scope),
            Expr::Int(i) => Ok(Value::Int(*i)),
            Expr::Bool(b) => Ok(Value::Bool(*b)),
            Expr::Str(s) => Ok(Value::str(s)),
            Expr::Const(n) => Ok(Value::Sym(*n)),
            Expr::Call { func, args } => {
                // Arguments go on the machine's argument stack; nested
                // calls push above them and pop before returning.
                let base = self.args.len();
                for a in args {
                    let v = self.eval_expr(a, scope)?;
                    self.args.push(v);
                }
                self.probe.funcs_invoked += 1;
                let f = self.function(*func)?;
                let out = f(&self.args[base..]);
                self.args.truncate(base);
                Ok(out?)
            }
            Expr::Binop { op, lhs, rhs } => {
                let a = self.eval_expr(lhs, scope)?;
                let b = self.eval_expr(rhs, scope)?;
                self.apply_binop(*op, a, b)
            }
            Expr::If {
                branches,
                otherwise,
            } => {
                let arm = self.select_arm(branches, otherwise, scope)?;
                match arm {
                    [single] => self.eval_expr(single, scope),
                    _ => Err(EvalError::Corrupt(
                        "multi-expression arm outside a multi-target rule".to_owned(),
                    )),
                }
            }
        }
    }

    /// The external function the grammar calls `name`, looked up in the
    /// registry on the first call of this evaluation and remembered.
    fn function(&mut self, name: Name) -> Result<&'a ExternalFn, FuncError> {
        let (funcs, g) = (self.funcs, &self.analysis.grammar);
        let ix = name.index();
        if ix >= self.fns.len() {
            self.fns.resize(ix + 1, None);
        }
        let found = *self.fns[ix].get_or_insert_with(|| funcs.get(g.resolve(name)));
        found.ok_or_else(|| FuncError::Unknown {
            name: g.resolve(name).to_owned(),
        })
    }

    fn apply_binop(&self, op: BinOp, a: Value, b: Value) -> Result<Value, EvalError> {
        let int = |v: &Value| -> Result<i64, EvalError> {
            match v {
                Value::Int(i) => Ok(*i),
                other => Err(EvalError::Func(FuncError::Type {
                    name: op.to_string(),
                    expected: "int",
                    got: other.type_name(),
                })),
            }
        };
        let boolean = |v: &Value| -> Result<bool, EvalError> {
            match v {
                Value::Bool(b) => Ok(*b),
                other => Err(EvalError::Func(FuncError::Type {
                    name: op.to_string(),
                    expected: "bool",
                    got: other.type_name(),
                })),
            }
        };
        Ok(match op {
            BinOp::Add => Value::Int(int(&a)?.wrapping_add(int(&b)?)),
            BinOp::Sub => Value::Int(int(&a)?.wrapping_sub(int(&b)?)),
            BinOp::And => Value::Bool(boolean(&a)? && boolean(&b)?),
            BinOp::Or => Value::Bool(boolean(&a)? || boolean(&b)?),
            BinOp::Eq => Value::Bool(a == b),
            BinOp::Ne => Value::Bool(a != b),
            BinOp::Gt => Value::Bool(int(&a)? > int(&b)?),
            BinOp::Lt => Value::Bool(int(&a)? < int(&b)?),
        })
    }

    // ---- static-subsumption global protocol ---------------------------
    //
    // Which static attributes a procedure touches, where, and whether
    // their definition is subsumed comes from the allocation's
    // per-(pass, production) table, built once per analysis.

    /// Verify that global `group` holds `val`, repairing it if not.
    fn check_global(&mut self, group: GroupId, val: &Value) {
        let global = &mut self.globals[group.0 as usize];
        self.stats.globals_checked += 1;
        if global.as_ref() != Some(val) {
            self.stats.globals_repaired += 1;
            *global = Some(val.clone());
        }
    }

    /// Before visiting child `i`: install this-pass inherited static
    /// values in the globals. Subsumed copies must already be there
    /// (verified); other definitions save the old value on the save stack
    /// and set the new one.
    fn pre_visit_globals(
        &mut self,
        prod: ProdId,
        i: u16,
        scope: Scope<'_>,
    ) -> Result<(), EvalError> {
        let an = self.analysis;
        for site in an.subsumption.protocol(self.pass, prod) {
            if site.at != SiteAt::BeforeVisit(i) {
                continue;
            }
            let val = self.resolve(AttrOcc::rhs(i, site.attr), scope)?;
            if site.subsumed {
                self.check_global(site.group, &val);
            } else {
                let old = self.globals[site.group.0 as usize].replace(val);
                self.saves.push((site.group, old));
            }
        }
        Ok(())
    }

    /// After visiting child `i`: verify the child's this-pass synthesized
    /// static values arrived in the globals, then restore what the visit
    /// saved above `saved` on the save stack.
    fn post_visit_globals(
        &mut self,
        prod: ProdId,
        i: u16,
        children: &[Option<NodeState>],
        saved: usize,
    ) {
        let an = self.analysis;
        if let Some(child) = children[i as usize].as_ref() {
            for site in an.subsumption.protocol(self.pass, prod) {
                if site.at != SiteAt::AfterVisit(i) {
                    continue;
                }
                if let Some(val) = child.values.get(site.attr) {
                    self.check_global(site.group, val);
                }
            }
        }
        for (group, old) in self.saves.drain(saved..).rev() {
            self.globals[group.0 as usize] = old;
        }
    }

    /// Procedure end: leave this node's this-pass synthesized static
    /// values in the globals for the parent. A subsumed upward copy means
    /// the value should already be there (verified).
    fn end_globals(&mut self, prod: ProdId, state: &NodeState) {
        let an = self.analysis;
        for site in an.subsumption.protocol(self.pass, prod) {
            if site.at != SiteAt::End {
                continue;
            }
            let Some(val) = state.values.get(site.attr) else {
                continue;
            };
            if site.subsumed {
                self.check_global(site.group, val);
            } else {
                self.globals[site.group.0 as usize] = Some(val.clone());
            }
        }
    }
}

/// Copy the definitions `locals` holds for child `i` into its frame.
fn merge_into_child(child: &mut NodeState, i: u16, locals: &VecMap<AttrOcc, Value>) {
    for (occ, v) in locals.iter() {
        if occ.pos == OccPos::Rhs(i) {
            child.values.insert(occ.attr, v.clone());
        }
    }
}

/// Per-evaluation intermediate storage: a temp directory of real files
/// (the paper), a job-owned set of RAM buffers (the shared-nothing batch
/// hot path), or the legacy mutex-guarded RAM store (the contention
/// ablation). Each evaluation builds its own `Store`, so jobs running on
/// different batch-evaluator threads never share intermediate state.
enum Store {
    Disk(TempAptDir),
    /// A caller-owned persistent checkpoint directory: same file layout
    /// as [`Store::Disk`], but it survives the evaluation (and the
    /// process) so a resumed run can pick its boundary files back up.
    Dir(PathBuf),
    /// Shared-nothing RAM store. Writers append to a plain owned
    /// `Vec<u8>` ([`AptWriter::create_owned`]); [`Store::finish`] seals
    /// the completed boundary into an immutable `Arc<Vec<u8>>` that
    /// readers share lock-free ([`AptReader::open_shared`]). The map is
    /// only touched at pass boundaries (one `RefCell` borrow per
    /// open/seal), never per record — and only updated on a *successful*
    /// finish, so a failed pass attempt simply drops its half-written
    /// buffer while boundary `k-1` stays intact for the retry. `RefCell`
    /// (not `Mutex`) is sound because a `Store` never leaves the
    /// evaluation's thread.
    Memory(RefCell<HashMap<u16, Arc<Vec<u8>>>>),
    /// The legacy shared store: one `Arc<Mutex<Vec<u8>>>` per boundary,
    /// locked on every record read and write. `lock_tally` counts every
    /// acquisition so [`EvalStats::lock_acquisitions`] can expose what
    /// the owned path saves.
    SharedMemory {
        files: Mutex<HashMap<u16, MemFile>>,
        lock_tally: Arc<AtomicU64>,
    },
}

impl Store {
    fn new(backing: Backing) -> Result<Store, AptError> {
        Ok(match backing {
            Backing::Disk => Store::Disk(TempAptDir::new()?),
            Backing::Memory => Store::Memory(RefCell::new(HashMap::new())),
            Backing::SharedMemory => Store::SharedMemory {
                files: Mutex::new(HashMap::new()),
                lock_tally: Arc::new(AtomicU64::new(0)),
            },
        })
    }

    fn buffer(&self, k: u16) -> MemFile {
        match self {
            Store::SharedMemory { files, lock_tally } => {
                lock_tally.fetch_add(1, Ordering::Relaxed);
                files
                    .lock()
                    .expect("store poisoned")
                    .entry(k)
                    .or_insert_with(|| Arc::new(Mutex::new(Vec::new())))
                    .clone()
            }
            Store::Disk(_) | Store::Dir(_) | Store::Memory(_) => {
                unreachable!("buffer() is shared-memory-only")
            }
        }
    }

    /// The sealed boundary-`k` buffer (empty if the boundary was never
    /// finished — the reader then rejects it as truncated, exactly like a
    /// missing file).
    fn sealed(&self, k: u16) -> Arc<Vec<u8>> {
        match self {
            Store::Memory(files) => files.borrow().get(&k).cloned().unwrap_or_default(),
            _ => unreachable!("sealed() is owned-memory-only"),
        }
    }

    fn writer(&self, k: u16) -> Result<AptWriter, AptError> {
        match self {
            Store::Disk(dir) => AptWriter::create(&dir.boundary(k)),
            Store::Dir(dir) => AptWriter::create(&boundary_path(dir, k)),
            Store::Memory(_) => Ok(AptWriter::create_owned()),
            Store::SharedMemory { lock_tally, .. } => {
                let mut w = AptWriter::create_mem(self.buffer(k));
                // `create_mem` locked once to truncate and stamp the
                // placeholder header, before the tally was attached.
                lock_tally.fetch_add(1, Ordering::Relaxed);
                w.set_lock_tally(lock_tally.clone());
                Ok(w)
            }
        }
    }

    fn reader(&self, k: u16, dir_: ReadDir) -> Result<AptReader, AptError> {
        match self {
            Store::Disk(dir) => AptReader::open(&dir.boundary(k), dir_),
            Store::Dir(dir) => AptReader::open(&boundary_path(dir, k), dir_),
            Store::Memory(_) => AptReader::open_shared(self.sealed(k), dir_),
            Store::SharedMemory { lock_tally, .. } => {
                let mut r = AptReader::open_mem(self.buffer(k), dir_)?;
                // `open_mem` locked once to validate the header, before
                // the tally was attached.
                lock_tally.fetch_add(1, Ordering::Relaxed);
                r.set_lock_tally(lock_tally.clone());
                Ok(r)
            }
        }
    }

    /// Complete boundary `k`: patch the header and, on the owned-memory
    /// path, seal the buffer into the store so the next pass can read it
    /// lock-free. The map is untouched on failure, keeping retries safe.
    fn finish(&self, k: u16, w: AptWriter) -> Result<FileSummary, AptError> {
        match self {
            Store::Memory(files) => {
                let (summary, buf) = w.finish_owned()?;
                files.borrow_mut().insert(k, Arc::new(buf));
                Ok(summary)
            }
            Store::Disk(_) | Store::Dir(_) | Store::SharedMemory { .. } => w.finish_summary(),
        }
    }

    /// Mutex acquisitions performed so far (always zero outside
    /// [`Store::SharedMemory`]).
    fn lock_acquisitions(&self) -> u64 {
        match self {
            Store::SharedMemory { lock_tally, .. } => lock_tally.load(Ordering::Relaxed),
            _ => 0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linguist_ag::analysis::Config;
    use linguist_ag::grammar::AgBuilder;

    fn map(pairs: &[(i64, i64)]) -> Value {
        Value::Map(
            pairs
                .iter()
                .map(|&(k, v)| (Value::Int(k), Value::Int(v)))
                .collect(),
        )
    }

    #[test]
    fn check_global_repairs_differing_contents_only() {
        let mut b = AgBuilder::new();
        let s = b.nonterminal("S");
        let env = b.synthesized(s, "ENV", "env");
        let p = b.production(s, vec![], None);
        b.rule(p, vec![AttrOcc::lhs(env)], Expr::Int(0));
        b.start(s);
        let analysis = Analysis::run(b.build().unwrap(), &Config::default()).unwrap();
        let funcs = Funcs::standard();
        let mut m = Machine::new(&analysis, &funcs, true, EvalStats::default());
        let group = analysis.subsumption.group_of(env);
        let counts = |m: &Machine| (m.stats.globals_checked, m.stats.globals_repaired);

        let table = map(&[(1, 10), (2, 20)]);
        m.globals[group.0 as usize] = Some(table.clone());
        m.check_global(group, &table);
        assert_eq!(counts(&m), (1, 0), "one spine");

        // Another spine with the same bindings, one of them shadowing an
        // older pair: equal, so nothing to repair.
        m.check_global(group, &map(&[(2, 20), (1, 99), (1, 10)]));
        assert_eq!(counts(&m), (2, 0), "equal contents");

        let differs = map(&[(1, 10), (2, 21)]);
        m.check_global(group, &differs);
        assert_eq!(counts(&m), (3, 1), "different contents");
        assert_eq!(m.globals[group.0 as usize].as_ref(), Some(&differs));

        m.globals[group.0 as usize] = None;
        m.check_global(group, &table);
        assert_eq!(counts(&m), (4, 2), "empty global");
    }
}
