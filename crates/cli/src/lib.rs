//! # msc-cli — the `mscc` command-line driver
//!
//! ```text
//! mscc build prog.mimdc --emit automaton      # print the meta-state graph
//! mscc build prog.mimdc --emit mpl            # Listing-5-style SIMD code
//! mscc build prog.mimdc --emit dot            # Graphviz of the automaton
//! mscc build prog.mimdc --emit graph          # the MIMD state graph
//! mscc build prog.mimdc --stats               # conversion stats + timings
//! mscc build prog.mimdc --cache .msc-cache    # reuse artifacts across runs
//! mscc batch a.mimdc b.mimdc c.mimdc --jobs 4 # compile many over a pool
//! mscc run   prog.mimdc --pes 16              # execute and print results
//! mscc run   prog.mimdc --compare             # also run MIMD ref + interpreter
//! ```
//!
//! Shared flags: `--mode base|compressed`, `--time-split`, `--optimize`,
//! `--minimize`, `--no-csi`, `--pes N`, `--pool N` (live PEs, rest idle).
//!
//! Engine flags (build and batch): `--cache DIR` persists compiled
//! artifacts content-addressed under DIR, so an unchanged source + options
//! combination is reloaded instead of recompiled; `--stats` appends a
//! stats block (meta-state counts, conversion counters, per-phase
//! timings, cache hits/misses). Either flag routes the build through
//! [`metastate::Engine`]. `--jobs N` (batch and sweep only) compiles the
//! files or profiles concurrently on N workers (0 = all cores).
//!
//! The argument parser and command execution live in this library so they
//! are unit-testable; `main.rs` is a thin shell.

use metastate::{ConvertMode, Engine, EngineOptions, Pipeline, Provenance, TimeSplitOptions};
use msc_ir::CostModel;
use msc_simd::MachineConfig;
use std::fmt;
use std::sync::Arc;

/// What `mscc build --emit` prints.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Emit {
    /// The meta-state automaton as text.
    Automaton,
    /// MPL-like SIMD code (Listing 5 style).
    Mpl,
    /// Graphviz of the automaton.
    Dot,
    /// The MIMD state graph as text.
    Graph,
    /// Reloadable SIMD assembly (see `msc_simd::asm`).
    Asm,
}

/// Parsed command line.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `mscc build FILE`.
    Build {
        /// Source path.
        file: String,
        /// What to print.
        emit: Emit,
        /// Common options.
        opts: CommonOpts,
    },
    /// `mscc run FILE`.
    Run {
        /// Source path.
        file: String,
        /// PEs to simulate.
        pes: usize,
        /// Live PEs at start (None = all; Some(n) leaves a spawn pool).
        pool: Option<usize>,
        /// Also run the MIMD reference and interpreter and compare.
        compare: bool,
        /// Print the meta-state execution trace.
        trace: bool,
        /// Common options.
        opts: CommonOpts,
    },
    /// `mscc batch FILE...`: compile many files over a worker pool.
    Batch {
        /// Source paths.
        files: Vec<String>,
        /// Common options.
        opts: CommonOpts,
    },
    /// `mscc sweep FILE`: compile and run one workload across a machine
    /// profile matrix and emit per-profile comparison tables.
    Sweep {
        /// Source path.
        file: String,
        /// Profile files and/or directories (`--profiles`, comma
        /// separated). Empty = `profiles/` when present, else the bundled
        /// matrix.
        profiles: Vec<String>,
        /// Common options.
        opts: CommonOpts,
    },
    /// `mscc serve`: run the compile-and-run daemon until SIGINT/SIGTERM.
    Serve {
        /// Bind address (port 0 = ephemeral).
        addr: String,
        /// Worker threads (0 = all cores).
        workers: usize,
        /// Admission queue depth (beyond it requests are shed with 503).
        queue_depth: usize,
        /// Disk cache directory.
        cache: Option<String>,
        /// Server-side ceiling on every job's explosion guard (None =
        /// the daemon default).
        max_meta_states: Option<usize>,
        /// Force the blocking thread-per-connection core instead of the
        /// epoll reactor.
        blocking: bool,
        /// Sibling daemons (`host:port`) consulted on local cache
        /// misses before compiling.
        peers: Vec<String>,
    },
    /// `mscc fuzz`: differential fuzzing over the whole oracle matrix.
    Fuzz {
        /// Run seed (every case derives from it).
        seed: u64,
        /// Cases to generate and check.
        cases: u64,
        /// Live PEs per case.
        pes: usize,
        /// Meta-state bound; beyond it an oracle is skipped, not failed.
        max_states: usize,
        /// Directory for minimized reproducers.
        corpus: Option<String>,
        /// Comma-separated oracle list (None = the full in-process set).
        oracles: Option<String>,
        /// Start an in-process daemon and include the serve oracle.
        serve: bool,
        /// Use an already-running daemon for the serve oracle.
        serve_addr: Option<String>,
        /// Replay a corpus reproducer file instead of fuzzing.
        replay: Option<String>,
        /// `--trace-out FILE` (observability).
        trace_out: Option<String>,
        /// `--metrics` (observability).
        metrics: bool,
    },
    /// `mscc match PATTERN [FILE]...`: data-parallel regex matching.
    Match {
        /// The regex pattern.
        pattern: String,
        /// Input files (empty = read stdin).
        files: Vec<String>,
        /// Matcher threads (0 = all cores).
        threads: usize,
    },
    /// `mscc help` / `-h` / `--help`.
    Help,
}

/// Options shared by build and run.
#[derive(Debug, Clone, PartialEq)]
pub struct CommonOpts {
    /// Conversion mode.
    pub mode: ConvertMode,
    /// §2.4 time splitting.
    pub time_split: bool,
    /// Peephole optimization.
    pub optimize: bool,
    /// Bisimulation minimization.
    pub minimize: bool,
    /// Disable CSI in codegen.
    pub no_csi: bool,
    /// Compile workers for batch and sweep (0 = all cores).
    pub jobs: usize,
    /// Artifact cache directory (routes through the engine).
    pub cache: Option<String>,
    /// Append the stats block to build/batch output (routes through the
    /// engine).
    pub stats: bool,
    /// Stream structured observability events (spans, counters, samples)
    /// to this JSONL file for the duration of the command.
    pub trace_out: Option<String>,
    /// Append the end-of-run metrics summary table (aggregated from the
    /// same event stream).
    pub metrics: bool,
    /// Explosion guard override: fail conversion past this many meta
    /// states (None = the mode's default, 2²⁰).
    pub max_meta_states: Option<usize>,
    /// Conversion memory budget in bytes (`k`/`m`/`g` suffixes accepted);
    /// past it the interned-set arena and worklist spill to temp files.
    /// None = the `MSC_MEMORY_BUDGET` env default (or never spill).
    pub memory_budget: Option<usize>,
}

impl CommonOpts {
    /// True when any engine feature was requested.
    pub fn wants_engine(&self) -> bool {
        self.cache.is_some() || self.stats
    }
}

impl Default for CommonOpts {
    fn default() -> Self {
        CommonOpts {
            mode: ConvertMode::Base,
            time_split: false,
            optimize: false,
            minimize: false,
            no_csi: false,
            jobs: 1,
            cache: None,
            stats: false,
            trace_out: None,
            metrics: false,
            max_meta_states: None,
            memory_budget: None,
        }
    }
}

/// CLI failures (parse or execution).
#[derive(Debug)]
pub struct CliError(pub String);

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
mscc — Meta-State Conversion compiler driver

USAGE:
  mscc build <FILE>    [--emit automaton|mpl|dot|graph|asm] [common flags] [engine flags]
  mscc batch <FILE>... [common flags] [engine flags]
  mscc run   <FILE>    [--pes N] [--pool N] [--compare] [--trace] [common flags]
  mscc sweep <FILE>    [--profiles FILES/DIRS,...] [common flags] [engine flags]
  mscc serve           [--addr HOST:PORT] [--workers N] [--queue-depth N] [--cache DIR]
                       [--max-meta-states N] [--blocking] [--peers HOST:PORT,...]
  mscc fuzz            [--seed N] [--cases N] [--pes N] [--max-states N] [--corpus DIR]
                       [--oracles LIST] [--serve | --serve-addr HOST:PORT] [--replay FILE]
  mscc match <PATTERN> [FILE]... [--threads N]
  mscc help

COMMON FLAGS:
  --mode base|compressed   conversion mode (default: base)
  --time-split             enable §2.4 time splitting
  --optimize               peephole-optimize blocks first
  --minimize               merge bisimilar MIMD states first
  --no-csi                 disable common subexpression induction
  --max-meta-states N      explosion guard: fail conversion past N meta
                           states (default 1048576)
  --memory-budget BYTES    spill cold meta-state sets and the worklist
                           tail to temp files past BYTES resident (k/m/g
                           suffixes; default: MSC_MEMORY_BUDGET env, else
                           never spill)

ENGINE FLAGS (build and batch):
  --jobs N                 batch and sweep only: compile files concurrently
                           on N workers (0 = all cores; batch default 1)
  --cache DIR              content-addressed artifact cache: unchanged
                           source + options reload instead of recompiling
  --stats                  append meta-state counts, conversion counters,
                           per-phase timings, and cache hit/miss counters

SWEEP FLAGS:
  --profiles LIST          comma list of machine-profile JSON files and/or
                           directories of them (default: the profiles/
                           directory when present, else the bundled
                           paper-default/wide-simd/slow-globalor/
                           cheap-dispatch matrix); each profile compiles
                           in parallel over the engine pool (--jobs,
                           default all cores) and runs on its own machine;
                           output is an aligned per-profile comparison
                           table plus a machine-readable JSON summary line

SERVE FLAGS:
  --addr HOST:PORT         bind address (default 127.0.0.1:7643; port 0 = ephemeral)
  --workers N              connection worker threads (default: all cores)
  --queue-depth N          admission queue depth; beyond it requests are
                           shed with 503 + Retry-After (default 64)
  --cache DIR              on-disk compile cache shared across restarts
  --max-meta-states N      ceiling on every job's explosion guard; requests
                           asking for more are clamped (default 1048576)
  --blocking               serve with the blocking thread-per-connection core
                           instead of the epoll reactor (reactor is the
                           default on Linux; MSC_SERVE_BLOCKING=1 forces
                           blocking too)
  --peers HOST:PORT,...    sibling daemons consulted on local cache misses
                           before compiling (GET /artifact/{key}); a sick
                           peer is skipped via a per-peer circuit breaker

FUZZ FLAGS:
  --seed N                 run seed; case k is reproducible from (seed, k) (default 1)
  --cases N                cases to generate and check (default 200)
  --pes N                  live PEs per case (default 5)
  --max-states N           meta-state bound; oracles skip past it (default
                           3000; --max-meta-states is accepted as an alias)
  --corpus DIR             write minimized reproducers here on mismatch
  --oracles LIST           comma list: interp,base,compressed,timesplit,nocsi,
                           engine,cache,serve,regex,selftest (default: all
                           in-process)
  --serve                  start an in-process daemon and fuzz it over TCP
  --serve-addr HOST:PORT   fuzz an already-running daemon instead
  --replay FILE            re-run a corpus reproducer and report whether it
                           still diverges
  exit status is nonzero when any mismatch is found; the last stdout line
  is a machine-readable JSON summary either way

MATCH FLAGS:
  --threads N              matcher threads for sharded scanning (default 0
                           = all cores); spans are identical at any count
  with no FILE, the pattern is matched against stdin; supported syntax is
  literals, classes [a-z] [^…], . * + ? |, grouping, and ^/$ anchors

OBSERVABILITY FLAGS (all commands):
  --trace-out FILE         stream structured events (spans, counters,
                           samples) as JSON lines to FILE
  --metrics                append an end-of-run metrics summary table
";

/// Parse an argument vector (without the program name).
pub fn parse_args(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter().peekable();
    let cmd = it.next().ok_or_else(|| CliError(USAGE.into()))?;
    match cmd.as_str() {
        "help" | "-h" | "--help" => Ok(Command::Help),
        "build" | "run" | "batch" | "sweep" => {
            let mut files: Vec<String> = Vec::new();
            let mut emit = Emit::Automaton;
            let mut pes = 8usize;
            let mut pool: Option<usize> = None;
            let mut compare = false;
            let mut trace = false;
            let mut profiles: Vec<String> = Vec::new();
            let mut jobs_set = false;
            let mut opts = CommonOpts::default();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--profiles" if cmd == "sweep" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--profiles needs files/dirs".into()))?;
                        profiles.extend(v.split(',').filter(|s| !s.is_empty()).map(String::from));
                    }
                    "--emit" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--emit needs a value".into()))?;
                        emit = match v.as_str() {
                            "automaton" => Emit::Automaton,
                            "mpl" => Emit::Mpl,
                            "dot" => Emit::Dot,
                            "graph" => Emit::Graph,
                            "asm" => Emit::Asm,
                            other => return Err(CliError(format!("unknown emit kind `{other}`"))),
                        };
                    }
                    "--mode" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--mode needs a value".into()))?;
                        opts.mode = match v.as_str() {
                            "base" => ConvertMode::Base,
                            "compressed" => ConvertMode::Compressed,
                            other => return Err(CliError(format!("unknown mode `{other}`"))),
                        };
                    }
                    "--pes" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--pes needs a value".into()))?;
                        pes = v
                            .parse()
                            .map_err(|_| CliError(format!("bad PE count `{v}`")))?;
                    }
                    "--pool" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--pool needs a value".into()))?;
                        pool = Some(
                            v.parse()
                                .map_err(|_| CliError(format!("bad pool count `{v}`")))?,
                        );
                    }
                    "--time-split" => opts.time_split = true,
                    "--optimize" => opts.optimize = true,
                    "--minimize" => opts.minimize = true,
                    "--no-csi" => opts.no_csi = true,
                    "--compare" => compare = true,
                    "--trace" => trace = true,
                    "--jobs" if cmd == "batch" || cmd == "sweep" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--jobs needs a value".into()))?;
                        opts.jobs = v
                            .parse()
                            .map_err(|_| CliError(format!("bad job count `{v}`")))?;
                        jobs_set = true;
                    }
                    "--cache" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--cache needs a directory".into()))?;
                        opts.cache = Some(v.clone());
                    }
                    "--stats" => opts.stats = true,
                    "--trace-out" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--trace-out needs a file path".into()))?;
                        opts.trace_out = Some(v.clone());
                    }
                    "--metrics" => opts.metrics = true,
                    "--max-meta-states" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--max-meta-states needs a value".into()))?;
                        let n: usize = v
                            .parse()
                            .map_err(|_| CliError(format!("bad meta-state limit `{v}`")))?;
                        if n == 0 {
                            return Err(CliError("--max-meta-states must be at least 1".into()));
                        }
                        opts.max_meta_states = Some(n);
                    }
                    "--memory-budget" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--memory-budget needs a byte size".into()))?;
                        opts.memory_budget = Some(msc_core::parse_bytes(v).ok_or_else(|| {
                            CliError(format!("bad memory budget `{v}` (try 64m, 2g, 65536)"))
                        })?);
                    }
                    other if !other.starts_with('-') && (cmd == "batch" || files.is_empty()) => {
                        files.push(other.to_string());
                    }
                    other => return Err(CliError(format!("unexpected argument `{other}`"))),
                }
            }
            if files.is_empty() {
                return Err(CliError("missing input file".into()));
            }
            Ok(match cmd.as_str() {
                "build" => Command::Build {
                    file: files.remove(0),
                    emit,
                    opts,
                },
                "batch" => Command::Batch { files, opts },
                "sweep" => {
                    if !jobs_set {
                        // Profile compiles are independent; default to the
                        // whole pool (and thereby the engine path).
                        opts.jobs = 0;
                    }
                    Command::Sweep {
                        file: files.remove(0),
                        profiles,
                        opts,
                    }
                }
                _ => Command::Run {
                    file: files.remove(0),
                    pes,
                    pool,
                    compare,
                    trace,
                    opts,
                },
            })
        }
        "serve" => {
            let mut addr = "127.0.0.1:7643".to_string();
            let mut workers = 0usize;
            let mut queue_depth = 64usize;
            let mut cache: Option<String> = None;
            let mut max_meta_states: Option<usize> = None;
            let mut blocking = false;
            let mut peers: Vec<String> = Vec::new();
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--addr" => {
                        addr = it
                            .next()
                            .ok_or_else(|| CliError("--addr needs HOST:PORT".into()))?
                            .clone();
                    }
                    "--workers" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--workers needs a value".into()))?;
                        workers = v
                            .parse()
                            .map_err(|_| CliError(format!("bad worker count `{v}`")))?;
                    }
                    "--queue-depth" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--queue-depth needs a value".into()))?;
                        queue_depth = v
                            .parse()
                            .map_err(|_| CliError(format!("bad queue depth `{v}`")))?;
                    }
                    "--cache" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--cache needs a directory".into()))?;
                        cache = Some(v.clone());
                    }
                    "--max-meta-states" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--max-meta-states needs a value".into()))?;
                        let n: usize = v
                            .parse()
                            .map_err(|_| CliError(format!("bad meta-state cap `{v}`")))?;
                        if n == 0 {
                            return Err(CliError("--max-meta-states must be at least 1".into()));
                        }
                        max_meta_states = Some(n);
                    }
                    "--blocking" => blocking = true,
                    "--peers" => {
                        let v = it.next().ok_or_else(|| {
                            CliError("--peers needs a comma-separated HOST:PORT list".into())
                        })?;
                        for p in v.split(',') {
                            let p = p.trim();
                            if p.is_empty() {
                                return Err(CliError(format!("empty peer address in `{v}`")));
                            }
                            peers.push(p.to_string());
                        }
                    }
                    other => return Err(CliError(format!("unexpected argument `{other}`"))),
                }
            }
            Ok(Command::Serve {
                addr,
                workers,
                queue_depth,
                cache,
                max_meta_states,
                blocking,
                peers,
            })
        }
        "fuzz" => {
            let mut seed = 1u64;
            let mut cases = 200u64;
            let mut pes = 5usize;
            let mut max_states = 3000usize;
            let mut corpus: Option<String> = None;
            let mut oracles: Option<String> = None;
            let mut serve = false;
            let mut serve_addr: Option<String> = None;
            let mut replay: Option<String> = None;
            let mut trace_out: Option<String> = None;
            let mut metrics = false;
            fn num<'a>(
                it: &mut impl Iterator<Item = &'a String>,
                flag: &str,
            ) -> Result<u64, CliError> {
                let v = it
                    .next()
                    .ok_or_else(|| CliError(format!("{flag} needs a value")))?;
                v.parse()
                    .map_err(|_| CliError(format!("bad value `{v}` for {flag}")))
            }
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--seed" => seed = num(&mut it, "--seed")?,
                    "--cases" => cases = num(&mut it, "--cases")?,
                    "--pes" => pes = num(&mut it, "--pes")? as usize,
                    "--max-states" => max_states = num(&mut it, "--max-states")? as usize,
                    // Same knob under the name the other commands use.
                    "--max-meta-states" => {
                        max_states = num(&mut it, "--max-meta-states")? as usize;
                    }
                    "--corpus" => {
                        corpus = Some(
                            it.next()
                                .ok_or_else(|| CliError("--corpus needs a directory".into()))?
                                .clone(),
                        );
                    }
                    "--oracles" => {
                        oracles = Some(
                            it.next()
                                .ok_or_else(|| CliError("--oracles needs a list".into()))?
                                .clone(),
                        );
                    }
                    "--serve" => serve = true,
                    "--serve-addr" => {
                        serve_addr = Some(
                            it.next()
                                .ok_or_else(|| CliError("--serve-addr needs HOST:PORT".into()))?
                                .clone(),
                        );
                    }
                    "--replay" => {
                        replay = Some(
                            it.next()
                                .ok_or_else(|| CliError("--replay needs a file".into()))?
                                .clone(),
                        );
                    }
                    "--trace-out" => {
                        trace_out = Some(
                            it.next()
                                .ok_or_else(|| CliError("--trace-out needs a file path".into()))?
                                .clone(),
                        );
                    }
                    "--metrics" => metrics = true,
                    other => return Err(CliError(format!("unexpected argument `{other}`"))),
                }
            }
            if pes == 0 {
                return Err(CliError("--pes must be at least 1".into()));
            }
            if serve && (metrics || trace_out.is_some()) {
                // Server::start holds the process-global obs install lock
                // for its lifetime; a CLI obs session on top would block
                // forever. An external daemon has its own process, so
                // --serve-addr composes fine.
                return Err(CliError(
                    "--serve owns the in-process metrics registry; combine --metrics/--trace-out \
                     with --serve-addr instead"
                        .into(),
                ));
            }
            Ok(Command::Fuzz {
                seed,
                cases,
                pes,
                max_states,
                corpus,
                oracles,
                serve,
                serve_addr,
                replay,
                trace_out,
                metrics,
            })
        }
        "match" => {
            let mut pattern: Option<String> = None;
            let mut files: Vec<String> = Vec::new();
            let mut threads = 0usize;
            while let Some(a) = it.next() {
                match a.as_str() {
                    "--threads" => {
                        let v = it
                            .next()
                            .ok_or_else(|| CliError("--threads needs a value".into()))?;
                        threads = v
                            .parse()
                            .map_err(|_| CliError(format!("bad thread count `{v}`")))?;
                    }
                    // The first positional is the pattern — even when it
                    // starts with `-` inside a class or alternation the
                    // shell-friendly spelling is to quote it; a leading
                    // `-` that is not a known flag is accepted as pattern
                    // text so `mscc match '-+'` works.
                    other if pattern.is_none() => pattern = Some(other.to_string()),
                    other if !other.starts_with('-') => files.push(other.to_string()),
                    other => return Err(CliError(format!("unexpected argument `{other}`"))),
                }
            }
            let pattern = pattern.ok_or_else(|| CliError("missing pattern".into()))?;
            Ok(Command::Match {
                pattern,
                files,
                threads,
            })
        }
        other => Err(CliError(format!("unknown command `{other}`\n\n{USAGE}"))),
    }
}

fn build_pipeline(src: &str, opts: &CommonOpts) -> Pipeline {
    // Guard/budget overrides must come after mode(): mode() resets the
    // conversion options to that mode's defaults.
    let mut p = Pipeline::new(src).mode(opts.mode);
    if let Some(n) = opts.max_meta_states {
        p = p.max_meta_states(n);
    }
    if let Some(b) = opts.memory_budget {
        p = p.memory_budget(Some(b));
    }
    if opts.time_split {
        p = p.time_split(TimeSplitOptions::default());
    }
    if opts.optimize {
        p = p.optimize();
    }
    if opts.minimize {
        p = p.minimize();
    }
    if opts.no_csi {
        p = p.gen_options(metastate::GenOptions {
            csi: false,
            ..Default::default()
        });
    }
    p
}

/// Build an [`Engine`] from the engine-related common options.
fn engine_for(opts: &CommonOpts) -> Engine {
    Engine::new(EngineOptions {
        threads: opts.jobs,
        cache_dir: opts.cache.as_ref().map(std::path::PathBuf::from),
        ..EngineOptions::default()
    })
}

/// The `--stats` block for one compiled artifact.
fn stats_block(artifact: &metastate::Artifact, provenance: Provenance, engine: &Engine) -> String {
    let s = &artifact.stats;
    let t = &artifact.timings;
    let c = engine.cache_stats();
    let mut out = String::from("\n-- stats --\n");
    out.push_str(&format!("provenance: {provenance}\n"));
    match &artifact.automaton {
        Some(a) => out.push_str(&format!(
            "meta states: {} (avg width {:.2}, max width {})\n",
            a.len(),
            a.avg_width(),
            a.max_width()
        )),
        None => out.push_str(&format!("meta states: {}\n", artifact.meta_states)),
    }
    out.push_str(&format!(
        "conversion: {} restarts, {} splits, {} subsumed, {} successor sets enumerated\n",
        s.restarts, s.splits, s.subsumed, s.successor_sets_enumerated
    ));
    out.push_str(&format!(
        "timings: compile {:?}, convert {:?}, codegen {:?}\n",
        t.compile, t.convert, t.codegen
    ));
    out.push_str(&format!(
        "cache: {} memory hits, {} disk hits, {} peer hits, {} misses, {} coalesced, {} insertions, {} evictions\n",
        c.hits,
        c.disk_hits,
        c.peer_hits,
        c.misses,
        engine.coalesced(),
        c.insertions,
        c.evictions
    ));
    out
}

/// `mscc build` through the engine: canonical conversion + cache. Artifacts
/// reloaded from the disk cache carry the program and automaton text but
/// not the in-memory IR, so `--emit dot|graph` falls back to a fresh
/// classic build for them.
fn execute_build_engine(
    file: &str,
    emit: &Emit,
    opts: &CommonOpts,
    src: &str,
) -> Result<String, CliError> {
    let engine = engine_for(opts);
    let job = build_pipeline(src, opts).into_job(file);
    let out = engine.compile(&job).map_err(|e| CliError(e.to_string()))?;
    let artifact = &out.artifact;
    let mut text = match emit {
        Emit::Automaton => {
            let mut t = artifact.automaton_text.clone();
            match &artifact.automaton {
                Some(a) => t.push_str(&format!(
                    "\n{} meta states, avg width {:.2}, max width {}\n",
                    a.len(),
                    a.avg_width(),
                    a.max_width()
                )),
                None => t.push_str(&format!("\n{} meta states\n", artifact.meta_states)),
            }
            t
        }
        Emit::Mpl => metastate::render_mpl(&artifact.simd),
        Emit::Asm => msc_simd::serialize_asm(&artifact.simd),
        Emit::Dot => match &artifact.automaton {
            Some(a) => a.dot(),
            None => classic_built(src, opts)?.automaton.dot(),
        },
        Emit::Graph => {
            let graph_text =
                |p: &msc_lang::Program| msc_ir::render::text(&p.graph, &CostModel::default());
            match &artifact.compiled {
                Some(p) => graph_text(p),
                None => graph_text(&classic_built(src, opts)?.compiled),
            }
        }
    };
    if opts.stats {
        text.push_str(&stats_block(artifact, out.provenance, &engine));
    }
    Ok(text)
}

fn classic_built(src: &str, opts: &CommonOpts) -> Result<metastate::Built, CliError> {
    build_pipeline(src, opts)
        .build()
        .map_err(|e| CliError(e.to_string()))
}

fn mode_name(mode: ConvertMode) -> &'static str {
    match mode {
        ConvertMode::Base => "base",
        ConvertMode::Compressed => "compressed",
    }
}

/// Resolve `--profiles` specs (files and/or directories) into the profile
/// matrix. No specs: the committed `profiles/` directory when present,
/// else the bundled matrix (same content — the tier-1 tests pin the
/// committed files bit-equal to [`msc_simd::MachineProfile::bundled`]).
fn load_profiles(specs: &[String]) -> Result<Vec<msc_simd::MachineProfile>, CliError> {
    use msc_simd::MachineProfile;
    let mut out = Vec::new();
    if specs.is_empty() {
        let dir = std::path::Path::new("profiles");
        if dir.is_dir() {
            out = MachineProfile::load_dir(dir).map_err(|e| CliError(format!("profiles/: {e}")))?;
        } else {
            out = MachineProfile::bundled();
        }
    } else {
        for spec in specs {
            let path = std::path::Path::new(spec);
            if path.is_dir() {
                out.extend(
                    MachineProfile::load_dir(path).map_err(|e| CliError(format!("{spec}: {e}")))?,
                );
            } else {
                out.push(MachineProfile::load(path).map_err(|e| CliError(format!("{spec}: {e}")))?);
            }
        }
    }
    if out.is_empty() {
        return Err(CliError("no machine profiles found".into()));
    }
    Ok(out)
}

/// One measured profile in a sweep.
struct SweepRow {
    name: String,
    pe_count: usize,
    meta_states: usize,
    cycles: u64,
    utilization: f64,
    interp_cycles: u64,
    speedup: f64,
}

/// `mscc sweep`: compile the workload once per profile (each profile's
/// cost model is part of the [`metastate::Job`], so the engine pool
/// parallelizes the compiles and the cache keys stay distinct), run each
/// program on its profile's machine, and price the §1.1 interpreter
/// baseline under the same profile for the speedup column. Output: an
/// aligned text table plus one machine-readable JSON line.
pub fn execute_sweep(
    file: &str,
    src: &str,
    profiles: &[msc_simd::MachineProfile],
    opts: &CommonOpts,
) -> Result<String, CliError> {
    use msc_obs::json::Json;
    msc_obs::count("sweep.profiles", profiles.len() as u64);
    let program = msc_lang::compile(src).map_err(|e| CliError(e.to_string()))?;
    let engine = engine_for(opts);
    let jobs: Vec<metastate::Job> = profiles
        .iter()
        .map(|p| {
            build_pipeline(src, opts)
                .costs(p.costs.clone())
                .into_job(format!("{file}@{}", p.name))
        })
        .collect();
    let compiled = engine.compile_many(&jobs);

    let mut rows: Vec<SweepRow> = Vec::new();
    let mut failures: Vec<String> = Vec::new();
    for (p, result) in profiles.iter().zip(compiled) {
        let out = match result {
            Ok(out) => out,
            Err(e) => {
                msc_obs::count("sweep.errors", 1);
                failures.push(format!("{}: compile failed: {e}", p.name));
                continue;
            }
        };
        let cfg = p.machine_config();
        let simd = &out.artifact.simd;
        let mut machine = metastate::SimdMachine::new(simd, &cfg);
        let metrics = match machine.run(simd, &cfg) {
            Ok(m) => m,
            Err(e) => {
                msc_obs::count("sweep.errors", 1);
                failures.push(format!("{}: run failed: {e}", p.name));
                continue;
            }
        };
        let interp_cycles = match msc_mimd::interpret_on_simd(
            &program.graph,
            program.layout.poly_words,
            program.layout.mono_words,
            p.pe_count,
            &p.costs,
        ) {
            Ok((_, im)) => im.cycles,
            Err(e) => {
                msc_obs::count("sweep.errors", 1);
                failures.push(format!("{}: interpreter baseline failed: {e}", p.name));
                continue;
            }
        };
        msc_obs::count("sweep.runs", 1);
        rows.push(SweepRow {
            name: p.name.clone(),
            pe_count: p.pe_count,
            meta_states: out.artifact.meta_states,
            cycles: metrics.cycles,
            utilization: metrics.utilization(),
            interp_cycles,
            speedup: interp_cycles as f64 / metrics.cycles as f64,
        });
    }

    let name_w = rows
        .iter()
        .map(|r| r.name.len())
        .chain(["profile".len()])
        .max()
        .expect("chain is non-empty");
    let mut text = format!(
        "sweep: {file} across {} profile(s) ({} mode)\n\n",
        profiles.len(),
        mode_name(opts.mode),
    );
    text.push_str(&format!(
        "{:<name_w$}  {:>4}  {:>6}  {:>12}  {:>6}  {:>12}  {:>8}\n",
        "profile", "PEs", "states", "cycles", "util%", "interp", "speedup"
    ));
    for r in &rows {
        text.push_str(&format!(
            "{:<name_w$}  {:>4}  {:>6}  {:>12}  {:>6.1}  {:>12}  {:>7.2}x\n",
            r.name,
            r.pe_count,
            r.meta_states,
            r.cycles,
            r.utilization * 100.0,
            r.interp_cycles,
            r.speedup
        ));
    }
    let json = Json::obj(vec![
        ("workload", Json::from(file)),
        ("mode", Json::from(mode_name(opts.mode))),
        (
            "profiles",
            Json::Arr(
                rows.iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("name", Json::from(r.name.as_str())),
                            ("pe_count", Json::from(r.pe_count)),
                            ("meta_states", Json::from(r.meta_states)),
                            ("cycles", Json::from(r.cycles)),
                            ("utilization", Json::from(r.utilization)),
                            ("interp_cycles", Json::from(r.interp_cycles)),
                            ("speedup", Json::from(r.speedup)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]);
    text.push('\n');
    text.push_str(&json.render());
    text.push('\n');
    if !failures.is_empty() {
        return Err(CliError(format!(
            "{text}\nsweep failures:\n  {}",
            failures.join("\n  ")
        )));
    }
    Ok(text)
}

/// Observability wiring for one CLI invocation: installs the subscribers
/// the flags ask for (a metrics [`msc_obs::Registry`] for `--metrics`, a
/// [`msc_obs::JsonlSink`] for `--trace-out`, fanned out when both) for the
/// duration of the command. Exactly one session is installed per
/// invocation — nesting would deadlock on the obs install lock, so
/// [`execute_batch`] owns the session for batches and
/// [`execute_on_source`] owns it for build/run.
struct ObsSession {
    registry: Option<Arc<msc_obs::Registry>>,
    sink: Option<Arc<msc_obs::JsonlSink<std::fs::File>>>,
    guard: msc_obs::InstallGuard,
}

impl ObsSession {
    /// Start a session if the options ask for one; `None` means the
    /// command runs with observability fully disabled (the zero-cost
    /// path).
    fn start(opts: &CommonOpts) -> Result<Option<ObsSession>, CliError> {
        if !opts.metrics && opts.trace_out.is_none() {
            return Ok(None);
        }
        let registry = if opts.metrics {
            Some(Arc::new(msc_obs::Registry::new()))
        } else {
            None
        };
        let sink = match &opts.trace_out {
            Some(path) => {
                Some(Arc::new(msc_obs::JsonlSink::create(path).map_err(|e| {
                    CliError(format!("cannot open trace file {path}: {e}"))
                })?))
            }
            None => None,
        };
        let mut subs: Vec<Arc<dyn msc_obs::Subscriber>> = Vec::new();
        if let Some(r) = &registry {
            subs.push(r.clone());
        }
        if let Some(s) = &sink {
            subs.push(s.clone());
        }
        let guard = if subs.len() == 1 {
            msc_obs::install(subs.pop().expect("one subscriber"))
        } else {
            msc_obs::install(Arc::new(msc_obs::Fanout::new(subs)))
        };
        Ok(Some(ObsSession {
            registry,
            sink,
            guard,
        }))
    }

    /// Uninstall the subscribers, flush the trace file, and return the
    /// rendered metrics table (empty when `--metrics` was not given).
    fn finish(self) -> Result<String, CliError> {
        drop(self.guard);
        if let Some(sink) = &self.sink {
            sink.flush()
                .map_err(|e| CliError(format!("cannot flush trace file: {e}")))?;
        }
        Ok(self
            .registry
            .map(|r| r.snapshot().render_table())
            .unwrap_or_default())
    }
}

/// `mscc fuzz`: run the differential fuzzer, or replay one reproducer.
///
/// The returned report ends with a machine-readable JSON summary line.
/// When the run finds mismatches the report comes back as `Err`, so the
/// driver exits nonzero without losing the reproducer paths; a replay
/// always returns `Ok` (its JSON says whether the bug still reproduces).
pub fn execute_fuzz(cmd: &Command) -> Result<String, CliError> {
    use msc_obs::json::Json;
    let Command::Fuzz {
        seed,
        cases,
        pes,
        max_states,
        corpus,
        oracles,
        serve,
        serve_addr,
        replay,
        trace_out,
        metrics,
    } = cmd
    else {
        return Err(CliError("not a fuzz command".into()));
    };
    let mut matrix = match oracles {
        Some(list) => msc_fuzz::Oracle::parse_list(list).map_err(CliError)?,
        None => msc_fuzz::Oracle::default_set(),
    };
    let wants_serve = *serve || serve_addr.is_some();
    if wants_serve && !matrix.contains(&msc_fuzz::Oracle::Serve) {
        matrix.push(msc_fuzz::Oracle::Serve);
    }
    let handle = if *serve {
        Some(
            msc_serve::Server::start(msc_serve::ServeOptions {
                addr: "127.0.0.1:0".into(),
                workers: 4,
                ..msc_serve::ServeOptions::default()
            })
            .map_err(|e| CliError(format!("cannot start in-process daemon: {e}")))?,
        )
    } else {
        None
    };
    let resolved_addr = serve_addr
        .clone()
        .or_else(|| handle.as_ref().map(|h| h.local_addr().to_string()));
    let obs_opts = CommonOpts {
        trace_out: trace_out.clone(),
        metrics: *metrics,
        ..CommonOpts::default()
    };
    let session = ObsSession::start(&obs_opts)?;
    let cfg = msc_fuzz::FuzzConfig {
        seed: *seed,
        cases: *cases,
        oracles: matrix,
        corpus_dir: corpus.as_ref().map(std::path::PathBuf::from),
        oracle_cfg: msc_fuzz::OracleConfig {
            n_pe: *pes,
            max_meta_states: *max_states,
            serve_addr: resolved_addr,
            scratch_dir: None,
        },
        ..msc_fuzz::FuzzConfig::default()
    };
    let mut text = String::new();
    let mut found = 0u64;
    if let Some(path) = replay {
        let repro = msc_fuzz::Reproducer::read(std::path::Path::new(path)).map_err(CliError)?;
        let result = msc_fuzz::replay(&repro, &cfg);
        for m in &result.mismatches {
            text.push_str(&format!("{}: {}\n", m.oracle, m.detail));
        }
        let reproduced = result.mismatches.iter().any(|m| m.oracle == repro.oracle);
        text.push_str(&format!(
            "{}\n",
            Json::obj(vec![
                ("replay", Json::from(path.as_str())),
                ("seed", Json::from(repro.seed)),
                ("case", Json::from(repro.case_index)),
                ("oracle", Json::from(repro.oracle.as_str())),
                ("reproduced", Json::from(reproduced)),
                ("mismatches", Json::from(result.mismatches.len())),
            ])
            .render()
        ));
    } else {
        let total = *cases;
        let summary = msc_fuzz::run_fuzz_with(&cfg, |i, r| {
            if !r.clean() {
                eprintln!("mscc fuzz: mismatch in case {i}");
            } else if (i + 1) % 100 == 0 {
                eprintln!("mscc fuzz: {}/{total} cases clean", i + 1);
            }
        });
        for path in &summary.reproducers {
            text.push_str(&format!("reproducer: {path}\n"));
        }
        text.push_str(&format!("{}\n", summary.to_json().render()));
        found = summary.mismatches;
    }
    if let Some(session) = session {
        text.push_str(&session.finish()?);
    }
    if let Some(h) = handle {
        h.shutdown();
    }
    if found > 0 {
        Err(CliError(format!("{found} mismatch(es) found\n{text}")))
    } else {
        Ok(text)
    }
}

/// Render matched bytes for terminal output: printable ASCII as-is,
/// common escapes by name, the rest as `\xNN`.
fn escape_bytes(bytes: &[u8]) -> String {
    let mut s = String::new();
    for &b in bytes {
        match b {
            b'\\' => s.push_str("\\\\"),
            b'\n' => s.push_str("\\n"),
            b'\t' => s.push_str("\\t"),
            0x20..=0x7e => s.push(b as char),
            _ => s.push_str(&format!("\\x{b:02x}")),
        }
    }
    s
}

/// Split a haystack into up to `n` contiguous shards for the sharded
/// scanner. More shards than threads keeps every worker busy even when
/// match density is uneven across the input.
fn shard_bytes(bytes: &[u8], n: usize) -> Vec<&[u8]> {
    if bytes.is_empty() {
        return Vec::new();
    }
    let chunk = bytes.len().div_ceil(n.clamp(1, bytes.len()));
    bytes.chunks(chunk).collect()
}

/// `mscc match`: compile the pattern once, scan every input sharded.
/// Spans are byte offsets into each input and — by the stitching
/// construction — identical at every thread count.
pub fn execute_match(
    pattern: &str,
    inputs: &[(String, Vec<u8>)],
    threads: usize,
) -> Result<String, CliError> {
    let re = msc_regex::Regex::new(pattern).map_err(|e| CliError(e.to_string()))?;
    let threads = if threads == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        threads
    };
    let mut text = String::new();
    let mut total = 0usize;
    for (name, bytes) in inputs {
        let shards = shard_bytes(bytes, threads * 4);
        let matches = re.find_sharded(&shards, threads);
        for m in &matches {
            text.push_str(&format!(
                "{name}:{}..{}: {}\n",
                m.start,
                m.end,
                escape_bytes(&bytes[m.start..m.end]),
            ));
        }
        total += matches.len();
    }
    text.push_str(&format!(
        "{total} match(es) across {} input(s); {} meta states, {threads} thread(s)\n",
        inputs.len(),
        re.meta_states()
    ));
    Ok(text)
}

/// `mscc batch`: compile `(name, source)` pairs over the engine's worker
/// pool; each file reports success or its own error. Returns the report
/// and the number of files that failed (so the driver can exit nonzero
/// on partial failure without losing the per-file lines).
pub fn execute_batch(
    sources: &[(String, String)],
    opts: &CommonOpts,
) -> Result<(String, usize), CliError> {
    let session = ObsSession::start(opts)?;
    let engine = engine_for(opts);
    let jobs: Vec<metastate::Job> = sources
        .iter()
        .map(|(name, src)| build_pipeline(src, opts).into_job(name.clone()))
        .collect();
    let results = engine.compile_many(&jobs);
    let mut text = String::new();
    let mut ok = 0usize;
    for (job, result) in jobs.iter().zip(&results) {
        match result {
            Ok(c) => {
                ok += 1;
                text.push_str(&format!(
                    "{}: ok, {} meta states, {} blocks ({})\n",
                    job.name,
                    c.artifact.meta_states,
                    c.artifact.simd.blocks.len(),
                    c.provenance
                ));
            }
            Err(e) => text.push_str(&format!("{}: error: {e}\n", job.name)),
        }
    }
    text.push_str(&format!(
        "\n{ok}/{} succeeded, {} threads",
        results.len(),
        engine.threads()
    ));
    if opts.stats {
        let c = engine.cache_stats();
        text.push_str(&format!(
            "; cache: {} memory hits, {} disk hits, {} peer hits, {} misses, {} coalesced",
            c.hits,
            c.disk_hits,
            c.peer_hits,
            c.misses,
            engine.coalesced()
        ));
    }
    text.push('\n');
    if let Some(session) = session {
        text.push_str(&session.finish()?);
    }
    Ok((text, results.len() - ok))
}

/// Execute a parsed command against source text, returning the output the
/// CLI prints. Separated from file I/O for testability. (`Batch` reads
/// many files, so it goes through [`execute_batch`] instead.)
pub fn execute_on_source(cmd: &Command, src: &str) -> Result<String, CliError> {
    match cmd {
        Command::Help => Ok(USAGE.to_string()),
        Command::Batch { files, opts } => {
            // Testing convenience: every file gets the same source text.
            // (`execute_batch` owns the obs session for batches.)
            let sources: Vec<(String, String)> =
                files.iter().map(|f| (f.clone(), src.to_string())).collect();
            execute_batch(&sources, opts).map(|(text, _)| text)
        }
        Command::Serve { .. } => Err(CliError(
            "serve is a long-running daemon; it is driven by main_with_args".into(),
        )),
        Command::Fuzz { .. } => execute_fuzz(cmd),
        Command::Match {
            pattern, threads, ..
        } => {
            // Testing convenience: the source text is the one haystack.
            execute_match(
                pattern,
                &[("<input>".to_string(), src.as_bytes().to_vec())],
                *threads,
            )
        }
        Command::Sweep {
            file,
            profiles,
            opts,
        } => {
            let session = ObsSession::start(opts)?;
            let loaded = load_profiles(profiles)?;
            let mut text = execute_sweep(file, src, &loaded, opts)?;
            if let Some(session) = session {
                text.push_str(&session.finish()?);
            }
            Ok(text)
        }
        Command::Build { opts, .. } | Command::Run { opts, .. } => {
            let session = ObsSession::start(opts)?;
            let mut text = execute_build_or_run(cmd, src)?;
            if let Some(session) = session {
                text.push_str(&session.finish()?);
            }
            Ok(text)
        }
    }
}

/// The build/run arms of [`execute_on_source`], split out so the caller
/// can bracket them with an [`ObsSession`] and append the metrics table.
fn execute_build_or_run(cmd: &Command, src: &str) -> Result<String, CliError> {
    match cmd {
        Command::Build { file, emit, opts } => {
            if opts.wants_engine() {
                return execute_build_engine(file, emit, opts, src);
            }
            let built = classic_built(src, opts)?;
            Ok(match emit {
                Emit::Automaton => {
                    let mut out = built.automaton_text();
                    out.push_str(&format!(
                        "\n{} meta states, avg width {:.2}, max width {}\n",
                        built.automaton.len(),
                        built.automaton.avg_width(),
                        built.automaton.max_width()
                    ));
                    out
                }
                Emit::Mpl => built.mpl(),
                Emit::Dot => built.automaton.dot(),
                Emit::Graph => msc_ir::render::text(&built.compiled.graph, &CostModel::default()),
                Emit::Asm => msc_simd::serialize_asm(&built.simd),
            })
        }
        Command::Run {
            pes,
            pool,
            compare,
            trace,
            opts,
            ..
        } => {
            let built = build_pipeline(src, opts)
                .build()
                .map_err(|e| CliError(e.to_string()))?;
            let mut cfg = match pool {
                Some(live) => MachineConfig::with_pool(*pes, *live),
                None => MachineConfig::spmd(*pes),
            };
            cfg.trace = *trace;
            let out = built.run_with(cfg).map_err(|e| CliError(e.to_string()))?;
            let mut text = String::new();
            if let Some(ret) = built.ret_addr() {
                text.push_str("PE | result\n");
                for pe in 0..*pes {
                    text.push_str(&format!("{pe:2} | {}\n", out.machine.poly_at(pe, ret)));
                }
            }
            text.push_str(&format!(
                "\ncycles={} (body {}, guards {}, dispatch {}), issues={}, dispatches={}, utilization={:.1}%\n",
                out.metrics.cycles,
                out.metrics.body_cycles,
                out.metrics.guard_cycles,
                out.metrics.dispatch_cycles,
                out.metrics.issues,
                out.metrics.dispatches,
                out.metrics.utilization() * 100.0
            ));
            text.push_str(&format!(
                "automaton: {} meta states; per-PE program memory: 0 words\n",
                built.automaton.len()
            ));
            if *trace {
                text.push_str("\ntrace (meta-state path):\n");
                for ev in &out.machine.trace {
                    match ev {
                        msc_simd::TraceEvent::EnterBlock {
                            block,
                            live,
                            at_cycle,
                        } => {
                            text.push_str(&format!(
                                "  @{at_cycle:<6} enter {} (live PEs: {live})\n",
                                built.simd.block(*block).name
                            ));
                        }
                        msc_simd::TraceEvent::Dispatch { to: Some(t), .. } => {
                            text.push_str(&format!("          -> {}\n", built.simd.block(*t).name));
                        }
                        msc_simd::TraceEvent::Dispatch { to: None, .. } => {
                            text.push_str("          -> exit\n");
                        }
                    }
                }
            }
            if *compare {
                let p = msc_lang::compile(src).map_err(|e| CliError(e.to_string()))?;
                let mcfg = msc_mimd::MimdConfig::spmd(*pes);
                let mut mimd =
                    msc_mimd::MimdReference::new(p.layout.poly_words, p.layout.mono_words, &mcfg);
                let mm = mimd
                    .run(&p.graph, &mcfg)
                    .map_err(|e| CliError(e.to_string()))?;
                let (_, im) = msc_mimd::interpret_on_simd(
                    &p.graph,
                    p.layout.poly_words,
                    p.layout.mono_words,
                    *pes,
                    &CostModel::default(),
                )
                .map_err(|e| CliError(e.to_string()))?;
                text.push_str(&format!(
                    "\ncompare: MIMD reference {} cycles; interpreter {} cycles ({:.2}x vs MSC)\n",
                    mm.cycles,
                    im.cycles,
                    im.cycles as f64 / out.metrics.cycles as f64
                ));
                if let (Some(ret), Some(mret)) = (built.ret_addr(), p.layout.main_ret) {
                    let agree =
                        (0..*pes).all(|pe| out.machine.poly_at(pe, ret) == mimd.poly_at(pe, mret));
                    text.push_str(&format!(
                        "results {} the MIMD reference\n",
                        if agree { "MATCH" } else { "DIVERGE FROM" }
                    ));
                }
            }
            Ok(text)
        }
        Command::Help
        | Command::Batch { .. }
        | Command::Sweep { .. }
        | Command::Serve { .. }
        | Command::Fuzz { .. }
        | Command::Match { .. } => {
            unreachable!("handled by execute_on_source")
        }
    }
}

/// Full entry point: parse args, read the file(s), execute.
pub fn main_with_args(args: &[String]) -> Result<String, CliError> {
    let cmd = parse_args(args)?;
    let read = |file: &str| {
        std::fs::read_to_string(file).map_err(|e| CliError(format!("cannot read {file}: {e}")))
    };
    match &cmd {
        Command::Help => execute_on_source(&cmd, ""),
        Command::Serve {
            addr,
            workers,
            queue_depth,
            cache,
            max_meta_states,
            blocking,
            peers,
        } => {
            let defaults = msc_serve::ServeOptions::default();
            let force_blocking = *blocking;
            let handle = msc_serve::Server::start(msc_serve::ServeOptions {
                addr: addr.clone(),
                workers: *workers,
                queue_depth: *queue_depth,
                cache_dir: cache.as_ref().map(std::path::PathBuf::from),
                max_meta_states: max_meta_states.unwrap_or(defaults.max_meta_states),
                force_blocking,
                peers: peers.clone(),
                ..defaults
            })
            .map_err(|e| CliError(format!("cannot start daemon on {addr}: {e}")))?;
            // Announce before blocking so scripts can find the port.
            println!("msc-serve listening on {}", handle.local_addr());
            if !peers.is_empty() {
                println!("msc-serve peers: {}", peers.join(", "));
            }
            let core = if force_blocking || !msc_serve::reactor_available() {
                "blocking pool"
            } else {
                "epoll reactor"
            };
            println!("msc-serve core: {core}");
            msc_serve::run_until_signal(handle);
            Ok("msc-serve: drained and stopped\n".to_string())
        }
        Command::Batch { files, opts } => {
            let sources = files
                .iter()
                .map(|f| Ok((f.clone(), read(f)?)))
                .collect::<Result<Vec<_>, CliError>>()?;
            let (text, failed) = execute_batch(&sources, opts)?;
            if failed > 0 {
                // Per-file lines are in the report; fail the invocation so
                // scripts see the partial failure.
                return Err(CliError(format!("{failed} file(s) failed\n{text}")));
            }
            Ok(text)
        }
        Command::Fuzz { .. } => execute_fuzz(&cmd),
        Command::Match {
            pattern,
            files,
            threads,
        } => {
            let inputs: Vec<(String, Vec<u8>)> = if files.is_empty() {
                use std::io::Read as _;
                let mut buf = Vec::new();
                std::io::stdin()
                    .read_to_end(&mut buf)
                    .map_err(|e| CliError(format!("cannot read stdin: {e}")))?;
                vec![("<stdin>".to_string(), buf)]
            } else {
                files
                    .iter()
                    .map(|f| {
                        Ok((
                            f.clone(),
                            std::fs::read(f)
                                .map_err(|e| CliError(format!("cannot read {f}: {e}")))?,
                        ))
                    })
                    .collect::<Result<Vec<_>, CliError>>()?
            };
            execute_match(pattern, &inputs, *threads)
        }
        Command::Build { file, .. } | Command::Run { file, .. } | Command::Sweep { file, .. } => {
            execute_on_source(&cmd, &read(file)?)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    const PROG: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";

    #[test]
    fn parse_serve_flags() {
        let cmd = parse_args(&args(
            "serve --addr 127.0.0.1:0 --workers 2 --queue-depth 4 --cache /tmp/c --max-meta-states 512 --blocking",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Serve {
                addr: "127.0.0.1:0".into(),
                workers: 2,
                queue_depth: 4,
                cache: Some("/tmp/c".into()),
                max_meta_states: Some(512),
                blocking: true,
                peers: Vec::new(),
            }
        );
        assert!(parse_args(&args("serve --max-meta-states 0")).is_err());
        assert!(parse_args(&args("serve --workers")).is_err());
        assert!(parse_args(&args("serve extra.mimdc")).is_err());
    }

    #[test]
    fn parse_serve_peers() {
        // An empty entry (doubled or trailing comma) is an error, not
        // a silently dropped peer.
        assert!(parse_args(&args("serve --peers 10.0.0.1:7643,,10.0.0.2:7643")).is_err());
        assert!(parse_args(&args("serve --peers 10.0.0.1:7643,")).is_err());
        let cmd = parse_args(&args(
            "serve --addr 127.0.0.1:0 --peers 10.0.0.1:7643,10.0.0.2:7643",
        ))
        .unwrap();
        let Command::Serve { peers, .. } = cmd else {
            panic!("expected serve command");
        };
        assert_eq!(peers, vec!["10.0.0.1:7643", "10.0.0.2:7643"]);
        assert!(parse_args(&args("serve --peers")).is_err());
    }

    #[test]
    fn parse_build_defaults() {
        let cmd = parse_args(&args("build foo.mimdc")).unwrap();
        assert_eq!(
            cmd,
            Command::Build {
                file: "foo.mimdc".into(),
                emit: Emit::Automaton,
                opts: CommonOpts::default()
            }
        );
    }

    #[test]
    fn parse_run_with_flags() {
        let cmd = parse_args(&args(
            "run foo.mimdc --pes 32 --pool 4 --compare --mode compressed --time-split --optimize --minimize --no-csi",
        ))
        .unwrap();
        let Command::Run {
            pes,
            pool,
            compare,
            opts,
            ..
        } = cmd
        else {
            panic!()
        };
        assert_eq!(pes, 32);
        assert_eq!(pool, Some(4));
        assert!(compare);
        assert_eq!(opts.mode, ConvertMode::Compressed);
        assert!(opts.time_split && opts.optimize && opts.minimize && opts.no_csi);
    }

    #[test]
    fn parse_sweep_flags() {
        let cmd = parse_args(&args("sweep foo.mimdc --profiles a.json,b.json")).unwrap();
        let Command::Sweep {
            file,
            profiles,
            opts,
        } = cmd
        else {
            panic!("expected sweep command");
        };
        assert_eq!(file, "foo.mimdc");
        assert_eq!(profiles, vec!["a.json", "b.json"]);
        // Sweep defaults to the engine pool (all cores) unless --jobs
        // was given explicitly.
        assert_eq!(opts.jobs, 0);
        let cmd = parse_args(&args("sweep foo.mimdc --jobs 2")).unwrap();
        let Command::Sweep { profiles, opts, .. } = cmd else {
            panic!("expected sweep command");
        };
        assert!(profiles.is_empty());
        assert_eq!(opts.jobs, 2);
        // --profiles is a sweep flag, not a build/run flag.
        assert!(parse_args(&args("build foo.mimdc --profiles a.json")).is_err());
        assert!(parse_args(&args("sweep foo.mimdc --profiles")).is_err());
        assert!(parse_args(&args("sweep")).is_err());
    }

    #[test]
    fn parse_guard_and_budget_flags() {
        let cmd = parse_args(&args(
            "build foo.mimdc --max-meta-states 4096 --memory-budget 64m",
        ))
        .unwrap();
        let Command::Build { opts, .. } = cmd else {
            panic!()
        };
        assert_eq!(opts.max_meta_states, Some(4096));
        assert_eq!(opts.memory_budget, Some(64 << 20));
        assert!(parse_args(&args("build foo.mimdc --max-meta-states 0")).is_err());
        assert!(parse_args(&args("build foo.mimdc --memory-budget banana")).is_err());
    }

    #[test]
    fn parse_rejects_unknowns() {
        assert!(parse_args(&args("frobnicate")).is_err());
        assert!(parse_args(&args("build foo --emit nonsense")).is_err());
        assert!(parse_args(&args("run --pes banana foo")).is_err());
        assert!(parse_args(&args("build")).is_err());
    }

    #[test]
    fn help_works() {
        assert_eq!(parse_args(&args("help")).unwrap(), Command::Help);
        assert!(execute_on_source(&Command::Help, "")
            .unwrap()
            .contains("USAGE"));
    }

    #[test]
    fn build_emits_each_kind() {
        for (emit, needle) in [
            (Emit::Automaton, "meta states"),
            (Emit::Mpl, "ms_"),
            (Emit::Dot, "digraph"),
            (Emit::Graph, "-> "),
            (Emit::Asm, ".program start=mb"),
        ] {
            let cmd = Command::Build {
                file: "x".into(),
                emit,
                opts: CommonOpts::default(),
            };
            let out = execute_on_source(&cmd, PROG).unwrap();
            assert!(out.contains(needle), "{emit:?}: {out}");
        }
    }

    #[test]
    fn run_prints_results_and_metrics() {
        let cmd = Command::Run {
            file: "x".into(),
            pes: 4,
            pool: None,
            compare: true,
            trace: false,
            opts: CommonOpts::default(),
        };
        let out = execute_on_source(&cmd, PROG).unwrap();
        assert!(out.contains(" 3 | 7"), "{out}");
        assert!(out.contains("cycles="), "{out}");
        assert!(out.contains("results MATCH"), "{out}");
    }

    #[test]
    fn run_with_optimizer_flags_matches_plain() {
        let plain = Command::Run {
            file: "x".into(),
            pes: 4,
            pool: None,
            compare: false,
            trace: false,
            opts: CommonOpts::default(),
        };
        let opt = Command::Run {
            file: "x".into(),
            pes: 4,
            pool: None,
            compare: false,
            trace: false,
            opts: CommonOpts {
                optimize: true,
                minimize: true,
                ..CommonOpts::default()
            },
        };
        let a = execute_on_source(&plain, PROG).unwrap();
        let b = execute_on_source(&opt, PROG).unwrap();
        let results = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains(" | "))
                .map(String::from)
                .collect()
        };
        assert_eq!(results(&a), results(&b));
    }

    #[test]
    fn parse_engine_flags() {
        let cmd = parse_args(&args("build foo.mimdc --cache /tmp/c --stats")).unwrap();
        let Command::Build { opts, .. } = cmd else {
            panic!()
        };
        assert_eq!(opts.cache.as_deref(), Some("/tmp/c"));
        assert!(opts.stats);
        assert!(opts.wants_engine());
        assert!(!CommonOpts::default().wants_engine());
        // --jobs sizes the batch/sweep compile pool; build and run have
        // no pool to size.
        assert!(parse_args(&args("build foo.mimdc --jobs 8")).is_err());
        assert!(parse_args(&args("run foo.mimdc --jobs 8")).is_err());
    }

    #[test]
    fn parse_batch_collects_files() {
        let cmd = parse_args(&args("batch a.mimdc b.mimdc c.mimdc --jobs 2")).unwrap();
        let Command::Batch { files, opts } = cmd else {
            panic!()
        };
        assert_eq!(files, vec!["a.mimdc", "b.mimdc", "c.mimdc"]);
        assert_eq!(opts.jobs, 2);
        assert!(
            parse_args(&args("batch")).is_err(),
            "batch needs at least one file"
        );
        assert!(
            parse_args(&args("build a.mimdc b.mimdc")).is_err(),
            "build takes exactly one file"
        );
    }

    #[test]
    fn parse_match_command() {
        let cmd = parse_args(&args("match a+b in1.txt in2.txt --threads 3")).unwrap();
        assert_eq!(
            cmd,
            Command::Match {
                pattern: "a+b".into(),
                files: vec!["in1.txt".into(), "in2.txt".into()],
                threads: 3,
            }
        );
        assert!(parse_args(&args("match")).is_err(), "pattern is required");
        assert!(parse_args(&args("match a --threads")).is_err());
        assert!(parse_args(&args("match a --threads zero")).is_err());
        // A leading-dash token in pattern position is pattern text.
        let cmd = parse_args(&args("match -+")).unwrap();
        assert_eq!(
            cmd,
            Command::Match {
                pattern: "-+".into(),
                files: vec![],
                threads: 0,
            }
        );
    }

    #[test]
    fn match_prints_spans_and_summary() {
        let out = execute_match("ab+", &[("x".into(), b"xabbyab".to_vec())], 2).unwrap();
        assert!(out.contains("x:1..4: abb"), "{out}");
        assert!(out.contains("x:5..7: ab"), "{out}");
        assert!(out.contains("2 match(es)"), "{out}");
        let err = execute_match("a(", &[], 1).unwrap_err();
        assert!(err.to_string().contains("parse error"), "{err}");
        // Through execute_on_source the source text is the haystack.
        let cmd = parse_args(&args("match b+")).unwrap();
        let out = execute_on_source(&cmd, "abbba").unwrap();
        assert!(out.contains("<input>:1..4: bbb"), "{out}");
    }

    #[test]
    fn match_spans_are_thread_count_invariant() {
        let hay = b"abcabcxx\nabc".repeat(50);
        let spans = |s: &str| -> Vec<String> {
            s.lines()
                .filter(|l| l.contains(".."))
                .map(String::from)
                .collect()
        };
        let one = execute_match("ab*c", &[("h".into(), hay.clone())], 1).unwrap();
        for t in [2, 3, 8] {
            let more = execute_match("ab*c", &[("h".into(), hay.clone())], t).unwrap();
            assert_eq!(spans(&one), spans(&more), "threads={t}");
        }
    }

    #[test]
    fn build_stats_block() {
        let cmd = Command::Build {
            file: "x".into(),
            emit: Emit::Automaton,
            opts: CommonOpts {
                stats: true,
                jobs: 2,
                ..CommonOpts::default()
            },
        };
        let out = execute_on_source(&cmd, PROG).unwrap();
        assert!(out.contains("-- stats --"), "{out}");
        assert!(out.contains("provenance: fresh compile"), "{out}");
        assert!(out.contains("timings: compile"), "{out}");
        assert!(out.contains("cache: 0 memory hits"), "{out}");
        assert!(out.contains("meta states"), "{out}");
    }

    #[test]
    fn build_engine_emits_each_kind() {
        // All emit kinds work through the engine route too.
        for (emit, needle) in [
            (Emit::Automaton, "meta states"),
            (Emit::Mpl, "ms_"),
            (Emit::Dot, "digraph"),
            (Emit::Graph, "-> "),
            (Emit::Asm, ".program start=mb"),
        ] {
            let cmd = Command::Build {
                file: "x".into(),
                emit,
                opts: CommonOpts {
                    jobs: 2,
                    ..CommonOpts::default()
                },
            };
            let out = execute_on_source(&cmd, PROG).unwrap();
            assert!(out.contains(needle), "{emit:?}: {out}");
        }
    }

    #[test]
    fn build_engine_output_matches_classic() {
        // The engine canonicalizes the automaton; for this straight-line
        // program the classic numbering is already canonical, so the
        // automaton text must agree exactly.
        let classic = Command::Build {
            file: "x".into(),
            emit: Emit::Automaton,
            opts: CommonOpts::default(),
        };
        let engine = Command::Build {
            file: "x".into(),
            emit: Emit::Automaton,
            opts: CommonOpts {
                jobs: 4,
                ..CommonOpts::default()
            },
        };
        assert_eq!(
            execute_on_source(&classic, PROG).unwrap(),
            execute_on_source(&engine, PROG).unwrap()
        );
    }

    #[test]
    fn repeated_cached_build_reports_disk_hit() {
        let dir = std::env::temp_dir().join(format!("mscc-cache-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = CommonOpts {
            cache: Some(dir.to_string_lossy().into_owned()),
            stats: true,
            ..CommonOpts::default()
        };
        let cmd = Command::Build {
            file: "x".into(),
            emit: Emit::Automaton,
            opts,
        };
        // First invocation compiles and persists; each call builds a fresh
        // engine (as separate mscc processes would), so the second can only
        // be satisfied by the disk layer.
        let first = execute_on_source(&cmd, PROG).unwrap();
        assert!(first.contains("provenance: fresh compile"), "{first}");
        let second = execute_on_source(&cmd, PROG).unwrap();
        assert!(second.contains("provenance: cache hit (disk)"), "{second}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn batch_reports_per_file_outcomes() {
        let good = "main() { poly int x; x = pe_id(); return(x); }";
        let bad = "main() { y = 1; }";
        let sources = vec![
            ("a.mimdc".to_string(), good.to_string()),
            ("broken.mimdc".to_string(), bad.to_string()),
            ("c.mimdc".to_string(), good.to_string()),
        ];
        // jobs: 1 keeps the pool sequential so the cache hit on the
        // repeated source is deterministic (still the engine route).
        let opts = CommonOpts {
            jobs: 1,
            stats: true,
            ..CommonOpts::default()
        };
        let (out, failed) = execute_batch(&sources, &opts).unwrap();
        assert_eq!(failed, 1, "{out}");
        assert!(out.contains("a.mimdc: ok"), "{out}");
        assert!(out.contains("broken.mimdc: error: compile:"), "{out}");
        assert!(out.contains("c.mimdc: ok"), "{out}");
        assert!(out.contains("2/3 succeeded"), "{out}");
        // a and c share source + options: the second must hit the cache.
        assert!(
            out.contains("cache hit (memory)") || out.contains("1 memory hits"),
            "{out}"
        );
    }

    #[test]
    fn compile_errors_surface() {
        let cmd = Command::Build {
            file: "x".into(),
            emit: Emit::Automaton,
            opts: CommonOpts::default(),
        };
        let err = execute_on_source(&cmd, "main() { y = 1; }").unwrap_err();
        assert!(err.0.contains("undeclared"), "{err}");
    }

    #[test]
    fn parse_obs_flags() {
        let cmd = parse_args(&args("build foo.mimdc --metrics --trace-out t.jsonl")).unwrap();
        let Command::Build { opts, .. } = cmd else {
            panic!()
        };
        assert!(opts.metrics);
        assert_eq!(opts.trace_out.as_deref(), Some("t.jsonl"));
        assert!(parse_args(&args("build foo.mimdc --trace-out")).is_err());
    }

    #[test]
    fn metrics_flag_appends_table() {
        let cmd = parse_args(&args("build foo.mimdc --metrics")).unwrap();
        let out = execute_on_source(&cmd, PROG).unwrap();
        // The classic build path runs instrumented conversion, so the
        // summary table must show at least the conversion span.
        assert!(out.contains("-- metrics --"), "{out}");
        assert!(out.contains("convert.run"), "{out}");
        // Without the flag no table appears.
        let cmd = parse_args(&args("build foo.mimdc")).unwrap();
        let out = execute_on_source(&cmd, PROG).unwrap();
        assert!(!out.contains("-- metrics --"), "{out}");
    }

    #[test]
    fn batch_metrics_table_covers_cache_and_convert() {
        // --jobs 1 keeps the two identical compiles serial: concurrent
        // identical jobs may coalesce onto one flight instead of hitting
        // the cache, which made this assertion racy under --jobs 2.
        let cmd = parse_args(&args("batch a.mimdc b.mimdc --jobs 1 --metrics")).unwrap();
        let out = execute_on_source(&cmd, PROG).unwrap();
        assert!(out.contains("-- metrics --"), "{out}");
        // Identical sources: the first compile misses, the second hits.
        assert!(out.contains("cache.hit"), "{out}");
        assert!(out.contains("cache.miss"), "{out}");
        assert!(out.contains("convert.run"), "{out}");
    }

    #[test]
    fn parse_fuzz_flags() {
        let cmd = parse_args(&args(
            "fuzz --seed 9 --cases 50 --pes 3 --max-states 500 --corpus /tmp/corp --oracles base,engine",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Fuzz {
                seed: 9,
                cases: 50,
                pes: 3,
                max_states: 500,
                corpus: Some("/tmp/corp".into()),
                oracles: Some("base,engine".into()),
                serve: false,
                serve_addr: None,
                replay: None,
                trace_out: None,
                metrics: false,
            }
        );
        assert!(parse_args(&args("fuzz --cases")).is_err());
        assert!(parse_args(&args("fuzz --pes 0")).is_err());
        assert!(parse_args(&args("fuzz --seed banana")).is_err());
        assert!(parse_args(&args("fuzz prog.mimdc")).is_err());
        // The in-process daemon owns the obs registry for its lifetime.
        assert!(parse_args(&args("fuzz --serve --metrics")).is_err());
        assert!(parse_args(&args("fuzz --serve-addr 127.0.0.1:1 --metrics")).is_ok());
    }

    #[test]
    fn fuzz_clean_run_emits_json_summary() {
        let cmd = parse_args(&args("fuzz --seed 3 --cases 2 --oracles interp,base")).unwrap();
        let out = execute_on_source(&cmd, "").unwrap();
        let last = out.lines().rev().find(|l| !l.is_empty()).unwrap();
        let v = msc_obs::json::parse(last).unwrap();
        assert_eq!(v.get("cases").unwrap().as_u64(), Some(2));
        assert_eq!(v.get("mismatches").unwrap().as_u64(), Some(0));
        assert!(v.get("ok").unwrap().as_bool().unwrap());
    }

    #[test]
    fn fuzz_mismatch_exits_nonzero_with_reproducer() {
        let dir = std::env::temp_dir().join(format!("mscc-fuzz-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let cmd = parse_args(&args(&format!(
            "fuzz --seed 1 --cases 20 --oracles selftest --corpus {}",
            dir.display()
        )))
        .unwrap();
        let err = execute_on_source(&cmd, "").unwrap_err();
        assert!(err.0.contains("mismatch(es) found"), "{err}");
        assert!(err.0.contains("reproducer: "), "{err}");
        assert!(err.0.contains("\"ok\":false"), "{err}");
        let entries = std::fs::read_dir(&dir).unwrap().count();
        assert!(entries > 0, "corpus directory is empty");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fuzz_bad_oracle_list_is_rejected() {
        let cmd = parse_args(&args("fuzz --oracles base,warp-drive")).unwrap();
        let err = execute_on_source(&cmd, "").unwrap_err();
        assert!(err.0.contains("unknown oracle"), "{err}");
    }

    #[test]
    fn trace_out_writes_parseable_jsonl() {
        let path = std::env::temp_dir().join(format!("mscc_trace_{}.jsonl", std::process::id()));
        let cmd = parse_args(&args(&format!(
            "build foo.mimdc --trace-out {}",
            path.display()
        )))
        .unwrap();
        let out = execute_on_source(&cmd, PROG).unwrap();
        assert!(!out.contains("-- metrics --"), "{out}");
        let text = std::fs::read_to_string(&path).unwrap();
        let mut parsed = 0usize;
        for line in text.lines() {
            assert!(
                msc_obs::jsonl::parse_line(line).is_some(),
                "unparseable trace line: {line}"
            );
            parsed += 1;
        }
        assert!(parsed > 0, "trace file is empty");
        std::fs::remove_file(&path).ok();
    }
}
