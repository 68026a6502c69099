//! # msc-engine — throughput-oriented compilation service
//!
//! `msc-core` answers "how do I convert one MIMD graph"; this crate
//! answers "how do I run many conversions fast, repeatedly, without
//! recomputing what I already know". Three pieces:
//!
//! * canonical conversion — the sequential `msc-core` subset
//!   construction, then unreachable states pruned, BFS renumbering, and
//!   the subsumption fold, so the automaton depends only on the graph and
//!   options (public as [`convert_parallel`], a name kept for the
//!   benchmark harness);
//! * [`cache`] — a content-addressed compile cache keyed by the hash of
//!   (source, conversion options, codegen options, IR passes), with a
//!   bounded in-memory LRU and an optional on-disk layer;
//! * [`Engine`] — the service wrapper: [`Engine::compile`] for one job,
//!   [`Engine::compile_many`] for a batch over a pool of compile workers
//!   with per-job cooperative timeouts and panic capture (one poisoned
//!   job yields one errored slot, never a sunk batch).
//!
//! ```
//! use msc_engine::{Engine, EngineOptions, Job};
//!
//! let engine = Engine::new(EngineOptions::default());
//! let job = Job::new("demo", "main() { poly int x; x = pe_id(); return(x); }");
//! let out = engine.compile(&job).unwrap();
//! assert!(out.artifact.meta_states > 0);
//! // Same job again: served from the cache without reconverting.
//! let again = engine.compile(&job).unwrap();
//! assert_eq!(again.provenance, msc_engine::Provenance::Memory);
//! ```

pub mod cache;
pub mod flight;

pub use cache::{cache_key, content_key, CacheKey, CacheLayer, CacheStats, CompileCache};
pub use flight::{Flight, Singleflight};
pub use msc_cache::{BreakerState, PeerConfig, PeerStatus, TierStatus};

use msc_codegen::{generate, GenError, GenOptions};
use msc_core::{
    convert_with_deadline, subsume::subsume, ConvertError, ConvertOptions, ConvertStats,
    MetaAutomaton,
};
use msc_ir::MimdGraph;
use msc_lang::{compile, CompileError, Program};
use msc_simd::SimdProgram;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Wall-clock cost of each pipeline phase of one fresh compile.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PhaseTimings {
    /// Front end (parse + lower + optional IR passes).
    pub compile: Duration,
    /// Meta-state conversion.
    pub convert: Duration,
    /// SIMD code generation.
    pub codegen: Duration,
}

/// Everything one compilation produced. Artifacts restored from the disk
/// cache carry the executable program and summary data but not the
/// in-memory IR ([`automaton`](Self::automaton) /
/// [`compiled`](Self::compiled) are `None` for them).
#[derive(Debug, Clone)]
pub struct Artifact {
    /// The executable SIMD program.
    pub simd: SimdProgram,
    /// Conversion statistics.
    pub stats: ConvertStats,
    /// Meta states in the final automaton.
    pub meta_states: usize,
    /// Per-phase wall-clock timings of the compile that produced this
    /// artifact (not of the cache hit that returned it).
    pub timings: PhaseTimings,
    /// Where `main`'s return value lands, if it returns one.
    pub ret_addr: Option<msc_ir::Addr>,
    /// Text rendering of the automaton (always available, even from disk).
    pub automaton_text: String,
    /// The meta-state automaton (`None` when restored from disk).
    pub automaton: Option<MetaAutomaton>,
    /// Front-end output (`None` when restored from disk).
    pub compiled: Option<Program>,
}

/// One compilation request.
#[derive(Debug, Clone)]
pub struct Job {
    /// Label used in errors and batch reports (usually the file name).
    pub name: String,
    /// MIMDC source text.
    pub source: String,
    /// Conversion options.
    pub convert: ConvertOptions,
    /// Code-generation options.
    pub gen: GenOptions,
    /// Peephole-optimize blocks before conversion.
    pub optimize: bool,
    /// Merge bisimilar MIMD states before conversion.
    pub minimize: bool,
}

impl Job {
    /// A job with default options (base-mode conversion, CSI on).
    pub fn new(name: impl Into<String>, source: impl Into<String>) -> Self {
        Job {
            name: name.into(),
            source: source.into(),
            convert: ConvertOptions::base(),
            gen: GenOptions::default(),
            optimize: false,
            minimize: false,
        }
    }
}

/// How a compilation was satisfied.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Provenance {
    /// Compiled from scratch this call.
    Fresh,
    /// Served from the in-memory cache.
    Memory,
    /// Reloaded from the on-disk cache.
    Disk,
    /// Fetched (verified) from a peer daemon's cache.
    Peer,
    /// Coalesced onto a concurrent identical compile (singleflight): this
    /// request waited for the in-flight compilation and shares its
    /// artifact.
    Coalesced,
}

impl std::fmt::Display for Provenance {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Provenance::Fresh => write!(f, "fresh compile"),
            Provenance::Memory => write!(f, "cache hit (memory)"),
            Provenance::Disk => write!(f, "cache hit (disk)"),
            Provenance::Peer => write!(f, "cache hit (peer)"),
            Provenance::Coalesced => write!(f, "coalesced (shared in-flight compile)"),
        }
    }
}

/// A successful [`Engine::compile`].
#[derive(Debug, Clone)]
pub struct Compiled {
    /// The artifact (shared with the cache).
    pub artifact: Arc<Artifact>,
    /// Whether it was fresh or a cache hit.
    pub provenance: Provenance,
}

/// One slot of [`Engine::compile_many_with_metrics`]: the job's outcome
/// plus a per-job metrics bundle (cache provenance, conversion counters,
/// phase timings, failure flags) assembled by the engine regardless of
/// whether a global [`msc_obs`] subscriber is installed.
#[derive(Debug)]
pub struct BatchOutcome {
    /// The job's result — identical to the matching
    /// [`Engine::compile_many`] slot.
    pub result: Result<Compiled, EngineError>,
    /// Metrics for this job alone.
    pub metrics: msc_obs::MetricsSnapshot,
}

/// Failures of [`Engine::compile`] / one slot of [`Engine::compile_many`].
#[derive(Debug)]
pub enum EngineError {
    /// Front end failed.
    Compile(CompileError),
    /// Meta-state conversion failed.
    Convert(ConvertError),
    /// SIMD code generation failed.
    Gen(GenError),
    /// The job's cooperative deadline passed.
    TimedOut {
        /// The job's label.
        job: String,
        /// The configured timeout.
        timeout: Duration,
    },
    /// The job panicked; the panic was contained to this slot.
    Panicked {
        /// The job's label.
        job: String,
        /// The panic payload, if it was a string.
        message: String,
    },
    /// This request coalesced onto a concurrent identical compile, and
    /// that shared compile failed. The message is the leader's rendered
    /// error (the leader's own slot carries the structured one).
    CoalescedFailed {
        /// The job's label.
        job: String,
        /// The shared compile's failure, rendered.
        message: String,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::Compile(e) => write!(f, "compile: {e}"),
            EngineError::Convert(e) => write!(f, "convert: {e}"),
            EngineError::Gen(e) => write!(f, "codegen: {e}"),
            EngineError::TimedOut { job, timeout } => {
                write!(f, "job `{job}` exceeded its {timeout:?} timeout")
            }
            EngineError::Panicked { job, message } => {
                write!(f, "job `{job}` panicked: {message}")
            }
            EngineError::CoalescedFailed { job, message } => {
                write!(
                    f,
                    "job `{job}` coalesced onto a compile that failed: {message}"
                )
            }
        }
    }
}

impl std::error::Error for EngineError {}

impl From<CompileError> for EngineError {
    fn from(e: CompileError) -> Self {
        EngineError::Compile(e)
    }
}

impl From<GenError> for EngineError {
    fn from(e: GenError) -> Self {
        EngineError::Gen(e)
    }
}

/// Engine configuration.
#[derive(Debug, Clone)]
pub struct EngineOptions {
    /// Compile workers for [`Engine::compile_many`] batches (0 = all
    /// available). Each job converts on the worker that runs it.
    pub threads: usize,
    /// In-memory cache capacity in artifacts (0 disables it).
    pub cache_capacity: usize,
    /// On-disk cache directory (None disables the disk layer).
    pub cache_dir: Option<PathBuf>,
    /// Per-job cooperative timeout, checked at phase boundaries and once
    /// per meta state the conversion expands (None = unbounded).
    pub job_timeout: Option<Duration>,
    /// Sibling daemons (`host:port` each) to consult for artifacts
    /// before compiling locally (empty disables the peer tier).
    pub peers: Vec<String>,
    /// Peer-tier tunables (deadlines, retry, breaker thresholds).
    pub peer: PeerConfig,
}

impl Default for EngineOptions {
    fn default() -> Self {
        EngineOptions {
            threads: 0,
            cache_capacity: 128,
            cache_dir: None,
            job_timeout: None,
            peers: Vec::new(),
            peer: PeerConfig::default(),
        }
    }
}

/// The compilation service: canonical conversion + cache + batch driver.
pub struct Engine {
    opts: EngineOptions,
    cache: CompileCache,
    jobs_compiled: AtomicU64,
    coalesced: AtomicU64,
    /// Singleflight table: cache key → the in-flight compile to join.
    /// Outcomes cross as `Result<Arc<Artifact>, String>` because the
    /// structured error types are not `Clone`.
    flights: Singleflight<CacheKey, Arc<Artifact>>,
}

impl Engine {
    /// Build an engine from options.
    pub fn new(opts: EngineOptions) -> Self {
        let cache = CompileCache::with_peers(
            opts.cache_capacity,
            opts.cache_dir.clone(),
            opts.peers.clone(),
            opts.peer.clone(),
        );
        Engine {
            opts,
            cache,
            jobs_compiled: AtomicU64::new(0),
            coalesced: AtomicU64::new(0),
            flights: Singleflight::new(),
        }
    }

    /// Resolved batch worker count.
    pub fn threads(&self) -> usize {
        if self.opts.threads == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        } else {
            self.opts.threads
        }
    }

    /// Cache counters.
    pub fn cache_stats(&self) -> CacheStats {
        self.cache.stats()
    }

    /// Jobs compiled from scratch (cache hits excluded).
    pub fn jobs_compiled(&self) -> u64 {
        self.jobs_compiled.load(Ordering::Relaxed)
    }

    /// Requests that coalesced onto a concurrent identical compile
    /// instead of compiling or hitting the cache themselves.
    pub fn coalesced(&self) -> u64 {
        self.coalesced.load(Ordering::Relaxed)
    }

    /// Serialize a locally cached artifact for `GET /artifact/{key}`.
    /// `None` when neither memory nor disk has it — serving a peer must
    /// never trigger a compile, and never consults our own peers.
    pub fn export_artifact(&self, key: CacheKey) -> Option<String> {
        self.cache.export(key)
    }

    /// Status of every configured cache tier, fastest first (for
    /// `/healthz` and the breaker gauges on `/metrics`).
    pub fn tier_status(&self) -> Vec<TierStatus> {
        self.cache.tier_status()
    }

    /// Compile a batch. Jobs are distributed over a pool of up to
    /// [`threads`](Self::threads) workers; each slot carries its own job's
    /// outcome — an error or panic in one job never affects its
    /// neighbours.
    pub fn compile_many(&self, jobs: &[Job]) -> Vec<Result<Compiled, EngineError>> {
        self.compile_many_with_metrics(jobs)
            .into_iter()
            .map(|o| o.result)
            .collect()
    }

    /// [`compile_many`](Self::compile_many), additionally returning a
    /// per-job [`msc_obs::MetricsSnapshot`] alongside each result. A job
    /// that panics is contained to its slot and shows up with an
    /// `engine.job_failed` (and `engine.job_panicked`) count instead of
    /// poisoning the pool; the same counters are emitted to the global
    /// [`msc_obs`] subscriber when one is installed.
    pub fn compile_many_with_metrics(&self, jobs: &[Job]) -> Vec<BatchOutcome> {
        if jobs.is_empty() {
            return Vec::new();
        }
        let pool = self.threads().min(jobs.len()).max(1);
        let next = AtomicUsize::new(0);
        let results: Vec<Mutex<Option<BatchOutcome>>> =
            jobs.iter().map(|_| Mutex::new(None)).collect();
        std::thread::scope(|s| {
            for _ in 0..pool {
                s.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= jobs.len() {
                        return;
                    }
                    let job = &jobs[i];
                    let result = catch_unwind(AssertUnwindSafe(|| self.compile(job)))
                        .unwrap_or_else(|payload| {
                            msc_obs::count("engine.job_panicked", 1);
                            Err(EngineError::Panicked {
                                job: job.name.clone(),
                                message: panic_message(payload.as_ref()),
                            })
                        });
                    if result.is_err() {
                        msc_obs::count("engine.job_failed", 1);
                    }
                    let metrics = job_metrics(&result);
                    *results[i].lock().unwrap_or_else(|p| p.into_inner()) =
                        Some(BatchOutcome { result, metrics });
                });
            }
        });
        results
            .into_iter()
            .map(|slot| {
                slot.into_inner()
                    .unwrap_or_else(|p| p.into_inner())
                    .expect("every job slot filled")
            })
            .collect()
    }

    /// Compile one job: a cache hit, a share of a concurrent identical
    /// compile, or a fresh run of the pipeline.
    pub fn compile(&self, job: &Job) -> Result<Compiled, EngineError> {
        // Deliberate panic site for the batch isolation tests: no natural
        // input panics the pipeline, so the tests opt in by job name.
        #[cfg(test)]
        if job.name == "__panic_for_test__" {
            panic!("injected test panic");
        }
        let key = job_key(job);
        let as_hit = |(artifact, layer): (Arc<Artifact>, CacheLayer)| Compiled {
            artifact,
            provenance: match layer {
                CacheLayer::Memory => Provenance::Memory,
                CacheLayer::Disk => Provenance::Disk,
                CacheLayer::Peer => Provenance::Peer,
            },
        };
        if let Some(hit) = self.cache.probe(key, &job.gen.costs) {
            return Ok(as_hit(hit));
        }
        // Singleflight: elect a leader, re-probing the cache under the
        // flight-table lock. A leader inserts its artifact into the cache
        // *before* its guard retires the table entry — so every concurrent
        // identical request either joins the flight or sees the cache hit;
        // exactly one request per key ever compiles.
        let leader = match self
            .flights
            .begin(key, || self.cache.probe(key, &job.gen.costs))
        {
            Flight::Hit(hit) => return Ok(as_hit(hit)),
            Flight::Join(follower) => {
                // Follower: wait for the leader's outcome and share it.
                self.coalesced.fetch_add(1, Ordering::Relaxed);
                msc_obs::count("engine.coalesced", 1);
                return match follower.wait() {
                    Ok(artifact) => Ok(Compiled {
                        artifact,
                        provenance: Provenance::Coalesced,
                    }),
                    Err(message) => Err(EngineError::CoalescedFailed {
                        job: job.name.clone(),
                        message,
                    }),
                };
            }
            Flight::Lead(leader) => leader,
        };
        // Leader: first try the fleet. The fetch runs outside the
        // flight-table lock but inside the flight, so N coalesced cold
        // requests cost at most one peer round-trip; a verified peer hit
        // is promoted into the local tiers and is *not* a miss.
        if let Some(artifact) = self.cache.fetch_remote(key, &job.gen.costs) {
            leader.publish(Ok(Arc::clone(&artifact)));
            drop(leader);
            return Ok(Compiled {
                artifact,
                provenance: Provenance::Peer,
            });
        }
        // No peer had it: this request is the one that compiles (and the
        // one that counts the miss for the whole coalesced group).
        self.cache.note_miss();
        let result = self.compile_fresh(job, key);
        leader.publish(match &result {
            Ok(c) => Ok(Arc::clone(&c.artifact)),
            Err(e) => Err(e.to_string()),
        });
        drop(leader);
        result
    }

    /// The actual pipeline run for a cache-missed job. Inserts the
    /// artifact into the cache on success.
    fn compile_fresh(&self, job: &Job, key: CacheKey) -> Result<Compiled, EngineError> {
        // Deliberate slow/panic sites for the singleflight tests:
        // overlapping identical jobs need a compile that reliably outlives
        // the followers' arrival.
        #[cfg(test)]
        if job.name.starts_with("__slow_for_test__") {
            std::thread::sleep(Duration::from_millis(150));
        }
        #[cfg(test)]
        if job.name.starts_with("__panic_in_flight_for_test__") {
            std::thread::sleep(Duration::from_millis(150));
            panic!("injected in-flight test panic");
        }
        let deadline = self.opts.job_timeout.map(|t| Instant::now() + t);
        let timed_out = || EngineError::TimedOut {
            job: job.name.clone(),
            timeout: self.opts.job_timeout.unwrap_or_default(),
        };

        let t0 = Instant::now();
        let mut compiled = compile(&job.source)?;
        if job.optimize {
            compiled.graph.peephole();
            compiled.graph.normalize();
        }
        if job.minimize {
            compiled.graph.minimize();
            compiled.graph.normalize();
        }
        let t1 = Instant::now();
        if deadline.is_some_and(|d| t1 > d) {
            return Err(timed_out());
        }

        let (automaton, stats) = convert_canonical(&compiled.graph, &job.convert, deadline)
            .map_err(|e| match e {
                ConvertError::TimedOut => timed_out(),
                e => EngineError::Convert(e),
            })?;
        let t2 = Instant::now();

        let simd = generate(
            &automaton,
            compiled.layout.poly_words,
            compiled.layout.mono_words,
            &job.gen,
        )?;
        let t3 = Instant::now();
        if deadline.is_some_and(|d| t3 > d) {
            return Err(timed_out());
        }

        let artifact = Arc::new(Artifact {
            simd,
            stats,
            meta_states: automaton.len(),
            timings: PhaseTimings {
                compile: t1 - t0,
                convert: t2 - t1,
                codegen: t3 - t2,
            },
            ret_addr: compiled.layout.main_ret,
            automaton_text: automaton.text(),
            automaton: Some(automaton),
            compiled: Some(compiled),
        });
        self.jobs_compiled.fetch_add(1, Ordering::Relaxed);
        self.cache.insert(key, Arc::clone(&artifact));
        Ok(Compiled {
            artifact,
            provenance: Provenance::Fresh,
        })
    }
}

/// The engine's canonical conversion with no deadline.
///
/// `_threads` has no effect: conversion always runs the sequential core
/// converter. The parameter is kept only because the benchmark harness
/// (`perfbench/src/pipeline.rs`) calls this signature.
pub fn convert_parallel(
    graph: &MimdGraph,
    opts: &ConvertOptions,
    _threads: usize,
) -> Result<(MetaAutomaton, ConvertStats), ConvertError> {
    convert_canonical(graph, opts, None)
}

/// Core conversion with subsumption deferred, normalized so the automaton
/// depends only on `(graph, opts)`: drop unreachable states (latent
/// widening can orphan sets interned along the way), BFS-renumber the
/// rest, then run the subsumption fold if requested and renumber again
/// since the fold compacts ids.
fn convert_canonical(
    graph: &MimdGraph,
    opts: &ConvertOptions,
    deadline: Option<Instant>,
) -> Result<(MetaAutomaton, ConvertStats), ConvertError> {
    let build_opts = ConvertOptions {
        subsumption: false,
        ..opts.clone()
    };
    let (mut automaton, mut stats) = convert_with_deadline(graph, &build_opts, deadline)?;
    automaton.prune_unreachable();
    automaton.canonicalize();
    if opts.subsumption {
        stats.subsumed += subsume(&mut automaton);
        automaton.canonicalize();
    }
    Ok((automaton, stats))
}

/// The content-addressed cache key a job compiles under — the same key
/// [`Engine::compile`] uses, exposed so callers (the serve layer, peer
/// fetches) can name the artifact without compiling anything.
pub fn job_key(job: &Job) -> CacheKey {
    cache_key(
        &job.source,
        &job.convert,
        &job.gen,
        job.optimize,
        job.minimize,
    )
}

/// Assemble a job's private metrics bundle from data the engine already
/// holds: cache provenance, the artifact's conversion counters, and the
/// phase timings of the compile that produced it. Failures are flagged
/// with `engine.job_failed` / `engine.job_panicked` counts.
fn job_metrics(result: &Result<Compiled, EngineError>) -> msc_obs::MetricsSnapshot {
    use msc_obs::Event;
    let reg = msc_obs::Registry::new();
    match result {
        Ok(c) => {
            let provenance = match c.provenance {
                Provenance::Fresh => "cache.miss",
                Provenance::Memory => "cache.hit",
                Provenance::Disk => "cache.disk_hit",
                Provenance::Peer => "cache.peer_hit",
                Provenance::Coalesced => "engine.coalesced",
            };
            reg.record(&Event::Count {
                name: provenance,
                delta: 1,
            });
            let s = &c.artifact.stats;
            for (name, v) in [
                ("convert.restarts", s.restarts as u64),
                ("convert.splits", s.splits as u64),
                ("convert.subsumed", s.subsumed as u64),
                ("convert.successor_sets", s.successor_sets_enumerated),
            ] {
                reg.record(&Event::Count { name, delta: v });
            }
            if c.provenance == Provenance::Fresh {
                let t = &c.artifact.timings;
                for (name, d) in [
                    ("engine.phase.compile", t.compile),
                    ("engine.phase.convert", t.convert),
                    ("engine.phase.codegen", t.codegen),
                ] {
                    reg.record(&Event::Span {
                        name,
                        nanos: d.as_nanos() as u64,
                    });
                }
            }
        }
        Err(e) => {
            reg.record(&Event::Count {
                name: "engine.job_failed",
                delta: 1,
            });
            if matches!(e, EngineError::Panicked { .. }) {
                reg.record(&Event::Count {
                    name: "engine.job_panicked",
                    delta: 1,
                });
            }
        }
    }
    reg.snapshot()
}

fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const PROG: &str = "main() { poly int x; x = pe_id() * 2 + 1; return(x); }";

    #[test]
    fn compile_then_hit() {
        let engine = Engine::new(EngineOptions::default());
        let job = Job::new("p", PROG);
        let first = engine.compile(&job).unwrap();
        assert_eq!(first.provenance, Provenance::Fresh);
        assert!(first.artifact.automaton.is_some());
        let second = engine.compile(&job).unwrap();
        assert_eq!(second.provenance, Provenance::Memory);
        assert!(
            Arc::ptr_eq(&first.artifact, &second.artifact),
            "hit shares the artifact"
        );
        assert_eq!(engine.jobs_compiled(), 1, "the hit did not recompile");
        let s = engine.cache_stats();
        assert_eq!((s.hits, s.misses), (1, 1));
    }

    #[test]
    fn option_changes_miss() {
        let engine = Engine::new(EngineOptions::default());
        let job = Job::new("p", PROG);
        engine.compile(&job).unwrap();
        let mut job2 = job.clone();
        job2.convert = ConvertOptions::compressed();
        let out = engine.compile(&job2).unwrap();
        assert_eq!(out.provenance, Provenance::Fresh);
        assert_eq!(engine.jobs_compiled(), 2);
    }

    #[test]
    fn batch_isolates_poisoned_jobs() {
        let engine = Engine::new(EngineOptions {
            threads: 4,
            ..EngineOptions::default()
        });
        let jobs = vec![
            Job::new("good-1", PROG),
            Job::new("bad-syntax", "main() { y = 1; }"),
            Job::new("good-2", "main() { poly int v; v = 3; return(v); }"),
            Job::new(
                "bad-explosion",
                "main() { poly int x; if (pe_id()) { x = 1; } else { x = 2; } return(x); }",
            )
            .tap(|j| j.convert.max_meta_states = 1),
        ];
        let results = engine.compile_many(&jobs);
        assert_eq!(results.len(), 4);
        assert!(results[0].is_ok(), "{:?}", results[0].as_ref().err());
        assert!(matches!(results[1], Err(EngineError::Compile(_))));
        assert!(results[2].is_ok());
        assert!(matches!(results[3], Err(EngineError::Convert(_))));
    }

    impl Job {
        fn tap(mut self, f: impl FnOnce(&mut Job)) -> Job {
            f(&mut self);
            self
        }
    }

    #[test]
    fn batch_shares_the_cache() {
        let _obs = isolate_obs();
        let engine = Engine::new(EngineOptions {
            threads: 4,
            ..EngineOptions::default()
        });
        let jobs: Vec<Job> = (0..6).map(|_| Job::new("same", PROG)).collect();
        let results = engine.compile_many(&jobs);
        assert!(results.iter().all(|r| r.is_ok()));
        // Identical jobs race on the first compile; at least the repeats
        // after the first insertion must hit.
        assert!(engine.cache_stats().hits >= 1);
        let a0 = results[0].as_ref().unwrap().artifact.automaton_text.clone();
        for r in &results {
            assert_eq!(r.as_ref().unwrap().artifact.automaton_text, a0);
        }
    }

    #[test]
    fn batch_panic_isolated_and_emits_job_failed_metric() {
        let registry = Arc::new(msc_obs::Registry::new());
        let outcomes = {
            let _guard = msc_obs::install(registry.clone());
            let engine = Engine::new(EngineOptions {
                threads: 4,
                ..EngineOptions::default()
            });
            let jobs = vec![
                Job::new("good-1", PROG),
                Job::new("__panic_for_test__", PROG),
                Job::new("good-2", "main() { poly int v; v = 3; return(v); }"),
            ];
            engine.compile_many_with_metrics(&jobs)
        };
        // The panicking job is contained to its slot...
        assert!(outcomes[0].result.is_ok());
        assert!(
            matches!(&outcomes[1].result, Err(EngineError::Panicked { job, .. })
                if job == "__panic_for_test__")
        );
        assert!(outcomes[2].result.is_ok());
        // ...and flagged in its own metrics bundle, not its neighbours'.
        assert_eq!(outcomes[1].metrics.counter("engine.job_failed"), 1);
        assert_eq!(outcomes[1].metrics.counter("engine.job_panicked"), 1);
        assert_eq!(outcomes[0].metrics.counter("engine.job_failed"), 0);
        assert_eq!(
            outcomes[0].metrics.counter("cache.miss"),
            1,
            "fresh compile"
        );
        assert!(outcomes[0].metrics.span("engine.phase.convert").is_some());
        // The global subscriber saw the failure too (>=: other tests in
        // this process may run failing batches concurrently).
        let snap = registry.snapshot();
        assert!(snap.counter("engine.job_failed") >= 1);
        assert!(snap.counter("engine.job_panicked") >= 1);
    }

    #[test]
    fn zero_timeout_times_out() {
        let engine = Engine::new(EngineOptions {
            job_timeout: Some(Duration::ZERO),
            ..EngineOptions::default()
        });
        let err = engine.compile(&Job::new("t", PROG)).unwrap_err();
        assert!(matches!(err, EngineError::TimedOut { .. }), "{err:?}");
    }

    /// Hold the obs install lock with a throwaway registry, so a test
    /// whose requests coalesce cannot add `engine.coalesced` counts to the
    /// registry `concurrent_identical_jobs_compile_exactly_once` installs
    /// and counts exactly.
    fn isolate_obs() -> msc_obs::InstallGuard {
        msc_obs::install(Arc::new(msc_obs::Registry::new()))
    }

    /// Start a leader compiling `job` (whose `__slow_for_test__` /
    /// `__panic_in_flight_for_test__` name keeps it in flight for
    /// ~150ms), give it `lead_ms` of head start, then run `followers`
    /// concurrent identical requests. Returns (leader result, follower
    /// results); the head start guarantees the followers arrive while
    /// the leader's in-flight entry is registered.
    type LeaderOutcome = std::thread::Result<Result<Compiled, EngineError>>;

    fn race_identical(
        engine: &Engine,
        job: &Job,
        followers: usize,
    ) -> (LeaderOutcome, Vec<Result<Compiled, EngineError>>) {
        std::thread::scope(|s| {
            let leader = s.spawn(|| catch_unwind(AssertUnwindSafe(|| engine.compile(job))));
            std::thread::sleep(Duration::from_millis(40));
            let handles: Vec<_> = (0..followers)
                .map(|_| s.spawn(|| engine.compile(job)))
                .collect();
            let follower_results = handles.into_iter().map(|h| h.join().unwrap()).collect();
            (leader.join().unwrap(), follower_results)
        })
    }

    #[test]
    fn concurrent_identical_jobs_compile_exactly_once() {
        let registry = Arc::new(msc_obs::Registry::new());
        let _guard = msc_obs::install(registry.clone());
        let engine = Engine::new(EngineOptions {
            threads: 2,
            ..EngineOptions::default()
        });
        let job = Job::new("__slow_for_test__ok", PROG);
        let (leader, followers) = race_identical(&engine, &job, 3);
        let leader = leader.expect("slow leader does not panic").unwrap();
        assert_eq!(leader.provenance, Provenance::Fresh);
        for f in &followers {
            let f = f.as_ref().unwrap();
            assert_eq!(f.provenance, Provenance::Coalesced);
            assert!(
                Arc::ptr_eq(&leader.artifact, &f.artifact),
                "coalesced requests share the leader's artifact"
            );
        }
        assert_eq!(engine.jobs_compiled(), 1, "the burst compiled exactly once");
        assert_eq!(engine.coalesced(), 3);
        let s = engine.cache_stats();
        assert_eq!(
            (s.misses, s.hits, s.insertions),
            (1, 0, 1),
            "one miss for the whole group: {s:?}"
        );
        assert_eq!(registry.snapshot().counter("engine.coalesced"), 3);
        // After the flight lands, the same job is an ordinary memory hit.
        assert_eq!(engine.compile(&job).unwrap().provenance, Provenance::Memory);
    }

    #[test]
    fn coalesced_requests_share_the_leaders_failure() {
        let _obs = isolate_obs();
        let engine = Engine::new(EngineOptions::default());
        // Slow so the follower reliably coalesces; bad source so the
        // leader's compile fails after the flight is joined.
        let job = Job::new("__slow_for_test__bad", "main() { y = 1; }");
        let (leader, followers) = race_identical(&engine, &job, 1);
        let leader_err = leader.expect("slow leader does not panic").unwrap_err();
        assert!(
            matches!(leader_err, EngineError::Compile(_)),
            "{leader_err:?}"
        );
        match &followers[0] {
            Err(EngineError::CoalescedFailed { job, message }) => {
                assert_eq!(job, "__slow_for_test__bad");
                assert!(!message.is_empty());
            }
            other => panic!("expected CoalescedFailed, got {other:?}"),
        }
        // A failed flight caches nothing and leaves nothing in flight:
        // the next identical request compiles (and fails) on its own.
        assert_eq!(engine.cache_stats().insertions, 0);
        assert!(engine.flights.is_empty());
    }

    #[test]
    fn panicking_leader_releases_its_followers() {
        let _obs = isolate_obs();
        let engine = Engine::new(EngineOptions::default());
        let job = Job::new("__panic_in_flight_for_test__", PROG);
        let (leader, followers) = race_identical(&engine, &job, 1);
        assert!(leader.is_err(), "leader panics mid-flight");
        match &followers[0] {
            Err(EngineError::CoalescedFailed { message, .. }) => {
                assert!(
                    message.contains("panicked"),
                    "guard publishes the panic: {message}"
                );
            }
            other => panic!("expected CoalescedFailed, got {other:?}"),
        }
        assert!(
            engine.flights.is_empty(),
            "the leader's guard cleans up even on panic"
        );
        // The engine is still fully usable afterwards.
        let ok = engine.compile(&Job::new("after", PROG)).unwrap();
        assert_eq!(ok.provenance, Provenance::Fresh);
    }

    /// A minimal fleet sibling: serves `GET /artifact/{key}` out of a
    /// warm donor engine over real TCP (404 on anything it lacks),
    /// counting requests. The thread leaks with the test process.
    fn artifact_server(donor: Arc<Engine>, requests: Arc<AtomicU64>) -> String {
        use std::io::{Read as _, Write as _};
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        std::thread::spawn(move || {
            while let Ok((mut stream, _)) = listener.accept() {
                let mut buf = Vec::new();
                let mut chunk = [0u8; 1024];
                while !buf.windows(4).any(|w| w == b"\r\n\r\n") {
                    match stream.read(&mut chunk) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => buf.extend_from_slice(&chunk[..n]),
                    }
                }
                requests.fetch_add(1, Ordering::Relaxed);
                let path = std::str::from_utf8(&buf)
                    .ok()
                    .and_then(|t| t.split_whitespace().nth(1))
                    .unwrap_or("");
                let body = path
                    .strip_prefix("/artifact/")
                    .and_then(CacheKey::from_hex)
                    .and_then(|key| {
                        donor
                            .export_artifact(key)
                            .map(|text| msc_cache::wire::envelope(key, &text).render())
                    });
                let resp = match body {
                    Some(b) => format!(
                        "HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{b}",
                        b.len()
                    ),
                    None => {
                        "HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\nConnection: close\r\n\r\n"
                            .to_string()
                    }
                };
                let _ = stream.write_all(resp.as_bytes());
            }
        });
        addr
    }

    #[test]
    fn peer_hit_avoids_local_compile_and_promotes() {
        let donor = Arc::new(Engine::new(EngineOptions::default()));
        let job = Job::new("fleet", PROG);
        let compiled = donor.compile(&job).unwrap();
        let requests = Arc::new(AtomicU64::new(0));
        let addr = artifact_server(Arc::clone(&donor), Arc::clone(&requests));

        let node_b = Engine::new(EngineOptions {
            peers: vec![addr],
            ..EngineOptions::default()
        });
        let got = node_b.compile(&job).unwrap();
        assert_eq!(got.provenance, Provenance::Peer);
        assert_eq!(node_b.jobs_compiled(), 0, "node B never compiled");
        assert_eq!(
            got.artifact.automaton_text,
            compiled.artifact.automaton_text
        );
        assert_eq!(got.artifact.meta_states, compiled.artifact.meta_states);
        assert!(
            got.artifact.automaton.is_none(),
            "peer artifacts are partial, like disk reloads"
        );
        let s = node_b.cache_stats();
        assert_eq!((s.peer_hits, s.misses), (1, 0), "{s:?}");
        // The fetched artifact was promoted: the repeat is a memory hit,
        // no second round-trip.
        assert_eq!(node_b.compile(&job).unwrap().provenance, Provenance::Memory);
        assert_eq!(requests.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn cold_burst_on_one_node_costs_one_peer_round_trip() {
        let _obs = isolate_obs();
        let donor = Arc::new(Engine::new(EngineOptions::default()));
        let job = Job::new("burst", PROG);
        donor.compile(&job).unwrap();
        let requests = Arc::new(AtomicU64::new(0));
        let addr = artifact_server(Arc::clone(&donor), Arc::clone(&requests));

        let node_b = Engine::new(EngineOptions {
            peers: vec![addr],
            threads: 2,
            ..EngineOptions::default()
        });
        let results: Vec<Result<Compiled, EngineError>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..4).map(|_| s.spawn(|| node_b.compile(&job))).collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for r in &results {
            assert!(r.is_ok(), "{:?}", r.as_ref().err());
        }
        assert_eq!(node_b.jobs_compiled(), 0, "nothing compiled locally");
        assert_eq!(
            requests.load(Ordering::Relaxed),
            1,
            "singleflight collapses the cold burst onto one peer fetch"
        );
        let s = node_b.cache_stats();
        assert_eq!((s.peer_hits, s.misses), (1, 0), "{s:?}");
    }

    #[test]
    fn dead_peers_degrade_to_a_bounded_local_compile() {
        // A port that refuses connections: bind, note the addr, drop.
        let refused = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let peer = PeerConfig {
            connect_timeout: Duration::from_millis(100),
            read_timeout: Duration::from_millis(200),
            total_deadline: Duration::from_millis(600),
            backoff: Duration::from_millis(1),
            ..PeerConfig::default()
        };
        let engine = Engine::new(EngineOptions {
            peers: vec![refused.clone(), refused],
            peer,
            ..EngineOptions::default()
        });
        let start = Instant::now();
        let out = engine.compile(&Job::new("deadfleet", PROG)).unwrap();
        assert_eq!(out.provenance, Provenance::Fresh, "compiled locally");
        assert!(
            start.elapsed() < Duration::from_secs(5),
            "a dead fleet costs at most one peer deadline: {:?}",
            start.elapsed()
        );
        let s = engine.cache_stats();
        assert_eq!((s.peer_hits, s.misses), (0, 1), "{s:?}");
        // The dead peers' breakers show up in tier status.
        let status = engine.tier_status();
        assert!(status.iter().any(|t| matches!(t, TierStatus::Peers { .. })));
    }
}
