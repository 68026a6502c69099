//! # metastate — Meta-State Conversion
//!
//! A full reproduction of H. G. Dietz, *Meta-State Conversion* (Purdue
//! TR-EE 93-6, January 1993; ICPP 1993): a compiler pipeline that converts
//! MIMD (SPMD) programs into pure SIMD code by viewing the *set* of
//! per-processor states at an instant as a single aggregate **meta state**
//! and building a finite automaton over those meta states.
//!
//! This crate is the facade: it re-exports every pipeline stage and offers
//! [`Pipeline`], a one-stop builder that runs
//! MIMDC source → MIMD state graph → meta-state automaton → SIMD program.
//!
//! ```
//! use metastate::{Pipeline, ConvertMode};
//!
//! // The paper's Listing 4 (built but not run — half its paths spin
//! // forever by design; see `examples/quickstart.rs` for execution).
//! let src = r#"
//!     main() {
//!         poly int x;
//!         if (x) { do { x = 1; } while (x); }
//!         else   { do { x = 2; } while (x); }
//!         return(x);
//!     }
//! "#;
//! let built = Pipeline::new(src).mode(ConvertMode::Base).build().unwrap();
//! assert_eq!(built.automaton.len(), 8); // Figure 2: eight meta states
//! assert!(built.mpl().contains("apc = globalor(pc);"));
//! ```

pub use msc_codegen as codegen;
pub use msc_core as core;
pub use msc_csi as csi;
pub use msc_engine as engine;
pub use msc_hash as hash;
pub use msc_ir as ir;
pub use msc_lang as lang;
pub use msc_mimd as mimd;
pub use msc_simd as simd;

pub use msc_codegen::render::render_mpl;
pub use msc_codegen::{generate, GenOptions};
pub use msc_core::{convert, ConvertMode, ConvertOptions, MetaAutomaton, MetaId, TimeSplitOptions};
pub use msc_engine::{
    Artifact, CacheStats, Compiled, Engine, EngineError, EngineOptions, Job, Provenance,
};
pub use msc_ir::{CostModel, MimdGraph};
pub use msc_lang::compile as compile_mimdc;
pub use msc_mimd::{interpret_on_simd, MimdReference};
pub use msc_simd::{MachineProfile, ProfileError, SimdMachine, SimdProgram};

mod pipeline;
pub use pipeline::{Built, Pipeline, PipelineError, RunOutput};
