//! Synthetic workload generation for the RAMP/DRM reproduction.
//!
//! The paper drives its study with three multimedia codecs (MPGdec, MP3dec,
//! H263enc), three SpecInt2000 (bzip2, gzip, twolf) and three SpecFP2000
//! (art, equake, ammp) applications. Those binaries cannot be shipped with a
//! reproduction, so this crate provides a *statistical substitute*: each
//! application becomes an [`AppProfile`] — instruction-class mix, a
//! dependency-distance model controlling exploitable ILP, a static-branch
//! bias model controlling predictability, and a working-set/stride model
//! controlling cache behaviour — from which [`SyntheticStream`] produces a
//! deterministic, seeded instruction stream. An [`OpTape`] records a
//! stream's prefix in 12 bytes per op so a sweep generates it once and every
//! timing run replays it through a [`TapeSource`].
//!
//! Profiles are calibrated so that the base 8-wide 4 GHz processor of Table 1
//! reproduces the IPC spread of Table 2 (from 0.7 for `art` up to 3.2 for
//! `MPGdec`); the reliability study consumes only IPC, per-structure
//! activity, and power, all of which the synthetic streams reproduce.
//!
//! # Examples
//!
//! ```
//! use workload::{App, InstructionSource, SyntheticStream};
//!
//! let mut stream = SyntheticStream::new(App::Bzip2.profile(), 42);
//! let op = stream.next_op();
//! assert_eq!(op.pc % 4, 0);
//! ```

pub mod op;
pub mod profile;
pub mod stream;
pub mod tape;
pub mod textfmt;
pub mod trace;

pub use op::{ArchReg, MicroOp, OpClass, RegClass, ARCH_REGS_PER_CLASS};
pub use profile::{App, AppProfile, OpMix, PhaseSegment};
pub use stream::{StreamState, SyntheticStream, DATA_BASE};
pub use tape::{OpTape, TapeSource};
pub use textfmt::{profile_from_text, profile_to_text};
pub use trace::{RecordedTrace, TraceReplayer};

/// A source of decoded micro-operations for the timing simulator.
///
/// Streams are conceptually infinite; the simulator decides how many
/// instructions to consume. Implementations must be deterministic for a
/// given construction (same profile + seed ⇒ same stream) so that every
/// DRM configuration sweep sees identical work.
pub trait InstructionSource {
    /// Produces the next micro-op in program order.
    fn next_op(&mut self) -> MicroOp;

    /// Human-readable name of the workload (used in reports).
    fn name(&self) -> &str;
}
