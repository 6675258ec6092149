//! Packed op tapes: one recording of a synthetic stream's prefix, replayed
//! by every timing run that needs the same instructions.
//!
//! A [`SyntheticStream`] is a pure function of `(profile, seed)`, and the
//! timing simulator fetches the correct path only, so every configuration
//! of a sweep consumes the identical op sequence. An [`OpTape`] generates
//! that sequence once and stores it in 12 bytes per op; a [`TapeSource`]
//! replays it and, past its end, continues the live stream from the
//! recorded end state. Correctness therefore never depends on how long the
//! tape is — only how much generation it saves.

use std::sync::{Mutex, PoisonError};

use crate::op::{ArchReg, MicroOp, OpClass};
use crate::profile::AppProfile;
use crate::stream::{StreamState, SyntheticStream, DATA_BASE};
use crate::InstructionSource;

/// Register byte meaning "no register" (flat indices stay below 128).
const NO_REG: u8 = u8::MAX;
/// Flag bit: the branch/call/return was taken.
const TAKEN: u8 = 0x10;
/// Flag bit: the op carries a data address.
const HAS_ADDR: u8 = 0x20;
/// Low bits of the flags byte: the class's index in [`OpClass::ALL`].
const CLASS_MASK: u8 = 0x0F;

/// The largest buffer of a dropped tape, handed to the next recording. The
/// allocator keeps a freed tape resident in the arena of the thread that
/// recorded it, so with a fresh buffer per tape every thread that ever
/// recorded one held a tape's worth of memory (the `serve-warm` benchmark's
/// peak RSS rose 17%, against 2–7% with this recycling).
static SPARE: Mutex<Vec<PackedOp>> = Mutex::new(Vec::new());

/// One micro-op in 12 bytes: a 32-bit pc, a 32-bit data offset from
/// [`DATA_BASE`], and one byte each for class + flags, the destination and
/// the two sources.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PackedOp {
    pc: u32,
    data_offset: u32,
    flags: u8,
    dest: u8,
    srcs: [u8; 2],
}

const _: () = assert!(std::mem::size_of::<PackedOp>() == 12);

impl PackedOp {
    /// Packs `op`, or `None` when it does not fit exactly (a pc or data
    /// offset at or above 2³², or an address below [`DATA_BASE`]).
    fn pack(op: &MicroOp) -> Option<PackedOp> {
        let pc = u32::try_from(op.pc).ok()?;
        let (data_offset, has_addr) = match op.addr {
            Some(addr) => (u32::try_from(addr.checked_sub(DATA_BASE)?).ok()?, HAS_ADDR),
            None => (0, 0),
        };
        let reg = |r: Option<ArchReg>| r.map_or(NO_REG, |r| r.flat_index() as u8);
        Some(PackedOp {
            pc,
            data_offset,
            flags: op.class.index() as u8 | if op.taken { TAKEN } else { 0 } | has_addr,
            dest: reg(op.dest),
            srcs: [reg(op.srcs[0]), reg(op.srcs[1])],
        })
    }

    #[inline]
    fn unpack(self) -> MicroOp {
        let reg = |b: u8| (b != NO_REG).then(|| ArchReg::from_flat_index(b as usize));
        MicroOp {
            pc: u64::from(self.pc),
            class: OpClass::ALL[(self.flags & CLASS_MASK) as usize],
            dest: reg(self.dest),
            srcs: [reg(self.srcs[0]), reg(self.srcs[1])],
            addr: (self.flags & HAS_ADDR != 0).then(|| DATA_BASE + u64::from(self.data_offset)),
            taken: self.flags & TAKEN != 0,
        }
    }
}

/// The packed prefix of a [`SyntheticStream`], plus the stream state where
/// the prefix ends.
///
/// # Examples
///
/// ```
/// use workload::{App, InstructionSource, OpTape, SyntheticStream};
///
/// let tape = OpTape::record(App::Gzip.profile(), 7, 1_000);
/// let mut replay = tape.source();
/// let mut live = SyntheticStream::new(App::Gzip.profile(), 7);
/// // The replay equals the live stream, on the tape and past its end.
/// for _ in 0..2_000 {
///     assert_eq!(replay.next_op(), live.next_op());
/// }
/// assert!(replay.is_live());
/// ```
#[derive(Debug)]
pub struct OpTape {
    profile: AppProfile,
    seed: u64,
    ops: Vec<PackedOp>,
    end: StreamState,
}

impl OpTape {
    /// Records up to `len` ops of the `(profile, seed)` stream. Recording
    /// stops early at the first op that does not pack, so the tape then
    /// holds only the ops before it and [`end_state`](OpTape::end_state)
    /// sits just before it. `len == 0` gives an empty tape whose source is
    /// the live stream from the start.
    ///
    /// # Panics
    ///
    /// Panics if the profile fails [`AppProfile::validate`] (as
    /// [`SyntheticStream::new`] does).
    #[must_use]
    pub fn record(profile: AppProfile, seed: u64, len: usize) -> OpTape {
        let mut stream = SyntheticStream::new(profile.clone(), seed);
        let mut ops = Vec::new();
        if len > 0 {
            ops = std::mem::take(&mut *SPARE.lock().unwrap_or_else(PoisonError::into_inner));
            ops.reserve_exact(len);
        }
        while ops.len() < len {
            match PackedOp::pack(&stream.next_op()) {
                Some(op) => ops.push(op),
                None => {
                    // The stream has moved past the op that did not pack:
                    // regenerate the packed prefix to stop just before it.
                    stream = SyntheticStream::new(profile.clone(), seed);
                    for _ in 0..ops.len() {
                        stream.next_op();
                    }
                    break;
                }
            }
        }
        OpTape {
            end: stream.state(),
            profile,
            seed,
            ops,
        }
    }

    /// The profile the tape was recorded from.
    pub fn profile(&self) -> &AppProfile {
        &self.profile
    }

    /// The stream seed the tape was recorded at.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Number of recorded ops.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The stream state immediately after the last recorded op.
    pub fn end_state(&self) -> &StreamState {
        &self.end
    }

    /// A fresh source at the start of the tape.
    pub fn source(&self) -> TapeSource<'_> {
        TapeSource {
            tape: self,
            cursor: 0,
            live: None,
        }
    }
}

impl Drop for OpTape {
    fn drop(&mut self) {
        // The spare only ever holds an empty Vec, so a poisoned lock still
        // guards valid data.
        let mut spare = SPARE.lock().unwrap_or_else(PoisonError::into_inner);
        if spare.capacity() < self.ops.capacity() {
            self.ops.clear();
            *spare = std::mem::take(&mut self.ops);
        }
    }
}

/// An [`InstructionSource`] that replays an [`OpTape`] and then continues
/// the live stream from the tape's end state, so its op sequence equals the
/// `(profile, seed)` [`SyntheticStream`]'s at any length.
#[derive(Debug, Clone)]
pub struct TapeSource<'t> {
    tape: &'t OpTape,
    cursor: usize,
    live: Option<SyntheticStream>,
}

impl TapeSource<'_> {
    /// True once the source has run past the tape and generates live.
    pub fn is_live(&self) -> bool {
        self.live.is_some()
    }
}

impl InstructionSource for TapeSource<'_> {
    #[inline]
    fn next_op(&mut self) -> MicroOp {
        if let Some(&op) = self.tape.ops.get(self.cursor) {
            self.cursor += 1;
            return op.unpack();
        }
        self.live
            .get_or_insert_with(|| {
                SyntheticStream::restore(self.tape.profile.clone(), self.tape.seed, &self.tape.end)
                    .expect("a tape's end state fits the profile it was recorded from")
            })
            .next_op()
    }

    fn name(&self) -> &str {
        &self.tape.profile.name
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::App;

    #[test]
    fn every_app_round_trips_through_pack_and_unpack() {
        for app in App::ALL {
            let mut stream = SyntheticStream::new(app.profile(), 12_345);
            for i in 0..100_000 {
                let op = stream.next_op();
                let packed = PackedOp::pack(&op).unwrap_or_else(|| panic!("{app} op {i} packs"));
                assert_eq!(packed.unpack(), op, "{app} op {i}");
            }
        }
    }

    #[test]
    fn replay_equals_the_live_stream_across_the_tape_end() {
        for app in [App::Twolf, App::MpgDec, App::Art] {
            let tape = OpTape::record(app.profile(), 3, 10_000);
            assert_eq!(tape.len(), 10_000);
            assert_eq!(tape.end_state().emitted, 10_000);
            let mut replay = tape.source();
            let mut live = SyntheticStream::new(app.profile(), 3);
            for i in 0..25_000 {
                assert_eq!(replay.is_live(), i > 10_000, "{app} op {i}");
                assert_eq!(replay.next_op(), live.next_op(), "{app} op {i}");
            }
            assert_eq!(replay.name(), live.name());
        }
    }

    #[test]
    fn an_empty_tape_is_the_live_stream() {
        let tape = OpTape::record(App::Gzip.profile(), 9, 0);
        assert!(tape.is_empty());
        let mut replay = tape.source();
        let mut live = SyntheticStream::new(App::Gzip.profile(), 9);
        for _ in 0..5_000 {
            assert_eq!(replay.next_op(), live.next_op());
        }
        assert!(replay.is_live());
    }

    #[test]
    fn a_code_footprint_past_4_gib_ends_the_tape_early() {
        let mut profile = App::Bzip2.profile();
        profile.code_footprint = 64 << 30;
        let tape = OpTape::record(profile.clone(), 5, 50_000);
        assert!(tape.len() < 50_000, "no op left the 32-bit pc range");
        assert_eq!(tape.end_state().emitted, tape.len() as u64);
        let mut replay = tape.source();
        let mut live = SyntheticStream::new(profile, 5);
        for i in 0..50_000 {
            assert_eq!(replay.next_op(), live.next_op(), "op {i}");
        }
        assert!(replay.is_live());
    }

    #[test]
    fn unpackable_ops_are_refused() {
        let mut op = SyntheticStream::new(App::Gzip.profile(), 1).next_op();
        op.pc = 1 << 32;
        assert!(PackedOp::pack(&op).is_none());
        op.pc = 0;
        op.addr = Some(DATA_BASE - 8);
        assert!(PackedOp::pack(&op).is_none());
        op.addr = Some(DATA_BASE + (1 << 32));
        assert!(PackedOp::pack(&op).is_none());
    }
}
