//! Symbolicated backtraces and trap diagnostics.
//!
//! The execution tiers report traps as [`TrapCode`]s — one enum shared by the
//! interpreter and the CPU simulator so cross-tier differential tests can
//! compare exactly, carrying the spec test suite's `assert_trap` message for
//! each cause. The engine surface calls it [`TrapReason`].
//!
//! A trap also carries *where*: the engine walks the live activation stack at
//! trap time and builds a [`Backtrace`] of [`Frame`]s — function index, name
//! (from the module's `name` section when present), and the wasm bytecode
//! offset of the faulting or calling instruction. Interpreter frames report
//! their instruction pointer directly; compiled frames (baseline, optimizing,
//! and OSR'd activations alike) map the machine program counter back through
//! the code's source map. The tier a frame was executing in is recorded for
//! display but deliberately excluded from equality: the whole point of the
//! backtrace is that it is **bit-identical across every tier configuration**,
//! which the cross-tier differential tests assert directly.

use machine::inst::TrapCode;
use std::fmt;

/// Why execution trapped: the engine-surface name of [`TrapCode`].
pub use machine::inst::TrapCode as TrapReason;

/// The execution tier a backtrace frame was captured in: telemetry's
/// [`Tier`](telemetry::Tier), the one three-variant tier label the engine
/// has (`Opt` includes frames transferred mid-loop by on-stack replacement).
///
/// Carried on each [`Frame`] for display and telemetry, but excluded from
/// frame equality: tier choice never changes *where* a trap happens, and the
/// differential tests compare backtraces across tier configurations.
pub use telemetry::Tier as FrameTierTag;

/// One frame of a wasm backtrace.
///
/// Equality (and hashing) cover the *location* — function index, name, and
/// bytecode offset — but not [`Frame::tier`]: two runs of the same module
/// under different tier configurations must produce equal backtraces even
/// though the frames executed in different tiers.
#[derive(Debug, Clone)]
pub struct Frame {
    /// The function's index in the module function space.
    pub func_index: u32,
    /// The function's name from the module's `name` section, if present.
    pub name: Option<String>,
    /// The wasm bytecode offset (relative to the function body) of the
    /// trapping instruction (top frame) or of the call instruction the frame
    /// was suspended at (every other frame).
    pub offset: u32,
    /// The tier the frame was executing in. Diagnostic only — see the type
    /// docs for why equality ignores it.
    pub tier: FrameTierTag,
}

impl PartialEq for Frame {
    fn eq(&self, other: &Frame) -> bool {
        self.func_index == other.func_index
            && self.name == other.name
            && self.offset == other.offset
    }
}

impl Eq for Frame {}

impl std::hash::Hash for Frame {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.func_index.hash(state);
        self.name.hash(state);
        self.offset.hash(state);
    }
}

impl fmt::Display for Frame {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.name {
            Some(name) => write!(
                f,
                "{name} (func {}) @ +{:#06x} [{}]",
                self.func_index,
                self.offset,
                self.tier.label()
            ),
            None => write!(
                f,
                "func {} @ +{:#06x} [{}]",
                self.func_index,
                self.offset,
                self.tier.label()
            ),
        }
    }
}

/// A symbolicated wasm backtrace: frames from innermost (the trapping
/// function) to outermost (the called export).
///
/// Deep stacks — a stack-exhaustion trap sits `MAX_CALL_DEPTH` frames deep —
/// are truncated to a fixed head and tail ([`Backtrace::HEAD_FRAMES`] /
/// [`Backtrace::TAIL_FRAMES`]) with the omitted middle count preserved, so
/// the rendered trace is bounded no matter how deep the recursion was while
/// both the fault site and the entry path stay visible.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Backtrace {
    frames: Vec<Frame>,
    truncated: u32,
}

impl Backtrace {
    /// Innermost frames kept when a trace is truncated.
    pub const HEAD_FRAMES: usize = 16;
    /// Outermost frames kept when a trace is truncated.
    pub const TAIL_FRAMES: usize = 16;

    /// Builds a backtrace from innermost-first frames, truncating the middle
    /// when there are more than `HEAD_FRAMES + TAIL_FRAMES` of them.
    pub fn from_frames(mut frames: Vec<Frame>) -> Backtrace {
        let max = Backtrace::HEAD_FRAMES + Backtrace::TAIL_FRAMES;
        let truncated = frames.len().saturating_sub(max) as u32;
        if truncated > 0 {
            frames.drain(Backtrace::HEAD_FRAMES..frames.len() - Backtrace::TAIL_FRAMES);
        }
        Backtrace { frames, truncated }
    }

    /// The retained frames, innermost first. When the trace was truncated
    /// these are the head frames followed immediately by the tail frames.
    pub fn frames(&self) -> &[Frame] {
        &self.frames
    }

    /// How many middle frames were dropped by truncation (zero for full
    /// traces).
    pub fn truncated(&self) -> u32 {
        self.truncated
    }

    /// The true depth of the stack at trap time, counting dropped frames.
    pub fn depth(&self) -> usize {
        self.frames.len() + self.truncated as usize
    }

    /// Fraction of retained frames that carry a function name — the
    /// symbolication coverage the diagnostics harness reports. `1.0` for an
    /// empty trace (nothing needed symbolicating).
    pub fn symbolication_coverage(&self) -> f64 {
        if self.frames.is_empty() {
            return 1.0;
        }
        let named = self.frames.iter().filter(|f| f.name.is_some()).count();
        named as f64 / self.frames.len() as f64
    }
}

impl fmt::Display for Backtrace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, frame) in self.frames.iter().enumerate() {
            // Frame numbers stay true to the original stack across the
            // truncation gap.
            let shown = if self.truncated > 0 && i >= Backtrace::HEAD_FRAMES {
                i + self.truncated as usize
            } else {
                i
            };
            if self.truncated > 0 && i == Backtrace::HEAD_FRAMES {
                writeln!(f, "  ... {} frames omitted ...", self.truncated)?;
            }
            writeln!(f, "  #{shown} {frame}")?;
        }
        Ok(())
    }
}

/// Everything the engine knows about a trap: the classified reason plus the
/// symbolicated backtrace captured when it fired. Stored on the instance
/// (`Instance::last_trap`) so embedders can retrieve diagnostics after the
/// trapping call returns its `TrapCode`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrapInfo {
    /// Why execution trapped.
    pub reason: TrapCode,
    /// Where it trapped, innermost frame first.
    pub backtrace: Backtrace,
}

impl fmt::Display for TrapInfo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "wasm trap: {}", self.reason)?;
        write!(f, "{}", self.backtrace)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn frame(func_index: u32, name: Option<&str>, offset: u32, tier: FrameTierTag) -> Frame {
        Frame {
            func_index,
            name: name.map(str::to_string),
            offset,
            tier,
        }
    }

    #[test]
    fn frame_equality_ignores_tier() {
        let a = frame(3, Some("f"), 12, FrameTierTag::Interp);
        let b = frame(3, Some("f"), 12, FrameTierTag::Opt);
        assert_eq!(a, b);
        assert_ne!(a, frame(3, Some("f"), 13, FrameTierTag::Interp));
        assert_ne!(a, frame(3, None, 12, FrameTierTag::Interp));
    }

    #[test]
    fn short_traces_are_kept_whole() {
        let frames: Vec<Frame> =
            (0..5).map(|i| frame(i, None, i * 2, FrameTierTag::Interp)).collect();
        let bt = Backtrace::from_frames(frames.clone());
        assert_eq!(bt.frames(), &frames[..]);
        assert_eq!(bt.truncated(), 0);
        assert_eq!(bt.depth(), 5);
    }

    #[test]
    fn deep_traces_keep_head_and_tail() {
        let frames: Vec<Frame> =
            (0..100).map(|i| frame(i, None, i, FrameTierTag::Baseline)).collect();
        let bt = Backtrace::from_frames(frames);
        assert_eq!(bt.frames().len(), Backtrace::HEAD_FRAMES + Backtrace::TAIL_FRAMES);
        assert_eq!(bt.truncated(), 100 - 32);
        assert_eq!(bt.depth(), 100);
        // Head keeps the innermost frames, tail the outermost.
        assert_eq!(bt.frames()[0].func_index, 0);
        assert_eq!(bt.frames()[Backtrace::HEAD_FRAMES - 1].func_index, 15);
        assert_eq!(bt.frames()[Backtrace::HEAD_FRAMES].func_index, 84);
        assert_eq!(bt.frames().last().unwrap().func_index, 99);
        let rendered = bt.to_string();
        assert!(rendered.contains("... 68 frames omitted ..."));
        assert!(rendered.contains("#99 "));
    }

    #[test]
    fn symbolication_coverage_counts_named_frames() {
        let bt = Backtrace::from_frames(vec![
            frame(0, Some("a"), 0, FrameTierTag::Interp),
            frame(1, None, 4, FrameTierTag::Interp),
            frame(2, Some("c"), 8, FrameTierTag::Interp),
            frame(3, Some("d"), 2, FrameTierTag::Interp),
        ]);
        assert!((bt.symbolication_coverage() - 0.75).abs() < 1e-9);
        assert_eq!(Backtrace::default().symbolication_coverage(), 1.0);
    }

    #[test]
    fn trap_info_renders_reason_and_frames() {
        let info = TrapInfo {
            reason: TrapCode::DivisionByZero,
            backtrace: Backtrace::from_frames(vec![
                frame(2, Some("div"), 9, FrameTierTag::Opt),
                frame(1, Some("main"), 4, FrameTierTag::Interp),
            ]),
        };
        let text = info.to_string();
        assert!(text.starts_with("wasm trap: integer divide by zero"));
        assert!(text.contains("#0 div (func 2) @ +0x0009 [opt]"));
        assert!(text.contains("#1 main (func 1) @ +0x0004 [interp]"));
    }
}
