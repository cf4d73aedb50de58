//! The typed event model: everything the engine, pipeline, cache, pool, and
//! serving layers can say about themselves, as small `Copy` payloads.
//!
//! Events deliberately use only scalar fields and `&'static str` references
//! so a [`TraceEvent`](crate::TraceEvent) fits in a couple of machine words
//! and pushing one into a ring buffer is a handful of stores — no
//! allocation, no formatting, no locks on the producer side. Formatting
//! happens once, at export time ([`crate::trace`]).

/// The execution tier an event refers to, in the engine's promotion order.
///
/// A standalone copy of the engine's tier notions (interpreter frames plus
/// the two `CompileTier`s) so this crate stays a leaf dependency.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Tier {
    /// The in-place interpreter (tier 0).
    Interp,
    /// The single-pass baseline compiler (tier 1).
    Baseline,
    /// The SSA optimizing compiler (tier 2).
    Opt,
}

impl Tier {
    /// A short, stable label for reports and trace names.
    pub fn label(self) -> &'static str {
        match self {
            Tier::Interp => "interp",
            Tier::Baseline => "baseline",
            Tier::Opt => "opt",
        }
    }
}

/// The macro-assembler backend a compilation event ran through — a leaf-crate
/// mirror of the machine crate's `CodeBackend`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Backend {
    /// The virtual-ISA simulator backend.
    VirtualIsa,
    /// The real x86-64 byte emitter.
    X64,
}

impl Backend {
    /// A short, stable label for reports and trace names.
    pub fn label(self) -> &'static str {
        match self {
            Backend::VirtualIsa => "virt",
            Backend::X64 => "x64",
        }
    }
}

/// One structured event. All payloads are `Copy`; durations and sizes are
/// carried inline so the consumer never has to correlate ring positions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A compilation of one function began on this thread.
    CompileStart {
        /// Function index (module function space).
        func: u32,
        /// Tier being compiled for.
        tier: Tier,
        /// Backend emitting the code.
        backend: Backend,
    },
    /// A compilation finished; the matching [`EventKind::CompileStart`] is
    /// `dur_us` earlier on the same thread.
    CompileEnd {
        /// Function index (module function space).
        func: u32,
        /// Tier compiled for.
        tier: Tier,
        /// Backend that emitted the code.
        backend: Backend,
        /// Wasm bytes of the function body.
        wasm_bytes: u32,
        /// Machine-code bytes produced.
        machine_bytes: u32,
        /// Compilation wall time in microseconds.
        dur_us: u64,
    },
    /// A code-cache lookup at instantiation.
    CacheLookup {
        /// True for a hit (artifact reused), false for a miss.
        hit: bool,
    },
    /// Newly-compiled code for a function was published into the shared
    /// artifact (a tier-up/lazy compilation became visible to executions).
    TierUp {
        /// Function index (module function space).
        func: u32,
        /// The tier the published code belongs to.
        tier: Tier,
    },
    /// Execution trapped. Carries the innermost backtrace frame so the
    /// timeline pinpoints the fault without a side channel to the full
    /// diagnostics (which live on the instance); payloads stay `Copy`.
    Trap {
        /// The spec-style trap message (`TrapCode::wast_message`).
        reason: &'static str,
        /// Function index of the innermost (faulting) frame.
        func: u32,
        /// Wasm bytecode offset of the faulting instruction within it.
        offset: u32,
        /// True activation-stack depth at trap time (counting frames a
        /// truncated backtrace dropped).
        depth: u32,
    },
    /// A fuel budget ran out (`OutOfFuel`).
    FuelExhausted,
    /// An epoch deadline preempted execution (`Interrupted`).
    EpochInterrupt,
    /// An instance-pool checkout.
    PoolCheckout {
        /// The pool's label (the serving layer sets it to the app index).
        app: u32,
        /// True for a recycled instance, false for a cold instantiation.
        warm: bool,
    },
    /// A request entered a worker mailbox.
    ServeEnqueue {
        /// Position of the request in its batch.
        request: u32,
        /// Target app index.
        app: u32,
    },
    /// A worker started executing a request.
    ServeStart {
        /// Position of the request in its batch.
        request: u32,
        /// Target app index.
        app: u32,
    },
    /// A worker finished a request; the matching [`EventKind::ServeStart`]
    /// is `dur_us` earlier on the same thread.
    ServeFinish {
        /// Position of the request in its batch.
        request: u32,
        /// Target app index.
        app: u32,
        /// True if the request returned normally.
        ok: bool,
        /// Service wall time in microseconds.
        dur_us: u64,
    },
    /// A running activation was transferred mid-loop into optimizing-tier
    /// code (on-stack replacement).
    OsrEnter {
        /// Function index (module function space).
        func: u32,
        /// Bytecode offset of the loop-body start the frame entered at.
        offset: u32,
    },
    /// The sampling profiler observed an activation (also aggregated in
    /// [`crate::Profiler`]; the ring copy keeps samples on the timeline).
    Sample {
        /// Function index of the sampled activation.
        func: u32,
        /// Tier the activation was executing in.
        tier: Tier,
    },
}

/// One timestamped event as stored in a ring buffer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Microseconds since the sink's creation (monotonic).
    pub t_us: u64,
    /// The typed payload.
    pub kind: EventKind,
}
