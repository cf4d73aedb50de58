//! Tier choice and tier-up: the tier a new activation runs in, the compiles
//! that run on the executing thread (lazy first call, tier-up, promotion,
//! OSR poll), on-stack replacement into optimized code, and how a published
//! compile is accounted to an instance's [`RunMetrics`].

use crate::engine::Engine;
use crate::exec::{Activation, FrameTier};
use crate::instance::{Instance, RunMetrics};
use crate::pipeline::{self, CompileTier, CompiledModule};
use machine::inst::TrapCode;
use telemetry::EventKind;

/// Whether a compilation ran at instantiation time or after it, which
/// decides the [`RunMetrics`] bucket its wall-clock time lands in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum CompileTiming {
    Eager,
    Deferred,
}

impl Engine {
    /// Decides the tier for a new activation of `defined`: counts the call,
    /// picks the tier the schedule wants at that count, and compiles it here
    /// (a lazy first call, a tier-up or a promotion) unless it is published.
    pub(crate) fn choose_tier(
        &self,
        instance: &mut Instance,
        defined: u32,
    ) -> Result<Option<CompileTier>, TrapCode> {
        let calls = instance.call_counts[defined as usize].saturating_add(1);
        instance.call_counts[defined as usize] = calls;
        let Some(want_tier) = self.0.config.schedule.tier_for_call(calls) else {
            return Ok(None);
        };
        if instance.artifact.artifact_for(defined, want_tier).is_none() {
            self.ensure_compiled(instance, defined, want_tier)
                .map_err(|_| TrapCode::HostError)?;
        }
        Ok(Some(want_tier))
    }

    /// Compiles `defined` for `tier` in the execution thread unless it is
    /// already published. Metrics follow the publisher: the compile is
    /// accounted to this instance only when this call installed the code —
    /// when another instance sharing the artifact got there first (the slot
    /// was full, or it won the publication race and this call's code was
    /// dropped), nothing is accounted here.
    fn ensure_compiled(
        &self,
        instance: &mut Instance,
        defined: u32,
        tier: CompileTier,
    ) -> Result<(), spc::CompileError> {
        let func_index = instance.artifact.module().defined_to_func_index(defined);
        let probes = instance.instrumentation.sites_for(func_index);
        let profile = match tier {
            CompileTier::Opt => instance.instrumentation.func_profile(func_index),
            CompileTier::Baseline => None,
        };
        let published = pipeline::compile_slot(
            &self.0.telemetry,
            &self.0.config,
            &instance.artifact,
            defined,
            tier,
            &probes,
            profile,
        )?;
        if published {
            let timing = CompileTiming::Deferred;
            account_compile(&mut instance.metrics, &instance.artifact, defined, tier, timing);
            self.0.telemetry.emit(EventKind::TierUp {
                func: func_index,
                tier: pipeline::tier_label(Some(tier)),
            });
        }
        Ok(())
    }

    /// Handles an OSR poll from a hot loop in an interpreter or baseline
    /// frame: when optimizing-tier code for the function is published and
    /// has an entry stub for this loop, the running activation is
    /// transferred to it mid-loop; otherwise it is compiled here, on the
    /// polling thread, and the current tier resumes at the check site (which
    /// consumed nothing, so re-executing it is correct — and the loop-head
    /// check of the optimized code runs instead after a transfer, keeping
    /// fuel and epoch accounting bit-identical to a never-OSR run). The
    /// caller has already pointed the frame back at that check site.
    /// Returns whether the frame now runs optimized code, on a register file
    /// the caller must zero.
    pub(crate) fn handle_osr<'a>(
        &self,
        instance: &mut Instance,
        artifact: &'a CompiledModule,
        act: &mut Activation<'a>,
        offset: u32,
    ) -> bool {
        let defined = act.defined_index;
        let Some(code) = artifact.code_for(defined, CompileTier::Opt) else {
            // Not compiled yet: compile it and guarantee a full loop
            // iteration of progress before the next poll.
            act.osr_skip = true;
            if self.ensure_compiled(instance, defined, CompileTier::Opt).is_err() {
                // The optimizing compiler rejected the function; the
                // current tier is always correct, so just stop polling.
                act.osr_off = true;
            }
            return false;
        };
        let (Some(&entry), frame_slots) = (code.osr_entries.get(&offset), code.frame_slots) else {
            // No stub for this loop (its header was optimized away, or the
            // code predates OSR in a shared artifact).
            act.osr_off = true;
            return false;
        };
        let frame_end = act.frame_base + frame_slots as usize;
        if !instance.values.reserve(frame_end) {
            // The optimized frame does not fit where this activation sits;
            // keep running the current tier rather than overflowing.
            act.osr_off = true;
            return false;
        }
        // The frame only grows (the allocator reserves the interpreter
        // operand region whenever OSR entries exist). Clear the newly
        // exposed slots so the GC's tag scan never reads stale tags, then
        // hand the frame to the entry stub, which rebuilds the loop
        // header's state from the interpreter-layout slots below.
        let sp_before = instance.values.sp();
        if frame_end > sp_before {
            instance.values.clear_range(sp_before, frame_end);
        }
        instance.values.set_sp(frame_end);
        act.frame_slots = frame_slots;
        act.tier = FrameTier::Jit { tier: CompileTier::Opt, code };
        act.resume = entry;
        self.0.telemetry.emit(EventKind::OsrEnter { func: act.func_index, offset });
        true
    }
}

/// Attributes the published compilation of `defined` in `tier` to an
/// instance's metrics, in the bucket matching when and in which tier it ran.
pub(crate) fn account_compile(
    metrics: &mut RunMetrics,
    artifact: &CompiledModule,
    defined: u32,
    tier: CompileTier,
    timing: CompileTiming,
) {
    let compiled = artifact.artifact_for(defined, tier).expect("published code has an artifact");
    match (tier, timing) {
        (CompileTier::Opt, _) => metrics.opt_compile_wall += compiled.compile_wall,
        (CompileTier::Baseline, CompileTiming::Eager) => {
            metrics.compile_wall += compiled.compile_wall
        }
        (CompileTier::Baseline, CompileTiming::Deferred) => {
            metrics.lazy_compile_wall += compiled.compile_wall
        }
    }
    if timing == CompileTiming::Deferred {
        metrics.tiered_up_functions += 1;
    }
    metrics.compiled_wasm_bytes += compiled.function.stats.wasm_bytes as u64;
    metrics.compiled_machine_bytes += compiled.machine_bytes;
    metrics.tag_stores_emitted += compiled.function.stats.tag_stores as u64;
    metrics.functions_compiled += 1;
}
