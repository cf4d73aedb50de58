//! The frame executor: runs a call tree of activations to completion.
//!
//! Interpreter frames and JIT frames share one value stack and call each
//! other freely: tier-up happens at function entry once a function gets hot
//! (`tierup`), and tier-down to the interpreter can happen when a probe
//! fires in JIT code. Both executors stop a frame with the same [`Exit`],
//! and `Engine::run_frames` hands each variant to one method; an activation
//! keeps its resume and call-site positions in its tier's own coordinates,
//! and only a trap's frame walk (`Engine::record_trap`) maps them to
//! bytecode offsets.

use crate::config::EngineConfig;
use crate::engine::{Engine, EngineInner};
use crate::instance::Instance;
use crate::pipeline::{self, CompileTier, CompiledModule};
use interp::probe::{FrameAccessor, ProbeSink};
use machine::cost::CycleCounter;
use machine::cpu::{CpuState, EpochSampler, ExecContext, Exit, Meter, OsrHook, ProbeExit};
use machine::inst::TrapCode;
use machine::values::{ValueTag, WasmValue};
use spc::CompiledFunction;
use wasm::types::FuncType;
use std::sync::atomic::Ordering;
use std::sync::Arc;

pub(crate) enum FrameTier {
    Interp,
    // The register file is boxed so interpreter activations stay small. The
    // compile tier is pinned per activation: a frame keeps running the code
    // it started in even if a higher tier publishes mid-activation.
    Jit {
        cpu: Box<CpuState>,
        tier: CompileTier,
    },
}

impl FrameTier {
    /// A JIT frame about to start `tier`'s code with a fresh register file.
    pub(crate) fn jit(tier: CompileTier) -> FrameTier {
        FrameTier::Jit {
            cpu: Box::new(CpuState::new()),
            tier,
        }
    }

    pub(crate) fn jit_tier(&self) -> Option<CompileTier> {
        match self {
            FrameTier::Interp => None,
            FrameTier::Jit { tier, .. } => Some(*tier),
        }
    }
}

pub(crate) struct Activation {
    pub(crate) func_index: u32,
    pub(crate) defined_index: u32,
    pub(crate) frame_base: usize,
    pub(crate) num_results: u32,
    pub(crate) frame_slots: u32,
    pub(crate) tier: FrameTier,
    /// Where the frame continues when it next runs. Like `site`, a position
    /// in the frame's tier's own coordinates: a bytecode offset in the
    /// interpreter, an instruction index into compiled code.
    pub(crate) resume: usize,
    /// One declined OSR poll is absorbed before the next can fire, so a
    /// loop whose transition is pending (or was refused) always makes a
    /// full iteration of progress between polls.
    pub(crate) osr_skip: bool,
    /// OSR permanently disabled for this activation (no entry for the loop,
    /// compile failure, or a frame that cannot grow to the optimized size).
    pub(crate) osr_off: bool,
    /// Position of the call instruction this frame last suspended at. This
    /// is the frame's position in a backtrace while a callee runs — and
    /// where traps raised *at the call boundary itself* (stack exhaustion,
    /// epoch interruption in `push_frame`, indirect-call dispatch failures,
    /// host errors) are attributed.
    pub(crate) site: usize,
}

impl Activation {
    /// Where the value-stack pointer stands while this frame runs, given
    /// where its interpreter operands end: a JIT frame addresses its slots
    /// statically, so its stack pointer covers the whole frame.
    fn sp(&self, operands_end: usize) -> usize {
        match self.tier {
            FrameTier::Interp => operands_end,
            FrameTier::Jit { .. } => self.frame_base + self.frame_slots as usize,
        }
    }
}

impl Engine {
    fn push_frame(
        &self,
        instance: &mut Instance,
        func_index: u32,
        frame_base: usize,
        init_locals_from_args: Option<&[WasmValue]>,
        depth: usize,
    ) -> Result<Activation, TrapCode> {
        let defined = func_index
            .checked_sub(instance.module().num_imported_funcs())
            .ok_or(TrapCode::HostError)?;
        let max_depth = self.0.config.limits.call_depth.unwrap_or(EngineConfig::MAX_CALL_DEPTH);
        if depth >= max_depth.min(EngineConfig::MAX_CALL_DEPTH) {
            return Err(TrapCode::StackOverflow);
        }
        // The call boundary is a preemption point in every tier: functions
        // that recurse instead of looping still observe the epoch.
        if let Some(deadline) = instance.epoch_deadline {
            if self.0.epoch.load(Ordering::Relaxed) >= deadline {
                return Err(TrapCode::Interrupted);
            }
        }
        let jit_tier = self.choose_tier(instance, defined)?;
        // The artifact is immutable and behind an `Arc`, so a cheap handle
        // clone sidesteps simultaneous-borrow gymnastics with the mutable
        // value stack below.
        let artifact = Arc::clone(&instance.artifact);
        let prepared = artifact.prepared(defined);
        let num_params = prepared.num_params as usize;
        let num_results = prepared.num_results;
        let frame_slots = match jit_tier {
            Some(tier) => artifact
                .code_for(defined, tier)
                .map(|c| c.frame_slots)
                .unwrap_or(prepared.frame_slots()),
            None => prepared.frame_slots(),
        };
        if !instance.values.reserve(frame_base + frame_slots as usize) {
            return Err(TrapCode::StackOverflow);
        }

        // Arguments (when provided by the host; Wasm callers already wrote
        // them into place), then default-initialized declared locals.
        if let Some(args) = init_locals_from_args {
            // Compiled code addresses its parameters by their static types
            // and the collector scans them by tag: arguments of other types
            // than the callee declares are a host error, like `call_host`'s
            // results.
            let params = prepared.local_types.iter().take(num_params).copied();
            if !args.iter().map(WasmValue::value_type).eq(params) {
                return Err(TrapCode::HostError);
            }
            for (i, arg) in args.iter().enumerate() {
                instance.values.write_value(frame_base + i, *arg);
            }
        } else {
            // Ensure parameter tags are present even if the caller's tier
            // does not store tags (e.g. a notags baseline configuration):
            // the callee's locals have static types.
            for (i, ty) in prepared.local_types.iter().enumerate().take(num_params) {
                instance
                    .values
                    .set_tag(frame_base + i, ValueTag::for_type(*ty));
            }
        }
        for (i, ty) in prepared.local_types.iter().enumerate().skip(num_params) {
            instance
                .values
                .write_value(frame_base + i, WasmValue::default_for(*ty));
        }

        let act = Activation {
            func_index,
            defined_index: defined,
            frame_base,
            num_results,
            frame_slots,
            tier: jit_tier.map_or(FrameTier::Interp, FrameTier::jit),
            resume: 0,
            osr_skip: false,
            osr_off: false,
            site: 0,
        };
        // An interpreter frame starts with no operands above its locals.
        instance
            .values
            .set_sp(act.sp(frame_base + prepared.num_locals() as usize));
        Ok(act)
    }

    /// Runs `func_index` on `args` in a frame at the bottom of the value
    /// stack and adds the cycles it spent to the instance's metrics.
    pub(crate) fn run_call(
        &self,
        instance: &mut Instance,
        func_index: u32,
        args: &[WasmValue],
    ) -> Result<(), TrapCode> {
        let (mut stack, mut trap_at, mut cycles) = (Vec::new(), None, CycleCounter::new());
        let result =
            self.run_frames(instance, func_index, args, &mut cycles, &mut stack, &mut trap_at);
        instance.metrics.exec_cycles += cycles.total();
        if let Err(code) = result {
            // The stack is still live here — the frame walk sees exactly the
            // activations that existed when the trap fired.
            self.record_trap(instance, &stack, code, trap_at);
        }
        result
    }

    fn run_frames(
        &self,
        instance: &mut Instance,
        func_index: u32,
        args: &[WasmValue],
        cycles: &mut CycleCounter,
        stack: &mut Vec<Activation>,
        trap_at: &mut Option<usize>,
    ) -> Result<(), TrapCode> {
        // The shared parts, bound once: the loop below reads them as
        // directly as it would an engine held by value.
        let EngineInner {
            interp,
            cpu,
            cost,
            config,
            epoch,
            telemetry,
            ..
        } = &*self.0;
        let root = self.push_frame(instance, func_index, 0, Some(args), 0)?;
        stack.push(root);
        // An owned handle to the shared artifact lets the executor borrow
        // module/code immutably while the instance's runtime state is
        // borrowed mutably.
        let artifact = Arc::clone(&instance.artifact);
        // Sampling-profiler state for this call tree: execution loops poll
        // the shared epoch at their existing check sites and report the
        // current (function, tier) once per tick — `last_sample_epoch` is
        // what makes a tick yield one sample, not one per site.
        let mut last_sample_epoch = epoch.load(Ordering::Relaxed);

        while let Some(act) = stack.last_mut() {
            let defined = act.defined_index;
            // Run the top frame until it exits, attributing the cycles of
            // optimizing-tier frames to their own metrics bucket.
            let cycles_before = cycles.total();
            let frame_tier = act.tier.jit_tier();
            let sample_func = act.func_index;
            let sample_tier = pipeline::tier_label(frame_tier);
            let (exit, compiled) = {
                let Instance {
                    memory,
                    globals,
                    tables,
                    values,
                    instrumentation,
                    fuel,
                    epoch_deadline,
                    osr_counts,
                    ..
                } = instance;
                let mut record_sample =
                    |_offset: u32| telemetry.record_sample(sample_func, sample_tier);
                let sampler = telemetry.is_enabled().then(|| EpochSampler {
                    epoch: epoch.as_ref(),
                    last: &mut last_sample_epoch,
                    record: &mut record_sample,
                });
                // The OSR hook rides the same fused meter-check sites.
                // Optimizing-tier frames never poll — they are already where
                // OSR would take them.
                let osr = match config.osr_threshold {
                    Some(threshold)
                        if !act.osr_off && frame_tier != Some(CompileTier::Opt) =>
                    {
                        Some(OsrHook {
                            plan: &artifact.prepared(defined).fuel,
                            count: &mut osr_counts[defined as usize],
                            threshold,
                            skip_once: &mut act.osr_skip,
                        })
                    }
                    _ => None,
                };
                let mut ctx = ExecContext {
                    values,
                    frame_base: act.frame_base,
                    memory: memory.as_mut(),
                    globals,
                    tables,
                    meter: Meter {
                        fuel: fuel.as_mut(),
                        epoch: epoch_deadline.map(|d| (epoch.as_ref(), d)),
                        sampler,
                        osr,
                    },
                };
                match &mut act.tier {
                    FrameTier::Interp => {
                        let exit = interp.run(
                            artifact.module(),
                            artifact.prepared(defined),
                            act.resume,
                            &mut ctx,
                            instrumentation,
                            cycles,
                        );
                        (exit, None)
                    }
                    FrameTier::Jit { cpu: cpu_state, tier } => {
                        let code = artifact
                            .code_for(defined, *tier)
                            .expect("JIT frame has compiled code");
                        (cpu.run(cpu_state, &code.code, act.resume, &mut ctx, cycles), Some(code))
                    }
                }
            };
            if frame_tier == Some(CompileTier::Opt) {
                instance.metrics.opt_exec_cycles += cycles.total() - cycles_before;
            }
            // Frame exits (returns, calls, probes) are sample points too, so
            // recursion-heavy code with no loop back-edges still attributes
            // its time.
            if telemetry.is_enabled() {
                let now = epoch.load(Ordering::Relaxed);
                if now != last_sample_epoch {
                    last_sample_epoch = now;
                    telemetry.record_sample(sample_func, sample_tier);
                }
            }

            match exit {
                Exit::Return => self.return_to_caller(instance, stack, cycles),
                Exit::Call { func_index: callee, site, resume } => {
                    // Where the caller stands in a backtrace while the callee
                    // runs, and where it continues once the callee returns.
                    act.site = site;
                    act.resume = resume;
                    self.dispatch_call(instance, &artifact, stack, callee, cost.call, cycles)?;
                }
                Exit::CallIndirect {
                    type_index,
                    table_index,
                    entry_index,
                    site,
                    resume,
                } => {
                    // Set the backtrace position before the dispatch checks:
                    // table-bounds, null-entry, and signature traps all
                    // belong to this `call_indirect` instruction.
                    act.site = site;
                    act.resume = resume;
                    let callee =
                        indirect_callee(instance, &artifact, type_index, table_index, entry_index)?;
                    let call = cost.call_indirect;
                    self.dispatch_call(instance, &artifact, stack, callee, call, cycles)?;
                }
                Exit::Probe { probe, resume } => {
                    act.resume = resume;
                    // Only compiled code exits for a probe: the interpreter
                    // fires its own.
                    if let Some(code) = compiled {
                        self.handle_jit_probe(instance, act, code, probe);
                    }
                }
                Exit::Osr { offset, resume } => {
                    act.resume = resume;
                    self.handle_osr(instance, act, offset);
                }
                Exit::Trap { code, at } => {
                    *trap_at = Some(at);
                    return Err(code);
                }
            }
        }
        Ok(())
    }

    /// Pops the top frame, which returned with its results at its base, and
    /// hands the value stack back to its caller (or to [`Engine::call`],
    /// which reads the results, when it was the root).
    fn return_to_caller(
        &self,
        instance: &mut Instance,
        stack: &mut Vec<Activation>,
        cycles: &mut CycleCounter,
    ) {
        let finished = stack.pop().expect("active frame");
        let result_end = finished.frame_base + finished.num_results as usize;
        let frame_end = finished.frame_base + finished.frame_slots as usize;
        instance.values.clear_range(result_end, frame_end.min(instance.values.capacity()));
        let sp = match stack.last() {
            Some(parent) => {
                cycles.charge(self.0.cost.ret);
                parent.sp(result_end)
            }
            None => result_end,
        };
        instance.values.set_sp(sp);
    }

    /// Transfers control from the top frame, suspended at its call site, to
    /// `callee` — everything a call instruction does once its callee is
    /// known. The callee's frame starts where the caller's call-site
    /// metadata says (compiled code) or at the arguments on top of the stack
    /// (the interpreter); `cost` is charged; then a host function runs in
    /// place and the caller's stack pointer is restored, and a Wasm function
    /// gets a new frame.
    fn dispatch_call(
        &self,
        instance: &mut Instance,
        artifact: &CompiledModule,
        stack: &mut Vec<Activation>,
        callee: u32,
        cost: u64,
        cycles: &mut CycleCounter,
    ) -> Result<(), TrapCode> {
        let sig = artifact.module().func_type(callee).ok_or(TrapCode::HostError)?;
        let caller = stack.last().expect("a frame made the call");
        let callee_base = match caller.tier.jit_tier() {
            Some(tier) => {
                let site = artifact
                    .code_for(caller.defined_index, tier)
                    .and_then(|c| c.call_sites.get(&caller.site))
                    .ok_or(TrapCode::HostError)?;
                caller.frame_base + site.callee_slot_base as usize
            }
            None => instance.values.sp() - sig.params.len(),
        };
        // Where the caller's stack pointer stands once a host callee has
        // returned in place: on the results, in an interpreter frame.
        let sp_after_host = caller.sp(callee_base + sig.results.len());
        cycles.charge(cost);
        self.maybe_collect(instance, stack);
        if artifact.module().is_imported_func(callee) {
            self.call_host(instance, callee, sig, callee_base, cycles)?;
            instance.values.set_sp(sp_after_host);
        } else {
            let child = self.push_frame(instance, callee, callee_base, None, stack.len())?;
            stack.push(child);
        }
        Ok(())
    }

    /// Handles a probe that fired in `code`, the compiled code the top frame
    /// runs, which the caller has already pointed past the probe
    /// instruction. A probe that needs its site names the instruction's
    /// position, and `code`'s probe-site table maps it to the bytecode
    /// offset and operand height.
    fn handle_jit_probe(
        &self,
        instance: &mut Instance,
        act: &mut Activation,
        code: &CompiledFunction,
        probe: ProbeExit,
    ) {
        let func_index = act.func_index;
        let probed = |site: usize| {
            code.probe_sites
                .get(&site)
                .map(|m| (m.offset, m.operand_height))
                .unwrap_or((0, 0))
        };
        match probe {
            ProbeExit::Counter { counter_id } => {
                instance.instrumentation.increment_counter(counter_id);
            }
            ProbeExit::TosValue { site, bits } => {
                // The value's type is whatever the top of stack was; the
                // branch monitor only needs zero/non-zero, so i64 suffices.
                instance.instrumentation.fire_with_value(
                    func_index,
                    probed(site).0,
                    WasmValue::I64(bits as i64),
                );
            }
            ProbeExit::Frame { site } => {
                let (offset, operand_height) = probed(site);
                let num_locals =
                    instance.artifact.prepared(act.defined_index).num_locals() as usize;
                let sp_before = instance.values.sp();
                instance
                    .values
                    .set_sp(act.frame_base + num_locals + operand_height as usize);
                if self.0.config.deopt_on_probe {
                    // Tier-down: the frame state is flushed at runtime probes,
                    // so the interpreter can take over in place. The probe is
                    // NOT fired here — the interpreter will fire it when it
                    // re-executes the probed instruction.
                    act.tier = FrameTier::Interp;
                    act.resume = offset as usize;
                    return;
                }
                let Instance {
                    values,
                    instrumentation,
                    ..
                } = instance;
                let mut accessor =
                    FrameAccessor::new(values, act.frame_base, num_locals, func_index, offset);
                instrumentation.fire(&mut accessor);
                instance.values.set_sp(sp_before);
            }
        }
    }

    /// Runs imported function `callee` of type `sig` in place: its
    /// arguments are read from `callee_base` and its results written there.
    fn call_host(
        &self,
        instance: &mut Instance,
        callee: u32,
        sig: &FuncType,
        callee_base: usize,
        cycles: &mut CycleCounter,
    ) -> Result<(), TrapCode> {
        cycles.charge(self.0.cost.host_call);
        let args = instance.read_values(callee_base, &sig.params);
        let Instance { host_funcs, host_slots, heap, .. } = instance;
        let f = host_slots
            .get(callee as usize)
            .and_then(|&slot| host_funcs.get_mut(slot))
            .ok_or(TrapCode::HostError)?;
        let results = f(heap, &args)?;
        // Both compilers know the result slots statically by the import's
        // signature and the collector scans them by tag: a host function that
        // returns other types than it was declared with is a host error.
        if !results.iter().map(WasmValue::value_type).eq(sig.results.iter().copied()) {
            return Err(TrapCode::HostError);
        }
        for (i, value) in results.iter().enumerate() {
            instance.values.write_value(callee_base + i, *value);
        }
        Ok(())
    }
}

/// The function a `call_indirect` of `type_index` through entry
/// `entry_index` of table `table_index` calls.
///
/// # Errors
///
/// The table-bounds, null-entry and signature traps of the instruction.
fn indirect_callee(
    instance: &Instance,
    artifact: &CompiledModule,
    type_index: u32,
    table_index: u32,
    entry_index: u32,
) -> Result<u32, TrapCode> {
    let table = instance
        .tables
        .get(table_index as usize)
        .ok_or(TrapCode::TableOutOfBounds)?;
    let callee = table
        .get(entry_index)?
        .ok_or(TrapCode::NullTableEntry)?;
    let module = artifact.module();
    let expected = module
        .types
        .get(type_index as usize)
        .ok_or(TrapCode::IndirectCallTypeMismatch)?;
    if module.func_type(callee) != Some(expected) {
        return Err(TrapCode::IndirectCallTypeMismatch);
    }
    Ok(callee)
}
