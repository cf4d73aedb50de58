//! The per-`run` probe hoist stays flexible.
//!
//! `Interpreter::run` asks the sink whether the function has any probes as it
//! enters the frame and after every firing, and skips the per-instruction
//! `has_probe` query while the answer is no. A sink whose `fire` attaches and
//! detaches probes — here from inside a callee — must still see every probe
//! it attached fire, and must not be asked about instructions of a function
//! it disclaimed.

use interp::{prepare, FrameAccessor, Interpreter, NoProbes, ProbeSink};
use machine::cost::{CostModel, CycleCounter};
use machine::cpu::{ExecContext, Exit, Meter};
use machine::values::ValueStack;
use std::cell::RefCell;
use std::collections::BTreeSet;
use wasm::builder::{CodeBuilder, ModuleBuilder};
use wasm::types::FuncType;
use wasm::validate::validate;

const CALLEE: u32 = 0;
const CALLER: u32 = 1;

/// Starts with one probe, on the callee's first instruction. Firing it
/// detaches it and attaches a probe to the caller's second `nop`.
struct LateSink {
    attached: BTreeSet<(u32, u32)>,
    func_queries: RefCell<Vec<u32>>,
    site_queries: RefCell<Vec<(u32, u32)>>,
    fired: Vec<(u32, u32)>,
}

impl ProbeSink for LateSink {
    fn has_probes_in(&self, func_index: u32) -> bool {
        self.func_queries.borrow_mut().push(func_index);
        self.attached.iter().any(|&(func, _)| func == func_index)
    }

    fn has_probe(&self, func_index: u32, offset: u32) -> bool {
        self.site_queries.borrow_mut().push((func_index, offset));
        self.attached.contains(&(func_index, offset))
    }

    fn fire(&mut self, frame: &mut FrameAccessor<'_>) {
        let site = (frame.func_index(), frame.offset());
        self.fired.push(site);
        if site == (CALLEE, 0) {
            self.attached.remove(&site);
            self.attached.insert((CALLER, 3));
        }
    }
}

#[test]
fn a_probe_attached_by_a_callees_firing_fires_when_the_caller_resumes() {
    // callee: nop ; nop ; end          caller: call 0 ; nop ; nop ; end
    //         0     1     2                    0        2     3     4
    let mut b = ModuleBuilder::new();
    let mut body = CodeBuilder::new();
    body.nop().nop();
    assert_eq!(b.add_func(FuncType::new(vec![], vec![]), vec![], body.finish()), CALLEE);
    let mut body = CodeBuilder::new();
    body.call(CALLEE).nop().nop();
    assert_eq!(b.add_func(FuncType::new(vec![], vec![]), vec![], body.finish()), CALLER);
    let module = b.finish();
    let info = validate(&module).expect("valid module");
    let callee = prepare(&module, CALLEE, &info.funcs[0]).expect("prepare");
    let caller = prepare(&module, CALLER, &info.funcs[1]).expect("prepare");

    let cost = CostModel::default();
    let interp = Interpreter::new(cost.clone());
    let run = |func, start_ip, sink: &mut dyn ProbeSink| {
        let mut values = ValueStack::with_capacity(16);
        let (mut globals, mut tables) = (vec![], vec![]);
        let mut cycles = CycleCounter::new();
        let mut ctx = ExecContext {
            values: &mut values,
            frame_base: 0,
            memory: None,
            globals: &mut globals,
            tables: &mut tables,
            meter: Meter::off(),
        };
        let exit = interp.run(&module, func, start_ip, &mut ctx, sink, &mut cycles);
        (exit, cycles.total())
    };

    let mut sink = LateSink {
        attached: BTreeSet::from([(CALLEE, 0)]),
        func_queries: RefCell::new(vec![]),
        site_queries: RefCell::new(vec![]),
        fired: vec![],
    };
    let mut probed_cycles = 0;
    let (exit, cycles) = run(&caller, 0, &mut sink);
    assert_eq!(exit, Exit::Call { func_index: CALLEE, site: 0, resume: 2 });
    probed_cycles += cycles;
    let (exit, cycles) = run(&callee, 0, &mut sink);
    assert_eq!(exit, Exit::Return);
    probed_cycles += cycles;
    let (exit, cycles) = run(&caller, 2, &mut sink);
    assert_eq!(exit, Exit::Return);
    probed_cycles += cycles;

    assert_eq!(sink.fired, [(CALLEE, 0), (CALLER, 3)]);
    // Asked on entering each frame and after each of the two firings.
    assert_eq!(*sink.func_queries.borrow(), [CALLER, CALLEE, CALLEE, CALLER, CALLER]);
    // Never asked about the caller before the probe was attached, nor about
    // the callee once its only probe was gone.
    assert_eq!(
        *sink.site_queries.borrow(),
        [(CALLEE, 0), (CALLER, 2), (CALLER, 3), (CALLER, 4)]
    );

    // The two firings are all the probes cost.
    let mut plain_cycles = 0;
    for (func, start_ip) in [(&caller, 0), (&callee, 0), (&caller, 2)] {
        plain_cycles += run(func, start_ip, &mut NoProbes).1;
    }
    assert_eq!(probed_cycles, plain_cycles + 2 * cost.probe_runtime);
}
