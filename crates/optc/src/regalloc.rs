//! Linear-scan register allocation on SSA form, over the full machine
//! register file, with lifetime holes — the scheme of Wimmer & Franz,
//! "Linear Scan Register Allocation on SSA Form" (CGO 2010), without
//! interval splitting.
//!
//! Every SSA value gets one location — a register or a frame slot — for its
//! *entire* lifetime. Liveness is one backward walk per value, from the
//! blocks that read it to the block that defines it; the defining block and
//! the blocks that walk passes through are the value's live *segments*, and
//! the positions between them in the block layout are its *holes*. A
//! register is free for a value when no value holding it is live at any
//! position the new one is, so a value can live in another's hole. When
//! every register of the bank is taken, the value that ends furthest away
//! gives up its register and moves to a slot, or the new value does. Three
//! rules keep a loop-carried value in one register all the way round the
//! loop, so its back edge needs no move — which is where the optimizing
//! tier's cycle win over the baseline comes from:
//!
//! * **Same-position reuse.** A definition may take the register of an
//!   operand whose segment ends at that very instruction: every lowering
//!   reads all its operands before it writes its result (DESIGN.md, "The
//!   `Masm` contract"). Nothing *else* that ends where a value starts gives
//!   its register up. The parameters of one block and the results of one
//!   call start at one position, and an unused parameter also ends there,
//!   but no instruction reads one to make the other; sharing would send two
//!   edge moves into one register.
//! * **Two-way hints.** A block parameter prefers the register of its first
//!   incoming argument, and an argument on a back edge (to a block laid out
//!   no later than the edge's source) prefers its parameter's register.
//! * **Holes.** A value read only after a loop — an accumulator returned on
//!   the exit path — is not live through the loop's body past its last read
//!   there, so the body's new value can take its register.
//!
//! The register file is split between allocatable registers and a small
//! reserved scratch set the emitter uses to materialize constants, shuttle
//! spilled operands, and break parallel-move cycles:
//!
//! * GPRs: `r1..=r11` allocatable; `r0`, `r12`, `r13` reserved (the same
//!   `r0` the baseline reserves, plus two operand scratches — a `select`
//!   can need three simultaneous memory operands).
//! * FPRs: `f1..=f13` allocatable; `f0`, `f14`, `f15` reserved.
//!
//! Reference-typed values are deliberately never allocated to registers:
//! they live in tagged frame slots so the garbage collector's tag scan sees
//! every root without stackmaps (see DESIGN.md, "The optimizing tier").

use crate::ir::{BlockId, FuncIr, Inst, Node, ValueId};
use machine::reg::{AnyReg, FReg, Reg};

/// The general-purpose scratch used to shuttle slot values (the same
/// register the baseline reserves).
pub const SCRATCH_GPR: Reg = Reg(0);
/// Second general-purpose scratch (second memory operand of an
/// instruction).
pub const SCRATCH2_GPR: Reg = Reg(12);
/// Third general-purpose scratch (third memory operand of a `select`; also
/// the parallel-move cycle breaker).
pub const SCRATCH3_GPR: Reg = Reg(13);
/// The floating-point shuttle scratch.
pub const SCRATCH_FPR: FReg = FReg(0);
/// Second floating-point scratch.
pub const SCRATCH2_FPR: FReg = FReg(14);
/// Floating-point parallel-move cycle breaker.
pub const SCRATCH3_FPR: FReg = FReg(15);

/// Where a value lives for its whole lifetime.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Loc {
    /// A machine register.
    Reg(AnyReg),
    /// A frame slot (relative to the frame base).
    Slot(u32),
}

/// The allocation result.
#[derive(Debug, Clone)]
pub struct Allocation {
    /// Location of every allocated (live, non-constant) value, indexed by
    /// [`ValueId`]; `None` for the rest.
    pub locs: Vec<Option<Loc>>,
    /// First frame slot of the spill area.
    pub spill_base: u32,
    /// Number of spill slots used.
    pub num_spill_slots: u32,
}

impl Allocation {
    /// The location of `v` (after resolution), if it has one. Constants and
    /// dead values have none.
    pub fn loc(&self, ir: &FuncIr, v: ValueId) -> Option<Loc> {
        self.locs[ir.resolve(v).index()]
    }
}

/// The positions `[start, end]` (both included) of one stretch of layout
/// where a value is live.
type Segment = (u32, u32);

#[derive(Debug, Clone, Copy)]
struct Interval {
    value: ValueId,
    start: u32,
    end: u32,
    float: bool,
    reference: bool,
    /// Entry-block parameter index, for the home-slot optimization.
    entry_param: Option<u32>,
    /// The value's segments the scan has not passed: `[from, to)` in the
    /// segment table, in position order. The scan moves `from` on as it
    /// goes, since no later value starts before the current one.
    segs: (u32, u32),
}

/// "None" in the dense `u32` tables below.
const NONE: u32 = u32::MAX;

/// What the allocator knows about one laid-out block, in one place so the
/// liveness walks touch one cache line per block.
#[derive(Debug, Clone, Copy)]
struct Blk {
    /// Position of the parameters.
    start: u32,
    /// Position of the terminator.
    end: u32,
    /// The value whose walk last passed through the block.
    visited: u32,
    /// The value the walk last found live out of the block.
    live_out: u32,
    /// The block's index in the layout.
    index: u32,
}

/// What the allocator records about one value while it walks the layout.
#[derive(Debug, Clone, Copy)]
struct Range {
    /// Defining position; [`NONE`] for values no laid-out block defines
    /// (constants, aliased values, dead code).
    start: u32,
    /// Last position the value is needed at.
    end: u32,
    /// Defining block ([`NONE`] like `start`).
    def_block: u32,
    /// Last position the defining block reads the value at (`start` if it
    /// reads it nowhere).
    def_last: u32,
    /// Entry-block parameter index, for the home-slot optimization.
    entry_param: Option<u32>,
    /// Whether any instruction or terminator reads the value.
    used: bool,
    /// Head of the value's chain in [`Ranges::exposed`], or [`NONE`].
    exposed: u32,
    /// The value's segments in the segment table, `[from, to)`.
    segs: (u32, u32),
}

/// The per-value table plus the list of upward-exposed uses the liveness
/// walk starts from.
struct Ranges<'a> {
    ir: &'a FuncIr,
    of: Vec<Range>,
    /// Every `(value, block)` where the block reads the value but does not
    /// define it, as `(block, next link of the same value, last position
    /// the block reads it at)`.
    exposed: Vec<(BlockId, u32, u32)>,
}

impl Ranges<'_> {
    /// Records the definition of `v` at position `p` of block `b`.
    fn define(&mut self, v: ValueId, b: BlockId, p: u32) {
        let range = &mut self.of[v.index()];
        let allocatable = self.ir.resolve(v) == v && !matches!(self.ir.nodes[v.index()], Node::Const(_));
        if allocatable && range.start == NONE {
            (range.start, range.end, range.def_block, range.def_last) = (p, p, b.0, p);
        }
    }

    /// Records a read of `v` at position `p` of block `b`.
    fn read(&mut self, v: ValueId, b: BlockId, p: u32) {
        let v = self.ir.resolve(v);
        if matches!(self.ir.nodes[v.index()], Node::Const(_)) {
            return;
        }
        let range = &mut self.of[v.index()];
        range.used = true;
        range.end = range.end.max(p);
        if range.def_block == b.0 {
            range.def_last = range.def_last.max(p);
            return;
        }
        // A block's reads are recorded together, so the head of the chain
        // tells whether this block is already on it.
        match self.exposed.get_mut(range.exposed as usize) {
            Some(head) if head.0 == b => head.2 = p,
            _ => {
                self.exposed.push((b, range.exposed, p));
                range.exposed = self.exposed.len() as u32 - 1;
            }
        }
    }
}

/// The spill slots handed out so far and the last position each is occupied
/// to. A spill takes the lowest-index slot that is free before it starts, so
/// slots are reused as tightly as a scan of every slot would reuse them —
/// but a spill does not cost a scan: the slots' ends sit in the leaves of a
/// min-tree, where each node holds the smallest end below it, and the lowest
/// free slot is one walk from the root. (An evicted value's spill asks with
/// its own, earlier start, so the answer is not monotone in time.)
#[derive(Debug, Default)]
struct SpillSlots {
    /// The tree, in heap order from index 1; the leaves are the second half,
    /// one per slot, and leaves past the last slot hold [`NONE`], which no
    /// start exceeds.
    tree: Vec<u32>,
    /// Slots handed out.
    len: usize,
}

impl SpillSlots {
    /// The number of slots handed out.
    fn len(&self) -> usize {
        self.len
    }

    /// Occupies, until `end`, the lowest-index slot whose occupant ended
    /// before `start` — or a new slot if none has — and returns its index.
    fn take(&mut self, start: u32, end: u32) -> usize {
        let leaves = self.tree.len() / 2;
        let slot = if leaves > 0 && self.tree[1] < start {
            let mut node = 1;
            while node < leaves {
                node = if self.tree[2 * node] < start { 2 * node } else { 2 * node + 1 };
            }
            node - leaves
        } else {
            if self.len == leaves {
                self.grow();
            }
            self.len += 1;
            self.len - 1
        };
        let leaves = self.tree.len() / 2;
        let mut node = leaves + slot;
        self.tree[node] = end;
        while node > 1 {
            node /= 2;
            self.tree[node] = self.tree[2 * node].min(self.tree[2 * node + 1]);
        }
        slot
    }

    /// Doubles the number of leaves, keeping every slot's end.
    fn grow(&mut self) {
        let old = self.tree.len() / 2;
        let leaves = (2 * old).max(1);
        let mut tree = vec![NONE; 2 * leaves];
        tree[leaves..leaves + old].copy_from_slice(&self.tree[old..]);
        for node in (1..leaves).rev() {
            tree[node] = tree[2 * node].min(tree[2 * node + 1]);
        }
        self.tree = tree;
    }
}

/// A register's index in the scan's per-register tables and its bit in
/// the bank masks: `r1..=r11` are 1–11, `f1..=f13` 17–29.
fn reg_index(r: AnyReg) -> usize {
    match r {
        AnyReg::Gpr(r) => r.index(),
        AnyReg::Fpr(f) => 16 + f.index(),
    }
}

/// The register with a [`reg_index`].
fn index_reg(index: usize) -> AnyReg {
    match index {
        0..=15 => AnyReg::Gpr(Reg(index as u8)),
        _ => AnyReg::Fpr(FReg(index as u8 - 16)),
    }
}

/// The allocatable registers of each bank, as [`reg_index`] bits.
const GPR_BITS: u32 = 0b1111_1111_1110;
const FPR_BITS: u32 = 0b11_1111_1111_1110 << 16;

/// A value in a register that the scan has not seen end, with the segment
/// it is in or will next be in.
#[derive(Debug, Clone, Copy)]
struct Holder {
    /// Index in [`Scan::intervals`].
    interval: u32,
    /// Its first segment that ends at or after the scan's position.
    seg: Segment,
    /// Its last position.
    end: u32,
}

/// Where a [`Holder`] is kept: as the active holder of the register with
/// this [`reg_index`], or at this index of the parked list.
#[derive(Debug, Clone, Copy)]
enum Place {
    Active(usize),
    Parked(usize),
}

/// The values in registers that the scan has not seen end: per register
/// (by [`reg_index`]) the one whose current segment has begun
/// (*active*), and those in a hole (*parked*, with their register's index),
/// with the earliest next segment start of each register's parked ones — a
/// value that ends before then needs no look at them.
#[derive(Debug)]
struct Held {
    active: [Option<Holder>; 32],
    parked: Vec<(usize, Holder)>,
    /// The earliest `seg.0` among each register's parked holders, [`NONE`]
    /// for a register with none.
    parked_next: [u32; 32],
}

/// The indices of the set bits of `mask`, lowest first.
fn bits(mut mask: u32) -> impl Iterator<Item = usize> {
    std::iter::from_fn(move || {
        let bit = mask.trailing_zeros() as usize;
        mask &= mask.wrapping_sub(1);
        (bit < 32).then_some(bit)
    })
}

impl Held {
    fn new() -> Held {
        Held {
            active: [None; 32],
            parked: Vec::new(),
            parked_next: [NONE; 32],
        }
    }

    fn park(&mut self, bit: usize, h: Holder) {
        self.parked_next[bit] = self.parked_next[bit].min(h.seg.0);
        self.parked.push((bit, h));
    }

    /// Brings the holders of register `bit` to position `at`: drops those
    /// that ended, parks an active one that entered a hole and activates a
    /// parked one whose next segment has begun.
    fn advance(&mut self, scan: &mut Scan, bit: usize, at: u32) {
        if let Some(mut h) = self.active[bit].filter(|h| h.seg.1 < at) {
            self.active[bit] = None;
            if h.end >= at {
                scan.advance(&mut h, at);
                if h.seg.0 <= at {
                    self.active[bit] = Some(h);
                } else {
                    self.park(bit, h);
                }
            }
        }
        if self.parked_next[bit] > at {
            return;
        }
        let mut next = NONE;
        let mut i = 0;
        while i < self.parked.len() {
            let (of, mut h) = self.parked[i];
            if of != bit {
                i += 1;
                continue;
            }
            if h.end < at {
                self.parked.swap_remove(i);
                continue;
            }
            scan.advance(&mut h, at);
            if h.seg.0 <= at && self.active[bit].is_none() {
                self.parked.swap_remove(i);
                self.active[bit] = Some(h);
                continue;
            }
            next = next.min(h.seg.0);
            self.parked[i].1 = h;
            i += 1;
        }
        self.parked_next[bit] = next;
    }

    /// Whether register `bit` is free for `iv`: none of its holders clashes
    /// with it. Brings the register to `iv`'s start first.
    #[inline]
    fn free(&mut self, scan: &mut Scan, bit: usize, iv: &Interval) -> bool {
        // The common way to be taken: a value live across the start.
        if let Some(h) = &self.active[bit] {
            if h.seg.0 <= iv.start && h.seg.1 > iv.start {
                return false;
            }
        }
        self.advance(scan, bit, iv.start);
        if self.active[bit].is_some_and(|h| scan.clashes(&h, iv)) {
            return false;
        }
        self.parked_next[bit] > iv.end || !self.parked.iter().any(|(of, h)| *of == bit && scan.clashes(h, iv))
    }

    /// The holders of register `bit` that clash with `iv`, after
    /// [`Held::advance`] to its start. The parked ones are looked at only if
    /// one of them resumes before `iv` ends.
    fn clashing<'s>(&'s self, scan: &'s Scan, iv: &'s Interval, bit: usize) -> impl Iterator<Item = (Place, &'s Holder)> + 's {
        let parked: &[(usize, Holder)] = if self.parked_next[bit] <= iv.end { &self.parked } else { &[] };
        let parked = parked.iter().enumerate().filter(move |(_, (of, _))| *of == bit);
        self.active[bit]
            .as_ref()
            .map(|h| (Place::Active(bit), h))
            .into_iter()
            .chain(parked.map(|(i, (_, h))| (Place::Parked(i), h)))
            .filter(move |(_, h)| scan.clashes(h, iv))
    }

    /// Makes `h` register `bit`'s active holder from position `at`, parking
    /// or dropping the one it replaces, whose segment ends at `at` (a
    /// definition taking a dying operand's register).
    fn take(&mut self, scan: &mut Scan, bit: usize, h: Holder, at: u32) {
        if let Some(mut old) = self.active[bit].replace(h) {
            if old.end > at {
                scan.advance(&mut old, at + 1);
                self.park(bit, old);
            }
        }
    }

    /// Takes the holder at `place` out.
    fn remove(&mut self, place: Place) -> Option<Holder> {
        match place {
            Place::Active(bit) => self.active[bit].take(),
            Place::Parked(i) => {
                let (bit, h) = self.parked.swap_remove(i);
                self.parked_next[bit] =
                    self.parked.iter().filter(|(of, _)| *of == bit).map(|(_, h)| h.seg.0).min().unwrap_or(NONE);
                Some(h)
            }
        }
    }
}

/// The linear scan's tables: the intervals in start order and their
/// segments.
struct Scan<'a> {
    ir: &'a FuncIr,
    intervals: Vec<Interval>,
    segs: Vec<Segment>,
    /// Every block's positions, by [`BlockId`].
    blk: &'a [Blk],
    /// Defining block of every value, by [`ValueId`].
    ranges: &'a [Range],
}

impl Scan<'_> {
    /// Whether the instruction defining interval `iv` reads `v`. A block
    /// parameter is defined by no instruction.
    fn def_reads(&self, iv: &Interval, v: ValueId) -> bool {
        let block = self.ranges[iv.value.index()].def_block as usize;
        let Some(offset) = iv.start.checked_sub(self.blk[block].start + 1) else {
            return false;
        };
        let mut reads = false;
        self.ir.blocks[block].insts[offset as usize]
            .for_each_use(&self.ir.nodes, |u| reads |= self.ir.resolve(u) == v);
        reads
    }

    /// Moves `h` on to its first segment that ends at or after `at`, which
    /// must not be after its end.
    fn advance(&mut self, h: &mut Holder, at: u32) {
        let cursor = &mut self.intervals[h.interval as usize].segs.0;
        while h.seg.1 < at {
            *cursor += 1;
            h.seg = self.segs[*cursor as usize];
        }
    }

    /// Whether `h`, advanced to `iv`'s start, is live at a position where
    /// `iv` is — except where `iv`'s own definition reads `h`'s value as one
    /// of its segments ends there (same-position reuse).
    #[inline]
    fn clashes(&self, h: &Holder, iv: &Interval) -> bool {
        if h.seg.0 <= iv.start && h.seg.1 > iv.start {
            return true;
        }
        if h.seg.0 > iv.end {
            return false;
        }
        let held = &self.intervals[h.interval as usize];
        let mut a = held.segs.0 as usize;
        if h.seg.0 <= iv.start {
            if !self.def_reads(iv, held.value) {
                return true;
            }
            a += 1;
        }
        // Every segment of `h` from `a` on starts after `iv` does.
        let mut b = iv.segs.0 as usize;
        while a < held.segs.1 as usize && b < iv.segs.1 as usize {
            let ((s1, e1), (s2, e2)) = (self.segs[a], self.segs[b]);
            if s1 > iv.end {
                return false;
            }
            if s1 <= e2 && s2 <= e1 {
                return true;
            }
            if e1 < e2 {
                a += 1;
            } else {
                b += 1;
            }
        }
        false
    }
}

/// Allocates every live value of `ir` to a register or spill slot. `order`
/// is the block layout ([`crate::layout::layout`]): every reachable block
/// once.
pub fn allocate(ir: &FuncIr, order: &[BlockId]) -> Allocation {
    // ---- Positions -------------------------------------------------------
    // Each block gets [start, end] positions; params define at start, each
    // instruction takes one position, the terminator the last.
    let unvisited = Blk {
        start: 0,
        end: 0,
        visited: NONE,
        live_out: NONE,
        index: 0,
    };
    let mut blk = vec![unvisited; ir.blocks.len()];
    let mut pos = 0u32;
    for (index, &b) in order.iter().enumerate() {
        let start = pos;
        pos += 1; // params
        pos += ir.blocks[b.index()].insts.len() as u32;
        let at = &mut blk[b.index()];
        (at.start, at.end, at.index) = (start, pos, index as u32); // `end`: the terminator
        pos += 1;
    }

    // ---- Definitions and reads -------------------------------------------
    let unknown = Range {
        start: NONE,
        end: 0,
        def_block: NONE,
        def_last: 0,
        entry_param: None,
        used: false,
        exposed: NONE,
        segs: (0, 0),
    };
    let mut ranges = Ranges {
        ir,
        of: vec![unknown; ir.nodes.len()],
        exposed: Vec::new(),
    };
    for &b in order {
        let block = &ir.blocks[b.index()];
        let s = blk[b.index()].start;
        for (i, &p) in block.params.iter().enumerate() {
            ranges.define(p, b, s);
            if b == ir.entry() && ir.resolve(p) == p {
                ranges.of[p.index()].entry_param = Some(i as u32);
            }
        }
        for (offset, inst) in block.insts.iter().enumerate() {
            let p = s + 1 + offset as u32;
            inst.for_each_use(&ir.nodes, |v| ranges.read(v, b, p));
            for_each_def(inst, |d| ranges.define(d, b, p));
        }
        block.term.for_each_use(|v| ranges.read(v, b, blk[b.index()].end));
    }

    // ---- Liveness and segments -------------------------------------------
    // A value read in a block that does not define it is live into that
    // block, so it is live out of every predecessor — its range reaches the
    // predecessor's end — and, unless the predecessor defines it, live into
    // the predecessor too. One backward walk per value from its exposed
    // reads to its definition finds every block it is live in. No live-in
    // set is ever materialized: `visited[b] == v` says the walk for value
    // `v` has been through block `b`, `live_out[b] == v` that `v` is live
    // out of it, and the walks run one value at a time. A parameter is
    // defined by its block, so its walk stops there, and nothing is ever
    // taken out of what *another* successor of a predecessor needs (the
    // per-edge parameter rule, DESIGN.md).
    //
    // The blocks a walk passes through, plus the defining block, are the
    // value's segments: each runs from the block's first position (the
    // definition, in the defining block) to its terminator if the value is
    // live out of it, else to the block's last read. Segments of blocks laid
    // out back to back join, so a value with no hole has one.
    let edges = ir.edge_index();
    let Ranges {
        of: mut ranges,
        exposed,
        ..
    } = ranges;
    let mut walk: Vec<BlockId> = Vec::new();
    // The segment of every block the value is live in, with the block's
    // layout index, as the walk finds them: its exposed blocks first, in
    // chain order, then the rest, then the defining block.
    let mut pieces: Vec<(Segment, u32)> = Vec::new();
    // A value with a hole puts its pieces in layout order through these: a
    // bit per laid-out block and each piece's end, by layout index (made
    // when the first such value turns up).
    let mut in_layout: Vec<u64> = Vec::new();
    let mut piece_end: Vec<u32> = Vec::new();
    let mut segs: Vec<Segment> = Vec::with_capacity(ir.nodes.len());
    for (v, range) in ranges.iter_mut().enumerate() {
        let v32 = v as u32;
        let mut link = range.exposed;
        while link != NONE {
            let (b, next, last) = exposed[link as usize];
            let at = &mut blk[b.index()];
            at.visited = v32;
            pieces.push(((at.start, last), at.index));
            walk.push(b);
            link = next;
        }
        let exposed_blocks = pieces.len();
        while let Some(b) = walk.pop() {
            for &(pred, _) in edges.incoming(b) {
                let at = &mut blk[pred.index()];
                range.end = range.end.max(at.end);
                if range.def_block != pred.0 && at.visited != v32 {
                    at.visited = v32;
                    // Live into a block it is not read in: live out of it
                    // too, or the walk would not have got here.
                    pieces.push(((at.start, at.end), at.index));
                    walk.push(pred);
                } else {
                    // Only an exposed block's and the defining block's
                    // segment ends depend on this.
                    at.live_out = v32;
                }
            }
        }
        // Dead call results and dead trapping defs get no location; the
        // emitter computes them into a scratch.
        let is_param = matches!(ir.nodes[v], Node::Param { .. });
        if range.start == NONE || (!range.used && !is_param) {
            pieces.clear();
            continue;
        }
        let from = segs.len() as u32;
        if range.exposed == NONE {
            // Read in its defining block only.
            segs.push((range.start, range.end));
            range.segs = (from, from + 1);
            continue;
        }
        // A block the value is read in holds it to the block's end if the
        // value is live out of it, else to the last read.
        let mut link = range.exposed;
        for piece in &mut pieces[..exposed_blocks] {
            let (b, next, _) = exposed[link as usize];
            if blk[b.index()].live_out == v32 {
                piece.0 .1 = blk[b.index()].end;
            }
            link = next;
        }
        let def = blk[range.def_block as usize];
        let def_end = if def.live_out == v32 { def.end } else { range.def_last };
        pieces.push(((range.start, def_end), def.index));
        // Blocks never overlap, so the value has a hole exactly when its
        // segments add up to less than its range — and only then are they
        // put in layout order, by bit.
        let covered: u32 = pieces.iter().map(|&((s, e), _)| e - s + 1).sum();
        if covered == range.end - range.start + 1 {
            segs.push((range.start, range.end));
        } else {
            if in_layout.is_empty() {
                in_layout = vec![0; order.len().div_ceil(64)];
                piece_end = vec![0; order.len()];
            }
            let (mut lo, mut hi) = (usize::MAX, 0);
            for &((_, e), index) in &pieces {
                let index = index as usize;
                in_layout[index / 64] |= 1 << (index % 64);
                piece_end[index] = e;
                (lo, hi) = (lo.min(index / 64), hi.max(index / 64));
            }
            for (word, set) in in_layout.iter_mut().enumerate().take(hi + 1).skip(lo) {
                while *set != 0 {
                    let index = word * 64 + set.trailing_zeros() as usize;
                    *set &= *set - 1;
                    // The defining block's segment starts at the definition.
                    let s = if index == def.index as usize { range.start } else { blk[order[index].index()].start };
                    match segs[from as usize..].last_mut() {
                        Some(last) if s == last.1 + 1 => last.1 = piece_end[index],
                        _ => segs.push((s, piece_end[index])),
                    }
                }
            }
        }
        pieces.clear();
        range.segs = (from, segs.len() as u32);
        debug_assert_eq!(segs[from as usize].0, range.start, "v{v} is live before its definition");
        debug_assert_eq!(segs[segs.len() - 1].1, range.end, "v{v}'s segments end before it does");
    }

    // ---- Intervals -------------------------------------------------------
    // In order of definition — a walk of the layout — and by value where
    // several start at one position (a block's parameters, a call's
    // results).
    let mut intervals: Vec<Interval> = Vec::new();
    let define = |intervals: &mut Vec<Interval>, v: ValueId, at: u32| {
        let range = &ranges[v.index()];
        if range.segs.0 == range.segs.1 || range.start != at {
            return;
        }
        let ty = ir.types[v.index()];
        intervals.push(Interval {
            value: v,
            start: range.start,
            end: range.end,
            float: ty.is_float(),
            reference: ty.is_reference(),
            entry_param: range.entry_param,
            segs: range.segs,
        });
    };
    for &b in order {
        let block = &ir.blocks[b.index()];
        let from = intervals.len();
        block.params.iter().for_each(|&p| define(&mut intervals, p, blk[b.index()].start));
        intervals[from..].sort_unstable_by_key(|iv| iv.value);
        for (offset, inst) in block.insts.iter().enumerate() {
            match inst {
                Inst::Def(v) => define(&mut intervals, *v, blk[b.index()].start + 1 + offset as u32),
                Inst::Call { results, .. } | Inst::CallIndirect { results, .. } => {
                    let from = intervals.len();
                    for &r in results {
                        define(&mut intervals, r, blk[b.index()].start + 1 + offset as u32);
                    }
                    intervals[from..].sort_unstable_by_key(|iv| iv.value);
                }
                _ => {}
            }
        }
    }

    // ---- Allocation hints ------------------------------------------------
    // A parameter prefers its first incoming argument's register, and an
    // argument on a back edge its parameter's (the parameter is allocated
    // first, at its block's start): `[parameter's hint, argument's hint]`.
    let mut hints: Vec<[u32; 2]> = vec![[NONE; 2]; ir.nodes.len()];
    for &b in order {
        ir.blocks[b.index()].term.for_each_edge(|e| {
            let back = blk[e.target.index()].start <= blk[b.index()].start;
            let params = &ir.blocks[e.target.index()].params;
            for (&p, &a) in params.iter().zip(&e.args) {
                let (p, a) = (ir.resolve(p), ir.resolve(a));
                let hint = &mut hints[p.index()][0];
                if *hint == NONE {
                    *hint = a.0;
                }
                let hint = &mut hints[a.index()][1];
                if back && *hint == NONE {
                    *hint = p.0;
                }
            }
        });
    }

    // ---- Linear scan -----------------------------------------------------
    let mut locs: Vec<Option<Loc>> = vec![None; ir.nodes.len()];
    // Spill slots are reused once their occupant's range has ended.
    // OSR entry stubs read the interpreter operand region as their move
    // sources, and the engine requires the optimized frame to cover the
    // interpreter frame it replaces, so reserve that region as well when any
    // OSR site exists.
    let spill_base = ir.num_locals() as u32
        + if ir.has_flush_probes || !ir.osr_sites.is_empty() {
            ir.max_stack
        } else {
            0
        };
    let mut slots = SpillSlots::default();
    let spill = |iv: &Interval, slots: &mut SpillSlots, locs: &mut [Option<Loc>]| {
        // Function parameters already live in their home slots; reuse them
        // unless probe flushes could overwrite them mid-function.
        if let Some(i) = iv.entry_param {
            if !ir.has_flush_probes {
                locs[iv.value.index()] = Some(Loc::Slot(i));
                return;
            }
        }
        // A slot is held from the definition to the end, holes included.
        let slot = slots.take(iv.start, iv.end);
        locs[iv.value.index()] = Some(Loc::Slot(spill_base + slot as u32));
    };

    let mut scan = Scan {
        ir,
        intervals,
        segs,
        blk: &blk,
        ranges: &ranges,
    };
    let mut held = Held::new();
    for k in 0..scan.intervals.len() {
        let iv = scan.intervals[k];
        if iv.reference {
            spill(&iv, &mut slots, &mut locs);
            continue;
        }
        // The hinted registers first, then the bank from its first register:
        // the first that no holder live where `iv` is keeps from it.
        let bank = if iv.float { FPR_BITS } else { GPR_BITS };
        let hinted = hints[iv.value.index()].into_iter().filter_map(|h| match locs.get(h as usize) {
            Some(&Some(Loc::Reg(r))) if bank & (1 << reg_index(r)) != 0 => Some(r),
            _ => None,
        });
        let reg = hinted
            .chain(bits(bank).map(index_reg))
            .find(|&r| held.free(&mut scan, reg_index(r), &iv));
        let reg = reg.or_else(|| {
            // Pressure: the register whose one clashing holder ends furthest
            // away (the lowest on a tie) goes to this value if that holder
            // outlasts it, and the holder moves to a slot; else this value
            // does. Every register of the bank was brought to `iv` above
            // unless it was found taken before it needed to be.
            let mut victim: Option<(usize, Place, u32)> = None;
            for bit in bits(bank) {
                held.advance(&mut scan, bit, iv.start);
                let mut clashing = held.clashing(&scan, &iv, bit);
                if let (Some((place, h)), None) = (clashing.next(), clashing.next()) {
                    if victim.is_none_or(|(_, _, end)| h.end > end) {
                        victim = Some((bit, place, h.end));
                    }
                }
            }
            let (bit, place, _) = victim.filter(|&(_, _, end)| end > iv.end)?;
            let evicted = held.remove(place)?;
            // The victim's slot must be free from its *definition* (where
            // the emitter stores spilled values), not from the eviction
            // point — a slot vacated in between would overlap the victim's
            // real slot lifetime.
            spill(&scan.intervals[evicted.interval as usize], &mut slots, &mut locs);
            Some(index_reg(bit))
        });
        match reg {
            Some(reg) => {
                locs[iv.value.index()] = Some(Loc::Reg(reg));
                let seg = scan.segs[iv.segs.0 as usize];
                let h = Holder { interval: k as u32, seg, end: iv.end };
                held.take(&mut scan, reg_index(reg), h, iv.start);
            }
            None => spill(&iv, &mut slots, &mut locs),
        }
    }

    Allocation {
        locs,
        spill_base,
        num_spill_slots: slots.len() as u32,
    }
}

/// Calls `f` for every value an instruction defines.
fn for_each_def(inst: &Inst, mut f: impl FnMut(ValueId)) {
    match inst {
        Inst::Def(v) => f(*v),
        Inst::Call { results, .. } | Inst::CallIndirect { results, .. } => {
            results.iter().for_each(|&r| f(r));
        }
        _ => {}
    }
}

/// Debug check: the terminator of `block` only branches to blocks whose
/// parameter count matches the edge's argument count.
#[cfg(debug_assertions)]
pub fn check_edges(ir: &FuncIr) {
    let reach = ir.reachable();
    for (bi, block) in ir.blocks.iter().enumerate() {
        if !reach[bi] {
            continue;
        }
        block.term.for_each_edge(|e| {
            debug_assert_eq!(
                e.args.len(),
                ir.blocks[e.target.index()].params.len(),
                "edge b{bi} -> {} arity mismatch\n{}",
                e.target,
                ir.display()
            );
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{frontend, layout, opt};
    use interp::profile::FuncProfile;
    use spc::{ProbeMode, ProbeSites};
    use wasm::builder::{CodeBuilder, ModuleBuilder};
    use wasm::opcode::Opcode;
    use wasm::types::{BlockType, FuncType, ValueType};
    use wasm::validate::validate;

    fn alloc_of(
        params: Vec<ValueType>,
        results: Vec<ValueType>,
        code: CodeBuilder,
    ) -> (FuncIr, Vec<BlockId>, Allocation) {
        let mut b = ModuleBuilder::new();
        let f = b.add_func(FuncType::new(params, results), vec![], code.finish());
        let module = b.finish();
        let info = validate(&module).unwrap();
        let mut ir = frontend::build(
            &module,
            f,
            &info.funcs[0],
            &ProbeSites::none(),
            ProbeMode::Optimized,
            false,
            false,
        )
        .unwrap();
        opt::optimize(&mut ir);
        let order = layout::layout(&ir, &FuncProfile::empty());
        let alloc = allocate(&ir, &order);
        (ir, order, alloc)
    }

    /// A counting loop carries `$n` (read by the exit test, by the sum and by
    /// its own decrement) and `$acc` (read by the sum and, after the loop,
    /// by the return). With no pressure, nothing is spilled, and each
    /// back-edge argument lives where its parameter does, so the back edge
    /// moves nothing: `$n - 1` takes `$n`'s register at the decrement that
    /// reads `$n` last (same-position reuse), and `$acc + $n` takes `$acc`'s
    /// although `$acc` is read again on the exit path, which `$acc`'s hole
    /// through the rest of the body allows.
    #[test]
    fn loop_carried_locals_get_registers() {
        let mut c = CodeBuilder::new();
        c.block(BlockType::Empty)
            .loop_(BlockType::Empty)
            .local_get(0)
            .op(Opcode::I32Eqz)
            .br_if(1)
            .local_get(1)
            .local_get(0)
            .op(Opcode::I32Add)
            .local_set(1)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Sub)
            .local_set(0)
            .br(0)
            .end()
            .end()
            .local_get(1);
        let (ir, order, alloc) = alloc_of(
            vec![ValueType::I32, ValueType::I32],
            vec![ValueType::I32],
            c,
        );
        // Every allocated value is in a register: tiny function, no
        // pressure.
        assert!(alloc.locs.iter().any(Option::is_some));
        for (v, loc) in alloc.locs.iter().enumerate() {
            assert!(
                matches!(loc, None | Some(Loc::Reg(_))),
                "v{v} spilled with no pressure: {loc:?}\n{}",
                ir.display()
            );
        }
        assert_eq!(alloc.num_spill_slots, 0);
        let laid_out = |b: BlockId| order.iter().position(|&o| o == b);
        let mut back_edge_args = 0;
        for &b in &order {
            ir.blocks[b.index()].term.for_each_edge(|e| {
                if laid_out(e.target) > laid_out(b) {
                    return;
                }
                let params = &ir.blocks[e.target.index()].params;
                for (&p, &a) in params.iter().zip(&e.args) {
                    back_edge_args += 1;
                    assert_eq!(
                        alloc.loc(&ir, a),
                        alloc.loc(&ir, p),
                        "{a} reaches {p} with a move\n{}",
                        ir.display()
                    );
                }
            });
        }
        assert_eq!(back_edge_args, 2, "{}", ir.display());
    }

    /// The parameters of one block all start at its first position, and an
    /// unused one ends there too, but no instruction reads it to make its
    /// sibling: the sibling must not take its register, or two moves (here
    /// two prologue loads) would write one register. Reuse at one position
    /// is for a definition's own operands only.
    #[test]
    fn an_unused_parameter_keeps_its_register_from_its_sibling() {
        let mut c = CodeBuilder::new();
        c.local_get(1);
        let (ir, _, alloc) = alloc_of(vec![ValueType::I32; 2], vec![ValueType::I32], c);
        let params = &ir.blocks[ir.entry().index()].params;
        let (unused, used) = (alloc.loc(&ir, params[0]), alloc.loc(&ir, params[1]));
        assert!(unused.is_some() && used.is_some(), "{unused:?} {used:?}\n{}", ir.display());
        assert_ne!(unused, used, "{}", ir.display());
    }

    #[test]
    fn distinct_live_values_get_distinct_registers() {
        let mut c = CodeBuilder::new();
        // Keep 5 values alive simultaneously.
        c.local_get(0)
            .local_get(0)
            .i32_const(1)
            .op(Opcode::I32Add)
            .local_get(0)
            .i32_const(2)
            .op(Opcode::I32Add)
            .local_get(0)
            .i32_const(3)
            .op(Opcode::I32Add)
            .op(Opcode::I32Mul)
            .op(Opcode::I32Mul)
            .op(Opcode::I32Mul);
        let (ir, order, alloc) = alloc_of(vec![ValueType::I32], vec![ValueType::I32], c);
        // Walk positions: at any definition the registers of live values are
        // unique. A cheap proxy: values whose intervals overlap share no
        // register. Recompute intervals via a second allocate call is
        // overkill; instead assert no two *simultaneously used* operands
        // alias. The multiplications use distinct operands:
        let _ = order;
        let reg_count = alloc
            .locs
            .iter()
            .filter(|l| matches!(l, Some(Loc::Reg(_))))
            .count();
        assert!(reg_count >= 4, "{:?}\n{}", alloc.locs, ir.display());
    }

    /// The tree hands out exactly the slots a scan of every slot's end would:
    /// the lowest-index one free before the start, else a new one — also
    /// when a start goes back in time, as an evicted value's does.
    #[test]
    fn spill_slots_match_a_scan_of_every_slot() {
        let mut slots = SpillSlots::default();
        let mut ends: Vec<u32> = Vec::new();
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |bound: u64| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % bound) as u32
        };
        for clock in 0..5_000u32 {
            // Mostly forward in time, sometimes back.
            let start = clock.saturating_sub(next(4) * next(200));
            let end = start + next(300);
            let expected = match ends.iter().position(|&e| e < start) {
                Some(i) => i,
                None => {
                    ends.push(0);
                    ends.len() - 1
                }
            };
            ends[expected] = end;
            assert_eq!(slots.take(start, end), expected, "spill {clock}: [{start}, {end}]");
        }
        assert_eq!(slots.len(), ends.len());
        assert!(ends.len() > 16, "the walk never grew the tree: {} slots", ends.len());
    }

    #[test]
    fn reference_values_stay_in_slots() {
        let mut c = CodeBuilder::new();
        c.local_get(0).op(Opcode::RefIsNull);
        let (_, _, alloc) = alloc_of(vec![ValueType::ExternRef], vec![ValueType::I32], c);
        let has_slot_ref = alloc
            .locs
            .iter()
            .any(|l| matches!(l, Some(Loc::Slot(_))));
        assert!(has_slot_ref, "{:?}", alloc.locs);
    }
}
