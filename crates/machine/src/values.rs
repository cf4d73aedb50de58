//! Runtime value representation: tagged 64-bit slots and the value stack.
//!
//! Following the paper's Wizard design (Fig. 2), every Wasm value occupies one
//! 64-bit slot plus a one-byte *value tag* identifying what the slot holds.
//! The value stack is shared verbatim between the in-place interpreter and
//! JIT-compiled code: the interpreter reads and writes it for every
//! instruction, while compiled code keeps values in registers and only spills
//! to it at observable points (calls, traps, probes) or when registers run
//! out. The garbage collector finds reference roots by scanning tags.

use std::fmt;
use wasm::types::ValueType;

/// Encoding of a null reference in a 64-bit slot.
pub const NULL_REF_BITS: u64 = u64::MAX;

/// The dynamic tag stored alongside each value-stack slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum ValueTag {
    /// The slot holds an `i32`.
    I32 = 0,
    /// The slot holds an `i64`.
    I64 = 1,
    /// The slot holds an `f32` (in its low 32 bits).
    F32 = 2,
    /// The slot holds an `f64`.
    F64 = 3,
    /// The slot holds a function reference (function index or null).
    FuncRef = 4,
    /// The slot holds a host object reference — a GC root.
    Ref = 5,
    /// The slot's contents are dead / uninitialized. Scanners skip it.
    Dead = 6,
}

impl ValueTag {
    /// The tag corresponding to a value type.
    pub fn for_type(t: ValueType) -> ValueTag {
        match t {
            ValueType::I32 => ValueTag::I32,
            ValueType::I64 => ValueTag::I64,
            ValueType::F32 => ValueTag::F32,
            ValueType::F64 => ValueTag::F64,
            ValueType::FuncRef => ValueTag::FuncRef,
            ValueType::ExternRef => ValueTag::Ref,
        }
    }

    /// Decodes a tag from its byte encoding.
    pub fn from_byte(b: u8) -> Option<ValueTag> {
        Some(match b {
            0 => ValueTag::I32,
            1 => ValueTag::I64,
            2 => ValueTag::F32,
            3 => ValueTag::F64,
            4 => ValueTag::FuncRef,
            5 => ValueTag::Ref,
            6 => ValueTag::Dead,
            _ => return None,
        })
    }
}

impl fmt::Display for ValueTag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            ValueTag::I32 => "i32",
            ValueTag::I64 => "i64",
            ValueTag::F32 => "f32",
            ValueTag::F64 => "f64",
            ValueTag::FuncRef => "funcref",
            ValueTag::Ref => "ref",
            ValueTag::Dead => "dead",
        };
        f.write_str(s)
    }
}

/// A WebAssembly runtime value at the host level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WasmValue {
    /// A 32-bit integer.
    I32(i32),
    /// A 64-bit integer.
    I64(i64),
    /// A 32-bit float.
    F32(f32),
    /// A 64-bit float.
    F64(f64),
    /// A function reference (function index) or null.
    FuncRef(Option<u32>),
    /// A host object reference (handle into the host GC heap) or null.
    ExternRef(Option<u32>),
}

impl WasmValue {
    /// The default (zero / null) value of a type.
    pub fn default_for(t: ValueType) -> WasmValue {
        match t {
            ValueType::I32 => WasmValue::I32(0),
            ValueType::I64 => WasmValue::I64(0),
            ValueType::F32 => WasmValue::F32(0.0),
            ValueType::F64 => WasmValue::F64(0.0),
            ValueType::FuncRef => WasmValue::FuncRef(None),
            ValueType::ExternRef => WasmValue::ExternRef(None),
        }
    }

    /// The value type of this value.
    pub fn value_type(&self) -> ValueType {
        match self {
            WasmValue::I32(_) => ValueType::I32,
            WasmValue::I64(_) => ValueType::I64,
            WasmValue::F32(_) => ValueType::F32,
            WasmValue::F64(_) => ValueType::F64,
            WasmValue::FuncRef(_) => ValueType::FuncRef,
            WasmValue::ExternRef(_) => ValueType::ExternRef,
        }
    }

    /// The tag of this value.
    pub fn tag(&self) -> ValueTag {
        ValueTag::for_type(self.value_type())
    }

    /// The raw 64-bit slot encoding of this value.
    pub fn to_bits(&self) -> u64 {
        match *self {
            WasmValue::I32(v) => v as u32 as u64,
            WasmValue::I64(v) => v as u64,
            WasmValue::F32(v) => v.to_bits() as u64,
            WasmValue::F64(v) => v.to_bits(),
            WasmValue::FuncRef(r) | WasmValue::ExternRef(r) => match r {
                Some(i) => i as u64,
                None => NULL_REF_BITS,
            },
        }
    }

    /// Reconstructs a value from its slot bits and tag.
    pub fn from_bits(bits: u64, tag: ValueTag) -> WasmValue {
        match tag {
            ValueTag::I32 => WasmValue::I32(bits as u32 as i32),
            ValueTag::I64 | ValueTag::Dead => WasmValue::I64(bits as i64),
            ValueTag::F32 => WasmValue::F32(f32::from_bits(bits as u32)),
            ValueTag::F64 => WasmValue::F64(f64::from_bits(bits)),
            ValueTag::FuncRef => WasmValue::FuncRef(decode_ref(bits)),
            ValueTag::Ref => WasmValue::ExternRef(decode_ref(bits)),
        }
    }

    /// Returns the i32 payload.
    ///
    /// # Panics
    ///
    /// Panics if this is not an `I32`.
    pub fn unwrap_i32(&self) -> i32 {
        match self {
            WasmValue::I32(v) => *v,
            other => panic!("expected i32, found {other:?}"),
        }
    }
}

fn decode_ref(bits: u64) -> Option<u32> {
    if bits == NULL_REF_BITS {
        None
    } else {
        Some(bits as u32)
    }
}

impl fmt::Display for WasmValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WasmValue::I32(v) => write!(f, "{v}:i32"),
            WasmValue::I64(v) => write!(f, "{v}:i64"),
            WasmValue::F32(v) => write!(f, "{v}:f32"),
            WasmValue::F64(v) => write!(f, "{v}:f64"),
            WasmValue::FuncRef(Some(i)) => write!(f, "funcref({i})"),
            WasmValue::FuncRef(None) => write!(f, "funcref(null)"),
            WasmValue::ExternRef(Some(i)) => write!(f, "ref({i})"),
            WasmValue::ExternRef(None) => write!(f, "ref(null)"),
        }
    }
}

/// A global variable cell: a tagged 64-bit slot.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GlobalSlot {
    /// The raw slot bits.
    pub bits: u64,
    /// The tag describing the slot.
    pub tag: ValueTag,
}

impl GlobalSlot {
    /// Creates a global cell from a value.
    pub fn from_value(v: WasmValue) -> GlobalSlot {
        GlobalSlot {
            bits: v.to_bits(),
            tag: v.tag(),
        }
    }

    /// Reads the cell as a value.
    pub fn value(&self) -> WasmValue {
        WasmValue::from_bits(self.bits, self.tag)
    }
}

/// The explicit value stack shared by the interpreter and JIT code.
///
/// Slots are 64 bits wide; tags are stored in a parallel byte array. The
/// stack has a fixed capacity — exhausting it is a stack-overflow trap,
/// mirroring the guard page in the paper's Fig. 2. The default stack backs
/// that capacity on demand: [`ValueStack::reserve`] extends the backed
/// prefix when a frame is pushed, so an instance that never recurses deeply
/// never allocates (or zeroes) the half megabyte its capacity allows.
#[derive(Debug, Clone)]
pub struct ValueStack {
    /// The backed prefix of the stack; every access lies inside it.
    slots: Vec<u64>,
    tags: Vec<ValueTag>,
    /// The capacity in slots; the backed prefix never grows past it.
    capacity: usize,
    sp: usize,
    /// Highest stack pointer ever observed. Every slot a frame can dirty
    /// lies below the frame's stack pointer, so `[0, high_water)` bounds the
    /// dirtied region and [`ValueStack::reset`] only has to scrub that
    /// prefix instead of the whole capacity — the difference between a
    /// pooled-instance reset being a small memset and a 0.5 MiB one.
    high_water: usize,
}

/// Default capacity (in slots) of a value stack.
pub const DEFAULT_VALUE_STACK_SLOTS: usize = 64 * 1024;

/// A stack of [`DEFAULT_VALUE_STACK_SLOTS`] capacity with nothing backed
/// yet: frames are backed as they are pushed ([`ValueStack::reserve`]).
impl Default for ValueStack {
    fn default() -> ValueStack {
        ValueStack {
            slots: Vec::new(),
            tags: Vec::new(),
            capacity: DEFAULT_VALUE_STACK_SLOTS,
            sp: 0,
            high_water: 0,
        }
    }
}

impl ValueStack {
    /// Creates a value stack with the given slot capacity, all of it backed.
    pub fn with_capacity(slots: usize) -> ValueStack {
        ValueStack {
            slots: vec![0; slots],
            tags: vec![ValueTag::Dead; slots],
            capacity: slots,
            sp: 0,
            high_water: 0,
        }
    }

    /// Total slot capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Backs the slots `[0, end)` — zeroed and dead where newly backed — so
    /// a frame ending at `end` can be read and written. Returns `false`,
    /// backing nothing, if `end` exceeds the capacity: the caller's
    /// stack-overflow condition.
    pub fn reserve(&mut self, end: usize) -> bool {
        if end > self.capacity {
            return false;
        }
        if end > self.slots.len() {
            // At least doubling keeps the copies amortized over a deep
            // recursion's pushes; starting at 256 slots lets a shallow call
            // chain back its stack once.
            let backed = end.max(2 * self.slots.len()).max(256).min(self.capacity);
            self.slots.resize(backed, 0);
            self.tags.resize(backed, ValueTag::Dead);
        }
        true
    }

    /// The current stack pointer (index of the next free slot).
    pub fn sp(&self) -> usize {
        self.sp
    }

    /// Sets the stack pointer (e.g. when pushing or popping a frame).
    pub fn set_sp(&mut self, sp: usize) {
        debug_assert!(sp <= self.capacity());
        self.sp = sp;
        if sp > self.high_water {
            self.high_water = sp;
        }
    }

    /// Returns the stack to its freshly-constructed state: `[0, high_water)`
    /// is zeroed and marked dead, and the stack pointer drops to zero. Slots
    /// above the high-water mark were never dirtied, so an instance reset
    /// pays only for the region it actually used.
    pub fn reset(&mut self) {
        let dirty = self.high_water;
        self.clear_range(0, dirty);
        self.sp = 0;
        self.high_water = 0;
    }

    /// Reads the raw bits of a slot.
    pub fn read(&self, slot: usize) -> u64 {
        self.slots[slot]
    }

    /// Writes the raw bits of a slot without touching its tag.
    pub fn write(&mut self, slot: usize, bits: u64) {
        self.slots[slot] = bits;
    }

    /// Reads a slot's tag.
    pub fn tag(&self, slot: usize) -> ValueTag {
        self.tags[slot]
    }

    /// The backed slots and tags from `base` up — a frame's view of the
    /// stack, indexed by frame-relative slot. Empty if `base` is past the
    /// backed prefix, so every access through it is still checked.
    pub(crate) fn frame_mut(&mut self, base: usize) -> (&mut [u64], &mut [ValueTag]) {
        let slots = self.slots.get_mut(base..).unwrap_or_default();
        let tags = self.tags.get_mut(base..).unwrap_or_default();
        (slots, tags)
    }

    /// Writes both bits and tag of a slot.
    pub fn write_tagged(&mut self, slot: usize, bits: u64, tag: ValueTag) {
        self.slots[slot] = bits;
        self.tags[slot] = tag;
    }

    /// Tags the slots from `base` with `types`, leaving their bits alone: a
    /// frame's parameters, written by a caller whose tier may store no tags.
    pub fn set_tags(&mut self, base: usize, types: &[ValueType]) {
        let tags = &mut self.tags[base..base + types.len()];
        for (tag, &ty) in tags.iter_mut().zip(types) {
            *tag = ValueTag::for_type(ty);
        }
    }

    /// Writes the default (zero or null) value of each of `types` to the
    /// slots from `base`, bits and tags: a frame's declared locals.
    pub fn write_defaults(&mut self, base: usize, types: &[ValueType]) {
        let end = base + types.len();
        let (slots, tags) = (&mut self.slots[base..end], &mut self.tags[base..end]);
        for ((slot, tag), &ty) in slots.iter_mut().zip(tags).zip(types) {
            *slot = if ty.is_reference() { NULL_REF_BITS } else { 0 };
            *tag = ValueTag::for_type(ty);
        }
    }

    /// Writes a value (bits + tag) to a slot.
    pub fn write_value(&mut self, slot: usize, v: WasmValue) {
        self.write_tagged(slot, v.to_bits(), v.tag());
    }

    /// Reads a slot as a value using its stored tag.
    pub fn read_value(&self, slot: usize) -> WasmValue {
        WasmValue::from_bits(self.slots[slot], self.tags[slot])
    }

    /// Pushes a value at the stack pointer.
    ///
    /// # Panics
    ///
    /// Panics if the stack is full; callers are expected to check frame sizes
    /// up front (the engine turns that check into a stack-overflow trap).
    pub fn push(&mut self, v: WasmValue) {
        let slot = self.sp;
        self.write_value(slot, v);
        self.sp += 1;
        if self.sp > self.high_water {
            self.high_water = self.sp;
        }
    }

    /// Pops the top value.
    ///
    /// # Panics
    ///
    /// Panics if the stack is empty.
    pub fn pop(&mut self) -> WasmValue {
        assert!(self.sp > 0, "value stack underflow");
        self.sp -= 1;
        self.read_value(self.sp)
    }

    /// Marks a range of slots dead (used when popping frames so stale
    /// references do not keep host objects alive).
    pub fn clear_range(&mut self, start: usize, end: usize) {
        self.slots[start..end].fill(0);
        self.tags[start..end].fill(ValueTag::Dead);
    }

    /// Iterates over the live region `[0, sp)` yielding `(slot, bits, tag)`.
    /// This is what tag-based GC root scanning walks.
    pub fn iter_live(&self) -> impl Iterator<Item = (usize, u64, ValueTag)> + '_ {
        (0..self.sp).map(move |i| (i, self.slots[i], self.tags[i]))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tag_type_correspondence() {
        for t in ValueType::ALL {
            let tag = ValueTag::for_type(t);
            assert_eq!(ValueTag::from_byte(tag as u8), Some(tag));
        }
        assert_eq!(ValueTag::from_byte(200), None);
    }

    #[test]
    fn value_bits_roundtrip() {
        let cases = [
            WasmValue::I32(-7),
            WasmValue::I32(i32::MIN),
            WasmValue::I64(i64::MAX),
            WasmValue::F32(3.25),
            WasmValue::F64(-0.0),
            WasmValue::FuncRef(Some(12)),
            WasmValue::FuncRef(None),
            WasmValue::ExternRef(Some(0)),
            WasmValue::ExternRef(None),
        ];
        for v in cases {
            let bits = v.to_bits();
            let back = WasmValue::from_bits(bits, v.tag());
            assert_eq!(back, v, "{v}");
        }
    }

    #[test]
    fn default_stack_backs_frames_on_demand() {
        let mut vs = ValueStack::default();
        assert_eq!(vs.capacity(), DEFAULT_VALUE_STACK_SLOTS);
        assert!(vs.reserve(0), "an empty frame needs no backing");
        assert!(vs.reserve(10));
        vs.write_value(9, WasmValue::I32(7));
        vs.set_sp(10);
        // Growing keeps what is there and hands out zeroed, dead slots.
        assert!(vs.reserve(5000));
        assert_eq!(vs.read_value(9), WasmValue::I32(7));
        assert_eq!((vs.read(4999), vs.tag(4999)), (0, ValueTag::Dead));
        // The whole capacity can be backed; one slot more is an overflow and
        // changes nothing.
        assert!(!vs.reserve(DEFAULT_VALUE_STACK_SLOTS + 1));
        assert!(vs.reserve(DEFAULT_VALUE_STACK_SLOTS));
        vs.write(DEFAULT_VALUE_STACK_SLOTS - 1, 1);
        assert!(!vs.reserve(DEFAULT_VALUE_STACK_SLOTS + 1));
        assert_eq!(vs.capacity(), DEFAULT_VALUE_STACK_SLOTS);
        vs.reset();
        assert_eq!((vs.sp(), vs.read(9)), (0, 0));
    }

    #[test]
    fn with_capacity_is_fully_backed() {
        let mut vs = ValueStack::with_capacity(8);
        vs.write(7, 1);
        assert!(vs.reserve(8));
        assert!(!vs.reserve(9));
        assert_eq!(vs.read(7), 1);
    }

    #[test]
    fn nan_bits_preserved() {
        let v = WasmValue::F64(f64::from_bits(0x7FF8_0000_0000_1234));
        let back = WasmValue::from_bits(v.to_bits(), ValueTag::F64);
        assert_eq!(back.to_bits(), v.to_bits());
    }

    #[test]
    fn default_values() {
        assert_eq!(WasmValue::default_for(ValueType::I32), WasmValue::I32(0));
        assert_eq!(
            WasmValue::default_for(ValueType::ExternRef),
            WasmValue::ExternRef(None)
        );
        assert_eq!(WasmValue::default_for(ValueType::F64), WasmValue::F64(0.0));
    }

    #[test]
    fn a_frame_is_initialized_as_its_values_would_write_it() {
        let types = ValueType::ALL;
        let mut bulk = ValueStack::with_capacity(2 * types.len());
        let mut each = bulk.clone();
        for slot in 0..2 * types.len() {
            bulk.write_tagged(slot, 0xdead_beef, ValueTag::Dead);
        }
        each.clone_from(&bulk);
        bulk.set_tags(0, &types);
        bulk.write_defaults(types.len(), &types);
        for (i, &ty) in types.iter().enumerate() {
            each.write_tagged(i, each.read(i), ValueTag::for_type(ty));
            each.write_value(types.len() + i, WasmValue::default_for(ty));
        }
        for slot in 0..2 * types.len() {
            assert_eq!((bulk.read(slot), bulk.tag(slot)), (each.read(slot), each.tag(slot)));
        }
        assert_eq!(bulk.read(0), 0xdead_beef, "parameters keep their bits");
    }

    #[test]
    fn unwrap_i32_returns_the_payload() {
        assert_eq!(WasmValue::I32(3).unwrap_i32(), 3);
    }

    #[test]
    #[should_panic(expected = "expected i32")]
    fn unwrap_wrong_kind_panics() {
        WasmValue::F64(1.0).unwrap_i32();
    }

    #[test]
    fn value_stack_push_pop() {
        let mut vs = ValueStack::with_capacity(16);
        assert_eq!(vs.sp(), 0);
        vs.push(WasmValue::I32(1));
        vs.push(WasmValue::F64(2.5));
        vs.push(WasmValue::ExternRef(Some(9)));
        assert_eq!(vs.sp(), 3);
        assert_eq!(vs.pop(), WasmValue::ExternRef(Some(9)));
        assert_eq!(vs.pop(), WasmValue::F64(2.5));
        assert_eq!(vs.pop(), WasmValue::I32(1));
        assert_eq!(vs.sp(), 0);
    }

    #[test]
    fn value_stack_slot_access_and_tags() {
        let mut vs = ValueStack::with_capacity(8);
        vs.set_sp(4);
        vs.write_tagged(2, 42, ValueTag::I64);
        assert_eq!(vs.read(2), 42);
        assert_eq!(vs.tag(2), ValueTag::I64);
        vs.write(2, 43);
        assert_eq!(vs.read(2), 43);
        assert_eq!(vs.tag(2), ValueTag::I64, "raw write must not change tag");
        vs.set_tags(2, &[ValueType::ExternRef]);
        assert_eq!(vs.read_value(2), WasmValue::ExternRef(Some(43)));
    }

    #[test]
    fn value_stack_live_iteration_and_clear() {
        let mut vs = ValueStack::with_capacity(8);
        vs.push(WasmValue::I32(1));
        vs.push(WasmValue::ExternRef(Some(5)));
        vs.push(WasmValue::ExternRef(None));
        let roots: Vec<_> = vs
            .iter_live()
            .filter(|(_, bits, tag)| *tag == ValueTag::Ref && *bits != NULL_REF_BITS)
            .collect();
        assert_eq!(roots.len(), 1);
        assert_eq!(roots[0].0, 1);

        vs.clear_range(0, 3);
        assert!(vs.iter_live().all(|(_, _, tag)| tag == ValueTag::Dead));
    }

    #[test]
    fn global_slot_roundtrip() {
        let g = GlobalSlot::from_value(WasmValue::F32(9.5));
        assert_eq!(g.value(), WasmValue::F32(9.5));
        assert_eq!(g.tag, ValueTag::F32);
    }

    #[test]
    fn reset_scrubs_only_the_high_water_region() {
        let mut vs = ValueStack::with_capacity(16);
        vs.push(WasmValue::I64(-1));
        vs.push(WasmValue::ExternRef(Some(3)));
        vs.set_sp(8);
        vs.write_tagged(7, 0xDEAD, ValueTag::I32);
        assert_eq!(vs.high_water, 8);
        // Popping frames does not lower the high-water mark.
        vs.set_sp(1);
        assert_eq!(vs.high_water, 8);
        vs.reset();
        assert_eq!(vs.sp(), 0);
        assert_eq!(vs.high_water, 0);
        for slot in 0..vs.capacity() {
            assert_eq!(vs.read(slot), 0, "slot {slot} bits survived reset");
            assert_eq!(vs.tag(slot), ValueTag::Dead, "slot {slot} tag survived reset");
        }
    }
}
