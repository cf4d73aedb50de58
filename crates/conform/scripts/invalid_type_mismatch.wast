;; Validator error paths: operand type mismatches.
(assert_invalid
  (module (func (result i32) i64.const 0))
  "expected i32")
(assert_invalid
  (module (func (result i32) i32.const 1 f64.const 2.0 i32.add))
  "expected i32")
(assert_invalid
  (module (func (param f32) (result f32) local.get 0 f64.sqrt))
  "expected f64")
(assert_invalid
  (module (func (param i32) local.get 0 i64.eqz drop))
  "expected i64")
(assert_invalid
  (module (func (param i64) (result i32) local.get 0))
  "expected i32")
;; select operands must agree, and untyped select may not hold references.
(assert_invalid
  (module (func (result i32) i32.const 1 f32.const 2.0 i32.const 0 select))
  "select")
(assert_invalid
  (module (func (result i32) i32.const 1 i32.const 2 select drop i32.const 0))
  "underflow")
;; if without else must have matching types.
(assert_invalid
  (module (func (result i32) i32.const 1 if (result i32) i32.const 2 end))
  "else")
;; A segment offset is a constant expression of type i32.
(assert_invalid
  (module (memory 1) (data (i64.const 0) "x"))
  "type mismatch")
