;; Malformed inputs: text that does not parse, bytes that do not decode.
(assert_malformed
  (module quote "(func")
  "unclosed parenthesis")
(assert_malformed
  (module quote "(func (result i32) i32.konst 0)")
  "unknown instruction")
(assert_malformed
  (module quote "(func unknown_keyword)")
  "unknown instruction")
(assert_malformed
  (module quote "(func br $nowhere)")
  "unknown label")
(assert_malformed
  (module quote "(bogus_field)")
  "unsupported module field")
(assert_malformed
  (module quote "(func (local $x))")
  "named local needs one type")
;; Binary-level malformations.
(assert_malformed
  (module binary "")
  "invalid module header")
(assert_malformed
  (module binary "\00wasm\01\00\00\00")
  "invalid module header")
(assert_malformed
  (module binary "\00asm\02\00\00\00")
  "unsupported version")
;; Code section before type section: out of order.
(assert_malformed
  (module binary "\00asm\01\00\00\00" "\0a\01\00" "\01\01\00")
  "section out of order")
;; Function section with no code section: count mismatch.
(assert_malformed
  (module binary "\00asm\01\00\00\00" "\01\04\01\60\00\00" "\03\02\01\00")
  "function count mismatch")
;; Truncated section.
(assert_malformed
  (module binary "\00asm\01\00\00\00" "\01\7f\01")
  "unexpected end")
;; memory.size / memory.grow: the reserved byte after the opcode must be 0x00.
;; Bodies are decoded where they are walked, so this surfaces at validation.
(assert_invalid
  (module binary "\00asm\01\00\00\00" "\01\04\01\60\00\00" "\03\02\01\00" "\05\03\01\00\01"
    "\0a\07\01\05\00\3f\01\1a\0b")
  "zero byte expected")
(assert_invalid
  (module binary "\00asm\01\00\00\00" "\01\04\01\60\00\00" "\03\02\01\00" "\05\03\01\00\01"
    "\0a\09\01\07\00\41\00\40\01\1a\0b")
  "zero byte expected")
