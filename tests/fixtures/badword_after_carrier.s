; Fixture: a foldable instruction followed by a one-parcel word that
; does not decode. The wide immediate 64512 stores 0xFC00 (a bad
; opcode) at 0x1008, right after the high half of i's specifier, 0x0000,
; which reads as a nop at 0x1006. The indirect jump lands on that nop:
; the nop decodes alone, unfolded, and the decode error belongs to
; 0x1008, where the interpreter faults.
    .entry main
    .local i 0
    .global tgt 4102
main:
    enter 1
    mov i, 64512
    jmp *tgt
