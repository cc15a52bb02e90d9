open Bs_isa
open Bs_sim
open Isa

(* Machine-level unit tests: hand-assembled programs exercising individual
   instruction semantics, slice aliasing, condition codes, memory widths,
   the Δ-redirect misspeculation mechanism, and calling convention
   plumbing — independent of the compiler.  Every case runs twice: with
   trace fusion on and off ([fuse]), through {!exec}. *)

let sl r b = { sl_reg = r; sl_byte = b }

(* Build a runnable program from raw instructions; entry at 0, HALT
   appended.  [delta] positions a skeleton area when testing
   misspeculation. *)
let program ?(delta = 0) insns : Bs_backend.Asm.program =
  let code = Array.of_list (insns @ [ HALT ]) in
  { Bs_backend.Asm.code;
    prov = Array.make (Array.length code) PNormal;
    srcmap = Array.make (Array.length code) None;
    entries = (let t = Hashtbl.create 1 in Hashtbl.replace t "main" 0; t);
    delta;
    halt_pc = Array.length code - 1;
    handler_pcs = Hashtbl.create 1 }

let exec ~fuse ?(mode = Bitspec) ?(fuel = 100000) ?delta ?fault
    ?(entry = "main") insns =
  let m = { Bs_ir.Ir.funcs = []; globals = [] } in
  Machine.run
    ~config:{ Machine.default_config with mode; fuel; fault; fuse }
    (program ?delta insns)
    (Bs_interp.Memimage.create ~size:65536 m)
    ~entry ~args:[]

let r0_of ~fuse insns = (exec ~fuse insns).Machine.r0

(* Run a case under both fusion settings, naming the failing one. *)
let both f () =
  List.iter
    (fun fuse ->
      try f fuse
      with e ->
        Printf.eprintf "failed with fuse = %b\n" fuse;
        raise e)
    [ true; false ]

let check64 = Alcotest.(check int64)

let test_mov_movw_movt fuse =
  check64 "movw" 0xBEEFL (r0_of ~fuse [ MOVW (0, 0xBEEF) ]);
  check64 "movw+movt" 0xDEADBEEFL
    (r0_of ~fuse [ MOVW (0, 0xBEEF); MOVT (0, 0xDEAD) ]);
  check64 "mov" 42L (r0_of ~fuse [ MOVW (1, 42); MOV (0, 1) ])

let test_alu fuse =
  let binop op a b =
    r0_of ~fuse [ MOVW (1, a); MOVW (2, b); ALU (op, 0, 1, Reg 2) ]
  in
  check64 "add" 30L (binop OpAdd 10 20);
  check64 "sub wrap" 0xFFFFFFFFL (binop OpSub 10 11);
  check64 "and" 8L (binop OpAnd 12 10);
  check64 "orr" 14L (binop OpOrr 12 10);
  check64 "eor" 6L (binop OpEor 12 10);
  check64 "lsl" 48L (binop OpLsl 12 2);
  check64 "lsr" 3L (binop OpLsr 12 2);
  check64 "imm" 112L (r0_of ~fuse [ MOVW (1, 100); ALU (OpAdd, 0, 1, Imm 12) ]);
  (* asr on a negative value *)
  check64 "asr sign" 0xFFFFFFFEL
    (r0_of ~fuse
       [ MOVW (1, 0xFFF8); MOVT (1, 0xFFFF); MOVW (2, 2);
         ALU (OpAsr, 0, 1, Reg 2) ])

let test_mul_div fuse =
  check64 "mul" 391L (r0_of ~fuse [ MOVW (1, 17); MOVW (2, 23); MUL (0, 1, 2) ]);
  check64 "udiv" 5L
    (r0_of ~fuse [ MOVW (1, 17); MOVW (2, 3); DIV (Unsigned, 0, 1, 2) ]);
  check64 "sdiv" 0xFFFFFFFBL
    (r0_of ~fuse
       [ MOVW (1, 0xFFEF); MOVT (1, 0xFFFF); (* -17 *)
         MOVW (2, 3); DIV (Signed, 0, 1, 2) ])

let test_cset_conditions fuse =
  let cmp_cset c a b =
    r0_of ~fuse [ MOVW (1, a); MOVW (2, b); CMP (1, Reg 2); CSET (c, 0) ]
  in
  check64 "eq" 1L (cmp_cset CEq 5 5);
  check64 "ne" 0L (cmp_cset CNe 5 5);
  check64 "ult" 1L (cmp_cset CUlt 3 5);
  check64 "uge" 0L (cmp_cset CUge 3 5);
  (* signed: 0xFFFFFFFF is -1 < 1 *)
  check64 "slt negative" 1L
    (r0_of ~fuse
       [ MOVW (1, 0xFFFF); MOVT (1, 0xFFFF); MOVW (2, 1); CMP (1, Reg 2);
         CSET (CSlt, 0) ]);
  check64 "ult unsigned-max" 0L
    (r0_of ~fuse
       [ MOVW (1, 0xFFFF); MOVT (1, 0xFFFF); MOVW (2, 1); CMP (1, Reg 2);
         CSET (CUlt, 0) ])

let test_branches fuse =
  (* skip over the poisoning instruction *)
  check64 "b skips" 1L (r0_of ~fuse [ MOVW (0, 1); B 3; MOVW (0, 99); NOP ]);
  check64 "bc taken" 1L
    (r0_of ~fuse
       [ MOVW (0, 1); MOVW (1, 3); CMP (1, Imm 3); BC (CEq, 5); MOVW (0, 99);
         NOP ]);
  check64 "bc not taken" 99L
    (r0_of ~fuse
       [ MOVW (0, 1); MOVW (1, 4); CMP (1, Imm 3); BC (CEq, 6); MOVW (0, 99);
         NOP ])

let test_slices_alias_register_bytes fuse =
  (* writing byte 1 of r1 must leave other bytes intact; reading slices
     extracts exactly one byte *)
  let r =
    exec ~fuse
      [ MOVW (1, 0x3344); MOVT (1, 0x1122);   (* r1 = 0x11223344 *)
        BMOVI (sl 1 1, 0xAB);                 (* r1 = 0x1122AB44 *)
        BEXT (Unsigned, 0, sl 1 1) ]
  in
  check64 "slice write+read" 0xABL r.Machine.r0;
  let r2 =
    exec ~fuse
      [ MOVW (1, 0x3344); MOVT (1, 0x1122); BMOVI (sl 1 1, 0xAB); MOV (0, 1) ]
  in
  check64 "rest of register intact" 0x1122AB44L r2.Machine.r0

let test_balu_and_bext_sign fuse =
  check64 "badd" 30L
    (r0_of ~fuse
       [ BMOVI (sl 1 0, 10); BMOVI (sl 2 0, 20);
         BALU (BAdd, sl 0 0, sl 1 0, Sl (sl 2 0)); BEXT (Unsigned, 0, sl 0 0) ]);
  check64 "bsext negative" 0xFFFFFF80L
    (r0_of ~fuse [ BMOVI (sl 1 0, 0x80); BEXT (Signed, 0, sl 1 0) ]);
  check64 "balu imm4" 9L
    (r0_of ~fuse
       [ BMOVI (sl 1 2, 14); BALU (BSub, sl 0 1, sl 1 2, BImm 5);
         BEXT (Unsigned, 0, sl 0 1) ])

let test_misspec_redirect fuse =
  (* layout: [0..2] work, [3] = skeleton branch to handler at [5].
     BADD of 200+100 overflows the slice: PC := 2 + Δ(1) = 3. *)
  let insns =
    [ BMOVI (sl 1 0, 200);                      (* 0 *)
      BMOVI (sl 2 0, 100);                      (* 1 *)
      BALU (BAdd, sl 3 0, sl 1 0, Sl (sl 2 0)); (* 2: misspeculates *)
      B 5;                                      (* 3: skeleton *)
      NOP;                                      (* 4: fallthrough if no misspec *)
      MOVW (0, 777) ]                           (* 5: handler *)
  in
  let r = exec ~fuse ~fuel:1000 ~delta:1 insns in
  check64 "handler ran" 777L r.Machine.r0;
  Alcotest.(check int) "one misspec" 1 r.Machine.ctr.Counters.misspecs;
  (* the destination slice must NOT have been written *)
  check64 "no commit" 777L r.Machine.r0

let test_no_misspec_in_range fuse =
  let r =
    exec ~fuse
      [ BMOVI (sl 1 0, 100); BMOVI (sl 2 0, 100);
        BALU (BAdd, sl 0 0, sl 1 0, Sl (sl 2 0)); BEXT (Unsigned, 0, sl 0 0) ]
  in
  check64 "200 fits" 200L r.Machine.r0;
  Alcotest.(check int) "no misspec" 0 r.Machine.ctr.Counters.misspecs

let test_memory_widths fuse =
  let r =
    exec ~fuse
         [ MOVW (1, 0x1000);
           MOVW (2, 0xBEEF); MOVT (2, 0xDEAD);
           STR (W32, 2, 1, 0);
           LDR (W8, Unsigned, 3, 1, 1);        (* byte 1 = 0xBE *)
           LDR (W16, Unsigned, 4, 1, 2);       (* half at 2 = 0xDEAD *)
           LDR (W8, Signed, 5, 1, 3);          (* 0xDE sign-extends *)
           ALU (OpAdd, 0, 3, Reg 4);
           ALU (OpAdd, 0, 0, Reg 5) ]
  in
  (* 0xBE + 0xDEAD + 0xFFFFFFDE = 0xDF49 (mod 2^32) *)
  check64 "mixed widths" 0xDF49L r.Machine.r0

let test_slice_indexed_memory fuse =
  let r =
    exec ~fuse
      [ MOVW (1, 0x2000);
        BMOVI (sl 2 1, 5);                     (* index 5 in a slice *)
        MOVW (3, 0x77);
        STR (W8, 3, 1, 5);
        BLDRB (sl 0 0, 1, BIdx (sl 2 1));
        BEXT (Unsigned, 0, sl 0 0) ]
  in
  check64 "Mem[Rn + Bm]" 0x77L r.Machine.r0

let test_bldrs_misspec_on_wide_value fuse =
  let insns =
    [ MOVW (1, 0x3000);
      MOVW (2, 0x1FF);                          (* 511 needs 9 bits *)
      STR (W32, 2, 1, 0);
      BLDRS (sl 0 0, 1, BOff 0);                (* 3: misspeculates *)
      B 6;                                      (* 4: skeleton *)
      NOP;
      MOVW (0, 555) ]                           (* 6: handler *)
  in
  let r = exec ~fuse ~fuel:1000 ~delta:1 insns in
  check64 "spec load misspec" 555L r.Machine.r0;
  Alcotest.(check int) "counted" 1 r.Machine.ctr.Counters.misspecs

let test_btrn fuse =
  check64 "fits" 200L
    (r0_of ~fuse [ MOVW (1, 200); BTRN (sl 0 0, 1); BEXT (Unsigned, 0, sl 0 0) ]);
  let insns =
    [ MOVW (1, 300);
      BTRN (sl 0 0, 1);                        (* 1: misspeculates *)
      B 4;                                     (* 2: skeleton *)
      NOP;
      MOVW (0, 99) ]                           (* 4 *)
  in
  let r = exec ~fuse ~fuel:1000 ~delta:1 insns in
  check64 "btrn misspec" 99L r.Machine.r0

let test_call_return fuse =
  (* main: BL f; f: r0 := 123; return *)
  let r =
    (* 0: call 3; returns to 1; add; branch to HALT (index 5) *)
    exec ~fuse [ BL 3; ALU (OpAdd, 0, 0, Imm 1); B 5; MOVW (0, 123); BX_LR ]
  in
  check64 "call+return+add" 124L r.Machine.r0

let test_counters_register_widths fuse =
  let r =
    exec ~fuse
      [ BMOVI (sl 1 0, 1); BMOVI (sl 2 0, 2);
        BALU (BAdd, sl 3 0, sl 1 0, Sl (sl 2 0));
        MOVW (4, 7); MOV (5, 4) ]
  in
  Alcotest.(check bool) "8-bit accesses counted" true
    (r.Machine.ctr.Counters.reg_read8 >= 2
    && r.Machine.ctr.Counters.reg_write8 >= 3);
  Alcotest.(check bool) "32-bit accesses counted" true
    (r.Machine.ctr.Counters.reg_write32 >= 2)

let test_setmode_and_delta fuse =
  (* SETMODE/SETDELTA round-trip: switch to classic and back around a
     conventional sequence (the §3.4 pre-compiled-code protocol) *)
  let r =
    exec ~fuse
      [ SETMODE Classic; MOVW (0, 5); SETMODE Bitspec; BMOVI (sl 0 1, 9);
        BEXT (Unsigned, 0, sl 0 1) ]
  in
  check64 "mode switch" 9L r.Machine.r0;
  match
    exec ~fuse [ SETMODE Classic; BMOVI (sl 0 0, 1) ]
  with
  | exception Machine.Sim_trap Bs_support.Outcome.Classic_mode_slice -> ()
  | exception Machine.Sim_trap k ->
      Alcotest.failf "wrong trap kind: %s" (Bs_support.Outcome.trap_message k)
  | _ -> Alcotest.fail "slice op must trap in classic mode"

(* --- trap paths --------------------------------------------------------- *)

let test_trap_division_by_zero fuse =
  match exec ~fuse [ MOVW (1, 9); MOVW (2, 0); DIV (Unsigned, 0, 1, 2) ] with
  | exception Machine.Sim_trap Bs_support.Outcome.Division_by_zero -> ()
  | _ -> Alcotest.fail "division by zero must trap"

let test_trap_unknown_entry fuse =
  match exec ~fuse ~entry:"nonexistent" [ NOP ] with
  | exception Machine.Sim_trap (Bs_support.Outcome.Unknown_entry e) ->
      Alcotest.(check string) "names the entry" "nonexistent" e
  | _ -> Alcotest.fail "unknown entry must trap"

let test_trap_pc_out_of_range fuse =
  match exec ~fuse [ B 100 ] with
  | exception Machine.Sim_trap (Bs_support.Outcome.Pc_out_of_range pc) ->
      Alcotest.(check int) "escaped pc" 100 pc
  | _ -> Alcotest.fail "PC escape must trap"

(* A register index outside the register file is a malformed program the
   assembler never emits; it must fail loudly, not read past the
   register file. *)
let test_register_out_of_range fuse =
  List.iter
    (fun insns ->
      match exec ~fuse insns with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.fail "an out-of-range register must raise")
    [ [ MOV (0, 40) ]; [ BMOVI (sl 17 0, 1) ] ]

let test_fuel_exhaustion_outcome fuse =
  (* a tight infinite loop stops with the structured Out_of_fuel outcome —
     the same Outcome.t variant the interpreter reports — not an
     exception *)
  let r = exec ~fuse ~fuel:100 [ B 0 ] in
  Alcotest.(check bool) "out of fuel" true
    (r.Machine.outcome = Bs_support.Outcome.Out_of_fuel);
  Alcotest.(check bool) "stopped at the budget" true
    (r.Machine.ctr.Counters.instrs <= 101)

let test_trap_stack_runaway fuse =
  (* runaway recursion: each iteration pushes SP down by 4 KiB and
     stores; SP leaves the 64 KiB image and the access faults instead of
     silently corrupting state *)
  let insns =
    [ ALU (OpSub, 13, 13, Imm 4096);   (* sp -= 4096 *)
      STR (W32, 0, 13, 0);             (* touch the frame *)
      B 0 ]
  in
  match exec ~fuse insns with
  | exception Bs_interp.Memimage.Fault _ -> ()
  | _ -> Alcotest.fail "stack runaway must fault"

(* --- fault injection ---------------------------------------------------- *)

let test_injected_flip_changes_register fuse =
  (* flip bit 4 of r0 between the MOVW and the HALT: 0x10 XOR 42 = 58 *)
  let fault =
    { Machine.at_instr = 2; target = Machine.Flip_reg (0, 4) }
  in
  let r =
    exec ~fuse ~fuel:1000 ~fault [ MOVW (0, 42); NOP; NOP ]
  in
  Alcotest.(check bool) "fault applied" true r.Machine.fault_applied;
  check64 "bit flipped" (Int64.of_int (42 lxor 16)) r.Machine.r0

let test_injected_flip_detected_by_hardware fuse =
  (* flip bit 7 of the slice operand before a BADD: 100+100 becomes
     228+100 > 255, the slice ALU detects the overflow and redirects into
     the handler — the misspeculation hardware catching a soft error *)
  let insns =
    [ BMOVI (sl 1 0, 100);                      (* 0 *)
      BMOVI (sl 2 0, 100);                      (* 1 *)
      BALU (BAdd, sl 3 0, sl 1 0, Sl (sl 2 0)); (* 2: overflows post-flip *)
      B 5;                                      (* 3: skeleton *)
      NOP;
      MOVW (0, 777) ]                           (* 5: handler *)
  in
  let fault =
    { Machine.at_instr = 3; target = Machine.Flip_reg (1, 7) }
  in
  let r = exec ~fuse ~fuel:1000 ~delta:1 ~fault insns in
  Alcotest.(check int) "overflow detected" 1 r.Machine.ctr.Counters.misspecs;
  check64 "handler ran" 777L r.Machine.r0

let suite =
  [ Alcotest.test_case "mov/movw/movt" `Quick (both test_mov_movw_movt);
    Alcotest.test_case "alu operations" `Quick (both test_alu);
    Alcotest.test_case "mul/div" `Quick (both test_mul_div);
    Alcotest.test_case "compare + cset conditions" `Quick (both test_cset_conditions);
    Alcotest.test_case "branches" `Quick (both test_branches);
    Alcotest.test_case "slices alias register bytes" `Quick (both test_slices_alias_register_bytes);
    Alcotest.test_case "slice ALU + extension" `Quick (both test_balu_and_bext_sign);
    Alcotest.test_case "misspeculation PC+Δ redirect" `Quick (both test_misspec_redirect);
    Alcotest.test_case "no misspeculation in range" `Quick (both test_no_misspec_in_range);
    Alcotest.test_case "memory widths + sign extension" `Quick (both test_memory_widths);
    Alcotest.test_case "slice-indexed addressing" `Quick (both test_slice_indexed_memory);
    Alcotest.test_case "speculative load misspeculates" `Quick (both test_bldrs_misspec_on_wide_value);
    Alcotest.test_case "speculative truncate" `Quick (both test_btrn);
    Alcotest.test_case "call/return" `Quick (both test_call_return);
    Alcotest.test_case "register access counters" `Quick (both test_counters_register_widths);
    Alcotest.test_case "classic mode protocol (§3.4)" `Quick (both test_setmode_and_delta);
    Alcotest.test_case "trap: division by zero" `Quick (both test_trap_division_by_zero);
    Alcotest.test_case "trap: unknown entry" `Quick (both test_trap_unknown_entry);
    Alcotest.test_case "trap: PC out of range" `Quick (both test_trap_pc_out_of_range);
    Alcotest.test_case "trap: register out of range" `Quick
      (both test_register_out_of_range);
    Alcotest.test_case "fuel exhaustion outcome" `Quick (both test_fuel_exhaustion_outcome);
    Alcotest.test_case "trap: stack runaway faults" `Quick (both test_trap_stack_runaway);
    Alcotest.test_case "fault injection: register flip" `Quick (both test_injected_flip_changes_register);
    Alcotest.test_case "fault injection: caught by misspec hardware" `Quick (both test_injected_flip_detected_by_hardware) ]
