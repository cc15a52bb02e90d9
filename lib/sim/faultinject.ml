open Bs_support

(* Deterministic single-bit fault injection (soft-error model).

   A campaign draws faults from a seeded splitmix64 stream — a dynamic
   instruction index, a hardware target (register slice bits, memory bits,
   or the Δ redirect register) and a bit — runs the program once per
   fault, and classifies each run against the fault-free execution:

   - [Masked]    the checksum is unchanged and the misspeculation hardware
                 never fired beyond the fault-free count: the flip landed
                 in dead state or was overwritten;
   - [Detected]  the checksum is unchanged AND extra misspeculation events
                 occurred: the flip pushed a value out of its slice, the
                 overflow detector caught it, and the handler's full-width
                 re-execution repaired the damage — the paper's recovery
                 hardware acting as a free soft-error net;
   - [Trapped]   the run died on a structured trap (division by zero,
                 PC escape, memory fault, …): detected by construction;
   - [Sdc]       the run finished with a wrong checksum — silent data
                 corruption, the outcome resilience work cares about;
   - [Hung]      the fuel budget ran out: the flip broke termination.

   The classification currency is {!Outcome.t}, shared with the reference
   interpreter, whose checksum is the differential oracle. *)

type verdict =
  | Masked
  | Detected of int        (* extra misspeculation events *)
  | Trapped of Outcome.trap
  | Sdc of int64           (* the corrupted checksum *)
  | Hung

type trial = { tfault : Machine.fault; verdict : verdict }

let verdict_name = function
  | Masked -> "masked"
  | Detected _ -> "detected"
  | Trapped _ -> "trapped"
  | Sdc _ -> "sdc"
  | Hung -> "hang"

let verdict_names = [ "masked"; "detected"; "trapped"; "sdc"; "hang" ]

let describe_fault (f : Machine.fault) =
  match f.Machine.target with
  | Machine.Flip_reg (r, b) ->
      Printf.sprintf "flip r%d bit %d (slice byte %d) @ instr %d" r b (b / 8)
        f.Machine.at_instr
  | Machine.Flip_mem (a, b) ->
      Printf.sprintf "flip mem[0x%x] bit %d @ instr %d" a b f.Machine.at_instr
  | Machine.Flip_delta b ->
      Printf.sprintf "flip Δ bit %d @ instr %d" b f.Machine.at_instr

let describe_trial t =
  let extra =
    match t.verdict with
    | Detected n -> Printf.sprintf " (+%d misspec%s)" n (if n = 1 then "" else "s")
    | Sdc v -> Printf.sprintf " (checksum %Ld)" v
    | Trapped k -> Printf.sprintf " (%s)" (Outcome.trap_message k)
    | Masked | Hung -> ""
  in
  Printf.sprintf "%-28s -> %s%s" (describe_fault t.tfault)
    (verdict_name t.verdict) extra

(* Draw one fault.  Register flips dominate (they model the latch upsets
   the slice ALU sits behind); the register is drawn from the allocatable
   file, never SP/LR — flipping the stack pointer tests the memory system,
   which the memory target already covers more directly. *)
let gen_fault rng ~max_instr ~mem_lo ~mem_hi : Machine.fault =
  let at_instr = Rng.int_in rng 1 (max 1 max_instr) in
  let target =
    match Rng.int rng 6 with
    | 0 | 1 | 2 ->
        Machine.Flip_reg (Rng.int rng 13 (* r0-r12 *), Rng.int rng 32)
    | 3 | 4 ->
        Machine.Flip_mem (Rng.int_in rng mem_lo (max mem_lo mem_hi),
                          Rng.int rng 8)
    | _ -> Machine.Flip_delta (Rng.int rng 4)
  in
  { Machine.at_instr; target }

(* Register flips only — the target population of the bit-level
   vulnerability validation, where each trial must map to one register
   bit position. *)
let gen_reg_fault rng ~max_instr : Machine.fault =
  let at_instr = Rng.int_in rng 1 (max 1 max_instr) in
  { Machine.at_instr;
    target = Machine.Flip_reg (Rng.int rng 13, Rng.int rng 32) }

let run_trial ~mode ~fuel ~(program : Bs_backend.Asm.program)
    ~(mem : unit -> Bs_interp.Memimage.t) ~entry ~args ~expected
    ~golden_misspecs (fault : Machine.fault) : trial =
  let config =
    { Machine.default_config with mode; fuel; fault = Some fault }
  in
  let verdict =
    match Machine.run ~config program (mem ()) ~entry ~args with
    | r -> (
        match r.Machine.outcome with
        | Outcome.Out_of_fuel | Outcome.Livelock -> Hung
        | Outcome.Finished | Outcome.Trapped _ ->
            if r.Machine.r0 = expected then
              let extra =
                r.Machine.ctr.Counters.misspecs - golden_misspecs
              in
              if extra > 0 then Detected extra else Masked
            else Sdc r.Machine.r0)
    | exception Machine.Sim_trap k -> Trapped k
    | exception Bs_interp.Memimage.Fault m -> Trapped (Outcome.Memory_fault m)
  in
  { tfault = fault; verdict }

type summary = {
  trials : int;
  masked : int;
  detected : int;
  trapped : int;
  sdc : int;
  hung : int;
}

let summarize trials =
  let s =
    List.fold_left
      (fun s t ->
        match t.verdict with
        | Masked -> { s with masked = s.masked + 1 }
        | Detected _ -> { s with detected = s.detected + 1 }
        | Trapped _ -> { s with trapped = s.trapped + 1 }
        | Sdc _ -> { s with sdc = s.sdc + 1 }
        | Hung -> { s with hung = s.hung + 1 })
      { trials = 0; masked = 0; detected = 0; trapped = 0; sdc = 0; hung = 0 }
      trials
  in
  { s with trials = List.length trials }

let summary_rows s =
  [ ("masked", s.masked); ("detected", s.detected); ("trapped", s.trapped);
    ("sdc", s.sdc); ("hang", s.hung) ]
