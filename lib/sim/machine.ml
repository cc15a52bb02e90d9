open Bs_isa
open Isa
open Bs_interp
open Superblock

(* The BSARM machine model: a 32-bit, single-issue, in-order 6-stage
   pipeline with the BITSPEC misspeculation hardware (§3.5).

   Register slices alias register bytes exactly as in hardware: reading
   slice (r, k) extracts byte k of Rr, writing it replaces that byte only.
   The slice ALU detects misspeculation from carry/overflow at the slice
   boundary; on misspeculation the result is not written and the PC is
   displaced by the Δ special register, landing on the skeleton branch
   that enters the current region's handler.

   Timing: 1 cycle per instruction, +2 for taken branches (fetch
   redirect), +1 for load-use hazards, +2 for MUL, +10 for DIV, plus the
   memory hierarchy (L1 hit 0, L2 8, DRAM 60 extra cycles).  Misspeculation
   costs the redirect plus the skeleton branch.

   Each instruction's semantics and costs are described once, in
   [Superblock]; this module owns the dispatch loops, fault injection
   and intermittent-power execution.  By default hot paths run as fused
   traces; power and fault runs, and runs with [fuse] cleared, dispatch
   the unfused per-PC bodies one instruction at a time. *)

exception Sim_trap = Superblock.Sim_trap

(* Fault injection (soft-error model): one single-bit flip, applied just
   before the [at_instr]-th dynamic instruction executes.  Targets mirror
   the hardware state the paper's mechanism touches: register (slice)
   bits, memory bits, and the Δ redirect register. *)
type fault_target =
  | Flip_reg of int * int     (* register, bit 0-31 (bits 0-7 of byte k
                                 alias slice (r, k)) *)
  | Flip_mem of int * int     (* byte address, bit 0-7 *)
  | Flip_delta of int         (* bit of the Δ special register *)

type fault = { at_instr : int; target : fault_target }

(* Intermittent-power execution: run under a seeded outage trace with a
   checkpoint policy.  On an outage the machine rolls back to the last
   checkpoint (registers via [Checkpoint.saved], memory via the
   [Memimage] undo journal) and re-executes; [max_retries] consecutive
   restores without an intervening checkpoint degrade the policy to
   additionally checkpoint before every store, and twice that gives up
   with the [Livelock] outcome. *)
type power = {
  trace : Powertrace.t;
  policy : Checkpoint.policy;
  max_retries : int;
}

type config = {
  mode : Isa.mode;
  fuel : int;                 (* max dynamic instructions *)
  fault : fault option;       (* inject one bit flip during the run *)
  power : power option;       (* run under injected power failures *)
  fuse : bool;                (* fuse hot paths into traces; identical
                                 results either way *)
}

let default_config =
  { mode = Isa.Bitspec; fuel = 1_000_000_000; fault = None; power = None;
    fuse = true }

type result = {
  r0 : int64;
  outcome : Bs_support.Outcome.t;
  fault_applied : bool;
  ctr : Counters.t;
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t;
  misspec_pcs : (int * int) list;
      (* (pc, count) per misspeculating instruction, sorted by pc;
         counts sum to [ctr.misspecs].  Resolve pcs to source sites
         through [Asm.program.srcmap]. *)
}

(* Pre-decoded per-PC flags for the power hooks, computed once per run:
   the slice-extension flag (CLASSIC-mode trap, pre-speculation
   checkpoints) and the store flag (pre-store checkpoints). *)
let meta_slice = 1
let meta_store = 2

let predecode (p : Bs_backend.Asm.program) : int array =
  Array.map
    (fun insn ->
      (if is_slice_insn insn then meta_slice else 0)
      lor match insn with STR _ | BSTRB _ -> meta_store | _ -> 0)
    p.Bs_backend.Asm.code

let run ?(config = default_config) (p : Bs_backend.Asm.program)
    (mem : Memimage.t) ~entry ~(args : int64 list) : result =
  let t_start = Unix.gettimeofday () in
  let ctr = Counters.create () in
  let misspec_pc_counts : (int, int) Hashtbl.t = Hashtbl.create 16 in
  let icache = Cache.l1i () and dcache = Cache.l1d () and l2 = Cache.l2 () in
  let st =
    { Superblock.regs = Array.make num_regs 0; pc = 0;
      delta = p.Bs_backend.Asm.delta;
      mode = config.mode; halted = false; cmp_a = 0; cmp_b = 0;
      cmp_width8 = false; last_load_dest = -1 }
  in
  let entry_pc =
    match Hashtbl.find_opt p.Bs_backend.Asm.entries entry with
    | Some e -> e
    | None -> raise (Sim_trap (Bs_support.Outcome.Unknown_entry entry))
  in
  (* stack and arguments (stack-args convention) *)
  let sp_top = Memimage.size mem - 64 in
  let n = List.length args in
  let sp0 = sp_top - (4 * n) in
  List.iteri
    (fun k a -> Memimage.write mem ~width:32 (sp0 + (4 * k)) a)
    args;
  st.regs.(sp) <- sp0;
  st.regs.(lr) <- p.Bs_backend.Asm.halt_pc;
  st.pc <- entry_pc;
  let outcome = ref Bs_support.Outcome.Finished in
  let fault_applied = ref false in
  let apply_fault () =
    match config.fault with
    | Some f when (not !fault_applied) && ctr.Counters.instrs >= f.at_instr
      -> (
        fault_applied := true;
        match f.target with
        | Flip_reg (r, b) -> st.regs.(r) <- mask32 (st.regs.(r) lxor (1 lsl b))
        | Flip_mem (addr, b) ->
            let v = Memimage.read mem ~width:8 addr in
            Memimage.write mem ~width:8 addr
              (Int64.logxor v (Int64.of_int (1 lsl b)))
        | Flip_delta b -> st.delta <- st.delta lxor (1 lsl b))
    | _ -> ()
  in
  (* --- intermittent-power machinery ------------------------------------ *)
  (* One capture buffer per run; capture and restore are allocation-free
     (the pre-store policy checkpoints on every store). *)
  let saved = Checkpoint.create ~num_regs in
  let restores_since_ckpt = ref 0 in
  let degraded = ref false in
  (* instr count at the last checkpoint or restore: re-executed (wasted)
     work at an outage is what ran since the last resume point, not since
     the checkpoint — consecutive strikes without an intervening
     checkpoint must not re-count earlier losses *)
  let resumed_at = ref 0 in
  (* net useful instrs captured by the last checkpoint.  A checkpoint
     only counts as progress — and only then resets the retry budget —
     if it snapshots a state further along than the previous one;
     re-checkpointing the same spot after a rollback must not. *)
  let last_ckpt_net = ref (-1) in
  let take_checkpoint () =
    ctr.Counters.checkpoint_bytes <-
      ctr.Counters.checkpoint_bytes
      + Checkpoint.cost_bytes ~num_regs ~dirty:(Memimage.journal_pending mem);
    Memimage.journal_commit mem;
    Array.blit st.regs 0 saved.Checkpoint.s_regs 0 num_regs;
    saved.Checkpoint.s_pc <- st.pc;
    saved.Checkpoint.s_delta <- st.delta;
    saved.Checkpoint.s_mode <- st.mode;
    saved.Checkpoint.s_cmp_a <- st.cmp_a;
    saved.Checkpoint.s_cmp_b <- st.cmp_b;
    saved.Checkpoint.s_cmp_width8 <- st.cmp_width8;
    saved.Checkpoint.s_last_load_dest <- st.last_load_dest;
    saved.Checkpoint.s_at_instrs <- ctr.Counters.instrs;
    resumed_at := ctr.Counters.instrs;
    (let net = ctr.Counters.instrs - ctr.Counters.reexec_instrs in
     if net > !last_ckpt_net then begin
       last_ckpt_net := net;
       restores_since_ckpt := 0
     end);
    ctr.Counters.checkpoints <- ctr.Counters.checkpoints + 1;
    stall_other ctr Checkpoint.checkpoint_cycles
  in
  let restore_checkpoint max_retries =
    ctr.Counters.restores <- ctr.Counters.restores + 1;
    ctr.Counters.reexec_instrs <-
      ctr.Counters.reexec_instrs + (ctr.Counters.instrs - !resumed_at);
    resumed_at := ctr.Counters.instrs;
    Memimage.journal_undo mem;
    Array.blit saved.Checkpoint.s_regs 0 st.regs 0 num_regs;
    st.pc <- saved.Checkpoint.s_pc;
    st.delta <- saved.Checkpoint.s_delta;
    st.mode <- saved.Checkpoint.s_mode;
    st.cmp_a <- saved.Checkpoint.s_cmp_a;
    st.cmp_b <- saved.Checkpoint.s_cmp_b;
    st.cmp_width8 <- saved.Checkpoint.s_cmp_width8;
    st.last_load_dest <- saved.Checkpoint.s_last_load_dest;
    stall_other ctr Checkpoint.restore_cycles;
    incr restores_since_ckpt;
    (* Livelock detection: repeated restores with no forward-progress
       checkpoint in between mean every outage precedes the next commit
       point (re-checkpointing the same spot does not count — see
       [last_ckpt_net]).  Degrade once to additionally checkpoint before
       every store; if even that cannot outrun the outages, give up. *)
    if !restores_since_ckpt > max_retries then
      if not !degraded then begin
        degraded := true;
        ctr.Counters.livelock_degrades <- ctr.Counters.livelock_degrades + 1
      end
      else if !restores_since_ckpt > 2 * max_retries then begin
        outcome := Bs_support.Outcome.Livelock;
        st.halted <- true
      end
  in
  (match config.power with
  | Some _ ->
      (* boot commit: entry state (arguments included) survives the
         first outage *)
      Memimage.journal_start mem;
      take_checkpoint ()
  | None -> ());
  (* checkpoint/outage policy, evaluated before each instruction of a
     power run; true when an outage rolled the machine back *)
  let power_step m =
    match config.power with
    | None -> false
    | Some pw ->
        let want_ckpt =
          (match pw.policy with
          | Checkpoint.Interval n ->
              ctr.Counters.instrs - saved.Checkpoint.s_at_instrs >= n
          | Checkpoint.Pre_store -> m land meta_store <> 0
          | Checkpoint.Pre_speculation -> m land meta_slice <> 0)
          || (!degraded && m land meta_store <> 0)
        in
        if want_ckpt then take_checkpoint ();
        if Powertrace.fires pw.trace ~instrs:ctr.Counters.instrs ~pc:st.pc
        then begin
          restore_checkpoint pw.max_retries;
          true
        end
        else false
  in
  let cx =
    { Superblock.st; ctr; mem; icache; dcache; l2;
      pc_counts = misspec_pc_counts; prog = p; fuel = config.fuel }
  in
  let bodies, settle = compile_bodies cx in
  let unhooked = config.power = None && config.fault = None in
  let dispatch =
    (* traces fuse multiple instructions into one closure, so they are
       only sound when nothing can strike between two instructions *)
    if config.fuse && unhooked then install_jit cx bodies else bodies
  in
  let ncode = Array.length p.Bs_backend.Asm.code in
  let fuel = config.fuel in
  if unhooked then
    (* fast loop: bounds, fetch, charge, fuel, one indirect call *)
    while not st.halted do
      let pc = st.pc in
      if pc < 0 || pc >= ncode then
        raise (Sim_trap (Bs_support.Outcome.Pc_out_of_range pc));
      fetch cx pc;
      ctr.Counters.instrs <- ctr.Counters.instrs + 1;
      ctr.Counters.cycles <- ctr.Counters.cycles + 1;
      if ctr.Counters.instrs > fuel then begin
        outcome := Bs_support.Outcome.Out_of_fuel;
        st.halted <- true
      end
      else st.pc <- (Array.unsafe_get dispatch pc) ()
    done
  else begin
    (* hooked loop: checkpoint/outage and fault hooks between the
       slice-mode check and the body *)
    let meta = predecode p in
    while not st.halted do
      let pc = st.pc in
      if pc < 0 || pc >= ncode then
        raise (Sim_trap (Bs_support.Outcome.Pc_out_of_range pc));
      let m = Array.unsafe_get meta pc in
      if m land meta_slice <> 0 && st.mode = Isa.Classic then
        raise (Sim_trap Bs_support.Outcome.Classic_mode_slice);
      if not (power_step m) then begin
        fetch cx pc;
        ctr.Counters.instrs <- ctr.Counters.instrs + 1;
        ctr.Counters.cycles <- ctr.Counters.cycles + 1;
        if ctr.Counters.instrs > fuel then begin
          outcome := Bs_support.Outcome.Out_of_fuel;
          st.halted <- true
        end
        else begin
          apply_fault ();
          let nx = (Array.unsafe_get dispatch pc) () in
          if not st.halted then st.pc <- nx
        end
      end
    done
  end;
  settle ();
  if config.power <> None then Memimage.journal_stop mem;
  let misspec_pcs =
    List.sort compare
      (Hashtbl.fold (fun pc n acc -> (pc, n) :: acc) misspec_pc_counts [])
  in
  ctr.Counters.wall_ns <-
    int_of_float ((Unix.gettimeofday () -. t_start) *. 1e9);
  { r0 = Int64.of_int (st.regs.(0) land 0xFFFFFFFF); outcome = !outcome;
    fault_applied = !fault_applied; ctr; icache; dcache; l2; misspec_pcs }
