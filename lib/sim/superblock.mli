(** Execution of the BSARM machine model: each instruction described once,
    run unfused or fused.

    Every fusible instruction is described by one semantic closure (its
    {e step}: register, compare-state and memory effects, dynamic D$/L2
    stalls, the misspeculation guard) plus a static {e ledger} of the
    counters it bumps — split into an execute side, paid even when the
    instruction misspeculates, and a write-back side — together with its
    spill/copy provenance, the registers its load-use hazard check
    watches, and the load destination it leaves behind.  Both execution
    paths are built from that description:

    - {b Unfused per-PC bodies} ({!compile_bodies}): one instruction's
      step whose continuation checks the load-use hazard, owes the
      instruction's whole ledger and returns [pc + 1]; its misspeculation
      exit flushes only the execute side and returns [pc + Δ].  Only the
      seven non-fusible instructions (B, BC, BL, BX_LR, HALT, SETDELTA,
      SETMODE) have hand-written bodies.  Power and fault runs dispatch
      these bodies only, as does a run with fusion switched off; the
      trace-JIT falls back to them.

    - {b Superblock trace-JIT} ({!install_jit}): hot paths — found
      statically at block leaders and fused lazily past a promotion
      threshold — chain the same steps into one closure.  A trace is a
      {e path}, not a contiguous range: it stitches straight-line runs
      together through unconditional jumps and calls, and through
      conditional branches predicted by a taken-direction heuristic that
      is kept only when it closes a loop back to the trace head.  Each
      exit flushes the prefix sum of the path's ledgers in one shot,
      instruction fetches are batched per cache line via
      {!Cache.bump_hits}, and a loop trace defers even the per-iteration
      flush until the loop finally exits.  Guard exits (misspeculation, a
      conditional going the unpredicted way, fuel expiry, classic-mode
      slice use) flush their ledger and fall back to the unfused bodies.

    Both paths are byte-identical in observable effect (counters,
    outcome, memory image, cache state); the only sanctioned divergence
    is counter state at the moment an exception escapes, which no caller
    can observe.  Traces must only be installed when the run has no power
    trace and no fault injection. *)

exception Sim_trap of Bs_support.Outcome.trap
(** The machine's structured trap.  {!Machine.Sim_trap} rebinds this
    exception, so the two are interchangeable. *)

(** {1 Architectural state} *)

type state = {
  regs : int array;  (** 32-bit values *)
  mutable pc : int;
  mutable delta : int;
  mutable mode : Bs_isa.Isa.mode;
  mutable halted : bool;
  mutable cmp_a : int;
  mutable cmp_b : int;
  mutable cmp_width8 : bool;
  mutable last_load_dest : int;
      (** register written by the previous load, [-1] if none *)
}

val mask32 : int -> int

val stall_other : Counters.t -> int -> unit
(** Charge [n] stall cycles not attributed to a branch or a load-use
    hazard (memory latency, checkpoint/restore). *)

(** {1 Dispatch context} *)

(** Everything the execution paths need, bundled once per run. *)
type ctx = {
  st : state;
  ctr : Counters.t;
  mem : Bs_interp.Memimage.t;
  icache : Cache.t;
  dcache : Cache.t;
  l2 : Cache.t;
  pc_counts : (int, int) Hashtbl.t;
      (** misspeculation counts per faulting pc, shared with the
          machine's attribution table *)
  prog : Bs_backend.Asm.program;
  fuel : int;
}

val fetch : ctx -> int -> unit
(** Instruction fetch for [pc]: I$ → L2 → DRAM. *)

(** {1 Execution} *)

val compile_bodies : ctx -> (unit -> int) array * (unit -> unit)
(** One unfused body per PC, and the run's settle step.  Contract: the
    dispatch loop has already bounds-checked the pc, fetched it through
    the I$, charged one instruction and one cycle, and checked fuel; the
    body performs the instruction (hazard, semantics, [last_load_dest])
    and returns the successor pc.  A fusible instruction's static ledger
    is not paid per execution: the body counts its completions, and
    [settle ()] — called once, when the run stops — adds ledger ×
    completions to the counters; until then they lack those ledgers
    ([instrs] is always current, since the loop charges it).  A
    body whose instruction names a register outside the register file
    raises [Invalid_argument] when run. *)

val install_jit : ctx -> (unit -> int) array -> (unit -> int) array
(** A dispatch table over [bodies] with a lazily-promoting profiling
    closure at every trace head.  Only valid for runs with no power trace
    and no fault injection. *)
