(** The BITSPEC compilation driver (the paper's Figure 4 pipeline).

    [compile] takes MiniC source through the front-end, the expander
    (§3.2.1), CFG preparation (§3.2.3 pass ①), profile-guided squeezing
    (passes ②③), the BITSPEC-specific optimisations, and the back-end to a
    linked binary image; [run_machine] executes that image on the
    cycle-level machine model.

    Failure policy: in {!Strict} mode (the default) the first pass failure
    propagates as an exception.  In {!Degrade} mode pass failures are
    isolated per function — a function the squeezer, verifier, or register
    allocator cannot handle falls back to its baseline (non-speculative)
    compilation, a structured {!Bs_support.Diag.t} is recorded, and the
    rest of the module still ships as BITSPEC. *)

(** Target architectures: the paper's BASELINE processor, the processor
    with the BITSPEC ISA/microarchitecture extensions, and the
    compact-ISA comparison point of RQ9. *)
type arch = Baseline | Bitspec_arch | Thumb

(** Failure policy: fail-fast, or per-function graceful degradation. *)
type mode = Strict | Degrade

type config = {
  arch : arch;
  heuristic : Bs_interp.Profile.heuristic;  (** T = MAX / AVG / MIN (§3.2.2) *)
  expander : Expander.config;               (** inlining/unrolling budgets *)
  speculate : bool;  (** [false] = RQ2's no-speculation variant *)
  compare_elim : bool;   (** §3.2.4 *)
  bitmask_elide : bool;  (** RQ3's second ablation *)
  orig_first : bool;
      (** RQ5: invert the allocator's handler branch weights so CFG_orig
          gets first pick of registers *)
}

val bitspec_config : config
(** The paper's default BITSPEC build: T = MAX, expander on, both
    optimisations enabled. *)

val baseline_config : config
(** The BASELINE build: conventional ISA, no speculation. *)

val thumb_config : config
(** RQ9's compact-ISA build: 8 registers, 2-address operations. *)

val config_tag : config -> string
(** An injective rendering of every code-affecting field — the
    configuration half of a {!Compile_cache} key (and the bench
    harness's cell keys). *)

val expander_tag : config -> string
(** The expander-only slice of {!config_tag}.  Configurations with
    equal expander tags shape identical pre-squeeze modules from the
    same source, so their training runs observe identical profiles —
    the configuration half of a [profile_key] (see {!compile}). *)

(** Compiler-level fault injection: force one pass to fail on one
    function, exercising the degradation machinery end to end.
    [Fault_squeeze] and [Fault_regalloc] raise inside the pass (degrade
    mode recovers them); [Fault_miscompile] silently flips one operation
    of the function {e after} all passes and verification, planting a
    genuine miscompile that only differential testing can observe — the
    fuzz subsystem's self-test. *)
type injected_pass = Fault_squeeze | Fault_regalloc | Fault_miscompile

type pass_fault = { fault_pass : injected_pass; fault_func : string }

exception Injected_fault of string

type compiled = {
  ir : Bs_ir.Ir.modul;                      (** the final (squeezed) SIR *)
  program : Bs_backend.Asm.program;         (** linked binary image *)
  config : config;
  profile : Bs_interp.Profile.t option;     (** the training profile used *)
  squeeze_stats : Squeezer.stats option;
  diagnostics : Bs_support.Diag.t list;
      (** degradations and skipped passes, in pipeline order; empty in a
          clean strict build *)
  remarks : Bs_obs.Remark.t list;
      (** optimisation remarks from the squeezer, compare elimination
          and bitmask elision, in canonical ({!Bs_obs.Remark.compare})
          order — identical at any job count *)
}

val profile_module :
  Bs_ir.Ir.modul ->
  ?setup:(Bs_ir.Ir.modul -> Bs_interp.Memimage.t -> unit) ->
  ?interp_engine:Bs_interp.Interp.engine ->
  train:(string * int64 list) list ->
  unit ->
  Bs_interp.Profile.t
(** [profile_module m ~train ()] interprets [m] on each [(entry, args)]
    training run, recording per-variable bitwidth statistics (§3.2.2).
    [setup] initialises workload input data in each run's memory image;
    [interp_engine] (default [Compiled]) picks the interpreter engine —
    the recorded profile is engine-invariant. *)

val lower_to_machine :
  ?orig_first:bool -> Bs_ir.Ir.modul -> arch:arch -> Bs_backend.Asm.program
(** Back-end only: instruction selection, register allocation, layout and
    linking of an already-prepared module. *)

(** {1 Two-stage compilation}

    The pipeline's front half — front end, expander, CFG preparation —
    depends only on the source and the expander budgets, and the training
    profile only on that module and the training input.  Every
    configuration with the same {!Expander.config} (all of
    {!bitspec_config}, {!baseline_config}, {!thumb_config} and their
    heuristic variants) can therefore finish from one {!front}.
    {!compile} is exactly [finish (prepare ...)]. *)

type front
(** A prepared pre-squeeze module, with the diagnostics of the front
    half and a lazily run training profile.  A front is never mutated by
    {!finish}; it is not safe to finish one front from two domains at
    once (its profile is forced on first use). *)

val prepare :
  ?mode:mode ->
  ?interp_engine:Bs_interp.Interp.engine ->
  ?profile_key:string ->
  ?lowered:Bs_ir.Ir.modul ->
  expander:Expander.config ->
  source:string ->
  ?setup:(Bs_ir.Ir.modul -> Bs_interp.Memimage.t -> unit) ->
  train:(string * int64 list) list ->
  unit ->
  front
(** Front end → expander → CFG preparation, with the verifier after
    each pass and, in {!Degrade} mode, per-pass rollback and
    diagnostics.  [lowered] is [Lower.compile source] when the caller
    already has it; [prepare] takes it over instead of lowering again.
    [interp_engine], [profile_key], [setup] and [train] describe the
    training run, which runs only when a speculative {!finish} first
    needs it.  Front-end errors raise, as for {!compile}. *)

val finish : ?pass_fault:pass_fault -> config:config -> front -> compiled
(** Profile → squeeze → BITSPEC optimisations → back-end, on a copy of
    the front's module, under the front's {!mode}.  [config.expander]
    must be the one the front was prepared with ([Invalid_argument]
    otherwise). *)

val front_ir : front -> Bs_ir.Ir.modul
(** The front's pre-squeeze module.  Read-only. *)

val compile :
  ?mode:mode ->
  ?pass_fault:pass_fault ->
  ?interp_engine:Bs_interp.Interp.engine ->
  ?profile_key:string ->
  config:config ->
  source:string ->
  ?setup:(Bs_ir.Ir.modul -> Bs_interp.Memimage.t -> unit) ->
  train:(string * int64 list) list ->
  unit ->
  compiled
(** Full pipeline from MiniC source.  [train] and [setup] drive the
    profiler; they are ignored by non-speculative configurations.
    [mode] selects the failure policy (default {!Strict}); front-end
    errors ([Lexer.Error], [Parser.Error], [Typecheck.Error],
    [Lower.Error]) always raise — there is no module to degrade yet.
    [pass_fault] injects a compiler fault for testing; [interp_engine]
    picks the profiling interpreter's engine (the compiled artifact is
    engine-invariant).

    [profile_key] opts the training run into a process-wide memo:
    profiling is heuristic-independent, so configurations that share a
    pre-squeeze form (a MAX/AVG/MIN sweep) reuse one run.  The caller
    must content-address everything the profile depends on — source,
    {!expander_tag}, training entries/args, the profile input's
    identity — and the resulting {!Profile.t} is shared, read-only.
    Ignored in degrade mode, where a rolled-back pass can leave a
    pre-squeeze module that is no longer the pure function the key
    names.  ([pass_fault] acts only after profiling.) *)

val total :
  (unit -> compiled) -> (compiled, Bs_support.Diag.t list) result
(** [total f] runs a compile, converting any exception it raises
    (front-end errors included) into one [BS-FE-01] diagnostic. *)

val try_compile :
  ?pass_fault:pass_fault ->
  ?interp_engine:Bs_interp.Interp.engine ->
  config:config ->
  source:string ->
  ?setup:(Bs_ir.Ir.modul -> Bs_interp.Memimage.t -> unit) ->
  train:(string * int64 list) list ->
  unit ->
  (compiled, Bs_support.Diag.t list) result
(** Total degrade-mode compilation: never raises.  [Error] carries at
    least one diagnostic (front-end failures included).  The same as
    [total (fun () -> compile ~mode:Degrade ...)]. *)

val run_machine :
  ?setup:(Bs_interp.Memimage.t -> unit) ->
  ?fuel:int ->
  ?fault:Bs_sim.Machine.fault ->
  ?power:Bs_sim.Machine.power ->
  ?engine:Bs_sim.Machine.engine ->
  compiled ->
  entry:string ->
  args:int64 list ->
  Bs_sim.Machine.result
(** Simulate the compiled binary on a fresh memory image.  [setup] fills
    workload inputs; [fuel] bounds dynamic instructions; [fault] injects a
    single bit flip mid-run; [power] runs under injected power failures
    with checkpoint/restore; [engine] picks the dispatch engine (default
    [Jit]; results are identical across engines). *)

val run_reference :
  ?setup:(Bs_interp.Memimage.t -> unit) ->
  ?interp_engine:Bs_interp.Interp.engine ->
  compiled ->
  entry:string ->
  args:int64 list ->
  Bs_interp.Interp.result
(** Execute the compiled module's IR on the reference interpreter (the
    differential-testing oracle).  [interp_engine] (default [Compiled])
    picks the interpreter engine; results are engine-invariant. *)
