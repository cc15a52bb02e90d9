(** The differential oracle.

    One source program is interpreted pristine (the reference) and
    compiled + simulated under every build configuration; any disagreement
    is classified into a stable {!Bs_support.Bucket.t}.  The oracle never
    raises: traps, fuel exhaustion, front-end rejections and pass
    degradations all classify. *)

open Bs_support
open Bitspec

type engine = { ename : string; config : Driver.config }

val engines : engine list
(** The configurations compared against the reference interpreter, in
    fixed order: baseline, bitspec-max, bitspec-avg, bitspec-min, thumb.
    The order makes the first-divergence bucket deterministic.  All
    share {!Bitspec.Expander.default}: {!run} finishes them from one
    {!Driver.front}. *)

(** How one execution ended, coarsened for comparison. *)
type exec_obs =
  | Value of int64      (** finished; result masked to 32 bits *)
  | Fuel                (** instruction budget exhausted *)
  | Trap of string      (** trapped; stable {!Outcome.trap_name}-style name *)

type verdict =
  | Agree of exec_obs
      (** every configuration matches the reference observation *)
  | Skip of string
      (** the reference itself ran out of fuel: no ground truth *)
  | Crash of { bucket : Bucket.t; details : string }
      (** a divergence; [details] is a human-readable account (values,
          traps, diagnostics) — never part of the bucket key *)

val run :
  ?plant:Driver.pass_fault ->
  ?fuel:int ->
  ?train:(string * int64 list) list ->
  ?interp_engine:Bs_interp.Interp.engine ->
  source:string ->
  entry:string ->
  args:int64 list ->
  unit ->
  verdict
(** Run the full differential comparison.  The pristine lowering the
    reference runs on also seeds one {!Driver.front}, built on the first
    compile-cache miss and dropped when the call returns; each
    configuration that misses finishes from it.  [plant] injects a compiler
    fault into every configuration's compile (the planted-bug self-test);
    [fuel] bounds both the reference interpreter and each machine run
    (default 2,000,000); [train] is the profiling input (default: [entry]
    on {!Gen.train_args}); [interp_engine] picks the reference
    interpreter's engine (default [Compiled]) — the verdict is invariant
    under it, so differencing verdicts across engines is itself an engine
    test. *)

val describe : verdict -> string

(** {1 Intermittent-power replay} *)

type power_verdict = {
  p_bucket : Bs_support.Bucket.t option;
      (** [None]: completed without a restore (nothing to triage) *)
  p_details : string;
}

val run_power :
  ?train:(string * int64 list) list ->
  source:string ->
  entry:string ->
  args:int64 list ->
  power:Corpus.power_meta ->
  unit ->
  power_verdict
(** Replay [source] under the recorded power-failure configuration and
    classify against the same binary's fault-free machine run: correct
    checksum through [n > 0] restores ⇒ the [restored] bucket, retry
    exhaustion ⇒ [reexec-livelock], fuel ⇒ [hang], a wrong checksum ⇒
    [result-mismatch:power] (a checkpoint/restore bug). *)

val describe_power : power_verdict -> string
