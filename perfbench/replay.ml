(* Stage-by-stage replay of [Driver.compile] (strict mode) through each
   layer's public entry point, with a span around every call:

     Lower.compile -> Expander.run -> Cfg_prep.run -> Driver.profile_module
     -> Squeezer.run_func -> Compare_elim.run -> Bitmask_elide.run
     -> Constfold/Dce -> Isel.lower_func -> Regalloc.run -> Asm.assemble
     -> Thumb.expand

   then [Driver.run_machine] and [Interp.run_fresh]; every [Verifier] call
   is its own span.  The sequence mirrors [Driver.compile], so the replay must
   reproduce its [Asm.program] and machine counters exactly —
   [same_program]/[same_run] are the fidelity check that keeps the
   per-layer numbers describing the pipeline that ships. *)

open Bs_ir
open Bs_interp
open Bs_backend
open Bs_sim
open Bitspec

(* Work counts taken at the layer boundaries, summed over a run. *)
type counts = {
  mutable ir_instrs : int;     (* IR instructions after the expander *)
  mutable squeezed : int;
  mutable ce_applied : int;
  mutable be_applied : int;
  mutable minstrs : int;       (* machine IR instructions out of isel *)
  mutable spill_slots : int;
  mutable code_words : int;    (* assembled instructions *)
  mutable machine_instrs : int;
  mutable interp_steps : int;
}

let counts =
  { ir_instrs = 0; squeezed = 0; ce_applied = 0; be_applied = 0;
    minstrs = 0; spill_slots = 0; code_words = 0; machine_instrs = 0;
    interp_steps = 0 }

(* Counts are taken on the traced pass only, so they describe one replay. *)
let count f = if !Span.recording then f counts

let verify f = Span.span "verifier" f

let module_instrs (m : Ir.modul) =
  List.fold_left
    (fun acc (f : Ir.func) ->
      List.fold_left
        (fun acc (b : Ir.block) -> acc + List.length b.Ir.instrs)
        acc f.Ir.blocks)
    0 m.Ir.funcs

let mfunc_instrs (mf : Mir.mfunc) =
  List.fold_left
    (fun acc (b : Mir.mblock) -> acc + List.length b.Mir.mins)
    0 mf.Mir.mblocks

(** Profiles shared between the cells of one group, keyed by
    {!Driver.expander_tag} — the MAX/AVG/MIN sweep trains once per
    kernel, as [Experiment] does through [Driver]'s profile memo. *)
type profiles = (string, Profile.t) Hashtbl.t

let compile ?(profiles : profiles option) ~(config : Driver.config) ~source
    ?setup ~train () : Driver.compiled =
  let m = Span.span "lower" (fun () -> Bs_frontend.Lower.compile source) in
  Span.span "expander" (fun () ->
      ignore (Expander.run m config.Driver.expander));
  count (fun c -> c.ir_instrs <- c.ir_instrs + module_instrs m);
  verify (fun () -> Verifier.verify_exn m);
  Span.span "cfg_prep" (fun () -> ignore (Cfg_prep.run m));
  verify (fun () -> Verifier.verify_exn m);
  let profile, squeeze_stats =
    if config.Driver.arch = Driver.Bitspec_arch && config.Driver.speculate
    then begin
      let train_once () =
        Span.span "profile" (fun () -> Driver.profile_module m ?setup ~train ())
      in
      let profile =
        match profiles with
        | None -> train_once ()
        | Some tbl -> (
            let k = Driver.expander_tag config in
            match Hashtbl.find_opt tbl k with
            | Some p -> p
            | None ->
                let p = train_once () in
                Hashtbl.add tbl k p;
                p)
      in
      let total = Squeezer.fresh_stats () in
      List.iter
        (fun (f : Ir.func) ->
          let s =
            Span.span "squeezer" (fun () ->
                Squeezer.run_func m f ~profile
                  ~heuristic:config.Driver.heuristic)
          in
          verify (fun () -> Verifier.check_func f);
          total.Squeezer.squeezed <-
            total.Squeezer.squeezed + s.Squeezer.squeezed;
          total.Squeezer.truncs <- total.Squeezer.truncs + s.Squeezer.truncs;
          total.Squeezer.exts <- total.Squeezer.exts + s.Squeezer.exts;
          total.Squeezer.regions <-
            total.Squeezer.regions + s.Squeezer.regions)
        m.Ir.funcs;
      count (fun c -> c.squeezed <- c.squeezed + total.Squeezer.squeezed);
      if config.Driver.compare_elim then begin
        let n = Span.span "compare_elim" (fun () -> Compare_elim.run m) in
        count (fun c -> c.ce_applied <- c.ce_applied + n);
        verify (fun () -> Verifier.verify_exn m)
      end;
      if config.Driver.bitmask_elide then begin
        let n = Span.span "bitmask_elide" (fun () -> Bitmask_elide.run m) in
        count (fun c -> c.be_applied <- c.be_applied + n);
        verify (fun () -> Verifier.verify_exn m)
      end;
      Span.span "late_opt" (fun () ->
          ignore (Bs_opt.Constfold.run m);
          ignore (Bs_opt.Dce.run m));
      verify (fun () -> Verifier.verify_exn m);
      (Some profile, Some total)
    end
    else (None, None)
  in
  let arch = config.Driver.arch in
  let funcs =
    List.map
      (fun (f : Ir.func) ->
        let mf =
          Span.span "isel" (fun () ->
              Isel.lower_func ~slices:(arch = Driver.Bitspec_arch) f)
        in
        count (fun c -> c.minstrs <- c.minstrs + mfunc_instrs mf);
        let ra =
          Span.span "regalloc" (fun () ->
              match arch with
              | Driver.Thumb ->
                  Regalloc.run ~regs:Thumb.thumb_regs
                    ~orig_first:config.Driver.orig_first mf
              | Driver.Baseline | Driver.Bitspec_arch ->
                  Regalloc.run ~orig_first:config.Driver.orig_first mf)
        in
        count (fun c -> c.spill_slots <- c.spill_slots + ra.Regalloc.spill_slots);
        (mf, ra))
      m.Ir.funcs
  in
  let program =
    Span.span "asm" (fun () ->
        let layout = Memimage.layout_table m in
        let addr_of_global name =
          match Hashtbl.find_opt layout name with
          | Some a -> a
          | None -> raise (Memimage.Fault ("unknown global " ^ name))
        in
        Asm.assemble ~addr_of_global funcs)
  in
  count (fun c -> c.code_words <- c.code_words + Array.length program.Asm.code);
  let program =
    match arch with
    | Driver.Thumb -> Span.span "thumb" (fun () -> Thumb.expand program)
    | Driver.Baseline | Driver.Bitspec_arch -> program
  in
  { Driver.ir = m; program; config; profile; squeeze_stats;
    diagnostics = []; remarks = [] }

let machine ?setup ?fuel (c : Driver.compiled) ~entry ~args =
  let r =
    Span.span "machine" (fun () ->
        Driver.run_machine ?setup ?fuel c ~entry ~args)
  in
  count (fun k ->
      k.machine_instrs <- k.machine_instrs + r.Machine.ctr.Counters.instrs);
  r

let interp ~opts ?setup m ~entry ~args =
  let r, mem =
    Span.span "interp" (fun () -> Interp.run_fresh ~opts ?setup m ~entry ~args)
  in
  Memimage.recycle mem;
  count (fun k -> k.interp_steps <- k.interp_steps + r.Interp.steps);
  r

(* --- fidelity ------------------------------------------------------------ *)

let sorted_bindings h =
  List.sort compare (Hashtbl.fold (fun k v acc -> (k, v) :: acc) h [])

let same_program (a : Asm.program) (b : Asm.program) =
  a.Asm.code = b.Asm.code
  && a.Asm.prov = b.Asm.prov
  && a.Asm.srcmap = b.Asm.srcmap
  && a.Asm.delta = b.Asm.delta
  && a.Asm.halt_pc = b.Asm.halt_pc
  && sorted_bindings a.Asm.entries = sorted_bindings b.Asm.entries
  && sorted_bindings a.Asm.handler_pcs = sorted_bindings b.Asm.handler_pcs

(* Every counter except host wall time ([to_assoc] leaves it out). *)
let same_run (a : Machine.result) (b : Machine.result) =
  a.Machine.r0 = b.Machine.r0
  && a.Machine.outcome = b.Machine.outcome
  && Counters.to_assoc a.Machine.ctr = Counters.to_assoc b.Machine.ctr
  && a.Machine.misspec_pcs = b.Machine.misspec_pcs
