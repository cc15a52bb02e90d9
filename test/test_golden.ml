open Bitspec
open Bs_workloads

(* Golden counters: an absolute reference for the machine model.

   Every kernel's test input, under the baseline and the bitspec build,
   must reproduce the committed activity counters, misspeculation
   attribution and I$/D$/L2 hit/miss counts exactly — fused (the default
   run, shared with the other workload tests) and unfused.  The
   equivalence properties only difference the two paths against each
   other; this file pins what both must agree ON, so a change that moves
   both in step (a counter bumped twice, a stall charged to the wrong
   kind) still fails here.

   The file is [golden_counters.txt], one line per value:
   [<kernel> <build> <key> <value...>].  It was produced by an
   independent fetch-decode-execute loop over the same machine model,
   since removed; regenerating it changes the model's reported numbers
   and needs a reason in CHANGES.md. *)

let golden_file = "golden_counters.txt"

let builds =
  [ ("baseline", Driver.baseline_config); ("bitspec", Driver.bitspec_config) ]

(* The rows one run contributes, prefixed with its kernel and build. *)
let render ~kernel ~build (r : Bs_sim.Machine.result) =
  let row k v = Printf.sprintf "%s %s %s %s" kernel build k v in
  let open Bs_sim in
  List.map (fun (k, v) -> row k (string_of_int v)) (Counters.to_assoc r.Machine.ctr)
  @ [ row "r0" (Int64.to_string r.Machine.r0);
      row "outcome" (Bs_support.Outcome.to_string r.Machine.outcome);
      row "misspec_pcs"
        (String.concat " "
           ("-"
           :: List.map
                (fun (pc, n) -> Printf.sprintf "%d:%d" pc n)
                r.Machine.misspec_pcs)) ]
  @ List.map
      (fun (c : Cache.t) ->
        row c.Cache.name (Printf.sprintf "%d %d" c.Cache.hits c.Cache.misses))
      [ r.Machine.icache; r.Machine.dcache; r.Machine.l2 ]

let read_lines path =
  let ic = open_in path in
  let rec go acc =
    match input_line ic with
    | l -> go (l :: acc)
    | exception End_of_file ->
        close_in ic;
        List.rev acc
  in
  go []

(* Compare rendered rows against the golden rows of one (kernel, build). *)
let check_rows ~what expected actual =
  let rec go es as_ =
    match (es, as_) with
    | [], [] -> ()
    | e :: es', a :: as' ->
        if e <> a then Alcotest.failf "%s: expected %S, got %S" what e a
        else go es' as'
    | e :: _, [] -> Alcotest.failf "%s: missing row %S" what e
    | [], a :: _ -> Alcotest.failf "%s: extra row %S" what a
  in
  go expected actual

let golden_rows =
  lazy
    (let tbl = Hashtbl.create 32 in
     List.iter
       (fun l ->
         match String.split_on_char ' ' l with
         | kernel :: build :: _ ->
             let k = (kernel, build) in
             Hashtbl.replace tbl k
               (l :: Option.value ~default:[] (Hashtbl.find_opt tbl k))
         | _ -> Alcotest.failf "%s: malformed line %S" golden_file l)
       (read_lines golden_file);
     fun k -> List.rev (Option.value ~default:[] (Hashtbl.find_opt tbl k)))

let check_kernel (w : Workload.t) () =
  let kernel = w.Workload.name in
  List.iter
    (fun (build, config) ->
      let expected = Lazy.force golden_rows (kernel, build) in
      if expected = [] then
        Alcotest.failf "%s: no golden rows for %s %s" golden_file kernel build;
      let c, fused = Experiment.run_test config w in
      let unfused =
        let mem = Bs_interp.Memimage.create c.Driver.ir in
        w.Workload.test.Workload.setup c.Driver.ir mem;
        let mode =
          if config.Driver.arch = Driver.Bitspec_arch then Bs_isa.Isa.Bitspec
          else Bs_isa.Isa.Classic
        in
        Bs_sim.Machine.run
          ~config:{ Bs_sim.Machine.default_config with mode; fuse = false }
          c.Driver.program mem ~entry:w.Workload.entry
          ~args:w.Workload.test.Workload.args
      in
      List.iter
        (fun (path, r) ->
          check_rows
            ~what:(Printf.sprintf "%s %s (%s)" kernel build path)
            expected (render ~kernel ~build r))
        [ ("fused", fused); ("unfused", unfused) ])
    builds

let suite =
  List.map
    (fun (w : Workload.t) ->
      Alcotest.test_case (w.Workload.name ^ " golden counters") `Slow
        (check_kernel w))
    Registry.all
