(* One repetition of one benchmark workload, in a fresh process.

   The process-wide memos (the compile cache, [Driver]'s profile memo,
   [Experiment.run_test] and [Experiment.reference_checksum]) cannot all be
   emptied through public functions, so every repetition runs in its own
   process and starts cold.  A repetition's inputs depend on the seed
   only; run.py repeats it for the requested number of seconds and
   combines the repetitions.

     bench.exe --workload eval|serve|fuzz --seed N --rep R --trace 0|1
               --workdir DIR

   prints one JSON object (the repetition's record) as its last line and
   exits 1 if any operation or self check failed.  With [--trace 1] it
   also writes DIR/trace.json (Chrome trace events of the replay). *)

open Bs_support
open Bs_interp
open Bs_workloads
open Bitspec
open Bs_fuzz

let workload = ref ""
let seed = ref 1
let rep = ref 0
let traced = ref false
let workdir = ref "."

(* --- the repetition's record -------------------------------------------- *)

let attempted = ref 0
let failed = ref 0
let failures : string list ref = ref []
let checks : (string * bool * string) list ref = ref []
let metrics : (string * float) list ref = ref []
let info : (string * Jsonx.t) list ref = ref []

let fail_op msg =
  incr failed;
  if List.length !failures < 20 then failures := msg :: !failures

let check name ok detail = checks := (name, ok, detail) :: !checks
let metric name v = metrics := (name, v) :: !metrics
let note name v = info := (name, v) :: !info

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let peak_rss_mb () =
  let from_proc =
    match open_in "/proc/self/status" with
    | exception Sys_error _ -> None
    | ic ->
        Fun.protect
          ~finally:(fun () -> close_in ic)
          (fun () ->
            let rec scan () =
              match input_line ic with
              | exception End_of_file -> None
              | l -> (
                  match Scanf.sscanf l "VmHWM: %d kB" (fun kb -> kb) with
                  | kb -> Some (float_of_int kb /. 1024.0)
                  | exception _ -> scan ())
            in
            scan ())
  in
  match from_proc with
  | Some mb -> mb
  | None ->
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8))
      /. 1048576.0

(* Per-op latencies (ms) and BITSPEC-MAX/BASELINE energy ratios, keyed
   by the op (an eval cell, a fuzz trial) or the program (a kernel, a fuzz
   trial), for run.py to take medians of per key across repetitions. *)
let op_ms : (string * float) list ref = ref []
let energy_ratios : (string * float) list ref = ref []

let references () =
  List.map
    (fun (w : Workload.t) ->
      (w.Workload.name, Experiment.reference_checksum ~interp_engine:Interp.Tree w))
    Registry.all

let hex = Printf.sprintf "0x%Lx"

(* --- per-layer metrics from the replay ----------------------------------- *)

let busy_layers =
  [ "lower"; "expander"; "cfg_prep"; "verifier"; "profile"; "squeezer";
    "compare_elim"; "bitmask_elide"; "late_opt"; "isel"; "regalloc"; "asm";
    "thumb"; "machine"; "interp"; "gen"; "oracle" ]

let layer_metrics () =
  List.iter (fun l -> metric (l ^ ".busy_ms") (Span.self_ms l)) busy_layers;
  let c = Replay.counts in
  let mips n ms = if ms > 0.0 then float_of_int n /. (ms *. 1e3) else 0.0 in
  metric "machine.instrs" (float_of_int c.Replay.machine_instrs);
  metric "machine.mips" (mips c.Replay.machine_instrs (Span.self_ms "machine"));
  metric "interp.mips" (mips c.Replay.interp_steps (Span.self_ms "interp"));
  metric "expander.ir_instrs" (float_of_int c.Replay.ir_instrs);
  metric "squeezer.squeezed" (float_of_int c.Replay.squeezed);
  metric "compare_elim.applied" (float_of_int c.Replay.ce_applied);
  metric "bitmask_elide.applied" (float_of_int c.Replay.be_applied);
  metric "isel.minstrs" (float_of_int c.Replay.minstrs);
  metric "regalloc.spill_slots" (float_of_int c.Replay.spill_slots);
  metric "asm.code_words" (float_of_int c.Replay.code_words)

(* Layer metrics only one workload exercises; the others report 0. *)
let workload_specific_layers =
  [ "server.queue_wait_p50_ms"; "server.queue_wait_p99_ms";
    "server.request_memory_p50_ms"; "server.request_fresh_p50_ms";
    "server.retries"; "server.shed"; "server.timeouts"; "oracle.skips" ]

let cache_metrics ~hits ~misses ~writes ~quarantined =
  metric "compile_cache.mem_hits" (float_of_int hits);
  metric "compile_cache.mem_misses" (float_of_int misses);
  metric "disk_cache.writes" (float_of_int writes);
  metric "disk_cache.quarantined" (float_of_int quarantined)

(* Run [groups] through the replay twice — spans off and on, alternating
   which goes first — and report the difference as the tracing overhead.
   [run] replays one group and returns its fidelity failures. *)
let replay_twice groups ~run =
  let off = ref 0.0 and on = ref 0.0 in
  let bad = ref [] in
  List.iteri
    (fun i g ->
      let pass rec_on =
        Span.set_recording rec_on;
        let b, dt = time (fun () -> Span.span "group" (fun () -> run g)) in
        Span.set_recording false;
        if rec_on then on := !on +. dt else off := !off +. dt;
        bad := List.rev_append b !bad
      in
      pass (i mod 2 = 0);
      pass (i mod 2 <> 0))
    groups;
  check "replay-fidelity" (!bad = [])
    (match !bad with
    | [] -> Printf.sprintf "%d groups replayed twice" (List.length groups)
    | b -> String.concat "; " (List.filteri (fun i _ -> i < 5) (List.rev b)));
  metric "trace.untraced_ms" (!off *. 1e3);
  metric "trace.traced_ms" (!on *. 1e3);
  metric "trace.overhead_ms" ((!on -. !off) *. 1e3);
  Span.write_chrome (Filename.concat !workdir "trace.json")

(* --- eval ----------------------------------------------------------------- *)

let eval_configs =
  [ ("baseline", Driver.baseline_config);
    ("max", Driver.bitspec_config);
    ("avg", { Driver.bitspec_config with Driver.heuristic = Profile.Havg });
    ("min", { Driver.bitspec_config with Driver.heuristic = Profile.Hmin }) ]

let eval () =
  let refs, setup_s = time references in
  metric "setup_s" setup_s;
  check "cold-start" (Compile_cache.stats () = (0, 0))
    "compile cache empty before the sweep";
  (* the 56-cell sweep, jobs 1, each cell compiled cold and simulated *)
  let energies = Hashtbl.create 64 in
  let (), eval_s =
    time (fun () ->
        List.iter
          (fun (w : Workload.t) ->
            let expect = List.assoc w.Workload.name refs in
            List.iter
              (fun (cname, cfg) ->
                incr attempted;
                let cell = w.Workload.name ^ "/" ^ cname in
                match time (fun () -> Experiment.run cfg w) with
                | m, dt ->
                    op_ms := (cell, dt *. 1e3) :: !op_ms;
                    if m.Experiment.checksum <> expect then
                      fail_op
                        (Printf.sprintf "%s: checksum %s, reference %s" cell
                           (hex m.Experiment.checksum) (hex expect))
                    else
                      Hashtbl.replace energies cell m.Experiment.total_energy
                | exception e ->
                    fail_op (cell ^ ": " ^ Printexc.to_string e))
              eval_configs)
          Registry.all)
  in
  let hits, misses = Compile_cache.stats () in
  let cells = List.length Registry.all * List.length eval_configs in
  check "cold-run" (hits = 0 && misses = cells)
    (Printf.sprintf "compile cache: %d hits, %d misses (want 0, %d)" hits
       misses cells);
  List.iter
    (fun (w : Workload.t) ->
      match
        ( Hashtbl.find_opt energies (w.Workload.name ^ "/max"),
          Hashtbl.find_opt energies (w.Workload.name ^ "/baseline") )
      with
      | Some e, Some b when b > 0.0 ->
          energy_ratios := (w.Workload.name, e /. b) :: !energy_ratios
      | _ -> ())
    Registry.all;
  note "eval_s" (Jsonx.Num eval_s);
  if !traced then begin
    cache_metrics ~hits ~misses ~writes:0 ~quarantined:0;
    (* the replay: per kernel, the reference interpreter run set-up makes,
       then the four cells with one training run shared by MAX/AVG/MIN *)
    replay_twice Registry.all ~run:(fun (w : Workload.t) ->
        let bad = ref [] in
        let m =
          Span.span "lower" (fun () -> Bs_frontend.Lower.compile w.Workload.source)
        in
        let r =
          Replay.interp
            ~opts:{ Interp.default_opts with Interp.engine = Interp.Tree }
            ~setup:(w.Workload.test.Workload.setup m) m ~entry:w.Workload.entry
            ~args:w.Workload.test.Workload.args
        in
        let got = Int64.logand (Option.value r.Interp.ret ~default:0L) 0xFFFFFFFFL in
        if got <> List.assoc w.Workload.name refs then
          bad := (w.Workload.name ^ ": reference interpreter checksum") :: !bad;
        let profiles = Hashtbl.create 2 in
        List.iter
          (fun (cname, cfg) ->
            Span.span "cell" @@ fun () ->
            let c =
              Replay.compile ~profiles ~config:cfg ~source:w.Workload.source
                ~setup:w.Workload.train.Workload.setup
                ~train:[ (w.Workload.entry, w.Workload.train.Workload.args) ]
                ()
            in
            let mr =
              Replay.machine ~setup:(w.Workload.test.Workload.setup c.Driver.ir) c
                ~entry:w.Workload.entry ~args:w.Workload.test.Workload.args
            in
            let shipped, shipped_run = Experiment.run_test cfg w in
            let cell = w.Workload.name ^ "/" ^ cname in
            if not (Replay.same_program c.Driver.program shipped.Driver.program)
            then bad := (cell ^ ": Asm.program differs") :: !bad;
            if not (Replay.same_run mr shipped_run) then
              bad := (cell ^ ": machine counters differ") :: !bad)
          eval_configs;
        !bad);
    layer_metrics ()
  end

(* --- serve ---------------------------------------------------------------- *)

let serve_requests = 1100

(* The server's request-to-configuration mapping (not exported by
   [Server]). *)
let config_of (b : Service.bench_req) =
  let base =
    match b.Service.b_arch with
    | Driver.Baseline -> Driver.baseline_config
    | Driver.Bitspec_arch -> Driver.bitspec_config
    | Driver.Thumb -> Driver.thumb_config
  in
  let base = { base with Driver.heuristic = b.Service.b_heuristic } in
  if b.Service.b_no_expander then { base with Driver.expander = Expander.disabled }
  else base

let serve () =
  let cache_dir = Filename.concat !workdir "serve-cache" in
  let (refs, srv), setup_s =
    time (fun () ->
        let refs = references () in
        let srv =
          Server.start
            { Server.default_config with Server.jobs = 2;
              cache_dir = Some cache_dir }
        in
        (refs, srv))
  in
  metric "setup_s" setup_s;
  let st0 = Server.stats srv in
  check "cold-start"
    (st0.Service.st_mem_hits = 0 && st0.Service.st_mem_misses = 0
    && st0.Service.st_entries = 0 && st0.Service.st_disk_hits = 0)
    (Printf.sprintf "memory tier %d/%d hits/misses, disk tier %d entries"
       st0.Service.st_mem_hits st0.Service.st_mem_misses st0.Service.st_entries);
  let lg =
    { Loadgen.default_cfg with
      Loadgen.lg_seed = Int64.of_int !seed;
      lg_requests = serve_requests; lg_clients = 2 }
  in
  let (pairs, sm), st =
    Fun.protect
      ~finally:(fun () -> Server.stop srv)
      (fun () ->
        let r = Loadgen.run lg (Loadgen.In_process srv) in
        (r, Server.stats srv))
  in
  (* correctness: every response ok and on the reference checksum *)
  let energy = Hashtbl.create 64 in
  let fresh = Hashtbl.create 64 in
  List.iter
    (fun ((rq : Service.request), (rs : Service.response)) ->
      incr attempted;
      match (rq.Service.rq_op, rs.Service.rs_status) with
      | Service.Bench b, Service.Done ms ->
          op_ms := (string_of_int rq.Service.rq_id, rs.Service.rs_ms) :: !op_ms;
          let expect = List.assoc b.Service.b_workload refs in
          if ms.Service.m_checksum <> expect then
            fail_op
              (Printf.sprintf "request %d (%s): checksum %s, reference %s"
                 rq.Service.rq_id b.Service.b_workload
                 (hex ms.Service.m_checksum) (hex expect))
          else begin
            Hashtbl.replace energy
              (b.Service.b_workload, b.Service.b_arch, b.Service.b_heuristic,
               b.Service.b_no_expander)
              ms.Service.m_energy;
            if not rs.Service.rs_cached then Hashtbl.replace fresh b (rq, ms)
          end
      | _, status ->
          fail_op
            (Printf.sprintf "request %d: %s" rq.Service.rq_id
               (Service.status_name status)))
    pairs;
  let cc = Loadgen.cross_check pairs st in
  check "serve-cross-check" cc.Loadgen.cc_ok
    (Jsonx.to_string (Loadgen.check_json cc));
  check "cold-run" (st.Service.st_disk_hits = 0)
    (Printf.sprintf "%d disk hits (want 0)" st.Service.st_disk_hits);
  List.iter
    (fun name ->
      let e a = Hashtbl.find_opt energy (name, a, Profile.Hmax, false) in
      match (e Driver.Bitspec_arch, e Driver.Baseline) with
      | Some s, Some b when b > 0.0 -> energy_ratios := (name, s /. b) :: !energy_ratios
      | _ -> ())
    Registry.names;
  note "serve_rps" (Jsonx.Num (float_of_int sm.Loadgen.sm_ok /. sm.Loadgen.sm_wall_s));
  note "serve_p50_ms" (Jsonx.Num sm.Loadgen.sm_client_p50_ms);
  note "serve_p99_ms" (Jsonx.Num sm.Loadgen.sm_client_p99_ms);
  note "samples" (Jsonx.int cc.Loadgen.cc_client_count);
  note "misses" (Jsonx.int (Hashtbl.length fresh));
  metric "ops_per_s" (float_of_int sm.Loadgen.sm_ok /. sm.Loadgen.sm_wall_s);
  if !traced then begin
    let hist name labels =
      match Jsonx.member "histograms" st.Service.st_metrics with
      | Some (Jsonx.Arr hs) ->
          List.find_opt
            (fun h ->
              Jsonx.mem_string "name" h = Some name
              && Jsonx.mem_string "labels" h = Some labels)
            hs
      | _ -> None
    in
    let q name labels key =
      match hist name labels with
      | Some h -> Option.value (Jsonx.mem_float key h) ~default:0.0
      | None -> 0.0
    in
    metric "server.queue_wait_p50_ms" (q "serve_queue_wait_ms" "" "p50");
    metric "server.queue_wait_p99_ms" (q "serve_queue_wait_ms" "" "p99");
    metric "server.request_memory_p50_ms"
      (q "serve_request_ms" "origin=memory" "p50");
    metric "server.request_fresh_p50_ms"
      (q "serve_request_ms" "origin=fresh" "p50");
    metric "server.retries" (float_of_int st.Service.st_retries);
    metric "server.shed" (float_of_int st.Service.st_shed);
    metric "server.timeouts" (float_of_int st.Service.st_timeouts);
    let writes, quarantined =
      match Compile_cache.disk_stats () with
      | Some d -> (d.Disk_cache.writes, d.Disk_cache.quarantined)
      | None -> (0, 0)
    in
    cache_metrics ~hits:st.Service.st_mem_hits ~misses:st.Service.st_mem_misses
      ~writes ~quarantined;
    (* the replay: every cell the run compiled fresh (each missed exactly
       once), grouped per kernel so cells that share an expander
       configuration share one training run, as [Driver]'s profile memo made
       them do in the server *)
    let groups =
      List.filter_map
        (fun name ->
          match
            Hashtbl.fold
              (fun (b : Service.bench_req) v acc ->
                if b.Service.b_workload = name then (b, v) :: acc else acc)
              fresh []
          with
          | [] -> None
          | cells -> Some (Registry.find name, List.sort compare cells))
        Registry.names
    in
    replay_twice groups ~run:(fun ((w : Workload.t), cells) ->
        let bad = ref [] in
        let profiles = Hashtbl.create 2 in
        List.iter
          (fun ((b : Service.bench_req), ((rq : Service.request), ms)) ->
            Span.span "cell" @@ fun () ->
            let cfg = config_of b in
            let c =
              Replay.compile ~profiles ~config:cfg ~source:w.Workload.source
                ~setup:w.Workload.train.Workload.setup
                ~train:[ (w.Workload.entry, w.Workload.train.Workload.args) ]
                ()
            in
            let mr =
              Replay.machine ~setup:(w.Workload.test.Workload.setup c.Driver.ir) c
                ~entry:w.Workload.entry ~args:w.Workload.test.Workload.args
            in
            let cell = Printf.sprintf "request %d" rq.Service.rq_id in
            let shipped = Experiment.compile_workload cfg w in
            if not (Replay.same_program c.Driver.program shipped.Driver.program)
            then bad := (cell ^ ": Asm.program differs") :: !bad;
            let m = Experiment.metrics_of_run mr in
            if
              m.Experiment.checksum <> ms.Service.m_checksum
              || m.Experiment.instrs <> ms.Service.m_instrs
              || m.Experiment.cycles <> ms.Service.m_cycles
              || m.Experiment.misspecs <> ms.Service.m_misspecs
            then bad := (cell ^ ": machine counters differ from the response") :: !bad)
          cells;
        !bad);
    layer_metrics ()
  end

(* --- fuzz ----------------------------------------------------------------- *)

(* 150 trials take about 10 s; a run repeats them three times. *)
let fuzz_trials () = if !traced then 20 else 150

let fuzz () =
  let rng = Rng.create (Int64.of_int !seed) in
  let draw () = Int64.to_int (Int64.logand (Rng.next rng) 0x3FFFFFFFL) in
  let trial tseed =
    let source, args =
      Span.span "gen" (fun () -> (Gen.program tseed, [ Gen.entry_arg tseed ]))
    in
    (source, args, Span.span "oracle" (fun () -> Oracle.run ~source ~entry:Gen.entry ~args ()))
  in
  (* set-up: generator and oracle warm-up on fixed trials outside the
     batch, so set-up does the same work whatever the seed *)
  let (), setup_s =
    time (fun () -> List.iter (fun t -> ignore (trial t)) [ 1; 2; 3 ])
  in
  metric "setup_s" setup_s;
  let hits0, misses0 = Compile_cache.stats () in
  let tseeds = List.init (fuzz_trials ()) (fun _ -> draw ()) in
  let skips = ref 0 in
  let agreed = ref [] in
  Span.set_recording !traced;
  let (), wall =
    time (fun () ->
        List.iter
          (fun tseed ->
            incr attempted;
            let (source, args, verdict), dt = time (fun () -> trial tseed) in
            op_ms := (string_of_int tseed, dt *. 1e3) :: !op_ms;
            match verdict with
            | Oracle.Agree obs -> agreed := (tseed, source, args, obs) :: !agreed
            | Oracle.Skip _ -> incr skips
            | Oracle.Crash _ ->
                fail_op
                  (Printf.sprintf "trial seed %d: %s" tseed
                     (Oracle.describe verdict)))
          tseeds)
  in
  Span.set_recording false;
  let agreed = List.rev !agreed in
  let hits, misses = Compile_cache.stats () in
  note "skips" (Jsonx.int !skips);
  note "fuzz_trials_per_s" (Jsonx.Num (float_of_int (List.length tseeds) /. wall));
  (* generated-code quality on the fuzz programs, outside the timed batch:
     BITSPEC-MAX vs BASELINE energy of every agreeing program.  The
     binaries are the ones the oracle tested, served by the compile cache
     under the oracle's key (a key that no longer matches only costs a
     recompile of the same build). *)
  let energy cfg source args =
    let train = [ (Gen.entry, Gen.train_args) ] in
    let key =
      Printf.sprintf "fuzz|%s|%s|%s:%s|-" (Compile_cache.source_key source)
        (Driver.config_tag cfg) Gen.entry
        (String.concat "," (List.map Int64.to_string Gen.train_args))
    in
    match
      Compile_cache.try_compile ~key (fun () ->
          Driver.try_compile ~config:cfg ~source ~train ())
    with
    | Ok c ->
        (Experiment.metrics_of_run (Driver.run_machine c ~entry:Gen.entry ~args))
          .Experiment.total_energy
    | Error ds -> failwith (String.concat "; " (List.map Diag.to_string ds))
  in
  let hits_before, _ = Compile_cache.stats () in
  List.iter
    (fun (tseed, source, args, obs) ->
      match obs with
      | Oracle.Value _ -> (
          match
            ( energy Driver.bitspec_config source args,
              energy Driver.baseline_config source args )
          with
          | s, b when b > 0.0 ->
              energy_ratios := (string_of_int tseed, s /. b) :: !energy_ratios
          | _ -> ()
          | exception e ->
              fail_op
                (Printf.sprintf "trial seed %d: energy build: %s" tseed
                   (Printexc.to_string e)))
      | Oracle.Fuel | Oracle.Trap _ -> ())
    agreed;
  note "energy_builds_cached" (Jsonx.int (fst (Compile_cache.stats ()) - hits_before));
  if !traced then begin
    metric "oracle.skips" (float_of_int !skips);
    cache_metrics ~hits:(hits - hits0) ~misses:(misses - misses0) ~writes:0
      ~quarantined:0;
    (* the replay: per trial, the oracle's reference run on the pristine
       lowering, then each of its five configurations *)
    replay_twice agreed ~run:(fun (tseed, source, args, obs) ->
        let bad = ref [] in
        let m = Span.span "lower" (fun () -> Bs_frontend.Lower.compile source) in
        let r =
          Replay.interp
            ~opts:{ Interp.default_opts with Interp.fuel = 2_000_000 }
            m ~entry:Gen.entry ~args
        in
        let fuel = Outcome.hang_fuel ~steps:r.Interp.steps ~factor:20 in
        List.iter
          (fun (e : Oracle.engine) ->
            Span.span "cell" @@ fun () ->
            let train = [ (Gen.entry, Gen.train_args) ] in
            let c = Replay.compile ~config:e.Oracle.config ~source ~train () in
            let mr = Replay.machine ~fuel c ~entry:Gen.entry ~args in
            let shipped =
              Driver.compile ~config:e.Oracle.config ~source ~train ()
            in
            let cell = Printf.sprintf "trial seed %d/%s" tseed e.Oracle.ename in
            if not (Replay.same_program c.Driver.program shipped.Driver.program)
            then bad := (cell ^ ": Asm.program differs") :: !bad;
            let sr = Driver.run_machine ~fuel shipped ~entry:Gen.entry ~args in
            if not (Replay.same_run mr sr) then
              bad := (cell ^ ": machine counters differ") :: !bad;
            match obs with
            | Oracle.Value v
              when Int64.logand mr.Bs_sim.Machine.r0 0xFFFFFFFFL <> v ->
                bad := (cell ^ ": result differs from the oracle's") :: !bad
            | _ -> ())
          Oracle.engines;
        !bad);
    layer_metrics ()
  end

(* --- main ----------------------------------------------------------------- *)

let keyed kvs = Jsonx.Arr (List.rev_map (fun (k, v) -> Jsonx.Arr [ Jsonx.Str k; Jsonx.Num v ]) kvs)

let () =
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "eval|serve|fuzz");
      ("--seed", Arg.Set_int seed, "input seed");
      ("--rep", Arg.Set_int rep, "repetition index (recorded only)");
      ("--trace", Arg.Int (fun t -> traced := t <> 0), "0|1");
      ("--workdir", Arg.Set_string workdir, "directory for the run's files") ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload W --seed N --rep R --trace 0|1 --workdir DIR";
  (match !workload with
  | "eval" -> eval ()
  | "serve" -> serve ()
  | "fuzz" -> fuzz ()
  | w ->
      prerr_endline ("unknown workload " ^ w);
      exit 2);
  metric "peak_rss_mb" (peak_rss_mb ());
  if !traced then
    List.iter
      (fun n -> if not (List.mem_assoc n !metrics) then metric n 0.0)
      workload_specific_layers;
  let jobs = match !workload with "serve" -> 2 | _ -> 1 in
  let ok = !failed = 0 && List.for_all (fun (_, ok, _) -> ok) !checks in
  let record =
    Jsonx.Obj
      [ ("workload", Jsonx.Str !workload);
        ("seed", Jsonx.int !seed);
        ("rep", Jsonx.int !rep);
        ("trace", Jsonx.Bool !traced);
        ( "host",
          Jsonx.Obj
            [ ("nproc", Jsonx.int (Domain.recommended_domain_count ()));
              ("ocaml", Jsonx.Str Sys.ocaml_version);
              ("jobs", Jsonx.int jobs) ] );
        ("correct", Jsonx.Bool ok);
        ("attempted", Jsonx.int !attempted);
        ("failed", Jsonx.int !failed);
        ("failures", Jsonx.Arr (List.rev_map (fun s -> Jsonx.Str s) !failures));
        ( "checks",
          Jsonx.Arr
            (List.rev_map
               (fun (n, ok, d) ->
                 Jsonx.Obj
                   [ ("name", Jsonx.Str n); ("ok", Jsonx.Bool ok);
                     ("detail", Jsonx.Str d) ])
               !checks) );
        ("info", Jsonx.Obj (List.rev !info));
        ("op_ms", keyed !op_ms);
        ("energy_ratios", keyed !energy_ratios);
        ( "metrics",
          Jsonx.Obj (List.rev_map (fun (n, v) -> (n, Jsonx.Num v)) !metrics) ) ]
  in
  print_endline (Jsonx.to_string record);
  exit (if ok then 0 else 1)
