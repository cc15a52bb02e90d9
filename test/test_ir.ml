open Bs_ir

(* Unit tests for the IR substrate: construction, CFG utilities, dominators,
   liveness (including the SIR handler relation), natural loops, cloning,
   block splitting, and the verifier's rejection of malformed programs. *)

(* Hand-build:  entry -> loop(header -> body -> header) -> exit  with an
   accumulator phi. *)
let build_loop_func () =
  let f = Ir.create_func ~name:"loop" ~params:[ ("n", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let entry = Ir.add_block f "entry" in
  let header = Ir.add_block f "header" in
  let body = Ir.add_block f "body" in
  let exit_b = Ir.add_block f "exit" in
  Builder.position_at_end b entry;
  ignore (Builder.br b header);
  Builder.position_at_end b header;
  let phi_i = Builder.phi b ~width:32 [] in
  let phi_s = Builder.phi b ~width:32 [] in
  let n = Builder.param b 0 in
  let cond = Builder.cmp b Ir.Ult (Builder.value phi_i) (Builder.value n) in
  ignore (Builder.cbr b (Builder.value cond) ~if_true:body ~if_false:exit_b);
  Builder.position_at_end b body;
  let s' =
    Builder.bin b Ir.Add ~width:32 (Builder.value phi_s) (Builder.value phi_i)
  in
  let i' =
    Builder.bin b Ir.Add ~width:32 (Builder.value phi_i) (Ir.const ~width:32 1L)
  in
  ignore (Builder.br b header);
  Builder.position_at_end b exit_b;
  ignore (Builder.ret b (Some (Builder.value phi_s)));
  phi_i.Ir.op <-
    Ir.Phi [ (entry.Ir.bid, Ir.const ~width:32 0L); (body.Ir.bid, Builder.value i') ];
  phi_s.Ir.op <-
    Ir.Phi [ (entry.Ir.bid, Ir.const ~width:32 0L); (body.Ir.bid, Builder.value s') ];
  (f, entry, header, body, exit_b)

let test_builder_and_verify () =
  let f, _, _, _, _ = build_loop_func () in
  Verifier.check_func f;
  let m = { Ir.funcs = [ f ]; globals = [] } in
  match Verifier.verify m with
  | Ok () -> ()
  | Error e -> Alcotest.fail e

let test_succs_preds () =
  let f, entry, header, body, exit_b = build_loop_func () in
  Alcotest.(check (list int)) "entry succs" [ header.Ir.bid ]
    (Ir.succs entry);
  Alcotest.(check (list int)) "header succs" [ body.Ir.bid; exit_b.Ir.bid ]
    (Ir.succs header);
  let preds = Ir.preds f header.Ir.bid in
  Alcotest.(check bool) "header preds" true
    (List.mem entry.Ir.bid preds && List.mem body.Ir.bid preds)

let test_dominators () =
  let f, entry, header, body, exit_b = build_loop_func () in
  let dom = Dom.compute f in
  Alcotest.(check bool) "entry dom all" true
    (List.for_all
       (fun (b : Ir.block) -> Dom.dominates dom entry.Ir.bid b.Ir.bid)
       f.Ir.blocks);
  Alcotest.(check bool) "header dom body" true
    (Dom.dominates dom header.Ir.bid body.Ir.bid);
  Alcotest.(check bool) "body !dom exit" false
    (Dom.dominates dom body.Ir.bid exit_b.Ir.bid);
  Alcotest.(check bool) "strict" false
    (Dom.strictly_dominates dom header.Ir.bid header.Ir.bid)

let test_liveness () =
  let f, _, header, body, _ = build_loop_func () in
  let live = Liveness.compute f in
  (* the accumulator phi is live out of the body (loop-carried) *)
  let phi_s =
    List.find
      (fun (i : Ir.instr) -> Ir.is_phi i && i.Ir.iname = "")
      header.Ir.instrs
  in
  ignore phi_s;
  let out_body = Liveness.live_out live body.Ir.bid in
  Alcotest.(check bool) "body live-out nonempty" false
    (Liveness.IntSet.is_empty out_body)

let test_loops () =
  let f, _, header, body, _ = build_loop_func () in
  let loops = Loops.compute f in
  Alcotest.(check int) "one loop" 1 (List.length loops);
  let l = List.hd loops in
  Alcotest.(check int) "header" header.Ir.bid l.Loops.header;
  Alcotest.(check (list int)) "latch" [ body.Ir.bid ] l.Loops.latches;
  Alcotest.(check int) "depth" 1 l.Loops.depth;
  let exits = Loops.exits f l in
  Alcotest.(check int) "one exit" 1 (Loops.IntSet.cardinal exits)

let test_split_block () =
  let f, _, _, body, _ = build_loop_func () in
  let before = List.length f.Ir.blocks in
  let nb = Ir.split_block f body ~at:1 in
  Alcotest.(check int) "one more block" (before + 1) (List.length f.Ir.blocks);
  Alcotest.(check int) "body has add + br" 2 (List.length body.Ir.instrs);
  Alcotest.(check bool) "continuation holds rest" true
    (List.length nb.Ir.instrs = 2);
  Verifier.check_func f

let test_clone_blocks () =
  let f, _, _, _, _ = build_loop_func () in
  let n = List.length f.Ir.blocks in
  let cm, clones = Ir.clone_blocks f f.Ir.blocks ~suffix:".c" in
  Alcotest.(check int) "doubled" (2 * n) (List.length f.Ir.blocks);
  Alcotest.(check int) "clones" n (List.length clones);
  (* clone edges are internal: no clone branches to an original *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s ->
          Alcotest.(check bool) "clone target is clone" true
            (List.exists (fun (c : Ir.block) -> c.Ir.bid = s) clones))
        (Ir.succs b))
    clones;
  Alcotest.(check int) "map size" n (Hashtbl.length cm.Ir.cm_block)

let test_regions_and_preds_sir () =
  let f, _, header, body, _ = build_loop_func () in
  let handler = Ir.add_block f "handler" in
  Ir.append_instr handler (Ir.mk_instr f ~width:0 (Ir.Br header.Ir.bid));
  ignore (Ir.add_region f ~blocks:[ body.Ir.bid ] ~handler:handler.Ir.bid);
  let sir = Ir.preds_sir f in
  (* handler's SIR preds = preds of region entry (= body's preds = header) *)
  Alcotest.(check (list int)) "handler preds" [ header.Ir.bid ]
    (Hashtbl.find sir handler.Ir.bid);
  let smir = Ir.preds_smir f in
  Alcotest.(check (list int)) "smir handler preds" [ body.Ir.bid ]
    (Hashtbl.find smir handler.Ir.bid);
  Alcotest.(check bool) "is_handler" true (Ir.is_handler f handler.Ir.bid);
  Alcotest.(check bool) "region_of" true
    (Ir.region_of_block f body.Ir.bid <> None)

let expect_invalid msg f =
  let m = { Ir.funcs = [ f ]; globals = [] } in
  match Verifier.verify m with
  | Error _ -> ()
  | Ok () -> Alcotest.fail ("verifier accepted " ^ msg)

let test_verifier_rejects () =
  (* width mismatch *)
  let f = Ir.create_func ~name:"bad" ~params:[ ("a", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let e = Ir.add_block f "entry" in
  Builder.position_at_end b e;
  let a = Builder.param b 0 in
  let x = Builder.bin b Ir.Add ~width:16 (Builder.value a) (Ir.const ~width:16 1L) in
  ignore (Builder.ret b (Some (Builder.value x)));
  expect_invalid "width mismatch" f;
  (* use before def in block *)
  let f2 = Ir.create_func ~name:"bad2" ~params:[] ~ret_width:32 in
  let b2 = Builder.create f2 in
  let e2 = Ir.add_block f2 "entry" in
  Builder.position_at_end b2 e2;
  let dead = Ir.mk_instr f2 ~width:32 (Ir.Bin (Ir.Add, Ir.const ~width:32 1L, Ir.const ~width:32 1L)) in
  let y = Builder.bin b2 Ir.Add ~width:32 (Ir.Var dead.Ir.iid) (Ir.const ~width:32 1L) in
  Ir.append_instr e2 dead; (* def placed after use *)
  ignore (Builder.ret b2 (Some (Builder.value y)));
  (* reorder so the use comes first *)
  e2.Ir.instrs <-
    (List.filter (fun (i : Ir.instr) -> i.Ir.iid = y.Ir.iid) e2.Ir.instrs)
    @ List.filter (fun (i : Ir.instr) -> i.Ir.iid <> y.Ir.iid) e2.Ir.instrs;
  expect_invalid "use before def" f2;
  (* handler as branch target *)
  let f3, _, header3, body3, _ = build_loop_func () in
  let h3 = Ir.add_block f3 "h" in
  Ir.append_instr h3 (Ir.mk_instr f3 ~width:0 (Ir.Br header3.Ir.bid));
  ignore (Ir.add_region f3 ~blocks:[ body3.Ir.bid ] ~handler:h3.Ir.bid);
  (* make entry branch into the handler: illegal *)
  (Ir.terminator (Ir.entry f3)).Ir.op <- Ir.Br h3.Ir.bid;
  expect_invalid "handler branch target" f3;
  (* missing terminator *)
  let f4 = Ir.create_func ~name:"bad4" ~params:[] ~ret_width:0 in
  let e4 = Ir.add_block f4 "entry" in
  Ir.append_instr e4 (Ir.mk_instr f4 ~width:32 (Ir.Bin (Ir.Add, Ir.const ~width:32 1L, Ir.const ~width:32 2L)));
  expect_invalid "no terminator" f4

(* Rejections that pin the verifier's fast paths: the region rules still
   run whenever a function has regions, and the per-block seen-set still
   catches a use before its definition deep into a long block. *)
let invalid_message f =
  match Verifier.verify { Ir.funcs = [ f ]; globals = [] } with
  | Error msg -> msg
  | Ok () -> Alcotest.fail ("verifier accepted " ^ f.Ir.fname)

(* entry (the region, so the handler's SIR predecessor is the entry
   itself): y = p + 1; ret; handler: ret [handler_ret y] *)
let region_func ~name ~handler_ret =
  let f = Ir.create_func ~name ~params:[ ("p", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let entry = Ir.add_block f "entry" in
  let h = Ir.add_block f "handler" in
  Builder.position_at_end b entry;
  let p = Builder.param b 0 in
  let y =
    Builder.bin b Ir.Add ~width:32 (Builder.value p) (Ir.const ~width:32 1L)
  in
  ignore (Builder.ret b (Some (Builder.value y)));
  Builder.position_at_end b h;
  ignore (Builder.ret b (Some (handler_ret (Builder.value y))));
  ignore (Ir.add_region f ~blocks:[ entry.Ir.bid ] ~handler:h.Ir.bid);
  (f, entry, h)

let test_verifier_fast_path_rejects () =
  let contains msg sub =
    Alcotest.(check bool) (Printf.sprintf "%S mentions %S" msg sub) true
      (Str_exists.contains msg sub)
  in
  (* the well-formed variant passes, so each rejection below is the rule *)
  let zero _ = Ir.const ~width:32 0L in
  let ok, _, _ = region_func ~name:"ok" ~handler_ret:zero in
  Verifier.check_func ok;
  let live, _, _ = region_func ~name:"live" ~handler_ret:Fun.id in
  contains (invalid_message live) "live at handler entry (Thm 3.1)";
  let target, entry, h = region_func ~name:"target" ~handler_ret:zero in
  (Ir.terminator entry).Ir.op <- Ir.Br h.Ir.bid;
  contains (invalid_message target) "branch target";
  (* a 200-instruction chain, then a use of a value defined after it *)
  let f = Ir.create_func ~name:"long" ~params:[ ("p", 32) ] ~ret_width:32 in
  let b = Builder.create f in
  let e = Ir.add_block f "entry" in
  Builder.position_at_end b e;
  let one = Ir.const ~width:32 1L in
  let x = ref (Builder.param b 0) in
  for _ = 1 to 200 do
    x := Builder.bin b Ir.Add ~width:32 (Builder.value !x) one
  done;
  let late =
    Ir.mk_instr f ~width:32 (Ir.Bin (Ir.Add, Builder.value !x, one))
  in
  let use =
    Builder.bin b Ir.Add ~width:32 (Ir.Var late.Ir.iid) (Builder.value !x)
  in
  ignore (Builder.ret b (Some (Builder.value use)));
  let body, term =
    match List.rev e.Ir.instrs with
    | t :: rest -> (List.rev rest, t)
    | [] -> assert false
  in
  e.Ir.instrs <- body @ [ late; term ];
  contains (invalid_message f) "used before definition";
  (* with the definition moved ahead of its use the block verifies *)
  e.Ir.instrs <-
    List.filter (fun (i : Ir.instr) -> i.Ir.iid <> use.Ir.iid) body
    @ [ late; use; term ];
  Verifier.check_func f

let test_rpo () =
  let f, entry, _, _, _ = build_loop_func () in
  let order = Ir.reverse_postorder f in
  Alcotest.(check int) "visits all" (List.length f.Ir.blocks)
    (List.length order);
  Alcotest.(check int) "entry first" entry.Ir.bid (List.hd order)

let test_printer_roundtrip_shape () =
  let f, _, _, _, _ = build_loop_func () in
  let s = Printer.func_str f in
  Alcotest.(check bool) "mentions phi" true
    (String.length s > 0
    && Str_exists.contains s "phi"
    && Str_exists.contains s "cmp ult")

let suite =
  [ Alcotest.test_case "builder + verifier" `Quick test_builder_and_verify;
    Alcotest.test_case "succs/preds" `Quick test_succs_preds;
    Alcotest.test_case "dominators" `Quick test_dominators;
    Alcotest.test_case "liveness" `Quick test_liveness;
    Alcotest.test_case "natural loops" `Quick test_loops;
    Alcotest.test_case "split_block" `Quick test_split_block;
    Alcotest.test_case "clone_blocks" `Quick test_clone_blocks;
    Alcotest.test_case "regions + SIR/SMIR preds" `Quick test_regions_and_preds_sir;
    Alcotest.test_case "verifier rejects malformed IR" `Quick test_verifier_rejects;
    Alcotest.test_case "verifier fast paths keep every rejection" `Quick
      test_verifier_fast_path_rejects;
    Alcotest.test_case "reverse postorder" `Quick test_rpo;
    Alcotest.test_case "printer output" `Quick test_printer_roundtrip_shape ]
