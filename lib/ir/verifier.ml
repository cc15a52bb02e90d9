(* Structural and semantic validation of SIR functions.

   Beyond the classic SSA checks (dominance of definitions over uses,
   operand-width agreement, well-placed terminators and phis), the verifier
   enforces the speculative-region well-formedness rules of §3.1.1:

   - a region is a contiguous block sequence with a single handler;
   - a block is the handler of at most one region;
   - a handler is not contained in any region;
   - a handler is never the target of an explicit branch;
   - per Theorem 3.1, every variable defined inside a region is dead at the
     entry of its handler. *)

exception Invalid of string

let fail fmt = Printf.ksprintf (fun s -> raise (Invalid s)) fmt

let check_widths f (i : Ir.instr) =
  let w o = Ir.operand_width f o in
  match i.op with
  | Bin (_, a, b) ->
      if w a <> i.width || w b <> i.width then
        fail "%s: bin operand widths %d/%d mismatch result %d"
          (Printer.instr_str f i) (w a) (w b) i.width
  | Cmp (_, a, b) ->
      if w a <> w b then
        fail "%s: cmp operand widths %d/%d differ" (Printer.instr_str f i)
          (w a) (w b);
      if i.width <> 1 then fail "%s: cmp result must be i1" (Printer.instr_str f i)
  | Cast (op, a) -> (
      match op with
      | Zext | Sext ->
          if w a > i.width then
            fail "%s: extension narrows %d -> %d" (Printer.instr_str f i) (w a)
              i.width
      | TruncCast ->
          if w a < i.width then
            fail "%s: trunc widens %d -> %d" (Printer.instr_str f i) (w a)
              i.width)
  | Select (c, a, b) ->
      if w c <> 1 then fail "%s: select condition must be i1" (Printer.instr_str f i);
      if w a <> i.width || w b <> i.width then
        fail "%s: select arm widths mismatch" (Printer.instr_str f i)
  | Phi incoming ->
      List.iter
        (fun (_, v) ->
          if w v <> i.width then
            fail "%s: phi incoming width %d mismatches %d"
              (Printer.instr_str f i) (w v) i.width)
        incoming
  | Load l -> if w l.l_addr <> 32 then fail "%s: load address must be i32" (Printer.instr_str f i)
  | Store s ->
      if w s.s_addr <> 32 then fail "%s: store address must be i32" (Printer.instr_str f i);
      if w s.s_value <> s.s_width then
        fail "%s: store value width %d mismatches %d" (Printer.instr_str f i)
          (w s.s_value) s.s_width
  | Cbr (c, _, _) ->
      if w c <> 1 then fail "%s: branch condition must be i1" (Printer.instr_str f i)
  | Ret (Some v) ->
      if w v <> f.ret_width then
        fail "%s: return width %d mismatches %d" (Printer.instr_str f i) (w v)
          f.ret_width
  | Ret None ->
      if f.ret_width <> 0 then fail "ret void in non-void function %s" f.fname
  | Param _ | Gaddr _ | Salloc _ | Call _ | Br _ | Unreachable -> ()

let check_structure (f : Ir.func) =
  if f.blocks = [] then fail "function %s has no blocks" f.fname;
  List.iter
    (fun (b : Ir.block) ->
      (match List.rev b.instrs with
      | [] -> fail "block %s is empty" b.bname
      | t :: rest ->
          if not (Ir.is_terminator t) then
            fail "block %s does not end with a terminator" b.bname;
          List.iter
            (fun i ->
              if Ir.is_terminator i then
                fail "block %s has a terminator mid-block" b.bname)
            rest);
      (* Phis must be a prefix of the block. *)
      let seen_nonphi = ref false in
      List.iter
        (fun i ->
          if Ir.is_phi i then begin
            if !seen_nonphi then fail "block %s: phi after non-phi" b.bname
          end
          else seen_nonphi := true)
        b.instrs)
    f.blocks

let check_ssa (f : Ir.func) =
  (* Each id defined at most once; uses are dominated by definitions. *)
  let def_block = Hashtbl.create 64 in
  List.iter
    (fun (i : Ir.instr) -> Hashtbl.replace def_block i.Ir.iid (-1))
    f.param_instrs;
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun (i : Ir.instr) ->
          if Ir.has_result i then begin
            if Hashtbl.mem def_block i.iid then
              fail "%%%d defined twice" i.iid;
            Hashtbl.replace def_block i.iid b.bid
          end)
        b.instrs)
    f.blocks;
  let preds = Ir.preds_sir f in
  let dom = Dom.compute ~preds f in
  (* Unreachable blocks are exempt from dominance checks, as in LLVM:
     passes may leave dead code behind and clean it up later. *)
  let reachable = Hashtbl.create 16 in
  Array.iter (fun bid -> Hashtbl.replace reachable bid ()) dom.Dom.order;
  let check_use (b : Ir.block) before (o : Ir.operand) user =
    match o with
    | Const _ -> ()
    | Var v -> (
        match Hashtbl.find_opt def_block v with
        | None -> fail "use of undefined %%%d in %s" v (Printer.instr_str f user)
        | Some -1 -> () (* parameter: dominates everything *)
        | Some db ->
            if db = b.bid then begin
              (* must appear earlier in the block *)
              if not (Hashtbl.mem before v) then
                fail "%%%d used before definition in block %s" v b.bname
            end
            else if not (Dom.dominates dom db b.bid) then
              fail "definition of %%%d (block %d) does not dominate use in %s"
                v db b.bname)
  in
  List.iter
    (fun (b : Ir.block) ->
      if not (Hashtbl.mem reachable b.bid) then ()
      else
      (* ids of the instructions seen so far in this block *)
      let before = Hashtbl.create 16 in
      List.iter
        (fun (i : Ir.instr) ->
          (match i.op with
          | Phi incoming ->
              (* Phi operands are checked against the corresponding edge. *)
              let ps =
                match Hashtbl.find_opt preds b.bid with Some l -> l | None -> []
              in
              List.iter
                (fun (p, v) ->
                  if not (List.mem p ps) then
                    fail "phi %s has incoming from non-predecessor %d"
                      (Printer.instr_str f i) p;
                  match v with
                  | Ir.Const _ -> ()
                  | Ir.Var x -> (
                      match Hashtbl.find_opt def_block x with
                      | None -> fail "phi uses undefined %%%d" x
                      | Some -1 -> ()
                      | Some db ->
                          if not (Dom.dominates dom db p) then
                            fail
                              "phi operand %%%d does not dominate edge %d->%d"
                              x p b.bid))
                incoming;
              let missing =
                List.filter
                  (fun p -> not (List.mem_assoc p incoming))
                  (match Hashtbl.find_opt preds b.bid with
                  | Some l -> l
                  | None -> [])
              in
              if missing <> [] then
                fail "phi %s misses incoming for predecessor(s) %s"
                  (Printer.instr_str f i)
                  (String.concat "," (List.map string_of_int missing))
          | _ ->
              List.iter (fun o -> check_use b before o i) (Ir.operands i));
          Hashtbl.replace before i.iid ())
        b.instrs)
    f.blocks

let check_regions (f : Ir.func) =
  let handler_count = Hashtbl.create 8 in
  List.iter
    (fun (r : Ir.region) ->
      if r.rblocks = [] then fail "region %d is empty" r.rid;
      List.iter
        (fun bid ->
          if not (Hashtbl.mem f.btbl bid) then
            fail "region %d references missing block %d" r.rid bid)
        r.rblocks;
      if not (Hashtbl.mem f.btbl r.rhandler) then
        fail "region %d has missing handler %d" r.rid r.rhandler;
      if List.mem r.rhandler r.rblocks then
        fail "handler %d contained in its own region" r.rhandler;
      if Ir.region_of_block f r.rhandler <> None then
        fail "handler %d contained in a region" r.rhandler;
      let n = try Hashtbl.find handler_count r.rhandler with Not_found -> 0 in
      Hashtbl.replace handler_count r.rhandler (n + 1))
    f.regions;
  Hashtbl.iter
    (fun h n -> if n > 1 then fail "block %d handles %d regions" h n)
    handler_count;
  (* Handlers are not branch targets. *)
  List.iter
    (fun (b : Ir.block) ->
      List.iter
        (fun s ->
          if Ir.is_handler f s then
            fail "handler %d is a branch target of block %d" s b.bid)
        (Ir.succs b))
    f.blocks;
  (* Blocks belong to at most one region. *)
  let membership = Hashtbl.create 16 in
  List.iter
    (fun (r : Ir.region) ->
      List.iter
        (fun bid ->
          if Hashtbl.mem membership bid then
            fail "block %d belongs to two regions" bid;
          Hashtbl.replace membership bid r.rid)
        r.rblocks)
    f.regions;
  (* Theorem 3.1: region definitions are dead at handler entry. *)
  let live = Liveness.compute ~preds:(Ir.preds_sir f) f in
  List.iter
    (fun (r : Ir.region) ->
      let region_defs =
        List.concat_map
          (fun bid ->
            List.filter_map
              (fun (i : Ir.instr) ->
                if Ir.has_result i then Some i.iid else None)
              (Ir.block f bid).instrs)
          r.rblocks
      in
      let lin = Liveness.live_in live r.rhandler in
      List.iter
        (fun v ->
          if Liveness.IntSet.mem v lin then
            fail "region %d definition %%%d live at handler entry (Thm 3.1)"
              r.rid v)
        region_defs)
    f.regions

let check_func (f : Ir.func) =
  check_structure f;
  List.iter
    (fun (b : Ir.block) -> List.iter (check_widths f) b.instrs)
    f.blocks;
  check_ssa f;
  (* without regions there are no handlers and every region rule holds
     trivially — skip the liveness analysis of Theorem 3.1 *)
  if f.regions <> [] then check_regions f

let check_module (m : Ir.modul) =
  (* Call targets and globals must resolve. *)
  List.iter
    (fun (f : Ir.func) ->
      List.iter
        (fun (b : Ir.block) ->
          List.iter
            (fun (i : Ir.instr) ->
              match i.op with
              | Ir.Call c ->
                  if Ir.find_func m c.callee = None then
                    fail "call to undefined function @%s" c.callee
              | Ir.Gaddr g ->
                  if Ir.find_global m g = None then
                    fail "address of undefined global @%s" g
              | _ -> ())
            b.instrs)
        f.blocks;
      check_func f)
    m.funcs

(** [verify_exn m] raises {!Invalid} with a diagnostic if [m] is
    malformed. *)
let verify_exn = check_module

(** [verify m] returns [Error message] instead of raising. *)
let verify m = try Ok (check_module m) with Invalid s -> Error s
