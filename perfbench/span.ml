(* The benchmark's own span recorder.  Spans are opened around the
   benchmark's calls into each layer's public entry point, kept in memory,
   and written out as Chrome trace events when the run ends; the
   program's in-process tracer ([Bs_obs.Trace]) stays off.  While
   recording is off, [span] is a plain call and reads no clock, which is
   what makes the traced-minus-untraced difference of the same replay a
   measure of the recorder's own cost. *)

type event = {
  id : int;
  parent : int;  (* 0 = root *)
  name : string;
  t0 : float;
  t1 : float;
}

type frame = { f_id : int; mutable f_child : float }

let recording = ref false
let next_id = ref 0
let stack : frame list ref = ref []
let events : event list ref = ref []

(* layer name -> (self seconds, spans) *)
let self_tbl : (string, float * int) Hashtbl.t = Hashtbl.create 32

let set_recording b = recording := b

let span name f =
  if not !recording then f ()
  else begin
    incr next_id;
    let id = !next_id in
    let parent = match !stack with fr :: _ -> fr.f_id | [] -> 0 in
    let fr = { f_id = id; f_child = 0.0 } in
    stack := fr :: !stack;
    let t0 = Unix.gettimeofday () in
    let close () =
      let t1 = Unix.gettimeofday () in
      stack := List.tl !stack;
      let dur = t1 -. t0 in
      (match !stack with p :: _ -> p.f_child <- p.f_child +. dur | [] -> ());
      (* self time: the span's duration minus the part its children
         cover *)
      let s, n =
        Option.value (Hashtbl.find_opt self_tbl name) ~default:(0.0, 0)
      in
      Hashtbl.replace self_tbl name (s +. (dur -. fr.f_child), n + 1);
      events := { id; parent; name; t0; t1 } :: !events
    in
    Fun.protect ~finally:close f
  end

(** Self time of every span named [name], in milliseconds. *)
let self_ms name =
  match Hashtbl.find_opt self_tbl name with
  | Some (s, _) -> s *. 1e3
  | None -> 0.0

(** Write every recorded span as Chrome trace "X" events, one per line. *)
let write_chrome path =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      let evs = List.rev !events in
      let base = match evs with e :: _ -> e.t0 | [] -> 0.0 in
      output_string oc "[\n";
      List.iteri
        (fun i e ->
          Printf.fprintf oc
            "%s{\"name\":%S,\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,\
             \"dur\":%.3f,\"args\":{\"id\":%d,\"parent\":%d}}\n"
            (if i = 0 then "" else ",")
            e.name
            ((e.t0 -. base) *. 1e6)
            ((e.t1 -. e.t0) *. 1e6)
            e.id e.parent)
        evs;
      output_string oc "]\n")
