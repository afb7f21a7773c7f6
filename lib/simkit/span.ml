type span = {
  sp_id : int;
  sp_parent : int;  (* -1 = no parent *)
  sp_trace : int;  (* -1 = no trace *)
  sp_track : string;
  sp_name : string;
  mutable sp_start : Time.t;  (* {!note_queue} extends it back over the wait *)
  mutable sp_args : (string * string) list;
  mutable sp_open : bool;
}

let null_span =
  { sp_id = -1; sp_parent = -1; sp_trace = -1; sp_track = ""; sp_name = "";
    sp_start = Time.zero; sp_args = []; sp_open = false }

let null = null_span

type record = {
  r_id : int;
  r_parent : int option;
  r_trace : int;  (* -1 = no trace *)
  r_track : string;
  r_name : string;
  r_start : Time.t;
  r_end : Time.t;
  r_args : (string * string) list;
}

type t = {
  mutable on : bool;
  mutable clock : unit -> Time.t;
  capacity : int;
  mutable recs : record list;  (* newest-finished first *)
  mutable n : int;
  mutable n_dropped : int;
  mutable next_id : int;
  mutable next_trace : int;
  mutable consumer : (record -> unit) option;
}

let create ?(clock = fun () -> Time.zero) ?(capacity = 1_000_000) () =
  if capacity <= 0 then invalid_arg "Span.create: capacity must be positive";
  { on = false; clock; capacity; recs = []; n = 0; n_dropped = 0; next_id = 0;
    next_trace = 0; consumer = None }

let set_clock t clock = t.clock <- clock

let enable t =
  t.on <- true;
  (* Enabling a collector is an explicit request for span data: make
     sure the global gate lets it through. *)
  Level.raise_to_spans ()

let disable t = t.on <- false
let enabled t = t.on

let new_trace t =
  let id = t.next_trace in
  t.next_trace <- id + 1;
  id

let id sp = sp.sp_id

let is_null sp = sp.sp_id < 0

let trace_of sp = sp.sp_trace

let start_time sp = sp.sp_start

let parent_of = function
  | Some p when p.sp_id >= 0 -> p.sp_id
  | _ -> -1

let trace_from parent = function
  | Some tr -> tr
  | None -> ( match parent with Some p when p.sp_id >= 0 -> p.sp_trace | _ -> -1)

let start t ?(track = "main") ?parent ?trace name =
  if not (t.on && Level.spans_on ()) then null_span
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let now = t.clock () in
    { sp_id = id; sp_parent = parent_of parent; sp_trace = trace_from parent trace;
      sp_track = track; sp_name = name; sp_start = now; sp_args = []; sp_open = true }
  end

let root t ?(track = "main") name =
  if not (t.on && Level.spans_on ()) then null_span
  else start t ~track ~trace:(new_trace t) name

let annotate sp ~key value =
  if sp.sp_open then sp.sp_args <- (key, value) :: sp.sp_args

(* A causal (non-parent) edge: the span depended on [target]'s work —
   the flush it piggybacked on, the lock holder it waited for.  Stored
   as an annotation so records need no new field shape downstream. *)
let link sp target =
  if sp.sp_open && target.sp_id >= 0 then
    sp.sp_args <- ("link", string_of_int target.sp_id) :: sp.sp_args

(* The request this span serves sat queued for [dt] before the span
   opened (inbox residency).  Extend the span back over the wait so its
   interval covers queue + service, and record the prefix split.  Waits
   that happen *inside* an already-open span (lock waits, flush-batch
   parking) are annotated with "queue_ns" directly instead. *)
let note_queue sp dt =
  if sp.sp_open && dt > 0 then begin
    sp.sp_start <- sp.sp_start - dt;
    sp.sp_args <- ("queue_ns", string_of_int dt) :: sp.sp_args
  end

(* Queue prefix already covered by the span's interval: annotate only. *)
let mark_queue sp dt =
  if sp.sp_open && dt > 0 then
    sp.sp_args <- ("queue_ns", string_of_int dt) :: sp.sp_args

let finish t sp =
  if sp.sp_id >= 0 && sp.sp_open then begin
    sp.sp_open <- false;
    let now = t.clock () in
    match t.consumer with
    | Some f ->
        (* Streaming mode: the record is handed off, not retained, so
           memory stays bounded by whatever the consumer keeps. *)
        f
          {
            r_id = sp.sp_id;
            r_parent = (if sp.sp_parent >= 0 then Some sp.sp_parent else None);
            r_trace = sp.sp_trace;
            r_track = sp.sp_track;
            r_name = sp.sp_name;
            r_start = sp.sp_start;
            r_end = now;
            r_args = List.rev sp.sp_args;
          }
    | None ->
        if t.n >= t.capacity then t.n_dropped <- t.n_dropped + 1
        else begin
          t.recs <-
            {
              r_id = sp.sp_id;
              r_parent = (if sp.sp_parent >= 0 then Some sp.sp_parent else None);
              r_trace = sp.sp_trace;
              r_track = sp.sp_track;
              r_name = sp.sp_name;
              r_start = sp.sp_start;
              r_end = now;
              r_args = List.rev sp.sp_args;
            }
            :: t.recs;
          t.n <- t.n + 1
        end
  end

let set_consumer t consumer = t.consumer <- consumer

let with_span t ?track ?parent name f =
  let sp = start t ?track ?parent name in
  match f sp with
  | v ->
      finish t sp;
      v
  | exception e ->
      finish t sp;
      raise e

let count t = t.n

let dropped t = t.n_dropped

let clear t =
  t.recs <- [];
  t.n <- 0;
  t.n_dropped <- 0

let records t =
  List.sort
    (fun a b ->
      match compare a.r_start b.r_start with 0 -> compare a.r_id b.r_id | c -> c)
    t.recs

(* --- Chrome trace-event export (chrome://tracing / Perfetto) --- *)

let to_chrome_json t =
  let recs = records t in
  (* Tracks become trace "threads", numbered in order of appearance. *)
  let tids = Hashtbl.create 16 in
  let track_order = ref [] in
  let tid_of track =
    match Hashtbl.find_opt tids track with
    | Some i -> i
    | None ->
        let i = Hashtbl.length tids in
        Hashtbl.replace tids track i;
        track_order := (track, i) :: !track_order;
        i
  in
  List.iter (fun r -> ignore (tid_of r.r_track)) recs;
  let by_id = Hashtbl.create 256 in
  List.iter (fun r -> Hashtbl.replace by_id r.r_id r) recs;
  let us_of ns = float_of_int ns /. 1e3 in
  let meta =
    List.rev_map
      (fun (track, tid) ->
        Json.Obj
          [
            ("ph", Json.String "M");
            ("name", Json.String "thread_name");
            ("pid", Json.Int 0);
            ("tid", Json.Int tid);
            ("args", Json.Obj [ ("name", Json.String track) ]);
          ])
      !track_order
  in
  let complete r =
    let args =
      List.map (fun (k, v) -> (k, Json.String v)) r.r_args
      @ (match r.r_parent with Some p -> [ ("parent", Json.Int p) ] | None -> [])
      @ (if r.r_trace >= 0 then [ ("trace", Json.Int r.r_trace) ] else [])
    in
    Json.Obj
      ([
         ("ph", Json.String "X");
         ("name", Json.String r.r_name);
         ("cat", Json.String "sim");
         ("pid", Json.Int 0);
         ("tid", Json.Int (tid_of r.r_track));
         ("ts", Json.Float (us_of r.r_start));
         ("dur", Json.Float (us_of (max 1 (r.r_end - r.r_start))));
       ]
      @ if args = [] then [] else [ ("args", Json.Obj args) ])
  in
  (* Cross-track parent/child edges become flow arrows, as do explicit
     causal links (group-commit piggybacks, lock-holder edges).  Each
     edge needs its own flow id; link edges take ids above the span id
     space so they never collide with parent-edge flows. *)
  let arrow ~name ~fid ~src ~dst =
    [
      Json.Obj
        [
          ("ph", Json.String "s");
          ("name", Json.String name);
          ("cat", Json.String "flow");
          ("id", Json.Int fid);
          ("pid", Json.Int 0);
          ("tid", Json.Int (tid_of src.r_track));
          ("ts", Json.Float (us_of src.r_start));
        ];
      Json.Obj
        [
          ("ph", Json.String "f");
          ("bp", Json.String "e");
          ("name", Json.String name);
          ("cat", Json.String "flow");
          ("id", Json.Int fid);
          ("pid", Json.Int 0);
          ("tid", Json.Int (tid_of dst.r_track));
          ("ts", Json.Float (us_of dst.r_start));
        ];
    ]
  in
  let next_link_fid = ref 0 in
  let link_fid_base =
    List.fold_left (fun acc r -> max acc (r.r_id + 1)) 0 recs
  in
  let flows r =
    let parent_flow =
      match r.r_parent with
      | None -> []
      | Some pid -> (
          match Hashtbl.find_opt by_id pid with
          | Some p when p.r_track <> r.r_track ->
              arrow ~name:"call" ~fid:r.r_id ~src:p ~dst:r
          | _ -> [])
    in
    let link_flows =
      List.concat_map
        (fun (k, v) ->
          if k <> "link" then []
          else
            match int_of_string_opt v with
            | None -> []
            | Some lid -> (
                match Hashtbl.find_opt by_id lid with
                | Some src ->
                    let fid = link_fid_base + !next_link_fid in
                    incr next_link_fid;
                    arrow ~name:"link" ~fid ~src ~dst:r
                | None -> []))
        r.r_args
    in
    parent_flow @ link_flows
  in
  let events = meta @ List.concat_map (fun r -> complete r :: flows r) recs in
  Json.to_string
    (Json.Obj
       [ ("displayTimeUnit", Json.String "ns"); ("traceEvents", Json.List events) ])
