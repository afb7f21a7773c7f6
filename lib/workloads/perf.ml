open Simkit

let schema = "odsbench-perf"

let schema_version = 1

let cell_seed = 0xF19L

let drill_seed = 0xD5177L

type layer_share = {
  ls_layer : string;
  ls_events : int;
  ls_wall_s : float;
  ls_wall_share : float;
  ls_minor_words : float;
  ls_major_words : float;
  ls_discarded : int;
}

type run_report = {
  r_name : string;
  r_seed : int64;
  r_events : int;
  r_sim_elapsed_s : float;
  r_wall_s : float;
  r_events_per_sec : float;
  r_wall_ms_per_sim_s : float;
  r_minor_words : float;
  r_major_words : float;
  r_minor_words_per_event : float;
  r_heap_depth_hwm : int;
  r_envelopes : int;
  r_packets : int;
  r_pm_writes : int;
  r_committed : int;
  r_layers : layer_share list;
}

type overhead = {
  o_workload : string;
  o_enabled_wall_s : float;
  o_disabled_wall_s : float;
  o_overhead_pct : float;
  o_enabled_minor_words : float;
  o_disabled_minor_words : float;
  o_alloc_overhead_pct : float;
  o_sim_elapsed_equal : bool;
  o_committed_equal : bool;
}

type report = { p_records : int; p_runs : run_report list; p_overhead : overhead }

let workload_names = [ "hot-stock-disk"; "hot-stock-pm"; "drill-pm"; "fig1-cell" ]

(* One profiled run: fresh profiler, major collection first so prior
   runs' garbage doesn't bill this run's wall clock, then the workload
   with the profiler installed on its simulation. *)
let profiled ~name ~seed f =
  Gc.full_major ();
  let p = Prof.create () in
  let sim_elapsed, committed = f p in
  let wall = Prof.wall_elapsed p in
  let events = Prof.events p in
  let handler_wall = Prof.wall_total p in
  let sim_s = Time.to_sec sim_elapsed in
  let layers =
    List.map
      (fun (r : Prof.layer_row) ->
        {
          ls_layer = r.Prof.l_name;
          ls_events = r.Prof.l_events;
          ls_wall_s = r.Prof.l_wall;
          ls_wall_share =
            (if handler_wall > 0.0 then r.Prof.l_wall /. handler_wall else 0.0);
          ls_minor_words = r.Prof.l_minor;
          ls_major_words = r.Prof.l_major;
          ls_discarded = r.Prof.l_discarded;
        })
      (Prof.layer_rows p)
  in
  {
    r_name = name;
    r_seed = seed;
    r_events = events;
    r_sim_elapsed_s = sim_s;
    r_wall_s = wall;
    r_events_per_sec = (if wall > 0.0 then float_of_int events /. wall else 0.0);
    r_wall_ms_per_sim_s = (if sim_s > 0.0 then wall *. 1e3 /. sim_s else 0.0);
    r_minor_words = Prof.minor_words p;
    r_major_words = Prof.major_words p;
    r_minor_words_per_event =
      (if events > 0 then Prof.minor_words p /. float_of_int events else 0.0);
    r_heap_depth_hwm = Prof.heap_depth_hwm p;
    r_envelopes = Prof.envelope_count p;
    r_packets = Prof.packet_count p;
    r_pm_writes = Prof.pm_write_count p;
    r_committed = committed;
    r_layers = layers;
  }

let hot_stock_run ~records ~mode ~drivers prof =
  let cell =
    Figures.run_cell ~seed:cell_seed ~prof ~mode ~drivers ~inserts_per_txn:8
      ~records_per_driver:records ()
  in
  (cell.Figures.result.Hot_stock.elapsed, cell.Figures.result.Hot_stock.committed)

let drill_run prof =
  let standard = Result.get_ok (Tp.Drill.scenario (Tp.Drill.Node Tp.System.Pm_audit) "standard") in
  match Tp.Drill.run ~prof { standard with Tp.Drill.seed = drill_seed } with
  | Ok r -> (r.Tp.Drill.elapsed, r.Tp.Drill.committed)
  | Error e -> failwith ("perf: drill workload failed: " ^ e)

(* Enabled-vs-disabled telemetry cost, measured around the run rather
   than from inside it: the profiler's own hooks are part of the cost
   being compared, so neither arm installs one.  Both arms must agree on
   simulated time and committed count — telemetry that changes results
   is a bug this report would surface. *)
let measure_overhead ~records =
  let run_with setup =
    Gc.full_major ();
    let mi0 = Gc.minor_words () in
    let t0 = Prof.now_s () in
    let cell =
      match setup with
      | `Enabled obs ->
          Figures.run_cell ~seed:cell_seed ~obs ~mode:Tp.System.Pm_audit ~drivers:2
            ~inserts_per_txn:8 ~records_per_driver:records ()
      | `Disabled ->
          Figures.run_cell ~seed:cell_seed ~mode:Tp.System.Pm_audit ~drivers:2
            ~inserts_per_txn:8 ~records_per_driver:records ()
    in
    let wall = Prof.now_s () -. t0 in
    let mi1 = Gc.minor_words () in
    (cell.Figures.result, wall, mi1 -. mi0)
  in
  let saved = Obs.level () in
  Fun.protect
    ~finally:(fun () -> Obs.set_level saved)
    (fun () ->
      Obs.set_level Obs.Spans;
      let obs = Obs.create () in
      Span.enable (Obs.spans obs);
      let on, enabled_wall, enabled_minor = run_with (`Enabled obs) in
      Obs.set_level Obs.Off;
      let off, disabled_wall, disabled_minor = run_with `Disabled in
      {
        o_workload = "hot-stock-pm";
        o_enabled_wall_s = enabled_wall;
        o_disabled_wall_s = disabled_wall;
        o_overhead_pct =
          (if disabled_wall > 0.0 then
             (enabled_wall -. disabled_wall) /. disabled_wall *. 100.0
           else 0.0);
        o_enabled_minor_words = enabled_minor;
        o_disabled_minor_words = disabled_minor;
        o_alloc_overhead_pct =
          (if disabled_minor > 0.0 then
             (enabled_minor -. disabled_minor) /. disabled_minor *. 100.0
           else 0.0);
        o_sim_elapsed_equal = on.Hot_stock.elapsed = off.Hot_stock.elapsed;
        o_committed_equal = on.Hot_stock.committed = off.Hot_stock.committed;
      })

let run ?(records = 300) () =
  if records < 1 then invalid_arg "Perf.run: need at least one record";
  let runs =
    [
      profiled ~name:"hot-stock-disk" ~seed:cell_seed
        (hot_stock_run ~records ~mode:Tp.System.Disk_audit ~drivers:2);
      profiled ~name:"hot-stock-pm" ~seed:cell_seed
        (hot_stock_run ~records ~mode:Tp.System.Pm_audit ~drivers:2);
      profiled ~name:"drill-pm" ~seed:drill_seed drill_run;
      profiled ~name:"fig1-cell" ~seed:cell_seed
        (hot_stock_run ~records ~mode:Tp.System.Disk_audit ~drivers:1);
    ]
  in
  { p_records = records; p_runs = runs; p_overhead = measure_overhead ~records }

(* --- JSON --- *)

let layer_json l =
  Json.Obj
    [
      ("layer", Json.String l.ls_layer);
      ("events", Json.Int l.ls_events);
      ("wall_s", Json.Float l.ls_wall_s);
      ("wall_share", Json.Float l.ls_wall_share);
      ("minor_words", Json.Float l.ls_minor_words);
      ("major_words", Json.Float l.ls_major_words);
      ("discarded", Json.Int l.ls_discarded);
    ]

let run_json r =
  Json.Obj
    [
      ("name", Json.String r.r_name);
      ("seed", Json.String (Printf.sprintf "0x%Lx" r.r_seed));
      ("events", Json.Int r.r_events);
      ("sim_elapsed_s", Json.Float r.r_sim_elapsed_s);
      ("wall_s", Json.Float r.r_wall_s);
      ("events_per_sec", Json.Float r.r_events_per_sec);
      ("wall_ms_per_sim_s", Json.Float r.r_wall_ms_per_sim_s);
      ("minor_words", Json.Float r.r_minor_words);
      ("major_words", Json.Float r.r_major_words);
      ("minor_words_per_event", Json.Float r.r_minor_words_per_event);
      ("heap_depth_hwm", Json.Int r.r_heap_depth_hwm);
      ( "alloc_counters",
        Json.Obj
          [
            ("msgsys_envelopes", Json.Int r.r_envelopes);
            ("fabric_packets", Json.Int r.r_packets);
            ("pm_writes", Json.Int r.r_pm_writes);
          ] );
      ("committed", Json.Int r.r_committed);
      ("layers", Json.List (List.map layer_json r.r_layers));
    ]

let overhead_json o =
  Json.Obj
    [
      ("workload", Json.String o.o_workload);
      ("enabled_wall_s", Json.Float o.o_enabled_wall_s);
      ("disabled_wall_s", Json.Float o.o_disabled_wall_s);
      ("overhead_pct", Json.Float o.o_overhead_pct);
      ("enabled_minor_words", Json.Float o.o_enabled_minor_words);
      ("disabled_minor_words", Json.Float o.o_disabled_minor_words);
      ("alloc_overhead_pct", Json.Float o.o_alloc_overhead_pct);
      ("sim_elapsed_equal", Json.Bool o.o_sim_elapsed_equal);
      ("committed_equal", Json.Bool o.o_committed_equal);
    ]

let to_json t =
  Json.Obj
    [
      ("schema", Json.String schema);
      ("schema_version", Json.Int schema_version);
      ("records", Json.Int t.p_records);
      ("workloads", Json.List (List.map run_json t.p_runs));
      ("telemetry_overhead", overhead_json t.p_overhead);
    ]

(* --- baseline comparison --- *)

let events_per_sec_of_json doc =
  match Json.member "workloads" doc with
  | Some ws -> (
      match Json.to_list_opt ws with
      | Some items ->
          Ok
            (List.filter_map
               (fun w ->
                 match
                   ( Option.bind (Json.member "name" w) Json.to_string_opt,
                     Option.bind (Json.member "events_per_sec" w) Json.to_float_opt )
                 with
                 | Some name, Some eps -> Some (name, eps)
                 | _ -> None)
               items)
      | None -> Error "perf: \"workloads\" is not a list")
  | None -> Error "perf: no \"workloads\" field"

type verdict = {
  v_workload : string;
  v_current : float;
  v_baseline : float;
  v_ok : bool;
}

let compare_baseline ~baseline ~current ~regress_pct =
  if regress_pct <= 0.0 || regress_pct >= 100.0 then
    Error "perf: regression threshold must be in (0, 100)"
  else
    match (events_per_sec_of_json baseline, events_per_sec_of_json current) with
    | Error e, _ | _, Error e -> Error e
    | Ok base, Ok cur ->
        let floor_of b = b *. (1.0 -. (regress_pct /. 100.0)) in
        Ok
          (List.filter_map
             (fun (name, b) ->
               match List.assoc_opt name cur with
               | None ->
                   (* A workload in the baseline but absent from the
                      current run is itself a regression. *)
                   Some { v_workload = name; v_current = 0.0; v_baseline = b; v_ok = false }
               | Some c ->
                   Some
                     { v_workload = name; v_current = c; v_baseline = b;
                       v_ok = c >= floor_of b })
             base)

let all_ok verdicts = List.for_all (fun v -> v.v_ok) verdicts
