(* perfbench: the end-to-end benchmark of the verifier.

   main.exe --workload NAME --seed N --seconds S --trace 0|1 [--dampi PATH]

   Runs one workload for S seconds, checks every output, and prints as the
   last line of stdout one JSON object with "correct", "attempted",
   "failed" and "metrics". --trace 0 prints the end-to-end metrics,
   --trace 1 the per-layer ones. Exits 1 when any output was wrong or any
   operation failed. See README.md for what each metric means. *)

open Perfbench

let end_to_end_names =
  [ "wall_s"; "replays_per_s"; "latency_p50_s"; "latency_p90_s"; "cold_p50_s";
    "warm_p50_s"; "jobs_per_s"; "setup_s"; "peak_rss_mb" ]

(* name, unit: every per-layer metric a traced run prints. A layer that a
   workload does not exercise reads 0 there. *)
let per_layer_catalog =
  [ ("program.self_s", "s"); ("interpose.self_s", "s"); ("runtime.self_s", "s");
    ("replay.harness_s", "s"); ("explorer.self_s", "s");
    ("ledger.unattributed_frac", "ratio"); ("replay.p50_us", "us");
    ("replay.p99_us", "us"); ("mpi.calls_per_replay", "count");
    ("mpi.match_attempts_per_replay", "count");
    ("dampi.piggyback_bytes_per_replay", "bytes");
    ("dampi.clock_merges_per_replay", "count");
    ("minor_words_per_replay", "words"); ("prune.cut_ratio", "ratio");
    ("worker.busy_frac", "ratio"); ("worker.gap_p50_us", "us");
    ("sched.wait_s", "s"); ("sched.steals", "count");
    ("sched.busy_frac", "ratio"); ("sched.runs_imbalance", "ratio");
    ("remote_worker.overhead_cpu_us_per_replay", "us");
    ("remote_worker.busy_frac", "ratio"); ("remote_worker.gap_p50_us", "us");
    ("coordinator.cpu_us_per_replay", "us"); ("coordinator.leases", "count");
    ("lease.items_mean", "count"); ("coordinator.releases", "count");
    ("serve.admit_p50_us", "us"); ("serve.run_p50_s", "s");
    ("serve.stream_p50_us", "us"); ("serve.job_wall_mean_s", "s");
    ("serve.dispatch_mean_s", "s"); ("state.bytes_per_cold_job", "bytes");
    ("trace.overhead_ratio", "ratio"); ("fail_ratio", "ratio") ]

let workloads = [ "explore-j1"; "serve-mix" ]

let usage () =
  prerr_endline
    "usage: main.exe --workload (explore-j1|serve-mix) \
     --seed N --seconds S --trace 0|1 [--dampi PATH]";
  exit 2

let parse argv =
  let workload = ref None and seed = ref None and seconds = ref None
  and trace = ref None and dampi = ref "_build/default/bin/dampi_cli.exe" in
  let rec go = function
    | "--workload" :: v :: rest ->
        if not (List.mem v workloads) then usage ();
        workload := Some v;
        go rest
    | "--seed" :: v :: rest ->
        seed := int_of_string_opt v;
        if !seed = None then usage ();
        go rest
    | "--seconds" :: v :: rest ->
        seconds := float_of_string_opt v;
        (match !seconds with Some s when s > 0.0 -> () | _ -> usage ());
        go rest
    | "--trace" :: v :: rest ->
        (match v with
        | "0" -> trace := Some false
        | "1" -> trace := Some true
        | _ -> usage ());
        go rest
    | "--dampi" :: v :: rest ->
        dampi := v;
        go rest
    | [] -> ()
    | _ -> usage ()
  in
  go (List.tl (Array.to_list argv));
  match (!workload, !seed, !seconds, !trace) with
  | Some w, Some s, Some t, Some tr -> (w, s, t, tr, !dampi)
  | _ -> usage ()

(* Kill every child and give up: a wedged run must not outlive the
   benchmark's time limit. *)
let arm_watchdog ~seconds =
  let kill_children () =
    List.iter
      (fun pid ->
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      (!Explore.children @ !Serve_mix.children)
  in
  Sys.set_signal Sys.sigalrm
    (Sys.Signal_handle
       (fun _ ->
         prerr_endline "perfbench: watchdog expired, giving up";
         kill_children ();
         Unix._exit 3));
  ignore (Unix.alarm (int_of_float seconds))

let () =
  let workload, seed, seconds, trace, dampi = parse Sys.argv in
  arm_watchdog ~seconds:(Float.min 170.0 (seconds +. 150.0));
  (* Scratch space for daemon state dirs and sockets, relative so socket
     paths stay short. *)
  let tmp = Filename.concat ".perfbench-tmp" (string_of_int (Unix.getpid ())) in
  let outcome =
    match workload with
    | "explore-j1" -> Explore.run ~seconds ~trace
    | _ ->
        if not (Sys.file_exists dampi) then begin
          Printf.eprintf "perfbench: no dampi binary at %s\n" dampi;
          exit 2
        end;
        (try Unix.mkdir ".perfbench-tmp" 0o755
         with Unix.Unix_error (Unix.EEXIST, _, _) -> ());
        Unix.mkdir tmp 0o755;
        Fun.protect
          ~finally:(fun () ->
            Serve_mix.rm_rf tmp;
            try Unix.rmdir ".perfbench-tmp" with Unix.Unix_error _ -> ())
          (fun () -> Serve_mix.run ~dampi ~tmp ~seed ~seconds ~trace)
  in
  let { Util.attempted; failed; errors; metrics } = outcome in
  List.iter (fun e -> Printf.eprintf "perfbench: %s\n" e) errors;
  let correct = errors = [] && metrics <> [] in
  let find name = List.find_opt (fun (m : Util.metric) -> m.name = name) metrics in
  let metrics =
    if trace then
      List.map
        (fun (name, unit_) ->
          if name = "fail_ratio" then
            Util.m name unit_
              (float_of_int failed /. float_of_int (max 1 attempted))
          else
            match find name with
            | Some m -> m
            | None -> Util.m name unit_ 0.0)
        per_layer_catalog
    else List.filter_map find end_to_end_names
  in
  print_endline
    (Util.result_line ~correct ~attempted:(max 1 attempted) ~failed metrics);
  if not correct || failed > 0 then exit 1
