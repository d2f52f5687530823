(* The serve-mix workload: a `dampi serve` daemon on a fresh state dir,
   driven by one client connection in a closed loop with at most 2 jobs
   in flight. A run is a sequence of rounds; each round starts a fresh
   daemon, drives one seeded stream of small registry jobs through it,
   and drains it with SIGTERM. *)

open Util
module Explorer = Dampi.Explorer
module Serve = Dampi.Serve

(* ---- the job stream ---- *)

type spec = { key : string; np : int; k : int option; max_runs : int option }

(* The registry jobs the stream draws from, one per canonical label. *)
let pool =
  [ { key = "fig3"; np = 3; k = None; max_runs = None };
    { key = "deadlock"; np = 2; k = None; max_runs = None } ]
  @ List.map (fun np -> { key = "matmult"; np; k = None; max_runs = None }) [ 4; 5; 6 ]
  @ List.map
      (fun np -> { key = "adlb"; np; k = Some 0; max_runs = None })
      [ 6; 7; 8; 9; 10; 11; 12 ]
  @ [ { key = "adlb"; np = 8; k = Some 1; max_runs = Some 300 } ]

(* Every job asks for the prefix cache; the budget is far above what any
   of these jobs stores. *)
let prefix_cache_bytes = 64 * 1024 * 1024

let label s =
  Printf.sprintf "%s np=%d%s%s" s.key s.np
    (match s.k with Some k -> Printf.sprintf " k=%d" k | None -> "")
    (match s.max_runs with Some n -> Printf.sprintf " max-runs=%d" n | None -> "")

type kind = Cold | Warm

(* One round's stream: every label in the pool once cold, then once warm
   at a seeded later point, so half the submissions repeat a label that
   has already been submitted. At each step the next submission is drawn
   uniformly from the unsent colds and the warms whose cold was sent. *)
let stream ~seed ~round =
  let rng = Random.State.make [| seed; round |] in
  let colds = Array.of_list pool in
  for i = Array.length colds - 1 downto 1 do
    let j = Random.State.int rng (i + 1) in
    let t = colds.(i) in
    colds.(i) <- colds.(j);
    colds.(j) <- t
  done;
  let next_cold = ref 0 and warms = ref [] and out = ref [] in
  while !next_cold < Array.length colds || !warms <> [] do
    let nc = Array.length colds - !next_cold and nw = List.length !warms in
    let pick = Random.State.int rng (nc + nw) in
    if pick < nc then begin
      let s = colds.(!next_cold) in
      incr next_cold;
      out := (s, Cold) :: !out;
      warms := !warms @ [ s ]
    end
    else begin
      let s = List.nth !warms (pick - nc) in
      warms := List.filter (fun w -> w != s) !warms;
      out := (s, Warm) :: !out
    end
  done;
  List.rev !out

let params s =
  [ ("workload", s.key); ("np", string_of_int s.np) ]
  @ (match s.k with Some k -> [ ("k", string_of_int k) ] | None -> [])
  @ (match s.max_runs with
    | Some n -> [ ("max-runs", string_of_int n) ]
    | None -> [])
  @ [ ("prefix-cache", string_of_int prefix_cache_bytes) ]

(* ---- reference reports ---- *)

(* The same programs as the `dampi` registry entries of these keys. *)
let build key : Mpi.Mpi_intf.program =
  match key with
  | "fig3" -> Workloads.Patterns.fig3
  | "deadlock" -> Workloads.Patterns.head_to_head
  | "matmult" ->
      Workloads.Matmult.program
        ~params:{ Workloads.Matmult.default_params with n = 8; rows_per_task = 2 }
        ()
  | "adlb" -> Workloads.Adlb.program ()
  | other -> invalid_arg ("no program for " ^ other)

type reference = { lines : string list; code : int; interleavings : int }

(* What `dampi verify` reports for [s], through the library directly, with
   the configuration the daemon gives a submitted job. *)
let reference s =
  let r =
    Explorer.verify
      ~config:
        {
          Explorer.default_config with
          state_config = Dampi.State.make_config ?mixing_bound:s.k ();
          max_runs =
            Option.value s.max_runs
              ~default:Explorer.default_config.Explorer.max_runs;
          prune = true;
          prefix_cache = Some prefix_cache_bytes;
        }
      ~np:s.np (build s.key)
  in
  {
    lines = canonical_report r;
    code = (if Dampi.Report.has_errors r then 1 else 0);
    interleavings = r.Dampi.Report.interleavings;
  }

(* ---- the daemon ---- *)

let children : int list ref = ref []

type daemon = {
  pid : int;
  sock : string;
  metrics_out : string option;
  setup_ns : int;
}

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let rec dir_bytes path =
  match Unix.lstat path with
  | exception Unix.Unix_error _ -> 0
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.fold_left
        (fun a f -> a + dir_bytes (Filename.concat path f))
        0 (Sys.readdir path)
  | { Unix.st_size; _ } -> st_size

(* Start `dampi serve` in [dir] and wait for its "listening" line. *)
let start_daemon ~dampi ~dir ~traced =
  Unix.mkdir dir 0o755;
  let sock = Filename.concat dir "s" in
  let metrics_out =
    if traced then Some (Filename.concat dir "metrics.json") else None
  in
  let argv =
    [ dampi; "serve"; "--listen"; "unix:" ^ sock; "--state-dir";
      Filename.concat dir "state" ]
    @ match metrics_out with Some p -> [ "--metrics-out"; p ] | None -> []
  in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let t0 = now_ns () in
  let pid =
    Unix.create_process dampi (Array.of_list argv) Unix.stdin out_w Unix.stderr
  in
  Unix.close out_w;
  children := pid :: !children;
  let ic = Unix.in_channel_of_descr out_r in
  let line = try input_line ic with End_of_file -> "" in
  let t1 = now_ns () in
  close_in ic;
  if String.length line < 9 || String.sub line 0 9 <> "listening" then
    Error (Printf.sprintf "daemon did not start (%S)" line)
  else Ok { pid; sock; metrics_out; setup_ns = t1 - t0 }

let stop_daemon d =
  (try Unix.kill d.pid Sys.sigterm with Unix.Unix_error _ -> ());
  let _, status = Unix.waitpid [] d.pid in
  children := List.filter (( <> ) d.pid) !children;
  status

(* serve.job_wall_s (sum, count) from the daemon's --metrics-out JSON. *)
let job_wall path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ -> None
  | text -> (
      let find_from i pat =
        let n = String.length pat in
        let rec go i =
          if i + n > String.length text then None
          else if String.sub text i n = pat then Some (i + n)
          else go (i + 1)
        in
        go i
      in
      match find_from 0 "\"serve.job_wall_s\"" with
      | None -> None
      | Some i -> (
          match (find_from i "\"count\":", find_from i "\"sum\":") with
          | Some c, Some s ->
              let num j =
                Scanf.sscanf (String.sub text j (String.length text - j)) "%f"
                  Fun.id
              in
              Some (num s, num c)
          | _ -> None))

(* ---- one round ---- *)

type job = {
  spec : spec;
  kind : kind;
  t_submit : int;
  mutable t_accepted : int;
  mutable t_report : int;
  mutable t_done : int;
  mutable lines : string list;
}

type round = {
  r_wall_ns : int;
  r_setup_ns : int;
  r_rss_mb : float;
  r_jobs : job list;  (** completed and checked *)
  r_interleavings : int;
  r_state_bytes : int;
  r_colds : int;
  r_job_wall : (float * float) option;  (** daemon's (sum s, count) *)
  r_traced : bool;
}

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.connect fd (Unix.ADDR_UNIX sock);
  (Unix.in_channel_of_descr fd, Unix.out_channel_of_descr fd)

(* Drive one stream through [d]; the first failed, rejected or wrong job
   raises [Failure] and ends the round. *)
let drive d ~(refs : (string, reference) Hashtbl.t) items =
  let ic, oc = connect d.sock in
  let items = ref items in
  let inflight = Hashtbl.create 4 and unaccepted = Queue.create () in
  let cold_done = Hashtbl.create 16 and completed = ref [] in
  let fail_job j why =
    failwith
      (Printf.sprintf "%s (%s): %s" (label j.spec)
         (if j.kind = Cold then "cold" else "warm")
         why)
  in
  let n_inflight () = Hashtbl.length inflight + Queue.length unaccepted in
  let finish j ~status ~code ~msg =
    let l = label j.spec in
    let r = Hashtbl.find refs l in
    if status <> "completed" || code <> r.code then
      fail_job j
        (Printf.sprintf "status %s code %d (expected completed %d) %s" status
           code r.code msg);
    if j.lines <> r.lines then
      fail_job j
        (Printf.sprintf
           "report differs from direct Explorer.verify:\n%s\n--- expected:\n%s"
           (String.concat "\n" j.lines)
           (String.concat "\n" r.lines));
    (match j.kind with
    | Cold -> Hashtbl.replace cold_done l j.lines
    | Warm ->
        if Some j.lines <> Hashtbl.find_opt cold_done l then
          fail_job j "warm report differs from its cold report");
    completed := j :: !completed
  in
  (* Submit while the window has room and the next job may go: a warm
     repeat waits until its label's cold run is done. *)
  let rec submit () =
    match !items with
    | (spec, kind) :: rest
      when n_inflight () < 2
           && (kind = Cold || Hashtbl.mem cold_done (label spec)) ->
        items := rest;
        output_string oc
          (Serve.submit_line ~params:(params spec) ~on_disconnect:Serve.Cancel
          ^ "\n");
        flush oc;
        Queue.add
          { spec; kind; t_submit = now_ns (); t_accepted = 0; t_report = 0;
            t_done = 0; lines = [] }
          unaccepted;
        submit ()
    | _ -> ()
  in
  let t0 = now_ns () in
  let rec loop () =
    submit ();
    if n_inflight () > 0 then begin
      let ev = Serve.read_event ic in
      let t = now_ns () in
      (match ev with
      | Error e -> failwith ("daemon connection: " ^ e)
      | Ok (Serve.Accepted id) ->
          let j = Queue.pop unaccepted in
          j.t_accepted <- t;
          Hashtbl.replace inflight id j
      | Ok (Serve.Rejected r) -> fail_job (Queue.pop unaccepted) ("rejected: " ^ r)
      | Ok (Serve.Errored { reason; _ }) ->
          fail_job (Queue.pop unaccepted) ("error: " ^ reason)
      | Ok (Serve.Progress _ | Serve.Pending _) -> ()
      | Ok (Serve.Report (id, lines)) ->
          Option.iter
            (fun j ->
              j.t_report <- t;
              j.lines <- canonical_lines lines)
            (Hashtbl.find_opt inflight id)
      | Ok (Serve.Done { id; status; code; msg; _ }) ->
          Option.iter
            (fun j ->
              Hashtbl.remove inflight id;
              j.t_done <- t;
              finish j ~status ~code ~msg)
            (Hashtbl.find_opt inflight id));
      loop ()
    end
    else if !items <> [] then
      failwith "stream stalled: a warm job's cold run never finished"
  in
  loop ();
  let wall = now_ns () - t0 in
  close_out_noerr oc;
  (wall, List.rev !completed)

let run_round ~dampi ~(refs : (string, reference) Hashtbl.t) ~fail ~dir
    ~traced items =
  match start_daemon ~dampi ~dir ~traced with
  | Error e ->
      fail e;
      None
  | Ok d ->
      let result =
        match drive d ~refs items with
        | r -> Ok r
        | exception Failure msg -> Error msg
        | exception e -> Error (Printexc.to_string e)
      in
      (* The daemon's peak RSS, read before it drains. *)
      let rss = peak_rss_mb (string_of_int d.pid) in
      let status = stop_daemon d in
      (match status with
      | Unix.WEXITED 0 -> ()
      | _ -> fail "daemon did not drain cleanly");
      let out =
        match result with
        | Error e ->
            fail e;
            None
        | Ok (wall, jobs) ->
            Some
              {
                r_wall_ns = wall;
                r_setup_ns = d.setup_ns;
                r_rss_mb = rss;
                r_jobs = jobs;
                r_interleavings =
                  List.fold_left
                    (fun a j -> a + (Hashtbl.find refs (label j.spec)).interleavings)
                    0 jobs;
                r_state_bytes = dir_bytes (Filename.concat dir "state");
                r_colds = List.length (List.filter (fun j -> j.kind = Cold) jobs);
                r_job_wall = Option.bind d.metrics_out job_wall;
                r_traced = traced;
              }
      in
      rm_rf dir;
      out

(* ---- metrics ---- *)

let lat j = s_of_ns (j.t_done - j.t_submit)

let end_to_end rounds =
  let jobs = List.concat_map (fun r -> r.r_jobs) rounds in
  let lats k =
    Array.of_list
      (List.map lat (List.filter (fun j -> k = None || Some j.kind = k) jobs))
  in
  let total_wall =
    List.fold_left (fun a r -> a +. s_of_ns r.r_wall_ns) 0.0 rounds
  in
  let per_round f = median (Array.of_list (List.map f rounds)) in
  let all = lats None in
  [
    m "wall_s" "s" (per_round (fun r -> s_of_ns r.r_wall_ns));
    m "replays_per_s" "1/s"
      (float_of_int (List.fold_left (fun a r -> a + r.r_interleavings) 0 rounds)
      /. total_wall);
    m "latency_p50_s" "s" (quantile 0.5 all);
    m "latency_p90_s" "s" (quantile 0.9 all);
    m "cold_p50_s" "s" (median (lats (Some Cold)));
    m "warm_p50_s" "s" (median (lats (Some Warm)));
    m "jobs_per_s" "1/s" (float_of_int (List.length jobs) /. total_wall);
    m "setup_s" "s" (per_round (fun r -> s_of_ns r.r_setup_ns));
    m "peak_rss_mb" "MB" (per_round (fun r -> r.r_rss_mb));
  ]

let per_layer rounds =
  let traced = List.filter (fun r -> r.r_traced) rounds in
  let jobs = List.concat_map (fun r -> r.r_jobs) traced in
  let p50 f = median (Array.of_list (List.map f jobs)) in
  let job_wall_mean =
    let sum, count =
      List.fold_left
        (fun (s, c) r ->
          match r.r_job_wall with
          | Some (s', c') -> (s +. s', c +. c')
          | None -> (s, c))
        (0.0, 0.0) traced
    in
    sum /. count
  in
  let wall rs =
    median (Array.of_list (List.map (fun r -> s_of_ns r.r_wall_ns) rs))
  in
  let us a b = float_of_int (b - a) *. 1e-3 in
  [
    m "serve.admit_p50_us" "us" (p50 (fun j -> us j.t_submit j.t_accepted));
    m "serve.run_p50_s" "s" (p50 (fun j -> s_of_ns (j.t_report - j.t_accepted)));
    m "serve.stream_p50_us" "us" (p50 (fun j -> us j.t_report j.t_done));
    m "serve.job_wall_mean_s" "s" job_wall_mean;
    m "serve.dispatch_mean_s" "s"
      (mean
         (Array.of_list
            (List.map (fun j -> s_of_ns (j.t_done - j.t_accepted)) jobs))
      -. job_wall_mean);
    m "state.bytes_per_cold_job" "bytes"
      (float_of_int (List.fold_left (fun a r -> a + r.r_state_bytes) 0 traced)
      /. float_of_int (List.fold_left (fun a r -> a + r.r_colds) 0 traced));
    m "trace.overhead_ratio" "ratio"
      (wall traced /. wall (List.filter (fun r -> not r.r_traced) rounds));
  ]

(* ---- the workload ---- *)

(* Rounds until [seconds] are spent and at least [min_jobs] jobs are in,
   so latency_p90_s has at least 10 samples beyond it. A traced run
   alternates untraced rounds (no --metrics-out, no state-dir walk) with
   traced ones, which give the per-layer figures. *)
let min_jobs = 100

let run ~dampi ~tmp ~seed ~seconds ~trace =
  let errors = ref [] in
  let fail e = errors := e :: !errors in
  (* Untimed: the expected report of every label, from the library. *)
  let refs = Hashtbl.create 16 in
  List.iter (fun s -> Hashtbl.replace refs (label s) (reference s)) pool;
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let rounds = ref [] and attempted = ref 0 and round = ref 0 in
  let last_round = ref 0 in
  let jobs_in () = List.fold_left (fun a r -> a + List.length r.r_jobs) 0 !rounds in
  while
    !errors = []
    && (now_ns () + !last_round <= deadline
       || jobs_in () < min_jobs
       || (trace && List.length !rounds < 2))
  do
    let t = now_ns () in
    let items = stream ~seed ~round:!round in
    attempted := !attempted + List.length items;
    let traced = trace && !round mod 2 = 1 in
    let dir = Filename.concat tmp (string_of_int !round) in
    Option.iter
      (fun r -> rounds := r :: !rounds)
      (run_round ~dampi ~refs ~fail ~dir ~traced items);
    last_round := now_ns () - t;
    incr round
  done;
  let rounds = List.rev !rounds in
  let errors = List.rev !errors in
  let metrics =
    if errors <> [] || rounds = [] then []
    else if trace then per_layer rounds
    else end_to_end rounds
  in
  {
    attempted = !attempted;
    failed = !attempted - jobs_in ();
    errors;
    metrics;
  }
