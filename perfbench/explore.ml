(* The explore-j1 workload: one exhaustive verification of adlb2 under CLI
   defaults at jobs=1, repeated for the measured time. Its traced run also
   walks at jobs=2, and with a coordinator on the main domain leasing to 2
   forked worker processes, for the layers only those settings use. *)

open Util
module Explorer = Dampi.Explorer
module Report = Dampi.Report

type mode = J1 | J2 | Dist2

let np = 6
let workload_key = "adlb2"

let program () =
  Workloads.Adlb.program
    ~params:
      { Workloads.Adlb.default_params with servers = 2; puts_per_client = 1 }
    ()

(* CLI defaults: Lamport clock, pruning on, no prefix cache. *)
let config ~jobs = { Explorer.default_config with prune = true; jobs }

(* The mode-independent part of a report: the virtual-time totals and the
   per-worker block depend on float summation order and scheduling, so
   they are left out. *)
let canonical_counts (r : Report.t) =
  ( r.Report.interleavings,
    r.Report.runs_pruned,
    r.Report.wildcards_analyzed,
    r.Report.bounded_epochs,
    r.Report.monitor_alerts,
    List.map
      (fun (f : Report.finding) ->
        (Report.error_signature f.Report.error, f.Report.schedule))
      r.Report.findings )

(* adlb2's canonical counts under these settings: interleavings, pruned,
   R*, bounded epochs, alerts, findings. Every walk of every mode must
   reproduce them exactly. *)
let expected = (32118, 147, 12, 0, 0, [])

let check_report (r : Report.t) =
  let ((i, p, w, b, a, f) as got) = canonical_counts r in
  if r.Report.interrupted then Error "exploration interrupted"
  else if Obs.Metrics.counter_value r.Report.metrics "coordinator.releases" <> 0
  then Error "coordinator re-leased items: a worker was lost"
  else if r.Report.harness_failures <> [] then
    Error
      (Printf.sprintf "%d harness failures"
         (List.length r.Report.harness_failures))
  else if got <> expected then
    Error
      (Printf.sprintf
         "report differs from adlb2's canonical counts: %d interleavings, %d \
          pruned, R* %d, %d bounded, %d alerts, %d findings"
         i p w b a (List.length f))
  else Ok ()

(* ---- distributed workers ---- *)

(* What a forked worker sends back when its session ends. *)
type worker_result = {
  w_spans : Spans.frozen;
  w_cpu_s : float;
  w_minor_words : float;
  w_outcome : string;
}

let children : int list ref = ref []

let resolve spans (job : Dampi.Wire.job) =
  if job.Dampi.Wire.workload <> workload_key || job.Dampi.Wire.np <> np then
    Error (Printf.sprintf "unexpected job %s np=%d" job.workload job.np)
  else
    Ok
      {
        Dampi.Remote_worker.np;
        runner =
          Spans.wrap spans
            (Explorer.dampi_runner (config ~jobs:1) ~np (program ()));
        rb = Explorer.default_robustness;
        prune = true;
      }

(* Fork one worker on a socketpair. The child serves one coordinator
   session, ships its spans and counters up a pipe, and exits without
   running the parent's at_exit handlers. [inherited] are the parent's
   ends of earlier workers, closed in the child so their EOFs stay
   visible. *)
let fork_worker ~inherited =
  let coord_fd, worker_fd = Unix.socketpair Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rd, wr = Unix.pipe ~cloexec:true () in
  flush stdout;
  flush stderr;
  match Unix.fork () with
  | 0 ->
      List.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
        (coord_fd :: rd :: inherited);
      let cpu0 = cpu_s () and mw0 = minor_words () in
      let spans = Spans.create () in
      let outcome =
        match Dampi.Remote_worker.serve ~resolve:(resolve spans) worker_fd with
        | `Shutdown -> "shutdown"
        | `Disconnected -> "disconnected"
        | `Rejected why -> "rejected: " ^ why
      in
      let r =
        {
          w_spans = Spans.freeze spans;
          w_cpu_s = cpu_s () -. cpu0;
          w_minor_words = minor_words () -. mw0;
          w_outcome = outcome;
        }
      in
      let oc = Unix.out_channel_of_descr wr in
      Marshal.to_channel oc r [];
      close_out oc;
      Unix._exit 0
  | pid ->
      children := pid :: !children;
      Unix.close worker_fd;
      Unix.close wr;
      (pid, coord_fd, rd)

let collect_worker (pid, _coord_fd, rd) =
  let ic = Unix.in_channel_of_descr rd in
  let r =
    match (Marshal.from_channel ic : worker_result) with
    | r -> Ok r
    | exception (End_of_file | Failure _) -> Error "worker sent no result"
  in
  close_in ic;
  ignore (Unix.waitpid [] pid);
  children := List.filter (( <> ) pid) !children;
  match r with
  | Ok { w_outcome = "shutdown"; _ } -> r
  | Ok { w_outcome; _ } -> Error ("worker ended with " ^ w_outcome)
  | Error _ -> r

let dist_setup fds =
  {
    Dampi.Coordinator.attach = Dampi.Coordinator.Fds fds;
    job = { Dampi.Wire.workload = workload_key; np; params = [] };
    lease_size = Dampi.Coordinator.default_lease_size;
    heartbeat_timeout = Dampi.Coordinator.default_heartbeat_timeout;
    join_timeout = Dampi.Coordinator.default_join_timeout;
    rejoin_grace = Dampi.Coordinator.default_rejoin_grace;
    auth = None;
    net_fault = None;
    outq_budget = Dampi.Coordinator.default_outq_budget;
  }

(* ---- one walk ---- *)

type walk = {
  wall_ns : int;
  setup_ns : int;  (** walk start to the first replay on a worker *)
  report : Report.t;
  spans : Spans.frozen list;  (** replay workers only, one per worker *)
  local : Spans.frozen option;  (** the coordinator's local self run *)
  cpu_s : float;  (** this process *)
  worker_cpu_s : float list;
  minor_words : float;  (** all processes *)
  ledger : Ledger.t option;
}

let replays w =
  List.fold_left (fun a f -> a + Array.length f.Spans.f_starts) 0 w.spans
  + match w.local with Some f -> Array.length f.Spans.f_starts | None -> 0

let first_start spans =
  List.fold_left
    (fun a f ->
      if Array.length f.Spans.f_starts > 0 then min a f.Spans.f_starts.(0)
      else a)
    max_int spans

(* [traced] swaps in the ledger runner; only jobs=1 supports it, since a
   ledger has one cursor and domains would race on it. *)
let walk mode ~traced =
  let jobs = match mode with J2 -> 2 | J1 | Dist2 -> 1 in
  let config = config ~jobs in
  let ledger = if traced then Some (Ledger.create ()) else None in
  let base =
    match ledger with
    | Some l -> Ledger.runner config ~np l (program ())
    | None -> Explorer.dampi_runner config ~np (program ())
  in
  let cpu0 = cpu_s () and mw0 = minor_words () in
  let t0 = now_ns () in
  let finish ~t1 ~report ~spans ~local ~workers =
    Ok
      {
        wall_ns = t1 - t0;
        setup_ns = first_start spans - t0;
        report;
        spans;
        local;
        cpu_s = cpu_s () -. cpu0;
        worker_cpu_s = List.map (fun r -> r.w_cpu_s) workers;
        minor_words =
          List.fold_left
            (fun a r -> a +. r.w_minor_words)
            (minor_words () -. mw0) workers;
        ledger;
      }
  in
  match mode with
  | J1 | J2 ->
      let bufs = Array.init jobs (fun _ -> Spans.create ()) in
      let wrapped = Array.map (fun b -> Spans.wrap b base) bufs in
      let runner ~(ctx : Explorer.run_ctx) = wrapped.(ctx.worker) ~ctx in
      let report = Explorer.explore ~config ~np runner in
      finish ~t1:(now_ns ()) ~report
        ~spans:(Array.to_list (Array.map Spans.freeze bufs))
        ~local:None ~workers:[]
  | Dist2 -> (
      let w1 = fork_worker ~inherited:[] in
      let _, c1, r1 = w1 in
      let w2 = fork_worker ~inherited:[ c1; r1 ] in
      let fds = List.map (fun (_, c, _) -> c) [ w1; w2 ] in
      let local = Spans.create () in
      let report =
        Explorer.explore ~config ~distribute:(dist_setup fds) ~np
          (Spans.wrap local base)
      in
      let t1 = now_ns () in
      match (collect_worker w1, collect_worker w2) with
      | Error e, _ | _, Error e -> Error e
      | Ok a, Ok b ->
          finish ~t1 ~report
            ~spans:[ a.w_spans; b.w_spans ]
            ~local:(Some (Spans.freeze local))
            ~workers:[ a; b ])

(* ---- metrics ---- *)

let counter w name = Obs.Metrics.counter_value w.report.Report.metrics name

let hist_sum w name =
  match Obs.Metrics.find w.report.Report.metrics name with
  | Some (Obs.Metrics.Histogram h) -> h.Obs.Metrics.sum
  | _ -> 0.0

let per_replay w x = x /. float_of_int (max 1 (replays w))

let all_durations ws =
  Array.concat
    (List.concat_map
       (fun w ->
         List.map Spans.durations
           (w.spans @ Option.to_list w.local))
       ws)

let med_of f ws = median (Array.of_list (List.map f ws))
let wall_s w = s_of_ns w.wall_ns

(* The explore-j1 ledger over the traced walks, per walk; [] when they ran
   the real runner. *)
let ledger_metrics traced =
  let ledgers =
    List.filter_map (fun w -> Option.map (fun l -> (w, l)) w.ledger) traced
  in
  if ledgers = [] then []
  else begin
    let per_walk f = mean (Array.of_list (List.map f ledgers)) in
    let charged layer = per_walk (fun (_, l) -> s_of_ns (Ledger.charged l layer)) in
    let program = charged Ledger.Program
    and interpose = charged Ledger.Interpose
    and runtime = charged Ledger.Runtime in
    let runner_s =
      per_walk (fun (w, _) ->
          s_of_ns (Array.fold_left ( + ) 0 (all_durations [ w ])))
    in
    let wall = per_walk (fun (w, _) -> wall_s w) in
    let harness = runner_s -. (program +. interpose +. runtime) in
    (* The residual harness phase against the one the ledger charged
       itself (runner entry to the first rank, and after the ranks): their
       difference is runner time no phase accounts for. *)
    let unattributed = Float.abs (harness -. charged Ledger.Harness) in
    [
      m "program.self_s" "s" program;
      m "interpose.self_s" "s" interpose;
      m "runtime.self_s" "s" runtime;
      m "replay.harness_s" "s" harness;
      m "explorer.self_s" "s" (wall -. runner_s);
      m "ledger.unattributed_frac" "ratio" (unattributed /. wall);
      m "mpi.calls_per_replay" "count"
        (per_walk (fun (w, l) -> per_replay w (float_of_int l.Ledger.mpi_calls)));
    ]
  end

let remote_replays w =
  float_of_int
    (List.fold_left (fun a f -> a + Array.length f.Spans.f_starts) 0 w.spans)

let busy w = s_of_ns (List.fold_left (fun a f -> a + Spans.busy f) 0 w.spans)

(* Σ runner time over (workers × wall), and the idle time between a
   worker's consecutive replays. *)
let busy_frac w = busy w /. (float_of_int (List.length w.spans) *. wall_s w)

let gap_p50_us ws =
  quantile 0.5
    (floats_of_ints
       (Array.concat (List.concat_map (fun w -> List.map Spans.gaps w.spans) ws)))
  *. 1e-3

(* The scheduler's figures, from walks on 2 domains. *)
let sched_metrics ws =
  let per_walk f = med_of f ws in
  let imbalance w =
    let counts =
      Array.of_list
        (List.map (fun f -> float_of_int (Array.length f.Spans.f_starts)) w.spans)
    in
    let hi = Array.fold_left Float.max neg_infinity counts
    and lo = Array.fold_left Float.min infinity counts in
    (hi -. lo) /. mean counts
  in
  [
    m "sched.wait_s" "s" (per_walk (fun w -> hist_sum w "sched.queue_wait_s"));
    m "sched.steals" "count"
      (per_walk (fun w -> float_of_int (counter w "sched.steals")));
    m "sched.busy_frac" "ratio" (per_walk busy_frac);
    m "sched.runs_imbalance" "ratio" (per_walk imbalance);
  ]

(* The coordinator, wire and remote-worker figures, from walks leased to
   2 forked workers. *)
let coordinator_metrics ws =
  let per_walk f = med_of f ws in
  let leases w = float_of_int (counter w "coordinator.leases") in
  [
    m "remote_worker.overhead_cpu_us_per_replay" "us"
      (per_walk (fun w ->
           (List.fold_left ( +. ) 0.0 w.worker_cpu_s -. busy w)
           /. remote_replays w *. 1e6));
    m "remote_worker.busy_frac" "ratio" (per_walk busy_frac);
    m "remote_worker.gap_p50_us" "us" (gap_p50_us ws);
    m "coordinator.cpu_us_per_replay" "us"
      (per_walk (fun w -> w.cpu_s /. remote_replays w *. 1e6));
    m "coordinator.leases" "count" (per_walk leases);
    m "lease.items_mean" "count" (per_walk (fun w -> remote_replays w /. leases w));
    m "coordinator.releases" "count"
      (per_walk (fun w -> float_of_int (counter w "coordinator.releases")));
  ]

(* Per-layer figures of the jobs=1 walks: [plain] walks ran dampi_runner,
   [traced] walks the ledger runner; [sched] and [dist] are the plain
   walks on 2 domains and on 2 forked workers. *)
let per_layer ~plain ~traced ~sched ~dist =
  let per_walk f = med_of f plain in
  let counted name w = per_replay w (float_of_int (counter w name)) in
  let d = floats_of_ints (all_durations plain) in
  [
    m "replay.p50_us" "us" (quantile 0.5 d *. 1e-3);
    m "replay.p99_us" "us" (quantile 0.99 d *. 1e-3);
    m "mpi.match_attempts_per_replay" "count" (per_walk (counted "mpi.match_attempts"));
    m "dampi.piggyback_bytes_per_replay" "bytes"
      (per_walk (counted "dampi.piggyback_bytes"));
    m "dampi.clock_merges_per_replay" "count" (per_walk (counted "dampi.clock_merges"));
    m "minor_words_per_replay" "words" (per_walk (fun w -> per_replay w w.minor_words));
    m "prune.cut_ratio" "ratio"
      (per_walk (fun w ->
           let p = float_of_int w.report.Report.runs_pruned in
           p /. (float_of_int w.report.Report.interleavings +. p)));
    m "worker.busy_frac" "ratio" (per_walk busy_frac);
    m "worker.gap_p50_us" "us" (gap_p50_us plain);
    m "trace.overhead_ratio" "ratio" (med_of wall_s traced /. med_of wall_s plain);
  ]
  @ sched_metrics sched @ coordinator_metrics dist @ ledger_metrics traced

(* ---- the workload ---- *)

(* What one process's walks produced. *)
type share = {
  s_errors : string list;
  s_plain : walk list;  (** in order; the first is the process's cold walk *)
  s_traced : walk list;
  s_rss_mb : float;  (** this process's VmHWM when its walks were done *)
}

(* One walker process makes [walks] walks (1 or 2): untraced, a cold walk
   and then a warm one; traced, a plain walk and then a traced one, which
   must render the same report (the ledger must describe the program
   dampi_runner runs). Every walk is checked against the canonical
   counts. *)
let walker mode ~trace ~walks =
  let errors = ref [] in
  let do_walk ~traced =
    match walk mode ~traced:(traced && mode = J1) with
    | Error e ->
        errors := e :: !errors;
        None
    | exception e ->
        errors := Printexc.to_string e :: !errors;
        None
    | Ok w -> (
        match check_report w.report with
        | Error e ->
            errors := e :: !errors;
            None
        | Ok () -> Some w)
  in
  let first = do_walk ~traced:false in
  let second = if walks > 1 then do_walk ~traced:trace else None in
  let plain, traced =
    match (first, second) with
    | Some p, Some t when trace ->
        if mode = J1 && canonical_report t.report <> canonical_report p.report
        then begin
          errors :=
            "traced runner's canonical report differs from dampi_runner's"
            :: !errors;
          ([ p ], [])
        end
        else ([ p ], [ t ])
    | _ -> (Option.to_list first @ Option.to_list second, [])
  in
  {
    s_errors = List.rev !errors;
    s_plain = plain;
    s_traced = traced;
    s_rss_mb = peak_rss_mb "self";
  }

(* Run [f] in [n] forked processes at once and collect what each
   returns. *)
let in_children n f =
  let forked =
    List.init n (fun _ ->
        let rd, wr = Unix.pipe ~cloexec:true () in
        flush stdout;
        flush stderr;
        match Unix.fork () with
        | 0 ->
            Unix.close rd;
            let oc = Unix.out_channel_of_descr wr in
            Marshal.to_channel oc (f () : share) [];
            close_out oc;
            Unix._exit 0
        | pid ->
            children := pid :: !children;
            Unix.close wr;
            (pid, rd))
  in
  List.map
    (fun (pid, rd) ->
      let ic = Unix.in_channel_of_descr rd in
      let r =
        match (Marshal.from_channel ic : share) with
        | s -> Ok s
        | exception (End_of_file | Failure _) -> Error "walker process died"
      in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      children := List.filter (( <> ) pid) !children;
      r)
    forked

(* Every step of the jobs=1 walks [ws] at its fastest over them: walk
   start to the first replay, each replay, each gap between replays (the
   explorer's own work) and the last replay to the walk's end. A jobs=1
   walk makes the same replays in the same order every time, so step i is
   the same work in every walk. *)
type fastest = {
  f_setup : int;
  f_replays : int array;
  f_gaps : int array;
  f_tail : int;
}

let fastest ws =
  let spans = List.map (fun w -> (w, List.hd w.spans)) ws in
  let n = Array.length (snd (List.hd spans)).Spans.f_starts in
  let least f = List.fold_left (fun a x -> min a (f x)) max_int spans in
  {
    f_setup = least (fun (w, _) -> w.setup_ns);
    f_replays =
      Array.init n (fun i ->
          least (fun (_, f) -> f.Spans.f_ends.(i) - f.Spans.f_starts.(i)));
    f_gaps =
      Array.init (n - 1) (fun i ->
          least (fun (_, f) -> f.Spans.f_starts.(i + 1) - f.Spans.f_ends.(i)));
    f_tail =
      least (fun (w, f) ->
          w.wall_ns - w.setup_ns - (f.Spans.f_ends.(n - 1) - f.Spans.f_starts.(0)));
  }

let fastest_wall_s f =
  s_of_ns
    (f.f_setup
    + Array.fold_left ( + ) 0 f.f_replays
    + Array.fold_left ( + ) 0 f.f_gaps
    + f.f_tail)

(* explore-j1's requests are replays. Every time is taken from the walks'
   fastest steps: other tenants of a shared machine slow a core by up to
   1.7x for seconds to minutes at a time, which moved the median walk
   wall by over 40% between sets of runs of the same code, while most
   steps still run at full speed in at least one of a run's dozen or more
   walks. Cold steps are those of each walker's first walk, warm ones of
   its second. *)
let end_to_end shares =
  let ws = List.concat_map (fun s -> s.s_plain) shares in
  let f = fastest ws in
  let replay_s f = Array.map s_of_ns f.f_replays in
  let wall = fastest_wall_s f in
  let two = List.filter (fun s -> List.length s.s_plain = 2) shares in
  [
    m "wall_s" "s" wall;
    m "replays_per_s" "1/s" (float_of_int (Array.length f.f_replays) /. wall);
    m "latency_p50_s" "s" (median (replay_s f));
    m "latency_p90_s" "s" (quantile 0.9 (replay_s f));
    m "cold_p50_s" "s"
      (median (replay_s (fastest (List.map (fun s -> List.hd s.s_plain) shares))));
    m "warm_p50_s" "s"
      (median (replay_s (fastest (List.concat_map (fun s -> List.tl s.s_plain) two))));
    m "jobs_per_s" "1/s" (1.0 /. wall);
    m "setup_s" "s" (med_of (fun w -> s_of_ns w.setup_ns) ws);
    (* Walkers of the closing single-walk rounds grew less heap. *)
    m "peak_rss_mb" "MB"
      (median (Array.of_list (List.map (fun s -> s.s_rss_mb) two)));
  ]

(* A run is a sequence of rounds until the deadline (at least one). Each
   round forks two single-threaded walkers side by side, one per core,
   from the benchmark process, so cold walks are spread over the whole
   run. They share no heap, so no walk pays for another's GC. Rounds of
   two walks per walker run while the last such round's wall says another
   fits; then, while one walk fits, rounds of a single cold walk.

   A traced run then forks one walker on 2 domains and one that leases to
   2 forked workers, two plain walks each, for the scheduler and the
   coordinator, wire and remote-worker figures. *)
let run ~seconds ~trace =
  let deadline = now_ns () + int_of_float (seconds *. 1e9) in
  let shares = ref [] and attempted = ref 0 in
  let round ~walks =
    let t = now_ns () in
    shares := !shares @ in_children 2 (fun () -> walker J1 ~trace ~walks);
    attempted := !attempted + (2 * walks);
    now_ns () - t
  in
  let last = ref (round ~walks:2) in
  while now_ns () + !last <= deadline do
    last := round ~walks:2
  done;
  let last = ref (!last / 2) in
  while (not trace) && now_ns () + !last <= deadline do
    last := round ~walks:1
  done;
  let side mode =
    if trace then in_children 1 (fun () -> walker mode ~trace:false ~walks:2)
    else []
  in
  let sched = side J2 and dist = side Dist2 in
  attempted := !attempted + (2 * List.length (sched @ dist));
  let errors = List.concat_map (function Ok s -> s.s_errors | Error e -> [ e ]) in
  let plain = List.concat_map (function Ok s -> s.s_plain | Error _ -> []) in
  let errors = errors !shares @ errors sched @ errors dist in
  let traced =
    List.concat_map (function Ok s -> s.s_traced | Error _ -> []) !shares
  in
  let counts = List.sort_uniq compare (List.map replays (plain !shares)) in
  let errors =
    if List.length counts > 1 then
      errors @ [ "jobs=1 walks made different numbers of replays" ]
    else errors
  in
  let metrics =
    if errors <> [] || plain !shares = [] || (trace && traced = []) then []
    else if trace then
      per_layer ~plain:(plain !shares) ~traced ~sched:(plain sched)
        ~dist:(plain dist)
    else end_to_end (List.filter_map Result.to_option !shares)
  in
  let unattributed =
    List.exists
      (fun (x : metric) -> x.name = "ledger.unattributed_frac" && x.value > 0.10)
      metrics
  in
  let errors =
    errors
    @
    if unattributed then
      [ "the ledger leaves more than 10% of wall unattributed" ]
    else []
  in
  { attempted = !attempted; failed = List.length errors; errors; metrics }
