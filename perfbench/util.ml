(* Shared helpers: the one clock, sample statistics, span buffers, /proc
   readings. *)

(* CLOCK_MONOTONIC in nanoseconds. The clock is system-wide, so
   timestamps taken in forked worker processes compare with the parent's. *)
let now_ns () = Int64.to_int (Monotonic_clock.now ())
let s_of_ns ns = float_of_int ns *. 1e-9

(* Growable int buffer: one writer, amortised O(1) append, no allocation
   on the hot path until it has to grow. *)
module Ibuf = struct
  type t = { mutable a : int array; mutable n : int }

  let create () = { a = Array.make 65536 0; n = 0 }

  let add b x =
    if b.n = Array.length b.a then begin
      let a = Array.make (2 * b.n) 0 in
      Array.blit b.a 0 a 0 b.n;
      b.a <- a
    end;
    b.a.(b.n) <- x;
    b.n <- b.n + 1

  let to_array b = Array.sub b.a 0 b.n
end

(* Replay spans as seen from the runner boundary: (start, end) pairs in
   ns, appended by exactly one worker. *)
module Spans = struct
  type t = { starts : Ibuf.t; ends : Ibuf.t }

  let create () = { starts = Ibuf.create (); ends = Ibuf.create () }

  let wrap s (runner : Dampi.Explorer.runner) : Dampi.Explorer.runner =
   fun ~ctx plan ~fork_index ->
    Ibuf.add s.starts (now_ns ());
    let r = runner ~ctx plan ~fork_index in
    Ibuf.add s.ends (now_ns ());
    r

  (* Spans as a plain record of arrays, for Marshal across a pipe. *)
  type frozen = { f_starts : int array; f_ends : int array }

  let freeze s =
    { f_starts = Ibuf.to_array s.starts; f_ends = Ibuf.to_array s.ends }

  let durations f = Array.mapi (fun i st -> f.f_ends.(i) - st) f.f_starts
  let busy f = Array.fold_left ( + ) 0 (durations f)

  (* Idle time between a worker's consecutive replays. *)
  let gaps f =
    Array.init
      (max 0 (Array.length f.f_starts - 1))
      (fun i -> f.f_starts.(i + 1) - f.f_ends.(i))
end

(* ---- sample statistics ---- *)

(* Nearest-rank quantile of a float sample, q in [0, 1]. *)
let quantile q xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    let i = int_of_float (Float.ceil (q *. float_of_int n)) - 1 in
    s.(max 0 (min (n - 1) i))
  end

let median xs =
  let n = Array.length xs in
  if n = 0 then nan
  else begin
    let s = Array.copy xs in
    Array.sort compare s;
    if n mod 2 = 1 then s.(n / 2) else (s.((n / 2) - 1) +. s.(n / 2)) /. 2.0
  end
let floats_of_ints a = Array.map float_of_int a

let mean xs =
  let n = Array.length xs in
  if n = 0 then nan else Array.fold_left ( +. ) 0.0 xs /. float_of_int n

(* ---- process readings ---- *)

(* A "Key:   value kB" field of /proc/<pid>/status, in kB. *)
let proc_status_kb pid key =
  let path = Printf.sprintf "/proc/%s/status" pid in
  match open_in path with
  | exception Sys_error _ -> None
  | ic ->
      let rec scan () =
        match input_line ic with
        | exception End_of_file -> None
        | line -> (
            match String.index_opt line ':' with
            | Some i when String.sub line 0 i = key ->
                let rest = String.sub line (i + 1) (String.length line - i - 1) in
                Scanf.sscanf_opt (String.trim rest) "%d" (fun kb -> kb)
            | _ -> scan ())
      in
      let r = scan () in
      close_in ic;
      r

(* Peak resident set (VmHWM) in MB. *)
let peak_rss_mb pid =
  match proc_status_kb pid "VmHWM" with
  | Some kb -> float_of_int kb /. 1024.0
  | None -> nan

let cpu_s () =
  let t = Unix.times () in
  t.Unix.tms_utime +. t.Unix.tms_stime

(* Minor-heap words allocated so far by this process. *)
let minor_words () = (Gc.quick_stat ()).Gc.minor_words

(* ---- the result line ---- *)

type metric = { name : string; value : float; unit_ : string }

let m name unit_ value = { name; value; unit_ }

(* What one workload run produced. *)
type outcome = {
  attempted : int;
  failed : int;
  errors : string list;
  metrics : metric list;
}

let json_float v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let result_line ~correct ~attempted ~failed metrics =
  let body =
    String.concat ", "
      (List.map
         (fun { name; value; unit_ } ->
           Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" name
             (json_float value) unit_)
         metrics)
  in
  Printf.sprintf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}"
    correct attempted failed body

(* The canonical form of a rendered report: every line but the wall-clock
   "host time:" one, which is the only line that varies between runs of
   the same configuration, and without trailing blank lines. *)
let canonical_lines lines =
  let kept =
    List.filter
      (fun l ->
        let l = String.trim l in
        not (String.length l >= 10 && String.sub l 0 10 = "host time:"))
      lines
  in
  let rec drop_blank = function "" :: rest -> drop_blank rest | l -> l in
  List.rev (drop_blank (List.rev kept))

let report_text (r : Dampi.Report.t) = Format.asprintf "%a@." Dampi.Report.pp r

let canonical_report r =
  canonical_lines (String.split_on_char '\n' (report_text r))
