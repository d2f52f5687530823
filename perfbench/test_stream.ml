(* The serve-mix job stream is a function of the seed: the same seed gives
   the same stream, and every stream has the shape the workload promises. *)

open Perfbench

let () =
  let s1 = Serve_mix.stream ~seed:42 ~round:3 in
  let s2 = Serve_mix.stream ~seed:42 ~round:3 in
  assert (s1 = s2);
  assert (s1 <> Serve_mix.stream ~seed:43 ~round:3);
  assert (s1 <> Serve_mix.stream ~seed:42 ~round:4);
  let n = List.length Serve_mix.pool in
  List.iter
    (fun seed ->
      let s = Serve_mix.stream ~seed ~round:0 in
      assert (List.length s = 2 * n);
      (* each label once cold, then once warm *)
      List.iter
        (fun spec ->
          let kinds =
            List.filter_map (fun (sp, k) -> if sp = spec then Some k else None) s
          in
          assert (kinds = [ Serve_mix.Cold; Serve_mix.Warm ]))
        Serve_mix.pool)
    [ 0; 1; 7; 1234 ];
  print_endline "serve-mix stream: deterministic per seed"
