(* The explore-j1 phase ledger: a traced runner assembled from the same
   public pieces as [Dampi.Explorer.dampi_runner], with one timing shim
   between the program and [Interpose.Wrap] and one between
   [Interpose.Wrap] and [Mpi.Bind].

   Every boundary crossing is an event. An event charges the time since
   the previous event to the layer the previous event left its rank in,
   then records which layer its own rank is now in. Only one simulated
   rank runs at a time, and ranks switch only inside the runtime (a
   blocking call parks a rank inside [Bind]), so the time between two
   events always belongs to the layer the earlier event entered: the
   charges partition the replay exactly. *)

type layer = Program | Interpose | Runtime | Harness

let index = function Program -> 0 | Interpose -> 1 | Runtime -> 2 | Harness -> 3

type t = {
  acc : int array;  (** ns charged per layer, indexed by [index] *)
  mutable last : int;
  mutable cur : int;
  mutable mpi_calls : int;  (** program-level MPI calls *)
}

let create () = { acc = Array.make 4 0; last = 0; cur = 3; mpi_calls = 0 }

let[@inline] event l layer =
  let t = Util.now_ns () in
  l.acc.(l.cur) <- l.acc.(l.cur) + (t - l.last);
  l.last <- t;
  l.cur <- index layer

let charged l layer = l.acc.(index layer)

(* One shim: [enter] runs before each call into [M], [leave] after it
   returns or raises. The pure accessors (rank, size, comm_id,
   world_rank, world_size, request_id) pass straight through and are
   charged to their caller: each reads a field, which costs less than the
   clock read that would time it, and together they are a third of all
   calls. *)
module Shim
    (B : sig
      val enter : unit -> unit
      val leave : unit -> unit
    end)
    (M : Mpi.Mpi_intf.MPI_CORE) :
  Mpi.Mpi_intf.MPI_CORE
    with type comm = M.comm
     and type request = M.request
     and type prequest = M.prequest = struct
  type comm = M.comm
  type request = M.request
  type prequest = M.prequest

  let call f =
    B.enter ();
    match f () with
    | v ->
        B.leave ();
        v
    | exception e ->
        B.leave ();
        raise e

  let any_source = M.any_source
  let any_tag = M.any_tag
  let comm_world = M.comm_world
  let rank = M.rank
  let size = M.size
  let comm_id = M.comm_id
  let world_rank = M.world_rank
  let world_size = M.world_size
  let isend ?tag ~dest c p = call (fun () -> M.isend ?tag ~dest c p)
  let issend ?tag ~dest c p = call (fun () -> M.issend ?tag ~dest c p)
  let send ?tag ~dest c p = call (fun () -> M.send ?tag ~dest c p)
  let ssend ?tag ~dest c p = call (fun () -> M.ssend ?tag ~dest c p)
  let irecv ?src ?tag c = call (fun () -> M.irecv ?src ?tag c)
  let recv ?src ?tag c = call (fun () -> M.recv ?src ?tag c)

  let sendrecv ?stag ?rtag ~dest ~src c p =
    call (fun () -> M.sendrecv ?stag ?rtag ~dest ~src c p)

  let send_init ?tag ~dest c p = call (fun () -> M.send_init ?tag ~dest c p)
  let recv_init ?src ?tag c = call (fun () -> M.recv_init ?src ?tag c)
  let start p = call (fun () -> M.start p)
  let startall ps = call (fun () -> M.startall ps)
  let wait r = call (fun () -> M.wait r)
  let test r = call (fun () -> M.test r)
  let waitall rs = call (fun () -> M.waitall rs)
  let waitany rs = call (fun () -> M.waitany rs)
  let testall rs = call (fun () -> M.testall rs)
  let recv_data r = call (fun () -> M.recv_data r)
  let request_id = M.request_id
  let probe ?src ?tag c = call (fun () -> M.probe ?src ?tag c)
  let iprobe ?src ?tag c = call (fun () -> M.iprobe ?src ?tag c)
  let barrier c = call (fun () -> M.barrier c)
  let bcast ~root c p = call (fun () -> M.bcast ~root c p)
  let reduce ~root ~op c p = call (fun () -> M.reduce ~root ~op c p)
  let allreduce ~op c p = call (fun () -> M.allreduce ~op c p)
  let gather ~root c p = call (fun () -> M.gather ~root c p)
  let allgather c p = call (fun () -> M.allgather c p)
  let scatter ~root c ps = call (fun () -> M.scatter ~root c ps)
  let alltoall c ps = call (fun () -> M.alltoall c ps)
  let scan ~op c p = call (fun () -> M.scan ~op c p)
  let exscan ~op c p = call (fun () -> M.exscan ~op c p)

  let reduce_scatter_block ~op c ps =
    call (fun () -> M.reduce_scatter_block ~op c ps)

  let comm_group c = call (fun () -> M.comm_group c)
  let comm_create c g = call (fun () -> M.comm_create c g)
  let comm_dup c = call (fun () -> M.comm_dup c)
  let comm_split ~color ~key c = call (fun () -> M.comm_split ~color ~key c)
  let comm_free c = call (fun () -> M.comm_free c)
  let pcontrol l = call (fun () -> M.pcontrol l)
  let wtime () = call M.wtime
  let work dt = call (fun () -> M.work dt)
end

(* [Dampi.Explorer.dampi_runner] with both shims in place; every replay
   charges into [l]. The steps and their order mirror dampi_runner, so
   the run record is the same one. *)
let runner (config : Dampi.Explorer.config) ~np l
    (program : Mpi.Mpi_intf.program) : Dampi.Explorer.runner =
 fun ~ctx plan ~fork_index ->
  l.last <- Util.now_ns ();
  l.cur <- index Harness;
  let fault = Dampi.Explorer.fault_of_ctx ctx config.robustness.fault in
  let rt =
    Mpi.Runtime.create ~cost:config.cost ?metrics:ctx.metrics
      ~profile:config.profile ~fault ~np ()
  in
  let st =
    Dampi.State.create ~config:config.state_config ?metrics:ctx.metrics
      ~profile:config.profile ?poison:ctx.poison ~np ~plan ~fork_index ()
  in
  Mpi.Runtime.set_interrupt_hook rt (fun () -> Dampi.State.check_poison st);
  let module B = Mpi.Bind.Make (struct
    let rt = rt
  end) in
  let module Inner =
    Shim
      (struct
        let enter () = event l Runtime
        let leave () = event l Interpose
      end)
      (B)
  in
  let module W = Dampi.Interpose.Wrap (Inner) (struct
    let st = st
  end) in
  let module Outer =
    Shim
      (struct
        let enter () =
          l.mpi_calls <- l.mpi_calls + 1;
          event l Interpose

        let leave () = event l Program
      end)
      (W)
  in
  let module P = (val program) in
  let module Prog = P (Outer) in
  Mpi.Runtime.spawn_ranks rt (fun _rank ->
      event l Interpose;
      match
        W.init_tool ();
        event l Program;
        Prog.main ();
        event l Interpose;
        W.finalize_tool ()
      with
      | () -> event l Runtime
      | exception e ->
          event l Runtime;
          raise e);
  (* From here until the first rank starts, the scheduler is running. *)
  event l Runtime;
  let outcome = Mpi.Runtime.run rt in
  event l Harness;
  Dampi.State.flush_metrics st;
  let cancelled =
    match outcome with
    | Sim.Coroutine.Crashed (_, Dampi.State.Replay_cancelled, _) -> true
    | _ -> false
  in
  let leaks = Mpi.Runtime.leak_report rt in
  let record =
    {
      Dampi.Report.run_plan = plan;
      outcome;
      makespan = Mpi.Runtime.makespan rt;
      new_epochs =
        (if cancelled then [] else Dampi.State.completed_epochs st);
      run_errors =
        (if cancelled then []
         else
           Dampi.Explorer.errors_of_run ~check_leaks:config.check_leaks ~outcome
             ~leaks ~shadow_ctxs:(W.shadow_ctxs ()) ~st);
      wildcards = Dampi.State.wildcard_events st;
      cancelled;
    }
  in
  event l Harness;
  record
