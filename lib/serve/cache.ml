(* Result cache keyed by the canonical formula hash (Hash.formula).

   Repeated traffic — the same instance submitted again, or the same
   formula under a different file name — answers from memory instead of
   search.  Only conclusive outcomes are cached: an Unknown is a
   statement about a budget, not about the formula.

   Bounded FIFO: entries are evicted oldest-first once [capacity] keys
   are live.  FIFO (not LRU) keeps hits O(1) with no bookkeeping on the
   read path; the serving workload is batch-shaped, where recency within
   a batch matters little. *)

module ST = Qbf_solver.Solver_types

type entry = {
  outcome : ST.outcome; (* True or False only *)
  solve_time : float; (* what the original search cost *)
}

type t = {
  tbl : (string, entry) Hashtbl.t;
  order : string Queue.t; (* insertion order, for eviction *)
  capacity : int;
}

let create ?(capacity = 100_000) () =
  {
    tbl = Hashtbl.create 1024;
    order = Queue.create ();
    capacity = max 1 capacity;
  }

let find t key = Hashtbl.find_opt t.tbl key

let add t key entry =
  match entry.outcome with
  | ST.Unknown -> ()
  | ST.True | ST.False ->
      if not (Hashtbl.mem t.tbl key) then begin
        if Hashtbl.length t.tbl >= t.capacity then begin
          match Queue.take_opt t.order with
          | Some oldest -> Hashtbl.remove t.tbl oldest
          | None -> ()
        end;
        Hashtbl.replace t.tbl key entry;
        Queue.add key t.order
      end

let size t = Hashtbl.length t.tbl
