(* Lock-discipline pass.

   Shared state is guarded by one mutex per structure, and every critical
   section is [Mutex.protect m (fun () -> ...)], which releases the lock
   however the section exits. OCaml mutexes are non-reentrant, so a nested
   acquisition is a self-deadlock, and anything slow inside a critical
   section stalls every thread that shares the lock. This pass checks four
   conventions:

   - [raw-mutex]: any reference to [Mutex.lock]/[Mutex.unlock] — an
     ad-hoc pair is exactly the exception-leaks-the-lock defect class,
     and a hand-rolled helper is a second copy of [Mutex.protect];
   - [blocking-under-lock]: a blocking call reachable from inside a
     critical section. [Condition.wait] is exempt — it atomically
     releases the mutex while waiting, which is the one legitimate
     block-while-holding pattern;
   - [lock-order]: an acquisition reachable from inside a critical
     section — with non-reentrant mutexes any nested acquisition on the
     same structure deadlocks, and acquiring a second lock under the
     first is how inversions start, so the discipline is simply "never
     acquire under a lock";
   - [dispatch-under-lock]: handler dispatch reachable from a critical
     section — user handlers run arbitrary protocol code and may send
     (hence lock) recursively. *)

type config = { dispatchers : string list (* handler-dispatch functions *) }

(* Blocking minus Condition.wait (see above). *)
let blocking_under_lock callee =
  callee <> "Condition.wait" && Impl_blocking.is_blocking callee

let pass ~target (g : Callgraph.t) (cfg : config) =
  let diag = Diag.v ~pass:"impl-locks" ~target in
  let out = ref [] in
  let seen = Hashtbl.create 16 in
  let emit ~code ~site fmt =
    Format.kasprintf
      (fun msg ->
        if not (Hashtbl.mem seen (code, site)) then (
          Hashtbl.replace seen (code, site) ();
          out := diag ~code ~site "%s" msg :: !out))
      fmt
  in
  let all_defs = Callgraph.defs g in
  (* raw-mutex: lock/unlock anywhere *)
  List.iter
    (fun (d : Callgraph.def) ->
      List.iter
        (fun (e : Callgraph.edge) ->
          match e.Callgraph.e_callee with
          | "Mutex.lock" | "Mutex.unlock" ->
              emit ~code:"raw-mutex" ~site:e.Callgraph.e_site
                "raw %s in %s — route critical sections through \
                 Mutex.protect"
                e.Callgraph.e_callee d.Callgraph.d_name
          | _ -> ())
        (Callgraph.edges d))
    all_defs;
  (* under-lock reachability: seed from edges tagged by the graph as
     occurring inside a Mutex.protect critical section *)
  let classify ~site ~via callee =
    if blocking_under_lock callee then
      emit ~code:"blocking-under-lock" ~site
        "blocking call %s while holding the lock (%s)" callee via
    else if callee = "Mutex.protect" || callee = "Mutex.lock" then
      emit ~code:"lock-order" ~site
        "lock acquisition %s while already holding a lock (%s) — \
         non-reentrant mutex, nested acquisition deadlocks or inverts"
        callee via
    else if List.mem callee cfg.dispatchers then
      emit ~code:"dispatch-under-lock" ~site
        "handler dispatch %s while holding the lock (%s)" callee via
  in
  let seeds = ref [] in
  List.iter
    (fun (d : Callgraph.def) ->
      List.iter
        (fun (e : Callgraph.edge) ->
          if e.Callgraph.e_locked then begin
            classify ~site:e.Callgraph.e_site
              ~via:
                (Printf.sprintf "in a critical section inside %s"
                   d.Callgraph.d_name)
              e.Callgraph.e_callee;
            seeds := e.Callgraph.e_callee :: !seeds
          end)
        (Callgraph.edges d))
    all_defs;
  (* transitively: anything the critical section calls *)
  let r = Callgraph.reach g ~roots:!seeds in
  List.iter
    (fun (d : Callgraph.def) ->
      if Callgraph.reached r d.Callgraph.d_name then
        List.iter
          (fun (e : Callgraph.edge) ->
            classify ~site:e.Callgraph.e_site
              ~via:
                (Printf.sprintf "under lock via %s"
                   (Callgraph.chain r d.Callgraph.d_name))
              e.Callgraph.e_callee)
          (Callgraph.edges d))
    (Callgraph.defs g);
  List.rev !out
